"""Sampled functions, bump specs, hypothesis strategies and the dense slice oracle that only the tests build."""

from dataclasses import replace

import numpy as np
from hypothesis import strategies as st

from ballfourier.geometry import Isometry, busemann_field
from ballfourier.grids import BoundaryGrid, BumpSpec, RadialGrid, SampledFunction


def zero_function(dim: int, radial: RadialGrid, boundary: BoundaryGrid) -> SampledFunction:
    vals = np.zeros((len(radial), len(boundary)), dtype=complex)
    return SampledFunction(dim, radial, boundary, vals, 0.0, bump=None)


def translate_bump(spec: BumpSpec, g: Isometry) -> BumpSpec:
    """Exact analytic translate: the bump of x -> f(g^{-1} x)."""
    return replace(spec, center=spec.center.then(g))


def unit_vectors(dim: int):
    """Hypothesis strategy: unit vectors of R^dim, normalized from draws of norm > 0.1."""
    vectors = st.lists(st.floats(-1.0, 1.0), min_size=dim, max_size=dim).map(np.array)
    return vectors.filter(lambda v: np.linalg.norm(v) > 0.1).map(lambda v: v / np.linalg.norm(v))


def dense_slice(f: SampledFunction, lams, bs):
    """The dense forward slice, the oracle of the slice routes, and the sum of its terms' magnitudes.

    One exponential per (support-row sample, lam) at the (m, d) directions
    ``bs``; both arrays have shape (n_lam, m).
    """
    mask = f.support_mask
    pts = f.support_points().reshape(-1, f.dim)
    wv = (f.node_weights()[mask] * f.values[mask]).ravel()
    kernels = np.exp((-1j * np.asarray(lams)[:, None, None] + 0.5 * (f.dim - 1)) * busemann_field(pts, bs))
    return np.einsum("i,kij->kj", wv, kernels), np.einsum("i,kij->kj", np.abs(wv), np.abs(kernels))
