"""Sampled functions, bump specs, one-point Busemann brackets, hypothesis strategies and the dense slice and convolution oracles that only the tests build."""

from dataclasses import replace

import numpy as np
from hypothesis import strategies as st

from ballfourier.geometry import Isometry, Rotation, busemann_field, pairwise_dist
from ballfourier.grids import BoundaryGrid, BumpSpec, RadialGrid, SampledFunction, legendre_table
from ballfourier.spectral import spherical_phi
from ballfourier.transforms import _support_data


def zero_function(dim: int, radial: RadialGrid, boundary: BoundaryGrid) -> SampledFunction:
    vals = np.zeros((len(radial), len(boundary)), dtype=complex)
    return SampledFunction(dim, radial, boundary, vals, 0.0, bump=None)


def translate_bump(spec: BumpSpec, g: Isometry) -> BumpSpec:
    """Exact analytic translate: the bump of x -> f(g^{-1} x)."""
    return replace(spec, center=Isometry(spec.center.moves + g.moves, spec.dim))


def unit(v) -> np.ndarray:
    """v scaled to norm 1: a boundary direction."""
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


def center_along(axis, center: Isometry = None) -> Isometry:
    """``center`` (default the identity) after a rotation R with R e_1 = axis / |axis|.

    A bump about it is modulated along the axis: with moves (R, T) it reads
    rel = R^-1 T^-1 x, so rel_0 = <T^-1 x, R e_1>.  R is the Householder
    reflection taking e_1 to the axis with its second column negated.
    """
    a = unit(axis)
    dim = len(a)
    w = np.eye(dim)[0] - a
    rot = np.eye(dim)
    if np.linalg.norm(w) > 0.0:
        rot = rot - 2.0 * np.outer(w, w) / (w @ w)
        rot[:, 1] *= -1.0
    moves = center.moves if center is not None else ()
    return Isometry((Rotation(rot),) + moves, dim)


def bracket(x, b) -> float:
    """The Busemann bracket at one interior point x and one unit direction b: one entry of busemann_field."""
    return float(busemann_field(np.atleast_2d(x), np.atleast_2d(b))[0, 0])


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
    pts = (np.tanh(0.5 * f.radial.nodes[mask])[:, None, None] * f.boundary.directions).reshape(-1, f.dim)
    wv = (f.node_weights()[mask] * f.values[mask]).ravel()
    kernels = np.exp((-1j * np.asarray(lams)[:, None, None] + 0.5 * (f.dim - 1)) * busemann_field(pts, bs))
    return np.einsum("i,kij->kj", wv, kernels), np.einsum("i,kij->kj", np.abs(wv), np.abs(kernels))


def ktype_terms_magnitude(f: SampledFunction) -> np.ndarray:
    """A bound on the magnitudes of the terms the K-type slice sums, for real lam, at each direction of f's sphere grid.

    The slice at b is sum_(l, m, i) F_lm(i) k_l(lam, tau_i) Y_lm(b), with
    F_lm(i) the harmonics of support row i's weighted samples and
    |k_l(lam, tau_i)| <= 1/2 int |e^{(-i lam + rho) A}| du = phi_0(r_i) for
    real lam, so the bound is sum_(l, m, i) |F_lm(i)| phi_0(r_i) |Y_lm(b)|,
    shape (m,).
    """
    n_rows, n_phi = f.boundary.layout
    l_max = min(n_rows - 1, (n_phi - 1) // 2)
    ms = np.arange(-l_max, l_max + 1)
    mask = f.support_mask
    ylm = legendre_table(l_max, f.boundary.directions[::n_phi, 2])[np.abs(ms)]
    wv = (f.node_weights()[mask] * f.values[mask]).reshape(-1, n_rows, n_phi)
    harmonics = np.abs(np.einsum("mla,iam->lmi", ylm, np.fft.fft(wv, axis=-1)[..., ms % n_phi]))
    phi0 = spherical_phi(3, 0.0, f.radial.nodes[mask]).real
    return np.repeat(np.einsum("lmi,i,mla->a", harmonics, phi0, np.abs(ylm)), n_phi)


def direct_convolution(f: SampledFunction, lams, xs):
    """The per-sample convolution, the oracle of jeft_direct, and a bound on its terms' magnitudes.

    One phi_lam per (nonzero support sample, lam): sum_j c_j phi_lam(d_j),
    d_j = d(x, y_j), at the (n_x, d) points ``xs``, and the bound
    sum_j |c_j| phi_{i Im lam}(d_j) >= sum_j |c_j phi_lam(d_j)|, since
    |phi_lam| <= phi_{i Im lam} (Helgason, Groups and Geometric Analysis,
    Ch. IV).  The bound does not vanish where phi_lam does, and spherical_phi's
    rounding is of its size: at d = 9.6 and lam = 13.6, where phi_lam is
    4.4e-5, spherical_phi is 8e-17 off the mpmath conical function.  Both
    arrays have shape (n_lam, n_x).  Each lam takes one spherical_phi call
    over the whole (n_x, n_samples) distance matrix.
    """
    pts, wv = _support_data(f)
    D = pairwise_dist(np.atleast_2d(xs), pts)
    vals, bound = [], []
    for lam in np.atleast_1d(lams).astype(complex):
        vals.append(np.sum(wv * spherical_phi(f.dim, lam, D), axis=1))
        bound.append(spherical_phi(f.dim, 1j * abs(lam.imag), D).real @ np.abs(wv))
    return np.array(vals), np.array(bound)
