"""Sampled functions and bump specs that only the tests build."""

from dataclasses import replace

import numpy as np

from ballfourier.geometry import Isometry
from ballfourier.grids import BoundaryGrid, BumpSpec, RadialGrid, SampledFunction


def zero_function(dim: int, radial: RadialGrid, boundary: BoundaryGrid) -> SampledFunction:
    vals = np.zeros((len(radial), len(boundary)), dtype=complex)
    return SampledFunction(dim, radial, boundary, vals, 0.0, bump=None)


def translate_bump(spec: BumpSpec, g: Isometry) -> BumpSpec:
    """Exact analytic translate: the bump of x -> f(g^{-1} x)."""
    return replace(spec, center=spec.center.then(g))
