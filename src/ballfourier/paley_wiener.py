"""Empirical Paley-Wiener verification.

Holomorphic extension of the forward transform in the spectral parameter,
exponential-type estimation along the imaginary axis (slope -> circumscribed
support radius) and polynomial decay on the real axis.  Each is a gated check
of the pw-recovery scenario, next to the eigen-equation and Plancherel
scenarios that cover the rest of joint-eigenspace membership.

The type estimate probes lam = i sigma because the supremum of the Busemann
bracket over the support governs the growth exactly there.  The log-magnitude
is not asymptotically linear at reachable sigma: the mollifier's edge
contributes a -sqrt(2 R sigma) term, so the fit uses the enriched basis
{sigma~, sqrt(sigma~), log(sigma~), 1, 1/sqrt(sigma~)} and reports the linear
coefficient; a plain two-parameter slope carries an O(1/sqrt(sigma)) bias of
15-25% and cannot recover support radii to the 5% target.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .geometry import busemann_field, half_root_sum
from .grids import BoundaryGrid, RadialGrid, SampledFunction, _affine, legendre_rule, sample_bump
from .transforms import (
    OVERFLOW_EXPONENT,
    _as_directions,
    _lam_batch,
    boundary_slices,
    spherical_transform,
)

# Mean-value circle of holomorphy_circle_residual.
_CIRCLE_RADIUS = 0.1
_CIRCLE_NODES = 32
# Highest polynomial order of decay_report, and its sampling grid:
# _DECAY_NODES Gauss-Legendre nodes on [0, _DECAY_LAM_MAX].
_DECAY_MAX_ORDER = 4
_DECAY_NODES = 300
_DECAY_LAM_MAX = 48.0
# estimate_type's first sigma window ends at _SIGMA_MAX (capped by the
# overflow guard); every pass samples _N_SIGMA values.
_SIGMA_MAX = 8.0
_N_SIGMA = 16


class TypeFitError(RuntimeError):
    """Exponential-type fit failed (underflow or no admissible window)."""


def holomorphy_circle_residual(f: SampledFunction, center, b):
    """Mean-value test: the circle average of the transform minus its center value.

    ``center`` is a 1-D array of n complex values, one value a batch of
    one, giving n residuals of shape (n,).  ``b`` is one boundary direction,
    a d-vector or a (1, d) array; TransformUsageError for any other number
    of directions or a norm off 1 by more than 1e-12 (``_as_directions``).
    All rings and centers share one boundary_slices call at b: its
    Chebyshev route, or its radial route for a K-invariant input.
    """
    bs = _as_directions(b, f.dim, count=1)
    centers = _lam_batch(center).astype(complex)
    angles = 2.0 * np.pi * np.arange(_CIRCLE_NODES) / _CIRCLE_NODES
    rings = centers[:, None] + _CIRCLE_RADIUS * np.exp(1j * angles)
    vals = boundary_slices(f, np.append(rings, centers), bs)[:, 0]
    n = len(centers)
    return np.abs(vals[:-n].reshape(n, _CIRCLE_NODES).mean(axis=1) - vals[-n:])


@dataclass(frozen=True)
class TypeEstimate:
    boundary_points: np.ndarray  # (n_b, d)
    sigma_grid: np.ndarray
    log_magnitudes: np.ndarray  # (n_b, n_sigma)
    slopes: np.ndarray  # fitted R-hat per boundary point, >= 0
    fit_residuals: np.ndarray  # RMS residual of the accepted window per point
    window_starts: np.ndarray  # first sigma index of the accepted window
    radius_estimate: float  # global R-hat = max over sampled b


_FIT_RESIDUAL_BOUND = 1e-2
_MIN_WINDOW = 7


def _fit_growth_rate(sigma: np.ndarray, logmag: np.ndarray, rho: float):
    """Linear coefficient of sigma~ over the largest trailing admissible window."""
    st = sigma + rho
    basis = np.vstack(
        [st, np.sqrt(st), np.log(st), np.ones_like(st), 1.0 / np.sqrt(st)]
    ).T
    for start in range(0, len(sigma) - _MIN_WINDOW + 1):
        A = basis[start:]
        y = logmag[start:]
        coef, *_ = np.linalg.lstsq(A, y, rcond=None)
        rms = float(np.sqrt(np.mean((A @ coef - y) ** 2)))
        if rms <= _FIT_RESIDUAL_BOUND:
            return max(float(coef[0]), 0.0), rms, start
    raise TypeFitError("no trailing sigma-window met the fit residual bound")


def _centered_profile(f: SampledFunction):
    """The centered profile of an unmodulated bump on the input's radial rule, or None.

    The Gauss-Legendre rule of ``f.radial`` is rescaled from its range
    [0, r_max], the support [0, support_radius] in every scenario, to
    [0, bump radius], so the profile gets every node of the input's rule
    and no radial rule is built.  One boundary direction, e_1 with weight
    1 (the grid of one azimuth), suffices: the profile is radial.
    Built once per estimate_type call (see _imaginary_axis_log_magnitudes);
    other inputs get None.
    """
    spec = f.bump
    if spec is None or spec.alpha != 0.0:
        return None
    scale = spec.radius / f.radial.r_max
    radial = RadialGrid(f.radial.nodes * scale, f.radial.weights * scale, spec.radius)
    return sample_bump(replace(spec, center=None), radial, BoundaryGrid.with_azimuths(f.dim, 1))


def _imaginary_axis_log_magnitudes(f: SampledFunction, sigmas: np.ndarray, bs: np.ndarray, profile) -> np.ndarray:
    """log |fhat(i sigma, b)| as an (n_b, n_sigma) array.

    Along the imaginary axis the kernel concentrates in angular features of
    width ~ e^{-support}/sqrt(sigma), far beyond any fixed product grid.  For
    unmodulated bumps (translates of radial profiles) the transform factors
    exactly through the translation cocycle,

        fhat(i sigma, b) = e^{(sigma + rho) A(c, b)} * (radial transform of
                           the centered profile at i sigma),

    and both factors are evaluated with 1-d rules: the Busemann bracket at
    each probe point in closed form, and the spherical transform of
    ``profile``, from _centered_profile, on every node of the input's radial
    rule (phi_{-i sigma} costs one cosh per Mehler node in d = 2).  Other
    inputs fall back to the product grid, whose angular resolution then caps
    the usable sigma range.
    """
    rho = half_root_sum(f.dim)
    if profile is not None:
        bus = busemann_field(f.bump.center.origin_image()[None, :], bs)[0]
        ft = np.abs(spherical_transform(profile, -1j * sigmas))
        if not np.all(np.isfinite(ft)) or np.any(ft < 1e-300):
            raise TypeFitError("radial transform under/overflow on the imaginary axis")
        return (sigmas[None, :] + rho) * bus[:, None] + np.log(ft)[None, :]
    vals = boundary_slices(f, 1j * sigmas, bs)
    mags = np.abs(vals).T
    if np.any(mags < 1e-300):
        raise TypeFitError("transform underflow along the imaginary axis")
    return np.log(mags)


def _default_probe_points(dim: int) -> np.ndarray:
    if dim == 2:
        return BoundaryGrid.disk(8).directions
    return BoundaryGrid.sphere(3, 4).directions


def estimate_type(f: SampledFunction, boundary_points=None) -> TypeEstimate:
    """Exponential-type estimate of the transform: growth rate of |fhat(i sigma, b)|.

    The per-point rate estimates sup of the Busemann bracket over the support;
    the global maximum estimates the circumscribed support radius about the
    origin.  A second pass rescales the sigma window's end from _SIGMA_MAX to
    ~36 / R-hat (under the overflow guard), which small supports need.
    ``boundary_points`` defaults to a small probe grid; given ones are unit
    vectors of shape (m, d), or raise TransformUsageError on either route.
    An unmodulated bump is read through its descriptor and the nodes of its
    radial rule, never its samples, and no radial rule is built for it.
    """
    bs = _default_probe_points(f.dim) if boundary_points is None else _as_directions(boundary_points, f.dim)
    rho = half_root_sum(f.dim)
    profile = _centered_profile(f)

    def one_pass(smax: float):
        sig = np.linspace(max(0.5, smax / 2.0), smax, _N_SIGMA)
        logmag = _imaginary_axis_log_magnitudes(f, sig, bs, profile)
        slopes = np.empty(len(bs))
        resids = np.empty(len(bs))
        starts = np.empty(len(bs), dtype=int)
        for i in range(len(bs)):
            slopes[i], resids[i], starts[i] = _fit_growth_rate(sig, logmag[i], rho)
        return sig, logmag, slopes, resids, starts

    guard = OVERFLOW_EXPONENT / max(f.support_radius, 0.2) - 1.0
    smax = min(_SIGMA_MAX, guard)
    try:
        sig, logmag, slopes, resids, starts = one_pass(smax)
    except TypeFitError:
        smax *= 0.5
        sig, logmag, slopes, resids, starts = one_pass(smax)
    r_rough = max(float(np.max(slopes)), 0.5)
    better = min(30.0, 36.0 / r_rough, guard)
    if abs(better - smax) > 0.5:
        sig, logmag, slopes, resids, starts = one_pass(better)
    return TypeEstimate(bs, sig, logmag, slopes, resids, starts, float(np.max(slopes)))


@dataclass(frozen=True)
class DecayReport:
    orders: tuple  # polynomial orders N
    window_sups: dict  # N -> (sup on [L/4, L/2), sup on [L/2, L])
    verdicts: dict  # N -> bool, windowed sup non-increasing
    passed: bool
    vacuous: bool = False

    def as_dict(self) -> dict:
        return {
            "orders": list(self.orders),
            "window_sups": {str(k): list(v) for k, v in self.window_sups.items()},
            "verdicts": {str(k): bool(v) for k, v in self.verdicts.items()},
            "passed": self.passed,
            "vacuous": self.vacuous,
        }


def decay_report(f: SampledFunction, b) -> DecayReport:
    """Windowed sups of (1 + lam)^N |fhat(lam, b)| over the last two dyadic windows of [0, 48].

    fhat is boundary_slices at b, which takes the spherical transform for a
    K-invariant input.  ``b`` is one unit vector (TransformUsageError).
    """
    bs = _as_directions(b, f.dim, count=1)
    lam, _ = _affine(legendre_rule(_DECAY_NODES), 0.0, _DECAY_LAM_MAX)
    mags = np.abs(boundary_slices(f, lam, bs)[:, 0])
    lo = (lam >= 0.25 * _DECAY_LAM_MAX) & (lam < 0.5 * _DECAY_LAM_MAX)
    hi = lam >= 0.5 * _DECAY_LAM_MAX
    orders = tuple(range(_DECAY_MAX_ORDER + 1))
    if not np.any(mags):
        return DecayReport(orders, {n: (0.0, 0.0) for n in orders}, {n: True for n in orders}, True, vacuous=True)
    sups = {}
    verdicts = {}
    for n in orders:
        weighted = (1.0 + lam) ** n * mags
        s_lo = float(np.max(weighted[lo]))
        s_hi = float(np.max(weighted[hi]))
        sups[n] = (s_lo, s_hi)
        verdicts[n] = bool(s_hi <= s_lo * (1.0 + 1e-9))
    return DecayReport(orders, sups, verdicts, all(verdicts.values()))
