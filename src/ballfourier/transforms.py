"""The transform stack on H^2 and H^3.

Forward boundary transform (horocycle-wave analysis), Poisson transform,
their composition (the joint-eigenspace transform, both by factorization and
by the distance-kernel convolution), spherical transform, inversion,
Plancherel, and the residuals used to verify the identities connecting them.

jeft_grid is the one place that picks the joint-eigenspace route.  Near the
origin it is the paper's factorization, the Poisson transform of the grid
slices.  Beyond FAR_RADIUS the product grid cannot resolve the Poisson
kernel peak, of width ~e^-r at radius r, and the route is the
distance-kernel convolution jeft_direct.  By the addition formula

    phi_lam(d(x, y)) = Int_B e^{(i lam + rho) A(x, b)} e^{(-i lam + rho) A(y, b)} db

(Helgason, Groups and Geometric Analysis, Ch. IV) the convolution is the
Poisson transform of the same discrete slice, exact in b.  jeft_direct sums
it with the panelled Chebyshev moments of the explicit-direction slice
below, in the distance d(x, y) in place of the Busemann value: per point
one moment table and one phi_lam table for all lam at its panels' Lobatto
nodes, in place of one phi_lam per (point, sample, lam).  Every point is checked
against |x| < 1 - BALL_TOL before any arithmetic (_interior).

The Laplace-Beltrami stencil depends on the dimension only through the
boundary sphere S^{d-1}: it is built on the d - 1 orthonormal tangent
vectors at omega = x/|x| (_tangent_frame).

The forward slice has three routes, all picked in boundary_slices:

- at the directions of a disk grid it is the grid's own sum as an exact FFT
  convolution over the angle, whose kernel is folded by its reflection
  (_slices_fft);
- at the directions of a sphere grid, for real lam, it is the samples'
  spherical harmonics (K-types) times the Funk-Hecke coefficients of the
  kernel, exact in b for samples of the grid's own degree, where the grid's
  sum aliases the kernel's angular bandwidth (_slices_ktype).  The
  coefficients are Helgason's generalized spherical functions, from one
  three-term recurrence in the degree run backward (_funk_hecke): one
  exponential per support row and lam;
- at explicit directions, those of any other grid, or complex lam on a
  sphere grid, it is a panelled Chebyshev series in the Busemann value
  (_slices_chebyshev):
  P = ceil(max|z| range(B) / 2) equal panels per direction,
  z = -i lam + rho, and N = 20 moments per panel built once per call, so
  each lam costs N + 1 + P exponentials per direction.  Against the dense
  Busemann sum, one exponential per (sample, lam) and the tests' oracle, it
  measured within 5e-14 of sum |c_j e^{z B_j}| (worst of 80 random shifted
  and modulated bumps, 40 lam each, with |Re lam| <= 200 and |Im lam| up to
  the overflow guard).

Before any of them, boundary_slices and spherical_transform take the lam
route of _lam_route, the Paley-Wiener theorem in numerical form: both are
entire in lam of exponential type support_radius, since |A(x, b)| <= d(o, x)
and phi_lam(r) has type r.  On an interval of half-width L such a function
is fixed to rounding by N + 1 Chebyshev values, N = ceil(omega +
12 omega^(1/3) + 16) with omega = L support_radius, so a call with more
real lam than that evaluates the N + 1 Chebyshev-Lobatto points of
[min lam, max lam] and interpolates barycentrically; complex lam and short
lists pass through bit for bit.  The same degree rule sizes every spectral
integral (_pw_rule): no node count is configured.

Every temporary sized samples x directions is built in blocks of about
geometry.BLOCK entries, whatever the grid: the FFT slice takes its radial
rows, the Chebyshev slice its directions and poisson its points in chunks
of that size, and the K-type slice builds nothing larger than the
samples, so the peak memory of a call follows the number of samples and of
output values, not samples x directions.

spherical_transform, jeft_direct, invert and the residuals take batches
and return batches: a scalar lam or a single point is a batch of one, and
the output keeps its batch axes.  helgason_forward, jeft and poisson keep a
one-point form as well.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .geometry import (
    BALL_TOL,
    BLOCK,
    GeometryError,
    Isometry,
    apply_array,
    busemann_field,
    dist,
    half_root_sum,
    pairwise_dist,
    point_to_polar,
    polar_to_point,
    _as_coords,
)
from .grids import (
    BoundaryGrid,
    BumpSpec,
    RadialGrid,
    SampledFunction,
    _affine,
    k_average_profile,
    legendre_rule,
    legendre_rules,
    legendre_table,
    sample_bump,
)
from .spectral import (
    c_function,
    eigenvalue_of,
    plancherel_density_table,
    spherical_phi,
)

# Beyond these radii the product boundary grid cannot resolve the Poisson
# kernel peak and jeft_grid takes the distance-kernel convolution.
FAR_RADIUS = {2: 3.2, 3: 2.2}

# Normalization of the inversion and Plancherel formulas against |c(lam)|^-2,
# the same in both dimensions (Helgason, Geometric Analysis on Symmetric
# Spaces, Fourier analysis on H^n); calibrate_kappa cross-checks it for d = 2.
KAPPA = 1.0 / (2.0 * np.pi**2)

# Largest allowed |Im lam| * support_radius: keeps the kernel below ~e^40.
OVERFLOW_EXPONENT = 40.0

# Chebyshev order of the panelled slice and convolution, and its Lobatto
# points cos(pi k / N).  On a panel of half-width h with |z| h <= 1 the
# coefficients 2 I_m(z h) of e^{z h x} fall below 1e-19 by m = 20.
_CHEB_ORDER = 20
_LOBATTO = np.cos(np.pi * np.arange(_CHEB_ORDER + 1) / _CHEB_ORDER)
# Samples per block of the Chebyshev moment table.
_MOMENT_BLOCK = 8192
# Largest allowed | |b| - 1 | of an explicit direction.
_UNIT_TOL = 1e-12
# Most points of an _orbit_rule (24 MB of coordinates).  Its degree grows
# like e^r in the orbit's radius r, so a sphere rule grows like e^(2r); at
# lam = 0 the limit is reached at r = 4.39 in d = 3 and r = 10.97 in d = 2.
_ORBIT_MAX_POINTS = 2**20
# Finite-difference step of laplace_beltrami_residual.
_STENCIL_STEP = 1e-2


class TransformUsageError(ValueError):
    """Operation called outside its contract (non-radial input, bad radius, ...)."""


class TransformRangeError(ValueError):
    """Requested spectral parameter violates the overflow guard."""


def _support_data(f: SampledFunction):
    """Points and weight x value of the nonzero samples in the support rows.

    A zero sample adds 0 to every kernel sum, so dropping it is exact.  The
    coordinates tanh(r/2) omega are masked one axis at a time: gathering
    whole (n_support, m, d) points by the mask is a loop of length d per
    sample.
    """
    mask = f.support_mask
    vals = f.values[mask]
    keep = vals != 0
    t = np.tanh(0.5 * f.radial.nodes[mask])[:, None]
    pts = np.stack([(t * f.boundary.directions[:, c])[keep] for c in range(f.dim)], axis=1)
    return pts, (f.radial_weights()[mask][:, None] * f.boundary.weights)[keep] * vals[keep]


def _interior(x, dim: int = None) -> np.ndarray:
    """The coordinates of one point or of an (n, d) array of points, as given.

    Raises GeometryError unless every point satisfies |x| < 1 - BALL_TOL, the
    rule of ``Point``; a NaN coordinate fails it too.
    """
    coords = _as_coords(x, dim)
    norms = np.linalg.norm(np.atleast_2d(coords), axis=-1)
    if not np.all(norms < 1.0 - BALL_TOL):
        raise GeometryError(f"points must lie strictly inside the unit ball; got |x| up to {np.max(norms)}")
    return coords


def _lam_batch(lam) -> np.ndarray:
    """lam as a 1-D array, a scalar as a batch of one; TransformUsageError for ndim >= 2."""
    lams = np.atleast_1d(lam)
    if lams.ndim != 1:
        raise TransformUsageError(f"lam must be a scalar or a 1-D array, got shape {lams.shape}")
    return lams


def _as_directions(b, dim: int) -> np.ndarray:
    """Boundary directions as an (m, dim) array, one direction given as a dim-vector.

    Raises TransformUsageError unless every row has unit norm within 1e-12.
    """
    bs = np.atleast_2d(_as_coords(b))
    if bs.ndim != 2 or bs.shape[1] != dim:
        raise TransformUsageError(f"directions must have shape (m, {dim}), got {bs.shape}")
    if np.any(np.abs(np.linalg.norm(bs, axis=1) - 1.0) > _UNIT_TOL):
        raise TransformUsageError("directions must be unit vectors")
    return bs


def helgason_forward(f: SampledFunction, lam: complex, b):
    """Forward transform: quadrature of f(x) e^{(-i lam + rho)(A(x, b))} over dmu.

    One lam; ``b`` may be a single boundary point, giving one value, or an
    (m, d) array of unit vectors, giving m values.  lam may be complex (the
    integrand is entire in lam), inside the overflow guard of
    boundary_slices, which evaluates it at explicit directions.
    """
    coords = _as_coords(b, f.dim)
    out = boundary_slices(f, [lam], coords)[0]
    return out[0] if coords.ndim == 1 else out


def boundary_slices(f: SampledFunction, lams, bs=None) -> np.ndarray:
    """Forward transform on a lam grid in one pass: values of shape (n_lam, m).

    The one place that picks the slice route.  First the lam route
    (``_lam_route``): more real lam than the Paley-Wiener degree rule needs
    on [min lam, max lam] are interpolated from the slices at its
    Chebyshev-Lobatto nodes; any other lam pass through.  Then, for the lam
    that are evaluated:

    - ``bs=None`` on a grid built by ``BoundaryGrid.disk`` (its
      ``layout`` is set): the grid's own sum as an exact circular
      convolution by FFT, with the kernel exponentiated on the half of the
      angles its reflection leaves (``_slices_fft``);
    - ``bs=None`` on a grid built by ``BoundaryGrid.sphere``, real lam:
      the samples' spherical harmonics times the Funk-Hecke coefficients of
      the kernel from their recurrence (``_slices_ktype``), exact in b for
      samples of the grid's degree;
    - an explicit ``bs``, a grid with no ``layout`` (rotated, permuted or
      built by hand), or complex lam on a sphere grid:
      panelled Chebyshev sums in the Busemann value (``_slices_chebyshev``),
      within 1e-13 of the dense sum relative to the sum of the terms'
      magnitudes (5e-14 measured).

    A scalar lam is one spectral value.  Raises TransformUsageError for lam
    of ndim >= 2 and unless ``bs`` has shape (m, d) (one direction may be
    given as a d-vector) with rows of unit norm within 1e-12, and
    TransformRangeError when max |Im lam| * support_radius exceeds
    OVERFLOW_EXPONENT.
    """
    lams = _lam_batch(lams).astype(complex)
    growth = np.max(np.abs(lams.imag), initial=0.0) * f.support_radius
    if growth > OVERFLOW_EXPONENT:
        raise TransformRangeError(
            f"|Im lam| * support = {growth:.1f} exceeds the overflow guard {OVERFLOW_EXPONENT}"
        )
    grid = bs is None and f.boundary.layout is not None
    if grid and f.dim == 2:
        return _lam_route(lambda l: _slices_fft(f, l), lams, f.support_radius)
    bs = _as_directions(f.boundary.directions if bs is None else bs, f.dim)
    if not grid:
        return _lam_route(lambda l: _slices_chebyshev(f, l, bs), lams, f.support_radius)

    def sphere_slices(l):
        out = np.empty((len(l), len(bs)), dtype=complex)
        real = l.imag == 0
        out[real] = _slices_ktype(f, l[real])
        if not np.all(real):
            out[~real] = _slices_chebyshev(f, l[~real], bs)
        return out

    return _lam_route(sphere_slices, lams, f.support_radius)


def _pw_degree(omega: float) -> int:
    """Chebyshev degree N = ceil(omega + 12 omega^(1/3) + 16) of the lam route.

    A function of exponential type R on an interval of half-width L is, in
    x in [-1, 1], a superposition of e^{-i omega s x} with |s| <= 1 and
    omega = L R, whose Chebyshev coefficients are 2 (-i)^n J_n(omega s).
    Past n = omega they fall like the Airy tail, and at this N,
    |J_N(omega)| <= 1e-17 for every omega <= 200.
    """
    return int(np.ceil(omega + 12.0 * np.cbrt(omega) + 16.0))


def _pw_count(a: float, b: float, type_: float, dim: int) -> int:
    """Node count of the Gauss-Legendre rule for the integral over [a, b] of h(lam) |c(lam)|^-2.

    h is entire of exponential type ``type_``, so it is its degree-N
    Chebyshev truncation, N = _pw_degree((b - a) type_ / 2), and n =
    ceil((N + 3) / 2) nodes integrate that times the d = 3 density lam^2
    exactly.  The d = 2 density pi lam tanh(pi lam) has poles at +-i/2, on
    which the error falls like rho^(-2n) for the Bernstein ellipse rho of
    [a, b] through them, so d = 2 takes at least ln(1e17) / (2 ln rho)
    nodes: 96 on the d = 2 plancherel profile, where 62 left the residual
    5.5e-12 off a 400-node rule.  Raises TransformUsageError unless a < b
    and b is finite: a lam_max of zero or below gives no interval.
    """
    if not (np.isfinite(b) and a < b):
        raise TransformUsageError(f"a spectral rule needs a finite lam_max > 0; got the interval [{a}, {b}]")
    n = (_pw_degree(0.5 * (b - a) * type_) + 4) // 2
    if dim == 2:
        x = (0.5j - 0.5 * (a + b)) / (0.5 * (b - a))
        root = np.sqrt(x - 1.0) * np.sqrt(x + 1.0)
        rho = max(abs(x + root), abs(x - root))
        n = max(n, int(np.ceil(np.log(1e17) / (2.0 * np.log(rho)))))
    return n


def _pw_rule(a: float, b: float, type_: float, dim: int):
    """Gauss-Legendre nodes and weights on [a, b] with _pw_count(a, b, type_, dim) nodes."""
    return _affine(legendre_rule(_pw_count(a, b, type_, dim)), a, b)


def _orbit_degree(tau, lam):
    """Degree L = ceil((52 ln 2 + pi |lam| / 2) / ln(1 / tau)) of _orbit_rule; arrays broadcast.

    The Fourier and Legendre coefficients of the zonal term psi of
    _orbit_rule fall below 2^-52 past it.
    """
    return np.ceil((52.0 * np.log(2.0) + 0.5 * np.pi * np.abs(lam)) / -np.log(tau)).astype(int)


def _orbit_rule(dim: int, tau: float, lam) -> BoundaryGrid:
    """Rule for the K-average of a Poisson transform over the sphere |y| = tau, 0 < tau < 1.

    By the Busemann cocycle A(g y, b) = A(y, g^-1 b) + A(g o, b), a Poisson
    transform at lam composed with an isometry g is, on that sphere, a sum
    of zonal terms G_c psi(<omega, g^-1 b_c>) with

        psi(cos t) = ((1 - tau^2) / (1 + tau^2 - 2 tau cos t))^s
                   = (1 - tau^2)^s (1 - tau e^{it})^-s (1 - tau e^{-it})^-s,

    s = i lam + rho.  The Fourier coefficients of psi in t are sums of
    products of the Taylor coefficients (s)_k / k! tau^k of the two factors,
    which fall like tau^k times |k^(s - 1) / Gamma(s)|, and 1 / |Gamma(rho +
    i lam)| grows like e^(pi |lam| / 2).  psi is analytic inside the
    Bernstein ellipse of parameter 1 / tau (its branch point is cos t =
    (1 + tau^2) / (2 tau)), so its Legendre coefficients fall at the same
    rate.  Degree L = ceil((52 ln 2 + pi |lam| / 2) / ln(1 / tau)) leaves
    them below 2^-52: disk(L + 1) integrates every Fourier mode |m| <= L
    exactly, and sphere(L // 2 + 1, L + 1) every spherical harmonic of degree
    <= L (Gauss-Legendre in cos theta exact to degree 2 (L // 2) + 1, the
    azimuth exact for |m| <= L).  The rule depends on tau and lam only.
    Raises TransformUsageError when it would have more than
    _ORBIT_MAX_POINTS points.
    """
    n = int(_orbit_degree(tau, lam))
    size = n + 1 if dim == 2 else (n // 2 + 1) * (n + 1)
    if size > _ORBIT_MAX_POINTS:
        raise TransformUsageError(
            f"the K-orbit of radius |x| = {tau} at lam = {lam} needs a rule of {size} points, "
            f"more than {_ORBIT_MAX_POINTS}"
        )
    return BoundaryGrid.disk(n + 1) if dim == 2 else BoundaryGrid.sphere(n // 2 + 1, n + 1)


def _lam_route(evaluate, lams: np.ndarray, radius: float) -> np.ndarray:
    """evaluate(lams), or its barycentric interpolant from _pw_degree(omega) + 1 Chebyshev values.

    ``evaluate`` maps a 1-D array of lam to values whose first axis is lam,
    and each value is an entire function of lam of exponential type at most
    ``radius`` (Paley-Wiener): a sum of c_j e^{-i lam B_j} with |B_j| <=
    ``radius`` and lam-independent c_j.  ``lams`` is a 1-D array.  When they
    are real, finite and number more than N + 1, with N = _pw_degree(omega)
    and omega = (max lam - min lam) radius / 2, the values come from the
    N + 1 Chebyshev-Lobatto points of [min lam, max lam] by the second-kind
    barycentric formula (Berrut and Trefethen, SIAM Review 46, 2004), with
    weights (-1)^k, halved at both ends.  A lam equal to a node returns that
    node's value exactly; both ends of the interval are nodes.  For real lam
    every term has a lam-independent magnitude, so the error is the
    truncation of the Chebyshev series plus rounding, both relative to
    sum |c_j|: measured within 2.9e-15 of per-lam FFT slices and 7.1e-16 of
    per-lam spherical transforms.  Every other call is evaluate(lams)
    itself, bit for bit.
    """
    if np.any(lams.imag) or not np.all(np.isfinite(lams)):
        return evaluate(lams)
    lo, hi = float(np.min(lams.real)), float(np.max(lams.real))
    n = _pw_degree(0.5 * (hi - lo) * radius)
    if len(lams) <= n + 1:
        return evaluate(lams)
    # Chebyshev-Lobatto points in ascending order; sin keeps them symmetric
    x = np.sin(0.5 * np.pi * np.arange(-n, n + 1, 2) / n)
    nodes = 0.5 * (lo + hi) + 0.5 * (hi - lo) * x
    nodes[[0, -1]] = lo, hi
    vals = evaluate(nodes.astype(lams.dtype))
    weights = np.where(np.arange(n + 1) % 2, -1.0, 1.0)
    weights[[0, -1]] *= 0.5
    diff = lams.real[:, None] - nodes
    hit = diff == 0.0
    on_node = np.any(hit, axis=1)
    diff[hit] = 1.0
    coef = weights / diff
    # exact node values: the first matching node with coefficient 1, the rest 0
    coef[on_node] = 0.0
    coef[on_node, np.argmax(hit[on_node], axis=1)] = 1.0
    coef /= np.sum(coef, axis=1, keepdims=True)
    # the real coefficients act on the interleaved real and imaginary parts
    flat = np.ascontiguousarray(vals.reshape(n + 1, -1), dtype=complex)
    return (coef @ flat.view(float)).view(complex).reshape((len(lams),) + vals.shape[1:])


def _slices_chebyshev(f: SampledFunction, lams: np.ndarray, bs: np.ndarray) -> np.ndarray:
    """boundary_slices at explicit directions by panelled Chebyshev sums.

    At a direction b the slice is sum_j c_j e^{z B_j} with B_j = A(x_j, b)
    and z = -i lam + rho.  The range [min B, max B] (within [-r, r] for
    unit b) is split into P = ceil(max|z| (max B - min B) / 2) equal panels
    of half-width h, so |z| h <= 1 for every lam of the call.  On panel p,
    with centre beta_p and x = (B - beta_p) / h,

        e^{z B} = e^{z beta_p} sum_{m <= N} a_m(z h) T_m(x),

    where a_m(w) are the Chebyshev coefficients of e^{w x} on [-1, 1]
    (2 I_m(w), below 1e-19 at m = N = 20 for |w| <= 1), computed as the DCT-I
    of e^{w cos(pi k / N)} at the N + 1 Lobatto points through an FFT.  The
    lam-independent moments M_(m,p) = sum_{j in p} c_j T_m(x_j) are built
    once per direction by the three-term recurrence, so each lam costs
    N + 1 + P exponentials instead of one per sample.  |e^{z B}| varies by at
    most e^2 on a panel, which keeps the rounding near machine precision; one
    interval over the whole range loses digits like e^{|Re z| h}.  The
    Busemann values are built for chunks of about BLOCK samples x directions.
    """
    pts, wv = _support_data(f)
    out = np.zeros((len(lams), len(bs)), dtype=complex)
    if len(pts) == 0:
        return out
    z = -1j * lams + half_root_sum(f.dim)
    z_max = float(np.max(np.abs(z)))
    wv_pairs = np.ascontiguousarray(wv, dtype=complex).view(float).reshape(-1, 2)
    step = max(1, BLOCK // len(pts))
    for i in range(0, len(bs), step):
        for k, B in enumerate(np.ascontiguousarray(busemann_field(pts, bs[i : i + step]).T)):
            lo, h, moments = _panel_moments(B, z_max, wv_pairs)
            centres = lo + (2.0 * np.arange(moments.shape[1]) + 1.0) * h
            coef = _chebyshev_coefficients(np.exp(np.outer(z * h, _LOBATTO)))
            out[:, i + k] = np.sum(np.exp(np.outer(z, centres)) * (coef @ moments), axis=1)
    return out


def _chebyshev_coefficients(vals: np.ndarray) -> np.ndarray:
    """Chebyshev coefficients of the interpolant through values at _LOBATTO, along the last axis.

    The DCT-I of the N + 1 values, through the FFT of their even extension.
    """
    n = vals.shape[-1] - 1
    coef = np.fft.fft(np.concatenate([vals, vals[..., -2:0:-1]], axis=-1), axis=-1)[..., : n + 1] / n
    coef[..., [0, n]] *= 0.5
    return coef


def _panel_moments(s: np.ndarray, rate: float, weights: np.ndarray):
    """Panels of [min s, max s] and the moments of the weights on them: (lo, h, moments).

    The range is split into P = ceil(rate (max s - min s) / 2) equal panels
    of half-width h, so rate h <= 1; panel p has centre lo + (2p + 1) h, and
    x_j in [-1, 1] is s_j's offset from its panel's centre in half-widths.
    The moments sum_{j in p} c_j T_m(x_j) for m <= _CHEB_ORDER have shape
    (N + 1, P).  ``weights`` holds the complex c_j as (re, im) pairs, shape
    (n, 2).  The samples are sorted by panel once and taken in blocks of
    _MOMENT_BLOCK: T_m(x) of a block comes from the three-term recurrence,
    and each run of one panel within it adds one real matrix product of its
    columns of T against its weights.  The blocks keep T at 1.4 MB; a whole
    (N + 1, n) table raised the peak memory of pw-recovery d=3 by 5 MB.
    """
    lo, hi = float(s.min()), float(s.max())
    n_panels = max(1, int(np.ceil(rate * (hi - lo) / 2.0)))
    h = max((hi - lo) / (2.0 * n_panels), np.finfo(float).tiny)
    # x from the offset in half-widths: s - centre would lose x to the
    # rounding of the centre when h is a few ulps of s
    u = (s - lo) / h
    panel = np.minimum((0.5 * u).astype(np.intp), n_panels - 1)
    x = u - (2 * panel + 1)
    order = np.argsort(panel, kind="stable")
    x, panel, weights = x[order], panel[order], weights[order]
    moments = np.zeros((n_panels, _CHEB_ORDER + 1, 2))
    table = np.empty((_CHEB_ORDER + 1, min(len(x), _MOMENT_BLOCK)))
    for s in range(0, len(x), _MOMENT_BLOCK):
        xb, pb, wb = x[s : s + _MOMENT_BLOCK], panel[s : s + _MOMENT_BLOCK], weights[s : s + _MOMENT_BLOCK]
        T = table[:, : len(xb)]
        T[0] = 1.0
        T[1] = xb
        x2 = 2.0 * xb
        for m in range(1, _CHEB_ORDER):
            np.multiply(x2, T[m], out=T[m + 1])
            T[m + 1] -= T[m - 1]
        cuts = np.concatenate([[0], np.flatnonzero(np.diff(pb)) + 1, [len(xb)]])
        for a, b in zip(cuts[:-1], cuts[1:]):
            moments[pb[a]] += T[:, a:b] @ wb[a:b]
    return lo, h, moments.view(complex)[..., 0].T


def _real_times_complex(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The stacked product a @ b of a real array a and a complex array b, as one real product.

    The real matrix acts on the interleaved real and imaginary parts of b.
    """
    return (a @ np.ascontiguousarray(b, dtype=complex).view(float)).view(complex)


def _slices_fft(f: SampledFunction, lams: np.ndarray) -> np.ndarray:
    """boundary_slices on the directions of ``BoundaryGrid.disk`` by FFT over the angle.

    A sample tanh(r_i/2) w_p against the direction b_s has a Busemann value
    that depends only on r_i and s - p, so each slice is a circular
    convolution whose kernel K_i(q) is the Busemann kernel of the angle-0
    samples against the directions.  The kernel is even, K(q) = K(n - q),
    so per lam only the half q <= n // 2 is exponentiated,
    n_support (n // 2 + 1) exponentials, and its DFT is a real cosine matrix
    on the half; the samples' FFT and the final inverse FFT are plain FFTs.
    The radial rows are taken in chunks of about BLOCK entries of rows x
    directions, whose Busemann values are shared by every lam, and each
    chunk adds its part of the convolution to the accumulated FFT.

    Exact K-type coefficients, as _slices_ktype takes on the sphere, would
    make the slice exact in b here too, but the kernel's Fourier
    coefficients need 2L + 2 samples per row, L the degree of _orbit_rule at
    the largest support radius (L ~ 700 at R ~ 3), against n // 2 + 1.
    """
    n = len(f.boundary)
    half = n // 2 + 1
    mask = f.support_mask
    wv = f.node_weights()[mask] * f.values[mask]
    # (n, 1, rows): frequency first, one product per frequency
    g_hat = np.ascontiguousarray(np.fft.fft(wv, axis=-1).T).reshape(n, 1, -1)
    first = np.tanh(0.5 * f.radial.nodes[mask])[:, None] * f.boundary.directions[0]
    # DFT of the even extension: multiplicity 1 at q = 0 and q = n / 2, else 2
    q = np.arange(half)
    mult = np.where((q == 0) | (2 * q == n), 1.0, 2.0)
    cosine = np.cos(2.0 * np.pi * (np.outer(q, q) % n) / n) * mult
    rho = half_root_sum(f.dim)
    acc = np.zeros((len(lams), n), dtype=complex)
    step = max(1, BLOCK // n)
    for i in range(0, len(first), step):
        B = np.ascontiguousarray(busemann_field(first[i : i + step], f.boundary.directions[:half]).T)
        g = g_hat[:, :, i : i + step]
        kernel = np.empty(B.shape, dtype=complex)  # (half, rows)
        for k, lam in enumerate(lams):
            np.multiply(-1j * lam + rho, B, out=kernel)
            np.exp(kernel, out=kernel)
            k_hat = _real_times_complex(cosine, kernel).reshape(half, -1, 1)
            acc[k, :half] += (g[:half] @ k_hat)[:, 0, 0]
            acc[k, half:] += (g[half:] @ k_hat[n - half : 0 : -1])[:, 0, 0]
    return np.fft.ifft(acc, axis=-1)


def _funk_hecke(dim: int, lams, radii, l_max: int) -> np.ndarray:
    """Funk-Hecke coefficients k_l(lam, r) of the kernel e^{(-i lam + rho) A}, shape (n_lam, n_r, l_max + 1).

    Along the sphere of radius r the kernel is psi(u) = (cosh r - u sinh
    r)^-s, s = -i lam + rho, of u = <omega, b>; k_l is 1/2 int psi P_l du in
    d = 3 and the Fourier coefficient of psi(cos t) in d = 2.  These are
    Helgason's generalized spherical functions (Groups and Geometric
    Analysis, Ch. IV), k_0 = phi_lam(r), and in both dimensions

        (l + 2 rho - s) k_(l+1) - (2l + 2 rho - 1) coth(r) k_l + (l - 1 + s) k_(l-1) = 0.

    Its two solutions grow like coth(r/2)^l and fall like tanh(r/2)^l, and
    k_l is the falling one, so the recurrence is run backward (Miller's
    algorithm) on the ratios q_l = k_l / k_(l-1), from q = 0 above the start
    max(L, l_max), L = _orbit_degree(tanh(r/2), lam), where |k_l| has fallen
    below 2^-52 of the kernel.  The same loop sums sum_l w_l k_l / k_0 by
    Horner's rule, w_l = 2l + 1 in d = 3 and 1, 2, 2, ... in d = 2, and
    psi(1) = sum_l w_l k_l = e^{s r} fixes k_0; k_0 itself, which vanishes
    at lam r = n pi in d = 3, is never divided by.  Every (lam, r) takes its
    own start and the operations it takes alone, so its coefficients do not
    depend on the rest of the call.  Measured within 8.4e-16 of sum_l |k_l|
    against mpmath in d = 3 and 2.9e-15 against the FFT of psi in d = 2
    (tests).
    """
    rho = half_root_sum(dim)
    lams = np.asarray(lams, dtype=complex)[:, None]
    s = -1j * lams + rho
    coth = 1.0 / np.tanh(radii)
    start = np.maximum(_orbit_degree(np.tanh(0.5 * radii), lams), l_max)
    top = np.max(start, initial=0)
    first = np.min(start, initial=top)  # every (lam, r) runs from here down
    q, h = np.zeros(start.shape, dtype=complex), np.zeros(start.shape, dtype=complex)
    table = np.empty(start.shape + (l_max + 1,), dtype=complex)
    for l in range(top, 0, -1):
        h = (2.0 * l + 1.0 if dim == 3 else 2.0) + q * h
        q = (l - 1.0 + s) / ((2.0 * l + 2.0 * rho - 1.0) * coth - (l + 2.0 * rho - s) * q)
        if l > first:
            idle = l > start
            q[idle], h[idle] = 0.0, 0.0
        if l <= l_max:
            table[..., l] = q
    table[..., 0] = np.exp(s * radii) / (1.0 + q * h)
    return np.cumprod(table, axis=-1)


def _slices_ktype(f: SampledFunction, lams: np.ndarray) -> np.ndarray:
    """boundary_slices on the directions of ``BoundaryGrid.sphere`` by K-types (Funk-Hecke), real lam.

    The kernel e^{z A} (z = -i lam + rho) of a sample tanh(r_i/2) omega
    against b depends only on u = <omega, b>, so by Funk-Hecke (Helgason,
    Groups and Geometric Analysis, Ch. IV) it maps the spherical harmonic
    Y_lm(omega) = Pbar_l^|m|(cos theta) e^{i m phi} (legendre_table) to
    k_l(lam, r_i) Y_lm(b), k_l = 1/2 int_{-1}^{1} e^{z A} P_l(u) du.  The
    slice is sum_lm a_lm(lam) Y_lm(b), a_lm = sum_i F_lm(i) k_l(lam, r_i):

    1. once per call, F_lm(i), the harmonics of support row i's weighted
       samples, by the azimuthal FFT and the grid's Gauss-Legendre weights
       in cos theta, for l <= l_max = min(n_rows - 1, (n_phi - 1) // 2),
       the degree to which the grid integrates Y_lm conj(Y_l'm') exactly
       (n_rows, n_phi is the grid's ``layout``);
    2. once per call, k_l(lam, r_i) for every lam and support row by their
       recurrence (_funk_hecke);
    3. per lam, a_lm, and the synthesis on the grid by Legendre sums in
       cos theta and one inverse FFT in azimuth.

    The slice is exact in b for samples of degree <= l_max, where the
    grid's own sum aliases the kernel's angular bandwidth, about
    lam sinh r.  Each lam takes the operations it takes alone, so its slice
    does not depend on the other lam of the call.  At complex lam the
    kernel peaks by e^{|Im lam| r}, and the truncated harmonics read worse
    than the grid's own sum on coarse grids (14 against 0.07 relative at
    lam = 5 + 29i on 8 x 16), so boundary_slices sends those to the grid's
    sum.
    """
    n_rows, n_phi = f.boundary.layout
    l_max = min(n_rows - 1, (n_phi - 1) // 2)
    mask = f.support_mask
    out = np.zeros((len(lams), n_rows, n_phi), dtype=complex)
    radii = f.radial.nodes[mask]
    if len(radii) == 0 or len(lams) == 0:
        return out.reshape(len(lams), n_rows * n_phi)
    ms = np.arange(-l_max, l_max + 1)
    # Y_lm on the polar rows for signed m, (m, row, l)
    ylm = np.ascontiguousarray(legendre_table(l_max, f.boundary.directions[::n_phi, 2])[np.abs(ms)].transpose(0, 2, 1))
    wv = (f.node_weights()[mask] * f.values[mask]).reshape(-1, n_rows, n_phi)
    g = np.fft.fft(wv, axis=-1)[..., ms % n_phi].transpose(2, 1, 0)  # (m, polar row, support row)
    # F_lm(i), (l, m, i)
    harmonics = np.ascontiguousarray(_real_times_complex(ylm.transpose(0, 2, 1), g).transpose(1, 0, 2))
    for k, coef in enumerate(_funk_hecke(f.dim, lams, radii, l_max)):  # k_l(lam, r_i), (i, l)
        a = harmonics @ coef.T[:, :, None]  # a_lm(lam), (l, m, 1)
        out[k][:, ms % n_phi] = _real_times_complex(ylm, a[..., 0].T[:, :, None])[..., 0].T
    return np.fft.ifft(out, axis=-1, norm="forward").reshape(len(lams), -1)


def poisson(F, boundary: BoundaryGrid, lam: complex, x):
    """Poisson transform of boundary samples F at interior point(s) x.

    ``F`` may also be stacked, shape (n_lam, m), with ``lam`` an array of
    n_lam values: row k is transformed at lam[k], and the values have shape
    (n_lam, n_x).  A single point x drops the last axis.  The kernel is
    built in row blocks of about BLOCK entries: each block of
    points takes one Busemann matrix, shared by every lam, and per lam one
    exponential and one product with the weighted row.  Every value is the
    same row-by-boundary dot product as over the whole (n_x, m) kernel.
    Raises GeometryError unless every point satisfies |x| < 1 - BALL_TOL,
    the rule of ``Point``, and for a value that is not finite, which a
    point within rounding of a boundary direction gives.
    """
    coords = _interior(x)
    F = np.asarray(F)
    if F.ndim not in (1, 2) or np.shape(lam) != F.shape[:-1]:
        raise TransformUsageError(
            f"poisson needs F of shape (m,) with one lam or (n_lam, m) with n_lam lams; "
            f"got F {F.shape}, lam {np.shape(lam)}"
        )
    rho = half_root_sum(boundary.dim)
    pts = np.atleast_2d(coords)
    lams = np.atleast_1d(lam)
    vals = np.empty((len(lams), len(pts)), dtype=complex)
    # equal blocks of at least two rows: numpy takes a one-row product as a
    # dot product, which rounds differently from the rows of a matrix product
    n_blocks = max(1, len(pts) // max(2, BLOCK // max(len(boundary), 1)))
    edges = [len(pts) * j // n_blocks for j in range(n_blocks + 1)]
    kernel = np.empty((-(-len(pts) // n_blocks), len(boundary)), dtype=complex)  # reused by every block and lam
    # a point within rounding of a direction gives log(0); the check below raises
    with np.errstate(divide="ignore", invalid="ignore"):
        for a, b in zip(edges[:-1], edges[1:]):
            B = busemann_field(pts[a:b], boundary.directions)
            block = kernel[: b - a]
            for k, (l, row) in enumerate(zip(lams, np.atleast_2d(F))):
                np.multiply(1j * complex(l) + rho, B, out=block)
                np.exp(block, out=block)
                vals[k, a:b] = block @ (boundary.weights * row)
    if not np.all(np.isfinite(vals)):
        raise GeometryError(
            "the Poisson transform is not finite: a point lies within rounding of a boundary "
            "direction (|x|^2 - 2 x.b + 1 rounds to 0), or F is not finite"
        )
    if coords.ndim == 1:
        vals = vals[:, 0]
    return vals[0] if F.ndim == 1 else vals


def _tangent_frame(omega: np.ndarray) -> np.ndarray:
    """d - 1 orthonormal tangent vectors of S^{d-1} at the unit vector omega, shape (d - 1, d)."""
    if len(omega) == 2:
        return np.array([[-omega[1], omega[0]]])
    e = np.zeros(3)
    e[np.argmin(np.abs(omega))] = 1.0
    p = np.cross(omega, e)
    p /= np.linalg.norm(p)
    return np.array([p, np.cross(omega, p)])


def spherical_transform(f: SampledFunction, lam):
    """Spherical transform of a K-invariant function: integral of f phi_(-lam) dmu.

    Values of shape (n_lam,); a scalar lam is one spectral value.  Route
    table: more real lam than the Paley-Wiener degree rule needs are
    interpolated from spherical_phi at its Chebyshev-Lobatto nodes
    (``_lam_route``; phi_lam(r) has exponential type r <= support_radius);
    any other lam, complex ones among them, take one spherical_phi call for
    the (n_lam, n_support) table at the support nodes, contracted with the
    weighted profile.
    """
    if not f.is_radial():
        raise TransformUsageError("spherical_transform requires a K-invariant (radial) input")
    mask = f.support_mask
    weighted = (f.radial_weights() * f.radial_profile())[mask]  # S_{d-1} w_i sinh^{d-1}(r_i) f(r_i)
    nodes = f.radial.nodes[mask]

    def transform(lams):
        return np.sum(weighted * spherical_phi(f.dim, lams, nodes), axis=1)

    return _lam_route(transform, _lam_batch(lam).astype(complex), f.support_radius)


def jeft(f: SampledFunction, lam: complex, x):
    """Joint-eigenspace transform at one point: jeft_grid(f, [lam], x).

    The route (radial, near or far) is picked by jeft_grid's route table:
    the far route is the convolution jeft_direct.
    """
    return complex(jeft_grid(f, [lam], x)[0, 0])


def jeft_direct(f: SampledFunction, lam, x):
    """Convolution: quadrature of f(y) phi_lam(dist(x, y)) over dmu(y), by panelled Chebyshev moments.

    The group convolution with the spherical function descends to this
    point-pair kernel because phi_lam is K-bi-invariant.  Values of shape
    (n_lam, n_x) for n_lam spectral values and an (n_x, d) array of points;
    a scalar lam or a single point is a batch of one.  It is also the far
    route of jeft_grid.  Raises GeometryError unless every point satisfies
    |x| < 1 - BALL_TOL.

    The value at x is sum_j c_j phi_lam(s_j), s_j = d(x, y_j): the sum of
    _slices_chebyshev with phi_lam(s) in place of e^{z B}.  phi_lam combines
    e^{(+-i lam - rho) s} (Helgason, Groups and Geometric Analysis, Ch. IV),
    so the panels of _panel_moments take rate = max over the call's lam of
    |(|Re lam|) + i (|Im lam| + rho)|, the larger of |+-i lam - rho|.  Each
    point takes its own panels of [min s, max s] and its lam-independent
    moments, so its value does not depend on the other points of the call;
    then one spherical_phi call for all lam at its P (N + 1) panel nodes, the
    DCT-I of those values and one product with the moments.  Against the
    per-sample sum (one phi_lam per sample and lam, the tests' oracle) it
    measured within 7e-16 of sum |c_j| on the seed-1 jeft-equivalence
    inputs, and within 7e-15 of sum |c_j| phi_{i Im lam}(s_j), a bound on
    the terms' magnitudes, over random bumps, points up to r = 8 and real
    and complex lam.
    """
    pts = np.atleast_2d(_interior(x, f.dim))
    lams = _lam_batch(lam).astype(complex)
    support, wv = _support_data(f)
    out = np.zeros((len(lams), len(pts)), dtype=complex)
    if len(support) == 0:
        return out
    rate = float(np.max(np.abs(np.abs(lams.real) + 1j * (np.abs(lams.imag) + half_root_sum(f.dim))), initial=0.0))
    wv_pairs = np.ascontiguousarray(wv, dtype=complex).view(float).reshape(-1, 2)
    for i, p in enumerate(pts):
        lo, h, moments = _panel_moments(pairwise_dist(p[None], support)[0], rate, wv_pairs)
        # lo + h (2p + 1 + cos) >= lo >= 0, as spherical_phi requires
        nodes = lo + h * (2.0 * np.arange(moments.shape[1])[:, None] + 1.0 + _LOBATTO)
        coef = _chebyshev_coefficients(spherical_phi(f.dim, lams, nodes))
        out[:, i] = coef.reshape(len(lams), moments.size) @ moments.T.ravel()
    return out


def jeft_grid(f: SampledFunction, lams, xs) -> np.ndarray:
    """jeft(f, lam_k, x_j) for every spectral value and point, shape (n_lam, n_x).

    The joint-eigenspace transform by factorization, the Poisson transform of
    the boundary slice.  Route table (the only place the route is chosen):

    - radial (K-invariant) input, any point: spherical transform times
      phi_lam(|x|), exact because the slice is constant in b;
    - |x| <= FAR_RADIUS: ``poisson`` of the grid slices, one Busemann matrix
      per row block of points, shared by all lam;
    - |x| > FAR_RADIUS, where the product grid cannot resolve the Poisson
      kernel peak: the convolution ``jeft_direct``, one call for all lam and
      far points, by panelled Chebyshev moments in the distance.

    Raises GeometryError unless every point satisfies |x| < 1 - BALL_TOL.
    """
    lams = np.atleast_1d(lams)
    xs = np.atleast_2d(_interior(xs, f.dim))
    radii = np.array([dist(np.zeros(f.dim), p) for p in xs])
    if f.is_radial():
        ft = spherical_transform(f, lams)
        return ft[:, None] * spherical_phi(f.dim, lams, radii)
    out = np.empty((len(lams), len(xs)), dtype=complex)
    near = radii <= FAR_RADIUS[f.dim]
    if np.any(near):
        out[:, near] = poisson(boundary_slices(f, lams), f.boundary, lams, xs[near])
    if not np.all(near):
        out[:, ~near] = jeft_direct(f, lams, xs[~near])
    return out


@dataclass(frozen=True)
class InversionResult:
    value: complex
    tail_fraction: float


def calibrate_kappa() -> float:
    """Oracle for KAPPA in d = 2: the constant that makes a reference bump invert exactly.

    It requires exact inversion of a reference bump of radius 2.5 at the
    origin, sampled on 104 Gauss-Legendre nodes over its support, against
    the density |c|^{-2} of the c-function fit at radii 12 and 14 (the
    oracle of the closed forms, not the closed form itself); it is a
    cross-check, not used by the transforms.  The spectral rule on [0, 30] is sized by _pw_rule from the
    type 2.5 of the bump's spherical transform.
    """
    spec = BumpSpec(dim=2, radius=2.5)
    boundary = BoundaryGrid.disk(8)  # radial reference bump: boundary size irrelevant
    ref = sample_bump(spec, RadialGrid.gauss_legendre(104, spec.support_radius), boundary)
    lams, weights = _pw_rule(0.0, 30.0, ref.support_radius, 2)
    ft = spherical_transform(ref, lams)  # times phi_lam(0) = 1
    dens = np.array([1.0 / abs(c_function(2, lam, fit_radii=(12.0, 14.0))) ** 2 for lam in lams])
    raw = np.sum(weights * ft * dens).real
    return float(np.exp(-1.0) / raw)


def invert(f: SampledFunction, x, lam_max: float, kappa: float = KAPPA):
    """Pointwise inversion: kappa * integral over [0, lam_max] of jeft(f, ., x) against |c|^-2 d lam.

    ``x`` is an (n, d) array of points, or a single point as a batch of
    one; the n InversionResults, in a list, share one spectral sweep.  The
    integrand at x is entire in lam of type d(o, x) + support_radius, so
    each point takes the _pw_rule of its own type on [0, 0.9 lam_max] and
    on [0.9 lam_max, lam_max], and its result does not depend on the rest
    of the batch.  The sweep evaluates jeft_grid once, on the union of the
    distinct rules, whose node counts one legendre_rules call builds.  The
    tail fraction is the second rule's share of the integral of
    |integrand|.
    Raises GeometryError unless every point satisfies |x| < 1 - BALL_TOL.
    """
    pts = np.atleast_2d(_interior(x, f.dim))
    pieces = ((0.0, 0.9 * lam_max), (0.9 * lam_max, lam_max))
    counts = [
        [_pw_count(a, b, dist(np.zeros(f.dim), p) + f.support_radius, f.dim) for a, b in pieces] for p in pts
    ]
    # a rule is fixed by its piece and node count: points of one count share
    # it, and one legendre_rules call builds every distinct count
    keys = list(dict.fromkeys((k, n) for row in counts for k, n in enumerate(row)))
    rules = {key: _affine(rule, *pieces[key[0]]) for key, rule in zip(keys, legendre_rules([n for _, n in keys]))}
    start = dict(zip(rules, np.cumsum([0] + [n for _, n in rules])))
    lams = np.concatenate([nodes for nodes, _ in rules.values()])
    vals = jeft_grid(f, lams, pts) * plancherel_density_table(f.dim, lams)[:, None]
    results = []
    for j, row in enumerate(counts):
        head, tail = (vals[start[k, n] : start[k, n] + n, j] * rules[k, n][1] for k, n in enumerate(row))
        mass = np.sum(np.abs(head)) + np.sum(np.abs(tail))
        frac = float(np.sum(np.abs(tail)) / mass) if mass > 0 else 0.0
        value = complex(kappa * (np.sum(head) + np.sum(tail)))
        results.append(InversionResult(value, frac))
    return results


@dataclass(frozen=True)
class PlancherelReport:
    lhs: float
    rhs: float
    residual: float
    kappa_implied: float
    lams: np.ndarray  # the spectral nodes
    density: np.ndarray  # |c(lam)|^-2 at the spectral nodes
    slice_norms: np.ndarray  # squared L^2(B) norm of the boundary slice at each node


def plancherel_residual(f: SampledFunction, lam_max: float) -> PlancherelReport:
    """|  ||f||^2 - KAPPA * double integral of |fhat|^2 |c|^-2 | / ||f||^2 over [0, lam_max].

    |fhat(lam, b)|^2 is entire in lam of type 2 support_radius, which sizes
    the _pw_rule on [0, lam_max]; ``lams`` of the report are its nodes.
    """
    lhs = float(np.sum(f.node_weights() * np.abs(f.values) ** 2))
    lams, weights = _pw_rule(0.0, lam_max, 2.0 * f.support_radius, f.dim)
    dens = plancherel_density_table(f.dim, lams)
    if f.is_radial():
        slice_norms = np.abs(spherical_transform(f, lams)) ** 2
    else:
        slice_norms = (np.abs(boundary_slices(f, lams)) ** 2) @ f.boundary.weights
    rhs = float(np.sum(weights * dens * slice_norms))
    if lhs == 0.0:
        return PlancherelReport(0.0, rhs, abs(rhs), 0.0, lams, dens, slice_norms)
    residual = abs(lhs - KAPPA * rhs) / lhs
    return PlancherelReport(lhs, rhs, residual, lhs / rhs, lams, dens, slice_norms)


def kaverage_bridge_residual(f: SampledFunction, g: Isometry, lam_max: float) -> float:
    """Max over the spectral nodes of | jeft(f, lam, g.0) - sph(K-average of f o g) |.

    The K-average is materialized as a radial sampled function first; the
    residual is normalized by 1 + |jeft|.  The nodes are those of the
    _pw_rule on [0, lam_max] of type d(o, g.0) + support_radius, the type
    of both sides.  They only sample a max and carry no density, so the
    rule is the d = 3 one, sized by the type alone, in both dimensions.
    """
    x0 = g.origin_image()
    lams, _ = _pw_rule(0.0, lam_max, dist(np.zeros(f.dim), x0) + f.support_radius, 3)
    prof = k_average_profile(f, g)
    lhs = jeft_grid(f, lams, x0)[:, 0]
    rhs = spherical_transform(prof, lams)
    return float(np.max(np.abs(lhs - rhs) / (1.0 + np.abs(lhs))))


def functional_equation_residual(f: SampledFunction, g, x, lam):
    """Rotation-averaged jeft around g . (k x) against phi_lam(|x|) jeft(f, lam, g.0).

    A sequence of n isometries, an (n, d) array of points and a 1-D array of
    n lam give the n residuals of the cases (g[k], x[k], lam[k]) as an array
    of shape (n,), from one boundary_slices call for all lam; one isometry,
    point or lam is a batch of one.  At x = o the K-orbit of g . (k x) is the
    one point g.0, where the Poisson transform is evaluated once.

    Elsewhere the K-average is taken over the orbit's own rule,
    _orbit_rule(d, |x|, lam), which integrates the Poisson transform over
    the sphere of radius |x| to rounding: its degree L grows with lam and
    with the radius, not with the input's boundary grid, and each case's
    rule depends only on its own |x| and lam.  On the seed-1 d = 3 scenario
    the five orbits hold 2,767 points, against 5,760 for the 24 x 48 input
    grid; over seeds 1-8 the worst residual is 9.07e-15 in d = 3 and
    1.3e-15 in d = 2 (9.07e-15 and 1.2e-15 over the input grid).  At
    r = 1.6, lam = 10 in d = 3 the input grid read 3.6e-4 and the rule
    reads 2.2e-13.  Raises GeometryError unless every point satisfies
    |x| < 1 - BALL_TOL, before any other work.
    """
    gs = [g] if isinstance(g, Isometry) else list(g)
    pts = np.atleast_2d(_interior(x, f.dim))
    lams = _lam_batch(lam)
    if pts.ndim != 2 or not len(gs) == len(pts) == len(lams):
        raise TransformUsageError(
            f"functional_equation_residual needs n isometries, points and lam; "
            f"got {len(gs)} isometries, points {pts.shape}, lam {lams.shape}"
        )
    slices = boundary_slices(f, lams)
    out = np.empty(len(lams))
    for k, (gk, p, l) in enumerate(zip(gs, pts, lams)):
        at_origin = poisson(slices[k], f.boundary, l, gk.origin_image())
        norm = float(np.linalg.norm(p))
        if norm == 0.0:
            lhs = np.sum(f.boundary.weights) * at_origin
        else:
            orbit = _orbit_rule(f.dim, norm, l)
            vals = poisson(slices[k], f.boundary, l, apply_array(gk, norm * orbit.directions))
            lhs = np.sum(orbit.weights * vals)
        rhs = spherical_phi(f.dim, l, dist(np.zeros(f.dim), p)) * at_origin
        out[k] = abs(lhs - rhs) / max(abs(rhs), 1e-300)
    return out


@dataclass(frozen=True)
class AsymptoticReport:
    ts: tuple
    residuals: np.ndarray
    target_magnitude: float


def asymptotic_limit_residual(f: SampledFunction, lam: complex, b0, t_list) -> AsymptoticReport:
    """Flat-front limit check: e^{(-i lam + rho) t} jeft(f, lam, a_t . o) -> c(lam) fhat(lam, b0).

    Requires Im(lam) < 0; real lam is shifted to lam - 1e-3 i (regularity
    condition of the limit), in which case the convergence rate e^{2 Im(lam) t}
    is correspondingly slow.
    """
    lam = complex(lam)
    if lam.imag == 0.0:
        lam = lam - 1e-3j
    rho = half_root_sum(f.dim)
    ts = tuple(float(t) for t in t_list)
    c = c_function(f.dim, lam)
    target = c * helgason_forward(f, lam, _as_coords(b0, f.dim))
    res = np.empty(len(ts))
    for i, t in enumerate(ts):
        x_t = polar_to_point(t, _as_coords(b0, f.dim))
        val = np.exp((-1j * lam + rho) * t) * jeft(f, lam, x_t.coords)
        res[i] = abs(val - target)
    return AsymptoticReport(ts, res, float(abs(target)))


@dataclass(frozen=True)
class EigenCheck:
    residual: float
    skipped: bool


def laplace_beltrami_residual(u, dim: int, lam: float, x) -> EigenCheck:
    """Finite-difference residual |Lap u - (-(lam^2 + rho^2)) u| / |u| at x.

    ``u`` maps an (n, d) coordinate array to complex values.  In geodesic
    polar coordinates Lap = d_r^2 + (d - 1) coth(r) d_r + sinh(r)^-2 Lap_S,
    and at omega = x/|x| the sphere Laplacian Lap_S is the sum of second
    derivatives along the great circles through omega in the d - 1
    directions of an orthonormal tangent frame.  Central differences on
    2d + 1 points: x, the radii r +- s along omega, and
    tanh(r/2)(cos(a) omega +- sin(a) e) for each frame vector e, with the
    angle a = s / max(1, sinh r), so that beyond sinh r = 1 the angular step
    has geodesic length s as well.  Two steps s = _STENCIL_STEP and s/2 are
    combined by one Richardson step.

    The step keeps the rounding of u, amplified by ~1/s^2, below the
    truncation error: a 1-ulp change of the radial weights moves the eigen
    scenario's worst d = 2 residual by 1% at s = 1e-2; it moved it from
    3.6e-8 to 2.4e-7 at the former s = 1e-3.  The horocycle wave, an exact
    eigenfunction, reads at most 1.7e-7 at lam = 1.3 and 3 for 0.11 <= r <= 4
    in both dimensions.
    x must satisfy dist(0, x) >= 0.1.
    """
    coords = _as_coords(x, dim)
    r, omega = point_to_polar(coords)
    if r < 0.1:
        raise TransformUsageError("stencil point must satisfy dist(0, x) >= 0.1")
    frame = _tangent_frame(omega)
    turns = np.stack([frame, -frame], axis=1).reshape(-1, dim)  # e_1, -e_1, e_2, -e_2

    def lap(step):
        radial = np.tanh(0.5 * np.array([r, r + step, r - step]))[:, None] * omega
        ang = step / max(1.0, np.sinh(r))  # geodesic length step beyond sinh r = 1
        sphere = np.tanh(0.5 * r) * (np.cos(ang) * omega + np.sin(ang) * turns)
        vals = u(np.concatenate([radial, sphere]))
        u0, urp, urm = vals[:3]
        u_rr = (urp - 2.0 * u0 + urm) / step**2
        u_r = (urp - urm) / (2.0 * step)
        u_ss = np.sum(vals[3::2] + vals[4::2] - 2.0 * u0) / ang**2
        return u_rr + (dim - 1) * u_r / np.tanh(r) + u_ss / np.sinh(r) ** 2, u0

    l1, u0 = lap(_STENCIL_STEP)
    l2, _ = lap(0.5 * _STENCIL_STEP)
    richardson = (4.0 * l2 - l1) / 3.0
    if abs(u0) < 1e-12:
        return EigenCheck(float("nan"), True)
    res = abs(richardson - eigenvalue_of(dim, lam) * u0) / abs(u0)
    return EigenCheck(float(res), False)


def eigen_equation_residual(f: SampledFunction, lam, x):
    """Eigen-equation residual of the transform output u(y) = jeft(f, lam, y).

    A 1-D array of n lam and an (n, d) array of points give a list of n
    EigenChecks, case k at (lam[k], x[k]), from one boundary_slices call for
    all lam; a scalar lam or a single point is a batch of one.  Raises
    GeometryError unless every point satisfies |x| < 1 - BALL_TOL, before
    any other work.
    """
    lams = _lam_batch(lam)
    pts = np.atleast_2d(_interior(x, f.dim))
    if pts.ndim != 2 or len(pts) != len(lams):
        raise TransformUsageError(
            f"eigen_equation_residual needs n lam and n points; got lam {lams.shape}, points {pts.shape}"
        )
    slices = boundary_slices(f, lams)
    return [
        laplace_beltrami_residual(functools.partial(poisson, sl, f.boundary, l), f.dim, l, p)
        for sl, l, p in zip(slices, lams, pts)
    ]
