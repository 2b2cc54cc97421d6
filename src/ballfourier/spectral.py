"""Spherical functions, the c-function, and the Plancherel density for H^2 and H^3.

The spectral parameter lam is a complex scalar (rank one); spherical_phi
also takes a 1-D array of lam and returns every lam at every radius from one
call, so its callers make one call where they would loop over lam.  For H^3
the spherical function has the closed form sin(lam r) / (lam sinh r),
broadcast over (lam, r); for H^2 it is the conical Legendre function
P_{-1/2 + i lam}(cosh r), evaluated from its Mehler-Dirichlet integral over
a finite angle (DLMF 14.12; Helgason, Groups and Geometric Analysis,
Ch. IV), cosine-substituted:

    phi_lam(r) = (e^{-r/2}/pi) Int_0^pi cos(lam r cos theta) r sin(theta) / sqrt(g_- g_+) dtheta,
    g_-+ = 1 - e^{-r (1 -+ cos theta)}.

The integrand is smooth, even and 2 pi-periodic, so the midpoint rule
converges geometrically, with no tail and no cache.  One rule per call is
sized by the largest radius and the largest lam: the most of
n = |Re lam| r/2 + 2 sqrt(|Im lam| r) + 4 (|lam| r)^(1/3) + 5 sqrt(r) + 8
nodes over the call's lam, rounded up to even; the symmetry about
theta = pi/2 leaves half of them to evaluate.  The nodes, the amplitude
r sin(theta) / sqrt(g_- g_+) and u = r cos(theta) are built once per
cache-sized row block; each lam then costs one contraction and per node a
cosine (real lam), a cosh (purely imaginary lam, the exponential-type probe,
where phi is real) or cos * cosh and sin * sinh in real arithmetic (any other
complex lam).  A shared rule measured within 1.8e-13 max(1, |phi|) of
per-lam calls over 1,500 random calls of 1-40 lam (r <= 18,
|Im lam| r <= 40).  Measured against the mpmath conical function for
r <= 18: at most 9e-16 for real lam <= 48 and 2.8e-15 on the imaginary axis
(|Im lam| r <= 40).  Off both axes the cancellation of
cos(Re lam u) cosh(Im lam u) amplifies rounding, to 6e-14 at
lam = 32.8 - 0.7i, r = 18.

The c-function is evaluated in closed form in both dimensions: 1/(i lam) for
H^3 and c(lam) = Gamma(i lam) / (sqrt(pi) Gamma(1/2 + i lam)) for H^2
(Helgason, Ch. IV), the latter through a numpy log-gamma ratio (upward
recurrence to Re z >= 15, then eight Stirling terms).  Against mpmath it is
within 1.1e-14 relative at 5,000 random lam with 1e-3 <= |Re lam| <= 48 and
|Im lam| <= 1.  The two-radius fit of phi_lam's large-r asymptotics stays as
the oracle of both closed forms, reached only through an explicit
``fit_radii``.
"""

from __future__ import annotations

import numpy as np

from .geometry import BLOCK, GeometryError, half_root_sum


class CFunctionPoleError(ValueError):
    """c(lam) requested at its pole lam = 0."""


class FitConditioningError(RuntimeError):
    """The asymptotic-fit linear system was too ill-conditioned; retry with shifted radii."""


# Series fallbacks near removable singularities.
_SMALL_PRODUCT = 1e-4
_SMALL_RADIUS = 1e-6
# phi_lam(r) is 1 to double precision below this radius; clamping r there
# keeps g_- g_+ ~ r^2 sin^2(theta) from underflowing and r = 0 from giving 0/0.
_PHI2_MIN_RADIUS = 1e-150
# Stirling coefficients B_2k / (2k (2k - 1)), k = 1..8, and the real part of
# the argument above which _log_gamma_ratio sums them.
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156, -3617 / 122400)
_STIRLING_MIN_RE = 15.0


def _phi3(lams: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Closed form sin(lam r)/(lam sinh r), shape (n_lam, n_r), with removable singularities handled.

    Evaluated in blocks of about BLOCK (lam, r) entries, so that the
    complex temporaries stay in cache; every entry is computed as over the
    whole table.
    """
    out = np.empty((len(lams), len(r)), dtype=complex)
    lam = lams[:, None]
    block = max(1, BLOCK // max(len(lams), 1))
    for i in range(0, len(r), block):
        rb = r[i : i + block]
        ob = out[:, i : i + block]
        tiny_r = rb < _SMALL_RADIUS
        ob[:, tiny_r] = 1.0 - (lam * lam + 1.0) * rb[tiny_r] ** 2 / 6.0
        rr = rb[~tiny_r]
        w = lam * rr
        small = np.abs(w) < _SMALL_PRODUCT
        sinc = np.empty(w.shape, dtype=complex)
        sinc[small] = 1.0 - w[small] ** 2 / 6.0 + w[small] ** 4 / 120.0
        sinc[~small] = np.sin(w[~small]) / w[~small]
        ob[:, ~tiny_r] = sinc * rr / np.sinh(rr)
    return out


def _phi2_mehler(lams: np.ndarray, r: np.ndarray) -> np.ndarray:
    """phi_lam(r) by the midpoint rule on the Mehler-Dirichlet integral, shape (n_lam, n_r).

    t = r cos(theta) in (sqrt 2/pi) Int_0^r cos(lam t) (cosh r - cosh t)^{-1/2} dt
    and cosh r - cosh t = 2 sinh(r sin^2(theta/2)) sinh(r cos^2(theta/2)) give
    the integral over [0, pi] of the module docstring.  Past the oscillation
    |Re lam| r / 2, the (|lam| r)^(1/3) term covers the Bessel-like
    transition, sqrt(|Im lam| r) the peak at theta = 0 that
    cosh(Im lam r cos theta) builds, and sqrt(r) the singularities of
    1/sqrt(g_- g_+), about 1/sqrt(r) off the real axis.  The node count is
    even and the integrand symmetric about pi/2, so only the nodes in
    [0, pi/2] are evaluated.  All lam share the rule of the largest count,
    and with it the lam-independent amplitude and phase u = r cos(theta) of
    each row block.  On the imaginary axis cos(Re lam u) = 1 and
    sin(Re lam u) = 0, so one cosh per node gives the same real part bit for
    bit and an imaginary part of exactly 0.
    """
    r_max = float(np.max(r, initial=0.0))
    n = (
        0.5 * np.abs(lams.real) * r_max
        + 2.0 * np.sqrt(np.abs(lams.imag) * r_max)
        + 4.0 * np.cbrt(np.abs(lams) * r_max)
        + 5.0 * np.sqrt(r_max)
        + 8.0
    )
    m = int(np.ceil(0.5 * np.max(n, initial=8.0)))
    theta = (np.arange(m) + 0.5) * (0.5 * np.pi / m)
    cos_t = np.cos(theta)
    sin_t = np.sin(theta)
    # 1 -+ cos(theta) without cancellation
    one_minus = 2.0 * np.sin(0.5 * theta) ** 2
    one_plus = 2.0 * np.cos(0.5 * theta) ** 2
    out = np.zeros((len(lams), len(r)), dtype=complex)
    block = max(1, BLOCK // m)
    for i in range(0, len(r), block):
        rows = slice(i, i + block)
        rb = np.maximum(r[rows, None], _PHI2_MIN_RADIUS)
        g = np.expm1(-rb * one_minus)
        g *= np.expm1(-rb * one_plus)
        amp = rb * sin_t / np.sqrt(g)
        u = rb * cos_t
        for k, lam in enumerate(lams):
            if lam.imag == 0.0:
                out.real[k, rows] = np.mean(amp * np.cos(lam.real * u), axis=1)
            elif lam.real == 0.0:
                out.real[k, rows] = np.mean(amp * np.cosh(lam.imag * u), axis=1)
            else:
                re_u = lam.real * u
                im_u = lam.imag * u
                out.real[k, rows] = np.mean(amp * np.cos(re_u) * np.cosh(im_u), axis=1)
                out.imag[k, rows] = -np.mean(amp * np.sin(re_u) * np.sinh(im_u), axis=1)
    return np.exp(-0.5 * r) * out


def spherical_phi(dim: int, lam, r):
    """Spherical function phi_lam at geodesic radius r.

    ``lam`` is a complex scalar or a 1-D array of n values; ``r`` is a scalar
    or an array of any shape.  A scalar lam gives r's shape (a complex scalar
    for scalar r), an array of lam gives shape (n,) + r.shape.  For
    dim == 2 every lam of the call shares one midpoint rule, sized by the
    largest node count among them at the largest r.

    phi_lam(0) = 1 for every lam; phi_lam = phi_(-lam).  For dim == 2 the
    value equals the conical function P_{-1/2 + i lam}(cosh r).
    """
    lams = np.asarray(lam, dtype=complex)
    if lams.ndim > 1:
        raise GeometryError(f"spectral parameter must be a scalar or 1-D, got shape {lams.shape}")
    if not np.all(np.isfinite(lams)):
        raise GeometryError(f"spectral parameter must be finite, got {lam}")
    r_arr = np.asarray(r, dtype=float)
    if not np.all(np.isfinite(r_arr)):
        raise GeometryError("radius must be finite")
    if np.any(r_arr < 0):
        raise GeometryError("radius must be nonnegative")
    if dim == 3:
        out = _phi3(np.atleast_1d(lams), r_arr.ravel())
    elif dim == 2:
        out = _phi2_mehler(np.atleast_1d(lams), r_arr.ravel())
    else:
        raise GeometryError(f"dimension must be 2 or 3, got {dim}")
    return out.reshape(lams.shape + r_arr.shape)[()]


def _stirling_series(w: complex) -> complex:
    """Sum of _STIRLING[k-1] / w^(2k-1), ~ log Gamma(w) - (w - 1/2) log w + w - log(2 pi)/2."""
    inv = 1.0 / w
    inv2 = inv * inv
    series = 0j
    for coef in reversed(_STIRLING):
        series = series * inv2 + coef
    return series * inv


def _log_gamma_ratio(z: complex) -> complex:
    """log(Gamma(z) / Gamma(z + 1/2)), up to a multiple of 2 pi i, off the poles of both.

    Upward recurrence on both Gammas until Re z >= _STIRLING_MIN_RE, then the
    difference of their Stirling series (DLMF 5.11.1), whose first omitted
    term is below 1e-20 there.  At the shifted argument w the leading terms
    combine to 1/2 - log(w)/2 - w log1p(1/(2w)), of size ~ 1; two separate
    log-gammas reach |log Gamma| ~ 190 at |z| = 48, and their difference
    measured up to 1.1e-13 relative error on the ratio.
    """
    shift = 0j
    while z.real < _STIRLING_MIN_RE:
        shift += np.log(z + 0.5) - np.log(z)
        z += 1.0
    lead = 0.5 - 0.5 * np.log(z) - z * np.log1p(0.5 / z)
    return lead + _stirling_series(z) - _stirling_series(z + 0.5) + shift


def _fit_leading_coefficient(dim: int, lam: complex, fit_radii) -> complex:
    """Solve u(r_k) = c+ e^{i lam r_k} + c- e^{-i lam r_k} for u = phi * e^{rho r}."""
    rho = half_root_sum(dim)
    r1, r2 = fit_radii
    rs = np.array([r1, r2], dtype=float)
    u = spherical_phi(dim, lam, rs) * np.exp(rho * rs)
    system = np.array(
        [
            [np.exp(1j * lam * r1), np.exp(-1j * lam * r1)],
            [np.exp(1j * lam * r2), np.exp(-1j * lam * r2)],
        ]
    )
    # det = -2i sin(lam (r1 - r2)); below 1e-4 the fitted c loses digits
    # without any other sign (3e-6 off at |det| = 1.2e-5)
    if abs(np.linalg.det(system)) < 1e-4:
        raise FitConditioningError(
            f"fit system nearly singular at lam = {lam} for radii {fit_radii}; "
            "retry with shifted radii"
        )
    c_plus, _ = np.linalg.solve(system, u)
    return complex(c_plus)


def c_function(dim: int, lam: complex, fit_radii=None) -> complex:
    """Harish-Chandra c-function, normalized so phi_lam ~ c(lam) e^{(i lam - rho) r}.

    Closed forms: 1/(i lam) for dim == 3, read off the large-r expansion of
    sin(lam r)/(lam sinh r), and Gamma(i lam)/(sqrt(pi) Gamma(1/2 + i lam))
    for dim == 2.  With ``fit_radii = (r1, r2)`` the leading coefficient is
    instead fitted from phi at those two radii: the oracle of the closed
    forms, which raises FitConditioningError when sin(lam (r2 - r1)) ~ 0.
    """
    lam = complex(lam)
    if abs(lam) < 1e-12:
        raise CFunctionPoleError("c(lam) has a pole at lam = 0")
    if fit_radii is not None:
        return _fit_leading_coefficient(dim, lam, fit_radii)
    if dim == 3:
        return 1.0 / (1j * lam)
    if dim == 2:
        return complex(np.exp(_log_gamma_ratio(1j * lam)) / np.sqrt(np.pi))
    raise GeometryError(f"dimension must be 2 or 3, got {dim}")


def plancherel_density_table(dim: int, lams) -> np.ndarray:
    """|c(lam)|^{-2} over a grid of positive reals, in closed form.

    lam^2 for d = 3 and pi lam tanh(pi lam) for d = 2, the values of
    |c_function(dim, lam)|^{-2}; this is the spectral measure of the
    inversion and Plancherel formulas.
    """
    lams = np.asarray(lams, dtype=float)
    if dim == 3:
        return lams**2
    if dim == 2:
        return np.pi * lams * np.tanh(np.pi * lams)
    raise GeometryError(f"dimension must be 2 or 3, got {dim}")


def eigenvalue_of(dim: int, lam: complex) -> complex:
    """Laplace-Beltrami eigenvalue -(lam^2 + rho^2) of phi_lam and of the horocycle waves."""
    rho = half_root_sum(dim)
    return -(complex(lam) ** 2 + rho * rho)
