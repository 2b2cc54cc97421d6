"""Spherical functions, the c-function, and the Plancherel density for H^2 and H^3.

The spectral parameter lam is a complex scalar (rank one).  For H^3 the
spherical function has the closed form sin(lam r) / (lam sinh r); for H^2 it
is the conical Legendre function P_{-1/2 + i lam}(cosh r), evaluated from its
Mehler-Dirichlet integral over a finite angle (DLMF 14.12; Helgason, Groups
and Geometric Analysis, Ch. IV), cosine-substituted:

    phi_lam(r) = (e^{-r/2}/pi) Int_0^pi cos(lam r cos theta) r sin(theta) / sqrt(g_- g_+) dtheta,
    g_-+ = 1 - e^{-r (1 -+ cos theta)}.

The integrand is smooth, even and 2 pi-periodic, so the midpoint rule
converges geometrically, with no tail and no cache.  One rule per call is
sized by the largest radius: n = |Re lam| r/2 + 2 sqrt(|Im lam| r)
+ 4 (|lam| r)^(1/3) + 5 sqrt(r) + 8 nodes, rounded up to even; the symmetry
about theta = pi/2 leaves half of them to evaluate.  Real lam costs a cosine per node,
complex lam cos * cosh and sin * sinh in real arithmetic, in cache-sized row
blocks.  Measured against the mpmath conical function for r <= 18: at most
9e-16 for real lam <= 48 and 2.8e-15 on the imaginary axis
(|Im lam| r <= 40).  Off both axes the cancellation of
cos(Re lam u) cosh(Im lam u) amplifies rounding, to 6e-14 at
lam = 32.8 - 0.7i, r = 18.  The exponentially graded rule
(transforms.graded_rule) now serves only the far Poisson transform.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import GeometryError, half_root_sum


class CFunctionPoleError(ValueError):
    """c(lam) requested at its pole lam = 0."""


class FitConditioningError(RuntimeError):
    """The asymptotic-fit linear system was too ill-conditioned; retry with shifted radii."""


# Series fallbacks near removable singularities.
_SMALL_PRODUCT = 1e-4
_SMALL_RADIUS = 1e-6
# Elements per row block of _phi2_mehler: its temporaries stay in cache.
_PHI2_BLOCK = 2**16
# phi_lam(r) is 1 to double precision below this radius; clamping r there
# keeps g_- g_+ ~ r^2 sin^2(theta) from underflowing and r = 0 from giving 0/0.
_PHI2_MIN_RADIUS = 1e-150


def _phi3(lam: complex, r: np.ndarray) -> np.ndarray:
    """Closed form sin(lam r)/(lam sinh r) with removable singularities handled."""
    out = np.empty(r.shape, dtype=complex)
    tiny_r = r < _SMALL_RADIUS
    out[tiny_r] = 1.0 - (lam * lam + 1.0) * r[tiny_r] ** 2 / 6.0
    rr = r[~tiny_r]
    w = lam * rr
    small = np.abs(w) < _SMALL_PRODUCT
    sinc = np.empty(rr.shape, dtype=complex)
    sinc[small] = 1.0 - w[small] ** 2 / 6.0 + w[small] ** 4 / 120.0
    sinc[~small] = np.sin(w[~small]) / w[~small]
    out[~tiny_r] = sinc * rr / np.sinh(rr)
    return out


def _phi2_mehler(lam: complex, r: np.ndarray) -> np.ndarray:
    """phi_lam(r) by the midpoint rule on the Mehler-Dirichlet integral.

    t = r cos(theta) in (sqrt 2/pi) Int_0^r cos(lam t) (cosh r - cosh t)^{-1/2} dt
    and cosh r - cosh t = 2 sinh(r sin^2(theta/2)) sinh(r cos^2(theta/2)) give
    the integral over [0, pi] of the module docstring.  Past the oscillation
    |Re lam| r / 2, the (|lam| r)^(1/3) term covers the Bessel-like
    transition, sqrt(|Im lam| r) the peak at theta = 0 that
    cosh(Im lam r cos theta) builds, and sqrt(r) the singularities of
    1/sqrt(g_- g_+), about 1/sqrt(r) off the real axis.  The node count is
    even and the integrand symmetric about pi/2, so only the nodes in
    [0, pi/2] are evaluated.
    """
    r_max = float(np.max(r, initial=0.0))
    n = (
        0.5 * abs(lam.real) * r_max
        + 2.0 * np.sqrt(abs(lam.imag) * r_max)
        + 4.0 * np.cbrt(abs(lam) * r_max)
        + 5.0 * np.sqrt(r_max)
        + 8.0
    )
    m = int(np.ceil(0.5 * n))
    theta = (np.arange(m) + 0.5) * (0.5 * np.pi / m)
    cos_t = np.cos(theta)
    sin_t = np.sin(theta)
    # 1 -+ cos(theta) without cancellation
    one_minus = 2.0 * np.sin(0.5 * theta) ** 2
    one_plus = 2.0 * np.cos(0.5 * theta) ** 2
    out = np.zeros(len(r), dtype=complex)
    block = max(1, _PHI2_BLOCK // m)
    for i in range(0, len(r), block):
        rb = np.maximum(r[i : i + block, None], _PHI2_MIN_RADIUS)
        g = np.expm1(-rb * one_minus)
        g *= np.expm1(-rb * one_plus)
        amp = rb * sin_t / np.sqrt(g)
        u = rb * cos_t
        if lam.imag == 0.0:
            out.real[i : i + block] = np.mean(amp * np.cos(lam.real * u), axis=1)
        else:
            re_u = lam.real * u
            u *= lam.imag
            out.real[i : i + block] = np.mean(amp * np.cos(re_u) * np.cosh(u), axis=1)
            out.imag[i : i + block] = -np.mean(amp * np.sin(re_u) * np.sinh(u), axis=1)
    return np.exp(-0.5 * r) * out


def spherical_phi(dim: int, lam: complex, r):
    """Spherical function phi_lam at geodesic radius r (scalar or array).

    phi_lam(0) = 1 for every lam; phi_lam = phi_(-lam).  For dim == 2 the
    value equals the conical function P_{-1/2 + i lam}(cosh r).
    """
    lam = complex(lam)
    if not np.isfinite(lam):
        raise GeometryError(f"spectral parameter must be finite, got {lam}")
    r_arr = np.atleast_1d(np.asarray(r, dtype=float))
    if not np.all(np.isfinite(r_arr)):
        raise GeometryError("radius must be finite")
    if np.any(r_arr < 0):
        raise GeometryError("radius must be nonnegative")
    if dim == 3:
        out = _phi3(lam, r_arr)
    elif dim == 2:
        out = _phi2_mehler(lam, r_arr)
    else:
        raise GeometryError(f"dimension must be 2 or 3, got {dim}")
    return out[0] if np.isscalar(r) or np.ndim(r) == 0 else out


@dataclass(frozen=True)
class CFunctionValue:
    lam: complex
    c: complex
    method: str


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


def c_function(
    dim: int,
    lam: complex,
    method: str = "auto",
    fit_radii=(12.0, 14.0),
) -> CFunctionValue:
    """Harish-Chandra c-function, normalized so phi_lam ~ c(lam) e^{(i lam - rho) r}.

    dim == 3 has the closed form 1/(i lam), read off the large-r expansion of
    sin(lam r)/(lam sinh r).  dim == 2 (or method="asymptotic_fit") extracts
    the leading coefficient from phi at two large radii.
    """
    lam = complex(lam)
    if abs(lam) < 1e-12:
        raise CFunctionPoleError("c(lam) has a pole at lam = 0")
    if method == "auto":
        method = "closed_form_d3" if dim == 3 else "asymptotic_fit"
    if method == "closed_form_d3":
        if dim != 3:
            raise ValueError("closed_form_d3 is only available for dim == 3")
        return CFunctionValue(lam, 1.0 / (1j * lam), "closed_form_d3")
    if method == "asymptotic_fit":
        c = _fit_leading_coefficient(dim, lam, fit_radii)
        return CFunctionValue(lam, c, "asymptotic_fit")
    raise ValueError(f"unknown c-function method {method!r}")


def plancherel_density(dim: int, lam: float) -> float:
    """|c(lam)|^{-2} from the c-function fit, for real lam > 0.

    The oracle that plancherel_density_table's closed forms are tested against.
    """
    lam = float(lam)
    if lam <= 0:
        raise ValueError("plancherel_density requires real lam > 0")
    c = c_function(dim, lam).c
    return 1.0 / abs(c) ** 2


def plancherel_density_table(dim: int, lams) -> np.ndarray:
    """|c(lam)|^{-2} over a grid of positive reals, in closed form.

    lam^2 for d = 3 and pi lam tanh(pi lam) for d = 2, the density of
    c(lam) = Gamma(i lam) / (sqrt(pi) Gamma(1/2 + i lam)); this is the
    spectral measure of the inversion and Plancherel formulas.
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
