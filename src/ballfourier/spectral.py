"""Spherical functions, the c-function, and the Plancherel density for H^2 and H^3.

The spectral parameter lam is a complex scalar (rank one).  For H^3 the
spherical function has the closed form sin(lam r) / (lam sinh r); for H^2 it
is the conical Legendre function P_{-1/2 + i lam}(cosh r), evaluated as the
boundary integral of the horocycle kernel (the Poisson transform of the
constant 1).

That integral is taken with one exponentially graded rule,
tan(theta/2) = e^-r sinh(v), which keeps the integrand analytic in a uniform
strip and is accurate at every radius; graded_rule builds its nodes and
weights, and the far-point Poisson transform uses the same rule.  Its step
resolves both the oscillation 2|Re lam| and the peak at v = 0 that
|Im lam| sharpens (width ~1/sqrt|Im lam|), so the imaginary-axis values of
the exponential-type probe are as accurate as the real-axis ones.  The
integrand is evaluated in real arithmetic, a real magnitude
e^{-Im(lam) Q - q/2} times cos and sin of Re(lam) Q, contracted with the real
weights in cache-sized row blocks.  It is tested against an external
conical-function oracle at real and complex lam.
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
# Elements per row block of _phi2_graded: its temporaries stay in cache.
_PHI2_BLOCK = 2**16


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


def graded_rule(lam: complex, r_max: float, dim: int, max_step: float = np.inf):
    """Nodes v and weights of the graded rule on [0, r_max + 38].

    The step resolves the oscillation rate 2|Re lam| and the peak at v = 0,
    of width ~1/sqrt|Im lam|, that the growth rate 2|Im lam| builds, and is
    capped by ``max_step``.  The d = 2 integrands are even in v and the
    half-line trapezoid converges exponentially; the d = 3 measure
    sin(theta) d(theta) is odd in v, which degrades the trapezoid to O(h^2),
    so composite 16-point Gauss-Legendre panels are used there instead.
    """
    lam = complex(lam)
    h = min(2.0 * np.pi / (2.0 * abs(lam.real) + 2.0 * abs(lam.imag) + 30.0), max_step)
    v_max = r_max + 38.0
    if dim == 2:
        n = int(np.ceil(v_max / h)) + 1
        v = np.linspace(0.0, v_max, n)
        w = np.full(n, v[1] - v[0])
        w[0] *= 0.5
        w[-1] *= 0.5
        return v, w
    panel = min(1.0, 6.0 * h)
    xg, wg = np.polynomial.legendre.leggauss(16)
    edges = np.linspace(0.0, v_max, int(np.ceil(v_max / panel)) + 1)
    lo, hi = edges[:-1], edges[1:]
    v = (0.5 * (hi - lo)[:, None] * (xg + 1.0)[None, :] + lo[:, None]).ravel()
    w = (0.5 * (hi - lo)[:, None] * wg[None, :]).ravel()
    return v, w


def _phi2_graded(lam: complex, r: np.ndarray) -> np.ndarray:
    """Graded substitution tan(theta/2) = e^-r sinh(v).

    phi_lam(r) = (2/pi) e^{(s-1)r} * Int_0^inf cosh(v)^{1-2s} (1 + e^{-2r} sinh^2 v)^{s-1} dv

    with s = i lam + 1/2.  The integrand is even in v, analytic in the strip
    |Im v| < pi/2 uniformly in r, and decays like e^{-(v - r)}.  With
    q = log(1 + e^{-2r} sinh^2 v) and Q = q - 2 log cosh(v) <= 0 it factors as
    e^{-Im(lam) Q - q/2} e^{i Re(lam) Q}: real exponentials, cosines and sines
    contracted with the real weights, in row blocks that stay in cache.
    """
    s = 1j * lam + 0.5
    v, w = graded_rule(lam, float(np.max(r, initial=0.0)), 2)
    log_cosh = np.log(np.cosh(v))
    sinh_sq = np.sinh(v) ** 2
    out = np.empty(len(r), dtype=complex)
    block = max(1, _PHI2_BLOCK // len(v))
    for i in range(0, len(r), block):
        q = np.log1p(np.exp(-2.0 * r[i : i + block, None]) * sinh_sq[None, :])
        Q = q - 2.0 * log_cosh[None, :]
        mag = np.exp(-lam.imag * Q - 0.5 * q)
        Q *= lam.real
        out.real[i : i + block] = (mag * np.cos(Q)) @ w
        out.imag[i : i + block] = (mag * np.sin(Q)) @ w
    return (2.0 / np.pi) * np.exp((s - 1.0) * r) * out


def spherical_phi(dim: int, lam: complex, r):
    """Spherical function phi_lam at geodesic radius r (scalar or array).

    phi_lam(0) = 1 for every lam; phi_lam = phi_(-lam).  For dim == 2 the
    value equals the conical function P_{-1/2 + i lam}(cosh r).
    """
    lam = complex(lam)
    r_arr = np.atleast_1d(np.asarray(r, dtype=float))
    if np.any(r_arr < 0):
        raise GeometryError("radius must be nonnegative")
    if dim == 3:
        out = _phi3(lam, r_arr)
    elif dim == 2:
        out = _phi2_graded(lam, r_arr)
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
