"""Spherical functions, c-function and Plancherel density checks."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ballfourier.geometry import GeometryError
from ballfourier.spectral import (
    CFunctionPoleError,
    FitConditioningError,
    c_function,
    eigenvalue_of,
    plancherel_density_table,
    spherical_phi,
)

try:
    import mpmath

    HAVE_MPMATH = True
except ImportError:  # pragma: no cover
    HAVE_MPMATH = False


def conical_oracle(lam, r):
    """Independent evaluation of P_{-1/2 + i lam}(cosh r) via mpmath."""
    mpmath.mp.dps = 30
    lam = complex(lam)
    # a real degree stays an mpf: legenp raises TypeError on an mpc integer degree
    if lam.real == 0.0:
        nu = mpmath.mpf(-0.5) - mpmath.mpf(lam.imag)
    else:
        nu = mpmath.mpf(-0.5) + 1j * mpmath.mpc(lam)
    return complex(mpmath.legenp(nu, 0, mpmath.cosh(mpmath.mpf(r))))


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("lam", [0.0, 0.7, 2.0, 5.0 - 0.3j])
def test_phi_at_origin_is_one(dim, lam):
    assert spherical_phi(dim, lam, 0.0) == pytest.approx(1.0, abs=1e-12)


def test_phi3_closed_form_value():
    got = spherical_phi(3, 1.0, 1.0)
    assert got == pytest.approx(np.sin(1.0) / np.sinh(1.0), abs=1e-14)
    assert got == pytest.approx(0.7160229, abs=5e-8)


def test_phi3_blocks_match_unblocked_closed_form_bit_for_bit():
    """The blocked closed form against the whole-table formula, with both series branches at block edges."""
    from ballfourier.geometry import BLOCK
    from ballfourier.spectral import _SMALL_PRODUCT, _SMALL_RADIUS, _phi3

    lams = np.array([1e-3, 0.7, 2.4 - 0.6j])
    block = BLOCK // len(lams)
    r = np.random.default_rng(5).uniform(0.0, 12.0, 3 * block + 17)
    # tiny radii and small products lam r on both sides of the block edges
    r[[0, block - 1, block, 2 * block + 1, len(r) - 1]] = [0.0, 3e-7, 0.05, 1e-2, 8e-7]
    lam = lams[:, None]
    ref = np.empty((len(lams), len(r)), dtype=complex)
    tiny_r = r < _SMALL_RADIUS
    ref[:, tiny_r] = 1.0 - (lam * lam + 1.0) * r[tiny_r] ** 2 / 6.0
    rr = r[~tiny_r]
    w = lam * rr
    small = np.abs(w) < _SMALL_PRODUCT
    assert np.any(small) and np.any(tiny_r)
    sinc = np.empty(w.shape, dtype=complex)
    sinc[small] = 1.0 - w[small] ** 2 / 6.0 + w[small] ** 4 / 120.0
    sinc[~small] = np.sin(w[~small]) / w[~small]
    ref[:, ~tiny_r] = sinc * rr / np.sinh(rr)
    assert np.array_equal(_phi3(lams, r), ref)
    assert np.array_equal(spherical_phi(3, lams, r), ref)


@pytest.mark.parametrize("dim", [2, 3])
def test_phi_weyl_symmetry(dim):
    r = np.linspace(0.0, 8.0, 17)
    for lam in (0.3, 1.0, 4.5, 9.0):
        a = spherical_phi(dim, lam, r)
        b = spherical_phi(dim, -lam, r)
        assert np.max(np.abs(a - b)) <= 1e-10


@pytest.mark.parametrize("dim", [2, 3])
def test_phi_bounded_by_phi0(dim):
    r = np.linspace(0.0, 10.0, 21)
    phi0 = np.real(spherical_phi(dim, 0.0, r))
    assert np.all(phi0 <= 1.0 + 1e-12)
    for lam in (0.5, 2.0, 7.0):
        assert np.all(np.abs(spherical_phi(dim, lam, r)) <= phi0 + 1e-12)


@pytest.mark.skipif(not HAVE_MPMATH, reason="mpmath oracle unavailable")
def test_phi2_matches_conical_function_oracle():
    # the midpoint rule is sized by |Re lam| r / 2 plus transition terms:
    # real lam up to 48 at the c-fit radii 12, 14, 16 are its largest rules
    for lam in (0.0, 0.4, 1.3, 2.7, 6.0, 15.0, 24.0, 33.3, 48.0):
        for r in (0.05, 0.2, 0.5, 1.0, 1.5, 2.0, 3.0, 7.0, 12.0, 14.0, 16.0):
            ref = conical_oracle(lam, r)
            got = spherical_phi(2, lam, r)
            assert abs(got - ref) <= 1e-11 * max(1.0, abs(ref))
    # complex lam: cos(lam r cos theta) carries cosh(Im lam r cos theta), a
    # peak at theta = 0 of width ~1/sqrt(|Im lam| r) that the rule must resolve
    for lam in (-2j, -8j, -20j, -30j, -36j, 2.0 - 0.35j, 0.7 + 0.3j, 6.0 - 1.5j, 20.0 - 2.0j, 40.0 - 1.0j):
        for r in (0.05, 0.2, 0.5, 1.0, 1.5, 2.0, 3.0, 7.0):
            ref = conical_oracle(lam, r)
            got = spherical_phi(2, lam, r)
            assert abs(got - ref) <= 1e-11 * max(1.0, abs(ref))
    # real, complex and imaginary lam at far radii, complex lam out to r = 10
    for lam in (0.0, 1.7, 9.0, 2.0 - 0.5j, -3.0j):
        for r in (3.0, 6.0, 10.0):
            ref = conical_oracle(lam, r)
            got = spherical_phi(2, lam, r)
            assert abs(got - ref) <= 1e-11 * max(1.0, abs(ref))


@pytest.mark.skipif(not HAVE_MPMATH, reason="mpmath oracle unavailable")
def test_phi2_small_and_large_lam_share_one_call():
    # every lam of a call takes the rule of the largest node count, here
    # lam = 48 at r = 16; the small lam must keep their accuracy on it
    lams = np.array([0.0, 0.4, 2.7, 15.0, 48.0])
    r = np.array([0.05, 0.2, 0.5, 1.0, 1.5, 2.0, 3.0, 7.0, 12.0, 14.0, 16.0])
    got = spherical_phi(2, lams, r)
    assert got.shape == (len(lams), len(r))
    for k, lam in enumerate(lams):
        for j, rj in enumerate(r):
            ref = conical_oracle(lam, rj)
            assert abs(got[k, j] - ref) <= 1e-11 * max(1.0, abs(ref))


@pytest.mark.skipif(not HAVE_MPMATH, reason="mpmath oracle unavailable")
def test_phi2_imaginary_axis_matches_conical_function_oracle():
    # lam = -i sigma is the exponential-type probe; at sigma = 1/2, 3/2 the
    # degree -1/2 + sigma of the conical function is an integer.  phi is real
    # there, and its imaginary part is exactly zero
    for sigma in (0.25, 0.5, 1.0, 1.5, 2.5, 4.0, 7.5, 12.0, 20.0, 30.0, 40.0):
        for r in (0.1, 0.5, 1.0, 2.0, 4.0, 8.0, 12.0, 16.0):
            if sigma * r > 40.0:
                continue
            ref = conical_oracle(-1j * sigma, r)
            got = spherical_phi(2, -1j * sigma, r)
            assert abs(got - ref) <= 1e-11 * max(1.0, abs(ref))
            assert got.imag == 0.0


@pytest.mark.skipif(not HAVE_MPMATH, reason="mpmath oracle unavailable")
def test_phi2_mixed_radii_in_one_call():
    # one rule per call is sized by the largest radius; r = 0 and tiny r
    # share it with r = 16
    r = np.array([0.0, 1e-7, 16.0, 0.0, 2.5, 1e-7, 9.0])
    for lam in (0.0, 3.3, 48.0, -2.5j, 4.0 - 1.0j):
        got = spherical_phi(2, lam, r)
        for k, rk in enumerate(r):
            ref = conical_oracle(lam, rk)
            assert abs(got[k] - ref) <= 1e-11 * max(1.0, abs(ref))


@st.composite
def lam_batches(draw):
    """1-40 spectral values of one kind and radii in [0, 18] with r = 0 among them, |Im lam| r_max <= 40."""
    r = np.array([0.0] + draw(st.lists(st.floats(0.0, 18.0), min_size=1, max_size=20)))
    im_max = 40.0 / max(float(r.max()), 1.0)
    n = draw(st.integers(1, 40))
    re = st.floats(-48.0, 48.0)
    im = st.floats(-im_max, im_max)
    kind = draw(st.sampled_from(["real", "imaginary", "complex"]))
    if kind == "real":
        lams = draw(st.lists(re, min_size=n, max_size=n))
    elif kind == "imaginary":
        lams = [1j * x for x in draw(st.lists(im, min_size=n, max_size=n))]
    else:
        lams = draw(st.lists(st.builds(complex, re, im), min_size=n, max_size=n))
    return np.array(lams, dtype=complex), r


@pytest.mark.parametrize("dim,bound", [(2, 1e-12), (3, 1e-15)])
@settings(max_examples=150, deadline=None, derandomize=True)
@given(batch=lam_batches())
def test_phi_lam_array_matches_per_lam_calls(dim, bound, batch):
    lams, r = batch
    got = spherical_phi(dim, lams, r)
    ref = np.array([spherical_phi(dim, lam, r) for lam in lams])
    assert got.shape == ref.shape == (len(lams), len(r))
    assert np.all(np.abs(got - ref) <= bound * np.maximum(1.0, np.abs(ref)))


@pytest.mark.parametrize("dim", [2, 3])
def test_phi_shape_rule(dim):
    r = np.array([[0.0, 0.5, 1.0], [2.0, 4.0, 8.0]])
    lams = np.array([0.3, 2.0 - 0.5j, -1.5j])
    one = spherical_phi(dim, 1.0, r)
    assert one.shape == r.shape
    assert np.array_equal(one, spherical_phi(dim, 1.0, r.ravel()).reshape(r.shape))
    assert spherical_phi(dim, 1.0, np.ones((2, 3))).shape == (2, 3)
    table = spherical_phi(dim, lams, r)
    assert table.shape == (3, 2, 3)
    for k, lam in enumerate(lams):
        assert np.allclose(table[k], spherical_phi(dim, lam, r), rtol=1e-12, atol=1e-12)
    assert spherical_phi(dim, lams, 1.5).shape == (3,)
    assert spherical_phi(dim, lams[:0], r).shape == (0, 2, 3)
    assert np.isscalar(spherical_phi(dim, 0.7, 1.5))
    with pytest.raises(GeometryError):
        spherical_phi(dim, np.ones((2, 2)), 1.0)


def poisson_transform_of_one_d2(lam, r, psi):
    """Integral over the circle of P(x, b)^(1/2 + i lam), x at radius tanh(r/2) and angle psi.

    The uniform rule converges like exp(-n log coth(r/2)), the half-width of
    the kernel's analytic strip.  1 - |x| and 1 - |x|^2 are written in r:
    forming them from |x| cancels digits at far radii.
    """
    n = int(np.ceil(60.0 / np.log(1.0 / np.tanh(0.5 * r))))
    theta = 2.0 * np.pi * np.arange(n) / n
    s = np.tanh(0.5 * r)
    dist2 = (2.0 / (np.exp(r) + 1.0)) ** 2 + 4.0 * s * np.sin(0.5 * (theta - psi)) ** 2
    log_kernel = -2.0 * np.log(np.cosh(0.5 * r)) - np.log(dist2)
    return np.mean(np.exp((0.5 + 1j * lam) * log_kernel))


@pytest.mark.parametrize("lam", [0.0, 1.7, 9.0, 2.0 - 0.5j, -3.0j])
def test_phi2_matches_far_poisson_transform_of_one(lam):
    # phi_lam is the Poisson transform of the constant 1 at any point of
    # radius r: an independent route to the same value at far radii
    for r, psi in ((3.0, 0.3), (6.0, 2.0), (10.0, -1.1)):
        ref = poisson_transform_of_one_d2(lam, r, psi)
        got = spherical_phi(2, lam, r)
        assert abs(got - ref) <= 1e-11 * max(1.0, abs(ref))


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize(
    "lam,r",
    [
        (1.0, np.nan),
        (1.0, np.inf),
        (1.0, [0.5, np.nan]),
        (np.nan, 1.0),
        (np.inf, 1.0),
        (complex(2.0, np.inf), 1.0),
        (complex(np.nan, 0.0), [0.0, 1.0]),
    ],
)
def test_phi_rejects_non_finite_input(dim, lam, r):
    with pytest.raises(GeometryError):
        spherical_phi(dim, lam, r)


@pytest.mark.parametrize("dim,lam,r", [(2, 1.5, 0.8), (2, 6.0, 3.0), (3, 2.0, 1.2), (3, 0.5, 4.0)])
def test_radial_ode_residual(dim, lam, r):
    """phi'' + (d-1) coth(r) phi' + (lam^2 + rho^2) phi = 0, Richardson central differences."""
    rho = 0.5 * (dim - 1)

    def residual(h):
        rs = np.array([r - h, r, r + h])
        p = spherical_phi(dim, lam, rs)
        d2 = (p[2] - 2.0 * p[1] + p[0]) / h**2
        d1 = (p[2] - p[0]) / (2.0 * h)
        return d2 + (dim - 1) / np.tanh(r) * d1 + (lam**2 + rho**2) * p[1]

    rich = (4.0 * residual(5e-4) - residual(1e-3)) / 3.0
    scale = abs(spherical_phi(dim, lam, r)) * (lam**2 + rho**2)
    assert abs(rich) / scale <= 1e-6


def c_oracle(lam):
    """Gamma(i lam) / (sqrt(pi) Gamma(1/2 + i lam)) via mpmath."""
    mpmath.mp.dps = 30
    z = 1j * mpmath.mpc(lam)
    return complex(mpmath.gamma(z) / (mpmath.sqrt(mpmath.pi) * mpmath.gamma(0.5 + z)))


FIT_RADII = (12.0, 14.0)
REAL_LAMS = st.builds(lambda x, neg: -x if neg else x, st.floats(1e-3, 48.0), st.booleans())


def test_c_function_d3_closed_form():
    assert c_function(3, 2.0) == pytest.approx(-0.5j, abs=1e-15)
    for lam in (0.1, 1.0, 10.0):
        assert 1.0 / abs(c_function(3, lam)) ** 2 == pytest.approx(lam**2, rel=1e-14)


@pytest.mark.skipif(not HAVE_MPMATH, reason="mpmath oracle unavailable")
@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.one_of(REAL_LAMS, st.builds(complex, REAL_LAMS, st.floats(-1.0, 1.0))))
def test_c_function_d2_matches_mpmath_gamma(lam):
    ref = c_oracle(lam)
    assert abs(c_function(2, lam) - ref) <= 1e-13 * abs(ref)


def test_c_function_pole():
    with pytest.raises(CFunctionPoleError):
        c_function(3, 0.0)


@pytest.mark.parametrize("fit_radii", [None, FIT_RADII])
def test_c_function_rejects_other_dimensions(fit_radii):
    for dim in (1, 4):
        with pytest.raises(GeometryError):
            c_function(dim, 1.0, fit_radii=fit_radii)


def test_c_fit_matches_closed_form_d3():
    for lam in (0.5, 1.0, 2.0, 5.0):
        fit = c_function(3, lam, fit_radii=FIT_RADII)
        assert abs(fit - 1.0 / (1j * lam)) <= 1e-6 * abs(1.0 / (1j * lam))


@pytest.mark.parametrize("dim", [2, 3])
def test_c_conjugation_symmetry(dim):
    # the closed form and the fit oracle, in both dimensions
    for fit_radii in (None, FIT_RADII):
        for lam in (0.5, 1.0, 3.0, 8.0):
            a = c_function(dim, lam, fit_radii=fit_radii)
            b = c_function(dim, -lam, fit_radii=fit_radii)
            assert abs(np.conj(a) - b) <= 1e-8 * abs(a)


def test_c_fit_ill_conditioned_radii_raise_and_retry_works():
    # lam (r2 - r1) = pi makes the 2x2 system singular
    lam = np.pi / 2.0
    with pytest.raises(FitConditioningError):
        c_function(2, lam, fit_radii=FIT_RADII)
    shifted = c_function(2, lam, fit_radii=(12.6, 14.2))
    assert np.isfinite(shifted)


def test_c_fit_raises_near_singular_lam_and_shifted_radii_recover():
    # |det| = 2 |sin(2 lam)| = 1.2e-5 with radii (12, 14): the fit would be
    # 3e-6 off the closed-form density without raising
    lam = 11.0 * np.pi / 2.0 + 3e-6
    with pytest.raises(FitConditioningError):
        c_function(2, lam, fit_radii=FIT_RADII)
    c = c_function(2, lam, fit_radii=(12.6, 14.2))
    assert 1.0 / abs(c) ** 2 == pytest.approx(np.pi * lam * np.tanh(np.pi * lam), rel=1e-7)


def test_c_function_d2_closed_form_at_singular_fit_lam():
    # the lam of the test above: the closed form involves no fit and no radii
    lam = 11.0 * np.pi / 2.0 + 3e-6
    c = c_function(2, lam)
    assert 1.0 / abs(c) ** 2 == pytest.approx(plancherel_density_table(2, [lam])[0], rel=1e-13)


def test_plancherel_density_positivity_and_roundtrip():
    lams = np.array([0.1, 1.0, 10.0])
    for dim in (2, 3):
        dens = plancherel_density_table(dim, lams)
        assert np.all(dens > 0)
        for lam, d in zip(lams, dens):
            assert d * abs(c_function(dim, lam)) ** 2 == pytest.approx(1.0, rel=1e-12)


def test_plancherel_density_table_closed_forms_match_fit_oracle():
    # the oracle's two-radius fit is singular at lam = k pi / 2 and loses
    # digits next to those points; its worst node here is 18.85, 4e-4 from 6 pi
    lams = np.linspace(0.05, 30.0, 600)
    fit = np.array([1.0 / abs(c_function(2, lam, fit_radii=FIT_RADII)) ** 2 for lam in lams])
    assert np.max(np.abs(plancherel_density_table(2, lams) - fit) / fit) <= 1e-7
    assert np.array_equal(plancherel_density_table(3, lams), lams**2)


def test_eigenvalue_examples():
    assert eigenvalue_of(2, 0.0) == pytest.approx(-0.25)
    assert eigenvalue_of(3, 1.0) == pytest.approx(-2.0)
    for dim in (2, 3):
        for lam in (0.3, 2.0, 1.0 + 0.5j):
            assert eigenvalue_of(dim, lam) == eigenvalue_of(dim, -lam)
