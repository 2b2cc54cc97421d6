"""Ball-model geometry: distances, Busemann bracket, isometries, polar coordinates."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ballfourier.geometry import (
    GeometryError,
    Isometry,
    MobiusTranslation,
    Point,
    apply_array,
    busemann_field,
    dist,
    pairwise_dist,
    point_to_polar,
    polar_to_point,
    random_isometry,
    random_rotation,
    volume_weight,
)
from sampling_helpers import bracket, unit, unit_vectors

try:
    import mpmath

    HAVE_MPMATH = True
except ImportError:  # pragma: no cover
    HAVE_MPMATH = False

LN3 = np.log(3.0)


def test_dist_identity():
    o = Point([0.0, 0.0])
    assert dist(o, o) == 0.0


def test_dist_radial_matches_artanh_formula():
    # r = 2 artanh(0.5) = ln 3, two closed forms of the same radius
    x = Point([0.5, 0.0])
    assert dist(Point([0.0, 0.0]), x) == pytest.approx(LN3, abs=1e-14)
    assert dist(Point([0.0, 0.0]), x) == pytest.approx(2.0 * np.arctanh(0.5), abs=1e-14)


@pytest.mark.skipif(not HAVE_MPMATH, reason="mpmath oracle unavailable")
@pytest.mark.parametrize("dim", [2, 3])
def test_dist_matches_mpmath_at_small_separations(dim):
    """dist keeps full relative accuracy for nearly coincident points (1e-12 to 1e-4 apart).

    The reference is arccosh(1 + 2|x-y|^2 / ((1-|x|^2)(1-|y|^2))) at 50 digits
    on the same double coordinates; arccosh(1 + u) in doubles returns 0 at
    1e-12 apart.
    """
    mpmath.mp.dps = 50
    rng = np.random.default_rng(7 + dim)
    for _ in range(5):
        w = rng.standard_normal(dim)
        x = rng.uniform(0.0, 0.9) * w / np.linalg.norm(w)
        for sep in 10.0 ** np.arange(-12, -3):
            v = rng.standard_normal(dim)
            y = x + sep * v / np.linalg.norm(v)
            mx, my = ([mpmath.mpf(float(c)) for c in p] for p in (x, y))
            d2 = sum((a - b) ** 2 for a, b in zip(mx, my))
            den = (1 - sum(a * a for a in mx)) * (1 - sum(b * b for b in my))
            ref = float(mpmath.acosh(1 + 2 * d2 / den))
            got = dist(Point(x), Point(y))
            assert ref > 0.0
            assert abs(got - ref) <= 1e-14 * ref


@pytest.mark.skipif(not HAVE_MPMATH, reason="mpmath oracle unavailable")
@pytest.mark.parametrize("dim", [2, 3])
def test_pairwise_dist_matches_mpmath_at_small_separations(dim):
    """pairwise_dist keeps full relative accuracy 1e-12, 1e-10 and 1e-8 apart, like dist.

    The 50-digit reference is the one of test_dist_matches_mpmath_at_small_separations;
    arccosh(1 + u) with |x - y|^2 expanded read 2.1e-8 at 1e-12 apart (true 2.8e-12).
    """
    mpmath.mp.dps = 50
    rng = np.random.default_rng(17 + dim)
    w = rng.standard_normal((4, dim))
    xs = rng.uniform(0.0, 0.9, (4, 1)) * w / np.linalg.norm(w, axis=1, keepdims=True)
    for sep in (1e-12, 1e-10, 1e-8):
        v = rng.standard_normal((3, dim))
        ys = xs[rng.integers(0, 4, 3)] + sep * v / np.linalg.norm(v, axis=1, keepdims=True)
        D = pairwise_dist(xs, ys)
        for i, x in enumerate(xs):
            for j, y in enumerate(ys):
                mx, my = ([mpmath.mpf(float(c)) for c in p] for p in (x, y))
                d2 = sum((a - b) ** 2 for a, b in zip(mx, my))
                den = (1 - sum(a * a for a in mx)) * (1 - sum(b * b for b in my))
                ref = float(mpmath.acosh(1 + 2 * d2 / den))
                assert abs(D[i, j] - ref) <= 1e-14 * ref


def test_dist_dimension_mismatch():
    with pytest.raises(GeometryError):
        dist(Point([0.1, 0.0]), Point([0.1, 0.0, 0.0]))


def test_point_validation():
    with pytest.raises(GeometryError):
        Point([1.0, 0.0])
    with pytest.raises(GeometryError):
        Point([0.9999999999999, 0.0])


@pytest.mark.parametrize("dim", [2, 3])
def test_isometry_invariance_of_dist_randomized(dim):
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(1000):
        g = random_isometry(rng, dim)
        x = rng.uniform(-0.5, 0.5, dim)
        y = rng.uniform(-0.5, 0.5, dim)
        worst = max(worst, abs(dist(apply_array(g, x), apply_array(g, y)) - dist(x, y)))
    assert worst <= 1e-10


def test_apply_identity_and_translation_of_origin():
    x = np.array([0.3, -0.2, 0.1])
    assert np.allclose(apply_array(Isometry.identity(3), x), x)
    a = np.array([0.4, 0.1, -0.2])
    g = Isometry.translation(a)
    assert np.allclose(apply_array(g, np.zeros(3)), a, atol=1e-15)


def test_translation_inverse_roundtrip():
    rng = np.random.default_rng(3)
    for dim in (2, 3):
        g = random_isometry(rng, dim)
        x = rng.uniform(-0.6, 0.6, dim) * 0.8
        y = apply_array(g.inverse(), apply_array(g, x))
        assert np.allclose(y, x, atol=1e-12)


def test_busemann_at_origin_vanishes():
    for b in (np.array([1.0, 0.0]), np.array([0.0, 1.0, 0.0])):
        assert bracket(np.zeros(len(b)), b) == pytest.approx(0.0, abs=1e-15)


def test_busemann_on_ray_toward_b_equals_dist():
    # point half-way toward b: log(0.75/0.25) = ln 3 = dist(0, x)
    b = np.array([1.0, 0.0])
    x = np.array([0.5, 0.0])
    assert bracket(x, b) == pytest.approx(LN3, abs=1e-14)
    assert bracket(x, b) == pytest.approx(dist(Point([0.0, 0.0]), x), abs=1e-14)


@pytest.mark.parametrize("dim", [2, 3])
def test_busemann_lipschitz_bound(dim):
    rng = np.random.default_rng(11)
    o = Point(np.zeros(dim))
    for _ in range(500):
        direction = rng.standard_normal(dim)
        direction /= np.linalg.norm(direction)
        x = rng.uniform(0.0, 0.95) * direction
        b = unit(rng.standard_normal(dim))
        assert abs(bracket(x, b)) <= dist(o, x) + 1e-12


@pytest.mark.parametrize("dim", [2, 3])
def test_busemann_cocycle_randomized(dim):
    rng = np.random.default_rng(23)
    worst = 0.0
    for _ in range(1000):
        g = random_isometry(rng, dim)
        x = rng.uniform(-0.5, 0.5, dim)
        b = unit(rng.standard_normal(dim))
        lhs = bracket(apply_array(g, x), b) - bracket(g.origin_image(), b)
        rhs = bracket(x, apply_array(g.inverse(), b))
        worst = max(worst, abs(lhs - rhs))
    assert worst <= 1e-10


@pytest.mark.parametrize("dim", [2, 3])
def test_rotation_moves_busemann_argument(dim):
    # for k fixing the origin: A(k x, b) = A(x, k^-1 b)
    rng = np.random.default_rng(5)
    for _ in range(50):
        k = Isometry((random_rotation(rng, dim),), dim)
        x = rng.uniform(-0.6, 0.6, dim)
        b = unit(rng.standard_normal(dim))
        assert bracket(apply_array(k, x), b) == pytest.approx(
            bracket(x, apply_array(k.inverse(), b)), abs=1e-12
        )


def test_boundary_action_stays_on_sphere():
    rng = np.random.default_rng(2)
    for dim in (2, 3):
        for _ in range(200):
            g = random_isometry(rng, dim)
            b = apply_array(g, unit(rng.standard_normal(dim)))
            assert abs(np.linalg.norm(b) - 1.0) <= 1e-10


def test_polar_roundtrip():
    rng = np.random.default_rng(9)
    for dim in (2, 3):
        for _ in range(100):
            r = rng.uniform(0.0, 8.0)
            w = rng.standard_normal(dim)
            w /= np.linalg.norm(w)
            x = polar_to_point(r, w)
            assert dist(Point(np.zeros(dim)), x) == pytest.approx(r, abs=1e-11)
            r2, w2 = point_to_polar(x)
            assert r2 == pytest.approx(r, abs=1e-12)
            if r > 0:
                assert np.allclose(w2, w, atol=1e-12)


def test_polar_examples():
    assert np.allclose(polar_to_point(0.0, [0.0, 1.0]).coords, [0.0, 0.0])
    x = polar_to_point(LN3, [1.0, 0.0])
    assert np.allclose(x.coords, [0.5, 0.0], atol=1e-15)


def test_volume_weight():
    assert volume_weight(0.0, 3) == 0.0
    assert volume_weight(1.0, 3) == pytest.approx(np.sinh(1.0) ** 2, abs=1e-12)
    assert volume_weight(1.0, 3) == pytest.approx(1.381098, abs=5e-7)
    r = np.linspace(0.1, 5.0, 50)
    for d in (2, 3):
        w = volume_weight(r, d)
        assert np.all(np.diff(w) > 0)


def test_bulk_helpers_match_scalar_forms():
    rng = np.random.default_rng(31)
    xs = rng.uniform(-0.5, 0.5, (6, 3))
    ys = rng.uniform(-0.5, 0.5, (4, 3))
    D = pairwise_dist(xs, ys)
    for i in range(6):
        for j in range(4):
            assert D[i, j] == pytest.approx(dist(Point(xs[i]), Point(ys[j])), abs=1e-12)


@pytest.mark.parametrize("dim", [2, 3])
def test_busemann_field_is_the_one_expression_formula_bit_for_bit(dim):
    """The in-place evaluation against log(1 - |x|^2) - log(|x|^2 - 2 x.b + 1) written out."""
    rng = np.random.default_rng(40 + dim)
    w = rng.standard_normal((300, dim))
    xs = np.tanh(0.5 * rng.uniform(0.0, 8.0, 300))[:, None] * w / np.linalg.norm(w, axis=1, keepdims=True)
    bs = rng.standard_normal((70, dim))
    bs /= np.linalg.norm(bs, axis=1, keepdims=True)
    x2 = np.sum(xs * xs, axis=1)
    ref = np.log1p(-x2)[:, None] - np.log(x2[:, None] - 2.0 * xs @ bs.T + 1.0)
    assert np.array_equal(busemann_field(xs, bs), ref)
    assert np.array_equal(busemann_field(xs[:1], bs[:1]), ref[:1, :1])


def test_mobius_translation_requires_interior_target():
    with pytest.raises(GeometryError):
        MobiusTranslation(np.array([1.0, 0.0]))


@st.composite
def isometry_cases(draw):
    """random_isometry from a drawn seed and shift, two interior points with |x| <= 0.9 and a boundary point."""
    dim = draw(st.sampled_from([2, 3]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g = random_isometry(rng, dim, max_shift=draw(st.floats(0.2, 0.9)))
    x, y = (draw(st.floats(0.0, 0.9)) * draw(unit_vectors(dim)) for _ in range(2))
    return g, x, y, draw(unit_vectors(dim))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(isometry_cases())
def test_isometry_invariants_sweep(case):
    """Distance invariance, the Busemann cocycle and the boundary action, on random isometries.

    Nearly coincident points are included: dist evaluates
    2 asinh(sqrt(u / 2)) in place of arccosh(1 + u), which keeps its accuracy
    as u -> 0.
    """
    g, x, y, b = case
    gb = apply_array(g, b)
    assert abs(np.linalg.norm(gb) - 1.0) <= 1e-12
    lhs = bracket(apply_array(g, x), gb)
    assert abs(lhs - (bracket(x, b) + bracket(g.origin_image(), gb))) <= 1e-12
    d = dist(x, y)
    assert abs(dist(apply_array(g, x), apply_array(g, y)) - d) <= 1e-12 * (1.0 + d)
