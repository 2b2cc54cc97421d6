"""Quadrature grids, bump sampling and integral plumbing."""

from dataclasses import replace

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import factorial, lpmv

from ballfourier import grids
from ballfourier.geometry import GeometryError, Isometry, apply_array, busemann_field, random_rotation
from ballfourier.grids import (
    BoundaryGrid,
    BumpSpec,
    ConfigurationError,
    RadialGrid,
    k_average_profile,
    legendre_rule,
    legendre_rules,
    legendre_table,
    sample_bump,
)
from ballfourier.spectral import spherical_phi
from sampling_helpers import center_along, same_grid, translate_bump, zero_function


def smooth_profile(r, R):
    return np.exp(-1.0 / (1.0 - (r / R) ** 2)) if abs(r) < R else 0.0


def test_radial_grid_weight_sum():
    g = RadialGrid.gauss_legendre(96, 16.0)
    assert np.all(np.diff(g.nodes) > 0)
    assert np.sum(g.weights) == pytest.approx(16.0, abs=1e-12)


def _mp_legendre_nodes(n, x0):
    """Gauss-Legendre nodes and weights refined from x0 by Newton's method at 40 digits."""

    def pair(x):  # P_n(x), P_{n-1}(x)
        p_prev, p = mpmath.mpf(1), x
        for j in range(2, n + 1):
            p_prev, p = p, ((2 * j - 1) * x * p - (j - 1) * p_prev) / j
        return p, p_prev

    nodes, weights = [], []
    with mpmath.workdps(40):
        for x in x0:
            x = mpmath.mpf(float(x))
            for _ in range(3):
                p, q = pair(x)
                x -= p * (1 - x * x) / (n * (q - x * p))
            nodes.append(float(x))
            weights.append(float(2 * (1 - x * x) / (n * pair(x)[1]) ** 2))
    return np.array(nodes), np.array(weights)


@pytest.mark.parametrize("n", [1, 2, 3, 16, 24, 97, 384, 512])
def test_legendre_rule_matches_mpmath_and_leggauss(n):
    x, w = legendre_rule(n)
    x_np, w_np = np.polynomial.legendre.leggauss(n)
    assert x.shape == w.shape == (n,)
    assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
    assert np.all(np.diff(x) > 0)
    # both rules' endpoint weights are ill-conditioned, about 1e-10 off at n = 512
    w_tol = 1e-15 + 5e-17 * n**3
    assert np.max(np.abs(x - x_np)) <= 2.3e-16
    assert np.max(np.abs(w - w_np) / w_np) <= w_tol
    # every node of a short rule, a spread of nodes including the outermost of a long one
    idx = np.unique(np.r_[np.arange(0, n, max(1, n // 24)), n // 2, n - 1])
    x_mp, w_mp = _mp_legendre_nodes(n, x_np[idx])
    assert np.max(np.abs(x[idx] - x_mp)) <= 1.2e-16
    assert np.max(np.abs(w[idx] - w_mp) / w_mp) <= w_tol
    assert abs(np.sum(w) - 2.0) <= 1e-13


def test_legendre_rule_rejects_nonpositive_order():
    for n in (0, -3):
        with pytest.raises(ConfigurationError):
            legendre_rule(n)
        with pytest.raises(ConfigurationError):
            legendre_rules([4, n])


def test_one_batch_of_legendre_rules_equals_the_one_n_rules_bit_for_bit():
    """One recurrence over n = 1..600, asked in shuffled order with repeats, gives each one-n rule exactly."""
    ns = np.random.default_rng(5).permutation(np.arange(1, 601))
    ns = np.concatenate([ns, ns[:7]])
    for n, (x, w) in zip(ns, legendre_rules(ns)):
        x_one, w_one = legendre_rule(int(n))
        assert np.array_equal(x, x_one) and np.array_equal(w, w_one), n


@pytest.mark.parametrize("n", [16, 97, 384])
def test_radial_grid_from_shared_legendre_rule(n):
    """One legendre_rule mapped to several ranges equals a fresh rule per range."""
    x, w = legendre_rule(n)
    for r_max in (0.7, 5.0, 6.0, 7.3, 16.0):
        got = RadialGrid.from_legendre((x, w), r_max)
        ref = RadialGrid.gauss_legendre(n, r_max)
        assert np.array_equal(got.nodes, ref.nodes) and np.array_equal(got.weights, ref.weights)
        assert np.array_equal(got.nodes, 0.5 * r_max * (x + 1.0))
        assert np.array_equal(got.weights, 0.5 * r_max * w)
        assert got.r_max == ref.r_max == r_max


def test_boundary_grid_mass():
    assert np.sum(BoundaryGrid.disk(256).weights) == pytest.approx(1.0, abs=1e-13)
    sph = BoundaryGrid.sphere(48, 96)
    assert np.sum(sph.weights) == pytest.approx(1.0, abs=1e-13)
    assert np.allclose(np.linalg.norm(sph.directions, axis=1), 1.0, atol=1e-14)


def test_grid_of_n_azimuths_is_disk_or_balanced_sphere_bit_for_bit():
    """with_azimuths(d, n) is disk(n), or sphere((n + 1) // 2, n), with its layout; one azimuth is e_1 with weight 1."""
    for n in range(1, 61):
        assert same_grid(BoundaryGrid.with_azimuths(2, n), BoundaryGrid.disk(n))
        assert same_grid(BoundaryGrid.with_azimuths(3, n), BoundaryGrid.sphere((n + 1) // 2, n))
    for dim in (2, 3):
        one = BoundaryGrid.with_azimuths(dim, 1)
        assert np.array_equal(one.directions, np.eye(dim)[:1]) and np.array_equal(one.weights, np.ones(1))


def test_bump_value_at_origin():
    spec = BumpSpec(dim=3, radius=1.0)
    assert spec(np.zeros(3)) == pytest.approx(np.exp(-1.0), abs=1e-15)


@pytest.mark.parametrize(
    "kwargs",
    [{"dim": 4}, {"dim": 1}, {"dim": 2.5}]
    + [{"center": center} for center in (Isometry.translation([0.1, 0.2, 0.0]), center_along([0.0, 0.0, 1.0]))]
    + [{"radius": np.nan}, {"alpha": np.nan}],
)
def test_bump_rejects_bad_axis_radius_or_alpha(kwargs):
    """A dimension other than 2 or 3, a center (which carries the modulation axis R e_1) acting in
    another dimension, or a NaN radius or alpha would give misshapen, failing or NaN values."""
    with pytest.raises(ConfigurationError):
        BumpSpec(**{"dim": 2, "radius": 1.0, "alpha": 0.5, **kwargs})


@pytest.mark.parametrize("dim", [2, 3])
def test_sample_bump_rejects_a_boundary_grid_of_another_dimension(dim):
    """A d = 2 bump on a sphere grid (or d = 3 on a disk) is a ConfigurationError, not numpy's reshape error."""
    spec = BumpSpec(dim=dim, radius=1.0, alpha=0.5)
    boundary = BoundaryGrid.sphere(4, 8) if dim == 2 else BoundaryGrid.disk(16)
    with pytest.raises(ConfigurationError, match="boundary grid"):
        sample_bump(spec, RadialGrid.gauss_legendre(8, 1.0), boundary)


def test_legendre_table_matches_scipy_lpmv():
    """Pbar_l^m = sqrt((2l + 1) (l - m)! / (l + m)!) P_l^m, Condon-Shortley phase, for m <= l <= 40.

    Measured within 1.4e-14 of scipy's lpmv on 101 points of [-1, 1],
    relative to max(1, |value|); entries with l < m are exact zeros.
    """
    x = np.linspace(-1.0, 1.0, 101)
    table = legendre_table(40, x)
    assert table.shape == (41, 41, 101)
    for l in range(41):
        for m in range(l + 1):
            ref = lpmv(m, l, x) * np.sqrt((2 * l + 1) * factorial(l - m, exact=True) / factorial(l + m, exact=True))
            assert np.max(np.abs(table[m, l] - ref)) <= 5e-14 * max(1.0, np.max(np.abs(ref)))
        assert np.all(table[l + 1 :, l] == 0.0)


@pytest.mark.parametrize("dim", [2, 3])
def test_modulated_bump_centre_value_does_not_depend_on_the_direction_of_approach(dim):
    """At the bump's centre the modulation is 1 from every side, so the value is e^-1."""
    center = center_along(np.arange(1.0, dim + 1.0), Isometry.translation(np.linspace(0.3, -0.2, dim)))
    spec = BumpSpec(dim=dim, radius=1.3, center=center, alpha=0.8)
    rng = np.random.default_rng(4)
    dirs = rng.standard_normal((20, dim))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    for t in (1e-6, 1e-9):
        vals = spec(apply_array(spec.center, t * dirs))
        assert np.max(np.abs(vals - np.exp(-1.0))) <= t


@pytest.mark.parametrize("dim", [2, 3])
def test_modulated_bump_is_differentiable_across_its_centre(dim):
    """Central differences along lines through the centre converge to the modulation's slope.

    The center is (R, T) with T a translation.  On the line t -> T . (t v)
    the profile is even in t, so the derivative at t = 0 is
    e^-1 alpha <v, R e_1> / tanh(radius / 2).  A modulation by the direction
    of center^-1 x jumps there and makes the quotients grow like 1 / h.
    """
    shift = Isometry.translation(np.linspace(0.3, -0.2, dim))
    spec = BumpSpec(dim=dim, radius=1.3, center=center_along(np.arange(1.0, dim + 1.0), shift), alpha=0.8)
    axis = spec.center.moves[0].matrix[:, 0]
    rng = np.random.default_rng(5)
    for v in rng.standard_normal((5, dim)):
        v /= np.linalg.norm(v)
        slope = np.exp(-1.0) * spec.alpha * (v @ axis) / np.tanh(0.5 * spec.radius)
        for h in (1e-3, 1e-4, 1e-5):
            g = spec(apply_array(shift, np.outer([h, -h], v)))
            assert abs((g[0] - g[1]) / (2.0 * h) - slope) <= 10.0 * h


def test_bump_vanishes_outside_support():
    spec = BumpSpec(dim=2, radius=1.0, center=Isometry.translation([0.3, 0.0]))
    rng = np.random.default_rng(0)
    for _ in range(50):
        w = rng.standard_normal(2)
        w /= np.linalg.norm(w)
        r = rng.uniform(1.0, 3.0)
        # point at hyperbolic distance >= R from the center
        x = apply_array(spec.center, np.tanh(0.5 * r) * w)
        assert spec(x) == 0.0


def test_centered_unmodulated_bump_is_radial():
    radial = RadialGrid.gauss_legendre(48, 6.0)
    boundary = BoundaryGrid.disk(64)
    f = sample_bump(BumpSpec(dim=2, radius=1.5), radial, boundary)
    assert f.is_radial()
    assert np.all(f.values[~f.support_mask, :] == 0)


@pytest.mark.parametrize("dim", [2, 3])
def test_blocked_is_radial_keeps_the_whole_array_verdict(dim, monkeypatch):
    """is_radial over row blocks against the whole-array rule, on radial, non-radial and NaN-sample inputs.

    With BLOCK = 2 x 3 x m the 40 rows make 13 blocks of three rows and a
    partial one.  Each input departs from radial in one row: by a spread or
    a NaN sample in a late block, or a NaN sample in the first block,
    before thirteen radial ones.  A NaN sample makes the input non-radial,
    as in the whole-array rule.
    """
    boundary = BoundaryGrid.disk(64) if dim == 2 else BoundaryGrid.sphere(6, 12)
    f = sample_bump(BumpSpec(dim=dim, radius=1.5), RadialGrid.gauss_legendre(40, 1.5), boundary)

    def whole_array_rule(values):
        spread = np.max(np.abs(values - values.mean(axis=1, keepdims=True)))
        return bool(spread <= 1e-10 * max(1.0, np.max(np.abs(values))))

    cases = {"radial": f.values.copy()}
    for name, row, value in [("spread", 37, 1e-6), ("nan", 37, np.nan), ("nan first", 1, np.nan)]:
        values = f.values.copy()
        values[row, 5] += value
        cases[name] = values
    monkeypatch.setattr(grids, "BLOCK", 2 * 3 * len(boundary))
    verdicts = {name: replace(f, values=values).is_radial() for name, values in cases.items()}
    assert verdicts == {name: whole_array_rule(values) for name, values in cases.items()}
    assert verdicts == {"radial": True, "spread": False, "nan": False, "nan first": False}


@pytest.mark.parametrize("alpha", [0.0, 0.5])
def test_bump_and_evaluate_refuse_points_off_the_ball(alpha):
    """BumpSpec and SampledFunction.evaluate raise GeometryError at a point on or outside the unit sphere or with a NaN coordinate.

    A point inside the ball beside them does not help: the whole call raises.
    """
    spec = BumpSpec(dim=2, radius=1.0, center=Isometry.translation([0.2, 0.0]), alpha=alpha)
    f = sample_bump(spec, RadialGrid.gauss_legendre(16, spec.support_radius), BoundaryGrid.disk(16))
    for bad in ([2.0, 0.0], [1.0, 0.0], [np.nan, 0.0], [0.0, 1.0 - 1e-13]):
        for call in (spec, f.evaluate):
            with pytest.raises(GeometryError):
                call(np.array(bad))
            with pytest.raises(GeometryError):
                call(np.array([[0.1, 0.0], bad]))
    assert spec(np.array([0.2, 0.0])) > 0.0
    assert f.evaluate(np.array([[0.2, 0.0], [0.9, 0.0]])).shape == (2,)


@pytest.mark.parametrize(
    "spec,boundary",
    [
        (BumpSpec(dim=2, radius=1.0, center=Isometry.translation([0.3, -0.2])), BoundaryGrid.disk(64)),
        (BumpSpec(dim=2, radius=1.2, center=center_along([1.0, 2.0], Isometry.translation([0.2, 0.1])), alpha=0.7),
         BoundaryGrid.disk(96)),
        (BumpSpec(dim=2, radius=0.8, center=Isometry.translation([0.4, 0.0]), profile="indicator"),
         BoundaryGrid.disk(64)),
        (BumpSpec(dim=3, radius=1.0, center=Isometry.translation([0.2, 0.1, -0.3]), alpha=-0.5),
         BoundaryGrid.sphere(12, 24)),
        (BumpSpec(dim=3, radius=1.5, center=Isometry.translation([0.0, 0.3, 0.1]), profile="indicator",
                  alpha=0.4), BoundaryGrid.sphere(8, 16)),
        (BumpSpec(dim=3, radius=1.5), BoundaryGrid.sphere(8, 16)),
    ],
)
def test_sample_bump_matches_full_grid_evaluation(spec, boundary):
    """Sampling only the support rows is bit-identical to evaluating every node and zeroing the rest."""
    radial = RadialGrid.gauss_legendre(64, spec.support_radius + 2.0)
    f = sample_bump(spec, radial, boundary)
    pts = np.tanh(0.5 * radial.nodes)[:, None, None] * boundary.directions[None, :, :]
    ref = spec(pts).astype(complex)
    beyond = radial.nodes > spec.support_radius
    ref[beyond, :] = 0.0
    assert np.any(beyond) and np.any(ref != 0)
    assert f.values.shape == (len(radial), len(boundary))
    assert np.array_equal(f.values, ref)


@pytest.mark.parametrize("dim", [2, 3])
def test_blocked_sample_bump_matches_whole_array_bit_for_bit(dim):
    """Row blocks of sample_bump against one spec(...) evaluation of every support sample.

    The support row counts are one row, one block, one block plus one row
    and several blocks plus a partial one.
    """
    from ballfourier.geometry import BLOCK

    boundary = BoundaryGrid.disk(4096) if dim == 2 else BoundaryGrid.sphere(32, 64)
    center = center_along(np.arange(1.0, dim + 1.0), Isometry.translation(np.linspace(0.3, -0.2, dim)))
    spec = BumpSpec(dim=dim, radius=1.2, center=center, alpha=0.7)
    rows = BLOCK // (len(boundary) * dim)
    for n_r in (1, rows, rows + 1, 3 * rows + 5):
        radial = RadialGrid.gauss_legendre(n_r, spec.support_radius)
        f = sample_bump(spec, radial, boundary)
        pts = np.tanh(0.5 * radial.nodes)[:, None, None] * boundary.directions
        assert np.all(f.support_mask)
        assert np.array_equal(f.values, spec(pts).astype(complex))


def test_sample_bump_support_guard():
    with pytest.raises(ConfigurationError):
        sample_bump(
            BumpSpec(dim=2, radius=3.0, center=Isometry.translation([0.9, 0.0])),
            RadialGrid.gauss_legendre(32, 5.0),
            BoundaryGrid.disk(32),
        )


def test_integrate_X_matches_1d_oracle_d3():
    """Product-grid integral of the centered R=1 bump vs adaptive quadrature."""
    oracle, err = quad(lambda r: smooth_profile(r, 1.0) * np.sinh(r) ** 2, 0.0, 1.0,
                       epsabs=1e-15, epsrel=1e-14, limit=200)
    oracle *= 4.0 * np.pi
    assert err < 1e-12
    # root-exponential convergence of the mollifier needs a dense radial rule
    radial = RadialGrid.gauss_legendre(512, 5.0)
    boundary = BoundaryGrid.sphere(8, 16)
    f = sample_bump(BumpSpec(dim=3, radius=1.0), radial, boundary)
    got = np.sum(f.node_weights() * f.values).real
    assert abs(got - oracle) / abs(oracle) <= 1e-8


def test_integrate_X_squared_matches_1d_oracle():
    oracle, _ = quad(lambda r: smooth_profile(r, 1.0) ** 2 * np.sinh(r) ** 2, 0.0, 1.0,
                     epsabs=1e-15, epsrel=1e-14, limit=200)
    oracle *= 4.0 * np.pi
    radial = RadialGrid.gauss_legendre(512, 5.0)
    f = sample_bump(BumpSpec(dim=3, radius=1.0), radial, BoundaryGrid.sphere(8, 16))
    got = complex(np.sum(f.node_weights() * np.abs(f.values) ** 2)).real
    assert abs(got - oracle) / abs(oracle) <= 1e-8


def test_integrate_X_radial_doubling_stability():
    boundary = BoundaryGrid.sphere(8, 16)
    vals = []
    for n in (512, 1024):
        f = sample_bump(BumpSpec(dim=3, radius=1.0), RadialGrid.gauss_legendre(n, 5.0), boundary)
        vals.append(np.sum(f.node_weights() * f.values).real)
    assert abs(vals[1] - vals[0]) <= 1e-10


@pytest.mark.parametrize("dim", [2, 3])
def test_boundary_integral_of_kernel_is_spherical_function(dim):
    """integral over B of e^{(i lam + rho) A(x, b)} db = phi_lam(dist(0, x))."""
    grid = BoundaryGrid.disk(256) if dim == 2 else BoundaryGrid.sphere(48, 96)
    rho = 0.5 * (dim - 1)
    rng = np.random.default_rng(4)
    for lam in (0.6, 2.0):
        for _ in range(3):
            w = rng.standard_normal(dim)
            w /= np.linalg.norm(w)
            r = rng.uniform(0.2, 1.5)
            x = np.tanh(0.5 * r) * w
            kernel = np.exp((1j * lam + rho) * busemann_field(x[None, :], grid.directions)[0])
            got = np.sum(grid.weights * kernel)
            ref = spherical_phi(dim, lam, r)
            assert abs(got - ref) <= 1e-9


def _direction_average(f, post_map, x):
    """Average of f(g k x) over rotations k: the boundary-grid mean over |x| times the directions."""
    pts = apply_array(post_map, np.linalg.norm(x) * f.boundary.directions)
    return complex(np.sum(f.boundary.weights * f.evaluate(pts)))


@pytest.mark.parametrize("dim", [2, 3])
def test_k_average_is_rotation_invariant(dim):
    """The averaged shifted bump depends on x only through dist(0, x)."""
    radial = RadialGrid.gauss_legendre(48, 6.0)
    boundary = BoundaryGrid.disk(256) if dim == 2 else BoundaryGrid.sphere(32, 64)
    shift = [0.25, 0.1] if dim == 2 else [0.25, 0.1, -0.05]
    f = sample_bump(
        BumpSpec(dim=dim, radius=1.0, center=Isometry.translation(shift)),
        radial,
        boundary,
    )
    rng = np.random.default_rng(8)
    x = np.array([0.3] + [0.0] * (dim - 1))
    base = _direction_average(f, Isometry.identity(dim), x)
    for _ in range(5):
        k = Isometry((random_rotation(rng, dim),), dim)
        val = _direction_average(f, Isometry.identity(dim), apply_array(k, x))
        assert abs(val - base) <= 1e-8


def test_k_average_profile_matches_pointwise():
    f = sample_bump(
        BumpSpec(dim=2, radius=1.0, center=Isometry.translation([0.3, 0.0])),
        RadialGrid.gauss_legendre(48, 6.0),
        BoundaryGrid.disk(128),
    )
    g = Isometry.translation([0.1, 0.2])
    prof = k_average_profile(f, g)
    assert prof.is_radial()
    t = np.tanh(0.5 * prof.radial.nodes[10])
    direct = _direction_average(f, g, np.array([t, 0.0]))
    assert prof.values[10, 0] == pytest.approx(direct, abs=1e-12)


@pytest.mark.parametrize("dim", [2, 3])
def test_k_average_of_shifted_bump_keeps_the_integral(dim):
    """The K-average of f o g integrates to the integral of f, also where its support reaches past f's.

    f is sampled on a rule fitted to its support 1.619; g = center^-1 moves
    the bump's center to distance 1.238, so the average reaches 2.238.
    """
    spec = BumpSpec(dim=dim, radius=1.0, center=Isometry.translation([0.3] + [0.0] * (dim - 1)))
    boundary = BoundaryGrid.disk(128) if dim == 2 else BoundaryGrid.sphere(24, 48)
    f = sample_bump(spec, RadialGrid.gauss_legendre(48, spec.support_radius), boundary)
    prof = k_average_profile(f, spec.center.inverse())
    assert prof.support_radius == pytest.approx(2.0 * spec.center_offset + 1.0, rel=1e-12)
    assert prof.radial.r_max == prof.support_radius
    integral = [np.sum(h.node_weights() * h.values) for h in (prof, f)]
    assert integral[0] == pytest.approx(integral[1], rel=1e-4)


def test_off_grid_evaluation_requires_descriptor():
    f = zero_function(2, RadialGrid.gauss_legendre(16, 4.0), BoundaryGrid.disk(16))
    with pytest.raises(ConfigurationError):
        f.evaluate(np.zeros((1, 2)))


def test_translate_bump_matches_composition():
    rng = np.random.default_rng(12)
    spec = BumpSpec(dim=2, radius=1.0, center=Isometry.translation([0.2, -0.1]), alpha=0.5)
    from ballfourier.geometry import random_isometry

    g = random_isometry(rng, 2, max_shift=0.4)
    moved = translate_bump(spec, g)
    pts = rng.uniform(-0.5, 0.5, (40, 2))
    ref = spec(apply_array(g.inverse(), pts))
    assert np.allclose(moved(pts), ref, atol=1e-13)


@pytest.mark.parametrize(
    "grid,layout",
    [(BoundaryGrid.disk(n), (1, n)) for n in (1, 2, 3, 7, 128, 257)]
    + [(BoundaryGrid.sphere(*rows), rows) for rows in ((1, 1), (1, 5), (2, 3), (5, 1), (7, 9), (24, 48))],
)
def test_azimuthal_layout_recognizes_constructor_grids(grid, layout):
    """disk and sphere record their (n_rows, n_phi) azimuthal layout, and the directions follow it row by row."""
    assert grid.layout == layout
    n_rows, n_phi = layout
    rows = grid.directions.reshape(n_rows, n_phi, grid.dim)
    azimuth = np.arctan2(rows[..., 1], rows[..., 0]) % (2.0 * np.pi)
    if grid.dim == 3:
        assert np.all(rows[..., 2] == rows[:, :1, 2])
    assert np.allclose(azimuth, 2.0 * np.pi * np.arange(n_phi) / n_phi, atol=1e-12)


@pytest.mark.parametrize("grid", [BoundaryGrid.disk(16), BoundaryGrid.sphere(6, 8)])
def test_azimuthal_layout_rejects_rotated_or_permuted_grids(grid):
    """Only the constructors set a layout: rotated, permuted and hand-built grids carry None."""
    rot = random_rotation(np.random.default_rng(5), grid.dim)
    rotated = BoundaryGrid(grid.dim, grid.directions @ rot.matrix.T, grid.weights)
    assert rotated.layout is None
    # a shift of the azimuth index, and a reversal of the direction order
    for perm in (np.roll(np.arange(len(grid)), 1), np.arange(len(grid))[::-1]):
        permuted = BoundaryGrid(grid.dim, grid.directions[perm], grid.weights[perm])
        assert permuted.layout is None
    # a copy built by hand carries None too, though its directions are the grid's
    copy = BoundaryGrid(grid.dim, grid.directions.copy(), grid.weights.copy())
    assert copy.layout is None and grid.layout is not None
