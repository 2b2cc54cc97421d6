"""Quadrature grids, bump sampling and integral plumbing."""

import numpy as np
import pytest
from scipy.integrate import quad

from ballfourier.geometry import BoundaryPoint, Isometry, Point, apply, busemann, random_rotation
from ballfourier.grids import (
    BoundaryGrid,
    BumpSpec,
    ConfigurationError,
    RadialGrid,
    SpectralGrid,
    azimuthal_layout,
    integrate_B,
    integrate_spectrum,
    integrate_X,
    k_average,
    k_average_profile,
    sample_bump,
    translate_bump,
    zero_function,
)
from ballfourier.spectral import spherical_phi


def smooth_profile(r, R):
    return np.exp(-1.0 / (1.0 - (r / R) ** 2)) if abs(r) < R else 0.0


def test_radial_grid_weight_sum():
    g = RadialGrid.gauss_legendre(96, 16.0)
    assert np.all(np.diff(g.nodes) > 0)
    assert np.sum(g.weights) == pytest.approx(16.0, abs=1e-12)


@pytest.mark.parametrize("n", [16, 97, 384])
def test_radial_grid_from_shared_legendre_rule(n):
    """One leggauss rule mapped to several ranges equals a fresh rule per range."""
    x, w = np.polynomial.legendre.leggauss(n)
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


def test_spectral_grid_constant_integral():
    g = SpectralGrid.gauss_legendre(200, 24.0)
    assert integrate_spectrum(np.ones(len(g)), g) == pytest.approx(24.0, abs=1e-11)


def test_bump_value_at_origin():
    spec = BumpSpec(dim=3, radius=1.0)
    assert spec(np.zeros(3)) == pytest.approx(np.exp(-1.0), abs=1e-15)


def test_bump_vanishes_outside_support():
    spec = BumpSpec(dim=2, radius=1.0, center=Isometry.translation([0.3, 0.0]))
    rng = np.random.default_rng(0)
    for _ in range(50):
        w = rng.standard_normal(2)
        w /= np.linalg.norm(w)
        r = rng.uniform(1.0, 3.0)
        c = spec.center.origin_image()
        # point at hyperbolic distance >= R from the center
        x = apply(spec.center, Point(np.tanh(0.5 * r) * w))
        assert spec(x.coords) == 0.0


def test_centered_unmodulated_bump_is_radial():
    radial = RadialGrid.gauss_legendre(48, 6.0)
    boundary = BoundaryGrid.disk(64)
    f = sample_bump(BumpSpec(dim=2, radius=1.5), radial, boundary)
    assert f.is_radial()
    assert np.all(f.values[~f.support_mask, :] == 0)


def test_sample_bump_support_guard():
    with pytest.raises(ConfigurationError):
        sample_bump(
            BumpSpec(dim=2, radius=3.0, center=Isometry.translation([0.9, 0.0])),
            RadialGrid.gauss_legendre(32, 5.0),
            BoundaryGrid.disk(32),
        )


def test_integrate_zero():
    f = zero_function(3, RadialGrid.gauss_legendre(32, 6.0), BoundaryGrid.sphere(12, 24))
    assert integrate_X(f) == 0


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
    got = complex(integrate_X(f)).real
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
        vals.append(complex(integrate_X(f)).real)
    assert abs(vals[1] - vals[0]) <= 1e-10


def test_integrate_B_constant():
    for grid in (BoundaryGrid.disk(128), BoundaryGrid.sphere(24, 48)):
        assert integrate_B(np.ones(len(grid)), grid) == pytest.approx(1.0, abs=1e-13)


@pytest.mark.parametrize("dim", [2, 3])
def test_boundary_integral_of_kernel_is_spherical_function(dim):
    """integral over B of e^{(i lam + rho) busemann(x, b)} db = phi_lam(dist(0, x))."""
    grid = BoundaryGrid.disk(256) if dim == 2 else BoundaryGrid.sphere(48, 96)
    rho = 0.5 * (dim - 1)
    rng = np.random.default_rng(4)
    for lam in (0.6, 2.0):
        for _ in range(3):
            w = rng.standard_normal(dim)
            w /= np.linalg.norm(w)
            r = rng.uniform(0.2, 1.5)
            x = Point(np.tanh(0.5 * r) * w)
            kernel = np.array(
                [np.exp((1j * lam + rho) * busemann(x, BoundaryPoint(b))) for b in grid.directions]
            )
            got = integrate_B(kernel, grid)
            ref = spherical_phi(dim, lam, r)
            assert abs(got - ref) <= 1e-9


def test_k_average_of_radial_function_is_identity():
    radial = RadialGrid.gauss_legendre(48, 6.0)
    boundary = BoundaryGrid.disk(128)
    f = sample_bump(BumpSpec(dim=2, radius=1.5), radial, boundary)
    x = Point([0.3, 0.2])
    assert k_average(f, Isometry.identity(2), x) == pytest.approx(
        complex(f.evaluate(x.coords[None, :])[0]), abs=1e-12
    )


def test_k_average_at_origin():
    f = sample_bump(
        BumpSpec(dim=3, radius=1.0, center=Isometry.translation([0.2, 0.0, 0.1])),
        RadialGrid.gauss_legendre(32, 6.0),
        BoundaryGrid.sphere(12, 24),
    )
    assert k_average(f, Isometry.identity(3), Point(np.zeros(3))) == pytest.approx(
        complex(f.evaluate(np.zeros((1, 3)))[0]), abs=1e-14
    )


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
    x = Point(np.array([0.3] + [0.0] * (dim - 1)))
    base = k_average(f, Isometry.identity(dim), x)
    for _ in range(5):
        k = Isometry((random_rotation(rng, dim),), dim)
        val = k_average(f, Isometry.identity(dim), apply(k, x))
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
    t = np.tanh(0.5 * f.radial.nodes[10])
    direct = k_average(f, g, Point(np.array([t, 0.0])))
    assert prof.values[10, 0] == pytest.approx(direct, abs=1e-12)


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
    ref = spec(np.array([apply(g.inverse(), Point(p)).coords for p in pts]))
    assert np.allclose(moved(pts), ref, atol=1e-13)


def test_linear_combinations_drop_descriptor():
    radial = RadialGrid.gauss_legendre(16, 5.0)
    boundary = BoundaryGrid.disk(16)
    f = sample_bump(BumpSpec(dim=2, radius=1.0), radial, boundary)
    h = 2.0 * f + (-1.0) * f if False else (f + f)
    assert h.bump is None
    assert np.allclose(h.values, 2 * f.values)


@pytest.mark.parametrize(
    "grid,layout",
    [(BoundaryGrid.disk(n), (1, n)) for n in (1, 2, 3, 7, 128, 257)]
    + [(BoundaryGrid.sphere(*rows), rows) for rows in ((1, 1), (1, 5), (2, 3), (5, 1), (7, 9), (24, 48))],
)
def test_azimuthal_layout_recognizes_constructor_grids(grid, layout):
    assert azimuthal_layout(grid) == layout


@pytest.mark.parametrize("grid", [BoundaryGrid.disk(16), BoundaryGrid.sphere(6, 8)])
def test_azimuthal_layout_rejects_rotated_or_permuted_grids(grid):
    rot = random_rotation(np.random.default_rng(5), grid.dim)
    rotated = BoundaryGrid(grid.dim, grid.directions @ rot.matrix.T, grid.weights)
    assert azimuthal_layout(rotated) is None
    # a shift of the azimuth index, and a reversal of the direction order
    for perm in (np.roll(np.arange(len(grid)), 1), np.arange(len(grid))[::-1]):
        permuted = BoundaryGrid(grid.dim, grid.directions[perm], grid.weights[perm])
        assert azimuthal_layout(permuted) is None
    # a copy with identical directions is recognized: the test is on values, not identity
    copy = BoundaryGrid(grid.dim, grid.directions.copy(), grid.weights.copy())
    assert azimuthal_layout(copy) == azimuthal_layout(grid)
