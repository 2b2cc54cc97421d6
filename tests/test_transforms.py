"""Transform stack: forward/Poisson/composition, inversion, Plancherel, residuals."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.special import jv

from ballfourier.geometry import (
    GeometryError,
    Isometry,
    Point,
    apply_array,
    busemann_field,
    pairwise_dist,
    polar_to_point,
    random_isometry,
    random_rotation,
)
from ballfourier.grids import (
    BoundaryGrid,
    BumpSpec,
    RadialGrid,
    SampledFunction,
    _affine,
    legendre_rule,
    sample_bump,
)
from ballfourier.spectral import c_function, plancherel_density_table, spherical_phi
from ballfourier import transforms
from ballfourier.transforms import (
    FAR_RADIUS,
    KAPPA,
    OVERFLOW_EXPONENT,
    TransformUsageError,
    _funk_hecke,
    _lam_route,
    _orbit_degree,
    _pw_degree,
    _pw_rule,
    _slices_chebyshev,
    _slices_fft,
    _slices_ktype,
    _support_data,
    asymptotic_limit_residual,
    boundary_slices,
    calibrate_kappa,
    eigen_equation_residual,
    functional_equation_residual,
    helgason_forward,
    invert,
    jeft,
    jeft_direct,
    jeft_grid,
    kaverage_bridge_residual,
    laplace_beltrami_residual,
    plancherel_residual,
    poisson,
    spherical_transform,
)
from sampling_helpers import (
    bracket,
    center_along,
    dense_slice,
    direct_convolution,
    ktype_terms_magnitude,
    translate_bump,
    unit_vectors,
    zero_function,
)


def disk_setup(n_r=96, r_max=6.0, n_b=256):
    return RadialGrid.gauss_legendre(n_r, r_max), BoundaryGrid.disk(n_b)


def ball_setup(n_r=96, r_max=6.0, n_theta=24, n_phi=48):
    return RadialGrid.gauss_legendre(n_r, r_max), BoundaryGrid.sphere(n_theta, n_phi)


def sampled_sum(f, g):
    """The sampled function f + g on the grids the two share, with no analytic descriptor."""
    assert f.radial is g.radial and f.boundary is g.boundary
    support = max(f.support_radius, g.support_radius)
    return SampledFunction(f.dim, f.radial, f.boundary, f.values + g.values, support)


@pytest.fixture(scope="module")
def disk_bumps():
    radial, boundary = disk_setup()
    centered = sample_bump(BumpSpec(dim=2, radius=1.5), radial, boundary)
    shifted = sample_bump(
        BumpSpec(dim=2, radius=1.0, center=Isometry.translation([0.25, 0.1]), alpha=0.6),
        radial,
        boundary,
    )
    return centered, shifted


@pytest.fixture(scope="module")
def ball_bumps():
    radial, boundary = ball_setup()
    centered = sample_bump(BumpSpec(dim=3, radius=1.5), radial, boundary)
    shifted = sample_bump(
        BumpSpec(dim=3, radius=1.0, center=Isometry.translation([0.2, 0.1, -0.1]), alpha=0.6),
        radial,
        boundary,
    )
    return centered, shifted


def test_zero_function_transforms_to_zero():
    radial, boundary = disk_setup(32, 5.0, 32)
    f = zero_function(2, radial, boundary)
    assert helgason_forward(f, 1.0, np.array([1.0, 0.0])) == 0
    assert jeft(f, 1.0, Point([0.2, 0.0])) == 0
    assert np.array_equal(jeft_direct(f, [1.0], [[0.2, 0.0]]), [[0.0]])


@pytest.mark.parametrize("setup", ["disk", "ball"])
def test_radial_transform_is_boundary_independent(setup, disk_bumps, ball_bumps):
    f = disk_bumps[0] if setup == "disk" else ball_bumps[0]
    for lam in (0.7, 2.0):
        sl = boundary_slices(f, [lam])[0]
        scale = np.max(np.abs(sl))
        assert np.max(np.abs(sl - sl.mean())) <= 1e-9 * scale
        ft = spherical_transform(f, [lam])[0]
        assert abs(sl.mean() - ft) <= 1e-9 * abs(ft)


def test_spherical_transform_rejects_non_radial(disk_bumps):
    with pytest.raises(TransformUsageError):
        spherical_transform(disk_bumps[1], [1.0])


def test_spherical_transform_d3_sine_reduction_oracle():
    """f~(lam) = (4 pi / lam) Int F(r) sin(lam r) sinh(r) dr by adaptive quadrature."""
    radial = RadialGrid.gauss_legendre(512, 5.0)
    boundary = BoundaryGrid.sphere(6, 12)
    f = sample_bump(BumpSpec(dim=3, radius=1.0), radial, boundary)
    for lam in (0.8, 2.0, 5.0):
        oracle_re, _ = quad(
            lambda r: np.exp(-1.0 / (1.0 - r**2)) * np.sin(lam * r) * np.sinh(r),
            0.0,
            1.0,
            epsabs=1e-15,
            epsrel=1e-14,
            limit=200,
        )
        oracle = 4.0 * np.pi / lam * oracle_re
        got = spherical_transform(f, [lam])[0]
        assert abs(got - oracle) <= 1e-8 * abs(oracle)


def test_translation_covariance_of_forward_transform():
    """Transform of f o g^-1 = e^{(-i lam + rho) A(g.0, b)} fhat(lam, g^-1 b).

    The mollifier profile converges root-exponentially, so the 1e-7 check
    needs a dense, support-fitted radial rule.
    """
    radial, boundary = RadialGrid.gauss_legendre(384, 2.6), BoundaryGrid.disk(256)
    spec = BumpSpec(dim=2, radius=1.0, center=Isometry.translation([0.15, 0.05]))
    f = sample_bump(spec, radial, boundary)
    g = Isometry.translation([0.3, -0.1])
    fg = sample_bump(translate_bump(spec, g), radial, boundary)
    g0 = g.origin_image()
    rho = 0.5
    for lam in (0.8, 2.5):
        for bdir in ([1.0, 0.0], [0.6, 0.8]):
            b = np.array(bdir)
            lhs = helgason_forward(fg, lam, b)
            cocycle = np.exp((-1j * lam + rho) * bracket(g0, b))
            rhs = cocycle * helgason_forward(f, lam, apply_array(g.inverse(), b))
            assert abs(lhs - rhs) <= 1e-7 * abs(rhs)


@pytest.mark.parametrize("dim", [2, 3])
def test_poisson_of_constant_is_spherical_function(dim, disk_bumps, ball_bumps):
    f = disk_bumps[0] if dim == 2 else ball_bumps[0]
    ones = np.ones(len(f.boundary))
    for lam in (0.5, 2.0):
        for r in (0.4, 1.3):
            x = polar_to_point(r, np.eye(dim)[0])
            got = poisson(ones, f.boundary, lam, x)
            assert abs(got - spherical_phi(dim, lam, r)) <= 1e-9


@pytest.mark.parametrize("dim", [2, 3])
def test_stacked_poisson_equals_per_lam_calls(dim, disk_bumps, ball_bumps):
    f = disk_bumps[1] if dim == 2 else ball_bumps[1]
    lams = np.array([0.4, 1.7, 3.1 - 0.2j])
    slices = boundary_slices(f, lams)
    xs = np.array([polar_to_point(r, np.eye(dim)[0]).coords for r in (0.3, 1.1, 2.0)])
    got = poisson(slices, f.boundary, lams, xs)
    ref = np.array([poisson(slices[k], f.boundary, lam, xs) for k, lam in enumerate(lams)])
    assert got.shape == (3, 3) and np.array_equal(got, ref)
    one = poisson(slices, f.boundary, lams, xs[1])
    ref_one = np.array([poisson(slices[k], f.boundary, lam, xs[1]) for k, lam in enumerate(lams)])
    assert one.shape == (3,) and np.array_equal(one, ref_one)


@pytest.mark.parametrize("dim", [2, 3])
def test_blocked_poisson_matches_whole_kernel_bit_for_bit(dim, disk_bumps, ball_bumps):
    """Row blocks of the Poisson kernel against one (n_x, m) kernel built in the test, stacked lam.

    The point counts span one to several blocks and include one row past a
    whole number of blocks.
    """
    from ballfourier.geometry import BLOCK

    f = disk_bumps[1] if dim == 2 else ball_bumps[1]
    m = len(f.boundary)
    lams = np.array([0.4, 1.7, 3.1 - 0.2j])
    slices = boundary_slices(f, lams)
    rng = np.random.default_rng(17)
    rows = BLOCK // m
    for n_x in (2, rows + 1, 3 * rows + 1, 4 * rows + 5):
        w = rng.standard_normal((n_x, dim))
        xs = np.tanh(0.5 * rng.uniform(0.0, 2.0, n_x))[:, None] * w / np.linalg.norm(w, axis=1, keepdims=True)
        B = busemann_field(xs, f.boundary.directions)
        ref = np.array([np.exp((1j * lam + 0.5 * (dim - 1)) * B) @ (f.boundary.weights * row)
                        for lam, row in zip(lams, slices)])
        assert np.array_equal(poisson(slices, f.boundary, lams, xs), ref)
        assert np.array_equal(poisson(slices[1], f.boundary, lams[1], xs), ref[1])


def test_poisson_rejects_mismatched_lams(disk_bumps):
    f = disk_bumps[1]
    slices = boundary_slices(f, [0.4, 1.7])
    x = Point([0.2, 0.1])
    with pytest.raises(TransformUsageError):
        poisson(slices, f.boundary, [0.4, 1.7, 2.0], x)
    with pytest.raises(TransformUsageError):
        poisson(slices, f.boundary, 0.4, x)
    with pytest.raises(TransformUsageError):
        poisson(slices[0], f.boundary, [0.4], x)


def test_poisson_at_origin_is_boundary_integral(disk_bumps):
    f = disk_bumps[1]
    F = boundary_slices(f, [1.2])[0]
    got = poisson(F, f.boundary, 1.2, Point([0.0, 0.0]))
    assert abs(got - np.sum(f.boundary.weights * F)) <= 1e-12 * max(1.0, abs(got))


def test_poisson_kernel_trivializes_at_lam_i_rho():
    """At lam = i rho the kernel e^{(i lam + rho) A} is identically 1."""
    boundary = BoundaryGrid.disk(64)
    rng = np.random.default_rng(1)
    F = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    ref = np.sum(boundary.weights * F)
    for r in (0.3, 1.1):
        x = polar_to_point(r, [0.6, 0.8])
        got = poisson(F, boundary, 0.5j, x)
        assert abs(got - ref) <= 1e-12 * abs(ref)


@pytest.mark.parametrize("dim", [2, 3])
def test_constant_eigenfunction_at_minus_i_rho(dim):
    """phi_(-i rho) = 1: the Poisson-kernel mean over the boundary is 1."""
    rho = 0.5 * (dim - 1)
    boundary = BoundaryGrid.disk(256) if dim == 2 else BoundaryGrid.sphere(32, 64)
    ones = np.ones(len(boundary))
    for r in (0.5, 1.5):
        x = polar_to_point(r, np.eye(dim)[0])
        got = poisson(ones, boundary, -1j * rho, x)
        assert abs(got - 1.0) <= 1e-9


def test_jeft_at_origin_equals_spherical_transform(disk_bumps, ball_bumps):
    for f in (disk_bumps[0], ball_bumps[0]):
        for lam in (0.9, 3.0):
            got = jeft(f, lam, np.zeros(f.dim))
            ft = spherical_transform(f, [lam])[0]
            assert abs(got - ft) <= 1e-9 * max(abs(ft), 1e-6)


def test_jeft_weyl_symmetry(disk_bumps, ball_bumps):
    rng = np.random.default_rng(6)
    for f in (disk_bumps[1], ball_bumps[1]):
        for _ in range(3):
            lam = rng.uniform(0.4, 3.0)
            w = rng.standard_normal(f.dim)
            w /= np.linalg.norm(w)
            x = polar_to_point(rng.uniform(0.1, 1.4), w)
            a = jeft(f, lam, x)
            b = jeft(f, -lam, x)
            assert abs(a - b) <= 1e-8 * max(abs(a), 1e-8)


@pytest.mark.parametrize("dim", [2, 3])
def test_jeft_equals_direct_convolution(dim, disk_bumps, ball_bumps):
    """Factorized transform against the distance-kernel oracle (central identity).

    Shifted bumps take the near route, centered (radial) bumps the
    spherical-transform route.
    """
    centered, shifted = disk_bumps if dim == 2 else ball_bumps
    rng = np.random.default_rng(17)
    n = 6 if dim == 2 else 4
    for f in (shifted, centered):
        for _ in range(n):
            lam = rng.uniform(0.4, 3.0)
            w = rng.standard_normal(dim)
            w /= np.linalg.norm(w)
            x = polar_to_point(rng.uniform(0.1, 1.5), w)
            a = jeft(f, lam, x)
            b = jeft_direct(f, [lam], x.coords[None])[0, 0]
            assert abs(a - b) <= 1e-6 * max(abs(b), 1e-9)


def test_jeft_direct_radial_case_matches_spherical_transform(disk_bumps):
    f = disk_bumps[0]
    lams = np.array([0.7, 2.2])
    got = jeft_direct(f, lams, np.zeros((1, 2)))[:, 0]
    assert np.all(np.abs(got - spherical_transform(f, lams)) <= 1e-9)


@pytest.mark.parametrize("dim", [2, 3])
def test_support_data_is_masked_full_support_bit_for_bit(dim, disk_bumps, ball_bumps):
    """Nonzero samples of the support rows only, against the masked full-support arrays."""
    shifted = (disk_bumps if dim == 2 else ball_bumps)[1]
    # nonzero values beyond the support radius are not part of the support
    beyond = SampledFunction(dim, shifted.radial, shifted.boundary, shifted.values + 1.0, 1.0)
    for f in (shifted, beyond):
        mask = f.support_mask
        vals = f.values[mask]
        keep = vals != 0
        pts, wv = _support_data(f)
        coords = np.tanh(0.5 * f.radial.nodes[mask])[:, None, None] * f.boundary.directions
        assert np.array_equal(pts, coords[keep])
        assert np.array_equal(wv, (f.node_weights()[mask] * vals)[keep])
    assert 0 < len(wv) < np.count_nonzero(beyond.values)


@pytest.mark.parametrize("dim", [2, 3])
def test_dense_sums_drop_only_zero_samples(dim):
    """Dense slice and convolution oracle against an inline sum over every support-row sample.

    The shifted bump is zero on much of its support rows; leaving those
    samples out of the kernel sums may change the values only by rounding,
    measured against the sum of the terms' magnitudes.
    """
    spec = BumpSpec(dim=dim, radius=1.0, center=Isometry.translation([0.5] + [0.1] * (dim - 1)), alpha=0.5)
    radial = RadialGrid.gauss_legendre(64, spec.support_radius + 1.0)
    boundary = BoundaryGrid.disk(64) if dim == 2 else BoundaryGrid.sphere(8, 16)
    f = sample_bump(spec, radial, boundary)
    mask = f.support_mask
    t = np.tanh(0.5 * radial.nodes[mask])
    pts = (t[:, None, None] * boundary.directions[None, :, :]).reshape(-1, dim)
    wv = (f.node_weights()[mask] * f.values[mask]).ravel()
    assert np.count_nonzero(wv == 0) > len(wv) // 4
    rng = np.random.default_rng(21)
    bs = rng.standard_normal((5, dim))
    bs /= np.linalg.norm(bs, axis=1, keepdims=True)
    lams = np.array([0.7, 2.5, 1.5 - 0.6j, 0.4j])
    kernels = np.exp((-1j * lams[:, None, None] + 0.5 * (dim - 1)) * busemann_field(pts, bs))
    ref = np.einsum("i,kij->kj", wv, kernels)
    scale = np.einsum("i,kij->kj", np.abs(wv), np.abs(kernels))
    assert np.max(np.abs(boundary_slices(f, lams, bs) - ref) / scale) <= 1e-14
    xs = np.array([polar_to_point(r, b).coords for r, b in zip((0.2, 0.9, 1.6, 2.4, 3.0), bs)])
    D = pairwise_dist(xs, pts)
    for lam in (0.7, 2.5):
        phis = np.array([spherical_phi(dim, lam, row) for row in D])
        ref, scale = phis @ wv, np.abs(phis) @ np.abs(wv)
        assert np.max(np.abs(jeft_direct(f, [lam], xs)[0] - ref) / scale) <= 1e-14


def test_jeft_many_matches_scalar(disk_bumps):
    f = disk_bumps[1]
    xs = np.array([[0.1, 0.2], [0.5, -0.1], [0.97, 0.0]])
    vals = jeft_grid(f, [1.3], xs)[0]
    for i, x in enumerate(xs):
        assert abs(vals[i] - jeft(f, 1.3, x)) <= 1e-12


def test_jeft_grid_matches_direct_on_both_sides_of_far_radius(disk_bumps, ball_bumps):
    """The near route just inside FAR_RADIUS, the convolution just outside, in both dimensions.

    Just inside FAR_RADIUS[3] the Poisson kernel peak, of width ~e^-r, is as
    wide as the spacing of the 24 x 48 sphere: the d = 3 near side reads
    2.9e-7 (lam = 0.9) and 8.7e-6 (lam = 2.1) relative to jeft_direct, the
    d = 2 side 2.1e-9.
    """
    lams = (0.9, 2.1)
    for f, tol in ((disk_bumps[1], 1e-6), (ball_bumps[1], 1e-5)):
        w = np.array([0.8, 0.6, 0.0])[: f.dim]
        xs = np.array([polar_to_point(FAR_RADIUS[f.dim] + dr, w).coords for dr in (-0.05, 0.05)])
        got = jeft_grid(f, lams, xs)
        near, far = (jeft_direct(f, np.array(lams), x[None])[:, 0] for x in xs)
        assert np.all(np.abs(got[:, 0] - near) <= tol * np.maximum(np.abs(near), 1e-12))
        assert np.array_equal(got[:, 1], far)


@pytest.mark.parametrize("dim", [2, 3])
def test_jeft_far_route_is_direct_convolution_bit_for_bit(dim, disk_bumps, ball_bumps):
    """Beyond FAR_RADIUS jeft_grid and jeft read what jeft_direct reads, for every lam and point."""
    f = (disk_bumps if dim == 2 else ball_bumps)[1]
    w = np.random.default_rng(8).standard_normal((3, dim))
    w /= np.linalg.norm(w, axis=1, keepdims=True)
    xs = np.array([polar_to_point(r, v).coords for r, v in zip((FAR_RADIUS[dim] + 0.3, 5.0, 8.0), w)])
    lams = np.array([0.9, 2.1, 2.0 - 0.35j])
    assert np.array_equal(jeft_grid(f, lams, xs), jeft_direct(f, lams, xs))
    assert jeft(f, lams[2], xs[1]) == jeft_direct(f, lams[2:3], xs[1:2])[0, 0]


@pytest.mark.parametrize("dim", [2, 3])
def test_jeft_direct_lam_array_matches_scalar_calls_bit_for_bit(dim, disk_bumps, ball_bumps):
    """n lam and n_x points give (n, n_x); a point reads bit for bit what it reads alone.

    A scalar lam is a batch of one, bit for bit.  The panels are sized by
    the largest lam of the call, so a one-lam call and the same row of a
    many-lam call are both bounded against the per-sample oracle instead.
    """
    f = (disk_bumps if dim == 2 else ball_bumps)[1]
    lams = np.array([0.9, 2.1, 2.0 - 0.35j, 0.4j])
    xs = np.array([polar_to_point(r, np.eye(dim)[k % dim]).coords for k, r in enumerate((0.3, 1.2, 4.0))])
    table = jeft_direct(f, lams, xs)
    one = jeft_direct(f, lams, xs[1:2])
    assert table.shape == (len(lams), len(xs)) and one.shape == (len(lams), 1)
    assert np.array_equal(one[:, 0], table[:, 1])
    ref, scale = direct_convolution(f, lams, xs)
    assert np.all(np.abs(table - ref) <= 1e-13 * scale)
    for k in range(len(lams)):
        assert np.all(np.abs(jeft_direct(f, lams[k : k + 1], xs)[0] - ref[k]) <= 1e-13 * scale[k])
    assert np.array_equal(jeft_direct(f, lams[0], xs[1]), jeft_direct(f, lams[:1], xs[1:2]))


@pytest.mark.parametrize("dim", [2, 3])
def test_points_outside_the_ball_raise_geometry_error(dim, disk_bumps, ball_bumps):
    """jeft_direct, jeft_grid and invert reject |x| >= 1 - BALL_TOL and NaN before any arithmetic."""
    f = (disk_bumps if dim == 2 else ball_bumps)[1]
    inside = np.full(dim, 0.2)
    for norm in (1.0, 1.2, np.nan):
        x = np.eye(dim)[0] * norm
        for pts in (x, np.array([inside, x])):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                for call in (
                    lambda: jeft_direct(f, [1.3], pts),
                    lambda: jeft_grid(f, [1.3], pts),
                    lambda: invert(f, pts, 8.0),
                ):
                    with pytest.raises(GeometryError):
                        call()


@pytest.mark.parametrize("dim", [2, 3])
def test_flat_front_limit_to_second_term_at_far_points(dim):
    """The flat-front limit of a shifted, modulated bump with its second term eliminated.

    e^{(-i lam + rho) t} jeft(f, lam, a_t . o) = c(lam) fhat(lam, b0) + C e^{-2 i lam t} + ...
    (Helgason), so L = (V(10) - q V(8)) / (1 - q) with q = e^{-2 i lam 2}
    removes C.  Both points lie beyond FAR_RADIUS, so this checks the far
    route against the forward slice; V(10) alone reads about 1.8e-3.
    """
    radial = RadialGrid.gauss_legendre(128, 16.0)
    boundary = BoundaryGrid.disk(64) if dim == 2 else BoundaryGrid.sphere(12, 24)
    e1, e2 = np.eye(dim)[:2]
    spec = BumpSpec(
        dim=dim, radius=2.0, center=center_along(e1 + e2, Isometry.translation(np.tanh(0.25) * e1)), alpha=0.6,
    )
    f = sample_bump(spec, radial, boundary)
    lam, rho = 2.0 - 0.35j, 0.5 * (dim - 1)
    v8, v10 = (np.exp((-1j * lam + rho) * t) * jeft(f, lam, polar_to_point(t, e1)) for t in (8.0, 10.0))
    q = np.exp(-2j * lam * 2.0)
    target = c_function(dim, lam) * helgason_forward(f, lam, e1)
    assert abs((v10 - q * v8) / (1.0 - q) - target) <= 1e-6 * abs(target)


def spectral_values(f, re_max):
    """Real lam in [0, re_max], or complex lam with |Re lam| <= re_max inside the overflow guard."""
    # one ulp below the guard, so that im_max * support_radius cannot round above it
    im_max = np.nextafter(OVERFLOW_EXPONENT / f.support_radius, 0.0)
    return st.one_of(
        st.floats(0.0, re_max),
        st.builds(complex, st.floats(-re_max, re_max), st.floats(-im_max, im_max)),
    )


@st.composite
def sampled_bumps(draw, dims=(2, 3)):
    """A shifted, modulated bump on a disk or sphere grid, of a dimension in ``dims``."""
    dim = draw(st.sampled_from(dims))
    if dim == 2:
        boundary = BoundaryGrid.disk(draw(st.integers(1, 40)))
    else:
        boundary = BoundaryGrid.sphere(draw(st.integers(2, 12)), draw(st.integers(3, 32)))
    direction = unit_vectors(dim)
    shift = draw(st.floats(0.0, 1.5))
    spec = BumpSpec(
        dim=dim,
        radius=draw(st.floats(0.3, 1.5)),
        center=center_along(draw(direction), Isometry.translation(np.tanh(0.5 * shift) * draw(direction))),
        alpha=draw(st.floats(-1.0, 1.0)),
    )
    radial = RadialGrid.gauss_legendre(draw(st.integers(4, 32)), spec.support_radius + 0.5)
    return sample_bump(spec, radial, boundary)


@st.composite
def slice_cases(draw):
    """A bump on a disk grid and a few lam, real or inside the overflow guard."""
    f = draw(sampled_bumps(dims=(2,)))
    return f, draw(st.lists(spectral_values(f, 20.0), min_size=1, max_size=3))


def _random_samples(n_r: int, boundary: BoundaryGrid, rng) -> SampledFunction:
    """Random samples with magnitudes in [0.5, 1.5] on n_r equally spaced radial rows over [0, 1.5]."""
    radial = RadialGrid((np.arange(n_r) + 0.5) * 1.5 / n_r, np.full(n_r, 1.5 / n_r), 1.5)
    shape = (n_r, len(boundary))
    values = rng.uniform(0.5, 1.5, shape) * np.exp(1j * rng.uniform(0.0, 1.0, shape))
    return SampledFunction(boundary.dim, radial, boundary, values, 1.5)


@pytest.mark.parametrize("boundary", [BoundaryGrid.disk(2048), BoundaryGrid.sphere(16, 32)], ids=["disk", "sphere"])
def test_chebyshev_slice_over_several_direction_chunks_matches_dense_sum(boundary):
    """Explicit directions filling three direction chunks of the Chebyshev slice, minus and plus one.

    A chunk holds BLOCK // n_samples directions; the random samples are
    bounded away from zero, so none is dropped and every direction's sum
    carries weight.
    """
    from ballfourier.geometry import BLOCK

    rng = np.random.default_rng(29)
    f = _random_samples(20480 // len(boundary), boundary, rng)
    step = BLOCK // f.values.size
    lams = [2.7, 1.9 - 0.5j]
    for n_b in (3 * step - 1, 3 * step, 3 * step + 1):
        bs = rng.standard_normal((n_b, boundary.dim))
        bs /= np.linalg.norm(bs, axis=1, keepdims=True)
        got = boundary_slices(f, lams, bs)
        ref, scale = dense_slice(f, lams, bs)
        assert np.all(np.abs(got - ref) <= 1e-13 * scale)


@st.composite
def chebyshev_cases(draw):
    """A bump, 1 to 40 lam with |Re lam| <= 200 up to the overflow guard, and 1 to 5 directions."""
    f = draw(sampled_bumps())
    lams = draw(st.lists(spectral_values(f, 200.0), min_size=1, max_size=40))
    return f, lams, np.array(draw(st.lists(unit_vectors(f.dim), min_size=1, max_size=5)))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(slice_cases())
def test_fft_slice_matches_dense_oracle(case):
    """The disk's FFT slice is the grid's own sum; the sphere's K-type slice has its own tests below."""
    f, lams = case
    assert f.boundary.layout is not None
    fast = boundary_slices(f, lams)
    dense, _ = dense_slice(f, lams, f.boundary.directions)
    assert fast.shape == dense.shape == (len(lams), len(f.boundary))
    assert np.max(np.abs(fast - dense)) <= 1e-12 * np.max(np.abs(dense))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(chebyshev_cases())
def test_chebyshev_slice_matches_dense_sum(case):
    """The panelled Chebyshev route against the dense sum, relative to sum |c_j e^{z B_j}|."""
    f, lams, bs = case
    got = boundary_slices(f, lams, bs)
    ref, scale = dense_slice(f, lams, bs)
    assert got.shape == (len(lams), len(bs))
    assert np.all(np.abs(got - ref) <= 1e-13 * scale)


@pytest.mark.parametrize("dim", [2, 3])
def test_chebyshev_slice_inside_one_full_panel_matches_dense_sum(dim):
    """One panel with |z| h just under 1 and its weight on an interior sample, against the dense sum.

    The route interpolates e^{w x}, |w| = |z| h, at N + 1 Chebyshev-Lobatto
    points, so the panel ends are exact and the error sits between the
    nodes: about |w|^(N+1) / ((N + 1)! 2^(N-1)).  Three samples on the
    radial line of the direction (B = r) put the end samples at x = -1 and
    1 and the heavy one at x = -0.39.  Measured relative to sum |c_j e^{z B_j}|:
    3e-16 at _CHEB_ORDER = 20, 7.6e-14 at 12, which the 1e-13 bound of the
    sweep above lets through.
    """
    radial = RadialGrid.gauss_legendre(4, 1.0)
    boundary = BoundaryGrid.disk(8) if dim == 2 else BoundaryGrid.sphere(2, 4)
    values = np.zeros((len(radial), len(boundary)), dtype=complex)
    values[[0, 1, 3], 0] = 1e-3, 1.0, 1e-3
    f = SampledFunction(dim, radial, boundary, values, radial.r_max)
    bs = boundary.directions[:1]
    width = radial.nodes[3] - radial.nodes[0]
    # |z| one part in 1e12 below 2 / width: a single panel, |z| h just under 1
    lam = np.sqrt(((1.0 - 1e-12) * 2.0 / width) ** 2 - 0.25 * (dim - 1) ** 2)
    got = boundary_slices(f, [lam], bs)
    ref, scale = dense_slice(f, [lam], bs)
    assert np.all(np.abs(got - ref) <= 1e-14 * scale)


@st.composite
def convolution_cases(draw):
    """A bump on a disk or sphere grid, 1 to 3 points and 1 to 6 lam.

    A point is the origin or lies at r <= 8.  A lam is real, or complex with
    |Im lam| (r + support_radius) inside the overflow guard at the farthest
    point: phi_lam(s) grows like e^{|Im lam| s}.
    """
    f = draw(sampled_bumps())
    radii = draw(st.lists(st.one_of(st.just(0.0), st.floats(0.0, 8.0)), min_size=1, max_size=3))
    xs = np.array([polar_to_point(r, draw(unit_vectors(f.dim))).coords for r in radii])
    im_max = np.nextafter(OVERFLOW_EXPONENT / (max(radii) + f.support_radius), 0.0)
    lam = st.one_of(st.floats(0.0, 20.0), st.builds(complex, st.floats(-20.0, 20.0), st.floats(-im_max, im_max)))
    return f, draw(st.lists(lam, min_size=1, max_size=6)), xs


@settings(max_examples=40, deadline=None, derandomize=True)
@given(convolution_cases())
def test_jeft_direct_matches_per_sample_convolution(case):
    """The panelled Chebyshev convolution against the per-sample sum, relative to sum |c_j| phi_{i Im lam}(d_j).

    Measured within 7e-15 of that bound over 3,900 random cases.
    """
    f, lams, xs = case
    got = jeft_direct(f, lams, xs)
    ref, scale = direct_convolution(f, lams, xs)
    assert got.shape == (len(lams), len(xs))
    assert np.all(np.abs(got - ref) <= 1e-13 * scale)


@pytest.mark.parametrize("dim", [2, 3])
def test_jeft_direct_inside_one_full_panel_matches_per_sample_sum(dim):
    """One panel with rate h just under 1 and its weight on an interior sample, against the per-sample sum.

    At x = o the distances are the radial nodes of the three samples on one
    direction, so the end samples sit at the panel ends x = -1 and 1, where
    the Lobatto interpolant of phi_lam is exact, and the heavy one at
    x = -0.39.  Measured relative to the oracle's magnitude bound: 1.6e-16
    (d = 2) and 1.2e-16 (d = 3) at _CHEB_ORDER = 20, 1.7e-13 and 1.9e-13 at
    12, which the sweep above lets through: its panels are rarely full.
    """
    radial = RadialGrid.gauss_legendre(4, 1.0)
    boundary = BoundaryGrid.disk(8) if dim == 2 else BoundaryGrid.sphere(2, 4)
    values = np.zeros((len(radial), len(boundary)), dtype=complex)
    values[[0, 1, 3], 0] = 1e-3, 1.0, 1e-3
    f = SampledFunction(dim, radial, boundary, values, radial.r_max)
    x = np.zeros((1, dim))
    width = radial.nodes[3] - radial.nodes[0]
    # rate = |lam + i rho| one part in 1e12 below 2 / width: a single panel, rate h just under 1
    lam = np.sqrt(((1.0 - 1e-12) * 2.0 / width) ** 2 - 0.25 * (dim - 1) ** 2)
    got = jeft_direct(f, [lam], x)
    ref, scale = direct_convolution(f, [lam], x)
    assert np.all(np.abs(got - ref) <= 1e-14 * scale)


def terms_magnitude(f, bs):
    """sum_j |c_j e^{(-i lam + rho) B_j}| at each direction, the same for every real lam, shape (m,)."""
    return dense_slice(f, [0.0], bs)[1][0]


def radial_terms_magnitude(f):
    """sum_i |w_i f(r_i) phi_lam(r_i)| bound for real lam: |phi_lam| <= phi_0 = 1 at every r."""
    return float(np.sum(np.abs(f.radial_weights() * f.radial_profile())[f.support_mask]))


@st.composite
def real_lam_sweeps(draw, radius):
    """More real lam on an interval than the Paley-Wiener degree rule needs there, in random order."""
    lo = draw(st.floats(-30.0, 30.0))
    width = draw(st.floats(0.05, 20.0))
    needed = _pw_degree(0.5 * width * radius) + 1
    count = needed + draw(st.integers(1, 80))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    inner = lo + width * rng.random(count - 2)
    return rng.permutation(np.concatenate([[lo, lo + width], inner]))


@st.composite
def lam_route_cases(draw):
    """A shifted, modulated bump, a real lam sweep for the lam route and 1 to 4 directions."""
    f = draw(sampled_bumps())
    bs = np.array(draw(st.lists(unit_vectors(f.dim), min_size=1, max_size=4)))
    return f, draw(real_lam_sweeps(f.support_radius)), bs


@settings(max_examples=30, deadline=None, derandomize=True)
@given(lam_route_cases())
def test_lam_route_slices_match_per_lam_evaluation(case):
    """Interpolated slices on the grid and Chebyshev routes against one call per lam.

    The bound is relative to the magnitudes of the terms the route sums,
    which real lam leave unchanged: sum |c_j e^{z B_j}| on the disk's FFT
    and the Chebyshev route, and the K-type terms on a sphere grid
    (ktype_terms_magnitude).  The K-type slice integrates the samples'
    harmonics exactly, so it is not bounded by the grid's own terms: on the
    sphere(2, 4) example of this sweep |slice| reached 2.2 times them, and
    the K-type terms 11.5 times.  Against its own terms the interpolated
    slice measured within 2.1e-15 here and 8.3e-15 over 300 random bumps
    and sweeps of this kind.
    """
    f, lams, bs = case
    for dirs in (None, bs):
        got = boundary_slices(f, lams, dirs)
        per_lam = np.array([boundary_slices(f, [lam], dirs)[0] for lam in lams])
        if dirs is None and f.dim == 3:
            scale = ktype_terms_magnitude(f)
        else:
            scale = terms_magnitude(f, f.boundary.directions if dirs is None else dirs)
        assert got.shape == per_lam.shape
        assert np.all(np.abs(got - per_lam) <= 1e-14 * scale)


@st.composite
def radial_lam_route_cases(draw):
    """A centred bump on a disk or sphere grid and a real lam sweep for the lam route."""
    dim = draw(st.sampled_from([2, 3]))
    boundary = BoundaryGrid.disk(draw(st.integers(1, 16))) if dim == 2 else BoundaryGrid.sphere(
        draw(st.integers(1, 6)), draw(st.integers(1, 12))
    )
    spec = BumpSpec(dim=dim, radius=draw(st.floats(0.3, 3.0)))
    radial = RadialGrid.gauss_legendre(draw(st.integers(4, 96)), spec.support_radius + draw(st.floats(0.0, 1.0)))
    return sample_bump(spec, radial, boundary), draw(real_lam_sweeps(spec.support_radius))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(radial_lam_route_cases())
def test_lam_route_spherical_transform_matches_per_lam_evaluation(case):
    f, lams = case
    got = spherical_transform(f, lams)
    per_lam = np.array([spherical_transform(f, [lam])[0] for lam in lams])
    assert np.all(np.abs(got - per_lam) <= 1e-14 * radial_terms_magnitude(f))


def test_pw_degree_rule_against_bessel_values():
    """|J_N(omega)| <= 1e-17 at N = _pw_degree(omega) for omega <= 200.

    The Chebyshev coefficients of e^{-i omega s x} on [-1, 1] are
    2 (-i)^n J_n(omega s), so these bound the truncation of the lam route.
    """
    omegas = np.concatenate([np.linspace(0.0, 200.0, 4001), [1e-3, 0.5, 199.99]])
    degrees = np.array([_pw_degree(w) for w in omegas])
    assert np.all(degrees > omegas)
    assert np.max(np.abs(jv(degrees, omegas))) <= 1e-17


@pytest.mark.parametrize("dim", [2, 3])
def test_lam_route_passes_other_calls_through_bit_for_bit(dim, disk_bumps, ball_bumps):
    """Complex lam, one lam and N + 1 >= n_lam real lam reach the routes unchanged."""
    centered, shifted = disk_bumps if dim == 2 else ball_bumps
    bs = np.eye(dim)[:2]
    width = 6.0
    needed = _pw_degree(0.5 * width * shifted.support_radius) + 1
    at_threshold = np.linspace(0.5, 0.5 + width, needed).astype(complex)
    complex_lams = np.linspace(0.5, 0.5 + width, needed + 2) - 0.2j
    grid_route = _slices_fft(shifted, at_threshold) if dim == 2 else _slices_ktype(shifted, at_threshold)
    assert np.array_equal(boundary_slices(shifted, at_threshold), grid_route)
    # complex lam on a sphere grid take the grid's own sum, by the Chebyshev route
    if dim == 2:
        grid_route = _slices_fft(shifted, complex_lams)
    else:
        grid_route = _slices_chebyshev(shifted, complex_lams, shifted.boundary.directions)
    assert np.array_equal(boundary_slices(shifted, complex_lams), grid_route)
    for lams in (at_threshold, complex_lams):
        assert np.array_equal(boundary_slices(shifted, lams, bs), _slices_chebyshev(shifted, lams, bs))
    mask = centered.support_mask
    weighted = (centered.radial_weights() * centered.radial_profile())[mask]
    nodes = centered.radial.nodes[mask]
    needed = _pw_degree(0.5 * width * centered.support_radius) + 1
    for lams in (np.linspace(0.5, 0.5 + width, needed), np.linspace(0.5, 0.5 + width, needed + 2) - 0.2j):
        ref = np.sum(weighted * spherical_phi(dim, lams.astype(complex), nodes), axis=1)
        assert np.array_equal(spherical_transform(centered, lams), ref)
    ref = np.sum(weighted * spherical_phi(dim, np.array([1.3 + 0j]), nodes), axis=1)
    assert np.array_equal(spherical_transform(centered, [1.3]), ref)


def test_lam_route_returns_node_values_exactly():
    """A lam equal to a Chebyshev-Lobatto node, both ends included, reads the node's value bit for bit."""
    rng = np.random.default_rng(3)
    B = rng.uniform(-2.0, 2.0, 40)
    c = rng.standard_normal(40) + 1j * rng.standard_normal(40)
    seen = []

    def evaluate(lams):
        seen.append(lams.copy())
        return np.exp(-1j * np.outer(lams, B)) @ c

    # the ends are pinned: here the midpoint minus the half-width rounds to 0.09999999999999964
    lams = rng.uniform(0.1, 9.7, 200)
    lams[:2] = 0.1, 9.7
    first = _lam_route(evaluate, lams, 2.0)
    nodes = seen[-1]
    assert len(nodes) == _pw_degree(0.5 * 9.6 * 2.0) + 1 < len(lams)
    assert nodes[0] == 0.1 and nodes[-1] == 9.7
    node_vals = evaluate(nodes)
    assert first[0] == node_vals[0] and first[1] == node_vals[-1]
    mixed = np.concatenate([lams, nodes[::7]])
    got = _lam_route(evaluate, mixed, 2.0)
    assert np.array_equal(seen[-1], nodes)
    assert np.array_equal(got[len(lams) :], node_vals[::7])


@pytest.mark.parametrize("dim", [2, 3])
def test_lam_route_evaluates_slices_and_phi_at_the_nodes_only(dim, disk_bumps, ball_bumps, monkeypatch):
    """boundary_slices and spherical_transform evaluate N + 1 lam, and an end lam reads its node value."""
    centered, shifted = disk_bumps if dim == 2 else ball_bumps
    calls = []

    def recording(route):
        def wrapped(*args):
            out = route(*args)
            calls.append((args[1], out))
            return out

        return wrapped

    lams, _ = _affine(legendre_rule(200), 0.0, 24.0)
    grid_route = "_slices_fft" if dim == 2 else "_slices_ktype"
    for f, name in ((shifted, grid_route), (centered, "spherical_phi")):
        monkeypatch.setattr(transforms, name, recording(getattr(transforms, name)))
        calls.clear()
        got = boundary_slices(f, lams) if name == grid_route else spherical_transform(f, lams)
        (nodes, vals), = calls
        omega = 0.5 * (lams[-1] - lams[0]) * f.support_radius
        assert len(nodes) == _pw_degree(omega) + 1 < len(lams)
        if name == "spherical_phi":
            mask = f.support_mask
            vals = np.sum((f.radial_weights() * f.radial_profile())[mask] * vals, axis=1)
        assert np.array_equal(got[[0, -1]], vals[[0, -1]])


@pytest.mark.parametrize("n_lam", [1, 8])
def test_slices_reject_bad_directions(n_lam, disk_bumps):
    f = disk_bumps[1]
    lams = np.linspace(0.5, 4.0, n_lam)
    for bs in ([[2.0, 0.0]], [[1.0, 1e-5]], [[1.0, 0.0, 0.0]], np.ones((2, 1)), np.ones((1, 2, 2))):
        with pytest.raises(TransformUsageError):
            boundary_slices(f, lams, bs)
    # a d-vector is one direction
    assert boundary_slices(f, lams, [0.6, 0.8]).shape == (n_lam, 1)


@pytest.mark.parametrize("dim", [2, 3])
def test_slices_take_a_scalar_lam_as_one_and_reject_2d_lams(dim, disk_bumps, ball_bumps):
    f = (disk_bumps if dim == 2 else ball_bumps)[1]
    bs = np.eye(dim)[:2]
    for dirs in (None, bs):
        one = boundary_slices(f, 1.3, dirs)
        assert one.shape == (1, len(f.boundary) if dirs is None else 2)
        assert np.array_equal(one, boundary_slices(f, [1.3], dirs))
        for lams in (np.ones((2, 2)), [[1.3]], np.ones((1, 3, 1))):
            with pytest.raises(TransformUsageError):
                boundary_slices(f, lams, dirs)


def test_poisson_rejects_points_outside_the_ball(disk_bumps):
    f = disk_bumps[1]
    sl = boundary_slices(f, [1.3])[0]
    for x in ([1.0, 0.0], [0.0, -1.0 + 1e-13], [[0.2, 0.1], [0.8, 0.8]], [np.nan, 0.0]):
        with pytest.raises(GeometryError):
            poisson(sl, f.boundary, 1.3, x)
    assert np.isfinite(poisson(sl, f.boundary, 1.3, [0.3, -0.9]))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_point_within_rounding_of_a_direction_raises_instead_of_nan(disk_bumps):
    """|x|^2 - 2 x.b + 1 rounds to 0 at x = (1 - 1e-11, 0) against b = (1, 0) of disk(256)."""
    f = disk_bumps[1]
    x = np.array([1.0 - 1e-11, 0.0])
    sl = boundary_slices(f, [1.3])[0]
    with pytest.raises(GeometryError, match="not finite"):
        poisson(sl, f.boundary, 1.3, x)
    with pytest.raises(GeometryError, match="not finite"):
        poisson(np.stack([sl, sl]), f.boundary, [1.3, 1.3], [[0.2, 0.1], x])
    with pytest.raises(GeometryError, match="not finite"):
        eigen_equation_residual(f, [1.3], x[None])
    # the point g.0 of the origin case sits there
    with pytest.raises(GeometryError, match="not finite"):
        functional_equation_residual(f, [Isometry.translation(x)], [[0.2, 0.1]], [1.3])
    # a K-orbit of that radius would need ~4e12 points: refused before it is built
    with pytest.raises(TransformUsageError, match="K-orbit"):
        functional_equation_residual(f, [Isometry.identity(2)], x[None], [1.3])


SPHERE_SHAPES = [(n_theta, n_phi) for n_theta in (1, 2, 3, 5, 24) for n_phi in (1, 2, 3, 4, 7, 48)]


@pytest.mark.parametrize("shape", SPHERE_SHAPES + [(1,), (2,), (3,), (4,), (5,)])
def test_folded_fft_slice_matches_dense_on_small_and_odd_grids(shape):
    """Every grid slice route on small and odd grids, each against its oracle.

    ``shape`` is (n,) of a disk grid, where the FFT kernel folded by its
    azimuth reflection is checked against the dense sum of a shifted,
    modulated bump, or (n_theta, n_phi) of a sphere grid.  There real lam
    take the K-type route, exact for samples of angular degree <= l_max =
    min(n_theta - 1, (n_phi - 1) // 2): a centred bump modulated along the
    polar axis has degree 1 (0 unmodulated, on the grids with l_max = 0),
    and its slice is checked against the dense sum of the same bump on
    sphere(32, 64), which resolves the kernel's harmonics to
    tanh(1/2)^63 < 1e-21.  Complex lam take the Chebyshev route, the grid's
    own sum, checked against the dense sum on the grid.
    """
    boundary = BoundaryGrid.sphere(*shape) if len(shape) == 2 else BoundaryGrid.disk(*shape)
    dim = boundary.dim
    assert boundary.layout is not None
    lams = [0.0, 2.7, 1.9 - 3.0j, 4.2 + 1.1j]
    if dim == 2:
        center = Isometry.translation([0.2, 0.5])
        spec = BumpSpec(dim=2, radius=1.0, center=center_along([0.0, 1.0], center), alpha=0.6)
    else:
        l_max = min(shape[0] - 1, (shape[1] - 1) // 2)
        spec = BumpSpec(dim=3, radius=1.0, center=center_along([0.0, 0.0, 1.0]), alpha=0.6 if l_max else 0.0)
    radial = RadialGrid.gauss_legendre(8, spec.support_radius + 0.5)
    f = sample_bump(spec, radial, boundary)
    fast = boundary_slices(f, lams)
    dense, _ = dense_slice(f, lams, boundary.directions)
    if dim == 3:
        fine = sample_bump(spec, radial, BoundaryGrid.sphere(32, 64))
        dense[:2] = dense_slice(fine, lams[:2], boundary.directions)[0]
    assert np.max(np.abs(fast - dense)) <= 1e-12 * np.max(np.abs(dense))


@pytest.mark.parametrize("boundary", [BoundaryGrid.disk(4)], ids=["disk"])
def test_fft_slice_over_several_row_chunks_matches_dense(boundary):
    """Support rows filling three radial-row chunks of the FFT slice, minus and plus one row.

    A chunk holds BLOCK // m rows; few directions keep the dense oracle
    small while the chunks stay a few rows long.  The samples are random
    and bounded away from zero, so every row carries weight.
    """
    from ballfourier.geometry import BLOCK

    step = BLOCK // len(boundary)
    rng = np.random.default_rng(23)
    lams = [2.7, 1.9 - 0.5j]
    for n_r in (3 * step - 1, 3 * step, 3 * step + 1):
        f = _random_samples(n_r, boundary, rng)
        fast = boundary_slices(f, lams)
        dense, _ = dense_slice(f, lams, boundary.directions)
        assert np.max(np.abs(fast - dense)) <= 1e-12 * np.max(np.abs(dense))


@pytest.mark.parametrize(
    "shift, alpha, radius, bounds",
    [(0.4, 0.6, 1.0, (1e-5, 1e-5, 1e-3, 4e-3)), (0.3, 0.6, 1.2, (1e-7, 1e-7, 1e-4, 4e-3))],
    ids=["jeft-equivalence", "functional-equation"],
)
def test_ktype_slice_matches_a_fine_resample(shift, alpha, radius, bounds):
    """K-type slices on the 24 x 48 sphere against the same bump sampled on 96 x 192.

    The reference is the Chebyshev route's sum over the fine grid at 16 of
    the coarse grid's directions, for lam 0.5, 2, 10 and 20.  The coarse
    route truncates the samples to degree 23; the grid's own sum (the dense
    oracle at the same directions) also aliases the kernel's angular
    bandwidth, about lam sinh r.  Measured errors relative to max |reference|:
    2.7e-6, 3.3e-6, 2.0e-4, 9.8e-4 (jeft-equivalence bump) and 1.5e-8,
    3.0e-8, 4.7e-5, 1.0e-3 (functional-equation bump), against 2.8e-2 and
    1.4e-1 for the grid's own sum at lam = 20.  The bounds are those
    measurements rounded up to the next power of ten (the last to 4e-3).
    Below lam = 20 both errors are the samples' own truncation: the route
    read at most 0.5% above the grid's own sum (4.66e-5 against 4.64e-5),
    and may not read more than 2% above it.
    """
    center = Isometry.translation([np.tanh(0.5 * shift), 0.0, 0.0])
    spec = BumpSpec(dim=3, radius=radius, center=center_along([0.3, 0.5, 0.8], center), alpha=alpha)
    radial = RadialGrid.gauss_legendre(32, spec.support_radius)
    coarse = BoundaryGrid.sphere(24, 48)
    f = sample_bump(spec, radial, coarse)
    idx = np.random.default_rng(5).choice(len(coarse), 16, replace=False)
    lams = np.array([0.5, 2.0, 10.0, 20.0])
    fine = sample_bump(spec, radial, BoundaryGrid.sphere(96, 192))
    ref = _slices_chebyshev(fine, lams.astype(complex), coarse.directions[idx])
    scale = np.max(np.abs(ref), axis=1)
    err = np.max(np.abs(boundary_slices(f, lams)[:, idx] - ref), axis=1) / scale
    grid_sum_err = np.max(np.abs(dense_slice(f, lams, coarse.directions[idx])[0] - ref), axis=1) / scale
    assert np.all(err <= np.array(bounds))
    assert np.all(err <= grid_sum_err * 1.02)


def test_ktype_rule_matches_a_rule_of_twice_the_degree(ball_bumps, monkeypatch):
    """The Funk-Hecke recurrence is converged at its start: doubling the start degree moves no slice.

    The start is the _orbit_degree shared with the K-orbit rule.  Against
    the K-type terms' magnitudes (ktype_terms_magnitude), at lam up to 60 on
    the shifted ball bump (support radius 1.6).
    """
    f = ball_bumps[1]
    lams = np.array([0.0, 0.5, 3.0, 12.0, 30.0, 60.0])
    got = _slices_ktype(f, lams)
    doubled_calls = []

    def doubled_degree(tau, lam):
        doubled_calls.append(np.shape(lam))
        return 2 * _orbit_degree(tau, lam)

    monkeypatch.setattr(transforms, "_orbit_degree", doubled_degree)
    doubled = _slices_ktype(f, lams)
    assert doubled_calls == [(len(lams), 1)]
    assert np.all(np.abs(got - doubled) <= 1e-14 * ktype_terms_magnitude(f))


def _mpmath_funk_hecke(lam: float, r: float, l: int) -> complex:
    """k_l(lam, r) in d = 3 by mpmath (20 digits) in the Busemann value A.

    With u = 1 - expm1(r - A) / (e^r sinh r), k_l = 1/2 int psi P_l du =
    1 / (2 sinh r) int_{-r}^{r} e^{-i lam A} P_l(u(A)) dA, an entire
    integrand, split into panels of at most two oscillations.
    """
    import mpmath

    with mpmath.workdps(20):
        sinh, grow = mpmath.sinh(r), mpmath.exp(r) * mpmath.sinh(r)
        integrand = lambda a: mpmath.exp(-1j * lam * a) * mpmath.legendre(l, 1 - mpmath.expm1(r - a) / grow)
        panels = mpmath.linspace(-r, r, int(np.ceil(lam * r / 2.0)) + 5)
        return complex(mpmath.quad(integrand, panels) / (2 * sinh))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("lam, r", [(2.0, 1.0), (20.0, 2.5), (40.0, 3.0), (np.pi, 1.0), (0.0, 1e-3), (5.0, 1e-3)])
def test_funk_hecke_matches_mpmath_in_d3(lam, r):
    """k_l(lam, r), l in {0, 5, 23}, against mpmath, relative to sum |k_l| over every l to the start degree.

    Measured within 8.4e-16 (and 7e-16 absolute).  At lam r = pi, k_0 =
    phi_lam(r) vanishes; at r = 1e-3 the start degree (5 and 6) lies below
    l_max = 23, which then starts the recurrence.
    """
    radii = np.array([r])
    k = _funk_hecke(3, [lam], radii, 23)[0, 0]
    scale = np.sum(np.abs(_funk_hecke(3, [lam], radii, int(_orbit_degree(np.tanh(0.5 * r), lam)))))
    for l in (0, 5, 23):
        assert abs(k[l] - _mpmath_funk_hecke(lam, r, l)) <= 1e-14 * scale, l


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("lam", [0.0, 0.7, 5.0, 20.0, 40.0])
def test_funk_hecke_matches_the_kernels_fft_in_d2(lam):
    """The d = 2 coefficients are the Fourier coefficients of psi(cos t) = (cosh r - cos t sinh r)^-s.

    The reference is the FFT of psi on 2^16 angles, with the base as
    1 + 2 sinh(r/2)^2 - cos t sinh r through log1p, against the first 41
    coefficients (l_max = 40 lies above the start degree at r <= 0.1), relative
    to the sum of |k_m| over every mode.  Measured within 2.9e-15 (5.7e-15
    with the base cosh r - cos t sinh r rounded directly, whose rounding
    the phase multiplies by lam); r = pi / lam is a zero of k_0 only in
    d = 3.
    """
    n = 2**16
    cos = np.cos(2.0 * np.pi * np.arange(n) / n)
    for r in (1e-3, 0.1, 1.0, 2.0, 3.0) + ((np.pi / lam,) if lam else ()):
        psi = np.exp(-(-1j * lam + 0.5) * np.log1p(2.0 * np.sinh(0.5 * r) ** 2 - cos * np.sinh(r)))
        ref = np.fft.fft(psi) / n
        k = _funk_hecke(2, [lam], np.array([r]), 40)[0, 0]
        assert np.max(np.abs(k - ref[:41])) <= 1e-14 * np.sum(np.abs(ref)), r


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("dim", [2, 3])
def test_funk_hecke_k0_is_the_spherical_function_and_each_entry_its_own(dim):
    """k_0 = phi_lam(r) within 1e-14 of sum |k_l|, and a batch reads every (lam, r) as it reads alone, bit for bit.

    lam = 0, r = 1e-3 and lam r = pi (a zero of phi_lam in d = 3) are among
    the cases; k_0 measured within 1.9e-15 of sum |k_l|.
    """
    lams = np.array([0.0, 0.5, np.pi, 12.0, 30.0, 60.0])
    radii = np.array([1e-3, 0.05, 0.5, 1.0, 2.0, 3.0])
    k = _funk_hecke(dim, lams, radii, int(np.max(_orbit_degree(np.tanh(0.5 * radii), lams[:, None]))))
    assert np.all(np.abs(k[..., 0] - spherical_phi(dim, lams, radii)) <= 1e-14 * np.sum(np.abs(k), axis=-1))
    batch = _funk_hecke(dim, lams, radii, 23)
    for i, lam in enumerate(lams):
        for j, r in enumerate(radii):
            assert np.array_equal(_funk_hecke(dim, [lam], radii[j : j + 1], 23)[0, 0], batch[i, j])


def test_sampling_and_slice_memory_stay_within_a_multiple_of_the_samples():
    """Traced peaks of sample_bump and of a 6-lam grid slice on the pw-recovery d=3 grid.

    128 radial nodes on the support and the 24 x 48 sphere: 2.25 MiB of
    samples.  With every temporary in blocks of BLOCK entries the peaks
    measured 4.6 (sample_bump) and 3.0 (boundary_slices) times the samples'
    bytes; with whole-array temporaries they were 9.1 and 23.  Both must
    stay under 6 times.
    """
    import tracemalloc

    spec = BumpSpec(dim=3, radius=1.0, center=Isometry.translation([np.tanh(0.15), 0.0, 0.0]), alpha=0.3)
    radial = RadialGrid.from_legendre(legendre_rule(128), spec.support_radius)
    boundary = BoundaryGrid.sphere(24, 48)
    lams = np.linspace(0.5, 3.0, 6)
    tracemalloc.start()
    try:
        f = sample_bump(spec, radial, boundary)
        sampled = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        boundary_slices(f, lams)
        sliced = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert f.values.nbytes == 128 * 1152 * 16
    assert sampled <= 6 * f.values.nbytes
    assert sliced <= 6 * f.values.nbytes


def test_rotated_grid_takes_chebyshev_route():
    """A grid without a layout takes the explicit-direction route, checked against the dense oracle.

    Both a rotated sphere grid and a copy of one built by hand carry no
    layout, so both are summed over their own directions.
    """
    spec = BumpSpec(dim=3, radius=1.0, center=Isometry.translation([0.3, 0.1, -0.2]), alpha=0.5)
    radial, boundary = ball_setup(n_r=24, r_max=3.0, n_theta=6, n_phi=10)
    rot = random_rotation(np.random.default_rng(8), 3)
    rotated = BoundaryGrid(3, boundary.directions @ rot.matrix.T, boundary.weights)
    copy = BoundaryGrid(3, boundary.directions.copy(), boundary.weights.copy())
    lams = [0.7, 2.0 - 1.0j]
    for grid in (rotated, copy):
        assert grid.layout is None
        f = sample_bump(spec, radial, grid)
        got = boundary_slices(f, lams)
        assert np.array_equal(got, _slices_chebyshev(f, np.array(lams, dtype=complex), grid.directions))
        ref, scale = dense_slice(f, lams, grid.directions)
        assert np.all(np.abs(got - ref) <= 1e-13 * scale)


def test_linearity_of_forward_transform(disk_bumps):
    centered, shifted = disk_bumps
    h = sampled_sum(centered, shifted)
    b = np.array([0.0, 1.0])
    for lam in (1.1,):
        lhs = helgason_forward(h, lam, b)
        rhs = helgason_forward(centered, lam, b) + helgason_forward(shifted, lam, b)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


@pytest.mark.parametrize("a,b,type_", [(0.0, 40.0, 5.0), (3.0, 11.0, 2.0), (36.0, 40.0, 4.1)])
def test_pw_rule_integrates_degree_n_times_lam_squared_exactly(a, b, type_):
    """ceil((N + 3) / 2) nodes integrate T_N(x) lam^2, degree N + 2, exactly; one node fewer does not."""
    n_deg = _pw_degree(0.5 * (b - a) * type_)
    lams, weights = _pw_rule(a, b, type_, 3)
    assert len(lams) == -(-(n_deg + 3) // 2)

    def integrand(lam):
        x = (lam - 0.5 * (a + b)) / (0.5 * (b - a))
        return np.polynomial.chebyshev.chebval(x, np.eye(n_deg + 1)[n_deg]) * plancherel_density_table(3, lam)

    ref_lams, ref_weights = _affine(legendre_rule(n_deg + 8), a, b)
    exact = np.sum(ref_weights * integrand(ref_lams))
    scale = b**3 - a**3
    assert abs(np.sum(weights * integrand(lams)) - exact) <= 1e-13 * scale
    short = _affine(legendre_rule(len(lams) - 1), a, b)
    assert abs(np.sum(short[1] * integrand(short[0])) - exact) > 1e-6 * scale


@pytest.mark.parametrize("dim", [2, 3])
def test_pw_rule_integrates_type_t_waves_against_the_density(dim):
    """cos(T lam) |c|^-2 over [0, 40], T = 5, to rounding against a 300-node rule in both dimensions.

    Measured within 2.1e-15 of the integral of |c|^-2; a 60-node rule is off by 3.6e-6 (d = 3).
    """
    lams, weights = _pw_rule(0.0, 40.0, 5.0, dim)
    ref_lams, ref_weights = _affine(legendre_rule(300), 0.0, 40.0)

    def integral(lam, w):
        return np.sum(w * np.cos(5.0 * lam) * plancherel_density_table(dim, lam))

    scale = np.sum(ref_weights * plancherel_density_table(dim, ref_lams))
    assert abs(integral(lams, weights) - integral(ref_lams, ref_weights)) <= 1e-13 * scale


def test_pw_rule_d2_resolves_the_density_poles():
    """pi lam tanh(pi lam) has poles at +-i/2: on [0, 24] d = 2 takes more nodes than the type asks."""
    lams, weights = _pw_rule(0.0, 24.0, 4.8, 2)
    assert len(lams) > len(_pw_rule(0.0, 24.0, 4.8, 3)[0])
    ref_lams, ref_weights = _affine(legendre_rule(2000), 0.0, 24.0)
    exact = np.sum(ref_weights * plancherel_density_table(2, ref_lams) * np.exp(-0.1 * ref_lams**2))
    got = np.sum(weights * plancherel_density_table(2, lams) * np.exp(-0.1 * lams**2))
    assert abs(got - exact) <= 1e-14 * abs(exact)


@pytest.fixture(scope="module")
def inversion_cases():
    """The inversion profiles' bumps (the d = 2 one shifted by 0.4) at three points each, with lam_max."""
    c = Isometry.translation([np.tanh(0.2), 0.0])
    f2 = sample_bump(BumpSpec(dim=2, radius=2.0, center=c), RadialGrid.gauss_legendre(128, 6.5), BoundaryGrid.disk(160))
    xs2 = np.array([apply_array(c, polar_to_point(s, np.array([np.cos(t), np.sin(t)])).coords)
                    for s, t in ((0.2, 0.3), (0.8, 2.0), (1.2, 4.0))])
    f3 = sample_bump(BumpSpec(dim=3, radius=2.5), RadialGrid.gauss_legendre(192, 7.5), BoundaryGrid.sphere(8, 16))
    xs3 = np.array([polar_to_point(s, np.array([0.6, 0.0, 0.8])).coords for s in (0.0, 0.5, 1.6)])
    return {2: (f2, xs2, 24.0), 3: (f3, xs3, 40.0)}


@pytest.mark.parametrize("dim", [2, 3])
def test_invert_tail_and_values_against_dense_rules(dim, inversion_cases):
    """The tail fraction is the sub-integral over [0.9 lam_max, lam_max]; the values match a 300-node rule.

    Reference tail: 1000-node rules on each sub-interval.  The inversion
    profiles measured within 0.6% of it (the 200/300-node masks these rules
    replaced read 1.2% and 2.0% off a 2000-node rule), and within 4.5e-14
    of the values of one 300-node rule on [0, lam_max].
    """
    f, xs, lam_max = inversion_cases[dim]
    results = invert(f, xs, lam_max)
    parts = []
    for a, b in ((0.0, 0.9 * lam_max), (0.9 * lam_max, lam_max)):
        lams, weights = _affine(legendre_rule(1000), a, b)
        parts.append(jeft_grid(f, lams, xs) * (weights * plancherel_density_table(dim, lams))[:, None])
    head, tail = (np.sum(np.abs(p), axis=0) for p in parts)
    lams, weights = _affine(legendre_rule(300), 0.0, lam_max)
    values = KAPPA * np.sum(jeft_grid(f, lams, xs) * (weights * plancherel_density_table(dim, lams))[:, None], axis=0)
    for res, t, v in zip(results, tail / (head + tail), values):
        assert res.tail_fraction == pytest.approx(t, rel=2e-2)
        assert abs(res.value - v) <= 5e-13 * abs(v)


@pytest.mark.parametrize("dim", [2, 3])
def test_plancherel_rhs_matches_a_300_node_rule(dim, inversion_cases):
    """Measured within 1.6e-14 relative on the plancherel profiles' bumps."""
    f, _, lam_max = inversion_cases[dim]
    rep = plancherel_residual(f, lam_max)
    assert np.array_equal(rep.lams, _pw_rule(0.0, lam_max, 2.0 * f.support_radius, dim)[0])
    lams, weights = _affine(legendre_rule(300), 0.0, lam_max)
    if f.is_radial():
        norms = np.abs(spherical_transform(f, lams)) ** 2
    else:
        norms = (np.abs(boundary_slices(f, lams)) ** 2) @ f.boundary.weights
    rhs = np.sum(weights * plancherel_density_table(dim, lams) * norms)
    assert abs(rep.rhs - rhs) <= 1e-13 * rhs


def test_kappa_calibration_matches_analytic_value():
    k2 = calibrate_kappa()
    assert abs(k2 - KAPPA) <= 1e-3 * KAPPA


def test_invert_zero_function():
    radial, boundary = disk_setup(32, 5.0, 32)
    f = zero_function(2, radial, boundary)
    res, = invert(f, [[0.1, 0.0]], 8.0)
    assert res.value == 0


def test_invert_centered_bump_d3_at_origin():
    radial = RadialGrid.gauss_legendre(192, 7.5)
    boundary = BoundaryGrid.sphere(8, 16)
    f = sample_bump(BumpSpec(dim=3, radius=2.5), radial, boundary)
    res, = invert(f, np.zeros((1, 3)), 40.0)
    truth = np.exp(-1.0)
    assert abs(res.value - truth) / truth <= 1e-3
    assert res.tail_fraction <= 5e-3


def test_invert_shifted_bump_d2():
    radial = RadialGrid.gauss_legendre(96, 6.5)
    boundary = BoundaryGrid.disk(128)
    spec = BumpSpec(dim=2, radius=2.0, center=Isometry.translation([0.2, 0.1]))
    f = sample_bump(spec, radial, boundary)
    rng = np.random.default_rng(5)
    for _ in range(2):
        w = rng.standard_normal(2)
        w /= np.linalg.norm(w)
        x = apply_array(spec.center, polar_to_point(rng.uniform(0.0, 0.6) * 2.0, w).coords)
        truth = float(spec(x))
        res, = invert(f, x[None], 18.0)
        assert abs(res.value - truth) / truth <= 1e-2


def test_invert_on_point_array_matches_per_point(disk_bumps):
    f = disk_bumps[1]
    xs = np.array([[0.1, 0.2], [-0.4, 0.5]])
    results = invert(f, xs, 8.0)
    assert len(results) == len(xs)
    for x, res in zip(xs, results):
        one, = invert(f, x[None], 8.0)
        # batched and single-row products may round differently
        assert abs(res.value - one.value) <= 1e-13 * abs(one.value)
        assert res.tail_fraction == pytest.approx(one.tail_fraction, rel=1e-12)


def test_invert_reports_truncation_for_tiny_spectral_range():
    radial = RadialGrid.gauss_legendre(96, 6.5)
    boundary = BoundaryGrid.disk(32)
    f = sample_bump(BumpSpec(dim=2, radius=2.0), radial, boundary)
    res, = invert(f, np.zeros((1, 2)), 1.0)
    assert res.tail_fraction > 5e-3
    assert abs(res.value - np.exp(-1.0)) / np.exp(-1.0) > 1e-2


def test_plancherel_d3_centered():
    radial = RadialGrid.gauss_legendre(192, 7.5)
    boundary = BoundaryGrid.sphere(8, 16)
    f = sample_bump(BumpSpec(dim=3, radius=2.5), radial, boundary)
    rep = plancherel_residual(f, 40.0)
    assert rep.residual <= 1e-3
    assert abs(rep.kappa_implied - KAPPA) <= 0.01 * KAPPA


@pytest.mark.parametrize("shift", [0.0, 0.4], ids=["modulated", "shifted-modulated"])
def test_plancherel_d3_non_radial(shift):
    """Plancherel on the plancherel-d3 profile grid (76 support nodes, 8 x 16 sphere, lam_max 40) off the radial case.

    The bump of radius 2.5 with alpha 0.5, centred or shifted by 0.4, held
    to the scenario's 1e-3.  Measured 3.1e-9 and 1.6e-6; the grid's own
    slice sum, which aliases the kernel's angular bandwidth on this grid,
    read 135.7 and 140.0.
    """
    center = Isometry.translation([np.tanh(0.5 * shift), 0.0, 0.0])
    spec = BumpSpec(dim=3, radius=2.5, center=center, alpha=0.5)
    f = sample_bump(spec, RadialGrid.from_legendre(legendre_rule(76), spec.support_radius), BoundaryGrid.sphere(8, 16))
    rep = plancherel_residual(f, 40.0)
    assert rep.residual <= 1e-3
    assert abs(rep.kappa_implied - KAPPA) <= 0.01 * KAPPA


def test_plancherel_d2_shifted_modulated():
    radial = RadialGrid.gauss_legendre(96, 6.5)
    boundary = BoundaryGrid.disk(128)
    f = sample_bump(
        BumpSpec(dim=2, radius=2.0, center=Isometry.translation([0.2, 0.1]), alpha=0.5),
        radial,
        boundary,
    )
    rep = plancherel_residual(f, 18.0)
    assert rep.residual <= 1e-2
    assert abs(rep.kappa_implied - KAPPA) <= 0.01 * KAPPA


def test_plancherel_zero_function():
    radial, boundary = disk_setup(32, 5.0, 32)
    rep = plancherel_residual(zero_function(2, radial, boundary), 8.0)
    assert rep.lhs == 0.0 and rep.rhs == 0.0


def test_kaverage_bridge_identity_case():
    """On a rule fitted to the support, the identity's K-average keeps the input's rule, so both sides agree."""
    spec = BumpSpec(dim=2, radius=1.5)
    f = sample_bump(spec, RadialGrid.gauss_legendre(36, spec.support_radius), BoundaryGrid.disk(256))
    res = kaverage_bridge_residual(f, Isometry.identity(2), 8.0)
    assert res <= 1e-9


def test_kaverage_bridge_d2_nodes_follow_the_type_alone(disk_bumps, monkeypatch):
    """The bridge integrates no density, so d = 2 takes the type's count, not the count raised for the poles."""
    f = disk_bumps[0]
    counts = []
    grid = transforms.jeft_grid
    monkeypatch.setattr(transforms, "jeft_grid", lambda f, lams, x: counts.append(len(lams)) or grid(f, lams, x))
    kaverage_bridge_residual(f, Isometry.identity(2), 8.0)
    assert counts == [transforms._pw_count(0.0, 8.0, f.support_radius, 3)]
    assert counts[0] < transforms._pw_count(0.0, 8.0, f.support_radius, 2)


def test_kaverage_bridge_random_isometry_d2():
    # no cancellation between the two sides here: the root-exponential radial
    # error of the bump must itself sit below the tolerance
    radial = RadialGrid.gauss_legendre(256, 5.0)
    boundary = BoundaryGrid.disk(256)
    f = sample_bump(
        BumpSpec(dim=2, radius=1.0, center=Isometry.translation([0.25, 0.1])),
        radial,
        boundary,
    )
    rng = np.random.default_rng(21)
    g = random_isometry(rng, 2, max_shift=0.5)
    res = kaverage_bridge_residual(f, g, 8.0)
    assert res <= 1e-5


def test_kaverage_bridge_random_isometries_d3():
    # 1.0e-6 and 1.8e-6 measured on this grid
    spec = BumpSpec(dim=3, radius=1.0, center=Isometry.translation([np.tanh(0.25), 0.0, 0.0]))
    f = sample_bump(spec, RadialGrid.gauss_legendre(128, 5.5), BoundaryGrid.sphere(16, 32))
    rng = np.random.default_rng(21)
    for _ in range(2):
        assert kaverage_bridge_residual(f, random_isometry(rng, 3, max_shift=0.5), 6.0) <= 1e-5


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("lam_max", [0.0, -1.0, np.inf, np.nan])
def test_spectral_calls_reject_a_lam_max_without_interval(dim, lam_max):
    boundary = BoundaryGrid.disk(16) if dim == 2 else BoundaryGrid.sphere(4, 8)
    f = sample_bump(BumpSpec(dim=dim, radius=1.0), RadialGrid.gauss_legendre(16, 3.0), boundary)
    with pytest.raises(TransformUsageError, match="lam_max"):
        invert(f, np.zeros((1, dim)), lam_max)
    with pytest.raises(TransformUsageError, match="lam_max"):
        plancherel_residual(f, lam_max)
    with pytest.raises(TransformUsageError, match="lam_max"):
        kaverage_bridge_residual(f, Isometry.identity(dim), lam_max)


def test_functional_equation_trivial_at_origin(disk_bumps):
    f = disk_bumps[1]
    g = Isometry.translation([0.3, 0.2])
    res = functional_equation_residual(f, [g], np.zeros((1, 2)), [1.4])
    assert res.shape == (1,) and res[0] <= 1e-10


def test_functional_equation_identity_map_radial(disk_bumps):
    f = disk_bumps[0]
    res = functional_equation_residual(f, [Isometry.identity(2)], [[0.35, 0.1]], [1.0])
    assert res[0] <= 1e-6


@pytest.mark.parametrize("dim", [2, 3])
def test_functional_equation_random(dim, disk_bumps, ball_bumps):
    f = disk_bumps[1] if dim == 2 else ball_bumps[1]
    rng = np.random.default_rng(9)
    gs, xs, lams = [], [], []
    for _ in range(2):
        gs.append(random_isometry(rng, dim, max_shift=0.4))
        w = rng.standard_normal(dim)
        w /= np.linalg.norm(w)
        xs.append(polar_to_point(rng.uniform(0.2, 0.8), w).coords)
        lams.append(rng.uniform(0.5, 2.5))
    assert np.all(functional_equation_residual(f, gs, np.array(xs), np.array(lams)) <= 1e-5)


@pytest.mark.parametrize("dim", [2, 3])
def test_functional_equation_arrays_match_scalar_calls_bit_for_bit(dim, disk_bumps, ball_bumps):
    f = disk_bumps[1] if dim == 2 else ball_bumps[1]
    rng = np.random.default_rng(12)
    gs = [random_isometry(rng, dim, max_shift=0.4) for _ in range(3)]
    w = rng.standard_normal((3, dim))
    xs = np.tanh(0.5 * np.array([0.3, 0.8, 0.0]))[:, None] * w / np.linalg.norm(w, axis=1, keepdims=True)
    lams = np.array([0.6, 2.2, 1.3])
    got = functional_equation_residual(f, gs, xs, lams)
    ref = [functional_equation_residual(f, [g], x[None], [lam])[0] for g, x, lam in zip(gs, xs, lams)]
    assert got.shape == (3,) and np.array_equal(got, ref)
    assert np.array_equal(functional_equation_residual(f, gs[1], xs[1], lams[1]), got[1:2])
    assert np.all(got <= 1e-5)
    if dim == 2:
        # the disk weights sum to 1 exactly, and the origin case reads the one point g.0
        assert got[2] == 0.0
    with pytest.raises(TransformUsageError):
        functional_equation_residual(f, gs[:2], xs, lams)
    with pytest.raises(TransformUsageError):
        functional_equation_residual(f, gs, xs, lams[:2])


def _orbit_average(f, sl, lam, g, tau, orbit):
    """Weighted sum of the Poisson transform over g . (tau orbit), and the sum of its terms' magnitudes."""
    terms = orbit.weights * poisson(sl, f.boundary, lam, apply_array(g, tau * orbit.directions))
    return np.sum(terms), np.sum(np.abs(terms))


@pytest.fixture(scope="module")
def orbit_bumps():
    """Shifted bumps on small input grids: disk(64) and sphere(12, 24) are too coarse as a K-orbit at r = 1.6."""
    radial = RadialGrid.gauss_legendre(48, 1.6)
    return {
        dim: sample_bump(
            BumpSpec(dim=dim, radius=1.0, center=Isometry.translation([0.25, 0.1, -0.1][:dim]), alpha=0.6),
            radial,
            BoundaryGrid.disk(64) if dim == 2 else BoundaryGrid.sphere(12, 24),
        )
        for dim in (2, 3)
    }


@pytest.mark.parametrize("dim", [2, 3])
def test_orbit_rule_matches_a_rule_of_twice_the_degree(dim, orbit_bumps):
    """The K-orbit rule against one of degree 2L, relative to the sum of the terms' magnitudes.

    Measured at most 2.8e-14 in d = 3 and 2.2e-15 in d = 2 over four random
    isometries; the input grid as the orbit misses by up to 0.12 at r = 1.6.
    """
    f = orbit_bumps[dim]
    g = random_isometry(np.random.default_rng(1), dim, max_shift=0.4)
    for lam in (1.0, 5.0, 10.0):
        sl = boundary_slices(f, [lam])[0]
        for r in (0.3, 0.9, 1.6):
            tau = np.tanh(0.5 * r)
            L = int(np.ceil((52.0 * np.log(2.0) + 0.5 * np.pi * lam) / -np.log(tau)))
            rule = transforms._orbit_rule(dim, tau, lam)
            assert len(rule) == (L + 1 if dim == 2 else (L // 2 + 1) * (L + 1))
            got, scale = _orbit_average(f, sl, lam, g, tau, rule)
            ref_rule = BoundaryGrid.disk(2 * L + 1) if dim == 2 else BoundaryGrid.sphere(L + 1, 2 * L + 1)
            ref, _ = _orbit_average(f, sl, lam, g, tau, ref_rule)
            assert abs(got - ref) <= 1e-13 * scale, (r, lam)


@pytest.mark.parametrize("dim", [2, 3])
def test_functional_equation_holds_outside_the_scenario_range(dim, orbit_bumps):
    """r = 1.6 with lam up to 10, beyond the scenario's r <= 0.9 and lam <= 2.8.

    Measured at most 8.0e-14 here and 6.1e-13 over four other random
    isometries.  With the input grid as the K-orbit it fails in both
    dimensions: disk(64) and sphere(12, 24) miss the orbit average by up to
    1.7e-6 and 0.12 of the sum of the terms' magnitudes at lam = 10.
    """
    f = orbit_bumps[dim]
    rng = np.random.default_rng(2)
    gs = [random_isometry(rng, dim, max_shift=0.4) for _ in range(3)]
    w = rng.standard_normal((3, dim))
    xs = np.tanh(0.8) * w / np.linalg.norm(w, axis=1, keepdims=True)
    res = functional_equation_residual(f, gs, xs, [1.0, 5.0, 10.0])
    assert np.all(res <= 1e-11), res


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("dim", [2, 3])
def test_residuals_check_their_points_before_any_work(dim, monkeypatch, disk_bumps, ball_bumps):
    f = disk_bumps[1] if dim == 2 else ball_bumps[1]

    def no_slices(*args):
        raise AssertionError("boundary_slices ran before the points were checked")

    monkeypatch.setattr(transforms, "boundary_slices", no_slices)
    for x in (np.eye(dim)[:1] * 1.2, np.array([[np.nan] + [0.1] * (dim - 1)])):
        with pytest.raises(GeometryError, match="inside the unit ball"):
            functional_equation_residual(f, [Isometry.identity(dim)], x, [1.3])
        with pytest.raises(GeometryError, match="inside the unit ball"):
            eigen_equation_residual(f, [1.3], x)


@pytest.mark.parametrize("dim", [2, 3])
def test_asymptotic_limit_decreasing_and_small(dim):
    radial = RadialGrid.gauss_legendre(128, 12.0)
    boundary = BoundaryGrid.disk(64) if dim == 2 else BoundaryGrid.sphere(12, 24)
    f = sample_bump(BumpSpec(dim=dim, radius=2.0), radial, boundary)
    rep = asymptotic_limit_residual(f, 2.0 - 0.35j, np.eye(dim)[0], (6.0, 8.0, 10.0))
    assert np.all(np.diff(rep.residuals) < 0)
    assert rep.residuals[-1] <= 1e-3 * rep.target_magnitude


def test_asymptotic_limit_zero_function():
    radial, boundary = disk_setup(32, 12.0, 16)
    f = zero_function(2, radial, boundary)
    rep = asymptotic_limit_residual(f, 1.5, [1.0, 0.0], (6.0, 8.0))
    assert np.all(rep.residuals == 0)


@pytest.mark.parametrize("dim,lam,eig", [(3, 1.0, -2.0), (2, 2.0, -4.25)])
def test_eigen_equation_for_transform_output(dim, lam, eig, disk_bumps, ball_bumps):
    from ballfourier.spectral import eigenvalue_of

    assert eigenvalue_of(dim, lam) == pytest.approx(eig)
    f = disk_bumps[1] if dim == 2 else ball_bumps[1]
    x = polar_to_point(1.0, np.eye(dim)[0])
    chk, = eigen_equation_residual(f, [lam], x.coords[None])
    assert not chk.skipped
    assert chk.residual <= 1e-4


def test_eigen_equation_holds_for_rough_input():
    """The Poisson transform of any boundary slice is an eigenfunction, smooth input or not."""
    radial, boundary = disk_setup()
    f = sample_bump(BumpSpec(dim=2, radius=1.0, profile="indicator"), radial, boundary)
    chk, = eigen_equation_residual(f, [1.0], polar_to_point(1.0, np.eye(2)[0]).coords[None])
    assert not chk.skipped
    assert chk.residual <= 1e-4


@pytest.mark.parametrize("dim", [2, 3])
def test_eigen_equation_exact_kernel_control(dim):
    """The horocycle wave and phi_lam(dist(., y)) are exact eigenfunctions, with
    no quadrature error: the stencil holds at omega along the diagonal, along
    each coordinate axis (the d = 3 poles included) and along random directions."""
    rho = 0.5 * (dim - 1)
    rng = np.random.default_rng(8)
    b = np.eye(dim)[0]
    y = polar_to_point(1.0, -np.ones(dim) / np.sqrt(dim)).coords

    def wave(pts):
        return np.exp((1j * 1.3 + rho) * busemann_field(np.atleast_2d(pts), b[None, :])[:, 0])

    def phi(pts):
        return spherical_phi(dim, 0.7, pairwise_dist(np.atleast_2d(pts), y[None, :])[:, 0])

    x = polar_to_point(0.8, np.ones(dim) / np.sqrt(dim))
    assert laplace_beltrami_residual(wave, dim, 1.3, x).residual <= 1e-6
    randoms = rng.standard_normal((4, dim))
    omegas = [*np.eye(dim), *-np.eye(dim), *(randoms / np.linalg.norm(randoms, axis=1, keepdims=True))]
    for omega in omegas:
        for r in (0.5, 1.5, 3.0):
            x = polar_to_point(r, omega)
            assert laplace_beltrami_residual(wave, dim, 1.3, x).residual <= 1e-6
            assert laplace_beltrami_residual(phi, dim, 0.7, x).residual <= 1e-6


@pytest.mark.parametrize("dim", [2, 3])
def test_eigen_residual_is_not_rounding(dim):
    """A 1-ulp change of the radial weights must not move the worst residual of
    the eigen scenario's seed-1 cases: with a step of 1e-3 the d = 2 one moved
    3.6e-8 -> 2.4e-7."""
    radial = RadialGrid.gauss_legendre(96, 6.0)
    boundary = BoundaryGrid.disk(256) if dim == 2 else BoundaryGrid.sphere(24, 48)
    spec = BumpSpec(dim=dim, radius=1.2, alpha=0.5)
    rng = np.random.default_rng(1)
    cases = [(1.0, 1.0)] + [(rng.uniform(0.6, 2.6), rng.uniform(0.6, 1.8)) for _ in range(4)]
    points = []
    for lam, r in cases:
        w = rng.standard_normal(dim)
        points.append((lam, polar_to_point(r, w / np.linalg.norm(w))))

    def worst(weights):
        f = sample_bump(spec, RadialGrid(radial.nodes, weights, radial.r_max), boundary)
        lams = np.array([lam for lam, _ in points])
        xs = np.array([x.coords for _, x in points])
        return max(chk.residual for chk in eigen_equation_residual(f, lams, xs))

    base = worst(radial.weights)
    for toward in (np.inf, -np.inf):
        assert abs(worst(np.nextafter(radial.weights, toward)) - base) < 0.5 * base


@pytest.mark.parametrize("dim", [2, 3])
def test_eigen_residual_arrays_match_scalar_calls_bit_for_bit(dim, disk_bumps, ball_bumps):
    f = disk_bumps[1] if dim == 2 else ball_bumps[1]
    w = np.random.default_rng(13).standard_normal((3, dim))
    xs = np.tanh(0.5 * np.array([0.7, 1.0, 1.6]))[:, None] * w / np.linalg.norm(w, axis=1, keepdims=True)
    lams = np.array([0.9, 1.0, 2.4])
    got = eigen_equation_residual(f, lams, xs)
    ref = [eigen_equation_residual(f, [lam], x[None])[0] for lam, x in zip(lams, xs)]
    assert got == ref
    assert eigen_equation_residual(f, lams[1], xs[1]) == got[1:2]
    assert all(not chk.skipped and chk.residual <= 1e-4 for chk in got)
    for lam, x in ((lams[:2], xs), (lams, xs[0]), (lams[0], xs)):
        with pytest.raises(TransformUsageError):
            eigen_equation_residual(f, lam, x)


def test_eigen_equation_requires_offset_from_origin(disk_bumps):
    with pytest.raises(TransformUsageError):
        eigen_equation_residual(disk_bumps[0], [1.0], [[0.01, 0.0]])


def test_eigen_equation_skips_vanishing_values():
    radial, boundary = disk_setup(32, 5.0, 32)
    f = zero_function(2, radial, boundary)
    chk, = eigen_equation_residual(f, [1.0], [[0.4, 0.0]])
    assert chk.skipped


def test_jeft_linearity(disk_bumps):
    centered, shifted = disk_bumps
    h = sampled_sum(centered, shifted)
    x = Point([0.3, 0.1])
    lhs = jeft(h, 1.2, x)
    rhs = jeft(centered, 1.2, x) + jeft(shifted, 1.2, x)
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))
