"""Paley-Wiener checks: holomorphy, exponential type, decay."""

from dataclasses import replace

import numpy as np
import pytest

from ballfourier.geometry import Isometry, random_rotation
from ballfourier.grids import BoundaryGrid, BumpSpec, RadialGrid, sample_bump
from ballfourier.paley_wiener import (
    decay_report,
    estimate_type,
    holomorphy_circle_residual,
)
from ballfourier.transforms import TransformRangeError, TransformUsageError, boundary_slices, helgason_forward
from sampling_helpers import dense_slice, zero_function


def dense_disk(radius, shift=0.0, alpha=0.0, profile="smooth", n_r=512):
    center = Isometry.translation([np.tanh(0.5 * shift), 0.0]) if shift else None
    spec = BumpSpec(dim=2, radius=radius, center=center, alpha=alpha, profile=profile)
    radial = RadialGrid.gauss_legendre(n_r, spec.support_radius + 4.0)
    return sample_bump(spec, radial, BoundaryGrid.disk(128))


def dense_ball(radius, shift=0.0, n_r=384):
    # imaginary-axis probing concentrates the kernel in ~1/4-radian angular
    # features; the boundary rule must resolve them
    center = Isometry.translation([np.tanh(0.5 * shift), 0.0, 0.0]) if shift else None
    spec = BumpSpec(dim=3, radius=radius, center=center)
    radial = RadialGrid.gauss_legendre(n_r, spec.support_radius + 4.0)
    return sample_bump(spec, radial, BoundaryGrid.sphere(32, 64))


def test_forward_overflow_guard():
    f = dense_disk(1.0, n_r=64)
    with pytest.raises(TransformRangeError):
        helgason_forward(f, 60.0j, np.array([1.0, 0.0]))
    with pytest.raises(TransformRangeError):
        boundary_slices(f, [1.0, 60.0j])


def test_conjugation_symmetry_for_real_valued_function():
    f = dense_disk(1.2, shift=0.4, n_r=256)
    b = np.array([0.6, 0.8])
    for lam in (0.7 + 0.3j, 2.0 - 0.5j):
        lhs = helgason_forward(f, -np.conj(lam), b)
        rhs = np.conj(helgason_forward(f, lam, b))
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))


def test_holomorphy_circle_mean_value():
    f = dense_disk(1.0, shift=0.3, alpha=0.4, n_r=256)
    b = np.array([0.0, 1.0])
    rng = np.random.default_rng(14)
    centers = [complex(rng.uniform(0.3, 3.0), rng.uniform(-2.0, 2.0)) for _ in range(10)]
    assert np.all(holomorphy_circle_residual(f, np.array(centers), b) <= 1e-8)


@pytest.mark.parametrize("dim", [2, 3])
def test_holomorphy_circle_matches_per_node_forward_loop(dim):
    """Rings and centers of several circles in one slice call against the dense slice oracle.

    The batched call takes the Chebyshev route, so values agree to rounding,
    measured against the sum of the terms' magnitudes sum |c_j e^{z B_j}|.
    """
    if dim == 2:
        f = dense_disk(1.0, shift=0.3, alpha=0.4, n_r=64)
    else:
        spec = BumpSpec(dim=3, radius=1.0, center=Isometry.translation([0.15, 0.0, 0.0]), alpha=0.3)
        f = sample_bump(spec, RadialGrid.gauss_legendre(48, 5.5), BoundaryGrid.sphere(8, 16))
    b = np.eye(dim)[0]
    rng = np.random.default_rng(5)
    centers = np.array([complex(rng.uniform(0.3, 3.0), rng.uniform(-2.0, 2.0)) for _ in range(3)])
    rings = centers[:, None] + 0.1 * np.exp(2j * np.pi * np.arange(32) / 32)
    lams = np.append(rings, centers)
    batched = boundary_slices(f, lams, b[None, :])[:, 0]
    dense, scale = (a[:, 0] for a in dense_slice(f, lams, b[None, :]))
    assert np.all(np.abs(batched - dense) <= 1e-13 * scale)
    expected = np.abs(dense[:-3].reshape(3, 32).mean(axis=1) - dense[-3:])
    for point in (b, b[None, :]):
        got = holomorphy_circle_residual(f, centers, point)
        assert got.shape == (3,)
        assert np.all(np.abs(got - expected) <= 2e-13 * scale[-3:])
        one = holomorphy_circle_residual(f, centers[:1], point)
        assert one.shape == (1,) and one[0] == pytest.approx(got[0], abs=2e-13 * scale[-3])


def test_holomorphy_circle_rejects_several_directions():
    f = dense_disk(1.0, n_r=64)
    one = holomorphy_circle_residual(f, 1.0 + 0.5j, np.array([1.0, 0.0]))
    # a (1, d) array is one direction, as for boundary_slices
    assert np.array_equal(holomorphy_circle_residual(f, 1.0 + 0.5j, np.array([[1.0, 0.0]])), one)
    for bad in (BoundaryGrid.disk(4).directions, np.empty((0, 2)), [1.0, 1e-5], [[2.0, 0.0]], [1.0, 0.0, 0.0]):
        with pytest.raises(TransformUsageError):
            holomorphy_circle_residual(f, 1.0 + 0.5j, bad)


@pytest.mark.parametrize("dim,radius", [(2, 1.0), (2, 2.0), (3, 1.0), (3, 2.0)])
def test_support_radius_recovery_centered(dim, radius):
    f = dense_disk(radius) if dim == 2 else dense_ball(radius)
    est = estimate_type(f)
    assert abs(est.radius_estimate - radius) / radius <= 0.05


@pytest.mark.parametrize("dim", [2, 3])
def test_support_radius_recovery_shifted(dim):
    # center at hyperbolic distance 1, radius 1: circumscribed radius 2
    f = dense_disk(1.0, shift=1.0) if dim == 2 else dense_ball(1.0, shift=1.0)
    est = estimate_type(f)
    assert 1.9 <= est.radius_estimate <= 2.1


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("shift", [0.0, 1.0])
def test_type_estimate_of_unmodulated_bump_reads_no_samples(dim, shift):
    # pw-recovery samples its support-recovery bumps on one direction: the
    # estimate must not depend on the boundary grid of the samples
    center = Isometry.translation(np.eye(dim)[0] * np.tanh(0.5 * shift)) if shift else None
    spec = BumpSpec(dim=dim, radius=1.5, center=center)
    radial = RadialGrid.gauss_legendre(128, spec.support_radius + 4.0)
    if dim == 2:
        full, one = BoundaryGrid.disk(128), BoundaryGrid.disk(1)
    else:
        full, one = BoundaryGrid.sphere(24, 48), BoundaryGrid.sphere(1, 1)
    a = estimate_type(sample_bump(spec, radial, full))
    b = estimate_type(sample_bump(spec, radial, one))
    for name in ("boundary_points", "sigma_grid", "log_magnitudes", "slopes", "fit_residuals", "window_starts"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    assert a.radius_estimate == b.radius_estimate


@pytest.mark.parametrize("dim", [2, 3])
def test_type_estimate_builds_no_legendre_rule(dim, monkeypatch):
    """The centred profile is sampled on the input's own radial rule, rescaled; no radial rule is built.

    The probe points are passed in, because the default d=3 probe set is
    BoundaryGrid.sphere(3, 4), whose 3-node polar rule is built per call.
    The profile's grid of one azimuth is sphere(1, 1) in d=3, whose 1-node
    polar rule is the only rule built.
    """
    import ballfourier.grids as grids

    spec = BumpSpec(dim=dim, radius=1.5, center=Isometry.translation(np.eye(dim)[0] * 0.3))
    radial = RadialGrid.gauss_legendre(384, spec.support_radius + 4.0)
    if dim == 2:
        f = sample_bump(spec, radial, BoundaryGrid.disk(1))
        probes = BoundaryGrid.disk(8).directions
    else:
        f = sample_bump(spec, radial, BoundaryGrid.sphere(1, 1))
        probes = BoundaryGrid.sphere(3, 4).directions
    calls = []
    rule = grids.legendre_rule
    monkeypatch.setattr(grids, "legendre_rule", lambda n: calls.append(n) or rule(n))
    est = estimate_type(f, boundary_points=probes)
    if dim == 2:
        estimate_type(f)
    assert calls == ([] if dim == 2 else [1])
    assert abs(est.radius_estimate - spec.support_radius) <= 0.05 * spec.support_radius


@pytest.mark.parametrize("dim", [2, 3])
def test_type_estimate_agrees_on_384_and_512_node_inputs(dim):
    """pw-recovery's six bumps (radius 1, 2, 3 at shift 0, 1): the profile takes the input's node count.

    384 and 512 radial nodes give one radius estimate.
    """
    one = BoundaryGrid.disk(1) if dim == 2 else BoundaryGrid.sphere(1, 1)
    for radius in (1.0, 2.0, 3.0):
        for shift in (0.0, 1.0):
            center = Isometry.translation(np.eye(dim)[0] * np.tanh(0.5 * shift)) if shift else None
            spec = BumpSpec(dim=dim, radius=radius, center=center)
            a, b = (
                estimate_type(sample_bump(spec, RadialGrid.gauss_legendre(n, spec.support_radius + 4.0), one))
                for n in (384, 512)
            )
            assert abs(a.radius_estimate - b.radius_estimate) <= 1e-6 * b.radius_estimate


def test_type_estimate_scale_invariance():
    """Samples of a modulated bump (the samples route) scaled by 10 give the same estimate."""
    f = dense_disk(2.0, alpha=0.5, n_r=384)
    g = replace(f, values=10.0 * f.values)
    a = estimate_type(f)
    b = estimate_type(g)
    assert abs(a.radius_estimate - b.radius_estimate) <= 1e-6


def test_type_estimate_monotone_in_radius():
    estimates = [estimate_type(dense_disk(r, n_r=384)).radius_estimate for r in (1.0, 2.0, 3.0)]
    assert estimates[0] < estimates[1] < estimates[2]


def test_type_estimate_rotation_invariance():
    """Rotating the bump, its sampling grid and the probe set together is exact."""
    spec = BumpSpec(dim=2, radius=1.0, center=Isometry.translation([0.3, 0.1]))
    radial = RadialGrid.gauss_legendre(384, spec.support_radius + 4.0)
    boundary = BoundaryGrid.disk(128)
    f = sample_bump(spec, radial, boundary)
    rng = np.random.default_rng(3)
    rot = random_rotation(rng, 2)
    spec_rot = BumpSpec(dim=2, radius=1.0, center=Isometry(spec.center.moves + (rot,), 2))
    boundary_rot = BoundaryGrid(2, boundary.directions @ rot.matrix.T, boundary.weights)
    f_rot = sample_bump(spec_rot, radial, boundary_rot)
    probes = BoundaryGrid.disk(8).directions
    a = estimate_type(f, boundary_points=probes)
    b = estimate_type(f_rot, boundary_points=probes @ rot.matrix.T)
    assert abs(a.radius_estimate - b.radius_estimate) <= 1e-6


BAD_DIRECTIONS = ([0.9, 0.0], [1.1, 0.0], [1.5, 0.0], [0.0, 0.0], [[1.0, 0.0, 0.0]], np.ones((1, 2, 2)))


@pytest.mark.parametrize("alpha", [0.0, 0.5])
def test_type_estimate_rejects_bad_probe_directions(alpha):
    """Both routes check the probes: alpha = 0 reads the descriptor, alpha = 0.5 the samples.

    Unchecked, the descriptor route read 1.707 at |b| = 0.9 and 2.357 at
    |b| = 1.1 for this support radius 2, and raised TypeFitError at 1.5.
    """
    spec = BumpSpec(dim=2, radius=1.0, center=Isometry.translation([np.tanh(0.5), 0.0]), alpha=alpha)
    f = sample_bump(spec, RadialGrid.gauss_legendre(256, 6.0), BoundaryGrid.disk(1))
    for bad in BAD_DIRECTIONS:
        with pytest.raises(TransformUsageError):
            estimate_type(f, boundary_points=bad)
    if alpha == 0.0:
        est = estimate_type(f, boundary_points=[1.0, 0.0])
        assert abs(est.radius_estimate - 2.0) <= 0.05 * 2.0


@pytest.mark.parametrize("alpha", [0.0, 0.5])
def test_decay_report_rejects_bad_directions(alpha):
    """The radial path (alpha = 0) never reads b, and still checks it; so does the slice path."""
    spec = BumpSpec(dim=2, radius=1.0, alpha=alpha)
    f = sample_bump(spec, RadialGrid.gauss_legendre(64, 3.0), BoundaryGrid.disk(16))
    for bad in BAD_DIRECTIONS + ([5.0, 0.0], [[1.0, 0.0], [0.0, 1.0]]):
        with pytest.raises(TransformUsageError):
            decay_report(f, bad)
    assert decay_report(f, np.array([0.6, 0.8])).orders


def test_decay_smooth_bump_passes_all_orders():
    # lam_max 48: the transform decays like e^{-sqrt(2 R lam)}, so the
    # (1+lam)^4-weighted sup of an R = 2 bump turns over near lam = 14,
    # inside the lower window
    f = dense_disk(2.0)
    rep = decay_report(f, np.array([1.0, 0.0]))
    assert rep.passed
    assert all(rep.verdicts[n] for n in rep.orders)


def test_decay_rough_profile_fails_some_order():
    f = dense_disk(2.0, profile="indicator")
    rep = decay_report(f, np.array([1.0, 0.0]))
    assert not rep.passed
    assert any(not rep.verdicts[n] for n in rep.orders if n <= 4)


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("profile", ["smooth", "indicator"])
def test_decay_report_of_centred_bump_on_one_direction_matches_full_grid(dim, profile):
    """A centred bump is radial: its decay report on one direction is the full grid's, to rounding."""
    spec = BumpSpec(dim=dim, radius=2.0, profile=profile)
    radial = RadialGrid.gauss_legendre(512 if dim == 2 else 384, 6.0)
    if dim == 2:
        full, one = BoundaryGrid.disk(128), BoundaryGrid.disk(1)
    else:
        full, one = BoundaryGrid.sphere(24, 48), BoundaryGrid.sphere(1, 1)
    b = np.eye(dim)[0]
    a = decay_report(sample_bump(spec, radial, full), b)
    c = decay_report(sample_bump(spec, radial, one), b)
    assert a.orders == c.orders
    assert a.verdicts == c.verdicts and a.passed == c.passed == (profile == "smooth")
    for n in a.orders:
        assert np.allclose(a.window_sups[n], c.window_sups[n], rtol=1e-12, atol=0.0)


def test_decay_zero_function_vacuous_pass():
    f = zero_function(2, RadialGrid.gauss_legendre(32, 5.0), BoundaryGrid.disk(32))
    rep = decay_report(f, np.array([1.0, 0.0]))
    assert rep.passed and rep.vacuous
