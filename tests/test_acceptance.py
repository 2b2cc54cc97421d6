"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Criteria are executed through the same scenario implementations the CLI
runs, at their default grid profiles, with every tolerance pinned here.
Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and runtimes.
"""

import subprocess
import sys
import time

import numpy as np

from ballfourier.config import ScenarioConfig
from ballfourier.geometry import apply_array, dist, random_isometry
from ballfourier.grids import BoundaryGrid, BumpSpec, RadialGrid, sample_bump
from ballfourier.scenarios import SCENARIOS, scenario_base_config
from sampling_helpers import bracket, unit

_WALL = {}

# the (scenario, dim) runs of criteria 1-9
_CRITERIA_RUNS = [
    (name, dim)
    for name in ("jeft-equivalence", "inversion", "plancherel", "kaverage-bridge",
                 "functional-equation", "eigen", "asymptotic", "pw-recovery")
    for dim in (2, 3)
] + [("c-table", 3)]


def run_default_scenario(name, dim, seed=1):
    """Execute a scenario at its default profile; cache results per (name, dim)."""
    key = (name, dim)
    if key not in _WALL:
        cfg = scenario_base_config(name, dim)
        cfg = ScenarioConfig(**{**cfg.__dict__, "seed": seed})
        rng = np.random.default_rng(cfg.seed)
        t0 = time.perf_counter()
        checks, _ = SCENARIOS[name](cfg, rng)
        _WALL[key] = (checks, time.perf_counter() - t0)
    return _WALL[key]


def report(criterion, ok, detail, seconds=None):
    stamp = f" ({seconds:.1f}s)" if seconds is not None else ""
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}{stamp}")


def by_name(checks):
    return {c.name: c for c in checks}


def test_criterion_01_factorization():
    """jeft (Poisson o forward) vs distance-kernel convolution, <= 1e-6, <= 60 s."""
    worst = 0.0
    wall = 0.0
    for dim in (2, 3):
        checks, secs = run_default_scenario("jeft-equivalence", dim)
        wall += secs
        c = by_name(checks)["factorization_max_rel_error"]
        assert c.tol == 1e-6
        worst = max(worst, c.value)
    ok = worst <= 1e-6 and wall <= 60.0
    report(1, ok, f"factorization max rel error {worst:.2e} <= 1e-6 over 20 triples/dim", wall)
    assert worst <= 1e-6
    assert wall <= 60.0, f"criterion 1 runtime {wall:.1f}s exceeds 60s"


def test_criterion_02_inversion():
    """Pointwise reconstruction <= 1e-3 (d3) / 1e-2 (d2), monotone refinement, <= 120 s."""
    wall = 0.0
    details = []
    ok = True
    for dim, tol in ((3, 1e-3), (2, 1e-2)):
        checks, secs = run_default_scenario("inversion", dim)
        wall += secs
        named = by_name(checks)
        err = named["reconstruction_max_rel_error"]
        mono = named["refinement_monotone"]
        assert err.tol == tol
        ok = ok and err.passed and mono.passed
        details.append(f"d{dim}: {err.value:.2e} <= {tol:g}, monotone={bool(mono.value)}")
    ok = ok and wall <= 120.0
    report(2, ok, "; ".join(details), wall)
    assert ok, details
    assert wall <= 120.0, f"criterion 2 runtime {wall:.1f}s exceeds 120s"


def test_criterion_03_plancherel():
    """Plancherel residual <= 1e-2 and kappa consistency <= 1%."""
    details = []
    ok = True
    for dim in (3, 2):
        checks, _ = run_default_scenario("plancherel", dim)
        named = by_name(checks)
        res = named["plancherel_residual"]
        kap = named["kappa_consistency"]
        ok = ok and res.value <= 1e-2 and kap.value <= 1e-2 and res.passed
        details.append(f"d{dim}: residual {res.value:.2e}, kappa dev {kap.value:.2e}")
    report(3, ok, "; ".join(details))
    assert ok, details


def test_criterion_04_kaverage_bridge():
    """Rotation-average bridge residual <= 1e-5, randomized isometries, both dims."""
    worst = 0.0
    for dim in (2, 3):
        checks, _ = run_default_scenario("kaverage-bridge", dim)
        for c in checks:
            assert c.tol == 1e-5
            worst = max(worst, c.value)
    ok = worst <= 1e-5
    report(4, ok, f"max bridge residual {worst:.2e} <= 1e-5")
    assert ok


def test_criterion_05_functional_equation():
    """Functional-equation residual <= 1e-5 on randomized (g, x, lam), modulated bump."""
    worst = 0.0
    for dim in (2, 3):
        checks, _ = run_default_scenario("functional-equation", dim)
        named = by_name(checks)
        worst = max(worst, named["functional_equation_max_residual"].value)
        assert named["functional_equation_origin_case"].passed
    ok = worst <= 1e-5
    report(5, ok, f"max residual {worst:.2e} <= 1e-5")
    assert ok


def test_criterion_06_eigen_equation():
    """Laplace-Beltrami eigen residual <= 1e-4 (transform), <= 1e-6 (exact kernel)."""
    worst = 0.0
    worst_ctrl = 0.0
    for dim in (2, 3):
        checks, _ = run_default_scenario("eigen", dim)
        named = by_name(checks)
        worst = max(worst, named["eigen_max_residual"].value)
        worst_ctrl = max(worst_ctrl, named["eigen_kernel_control"].value)
    ok = worst <= 1e-4 and worst_ctrl <= 1e-6
    report(6, ok, f"transform residual {worst:.2e} <= 1e-4, kernel control {worst_ctrl:.2e} <= 1e-6")
    assert ok


def test_criterion_07_asymptotics():
    """Residual strictly decreasing over t in {6, 8, 10}; final <= 1e-3 |c fhat|."""
    details = []
    ok = True
    for dim in (3, 2):
        checks, _ = run_default_scenario("asymptotic", dim)
        named = by_name(checks)
        dec = named["asymptotic_strictly_decreasing"]
        fin = named["asymptotic_final_ratio"]
        ok = ok and dec.passed and fin.value <= 1e-3
        details.append(f"d{dim}: decreasing={bool(dec.value)}, final ratio {fin.value:.2e}")
    report(7, ok, "; ".join(details))
    assert ok, details


def test_criterion_08_paley_wiener():
    """Support recovery within 5% (R in 1,2,3; centered and shifted; both dims),
    holomorphy circles <= 1e-8, smooth decay passes while rough fails."""
    worst_rec = 0.0
    worst_holo = 0.0
    decay_ok = True
    for dim in (2, 3):
        checks, _ = run_default_scenario("pw-recovery", dim)
        named = by_name(checks)
        for name, c in named.items():
            if name.startswith("support_recovery_"):
                worst_rec = max(worst_rec, c.value)
        worst_holo = max(worst_holo, named["holomorphy_circle_max"].value)
        decay_ok = decay_ok and named["decay_smooth_passes"].passed and named["decay_rough_fails"].passed
    ok = worst_rec <= 0.05 and worst_holo <= 1e-8 and decay_ok
    report(8, ok, f"recovery max {worst_rec:.2%} <= 5%, holomorphy {worst_holo:.2e} <= 1e-8, "
                  f"decay verdicts ok={decay_ok}")
    assert ok


def test_criterion_09_c_function_coherence():
    """Asymptotic-fit c equals 1/(i lam) (d3) to 1e-6; closed-form conjugation symmetry (d2) to 1e-8."""
    checks, _ = run_default_scenario("c-table", 3)
    named = by_name(checks)
    fit = named["d3_fit_vs_closed_max_rel"]
    conj = named["d2_conjugation_max_rel"]
    ok = fit.value <= 1e-6 and conj.value <= 1e-8
    report(9, ok, f"d3 fit-vs-closed {fit.value:.2e} <= 1e-6, d2 conjugation {conj.value:.2e} <= 1e-8")
    assert ok


def test_criterion_10_geometry_substrate():
    """Cocycle and isometry-invariance sweeps (1000 cases, <= 1e-10); grid doubling <= 1e-9."""
    rng = np.random.default_rng(2024)
    worst_iso = 0.0
    worst_coc = 0.0
    for dim in (2, 3):
        for _ in range(500):
            g = random_isometry(rng, dim)
            x = rng.uniform(-0.5, 0.5, dim)
            y = rng.uniform(-0.5, 0.5, dim)
            b = unit(rng.standard_normal(dim))
            worst_iso = max(worst_iso, abs(dist(apply_array(g, x), apply_array(g, y)) - dist(x, y)))
            lhs = bracket(apply_array(g, x), b) - bracket(g.origin_image(), b)
            worst_coc = max(worst_coc, abs(lhs - bracket(x, apply_array(g.inverse(), b))))
    # quadrature grid-doubling stability of the volume integral (the base
    # rule must be support-fitted and dense: the smooth profile converges
    # only root-exponentially)
    worst_quad = 0.0
    for dim in (2, 3):
        spec = BumpSpec(dim=dim, radius=1.5)
        vals = []
        for n_r in (512, 1024):
            boundary = BoundaryGrid.disk(64) if dim == 2 else BoundaryGrid.sphere(12, 24)
            f = sample_bump(spec, RadialGrid.gauss_legendre(n_r, 3.0), boundary)
            vals.append(np.sum(f.node_weights() * f.values).real)
        worst_quad = max(worst_quad, abs(vals[1] - vals[0]) / abs(vals[1]))
    ok = worst_iso <= 1e-10 and worst_coc <= 1e-10 and worst_quad <= 1e-9
    report(10, ok, f"isometry {worst_iso:.2e}, cocycle {worst_coc:.2e} (1000 cases each, <= 1e-10); "
                   f"grid doubling {worst_quad:.2e} <= 1e-9")
    assert ok


def test_criterion_11_reproducibility(tmp_path, cli_env):
    """Identical config + seed give byte-identical outputs; suite fits 10 minutes."""
    dirs = []
    for tag in ("a", "b"):
        workdir = tmp_path / tag
        workdir.mkdir()
        r = subprocess.run(
            [sys.executable, "-m", "ballfourier.cli", "run", "jeft-equivalence",
             "--dim", "2", "--seed", "11", "--timing", "zero"],
            capture_output=True, text=True, cwd=str(workdir), env=cli_env,
        )
        assert r.returncode == 0, r.stderr
        dirs.append(workdir / "out")
    identical = True
    for fname in ("results.json", "factorization_pairs.csv"):
        identical = identical and (dirs[0] / fname).read_bytes() == (dirs[1] / fname).read_bytes()
    # run here when criteria 1-9 have not (cache hits when they have)
    suite_wall = sum(run_default_scenario(name, dim)[1] for name, dim in _CRITERIA_RUNS)
    ok = identical and suite_wall <= 600.0
    report(11, ok, f"byte-identical outputs={identical}; accumulated scenario wall "
                   f"{suite_wall:.0f}s <= 600s")
    assert identical
    assert suite_wall <= 600.0, f"suite wall {suite_wall:.0f}s exceeds 10 minutes"
