"""Configuration parsing and CLI harness behavior."""

import json
import subprocess
import sys

import numpy as np
import pytest

from ballfourier.config import ConfigError, ScenarioConfig, parse_config, read_config_file
from ballfourier import scenarios
from ballfourier.grids import BoundaryGrid
from ballfourier.scenarios import list_scenarios, run_scenario, scenario_base_config
from ballfourier.transforms import InversionResult
from sampling_helpers import same_grid


@pytest.fixture
def run_cli(cli_env):
    def run(*args, cwd=None):
        return subprocess.run(
            [sys.executable, "-m", "ballfourier.cli", *args],
            capture_output=True,
            text=True,
            cwd=cwd,
            env=cli_env,
        )
    return run


def test_empty_config_gives_defaults(tmp_path):
    path = tmp_path / "empty.cfg"
    path.write_text("# nothing here\n\n")
    cfg = parse_config(read_config_file(str(path)))
    assert cfg == ScenarioConfig()


def test_flag_overrides_file(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("dim = 2\nradial-nodes = 48\n")
    cfg = parse_config({**read_config_file(str(path)), "dim": 3})
    assert cfg.dim == 3
    assert cfg.radial_nodes == 48


def test_unknown_key_rejected(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("frobnicate = 1\n")
    with pytest.raises(ConfigError, match="frobnicate"):
        read_config_file(str(path))


def test_malformed_value_names_key():
    with pytest.raises(ConfigError, match="radial-nodes"):
        parse_config({"radial-nodes": "many"})


def test_validation_names_key():
    with pytest.raises(ConfigError, match="radial-nodes"):
        parse_config({"radial_nodes": 0})


def test_negative_bump_shift_rejected():
    with pytest.raises(ConfigError, match="bump-shift"):
        parse_config({"bump-shift": "-1"})


def test_removed_r_max_config_key_rejected(tmp_path):
    path = tmp_path / "old.cfg"
    path.write_text("r_max = 6.0\n")
    with pytest.raises(ConfigError, match="unknown configuration key: r_max"):
        read_config_file(str(path))


def test_config_file_comments_and_floats(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("lambda-max = 12.5  # spectral cutoff\nout_dir = results\n")
    cfg = parse_config(read_config_file(str(path)))
    assert cfg.lambda_max == 12.5
    assert cfg.out_dir == "results"


def test_scenario_base_profiles_exist():
    for name in list_scenarios():
        for dim in (2, 3):
            cfg = scenario_base_config(name, dim)
            assert cfg.dim == dim


def test_cli_list(run_cli):
    r = run_cli("list")
    assert r.returncode == 0
    names = r.stdout.split()
    assert "inversion" in names and "c-table" in names


def test_cli_unknown_scenario_exits_2(run_cli):
    r = run_cli("run", "no-such-scenario")
    assert r.returncode == 2
    assert "unknown scenario" in r.stderr
    assert "available scenarios" in r.stderr


def test_cli_bad_flag_value_exits_2(tmp_path, run_cli):
    r = run_cli("run", "c-table", "--radial-nodes", "0", "--out", str(tmp_path))
    assert r.returncode == 2
    assert "radial-nodes" in r.stderr


def test_cli_c_table_runs_green(tmp_path, run_cli):
    out = tmp_path / "ct"
    # c-table reads no grid key, but every run reads dim, seed, out and timing
    r = run_cli("run", "c-table", "--dim", "3", "--seed", "4", "--out", str(out), "--timing", "zero")
    assert r.returncode == 0
    doc = json.loads((out / "results.json").read_text())
    assert doc["scenario"] == "c-table"
    assert doc["summary"]["failed"] == 0
    assert set(doc["checks"][0]) == {"name", "value", "tol", "pass", "seconds", "note"}
    assert (out / "c_table.csv").exists()


def test_cli_tol_override_can_fail_a_check(tmp_path, run_cli):
    out = tmp_path / "ct2"
    r = run_cli("run", "c-table", "--out", str(out), "--tol", "d3_fit_vs_closed_max_rel=1e-30")
    assert r.returncode == 1
    doc = json.loads((out / "results.json").read_text())
    failed = {c["name"] for c in doc["checks"] if not c["pass"]}
    assert "d3_fit_vs_closed_max_rel" in failed


@pytest.mark.parametrize("tol", ["1", "2.5"])
def test_tol_override_never_passes_a_failed_verdict(tmp_path, monkeypatch, tol):
    def failing(cfg, rng):
        return [scenarios._verdict("refinement_monotone", False)], {}

    monkeypatch.setitem(scenarios.SCENARIOS, "inversion", failing)
    cfg = parse_config({"out_dir": str(tmp_path), "dim": "2", "timing": "zero",
                              "tolerances": (("refinement_monotone", float(tol)),)})
    assert run_scenario("inversion", cfg) == 1
    (check,) = json.loads((tmp_path / "results.json").read_text())["checks"]
    assert (check["value"], check["tol"], check["pass"]) == (0.0, float(tol), False)


def test_tol_override_can_fail_a_passed_verdict(tmp_path, run_cli):
    out = tmp_path / "ct4"
    r = run_cli("run", "c-table", "--out", str(out), "--tol", "fit_retry_on_singular_radii=-1")
    assert r.returncode == 1
    doc = json.loads((out / "results.json").read_text())
    failed = {c["name"] for c in doc["checks"] if not c["pass"]}
    assert failed == {"fit_retry_on_singular_radii"}


def test_cli_removed_spectral_nodes_flag_exits_2(tmp_path, run_cli):
    out = tmp_path / "inv"
    r = run_cli("run", "inversion", "--spectral-nodes", "40", "--out", str(out))
    assert r.returncode == 2
    assert "--spectral-nodes" in r.stderr
    assert not out.exists()


def test_cli_removed_r_max_flag_exits_2(tmp_path, run_cli):
    out = tmp_path / "jeft"
    r = run_cli("run", "jeft-equivalence", "--dim", "2", "--r-max", "6", "--out", str(out))
    assert r.returncode == 2
    assert "--r-max" in r.stderr
    assert not out.exists()


@pytest.mark.parametrize("key", ["boundary-theta", "boundary-phi"])
def test_cli_removed_sphere_boundary_keys_exit_2(tmp_path, run_cli, key):
    """boundary-nodes sizes the sphere too; the old polar and azimuth keys are unknown as flags and file keys."""
    out = tmp_path / "eigen"
    r = run_cli("run", "eigen", "--dim", "3", f"--{key}", "12", "--out", str(out))
    assert r.returncode == 2
    assert f"--{key}" in r.stderr
    path = tmp_path / "old.cfg"
    path.write_text(f"{key} = 12\n")
    r = run_cli("run", "eigen", "--dim", "3", "--config", str(path), "--out", str(out))
    assert r.returncode == 2
    assert f"unknown configuration key: {key}" in r.stderr
    assert not out.exists()


def test_cli_negative_bump_shift_exits_2(tmp_path, run_cli):
    out = tmp_path / "jeft"
    r = run_cli("run", "jeft-equivalence", "--dim", "2", "--bump-shift", "-1", "--out", str(out))
    assert r.returncode == 2
    assert "bump-shift" in r.stderr
    assert not out.exists()


def test_cli_negative_seed_exits_2(tmp_path, run_cli):
    """numpy's default_rng rejects a negative seed; the configuration rejects it first, before any output."""
    out = tmp_path / "ct"
    r = run_cli("run", "c-table", "--dim", "2", "--seed", "-1", "--out", str(out))
    assert r.returncode == 2
    assert "seed must be nonnegative" in r.stderr
    assert "Traceback" not in r.stderr
    assert not out.exists()


@pytest.mark.parametrize(
    "args,key",
    [
        (("plancherel", "--dim", "3", "--lambda-max", "nan"), "lambda-max"),
        (("plancherel", "--dim", "3", "--bump-alpha", "nan"), "bump-alpha"),
        (("plancherel", "--dim", "3", "--bump-radius", "inf"), "bump-radius"),
        (("jeft-equivalence", "--dim", "2", "--bump-shift=inf"), "bump-shift"),
        (("c-table", "--dim", "2", "--tol", "fit_retry_on_singular_radii=nan"), "--tol fit_retry_on_singular_radii"),
    ],
)
def test_cli_nonfinite_value_exits_2(tmp_path, run_cli, args, key):
    """A NaN or inf value is a configuration error: exit 2 before any output, not a scenario_error."""
    out = tmp_path / "out"
    r = run_cli("run", *args, "--out", str(out))
    assert r.returncode == 2
    assert f"error: {key} must be finite" in r.stderr
    assert not out.exists()


def test_cli_removed_spectral_nodes_config_key_exits_2(tmp_path, run_cli):
    path = tmp_path / "old.cfg"
    path.write_text("spectral_nodes = 200\n")
    out = tmp_path / "inv"
    r = run_cli("run", "inversion", "--config", str(path), "--out", str(out))
    assert r.returncode == 2
    assert "spectral_nodes" in r.stderr
    assert not out.exists()


def test_cli_tol_override_for_unknown_check_is_usage_error(tmp_path, run_cli):
    out = tmp_path / "ct3"
    r = run_cli("run", "c-table", "--out", str(out), "--tol", "no_such_check=1e-3")
    assert r.returncode == 2
    assert "no_such_check" in r.stderr
    assert not (out / "results.json").exists()
    assert not list(out.glob("*.csv"))


def test_cli_under_resolved_inversion_fails_with_truncation_warning(tmp_path, run_cli):
    out = tmp_path / "inv"
    r = run_cli(
        "run", "inversion", "--dim", "3", "--out", str(out),
        "--lambda-max", "1.0",
    )
    assert r.returncode == 1
    doc = json.loads((out / "results.json").read_text())
    by_name = {c["name"]: c for c in doc["checks"]}
    assert not by_name["reconstruction_max_rel_error"]["pass"]
    assert not by_name["truncation_tail_fraction"]["pass"]


def test_cli_reproducible_outputs(tmp_path, run_cli):
    """Identical config + seed produce byte-identical results.json and CSVs."""
    dirs = []
    for tag in ("a", "b"):
        workdir = tmp_path / tag
        workdir.mkdir()
        r = run_cli(
            "run", "jeft-equivalence", "--dim", "2",
            "--seed", "3", "--timing", "zero",
            cwd=str(workdir),
        )
        assert r.returncode == 0, r.stderr
        dirs.append(workdir / "out")
    for fname in ("results.json", "factorization_pairs.csv"):
        a = (dirs[0] / fname).read_bytes()
        b = (dirs[1] / fname).read_bytes()
        assert a == b


def test_run_scenario_records_numeric_errors_as_failed_checks(tmp_path):
    # bump radius 120 passes config validation, but the outer radial nodes
    # of its support, r > 37, have tanh(r / 2) = 1 in floating point, so
    # sample_bump raises inside the run on grid points on the unit sphere
    # (a support that fits inside the ball cannot reach the overflow guard
    # of the scenario's lam = 2 - 0.35i, which needs 0.35 * support > 40)
    cfg = parse_config({"bump_radius": "120", "radial_nodes": "64", "out_dir": str(tmp_path / "x"),
                              "dim": "2", "timing": "zero"})
    assert run_scenario("asymptotic", cfg) == 1
    (check,) = json.loads((tmp_path / "x" / "results.json").read_text())["checks"]
    assert check["name"] == "scenario_error"
    assert check["note"].startswith("GeometryError('points must lie strictly inside the unit ball")


def test_scenario_error_note_names_the_raising_function(tmp_path, monkeypatch):
    def raise_deep(cfg, rng):
        return _failing_step(cfg.dim)

    monkeypatch.setitem(scenarios.SCENARIOS, "eigen", raise_deep)
    code = run_scenario("eigen", parse_config({"out_dir": str(tmp_path), "dim": "2", "timing": "zero"}))
    assert code == 1
    (check,) = json.loads((tmp_path / "results.json").read_text())["checks"]
    assert check["name"] == "scenario_error"
    assert check["note"].startswith("FloatingPointError('step 2 diverged') at ")
    assert "raise_deep > test_cli.py:" in check["note"]
    assert check["note"].endswith(" _failing_step")


def _failing_step(dim):
    raise FloatingPointError(f"step {dim} diverged")


@pytest.mark.parametrize("dim", [2, 3])
def test_scenarios_fit_every_radial_rule_to_its_support(dim, monkeypatch):
    """Every sample_bump call of every scenario gets a rule that ends at the bump's support radius."""
    calls = []
    sample = scenarios.sample_bump

    def recorded(spec, radial, boundary):
        calls.append((name, radial.r_max, spec.support_radius))
        return sample(spec, radial, boundary)

    monkeypatch.setattr(scenarios, "sample_bump", recorded)
    for name in list_scenarios():
        scenarios.SCENARIOS[name](scenario_base_config(name, dim), np.random.default_rng(1))
    assert {name for name, _, _ in calls} == set(list_scenarios()) - {"c-table"}
    assert all(r_max == support for _, r_max, support in calls)


@pytest.mark.parametrize("dim", [2, 3])
def test_scenarios_read_exactly_their_declared_keys(dim):
    """Every configuration key a scenario reads is declared in scenario_keys, and every declared key is read."""

    class Recording:
        def __init__(self, cfg):
            self.cfg, self.read = cfg, set()

        def __getattr__(self, key):
            self.read.add(key)
            return getattr(self.cfg, key)

    for name in list_scenarios():
        cfg = Recording(scenario_base_config(name, dim))
        scenarios.SCENARIOS[name](cfg, np.random.default_rng(1))
        declared = set(scenarios.scenario_keys(name, dim))
        assert declared <= cfg.read <= declared | set(scenarios._RUN_KEYS), name


@pytest.mark.parametrize(
    "args,unread",
    [
        (("pw-recovery", "--dim", "2", "--bump-radius", "0.5", "--bump-shift", "2", "--bump-alpha", "0.9"),
         "bump-alpha, bump-radius, bump-shift"),
        (("calibrate", "--dim", "2", "--radial-nodes", "10"), "radial-nodes"),
        (("c-table", "--dim", "3", "--lambda-max", "5"), "lambda-max"),
        (("asymptotic", "--dim", "3", "--lambda-max", "5"), "lambda-max"),
        (("calibrate", "--dim", "3", "--boundary-nodes", "64"), "boundary-nodes"),
    ],
)
def test_cli_key_the_scenario_does_not_read_exits_2(tmp_path, run_cli, args, unread):
    out = tmp_path / "unread"
    r = run_cli("run", *args, "--out", str(out))
    assert r.returncode == 2
    assert f"does not read {unread};" in r.stderr
    reads = ", ".join(k.replace("_", "-") for k in scenarios.scenario_keys(args[0], int(args[2])))
    assert f"it reads {reads or 'no grid or bump key'}," in r.stderr
    assert not out.exists()


def test_cli_unread_config_file_key_exits_2(tmp_path, run_cli):
    path = tmp_path / "c.cfg"
    path.write_text("dim = 2\nseed = 3\nbump-radius = 0.5\n")
    out = tmp_path / "ct"
    r = run_cli("run", "c-table", "--config", str(path), "--out", str(out))
    assert r.returncode == 2
    assert "c-table --dim 2 does not read bump-radius;" in r.stderr
    assert not out.exists()


@pytest.mark.parametrize("name", ["eigen", "functional-equation"])
def test_residual_scenarios_take_one_slice_call(name, monkeypatch):
    """eigen and functional-equation draw their cases first and slice every lam in one call."""
    from ballfourier import transforms

    calls = []
    slices = transforms.boundary_slices

    def counted(f, lams, bs=None):
        calls.append(len(lams))
        return slices(f, lams, bs)

    monkeypatch.setattr(transforms, "boundary_slices", counted)
    checks, _ = scenarios.SCENARIOS[name](scenario_base_config(name, 2), np.random.default_rng(1))
    assert all(c.passed for c in checks)
    assert calls == [5 if name == "eigen" else 6]


# The explicit grids each scenario profile sampled on before one boundary key
# sized both dimensions: (disk count, sphere (n_theta, n_phi)).
_EXPLICIT_GRIDS = {
    "jeft-equivalence": (256, (24, 48)),
    "inversion": (160, (8, 16)),
    "plancherel": (128, (8, 16)),
    "kaverage-bridge": (256, (24, 48)),
    "functional-equation": (256, (24, 48)),
    "asymptotic": (64, (12, 24)),
    "eigen": (256, (24, 48)),
    "pw-recovery": (128, (24, 48)),
}


@pytest.mark.parametrize("dim", [2, 3])
def test_profile_boundary_grids_are_the_explicit_grids_bit_for_bit(dim):
    """boundary_nodes n gives disk(n), or sphere((n + 1) // 2, n) in d = 3: every profile's grid, bit for bit."""
    for name in list_scenarios():
        cfg = scenario_base_config(name, dim)
        if name not in _EXPLICIT_GRIDS:
            assert "boundary_nodes" not in scenarios.scenario_keys(name, dim)
            continue
        disk, sphere = _EXPLICIT_GRIDS[name]
        explicit = BoundaryGrid.disk(disk) if dim == 2 else BoundaryGrid.sphere(*sphere)
        assert same_grid(BoundaryGrid.with_azimuths(dim, cfg.boundary_nodes), explicit), name


@pytest.mark.parametrize("dim, levels", [(2, [120, 140, 160]), (3, [(6, 12), (7, 14), (8, 16)])])
def test_inversion_levels_sample_the_explicit_grids_bit_for_bit(dim, levels, monkeypatch):
    """The three refinement levels of inversion sample on disk(120, 140, 160) or sphere 6 x 12, 7 x 14, 8 x 16."""
    grids = []

    def recorded(spec, radial, boundary):
        grids.append(boundary)

    monkeypatch.setattr(scenarios, "sample_bump", recorded)
    monkeypatch.setattr(scenarios, "invert", lambda f, pts, lam_max: [InversionResult(0j, 0.0)] * len(pts))
    scenarios.scenario_inversion(scenario_base_config("inversion", dim), np.random.default_rng(1))
    explicit = [BoundaryGrid.disk(n) if dim == 2 else BoundaryGrid.sphere(*n) for n in levels]
    assert len(grids) == 3 and all(same_grid(a, b) for a, b in zip(grids, explicit))
