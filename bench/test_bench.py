"""Tests of the benchmark harness itself (run with: python -m pytest bench)."""

import json
import re
import shutil
import subprocess
import sys
import time

import pytest

import run
from tracing import Tracer
from workloads import WORKLOADS, case_id

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
TINY = [["c-table", 2]]
C_TABLE_CHECKS = ["d3_fit_vs_closed_max_rel", "d2_conjugation_max_rel", "fit_retry_on_singular_radii"]


@pytest.fixture
def spec():
    return json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture(autouse=True)
def runs_dir(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "RUNS", tmp_path)
    return tmp_path


def test_metric_names_are_valid_and_computed(spec):
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert all(NAME.fullmatch(n) for n in names), [n for n in names if not NAME.fullmatch(n)]
    assert len(names) == len(set(names))
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)

    fake_pass = {"wall_s": 1.0, "peak_rss_mb": 1.0, "cases": [
        {"checks": [{"name": "a", "value": 1e-3, "tol": 1e-2, "pass": True}]}]}
    assert set(run.end_to_end_metrics([fake_pass], [0.1])) == {m["name"] for m in spec["end_to_end"]}

    all_cases = dict.fromkeys(case_id(s, d) for cases in WORKLOADS.values() for s, d in cases)
    traced = {"layers": Tracer().layer_metrics(all_cases), "bytes_written": 0, "cpu_s": 1.0, "wall_s": 1.0}
    computed = run.per_layer_metrics({"wall_s": 1.0}, traced)
    assert {m["name"] for m in spec["per_layer"]} <= set(computed)


def test_tiny_case_checks_are_collected():
    deadline = time.monotonic() + 120
    result = run.run_pass(TINY, 1, run.ROOT / "src", deadline)
    assert result["error"] is None
    (case,) = result["cases"]
    assert case["exit_code"] == 0
    assert [c["name"] for c in case["checks"]] == C_TABLE_CHECKS
    assert all(c["pass"] and c["tol"] > 0 for c in case["checks"])


def test_traced_pass_records_layers(runs_dir):
    deadline = time.monotonic() + 120
    spans = runs_dir / "spans.json"
    result = run.run_pass(TINY, 1, run.ROOT / "src", deadline, spans=spans)
    layers = result["layers"]
    assert layers["spectral.c_function.calls"] > 0
    # c-table provokes one ill-conditioned fit and retries it
    assert layers["spectral.c_function.fit_errors"] == 1
    assert layers["scenarios.c-table-d2.wall_s"] > 0
    assert layers["scenarios.eigen-d3.wall_s"] == 0
    recorded = json.loads(spans.read_text())
    assert {s["case"] for s in recorded} == {"c-table-d2"}
    assert all(s["end"] >= s["start"] for s in recorded)


def test_forced_failure_is_counted_and_exits_nonzero(capsys):
    failing = {"tiny-fail": [["c-table", 2, ["--tol", "fit_retry_on_singular_radii=-1"]]]}
    code = run.main(["--workload", "tiny-fail", "--seconds", "0"], workloads=failing)
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False
    assert (result["failed"], result["attempted"]) == (1, 3)
    assert result["metrics"]["check_pass_rate"]["value"] == pytest.approx(2 / 3)


def test_checkout_without_program_exits_nonzero(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "h3-slices"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
