"""Scenario benchmark of ballfourier: time to a verified result.

Usage:
    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Each pass starts ``bench/worker.py`` in a fresh interpreter, which runs the
workload's scenario cases back to back through ``ballfourier.cli.main``.
This script then reads every case's ``results.json`` back and records each
check's name, value, tol and pass next to the timings.

Passes repeat while the next one is predicted to end within ``--seconds`` of
the first one's start; there is always one.  ``setup_s`` is the median over
the passes and over extra interpreters that only import the package.  With
``--trace 1`` one untraced pass is followed by one traced pass, and the
per-layer metrics come from the traced one; end-to-end metrics come only
from untraced passes.

Every metric is printed by name with its unit; the last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics, where attempted and failed count checks.  The full record,
environment included, goes to ``.bench_runs/<workload>-seed<N>-trace<T>.json``.

Exit code: 0 when every check passes, 1 when any fails, 2 on a usage error or
when the checkout has no ``src/ballfourier``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from workloads import GAPS, WORKLOADS, case_id

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = ROOT / ".bench_runs"

SETUP_PROBES = 9
# A run must end within 180 s; a pass still running at this point is killed.
DEADLINE_S = 170.0
# Floor of value/tol in the check-ratio metrics.  Residuals far inside their
# tolerance move with the seed's random inputs: the d=3 factorization
# residual ranges from 4e-13 to 1e-8 against tol 1e-6, which at a 1e-4 floor
# spread the h3-slices ratios across seeds by more than 100%.
RATIO_FLOOR = 0.02
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "GOTO_NUM_THREADS",
)


class WorkerError(RuntimeError):
    pass


def _spawn(cases, seed: int, src: Path, out_dir: Path, deadline: float, spans: Path = None) -> dict:
    """Run the worker to completion; returns its report plus the measured set-up time."""
    report_path = out_dir / "worker.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--src", str(src), "--cases", json.dumps(cases),
           "--seed", str(seed), "--out-dir", str(out_dir), "--report", str(report_path)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL, text=True)
    try:
        ready, _, _ = select.select([proc.stdout], [], [], max(0.0, deadline - time.monotonic()))
        line = proc.stdout.readline() if ready else ""
        setup = time.perf_counter() - t0
        if line.strip() != "ready":
            raise WorkerError(f"worker did not get ready (read {line.strip()!r})")
        rest, _ = proc.communicate(timeout=max(0.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise WorkerError("worker passed the run deadline and was stopped") from None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if rest:
        sys.stderr.write(rest)
    if proc.returncode != 0:
        raise WorkerError(f"worker exited with code {proc.returncode}")
    report = json.loads(report_path.read_text(encoding="utf-8"))
    report["setup_s"] = setup
    return report


def _read_checks(case: dict, out: Path, seed: int) -> list:
    """Checks of one case from its results.json, plus one failed check per harness-level fault.

    A missing results.json, a nonzero exit without a failed check to explain
    it, or a results.json for another scenario, dimension or seed each count
    as one failed check.
    """
    path = out / "results.json"
    if not path.is_file():
        return [{"name": "results_json_present", "value": 0.0, "tol": 1.0, "pass": False,
                 "note": case.get("error") or f"exit code {case.get('exit_code')}"}]
    doc = json.loads(path.read_text(encoding="utf-8"))
    checks = [{k: c[k] for k in ("name", "value", "tol", "pass", "note")} for c in doc["checks"]]
    echo = doc["config_echo"]
    if (doc["scenario"], echo["dim"], echo["seed"]) != (case["scenario"], case["dim"], seed):
        checks.append({"name": "results_json_matches_case", "value": 0.0, "tol": 1.0, "pass": False,
                       "note": f"{doc['scenario']} dim={echo['dim']} seed={echo['seed']}"})
    if case.get("exit_code") != 0 and all(c["pass"] for c in checks):
        checks.append({"name": "exit_code", "value": float(case.get("exit_code") or -1), "tol": 0.0,
                       "pass": False, "note": case.get("error") or ""})
    return checks


def run_pass(cases, seed: int, src: Path, deadline: float, spans: Path = None) -> dict:
    """One fresh-interpreter pass over the cases, with every case's checks read back."""
    out_dir = Path(tempfile.mkdtemp(prefix="pass-", dir=RUNS))
    try:
        try:
            report = _spawn(cases, seed, src, out_dir, deadline, spans)
            error = None
        except WorkerError as exc:
            report, error = {"cases": []}, str(exc)
        records = {r["case"]: r for r in report["cases"]}
        out_cases = []
        bytes_written = 0
        for c in cases:
            scenario, dim = c[0], c[1]
            cid = case_id(scenario, dim)
            rec = records.get(cid, {"exit_code": None, "seconds": None, "error": error})
            rec.update(case=cid, scenario=scenario, dim=dim)
            case_out = out_dir / cid
            if case_out.is_dir():
                bytes_written += sum(p.stat().st_size for p in case_out.rglob("*") if p.is_file())
            out_cases.append({"case": cid, "exit_code": rec["exit_code"], "seconds": rec["seconds"],
                              "checks": _read_checks(rec, case_out, seed)})
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    report.update(cases=out_cases, error=error, bytes_written=bytes_written)
    return report


def setup_probe(src: Path, deadline: float) -> float:
    """Seconds from interpreter start until ballfourier is imported and ready."""
    out_dir = Path(tempfile.mkdtemp(prefix="setup-", dir=RUNS))
    try:
        return _spawn([], 0, src, out_dir, deadline)["setup_s"]
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


def _check_ratios(checks) -> list:
    """value/tol of the numeric checks (tol < 1), floored at RATIO_FLOOR.

    Pass/fail checks carry tol 1 and are left out; with no numeric check the
    list holds the floor alone.
    """
    ratios = [max(c["value"] / c["tol"], RATIO_FLOOR) for c in checks
              if 0.0 < c["tol"] < 1.0 and math.isfinite(c["value"])]
    return ratios or [RATIO_FLOOR]


def end_to_end_metrics(passes, setups) -> dict:
    checks = [c for p in passes for case in p["cases"] for c in case["checks"]]
    # every pass runs the same seed, so the first pass's residuals stand for all
    ratios = _check_ratios([c for case in passes[0]["cases"] for c in case["checks"]])
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "check_pass_rate": sum(c["pass"] for c in checks) / len(checks),
        "worst_check_ratio": max(ratios),
        "check_ratio_geomean": math.exp(statistics.fmean(math.log(r) for r in ratios)),
    }


def per_layer_metrics(untraced: dict, traced: dict) -> dict:
    out = dict(traced["layers"])
    out["cli.bytes_written"] = traced["bytes_written"]
    out["process.cpu_s"] = traced["cpu_s"]
    out["tracing.overhead_s"] = traced["wall_s"] - untraced["wall_s"]
    return out


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return res.stdout.strip() if res.returncode == 0 else None


def _src_digest(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((src / "ballfourier").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(seed: int, src: Path, passes) -> dict:
    report = next((p for p in passes if "numpy" in p), {})
    return {
        "commit": _git_commit(),
        "src_sha256": _src_digest(src),
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": report.get("numpy"),
        "blas": report.get("blas"),
        "thread_vars": {name: os.environ.get(name) for name in THREAD_VARS},
    }


def _parse(argv, workloads):
    p = argparse.ArgumentParser(description="Scenario benchmark of ballfourier: time to a verified result.")
    p.add_argument("--workload", required=True, choices=sorted(workloads))
    p.add_argument("--seed", type=int, default=1, help="passed to every case as --seed (default 1)")
    p.add_argument("--seconds", type=float, default=30.0, help="measuring time of untraced passes")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None, workloads=WORKLOADS) -> int:
    args = _parse(argv, workloads)
    src = ROOT / "src"
    if not (src / "ballfourier" / "__init__.py").is_file():
        print(f"error: no ballfourier package under {src}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    deadline = time.monotonic() + DEADLINE_S
    RUNS.mkdir(exist_ok=True)
    cases = [list(c) for c in workloads[args.workload]]
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    passes = []
    t_start = time.monotonic()
    while True:
        passes.append(run_pass(cases, args.seed, src, deadline))
        last_ok = not passes[-1]["error"] and all(
            c["pass"] for case in passes[-1]["cases"] for c in case["checks"])
        if args.trace or not last_ok:
            break
        per_pass = statistics.median(p["setup_s"] + p["wall_s"] for p in passes)
        if time.monotonic() - t_start + per_pass > args.seconds:
            break
    if args.trace and not passes[0]["error"]:
        passes.append(run_pass(cases, args.seed, src, deadline, spans=RUNS / f"{tag}-spans.json"))
    errors = [p["error"] for p in passes if p["error"]]

    declared = spec["per_layer" if args.trace else "end_to_end"]
    values = {}
    if not errors and args.trace:
        values = per_layer_metrics(passes[0], passes[1])
    elif not errors:
        setups = [p["setup_s"] for p in passes] + [setup_probe(src, deadline) for _ in range(SETUP_PROBES)]
        values = end_to_end_metrics(passes, setups)
    missing = [m["name"] for m in declared if m["name"] not in values]
    if values and missing:
        raise KeyError(f"metrics declared in BENCHMARK.json but not computed: {missing}")

    checks = [c for p in passes for case in p["cases"] for c in case["checks"]]
    failed = sum(not c["pass"] for c in checks)
    correct = not errors and failed == 0
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared if values}

    record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(args.seed, src, passes),
        "passes": [
            {k: p.get(k) for k in ("setup_s", "wall_s", "cpu_s", "peak_rss_mb", "bytes_written", "error")}
            | {"cases": p["cases"]}
            for p in passes
        ],
        "correct": correct,
        "metrics": metrics,
        "gaps": GAPS,
    }
    (RUNS / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    for p in passes:
        for case in p["cases"]:
            for c in case["checks"]:
                if not c["pass"]:
                    print(f"FAIL {case['case']} {c['name']}: value={c['value']!r} tol={c['tol']!r} {c['note']}")
    for err in errors:
        print(f"ERROR {err}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": len(checks), "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
