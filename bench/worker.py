"""Run scenario cases back to back in this fresh interpreter through ``ballfourier.cli.main``.

Started by ``run.py``, once per pass, so the module caches of ballfourier
start cold as they do for a command-line user.  Prints ``ready`` once the
package is imported, runs the cases, and writes a JSON report of timings,
exit codes and resource use to ``--report``.  With ``--spans`` the public
functions of each layer are traced, the spans are written to that file and
the per-layer metrics go into the report.

Usage: python3 bench/worker.py --src SRC --cases JSON --seed N --out-dir DIR --report PATH [--spans PATH]
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import sys
import time
import traceback


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--src", required=True, help="directory that holds the ballfourier package")
    p.add_argument("--cases", required=True, help="JSON list of [scenario, dim, [extra CLI args]]")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--report", required=True)
    p.add_argument("--spans", help="trace the layers and write the spans here")
    args = p.parse_args(argv)

    src = os.path.realpath(args.src)
    sys.path.insert(0, src)
    import numpy as np
    import ballfourier
    from ballfourier import cli

    if not os.path.realpath(ballfourier.__file__).startswith(src + os.sep):
        print(f"error: ballfourier imported from {ballfourier.__file__}, not {src}", file=sys.stderr)
        return 3
    print("ready", flush=True)

    from workloads import WORKLOADS, case_id

    cases = [(c[0], int(c[1]), list(c[2]) if len(c) > 2 else []) for c in json.loads(args.cases)]
    tracer = None
    if args.spans:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    records = []
    t_start = time.perf_counter()
    for scenario, dim, extra in cases:
        cid = case_id(scenario, dim)
        argv_case = ["run", scenario, "--dim", str(dim), "--seed", str(args.seed),
                     "--out", os.path.join(args.out_dir, cid), *extra]
        record = {"case": cid, "scenario": scenario, "dim": dim, "argv": argv_case, "error": None}
        t0 = time.perf_counter()
        with tracer.case(cid) if tracer else contextlib.nullcontext():
            try:
                record["exit_code"] = cli.main(argv_case)
            except Exception:  # one broken case must not hide the others' results
                record["exit_code"] = None
                record["error"] = traceback.format_exc(limit=-5)
        record["seconds"] = time.perf_counter() - t0
        records.append(record)
    wall = time.perf_counter() - t_start

    usage = resource.getrusage(resource.RUSAGE_SELF)
    report = {
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "cases": records,
        "numpy": np.__version__,
        "blas": _blas_info(np),
    }
    if tracer:
        # every workload's cases get a wall time, zero for those not run here
        known = [case_id(s, d) for cases_w in WORKLOADS.values() for s, d in cases_w]
        report["layers"] = tracer.layer_metrics(dict.fromkeys(known + [r["case"] for r in records]))
        with open(args.spans, "w", encoding="utf-8") as fh:
            json.dump([s.as_dict() for s in tracer.spans], fh)
    with open(args.report, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return 0


def _blas_info(np) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return {}
    return {"name": blas.get("name"), "version": blas.get("version")}


if __name__ == "__main__":
    sys.exit(main())
