"""Byte-stable CSV/JSON serialization of reports and run results.

CSV output follows RFC 4180 (CRLF line endings, header row, decimal point,
UTF-8).  Floats are rendered with repr (shortest round-trip), so identical
inputs serialize to identical bytes.
"""

from __future__ import annotations

import json

import numpy as np


def _num(x) -> str:
    if isinstance(x, (np.floating, np.integer)):
        x = x.item()
    return repr(x)


def _csv(rows, header) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_num(v) if isinstance(v, (float, np.floating)) else str(v) for v in row))
    return "\r\n".join(lines) + "\r\n"


def type_estimate_to_csv(est) -> str:
    rows = []
    for i in range(len(est.boundary_points)):
        for k, s in enumerate(est.sigma_grid):
            rows.append((float(s), float(est.log_magnitudes[i, k]), i))
    return _csv(rows, ["sigma", "log_abs", "b_index"])


def report_to_json(report) -> str:
    return json.dumps(report.as_dict(), sort_keys=True, indent=2) + "\n"


def results_to_json(scenario: str, config_echo: dict, checks: list, summary: dict) -> str:
    doc = {
        "scenario": scenario,
        "config_echo": config_echo,
        "checks": checks,
        "summary": summary,
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"
