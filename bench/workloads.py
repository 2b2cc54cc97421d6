"""Workloads of the scenario benchmark and the routes none of them covers.

A workload is a fixed list of scenario cases, each run as
``ballfourier run <scenario> --dim <dim> --seed <seed> --out <dir>``.  The
lists are chosen so that each workload stresses a different layer:

* ``h3-slices``: the d=3 forward boundary slice, one lambda per call, with the
  Busemann matrix rebuilt on every call (about 98% of the wall time).
* ``h2-spectral-sweep``: the d=2 forward slice batched over 200 lambdas that
  share one Busemann matrix (about 99%), plus the cold d=2 c-function fit,
  Plancherel density table and kappa calibration.
* ``oracle-pw``: spherical functions (the d=2 ``jeft_direct`` oracle and the
  imaginary-axis radial transform) and ``helgason_forward`` at arbitrary
  directions and complex lambda.  The full-grid slice is about 4% here, so a
  forward-slice optimisation should leave this workload unchanged.
"""

from __future__ import annotations

WORKLOADS = {
    "h3-slices": [
        ("eigen", 3),
        ("functional-equation", 3),
        ("jeft-equivalence", 3),
    ],
    "h2-spectral-sweep": [
        ("inversion", 2),
        ("plancherel", 2),
    ],
    "oracle-pw": [
        ("jeft-equivalence", 2),
        ("pw-recovery", 2),
        ("pw-recovery", 3),
        ("inversion", 3),
        ("plancherel", 3),
        ("asymptotic", 2),
        ("asymptotic", 3),
        ("c-table", 2),
    ],
}

# Routes and scenarios no workload runs, with the measurement that kept them out.
GAPS = [
    {
        "what": "transforms.jeft far non-radial route (_poisson_far)",
        "reason": "one d=3 evaluation took 138 s; the d=2 asymptotic case with "
        "--bump-shift 0.5 fails asymptotic_final_ratio at 1.27e-3 against 1e-3; "
        "add it after ROADMAP item 5",
    },
    {
        "what": "scenarios kaverage-bridge and calibrate",
        "reason": "they repeat the forward-slice work of h3-slices and "
        "h2-spectral-sweep; kaverage-bridge d=3 takes 45.7 s, calibrate "
        "10-12 s per dim and ignores --dim",
    },
    {
        "what": "grids.k_average_profile",
        "reason": "only kaverage-bridge calls it, and that scenario is left out",
    },
]


def case_id(scenario: str, dim: int) -> str:
    return f"{scenario}-d{dim}"
