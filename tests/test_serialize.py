"""CSV/JSON serialization: formats and byte stability."""

import json

from ballfourier.grids import BoundaryGrid, BumpSpec, RadialGrid, SpectralGrid, sample_bump
from ballfourier.paley_wiener import estimate_type
from ballfourier.serialize import results_to_json, type_estimate_to_csv


def small_field():
    radial = RadialGrid.gauss_legendre(24, 5.0)
    boundary = BoundaryGrid.disk(8)
    f = sample_bump(BumpSpec(dim=2, radius=1.0), radial, boundary)
    sgrid = SpectralGrid.gauss_legendre(5, 6.0)
    return f, sgrid


def test_type_estimate_csv():
    f, _ = small_field()
    est = estimate_type(f)
    csv = type_estimate_to_csv(est)
    lines = csv.split("\r\n")
    assert lines[0] == "sigma,log_abs,b_index"
    assert len(lines) == 2 + len(est.boundary_points) * len(est.sigma_grid)


def test_results_json_schema_and_determinism():
    checks = [{"name": "a", "value": 0.5, "tol": 1.0, "pass": True, "seconds": 0.0, "note": ""}]
    a = results_to_json("demo", {"dim": 2}, checks, {"total": 1, "passed": 1, "failed": 0, "wall_seconds": 0.0})
    b = results_to_json("demo", {"dim": 2}, checks, {"total": 1, "passed": 1, "failed": 0, "wall_seconds": 0.0})
    assert a == b
    doc = json.loads(a)
    assert set(doc) == {"scenario", "config_echo", "checks", "summary"}
    assert set(doc["checks"][0]) == {"name", "value", "tol", "pass", "seconds", "note"}
