"""Span tracing of ballfourier's layers, installed from outside the package.

``Tracer.install`` wraps a fixed list of public functions.  Each wrapper is
put in place of the original in every loaded ``ballfourier`` module that
holds a reference to it, so calls by imported name (``scenarios`` calling
``boundary_slices``) and calls inside a module (``transforms`` calling
``jeft``) are both recorded.  Spans stay in memory until the run ends.

Counts such as ``kernel_evals`` are computed from the call's arguments, not
measured inside the program: ``kernel_evals`` of a forward slice is support
points x boundary directions x lambdas, the dense-equivalent work size.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time

import numpy as np

from ballfourier.geometry import dist
from ballfourier.transforms import FAR_RADIUS


def _rows(a) -> int:
    a = np.asarray(a)
    return 1 if a.ndim < 2 else int(np.prod(a.shape[:-1]))


def _support_points(f) -> int:
    return int(np.count_nonzero(f.support_mask)) * int(f.values.shape[1])


def _count_busemann(xs, bs):
    return {"entries": _rows(xs) * _rows(bs)}


def _count_slices(f, lams, bs=None):
    dirs = len(f.boundary.directions) if bs is None else _rows(bs)
    return {"kernel_evals": _support_points(f) * dirs * int(np.size(lams))}


def _count_forward(f, lam, b):
    return {"kernel_evals": _support_points(f) * _rows(b)}


def _count_poisson(F, boundary, lam, x):
    return {"kernel_evals": _rows(x) * len(boundary.directions)}


def _count_jeft_direct(f, lam, x):
    return {"pairs": _rows(x) * _support_points(f)}


def _count_phi(dim, lam, r, *args, **kwargs):
    return {"points": int(np.size(r))}


def _count_sample(spec, radial, boundary):
    return {"points": len(radial) * len(boundary)}


def _jeft_route(f, lam, x):
    """The route transforms.jeft takes, classified from its inputs."""
    r_x = dist(np.zeros(f.dim), np.asarray(x, dtype=float))
    if r_x <= FAR_RADIUS[f.dim]:
        return {"calls.near": 1}
    return {"calls.far_radial": 1} if f.is_radial() else {"calls.far_nonradial": 1}


# (module, function, count of the call's arguments)
TRACED = [
    ("geometry", "busemann_field", _count_busemann),
    ("transforms", "boundary_slices", _count_slices),
    ("transforms", "helgason_forward", _count_forward),
    ("transforms", "poisson", _count_poisson),
    ("transforms", "jeft", _jeft_route),
    ("transforms", "jeft_direct", _count_jeft_direct),
    ("transforms", "spherical_transform", None),
    ("transforms", "calibrate_kappa", None),
    ("spectral", "spherical_phi", _count_phi),
    ("spectral", "c_function", None),
    ("spectral", "plancherel_density_table", None),
    ("grids", "sample_bump", _count_sample),
    ("paley_wiener", "estimate_type", None),
    ("paley_wiener", "holomorphy_circle_residual", None),
    ("paley_wiener", "decay_report", None),
    ("config", "parse_config", None),
    ("serialize", "results_to_json", None),
]

CASE = "case"


class Span:
    __slots__ = ("name", "start", "end", "parent", "case", "counts", "error")

    def __init__(self, name, parent, case, counts):
        self.name = name
        self.parent = parent
        self.case = case
        self.counts = counts
        self.start = self.end = 0.0
        self.error = None

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "case": self.case,
            "counts": self.counts,
            "error": self.error,
        }


class Tracer:
    """Records one span per call of each traced function, and one per case."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._case = None

    def _open(self, name, counts) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(name, parent, self._case, counts)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span):
        span.end = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def case(self, case_id: str):
        self._case = case_id
        span = self._open(CASE, {})
        try:
            yield
        finally:
            self._close(span)
            self._case = None

    def _wrap(self, name, fn, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name, count(*args, **kwargs) if count else {})
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                span.error = type(exc).__name__
                raise
            finally:
                self._close(span)

        return traced

    def install(self):
        """Wrap every TRACED function in every loaded ballfourier module."""
        modules = [m for key, m in sys.modules.items() if key == "ballfourier" or key.startswith("ballfourier.")]
        for mod_name, fn_name, count in TRACED:
            original = getattr(sys.modules[f"ballfourier.{mod_name}"], fn_name)
            traced = self._wrap(f"{mod_name}.{fn_name}", original, count)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, traced)

    def layer_metrics(self, case_ids) -> dict:
        """Per-layer metrics from the recorded spans.

        ``self_s`` is a span's duration minus that of its child spans.
        ``wall_share`` is a layer's inclusive time (its outermost spans, with
        their children) over the summed duration of the case spans.
        """
        n = len(self.spans)
        child_s = [0.0] * n
        children = [[] for _ in range(n)]
        for i, s in enumerate(self.spans):
            if s.parent is not None:
                child_s[s.parent] += s.end - s.start
                children[s.parent].append(s.name)
        stats = {}
        for name in [f"{m}.{f}" for m, f, _ in TRACED] + [CASE]:
            stats[name] = {"calls": 0, "self_s": 0.0, "incl_s": 0.0, "counts": {}, "errors": {}, "hits": 0}
        for i, s in enumerate(self.spans):
            st = stats[s.name]
            dur = s.end - s.start
            st["calls"] += 1
            st["self_s"] += dur - child_s[i]
            if not self._has_ancestor(i, s.name):
                st["incl_s"] += dur
            for key, value in s.counts.items():
                st["counts"][key] = st["counts"].get(key, 0) + value
            if s.error:
                st["errors"][s.error] = st["errors"].get(s.error, 0) + 1
            kids = children[i]
            if s.name == "transforms.calibrate_kappa" and "transforms.spherical_transform" not in kids:
                st["hits"] += 1
            if s.name == "spectral.plancherel_density_table" and "spectral.c_function" not in kids:
                st["hits"] += 1

        wall = stats[CASE]["incl_s"]

        def share(name):
            return stats[name]["incl_s"] / wall if wall > 0 else 0.0

        def hit_ratio(name):
            calls = stats[name]["calls"]
            return stats[name]["hits"] / calls if calls else 0.0

        out = {}
        for name, st in stats.items():
            if name == CASE:
                continue
            out[f"{name}.calls"] = st["calls"]
            out[f"{name}.self_s"] = st["self_s"]
            for key, value in st["counts"].items():
                out[f"{name}.{key}"] = value
        for name, key in (
            ("transforms.jeft", "calls.near"),
            ("transforms.jeft", "calls.far_radial"),
            ("transforms.jeft", "calls.far_nonradial"),
            ("geometry.busemann_field", "entries"),
            ("transforms.boundary_slices", "kernel_evals"),
            ("transforms.helgason_forward", "kernel_evals"),
            ("transforms.poisson", "kernel_evals"),
            ("transforms.jeft_direct", "pairs"),
            ("spectral.spherical_phi", "points"),
            ("grids.sample_bump", "points"),
        ):
            out.setdefault(f"{name}.{key}", 0)
        slices = stats["transforms.boundary_slices"]
        out["transforms.boundary_slices.kernel_evals_per_s"] = (
            slices["counts"].get("kernel_evals", 0) / slices["incl_s"] if slices["incl_s"] > 0 else 0.0
        )
        for name in ("transforms.boundary_slices", "transforms.helgason_forward", "spectral.spherical_phi"):
            out[f"{name}.wall_share"] = share(name)
        out["transforms.calibrate_kappa.cache_hit_ratio"] = hit_ratio("transforms.calibrate_kappa")
        out["spectral.plancherel_density_table.cache_hit_ratio"] = hit_ratio(
            "spectral.plancherel_density_table"
        )
        out["spectral.c_function.fit_errors"] = stats["spectral.c_function"]["errors"].get(
            "FitConditioningError", 0
        )
        out["scenarios.self_s"] = stats[CASE]["self_s"]
        per_case = {cid: 0.0 for cid in case_ids}
        for s in self.spans:
            if s.name == CASE:
                per_case[s.case] += s.end - s.start
        for cid, seconds in per_case.items():
            out[f"scenarios.{cid}.wall_s"] = seconds
        return out

    def _has_ancestor(self, i: int, name: str) -> bool:
        p = self.spans[i].parent
        while p is not None:
            if self.spans[p].name == name:
                return True
            p = self.spans[p].parent
        return False
