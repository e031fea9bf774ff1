"""Outside-in tracing: timing spans around the public functions of each layer.

``install`` replaces each traced function in the module namespace where its
caller looks it up (``rwre_lab.cli.certify_gap``, ``rwre_lab.estimators.
sample_ray_xi``, ...), so ``src/`` needs no change. Spans and counts stay in
memory and are written once at exit; ``layer_metrics`` turns them into the
per-layer numbers in the parent process.

Counts marked "computed" are derived from call arguments (array shapes,
horizons, draw counts), not measured, so they repeat exactly run to run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import threading
import time
from collections import defaultdict


def _shape2d(arr) -> tuple:
    import numpy as np

    return np.atleast_2d(np.asarray(arr)).shape


def _inner_cells(a, _result):
    rows, h = _shape2d(a["free_factors"])
    return {"estimators.inner_cells": rows * h * int(a["L"])}


def _xi_bytes(a, _result):
    return {"estimators.xi_matrix_bytes": int(a["n_rows"]) * int(a["horizon"]) * 8}


def _omega_sites(a, _result):
    return {"environments.omega_many.sites": _shape2d(a["sites"])[0]}


def _dp_cells(a, _result):
    n, d = int(a["n"]), int(a["env"].law.dimension)
    return {"walks.dp_cell_updates": n * (2 * n + 1) ** d * 2 * d}


def _paths(a, _result):
    return {"tilting.paths_enumerated": (2 * int(a["tp"].dimension)) ** int(a["n"])}


def _horizon(_a, result):
    return {"decomposition.horizon": int(result)}


def _tau_draws(a, _result):
    return {"decomposition.tau_draws": int(a["n"])}


# (span name, [(module, attribute) where callers look the function up], count fn)
LAYERS = [
    ("cli.build_problem", [("rwre_lab.cli", "build_problem")], None),
    ("tilting.solve_tilt", [("rwre_lab.cli", "solve_tilt"),
                            ("rwre_lab.estimators", "solve_tilt")], None),
    ("decomposition.choose_horizon", [("rwre_lab.estimators", "choose_horizon")], _horizon),
    ("decomposition.sample_tau_batch", [("rwre_lab.cli", "sample_tau_batch")], _tau_draws),
    ("decomposition.verify_psi_identity", [("rwre_lab.cli", "verify_psi_identity")], None),
    ("decomposition.decomposed_endpoint_distribution",
     [("rwre_lab.cli", "decomposed_endpoint_distribution")], None),
    ("tilting.verify_identity_annealed", [("rwre_lab.cli", "verify_identity_annealed")], _paths),
    ("tilting.verify_identity_quenched", [("rwre_lab.cli", "verify_identity_quenched")], _paths),
    ("estimators.certify_gap", [("rwre_lab.cli", "certify_gap")], None),
    ("estimators.sample_ray_xi", [("rwre_lab.estimators", "sample_ray_xi")], _xi_bytes),
    ("estimators.ray_inner_values", [("rwre_lab.estimators", "ray_inner_values")], _inner_cells),
    ("estimators.rate_point", [("rwre_lab.cli", "rate_point")], None),
    ("environments.sample_environment", [("rwre_lab.cli", "sample_environment"),
                                         ("rwre_lab.estimators", "sample_environment"),
                                         ("rwre_lab.environments", "sample_environment")],
     None),
    ("environments.omega_many", [("rwre_lab.environments", "Environment.omega_many")],
     _omega_sites),
    ("walks.log_point_probability_dp", [("rwre_lab.estimators", "log_point_probability_dp")],
     _dp_cells),
]


class Recorder:
    """Spans (name, start, end, parent, thread) and summed counts, in memory."""

    def __init__(self):
        self.spans: list = []
        self.counts: dict = defaultdict(int)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = threading.get_ident()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, count=None):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            with self._lock:
                sid = len(self.spans)
                self.spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                thread = "main" if threading.get_ident() == self._main else "worker"
                self.spans[sid] = {"name": name, "start": t0, "end": t1, "parent": parent,
                                   "thread": thread}
            if count is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                with self._lock:
                    for key, val in count(bound.arguments, result).items():
                        self.counts[key] += val
            return result

        return traced

    def dump(self, path: str):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, fh)


def install(recorder: Recorder, layers=LAYERS):
    """Wrap every traced function once, then rebind it at each lookup site."""
    for name, sites, count in layers:
        wrapped = None
        for module_name, attr in sites:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            if wrapped is None:
                wrapped = recorder.wrap(name, getattr(owner, leaf), count)
            setattr(owner, leaf, wrapped)


# ---------------------------------------------------------------------------
# analysis (parent process)
# ---------------------------------------------------------------------------

def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def span_times(spans: list) -> dict:
    """Per span name: inclusive seconds, self seconds and call count.

    Inclusive time counts only the outermost span of a name, so recursion is
    not counted twice. Self time is a span's duration minus the part of it
    covered by its direct children, clipped to the span.
    """
    children = defaultdict(list)
    for sid, sp in enumerate(spans):
        if sp["parent"] is not None:
            children[sp["parent"]].append(sid)
    out = defaultdict(lambda: {"s": 0.0, "self_s": 0.0, "calls": 0})
    for sid, sp in enumerate(spans):
        dur = sp["end"] - sp["start"]
        kids = [(max(spans[c]["start"], sp["start"]), min(spans[c]["end"], sp["end"]))
                for c in children[sid]]
        entry = out[sp["name"]]
        entry["self_s"] += dur - _covered([k for k in kids if k[1] > k[0]])
        entry["calls"] += 1
        anc = sp["parent"]
        while anc is not None and spans[anc]["name"] != sp["name"]:
            anc = spans[anc]["parent"]
        if anc is None:
            entry["s"] += dur
    return dict(out)


def top_level_seconds(spans: list) -> float:
    """Main-thread spans without a parent: the layers the CLI calls directly."""
    return sum(sp["end"] - sp["start"] for sp in spans
               if sp["parent"] is None and sp["thread"] == "main")


# rate metric -> (computed count, layer whose inclusive time it is divided by)
RATES = {
    "estimators.inner_cells_per_s": ("estimators.inner_cells", "estimators.ray_inner_values"),
    "walks.dp_cell_updates_per_s": ("walks.dp_cell_updates", "walks.log_point_probability_dp"),
    "decomposition.tau_draws_per_s": ("decomposition.tau_draws", "decomposition.sample_tau_batch"),
}


def layer_metrics(spans: list, counts: dict, wall_s: float) -> dict:
    """Flat per-layer metrics of one traced run; absent layers are left out."""
    out = {}
    for name, t in span_times(spans).items():
        out[f"{name}.s"] = t["s"]
        out[f"{name}.self_s"] = t["self_s"]
        out[f"{name}.calls"] = t["calls"]
    out.update(counts)
    for name, (count, layer) in RATES.items():
        secs = out.get(f"{layer}.s", 0.0)
        out[name] = counts.get(count, 0) / secs if secs > 0 else 0.0
    out["estimators.xi_matrix_mb"] = counts.get("estimators.xi_matrix_bytes", 0) / 2**20
    out["trace.wall_s"] = wall_s
    out["trace.unaccounted_s"] = wall_s - top_level_seconds(spans)
    return out
