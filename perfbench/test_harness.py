"""Tests of the benchmark's own logic on tiny inputs; no workload is run."""

import json
import math
import re
import sys

import pytest

import checks
import harness
import spans


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

def test_summarize_gives_median_quartiles_and_count():
    s = harness.summarize([5.0, 1.0, 4.0, 2.0, 3.0])
    assert s == {"median": 3.0, "q1": 1.5, "q3": 4.5, "n": 5}
    assert harness.summarize([0.25]) == {"median": 0.25, "q1": 0.25, "q3": 0.25, "n": 1}
    with pytest.raises(ValueError):
        harness.summarize([])


# ---------------------------------------------------------------------------
# spans
# ---------------------------------------------------------------------------

def _span(name, start, end, parent=None, thread="main"):
    return {"name": name, "start": start, "end": end, "parent": parent, "thread": thread}


def test_self_time_subtracts_the_union_of_direct_children():
    trace = [
        _span("a", 0.0, 10.0),
        _span("b", 1.0, 4.0, parent=0),
        _span("b", 2.0, 3.0, parent=1),  # recursion: not counted twice in b.s
        _span("c", 3.5, 7.0, parent=0),  # overlaps b: the union is 1.0..7.0
        _span("w", 0.0, 2.0, thread="worker"),
    ]
    t = spans.span_times(trace)
    assert t["a"] == {"s": 10.0, "self_s": 4.0, "calls": 1}
    assert t["b"] == {"s": 3.0, "self_s": 3.0, "calls": 2}
    assert t["c"]["self_s"] == 3.5
    assert spans.top_level_seconds(trace) == 10.0  # worker roots are not top level


def test_layer_metrics_derive_rates_and_unaccounted_time():
    trace = [_span("estimators.ray_inner_values", 1.0, 3.0)]
    counts = {"estimators.inner_cells": 100, "estimators.xi_matrix_bytes": 3 * 2**20}
    m = spans.layer_metrics(trace, counts, wall_s=5.0)
    assert m["estimators.ray_inner_values.s"] == 2.0
    assert m["estimators.inner_cells_per_s"] == 50.0
    assert m["estimators.xi_matrix_mb"] == 3.0
    assert m["walks.dp_cell_updates_per_s"] == 0.0  # layer not called
    assert m["trace.unaccounted_s"] + 2.0 == m["trace.wall_s"] == 5.0


def test_recorder_links_parents_and_sums_counts(tmp_path):
    rec = spans.Recorder()
    inner = rec.wrap("inner", lambda n: n * 2, count=lambda a, r: {"work": a["n"]})

    def outer_fn(k):
        return inner(k) + inner(k + 1)

    outer = rec.wrap("outer", outer_fn)
    assert outer(3) == 14
    names = [(s["name"], s["parent"]) for s in rec.spans]
    assert names == [("outer", None), ("inner", 0), ("inner", 0)]
    assert rec.counts["work"] == 7
    rec.dump(str(tmp_path / "spans.json"))
    assert json.loads((tmp_path / "spans.json").read_text())["counts"] == {"work": 7}


# ---------------------------------------------------------------------------
# correctness checks feeding fail_rate
# ---------------------------------------------------------------------------

IID_CFG = {"law": {"kind": "iid-product", "dimension": 1, "kappa": 0.1,
                   "atoms": [[0.4, 0.6], [0.6, 0.4]], "weights": [0.5, 0.5]},
           "z": [0.5], "ell": [1], "L": 3, "gap": {"replicas": 10}}
REFERENCE = {"seeds": list(range(20)), "exact": {}, "verdict": "certified",
             "mc": {"quenched_side": {"mean": -0.1, "sd": 0.001},
                    "gap": {"mean": 0.01, "sd": 0.001}}}


def _write_gap_report(out_dir, **override):
    report = dict(checks.gap_exact_iid_1d(IID_CFG), replicas=10, quenched_side=-0.1, gap=0.01,
                  verdict="certified")
    report.update(override)
    out_dir.mkdir(exist_ok=True)
    (out_dir / "gap_report.json").write_text(json.dumps(report))


def _check(out_dir, reference=REFERENCE, exit_code=0):
    return checks.check_run("gap", IID_CFG, reference, exit_code, out_dir)


def test_checker_passes_a_run_that_matches(tmp_path):
    _write_gap_report(tmp_path, quenched_side=-0.1 + 5 * 0.001)
    assert _check(tmp_path) == []


def test_corrupted_reference_counts_as_a_failure(tmp_path):
    _write_gap_report(tmp_path)
    corrupt = json.loads(json.dumps(REFERENCE))
    corrupt["mc"]["gap"]["mean"] += 100 * corrupt["mc"]["gap"]["sd"]
    assert any(f.startswith("gap=") for f in _check(tmp_path, corrupt))
    corrupt = dict(REFERENCE, verdict="inconclusive")
    assert any("verdict" in f for f in _check(tmp_path, corrupt))


EXACT = checks.gap_exact_iid_1d(IID_CFG)


@pytest.mark.parametrize("override", [{"annealed_side": EXACT["annealed_side"] * (1 + 1e-9)},
                                      {"W": EXACT["W"] * (1 + 1e-9)},
                                      {"horizon": EXACT["horizon"] + 1},
                                      {"verdict": "falsified"}, {"quenched_side": -0.2}])
def test_wrong_exact_or_statistical_fields_fail(tmp_path, override):
    _write_gap_report(tmp_path, **override)
    assert len(_check(tmp_path)) == 1


def test_wrong_exit_code_and_missing_artifacts_fail(tmp_path):
    _write_gap_report(tmp_path)
    assert _check(tmp_path, exit_code=3) == ["exit code 3, expected 0"]
    assert "unreadable artifacts" in _check(tmp_path / "missing")[0]


def test_artifact_digest_detects_a_changed_byte(tmp_path):
    (tmp_path / "a.csv").write_text("1,2\n")
    first = checks.artifact_digest(tmp_path, ["a.csv"])
    assert checks.artifact_digest(tmp_path, ["a.csv"]) == first
    (tmp_path / "a.csv").write_text("1,3\n")
    assert checks.artifact_digest(tmp_path, ["a.csv"]) != first


def test_closed_forms_match_the_library():
    try:
        import rwre_lab  # noqa: F401
    except ImportError:
        sys.path.insert(0, str(harness.SRC))
    from rwre_lab import cli, decomposition, estimators

    cfg = dict(IID_CFG, L=2, z=[0.3])
    exact = checks.gap_exact_iid_1d(cfg)
    law, tp, eps, stop = cli.build_problem(cli.normalize_config(cfg))
    h = decomposition.choose_horizon(eps, stop)
    assert exact["horizon"] == h
    assert math.isclose(exact["kbar"], eps.kbar, rel_tol=1e-12)
    et = decomposition.expected_tau(eps, stop)
    assert math.isclose(exact["expected_block"], et, rel_tol=1e-12)
    assert math.isclose(exact["W"], estimators.log_w_const(tp, stop.ell), rel_tol=1e-12)
    annealed = estimators.ray_log_inner_annealed_iid(tp, eps, stop, h) / exact["expected_block"]
    assert math.isclose(exact["annealed_side"], annealed, rel_tol=1e-12)


# ---------------------------------------------------------------------------
# BENCHMARK.json and the checked-in workloads
# ---------------------------------------------------------------------------

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_spec_follows_the_benchmark_contract():
    spec = harness.load_spec()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 1 <= spec["run_seconds"] <= 60 and isinstance(spec["run_seconds"], int)
    assert 2 <= len(spec["workloads"]) <= 8
    names = [w["name"] for w in spec["workloads"]]
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"} and 0 < len(w["why"]) <= 200 and "\n" not in w["why"]
    metrics = spec["end_to_end"] + spec["per_layer"]
    names += [m["name"] for m in metrics]
    assert len(names) == len(set(names)) and all(NAME.match(n) for n in names)
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    assert all(UNIT.match(m["unit"]) and m["better"] in ("lower", "higher") for m in metrics)
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_every_workload_has_a_config_and_a_current_reference():
    reference = harness.load_json(harness.REFERENCE)["workloads"]
    for w in harness.load_spec()["workloads"]:
        assert w["name"] in harness.WORKLOADS
        cfg = harness.load_config(w["name"])
        assert reference[w["name"]]["config_hash"] == harness.config_hash(cfg)
