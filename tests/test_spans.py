"""The benchmark's timing spans still see every layer it measures.

``perfbench/spans.py`` wraps each traced function where its caller looks it
up (``rwre_lab.cli.certify_gap``, ``rwre_lab.estimators.choose_horizon``,
...). Those names load their module on first use, so a caller that read them
any other way would run unwrapped, and the layer would report 0. Each test
installs the spans, runs one small subcommand through ``cli.main`` and
checks that each of its layers recorded a span.
"""

import importlib
import importlib.util
import json
from pathlib import Path

import pytest

from rwre_lab import cli

BENCH = Path(__file__).resolve().parent.parent / "perfbench"

TINY = {"law": {"kind": "iid-product", "dimension": 1, "kappa": 0.1,
                "atoms": [[0.2, 0.8], [0.8, 0.2]], "weights": [0.5, 0.5]},
        "gap": {"replicas": 1000},
        "rate": {"horizon": 40, "env_replicas": 2},
        "verify": {"n_max": 3, "tau_draws": 1000}}

LAYERS = {
    "gap": {"cli.build_problem", "tilting.solve_tilt", "decomposition.choose_horizon",
            "estimators.certify_gap"},
    "rate": {"estimators.rate_point", "walks.log_point_probability_dp",
             "environments.omega_many"},
    "verify": {"tilting.verify_identity_annealed", "tilting.verify_identity_quenched",
               "decomposition.verify_psi_identity",
               "decomposition.decomposed_endpoint_distribution",
               "decomposition.sample_tau_batch"},
}


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", BENCH / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


@pytest.fixture
def spans(monkeypatch):
    """perfbench/spans.py, with every lookup site it rebinds restored after the test."""
    spans = load_spans()
    for _, sites, _ in spans.LAYERS:
        for module_name, attr in sites:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            # a site the module does not define is deleted again on undo
            monkeypatch.setattr(owner, leaf, getattr(owner, leaf, None), raising=False)
    return spans


@pytest.mark.parametrize("command", sorted(LAYERS))
def test_each_layer_records_a_span(tmp_path, spans, command):
    recorder = spans.Recorder()
    spans.install(recorder)
    cfg = tmp_path / "tiny.json"
    cfg.write_text(json.dumps(TINY))
    assert cli.main(["--config", str(cfg), "--out", str(tmp_path / "out"), command]) == 0
    recorded = {span["name"] for span in recorder.spans}
    assert LAYERS[command] <= recorded, f"no span: {sorted(LAYERS[command] - recorded)}"
