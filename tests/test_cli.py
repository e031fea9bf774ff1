import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import time

import numpy as np
import pytest

import rwre_lab
from rwre_lab.cli import (COMMANDS, DEFAULT_CONFIG, ConfigError, _tau_z, _write_json,
                          canonical_json, config_hash, load_config, main, normalize_config)
from rwre_lab.decomposition import HORIZON_TAIL, EpsilonLaw, StoppingConfig, choose_horizon
from rwre_lab.estimators import RatePointEstimate
from rwre_lab.identities import annealed_identity_bytes
from rwre_lab.tilting import solve_tilt

from oracles import tau_survival

TWO_ATOM_GAP = {
    "law": {"kind": "iid-product", "dimension": 1, "kappa": 0.1,
            "atoms": [[0.4, 0.6], [0.6, 0.4]], "weights": [0.5, 0.5]},
    "z": [0.5], "ell": [1], "L": 2, "seed": 777,
    "gap": {"replicas": 4000},
}

ZERO_DIS_GAP = {
    "law": {"kind": "iid-product", "dimension": 1, "kappa": 0.1,
            "atoms": [[0.5, 0.5]], "weights": [1.0]},
    "z": [0.5], "ell": [1], "L": 2, "seed": 777,
    "gap": {"replicas": 400},
}


def wide_law_config(d: int, kappa: float, tilt: float) -> dict:
    """A d-dimensional two-atom law, uniform rows moved by +-tilt on +-e1, with z = 0.2 e1."""
    rows = [[1 / (2 * d) + s * tilt, 1 / (2 * d) - s * tilt] + [1 / (2 * d)] * (2 * d - 2)
            for s in (1, -1)]
    return {"law": {"kind": "iid-product", "dimension": d, "kappa": kappa, "atoms": rows,
                    "weights": [0.5, 0.5]},
            "z": [0.2] + [0.0] * (d - 1), "ell": [1] + [0] * (d - 1)}


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


class TestConfig:
    def test_roundtrip_lossless(self):
        cfg = normalize_config(TWO_ATOM_GAP)
        again = normalize_config(json.loads(canonical_json(cfg)))
        assert cfg == again
        assert config_hash(cfg) == config_hash(again)

    def test_hash_ignores_key_order(self):
        cfg = normalize_config(TWO_ATOM_GAP)
        reordered = dict(reversed(list(TWO_ATOM_GAP.items())))
        assert config_hash(normalize_config(reordered)) == config_hash(cfg)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown"):
            normalize_config({"laws": {}})
        with pytest.raises(ConfigError, match="unknown"):
            normalize_config({"gap": {"replica": 1}})

    def test_defaults_applied(self):
        cfg = normalize_config({})
        assert cfg == DEFAULT_CONFIG


class TestVerify:
    def test_default_config_passes(self, tmp_path, capsys):
        code = main(["--out", str(tmp_path), "verify"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("PASS") == 6
        report = json.loads((tmp_path / "verify_report.json").read_text())
        assert report["passed"] is True
        assert len(report["families"]) == 6
        assert {f["family"] for f in report["families"]} == {
            "tilt-invariants", "identity-annealed", "identity-quenched",
            "decomposition-coincidence", "psi-identity", "tau-waiting-time"}

    def test_corrupted_tilt_fails_naming_invariant(self, monkeypatch, capsys):
        # shift theta off the solved tilt: the factorization u = D e^<theta,e> m breaks
        def corrupted(law, z):
            tp = solve_tilt(law, z)
            return dataclasses.replace(tp, theta=tuple(float(v) + 0.05 for v in tp.theta))

        monkeypatch.setattr("rwre_lab.cli.solve_tilt", corrupted)
        code = main(["verify"])
        out = capsys.readouterr().out
        assert code == 1
        assert "FAIL" in out
        assert "tilt-invariants" in out
        assert "factorization" in out

    def test_wrong_psi_factor_fails_the_psi_family(self, tmp_path, monkeypatch, capsys):
        # the one-step check must evaluate psi_factor itself: drop its correction term
        monkeypatch.setattr("rwre_lab.cli.psi_factor", lambda tp, eps, xi, step: xi)
        cfg = write_config(tmp_path, {"verify": {"n_max": 2, "tau_draws": 20_000}})
        code = main(["--config", cfg, "--out", str(tmp_path), "verify"])
        assert code == 1
        report = json.loads((tmp_path / "verify_report.json").read_text())
        failed = {f["family"] for f in report["families"] if not f["passed"]}
        assert failed == {"psi-identity"}

    def test_field_law_usage_error(self, tmp_path, capsys, monkeypatch):
        # the annealed identity closes atom by atom; a field law is a usage error,
        # named by law.kind before any family runs (the tilt family ran first before)
        monkeypatch.setattr("rwre_lab.cli.tilt_invariant_residuals",
                            lambda tp: pytest.fail("a family ran"))
        payload = {"law": {"kind": "markov-field", "dimension": 1, "kappa": 0.1,
                           "states": [[0.4, 0.6], [0.6, 0.4]], "beta": 0.5},
                   "verify": {"n_max": 2, "tau_draws": 1000}}
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "out"
        assert main(["--config", cfg, "--out", str(out), "verify"]) == 64
        captured = capsys.readouterr()
        assert captured.err.startswith("error: law.kind = 'markov-field'")
        assert "i.i.d. product law" in captured.err and "Traceback" not in captured.err
        assert captured.out == ""
        assert not out.exists()

    def test_budget_violation_exits_2(self, tmp_path, capsys):
        # the 12^6 paths of this 6-D law fit the path budget, but the quenched
        # family's box of 15^6 sites does not: it ran for 10 s, then exited 2
        # naming no key
        t0 = time.perf_counter()
        cfg = write_config(tmp_path, wide_law_config(6, 0.05, 0.02))
        assert main(["--config", cfg, "verify"]) == 2
        assert time.perf_counter() - t0 < 5.0
        assert capsys.readouterr().err == ("budget error: verify.n_max = 6: the quenched "
                                           "realization of 11390625 sites exceeds cap 10000000\n")

    @pytest.mark.parametrize("payload,key", [
        ({"verify": {"n_max": 40}}, "verify.n_max = 40 enumerates"),  # 2^40 paths
        ({"verify": {"n_max": 24}}, "verify.n_max = 24 enumerates"),  # 2^24 paths
        ({"verify": {"tau_draws": 10**10}}, "verify.tau_draws = 10000000000"),
        # 30^4 paths fit the path budget, but not times the 2^4 symbol words of psi
        ({**wide_law_config(15, 0.01, 0.005), "verify": {"n_max": 4}},
         "verify.n_max = 4 enumerates (2d)^n = 810000 paths times"),
        ({"law": {"kind": "iid-product", "dimension": 2, "kappa": 0.1,
                  "atoms": [[0.3, 0.2, 0.25, 0.25], [0.2, 0.3, 0.25, 0.25]],
                  "weights": [0.5, 0.5]},
          "z": [0.2, 0.1], "ell": [1, 0], "verify": {"n_max": 40}},
         "verify.n_max = 40 enumerates"),  # 4^40 paths: no d > 1 cap runs 6 instead
        ({"verify": {"theta_count": 10**9}}, "verify.theta_count = 1000000000"),
    ])
    def test_budgets_refused_before_any_family(self, tmp_path, capsys, monkeypatch, payload,
                                               key):
        # refused before the first family runs: no oracle is called, exit 2
        monkeypatch.setattr("rwre_lab.cli.tilt_invariant_residuals",
                            lambda tp: pytest.fail("a family ran"))
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "out"
        assert main(["--config", cfg, "--out", str(out), "verify"]) == 2
        printed = capsys.readouterr()
        err = printed.err
        assert err.startswith("budget error: ") and key in err and "Traceback" not in err
        assert "PASS" not in printed.out and "FAIL" not in printed.out
        assert not (out / "verify_report.json").exists()

    def test_many_atoms_refused_before_any_family(self, tmp_path, capsys, monkeypatch):
        # 64 atoms at n_max 6: the annealed identity's site-grouped tables need
        # the estimate, and one byte less of budget refuses the law itself
        monkeypatch.setattr("rwre_lab.cli.tilt_invariant_residuals",
                            lambda tp: pytest.fail("a family ran"))
        right = np.linspace(0.3, 0.7, 64)
        law = {"kind": "iid-product", "dimension": 1, "kappa": 0.1,
               "atoms": [[p, 1.0 - p] for p in right.tolist()], "weights": [1 / 64] * 64}
        cfg = write_config(tmp_path, {"law": law})
        need = annealed_identity_bytes(64, 6, 1)
        out = tmp_path / "out"
        for budget, key in ((need - 1, "law.atoms = 64 atoms at verify.n_max = 6"),
                            (need, "verify.tau_draws")):
            monkeypatch.setattr("rwre_lab.numutil.MEMORY_BUDGET", budget)
            assert main(["--config", cfg, "--out", str(out), "verify"]) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"budget error: {key}") and "Traceback" not in err
            assert not out.exists()

    @pytest.mark.parametrize("payload,thetas,blocks", [
        ({"verify": {"tau_draws": 2000}}, 5, 6),  # one path block at each n = 1 .. 6
        # n = 11 spans two blocks of 1024 paths
        ({"verify": {"n_max": 11, "theta_count": 1, "tau_draws": 2000}}, 1, 12),
        # 4^6 = 4096 paths make four blocks
        ({**wide_law_config(2, 0.1, 0.05), "verify": {"theta_count": 2, "tau_draws": 2000}},
         2, 9),
    ])
    def test_fold_budget_edge(self, tmp_path, capsys, monkeypatch, payload, thetas, blocks):
        # a run of exactly FOLD_BUDGET folds runs; one fold more is refused,
        # naming verify.theta_count, before any family runs
        folds = thetas * blocks
        cfg = write_config(tmp_path, payload)
        monkeypatch.setattr("rwre_lab.identities.FOLD_BUDGET", folds)
        assert main(["--config", cfg, "verify"]) == 0
        capsys.readouterr()
        monkeypatch.setattr("rwre_lab.identities.FOLD_BUDGET", folds - 1)
        monkeypatch.setattr("rwre_lab.cli.tilt_invariant_residuals",
                            lambda tp: pytest.fail("a family ran"))
        out = tmp_path / "out"
        assert main(["--config", cfg, "--out", str(out), "verify"]) == 2
        printed = capsys.readouterr()
        assert printed.err == (f"budget error: verify.theta_count = {thetas} thetas x {blocks} "
                               f"path blocks = {folds} folds, over the {folds - 1}-fold budget\n")
        assert printed.out == "" and not out.exists()

    @pytest.mark.parametrize("dimension,n_max,ran", [(1, 3, 3), (2, 7, 7)])
    def test_report_records_the_n_max_it_ran(self, tmp_path, capsys, dimension, n_max, ran):
        # every dimension runs verify.n_max itself, 2-D beyond the 6 it was once capped at
        law = {"kind": "iid-product", "dimension": 2, "kappa": 0.1,
               "atoms": [[0.3, 0.2, 0.25, 0.25], [0.2, 0.3, 0.25, 0.25]], "weights": [0.5, 0.5]}
        payload = {"verify": {"n_max": n_max, "theta_count": 2, "tau_draws": 30000}}
        if dimension == 2:
            payload.update(law=law, z=[0.2, 0.1], ell=[1, 0])
        cfg = write_config(tmp_path, payload)
        assert main(["--config", cfg, "--out", str(tmp_path), "verify"]) == 0
        out = capsys.readouterr().out
        report = json.loads((tmp_path / "verify_report.json").read_text())
        assert report["n_max"] == ran and report["passed"] is True
        assert out.splitlines()[0].endswith(f"n_max = {ran}")

    def test_tau_stats_draws_over_the_memory_budget_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"tau": {"draws": 10**10}})
        out = tmp_path / "out"
        assert main(["--config", cfg, "--out", str(out), "tau-stats"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("budget error: tau.draws = 10000000000 draws")
        assert not (out / "tau_stats.csv").exists()

    @pytest.mark.parametrize("scale", ["a", -0.5, True, None, [0.5], 0.5])
    def test_theta_scale_must_be_a_number(self, tmp_path, capsys, scale):
        # the theta range is the constant THETA_SCALE; no config value moves
        # it, a number or not: verify.theta_scale is refused as an unknown key
        cfg = write_config(tmp_path, {"verify": {"theta_scale": scale}})
        out = tmp_path / "out"
        assert main(["--config", cfg, "--out", str(out), "verify"]) == 64
        err = capsys.readouterr().err
        assert err == "error: unknown config key verify.theta_scale\n"
        assert not out.exists()

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_every_row_passes_by_its_tolerance(self, tmp_path, capsys, monkeypatch, seed):
        # passed == (metric <= tolerance) row by row, except psi's two-part rule:
        # its metric is the larger of two errors, the one-step algebra's held to
        # ONESTEP_ABS. Halving or doubling psi_factor's correction makes both fail
        cfg = write_config(tmp_path, {"verify": {"n_max": 3, "tau_draws": 2000}, "seed": seed})
        for scale in (1.0, 0.5, 2.0):
            real = rwre_lab.cli.psi_factor
            monkeypatch.setattr("rwre_lab.cli.psi_factor", lambda tp, eps, xi, step:
                                xi + scale * (real(tp, eps, xi, step) - xi))
            main(["--config", cfg, "--out", str(tmp_path), "verify"])
            monkeypatch.undo()
            rows = json.loads((tmp_path / "verify_report.json").read_text())["families"]
            for row in rows:
                if row["family"] != "psi-identity":
                    assert row["passed"] == (row["metric"] <= row["tolerance"]), row
            psi = next(row for row in rows if row["family"] == "psi-identity")
            assert psi["tolerance"] == rwre_lab.cli.IDENTITY_REL
            assert psi["passed"] == (scale == 1.0)
            assert psi["passed"] <= (psi["metric"] <= psi["tolerance"])

    def test_two_dimensional_suite_within_a_minute(self, tmp_path, capsys):
        import time

        payload = {
            "law": {"kind": "iid-product", "dimension": 2, "kappa": 0.05,
                    "atoms": [[0.3, 0.2, 0.25, 0.25], [0.2, 0.3, 0.25, 0.25]],
                    "weights": [0.5, 0.5]},
            "z": [0.3, 0.0], "ell": [1, 0], "L": 2, "seed": 5,
            "verify": {"n_max": 5, "theta_count": 3,
                       "tau_draws": 100_000},
        }
        cfg = write_config(tmp_path, payload)
        t0 = time.perf_counter()
        code = main(["--config", cfg, "verify"])
        elapsed = time.perf_counter() - t0
        assert code == 0
        assert elapsed < 60.0


class TestGap:
    def test_two_atom_certifies(self, tmp_path, capsys):
        cfg = write_config(tmp_path, TWO_ATOM_GAP)
        code = main(["--config", cfg, "--out", str(tmp_path), "gap"])
        assert code == 0
        report = json.loads((tmp_path / "gap_report.json").read_text())
        assert report["verdict"] == "certified"
        assert report["gap"] > 0
        assert report["significance"] > 5
        assert report["config_hash"] == config_hash(normalize_config(TWO_ATOM_GAP))
        trace = (tmp_path / "gap_trace.csv").read_text().splitlines()
        assert trace[0].startswith("# config_hash=")
        assert len(trace) == 2 + TWO_ATOM_GAP["gap"]["replicas"]
        # the stop step goes to stderr, not to the artifact
        assert "steps_read" not in report
        read, steps = map(int, re.match(r"recursion read (\d+) of H - L = (\d+) steps: ",
                                        capsys.readouterr().err).groups())
        assert steps == report["horizon"] - 2 and 0 < read < steps

    def test_zero_disorder_inconclusive(self, tmp_path, capsys):
        cfg = write_config(tmp_path, ZERO_DIS_GAP)
        code = main(["--config", cfg, "--out", str(tmp_path), "gap"])
        assert code == 3
        report = json.loads((tmp_path / "gap_report.json").read_text())
        assert report["gap"] == 0.0

    def test_single_replica_usage_error(self, tmp_path, capsys):
        # one replica carries no spread, hence no standard error and no verdict
        payload = {"law": {"kind": "iid-product", "dimension": 1, "kappa": 0.1,
                           "atoms": [[0.3, 0.7], [0.7, 0.3]], "weights": [0.5, 0.5]},
                   "z": [0.5], "ell": [1], "L": 3, "gap": {"replicas": 1}}
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "out"
        assert main(["--config", cfg, "--out", str(out), "gap"]) == 64
        assert "at least 2 replicas" in capsys.readouterr().err
        assert not (out / "gap_report.json").exists()

    def test_non_finite_json_refused(self, tmp_path):
        path = tmp_path / "report.json"
        with pytest.raises(ValueError):
            _write_json(str(path), {"significance": -math.inf})
        assert not path.exists()

    def test_tail_sets_the_horizon(self, tmp_path, capsys):
        # without gap.horizon, H is the first horizon whose tau tail is below HORIZON_TAIL
        cfg = write_config(tmp_path, TWO_ATOM_GAP)
        assert main(["--config", cfg, "--out", str(tmp_path), "gap"]) == 0
        report = json.loads((tmp_path / "gap_report.json").read_text())
        h = report["horizon"]
        eps, stop = EpsilonLaw(report["kbar"], 1), StoppingConfig(2, 1)
        surv = tau_survival(eps, stop, h)
        assert surv[h] < HORIZON_TAIL <= surv[h - 1]
        assert h == choose_horizon(eps, stop)

    def test_hopeless_horizon_exits_2_at_once(self, tmp_path, capsys):
        # L = 7 at the default kbar 1/8: Harris's bound refuses before the scan to the cap
        cfg = write_config(tmp_path, {"L": 7})
        out = tmp_path / "out"
        t0 = time.perf_counter()
        assert main(["--config", cfg, "--out", str(out), "gap"]) == 2
        assert time.perf_counter() - t0 < 1.0
        assert capsys.readouterr().err.startswith("budget error: at L = 7, P(tau_1 > 10000000)")
        assert not out.exists()

    @pytest.mark.parametrize("payload, kbar, err", [
        ({"L": 400}, None, "budget error: at L = 400, P(tau_1 > 10000000) >= 1"),
        ({}, 1e-300, "budget error: at L = 3, P(tau_1 > 10000000) >= 1"),
        ({"L": 400, "gap": {"horizon": 1000}}, None, "budget error: at L = 400 and kbar = 0.1249"),
        ({"gap": {"horizon": 1000}}, 1e-300, "budget error: at L = 3 and kbar = 1e-300"),
    ], ids=["L-400", "kbar-1e-300", "L-400-fixed-horizon", "kbar-1e-300-fixed-horizon"])
    def test_expected_tau_out_of_range_exits_2(self, tmp_path, capsys, monkeypatch,
                                               payload, kbar, err):
        # each ended in an OverflowError traceback from E[tau_1], exit 1; the
        # horizon search now refuses first, and E[tau_1] itself refuses a fixed horizon.
        # kbar is no config key, so a tiny kbar comes in through the default rule
        if kbar is not None:
            monkeypatch.setattr("rwre_lab.decomposition.default_kbar", lambda tp: kbar)
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "out"
        assert main(["--config", cfg, "--out", str(out), "gap"]) == 2
        assert capsys.readouterr().err.startswith(err)
        assert not out.exists()

    def test_tail_outside_the_unit_interval_refused(self, tmp_path, capsys):
        # -1 and 0 scanned up to the 1e7-symbol cap before exit 2, and 1.5
        # exited 64 blaming the disorder; the cut is now the constant HORIZON_TAIL,
        # so gap.tail, at these values as at any other, is an unknown key
        for tail in (-1, 0, 1.5):
            cfg = write_config(tmp_path, {"gap": {"tail": tail}})
            out = tmp_path / "out"
            assert main(["--config", cfg, "--out", str(out), "gap"]) == 64
            assert capsys.readouterr().err == "error: unknown config key gap.tail\n"
            assert not out.exists()

    @pytest.mark.parametrize("ell", [[0, -1], [1, 0]], ids=["past-the-table", "read-as-[1]"])
    def test_ell_of_another_dimension_refused(self, tmp_path, capsys, ell):
        # on the 1-D default law [0, -1] indexed past the direction table, and
        # [1, 0] ran silently as [1]
        cfg = write_config(tmp_path, {"ell": ell})
        out = tmp_path / "out"
        assert main(["--config", cfg, "--out", str(out), "gap"]) == 64
        assert "error: ell must have law.dimension = 1 entries" in capsys.readouterr().err
        assert not out.exists()

    def test_memory_budget_exits_2(self, tmp_path, capsys):
        # the horizon is above the 1e7-symbol cap that choose_horizon also keeps
        payload = {**TWO_ATOM_GAP, "gap": {"replicas": 4000, "horizon": 100_000_000}}
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "out"
        assert main(["--config", cfg, "--out", str(out), "gap"]) == 2
        err = capsys.readouterr().err
        assert "budget" in err and "cap" in err
        assert not (out / "gap_report.json").exists()

    def test_replicas_over_the_memory_budget_exit_2(self, tmp_path, capsys, monkeypatch):
        # 10^10 replicas would hold 480 GB of floats: refused before any row is drawn
        monkeypatch.setattr("rwre_lab.estimators._ray_rows",
                            lambda *args, **kwargs: pytest.fail("a row was drawn"))
        cfg = write_config(tmp_path, {"gap": {"replicas": 10**10}})
        out = tmp_path / "out"
        assert main(["--config", cfg, "--out", str(out), "gap"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("budget error: gap.replicas = 10000000000")
        assert not (out / "gap_report.json").exists()

    def test_replay_is_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, TWO_ATOM_GAP)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["--config", cfg, "--out", str(out_a), "gap"]) == 0
        assert main(["--config", cfg, "--out", str(out_b), "gap"]) == 0
        assert (out_a / "gap_report.json").read_bytes() == (out_b / "gap_report.json").read_bytes()
        assert (out_a / "gap_trace.csv").read_bytes() == (out_b / "gap_trace.csv").read_bytes()


class TestRate:
    def test_boundary_point_closed_forms(self, tmp_path, capsys):
        payload = dict(TWO_ATOM_GAP)
        payload.pop("gap")
        payload["rate"] = {"velocities": [[1.0]]}
        cfg = write_config(tmp_path, payload)
        code = main(["--config", cfg, "--out", str(tmp_path), "rate"])
        assert code == 0
        lines = (tmp_path / "rate_grid.csv").read_text().splitlines()
        assert lines[0].startswith("# config_hash=")
        row = lines[2].split(",")
        i_a, i_q = float(row[1]), float(row[2])
        assert i_a == pytest.approx(-math.log(0.5), abs=0.01)
        assert i_q == pytest.approx(-(0.5 * math.log(0.4) + 0.5 * math.log(0.6)), abs=0.01)

    def test_boundary_midpoint_exits_0(self, tmp_path, capsys):
        # (0.5, 0.5) was rounded to a unit vector and exited 64 ("not a signed
        # unit vector: [0 0]"); the DP takes every boundary point but +-e_i
        payload = {"law": {"kind": "iid-product", "dimension": 2, "kappa": 0.1,
                           "atoms": [[0.3, 0.2, 0.25, 0.25], [0.2, 0.3, 0.25, 0.25]],
                           "weights": [0.5, 0.5]},
                   "z": [0.2, 0.1], "ell": [1, 0],
                   "rate": {"velocities": [[0.5, 0.5]], "horizon": 100, "env_replicas": 2}}
        cfg = write_config(tmp_path, payload)
        assert main(["--config", cfg, "--out", str(tmp_path), "rate"]) == 0
        point = json.loads((tmp_path / "rate_report.json").read_text())["points"][0]
        assert point["method"] == "enumeration" and point["x"] == [0.5, 0.5]

    @pytest.mark.parametrize("law", [
        DEFAULT_CONFIG["law"],
        {"kind": "markov-field", "dimension": 1, "kappa": 0.1, "beta": 0.5,
         "states": [[0.4, 0.6], [0.6, 0.4]]},
    ], ids=["iid-product", "markov-field"])
    def test_boundary_sites_is_an_unknown_key(self, tmp_path, capsys, law):
        # the boundary rates are closed forms, so no ray length is left to set
        cfg = write_config(tmp_path, {"law": law,
                                      "rate": {"velocities": [[1.0]], "boundary_sites": 2000}})
        out = tmp_path / "out"
        assert main(["--config", cfg, "--out", str(out), "rate"]) == 64
        assert capsys.readouterr().err.startswith("error: unknown config key rate.boundary_sites")
        assert not out.exists()

    def test_env_replicas_over_the_memory_budget_exit_2(self, tmp_path, capsys, monkeypatch):
        # 10^9 environments ended in a numpy allocation traceback and exit 1
        monkeypatch.setattr("rwre_lab.estimators.sample_environment",
                            lambda *args: pytest.fail("an environment was realized"))
        cfg = write_config(tmp_path, {"rate": {"env_replicas": 10**9}})
        out = tmp_path / "out"
        assert main(["--config", cfg, "--out", str(out), "rate"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("budget error: rate.env_replicas = 1000000000 of 8 floats")
        assert not out.exists()

    def test_field_boundary_annealed_rate_is_null(self, tmp_path, capsys):
        # a field's sites are correlated, so -log E omega(0, e) is no annealed
        # rate: null in the JSON, an empty cell in the CSV, n/a on stdout
        payload = {"law": {"kind": "markov-field", "dimension": 1, "kappa": 0.1, "beta": 0.5,
                           "states": [[0.4, 0.6], [0.6, 0.4], [0.5, 0.5]]},
                   "rate": {"velocities": [[1.0], [-1.0]]}}
        cfg = write_config(tmp_path, payload)
        assert main(["--config", cfg, "--out", str(tmp_path), "rate"]) == 0
        assert capsys.readouterr().out.count("I_a=n/a I_q=") == 2
        points = json.loads((tmp_path / "rate_report.json").read_text())["points"]
        i_q = -math.fsum(np.full(3, 1 / 3) * np.log([0.4, 0.6, 0.5]))  # uniform one-site law
        for point in points:
            assert point["I_a"] is point["stderr_a"] is point["horizon"] is None
            assert (point["I_q"], point["stderr_q"], point["method"]) == (i_q, 0.0, "boundary")
        lines = (tmp_path / "rate_grid.csv").read_text().splitlines()
        assert lines[1] == "x1,I_a,I_q,stderr_a,stderr_q,method,horizon"
        assert lines[2:] == [f"{x},,{i_q!r},,0.0,boundary," for x in (1.0, -1.0)]

    def test_symmetric_grid(self, tmp_path, capsys):
        payload = {
            "law": {"kind": "iid-product", "dimension": 1, "kappa": 0.1,
                    "atoms": [[0.5, 0.5]], "weights": [1.0]},
            "z": [0.5], "ell": [1], "seed": 3,
            "rate": {"velocities": [[0.5], [-0.5]], "horizon": 200},
        }
        cfg = write_config(tmp_path, payload)
        code = main(["--config", cfg, "--out", str(tmp_path), "rate"])
        assert code == 0
        lines = [l for l in (tmp_path / "rate_grid.csv").read_text().splitlines()[2:]]
        i_plus = float(lines[0].split(",")[2])
        i_minus = float(lines[1].split(",")[2])
        assert i_plus == pytest.approx(i_minus, abs=1e-9)

    def test_empty_grid_usage_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"rate": {"velocities": []}})
        assert main(["--config", cfg, "rate"]) == 64

    def test_rate_replay_byte_identical(self, tmp_path, capsys):
        payload = {"law": {"kind": "iid-product", "dimension": 1, "kappa": 0.1,
                           "atoms": [[0.4, 0.6], [0.6, 0.4]], "weights": [0.5, 0.5]},
                   "z": [0.5], "ell": [1], "seed": 12,
                   "rate": {"velocities": [[0.5]], "horizon": 100, "env_replicas": 4}}
        cfg = write_config(tmp_path, payload)
        out_a, out_b = tmp_path / "ra", tmp_path / "rb"
        assert main(["--config", cfg, "--out", str(out_a), "rate"]) == 0
        assert main(["--config", cfg, "--threads", "8", "--out", str(out_b), "rate"]) == 0
        assert (out_a / "rate_grid.csv").read_bytes() == (out_b / "rate_grid.csv").read_bytes()
        assert (out_a / "rate_report.json").read_bytes() == (out_b / "rate_report.json").read_bytes()

    def test_tilted_mc_on_field_law_usage_error(self, tmp_path, capsys):
        # tilted-mc is removed: naming it, or setting one of its keys, is a
        # config error on either law kind, raised before any output exists
        field = {"kind": "markov-field", "dimension": 1, "kappa": 0.1,
                 "states": [[0.4, 0.6], [0.6, 0.4]], "beta": 0.2}
        iid = {"kind": "iid-product", "dimension": 1, "kappa": 0.1,
               "atoms": [[0.4, 0.6], [0.6, 0.4]], "weights": [0.5, 0.5]}
        cases = [(field, {"method": "tilted-mc"}, "tilted-mc"),
                 (iid, {"method": "tilted-mc"}, "tilted-mc"),
                 (iid, {"mc_replicas": 4000}, "rate.mc_replicas")]
        for i, (law, rate, named) in enumerate(cases):
            cfg = write_config(tmp_path, {"law": law, "z": [0.5], "ell": [1],
                                          "rate": {"velocities": [[0.5]], **rate}},
                               name=f"config{i}.json")
            out = tmp_path / f"out{i}"
            assert main(["--config", cfg, "--out", str(out), "rate"]) == 64
            assert named in capsys.readouterr().err
            assert not out.exists()

    def test_misspelled_law_key_usage_error(self, tmp_path, capsys):
        # "betta" would leave the field at beta = 0; unknown law keys and kinds
        # are config errors, raised before any output exists
        field = {"kind": "markov-field", "dimension": 1, "kappa": 0.1,
                 "states": [[0.4, 0.6], [0.6, 0.4]], "betta": 0.5}
        for i, (law, named) in enumerate([(field, "betta"),
                                          ({**field, "kind": "potts"}, "potts")]):
            cfg = write_config(tmp_path, {"law": law, "z": [0.5], "ell": [1], "L": 2},
                               name=f"config{i}.json")
            out = tmp_path / f"out{i}"
            assert main(["--config", cfg, "--out", str(out), "gap"]) == 64
            assert named in capsys.readouterr().err
            assert not out.exists()

    def test_velocity_outside_ball_usage_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"rate": {"velocities": [[1.5]]}})
        assert main(["--config", cfg, "rate"]) == 64

    def test_refused_report_leaves_no_grid(self, tmp_path, monkeypatch, capsys):
        # a nan error bar is refused by the JSON writer, before the CSV is written
        def nan_point(law, x, **kwargs):
            return RatePointEstimate(tuple(x), 0.1, 0.1, 0.0, math.nan, "enumeration", 40)

        monkeypatch.setattr("rwre_lab.cli.rate_point", nan_point)
        out = tmp_path / "out"
        assert main(["--out", str(out), "rate"]) == 64
        assert not (out / "rate_grid.csv").exists()
        assert not (out / "rate_report.json").exists()


class TestEnvSampleAndTau:
    def test_env_sample(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"env_sample": {"lo": [-5], "hi": [5]}})
        code = main(["--config", cfg, "--out", str(tmp_path), "env-sample"])
        assert code == 0
        lines = (tmp_path / "env.csv").read_text().splitlines()
        assert lines[0].startswith("# config_hash=")
        assert lines[1] == "x1,p_plus_e1,p_minus_e1"
        assert len(lines) == 13
        for row in lines[2:]:
            _, p, q = row.split(",")
            assert float(p) + float(q) == pytest.approx(1.0, abs=1e-12)

    def test_tau_stats(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"tau": {"draws": 30_000,
                                              "configs": [[0.125, 2], [0.25, 1]]}})
        code = main(["--config", cfg, "--out", str(tmp_path), "tau-stats"])
        assert code == 0
        lines = (tmp_path / "tau_stats.csv").read_text().splitlines()
        assert len(lines) == 4
        kb, L, draws, mean, se, expect, z = lines[2].split(",")
        assert float(expect) == pytest.approx(72.0)
        assert abs(float(z)) < 5

    def test_tau_stats_reads_no_law(self, tmp_path, capsys, monkeypatch):
        # tau reads only tau.* and the seed: |z|_1 = 1 has no tilt, which exited 64
        # before, yet the draws are those of the default z, and no tilt is solved
        monkeypatch.setattr("rwre_lab.cli.solve_tilt", lambda *a: pytest.fail("a tilt was solved"))
        tables = []
        for name, payload in (("default", {}), ("z-1", {"z": [1.0]})):
            cfg = write_config(tmp_path, {**payload, "tau": {"draws": 2000}})
            assert main(["--config", cfg, "--out", str(tmp_path / name), "tau-stats"]) == 0
            tables.append((tmp_path / name / "tau_stats.csv").read_text().splitlines()[1:])
        assert tables[0] == tables[1]
        monkeypatch.undo()
        assert main(["--config", cfg, "gap"]) == 64
        assert "|z|_1 = 1.0 must be < 1" in capsys.readouterr().err

    def test_tau_stats_default_configs_in_2d(self, tmp_path, capsys):
        # the default k = 0.25 fills the whole 2-D alphabet (2d * k = 1); tau only needs k
        cfg = write_config(tmp_path, {
            "law": {"kind": "iid-product", "dimension": 2, "kappa": 0.1,
                    "atoms": [[0.3, 0.2, 0.25, 0.25], [0.2, 0.3, 0.25, 0.25]],
                    "weights": [0.5, 0.5]},
            "z": [0.2, 0.1], "ell": [1, 0], "tau": {"draws": 30_000}})
        code = main(["--config", cfg, "--out", str(tmp_path), "tau-stats"])
        assert code == 0
        rows = [r.split(",") for r in (tmp_path / "tau_stats.csv").read_text().splitlines()[2:]]
        assert [(float(r[0]), int(r[1])) for r in rows] == [(0.125, 1), (0.125, 2), (0.25, 2)]
        assert float(rows[2][5]) == pytest.approx(20.0)
        assert all(abs(float(r[6])) < 5 for r in rows)

    @pytest.mark.parametrize("command,artifact,payload", [
        ("verify", "verify_report.json", {"verify": {"n_max": 3, "tau_draws": 20_000}}),
        ("tau-stats", "tau_stats.csv", {"tau": {"draws": 20_000}}),
    ])
    def test_replay_is_byte_identical(self, tmp_path, capsys, command, artifact, payload):
        # thetas, xi and taus are pure functions of the seed; a new seed moves them
        cfg = write_config(tmp_path, payload)
        runs = []
        for name, seed in (("a", "5"), ("b", "5"), ("c", "6")):
            assert main(["--config", cfg, "--seed", seed, "--out", str(tmp_path / name),
                         command]) == 0
            runs.append((tmp_path / name / artifact).read_text())
        assert runs[0] == runs[1]
        assert runs[2] != runs[0].replace("seed=5", "seed=6").replace('"seed": 5', '"seed": 6')

    @pytest.mark.parametrize("command,section,field", [("verify", "verify", "tau_draws"),
                                                       ("tau-stats", "tau", "draws"),
                                                       ("rate", "rate", "env_replicas")])
    @pytest.mark.parametrize("draws", [0, 1, 2.5])
    def test_fewer_than_two_draws_rejected(self, tmp_path, capsys, command, section, field,
                                           draws):
        # a standard error needs two draws (or environment replicas): refuse
        # the config before any artifact
        with pytest.raises(ConfigError, match=f"{section}.{field}"):
            normalize_config({section: {field: draws}})
        cfg = write_config(tmp_path, {section: {field: draws}})
        out = tmp_path / "out"
        assert main(["--config", cfg, "--out", str(out), command]) == 64
        assert "integer >= 2" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("kbar", [0.0, 1.0, 1.5, True, "0.125"])
    def test_tau_kbar_outside_the_unit_interval_rejected(self, tmp_path, capsys, kbar):
        cfg = write_config(tmp_path, {"tau": {"draws": 1000, "configs": [[kbar, 2]]}})
        out = tmp_path / "out"
        assert main(["--config", cfg, "--out", str(out), "tau-stats"]) == 64
        assert "error: tau.configs[0][0] must be a kbar in (0, 1)" in capsys.readouterr().err
        assert not out.exists()

    def test_oversized_box_exits_2(self, tmp_path, capsys):
        # 10^8 sites: refused by the realization cap before anything is allocated
        cfg = write_config(tmp_path, {"env_sample": {"lo": [-10], "hi": [100_000_000]}})
        out = tmp_path / "out"
        assert main(["--config", cfg, "--out", str(out), "env-sample"]) == 2
        assert "exceeds cap" in capsys.readouterr().err
        assert not (out / "env.csv").exists()

    def test_equal_draws_have_no_standard_error(self):
        with pytest.raises(ValueError, match="no standard error"):
            _tau_z(np.array([3, 3]), 2.0)
        mean, se, z = _tau_z(np.array([1, 3]), 1.0)
        assert (mean, se, z) == (2.0, 1.0, 1.0)


class TestUsage:
    def test_missing_config_file(self, capsys):
        assert main(["--config", "/nonexistent.json", "verify"]) == 64

    def test_bad_json(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text("{nope")
        assert main(["--config", str(p), "verify"]) == 64

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 64

    @pytest.mark.parametrize("argv", [[], ["--seed", "3"], ["gap", "rate"]],
                             ids=["none", "options-only", "two"])
    def test_a_missing_or_unknown_subcommand_exits_64(self, capsys, argv):
        assert main(argv) == 64
        err = capsys.readouterr().err
        assert err.startswith("usage: rwre-lab") and "Traceback" not in err

    def test_options_may_follow_the_subcommand(self, tmp_path, capsys):
        after, before = tmp_path / "after", tmp_path / "before"
        assert main(["gap", "--seed", "3", "--out", str(after)]) == 0
        assert main(["--seed", "3", "--out", str(before), "gap"]) == 0
        names = sorted(path.name for path in after.iterdir())
        assert names == ["gap_report.json", "gap_trace.csv"]
        assert names == sorted(path.name for path in before.iterdir())
        for name in names:
            assert (after / name).read_bytes() == (before / name).read_bytes()

    def test_help_lists_each_subcommand_in_order(self, capsys):
        assert main(["--help"]) == 0
        listed = capsys.readouterr().out.split("\nsubcommands:\n", 1)[1].splitlines()
        assert [tuple(line.split(None, 1)) for line in listed] == [
            (name, text) for name, (_, text) in COMMANDS.items()]

    def test_invalid_law_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"law": {"kind": "iid-product", "dimension": 1,
                                              "kappa": 0.1, "atoms": [[0.7, 0.2]],
                                              "weights": [1.0]}})
        assert main(["--config", cfg, "verify"]) == 64

    @pytest.mark.parametrize("text,message", [
        ("[1, 2]", "config must be a JSON object"),
        ('{"gap": 5}', "gap must be an object, got 5"),
        (json.dumps({"law": {**TWO_ATOM_GAP["law"],
                             "atoms": [[0.4, 0.6], [0.6, 0.4], [0.5, 0.5]]}}),
         "law: weights must align with atoms"),
        (json.dumps({"law": {**TWO_ATOM_GAP["law"], "atoms": [[0.05, 0.95], [0.6, 0.4]]}}),
         "law: entry 0.05 below ellipticity floor 0.1"),
    ], ids=["array", "section-not-object", "three-atoms-two-weights", "entry-below-kappa"])
    def test_refused_before_any_artifact(self, tmp_path, capsys, text, message):
        path = tmp_path / "config.json"
        path.write_text(text)
        out = tmp_path / "out"
        assert main(["--config", str(path), "--out", str(out), "gap"]) == 64
        err = capsys.readouterr().err
        assert err == f"error: {message}\n"
        assert "Traceback" not in err and not out.exists()


# the scale root of this law at z 0.5 is C = (1 - z^2) / (4 m+ m-) = 1.875e15, 51
# doublings from where the bracket starts; with a row entry of 1e-310, 4/S^2 bounding
# the root is past the largest double
EXTREME_LAW = {"kind": "iid-product", "dimension": 1, "kappa": 1e-300,
               "atoms": [[0.9999999999999999, 1e-16]], "weights": [1.0]}
BEYOND_DOUBLES_LAW = {**EXTREME_LAW, "kappa": 1e-310, "atoms": [[0.9999999999999, 1e-310]]}
# S^2 = 1.0e-308 lies between 1/max (5.6e-309) and 4/max (2.2e-308): the root is below
# 1/S^2, whose quadruple is past the largest double
BAND_LAW = {**EXTREME_LAW, "kappa": 1e-309, "atoms": [[0.9999999999999999, 2.5e-309]]}
# the readout P(X_200 = 100) of rate's 400-step evolution falls more than 2^1074 below
# its step's peak in some of the eight environments
UNDERFLOW_RATE = {"law": {"kind": "iid-product", "dimension": 1, "kappa": 1e-10,
                          "atoms": [[0.9999999, 1e-7], [1e-7, 0.9999999]], "weights": [0.5, 0.5]},
                  "rate": {"velocities": [[0.5]]}}


class TestExtremeLaws:
    @pytest.mark.parametrize("command,code", [("gap", 3), ("verify", 0)])
    def test_scale_root_of_1e15_solves(self, tmp_path, capsys, command, code):
        cfg = write_config(tmp_path, {"law": EXTREME_LAW, "z": [0.5]})
        out = tmp_path / "out"
        assert main(["--config", cfg, "--out", str(out), command]) == code
        report = json.loads((out / f"{command}_report.json").read_text())
        if command == "gap":  # one atom: no disorder, so no gap
            assert report["gap"] == 0.0 and report["stderr"] == 0.0
            assert report["tilt"]["C"] == pytest.approx(1.875e15, rel=1e-12)
        else:
            assert len(report["families"]) == 6 and report["passed"]

    @pytest.mark.parametrize("command, law", [
        pytest.param(command, law, id=prefix + command)
        for prefix, law in (("", BEYOND_DOUBLES_LAW), ("band-", BAND_LAW))
        for command in ("gap", "verify")])
    def test_root_bound_past_the_doubles_exits_2(self, tmp_path, capsys, command, law):
        cfg = write_config(tmp_path, {"law": law, "z": [0.5]})
        out = tmp_path / "out"
        assert main(["--config", cfg, "--out", str(out), command]) == 2
        err = capsys.readouterr().err
        assert err.startswith("budget error: law.atoms: the scale root lies below 1/S^2")
        assert "Traceback" not in err and not out.exists()

    def test_underflowing_rate_readout_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, UNDERFLOW_RATE)
        out = tmp_path / "out"
        assert main(["--config", cfg, "--out", str(out), "rate"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("budget error: P(X_200 = [100]) underflows")
        assert not out.exists()


ZERO_WEIGHT_2D = {"kind": "iid-product", "dimension": 2, "kappa": 0.05,
                  "atoms": [[0.3, 0.2, 0.25, 0.25], [0.2, 0.3, 0.25, 0.25]]}
# laws whose every row agrees on the ray direction +e1: each replica's ray reads one row
FIXED_RAY = {
    "two-equal": {"law": {"kind": "iid-product", "dimension": 1, "kappa": 0.1,
                          "atoms": [[0.33, 0.67], [0.33, 0.67]], "weights": [0.7, 0.3]},
                  "gap": {"replicas": 100}},
    "five-equal": {"law": {"kind": "iid-product", "dimension": 1, "kappa": 0.1,
                           "atoms": [[0.45, 0.55]] * 5, "weights": [0.2] * 5},
                   "gap": {"replicas": 100}},
    "fixed-e1": {"law": {"kind": "iid-product", "dimension": 2, "kappa": 0.05,
                         "atoms": [[0.31, 0.2, 0.2, 0.29], [0.31, 0.2, 0.29, 0.2]],
                         "weights": [0.1, 0.9]},
                 "z": [0.2, 0.1], "ell": [1, 0], "gap": {"replicas": 100}},
    # a row of weight 0 is never drawn, so it cannot break the agreement
    "zero-weight-first": {"law": {**TWO_ATOM_GAP["law"], "weights": [0.0, 1.0]},
                          "gap": {"replicas": 100}},
    "zero-weight-last": {"law": {**TWO_ATOM_GAP["law"], "weights": [1.0, 0.0]},
                         "gap": {"replicas": 100}},
    "zero-weight-2d-first": {"law": {**ZERO_WEIGHT_2D, "weights": [0.0, 1.0]},
                             "z": [0.2, 0.1], "ell": [1, 0], "gap": {"replicas": 100}},
    "zero-weight-2d-last": {"law": {**ZERO_WEIGHT_2D, "weights": [1.0, 0.0]},
                            "z": [0.2, 0.1], "ell": [1, 0], "gap": {"replicas": 100}},
    "field-one-state": {"law": {"kind": "markov-field", "dimension": 1, "kappa": 0.1,
                                "states": [[0.4, 0.6]], "beta": 0.5}},
    "field-fixed-e1": {"law": {"kind": "markov-field", "dimension": 2, "kappa": 0.05,
                               "states": [[0.3, 0.2, 0.2, 0.3], [0.3, 0.2, 0.3, 0.2]],
                               "beta": 0.5},
                       "z": [0.2, 0.1], "ell": [1, 0]},
}


# (field, its product twin): the field's state rows as atoms, at weights 1/S
THREE_ROWS = [[0.3, 0.7], [0.5, 0.5], [0.7, 0.3]]
INDEPENDENT_FIELDS = {
    "beta-0": ({"kind": "markov-field", "dimension": 1, "kappa": 0.1, "states": THREE_ROWS},
               {"kind": "iid-product", "dimension": 1, "kappa": 0.1, "atoms": THREE_ROWS,
                "weights": [1 / 3] * 3}),
    "equal-rows": ({"kind": "markov-field", "dimension": 1, "kappa": 0.1, "beta": 0.5,
                    "states": [[0.4, 0.6]] * 2},
                   {"kind": "iid-product", "dimension": 1, "kappa": 0.1,
                    "atoms": [[0.4, 0.6]] * 2, "weights": [0.5, 0.5]}),
}


class TestIndependentFields:
    @pytest.mark.parametrize("case", sorted(INDEPENDENT_FIELDS))
    def test_artifacts_are_the_product_twins(self, tmp_path, capsys, case):
        # an independent field is its product twin: every subcommand prints and
        # writes the same bytes, the config hash aside, the boundary I_a and
        # verify included
        runs = {}
        for name, law in zip(("field", "twin"), INDEPENDENT_FIELDS[case]):
            cfg = write_config(tmp_path, {
                "law": law, "seed": 1, "gap": {"replicas": 300},
                "rate": {"velocities": [[0.25], [1.0], [-1.0]], "horizon": 80,
                         "env_replicas": 3},
                "verify": {"n_max": 4, "tau_draws": 2000},
                "env_sample": {"lo": [-40], "hi": [40]}}, name=f"{name}.json")
            out = tmp_path / name
            codes = [main(["--config", cfg, "--out", str(out), cmd])
                     for cmd in ("gap", "rate", "verify", "env-sample")]
            runs[name] = codes, capsys.readouterr().out.replace(str(out), "OUT"), {
                f.name: [line for line in f.read_text().splitlines()
                         if "config_hash" not in line] for f in sorted(out.iterdir())}
        assert runs["field"] == runs["twin"]
        codes, printed, artifacts = runs["field"]
        assert codes[1:] == [0, 0, 0] and len(artifacts) == 6
        assert "I_a=n/a" not in printed


class TestFixedDirections:
    @pytest.mark.parametrize("with_out", [False, True], ids=["stdout", "out"])
    @pytest.mark.parametrize("case", sorted(FIXED_RAY))
    def test_gap_is_an_exact_zero(self, tmp_path, capsys, monkeypatch, case, with_out):
        # the two sides are one value, so the gap is 0 +- 0 at significance 0, with no
        # verdict either way; no replica's row is drawn, and the JSON holds no inf
        monkeypatch.setattr("rwre_lab.estimators._ray_rows",
                            lambda *args, **kwargs: pytest.fail("a row was drawn"))
        cfg = write_config(tmp_path, FIXED_RAY[case])
        out = tmp_path / "out"
        args = ["--config", cfg] + (["--out", str(out)] if with_out else [])
        assert main(args + ["gap"]) == 3
        assert capsys.readouterr().out == ("gap = 0.000000e+00 +- 0.00e+00 "
                                           "(significance 0.00, verdict inconclusive)\n")
        if with_out:
            report = json.loads((out / "gap_report.json").read_text())
            assert report["quenched_side"] == report["annealed_side"]
            assert report["gap"] == report["stderr"] == report["significance"] == 0.0
            trace = (out / "gap_trace.csv").read_text().splitlines()[2:]
            assert len(trace) == report["replicas"] and len({t.split(",")[1] for t in trace}) == 1

    @pytest.mark.parametrize("replicas", [100, 200])
    @pytest.mark.parametrize("law", ["product", "field"])
    def test_horizon_at_l_reads_no_row(self, tmp_path, capsys, monkeypatch, law, replicas):
        # at gap.horizon = L no block reads a row: every replica's value is kbar^L,
        # so the gap is 0 +- 0, not a verdict on the rounding of a constant sample
        monkeypatch.setattr("rwre_lab.estimators._ray_rows",
                            lambda *args, **kwargs: pytest.fail("a row was drawn"))
        config = {"L": 3, "gap": {"horizon": 3, "replicas": replicas}}
        cfg = write_config(tmp_path, {**config, **({"law": FIELD_LAW} if law == "field" else {})})
        assert main(["--config", cfg, "gap"]) == 3
        assert capsys.readouterr().out == ("gap = 0.000000e+00 +- 0.00e+00 "
                                           "(significance 0.00, verdict inconclusive)\n")

    def test_rate_has_one_environment(self, tmp_path, capsys):
        # five equal atoms: the means round, but every environment is the same one
        cfg = write_config(tmp_path, {**FIXED_RAY["five-equal"], "rate": {"velocities": [[0.5]]}})
        assert main(["--config", cfg, "rate"]) == 0
        assert capsys.readouterr().out == "x=[0.5] I_a=0.187733+-0.0e+00 I_q=0.187733+-0.0e+00\n"


FIELD_LAW = {"kind": "markov-field", "dimension": 1, "kappa": 0.1,
             "states": [[0.4, 0.6], [0.6, 0.4]], "beta": 0.5}
NON_FINITE = {
    "atom": {"law": {**TWO_ATOM_GAP["law"], "atoms": [[math.nan, 0.6], [0.6, 0.4]]}},
    "weight": {"law": {**TWO_ATOM_GAP["law"], "weights": [math.nan, 0.5]}},
    "state": {"law": {**FIELD_LAW, "states": [[0.4, 0.6], [math.nan, 0.4]]}},
    "beta": {"law": {**FIELD_LAW, "beta": math.nan}},
    "z": {"z": [math.nan]},
    "infinite-z": {"z": [math.inf]},
}


class TestNonFiniteConfig:
    @pytest.mark.parametrize("command", ["verify", "gap", "rate", "env-sample", "tau-stats"])
    @pytest.mark.parametrize("case", sorted(NON_FINITE))
    def test_refused_before_any_artifact(self, tmp_path, capsys, case, command):
        # json writes NaN and Infinity, and nan passes every comparison: the
        # loader refuses them, so no subcommand runs on them
        cfg = write_config(tmp_path, NON_FINITE[case])
        out = tmp_path / "out"
        assert main(["--config", cfg, "--out", str(out), command]) == 64
        assert "not finite" in capsys.readouterr().err
        assert not out.exists()

    def test_overflowing_literal_refused(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text('{"z": [1e999]}')
        with pytest.raises(ConfigError, match="1e999"):
            load_config(str(path))



NOT_INTEGER = [  # (key named in the error, subcommand, config)
    ("seed", "gap", {"seed": 1.5}),
    ("L", "gap", {"L": 2.5}),
    ("gap.replicas", "gap", {"gap": {"replicas": 100.5}}),
    ("gap.horizon", "gap", {"gap": {"horizon": 100.5}}),
    ("gap.horizon", "gap", {"gap": {"horizon": 0}}),  # 0 does not mean "choose"
    ("verify.n_max", "verify", {"verify": {"n_max": 2.5}}),
    ("rate.horizon", "rate", {"rate": {"horizon": 100.5}}),
    ("law.dimension", "gap", {"law": {**TWO_ATOM_GAP["law"], "dimension": 1.5}}),
    ("law.range", "env-sample", {"law": {**FIELD_LAW, "range": 2.0}}),
    ("law.sweeps", "env-sample", {"law": {**FIELD_LAW, "sweeps": True}}),
    ("env_sample.lo[0]", "env-sample", {"env_sample": {"lo": [-1.5], "hi": [3]}}),
    ("tau.draws", "tau-stats", {"tau": {"draws": True}}),
    ("tau.configs[0][1]", "tau-stats", {"tau": {"draws": 1000, "configs": [[0.125, 2.7]]}}),
    ("ell[0]", "gap", {"ell": [True]}),
    ("verify.theta_count", "verify", {"verify": {"theta_count": 0}}),  # psi reads one theta
    ("verify.n_max", "verify", {"verify": {"n_max": 0}}),  # would pass having checked nothing
    ("verify.n_max", "verify", {"verify": {"n_max": -3}}),
    ("verify.tau_draws", "verify", {"verify": {"tau_draws": 1}}),  # no standard error
    ("rate.horizon", "rate", {"rate": {"horizon": 0}}),
    ("rate.horizon", "rate", {"rate": {"horizon": -4}}),
]


class TestIntegerKeys:
    @pytest.mark.parametrize("key,command,payload", NOT_INTEGER,
                             ids=[f"{i}-{key}" for i, (key, _, _) in enumerate(NOT_INTEGER)])
    def test_refused_before_any_artifact(self, tmp_path, capsys, key, command, payload):
        # a float is neither truncated nor left to fail deep in a run, and
        # JSON true/false are not integers
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "out"
        assert main(["--config", cfg, "--out", str(out), command]) == 64
        assert f"error: {key} must be an integer" in capsys.readouterr().err
        assert not out.exists()


# Runs one subcommand in a fresh interpreter, then prints its exit code and
# whether numpy.random and OpenSSL's hashlib module were ever imported.
IMPORT_PROBE = """
import sys
from rwre_lab.cli import main
code = main(sys.argv[1:])
print(code, "numpy.random" in sys.modules, "_hashlib" in sys.modules)
"""


def run_probe(tmp_path, command, payload):
    cfg = write_config(tmp_path, payload)
    src = os.path.dirname(os.path.dirname(rwre_lab.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE, "--config", cfg, "--out",
                           str(tmp_path / "out"), command],
                          capture_output=True, text=True, env=env, timeout=300)
    return done.stdout.split()[-3:]


class TestImports:
    @pytest.mark.parametrize("command", ["gap", "rate", "env-sample", "verify", "tau-stats"])
    def test_product_law_runs_load_neither_numpy_random_nor_openssl(self, tmp_path, command):
        # product-law rows, environments, verify's thetas, xi and taus, the
        # tau-stats draws and the config hash all come from the SplitMix64 site
        # hash: numpy.random (which loads OpenSSL through secrets and hmac) and
        # hashlib stay out of the process
        assert run_probe(tmp_path, command, {}) == ["0", "False", "False"]

    @pytest.mark.parametrize("command", ["gap", "rate", "env-sample"])
    def test_field_law_runs_load_neither_numpy_random_nor_openssl(self, tmp_path, command):
        # the heat bath draws its sweeps from the site hash too
        payload = {"law": {**FIELD_LAW, "states": [[0.15, 0.85], [0.85, 0.15]], "sweeps": 1},
                   "L": 2, "gap": {"replicas": 1000, "horizon": 60}}
        assert run_probe(tmp_path, command, payload) == ["0", "False", "False"]
