import json
import math
import os

import pytest

from rwre_lab.cli import (DEFAULT_CONFIG, ConfigError, _write_json, canonical_json,
                          config_hash, load_config, main, normalize_config)
from rwre_lab.decomposition import EpsilonLaw, StoppingConfig, choose_horizon, tau_survival

TWO_ATOM_GAP = {
    "law": {"kind": "iid-product", "dimension": 1, "kappa": 0.1,
            "atoms": [[0.4, 0.6], [0.6, 0.4]], "weights": [0.5, 0.5]},
    "z": [0.5], "ell": [1], "L": 2, "kbar": 0.125, "seed": 777,
    "gap": {"replicas": 4000},
}

ZERO_DIS_GAP = {
    "law": {"kind": "iid-product", "dimension": 1, "kappa": 0.1,
            "atoms": [[0.5, 0.5]], "weights": [1.0]},
    "z": [0.5], "ell": [1], "L": 2, "seed": 777,
    "gap": {"replicas": 400},
}


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

    def test_corrupted_tilt_fails_naming_invariant(self, capsys):
        code = main(["verify", "--corrupt-theta"])
        out = capsys.readouterr().out
        assert code == 1
        assert "FAIL" in out
        assert "tilt-invariants" in out
        assert "factorization" in out

    def test_wrong_psi_factor_fails_the_psi_family(self, tmp_path, monkeypatch, capsys):
        # the one-step check must evaluate psi_factor itself: drop its correction term
        monkeypatch.setattr("rwre_lab.cli.psi_factor", lambda tp, eps, xi, step: xi)
        cfg = write_config(tmp_path, {"verify": {"n_max": 2, "psi_n_max": 2,
                                                 "tau_draws": 20_000}})
        code = main(["--config", cfg, "--out", str(tmp_path), "verify"])
        assert code == 1
        report = json.loads((tmp_path / "verify_report.json").read_text())
        failed = {f["family"] for f in report["families"] if not f["passed"]}
        assert failed == {"psi-identity"}

    def test_budget_violation_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"verify": {"psi_n_max": 40}})
        code = main(["--config", cfg, "verify"])
        assert code == 2

    def test_two_dimensional_suite_within_a_minute(self, tmp_path, capsys):
        import time

        payload = {
            "law": {"kind": "iid-product", "dimension": 2, "kappa": 0.05,
                    "atoms": [[0.3, 0.2, 0.25, 0.25], [0.2, 0.3, 0.25, 0.25]],
                    "weights": [0.5, 0.5]},
            "z": [0.3, 0.0], "ell": [1, 0], "L": 2, "seed": 5,
            "verify": {"n_max": 5, "psi_n_max": 4, "theta_count": 3,
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
        payload = {**TWO_ATOM_GAP, "gap": {"replicas": 4000, "tail": 1e-3}}
        cfg = write_config(tmp_path, payload)
        assert main(["--config", cfg, "--out", str(tmp_path), "gap"]) == 0
        h = json.loads((tmp_path / "gap_report.json").read_text())["horizon"]
        eps, stop = EpsilonLaw(0.125, 1), StoppingConfig(2, 1)
        surv = tau_survival(eps, stop, h)
        assert surv[h] < 1e-3 <= surv[h - 1]
        assert h < choose_horizon(eps, stop, tail=1e-4)

    def test_memory_budget_exits_2(self, tmp_path, capsys):
        # one chunk of 1024 rows at this horizon would need about 800 GB
        payload = {**TWO_ATOM_GAP, "gap": {"replicas": 4000, "horizon": 100_000_000}}
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "out"
        assert main(["--config", cfg, "--out", str(out), "gap"]) == 2
        assert "budget" in capsys.readouterr().err
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
                   "rate": {"velocities": [[1.0]], "boundary_sites": 2000}}
        cfg = write_config(tmp_path, payload)
        out_a, out_b = tmp_path / "ra", tmp_path / "rb"
        assert main(["--config", cfg, "--out", str(out_a), "rate"]) == 0
        assert main(["--config", cfg, "--threads", "8", "--out", str(out_b), "rate"]) == 0
        assert (out_a / "rate_grid.csv").read_bytes() == (out_b / "rate_grid.csv").read_bytes()
        assert (out_a / "rate_report.json").read_bytes() == (out_b / "rate_report.json").read_bytes()

    def test_tilted_mc_on_field_law_usage_error(self, tmp_path, capsys):
        # the tilted route closes the annealed mean atom by atom: product laws only
        payload = {"law": {"kind": "markov-field", "dimension": 1, "kappa": 0.1,
                           "states": [[0.4, 0.6], [0.6, 0.4]], "beta": 0.2},
                   "z": [0.5], "ell": [1],
                   "rate": {"velocities": [[0.5]], "method": "tilted-mc"}}
        cfg = write_config(tmp_path, payload)
        assert main(["--config", cfg, "--out", str(tmp_path), "rate"]) == 64
        assert "product law" in capsys.readouterr().err
        assert not (tmp_path / "rate_grid.csv").exists()

    def test_velocity_outside_ball_usage_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"rate": {"velocities": [[1.5]]}})
        assert main(["--config", cfg, "rate"]) == 64


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


class TestUsage:
    def test_missing_config_file(self, capsys):
        assert main(["--config", "/nonexistent.json", "verify"]) == 64

    def test_bad_json(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text("{nope")
        assert main(["--config", str(p), "verify"]) == 64

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 64

    def test_invalid_law_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"law": {"kind": "iid-product", "dimension": 1,
                                              "kappa": 0.1, "atoms": [[0.7, 0.2]],
                                              "weights": [1.0]}})
        assert main(["--config", cfg, "verify"]) == 64
