"""Acceptance suite: one test per exit criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
summary lines and timings.
"""

import json
import math
import time

import numpy as np
import pytest

from rwre_lab.cli import main, normalize_config
from rwre_lab.decomposition import (EpsilonLaw, StoppingConfig, expected_tau,
                                    make_epsilon_law, sample_tau_batch)
from rwre_lab.environments import IIDProductLaw
from rwre_lab.estimators import certify_gap, rate_point
from rwre_lab.numutil import derive_seed
from rwre_lab.tilting import solve_tilt, tilt_invariant_residuals
from rwre_lab.identities import (decomposed_endpoint_distribution, qz_endpoint_distribution,
                                 verify_identity_annealed, verify_identity_quenched,
                                 verify_psi_identity)
from rwre_lab.environments import centered_box, sample_environment

from envhelpers import constant_law
from oracles import exact_gap_oracle

TWO_ATOM = IIDProductLaw(1, [[0.4, 0.6], [0.6, 0.4]], [0.5, 0.5], 0.1)
LAW_2D = IIDProductLaw(2, [[0.3, 0.2, 0.25, 0.25], [0.2, 0.3, 0.25, 0.25]],
                       [0.5, 0.5], 0.1)


def random_product_law(rng, d):
    kappa = rng.uniform(0.15, 0.4) / (2 * d)
    base = 2 * kappa + (1 - 4 * d * kappa) * rng.dirichlet(np.ones(2 * d))
    wobble = rng.uniform(-1.0, 1.0, size=2 * d)
    wobble -= wobble.mean()
    amp = rng.uniform(0.0, 0.9) * kappa / max(float(np.abs(wobble).max()), 1e-12)
    return IIDProductLaw(d, [base + amp * wobble, base - amp * wobble], [0.5, 0.5], kappa)


def random_velocity(rng, d):
    z = rng.uniform(-1.0, 1.0, size=d)
    return z / (np.abs(z).sum() + 1e-12) * rng.uniform(0.05, 0.9)


def report(num, name, elapsed, limit):
    print(f"\nACCEPTANCE {num} ({name}): PASS in {elapsed:.2f}s (limit {limit:.0f}s)")


def test_criterion_1_tilt_construction():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1)
    count = 0
    for d in (1, 2, 3):
        for _ in range(17 if d < 3 else 16):
            law = random_product_law(rng, d)
            tp = solve_tilt(law, random_velocity(rng, d))
            res = tilt_invariant_residuals(tp)
            assert max(res.values()) <= 1e-10, (d, res)
            count += 1
    assert count == 50
    tp = solve_tilt(constant_law(1, [0.5, 0.5], 0.1), [0.5])
    assert abs(tp.C - 0.75) <= 1e-12
    assert abs(tp.u[0] - 0.75) <= 1e-12 and abs(tp.u[1] - 0.25) <= 1e-12
    assert abs(tp.D - math.sqrt(3) / 2) <= 1e-12
    assert abs(tp.theta[0] - math.log(math.sqrt(3))) <= 1e-12
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report(1, "tilt construction", elapsed, 1)


def test_criterion_2_change_of_measure_identities():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2)
    worst = 0.0
    for law, z, n_max in ((TWO_ATOM, [0.5], 10), (LAW_2D, [0.3, -0.1], 6)):
        d = law.dimension
        tp = solve_tilt(law, z)
        thetas = rng.uniform(-2.0, 2.0, size=(20, d))
        env = sample_environment(law, derive_seed(2026, d), centered_box(d, n_max + 1))
        for n in range(1, n_max + 1):
            for lhs, rhs in (verify_identity_annealed(law, tp, thetas, n),
                             verify_identity_quenched(env, tp, thetas, n)):
                worst = max(worst, float(np.max(np.abs(lhs - rhs) / np.abs(rhs))))
    assert worst <= 1e-10, worst
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    report(2, f"change-of-measure identities (worst rel {worst:.1e})", elapsed, 120)


def test_criterion_3_decomposition_and_psi():
    t0 = time.perf_counter()
    worst = 0.0
    cases = [(TWO_ATOM, [0.5], 5), (LAW_2D, [0.3, 0.1], 3)]
    for law, z, n_max in cases:
        d = law.dimension
        tp = solve_tilt(law, z)
        eps = make_epsilon_law(tp)
        env = sample_environment(law, derive_seed(3, d), centered_box(d, n_max + 1))
        for n in range(1, n_max + 1):
            ref = qz_endpoint_distribution(tp, n)
            dec = decomposed_endpoint_distribution(tp, eps, n)
            worst = max(worst, max(abs(ref[k] - dec.get(k, 0.0)) for k in ref))
            lhs, rhs = verify_psi_identity(tp, eps, env, np.full(d, 0.2), n)
            worst = max(worst, abs(lhs - rhs) / abs(rhs))
    assert worst <= 1e-10, worst
    # one-step reweighting algebra at randomized environment ratios
    rng = np.random.default_rng(33)
    tp = solve_tilt(TWO_ATOM, [0.5])
    eps = make_epsilon_law(tp)
    worst_one = 0.0
    for _ in range(500):
        xi = rng.uniform(0.5, 1.5)
        for k in range(2):
            total = eps.kbar + (tp.u[k] - eps.kbar) * xi + eps.kbar * (xi - 1.0)
            worst_one = max(worst_one, abs(total - tp.u[k] * xi))
    assert worst_one <= 1e-12, worst_one
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    report(3, f"decomposition coincidence and psi identity (worst {worst:.1e})", elapsed, 120)


def test_criterion_4_waiting_time_statistics():
    t0 = time.perf_counter()
    draws = 1_000_000
    for i, kbar in enumerate((0.125, 0.25)):
        for L in (1, 2, 3):
            eps = EpsilonLaw(kbar, 1)
            cfg = StoppingConfig(L, 0)
            taus = sample_tau_batch(eps, cfg, draws, derive_seed(4, i, L))
            expect = expected_tau(eps, cfg)
            se = taus.std(ddof=1) / math.sqrt(draws)
            z = (taus.mean() - expect) / se
            assert abs(z) < 4.0, (kbar, L, z)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    report(4, "waiting-time statistics at one million draws", elapsed, 60)


def test_criterion_5_zero_disorder_collapse():
    t0 = time.perf_counter()
    law0 = constant_law(1, [0.5, 0.5], 0.1)
    tp0 = solve_tilt(law0, [0.5])
    rep = certify_gap(tp0, make_epsilon_law(tp0), StoppingConfig(2, 0), law0,
                      budget=2000, seed=5)
    assert abs(rep.quenched_side - rep.annealed_side) <= 3 * rep.stderr
    assert rep.verdict == "inconclusive"
    est = rate_point(law0, [0.5], seed=5, horizon=400)
    cramer = 0.5 * (1.5 * math.log(1.5) + 0.5 * math.log(0.5))
    assert abs(est.I_q - cramer) < 0.01
    assert abs(est.I_a - cramer) < 0.01
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    report(5, f"zero-disorder collapse (rate {est.I_q:.4f} vs {cramer:.4f})", elapsed, 300)


def test_criterion_6_strict_gap_at_desk_scale():
    t0 = time.perf_counter()
    tp = solve_tilt(TWO_ATOM, [0.5])
    eps = EpsilonLaw(0.125, 1)
    cfg = StoppingConfig(2, 0)
    rep = certify_gap(tp, eps, cfg, TWO_ATOM, budget=20_000, seed=6)
    assert rep.gap > 0.0
    assert rep.significance > 5.0
    assert rep.verdict == "certified"
    # small-horizon full enumeration over ray environments confirms the
    # Monte Carlo gap at the same truncated functional: 2e6 replicas make the
    # stderr small, and 4 of them keep a false alarm below 1e-4
    h = 12
    q_o, a_o = exact_gap_oracle(tp, eps, cfg, TWO_ATOM, h)
    rep_h = certify_gap(tp, eps, cfg, TWO_ATOM, budget=2_000_000, horizon=h, seed=9)
    assert rep_h.annealed_side == pytest.approx(a_o, abs=1e-12)
    assert abs(rep_h.gap - (a_o - q_o)) <= 4 * rep_h.stderr
    # boundary closed forms, reproduced by the estimator
    est = rate_point(TWO_ATOM, [1.0], seed=6)
    i_a_expect = -math.log(0.5)
    i_q_expect = -(0.5 * math.log(0.4) + 0.5 * math.log(0.6))
    assert abs(est.I_a - i_a_expect) < 0.01
    assert abs(est.I_q - i_q_expect) < 0.01
    assert est.I_a < est.I_q
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0
    report(6, f"strict gap certified (gap {rep.gap:.3e}, significance {rep.significance:.1f})",
           elapsed, 600)


def test_criterion_7_ordering_never_violated(tmp_path):
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    worst_sig = math.inf
    for trial in range(10):
        d = 1 if trial % 3 else 2
        law = random_product_law(rng, d)
        z = random_velocity(rng, d)
        tp = solve_tilt(law, z)
        ell = int(2 * np.argmax(np.abs(z)) + (0 if z[np.argmax(np.abs(z))] > 0 else 1))
        rep = certify_gap(tp, make_epsilon_law(tp), StoppingConfig(2, ell), law,
                          budget=1500, seed=700 + trial)
        assert rep.verdict != "falsified"
        assert rep.significance > -3.0
        worst_sig = min(worst_sig, rep.significance)
    # the command front end never reports a falsification either
    for name, payload, want in [
        ("two_atom", {"law": {"kind": "iid-product", "dimension": 1, "kappa": 0.1,
                              "atoms": [[0.4, 0.6], [0.6, 0.4]], "weights": [0.5, 0.5]},
                      "z": [0.5], "ell": [1], "L": 2, "seed": 77,
                      "gap": {"replicas": 4000}}, 0),
        ("zero_dis", {"law": {"kind": "iid-product", "dimension": 1, "kappa": 0.1,
                              "atoms": [[0.5, 0.5]], "weights": [1.0]},
                      "z": [0.5], "ell": [1], "L": 2, "seed": 77,
                      "gap": {"replicas": 400}}, 3),
    ]:
        cfg_path = tmp_path / f"{name}.json"
        cfg_path.write_text(json.dumps(payload))
        code = main(["--config", str(cfg_path), "--out", str(tmp_path / name), "gap"])
        assert code == want
        assert code != 1
    elapsed = time.perf_counter() - t0
    report(7, f"ordering never violated (worst significance {worst_sig:+.2f})", elapsed, 600)


def test_criterion_8_byte_identical_replay(tmp_path):
    t0 = time.perf_counter()
    payload = {"law": {"kind": "iid-product", "dimension": 1, "kappa": 0.1,
                       "atoms": [[0.4, 0.6], [0.6, 0.4]], "weights": [0.5, 0.5]},
               "z": [0.5], "ell": [1], "L": 2, "seed": 8,
               "gap": {"replicas": 4000}}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(payload))
    blobs = []
    for run, threads in (("a", 1), ("b", 1), ("c", 8)):
        out = tmp_path / run
        code = main(["--config", str(cfg_path), "--threads", str(threads),
                     "--out", str(out), "gap"])
        assert code == 0
        blobs.append(((out / "gap_report.json").read_bytes(),
                      (out / "gap_trace.csv").read_bytes()))
    assert blobs[0] == blobs[1], "same seed, same thread count must replay bytes"
    assert blobs[0] == blobs[2], "thread count must not change any output byte"
    elapsed = time.perf_counter() - t0
    report(8, "byte-identical replay across runs and thread counts", elapsed, 600)
