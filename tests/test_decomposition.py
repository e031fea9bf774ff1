import itertools
import math
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from rwre_lab.decomposition import (HORIZON_TAIL, TAIL_STEPS, TAU_BLOCK, TAU_HORIZON,
                                    EpsilonLaw, StoppingConfig, _harris_floor, _tail_blocks,
                                    check_tau_memory, choose_horizon, conditional_step_probs,
                                    default_kbar, expected_tau, make_epsilon_law,
                                    sample_tau_batch, tau_sd, validate_stopping)
from rwre_lab.environments import IIDProductLaw, centered_box, sample_environment
from rwre_lab.estimators import ray_inner_values, ray_log_inner_annealed_iid
from rwre_lab.identities import (_joint_path_weights, check_joint_pairs,
                                 decomposed_endpoint_distribution, psi_factor,
                                 qz_endpoint_distribution, verify_psi_identity)
from rwre_lab.numutil import MEMORY_BUDGET, BudgetError, derive_seed
from rwre_lab.tilting import solve_tilt

from envhelpers import constant_law, mean_environment, omega
from oracles import sample_ray_block_values, tau_survival

TWO_ATOM = IIDProductLaw(1, [[0.4, 0.6], [0.6, 0.4]], [0.5, 0.5], 0.1)
TP = solve_tilt(TWO_ATOM, [0.5])


def eps_eighth():
    return EpsilonLaw(0.125, 1)


U = 2.0**-53  # the unit roundoff of a double


def sd_rounding_bound(L: int) -> float:
    """A first-order bound, in units of U, on the relative error of ``tau_sd`` at L.

    It follows tau_sd's arithmetic step by step. Every operand is positive;
    k ** m is within 1 ulp, 2 U; a sum keeps the larger relative error of its
    terms, and a product or quotient the sum of its factors', each plus U for
    its own rounding; and delta = m - mean at most repeats mean's error plus
    U, because mean <= m / 2 for the nonincreasing weights k^j. ``ew``, ``em``
    and ``e2`` bound the errors of w, mean and m2.
    """
    ew = em = e2 = 0
    for bit in bin(L)[3:]:
        # h = km / (1 + km) carries 6; mean + m h, (1 + km) m2 + m m w h, (1 + km) w
        em, e2, ew = max(em, 7) + 1, max(e2 + 4, ew + 8) + 1, ew + 4
        if bit == "1":
            ed, eg = em + 1, max(ew, 2) + 1  # delta, and grown = w + km
            em, e2, ew = max(em, ed + eg + 4) + 1, max(e2, 2 * ed + ew + eg + 6) + 1, eg
    # sqrt((1 - k) odds) sqrt(m2 + w (1 + mean) ** 2 odds), with odds and the square
    # each within 1 ulp: a square root halves the error of its argument and rounds
    # once, and the product rounds once more
    return (4 / 2 + 1) + (max(e2, ew + 2 * em + 8) + 1) / 2 + 1 + 1


def expected_tau_linear_solve(kbar, L):
    """Independent oracle: first-passage solve on run-length states 0..L-1."""
    q = np.zeros((L, L))
    for r in range(L):
        q[r, 0] = 1.0 - kbar
        if r + 1 < L:
            q[r, r + 1] = kbar
    m = np.linalg.solve(np.eye(L) - q, np.ones(L))
    return float(m[0])


class TestEpsilonLaw:
    def test_default_kbar(self):
        assert default_kbar(TP) == pytest.approx(min(0.25, TP.c_z / 2), abs=0)

    def test_symbol_probs_normalize(self):
        eps = make_epsilon_law(TP)
        assert eps.symbol_probs().sum() == pytest.approx(1.0, abs=1e-15)

    def test_kbar_above_floor_rejected(self):
        eps = EpsilonLaw(0.3, 1)  # above min u = 0.25
        with pytest.raises(ValueError, match="min_e u"):
            eps.validate_against(TP)

    def test_kbar_saturating_alphabet_rejected(self):
        with pytest.raises(ValueError):
            EpsilonLaw(0.5, 1)


class TestConditionalStep:
    def test_forced_symbol(self):
        assert np.array_equal(conditional_step_probs(TP, eps_eighth(), 1), [0.0, 1.0])

    def test_free_symbol_probabilities(self):
        probs = conditional_step_probs(TP, eps_eighth(), 2)
        assert probs[0] == pytest.approx(5.0 / 6.0, abs=1e-12)
        assert probs[1] == pytest.approx(1.0 / 6.0, abs=1e-12)

    def test_marginal_is_step_law(self):
        eps = eps_eighth()
        marg = np.zeros(2)
        for s in range(2):
            marg += eps.kbar * conditional_step_probs(TP, eps, s)
        marg += eps.free_prob * conditional_step_probs(TP, eps, 2)
        assert np.allclose(marg, TP.u_array, atol=1e-15)


class TestExpectedTau:
    def test_half_one(self):
        # success probability 1/2 is a bare waiting-time rate, not a symbol law
        assert expected_tau(0.5, StoppingConfig(1, 0)) == pytest.approx(2.0)

    def test_eighth_two(self):
        assert expected_tau(EpsilonLaw(0.125, 1), StoppingConfig(2, 0)) == pytest.approx(72.0)

    @pytest.mark.parametrize("kbar,L", [(0.125, 1), (0.125, 2), (0.125, 3),
                                        (0.25, 1), (0.25, 2), (0.25, 3), (0.4, 4)])
    def test_against_linear_solve(self, kbar, L):
        closed = expected_tau(EpsilonLaw(kbar, 1), StoppingConfig(L, 0))
        assert closed == pytest.approx(expected_tau_linear_solve(kbar, L), rel=1e-12)

    @pytest.mark.parametrize("kbar,L", [(0.125, 342), (0.125, 400), (1e-300, 2), (0.4999, 1023)])
    def test_out_of_range_is_a_budget_error(self, kbar, L):
        # kbar^-L overflows (the first three) or the division by 1 - kbar does;
        # L = 341 at kbar 1/8 is the last finite one
        assert math.isfinite(expected_tau(0.125, StoppingConfig(341, 0)))
        with pytest.raises(BudgetError, match=f"at L = {L} and kbar = {kbar}, E\\[tau_1\\]"):
            expected_tau(kbar, StoppingConfig(L, 0))

    def test_sd_out_of_range_is_a_budget_error(self):
        # at kbar 1/8 and L = 200, Var tau_1, about 8^400, passes the floats, yet
        # sd[tau_1] is about E[tau_1] (tau_1 is nearly geometric) and is given
        stop = StoppingConfig(200, 0)
        assert tau_sd(0.125, stop) == pytest.approx(expected_tau(0.125, stop), rel=1e-15)
        with pytest.raises(BudgetError, match=r"^at L = 342 and kbar = 0\.125, sd\[tau_1\] "):
            tau_sd(0.125, StoppingConfig(342, 0))

    def test_against_monte_carlo(self):
        eps, cfg = EpsilonLaw(0.25, 1), StoppingConfig(2, 0)
        taus = sample_tau_batch(eps, cfg, 100_000, 5)
        se = taus.std(ddof=1) / math.sqrt(len(taus))
        assert abs(taus.mean() - expected_tau(eps, cfg)) < 4 * se


def sample_to(horizon: int, *args) -> np.ndarray:
    """``sample_tau_batch(*args)`` with its symbol cap TAU_HORIZON set to ``horizon``."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("rwre_lab.decomposition.TAU_HORIZON", horizon)
        return sample_tau_batch(*args)


def renewal_tau(k: float, L: int, n: int, rng) -> np.ndarray:
    """n run-completion times in renewal form: an independent judge of the sampler.

    Cut the Bernoulli(k) symbol string at its failures into attempts. An
    attempt completes with L successes in a row (probability p = k^L) or
    fails after j < L successes (probability k^j (1 - k), j + 1 symbols).
    Attempts are i.i.d., so the number N of failed attempts is Geometric(p)
    - 1, and given N the counts of failed run lengths are Multinomial(N, q)
    with q_j = k^j (1 - k) / (1 - p). Then tau = sum_j count_j (j + 1) + L.
    """
    runs = np.arange(L)
    counts = rng.multinomial(rng.geometric(k**L, n) - 1, k**runs * (1.0 - k) / (1.0 - k**L))
    return counts @ (runs + 1) + L


class TestSampleTau:
    def test_memory_budget_refuses_before_drawing(self, monkeypatch):
        # 10^10 draws hold an 80 GB result
        monkeypatch.setattr("rwre_lab.decomposition.site_uniforms",
                            lambda *args: pytest.fail("a draw was made"))
        with pytest.raises(BudgetError, match="n = 10000000000 draws at L = 2"):
            sample_tau_batch(0.25, StoppingConfig(2, 0), 10**10, 1)
        # the result, the tail table and its copy, the transfer rows and one block
        most = MEMORY_BUDGET // 8 - 2 * (TAU_HORIZON + 1) - TAIL_STEPS * 2 - 6 * TAU_BLOCK
        check_tau_memory(most, 2)
        with pytest.raises(BudgetError, match="tau.draws"):
            check_tau_memory(most + 1, 2, "tau.draws")

    def test_horizon_cap_signals_budget(self):
        # kbar^L = 1e-12: no stream completes a run within 10000 symbols
        eps, cfg = EpsilonLaw(1e-4, 1), StoppingConfig(3, 0)
        with pytest.raises(BudgetError, match="10000 symbols"):
            sample_to(10_000, eps, cfg, 8, 0)

    def test_draws_are_addressable(self, monkeypatch):
        # draw i is a function of (seed, i) alone: neither n nor the block of
        # draws located together changes a byte
        eps, cfg = EpsilonLaw(0.125, 1), StoppingConfig(3, 0)
        n = TAU_BLOCK + 4000
        full = sample_tau_batch(eps, cfg, n, 21)
        for m in (1, 777, TAU_BLOCK + 1):
            assert sample_tau_batch(eps, cfg, m, 21).tobytes() == full[:m].tobytes()
        for block in (7, 1000, TAU_BLOCK):
            monkeypatch.setattr("rwre_lab.decomposition.TAU_BLOCK", block)
            assert sample_tau_batch(eps, cfg, n, 21).tobytes() == full.tobytes()
        assert not np.array_equal(sample_tau_batch(eps, cfg, 777, 22), full[:777])

    @pytest.mark.parametrize("kbar,L", [(0.125, 1), (0.125, 3), (0.4, 5), (0.05, 2)])
    def test_tail_table_is_the_scanned_tail(self, kbar, L):
        # the blocked transfer products against the scan of the chain over two
        # blocks, where the tail is a normal double; each side rounds about 10^4
        # products, which drifts about 1e-12 apart
        blocks = _tail_blocks(kbar, L)
        table = np.concatenate([next(blocks), next(blocks)])
        surv = tau_survival(kbar, StoppingConfig(L, 0), len(table) - 1)
        assert np.all(np.diff(table) <= 0)
        live = surv > 1e-290
        assert np.allclose(table[live], surv[live], rtol=1e-11, atol=0)

    @pytest.mark.parametrize("kbar,L", [(0.125, 1), (0.125, 3), (0.25, 2), (0.4, 4), (0.05, 2)])
    def test_law_matches_the_renewal_judge(self, kbar, L):
        # two-sample Kolmogorov-Smirnov: P(D > c sqrt(2 / n)) <= 2 exp(-2 c^2) = 1e-6
        n, cfg = 50_000, StoppingConfig(L, 0)
        ours = np.sort(sample_tau_batch(kbar, cfg, n, derive_seed(23, L)))
        judge = np.sort(renewal_tau(kbar, L, n, np.random.default_rng(derive_seed(29, L))))
        grid = np.union1d(ours, judge)
        gap = np.abs(np.searchsorted(ours, grid, side="right")
                     - np.searchsorted(judge, grid, side="right")) / n
        assert gap.max() <= math.sqrt(math.log(2e6) / 2) * math.sqrt(2 / n)

    def test_survival_matches_empirical(self):
        eps, cfg = EpsilonLaw(0.25, 1), StoppingConfig(2, 0)
        surv = tau_survival(eps, cfg, 64)
        taus = sample_tau_batch(eps, cfg, 50_000, 7)
        for t in (4, 8, 16, 32):
            emp = float(np.mean(taus > t))
            se = math.sqrt(surv[t] * (1 - surv[t]) / len(taus))
            assert abs(emp - surv[t]) < 4 * se

    def test_horizon_boundary_is_exact(self):
        # the cap only decides whether to raise; it never changes the draws
        eps, cfg = EpsilonLaw(0.125, 1), StoppingConfig(3, 0)
        taus = sample_tau_batch(eps, cfg, 5000, 11)
        top = int(taus.max())
        again = sample_to(top, eps, cfg, 5000, 11)
        assert np.array_equal(again, taus)
        over = int(np.count_nonzero(taus == top))
        message = f"^{over} streams unfinished within {top - 1} symbols$"
        with pytest.raises(BudgetError, match=message):
            sample_to(top - 1, eps, cfg, 5000, 11)

    @pytest.mark.parametrize("L", [4, 6, 100])
    def test_unreachable_runs_fail_promptly(self, L):
        # k^L = 1e-16, 1e-24 and 1e-400 (which underflows to 0): Harris's bound
        # exceeds every draw, so the tail table is never built
        t0 = time.perf_counter()
        message = f"^8 streams unfinished within {TAU_HORIZON} symbols$"
        with pytest.raises(BudgetError, match=message):
            sample_tau_batch(EpsilonLaw(1e-4, 1), StoppingConfig(L, 0), 8, 0)
        assert time.perf_counter() - t0 < 5.0

    @pytest.mark.parametrize("kbar, L", [(1e-4, 4), (0.5, 30)])
    def test_hopeless_laws_refused_before_the_table(self, kbar, L):
        # E[tau_1] = 1e16 and 2.1e9: the tail table to the horizon, 10^7 doubles and
        # its copy, took 153 MiB and up to 2 s to refuse
        tracemalloc.start()
        t0 = time.perf_counter()
        try:
            with pytest.raises(BudgetError, match=f"^8 streams unfinished within {TAU_HORIZON}"):
                sample_tau_batch(kbar, StoppingConfig(L, 0), 8, 0)
            elapsed = time.perf_counter() - t0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert elapsed < 0.1 and peak < 8 * 2**20

    @settings(max_examples=60, deadline=None)
    @given(kbar=st.floats(0.2, 0.9), L=st.integers(1, 8), n=st.integers(1, 300),
           frac=st.floats(0.0, 1.2), seed=st.integers(0, 2**32))
    def test_early_refusal_agrees_with_the_full_table(self, kbar, L, n, frac, seed):
        # Harris's bound refuses only where the full table refuses too, and the
        # draws it counts are among those the table leaves unfinished
        cfg = StoppingConfig(L, 0)
        full = sample_tau_batch(kbar, cfg, n, seed)
        horizon = int(frac * full.max())
        over = int(np.count_nonzero(full > horizon))
        if over == 0:
            assert np.array_equal(sample_to(horizon, kbar, cfg, n, seed), full)
            return
        with pytest.raises(BudgetError) as info:
            sample_to(horizon, kbar, cfg, n, seed)
        count = str(info.value).split(" streams")[0]
        if count.startswith("at least "):
            assert 1 <= int(count[len("at least "):]) <= over
        else:
            assert int(count) == over

    def test_hopeless_horizon_search_refused_before_the_scan(self):
        # by Harris's inequality P(tau_1 > 1e7) >= (1 - k^L)^1e7 = 0.0085 at
        # k = 1/8 and L = 7, over 2 tail; the scan to the cap takes about 0.3 s
        t0 = time.perf_counter()
        with pytest.raises(BudgetError, match="at L = 7, P\\(tau_1 > 10000000\\) >= 0.0085"):
            choose_horizon(EpsilonLaw(0.125, 1), StoppingConfig(7, 0))
        assert time.perf_counter() - t0 < 1.0

    def test_choose_horizon_contract(self):
        eps, cfg = EpsilonLaw(0.125, 1), StoppingConfig(2, 0)
        h = choose_horizon(eps, cfg)
        surv = tau_survival(eps, cfg, h)
        assert surv[h] < HORIZON_TAIL == 1e-4
        assert surv[h - 1] >= HORIZON_TAIL

    @settings(max_examples=40, deadline=None)
    @given(kbar=st.floats(0.15, 0.5), L=st.integers(1, 5))
    def test_scanned_horizon_matches_the_judge(self, kbar, L):
        # the scan of the blocked tail table lands on the first t where the
        # judge's step-by-step exact tail falls below the cut
        cfg = StoppingConfig(L, 0)
        h = choose_horizon(kbar, cfg)
        surv = tau_survival(kbar, cfg, h)
        assert surv[h] < HORIZON_TAIL <= surv[h - 1]

    def test_long_horizon_scan_is_prompt(self):
        # L = 6 at k = 1/8 ends at H = 2 759 300, 674 blocks of the tail table
        t0 = time.perf_counter()
        assert [choose_horizon(EpsilonLaw(0.125, 1), StoppingConfig(L, 0))
                for L in (3, 4, 5, 6)] == [5359, 43077, 344873, 2759300]
        assert time.perf_counter() - t0 < 1.0

    def test_harris_band_is_refused_by_the_scan(self):
        # at k = 9.4e-4 and L = 2 Harris's bound is 1.45e-4, inside [tail, 2 tail):
        # the pre-refusal passes, and the scan reaches the cap before the cut
        k, cfg = 9.4e-4, StoppingConfig(2, 0)
        assert HORIZON_TAIL <= _harris_floor(k, cfg.L) < 2 * HORIZON_TAIL
        with pytest.raises(BudgetError, match=f"^tau tail stays above {HORIZON_TAIL} within the "
                                              f"{TAU_HORIZON}-symbol cap$"):
            choose_horizon(k, cfg)


class TestPsiFactor:
    def test_forced_symbol_is_indicator(self):
        # forced ell symbols contribute 1 and forced others leave the ray: with
        # zero free factors only blocks of L leading forced symbols survive,
        # each with value exactly 1, with probability kbar^L
        kbar, L, reps = 0.25, 2, 30_000
        vals = sample_ray_block_values(np.zeros(50), kbar, 0.75, L, reps,
                                       np.random.default_rng(6))
        assert set(np.unique(vals)) == {0.0, 1.0}
        p = kbar**L
        assert abs(vals.mean() - p) < 4 * math.sqrt(p * (1 - p) / reps)

    def test_zero_disorder_free_symbol_is_one(self):
        law = constant_law(1, [0.5, 0.5], 0.1)
        tp = solve_tilt(law, [0.5])
        xi = omega(mean_environment(law, centered_box(1, 2)), (0,))[0] / law.means[0]
        assert psi_factor(tp, EpsilonLaw(0.125, 1), xi, 0) == pytest.approx(1.0, abs=1e-14)

    def test_formula_evaluation(self):
        # xi = 1.2, u = 3/4, kbar = 1/8 -> 1.2 + (1/8)/(5/8) * 0.2 = 1.24
        env = sample_environment(TWO_ATOM, 1, centered_box(1, 3))
        xi = {s: omega(env, (s,))[0] / TWO_ATOM.means[0] for s in range(-2, 3)}
        sites = [s for s, x in xi.items() if abs(x - 1.2) < 1e-12]
        assert sites, "need a site carrying the high atom"
        assert psi_factor(TP, eps_eighth(), xi[sites[0]], 0) == pytest.approx(1.24, abs=1e-12)
        # elementwise on arrays of xi and steps
        got = psi_factor(TP, eps_eighth(), np.array([1.2, 0.8]), np.array([0, 1]))
        assert np.allclose(got, [1.24, 0.8 + 0.125 / 0.125 * -0.2], atol=1e-12)

    def test_denominator_guard(self):
        # u(-e1) = 1/4, so kbar just past it leaves a negative denominator on
        # that step
        bad = EpsilonLaw(0.2501, 1)
        with pytest.raises(ValueError, match="positive"):
            psi_factor(TP, bad, 1.0, 1)
        with pytest.raises(ValueError, match="positive"):
            psi_factor(TP, bad, np.ones(2), np.array([0, 1]))


class TestPsiIdentity:
    def test_one_step_algebra(self):
        rng = np.random.default_rng(4)
        eps = eps_eighth()
        for _ in range(200):
            xi = rng.uniform(0.5, 1.5)
            for k in range(2):
                total = eps.kbar + (TP.u[k] - eps.kbar) * xi + eps.kbar * (xi - 1.0)
                assert abs(total - TP.u[k] * xi) <= 1e-12

    def test_zero_disorder_collapse(self):
        law = constant_law(1, [0.5, 0.5], 0.1)
        tp = solve_tilt(law, [0.5])
        env = mean_environment(law, centered_box(1, 4))
        lhs, rhs = verify_psi_identity(tp, make_epsilon_law(tp), env, [0.3], 3)
        assert lhs == pytest.approx(rhs, rel=1e-12)
        u_plus, u_minus = tp.u_array
        bare = (u_plus * math.exp(0.3) + u_minus * math.exp(-0.3)) ** 3  # i.i.d. steps
        assert lhs == pytest.approx(bare, rel=1e-12)

    def test_two_atom_environment(self):
        env = sample_environment(TWO_ATOM, 9, centered_box(1, 5))
        lhs, rhs = verify_psi_identity(TP, eps_eighth(), env, [0.2], 4)
        assert abs(lhs - rhs) / abs(rhs) <= 1e-10

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_horizons_d1(self, n):
        env = sample_environment(TWO_ATOM, 9, centered_box(1, n + 1))
        lhs, rhs = verify_psi_identity(TP, eps_eighth(), env, [-0.4], n)
        assert abs(lhs - rhs) / abs(rhs) <= 1e-10

    def test_d2(self):
        law = IIDProductLaw(2, [[0.3, 0.2, 0.25, 0.25], [0.2, 0.3, 0.25, 0.25]],
                            [0.5, 0.5], 0.1)
        tp = solve_tilt(law, [0.3, 0.0])
        env = sample_environment(law, 3, centered_box(2, 4))
        lhs, rhs = verify_psi_identity(tp, make_epsilon_law(tp), env, [0.1, 0.2], 3)
        assert abs(lhs - rhs) / abs(rhs) <= 1e-10

    def test_budget_guard(self):
        env = sample_environment(TWO_ATOM, 9, centered_box(1, 20))
        with pytest.raises(BudgetError):
            verify_psi_identity(TP, eps_eighth(), env, [0.0], 12)


def joint_weights(tp, eps, n, env=None):
    """(steps, ends, xi, weights) of ``_joint_path_weights``, its blocks joined into one batch."""
    blocks = list(_joint_path_weights(tp, eps, n, env))
    return tuple(None if parts[0] is None else np.concatenate(parts) for parts in zip(*blocks))


def every_word_weights(tp, eps, steps, xi):
    """Joint path weights by brute force over all (2d+1)^n symbol words, zero-weight ones included."""
    n_sym = 2 * tp.dimension + 1
    sym_probs = eps.symbol_probs()
    cond = [conditional_step_probs(tp, eps, s) for s in range(n_sym)]
    weights = []
    for p, path in enumerate(steps):
        terms = []
        for word in itertools.product(range(n_sym), repeat=len(path)):
            term = 1.0
            for j, (s, k) in enumerate(zip(word, path)):
                factor = sym_probs[s] * cond[s][k]
                if xi is not None and s == eps.free_symbol:
                    factor *= psi_factor(tp, eps, xi[p, j], k)
                term *= factor
            terms.append(term)
        weights.append(math.fsum(terms))
    return weights


LAW_2D = IIDProductLaw(2, [[0.3, 0.2, 0.25, 0.25], [0.2, 0.3, 0.25, 0.25]], [0.5, 0.5], 0.1)


class TestJointPathWeights:
    @pytest.mark.parametrize("with_env", [False, True])
    @pytest.mark.parametrize("d,z", [(1, [0.5]), (2, [0.2, 0.1])])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_equals_the_sum_over_every_symbol_word(self, n, d, z, with_env):
        # fsum is exactly rounded, so the words left out (product exactly 0)
        # cannot change a weight: the two agree bit for bit
        law = TWO_ATOM if d == 1 else LAW_2D
        tp = solve_tilt(law, z)
        eps = EpsilonLaw(tp.c_z / 3, tp.dimension)
        env = sample_environment(law, 7, centered_box(d, n + 1)) if with_env else None
        steps, ends, xi, weights = joint_weights(tp, eps, n, env)
        assert (xi is None) == (env is None)
        assert weights.tolist() == every_word_weights(tp, eps, steps, xi)

    @pytest.mark.parametrize("d,z", [(1, [0.5]), (2, [0.2, 0.1])])
    def test_a_step_without_a_free_symbol(self, d, z):
        # kbar = min u leaves that step only its forced symbol: the words that
        # give it the free symbol weigh 0
        tp = solve_tilt(TWO_ATOM if d == 1 else LAW_2D, z)
        eps = EpsilonLaw(tp.c_z, d)
        assert np.count_nonzero(conditional_step_probs(tp, eps, eps.free_symbol)) == 2 * d - 1
        steps, _, _, weights = joint_weights(tp, eps, 3)
        assert weights.tolist() == every_word_weights(tp, eps, steps, None)
        assert math.fsum(weights) == pytest.approx(1.0, abs=1e-13)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), d=st.sampled_from([1, 2]), n=st.integers(1, 3))
    def test_any_product_law_and_kbar_equal_the_sum_over_every_symbol_word(self, data, d, n):
        # a product law and a symbol law built here, its kbar up to the smallest
        # u (that step then has no free symbol), are held to every (2d+1)^n word
        row = st.lists(st.floats(0.05, 1.0), min_size=2 * d, max_size=2 * d)
        rows = [[v / sum(r) for v in r] for r in data.draw(st.lists(row, min_size=1, max_size=3))]
        law = IIDProductLaw(d, rows, [1 / len(rows)] * len(rows), 0.01)
        z = data.draw(st.lists(st.floats(-0.4 / d, 0.4 / d), min_size=d, max_size=d))
        assume(sum(map(abs, z)) > 0.01)
        tp = solve_tilt(law, z)
        kbar = tp.c_z if data.draw(st.booleans()) else data.draw(st.floats(0.01, 1.0)) * tp.c_z
        assume(2 * d * kbar < 1.0)
        eps = EpsilonLaw(kbar, d)
        steps, _, xi, weights = joint_weights(tp, eps, n)
        assert xi is None and len(steps) == (2 * d) ** n
        assert weights.tolist() == every_word_weights(tp, eps, steps, None)

    def test_budget_counts_the_enumerated_words(self, monkeypatch):
        # two symbols can carry each step (its forced one and the free one):
        # (2d)^n paths times 2^n words, (4d)^n pairs; the check reads d and n alone
        eps = eps_eighth()
        monkeypatch.setattr("rwre_lab.identities.JOINT_BUDGET", 16)
        check_joint_pairs(1, 2)
        _joint_path_weights(TP, eps, 2)
        check_joint_pairs(2, 1, "verify.n_max")  # 4 paths times 2 words
        with pytest.raises(BudgetError, match="verify.n_max = 2 enumerates .* = 16 paths times "
                                              "2\\^n = 4 symbol words, over the 16-pair budget"):
            check_joint_pairs(2, 2, "verify.n_max")
        monkeypatch.setattr("rwre_lab.identities.JOINT_BUDGET", 15)
        with pytest.raises(BudgetError, match="2\\^n = 4 symbol words"):
            _joint_path_weights(TP, eps, 2)
        with pytest.raises(BudgetError, match="n = 2 enumerates"):
            check_joint_pairs(1, 2)


class TestCoincidence:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_exact_enumeration_d1(self, n):
        ref = qz_endpoint_distribution(TP, n)
        dec = decomposed_endpoint_distribution(TP, eps_eighth(), n)
        assert set(ref) == set(dec)
        for k in ref:
            assert abs(ref[k] - dec[k]) <= 1e-10

    def test_exact_enumeration_d2(self):
        law = IIDProductLaw(2, [[0.3, 0.2, 0.25, 0.25]], [1.0], 0.1)
        tp = solve_tilt(law, [0.2, 0.1])
        ref = qz_endpoint_distribution(tp, 3)
        dec = decomposed_endpoint_distribution(tp, make_epsilon_law(tp), 3)
        for k in ref:
            assert abs(ref[k] - dec[k]) <= 1e-10

    def test_chi_square_consistency_at_n20(self):
        # sample the two-layer mechanism and test against the exact step-law
        # convolution; critical value via the Wilson-Hilferty cube
        n, draws = 20, 20_000
        eps = eps_eighth()
        rng = np.random.default_rng(12)
        probs = eps.symbol_probs()
        cond = (TP.u_array - eps.kbar) / eps.free_prob
        ends = np.zeros(draws, dtype=np.int64)
        for _ in range(n):
            sym = rng.choice(3, size=draws, p=probs)
            step = np.where(sym < 2, sym, -1)
            free = step < 0
            step[free] = rng.choice(2, size=int(free.sum()), p=cond)
            ends += np.where(step == 0, 1, -1)
        # exact endpoint law of the homogeneous step law by convolution power
        pmf = np.array([TP.u[1], 0.0, TP.u[0]])
        dist = np.array([1.0])
        for _ in range(n):
            dist = np.convolve(dist, pmf)
        support = np.arange(-n, n + 1)
        expected = dist * draws
        keep = expected >= 10
        obs = np.array([np.sum(ends == s) for s in support])
        chi2 = float(np.sum((obs[keep] - expected[keep]) ** 2 / expected[keep]))
        chi2 += ((obs[~keep].sum() - expected[~keep].sum()) ** 2
                 / max(expected[~keep].sum(), 1e-9))
        df = int(keep.sum())  # merged tail adds one cell, minus one constraint
        z999 = 3.090232
        crit = df * (1 - 2 / (9 * df) + z999 * math.sqrt(2 / (9 * df))) ** 3
        assert chi2 < crit


def annealed_ray_factor(tp, eps, law, ell):
    """Environment mean of the psi factor on the ell column."""
    return float(law.weights @ psi_factor(tp, eps, law.xi[:, ell], ell))


class TestRayBlocks:
    def test_zero_disorder_values_are_indicator(self):
        law = constant_law(1, [0.5, 0.5], 0.1)
        tp = solve_tilt(law, [0.5])
        eps = make_epsilon_law(tp)
        cfg = StoppingConfig(2, 0)
        h = 4000
        env = mean_environment(law, centered_box(1, h))
        xi = env.omega_many(np.arange(h)[:, None])[:, 0] / law.means[0]
        vals = sample_ray_block_values(psi_factor(tp, eps, xi, 0), eps.kbar, tp.u[0], cfg.L,
                                       4000, np.random.default_rng(3))
        on = vals != 0.0
        assert np.allclose(vals[on], 1.0, rtol=0, atol=1e-12)
        assert 0 < on.sum() < len(vals)

    def test_on_ray_probability_matches_recursion(self):
        # annealed on-ray block mass equals the exact run-length recursion value
        eps = eps_eighth()
        cfg = StoppingConfig(2, 0)
        h = 200
        exact = math.exp(ray_log_inner_annealed_iid(TP, eps, cfg, h))
        reps = 30_000
        factors = np.full(h, annealed_ray_factor(TP, eps, TWO_ATOM, cfg.ell))
        vals = sample_ray_block_values(factors, eps.kbar, TP.u[0], cfg.L, reps,
                                       np.random.default_rng(8))
        # every on-ray value is the product of mean psi factors, which is 1
        assert np.allclose(vals[vals != 0.0], 1.0, rtol=1e-12)
        frac = vals.mean()
        se = math.sqrt(exact * (1 - exact) / reps)
        assert abs(frac - exact) < 4 * se

    def test_quenched_annealed_agree_on_mean_environment(self):
        # on the mean environment the realized psi row and the annealed mean
        # factor coincide, so equal seeds give equal block values
        law = constant_law(1, [0.5, 0.5], 0.1)
        tp = solve_tilt(law, [0.5])
        eps = make_epsilon_law(tp)
        cfg = StoppingConfig(2, 0)
        h = 400
        env = mean_environment(law, centered_box(1, h))
        xi = env.omega_many(np.arange(h)[:, None])[:, 0] / law.means[0]
        quenched = sample_ray_block_values(psi_factor(tp, eps, xi, 0), eps.kbar, tp.u[0],
                                           cfg.L, 2000, np.random.default_rng(9))
        annealed = sample_ray_block_values(np.full(h, annealed_ray_factor(tp, eps, law, 0)),
                                           eps.kbar, tp.u[0], cfg.L, 2000,
                                           np.random.default_rng(9))
        assert np.array_equal(quenched != 0.0, annealed != 0.0)
        assert np.allclose(quenched, annealed, rtol=1e-12, atol=0)

    def test_annealed_one_step_neutrality(self):
        # the environment mean of the free-symbol reweighting is exactly one,
        # because the mean of xi is one and the correction is linear in xi
        eps = eps_eighth()
        for k in range(2):
            assert annealed_ray_factor(TP, eps, TWO_ATOM, k) == pytest.approx(1.0, abs=1e-15)

    def test_stopping_requires_positive_projection(self):
        with pytest.raises(ValueError, match="> 0"):
            validate_stopping(TP, StoppingConfig(2, 1))  # -e1 against drift +z


@settings(max_examples=300, deadline=None)
@given(kbar=st.floats(1e-3, 0.99999999), L=st.integers(1, 40))
@example(kbar=0.9999, L=2).via("the textbook variance lost 1.1e-5 here")
@example(kbar=0.999, L=1).via("the textbook variance lost 2.8e-8 here")
@example(kbar=0.99999999, L=3).via("expected_tau loses 1.5e-9 here")
def test_tau_moments_match_exact_rational_arithmetic(kbar, L):
    """E[tau_1] and sd[tau_1] against the closed forms in exact rationals.

    No pair of the range is refused: at most (1e-3)^-80 = 1e240 enters. The
    tolerances are the forms' rounding bounds, each with a factor 1 + tol
    for the second-order terms. In expected_tau, k ** -L is within 2 U, so
    k^-L - 1 carries 2 U k^-L / (k^-L - 1) plus its rounding, and 1 - k and
    the quotient round once each. ``sd_rounding_bound`` bounds tau_sd, and
    sd^2 doubles it.
    """
    cfg, k = StoppingConfig(L, 0), Fraction(kbar)
    odds = k**-L
    tol = (3 + 2 * float(odds / (odds - 1))) * U
    assert abs(Fraction(expected_tau(kbar, cfg)) / ((odds - 1) / (1 - k)) - 1) <= tol * (1 + tol)
    variance = ((1 - (2 * L + 1) * (1 - k) * k**L - k**(2 * L + 1))
                / ((1 - k)**2 * k**(2 * L)))
    tol = sd_rounding_bound(L) * U
    assert abs(Fraction(tau_sd(kbar, cfg))**2 / variance - 1) <= 2 * tol * (1 + tol)


@pytest.mark.parametrize("kbar,L", [(0.125, 1), (0.125, 2), (0.25, 2), (0.125, 3)])
def test_tau_sd_matches_the_summed_tail(kbar, L):
    # sd^2 = sum_t (2t + 1) P(tau_1 > t) - E^2, over the tail the oracle scans symbol by
    # symbol; past 60 E[tau_1] the tail holds below 1e-20 of the sum
    stop = StoppingConfig(L, 0)
    mean = expected_tau(kbar, stop)
    tail = tau_survival(kbar, stop, 60 * math.ceil(mean))
    second = math.fsum((2 * np.arange(len(tail)) + 1) * tail)
    assert tau_sd(kbar, stop) == pytest.approx(math.sqrt(second - mean**2), rel=1e-12)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(kbar=st.floats(0.05, 0.45), L=st.integers(1, 5))
def test_tau_sampler_law_matches_survival_chain(kbar, L):
    """Sampled tau against the exact run-length chain: no draw below L, P(tau > t)
    within 5 exact SE at several t up to twice E[tau] (capped at 4000), and
    P(tau = L) = kbar^L. Counts are compared, with one count of slack for
    discreteness where kbar^L is tiny. Only laws whose draws all finish
    within the 10^7-symbol cap are drawn (E[tau] <= 10^5); one law past it
    is pinned in ``test_tau_sampler_refuses_a_law_past_the_cap``.
    """
    cfg = StoppingConfig(L, 0)
    assume(expected_tau(kbar, cfg) <= 10**5)
    draws = 20_000
    taus = sample_tau_batch(kbar, cfg, draws, derive_seed(17, L))
    assert taus.min() >= L
    mean = expected_tau(kbar, cfg)
    ts = sorted({L, L + 1, *(min(math.ceil(f * mean), 4000) for f in (0.25, 0.5, 1.0, 2.0))})
    surv = tau_survival(kbar, cfg, ts[-1])
    for t in ts:
        over = int(np.count_nonzero(taus > t))
        assert abs(over - draws * surv[t]) <= 5 * math.sqrt(draws * surv[t] * (1 - surv[t])) + 1
    p = kbar**L
    hits = int(np.count_nonzero(taus == L))
    assert abs(hits - draws * p) <= 5 * math.sqrt(draws * p * (1 - p)) + 1


def test_tau_sampler_refuses_a_law_past_the_cap():
    # kbar 1/16 at L = 5: E[tau_1] = 1.1e6 and P(tau_1 > 10^7) is about 1.4e-4, so
    # some of 20 000 draws cannot finish within the cap, and Harris's bound says so
    # before the tail table is built
    with pytest.raises(BudgetError, match=f"^at least 1 streams unfinished within {TAU_HORIZON} "
                                          "symbols$"):
        sample_tau_batch(0.0625, StoppingConfig(5, 0), 20_000, derive_seed(17, 5))


@settings(max_examples=25, deadline=None, derandomize=True)
@given(kbar=st.floats(0.05, 0.45), gap=st.floats(0.05, 0.95), L=st.integers(1, 3),
       h=st.integers(1, 40), data=st.data())
def test_block_sampler_mean_matches_recursion(kbar, gap, L, h, data):
    """The sampled mean sits within 5 SE of the exact truncated functional.

    A block value is a product of factors along one stopped string, so its
    second moment is the same recursion on the squared factors.
    """
    u_ell = kbar + gap * (1.0 - kbar)
    row = np.array(data.draw(st.lists(st.floats(0.1, 2.0), min_size=h, max_size=h)))
    reps = 20_000
    vals = sample_ray_block_values(row, kbar, u_ell, L, reps,
                                   np.random.default_rng(derive_seed(13, L, h)))
    mean, second = ray_inner_values((u_ell - kbar) * np.stack([row, row**2]), kbar, L)
    se = math.sqrt(max(second - mean**2, 0.0) / reps)
    assert abs(vals.mean() - mean) <= 5 * se + 1e-15
