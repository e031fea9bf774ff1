import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rwre_lab.decomposition import EpsilonLaw, StoppingConfig, make_epsilon_law
from rwre_lab.environments import (Box, IIDProductLaw, MarkovFieldLaw, direction_index,
                                   direction_vectors, sample_environment)
from rwre_lab.estimators import (_log_positive, certify_gap, log_w_const, rate_point,
                                 ray_inner_values, ray_log_inner_annealed_iid, sample_ray_xi)
from rwre_lab.numutil import BudgetError, derive_seed
from rwre_lab.evolution import light_cone, log_point_probability_dp
from rwre_lab.identities import psi_factor, verify_identity_annealed
from rwre_lab.tilting import solve_tilt

from envhelpers import constant_law
from oracles import (ORACLE_CAP, exact_gap_oracle, field_gap_stderrs, jackknife_by_deletion,
                     log_mean_exp, sample_ray_block_values)

TWO_ATOM = IIDProductLaw(1, [[0.4, 0.6], [0.6, 0.4]], [0.5, 0.5], 0.1)
TP = solve_tilt(TWO_ATOM, [0.5])
EPS = EpsilonLaw(0.125, 1)
CFG = StoppingConfig(2, 0)


def quenched_log_inner(cfg, xi_rows):
    """log inner block value per xi row: the recursion, then certify_gap's positivity guard."""
    u_ell = float(TP.u_array[cfg.ell])
    return _log_positive(ray_inner_values(u_ell * np.atleast_2d(xi_rows) - EPS.kbar, EPS.kbar,
                                          cfg.L))


def brute_force_block_value(free_factors, kbar, L):
    """Oracle: enumerate stopped forced/free strings and sum their weights."""
    h = len(free_factors)
    total = 0.0
    for t in range(L, h + 1):
        for s in itertools.product((0, 1), repeat=t):
            run = 0
            first = None
            for i, sym in enumerate(s):
                run = run + 1 if sym == 1 else 0
                if run >= L:
                    first = i + 1
                    break
            if first != t:
                continue
            w = 1.0
            for j, sym in enumerate(s):
                w *= kbar if sym == 1 else free_factors[j]
            total += w
    return total


class TestRayRecursion:
    @pytest.mark.parametrize("L,h", [(1, 8), (2, 10), (3, 12)])
    def test_matches_brute_force(self, L, h):
        rng = np.random.default_rng(h + L)
        rows = rng.uniform(0.3, 0.9, size=(4, h))
        got = ray_inner_values(rows, 0.125, L)
        for row, val in zip(rows, got):
            assert val == pytest.approx(brute_force_block_value(row, 0.125, L), rel=1e-12)

    def test_annealed_equals_unit_xi_quenched(self):
        h = 120
        a = ray_log_inner_annealed_iid(TP, EPS, CFG, h)
        q = quenched_log_inner(CFG, np.ones((1, h)))[0]
        assert a == pytest.approx(q, abs=1e-14)

    def test_rescaling_long_horizon(self):
        # values decay geometrically; the scaled recursion must not underflow
        h = 4000
        vals = ray_inner_values(np.full((1, h), 0.6), 0.1, 3)
        assert 0.0 < vals[0] < 1.0

    def test_signed_weights_guard(self):
        # free-symbol weights below -1 drive the two-string sum negative:
        # G = kbar * (1 + w0) < 0 at L = 1, horizon 2
        w0 = -1.5
        xi = np.full((1, 2), (w0 + EPS.kbar) / TP.u[0])
        with pytest.raises(ValueError, match="not positive"):
            quenched_log_inner(StoppingConfig(1, 0), xi)

    def test_mildly_negative_weights_still_positive(self):
        # signed weights are legal as long as the stopped sum stays positive
        w0 = -0.05
        xi = np.full((1, 50), (w0 + EPS.kbar) / TP.u[0])
        out = quenched_log_inner(CFG, xi)
        assert math.isfinite(out[0])


class TestBounds:
    def test_w_const(self):
        assert log_w_const(TP, 0) == pytest.approx(math.log(TP.D) + TP.theta[0], abs=0)
        assert log_w_const(TP, 0) == pytest.approx(math.log(1.5), abs=1e-12)

    def test_bound_ia_zero_disorder_is_pure_combinatorics(self):
        # for product laws the annealed block value is the on-ray mass alone,
        # so the bound is the same for any disorder at fixed means
        law0 = constant_law(1, [0.5, 0.5], 0.1)
        tp0 = solve_tilt(law0, [0.5])
        b0 = certify_gap(tp0, EPS, CFG, law0, budget=2, horizon=300)
        b2 = certify_gap(TP, EPS, CFG, TWO_ATOM, budget=2, horizon=300)
        assert b0.W - b0.annealed_side == pytest.approx(b2.W - b2.annealed_side, abs=1e-12)

    def test_bound_iq_zero_disorder_equals_bound_ia(self):
        law0 = constant_law(1, [0.5, 0.5], 0.1)
        tp0 = solve_tilt(law0, [0.5])
        rep = certify_gap(tp0, EPS, CFG, law0, budget=16, horizon=300, seed=1)
        assert rep.W - rep.quenched_side == pytest.approx(rep.W - rep.annealed_side, abs=1e-12)
        assert rep.quenched_stderr == 0.0

    def test_bound_iq_exceeds_bound_ia_under_disorder(self):
        rep = certify_gap(TP, EPS, CFG, TWO_ATOM, budget=4000, horizon=400, seed=2)
        i_a, i_q = rep.W - rep.annealed_side, rep.W - rep.quenched_side
        assert i_q - i_a > 5 * rep.quenched_stderr

    def test_block_sampler_tracks_the_gap_trace(self):
        # the symbol-by-symbol sampler, fed the psi rows of the environments
        # certify_gap realizes at its seed, must reproduce each exact inner
        # value; its standard error comes from the squared-factor recursion
        h, n_env, n_blocks, seed = 120, 8, 200_000, 3
        rep = certify_gap(TP, EPS, CFG, TWO_ATOM, budget=n_env, horizon=h, seed=seed)
        xi = sample_ray_xi(TWO_ATOM, CFG.ell, n_env, h, derive_seed(seed, 1))
        psi = psi_factor(TP, EPS, xi, CFG.ell)
        u_ell = float(TP.u[CFG.ell])
        second = ray_inner_values((u_ell - EPS.kbar) * psi**2, EPS.kbar, CFG.L)
        exact = np.exp(rep.trace)
        for r in range(n_env):
            vals = sample_ray_block_values(psi[r], EPS.kbar, u_ell, CFG.L, n_blocks,
                                           np.random.default_rng(derive_seed(seed, 11, r)))
            se = math.sqrt((second[r] - exact[r] ** 2) / n_blocks)
            assert abs(vals.mean() - exact[r]) < 5 * se

    def test_requires_positive_projection(self):
        with pytest.raises(ValueError, match="must be > 0"):
            certify_gap(TP, EPS, StoppingConfig(2, 1), TWO_ATOM, budget=4, horizon=50)

    def test_sample_ray_xi_respects_the_memory_budget(self, monkeypatch):
        monkeypatch.setattr("rwre_lab.numutil.MEMORY_BUDGET", 100 * 50 * 8 - 1)
        with pytest.raises(BudgetError, match="budget"):
            sample_ray_xi(TWO_ATOM, 0, 100, 50, seed=1)
        assert sample_ray_xi(TWO_ATOM, 0, 99, 50, seed=1).shape == (99, 50)

    def test_field_block_respects_the_memory_budget(self, monkeypatch):
        # a coupled field's block is realized into one (horizon, replicas)
        # buffer of one-byte states
        monkeypatch.setattr("rwre_lab.numutil.MEMORY_BUDGET", 8 * 50 - 1)
        field = MarkovFieldLaw(1, [[0.4, 0.6], [0.6, 0.4]], kappa=0.1, beta=0.5, sweeps=2)
        with pytest.raises(BudgetError, match="budget"):
            certify_gap(TP, EPS, CFG, field, budget=8, horizon=50)
        assert certify_gap(TP, EPS, CFG, field, budget=7, horizon=50).replicas == 7


class TestCertifyGap:
    def test_zero_disorder_gap_is_zero(self):
        law0 = constant_law(1, [0.5, 0.5], 0.1)
        tp0 = solve_tilt(law0, [0.5])
        rep = certify_gap(tp0, make_epsilon_law(tp0), CFG, law0, budget=500, seed=5)
        assert rep.gap == 0.0
        assert rep.stderr == 0.0
        assert abs(rep.gap) <= 3 * rep.stderr
        assert rep.verdict == "inconclusive"
        assert rep.significance == 0.0

    def test_constant_sample_has_no_error_bar(self):
        # a random law whose 100 replicas all read the first atom: the sample's
        # spread is 0 exactly, so the gap to the annealed side carries no verdict
        law = IIDProductLaw(1, [[0.4, 0.6], [0.6, 0.4]], [0.9999999, 1e-7], 0.1)
        tp = solve_tilt(law, [0.1])
        rep = certify_gap(tp, make_epsilon_law(tp), StoppingConfig(2, 0), law, budget=100,
                          seed=1)
        assert np.ptp(rep.trace) == 0.0 and rep.gap != 0.0
        assert rep.quenched_stderr == rep.stderr == rep.significance == 0.0
        assert rep.verdict == "inconclusive"

    def test_two_atom_certified(self):
        rep = certify_gap(TP, EPS, CFG, TWO_ATOM, budget=6000, seed=6)
        assert rep.gap > 0
        assert rep.significance > 5
        assert rep.verdict == "certified"

    def test_never_significantly_negative(self):
        rng = np.random.default_rng(7)
        for trial in range(6):
            lo = rng.uniform(0.3, 0.45)
            law = IIDProductLaw(1, [[lo, 1 - lo], [1 - lo, lo]], [0.5, 0.5], 0.1)
            z = float(rng.uniform(0.15, 0.7))
            tp = solve_tilt(law, [z])
            rep = certify_gap(tp, make_epsilon_law(tp), StoppingConfig(2, 0), law,
                              budget=1500, seed=100 + trial)
            assert rep.significance > -3.0

    def test_oracle_confirms_small_horizon_gap(self):
        h = 12
        qo, ao = exact_gap_oracle(TP, EPS, CFG, TWO_ATOM, h)
        # 2e6 replicas make the stderr small; 4 of them keep a false alarm below 1e-4
        rep = certify_gap(TP, EPS, CFG, TWO_ATOM, budget=2_000_000, horizon=h, seed=9)
        assert rep.annealed_side == pytest.approx(ao, abs=1e-12)
        assert abs(rep.gap - (ao - qo)) <= 4 * rep.stderr

    @settings(max_examples=30, deadline=None, database=None)
    @given(right=st.lists(st.floats(0.15, 0.85), min_size=2, max_size=3),
           raw_weights=st.lists(st.floats(0.1, 1.0), min_size=3, max_size=3),
           z=st.floats(0.05, 0.6), kbar_share=st.floats(0.05, 0.9), L=st.sampled_from([2, 3]),
           data=st.data())
    def test_recursion_equals_the_oracle_on_random_laws(self, right, raw_weights, z, kbar_share,
                                                        L, data):
        # random 1-D product laws of 2-3 atoms with every free factor positive:
        # the annealed side of certify_gap is the oracle's to 1e-12, and the
        # oracle's quenched side lies below its annealed side (Jensen)
        weights = np.array(raw_weights[:len(right)]) / sum(raw_weights[:len(right)])
        law = IIDProductLaw(1, [[p, 1.0 - p] for p in right], weights, 0.1)
        tp = solve_tilt(law, [z])
        eps, cfg = EpsilonLaw(kbar_share * min(tp.c_z, 0.5), 1), StoppingConfig(L, 0)
        assume(np.all(tp.u_array[0] * law.xi[:, 0] - eps.kbar > 0.0))
        h = data.draw(st.integers(L, 10), label="horizon")
        assert len(right) ** h <= ORACLE_CAP
        quenched, annealed = exact_gap_oracle(tp, eps, cfg, law, h)
        rep = certify_gap(tp, eps, cfg, law, budget=2, horizon=h)
        assert rep.annealed_side == pytest.approx(annealed, rel=1e-12, abs=1e-12)
        assert quenched <= annealed + 1e-12

    def test_oracle_refuses_a_field_law(self):
        # correlated ray sites: the product enumeration would return the i.i.d. value
        field = MarkovFieldLaw(1, [[0.4, 0.6], [0.6, 0.4]], kappa=0.1, beta=2.0)
        tp = solve_tilt(field, [0.5])
        with pytest.raises(ValueError, match="i.i.d. product law"):
            exact_gap_oracle(tp, EPS, CFG, field, 6)

    def test_mirror_symmetry(self):
        mirrored = IIDProductLaw(1, [[0.6, 0.4], [0.4, 0.6]], [0.5, 0.5], 0.1)
        tp_m = solve_tilt(mirrored, [-0.5])
        rep_m = certify_gap(tp_m, EpsilonLaw(0.125, 1), StoppingConfig(2, 1), mirrored,
                            budget=4000, seed=10)
        rep = certify_gap(TP, EPS, CFG, TWO_ATOM, budget=4000, seed=10)
        assert rep_m.gap == pytest.approx(rep.gap, abs=0)
        assert rep_m.W == pytest.approx(rep.W, abs=1e-12)

    def test_requires_block_length_two(self):
        with pytest.raises(ValueError, match="L >= 2"):
            certify_gap(TP, EPS, StoppingConfig(1, 0), TWO_ATOM, budget=100)

    def test_trace_shape_and_determinism(self):
        a = certify_gap(TP, EPS, CFG, TWO_ATOM, budget=800, seed=11)
        b = certify_gap(TP, EPS, CFG, TWO_ATOM, budget=800, seed=11)
        assert np.array_equal(a.trace, b.trace)
        assert a.to_dict() == b.to_dict()

    def test_field_law_gap_tracks_equivalent_product_law(self):
        # a decoupled field is the uniform product mixture: it reads the same
        # rows and takes the same exact annealed side, so its report is the
        # product law's, trace included
        field = MarkovFieldLaw(1, [[0.4, 0.6], [0.6, 0.4]], kappa=0.1, beta=0.0)
        iid = IIDProductLaw(1, [[0.4, 0.6], [0.6, 0.4]], [0.5, 0.5], 0.1)
        assert field.independent and iid.independent
        rep_f = certify_gap(TP, EPS, CFG, field, budget=3000, horizon=200, seed=12)
        rep_i = certify_gap(TP, EPS, CFG, iid, budget=3000, horizon=200, seed=12)
        assert rep_f.to_dict() == rep_i.to_dict() and rep_f.annealed_stderr == 0.0
        assert np.array_equal(rep_f.trace, rep_i.trace)
        assert rep_f.significance > 0.0

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_field_gap_stderr_is_the_jackknife_of_the_gap(self, seed):
        # both sides read the same replicas, so the gap's error bar is the
        # jackknife of the gap itself, below the hypot of the side error bars
        # that ignored their correlation; the side error bars stay as they were
        field = MarkovFieldLaw(1, [[0.3, 0.7], [0.5, 0.5], [0.7, 0.3]], kappa=0.1, beta=0.5)
        tp = solve_tilt(field, [0.5])
        rep = certify_gap(tp, make_epsilon_law(tp), StoppingConfig(3, 0), field, budget=60,
                          horizon=200, seed=seed)
        q_se, a_se, gap_se = field_gap_stderrs(rep.trace, rep.expected_block)
        assert rep.stderr == pytest.approx(gap_se, rel=1e-9)
        assert rep.quenched_stderr == pytest.approx(q_se, rel=1e-9)
        assert rep.annealed_stderr == pytest.approx(a_se, rel=1e-9)
        assert rep.stderr < math.hypot(rep.quenched_stderr, rep.annealed_stderr)
        assert rep.significance == rep.gap / rep.stderr

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_constant_field_sample_reports_exact_error_bars(self, seed):
        # equal state rows give every replica one log inner value: both sides
        # are that value, and no error bar is made up from rounding
        field = MarkovFieldLaw(1, [[0.4, 0.6], [0.4, 0.6]], kappa=0.1, beta=0.5)
        tp = solve_tilt(field, [0.5])
        rep = certify_gap(tp, make_epsilon_law(tp), StoppingConfig(3, 0), field, budget=7,
                          seed=seed)
        assert np.ptp(rep.trace) == 0.0
        assert rep.annealed_side == rep.quenched_side
        assert (rep.gap, rep.stderr, rep.annealed_stderr, rep.quenched_stderr) == (0, 0, 0, 0)
        assert rep.significance == 0.0


class TestFreeEnergy:
    def test_limit_consistency_reported(self, capsys):
        # finite-horizon trend toward the infinite-horizon level; reported,
        # not asserted, because the drift at these horizons is real
        theta = [[0.3]]
        values = []
        for n in range(4, 11):
            [lhs], _ = verify_identity_annealed(TWO_ATOM, TP, theta, n)
            values.append(math.log(lhs) / n)
        print("finite-horizon free energies:", np.round(values, 6))
        assert np.all(np.isfinite(values))


class TestRatePoint:
    def test_cramer_value_zero_disorder(self):
        law0 = constant_law(1, [0.5, 0.5], 0.1)
        est = rate_point(law0, [0.5], seed=1, horizon=400)
        assert est.I_q == pytest.approx(0.130812, abs=0.01)
        assert est.I_a == pytest.approx(0.130812, abs=0.01)

    def test_boundary_closed_forms(self):
        est = rate_point(TWO_ATOM, [1.0], seed=2)
        expect_a = -math.log(0.5)
        expect_q = -(0.5 * math.log(0.4) + 0.5 * math.log(0.6))
        assert est.I_a == pytest.approx(expect_a, abs=1e-12)
        assert est.I_q == pytest.approx(expect_q, abs=1e-15)
        assert est.I_a < est.I_q

    def test_boundary_point_off_the_lattice_directions_goes_through_the_dp(self):
        # (0.7, 0.3) has |x|_1 = 1 but is no +-e_i; it reported the +e1 forms
        # (1.2040 here). Only +e1 and +e2 steps reach N x, so the rate is the
        # multinomial form sum_i x_i log(x_i / omega(e_i))
        law0 = constant_law(2, [0.3, 0.2, 0.25, 0.25], 0.1)
        est = rate_point(law0, [0.7, 0.3], seed=1)
        expect = 0.7 * math.log(0.7 / 0.3) + 0.3 * math.log(0.3 / 0.25)
        assert est.method == "enumeration"
        assert est.I_q == pytest.approx(expect, abs=0.005)
        assert est.I_a == pytest.approx(expect, abs=0.005)

    def test_lattice_direction_keeps_its_closed_forms_in_2d(self):
        law = IIDProductLaw(2, [[0.3, 0.2, 0.25, 0.25], [0.2, 0.3, 0.25, 0.25]], [0.5, 0.5], 0.1)
        est = rate_point(law, [1.0, 0.0], seed=2)
        assert est.method == "boundary"
        assert est.I_a == pytest.approx(-math.log(0.25), abs=1e-12)
        assert est.I_q == pytest.approx(-0.5 * (math.log(0.3) + math.log(0.2)), abs=1e-15)

    def test_interior_ordering_with_disorder(self):
        est = rate_point(TWO_ATOM, [0.5], seed=3, horizon=200, env_replicas=12)
        assert est.I_a <= est.I_q + 3 * math.hypot(est.stderr_a, est.stderr_q)

    @pytest.mark.parametrize("d, x, box", [
        # n2 = 40; the cone from 0 to t = 40 x spans [(t - 40) / 2, (t + 40) / 2]
        (1, [0.5], Box((-10,), (30,))),
        (2, [0.2, 0.1], Box((-16, -18), (24, 22))),
    ], ids=["1d", "2d"])
    def test_field_environments_realized_on_the_cone_box(self, monkeypatch, d, x, box):
        # a field realization pays the heat bath on its whole region, so each
        # replica is realized only on the two-sided light cone of the n2 target
        regions = []

        def spy(law, seed, region):
            regions.append(region)
            return sample_environment(law, seed, region)

        monkeypatch.setattr("rwre_lab.estimators.sample_environment", spy)
        states = [[0.4, 0.6] + [0.25] * (2 * d - 2), [0.6, 0.4] + [0.25] * (2 * d - 2)]
        states = [np.asarray(s) / sum(s) for s in states]
        field = MarkovFieldLaw(d, states, kappa=0.1, beta=0.3, sweeps=4)
        est = rate_point(field, x, seed=1, horizon=40, env_replicas=3)
        assert est.horizon == 40 and math.isfinite(est.I_a) and math.isfinite(est.I_q)
        assert regions == [box] * 3

    @pytest.mark.parametrize("law", [
        TWO_ATOM,
        IIDProductLaw(2, [[0.3, 0.2, 0.25, 0.25], [0.2, 0.3, 0.15, 0.35]], [0.3, 0.7], 0.1),
        MarkovFieldLaw(1, [[0.4, 0.6], [0.6, 0.4], [0.5, 0.5]], kappa=0.1, beta=2.0),
        MarkovFieldLaw(2, [[0.3, 0.2, 0.25, 0.25], [0.2, 0.3, 0.1, 0.4]], kappa=0.1,
                       beta=0.5, range_r=2),
    ], ids=["product-1d", "product-2d", "field-1d", "field-2d"])
    def test_boundary_rates_are_the_closed_forms(self, law):
        # I_q(e) = -E log omega(0, e) for every law; I_a(e) = -log E omega(0, e)
        # for independent sites, and none for a coupled field
        for e, vec in enumerate(direction_vectors(law.dimension).astype(float)):
            est = rate_point(law, vec, seed=4)
            assert direction_index(est.x) == e and est.method == "boundary"
            assert est.I_q == -math.fsum(law.weights * np.log(law.table[:, e]))
            assert est.stderr_q == 0.0 and est.horizon is None
            if law.independent:
                assert (est.I_a, est.stderr_a) == (-math.log(law.means[e]), 0.0)
            else:
                assert est.I_a is None and est.stderr_a is None

    def test_boundary_rates_ignore_the_seed_and_the_sign(self):
        # the default law's two atoms mirror each other, so -e1 has the rates of +e1
        plus, minus = (rate_point(TWO_ATOM, [s], seed=seed) for s, seed in ((1.0, 1), (-1.0, 2)))
        assert (plus.I_a, plus.I_q) == (minus.I_a, minus.I_q)
        assert rate_point(TWO_ATOM, [1.0], seed=3) == plus

    def test_boundary_point_draws_no_site(self, monkeypatch):
        def refuse(*args, **kwargs):
            pytest.fail("a boundary rate point drew a site")

        for target in ("rwre_lab.estimators.sample_environment",
                       "rwre_lab.environments.sample_environment",
                       "rwre_lab.environments.IIDProductLaw.ray_states",
                       "rwre_lab.environments.MarkovFieldLaw.ray_states",
                       "rwre_lab.environments._FiniteLaw.atom_blocks"):
            monkeypatch.setattr(target, refuse)
        field = MarkovFieldLaw(1, [[0.4, 0.6], [0.6, 0.4]], kappa=0.1, beta=0.5)
        for law in (TWO_ATOM, field):
            for x in ([1.0], [-1.0]):
                assert math.isfinite(rate_point(law, x, seed=1).I_q)

    def test_outside_ball_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            rate_point(TWO_ATOM, [1.2])

    def test_off_lattice_velocity_rejected(self):
        with pytest.raises(ValueError, match=r"velocity = \[0.013\] has no lattice denominator"):
            rate_point(TWO_ATOM, [0.013])

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_quenched_stderr_is_the_sample_stderr(self, seed):
        # the benchmark's 2-D law: each environment's extrapolated decay, recomputed
        # from its own forward evolution, and their sample standard error (n - 1)
        law = IIDProductLaw(2, [[0.3, 0.2, 0.25, 0.25], [0.2, 0.3, 0.25, 0.25]], [0.5, 0.5], 0.1)
        x, reps = np.array([0.2, 0.1]), 8
        est = rate_point(law, x, seed=seed, horizon=160, env_replicas=reps)
        n2 = est.horizon
        n1 = n2 // 2
        target1, target2 = np.round(n1 * x).astype(int), np.round(n2 * x).astype(int)
        rows = []
        for r in range(reps):
            env = sample_environment(law, derive_seed(seed, 31, r), light_cone(2, n2, target2))
            log2, log1 = log_point_probability_dp(env, n2, target2, at=(n1, target1))
            rows.append(2.0 * (-log2 / n2) + log1 / n1)
        mean = math.fsum(rows) / reps
        sample_se = math.sqrt(math.fsum((v - mean) ** 2 for v in rows) / (reps - 1) / reps)
        assert est.I_q == pytest.approx(mean, rel=1e-12)
        assert est.stderr_q == pytest.approx(sample_se, rel=1e-12)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_dp_rates_and_annealed_jackknife(self, monkeypatch, seed):
        # I_q is the mean of each environment's extrapolated decay, I_a the decay
        # of the averaged probabilities, and stderr_a the jackknife of I_a, here
        # recomputed on each leave-one-out set of environments
        logs = []

        def spy(*args, **kwargs):
            logs.append(log_point_probability_dp(*args, **kwargs))
            return logs[-1]

        monkeypatch.setattr("rwre_lab.estimators.log_point_probability_dp", spy)
        est = rate_point(TWO_ATOM, [0.5], seed=seed, horizon=60, env_replicas=6)
        n2 = est.horizon
        n1 = n2 // 2
        logp2, logp1 = map(np.array, zip(*logs))

        def rate(keep):
            keep = np.asarray(keep, dtype=np.int64)
            return (2.0 * (-log_mean_exp(logp2[keep]) / n2)
                    - (-log_mean_exp(logp1[keep]) / n1))

        assert len(logs) == 6
        assert est.I_q == float(np.mean(2.0 * (-logp2 / n2) - (-logp1 / n1)))
        assert est.I_a == pytest.approx(rate(np.arange(6)), rel=1e-14)
        assert est.stderr_a == pytest.approx(jackknife_by_deletion(np.arange(6.0), rate),
                                             rel=1e-10)

    def test_bound_vs_rate_reported(self, capsys):
        # the block-normalized value is reported next to the boundary rate; no
        # ordering is asserted between them (see the decisions ledger)
        b = certify_gap(TP, EPS, CFG, TWO_ATOM, budget=2, horizon=300)
        est = rate_point(TWO_ATOM, [1.0], seed=5)
        bound = b.W - b.annealed_side
        print(f"block bound value={bound:.6f} boundary I_a={est.I_a:.6f} "
              f"I_q={est.I_q:.6f} W={log_w_const(TP, 0):.6f}")
        assert math.isfinite(bound)
