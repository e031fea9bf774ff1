import itertools
import math

import numpy as np
import pytest

from rwre_lab.decomposition import EpsilonLaw, StoppingConfig, expected_tau, make_epsilon_law
from rwre_lab.environments import (IIDProductLaw, MarkovFieldLaw, centered_box,
                                   constant_law, sample_environment)
from rwre_lab.estimators import (bound_Ia, bound_Iq, certify_gap, estimate_free_energy,
                                 exact_gap_oracle, legendre_transform, log_w_const,
                                 quenched_ray_log_inner, rate_point,
                                 ray_inner_values, ray_log_inner_annealed_iid,
                                 sample_ray_xi)
from rwre_lab.numutil import BudgetError
from rwre_lab.tilting import solve_tilt, verify_identity_annealed, zero_disorder_free_energy
from rwre_lab.walks import forward_evolution

TWO_ATOM = IIDProductLaw(1, [[0.4, 0.6], [0.6, 0.4]], [0.5, 0.5], 0.1)
TP = solve_tilt(TWO_ATOM, [0.5])
EPS = EpsilonLaw(0.125, 1)
CFG = StoppingConfig(2, 0)


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
        q = quenched_ray_log_inner(TP, EPS, CFG, np.ones((1, h)))[0]
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
            quenched_ray_log_inner(TP, EPS, StoppingConfig(1, 0), xi)

    def test_mildly_negative_weights_still_positive(self):
        # signed weights are legal as long as the stopped sum stays positive
        w0 = -0.05
        xi = np.full((1, 50), (w0 + EPS.kbar) / TP.u[0])
        out = quenched_ray_log_inner(TP, EPS, CFG, xi)
        assert math.isfinite(out[0])


class TestBounds:
    def test_w_const(self):
        assert log_w_const(TP, 0) == pytest.approx(math.log(TP.D) + TP.theta[0], abs=0)
        assert log_w_const(TP, 0) == pytest.approx(math.log(1.5), abs=1e-12)

    def test_bound_ia_exact_vs_mc(self):
        exact = bound_Ia(TP, EPS, CFG, TWO_ATOM, method="exact", horizon=300)
        mc = bound_Ia(TP, EPS, CFG, TWO_ATOM, replicas=20_000, method="mc",
                      horizon=300, seed=4)
        assert exact.stderr == 0.0
        assert abs(mc.value - exact.value) < 4 * mc.stderr

    def test_bound_ia_zero_disorder_is_pure_combinatorics(self):
        # for product laws the annealed block value is the on-ray mass alone,
        # so the bound is the same for any disorder at fixed means
        law0 = constant_law(1, [0.5, 0.5], 0.1)
        tp0 = solve_tilt(law0, [0.5])
        b0 = bound_Ia(tp0, EPS, CFG, law0, method="exact", horizon=300)
        b2 = bound_Ia(TP, EPS, CFG, TWO_ATOM, method="exact", horizon=300)
        assert b0.value == pytest.approx(b2.value, abs=1e-12)

    def test_bound_iq_zero_disorder_equals_bound_ia(self):
        law0 = constant_law(1, [0.5, 0.5], 0.1)
        tp0 = solve_tilt(law0, [0.5])
        bi = bound_Ia(tp0, EPS, CFG, law0, method="exact", horizon=300)
        bq = bound_Iq(tp0, EPS, CFG, law0, env_replicas=16, method="exact",
                      horizon=300, seed=1)
        assert bq.value == pytest.approx(bi.value, abs=1e-12)
        assert bq.stderr == 0.0

    def test_bound_iq_exceeds_bound_ia_under_disorder(self):
        bi = bound_Ia(TP, EPS, CFG, TWO_ATOM, method="exact", horizon=400)
        bq = bound_Iq(TP, EPS, CFG, TWO_ATOM, env_replicas=4000, method="exact",
                      horizon=400, seed=2)
        assert bq.value - bi.value > 5 * bq.stderr

    def test_bound_iq_nested_mc_tracks_exact(self):
        exact = bound_Iq(TP, EPS, CFG, TWO_ATOM, env_replicas=60, method="exact",
                         horizon=120, seed=3)
        nested = bound_Iq(TP, EPS, CFG, TWO_ATOM, env_replicas=60, block_replicas=512,
                          method="mc", horizon=120, seed=3)
        # same environments, so only the inner sampling separates the two
        assert abs(nested.value - exact.value) < 6 * max(nested.stderr, 1e-4)

    def test_mc_routes_replay_across_threads(self):
        runs = [bound_Ia(TP, EPS, CFG, TWO_ATOM, replicas=3000, method="mc", horizon=200,
                         seed=5, threads=t) for t in (1, 1, 2)]
        assert runs[0] == runs[1] == runs[2]
        runs = [bound_Iq(TP, EPS, CFG, TWO_ATOM, env_replicas=8, block_replicas=1024,
                         method="mc", horizon=100, seed=5, threads=t) for t in (1, 1, 2)]
        assert runs[0] == runs[1] == runs[2]

    def test_bound_ia_mc_needs_product_law(self):
        field = MarkovFieldLaw(1, [[0.4, 0.6], [0.6, 0.4]], kappa=0.1, beta=0.0)
        with pytest.raises(ValueError, match="product law"):
            bound_Ia(TP, EPS, CFG, field, replicas=100, method="mc", horizon=50)

    def test_requires_positive_projection(self):
        with pytest.raises(ValueError):
            bound_Ia(TP, EPS, StoppingConfig(2, 1), TWO_ATOM, method="exact", horizon=50)


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
        rep = certify_gap(TP, EPS, CFG, TWO_ATOM, budget=20_000, horizon=h, seed=9)
        assert rep.annealed_side == pytest.approx(ao, abs=1e-12)
        assert abs(rep.gap - (ao - qo)) <= rep.stderr

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
        b = certify_gap(TP, EPS, CFG, TWO_ATOM, budget=800, seed=11, threads=4)
        assert np.array_equal(a.trace, b.trace)
        assert a.to_dict() == b.to_dict()

    def test_field_law_gap_tracks_equivalent_product_law(self):
        # a decoupled field equals the uniform product mixture, so the gap
        # estimated through the field branch (shared environment rows on both
        # sides) must agree with the exact-annealed product branch
        field = MarkovFieldLaw(1, [[0.4, 0.6], [0.6, 0.4]], kappa=0.1, beta=0.0)
        iid = IIDProductLaw(1, [[0.4, 0.6], [0.6, 0.4]], [0.5, 0.5], 0.1)
        h = 200
        rep_f = certify_gap(TP, EPS, CFG, field, budget=3000, horizon=h, seed=12)
        rep_i = certify_gap(TP, EPS, CFG, iid, budget=3000, horizon=h, seed=12)
        assert rep_f.annealed_stderr > 0.0  # field branch estimates both sides
        assert abs(rep_f.quenched_side - rep_i.quenched_side) < 4 * math.hypot(
            rep_f.quenched_stderr, rep_i.quenched_stderr)
        assert abs(rep_f.gap - rep_i.gap) < 6 * math.hypot(rep_f.stderr, rep_i.stderr) + 1e-5
        assert rep_f.significance > 0.0


class TestFreeEnergy:
    def test_exact_mode_matches_identity_rhs(self):
        # independent oracle through the change of measure: the functional at
        # theta equals D^n times the annealed tilted endpoint expectation
        n, theta = 6, 0.3
        est = estimate_free_energy(TP, [theta], n, 0, "annealed", law=TWO_ATOM,
                                   method="exact")
        _, rhs = verify_identity_annealed(TWO_ATOM, TP, [theta], n)
        assert est.value == pytest.approx(math.log(rhs) / n, rel=1e-9)

    def test_exact_mode_quenched(self):
        env = sample_environment(TWO_ATOM, 13, centered_box(1, 7))
        est = estimate_free_energy(TP, [0.2], 6, 0, "quenched", env=env, method="exact")
        from rwre_lab.tilting import verify_identity_quenched
        _, rhs = verify_identity_quenched(env, TP, [0.2], 6)
        assert est.value == pytest.approx(math.log(rhs) / 6, rel=1e-9)

    def test_zero_disorder_theta_zero_is_exactly_zero(self):
        law0 = constant_law(1, [0.5, 0.5], 0.1)
        tp0 = solve_tilt(law0, [0.5])
        est = estimate_free_energy(tp0, [0.0], 64, 400, "annealed", law=law0, seed=1)
        assert est.value == pytest.approx(0.0, abs=1e-12)

    def test_zero_disorder_matches_closed_form(self):
        # with no disorder the functional is the closed form at every horizon,
        # so the only deviation is sampling noise (keep the weights healthy)
        law0 = constant_law(1, [0.5, 0.5], 0.1)
        tp0 = solve_tilt(law0, [0.5])
        theta = [0.2]
        est = estimate_free_energy(tp0, theta, 50, 4000, "annealed", law=law0, seed=2)
        target = zero_disorder_free_energy(tp0, theta)
        assert est.ess > 100
        assert abs(est.value - target) < max(4 * est.stderr, 1e-3)

    def test_annealed_at_least_quenched(self):
        theta = [0.1]
        n = 100
        a = estimate_free_energy(TP, theta, n, 4000, "annealed", law=TWO_ATOM, seed=3)
        env = sample_environment(TWO_ATOM, 77, centered_box(1, n))
        q = estimate_free_energy(TP, theta, n, 4000, "quenched", env=env, seed=3)
        assert a.ess > 100 and q.ess > 100
        assert a.value - q.value > -3 * math.hypot(a.stderr, q.stderr)

    def test_thread_determinism(self):
        a = estimate_free_energy(TP, [0.1], 50, 2100, "annealed", law=TWO_ATOM, seed=5)
        b = estimate_free_energy(TP, [0.1], 50, 2100, "annealed", law=TWO_ATOM, seed=5,
                                 threads=8)
        assert a.value == b.value and a.stderr == b.stderr

    def test_degenerate_weights_flagged(self):
        with pytest.warns(UserWarning, match="degenerate"):
            est = estimate_free_energy(TP, [0.0], 400, 12, "quenched",
                                       env=sample_environment(TWO_ATOM, 1, centered_box(1, 400)),
                                       seed=6)
        assert est.degenerate

    def test_shift_relation(self):
        # the tilted functional should sit at log D plus the annealed tilted
        # endpoint free energy; both sides estimated by separate routes
        horizon, reps = 2000, 1500
        theta = 0.05
        est = estimate_free_energy(TP, [theta], horizon, reps, "annealed",
                                   law=TWO_ATOM, seed=7)
        shifted = theta + TP.theta[0]
        envs = 32
        vals = np.empty(envs)
        for e in range(envs):
            env = sample_environment(TWO_ATOM, 9000 + e, centered_box(1, horizon))
            grid, _, log_scale = forward_evolution(env, horizon, tilt=np.exp([shifted, -shifted]))
            vals[e] = log_scale + math.log(grid.sum())
        lam_a = (np.log(np.mean(np.exp(vals - vals.max()))) + vals.max()) / horizon
        diff = est.value - math.log(TP.D) - lam_a
        assert abs(diff) < 0.02

    def test_field_law_paired_resampling(self):
        # decoupled field at beta = 0 equals the uniform product mixture
        field = MarkovFieldLaw(1, [[0.4, 0.6], [0.6, 0.4]], kappa=0.1, beta=0.0)
        iid = IIDProductLaw(1, [[0.4, 0.6], [0.6, 0.4]], [0.5, 0.5], 0.1)
        tp = solve_tilt(iid, [0.5])
        a = estimate_free_energy(tp, [0.1], 40, 1500, "annealed", law=field, seed=8,
                                 field_env_replicas=64)
        b = estimate_free_energy(tp, [0.1], 40, 1500, "annealed", law=iid, seed=8)
        assert abs(a.value - b.value) < 4 * math.hypot(a.stderr, b.stderr) + 5e-3

    def test_limit_consistency_reported(self, capsys):
        # finite-horizon trend toward the infinite-horizon level; reported,
        # not asserted, because the drift at these horizons is real
        theta = [0.3]
        values = []
        for n in range(4, 11):
            est = estimate_free_energy(TP, theta, n, 0, "annealed", law=TWO_ATOM,
                                       method="exact")
            values.append(est.value)
        print("finite-horizon free energies:", np.round(values, 6))
        assert np.all(np.isfinite(values))


class TestLegendre:
    @staticmethod
    def logcosh_grid(width=3.0, num=601):
        grid = np.linspace(-width, width, num)
        return grid, np.log(np.cosh(grid))

    def test_symmetric_walk_at_zero(self):
        grid, vals = self.logcosh_grid()
        assert legendre_transform(grid[:, None], vals, [0.0]) == pytest.approx(0.0, abs=1e-12)

    def test_symmetric_walk_at_half(self):
        grid, vals = self.logcosh_grid()
        expect = 0.5 * (1.5 * math.log(1.5) + 0.5 * math.log(0.5))
        got = legendre_transform(grid[:, None], vals, [0.5])
        assert got == pytest.approx(expect, abs=1e-6)
        assert expect == pytest.approx(0.130812, abs=1e-6)
        # fine-grid scan oracle
        fine = np.linspace(-3, 3, 6_000_001)
        scan = float(np.max(0.5 * fine - np.log(np.cosh(fine))))
        assert got == pytest.approx(scan, abs=1e-6)

    def test_shifted_free_energy_translates(self):
        grid, vals = self.logcosh_grid()
        c = 0.2
        shifted = vals + c * grid
        for x in (0.0, 0.3, 0.5):
            a = legendre_transform(grid[:, None], shifted, [x + c])
            b = legendre_transform(grid[:, None], vals, [x])
            assert a == pytest.approx(b, abs=1e-9)

    def test_boundary_maximizer_rejected(self):
        grid = np.linspace(-0.2, 0.2, 21)
        vals = np.log(np.cosh(grid))
        with pytest.raises(ValueError, match="boundary"):
            legendre_transform(grid[:, None], vals, [0.9])

    def test_dict_input_and_clipping(self):
        grid, vals = self.logcosh_grid()
        samples = {(float(t),): float(v) for t, v in zip(grid, vals)}
        assert legendre_transform(samples, None, [0.0]) >= 0.0

    def test_output_convex_in_velocity(self):
        grid, vals = self.logcosh_grid()
        xs = np.linspace(-0.6, 0.6, 25)
        out = [legendre_transform(grid[:, None], vals, [x]) for x in xs]
        assert np.all(np.diff(out, 2) >= -1e-8)

    def test_2d_grid(self):
        axes = np.linspace(-2, 2, 41)
        nodes = np.stack([g.ravel() for g in np.meshgrid(axes, axes, indexing="ij")], axis=1)
        vals = np.log(np.cosh(nodes[:, 0])) + np.log(np.cosh(nodes[:, 1]))
        got = legendre_transform(nodes, vals, [0.5, 0.0])
        expect = 0.5 * (1.5 * math.log(1.5) + 0.5 * math.log(0.5))
        assert got == pytest.approx(expect, abs=5e-4)


class TestRatePoint:
    def test_cramer_value_zero_disorder(self):
        law0 = constant_law(1, [0.5, 0.5], 0.1)
        est = rate_point(law0, [0.5], "enumeration", seed=1, horizon=400)
        assert est.I_q == pytest.approx(0.130812, abs=0.01)
        assert est.I_a == pytest.approx(0.130812, abs=0.01)

    def test_boundary_closed_forms(self):
        est = rate_point(TWO_ATOM, [1.0], seed=2)
        expect_a = -math.log(0.5)
        expect_q = -(0.5 * math.log(0.4) + 0.5 * math.log(0.6))
        assert est.I_a == pytest.approx(expect_a, abs=1e-12)
        assert est.I_q == pytest.approx(expect_q, abs=0.01)
        assert est.I_a < est.I_q

    def test_interior_ordering_with_disorder(self):
        est = rate_point(TWO_ATOM, [0.5], "enumeration", seed=3, horizon=200,
                         env_replicas=12)
        assert est.I_a <= est.I_q + 3 * math.hypot(est.stderr_a, est.stderr_q)

    def test_tilted_route_zero_disorder(self):
        law0 = constant_law(1, [0.5, 0.5], 0.1)
        est = rate_point(law0, [0.5], "tilted-mc", seed=4, mc_replicas=4000,
                         mc_horizon=200)
        assert est.I_a == pytest.approx(0.130812, abs=0.02)

    def test_outside_ball_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            rate_point(TWO_ATOM, [1.2])

    def test_bound_vs_rate_reported(self, capsys):
        # the block-normalized value is reported next to the boundary rate; no
        # ordering is asserted between them (see the decisions ledger)
        b = bound_Ia(TP, EPS, CFG, TWO_ATOM, method="exact", horizon=300)
        est = rate_point(TWO_ATOM, [1.0], seed=5)
        print(f"block bound value={b.value:.6f} boundary I_a={est.I_a:.6f} "
              f"I_q={est.I_q:.6f} W={log_w_const(TP, 0):.6f}")
        assert math.isfinite(b.value)
