import json
import math
import tracemalloc

import numpy as np
import pytest

from rwre_lab.decomposition import make_epsilon_law
from rwre_lab.environments import IIDProductLaw, centered_box, sample_environment
from rwre_lab.identities import (PATH_BLOCK, annealed_identity_bytes,
                                 decomposed_endpoint_distribution, qz_endpoint_distribution,
                                 verify_identity_annealed, verify_identity_quenched,
                                 verify_psi_identity)
from rwre_lab.numutil import BudgetError
from rwre_lab.tilting import TiltParams, scale_function, solve_tilt, tilt_invariant_residuals

from envhelpers import constant_law, mean_environment, omega

TWO_ATOM = IIDProductLaw(1, [[0.4, 0.6], [0.6, 0.4]], [0.5, 0.5], 0.1)
FLAT_1D = constant_law(1, [0.5, 0.5], 0.1)  # means 1/2 each way


def random_law(rng, d):
    """A random two-atom product law with healthy ellipticity."""
    kappa = rng.uniform(0.15, 0.4) / (2 * d)
    base = 2 * kappa + (1 - 4 * d * kappa) * rng.dirichlet(np.ones(2 * d))
    wobble = rng.uniform(-1.0, 1.0, size=2 * d)
    wobble -= wobble.mean()  # keeps both atoms summing to one
    amp = rng.uniform(0.0, 0.9) * kappa / max(float(np.abs(wobble).max()), 1e-12)
    return IIDProductLaw(d, [base + amp * wobble, base - amp * wobble], [0.5, 0.5], kappa)


def random_velocity(rng, d):
    z = rng.uniform(-1.0, 1.0, size=d)
    return z / (np.abs(z).sum() + 1e-12) * rng.uniform(0.05, 0.9)


class TestSolveTilt:
    def test_closed_form_d1(self):
        tp = solve_tilt(FLAT_1D, [0.5])
        assert tp.C == pytest.approx(0.75, abs=1e-12)
        assert tp.u[0] == pytest.approx(0.75, abs=1e-12)
        assert tp.u[1] == pytest.approx(0.25, abs=1e-12)
        assert tp.D == pytest.approx(math.sqrt(3) / 2, abs=1e-12)
        assert tp.theta[0] == pytest.approx(math.log(math.sqrt(3)), abs=1e-12)
        assert tp.residual <= 1e-12

    def test_closed_form_d2(self):
        # means all 1/4, z = (1/2, 0): the scale equation solves to C = 9/16
        tp = solve_tilt(constant_law(2, [0.25] * 4, 0.1), [0.5, 0.0])
        assert tp.C == pytest.approx(9.0 / 16.0, abs=1e-12)
        assert tp.u[0] == pytest.approx(9.0 / 16.0, abs=1e-12)
        assert tp.u[1] == pytest.approx(1.0 / 16.0, abs=1e-12)
        assert tp.u[2] == pytest.approx(3.0 / 16.0, abs=1e-12)
        assert tp.D == pytest.approx(0.75, abs=1e-12)

    @pytest.mark.parametrize("row,z", [([0.4, 0.6], 0.3), ([0.7, 0.3], -0.6),
                                       ([0.9999999999999999, 1e-16], 0.5)])
    def test_closed_form_scale_in_d1(self, row, z):
        # f(C) = sqrt(z^2 + 4 C m+ m-) = 1 in d = 1; the last root is 1.875e15
        tp = solve_tilt(constant_law(1, row, min(row) / 2), [z])
        assert tp.C == pytest.approx((1 - z**2) / (4 * row[0] * row[1]), rel=1e-12)
        assert tp.residual <= 1e-12

    def test_refuses_a_law_whose_root_bound_is_no_double(self):
        # S = 2 sqrt(m+ m-) = 2e-155, so 4/S^2 = 1e310 is past the largest double
        law = constant_law(1, [0.9999999999999, 1e-310], 1e-310)
        with pytest.raises(BudgetError, match=r"^law\.atoms: the scale root lies below 1/S\^2"):
            solve_tilt(law, [0.5])

    def test_bisection_against_grid_scan(self):
        # independent oracle: locate the unit crossing of the scale function
        # on a fine grid and check the returned root lies inside that cell
        means = TWO_ATOM.means
        tp = solve_tilt(TWO_ATOM, [0.3])
        grid = np.linspace(0.0, 4.0, 400_001)
        vals = np.array([scale_function(c, np.array([0.3]), means) for c in grid[::400]])
        coarse = grid[::400]
        ix = int(np.searchsorted(vals, 1.0))
        assert coarse[ix - 1] <= tp.C <= coarse[ix]

    def test_near_zero_velocity_symmetric(self):
        tp = solve_tilt(FLAT_1D, [1e-9])
        assert tp.C == pytest.approx(1.0, abs=1e-6)
        assert tp.u[0] == pytest.approx(0.5, abs=1e-6)
        assert abs(tp.theta[0]) < 1e-6
        assert tp.D == pytest.approx(1.0, abs=1e-6)

    def test_rejects_zero_velocity(self):
        with pytest.raises(ValueError, match="z = 0"):
            solve_tilt(TWO_ATOM, [0.0])

    def test_rejects_velocity_outside_ball(self):
        with pytest.raises(ValueError, match="must be < 1"):
            solve_tilt(TWO_ATOM, [1.0])

    def test_rejects_velocity_of_another_dimension(self):
        with pytest.raises(ValueError, match="law.dimension = 1 entries"):
            solve_tilt(TWO_ATOM, [0.2, 0.1])

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_randomized_invariants(self, d):
        rng = np.random.default_rng(10 + d)
        for _ in range(12):
            law = random_law(rng, d)
            tp = solve_tilt(law, random_velocity(rng, d))
            res = tilt_invariant_residuals(tp)
            assert max(res.values()) <= 1e-10, res
            assert tp.c_z > 0

    def test_field_law_uses_its_marginal_means(self):
        from rwre_lab.environments import MarkovFieldLaw

        field = MarkovFieldLaw(1, [[0.4, 0.6], [0.6, 0.4]], kappa=0.1, beta=0.0)
        tp_field = solve_tilt(field, [0.5])
        tp_flat = solve_tilt(FLAT_1D, [0.5])
        assert tp_field.C == pytest.approx(tp_flat.C, abs=1e-12)
        assert tp_field.u == pytest.approx(tp_flat.u, abs=1e-12)

    def test_scale_function_increasing(self):
        means = TWO_ATOM.means
        z = np.array([0.4])
        vals = [scale_function(c, z, means) for c in np.linspace(0.0, 5.0, 200)]
        assert np.all(np.diff(vals) > 0)


class TestStepDistribution:
    def test_values(self):
        tp = solve_tilt(FLAT_1D, [0.5])
        u = tp.u_array
        assert u[0] == pytest.approx(0.75, abs=1e-12)
        assert u[1] == pytest.approx(0.25, abs=1e-12)

    def test_sums_to_one_and_drifts(self):
        rng = np.random.default_rng(3)
        law = random_law(rng, 2)
        z = random_velocity(rng, 2)
        tp = solve_tilt(law, z)
        u = tp.u_array
        assert u.sum() == pytest.approx(1.0, abs=1e-12)
        from rwre_lab.environments import direction_vectors
        assert np.allclose(u @ direction_vectors(2), z, atol=1e-12)


class TestIdentityAnnealed:
    def test_zero_disorder_collapse(self):
        law = constant_law(1, [0.5, 0.5], 0.1)
        tp = solve_tilt(law, [0.5])
        [lhs], [rhs] = verify_identity_annealed(law, tp, [[0.7]], 4)
        assert lhs == pytest.approx(rhs, rel=1e-12)
        # both sides equal the bare tilted walk expectation when xi == 1
        direct = (0.75 * math.exp(0.7) + 0.25 * math.exp(-0.7)) ** 4  # i.i.d. steps
        assert lhs == pytest.approx(direct, rel=1e-12)

    def test_two_atom_identity(self):
        tp = solve_tilt(TWO_ATOM, [0.5])
        [lhs], [rhs] = verify_identity_annealed(TWO_ATOM, tp, [[0.3]], 5)
        assert abs(lhs - rhs) / abs(rhs) <= 1e-10

    def test_cancelling_tilt_gives_power_of_D(self):
        tp = solve_tilt(TWO_ATOM, [0.5])
        [lhs], [rhs] = verify_identity_annealed(TWO_ATOM, tp, -np.asarray([tp.theta]), 3)
        assert rhs == pytest.approx(tp.D**3, rel=1e-12)
        assert lhs == pytest.approx(tp.D**3, rel=1e-10)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_identity_many_horizons(self, n):
        rng = np.random.default_rng(n)
        tp = solve_tilt(TWO_ATOM, [0.4])
        theta = rng.uniform(-2, 2, size=(1, 1))
        [lhs], [rhs] = verify_identity_annealed(TWO_ATOM, tp, theta, n)
        assert abs(lhs - rhs) / abs(rhs) <= 1e-10


class TestIdentityQuenched:
    def test_mean_environment_reduces_to_annealed_trivial(self):
        law = constant_law(1, [0.5, 0.5], 0.1)
        tp = solve_tilt(law, [0.5])
        env = mean_environment(law, centered_box(1, 5))
        [lhs_q], [rhs_q] = verify_identity_quenched(env, tp, [[0.2]], 4)
        [lhs_a], [rhs_a] = verify_identity_annealed(law, tp, [[0.2]], 4)
        assert lhs_q == pytest.approx(lhs_a, rel=1e-12)
        assert rhs_q == pytest.approx(rhs_a, rel=1e-12)

    def test_random_environment(self):
        tp = solve_tilt(TWO_ATOM, [0.5])
        env = sample_environment(TWO_ATOM, 31, centered_box(1, 6))
        [lhs], [rhs] = verify_identity_quenched(env, tp, [[0.0]], 5)
        assert abs(lhs - rhs) / abs(rhs) <= 1e-10

    def test_single_step_term_by_term(self):
        tp = solve_tilt(TWO_ATOM, [0.5])
        env = sample_environment(TWO_ATOM, 8, centered_box(1, 2))
        theta = 0.45
        [lhs], [rhs] = verify_identity_quenched(env, tp, [[theta]], 1)
        means = TWO_ATOM.means
        by_hand_lhs = sum(
            tp.u[k] * math.exp(theta * v) * float(omega(env, (0,))[k]) / means[k]
            for k, v in ((0, 1.0), (1, -1.0)))
        by_hand_rhs = tp.D * sum(
            float(omega(env, (0,))[k]) * math.exp((theta + tp.theta[0]) * v)
            for k, v in ((0, 1.0), (1, -1.0)))
        assert lhs == pytest.approx(by_hand_lhs, rel=1e-13)
        assert rhs == pytest.approx(by_hand_rhs, rel=1e-13)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_identity_2d(self):
        law = IIDProductLaw(2, [[0.3, 0.2, 0.25, 0.25], [0.2, 0.3, 0.25, 0.25]],
                            [0.5, 0.5], 0.1)
        tp = solve_tilt(law, [0.3, -0.1])
        env = sample_environment(law, 5, centered_box(2, 5))
        [lhs], [rhs] = verify_identity_quenched(env, tp, [[0.2, -0.4]], 4)
        assert abs(lhs - rhs) / abs(rhs) <= 1e-10


class TestStackedTheta:
    @pytest.mark.parametrize("d,z,n_max", [(1, [0.5], 6), (2, [0.2, 0.1], 4),
                                           (3, [0.2, 0.1, 0.1], 3)])
    def test_rows_equal_single_calls_bit_for_bit(self, d, z, n_max):
        # one enumeration per call serves every theta: a (T, d) stack gives
        # (T,) sides whose rows equal the T one-row stacks, ==, not approx
        rng = np.random.default_rng(d)
        law = random_law(rng, d)
        tp = solve_tilt(law, z)
        env = sample_environment(law, 4, centered_box(d, n_max + 1))
        thetas = rng.uniform(-0.5, 0.5, size=(4, d))
        for n in range(1, n_max + 1):
            for oracle, first in ((verify_identity_annealed, law),
                                  (verify_identity_quenched, env)):
                lhs, rhs = oracle(first, tp, thetas, n)
                assert lhs.shape == rhs.shape == (4,)
                singles = [oracle(first, tp, th[None], n) for th in thetas]
                assert all(side.shape == (1,) for pair in singles for side in pair)
                assert lhs.tolist() == [s[0][0] for s in singles]
                assert rhs.tolist() == [s[1][0] for s in singles]


class TestPathBlocks:
    @pytest.mark.parametrize("d,z,n,n_joint", [(1, [0.5], 11, 9), (2, [0.2, 0.1], 6, 5)])
    def test_results_do_not_depend_on_the_block_size(self, monkeypatch, d, z, n, n_joint):
        # 2048 and 4096 paths: blocks of one path, of 7, of the default (two and
        # four blocks) and one block of them all give the same bits; the joint
        # enumerations run on 2^18 and 2^15 (path, word) pairs. Weights off the
        # dyadic grid make the atom mixture round, as a BLAS would by batch width
        atoms = [[0.4, 0.6], [0.6, 0.4], [0.5, 0.5]] if d == 1 else [
            [0.3, 0.2, 0.25, 0.25], [0.2, 0.3, 0.25, 0.25], [0.25, 0.25, 0.3, 0.2]]
        law = IIDProductLaw(d, atoms, [0.2, 0.5, 0.3], 0.1)
        tp = solve_tilt(law, z)
        eps = make_epsilon_law(tp)
        env = sample_environment(law, 3, centered_box(d, n + 1))
        thetas = np.random.default_rng(d).uniform(-0.5, 0.5, size=(3, d))
        runs = []
        for block in (1, 7, PATH_BLOCK, (2 * d) ** n):
            monkeypatch.setattr("rwre_lab.identities.PATH_BLOCK", block)
            annealed = verify_identity_annealed(law, tp, thetas, n)
            quenched = verify_identity_quenched(env, tp, thetas, n)
            runs.append(([side.tolist() for side in annealed + quenched],
                         verify_psi_identity(tp, eps, env, thetas[0], n_joint),
                         qz_endpoint_distribution(tp, n),
                         decomposed_endpoint_distribution(tp, eps, n_joint)))
        assert all(run == runs[0] for run in runs[1:])

    def test_annealed_memory_does_not_grow_with_the_paths(self):
        # n = 12 to 16 is 61 440 more paths: one float per path and theta would
        # add 8 * 5 * 61 440 = 2.4 MB, the whole batch 20 MB more; each side
        # keeps a few floats of exact expansion, and only a block's arrays grow
        # with n, by about 90 bytes per path-step (128 allowed)
        tp = solve_tilt(TWO_ATOM, [0.5])
        thetas = np.linspace(-0.5, 0.5, 5)[:, None]
        peaks = []
        for n in (12, 16):
            tracemalloc.start()
            try:
                verify_identity_annealed(TWO_ATOM, tp, thetas, n)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] <= 128 * PATH_BLOCK * (16 - 12)

    @pytest.mark.parametrize("d,n", [(1, 12), (2, 6)])
    def test_annealed_memory_is_within_its_estimate(self, d, n):
        # 256 atoms: the site-grouped tables of one block dominate, and the
        # traced peak (55 MiB and 43 MiB) stays below verify's pre-flight
        # estimate (98 MiB and 49 MiB), yet above a third of it
        rng = np.random.default_rng(d)
        atoms = np.full((256, 2 * d), 0.25)
        atoms[:, 0] = rng.uniform(0.3, 0.7, size=256) / d
        atoms[:, 1] = 1.0 / d - atoms[:, 0]
        law = IIDProductLaw(d, atoms, np.full(256, 1 / 256), 0.05)
        tp = solve_tilt(law, [0.3, 0.1][:d])
        tracemalloc.start()
        try:
            verify_identity_annealed(law, tp, np.full((5, d), 0.2), n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        estimate = annealed_identity_bytes(256, n, d)
        assert estimate / 3 < peak < estimate


class TestSerialization:
    def test_json_roundtrip(self):
        tp = solve_tilt(TWO_ATOM, [0.5])
        # the tilt block of gap_report.json is to_dict() through json
        blob = json.loads(json.dumps(tp.to_dict(), sort_keys=True))
        back = TiltParams(**{k: tuple(v) if isinstance(v, list) else v for k, v in blob.items()})
        assert back == tp
        for key in ("z", "C", "u", "theta", "D", "residual"):
            assert key in blob
