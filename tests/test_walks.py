import itertools
import math

import numpy as np
import pytest

from rwre_lab.environments import (IIDProductLaw, MarkovFieldLaw, centered_box,
                                   direction_vectors, sample_environment)
from rwre_lab.evolution import light_cone, log_point_probability_dp
from rwre_lab.identities import path_positions, step_blocks
from rwre_lab.numutil import BudgetError, words

from envhelpers import constant_law, omega
from oracles import (annealed_path_weights, annealed_point_probability,
                     quenched_endpoint_distribution, quenched_point_probability)


def two_atom_law():
    return IIDProductLaw(1, [[0.4, 0.6], [0.6, 0.4]], [0.5, 0.5], 0.1)


def simulate_quenched(env, start, n: int, rng_seed: int, walks: int = 1) -> np.ndarray:
    """Sites visited by independent quenched walks, shape (walks, n + 1, d).

    Reads omega once at every site of ``env.box`` and moves every walk one
    step per pass. Reproducible for a fixed seed; a walk that steps off from a site
    outside the realized region raises ValueError.
    """
    d = env.law.dimension
    shape, lo = env.box.shape, np.asarray(env.box.lo)
    cum = np.cumsum(env.omega_many(env.box.all_sites()), axis=-1)
    vecs = direction_vectors(d)
    us = np.random.default_rng(rng_seed).random((n, walks))
    pos = np.empty((walks, n + 1, d), dtype=np.int64)
    pos[:, 0] = start
    for j in range(n):
        idx = pos[:, j] - lo
        outside = np.any((idx < 0) | (idx >= shape), axis=1)
        if outside.any():
            raise ValueError(f"site {tuple(pos[outside.argmax(), j])} outside realized region")
        flat = np.ravel_multi_index(idx.T, shape)
        k = np.minimum((us[j][:, None] >= cum[flat]).sum(axis=1), 2 * d - 1)
        pos[:, j + 1] = pos[:, j] + vecs[k]
    return pos


class TestEnumeration:
    @pytest.mark.parametrize("n,d,count", [(1, 1, 2), (3, 2, 64), (8, 1, 256)])
    def test_counts(self, n, d, count):
        steps = words(2 * d, n)
        assert steps.shape == (count, n)
        assert len({tuple(row) for row in steps.tolist()}) == count

    def test_budget_exceeded(self):
        with pytest.raises(BudgetError):
            step_blocks(30, 2)

    def test_paths_are_nearest_neighbor(self):
        pos = path_positions(words(4, 4), 2)
        assert pos.shape == (256, 5, 2) and not pos[:, 0].any()
        assert np.all(np.abs(np.diff(pos, axis=1)).sum(axis=2) == 1)


class TestQuenchedProbabilities:
    def test_one_step(self):
        env = sample_environment(two_atom_law(), 3, centered_box(1, 3))
        assert quenched_point_probability(env, 1, (1,)) == pytest.approx(
            float(omega(env, (0,))[0]), abs=0)

    def test_return_probability_hand_expansion(self):
        env = sample_environment(two_atom_law(), 5, centered_box(1, 3))
        expect = (float(omega(env, (0,))[0]) * float(omega(env, (1,))[1])
                  + float(omega(env, (0,))[1]) * float(omega(env, (-1,))[0]))
        assert quenched_point_probability(env, 2, (0,)) == pytest.approx(expect, rel=1e-14)

    def test_straight_path(self):
        env = sample_environment(two_atom_law(), 7, centered_box(1, 8))
        n = 6
        expect = 1.0
        for j in range(n):
            expect *= float(omega(env, (j,))[0])
        assert quenched_point_probability(env, n, (n,)) == pytest.approx(expect, rel=1e-14)

    @pytest.mark.parametrize("d,n", [(1, 5), (2, 3), (1, 0), (2, 0)])
    def test_total_probability(self, d, n):
        law = IIDProductLaw(d, np.full((1, 2 * d), 1.0 / (2 * d)), [1.0], 0.1)
        law2 = two_atom_law() if d == 1 else law
        env = sample_environment(law2, 11, centered_box(d, n + 1))
        dist = quenched_endpoint_distribution(env, n)
        assert sum(dist.values()) == pytest.approx(1.0, abs=1e-10)

    def test_dp_matches_enumeration(self):
        env = sample_environment(two_atom_law(), 13, centered_box(1, 7))
        dist = quenched_endpoint_distribution(env, 6)
        for target, prob in dist.items():
            assert log_point_probability_dp(env, 6, target) == pytest.approx(math.log(prob),
                                                                             rel=1e-12)

    def test_dp_matches_enumeration_2d(self):
        law = IIDProductLaw(2, [[0.3, 0.2, 0.25, 0.25], [0.2, 0.3, 0.25, 0.25]],
                            [0.5, 0.5], 0.1)
        env = sample_environment(law, 5, centered_box(2, 5))
        dist = quenched_endpoint_distribution(env, 4)
        for target, prob in dist.items():
            assert log_point_probability_dp(env, 4, target) == pytest.approx(math.log(prob),
                                                                             rel=1e-12)

    def test_log_dp_matches_enumeration(self):
        env = sample_environment(two_atom_law(), 19, centered_box(1, 9))
        p = quenched_point_probability(env, 8, (2,))
        assert log_point_probability_dp(env, 8, (2,)) == pytest.approx(math.log(p), rel=1e-12)

    def test_log_dp_readout_underflow_raises(self):
        # at step 200 of this 400-step evolution the readout's mass lies more than
        # 2^1074 below the window's peak and reads 0; every step has probability
        # kappa > 0 or more, so that 0 is underflow, not the answer
        law = IIDProductLaw(1, [[0.9999999, 1e-7], [1e-7, 0.9999999]], [0.5, 0.5], 1e-10)
        env = sample_environment(law, 0, light_cone(1, 400, (200,)))
        with pytest.raises(BudgetError, match=r"^P\(X_200 = \[100\]\) underflows"):
            log_point_probability_dp(env, 400, (200,), at=(200, (100,)))

    def test_log_dp_unreachable(self):
        env = sample_environment(two_atom_law(), 19, centered_box(1, 9))
        assert log_point_probability_dp(env, 8, (3,)) == -math.inf

    @pytest.mark.parametrize("target", [(-5,), (5,), (-5, 0), (5, 0), (0, 5), (3, -2)])
    def test_log_dp_target_outside_box(self, target):
        # past the radius-n box a target must neither wrap to the far side nor index past it
        d = len(target)
        law = two_atom_law() if d == 1 else IIDProductLaw(
            2, [[0.3, 0.2, 0.25, 0.25], [0.2, 0.3, 0.25, 0.25]], [0.5, 0.5], 0.1)
        env = sample_environment(law, 19, centered_box(d, 9))
        assert quenched_point_probability(env, 4, target) == 0.0
        assert log_point_probability_dp(env, 4, target) == -math.inf

    def test_target_of_another_dimension_raises(self):
        law = IIDProductLaw(2, [[0.3, 0.2, 0.25, 0.25]], [1.0], 0.1)
        env = sample_environment(law, 1, centered_box(2, 3))
        with pytest.raises(ValueError, match="not a site"):
            quenched_point_probability(env, 2, (1,))  # (1, 1) must not match
        with pytest.raises(ValueError, match="not a site"):
            annealed_point_probability(law, 2, (1, 1, 0))
        for target in [(1,), (1, 1, 0)]:  # neither -inf nor an indexing error
            with pytest.raises(ValueError, match="not a site"):
                log_point_probability_dp(env, 3, target)


class TestAnnealedProbabilities:
    def test_single_atom_straight(self):
        law = constant_law(1, [0.6, 0.4], 0.1)
        assert annealed_point_probability(law, 2, (2,)) == pytest.approx(0.36, rel=1e-14)

    def test_two_atom_one_step(self):
        assert annealed_point_probability(two_atom_law(), 1, (1,)) == pytest.approx(0.5, abs=1e-15)

    def test_two_atom_straight_three(self):
        # straight path visits 3 distinct sites: the mean factorizes
        assert annealed_point_probability(two_atom_law(), 3, (3,)) == pytest.approx(0.125, rel=1e-14)

    def test_multivisit_moment_against_brute_force(self):
        # oracle: enumerate atom assignments over the visited sites directly
        law = two_atom_law()
        steps = np.array([[0, 1, 0, 0, 1, 0]])  # revisits sites around the origin
        pos = path_positions(steps, 1)[0].tolist()
        sites = sorted({tuple(s) for s in pos[:-1]})
        total = 0.0
        for combo in itertools.product(range(2), repeat=len(sites)):
            assign = dict(zip(sites, combo))
            w = 1.0
            for j, k in enumerate(steps[0]):
                w *= law.table[assign[tuple(pos[j])], k]
            total += w * 0.5 ** len(sites)
        assert annealed_path_weights(law, steps)[0] == pytest.approx(total, rel=1e-13)

    def test_annealed_is_average_of_quenched(self):
        law = two_atom_law()
        n, target = 4, (2,)
        exact = annealed_point_probability(law, n, target)
        reps = 3000
        vals = np.empty(reps)
        for r in range(reps):
            env = sample_environment(law, 1000 + r, centered_box(1, n + 1))
            vals[r] = quenched_point_probability(env, n, target)
        se = vals.std(ddof=1) / math.sqrt(reps)
        assert abs(vals.mean() - exact) < 4 * se

    def test_markov_field_beta_zero_matches_uniform_mixture(self):
        field = MarkovFieldLaw(1, [[0.3, 0.7], [0.7, 0.3]], kappa=0.1, beta=0.0)
        iid = IIDProductLaw(1, [[0.3, 0.7], [0.7, 0.3]], [0.5, 0.5], 0.1)
        steps = words(2, 3)
        assert annealed_path_weights(field, steps) == pytest.approx(
            annealed_path_weights(iid, steps), rel=1e-12)

    def test_markov_field_chain_weight_is_box_free(self):
        # the 1-D nearest-neighbour chain: a path's weight does not depend on the
        # box its batch spans
        field = MarkovFieldLaw(1, [[0.3, 0.7], [0.7, 0.3]], kappa=0.1, beta=1.0)
        steps = words(2, 3)
        batch = annealed_path_weights(field, steps)
        for row, weight in zip(steps, batch):
            assert annealed_path_weights(field, row[None]) == pytest.approx([weight], abs=1e-15)

    def test_markov_field_box_dependent_weight_raises(self):
        # at range 2 the path (+, -, +) weighs 0.114384 inside the full batch's
        # box and 0.120401 alone
        field = MarkovFieldLaw(1, [[0.3, 0.7], [0.7, 0.3]], kappa=0.1, range_r=2, beta=1.0)
        with pytest.raises(ValueError, match="box-free"):
            annealed_path_weights(field, np.array([[0, 1, 0]]))


class TestSimulation:
    def test_zero_steps(self):
        env = sample_environment(two_atom_law(), 1, centered_box(1, 2))
        pos = simulate_quenched(env, (0,), 0, 5)
        assert pos.shape == (1, 1, 1) and pos[0, -1, 0] == 0

    def test_reproducible(self):
        env = sample_environment(two_atom_law(), 1, centered_box(1, 200))
        a = simulate_quenched(env, (0,), 150, 7)
        b = simulate_quenched(env, (0,), 150, 7)
        assert np.array_equal(a, b)
        assert np.all(np.abs(np.diff(a[0, :, 0])) == 1)

    def test_drift_lln_dominant_direction(self):
        kappa = 0.05
        p_plus = 1.0 - kappa
        law = constant_law(1, [p_plus, kappa], kappa)
        env = sample_environment(law, 2, centered_box(1, 10_001))
        n = 10_000
        drift = simulate_quenched(env, (0,), n, 11)[0, -1, 0] / n
        expect = p_plus - kappa
        se = math.sqrt((1 - expect**2) / n)
        assert abs(drift - expect) < 4 * se

    def test_symmetric_walk_centered(self):
        law = constant_law(1, [0.5, 0.5], 0.1)
        env = sample_environment(law, 2, centered_box(1, 10_001))
        end = simulate_quenched(env, (0,), 10_000, 3)[0, -1, 0]
        assert abs(end) < 4 * math.sqrt(10_000)

    def test_endpoint_frequencies_match_enumeration(self):
        law = two_atom_law()
        env = sample_environment(law, 21, centered_box(1, 7))
        n, reps = 5, 20_000
        dist = quenched_endpoint_distribution(env, n)
        ends, counts = np.unique(simulate_quenched(env, (0,), n, 40_000, walks=reps)[:, -1, 0],
                                 return_counts=True)
        freqs = dict(zip(ends.tolist(), (counts / reps).tolist()))
        assert set(freqs) <= {t[0] for t in dist}
        for target, prob in dist.items():
            freq = freqs.get(target[0], 0.0)
            se = math.sqrt(prob * (1 - prob) / reps)
            assert abs(freq - prob) < 4 * se + 1e-12

    def test_walk_outside_region_raises(self):
        law = constant_law(1, [0.95, 0.05], 0.05)
        env = sample_environment(law, 1, centered_box(1, 3))
        with pytest.raises(ValueError, match="outside"):
            # strongly drifted walks from the box corner must read past the edge
            simulate_quenched(env, (3,), 8, 0, walks=8)
