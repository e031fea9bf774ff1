import itertools
import math

import numpy as np
import pytest

from rwre_lab.environments import (IIDProductLaw, MarkovFieldLaw, centered_box,
                                   constant_law, sample_environment)
from rwre_lab.numutil import BudgetError
from rwre_lab.walks import (Path, annealed_path_weight, annealed_point_probability,
                            enumerate_paths, forward_evolution, log_point_probability_dp,
                            quenched_endpoint_distribution, quenched_path_weight,
                            quenched_point_probability, simulate_quenched, step_matrix)


def two_atom_law():
    return IIDProductLaw(1, [[0.4, 0.6], [0.6, 0.4]], [0.5, 0.5], 0.1)


class TestEnumeration:
    @pytest.mark.parametrize("n,d,count", [(1, 1, 2), (3, 2, 64), (8, 1, 256)])
    def test_counts(self, n, d, count):
        paths = list(enumerate_paths(n, d))
        assert len(paths) == count
        assert len({p.steps for p in paths}) == count

    def test_budget_exceeded(self):
        with pytest.raises(BudgetError):
            list(enumerate_paths(30, 2))

    def test_paths_are_nearest_neighbor(self):
        for p in enumerate_paths(4, 2):
            diffs = np.abs(np.diff(p.positions, axis=0)).sum(axis=1)
            assert np.all(diffs == 1)

    def test_step_matrix_matches_iterator(self):
        mat = step_matrix(3, 1)
        assert [tuple(r) for r in mat] == [p.steps for p in enumerate_paths(3, 1)]


class TestQuenchedProbabilities:
    def test_one_step(self):
        env = sample_environment(two_atom_law(), 3, centered_box(1, 3))
        assert quenched_point_probability(env, 1, (1,)) == pytest.approx(
            float(env.omega((0,))[0]), abs=0)

    def test_return_probability_hand_expansion(self):
        env = sample_environment(two_atom_law(), 5, centered_box(1, 3))
        expect = (float(env.omega((0,))[0]) * float(env.omega((1,))[1])
                  + float(env.omega((0,))[1]) * float(env.omega((-1,))[0]))
        assert quenched_point_probability(env, 2, (0,)) == pytest.approx(expect, rel=1e-14)

    def test_straight_path(self):
        env = sample_environment(two_atom_law(), 7, centered_box(1, 8))
        n = 6
        expect = 1.0
        for j in range(n):
            expect *= float(env.omega((j,))[0])
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
        grid, lo, log_scale = forward_evolution(env, 6)
        for target, prob in dist.items():
            assert grid[tuple(np.asarray(target) - lo)] * math.exp(log_scale) == pytest.approx(
                prob, rel=1e-12)

    def test_dp_matches_enumeration_2d(self):
        law = IIDProductLaw(2, [[0.3, 0.2, 0.25, 0.25], [0.2, 0.3, 0.25, 0.25]],
                            [0.5, 0.5], 0.1)
        env = sample_environment(law, 5, centered_box(2, 5))
        dist = quenched_endpoint_distribution(env, 4)
        grid, lo, log_scale = forward_evolution(env, 4)
        for target, prob in dist.items():
            assert grid[tuple(np.asarray(target) - lo)] * math.exp(log_scale) == pytest.approx(
                prob, rel=1e-12)

    def test_log_dp_matches_enumeration(self):
        env = sample_environment(two_atom_law(), 19, centered_box(1, 9))
        p = quenched_point_probability(env, 8, (2,))
        assert log_point_probability_dp(env, 8, (2,)) == pytest.approx(math.log(p), rel=1e-12)

    def test_log_dp_unreachable(self):
        env = sample_environment(two_atom_law(), 19, centered_box(1, 9))
        assert log_point_probability_dp(env, 8, (3,)) == -math.inf


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
        path = Path((0, 1, 0, 0, 1, 0), 1)  # revisits sites around the origin
        sites = sorted({tuple(s) for s in path.positions[:-1]})
        total = 0.0
        for combo in itertools.product(range(2), repeat=len(sites)):
            assign = dict(zip(sites, combo))
            w = 1.0
            for j, k in enumerate(path.steps):
                site = tuple(path.positions[j])
                w *= law.atoms[assign[site], k]
            total += w * 0.5 ** len(sites)
        assert annealed_path_weight(law, path) == pytest.approx(total, rel=1e-13)

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
        for path in enumerate_paths(3, 1):
            assert annealed_path_weight(field, path) == pytest.approx(
                annealed_path_weight(iid, path), rel=1e-12)


class TestSimulation:
    def test_zero_steps(self):
        env = sample_environment(two_atom_law(), 1, centered_box(1, 2))
        p = simulate_quenched(env, (0,), 0, 5)
        assert len(p) == 0 and p.endpoint == (0,)

    def test_reproducible(self):
        env = sample_environment(two_atom_law(), 1, centered_box(1, 200))
        a = simulate_quenched(env, (0,), 150, 7)
        b = simulate_quenched(env, (0,), 150, 7)
        assert a.steps == b.steps

    def test_drift_lln_dominant_direction(self):
        kappa = 0.05
        p_plus = 1.0 - kappa
        law = constant_law(1, [p_plus, kappa], kappa)
        env = sample_environment(law, 2, centered_box(1, 10_001))
        n = 10_000
        path = simulate_quenched(env, (0,), n, 11)
        drift = path.endpoint[0] / n
        expect = p_plus - kappa
        se = math.sqrt((1 - expect**2) / n)
        assert abs(drift - expect) < 4 * se

    def test_symmetric_walk_centered(self):
        law = constant_law(1, [0.5, 0.5], 0.1)
        env = sample_environment(law, 2, centered_box(1, 10_001))
        path = simulate_quenched(env, (0,), 10_000, 3)
        assert abs(path.endpoint[0]) < 4 * math.sqrt(10_000)

    def test_endpoint_frequencies_match_enumeration(self):
        law = two_atom_law()
        env = sample_environment(law, 21, centered_box(1, 7))
        n, reps = 5, 20_000
        dist = quenched_endpoint_distribution(env, n)
        counts: dict = {}
        for r in range(reps):
            p = simulate_quenched(env, (0,), n, 40_000 + r)
            counts[p.endpoint] = counts.get(p.endpoint, 0) + 1
        for target, prob in dist.items():
            freq = counts.get(target, 0) / reps
            se = math.sqrt(prob * (1 - prob) / reps)
            assert abs(freq - prob) < 4 * se + 1e-12

    def test_walk_outside_region_raises(self):
        law = constant_law(1, [0.95, 0.05], 0.05)
        env = sample_environment(law, 1, centered_box(1, 3))
        with pytest.raises(ValueError, match="outside"):
            # strongly drifted walk from the box corner must read past the edge
            for seed in range(8):
                simulate_quenched(env, (3,), 8, seed)


class TestMgf:
    def test_log_mgf_matches_enumeration(self):
        env = sample_environment(two_atom_law(), 3, centered_box(1, 7))
        theta = 0.4
        n = 6
        direct = sum(math.exp(theta * t[0]) * p
                     for t, p in quenched_endpoint_distribution(env, n).items())
        grid, _, log_scale = forward_evolution(env, n, tilt=np.exp([theta, -theta]))
        assert log_scale + math.log(grid.sum()) == pytest.approx(math.log(direct), rel=1e-12)
