import math

import numpy as np
import pytest

from rwre_lab.environments import (Box, Environment, IIDProductLaw, MarkovFieldLaw,
                                   centered_box, constant_law, direction_index,
                                   direction_vectors, mean_environment, opposite,
                                   sample_environment, validate_prob_vector)
from rwre_lab.numutil import BudgetError


def two_atom_law(d=1, lo=0.4, hi=0.6, kappa=0.1):
    base = np.full(2 * d, (1.0 - (lo + hi) / 2 if d == 1 else None))
    if d == 1:
        atoms = [[lo, 1.0 - lo], [hi, 1.0 - hi]]
    else:
        rest = (1.0 - lo) / (2 * d - 1)
        a1 = [lo] + [rest] * (2 * d - 1)
        rest = (1.0 - hi) / (2 * d - 1)
        a2 = [hi] + [rest] * (2 * d - 1)
        atoms = [a1, a2]
    return IIDProductLaw(d, atoms, [0.5, 0.5], kappa)


class TestDirections:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_count_and_involution(self, d):
        vecs = direction_vectors(d)
        assert len({tuple(v) for v in vecs}) == 2 * d
        assert np.all(np.abs(vecs).sum(axis=1) == 1)
        for k in range(2 * d):
            assert np.all(vecs[opposite(k)] == -vecs[k])
            assert opposite(opposite(k)) == k

    def test_direction_index_roundtrip(self):
        vecs = direction_vectors(3)
        for k, v in enumerate(vecs):
            assert direction_index(v) == k
        with pytest.raises(ValueError):
            direction_index([1, 1, 0])


class TestProbVectors:
    def test_accepts_valid(self):
        validate_prob_vector([0.3, 0.7], kappa=0.1, d=1)

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError, match="sum"):
            validate_prob_vector([0.3, 0.6], kappa=0.1, d=1)

    def test_rejects_ellipticity(self):
        with pytest.raises(ValueError, match="ellipticity"):
            validate_prob_vector([0.05, 0.95], kappa=0.1, d=1)


class TestIIDProductLaw:
    def test_marginal_mean_single_atom(self):
        law = constant_law(1, [0.6, 0.4], 0.1)
        assert law.marginal_mean(0) == pytest.approx(0.6, abs=0)

    def test_marginal_mean_two_atoms(self):
        assert two_atom_law().marginal_mean(0) == pytest.approx(0.5, abs=1e-15)

    def test_disorder_single_atom_zero(self):
        assert constant_law(1, [0.6, 0.4], 0.1).disorder() == 0.0

    def test_disorder_two_point_support(self):
        # oracle: max |omega/mean - 1| over the four support values
        law = two_atom_law()
        expect = max(abs(v / 0.5 - 1.0) for v in (0.4, 0.6))
        assert law.disorder() == pytest.approx(expect, abs=1e-12)
        assert law.disorder() == pytest.approx(0.2, abs=1e-12)

    def test_disorder_wider_support(self):
        law = two_atom_law(lo=0.25, hi=0.75, kappa=0.05)
        assert law.disorder() == pytest.approx(0.5, abs=1e-12)

    def test_weights_must_normalize(self):
        with pytest.raises(ValueError):
            IIDProductLaw(1, [[0.4, 0.6]], [0.9], 0.1)

    def test_atom_outside_kappa_rejected(self):
        with pytest.raises(ValueError):
            IIDProductLaw(1, [[0.05, 0.95]], [1.0], 0.1)


class TestEnvironmentRealization:
    def test_single_atom_constant_everywhere(self):
        law = constant_law(2, [0.3, 0.2, 0.25, 0.25], 0.1)
        env = sample_environment(law, seed=5, region=centered_box(2, 4))
        sites = env.box.all_sites()
        vals = env.omega_many(sites)
        assert np.all(vals == np.asarray([0.3, 0.2, 0.25, 0.25]))

    def test_determinism_bit_identical(self):
        law = two_atom_law()
        box = centered_box(1, 1000)
        a = sample_environment(law, seed=42, region=box)
        b = sample_environment(law, seed=42, region=box)
        sa = a.omega_many(box.all_sites())
        sb = b.omega_many(box.all_sites())
        assert np.array_equal(sa, sb)
        c = sample_environment(law, seed=43, region=box)
        assert not np.array_equal(sa, c.omega_many(box.all_sites()))

    def test_site_invariants_on_realization(self):
        law = two_atom_law(d=2, kappa=0.05)
        env = sample_environment(law, seed=9, region=centered_box(2, 20))
        vals = env.omega_many(env.box.all_sites())
        assert np.max(np.abs(vals.sum(axis=1) - 1.0)) < 1e-12
        assert vals.min() >= law.kappa

    def test_atom_frequencies_match_weights(self):
        law = IIDProductLaw(1, [[0.4, 0.6], [0.6, 0.4]], [0.25, 0.75], 0.1)
        n = 200_000
        idx = law.atom_indices(3, np.arange(n)[:, None])
        freq = np.bincount(idx, minlength=2) / n
        for w, f in zip([0.25, 0.75], freq):
            se = math.sqrt(w * (1 - w) / n)
            assert abs(f - w) < 4 * se

    def test_xi_mean_one(self):
        law = two_atom_law()
        env = sample_environment(law, seed=17, region=Box((0,), (99_999,)))
        sites = np.arange(100_000)[:, None]
        xi = env.omega_many(sites)[:, 0] / law.marginal_mean(0)
        se = xi.std(ddof=1) / math.sqrt(len(xi))
        assert abs(xi.mean() - 1.0) < 4 * se

    def test_xi_examples(self):
        law = two_atom_law()
        env = sample_environment(law, seed=1, region=centered_box(1, 50))
        for s in range(-50, 51):
            x = env.omega((s,))[0] / law.marginal_mean(0)
            assert x in (pytest.approx(0.8, abs=1e-12), pytest.approx(1.2, abs=1e-12))
        zero = constant_law(1, [0.5, 0.5], 0.1)
        env0 = sample_environment(zero, seed=1, region=centered_box(1, 5))
        assert env0.omega((2,))[0] / zero.marginal_mean(0) == pytest.approx(1.0, abs=0)

    def test_lookup_outside_region_raises(self):
        env = sample_environment(two_atom_law(), seed=1, region=centered_box(1, 5))
        with pytest.raises(ValueError, match="outside"):
            env.omega((6,))

    def test_region_overflow_rejected(self):
        with pytest.raises(BudgetError):
            Box((-(1 << 63),), (0,))


class TestMarkovField:
    def law(self, beta=0.0, d=1):
        states = [[0.3, 0.7], [0.7, 0.3]] if d == 1 else None
        return MarkovFieldLaw(1, states, kappa=0.1, range_r=1, beta=beta, sweeps=8)

    def test_beta_zero_marginals_exact(self):
        # decoupled field: the marginal is the plain average over states
        law = self.law()
        means = law.marginal_means()
        assert means[0] == pytest.approx(0.5, abs=1e-12)

    def test_beta_zero_marginals_mc(self):
        law = self.law()
        means, se = law.marginal_means_mc(replicas=400, seed=3)
        assert abs(means[0] - 0.5) < 4 * se[0] + 1e-9

    def test_beta_zero_pair_correlation(self):
        # at zero coupling, neighbor states decorrelate; compare against an
        # i.i.d. simulation oracle run at the same size
        law = self.law()
        n = 120_000
        env = sample_environment(law, seed=23, region=Box((0,), (n,)))
        vals = env.omega_many(np.arange(n + 1)[:, None])[:, 0]
        a, b = vals[:-1] - vals.mean(), vals[1:] - vals.mean()
        corr = float(np.mean(a * b) / np.mean((vals - vals.mean()) ** 2))
        rng = np.random.default_rng(5)
        iid = np.where(rng.random(n + 1) < 0.5, 0.3, 0.7)
        ia, ib = iid[:-1] - iid.mean(), iid[1:] - iid.mean()
        icorr = float(np.mean(ia * ib) / np.mean((iid - iid.mean()) ** 2))
        se = 1.0 / math.sqrt(n)
        assert abs(corr) < 3 * se
        assert abs(icorr) < 3 * se

    def test_beta_zero_matches_uniform_iid_law(self):
        law = self.law()
        env = sample_environment(law, seed=4, region=centered_box(1, 2000))
        vals = env.omega_many(env.box.all_sites())[:, 0]
        frac = float(np.mean(vals == 0.3))
        assert abs(frac - 0.5) < 4 * math.sqrt(0.25 / len(vals))

    def test_determinism(self):
        law = MarkovFieldLaw(1, [[0.3, 0.7], [0.7, 0.3]], kappa=0.1, range_r=1,
                             beta=0.7, sweeps=16)
        box = centered_box(1, 40)
        a = sample_environment(law, 11, box).omega_many(box.all_sites())
        b = sample_environment(law, 11, box).omega_many(box.all_sites())
        assert np.array_equal(a, b)

    def test_positive_beta_correlates(self):
        law = MarkovFieldLaw(1, [[0.3, 0.7], [0.7, 0.3]], kappa=0.1, range_r=1,
                             beta=1.5, sweeps=32)
        n = 30_000
        env = sample_environment(law, seed=2, region=Box((0,), (n,)))
        vals = env.omega_many(np.arange(n + 1)[:, None])[:, 0]
        a, b = vals[:-1] - vals.mean(), vals[1:] - vals.mean()
        corr = float(np.mean(a * b) / np.mean((vals - vals.mean()) ** 2))
        assert corr > 10.0 / math.sqrt(n)

    def test_disorder_over_state_image(self):
        law = self.law()
        assert law.disorder() == pytest.approx(0.4, abs=1e-12)

    def test_exact_enumeration_budget(self):
        law = MarkovFieldLaw(1, [[0.3, 0.7]] * 3, kappa=0.1, range_r=1, beta=0.1)
        with pytest.raises(BudgetError):
            law.gibbs_configurations(centered_box(1, 40))

    def test_state_below_kappa_rejected(self):
        with pytest.raises(ValueError):
            MarkovFieldLaw(1, [[0.05, 0.95]], kappa=0.1)


class TestHelpers:
    def test_mean_environment_is_constant(self):
        law = two_atom_law()
        env = mean_environment(law, centered_box(1, 10))
        vals = env.omega_many(env.box.all_sites())
        assert np.all(vals == 0.5)

    def test_empty_box_rejected(self):
        with pytest.raises(ValueError):
            Box((1,), (0,))
