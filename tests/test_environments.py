import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rwre_lab import environments
from rwre_lab.environments import (Box, Environment, IIDProductLaw, MarkovFieldLaw,
                                   centered_box, direction_index,
                                   direction_vectors, sample_environment,
                                   validate_prob_vector)
from rwre_lab.numutil import BudgetError, derive_seed

from envhelpers import constant_law, mean_environment, omega, reference_states
from oracles import all_sites, gibbs_configurations, reference_heat_bath


def disorder(law) -> float:
    """sup over the states of |omega(x, e) / E[omega(x, e)] - 1|."""
    return float(np.max(np.abs(law.xi - 1.0)))


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
            assert np.all(vecs[k ^ 1] == -vecs[k])  # negation is k ^ 1

    def test_direction_index_roundtrip(self):
        vecs = direction_vectors(3)
        for k, v in enumerate(vecs):
            assert direction_index(v) == k
        with pytest.raises(ValueError):
            direction_index([1, 1, 0])


class TestProbVectors:
    def test_accepts_valid(self):
        validate_prob_vector([0.3, 0.7], kappa=0.1)

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError, match="sum"):
            validate_prob_vector([0.3, 0.6], kappa=0.1)

    def test_rejects_ellipticity(self):
        with pytest.raises(ValueError, match="ellipticity"):
            validate_prob_vector([0.05, 0.95], kappa=0.1)

    def test_rejects_a_zero_entry_below_the_tolerance(self):
        # at kappa below PROB_ATOL the floor's tolerance alone would pass an exact 0
        with pytest.raises(ValueError, match="ellipticity"):
            IIDProductLaw(1, [[1.0, 0.0]], [1.0], 1e-13)
        law = IIDProductLaw(1, [[0.9999999999999, 1e-310]], [1.0], 1e-310)
        assert law.table.min() == 1e-310

    @pytest.mark.parametrize("atoms,kappa,message", [
        ([[1.0, 0.0]], 1e-13, "entry 0.0 below ellipticity floor 1e-13"),
        ([[0.5, 0.6]], 0.1, "probabilities sum to 1.1, not 1 within 1e-12"),
        ([[0.05, 0.95]], 0.1, "entry 0.05 below ellipticity floor 0.1"),
    ], ids=["zero-entry", "sum", "below-kappa"])
    def test_refusals_print_plain_floats(self, atoms, kappa, message):
        with pytest.raises(ValueError) as info:
            IIDProductLaw(1, atoms, [1.0], kappa)
        assert str(info.value) == message and "np.float64(" not in str(info.value)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite(self, bad):
        # nan passes the sum and floor comparisons; it is refused by name
        with pytest.raises(ValueError, match="non-finite"):
            validate_prob_vector([bad, 0.7], kappa=0.1)


class TestIIDProductLaw:
    def test_marginal_mean_single_atom(self):
        law = constant_law(1, [0.6, 0.4], 0.1)
        assert law.means[0] == pytest.approx(0.6, abs=0)

    def test_marginal_mean_two_atoms(self):
        assert two_atom_law().means[0] == pytest.approx(0.5, abs=1e-15)

    def test_disorder_single_atom_zero(self):
        law = constant_law(1, [0.6, 0.4], 0.1)
        np.testing.assert_array_equal(law.xi, [[1.0, 1.0]])
        np.testing.assert_array_equal(law.fixed, [True, True])

    def test_disorder_two_point_support(self):
        # oracle: max |omega/mean - 1| over the four support values
        law = two_atom_law()
        expect = max(abs(v / 0.5 - 1.0) for v in (0.4, 0.6))
        assert disorder(law) == pytest.approx(expect, abs=1e-12)
        assert disorder(law) == pytest.approx(0.2, abs=1e-12)

    def test_disorder_wider_support(self):
        law = two_atom_law(lo=0.25, hi=0.75, kappa=0.05)
        assert disorder(law) == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("atoms, weights, fixed", [
        ([[0.45, 0.55]] * 5, [0.2] * 5, [True, True]),  # xi rounds 1.1e-16 from 1
        ([[0.33, 0.67]] * 2, [0.7, 0.3], [True, True]),
        ([[0.31, 0.2, 0.2, 0.29], [0.31, 0.2, 0.29, 0.2]], [0.1, 0.9],
         [True, True, False, False]),
        ([[0.4, 0.6], [0.6, 0.4]], [0.5, 0.5], [False, False]),
        ([[0.4, 0.6], [0.6, 0.4]], [1.0, 0.0], [True, True]),
    ], ids=["five-equal", "two-equal", "fixed-e1", "random", "zero-weight"])
    def test_fixed_directions_are_exact(self, atoms, weights, fixed):
        # a direction is fixed when every atom's row agrees on it, whatever the
        # rounding of the means and the xi values
        law = IIDProductLaw(len(atoms[0]) // 2, atoms, weights, 0.05)
        np.testing.assert_array_equal(law.fixed, fixed)

    def test_weights_must_normalize(self):
        with pytest.raises(ValueError):
            IIDProductLaw(1, [[0.4, 0.6]], [0.9], 0.1)

    def test_non_finite_weights_rejected(self):
        with pytest.raises(ValueError, match="probability vector"):
            IIDProductLaw(1, [[0.4, 0.6], [0.6, 0.4]], [math.nan, 0.5], 0.1)

    def test_atom_outside_kappa_rejected(self):
        with pytest.raises(ValueError):
            IIDProductLaw(1, [[0.05, 0.95]], [1.0], 0.1)

    def test_zero_weight_atom_is_checked_then_dropped(self):
        # a row the law never draws is still refused when invalid, and is not kept
        with pytest.raises(ValueError, match="entry 0.05 below ellipticity floor 0.1"):
            IIDProductLaw(1, [[0.4, 0.6], [0.05, 0.95]], [1.0, 0.0], 0.1)
        law = IIDProductLaw(1, [[0.6, 0.4], [0.4, 0.6], [0.5, 0.5]], [0.0, 0.7, 0.3], 0.1)
        np.testing.assert_array_equal(law.table, [[0.4, 0.6], [0.5, 0.5]])
        np.testing.assert_array_equal(law.weights, [0.7, 0.3])


class TestEnvironmentRealization:
    def test_single_atom_constant_everywhere(self):
        law = constant_law(2, [0.3, 0.2, 0.25, 0.25], 0.1)
        env = sample_environment(law, seed=5, region=centered_box(2, 4))
        sites = all_sites(env.box)
        vals = env.omega_many(sites)
        assert np.all(vals == np.asarray([0.3, 0.2, 0.25, 0.25]))

    def test_determinism_bit_identical(self):
        law = two_atom_law()
        box = centered_box(1, 1000)
        a = sample_environment(law, seed=42, region=box)
        b = sample_environment(law, seed=42, region=box)
        sa = a.omega_many(all_sites(box))
        sb = b.omega_many(all_sites(box))
        assert np.array_equal(sa, sb)
        c = sample_environment(law, seed=43, region=box)
        assert not np.array_equal(sa, c.omega_many(all_sites(box)))

    def test_site_invariants_on_realization(self):
        law = two_atom_law(d=2, kappa=0.05)
        env = sample_environment(law, seed=9, region=centered_box(2, 20))
        vals = env.omega_many(all_sites(env.box))
        assert np.max(np.abs(vals.sum(axis=1) - 1.0)) < 1e-12
        assert vals.min() >= law.kappa

    def test_atom_frequencies_match_weights(self):
        # 0.25 is a byte edge; the cuts 0.2 and 0.7 straddle bytes 51 and 179
        for weights in ([0.25, 0.75], [0.2, 0.5, 0.3]):
            law = IIDProductLaw(1, [[0.4, 0.6], [0.6, 0.4], [0.5, 0.5]][:len(weights)], weights,
                                0.1)
            n = 200_000
            blocks = law.atom_blocks(3, np.arange(4)[:, None], -9, n // 4)
            idx = np.concatenate([b.ravel() for b in blocks])
            assert len(idx) == n
            freq = np.bincount(idx, minlength=len(weights)) / n
            for w, f in zip(weights, freq):
                se = math.sqrt(w * (1 - w) / n)
                assert abs(f - w) < 4 * se

    def test_xi_mean_one(self):
        law = two_atom_law()
        env = sample_environment(law, seed=17, region=Box((0,), (99_999,)))
        sites = np.arange(100_000)[:, None]
        xi = env.omega_many(sites)[:, 0] / law.means[0]
        se = xi.std(ddof=1) / math.sqrt(len(xi))
        assert abs(xi.mean() - 1.0) < 4 * se

    def test_xi_examples(self):
        law = two_atom_law()
        env = sample_environment(law, seed=1, region=centered_box(1, 50))
        for s in range(-50, 51):
            x = omega(env, (s,))[0] / law.means[0]
            assert x in (pytest.approx(0.8, abs=1e-12), pytest.approx(1.2, abs=1e-12))
        zero = constant_law(1, [0.5, 0.5], 0.1)
        env0 = sample_environment(zero, seed=1, region=centered_box(1, 5))
        assert omega(env0, (2,))[0] / zero.means[0] == pytest.approx(1.0, abs=0)

    def test_lookup_outside_region_raises(self):
        env = sample_environment(two_atom_law(), seed=1, region=centered_box(1, 5))
        with pytest.raises(ValueError, match="outside"):
            omega(env, (6,))

    def test_batch_outside_region_names_its_first_site(self):
        # each axis's extremes settle the batch; the message names the first site outside
        env = sample_environment(two_atom_law(d=2, kappa=0.05), seed=1, region=Box((-2, 0), (2, 4)))
        sites = np.array([[0, 0], [2, 4], [1, 5], [-3, 0]])
        with pytest.raises(ValueError, match=r"^site \(1, 5\) outside realized region$"):
            env.omega_many(sites)
        assert env.omega_many(sites[:2]).shape == (2, 4)
        assert env.omega_many(np.empty((0, 2), dtype=np.int64)).shape == (0, 4)

    def test_overlapping_realizations_agree(self):
        # each site's atom is a pure function of (seed, site)
        law = two_atom_law(d=2, kappa=0.05)
        a = sample_environment(law, seed=8, region=Box((-6, -2), (3, 7)))
        b = sample_environment(law, seed=8, region=Box((0, 0), (9, 9)))
        overlap = all_sites(Box((0, 0), (3, 7)))
        np.testing.assert_array_equal(a.omega_many(overlap), b.omega_many(overlap))

    @pytest.mark.parametrize("law", [two_atom_law(d=2, kappa=0.05),
                                     MarkovFieldLaw(2, [[0.1, 0.4, 0.25, 0.25],
                                                        [0.4, 0.1, 0.25, 0.25]],
                                                    kappa=0.05, beta=0.5, sweeps=4)],
                             ids=["iid-product", "markov-field"])
    def test_states_index_the_table_on_the_box(self, law):
        box = Box((-2, 1), (3, 4))
        env = sample_environment(law, seed=3, region=box)
        assert env.states.shape == box.shape and not env.states.flags.writeable
        np.testing.assert_array_equal(env.omega_many(all_sites(box)),
                                      law.table[env.states.reshape(-1)])

    def test_realization_over_cap_rejected(self):
        with pytest.raises(BudgetError, match="exceeds cap"):
            sample_environment(two_atom_law(), seed=1, region=Box((0,), (10**8,)))

    def test_region_overflow_rejected(self):
        with pytest.raises(BudgetError):
            Box((-(1 << 63),), (0,))


@st.composite
def product_boxes(draw):
    d = draw(st.integers(1, 3))
    k = draw(st.integers(2, 4))
    raw = draw(st.lists(st.sampled_from([0.0, 0.1, 0.2, 0.25, 0.3, 0.37, 0.5, 1.0]),
                        min_size=k, max_size=k).filter(lambda w: sum(w) > 0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    kappa = 0.05
    atoms = kappa + (1.0 - 2 * d * kappa) * rng.dirichlet(np.ones(2 * d), size=k)
    law = IIDProductLaw(d, atoms, [w / sum(raw) for w in raw], kappa)
    side = {1: 300, 2: 40, 3: 12}[d]
    corner = st.lists(st.integers(-30, 30), min_size=d, max_size=d)
    extent = st.lists(st.integers(1, side), min_size=d, max_size=d)
    boxes = [Box(tuple(lo), tuple(l + n - 1 for l, n in zip(lo, size)))
             for lo, size in [(draw(corner), draw(extent)) for _ in range(2)]]
    return law, boxes, draw(st.integers(0, 2**32)), draw(st.sampled_from([8, 64, 4096]))


@settings(max_examples=60, deadline=None)
@given(product_boxes())
def test_product_realization_matches_the_per_site_reference(case):
    # every site is its own (seed, site) draw whatever the box, its corners
    # and the block sizes, so two boxes agree where they overlap; cuts such
    # as 0.2 / 1.1 straddle bytes, and a zero-weight atom is never drawn
    law, boxes, seed, hash_block = case
    with mock.patch.object(environments, "HASH_BLOCK", hash_block):
        envs = [sample_environment(law, seed, box) for box in boxes]
    for env, box in zip(envs, boxes):
        assert env.states.tobytes() == \
            reference_states(law, seed, box).astype(env.states.dtype).tobytes()
        assert np.all(law.weights[env.states] > 0.0)
    lo = np.maximum(boxes[0].lo, boxes[1].lo)
    hi = np.minimum(boxes[0].hi, boxes[1].hi)
    if np.all(lo <= hi):
        overlap = all_sites(Box(tuple(lo), tuple(hi)))
        np.testing.assert_array_equal(envs[0].omega_many(overlap), envs[1].omega_many(overlap))


class TestMarkovField:
    def law(self, beta=0.0, d=1):
        states = [[0.3, 0.7], [0.7, 0.3]] if d == 1 else None
        return MarkovFieldLaw(1, states, kappa=0.1, range_r=1, beta=beta, sweeps=8)

    def test_beta_zero_marginals_exact(self):
        # decoupled field: the marginal is the plain average over states
        law = self.law()
        means = law.means
        assert means[0] == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("d, n_states, range_r, radius", [
        (1, 2, 1, 4), (1, 3, 2, 3), (2, 2, 1, 1), (2, 3, 1, 1), (2, 2, 2, 1),
    ])
    def test_closed_form_means_match_enumeration(self, d, n_states, range_r, radius):
        # the enumerated Gibbs measure judges the state-map average at beta > 0
        a = np.linspace(0.2, 0.8, n_states)[:, None]
        states = np.hstack([a, 1 - a] + [np.full((n_states, 2), 0.5)] * (d - 1)) / d
        for beta in (0.7, 2.0):
            law = MarkovFieldLaw(d, states, kappa=0.05, range_r=range_r, beta=beta)
            configs, sites, w = gibbs_configurations(law, centered_box(d, radius))
            center = int(np.where((sites == 0).all(axis=1))[0][0])
            marginal = np.bincount(configs[:, center], weights=w, minlength=n_states)
            np.testing.assert_allclose(marginal @ law.table, law.means,
                                       rtol=0, atol=1e-12)

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("sweeps", [1, 2, 3, 4])
    def test_sampled_sites_uniform_over_states(self, d, sweeps):
        # the closed form rests on this: after any number of sweeps, corner and
        # center sites of the box are uniform over the states, however strong
        # the coupling
        n_states, replicas = 3, 500
        states = [[0.2, 0.8], [0.5, 0.5], [0.8, 0.2]] if d == 1 else \
            [[0.1, 0.4, 0.25, 0.25], [0.25, 0.25, 0.25, 0.25], [0.4, 0.1, 0.25, 0.25]]
        law = MarkovFieldLaw(d, states, kappa=0.05, range_r=1, beta=2.0, sweeps=sweeps)
        box = centered_box(d, 2)
        probes = np.array([box.lo, box.hi, (0,) * d])
        first = np.asarray(states)[:, 0]
        counts = np.zeros((len(probes), n_states))
        for r in range(replicas):
            vals = sample_environment(law, 1000 * sweeps + r, box).omega_many(probes)[:, 0]
            counts[np.arange(len(probes)), np.searchsorted(first, vals)] += 1
        p = 1.0 / n_states
        se = math.sqrt(p * (1 - p) / replicas)
        assert np.all(np.abs(counts / replicas - p) < 4 * se)

    def test_means_realize_no_environment(self, monkeypatch):
        # a 2-D range-2 field's means come from the state map alone
        def spy(*args, **kwargs):
            raise AssertionError("the means realized an environment")

        monkeypatch.setattr("rwre_lab.environments.sample_environment", spy)
        law = MarkovFieldLaw(2, [[0.1, 0.4, 0.25, 0.25], [0.4, 0.1, 0.25, 0.25]], kappa=0.05,
                             range_r=2, beta=0.5)
        np.testing.assert_array_equal(law.means, [0.25, 0.25, 0.25, 0.25])
        assert disorder(law) == pytest.approx(0.6, abs=1e-12)
        np.testing.assert_array_equal(law.fixed, [False, False, True, True])

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
        vals = env.omega_many(all_sites(env.box))[:, 0]
        frac = float(np.mean(vals == 0.3))
        assert abs(frac - 0.5) < 4 * math.sqrt(0.25 / len(vals))

    @pytest.mark.parametrize("d", [1, 2])
    def test_beta_zero_realization_is_the_uniform_product_law(self, d):
        # every realization starts from the product draw of its one-site
        # weights, and at beta = 0 no sweep follows; three states put cuts
        # inside bytes 85 and 170, so the straddle doubles are compared too
        states = [[0.3, 0.7], [0.7, 0.3], [0.5, 0.5]] if d == 1 else \
            [[0.3, 0.2, 0.25, 0.25], [0.2, 0.3, 0.25, 0.25], [0.25] * 4]
        field = MarkovFieldLaw(d, states, kappa=0.05, beta=0.0)
        iid = IIDProductLaw(d, states, [1 / 3] * 3, 0.05)
        box = Box((-37,) * d, (300,) if d == 1 else (20, 25))
        want = sample_environment(iid, 9, box).states
        assert sample_environment(field, 9, box).states.tobytes() == want.tobytes()
        assert set(np.unique(want)) == {0, 1, 2}

    @pytest.mark.parametrize("d, ell, beta", [(1, 1, 0.0), (1, 0, 0.5), (2, 2, 0.5), (2, 1, 0.5)])
    def test_ray_states_are_the_ray_of_each_replicas_realization(self, d, ell, beta):
        # a coupled field's replica i is realized on the ray box from
        # derive_seed(seed, i); an independent field's rays are its product law's
        states = [[0.3, 0.7], [0.7, 0.3], [0.5, 0.5]] if d == 1 else \
            [[0.3, 0.2, 0.25, 0.25], [0.2, 0.3, 0.25, 0.25], [0.25] * 4]
        law = MarkovFieldLaw(d, states, kappa=0.05, beta=beta, sweeps=4)
        n, replicas = 30, [5, 0, 2]
        with mock.patch.object(environments, "HASH_BLOCK", 24):  # 8 rows of 3 replicas
            blocks = list(law.ray_states(17, ell, replicas, n))
        assert [len(b) for b in blocks] == [8, 8, 8, 6]
        got = np.concatenate(blocks)
        if law.independent:
            twin = IIDProductLaw(d, states, [1 / 3] * 3, 0.05)
            want = np.concatenate(list(twin.ray_states(17, ell, replicas, n)))
            np.testing.assert_array_equal(got, want)
            return
        sites = np.arange(n)[:, None] * direction_vectors(d)[ell]
        box = Box(tuple(sites.min(axis=0)), tuple(sites.max(axis=0)))
        for j, i in enumerate(replicas):
            env = sample_environment(law, derive_seed(17, i), box)
            np.testing.assert_array_equal(got[:, j], env.states[tuple((sites - box.lo).T)])

    def test_beta_zero_realizes_only_its_region(self, monkeypatch):
        # no sweep runs, so no heat-bath buffer is hashed or counted against the cap
        monkeypatch.setattr("rwre_lab.environments.MATERIALIZE_CAP", 100)
        env = sample_environment(self.law(), seed=6, region=Box((0,), (99,)))
        monkeypatch.undo()
        wide = sample_environment(self.law(), seed=6, region=Box((-30,), (130,)))
        np.testing.assert_array_equal(env.states, wide.states[30:130])

    def test_determinism(self):
        law = MarkovFieldLaw(1, [[0.3, 0.7], [0.7, 0.3]], kappa=0.1, range_r=1,
                             beta=0.7, sweeps=16)
        box = centered_box(1, 40)
        a = sample_environment(law, 11, box).omega_many(all_sites(box))
        b = sample_environment(law, 11, box).omega_many(all_sites(box))
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("d, range_r, region", [
        (1, 1, Box((-7,), (12,))), (1, 2, Box((3,), (20,))),
        (2, 1, Box((-2, 1), (3, 5))), (2, 2, Box((0, -4), (4, 0))),
        (3, 1, Box((0, -1, 2), (1, 0, 3))),
    ])
    def test_heat_bath_matches_the_site_by_site_reference(self, d, range_r, region):
        # sweep s at site x reads site_uniforms(seed, (*x, s), stream=2), whatever
        # the class slices and the prefix hashing
        states = [[0.3, 0.7], [0.7, 0.3], [0.5, 0.5]] if d == 1 else \
            [[0.3, 0.2] + [0.5 / (2 * d - 2)] * (2 * d - 2),
             [0.2, 0.3] + [0.5 / (2 * d - 2)] * (2 * d - 2), [1 / (2 * d)] * (2 * d)]
        law = MarkovFieldLaw(d, states, kappa=0.05, range_r=range_r, beta=0.8, sweeps=2)
        env = sample_environment(law, 21, region)
        want = reference_heat_bath(law, 21, region)
        assert env.states.tobytes() == want.astype(env.states.dtype).tobytes()

    @pytest.mark.parametrize("states", [[[0.4, 0.6]], [[0.4, 0.6], [0.4, 0.6]]],
                             ids=["one-state", "equal-rows"])
    def test_equal_rows_run_no_sweep(self, monkeypatch, states):
        # every state carries one omega, so the heat bath could change none
        law = MarkovFieldLaw(1, states, kappa=0.1, beta=0.5, sweeps=4)
        box = Box((-3,), (40,))
        want = law.table[reference_heat_bath(law, 5, box)]

        def spy(self):
            raise AssertionError("a sweep ran")

        monkeypatch.setattr(MarkovFieldLaw, "_neighbor_offsets", spy)
        env = sample_environment(law, 5, box)
        np.testing.assert_array_equal(env.omega_many(all_sites(box)), want)

    @pytest.mark.parametrize("n_states", [2, 3])
    @pytest.mark.parametrize("beta", [0.5, 1.0])
    def test_heat_bath_agreement_matches_the_exact_chain(self, n_states, beta):
        # the 1-D range-1 Potts chain has P(sigma_t = sigma_{t+k}) = lam^k + (1 - lam^k) / S,
        # lam = (e^beta - 1) / (e^beta + S - 1); 100 sites are trimmed at each free end
        states = [[0.3, 0.7], [0.7, 0.3], [0.5, 0.5]][:n_states]
        law = MarkovFieldLaw(1, states, kappa=0.1, beta=beta)
        lags = np.array([1, 2, 4])
        agree = np.empty((20, len(lags)))
        for r in range(20):
            sigma = sample_environment(law, r, Box((0,), (4999,))).states[100:-100]
            agree[r] = [np.mean(sigma[:-k] == sigma[k:]) for k in lags]
        lam = (math.exp(beta) - 1) / (math.exp(beta) + n_states - 1)
        want = lam**lags + (1 - lam**lags) / n_states
        se = agree.std(axis=0, ddof=1) / math.sqrt(len(agree))
        assert np.all(np.abs(agree.mean(axis=0) - want) < 4 * se)

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
        assert disorder(law) == pytest.approx(0.4, abs=1e-12)

    def test_exact_enumeration_budget(self):
        law = MarkovFieldLaw(1, [[0.3, 0.7]] * 3, kappa=0.1, range_r=1, beta=0.1)
        with pytest.raises(BudgetError):
            gibbs_configurations(law, centered_box(1, 40))

    @pytest.mark.parametrize("beta", [math.nan, math.inf, -0.5])
    def test_beta_must_be_finite_and_non_negative(self, beta):
        with pytest.raises(ValueError, match="interaction strength"):
            MarkovFieldLaw(1, [[0.3, 0.7], [0.7, 0.3]], kappa=0.1, beta=beta)

    def test_state_below_kappa_rejected(self):
        with pytest.raises(ValueError):
            MarkovFieldLaw(1, [[0.05, 0.95]], kappa=0.1)


class TestHelpers:
    def test_mean_environment_is_constant(self):
        law = two_atom_law()
        env = mean_environment(law, centered_box(1, 10))
        vals = env.omega_many(all_sites(env.box))
        assert np.all(vals == 0.5)

    def test_empty_box_rejected(self):
        with pytest.raises(ValueError):
            Box((1,), (0,))
