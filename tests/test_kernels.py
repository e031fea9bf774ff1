"""Property tests: the path kernels of ``walks`` against brute-force oracles."""

import itertools
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rwre_lab.decomposition import EpsilonLaw
from rwre_lab.environments import IIDProductLaw, centered_box, direction_vectors, sample_environment
from rwre_lab.tilting import solve_tilt
from rwre_lab.walks import (forward_evolution, path_sites, quenched_endpoint_distribution,
                            site_grouped_log_moment)

REL = 1e-12
TINY = sys.float_info.min  # below it the linear-space oracle rounds in absolute terms


def brute_force_moment(values, weights, steps, d):
    """E[prod_j values[atom(X_j), step_j]] by enumerating atom assignments to the visited sites."""
    sites, pos = [], (0,) * d
    for k in steps:
        sites.append(pos)
        pos = tuple(p + int(v) for p, v in zip(pos, direction_vectors(d)[k]))
    distinct = sorted(set(sites))
    total = 0.0
    for combo in itertools.product(range(len(weights)), repeat=len(distinct)):
        atom = dict(zip(distinct, combo))
        term = math.prod(weights[c] for c in combo)
        for site, k in zip(sites, steps):
            term *= values[atom[site]][k]
        total += term
    return total


@st.composite
def moment_cases(draw):
    d = draw(st.sampled_from([1, 2]))
    k = draw(st.integers(1, 3))
    n = draw(st.integers(0, 6))
    n_paths = draw(st.integers(1, 4))
    entry = st.one_of(st.just(0.0), st.just(-1.4e-14), st.floats(-1.0, 2.0))
    values = draw(st.lists(st.lists(entry, min_size=2 * d, max_size=2 * d),
                           min_size=k, max_size=k))
    raw = draw(st.lists(st.floats(0.05, 1.0), min_size=k, max_size=k))
    weights = [w / sum(raw) for w in raw]
    steps = draw(st.lists(st.lists(st.integers(0, 2 * d - 1), min_size=n, max_size=n),
                          min_size=n_paths, max_size=n_paths))
    return d, np.asarray(values), np.asarray(weights), np.asarray(steps, dtype=np.int64)


@settings(max_examples=200, deadline=None)
@given(moment_cases())
def test_site_grouped_moment_matches_brute_force(case):
    d, values, weights, steps = case
    flat, _ = path_sites(steps, d)
    sign, log_abs = site_grouped_log_moment(values, weights, flat, steps)
    for p, row in enumerate(steps):
        exact = brute_force_moment(values, weights, row, d)
        scale = brute_force_moment(np.abs(values), weights, row, d)  # no cancellation
        assert abs(sign[p] * math.exp(log_abs[p]) - exact) <= REL * scale + TINY
        assert (sign[p] == 0) == np.isneginf(log_abs[p])
        if abs(exact) > 1e6 * REL * scale:  # the sign is determined beyond rounding
            assert sign[p] == np.sign(exact)


def test_signed_psi_table_multivisit():
    # at kbar = 0.2 one psi entry is -1.4e-14: the moment must keep its sign
    law = IIDProductLaw(1, [[0.4, 0.6], [0.6, 0.4]], [0.5, 0.5], 0.1)
    tp = solve_tilt(law, [0.5])
    eps = EpsilonLaw(0.2, 1)
    xi = law.xi_values()
    psi = xi + eps.kbar / (tp.u_array - eps.kbar) * (xi - 1.0)
    assert -1e-13 < psi.min() < 0.0
    steps = np.asarray(list(itertools.product(range(2), repeat=5)), dtype=np.int64)
    flat, _ = path_sites(steps, 1)
    sign, log_abs = site_grouped_log_moment(psi, law.weights, flat, steps)
    for p, row in enumerate(steps):
        exact = brute_force_moment(psi, law.weights, row, 1)
        scale = brute_force_moment(np.abs(psi), law.weights, row, 1)
        assert abs(sign[p] * math.exp(log_abs[p]) - exact) <= REL * scale


def test_long_paths_stay_in_range():
    # 2000 steps with factors near 0.05 take a plain product to about e-6000,
    # far below the smallest double; the log-magnitude stays finite
    law = IIDProductLaw(1, [[0.4, 0.6], [0.6, 0.4]], [0.5, 0.5], 0.1)
    steps = np.random.default_rng(2).integers(0, 2, size=(3, 2000))
    flat, _ = path_sites(steps, 1)
    sign, log_abs = site_grouped_log_moment(law.atoms * 1e-1, law.weights, flat, steps)
    assert np.all(sign == 1.0) and np.all(np.isfinite(log_abs)) and np.all(log_abs < -4000)


class Shifted:
    """An environment seen from ``offset``: omega'(x) = omega(x + offset)."""

    def __init__(self, env, offset):
        self.env, self.law, self.offset = env, env.law, np.asarray(offset)

    def omega_many(self, sites):
        return self.env.omega_many(np.asarray(sites) + self.offset)


@st.composite
def evolution_cases(draw):
    d = draw(st.sampled_from([1, 2]))
    k = draw(st.integers(1, 3))
    n = draw(st.integers(1, 6))
    raw = draw(st.lists(st.lists(st.floats(0.1, 1.0), min_size=2 * d, max_size=2 * d),
                        min_size=k, max_size=k))
    atoms = np.asarray(raw) / np.sum(raw, axis=1, keepdims=True)
    law = IIDProductLaw(d, atoms, np.full(k, 1.0 / k), 0.99 * atoms.min())
    start = draw(st.lists(st.integers(-3, 3), min_size=d, max_size=d))
    theta = draw(st.lists(st.floats(-1.0, 1.0), min_size=d, max_size=d))
    seed = draw(st.integers(0, 2**32))
    return law, n, np.asarray(start), np.asarray(theta), seed


@settings(max_examples=40, deadline=None)
@given(evolution_cases())
def test_forward_evolution_matches_enumeration(case):
    law, n, start, theta, seed = case
    d = law.dimension
    env = sample_environment(law, seed, centered_box(d, n + 4))
    vecs = direction_vectors(d)
    grid, lo, log_scale = forward_evolution(env, n, start=start, tilt=np.exp(vecs @ theta))
    dist = quenched_endpoint_distribution(Shifted(env, start), n)
    for disp, prob in dist.items():
        want = prob * math.exp(float(np.asarray(disp) @ theta))
        got = grid[tuple(start + np.asarray(disp) - lo)] * math.exp(log_scale)
        assert got == pytest.approx(want, rel=REL)
    # every other cell of the box is unreachable and carries no weight
    assert np.count_nonzero(grid) == len(dist)
