"""Property tests: the streamed gap kernel against its dense and extended-range references."""

import decimal
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rwre_lab.decomposition import StoppingConfig, make_epsilon_law
from rwre_lab.environments import IIDProductLaw
from rwre_lab.estimators import (certify_gap, quenched_ray_log_inner, ray_inner_values,
                                 sample_ray_xi)
from rwre_lab.numutil import derive_seed
from rwre_lab.tilting import solve_tilt

REL = 1e-12
EDGE_REPLICAS = [2, 4095, 4096, 4097, 8193]  # around the 4096-replica block edges


@st.composite
def gap_cases(draw):
    k = draw(st.integers(2, 3))
    lows = draw(st.lists(st.floats(0.35, 0.65), min_size=k, max_size=k))
    raw = draw(st.lists(st.floats(0.1, 1.0), min_size=k, max_size=k))
    law = IIDProductLaw(1, [[p, 1.0 - p] for p in lows], [w / sum(raw) for w in raw], 0.1)
    z = draw(st.floats(0.2, 0.6))
    L = draw(st.sampled_from([2, 3, 4]))
    replicas = draw(st.sampled_from(EDGE_REPLICAS))
    horizon = draw(st.integers(L, 120))
    seed = draw(st.integers(0, 2**32))
    return law, z, L, replicas, horizon, seed


@settings(max_examples=25, deadline=None)
@given(gap_cases())
def test_streamed_trace_matches_dense_reference(case):
    law, z, L, replicas, horizon, seed = case
    tp = solve_tilt(law, [z])
    eps, cfg = make_epsilon_law(tp), StoppingConfig(L, 0)
    rep = certify_gap(tp, eps, cfg, law, replicas, horizon=horizon, seed=seed)
    xi = sample_ray_xi(law, cfg.ell, replicas, horizon, derive_seed(seed, 1))
    dense = quenched_ray_log_inner(tp, eps, cfg, xi)
    assert rep.trace.shape == (replicas,)
    assert np.all(np.abs(rep.trace - dense) <= REL * np.abs(dense))


def test_memory_does_not_grow_with_the_horizon():
    # the factors are drawn one time row per recursion step: a 64 x 20000 run
    # holds the ring and O(replicas) scratch, not the 10 MB factor matrix
    law = IIDProductLaw(1, [[0.4, 0.6], [0.6, 0.4]], [0.5, 0.5], 0.1)
    tp = solve_tilt(law, [0.5])
    eps, cfg = make_epsilon_law(tp), StoppingConfig(3, 0)
    tracemalloc.start()
    try:
        rep = certify_gap(tp, eps, cfg, law, 64, horizon=20_000, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.horizon == 20_000 and np.all(np.isfinite(rep.trace))
    assert peak < 2 * 2**20


def extended_inner(factors, kbar, L):
    """The inner block value of one row in 40-digit decimals, whose exponent range
    is unbounded, so that no state entry can underflow or overflow."""
    with decimal.localcontext(decimal.Context(prec=40, Emin=-10**9, Emax=10**9)):
        k = decimal.Decimal(kbar)
        v = [decimal.Decimal(1)] + [decimal.Decimal(0)] * (L - 1)
        out = decimal.Decimal(0)
        for f in factors:
            out += v[L - 1] * k
            v = [sum(v) * decimal.Decimal(float(f))] + [x * k for x in v[:-1]]
        return out


def rel_error(got, want) -> float:
    return float(abs(decimal.Decimal(float(got)) / want - 1))


@settings(max_examples=12, deadline=None)
@given(L=st.sampled_from([2, 3, 4]), tiny_log10=st.floats(-80.0, -10.0),
       split=st.integers(500, 2000), horizon=st.integers(4000, 4400),
       seed=st.integers(0, 2**32))
def test_extreme_factors_match_extended_reference(L, tiny_log10, split, horizon, seed):
    # a stretch of near-zero factors drives the state thousands of decades down,
    # then factors near the growth bound bring the value back to about 1e200; an
    # interval between rescales that ignored the factor bounds would underflow
    kbar = 0.125
    # per-step decay at a tiny factor f is about (f * kbar^(L-1))^(1/L); at growth
    # rate rho the factor is rho^L / sum_j kbar^j rho^(L-1-j)
    decay_log10 = (tiny_log10 + (L - 1) * math.log10(kbar)) / L
    rho = 10.0 ** ((200.0 - split * decay_log10) / (horizon - split))
    big = rho**L / sum(kbar**j * rho ** (L - 1 - j) for j in range(L))
    jitter = np.random.default_rng(seed).uniform(0.9, 1.1, size=(2, horizon))
    factors = np.where(np.arange(horizon) < split, 10.0**tiny_log10, big) * jitter
    got = ray_inner_values(factors, kbar, L)
    for row, val in zip(factors, got):
        want = extended_inner(row, kbar, L)
        assert want > decimal.Decimal("1e100")  # late strings dominate the value
        assert rel_error(val, want) <= REL


def test_near_zero_factors_leave_the_forced_strings():
    # with free factors near zero only the all-forced strings carry weight
    h, kbar, L = 4000, 0.125, 3
    factors = np.full((2, h), 1e-150)
    got = ray_inner_values(factors, kbar, L)
    assert rel_error(got[0], extended_inner(factors[0], kbar, L)) <= REL
    assert got[0] == pytest.approx(kbar**L, rel=1e-12)
