"""Property tests: the streamed gap kernel against its dense and extended-range references."""

import decimal
import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rwre_lab import environments, estimators
from rwre_lab.decomposition import StoppingConfig, choose_horizon, make_epsilon_law
from rwre_lab.environments import Box, IIDProductLaw, MarkovFieldLaw
from rwre_lab.estimators import (_inner_recursion, certify_gap, ray_inner_values,
                                 ray_log_inner_annealed_iid, sample_ray_xi)
from rwre_lab.numutil import derive_seed
from rwre_lab.tilting import solve_tilt

from envhelpers import reference_states

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
    dense = np.log(ray_inner_values(float(tp.u_array[cfg.ell]) * xi - eps.kbar, eps.kbar, cfg.L))
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


LAWS = {
    "two-atom": IIDProductLaw(1, [[0.3, 0.7], [0.7, 0.3]], [0.5, 0.5], 0.1),
    "three-atom": IIDProductLaw(1, [[0.3, 0.7], [0.55, 0.45], [0.7, 0.3]], [0.2, 0.5, 0.3], 0.1),
}


def reference_rows(law, table, seed, replicas, horizon):
    """The (horizon, replicas) factor rows: replica i at step t is site (i, t) of the
    per-site environment reference."""
    return table[reference_states(law, seed, Box((0, 0), (replicas - 1, horizon - 1)))].T


@pytest.mark.parametrize("law_name", sorted(LAWS))
@pytest.mark.parametrize("replicas", EDGE_REPLICAS)
def test_row_stream_is_pinned(monkeypatch, law_name, replicas):
    # every row is that of the plain per-(replica, step) reference, for horizons
    # the time block does not divide; the three-atom law's cuts 0.2 and 0.7
    # straddle bytes
    law, horizon, seed, L = LAWS[law_name], 46, 5, 3
    xi = law.xi[:, 0]
    want = reference_rows(law, xi, derive_seed(seed, 1), replicas, horizon)
    assert sample_ray_xi(law, 0, replicas, horizon, derive_seed(seed, 1)).T.tobytes() == \
        want.tobytes()

    consumed = []
    real = estimators._inner_recursion

    def spy(rows, m, kbar, L, every, steps):
        read = np.array([row.copy() for row in itertools.islice(
            itertools.chain.from_iterable(rows), steps)])
        consumed.append(read)
        return real([read], m, kbar, L, every, steps)

    monkeypatch.setattr(estimators, "_inner_recursion", spy)
    tp = solve_tilt(law, [0.5])
    eps = make_epsilon_law(tp)
    certify_gap(tp, eps, StoppingConfig(L, 0), law, replicas, horizon=horizon, seed=seed)
    factors = float(tp.u_array[0]) * xi - eps.kbar
    want = reference_rows(law, factors, derive_seed(seed, 1), replicas, horizon)[:horizon - L]
    starts = range(0, replicas, 4096)
    # one call per replica block, then one for the mean row
    assert len(consumed) == len(starts) + 1
    for start, read in zip(starts, consumed):
        size = min(4096, replicas - start)
        assert read.tobytes() == np.ascontiguousarray(want[:, start:start + size]).tobytes()
    mean_row = consumed[-1]
    assert mean_row.shape == (horizon - L, 1)
    assert np.all(mean_row == float(tp.u_array[0]) - eps.kbar)


FIELD = MarkovFieldLaw(1, [[0.3, 0.7], [0.7, 0.3]], 0.1, beta=0.5, sweeps=2)


@pytest.mark.parametrize("chunk", [4096, 1000, 7])
@pytest.mark.parametrize("hash_block", [2**14, 64])
def test_batching_changes_no_value(monkeypatch, chunk, hash_block):
    # every row is a pure function of (seed, replica, step): neither the replica
    # blocks nor the time blocks change a byte of the rows or of the report
    def run():
        law = LAWS["three-atom"]
        tp = solve_tilt(law, [0.5])
        eps = make_epsilon_law(tp)
        xi = sample_ray_xi(law, 0, 1200, 70, 9)
        rep = certify_gap(tp, eps, StoppingConfig(3, 0), law, 1200, horizon=300, seed=9)
        tp = solve_tilt(FIELD, [0.5])
        field = certify_gap(tp, make_epsilon_law(tp), StoppingConfig(2, 0), FIELD, 9,
                            horizon=40, seed=9)
        return [xi.tobytes(), rep.trace.tobytes(), field.trace.tobytes(),
                repr((rep.to_dict(), rep.steps_read, field.to_dict(), field.steps_read))]

    want = run()
    monkeypatch.setattr(estimators, "CHUNK", chunk)
    monkeypatch.setattr(environments, "HASH_BLOCK", hash_block)
    assert run() == want


def atom_counts(law, draws, seed=11):
    """How often each atom is drawn in one replica block of ``draws`` product-law draws."""
    size = 4096
    xi = law.xi[:, 0]
    rows = estimators._ray_rows(law, 0, -(-draws // size), seed, xi)
    counts = np.zeros(len(xi), dtype=np.int64)
    for block in rows(0, size):
        counts += [np.count_nonzero(block == v) for v in xi]
    return counts


SAMPLER_LAWS = {
    "light-atom": IIDProductLaw(1, [[0.3, 0.7], [0.7, 0.3]], [0.001, 0.999], 0.1),
    "three-atom": LAWS["three-atom"],
    "zero-weight": IIDProductLaw(1, [[0.3, 0.7], [0.5, 0.5], [0.7, 0.3]], [0.3, 0.0, 0.7], 0.1),
}


@pytest.mark.parametrize("law_name", sorted(SAMPLER_LAWS))
def test_byte_sampler_draws_each_atom_at_its_weight(law_name):
    # the light atom's weight lies inside byte 0's range, so it is drawn only
    # through that byte's straddle double; the three-atom and zero-weight laws
    # have cuts inside bytes 51, 179 and 76
    law = SAMPLER_LAWS[law_name]
    counts = atom_counts(law, 10**7)
    n = counts.sum()
    p = law.weights
    se = np.sqrt(n * p * (1.0 - p))
    assert n >= 10**7
    assert np.all(np.abs(counts - n * p) <= 5.0 * se), (counts, n * p, se)


@pytest.mark.parametrize("weights", [[0.3, 0.0, 0.7], [0.0, 0.3, 0.7], [0.3, 0.7, 0.0]])
def test_byte_sampler_never_draws_a_zero_weight_atom(weights):
    law = IIDProductLaw(1, [[0.3, 0.7], [0.5, 0.5], [0.7, 0.3]], weights, 0.1)
    counts = atom_counts(law, 2 * 10**6, seed=12)
    assert np.all(counts[law.weights == 0.0] == 0) and counts.sum() >= 2 * 10**6


@pytest.mark.parametrize("law_name, doubles", [("two-atom", False), ("three-atom", True)])
def test_byte_edge_weights_draw_no_double(monkeypatch, law_name, doubles):
    # weights 0.5, 0.5 put the one cut on a byte edge: every draw is a byte;
    # the three-atom law's cuts 0.2 and 0.7 straddle bytes 51 and 179
    real = environments.site_uniforms
    drawn = []

    def counting(seed, sites, stream=0):
        drawn.append(len(sites))
        return real(seed, sites, stream)

    monkeypatch.setattr(environments, "site_uniforms", counting)
    law = LAWS[law_name]
    rows = estimators._ray_rows(law, 0, 5000, 13, law.xi[:, 0])
    for _ in rows(0, 4096):
        pass
    assert (sum(drawn) > 0) == doubles


@st.composite
def factor_rows(draw):
    L = draw(st.integers(2, 5))
    horizon = draw(st.one_of(st.integers(1, L + 3), st.integers(L + 4, 300)))
    kbar = draw(st.floats(0.05, 0.3))
    signed = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    factors = rng.uniform(0.02, 0.8, size=(2, horizon))
    if signed:
        flip = rng.random((2, horizon)) < 0.2
        factors[flip] = -rng.uniform(0.01, 0.3, size=int(flip.sum()))
    return factors, kbar, L


@settings(max_examples=60, deadline=None)
@given(factor_rows())
def test_recursion_matches_extended_reference(case):
    # a signed row may cancel, so its error is held against the same sum with |f|,
    # which is the value itself for one-signed rows
    factors, kbar, L = case
    got = ray_inner_values(factors, kbar, L)
    for row, val in zip(factors, got):
        want = extended_inner(row, kbar, L)
        scale = extended_inner(np.abs(row), kbar, L)
        if len(row) < L:
            assert val == 0.0 and want == 0
        else:
            assert abs(decimal.Decimal(float(val)) - want) <= decimal.Decimal(REL) * scale


@pytest.mark.parametrize("L", [2, 3, 5])
def test_gap_below_the_block_length_is_refused(L):
    # no string completes an L-run before time L: every inner value is 0
    law = LAWS["two-atom"]
    tp = solve_tilt(law, [0.5])
    with pytest.raises(ValueError, match="not positive"):
        certify_gap(tp, make_epsilon_law(tp), StoppingConfig(L, 0), law, 8, horizon=L - 1)


@settings(max_examples=30, deadline=None)
@given(L=st.integers(2, 5), extra=st.integers(0, 80), seed=st.integers(0, 2**32))
def test_rows_past_h_minus_l_are_never_read(L, extra, seed):
    # the value at horizon H reads f_1 .. f_{H-L}: rows H-L+1 .. H may hold
    # anything, and are not pulled from the source
    horizon, m, kbar = L + extra, 3, 0.125
    rows = np.random.default_rng(seed).uniform(0.02, 0.8, size=(horizon, m))
    want = ray_inner_values(rows.T, kbar, L)
    changed = rows.copy()
    changed[horizon - L:] = np.nan
    pulled = []

    def one_row_at_a_time():
        for t, row in enumerate(changed):
            pulled.append(t)
            yield row[None, :]

    got, read = _inner_recursion(one_row_at_a_time(), m, kbar, L, rows, horizon - L)
    assert np.array_equal(got, want)
    assert len(pulled) == read <= horizon - L


@pytest.mark.parametrize("replicas", EDGE_REPLICAS)
def test_annealed_side_is_the_folded_mean_row(replicas):
    law = LAWS["three-atom"]
    tp = solve_tilt(law, [0.4])
    eps, cfg = make_epsilon_law(tp), StoppingConfig(3, 0)
    rep = certify_gap(tp, eps, cfg, law, replicas, horizon=400, seed=8)
    want = ray_log_inner_annealed_iid(tp, eps, cfg, 400)
    assert rep.trace.shape == (replicas,)
    assert abs(rep.annealed_side * rep.expected_block - want) <= REL * abs(want)


def test_mean_row_pass_holds_no_horizon_row(monkeypatch):
    # a product law's annealed side is one pass over a repeated constant block:
    # at L = 6 the horizon is 2 759 300, and a dense (1, H) row would take 22 MB
    def refuse(*args, **kwargs):
        raise AssertionError("certify_gap evaluated a dense row")

    monkeypatch.setattr(estimators, "ray_inner_values", refuse)
    law = LAWS["two-atom"]
    tp = solve_tilt(law, [0.5])
    eps = make_epsilon_law(tp)
    rep = certify_gap(tp, eps, StoppingConfig(3, 0), law, 100, seed=2)
    assert rep.trace.shape == (100,) and np.isfinite(rep.annealed_side)
    cfg = StoppingConfig(6, 0)
    horizon = choose_horizon(eps, cfg)
    tracemalloc.start()
    try:
        value = ray_log_inner_annealed_iid(tp, eps, cfg, horizon)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert horizon > 2 * 10**6 and math.isfinite(value)
    assert peak < 2**20


@settings(max_examples=40, deadline=None)
@given(fhat=st.floats(1e-6, 50.0), kbar=st.floats(0.01, 0.5), L=st.integers(2, 8))
def test_growth_rate_bounds_the_all_fhat_transfer(fhat, kbar, L):
    # checked in exact arithmetic: g(rho) = rho^L - fhat sum_j kbar^j rho^(L-1-j) >= 0,
    # and rho is within the 2^-20 inflation (and the bisection's 2^-30) of the root
    def g(rho):
        r, f, k = Fraction(rho), Fraction(fhat), Fraction(kbar)
        return r**L - f * sum(k**j * r ** (L - 1 - j) for j in range(L))

    rho = estimators._growth_rate(fhat, kbar, L)
    assert g(rho) >= 0
    assert g(rho / (1.0 + 2**-19)) < 0


@pytest.mark.parametrize("rho", [0.3, 1.0 - 2**-40, 1.0, 1.0 + 2**-40, 1.05, 7.0])
def test_log2_geometric_sum(rho):
    for m in (1, 2, 31, 500):
        exact = sum(Fraction(rho) ** n for n in range(1, m + 1))
        want = math.log2(exact.numerator) - math.log2(exact.denominator)
        assert estimators._log2_geometric(rho, m) == pytest.approx(want, rel=1e-12, abs=1e-12)
    assert estimators._log2_geometric(rho, 0) == -math.inf
    assert math.isfinite(estimators._log2_geometric(rho, 10**7))


@st.composite
def stopping_rows(draw):
    # three replica rows, each one-signed, signed or constant at fhat; with
    # fhat and kbar they decay, or grow where the all-fhat rate exceeds 1
    L = draw(st.integers(2, 5))
    kbar = draw(st.floats(0.05, 0.3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    steps = 32 * draw(st.integers(1, 4))
    fhat = draw(st.floats(0.5, 1.5))
    rows = []
    for kind in draw(st.lists(st.sampled_from(["one-signed", "signed", "fhat"]),
                              min_size=3, max_size=3)):
        row = rng.uniform(0.02, fhat, size=L + steps)
        if kind == "signed":
            row *= np.where(rng.random(L + steps) < 0.3, -1.0, 1.0)
        elif kind == "fhat":
            row[:] = fhat
        rows.append(row)
    return np.array(rows).T.copy(), kbar, L, steps


@settings(max_examples=60, deadline=None)
@given(stopping_rows())
def test_stopped_values_are_the_full_horizon_values(case):
    # the reference table adds a factor 2^27 / L: the rescale interval, and with
    # it the flush, stays the same, while rho >= 2^24 puts every flush that
    # leaves m >= 32 rows out of reach of the stop (the horizon is a multiple
    # of 32 steps), so the reference reads every row
    cols, kbar, L, steps = case
    got, read = _inner_recursion([cols], cols.shape[1], kbar, L, cols, steps)
    want, ref_read = _inner_recursion([cols], cols.shape[1], kbar, L,
                                      np.append(cols, 2.0**27 / L), steps)
    assert ref_read == steps and read <= steps
    assert got.tobytes() == want.tobytes()


def test_growing_fhat_rows_read_every_row():
    # gap-iid's largest free factor 0.925 at kbar 1/8, L = 3: rho > 1, so the
    # bound on the rest of an all-fhat row never falls below its total
    horizon, kbar, L = 5359, 0.125, 3
    assert estimators._growth_rate(0.925, kbar, L) > 1.0
    cols = np.full((horizon, 64), 0.925)
    _, read = _inner_recursion([cols], 64, kbar, L, cols, horizon - L)
    assert read == horizon - L


def test_gap_iid_stops_before_a_quarter_of_the_horizon():
    # the typical replica decays by about 0.55 bits a step; the all-fhat bound
    # grows by about 0.07 bits a step over a remaining horizon that shrinks
    law = LAWS["two-atom"]
    tp = solve_tilt(law, [0.5])
    rep = certify_gap(tp, make_epsilon_law(tp), StoppingConfig(3, 0), law, 2000, seed=1)
    assert rep.horizon == 5359
    assert 0 < rep.steps_read < rep.horizon / 4
