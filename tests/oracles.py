"""The exact judges of the package, kept beside the tests that use them.

Each judge is a full enumeration or a plain transfer loop, written apart
from the route it judges:

* the quenched and annealed path weights, point probabilities and endpoint
  law of the walk, by enumeration of every n-step path in ``step_blocks``
  (they judge ``log_point_probability_dp`` and the identity oracles), and the
  Gibbs measure of a field on a small box;
* the survival P(tau_1 > t) of the run-length chain, scanned step by step
  (it judges ``_tail_blocks``, the blocked tail table that ``choose_horizon``
  scans for the horizon and the tau sampler inverts);
* ``sample_ray_block_values``, the symbol-by-symbol Monte Carlo of a stopped
  block on a ray (it judges the run-length recursion);
* ``exact_gap_oracle``, both sides of the gap at a small horizon by
  enumeration over every ray environment, each valued by a plain run-length
  transfer loop with no rescaling and no early stop (it judges
  ``certify_gap``);
* ``jackknife_by_deletion``, a jackknife that recomputes its estimate on
  each sample with one entry deleted, O(n^2) (it judges the leave-one-out
  log-mean-exp and the field-law gap's error bars).
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from rwre_lab.decomposition import _kbar_of, expected_tau
from rwre_lab.environments import (IIDProductLaw, MarkovFieldLaw, centered_box,
                                   sample_environment)
from rwre_lab.evolution import _site
from rwre_lab.identities import (endpoint_law, path_omegas, path_positions, path_sites,
                                 site_grouped_log_moment, step_blocks)
from rwre_lab.numutil import BudgetError, fsum, fsum_parts, logsumexp, site_uniforms, words

ENUM_CONFIG_CAP = 2 * 10**6  # field configurations one Gibbs enumeration may hold
ORACLE_CAP = 2**21  # ray environments exact_gap_oracle may enumerate


def all_sites(box) -> np.ndarray:
    """Every site of ``box``, shape (n, d), in the C order of its shape."""
    axes = [np.arange(l, h + 1, dtype=np.int64) for l, h in zip(box.lo, box.hi)]
    return np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=1)


# ---------------------------------------------------------------------------
# field measure on a small box
# ---------------------------------------------------------------------------

def gibbs_configurations(law: MarkovFieldLaw, box):
    """Exact field measure on a small box: (configurations, sites, probabilities).

    Enumerates all S^n configurations; guarded by a joint budget because
    the count explodes quickly.
    """
    n = box.n_sites
    if len(law.table) > 8 or n > 16 or len(law.table)**n > ENUM_CONFIG_CAP:
        raise BudgetError(
            f"exact field enumeration needs S<=8, sites<=16 and S^sites<={ENUM_CONFIG_CAP}")
    sites = all_sites(box)
    index = {tuple(s): i for i, s in enumerate(sites)}
    offsets = law._neighbor_offsets()
    pairs = []
    for i, s in enumerate(sites):
        for off in offsets:
            j = index.get(tuple(s + off))
            if j is not None and j > i:
                pairs.append((i, j))
    configs = words(len(law.table), n)
    energy = np.zeros(len(configs))
    for i, j in pairs:
        energy += (configs[:, i] == configs[:, j]).astype(np.float64)
    logw = law.beta * energy
    logw -= logw.max()
    w = np.exp(logw)
    w /= w.sum()
    return configs, sites, w


def reference_heat_bath(law: MarkovFieldLaw, seed: int, region) -> np.ndarray:
    """A field's states on ``region``, every heat-bath update made site by site.

    The start is the law's beta = 0 realization of the region expanded by
    max(range, 5) sites. Sweep s = 0, 1, ... visits the residue classes of
    the box mod (range + 1) in lexicographic order, and the sites of each
    class in lexicographic order. Site x counts its neighbors within range
    inside the box by state, and takes the least state k with
    u < P(state <= k), where u = site_uniforms(seed, (*x, s), stream=2);
    it takes the last state if rounding leaves none.
    """
    work = region.expand(max(law.range_r, 5))
    free = MarkovFieldLaw(law.dimension, law.table, law.kappa, law.range_r, beta=0.0)
    states = sample_environment(free, seed, work).states.astype(np.int64)
    step = law.range_r + 1
    sites = all_sites(work)
    for s in range(law.sweeps):
        for cls in words(step, law.dimension):
            for x in sites[np.all((sites - work.lo) % step == cls, axis=1)]:
                counts = np.zeros(len(law.table))
                for y in x + law._neighbor_offsets():
                    if work.contains(y)[0]:
                        counts[states[tuple(y - work.lo)]] += 1
                w = np.exp(law.beta * (counts - counts.max()))
                cum = np.cumsum(w / w.sum())
                u = site_uniforms(seed, np.append(x, s), stream=2)[0]
                states[tuple(x - work.lo)] = min(int(np.sum(u >= cum)), len(law.table) - 1)
    return states[tuple(slice(l - w, h - w + 1) for l, h, w in zip(region.lo, region.hi, work.lo))]


# ---------------------------------------------------------------------------
# walk laws by path enumeration
# ---------------------------------------------------------------------------

def quenched_path_weights(env, steps: np.ndarray) -> np.ndarray:
    """prod_j omega(X_{j-1}, step_j) per path of a (P, n) batch in the fixed environment."""
    return np.prod(path_omegas(env, steps), axis=1)


def annealed_path_weights(law, steps: np.ndarray) -> np.ndarray:
    """E[prod_j omega(X_{j-1}, step_j)] per path of a (P, n) batch, exact.

    Repeated visits to a site do not factorize. For a product law the steps
    are grouped by site and each group is closed as one per-site moment. For a
    field the Gibbs measure of the smallest centered box holding every
    departure site of the batch is enumerated once, and every path is summed
    against it.

    That is exact only where the free-boundary measure of a box is the
    marginal of every larger box's: at beta = 0 (independent uniform states)
    and for the nearest-neighbour chain in d = 1, whose transfer matrix has
    equal row sums. Any other field would weigh a path by the box its batch
    happens to span, so it raises ValueError.
    """
    steps = np.asarray(steps, dtype=np.int64)
    d = law.dimension
    if isinstance(law, IIDProductLaw):
        flat, _ = path_sites(steps, d)
        return np.exp(site_grouped_log_moment(law.table[None], law.weights, flat, steps)[0])
    if not isinstance(law, MarkovFieldLaw):
        raise TypeError(f"unsupported law type {type(law)!r}")
    if law.beta > 0 and (d, law.range_r) != (1, 1):
        raise ValueError(f"no box-free annealed weight for a field with beta = {law.beta} in "
                         f"d = {d} at range {law.range_r}: its free-boundary Gibbs measures are "
                         "not marginals of one another (exact only for beta = 0, or d = 1 at "
                         "range 1)")
    departures = path_positions(steps, d)[:, :-1]
    radius = int(np.abs(departures).max()) if departures.size else 0
    box = centered_box(d, radius)
    configs, _, probs = gibbs_configurations(law, box)
    # all_sites(box) is in C order, so a site's column is its raveled offset
    columns = np.ravel_multi_index(np.moveaxis(departures + radius, 2, 0), box.shape)
    return np.array([probs @ np.prod(law.table[configs[:, cols], path], axis=1)
                     for cols, path in zip(columns, steps)])


def _point_probability(path_weights, n: int, d: int, target) -> float:
    """fsum of ``path_weights`` over the n-step paths that end at ``target``, block by block."""
    target = _site(target, d)
    parts = []
    for steps in step_blocks(n, d):
        hits = steps[np.all(path_positions(steps, d)[:, -1] == target, axis=1)]
        if len(hits):
            parts = fsum_parts(path_weights(hits), parts)
    return fsum(parts)


def quenched_point_probability(env, n: int, target) -> float:
    """P_{0,omega}(X_n = target), exact by full path enumeration."""
    return _point_probability(functools.partial(quenched_path_weights, env), n,
                              env.law.dimension, target)


def annealed_point_probability(law, n: int, target) -> float:
    """P_0(X_n = target), exact: sum over paths of the exact annealed weight."""
    return _point_probability(functools.partial(annealed_path_weights, law), n, law.dimension,
                              target)


def quenched_endpoint_distribution(env, n: int) -> dict:
    """Endpoint law at time n by enumeration: {site tuple: probability}."""
    d = env.law.dimension
    return endpoint_law(((path_positions(steps, d)[:, -1], quenched_path_weights(env, steps))
                         for steps in step_blocks(n, d)), n, d)


# ---------------------------------------------------------------------------
# the run-length chain and stopped blocks on a ray
# ---------------------------------------------------------------------------

def _survival_chain(k: float, L: int):
    """Yield P(tau_1 > t) for t = 0, 1, 2, ... from the run-length chain.

    The state is the law of the current run length restricted to unstopped
    strings; one step sends its mass to run 0 with probability 1 - k and
    shifts every run up by one with probability k. Sums run left to right.
    """
    v = [1.0] + [0.0] * (L - 1)
    q = 1.0 - k
    while True:
        s = 0.0
        for x in v:
            s += x
        yield s
        v = [s * q] + [x * k for x in v[:-1]]


def tau_survival(eps, cfg, horizon: int) -> np.ndarray:
    """P(tau_1 > t) for t = 0..horizon, exact via the run-length chain."""
    chain = _survival_chain(_kbar_of(eps), cfg.L)
    return np.fromiter(itertools.islice(chain, horizon + 1), dtype=np.float64,
                       count=horizon + 1)


def sample_ray_block_values(factors, kbar: float, u_ell: float, L: int, n: int,
                            rng) -> np.ndarray:
    """n sampled block values prod(psi) * 1{block on the ray, tau_1 <= H}.

    ``factors`` broadcasts to (n, H) without a copy; factors[..., t] is the psi
    factor a free symbol contributes at symbol time t+1, departing from site
    t on the ray. At each symbol time every active stream draws one uniform x:
    x < kbar is a forced ell symbol (the run grows by one), kbar <= x < u_ell a
    free symbol stepping along ell (the run resets and the value takes the
    factor), anything else leaves the ray (value 0, the stream is dropped). A
    stream records its value when its run reaches L; streams still running at
    H count as 0. The mean therefore estimates
    ray_inner_values((u_ell - kbar) * factors, kbar, L), the truncated
    functional ``certify_gap`` evaluates exactly.
    """
    if not 0.0 < kbar < u_ell <= 1.0:
        raise ValueError(f"need 0 < kbar = {kbar} < u(ell) = {u_ell} <= 1")
    factors = np.asarray(factors, dtype=np.float64)
    rows = np.broadcast_to(factors, (n, factors.shape[-1]))
    out = np.zeros(n)
    active = np.arange(n)
    run = np.zeros(n, dtype=np.int64)
    value = np.ones(n)
    for t in range(rows.shape[1]):
        if not active.size:
            break
        x = rng.random(active.size)
        free = x >= kbar
        run = np.where(free, 0, run + 1)
        value = np.where(free, value * rows[active, t], value)
        done = run >= L
        out[active[done]] = value[done]
        keep = (x < u_ell) & ~done
        active, run, value = active[keep], run[keep], value[keep]
    return out


# ---------------------------------------------------------------------------
# the gap at a small horizon
# ---------------------------------------------------------------------------

def run_length_values(free_factors: np.ndarray, kbar: float, L: int) -> np.ndarray:
    """Inner block value of each row of free factors, by the plain run-length transfer.

    The state holds, per row, the mass of the unstopped strings by their
    current run of forced symbols. At symbol time t + 1 a forced symbol at
    run L - 1 completes the block (that mass, times kbar, joins the value), a
    forced symbol moves run r to r + 1, and a free symbol sends every run to
    0 with weight free_factors[:, t]. No rescaling and no early stop: every
    step of the row is taken.
    """
    rows, horizon = free_factors.shape
    state = np.zeros((L, rows))
    state[0] = 1.0
    value = np.zeros(rows)
    for t in range(horizon):
        value += kbar * state[L - 1]
        state = np.concatenate([free_factors[None, :, t] * state.sum(axis=0), kbar * state[:-1]])
    return value


def exact_gap_oracle(tp, eps, cfg, law, horizon: int) -> tuple:
    """Both sides at a small horizon by full enumeration over ray environments.

    Enumerates every assignment of atoms to the ray sites (K^H of them), values
    each by ``run_length_values`` and closes the outer expectation exactly.
    Returns (quenched_side, annealed_side) on the same truncated functional as
    ``certify_gap`` at this horizon; i.i.d. product laws only.
    """
    if not isinstance(law, IIDProductLaw):
        raise ValueError(f"the exact gap oracle needs an i.i.d. product law (law kind "
                         f"'iid-product'), not {type(law).__name__}")
    k = len(law.weights)
    if k**horizon > ORACLE_CAP:
        raise BudgetError(f"{k}^{horizon} ray environments exceed the oracle cap {ORACLE_CAP}")
    idx = words(k, horizon)  # (K^H, H)
    probs = np.prod(law.weights[idx], axis=1)
    free = float(tp.u_array[cfg.ell]) * law.xi[:, cfg.ell] - eps.kbar
    values = run_length_values(free[idx], eps.kbar, cfg.L)
    if np.any(values <= 0.0):
        raise ValueError("inner block expectation is not positive")
    log_inner = np.log(values)
    et = expected_tau(eps, cfg)
    quenched = float(probs @ log_inner) / et
    annealed = float(logsumexp(np.log(probs) + log_inner)) / et
    return quenched, annealed


def jackknife_by_deletion(sample, estimate) -> float:
    """Jackknife standard error of ``estimate``, recomputed on each leave-one-out sample.

    sqrt((n - 1) / n * sum_i (e_i - mean_i e_i)^2), e_i = estimate(sample
    without entry i); every e_i takes a fresh pass over n - 1 entries.
    """
    sample = np.asarray(sample, dtype=np.float64)
    loo = np.array([estimate(np.delete(sample, i)) for i in range(sample.size)])
    n = sample.size
    return math.sqrt((n - 1) / n * math.fsum(((loo - loo.mean()) ** 2).tolist()))


def log_mean_exp(logs) -> float:
    return logsumexp(logs) - math.log(len(logs))


def field_gap_stderrs(log_inner, expected_block) -> tuple:
    """(quenched, annealed, gap) error bars of a field-law gap from its (n,) trace, by deletion.

    The sides are the mean and the log-mean-exp of the logs over E[tau_1],
    the gap their difference; the quenched side takes the plain standard
    error of a mean.
    """
    logs = np.asarray(log_inner, dtype=np.float64)
    quenched = math.sqrt(math.fsum(((logs - logs.mean()) ** 2).tolist())
                         / (logs.size - 1) / logs.size)
    annealed = jackknife_by_deletion(logs, log_mean_exp)
    gap = jackknife_by_deletion(logs, lambda r: log_mean_exp(r) - math.fsum(r.tolist()) / r.size)
    return quenched / expected_block, annealed / expected_block, gap / expected_block
