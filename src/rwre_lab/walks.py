"""Quenched and annealed walk laws, plus exact small-horizon oracles.

The quenched law steps through a fixed realized environment; the annealed law
averages the environment out. Everything here that is labelled exact is a full
enumeration or a forward transfer evolution, intended as ground truth for the
Monte Carlo machinery elsewhere in the package.

A batch of paths is one format throughout: a (P, n) array of direction
indices, one row per path from the origin. ``step_matrix`` enumerates all of
them, ``path_positions`` and ``path_sites`` turn a batch into the sites it
visits. Path functionals of the environment are evaluated here and nowhere
else: ``site_grouped_log_moment`` closes the annealed moment,
``realized_log_xi`` tabulates the quenched log xi of one environment, and
``forward_evolution`` evolves the quenched walk's weights on the light cone of
its start, or on the two-sided cone between a start and a target, with exact
power-of-two rescaling.

The enumeration oracles (``quenched_path_weights``, ``annealed_path_weights``
and the point and endpoint laws built on them) sum over every path of the
batch. They stay independent of ``forward_evolution`` and
``realized_log_xi``: the quenched ones read omega at each departure site with
one ``omega_many`` call, and the field branch of the annealed one enumerates
the Gibbs measure of one box holding every departure site.
"""

from __future__ import annotations

import math

import numpy as np

from .environments import (Box, Environment, IIDProductLaw, MarkovFieldLaw, centered_box,
                           direction_vectors)
from .numutil import BudgetError, fsum, words

PATH_BUDGET = 10**7


def step_matrix(n: int, d: int, budget: int = PATH_BUDGET) -> np.ndarray:
    """All (2d)^n step sequences of length n, as a lexicographic ((2d)^n, n) int array."""
    count = (2 * d) ** n
    if count > budget:
        raise BudgetError(f"(2d)^n = {count} paths exceeds budget {budget}")
    return words(2 * d, n)


def path_positions(steps: np.ndarray, d: int) -> np.ndarray:
    """Sites visited by a (P, n) batch of step sequences from the origin, shape (P, n+1, d)."""
    steps = np.asarray(steps, dtype=np.int64)
    pos = np.zeros((steps.shape[0], steps.shape[1] + 1, d), dtype=np.int64)
    np.cumsum(direction_vectors(d)[steps], axis=1, out=pos[:, 1:, :])
    return pos


def path_sites(steps: np.ndarray, d: int) -> tuple:
    """Departure sites and endpoints of a (P, n) batch of step sequences from the origin.

    Returns (flat_sites, ends). flat_sites[p, j] indexes the site that
    steps[p, j] leaves, in C order on the centered box of radius n - 1 (the
    layout of ``realized_log_xi``); ends has shape (P, d).
    """
    pos = path_positions(steps, d)
    radius = max(pos.shape[1] - 2, 0)  # n - 1
    flat = np.ravel_multi_index(np.moveaxis(pos[:, :-1, :] + radius, 2, 0), (2 * radius + 1,) * d)
    return flat, pos[:, -1, :]


def endpoint_law(ends: np.ndarray, weights) -> dict:
    """{site tuple: summed weight} over the (P, d) endpoints of a weighted batch.

    Each endpoint sums its paths' weights in batch order.
    """
    sites, inverse = np.unique(ends, axis=0, return_inverse=True)
    sums = np.bincount(inverse.ravel(), weights=weights, minlength=len(sites))
    return {tuple(site): float(w) for site, w in zip(sites.tolist(), sums)}


def site_grouped_log_moment(values, weights, flat_sites: np.ndarray, steps: np.ndarray) -> tuple:
    """Sign and log-magnitude of E[prod_j values[atom(site_j), step_j]] per path.

    ``values`` is a (K, 2d) table over the atoms of a product law, possibly
    signed or zero, and ``weights`` their probabilities; ``flat_sites`` and
    ``steps`` are (P, n). Each distinct site draws one atom, so the visits to
    a site close jointly as one mixture over atoms, and distinct sites
    multiply. As with ``np.linalg.slogdet``, a zero moment has sign 0 and
    log-magnitude -inf, and long paths stay in range.
    """
    values = np.asarray(values, dtype=np.float64)
    n_paths, n = steps.shape
    if not steps.size:  # no steps, or no paths
        return np.ones(n_paths), np.zeros(n_paths)
    two_d = values.shape[1]
    n_sites = int(flat_sites.max()) + 1
    path = np.arange(n_paths, dtype=np.int64)[:, None]
    keys, counts = np.unique(((path * n_sites + flat_sites) * two_d + steps).ravel(),
                             return_counts=True)
    groups = keys // two_d  # one (path, site) pair per group
    group_starts = np.r_[0, np.flatnonzero(np.diff(groups)) + 1]
    dirs = keys % two_d
    with np.errstate(divide="ignore"):
        log_abs = np.add.reduceat(np.log(np.abs(values))[:, dirs] * counts, group_starts, axis=1)
    odd = counts % 2 == 1
    negative = np.logical_xor.reduceat((values < 0)[:, dirs] & odd, group_starts, axis=1)
    peak = log_abs.max(axis=0)
    peak[np.isneginf(peak)] = 0.0  # every atom vanishes at this site
    mix = weights @ (np.where(negative, -1.0, 1.0) * np.exp(log_abs - peak))
    path_starts = np.r_[0, np.flatnonzero(np.diff(groups[group_starts] // n_sites)) + 1]
    with np.errstate(divide="ignore"):
        site_log = peak + np.log(np.abs(mix))
    return np.multiply.reduceat(np.sign(mix), path_starts), np.add.reduceat(site_log, path_starts)


def realized_log_xi(env: Environment, means, n: int) -> np.ndarray:
    """log(omega / means) in one realized environment, as a (sites, 2d) table.

    Rows follow the layout of ``path_sites`` for paths of length n, so
    ``table[flat_sites, steps].sum(axis=1)`` is the realized log xi-product
    along every path of a batch.
    """
    d = env.law.dimension
    dense, _ = env.dense(centered_box(d, max(n - 1, 0)))
    return np.log(dense / means).reshape(-1, 2 * d)


def quenched_path_weights(env: Environment, steps: np.ndarray) -> np.ndarray:
    """prod_j omega(X_{j-1}, step_j) per path of a (P, n) batch in the fixed environment.

    omega is read at every departure site of the batch with one ``omega_many`` call.
    """
    steps = np.asarray(steps, dtype=np.int64)
    d = env.law.dimension
    departures = path_positions(steps, d)[:, :-1].reshape(-1, d)
    omegas = env.omega_many(departures).reshape(steps.shape + (2 * d,))
    return np.prod(np.take_along_axis(omegas, steps[..., None], axis=2)[..., 0], axis=1)


def annealed_path_weights(law, steps: np.ndarray) -> np.ndarray:
    """E[prod_j omega(X_{j-1}, step_j)] per path of a (P, n) batch, exact.

    Repeated visits to a site do not factorize. For a product law the steps
    are grouped by site and each group is closed as one per-site moment. For a
    field the Gibbs measure of the smallest centered box holding every
    departure site of the batch is enumerated once, and every path is summed
    against it.
    """
    steps = np.asarray(steps, dtype=np.int64)
    d = law.dimension
    if isinstance(law, IIDProductLaw):
        flat, _ = path_sites(steps, d)
        sign, log_abs = site_grouped_log_moment(law.atoms, law.weights, flat, steps)
        return sign * np.exp(log_abs)
    if not isinstance(law, MarkovFieldLaw):
        raise TypeError(f"unsupported law type {type(law)!r}")
    departures = path_positions(steps, d)[:, :-1]
    radius = int(np.abs(departures).max()) if departures.size else 0
    box = centered_box(d, radius)
    configs, _, probs = law.gibbs_configurations(box)
    # box.all_sites() is in C order, so a site's column is its raveled offset
    columns = np.ravel_multi_index(np.moveaxis(departures + radius, 2, 0), box.shape)
    return np.array([probs @ np.prod(law.state_probs[configs[:, cols], path], axis=1)
                     for cols, path in zip(columns, steps)])


def _paths_to(n: int, d: int, target, budget: int) -> np.ndarray:
    """The rows of ``step_matrix`` whose path ends at ``target``."""
    target = np.asarray(target, dtype=np.int64).reshape(-1)
    if target.shape != (d,):  # would broadcast against every axis
        raise ValueError(f"target {target.tolist()} is not a site of Z^{d}")
    steps = step_matrix(n, d, budget)
    return steps[np.all(path_positions(steps, d)[:, -1] == target, axis=1)]


def quenched_point_probability(env: Environment, n: int, target, budget: int = PATH_BUDGET) -> float:
    """P_{0,omega}(X_n = target), exact by full path enumeration."""
    return fsum(quenched_path_weights(env, _paths_to(n, env.law.dimension, target, budget)))


def annealed_point_probability(law, n: int, target, budget: int = PATH_BUDGET) -> float:
    """P_0(X_n = target), exact: sum over paths of the exact annealed weight."""
    return fsum(annealed_path_weights(law, _paths_to(n, law.dimension, target, budget)))


def quenched_endpoint_distribution(env: Environment, n: int, budget: int = PATH_BUDGET) -> dict:
    """Endpoint law at time n by enumeration: {site tuple: probability}."""
    steps = step_matrix(n, env.law.dimension, budget)
    ends = path_positions(steps, env.law.dimension)[:, -1]
    return endpoint_law(ends, quenched_path_weights(env, steps))


def _reachable(start, target, n: int) -> bool:
    """Whether a nearest-neighbor walk can go from ``start`` to ``target`` in exactly n steps."""
    dist = int(np.abs(np.asarray(target) - np.asarray(start)).sum())
    return dist <= n and (n - dist) % 2 == 0


def light_cone(n: int, start, target=None) -> tuple:
    """The sites a walk from ``start`` can occupy at steps 0..n, as per-step windows.

    Returns (box, win_lo, win_hi): at step j axis a spans the inclusive window
    [win_lo[j, a], win_hi[j, a]], which is [start_a - j, start_a + j] and,
    given a ``target``, only the part of [target_a - (n - j), target_a + (n - j)]
    within it, whose sites can still reach the target. ``box`` bounds every
    window. An unreachable target raises ValueError.
    """
    start = np.asarray(start, dtype=np.int64)
    j = np.arange(n + 1)[:, None]
    win_lo, win_hi = start - j, start + j
    if target is not None:
        target = np.asarray(target, dtype=np.int64)
        if not _reachable(start, target, n):
            raise ValueError(f"target {target.tolist()} is not reachable in {n} steps")
        win_lo = np.maximum(win_lo, target - (n - j))
        win_hi = np.minimum(win_hi, target + (n - j))
    return Box(tuple(win_lo.min(axis=0)), tuple(win_hi.max(axis=0))), win_lo, win_hi


def forward_evolution(env: Environment, n: int, start=None, tilt=None, target=None) -> tuple:
    """The quenched walk's weights after n steps, by scaled forward evolution.

    Returns (grid, lo, log_scale): the weight of site x is
    grid[x - lo] * exp(log_scale) on a box whose lower corner is lo. Optional
    per-direction ``tilt`` weights multiply every step in that direction.

    Only the ``light_cone`` of ``start`` (default the origin), two-sided
    given a ``target``, is evolved: each step moves, per direction, only the
    sources in the previous window that land in the new one, and clears only
    the new window. Without a target the box is the radius-n box around
    ``start`` and the grid is the whole endpoint law. With one the box bounds
    the two-sided cone, the grid holds the target's weight and zeros
    elsewhere, and an unreachable target raises ValueError.

    Each step rescales by the power of two of its peak. That is exact, so the
    weights do not depend on which zero cells a window skips, and horizons far
    beyond the enumeration budget stay in floating-point range.
    """
    d = env.law.dimension
    start = np.zeros(d, dtype=np.int64) if start is None else np.asarray(start, dtype=np.int64)
    box, win_lo, win_hi = light_cone(n, start, target)
    lo = np.asarray(box.lo)
    win_lo, win_hi = win_lo - lo, win_hi - lo + 1  # half-open, in box coordinates
    windows = [tuple(map(slice, a, b)) for a, b in zip(win_lo.tolist(), win_hi.tolist())]
    # direction k moves the sources of window j - 1 whose destinations lie in window j
    vecs = direction_vectors(d)
    src_lo = np.maximum(win_lo[:-1, None], win_lo[1:, None] - vecs).tolist()
    src_hi = np.minimum(win_hi[:-1, None], win_hi[1:, None] - vecs).tolist()
    vecs = vecs.tolist()
    flows = np.moveaxis(env.dense(box)[0], -1, 0).copy()  # one contiguous slab per direction
    if tilt is not None:
        flows *= np.asarray(tilt, dtype=np.float64).reshape((2 * d,) + (1,) * d)
    grid = np.zeros(box.shape)
    grid[tuple(start - lo)] = 1.0
    new = np.zeros(box.shape)
    exponent = 0
    for step in range(n):
        window = windows[step + 1]
        new[window] = 0.0
        for flow, vec, s_lo, s_hi in zip(flows, vecs, src_lo[step], src_hi[step]):
            src = tuple(map(slice, s_lo, s_hi))
            dst = tuple(slice(a + v, b + v) for a, b, v in zip(s_lo, s_hi, vec))
            new[dst] += grid[src] * flow[src]
        _, e = math.frexp(float(new[window].max()))
        new[window] = np.ldexp(new[window], -e)
        exponent += e
        grid, new = new, grid
    out = np.zeros(box.shape)
    out[windows[n]] = grid[windows[n]]
    return out, lo, exponent * math.log(2.0)


def log_point_probability_dp(env: Environment, n: int, target, start=None) -> float:
    """log P_{start,omega}(X_n = target) by ``forward_evolution`` on the two-sided cone.

    -inf, without evolving, when the target is out of reach in n steps.
    """
    target = np.atleast_1d(np.asarray(target, dtype=np.int64))
    if not _reachable(0 if start is None else start, target, n):
        return float("-inf")
    grid, lo, log_scale = forward_evolution(env, n, start, target=target)
    val = float(grid[tuple(target - lo)])
    return float("-inf") if val <= 0.0 else log_scale + math.log(val)
