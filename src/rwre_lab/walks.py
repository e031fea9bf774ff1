"""Quenched and annealed walk laws, plus exact small-horizon oracles.

The quenched law steps through a fixed realized environment; the annealed law
averages the environment out. Everything here that is labelled exact is a full
enumeration or a forward transfer evolution, intended as ground truth for the
Monte Carlo machinery elsewhere in the package.

Path functionals of the environment are evaluated here and nowhere else, over
whole batches of paths at once: ``site_grouped_log_moment`` closes the
annealed moment, ``realized_log_xi`` tabulates the quenched log xi of one
environment, and ``forward_evolution`` evolves the quenched walk's weights.
The per-path enumeration oracles (``quenched_path_weight`` and its callers,
the field branch of ``annealed_path_weight``) stay independent of them.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .environments import (Box, Environment, IIDProductLaw, MarkovFieldLaw, centered_box,
                           direction_vectors)
from .numutil import BudgetError, fsum

PATH_BUDGET = 10**7


@dataclass(frozen=True)
class Path:
    """A nearest-neighbor path from a start site, stored as direction indices."""

    steps: tuple
    dimension: int
    start: tuple = None

    def __post_init__(self):
        if self.start is None:
            object.__setattr__(self, "start", (0,) * self.dimension)

    def __len__(self):
        return len(self.steps)

    @property
    def positions(self) -> np.ndarray:
        """Sites visited, shape (n+1, d), positions[0] == start."""
        vecs = direction_vectors(self.dimension)
        out = np.zeros((len(self.steps) + 1, self.dimension), dtype=np.int64)
        out[0] = self.start
        if self.steps:
            out[1:] = np.asarray(self.start) + np.cumsum(vecs[list(self.steps)], axis=0)
        return out

    @property
    def endpoint(self) -> tuple:
        return tuple(int(v) for v in self.positions[-1])


def check_path_budget(n: int, d: int, budget: int = PATH_BUDGET) -> int:
    count = (2 * d) ** n
    if count > budget:
        raise BudgetError(f"(2d)^n = {count} paths exceeds budget {budget}")
    return count


def enumerate_paths(n: int, d: int, budget: int = PATH_BUDGET):
    """All (2d)^n nearest-neighbor paths of length n from the origin, once each."""
    check_path_budget(n, d, budget)
    for steps in itertools.product(range(2 * d), repeat=n):
        yield Path(steps, d)


def step_matrix(n: int, d: int, budget: int = PATH_BUDGET) -> np.ndarray:
    """All step sequences as an int array of shape ((2d)^n, n)."""
    count = check_path_budget(n, d, budget)
    if n == 0:
        return np.zeros((1, 0), dtype=np.int8)
    grids = np.meshgrid(*([np.arange(2 * d, dtype=np.int8)] * n), indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1).reshape(count, n)


def path_sites(steps: np.ndarray, d: int) -> tuple:
    """Departure sites and endpoints of a (P, n) batch of step sequences from the origin.

    Returns (flat_sites, ends). flat_sites[p, j] indexes the site that
    steps[p, j] leaves, in C order on the centered box of radius n - 1 (the
    layout of ``realized_log_xi``); ends has shape (P, d).
    """
    steps = np.asarray(steps, dtype=np.int64)
    n = steps.shape[1]
    pos = np.zeros((steps.shape[0], n + 1, d), dtype=np.int64)
    np.cumsum(direction_vectors(d)[steps], axis=1, out=pos[:, 1:, :])
    radius = max(n - 1, 0)
    flat = np.ravel_multi_index(np.moveaxis(pos[:, :-1, :] + radius, 2, 0), (2 * radius + 1,) * d)
    return flat, pos[:, -1, :]


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
    if n == 0:
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


def simulate_quenched(env: Environment, start, n: int, rng_seed: int) -> Path:
    """Sample one quenched path of length n; reproducible for a fixed seed."""
    rng = np.random.default_rng(rng_seed)
    d = env.law.dimension
    pos = np.asarray(start, dtype=np.int64)
    vecs = direction_vectors(d)
    steps = []
    us = rng.random(n)
    for j in range(n):
        p = env.omega(pos)
        k = int(np.searchsorted(np.cumsum(p), us[j], side="right").clip(max=2 * d - 1))
        steps.append(k)
        pos = pos + vecs[k]
    return Path(tuple(steps), d, tuple(int(v) for v in np.asarray(start, dtype=np.int64)))


def quenched_path_weight(env: Environment, path: Path) -> float:
    """prod_j omega(X_{j-1}, step_j) in the fixed environment, from one lookup per path."""
    omegas = env.omega_many(path.positions[:-1])
    w = 1.0
    for j, k in enumerate(path.steps):
        w *= float(omegas[j, k])
    return w


def annealed_path_weight(law, path: Path) -> float:
    """E[prod_j omega(X_{j-1}, step_j)], exact.

    Repeated visits to a site do not factorize, so steps are grouped by site
    and each group is closed as one per-site moment.
    """
    if isinstance(law, IIDProductLaw):
        steps = np.asarray(path.steps, dtype=np.int64)[None, :]
        flat, _ = path_sites(steps, law.dimension)
        sign, log_abs = site_grouped_log_moment(law.atoms, law.weights, flat, steps)
        return float(sign[0] * math.exp(log_abs[0]))
    if isinstance(law, MarkovFieldLaw):
        return _annealed_path_weight_field(law, path)
    raise TypeError(f"unsupported law type {type(law)!r}")


def _annealed_path_weight_field(law: MarkovFieldLaw, path: Path) -> float:
    """Exact annealed weight under a small-box field enumeration."""
    pos = path.positions
    radius = int(np.abs(pos).max()) if len(path.steps) else 0
    box = centered_box(law.dimension, radius)
    configs, sites, probs = law.gibbs_configurations(box)
    index = {tuple(s): i for i, s in enumerate(sites)}
    total = 0.0
    for config, p in zip(configs, probs):
        w = 1.0
        for j, k in enumerate(path.steps):
            w *= float(law.state_probs[config[index[tuple(int(v) for v in pos[j])]]][k])
        total += p * w
    return total


def quenched_point_probability(env: Environment, n: int, target, budget: int = PATH_BUDGET) -> float:
    """P_{0,omega}(X_n = target), exact by full path enumeration."""
    target = tuple(int(v) for v in np.atleast_1d(np.asarray(target, dtype=np.int64)))
    terms = [quenched_path_weight(env, p) for p in enumerate_paths(n, env.law.dimension, budget)
             if p.endpoint == target]
    return fsum(terms) if terms else 0.0


def annealed_point_probability(law, n: int, target, budget: int = PATH_BUDGET) -> float:
    """P_0(X_n = target), exact: sum over paths of the exact annealed weight."""
    target = tuple(int(v) for v in np.atleast_1d(np.asarray(target, dtype=np.int64)))
    terms = [annealed_path_weight(law, p) for p in enumerate_paths(n, law.dimension, budget)
             if p.endpoint == target]
    return fsum(terms) if terms else 0.0


def quenched_endpoint_distribution(env: Environment, n: int, budget: int = PATH_BUDGET) -> dict:
    """Endpoint law at time n by enumeration: {site tuple: probability}."""
    out: dict = {}
    for p in enumerate_paths(n, env.law.dimension, budget):
        out[p.endpoint] = out.get(p.endpoint, 0.0) + quenched_path_weight(env, p)
    return out


def forward_evolution(env: Environment, n: int, start=None, tilt=None) -> tuple:
    """The quenched walk's weights after n steps, by scaled forward evolution.

    Returns (grid, lo, log_scale): the weight of site x is
    grid[x - lo] * exp(log_scale) on the box of radius n around ``start``
    (default the origin), whose lower corner is lo. Optional per-direction
    ``tilt`` weights multiply every step in that direction. Rescaling by the
    peak after each step keeps horizons far beyond the enumeration budget in
    floating-point range.
    """
    d = env.law.dimension
    start = np.zeros(d, dtype=np.int64) if start is None else np.asarray(start, dtype=np.int64)
    box = Box(tuple(start - n), tuple(start + n))
    lo = np.asarray(box.lo)
    flows = np.moveaxis(env.dense(box)[0], -1, 0).copy()  # one contiguous slab per direction
    if tilt is not None:
        flows *= np.asarray(tilt, dtype=np.float64).reshape((2 * d,) + (1,) * d)
    moves = []  # (source, destination) slices of the box for each direction
    for vec in direction_vectors(d):
        src = tuple(slice(max(-v, 0), n_ax - max(v, 0)) for v, n_ax in zip(vec, box.shape))
        dst = tuple(slice(max(v, 0), n_ax - max(-v, 0)) for v, n_ax in zip(vec, box.shape))
        moves.append((src, dst))
    grid = np.zeros(box.shape)
    grid[tuple(start - lo)] = 1.0
    new = np.empty_like(grid)
    log_scale = 0.0
    for _ in range(n):
        new.fill(0.0)
        for flow, (src, dst) in zip(flows, moves):
            new[dst] += grid[src] * flow[src]
        peak = float(new.max())
        log_scale += math.log(peak)
        new /= peak
        grid, new = new, grid
    return grid, lo, log_scale


def log_point_probability_dp(env: Environment, n: int, target, start=None) -> float:
    """log P_{start,omega}(X_n = target) by ``forward_evolution``; -inf if unreachable."""
    grid, lo, log_scale = forward_evolution(env, n, start)
    val = float(grid[tuple(np.atleast_1d(np.asarray(target, dtype=np.int64)) - lo)])
    return float("-inf") if val <= 0.0 else log_scale + math.log(val)
