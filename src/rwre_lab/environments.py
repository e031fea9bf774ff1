"""Environment laws on Z^d and their deterministic realizations.

An environment assigns to every lattice site a probability vector over the 2d
nearest-neighbor steps. Both laws are finite-state: state k carries the vector
``table[k]`` and has one-site probability ``weights[k]``, and the means, xi
values and fixed directions (those on which every state's row agrees) come
from that pair alone. ``independent`` says whether distinct sites' omegas
are independent; the estimators read it, never a law's type.

* ``IIDProductLaw``: sites are i.i.d. draws from the weights.
* ``MarkovFieldLaw``: a finite-range Potts-type field sampled by heat-bath
  sweeps on a box (free boundary); its one-site weights are uniform.

``atom_blocks``, on both laws, is the one i.i.d. site sampler: each site is a
pure function of (seed, site) through a counter-based hash, one byte per
site and one double where the byte's range straddles a cut of the weights.
Every realization starts from it; an independent law's is nothing more, and
the heat-bath sweeps read the same hash. ``ray_states`` yields a law's states
along a ray for a block of replicas; the estimators read every ray through it.

A realization (``Environment``) is one array of state indices shaped like its
box, of at most MATERIALIZE_CAP sites whatever the law.

Direction convention used throughout the package: the 2d unit steps are indexed
``[+e1, -e1, +e2, -e2, ...]`` and negation is ``k ^ 1``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numutil import (BudgetError, check_memory, derive_seed, mix64, site_uniforms, site_words,
                      words)

PROB_ATOL = 1e-12
MATERIALIZE_CAP = 10**7
HASH_BLOCK = 4096  # lines a product realization hashes per call, and about the sites of a block
COORD_CAP = 1 << 62


def direction_vectors(d: int) -> np.ndarray:
    """The 2d signed unit vectors, ordered [+e1, -e1, +e2, -e2, ...]."""
    out = np.zeros((2 * d, d), dtype=np.int64)
    for axis in range(d):
        out[2 * axis, axis] = 1
        out[2 * axis + 1, axis] = -1
    return out


def direction_index(vec) -> int:
    """Map a signed unit vector to its direction index."""
    v = np.asarray(vec, dtype=np.int64)
    nz = np.nonzero(v)[0]
    if len(nz) != 1 or abs(int(v[nz[0]])) != 1:
        raise ValueError(f"not a signed unit vector: {vec}")
    axis = int(nz[0])
    return 2 * axis + (0 if v[axis] > 0 else 1)


def validate_prob_vector(p, kappa: float) -> np.ndarray:
    p = np.asarray(p, dtype=np.float64)
    if not np.all(np.isfinite(p)):
        raise ValueError(f"probability vector {p.tolist()} has non-finite entries")
    if abs(p.sum() - 1.0) > PROB_ATOL:
        raise ValueError(f"probabilities sum to {float(p.sum())}, not 1 within {PROB_ATOL}")
    if p.min() <= 0.0 or p.min() < kappa - PROB_ATOL:  # below 1e-12, the tolerance would pass 0
        raise ValueError(f"entry {float(p.min())} below ellipticity floor {kappa}")
    return p


@dataclass(frozen=True)
class Box:
    """Axis-aligned box of lattice sites, inclusive on both ends."""

    lo: tuple
    hi: tuple

    def __post_init__(self):
        lo, hi = tuple(map(int, self.lo)), tuple(map(int, self.hi))
        if any(abs(v) >= COORD_CAP for v in lo + hi):
            raise BudgetError("box exceeds the addressable coordinate range")
        if any(h < l for l, h in zip(lo, hi)):
            raise ValueError("empty box")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def shape(self) -> tuple:
        return tuple(h - l + 1 for l, h in zip(self.lo, self.hi))

    @property
    def n_sites(self) -> int:
        return int(np.prod([h - l + 1 for l, h in zip(self.lo, self.hi)], dtype=object))

    def contains(self, sites) -> np.ndarray:
        s = np.atleast_2d(np.asarray(sites, dtype=np.int64))
        lo = np.asarray(self.lo)
        hi = np.asarray(self.hi)
        return np.all((s >= lo) & (s <= hi), axis=1)

    def expand(self, margin: int) -> "Box":
        return Box(tuple(l - margin for l in self.lo), tuple(h + margin for h in self.hi))


def centered_box(d: int, radius: int) -> Box:
    return Box((-radius,) * d, (radius,) * d)


def _block_rows(width: int) -> int:
    """Rows of ``width`` sites a sampler block holds: a multiple of 8, about HASH_BLOCK sites."""
    return 8 * max(1, HASH_BLOCK // (8 * width))


def check_sites(box: Box, what: str = "realization"):
    """Raise BudgetError, naming ``what``, if ``box`` holds more than MATERIALIZE_CAP sites."""
    if box.n_sites > MATERIALIZE_CAP:
        raise BudgetError(f"{what} of {box.n_sites} sites exceeds cap {MATERIALIZE_CAP}")


class _FiniteLaw:
    """K site states: state k carries the row ``table[k]`` and has weight ``weights[k]`` > 0."""

    def __init__(self, dimension: int, table, weights, kappa: float, coupled: bool = False):
        self.dimension = int(dimension)
        self.kappa = float(kappa)
        if not (0.0 < self.kappa < 1.0 / (2 * self.dimension)):
            raise ValueError("kappa must lie in (0, 1/(2d))")
        table = np.atleast_2d(np.asarray(table, dtype=np.float64))
        for row in table:
            validate_prob_vector(row, self.kappa)
        drawn = weights > 0  # rows of weight 0 are checked above but never drawn: not kept
        self.table, self.weights = table[drawn], weights[drawn]
        self.fixed = np.ptp(self.table, 0) == 0  # (2d,): the directions every state's row agrees on
        self.means = self.weights @ self.table  # E[omega(x, e)] for every direction, exact
        self.xi = self.table / self.means  # per-state ratio omega / E[omega], shape (K, 2d)
        self.independent = not coupled or bool(self.fixed.all())  # one row: no omega is coupled
        # a draw's atom is the number of cuts <= it; byte b's range [b/256, (b+1)/256)
        # straddles a cut when its two ends differ, and such a byte has the code K
        self._cuts = np.cumsum(self.weights)[:-1]
        edges = np.arange(257) / 256
        first = np.searchsorted(self._cuts, edges[:-1], side="right")
        straddles = first != np.searchsorted(self._cuts, edges[1:], side="left")
        self._byte_codes = np.where(straddles, len(self.weights), first).astype(
            np.min_scalar_type(len(self.weights)))

    def atom_blocks(self, seed: int, prefix, lo: int, n: int):
        """Yield the atoms of the sites (prefix[p], x), x = lo .. lo + n - 1, in (rows, P) blocks.

        ``prefix`` is a (P, d - 1) integer array, (1, 0) for d = 1. Site (y, x)
        reads one byte: byte x mod 8, little-endian, of the word
        ``site_words(seed, (y, x div 8))``. Byte b stands for a uniform draw
        in [b/256, (b+1)/256) and is mapped to the atom whose cumulative-weight
        interval holds that whole range. A byte whose range holds a cut takes
        the double u' = ``site_uniforms(seed, (y, x), stream=1)``, and its atom
        is that of the draw (b + u') / 256, compared with the cuts exactly.
        Weights that are multiples of 1/256 leave no such byte; otherwise at
        most K - 1 of the 256 values are, and every atom keeps its weight to
        2**-53. Each prefix is hashed once per call, then each word takes one
        mix64, so a block of ``_block_rows(P)`` rows holds about max(HASH_BLOCK,
        8 P) numbers, and every atom is a pure function of (seed, site).
        """
        prefix = np.asarray(prefix, dtype=np.int64)
        keys, rows = site_words(seed, prefix), _block_rows(len(prefix))
        for t in range(lo, lo + n, rows):
            m = min(rows, lo + n - t)
            # the word of (y, x div 8) is mix64(key_y ^ (x div 8)), and its bytes are 8 sites
            at = np.arange(t // 8, (t + m - 1) // 8 + 1).astype(np.uint64)
            word = mix64(keys[:, None] ^ at).astype("<u8", copy=False)
            drawn = word.view(np.uint8)[:, t % 8:t % 8 + m].T
            atoms = np.take(self._byte_codes, drawn)
            # a flat nonzero is far cheaper than a 2-D one
            step, col = np.divmod(np.flatnonzero(atoms == len(self.weights)), len(prefix))
            if step.size:
                sites = np.column_stack([prefix[col], t + step])
                u = site_uniforms(seed, sites, stream=1)
                # (b + u') / 256 >= cut iff u' >= 256 * cut - b, which rounds nothing
                edge = 256 * self._cuts - drawn[step, col, None]
                atoms[step, col] = np.count_nonzero(u[:, None] >= edge, axis=1)
            yield atoms

    def ray_states(self, seed: int, ell: int, replicas, n: int):
        """Yield the states of replicas x steps t < n in (``_block_rows(R)``, R) time blocks.

        Replica i at step t is the site (i, t) of ``atom_blocks``, whatever
        the direction ``ell``.
        """
        return self.atom_blocks(seed, np.asarray(replicas)[:, None], 0, n)


class IIDProductLaw(_FiniteLaw):
    """Finite-atom product law: each site independently draws one atom.

    Parameters
    ----------
    dimension : lattice dimension d >= 1.
    atoms : array-like (K, 2d), each row a probability vector over directions;
        every row is validated, and those of positive weight are ``table``.
    weights : array-like (K,), mixture weights summing to 1.
    kappa : declared ellipticity floor; every atom entry must be >= kappa.
    """

    def __init__(self, dimension: int, atoms, weights, kappa: float):
        weights = np.asarray(weights, dtype=np.float64)
        if weights.ndim != 1 or len(weights) != len(np.atleast_2d(atoms)):
            raise ValueError("weights must align with atoms")
        if (not np.all(np.isfinite(weights)) or abs(weights.sum() - 1.0) > PROB_ATOL
                or weights.min() < 0):
            raise ValueError("weights must form a probability vector")
        super().__init__(dimension, atoms, weights, kappa)
        hi = 1.0 - (2 * self.dimension - 1) * self.kappa
        if self.means.min() < self.kappa - PROB_ATOL or self.means.max() > hi + PROB_ATOL:
            raise ValueError("marginal means outside [kappa, 1-(2d-1)kappa]")


class MarkovFieldLaw(_FiniteLaw):
    """Finite-range Potts-type field pushed through a state map.

    The hidden field takes values in {0, ..., S-1} with conditional law at a
    site proportional to exp(beta * #{neighbors within l1-distance range_r in
    the same state}); missing neighbors outside the sampling box are dropped
    (free boundary). Site x then carries the probability vector
    ``table[sigma_x]``, given as ``state_probs``. At beta = 0, or with equal
    state rows, its omegas are independent and it realizes exactly what the
    product law of its rows at weights 1/S does.

    The one-site weights are 1/S at every beta: the Potts interaction, the
    uniform start and the heat-bath kernel are all invariant under
    relabelling the states, so after any number of sweeps every site of any
    box is uniform over the S states. The means are therefore the
    closed-form average of the state map.
    """

    def __init__(self, dimension: int, state_probs, kappa: float, range_r: int = 1,
                 beta: float = 0.0, sweeps: int = 64):
        self.range_r = int(range_r)
        self.beta = float(beta)
        self.sweeps = int(sweeps)
        if not self.beta >= 0 or math.isinf(self.beta):
            raise ValueError("interaction strength must be finite and >= 0")
        k = len(np.atleast_2d(state_probs))
        super().__init__(dimension, state_probs, np.full(k, 1.0 / k), kappa, self.beta > 0.0)

    def ray_states(self, seed: int, ell: int, replicas, n: int):
        """The states of replicas x ray sites t * ell, t < n, in (``_block_rows(R)``, R) blocks.

        An independent field's are its product law's. Otherwise replica i is
        realized on the ray box from derive_seed(seed, i) by
        ``sample_environment``. The (n, R) states are held at one byte each
        for at most 256 states; BudgetError is raised before the first
        realization when they would exceed MEMORY_BUDGET.
        """
        if self.independent:
            return super().ray_states(seed, ell, replicas, n)
        dtype = np.min_scalar_type(len(self.table) - 1)
        check_memory(dtype.itemsize * len(replicas) * n, f"{len(replicas)} x {n} ray states")
        end = (n - 1) * direction_vectors(self.dimension)[ell]
        box = Box(tuple(np.minimum(end, 0)), tuple(np.maximum(end, 0)))
        states = np.empty((n, len(replicas)), dtype=dtype)
        for j, i in enumerate(replicas):
            line = sample_environment(self, derive_seed(seed, int(i)), box).states.reshape(-1)
            states[:, j] = line if ell % 2 == 0 else line[::-1]  # -e_i runs from hi down
        rows = _block_rows(len(replicas))
        return (states[t:t + rows] for t in range(0, n, rows))

    def _neighbor_offsets(self) -> np.ndarray:
        offs = words(2 * self.range_r + 1, self.dimension) - self.range_r
        dist = np.abs(offs).sum(axis=1)
        return offs[(dist > 0) & (dist <= self.range_r)]


class Environment:
    """A realized environment: the state index of every site of ``box``.

    ``states`` is a read-only array of state indices shaped like the box, of
    the smallest unsigned type that holds them, and site x carries the
    probability vector ``law.table[states[x - box.lo]]``.
    """

    def __init__(self, law, box: Box, states: np.ndarray):
        self.law = law
        self.box = box
        self.states = states
        self.states.setflags(write=False)

    def omega_many(self, sites) -> np.ndarray:
        """Probability vectors at the given sites, shape (n, 2d).

        The sites lie in the box iff each axis's extremes do, which one pass
        down each column finds: a reduction across the short rows of an (n, d)
        batch costs ten times as much, and so is the flat index built. Only a
        batch that leaves the box is checked site by site, to name the first.
        """
        sites = np.atleast_2d(np.asarray(sites, dtype=np.int64))
        cols = sites.T
        if len(sites) and any(col.min() < lo or col.max() > hi
                              for col, lo, hi in zip(cols, self.box.lo, self.box.hi)):
            bad = sites[~self.box.contains(sites)][0]
            raise ValueError(f"site {tuple(int(v) for v in bad)} outside realized region")
        flat = cols[0] - self.box.lo[0]
        for col, lo, size in zip(cols[1:], self.box.lo[1:], self.box.shape[1:]):
            flat *= size
            flat += col - lo
        # np.take gathers whole rows, where fancy indexing costs eight times as much
        return np.take(self.law.table, self.states.reshape(-1)[flat], axis=0)


def sample_environment(law, seed: int, region: Box) -> Environment:
    """Realize an environment on ``region`` from (law, seed).

    Every law starts from the product realization of its one-site weights
    by ``atom_blocks``, one line along the last axis per prefix of the
    other coordinates; that is all of an independent law's. A coupled field
    starts so on the region expanded by max(range, 5) sites
    and runs ``law.sweeps`` heat-bath sweeps there, each residue class mod
    (range + 1) in turn by strided slices: in sweep s, site x inverts its
    conditional law at ``site_uniforms(seed, (*x, s), stream=2)``. The box
    either kind materializes is held to MATERIALIZE_CAP sites.
    """
    work = region if law.independent else region.expand(max(law.range_r, 5))  # sweeps need a buffer
    check_sites(work)
    # lines along the last axis, at most HASH_BLOCK of them per call, so the
    # scratch of a block stays small whatever the box
    *head, n = shape = work.shape
    prefix = np.indices(head).reshape(len(head), math.prod(head)).T + work.lo[:-1]
    states = np.empty((len(prefix), n), dtype=np.min_scalar_type(len(law.table) - 1))
    for p in range(0, len(prefix), HASH_BLOCK):
        lines = prefix[p:p + HASH_BLOCK]
        t = 0
        for atoms in law.atom_blocks(seed, lines, work.lo[-1], n):
            states[p:p + len(lines), t:t + len(atoms)] = atoms.T
            t += len(atoms)
    if law.independent:
        return Environment(law, region, states.reshape(shape))

    # Two distinct sites of one residue class are at l1 distance > range, so
    # updating a whole class at once is still a valid single-site sampler.
    # ``inside`` views the box in the padded states, ``near`` the box shifted by each offset.
    pad, k = law.range_r, len(law.table)
    padded = np.full([m + 2 * pad for m in shape], k, np.min_scalar_type(k))
    inside, *near = (padded[tuple(slice(pad + o, pad + o + m) for o, m in zip(off, shape))]
                     for off in [(0,) * len(shape)] + law._neighbor_offsets().tolist())
    inside[...] = states.reshape(shape)
    # the sites are hashed once, by the prefix rule; a sweep takes one mix64 a site
    last = np.arange(work.lo[-1], work.hi[-1] + 1).astype(np.uint64)
    keys = mix64(site_words(seed, prefix, stream=2)[:, None] ^ last).reshape(shape)
    for s in range(law.sweeps):
        u = (mix64(keys ^ np.uint64(s)) >> np.uint64(11)) * 2.0**-53  # site_uniforms' top bits
        for cls in words(pad + 1, law.dimension).tolist():
            at = tuple(slice(c, None, pad + 1) for c in cls)
            counts = sum(np.equal.outer(range(k), view[at]) for view in near)
            w = np.exp(law.beta * (counts - counts.max(axis=0)))
            cum = w / w.sum(axis=0)
            for j in range(1, k):  # np.cumsum's sums, at a quarter of its time on axis 0
                cum[j] += cum[j - 1]
            inside[at] = (u[at] >= cum).sum(axis=0).clip(max=k - 1)
    crop = tuple(slice(l - o, h - o + 1) for l, h, o in zip(region.lo, region.hi, work.lo))
    return Environment(law, region, inside[crop].astype(states.dtype))
