"""Environment laws on Z^d and their deterministic realizations.

An environment assigns to every lattice site a probability vector over the 2d
nearest-neighbor steps. Two families of laws are provided:

* ``IIDProductLaw``: sites are i.i.d. draws from a finite set of atoms. A
  realization is a pure function of (seed, site) through a counter-based hash,
  so arbitrarily far sites can be looked up without materializing anything.
* ``MarkovFieldLaw``: a finite-range Potts-type field sampled by heat-bath
  sweeps on a box (free boundary), pushed through a state map to probability
  vectors. At interaction strength 0 the sites are i.i.d. uniform over states.

Direction convention used throughout the package: the 2d unit steps are indexed
``[+e1, -e1, +e2, -e2, ...]`` and negation is ``k ^ 1``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .numutil import BudgetError, derive_seed, site_uniforms

PROB_ATOL = 1e-12
MATERIALIZE_CAP = 10**7
ENUM_CONFIG_CAP = 2 * 10**6
COORD_CAP = 1 << 62


def direction_vectors(d: int) -> np.ndarray:
    """The 2d signed unit vectors, ordered [+e1, -e1, +e2, -e2, ...]."""
    if d < 1:
        raise ValueError("dimension must be >= 1")
    out = np.zeros((2 * d, d), dtype=np.int64)
    for axis in range(d):
        out[2 * axis, axis] = 1
        out[2 * axis + 1, axis] = -1
    return out


def opposite(k: int) -> int:
    """Index of the negated direction; an involution pairing e with -e."""
    return k ^ 1


def direction_index(vec) -> int:
    """Map a signed unit vector to its direction index."""
    v = np.asarray(vec, dtype=np.int64)
    nz = np.nonzero(v)[0]
    if len(nz) != 1 or abs(int(v[nz[0]])) != 1:
        raise ValueError(f"not a signed unit vector: {vec}")
    axis = int(nz[0])
    return 2 * axis + (0 if v[axis] > 0 else 1)


def validate_prob_vector(p, kappa: float, d: int) -> np.ndarray:
    p = np.asarray(p, dtype=np.float64)
    if p.shape != (2 * d,):
        raise ValueError(f"probability vector must have length {2 * d}, got shape {p.shape}")
    if abs(p.sum() - 1.0) > PROB_ATOL:
        raise ValueError(f"probabilities sum to {p.sum()!r}, not 1 within {PROB_ATOL}")
    if p.min() < kappa - PROB_ATOL:
        raise ValueError(f"entry {p.min()!r} below ellipticity floor {kappa}")
    return p


@dataclass(frozen=True)
class Box:
    """Axis-aligned box of lattice sites, inclusive on both ends."""

    lo: tuple
    hi: tuple

    def __post_init__(self):
        lo = tuple(int(v) for v in np.atleast_1d(np.asarray(self.lo, dtype=object)))
        hi = tuple(int(v) for v in np.atleast_1d(np.asarray(self.hi, dtype=object)))
        if len(lo) != len(hi) or not lo:
            raise ValueError("box corners must be 1-d and of equal length")
        if any(abs(v) >= COORD_CAP for v in lo + hi):
            raise BudgetError("box exceeds the addressable coordinate range")
        if any(h < l for l, h in zip(lo, hi)):
            raise ValueError("empty box")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def dimension(self) -> int:
        return len(self.lo)

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

    def all_sites(self) -> np.ndarray:
        axes = [np.arange(l, h + 1, dtype=np.int64) for l, h in zip(self.lo, self.hi)]
        grid = np.meshgrid(*axes, indexing="ij")
        return np.stack([g.ravel() for g in grid], axis=1)


def centered_box(d: int, radius: int) -> Box:
    return Box((-radius,) * d, (radius,) * d)


class IIDProductLaw:
    """Finite-atom product law: each site independently draws one atom.

    Parameters
    ----------
    dimension : lattice dimension d >= 1.
    atoms : array-like (K, 2d), each row a probability vector over directions.
    weights : array-like (K,), mixture weights summing to 1.
    kappa : declared ellipticity floor; every atom entry must be >= kappa.
    """

    def __init__(self, dimension: int, atoms, weights, kappa: float):
        self.dimension = int(dimension)
        self.kappa = float(kappa)
        atoms = np.atleast_2d(np.asarray(atoms, dtype=np.float64))
        weights = np.asarray(weights, dtype=np.float64)
        if weights.ndim != 1 or len(weights) != len(atoms):
            raise ValueError("weights must align with atoms")
        if abs(weights.sum() - 1.0) > PROB_ATOL or weights.min() < 0:
            raise ValueError("weights must form a probability vector")
        if not (0.0 < self.kappa < 1.0 / (2 * self.dimension)):
            raise ValueError("kappa must lie in (0, 1/(2d))")
        for row in atoms:
            validate_prob_vector(row, self.kappa, self.dimension)
        self.atoms = atoms
        self.weights = weights
        self._cum = np.cumsum(weights)
        means = weights @ atoms
        hi = 1.0 - (2 * self.dimension - 1) * self.kappa
        if means.min() < self.kappa - PROB_ATOL or means.max() > hi + PROB_ATOL:
            raise ValueError("marginal means outside [kappa, 1-(2d-1)kappa]")
        self._means = means

    def marginal_means(self) -> np.ndarray:
        """E[omega(0, e)] for every direction, exact."""
        return self._means.copy()

    def marginal_mean(self, e: int) -> float:
        return float(self._means[e])

    def disorder(self) -> float:
        """sup over the support of |omega(x,e)/E[omega(x,e)] - 1|."""
        ratios = self.atoms / self._means
        return float(np.max(np.abs(ratios - 1.0)))

    def xi_values(self) -> np.ndarray:
        """Per-atom ratio omega/E[omega], shape (K, 2d)."""
        return self.atoms / self._means

    def atom_indices(self, seed: int, sites) -> np.ndarray:
        """Deterministic atom choice per site via the counter-based hash."""
        u = site_uniforms(seed, np.atleast_2d(np.asarray(sites, dtype=np.int64)))
        return np.searchsorted(self._cum, u, side="right").clip(max=len(self.weights) - 1)


class MarkovFieldLaw:
    """Finite-range Potts-type field pushed through a state map.

    The hidden field takes values in {0, ..., S-1} with conditional law at a
    site proportional to exp(beta * #{neighbors within l1-distance range_r in
    the same state}); missing neighbors outside the sampling box are dropped
    (free boundary). Site x then carries the probability vector
    ``state_probs[sigma_x]``. beta = 0 makes sites i.i.d. uniform over states.

    The mixing constants ``smx_constants`` are carried as declared metadata
    only; nothing here certifies them.
    """

    def __init__(self, dimension: int, state_probs, kappa: float, range_r: int = 1,
                 beta: float = 0.0, sweeps: int = 64, smx_constants: dict | None = None):
        self.dimension = int(dimension)
        self.kappa = float(kappa)
        self.range_r = int(range_r)
        self.beta = float(beta)
        self.sweeps = int(sweeps)
        self.smx_constants = dict(smx_constants or {})
        if self.range_r < 1:
            raise ValueError("range must be >= 1")
        if self.beta < 0:
            raise ValueError("interaction strength must be >= 0")
        if self.sweeps < 1:
            raise ValueError("sweeps must be >= 1")
        if not (0.0 < self.kappa < 1.0 / (2 * self.dimension)):
            raise ValueError("kappa must lie in (0, 1/(2d))")
        probs = np.atleast_2d(np.asarray(state_probs, dtype=np.float64))
        for row in probs:
            validate_prob_vector(row, self.kappa, self.dimension)
        self.state_probs = probs
        self.n_states = len(probs)
        self._means: np.ndarray | None = None

    def _neighbor_offsets(self) -> np.ndarray:
        rng = range(-self.range_r, self.range_r + 1)
        offs = [off for off in itertools.product(rng, repeat=self.dimension)
                if 0 < sum(abs(o) for o in off) <= self.range_r]
        return np.asarray(offs, dtype=np.int64)

    def gibbs_configurations(self, box: Box):
        """Exact field measure on a small box: yields (states, probability).

        Enumerates all S^n configurations; guarded by a joint budget because
        the count explodes quickly.
        """
        n = box.n_sites
        if self.n_states > 8 or n > 16 or self.n_states**n > ENUM_CONFIG_CAP:
            raise BudgetError(
                f"exact field enumeration needs S<=8, sites<=16 and S^sites<={ENUM_CONFIG_CAP}")
        sites = box.all_sites()
        index = {tuple(s): i for i, s in enumerate(sites)}
        offsets = self._neighbor_offsets()
        pairs = []
        for i, s in enumerate(sites):
            for off in offsets:
                j = index.get(tuple(s + off))
                if j is not None and j > i:
                    pairs.append((i, j))
        configs = np.asarray(list(itertools.product(range(self.n_states), repeat=n)), dtype=np.int64)
        energy = np.zeros(len(configs))
        for i, j in pairs:
            energy += (configs[:, i] == configs[:, j]).astype(np.float64)
        logw = self.beta * energy
        logw -= logw.max()
        w = np.exp(logw)
        w /= w.sum()
        return configs, sites, w

    def marginal_means(self) -> np.ndarray:
        """E[omega(0, e)] per direction, computed once.

        Exact when the field enumeration admits the centered box of radius
        ``range``: the center-site marginal on the largest such box. Otherwise
        the Monte Carlo average of ``marginal_means_mc`` at its defaults.
        """
        if self._means is None:
            try:
                self._means = self._means_exact()
            except BudgetError:
                self._means = self.marginal_means_mc()[0]
        return self._means.copy()

    def _means_exact(self) -> np.ndarray:
        # largest centered box with S^sites under budget, radius at least range_r
        radius = self.range_r
        while True:
            cand = centered_box(self.dimension, radius + 1)
            if cand.n_sites > 16 or self.n_states**cand.n_sites > ENUM_CONFIG_CAP:
                break
            radius += 1
        configs, sites, w = self.gibbs_configurations(centered_box(self.dimension, radius))
        center = int(np.where((sites == 0).all(axis=1))[0][0])
        means = np.zeros(2 * self.dimension)
        for s in range(self.n_states):
            means += w[configs[:, center] == s].sum() * self.state_probs[s]
        return means

    def marginal_means_mc(self, box: Box | None = None, replicas: int = 2000,
                          seed: int = 0) -> tuple:
        """Monte Carlo marginal means with standard errors, shape (2d,) each."""
        box = box or centered_box(self.dimension, max(self.range_r * 2, 3))
        vals = np.empty((replicas, 2 * self.dimension))
        origin = np.zeros((1, self.dimension), dtype=np.int64)
        for r in range(replicas):
            env = sample_environment(self, derive_seed(seed, r), box)
            vals[r] = env.omega_many(origin)[0]
        return vals.mean(axis=0), vals.std(axis=0, ddof=1) / math.sqrt(replicas)

    def disorder(self) -> float:
        """sup over the state-map image of |omega/E[omega] - 1|; exact means required."""
        means = self._means_exact()
        return float(np.max(np.abs(self.state_probs / means - 1.0)))


class Environment:
    """A realized environment: deterministic map site -> probability vector.

    Lookups are read-only and shareable; identical (law, seed, site) always
    produce identical values.
    """

    def __init__(self, law, seed: int, box: Box, _states: np.ndarray | None = None,
                 _state_box: Box | None = None):
        self.law = law
        self.seed = int(seed)
        self.box = box
        self._states = _states
        self._state_box = _state_box

    def _check(self, sites: np.ndarray):
        if not self.box.contains(sites).all():
            bad = np.atleast_2d(sites)[~self.box.contains(sites)][0]
            raise ValueError(f"site {tuple(int(v) for v in bad)} outside realized region")

    def omega_many(self, sites) -> np.ndarray:
        """Probability vectors at the given sites, shape (n, 2d)."""
        sites = np.atleast_2d(np.asarray(sites, dtype=np.int64))
        self._check(sites)
        if isinstance(self.law, IIDProductLaw):
            idx = self.law.atom_indices(self.seed, sites)
            return self.law.atoms[idx]
        lo = np.asarray(self._state_box.lo)
        flat = np.ravel_multi_index((sites - lo).T, self._state_box.shape)
        return self.law.state_probs[self._states.ravel()[flat]]

    def omega(self, site) -> np.ndarray:
        return self.omega_many(site)[0]

    def dense(self, box: Box | None = None) -> tuple:
        """Materialize (values, lo) with values shaped box.shape + (2d,)."""
        box = box or self.box
        if box.n_sites > MATERIALIZE_CAP:
            raise BudgetError(f"dense region of {box.n_sites} sites exceeds cap {MATERIALIZE_CAP}")
        vals = self.omega_many(box.all_sites())
        return vals.reshape(box.shape + (2 * self.law.dimension,)), np.asarray(box.lo)


def sample_environment(law, seed: int, region: Box) -> Environment:
    """Realize an environment on ``region`` from (law, seed).

    IID product laws are realized lazily per site. Markov fields run
    ``law.sweeps`` heat-bath sweeps on the region expanded by a buffer of
    max(range, 5) sites, then map field states through the state map.
    """
    if region.dimension != law.dimension:
        raise ValueError("region dimension does not match law dimension")
    if isinstance(law, IIDProductLaw):
        return Environment(law, seed, region)
    if not isinstance(law, MarkovFieldLaw):
        raise TypeError(f"unsupported law type {type(law)!r}")

    work = region.expand(max(law.range_r, 5))
    if work.n_sites > MATERIALIZE_CAP:
        raise BudgetError(f"field realization of {work.n_sites} sites exceeds cap {MATERIALIZE_CAP}")
    shape = work.shape
    sites = work.all_sites()
    u0 = site_uniforms(seed, sites, stream=1)
    states = np.minimum((u0 * law.n_states).astype(np.int64), law.n_states - 1).reshape(shape)

    if law.beta == 0.0:
        # no coupling: the uniform initialization is already the field law
        return Environment(law, seed, region, _states=states, _state_box=work)

    # Heat-bath sweeps, vectorized over residue classes mod (range + 1): two
    # distinct sites in one class are at l1 distance > range, so updating a
    # whole class at once is still a valid single-site sampler. The class
    # scan order and one rng draw per class per sweep keep this deterministic.
    offsets = law._neighbor_offsets()
    rng = np.random.default_rng(derive_seed(seed, 2))
    d = law.dimension
    pad = law.range_r
    padded = np.full(tuple(s + 2 * pad for s in shape), -1, dtype=np.int64)
    core = tuple(slice(pad, pad + s) for s in shape)
    padded[core] = states
    step = law.range_r + 1
    classes = list(itertools.product(range(step), repeat=d))
    class_axes = [[np.arange(c, s, step) + pad for c, s in zip(cls, shape)] for cls in classes]
    for _ in range(law.sweeps):
        for axes in class_axes:
            if any(len(ax) == 0 for ax in axes):
                continue
            counts = np.zeros((law.n_states,) + tuple(len(ax) for ax in axes))
            for off in offsets:
                nb = padded[np.ix_(*[ax + o for ax, o in zip(axes, off)])]
                for s in range(law.n_states):
                    counts[s] += nb == s
            w = np.exp(law.beta * (counts - counts.max(axis=0)))
            cum = np.cumsum(w / w.sum(axis=0), axis=0)
            u = rng.random(counts.shape[1:])
            new = (u[None, ...] >= cum).sum(axis=0).clip(max=law.n_states - 1)
            padded[np.ix_(*axes)] = new
    return Environment(law, seed, region, _states=padded[core].copy(), _state_box=work)


def constant_law(dimension: int, prob, kappa: float) -> IIDProductLaw:
    """Single-atom law: the deterministic environment equal to ``prob`` everywhere."""
    return IIDProductLaw(dimension, [prob], [1.0], kappa)


def mean_environment(law, region: Box) -> Environment:
    """Deterministic environment whose every site equals the marginal means."""
    means = law.marginal_means()
    return sample_environment(constant_law(law.dimension, means, min(law.kappa, means.min())),
                              0, region)
