"""Product decomposition of the auxiliary walk with forcing symbols.

The auxiliary walk with step law u is rewritten as a two-layer mechanism: an
i.i.d. symbol sequence over the alphabet {directions} + {free}, where each
direction symbol carries probability kbar and forces the walk to take that
step, and the free symbol (probability 1 - 2d*kbar) lets the walk move with
the leftover law (u(e) - kbar) / (1 - 2d*kbar). The per-step marginal is u
again, so the two mechanisms generate identical walk laws; the point of the
rewrite is that runs of forced symbols create stretches where the walk moves
deterministically, which the stopping machinery below exploits.

``psi_factor`` is the per-step reweighting that restores the environment
dependence inside the decomposed mechanism; its defining property, checked by
exact enumeration in the tests, is that summing it against the symbol and step
laws reproduces u(e) * xi(x, e). ``sample_ray_block_values`` samples stopped
blocks on a ray over synchronous streams, the same pattern as
``sample_tau_batch``; it is the Monte Carlo cross-check of the exact run-length
recursion in the estimators.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .environments import Environment, direction_index
from .numutil import BudgetError, fsum
from .tilting import TiltParams
from .walks import enumerate_paths, path_sites, realized_log_xi, step_matrix

TAU_HORIZON = 10**7


@dataclass(frozen=True)
class EpsilonLaw:
    """Product law of the forcing symbols.

    Each of the 2d direction symbols has probability kbar; the free symbol has
    probability 1 - 2d*kbar. Validity against a step law u (0 < kbar < min u,
    2d*kbar < 1, both strict) is checked by ``validate_against``.
    """

    kbar: float
    dimension: int

    def __post_init__(self):
        if not (0.0 < self.kbar and 2 * self.dimension * self.kbar < 1.0):
            raise ValueError(f"kbar = {self.kbar} must satisfy 0 < 2d*kbar < 1")

    @property
    def free_symbol(self) -> int:
        return 2 * self.dimension

    @property
    def free_prob(self) -> float:
        return 1.0 - 2 * self.dimension * self.kbar

    def symbol_probs(self) -> np.ndarray:
        """Probabilities over the alphabet, directions first, free last."""
        out = np.full(2 * self.dimension + 1, self.kbar)
        out[-1] = self.free_prob
        return out

    def validate_against(self, tp: TiltParams):
        if self.dimension != tp.dimension:
            raise ValueError("dimension mismatch")
        if self.kbar >= tp.c_z:
            raise ValueError(f"kbar = {self.kbar} must be < min_e u(e) = {tp.c_z}")


def default_kbar(tp: TiltParams) -> float:
    """min(1/(4d), min_e u(e)/2): keeps both strictness constraints with margin."""
    return min(1.0 / (4 * tp.dimension), tp.c_z / 2.0)


def make_epsilon_law(tp: TiltParams, kbar: float | None = None) -> EpsilonLaw:
    eps = EpsilonLaw(default_kbar(tp) if kbar is None else float(kbar), tp.dimension)
    eps.validate_against(tp)
    return eps


@dataclass(frozen=True)
class StoppingConfig:
    """Block length L and the forced direction for run completion."""

    L: int
    ell: int  # direction index

    def __post_init__(self):
        if self.L < 1:
            raise ValueError("L must be >= 1")
        if self.ell < 0:
            raise ValueError("ell must be a direction index")

    @classmethod
    def from_vector(cls, L: int, ell_vec) -> "StoppingConfig":
        return cls(int(L), direction_index(ell_vec))


def validate_stopping(tp: TiltParams, cfg: StoppingConfig):
    """The forced direction must have positive projection on the drift."""
    from .environments import direction_vectors

    zdot = float(direction_vectors(tp.dimension)[cfg.ell] @ np.asarray(tp.z))
    if zdot <= 0.0:
        raise ValueError(f"<z, ell> = {zdot} must be > 0")


def conditional_step_probs(tp: TiltParams, eps: EpsilonLaw, symbol: int) -> np.ndarray:
    """Step law given one symbol: forced for directions, leftover for free."""
    d = tp.dimension
    if symbol < 2 * d:
        out = np.zeros(2 * d)
        out[symbol] = 1.0
        return out
    return (tp.u_array - eps.kbar) / eps.free_prob


def _kbar_of(eps) -> float:
    """The per-symbol success probability; accepts an EpsilonLaw or a bare float.

    The waiting-time machinery only depends on this probability, so it also
    serves rates that no symbol alphabet of any dimension can carry.
    """
    k = eps.kbar if isinstance(eps, EpsilonLaw) else float(eps)
    if not (0.0 < k < 1.0):
        raise ValueError(f"success probability {k} must lie in (0, 1)")
    return k


def expected_tau(eps, cfg: StoppingConfig) -> float:
    """Expected symbols until the first run of L forced-ell symbols completes.

    Closed form (kbar^-L - 1) / (1 - kbar) for a run of L successes of
    probability kbar each.
    """
    k = _kbar_of(eps)
    return (k**-cfg.L - 1.0) / (1.0 - k)


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


def tau_survival(eps, cfg: StoppingConfig, horizon: int) -> np.ndarray:
    """P(tau_1 > t) for t = 0..horizon, exact via the run-length chain."""
    chain = _survival_chain(_kbar_of(eps), cfg.L)
    return np.fromiter(itertools.islice(chain, horizon + 1), dtype=np.float64,
                       count=horizon + 1)


def choose_horizon(eps: EpsilonLaw, cfg: StoppingConfig, tail: float = 1e-4,
                   cap: int = TAU_HORIZON) -> int:
    """Smallest H with P(tau_1 > H) < tail, by one forward scan of the exact tail."""
    for t, surv in enumerate(_survival_chain(_kbar_of(eps), cfg.L)):
        if surv < tail:
            return t
        if t >= cap:
            break
    raise BudgetError(f"tau tail stays above {tail} within the {cap}-symbol cap")


def sample_tau_batch(eps, cfg: StoppingConfig, n: int, rng,
                     horizon: int = TAU_HORIZON) -> np.ndarray:
    """n independent run-completion times, vectorized over a synchronous stream."""
    k = _kbar_of(eps)
    L = cfg.L
    tau = np.zeros(n, dtype=np.int64)
    active = np.arange(n)
    run = np.zeros(n, dtype=np.int32)
    t = 0
    while active.size:
        t += 1
        if t > horizon:
            raise BudgetError(f"{active.size} streams unfinished within {horizon} symbols")
        hit = rng.random(active.size) < k
        r = np.where(hit, run[active] + 1, 0)
        done = r >= L
        tau[active[done]] = t
        run[active] = r
        if done.any():
            active = active[~done]
    return tau


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


def psi_factor(tp: TiltParams, eps: EpsilonLaw, xi, step):
    """Free-symbol reweighting xi + kbar/(u(step) - kbar) * (xi - 1).

    xi = omega(x, step) / E[omega(0, step)] at the departure site x; a forced
    symbol contributes the bare indicator that the step matches it, which the
    conditional step law already carries. Works elementwise on arrays of xi and
    steps.
    """
    denom = tp.u_array[step] - eps.kbar
    if np.any(denom <= 0.0):
        raise ValueError(f"u(step) - kbar = {np.min(denom)} must be positive")
    return xi + eps.kbar / denom * (xi - 1.0)


def verify_psi_identity(tp: TiltParams, eps: EpsilonLaw, env: Environment, theta,
                        n: int, budget: int = 10**7) -> tuple:
    """Both sides of the reweighting identity by exact joint enumeration.

    lhs sums over all (symbol sequence, path) pairs the product of symbol
    probabilities, conditional step probabilities, psi factors and the tilt
    exp(<theta, Z_n>); rhs is the plain auxiliary-walk expectation of
    exp(<theta, Z_n>) times the realized xi-product.
    """
    d = tp.dimension
    n_sym = 2 * d + 1
    if (n_sym**n) * ((2 * d) ** n) > budget:
        raise BudgetError(f"(2d+1)^n * (2d)^n exceeds budget {budget}")
    theta = np.asarray(theta, dtype=np.float64)
    u = tp.u_array
    means = tp.means_array
    # symbol probability times conditional step probability, (2d, n_sym)
    joint = (eps.symbol_probs()[:, None]
             * np.stack([conditional_step_probs(tp, eps, s) for s in range(n_sym)])).T
    sym_matrix = _symbol_matrix(n_sym, n)
    psi = np.ones((n, n_sym))
    all_steps = step_matrix(n, d)
    flat, ends = path_sites(all_steps, d)
    all_xi = np.exp(realized_log_xi(env, means, n)[flat, all_steps])

    lhs_terms = []
    rhs_terms = []
    for steps, end, xi in zip(all_steps, ends, all_xi):
        tiltw = math.exp(float(theta @ end))
        # rhs: plain auxiliary-walk weight times realized xi-product
        rhs_terms.append(float(np.prod(u[steps])) * tiltw * float(np.prod(xi)))
        # lhs: sum over all symbol sequences of U * conditional chain * psi
        psi[:, -1] = psi_factor(tp, eps, xi, steps)
        per_step = joint[steps] * psi
        seq_weights = np.prod(per_step[np.arange(n)[None, :], sym_matrix], axis=1)
        lhs_terms.append(fsum(seq_weights) * tiltw)
    return fsum(lhs_terms), fsum(rhs_terms)


def qz_endpoint_distribution(tp: TiltParams, n: int) -> dict:
    """Endpoint law of the auxiliary walk by path enumeration."""
    out: dict = {}
    u = tp.u_array
    for path in enumerate_paths(n, tp.dimension):
        out[path.endpoint] = out.get(path.endpoint, 0.0) + float(np.prod(u[list(path.steps)]))
    return out


def _symbol_matrix(n_sym: int, n: int) -> np.ndarray:
    grids = np.meshgrid(*([np.arange(n_sym)] * n), indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


def decomposed_endpoint_distribution(tp: TiltParams, eps: EpsilonLaw, n: int,
                                     budget: int = 10**7) -> dict:
    """Endpoint law of the decomposed mechanism by joint enumeration.

    Must coincide with ``qz_endpoint_distribution``; the marginal per step is
    kbar + free_prob * (u(e) - kbar)/free_prob = u(e), but this function does
    not use that simplification.
    """
    d = tp.dimension
    n_sym = 2 * d + 1
    if (n_sym**n) * ((2 * d) ** n) > budget:
        raise BudgetError(f"joint enumeration exceeds budget {budget}")
    sym_probs = eps.symbol_probs()
    cond = np.stack([conditional_step_probs(tp, eps, s) for s in range(n_sym)])
    sym_matrix = _symbol_matrix(n_sym, n)
    out: dict = {}
    for path in enumerate_paths(n, d):
        steps = np.asarray(path.steps)
        per_step = sym_probs[:, None] * cond[:, steps]  # (n_sym, n)
        seq_weights = np.prod(per_step[sym_matrix, np.arange(n)[None, :]], axis=1)
        out[path.endpoint] = out.get(path.endpoint, 0.0) + fsum(seq_weights)
    return out
