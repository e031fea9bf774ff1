"""Product decomposition of the auxiliary walk with forcing symbols.

The auxiliary walk with step law u is rewritten as a two-layer mechanism: an
i.i.d. symbol sequence over the alphabet {directions} + {free}, where each
direction symbol carries probability kbar and forces the walk to take that
step, and the free symbol (probability 1 - 2d*kbar) lets the walk move with
the leftover law (u(e) - kbar) / (1 - 2d*kbar). The per-step marginal is u
again, so the two mechanisms generate identical walk laws; the point of the
rewrite is that runs of forced symbols create stretches where the walk moves
deterministically, which the stopping machinery below exploits.

Blocks end at tau, the first time a run of L forced-ell symbols completes.
Its law has the closed-form mean ``expected_tau`` and standard deviation
``tau_sd``, and an exact tail from the L x L transfer of the run-length
chain (``_run_length_transfer``), tabled once by ``_tail_blocks``:
``choose_horizon`` scans that table for the horizon, and
``sample_tau_batch`` draws tau by inverting it at one uniform of the
counter-based site hash per draw, so draw i is a function of (seed, i).

The reweighting ``psi_factor`` that restores the environment dependence
inside the decomposed mechanism, and the enumerations that check the
decomposition, live with the other exact oracles in ``identities``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .numutil import BudgetError, check_memory, ordered_dot, site_uniforms

if TYPE_CHECKING:  # TiltParams appears in annotations only
    from .tilting import TiltParams

TAU_HORIZON = 10**7
HORIZON_TAIL = 1e-4  # the chosen horizon H is the first with P(tau_1 > H) below this
TAU_BLOCK = 2**12  # tau draws located by one searchsorted
TAIL_STEPS = 2**12  # tail entries from one product with the block transfer


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
        if self.kbar >= tp.c_z:
            raise ValueError(f"kbar = {self.kbar} must be < min_e u(e) = {tp.c_z}")


def default_kbar(tp: TiltParams) -> float:
    """min(1/(4d), min_e u(e)/2): keeps both strictness constraints with margin."""
    return min(1.0 / (4 * tp.dimension), tp.c_z / 2.0)


def make_epsilon_law(tp: TiltParams) -> EpsilonLaw:
    """The symbol law at ``default_kbar``; ``EpsilonLaw`` itself takes any other kbar."""
    eps = EpsilonLaw(default_kbar(tp), tp.dimension)
    eps.validate_against(tp)
    return eps


@dataclass(frozen=True)
class StoppingConfig:
    """Block length L and the forced direction for run completion."""

    L: int
    ell: int  # direction index


def validate_stopping(tp: TiltParams, cfg: StoppingConfig):
    """The forced direction must have positive projection on the drift."""
    axis, negative = divmod(cfg.ell, 2)
    zdot = 0.0 - tp.z[axis] if negative else float(tp.z[axis])  # 0.0 - z keeps a zero unsigned
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
    return eps.kbar if isinstance(eps, EpsilonLaw) else float(eps)


def _finite(what: str, k: float, L: int, value) -> float:
    """``value()``, or a BudgetError naming L, kbar and ``what`` where it is not a finite float."""
    try:
        out = value()
    except OverflowError:  # float ** raises where * and / round to inf
        out = math.inf
    if math.isinf(out):
        raise BudgetError(f"at L = {L} and kbar = {k}, {what} is not a finite float")
    return out


def expected_tau(eps, cfg: StoppingConfig) -> float:
    """Expected symbols until the first run of L forced-ell symbols completes.

    Closed form (kbar^-L - 1) / (1 - kbar) for a run of L successes of
    probability kbar each. Raises BudgetError, naming L and kbar, where it
    is not a finite float.
    """
    k = _kbar_of(eps)
    return _finite("E[tau_1] = (kbar^-L - 1) / (1 - kbar)", k, cfg.L,
                   lambda: (k**-cfg.L - 1.0) / (1.0 - k))


def tau_sd(eps, cfg: StoppingConfig) -> float:
    """Standard deviation of tau_1 in closed form (Feller, Vol. 1, XIII.7); BudgetError as above.

    tau_1 = L + sum_{i <= N} (J_i + 1): N ~ Geometric(x = kbar^L) failures, J_i of law
    kbar^j (1 - kbar) / (1 - x) on j < L. So Var tau_1 = E[N] Var J + Var N E[J + 1]^2
    = (1 - kbar) / x (m2 + w (1 + mean)^2 / x), with w, mean and m2 the weight, mean and
    squared deviations of kbar^j on j < L, grown over the bits of L by pairwise updates
    (Chan, Golub and LeVeque 1979) of positive terms only. The textbook form cancels.
    """
    k = _kbar_of(eps)
    w, mean, m2, m = 1.0, 0.0, 0.0, 1  # of kbar^j on j < m
    for bit in bin(cfg.L)[3:]:
        # j < 2m: j < m and its copy shifted by m, of weight kbar^m times
        km = k**m
        h = km / (1.0 + km)
        mean, m2, w = mean + m * h, (1.0 + km) * m2 + m * m * w * h, (1.0 + km) * w
        m *= 2
        if bit == "1":  # and j = m, of weight kbar^m
            km = k**m
            delta, grown = m - mean, w + km
            mean, m2, w = mean + delta * km / grown, m2 + delta * delta * w * km / grown, grown
            m += 1
    # two square roots: Var tau_1 passes the floats long before sd does
    return _finite("sd[tau_1]", k, cfg.L, lambda: math.sqrt((1.0 - k) * k**-cfg.L)
                   * math.sqrt(m2 + w * (1.0 + mean)**2 * k**-cfg.L))


def _run_length_transfer(k: float, L: int) -> np.ndarray:
    """The L x L transfer M of the run-length chain: P(tau_1 > t) is the mass of M^t e_0.

    Entry (r', r) is the chance that one symbol moves run length r to r'; a
    success at r = L - 1 completes the run, so its mass leaves the chain.
    """
    transfer = np.diag(np.full(L - 1, k), -1)  # a success moves run r to r + 1
    transfer[0] = 1.0 - k  # a failure sends every run to 0
    return transfer


def _harris_floor(k: float, L: int) -> float:
    """(1 - k^L)^TAU_HORIZON, Harris's lower bound on P(tau_1 > TAU_HORIZON).

    The events "no run of L ends at s" are decreasing in the symbols, so by
    Harris's inequality P(tau_1 > T) >= (1 - k^L)^T.
    """
    return math.exp(TAU_HORIZON * math.log1p(-k**L))


def choose_horizon(eps, cfg: StoppingConfig) -> int:
    """Smallest H <= TAU_HORIZON with P(tau_1 > H) < HORIZON_TAIL, by a scan of the tail table.

    A hopeless search is refused first: where Harris's bound
    (``_harris_floor``) is 2 HORIZON_TAIL or more, the search could only fail.

    The scan reads P(tau_1 > t) from ``_tail_blocks``, the nonincreasing
    table ``sample_tau_batch`` inverts, one block of TAIL_STEPS entries at a
    time, so H is the first entry below the cut: about H / TAIL_STEPS block
    products, under 1 ms at H = 5359 and about 0.1 s near the cap.
    """
    k = _kbar_of(eps)
    if (bound := _harris_floor(k, cfg.L)) >= 2 * HORIZON_TAIL:
        raise BudgetError(f"at L = {cfg.L}, P(tau_1 > {TAU_HORIZON}) >= {bound:.2g}: the tau tail "
                          f"stays above {HORIZON_TAIL} within the {TAU_HORIZON}-symbol cap")
    t = 0
    for block in _tail_blocks(k, cfg.L):
        t += (above := int(np.count_nonzero(block >= HORIZON_TAIL)))
        if t > TAU_HORIZON:
            raise BudgetError(f"tau tail stays above {HORIZON_TAIL} within the "
                              f"{TAU_HORIZON}-symbol cap")
        if above < len(block):
            return t


def check_tau_memory(draws: int, L: int, key: str = "n"):
    """Raise BudgetError, naming ``key``, if ``sample_tau_batch`` of ``draws`` passes MEMORY_BUDGET.

    The sampler holds the (draws,) int64 result; the tail table, up to
    TAU_HORIZON + 1 doubles, and its copy while the table grows; the
    (TAIL_STEPS, L) rows of the block transfer; and one block of TAU_BLOCK
    draws, whose uniforms, hash words, site keys and positions take at most
    six 8-byte arrays, 192 KiB at 4096 draws. A draw is a pure function of
    (seed, i), so the block size moves no draw, only the memory and the
    count of ``searchsorted`` calls.
    """
    need = 8 * (draws + 2 * (TAU_HORIZON + 1) + TAIL_STEPS * L + 6 * TAU_BLOCK)
    check_memory(need, f"{key} = {draws} draws at L = {L}")


def _tail_blocks(k: float, L: int):
    """Yield P(tau_1 > t), t = 0, 1, 2, ..., in blocks of TAIL_STEPS, made nonincreasing.

    Row s of ``rows`` is 1^T M^s for s < TAIL_STEPS (built by doubling: rows
    [m, 2m) are rows [0, m) times M^m), so block b is rows times M^(b TAIL_STEPS)
    e_0. Every entry is a pure function of t: where the table stops does not
    change it. A running minimum removes rounding's upward steps, so the
    table can be searched.
    """
    rows, power = np.ones((1, L)), _run_length_transfer(k, L)
    while len(rows) < TAIL_STEPS:
        rows = np.concatenate([rows, ordered_dot(rows, power)])
        power = ordered_dot(power, power)
    state = np.zeros((L, 1))
    state[0] = 1.0
    low = 1.0
    while True:
        block = np.minimum.accumulate(np.minimum(ordered_dot(rows, state)[:, 0], low))
        low = block[-1]
        yield block
        state = ordered_dot(power, state)


def sample_tau_batch(eps, cfg: StoppingConfig, n: int, seed: int) -> np.ndarray:
    """n independent run-completion times, by inversion of the exact tail.

    Draw i reads the uniform u_i = ``site_uniforms(seed, (i,))`` and returns
    tau_i = #{t >= 0 : S(t) > u_i}, with S(t) = P(tau_1 > t) the tail of the
    run-length chain (``_tail_blocks``). S is nonincreasing, so tau_i > t
    exactly when u_i < S(t), and P(tau_i > t) = P(u < S(t)) = S(t): tau_i
    has the law of tau_1, up to the 2^-53 grid of u and the rounding of S.
    In exact arithmetic S(t) = 1 for t < L, so no draw is below L. Each draw
    is a pure function of (seed, i): the first m draws of any call are the
    m-draw call.

    S is built only as far as the smallest u needs: to the first t with
    S(t) <= u, about E[tau_1] ln n steps. Draws are located in blocks of
    TAU_BLOCK, each with one searchsorted on the table.

    Raises BudgetError before drawing when n draws would pass MEMORY_BUDGET
    (``check_tau_memory``), and otherwise iff some tau exceeds TAU_HORIZON,
    naming how many; the cap never changes a draw. A hopeless block is
    refused before the table grows: S(TAU_HORIZON) is at least Harris's
    bound (``_harris_floor``), so where that bound exceeds the block's
    smallest u by a relative 2^-30, far more than the table's rounding, that
    draw's tau exceeds the cap. The refusal then names the draws of the block the
    bound alone settles, as "at least" that many unless they are all n.
    """
    k = _kbar_of(eps)
    L, horizon = cfg.L, TAU_HORIZON
    check_tau_memory(n, L)
    harris = _harris_floor(k, L) / (1.0 + 2.0**-30)
    tau = np.empty(n, dtype=np.int64)
    blocks, table = _tail_blocks(k, L), np.empty(0)  # -S(t) for t < len(table), nondecreasing
    for start in range(0, n, TAU_BLOCK):
        u = site_uniforms(seed, np.arange(start, min(start + TAU_BLOCK, n))[:, None])
        low, parts, size = u.min(), [table], len(table)
        while size <= horizon and (size == 0 or -parts[-1][-1] > low):
            if low < harris:
                # every earlier draw was located inside a table shorter than the horizon
                over = int(np.count_nonzero(u < harris))
                raise BudgetError(f"{'at least ' * (over < n)}{over} streams unfinished within "
                                  f"{horizon} symbols")
            parts.append(-next(blocks)[:horizon + 1 - size])
            size += len(parts[-1])
        if size > len(table):
            table = np.concatenate(parts)
        tau[start:start + len(u)] = np.searchsorted(table, -u)
    unfinished = int(np.count_nonzero(tau > horizon))
    if unfinished:
        raise BudgetError(f"{unfinished} streams unfinished within {horizon} symbols")
    return tau
