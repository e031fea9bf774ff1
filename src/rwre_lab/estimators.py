"""Rate points and the quenched/annealed gap.

The centerpiece is ``certify_gap``: on a stopped block of the decomposed
auxiliary walk, the environment average of the log of the inner block
expectation sits strictly below the log of the environment-averaged block
expectation whenever the environment is genuinely random. Both sides are
normalized by the expected block length and evaluated on one common symbol
truncation horizon, so the comparison is exact at the truncated functional.

The inner block expectation itself is computed without Monte Carlo error:
conditioning on the forced/free symbol pattern and the stay-on-ray event
collapses the block functional to a run-length transfer recursion whose step
factors are kbar (forced symbol) and u(ell) * xi_site - kbar (free symbol).
The recursion (``_inner_recursion``) carries a_s, the mass that enters a
free symbol at time s, rescales it by powers of two, and stops before the
horizon once the rest provably cannot change any replica's value, so the
values are those of the full horizon bit for bit and no later row is drawn
or read. ``certify_gap`` is the one exact evaluation of the two block
bounds, W minus each side. It feeds the recursion CHUNK replicas at a time,
their rows in short time blocks: the law's ``ray_states`` read through a
table (``_ray_rows``), the free factors here and xi in ``sample_ray_xi``.
Each factor is a function of (seed, replica, step) alone, so no block size
changes a value. Where the law's sites are independent, the annealed side is
the same recursion on the mean row, free factor u(ell) - kbar, in a pass of
its own; a coupled field's is the log-mean-exp of its replicas. Where the
law fixes the ray direction, every replica reads one row, and one such pass
gives both sides. The tests judge the recursion against a symbol-by-symbol
Monte Carlo of the same truncated functional and against an enumeration of
every ray environment at small horizons.

``rate_point`` evaluates the two rate functions at one velocity: closed forms
in the one-site law at the lattice directions +-e_i and, everywhere else in
the unit l1 ball, the decay of exact per-environment point probabilities from
``log_point_probability_dp``.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING

import numpy as np

from .environments import direction_index, direction_vectors, sample_environment
from .numutil import (BudgetError, check_memory, deferred_names, derive_seed, jackknife_stderr,
                      lattice_denominator, logmeanexp, loo_logmeanexp)

if TYPE_CHECKING:  # these appear in annotations only
    from .decomposition import EpsilonLaw, StoppingConfig
    from .tilting import TiltParams

# The gap needs the stopping machinery and a rate point the forward evolution;
# each loads on first use. These names are read as attributes of this module,
# where a caller may rebind them.
__getattr__ = deferred_names(globals(), {
    "decomposition": ("TAU_HORIZON", "choose_horizon", "expected_tau", "validate_stopping"),
    "evolution": ("light_cone", "log_point_probability_dp"),
})
_estimators = sys.modules[__name__]

CHUNK = 4096  # replicas per block: gap blocks and sample_ray_xi blocks
# floats certify_gap may hold per replica: the block values, their concatenation
# and their logs (the trace) make 3; a coupled field's jackknives, run once the first
# two are freed, add the leave-one-out values and 3 temporaries to the trace
_REPLICA_FLOATS = 6
CERTIFY_SIGNIFICANCE, FALSIFY_SIGNIFICANCE = 5.0, -3.0  # certify_gap's verdict cut-offs
# floats a rate point holds per environment: the two log probabilities, their
# decays and the leave-one-out temporaries of the annealed jackknife (tracemalloc: 8.0)
_ENV_FLOATS = 8


def _blocks(n_items: int) -> list:
    """(start, size) of the CHUNK-wide replica blocks."""
    return [(start, min(CHUNK, n_items - start)) for start in range(0, n_items, CHUNK)]


# ---------------------------------------------------------------------------
# ray blocks: the exact inner recursion and its free-factor rows
# ---------------------------------------------------------------------------

def log_w_const(tp: TiltParams, ell: int) -> float:
    """log(exp(<theta, ell>) * D): the per-step cost constant of the bounds."""
    theta_dot = float(direction_vectors(tp.dimension)[ell] @ tp.theta_array)
    return theta_dot + math.log(tp.D)


_LOG_RANGE = 900 * math.log(2.0)  # state entries stay within 2**+-900 between rescales
_FLUSH_ROWS = 32  # recursion steps between flushes of the entry-mass buffer
_ROW_BLOCK = 2**14  # draws per time block of a product-law row source
_STOP_BITS = 56  # a block stops once the rest of every sum is below 2**-56 of it


def _rescale_interval(factors: np.ndarray, kbar: float, L: int) -> int:
    """Recursion steps between rescales, from the bounds of the free factors.

    ``factors`` holds every value a free factor takes, or can take. One step
    multiplies the largest state entry by at most max(L * max|f|, kbar) and,
    when every factor has one sign, by at least min|f|. For mixed signs the
    smallest nonzero |f| stands in for the lower bound.
    """
    if factors.size == 0:
        return 1
    lo, hi = float(factors.min()), float(factors.max())
    if lo > 0.0:
        small = lo
    elif hi < 0.0:
        small = -hi
    else:
        small = float(np.min(np.abs(factors), where=factors != 0.0, initial=np.inf))
        small = kbar if math.isinf(small) else small
    rate = max(math.log(max(L * max(hi, -lo), kbar)), -math.log(small))
    return max(1, int(_LOG_RANGE / rate)) if rate > 0.0 else max(1, len(factors))


def _growth_rate(fhat: float, kbar: float, L: int) -> float:
    """A rate rho > 0 with g(rho) = rho**L - fhat * sum_{j<L} kbar**j rho**(L-1-j) >= 0.

    g(rho) / rho**(L-1) = rho - fhat * sum_j (kbar / rho)**j increases in rho,
    is <= 0 at rho = fhat and >= 0 at max(kbar, L * fhat). Geometric bisection
    keeps an upper end where it is >= 0, and that end is inflated by 2**-20:
    far more than the rounding of g, or of one recursion step, can take back.
    """
    def g(rho):
        return rho - fhat * sum((kbar / rho) ** j for j in range(L))

    lo, hi = fhat, max(kbar, L * fhat)
    while lo > 0.0 and hi > lo * (1.0 + 2**-30):
        mid = math.sqrt(lo) * math.sqrt(hi)
        lo, hi = (lo, mid) if g(mid) >= 0.0 else (mid, hi)
    return hi * (1.0 + 2**-20)


def _log2_geometric(rho: float, m: int) -> float:
    """log2 of sum_{n=1..m} rho**n, without forming rho**m."""
    if m <= 0:
        return -math.inf
    lr = math.log(rho)
    if lr == 0.0:
        return math.log2(m)
    # the sum is rho * (rho**m - 1) / (rho - 1); take log(|rho**m - 1|) in the
    # form that cannot overflow
    x = m * lr
    log_num = x + math.log(-math.expm1(-x)) if lr > 0.0 else math.log(-math.expm1(x))
    return (lr + log_num - math.log(abs(rho - 1.0))) / math.log(2.0)


def _inner_recursion(blocks, m: int, kbar: float, L: int, table: np.ndarray,
                     steps: int) -> tuple:
    """(values, rows read): inner block values of m replicas, fed their factors in time blocks.

    ``blocks`` yields (n, m) arrays of the factor rows f_1, f_2, ... of symbol
    times 1, 2, ...; ``table`` holds every value a factor can take. At most
    the first ``steps`` = H - L rows are read, and a row only during its own
    step, so a source may refill one buffer per block. The state is a_s, the
    mass that enters a free symbol at time s: a_0 = 1 and

        a_{t+1} = f_{t+1} * sum_{j<L} kbar^j a_{t-j},

    with the sum taken oldest term first. Every sum here is a chain of
    elementwise numpy operations, where a ``dot`` or a reduction would pick
    its summation order by the block's width, so a replica's value does not
    depend on which block it rides in. A string stops at its
    first L-run of forced symbols, so the value at horizon H is
    kbar^L * sum_{s=0..H-L} a_s; for H < L it is 0. The a's fill a buffer of
    min(every, _FLUSH_ROWS) rows below the L rows the next step reads, with
    ``every`` the rescale interval of ``table``. Each time it is full, the
    new rows are summed into the total, and the last L rows are rescaled by
    the power of two of the largest entry max_j kbar^j |a_{t-j}| of the
    run-length state, which is exact, and moved to the top; the scale is
    kept as an exponent.

    The recursion then stops, reading no further row, once the rest of every
    sum is provably below rounding. With fhat = max |table| and rho from
    ``_growth_rate``, v = (rho^-j) satisfies M v <= rho v for the transfer M
    of the all-fhat row, which bounds every row's state entrywise, so
    |a_{t+n}| <= W_r rho^n with W_r = max_{j<L} rho^j |a_{t-j}|. With m rows
    left the rest of row r's sum is at most W_r G(m), G(m) = sum_{n=1..m} rho^n.
    Once log2 W_r + log2 G(m) < log2 |total_r| - _STOP_BITS for every r,
    taken in log2 with the kept exponents, each later flush would add less
    than half an ulp to its total, so the values are those of the full
    horizon, bit for bit.
    """
    if steps < 0:
        return np.zeros(m), 0
    flush = min(_rescale_interval(table, kbar, L), _FLUSH_ROWS)
    rho = _growth_rate(float(np.max(np.abs(table), initial=0.0)), kbar, L)
    log_rw = math.log2(rho) * np.arange(L - 1, -1, -1.0)[:, None]  # of a_{t-L+1}, ..., a_t
    kw = kbar ** np.arange(L - 1, -1, -1.0)  # weights of a_{t-L+1}, ..., a_t
    weights = kw.tolist()
    buf = np.zeros((L + flush, m))
    buf[L - 1] = 1.0
    slots = [(list(buf[i - L:i]), buf[i]) for i in range(L, L + flush)]
    rows = itertools.islice(itertools.chain.from_iterable(blocks), steps)
    total = np.ones(m)  # a_0
    exponent = np.zeros(m, dtype=np.int64)
    part, scratch = np.empty(m), np.empty(m)
    read = 0
    while True:
        n = 0
        for n, ((window, a), f) in enumerate(zip(slots, rows), 1):
            np.multiply(window[0], weights[0], a)
            for w, k in zip(window[1:], weights[1:]):
                np.add(a, np.multiply(w, k, scratch), a)
            np.multiply(a, f, a)
        if n:
            np.copyto(part, buf[L])
            for new in buf[L + 1:L + n]:
                np.add(part, new, part)
            total += np.ldexp(part, exponent)
        read += n
        if n < flush:
            return total * kbar**L, read
        shift = np.frexp((np.abs(buf[flush:]) * kw[:, None]).max(axis=0))[1]
        np.ldexp(buf[flush:], -shift, out=buf[:L])
        exponent += shift
        with np.errstate(divide="ignore", invalid="ignore"):  # log2(0) = -inf; nan never stops
            log_w = (np.log2(np.abs(buf[:L])) + log_rw).max(axis=0) + exponent
            room = np.log2(np.abs(total)) - _STOP_BITS - _log2_geometric(rho, steps - read)
        if np.all(log_w < room) and np.all(np.isfinite(total)):
            return total * kbar**L, read


def ray_inner_values(free_factors: np.ndarray, kbar: float, L: int) -> np.ndarray:
    """Inner block expectations for rows of free-symbol factors.

    ``free_factors[m, t]`` is the weight a free symbol contributes at symbol
    time t+1 (site t on the ray); a forced symbol always contributes kbar.
    Row m's return value is

        sum over symbol strings stopped at their first L-run of
        prod(kbar per forced symbol) * prod(free factor per free symbol),

    evaluated by the run-length transfer recursion truncated at the row
    length, fed the columns as its time rows. A column-major (F-ordered)
    array, such as the transpose of an (H, m) buffer, is read without a copy.
    """
    cols = np.ascontiguousarray(np.atleast_2d(np.asarray(free_factors, dtype=np.float64)).T)
    return _inner_recursion([cols], cols.shape[1], kbar, L, cols, len(cols) - L)[0]


def _constant_pass(f: float, kbar: float, L: int, steps: int) -> tuple:
    """``_inner_recursion`` of one replica whose every factor is f: one block read over and over."""
    w = np.full((_FLUSH_ROWS, 1), f)
    return _inner_recursion(itertools.repeat(w), 1, kbar, L, w[0], steps)


def ray_log_inner_annealed_iid(tp: TiltParams, eps: EpsilonLaw, cfg: StoppingConfig,
                               horizon: int) -> float:
    """Exact annealed inner value: free-symbol factor u(ell) - kbar at every site."""
    f = float(tp.u_array[cfg.ell]) - eps.kbar
    return math.log(_constant_pass(f, eps.kbar, cfg.L, horizon - cfg.L)[0][0])


def _ray_rows(law, ell: int, horizon: int, seed: int, table: np.ndarray):
    """rows(start, size), which yields ``table[state]`` at the ray sites t * ell, t < horizon.

    The rows of replicas start..start+size-1 come as (n, size) arrays of n
    consecutive time rows, read from ``law.ray_states`` in blocks of a
    multiple of 8 rows and about _ROW_BLOCK entries, into one buffer that
    each block refills. Every row is a pure function of (seed, replica,
    step), so no block size changes a value.
    """
    def rows(start, size):
        k = 8 * max(1, _ROW_BLOCK // (8 * size))
        out = np.empty((k, size))
        for states in law.ray_states(seed, ell, np.arange(start, start + size), horizon, k):
            yield np.take(table, states, out=out[:len(states)], mode="clip")

    return rows


def sample_ray_xi(law, ell: int, n_rows: int, horizon: int, seed: int) -> np.ndarray:
    """xi(site t*ell, ell) for independent environment replicas, shape (n, H).

    The dense stack of the rows that ``certify_gap`` streams; the result is the
    transpose of a time-major buffer. Raises BudgetError, before anything is
    allocated, when that buffer would exceed MEMORY_BUDGET.
    """
    check_memory(8 * n_rows * horizon, f"{n_rows} x {horizon} ray factors")
    rows = _ray_rows(law, ell, horizon, seed, law.xi[:, ell])
    out = np.empty((horizon, n_rows))
    for start, size in _blocks(n_rows):
        t = 0
        for block in rows(start, size):
            out[t:t + len(block), start:start + size] = block
            t += len(block)
    return out.T


def _log_positive(vals: np.ndarray) -> np.ndarray:
    if np.any(vals <= 0.0):
        raise ValueError("inner block expectation is not positive; the disorder is too "
                         "large for the signed free-symbol weights at this kbar")
    return np.log(vals)


# ---------------------------------------------------------------------------
# the two bounds and the gap report
# ---------------------------------------------------------------------------

_UNREPORTED = {"reported": False}  # field metadata: kept off the artifacts


def _reported(report) -> dict:
    """{name: value} of the fields of ``report`` its artifacts carry, in field order.

    A tuple becomes a list, as JSON writes it.
    """
    values = ((f.name, getattr(report, f.name)) for f in fields(report)
              if f.metadata.get("reported", True))
    return {name: list(v) if isinstance(v, tuple) else v for name, v in values}


@dataclass
class GapReport:
    """Paired quenched/annealed block estimates and their separation."""

    ell: tuple
    L: int
    kbar: float
    horizon: int
    W: float
    expected_block: float
    quenched_side: float
    quenched_stderr: float
    annealed_side: float
    annealed_stderr: float
    gap: float
    stderr: float
    significance: float
    replicas: int
    seed: int
    verdict: str
    # the most recursion steps any replica block ran before its stop
    steps_read: int = field(metadata=_UNREPORTED)
    trace: np.ndarray = field(default=None, repr=False, compare=False, metadata=_UNREPORTED)

    def to_dict(self) -> dict:
        """The fields the gap artifacts carry, in field order."""
        return _reported(self)


def certify_gap(tp: TiltParams, eps: EpsilonLaw, cfg: StoppingConfig, law,
                budget: int, *, horizon: int | None = None, seed: int = 0) -> GapReport:
    """Estimate both sides of the block-level mean-log versus log-mean split.

    Common truncation horizon and, where the annealed side needs sampling,
    common environment draws keep the two sides comparable term by term. The
    strict inequality is declared certified above CERTIFY_SIGNIFICANCE,
    falsified below FALSIFY_SIGNIFICANCE, and inconclusive in between; a zero
    error bar gives significance 0, as on a ray direction the law fixes or at
    H = L, where no row is drawn.
    Without a fixed ``horizon``, the horizon is ``choose_horizon``'s, the
    smallest H with P(tau_1 > H) below HORIZON_TAIL; a fixed one above
    TAU_HORIZON, the cap of that search, raises BudgetError. Replicas are
    evaluated CHUNK at a time with their factors drawn inside the recursion,
    for independent sites one random byte per replica and step, so memory does
    not grow with the horizon. It grows with the replica count only by the
    _REPLICA_FLOATS floats kept per replica, the trace among them; a count
    whose floats pass MEMORY_BUDGET raises BudgetError before a row is drawn.
    Each block's recursion stops once the rest of its sums is below rounding,
    with the values of the full horizon; ``steps_read`` is the most steps a
    block ran. The horizon is chosen, and refused, before E[tau_1] is taken.
    """
    _estimators.validate_stopping(tp, cfg)
    eps.validate_against(tp)
    if cfg.L < 2:
        raise ValueError(f"L = {cfg.L}: block estimators need L >= 2")
    if budget < 2:
        raise ValueError(f"gap.replicas = {budget}: the gap needs at least 2 replicas for a "
                         "standard error")
    check_memory(8 * _REPLICA_FLOATS * budget, f"gap.replicas = {budget} of {_REPLICA_FLOATS} floats")
    cap = _estimators.TAU_HORIZON
    if horizon is not None and horizon > cap:
        raise BudgetError(f"horizon {horizon} exceeds the {cap}-symbol cap")
    if horizon is not None and horizon < cfg.L:
        raise ValueError(f"gap.horizon = {horizon} is below L = {cfg.L}: no block completes "
                         "within it, so the inner block expectation is not positive")
    h = horizon or _estimators.choose_horizon(eps, cfg)
    et, w = _estimators.expected_tau(eps, cfg), log_w_const(tp, cfg.ell)
    table = float(tp.u_array[cfg.ell]) * law.xi[:, cfg.ell] - eps.kbar
    if law.fixed[cfg.ell] or h == cfg.L:
        # every replica reads table[0] at every step, or reads no row: both sides are one value
        val, steps_read = _constant_pass(table[0], eps.kbar, cfg.L, h - cfg.L)
        log_inner = np.full(budget, _log_positive(val)[0])
        q_side = a_side = float(log_inner[0]) / et
        q_se = a_se = se = 0.0
    else:
        rows = _ray_rows(law, cfg.ell, h, derive_seed(seed, 1), table)
        values, read = zip(*(_inner_recursion(rows(start, size), size, eps.kbar, cfg.L, table,
                                              h - cfg.L) for start, size in _blocks(budget)))
        steps_read = max(read)
        log_inner = _log_positive(np.concatenate(values))
        del values
        q_side = float(log_inner.mean()) / et
        # the spread about replica 0 is 0 for a constant sample, not an ulp of its mean
        q_se = float((log_inner - log_inner[0]).std(ddof=1) / math.sqrt(budget)) / et
        if law.independent:
            a_side, a_se = ray_log_inner_annealed_iid(tp, eps, cfg, h) / et, 0.0
            se = q_se
        else:
            # both sides read the same replicas, so the gap's error bar is the jackknife of
            # the gap: leave-one-out log-mean-exps less the means mean + (mean - x_i) / (n - 1)
            a_side, mean = float(logmeanexp(log_inner)) / et, float(log_inner.mean())
            loo = loo_logmeanexp(log_inner)
            a_se = jackknife_stderr(loo) / et
            loo -= mean + (mean - log_inner) / (budget - 1)
            se = jackknife_stderr(loo) / et
    gap = a_side - q_side
    sig = gap / se if se > 0.0 else 0.0
    verdict = ("certified" if sig > CERTIFY_SIGNIFICANCE
               else "falsified" if sig < FALSIFY_SIGNIFICANCE else "inconclusive")
    return GapReport(
        ell=tuple(int(v) for v in direction_vectors(tp.dimension)[cfg.ell]),
        L=cfg.L, kbar=eps.kbar, horizon=h, W=w, expected_block=et,
        quenched_side=q_side, quenched_stderr=q_se, annealed_side=a_side,
        annealed_stderr=a_se, gap=gap, stderr=se, significance=sig,
        replicas=budget, seed=seed, verdict=verdict, steps_read=steps_read, trace=log_inner)


# ---------------------------------------------------------------------------
# rate points
# ---------------------------------------------------------------------------

@dataclass
class RatePointEstimate:
    """One rate point; None marks a value that no exact form gives here."""

    x: tuple
    I_a: float | None
    I_q: float
    stderr_a: float | None
    stderr_q: float
    method: str
    horizon: int | None

    def to_dict(self) -> dict:
        """The fields the rate artifacts carry, in field order."""
        return _reported(self)


def rate_point(law, x, *, seed: int = 0, horizon: int = 400,
               env_replicas: int = 8) -> RatePointEstimate:
    """Paired annealed/quenched rate estimates at one velocity.

    The lattice directions +-e_i, the only points a single straight path
    reaches, take closed forms in the one-site law (``_rate_point_boundary``)
    and draw no site. Every other
    point of the closed ball, the rest of the boundary included, uses the
    decay of the point probability P(X_N = N x), exact per environment by
    forward evolution on the two-sided light cone, at N and N/2 with
    first-order Richardson extrapolation in 1/N; one evolution to N
    per environment reads both, P(X_{N/2} = N x / 2) on the way. The
    quenched rate averages the per-environment decays over ``env_replicas``
    environments, the annealed rate takes the decay of their averaged
    probabilities with a leave-one-out jackknife error; the method is
    reported as "enumeration". A law that fixes every direction has one
    environment, and both rates are its decay with no error bar.
    """
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    if np.abs(x).sum() > 1.0 + 1e-12:
        raise ValueError(f"velocity {x} outside the unit l1 ball")
    if abs(np.abs(x).max() - 1.0) <= 1e-12:  # +-e_i: the only straight paths
        return _rate_point_boundary(law, x)
    return _rate_point_dp(law, x, seed=seed, horizon=horizon, env_replicas=env_replicas)


def _rate_point_boundary(law, x) -> RatePointEstimate:
    """The straight-path rates at x = e, exact in the one-site weights w_k and rows omega_k.

    I_q(e) = -E log omega(0, e) = -sum_k w_k log omega_k(e) for every law; a
    field's w_k are 1/S, as ``MarkovFieldLaw`` shows. I_a(e) = -log E omega(0, e)
    needs independent sites, so a coupled field's stays None. Neither has a
    horizon or a standard error, and no seed enters.
    """
    ell = direction_index(np.round(x).astype(np.int64))
    i_q = -math.fsum(law.weights * np.log(law.table[:, ell]))
    i_a = se_a = None
    if law.independent:
        i_a, se_a = -math.log(law.means[ell]), 0.0
    return RatePointEstimate(tuple(float(v) for v in x), i_a, i_q, se_a, 0.0, "boundary", None)


def _rate_point_dp(law, x, *, seed: int, horizon: int, env_replicas: int) -> RatePointEstimate:
    d = law.dimension
    q = lattice_denominator(x)
    base = q if (int(round(q * np.abs(x).sum())) - q) % 2 == 0 else 2 * q
    n2 = max(2 * base, 2 * base * round(horizon / (2 * base)))
    n1 = n2 // 2
    fixed = law.fixed.all()
    # n1 x lies on a path to n2 x: one evolution on the n2 cone reads both
    target1, target2 = (np.round(n * x).astype(np.int64) for n in (n1, n2))
    region = _estimators.light_cone(d, n2, target2)
    reps = 1 if fixed else env_replicas
    check_memory(8 * _ENV_FLOATS * reps, f"rate.env_replicas = {reps} of {_ENV_FLOATS} floats")
    logp1 = np.empty(reps)
    logp2 = np.empty(reps)
    for r in range(reps):
        env = sample_environment(law, derive_seed(seed, 31, r), region)
        logp2[r], logp1[r] = _estimators.log_point_probability_dp(env, n2, target2,
                                                                  at=(n1, target1))

    def extrapolated(log1, log2):  # the decays at n1 and n2, first-order in 1/N
        return 2.0 * (-log2 / n2) - (-log1 / n1)

    i_r = extrapolated(logp1, logp2)
    i_q = float(i_r.mean())
    se_q = float(i_r.std(ddof=1) / math.sqrt(reps)) if reps > 1 else 0.0
    if fixed:
        return RatePointEstimate(tuple(float(v) for v in x), i_q, i_q, 0.0, 0.0,
                                 "enumeration", n2)
    # annealed decay: environment average of the quenched point probability
    i_a = float(extrapolated(logmeanexp(logp1), logmeanexp(logp2)))
    se_a = jackknife_stderr(extrapolated(loo_logmeanexp(logp1), loo_logmeanexp(logp2)))
    return RatePointEstimate(tuple(float(v) for v in x), i_a, i_q, se_a, se_q,
                             "enumeration", n2)
