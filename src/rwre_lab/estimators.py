"""Free-energy and rate-function estimation, and the quenched/annealed gap.

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
``certify_gap`` is the one exact evaluation of the two block bounds; its report
carries them as ``GapReport.I_a`` and ``GapReport.I_q``. ``bound_Ia`` and
``bound_Iq`` are the independent Monte Carlo cross-check of that recursion:
they sample the same truncated functional with ``sample_ray_block_values``,
whose free-symbol factors are the psi factors on the ray (their environment
mean for the annealed bound, one environment row per inner mean for the
quenched one).
"""

from __future__ import annotations

import itertools
import math
import warnings
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .decomposition import (EpsilonLaw, StoppingConfig, choose_horizon, expected_tau,
                            psi_factor, sample_ray_block_values, validate_stopping)
from .environments import (Box, Environment, IIDProductLaw, MarkovFieldLaw,
                           centered_box, direction_vectors, sample_environment)
from .numutil import (BudgetError, derive_seed, effective_sample_size,
                      jackknife_stderr_logmean, logmeanexp, logsumexp)
from .tilting import TiltParams, solve_tilt
from .walks import (log_point_probability_dp, path_sites, realized_log_xi,
                    site_grouped_log_moment)

CHUNK = 1024
MEMORY_BUDGET = 2**30  # bytes of chunk buffers a streamed gap run may hold at once
ESS_FLOOR = 10.0


def _chunk_stream(fn, n_items: int, threads: int = 1):
    """Yield fn(chunk_index, start, size) over fixed-size chunks, in chunk order.

    The chunk layout never depends on the thread count, and callers reduce in
    chunk order, so outputs are bit-identical for any ``threads``. With
    threads > 1, pool threads work on the next chunks while the caller holds
    the current one; a chunk is submitted only once the caller is done with
    the previous one, so at most threads + 1 results exist at a time.
    """
    spans = iter([(c, c * CHUNK, min(CHUNK, n_items - c * CHUNK))
                  for c in range((n_items + CHUNK - 1) // CHUNK)])
    if threads <= 1:
        for span in spans:
            yield fn(*span)
        return
    with ThreadPoolExecutor(max_workers=threads) as pool:
        ahead = deque(pool.submit(fn, *span) for span in itertools.islice(spans, threads))
        try:
            while ahead:
                yield ahead.popleft().result()
                span = next(spans, None)
                if span is not None:
                    ahead.append(pool.submit(fn, *span))
        finally:
            for future in ahead:
                future.cancel()


# ---------------------------------------------------------------------------
# free energies
# ---------------------------------------------------------------------------

@dataclass
class FreeEnergyEstimate:
    theta: tuple
    value: float
    stderr: float
    horizon: int
    mode: str
    replicas: int
    ess: float

    @property
    def degenerate(self) -> bool:
        return self.ess < ESS_FLOOR


def estimate_free_energy(tp: TiltParams, theta, horizon: int, replicas: int, mode: str,
                         *, law=None, env: Environment | None = None, seed: int = 0,
                         threads: int = 1, field_env_replicas: int = 16) -> FreeEnergyEstimate:
    """(1/N) log of the tilted-walk functional with the xi-product weight.

    mode "annealed" closes the environment average of the xi-product exactly
    per sampled path (product laws) or by paired environment resampling
    (field laws); mode "quenched" evaluates the xi-product in one fixed
    realized environment. Weights are tracked in log space; the reported
    standard error is a jackknife over replicas of the log-mean. The exact
    finite-n value, by enumeration, is the left side of
    ``verify_identity_annealed`` or ``verify_identity_quenched``.
    """
    if mode not in ("annealed", "quenched"):
        raise ValueError(f"unknown mode {mode!r}")
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    theta = np.asarray(theta, dtype=np.float64)
    d = tp.dimension
    if mode == "quenched":
        if env is None:
            raise ValueError("quenched mode needs a realized environment")
        law = env.law
    if law is None:
        raise ValueError("annealed mode needs a law")

    means = tp.means_array
    if mode == "quenched":
        tables = [realized_log_xi(env, means, horizon)]
    elif isinstance(law, IIDProductLaw):
        tables = None  # the annealed moment closes exactly per path
    else:
        # paired environment resampling for field laws
        tables = [realized_log_xi(sample_environment(law, derive_seed(seed, 9000 + e),
                                                     centered_box(d, horizon)), means, horizon)
                  for e in range(field_env_replicas)]

    def one_chunk(c, start, size):
        rng = np.random.default_rng(derive_seed(seed, c))
        steps = rng.choice(2 * d, size=(size, horizon), p=tp.u_array)
        flat, ends = path_sites(steps, d)
        if tables is None:
            log_xi = site_grouped_log_moment(law.xi_values(), law.weights, flat, steps)[1]
        else:
            log_xi = logmeanexp([t[flat, steps].sum(axis=1) for t in tables], axis=0)
        return ends @ theta + log_xi

    logw = np.concatenate(list(_chunk_stream(one_chunk, replicas, threads)))
    value = logmeanexp(logw) / horizon
    stderr = jackknife_stderr_logmean(logw) / horizon
    ess = effective_sample_size(logw)
    if ess < ESS_FLOOR:
        warnings.warn(f"importance weights are degenerate (ESS = {ess:.2f} < {ESS_FLOOR})")
    return FreeEnergyEstimate(tuple(theta), float(value), float(stderr), horizon, mode,
                              replicas, float(ess))


# ---------------------------------------------------------------------------
# Legendre transform
# ---------------------------------------------------------------------------

_INV_GOLD = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_max(g, a: float, b: float, iters: int = 80):
    x1 = b - _INV_GOLD * (b - a)
    x2 = a + _INV_GOLD * (b - a)
    f1, f2 = g(x1), g(x2)
    for _ in range(iters):
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + _INV_GOLD * (b - a)
            f2 = g(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - _INV_GOLD * (b - a)
            f1 = g(x1)
    return g(0.5 * (a + b))


def legendre_transform(thetas, values, x, *, refine: bool = True,
                       clip_tol: float = 1e-9) -> float:
    """sup over the sampled grid of <theta, x> - L(theta), refined off-grid.

    ``thetas`` holds the G grid nodes, shape (G, d), or (G,) in one dimension,
    and ``values`` the G values of L there. The grid maximizer must be
    interior along every axis, otherwise the grid was too small and an error
    is raised. Refinement runs a golden-section search along each axis through
    the maximizer on a local quadratic interpolant of L. The result is clipped
    at 0, warning if the unclipped value falls below -clip_tol.
    """
    nodes = np.asarray(thetas, dtype=np.float64)
    if nodes.ndim == 1:
        nodes = nodes[:, None]
    vals = np.asarray(values, dtype=np.float64)
    if nodes.ndim != 2 or vals.shape != (nodes.shape[0],):
        raise ValueError(f"grid nodes of shape {nodes.shape} need values of shape "
                         f"({nodes.shape[0]},), got {vals.shape}")
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    obj = nodes @ x - vals
    best = int(np.argmax(obj))
    d = nodes.shape[1]
    for axis in range(d):
        col = nodes[:, axis]
        if math.isclose(nodes[best, axis], col.min()) or math.isclose(nodes[best, axis], col.max()):
            raise ValueError(
                f"Legendre maximizer sits on the grid boundary along axis {axis}; enlarge the grid")
    result = float(obj[best])
    if refine:
        for axis in range(d):
            mask = np.ones(len(nodes), dtype=bool)
            for other in range(d):
                if other != axis:
                    mask &= np.isclose(nodes[:, other], nodes[best, other])
            line_t = nodes[mask, axis]
            line_v = vals[mask]
            order = np.argsort(line_t)
            line_t, line_v = line_t[order], line_v[order]
            i0 = int(np.searchsorted(line_t, nodes[best, axis]))
            if i0 == 0 or i0 >= len(line_t) - 1:
                continue
            t3 = line_t[i0 - 1:i0 + 2]
            v3 = line_v[i0 - 1:i0 + 2]
            coef = np.polyfit(t3, v3, 2)
            if coef[0] <= 0:
                continue  # interpolant not convex here; keep the grid value
            fixed = float(nodes[best] @ x - nodes[best, axis] * x[axis])

            def g(t):
                return fixed + t * x[axis] - float(np.polyval(coef, t))

            result = max(result, _golden_max(g, float(t3[0]), float(t3[2])))
    if result < -clip_tol:
        warnings.warn(f"Legendre value {result} below -{clip_tol}; clipping to 0")
    return max(result, 0.0)


# ---------------------------------------------------------------------------
# ray blocks: exact inner recursion and its Monte Carlo cross-check
# ---------------------------------------------------------------------------

def log_w_const(tp: TiltParams, ell: int) -> float:
    """log(exp(<theta, ell>) * D): the per-step cost constant of the bounds."""
    theta_dot = float(direction_vectors(tp.dimension)[ell] @ tp.theta_array)
    return theta_dot + math.log(tp.D)


_LOG_RANGE = 900 * math.log(2.0)  # state entries stay within 2**+-900 between rescales


def _rescale_interval(cols: np.ndarray, kbar: float, L: int) -> int:
    """Recursion steps between rescales, from the bounds of the free factors.

    One step multiplies the largest state entry by at most max(L * max|f|, kbar)
    and, when every factor has one sign, by at least min|f|. For mixed signs
    the smallest nonzero |f| stands in for the lower bound.
    """
    if cols.size == 0:
        return 1
    lo, hi = float(cols.min()), float(cols.max())
    if lo > 0.0:
        small = lo
    elif hi < 0.0:
        small = -hi
    else:
        small = float(np.min(np.abs(cols), where=cols != 0.0, initial=np.inf))
        small = kbar if math.isinf(small) else small
    rate = max(math.log(max(L * max(hi, -lo), kbar)), -math.log(small))
    return max(1, int(_LOG_RANGE / rate)) if rate > 0.0 else max(1, len(cols))


def ray_inner_values(free_factors: np.ndarray, kbar: float, L: int) -> np.ndarray:
    """Inner block expectations for rows of free-symbol factors.

    ``free_factors[m, t]`` is the weight a free symbol contributes at symbol
    time t+1 (site t on the ray); a forced symbol always contributes kbar.
    Row m's return value is

        sum over symbol strings stopped at their first L-run of
        prod(kbar per forced symbol) * prod(free factor per free symbol),

    evaluated by a run-length transfer recursion truncated at the row length.
    The recursion runs time-major: a column-major (F-ordered) array, such as
    the transpose of an (H, m) buffer, is read without a copy. The state v
    (mass per current run length) lives in a ring of L rows, so the run shift
    is an index rotation; every few steps each column is rescaled by a power
    of two, which is exact, and the scale is kept as an exponent.
    """
    cols = np.ascontiguousarray(np.atleast_2d(np.asarray(free_factors, dtype=np.float64)).T)
    h, m = cols.shape
    ring = np.zeros((L, m))
    ring[0] = 1.0
    rows = list(ring)  # rows[t % L] holds v[0] at step t, rows[(t + 1) % L] holds v[L-1]
    done = np.zeros(m)  # stopped mass, in units of 2**exponent, over the current interval
    total = np.zeros(m)
    exponent = np.zeros(m, dtype=np.int64)
    runs = np.empty(m)
    every = _rescale_interval(cols, kbar, L)
    for t, f in enumerate(cols):
        last = rows[(t + 1) % L]
        done += last
        np.add.reduce(ring, axis=0, out=runs)
        ring *= kbar
        np.multiply(runs, f, out=last)
        if (t + 1) % every == 0:
            total += np.ldexp(done, exponent)
            done.fill(0.0)
            shift = np.frexp(np.abs(ring).max(axis=0))[1]
            np.ldexp(ring, -shift, out=ring)
            exponent += shift
    total += np.ldexp(done, exponent)
    return total * kbar


def ray_log_inner_annealed_iid(tp: TiltParams, eps: EpsilonLaw, cfg: StoppingConfig,
                               horizon: int) -> float:
    """Exact annealed inner value: free-symbol factor u(ell) - kbar at every site."""
    w = float(tp.u_array[cfg.ell]) - eps.kbar
    val = ray_inner_values(np.full((1, horizon), w), eps.kbar, cfg.L)[0]
    return math.log(val)


def _ray_chunk_filler(law, ell: int, horizon: int, seed: int, u: float = 1.0,
                      kbar: float = 0.0):
    """fill(c, out): u * xi(site t*ell, ell) - kbar for chunk c's replicas.

    ``out`` has shape (horizon, size), time-major. Chunk c draws from
    derive_seed(seed, c) in row blocks, which continue one Generator stream
    exactly as a single (size, horizon) draw would. With the defaults u = 1
    and kbar = 0 the filled values are xi itself, bit for bit.
    """
    if isinstance(law, IIDProductLaw):
        values = u * law.xi_values()[:, ell] - kbar
        cuts = np.cumsum(law.weights)[:-1]
        block = 16

        def fill(c, out):
            rng = np.random.default_rng(derive_seed(seed, c))
            rows = min(block, out.shape[1])
            draws = np.empty((rows, horizon))
            above = np.empty((rows, horizon), dtype=bool)
            atom = np.empty((rows, horizon), dtype=np.intp)
            picked = np.empty((rows, horizon))
            for r0 in range(0, out.shape[1], block):
                n = min(block, out.shape[1] - r0)
                rng.random(out=draws[:n])
                # atom index = number of cumulative weights, last one excluded, <= draw
                atom[:n] = 0
                for cut in cuts:
                    np.greater_equal(draws[:n], cut, out=above[:n])
                    atom[:n] += above[:n]
                np.take(values, atom[:n], out=picked[:n])
                out[:, r0:r0 + n] = picked[:n].T

        return fill
    if isinstance(law, MarkovFieldLaw):
        means = law.marginal_means()
        sites = np.arange(horizon)[:, None] * direction_vectors(law.dimension)[ell][None, :]
        lo = np.minimum(sites.min(axis=0), 0)
        hi = np.maximum(sites.max(axis=0), 0)
        box = Box(tuple(int(v) for v in lo), tuple(int(v) for v in hi))

        def fill(c, out):
            for i in range(out.shape[1]):
                env = sample_environment(law, derive_seed(seed, c, i), box)
                out[:, i] = u * (env.omega_many(sites)[:, ell] / means[ell]) - kbar

        return fill
    raise TypeError(f"unsupported law type {type(law)!r}")


def sample_ray_xi(law, ell: int, n_rows: int, horizon: int, seed: int,
                  threads: int = 1) -> np.ndarray:
    """xi(site t*ell, ell) for independent environment replicas, shape (n, H).

    The dense form of the chunk sampler that ``certify_gap`` streams; the
    result is the transpose of a time-major buffer. Raises BudgetError, before
    anything is allocated, when that buffer would exceed MEMORY_BUDGET.
    """
    need = n_rows * horizon * 8
    if need > MEMORY_BUDGET:
        raise BudgetError(f"{n_rows} x {horizon} ray factors need {need / 2**20:.0f} MiB, "
                          f"over the {MEMORY_BUDGET / 2**20:.0f} MiB budget")
    fill = _ray_chunk_filler(law, ell, horizon, seed)
    xi = np.empty((horizon, n_rows))
    list(_chunk_stream(lambda c, start, size: fill(c, xi[:, start:start + size]),
                       n_rows, threads))
    return xi.T


def _require_product_law(law, route: str):
    """Routes that close the environment mean atom by atom need a product law."""
    if not isinstance(law, IIDProductLaw):
        raise ValueError(f"{route} needs an i.i.d. product law (law kind 'iid-product'), "
                         f"not {type(law).__name__}")


def _log_positive(vals: np.ndarray) -> np.ndarray:
    if np.any(vals <= 0.0):
        raise ValueError("inner block expectation is not positive; the disorder is too "
                         "large for the signed free-symbol weights at this kbar")
    return np.log(vals)


def quenched_ray_log_inner(tp: TiltParams, eps: EpsilonLaw, cfg: StoppingConfig,
                           xi_rows: np.ndarray) -> np.ndarray:
    """log inner block expectation per environment row, exact given the row."""
    u_ell = float(tp.u_array[cfg.ell])
    return _log_positive(ray_inner_values(u_ell * np.atleast_2d(xi_rows) - eps.kbar,
                                          eps.kbar, cfg.L))


def _stream_inner_values(tp: TiltParams, eps: EpsilonLaw, cfg: StoppingConfig, law,
                          n_rows: int, horizon: int, seed: int,
                          threads: int = 1) -> np.ndarray:
    """Exact inner block value per environment replica, one chunk at a time.

    Pool threads fill the free factors of the next chunks while the calling
    thread runs the recursion on the current one, in chunk order, so no
    (n_rows, horizon) array is ever held and the result does not depend on
    ``threads``. The environment rows are those of ``sample_ray_xi(law,
    cfg.ell, n_rows, horizon, seed)``. Raises BudgetError, before anything is
    sampled, when the chunk buffers in flight would exceed MEMORY_BUDGET.
    """
    rows = min(CHUNK, n_rows)
    in_flight = min(threads, -(-n_rows // CHUNK)) + 1
    need = in_flight * rows * horizon * 8
    if need > MEMORY_BUDGET:
        raise BudgetError(f"{in_flight} chunk buffers of {rows} x {horizon} factors need "
                          f"{need / 2**20:.0f} MiB, over the {MEMORY_BUDGET / 2**20:.0f} MiB "
                          "budget")
    fill = _ray_chunk_filler(law, cfg.ell, horizon, seed, float(tp.u_array[cfg.ell]), eps.kbar)

    def factors(c, start, size):
        buf = np.empty((horizon, size))
        fill(c, buf)
        return buf

    return np.concatenate([ray_inner_values(buf.T, eps.kbar, cfg.L)
                           for buf in _chunk_stream(factors, n_rows, threads)])


# ---------------------------------------------------------------------------
# the two bounds and the gap report
# ---------------------------------------------------------------------------

@dataclass
class BoundEstimate:
    value: float
    stderr: float
    log_inner: float
    log_inner_stderr: float
    horizon: int
    replicas: int


def _block_constants(tp: TiltParams, eps: EpsilonLaw, cfg: StoppingConfig) -> tuple:
    """Validate a block problem and return (E[tau_1], W), shared by both bounds and the gap."""
    validate_stopping(tp, cfg)
    eps.validate_against(tp)
    return expected_tau(eps, cfg), log_w_const(tp, cfg.ell)


def bound_Ia(tp: TiltParams, eps: EpsilonLaw, cfg: StoppingConfig, law, replicas: int,
             *, horizon: int | None = None, seed: int = 0, threads: int = 1) -> BoundEstimate:
    """W - log(annealed inner block value) / E[tau_1], by block sampling.

    The Monte Carlo check of ``GapReport.I_a`` for product laws, with a
    delta-method standard error on the log. On the ray each site is visited
    once, so the environment mean of the psi product closes site by site:
    every free symbol contributes the mean psi factor.
    """
    et, w = _block_constants(tp, eps, cfg)
    h = horizon or choose_horizon(eps, cfg)
    _require_product_law(law, "bound_Ia")
    u_ell = float(tp.u_array[cfg.ell])
    mean_psi = float(law.weights @ psi_factor(tp, eps, law.xi_values()[:, cfg.ell], cfg.ell))
    factors = np.full(h, mean_psi)

    def one_chunk(c, start, size):
        rng = np.random.default_rng(derive_seed(seed, 7, c))
        return sample_ray_block_values(factors, eps.kbar, u_ell, cfg.L, size, rng)

    vals = np.concatenate(list(_chunk_stream(one_chunk, replicas, threads)))
    mean = vals.mean()
    if mean <= 0.0:
        raise BudgetError("all sampled blocks were off-ray; increase replicas")
    se = vals.std(ddof=1) / math.sqrt(len(vals))
    li, li_se = float(np.log(mean)), float(se / mean)
    return BoundEstimate(w - li / et, li_se / et, li, li_se, h, replicas)


def bound_Iq(tp: TiltParams, eps: EpsilonLaw, cfg: StoppingConfig, law,
             env_replicas: int, block_replicas: int = 0, *, horizon: int | None = None,
             seed: int = 0, threads: int = 1) -> BoundEstimate:
    """W - E_env[log inner block value] / E[tau_1], by nested block sampling.

    The Monte Carlo check of ``GapReport.I_q`` on the same environment rows.
    The inner replica count doubles until the estimate moves by less than half
    an outer standard error, the classic control for the downward bias of the
    log of an inner Monte Carlo mean. A round in which some environment
    samples no on-ray block settles nothing and also doubles the count.
    """
    et, w = _block_constants(tp, eps, cfg)
    h = horizon or choose_horizon(eps, cfg)
    xi = sample_ray_xi(law, cfg.ell, env_replicas, h, derive_seed(seed, 1), threads)
    psi = psi_factor(tp, eps, xi, cfg.ell)
    u_ell = float(tp.u_array[cfg.ell])
    inner = max(block_replicas, 64)
    prev = None
    while True:
        means = [sample_ray_block_values(psi[e], eps.kbar, u_ell, cfg.L, inner,
                                         np.random.default_rng(derive_seed(seed, 11, e, inner))
                                         ).mean() for e in range(env_replicas)]
        if min(means) > 0.0:
            li = np.array([math.log(m) for m in means])
            mean = float(li.mean())
            se = float(li.std(ddof=1) / math.sqrt(env_replicas)) if env_replicas > 1 else 0.0
            if prev is not None and abs(mean - prev) < 0.5 * max(se, 1e-12):
                break
            prev = mean
        else:
            prev = None
        if inner > 10**6:
            raise BudgetError("inner replica doubling exceeded its budget before settling")
        inner *= 2
    return BoundEstimate(w - mean / et, se / et, mean, se, h, env_replicas)


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
    trace: np.ndarray = field(default=None, repr=False, compare=False)

    @property
    def I_a(self) -> float:
        """The annealed block bound W - annealed_side, exact at this horizon."""
        return self.W - self.annealed_side

    @property
    def I_q(self) -> float:
        """The quenched block bound W - quenched_side, exact given the replica rows."""
        return self.W - self.quenched_side

    def to_dict(self) -> dict:
        out = {k: getattr(self, k) for k in (
            "ell", "L", "kbar", "horizon", "W", "expected_block", "quenched_side",
            "quenched_stderr", "annealed_side", "annealed_stderr", "gap", "stderr",
            "significance", "replicas", "seed", "verdict")}
        out["ell"] = list(self.ell)
        return out


def certify_gap(tp: TiltParams, eps: EpsilonLaw, cfg: StoppingConfig, law,
                budget: int, *, horizon: int | None = None, tail: float = 1e-4,
                seed: int = 0, threads: int = 1) -> GapReport:
    """Estimate both sides of the block-level mean-log versus log-mean split.

    Common truncation horizon and, where the annealed side needs sampling,
    common environment draws keep the two sides comparable term by term. The
    strict inequality is declared certified at significance > 5, falsified
    below -3, and inconclusive in between. Without a fixed ``horizon``, the
    horizon is the smallest H with P(tau_1 > H) < ``tail``.
    """
    et, w = _block_constants(tp, eps, cfg)
    if cfg.L < 2:
        raise ValueError("block estimators need L >= 2")
    if budget < 2:
        raise ValueError("the gap needs at least 2 replicas for a standard error")
    h = horizon or choose_horizon(eps, cfg, tail)
    log_inner = _log_positive(_stream_inner_values(tp, eps, cfg, law, budget, h,
                                                    derive_seed(seed, 1), threads))
    if np.ptp(log_inner) == 0.0:
        # degenerate environment: the mean is the common value, exactly
        q_side, q_se = float(log_inner[0]) / et, 0.0
    else:
        q_side = float(log_inner.mean()) / et
        q_se = float(log_inner.std(ddof=1) / math.sqrt(budget)) / et
    if isinstance(law, IIDProductLaw):
        a_side = ray_log_inner_annealed_iid(tp, eps, cfg, h) / et
        a_se = 0.0
    else:
        # same environment rows on both sides (common random numbers)
        a_side = float(logmeanexp(log_inner)) / et
        a_se = float(jackknife_stderr_logmean(log_inner)) / et
    gap = a_side - q_side
    se = math.hypot(q_se, a_se)
    if se == 0.0:
        sig = 0.0 if gap == 0.0 else math.copysign(float("inf"), gap)
    else:
        sig = gap / se
    verdict = "certified" if sig > 5.0 else ("falsified" if sig < -3.0 else "inconclusive")
    return GapReport(
        ell=tuple(int(v) for v in direction_vectors(tp.dimension)[cfg.ell]),
        L=cfg.L, kbar=eps.kbar, horizon=h, W=w, expected_block=et,
        quenched_side=q_side, quenched_stderr=q_se, annealed_side=a_side,
        annealed_stderr=a_se, gap=gap, stderr=se, significance=sig,
        replicas=budget, seed=seed, verdict=verdict, trace=log_inner)


def exact_gap_oracle(tp: TiltParams, eps: EpsilonLaw, cfg: StoppingConfig,
                     law: IIDProductLaw, horizon: int, cap: int = 2**21) -> tuple:
    """Both sides at a small horizon by full enumeration over ray environments.

    Enumerates every assignment of atoms to the ray sites (K^H of them), runs
    the exact inner recursion per assignment and closes the outer expectation
    in exact arithmetic. Returns (quenched_side, annealed_side) on the same
    truncated functional as ``certify_gap`` at this horizon.
    """
    k = len(law.weights)
    if k**horizon > cap:
        raise BudgetError(f"{k}^{horizon} ray environments exceed the oracle cap {cap}")
    grids = np.meshgrid(*([np.arange(k)] * horizon), indexing="ij")
    idx = np.stack([g.ravel() for g in grids], axis=1)  # (K^H, H)
    probs = np.prod(law.weights[idx], axis=1)
    xi_rows = law.xi_values()[:, cfg.ell][idx]
    log_inner = quenched_ray_log_inner(tp, eps, cfg, xi_rows)
    et = expected_tau(eps, cfg)
    quenched = float(probs @ log_inner) / et
    annealed = float(logsumexp(np.log(probs) + log_inner)) / et
    return quenched, annealed


# ---------------------------------------------------------------------------
# rate points
# ---------------------------------------------------------------------------

@dataclass
class RatePointEstimate:
    x: tuple
    I_a: float
    I_q: float
    stderr_a: float
    stderr_q: float
    method: str
    horizon: int


def _rationalize(x: np.ndarray, max_den: int = 64) -> int:
    for q in range(1, max_den + 1):
        if np.all(np.abs(x * q - np.round(x * q)) < 1e-9):
            return q
    raise ValueError(f"velocity {x} has no small rational representation for lattice targets")


def rate_point(law, x, method: str = "enumeration", *, seed: int = 0, horizon: int = 400,
               env_replicas: int = 8, boundary_sites: int = 10**4,
               theta_radius: float = 1.2, theta_points: int = 41,
               mc_replicas: int = 4000, mc_horizon: int = 200) -> RatePointEstimate:
    """Paired annealed/quenched rate estimates at one velocity.

    Boundary lattice directions use the straight-path forms: the quenched rate
    is the mean of -log omega along the ray (law of large numbers), the
    annealed rate is -log E[omega] (exact for product laws). Interior points
    use either point-probability decay with first-order Richardson
    extrapolation in 1/N ("enumeration") or the tilted free-energy route
    followed by the Legendre transform ("tilted-mc", product laws only).
    """
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    d = law.dimension
    x1 = float(np.abs(x).sum())
    if x1 > 1.0 + 1e-12:
        raise ValueError(f"velocity {x} outside the unit l1 ball")
    if abs(x1 - 1.0) <= 1e-12:
        return _rate_point_boundary(law, x, seed=seed, n_sites=boundary_sites)
    if method == "enumeration":
        return _rate_point_dp(law, x, seed=seed, horizon=horizon, env_replicas=env_replicas)
    if method == "tilted-mc":
        _require_product_law(law, "rate method 'tilted-mc'")
        return _rate_point_tilted(law, x, seed=seed, horizon=mc_horizon, replicas=mc_replicas,
                                  theta_radius=theta_radius, theta_points=theta_points)
    raise ValueError(f"unknown method {method!r}")


def _rate_point_boundary(law, x, *, seed: int, n_sites: int) -> RatePointEstimate:
    from .environments import direction_index

    ell = direction_index(np.round(x).astype(np.int64))
    d = law.dimension
    vec = direction_vectors(d)[ell]
    sites = np.arange(n_sites)[:, None] * vec[None, :]
    lo = np.minimum(sites.min(axis=0), 0)
    hi = np.maximum(sites.max(axis=0), 0)
    env = sample_environment(law, derive_seed(seed, 21), Box(tuple(lo), tuple(hi)))
    logs = np.log(env.omega_many(sites)[:, ell])
    i_q = float(-logs.mean())
    se_q = float(logs.std(ddof=1) / math.sqrt(n_sites))
    if isinstance(law, IIDProductLaw):
        i_a = float(-math.log(law.marginal_mean(ell)))
        se_a = 0.0
    else:
        # correlated ray: short-product estimate, reported with its jackknife error
        n = min(n_sites, 64)
        rows = np.empty(max(32, n_sites // 256))
        for r in range(len(rows)):
            e = sample_environment(law, derive_seed(seed, 22, r), Box(tuple(lo), tuple(hi)))
            rows[r] = np.log(e.omega_many(sites[:n])[:, ell]).sum()
        i_a = float(-logmeanexp(rows) / n)
        se_a = float(jackknife_stderr_logmean(rows) / n)
    return RatePointEstimate(tuple(float(v) for v in x), i_a, i_q, se_a, se_q,
                             "boundary", n_sites)


def _rate_point_dp(law, x, *, seed: int, horizon: int, env_replicas: int) -> RatePointEstimate:
    d = law.dimension
    q = _rationalize(x)
    base = q if (int(round(q * np.abs(x).sum())) - q) % 2 == 0 else 2 * q
    n2 = max(2 * base, 2 * base * round(horizon / (2 * base)))
    n1 = n2 // 2
    zero_dis = law.disorder() == 0.0 if isinstance(law, IIDProductLaw) else False

    def decay(env, n):
        target = np.round(n * x).astype(np.int64)
        return -log_point_probability_dp(env, n, target) / n

    reps = 1 if zero_dis else env_replicas
    i_r = np.empty(reps)
    logp1 = np.empty(reps)
    logp2 = np.empty(reps)
    for r in range(reps):
        env = sample_environment(law, derive_seed(seed, 31, r), centered_box(d, n2))
        a1, a2 = decay(env, n1), decay(env, n2)
        i_r[r] = 2.0 * a2 - a1  # first-order extrapolation in 1/N
        logp1[r] = -a1 * n1
        logp2[r] = -a2 * n2
    i_q = float(i_r.mean())
    se_q = float(i_r.std(ddof=1) / math.sqrt(reps)) if reps > 1 else 0.0
    if zero_dis:
        return RatePointEstimate(tuple(float(v) for v in x), i_q, i_q, 0.0, 0.0,
                                 "enumeration", n2)
    # annealed decay: environment average of the quenched point probability
    a1 = -logmeanexp(logp1) / n1
    a2 = -logmeanexp(logp2) / n2
    i_a = float(2.0 * a2 - a1)
    loo = np.empty(reps)
    for r in range(reps):
        keep = np.arange(reps) != r
        loo[r] = 2.0 * (-logmeanexp(logp2[keep]) / n2) - (-logmeanexp(logp1[keep]) / n1)
    se_a = float(math.sqrt((reps - 1) / reps * np.sum((loo - loo.mean()) ** 2)))
    return RatePointEstimate(tuple(float(v) for v in x), i_a, i_q, se_a, se_q,
                             "enumeration", n2)


def _rate_point_tilted(law, x, *, seed: int, horizon: int, replicas: int,
                       theta_radius: float, theta_points: int) -> RatePointEstimate:
    d = law.dimension
    tp = solve_tilt(law, x)
    axes = [np.linspace(-theta_radius, theta_radius, theta_points)] * d
    grid = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=1)
    env = sample_environment(law, derive_seed(seed, 42), centered_box(d, horizon))
    # one shared path sample per mode, reweighted across the whole grid
    ests_a = _tilted_grid_values(tp, law, None, grid, horizon, replicas, derive_seed(seed, 43))
    ests_q = _tilted_grid_values(tp, law, env, grid, horizon, replicas, derive_seed(seed, 44))
    nodes = grid + tp.theta_array
    i_a = legendre_transform(nodes, ests_a - math.log(tp.D), x)
    i_q = legendre_transform(nodes, ests_q - math.log(tp.D), x)
    # crude error proxy: the jackknife scale of a single free-energy node
    se = 1.0 / math.sqrt(replicas) / horizon
    return RatePointEstimate(tuple(float(v) for v in x), float(i_a), float(i_q),
                             se, se, "tilted-mc", horizon)


def _tilted_grid_values(tp, law, env, grid, horizon, replicas, seed) -> np.ndarray:
    d = tp.dimension
    rng = np.random.default_rng(seed)
    steps = rng.choice(2 * d, size=(replicas, horizon), p=tp.u_array)
    flat, ends = path_sites(steps, d)
    if env is None:
        base = site_grouped_log_moment(law.xi_values(), law.weights, flat, steps)[1]
    else:
        base = realized_log_xi(env, tp.means_array, horizon)[flat, steps].sum(axis=1)
    out = np.empty(len(grid))
    for g, theta in enumerate(grid):
        out[g] = logmeanexp(base + ends @ theta) / horizon
    return out
