"""The forward evolution: exact point probabilities of the quenched walk in one environment.

``log_point_probability_dp`` carries the quenched walk's weights on the
two-sided light cone between the origin and a target, with exact
power-of-two rescaling, and only on the parity sublattice of each step, in
rotated coordinates (``_rotate``) where every move is a constant shift and
the cone is a box, a quarter of the cells of the axis-aligned box in d = 2.
The grid is stored flat, its axes in the order that needs the least flat
work and each trailing axis padded by one guard slot, so every move is one
multiply and one add over two contiguous ranges a fixed offset apart. Each
step zeroes what those ranges wrote outside its window, so every cell read
outside a window is exactly 0 and the peak that sets the rescale is the
window's own. The output is bit-identical to the box evolution's: each site
on a path to the target sums the same products in the same order, plus exact
zeros, and a power-of-two rescale is exact. The log is returned in a
canonical form, (exponent + e) log 2 + log m with (m, e) the frexp of the
rescaled value, which depends only on the exact value; so ``at=(m,
target_m)`` reads log P(X_m = target_m) at step m of the same evolution, as
``rate_point`` does for the half horizon of its Richardson pair, and gets the
value that an evolution ending there returns.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from .environments import MATERIALIZE_CAP, Box, Environment, direction_vectors
from .numutil import BudgetError


def _site(target, d: int) -> np.ndarray:
    """``target`` as a (d,) int array; a target of another length raises ValueError."""
    target = np.asarray(target, dtype=np.int64).reshape(-1)
    if target.shape != (d,):  # would broadcast against every axis
        raise ValueError(f"target {target.tolist()} is not a site of Z^{d}")
    return target


def _reachable(target: np.ndarray, n: int) -> bool:
    """Whether a walk from the origin can be at ``target`` after exactly n steps."""
    dist = int(np.abs(target).sum())
    return dist <= n and (n - dist) % 2 == 0


def light_cone(d: int, n: int, target) -> Box:
    """The bounding box of the sites of Z^d on some n-step walk from the origin to ``target``.

    An unreachable target raises ValueError.
    """
    target = _site(target, d)
    if not _reachable(target, n):
        raise ValueError(f"target {target.tolist()} is not reachable in {n} steps")
    # axis a spans [max(-j, t - (n - j)), min(j, t + (n - j))] at step j;
    # over 0 <= j <= n that reaches down to ceil((t - n) / 2), up to floor((t + n) / 2)
    return Box(tuple(-((n - target) // 2)), tuple((target + n) // 2))


def _rotate(z: np.ndarray, j: int) -> np.ndarray:
    """Sublattice coordinates y of displacements z (..., d) of parity j.

    d = 1: y = (z + j) / 2. d >= 2: with S = z_3 + ... + z_d,
    y_1 = (z_1 + z_2 + j - S) / 2, y_2 = (z_1 - z_2 + j - S) / 2 and y_a = z_a.
    """
    z = np.asarray(z, dtype=np.int64)
    y = z.copy()
    s = j - z[..., 2:].sum(axis=-1)
    if z.shape[-1] == 1:
        y[..., 0] = (z[..., 0] + j) // 2
    else:
        y[..., 0] = (z[..., 0] + z[..., 1] + s) // 2
        y[..., 1] = (z[..., 0] - z[..., 1] + s) // 2
    return y


def _unrotate(y: np.ndarray, j: int) -> np.ndarray:
    """The displacements z whose ``_rotate(z, j)`` is y."""
    z = y.copy()
    if y.shape[-1] == 1:
        z[..., 0] = 2 * y[..., 0] - j
    else:
        z[..., 0] = y[..., 0] + y[..., 1] - j + y[..., 2:].sum(axis=-1)
        z[..., 1] = y[..., 0] - y[..., 1]
    return z


@functools.lru_cache(maxsize=8)
def _sublattice_plan(d: int, n: int, target: tuple) -> tuple:
    """The flat layout of ``log_point_probability_dp`` for one geometry; pure in (d, n, target).

    The grid is held in w = y - floor(j/2) u, where y = ``_rotate(z, j)`` and
    u is the shift of +e1, so a cell stands for the same site at every step of
    one parity. Its axes are laid out in the order that minimises the flat
    work, the sum over steps of window rows times padded row length: the
    leading axis holds the rows, and each trailing axis gets one guard slot,
    so a move off the edge of a row lands in a guard slot, never in the next
    row. Cell w is flat index w @ stride + base.

    Returns (padded, stride, base, u, steps, sources): the padded shape in
    layout order; the flat stride of each rotated axis and the flat offset of
    w = 0; u; per step, (parity, write, moves, strips) with the flat write
    range of the next window, one (direction, source, destination) range
    per direction that moves any cell, and the layout-order slices of
    the write rows that lie outside the window; and per parity, the flat
    cells that some window of that parity holds inside the ``light_cone``
    box, and their displacements.
    """
    cone = light_cone(d, n, target)
    sigma = _rotate(direction_vectors(d), 1)  # each move is a constant shift of y
    u = sigma[0]
    j = np.arange(n + 1)[:, None]
    # the forward box from the origin, cut to the backward box from the target
    y_t = _rotate(np.asarray(target), n)
    lo = np.maximum(j * sigma.min(axis=0), y_t - (n - j) * sigma.max(axis=0))
    hi = np.minimum(j * sigma.max(axis=0), y_t - (n - j) * sigma.min(axis=0))
    lo, hi = lo - j // 2 * u, hi - j // 2 * u + 1  # half-open windows in w
    w_lo = lo.min(axis=0)
    lo, hi = lo - w_lo, hi - w_lo
    shape = hi.max(axis=0)
    rows = (hi - lo).sum(axis=0)
    order = list(min(itertools.permutations(range(d)),
                     key=lambda p: rows[p[0]] * math.prod(shape[list(p[1:])] + 1)))
    padded = (int(shape[order[0]]),) + tuple((shape[order[1:]] + 1).tolist())
    if math.prod(padded) > MATERIALIZE_CAP:
        raise BudgetError(f"forward evolution of {math.prod(padded)} cells exceeds cap "
                          f"{MATERIALIZE_CAP}")
    stride = np.empty(d, dtype=np.int64)
    stride[order] = np.cumprod((padded[1:] + (1,))[::-1])[::-1]
    flat_lo = (lo @ stride).tolist()  # first and past-last window cell per step
    flat_hi = ((hi - 1) @ stride + 1).tolist()
    # from step j, direction k moves the sources of window j that land in window j + 1
    shifts = sigma - j[:-1, :, None] % 2 * u
    src_lo = np.maximum(lo[:-1, None], lo[1:, None] - shifts)
    src_hi = np.minimum(hi[:-1, None], hi[1:, None] - shifts)
    nonempty = np.all(src_lo < src_hi, axis=2).tolist()
    a, b = (src_lo @ stride).tolist(), ((src_hi - 1) @ stride + 1).tolist()
    offset = (shifts @ stride).tolist()
    steps = []
    held = np.zeros((2,) + tuple(shape.tolist()), dtype=bool)
    for step in range(n):
        moves = tuple((k, slice(p, q), slice(p + v, q + v))
                      for k, (p, q, v, on) in enumerate(zip(a[step], b[step], offset[step],
                                                            nonempty[step])) if on)
        w_lo_next, w_hi_next = lo[step + 1, order].tolist(), hi[step + 1, order].tolist()
        rows_next = tuple(map(slice, w_lo_next, w_hi_next))
        strips = tuple(rows_next[:axis] + (side,) for axis in range(1, d)
                       for side in (slice(0, w_lo_next[axis]), slice(w_hi_next[axis], None))
                       if side.stop != 0)  # the high side always holds the guard slot
        steps.append((step % 2, slice(flat_lo[step + 1], flat_hi[step + 1]), moves, strips))
        held[(step % 2,) + tuple(map(slice, lo[step], hi[step]))] = True

    def inside(parity):
        w = np.argwhere(held[parity])
        z = _unrotate(w + w_lo, parity)
        keep = np.all((z >= cone.lo) & (z <= cone.hi), axis=1)
        return w[keep] @ stride, z[keep]

    sources = tuple(inside(p) for p in range(min(n, 2)))
    for arr in (stride, u) + tuple(a for pair in sources for a in pair):
        arr.setflags(write=False)
    return padded, stride, int(-w_lo @ stride), u, tuple(steps), sources


def _cell(plan: tuple, z, j: int) -> int:
    """The flat cell of site z at step j in the layout of ``plan``."""
    _, stride, base, u, _, _ = plan
    return int((_rotate(z, j) - j // 2 * u) @ stride) + base


def _log_scaled(value: float, exponent: int, n: int, site) -> float:
    """log(value * 2^exponent) as (exponent + e) log 2 + log m, with (m, e) = frexp(value)."""
    if value == 0.0:  # a config's rows are positive, so at a reachable site 0 is underflow
        raise BudgetError(f"P(X_{n} = {site.tolist()}) underflows: its mass fell more than "
                          "2^1074 below the peak of a step's window")
    m, e = math.frexp(float(value))
    return (exponent + e) * math.log(2.0) + math.log(m)


def log_point_probability_dp(env: Environment, n: int, target, at=None):
    """log P_{0,omega}(X_n = target) by scaled forward evolution on the two-sided light cone.

    -inf, without evolving, when the target is out of reach in n steps;
    BudgetError when its mass, or the readout's, underflows to 0.

    With ``at=(m, target_m)`` it returns the pair (log P(X_n = target),
    log P(X_m = target_m)), the second read at step m of the same evolution;
    it raises ValueError unless target_m lies on some n-step path from the
    origin to the target. Every cell on a path to target_m sums the same
    products, in the same order, as in the evolution that ends at target_m,
    and the rescales differ by powers of two only, so the readout equals
    ``log_point_probability_dp(env, m, target_m)`` unless one of those cells
    falls below the smallest normal double in one evolution and not the
    other.

    Only the parity sublattice {x : sum(x) = j mod 2} is evolved, in the
    coordinates of ``_rotate``, where every move is a constant shift and the
    cone is a box: step j spans the forward box [j s_min, j s_max] of the
    shifts s, cut to the backward box from the target. In d <= 2 that is
    exactly the set of sites on some path to the target; in d >= 3 a box
    around it. At step n both boxes shrink to the target, so the last window
    is its one cell.

    The grid is one flat array, padded by a guard slot on each trailing axis
    (``_sublattice_plan``), so a move is two contiguous ranges a fixed
    offset apart. Each step clears the flat range of its window, runs one
    multiply and one add per direction, in direction order, over those
    ranges, zeroes the strips of its rows that lie outside the window, and
    rescales by the power of two of the window's peak, so horizons far beyond
    the enumeration budget stay in floating-point range. Every cell that a
    step reads outside its window thus holds exactly 0, and a window cell
    sums the products of the whole-box evolution in the same order, plus
    exact zeros; the peak is the window's. Unzeroed, the mass that left the cone,
    or wrapped into a guard slot, would set the peak: against a strong drift
    it outgrows the window by hundreds of binades and pushes the window into
    subnormals, where the target loses digits. The log is returned in
    canonical form, (exponent + e) log 2 + log m with (m, e) = frexp of the
    rescaled value, so it depends only on the exact value, not on how the
    rescales split it.
    """
    d = env.law.dimension
    target = _site(target, d)
    m = -1  # no readout
    if at is not None:
        m, target_m = int(at[0]), _site(at[1], d)
        if not (0 <= m <= n and _reachable(target_m, m) and _reachable(target - target_m, n - m)):
            raise ValueError(f"site {target_m.tolist()} at step {m} lies on no {n}-step path "
                             f"to {target.tolist()}")
    if not _reachable(target, n):
        return float("-inf")
    plan = _sublattice_plan(d, n, tuple(target.tolist()))
    padded, _, _, _, steps, sources = plan
    size = math.prod(padded)
    # omega depends only on the parity of the step: one (2d, size) slab per parity
    flows = []
    for flat, z in sources:
        flow = np.zeros((2 * d, size))
        flow[:, flat] = env.omega_many(z).T
        flows.append(list(flow))  # one contiguous row per direction
    grid, new, scratch = np.zeros(size), np.zeros(size), np.empty(size)
    grid[_cell(plan, np.zeros(d, dtype=np.int64), 0)] = 1.0
    exponent = 0
    if at is not None:
        cell_m = _cell(plan, target_m, m)
        log_m = 0.0  # log P(X_0 = 0); a step m > 0 reads again
    for step, (parity, write, moves, strips) in enumerate(steps, 1):
        flow = flows[parity]
        new[write] = 0.0
        for k, src, dst in moves:
            np.add(new[dst], np.multiply(grid[src], flow[k][src], out=scratch[dst]), out=new[dst])
        rows = new.reshape(padded)
        for strip in strips:
            rows[strip] = 0.0
        live = new[write]
        _, e = math.frexp(np.maximum.reduce(live))
        if e:  # ldexp by 0 is the identity
            np.ldexp(live, -e, out=live)
            exponent += e
        grid, new = new, grid
        if step == m:
            log_m = _log_scaled(grid[cell_m], exponent, m, target_m)
    log_n = _log_scaled(grid[_cell(plan, target, n)], exponent, n, target)
    return log_n if at is None else (log_n, log_m)
