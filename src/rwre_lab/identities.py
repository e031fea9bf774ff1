"""The exact identity oracles of ``verify``: path batches and the identities they check.

A batch of paths is one format throughout: a (P, n) array of direction
indices, one row per path from the origin. ``step_blocks`` enumerates all
(2d)^n of them in lexicographic order, PATH_BLOCK at a time, as the words of
``numutil.word_blocks``, so an enumeration holds O(PATH_BLOCK n) numbers
however many the paths; ``path_positions`` and ``path_sites`` turn a batch
into the sites it visits, and ``endpoint_law`` adds weighted endpoints into
running totals in path order, as one ``np.bincount`` would. Path functionals
of the environment are evaluated by one routine each:
``site_grouped_log_moment`` closes the annealed moments of a stack of
positive tables over one grouping of the visits, and ``path_omegas`` is the
one quenched reader (omega along every path of a batch in one realized
environment). A path's value is computed in a fixed order of operations,
with no BLAS call that rounds by the width of its batch, so no result here
depends on the block size.

The identities:

* ``verify_identity_annealed`` and ``verify_identity_quenched``: the tilt's
  change of measure u(e) = D exp(<theta, e>) m(e) turns exponentially tilted
  expectations of the original walk into plain expectations of the
  auxiliary walk, annealed and in one realized environment.
* ``verify_psi_identity``: ``psi_factor`` is the per-step reweighting that
  restores the environment dependence inside the decomposed mechanism;
  summed against the symbol and step laws it reproduces u(e) * xi(x, e).
* ``decomposed_endpoint_distribution`` and ``qz_endpoint_distribution``: the
  decomposed mechanism and the auxiliary walk have one endpoint law.

Each sums over every path, or every (path, symbol word) pair, of one length,
block by block, within its budget.
"""

from __future__ import annotations

import math

import numpy as np

from .decomposition import EpsilonLaw, conditional_step_probs
from .environments import Environment, direction_vectors
from .numutil import BudgetError, fsum, fsum_parts, ordered_dot, word_blocks, words
from .tilting import TiltParams

PATH_BUDGET = 10**7  # paths one enumeration may hold
PATH_BLOCK = 2**10  # paths an oracle holds at once
FOLD_BUDGET = 10**5  # (theta, path block) folds of verify's identities, 0.35-0.55 ms each
JOINT_BUDGET = 10**7  # (path, symbol word) pairs one joint enumeration may hold


def check_paths(n: int, d: int, key: str = "n"):
    """Raise BudgetError, naming ``key``, if the (2d)^n paths of length n pass PATH_BUDGET.

    2d >= 2, so an n of PATH_BUDGET.bit_length() or more is refused before any power is taken.
    """
    if n >= PATH_BUDGET.bit_length() or (2 * d) ** n > PATH_BUDGET:
        raise BudgetError(f"{key} = {n} enumerates (2d)^n = {2 * d}^{n} paths, over the "
                          f"{PATH_BUDGET}-path budget")


def check_folds(thetas: int, n_max: int, d: int, key: str):
    """Raise BudgetError, naming ``key``, if thetas x path blocks at n = 1..n_max pass FOLD_BUDGET.

    ``_identity_sides`` folds each block into each theta's sums; n_max has passed ``check_paths``.
    """
    blocks = sum(-(-(2 * d) ** n // PATH_BLOCK) for n in range(1, n_max + 1))
    if thetas * blocks > FOLD_BUDGET:
        raise BudgetError(f"{key} = {thetas} thetas x {blocks} path blocks = {thetas * blocks} "
                          f"folds, over the {FOLD_BUDGET}-fold budget")


def step_blocks(n: int, d: int):
    """The (2d)^n paths of length n in lexicographic order, as (m, n) batches of m <= PATH_BLOCK.

    The path count is checked on the call, before any block is made.
    """
    check_paths(n, d)
    return word_blocks(2 * d, n, PATH_BLOCK)


def path_positions(steps: np.ndarray, d: int) -> np.ndarray:
    """Sites visited by a (P, n) batch of step sequences from the origin, shape (P, n+1, d)."""
    steps = np.asarray(steps, dtype=np.int64)
    pos = np.zeros((steps.shape[0], steps.shape[1] + 1, d), dtype=np.int64)
    np.cumsum(direction_vectors(d)[steps], axis=1, out=pos[:, 1:, :])
    return pos


def path_sites(steps: np.ndarray, d: int) -> tuple:
    """Departure sites and endpoints of a (P, n) batch of step sequences from the origin.

    Returns (flat_sites, ends). flat_sites[p, j] indexes the site that
    steps[p, j] leaves, in C order on the centered box of radius n - 1, as
    ``site_grouped_log_moment`` reads it; ends has shape (P, d).
    """
    pos = path_positions(steps, d)
    radius = max(pos.shape[1] - 2, 0)  # n - 1
    flat = np.ravel_multi_index(np.moveaxis(pos[:, :-1, :] + radius, 2, 0), (2 * radius + 1,) * d)
    return flat, pos[:, -1, :]


def endpoint_law(blocks, n: int, d: int) -> dict:
    """{site tuple: summed weight} over the endpoints of weighted n-step paths in Z^d.

    ``blocks`` yields (ends, weights) pairs, (P, d) endpoints and their (P,)
    weights. Each endpoint adds its paths' weights to a running total in
    block order, as one ``np.bincount`` over the whole batch would; the keys
    are the endpoints met, in lexicographic order.
    """
    shape = (2 * n + 1,) * d
    totals, met = np.zeros(math.prod(shape)), np.zeros(math.prod(shape), dtype=bool)
    for ends, weights in blocks:
        cells = np.ravel_multi_index(tuple((ends + n).T), shape)
        np.add.at(totals, cells, weights)
        met[cells] = True
    cells = np.flatnonzero(met)
    sites = np.stack(np.unravel_index(cells, shape), axis=-1) - n
    return {tuple(site): float(w) for site, w in zip(sites.tolist(), totals[cells])}


def site_grouped_log_moment(tables, weights, flat_sites: np.ndarray,
                            steps: np.ndarray) -> np.ndarray:
    """log E[prod_j tables[t, atom(site_j), step_j]] per table t and path, shape (T, P).

    ``tables`` is a (T, K, 2d) stack of positive tables over the atoms of a
    product law; ``weights`` are the atoms' probabilities, and ``flat_sites``
    and ``steps`` are (P, n). Each distinct site draws one atom, so the
    visits to a site close jointly as one mixture over atoms, and distinct
    sites multiply. The visits are grouped by (path, site, step) once and
    every table reads that grouping, so each row is the one its table would
    give alone. A path's entries depend on that path alone, not on the batch
    it rides in: every sum runs in a fixed order, the mixture over atoms in
    atom order. The mixture is taken in logs about each site's largest term,
    so long paths stay in range.
    """
    tables = np.asarray(tables, dtype=np.float64)
    n_paths, n = steps.shape
    if not steps.size:  # no steps, or no paths
        return np.zeros((len(tables), n_paths))
    two_d = tables.shape[-1]
    n_sites = int(flat_sites.max()) + 1
    path = np.arange(n_paths, dtype=np.int64)[:, None]
    keys, counts = np.unique(((path * n_sites + flat_sites) * two_d + steps).ravel(),
                             return_counts=True)
    # keys // two_d is one (path, site) pair per group and keys % two_d its
    # step; arrays are dropped once read, since the stack holds T tables of each
    group_starts = np.r_[0, np.flatnonzero(np.diff(keys // two_d)) + 1]
    path_starts = np.r_[0, np.flatnonzero(np.diff(keys[group_starts] // (two_d * n_sites))) + 1]
    log_terms = np.log(tables).take(keys % two_d, axis=-1)
    del keys
    log_terms *= counts
    del counts
    log_terms = np.add.reduceat(log_terms, group_starts, axis=-1)
    peak = log_terms.max(axis=-2, keepdims=True)
    log_terms -= peak
    terms = np.exp(log_terms, out=log_terms)
    mix = ordered_dot(weights, terms)  # a BLAS would round by the width of the batch
    del log_terms, terms
    return np.add.reduceat(peak[..., 0, :] + np.log(mix), path_starts, axis=-1)


def path_omegas(env: Environment, steps: np.ndarray) -> np.ndarray:
    """omega(X_{j-1}, step_j) along every path of a (P, n) batch in the fixed environment.

    Returns a (P, n) array; omega is read at every departure site of the batch
    with one ``omega_many`` call.
    """
    steps = np.asarray(steps, dtype=np.int64)
    d = env.law.dimension
    departures = path_positions(steps, d)[:, :-1].reshape(-1, d)
    omegas = env.omega_many(departures).reshape(steps.shape + (2 * d,))
    return np.take_along_axis(omegas, steps[..., None], axis=2)[..., 0]


def _identity_sides(tp: TiltParams, thetas, n: int, block_terms) -> tuple:
    """Both sides of a change-of-measure identity, summed over the paths of length n in blocks.

    ``block_terms(steps)`` reads one batch of paths (``step_blocks``) and
    returns a function of one (d,) theta giving the batch's lhs and rhs terms.
    Each side carries its exact expansion (``fsum_parts``) from block to block,
    so it is the ``fsum`` of all its terms at once, whatever the block size;
    rhs is then scaled by D^n. ``thetas`` is a (T, d) stack, which gives two
    (T,) arrays; every batch is read once per call, and each theta's sums
    are its own, so a row is the one its one-row stack gives, bit for bit.
    """
    thetas = np.asarray(thetas, dtype=np.float64)
    sums = [[[], []] for _ in thetas]  # the lhs and rhs expansions of each theta
    for steps in step_blocks(n, tp.dimension):
        terms = block_terms(steps)
        for th, sides in zip(thetas, sums):
            for side, values in enumerate(terms(th)):
                sides[side] = fsum_parts(values, sides[side])
    pairs = np.array([(fsum(lhs), tp.D**n * fsum(rhs)) for lhs, rhs in sums])
    return pairs[:, 0], pairs[:, 1]


def verify_identity_annealed(law, tp: TiltParams, thetas, n: int) -> tuple:
    """Both sides of the annealed change-of-measure identity, by enumeration.

    lhs: auxiliary-walk expectation of exp(<theta, Z_n>) times the exact
    annealed moment of the xi-product along the path.
    rhs: D^n times the annealed expectation of exp(<theta + theta_tilt, X_n>),
    computed from the original walk with exact annealed path weights.
    Both moments close atom by atom, so the law's sites must be independent.
    ``thetas`` is a (T, d) stack as in ``_identity_sides``; both moments are
    grouped once per block of paths.
    """
    tables = np.stack([law.xi, law.table])

    def block_terms(steps):
        flat, ends = path_sites(steps, tp.dimension)
        uw = np.prod(tp.u_array[steps], axis=1)
        xi_log, om_log = site_grouped_log_moment(tables, law.weights, flat, steps)
        return lambda th: (uw * np.exp(xi_log + ordered_dot(ends, th)),
                           np.exp(om_log + ordered_dot(ends, th + tp.theta_array)))

    return _identity_sides(tp, thetas, n, block_terms)


def annealed_identity_bytes(n_atoms: int, n: int, d: int) -> int:
    """Bytes ``verify_identity_annealed`` may hold at path length n for a law of n_atoms atoms.

    It groups one ``step_blocks`` batch of P = min(PATH_BLOCK, (2d)^n) paths
    at a time. The xi and omega tables each take n_atoms doubles per visit
    group, then reduce them per site, and the taken and reduced stacks live at
    once: 4 n_atoms doubles per path-step. The grouping keys, counts, sites
    and positions add at most 16 + 4d words per path-step. Traced peaks in d = 1 to 8 and for 1
    to 512 atoms sit at 0.39-0.98 of this.
    """
    return 8 * min(PATH_BLOCK, (2 * d) ** n) * n * (4 * n_atoms + 16 + 4 * d)


def verify_identity_quenched(env: Environment, tp: TiltParams, thetas, n: int) -> tuple:
    """Quenched version: xi and omega read from one fixed realization.

    ``thetas`` is a (T, d) stack as in ``_identity_sides``; omega is read
    along each block of paths once per call.
    """
    def block_terms(steps):
        ends = path_positions(steps, tp.dimension)[:, -1]
        uw = np.prod(tp.u_array[steps], axis=1)
        omegas = path_omegas(env, steps)
        xi_prod = np.prod(omegas / tp.means_array[steps], axis=1)
        om_prod = np.prod(omegas, axis=1)
        return lambda th: (uw * xi_prod * np.exp(ordered_dot(ends, th)),
                           om_prod * np.exp(ordered_dot(ends, th + tp.theta_array)))

    return _identity_sides(tp, thetas, n, block_terms)


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


def check_joint_pairs(d: int, n: int, key: str = "n"):
    """Raise BudgetError, naming ``key``, if the (path, word) pairs at length n pass JOINT_BUDGET.

    A path of length n has 2^n symbol words (``_joint_path_weights``): (4d)^n pairs. 4d >= 4,
    so an n of JOINT_BUDGET.bit_length() or more is refused before any power is taken.
    """
    small = n < JOINT_BUDGET.bit_length()
    if not small or (4 * d) ** n > JOINT_BUDGET:
        paths, words_n = ((2 * d) ** n, 2**n) if small else (f"{2 * d}^{n}", f"2^{n}")
        raise BudgetError(f"{key} = {n} enumerates (2d)^n = {paths} paths times 2^n = "
                          f"{words_n} symbol words, over the {JOINT_BUDGET}-pair budget")


def _joint_path_weights(tp: TiltParams, eps: EpsilonLaw, n: int,
                        env: Environment | None = None):
    """(steps, ends, xi, weights) of the paths of length n, block by block, by joint enumeration.

    An iterator over the ``step_blocks`` batches; the budget is checked on
    the call. weights[p] is the fsum over the symbol words of prod_j
    P(symbol_j) * P(step_j | symbol_j), each free symbol further weighted by
    psi of the xi realized in ``env`` when one is given (xi is then the
    (P, n) array of xi along the batch, else None), or by 1. A step s has
    weight with two symbols only, its own forced symbol s and the free
    symbol 2d; any other symbol forces another step, so every word left out
    has product exactly 0 and the exact sum is unchanged. Each word's
    product is taken left to right over its steps, so a path's weight does
    not depend on its batch.
    """
    d = tp.dimension
    check_joint_pairs(d, n)
    # step s's joint weight with its forced symbol (whose step law is 1 at s), and with the free one
    probs = eps.symbol_probs()
    pair = np.stack([probs[:-1], probs[-1] * conditional_step_probs(tp, eps, eps.free_symbol)],
                    axis=1)
    choice = words(2, n)  # (W, n): each step's symbol, 0 the forced one and 1 the free one

    def weigh(steps):
        ends = path_positions(steps, d)[:, -1]
        xi = None if env is None else path_omegas(env, steps) / tp.means_array[steps]
        per_step = pair[steps]  # (P, n, 2)
        if xi is not None:
            per_step[..., 1] *= psi_factor(tp, eps, xi, steps)
        prod = np.ones((len(steps), len(choice)))
        for j in range(n):
            prod *= per_step[:, j, choice[:, j]]
        weights = np.array([math.fsum(row) for row in prod.tolist()])
        return steps, ends, xi, weights

    return map(weigh, step_blocks(n, d))


def verify_psi_identity(tp: TiltParams, eps: EpsilonLaw, env: Environment, theta, n: int) -> tuple:
    """Both sides of the reweighting identity by exact joint enumeration.

    lhs sums over all (symbol sequence, path) pairs the product of symbol
    probabilities, conditional step probabilities, psi factors and the tilt
    exp(<theta, Z_n>); rhs is the plain auxiliary-walk expectation of
    exp(<theta, Z_n>) times the realized xi-product. Each side carries its
    exact expansion from block to block (``fsum_parts``).
    """
    theta = np.asarray(theta, dtype=np.float64)
    lhs, rhs = [], []
    for steps, ends, xi, weights in _joint_path_weights(tp, eps, n, env):
        tilt = np.array([math.exp(float(theta @ end)) for end in ends])
        lhs = fsum_parts(weights * tilt, lhs)
        rhs = fsum_parts(np.prod(tp.u_array[steps], axis=1) * tilt * np.prod(xi, axis=1), rhs)
    return fsum(lhs), fsum(rhs)


def qz_endpoint_distribution(tp: TiltParams, n: int) -> dict:
    """Endpoint law of the auxiliary walk by path enumeration."""
    d = tp.dimension
    return endpoint_law(((path_positions(steps, d)[:, -1], np.prod(tp.u_array[steps], axis=1))
                         for steps in step_blocks(n, d)), n, d)


def decomposed_endpoint_distribution(tp: TiltParams, eps: EpsilonLaw, n: int) -> dict:
    """Endpoint law of the decomposed mechanism by joint enumeration.

    Must coincide with ``qz_endpoint_distribution``; the marginal per step is
    kbar + free_prob * (u(e) - kbar)/free_prob = u(e), but this function does
    not use that simplification.
    """
    return endpoint_law(((ends, weights) for _, ends, _, weights
                         in _joint_path_weights(tp, eps, n)), n, tp.dimension)
