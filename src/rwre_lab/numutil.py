"""Shared numerics: stable and exact sums, counter-based hashing, seed derivation, word lists.

Also ``deferred_names``, with which a module imports a sibling only when a
name of it is first used.
"""

from __future__ import annotations

import math

import numpy as np

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_S30, _S27, _S31 = np.uint64(30), np.uint64(27), np.uint64(31)


MEMORY_BUDGET = 2**30  # bytes one dense buffer (ray factors, tau draws) may hold
LATTICE_Q_MAX = 64  # the largest denominator lattice_denominator tries


class BudgetError(RuntimeError):
    """Raised when an exact computation would exceed its configured budget."""


def check_memory(need: int, what: str):
    """Raise BudgetError, led by ``what`` (it names the key), if ``need`` bytes pass the budget."""
    if need > MEMORY_BUDGET:
        raise BudgetError(f"{what}: {need >> 20} MiB, over the {MEMORY_BUDGET >> 20} MiB budget")


def mix64(x):
    """SplitMix64 finalizer. Accepts uint64 scalars or arrays, returns same."""
    with np.errstate(over="ignore"):  # uint64 arithmetic wraps modulo 2^64
        x = x + _GOLDEN  # a new array (or scalar), so the steps below may work in place
        x ^= x >> _S30
        x *= _MIX1
        x ^= x >> _S27
        x *= _MIX2
        x ^= x >> _S31
        return x


def derive_seed(seed: int, *indices: int) -> int:
    """Deterministically derive a child seed from a root seed and an index path.

    Used to give every replica / chunk / subsystem its own independent stream
    while keeping results a pure function of the root seed.
    """
    h = np.uint64(seed & 0xFFFFFFFFFFFFFFFF)
    for ix in indices:
        h = mix64(h ^ np.uint64(ix & 0xFFFFFFFFFFFFFFFF))
    return int(h)


def site_words(seed: int, sites: np.ndarray, stream: int = 0) -> np.ndarray:
    """Raw 64-bit hash word per lattice site, a pure function of (seed, stream, site).

    ``sites`` is an integer array of shape (n, d); negative coordinates are
    folded through two's complement so the hash is defined on all of Z^d.
    The key derive_seed(seed, stream) absorbs the coordinates one axis at a
    time, h <- mix64(h ^ x_axis), so the word of (x_1, ..., x_d) is
    mix64(site_words(seed, (x_1, ..., x_{d-1}), stream) ^ x_d): a caller
    may hash a shared prefix once.
    """
    sites = np.asarray(sites, dtype=np.int64)
    if sites.ndim == 1:
        sites = sites[None, :]
    h = np.full(sites.shape[0], np.uint64(derive_seed(seed, stream)), dtype=np.uint64)
    for axis in range(sites.shape[1]):
        h = mix64(h ^ sites[:, axis].astype(np.uint64))
    return h


def site_uniforms(seed: int, sites: np.ndarray, stream: int = 0) -> np.ndarray:
    """Uniform [0, 1) value per lattice site: the top 53 bits of its ``site_words`` word."""
    return (site_words(seed, sites, stream) >> np.uint64(11)).astype(np.float64) * (2.0**-53)


def logsumexp(a) -> float:
    a = np.asarray(a, dtype=np.float64)
    amax = np.max(a)
    amax = amax if np.isfinite(amax) else 0.0
    return float(np.log(np.sum(np.exp(a - amax))) + amax)


def logmeanexp(a) -> float:
    a = np.asarray(a, dtype=np.float64)
    return logsumexp(a) - math.log(a.size)


def lattice_denominator(x, what: str = "velocity") -> int:
    """The least q <= LATTICE_Q_MAX with q x on the lattice, to 1e-9; ValueError (``what``) if none."""
    x = np.asarray(x, dtype=np.float64)
    for q in range(1, LATTICE_Q_MAX + 1):
        if np.all(np.abs(x * q - np.round(x * q)) < 1e-9):
            return q
    raise ValueError(f"{what} = {x.tolist()} has no lattice denominator q <= {LATTICE_Q_MAX}: "
                     "q x is off the lattice for every such q")


def words(k: int, n: int) -> np.ndarray:
    """Every length-n word over 0..k-1: the one block of ``word_blocks``; callers bound k^n."""
    return next(word_blocks(k, n, k**n))


def word_blocks(k: int, n: int, rows: int):
    """The k^n words of length n over 0..k-1 in lexicographic order, ``rows`` at a time.

    Each block is an (m, n) C-contiguous int64 array, m <= rows, whose row i
    spells its index in the whole list in base k, most significant letter
    first: the order of ``itertools.product(range(k), repeat=n)``. At n = 0
    the one block is the (1, 0) empty word.
    """
    powers = k ** np.arange(n - 1, -1, -1, dtype=np.int64)
    for start in range(0, k**n, rows):
        index = np.arange(start, min(start + rows, k**n), dtype=np.int64)
        yield index[:, None] // powers % k


def ordered_dot(a, b) -> np.ndarray:
    """a @ b, each inner sum taken left to right whatever the BLAS.

    Shapes follow ``np.matmul``, batch axes broadcast included. A BLAS
    orders and fuses an inner sum by the width of the call, so its bits
    would depend on how many rows ride along; here every output entry is
    a[0] b[0] + a[1] b[1] + ..., rounded after each step.
    """
    a, b = np.asarray(a), np.asarray(b)
    lhs = a[None] if a.ndim == 1 else a
    rhs = b[:, None] if b.ndim == 1 else b
    out = lhs[..., :, :1] * rhs[..., :1, :]
    for j in range(1, lhs.shape[-1]):
        out += lhs[..., :, j:j + 1] * rhs[..., j:j + 1, :]
    if a.ndim == 1:
        out = out[..., 0, :]
    return out[..., 0] if b.ndim == 1 else out


def loo_logmeanexp(logw) -> np.ndarray:
    """Leave-one-out log-mean-exp of (n,) logs, n >= 2: entry i omits entry i.

    log(e^total - e^w_i) is taken stably; only the largest entry, which may
    hold more than half the total, can cancel, so its sum is taken directly.
    """
    logw = np.asarray(logw, dtype=np.float64)
    total = logsumexp(logw)
    with np.errstate(divide="ignore"):
        loo = total + np.log1p(-np.exp(logw - total))
    top = int(np.argmax(logw))
    loo[top] = logsumexp(np.delete(logw, top))
    loo -= math.log(logw.size - 1)
    return loo


def jackknife_stderr(loo) -> float:
    """Jackknife standard error from the n leave-one-out values of an estimate; NaN if n < 2."""
    loo, n = np.asarray(loo, dtype=np.float64), np.size(loo)
    return float(math.sqrt((n - 1) / n * np.sum((loo - loo.mean()) ** 2))) if n > 1 else math.nan


def fsum(values) -> float:
    """Compensated summation; wraps math.fsum for iterables and arrays."""
    return math.fsum(np.asarray(values, dtype=np.float64).ravel().tolist())


def fsum_parts(values, parts: list) -> list:
    """A few floats whose exact sum is the exact sum of ``parts`` and ``values``.

    ``math.fsum`` rounds an exact sum correctly, so each new part is the
    rounded remainder the parts before it leave, and the loop ends when that
    remainder is 0, which a sum of doubles only rounds to when it is exactly
    0, or is not finite. A sum over blocks can thus carry these parts alone
    (an expansion in Shewchuk's sense, DCG 18, 1997), and ``fsum`` of the
    parts is bit for bit ``fsum`` of every value folded in.
    """
    terms = parts + np.asarray(values, dtype=np.float64).ravel().tolist()
    out = []
    while (rest := math.fsum(terms)) != 0.0:
        out.append(rest)
        if not math.isfinite(rest):
            break
        terms.append(-rest)
    return out


def deferred_names(namespace: dict, owners: dict):
    """A module ``__getattr__`` (PEP 562) that imports each owner module on first use.

    ``owners`` maps a sibling module of ``namespace``'s package to the names
    it lends. The first lookup of such a name as an attribute of the module
    imports its owner and binds the name in ``namespace``, the module's
    globals, so later lookups, and a rebinding by ``setattr``, see it there
    like any other name. Callers read these names as attributes of their own
    module, ``sys.modules[__name__]``, never as bare globals, which skip
    ``__getattr__``.
    """
    owner_of = {name: module for module, names in owners.items() for name in names}

    def __getattr__(name: str):
        if name not in owner_of:
            raise AttributeError(f"module {namespace['__name__']!r} has no attribute {name!r}")
        # as ``from .owner import name`` does, so ``-X importtime`` reports the import
        module = __import__(owner_of[name], namespace, None, (name,), 1)
        value = namespace[name] = getattr(module, name)
        return value

    return __getattr__
