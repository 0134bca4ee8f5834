"""Vectorized enumeration kernels: grid evaluation, exact histograms, budgets.

Grid kernels (histograms, zero masks) need M < 2^31.  The worst-case
unreduced value of f picks one of three lanes: uint32 below 2^32, int64
below 2^63, and from there int64 with every product reduced mod M; the
reductions are a - M*(a // M), which beats ``%`` on blocks of 1024 values
or more.  eval_points_mod runs the same lanes on a list of points, plus a
fourth from M = 2^31 on, which only it reaches: exact Python ints.
Counts are exact integers throughout, so results are independent of block
partitioning and of the worker count: every block counts into one integer
histogram under a lock (a bincount when the block has at least M values,
else np.add.at), and counts and index lists merge by exact addition and
ordered concatenation.  _run_blocks cuts every long pass (these grids, the
circle walk, charsums' phase passes) into blocks of about 2^17 points, so
a block's accumulator and temporaries stay near the L2 cache.
Histograms and zero counts enumerate only the variables the polynomials
read and scale by grid^(free variables); the budget is charged for the
nominal grid.  At grid == modulus, a histogram or one polynomial's zero
count sums out a variable f reads linearly, exactly (_sum_out_linear).

Budgets: every enumeration is limited to the budget of the CLI run in
progress (its --budget), else IGUSA_BUDGET, else 10^8 points; there is no
per-call budget, and below 1 is refused.  IGUSA_WORKERS (default 1, capped
at os.cpu_count()) is the only worker setting; below 1 is refused.  Both are
read and checked once, as a settings scope opens (a CLI run, else the
outermost @scoped call), which holds them as one (budget, workers) pair;
outside a scope every read checks both afresh.
"""

from __future__ import annotations

import contextvars
import functools
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Sequence

import numpy as np

from .errors import BudgetExceededError
from .polynomials import Polynomial

DEFAULT_BUDGET = 10**8

# Target points per evaluation block: its accumulator, power tables and
# bincount copy (a few MiB at most) stay near the L2 cache.
_BLOCK_ELEMS = 1 << 17

_MAX_MODULUS = 2**31  # int64 products of two reduced residues stay exact
_SPLIT_POINTS = 1 << 13  # on smaller grids the split's numpy calls cost more than it saves

# Points touched since the last reset; CLI reports this per run.
_consumed = 0
# The settings scope in progress: its checked (budget, workers) (scoped).
_scope: contextvars.ContextVar[tuple[int, int] | None] = contextvars.ContextVar("settings", default=None)


def scoped(fn):
    """fn in a settings scope: the open one, else its own, ending with the call."""
    @functools.wraps(fn)
    def call(*args, **kwargs):
        token = _scope.set(_setting())
        try:
            return fn(*args, **kwargs)
        finally:
            _scope.reset(token)
    return call


def _setting(budget: int | None = None) -> tuple[int, int]:
    """The open scope's (budget, workers), else both read and checked afresh:
    budget (given, else IGUSA_BUDGET, else 10^8), then IGUSA_WORKERS (else 1,
    capped at os.cpu_count())."""
    if scope := _scope.get():
        return scope
    pair = []
    for value, name, default, what in ((budget, "IGUSA_BUDGET", DEFAULT_BUDGET, "budget"),
                                       (None, "IGUSA_WORKERS", 1, "worker count")):
        if value is None:
            text = os.environ.get(name)
            try:
                value = int(text) if text else default
            except ValueError:
                raise ValueError(f"{name} must be an integer, got {text!r}") from None
        if value < 1:
            raise ValueError(f"{what} must be positive, got {value}")
        pair.append(value)
    budget, workers = pair
    return budget, 1 if workers == 1 else min(workers, os.cpu_count() or 1)


def enumeration_budget() -> int:
    """The CLI run's --budget, else IGUSA_BUDGET, else 10^8 (_setting)."""
    return _setting()[0]


def default_workers() -> int:
    return _setting()[1]


def reset_meter() -> None:
    global _consumed
    _consumed = 0


def meter_consumed() -> int:
    return _consumed


def _charge(points: int, what: str) -> None:
    _charge_each([(points, what)])


def _charge_each(charges) -> None:
    """Charge each (points, what) in order against the scope's budget, read
    once, so that a replayed charge refuses what its build would."""
    global _consumed
    budget = enumeration_budget()
    for points, what in charges:
        if points > budget:
            raise BudgetExceededError(points, budget, what)
        _consumed += points


def _pow_vector(values: np.ndarray, e: int, modulus: int) -> np.ndarray:
    if e == 1:
        return values % modulus
    out = np.ones_like(values)
    base = values % modulus
    k = e
    while k:  # in place but for _reduce's quotient: one table of temporaries
        if k & 1:
            _reduce(np.multiply(out, base, out=out), modulus)
        k >>= 1
        if k:
            _reduce(np.multiply(base, base, out=base), modulus)
    return out


def _prepare_terms(f: Polynomial, modulus: int) -> list[tuple[tuple[int, ...], int]]:
    return [(e, cm) for e, c in f.terms.items() if (cm := c % modulus)]


def _reduce(a: np.ndarray, modulus: int) -> np.ndarray:
    """a mod modulus in place, for a >= 0.  numpy divides an integer array
    by a scalar with a multiply and a shift, so from about 1000 values on
    a - M*(a // M) beats ``%``; below that, or on exact Python ints, its two
    extra passes cost more than they save."""
    if a.size < 1024 or a.dtype == object:
        return np.remainder(a, modulus, out=a)
    q = a // modulus
    q *= modulus
    a -= q
    return a


def _block_values(
    terms: list[tuple[tuple[int, ...], int]],
    axes: Sequence[np.ndarray],
    shape: tuple[int, ...],
    modulus: int,
) -> np.ndarray:
    """Values of sum(terms) mod modulus at the points whose coordinates are
    the int64 arrays ``axes`` (one per variable, broadcast to ``shape``),
    flattened row-major.

    Coefficients and power tables are reduced below M, so the unreduced sum
    is at most worst = sum_terms c*(M-1)^v, v the number of variables in the
    term.  worst picks the lane: below 2^32 uint32, below 2^63 int64, both
    unreduced until the end; from 2^63 on int64 with every product reduced,
    since two residues below 2^31 multiply below 2^62 and the sum then stays
    below terms*M.  From M = 2^31 on, which only point lists reach: exact
    Python ints, every product reduced.  The last step is one ``_reduce``.
    """
    if modulus >= _MAX_MODULUS:
        lane, reduce_products = object, True
        axes = [a.astype(object) for a in axes]
    else:
        worst = sum(c * (modulus - 1) ** (len(e) - e.count(0)) for e, c in terms)
        lane = np.uint32 if worst < 2**32 else np.int64
        reduce_products = worst >= 2**63
    acc = np.zeros(shape, dtype=lane)
    pows: dict[tuple[int, int], np.ndarray] = {}  # one table per (variable, exponent)
    for e, c in terms:
        t: np.ndarray | int = c  # folded into the first factor
        for j, k in enumerate(e):
            if not k:
                continue
            if (j, k) not in pows:
                pows[j, k] = _pow_vector(axes[j], k, modulus).astype(lane, copy=False)
            t = t * pows[j, k]
            if reduce_products:
                t = _reduce(t, modulus)
        acc += t
    return _reduce(acc, modulus).reshape(-1)


def _box_chunks(sizes: Sequence[int]) -> list[tuple[int, int]]:
    """Axis-0 index chunks [a, b) of a grid with these axis lengths, about
    _BLOCK_ELEMS points each; they depend on the grid's shape alone."""
    step = max(1, _BLOCK_ELEMS // max(1, math.prod(sizes[1:])))
    return [(a, min(a + step, sizes[0])) for a in range(0, sizes[0], step)]


def _run_blocks(fn, sizes: Sequence[int]) -> list:
    """[fn(a, b) for each _box_chunks chunk [a, b) of the grid of these axis
    lengths], in chunk order, on the default_workers() threads."""
    blocks = _box_chunks(sizes)
    workers = default_workers()
    if workers <= 1 or len(blocks) <= 1:
        return [fn(a, b) for a, b in blocks]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(lambda block: fn(*block), blocks))


def _read_axes(polys) -> tuple[int, ...]:
    """The variables that some polynomial in polys reads, at least one.  A
    count over [0, grid)^n is grid^(n - len) times the count over these axes."""
    read = tuple(j for j, column in enumerate(zip(*[e for p in polys for e in p.terms])) if any(column))
    return read or (0,)


def _grid_blocks(polys, grid, modulus, what, step, axes=None, terms=None, int64=False) -> list:
    """step(values, lo) for each _run_blocks block [lo, hi) x [0, grid)^(k-1)
    of [0, grid)^k over the variables ``axes`` (default all n; k = 0 is one
    point), in block order; values(i) is polys[i] (or the term list terms[i],
    over axes) mod modulus on the block, flattened row-major (_block_values).
    Checks the modulus, charges grid^n points per polynomial, for the
    nominal n, and with int64 refuses grid^n from 2^63 on, before anything
    runs; each block builds its own power tables, so threads share no mutable state."""
    if modulus >= _MAX_MODULUS:
        raise ValueError(f"modulus {modulus} too large for the int64 kernel")
    n = polys[0].n
    _charge(grid**n * len(polys), what)
    if int64 and grid**n >= 2**63:  # free variables let a budget past 2^63 get here
        raise ValueError(f"{grid}^{n} points overflow the int64 histogram")
    axes = range(n) if axes is None else axes
    if terms is None:
        terms = [_prepare_terms(p, modulus) for p in polys]
        if len(axes) < n:  # drop the free variables' exponents, all 0
            terms = [[(tuple([e[j] for j in axes]), c) for e, c in t] for t in terms]
    inner = (grid,) * (len(axes) - 1)  # a block's shape past its rows
    rest = [np.arange(grid, dtype=np.int64).reshape((-1,) + (1,) * k) for k in reversed(range(len(inner)))]

    def work(lo, hi):  # the axes np.ix_ would make, as broadcast views
        block = [np.arange(lo, hi, dtype=np.int64).reshape((-1,) + (1,) * len(inner)), *rest]
        return step(lambda i: _block_values(terms[i], block, (hi - lo,) + inner, modulus), lo)

    return _run_blocks(work, [grid] * len(axes) or [1])


def _tally(length: int):
    """(add, total): add(keys) counts keys in [0, length) into one int64
    total under a lock, made by the first block (so a refused call
    allocates nothing): a block of at least ``length`` keys adds its
    bincount (the first becomes the total), a smaller one np.add.at's."""
    total, lock = None, threading.Lock()

    def add(keys):
        nonlocal total
        part = np.bincount(keys, minlength=length) if keys.size >= length else None
        with lock:  # integer addition: the block order does not matter
            if part is None:
                if total is None:
                    total = np.zeros(length, dtype=np.int64)
                np.add.at(total, keys, 1)
            elif total is None:
                total = part
            else:
                np.add(total, part, out=total)

    return add, lambda: np.zeros(length, dtype=np.int64) if total is None else total


@functools.lru_cache(maxsize=256)
def _divisors(modulus: int) -> tuple[np.ndarray, np.ndarray]:
    """(divisors, offsets), read-only: the divisors d of modulus ascending,
    and where each d's length-d count starts in one tally of them all."""
    small = [d for d in range(1, math.isqrt(modulus) + 1) if modulus % d == 0]
    divisors = np.array(sorted({*small, *(modulus // d for d in small)}))
    offsets = np.cumsum(divisors) - divisors
    divisors.flags.writeable = offsets.flags.writeable = False
    return divisors, offsets


def _sum_out_linear(f: Polynomial, grid: int, modulus: int, what: str, int64: bool = False):
    """Sums out x_j, a variable every term of f mod M reads at degree <= 1, at
    grid == modulus == M if f's variables span _SPLIT_POINTS points; else
    None, charging nothing.  As x_j runs over Z/M, f = A x_j + B hits each
    r = B mod g exactly g = gcd(A, M) times, so this returns (parts, scale):
    (d, C_d) per divisor d of M, C_d[s] = #{x' : g = d, B = s mod d} over the
    variables A and B read; a count over [0, M)^n is scale = M^(free
    variables) times one over x'.  Charges like _grid_blocks for f."""
    if grid != modulus or modulus >= _MAX_MODULUS or grid**f.n < _SPLIT_POINTS:
        return None
    terms = _prepare_terms(f, modulus)
    top = [max(column) for column in zip(*[e for e, _ in terms])]  # each variable's degree
    if 1 not in top or modulus ** sum(map(bool, top)) < _SPLIT_POINTS:
        return None
    j = top.index(1)
    axes = [i for i, k in enumerate(top) if k and i != j]
    a_b = [[(tuple([e[i] for i in axes]), c) for e, c in terms if e[j] == k] for k in (1, 0)]
    divisors, offsets = _divisors(modulus)
    add, total = _tally(int(divisors.sum()))

    def count(values, lo):
        g = np.gcd(values(0), modulus)
        add(offsets[np.searchsorted(divisors, g)] + values(1) % g)

    _grid_blocks([f], grid, modulus, what, count, axes, a_b, int64)
    parts = [(d, total()[o:o + d]) for d, o in zip(divisors.tolist(), offsets.tolist())]
    return parts, grid ** (f.n - 1 - len(axes))


def residue_histogram(f: Polynomial, grid: int, modulus: int) -> np.ndarray:
    """Exact histogram of f(x) mod modulus over x in [0, grid)^n.

    Returns an int64 array of length ``modulus`` whose entries sum to
    grid^n.  A linear variable is summed out (_sum_out_linear; C_d tiled over
    Z/M, weight d), else f's variables are counted into one _tally and
    scaled by grid^(free variables).
    """
    if (split := _sum_out_linear(f, grid, modulus, "histogram enumeration", int64=True)) is not None:
        hist = np.zeros(modulus, dtype=np.int64)
        for d, counts in split[0]:
            hist.reshape(-1, d)[...] += counts * (d * split[1])
        return hist
    axes = _read_axes([f])
    add, total = _tally(modulus)
    _grid_blocks([f], grid, modulus, "histogram enumeration", lambda values, lo: add(values(0)), axes, int64=True)
    hist = total()
    if len(axes) < f.n:
        hist *= grid ** (f.n - len(axes))
    return hist


def _zero_masks(polys, grid, modulus, what, reduce, skip_free=False) -> tuple[list, int]:
    """(parts, scale): reduce(mask, offset) for each axis-0 block, in block
    order, of [0, grid)^n, or with skip_free of the grid over only the
    variables the polynomials read; a count over [0, grid)^n is scale times
    the count over those blocks.  mask flags the block's points (flattened,
    row-major) where every polynomial is 0 mod modulus; offset is the flat
    index of its first point."""
    if not polys:
        raise ValueError("need at least one polynomial")
    if any(p.n != polys[0].n for p in polys):
        raise ValueError("polynomials have mixed variable counts")
    n = polys[0].n
    axes = _read_axes(polys) if skip_free else range(n)
    inner = grid ** (len(axes) - 1)

    def mask_of(values, lo):
        mask = values(0) == 0
        for i in range(1, len(polys)):
            if not mask.any():
                break
            mask &= values(i) == 0
        return reduce(mask, lo * inner)

    return _grid_blocks(polys, grid, modulus, what, mask_of, axes), grid ** (n - len(axes))


def common_zero_points(polys: Sequence[Polynomial], grid: int, modulus: int) -> np.ndarray:
    """Coordinates in [0, grid)^n where every polynomial is 0 mod modulus.

    Returns an (N, n) int64 array in row-major (lexicographic) order.
    """
    flats, _ = _zero_masks(polys, grid, modulus, "zero-locus enumeration",
                           lambda mask, offset: np.flatnonzero(mask) + offset)
    flat = np.concatenate(flats) if flats else np.empty(0, dtype=np.int64)
    return np.stack(np.unravel_index(flat, (grid,) * polys[0].n), axis=-1)


def count_common_zeros(polys: Sequence[Polynomial], grid: int, modulus: int) -> int:
    """|{x in [0,grid)^n : every polynomial is 0 mod modulus}|; _sum_out_linear may serve one."""
    if len(polys) == 1 and (split := _sum_out_linear(polys[0], grid, modulus, "zero-count enumeration")):
        return sum(d * int(counts[0]) for d, counts in split[0]) * split[1]
    counts, scale = _zero_masks(polys, grid, modulus, "zero-count enumeration",
                                lambda mask, offset: int(mask.sum()), skip_free=True)
    return sum(counts) * scale


def eval_points_mod(f: Polynomial, points: np.ndarray, modulus: int) -> np.ndarray:
    """f at each row of ``points`` (N, n), reduced mod modulus.

    int64 below 2^31; from there on exact Python ints in an object array
    (_block_values' lanes, on the points' columns).
    """
    if points.ndim != 2 or points.shape[1] != f.n:
        raise ValueError(f"points must be (N, {f.n})")
    cols = list(points.astype(np.int64, copy=False).T)
    values = _block_values(_prepare_terms(f, modulus), cols, points.shape[:1], modulus)
    return values.astype(np.int64, copy=False) if values.dtype == np.uint32 else values


def _magnitude_bound(f: Polynomial, reach: Sequence) -> int | float:
    """sum_e |c_e| prod_j reach_j^(e_j): a bound on |f(x)| wherever |x_j| <= reach_j."""
    return sum(abs(c) * math.prod(r**k for r, k in zip(reach, e)) for e, c in f.terms.items())


def eval_columns_exact(f: Polynomial, cols: Sequence[np.ndarray]) -> np.ndarray:
    """Exact int64 values of f at the points whose coordinates are the
    equal-length int64 columns ``cols`` (one per variable).

    Raises when the worst-case magnitude over the columns' ranges could
    overflow int64.
    """
    if len(cols) != f.n:
        raise ValueError(f"need {f.n} coordinate columns, got {len(cols)}")
    size = len(cols[0]) if cols else 1
    reach = [max(1, -int(col.min()), int(col.max())) if len(col) else 1 for col in cols]
    if _magnitude_bound(f, reach) >= 2**62:
        raise ValueError("coefficients too large for the exact int64 kernel")
    acc = np.zeros(size, dtype=np.int64)
    last = {(j, k): e for e in f.terms for j, k in enumerate(e) if k}  # each table's last reader
    pows: dict[tuple[int, int], np.ndarray] = {}
    for e, c in f.terms.items():
        t: np.ndarray | int = c
        for j, k in enumerate(e):
            if k:
                if (j, k) not in pows:
                    pows[j, k] = cols[j] ** k
                t = t * (pows.pop((j, k)) if last[j, k] == e else pows[j, k])
        acc += t
    return acc


def eval_box_exact(
    f: Polynomial,
    lows: Sequence[int],
    highs: Sequence[int],
    lo0: int,
    hi0: int,
) -> np.ndarray:
    """Exact int64 values of f on [lo0,hi0) x prod_{j>=1} [lows_j, highs_j],
    flattened in row-major order (``lows[0]`` and ``highs[0]`` are unused).

    Raises like eval_columns_exact when the values could overflow int64.
    """
    axes = [np.arange(lo0, hi0, dtype=np.int64)] + [
        np.arange(int(lows[j]), int(highs[j]) + 1, dtype=np.int64) for j in range(1, f.n)
    ]
    return eval_columns_exact(f, [g.reshape(-1) for g in np.meshgrid(*axes, indexing="ij")])
