"""Solution counts mod p^m, ideal-order counts, and the orthogonality check.

N_m counts x mod p^m with f(x) = 0 mod p^m; the companion order counts ask
that every generator of an ideal (for the squared Jacobian: all pairwise
products of gradient components) vanish to order >= m.  Densities
N_m * p^(-mn) are kept as exact rationals so monotonicity checks stay
exact.

The cross-check ties counts to character sums through plain orthogonality:

    N_m * p^(-mn) = p^(-m) * sum_{a mod p^m} E_f(psi_{a/p^m}),

where a with p | a reduce to characters of smaller conductor and a = 0
contributes 1.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import enumeration
from .arith import is_prime
from .charsums import _histogram_value
from .polynomials import Polynomial


class CountKind(str, enum.Enum):
    zeros_of_f = "zeros_of_f"
    order_ge_ideal = "order_ge_ideal"


@dataclass
class CountTable:
    """Exact per-level counts; entries are (m, count) with count(0) = 1."""

    p: int
    entries: list[tuple[int, int]]
    kind: CountKind


@dataclass
class CrosscheckReport:
    m: int
    lhs: float
    rhs: float
    abs_diff: float
    count: int


def pair_products(polys: list[Polynomial]) -> list[Polynomial]:
    """All pairwise products g_i * g_j (i <= j); realizes a squared ideal."""
    out = []
    for i in range(len(polys)):
        for j in range(i, len(polys)):
            out.append(polys[i] * polys[j])
    return out


def jacobian_squared_generators(f: Polynomial) -> list[Polynomial]:
    return pair_products(list(f.gradient()))


def count_zeros_mod(
    f: Polynomial,
    p: int,
    m: int,
    method: str = "tree",
    budget: int | None = None,
    workers: int | None = None,
) -> int:
    """|{x mod p^m : f(x) = 0 mod p^m}|.

    The default lifting tree enumerates the solutions mod p and lifts one
    level at a time (each solution mod p^(k+1) reduces to one mod p^k), so
    dead branches are pruned early.  method="direct" enumerates the full
    grid and is the oracle.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if m < 1:
        raise ValueError(f"level must be >= 1, got {m}")
    if method == "direct":
        return enumeration.count_common_zeros([f], p**m, p**m, budget=budget, workers=workers)
    if method != "tree":
        raise ValueError(f"unknown method {method!r}")
    return _tree_counts(f, p, m, budget, workers)[-1]


def _tree_counts(f: Polynomial, p: int, m: int, budget, workers) -> list[int]:
    """[N_1, ..., N_m] from one climb of the lifting tree, lifting the
    survivors in row blocks of about enumeration._BLOCK_ELEMS candidates
    (one block alive at a time).  Each level is charged to the budget
    before it is lifted; the last level is only counted."""
    sols = enumeration.common_zero_points([f], p, p, budget=budget, workers=workers)
    counts = [sols.shape[0]]
    offsets = np.indices((p,) * f.n, dtype=np.int64).reshape(f.n, -1).T
    rows = max(1, enumeration._BLOCK_ELEMS // offsets.shape[0])
    budget_val = enumeration.enumeration_budget(budget)
    for k in range(1, m):
        enumeration._charge(sols.shape[0] * offsets.shape[0], budget_val, "lifting tree")
        kept, count = [], 0
        for i in range(0, sols.shape[0], rows):
            cand = (sols[i : i + rows, None, :] + p**k * offsets).reshape(-1, f.n)
            zero = enumeration.eval_points_mod(f, cand, p ** (k + 1)) == 0
            count += int(zero.sum())
            if k < m - 1:
                kept.append(cand[zero])
        counts.append(count)
        if kept:
            sols = np.concatenate(kept)
    return counts


def count_order_ge(
    generators: list[Polynomial],
    p: int,
    m: int,
    budget: int | None = None,
    workers: int | None = None,
) -> int:
    """|{x mod p^m : v_p(g(x)) >= m for every generator g}|.

    Membership depends only on x mod p^m, so the full-grid enumeration at
    precision p^m is sound; it is also the default (the lifting logic for
    several generators is subtler, and correctness comes first).
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if m < 1:
        raise ValueError(f"level must be >= 1, got {m}")
    if not generators:
        raise ValueError("need at least one generator")
    return enumeration.count_common_zeros(generators, p**m, p**m, budget=budget, workers=workers)


def poincare_coeffs(
    f: Polynomial,
    p: int,
    max_m: int,
    kind: CountKind = CountKind.zeros_of_f,
    generators: list[Polynomial] | None = None,
    budget: int | None = None,
    workers: int | None = None,
) -> tuple[CountTable, list[tuple[int, Fraction]]]:
    """Counts N_m for m = 0..max_m plus the exact densities N_m * p^(-mn).

    kind zeros_of_f counts zeros of f; order_ge_ideal counts order >= m
    for the supplied generator list (pre-multiplied by the caller when a
    squared ideal is wanted).
    """
    if max_m < 1:
        raise ValueError(f"max level must be >= 1, got {max_m}")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if kind is CountKind.zeros_of_f:
        counts = _tree_counts(f, p, max_m, budget, workers)
    elif not generators:
        raise ValueError("order_ge_ideal needs a generator list")
    else:
        counts = [count_order_ge(generators, p, m, budget=budget, workers=workers)
                  for m in range(1, max_m + 1)]
    entries = [(0, 1)] + list(enumerate(counts, start=1))
    densities = [(m, Fraction(c, p ** (m * f.n))) for m, c in entries]
    return CountTable(p=p, entries=entries, kind=kind), densities


def fourier_crosscheck(
    f: Polynomial,
    p: int,
    m: int,
    budget: int | None = None,
    workers: int | None = None,
) -> CrosscheckReport:
    """Check N_m * p^(-mn) against the averaged character sums.

    The right side sums E over every a mod p^m: the a = 0 term is 1, and
    p^k * a' reduces to the conductor m-k character with unit a'.  One
    histogram per conductor level serves all its units.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if m < 1:
        raise ValueError(f"level must be >= 1, got {m}")
    count = count_zeros_mod(f, p, m, budget=budget, workers=workers)
    lhs = float(Fraction(count, p ** (m * f.n)))

    rhs_sum = 1 + 0j  # a = 0
    for k in range(1, m + 1):
        q = p**k
        hist = enumeration.residue_histogram(f, q, q, budget=budget, workers=workers)
        total = q**f.n
        for unit in range(1, q):
            if unit % p == 0:
                continue
            val, _ = _histogram_value(hist, q, unit, total)
            rhs_sum += val
    rhs = (rhs_sum / p**m).real
    return CrosscheckReport(m=m, lhs=lhs, rhs=rhs, abs_diff=abs(lhs - rhs), count=count)
