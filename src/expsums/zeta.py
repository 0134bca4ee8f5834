"""Solution counts mod p^m, ideal-order counts, and the orthogonality check.

N_m counts x mod p^m with f(x) = 0 mod p^m; the companion order counts ask
that every generator of an ideal (for the squared Jacobian: all pairwise
products of gradient components) vanish to order >= m.  Densities
N_m * p^(-mn) are kept as exact rationals so monotonicity checks stay
exact.  N_m comes from Igusa's stationary phase formula, recursing on the
fiber splits that charsums' store keeps once per (f, p, u), by value, for
the pruned sums.

The cross-check ties counts to character sums through plain orthogonality:

    N_m * p^(-mn) = p^(-m) * sum_{a mod p^m} E_f(psi_{a/p^m}),

where the units mod each q = p^k sum to integer Ramanujan sums (Hardy &
Wright, ch. 16), and the levels telescope, like circle's S(R) terms, to the
full-grid zero density at level m (see fourier_crosscheck): an identity of
fractions between the fiber recursion and one direct count.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import enumeration
from .charsums import _fiber_split, _require_prime
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


def _require_prime_level(p: int, m: int) -> None:
    _require_prime(p)
    if m < 1:
        raise ValueError(f"level must be >= 1, got {m}")


@enumeration.scoped
def count_zeros_mod(f: Polynomial, p: int, m: int, method: str = "tree") -> int:
    """|{x mod p^m : f(x) = 0 mod p^m}|.

    The default ("tree") recurses on the fibers over the singular zeros
    mod p (see _zero_counts); method="direct" counts the full grid, charged
    as such, summing out a variable f reads linearly, and is the oracle.
    """
    _require_prime_level(p, m)
    if method == "direct":
        return enumeration.count_common_zeros([f], p**m, p**m)
    if method != "tree":
        raise ValueError(f"unknown method {method!r}")
    return _zero_counts(f, p, m)[-1]


def _zero_counts(f: Polynomial, p: int, m: int, t: int = 0) -> list[int]:
    """[N(p), ..., N(p^m)] for f = t, by Igusa's stationary phase formula.

    Smooth zeros of f - t mod p lift to p^((k-1)(n-1)) zeros mod p^k (Hensel).
    Over a singular one u, f(u + p y) = c0 + p^v h(y) (charsums._fiber_split),
    and the fiber holds p^((k-1)n) zeros mod p^k when k <= v and p^k | c0 - t,
    and p^((v-1)n) times h's N(p^(k-v)) at target (t - c0)/p^v when k > v and
    p^v | c0 - t; else none.  Levels 1 and 2 need only f - t mod p^2, so
    fibers are split only for m > 2.  The fibers that recurse are walked,
    in a recursion's order, on an explicit stack of (f, m, t, weight, level
    offset), since the walk is about m/2 deep.
    """
    counts = [0] * m
    stack = [(f, m, t, 1, 0)]
    while stack:
        f, m, t, weight, shift = stack.pop()
        n, g = f.n, (f - t % p if t % p else f)
        if m == 1:
            counts[shift] += weight * enumeration.count_common_zeros([g], p, p)
            continue
        zeros = enumeration.common_zero_points([g], p, p)
        # f(u + p e_j) = f(u) + p df/dx_j(u) mod p^2, so f mod p^2 at u and at its
        # n neighbours tells the singular zeros and which have f(u) = t mod p^2
        steps = p * np.eye(n + 1, n, -1, dtype=np.int64)  # rows 0, p e_1, ..., p e_n
        points = (zeros[:, None, :] + steps).reshape(-1, n)
        enumeration._charge(points.shape[0], "singular-zero test")
        vals = enumeration.eval_points_mod(f, points, p * p).reshape(-1, n + 1)
        singular = (vals[:, 1:] == vals[:, :1]).all(axis=1)
        deep = zeros[singular & (vals[:, 0] == t % (p * p))]
        n_singular = int(singular.sum())
        for k in range(1, m + 1):
            counts[shift + k - 1] += weight * (zeros.shape[0] - n_singular) * p ** ((k - 1) * (n - 1))
        counts[shift] += weight * n_singular
        counts[shift + 1] += weight * deep.shape[0] * p**n
        if m == 2:
            continue
        for u in map(tuple, deep[::-1].tolist()):  # pushed in reverse, popped in order
            c0, v, h = _fiber_split(f, p, u)
            v = m if v is None else min(v, m)
            for k in range(3, v + 1):
                if (c0 - t) % p**k == 0:
                    counts[shift + k - 1] += weight * p ** ((k - 1) * n)
            if v < m and (c0 - t) % p**v == 0:
                stack.append((h, m - v, (t - c0) // p**v, weight * p ** ((v - 1) * n), shift + v))
    return counts


def count_order_ge(generators: list[Polynomial], p: int, m: int) -> int:
    """|{x mod p^m : v_p(g(x)) >= m for every generator g}|.

    Membership depends only on x mod p^m, so the full-grid enumeration at
    precision p^m is sound; it is also the default (the lifting logic for
    several generators is subtler, and correctness comes first).
    """
    _require_prime_level(p, m)
    if not generators:
        raise ValueError("need at least one generator")
    return enumeration.count_common_zeros(generators, p**m, p**m)


@enumeration.scoped
def poincare_coeffs(
    f: Polynomial,
    p: int,
    max_m: int,
    generators: list[Polynomial] | None = None,
) -> tuple[CountTable, list[tuple[int, Fraction]]]:
    """Counts N_m for m = 0..max_m plus the exact densities N_m * p^(-mn).

    Without generators the counts are the zeros of f (kind zeros_of_f);
    with them, the points where every generator has order >= m (kind
    order_ge_ideal; the caller pre-multiplies them when a squared ideal is
    wanted).  An empty generator list is refused.
    """
    if max_m < 1:
        raise ValueError(f"max level must be >= 1, got {max_m}")
    _require_prime(p)
    if generators is None:
        kind, counts = CountKind.zeros_of_f, _zero_counts(f, p, max_m)
    else:
        kind = CountKind.order_ge_ideal
        counts = [count_order_ge(generators, p, m) for m in range(1, max_m + 1)]
    entries = [(0, 1)] + list(enumerate(counts, start=1))
    densities = [(m, Fraction(c, p ** (m * f.n))) for m, c in entries]
    return CountTable(p=p, entries=entries, kind=kind), densities


@enumeration.scoped
def fourier_crosscheck(f: Polynomial, p: int, m: int, *, count: int | None = None) -> CrosscheckReport:
    """Check N_m * p^(-mn), from ``count`` if given, against the averaged
    character sums, exactly.

    The right side sums E over every a mod p^m: the a = 0 term is 1, and
    p^k * a' reduces to the conductor m-k character with unit a'.  Write
    q = p^k and H_k for the residue histogram of f mod q over (Z/q)^n.  The
    units of level k sum to Ramanujan sums c_q(r): q - q/p at r = 0, -q/p at
    the other multiples of q/p, and 0 elsewhere, so level k adds

        (q H_k(0) - (q/p) sum_{(q/p) | r} H_k(r)) / q^n.

    The inner sum counts the x with f(x) = 0 mod p^(k-1), which is
    p^n H_{k-1}(0), with H_0(0) = 1.  So the term is
    p^k H_k(0) p^(-kn) - p^(k-1) H_{k-1}(0) p^(-(k-1)n), the terms
    telescope (Igusa's sum_{j<=k} A(p^j) = p^k N(p^k) p^(-kn)), and with
    the a = 0 term and the factor p^(-m) the right side is H_m(0) p^(-mn):
    the direct count of zeros mod p^m (count_zeros_mod's method="direct").
    """
    count = count_zeros_mod(f, p, m) if count is None else count
    lhs = Fraction(count, p ** (m * f.n))
    rhs = Fraction(count_zeros_mod(f, p, m, method="direct"), p ** (m * f.n))
    return CrosscheckReport(m=m, lhs=float(lhs), rhs=float(rhs), abs_diff=float(abs(lhs - rhs)),
                            count=count)
