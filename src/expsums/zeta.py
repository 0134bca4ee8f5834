"""Solution counts mod p^m, ideal-order counts, and the orthogonality check.

N_m counts x mod p^m with f(x) = 0 mod p^m; the companion order counts ask
that every generator of J_f^2, or of (f) + J_f^2, vanish to order >= m,
which reads the gradient at half the level (_order_ge_ideal).  Densities
N_m * p^(-mn) are kept as exact rationals so monotonicity checks stay
exact.  N_m comes from Igusa's stationary phase formula, walked by
charsums._zero_counts on the fiber splits the pruned sums read; charsums
alone reads the store that keeps them.

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

from . import enumeration
from .arith import _require_prime
from .charsums import _zero_counts
from .polynomials import Polynomial

# What poincare_coeffs counts, by the CLI's --ideal name: f's zeros, J_f^2, (f) + J_f^2.
IDEALS = ("f", "jf2", "f+jf2")


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


def _require_prime_level(p: int, m: int) -> None:
    _require_prime(p)
    if m < 1:
        raise ValueError(f"level must be >= 1, got {m}")


@enumeration.scoped
def count_zeros_mod(f: Polynomial, p: int, m: int, method: str = "tree") -> int:
    """|{x mod p^m : f(x) = 0 mod p^m}|.

    The default ("tree") recurses on the fibers over the singular zeros
    mod p (charsums._zero_counts); method="direct" counts the full grid, charged
    as such, summing out a variable f reads linearly, and is the oracle.
    """
    _require_prime_level(p, m)
    if method == "direct":
        return enumeration.count_common_zeros([f], p**m, p**m)
    if method != "tree":
        raise ValueError(f"unknown method {method!r}")
    return _zero_counts(f, p, m)[-1]


def count_order_ge(generators: list[Polynomial], p: int, m: int) -> int:
    """|{x mod p^m : v_p(g(x)) >= m for every generator g}|.

    Membership depends only on x mod p^m, so the full-grid enumeration at
    precision p^m is sound: the generic count for any generators, and the
    oracle of the ideal counts poincare_coeffs takes at half the level.
    """
    _require_prime_level(p, m)
    if not generators:
        raise ValueError("need at least one generator")
    return enumeration.count_common_zeros(generators, p**m, p**m)


def _order_ge_ideal(f: Polynomial, p: int, m: int, ideal: str) -> int:
    """count_order_ge of J_f^2 ("jf2") or of (f) + J_f^2 ("f+jf2") at level m,
    from the gradient at level k = ceil(m/2).

    v_p(g h) = v_p(g) + v_p(h), so every d_i f * d_j f has order >= m
    exactly when grad f(x) = 0 mod p^k, a condition on x mod p^k.  There
    Taylor's formula gives f(x + p^k t) = f(x) mod p^(2k), and 2k >= m, so
    f's condition reads x mod p^k too: the count is p^(n(m-k)) times the
    y in [0, p^k)^n with p^(m-k) * grad f(y) = 0 (and f(y) = 0) mod p^m.
    For J_f^2 alone that is grad f(y) = 0 mod p^k, counted mod p^k, so the
    int64 kernel's modulus limit applies to p^k, not to p^m.
    """
    k = (m + 1) // 2
    if ideal == "jf2":
        return p ** (f.n * (m - k)) * enumeration.count_common_zeros(f.gradient(), p**k, p**k)
    gens = [f] + [g.scale_coefficients(p ** (m - k)) for g in f.gradient()]
    return p ** (f.n * (m - k)) * enumeration.count_common_zeros(gens, p**k, p**m)


@enumeration.scoped
def poincare_coeffs(
    f: Polynomial,
    p: int,
    max_m: int,
    ideal: str = "f",
) -> tuple[CountTable, list[tuple[int, Fraction]]]:
    """Counts N_m for m = 0..max_m plus the exact densities N_m * p^(-mn).

    ideal names what is counted (IDEALS): "f", the zeros of f (kind
    zeros_of_f); "jf2" or "f+jf2", the points where every generator of J_f^2
    or of (f) + J_f^2 has order >= m (kind order_ge_ideal; _order_ge_ideal).
    Any other name is refused.
    """
    if max_m < 1:
        raise ValueError(f"max level must be >= 1, got {max_m}")
    _require_prime(p)
    if ideal not in IDEALS:
        raise ValueError(f"unknown ideal {ideal!r}: expected one of {', '.join(IDEALS)}")
    if ideal == "f":
        kind, counts = CountKind.zeros_of_f, _zero_counts(f, p, max_m)
    else:
        kind = CountKind.order_ge_ideal
        counts = [_order_ge_ideal(f, p, m, ideal) for m in range(1, max_m + 1)]
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
