"""Critical-locus dimension of the leading form, and the closed-form exponents.

The dimension s of the critical locus of the top-degree part f_d controls
every decay exponent here.  It is estimated, not proven: we count the
F_p-points of the affine critical cone for several primes and fit the
slope of log(count) against log(p), rounding to the nearest integer.
Exact counts of the shape c * p^s fit with residual 0; the report carries
the residual so callers can warn on shaky fits, and a user override always
wins.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import enumeration
from .arith import _require_prime
from .polynomials import Polynomial


@dataclass
class CriticalLocusReport:
    counts: dict[int, int]
    fitted_s: int
    residual: float
    override: int | None = None

    @property
    def effective_s(self) -> int:
        return self.fitted_s if self.override is None else self.override


@dataclass(frozen=True)
class ExponentSheet:
    """The decay exponents and threshold bounds attached to (n, d, s)."""

    n: int
    d: int
    s: int
    sigma_theorem: Fraction      # (n-s) / (2(d-1)), the proven exponent
    sigma_conjecture: Fraction   # (n-s) / d, the conjectural target
    lct_lower: Fraction          # (n-s) / (d-1)
    lct_isolated: Fraction | None  # n / (d-1), present iff s == 0


def exponent_sheet(n: int, d: int, s: int) -> ExponentSheet:
    if d < 2:
        raise ValueError(f"degree must be >= 2, got {d}")
    if not 0 <= s <= n:
        raise ValueError(f"s must lie in [0, {n}], got {s}")
    return ExponentSheet(
        n=n,
        d=d,
        s=s,
        sigma_theorem=Fraction(n - s, 2 * (d - 1)),
        sigma_conjecture=Fraction(n - s, d),
        lct_lower=Fraction(n - s, d - 1),
        lct_isolated=Fraction(n, d - 1) if s == 0 else None,
    )


def critical_count(fd: Polynomial, p: int) -> int:
    """|{x in F_p^n : grad fd(x) = 0}| by full enumeration of the affine cone."""
    _require_prime(p)
    if not fd.is_homogeneous():
        raise ValueError("leading form must be homogeneous")
    grads = list(fd.gradient())
    return enumeration.count_common_zeros(grads, p, p)


def _ls_slope(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Least-squares slope of ys against xs."""
    x_bar = sum(xs) / len(xs)
    y_bar = sum(ys) / len(ys)
    return sum((x - x_bar) * (y - y_bar) for x, y in zip(xs, ys)) / sum(
        (x - x_bar) ** 2 for x in xs
    )


def estimate_s(
    f: Polynomial,
    primes: Sequence[int],
    override: int | None = None,
) -> CriticalLocusReport:
    """Fit s from per-prime critical counts of the leading form.

    Needs at least 3 primes.  All-equal counts short-circuit to
    round(log_p count) at the largest prime (covers counts c*p^s with the
    constant absorbed); otherwise s is the rounded least-squares slope of
    log(count) vs log(p), clipped to [0, n].
    """
    primes = sorted(set(int(p) for p in primes))
    if len(primes) < 3:
        raise ValueError(f"need at least 3 primes, got {len(primes)}")
    for p in primes:
        _require_prime(p)
    d = f.degree()
    if d is None or d < 2:
        raise ValueError("polynomial must have degree >= 2")
    if override is not None and not 0 <= override <= f.n:
        raise ValueError(f"override s={override} outside [0, {f.n}]")
    fd = f.homogeneous_part(d)
    counts = {p: critical_count(fd, p) for p in primes}

    xs = [math.log(p) for p in primes]
    ys = [math.log(counts[p]) for p in primes]
    if len(set(counts.values())) == 1:
        p_big = primes[-1]
        s_fit = round(math.log(counts[p_big]) / math.log(p_big))
    else:
        s_fit = round(_ls_slope(xs, ys))
    s_fit = min(max(s_fit, 0), f.n)
    intercept = sum(y - s_fit * x for x, y in zip(xs, ys)) / len(xs)
    residual = max(abs(y - s_fit * x - intercept) / x for x, y in zip(xs, ys))
    return CriticalLocusReport(counts=counts, fitted_s=s_fit, residual=residual, override=override)
