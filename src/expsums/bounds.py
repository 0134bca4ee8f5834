"""Empirical decay verification against the proven and conjectural exponents.

For a polynomial of degree d in n variables with critical-locus dimension
s of the leading form, the proven exponent is (n-s)/(2(d-1)) and the
conjectural one is (n-s)/d.  The harness measures |E| across conductors
and primes and classifies observed decay.  It tests exponents, not
constants: the proven bound's constant is unknown, so assertions carry a
configurable slack factor (default 16).  Finitely many bad-reduction
primes are expected and surfaced, never silently asserted.

Both exponents bound sup_a |E(p^m, a)| over the units a.  decay_fit
measures the unit a = 1, or that supremum over every unit, not a sample
(charsums._max_abs_over_units): W, the critical-atom distribution of f on
Z/p^m, is real, so one real FFT of the dense W gives
|E(p^m, a)| = |E(p^m, p^m - a)| for every a at once.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .charsums import AdditiveCharacter, _max_abs_over_units, exp_sum_pruned, finite_field_sum
from .geometry import _ls_slope, critical_count, estimate_s, exponent_sheet
from .polynomials import Polynomial

ZERO_TOL = 1e-12
DEFAULT_SLACK = 16.0

# Slope fits over a handful of conductors wobble below the asymptotic rate
# by up to ~1/15 when a sample carries a unit-size constant (already the
# smooth Fermat cubic at p = 7 does); genuine bad reduction falls short by
# far more, so the bad-prime flag only fires past this margin.
FLAG_MARGIN = 0.1


class Verdict(str, enum.Enum):
    meets_theorem = "meets_theorem"
    meets_conjecture = "meets_conjecture"
    violates_theorem = "violates_theorem"


@dataclass
class DecayFit:
    p: int
    samples: list[tuple[int, float]]
    fitted_beta: float | None
    zeros: list[int]
    sigma_theorem: Fraction
    sigma_conjecture: Fraction
    verdict: Verdict
    slack: float


@dataclass
class DeligneRow:
    p: int
    abs_e: float
    bound: float
    asserted: bool
    passed: bool
    critical_points: int


@dataclass
class GapReport:
    fits: list[DecayFit]
    gaps: list[tuple[int, float | None]]  # (p, fitted_beta - sigma_conjecture)
    flagged: list[int] = field(default_factory=list)  # primes with negative gap


def decay_fit(
    f: Polynomial,
    p: int,
    m_range: Sequence[int],
    s_val: int,
    slack: float = DEFAULT_SLACK,
    max_units: bool = False,
) -> DecayFit:
    """Measure |E| across conductors and fit the decay slope.

    |E| is |E(p^m, 1)|, or with max_units the supremum over every unit mod
    p^m (charsums._max_abs_over_units).  slack must be positive and finite.

    fitted_beta is the least-squares slope of -log_p|E| against m over the
    nonzero samples, reported only when at least three exist.  Values at
    or below 1e-12 count as exact zeros and are excluded from the fit.
    The verdict compares each sample against slack * p^(-m sigma); with no
    nonzero samples the verdict is the conservative meets_theorem.
    """
    d = f.degree()
    if d is None:
        raise ValueError("zero polynomial has no decay to fit")
    if not (math.isfinite(slack) and slack > 0):
        raise ValueError(f"slack must be positive and finite, got {slack}")
    sheet = exponent_sheet(f.n, d, s_val)
    samples: list[tuple[int, float]] = []
    zeros: list[int] = []
    for m in sorted(set(int(m) for m in m_range)):
        if m < 1:
            raise ValueError(f"conductor must be >= 1, got {m}")
        if max_units:
            mag = _max_abs_over_units(f, p, m)
        else:
            mag = exp_sum_pruned(f, AdditiveCharacter(p, m, 1)).abs
        samples.append((m, mag))
        if mag <= ZERO_TOL:
            zeros.append(m)

    nonzero = [(m, v) for m, v in samples if v > ZERO_TOL]
    beta = None
    if len(nonzero) >= 3:
        beta = _ls_slope([m for m, _ in nonzero], [-math.log(v) / math.log(p) for _, v in nonzero])

    violates = any(v > slack * p ** (-m * float(sheet.sigma_theorem)) for m, v in samples)
    if violates:
        verdict = Verdict.violates_theorem
    elif nonzero and all(
        v <= slack * p ** (-m * float(sheet.sigma_conjecture)) for m, v in samples
    ):
        verdict = Verdict.meets_conjecture
    else:
        verdict = Verdict.meets_theorem
    return DecayFit(
        p=p,
        samples=samples,
        fitted_beta=beta,
        zeros=zeros,
        sigma_theorem=sheet.sigma_theorem,
        sigma_conjecture=sheet.sigma_conjecture,
        verdict=verdict,
        slack=slack,
    )


def deligne_check(f: Polynomial, primes: Sequence[int], s_val: int) -> list[DeligneRow]:
    """Check |E| over F_p against (d-1)^(n-s) p^(-(n-s)/2) prime by prime.

    The bound only holds at good-reduction primes, so rows are asserted
    when p > d and the critical count of the leading form matches the
    stated s (exactly 1 point when s = 0, count within rounding of p^s
    otherwise); other primes are reported informationally.
    """
    d = f.degree()
    if d is None or d < 2:
        raise ValueError("polynomial must have degree >= 2")
    fd = f.homogeneous_part(d)
    rows = []
    for p in sorted(set(int(p) for p in primes)):
        cc = critical_count(fd, p)
        if s_val == 0:
            good = cc == 1
        else:
            good = round(math.log(cc) / math.log(p)) == s_val
        asserted = p > d and good
        mag = finite_field_sum(f, p).abs
        bound = (d - 1) ** (f.n - s_val) * p ** (-(f.n - s_val) / 2)
        passed = mag <= bound * (1 + 1e-9)
        rows.append(
            DeligneRow(p=p, abs_e=mag, bound=bound, asserted=asserted, passed=passed, critical_points=cc)
        )
    return rows


def conjecture_gap_report(
    f: Polynomial,
    primes: Sequence[int],
    m_max: int,
    s_val: int | None = None,
    slack: float = DEFAULT_SLACK,
) -> GapReport:
    """Per-prime decay fits plus the gap fitted_beta - (n-s)/d.

    A clearly negative gap (below -FLAG_MARGIN) means observed decay falls
    short of the conjectural exponent at that prime: a bad-reduction
    exemplar, flagged.
    """
    if s_val is None:
        s_val = estimate_s(f, primes).effective_s
    fits = []
    gaps: list[tuple[int, float | None]] = []
    flagged = []
    for p in sorted(set(int(p) for p in primes)):
        fit = decay_fit(f, p, range(1, m_max + 1), s_val, slack=slack)
        fits.append(fit)
        if fit.fitted_beta is None:
            gaps.append((p, None))
        else:
            gap = fit.fitted_beta - float(fit.sigma_conjecture)
            gaps.append((p, gap))
            if gap < -FLAG_MARGIN:
                flagged.append(p)
    return GapReport(fits=fits, gaps=gaps, flagged=flagged)
