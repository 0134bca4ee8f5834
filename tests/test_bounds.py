import math
import sys
from fractions import Fraction

import pytest

from expsums import (
    Verdict,
    conjecture_gap_report,
    decay_fit,
    deligne_check,
    exponent_sheet,
    parse_polynomial,
)
from expsums.charsums import _critical_atoms, _max_abs_over_units, _phase_sum
from expsums.corpus import standard_corpus


class TestDecayFit:
    def test_diagonal_quadratic_family(self):
        f = parse_polynomial("x1^2+x2^2+x3^2+x4^2")
        for p in (5, 13):
            fit = decay_fit(f, p, range(1, 6), 0)
            for m, v in fit.samples:
                assert abs(v - p ** (-2 * m)) < 1e-9
            assert abs(fit.fitted_beta - 2.0) < 0.01
            assert fit.sigma_theorem == Fraction(2)
            assert fit.verdict in (Verdict.meets_theorem, Verdict.meets_conjecture)

    def test_degree_one_rejected(self):
        with pytest.raises(ValueError):
            decay_fit(parse_polynomial("x1"), 5, [1, 2], 0)

    def test_diagonal_quadratic_closed_form_family(self):
        # odd p not dividing the discriminant: |E(m)| = p^(-mn/2) exactly
        for n in (1, 2, 3):
            text = "+".join(f"{c}*x{j}^2" for j, c in enumerate(range(1, n + 1), start=1))
            f = parse_polynomial(text)
            for p in (5, 7):
                fit = decay_fit(f, p, range(1, 5), 0)
                for m, v in fit.samples:
                    assert abs(v - p ** (-m * n / 2)) < 1e-9

    def test_all_zero_samples(self):
        # gradient of x1 never vanishes: every conductor >= 2 gives 0
        f = parse_polynomial("x1^2 + x1 + x2")
        fit = decay_fit(f, 2, [2, 3, 4], 0)
        assert fit.zeros == [2, 3, 4]
        assert fit.fitted_beta is None
        assert fit.verdict is Verdict.meets_theorem

    def test_bad_reduction_sample_magnitude(self):
        f = parse_polynomial(f"x1^3 + {5**5}*x2^3")
        fit = decay_fit(f, 5, [5], 0)
        assert abs(fit.samples[0][1] - 5**-2) < 1e-9
        # 5^-2 exceeds the generic-target rate 5^(-5 (n-s)/(2(d-1))) = 5^(-5/2),
        # but stays under the slack: the constant must depend on f
        assert fit.samples[0][1] > 5 ** (-5 * float(fit.sigma_theorem))
        assert fit.verdict is not Verdict.violates_theorem

    def test_slack_monotonicity(self):
        f = parse_polynomial(f"x1^3 + {5**5}*x2^3")
        low = decay_fit(f, 5, range(1, 6), 0, slack=0.001)
        high = decay_fit(f, 5, range(1, 6), 0, slack=1000.0)
        order = [Verdict.violates_theorem, Verdict.meets_theorem, Verdict.meets_conjecture]
        assert order.index(high.verdict) >= order.index(low.verdict)

    def test_sigma_increases_when_s_decreases(self):
        f = parse_polynomial("x1^3 + x2^3 + x3^3")
        fit1 = decay_fit(f, 7, [1, 2], 1)
        fit0 = decay_fit(f, 7, [1, 2], 0)
        assert fit0.sigma_theorem > fit1.sigma_theorem

    def test_max_units_sampling(self):
        f = parse_polynomial("x1^2")
        a = decay_fit(f, 5, [1, 2, 3], 0, max_units=True)
        b = decay_fit(f, 5, [1, 2, 3], 0)
        # all units share the Gauss magnitude here
        for (m1, v1), (m2, v2) in zip(a.samples, b.samples):
            assert m1 == m2 and abs(v1 - v2) < 1e-12

    @pytest.mark.parametrize("slack", [math.nan, math.inf, 0.0, -1.0])
    def test_bad_slack_refused(self, slack):
        # nan used to return meets_theorem whatever the samples
        with pytest.raises(ValueError, match="slack"):
            decay_fit(parse_polynomial("x1^2"), 5, [1, 2], 0, slack=slack)


class TestUnitSupremum:
    def test_fft_supremum_equals_per_unit_maximum(self):
        # every unit, through the per-unit phase pass over the atoms (not
        # exp_sum_pruned, which reads the spectrum under test); the FFT
        # bound is 4 eps log2(q) times the atoms' share of the p^(mn) points
        cells = 0
        for f in standard_corpus(0):
            for p in (2, 3, 5, 7):
                for m in range(1, 5):
                    q, total = p**m, p ** (m * f.n)
                    _, _, residues, weights = _critical_atoms(f, p, m)
                    best = max(abs(_phase_sum(residues, weights, q, a, total)[0])
                               for a in range(1, q) if a % p)
                    share = float(weights.sum() / total)
                    tol = 4 * sys.float_info.epsilon * math.log2(q) * share
                    assert abs(_max_abs_over_units(f, p, m) - best) <= tol, (f, p, m)
                    cells += 1
        assert cells == 800

    def test_modulus_beyond_the_int_kernels_refused(self):
        with pytest.raises(ValueError, match="too large"):
            _max_abs_over_units(parse_polynomial("x1^2"), 2, 31)


class TestDeligne:
    def test_pure_square_is_sharp(self):
        rows = deligne_check(parse_polynomial("x1^2"), [5, 7, 11, 13], 0)
        for row in rows:
            assert row.asserted and row.passed
            assert abs(row.abs_e - row.bound) < 1e-12  # d-1 = 1: equality

    def test_weil_cubic(self):
        rows = deligne_check(parse_polynomial("x1^3+x1"), [7, 11, 13], 0)
        assert all(r.passed for r in rows if r.asserted)

    def test_small_primes_not_asserted(self):
        rows = deligne_check(parse_polynomial("x1^4+x2^4"), [2, 3, 5], 0)
        by_p = {r.p: r for r in rows}
        assert not by_p[2].asserted  # p <= d
        assert not by_p[3].asserted
        assert by_p[5].asserted

    def test_bad_reduction_prime_skipped(self):
        # x1^3 - x1 x2^2 factors into three lines; mod 3 the leading form
        # degenerates to a double structure with a positive-dimensional
        # critical set
        rows = deligne_check(parse_polynomial("x1^3 + x1*x2^2 + x2"), [3, 7, 11], 0)
        by_p = {r.p: r for r in rows}
        assert not by_p[3].asserted
        assert by_p[7].asserted and by_p[11].asserted


class TestGapReport:
    def test_smooth_cubic_not_flagged(self):
        # the m = 4 sample carries a unit-size constant, so the fitted
        # slope sits a hair under the asymptotic rate; no flag
        rep = conjecture_gap_report(parse_polynomial("x1^3+x2^3"), [7], 4, s_val=0)
        (p, gap), = rep.gaps
        assert p == 7 and gap is not None and -0.1 < gap < 0.05
        assert rep.flagged == []

    def test_exponents_coincide_for_quadratics(self):
        sheet = exponent_sheet(2, 2, 0)
        assert sheet.sigma_theorem == sheet.sigma_conjecture == Fraction(1)

    def test_bad_reduction_flagged(self):
        rep = conjecture_gap_report(parse_polynomial(f"x1^3 + {5**5}*x2^3"), [5], 5, s_val=0)
        assert rep.flagged == [5]
        (_, gap), = rep.gaps
        assert gap < 0

    def test_estimates_s_when_missing(self):
        rep = conjecture_gap_report(parse_polynomial("x1^2+x2^2"), [5, 7, 11], 3)
        assert all(fit.sigma_theorem == Fraction(1) for fit in rep.fits)
