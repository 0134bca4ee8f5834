from fractions import Fraction

import pytest
from hypothesis import given
import hypothesis.strategies as st

from expsums import critical_count, estimate_s, exponent_sheet, parse_polynomial
from conftest import brute_critical_count


class TestCriticalCount:
    def test_smooth_quadric_origin_only(self):
        fd = parse_polynomial("x1^2+x2^2+x3^2")
        assert critical_count(fd, 7) == 1

    def test_line_of_critical_points(self):
        fd = parse_polynomial("x1^2*x2")
        assert critical_count(fd, 5) == 5 == brute_critical_count(fd, 5)

    def test_double_line(self):
        fd = parse_polynomial("(x1+x2)^2")
        assert critical_count(fd, 3) == 3 == brute_critical_count(fd, 3)

    def test_non_homogeneous_rejected(self):
        with pytest.raises(ValueError):
            critical_count(parse_polynomial("x1^2+x1"), 5)

    def test_diagonal_forms_have_single_critical_point(self):
        for d in (2, 3, 4):
            for p in (5, 7, 11):
                if d % p == 0:
                    continue
                fd = parse_polynomial(f"x1^{d}+2*x2^{d}")
                assert critical_count(fd, p) == 1

    @given(st.sampled_from([2, 3, 5, 7]))
    def test_matches_brute_oracle(self, p):
        fd = parse_polynomial("x1^3 + x1*x2^2")
        assert critical_count(fd, p) == brute_critical_count(fd, p)


class TestEstimateS:
    def test_smooth_quadratic_forms(self):
        for n in (3, 4):
            f = parse_polynomial("+".join(f"x{j}^2" for j in range(1, n + 1)))
            rep = estimate_s(f, [5, 7, 11])
            assert rep.fitted_s == 0
            assert all(c == 1 for c in rep.counts.values())
            assert rep.residual < 0.15

    def test_line_cone(self):
        rep = estimate_s(parse_polynomial("x1^2*x2"), [5, 7, 11, 13])
        assert rep.fitted_s == 1
        assert rep.counts == {5: 5, 7: 7, 11: 11, 13: 13}

    def test_power_of_one_variable(self):
        # f_d = x1^d in two variables: critical locus is the x2-axis
        rep = estimate_s(parse_polynomial("x1^3 + x2", n_hint=2), [5, 7, 11])
        assert rep.fitted_s == 1

    def test_needs_three_primes(self):
        with pytest.raises(ValueError):
            estimate_s(parse_polynomial("x1^2"), [5, 7])

    def test_override_wins(self):
        rep = estimate_s(parse_polynomial("x1^2+x2^2"), [5, 7, 11], override=1)
        assert rep.fitted_s == 0
        assert rep.effective_s == 1

    def test_scale_invariance(self):
        f = parse_polynomial("x1^2*x2 + x1")
        a = estimate_s(f, [5, 7, 11])
        b = estimate_s(f.scale_coefficients(7), [5, 7, 11])
        assert a.fitted_s == b.fitted_s

    def test_degree_one_rejected(self):
        with pytest.raises(ValueError):
            estimate_s(parse_polynomial("x1+x2"), [5, 7, 11])


class TestExponentSheet:
    def test_five_vars_quadratic(self):
        sheet = exponent_sheet(5, 2, 0)
        assert sheet.sigma_theorem == Fraction(5, 2)
        assert sheet.lct_lower == Fraction(5, 1)
        assert sheet.lct_isolated == Fraction(5, 1)

    def test_cubic_with_line(self):
        sheet = exponent_sheet(4, 3, 1)
        assert sheet.sigma_theorem == Fraction(3, 4)
        assert sheet.sigma_conjecture == Fraction(1, 1)
        assert sheet.lct_lower == Fraction(3, 2)
        assert sheet.lct_isolated is None

    def test_isolated_threshold_one_variable_cubic(self):
        assert exponent_sheet(1, 3, 0).lct_isolated == Fraction(1, 2)

    def test_degree_below_two_rejected(self):
        with pytest.raises(ValueError):
            exponent_sheet(3, 1, 0)

    def test_s_range_validated(self):
        with pytest.raises(ValueError):
            exponent_sheet(3, 2, 4)

    @given(st.integers(1, 8), st.integers(2, 6), st.integers(0, 8))
    def test_exact_rational_relations(self, n, d, s):
        if s > n:
            return
        sheet = exponent_sheet(n, d, s)
        assert sheet.sigma_theorem * 2 * (d - 1) == n - s
        assert sheet.sigma_theorem == sheet.lct_lower / 2
        if s == 0:
            assert sheet.lct_isolated == sheet.lct_lower


def test_composite_prime_refused():
    fd = parse_polynomial("x1^2 + x2^2")
    with pytest.raises(ValueError, match="^9 is not prime$"):
        critical_count(fd, 9)
    with pytest.raises(ValueError, match="^9 is not prime$"):
        estimate_s(fd, [5, 7, 9])
