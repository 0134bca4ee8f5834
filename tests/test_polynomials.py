import copy
import hashlib
import json
import math
import pickle
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from expsums import (
    AdditiveCharacter,
    ArcExpansion,
    Polynomial,
    PolyParseError,
    arc_expansion,
    exp_sum_pruned,
    parse_polynomial,
)
from expsums.corpus import crt_subcorpus, standard_corpus
from conftest import compose, small_polynomials


class TestParser:
    def test_basic_terms(self):
        f = parse_polynomial("x1^2 + 3*x2")
        assert f.n == 2
        assert f.terms == {(2, 0): 1, (0, 1): 3}

    def test_incomplete_expression_offset(self):
        with pytest.raises(PolyParseError) as err:
            parse_polynomial("x1^2 -")
        assert err.value.offset == 7

    def test_binomial_expansion(self):
        f = parse_polynomial("(x1+x2)^3")
        expected = {
            (3 - k, k): math.comb(3, k) for k in range(4)
        }
        assert f.terms == expected

    def test_implicit_multiplication(self):
        assert parse_polynomial("3x1") == parse_polynomial("3*x1")
        assert parse_polynomial("2(x1+1)") == parse_polynomial("2*x1 + 2")

    def test_variable_index_zero_rejected(self):
        with pytest.raises(PolyParseError):
            parse_polynomial("x0 + 1")

    def test_variable_index_above_64_rejected(self):
        # past 64 variables every grid holds at least 2^64 points; x100000 used
        # to build 100000-long exponent tuples, x100000000 ran out of memory
        assert parse_polynomial("x64").n == 64
        for text, offset in (("x65", 1), ("x100000", 1), ("x1*x2 + x100000000", 9),
                             ("x1 + x" + "9" * 5000, 6)):
            with pytest.raises(PolyParseError) as err:
                parse_polynomial(text)
            assert err.value.offset == offset
            assert "exceeds 64" in err.value.bare_message
        with pytest.raises(ValueError):
            parse_polynomial("x1", n_hint=65)
        assert parse_polynomial("x1", n_hint=64).n == 64

    def test_exponent_overflow(self):
        with pytest.raises(PolyParseError):
            parse_polynomial("x1^2147483649")

    def test_floating_coefficients_rejected(self):
        with pytest.raises(PolyParseError):
            parse_polynomial("1.5*x1")

    def test_unicode_rejected(self):
        with pytest.raises(PolyParseError):
            parse_polynomial("x1 + α")

    @pytest.mark.parametrize("text, offset", [
        ("x\u0661+1", 1),  # Arabic-Indic one: parsed as x1 + 1; an x without digits
        ("\u0663*x1", 1),  # Arabic-Indic three: parsed as 3*x1
        ("x\uff12", 1),  # fullwidth two: parsed as x2
        ("x1^\u00b2", 4),  # superscript two: int() raised a plain ValueError
        ("x1\u00a0+ 1", 3),  # no-break space
        ("x1 +\u30001", 5),  # ideographic space
        ("x1+1\x1c", 5),  # a separator that str.isspace accepts
    ])
    def test_only_ascii_digits_and_spaces(self, text, offset):
        # every character before an error is ASCII, so the offset counts bytes
        with pytest.raises(PolyParseError) as err:
            parse_polynomial(text)
        assert err.value.offset == offset
        assert len(text[:offset - 1].encode()) == offset - 1

    @settings(max_examples=400, derandomize=True, deadline=None)
    @given(st.text(alphabet="x0123+-*^() \t\u0661\u0663\uff12\u00b2\u00a0\u3000", max_size=8))
    def test_any_text_parses_or_raises_parse_error(self, text):
        # DSL characters mixed with non-ASCII digits and spaces: a polynomial,
        # or a PolyParseError at a byte offset within the text or one past it.
        # Eight characters keep every power small: "3^333333" is the largest
        # constant and "(x1+1)^3" the largest expansion
        try:
            parse_polynomial(text)
        except PolyParseError as err:
            assert 1 <= err.offset <= len(text) + 1
            assert text[:err.offset - 1].isascii()

    def test_products_and_literals_are_bounded(self):
        # each used to run unbounded, or to raise a bare ValueError from
        # int(), or to parse a coefficient too long to render; now each is a
        # PolyParseError at its operator or literal within a second.  A child
        # process runs them, so a parser that never returns fails the test
        cases = [
            ("(x1+x2+1)^200", 10, "term pairs"),
            ("(x1+1)^2147483648", 7, "term pairs"),
            ("(x1+x2+1)^40*(x1+x2+1)^40", 13, "term pairs"),
            ("(x1+x2+1)^40(x1+x2+1)^40", 13, "term pairs"),
            ("7^99999999", 2, "bits"),
            ("7^6000*x1", 2, "bits"),
            ("7^2000 7^2000", 8, "bits"),
            ("1" * 5000 + "*x1", 1, "bits"),
            ("x1^" + "9" * 5000, 4, "bits"),
        ]
        script = (
            "import json, sys, time\n"
            "from expsums import PolyParseError, parse_polynomial\n"
            "for text in json.load(sys.stdin):\n"
            "    start = time.perf_counter()\n"
            "    try:\n"
            "        parse_polynomial(text)\n"
            "        out = None\n"
            "    except PolyParseError as err:\n"
            "        out = [err.offset, err.bare_message]\n"
            "    print(json.dumps([out, time.perf_counter() - start]), flush=True)\n"
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        done = subprocess.run([sys.executable, "-c", script], input=json.dumps([c[0] for c in cases]),
                              capture_output=True, text=True, timeout=60,
                              env={"PYTHONPATH": src, "PATH": ""})
        assert done.returncode == 0, done.stderr
        results = [json.loads(line) for line in done.stdout.splitlines()]
        for (text, offset, what), (out, seconds) in zip(cases, results, strict=True):
            assert out is not None, text[:40]
            assert out[0] == offset and what in out[1], (text[:40], out)
            assert seconds < 1.0, (text[:40], seconds)

    def test_large_products_within_the_bounds_parse(self):
        assert len(parse_polynomial("(x1+x2+1)^80").terms) == 3321
        assert len(parse_polynomial("(x1+x2+x3+x4+x5+1)^12").terms) == 6188
        assert parse_polynomial("x1^2147483648").terms == {(2**31,): 1}
        assert parse_polynomial("7^2900") == Polynomial.constant(1, 7**2900)

    def test_leading_sign(self):
        assert parse_polynomial("-x1 + 3") == parse_polynomial("3 - x1")

    def test_double_exponent_rejected(self):
        with pytest.raises(PolyParseError):
            parse_polynomial("x1^2^3")

    def test_exponent_of_parenthesized_base(self):
        assert parse_polynomial("(x1+1)^2") == parse_polynomial("x1^2 + 2*x1 + 1")

    def test_n_hint_pads_variables(self):
        f = parse_polynomial("x1", n_hint=3)
        assert f.n == 3

    @given(small_polynomials())
    def test_render_parse_round_trip(self, f):
        assert parse_polynomial(f.render(), n_hint=f.n) == f

    def test_round_trip_bulk(self):
        import random

        from expsums.corpus import random_polynomial

        rng = random.Random(7)
        for _ in range(1000):
            f = random_polynomial(rng)
            assert parse_polynomial(f.render(), n_hint=f.n) == f

    def test_corpora_are_frozen(self):
        # c03 and the bench replay these corpora: their renderings never move
        text = "\n".join([f.render() for seed in (0, 1, 2) for f in standard_corpus(seed)]
                         + [f.render() for f in crt_subcorpus(0, 20)])
        assert hashlib.sha256(text.encode()).hexdigest() == \
            "175bf50e2d5f2af453387fb668436f8d342aa645d075284a4f00fca10cc96994"


class TestEvalMod:
    def test_square(self):
        assert parse_polynomial("x1^2").eval_mod((4,), 9) == 7

    def test_zero_polynomial(self):
        assert Polynomial.zero(2).eval_mod((3, 1), 5) == 0

    def test_cube_independent(self):
        f = parse_polynomial("(x1+x2)^3")
        assert f.eval_mod((2, 3), 7) == pow(2 + 3, 3, 7) == 6

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            parse_polynomial("x1+x2").eval_mod((1,), 5)

    @given(small_polynomials(max_n=2), small_polynomials(max_n=2), st.integers(2, 50))
    @settings(max_examples=40)
    def test_ring_laws(self, f, g, N):
        n = max(f.n, g.n)
        f, g = f.embed(n), g.embed(n)
        point = tuple(range(1, n + 1))
        fg = (f * g).eval_mod(point, N)
        assert fg == f.eval_mod(point, N) * g.eval_mod(point, N) % N
        s = (f + g).eval_mod(point, N)
        assert s == (f.eval_mod(point, N) + g.eval_mod(point, N)) % N


class TestCalculus:
    def test_gradient_quadric(self):
        f = parse_polynomial("x1^2+x2^2")
        gx, gy = f.gradient()
        assert gx == parse_polynomial("2*x1", n_hint=2)
        assert gy == parse_polynomial("2*x2")

    def test_gradient_constant(self):
        f = Polynomial.constant(3, 7)
        assert all(g.is_zero for g in f.gradient())

    def test_gradient_mixed_term(self):
        f = parse_polynomial("x1^2*x2")
        gx, gy = f.gradient()
        assert gx == parse_polynomial("2*x1*x2")
        assert gy == parse_polynomial("x1^2", n_hint=2)

    def test_homogeneous_part(self):
        f = parse_polynomial("x1^2 + 3*x2")
        assert f.homogeneous_part(2) == parse_polynomial("x1^2", n_hint=2)
        assert f.homogeneous_part(5).is_zero

    def test_homogeneous_part_of_expanded_cube(self):
        f = parse_polynomial("(x1+x2)^3 + x1")
        assert f.homogeneous_part(3) == parse_polynomial("(x1+x2)^3")

    @given(small_polynomials(max_n=3, max_degree=3))
    def test_euler_identity_on_leading_form(self, f):
        d = f.degree()
        if d is None or d < 1:
            return
        fd = f.homogeneous_part(d)
        if fd.is_zero:
            return
        total = Polynomial.zero(f.n)
        for j in range(f.n):
            total = total + Polynomial.variable(f.n, j) * fd.partial(j)
        assert total == fd.scale_coefficients(d)

    def test_degree_sentinel(self):
        assert Polynomial.zero(2).degree() is None
        assert Polynomial.constant(2, 5).degree() == 0


class TestArcExpansion:
    def test_square_at_origin(self):
        exp = arc_expansion(parse_polynomial("x1^2"), (0,), 3)
        x11 = Polynomial.variable(3, 0)
        x21 = Polynomial.variable(3, 1)
        assert exp.coefficients[0].is_zero
        assert exp.coefficients[1].is_zero
        assert exp.coefficients[2] == x11 * x11
        assert exp.coefficients[3] == 2 * x11 * x21

    def test_constant_coefficient_is_value(self):
        f = parse_polynomial("x1^3 + 2*x2 - 5")
        exp = arc_expansion(f, (2, 3), 1)
        assert exp.coefficients[0] == Polynomial.constant(2, f.eval_int((2, 3)))

    def test_linear_polynomial(self):
        exp = arc_expansion(parse_polynomial("x1"), (5,), 2)
        assert exp.coefficients[0] == Polynomial.constant(2, 5)
        assert exp.coefficients[1] == Polynomial.variable(2, 0)
        assert exp.coefficients[2] == Polynomial.variable(2, 1)

    def test_order_zero_rejected(self):
        with pytest.raises(ValueError):
            arc_expansion(parse_polynomial("x1"), (0,), 0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            arc_expansion(parse_polynomial("x1+x2"), (0,), 2)

    def test_matches_substitution_on_the_corpus(self):
        """Independent oracle: with integer arc variables x_ij and t = p,
        sum_i coefficients[i](x) p^i == f(P + sum_i x_i p^i) mod p^(order+1)."""
        import random

        rng = random.Random(0)
        p = 5
        for f in standard_corpus(0):
            order = min(4, max(2, 8 // f.n))
            point = tuple(rng.randrange(-3, 4) for _ in range(f.n))
            exp = arc_expansion(f, point, order)
            assert len(exp.coefficients) == order + 1
            for _ in range(3):
                x = [rng.randrange(-50, 51) for _ in range(order * f.n)]
                arc = [point[j] + sum(x[(i - 1) * f.n + j] * p**i for i in range(1, order + 1))
                       for j in range(f.n)]
                series = sum(c.eval_int(x) * p**i for i, c in enumerate(exp.coefficients))
                assert (series - f.eval_int(arc)) % p ** (order + 1) == 0

    def _weighted_scale(self, poly: Polynomial, n: int, lam: int, p: int, point):
        """poly(lam^i * x_ij) mod p at an integer point."""
        scaled = [lam ** ((pos // n) + 1) * v for pos, v in enumerate(point)]
        return poly.eval_mod(scaled, p)

    @given(small_polynomials(max_n=2, max_degree=3), st.integers(1, 3))
    @settings(max_examples=25)
    def test_derivative_identity(self, f, order):
        """d f_{P,i} / d x_{lj} == (F_j)_{P, i-l} for every level and axis."""
        point = tuple(range(1, f.n + 1))
        exp = arc_expansion(f, point, order)
        grad_exp = [arc_expansion(g, point, order) for g in f.gradient()]
        ambient = order * f.n
        for i in range(1, order + 1):
            for level in range(1, order + 1):
                for j in range(f.n):
                    lhs = exp.coefficients[i].partial((level - 1) * f.n + j)
                    k = i - level
                    if k < 0:
                        assert lhs.is_zero
                    else:
                        rhs = grad_exp[j].coefficients[k].embed(ambient)
                        assert lhs == rhs

    @given(small_polynomials(max_n=2, max_degree=3), st.integers(1, 3))
    @settings(max_examples=25)
    def test_coefficients_weighted_homogeneous_symbolically(self, f, order):
        """Every monomial of the t^i coefficient has weighted degree i when
        the level-l variables carry weight l."""
        exp = arc_expansion(f, tuple(range(f.n)), order)
        for i, poly in enumerate(exp.coefficients):
            for mono in poly.terms:
                wdeg = sum(k * ((pos // f.n) + 1) for pos, k in enumerate(mono) if k)
                assert wdeg == i

    def test_weighted_homogeneity_at_random_points(self):
        import random

        rng = random.Random(3)
        p = 7
        f = parse_polynomial("x1^3 + x1*x2^2 + x2^3")
        # origin is critical with f = 0
        for order in (2, 3, 4):
            exp = arc_expansion(f, (0, 0), order)
            ambient = order * f.n
            for m in range(1, order + 1):
                poly = exp.coefficients[m]
                for _ in range(100):
                    lam = rng.randrange(1, p)
                    point = [rng.randrange(p) for _ in range(ambient)]
                    lhs = self._weighted_scale(poly, f.n, lam, p, point)
                    rhs = pow(lam, m, p) * poly.eval_mod(point, p) % p
                    assert lhs == rhs


class TestArithmetic:
    def test_immutability(self):
        f = parse_polynomial("x1")
        for _ in range(2):  # before and after hash(f) caches the hash
            for name in ("n", "terms", "_hash", "other"):
                with pytest.raises(AttributeError, match="immutable"):
                    setattr(f, name, 3)
            hash(f)
        assert f.n == 1 and hash(f) == hash(parse_polynomial("x1"))

    def test_copy_and_pickle_keep_the_value(self):
        f = parse_polynomial("x1^3+x2^3+x1*x2")
        exp_sum_pruned(f, AdditiveCharacter(5, 3))
        for g in (copy.copy(f), copy.deepcopy(f), pickle.loads(pickle.dumps(f)), parse_polynomial(str(f))):
            assert g == f and list(g.terms) == list(f.terms) and hash(g) == hash(f)

    def test_pow(self):
        f = parse_polynomial("x1 + 1")
        assert f**4 == parse_polynomial("(x1+1)^4")
        assert f**0 == Polynomial.constant(1, 1)

    def test_compose_shift_scale(self):
        f = parse_polynomial("x1^2 + x2")
        g = f.shift_scale((1, 2), 3)
        # f(1 + 3y1, 2 + 3y2) = 1 + 6y1 + 9y1^2 + 2 + 3y2
        assert g == parse_polynomial("9*x1^2 + 6*x1 + 3*x2 + 3")

    @given(small_polynomials(max_n=3, max_degree=4), st.lists(st.integers(-9, 9), min_size=3, max_size=3),
           st.integers(-27, 27))
    @settings(max_examples=60)
    def test_shift_scale_matches_compose(self, f, base, scale):
        subs = [Polynomial.constant(f.n, b) + Polynomial.variable(f.n, j).scale_coefficients(scale)
                for j, b in enumerate(base[: f.n])]
        assert f.shift_scale(base[: f.n], scale) == compose(f, subs)
