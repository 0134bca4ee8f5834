import cmath
import itertools
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from expsums import circle, enumeration
from expsums import (
    BudgetExceededError,
    OscillatoryIntegrator,
    WeightFunction,
    complete_sum_mod_q,
    major_arc_report,
    oscillatory_integral,
    parse_polynomial,
    singular_integral,
    singular_series,
    singular_series_local,
    weighted_exponential_sum,
    weighted_solution_count,
)
from conftest import brute_weight, traced_peak

C10_CENTRE = (3 / math.sqrt(18), 0.0, 0.0, 0.0, 3 / math.sqrt(18))
C10_QUADRIC = "x1^2+x2^2+x3^2-x4^2-x5^2"


def whole_grid(f, w, order):
    """(f values, weights) of _grid's chunks at this order, each concatenated."""
    fs, wqs = zip(*circle._grid(f, w, order, lambda fv, wq: (fv, wq)))
    return np.concatenate(fs), np.concatenate(wqs)


def whole_order_ladder(f, w, tol, integrand):
    """(value, order) by the ladder as it read whole orders: integrand(f
    values, weights) of each order's whole_grid, stopping on the mass
    np.sum(weights) of that grid."""
    prev = None
    for order in circle._ORDER_LADDERS[f.n]:
        fs, wqs = whole_grid(f, w, order)
        cur = integrand(fs, wqs)
        if prev is not None and abs(cur - prev) <= tol * max(abs(cur), float(np.sum(wqs))):
            return cur, order
        prev = cur
    raise AssertionError("the whole-order ladder did not stabilize")


def brute_weighted_count(f, B, w):
    """N_omega(f, B) by a plain loop over the support box."""
    total = []
    for pt in itertools.product(*[range(lo, hi + 1) for lo, hi in w.support_box(B)]):
        if f.eval_int(pt) == 0:
            total.append(brute_weight(w, tuple(c / B for c in pt)))
    return math.fsum(total)


class TestWeight:
    def test_center_value(self):
        w = WeightFunction((0.3, -0.2), 0.9)
        assert abs(w.values(np.array([[0.3, -0.2]]))[0] - math.exp(-1)) < 1e-15

    def test_boundary_is_zero(self):
        w = WeightFunction((0.0,), 0.5)
        assert w.values(np.array([[0.5], [0.7]])).tolist() == [0.0, 0.0]

    def test_half_radius(self):
        w = WeightFunction((0.0, 0.0), 0.8)
        assert abs(w.values(np.array([[0.4, 0.0]]))[0] - math.exp(-4 / 3)) < 1e-14

    def test_rho_validated(self):
        with pytest.raises(ValueError):
            WeightFunction((0.0,), 1.5)


class TestLatticeSum:
    def test_zero_phase_is_polynomial_independent(self):
        w = WeightFunction((0.0, 0.0), 0.9)
        a = weighted_exponential_sum(parse_polynomial("x1^2+x2^2"), 8.0, w, 0.0)
        b = weighted_exponential_sum(parse_polynomial("x1*x2 - 4"), 8.0, w, 0.0)
        assert abs(a - b) < 1e-12
        assert a.real > 0 and abs(a.imag) < 1e-14

    def test_empty_box(self):
        w = WeightFunction((0.4,), 0.2)
        # support is (0.2 B, 0.6 B); B small enough that no integer fits
        assert weighted_exponential_sum(parse_polynomial("x1"), 1.0, w, 0.3) == 0j

    def test_against_independent_summation(self):
        f = parse_polynomial("x1^2-x2^2")
        w = WeightFunction((0.0, 0.0), 0.9)
        got = weighted_exponential_sum(f, 10.0, w, 0.5)
        acc = []
        for x in range(-9, 10):
            for y in range(-9, 10):
                t2 = (x * x + y * y) / 100.0 / 0.81
                if t2 >= 1:
                    continue
                acc.append(math.exp(-1 / (1 - t2)) * cmath.exp(1j * math.pi * (x * x - y * y)))
        want = complex(math.fsum(z.real for z in acc), math.fsum(z.imag for z in acc))
        assert abs(got - want) < 1e-8


class TestCompleteSum:
    def test_q_one(self):
        assert complete_sum_mod_q(parse_polynomial("x1"), 1, 1) == 1

    def test_gauss_magnitude(self):
        assert abs(abs(complete_sum_mod_q(parse_polynomial("x1^2"), 5, 1)) - 5**0.5) < 1e-10

    def test_crt_product_45(self):
        got = abs(complete_sum_mod_q(parse_polynomial("x1^2"), 45, 1))
        assert abs(got - 3 * 5**0.5) < 1e-9

    def test_weyl_trivial_bound(self):
        f = parse_polynomial("x1^3+x2")
        for q in (2, 3, 4, 6, 9):
            assert abs(complete_sum_mod_q(f, q, 1)) <= q**f.n + 1e-9

    def test_conjugate_pairing_sweep(self):
        # the a and q-a averages are conjugate, so unit averages are real
        for text, q_max in (("x1^3 + 2*x1", 200), ("x1^2 + x1*x2 - 3", 60)):
            f = parse_polynomial(text)
            for q in range(1, q_max + 1):
                total = sum(
                    complete_sum_mod_q(f, q, a)
                    for a in range(1, q + 1)
                    if math.gcd(a, q) == 1
                )
                assert abs(total.imag) < 1e-10 * max(1.0, abs(total))

    def test_multiplicativity_coprime(self):
        f = parse_polynomial("x1^2+x1")
        q1, q2 = 4, 9
        a = 7  # unit mod 36
        a1 = a * pow(9, -1, 4) % 4
        a2 = a * pow(4, -1, 9) % 9
        lhs = complete_sum_mod_q(f, q1 * q2, a)
        rhs = complete_sum_mod_q(f, q1, a1) * complete_sum_mod_q(f, q2, a2)
        assert abs(lhs - rhs) < 1e-9


class TestSingularSeries:
    def test_r_one(self):
        res = singular_series(parse_polynomial("x1^2"), 1)
        assert res.S_of_R == 1.0

    def test_five_square_form(self):
        f = parse_polynomial("x1^2+x2^2+x3^2+x4^2+x5^2-1")
        res = singular_series(f, 2)
        # q = 2 term enumerated over 2^5 points
        s2 = complete_sum_mod_q(f, 2, 1)
        assert abs(res.S_of_R - (1 + s2.real / 2**5)) < 1e-12

    @pytest.mark.parametrize(
        "text, R",
        [("x1^2 + x2^3", 12), ("x1^2+x1*x2-3", 20), ("x1^2+x2^2+x3^2-x4^2-x5^2", 16)],
        ids=["cusp", "composite_q", "quadric"],
    )
    def test_exact_series_matches_unit_sums(self, text, R):
        f = parse_polynomial(text)
        oracle = 0.0
        for q in range(1, R + 1):
            units = [a for a in range(1, q + 1) if math.gcd(a, q) == 1]
            oracle += sum(complete_sum_mod_q(f, q, a) for a in units).real / q**f.n
        got = singular_series(f, R).S_of_R
        assert isinstance(got, Fraction)
        assert abs(got - oracle) < 1e-12

    def test_quadric_partial_sums(self):
        f = parse_polynomial("x1^2+x2^2+x3^2-x4^2-x5^2")
        got = [singular_series(f, R).S_of_R for R in (3, 4, 10, 16)]
        assert got == [1, Fraction(5, 4), Fraction(413, 324), Fraction(3385, 2592)]

    def test_budget_applies_to_each_count(self, monkeypatch):
        monkeypatch.setenv("IGUSA_BUDGET", str(10**4))
        f = parse_polynomial("x1^2+x2^2+x3^2-x4^2-x5^2")
        with pytest.raises(BudgetExceededError):
            singular_series(f, 16)

    def test_cutoff_above_the_budget_refused_uncharged(self, monkeypatch):
        # R above the budget used to allocate R + 1 terms and sieve to R
        monkeypatch.setenv("IGUSA_BUDGET", "10")
        f = parse_polynomial("x1^2 - 2")
        enumeration.reset_meter()
        with pytest.raises(BudgetExceededError) as err:
            singular_series(f, 11)
        assert (err.value.needed, err.value.budget) == (11, 10)
        assert enumeration.meter_consumed() == 0
        singular_series(f, 10)  # R at the budget runs

    def test_local_factor_matches_grouping(self):
        f = parse_polynomial("x1^2+x2^2")
        local = singular_series_local(f, 3, 2)
        manual = 1.0
        for r in (1, 2):
            q = 3**r
            term = sum(
                complete_sum_mod_q(f, q, a) / q**f.n for a in range(1, q) if a % 3
            )
            manual += term.real
        assert isinstance(local, Fraction)
        assert abs(local - manual) < 1e-12


class TestOscillatoryIntegral:
    def test_zero_frequency_is_weight_mass(self):
        w = WeightFunction((0.1, 0.0), 0.8)
        a = oscillatory_integral(parse_polynomial("x1^2+x2^2"), w, 0.0)
        b = oscillatory_integral(parse_polynomial("x1*x2"), w, 0.0)
        assert abs(a - b) < 1e-7
        assert a.real > 0 and abs(a.imag) < 1e-12

    def test_magnitude_bounded_by_mass(self):
        f = parse_polynomial("x1^2 - x2^2")
        w = WeightFunction((0.2, 0.1), 0.7)
        integ = OscillatoryIntegrator(f, w)
        mass = integ.value(0.0).real
        for gamma in (0.5, 1.0, 2.0, 4.0):
            assert abs(integ.value(gamma)) <= mass * (1 + 1e-9)

    def test_conjugate_symmetry(self):
        f = parse_polynomial("x1^3 + x1")
        w = WeightFunction((0.0,), 0.9)
        integ = OscillatoryIntegrator(f, w)
        for gamma in (0.7, 1.9):
            assert abs(integ.value(-gamma) - integ.value(gamma).conjugate()) < 1e-9

    def test_value_is_independent_of_call_history(self):
        f = parse_polynomial("x1^2 - x2^2 + x1*x2")
        w = WeightFunction((0.3, 0.2), 0.6)
        fresh = OscillatoryIntegrator(f, w).value(1.5)
        used = OscillatoryIntegrator(f, w)
        for gamma in (0.1, 5.0, 9.0, 20.0):
            used.value(gamma)
        assert used.value(1.5) == fresh

    def test_bump_transform_decays_superpolynomially(self):
        # no stationary point of x1 in the support: I(gamma) falls off
        # faster than any power; check the ratio at doubling frequencies
        f = parse_polynomial("x1")
        w = WeightFunction((0.0,), 0.9)
        integ = OscillatoryIntegrator(f, w)
        vals = [abs(integ.value(g)) for g in (5.0, 10.0, 20.0)]
        assert vals[1] < vals[0] / 8
        assert vals[2] < vals[1] / 8


class TestSingularIntegral:
    def test_interval_additivity_bound(self):
        f = parse_polynomial("x1^2 - x2^2")
        w = WeightFunction((0.3, 0.3), 0.8)
        j1 = singular_integral(f, w, 1.0, tol=1e-5)
        j2 = singular_integral(f, w, 2.0, tol=1e-5)
        integ = OscillatoryIntegrator(f, w, tol=1e-5)
        tail = 2 * max(abs(integ.value(g)) for g in (1.0, 1.5, 2.0))
        assert abs(j2.J_of_R - j1.J_of_R) <= tail * 1.0 + 1e-6

    def test_closed_form_matches_gamma_quadrature(self):
        # oracle: J(R) = 2 int_0^R Re I(gamma) dgamma by plain Gauss-Legendre
        f = parse_polynomial("x1^2 - x2^2 + x1*x2")
        w = WeightFunction((0.3, 0.2), 0.6)
        R = 2.0
        tol = 1e-9
        integ = OscillatoryIntegrator(f, w, tol=tol)
        nodes, weights = np.polynomial.legendre.leggauss(40)
        oracle = 2 * math.fsum(
            wt * R / 2 * integ.value(R / 2 * (1 + t)).real for t, wt in zip(nodes, weights)
        )
        got = singular_integral(f, w, R, tol=tol)
        assert abs(got.J_of_R - oracle) <= 10 * tol * float(np.sum(whole_grid(f, w, got.order)[1]))
        assert got.order in circle._ORDER_LADDERS[f.n]

    @pytest.mark.parametrize("poly, centre, rho, R", [
        ("x1^2 - x2^2 + x1*x2", (0.3, 0.2), 0.6, 2.0),
        ("x1^2+x2^2+x3^2-x4^2-x5^2", C10_CENTRE, 0.9, 30**0.25),
    ], ids=["quadric-2", "c10-B30"])
    def test_ladder_builds_each_order_once(self, poly, centre, rho, R, monkeypatch):
        # the tolerance scale came from an extra mid-ladder grid built first
        built = []
        grid = circle._grid
        monkeypatch.setattr(circle, "_grid",
                            lambda f, w, order, each: built.append(order) or grid(f, w, order, each))
        got = singular_integral(parse_polynomial(poly), WeightFunction(centre, rho), R)
        orders = list(circle._ORDER_LADDERS[len(centre)])
        assert built == orders[: orders.index(got.order) + 1]

    @pytest.mark.parametrize("R", [float("nan"), float("inf"), 0.0, -1.0])
    def test_R_not_positive_and_finite_refused(self, R):
        # nan and inf passed the R <= 0 check and ended in QuadratureConvergenceError
        with pytest.raises(ValueError, match="R must be positive and finite"):
            singular_integral(parse_polynomial("x1^2 - x2^2"), WeightFunction((0.2, 0.1), 0.5), R)

    @pytest.mark.parametrize("poly, centre", [
        ("10^308*x1^2 + x2^2 - x3^2", (0.5, 0.25, 0.0)),  # a coefficient
        ("x1^2 + x2^2", (1e200, 0.0)),  # the reach of the support ball
    ], ids=["coefficient", "centre"])
    def test_sinc_argument_overflow_refused(self, poly, centre):
        # 2 pi R f(x) overflowed on the nodes, and the ladder climbed on inf/nan values
        f, w = parse_polynomial(poly), WeightFunction(centre, 0.5)
        with pytest.raises(ValueError, match="may overflow a float on the support ball"):
            singular_integral(f, w, 2**0.5)

    @pytest.mark.parametrize("poly", ["x1 - x2", "x1^2 - x2^2 + x1*x2"])
    def test_in_place_sinc_matches_np_sinc_bitwise(self, poly):
        # on the diagonal the nodes of both axes coincide, so x1 - x2 is exactly
        # 0 there and the sinc's removable point is exercised
        f = parse_polynomial(poly)
        w = WeightFunction((0.2, 0.2), 0.7)
        R = 1.7
        want, order = circle._ladder(f, w, circle.QUAD_TOL, lambda fs, wqs: wqs * np.sinc(2.0 * R * fs),
                                     lambda values: 2.0 * R * float(np.sum(values)), "J")
        got = singular_integral(f, w, R)
        assert (got.J_of_R, got.order) == (want, order)

    @pytest.mark.parametrize("poly, centre, rho, R, block, gammas", [
        ("x1^2 - x2^2 + x1*x2", (0.3, 0.2), 0.6, 2.0, 64, (0.0, 0.7, 3.0)),
        ("x1 - x2", (0.2, 0.2), 0.7, 1.7, 200, (0.0, 0.7, 3.0)),  # f = 0 exactly: the sinc's removable point
        ("x1^3+x2^3-x3^3+x1*x2*x3", (0.5, 0.25, 0.6), 0.5, 8**0.25, 1000, (0.0, 0.7, 3.0)),
        (C10_QUADRIC, C10_CENTRE, 0.9, 30**0.25, None, (0.0,)),
    ], ids=["quadric-2", "diagonal", "cubic-3", "c10-B30"])
    def test_chunked_values_equal_the_whole_order_formula_bitwise(self, poly, centre, rho, R, block, gammas,
                                                                   monkeypatch):
        # J(R) and I(gamma) sum per-node values kept per chunk; the formulas
        # below read each order's whole grid, and the bits must not differ
        if block:  # many chunks per order
            monkeypatch.setattr(enumeration, "_BLOCK_ELEMS", block)
        f, w, tol = parse_polynomial(poly), WeightFunction(centre, rho), circle.QUAD_TOL

        def whole_J(fs, wqs):
            y = fs * (2.0 * R)
            y *= np.pi
            y[y == 0] = np.finfo(np.float64).eps
            s = np.sin(y)
            s /= y
            s *= wqs
            return 2.0 * R * float(np.sum(s))

        got, (J, order) = singular_integral(f, w, R), whole_order_ladder(f, w, tol, whole_J)
        assert (got.J_of_R.hex(), got.order) == (J.hex(), order)
        integ = OscillatoryIntegrator(f, w, tol)
        for gamma in gammas:
            phase = 2j * np.pi * gamma
            want = whole_order_ladder(f, w, tol, lambda fs, wqs: complex(np.sum(wqs * np.exp(phase * fs))))
            assert integ.value(gamma) == want[0]

    @pytest.mark.parametrize("centre, bound", [
        (C10_CENTRE, 8),
        ((0.1, 0.2, 0.15, 0.1, 0.2), 24),  # no mirror axis: the grid is unfolded
    ], ids=["c10-B30", "unfolded"])
    def test_quadrature_holds_one_value_per_node(self, centre, bound):
        # each order's f values and weights were kept per chunk, concatenated
        # and fed to the sinc's temporaries: traced peaks of 13.3 MiB (c10)
        # and 34.0 MiB (unfolded); one value per node reads 5.7 and 15.2
        f, w = parse_polynomial(C10_QUADRIC), WeightFunction(centre, 0.9)
        got, peak = traced_peak(lambda: singular_integral(f, w, 30**0.25))
        assert got.J_of_R > 0
        assert peak < bound * 2**20, peak / 2**20

    def test_bits_do_not_depend_on_simd_dispatch(self):
        # numpy's array power x**k (k >= 3) can differ by an ulp from the
        # scalar power with the dispatched SIMD features; the grid takes every
        # power from scalar tables, so J(R) repeats bit for bit with all of
        # them disabled (a CPU with none of them passes as is)
        try:
            from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
        except ImportError:  # numpy < 2
            from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__
        root = Path(__file__).resolve().parent.parent
        code = ("from expsums import WeightFunction, parse_polynomial, singular_integral\n"
                "from expsums.cli import build_config, run\n"
                "code, report = run(build_config(['circle', '--poly', 'x1^3+x2^3-x3^3+x1*x2*x3',"
                " '--B', '8', '--delta', '0.25', '--rho', '0.5', '--center=0.5,0.25,0.6']))\n"
                "print(code, report['result']['report'].J_truncated.hex())\n"
                "f = parse_polynomial('x1^2*x2^3-x2^4*x3+x3^5+x1*x2')\n"
                "print(singular_integral(f, WeightFunction((0.1, 0.4, 0.3), 0.6), 2.5).J_of_R.hex())")
        outs = set()
        for disabled in (None, " ".join(name for name in __cpu_dispatch__ if __cpu_features__.get(name))):
            env = dict(os.environ, PYTHONPATH=os.pathsep.join(
                filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])))
            for name in ("NPY_DISABLE_CPU_FEATURES", "NPY_ENABLE_CPU_FEATURES"):
                env.pop(name, None)
            if disabled:
                env["NPY_DISABLE_CPU_FEATURES"] = disabled
            done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                                  text=True, timeout=120)
            assert done.returncode == 0, done.stderr
            outs.add(done.stdout)
        assert len(outs) == 1, outs


class TestWeightedCount:
    def test_c10_walk_peak_stays_small(self):
        # the walk was cut at its own chunks of 2^20 points, a tracemalloc peak
        # of 45.9 MiB at B = 40; enumeration's 2^17-point blocks keep it near 5
        f, w = parse_polynomial(C10_QUADRIC), WeightFunction(C10_CENTRE, 0.9)
        count, peak = traced_peak(lambda: weighted_solution_count(f, 40.0, w))
        assert count > 0
        assert peak < 16 << 20

    def test_c10_fiber_solver_drops_its_columns(self):
        # the chunk's coordinate columns stayed alive through the solve after
        # A, B and C were evaluated: 5.37 MiB traced at B = 30, 4.03 without
        f, w = parse_polynomial(C10_QUADRIC), WeightFunction(C10_CENTRE, 0.9)
        count, peak = traced_peak(lambda: weighted_solution_count(f, 30.0, w))
        assert count > 0
        assert peak < 4.7 * 2**20

    def test_no_solutions(self):
        f = parse_polynomial("x1^2 + 1")
        w = WeightFunction((0.0,), 0.9)
        assert weighted_solution_count(f, 10.0, w) == 0.0

    def test_single_root_weight(self):
        f = parse_polynomial("x1", n_hint=1)
        w = WeightFunction((0.0,), 0.9)
        assert abs(weighted_solution_count(f, 10.0, w) - math.exp(-1)) < 1e-15

    def test_circle_of_radius_five(self):
        f = parse_polynomial("x1^2+x2^2-25")
        w = WeightFunction((0.0, 0.0), 0.9)
        got = weighted_solution_count(f, 10.0, w)
        pts = [(3, 4), (4, 3), (5, 0), (0, 5)]
        pts = {(sx * a, sy * b) for a, b in pts for sx in (1, -1) for sy in (1, -1)}
        want = math.fsum(
            math.exp(-1 / (1 - (a * a + b * b) / 81.0)) for a, b in pts
        )
        assert abs(got - want) < 1e-12

    def test_quadratic_path_matches_generic(self):
        w3 = WeightFunction((0.2, -0.1, 0.3), 0.8)
        for text in ("x1^2 + x2*x3 - 7", "x1*x3 + x2 - 1", "x1^2 + x2^2 - x3^2"):
            f = parse_polynomial(text)
            fast = weighted_solution_count(f, 6.0, w3)
            assert abs(fast - brute_weighted_count(f, 6.0, w3)) < 1e-12

    def test_wide_discriminant_falls_back_to_exact_path(self):
        # (x2 - x1)(x2 + x1 + 2^32): b^2 = 2^64 would wrap in int64
        f = parse_polynomial("x2^2 + 4294967296*x2 - 4294967296*x1 - x1^2")
        w = WeightFunction((0.1, 0.1), 0.8)
        want = brute_weighted_count(f, 30.0, w)
        assert want > 7
        assert abs(weighted_solution_count(f, 30.0, w) - want) < 1e-12

    @pytest.mark.parametrize("shift", [-1, 0, 1])
    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("K", [2**25 - 3, 2**25 + 1])
    def test_square_discriminant_near_2_pow_50(self, K, n, shift):
        # (x_n - x1)(x_n - x1 - K) + shift has discriminant K^2 - 4 shift, a
        # perfect square only at shift 0; K^2 is still below the 2^52 bound
        g = parse_polynomial(f"x{n} - x1", n_hint=n)
        f = g * (g - K) + shift
        w = WeightFunction((0.1,) * n, 0.8)
        assert circle._float_sqrt_safe(circle._last_var_split(f), w.support_box(8.0)[:-1])
        want = brute_weighted_count(f, 8.0, w)
        assert (want > 1) == (shift == 0)
        assert abs(weighted_solution_count(f, 8.0, w) - want) < 1e-12

    @pytest.mark.parametrize("B", [0.0, -3.0, float("nan"), float("inf")])
    def test_B_not_positive_and_finite_refused(self, B):
        # 0.0 and -3.0 returned 0.0 (a divide-by-zero warning, an empty box)
        f, w = parse_polynomial("x1^2+x2^2-25"), WeightFunction((0.0, 0.0), 0.9)
        with pytest.raises(ValueError, match="B must be positive and finite"):
            weighted_solution_count(f, B, w)
        with pytest.raises(ValueError, match="B must be positive and finite"):
            weighted_exponential_sum(f, B, w, 0.5)

    def test_column_degenerate_fiber(self):
        # f independent of the last variable: whole columns count
        f = parse_polynomial("x1^2 - 4 + 0*x2", n_hint=2)
        w = WeightFunction((0.0, 0.0), 0.9)
        got = weighted_solution_count(f, 4.0, w)
        total = []
        for x1 in (-2, 2):
            for x2 in range(-3, 4):
                total.append(brute_weight(w, (x1 / 4.0, x2 / 4.0)))
        assert abs(got - math.fsum(total)) < 1e-13



# (B, rho, centre * B, offset): centre + offset / B lies exactly on the
# sphere.  Dyadic values make t2 == 1.0 exactly there, so its weight is 0.
SPHERE_CASES = [
    (8.0, 0.75, (2, -4, 1, 3), (0, 6, 0, 0)),
    (8.0, 0.625, (2, -4, 1, 3), (3, 4, 0, 0)),  # on the sphere of the first two axes
    (4.0, 0.75, (1, -2, 0, 1), None),  # None: offset rho * B on the last axis
]


def _sphere_case(case, n):
    B, rho, c_int, offset = case
    r = int(rho * B)
    offset = offset[:n] if offset else ()
    if sum(o * o for o in offset) != r * r:
        offset = (0,) * (n - 1) + (r,)
    w = WeightFunction(tuple(c / B for c in c_int[:n]), rho)
    on_sphere = tuple(c + o for c, o in zip(c_int, offset))
    assert w.values(np.array([on_sphere], dtype=np.float64), scale=B)[0] == 0.0
    return B, w, on_sphere


class TestBallColumns:
    @pytest.mark.parametrize("case", SPHERE_CASES)
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_equals_nonzero_weight_box_points(self, case, n, monkeypatch):
        # the walk's points of nonzero weight, unfolded (weight 1 on every axis)
        monkeypatch.setattr(enumeration, "_BLOCK_ELEMS", 40)
        B, w, on_sphere = _sphere_case(case, n)
        box = w.support_box(B)
        pts = np.array(list(itertools.product(*[range(lo, hi + 1) for lo, hi in box])))
        want = pts[w.values(pts.astype(np.float64), scale=B) > 0]
        assert on_sphere in map(tuple, pts.tolist()) and on_sphere not in map(tuple, want.tolist())
        for k in range(1, n + 1):  # prefixes: the fiber solver tests its first n-1 axes only
            wk = WeightFunction(w.center[:k], w.rho)
            want_k = pts[:, :k][wk.values(pts[:, :k].astype(np.float64), scale=B) > 0]
            want_k = np.unique(want_k, axis=0)  # row-major order, one row per prefix
            axes = [np.arange(lo, hi + 1) for lo, hi in box[:k]]
            got = circle._walk([x / B - c for x, c in zip(axes, w.center)], [np.ones(x.size) for x in axes],
                               w.rho, lambda idx, wq, t2: np.stack([x[i] for x, i in zip(axes, idx)], axis=-1))
            assert np.concatenate(got).tolist() == want_k.tolist()
        assert want.tolist() == want_k.tolist()

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_grid_equals_filtered_tensor_grid(self, n):
        # Gauss-Legendre offsets: _grid at the first two ladder orders equals
        # the full tensor grid filtered by t2 / rho^2 < 1, in row-major order;
        # f = x1 + 2 x2 + ... makes its values tell the nodes apart
        w = WeightFunction(tuple(0.1 * (-1) ** j * (j + 1) for j in range(n)), 0.7)
        f = parse_polynomial(" + ".join(f"{j + 1}*x{j + 1}" for j in range(n)), n_hint=n)
        for order in circle._ORDER_LADDERS[n][:2]:
            nodes, gl_w = np.polynomial.legendre.leggauss(order)
            idx = np.array(list(itertools.product(range(order), repeat=n)))
            t2, wq, fv = np.zeros(len(idx)), np.ones(len(idx)), np.zeros(len(idx))
            for j, c in enumerate(w.center):
                x = (c + w.rho * nodes)[idx[:, j]]
                t2 = t2 + (x - c) ** 2
                wq = wq * (w.rho * gl_w)[idx[:, j]]
                fv = fv + (j + 1.0) * x
            t2 = t2 / w.rho**2
            inside = t2 < 1.0
            fs, wqs = whole_grid(f, w, order)
            assert fs.tolist() == fv[inside].tolist()
            assert wqs.tolist() == (wq * np.exp(-1.0 / (1.0 - t2)))[inside].tolist()


# fiber-solver branches by the last variable z: a z^2 + b z + c with a != 0,
# a == 0 != b, a == b == c == 0 (whole columns), and degree 3 (generic path)
BRANCHES = {
    "quadratic": "x{n}^2 + x1*x{n} - x1^2",
    "linear": "x1*x{n} + x{n} + x1^2",
    "flat_column": "x1^2 + x1",
    "generic": "x{n}^3 + x1",
}


@pytest.mark.parametrize("case", SPHERE_CASES)
@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("branch", sorted(BRANCHES))
def test_solver_branches_match_brute_force(branch, n, case):
    B, w, on_sphere = _sphere_case(case, n)
    g = parse_polynomial(BRANCHES[branch].format(n=n), n_hint=n)
    f = g - g.eval_int(on_sphere)  # a root of weight exactly 0
    assert (circle._last_var_split(f) is None) == (branch == "generic")
    want = brute_weighted_count(f, B, w)
    assert abs(weighted_solution_count(f, B, w) - want) <= 1e-12


def _unfolded(monkeypatch):
    monkeypatch.setattr(circle, "_mirror_axes", lambda f, w, axes: [])


def _even_form(n):
    """Even in every variable: x1^2 - 2 x2^2 + 3 x3^2 ... + x1^2 xn^4 - 1."""
    terms = "".join(f" {'+-'[j % 2]} {j + 1}*x{j + 1}^2" for j in range(n))
    return parse_polynomial(f"x1^2*x{n}^4{terms} - 1", n_hint=n)


class TestMirrorFold:
    @staticmethod
    def _sums(f, w, order):
        fs, wqs = whole_grid(f, w, order)
        return fs.size, float(np.sum(wqs)), float(np.sum(wqs * np.cos(5.0 * fs)))

    def _assert_fold_exact(self, f, w, orders, monkeypatch):
        """{order: (folded nodes, unfolded nodes)}, after checking that the
        folded grid's sums of wq and wq cos(5 f) equal the unfolded ones."""
        folded = {order: self._sums(f, w, order) for order in orders}
        _unfolded(monkeypatch)
        sizes = {}
        for order in orders:
            size, mass, osc = folded[order]
            full_size, full_mass, full_osc = self._sums(f, w, order)
            assert size < full_size
            assert abs(mass - full_mass) <= 1e-14 * full_mass
            assert abs(osc - full_osc) <= 1e-14 * full_mass
            sizes[order] = size, full_size
        return sizes

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_grid_fold_at_origin(self, n, monkeypatch):
        f, w = _even_form(n), WeightFunction((0.0,) * n, 0.7)
        assert circle._mirror_axes(f, w, range(n)) == list(range(n))
        self._assert_fold_exact(f, w, circle._ORDER_LADDERS[n][:2], monkeypatch)

    def test_grid_fold_c10_order_40(self, monkeypatch):
        # the c10 quadric folds on x2..x4; order 40 has no node at 0, so the
        # folded grid holds exactly an eighth of the nodes
        f = parse_polynomial("x1^2+x2^2+x3^2-x4^2-x5^2")
        w = WeightFunction(C10_CENTRE, 0.9)
        assert circle._mirror_axes(f, w, range(5)) == [1, 2, 3]
        size, full_size = self._assert_fold_exact(f, w, [40], monkeypatch)[40]
        assert 8 * size == full_size

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_grid_fold_odd_order_counts_zero_node_once(self, n, monkeypatch):
        monkeypatch.setitem(circle._ORDER_LADDERS, n, (7, 9))
        f, w = _even_form(n), WeightFunction((0.0,) * n, 0.7)
        assert np.polynomial.legendre.leggauss(7)[0][3] == 0.0
        if n == 1:
            assert whole_grid(f, w, 7)[0].size == 4
        self._assert_fold_exact(f, w, [7, 9], monkeypatch)

    @pytest.mark.parametrize(
        "text, centre",
        [("x1^2 + x1*x2", (0.0, 0.0)), ("x1^2 + x1*x2", (0.2, 0.0)), ("x1^3 + x2^2", (0.0, 0.3))],
    )
    def test_no_fold_on_odd_or_off_centre_axes(self, text, centre, monkeypatch):
        f, w = parse_polynomial(text), WeightFunction(centre, 0.7)
        assert circle._mirror_axes(f, w, range(2)) == []
        orders = circle._ORDER_LADDERS[2][:2]
        got = [whole_grid(f, w, order) for order in orders]
        _unfolded(monkeypatch)
        for order, (fs, wqs) in zip(orders, got):
            want_fs, want_wqs = whole_grid(f, w, order)
            assert fs.tobytes() == want_fs.tobytes() and wqs.tobytes() == want_wqs.tobytes()


# branches of the fiber solver (and the generic path) on forms even in the
# first n-1 variables; x_n^4 - 4 x_n^2 is even in x_n too
EVEN_BRANCHES = {
    "quadratic": "x{n}^2 + x1^2*x{n} - {s}",
    "linear": "x1^2*x{n} + x{n} - {s}",
    "flat_column": "{s} - 4 + 0*x{n}",
    "generic": "x{n}^4 - 4*x{n}^2 + {s} - 4",
}


def _even_branch(branch, n):
    s = " + ".join(f"x{j}^2" for j in range(1, n))
    return parse_polynomial(EVEN_BRANCHES[branch].format(n=n, s=s), n_hint=n)


@pytest.mark.parametrize("centre", ["origin", "mixed"])
@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("branch", sorted(EVEN_BRANCHES))
def test_folded_solver_branches_match_brute_force(branch, n, centre):
    f = _even_branch(branch, n)
    c = [0.0] * n if centre == "origin" else [0.25 if j % 2 else 0.0 for j in range(n)]
    w = WeightFunction(tuple(c), 0.8)
    fiber = branch != "generic"
    assert (circle._last_var_split(f) is None) == (not fiber)
    assert circle._mirror_axes(f, w, range(n - 1 if fiber else n))
    want = brute_weighted_count(f, 6.0, w)
    assert want > 0
    assert abs(weighted_solution_count(f, 6.0, w) - want) <= 1e-12


@pytest.mark.parametrize("text, odd", [("x3^3 + x1^2 + x2^2 - 8", 2), ("x3^2 + x1*x3 - x2^2 - 1", 0)])
def test_odd_exponent_axis_is_walked_whole(text, odd):
    # x3 (generic path) or x1 (fiber solver) is centred but odd in f
    f, w = parse_polynomial(text), WeightFunction((0.0, 0.0, 0.0), 0.8)
    mirror = circle._mirror_axes(f, w, range(3))
    assert odd not in mirror and 1 in mirror
    want = brute_weighted_count(f, 6.0, w)
    assert want > 0
    assert abs(weighted_solution_count(f, 6.0, w) - want) <= 1e-12


@pytest.mark.parametrize("branch", ["quadratic", "generic"])
def test_folded_solver_worker_invariance(branch, monkeypatch):
    # 8-point chunks give the folded walk one block per axis-0 value
    f, w = _even_branch(branch, 3), WeightFunction((0.0, 0.0, 0.0), 0.8)
    box_chunks, blocks = enumeration._box_chunks, []

    def recorded_chunks(sizes):
        blocks.append(box_chunks(sizes))
        return blocks[-1]

    monkeypatch.setattr(enumeration, "_BLOCK_ELEMS", 8)
    monkeypatch.setattr(enumeration, "_box_chunks", recorded_chunks)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    counts = []
    for workers in ("1", "2"):
        monkeypatch.setenv("IGUSA_WORKERS", workers)
        counts.append(weighted_solution_count(f, 9.0, w))
    assert blocks[0] == blocks[1] == [(x, x + 1) for x in range(8)]  # the folded axis 0
    assert counts[0].hex() == counts[1].hex()
    assert abs(counts[0] - brute_weighted_count(f, 9.0, w)) <= 1e-12


class TestMajorArcReport:
    def test_homogeneity_in_B_at_fixed_truncation(self):
        f = parse_polynomial("x1^2+x2^2-x3^2")
        w = WeightFunction((0.4, 0.1, 0.4), 0.8)
        r1 = major_arc_report(f, 10.0, 0.25, w, 0, R_series=2, R_integral=1.5, tol=1e-5)
        r2 = major_arc_report(f, 20.0, 0.25, w, 0, R_series=2, R_integral=1.5, tol=1e-5)
        assert abs(r2.prediction / r1.prediction - 2 ** (f.n - 2)) < 1e-9

    def test_untrusted_flag(self):
        f = parse_polynomial("x1^4+x2^4")
        w = WeightFunction((0.5, 0.5), 0.5)
        rep = major_arc_report(f, 6.0, 0.25, w, 0, tol=1e-4)
        assert not rep.trusted
        assert any("4(d-1)" in msg for msg in rep.warnings)
