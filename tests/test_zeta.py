import itertools
import tracemalloc
from fractions import Fraction

import pytest

from expsums import (
    BudgetExceededError,
    CountKind,
    Polynomial,
    count_order_ge,
    count_zeros_mod,
    fourier_crosscheck,
    jacobian_squared_generators,
    pair_products,
    parse_polynomial,
    poincare_coeffs,
)
from expsums import enumeration
from expsums.corpus import standard_corpus
from expsums.charsums import _critical_atoms, _zero_counts
from conftest import brute_zero_count, ramanujan_crosscheck_rhs


class TestCountZeros:
    def test_linear(self):
        for p, m in [(2, 3), (5, 2), (7, 1)]:
            assert count_zeros_mod(parse_polynomial("x1"), p, m) == 1

    def test_square_mod_nine(self):
        assert count_zeros_mod(parse_polynomial("x1^2"), 3, 2) == 3

    def test_product_mod_four(self):
        assert count_zeros_mod(parse_polynomial("x1*x2"), 2, 2) == 8

    def test_tree_equals_direct(self):
        cases = 0
        corpus = [(f, (1, 2, 3)) for f in standard_corpus(0, 20)]
        degenerate = [parse_polynomial("4*x1^2"), parse_polynomial("25*x1^2*x2+50"),
                      Polynomial.constant(2, 8), parse_polynomial("x1^2+x2^2")]
        for f, levels in corpus + [(f, (1, 2, 3, 4)) for f in degenerate]:
            for p in (2, 3, 5):
                for m in levels:
                    if p ** (m * f.n) > 10**6:
                        continue
                    tree = count_zeros_mod(f, p, m, method="tree")
                    direct = count_zeros_mod(f, p, m, method="direct")
                    assert tree == direct
                    cases += 1
        assert cases > 50

    def test_singular_cubic_within_budget(self, monkeypatch):
        # lifting every zero mod 5 needed more than 10^5 candidates
        monkeypatch.setenv("IGUSA_BUDGET", str(10**5))
        f = parse_polynomial("x1^3+x2^3+x3^3")
        assert count_zeros_mod(f, 5, 4) == 765625

    def test_square_modulus_beyond_int64_kernel(self):
        # the singular-zero test evaluates mod p^2 = 2148229801 >= 2^31
        f = parse_polynomial("x1^2")
        for m in (2, 3):
            assert count_zeros_mod(f, 46349, m) == 46349

    def test_direct_matches_brute(self):
        f = parse_polynomial("x1^2 + x2^3 + 1")
        assert count_zeros_mod(f, 3, 2) == brute_zero_count(f, 9)

    def test_lifting_tree_memory_follows_block_size(self, monkeypatch):
        # lifting whole levels of the zeros mod p at once peaked at ~350 MiB
        monkeypatch.setattr(enumeration, "_BLOCK_ELEMS", 1 << 12)
        f = parse_polynomial("x1^3+x2^3+x3^3")
        tracemalloc.start()
        try:
            count = count_zeros_mod(f, 5, 4)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert count == 765625
        assert peak < 16 * 2**20


class TestCountOrderGe:
    def test_single_variable(self):
        assert count_order_ge([parse_polynomial("x1")], 5, 2) == 1

    def test_scaled_square(self):
        assert count_order_ge([parse_polynomial("4*x1^2")], 3, 1) == 1

    def test_jacobian_squared_vs_brute(self):
        f = parse_polynomial("x1^2 + x2^3")
        gens = jacobian_squared_generators(f)
        got = count_order_ge(gens, 5, 2)
        want = sum(
            1
            for x in range(25)
            for y in range(25)
            if all(g.eval_mod((x, y), 25) == 0 for g in gens)
        )
        assert got == want

    def test_pair_products_count(self):
        polys = [
            parse_polynomial("x1", n_hint=2),
            parse_polynomial("x2"),
            parse_polynomial("x1+x2"),
        ]
        assert len(pair_products(polys)) == 6

    def test_empty_generators_rejected(self):
        with pytest.raises(ValueError):
            count_order_ge([], 3, 1)


class TestPoincare:
    def test_linear_densities(self):
        table, dens = poincare_coeffs(parse_polynomial("x1"), 2, 3)
        assert table.entries == [(0, 1), (1, 1), (2, 1), (3, 1)]
        assert [d for _, d in dens] == [
            Fraction(1), Fraction(1, 2), Fraction(1, 4), Fraction(1, 8)
        ]

    def test_square_densities(self):
        _, dens = poincare_coeffs(parse_polynomial("x1^2"), 3, 2)
        assert dens[1][1] == Fraction(1, 3)
        assert dens[2][1] == Fraction(3, 9)

    def test_isotropic_quadric_mod_three(self):
        _, dens = poincare_coeffs(parse_polynomial("x1^2+x2^2"), 3, 1)
        # -1 is not a square mod 3, so only the origin
        assert dens[1][1] == Fraction(1, 9)

    def test_densities_monotone(self):
        for f in standard_corpus(0, 12):
            if f.n > 2:
                continue
            _, dens = poincare_coeffs(f, 3, 3)
            values = [d for _, d in dens]
            assert all(a >= b for a, b in zip(values, values[1:]))

    def test_zero_counts_from_one_climb(self, monkeypatch):
        f = parse_polynomial("x1^2 + x1*x2 - 3")
        want = [(m, count_zeros_mod(f, 3, m)) for m in range(1, 5)]
        roots = []
        real = enumeration.common_zero_points
        monkeypatch.setattr(
            enumeration, "common_zero_points", lambda *a, **k: roots.append(1) or real(*a, **k)
        )
        table, _ = poincare_coeffs(f, 3, 4)
        assert table.entries[1:] == want
        assert len(roots) == 1

    def test_targets_match_the_direct_count(self):
        # the recursion counts f = t on the sums' fiber polynomials; check
        # every level against the full grid of f - t
        for f in standard_corpus(0):
            for p in (2, 3, 5):
                levels = [m for m in range(1, 5) if p ** (m * f.n) <= 10**5]
                for t in (1, -1, p, p * p + 3):
                    want = [count_zeros_mod(f - t, p, m, method="direct") for m in levels]
                    assert _zero_counts(f, p, len(levels), t) == want, (f, p, t)

    def test_order_kind_table(self):
        f = parse_polynomial("x1^2")
        gens = jacobian_squared_generators(f)
        table, dens = poincare_coeffs(f, 3, 2, generators=gens)
        assert table.kind is CountKind.order_ge_ideal
        # v(4 x^2) >= 1 forces x = 0 mod 3; >= 2 likewise within mod 9: 3 lifts
        assert table.entries == [(0, 1), (1, 1), (2, 3)]

    def test_generators_set_the_kind(self):
        # passing generators alone used to count the zeros of f: [1, 3, 15, 45]
        f = parse_polynomial("x1^2+x2^3")
        table, _ = poincare_coeffs(f, 3, 3, generators=jacobian_squared_generators(f))
        assert table.kind is CountKind.order_ge_ideal
        assert [c for _, c in table.entries] == [1, 3, 27, 27]
        with pytest.raises(ValueError):
            poincare_coeffs(f, 3, 2, generators=[])

    def test_hensel_stabilization_smooth_locus(self):
        # gradient nonvanishing on the F_p-points of {f = 0}
        f = parse_polynomial("x1^2 + x2^2 - 1")
        p = 5
        counts = [count_zeros_mod(f, p, m) for m in (1, 2, 3)]
        assert counts[1] == p ** (f.n - 1) * counts[0]
        assert counts[2] == p ** (f.n - 1) * counts[1]


class TestCrosscheck:
    def test_square_mod_nine(self):
        rep = fourier_crosscheck(parse_polynomial("x1^2"), 3, 2)
        assert abs(rep.lhs - 1 / 3) < 1e-15
        assert rep.abs_diff == 0

    def test_linear_level_one(self):
        rep = fourier_crosscheck(parse_polynomial("x1"), 5, 1)
        assert abs(rep.lhs - 1 / 5) < 1e-15
        assert rep.abs_diff == 0

    def test_product_mod_four(self):
        rep = fourier_crosscheck(parse_polynomial("x1*x2"), 2, 2)
        assert abs(rep.lhs - 1 / 2) < 1e-15
        assert rep.abs_diff == 0

    def test_corpus_sweep(self):
        for f in standard_corpus(0, 10):
            for p in (2, 3):
                for m in (1, 2):
                    if p ** (m * f.n) > 10**5:
                        continue
                    rep = fourier_crosscheck(f, p, m)
                    assert rep.abs_diff == 0

    def test_right_side_telescopes_to_the_direct_count(self):
        # the level-by-level Ramanujan sums equal the level-m zero density
        for f in standard_corpus(0):
            for p in (2, 3, 5):
                for m in (1, 2, 3):
                    want = ramanujan_crosscheck_rhs(f, p, m)
                    total = p ** (m * f.n)
                    assert Fraction(count_zeros_mod(f, p, m, method="direct"), total) == want
                    assert fourier_crosscheck(f, p, m).rhs == float(want)

    def test_the_sums_atoms_give_the_walks_counts(self):
        # W_k, the pruned sums' atoms, has the unit sums of the histogram H_k,
        # so its Ramanujan sums give the zero-count walk's N(p^k) exactly, and
        # H_k - W_k is p^(k-1)-periodic, 0 at k = 1
        for f, p in itertools.product([f for seed in (0, 1, 2) for f in standard_corpus(seed)], (2, 3, 5, 7)):
            top = max(m for m in range(1, 7) if p ** (m * f.n) <= 10**5)
            counts = _zero_counts(f, p, top)
            for k in range(1, top + 1):
                q = p**k
                assert ramanujan_crosscheck_rhs(f, p, k, atoms=True) == Fraction(counts[k - 1], q**f.n), (f, p, k)
                diff = enumeration.residue_histogram(f, q, q).tolist()
                _, _, residues, weights = _critical_atoms(f, p, k)
                for r, w in zip(residues.tolist(), weights.tolist()):
                    diff[r] -= w
                assert diff == diff[: q // p] * p and (k > 1 or not any(diff)), (f, p, k)

    def test_only_level_m_is_enumerated(self, monkeypatch):
        # the right side charges p^(mn) points for one zero count, no level
        # below m, and a refusal names that count
        f = parse_polynomial("x1^2+x2^3")
        enumeration.reset_meter()
        fourier_crosscheck(f, 5, 2)
        both = enumeration.meter_consumed()
        enumeration.reset_meter()
        count_zeros_mod(f, 5, 2)
        assert both - enumeration.meter_consumed() == 5**4
        monkeypatch.setenv("IGUSA_BUDGET", str(5**4 - 1))
        with pytest.raises(BudgetExceededError, match="^zero-count enumeration needs 625 points"):
            fourier_crosscheck(f, 5, 2)


@pytest.mark.parametrize("call", [
    lambda p, m: count_zeros_mod(parse_polynomial("x1"), p, m),
    lambda p, m: count_order_ge([parse_polynomial("x1")], p, m),
    lambda p, m: fourier_crosscheck(parse_polynomial("x1"), p, m),
], ids=["count_zeros_mod", "count_order_ge", "fourier_crosscheck"])
def test_prime_and_level_refusals(call):
    # the prime check comes first, then the level; messages are part of the CLI output
    with pytest.raises(ValueError, match="^6 is not prime$"):
        call(6, 0)
    with pytest.raises(ValueError, match="^level must be >= 1, got 0$"):
        call(5, 0)


def test_poincare_refusals():
    f = parse_polynomial("x1")
    with pytest.raises(ValueError, match="^max level must be >= 1, got 0$"):
        poincare_coeffs(f, 6, 0)
    with pytest.raises(ValueError, match="^6 is not prime$"):
        poincare_coeffs(f, 6, 1)
