import copy
import itertools
import math
import os
import pickle
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from expsums import (
    AdditiveCharacter,
    BudgetExceededError,
    Polynomial,
    count_zeros_mod,
    exp_sum_composite,
    exp_sum_direct,
    exp_sum_naive,
    exp_sum_pruned,
    finite_field_sum,
    parse_polynomial,
    poincare_coeffs,
)
from expsums import charsums, enumeration
from expsums.arith import factorize
from expsums.charsums import (
    _crt_histogram,
    _critical_atoms,
    _dense_phase_sum,
    _fiber_split,
    _local,
    _phase_sum,
    crt_units,
)
from expsums.corpus import crt_subcorpus, standard_corpus
from conftest import brute_exp_sum, compose, small_polynomials, traced_peak


class TestCharacter:
    def test_unit_must_be_coprime(self):
        with pytest.raises(ValueError):
            AdditiveCharacter(5, 2, 10)

    def test_conductor_positive(self):
        with pytest.raises(ValueError):
            AdditiveCharacter(5, 0, 1)

    def test_modulus(self):
        assert AdditiveCharacter(3, 4, 2).modulus == 81


class TestNaive:
    def test_linear_vanishes(self):
        v = exp_sum_naive(parse_polynomial("x1"), AdditiveCharacter(7, 2))
        assert v.abs < 1e-14

    def test_square_mod_nine(self):
        v = exp_sum_naive(parse_polynomial("x1^2"), AdditiveCharacter(3, 2))
        assert abs(v.value - (1 / 3)) < 1e-12
        assert abs(v.value.imag) < 1e-14
        oracle = brute_exp_sum(parse_polynomial("x1^2"), 9)
        assert abs(v.value - oracle) < 1e-12

    def test_bad_reduction_family_magnitude(self, monkeypatch):
        monkeypatch.setenv("IGUSA_BUDGET", str(10**8))
        f = parse_polynomial(f"x1^3 + {5**5}*x2^3")
        v = exp_sum_naive(f, AdditiveCharacter(5, 5))
        assert abs(v.abs - 5**-2) < 1e-9

    def test_matches_brute_oracle(self):
        for text, p, m, a in [
            ("x1^2+x1", 5, 2, 1),
            ("x1^3+2*x2", 3, 2, 2),
            ("x1*x2+1", 2, 3, 1),
        ]:
            f = parse_polynomial(text)
            got = exp_sum_naive(f, AdditiveCharacter(p, m, a))
            want = brute_exp_sum(f, p**m, a)
            assert abs(got.value - want) < 1e-12

    def test_budget_exceeded(self, monkeypatch):
        monkeypatch.setenv("IGUSA_BUDGET", "1000")
        with pytest.raises(BudgetExceededError):
            exp_sum_naive(parse_polynomial("x1+x2"), AdditiveCharacter(5, 4))

    def test_composite_p_rejected(self):
        with pytest.raises(ValueError):
            exp_sum_naive(parse_polynomial("x1"), AdditiveCharacter(9, 1))

    def test_magnitude_bounded(self):
        v = exp_sum_naive(Polynomial.constant(1, 4), AdditiveCharacter(5, 2, 3))
        assert v.abs <= 1 + v.err_bound


class TestFiniteField:
    def test_linear(self):
        assert finite_field_sum(parse_polynomial("x1"), 11).abs < 1e-14

    def test_gauss_magnitude(self):
        v = finite_field_sum(parse_polynomial("x1^2"), 5)
        assert abs(v.abs - 5**-0.5) < 1e-12

    def test_weil_bound_cubic(self):
        v = finite_field_sum(parse_polynomial("x1^3+x1"), 7)
        assert v.abs <= 2 * 7**-0.5 + 1e-12


class TestPruned:
    def test_matches_naive_with_critical_point(self):
        f = parse_polynomial("x1^2+x2^2+1")
        chi = AdditiveCharacter(3, 2)
        assert abs(exp_sum_pruned(f, chi).value - exp_sum_naive(f, chi).value) < 1e-12

    def test_single_critical_fiber(self):
        f = parse_polynomial("x1^2+x1")
        chi = AdditiveCharacter(5, 3)
        pruned = exp_sum_pruned(f, chi)
        naive = exp_sum_naive(f, chi)
        assert abs(pruned.value - naive.value) < 1e-12
        assert pruned.fiber_count == 1  # the root of 2x+1 mod 5 is x = 2
        assert abs(pruned.abs - 5**-1.5) < 1e-12

    def test_empty_critical_set_is_exact_zero(self):
        v = exp_sum_pruned(parse_polynomial("x1"), AdditiveCharacter(7, 2))
        assert v.value == 0 and v.err_bound == 0
        assert v.fiber_count == 0

    def test_noncritical_fiber_rejected(self):
        # x1 has no critical point mod 3, so the fiber over 0 carries only p^1
        with pytest.raises(ValueError, match="not critical"):
            _fiber_split(parse_polynomial("x1"), 3, (0,), 2)

    def test_conductor_one_falls_through(self):
        f = parse_polynomial("x1^2")
        chi = AdditiveCharacter(5, 1)
        assert abs(exp_sum_pruned(f, chi).value - exp_sum_naive(f, chi).value) < 1e-14

    def test_small_primes_supported(self):
        for p in (2, 3):
            f = parse_polynomial("x1^2 + x1*x2")
            chi = AdditiveCharacter(p, 4)
            assert abs(exp_sum_pruned(f, chi).value - exp_sum_naive(f, chi).value) < 1e-11

    @given(small_polynomials(max_n=2, max_degree=3), st.sampled_from([2, 3, 5]), st.integers(2, 3))
    @settings(max_examples=40)
    def test_oracle_equivalence(self, f, p, m):
        if p ** (m * f.n) > 10**5:
            return
        chi = AdditiveCharacter(p, m)
        assert abs(exp_sum_pruned(f, chi).value - exp_sum_naive(f, chi).value) < 1e-9

    @pytest.mark.parametrize("text", ["x1^2+x1*x2", "x1^3+x2^2+x1", "x1^2*x2+3", "x1^4+2*x1^2+x1"])
    def test_every_unit_matches_naive(self, text):
        f = parse_polynomial(text)
        for p in (2, 3, 5):
            criticals = sum(
                all(g.eval_mod(pt, p) == 0 for g in f.gradient())
                for pt in itertools.product(range(p), repeat=f.n)
            )
            for m in (1, 2, 3):
                if p ** (m * f.n) > 20000:
                    continue
                for a in range(1, p**m):
                    if a % p == 0:
                        continue
                    chi = AdditiveCharacter(p, m, a)
                    got = exp_sum_pruned(f, chi)
                    assert abs(got.value - exp_sum_naive(f, chi).value) < 1e-12, (p, m, a)
                    assert got.fiber_count == (criticals if m > 1 else None)

    def test_weights_beyond_int64(self):
        f = parse_polynomial("x1^2+x2^2+x3^2+x4^2+x5^2")
        # p^(mn) = 7^30 > 2^63: the atoms are kept as exact Python ints
        v = exp_sum_pruned(f, AdditiveCharacter(7, 6, 3))
        assert abs(v.value - 2.1063444842276643e-13) <= 1e-14 * 2.1063444842276643e-13
        # at m = 10 the one atom, at 0, weighs 7^25 > 2^63 itself
        _, fibers, residues, weights = _critical_atoms(f, 7, 10)
        assert (fibers, list(residues), list(weights)) == (1, [0], [7**25])
        v = exp_sum_pruned(f, AdditiveCharacter(7, 10, 3))
        assert abs(v.value - 7.0**-25) <= 1e-14 * 7.0**-25

    @pytest.mark.parametrize("text, p, m", [("x1^2+x2^2", 2, 511), ("x1^3+x2^3+x3^3", 7, 121)])
    def test_sums_past_the_float_range_refused(self, text, p, m, empty_store):
        # one level up p^(mn) is past 2^1024: dividing by it raised OverflowError
        f = parse_polynomial(text)
        v = exp_sum_pruned(f, AdditiveCharacter(p, m, 1))
        assert 0 < v.abs < 1 and 0 < v.err_bound < v.abs
        empty_store()
        before = enumeration.meter_consumed()
        with pytest.raises(ValueError, match=rf"p\^\(mn\) = {p}\^{(m + 1) * f.n} is past the float range"):
            exp_sum_pruned(f, AdditiveCharacter(p, m + 1, 1))
        assert charsums._store == {} and enumeration.meter_consumed() == before

    def test_float_range_threshold(self):
        # the least int that float() rounds past the largest float
        assert float(charsums._FLOAT_OVERFLOW - 1) == sys.float_info.max
        with pytest.raises(OverflowError):
            float(charsums._FLOAT_OVERFLOW)

    def test_atoms_are_canonical_residues(self, monkeypatch):
        # c0 % q + p^v r reached 163 >= 125 at (5, 3); at (7, 5) two of the
        # 15 atoms were congruent mod 7^5
        f = parse_polynomial("x1^3+x2^3+x1*x2")
        for (p, m), size in [((5, 3), None), ((7, 5), 14)]:
            _, _, residues, _ = _critical_atoms(f, p, m)
            assert residues[0] >= 0 and residues[-1] < p**m
            assert all(int(b) > int(a) for a, b in zip(residues, residues[1:]))
            assert size is None or residues.size == size
            chi = AdditiveCharacter(p, m, 2)
            monkeypatch.setenv("IGUSA_BUDGET", str(p ** (m * f.n)))
            got, want = exp_sum_pruned(f, chi), exp_sum_naive(f, chi)
            assert abs(got.value - want.value) <= got.err_bound + want.err_bound, (p, m)

    def test_level_one_atoms_are_narrow(self):
        f = parse_polynomial("x1^2+x2^3")
        _, fibers, residues, weights = _critical_atoms(f, 7, 1)
        hist = enumeration.residue_histogram(f, 7, 7)
        assert fibers is None
        assert (residues.dtype, weights.dtype) == (np.uint8, np.uint8)
        assert residues.tolist() == np.flatnonzero(hist).tolist()
        assert weights.tolist() == hist[hist > 0].tolist()

    def test_history_independence(self, monkeypatch, empty_store):
        text, chi = "x1^3+x1*x2+x2^2", AdditiveCharacter(3, 3, 2)

        def metered(f, chi):
            before = enumeration.meter_consumed()
            v = exp_sum_pruned(f, chi)
            return v, enumeration.meter_consumed() - before

        fresh, fresh_points = metered(parse_polynomial(text), chi)
        primed = parse_polynomial(text)
        for p, m, a in [(3, 1, 1), (3, 2, 1), (2, 3, 3), (3, 3, 1), (3, 3, 5)]:
            exp_sum_pruned(primed, AdditiveCharacter(p, m, a))
        assert 3 in _local(primed, 3).spectra  # the spectrum exists
        again, again_points = metered(primed, chi)
        assert (again.value, again.err_bound, again.fiber_count) == (
            fresh.value, fresh.err_bound, fresh.fiber_count)
        assert again_points == fresh_points > 0

        def refused(f):
            before = enumeration.meter_consumed()
            with pytest.raises(BudgetExceededError) as info:
                exp_sum_pruned(f, chi)
            assert enumeration.meter_consumed() == before
            return info.value.needed, info.value.budget, str(info.value)

        monkeypatch.setenv("IGUSA_BUDGET", "17")
        warm = refused(primed)
        empty_store()
        assert warm == refused(parse_polynomial(text)) == (
            18, 17, "zero-locus enumeration needs 18 points, budget is 17")


class TestUnitSpectrum:
    """exp_sum_pruned reads every unit off W's memoised spectrum while
    q = p^m is at most both the points W's build charged and _SPECTRUM_CAP."""

    def test_every_unit_matches_phase_pass(self):
        # on every cell whose sums read the spectrum; the oracle is the phase
        # pass over W's atoms, which the record keeps beside the spectrum
        spectra = 0
        for f in standard_corpus(0):
            for p in (2, 3, 5, 7):
                for m in range(1, 5):
                    exp_sum_pruned(f, AdditiveCharacter(p, m, 1))
                    if m not in _local(f, p).spectra:
                        continue
                    spectra += 1
                    q, total = p**m, p ** (m * f.n)
                    _, _, residues, weights = _critical_atoms(f, p, m)
                    for a in range(1, q):
                        if a % p:
                            got = exp_sum_pruned(f, AdditiveCharacter(p, m, a))
                            want, _ = _phase_sum(residues, weights, q, a, total)
                            assert abs(got.value - want) <= got.err_bound, (f, p, m, a)
        assert spectra == 524  # of the 800 cells

    def test_rule_boundary(self, monkeypatch):
        passes = []

        def counted(residues, weights, q, a, total):
            passes.append(q)
            return _phase_sum(residues, weights, q, a, total)

        monkeypatch.setattr(charsums, "_phase_sum", counted)

        def route(f, p, m):
            exp_sum_pruned(f, AdditiveCharacter(p, m, 1))
            return m in _local(f, p).spectra, p**m in passes

        # x1^2 at p = 5: level 1 charges its 5 histogram points, so q = 5 is
        # the largest q within the charges; level 2 charges 5 and has q = 25
        f = parse_polynomial("x1^2")
        assert route(f, 5, 1) == (True, False)
        assert route(f, 5, 2) == (False, True)
        # x1 at level 1 charges q = p points; the phase table caps q at 2^20
        assert route(parse_polynomial("x1"), 1048573, 1) == (True, False)
        assert route(parse_polynomial("x1"), 1048583, 1) == (False, True)

    def test_composite_p_refused_on_primed_polynomial(self):
        f = parse_polynomial("x1^2+x1*x2")
        for p, m in [(2, 2), (3, 2), (5, 1)]:
            exp_sum_pruned(f, AdditiveCharacter(p, m, 1))
        for p, m in [(6, 1), (6, 2), (15, 1)]:
            with pytest.raises(ValueError, match="not prime"):
                exp_sum_pruned(f, AdditiveCharacter(p, m, 1))

    def test_hit_skips_primality_and_phase_pass(self, monkeypatch):
        f = parse_polynomial("x1^3+x1*x2+x2^2")
        for p, m in [(3, 3), (7, 2), (397, 1)]:
            exp_sum_pruned(f, AdditiveCharacter(p, m, 1))
        calls = []
        monkeypatch.setattr(charsums, "_require_prime", calls.append)
        monkeypatch.setattr(charsums, "_phase_sum", lambda *args: calls.append(args))
        exp_sum_composite(f, 27 * 49 * 397, 5)
        for p, m, a in [(3, 3, 2), (7, 2, 48), (397, 1, 200)]:
            exp_sum_pruned(f, AdditiveCharacter(p, m, a))
        assert calls == []

    def test_hit_replays_charges_like_a_miss(self, monkeypatch, empty_store):
        # x1^2+x2^3 at (5, 3) charges 50 zero-locus points, then 25 for the
        # fiber's level-1 histogram; the budget 30 lies between the two
        text, chi = "x1^2+x2^3", AdditiveCharacter(5, 3, 2)
        primed = parse_polynomial(text)
        exp_sum_pruned(primed, chi)
        assert [points for points, _ in _local(primed, 5).atoms[3][0]] == [50, 25]

        def refused(f):
            before = enumeration.meter_consumed()
            with pytest.raises(BudgetExceededError) as info:
                exp_sum_pruned(f, chi)
            return str(info.value), enumeration.meter_consumed() - before

        monkeypatch.setenv("IGUSA_BUDGET", "30")
        warm = refused(primed)
        empty_store()
        assert warm == refused(parse_polynomial(text)) == (
            "zero-locus enumeration needs 50 points, budget is 30", 0)

    def test_replay_keeps_the_charges_before_a_refused_one(self, monkeypatch):
        monkeypatch.setenv("IGUSA_BUDGET", "30")
        before = enumeration.meter_consumed()
        with pytest.raises(BudgetExceededError, match="b needs 50 points, budget is 30"):
            enumeration._charge_each([(25, "a"), (50, "b"), (5, "c")])
        assert enumeration.meter_consumed() - before == 25


class TestFiberMemo:
    """One gradient locus per (f, p) and one split per fiber (p, u), kept in
    the store's record of (f, p) by value, which the pruned sums and the
    zero counts both read."""

    @staticmethod
    def recorded(monkeypatch):
        """The polynomial of each gradient call, the polys of each
        common_zero_points call and (polynomial, base) of each shift_scale
        call; the polynomials are kept, so their ids stay unique."""
        grads, loci, splits = [], [], []
        grad, points, shift = Polynomial.gradient, enumeration.common_zero_points, Polynomial.shift_scale
        monkeypatch.setattr(Polynomial, "gradient", lambda g: grads.append(g) or grad(g))
        monkeypatch.setattr(enumeration, "common_zero_points",
                            lambda polys, *args: loci.append(polys) or points(polys, *args))
        monkeypatch.setattr(Polynomial, "shift_scale",
                            lambda g, base, scale: splits.append((g, tuple(base))) or shift(g, base, scale))
        return grads, loci, splits

    def test_one_locus_and_one_split_per_fiber(self, monkeypatch, empty_store):
        # a homogeneous f has f(p y) = p^d f(y), so the fiber over u = 0
        # gives back h = f: in value, it reads f's own record, where an
        # object key enumerated 4, 3 and 4 loci
        grads, loci, splits = self.recorded(monkeypatch)
        for text, p, top, enumerations in [("x1^3+x2^3+x3^3", 7, 12, 1), ("x1^4+x2^4+x3^4", 5, 12, 1),
                                           ("x1^3+x1^2*x2+x2^3", 3, 6, 3)]:
            empty_store()
            f = parse_polynomial(text)
            del grads[:], loci[:], splits[:]
            for m in range(2, top + 1):
                exp_sum_pruned(f, AdditiveCharacter(p, m, 1))
            assert len(loci) == len(grads) == len(set(grads)) == enumerations, text
            assert sum(g == f for g in grads) == 1
            assert len(splits) == len(set(splits)) == enumerations
        assert _local(f, 3).atoms[6][1] == 3

    def test_equal_polynomials_share_one_record(self):
        f = parse_polynomial("x1^3+x2^3+x1*x2")
        exp_sum_pruned(f, AdditiveCharacter(5, 3, 1))
        record = _local(f, 5)
        for g in (copy.copy(f), pickle.loads(pickle.dumps(f)), parse_polynomial(str(f))):
            assert hash(g) == hash(f) and _local(g, 5) is record
        assert _local(f, 7) is not record

    def test_a_homogeneous_f_keeps_the_atoms_its_fiber_reads(self, monkeypatch, empty_store):
        # level 1 keeps its spectrum next to its atoms; at level 4 the fiber
        # over u = 0 is f itself (v = 3), which reads f's level 1 atoms as a
        # hit, replaying their charges, so no histogram runs again
        def metered(f):
            before = enumeration.meter_consumed()
            v = exp_sum_pruned(f, AdditiveCharacter(7, 4, 3))
            return v.value, v.err_bound, v.fiber_count, enumeration.meter_consumed() - before

        grids, histogram = [], enumeration.residue_histogram
        monkeypatch.setattr(enumeration, "residue_histogram", lambda *a: grids.append(a[1:]) or histogram(*a))
        for text in ["x1^3+x2^3+x3^3", "x1^3+x2^3"]:
            empty_store()
            f = parse_polynomial(text)
            exp_sum_pruned(f, AdditiveCharacter(7, 1, 1))
            assert 1 in _local(f, 7).spectra and 1 in _local(f, 7).atoms
            del grids[:]
            warm = metered(f)
            assert grids == []
            empty_store()
            cold = metered(f)
            assert sorted(_local(f, 7).atoms) == [1, 4]  # level 4 built on f's own level 1
            assert grids == [(7, 7)] and warm == cold and cold[3] > 0
        naive = exp_sum_naive(f, AdditiveCharacter(7, 4, 3))  # 7^8 points
        assert abs(cold[0] - naive.value) <= cold[1] + naive.err_bound

    def test_the_store_empties_past_its_bound(self, monkeypatch, empty_store):
        f, g, chi = parse_polynomial("x1^3+x1*x2+x2^2"), parse_polynomial("x1^2+x2^3"), AdditiveCharacter(3, 3, 2)

        def metered(f):
            before = enumeration.meter_consumed()
            v = exp_sum_pruned(f, chi)
            assert charsums._stored <= charsums._STORE_BYTES
            return v.value, v.err_bound, v.fiber_count, enumeration.meter_consumed() - before

        cold = metered(f)
        old = _local(f, 3)
        assert 3 in old.atoms and len(old.spectra[3]) == 2  # the atoms, and (S, err) beside them
        bound = charsums._STORE_BYTES
        monkeypatch.setattr(charsums, "_STORE_BYTES", charsums._stored + 1)
        metered(g)  # past the bound: the whole store empties, f's record too
        # g's record, being built when it emptied, finishes outside the store,
        # and the fiber records g's build makes after that refill it
        assert (f, 3) not in charsums._store and (g, 3) not in charsums._store and charsums._store
        monkeypatch.setattr(charsums, "_STORE_BYTES", bound)
        assert metered(f) == cold
        new = _local(f, 3)
        assert new is not old
        (charges, fibers, *arrays), (had_charges, had_fibers, *had) = new.atoms[3], old.atoms[3]
        assert (charges, fibers) == (had_charges, had_fibers)
        (spectrum, err), (was, had_err) = new.spectra[3], old.spectra[3]
        assert err == had_err
        for array, had_array in zip([*arrays, spectrum], [*had, was]):
            assert array.dtype == had_array.dtype and array.tobytes() == had_array.tobytes()
        # at a bound of 0 the store empties at every entry, records being
        # built finish outside it, and the run still equals the cold one
        empty_store()
        monkeypatch.setattr(charsums, "_STORE_BYTES", 0)
        assert metered(f) == cold and not charsums._store and charsums._stored == 0

    def test_a_kept_spectrum_keeps_its_atoms(self, monkeypatch, empty_store):
        # a non-homogeneous f keeps W's atoms beside the spectrum, so reading
        # the level again builds nothing and replays the cold charges
        f = parse_polynomial("x1^3+x1*x2+x2^2")
        before = enumeration.meter_consumed()
        exp_sum_pruned(f, AdditiveCharacter(3, 3, 2))
        cold = enumeration.meter_consumed() - before
        record = _local(f, 3)
        assert 3 in record.atoms and 3 in record.spectra and cold > 0

        def rebuilt(*args, **kwargs):
            raise AssertionError("a kept level was rebuilt")

        for owner, name in [(enumeration, "residue_histogram"), (enumeration, "common_zero_points"),
                            (Polynomial, "shift_scale"), (np.fft, "rfft")]:
            monkeypatch.setattr(owner, name, rebuilt)
        before = enumeration.meter_consumed()
        assert _critical_atoms(f, 3, 3) is record.atoms[3]
        assert enumeration.meter_consumed() - before == cold

    def test_crt_traffic_keeps_spectra_beside_atoms_within_8_mib(self, empty_store):
        # c03's traffic: every kept spectrum sits next to its level's atoms,
        # and the store holds about 5 MB by its own count
        for f in crt_subcorpus(0, 20):
            for N in range(1, 401):
                exp_sum_composite(f, N, 1)
        assert charsums._store and charsums._stored < 8 << 20
        assert all(record.spectra.keys() <= record.atoms.keys() for record in charsums._store.values())

    def test_counts_reuse_the_sums_splits(self, monkeypatch, empty_store):
        # the counts read the sums' splits, and the h objects they hold
        f = parse_polynomial("x1^2+x2^3")
        _, _, splits = self.recorded(monkeypatch)
        for m in range(2, 6):
            exp_sum_pruned(f, AdditiveCharacter(5, m, 1))
        shared = len(splits)
        assert count_zeros_mod(f, 5, 5) == count_zeros_mod(f, 5, 5, method="direct")
        keys = [(id(g), u) for g, u in splits]
        assert len(keys) == len(set(keys)) and shared > 1

    def test_history_independence_across_sums_and_counts(self, monkeypatch, empty_store):
        text, p, m = "x1^3+x1^2*x2+x2^3", 3, 5

        def sums(f):
            return [exp_sum_pruned(f, AdditiveCharacter(p, k, 2)).value for k in range(2, m + 1)]

        def counts(f):
            return [count_zeros_mod(f, p, k) for k in range(1, m + 1)]

        def metered(run, f):
            before = enumeration.meter_consumed()
            out = run(f)
            return out, enumeration.meter_consumed() - before

        def refused(run, f):
            before = enumeration.meter_consumed()
            with pytest.raises(BudgetExceededError) as info:
                run(f)
            return str(info.value), enumeration.meter_consumed() - before

        for first, second in [(sums, counts), (counts, sums)]:
            empty_store()
            cold = metered(second, parse_polynomial(text))
            empty_store()
            warm = parse_polynomial(text)
            metered(first, warm)
            assert metered(second, warm) == cold and cold[1] > 0
        # the sums charge 18 zero-locus points first, the counts 9 grid points
        for budget, first, second in [(17, counts, sums), (8, sums, counts)]:
            empty_store()
            warm = parse_polynomial(text)
            first(warm)
            monkeypatch.setenv("IGUSA_BUDGET", str(budget))
            primed = refused(second, warm)
            empty_store()
            assert primed == refused(second, parse_polynomial(text))
            monkeypatch.delenv("IGUSA_BUDGET")

    def test_workers_checked_on_a_level_built_from_memo(self, monkeypatch, empty_store):
        # x1^3 at p = 3: the one fiber has v = 3, so level 3 needs no sub-W;
        # its locus and split come from the level 2 build
        f = parse_polynomial("x1^3")
        exp_sum_pruned(f, AdditiveCharacter(3, 2, 1))
        record = _local(f, 3)
        assert 3 not in record.atoms and record.residues is not None and (0,) in record.splits
        monkeypatch.setenv("IGUSA_WORKERS", "0")
        with pytest.raises(ValueError, match="worker count must be positive"):
            exp_sum_pruned(f, AdditiveCharacter(3, 3, 1))

    def test_workers_checked_on_a_spectrum_hit(self, monkeypatch):
        # a hit read off a kept spectrum runs no block; only its replayed
        # charges see IGUSA_WORKERS
        f = parse_polynomial("x1^2")
        exp_sum_pruned(f, AdditiveCharacter(5, 1, 1))
        assert 1 in _local(f, 5).spectra
        monkeypatch.setenv("IGUSA_WORKERS", "0")
        for call in [lambda: exp_sum_pruned(f, AdditiveCharacter(5, 1, 2)), lambda: exp_sum_composite(f, 5, 3)]:
            with pytest.raises(ValueError, match="worker count must be positive"):
                call()

    def test_composite_p_leaves_no_memo_entry(self):
        f = parse_polynomial("x1^2+x2^3")
        exp_sum_pruned(f, AdditiveCharacter(5, 4, 1))
        count_zeros_mod(f, 5, 4)
        record = _local(f, 5)
        before = (record.residues, dict(record.splits), dict(record.atoms), dict(record.spectra))
        for call in [lambda: exp_sum_pruned(f, AdditiveCharacter(6, 3, 1)),
                     lambda: count_zeros_mod(f, 6, 3), lambda: poincare_coeffs(f, 6, 3),
                     lambda: _local(f, 6)]:  # a record of (f, 6) would skip the test
            with pytest.raises(ValueError, match="6 is not prime"):
                call()
        assert _local(f, 5) is record
        assert (record.residues, record.splits, record.atoms, record.spectra) == before


class TestComposite:
    def test_trivial_modulus(self):
        assert exp_sum_composite(parse_polynomial("x1"), 1, 1).value == 1

    def test_prime_power_single_factor(self):
        f = parse_polynomial("x1^2+x2")
        chi = AdditiveCharacter(3, 2)
        a = exp_sum_composite(f, 9, 1)
        b = exp_sum_pruned(f, chi)
        assert abs(a.value - b.value) < 1e-12

    def test_gauss_product_45(self):
        f = parse_polynomial("x1^2")
        v = exp_sum_composite(f, 45, 1)
        assert abs(v.abs - (1 / 3) * 5**-0.5) < 1e-12
        direct = exp_sum_direct(f, 45, 1)
        assert abs(v.value - direct.value) < 1e-11

    def test_noncoprime_unit_rejected(self):
        with pytest.raises(ValueError):
            exp_sum_composite(parse_polynomial("x1"), 45, 9)

    def test_large_prime_factor(self):
        # exercises the primality exit in the factorizer
        f = parse_polynomial("x1^2")
        N = 3 * 10007
        got = exp_sum_composite(f, N, 1)
        # odd-prime Gauss magnitudes: |E| = 3^(-1/2) * 10007^(-1/2)
        assert abs(got.abs - (3 * 10007) ** -0.5) < 1e-10

    def test_mod_two_square_vanishes(self):
        # x^2 = x mod 2: the sum is a nontrivial linear character sum
        v = exp_sum_naive(parse_polynomial("x1^2"), AdditiveCharacter(2, 1))
        assert v.abs < 1e-15

    def test_crt_unit_bookkeeping(self):
        # 1/N = sum u_i / q_i (mod 1) with u_i = (N/q_i)^(-1) mod q_i
        for N in (6, 45, 360):
            units = crt_units(N, 1)
            total = sum(u * (N // p**m) for p, m, u in units)
            assert total % N == 1

    @given(st.integers(2, 80), st.integers(1, 7))
    @settings(max_examples=30)
    def test_crt_multiplicativity_small(self, N, a):
        if math.gcd(a, N) != 1:
            return
        f = parse_polynomial("x1^2 + 3*x1")
        got = exp_sum_composite(f, N, a)
        want = exp_sum_direct(f, N, a)
        assert abs(got.value - want.value) < 1e-10


    def test_factorizes_each_modulus_once(self, monkeypatch):
        seen = []

        def counting(n):
            seen.append(n)
            return factorize(n)

        charsums._crt_factors.cache_clear()
        monkeypatch.setattr(charsums, "factorize", counting)
        f = parse_polynomial("x1^2 + 3*x1")
        try:
            for _ in range(3):
                for N in (45, 360, 391, 45):
                    for a in (1, 7, 11):
                        exp_sum_composite(f, N, a)
                        assert crt_units(N, a) == [(p, m, a * pow(N // p**m, -1, p**m) % p**m)
                                                   for p, m in sorted(factorize(N).items())]
        finally:
            charsums._crt_factors.cache_clear()
        assert sorted(seen) == [45, 360, 391]

    def test_memoised_units_keep_the_bits(self):
        # value, abs and err_bound of the product over q || N, with each
        # factor's unit from a fresh factorization of N, bit for bit
        def fresh(f, N, a):
            value, err = 1 + 0j, 0.0
            for p, m in sorted(factorize(N).items()):
                q = p**m
                part = exp_sum_pruned(f, AdditiveCharacter(p, m, a * pow(N // q, -1, q) % q))
                err = err * part.abs + abs(value) * part.err_bound + err * part.err_bound + charsums._EPS
                value *= part.value
            return value, abs(value), err

        charsums._crt_factors.cache_clear()
        for f in crt_subcorpus(0, 20):
            for N in range(2, 401):
                for _ in range(2):  # a miss, then a hit
                    got = exp_sum_composite(f, N, N - 1)
                    assert (got.value, got.abs, got.err_bound) == fresh(f, N, N - 1), (str(f), N)


def _long_double_sum(hist, a, total):
    """sum_r H(r) e(a r / q) / total in long double, from exact angles."""
    q = hist.size
    pi = np.longdouble("3.14159265358979323846264338327950288")
    theta = 2 * pi * ((np.arange(q, dtype=np.int64) * a) % q).astype(np.longdouble) / q
    weights = np.array(hist.tolist() if hist.dtype == object else hist, dtype=np.longdouble)
    return complex(float(np.sum(weights * np.cos(theta)) / total),
                   float(np.sum(weights * np.sin(theta)) / total))


class TestDirect:
    """The direct route reads its histogram mod N block by block from one
    histogram per prime power q || N (CRT point count), and must read the
    full grid's; its phase pass is _dense_phase_sum over those blocks."""

    @staticmethod
    def _check(f, N):
        full = enumeration.residue_histogram(f, N, N)
        got = _crt_histogram(f, N)(0, N)
        assert got.dtype == np.int64 and np.array_equal(got, full), (str(f), N)
        v = exp_sum_direct(f, N, N - 1)
        assert (v.value, v.err_bound) == _dense_phase_sum(lambda lo, hi: full[lo:hi], N, N - 1, N**f.n), \
            (str(f), N)
        residues = np.flatnonzero(full)
        want, err = _phase_sum(residues, full[residues], N, N - 1, N**f.n)
        assert abs(v.value - want) <= min(v.err_bound, err), (str(f), N)

    @pytest.mark.parametrize("text, N", [
        ("x1^3+2*x1", 2),  # B = 2, A = 1: one full row
        ("x1^3+2*x1", 3),  # A = 1 and a tail row of 1
        ("x1^2+x1*x2", 4),  # B = A = 2: square, no tail
        ("x1^3+x1*x2+2*x2^2", 97),  # prime: B = 10, A = 9, tail of 7
        ("x1^3+x1*x2+2*x2^2", 169),  # square: B = A = 13
        ("x1*x2*x3*x4*x5*x6", 2310),  # exact-int counts, tail of 7
        ("x1", 262147),  # prime: blocks of 255, 255 and 2 rows, the last the tail
    ])
    def test_split_shapes_within_bound(self, text, N):
        f = parse_polynomial(text)
        hist = _crt_histogram(f, N)(0, N)
        assert hist.dtype == (object if N**f.n >= 2**63 else np.int64)
        B = math.isqrt(N - 1) + 1
        for a in [a for a in sorted({1, 5, N - 1}) if math.gcd(a, N) == 1]:
            v = exp_sum_direct(f, N, a)
            assert v.err_bound == 4 * sys.float_info.epsilon * (N // B + B + 2)
            assert abs(v.value - _long_double_sum(hist, a, N**f.n)) <= v.err_bound, (N, a)
            if N < 10**4:
                assert abs(v.value - exp_sum_composite(f, N, a).value) <= 1e-12, (N, a)

    @pytest.mark.parametrize("N, workers", [(5 * 10**6, "1"), (5 * 10**6, "2"), (4 * 10**7, "1")])
    def test_large_sum_holds_no_length_N_array(self, monkeypatch, N, workers):
        # the factor histograms (2^6 + 5^7 or 2^9 + 5^7 counts) and about one
        # 2^17-entry block per worker, never the N counts (40 MiB at 5*10^6)
        f = parse_polynomial("x1^3+2*x1")
        monkeypatch.setenv("IGUSA_WORKERS", workers)
        monkeypatch.delenv("IGUSA_BUDGET", raising=False)
        v, peak = traced_peak(lambda: exp_sum_direct(f, N, 7))
        assert peak < 8 << 20, peak
        want = exp_sum_composite(f, N, 7)
        assert abs(v.value - want.value) <= v.err_bound + want.err_bound

    @pytest.mark.parametrize("text, N", [
        ("x1^3+2*x1", 131080),  # 8 * 5 * 29 * 113: 2 blocks, the last starting at no
                                # multiple of any q and shorter than the period 113
        ("x1^3+2*x1", 262146),  # 2 * 3 * 43691: 3 blocks, starting inside periods of 43691
        ("x1^3+x1*x2+2*x2^2", 600),
        ("x1^2+3*x2^3", 1001),
        ("x1^3+2*x1", 9240),  # 8 * 3 * 5 * 7 * 11
    ])
    def test_every_block_reads_the_full_grid(self, text, N):
        # the pass's own blocks, then ranges that hold a head alone, periods
        # without a tail, part of one period, or nothing
        f = parse_polynomial(text)
        full, counts = enumeration.residue_histogram(f, N, N), _crt_histogram(f, N)
        B = math.isqrt(N - 1) + 1
        blocks = [(lo * B, min(hi * B, N)) for lo, hi in enumeration._box_chunks((-(-N // B), B))]
        assert len(blocks) >= 2 or N < 1 << 17
        rng = np.random.default_rng(N)
        for lo, hi in blocks + [(0, 0), (1, 2), (7, 8), (N - 3, N)] + \
                [tuple(sorted(rng.integers(0, N + 1, 2).tolist())) for _ in range(100)]:
            assert np.array_equal(counts(lo, hi), full[lo:hi]), (text, N, lo, hi)

    def test_bits_do_not_depend_on_thread_settings(self):
        # the passes use no BLAS, so OpenBLAS threads cannot reorder their
        # sums; a dense pass and a pruned pass past the spectrum rule each
        # span several blocks, which IGUSA_WORKERS=2 runs on two threads and
        # which are added in block order
        f, N, p = parse_polynomial("x1^3+2*x1"), 3 * 2**20, 1048583
        B = math.isqrt(N - 1) + 1
        assert len(enumeration._box_chunks((-(-N // B), B))) > 1
        assert p > charsums._SPECTRUM_CAP
        assert len(enumeration._box_chunks(_critical_atoms(f, p, 1)[2].shape)) > 1
        root = Path(__file__).resolve().parent.parent
        code = ("from expsums import AdditiveCharacter, exp_sum_direct, exp_sum_pruned\n"
                "from expsums import parse_polynomial as P\n"
                f"f = P('{f}')\n"
                f"for v in (exp_sum_direct(f, {N}, 5), exp_sum_pruned(f, AdditiveCharacter({p}, 1, 5))):\n"
                "    print(v.value.real.hex(), v.value.imag.hex(), v.err_bound.hex())")
        outs = set()
        for name in ("OPENBLAS_NUM_THREADS", "IGUSA_WORKERS"):
            for value in ("1", "2"):
                env = dict(os.environ, PYTHONPATH=os.pathsep.join(
                    filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])))
                env[name] = value
                done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                                      text=True, timeout=120)
                assert done.returncode == 0, done.stderr
                outs.add(done.stdout)
        assert len(outs) == 1, outs

    def test_bits_do_not_depend_on_simd_dispatch(self):
        # numpy's complex multiply fuses its products (FMA) from X86_V3 on;
        # the dense pass writes that product by parts, so its reports and
        # values repeat bit for bit with every dispatched feature of this CPU
        # disabled (the baseline level); a CPU with none of them passes as is
        try:
            from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
        except ImportError:  # numpy < 2
            from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__
        root = Path(__file__).resolve().parent.parent
        code = ("from expsums import exp_sum_direct, parse_polynomial as P\n"
                "from expsums.cli import main\n"
                "main(['verify', '--self-test', '--seed', '0'])\n"
                "main(['sum', '--poly', 'x1^3+x2^3+x3^3', '--p', '5', '--m', '1', '--a', '1',"
                " '--method', 'naive'])\n"
                "for f, N, a in [('x1^3+x1*x2+2*x2^2', 600, 7), ('x1^2+3*x2^3', 1001, 2),"
                " ('x1*x2*x3*x4*x5*x6', 2310, 13), ('x1^3+2*x1', 262146, 5),"
                " ('x1^4+x1*x2^2+x2', 999, 1)]:\n"
                "    v = exp_sum_direct(P(f), N, a)\n"
                "    print(v.value.real.hex(), v.value.imag.hex(), v.err_bound.hex())")
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

    def test_assembled_histogram_is_the_full_grid(self):
        composite = [N for N in range(2, 151) if len(factorize(N)) > 1]
        for f in crt_subcorpus(0, 20):
            for N in composite:
                self._check(f, N)
            if f.n == 2:
                self._check(f, 210)
        threes = [f for f in standard_corpus(0) if f.n == 3]
        assert threes
        for f in threes:
            for N in (6, 10, 12, 30):
                self._check(f, N)

    def test_meter_charges_factors_and_assembly(self, monkeypatch):
        f = parse_polynomial("x1^3+x1*x2+2*x2^2")
        before = enumeration.meter_consumed()
        v = exp_sum_direct(f, 600, 7)
        assert enumeration.meter_consumed() - before == 8**2 + 3**2 + 25**2 + 600
        # the largest single charge is 625, far below the old 600^2
        monkeypatch.setenv("IGUSA_BUDGET", str(10**4))
        assert exp_sum_direct(f, 600, 7).value == v.value
        assert abs(v.value - exp_sum_composite(f, 600, 7).value) < 1e-12

    def test_huge_modulus_refused_before_allocating(self):
        f = parse_polynomial("x1^2+x2")
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="too large for the int64 kernel"):
                exp_sum_direct(f, 2 * 3 * 5 * 7 * 11 * 13 * 17 * 19 * 23 * 29, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_assembly_charged_before_it_is_built(self, monkeypatch):
        f = parse_polynomial("x1^2+x2")
        N = 2 * 3 * 5 * 7 * 11 * 13 * 17 * 19 * 23  # np.ones(N) would be 1.7 GB
        monkeypatch.setenv("IGUSA_BUDGET", str(10**6))
        before = enumeration.meter_consumed()
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceededError) as info:
                exp_sum_direct(f, N, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert (info.value.needed, info.value.budget) == (N, 10**6)
        assert enumeration.meter_consumed() == before

    def test_counts_past_int64_stay_exact(self):
        # N^n = 2310^6 > 2^63: the assembled counts are exact Python ints
        f = parse_polynomial("x1*x2*x3*x4*x5*x6")
        hist = _crt_histogram(f, 2310)(0, 2310)
        assert hist.dtype == object and sum(hist.tolist()) == 2310**6
        got, want = exp_sum_direct(f, 2310, 13), exp_sum_composite(f, 2310, 13)
        assert got.abs > 0.1
        assert abs(got.value - want.value) <= got.err_bound + want.err_bound


class TestSymmetries:
    def test_conjugation(self):
        f = parse_polynomial("x1^3 + x2")
        chi_pos = AdditiveCharacter(5, 2, 2)
        chi_neg = AdditiveCharacter(5, 2, -2)
        a = exp_sum_naive(f, chi_pos)
        b = exp_sum_naive(f, chi_neg)
        assert abs(a.value - b.value.conjugate()) < 1e-13

    def test_affine_invariance(self):
        import random

        rng = random.Random(11)
        f = parse_polynomial("x1^2 + x1*x2 + 2*x2^3")
        p, m = 3, 3
        chi = AdditiveCharacter(p, m)
        base = exp_sum_naive(f, chi).abs
        n = f.n
        for _ in range(5):
            while True:
                mat = [[rng.randrange(p**m) for _ in range(n)] for _ in range(n)]
                det = mat[0][0] * mat[1][1] - mat[0][1] * mat[1][0]
                if det % p:
                    break
            shift = [rng.randrange(p**m) for _ in range(n)]
            subs = []
            for j in range(n):
                comp = Polynomial.constant(n, shift[j])
                for k in range(n):
                    comp = comp + Polynomial.variable(n, k).scale_coefficients(mat[j][k])
                subs.append(comp)
            composed = compose(f, subs)
            assert abs(exp_sum_naive(composed, chi).abs - base) < 1e-9

    def test_value_reconstructible_from_histogram(self):
        import cmath
        import math as _math

        f = parse_polynomial("x1^2 + 2*x1")
        chi = AdditiveCharacter(5, 2, 3)
        v = exp_sum_naive(f, chi)
        M = chi.modulus
        hist = {r: int(c) for r, c in enumerate(enumeration.residue_histogram(f, M, M)) if c}
        rebuilt = sum(
            c * cmath.exp(2j * _math.pi * ((chi.unit * r) % M) / M)
            for r, c in sorted(hist.items())
        ) / sum(hist.values())
        assert abs(rebuilt - v.value) < 4e-16 * len(hist)

    def test_vanishing_off_critical_locus(self):
        hits = 0
        for f in standard_corpus(0, 30):
            for p in (3, 5):
                grads = f.gradient()
                import itertools

                has_zero = any(
                    all(g.eval_mod(pt, p) == 0 for g in grads)
                    for pt in itertools.product(range(p), repeat=f.n)
                )
                if has_zero:
                    continue
                for m in (2, 3):
                    if p ** (m * f.n) > 10**6:
                        continue
                    v = exp_sum_pruned(f, AdditiveCharacter(p, m))
                    assert v.value == 0 and v.fiber_count == 0
                    hits += 1
        assert hits > 0
