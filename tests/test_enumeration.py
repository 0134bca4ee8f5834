"""Direct checks of the vectorized enumeration kernel against pure-Python
oracles.  The kernel underlies both routes of several cross-checks, so a
shared bug could cancel out there; these tests pin it independently.
"""

import ast
import inspect
import itertools
import os
import sys
import threading
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

import expsums
from expsums import BudgetExceededError, Polynomial, charsums, circle, enumeration, parse_polynomial
from expsums.enumeration import (
    _pow_vector,
    common_zero_points,
    count_common_zeros,
    default_workers,
    enumeration_budget,
    eval_box_exact,
    eval_columns_exact,
    eval_points_mod,
    residue_histogram,
)
from conftest import brute_zero_count, small_polynomials, traced_peak


def brute_histogram(f: Polynomial, grid: int, modulus: int) -> list[int]:
    hist = [0] * modulus
    for pt in itertools.product(range(grid), repeat=f.n):
        hist[f.eval_mod(pt, modulus)] += 1
    return hist


class TestResidueHistogram:
    @given(small_polynomials(max_n=2), st.integers(2, 12), st.integers(2, 40))
    @settings(max_examples=60)
    def test_matches_brute_any_grid_modulus(self, f, grid, modulus):
        got = residue_histogram(f, grid, modulus)
        assert got.tolist() == brute_histogram(f, grid, modulus)

    def test_large_modulus_small_grid(self):
        # fiber-style call: grid well below the modulus
        f = Polynomial(1, {(3,): 125, (1,): 50, (0,): 7})
        got = residue_histogram(f, 25, 625)
        assert got.tolist() == brute_histogram(f, 25, 625)

    def test_huge_coefficients_reduce(self):
        f = Polynomial(2, {(2, 0): 10**30 + 1, (0, 1): -(10**18)})
        got = residue_histogram(f, 7, 7)
        assert got.tolist() == brute_histogram(f, 7, 7)

    def test_counts_sum_to_grid_points(self):
        f = Polynomial(3, {(1, 1, 1): 2, (0, 0, 2): 3})
        hist = residue_histogram(f, 5, 11)
        assert int(hist.sum()) == 5**3

    def test_worker_invariance(self, monkeypatch):
        f = Polynomial(2, {(2, 1): 3, (0, 3): -4, (1, 0): 9})
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        monkeypatch.setenv("IGUSA_WORKERS", "1")
        a = residue_histogram(f, 50, 50)
        monkeypatch.setenv("IGUSA_WORKERS", "4")
        b = residue_histogram(f, 50, 50)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize(
        "terms, lane",
        [
            ({(16, 0): 2**15, (0, 16): 2**15 - 1}, np.uint32),
            ({(16, 0): 2**15, (0, 16): 2**15}, np.int64),
            ({(16, 16): 1}, np.int64),
        ],
    )
    def test_lane_boundary(self, terms, lane):
        # 2^16 = -1 mod 65537, so at (2, 2) every term hits its worst case
        # c*(M-1)^v: the unreduced sum is 2^32 - 2^16, or exactly 2^32
        f = Polynomial(2, terms)
        M = 65537
        axes = np.ix_(np.arange(3), np.arange(3))
        values = enumeration._block_values(enumeration._prepare_terms(f, M), axes, (3, 3), M)
        assert values.dtype == lane
        assert residue_histogram(f, 3, M).tolist() == brute_histogram(f, 3, M)
        zeros = sum(f.eval_mod(pt, M) == 0 for pt in itertools.product(range(3), repeat=2))
        assert count_common_zeros([f], 3, M) == zeros

    @pytest.mark.parametrize("c", [2, 3])
    @pytest.mark.parametrize("grid", [8, 40])
    def test_products_reduced_from_2_63(self, c, grid):
        # 7 is a primitive root mod M = 2^31 - 1, so 7^e = M - 1 for
        # e = (M-1)/2 and the grid reaches the worst case c*(M-1)^2 + 5*(M-1)
        # + 2: 2^63 - 6*2^30 at c = 2, unreduced, and past 2^63 at c = 3;
        # 64 values take _reduce's %, 1600 its a - M*(a // M)
        M = 2**31 - 1
        e = (M - 1) // 2
        f = Polynomial(2, {(e, e): c, (e, 0): 5, (0, 0): 2})
        axes = np.ix_(np.arange(grid), np.arange(grid))
        values = enumeration._block_values(enumeration._prepare_terms(f, M), axes, (grid, grid), M)
        assert values.tolist() == [f.eval_mod(pt, M) for pt in itertools.product(range(grid), repeat=2)]

    def test_blocks_do_not_depend_on_workers(self, monkeypatch):
        # blocks follow the grid's shape alone: 1600 points are one block
        f = Polynomial(2, {(2, 1): 3, (0, 3): -4, (1, 0): 9})
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        blocks = []
        for workers in ("1", "2"):
            monkeypatch.setenv("IGUSA_WORKERS", workers)
            blocks.append(enumeration._grid_blocks([f], 40, 41, "blocks", lambda values, lo: (lo, values(0).size)))
        assert blocks[0] == blocks[1] == [(0, 1600)]

    @given(
        small_polynomials(max_n=2),
        st.integers(2, 40),
        st.one_of(st.integers(2, 400), st.integers(40_000, 70_000)),
    )
    @settings(max_examples=40)
    # (M-1)^3 + (M-1) is just below 2^32 at M = 1626 and above it at 1627;
    # a 40 x 40 grid is one block of 1600 values, which _reduce cuts by
    # a - M*(a // M), and a 30 x 30 grid one of 900, which takes its %
    @example(parse_polynomial("-x1*x2 - 1"), 40, 1626)
    @example(parse_polynomial("-x1*x2 - 1"), 40, 1627)
    @example(parse_polynomial("-x1*x2 - 1"), 30, 1626)
    @example(parse_polynomial("-x1*x2 - 1"), 30, 1627)
    # polynomials that skip variables: histograms and zero counts enumerate
    # only the variables read and scale by grid^(free variables), in the
    # uint32 lane (small M) and the int64 lane (M - 2 times M - 1 >= 2^32)
    @example(Polynomial.constant(3, 3), 12, 5)
    @example(Polynomial.constant(3, 3), 12, 3)
    @example(parse_polynomial("-2*x2"), 30, 7)
    @example(parse_polynomial("-2*x2"), 30, 65537)
    @example(Polynomial(3, {(0, 3, 0): 2, (0, 1, 0): -1}), 12, 9)
    @example(Polynomial(3, {(0, 3, 0): 2, (0, 1, 0): -1}), 12, 50021)
    def test_both_lanes_match_brute(self, f, grid, modulus):
        points = list(itertools.product(range(grid), repeat=f.n))
        zeros = [pt for pt in points if f.eval_mod(pt, modulus) == 0]
        hists = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(os, "cpu_count", lambda: 2)
            for workers in ("1", "2"):
                mp.setenv("IGUSA_WORKERS", workers)
                hists.append(residue_histogram(f, grid, modulus))
                assert [tuple(pt) for pt in common_zero_points([f], grid, modulus)] == zeros
                assert count_common_zeros([f], grid, modulus) == len(zeros)
        assert np.array_equal(hists[0], hists[1])
        assert hists[0].tolist() == brute_histogram(f, grid, modulus)

    def test_budget_refused(self, monkeypatch):
        monkeypatch.setenv("IGUSA_BUDGET", str(10**5))
        f = Polynomial(3, {(1, 1, 1): 1})
        with pytest.raises(BudgetExceededError):
            residue_histogram(f, 100, 100)

    def test_memory_holds_one_block_histogram(self, monkeypatch):
        # keeping one modulus-length bincount per block peaks at ~152 MiB,
        # grid-length power tables shared by the blocks at ~28 MiB, and a
        # bincount per block beside the total at ~17 MiB; blocks smaller
        # than the modulus count into the 8 MiB total with np.add.at
        monkeypatch.setattr(enumeration, "_BLOCK_ELEMS", 1 << 16)
        f = Polynomial(1, {(3,): 1, (1,): 2})
        hist, peak = traced_peak(lambda: residue_histogram(f, 1 << 20, 1 << 20))
        assert int(hist.sum()) == 1 << 20
        assert peak < 12 * 2**20

    def test_memory_of_a_three_variable_histogram(self):
        # 125^3 points in cache-sized blocks: one 2^21-point block with its
        # bincount copy peaked at ~22 MiB
        f = parse_polynomial("x1^3+x2^3+x3^3+x1*x2*x3")
        hist, peak = traced_peak(lambda: residue_histogram(f, 125, 125))
        assert int(hist.sum()) == 125**3
        assert peak < 4 * 2**20

    def test_one_variable_blocks_build_no_grid_length_axis(self, monkeypatch):
        # with n = 1 a block builds only its own rows: np.arange makes grid
        # values in all, not a grid-length axis for every block besides
        sizes = []
        arange = np.arange

        def recording(*args, **kwargs):
            out = arange(*args, **kwargs)
            sizes.append(out.size)
            return out

        monkeypatch.setattr(enumeration, "_BLOCK_ELEMS", 1 << 8)
        monkeypatch.setattr(np, "arange", recording)
        f = Polynomial(1, {(3,): 1, (1,): 2})
        hist = residue_histogram(f, 5000, 5003)
        assert sum(sizes) == 5000 and max(sizes) <= 1 << 8
        assert hist.tolist() == brute_histogram(f, 5000, 5003)

    def test_counting_rule_at_the_block_size(self, monkeypatch):
        # a block of at least M values adds its bincount, a smaller one
        # counts straight into the total: 4 blocks of 256 values
        calls = []
        bincount = np.bincount

        def counting(*args, **kwargs):
            calls.append(args[0].size)
            return bincount(*args, **kwargs)

        monkeypatch.setattr(enumeration, "_BLOCK_ELEMS", 1 << 8)
        monkeypatch.setattr(np, "bincount", counting)
        f = Polynomial(1, {(3,): 1, (1,): 2})
        for modulus, want in ((255, [256] * 4), (256, [256] * 4), (257, [])):
            del calls[:]
            assert residue_histogram(f, 1024, modulus).tolist() == brute_histogram(f, 1024, modulus)
            assert calls == want, modulus

    def test_counts_are_added_under_the_lock(self, monkeypatch):
        # 1124 values in blocks of 256 mod 200: the first block's bincount
        # becomes the total, three more are added to it and the last 100
        # values count in with np.add.at, each while holding the lock
        class RecordingLock:
            def __init__(self):
                self.lock, self.held = real_lock(), False

            def __enter__(self):
                self.lock.acquire()
                self.held = True

            def __exit__(self, *exc):
                self.held = False
                self.lock.release()

        class RecordingAdd:
            def __call__(self, *args, **kwargs):
                calls.append(("add", locks[-1].held))
                return add(*args, **kwargs)

            def at(self, *args, **kwargs):
                calls.append(("at", locks[-1].held))
                return add.at(*args, **kwargs)

        calls, locks = [], []
        real_lock, add = enumeration.threading.Lock, np.add
        monkeypatch.setattr(enumeration, "threading", SimpleNamespace(
            Lock=lambda: locks.append(RecordingLock()) or locks[-1]))
        monkeypatch.setattr(np, "add", RecordingAdd())
        monkeypatch.setattr(enumeration, "_BLOCK_ELEMS", 1 << 8)
        f = Polynomial(1, {(3,): 1, (1,): 2})
        hist = residue_histogram(f, 1124, 200)
        monkeypatch.undo()
        assert hist.tolist() == brute_histogram(f, 1124, 200)
        assert calls == [("add", True)] * 3 + [("at", True)]

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_bincount_and_add_at_agree(self, monkeypatch, workers):
        # 60 x 60 points mod 1009: one-row blocks of 60 values take np.add.at,
        # one 3600-value block its bincount; the totals agree bit for bit
        f = parse_polynomial("x1^3+x1*x2+2*x2^2")
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setenv("IGUSA_WORKERS", workers)
        hists = []
        for elems in (1 << 4, 1 << 20):
            monkeypatch.setattr(enumeration, "_BLOCK_ELEMS", elems)
            hists.append(residue_histogram(f, 60, 1009))
        assert hists[0].dtype == hists[1].dtype == np.int64
        assert np.array_equal(hists[0], hists[1])
        assert hists[0].tolist() == brute_histogram(f, 60, 1009)

    def test_free_variables_charge_the_nominal_grid(self, monkeypatch):
        # enumerating only x2 of three variables still charges 125^3 points
        # per polynomial, and the budget refuses the nominal grid
        f = Polynomial(3, {(0, 2, 0): 1, (0, 0, 0): 4})
        before = enumeration.meter_consumed()
        hist = residue_histogram(f, 125, 7)
        assert enumeration.meter_consumed() - before == 125**3
        assert int(hist.sum()) == 125**3
        before = enumeration.meter_consumed()
        grads = list(f.gradient())
        assert count_common_zeros(grads, 125, 7) == 125**2 * 18  # x2 = 0 mod 7
        assert enumeration.meter_consumed() - before == 3 * 125**3
        monkeypatch.setenv("IGUSA_BUDGET", str(125**3 - 1))
        for call in (lambda: residue_histogram(Polynomial.constant(3, 3), 125, 5),
                     lambda: count_common_zeros([Polynomial.constant(3, 0)], 125, 5)):
            before = enumeration.meter_consumed()
            with pytest.raises(BudgetExceededError):
                call()
            assert enumeration.meter_consumed() == before

    def test_free_variables_past_int64(self, monkeypatch):
        # with free variables a budget past 2^63 lets (2^21)^3 = 2^63 points
        # through at the cost of 2^21: the count stays exact, and the int64
        # histogram refuses rather than wrap; one point fewer a side fits
        monkeypatch.setenv("IGUSA_BUDGET", str(2**64))
        grid = 1 << 21
        assert count_common_zeros([Polynomial.constant(3, 0)], grid, 7) == 2**63
        assert residue_histogram(Polynomial.constant(3, 1), grid - 1, 7)[1] == (grid - 1) ** 3
        with pytest.raises(ValueError, match="overflow the int64 histogram"):
            residue_histogram(Polynomial.constant(3, 1), grid, 7)
        # summing out a linear variable refuses alike, charged and before
        # anything is evaluated; its zero count stays exact
        assert count_common_zeros([Polynomial(3, {(1, 0, 0): 1})], grid, grid) == 2**42
        monkeypatch.setattr(enumeration, "_block_values", None)
        before = enumeration.meter_consumed()
        with pytest.raises(ValueError, match="overflow the int64 histogram"):
            residue_histogram(Polynomial(3, {(1, 0, 0): 1}), grid, grid)
        assert enumeration.meter_consumed() - before == 2**63

    @given(small_polynomials(max_n=3), st.integers(2, 20), st.integers(2, 400))
    @settings(max_examples=40)
    @example(Polynomial(3, {(0, 3, 0): 2, (0, 1, 0): -1}), 20, 7)
    def test_block_size_invariance(self, f, grid, modulus):
        # the partition is a tuning choice: every block size gives the same bits
        grads = list(f.gradient())
        results = []
        with pytest.MonkeyPatch.context() as mp:
            for elems in (1 << 4, 1 << 10, enumeration._BLOCK_ELEMS):
                mp.setattr(enumeration, "_BLOCK_ELEMS", elems)
                results.append((residue_histogram(f, grid, modulus).tolist(),
                                count_common_zeros([f], grid, modulus),
                                count_common_zeros(grads, grid, modulus)))
        assert results[0] == results[1] == results[2]

    def test_parallel_blocks_lose_no_update(self, monkeypatch):
        # 200 one-row blocks on 4 threads add into one shared histogram
        monkeypatch.setattr(enumeration, "_BLOCK_ELEMS", 1 << 8)
        f = Polynomial(2, {(2, 1): 3, (0, 3): -4, (1, 0): 9})
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        monkeypatch.setenv("IGUSA_WORKERS", "1")
        want = residue_histogram(f, 200, 40009)
        monkeypatch.setenv("IGUSA_WORKERS", "4")
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runs = [residue_histogram(f, 200, 40009) for _ in range(5)]
        finally:
            sys.setswitchinterval(interval)
        assert all(np.array_equal(hist, want) for hist in runs)
        assert int(want.sum()) == 200**2

    @pytest.mark.parametrize("value", ["0", "-5", "abc", "1e6"])
    def test_env_budget_must_be_positive(self, monkeypatch, value):
        monkeypatch.setenv("IGUSA_BUDGET", value)
        match = ("budget must be positive" if value.lstrip("-").isdigit()
                 else f"IGUSA_BUDGET must be an integer, got '{value}'")
        with pytest.raises(ValueError, match=match):
            residue_histogram(Polynomial(1, {(1,): 1}), 3, 3)


    @pytest.mark.parametrize("value", ["0", "-3", "abc", "1.5"])
    def test_env_workers_below_one_refused(self, monkeypatch, value):
        # refused before any pool exists: the stand-in pool fails if built
        def no_pool(*args, **kwargs):
            raise AssertionError("a thread pool was started")

        monkeypatch.setenv("IGUSA_WORKERS", value)
        monkeypatch.setattr(enumeration, "ThreadPoolExecutor", no_pool)
        match = ("worker count must be positive" if value.lstrip("-").isdigit()
                 else f"IGUSA_WORKERS must be an integer, got '{value}'")
        with pytest.raises(ValueError, match=match):
            default_workers()
        with pytest.raises(ValueError, match=match):
            residue_histogram(Polynomial(1, {(1,): 1}), 3, 3)

    def test_cpu_count_read_only_for_several_workers(self, monkeypatch):
        def no_cpu_count():
            raise AssertionError("os.cpu_count was read")

        monkeypatch.setattr(os, "cpu_count", no_cpu_count)
        monkeypatch.delenv("IGUSA_WORKERS", raising=False)
        assert default_workers() == 1
        monkeypatch.setenv("IGUSA_WORKERS", "1")
        assert default_workers() == 1

    def test_env_workers_capped_at_cpu_count(self, monkeypatch):
        monkeypatch.setenv("IGUSA_WORKERS", str(10**6))
        assert default_workers() == (os.cpu_count() or 1)
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert default_workers() == 1

    def test_pools_are_capped_at_cpu_count(self, monkeypatch):
        # a serial stand-in for the thread pool records the sizes asked for,
        # so the uncapped request of 10^6 workers starts no thread
        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setenv("IGUSA_WORKERS", str(10**6))
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        monkeypatch.setattr(enumeration, "_BLOCK_ELEMS", 1 << 4)
        monkeypatch.setattr(enumeration, "ThreadPoolExecutor", SerialPool)
        f = parse_polynomial("x1^3 - x2^3 + x1*x2")
        w = circle.WeightFunction((0.1, 0.2), 0.9)
        calls = {
            "residue_histogram": lambda: residue_histogram(f, 30, 31),
            "count_common_zeros": lambda: count_common_zeros([f], 30, 31),
            "weighted_solution_count": lambda: circle.weighted_solution_count(f, 8.0, w),
        }
        for name, call in calls.items():
            del sizes[:]
            call()
            assert sizes and max(sizes) <= 3, (name, sizes)

    def test_no_public_function_takes_workers(self):
        # IGUSA_WORKERS is the only worker setting
        assert not _public_functions_taking("workers")
        assert not _params(default_workers)

    def test_no_public_function_takes_budget(self):
        # a run's budget is --budget or IGUSA_BUDGET, never a per-call argument
        assert not _public_functions_taking("budget")
        assert not _params(enumeration_budget)


def _params(obj):
    try:
        return inspect.signature(obj).parameters
    except (TypeError, ValueError):  # builtins without a signature
        return {}


def _public_functions_taking(param: str) -> list[str]:
    """Public callables of the package and its six computing modules that
    take ``param``; exceptions (BudgetExceededError reports the budget it
    hit) are not settings and are skipped."""
    names = ("bounds", "charsums", "circle", "enumeration", "geometry", "zeta")
    return [
        f"{mod.__name__}.{name}"
        for mod in [expsums] + [getattr(expsums, m) for m in names]
        for name, obj in vars(mod).items()
        if not name.startswith("_") and callable(obj) and param in _params(obj)
        and not (isinstance(obj, type) and issubclass(obj, BaseException))
    ]


@st.composite
def linear_forms(draw):
    """(f, M) with f = A x_j + B + M c x_j^2: A and B over the other
    variables, A with a term that is nonzero mod M, so f mod M reads x_j
    linearly; coefficients within 2M either side; M prime, a prime power
    or composite, with M^n <= 1000."""
    n = draw(st.integers(1, 3))
    M = draw(st.sampled_from([m for m in (2, 3, 4, 5, 6, 7, 8, 9, 12, 25, 27, 30) if m**n <= 1000]))
    j = draw(st.integers(0, n - 1))
    terms = {}
    for degree, count in ((0, draw(st.integers(0, 3))), (1, draw(st.integers(0, 2))), (2, 1)):
        for _ in range(count):
            e = [draw(st.integers(0, 3)) for _ in range(n)]
            e[j] = degree
            c = M * draw(st.integers(-2, 2)) if degree == 2 else draw(st.integers(-2 * M, 2 * M))
            terms[tuple(e)] = terms.get(tuple(e), 0) + c
    e = [draw(st.integers(0, 2)) for _ in range(n)]
    e[j] = 1
    terms[tuple(e)] = terms.get(tuple(e), 0) + draw(st.integers(1, M - 1))
    return Polynomial(n, {e: c for e, c in terms.items() if c}), M


class TestLinearSplit:
    @given(linear_forms())
    @settings(max_examples=60)
    # n = 1: A = 0 mod M (f mod M is constant), and A a non-unit mod p^k or M
    @example((Polynomial(1, {(1,): 27, (0,): 4}), 27))
    @example((Polynomial(1, {(1,): 3, (0,): 2}), 9))
    @example((Polynomial(1, {(1,): -6, (0,): 5}), 12))
    @example((Polynomial(1, {(1,): 10, (0,): -7}), 25))
    # x2 free; 25 x1^2 drops mod 25 and leaves x1 linear
    @example((Polynomial(3, {(1, 0, 1): 2, (0, 0, 2): -1}), 9))
    @example((Polynomial(2, {(2, 0): 25, (1, 1): 7, (0, 3): -3}), 25))
    def test_sum_out_matches_brute(self, case):
        f, M = case
        runs = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(os, "cpu_count", lambda: 2)
            mp.setattr(enumeration, "_SPLIT_POINTS", 1)  # these grids are below the default
            for workers, elems in (("1", enumeration._BLOCK_ELEMS), ("2", 1 << 3)):
                mp.setenv("IGUSA_WORKERS", workers)
                mp.setattr(enumeration, "_BLOCK_ELEMS", elems)
                before = enumeration.meter_consumed()
                runs.append((residue_histogram(f, M, M), count_common_zeros([f], M, M)))
                assert enumeration.meter_consumed() - before == 2 * M**f.n
        (hist, zeros), (hist2, zeros2) = runs
        assert hist.dtype == hist2.dtype == np.int64 and np.array_equal(hist, hist2)
        assert hist.tolist() == brute_histogram(f, M, M)
        assert zeros == zeros2 == brute_zero_count(f, M)

    def test_linear_variable_evaluates_one_axis(self, monkeypatch):
        # f reads x1 linearly, so A = 3 x2 and B = x2^3 + 1 are evaluated on
        # the M values of x2 rather than f on M^2 points
        M = 1009
        f = parse_polynomial("3*x1*x2 + x2^3 + 1")
        sizes = []
        real = enumeration._block_values
        monkeypatch.setattr(enumeration, "_block_values", lambda *a: sizes.append((out := real(*a)).size) or out)
        hist = residue_histogram(f, M, M)
        assert sum(sizes) <= 2 * M
        del sizes[:]
        zeros = count_common_zeros([f], M, M)
        assert sum(sizes) <= 2 * M
        x1, x2 = np.meshgrid(np.arange(M), np.arange(M), indexing="ij")
        want = np.bincount(((3 * x1 * x2 + x2**3 + 1) % M).ravel(), minlength=M)
        assert hist.tolist() == want.tolist() and zeros == want[0]


class TestZeroEnumeration:
    @given(small_polynomials(max_n=2), st.sampled_from([2, 3, 5, 7]))
    @settings(max_examples=40)
    def test_zero_points_match_brute(self, f, p):
        pts = common_zero_points([f], p, p)
        want = [
            pt
            for pt in itertools.product(range(p), repeat=f.n)
            if f.eval_mod(pt, p) == 0
        ]
        assert [tuple(row) for row in pts] == want
        assert count_common_zeros([f], p, p) == len(want)

    def test_joint_zeros_of_two_polynomials(self):
        f = Polynomial(2, {(1, 0): 1})
        g = Polynomial(2, {(0, 1): 1, (0, 0): -3})
        pts = common_zero_points([f, g], 7, 7)
        assert [tuple(r) for r in pts] == [(0, 3)]

    @pytest.mark.parametrize("modulus", [7, 65537])
    def test_gradient_with_the_zero_polynomial(self, modulus):
        # x2 is free in x1^3 + x1*x3, so its gradient (3*x1^2 + x3, 0, x1)
        # holds the zero polynomial and the count scales by the grid
        f = Polynomial(3, {(3, 0, 0): 1, (1, 0, 1): 1})
        grads = list(f.gradient())
        assert grads[1].is_zero
        want = sum(all(g.eval_mod(pt, modulus) == 0 for g in grads)
                   for pt in itertools.product(range(9), repeat=3))
        assert want == 9 * len(range(0, 9, modulus)) ** 2  # x1 = x3 = 0 mod M
        assert count_common_zeros(grads, 9, modulus) == want
        assert len(common_zero_points(grads, 9, modulus)) == want

    def test_lanes_keep_separate_power_tables(self):
        # f runs in uint32 lanes and g in int64; both read x^16 mod 65537,
        # and at (2, 2) g's product (-1)*(-1) = 2^32 would wrap in uint32
        f = parse_polynomial("x1^16 + x2^16 + 2")
        g = parse_polynomial("x1^16*x2^16 - 1")
        assert count_common_zeros([f, g], 3, 65537) == 1
        assert [tuple(r) for r in common_zero_points([f, g], 3, 65537)] == [(2, 2)]


class TestPointAndBoxEvaluation:
    @given(small_polynomials(max_n=3), st.integers(2, 50))
    @settings(max_examples=40)
    # one example per lane of _block_values, by the worst unreduced value
    # sum_terms c*(M-1)^v: uint32 (66 here)
    @example(parse_polynomial("x1^3*x2 + 5*x2^2 - 7"), 7)
    # int64 unreduced (about 2^38): a Taylor-shifted fiber polynomial, 14
    # terms sharing 9 power tables
    @example(parse_polynomial("x1^3+x2^3+x3^3+x1*x2*x3").shift_scale((1, 2, 1), 3), 3**7)
    # int64 with every product reduced: 9*(2^31 - 2)^3 is past 2^63
    @example(parse_polynomial("9*x1^5*x2^4*x3 - 4*x2^2 + 3"), 2**31 - 1)
    # a modulus past the int64 kernel, from 2^31 on: exact Python ints
    @example(parse_polynomial("x1^3*x2 + 5*x2^2 - 7"), 2**31)
    @example(parse_polynomial("x1^3*x2 + 5*x2^2 - 7"), 2**61 - 1)
    def test_points_match_eval_mod(self, f, modulus):
        pts = np.array(
            [[i % 5 - 2 for i in range(k, k + f.n)] for k in range(8)], dtype=np.int64
        )
        got = eval_points_mod(f, pts, modulus)
        want = [f.eval_mod(tuple(int(v) for v in row), modulus) for row in pts]
        assert got.tolist() == want
        assert got.dtype == (np.int64 if modulus < 2**31 else object)

    @pytest.mark.parametrize("modulus, dtype", [
        (7, np.int64), (390625, np.int64), (2**31 - 1, np.int64),
        (2**31, object), (2**61 - 1, object),  # eval_points_mod's exact ints
    ])
    def test_power_tables_equal_pow(self, modulus, dtype):
        rng = np.random.default_rng(modulus % 1000)
        for size in (5, 3000):  # either side of _reduce's 1024-value rule
            values = rng.integers(-2**40, 2**40, size).astype(dtype)
            for e in range(1, 9):
                got = _pow_vector(values, e, modulus).tolist()
                assert got == [pow(x, e, modulus) for x in values.tolist()], (size, e)

    def test_box_exact_values(self):
        f = Polynomial(2, {(2, 0): 1, (0, 1): -1})
        lows, highs = [-3, -2], [3, 2]
        vals = eval_box_exact(f, lows, highs, -3, 4)
        want = [x * x - y for x in range(-3, 4) for y in range(-2, 3)]
        assert vals.tolist() == want

    def test_box_overflow_guard(self):
        f = Polynomial(1, {(4,): 2**40})
        with pytest.raises(ValueError):
            eval_box_exact(f, [-1000], [1000], -1000, 1001)

    @given(small_polynomials(max_n=3))
    def test_columns_match_eval_int(self, f):
        rng = np.random.default_rng(f.n)
        cols = [rng.integers(-30, 31, size=12) for _ in range(f.n)]
        got = eval_columns_exact(f, cols)
        assert got.tolist() == [f.eval_int(tuple(int(c[i]) for c in cols)) for i in range(12)]

    def test_columns_drop_each_power_table_after_its_last_use(self):
        # the quadric reads each x_j^2 table once: holding all four until the
        # end peaked at 6 columns' worth above the start, dropping them at 2
        f = Polynomial(4, {(2, 0, 0, 0): 1, (0, 2, 0, 0): 1, (0, 0, 2, 0): 1, (0, 0, 0, 2): -1})
        size = 1 << 17
        cols = [np.arange(size, dtype=np.int64) - j for j in range(4)]
        vals, peak = traced_peak(lambda: eval_columns_exact(f, cols))
        x = np.arange(size, dtype=np.int64)
        assert vals.tolist() == (x**2 + (x - 1) ** 2 + (x - 2) ** 2 - (x - 3) ** 2).tolist()
        assert peak < 3 * cols[0].nbytes

    def test_columns_overflow_guard_uses_each_axis(self):
        f = Polynomial(2, {(1, 3): 1})  # x1 * x2^3
        small = np.array([-(2**20), 2**20])
        assert eval_columns_exact(f, [np.array([2, 3]), small]).tolist() == [-(2**61), 3 * 2**60]
        with pytest.raises(ValueError):
            eval_columns_exact(f, [small, small])


def _count_env_reads(monkeypatch) -> dict:
    """Replace os.environ by a copy that counts the reads of each name."""
    reads = {}

    class Environ(dict):
        def get(self, key, default=None):
            reads[key] = reads.get(key, 0) + 1
            return super().get(key, default)

        def __getitem__(self, key):
            reads[key] = reads.get(key, 0) + 1
            return super().__getitem__(key)

    monkeypatch.setattr(os, "environ", Environ(os.environ))
    return reads


class TestSettingsScope:
    """IGUSA_BUDGET and IGUSA_WORKERS are read once per settings scope: a CLI
    run, else the outermost call of a scoped public function."""

    F = "x1^2+x2^3"  # at 294 = 2 * 3 * 7^2, every factor's spectrum is kept

    def test_warm_composite_reads_each_setting_once(self, monkeypatch):
        f = parse_polynomial(self.F)
        want = expsums.exp_sum_composite(f, 294, 5)
        monkeypatch.setenv("IGUSA_BUDGET", "1000")
        reads = _count_env_reads(monkeypatch)
        got = expsums.exp_sum_composite(f, 294, 5)
        assert reads == {"IGUSA_WORKERS": 1, "IGUSA_BUDGET": 1}
        assert (got.value, got.err_bound) == (want.value, want.err_bound)

    def test_nested_public_call_reads_each_setting_once(self, monkeypatch, empty_store):
        # fourier_crosscheck calls count_zeros_mod twice, each a scoped call
        reads = _count_env_reads(monkeypatch)
        report = expsums.fourier_crosscheck(parse_polynomial(self.F), 3, 3)
        assert report.abs_diff == 0
        assert reads == {"IGUSA_WORKERS": 1, "IGUSA_BUDGET": 1}

    def test_spectrum_hit_reads_only_the_record(self, monkeypatch):
        f = parse_polynomial(self.F)
        cold = [expsums.exp_sum_pruned(f, expsums.AdditiveCharacter(7, 2, a)) for a in (3, 46)]
        composite = expsums.exp_sum_composite(f, 294, 5)
        before = enumeration.meter_consumed()

        def rebuilt(*args, **kwargs):
            raise AssertionError("a kept level was rebuilt")

        # every builder of W's atoms, of S and the phase pass past the rule
        for owner, name in [(enumeration, "residue_histogram"), (enumeration, "common_zero_points"),
                            (Polynomial, "shift_scale"), (np.fft, "rfft"), (charsums, "_phase_sum")]:
            monkeypatch.setattr(owner, name, rebuilt)
        warm = [expsums.exp_sum_pruned(f, expsums.AdditiveCharacter(7, 2, a)) for a in (3, 46)]
        assert [(v.value, v.err_bound, v.fiber_count) for v in warm] == \
            [(v.value, v.err_bound, v.fiber_count) for v in cold]
        assert type(warm[0].value) is complex
        assert enumeration.meter_consumed() - before == 2 * 98  # the zero-locus charge, replayed
        again = expsums.exp_sum_composite(f, 294, 5)
        assert (again.value, again.err_bound) == (composite.value, composite.err_bound)
        # a budget lowered between two calls, below the replayed charge, refuses the hit
        monkeypatch.setenv("IGUSA_BUDGET", "97")
        with pytest.raises(BudgetExceededError, match="zero-locus enumeration needs 98 points, budget is 97"):
            expsums.exp_sum_pruned(f, expsums.AdditiveCharacter(7, 2, 3))
        with pytest.raises(BudgetExceededError):
            expsums.exp_sum_composite(f, 294, 5)

    def test_warm_composite_caps_the_workers_once(self, monkeypatch):
        # the scope keeps the capped worker count: at two workers a warm
        # composite used to call os.cpu_count() at each of its 3 charges
        f = parse_polynomial(self.F)
        monkeypatch.setenv("IGUSA_WORKERS", "2")
        want = expsums.exp_sum_composite(f, 294, 5)
        calls, cpu_count = [], os.cpu_count
        monkeypatch.setattr(os, "cpu_count", lambda: calls.append(1) or cpu_count())
        got = expsums.exp_sum_composite(f, 294, 5)
        assert len(calls) <= 1
        assert (got.value, got.err_bound) == (want.value, want.err_bound)

    def test_a_scope_ends_with_its_call_and_stays_in_its_thread(self, monkeypatch):
        seen = []
        charge_each = enumeration._charge_each

        def recording(charges):
            charge_each(charges)
            other = []
            thread = threading.Thread(target=lambda: other.append(enumeration._scope.get()))
            thread.start()
            thread.join(timeout=10)
            assert not thread.is_alive()
            seen.append((enumeration._scope.get(), other[0]))

        monkeypatch.setattr(enumeration, "_charge_each", recording)
        f = parse_polynomial(self.F)
        expsums.exp_sum_composite(f, 294, 5)
        assert len(seen) == 3 and len({id(mine) for mine, _ in seen}) == 1  # one scope per call
        assert seen[0][0] is not None and {theirs for _, theirs in seen} == {None}
        assert enumeration._scope.get() is None
        monkeypatch.setenv("IGUSA_BUDGET", "1")
        with pytest.raises(BudgetExceededError):
            expsums.exp_sum_composite(f, 294, 5)
        assert enumeration._scope.get() is None
        monkeypatch.setenv("IGUSA_BUDGET", "x")
        with pytest.raises(ValueError, match="IGUSA_BUDGET must be an integer"):
            expsums.count_zeros_mod(f, 3, 2)
        assert enumeration._scope.get() is None

    @pytest.mark.parametrize("name, value, match", [
        ("IGUSA_WORKERS", "0", "worker count must be positive, got 0"),
        ("IGUSA_BUDGET", "x", "IGUSA_BUDGET must be an integer, got 'x'"),
    ])
    def test_a_bad_setting_is_refused_as_the_scope_opens(self, monkeypatch, name, value, match):
        # N = 1 charges nothing and returns 1: only the scope reads the setting
        monkeypatch.setenv(name, value)
        with pytest.raises(ValueError, match=match):
            expsums.exp_sum_composite(parse_polynomial(self.F), 1, 1)
        assert enumeration._scope.get() is None

    def test_the_scope_is_one_checked_pair(self, monkeypatch, empty_store):
        # fourier_crosscheck calls count_zeros_mod twice, each a scoped call
        # that sees the outer call's (budget, workers) object itself
        seen = []
        charge_each = enumeration._charge_each
        monkeypatch.setattr(enumeration, "_charge_each",
                            lambda charges: seen.append(enumeration._scope.get()) or charge_each(charges))
        monkeypatch.setenv("IGUSA_BUDGET", "123456")
        monkeypatch.setenv("IGUSA_WORKERS", "1")
        expsums.fourier_crosscheck(parse_polynomial(self.F), 3, 3)
        assert len(seen) >= 2 and all(scope is seen[0] for scope in seen)
        assert type(seen[0]) is tuple and seen[0] == (123456, 1)
        assert [type(v) for v in seen[0]] == [int, int]


def _package_nodes():
    """(module file name, innermost enclosing function or None, node) for
    every AST node of the package's modules."""
    for path in sorted(Path(enumeration.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owner = {}  # node -> its innermost enclosing function (walks visit outer ones first)
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(func):
                    owner[node] = func.name
        for node in ast.walk(tree):
            yield path.name, owner.get(node), node


def test_one_reader_of_the_environment():
    # every setting goes through the scope: os.environ (or getenv) is read
    # nowhere in the package but in enumeration._setting
    found = []
    for module, func, node in _package_nodes():
        name = getattr(node, "attr", None) or getattr(node, "id", None)
        names = [alias.name for alias in node.names] if isinstance(node, ast.ImportFrom) else [name]
        if {"environ", "environb", "getenv", "getenvb", "putenv"} & set(names):
            found.append((module, func))
    assert found == [("enumeration.py", "_setting")]


def test_one_reader_of_the_kept_spectra():
    # the store's spectra are read only through charsums._spectrum, which
    # alone knows the rule that caches a spectrum beside W's atoms
    found = {(module, func) for module, func, node in _package_nodes()
             if isinstance(node, ast.Attribute) and node.attr == "spectra"}
    assert found == {("charsums.py", "_spectrum")}


def test_one_reader_of_the_kept_atoms():
    # W's atoms are read, and their charges replayed, only in
    # charsums._critical_atoms, so every level's hit takes one path
    found = {(func, node.attr) for module, func, node in _package_nodes()
             if module == "charsums.py" and isinstance(node, ast.Attribute)
             and node.attr in ("atoms", "_charge_each")}
    assert found == {("_critical_atoms", "atoms"), ("_critical_atoms", "_charge_each")}


def test_one_owner_of_the_store():
    # the (f, p) store, its records' fields and the fiber split are named
    # only in charsums, which walks the fibers for both the sums and the counts
    private = {"_store", "_stored", "_local", "_fiber_split", "_critical_atoms", "_spectrum"}
    fields = {"residues", "splits", "atoms", "spectra"}
    found = set()
    for module, _, node in _package_nodes():
        if isinstance(node, ast.Attribute):
            names = {node.attr} & (private | fields)
        else:  # a name read, an imported name or a definition
            names = {getattr(node, "id", None), getattr(node, "name", None)} & private
        if names:
            found.add(module)
    assert found == {"charsums.py"}
