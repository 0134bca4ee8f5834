"""Shared oracles and hypothesis setup.

Oracle implementations here are deliberately independent of the package's
fast paths: plain Python loops, cmath phases, fsum accumulation.
"""

from __future__ import annotations

import cmath
import itertools
import math
import tracemalloc
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import settings

from expsums import Polynomial, charsums, enumeration

settings.register_profile("suite", max_examples=30, deadline=None, derandomize=True)
settings.load_profile("suite")


@pytest.fixture
def empty_store():
    """Empties charsums' store of per-(f, p) results, and again at each call
    of the returned function, so that a cold run starts cold."""
    def empty():
        charsums._store.clear()
        charsums._stored = 0

    empty()
    return empty


def brute_exp_sum(f: Polynomial, modulus: int, a: int = 1) -> complex:
    """Normalized sum over (Z/modulus)^n by direct loop, no histogram."""
    if modulus == 1:
        return 1 + 0j
    parts = []
    for point in itertools.product(range(modulus), repeat=f.n):
        r = f.eval_mod(point, modulus)
        parts.append(cmath.exp(2j * math.pi * ((a * r) % modulus) / modulus))
    return complex(
        math.fsum(z.real for z in parts), math.fsum(z.imag for z in parts)
    ) / modulus**f.n


def compose(f: Polynomial, subs: list[Polynomial]) -> Polynomial:
    """f with subs[j] substituted for variable j, by repeated multiplication;
    every substitution shares one variable count."""
    if len(subs) != f.n:
        raise ValueError(f"need {f.n} substitutions, got {len(subs)}")
    m = subs[0].n
    acc = Polynomial.zero(m)
    for e, c in f.terms.items():
        t = Polynomial.constant(m, c)
        for s, k in zip(subs, e):
            t = t * s**k
        acc = acc + t
    return acc


def brute_weight(w, x) -> float:
    """The bump weight omega(x) of a WeightFunction at one point, by the
    scalar formula w(t) = exp(-1/(1 - t^2)) for t = ||x - center|| / rho < 1."""
    t2 = sum((float(v) - c) ** 2 for v, c in zip(x, w.center)) / w.rho**2
    if t2 >= 1.0:
        return 0.0
    return math.exp(-1.0 / (1.0 - t2))


def traced_peak(fn):
    """(fn(), the tracemalloc peak in bytes while fn ran, above what was
    traced when it started)."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = fn()
        return result, tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def brute_zero_count(f: Polynomial, modulus: int) -> int:
    return sum(
        1
        for point in itertools.product(range(modulus), repeat=f.n)
        if f.eval_mod(point, modulus) == 0
    )


def ramanujan_crosscheck_rhs(f: Polynomial, p: int, m: int, atoms: bool = False) -> Fraction:
    """p^(-m) sum_{a mod p^m} E(p^m, a), level by level: the units mod
    q = p^k sum to Ramanujan sums c_q(r) (q - q/p at r = 0, -q/p at the
    other multiples of q/p, 0 elsewhere) over the residue histogram H of f
    mod q.  Reads the histogram kernel, which test_enumeration pins against
    plain loops, or with ``atoms`` the pruned sums' critical-atom
    distribution W (charsums._critical_atoms), whose unit sums are H's."""
    rhs = Fraction(1)  # a = 0
    for k in range(1, m + 1):
        q, step = p**k, p ** (k - 1)
        if atoms:
            _, _, residues, weights = charsums._critical_atoms(f, p, k)
        else:
            weights = enumeration.residue_histogram(f, q, q)
            residues = range(q)
        at = dict(zip(map(int, residues), map(int, weights)))  # exact ints
        multiples = sum(w for r, w in at.items() if r % step == 0)
        rhs += Fraction(q * at.get(0, 0) - step * multiples, q**f.n)
    return rhs / p**m


def brute_critical_count(fd: Polynomial, p: int) -> int:
    grads = fd.gradient()
    return sum(
        1
        for point in itertools.product(range(p), repeat=fd.n)
        if all(g.eval_mod(point, p) == 0 for g in grads)
    )


@st.composite
def small_polynomials(draw, max_n: int = 3, max_degree: int = 4, max_terms: int = 4):
    n = draw(st.integers(1, max_n))
    n_terms = draw(st.integers(1, max_terms))
    terms: dict[tuple[int, ...], int] = {}
    for _ in range(n_terms):
        exps = tuple(
            draw(
                st.lists(st.integers(0, max_degree), min_size=n, max_size=n).filter(
                    lambda e: sum(e) <= max_degree
                )
            )
        )
        coeff = draw(st.integers(-9, 9).filter(bool))
        terms[exps] = terms.get(exps, 0) + coeff
    poly = Polynomial(n, terms)
    return poly if not poly.is_zero else Polynomial.constant(n, 1)
