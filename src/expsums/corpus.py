"""Seeded random polynomial corpus shared by tests and the CLI self-test.

All randomness in the repository flows from one seed (default 0); the
corpus for a given seed is frozen by construction, so acceptance runs are
reproducible byte for byte.
"""

from __future__ import annotations

import random

from .polynomials import Polynomial

CORPUS_SIZE = 50
COEFF_BOUND = 9
MAX_VARS = 3
MAX_DEGREE = 4


def random_polynomial(rng: random.Random, n_max: int = MAX_VARS) -> Polynomial:
    """One random nonzero polynomial with small support: at most 5 terms."""
    while True:
        n = rng.randint(1, n_max)
        terms: dict[tuple[int, ...], int] = {}
        for _ in range(rng.randint(1, 5)):
            total = rng.randint(0, MAX_DEGREE)
            exps = [0] * n
            for _ in range(total):
                exps[rng.randrange(n)] += 1
            c = rng.randint(-COEFF_BOUND, COEFF_BOUND)
            if c == 0:
                continue
            key = tuple(exps)
            terms[key] = terms.get(key, 0) + c
        poly = Polynomial(n, terms)
        if not poly.is_zero:
            return poly


def standard_corpus(seed: int = 0, size: int = CORPUS_SIZE) -> list[Polynomial]:
    """The frozen corpus: ``size`` polynomials, n <= 3, degree <= 4,
    coefficients in [-9, 9]."""
    rng = random.Random(seed)
    return [random_polynomial(rng) for _ in range(size)]


def crt_subcorpus(seed: int = 0, size: int = 20) -> list[Polynomial]:
    """The fixed sub-corpus for composite-modulus cross-checks.

    Restricted to n <= 2: direct enumeration over every N <= 1000 in three
    variables would cost ~10^11 points, far past any budget.
    """
    rng = random.Random(seed)
    return [random_polynomial(rng, n_max=2) for _ in range(size)]
