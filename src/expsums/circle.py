"""Major-arc toolkit: smooth weight, lattice sums, local densities, and
the comparison of a direct weighted solution count against the
singular-series x singular-integral prediction.

The weight is the standard compactly supported bump

    omega(x) = w(||x - x0|| / rho),   w(t) = exp(-1/(1 - t^2)) for |t| < 1,

zero on and outside the sphere of radius rho.  For a polynomial f of
degree d in n variables the prediction reads

    N_omega(f, B)  ~  S(R) * J(R) * B^(n-d),

with S(R) = sum_{q <= R} A(q), where A(q) = sum_{a in (Z/q)^x} E_f(q, a)
is multiplicative in q and sum_{j <= k} A(p^j) = p^k N(p^k) p^(-kn) for
the zero counts N(p^k) of f mod p^k, and J(R) the truncated integral of
I(gamma) = int omega(x) e^(2 pi i gamma f(x)) dx.  Integrating over gamma
first gives the closed form J(R) = int omega(x) 2R sinc(2R f(x)) dx, one
n-D quadrature.
Truncations default to R = ceil(B^delta) for the series and B^delta for
the integral.

Every walk is cut by enumeration's block runner, from the grid's shape
alone, and chunk results are combined in chunk order, so results are
bitwise independent of the worker count: the lattice walks add their chunk
sums by math.fsum, and the quadrature keeps one value per node of the
order being evaluated and sums their concatenation once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from . import enumeration
from .arith import primes_up_to
from .charsums import exp_sum_composite
from .errors import BudgetExceededError, QuadratureConvergenceError
from .polynomials import Polynomial
from .zeta import poincare_coeffs


@dataclass(frozen=True)
class WeightFunction:
    """Bump weight omega(x) = w(||x - center|| / rho) supported in the
    open ball of radius rho around center."""

    center: tuple[float, ...]
    rho: float

    def __post_init__(self):
        if not 0 < self.rho < 1:
            raise ValueError(f"rho must lie in (0, 1), got {self.rho}")
        object.__setattr__(self, "center", tuple(float(c) for c in self.center))
        if not all(map(math.isfinite, self.center)):
            raise ValueError(f"center coordinates must be finite, got {self.center}")

    @property
    def n(self) -> int:
        return len(self.center)

    def values(self, points: np.ndarray, scale: float = 1.0) -> np.ndarray:
        """omega(points / scale) for an (N, n) array, vectorized.

        The squared distance is summed left to right over the axes, as
        _in_ball sums it, so _bump of _in_ball's t2 gives the same bits."""
        t2 = np.zeros(points.shape[0])
        for j, c in enumerate(self.center):
            t2 = t2 + (points[:, j] / scale - c) ** 2
        return _bump(t2, self.rho)

    def support_box(self, B: float) -> list[tuple[int, int]]:
        """Per-axis integer ranges of {x : ||x/B - center|| < rho}."""
        if not (math.isfinite(B) and B > 0):
            raise ValueError(f"B must be positive and finite, got {B}")
        out = []
        for c in self.center:
            lo = math.ceil(B * (c - self.rho))
            hi = math.floor(B * (c + self.rho))
            out.append((lo, hi))
        return out


def _bump(t2: np.ndarray, rho: float) -> np.ndarray:
    """w(sqrt(t2) / rho) for squared distances t2 from the center:
    exp(-1 / (1 - t2 / rho^2)) where t2 / rho^2 < 1, else 0."""
    with np.errstate(divide="ignore"):  # on and outside the sphere: exp(-1/0) = exp(-inf) = 0
        return np.exp(-1.0 / np.maximum(1.0 - t2 / rho**2, 0.0))


# -- the in-ball walk ----------------------------------------------------------


def _mirror_axes(f: Polynomial, w: WeightFunction, axes: Iterable[int]) -> list[int]:
    """The axes j among ``axes`` with center_j == 0 and only even exponents
    of x_j in f.  Reflecting x_j fixes f, the weight, the support box
    (lo = -hi) and the Gauss-Legendre rule, so grids fold there (_axes)."""
    return [j for j in axes if w.center[j] == 0.0 and all(e[j] % 2 == 0 for e in f.terms)]


def _axes(f: Polynomial, w: WeightFunction, coords: list, weights: list, scale: float):
    """(coords, offsets = coords / scale - center, weights) of the first
    len(coords) axes, each an ascending array with per-point weights, after
    the mirror fold, which updates the two lists in place.  The fold is one
    per-axis rule: on a mirror axis keep the coordinates >= 0 and double the
    weight of those != 0.  Lattice axes (weight 1) and Gauss-Legendre axes
    (rho * w_GL) share it."""
    for j in _mirror_axes(f, w, range(len(coords))):
        keep = coords[j] >= 0
        coords[j], g = coords[j][keep], weights[j][keep]
        weights[j] = np.where(coords[j] > 0, 2 * g, g)
    return coords, [x / scale - c for x, c in zip(coords, w.center)], weights


def _columns(coords: list, idx: list) -> list:
    """The coordinate columns coords[j][idx[j]] of a walked chunk.  Empties
    idx, so the walk's index arrays are freed while the work runs on."""
    cols = [x[i] for x, i in zip(coords, idx)]
    idx.clear()
    return cols


def _lattice(f: Polynomial, B: float, w: WeightFunction, box: list[tuple[int, int]], what: str):
    """_axes of the integer points of box, scaled by B, weight 1 each; the
    dimensions are checked and the whole box is charged to the budget
    first.  The weights (powers of 2 after the fold) are exact in float32,
    which halves the walk's wq."""
    if w.n != f.n:
        raise ValueError("weight dimension does not match the polynomial")
    enumeration._charge(math.prod(hi - lo + 1 for lo, hi in box), what)
    coords = [np.arange(lo, hi + 1, dtype=np.int64) for lo, hi in box]
    return _axes(f, w, coords, [np.ones(x.size, np.float32) for x in coords], B)


def _in_ball(offsets: Sequence[np.ndarray], rho2: float) -> tuple[list[np.ndarray], np.ndarray]:
    """(idx, t2): the row-major index columns of the tensor points of the
    ascending per-axis arrays offsets[j] = coordinate - center_j with

        t2 / rho2 < 1,   t2 = sum_j offsets[j][i_j]^2 summed left to right,

    and their t2, the sum WeightFunction.values forms.  Adding squares
    never lowers a float sum, so a prefix that fails the test drops all its
    extensions.  Each prefix gets the searchsorted interval
    |offset| <= sqrt(rho2 - t2), widened by one index against rounding, and
    every candidate is re-tested exactly.
    """
    t2 = offsets[0] ** 2
    keep = t2 / rho2 < 1.0
    idx, t2 = [np.flatnonzero(keep)], t2[keep]
    for off in offsets[1:]:
        r = np.sqrt(np.maximum(rho2 - t2, 0.0))
        first = np.maximum(np.searchsorted(off, -r) - 1, 0)
        stop = np.minimum(np.searchsorted(off, r, side="right") + 1, off.size)
        counts = stop - first
        rows = np.repeat(np.arange(t2.size), counts)
        starts = np.cumsum(counts) - counts  # where each prefix's candidates begin
        i = np.arange(rows.size) + np.repeat(first - starts, counts)
        t2 = t2[rows] + off[i] ** 2
        keep = t2 / rho2 < 1.0
        rows = rows[keep]
        idx, t2 = [ix[rows] for ix in idx] + [i[keep]], t2[keep]
    return idx, t2


def _walk(offsets: list, weights: list, rho: float, work) -> list:
    """[work(idx, wq, t2) for each enumeration._run_blocks chunk of the
    offsets' tensor grid], in chunk order: idx and t2 are _in_ball's index
    columns and squared distances of the chunk's tensor points of offsets
    inside the ball of radius rho (at k = n axes, _bump(t2, rho) is omega bit
    for bit), and wq is the product of the per-axis weights there."""
    scaled = [j for j, g in enumerate(weights) if (g != 1.0).any()]  # axes of weight 1 drop out

    def run(a, b):
        idx, t2 = _in_ball([offsets[0][a:b]] + offsets[1:], rho**2)
        idx[0] = idx[0] + a
        wq = np.ones(t2.size, weights[0].dtype)
        for j in scaled:
            wq *= weights[j][idx[j]]
        return work(idx, wq, t2)

    return enumeration._run_blocks(run, [off.size for off in offsets])


# -- lattice sums --------------------------------------------------------------


def weighted_exponential_sum(f: Polynomial, B: float, w: WeightFunction, alpha: float) -> complex:
    """sum_{x in Z^n} omega(x/B) e^(2 pi i alpha f(x)), exact f values,
    over the support ball's lattice points (one _walk, mirror axes folded)."""
    box = w.support_box(B)
    coords, offsets, weights = _lattice(f, B, w, box, "lattice sum")

    def work(idx, wq, t2):
        vals = enumeration.eval_columns_exact(f, _columns(coords, idx))
        phases = np.exp((2j * np.pi * alpha) * vals.astype(np.float64))
        return complex(np.sum(_bump(t2, w.rho) * wq * phases))

    parts = _walk(offsets, weights, w.rho, work)
    return complex(math.fsum(p.real for p in parts), math.fsum(p.imag for p in parts))


def complete_sum_mod_q(f: Polynomial, q: int, a: int) -> complex:
    """The complete unnormalized sum over (Z/q)^n: q^n * E_f(q, a)."""
    if q < 1:
        raise ValueError(f"q must be >= 1, got {q}")
    val = exp_sum_composite(f, q, a)
    return q**f.n * val.value


# -- singular series -----------------------------------------------------------


@dataclass
class SingularSeriesResult:
    S_of_R: Fraction


def _local_sums(f: Polynomial, p: int, k_max: int) -> list[Fraction]:
    """[sigma_0, ..., sigma_k_max], sigma_k = sum_{j <= k} A(p^j) = p^k N(p^k) p^(-kn)."""
    if k_max < 1:
        return [Fraction(1)]
    _, dens = poincare_coeffs(f, p, k_max)
    return [p**k * dk for k, dk in dens]


def singular_series(f: Polynomial, R: int) -> SingularSeriesResult:
    """Truncated series S(R) = sum_{q <= R} A(q) as an exact rational.

    Summing E_f over every a mod p^k gives, by orthogonality,
    sum_{j <= k} A(p^j) = p^k N(p^k) p^(-kn), so A(p^k) is a difference of
    two zero counts (zeta.poincare_coeffs) and A(q) = prod_{p^k || q} A(p^k).
    The run's enumeration budget applies to each enumeration, not to the
    series as a whole; an R above it is refused, uncharged, before the
    R + 1 terms or the sieve up to R are allocated.  The primes run from
    the largest down: the largest p <= R has p^2 > R, so its one zero count
    on the p^n grid, the largest grid of the series, is charged first and
    a grid past the budget is refused before any other enumeration runs.
    """
    if R < 1:
        raise ValueError(f"R must be >= 1, got {R}")
    if R > (budget := enumeration.enumeration_budget()):
        raise BudgetExceededError(R, budget, "singular series")
    terms = [Fraction(1)] * (R + 1)  # terms[q] = A(q)
    for p in reversed(primes_up_to(R)):
        k_max = max(k for k in range(1, R.bit_length() + 1) if p**k <= R)
        sigma = _local_sums(f, p, k_max)
        for q in range(p, R + 1, p):
            k = max(k for k in range(1, k_max + 1) if q % p**k == 0)  # v_p(q)
            terms[q] *= sigma[k] - sigma[k - 1]
    return SingularSeriesResult(S_of_R=sum(terms[1:], Fraction(0)))


def singular_series_local(f: Polynomial, p: int, r_max: int) -> Fraction:
    """Partial local density at p: the q = p^r terms for r = 0..r_max,
    which sum to p^r_max * N(p^r_max) * p^(-r_max n)."""
    return _local_sums(f, p, r_max)[-1]


# -- oscillatory integral ------------------------------------------------------


QUAD_TOL = 1e-6  # default relative tolerance of the order ladder

_ORDER_LADDERS = {
    1: (16, 24, 32, 48, 64, 96, 128, 192, 256),
    2: (12, 16, 24, 32, 48, 64, 96, 128),
    3: (12, 16, 24, 32, 48, 64, 96),
    4: (8, 12, 16, 24, 32, 48, 64),
    5: (8, 12, 16, 24, 32, 40, 48),
}


def _check_quadrature(f: Polynomial, w: WeightFunction, tol: float, R: float | None = None) -> None:
    """Refuse a weight of another dimension, n > 5, a tolerance that is not
    positive and finite or a coefficient past the float range; for J(R)
    also an R that is not positive and finite, or a bound on 2 pi R |f|
    over the support ball (|x_j| <= |center_j| + rho) past the float range."""
    if w.n != f.n:
        raise ValueError("weight dimension does not match the polynomial")
    if f.n not in _ORDER_LADDERS:
        raise ValueError(f"tensor quadrature supports n <= {max(_ORDER_LADDERS)}")
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"quadrature tolerance must be positive and finite, got {tol}")
    try:
        float(max(f.terms.values(), key=abs, default=0))
    except OverflowError:
        raise ValueError("coefficient too large for the float quadrature") from None
    if R is None:
        return
    if not (math.isfinite(R) and R > 0):
        raise ValueError(f"R must be positive and finite, got {R}")
    with np.errstate(over="ignore"):  # float64 powers past the float range read inf
        bound = 2 * math.pi * R * enumeration._magnitude_bound(f, np.abs(w.center) + w.rho)
    if not math.isfinite(bound):
        raise ValueError(f"2 pi R |f| may overflow a float on the support ball at R={R}")


def _grid(f: Polynomial, w: WeightFunction, order: int, each) -> list:
    """[each(f values, omega times quadrature weight) for each _walk chunk]
    at the order's tensor Gauss-Legendre nodes inside the support ball, in
    chunk order, so the chunks' nodes run row-major: one _walk, whose axes
    carry the weights rho * w_GL, folded on mirror axes (_axes; leggauss's
    nodes are antisymmetric and its weights symmetric, bitwise).  A chunk's
    f values and weights live only until its each() returns, which may
    overwrite the f values."""
    nodes, gl_w = np.polynomial.legendre.leggauss(order)
    coords = [c + w.rho * nodes for c in w.center]
    axes, offsets, weights = _axes(f, w, coords, [w.rho * gl_w] * f.n, 1.0)
    # scalar powers, one table per (axis, exponent): numpy's array power can
    # differ by an ulp with the SIMD dispatch, and J(R)'s bits are in the report
    pows = [{k: np.array([x**k for x in axis]) for k in {e[j] for e in f.terms} if k}
            for j, axis in enumerate(axes)]

    def work(idx, wq, t2):
        fv = np.zeros(t2.size)
        for e, c in f.terms.items():
            t = float(c)
            for table, k, ix in zip(pows, e, idx):
                if k:
                    t = t * table[k][ix]
            fv = fv + t
        return each(fv, wq * _bump(t2, w.rho))

    return _walk(offsets, weights, w.rho, work)


def _ladder(f: Polynomial, w: WeightFunction, tol: float, each, total, what: str):
    """(value, order): total(values) of omega(x) g(f(x)) on the order's
    _grid, where values concatenates each chunk's per-node values
    each(f values, weights), climbing the dimension's ladder from its first
    order until two successive orders differ by at most tol * max(current
    magnitude, the plain weight integral on the current grid: fsum of the
    chunks' sums), so tiny oscillatory values do not stall it.  The bump
    weight is smooth but not analytic, so low dimensions climb to high
    orders cheaply while n = 5 stops where the tensor grid is still
    affordable.  An order holds one value per node until its total is
    taken; its f values and weights are never kept.  total reads the whole
    order's values at once, so numpy's pairwise sum has the bits it has on
    the whole grid, where sums per chunk would not."""
    prev: complex | None = None
    orders = _ORDER_LADDERS[f.n]
    for order in orders:
        values, masses = zip(*_grid(f, w, order, lambda fv, wq: (each(fv, wq), np.sum(wq))))
        cur = total(np.concatenate(values))
        del values  # the next order's walk runs without them
        if prev is not None and abs(cur - prev) <= tol * max(abs(cur), math.fsum(masses)):
            return cur, order
        prev = cur
    raise QuadratureConvergenceError(f"{what} did not stabilize within orders {orders}")


class OscillatoryIntegrator:
    """I(gamma) = int omega(x) e^(2 pi i gamma f(x)) dx, refined along the
    order ladder (_ladder) after the quadrature checks (_check_quadrature)."""

    def __init__(self, f: Polynomial, w: WeightFunction, tol: float = QUAD_TOL):
        _check_quadrature(f, w, tol)
        self.f = f
        self.w = w
        self.tol = tol

    def value(self, gamma: float) -> complex:
        """I(gamma) = int omega(x) e^(2 pi i gamma f(x)) dx."""
        phase = 2j * np.pi * gamma
        return _ladder(self.f, self.w, self.tol, lambda fs, wqs: wqs * np.exp(phase * fs),
                       lambda values: complex(np.sum(values)), f"I(gamma) at gamma={gamma}")[0]


def oscillatory_integral(
    f: Polynomial,
    w: WeightFunction,
    gamma: float,
    tol: float = QUAD_TOL,
) -> complex:
    """One-off I(gamma); build an OscillatoryIntegrator for repeated use."""
    return OscillatoryIntegrator(f, w, tol).value(gamma)


@dataclass
class SingularIntegralResult:
    J_of_R: float
    order: int  # the ladder order at which J(R) stabilized


def singular_integral(
    f: Polynomial,
    w: WeightFunction,
    R: float,
    tol: float = QUAD_TOL,
) -> SingularIntegralResult:
    """J(R) = int_{-R}^{R} I(gamma) dgamma as one n-D quadrature.

    Since int_{-R}^{R} e^(2 pi i gamma t) dgamma = sin(2 pi R t) / (pi t),

        J(R) = int omega(x) 2R sinc(2R f(x)) dx,   sinc(u) = sin(pi u) / (pi u),

    which refines along the same order ladder as I(gamma) (_ladder), after
    _check_quadrature at R.  Each chunk's nodes become their terms
    wq * sinc(2R f) at once, and an order holds only those, one per node.
    """
    _check_quadrature(f, w, tol, R)

    def sinc(fs, wqs):
        # np.sinc's steps (y = pi x, eps where y == 0, sin(y) / y) in place, on
        # the chunk's own f values: the same bits with one new chunk-sized
        # array instead of five
        y = fs
        y *= 2.0 * R
        y *= np.pi
        y[y == 0] = np.finfo(np.float64).eps
        s = np.sin(y)
        s /= y
        s *= wqs
        return s

    J, order = _ladder(f, w, tol, sinc, lambda values: 2.0 * R * float(np.sum(values)), f"J(R) at R={R}")
    return SingularIntegralResult(J_of_R=J, order=order)


# -- weighted solution count ---------------------------------------------------


def _last_var_split(f: Polynomial) -> tuple[Polynomial, Polynomial, Polynomial] | None:
    """(A, B, C) with f = A z^2 + B z + C in the last variable, else None."""
    n = f.n
    if n < 2:
        return None
    if any(e[-1] > 2 for e in f.terms):
        return None
    parts: list[dict[tuple[int, ...], int]] = [{}, {}, {}]
    for e, c in f.terms.items():
        parts[e[-1]][e[:-1]] = c
    C, B, A = (Polynomial(n - 1, d) for d in parts)
    return A, B, C


def weighted_solution_count(f: Polynomial, B: float, w: WeightFunction) -> float:
    """N_omega(f, B) = sum over integer solutions f(x) = 0 of omega(x/B).

    One _walk visits the lattice points of the support ball, with the
    mirror axes folded (_axes), and weighs each by its t2 and per-axis
    weights; the budget is charged for the whole box.  Solution testing is
    exact integer arithmetic.  Polynomials of degree <= 2 in the last
    variable take the accelerated path: walk the ball's projection onto the
    first n-1 axes and solve the (at most quadratic) fiber equation,
    checking discriminants for perfect squares.  When the discriminants
    could reach 2^53 on the box, all n axes are walked instead.
    """
    box = w.support_box(B)
    split = _last_var_split(f)
    if split is not None and _float_sqrt_safe(split, box[:-1]):
        return _count_quadratic_fiber(f, split, B, w, box)
    coords, offsets, weights = _lattice(f, B, w, box, "solution enumeration")

    def work(idx, wq, t2):
        hit = enumeration.eval_columns_exact(f, _columns(coords, idx)) == 0
        return float(np.sum(_bump(t2[hit], w.rho) * wq[hit]))

    return math.fsum(_walk(offsets, weights, w.rho, work))


def _float_sqrt_safe(split, outer_box) -> bool:
    """True when b^2 and 4|a c| stay below 2^52 on the box, so the
    discriminant b^2 - 4ac neither wraps in int64 nor loses bits as a float."""
    reach = [max(abs(lo), abs(hi)) for lo, hi in outer_box]
    a, b, c = (enumeration._magnitude_bound(p, reach) for p in split)
    return b * b < 2**52 and 4 * a * c < 2**52


def _count_quadratic_fiber(f, split, B, w, box) -> float:
    A, Bc, C = split
    coords, offsets, weights = _lattice(f, B, w, box[:-1], "fiber-solver enumeration")
    zlo, zhi = box[-1]
    z_axis = np.arange(zlo, zhi + 1, dtype=np.int64)

    def work(idx, wq, t2):
        cols = _columns(coords, idx)
        a, b, c = (enumeration.eval_columns_exact(g, cols) for g in (A, Bc, C))
        del cols  # the solver reads only a, b, c, t2 and wq from here on
        acc = 0.0

        def add_points(i: np.ndarray, z: np.ndarray) -> float:
            """Weighted count of the chunk's points i with last coordinate z
            in the box: omega from the walk's t2 plus the last axis's term,
            times wq[i]."""
            ok = (z >= zlo) & (z <= zhi)
            i, z = i[ok], z[ok]
            return float(np.sum(_bump(t2[i] + (z / B - w.center[-1]) ** 2, w.rho) * wq[i]))

        def add_roots(i: np.ndarray, num: np.ndarray, den: np.ndarray) -> float:
            """add_points at the integer quotients z = num / den."""
            ok = num % den == 0
            return add_points(i[ok], num[ok] // den[ok])

        # only perfect-square discriminants reach the (slow) integer division
        quad = np.flatnonzero(a != 0)
        disc = b[quad] * b[quad] - 4 * a[quad] * c[quad]
        nonneg = disc >= 0
        quad, disc = quad[nonneg], disc[nonneg]
        # |disc| < 2^53 (_float_sqrt_safe), so float(disc) is exact and the
        # correctly rounded sqrt of a perfect square K^2 is K itself: r^2 == disc
        # holds exactly when disc is a square
        r = np.rint(np.sqrt(disc.astype(np.float64))).astype(np.int64)
        square = r * r == disc
        quad, r = quad[square], r[square]
        aq, bq = a[quad], b[quad]
        acc += add_roots(quad, -bq + r, 2 * aq)
        double = r > 0  # a double root is counted once
        acc += add_roots(quad[double], -bq[double] - r[double], 2 * aq[double])
        lin = np.flatnonzero((a == 0) & (b != 0))
        acc += add_roots(lin, -c[lin], b[lin])
        for i in np.flatnonzero((a == 0) & (b == 0) & (c == 0)):
            acc += add_points(np.full(z_axis.size, i), z_axis)
        return acc

    return math.fsum(_walk(offsets, weights, w.rho, work))


# -- the report ----------------------------------------------------------------


@dataclass
class CircleMethodReport:
    B: float
    delta: float
    R: float                 # B^delta; the series truncates at ceil(R)
    R_series: int
    S_truncated: float
    J_truncated: float
    direct_count: float
    prediction: float
    ratio: float | None
    trusted: bool
    warnings: list[str] = field(default_factory=list)


def major_arc_report(
    f: Polynomial,
    B: float,
    delta: float,
    w: WeightFunction,
    s_val: int,
    R_series: int | None = None,
    R_integral: float | None = None,
    tol: float = QUAD_TOL,
) -> CircleMethodReport:
    """Assemble S(B^delta), J(B^delta), the direct count, and their ratio.

    The prediction is trusted when n - s > 4(d-1); outside that range it
    is still computed, with a warning flag.  Explicit R overrides support
    convergence studies (holding R fixed makes the prediction scale
    exactly like B^(n-d)).  A B^delta past the float range and the
    quadrature's preconditions (_check_quadrature at the integral's R) are
    refused before the series runs."""
    if not (math.isfinite(B) and math.isfinite(delta)) or B <= 0 or delta <= 0:
        raise ValueError(f"B and delta must be positive and finite, got {B} and {delta}")
    d = f.degree()
    if d is None or d < 1:
        raise ValueError("polynomial must be non-constant")
    try:
        R = B**delta
    except OverflowError:
        raise ValueError(f"B^delta overflows a float at B={B}, delta={delta}") from None
    r_series = R_series if R_series is not None else math.ceil(R)
    r_int = R_integral if R_integral is not None else R
    _check_quadrature(f, w, tol, r_int)
    warnings: list[str] = []
    trusted = d >= 2 and (f.n - s_val) > 4 * (d - 1)
    if not trusted:
        warnings.append("decay hypothesis n - s > 4(d-1) not met; prediction untrusted")

    S = float(singular_series(f, r_series).S_of_R)
    integral = singular_integral(f, w, r_int, tol=tol)
    direct = weighted_solution_count(f, B, w)
    prediction = S * integral.J_of_R * B ** (f.n - d)
    if S <= 0:
        warnings.append("truncated singular series is not positive")
    if integral.J_of_R <= 0:
        warnings.append("truncated singular integral is not positive")
    ratio = direct / prediction if prediction != 0 else None
    return CircleMethodReport(
        B=B,
        delta=delta,
        R=R,
        R_series=r_series,
        S_truncated=S,
        J_truncated=integral.J_of_R,
        direct_count=direct,
        prediction=prediction,
        ratio=ratio,
        trusted=trusted,
        warnings=warnings,
    )
