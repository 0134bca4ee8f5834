"""Normalized exponential sums over Z/p^m, F_p, and composite Z/N.

The normalized sum for a polynomial f in n variables, a prime power p^m
and a unit a is

    E = p^(-mn) * sum_{x mod p^m} e^(2*pi*i * a*f(x) / p^m).

Four evaluation routes:

* exp_sum_naive      -- full enumeration through an exact integer histogram
                        of residues (order-independent, bitwise
                        deterministic): the direct route at N = p^m.
* exp_sum_direct     -- the same over Z/N for any N, the oracle for
                        exp_sum_composite.  Its histogram mod N is counted
                        through the CRT: #{x mod N : f(x) = r} is the
                        product over q || N of #{x mod q : f(x) = r mod q},
                        exactly in integers, so it is charged sum_q q^n
                        points, not N^n (each q^n grid sums out a variable
                        f reads linearly), plus N for multiplying them out,
                        which happens one pass block at a time: sum_q q
                        counts and about one block per worker are held,
                        never all N.  The CRT only counts points: one unit
                        mod N is applied in one phase pass over the whole
                        histogram, with no per-factor units, no pruning and
                        no product of complex factors, so the route stays
                        independent of exp_sum_composite.  The pass splits
                        r = i B + j with B = isqrt(N - 1) + 1, so it
                        computes about 2 sqrt(N) phases, not one per
                        residue (_dense_phase_sum).
* exp_sum_pruned     -- stationary-phase pruning.  For m >= 2, writing
                        x = u + p^(m-1) t gives
                        f(x) = f(u) + p^(m-1) t . grad f(u)  (mod p^m),
                        so only fibers over critical residues u mod p
                        count.  With f(u + p y) = c0 + p^v h(y) they unfold
                        into an exact integer distribution W on Z/p^m, a
                        set of atoms (r, W(r)) with r sorted, distinct and
                        reduced mod p^m; at m = 1, W is the histogram of f
                        mod p.  W per m is memoised per (f, p) by value
                        (_local), next to one split per u, in one store that
                        empties past _STORE_BYTES; a hit replays its build's
                        budget charges, so nothing depends on call history.
                        While p^m is at most both the points W's build
                        charged and _SPECTRUM_CAP, the record caches W's real
                        FFT beside W: one lookup per unit, or all at once for
                        the supremum over units (_max_abs_over_units).
                        Valid for every prime, including p = 2 and 3.
* exp_sum_composite  -- the product over prime powers dividing N, with the
                        per-factor units fixed by 1/N = sum_i u_i / q_i
                        where u_i = (N/q_i)^(-1) mod q_i, so that the unit
                        for the factor q_i is a * u_i mod q_i; the q_i and
                        u_i are memoised per N.

Every naive, direct and finite-field sum is one pass of
E = total^(-1) sum_r H(r) e^(2 pi i a r / q) over its dense histogram H,
split into A = q // B rows of B (_dense_phase_sum); each pruned sum past the
spectrum's rule is the same pass over its atoms (_phase_sum).  Both run in
enumeration._run_blocks blocks, added in block order.  Values carry a
coarse but sound error bound: 4 eps (A + B + 2) for a dense pass, else
4 eps (atoms + 1, plus log2 q for a spectrum read) times the atoms' share
of the total, plus one eps per exp_sum_composite step.

zeta's zero counts walk the same fiber splits (_zero_counts), so this module
alone reads the store, its records and the split format.
"""

from __future__ import annotations

import functools
import math
import operator
import sys
from dataclasses import dataclass, field

import numpy as np

from . import enumeration
from .arith import _require_prime, factorize
from .polynomials import Polynomial

_EPS = sys.float_info.epsilon

_SPECTRUM_CAP = 1 << 20  # the longest spectrum of W the store keeps
_FLOAT_OVERFLOW = 2**1024 - 2**970  # the least int float() rounds past the float range


@dataclass(frozen=True)
class AdditiveCharacter:
    """The character x -> e^(2*pi*i * a*x / p^m) on Z/p^m with conductor m.

    ``p`` is normally prime; composite moduli go through
    exp_sum_composite, which builds its own per-prime-power characters.
    """

    p: int
    m: int
    a: int = 1

    def __post_init__(self):
        if self.p < 2:
            raise ValueError(f"modulus base must be >= 2, got {self.p}")
        if self.m < 1:
            raise ValueError(f"conductor must be >= 1, got {self.m}")
        if math.gcd(self.a, self.p) != 1:
            raise ValueError(f"unit {self.a} shares a factor with {self.p}")

    @property
    def modulus(self) -> int:
        return self.p**self.m

    @property
    def unit(self) -> int:
        return self.a % self.modulus


@dataclass
class ExpSumValue:
    """A computed normalized sum with provenance.

    ``fiber_count`` reports how many critical fibers the pruned route
    touched (None on other routes).
    """

    value: complex
    abs: float
    err_bound: float
    fiber_count: int | None = None


def _phases(angles: np.ndarray, q: int) -> np.ndarray:
    """e(angle / q) for each integer angle: 0 + i (2 pi / q) angle, bit for
    bit the product (2j pi / q) * angle, exponentiated in place."""
    phases = np.zeros(angles.size, np.complex128)
    phases.imag = angles
    phases.imag *= 2 * np.pi / q
    return np.exp(phases, out=phases)


def _phase_sum(residues: np.ndarray, weights: np.ndarray, q: int, a: int,
               total: int) -> tuple[complex, float]:
    """sum_r W(r) e^(2 pi i a r / q) / total over the atoms (r, W(r)), one
    enumeration._run_blocks chunk of atoms at a time, and its bound
    4 eps (atoms + 1) scaled by the atoms' share of the total."""
    dtype = np.int64 if q < 2**31 else object  # a*r stays exact

    def block(lo, hi):
        angles = residues[lo:hi].astype(dtype)
        angles *= a
        angles %= q
        phases = _phases(angles, q)
        phases *= weights[lo:hi].astype(np.float64)
        return complex(np.sum(phases))

    acc = functools.reduce(operator.add, enumeration._run_blocks(block, residues.shape), 0j)
    return acc / total, 4.0 * _EPS * (residues.size + 1) * float(weights.sum() / total)


def _dense_phase_sum(counts, q: int, a: int, total: int) -> tuple[complex, float]:
    """sum_r H(r) e^(2 pi i a r / q) / total over a dense histogram H of
    length q >= 2 that sums to total, read as counts(lo, hi) = H[lo:hi]
    (int64 or exact ints), and its bound 4 eps (A + B + 2).

    The index split of Bailey's four-step FFT, at one frequency: with
    B = isqrt(q - 1) + 1, A = q // B and r = i B + j (j < B),
    e(a r / q) = rho_i c_j for c_j = e(a j / q) and rho_i = e(a B i / q), so
    the sum is sum_i rho_i sum_j H(i B + j) c_j over the A full rows of B
    and one tail row i = A of q - A B entries.  Only the A + B + 1 phases are
    computed.  H is read once, in enumeration._run_blocks row blocks, each
    copied into its own float64 buffer (threads share none; the tail row is
    padded with zeros); each block's real and imaginary row sums are one
    einsum reduction against c's contiguous parts, not BLAS, whose threads
    would change the bits, and their product with rho is written by parts in
    real multiplies and adds, since numpy's complex multiply fuses them (FMA)
    on some CPUs and not on others.

    Error, with u = eps / 2, every |phase| = 1 and the weights >= 0: a
    count's conversion to float64 costs u; each phase, from a centred angle
    |theta| <= pi in three roundings and one exp, is off by at most
    (3 pi + 3) u < 13 u, so c and rho cost 26 u; a row sum of length B costs
    gamma_B ~ B u (real and imaginary parts alike, hence the complex sum
    too); the complex multiply by rho costs sqrt(5) u < 3 u; summing the
    row terms, within a block and then across blocks, costs gamma_A; and
    the division by total costs 2 u.  Relative to the total weight that is
    (A + B + 32) u to first order, within 8 u (A + B + 2) since A + B >= 3.
    """
    B = math.isqrt(q - 1) + 1
    A = q // B
    # c_j for j < B, then rho_i for i <= A, in one table, from int64 angles
    # centred to -q/2 < k <= q/2
    half = (q - 1) // 2
    angles = (np.concatenate([np.arange(0, B * a, a, dtype=np.int64),
                              np.arange(A + 1, dtype=np.int64) * (a * B % q)]) + half) % q - half
    phases = _phases(angles, q)
    c = phases[:B].view(np.float64).reshape(-1, 2).T.copy()  # rows Re c, Im c, contiguous
    rho_re, rho_im = phases.real[B:], phases.imag[B:]

    def block(lo, hi):  # rows [lo, hi)
        part = counts(lo * B, min(hi * B, q))
        buf = np.zeros((hi - lo) * B)
        buf[:part.size] = part
        s = np.empty(hi - lo, np.complex128)  # the row sums, as (Re, Im) pairs
        np.einsum("ij,kj->ik", buf.reshape(-1, B), c, out=s.view(np.float64).reshape(-1, 2))
        x, y, re, im = s.real, s.imag, rho_re[lo:hi], rho_im[lo:hi]
        x_im = x * im  # s *= rho by parts: x re - y im + i (y re + x im),
        x *= re        # each product rounded alone, as on every CPU
        x -= y * im
        y *= re
        y += x_im
        return complex(s.sum())

    # the rows H fills: A full rows and the tail row, if it is not empty
    parts = enumeration._run_blocks(block, (-(-q // B), B))
    return functools.reduce(operator.add, parts, 0j) / total, 4.0 * _EPS * (A + B + 2)


def exp_sum_naive(f: Polynomial, chi: AdditiveCharacter) -> ExpSumValue:
    """Full enumeration of E over (Z/p^m)^n via the exact residue histogram."""
    _require_prime(chi.p)
    return exp_sum_direct(f, chi.modulus, chi.unit)


def finite_field_sum(f: Polynomial, p: int, a: int = 1) -> ExpSumValue:
    """E over F_p^n (conductor 1)."""
    return exp_sum_naive(f, AdditiveCharacter(p, 1, a))


@functools.lru_cache(maxsize=1024)
def _crt_factors(N: int) -> tuple[tuple[int, int, int, int], ...]:
    """(p, m, q, (N/q)^(-1) mod q) for each prime power q = p^m || N, p
    ascending; memoised, so N is factorized once for both CRT routes."""
    out = []
    for p, m in sorted(factorize(N).items()):
        q = p**m
        out.append((p, m, q, pow(N // q, -1, q)))
    return tuple(out)


def _crt_histogram(f: Polynomial, N: int):
    """The exact histogram H of f mod N over (Z/N)^n as a block reader
    counts(lo, hi) = H[lo:hi]: H(r) is the product over q || N of h_q(r mod q),
    h_q the histogram mod q.  A block tiles each h_q as a head h_q[lo mod q:],
    whole periods through a (k, q) view and a tail; the first factor fills it
    and the rest multiply in.  So only the sum_q q counts of the h_q and the
    blocks being read are held, never all N; a prime power N slices its one
    histogram.  Charges N points for the assembly before any factor's grid
    runs; int64 unless N^n reaches 2^63 (then exact Python ints).
    """
    if N >= enumeration._MAX_MODULUS:
        raise ValueError(f"modulus {N} too large for the int64 kernel")
    factors = _crt_factors(N)
    if len(factors) == 1:
        hist = enumeration.residue_histogram(f, N, N)
        return lambda lo, hi: hist[lo:hi]
    enumeration._charge(N, "histogram assembly")
    dtype = np.int64 if N**f.n < 2**63 else object
    hists = [enumeration.residue_histogram(f, q, q).astype(dtype, copy=False) for _, _, q, _ in factors]

    def counts(lo, hi):
        n = hi - lo
        out = np.empty(n, dtype)
        for i, h in enumerate(hists):
            q, r = h.size, lo % h.size
            head = min(-r % q, n)
            body = head + (n - head) // q * q
            # an empty piece is skipped: a numpy call costs about 1 us on nothing
            pieces = [(out[:head], h[r:r + head])] if head else []
            if body > head:
                pieces.append((out[head:body].reshape(-1, q), h))
            if body < n:
                pieces.append((out[body:], h[:n - body]))
            for dst, src in pieces:
                if i:
                    dst *= src
                else:
                    dst[...] = src
        return out
    return counts


def _sum_mod_one(N: int, a: int) -> ExpSumValue | None:
    """E = 1 at N = 1, else None; refuses N < 1 and a unit sharing a factor."""
    if N < 1:
        raise ValueError(f"modulus must be >= 1, got {N}")
    if math.gcd(a, N) != 1:
        raise ValueError(f"unit {a} shares a factor with {N}")
    return ExpSumValue(1 + 0j, 1.0, 0.0) if N == 1 else None


@enumeration.scoped
def exp_sum_direct(f: Polynomial, N: int, a: int = 1) -> ExpSumValue:
    """E over (Z/N)^n from the exact histogram of f mod N (oracle route)."""
    if (one := _sum_mod_one(N, a)) is not None:
        return one
    value, err = _dense_phase_sum(_crt_histogram(f, N), N, a % N, N**f.n)
    return ExpSumValue(value, abs(value), err)


@dataclass(eq=False, slots=True)
class _Local:
    """The store's record of (f, p): the critical residues mod p, a split per
    fiber u, and per level m W's atoms, with the spectrum _spectrum caches
    beside them while its rule holds."""

    residues: list[tuple[int, ...]] | None = None
    splits: dict = field(default_factory=dict)
    atoms: dict = field(default_factory=dict)
    spectra: dict = field(default_factory=dict)


# The store: (f, p) -> record, by value, and the bytes it holds.  An array
# counts its nbytes (pointers, for exact ints), a critical residue or a split
# _ENTRY_BYTES; past _STORE_BYTES the whole store empties.
_STORE_BYTES = 1 << 26
_ENTRY_BYTES = 512
_store: dict[tuple[Polynomial, int], _Local] = {}
_stored = 0


def _local(f: Polynomial, p: int) -> _Local:
    """The record of (f, p), new on a miss, which alone tests p for primality."""
    record = _store.get((f, p))
    if record is None:
        _require_prime(p)
        record = _store[f, p] = _Local()
    return record


def _grow(nbytes: int) -> None:
    """Count nbytes more in the store, and empty it past _STORE_BYTES.  A
    record being built when the store empties finishes outside it; the next
    call rebuilds it to equal values and charges."""
    global _stored
    _stored += nbytes
    if _stored > _STORE_BYTES:
        _store.clear()
        _stored = 0


def _fiber_split(f: Polynomial, p: int, u: tuple[int, ...], m: int) -> tuple[int, int, Polynomial | None]:
    """f(u + p y) = c0 + p^v h(y) on the fiber over a critical residue u, read
    at level m: (c0, v, h) with h of unit content and no constant term, and v
    the p-valuation of the non-constant part capped at m (m, h None, when f
    is constant on the fiber).  Stored per (f, p, u) with v uncapped (None on
    a constant fiber), so every level reads the same h.
    Since u is critical, v >= 2; a smaller one raises ValueError.
    """
    splits = _local(f, p).splits
    if u not in splits:
        g = f.shift_scale(u, p)
        rest = {e: c for e, c in g.terms.items() if any(e)}
        content, v = math.gcd(*rest.values()), 0
        while rest and content % p == 0:  # rest's least p-valuation
            content, v = content // p, v + 1
        if rest and v < 2:
            raise ValueError(f"fiber over {u} is not critical mod {p} (p-valuation {v} < 2)")
        h = Polynomial(g.n, {e: c // p**v for e, c in rest.items()}) if rest else None
        splits[u] = g.constant_term(), v if rest else None, h
        _grow(_ENTRY_BYTES)
    c0, v, h = splits[u]
    return c0, m if v is None else min(v, m), h


def _critical_atoms(f: Polynomial, p: int, m: int, record: _Local | None = None):
    """(charges, fibers, residues, weights) of W, the critical-atom
    distribution of f on Z/p^m (see the module docstring).

    At m = 1, the atoms are the nonzero entries of the histogram of f mod
    p, in the narrowest dtypes that hold p - 1 and p^n, and ``fibers`` is
    None.  At m >= 2, each of the ``fibers`` critical residues u, with
    f(u + p y) = c0 + p^v h(y), adds the atoms c0 + p^v r mod p^m of weight
    p^((v-1)n) W_h(r) for h's W_h at level m - v (v >= m: one atom c0 of
    weight p^((m-1)n)), in int64 arrays unless a weight or a*r could
    overflow (then exact Python ints).  At every level the residues are
    sorted, distinct and reduced mod p^m.
    Kept per m in the record of (f, p), ``record`` if the caller holds it;
    only this function reads them.  ``charges`` lists the build's (points,
    what) budget charges, which a hit replays in order, as a residues hit
    does its n p^n.
    """
    record = record or _local(f, p)
    if (entry := record.atoms.get(m)) is not None:
        enumeration._charge_each(entry[0])
        return entry
    n, q = f.n, p**m
    if m == 1:
        hist = enumeration.residue_histogram(f, p, p)
        residues = np.flatnonzero(hist)
        entry = ([(p**n, "histogram enumeration")], None,
                 residues.astype(np.min_scalar_type(p - 1)),
                 hist[residues].astype(np.min_scalar_type(p**n)))
    else:
        charges = [(n * p**n, "zero-locus enumeration")]
        if record.residues is not None:  # a hit charges like the enumeration
            enumeration._charge_each(charges)
        else:  # sorted, as tuples of ints
            record.residues = list(map(tuple, enumeration.common_zero_points(list(f.gradient()), p, p).tolist()))
            _grow(_ENTRY_BYTES * len(record.residues))
        dtype = np.int64 if p ** (m * n) < 2**63 and q < 2**31 else object
        residues, weights = [np.empty(0, dtype)], [np.empty(0, dtype)]
        for u in record.residues:
            c0, v, h = _fiber_split(f, p, u, m)
            sub_r, sub_w = np.zeros(1, np.int64), np.ones(1, np.int64)
            if v < m:
                sub_charges, _, sub_r, sub_w = _critical_atoms(h, p, m - v)
                charges += sub_charges
            residues.append((c0 % q + p**v * sub_r.astype(dtype)) % q)
            weights.append(p ** ((v - 1) * n) * sub_w.astype(dtype))
        atoms, index = np.unique(np.concatenate(residues), return_inverse=True)
        merged = np.zeros(atoms.size, dtype)
        np.add.at(merged, index, np.concatenate(weights))
        entry = (charges, len(record.residues), atoms, merged)
    record.atoms[m] = entry
    _grow(entry[2].nbytes + entry[3].nbytes)
    return entry


def _zero_counts(f: Polynomial, p: int, m: int, t: int = 0) -> list[int]:
    """[N(p), ..., N(p^m)] for f = t, by Igusa's stationary phase formula.

    Smooth zeros of f - t mod p lift to p^((k-1)(n-1)) zeros mod p^k (Hensel).
    Over a singular one u, f(u + p y) = c0 + p^v h(y) (_fiber_split),
    and the fiber holds p^((k-1)n) zeros mod p^k when k <= v and p^k | c0 - t,
    and p^((v-1)n) times h's N(p^(k-v)) at target (t - c0)/p^v when k > v and
    p^v | c0 - t; else none.  Levels 1 and 2 need only f - t mod p^2, so
    fibers are split only for m > 2.  The fibers that recurse are walked,
    in a recursion's order, on an explicit stack of (f, m, t, weight, level
    offset), since the walk is about m/2 deep.
    """
    counts = [0] * m
    stack = [(f, m, t, 1, 0)]
    while stack:
        f, m, t, weight, shift = stack.pop()
        n, g = f.n, (f - t % p if t % p else f)
        if m == 1:
            counts[shift] += weight * enumeration.count_common_zeros([g], p, p)
            continue
        zeros = enumeration.common_zero_points([g], p, p)
        # f(u + p e_j) = f(u) + p df/dx_j(u) mod p^2, so f mod p^2 at u and at its
        # n neighbours tells the singular zeros and which have f(u) = t mod p^2
        steps = p * np.eye(n + 1, n, -1, dtype=np.int64)  # rows 0, p e_1, ..., p e_n
        points = (zeros[:, None, :] + steps).reshape(-1, n)
        enumeration._charge(points.shape[0], "singular-zero test")
        vals = enumeration.eval_points_mod(f, points, p * p).reshape(-1, n + 1)
        singular = (vals[:, 1:] == vals[:, :1]).all(axis=1)
        deep = zeros[singular & (vals[:, 0] == t % (p * p))]
        n_singular = int(singular.sum())
        for k in range(1, m + 1):
            counts[shift + k - 1] += weight * (zeros.shape[0] - n_singular) * p ** ((k - 1) * (n - 1))
        counts[shift] += weight * n_singular
        counts[shift + 1] += weight * deep.shape[0] * p**n
        if m == 2:
            continue
        for u in map(tuple, deep[::-1].tolist()):  # pushed in reverse, popped in order
            c0, v, h = _fiber_split(f, p, u, m)
            for k in range(3, v + 1):
                if (c0 - t) % p**k == 0:
                    counts[shift + k - 1] += weight * p ** ((k - 1) * n)
            if v < m and (c0 - t) % p**v == 0:
                stack.append((h, m - v, (t - c0) // p**v, weight * p ** ((v - 1) * n), shift + v))
    return counts


def _total(f: Polynomial, p: int, m: int) -> int:
    """p^(mn), which a sum at level m divides by; a ValueError past floats."""
    total = p ** (m * f.n)
    if total >= _FLOAT_OVERFLOW:
        raise ValueError(f"p^(mn) = {p}^{m * f.n} is past the float range")
    return total


def _rfft(f: Polynomial, p: int, m: int, atoms) -> tuple[np.ndarray, float]:
    """(S, err) of W's atoms on Z/q, q = p^m: S, the raw rfft of W made dense,
    gives p^(mn) E(q, a) as conj(S[a]) for a <= q/2 and S[q - a] above,
    within err."""
    _, _, residues, weights = atoms
    q = p**m
    dense = np.zeros(q)
    dense[residues.astype(np.int64)] = weights.astype(np.float64)
    share = float(weights.sum() / p ** (m * f.n))
    return np.fft.rfft(dense), 4.0 * _EPS * (residues.size + 1 + math.log2(q)) * share


def _spectrum(f: Polynomial, p: int, m: int):
    """(atoms, kept): atoms = _critical_atoms(f, p, m), which a hit reads with
    its charges replayed, and kept = (S, err) of _rfft, cached in the record
    beside the atoms while q = p^m is at most both the points W's build
    charged and _SPECTRUM_CAP, else None."""
    record = _local(f, p)
    atoms = _critical_atoms(f, p, m, record)
    kept = record.spectra.get(m)
    if kept is None and p**m <= min(sum(points for points, _ in atoms[0]), _SPECTRUM_CAP):
        kept = record.spectra[m] = _rfft(f, p, m, atoms)
        _grow(kept[0].nbytes)
    return atoms, kept


def _pruned(f: Polynomial, p: int, m: int, a: int) -> tuple[complex, float, int | None]:
    """(value, err, fibers) of exp_sum_pruned at (f, p), level m and unit a:
    one entry of W's spectrum (_spectrum), else one phase pass over W's atoms."""
    q, total = p**m, _total(f, p, m)
    (_, fibers, residues, weights), kept = _spectrum(f, p, m)
    if kept is None:
        return *_phase_sum(residues, weights, q, a, total), fibers
    spectrum, err = kept
    return (spectrum.item(a).conjugate() if 2 * a <= q else spectrum.item(q - a)) / total, err, fibers


def _max_abs_over_units(f: Polynomial, p: int, m: int) -> float:
    """sup over the units a mod q = p^m of |E(q, a)|: the largest |S[a]|,
    a <= q/2, of W's spectrum S (_spectrum's, else an unkept _rfft), charged
    q points first; within 4 eps log2(q) times the atoms' share of the
    p^(mn) points (measured: under 0.7 of that on the corpus and at p < 3000)."""
    _require_prime(p)
    q = p**m
    if q >= enumeration._MAX_MODULUS:
        raise ValueError(f"modulus {q} too large for the unit spectrum")
    enumeration._charge(q, "unit spectrum")
    atoms, kept = _spectrum(f, p, m)
    mags = np.abs((kept or _rfft(f, p, m, atoms))[0])
    mags[::p] = 0.0  # a = 0 and the other non-units
    return float(mags.max()) / _total(f, p, m)


@enumeration.scoped
def exp_sum_pruned(f: Polynomial, chi: AdditiveCharacter) -> ExpSumValue:
    """E from the critical-atom distribution W of f at (p, m), exact 0 when no
    critical residue exists: read off W's spectrum while the store keeps one
    (_spectrum), else one phase pass over the atoms."""
    value, err, fibers = _pruned(f, chi.p, chi.m, chi.unit)
    return ExpSumValue(value, abs(value), err, fiber_count=fibers)


def crt_units(N: int, a: int) -> list[tuple[int, int, int]]:
    """Per-prime-power characters (p, m, unit) for x -> e^(2 pi i a x / N).

    With q_i = p_i^{m_i} and u_i = (N/q_i)^(-1) mod q_i one has
    a x / N = sum_i (a u_i x) / q_i  (mod 1), so the factor at q_i uses
    the unit a * u_i mod q_i.
    """
    return [(p, m, (a * u) % q) for p, m, q, u in _crt_factors(N)]


@enumeration.scoped
def exp_sum_composite(f: Polynomial, N: int, a: int = 1) -> ExpSumValue:
    """E over (Z/N)^n as the product of its prime-power factors."""
    if (one := _sum_mod_one(N, a)) is not None:
        return one
    value = 1 + 0j
    err = 0.0
    for p, m, unit in crt_units(N, a):
        part, part_err, _ = _pruned(f, p, m, unit)
        err = err * abs(part) + abs(value) * part_err + err * part_err + _EPS
        value *= part
    return ExpSumValue(value, abs(value), err)
