"""Sparse multivariate polynomials over the integers, with a text DSL.

A polynomial in n variables is a dict from exponent tuples (length n, one
non-negative int per variable) to nonzero arbitrary-precision integer
coefficients.  The zero polynomial has an empty term dict and degree None
(a sentinel; callers must branch rather than compare).

Text syntax (whitespace insignificant)::

    expr   := ["+"|"-"] term (("+"|"-") term)*
    term   := factor ("*"? factor)*
    factor := base ("^" uint)?
    base   := int | var | "(" expr ")"
    var    := "x" uint          (1-based: x1, x2, ..., x64 at most)

The "*" between juxtaposed factors may be omitted ("3x1" == "3*x1").
Unicode identifiers, floating-point coefficients, and products or literals
past MAX_TERM_PAIRS or MAX_COEFFICIENT_BITS are rejected.
Canonical rendering writes terms in descending graded-lexicographic order
with explicit "*" and "^" throughout, e.g. "1*x1^2 + 3*x2^1"; rendering
then parsing is the identity.
"""

from __future__ import annotations

import itertools
import math
import operator
import re
import string
from dataclasses import dataclass
from typing import Mapping, Sequence

from .errors import PolyParseError

MAX_EXPONENT = 2**31
# Bounds on parsed products and literals (_product): parsing stays short, and
# coefficients stay far below the 14,284 bits of Python's 4,300 str digits.
MAX_TERM_PAIRS = 2**19
MAX_COEFFICIENT_BITS = 2**13
# Past 64 variables every grid (p >= 2) holds at least 2^64 points.
MAX_VARIABLES = 64

Exponent = tuple[int, ...]


def _grlex_key(e: Exponent) -> tuple[int, Exponent]:
    return (sum(e), e)


class Polynomial:
    """Immutable sparse polynomial in ``n`` named variables x1..xn.

    Term dicts are canonical: no zero coefficients, keys iterated in descending
    graded-lex order; do not mutate ``terms``.  Equality and hashing are by
    value, which keys charsums' store of per-(f, p) results; the hash is
    computed on first use and cached.
    """

    __slots__ = ("n", "terms", "_hash")

    def __init__(self, n: int, terms: Mapping[Exponent, int] | None = None):
        if n < 1:
            raise ValueError(f"variable count must be positive, got {n}")
        clean: dict[Exponent, int] = {}
        if terms:
            for exps, coeff in terms.items():
                exps = tuple(int(e) for e in exps)
                if len(exps) != n:
                    raise ValueError(f"exponent tuple {exps} has length {len(exps)}, expected {n}")
                if any(e < 0 for e in exps):
                    raise ValueError(f"negative exponent in {exps}")
                coeff = int(coeff)
                if coeff:
                    clean[exps] = coeff
        ordered = dict(sorted(clean.items(), key=lambda kv: _grlex_key(kv[0]), reverse=True))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "terms", ordered)
        object.__setattr__(self, "_hash", None)  # set on first use

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    def __reduce__(self):
        # copy and pickle rebuild from the terms, past the immutable __setattr__
        return Polynomial, (self.n, self.terms)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, n: int) -> "Polynomial":
        return cls(n, {})

    @classmethod
    def constant(cls, n: int, c: int) -> "Polynomial":
        return cls(n, {(0,) * n: int(c)})

    @classmethod
    def variable(cls, n: int, index: int) -> "Polynomial":
        """The polynomial x_{index+1} (``index`` is 0-based)."""
        if not 0 <= index < n:
            raise ValueError(f"variable index {index} out of range for n={n}")
        e = [0] * n
        e[index] = 1
        return cls(n, {tuple(e): 1})

    # -- structure ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int | None:
        """Total degree; None for the zero polynomial (callers must branch)."""
        if not self.terms:
            return None
        return max(sum(e) for e in self.terms)

    def is_homogeneous(self) -> bool:
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    def constant_term(self) -> int:
        return self.terms.get((0,) * self.n, 0)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Polynomial)
            and self.n == other.n
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        if self._hash is None:
            object.__setattr__(self, "_hash", hash((self.n, frozenset(self.terms.items()))))
        return self._hash

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other) -> "Polynomial":
        if isinstance(other, Polynomial):
            if other.n != self.n:
                raise ValueError(f"variable count mismatch: {self.n} vs {other.n}")
            return other
        if isinstance(other, int):
            return Polynomial.constant(self.n, other)
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other) -> "Polynomial":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) + c
        return Polynomial(self.n, out)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.n, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "Polynomial":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "Polynomial":
        return (-self) + other

    def __mul__(self, other) -> "Polynomial":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out: dict[Exponent, int] = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                e = tuple(map(operator.add, ea, eb))
                out[e] = out.get(e, 0) + ca * cb
        return Polynomial(self.n, out)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Polynomial":
        if k < 0:
            raise ValueError("negative power")
        return _power(self, k, operator.mul)

    def partial(self, j: int) -> "Polynomial":
        """Partial derivative with respect to variable j (0-based)."""
        if not 0 <= j < self.n:
            raise ValueError(f"variable index {j} out of range")
        out: dict[Exponent, int] = {}
        for e, c in self.terms.items():
            if e[j] == 0:
                continue
            ne = list(e)
            ne[j] -= 1
            out[tuple(ne)] = out.get(tuple(ne), 0) + c * e[j]
        return Polynomial(self.n, out)

    def gradient(self) -> tuple["Polynomial", ...]:
        return tuple(self.partial(j) for j in range(self.n))

    def homogeneous_part(self, k: int) -> "Polynomial":
        """Sum of the terms of total degree exactly k."""
        if k < 0:
            raise ValueError("degree must be non-negative")
        return Polynomial(self.n, {e: c for e, c in self.terms.items() if sum(e) == k})

    def scale_coefficients(self, c: int) -> "Polynomial":
        return Polynomial(self.n, {e: c * v for e, v in self.terms.items()})

    def divide_coefficients(self, d: int) -> "Polynomial":
        """Exact coefficient division; raises when d does not divide a term."""
        out = {}
        for e, c in self.terms.items():
            q, r = divmod(c, d)
            if r:
                raise ValueError(f"coefficient {c} not divisible by {d}")
            out[e] = q
        return Polynomial(self.n, out)

    # -- evaluation and substitution ----------------------------------------

    def eval_int(self, point: Sequence[int]) -> int:
        if len(point) != self.n:
            raise ValueError(f"point has length {len(point)}, expected {self.n}")
        total = 0
        for e, c in self.terms.items():
            t = c
            for v, k in zip(point, e):
                if k:
                    t *= v**k
            total += t
        return total

    def eval_mod(self, point: Sequence[int], modulus: int) -> int:
        """f(point) mod modulus, exact (arbitrary-precision intermediates)."""
        if modulus < 1:
            raise ValueError(f"modulus must be >= 1, got {modulus}")
        if len(point) != self.n:
            raise ValueError(f"point has length {len(point)}, expected {self.n}")
        total = 0
        for e, c in self.terms.items():
            t = c % modulus
            for v, k in zip(point, e):
                if k:
                    t = t * pow(v % modulus, k, modulus) % modulus
            total += t
        return total % modulus

    def shift_scale(self, base: Sequence[int], scale: int) -> "Polynomial":
        """f(base + scale * y) as a polynomial in y (same variable count), by
        expanding (b + s y)^k = sum_i C(k, i) b^(k-i) s^i y^i into one dict."""
        if len(base) != self.n:
            raise ValueError(f"base point has length {len(base)}, expected {self.n}")
        out: dict[Exponent, int] = {}
        for e, c in self.terms.items():
            factors = [[(i, math.comb(k, i) * b ** (k - i) * scale**i) for i in range(k + 1)]
                       for k, b in zip(e, base)]
            for combo in itertools.product(*factors):
                key = tuple(i for i, _ in combo)
                out[key] = out.get(key, 0) + c * math.prod(x for _, x in combo)
        return Polynomial(self.n, out)

    def embed(self, new_n: int) -> "Polynomial":
        """Pad exponent tuples with zeros up to new_n variables."""
        if new_n < self.n:
            raise ValueError("cannot shrink variable count")
        pad = (0,) * (new_n - self.n)
        return Polynomial(new_n, {e + pad: c for e, c in self.terms.items()})

    # -- rendering -----------------------------------------------------------

    def render(self) -> str:
        """Canonical text form (descending graded-lex, explicit * and ^)."""
        if not self.terms:
            return "0"
        parts: list[str] = []
        for i, (e, c) in enumerate(self.terms.items()):
            mono = "*".join(f"x{j + 1}^{k}" for j, k in enumerate(e) if k)
            body = f"{abs(c)}*{mono}" if mono else str(abs(c))
            if i == 0:
                parts.append(f"-{body}" if c < 0 else body)
            else:
                parts.append(f" - {body}" if c < 0 else f" + {body}")
        return "".join(parts)

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"Polynomial({self.n}, {self.render()!r})"


def _power(base: Polynomial, k: int, mul) -> Polynomial:
    """base^k for k >= 0 by repeated squaring, every product by mul."""
    result = Polynomial.constant(base.n, 1)
    while k:
        if k & 1:
            result = mul(result, base)
        k >>= 1
        if k:
            base = mul(base, base)
    return result


# -- parser -----------------------------------------------------------------

_TOK_INT = "int"
_TOK_VAR = "var"
_TOK_OP = "op"
_TOK_END = "end"
_DIGITS = re.compile("[0-9]*")  # ASCII only, unlike str.isdigit


def _tokenize(text: str) -> list[tuple[str, object, int]]:
    """Tokens as (kind, value, 1-based offset).  Digits and spaces are ASCII
    only, so every character before an error is one byte."""
    toks: list[tuple[str, object, int]] = []
    i, size = 0, len(text)
    while i < size:
        ch = text[i]
        if ch in string.whitespace:
            i += 1
            continue
        pos = i + 1
        if ch in "+-*^()":
            toks.append((_TOK_OP, ch, pos))
            i += 1
        elif ch in string.digits:
            j = _DIGITS.match(text, i).end()
            digits = text[i:j].lstrip("0") or "0"  # over 3 bits a digit: int() gets short text
            if len(digits) > MAX_COEFFICIENT_BITS // 3 or int(digits).bit_length() > MAX_COEFFICIENT_BITS:
                raise PolyParseError(f"integer literal exceeds {MAX_COEFFICIENT_BITS} bits", pos)
            toks.append((_TOK_INT, int(digits), pos))
            i = j
        elif ch == "x":
            j = _DIGITS.match(text, i + 1).end()
            if j == i + 1:
                raise PolyParseError("expected digits after 'x'", pos)
            digits = text[i + 1 : j].lstrip("0")
            if not digits:
                raise PolyParseError("variable index 0 is not allowed (variables start at x1)", pos)
            if len(digits) > len(str(MAX_VARIABLES)) or int(digits) > MAX_VARIABLES:
                raise PolyParseError(f"variable index exceeds {MAX_VARIABLES}", pos)
            toks.append((_TOK_VAR, int(digits), pos))
            i = j
        else:
            raise PolyParseError(f"unexpected character {ch!r}", pos)
    toks.append((_TOK_END, None, size + 1))
    return toks


def _product(a: Polynomial, b: Polynomial, pos: int) -> Polynomial:
    """a * b, refused at ``pos`` past MAX_TERM_PAIRS term pairs or past
    MAX_COEFFICIENT_BITS bits in the factors' largest coefficients together."""
    pairs = len(a.terms) * len(b.terms)
    if pairs > MAX_TERM_PAIRS:
        raise PolyParseError(f"product of {pairs} term pairs exceeds {MAX_TERM_PAIRS}", pos)
    bits = sum(max((c.bit_length() for c in f.terms.values()), default=0) for f in (a, b))
    if bits > MAX_COEFFICIENT_BITS:
        raise PolyParseError(f"product of {bits}-bit coefficients exceeds {MAX_COEFFICIENT_BITS} bits", pos)
    return a * b


class _Parser:
    def __init__(self, toks: list[tuple[str, object, int]], n: int):
        self.toks = toks
        self.i = 0
        self.n = n

    def peek(self):
        return self.toks[self.i]

    def advance(self):
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def expr(self) -> Polynomial:
        sign = 1
        kind, val, _ = self.peek()
        if kind == _TOK_OP and val in "+-":
            self.advance()
            sign = -1 if val == "-" else 1
        acc = self.term().scale_coefficients(sign)
        while True:
            kind, val, _ = self.peek()
            if kind == _TOK_OP and val in "+-":
                self.advance()
                nxt = self.term()
                acc = acc - nxt if val == "-" else acc + nxt
            else:
                return acc

    def term(self) -> Polynomial:
        acc = self.factor()
        while True:
            kind, val, pos = self.peek()
            if kind == _TOK_OP and val == "*":
                self.advance()
            elif not (kind in (_TOK_INT, _TOK_VAR) or (kind == _TOK_OP and val == "(")):
                return acc
            acc = _product(acc, self.factor(), pos)

    def factor(self) -> Polynomial:
        base = self.base()
        kind, val, caret = self.peek()
        if kind == _TOK_OP and val == "^":
            self.advance()
            kind, val, pos = self.advance()
            if kind != _TOK_INT:
                raise PolyParseError("expected integer exponent after '^'", pos)
            if val > MAX_EXPONENT:
                raise PolyParseError(f"exponent {val} exceeds 2^31", pos)
            return _power(base, val, lambda a, b: _product(a, b, caret))
        return base

    def base(self) -> Polynomial:
        kind, val, pos = self.advance()
        if kind == _TOK_INT:
            return Polynomial.constant(self.n, val)
        if kind == _TOK_VAR:
            return Polynomial.variable(self.n, val - 1)
        if kind == _TOK_OP and val == "(":
            inner = self.expr()
            kind, val, pos = self.advance()
            if not (kind == _TOK_OP and val == ")"):
                raise PolyParseError("expected ')'", pos)
            return inner
        raise PolyParseError("expected a number, variable, or '('", pos)


def parse_polynomial(text: str, n_hint: int | None = None) -> Polynomial:
    """Parse the DSL into a canonical Polynomial.

    The ambient variable count is the largest variable index seen, or
    n_hint if that is larger; neither may exceed MAX_VARIABLES.  Raises
    PolyParseError with a 1-based byte offset on malformed input, a
    variable index above MAX_VARIABLES, or a product or literal past
    MAX_TERM_PAIRS or MAX_COEFFICIENT_BITS (at its operator or literal),
    and ValueError on an n_hint outside [1, MAX_VARIABLES].
    """
    if n_hint is not None and not 1 <= n_hint <= MAX_VARIABLES:
        raise ValueError(f"n_hint must lie in [1, {MAX_VARIABLES}], got {n_hint}")
    toks = _tokenize(text)
    max_idx = max((v for k, v, _ in toks if k == _TOK_VAR), default=0)  # type: ignore[type-var]
    n = max(int(max_idx), n_hint or 0, 1)
    parser = _Parser(toks, n)
    poly = parser.expr()
    kind, _, pos = parser.peek()
    if kind != _TOK_END:
        raise PolyParseError("unexpected trailing input", pos)
    return poly


# -- arc-coefficient expansion ------------------------------------------------

@dataclass(frozen=True)
class ArcExpansion:
    """Coefficients of f(P + sum_i x_i t^i) through order t^m.

    ``coefficients[i]`` is the coefficient of t^i, a polynomial in the m*n
    variables x_{ij} (1 <= i <= m arc level, 1 <= j <= n coordinate), with
    x_{ij} linearized as DSL variable x_{(i-1)*n + j}, i.e. 0-based position
    (i-1)*n + (j-1).  coefficients[0] is the constant f(P); coefficients[i]
    for i >= 1 is weighted homogeneous of degree i when x_{ij} carries
    weight i (or is zero).
    """

    base_point: tuple[int, ...]
    order: int
    coefficients: tuple[Polynomial, ...]
    n: int


def arc_expansion(f: Polynomial, base_point: Sequence[int], order: int) -> ArcExpansion:
    """Expand f(P_j + sum_{i=1..m} x_{ij} t^i) and truncate at t^order.

    Plain substitution in Polynomial's own ring: t is one more variable
    after the m*n arc variables, and after every product the powers of t
    beyond t^order are dropped.  All exact.
    """
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    if len(base_point) != f.n:
        raise ValueError(f"base point has length {len(base_point)}, expected {f.n}")
    n = f.n
    ambient = order * n
    t = Polynomial.variable(ambient + 1, ambient)
    # coordinate j becomes P_j + x_{1j} t + ... + x_{mj} t^m
    subs = [int(base_point[j]) + sum(Polynomial.variable(ambient + 1, (i - 1) * n + j) * t**i
                                     for i in range(1, order + 1)) for j in range(n)]
    acc = Polynomial.zero(ambient + 1)
    for e, c in f.terms.items():
        term = Polynomial.constant(ambient + 1, c)
        for j, k in enumerate(e):
            for _ in range(k):  # times coordinate j, less the powers of t beyond t^order
                term = Polynomial(ambient + 1, {
                    x: v for x, v in (term * subs[j]).terms.items() if x[-1] <= order})
        acc = acc + term
    coeffs = tuple(Polynomial(ambient, {e[:-1]: c for e, c in acc.terms.items() if e[-1] == i})
                   for i in range(order + 1))
    return ArcExpansion(tuple(int(v) for v in base_point), order, coeffs, n)
