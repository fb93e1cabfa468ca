"""Canonical multivariate polynomials over the exact Scalar coefficients.

Variables are matrix slots X_{i,nu}, Y_{j,nu}, their conjugates, and a
reserved Z kind for the one-column coordinates of the scalar oscillator
models.  The global variable order is (kind, col, row) lexicographic with
kinds ranked X < Y < Xbar < Ybar < Z; it is fixed once per process so that
canonical forms and downstream wedge signs are reproducible bit for bit.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterable, NamedTuple

from .scalars import _ONE, Scalar, _mac, _reduce, _rows

KINDS = ("X", "Y", "Xbar", "Ybar", "Z")
_KIND_RANK = {k: i for i, k in enumerate(KINDS)}
_CONJ_KIND = {"X": "Xbar", "Xbar": "X", "Y": "Ybar", "Ybar": "Y", "Z": "Z"}


class _SortKeys(dict):
    """VariableId -> (kind rank, col, row), filled in on first lookup, so the
    hot loops index it directly instead of calling sort_key().  It stays a
    dict rather than a functools.cache function: monomial_mul's merge loop
    would pay a call per lookup."""

    def __missing__(self, v):
        key = self[v] = (_KIND_RANK[v.kind], v.col, v.row)
        return key


_SORT_KEYS = _SortKeys()


class VariableId(NamedTuple):
    kind: str
    row: int
    col: int

    def sort_key(self):
        return _SORT_KEYS[self]

    def conjugate(self) -> "VariableId":
        return VariableId(_CONJ_KIND[self.kind], self.row, self.col)

    def token(self) -> str:
        return f"{self.kind}:{self.row}:{self.col}"

    @classmethod
    def from_token(cls, tok: str) -> "VariableId":
        kind, row, col = tok.split(":")
        if kind not in KINDS:
            raise ValueError(f"unknown variable kind {kind!r}")
        return cls(kind, parse_index(row), parse_index(col))


def parse_index(text: str, least: int = 1) -> int:
    """A row, column or model split inside a token: ASCII digits without
    sign, spaces, underscores or leading zeros (0|[1-9][0-9]*), at least
    `least` (1 for rows and columns, 0 for a split)."""
    # re caches the compiled pattern on first use, not at import
    if re.fullmatch(r"0|[1-9][0-9]*", text) is None or int(text) < least:
        raise ValueError(f"expected an index 0|[1-9][0-9]* of at least {least}, got {text!r}")
    return int(text)


def X(i: int, nu: int) -> VariableId:
    return VariableId("X", i, nu)


def Y(j: int, nu: int) -> VariableId:
    return VariableId("Y", j, nu)


def Xbar(i: int, nu: int) -> VariableId:
    return VariableId("Xbar", i, nu)


def Ybar(j: int, nu: int) -> VariableId:
    return VariableId("Ybar", j, nu)


def Zvar(j: int) -> VariableId:
    return VariableId("Z", j, 1)


# A monomial is a tuple of (VariableId, exponent>0) pairs sorted by the
# global variable order.  The empty tuple is the constant monomial.
Monomial = tuple


def monomial(pairs: Iterable[tuple[VariableId, int]]) -> Monomial:
    acc: dict[VariableId, int] = {}
    for v, e in pairs:
        acc[v] = acc.get(v, 0) + e
    items = [(v, e) for v, e in acc.items() if e != 0]
    if any(e < 0 for _, e in items):
        raise ValueError("negative exponent in monomial")
    return tuple(sorted(items, key=lambda p: _SORT_KEYS[p[0]]))


def monomial_mul(m1: Monomial, m2: Monomial) -> Monomial:
    """Product of two canonical monomials: one merge of the sorted tuples."""
    out, i, j, keys = [], 0, 0, _SORT_KEYS
    while i < len(m1) and j < len(m2):
        (v1, e1), (v2, e2) = m1[i], m2[j]
        if v1 == v2:
            out.append((v1, e1 + e2))
            i, j = i + 1, j + 1
        elif keys[v1] < keys[v2]:
            out.append(m1[i])
            i += 1
        else:
            out.append(m2[j])
            j += 1
    return tuple(out) + m1[i:] + m2[j:]


def monomial_degree(m: Monomial) -> int:
    return sum(e for _, e in m)


class TermMap:
    """A finite linear combination {key: nonzero coefficient}: the one linear
    structure behind Polynomial (Scalar coefficients), Form and LinOp
    (Polynomial coefficients).  A value: nothing writes to .terms after
    construction.  Equality is type-strict, so a Form never equals a LinOp
    or a Polynomial with the same terms."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {k: c for k, c in (terms or {}).items() if not c.is_zero()}

    @classmethod
    def zero(cls):
        return cls()

    def __add__(self, other):
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out[k] + c if k in out else c
        return type(self)(out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return type(self)({k: -c for k, c in self.terms.items()})

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def is_zero(self) -> bool:
        return not self.terms


class Polynomial(TermMap):
    """Immutable canonical polynomial: {Monomial: nonzero Scalar}."""

    __slots__ = ()

    def __init__(self, terms=None):
        clean = {}
        for m, c in (terms or {}).items():
            if not isinstance(c, Scalar):
                c = Scalar.of(c)
            if not c.is_zero():
                clean[m] = c
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def one(cls) -> "Polynomial":
        return cls({(): Scalar.one()})

    @classmethod
    def constant(cls, c) -> "Polynomial":
        return cls({(): c})

    @classmethod
    def variable(cls, v: VariableId) -> "Polynomial":
        return cls({monomial([(v, 1)]): Scalar.one()})

    # -- ring operations ---------------------------------------------------

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction, Scalar)):
            return self.scale(other)
        acc: dict = {}
        _mac_prod(acc, None, self, other)
        return _polys(acc)[None]

    __rmul__ = __mul__

    def scale(self, c) -> "Polynomial":
        if not isinstance(c, Scalar):
            c = Scalar.of(c)
        return Polynomial({m: c0 * c for m, c0 in self.terms.items()})

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        out = Polynomial.one()
        for _ in range(n):
            out = out * self
        return out

    # -- queries -----------------------------------------------------------

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max((monomial_degree(m) for m in self.terms), default=-1)

    def variables(self) -> set[VariableId]:
        return {v for m in self.terms for v, _ in m}

    def constant_term(self) -> Scalar:
        return self.terms.get((), Scalar.zero())

    def coefficient(self, m: Monomial) -> Scalar:
        return self.terms.get(m, Scalar.zero())

    def sorted_terms(self) -> list[tuple[Monomial, Scalar]]:
        keys = _SORT_KEYS
        return sorted(self.terms.items(), key=lambda t: tuple((keys[v], e) for v, e in t[0]))

    # -- calculus and substitution ------------------------------------------

    def partial(self, v: VariableId) -> "Polynomial":
        out: dict[Monomial, Scalar] = {}
        for m, c in self.terms.items():
            for idx, (var, e) in enumerate(m):
                if var == v:
                    # distinct monomials stay distinct after dividing by v
                    out[m[:idx] + (((var, e - 1),) if e > 1 else ()) + m[idx + 1:]] = c * e
                    break
        return Polynomial(out)

    def map_variables(self, fn) -> "Polynomial":
        """Apply an injective relabeling VariableId -> VariableId."""
        out: dict[Monomial, Scalar] = {}
        for m, c in self.terms.items():
            mm = monomial([(fn(v), e) for v, e in m])
            out[mm] = out.get(mm, Scalar.zero()) + c
        return Polynomial(out)

    def conjugate(self) -> "Polynomial":
        """Complex conjugation: swap X<->Xbar, Y<->Ybar, conjugate Scalars."""
        swapped = self.map_variables(VariableId.conjugate)
        return Polynomial({m: c.conjugate() for m, c in swapped.terms.items()})

    def __repr__(self):
        if not self.terms:
            return "Poly(0)"
        bits = []
        for m, c in self.sorted_terms():
            mono = "*".join(f"{v.kind}{v.row}{v.col}^{e}" if e > 1 else f"{v.kind}{v.row}{v.col}"
                            for v, e in m) or "1"
            bits.append(f"({c!r})*{mono}")
        return "Poly(" + " + ".join(bits) + ")"


def _poly(terms: dict) -> Polynomial:
    """Wrap a {Monomial: nonzero Scalar} map as a Polynomial, unchecked."""
    p = object.__new__(Polynomial)
    p.terms = terms
    return p


# -- sums of products ---------------------------------------------------------
# Every sum of products in the symbolic layer (wedge, compose, Polynomial
# products, the lambda-sums, determinants) accumulates into
# {key: {(monomial, pi_exp): (re, im, den)}}: unreduced integer triples
# (scalars._mac) with each sign or combinatorial factor as the int n, one
# monomial_mul per product, and one reduction per entry at the end.

def _mac_poly(acc: dict, key, p: Polynomial, c: Scalar = _ONE, n: int = 1) -> None:
    """acc[key] += n * c * p."""
    _mac(acc.setdefault(key, {}), c, _rows(p.terms.items()), n)


def _mac_prod(acc: dict, key, p1: Polynomial, p2: Polynomial, n: int = 1) -> None:
    """acc[key] += n * p1 * p2."""
    inner = acc.setdefault(key, {})
    for m1, c1 in p1.terms.items():
        _mac(inner, c1, _rows((monomial_mul(m1, m2), c2) for m2, c2 in p2.terms.items()), n)


def _polys(acc: dict) -> dict:
    """{key: Polynomial} of an accumulator; a key whose sum cancelled maps to
    the zero polynomial."""
    return {key: _poly(_reduce(inner)) for key, inner in acc.items()}
