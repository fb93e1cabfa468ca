"""Canonical multivariate polynomials over the exact Scalar coefficients.

Variables are matrix slots X_{i,nu}, Y_{j,nu}, their conjugates, and a
reserved Z kind for the one-column coordinates of the scalar oscillator
models.  The global variable order is (kind, col, row) lexicographic with
kinds ranked X < Y < Xbar < Ybar < Z.  A VariableId is laid out in exactly
that order, so comparing two of them is comparing their fields: every sort
and merge uses plain comparison, and canonical forms and downstream wedge
signs are reproducible bit for bit.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from fractions import Fraction
from operator import itemgetter
from typing import Iterable, NamedTuple

from .scalars import _ONE, Scalar, _mac, _reduce, _rows

KINDS = ("X", "Y", "Xbar", "Ybar", "Z")


class _Label(NamedTuple):
    """A matrix label laid out (rank, col, row), rank its kind's index in
    _KINDS: plain tuple comparison is the label order.  A subclass is a kind
    table (_KINDS, _CONJ conjugate ranks, _TEX LaTeX bases, _NOUN for token
    errors), and these methods are the only spelling of its labels."""
    rank: int
    col: int
    row: int

    @property
    def kind(self) -> str:
        return self._KINDS[self.rank]

    def conjugate(self):
        rank, col, row = self
        return type(self)(self._CONJ[rank], col, row)

    def token(self) -> str:
        """The kind:row:col spelling of the JSON schema."""
        return f"{self.kind}:{self.row}:{self.col}"

    @classmethod
    def from_token(cls, tok: str):
        kind, row, col = tok.split(":")
        if kind not in cls._KINDS:
            raise ValueError(f"unknown {cls._NOUN} kind {kind!r}")
        return cls(cls._KINDS.index(kind), parse_index(col), parse_index(row))

    def name(self) -> str:
        """The spelling the reprs print, such as X12 for X(1, 2)."""
        return f"{self.kind}{self.row}{self.col}"

    def latex(self) -> str:
        """The symbol the LaTeX writer prints, such as \\overline{X}_{1,2}."""
        return f"{self._TEX[self.rank]}_{{{self.row},{self.col}}}"


class VariableId(_Label):
    """A variable: plain tuple comparison is the global variable order.
    X <-> Xbar and Y <-> Ybar conjugate; Z is real."""
    __slots__ = ()
    _KINDS = KINDS
    _CONJ = (2, 3, 0, 1, 4)
    _TEX = ("X", "Y", "\\overline{X}", "\\overline{Y}", "x")
    _NOUN = "variable"


def parse_index(text: str, least: int = 1) -> int:
    """A row, column or model split inside a token: ASCII digits without
    sign, spaces, underscores or leading zeros (0|[1-9][0-9]*), at least
    `least` (1 for rows and columns, 0 for a split)."""
    # re caches the compiled pattern on first use, not at import
    if re.fullmatch(r"0|[1-9][0-9]*", text) is None or int(text) < least:
        raise ValueError(f"expected an index 0|[1-9][0-9]* of at least {least}, got {text!r}")
    return int(text)


def _label(cls, rank: int, col: int, row: int):
    """A label of cls from int indices.  A float or bool index would spell a
    token (X:1:2.0) that import refuses, and key a cache entry that the equal
    int request then hits."""
    if not type(col) is type(row) is int:
        raise TypeError(f"label indices must be ints, got row {row!r}, column {col!r}")
    return cls(rank, col, row)


def X(i: int, nu: int) -> VariableId:
    return _label(VariableId, 0, nu, i)


def Y(j: int, nu: int) -> VariableId:
    return _label(VariableId, 1, nu, j)


def Xbar(i: int, nu: int) -> VariableId:
    return _label(VariableId, 2, nu, i)


def Ybar(j: int, nu: int) -> VariableId:
    return _label(VariableId, 3, nu, j)


def Zvar(j: int) -> VariableId:
    return _label(VariableId, 4, 1, j)


# A monomial is a tuple of (VariableId, exponent>0) pairs sorted by the
# global variable order.  The empty tuple is the constant monomial.
Monomial = tuple
_variable = itemgetter(0)   # a monomial pair's variable


def monomial(pairs: Iterable[tuple[VariableId, int]]) -> Monomial:
    """The canonical monomial of (variable, exponent) pairs.  Only a
    VariableId is a variable: a WedgeGen compares and hashes like the
    VariableId with the same fields (xi(1, 1) == X(1, 1)), so it would pass
    for one."""
    acc: dict[VariableId, int] = {}
    for v, e in pairs:
        if type(v) is not VariableId:
            raise TypeError(f"a monomial's variables are VariableIds, got {v!r}")
        acc[v] = acc.get(v, 0) + e
    items = [(v, e) for v, e in acc.items() if e != 0]
    if any(e < 0 for _, e in items):
        raise ValueError("negative exponent in monomial")
    return tuple(sorted(items))


def monomial_mul(m1: Monomial, m2: Monomial) -> Monomial:
    """Product of canonical monomials: each pair of the shorter is placed by
    bisect_left on its variable in a copy of the longer; a match adds exponents."""
    if len(m1) < len(m2):
        m1, m2 = m2, m1
    if not m2:
        return m1
    out, i = list(m1), 0
    for pair in m2:   # reused, not rebuilt: cached forms hold these pairs
        v = pair[0]
        i = bisect_left(out, v, i, key=_variable)
        if i < len(out) and out[i][0] == v:
            out[i] = (v, out[i][1] + pair[1])
        else:
            out.insert(i, pair)
    return tuple(out)


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

    def sorted_terms(self) -> list:
        """(key, coefficient) pairs by key: monomials and wedges compare as
        plain tuples, and distinct keys leave no coefficient to compare."""
        return sorted(self.terms.items())

    def scale(self, c):
        """Every coefficient times c: a Scalar (an int or Fraction is taken
        as one) or, for Form and LinOp coefficients, a Polynomial."""
        if isinstance(c, (int, Fraction)):
            c = Scalar.of(c)
        return type(self)({k: v * c for k, v in self.terms.items()})


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
        if isinstance(other, Polynomial):
            acc: dict = {}
            _mac_prod(acc, None, self, other)
            return _polys(acc)[None]
        if isinstance(other, (int, Fraction, Scalar)):
            return self.scale(other)
        return NotImplemented

    __rmul__ = __mul__

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

    def constant_term(self) -> Scalar:
        return self.terms.get((), Scalar.zero())

    def coefficient(self, m: Monomial) -> Scalar:
        return self.terms.get(m, Scalar.zero())

    # -- relabelling -------------------------------------------------------

    def map_variables(self, fn) -> "Polynomial":
        """Relabel each variable by fn (VariableId -> VariableId), keeping each
        coefficient object.  Keys are renamed, never summed: a relabeling
        under which two monomials meet raises ValueError."""
        out = {monomial([(fn(v), e) for v, e in m]): c for m, c in self.terms.items()}
        if len(out) < len(self.terms):
            raise ValueError("relabeling is not injective: two monomials meet")
        return _poly(out)

    def conjugate(self) -> "Polynomial":
        """Complex conjugation: swap X<->Xbar, Y<->Ybar, conjugate Scalars.
        Swapping kinds permutes the monomials, so no two meet."""
        return _poly({monomial([(v.conjugate(), e) for v, e in m]): c.conjugate()
                      for m, c in self.terms.items()})

    def __repr__(self):
        if not self.terms:
            return "Poly(0)"
        bits = []
        for m, c in self.sorted_terms():
            mono = "*".join(f"{v.name()}^{e}" if e > 1 else v.name() for v, e in m) or "1"
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
