"""Canonical multivariate polynomials over the exact Scalar coefficients.

Variables are matrix slots X_{i,nu}, Y_{j,nu}, their conjugates, and a
reserved Z kind for the one-column coordinates of the scalar oscillator
models.  The global variable order is (kind, col, row) lexicographic with
kinds ranked X < Y < Xbar < Ybar < Z; it is fixed once per process so that
canonical forms and downstream wedge signs are reproducible bit for bit.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, NamedTuple

from .scalars import Scalar

KINDS = ("X", "Y", "Xbar", "Ybar", "Z")
_KIND_RANK = {k: i for i, k in enumerate(KINDS)}
_CONJ_KIND = {"X": "Xbar", "Xbar": "X", "Y": "Ybar", "Ybar": "Y", "Z": "Z"}
_SORT_KEYS: dict = {}  # VariableId -> sort_key(), computed once per variable


class VariableId(NamedTuple):
    kind: str
    row: int
    col: int

    def sort_key(self):
        key = _SORT_KEYS.get(self)
        if key is None:
            key = _SORT_KEYS[self] = (_KIND_RANK[self.kind], self.col, self.row)
        return key

    def conjugate(self) -> "VariableId":
        return VariableId(_CONJ_KIND[self.kind], self.row, self.col)

    def token(self) -> str:
        return f"{self.kind}:{self.row}:{self.col}"

    @classmethod
    def from_token(cls, tok: str) -> "VariableId":
        kind, row, col = tok.split(":")
        if kind not in KINDS:
            raise ValueError(f"unknown variable kind {kind!r}")
        return cls(kind, int(row), int(col))


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
    return tuple(sorted(items, key=lambda p: p[0].sort_key()))


def monomial_mul(m1: Monomial, m2: Monomial) -> Monomial:
    """Product of two canonical monomials: one merge of the sorted tuples."""
    out, i, j = [], 0, 0
    while i < len(m1) and j < len(m2):
        (v1, e1), (v2, e2) = m1[i], m2[j]
        if v1 == v2:
            out.append((v1, e1 + e2))
            i, j = i + 1, j + 1
        elif v1.sort_key() < v2.sort_key():
            out.append(m1[i])
            i += 1
        else:
            out.append(m2[j])
            j += 1
    return tuple(out) + m1[i:] + m2[j:]


def monomial_degree(m: Monomial) -> int:
    return sum(e for _, e in m)


class Polynomial:
    """Immutable canonical polynomial: {Monomial: nonzero Scalar}."""

    __slots__ = ("terms",)

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
    def zero(cls) -> "Polynomial":
        return cls()

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

    def __add__(self, other: "Polynomial") -> "Polynomial":
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out[m] + c if m in out else c
        return Polynomial(out)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __neg__(self) -> "Polynomial":
        return Polynomial({m: -c for m, c in self.terms.items()})

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction, Scalar)):
            return self.scale(other)
        out: dict[Monomial, Scalar] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m, c = monomial_mul(m1, m2), c1 * c2
                out[m] = out[m] + c if m in out else c
        return Polynomial(out)

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

    def __eq__(self, other) -> bool:
        return isinstance(other, Polynomial) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset((m, c) for m, c in self.terms.items()))

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

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
        return sorted(self.terms.items(), key=lambda t: tuple((v.sort_key(), e) for v, e in t[0]))

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


class _Sum:
    """In-place sum of keyed polynomials, {key: {Monomial: Scalar}}: n adds
    cost the terms added, not n copies of the total.  The key is a wedge
    (Form), a derivative index (LinOp) or None (one Polynomial).

    Each add multiplies and sums Scalar objects, one canonical value per
    step, which suits the cold paths (wedge, compose, JSON import).  The
    form-operator kernel (forms._form_op_sum) keeps its own accumulator of
    unreduced integer triples (scalars._mac, scalars._reduce): it
    flattens each operator image once and reuses those rows for every lead
    and wedge term, with the sign folded into the integers, which an add
    taking a Polynomial and a Scalar cannot do.  Switching this class to
    triples for every caller was measured slower on the construct
    workload than the kernel's own accumulator."""

    __slots__ = ("acc",)

    def __init__(self):
        self.acc: dict = {}

    def add(self, key, p: Polynomial, c: Scalar | None = None) -> None:
        """acc[key] += c * p (c = 1 when None), dropping cancelled terms."""
        inner = self.acc.setdefault(key, {})
        for m, a in p.terms.items():
            if c is not None:
                a = a * c
            b = inner.get(m)
            if b is not None:
                a = b + a
                if a.is_zero():
                    del inner[m]
                    continue
            inner[m] = a

    def add_all(self, terms: dict, c: Scalar | None = None) -> None:
        for key, p in terms.items():
            self.add(key, p, c)

    def polys(self) -> dict:
        return {k: Polynomial(inner) for k, inner in self.acc.items()}

    def total(self) -> Polynomial:
        return Polynomial(self.acc.get(None))
