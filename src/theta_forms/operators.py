"""Differential operators with polynomial multipliers (a Weyl algebra).

A LinOp is a finite sum of terms (multiplier, derivative multi-index) kept
in multiply-after-differentiate normal order: the term (m, D) sends a
polynomial f to m * (D f).  Composition re-normalizes with the Leibniz
rule, so equal operators have equal canonical forms and operator identities
are decided by structural equality.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, perm
from typing import Iterable

from .poly import (Monomial, Polynomial, VariableId, _mac_poly, _poly, _polys,
                   monomial, monomial_mul)
from .scalars import Scalar, _mac, _reduce, _rows

# A derivative multi-index reuses the Monomial encoding: sorted
# ((VariableId, order>0), ...).
DerivIndex = Monomial


def _deriv_mono(D: DerivIndex, m: Monomial):
    """D applied to the monomial m: (falling-factorial int coefficient,
    reduced monomial), or None when an order exceeds its exponent (or the
    variable is absent) and the image is zero."""
    if not D:
        return 1, m
    coef, out = 1, list(m)
    for v, k in D:
        for idx, (w, e) in enumerate(out):
            if w == v:
                break
        else:
            return None
        if e < k:
            return None
        coef *= perm(e, k)
        if e == k:
            del out[idx]
        else:
            out[idx] = (v, e - k)
    return coef, tuple(out)


def _sub_indices(D: DerivIndex):
    """All (beta, multinomial coefficient, D-beta) splittings of D."""
    splits = [((), 1, ())]
    for v, k in D:
        new = []
        for beta, coef, rest in splits:
            for b in range(k + 1):
                part_b = beta + (((v, b),) if b else ())
                part_r = rest + (((v, k - b),) if k - b else ())
                new.append((part_b, coef * comb(k, b), part_r))
        splits = new
    return splits


class LinOp:
    """Canonical linear operator: {DerivIndex: multiplier Polynomial}.

    An immutable value: nothing writes to .terms after construction, so one
    operator may be cached and shared by any number of callers."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for D, p in terms.items():
                if not p.is_zero():
                    clean[D] = p
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "LinOp":
        return cls()

    @classmethod
    def identity(cls) -> "LinOp":
        return cls({(): Polynomial.one()})

    @classmethod
    def mul_by(cls, p: Polynomial) -> "LinOp":
        return cls({(): p})

    @classmethod
    def partial(cls, v: VariableId, order: int = 1) -> "LinOp":
        return cls({monomial([(v, order)]): Polynomial.one()})

    # -- action and algebra --------------------------------------------------

    def apply(self, f: Polynomial) -> Polynomial:
        """sum over terms (D, m) of m * (D f), straight on the monomials: each
        term's derivative image of each monomial of f (_deriv_mono) is merged
        with every multiplier monomial, and the products go into one
        unreduced triple accumulator (scalars._mac), reduced once at the end."""
        acc: dict = {}   # (monomial, pi_exp) -> (re, im, den)
        for D, mult in self.terms.items():
            for m, c in f.terms.items():
                r = _deriv_mono(D, m)
                if r is not None:
                    n, dm = r
                    _mac(acc, c, _rows((monomial_mul(m2, dm), c2)
                                       for m2, c2 in mult.terms.items()), n)
        return _poly(_reduce(acc))

    def __add__(self, other: "LinOp") -> "LinOp":
        out = dict(self.terms)
        for D, p in other.terms.items():
            out[D] = out.get(D, Polynomial.zero()) + p
        return LinOp(out)

    def __sub__(self, other: "LinOp") -> "LinOp":
        return self + (-other)

    def __neg__(self) -> "LinOp":
        return LinOp({D: -p for D, p in self.terms.items()})

    def __mul__(self, other) -> "LinOp":
        if isinstance(other, (int, Fraction, Scalar)):
            return self.scale(other)
        return self.compose(other)

    def __rmul__(self, other) -> "LinOp":
        if isinstance(other, (int, Fraction, Scalar)):
            return self.scale(other)
        return NotImplemented

    def scale(self, c) -> "LinOp":
        if not isinstance(c, Scalar):
            c = Scalar.of(c)
        return LinOp({D: p.scale(c) for D, p in self.terms.items()})

    def compose(self, other: "LinOp") -> "LinOp":
        """self after other, re-normalized by Leibniz.

        (m1 D1)(m2 D2) f = m1 * sum_{beta<=D1} C(D1,beta) (D^beta m2) * (D^{D1-beta} D2 f)

        Each product of a term of m1 with a term of D^beta m2 goes into the
        triple accumulator with C(D1,beta) times the falling factorial of
        D^beta as its int factor."""
        acc: dict = {}
        for D1, m1 in self.terms.items():
            for D2, m2 in other.terms.items():
                for beta, coef, rest in _sub_indices(D1):
                    inner = acc.setdefault(monomial_mul(rest, D2), {})
                    for m, c in m2.terms.items():
                        r = _deriv_mono(beta, m)
                        if r is not None:
                            n, dm = r
                            _mac(inner, c, _rows((monomial_mul(mu, dm), cu)
                                                 for mu, cu in m1.terms.items()), coef * n)
        return LinOp(_polys(acc))

    def commutator(self, other: "LinOp") -> "LinOp":
        return self.compose(other) - other.compose(self)

    def __eq__(self, other) -> bool:
        return isinstance(other, LinOp) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def is_zero(self) -> bool:
        return not self.terms

    def __repr__(self):
        if not self.terms:
            return "LinOp(0)"
        bits = []
        for D, m in self.terms.items():
            ds = "".join(f"d/d{v.kind}{v.row}{v.col}" + (f"^{k}" if k > 1 else "")
                         for v, k in D) or "id"
            bits.append(f"[{m!r}]*{ds}")
        return "LinOp(" + " + ".join(bits) + ")"


def op_sum(ops: Iterable[LinOp]) -> LinOp:
    acc: dict = {}
    for op in ops:
        for D, p in op.terms.items():
            _mac_poly(acc, D, p)
    return LinOp(_polys(acc))
