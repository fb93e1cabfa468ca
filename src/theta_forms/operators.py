"""Differential operators with polynomial multipliers (a Weyl algebra).

A LinOp is a finite sum of terms (multiplier, derivative multi-index) kept
in multiply-after-differentiate normal order: the term (m, D) sends a
polynomial f to m * (D f).  Composition re-normalizes with the Leibniz
rule, so equal operators have equal canonical forms and operator identities
are decided by structural equality.
"""

from __future__ import annotations

from math import comb, perm
from typing import Iterable

from .poly import (Monomial, Polynomial, TermMap, VariableId, _mac_poly, _poly,
                   _polys, monomial, monomial_mul)
from .scalars import _ONE, _mac, _reduce, _rows

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
    """All (beta, multinomial coefficient, D-beta) splittings of D, the
    beta = 0 splitting (), 1, D first."""
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


def _leibniz(acc: dict, A: "LinOp", B: "LinOp", sign: int, leading: bool) -> None:
    """acc += sign * (A after B), re-normalized by Leibniz:

    (m1 D1)(m2 D2) f = m1 * sum_{beta<=D1} C(D1,beta) (D^beta m2) * (D^{D1-beta} D2 f)

    Each product of a term of m1 with a term of D^beta m2 goes into the
    triple accumulator acc[D^{D1-beta} D2] with sign * C(D1,beta) times the
    falling factorial of D^beta as its int factor.  leading=False leaves out
    the beta = 0 terms m1 m2 D1 D2."""
    for D1, m1 in A.terms.items():
        splits = _sub_indices(D1)[0 if leading else 1:]
        for D2, m2 in B.terms.items():
            for beta, coef, rest in splits:
                inner = acc.setdefault(monomial_mul(rest, D2), {})
                for m, c in m2.terms.items():
                    r = _deriv_mono(beta, m)
                    if r is not None:
                        n, dm = r
                        _mac(inner, c, _rows((monomial_mul(mu, dm), cu)
                                             for mu, cu in m1.terms.items()), sign * coef * n)


class LinOp(TermMap):
    """Canonical linear operator: {DerivIndex: nonzero multiplier Polynomial}.

    An immutable value, so one operator may be cached and shared by any
    number of callers."""

    __slots__ = ()

    # -- constructors ------------------------------------------------------

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
        """sum over terms (D, m) of m * (D f), straight on the monomials.

        A one-term f = c * m (d's kernel passes each coefficient monomial
        with c = 1) takes one pass over the terms, with no accumulator: a
        term with D = () takes m as it is and any other term its derivative
        image (_deriv_mono), and each multiplier monomial merged with that
        image goes straight into the output.  Within one term distinct
        multiplier monomials give distinct products, so a product lands on
        a monomial already written only when two terms' images meet
        (X d/dX + 1 on X, say), and the output then counts fewer keys than
        products written.  Each multiplier coefficient is reused when
        n * c = 1 (n the term's falling factorial) and scaled once by n * c
        otherwise; neither factor is zero, so neither is the product.  Any
        other f, and a one-term f whose images meet, is summed (_summed)."""
        if len(f.terms) != 1:
            return self._summed(f)
        (m, c), = f.terms.items()
        out: dict = {}
        written = 0
        for D, mult in self.terms.items():
            if D:
                r = _deriv_mono(D, m)
                if r is None:
                    continue
                n, dm = r
                s = c * n if n != 1 else c
            else:
                dm, s = m, c
            if s is _ONE or s == _ONE:
                for m2, c2 in mult.terms.items():
                    out[monomial_mul(m2, dm)] = c2
            else:
                for m2, c2 in mult.terms.items():
                    out[monomial_mul(m2, dm)] = c2 * s
            written += len(mult.terms)
            if len(out) < written:   # two terms' images meet
                return self._summed(f)
        return _poly(out)

    def _summed(self, f: Polynomial) -> Polynomial:
        """apply through one unreduced triple accumulator (scalars._mac):
        every term's derivative image of every monomial of f merged with
        every multiplier monomial, the products reduced once at the end."""
        acc: dict = {}   # (monomial, pi_exp) -> (re, im, den)
        for D, mult in self.terms.items():
            for m, c in f.terms.items():
                r = _deriv_mono(D, m)
                if r is not None:
                    n, dm = r
                    _mac(acc, c, _rows((monomial_mul(m2, dm), c2) for m2, c2 in mult.terms.items()), n)
        return _poly(_reduce(acc))

    def compose(self, other: "LinOp") -> "LinOp":
        """self after other, re-normalized by Leibniz (_leibniz)."""
        acc: dict = {}
        _leibniz(acc, self, other, 1, True)
        return LinOp(_polys(acc))

    def commutator(self, other: "LinOp") -> "LinOp":
        """[self, other] = self.compose(other) - other.compose(self), term for
        term, computed without the beta = 0 Leibniz terms: those are
        m1 m2 D1 D2 in self after other and m2 m1 D2 D1 in other after self,
        the same products under the same derivative key, so they cancel
        exactly and only the terms that differentiate a multiplier remain."""
        acc: dict = {}
        _leibniz(acc, self, other, 1, False)
        _leibniz(acc, other, self, -1, False)
        return LinOp(_polys(acc))

    def __repr__(self):
        if not self.terms:
            return "LinOp(0)"
        bits = []
        for D, m in self.terms.items():
            ds = "".join(f"d/d{v.name()}" + (f"^{k}" if k > 1 else "")
                         for v, k in D) or "id"
            bits.append(f"[{m!r}]*{ds}")
        return "LinOp(" + " + ".join(bits) + ")"


def op_sum(ops: Iterable[LinOp]) -> LinOp:
    acc: dict = {}
    for op in ops:
        for D, p in op.terms.items():
            _mac_poly(acc, D, p)
    return LinOp(_polys(acc))
