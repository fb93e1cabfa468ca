"""Exterior algebra on the tangent generators xi_{i,j}, xibar_{i,j}.

Wedge monomials are strictly increasing tuples of generators under the
fixed order: every xi before every xibar, then (col, row) lexicographic.
A WedgeGen is laid out in exactly that order, so plain comparison of two
generators is the order.  A Form maps wedge monomials to nonzero Polynomial
coefficients.  Signs come from counting transpositions against this order,
never from conventions chosen per call site.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterable

from .poly import Polynomial, TermMap, _Label, _label, _mac_poly, _mac_prod, _polys


class WedgeGen(_Label):
    """A tangent generator: plain tuple comparison is the generator order,
    every xi before every xibar."""
    __slots__ = ()
    _KINDS = ("xi", "xibar")
    _CONJ = (1, 0)
    _TEX = ("\\xi", "\\overline{\\xi}")
    _NOUN = "wedge generator"


def xi(i: int, j: int) -> WedgeGen:
    return _label(WedgeGen, 0, j, i)


def xibar(i: int, j: int) -> WedgeGen:
    return _label(WedgeGen, 1, j, i)


WedgeMonomial = tuple  # strictly increasing tuple of WedgeGen


def wedge_monomial(gens: Iterable[WedgeGen]):
    """Sort generators into canonical order.

    Returns (sign, monomial) or (0, ()) when a generator repeats.  One sort
    of the positions by the generators, which compare in field order, so a
    long imported wedge costs O(n log n): repeats are equal neighbours, and
    the sign is the parity of the sorting permutation, (-1)^(n - number of
    cycles).
    """
    gens = list(gens)
    order = sorted(range(len(gens)), key=gens.__getitem__)
    out = tuple(gens[i] for i in order)
    for a, b in zip(out, out[1:]):
        if a == b:
            return 0, ()
    sign, seen = 1, [False] * len(order)
    for start in range(len(order)):
        i = order[start]
        while not seen[i]:
            seen[i] = True
            if i != start:
                sign = -sign
            i = order[i]
    return sign, out


def perm_sign(perm) -> int:
    """Sign of a permutation given as a sequence, by counting inversions."""
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


def merge_monomials(w1: WedgeMonomial, w2: WedgeMonomial):
    """Merge two canonical monomials; (sign, merged) or (0, ()) on repeats.
    Each a of w1 is bisected into w2: a repeat if found, else the parity of
    the positions' sum is the sign.  merged is one sort of the concatenation."""
    moves = j = 0
    for a in w1:
        j = bisect_left(w2, a, j)
        if j < len(w2) and w2[j] == a:
            return 0, ()
        moves += j
    return -1 if moves % 2 else 1, tuple(sorted(w1 + w2))


def bidegree(w: WedgeMonomial) -> tuple[int, int]:
    b = sum(g.rank for g in w)  # xibar has rank 1
    return (len(w) - b, b)


class Form(TermMap):
    """Exterior-algebra element: {wedge monomial: nonzero Polynomial}."""

    __slots__ = ()

    @classmethod
    def unit(cls) -> "Form":
        return cls({(): Polynomial.one()})

    # -- exterior product ----------------------------------------------------

    def wedge(self, other: "Form") -> "Form":
        acc: dict = {}
        for w1, p1 in self.terms.items():
            for w2, p2 in other.terms.items():
                sign, w = merge_monomials(w1, w2)
                if sign:
                    _mac_prod(acc, w, p1, p2, sign)
        return Form(_polys(acc))

    # -- queries -------------------------------------------------------------

    def coefficient(self, gens) -> Polynomial:
        """Coefficient at a wedge monomial, given in any generator order."""
        sign, ww = wedge_monomial(gens)
        if sign == 0:
            return Polynomial.zero()
        p = self.terms.get(ww, Polynomial.zero())
        return -p if sign < 0 else p

    def bidegree_support(self) -> set[tuple[int, int]]:
        return {bidegree(w) for w in self.terms}

    def bidegree_part(self, a: int, b: int) -> "Form":
        return Form({w: p for w, p in self.terms.items() if bidegree(w) == (a, b)})

    # -- coefficient-wise transforms ------------------------------------------

    def map_coefficients(self, fn) -> "Form":
        return Form({w: fn(p) for w, p in self.terms.items()})

    def gen_derivation(self, rule) -> "Form":
        """Extend a linear action on generators as a derivation of the wedge.

        rule(g) returns an iterable of (Scalar, WedgeGen) pairs.  Generator t
        of a canonical monomial w is taken out once; each image g2 goes to
        its place pos in the rest, found by bisection.  An image already in
        the rest gives 0; otherwise moving g2 from slot t to slot pos takes
        |pos - t| transpositions, so the sign is (-1)^(pos - t).
        """
        acc: dict = {}
        for w, p in self.terms.items():
            for t, g in enumerate(w):
                rest = w[:t] + w[t + 1:]
                for c, g2 in rule(g):
                    pos = bisect_left(rest, g2)
                    if pos < len(rest) and rest[pos] == g2:
                        continue
                    _mac_poly(acc, rest[:pos] + (g2,) + rest[pos:], p, c,
                              -1 if (pos - t) % 2 else 1)
        return Form(_polys(acc))

    def conjugate(self) -> "Form":
        """Swap xi<->xibar and conjugate coefficients; signs recomputed."""
        out = {}
        for w, p in self.terms.items():
            # conjugation permutes the wedge monomials, so no two terms meet
            sign, ww = wedge_monomial([g.conjugate() for g in w])
            q = p.conjugate()
            out[ww] = q if sign > 0 else -q
        return Form(out)

    def __repr__(self):
        if not self.terms:
            return "Form(0)"
        bits = []
        for w, p in self.sorted_terms():
            ws = "^".join(g.name() for g in w) or "1"
            bits.append(f"({p!r}) {ws}")
        return "Form(" + " + ".join(bits) + ")"


def wedge_all(forms: Iterable[Form]) -> Form:
    out = Form.unit()
    for f in forms:
        out = out.wedge(f)
    return out
