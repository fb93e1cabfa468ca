"""Exterior algebra on the tangent generators xi_{i,j}, xibar_{i,j}.

Wedge monomials are strictly increasing tuples of generators under the
fixed order: every xi before every xibar, then (col, row) lexicographic.
A Form maps wedge monomials to nonzero Polynomial coefficients.  Signs come
from counting transpositions against this order, never from conventions
chosen per call site.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from .poly import Polynomial, TermMap, _mac_poly, _mac_prod, _polys, parse_index

_GEN_KIND_RANK = {"xi": 0, "xibar": 1}
_GEN_CONJ = {"xi": "xibar", "xibar": "xi"}


class WedgeGen(NamedTuple):
    kind: str   # "xi" | "xibar"
    row: int
    col: int

    def sort_key(self):
        return (_GEN_KIND_RANK[self.kind], self.col, self.row)

    def conjugate(self) -> "WedgeGen":
        return WedgeGen(_GEN_CONJ[self.kind], self.row, self.col)

    def token(self) -> str:
        return f"{self.kind}:{self.row}:{self.col}"

    @classmethod
    def from_token(cls, tok: str) -> "WedgeGen":
        kind, row, col = tok.split(":")
        if kind not in _GEN_KIND_RANK:
            raise ValueError(f"unknown wedge generator kind {kind!r}")
        return cls(kind, parse_index(row), parse_index(col))


def xi(i: int, j: int) -> WedgeGen:
    return WedgeGen("xi", i, j)


def xibar(i: int, j: int) -> WedgeGen:
    return WedgeGen("xibar", i, j)


WedgeMonomial = tuple  # strictly increasing tuple of WedgeGen


def wedge_monomial(gens: Iterable[WedgeGen]):
    """Sort generators into canonical order.

    Returns (sign, monomial) or (0, ()) when a generator repeats.  One sort
    by sort_key, so a long imported wedge costs O(n log n): repeats are
    equal neighbours, and the sign is the parity of the sorting permutation,
    (-1)^(n - number of cycles).
    """
    gens = list(gens)
    order = sorted(range(len(gens)), key=lambda i: gens[i].sort_key())
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
    """Merge two canonical monomials; (sign, merged) or (0, ()) on repeats."""
    out = []
    sign = 1
    i = j = 0
    while i < len(w1) and j < len(w2):
        a, b = w1[i], w2[j]
        if a == b:
            return 0, ()
        if a.sort_key() < b.sort_key():
            out.append(a)
            i += 1
        else:
            out.append(b)
            j += 1
            if (len(w1) - i) % 2:
                sign = -sign
    out.extend(w1[i:])
    out.extend(w2[j:])
    return sign, tuple(out)


def bidegree(w: WedgeMonomial) -> tuple[int, int]:
    a = sum(1 for g in w if g.kind == "xi")
    return (a, len(w) - a)


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

    def max_term_count(self) -> int:
        return sum(len(p.terms) for p in self.terms.values())

    # -- coefficient-wise transforms ------------------------------------------

    def map_coefficients(self, fn) -> "Form":
        return Form({w: fn(p) for w, p in self.terms.items()})

    def gen_derivation(self, rule) -> "Form":
        """Extend a linear action on generators as a derivation of the wedge.

        rule(g) returns a list of (Scalar, WedgeGen) pairs.
        """
        acc: dict = {}
        for w, p in self.terms.items():
            for t, g in enumerate(w):
                for c, g2 in rule(g):
                    sign, ww = wedge_monomial(w[:t] + (g2,) + w[t + 1:])
                    if sign:
                        _mac_poly(acc, ww, p, c, sign)
        return Form(_polys(acc))

    def conjugate(self) -> "Form":
        """Swap xi<->xibar and conjugate coefficients; signs recomputed."""
        out = {}
        for w, p in self.terms.items():
            # conjugation permutes the wedge monomials, so no two terms meet
            sign, ww = wedge_monomial([g.conjugate() for g in w])
            if sign:
                q = p.conjugate()
                out[ww] = q if sign > 0 else -q
        return Form(out)

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda t: tuple(g.sort_key() for g in t[0]))

    def __repr__(self):
        if not self.terms:
            return "Form(0)"
        bits = []
        for w, p in self.sorted_terms():
            ws = "^".join(f"{g.kind}{g.row}{g.col}" for g in w) or "1"
            bits.append(f"({p!r}) {ws}")
        return "Form(" + " + ".join(bits) + ")"


def wedge_all(forms: Iterable[Form]) -> Form:
    out = Form.unit()
    for f in forms:
        out = out.wedge(f)
    return out
