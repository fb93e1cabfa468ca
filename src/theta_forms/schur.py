"""Partitions, semistandard tableaux, determinant polynomials, and the
Kashiwara-Vergne highest-weight vectors with their harmonicity checks.

Minor conventions (the single source of truth for all downstream signs):

* X-side: a tableau column with entries i_1 < ... < i_a contributes the
  minor det(X[i_k, m]) over X-columns m = 1..a (leading columns).
* Y-side (the tilde minors): entries i_1 < ... < i_b contribute the minor
  det(Y[q - i_(b+1-k), m]) over rows q-i_b+1 < ... < q-i_1+1 (reversed,
  bottom-anchored) and Y-columns m = r-b+1..r (trailing columns), so the
  one-column tableau 1..j reproduces the bottom-right j x j corner minor.
  This pins the highest-weight vectors; the weight-vector tests, not the
  display, are what certify the choice.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations

from .exterior import perm_sign
from .models import FOCK, Signature, upq_op_model
from .poly import Polynomial, X, Y, _mac_prod, _polys


# ---------------------------------------------------------------------------
# Partitions and tableaux
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Partition:
    parts: tuple[int, ...] = ()

    def __post_init__(self):
        parts = tuple(self.parts)
        if any(x <= 0 for x in parts):
            raise ValueError("partition parts must be positive")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError("partition parts must be weakly decreasing")
        object.__setattr__(self, "parts", parts)

    def __len__(self) -> int:
        return len(self.parts)

    def size(self) -> int:
        return sum(self.parts)

    def part(self, i: int) -> int:
        """1-indexed part, zero beyond the length."""
        return self.parts[i - 1] if 1 <= i <= len(self.parts) else 0

    def conjugate(self) -> "Partition":
        if not self.parts:
            return Partition()
        return Partition(tuple(sum(1 for p in self.parts if p >= j)
                               for j in range(1, self.parts[0] + 1)))


EMPTY_PARTITION = Partition()


@dataclass(frozen=True)
class Tableau:
    shape: Partition
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if tuple(len(r) for r in self.rows) != self.shape.parts:
            raise ValueError("tableau rows do not match the shape")
        for r in self.rows:
            if any(r[i] > r[i + 1] for i in range(len(r) - 1)):
                raise ValueError("rows must be weakly increasing")
        for i in range(1, len(self.rows)):
            upper, lower = self.rows[i - 1], self.rows[i]
            if any(upper[j] >= lower[j] for j in range(len(lower))):
                raise ValueError("columns must be strictly increasing")
        if any(v <= 0 for r in self.rows for v in r):
            raise ValueError("entries must be positive")

    def column(self, l: int) -> list[int]:
        """Entries of column l (1-indexed), top to bottom."""
        return [row[l - 1] for row in self.rows if len(row) >= l]


def enumerate_ssyt(shape: Partition, max_entry: int) -> list[Tableau]:
    """All semistandard tableaux of the shape with entries <= max_entry,
    in deterministic lexicographic (row-reading) order."""
    parts = shape.parts
    if not parts:
        return [Tableau(shape, ())]
    cells = [(i, j) for i, rl in enumerate(parts) for j in range(rl)]
    grid = [[0] * rl for rl in parts]
    out: list[Tableau] = []

    def fill(k: int):
        if k == len(cells):
            out.append(Tableau(shape, tuple(tuple(r) for r in grid)))
            return
        i, j = cells[k]
        lo = 1
        if j > 0:
            lo = max(lo, grid[i][j - 1])
        if i > 0:
            lo = max(lo, grid[i - 1][j] + 1)
        for v in range(lo, max_entry + 1):
            grid[i][j] = v
            fill(k + 1)
        grid[i][j] = 0

    fill(0)
    return out


def hook_content_dim(shape: Partition, n: int) -> int:
    """Number of SSYT with entries <= n by the hook content formula.

    Independent oracle for enumerate_ssyt; computed with exact fractions.
    """
    parts = shape.parts
    if not parts:
        return 1
    conj = shape.conjugate().parts
    val = Fraction(1)
    for i, rl in enumerate(parts, start=1):
        for j in range(1, rl + 1):
            content = j - i
            hook = (rl - j) + (conj[j - 1] - i) + 1
            val *= Fraction(n + content, hook)
    if val.denominator != 1:
        raise AssertionError("hook content formula did not reduce to an integer")
    return int(val)


# ---------------------------------------------------------------------------
# Determinant polynomials
# ---------------------------------------------------------------------------

def _det(entries: list[list[Polynomial]]) -> Polynomial:
    """Leibniz expansion; each permutation's last factor and sign go into
    the triple accumulator."""
    n = len(entries)
    acc: dict = {None: {}}
    for perm in permutations(range(n)):
        term = Polynomial.one()
        for i in range(n - 1):
            term = term * entries[i][perm[i]]
        _mac_prod(acc, None, term, entries[n - 1][perm[n - 1]], perm_sign(perm))
    return _polys(acc)[None]


def minor_x(rows: list[int], sig: Signature) -> Polynomial:
    """det over the given X-rows and leading X-columns 1..len(rows)."""
    a = len(rows)
    if a == 0:
        return Polynomial.one()
    if max(rows) > sig.p or a > sig.r:
        raise ValueError("X minor out of bounds for the signature")
    return _det([[Polynomial.variable(X(i, m)) for m in range(1, a + 1)] for i in rows])


def minor_y_tilde(rows: list[int], sig: Signature) -> Polynomial:
    """det over Y-rows q-i+1 (entries reversed) and trailing Y-columns."""
    b = len(rows)
    if b == 0:
        return Polynomial.one()
    if max(rows) > sig.q or b > sig.r:
        raise ValueError("Y minor out of bounds for the signature")
    flipped = [sig.q - i + 1 for i in sorted(rows, reverse=True)]
    cols = list(range(sig.r - b + 1, sig.r + 1))
    return _det([[Polynomial.variable(Y(i, m)) for m in cols] for i in flipped])


def delta_T(T: Tableau, sig: Signature, target: str = "x") -> Polynomial:
    """Product of column minors of a tableau: target 'x' gives Delta_T(X),
    target 'y_tilde' gives the tilde product on Y."""
    ncols = T.shape.part(1)
    out = Polynomial.one()
    for l in range(1, ncols + 1):
        col = T.column(l)
        if target == "x":
            out = out * minor_x(col, sig)
        elif target == "y_tilde":
            out = out * minor_y_tilde(col, sig)
        else:
            raise ValueError(f"unknown minor target {target!r}")
    return out


def kv_highest_weight(lam: Partition, mu: Partition, sig: Signature) -> Polynomial:
    """P_{lam,mu} = prod Delta_j(X)^(lam_j - lam_{j+1}) *
    prod tildeDelta_j(Y)^(mu_j - mu_{j+1})."""
    if len(lam) > sig.p:
        raise ValueError("l(lambda) must be <= p")
    if len(mu) > sig.q:
        raise ValueError("l(mu) must be <= q")
    if len(lam) + len(mu) > sig.r:
        raise ValueError("l(lambda) + l(mu) must be <= r")
    out = Polynomial.one()
    for j in range(1, len(lam) + 1):
        e = lam.part(j) - lam.part(j + 1)
        if e:
            out = out * minor_x(list(range(1, j + 1)), sig) ** e
    for j in range(1, len(mu) + 1):
        e = mu.part(j) - mu.part(j + 1)
        if e:
            out = out * minor_y_tilde(list(range(1, j + 1)), sig) ** e
    return out


# ---------------------------------------------------------------------------
# Harmonicity
# ---------------------------------------------------------------------------

def is_harmonic(P: Polynomial, sig: Signature) -> bool:
    """True when every Delta_ij = sum_nu d^2/dX_{i,nu} dY_{j,nu} kills P,
    read off pminus(i,j) = c_minus Delta_ij in the Fock model of
    Signature(p, q, r): s and the family play no part."""
    fock = Signature(sig.p, sig.q, sig.r)
    return all(upq_op_model(fock, FOCK, "pminus", i, j).apply(P).is_zero()
               for i in range(1, sig.p + 1) for j in range(1, sig.q + 1))


# ---------------------------------------------------------------------------
# Exact rank of the Delta_T span
# ---------------------------------------------------------------------------

def exact_rank(polys: list[Polynomial]) -> int:
    """Rank over Q of the polynomials as vectors of rationals: one
    coordinate per (monomial, pi exponent, 0 for the real part / 1 for the
    imaginary part), read from Scalar.terms.  So p and i*p count as
    independent; on rational polynomials this is also the rank over Q(i).
    Fraction-exact elimination; each pivot is its row's first key."""
    rows = [row for row in ({(m, k, part): x for m, c in p.terms.items()
                             for k, parts in c.terms.items()
                             for part, x in enumerate(parts) if x} for p in polys) if row]
    rank = 0
    while rows:
        pivot_row = rows.pop(0)
        key, piv = next(iter(pivot_row.items()))
        rank += 1
        reduced = []
        for r in rows:
            if key in r:
                factor = r[key] / piv
                r = dict(r)
                for k, v in pivot_row.items():
                    r[k] = r.get(k, 0) - factor * v
                    if not r[k]:
                        del r[k]
            if r:
                reduced.append(r)
        rows = reduced
    return rank


def schur_span_dim(lam: Partition, sig: Signature) -> int:
    """Rank of the coefficient matrix of {Delta_T : T semistandard with
    entries <= p}; equals the SSYT count when the minors realize E^lam."""
    if len(lam) > sig.p:
        raise ValueError("l(lambda) must be <= p")
    tabs = enumerate_ssyt(lam, sig.p)
    polys = [delta_T(T, sig, "x") for T in tabs]
    return exact_rank(polys)


def partitions_up_to(max_size: int, max_len: int | None = None) -> list[Partition]:
    """All partitions with size <= max_size (and optional length bound),
    deterministic order; includes the empty partition."""
    out = [EMPTY_PARTITION]

    def rec(prefix: list[int], remaining: int, cap: int):
        for nxt in range(min(cap, remaining), 0, -1):
            cand = prefix + [nxt]
            if max_len is None or len(cand) <= max_len:
                out.append(Partition(tuple(cand)))
                rec(cand, remaining - nxt, nxt)

    rec([], max_size, max_size)
    out.sort(key=lambda P: (P.size(), P.parts))
    return out
