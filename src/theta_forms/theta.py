"""Numeric companion: exact lattice enumeration, representation numbers,
Whittaker factors, Fourier-coefficient assembly, and the one-class
Siegel-Weil sanity check (E8 theta against the divisor-sum Eisenstein
coefficients).

Floating point appears only in the Whittaker exponentials; everything that
feeds an equality check is exact integer or Fraction arithmetic.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import isqrt, lcm
from typing import Callable, Sequence


# ---------------------------------------------------------------------------
# Exact Gram matrices
# ---------------------------------------------------------------------------

class GramMatrix:
    """Exact rational symmetric positive-definite matrix."""

    def __init__(self, entries: Sequence[Sequence]):
        rows = tuple(tuple(Fraction(x) for x in row) for row in entries)
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise ValueError("gram matrix must be square")
        for i in range(n):
            for j in range(n):
                if rows[i][j] != rows[j][i]:
                    raise ValueError("gram matrix must be symmetric")
        self.entries = rows
        self.dim = n
        # Factor the coordinate-reversed matrix, so that Fincke-Pohst fixes
        # x_0 first and meets vectors in lexicographic order.  The pivots
        # also certify positive definiteness.
        self._ldl = _ldl([row[::-1] for row in rows[::-1]])

    def quad(self, x: Sequence[int]) -> Fraction:
        """x^T L x, exact."""
        n = self.dim
        total = Fraction(0)
        for i in range(n):
            if x[i] == 0:
                continue
            row = self.entries[i]
            acc = Fraction(0)
            for j in range(n):
                if x[j]:
                    acc += row[j] * x[j]
            total += x[i] * acc
        return total

    def half_norm(self, x: Sequence[int]) -> Fraction:
        return self.quad(x) / 2

    def determinant(self) -> Fraction:
        d = Fraction(1)
        for di in self._ldl[0]:
            d *= di
        return d

    def inverse_diagonal(self) -> list[Fraction]:
        inv = _invert(self.entries)
        return [inv[i][i] for i in range(self.dim)]


def _ldl(rows) -> tuple[list[Fraction], list[list[Fraction]]]:
    """A = U^T D U with U unit upper triangular; requires A positive definite."""
    n = len(rows)
    a = [list(r) for r in rows]
    d = [Fraction(0)] * n
    u = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        d[i] = a[i][i]
        if d[i] <= 0:
            raise ValueError("matrix is not positive definite")
        u[i][i] = Fraction(1)
        for j in range(i + 1, n):
            u[i][j] = a[i][j] / d[i]
        for j in range(i + 1, n):
            for k in range(j, n):
                a[j][k] -= d[i] * u[i][j] * u[i][k]
                a[k][j] = a[j][k]
    return d, u


def _invert(rows) -> list[list[Fraction]]:
    n = len(rows)
    a = [list(r) + [Fraction(1) if i == j else Fraction(0) for j in range(n)]
         for i, r in enumerate(rows)]
    for col in range(n):
        piv = next(r for r in range(col, n) if a[r][col] != 0)
        a[col], a[piv] = a[piv], a[col]
        pv = a[col][col]
        a[col] = [x / pv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [row[n:] for row in a]


# ---------------------------------------------------------------------------
# Vector enumeration (Fincke-Pohst with exact bound propagation)
# ---------------------------------------------------------------------------

def _fincke_pohst(L: GramMatrix, max_norm: Fraction):
    """Exact integer set-up shared by both enumerators.

    With the LDL factorization x^T L x = sum_i d_i (y_i + c_i)^2 in the
    reversed coordinates y_i = x_{n-1-i}, level i scales y_i + c_i by m[i]
    (clearing the row's denominators) to u = m[i] y_i + sum_j w[i][j] y_j,
    and the whole identity by the common denominator rd.  A vector lies in
    the ball x^T L x <= 2 max_norm exactly when the remainders, starting
    from rem0 and losing cap[i] * u^2 per level, stay non-negative; its
    half-norm is (rem0 - remainder) / (2 rd).  Returns (rd, rem0, cap, m, w).
    """
    bound = 2 * max_norm
    d, u = L._ldl
    n = L.dim
    m = [lcm(*(u[i][j].denominator for j in range(i + 1, n))) for i in range(n)]
    w = [[int(u[i][j] * m[i]) for j in range(n)] for i in range(n)]
    rd = lcm(bound.denominator, *(d[i].denominator * m[i] * m[i] for i in range(n)))
    cap = [d[i].numerator * (rd // (d[i].denominator * m[i] * m[i])) for i in range(n)]
    rem0 = bound.numerator * (rd // bound.denominator)
    return rd, rem0, cap, m, w


def enumerate_with_norms(L: GramMatrix, max_norm) -> list[tuple[tuple[int, ...], Fraction]]:
    """All x in Z^n with x^T L x <= 2 * max_norm, with their exact half-norms,
    sorted by x.

    Fincke-Pohst on the exact LDL factorization, run entirely in integer
    arithmetic (see _fincke_pohst).  Levels fix x_0 first and run upwards,
    so vectors come out in lexicographic order; the last level is a flat
    loop, and each distinct remainder gets its half-norm Fraction once."""
    max_norm = Fraction(max_norm)
    if max_norm < 0:
        raise ValueError("max_norm must be non-negative")
    n = L.dim
    if not n:
        return [((), Fraction(0))]
    rd, rem0, cap, m, w = _fincke_pohst(L, max_norm)
    out: list[tuple[tuple[int, ...], Fraction]] = []
    append = out.append
    halves: dict[int, Fraction] = {}
    y = [0] * n

    def descend(i: int, rem: int):
        cn = 0
        wi = w[i]
        for j in range(i + 1, n):
            if y[j]:
                cn += wi[j] * y[j]
        c = cap[i]
        k = isqrt(rem // c)
        mi = m[i]
        ts = range(-((cn + k) // mi), (k - cn) // mi + 1)
        if i:
            for t in ts:
                uu = t * mi + cn
                y[i] = t
                descend(i - 1, rem - c * uu * uu)
            y[i] = 0
            return
        head = tuple(y[:0:-1])
        for t in ts:
            uu = t * mi + cn
            r = rem - c * uu * uu
            h = halves.get(r)
            if h is None:
                h = halves[r] = Fraction(rem0 - r, 2 * rd)
            append((head + (t,), h))

    descend(n - 1, rem0)
    return out


def enumerate_vectors(L: GramMatrix, max_norm) -> list[tuple[int, ...]]:
    """All x in Z^n with x^T L x <= 2 * max_norm, sorted."""
    return [x for x, _ in enumerate_with_norms(L, max_norm)]


def rep_numbers(L: GramMatrix, n_max: int) -> dict[int, int]:
    """r_L(n) = #{x : (1/2) x^T L x = n} for integer n = 0..n_max.

    Counts a histogram of integer remainders and builds no vector: x and -x
    have the same norm, so only vectors whose first nonzero coordinate is
    positive are enumerated, each counted twice, and the origin once."""
    if n_max < 0:
        raise ValueError("n_max must be non-negative")
    rd, rem0, cap, m, w = _fincke_pohst(L, Fraction(n_max))
    n = L.dim
    hist: dict[int, int] = {rem0: 1}
    get = hist.get
    y = [0] * n

    def descend(i: int, rem: int):
        cn = 0
        wi = w[i]
        for j in range(i + 1, n):
            if y[j]:
                cn += wi[j] * y[j]
        c = cap[i]
        k = isqrt(rem // c)
        mi = m[i]
        if i:
            for t in range(-((cn + k) // mi), (k - cn) // mi + 1):
                uu = t * mi + cn
                y[i] = t
                descend(i - 1, rem - c * uu * uu)
            y[i] = 0
            return
        for uu in range(cn - (cn + k) // mi * mi, k + 1, mi):
            r = rem - c * uu * uu
            hist[r] = get(r, 0) + 2

    for top in range(n):
        # Levels above `top` are zero, so y_top runs over a symmetric range.
        c, mt = cap[top], m[top]
        for t in range(1, isqrt(rem0 // c) // mt + 1):
            r = rem0 - c * (t * mt) ** 2
            if top:
                y[top] = t
                descend(top - 1, r)
            else:
                hist[r] = get(r, 0) + 2
        y[top] = 0
    counts = dict.fromkeys(range(n_max + 1), 0)
    for r, c in hist.items():
        # Every leaf has half-norm <= n_max; only integer ones form shells.
        q, s = divmod(rem0 - r, 2 * rd)
        if not s:
            counts[q] += c
    return counts


def naive_rep_numbers(L: GramMatrix, n_max: int) -> dict[int, int]:
    """Independent brute-force oracle: full box scan with direct evaluation
    of the quadratic form (no Cholesky recursion).  Small dimensions only.

    The Gram matrix is scaled once by the lcm D of its denominators, so each
    point is an int x^T (D L) x, which is 2 n D exactly when the half-norm
    is the integer n."""
    inv_diag = L.inverse_diagonal()
    bounds = []
    for idx in range(L.dim):
        b2 = 2 * n_max * inv_diag[idx]
        k = isqrt(b2.numerator // b2.denominator) + 1
        while k * k * b2.denominator > b2.numerator:
            k -= 1
        bounds.append(k)
    D = lcm(*(x.denominator for row in L.entries for x in row))
    M = [[int(x * D) for x in row] for row in L.entries]
    counts = {n: 0 for n in range(n_max + 1)}
    for vec in product(*(range(-b, b + 1) for b in bounds)):
        qD = sum(xi * sum(m * xj for m, xj in zip(row, vec) if xj)
                 for xi, row in zip(vec, M) if xi)
        n, rem = divmod(qD, 2 * D)
        if not rem and n <= n_max:
            counts[n] += 1
    return counts


# ---------------------------------------------------------------------------
# Whittaker functions and Fourier assembly
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BetaMatrix:
    """Exact hermitian matrix: entries[(i, j)] = (re, im) fractions."""

    entries: tuple[tuple[tuple[Fraction, Fraction], ...], ...]

    @classmethod
    def from_real(cls, rows: Sequence[Sequence]) -> "BetaMatrix":
        return cls(tuple(tuple((Fraction(x), Fraction(0)) for x in row) for row in rows))

    @classmethod
    def scalar(cls, value) -> "BetaMatrix":
        return cls.from_real([[value]])

    @property
    def dim(self) -> int:
        return len(self.entries)

    def __post_init__(self):
        n = len(self.entries)
        for row in self.entries:
            if len(row) != n:
                raise ValueError("beta matrix must be square")
        for i in range(n):
            for j in range(n):
                re1, im1 = self.entries[i][j]
                re2, im2 = self.entries[j][i]
                if re1 != re2 or im1 != -im2:
                    raise ValueError("beta matrix must be hermitian")


@dataclass(frozen=True)
class WhittakerPoint:
    """Iwasawa data g' = n'(b) m'(a): a real invertible, b real symmetric."""

    a: tuple[tuple[float, ...], ...]
    b: tuple[tuple[float, ...], ...]

    @classmethod
    def of(cls, a, b) -> "WhittakerPoint":
        return cls(tuple(tuple(float(x) for x in row) for row in a),
                   tuple(tuple(float(x) for x in row) for row in b))

    @classmethod
    def standard(cls, r: int) -> "WhittakerPoint":
        eye = tuple(tuple(1.0 if i == j else 0.0 for j in range(r)) for i in range(r))
        zero = tuple(tuple(0.0 for _ in range(r)) for _ in range(r))
        return cls(eye, zero)

    @property
    def dim(self) -> int:
        return len(self.a)

    def tau(self) -> list[list[complex]]:
        """tau = u + i v with u = b and v = a a^T (Siegel upper half space)."""
        r = self.dim
        v = [[sum(self.a[i][k] * self.a[j][k] for k in range(r)) for j in range(r)]
             for i in range(r)]
        return [[complex(self.b[i][j], v[i][j]) for j in range(r)] for i in range(r)]

    def det_a(self) -> float:
        m = [list(row) for row in self.a]
        n = self.dim
        det = 1.0
        for col in range(n):
            piv = max(range(col, n), key=lambda r_: abs(m[r_][col]))
            if abs(m[piv][col]) == 0.0:
                raise ValueError("singular a block")
            if piv != col:
                m[col], m[piv] = m[piv], m[col]
                det = -det
            det *= m[col][col]
            for r_ in range(col + 1, n):
                f = m[r_][col] / m[col][col]
                for c_ in range(col, n):
                    m[r_][c_] -= f * m[col][c_]
        return det


LITERAL = "literal"
CLASSICAL = "classical"


def whittaker(beta: BetaMatrix, g: WhittakerPoint, weight_dim: int,
              convention: str = LITERAL) -> complex:
    """W_beta(g') = |det a|^((p+q)/2) * exp(tr beta tau).

    convention="literal" evaluates the displayed formula as printed;
    "classical" inserts the usual 2 pi i in the exponent.  The discrepancy is
    exposed, not silently resolved.
    """
    if beta.dim != g.dim:
        raise ValueError("beta and g must share the matrix size")
    tau = g.tau()
    tr = 0j
    for i in range(beta.dim):
        for j in range(beta.dim):
            re, im = beta.entries[i][j]
            tr += complex(re, im) * tau[j][i]
    if convention == CLASSICAL:
        tr = 2j * cmath.pi * tr
    elif convention != LITERAL:
        raise ValueError(f"unknown Whittaker convention {convention!r}")
    return abs(g.det_a()) ** (weight_dim / 2) * cmath.exp(tr)


def fourier_assemble(L: GramMatrix, weight: Callable, g: WhittakerPoint,
                     n_max: int) -> dict[int, complex]:
    """Rank-one Fourier skeleton: coefficient(n) = (sum of weight(x) over the
    norm-n shell) * W_n(g'), literal convention, weight dimension L.dim.
    weight(x) is an int, a Fraction or anything Fraction accepts."""
    # Sum integer numerators per (shell, denominator): a Fraction addition
    # per vector would cost more than the enumeration.
    sums: dict[tuple[int, int], int] = {}
    get = sums.get
    for x, h in enumerate_with_norms(L, n_max):
        if h.denominator == 1:
            v = weight(x)
            if not isinstance(v, (int, Fraction)):
                v = Fraction(v)
            key = (h.numerator, v.denominator)
            sums[key] = get(key, 0) + v.numerator
    shells = dict.fromkeys(range(n_max + 1), Fraction(0))
    for (n, den), num in sums.items():
        shells[n] += Fraction(num, den)
    return {n: complex(shells[n]) * whittaker(BetaMatrix.scalar(n), g, L.dim)
            for n in range(n_max + 1)}


# ---------------------------------------------------------------------------
# E8 and the Eisenstein check
# ---------------------------------------------------------------------------

# Gram matrix of the E8 root lattice (Cartan matrix, Bourbaki labeling):
# even diagonal, determinant 1.
E8_GRAM_ENTRIES = (
    (2, 0, -1, 0, 0, 0, 0, 0),
    (0, 2, 0, -1, 0, 0, 0, 0),
    (-1, 0, 2, -1, 0, 0, 0, 0),
    (0, -1, -1, 2, -1, 0, 0, 0),
    (0, 0, 0, -1, 2, -1, 0, 0),
    (0, 0, 0, 0, -1, 2, -1, 0),
    (0, 0, 0, 0, 0, -1, 2, -1),
    (0, 0, 0, 0, 0, 0, -1, 2),
)


def e8_gram() -> GramMatrix:
    return GramMatrix(E8_GRAM_ENTRIES)


def sigma3(n: int) -> int:
    """Divisor sum sigma_3(n), the Eisenstein-side oracle."""
    return sum(d ** 3 for d in range(1, n + 1) if n % d == 0)


@dataclass(frozen=True)
class EisensteinReport:
    rows: tuple[tuple[int, int, int], ...]  # (n, theta side, eisenstein side)

    @property
    def passed(self) -> bool:
        return all(a == b for _, a, b in self.rows)

    def lines(self) -> list[str]:
        out = []
        for n, a, b in self.rows:
            status = "ok" if a == b else "MISMATCH"
            out.append(f"n={n}: r_E8(n)={a}  240*sigma3(n)={b}  [{status}]")
        return out


NMAX_CEILING = 20   # desk-scale limit of the theta command and the eisenstein check


def eisenstein_check(n_max: int, L: GramMatrix | None = None) -> EisensteinReport:
    """One-class genus instance of Siegel-Weil: the theta coefficients of the
    lattice (E8 by default) against the Eisenstein side 240 sigma_3(n).
    Both sides exact integers; a non-E8 lattice reports its mismatches."""
    if not 1 <= n_max <= NMAX_CEILING:
        raise ValueError(f"desk-scale check: 1 <= n_max <= {NMAX_CEILING}")
    counts = rep_numbers(L if L is not None else e8_gram(), n_max)
    rows = tuple((n, counts[n], 240 * sigma3(n)) for n in range(1, n_max + 1))
    return EisensteinReport(rows)
