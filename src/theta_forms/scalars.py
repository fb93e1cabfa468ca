"""Exact coefficient arithmetic: Gaussian rationals times Laurent monomials in a formal pi.

Every identity in the symbolic layer is stated over the ring Q(i)[pi, 1/pi],
where pi is an uninterpreted invertible symbol.  A Scalar maps each pi-exponent
k to (re + im*i) / den, held as ints with den > 0, gcd(re, im, den) == 1 and
(re, im) != (0, 0): one canonical form per value, so zero is the empty map and
equality is structural.  Each operation restores the invariant with one gcd per
term.  ``terms`` is a read-only view {k: (re, im)} of lowest-terms Fractions;
repr, LaTeX and JSON format straight from the integer triples.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


def _canon(re: int, im: int, den: int):
    """(re, im, den) reduced to the invariant, or None for zero (den > 0)."""
    if not (re or im):
        return None
    g = gcd(re, im, den)
    return (re, im, den) if g == 1 else (re // g, im // g, den // g)


def _ratio(n: int, d: int) -> str:
    """str(Fraction(n, d)) for d > 0, without building the Fraction."""
    g = gcd(n, d)
    return str(n // g) if g == d else f"{n // g}/{d // g}"


def _add_term(out: dict, k: int, c) -> None:
    """out[k] += c for a canonical nonzero c, dropping k when the sum is zero."""
    t = out.get(k)
    if t is not None:
        (a, b, d), (e, f, g) = t, c
        c = _canon(a + e, b + f, d) if d == g else _canon(a * g + e * d, b * g + f * d, d * g)
    if c is None:
        del out[k]
    else:
        out[k] = c


class Scalar:
    """An element of Q(i)[pi, 1/pi] in canonical form."""

    __slots__ = ("_t",)

    def __init__(self, terms=None):
        # terms: {pi_exponent: (re, im)} with re, im anything Fraction() takes
        t = {}
        for k, (re, im) in (terms or {}).items():
            re, im = Fraction(re), Fraction(im)
            c = _canon(re.numerator * im.denominator, im.numerator * re.denominator,
                       re.denominator * im.denominator)
            if c is not None:
                t[int(k)] = c
        self._t = t

    @property
    def terms(self) -> dict[int, tuple[Fraction, Fraction]]:
        return {k: (Fraction(a, d), Fraction(b, d)) for k, (a, b, d) in self._t.items()}

    def _text_terms(self) -> list[tuple[int, int, int, str, str]]:
        """(pi_exp, re, im, str(re/den), str(im/den)) by increasing pi_exp;
        the ints give the signs, each ratio is reduced on its own."""
        return [(k, a, b, _ratio(a, d), _ratio(b, d)) for k, (a, b, d) in sorted(self._t.items())]

    # -- constructors ------------------------------------------------------

    @classmethod
    def of(cls, re, im=0, pi_exp: int = 0) -> "Scalar":
        if type(re) is int and type(im) is int:
            return _raw({int(pi_exp): (re, im, 1)} if re or im else {})
        return cls({pi_exp: (re, im)})

    @classmethod
    def zero(cls) -> "Scalar":
        return cls()

    @classmethod
    def one(cls) -> "Scalar":
        return cls.of(1)

    @classmethod
    def i_unit(cls) -> "Scalar":
        return cls.of(0, 1)

    @classmethod
    def pi(cls, exp: int = 1) -> "Scalar":
        return cls.of(1, 0, exp)

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._t

    def is_rational(self) -> bool:
        """True when the value lies in Q (single pi^0 term, no imaginary part)."""
        return not self._t or (self._t.keys() == {0} and self._t[0][1] == 0)

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"not a plain rational: {self!r}")
        re, _, den = self._t.get(0, (0, 0, 1))
        return Fraction(re, den)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "Scalar") -> "Scalar":
        out = dict(self._t)
        for k, c in other._t.items():
            _add_term(out, k, c)
        return _raw(out)

    def __sub__(self, other: "Scalar") -> "Scalar":
        return self + (-other)

    def __neg__(self) -> "Scalar":
        return _raw({k: (-a, -b, d) for k, (a, b, d) in self._t.items()})

    def __mul__(self, other) -> "Scalar":
        if isinstance(other, (int, Fraction)):
            other = Scalar.of(other)
        s, o = self._t, other._t
        if len(s) == 1 and len(o) == 1:
            (k1, (a, b, d)), = s.items()
            (k2, (e, f, g)), = o.items()
            return _raw({k1 + k2: _canon(a * e - b * f, a * f + b * e, d * g)})
        out: dict[int, tuple[int, int, int]] = {}
        for k1, (a, b, d) in s.items():
            for k2, (e, f, g) in o.items():
                _add_term(out, k1 + k2, _canon(a * e - b * f, a * f + b * e, d * g))
        return _raw(out)

    __rmul__ = __mul__

    def inverse(self) -> "Scalar":
        """Inverse of a one-term scalar c*pi^k; raises otherwise."""
        if len(self._t) != 1:
            raise ZeroDivisionError("only monomial scalars are invertible here")
        (k, (a, b, d)), = self._t.items()
        # d / (a + b i) = d (a - b i) / (a^2 + b^2)
        return _raw({-k: _canon(d * a, -d * b, a * a + b * b)})

    def conjugate(self) -> "Scalar":
        return _raw({k: (a, -b, d) for k, (a, b, d) in self._t.items()})

    def __pow__(self, n: int) -> "Scalar":
        if n < 0:
            return self.inverse() ** (-n)
        out = Scalar.one()
        for _ in range(n):
            out = out * self
        return out

    # -- comparison / hashing ---------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Scalar.of(other)
        return isinstance(other, Scalar) and self._t == other._t

    def __hash__(self):
        return hash(frozenset(self._t.items()))

    def __repr__(self):
        if self.is_zero():
            return "Scalar(0)"
        bits = []
        for k, _, im, re_s, im_s in self._text_terms():
            part = f"({re_s}{'+' if im > 0 else ''}{im_s}i)" if im else re_s
            bits.append(part if k == 0 else f"{part}*pi^{k}")
        return "Scalar(" + " + ".join(bits) + ")"

    def latex(self) -> str:
        if self.is_zero():
            return "0"
        bits = []
        for k, re, im, re_s, im_s in self._text_terms():
            if im == 0:
                coef = re_s
            elif re == 0:
                coef = f"{im_s} i"
            else:
                coef = f"({re_s} {'+' if im > 0 else '-'} {im_s.lstrip('-')} i)"
            if k == 0:
                bits.append(coef)
            elif k == 1:
                bits.append(f"{coef} \\pi")
            else:
                bits.append(f"{coef} \\pi^{{{k}}}")
        return " + ".join(bits)


def _raw(t: dict) -> Scalar:
    """Wrap a term map that already satisfies the invariant, unchecked."""
    s = object.__new__(Scalar)
    s._t = t
    return s


# -- unreduced triple accumulators ------------------------------------------
# A multiply-accumulate that runs many products into one sum keeps its
# entries {(key, pi_exp): (re, im, den)} unreduced and reduces each once at
# the end, instead of building a canonical Scalar per product.

def _rows(pairs) -> list:
    """[(key, pi_exp, re, im, den)] for an iterable of (key, Scalar): the
    triples flattened once, to be reused by many _mac calls."""
    return [(m, k, a, b, d) for m, s in pairs for k, (a, b, d) in s._t.items()]


def _mac(acc: dict, c: Scalar, rows: list, n: int = 1) -> None:
    """acc[(key, k + k2)] += n * c * (re + im i) / den for each row
    (key, k2, re, im, den) of _rows, term by term of c.  Numerators add when
    the denominators match and one gcd finds the common denominator
    otherwise; a sum that cancels drops its key."""
    get = acc.get
    for k1, (a, b, d) in c._t.items():
        if n != 1:
            a, b = n * a, n * b
        for m, k2, e, f, g in rows:
            key = (m, k1 + k2)
            re, im, den = a * e - b * f, a * f + b * e, d * g
            t = get(key)
            if t is None:
                acc[key] = (re, im, den)
                continue
            x, y, z = t
            if z != den:
                h = gcd(z, den)
                u, v = den // h, z // h
                x, y, z, re, im = x * u, y * u, z * u, re * v, im * v
            x, y = x + re, y + im
            if x or y:
                acc[key] = (x, y, z)
            else:
                del acc[key]


def _reduce(acc: dict) -> dict:
    """{key: Scalar} of a _mac accumulator: each triple reduced once to the
    invariant; keys whose every term is zero are absent."""
    out: dict = {}
    for (m, k), (re, im, den) in acc.items():
        c = _canon(re, im, den)
        if c is not None:
            t = out.get(m)
            if t is None:
                out[m] = {k: c}
            else:
                t[k] = c
    return {m: _raw(t) for m, t in out.items()}
