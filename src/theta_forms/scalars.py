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

import json
import re
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


def _exact(x) -> Fraction:
    """Fraction(x), refusing what Fraction would take silently but inexactly:
    a float, complex or bool raises TypeError."""
    if isinstance(x, (float, complex, bool)):
        raise TypeError(f"expected an exact rational, got {x!r}")
    return Fraction(x)


# Strict readers of JSON values, shared by the cochain and the Gram reader.
def _int(x, where: str = "") -> int:
    """x if it is an int in the signed 128-bit range, which every writer can
    print; where prefixes the message, which gives the size, not the value:
    repr of an int past 4300 digits raises."""
    if type(x) is not int:
        raise ValueError(f"expected an integer, got {x!r}")
    if not -(1 << 127) <= x < 1 << 127:
        raise ValueError(f"{where}integer of {x.bit_length()} bits "
                         "outside the signed 128-bit range")
    return x


def _list(x) -> list:
    # a string would be read one character at a time
    if type(x) is not list:
        raise ValueError(f"expected a list, got {x!r}")
    return x


def _rational(x) -> tuple[int, int]:
    """(numerator, denominator) of a rational string in the strict grammar,
    each in the signed 128-bit range of _int.  A JSON float would import as
    its inexact binary expansion, and Fraction's own grammar takes
    exponents, so "1e1000000000" would ask for a billion-digit integer."""
    # re caches the compiled pattern on first use, not at import
    m = re.fullmatch(r"(-?[0-9]+)(?:/([0-9]+))?", x) if type(x) is str else None
    if m is None:
        raise ValueError(f"expected a rational string -?[0-9]+(/[0-9]+)?, got {x!r}")
    num, den = m.groups()
    den = int(den) if den else 1
    if den == 0:
        raise ValueError(f"zero denominator in {x!r}")
    return _int(int(num)), _int(den)


def _loads(text: str, what: str):
    """json.loads, with nesting too deep for the decoder reported as a
    malformed document (ValueError) instead of a RecursionError."""
    try:
        return json.loads(text)
    except RecursionError as exc:
        raise ValueError(f"malformed {what} JSON: nested too deeply") from exc


class Scalar:
    """An element of Q(i)[pi, 1/pi] in canonical form."""

    __slots__ = ("_t",)

    def __init__(self, terms=None):
        # terms: {pi_exponent: (re, im)}, an int exponent and exact re, im
        t = {}
        for k, (re, im) in (terms or {}).items():
            if type(k) is not int:
                raise TypeError(f"expected an int pi exponent, got {k!r}")
            re, im = _exact(re), _exact(im)
            c = _canon(re.numerator * im.denominator, im.numerator * re.denominator,
                       re.denominator * im.denominator)
            if c is not None:
                t[k] = c
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
        if type(re) is int and type(im) is int and type(pi_exp) is int:
            return _raw({pi_exp: (re, im, 1)} if re or im else {})
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

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._t

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "Scalar") -> "Scalar":
        return _sum(_ONE, _rows(((None, self), (None, other))))

    def __neg__(self) -> "Scalar":
        return _raw({k: (-a, -b, d) for k, (a, b, d) in self._t.items()})

    def __mul__(self, other) -> "Scalar":
        if not isinstance(other, Scalar):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = Scalar.of(other)
        s, o = self._t, other._t
        if len(s) == 1 and len(o) == 1:
            (k1, (a, b, d)), = s.items()
            (k2, (e, f, g)), = o.items()
            return _raw({k1 + k2: _canon(a * e - b * f, a * f + b * e, d * g)})
        return _sum(self, _rows(((None, other),)))

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
        """Equal term maps: a Scalar by exact type first, an int or Fraction converted."""
        if type(other) is not Scalar and (type(other) is int or isinstance(other, Fraction)):
            other = Scalar.of(other)
        return isinstance(other, Scalar) and self._t == other._t

    def __hash__(self):
        re, im, den = self._t.get(0, (0, 0, 1))
        if not im and len(self._t) == (1 if re else 0):  # equal to an int or Fraction: hash as it
            return hash(re) if den == 1 else hash(Fraction(re, den))
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


_ONE = _raw({0: (1, 0, 1)})


def _quotient(a: Scalar, b: Scalar):
    """The Scalar c with a = c b, or None when b is zero or does not divide a:
    long division from the highest pi-power, which gives up once a quotient
    term falls below min(a) - min(b), the lowest pi-power of an exact one."""
    if b.is_zero():
        return None
    top = max(b._t)
    lead = _raw({top: b._t[top]}).inverse()
    floor = min(a._t, default=0) - min(b._t)
    quot, rest = Scalar.zero(), a
    while rest._t:
        k = max(rest._t)
        if k - top < floor:
            return None
        t = _raw({k: rest._t[k]}) * lead
        quot, rest = quot + t, rest + -(t * b)
    return quot


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


def _mac_ratios(acc: dict, rows: list, n: int) -> None:
    """acc[(key, k)] += n * (re + im i) for each row (key, k, re, im) with
    re and im as (numerator, denominator) pairs, denominators nonzero."""
    _mac(acc, _ONE, [(m, k, n * a * d, n * c * b, b * d) for m, k, (a, b), (c, d) in rows])


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


def _sum(c: Scalar, rows: list) -> Scalar:
    """The Scalar sum over rows (None, k2, re, im, den) of c times each:
    one _mac accumulator, reduced once."""
    acc: dict = {}
    _mac(acc, c, rows)
    return _reduce(acc).get(None) or _raw({})
