import ast
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import theta_forms
from theta_forms.poly import Polynomial
from theta_forms.scalars import Scalar, _quotient

rationals = st.fractions(min_value=-5, max_value=5, max_denominator=8)
scalars = st.builds(
    lambda pairs: Scalar({k: (re, im) for k, (re, im) in pairs.items()}),
    st.dictionaries(st.integers(-3, 3), st.tuples(rationals, rationals), max_size=3),
)


def test_zero_and_identity():
    assert Scalar.zero().is_zero()
    assert Scalar.one() * Scalar.of(7) == Scalar.of(7)
    assert (Scalar.of(3) + Scalar.of(-3)).is_zero()


def test_i_squared():
    i = Scalar.i_unit()
    assert i * i == Scalar.of(-1)


def test_pi_laurent():
    pi = Scalar.of(1, 0, 1)
    assert pi * Scalar.of(1, 0, -1) == Scalar.one()
    assert Scalar.of(2, 0, 3) * Scalar.of(Fraction(1, 2), 0, -3) == Scalar.one()


@pytest.mark.parametrize("make, args", [
    (Scalar.of, (0.1,)), (Scalar.of, (1, 0.5)), (Scalar.of, (2.0,)), (Scalar.of, (1j,)),
    (Scalar.of, (True,)), (Scalar.of, (1, False)), (Scalar.of, (1, 0, 1.5)),
    (Scalar.of, (1, 0, 1.0)), (Scalar.of, (1, 0, True)), (Scalar.of, (Fraction(1, 2), 0, 2.0)),
    (Scalar, ({0: (0.5, True)},)), (Scalar, ({0: (1, 1.5)},)), (Scalar, ({1.0: (1, 0)},)),
    (Scalar, ({True: (1, 0)},)), (Polynomial, ({(): 0.1},)), (Polynomial, ({(): True},)),
    (Polynomial, ({(): 1.0},)), (Polynomial.constant, (0.5,)),
], ids=lambda x: getattr(x, "__qualname__", repr(x)))
def test_inexact_input_is_rejected(make, args):
    # a float, complex or bool component, or a pi exponent other than an int,
    # would otherwise be taken silently (0.1 as its binary fraction, True as 1)
    with pytest.raises(TypeError):
        make(*args)


def test_exact_input_is_accepted():
    half = Scalar.of(Fraction(1, 2))
    assert Scalar.of(1, 2, -3).terms == {-3: (1, 2)}
    assert Scalar({0: (Fraction(1, 2), 1)}).terms == {0: (Fraction(1, 2), Fraction(1))}
    assert Scalar.of(Fraction(3, 6), Fraction(0), 4).terms == {4: (Fraction(1, 2), 0)}
    assert half == Fraction(1, 2) and half * 2 == Scalar.one()
    assert Scalar.one() != True  # a bool is no number here, and comparing does not raise
    assert Polynomial({(): Fraction(1, 2)}) == Polynomial.constant(half)
    assert Polynomial({(): 3}).constant_term() == Scalar.of(3)


def test_conjugate_and_inverse():
    z = Scalar.of(Fraction(1, 2), Fraction(-3, 4), 2)
    assert z.conjugate().conjugate() == z
    assert z * z.inverse() == Scalar.one()
    with pytest.raises(ZeroDivisionError):
        (Scalar.of(1) + Scalar.of(1, 0, 1)).inverse()


@settings(max_examples=80, deadline=None)
@given(scalars, scalars, scalars)
def test_quotient_is_exact_division(a, b, c):
    if not b.is_zero():
        assert _quotient(a * b, b) == a
    q = _quotient(c, b)
    assert q is None or q * b == c


def test_quotient_refuses_what_does_not_divide():
    one_pi = Scalar.of(1) + Scalar.of(1, 0, 1)
    assert _quotient(Scalar.one(), one_pi) is None        # 1/(1 + pi) is no Laurent polynomial
    assert _quotient(one_pi, one_pi * one_pi) is None
    assert _quotient(Scalar.one(), Scalar.zero()) is None
    assert _quotient(one_pi * one_pi, one_pi) == one_pi
    assert _quotient(Scalar.zero(), one_pi) == Scalar.zero()


def test_no_zero_terms_stored():
    s = Scalar({0: (Fraction(0), Fraction(0)), 1: (Fraction(1), Fraction(0))})
    assert list(s.terms) == [1]


@settings(max_examples=60, deadline=None)
@given(scalars, scalars, scalars)
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@settings(max_examples=40, deadline=None)
@given(scalars, scalars)
def test_conjugation_is_multiplicative(a, b):
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()


def test_canonical_form_is_unique():
    a = Scalar.of(Fraction(2, 4), Fraction(-6, 8), 3)
    b = Scalar.of(Fraction(1, 2), Fraction(-3, 4), 3)
    assert a == b and hash(a) == hash(b)
    assert (a + (-a)).is_zero() and (a + (-a)).terms == {}


def test_hash_agrees_with_equality_to_numbers():
    """A Scalar equal to an int or Fraction hashes as that number, so a set
    holds them once; other types compare unequal without raising, a
    Polynomial too, though it is neither a Scalar nor a number."""
    assert len({Scalar.one(), 1}) == 1
    assert len({Scalar.of(Fraction(1, 2)), Fraction(1, 2)}) == 1
    assert len({Scalar.zero(), 0}) == 1
    assert len({Scalar.of(1, 0, 1), 1}) == 2 and len({Scalar.i_unit(), 0}) == 2
    for other in ("1", None, 1 + 0j, Polynomial.one()):
        assert (Scalar.one() == other) is False and (Scalar.one() != other) is True


# Reference arithmetic on {pi_exp: (re, im)} maps of Fractions: a second,
# independent implementation that the integer kernel is checked against.

def _ref_clean(t):
    return {k: (re, im) for k, (re, im) in t.items() if re or im}


def _ref_add(x, y):
    out = dict(x)
    for k, (re, im) in y.items():
        r0, i0 = out.get(k, (Fraction(0), Fraction(0)))
        out[k] = (r0 + re, i0 + im)
    return _ref_clean(out)


def _ref_mul(x, y):
    out = {}
    for k1, (a, b) in x.items():
        for k2, (c, d) in y.items():
            r0, i0 = out.get(k1 + k2, (Fraction(0), Fraction(0)))
            out[k1 + k2] = (r0 + a * c - b * d, i0 + a * d + b * c)
    return _ref_clean(out)


def _ref_inverse(x):
    (k, (re, im)), = x.items()
    n = re * re + im * im
    return {-k: (re / n, -im / n)}


def _ref_pow(x, n):
    if n < 0:
        return _ref_pow(_ref_inverse(x), -n)
    out = {0: (Fraction(1), Fraction(0))}
    for _ in range(n):
        out = _ref_mul(out, x)
    return out


def _check(s: Scalar, ref: dict):
    """s has the reference value, and its (re, im, den) terms keep the invariant."""
    for re, im, den in s._t.values():
        assert den > 0 and gcd(re, im, den) == 1 and (re or im)
    assert all(type(x) is Fraction for pair in s.terms.values() for x in pair)
    assert s.terms == ref
    assert s == Scalar(ref) and hash(s) == hash(Scalar(ref))


_wide = st.fractions(min_value=-50, max_value=50, max_denominator=60)
_maps = st.dictionaries(st.integers(-3, 3), st.tuples(_wide, _wide), max_size=4)
_monomial_maps = st.builds(lambda k, re, im: {k: (re, im)}, st.integers(-3, 3), _wide,
                           _wide.filter(bool))


@settings(max_examples=150, deadline=None)
@given(_maps, _maps)
def test_kernel_matches_fraction_reference(x, y):
    a, b, rx, ry = Scalar(x), Scalar(y), _ref_clean(x), _ref_clean(y)
    _check(a, rx)
    _check(a + b, _ref_add(rx, ry))
    _check(a + (-b), _ref_add(rx, {k: (-re, -im) for k, (re, im) in ry.items()}))
    _check(-a, {k: (-re, -im) for k, (re, im) in rx.items()})
    _check(a * b, _ref_mul(rx, ry))
    _check(a.conjugate(), {k: (re, -im) for k, (re, im) in rx.items()})
    _check(a * 3, _ref_mul(rx, {0: (Fraction(3), Fraction(0))}))
    _check(a * Fraction(-2, 9), _ref_mul(rx, {0: (Fraction(-2, 9), Fraction(0))}))
    for n in range(4):
        _check(a ** n, _ref_pow(rx, n))


@settings(max_examples=100, deadline=None)
@given(_monomial_maps, _maps, st.integers(-3, 3))
def test_inverse_and_powers_match_fraction_reference(x, y, n):
    a, rx = Scalar(x), _ref_clean(x)
    _check(a.inverse(), _ref_inverse(rx))
    _check(a ** n, _ref_pow(rx, n))
    _check(Scalar(y) * a, _ref_mul(_ref_clean(y), rx))


def _ref_repr(s: Scalar) -> str:
    """repr built from the Fraction view."""
    if s.is_zero():
        return "Scalar(0)"
    bits = []
    for k, (re, im) in sorted(s.terms.items()):
        part = f"({re}{'+' if im >= 0 else ''}{im}i)" if im else f"{re}"
        bits.append(part if k == 0 else f"{part}*pi^{k}")
    return "Scalar(" + " + ".join(bits) + ")"


def _ref_latex(s: Scalar) -> str:
    """latex() built from the Fraction view."""
    if s.is_zero():
        return "0"
    bits = []
    for k, (re, im) in sorted(s.terms.items()):
        if im == 0:
            coef = str(re)
        elif re == 0:
            coef = f"{im} i"
        else:
            coef = f"({re} {'+' if im > 0 else '-'} {abs(im)} i)"
        bits.append(coef if k == 0 else f"{coef} \\pi" if k == 1 else f"{coef} \\pi^{{{k}}}")
    return " + ".join(bits)


def test_text_reduces_each_component():
    # (1 + 2i) / 2 is canonical as a triple, but re/den = 1/2 and im/den = 1
    s = Scalar.of(Fraction(1, 2), 1)
    assert s._t == {0: (1, 2, 2)}
    assert repr(s) == "Scalar((1/2+1i))"
    assert s.latex() == "(1/2 + 1 i)"
    assert repr(Scalar.of(Fraction(-3, 4), Fraction(-1, 2), -2)) == "Scalar((-3/4-1/2i)*pi^-2)"


@settings(max_examples=150, deadline=None)
@given(_maps)
def test_text_matches_fraction_reference(x):
    s = Scalar(x)
    assert repr(s) == _ref_repr(s)
    assert s.latex() == _ref_latex(s)


def test_triples_stay_behind_scalars_module():
    """Only scalars.py reads a Scalar's integer triples (the ._t attribute);
    every other module goes through its methods and accumulators."""
    src = Path(theta_forms.__file__).parent
    readers = sorted(f"{path.name}:{node.lineno}" for path in src.glob("*.py")
                     if path.name != "scalars.py"
                     for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                     if isinstance(node, ast.Attribute) and node.attr == "_t")
    assert readers == []
