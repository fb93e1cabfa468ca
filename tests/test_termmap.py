"""The one linear structure behind Polynomial, Form and LinOp (poly.TermMap):
sums, differences, negations and scaling keep the subclass and drop
cancelled keys, equal values hash equal, and equality never crosses types.
A product with a coefficient is that scaling; any other product of a form
is a TypeError."""

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from theta_forms.exterior import Form, wedge_monomial, xi, xibar
from theta_forms.operators import LinOp
from theta_forms.poly import Polynomial, TermMap, X, Xbar, Y, monomial
from theta_forms.scalars import Scalar

VARIABLES = [X(1, 1), X(2, 1), Y(1, 1), Xbar(1, 1)]
GENERATORS = [xi(1, 1), xi(2, 1), xibar(1, 1)]

rationals = st.fractions(min_value=-3, max_value=3, max_denominator=4)
scalars = st.builds(Scalar.of, rationals, rationals, st.integers(-1, 1))
monomials = st.lists(st.tuples(st.sampled_from(VARIABLES), st.integers(1, 2)),
                     max_size=2).map(monomial)
polys = st.dictionaries(monomials, scalars, max_size=3).map(Polynomial)
wedges = st.lists(st.sampled_from(GENERATORS), max_size=2, unique=True).map(
    lambda gens: wedge_monomial(gens)[1])
forms = st.dictionaries(wedges, polys, max_size=3).map(Form)
linops = st.dictionaries(monomials, polys, max_size=3).map(LinOp)
values = st.one_of(polys, forms, linops)

pairs = st.one_of(st.tuples(polys, polys), st.tuples(forms, forms), st.tuples(linops, linops))


def assert_canonical(t: TermMap):
    assert all(not c.is_zero() for c in t.terms.values())


@settings(max_examples=60, deadline=None)
@given(pairs)
def test_sums_and_negations_keep_the_subclass(pair):
    a, b = pair
    cls = type(a)
    for out in (a + b, a - b, -a, cls.zero()):
        assert type(out) is cls
        assert_canonical(out)
    assert a + b == b + a
    assert (a + b) - b == a
    assert a - a == cls.zero() and (a - a).is_zero()
    assert -(-a) == a


@settings(max_examples=60, deadline=None)
@given(values, st.data())
def test_a_sum_that_cancels_drops_its_key(a, data):
    if a.is_zero():
        return
    key = data.draw(st.sampled_from(sorted(a.terms, key=repr)))
    out = a + type(a)({key: -a.terms[key]})
    assert key not in out.terms
    assert set(out.terms) == set(a.terms) - {key}
    assert_canonical(out)


@settings(max_examples=60, deadline=None)
@given(pairs)
def test_equal_values_hash_equal(pair):
    a, b = pair
    lhs, rhs = a + b, b + a
    assert lhs == rhs and hash(lhs) == hash(rhs)
    rebuilt = type(a)(dict(reversed(list(a.terms.items()))))
    assert rebuilt == a and hash(rebuilt) == hash(a)
    assert len({lhs, rhs, (a + b) - b + b}) == 1


@settings(max_examples=40, deadline=None)
@given(st.dictionaries(monomials, polys, max_size=3))
def test_equality_is_type_strict(terms):
    assert Form(terms) != LinOp(terms)
    assert LinOp(terms) != Form(terms)


# Gaussian coefficients with non-unit denominators and powers of pi
factors = st.one_of(st.integers(-3, 3), rationals,
                    st.builds(Scalar.of, rationals, rationals, st.integers(-2, 2)))


@settings(max_examples=80, deadline=None)
@given(values, factors)
def test_scale_keeps_the_subclass_and_scales_term_by_term(a, c):
    out = a.scale(c)
    assert type(out) is type(a)
    assert_canonical(out)
    sc = c if isinstance(c, Scalar) else Scalar.of(c)
    # a Polynomial coefficient is multiplied as a product of polynomials,
    # not through scale
    expected = {k: v * sc if type(a) is Polynomial else v * Polynomial.constant(sc)
                for k, v in a.terms.items()}
    assert out.terms == {k: v for k, v in expected.items() if not v.is_zero()}
    if c == 0:
        assert out.is_zero()


@settings(max_examples=40, deadline=None)
@given(forms, polys)
def test_a_form_scales_by_a_polynomial(f, p):
    out = f.scale(p)
    assert type(out) is Form
    assert out == Form({w: q * p for w, q in f.terms.items()})


_X11 = Polynomial.variable(X(1, 1))
OPERANDS = {"int": 3, "Fraction": Fraction(-2, 5), "Scalar": Scalar.of(1, 2, -1),
            "Polynomial": _X11 + Polynomial.constant(Scalar.i_unit()),
            "Form": Form({(xi(1, 1),): _X11})}
# every ordered pair with a library operand, except the two ring products
PRODUCT_PAIRS = [(a, b) for a, b in product(OPERANDS, repeat=2)
                 if {a, b} & {"Scalar", "Polynomial", "Form"}
                 and (a, b) not in {("Scalar", "Scalar"), ("Polynomial", "Polynomial")}]


@pytest.mark.parametrize("left,right", PRODUCT_PAIRS)
def test_a_product_is_a_scaling_or_a_type_error(left, right):
    a, b = OPERANDS[left], OPERANDS[right]
    if "Form" in (left, right):
        # the wedge is the product of forms; a coefficient goes through scale
        with pytest.raises(TypeError):
            a * b
        return
    if "Polynomial" in (left, right):
        p, c = (a, b) if left == "Polynomial" else (b, a)
        expected = p.scale(c)
    else:
        s, c = (a, b) if left == "Scalar" else (b, a)
        expected = Polynomial.constant(s).scale(c).constant_term()
    out = a * b
    assert type(out) is type(expected) and out == expected


def test_zero_values_of_different_types_differ():
    assert Polynomial() != Form()
    assert Form() != LinOp() and LinOp() != Polynomial.zero()
    assert Form.zero() == Form() and type(LinOp.zero()) is LinOp


def test_zero_coefficients_are_dropped_on_construction():
    assert Polynomial({(): 0, monomial([(X(1, 1), 1)]): 2}).terms == {
        monomial([(X(1, 1), 1)]): Scalar.of(2)}
    assert Form({(xi(1, 1),): Polynomial.zero()}).terms == {}
    assert LinOp({(): Polynomial.zero()}).terms == {}


@pytest.mark.parametrize("cls", [Polynomial, Form, LinOp])
def test_linear_structure_is_defined_once(cls):
    own = set(vars(cls))
    assert not own & {"__add__", "__sub__", "__neg__", "__eq__", "__hash__", "is_zero", "zero",
                      "scale"}
    assert cls.__slots__ == ()
