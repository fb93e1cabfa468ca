from fractions import Fraction
from itertools import product

from hypothesis import given, settings, strategies as st

from theta_forms.models import ladder_op
from theta_forms.operators import LinOp
from theta_forms.poly import Polynomial, X, Xbar, Y, Zvar, monomial
from theta_forms.scalars import Scalar

x = Polynomial.variable(X(1, 1))
dx = LinOp.partial(X(1, 1))
mx = LinOp.mul_by(x)


def test_apply_derivative():
    assert dx.apply(x ** 2) == x * 2


def test_euler_operator_kills_constants():
    euler = mx.compose(dx)
    assert euler.apply(Polynomial.one()).is_zero()
    assert euler.apply(x ** 3) == x ** 3 * 3


def test_heisenberg_commutator():
    assert dx.commutator(mx) == LinOp.identity()


def test_normal_order_merges():
    a = mx.compose(dx) + mx.compose(dx)
    assert a == mx.compose(dx).scale(2)
    assert len(a.terms) == 1


def test_composition_via_leibniz():
    # d/dx after x-multiplication = identity + x d/dx, in normal order
    assert dx.compose(mx) == LinOp.identity() + mx.compose(dx)


def test_ladder_commutators_vanish_off_diagonal():
    ap1 = ladder_op("Aplus", 1, 2)
    am2 = ladder_op("Aminus", 2, 2)
    assert ap1.commutator(am2).is_zero()


def test_ladder_commutator_diagonal():
    ap = ladder_op("Aplus", 1, 1)
    am = ladder_op("Aminus", 1, 1)
    assert ap.commutator(am) == LinOp.identity().scale(Scalar.of(-4, 0, 1))


def _monomials_up_to(deg):
    vars_ = [Zvar(1), Zvar(2)]
    for exps in product(range(deg + 1), repeat=2):
        if sum(exps) <= deg:
            yield Polynomial({monomial(list(zip(vars_, exps))): Scalar.one()})


def test_commutator_agrees_with_application():
    # [A, B] applied to m equals A(B m) - B(A m) for all monomials, deg <= 4
    ops = [ladder_op("Aplus", 1, 2), ladder_op("Aminus", 2, 2),
           ladder_op("H", 1, 2),
           LinOp.mul_by(Polynomial.variable(Zvar(1))).compose(LinOp.partial(Zvar(2)))]
    for a in ops:
        for b in ops:
            c = a.commutator(b)
            for m in _monomials_up_to(4):
                direct = a.apply(b.apply(m)) - b.apply(a.apply(m))
                assert c.apply(m) == direct


_ops = st.sampled_from([dx, mx, LinOp.identity(), mx.compose(dx),
                        LinOp.partial(X(1, 1), 2), LinOp.mul_by(x ** 2)])


@settings(max_examples=40, deadline=None)
@given(_ops, _ops, _ops)
def test_composition_associative(a, b, c):
    assert a.compose(b).compose(c) == a.compose(b.compose(c))


@settings(max_examples=40, deadline=None)
@given(_ops, _ops)
def test_composition_matches_application(a, b):
    f = x ** 3 + x * 2 + Polynomial.one()
    assert a.compose(b).apply(f) == a.apply(b.apply(f))


# LinOp.apply works on monomials directly; these tests hold it to the
# definition it replaced: repeated Polynomial.partial, then the Polynomial
# product, summed over the terms.
_VARS = [X(1, 1), X(2, 1), Y(1, 2), Xbar(1, 1)]
_rationals = st.fractions(min_value=-3, max_value=3, max_denominator=6)


@st.composite
def _scalars(draw):
    """Gaussian rationals with non-unit denominators over several pi exponents."""
    out = Scalar.zero()
    for k in draw(st.lists(st.integers(-2, 2), min_size=1, max_size=3, unique=True)):
        out = out + Scalar.of(draw(_rationals), draw(_rationals), k)
    return out


@st.composite
def _polys(draw, max_terms=4):
    terms = {}
    for _ in range(draw(st.integers(1, max_terms))):
        mono = monomial(draw(st.lists(st.tuples(st.sampled_from(_VARS), st.integers(1, 3)),
                                      max_size=3)))
        terms[mono] = draw(_scalars())
    return Polynomial(terms)


@st.composite
def _linops(draw):
    """Up to three terms; derivative orders up to 4 on one or two variables,
    each with a multi-term multiplier."""
    terms = {}
    for _ in range(draw(st.integers(1, 3))):
        D = monomial(draw(st.lists(st.tuples(st.sampled_from(_VARS), st.integers(1, 4)),
                                   max_size=2)))
        terms[D] = draw(_polys(max_terms=3))
    return LinOp(terms)


def _ref_apply(op: LinOp, f: Polynomial) -> Polynomial:
    out = Polynomial.zero()
    for D, mult in op.terms.items():
        df = f
        for v, k in D:
            for _ in range(k):
                df = df.partial(v)
        out = out + mult * df
    return out


@settings(max_examples=60, deadline=None)
@given(_linops(), _polys())
def test_apply_matches_repeated_partials(op, f):
    out = op.apply(f)
    assert out == _ref_apply(op, f)
    assert all(isinstance(c, Scalar) and not c.is_zero() for c in out.terms.values())


def test_apply_high_orders():
    y = Polynomial.variable(Y(1, 2))
    c = Scalar.of(Fraction(1, 3), Fraction(-2, 5), 1) + Scalar.of(Fraction(3, 4), 0, -1)
    f = Polynomial({monomial([(X(1, 1), 3), (Y(1, 2), 1)]): c})
    mult = x + y * Scalar.of(0, Fraction(1, 2))
    d2 = LinOp({monomial([(X(1, 1), 2)]): mult})
    assert d2.apply(f) == _ref_apply(d2, f) == x * y * mult * c * 6
    for order in (4, 5):
        assert LinOp({monomial([(X(1, 1), order)]): mult}).apply(f).is_zero()
    assert LinOp({monomial([(Xbar(1, 1), 1)]): mult}).apply(f).is_zero()
