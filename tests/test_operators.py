from fractions import Fraction
from itertools import product

from hypothesis import given, settings, strategies as st

from theta_forms.models import ladder_op
from theta_forms.operators import LinOp, _deriv_mono
from theta_forms.poly import Polynomial, X, Xbar, Y, Zvar, _poly, monomial, monomial_mul
from theta_forms.scalars import _ONE, Scalar, _mac, _reduce, _rows

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
def _linops(draw, max_order=4):
    """Up to three terms; derivative orders up to max_order on one or two
    variables, each with a multi-term multiplier."""
    terms = {}
    for _ in range(draw(st.integers(1, 3))):
        D = monomial(draw(st.lists(st.tuples(st.sampled_from(_VARS), st.integers(1, max_order)),
                                   max_size=2)))
        terms[D] = draw(_polys(max_terms=3))
    return LinOp(terms)


def ref_partial(f: Polynomial, v) -> Polynomial:
    """df/dv one monomial at a time: lower v's exponent, times the old one."""
    out = Polynomial.zero()
    for m, c in f.terms.items():
        e = dict(m).get(v, 0)
        if e:
            out = out + Polynomial({monomial([(w, k - (w == v)) for w, k in m]): c * e})
    return out


def ref_partials_apply(op: LinOp, f: Polynomial) -> Polynomial:
    out = Polynomial.zero()
    for D, mult in op.terms.items():
        df = f
        for v, k in D:
            for _ in range(k):
                df = ref_partial(df, v)
        out = out + mult * df
    return out


@settings(max_examples=60, deadline=None)
@given(_linops(), _polys())
def test_apply_matches_repeated_partials(op, f):
    out = op.apply(f)
    assert out == ref_partials_apply(op, f)
    assert all(isinstance(c, Scalar) and not c.is_zero() for c in out.terms.values())


def test_apply_high_orders():
    y = Polynomial.variable(Y(1, 2))
    c = Scalar.of(Fraction(1, 3), Fraction(-2, 5), 1) + Scalar.of(Fraction(3, 4), 0, -1)
    f = Polynomial({monomial([(X(1, 1), 3), (Y(1, 2), 1)]): c})
    mult = x + y * Scalar.of(0, Fraction(1, 2))
    d2 = LinOp({monomial([(X(1, 1), 2)]): mult})
    assert d2.apply(f) == ref_partials_apply(d2, f) == x * y * mult * c * 6
    for order in (4, 5):
        assert LinOp({monomial([(X(1, 1), order)]): mult}).apply(f).is_zero()
    assert LinOp({monomial([(Xbar(1, 1), 1)]): mult}).apply(f).is_zero()


def ref_apply(op: LinOp, f: Polynomial) -> Polynomial:
    """LinOp.apply without its one-acting-term path: every (term, monomial)
    image through the triple accumulator."""
    acc: dict = {}
    for D, mult in op.terms.items():
        for m, c in f.terms.items():
            r = _deriv_mono(D, m)
            if r is not None:
                n, dm = r
                _mac(acc, c, _rows((monomial_mul(m2, dm), c2) for m2, c2 in mult.terms.items()), n)
    return _poly(_reduce(acc))


# Two variables and low degrees, so that the products of different terms
# often land on one monomial (X d/dX and Y d/dY on X^a Y^b, say).
_FEW_VARS = [X(1, 1), Y(1, 2)]
_few_monomials = st.lists(st.tuples(st.sampled_from(_FEW_VARS), st.integers(1, 3)),
                          max_size=2).map(monomial)


@st.composite
def _colliding_linops(draw):
    terms = {}
    for _ in range(draw(st.integers(1, 4))):
        D = draw(_few_monomials)
        terms[D] = Polynomial({draw(_few_monomials): draw(_scalars())
                               for _ in range(draw(st.integers(1, 2)))})
    return LinOp(terms)


@settings(max_examples=150, deadline=None)
@given(_colliding_linops(),
       st.one_of(st.builds(lambda m, c: Polynomial({m: c}), _few_monomials, _scalars()),
                 _polys()))
def test_apply_matches_the_accumulator_loop(op, f):
    out = op.apply(f)
    assert out == ref_apply(op, f) == ref_partials_apply(op, f)
    assert all(isinstance(c, Scalar) and not c.is_zero() for c in out.terms.values())


def test_apply_with_one_acting_term_and_with_colliding_terms():
    y = Polynomial.variable(Y(1, 2))
    c = Scalar.of(Fraction(2, 3), -1, -1) + Scalar.of(0, Fraction(1, 5), 2)
    f = Polynomial({monomial([(X(1, 1), 3), (Y(1, 2), 1)]): c})
    mult = x * Scalar.of(Fraction(1, 2), 1) + y * Scalar.of(3, 0, 1)
    # one acting term, n = 3 * 2 and a two-term c; the d/dXbar term cannot act
    one = LinOp({monomial([(X(1, 1), 2)]): mult, monomial([(Xbar(1, 1), 1)]): mult})
    assert one.apply(f) == ref_apply(one, f) == mult * x * y * c * 6
    # the multiplier's Scalars come back as they are when n * c = 1
    unit = Polynomial({monomial([(X(1, 1), 1)]): Scalar.one()})
    assert LinOp.partial(X(1, 1)).apply(unit).terms == {(): Scalar.one()}
    # X d/dX and Y d/dY both send X^3 Y to a multiple of X^3 Y: 3 - 3 = 0
    euler = LinOp({monomial([(X(1, 1), 1)]): x, monomial([(Y(1, 2), 1)]): y * -3})
    assert euler.apply(f).terms == {} and ref_apply(euler, f).is_zero()
    euler = LinOp({monomial([(X(1, 1), 1)]): x, monomial([(Y(1, 2), 1)]): y})
    assert euler.apply(f) == ref_apply(euler, f) == f * 4


# A one-term input c * m takes apply's direct path, which writes each product
# straight into the output unless two terms' images meet; these tests hold
# it to both references on the operators most likely to make images meet.
@st.composite
def _multiplications(draw):
    """Multiplication-only operators: one D = () term."""
    return LinOp({(): Polynomial({draw(_few_monomials): draw(_scalars())
                                  for _ in range(draw(st.integers(1, 3)))})})


@st.composite
def _derivatives(draw):
    """Derivative-only operators: constant multipliers on nonzero D."""
    return LinOp({draw(_few_monomials.filter(bool)): Polynomial.constant(draw(_scalars()))
                  for _ in range(draw(st.integers(1, 3)))})


@st.composite
def _meeting(draw):
    """(op, m) with two or three terms whose images of m meet: each term D
    divides m and takes the multiplier monomial extra * D, so each sends m
    to a multiple of extra * m, beside other multiplier monomials."""
    m = draw(_few_monomials.filter(bool))
    extra = draw(_few_monomials)
    divisors = [monomial(pairs) for pairs in product(*[[(v, k) for k in range(e + 1)]
                                                        for v, e in m])]
    terms = {}
    for D in draw(st.lists(st.sampled_from(divisors), min_size=2, max_size=3, unique=True)):
        mult = {draw(_few_monomials): draw(_scalars()) for _ in range(draw(st.integers(0, 1)))}
        mult[monomial_mul(extra, D)] = draw(_scalars())
        terms[D] = Polynomial(mult)
    return LinOp(terms), m


# the kernel's coefficient is scalars._ONE; an equal fresh one must act alike
_coefficients = st.one_of(st.just(_ONE), st.builds(Scalar.one),
                          st.builds(Scalar.of, st.integers(-3, 3).filter(bool)), _scalars())


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.tuples(st.one_of(_colliding_linops(), _multiplications(), _derivatives()),
                           _few_monomials),
                 _meeting()),
       _coefficients)
def test_one_monomial_images_match_both_references(op_and_monomial, c):
    op, m = op_and_monomial
    f = Polynomial({m: c})
    out = op.apply(f)
    assert out == ref_apply(op, f) == ref_partials_apply(op, f)
    assert all(isinstance(s, Scalar) and not s.is_zero() for s in out.terms.values())


def test_one_monomial_images_that_meet_are_summed():
    one = Polynomial.one()
    # X d/dX + 1 on X: both terms give X, so the image is 2X, not X
    for c in (_ONE, Scalar.one(), Scalar.of(Fraction(-2, 3), 1, 2)):
        f = Polynomial({monomial([(X(1, 1), 1)]): c})
        op = LinOp({(): one, monomial([(X(1, 1), 1)]): x})
        assert op.apply(f) == ref_apply(op, f) == f * 2
        # X d/dX - 1 on X: the images meet and cancel
        op = LinOp({(): -one, monomial([(X(1, 1), 1)]): x})
        assert op.apply(f).terms == {} and ref_apply(op, f).is_zero()
    # a meeting after a first term whose image is written: X^2 d/dX + X on X
    f = Polynomial({monomial([(X(1, 1), 1)]): _ONE})
    op = LinOp({(): x + one, monomial([(X(1, 1), 1)]): x ** 2})
    assert op.apply(f) == ref_apply(op, f) == x * x * 2 + x


def test_one_monomial_image_with_a_falling_factorial():
    y = Polynomial.variable(Y(1, 2))
    mult = x * Scalar.of(Fraction(1, 2), 1) + y * Scalar.of(3, 0, 1)
    cube = monomial([(X(1, 1), 3)])
    d2 = LinOp({monomial([(X(1, 1), 2)]): mult})
    # d^2/dX^2 X^3 = 6 X: each multiplier coefficient scaled once by 6
    for c in (_ONE, Scalar.one()):
        f = Polynomial({cube: c})
        assert d2.apply(f) == ref_partials_apply(d2, f) == mult * x * 6
    # n * c = 6 * (1/6) = 1: the multiplier's Scalars come back as they are
    d3 = LinOp({monomial([(X(1, 1), 3)]): mult})
    out = d3.apply(Polynomial({cube: Scalar.of(Fraction(1, 6))}))
    assert out == mult
    assert all(out.terms[m] is s for m, s in mult.terms.items())


def test_one_monomial_sent_to_zero():
    f = Polynomial({monomial([(X(1, 1), 2)]): _ONE})
    for op in (LinOp.partial(Y(1, 2)), LinOp.partial(X(1, 1), 3),
               LinOp({monomial([(X(1, 1), 3)]): x, monomial([(Xbar(1, 1), 1)]): x})):
        assert op.apply(f).terms == {} and ref_apply(op, f).is_zero()
    assert LinOp.zero().apply(f).terms == {}


@settings(max_examples=80, deadline=None)
@given(_linops(max_order=2), _linops(max_order=2))
def test_commutator_is_the_difference_of_compositions(a, b):
    # commutator leaves out the beta = 0 Leibniz terms; the result must still
    # be term for term the difference of the two full compositions
    assert a.commutator(b) == a.compose(b) - b.compose(a)
    assert b.commutator(a) == -a.commutator(b)
    assert a.commutator(a).is_zero()
