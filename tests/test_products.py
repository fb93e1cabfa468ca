"""Every sum of products that runs through the triple accumulator
(Polynomial.__mul__, Form.wedge, LinOp.compose, op_sum) against a plain
loop that multiplies and adds one canonical Scalar at a time."""

from fractions import Fraction
from math import comb, perm

from hypothesis import given, settings
from hypothesis import strategies as st

from theta_forms.exterior import Form, wedge_monomial, xi, xibar
from theta_forms.operators import LinOp, op_sum
from theta_forms.poly import Polynomial, X, Xbar, Y, monomial
from theta_forms.scalars import Scalar

VARIABLES = [X(1, 1), X(2, 1), Y(1, 1), Xbar(1, 1)]
GENERATORS = [xi(1, 1), xi(2, 1), xibar(1, 1), xibar(2, 1)]

# non-unit denominators and several pi exponents per coefficient
rationals = st.fractions(min_value=-3, max_value=3, max_denominator=6)
scalars = st.dictionaries(st.integers(-2, 2), st.tuples(rationals, rationals),
                          max_size=3).map(Scalar)
monomials = st.lists(st.tuples(st.sampled_from(VARIABLES), st.integers(1, 3)),
                     max_size=3).map(monomial)
polys = st.dictionaries(monomials, scalars, max_size=4).map(Polynomial)
wedges = st.lists(st.sampled_from(GENERATORS), max_size=3, unique=True)
forms = st.lists(st.tuples(wedges, polys), max_size=3).map(lambda terms: Form(ref_form_sum(terms)))
derivs = st.lists(st.tuples(st.sampled_from(VARIABLES), st.integers(1, 2)),
                  max_size=2).map(monomial)
linops = st.dictionaries(derivs, polys, max_size=3).map(LinOp)


def ref_add(out: dict, key, m, c: Scalar) -> None:
    inner = out.setdefault(key, {})
    inner[m] = inner.get(m, Scalar.zero()) + c


def ref_polys(out: dict) -> dict:
    return {key: Polynomial(inner) for key, inner in out.items()}


def ref_form_sum(terms) -> dict:
    """{canonical wedge: Polynomial} of (generator list, Polynomial) pairs,
    each wedge sorted with its sign."""
    out: dict = {}
    for gens, p in terms:
        sign, w = wedge_monomial(gens)
        if sign:
            for m, c in p.terms.items():
                ref_add(out, w, m, c * sign)
    return ref_polys(out)


def ref_mul(p1: Polynomial, p2: Polynomial) -> Polynomial:
    out: dict = {}
    for m1, c1 in p1.terms.items():
        for m2, c2 in p2.terms.items():
            ref_add(out, None, monomial(list(m1) + list(m2)), c1 * c2)
    return ref_polys(out).get(None, Polynomial.zero())


def ref_wedge(f: Form, g: Form) -> Form:
    out: dict = {}
    for w1, p1 in f.terms.items():
        for w2, p2 in g.terms.items():
            sign, w = wedge_monomial(list(w1) + list(w2))
            if sign:
                for m1, c1 in p1.terms.items():
                    for m2, c2 in p2.terms.items():
                        ref_add(out, w, monomial(list(m1) + list(m2)), c1 * c2 * sign)
    return Form(ref_polys(out))


def ref_deriv(D, m):
    """(falling-factorial coefficient, monomial) of D applied to m, or None."""
    exps, coef = dict(m), 1
    for v, k in D:
        e = exps.get(v, 0)
        if e < k:
            return None
        coef *= perm(e, k)
        exps[v] = e - k
    return coef, monomial(exps.items())


def ref_splits(D):
    """(beta, multinomial coefficient, D - beta) for every beta <= D."""
    out = [((), 1, ())]
    for v, k in D:
        out = [(beta + ((v, b),), coef * comb(k, b), rest + ((v, k - b),))
               for beta, coef, rest in out for b in range(k + 1)]
    return [(monomial(beta), coef, monomial(rest)) for beta, coef, rest in out]


def ref_compose(A: LinOp, B: LinOp) -> LinOp:
    out: dict = {}
    for D1, m1 in A.terms.items():
        for D2, m2 in B.terms.items():
            for beta, coef, rest in ref_splits(D1):
                for m, c in m2.terms.items():
                    r = ref_deriv(beta, m)
                    if r is None:
                        continue
                    for mu, cu in m1.terms.items():
                        ref_add(out, monomial(list(rest) + list(D2)),
                                monomial(list(mu) + list(r[1])), cu * c * Scalar.of(coef * r[0]))
    return LinOp(ref_polys(out))


def ref_op_sum(ops) -> LinOp:
    out: dict = {}
    for op in ops:
        for D, p in op.terms.items():
            for m, c in p.terms.items():
                ref_add(out, D, m, c)
    return LinOp(ref_polys(out))


def assert_canonical(p: Polynomial):
    assert all(isinstance(c, Scalar) and not c.is_zero() for c in p.terms.values())


@settings(max_examples=40, deadline=None)
@given(polys, polys)
def test_polynomial_product_matches_plain_loop(p, q):
    assert p * q == ref_mul(p, q)
    assert_canonical(p * q)
    # the cross terms of (p + q)(p - q) cancel
    assert (p + q) * (p - q) == ref_mul(p, p) - ref_mul(q, q)
    assert_canonical((p + q) * (p - q))


@settings(max_examples=40, deadline=None)
@given(forms, forms)
def test_wedge_matches_plain_loop(f, g):
    assert f.wedge(g) == ref_wedge(f, g)
    assert g.wedge(f) == ref_wedge(g, f)
    assert (f + g).wedge(f - g) == ref_wedge(f + g, f - g)
    for p in f.wedge(g).terms.values():
        assert not p.is_zero()
        assert_canonical(p)


def test_wedge_with_a_negative_merge_sign():
    # xibar_1 ^ xi_1 = -(xi_1 ^ xibar_1), coefficients multiplied exactly
    a = Polynomial({monomial([(X(1, 1), 1)]): Scalar({0: (Fraction(1, 2), 1), -1: (3, 0)})})
    b = Polynomial({(): Scalar.of(Fraction(2, 3), -1, 2)})
    f, g = Form({(xibar(1, 1),): a}), Form({(xi(1, 1),): b})
    assert f.wedge(g) == ref_wedge(f, g) == Form({(xi(1, 1), xibar(1, 1)): -ref_mul(a, b)})


@settings(max_examples=40, deadline=None)
@given(linops, linops, polys)
def test_compose_matches_plain_loop(A, B, f):
    C = A.compose(B)
    assert C == ref_compose(A, B)
    assert C.apply(f) == A.apply(B.apply(f))
    for p in C.terms.values():
        assert not p.is_zero()
        assert_canonical(p)


@settings(max_examples=40, deadline=None)
@given(st.lists(linops, max_size=4))
def test_op_sum_matches_plain_loop(ops):
    assert op_sum(ops) == ref_op_sum(ops)
    # an operator and its negative cancel
    assert op_sum(ops + [-op for op in ops]) == LinOp.zero()
    assert op_sum(ops + [-op for op in ops]).terms == {}
