from hypothesis import given, settings, strategies as st

from theta_forms.poly import (KINDS, Polynomial, VariableId, X, Xbar, Y, monomial,
                              monomial_mul)
from theta_forms.scalars import Scalar

x11 = Polynomial.variable(X(1, 1))
y11 = Polynomial.variable(Y(1, 1))


def test_additive_inverse():
    assert (x11 + (-x11)).is_zero()


def test_multiplicative_identity():
    assert x11 * Polynomial.one() == x11


def test_binomial_square():
    lhs = (x11 + y11) ** 2
    rhs = x11 ** 2 + x11 * y11 * 2 + y11 ** 2
    assert lhs == rhs


def test_partial_derivative():
    assert (x11 ** 2).partial(X(1, 1)) == x11 * 2
    assert x11.partial(Y(1, 1)).is_zero()


def test_canonicalization_idempotent():
    p = x11 * y11 + y11 * x11  # same monomial twice
    again = Polynomial(dict(p.terms))
    assert again == p
    assert len(p.terms) == 1


def test_variable_order_fixed():
    # kinds rank X < Y < Xbar; inside a kind (col, row) lexicographic
    m = monomial([(Y(1, 1), 1), (X(2, 1), 1), (X(1, 2), 1), (Xbar(1, 1), 1)])
    assert [v.kind for v, _ in m] == ["X", "X", "Y", "Xbar"]
    assert m[0][0] == X(2, 1) and m[1][0] == X(1, 2)


def test_conjugate_swaps_kinds():
    p = x11 * Polynomial.constant(Scalar.i_unit())
    c = p.conjugate()
    assert c == Polynomial.variable(Xbar(1, 1)).scale(Scalar.of(0, -1))
    assert c.conjugate() == p


def test_map_variables_reindexes():
    p = x11 * y11
    shifted = p.map_variables(lambda v: VariableId.from_token(f"{v.kind}:{v.row}:{v.col + 2}"))
    assert shifted == Polynomial.variable(X(1, 3)) * Polynomial.variable(Y(1, 3))


_vars = st.sampled_from([X(1, 1), X(2, 1), Y(1, 1), Y(1, 2)])
_polys = st.builds(
    lambda terms: Polynomial({monomial(mono): Scalar.of(c) for mono, c in terms}),
    st.lists(st.tuples(st.lists(st.tuples(_vars, st.integers(1, 2)), max_size=2),
                       st.fractions(min_value=-3, max_value=3, max_denominator=4)),
             max_size=3),
)


@settings(max_examples=60, deadline=None)
@given(_polys, _polys, _polys)
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@settings(max_examples=40, deadline=None)
@given(_polys, _polys)
def test_leibniz_rule(a, b):
    v = X(1, 1)
    lhs = (a * b).partial(v)
    rhs = a.partial(v) * b + a * b.partial(v)
    assert lhs == rhs


def ref_var_key(v):
    """The variable order from the public attributes, never from the tuple
    layout: kinds ranked X < Y < Xbar < Ybar < Z, then (col, row)."""
    return (KINDS.index(v.kind), v.col, v.row)


def _var(kind, row, col):
    return VariableId.from_token(f"{kind}:{row}:{col}")


_any_var = st.builds(_var, st.sampled_from(KINDS), st.integers(1, 3), st.integers(1, 3))
_monomials = st.lists(st.tuples(_any_var, st.integers(1, 3)), max_size=6).map(monomial)


@settings(max_examples=200, deadline=None)
@given(_monomials, _monomials)
def test_merge_product_matches_dict_and_sort(m1, m2):
    assert monomial_mul(m1, m2) == monomial(list(m1) + list(m2))


def ref_monomial_mul(m1, m2):
    """Exponents summed in a dict, then sorted by ref_var_key."""
    acc = {}
    for v, e in (*m1, *m2):
        acc[v] = acc.get(v, 0) + e
    return tuple(sorted(acc.items(), key=lambda t: ref_var_key(t[0])))


# every kind, rows and columns up to two digits
_token_var = st.builds(_var, st.sampled_from(KINDS), st.integers(1, 12), st.integers(1, 12))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(_token_var, st.integers(1, 3)), min_size=1, max_size=8),
       st.lists(st.tuples(_token_var, st.integers(1, 3)), max_size=8))
def test_variable_order_is_the_reference_order(pairs1, pairs2):
    vs = [v for v, _ in pairs1 + pairs2]
    for a in vs:
        for b in vs:
            assert (a < b) == (ref_var_key(a) < ref_var_key(b))
    assert sorted(vs) == sorted(vs, key=ref_var_key)
    m1, m2 = monomial(pairs1), monomial(pairs2)
    assert m1 == ref_monomial_mul(pairs1, ())
    assert monomial_mul(m1, m2) == ref_monomial_mul(m1, m2)
    conj = {"X": "Xbar", "Xbar": "X", "Y": "Ybar", "Ybar": "Y", "Z": "Z"}
    for v in vs:
        assert VariableId.from_token(v.token()) == v
        bar = v.conjugate()
        assert bar.conjugate() == v and (bar.row, bar.col) == (v.row, v.col)
        assert bar.kind == conj[v.kind]
