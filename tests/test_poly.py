from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from theta_forms.exterior import WedgeGen, xi, xibar
from theta_forms.operators import LinOp
from theta_forms.poly import (KINDS, Polynomial, VariableId, X, Xbar, Y, Ybar, Zvar, monomial,
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
    assert LinOp.partial(X(1, 1)).apply(x11 ** 2) == x11 * 2
    assert LinOp.partial(Y(1, 1)).apply(x11).is_zero()


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


def test_map_variables_refuses_a_relabel_under_which_monomials_meet():
    """A relabel renames keys and never sums: under X21 -> X11 the two
    monomials of X11 +- X21 meet, which a summing relabel would turn into
    2 X11 and 0."""
    x21 = Polynomial.variable(X(2, 1))

    def onto_x11(v):
        return X(1, 1) if v == X(2, 1) else v

    for p in (x11 + x21, x11 - x21):
        with pytest.raises(ValueError, match="not injective"):
            p.map_variables(onto_x11)
    # within one monomial the exponents add: X11 X21 -> X11^2
    assert (x11 * x21).map_variables(onto_x11) == x11 * x11


def ref_map_variables(p, fn):
    """map_variables as a sum: each relabelled term added to the total."""
    out = {}
    for m, c in p.terms.items():
        mm = monomial([(fn(v), e) for v, e in m])
        out[mm] = out.get(mm, Scalar.zero()) + c
    return Polynomial(out)


def ref_conjugate(p):
    """Conjugation as a summing relabel, then a second pass over the
    coefficients."""
    swapped = ref_map_variables(p, VariableId.conjugate)
    return Polynomial({m: c.conjugate() for m, c in swapped.terms.items()})


_POOL = [VariableId(rank, col, row) for rank in range(5) for col in (1, 2) for row in (1, 2)]
_pool_coeffs = st.builds(Scalar.of, st.fractions(min_value=-3, max_value=3, max_denominator=4),
                         st.integers(-2, 2), st.integers(-1, 1))
_pool_polys = st.builds(
    lambda terms: Polynomial({monomial(mono): c for mono, c in terms}),
    st.lists(st.tuples(st.lists(st.tuples(st.sampled_from(_POOL), st.integers(1, 3)), max_size=3),
                       _pool_coeffs), max_size=6))


@settings(max_examples=100, deadline=None)
@given(_pool_polys, st.permutations(_POOL))
def test_map_variables_is_a_relabel(p, image):
    """Under a permutation of the variables, map_variables equals the
    summing reference, undoes under the inverse, and keeps each
    coefficient object; conjugate equals its reference and is an
    involution."""
    fn, inverse = dict(zip(_POOL, image)).__getitem__, dict(zip(image, _POOL)).__getitem__
    q = p.map_variables(fn)
    assert q == ref_map_variables(p, fn)
    assert q.map_variables(inverse) == p
    for m, c in p.terms.items():
        assert q.terms[monomial([(fn(v), e) for v, e in m])] is c
    assert p.conjugate() == ref_conjugate(p)
    assert p.conjugate().conjugate() == p


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
    d = LinOp.partial(X(1, 1)).apply
    assert d(a * b) == d(a) * b + a * d(b)


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


_A, _B, _C = _var("X", 1, 1), _var("Y", 2, 1), _var("Xbar", 1, 3)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(_token_var, st.integers(1, 3)), min_size=1, max_size=8),
       st.lists(st.tuples(_token_var, st.integers(1, 3)), max_size=8))
# the first monomial longer; an empty side; a shared variable at either end
@example([(_A, 1), (_B, 2), (_C, 1)], [(_var("Z", 2, 1), 1)])
@example([(_A, 1), (_B, 1)], [])
@example([], [(_A, 1), (_B, 1)])
@example([(_A, 1), (_B, 1), (_C, 1)], [(_A, 2)])
@example([(_C, 3)], [(_A, 1), (_B, 1), (_C, 1)])
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


def test_a_label_spells_itself():
    """Every kind of both label classes, on row 1 and column 2: the spellings
    the reprs, the LaTeX writer and the JSON tokens print, conjugation, and
    the error a foreign kind raises."""
    spelled = {  # kind: (name, latex, conjugate kind)
        "X": ("X12", "X_{1,2}", "Xbar"), "Y": ("Y12", "Y_{1,2}", "Ybar"),
        "Xbar": ("Xbar12", r"\overline{X}_{1,2}", "X"),
        "Ybar": ("Ybar12", r"\overline{Y}_{1,2}", "Y"), "Z": ("Z12", "x_{1,2}", "Z"),
        "xi": ("xi12", r"\xi_{1,2}", "xibar"),
        "xibar": ("xibar12", r"\overline{\xi}_{1,2}", "xi"),
    }
    labels = [X(1, 2), Y(1, 2), Xbar(1, 2), Ybar(1, 2), VariableId.from_token("Z:1:2"),
              xi(1, 2), xibar(1, 2)]
    assert [g.kind for g in labels] == list(spelled) == [*KINDS, "xi", "xibar"]
    for g in labels:
        # a subclass that forgets __slots__ = () gives each label a __dict__
        assert not hasattr(g, "__dict__"), g
        name, tex, conj = spelled[g.kind]
        assert (g.name(), g.latex(), g.token()) == (name, tex, f"{g.kind}:1:2")
        back = type(g).from_token(g.token())
        assert type(back) is type(g) and back == g
        bar = g.conjugate()
        assert type(bar) is type(g) and (bar.kind, bar.row, bar.col) == (conj, 1, 2)
        assert bar.conjugate() == g
    with pytest.raises(ValueError, match=r"^unknown variable kind 'Q'$"):
        VariableId.from_token("Q:1:1")
    with pytest.raises(ValueError, match=r"^unknown wedge generator kind 'zeta'$"):
        WedgeGen.from_token("zeta:1:1")


def test_the_label_factories_take_only_ints():
    for factory in (X, Y, Xbar, Ybar, xi, xibar):
        for i, j in ((1.0, 1), (1, 2.0), (True, 1), (1, False), (Fraction(1), 1)):
            with pytest.raises(TypeError, match="^label indices must be ints"):
                factory(i, j)
    for j in (1.0, True, Fraction(1)):
        with pytest.raises(TypeError, match="^label indices must be ints"):
            Zvar(j)


def test_a_wedge_generator_is_not_a_variable():
    """xi(1, 1) == X(1, 1) as tuples, so a monomial checks the type: neither
    a polynomial variable nor a derivative takes a wedge generator."""
    assert xi(1, 1) == X(1, 1) and hash(xi(1, 1)) == hash(X(1, 1))
    for g in (xi(1, 1), xibar(2, 1)):
        for build in (Polynomial.variable, LinOp.partial, lambda v: monomial([(v, 1)])):
            with pytest.raises(TypeError, match="variables are VariableIds"):
                build(g)
    with pytest.raises(TypeError, match="variables are VariableIds"):
        monomial([(X(1, 1), 1), ((0, 1, 1), 2)])
    with pytest.raises(TypeError, match="variables are VariableIds"):
        Polynomial.variable(X(1, 1)).map_variables(lambda v: xi(v.row, v.col))
