from hypothesis import given, settings, strategies as st

from theta_forms.exterior import (Form, WedgeGen, merge_monomials, perm_sign, wedge_monomial,
                                  xi, xibar)
from theta_forms.poly import Polynomial, X, Y
from theta_forms.scalars import Scalar

x11 = Polynomial.variable(X(1, 1))
y11 = Polynomial.variable(Y(1, 1))


def test_alternation():
    g = Form({(xibar(1, 1),): Polynomial.one()})
    assert g.wedge(g).is_zero()


def test_anticommutativity():
    a = Form({(xibar(2, 1),): Polynomial.one()})
    b = Form({(xibar(1, 1),): Polynomial.one()})
    assert a.wedge(b) == -(b.wedge(a))


def test_bilinearity():
    a = Form({(xi(1, 1),): x11})
    b = Form({(xibar(1, 1),): y11})
    prod = a.wedge(b)
    assert prod.coefficient([xi(1, 1), xibar(1, 1)]) == x11 * y11


def test_generator_order_xi_before_xibar():
    sign, w = wedge_monomial([xibar(1, 1), xi(1, 1)])
    assert sign == -1
    assert [g.kind for g in w] == ["xi", "xibar"]


def test_merge_detects_repeats():
    sign, _ = merge_monomials((xi(1, 1),), (xi(1, 1),))
    assert sign == 0


def test_coefficient_signed_lookup():
    f = Form({(xi(1, 1),): Polynomial.one()}).wedge(Form({(xibar(1, 1),): Polynomial.one()}))
    assert f.coefficient([xibar(1, 1), xi(1, 1)]) == -Polynomial.one()


def test_bidegree_support():
    f = Form({(xi(1, 1),): Polynomial.one()}).wedge(Form({(xibar(1, 1),): x11}))
    assert f.bidegree_support() == {(1, 1)}


def test_conjugate_involution():
    f = Form({(xi(1, 2),): x11.scale(Scalar.i_unit())})
    assert f.conjugate().conjugate() == f


_gens = st.sampled_from([xi(1, 1), xi(2, 1), xi(1, 2), xibar(1, 1), xibar(2, 1)])


def _mk(gens, c):
    sign, w = wedge_monomial(gens)
    if sign == 0:
        return Form.zero()
    return Form({w: Polynomial.constant(Scalar.of(c * sign))})


@settings(max_examples=60, deadline=None)
@given(st.lists(_gens, max_size=2, unique=True), st.lists(_gens, max_size=2, unique=True))
def test_graded_commutativity(g1, g2):
    f = _mk(g1, 1)
    g = _mk(g2, 1)
    sign = (-1) ** (len(g1) * len(g2))
    assert f.wedge(g) == g.wedge(f).scale(sign)


@settings(max_examples=60, deadline=None)
@given(st.lists(_gens, max_size=2, unique=True),
       st.lists(_gens, max_size=2, unique=True),
       st.lists(_gens, max_size=2, unique=True))
def test_wedge_associative(g1, g2, g3):
    a, b, c = _mk(g1, 2), _mk(g2, -1), _mk(g3, 3)
    assert a.wedge(b).wedge(c) == a.wedge(b.wedge(c))


def ref_wedge_monomial(gens):
    """Insertion sort counting transpositions: the O(n^2) oracle."""
    gens = list(gens)
    sign = 1
    for i in range(1, len(gens)):
        j = i
        while j > 0 and gens[j - 1].sort_key() > gens[j].sort_key():
            gens[j - 1], gens[j] = gens[j], gens[j - 1]
            sign = -sign
            j -= 1
    for a, b in zip(gens, gens[1:]):
        if a == b:
            return 0, ()
    return sign, tuple(gens)


_any_gen = st.builds(lambda kind, i, j: WedgeGen(kind, i, j), st.sampled_from(["xi", "xibar"]),
                     st.integers(1, 3), st.integers(1, 3))


@settings(max_examples=300, deadline=None)
@given(st.lists(_any_gen, max_size=12))
def test_wedge_monomial_matches_insertion_sort(gens):
    assert wedge_monomial(gens) == ref_wedge_monomial(gens)


@settings(max_examples=100, deadline=None)
@given(st.permutations([WedgeGen(k, i, j) for k in ("xi", "xibar")
                        for i in (1, 2, 3) for j in (1, 2)]))
def test_wedge_monomial_sign_is_the_permutation_parity(gens):
    sign, w = wedge_monomial(gens)
    assert w == tuple(sorted(gens, key=WedgeGen.sort_key))
    assert sign == perm_sign([w.index(g) for g in gens])


def test_wedge_monomial_of_a_long_list():
    # reversing n = 8,199 canonical generators takes n(n-1)/2 transpositions,
    # an odd number; one sort handles it
    gens = [WedgeGen(kind, i, j) for kind in ("xi", "xibar")
            for j in range(1, 101) for i in range(1, 42)][:-1]
    assert wedge_monomial(gens[::-1]) == (-1, tuple(gens))
    assert wedge_monomial([xibar(1, 1), xi(1, 1)] * 4000) == (0, ())
