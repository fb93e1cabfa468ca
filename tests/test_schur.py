from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from theta_forms.models import C_MINUS, FOCK, ORTHOGONAL, Signature, upq_op_model
from theta_forms.poly import Polynomial, X, Y, monomial
from theta_forms.scalars import Scalar
from theta_forms.schur import (Partition, Tableau, delta_T, enumerate_ssyt,
                               exact_rank, hook_content_dim, is_harmonic,
                               kv_highest_weight, partitions_up_to,
                               schur_span_dim)


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((2, 0))
    assert Partition(()).size() == 0
    assert Partition((3, 1)).conjugate() == Partition((2, 1, 1))


def test_tableau_validation():
    with pytest.raises(ValueError):
        Tableau(Partition((2,)), ((2, 1),))      # row decreasing
    with pytest.raises(ValueError):
        Tableau(Partition((1, 1)), ((1,), (1,)))  # column not strict
    T = Tableau(Partition((2, 1)), ((1, 1), (2,)))
    assert T.column(1) == [1, 2]


def test_ssyt_counts():
    assert len(enumerate_ssyt(Partition((1,)), 2)) == 2
    assert len(enumerate_ssyt(Partition((2, 1)), 3)) == 8
    assert len(enumerate_ssyt(Partition((1, 1, 1)), 2)) == 0


def test_ssyt_matches_hook_content_oracle():
    for shape in partitions_up_to(4):
        for n in range(1, 5):
            assert len(enumerate_ssyt(shape, n)) == hook_content_dim(shape, n)


def test_ssyt_deterministic_order():
    tabs = enumerate_ssyt(Partition((2,)), 2)
    assert [t.rows for t in tabs] == [((1, 1),), ((1, 2),), ((2, 2),)]


def test_delta_single_box():
    sig = Signature(2, 2, 1, 0)
    T = Tableau(Partition((1,)), ((1,),))
    assert delta_T(T, sig, "x") == Polynomial.variable(X(1, 1))


def test_delta_column_is_determinant():
    sig = Signature(2, 2, 2, 0)
    T = Tableau(Partition((1, 1)), ((1,), (2,)))
    x = lambda i, j: Polynomial.variable(X(i, j))
    assert delta_T(T, sig, "x") == x(1, 1) * x(2, 2) - x(2, 1) * x(1, 2)


def test_delta_tilde_bottom_right():
    sig = Signature(2, 2, 2, 0)
    U = Tableau(Partition((1,)), ((1,),))
    assert delta_T(U, sig, "y_tilde") == Polynomial.variable(Y(2, 2))


def test_kv_examples():
    assert kv_highest_weight(Partition((1,)), Partition(()), Signature(2, 1, 1, 0)) \
        == Polynomial.variable(X(1, 1))
    assert kv_highest_weight(Partition((2,)), Partition(()), Signature(1, 1, 1, 0)) \
        == Polynomial.variable(X(1, 1)) ** 2
    got = kv_highest_weight(Partition((1,)), Partition((1,)), Signature(1, 1, 2, 0))
    assert got == Polynomial.variable(X(1, 1)) * Polynomial.variable(Y(1, 2))


def test_kv_constraints():
    with pytest.raises(ValueError):
        kv_highest_weight(Partition((1, 1)), Partition(()), Signature(1, 1, 2, 0))
    with pytest.raises(ValueError):
        kv_highest_weight(Partition((1,)), Partition((1,)), Signature(2, 1, 1, 0))


def test_laplacian_examples():
    # pminus(i, j) = c_minus Delta_ij in the Fock model
    sig = Signature(1, 1, 1, 0)
    xy = Polynomial.variable(X(1, 1)) * Polynomial.variable(Y(1, 1))
    pminus = upq_op_model(sig, FOCK, "pminus", 1, 1)
    assert pminus.apply(xy) == Polynomial.constant(C_MINUS)
    assert pminus.apply(Polynomial.variable(X(1, 1)) ** 2).is_zero()
    with pytest.raises(IndexError):
        upq_op_model(sig, FOCK, "pminus", 2, 1)
    assert pminus is upq_op_model(Signature(1, 1, 1, 0), FOCK, "pminus", 1, 1)


def test_is_harmonic_examples():
    sig = Signature(1, 1, 1, 0)
    assert is_harmonic(Polynomial.one(), sig)
    xy = Polynomial.variable(X(1, 1)) * Polynomial.variable(Y(1, 1))
    assert not is_harmonic(xy, sig)


def test_is_harmonic_ignores_s_and_the_family():
    # FOCK has a conjugate-only column for each of r+1..s, and there pminus
    # adds an Xbar Ybar multiplication, so at s > r the verdict holds only if
    # is_harmonic drops s (the family does not enter upq_op_model)
    sig = Signature(3, 2, 3, 0)
    harmonic = kv_highest_weight(Partition((2, 1)), Partition((1,)), sig)
    trace = Polynomial.variable(X(1, 1)) * Polynomial.variable(Y(1, 1))
    for vec, verdict in ((harmonic, True), (trace, False)):
        assert is_harmonic(vec, sig) is verdict
        for other in (Signature(3, 2, 3, 2), Signature(3, 2, 3, 4),
                      Signature(3, 2, 3, 0, ORTHOGONAL)):
            assert is_harmonic(vec, other) is verdict, other


def test_kv_vectors_harmonic_small_sweep():
    for (p, q, r) in ((2, 1, 2), (2, 2, 2), (3, 2, 3)):
        sig = Signature(p, q, r, 0)
        for lam in partitions_up_to(2, p):
            for mu in partitions_up_to(2, q):
                if len(lam) + len(mu) > r:
                    continue
                assert is_harmonic(kv_highest_weight(lam, mu, sig), sig)


def test_schur_span_dims():
    assert schur_span_dim(Partition((1,)), Signature(2, 0, 1, 0)) == 2
    assert schur_span_dim(Partition((2, 1)), Signature(3, 0, 2, 0)) == 8
    assert schur_span_dim(Partition((1, 1)), Signature(2, 0, 2, 0)) == 1


def test_kv_weight_vector_property():
    # joint eigenvector of the diagonal k-operators with the expected
    # integer weights; annihilated by the a > b triangular half on each
    # factor (this is what certifies the tilde-minor anchoring convention)
    sig = Signature(2, 2, 2, 0)
    lam, mu = Partition((2,)), Partition((1,))
    vec = kv_highest_weight(lam, mu, sig)
    for a in range(1, 3):
        assert upq_op_model(sig, FOCK, "k_gl_p", a, a).apply(vec) == vec.scale(Scalar.of(-lam.part(a)))
        expected = sig.r + mu.part(sig.q - a + 1)
        assert upq_op_model(sig, FOCK, "k_gl_q", a, a).apply(vec) == vec.scale(Scalar.of(expected))
    assert upq_op_model(sig, FOCK, "k_gl_p", 2, 1).apply(vec).is_zero()
    assert upq_op_model(sig, FOCK, "k_gl_q", 2, 1).apply(vec).is_zero()


# Oracle: the dict-row elimination exact_rank ran before it took polynomials,
# pivoting on the smallest key by repr, over rows built the way the
# intertwiner suite built them by hand.
def _oracle_rows(polys):
    rows = []
    for p in polys:
        row = {}
        for m, c in p.terms.items():
            for k, (re, im) in c.terms.items():
                if re:
                    row[(m, k, "re")] = re
                if im:
                    row[(m, k, "im")] = im
        rows.append(row)
    return rows


def _oracle_rank(rows):
    rows = [dict(r) for r in rows if r]
    rank = 0
    while rows:
        pivot_row = rows.pop(0)
        key = min(pivot_row, key=repr)
        piv = pivot_row[key]
        rank += 1
        reduced = []
        for r in rows:
            if key in r:
                factor = r[key] / piv
                new = dict(r)
                for k, v in pivot_row.items():
                    new[k] = new.get(k, Fraction(0)) - factor * v
                    if new[k] == 0:
                        del new[k]
                r = new
            if r:
                reduced.append(r)
        rows = reduced
    return rank


_rationals = st.fractions(min_value=-3, max_value=3, max_denominator=4)
_coeffs = st.builds(Scalar.of, _rationals, _rationals, st.integers(-1, 1))
_monos = st.lists(st.tuples(st.sampled_from([X(1, 1), X(2, 1), Y(1, 1)]), st.integers(1, 2)),
                  max_size=2).map(monomial)
_polys = st.dictionaries(_monos, _coeffs, max_size=3).map(Polynomial)


@settings(max_examples=60, deadline=None)
@given(st.lists(_polys, min_size=1, max_size=4), st.data())
def test_exact_rank_matches_the_dict_row_oracle(base, data):
    """Planted dependencies: rational combinations of the base rows add no
    rank; the shuffled list has the oracle's rank, at most len(base)."""
    polys = list(base)
    for _ in range(data.draw(st.integers(0, 3))):
        combo = Polynomial.zero()
        for p in base:
            combo = combo + p.scale(data.draw(_rationals))
        polys.append(combo)
    polys = data.draw(st.permutations(polys))
    rank = exact_rank(polys)
    assert rank == _oracle_rank(_oracle_rows(polys))
    assert rank == exact_rank(base) <= len(base)


def test_exact_rank_is_the_rank_over_q_of_real_and_imaginary_parts():
    p = Polynomial.variable(X(1, 1)) + Polynomial.constant(Scalar.of(1, 0, -1))
    q = Polynomial.variable(Y(1, 1)).scale(Scalar.of(Fraction(1, 3), 2, 1))
    assert exact_rank([p, p.scale(2), p + q]) == 2
    assert exact_rank([p, p.scale(Scalar.i_unit())]) == 2
    assert exact_rank([p, p.scale(Scalar.of(1, 0, 1))]) == 2
    assert exact_rank([Polynomial.zero(), p, -p]) == 1
    assert exact_rank([]) == 0
