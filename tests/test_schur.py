import pytest

from theta_forms.models import Signature, upq_op
from theta_forms.poly import Polynomial, X, Y
from theta_forms.scalars import Scalar
from theta_forms.schur import (Partition, Tableau, delta_T, enumerate_ssyt,
                               hook_content_dim, is_harmonic,
                               kv_highest_weight, laplacian, partitions_up_to,
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
    sig = Signature(1, 1, 1, 0)
    xy = Polynomial.variable(X(1, 1)) * Polynomial.variable(Y(1, 1))
    assert laplacian(1, 1, sig).apply(xy) == Polynomial.one()
    assert laplacian(1, 1, sig).apply(Polynomial.variable(X(1, 1)) ** 2).is_zero()
    with pytest.raises(IndexError):
        laplacian(2, 1, sig)
    assert laplacian(1, 1, sig) is laplacian(1, 1, Signature(1, 1, 1, 0))


def test_is_harmonic_examples():
    sig = Signature(1, 1, 1, 0)
    assert is_harmonic(Polynomial.one(), sig)
    xy = Polynomial.variable(X(1, 1)) * Polynomial.variable(Y(1, 1))
    assert not is_harmonic(xy, sig)


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
        assert upq_op(sig, "k_gl_p", a, a).apply(vec) == vec.scale(Scalar.of(-lam.part(a)))
        expected = sig.r + mu.part(sig.q - a + 1)
        assert upq_op(sig, "k_gl_q", a, a).apply(vec) == vec.scale(Scalar.of(expected))
    assert upq_op(sig, "k_gl_p", 2, 1).apply(vec).is_zero()
    assert upq_op(sig, "k_gl_q", 2, 1).apply(vec).is_zero()
