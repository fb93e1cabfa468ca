import cmath
from fractions import Fraction
from itertools import product
from math import ceil, isqrt

import pytest
from hypothesis import given, settings, strategies as st

from theta_forms.theta import (BetaMatrix, GramMatrix, WhittakerPoint, e8_gram,
                               eisenstein_check, enumerate_vectors,
                               enumerate_with_norms, fourier_assemble,
                               naive_rep_numbers, rep_numbers, sigma3,
                               whittaker)


def test_gram_validation():
    with pytest.raises(ValueError):
        GramMatrix([[1, 2], [3, 4]])       # not symmetric
    with pytest.raises(ValueError):
        GramMatrix([[1, 2], [2, 1]])       # not positive definite
    with pytest.raises(ValueError):
        GramMatrix([[1, 0], [0, 1], [0, 0]])


def test_enumerate_rank_one():
    L = GramMatrix([[2]])
    assert enumerate_vectors(L, 1) == [(-1,), (0,), (1,)]


def test_enumerate_rank_two():
    L = GramMatrix([[2, 0], [0, 2]])
    assert len(enumerate_vectors(L, 1)) == 5


def test_enumeration_symmetric_under_negation():
    L = GramMatrix([[2, 1], [1, 4]])
    vs = set(enumerate_vectors(L, 3))
    assert all(tuple(-t for t in v) in vs for v in vs)


def test_norms_exact():
    L = GramMatrix([[2, 1], [1, 2]])
    for v, h in enumerate_with_norms(L, 4):
        assert h == L.half_norm(v)


def test_rep_numbers_examples():
    L = GramMatrix([[2]])
    assert rep_numbers(L, 1) == {0: 1, 1: 2}


def test_rep_numbers_match_brute_force():
    cases = [([[2]], 4), ([[2, 1], [1, 2]], 4),
             ([[2, 0, 0], [0, 4, 1], [0, 1, 2]], 4),
             ([[2, 1, 0, 0], [1, 2, 0, 0], [0, 0, 4, 1], [0, 0, 1, 6]], 4),
             ([[Fraction(3, 2), Fraction(1, 2)], [Fraction(1, 2), Fraction(5, 2)]], 4)]
    for entries, cap in cases:
        L = GramMatrix(entries)
        assert rep_numbers(L, cap) == naive_rep_numbers(L, cap)


def test_e8_properties():
    L = e8_gram()
    assert L.determinant() == 1
    assert all(L.entries[i][i] == 2 for i in range(8))


def test_e8_roots():
    assert len(enumerate_vectors(e8_gram(), 1)) == 241  # zero plus 240 roots


def test_e8_rep_numbers():
    counts = rep_numbers(e8_gram(), 3)
    assert counts == {0: 1, 1: 240, 2: 2160, 3: 6720}


def test_eisenstein_check():
    report = eisenstein_check(3)
    assert report.passed
    assert report.rows[0] == (1, 240, 240)
    with pytest.raises(ValueError):
        eisenstein_check(21)


def test_eisenstein_check_flags_non_e8():
    assert not eisenstein_check(2, GramMatrix([[2]])).passed


def test_sigma3():
    assert [sigma3(n) for n in range(1, 7)] == [1, 9, 28, 73, 126, 252]


def test_whittaker_beta_zero():
    g = WhittakerPoint.of([[2.0]], [[0.0]])
    assert whittaker(BetaMatrix.scalar(0), g, 3) == 2.0 ** 1.5


def test_whittaker_literal_formula():
    g = WhittakerPoint.standard(1)
    w = whittaker(BetaMatrix.scalar(1), g, 2)
    assert abs(w - cmath.exp(1j)) < 1e-15


def test_whittaker_classical_convention():
    g = WhittakerPoint.standard(1)
    w = whittaker(BetaMatrix.scalar(1), g, 2, convention="classical")
    assert abs(w - cmath.exp(2j * cmath.pi * 1j)) < 1e-15
    with pytest.raises(ValueError):
        whittaker(BetaMatrix.scalar(1), g, 2, convention="bogus")


def test_whittaker_scaling_homogeneity():
    r = 2
    g1 = WhittakerPoint.of([[1.0, 0.0], [0.0, 1.0]], [[0.0, 0.0], [0.0, 0.0]])
    t = 3.0
    g2 = WhittakerPoint.of([[t, 0.0], [0.0, t]], [[0.0, 0.0], [0.0, 0.0]])
    beta0 = BetaMatrix.from_real([[0, 0], [0, 0]])
    pq = 4
    ratio = whittaker(beta0, g2, pq) / whittaker(beta0, g1, pq)
    assert abs(ratio - t ** (r * pq / 2)) < 1e-12


def test_whittaker_b_independence_at_beta_zero():
    g1 = WhittakerPoint.of([[1.0]], [[0.0]])
    g2 = WhittakerPoint.of([[1.0]], [[7.5]])
    beta0 = BetaMatrix.scalar(0)
    assert whittaker(beta0, g1, 2) == whittaker(beta0, g2, 2)


def test_fourier_assemble_counts():
    L = GramMatrix([[2]])
    g = WhittakerPoint.standard(1)
    out = fourier_assemble(L, lambda x: Fraction(1), g, 2)
    w1 = whittaker(BetaMatrix.scalar(1), g, 1)
    assert abs(out[1] - 2 * w1) < 1e-14


def test_fourier_assemble_zero_weights():
    L = GramMatrix([[2]])
    g = WhittakerPoint.standard(1)
    out = fourier_assemble(L, lambda x: Fraction(0), g, 2)
    assert all(v == 0 for v in out.values())


def test_fourier_assemble_linear_in_weights():
    L = GramMatrix([[2]])
    g = WhittakerPoint.standard(1)
    base = fourier_assemble(L, lambda x: Fraction(1), g, 3)
    tripled = fourier_assemble(L, lambda x: Fraction(3), g, 3)
    for n in base:
        assert abs(tripled[n] - 3 * base[n]) < 1e-12


def test_fourier_assemble_dict_weights():
    L = GramMatrix([[2]])
    g = WhittakerPoint.standard(1)
    weights = {(1,): Fraction(5), (-1,): Fraction(5)}
    out = fourier_assemble(L, lambda x: weights.get(x, 0), g, 1)
    w1 = whittaker(BetaMatrix.scalar(1), g, 1)
    assert abs(out[1] - 10 * w1) < 1e-14
    assert out[0] == 0


def test_fourier_assemble_mixed_weight_types():
    L = GramMatrix([[2]])
    g = WhittakerPoint.standard(1)
    weights = {(1,): Fraction(1, 3), (-1,): 0.5, (2,): 2, (-2,): Fraction(1, 6)}
    out = fourier_assemble(L, lambda x: weights.get(x, 0), g, 4)
    for n, total in ((1, Fraction(5, 6)), (4, Fraction(13, 6))):
        assert out[n] == complex(total) * whittaker(BetaMatrix.scalar(n), g, 1)
    assert out[0] == out[2] == out[3] == 0


def test_beta_matrix():
    with pytest.raises(ValueError):
        BetaMatrix(((
            (Fraction(1), Fraction(0)), (Fraction(1), Fraction(1))),
            ((Fraction(1), Fraction(1)), (Fraction(1), Fraction(0)))))


@st.composite
def small_grams(draw):
    """A^T A + I for a small integer A, scaled by a rational diagonal D to
    D (A^T A + I) D, so that some half-norms are not integers."""
    n = draw(st.integers(1, 3))
    a = [[draw(st.integers(-2, 2)) for _ in range(n)] for _ in range(n)]
    scale = [draw(st.sampled_from((Fraction(1), Fraction(1), Fraction(1, 2), Fraction(2, 3))))
             for _ in range(n)]
    return [[(sum(a[k][i] * a[k][j] for k in range(n)) + (i == j)) * scale[i] * scale[j]
             for j in range(n)] for i in range(n)]


@settings(max_examples=60, deadline=None)
@given(small_grams(), st.integers(0, 4), st.fractions(-3, 3, max_denominator=4))
def test_counting_kernel_matches_oracle_and_weighted_path(entries, n_max, default):
    L = GramMatrix(entries)
    counts = rep_numbers(L, n_max)
    assert counts == naive_rep_numbers(L, n_max)
    # fourier_assemble sums over the list enumerator, not the counting kernel.
    g = WhittakerPoint.standard(1)
    assert fourier_assemble(L, lambda x: default, g, n_max) == {
        n: complex(default * counts[n]) * whittaker(BetaMatrix.scalar(n), g, L.dim)
        for n in range(n_max + 1)}


def test_eisenstein_check_reaches_documented_ceiling():
    report = eisenstein_check(20)
    assert report.passed and len(report.rows) == 20
    assert report.rows[-1] == (20, 240 * sigma3(20), 240 * sigma3(20))


def test_enumerate_with_norms_e8_sorted_and_exact():
    L = e8_gram()
    listed = enumerate_with_norms(L, 3)
    assert len(listed) == 1 + 240 + 2160 + 6720
    assert listed == sorted(listed)
    assert all(h == L.half_norm(v) for v, h in listed)


def _half_norm_count(L: GramMatrix, n_max: int) -> dict[int, int]:
    """Box scan with GramMatrix.half_norm in Fractions, over a box one wider
    than |x_i| <= sqrt(2 n_max (L^-1)_ii) needs."""
    bounds = [isqrt(ceil(2 * n_max * v)) + 1 for v in L.inverse_diagonal()]
    counts = dict.fromkeys(range(n_max + 1), 0)
    for x in product(*(range(-b, b + 1) for b in bounds)):
        h = L.half_norm(x)
        if h.denominator == 1 and h <= n_max:
            counts[h.numerator] += 1
    return counts


@settings(max_examples=60, deadline=None)
@given(small_grams(), st.integers(0, 4))
def test_integer_scaled_oracle_matches_half_norm_count(entries, n_max):
    L = GramMatrix(entries)
    assert naive_rep_numbers(L, n_max) == _half_norm_count(L, n_max)
