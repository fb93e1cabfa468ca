import cmath
import gc
from fractions import Fraction
from itertools import product
from math import ceil, isqrt

import pytest
from hypothesis import example, given, settings, strategies as st

from theta_forms.theta import (BetaMatrix, GramMatrix, WhittakerPoint, e8_gram,
                               eisenstein_check, enumerate_with_norms,
                               fourier_assemble,
                               naive_rep_numbers, rep_numbers, sigma3,
                               whittaker)


def test_gram_validation():
    with pytest.raises(ValueError):
        GramMatrix([[1, 2], [3, 4]])       # not symmetric
    with pytest.raises(ValueError):
        GramMatrix([[1, 2], [2, 1]])       # not positive definite
    with pytest.raises(ValueError):
        GramMatrix([[1, 0], [0, 1], [0, 0]])


@pytest.mark.parametrize("entry", [0.1, 2.0, 2 + 0j, True], ids=repr)
def test_gram_rejects_inexact_entries(entry):
    with pytest.raises(TypeError, match="exact rational"):
        GramMatrix([[entry, 0], [0, 2]])
    with pytest.raises(TypeError, match="exact rational"):
        GramMatrix([[2, 0], [0, entry]])


def test_gram_takes_ints_and_fractions():
    L = GramMatrix([[2, Fraction(1, 2)], [Fraction(1, 2), 2]])
    assert L.entries == ((2, Fraction(1, 2)), (Fraction(1, 2), 2))
    assert all(type(x) is Fraction for row in L.entries for x in row)


def test_enumerate_rank_one():
    L = GramMatrix([[2]])
    assert [x for x, _ in enumerate_with_norms(L, 1)] == [(-1,), (0,), (1,)]


def test_enumerate_rank_two():
    L = GramMatrix([[2, 0], [0, 2]])
    assert len(enumerate_with_norms(L, 1)) == 5


def test_enumeration_symmetric_under_negation():
    L = GramMatrix([[2, 1], [1, 4]])
    vs = {x for x, _ in enumerate_with_norms(L, 3)}
    assert all(tuple(-t for t in v) in vs for v in vs)


def test_norms_exact():
    L = GramMatrix([[2, 1], [1, 2]])
    for v, h in enumerate_with_norms(L, 4):
        assert h == L.half_norm(v)


def test_rep_numbers_examples():
    L = GramMatrix([[2]])
    assert rep_numbers(L, 1) == {0: 1, 1: 2}


def test_rep_numbers_edge_cases():
    assert rep_numbers(GramMatrix([]), 3) == {0: 1, 1: 0, 2: 0, 3: 0}
    assert rep_numbers(e8_gram(), 0) == {0: 1}
    with pytest.raises(ValueError):
        rep_numbers(GramMatrix([[2]]), -1)
    with pytest.raises(ValueError):
        rep_numbers(GramMatrix([]), -1)


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
    assert len(enumerate_with_norms(e8_gram(), 1)) == 241  # zero plus 240 roots


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
    g = WhittakerPoint(((2.0,),), ((0.0,),))
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
    g1 = WhittakerPoint.standard(r)
    t = 3.0
    g2 = WhittakerPoint(((t, 0.0), (0.0, t)), ((0.0, 0.0), (0.0, 0.0)))
    beta0 = BetaMatrix.from_real([[0, 0], [0, 0]])
    pq = 4
    ratio = whittaker(beta0, g2, pq) / whittaker(beta0, g1, pq)
    assert abs(ratio - t ** (r * pq / 2)) < 1e-12


def test_whittaker_b_independence_at_beta_zero():
    g1 = WhittakerPoint.standard(1)
    g2 = WhittakerPoint(((1.0,),), ((7.5,),))
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
    weights = {(1,): Fraction(1, 3), (-1,): "1/2", (2,): 2, (-2,): Fraction(1, 6)}
    out = fourier_assemble(L, lambda x: weights.get(x, 0), g, 4)
    for n, total in ((1, Fraction(5, 6)), (4, Fraction(13, 6))):
        assert out[n] == complex(total) * whittaker(BetaMatrix.scalar(n), g, 1)
    assert out[0] == out[2] == out[3] == 0


# 1.0000000000000002 is the float just above 1: as a bound it would quietly
# become a binary fraction
INEXACT = [0.1, 1.0000000000000002, 2.0, 2 + 0j, True]


@pytest.mark.parametrize("value", INEXACT, ids=repr)
def test_theta_inputs_reject_inexact_values(value):
    with pytest.raises(TypeError, match="exact rational"):
        BetaMatrix.from_real([[value]])
    with pytest.raises(TypeError, match="exact rational"):
        BetaMatrix.from_real([[1, value], [value, 1]])
    with pytest.raises(TypeError, match="exact rational"):
        BetaMatrix.scalar(value)
    with pytest.raises(TypeError, match="exact rational"):
        enumerate_with_norms(GramMatrix([[2]]), value)


# the summing loop takes an exact int or Fraction as it is and converts every
# other value; a bool subclasses int, so it is refused by its exact type
@pytest.mark.parametrize("value", [0.1, 2.0, 2 + 0j, True, False], ids=repr)
def test_fourier_assemble_rejects_an_inexact_weight(value):
    with pytest.raises(TypeError, match="exact rational"):
        fourier_assemble(GramMatrix([[2]]), lambda x: value, WhittakerPoint.standard(1), 2)


class _Count(int):
    """An int subclass other than bool: converted, and summed as its value."""


def test_fourier_assemble_sums_ints_fractions_strings_and_int_subclasses():
    L, g = GramMatrix([[2]]), WhittakerPoint.standard(1)
    weights = {(1,): 2, (-1,): Fraction(1, 3), (2,): "1/2", (-2,): _Count(3)}
    out = fourier_assemble(L, lambda x: weights.get(x, 0), g, 4)
    for n, total in ((1, Fraction(7, 3)), (4, Fraction(7, 2))):
        assert out[n] == complex(total) * whittaker(BetaMatrix.scalar(n), g, 1)
    assert out[0] == out[2] == out[3] == 0


@pytest.mark.parametrize("value,exact", [(3, Fraction(3)), (Fraction(1, 10), Fraction(1, 10)),
                                         ("1/10", Fraction(1, 10)), ("7", Fraction(7))],
                         ids=repr)
def test_theta_inputs_take_exact_values(value, exact):
    assert BetaMatrix.from_real([[value]]).entries == (((exact, Fraction(0)),),)
    assert BetaMatrix.scalar(value) == BetaMatrix.from_real([[exact]])
    L, g = GramMatrix([[2]]), WhittakerPoint.standard(1)
    assert enumerate_with_norms(L, value) == enumerate_with_norms(L, exact)
    assert fourier_assemble(L, lambda x: value, g, 3) == fourier_assemble(L, lambda x: exact, g, 3)


def test_naive_rep_numbers_rejects_a_negative_n_max():
    L = GramMatrix([[2]])
    for count in (rep_numbers, naive_rep_numbers):
        with pytest.raises(ValueError, match="n_max must be non-negative"):
            count(L, -1)
        assert count(L, 0) == {0: 1}


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


@st.composite
def rational_grams(draw):
    """B^T B plus a positive rational diagonal D >= 1, for a rational B of
    dimension 0-5: positive definite with Fraction entries, and D >= 1 keeps
    the oracle's box at most 7 wide per coordinate up to n_max 5."""
    n = draw(st.integers(0, 5))
    b = [[draw(st.fractions(-2, 2, max_denominator=3)) for _ in range(n)] for _ in range(n)]
    d = [draw(st.fractions(1, 3, max_denominator=4)) for _ in range(n)]
    return [[sum(b[k][i] * b[k][j] for k in range(n)) + (d[i] if i == j else 0)
             for j in range(n)] for i in range(n)]


@settings(max_examples=50, deadline=None)
@given(rational_grams(), st.integers(0, 5))
# A counter that reduces each subtree centre but does not carry the quotient
# into the centres below it miscounts this lattice at n = 3.
@example([[6, 2, 2], [2, Fraction(13, 3), 2], [2, 2, Fraction(8, 3)]], 4)
def test_rep_numbers_matches_oracle_and_list_path(entries, n_max):
    L = GramMatrix(entries)
    shells = dict.fromkeys(range(n_max + 1), 0)
    for _, h in enumerate_with_norms(L, n_max):
        if h.denominator == 1:
            shells[h.numerator] += 1
    assert rep_numbers(L, n_max) == naive_rep_numbers(L, n_max) == shells


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


@settings(max_examples=40, deadline=None)
@given(rational_grams(), st.fractions(0, 3, max_denominator=6).filter(lambda b: b.denominator > 1))
# Every centre depends on every higher coordinate here (no zero in w above
# the diagonal), so an update that misses a column entry or reads w
# transposed changes the list; E8's nearly banded w would not show it.
@example([[3, 1, -1, Fraction(1, 2)], [1, 4, Fraction(1, 3), -1],
          [-1, Fraction(1, 3), 3, 1], [Fraction(1, 2), -1, 1, Fraction(5, 2)]], Fraction(7, 2))
def test_enumerate_with_norms_is_the_sorted_box_scan(entries, bound):
    """The whole list, vectors, order and exact half-norms, against a box
    scan with GramMatrix.half_norm over |x_i| <= sqrt(2 bound (L^-1)_ii) + 1."""
    L = GramMatrix(entries)
    box = product(*(range(-b, b + 1) for b in
                    (isqrt(ceil(2 * bound * v)) + 1 for v in L.inverse_diagonal())))
    assert enumerate_with_norms(L, bound) == [(x, L.half_norm(x)) for x in box
                                              if L.half_norm(x) <= bound]


def test_enumeration_restores_the_collector_state():
    enabled = gc.isenabled()
    try:
        gc.disable()
        enumerate_with_norms(e8_gram(), 1)
        assert not gc.isenabled()
        gc.enable()
        enumerate_with_norms(e8_gram(), 1)
        assert gc.isenabled()
    finally:
        (gc.enable if enabled else gc.disable)()


N_MAX_TAKERS = {
    "rep_numbers": lambda n: rep_numbers(GramMatrix([[2]]), n),
    "naive_rep_numbers": lambda n: naive_rep_numbers(GramMatrix([[2]]), n),
    "eisenstein_check": eisenstein_check,
    "fourier_assemble": lambda n: fourier_assemble(GramMatrix([[2]]), lambda x: 1,
                                                   WhittakerPoint.standard(1), n),
}


# a bool is an int subclass but is not a count; a float, Fraction or str is
# refused before range() or the bound check sees it
@pytest.mark.parametrize("value", [True, 2.0, Fraction(2), "2"], ids=repr)
@pytest.mark.parametrize("name", N_MAX_TAKERS)
def test_n_max_must_be_an_int(name, value):
    with pytest.raises(TypeError, match="n_max must be an int"):
        N_MAX_TAKERS[name](value)


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
