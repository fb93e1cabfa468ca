from fractions import Fraction
from itertools import product

import pytest

from theta_forms.models import (C_MINUS, C_PLUS, FOCK, SCHRODINGER, ModelTag,
                                SchrodingerElement, Signature,
                                calibrate_structure, fock_model,
                                heisenberg_op, inner_product_rel, intertwine,
                                ladder_op, sp_op, upq_op, upq_op_model)
from theta_forms.poly import Polynomial, X, Y, Zvar
from theta_forms.scalars import Scalar
from theta_forms.schur import Partition, kv_highest_weight

z1 = Polynomial.variable(Zvar(1))


def test_heisenberg_fock_wpp_is_multiplication():
    op = heisenberg_op(FOCK, "wpp", 1, 1)
    assert op.apply(Polynomial.one()) == z1


def test_heisenberg_schrodinger_f_is_scaled_coordinate():
    op = heisenberg_op(SCHRODINGER, "f", 1, 1)
    assert op.apply(Polynomial.one()) == z1.scale(Scalar.of(0, -2, 1))


def test_wp_annihilates_vacuum():
    assert heisenberg_op(SCHRODINGER, "wp", 1, 1).apply(Polynomial.one()).is_zero()


def test_index_out_of_range():
    with pytest.raises(IndexError):
        heisenberg_op(FOCK, "e", 3, 2)
    with pytest.raises(IndexError):
        ladder_op("Aplus", 0, 2)


def test_vacuum_relations():
    one = Polynomial.one()
    assert ladder_op("Aplus", 1, 1).apply(one).is_zero()
    assert ladder_op("H", 1, 1).apply(one) == Polynomial.constant(Scalar.of(-4, 0, 1))


def test_h_ladder_commutators():
    h = ladder_op("H", 1, 2)
    ap = ladder_op("Aplus", 1, 2)
    am = ladder_op("Aminus", 1, 2)
    assert h.commutator(ap) == ap.scale(Scalar.of(8, 0, 1))
    assert h.commutator(am) == am.scale(Scalar.of(-8, 0, 1))
    assert h.commutator(ladder_op("Aplus", 2, 2)).is_zero()


def test_sp_p20_is_multiplication():
    op = sp_op(FOCK, "p20", 1, 1, 2)
    assert op.apply(Polynomial.one()) == (z1 * z1).scale(Scalar.i_unit())


def test_sp_p02_applied():
    z2 = Polynomial.variable(Zvar(2))
    op = sp_op(FOCK, "p02", 1, 2, 2)
    assert op.apply(z1 * z2) == Polynomial.constant(Scalar.of(0, 4))


def test_sp_grading():
    # block (i, j) maps degree d to d + i - j
    z2 = Polynomial.variable(Zvar(2))
    samples = [Polynomial.one(), z1, z1 * z2, z1 ** 2 * z2]
    blocks = {"p20": 2, "p02": -2, "k11": 0}
    for block, shift in blocks.items():
        op = sp_op(FOCK, block, 1, 2, 2)
        for f in samples:
            g = op.apply(f)
            if g.is_zero():
                continue
            assert g.degree() == f.degree() + shift


def test_sp_schrodinger_intertwined():
    # the Schrodinger sp operators are the Fock ones through the dictionary
    for block in ("k11", "p20", "p02"):
        fop = sp_op(FOCK, block, 1, 2, 2)
        sop = sp_op(SCHRODINGER, block, 1, 2, 2)
        for exps in product(range(3), repeat=2):
            if sum(exps) > 3:
                continue
            v = Polynomial.variable(Zvar(1)) ** exps[0] * Polynomial.variable(Zvar(2)) ** exps[1]
            assert intertwine(fop.apply(v), 2).poly == sop.apply(intertwine(v, 2).poly)


def test_intertwine_vacuum_and_z():
    assert intertwine(Polynomial.one(), 1).poly == Polynomial.one()
    assert intertwine(z1, 1).poly == z1.scale(Scalar.of(4, 0, 1))


def test_intertwine_rejects_foreign_variables():
    with pytest.raises(ValueError):
        intertwine(Polynomial.variable(X(1, 1)), 2)


def test_inner_product_examples():
    vac = SchrodingerElement(Polynomial.one())
    assert inner_product_rel(vac, vac) == Scalar.one()
    x1 = SchrodingerElement(z1)
    assert inner_product_rel(x1, vac).is_zero()  # odd moment
    assert inner_product_rel(x1, x1) == Scalar.of(Fraction(1, 4), 0, -1)


def test_inner_product_hermitian():
    a = SchrodingerElement(z1.scale(Scalar.of(1, 2)) + Polynomial.one())
    b = SchrodingerElement((z1 ** 2).scale(Scalar.of(0, 1, -1)) + z1)
    assert inner_product_rel(a, b) == inner_product_rel(b, a).conjugate()


def test_upq_pplus_on_constant():
    sig = Signature(1, 1, 1, 0)
    out = upq_op(sig, "pplus", 1, 1).apply(Polynomial.one())
    xy = Polynomial.variable(X(1, 1)) * Polynomial.variable(Y(1, 1))
    assert out == xy.scale(Scalar.i_unit())


def test_upq_pminus_kills_kv_vector():
    sig = Signature(1, 1, 2, 0)
    vec = kv_highest_weight(Partition((1,)), Partition((1,)), sig)
    assert upq_op(sig, "pminus", 1, 1).apply(vec).is_zero()


def test_upq_central_shift():
    sig = Signature(2, 1, 3, 0)
    out = upq_op(sig, "k_gl_q", 1, 1).apply(Polynomial.one())
    assert out == Polynomial.constant(Scalar.of(3))  # det^r shift, r = 3


def test_calibration_closes_and_is_cached():
    sig = Signature(2, 1, 1, 0)
    rep1 = calibrate_structure(sig)
    rep2 = calibrate_structure(Signature(2, 1, 1, 0))
    assert rep1 is rep2
    assert C_PLUS * C_MINUS == Scalar.of(-1)


@pytest.mark.parametrize("r", [0, 1, 2])
def test_upq_op_is_the_fock_model_operator(r):
    sig = Signature(2, 1, r, 0)
    for block, a, b in [("k_gl_p", 1, 2), ("k_gl_q", 1, 1), ("pplus", 2, 1), ("pminus", 1, 1)]:
        assert upq_op(sig, block, a, b) == upq_op_model(sig, FOCK, block, a, b)


def test_model_tag_rejects_negative_split():
    with pytest.raises(ValueError):
        ModelTag("fock", -3)
    with pytest.raises(ValueError):
        ModelTag.from_token("mixed:-1")


def test_calibration_scale_consistency():
    # rescaling c_plus by t and c_minus by 1/t preserves the bracket closure
    sig = Signature(1, 1, 1, 0)
    t = Scalar.of(2)
    cp = Scalar.i_unit() * t
    cm = Scalar.i_unit() * t.inverse()
    model = fock_model(0)
    bracket = upq_op_model(sig, model, "pminus", 1, 1, cp, cm).commutator(
        upq_op_model(sig, model, "pplus", 1, 1, cp, cm))
    expect = (upq_op_model(sig, model, "k_gl_p", 1, 1, cp, cm)
              - upq_op_model(sig, model, "k_gl_q", 1, 1, cp, cm))
    assert bracket == expect


def test_pplus_degree_shape():
    sig = Signature(2, 2, 2, 0)
    op = upq_op(sig, "pplus", 1, 2)
    f = Polynomial.variable(X(1, 1))
    assert op.apply(f).degree() == 3  # raises joint degree by 2


def test_signature_validation():
    with pytest.raises(ValueError):
        Signature(-1, 0, 0, 0)
    with pytest.raises(ValueError):
        Signature(2, 1, 1, 1, "orthogonal")
    with pytest.raises(ValueError):
        Signature(1, 1, 1, 0, "symplectic")
