from fractions import Fraction
from itertools import product

import pytest

from theta_forms import models
from theta_forms.exterior import Form, xi, xibar
from theta_forms.forms import (GKCochain, build_mixed, build_psi_cup, gk_curvature,
                               gk_differential, k_invariance_residual)
from theta_forms.models import (C_MINUS, C_PLUS, FOCK, ORTHOGONAL, UNITARY,
                                CalibrationError, ModelTag, Signature, calibrate_structure, fock_model,
                                heisenberg_op, inner_product_rel, intertwine,
                                ladder_op, mixed_model, upq_op_model)
from theta_forms.operators import LinOp, op_sum
from theta_forms.poly import Polynomial, VariableId, X, Xbar, Y, Ybar, Zvar, monomial
from theta_forms.scalars import Scalar
from theta_forms.schur import Partition, kv_highest_weight

z1 = Polynomial.variable(Zvar(1))


def test_heisenberg_fock_wpp_is_multiplication():
    op = heisenberg_op("fock", "wpp", 1, 1)
    assert op.apply(Polynomial.one()) == z1


def test_heisenberg_schrodinger_f_is_scaled_coordinate():
    op = heisenberg_op("schrodinger", "f", 1, 1)
    assert op.apply(Polynomial.one()) == z1.scale(Scalar.of(0, -2, 1))


def test_wp_annihilates_vacuum():
    assert heisenberg_op("schrodinger", "wp", 1, 1).apply(Polynomial.one()).is_zero()


def test_index_out_of_range():
    with pytest.raises(IndexError):
        heisenberg_op("fock", "e", 3, 2)
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


def test_intertwine_vacuum_and_z():
    assert intertwine(Polynomial.one(), 1) == Polynomial.one()
    assert intertwine(z1, 1) == z1.scale(Scalar.of(4, 0, 1))


def test_intertwine_rejects_foreign_variables():
    with pytest.raises(ValueError):
        intertwine(Polynomial.variable(X(1, 1)), 2)


# -- the scalar ladder pair against the hand-written formulas it replaced ------

_4PI = Scalar.of(4, 0, 1)


def ref_heisenberg_op(which, gen, j):
    z, d = LinOp.mul_by(Polynomial.variable(Zvar(j))), LinOp.partial(Zvar(j))
    if which == "fock":
        return {"wp": d.scale(Scalar.of(-4, 0, 1)), "wpp": z,
                "e": (z - d.scale(_4PI)).scale(Fraction(1, 2)),
                "f": (z + d.scale(_4PI)).scale(Scalar.of(0, Fraction(-1, 2)))}[gen]
    return {"wp": -d, "wpp": z.scale(_4PI) - d, "e": z.scale(Scalar.of(2, 0, 1)) - d,
            "f": z.scale(Scalar.of(0, -2, 1))}[gen]


def ref_ladder_op(kind, j):
    d, x = LinOp.partial(Zvar(j)), LinOp.mul_by(Polynomial.variable(Zvar(j)))
    ap, am = d, d - x.scale(_4PI)
    return {"Aplus": ap, "Aminus": am, "H": ap.compose(am) + am.compose(ap)}[kind]


def ref_intertwine(fock_elem):
    out = Polynomial.zero()
    for mono, c in fock_elem.terms.items():
        img = Polynomial.one()
        for v, e in mono:
            neg_am = LinOp.mul_by(Polynomial.variable(v)).scale(_4PI) - LinOp.partial(v)
            for _ in range(e):
                img = neg_am.apply(img)
        out = out + img.scale(c)
    return out


def _z_monomials(dim, deg_max):
    for exps in product(range(deg_max + 1), repeat=dim):
        if sum(exps) <= deg_max:
            yield Polynomial({monomial((Zvar(j), e) for j, e in enumerate(exps, 1) if e): Scalar.one()})


def test_scalar_operators_match_the_hand_written_formulas():
    for dim in (1, 2, 3):
        for j in range(1, dim + 1):
            for which in ("fock", "schrodinger"):
                for gen in ("e", "f", "wp", "wpp"):
                    assert heisenberg_op(which, gen, j, dim) == ref_heisenberg_op(which, gen, j)
            for kind in ("Aplus", "Aminus", "H"):
                assert ladder_op(kind, j, dim) == ref_ladder_op(kind, j)


def test_intertwine_matches_the_hand_written_formula():
    for dim in (1, 2):
        monos = list(_z_monomials(dim, 4))
        for m in monos:
            assert intertwine(m, dim) == ref_intertwine(m), m
        mix = sum((m.scale(Scalar.of(k, 1 - k, k % 3)) for k, m in enumerate(monos)),
                  Polynomial.zero())
        assert intertwine(mix, dim) == ref_intertwine(mix)


def test_intertwine_rejects_coordinates_outside_the_dimension():
    for v in (Zvar(3), Zvar(0), VariableId.from_token("Z:1:2")):
        with pytest.raises(ValueError, match="not a Fock variable of dimension 2"):
            intertwine(Polynomial.variable(v), 2)


def test_scalar_ladder_builds_each_pair_once(fresh_operators):
    info = models._scalar_ladder.cache_info
    models._scalar_ladder.cache_clear()
    for which, j in product(("fock", "schrodinger"), (1, 2, 3)):
        pair = models._scalar_ladder(which, j)
        assert models._scalar_ladder(which, j) is pair
    assert (info().misses, info().hits) == (6, 6)
    # the scalar operators then read every pair back
    for dim in (1, 2, 3):
        for j in range(1, dim + 1):
            for which, gen in product(("fock", "schrodinger"), ("e", "f", "wp", "wpp")):
                heisenberg_op(which, gen, j, dim)
            for kind in ("Aplus", "Aminus", "H"):
                ladder_op(kind, j, dim)
        for m in _z_monomials(dim, 2):
            intertwine(m, dim)
    assert info().misses == 6 and info().hits > 6


def test_inner_product_examples():
    vac = Polynomial.one()
    assert inner_product_rel(vac, vac) == Scalar.one()
    assert inner_product_rel(z1, vac).is_zero()  # odd moment
    assert inner_product_rel(z1, z1) == Scalar.of(Fraction(1, 4), 0, -1)


def test_inner_product_hermitian():
    a = z1.scale(Scalar.of(1, 2)) + Polynomial.one()
    b = (z1 ** 2).scale(Scalar.of(0, 1, -1)) + z1
    assert inner_product_rel(a, b) == inner_product_rel(b, a).conjugate()


def test_upq_pplus_on_constant():
    sig = Signature(1, 1, 1, 0)
    out = upq_op_model(sig, FOCK, "pplus", 1, 1).apply(Polynomial.one())
    xy = Polynomial.variable(X(1, 1)) * Polynomial.variable(Y(1, 1))
    assert out == xy.scale(Scalar.i_unit())


def test_upq_pminus_kills_kv_vector():
    sig = Signature(1, 1, 2, 0)
    vec = kv_highest_weight(Partition((1,)), Partition((1,)), sig)
    assert upq_op_model(sig, FOCK, "pminus", 1, 1).apply(vec).is_zero()


def test_upq_central_shift():
    sig = Signature(2, 1, 3, 0)
    out = upq_op_model(sig, FOCK, "k_gl_q", 1, 1).apply(Polynomial.one())
    assert out == Polynomial.constant(Scalar.of(3))  # det^r shift, r = 3


def test_calibration_closes_and_is_cached():
    sig = Signature(2, 1, 1, 0)
    rep1 = calibrate_structure(sig, FOCK)
    rep2 = calibrate_structure(Signature(2, 1, 1, 0), FOCK)
    assert rep1 is rep2
    assert C_PLUS * C_MINUS == Scalar.of(-1)


def test_unknown_block_is_rejected_at_every_signature(fresh_operators):
    for sig in (Signature(2, 1, 0, 0), Signature(2, 1, 1, 0)):
        with pytest.raises(ValueError):
            upq_op_model(sig, FOCK, "bogus", 1, 1)
    # a rejected request stores nothing
    assert upq_op_model.cache_info().currsize == 0


def _upq_requests(sig):
    """Every (block, a, b) of the family at the signature."""
    p, q = sig.p, sig.q
    return ([("k_gl_p", a, b) for a, b in product(range(1, p + 1), repeat=2)]
            + [("k_gl_q", a, b) for a, b in product(range(1, q + 1), repeat=2)]
            + [(block, i, j) for block in ("pplus", "pminus")
               for i, j in product(range(1, p + 1), range(1, q + 1))])



# -- the column ladder pairs against the hand-written u(p,q) formulas ----------

def ref_upq_op_model(sig, model, block, a, b, c_plus=C_PLUS, c_minus=C_MINUS):
    """upq_op_model as written block by block before the column ladder."""
    def mult(v):
        return LinOp.mul_by(Polynomial.variable(v))

    def mul_pair(u, v, intertwined):
        if intertwined:
            return models._m_op(u).compose(models._m_op(v))
        return LinOp.mul_by(Polynomial.variable(u) * Polynomial.variable(v))

    def dd(u, v):
        return LinOp.partial(u).compose(LinOp.partial(v))

    parts = []
    for col, kind in enumerate(models.column_kinds(sig, model), start=1):
        holo = kind in ("pure", "doubled", "schrodinger")
        conj = kind in ("doubled", "schrodinger", "conj")
        intertwined = kind == "schrodinger"
        if block == "k_gl_p":
            if holo:
                parts.append(-(mult(X(b, col)).compose(LinOp.partial(X(a, col)))))
            if conj:
                parts.append(mult(Xbar(a, col)).compose(LinOp.partial(Xbar(b, col))))
        elif block == "k_gl_q":
            if holo:
                op = mult(Y(a, col)).compose(LinOp.partial(Y(b, col)))
                parts.append(op + LinOp.identity() if a == b else op)
            if conj:
                op = -(mult(Ybar(b, col)).compose(LinOp.partial(Ybar(a, col))))
                parts.append(op - LinOp.identity() if a == b else op)
        elif block == "pplus":
            if holo:
                parts.append(mul_pair(X(a, col), Y(b, col), intertwined).scale(c_plus))
            if conj:
                parts.append(dd(Xbar(a, col), Ybar(b, col)).scale(c_minus.conjugate()))
        else:
            if holo:
                parts.append(dd(X(a, col), Y(b, col)).scale(c_minus))
            if conj:
                parts.append(mul_pair(Xbar(a, col), Ybar(b, col), intertwined)
                             .scale(c_plus.conjugate()))
    return op_sum(parts)


def _oracle_grid():
    """(sig, model) over p <= 3, q <= 2, r, s <= 2, both families, every
    fock:k and mixed:k split."""
    for p, q, r, s, family in product(range(4), range(3), range(3), range(3),
                                      (UNITARY, ORTHOGONAL)):
        if family == ORTHOGONAL and s:
            continue
        sig = Signature(p, q, r, s, family)
        for which, split in product(("fock", "mixed"), range(max(r, s) + 1)):
            yield sig, ModelTag(which, split)


_SPLIT = (Scalar.of(3, 1), Scalar.of(Fraction(-3, 10), Fraction(1, 10)))   # product -1
_BROKEN = (Scalar.of(0, 2), Scalar.of(0, 1))                                # product -2


def test_upq_operators_match_the_hand_written_formulas():
    assert _SPLIT[0] * _SPLIT[1] == Scalar.of(-1)
    compared = 0
    for sig, model in _oracle_grid():
        for block, a, b in _upq_requests(sig):
            assert upq_op_model(sig, model, block, a, b) == ref_upq_op_model(
                sig, model, block, a, b), (sig, model, block, a, b)
            key = (sig, model, block, a, b, *_SPLIT)
            assert upq_op_model(*key) == ref_upq_op_model(*key), key
            compared += 2
    assert compared == 10976


def test_constants_off_the_hyperbola_scale_only_k_gl_q():
    # c_plus * c_minus = -2: the Y pair is no longer canonical, and k_gl_q,
    # the one block built from both halves of that pair, comes out scaled by
    # -c_plus * c_minus; every other block is as written
    scale = -(_BROKEN[0] * _BROKEN[1])
    differ = 0
    for sig, model in _oracle_grid():
        for block, a, b in _upq_requests(sig):
            key = (sig, model, block, a, b, *_BROKEN)
            ref = ref_upq_op_model(*key)
            if block == "k_gl_q":
                assert upq_op_model(*key) == ref.scale(scale), key
                differ += upq_op_model(*key) != ref
            else:
                assert upq_op_model(*key) == ref, key
    assert differ == 1040


def _ccr_violations(c_plus, c_minus):
    """The canonical commutation relations [beta_A, alpha_B] = delta_AB,
    [alpha_A, alpha_B] = 0 and [beta_A, beta_B] = 0 that fail among the
    column ladder pairs, over both halves of Fock and Schrodinger columns."""
    failed = []
    for (p, q), col, conj, intertwined in product(((2, 1), (2, 2), (3, 2)), (1, 2),
                                                  (False, True), (False, True)):
        pairs = {A: models._column_ladder(p, A, col, conj, intertwined, c_plus, c_minus)
                 for A in range(1, p + q + 1)}
        for (A, (alpha_a, beta_a)), (B, (alpha_b, beta_b)) in product(pairs.items(), repeat=2):
            where = (p, q, col, conj, intertwined, A, B)
            if beta_a.commutator(alpha_b) != (LinOp.identity() if A == B else LinOp.zero()):
                failed.append(("[beta, alpha]",) + where)
            if not alpha_a.commutator(alpha_b).is_zero():
                failed.append(("[alpha, alpha]",) + where)
            if not beta_a.commutator(beta_b).is_zero():
                failed.append(("[beta, beta]",) + where)
    return failed


def test_column_ladder_pairs_are_canonical():
    assert _ccr_violations(C_PLUS, C_MINUS) == []
    assert _ccr_violations(*_SPLIT) == []
    # control: off c_plus * c_minus = -1 exactly the relation [beta_A, alpha_A]
    # of each Y index A > p fails, on every column, half and realization
    failed = _ccr_violations(*_BROKEN)
    assert {f[0] for f in failed} == {"[beta, alpha]"}
    assert all(f[-1] == f[-2] > f[1] for f in failed)
    assert len(failed) == 40


def test_column_ladder_builds_each_pair_once(fresh_operators):
    info = models._column_ladder.cache_info
    sig = Signature(2, 1, 1, 1)
    for model in (FOCK, fock_model(1), mixed_model(1)):
        for block, a, b in _upq_requests(sig):
            upq_op_model(sig, model, block, a, b)
    # 3 indices on the holomorphic and the conjugate half of column 1, plus
    # the M_V pairs of the Schrodinger column's p-blocks
    misses = info().misses
    assert misses == 3 * 2 + 3 * 2
    upq_op_model.cache_clear()
    for model in (FOCK, fock_model(1), mixed_model(1)):
        for block, a, b in _upq_requests(sig):
            upq_op_model(sig, model, block, a, b)
    assert info().misses == misses


def test_upq_op_model_builds_each_operator_once():
    sig = Signature(2, 1, 1, 1)
    for model in (FOCK, fock_model(1), mixed_model(1)):
        for block, a, b in _upq_requests(sig):
            assert upq_op_model(sig, model, block, a, b) is upq_op_model(sig, model, block, a, b)
    # other constants are another key, not the cached operator
    cp, cm = Scalar.of(0, 2), Scalar.of(0, Fraction(1, 2))
    assert upq_op_model(sig, FOCK, "pplus", 1, 1, cp, cm) != upq_op_model(sig, FOCK, "pplus", 1, 1)


def test_cached_operators_equal_fresh_builds():
    for p, q, r, s in product(range(1, 4), range(1, 3), range(3), range(3)):
        sig = Signature(p, q, r, s)
        for which, split in product(("fock", "mixed"), range(max(r, s) + 1)):
            model = ModelTag(which, split)
            for block, a, b in _upq_requests(sig):
                assert upq_op_model(sig, model, block, a, b) == upq_op_model.__wrapped__(
                    sig, model, block, a, b), (sig, model, block, a, b)


def test_cached_operators_survive_the_identity_checks(fresh_operators):
    sig = Signature(2, 1, 1, 1)
    x11 = Polynomial.variable(X(1, 1))
    cochains = [build_psi_cup(Signature(2, 2, 1, 0)), build_mixed(sig),
                GKCochain(Form({(xi(1, 1),): x11, (xibar(2, 1),): x11 * x11}), fock_model(1), sig),
                GKCochain(Form({(xi(2, 1),): x11}), mixed_model(1), sig)]
    for c in cochains:
        gk_differential(gk_differential(c))
        gk_curvature(c)
        k_invariance_residual(c)
    built = upq_op_model.cache_info().currsize
    assert built > 0
    # compare every request the checks could have made with a fresh build;
    # as many hits as cached operators means each of them was compared
    hits = upq_op_model.cache_info().hits
    for s in (Signature(2, 2, 1, 0), sig):
        for model in (FOCK, fock_model(1), mixed_model(1)):
            for block, a, b in _upq_requests(s):
                key = (s, model, block, a, b)
                assert upq_op_model(*key) == upq_op_model.__wrapped__(*key), key
    assert upq_op_model.cache_info().hits - hits == built


@pytest.mark.parametrize("sig,model", [
    (Signature(2, 1, 1, 1), fock_model(1)), (Signature(2, 1, 1, 1), mixed_model(1)),
    (Signature(2, 2, 2, 2), mixed_model(2)), (Signature(2, 1, 2, 2), fock_model(2)),
    (Signature(3, 2, 2, 1), mixed_model(1)), (Signature(3, 2, 1, 1), fock_model(1)),
], ids=lambda v: f"{v.p}{v.q}{v.r}{v.s}" if isinstance(v, Signature) else v.token())
def test_calibration_certifies_each_model(sig, model):
    rep = calibrate_structure(sig, model)
    assert rep is calibrate_structure(sig, model)
    assert rep is not calibrate_structure(sig, FOCK)
    n = sig.p + sig.q
    assert rep.verified == (f"all {n ** 4} elementary brackets of gl({n}) close exactly",)


def test_calibration_report_names_the_requested_r():
    # split 2 doubles both columns at r = 1 and at r = 2: the same operators,
    # but each report must print its own signature
    calibrate_structure(Signature(2, 1, 1, 2), fock_model(2))
    rep = calibrate_structure(Signature(2, 1, 2, 2), fock_model(2))
    assert rep.lines()[0].startswith("calibration p=2 q=1 r=2 s=2 model fock:2:")


def test_model_tag_rejects_negative_split():
    with pytest.raises(ValueError):
        ModelTag("fock", -3)
    with pytest.raises(ValueError):
        ModelTag.from_token("mixed:-1")


# a bool is an int subclass but is not a count; a float split would print a
# token ("fock:1.0") that from_token refuses, and a float p used to reach
# range() in a builder and fail there
@pytest.mark.parametrize("value", [True, 2.0, Fraction(2)], ids=repr)
def test_signature_entries_and_model_split_must_be_ints(value):
    for k in range(4):
        entries = [2, 1, 1, 1]
        entries[k] = value
        with pytest.raises(TypeError, match="signature entries must be ints"):
            Signature(*entries)
    with pytest.raises(TypeError, match="model split must be an int"):
        ModelTag("fock", value)


def test_schrodinger_tag_has_no_split():
    # the scalar Schrodinger model has no columns, so no tag names it
    for make in (lambda: ModelTag("schrodinger", 0), lambda: ModelTag("schrodinger", 7),
                 lambda: ModelTag.from_token("schrodinger:0"),
                 lambda: ModelTag.from_token("schrodinger:1")):
        with pytest.raises(ValueError, match="unknown model 'schrodinger'"):
            make()


def test_heisenberg_op_takes_only_the_scalar_models():
    # a model tag is a column layout, even fock:0; the scalar models are names
    for which in (FOCK, ModelTag("fock", 3), fock_model(1), mixed_model(0), mixed_model(2),
                  "mixed", "fock:0", "Fock", "nope"):
        with pytest.raises(ValueError, match='scalar models "fock" and "schrodinger"'):
            heisenberg_op(which, "e", 1, 1)
    assert heisenberg_op("fock", "wpp", 1, 1) == LinOp.mul_by(z1)


def test_column_kinds_without_columns_is_empty():
    for model in (FOCK, fock_model(2), mixed_model(0), mixed_model(1)):
        assert models.column_kinds(Signature(2, 1, 0, 0), model) == []


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
    op = upq_op_model(sig, FOCK, "pplus", 1, 2)
    f = Polynomial.variable(X(1, 1))
    assert op.apply(f).degree() == 3  # raises joint degree by 2


def test_signature_validation():
    with pytest.raises(ValueError):
        Signature(-1, 0, 0, 0)
    with pytest.raises(ValueError):
        Signature(2, 1, 1, 1, "orthogonal")
    with pytest.raises(ValueError):
        Signature(1, 1, 1, 0, "symplectic")


@pytest.mark.parametrize("sig,model", [(Signature(2, 1, 1, 0), FOCK),
                                       (Signature(2, 2, 1, 1), mixed_model(1))],
                         ids=["2110-fock0", "2211-mixed1"])
def test_commutator_of_gl_images_is_the_difference_of_compositions(sig, model):
    n = sig.p + sig.q
    img = [models._abstract_image(sig, model, a, b)
           for a, b in product(range(1, n + 1), repeat=2)]
    for x, y in product(img, repeat=2):
        assert x.commutator(y) == x.compose(y) - y.compose(x)


def test_calibration_compares_each_unordered_pair_once(monkeypatch, fresh_operators):
    sig, model = Signature(2, 2, 1, 1), fock_model(1)
    n = sig.p + sig.q
    labels = {id(models._abstract_image(sig, model, a, b)): (a, b)
              for a, b in product(range(1, n + 1), repeat=2)}
    seen = []
    commutator = LinOp.commutator

    def record(self, other):
        seen.append((labels[id(self)], labels[id(other)]))
        return commutator(self, other)

    monkeypatch.setattr(LinOp, "commutator", record)
    calibrate_structure(sig, model)
    assert len(seen) == len(set(seen))
    for x, y in product(labels.values(), repeat=2):
        assert ((x, y) in seen) + ((y, x) in seen) == (x != y), (x, y)


@pytest.mark.parametrize("sig,model,bracket", [
    (Signature(2, 1, 1, 0), FOCK, "[E13, E31]"),
    (Signature(3, 2, 2, 0), FOCK, "[E14, E41]"),
    (Signature(2, 2, 1, 1), fock_model(1), "[E13, E31]"),
], ids=["2110", "3220", "2211"])
def test_calibration_names_the_first_failing_bracket(monkeypatch, fresh_operators, sig, model,
                                                    bracket):
    # c_plus * c_minus = 2i * i = -2 breaks [pminus, pplus]; the first ordered
    # bracket of the n^4 scan that fails is the one reported
    monkeypatch.setattr(upq_op_model.__wrapped__, "__defaults__", (Scalar.of(0, 2), Scalar.of(0, 1)))
    with pytest.raises(CalibrationError) as err:
        calibrate_structure(sig, model)
    assert str(err.value) == (f"bracket {bracket} fails to close for p={sig.p} q={sig.q} "
                              f"r={sig.r} s={sig.s} model {model.token()}")


def test_calibration_is_cached_per_signature_and_model(fresh_operators):
    info = calibrate_structure.cache_info
    sig, sig_s = Signature(2, 1, 1, 0), Signature(2, 1, 1, 2)
    for key in [(sig, FOCK), (sig_s, fock_model(1)), (sig_s, mixed_model(1))]:
        misses, hits = info().misses, info().hits
        rep = calibrate_structure(*key)
        assert (info().misses, info().hits) == (misses + 1, hits)
        assert calibrate_structure(*key) is rep
        assert (info().misses, info().hits) == (misses + 1, hits + 1)
        assert (rep.sig, rep.model) == key
    # the header names s and the model only when s > 0
    assert calibrate_structure(sig, FOCK).lines()[0].startswith("calibration p=2 q=1 r=1: ")
    assert calibrate_structure(sig_s, mixed_model(1)).lines()[0].startswith(
        "calibration p=2 q=1 r=1 s=2 model mixed:1: ")
