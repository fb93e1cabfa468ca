import hashlib
import random
from fractions import Fraction
from itertools import permutations
from math import factorial

import pytest

from theta_forms.exterior import Form, perm_sign, wedge_monomial, xi, xibar
from theta_forms.forms import (FactorizationError, GKCochain, SplitSpec,
                               build_km_explicit, build_km_nabla, build_mixed,
                               build_psi_cup, build_psi_orth, build_psi_q,
                               cup_product, cup_sign,
                               euler_chern_form, evaluate_at_zero,
                               forms_proportional, gk_curvature,
                               gk_differential, k_invariance_residual,
                               restrict_form, strongly_primitive_monomial)
from theta_forms import forms, models
from theta_forms.models import (FOCK, ORTHOGONAL, CalibrationError, Signature,
                                fock_model, mixed_model)
from theta_forms.operators import LinOp
from theta_forms.poly import Polynomial, X, Xbar, Y, Ybar, monomial
from theta_forms.scalars import Scalar
from theta_forms.serialize import cochain_to_json

x = lambda i, j: Polynomial.variable(X(i, j))
xb = lambda i, j: Polynomial.variable(Xbar(i, j))


# -- psi constructions -------------------------------------------------------

def test_psi_q_smallest():
    c = build_psi_q(Signature(1, 1, 1, 0))
    assert c.form == Form({(xibar(1, 1),): x(1, 1)})


def test_psi_q_two_rows():
    c = build_psi_q(Signature(2, 1, 1, 0))
    assert c.form.coefficient([xibar(1, 1)]) == x(1, 1)
    assert c.form.coefficient([xibar(2, 1)]) == x(2, 1)


def test_psi_q_repeated_row():
    c = build_psi_q(Signature(1, 2, 1, 0))
    assert c.form.coefficient([xibar(1, 1), xibar(1, 2)]) == x(1, 1) ** 2


def test_psi_q_column_bound():
    with pytest.raises(ValueError):
        build_psi_q(Signature(1, 1, 1, 0), column=2)


def test_psi_cup_unit_and_vanishing():
    assert build_psi_cup(Signature(2, 1, 0, 0)).form == Form.unit()
    assert build_psi_cup(Signature(2, 1, 3, 0)).form.is_zero()
    assert build_psi_cup(Signature(2, 2, 0, 3)).form.is_zero()


def test_psi_cup_determinant_coefficient():
    c = build_psi_cup(Signature(2, 1, 2, 0))
    got = c.form.coefficient([xibar(1, 1), xibar(2, 1)])
    assert got == x(1, 1) * x(2, 2) - x(2, 1) * x(1, 2)


def test_psi_orth_matches_shape():
    c = build_psi_orth(Signature(2, 1, 1, 0, ORTHOGONAL))
    assert c.form.coefficient([xi(1, 1)]) == x(1, 1)
    assert c.form.coefficient([xi(2, 1)]) == x(2, 1)
    assert build_psi_orth(Signature(2, 1, 0, 0, ORTHOGONAL)).form == Form.unit()
    assert build_psi_orth(Signature(2, 1, 3, 0, ORTHOGONAL)).form.is_zero()


def test_psi_orth_family_check():
    with pytest.raises(ValueError):
        build_psi_orth(Signature(2, 1, 1, 0))
    with pytest.raises(ValueError):
        build_psi_cup(Signature(2, 1, 1, 0, ORTHOGONAL))


# -- Kudla-Millson forms ------------------------------------------------------

def test_km_nabla_smallest():
    c = build_km_nabla(Signature(1, 1, 1, 1))
    got = c.form.coefficient([xibar(1, 1), xi(1, 1)])
    expect = x(1, 1) * xb(1, 1) - Polynomial.constant(Scalar.of(Fraction(1, 2), 0, -1))
    assert got == expect


def test_km_needs_r_equal_s():
    with pytest.raises(ValueError):
        build_km_nabla(Signature(1, 1, 1, 0))


def test_km_equals_explicit():
    for sig in (Signature(1, 1, 1, 1), Signature(2, 1, 1, 1), Signature(1, 2, 1, 1)):
        assert build_km_nabla(sig).form == build_km_explicit(sig).form
    for sig in (Signature(2, 1, 1, 0, ORTHOGONAL), Signature(2, 2, 1, 0, ORTHOGONAL),
                Signature(1, 3, 1, 0, ORTHOGONAL)):
        assert build_km_nabla(sig).form == build_km_explicit(sig).form


def test_km_reality_up_to_degree_sign():
    # conjugation fixes the form up to the (-1)^(d(d-1)/2) reversal sign of
    # a degree-d form; d = 2rq here
    for sig in (Signature(1, 1, 1, 1), Signature(2, 1, 1, 1)):
        c = build_km_nabla(sig)
        d = 2 * sig.r * sig.q
        sign = (-1) ** (d * (d - 1) // 2)
        assert c.form.conjugate() == c.form.scale(sign)


def test_km_unit_boundary():
    assert build_km_nabla(Signature(2, 1, 0, 0)).form == Form.unit()


def test_mixed_boundaries():
    assert build_mixed(Signature(2, 1, 2, 0)).form == build_psi_cup(Signature(2, 1, 2, 0)).form
    assert build_mixed(Signature(1, 1, 1, 1)).form == build_km_nabla(Signature(1, 1, 1, 1)).form
    assert build_mixed(Signature(2, 1, 2, 1)).form.bidegree_support() == {(1, 2)}
    with pytest.raises(ValueError):
        build_mixed(Signature(2, 1, 1, 2))


# -- differential -------------------------------------------------------------

def test_differential_of_unit_cochain():
    sig = Signature(2, 1, 1, 0)
    unit = GKCochain(Form.unit(), fock_model(0), sig)
    d = gk_differential(unit)
    # the Laplacian half kills constants; the multiplication half survives on
    # the antiholomorphic generators
    for i in (1, 2):
        got = d.form.coefficient([xibar(i, 1)])
        assert got == (x(i, 1) * Polynomial.variable(Y(1, 1))).scale(Scalar.i_unit())
    assert d.form.bidegree_part(1, 0).is_zero()


def test_closedness_of_constructions():
    for sig in (Signature(1, 1, 1, 0), Signature(2, 1, 1, 1),
                Signature(2, 2, 2, 0), Signature(3, 1, 1, 1)):
        assert gk_differential(build_psi_cup(sig)).form.is_zero()
    assert gk_differential(build_psi_q(Signature(2, 1, 1, 0))).form.is_zero()


def test_q_zero_degenerate():
    sig = Signature(2, 0, 1, 0)
    c = build_psi_cup(sig)
    assert c.form == Form.unit()
    assert gk_differential(c).form.is_zero()


def test_dd_equals_curvature():
    sig = Signature(2, 1, 1, 0)
    c = GKCochain(Form({(xi(1, 1),): x(1, 1)}), fock_model(0), sig)
    dd = gk_differential(gk_differential(c))
    assert dd.form == gk_curvature(c).form
    assert not dd.form.is_zero()  # the curvature obstruction is real


def test_construction_path_needs_no_calibration(monkeypatch):
    def refuse(sig, model):
        raise AssertionError("calibrate_structure on the construction path")
    monkeypatch.setattr(forms, "calibrate_structure", refuse)
    monkeypatch.setattr(models, "calibrate_structure", refuse)
    c = build_psi_cup(Signature(2, 2, 2, 0))
    assert gk_differential(c).form.is_zero()
    assert k_invariance_residual(c).is_zero()


def test_certificate_checks_the_operators_d_uses(monkeypatch, fresh_operators):
    # c_plus * c_minus = 2i * i = -2 breaks [pminus, pplus]; the certificate
    # must see it through upq_op_model's defaults, and gk_curvature must refuse
    monkeypatch.setattr(models.upq_op_model.__wrapped__, "__defaults__",
                        (Scalar.of(0, 2), Scalar.of(0, 1)))
    sig = Signature(2, 1, 1, 0)
    with pytest.raises(CalibrationError):
        models.calibrate_structure(sig, FOCK)
    with pytest.raises(CalibrationError):
        gk_curvature(build_psi_cup(sig))


def test_certificate_covers_the_intertwined_columns(monkeypatch, fresh_operators):
    # M_V differentiating in V instead of Vbar breaks [k_gl_p, pplus] on a
    # Schrodinger column only; the Fock columns the split-0 certificate sees
    # are untouched, so only a certificate of the mixed model itself catches it
    def wrong_m_op(v):
        return models._mult(v) - LinOp.partial(v).scale(Scalar.of(Fraction(1, 2), 0, -1))
    monkeypatch.setattr(models, "_m_op", wrong_m_op)
    sig = Signature(2, 1, 1, 1)
    models.calibrate_structure(sig, FOCK)
    with pytest.raises(CalibrationError):
        gk_curvature(GKCochain(Form({(xi(1, 1),): x(1, 1)}), mixed_model(1), sig))


def test_dd_zero_on_invariant_forms():
    for sig in (Signature(2, 1, 1, 0), Signature(2, 2, 1, 1)):
        c = build_psi_cup(sig)
        assert gk_differential(gk_differential(c)).form.is_zero()


def test_orthogonal_closedness():
    for sig in (Signature(2, 1, 1, 0, ORTHOGONAL), Signature(2, 2, 2, 0, ORTHOGONAL)):
        assert gk_differential(build_psi_orth(sig)).form.is_zero()


_KM_CLOSED = ([(build_km_nabla, sig) for sig in ((1, 1, 1, 1), (2, 1, 1, 1), (2, 2, 1, 1),
                                                (3, 1, 1, 1), (2, 1, 2, 2))]
              + [(build_mixed, sig) for sig in ((2, 1, 2, 1), (2, 2, 2, 1), (3, 1, 3, 2),
                                                (2, 1, 3, 1))])


@pytest.mark.parametrize("build,sig", _KM_CLOSED,
                         ids=[f"{b.__name__[6:]}-{''.join(map(str, s))}" for b, s in _KM_CLOSED])
def test_kudla_millson_forms_are_closed_and_k_invariant(build, sig):
    c = build(Signature(*sig))
    assert gk_differential(c).form.is_zero()
    assert k_invariance_residual(c).is_zero()


@pytest.mark.parametrize("build,sig", [(build_km_nabla, (2, 1, 1, 1)),
                                       (build_km_nabla, (2, 2, 1, 1)),
                                       (build_mixed, (2, 1, 2, 1))],
                         ids=["km_nabla-2111", "km_nabla-2211", "mixed-2121"])
def test_kudla_millson_closedness_sees_a_wrong_creation_operator(monkeypatch, fresh_operators,
                                                                  build, sig):
    # d acts on the Schrodinger columns through models._m_op; with M_V
    # differentiating in V instead of Vbar the forms are no longer closed
    # ((1,1,1,1) stays closed under this patch, so it is no control)
    def wrong_m_op(v):
        return models._mult(v) - LinOp.partial(v).scale(Scalar.of(Fraction(1, 2), 0, -1))
    monkeypatch.setattr(models, "_m_op", wrong_m_op)
    assert not gk_differential(build(Signature(*sig))).form.is_zero()


# -- cup products --------------------------------------------------------------

def test_cup_product_concatenates_columns():
    sig1 = Signature(2, 1, 1, 0)
    prod = cup_product(build_psi_cup(sig1), build_psi_cup(sig1))
    assert prod.sig.r == 2
    assert prod.form == build_psi_cup(Signature(2, 1, 2, 0)).form


def test_cup_sign_convention():
    sig1 = Signature(2, 1, 0, 1)
    sig2 = Signature(2, 1, 1, 0)
    prod = cup_product(build_psi_cup(sig1), build_psi_cup(sig2))
    combined = build_psi_cup(Signature(2, 1, 1, 1))
    sgn = cup_sign(sig1, sig2)
    assert sgn == -1
    assert prod.form == combined.form.scale(sgn)


def test_cup_requires_matching_pq():
    with pytest.raises(ValueError):
        cup_product(build_psi_cup(Signature(2, 1, 1, 0)),
                    build_psi_cup(Signature(2, 2, 1, 0)))


# -- K-invariance ---------------------------------------------------------------

def test_k_invariance_of_constructions():
    for c in (build_psi_cup(Signature(2, 1, 1, 0)),
              build_psi_cup(Signature(2, 2, 1, 1)),
              build_km_nabla(Signature(2, 1, 1, 1)),
              build_psi_orth(Signature(2, 2, 1, 0, ORTHOGONAL))):
        assert k_invariance_residual(c).is_zero()


def test_k_invariance_negative_control():
    c = build_psi_cup(Signature(2, 1, 1, 0))
    w, poly = next(iter(c.form.terms.items()))
    bad = GKCochain(Form(dict(c.form.terms) | {w: -poly}), c.model, c.sig)
    assert not k_invariance_residual(bad).is_zero()


def test_unit_cochain_invariant_only_without_central_character():
    # r = 0 wrapping has no det^r twist: unit is invariant there
    unit0 = GKCochain(Form.unit(), fock_model(0), Signature(2, 1, 0, 0))
    assert k_invariance_residual(unit0).is_zero()
    unit1 = GKCochain(Form.unit(), fock_model(0), Signature(2, 1, 1, 0))
    assert not k_invariance_residual(unit1).is_zero()


# -- Euler/Chern and evaluation at zero -----------------------------------------

def test_chern_odd_orthogonal_vanishes():
    assert euler_chern_form(Signature(2, 1, 1, 0, ORTHOGONAL)).is_zero()
    assert euler_chern_form(Signature(3, 3, 1, 0, ORTHOGONAL)).is_zero()


def test_chern_unitary_q1():
    sig = Signature(2, 1, 1, 0)
    cq = euler_chern_form(sig)
    for l in (1, 2):
        assert cq.coefficient([xibar(l, 1), xi(l, 1)]) == Polynomial.one()


def ref_euler_chern_form(sig: Signature) -> Form:
    """The direct permutation loop: unitary (1/q!) sum over sigma, sigbar of
    sgn sigma sgn sigbar Omega(sigma_1, sigbar_1) ^ ... ^ Omega(sigma_q,
    sigbar_q); orthogonal (1/(q/2)!) sum over sigma of sgn sigma times the
    wedge of Omega(sigma_t, sigma_t+1) over consecutive pairs."""
    q = sig.q
    out = Form.zero()
    if sig.family == ORTHOGONAL:
        for sigma in permutations(range(1, q + 1)):
            fac = Form.unit()
            for t in range(0, q, 2):
                fac = fac.wedge(forms._big_omega(sig, sigma[t], sigma[t + 1]))
            out = out + fac.scale(Fraction(perm_sign(sigma), factorial(q // 2)))
        return out
    for sigma in permutations(range(1, q + 1)):
        for sigbar in permutations(range(1, q + 1)):
            fac = Form.unit()
            for t in range(q):
                fac = fac.wedge(forms._big_omega(sig, sigma[t], sigbar[t]))
            out = out + fac.scale(Fraction(perm_sign(sigma) * perm_sign(sigbar), factorial(q)))
    return out


@pytest.mark.parametrize("sig", [
    Signature(1, 1, 1, 0), Signature(2, 1, 1, 0), Signature(2, 2, 1, 0),
    Signature(3, 2, 1, 0), Signature(3, 3, 1, 0),
    Signature(2, 2, 1, 0, ORTHOGONAL), Signature(3, 2, 1, 0, ORTHOGONAL),
    Signature(2, 4, 1, 0, ORTHOGONAL)], ids=str)
def test_chern_is_the_extreme_lambda_term(sig):
    cq = euler_chern_form(sig)
    assert not cq.is_zero()
    assert cq == ref_euler_chern_form(sig)


def _c_unitary(q: int, lam: int) -> Scalar:
    """C(q, lambda) = (-1/2pi)^lambda (q!)^2 / (lambda! ((q-lambda)!)^2)."""
    base = Scalar.of(Fraction(-1, 2), 0, -1) ** lam
    return base * Fraction(factorial(q) ** 2, factorial(lam) * factorial(q - lam) ** 2)


def _c_orth(q: int, lam: int) -> Scalar:
    """C(q, lambda) = (-1/4pi)^lambda q! / (2^lambda lambda! (q-2 lambda)!)."""
    base = Scalar.of(Fraction(-1, 4), 0, -1) ** lam
    return base * Fraction(factorial(q), (2 ** lam) * factorial(lam) * factorial(q - 2 * lam))


@pytest.mark.parametrize("family", ["unitary", ORTHOGONAL])
@pytest.mark.parametrize("q", [0, 1, 2, 3, 4])
def test_km_explicit_weights_are_c_q_lambda_over_the_factorials(monkeypatch, family, q):
    """_km_explicit_column weighs the lambda-sum by C(q, lambda) / (q!)^2
    (unitary) or C(q, lambda) / q! (orthogonal): read each weight off by
    replacing the lambda-sum with the marker X(1, lambda + 1)."""
    monkeypatch.setattr(forms, "_lambda_sum", lambda sig, k, lam: Form.unit().scale(x(1, lam + 1)))
    col = forms._km_explicit_column(Signature(1, q, 1, 0, family), 1)
    if family == ORTHOGONAL:
        expect = [_c_orth(q, lam) * Fraction(1, factorial(q)) for lam in range(q // 2 + 1)]
    else:
        expect = [_c_unitary(q, lam) * Fraction(1, factorial(q) ** 2) for lam in range(q + 1)]
    assert col == Form.unit().scale(sum((x(1, lam + 1).scale(c) for lam, c in enumerate(expect)),
                                        Polynomial.zero()))


def test_km_at_zero_proportional_to_chern():
    sig = Signature(1, 1, 1, 1)
    at0 = evaluate_at_zero(build_km_nabla(sig))
    ratio = forms_proportional(at0, euler_chern_form(sig))
    assert ratio == Scalar.of(Fraction(-1, 2), 0, -1)


def test_km_orthogonal_zero_at_origin_odd_q():
    for q in (1, 3):
        sig = Signature(3, q, 1, 0, ORTHOGONAL)
        assert evaluate_at_zero(build_km_nabla(sig)).is_zero()


def test_km_orthogonal_even_q_origin_proportional_to_omega_product():
    sig = Signature(2, 2, 1, 0, ORTHOGONAL)
    at0 = evaluate_at_zero(build_km_nabla(sig))
    ratio = forms_proportional(at0, euler_chern_form(sig))
    assert ratio is not None and not ratio.is_zero()


# -- restriction -----------------------------------------------------------------

def test_restrict_identity_and_step():
    c = build_psi_q(Signature(2, 1, 1, 0))
    assert restrict_form(c, SplitSpec(0)).form == c.form
    down = restrict_form(c, SplitSpec(1))
    assert down.sig.p == 1
    assert down.form == build_psi_q(Signature(1, 1, 1, 0)).form


def test_restrict_to_zero_rows():
    c = build_psi_cup(Signature(2, 1, 1, 0))
    assert restrict_form(c, SplitSpec(2)).form.is_zero()


def test_restrict_factorization_failure():
    sig = Signature(2, 1, 1, 0)
    bad = GKCochain(Form({(xibar(2, 1),): x(1, 1)}), fock_model(0), sig)
    with pytest.raises(FactorizationError):
        restrict_form(bad, SplitSpec(1))


# -- coefficient probes -----------------------------------------------------------

def test_coefficient_at_unit_and_missing():
    unit = GKCochain(Form.unit(), fock_model(0), Signature(1, 1, 0, 0))
    assert unit.form.coefficient([]) == Polynomial.one()
    assert unit.form.coefficient([xi(1, 1)]).is_zero()


def test_strongly_primitive_witness():
    sig = Signature(2, 1, 2, 0)
    pol = build_psi_cup(sig).form.coefficient(strongly_primitive_monomial(sig))
    assert pol == x(1, 1) * x(2, 2) - x(2, 1) * x(1, 2)
    sig = Signature(2, 1, 1, 1)
    assert not build_psi_cup(sig).form.coefficient(strongly_primitive_monomial(sig)).is_zero()


# -- d where it is not zero --------------------------------------------------------

def _seeded_cochain(seed: int, model, sig: Signature) -> GKCochain:
    """A three-term cochain whose coefficients are degree-2 monomials in the
    holomorphic and conjugate variables of every column."""
    rng = random.Random(seed)
    gens = [g(i, j) for g in (xi, xibar) for i in range(1, sig.p + 1) for j in range(1, sig.q + 1)]
    pool = [v(i, c) for c in range(1, max(sig.r, sig.s) + 1)
            for v, n in ((X, sig.p), (Xbar, sig.p), (Y, sig.q), (Ybar, sig.q))
            for i in range(1, n + 1)]
    form = Form.zero()
    for k in (1, 2, 3):
        sign, w = wedge_monomial(rng.sample(gens, k))
        mono = monomial([(rng.choice(pool), 1), (rng.choice(pool), 1)])
        coeff = Scalar.of(Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 4)),
                          rng.randint(-2, 2))
        form = form + Form({w: Polynomial({mono: coeff}).scale(sign)})
    return GKCochain(form, model, sig)


# SHA-256 of cochain_to_json(gk_differential(c)); nothing else pins these
# outputs (d of orthogonal km_nabla is nonzero, see perfbench/NOTES.md)
_D_DIGESTS = {
    "km_nabla-orth-211": (lambda: build_km_nabla(Signature(2, 1, 1, 0, ORTHOGONAL)),
        "c794c0a834d866338461bc7074da85e64e3312e8b262153efcd0f0ada458f883"),
    "km_nabla-orth-321": (lambda: build_km_nabla(Signature(3, 2, 1, 0, ORTHOGONAL)),
        "cdb777e3adfb3e32d16e434799ab02255b7818d6b9b689f8f8fb97a6f6918d70"),
    "seeded-fock1-2111": (lambda: _seeded_cochain(5, fock_model(1), Signature(2, 1, 1, 1)),
        "0b1eda6bd1f064d47f475891e2371d1869dccd5a088cbf0c4df8f99ecb629a5b"),
    "seeded-mixed1-2111": (lambda: _seeded_cochain(5, mixed_model(1), Signature(2, 1, 1, 1)),
        "4c8657798238a327141fceae64c6d1a7006e421fbb33ef9069f94df05e80f13c"),
}


@pytest.mark.parametrize("name", sorted(_D_DIGESTS))
def test_differential_output_is_pinned(name):
    build, digest = _D_DIGESTS[name]
    d = gk_differential(build())
    assert not d.form.is_zero()
    assert hashlib.sha256(cochain_to_json(d).encode()).hexdigest() == digest
