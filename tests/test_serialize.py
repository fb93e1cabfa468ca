import json

from hypothesis import given, settings
from hypothesis import strategies as st

from theta_forms.exterior import Form, WedgeGen, perm_sign, wedge_monomial, xi, xibar
from theta_forms.forms import (GKCochain, build_km_nabla, build_mixed,
                               build_psi_cup, build_psi_q)
from theta_forms.models import ORTHOGONAL, UNITARY, Signature, fock_model, mixed_model
from theta_forms.poly import Polynomial, VariableId, monomial
from theta_forms.scalars import Scalar
from theta_forms.serialize import (cochain_from_dict, cochain_from_json, cochain_to_json,
                                   cochain_to_latex, gram_from_json,
                                   gram_to_json)
from theta_forms.theta import e8_gram


def test_round_trip_identity():
    for sig, builder in [(Signature(1, 1, 1, 0), build_psi_q),
                         (Signature(2, 1, 2, 0), build_psi_cup),
                         (Signature(1, 1, 1, 1), build_km_nabla),
                         (Signature(2, 1, 2, 1), build_mixed)]:
        c = builder(sig)
        back = cochain_from_json(cochain_to_json(c))
        assert back.form == c.form
        assert back.sig == c.sig
        assert back.model == c.model


def test_serialization_is_byte_stable():
    c = build_psi_cup(Signature(2, 1, 2, 0))
    s1 = cochain_to_json(c)
    s2 = cochain_to_json(cochain_from_json(s1))
    assert s1 == s2


def test_unit_cochain_schema():
    unit = GKCochain(Form.unit(), fock_model(0), Signature(1, 1, 0, 0))
    data = json.loads(cochain_to_json(unit))
    assert data["terms"] == [{"wedge": [],
                              "poly": [{"coeff": {"re": "1", "im": "0", "piExp": 0},
                                        "mono": []}]}]


def test_psi_q_schema():
    data = json.loads(cochain_to_json(build_psi_q(Signature(1, 1, 1, 0))))
    (term,) = data["terms"]
    assert term["wedge"] == ["xibar:1:1"]
    assert term["poly"] == [{"coeff": {"re": "1", "im": "0", "piExp": 0},
                             "mono": [["X:1:1", 1]]}]


def test_latex_mentions_xi_and_delta_coefficients():
    tex = cochain_to_latex(build_psi_q(Signature(1, 1, 1, 0)))
    assert "\\overline{\\xi}_{1,1}" in tex
    assert "X_{1,1}" in tex
    tex_km = cochain_to_latex(build_km_nabla(Signature(1, 1, 1, 1)))
    assert "\\pi^{-1}" in tex_km


def test_gram_round_trip():
    text = gram_to_json(e8_gram())
    data = json.loads(text)
    assert data["dim"] == 8
    assert data["gram"][0][0] == "2"
    back = gram_from_json(text)
    assert back.entries == e8_gram().entries


def test_import_puts_wedges_in_canonical_order():
    c = build_psi_cup(Signature(2, 2, 1, 0))
    data = json.loads(cochain_to_json(c))
    term = data["terms"][1]
    assert len(term["wedge"]) == 2
    w = tuple(WedgeGen.from_token(t) for t in term["wedge"])
    term["wedge"].reverse()
    back = cochain_from_dict(data)
    flipped = Form(dict(c.form.terms) | {w: -c.form.terms[w]})
    assert back.form == flipped


def test_import_drops_repeated_generator():
    c = build_psi_cup(Signature(2, 2, 1, 0))
    data = json.loads(cochain_to_json(c))
    w = tuple(WedgeGen.from_token(t) for t in data["terms"][0]["wedge"])
    data["terms"][0]["wedge"] = [data["terms"][0]["wedge"][0]] * 2
    back = cochain_from_dict(data)
    assert back.form == Form({k: p for k, p in c.form.terms.items() if k != w})


@st.composite
def cochains(draw):
    """Random cochains: wedges over xi/xibar, Gaussian-rational coefficients
    with several powers of pi, monomials in the four matrix variable kinds."""
    family = draw(st.sampled_from((UNITARY, ORTHOGONAL)))
    p, q, r = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(0, 2))
    s = 0 if family == ORTHOGONAL else draw(st.integers(0, 2))
    sig = Signature(p, q, r, s, family)
    model = draw(st.sampled_from((fock_model(min(r, s)), mixed_model(s))))
    gens = [g(i, j) for g in (xi, xibar) for i in range(1, p + 1) for j in range(1, q + 1)]
    variables = [VariableId(kind, i, c) for kind in ("X", "Xbar", "Y", "Ybar")
                 for i in range(1, 3) for c in range(1, 3)]
    rationals = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    form = Form.zero()
    for _ in range(draw(st.integers(0, 4))):
        sign, w = wedge_monomial(draw(st.lists(st.sampled_from(gens), max_size=4, unique=True)))
        poly = Polynomial.zero()
        for _ in range(draw(st.integers(1, 3))):
            mono = monomial(draw(st.lists(st.tuples(st.sampled_from(variables),
                                                    st.integers(1, 2)), max_size=3)))
            coeff = Scalar.zero()
            for k in draw(st.lists(st.integers(-2, 2), min_size=1, max_size=2, unique=True)):
                coeff = coeff + Scalar.of(draw(rationals), draw(rationals), k)
            poly = poly + Polynomial({mono: coeff})
        form = form + Form({w: poly.scale(sign)})
    return GKCochain(form, model, sig)


@settings(max_examples=60, deadline=None)
@given(cochains(), st.data())
def test_round_trip_with_shuffled_wedges(c, data):
    assert cochain_from_json(cochain_to_json(c)) == c
    doc = json.loads(cochain_to_json(c))
    expected = Form.zero()
    for term in doc["terms"]:
        w = tuple(WedgeGen.from_token(t) for t in term["wedge"])
        perm = data.draw(st.permutations(range(len(w))))
        term["wedge"] = [term["wedge"][i] for i in perm]
        expected = expected + Form({w: c.form.terms[w].scale(perm_sign(perm))})
    back = cochain_from_dict(doc)
    assert back.form == expected
    assert (back.sig, back.model) == (c.sig, c.model)
