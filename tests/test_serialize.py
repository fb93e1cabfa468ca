import json

from theta_forms.exterior import Form, WedgeGen
from theta_forms.forms import (GKCochain, build_km_nabla, build_mixed,
                               build_psi_cup, build_psi_q)
from theta_forms.models import Signature, fock_model
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
