import copy
import json
from contextlib import contextmanager
from fractions import Fraction
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from theta_forms.cli import main
from theta_forms.exterior import Form, WedgeGen, perm_sign, wedge_monomial, xi, xibar
from theta_forms.forms import (GKCochain, build_km_nabla, build_mixed, build_psi_cup,
                               build_psi_orth, build_psi_q)
from theta_forms.models import (ORTHOGONAL, UNITARY, Signature, column_kinds, fock_model,
                                mixed_model)
from theta_forms.poly import Polynomial, X, Xbar, Y, Ybar, monomial
from theta_forms.scalars import Scalar
from theta_forms.serialize import (cochain_from_dict, cochain_from_json, cochain_to_json,
                                   cochain_to_latex)
from theta_forms.theta import e8_gram, gram_from_dict, gram_from_json, gram_to_json


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


def test_gram_accepts_integer_and_string_entries():
    L = gram_from_json(json.dumps({"dim": 2, "gram": [[2, "1"], ["1", 2]]}))
    assert L.entries == ((2, 1), (1, 2))


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
    with several powers of pi, monomials in the four matrix variable kinds,
    each variable in a column whose kind (models.column_kinds) allows it."""
    family = draw(st.sampled_from((UNITARY, ORTHOGONAL)))
    p, q, r = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(0, 2))
    s = 0 if family == ORTHOGONAL else draw(st.integers(0, 2))
    sig = Signature(p, q, r, s, family)
    model = draw(st.sampled_from((fock_model(min(r, s)), mixed_model(min(r, s)))))
    # every index within the signature, conjugates only in the unitary family,
    # none in a 'pure' column and nothing holomorphic in a 'conj' one
    unitary = family == UNITARY
    gens = [g(i, j) for g in ((xi, xibar) if unitary else (xi,))
            for i in range(1, p + 1) for j in range(1, q + 1)]
    variables = [v(i, c) for v in ((X, Xbar, Y, Ybar) if unitary else (X, Y))
                 for i in range(1, (p if v in (X, Xbar) else q) + 1)
                 for c, kind in enumerate(column_kinds(sig, model), 1)
                 if kind != ("pure" if v in (Xbar, Ybar) else "conj")] or [None]
    rationals = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    form = Form.zero()
    for _ in range(draw(st.integers(0, 4))):
        sign, w = wedge_monomial(draw(st.lists(st.sampled_from(gens), max_size=4, unique=True)))
        poly = Polynomial.zero()
        for _ in range(draw(st.integers(1, 3))):
            mono = monomial(draw(st.lists(st.tuples(st.sampled_from(variables),
                                                    st.integers(1, 2)),
                                          max_size=3 if variables[0] else 0)))
            coeff = Scalar.zero()
            for k in draw(st.lists(st.integers(-2, 2), min_size=1, max_size=2, unique=True)):
                coeff = coeff + Scalar.of(draw(rationals), draw(rationals), k)
            poly = poly + Polynomial({mono: coeff})
        form = form + Form({w: poly.scale(sign)})
    return GKCochain(form, model, sig)


@pytest.mark.parametrize("sig, old, new, kind", [
    (Signature(2, 1, 1, 0), '"X:1:1"', '"Xbar:1:1"', "pure"),     # psi_q, fock:0
    (Signature(2, 1, 0, 1), '"Xbar:1:1"', '"X:1:1"', "conj"),     # psi_cup, fock:0
])
def test_import_rejects_a_variable_its_column_kind_forbids(sig, old, new, kind):
    c = (build_psi_q if sig.s == 0 else build_psi_cup)(sig)
    assert column_kinds(sig, c.model) == [kind]
    text = cochain_to_json(c)
    assert old in text
    with pytest.raises(ValueError, match=f"in a {kind} column of model 'fock:0'"):
        cochain_from_json(text.replace(old, new))


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


def test_json_coefficients_reduce_each_component():
    # gcd(re, im, den) = 1 for (1 + 2i) / 2, yet re/den = 1/2 and im/den = 1
    c = GKCochain(Form({(): Polynomial.constant(Scalar.of(Fraction(1, 2), 1, -1))}),
                  fock_model(0), Signature(1, 1, 0, 0))
    (term,) = json.loads(cochain_to_json(c))["terms"]
    assert term["poly"] == [{"coeff": {"re": "1/2", "im": "1", "piExp": -1}, "mono": []}]
    assert cochain_to_latex(c) == "\\left[\\left((1/2 + 1 i) \\pi^{-1}\\right)\\right]"


# ---------------------------------------------------------------------------
# The direct writer against json.dumps
# ---------------------------------------------------------------------------

def _dict_writer(c: GKCochain) -> str:
    """The generic writer cochain_to_json replaced: build the document as a
    dict, then json.dumps it.  Coefficients come from the public
    Scalar.terms, as lowest-terms Fractions per component."""
    sig = c.sig
    terms = []
    for w, p in c.form.sorted_terms():
        entries = []
        for mono, s in p.sorted_terms():
            mono_json = [[v.token(), e] for v, e in mono]
            for k, (re, im) in sorted(s.terms.items()):
                entries.append({"coeff": {"re": str(re), "im": str(im), "piExp": k},
                                "mono": mono_json})
        terms.append({"wedge": [g.token() for g in w], "poly": entries})
    data = {"signature": {"p": sig.p, "q": sig.q, "r": sig.r, "s": sig.s,
                          "family": sig.family},
            "model": c.model.token(), "terms": terms}
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def _assert_json_layout(c: GKCochain) -> str:
    text = cochain_to_json(c)
    assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"
    assert text == _dict_writer(c)
    return text


@settings(max_examples=80, deadline=None)
@given(cochains())
def test_writer_emits_the_json_dumps_layout(c):
    _assert_json_layout(c)


def _cochain(terms: dict) -> GKCochain:
    return GKCochain(Form(terms), mixed_model(1), Signature(2, 1, 1, 1))


def test_writer_explicit_cases():
    zero = _cochain({})
    assert json.loads(_assert_json_layout(zero))["terms"] == []
    assert _assert_json_layout(zero).endswith('  "terms": []\n}\n')
    # an empty wedge with the constant monomial beside a degree-2 monomial
    mono = monomial([(X(1, 1), 1), (Ybar(1, 1), 2)])
    unit = Polynomial({(): Scalar.of(Fraction(-1, 3)), mono: Scalar.one()})
    (term,) = json.loads(_assert_json_layout(_cochain({(): unit})))["terms"]
    assert term["wedge"] == []
    assert [e["mono"] for e in term["poly"]] == [[], [["X:1:1", 1], ["Ybar:1:1", 2]]]
    # several pi exponents on one monomial: one entry each, by increasing
    # exponent, all with the same mono
    s = Scalar.of(1, 0, 2) + Scalar.of(Fraction(1, 2), -1, -1) + Scalar.of(0, 5, 0)
    w = (xi(1, 1), xibar(2, 1))
    text = _assert_json_layout(_cochain({w: Polynomial({mono: s}), (): unit}))
    term = json.loads(text)["terms"][1]
    assert term["wedge"] == ["xi:1:1", "xibar:2:1"]
    assert [e["coeff"] for e in term["poly"]] == [
        {"re": "1/2", "im": "-1", "piExp": -1},
        {"re": "0", "im": "5", "piExp": 0},
        {"re": "1", "im": "0", "piExp": 2}]
    assert all(e["mono"] == [["X:1:1", 1], ["Ybar:1:1", 2]] for e in term["poly"])


# ---------------------------------------------------------------------------
# The reader on non-canonical documents
# ---------------------------------------------------------------------------

def _doc(*terms) -> dict:
    return {"signature": {"p": 2, "q": 1, "r": 1, "s": 1, "family": "unitary"},
            "model": "mixed:1",
            "terms": [{"wedge": w, "poly": [{"coeff": {"re": re, "im": im, "piExp": k},
                                             "mono": mono} for re, im, k, mono in entries]}
                      for w, entries in terms]}


X11, Y11, X21 = (Polynomial.variable(v) for v in (X(1, 1), Y(1, 1), X(2, 1)))
XI = Form({(xi(1, 1),): Polynomial.one()})
XIBAR = Form({(xibar(1, 1),): Polynomial.one()})


def _read(*terms) -> Form:
    back = cochain_from_dict(_doc(*terms))
    assert (back.sig, back.model) == (Signature(2, 1, 1, 1), mixed_model(1))
    return back.form


def test_reader_sorts_and_merges_monomials():
    # an unsorted mono
    form = _read((["xi:1:1"], [("1", "0", 0, [["Y:1:1", 1], ["X:1:1", 2]])]))
    assert form == XI.scale(X11 ** 2 * Y11)
    # a repeated variable, and exponent 0
    form = _read((["xi:1:1"], [("1", "0", 0, [["X:1:1", 1], ["Y:1:1", 0], ["X:1:1", 2]])]))
    assert form == XI.scale(X11 ** 3)


def test_reader_reduces_rationals_and_sums_entries():
    half_i = Scalar.of(Fraction(1, 2), Fraction(-3, 2), 1)
    form = _read((["xi:1:1"], [("2/4", "-6/4", 1, [["X:1:1", 1]])]))
    assert form == XI.scale(X11.scale(half_i))
    # duplicate entries add up, also across an unreduced spelling
    form = _read((["xi:1:1"], [("1/2", "0", 0, [["X:1:1", 1]]),
                               ("2/4", "0", 0, [["X:1:1", 1]]),
                               ("1", "1", -1, [])]))
    assert form == XI.scale(X11 + Polynomial.constant(Scalar.of(1, 1, -1)))


def test_reader_drops_terms_that_cancel():
    form = _read((["xi:1:1"], [("1/3", "2", 0, [["X:1:1", 1]]),
                               ("-1/3", "-2", 0, [["X:1:1", 1]]),
                               ("5", "0", 0, [["X:2:1", 1]])]),
                 (["xibar:1:1"], [("1", "0", 0, []), ("-1", "0", 0, [])]))
    assert form == XI.scale(X21.scale(5))
    assert form.terms.keys() == {(xi(1, 1),)}
    for poly in form.terms.values():
        assert all(not c.is_zero() for c in poly.terms.values())


def test_reader_sorts_wedges_with_their_sign():
    # xibar ^ xi = -(xi ^ xibar); two spellings of one wedge sum; a repeated
    # generator is zero
    form = _read((["xibar:1:1", "xi:1:1"], [("1", "0", 0, [["X:1:1", 1]])]),
                 (["xi:1:1", "xibar:1:1"], [("3", "0", 0, [["Y:1:1", 1]])]),
                 (["xi:1:1", "xi:1:1"], [("7", "0", 0, [])]))
    assert form == XI.wedge(XIBAR).scale(Y11.scale(3) - X11)
    form = _read((["xibar:1:1", "xi:1:1"], [("1", "0", 0, [])]),
                 (["xi:1:1", "xibar:1:1"], [("1", "0", 0, [])]))
    assert form.is_zero()


@pytest.mark.parametrize("text", ["3", "-1/2", "2/4", "-0", "007/10"])
def test_rational_grammar_accepts(text):
    form = _read(([], [(text, text, 0, [])]))
    q = Fraction(text)
    assert form == Form.unit().scale(Scalar.of(q, q))


@pytest.mark.parametrize("value", [
    "0.5", "1e400", "1E2", " 1 ", "1 ", "1_0", "+1", "1/-2", "1/0", "-1/00", "", "/2", "1/",
    "1//2", "١", "1\n", "inf", "nan", 0.5, 1, True, None, ["1"]])
def test_rational_grammar_rejects(value):
    with pytest.raises(ValueError):
        cochain_from_dict(_doc(([], [(value, "0", 0, [])])))
    with pytest.raises(ValueError):
        cochain_from_dict(_doc(([], [("0", value, 0, [])])))
    if type(value) is not int:
        with pytest.raises(ValueError):
            gram_from_json(json.dumps({"dim": 1, "gram": [[value]]}))


@pytest.mark.parametrize("mono", [[["X:1:1", True]], [["X:1:1", False]], [["X:1:1", 1.0]],
                                  [["X:1:1", "1"]], "X:1:1", [["X:1:1"]]])
def test_reader_rejects_malformed_mono_after_a_good_one(mono):
    # the per-cochain monomial cache must not let an equal-valued but
    # ill-typed exponent through
    good = ("1", "0", 0, [["X:1:1", 1]])
    with pytest.raises(ValueError):
        cochain_from_dict(_doc((["xi:1:1"], [good, ("1", "0", 0, mono)])))


# One ASCII grammar for the indices inside tokens: rows and columns
# [1-9][0-9]*, the model split 0|[1-9][0-9]*.
LAX_VARIABLES = ["X: 1:1", "X:1:1_0", "Y:١:1", "X:01:1", "X:+1:1", "X:1:-1", "X:0:1", "X:1:"]
LAX_GENERATORS = ["xi:+1:01", "xi: 1:1", "xi:1:١", "xi:0:1", "xibar:1:1 "]
LAX_MODELS = ["fock: 2", "mixed:01", "mixed:+1", "mixed:١", "mixed:-1", "mixed:"]


@pytest.mark.parametrize("tok", LAX_VARIABLES)
def test_reader_rejects_lax_variable_indices(tok):
    with pytest.raises(ValueError):
        cochain_from_json(json.dumps(_doc((["xi:1:1"], [("1", "0", 0, [[tok, 1]])]))))


@pytest.mark.parametrize("tok", LAX_GENERATORS)
def test_reader_rejects_lax_generator_indices(tok):
    with pytest.raises(ValueError):
        cochain_from_json(json.dumps(_doc(([tok], [("1", "0", 0, [])]))))


@pytest.mark.parametrize("tok", LAX_MODELS)
def test_reader_rejects_lax_model_splits(tok):
    with pytest.raises(ValueError):
        cochain_from_json(json.dumps({**_doc(([], [("1", "0", 0, [])])), "model": tok}))


def test_reader_accepts_plain_indices():
    doc = _doc((["xi:2:1"], [("1", "0", 0, [["X:10:1", 1]])]))
    doc["signature"]["p"] = 10
    back = cochain_from_json(json.dumps({**doc, "model": "fock:0"}))
    assert back.model == fock_model(0)
    assert back.form == Form({(xi(2, 1),): Polynomial.variable(X(10, 1))})


def test_two_spellings_of_one_monomial_merge():
    # an unsorted and a sorted spelling of X^2 Y in one wedge: one term, 1 + 3
    form = _read((["xi:1:1"], [("1", "0", 0, [["Y:1:1", 1], ["X:1:1", 2]]),
                               ("3", "0", 0, [["X:1:1", 2], ["Y:1:1", 1]])]))
    assert form == XI.scale((X11 ** 2 * Y11).scale(4))
    # a repeated variable against its summed exponent, in either order
    for first, second in [([["X:1:1", 1], ["X:1:1", 1]], [["X:1:1", 2]]),
                          ([["X:1:1", 2]], [["X:1:1", 1], ["X:1:1", 1]])]:
        form = _read((["xi:1:1"], [("1", "0", 0, first), ("2", "0", 0, second)]))
        assert form == XI.scale((X11 ** 2).scale(3))
    # a constant spelled with an exponent-0 variable cancels the plain
    # constant, and one monomial's spellings also merge across wedges
    form = _read((["xi:1:1"], [("1", "0", 0, [["Y:1:1", 0]]), ("-1", "0", 0, []),
                               ("1", "0", 0, [["Y:1:1", 1], ["X:1:1", 2]])]),
                 (["xibar:1:1"], [("2", "0", 0, [["X:1:1", 2], ["Y:1:1", 1]])]))
    assert form == XI.scale(X11 ** 2 * Y11) + XIBAR.scale((X11 ** 2 * Y11).scale(2))


# ---------------------------------------------------------------------------
# The LaTeX writer against a per-term renderer
# ---------------------------------------------------------------------------

def _tex_writer(c: GKCochain) -> str:
    """The plain writer cochain_to_latex replaced: every monomial, coefficient
    and generator rendered where it occurs, through the public Scalar.latex."""
    def mono_tex(mono):
        bits = []
        for v, e in mono:
            base = {"X": "X", "Y": "Y", "Xbar": "\\overline{X}",
                    "Ybar": "\\overline{Y}", "Z": "x"}[v.kind] + f"_{{{v.row},{v.col}}}"
            bits.append(base if e == 1 else f"{base}^{{{e}}}")
        return " ".join(bits)

    def poly_tex(p):
        if p.is_zero():
            return "0"
        bits = []
        for mono, s in p.sorted_terms():
            mt = mono_tex(mono)
            bits.append(f"\\left({s.latex()}\\right)" + (f" {mt}" if mt else ""))
        return " + ".join(bits)

    def gen_tex(g):
        return ("\\xi" if g.kind == "xi" else "\\overline{\\xi}") + f"_{{{g.row},{g.col}}}"

    if c.form.is_zero():
        return "0"
    bits = []
    for w, p in c.form.sorted_terms():
        wedge = " \\wedge ".join(gen_tex(g) for g in w)
        bits.append(f"\\left[{poly_tex(p)}\\right]" + (f" \\, {wedge}" if wedge else ""))
    return " + ".join(bits)


@settings(max_examples=80, deadline=None)
@given(cochains())
def test_latex_writer_matches_the_per_term_renderer(c):
    assert cochain_to_latex(c) == _tex_writer(c)


MONO = monomial([(X(1, 1), 2), (Ybar(1, 1), 3)])


@pytest.mark.parametrize("terms, tex", [
    ({}, "0"),
    # the empty wedge and the constant monomial
    ({(): Polynomial.constant(Scalar.of(2))}, "\\left[\\left(2\\right)\\right]"),
    ({(xi(1, 1), xibar(2, 1)): Polynomial({MONO: Scalar.one()})},
     "\\left[\\left(1\\right) X_{1,1}^{2} \\overline{Y}_{1,1}^{3}\\right]"
     " \\, \\xi_{1,1} \\wedge \\overline{\\xi}_{2,1}"),
    # real, imaginary and complex coefficients at pi-powers 0, 1 and -2
    ({(): Polynomial({(): Scalar.of(Fraction(-1, 2)), MONO: Scalar.of(0, 3, 1)}),
      (xi(1, 1),): Polynomial({MONO: Scalar.of(1, -2, -2)})},
     "\\left[\\left(-1/2\\right) + \\left(3 i \\pi\\right) X_{1,1}^{2} \\overline{Y}_{1,1}^{3}\\right]"
     " + \\left[\\left((1 - 2 i) \\pi^{-2}\\right) X_{1,1}^{2} \\overline{Y}_{1,1}^{3}\\right]"
     " \\, \\xi_{1,1}"),
    ({(xibar(1, 1),): Polynomial({(): Scalar.of(0, Fraction(-1, 3), -2),
                                  MONO: Scalar.of(Fraction(5, 4), 1, 0)})},
     "\\left[\\left(-1/3 i \\pi^{-2}\\right) + \\left((5/4 + 1 i)\\right)"
     " X_{1,1}^{2} \\overline{Y}_{1,1}^{3}\\right] \\, \\overline{\\xi}_{1,1}"),
    # a coefficient with two pi-powers, and the same one again on another
    # monomial and in another wedge
    ({(xi(1, 1),): Polynomial({(): Scalar.of(1, 0, 1) + Scalar.of(0, -1, -2),
                               MONO: Scalar.of(1, 0, 1) + Scalar.of(0, -1, -2)}),
      (xi(2, 1),): Polynomial({(): Scalar.of(0, -1, -2) + Scalar.of(1, 0, 1)})},
     "\\left[\\left(-1 i \\pi^{-2} + 1 \\pi\\right) + \\left(-1 i \\pi^{-2} + 1 \\pi\\right)"
     " X_{1,1}^{2} \\overline{Y}_{1,1}^{3}\\right] \\, \\xi_{1,1}"
     " + \\left[\\left(-1 i \\pi^{-2} + 1 \\pi\\right)\\right] \\, \\xi_{2,1}"),
], ids=["zero", "empty-wedge", "exponents", "pi-powers", "imaginary-complex", "two-pi-powers"])
def test_latex_writer_pinned_cases(terms, tex):
    c = _cochain(terms)
    assert cochain_to_latex(c) == tex == _tex_writer(c)


# ---------------------------------------------------------------------------
# A fuzz of the reader: build documents with nodes replaced or deleted
# ---------------------------------------------------------------------------

@cache
def _fuzz_sources() -> tuple:
    return tuple(cochain_to_json(c) for c in (
        build_psi_q(Signature(2, 1, 1, 0)), build_psi_cup(Signature(2, 1, 1, 1)),
        build_mixed(Signature(2, 1, 1, 1)), build_km_nabla(Signature(1, 1, 1, 1)),
        build_psi_orth(Signature(2, 1, 1, 0, ORTHOGONAL))))


HUGE = [1 << 40, 1 << 63, -(1 << 63), (1 << 64) + 1, 10 ** 30, -(10 ** 30)]
# values a document holds, so that some mutants are still valid documents
PLAUSIBLE = ["X:1:1", "X:2:1", "Y:1:1", "Xbar:1:1", "Ybar:1:2", "xi:1:1", "xibar:1:1",
             "xi:2:1", "1", "-1/2", "2/4", "0", "fock:0", "mixed:1", "unitary", "orthogonal",
             "re", "im", "piExp", "mono", "coeff", "wedge", "poly"]
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.sampled_from(HUGE) | st.floats()
    | st.text(max_size=8) | st.sampled_from(PLAUSIBLE),
    lambda kids: (st.lists(kids, max_size=3)
                  | st.dictionaries(st.sampled_from(PLAUSIBLE) | st.text(max_size=4), kids,
                                    max_size=3)),
    max_leaves=6)


def _slots(node, out: list, role: tuple = ()) -> list:
    """(container, key, role) of every node below node; a node's role is
    the dict keys on its path, such as ("terms", "poly", "coeff", "re")."""
    keys = list(node) if isinstance(node, dict) else range(len(node)) if isinstance(node, list) else ()
    for k in keys:
        sub = role + (k,) if isinstance(node, dict) else role
        out.append((node, k, sub))
        _slots(node[k], out, sub)
    return out


def _like(value, role, doc):
    """A copy of another node of the same role and JSON type in the document
    (an int may also be small or HUGE), so that many mutants still read."""
    same = [n[k] for n, k, r in _slots(doc, []) if r == role and type(n[k]) is type(value)]
    like = st.sampled_from(same).map(copy.deepcopy)
    return like | st.integers(-1, 3) | st.sampled_from(HUGE) if type(value) is int else like


@st.composite
def mutated_documents(draw):
    """A build document with one or two nodes deleted or replaced: by any
    JSON value, or by a value like the node's own."""
    doc = json.loads(draw(st.sampled_from(_fuzz_sources())))
    for _ in range(draw(st.integers(1, 2))):
        node, key, role = draw(st.sampled_from(_slots(doc, [])))
        how = draw(st.sampled_from(("delete", "any", "like", "like", "like", "like")))
        if how == "delete":
            del node[key]
        else:
            node[key] = draw(JSON_VALUES if how == "any" else _like(node[key], role, doc))
    return doc


@contextmanager
def _address_space_cap(extra: int = 128 << 20):
    """Cap this process's address space at its present size plus extra, so
    a reader that allocates in proportion to a drawn huge int raises
    MemoryError instead of taking the machine's memory.  No cap where the
    size cannot be read."""
    try:
        import resource
        with open("/proc/self/statm") as fh:
            size = int(fh.read().split()[0]) * resource.getpagesize()
    except (ImportError, OSError):
        yield
        return
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = min(x for x in (size + extra, soft, hard) if x != resource.RLIM_INFINITY)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


@settings(max_examples=200, deadline=None)
@given(mutated_documents())
def test_reader_fuzz_accepts_or_raises_value_error(doc):
    """A mutated document is read or rejected with ValueError, nothing
    else; one that is read writes back to a document that reads to the
    same cochain."""
    with _address_space_cap():
        try:
            c = cochain_from_dict(doc)
        except ValueError:
            return
        assert cochain_from_json(cochain_to_json(c)) == c
        cochain_to_latex(c)


TOO_BIG = [1 << 127, -(1 << 127) - 1, 10 ** 5000, -(10 ** 5000)]


@pytest.mark.parametrize("value", TOO_BIG, ids=["2^127", "-2^127-1", "10^5000", "-10^5000"])
@pytest.mark.parametrize("field", ["p", "exponent", "piExp"])
def test_reader_refuses_ints_the_writers_cannot_print(field, value):
    """An int outside the signed 128-bit range is refused on import, by a
    message that gives its size, not its digits: a 5000-digit one would
    otherwise read and make both writers raise."""
    doc = json.loads(cochain_to_json(build_psi_q(Signature(1, 1, 1, 0))))
    entry = next(e for t in doc["terms"] for e in t["poly"] if e["mono"])
    if field == "exponent":
        entry["mono"][0][1] = value
    elif field == "piExp":
        entry["coeff"]["piExp"] = value
    else:
        doc["signature"][field] = value
    with pytest.raises(ValueError, match="bits outside the signed 128-bit range"):
        cochain_from_dict(doc)


@pytest.mark.parametrize("value", TOO_BIG, ids=["2^127", "-2^127-1", "10^5000", "-10^5000"])
def test_gram_reader_refuses_ints_the_writer_cannot_print(value):
    with pytest.raises(ValueError, match="bits outside the signed 128-bit range"):
        gram_from_dict({"dim": 2, "gram": [[2, value], [value, 2]]})
    # both ends of the range pass the int check: the top reads and writes
    # back, the bottom is refused only as no positive-definite entry
    top = (1 << 127) - 1
    assert json.loads(gram_to_json(gram_from_dict({"dim": 1, "gram": [[top]]}))) == {
        "dim": 1, "gram": [[str(top)]]}
    with pytest.raises(ValueError, match="not positive definite"):
        gram_from_dict({"dim": 1, "gram": [[-(1 << 127)]]})


def test_reader_refuses_rationals_the_writers_cannot_print():
    """A rational string with a numerator or denominator outside the signed
    128-bit range is refused on import, and so are in-range entries whose
    reduced sum leaves it: both writers would otherwise raise Python's
    4300-digit error.  A sum that reduces back into range reads."""
    a, b = (1 << 120) + 1, (1 << 120) + 3  # coprime
    x11 = [["X:1:1", 1]]
    too_big = [
        # each of 2200 digits: their sum's denominator has about 4400
        [(f"1/{10 ** 2200 + 1}", "0", 0, x11), (f"1/{10 ** 2200 + 3}", "0", 0, x11)],
        [(str(1 << 127), "0", 0, [])],
        # each in range, the sum's denominator of 241 bits not
        [(f"1/{a}", "0", 0, x11), ("0", f"1/{b}", 0, []), (f"1/{b}", "0", 0, x11)],
    ]
    for entries in too_big:
        with pytest.raises(ValueError, match="bits outside the signed 128-bit range"):
            cochain_from_dict(_doc((["xi:1:1"], entries)))
    form = _read((["xi:1:1"], [(f"1/{a}", "0", 0, x11), (f"{a - 1}/{a}", "1", 0, x11),
                               (f"1/{b}", "0", 0, [])]))
    assert form == XI.scale(X11.scale(Scalar.of(1, 1)) + Polynomial.constant(Fraction(1, b)))
    # the gram reader shares the bound on a rational's two parts
    entry = f"1/{(1 << 200) + 1}"
    with pytest.raises(ValueError, match="bits outside the signed 128-bit range"):
        gram_from_dict({"dim": 2, "gram": [["2", entry], [entry, "2"]]})


def test_reader_bounds_each_printed_part(tmp_path, capsys):
    """The bound applies to re/den and im/den as the writers print them, each
    in lowest terms, not to the shared denominator: 1/a + i/b with coprime
    120-bit a, b has a 239-bit den, but each part prints, so it imports and
    exports to bytes that re-import to the same bytes.  Two entries of one
    monomial summing to 1/a + 1/b are refused, and the message names the term."""
    a, b = (1 << 119) + 1, (1 << 119) + 3  # coprime
    x11 = [["X:1:1", 1]]
    form = _read((["xi:1:1"], [(f"1/{a}", f"1/{b}", 0, x11)]))
    assert form == XI.scale(X11.scale(Scalar.of(Fraction(1, a), Fraction(1, b))))
    doc = tmp_path / "doc.json"
    doc.write_text(json.dumps(_doc((["xi:1:1"], [(f"1/{a}", f"1/{b}", 0, x11)]))))
    assert main(["export", "--in", str(doc), "--format", "json"]) == 0
    first = tmp_path / "first.json"
    first.write_text(capsys.readouterr().out)
    assert main(["export", "--in", str(first), "--format", "json"]) == 0
    assert capsys.readouterr().out == first.read_text()
    with pytest.raises(ValueError, match=r"^coefficient at wedge \['xi:1:1'\], mono "
                                         r"\[\['X:1:1', 1\]\], piExp 3: integer of 239 bits"):
        # the constant monomial comes first, so the message names the right one
        _read((["xi:1:1"], [("1", "0", 3, []), (f"1/{a}", "0", 3, x11),
                            (f"1/{b}", "0", 3, x11)]))


@pytest.mark.parametrize("field", ["p", "q", "r", "s", "exponent", "piExp"])
def test_reader_takes_huge_ints(field):
    """Huge ints read in O(1): a signature entry widens the signature, an
    exponent or pi-exponent is kept; each round-trips."""
    doc = json.loads(cochain_to_json(build_mixed(Signature(2, 1, 1, 1))))
    entry = next(e for t in doc["terms"] for e in t["poly"] if e["mono"])
    if field == "exponent":
        entry["mono"][0][1] = (1 << 64) + 1
    elif field == "piExp":
        entry["coeff"]["piExp"] = -(1 << 63)
    else:
        doc["signature"][field] = 1 << 40
    with _address_space_cap():
        c = cochain_from_dict(doc)
        assert cochain_from_json(cochain_to_json(c)) == c
    assert json.loads(cochain_to_json(c)) == doc
