"""JSON and LaTeX export of cochains, plus the Gram-matrix file format.

The JSON schema (stable, canonical ordering, byte-reproducible):

    {"signature": {"p":, "q":, "r":, "s":, "family":},
     "model": "fock:0",
     "terms": [{"wedge": ["xibar:1:1", ...],
                "poly": [{"coeff": {"re": "a/b", "im": "c/d", "piExp": k},
                          "mono": [["X:1:1", e], ...]}, ...]}, ...]}

A Scalar with several pi-exponents expands into several poly entries sharing
the same mono.  Gram matrices: {"dim": n, "gram": [["2", "-1", ...], ...]}
with rationals as "p/q" strings.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .exterior import Form, WedgeGen, wedge_monomial
from .forms import GKCochain
from .models import ModelTag, Signature
from .poly import Monomial, Polynomial, VariableId, monomial
from .scalars import Scalar
from .theta import GramMatrix


def _poly_entries(p: Polynomial) -> list[dict]:
    out = []
    for mono, c in p.sorted_terms():
        mono_json = [[v.token(), e] for v, e in mono]
        for k, (re, im) in sorted(c.terms.items()):
            out.append({"coeff": {"re": str(re), "im": str(im), "piExp": k},
                        "mono": mono_json})
    return out


def cochain_to_dict(c: GKCochain) -> dict:
    sig = c.sig
    terms = []
    for w, p in c.form.sorted_terms():
        terms.append({"wedge": [g.token() for g in w], "poly": _poly_entries(p)})
    return {
        "signature": {"p": sig.p, "q": sig.q, "r": sig.r, "s": sig.s,
                      "family": sig.family},
        "model": c.model.token(),
        "terms": terms,
    }


def cochain_to_json(c: GKCochain) -> str:
    return json.dumps(cochain_to_dict(c), indent=2, sort_keys=True) + "\n"


def _int(x) -> int:
    if type(x) is not int:
        raise ValueError(f"expected an integer, got {x!r}")
    return x


def _rational(x) -> Fraction:
    # a JSON float would import as its inexact binary expansion
    if type(x) is not str:
        raise ValueError(f"expected a rational as a string, got {x!r}")
    return Fraction(x)


def _poly_from_entries(entries) -> Polynomial:
    total = Polynomial.zero()
    for ent in entries:
        coeff = ent["coeff"]
        c = Scalar.of(_rational(coeff["re"]), _rational(coeff["im"]),
                      _int(coeff["piExp"]))
        mono: Monomial = monomial([(VariableId.from_token(tok), _int(e))
                                   for tok, e in ent["mono"]])
        total = total + Polynomial({mono: c})
    return total


def cochain_from_dict(data: dict) -> GKCochain:
    """Import a cochain, putting each wedge in canonical order with its sign.
    Any malformed shape or value raises ValueError."""
    try:
        sd = data["signature"]
        sig = Signature(*(_int(sd[k]) for k in "pqrs"), sd["family"])
        model = ModelTag.from_token(data["model"])
        terms = [(wedge_monomial(WedgeGen.from_token(tok) for tok in term["wedge"]),
                  _poly_from_entries(term["poly"])) for term in data["terms"]]
    except (TypeError, AttributeError, KeyError, IndexError) as exc:
        raise ValueError(f"malformed cochain JSON: {exc!r}") from exc
    form = Form.zero()
    for (sign, w), poly in terms:
        # canonical generator order with its sign; a repeated generator gives 0
        if sign:
            form = form + Form({w: poly if sign > 0 else -poly})
    return GKCochain(form, model, sig)


def cochain_from_json(text: str) -> GKCochain:
    return cochain_from_dict(json.loads(text))


# ---------------------------------------------------------------------------
# LaTeX
# ---------------------------------------------------------------------------

_VAR_TEX = {"X": "X", "Y": "Y", "Xbar": "\\overline{X}",
            "Ybar": "\\overline{Y}", "Z": "x"}


def _mono_tex(mono: Monomial) -> str:
    if not mono:
        return ""
    bits = []
    for v, e in mono:
        base = f"{_VAR_TEX[v.kind]}_{{{v.row},{v.col}}}"
        bits.append(base if e == 1 else f"{base}^{{{e}}}")
    return " ".join(bits)


def _poly_tex(p: Polynomial) -> str:
    if p.is_zero():
        return "0"
    bits = []
    for mono, c in p.sorted_terms():
        coeff = c.latex()
        mt = _mono_tex(mono)
        if mt:
            bits.append(f"\\left({coeff}\\right) {mt}")
        else:
            bits.append(f"\\left({coeff}\\right)")
    return " + ".join(bits)


def _gen_tex(g: WedgeGen) -> str:
    base = "\\xi" if g.kind == "xi" else "\\overline{\\xi}"
    return f"{base}_{{{g.row},{g.col}}}"


def cochain_to_latex(c: GKCochain) -> str:
    if c.form.is_zero():
        return "0"
    bits = []
    for w, p in c.form.sorted_terms():
        wedge = " \\wedge ".join(_gen_tex(g) for g in w)
        if wedge:
            bits.append(f"\\left[{_poly_tex(p)}\\right] \\, {wedge}")
        else:
            bits.append(f"\\left[{_poly_tex(p)}\\right]")
    return " + ".join(bits)


# ---------------------------------------------------------------------------
# Gram matrices
# ---------------------------------------------------------------------------

def gram_to_json(L: GramMatrix) -> str:
    data = {"dim": L.dim,
            "gram": [[str(x) for x in row] for row in L.entries]}
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def gram_from_dict(data: dict) -> GramMatrix:
    n = int(data["dim"])
    rows = data["gram"]
    if len(rows) != n:
        raise ValueError("gram row count does not match dim")
    return GramMatrix([[Fraction(str(x)) for x in row] for row in rows])


def gram_from_json(text: str) -> GramMatrix:
    return gram_from_dict(json.loads(text))
