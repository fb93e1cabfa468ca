"""JSON and LaTeX export of cochains, plus the Gram-matrix file format.

The JSON schema (stable, canonical ordering, byte-reproducible):

    {"signature": {"p":, "q":, "r":, "s":, "family":},
     "model": "fock:0",
     "terms": [{"wedge": ["xibar:1:1", ...],
                "poly": [{"coeff": {"re": "a/b", "im": "c/d", "piExp": k},
                          "mono": [["X:1:1", e], ...]}, ...]}, ...]}

A Scalar with several pi-exponents expands into several poly entries sharing
the same mono.  ``cochain_to_json`` writes this fixed schema directly, in
exactly the layout of ``json.dumps(..., indent=2, sort_keys=True)`` plus a
final newline: each distinct monomial's "mono" list is rendered once per
cochain.  Gram matrices: {"dim": n, "gram": [["2", "-1", ...], ...]}.

Rationals (a coefficient's "re"/"im", a Gram entry given as a string) follow
one strict grammar on import: ASCII ``-?[0-9]+(/[0-9]+)?`` with a nonzero
denominator, such as "3", "-1/2" or "2/4".  Exponents, decimal points,
spaces and underscores are rejected, as are JSON floats; a Gram entry may
also be a JSON integer.  Import puts everything else in canonical form:
monomials are sorted and merged, wedges sorted with their sign, equal
entries summed and cancelled terms dropped.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from functools import cache

from .exterior import Form, WedgeGen, wedge_monomial
from .forms import GKCochain
from .models import ModelTag, Signature
from .poly import Monomial, Polynomial, VariableId, _poly, monomial
from .scalars import _mac_ratios, _reduce
from .theta import GramMatrix

# Each string is the text between two values of the json.dumps layout at
# the depth where it sits: a term at depth 2, its poly entries at depth 4,
# a monomial's (variable, exponent) pairs at depth 6.
_TERM = '    {\n      "poly": [\n'
_ENTRY = '        {\n          "coeff": {\n            "im": "'
_PI = '",\n            "piExp": '
_RE = ',\n            "re": "'
_MONO = '"\n          },\n          "mono": '
_ENTRY_END = '\n        }'
_WEDGE = '\n      ],\n      "wedge": '
_TERM_END = '\n    }'


def _mono_json(mono: Monomial) -> str:
    if not mono:
        return "[]"
    pairs = ",\n".join(f'            [\n              "{v.token()}",\n              {e}\n            ]'
                       for v, e in mono)
    return f"[\n{pairs}\n          ]"


def _wedge_json(w) -> str:
    if not w:
        return "[]"
    gens = ",\n".join(f'        "{g.token()}"' for g in w)
    return f"[\n{gens}\n      ]"


def cochain_to_json(c: GKCochain) -> str:
    sig = c.sig
    head = (f'{{\n  "model": "{c.model.token()}",\n  "signature": {{\n'
            f'    "family": "{sig.family}",\n    "p": {sig.p},\n    "q": {sig.q},\n'
            f'    "r": {sig.r},\n    "s": {sig.s}\n  }},\n  "terms": ')
    monos: dict = {}  # Monomial -> its "mono" text, once per cochain
    terms = []
    for w, p in c.form.sorted_terms():
        entries = []
        for mono, s in p.sorted_terms():
            tail = monos.get(mono)
            if tail is None:
                tail = monos[mono] = _MONO + _mono_json(mono) + _ENTRY_END
            for k, _, _, re_s, im_s in s._text_terms():
                entries.append(f"{_ENTRY}{im_s}{_PI}{k}{_RE}{re_s}{tail}")
        terms.append(_TERM + ",\n".join(entries) + _WEDGE + _wedge_json(w) + _TERM_END)
    return head + ("[\n" + ",\n".join(terms) + "\n  ]" if terms else "[]") + "\n}\n"


def cochain_to_dict(c: GKCochain) -> dict:
    return json.loads(cochain_to_json(c))


def _int(x) -> int:
    if type(x) is not int:
        raise ValueError(f"expected an integer, got {x!r}")
    return x


def _list(x) -> list:
    # a string would be read one character at a time
    if type(x) is not list:
        raise ValueError(f"expected a list, got {x!r}")
    return x


def _rational(x) -> tuple[int, int]:
    """(numerator, denominator) of a rational string in the strict grammar.
    A JSON float would import as its inexact binary expansion, and
    Fraction's own grammar takes exponents, so "1e1000000000" would ask
    for a billion-digit integer."""
    # re caches the compiled pattern on first use, not at import
    m = re.fullmatch(r"(-?[0-9]+)(?:/([0-9]+))?", x) if type(x) is str else None
    if m is None:
        raise ValueError(f"expected a rational string -?[0-9]+(/[0-9]+)?, got {x!r}")
    num, den = m.groups()
    den = int(den) if den else 1
    if den == 0:
        raise ValueError(f"zero denominator in {x!r}")
    return int(num), den


def _form_from_terms(terms) -> Form:
    """One pass over the "terms" list.  Per-cochain caches map each token to
    its WedgeGen or VariableId, each rational string to its integer pair and
    each mono list (by its repr, which tells 1 from 1.0 and true) to its
    canonical monomial; coefficients are summed per wedge as integer
    triples."""
    gens, variables = cache(WedgeGen.from_token), cache(VariableId.from_token)
    rationals = cache(_rational)
    monos: dict = {}
    sums: dict = {}  # canonical wedge -> triple accumulator
    for term in _list(terms):
        sign, w = wedge_monomial([gens(tok) for tok in _list(term["wedge"])])
        rows = []
        for ent in _list(term["poly"]):
            coeff, mono = ent["coeff"], ent["mono"]
            key = repr(mono)
            m = monos.get(key)
            if m is None:
                m = monos[key] = monomial([(variables(tok), _int(e)) for tok, e in _list(mono)])
            rows.append((m, _int(coeff["piExp"]), rationals(coeff["re"]), rationals(coeff["im"])))
        # a repeated generator gives 0, but the entries are still checked
        if sign:
            _mac_ratios(sums.setdefault(w, {}), rows, sign)
    return Form({w: _poly(_reduce(acc)) for w, acc in sums.items()})


def cochain_from_dict(data: dict) -> GKCochain:
    """Import a cochain in canonical form (see the module docstring).
    Any malformed shape or value raises ValueError."""
    try:
        sd = data["signature"]
        sig = Signature(*(_int(sd[k]) for k in "pqrs"), sd["family"])
        model = ModelTag.from_token(data["model"])
        form = _form_from_terms(data["terms"])
    except (TypeError, AttributeError, KeyError, IndexError) as exc:
        raise ValueError(f"malformed cochain JSON: {exc!r}") from exc
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
        mt = _mono_tex(mono)
        bits.append(f"\\left({c.latex()}\\right)" + (f" {mt}" if mt else ""))
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
        bits.append(f"\\left[{_poly_tex(p)}\\right]" + (f" \\, {wedge}" if wedge else ""))
    return " + ".join(bits)


# ---------------------------------------------------------------------------
# Gram matrices
# ---------------------------------------------------------------------------

def gram_to_json(L: GramMatrix) -> str:
    data = {"dim": L.dim,
            "gram": [[str(x) for x in row] for row in L.entries]}
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def _gram_entry(x) -> Fraction:
    # bool is an int subclass and a float is inexact: neither is an entry
    return Fraction(x) if type(x) is int else Fraction(*_rational(x))


def gram_from_dict(data: dict) -> GramMatrix:
    """Any malformed shape or value raises ValueError."""
    try:
        rows = _list(data["gram"])
        if len(rows) != _int(data["dim"]):
            raise ValueError("gram row count does not match dim")
        return GramMatrix([[_gram_entry(x) for x in _list(row)] for row in rows])
    except (TypeError, AttributeError, KeyError, IndexError) as exc:
        raise ValueError(f"malformed gram JSON: {exc!r}") from exc


def gram_from_json(text: str) -> GramMatrix:
    return gram_from_dict(json.loads(text))
