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
final newline.  Gram matrices: {"dim": n, "gram": [["2", "-1", ...], ...]}.

Each call does per-value work once per distinct value, in tables that live
only for that call: ``cochain_to_json`` renders each distinct monomial's
"mono" text and each distinct coefficient's entry heads once, and
``cochain_to_latex`` each distinct monomial, coefficient and wedge
generator once; both join their pieces once.  The reader parses each
spelling of a "mono" list once, gives each canonical monomial one small-int
index (two spellings of one monomial share it), sums each wedge's entries
under those indices and maps them back to monomials once per wedge.

Rationals (a coefficient's "re"/"im", a Gram entry given as a string) follow
one strict grammar on import: ASCII ``-?[0-9]+(/[0-9]+)?`` with a nonzero
denominator, such as "3", "-1/2" or "2/4".  Exponents, decimal points,
spaces and underscores are rejected, as are JSON floats; a Gram entry may
also be a JSON integer.  Every index must fit the signature, as in a built
cochain: generator rows <= p and columns <= q, X/Xbar rows <= p, Y/Ybar rows
<= q, columns <= max(r, s), no Z, no conjugates in the orthogonal family,
and a fock or mixed model with split <= r.  Each variable must also fit
its column's kind under the model (models.column_kind, looked up for that
column alone, so a huge r or s costs nothing): no Xbar/Ybar in a 'pure'
column and no X/Y in a 'conj' one.  Import puts everything else in
canonical form: monomials are sorted and merged, wedges sorted with their
sign, equal entries summed and cancelled terms dropped.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from functools import cache

from .exterior import Form, WedgeGen, wedge_monomial
from .forms import GKCochain
from .models import UNITARY, ModelTag, Signature, column_kind
from .poly import Monomial, VariableId, _poly, monomial
from .scalars import Scalar, _mac_ratios, _reduce
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


def _mono_tail(mono: Monomial) -> str:
    """The text from the end of a poly entry's "coeff" to the end of the entry."""
    return _MONO + _mono_json(mono) + _ENTRY_END


def _coeff_heads(s: Scalar) -> tuple[str, ...]:
    """The start of each poly entry a coefficient expands into, up to its
    "mono" key: one per pi-exponent, by increasing exponent."""
    return tuple(f"{_ENTRY}{im_s}{_PI}{k}{_RE}{re_s}" for k, _, _, re_s, im_s in s._text_terms())


def _wedge_json(w) -> str:
    if not w:
        return "[]"
    gens = ",\n".join(f'        "{g.token()}"' for g in w)
    return f"[\n{gens}\n      ]"


def cochain_to_json(c: GKCochain) -> str:
    """The cochain's JSON document.  Each distinct monomial and coefficient
    is rendered once per call, and the pieces are joined once."""
    sig = c.sig
    out = [f'{{\n  "model": "{c.model.token()}",\n  "signature": {{\n'
           f'    "family": "{sig.family}",\n    "p": {sig.p},\n    "q": {sig.q},\n'
           f'    "r": {sig.r},\n    "s": {sig.s}\n  }},\n  "terms": ']
    tails, heads = cache(_mono_tail), cache(_coeff_heads)
    for w, p in c.form.sorted_terms():
        out += (",\n" if len(out) > 1 else "[\n", _TERM)
        sep = ""
        for mono, s in p.sorted_terms():
            tail = tails(mono)
            for head in heads(s):
                out += (sep, head, tail)
                sep = ",\n"
        out += (_WEDGE, _wedge_json(w), _TERM_END)
    out.append("\n  ]\n}\n" if len(out) > 1 else "[]\n}\n")
    return "".join(out)


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


def _form_from_terms(terms, sig: Signature, model: ModelTag) -> Form:
    """One pass over the "terms" list.  Per-cochain caches map each token to
    its WedgeGen or VariableId, checked once against the signature and the
    kind of its column (models.column_kind), and each rational string to its
    integer pair.  Each spelling of a "mono" list, keyed by its (token,
    exponent, exponent type) triples so that 1 is told from 1.0 and true, is
    parsed once to its canonical monomial, and each canonical monomial gets
    one small-int index: entries are summed per wedge as integer triples
    under (index, pi-exponent) and mapped back to monomials at the end."""
    unitary = sig.family == UNITARY
    # largest row per variable kind: none for Z, nor for orthogonal conjugates
    max_row = {"X": sig.p, "Y": sig.q, **({"Xbar": sig.p, "Ybar": sig.q} if unitary else {})}
    cols = max(sig.r, sig.s)

    @cache
    def gens(tok):
        g = WedgeGen.from_token(tok)
        if g.row > sig.p or g.col > sig.q or not (unitary or g.kind == "xi"):
            raise ValueError(f"wedge generator {tok!r} outside the signature {sig}")
        return g

    @cache
    def variables(tok):
        v = VariableId.from_token(tok)
        if v.row > max_row.get(v.kind, 0) or v.col > cols:
            raise ValueError(f"variable {tok!r} outside the signature {sig}")
        # a pure column is holomorphic only, a conj column conjugate only
        kind = column_kind(sig, model, v.col)
        if kind == ("pure" if v.rank >= 2 else "conj"):
            raise ValueError(f"variable {tok!r} in a {kind} column of "
                             f"model {model.token()!r} at {sig}")
        return v

    rationals = cache(_rational)
    spellings: dict = {}  # typed "mono" list -> index of its monomial
    index: dict = {}      # canonical monomial -> index
    sums: dict = {}       # canonical wedge -> triple accumulator
    for term in _list(terms):
        sign, w = wedge_monomial([gens(tok) for tok in _list(term["wedge"])])
        rows = []
        for ent in _list(term["poly"]):
            coeff, mono = ent["coeff"], _list(ent["mono"])
            key = tuple([(tok, e, type(e)) for tok, e in mono])
            i = spellings.get(key)
            if i is None:
                m = monomial([(variables(tok), _int(e)) for tok, e in mono])
                i = spellings[key] = index.setdefault(m, len(index))
            rows.append((i, _int(coeff["piExp"]), rationals(coeff["re"]), rationals(coeff["im"])))
        # a repeated generator gives 0, but the entries are still checked
        if sign:
            _mac_ratios(sums.setdefault(w, {}), rows, sign)
    monos = list(index)
    return Form({w: _poly({monos[i]: s for i, s in _reduce(acc).items()})
                 for w, acc in sums.items()})


def cochain_from_dict(data: dict) -> GKCochain:
    """Import a cochain in canonical form (see the module docstring).
    Any malformed shape or value raises ValueError."""
    try:
        sd = data["signature"]
        sig = Signature(*(_int(sd[k]) for k in "pqrs"), sd["family"])
        model = ModelTag.from_token(data["model"])
        if model.which == "schrodinger" or model.split > sig.r:
            raise ValueError(f"model {model.token()!r} is not a matrix model of {sig}")
        form = _form_from_terms(data["terms"], sig, model)
    except (TypeError, AttributeError, KeyError, IndexError) as exc:
        raise ValueError(f"malformed cochain JSON: {exc!r}") from exc
    return GKCochain(form, model, sig)


def _loads(text: str, what: str):
    """json.loads, with nesting too deep for the decoder reported as a
    malformed document (ValueError) instead of a RecursionError."""
    try:
        return json.loads(text)
    except RecursionError as exc:
        raise ValueError(f"malformed {what} JSON: nested too deeply") from exc


def cochain_from_json(text: str) -> GKCochain:
    return cochain_from_dict(_loads(text, "cochain"))


# ---------------------------------------------------------------------------
# LaTeX
# ---------------------------------------------------------------------------

_VAR_TEX = {"X": "X", "Y": "Y", "Xbar": "\\overline{X}",
            "Ybar": "\\overline{Y}", "Z": "x"}


def _mono_tex(mono: Monomial) -> str:
    """A monomial's text after its coefficient: a space and the factors, or
    nothing for the constant monomial."""
    bits = []
    for v, e in mono:
        base = f" {_VAR_TEX[v.kind]}_{{{v.row},{v.col}}}"
        bits.append(base if e == 1 else f"{base}^{{{e}}}")
    return "".join(bits)


def _coeff_tex(s: Scalar) -> str:
    return f"\\left({s.latex()}\\right)"


def _gen_tex(g: WedgeGen) -> str:
    base = "\\xi" if g.kind == "xi" else "\\overline{\\xi}"
    return f"{base}_{{{g.row},{g.col}}}"


def cochain_to_latex(c: GKCochain) -> str:
    """The cochain as a LaTeX sum of [polynomial] wedge terms.  Each
    distinct monomial, coefficient and generator is rendered once per call,
    and the pieces are joined once."""
    if c.form.is_zero():
        return "0"
    monos, coeffs, gens = cache(_mono_tex), cache(_coeff_tex), cache(_gen_tex)
    out = []
    for w, p in c.form.sorted_terms():
        out.append(" + \\left[" if out else "\\left[")
        sep = ""
        for mono, s in p.sorted_terms():
            out += (sep, coeffs(s), monos(mono))
            sep = " + "
        out.append("\\right]")
        if w:
            out += (" \\, ", " \\wedge ".join([gens(g) for g in w]))
    return "".join(out)


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
    return gram_from_dict(_loads(text, "gram"))
