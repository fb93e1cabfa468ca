"""JSON and LaTeX export of cochains.

The JSON schema (stable, canonical ordering, byte-reproducible):

    {"signature": {"p":, "q":, "r":, "s":, "family":},
     "model": "fock:0",
     "terms": [{"wedge": ["xibar:1:1", ...],
                "poly": [{"coeff": {"re": "a/b", "im": "c/d", "piExp": k},
                          "mono": [["X:1:1", e], ...]}, ...]}, ...]}

A Scalar with several pi-exponents expands into several poly entries sharing
the same mono.  One label class, poly._Label, owns the kind, conjugation,
kind:row:col token, repr name and LaTeX symbol of variables and generators.
``cochain_to_json`` writes this fixed schema directly, in exactly the layout
of ``json.dumps(..., indent=2, sort_keys=True)`` plus a final newline.

Each call does per-value work once per distinct value, in tables that live
only for that call: ``cochain_to_json`` renders each distinct monomial's
"mono" text and each distinct coefficient's entry heads once, and
``cochain_to_latex`` each distinct monomial, coefficient and wedge
generator once; both join their pieces once.  The reader parses each
spelling of a "mono" list once, gives each canonical monomial one small-int
index (two spellings of one monomial share it), sums each wedge's entries
under those indices and maps them back to monomials once per wedge.

A coefficient's "re"/"im" must follow on import the strict rational
grammar of ``scalars._rational``, which the Gram reader in theta shares:
ASCII ``-?[0-9]+(/[0-9]+)?`` with a nonzero denominator, such as "3",
"-1/2" or "2/4"; exponents, decimal points, spaces, underscores and JSON
floats are rejected.  Every JSON integer, every numerator and denominator
of a rational string, and re/den and im/den in lowest terms of every summed
coefficient must lie in the signed 128-bit range (``scalars._int``), which
the writers print.  Every index must fit the signature, as in a built
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

from functools import cache
from math import gcd

from .exterior import Form, WedgeGen, wedge_monomial
from .forms import GKCochain
from .models import UNITARY, ModelTag, Signature, column_kind
from .poly import Monomial, VariableId, _poly, monomial
from .scalars import Scalar, _int, _list, _loads, _mac_ratios, _rational, _reduce, _rows

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
    monos, out = list(index), {}
    for w, acc in sums.items():
        coeffs = _reduce(acc)
        # entries in range can sum to a coefficient the writers cannot print;
        # past 127 bits (rare), _int checks re/den and im/den as they print
        for i, k, re, im, den in _rows(coeffs.items()):
            if (abs(re) | abs(im) | den) >> 127:
                term = (f"coefficient at wedge {[t.token() for t in w]}, mono "
                        f"{[[v.token(), e] for v, e in monos[i]]}, piExp {k}: ")
                for x, g in ((re, gcd(re, den)), (im, gcd(im, den))):
                    _int(x // g, term), _int(den // g, term)
        out[w] = _poly({monos[i]: s for i, s in coeffs.items()})
    return Form(out)


def cochain_from_dict(data: dict) -> GKCochain:
    """Import a cochain in canonical form (see the module docstring).
    Any malformed shape or value raises ValueError."""
    try:
        sd = data["signature"]
        sig = Signature(*(_int(sd[k]) for k in "pqrs"), sd["family"])
        model = ModelTag.from_token(data["model"])
        if model.split > sig.r:
            raise ValueError(f"model {model.token()!r} is not a matrix model of {sig}")
        form = _form_from_terms(data["terms"], sig, model)
    except (TypeError, AttributeError, KeyError, IndexError) as exc:
        raise ValueError(f"malformed cochain JSON: {exc!r}") from exc
    return GKCochain(form, model, sig)


def cochain_from_json(text: str) -> GKCochain:
    return cochain_from_dict(_loads(text, "cochain"))


# ---------------------------------------------------------------------------
# LaTeX
# ---------------------------------------------------------------------------

def _mono_tex(mono: Monomial) -> str:
    """A monomial's text after its coefficient: a space and the factors, or
    nothing for the constant monomial."""
    bits = []
    for v, e in mono:
        base = f" {v.latex()}"
        bits.append(base if e == 1 else f"{base}^{{{e}}}")
    return "".join(bits)


def _coeff_tex(s: Scalar) -> str:
    return f"\\left({s.latex()}\\right)"


def cochain_to_latex(c: GKCochain) -> str:
    """The cochain as a LaTeX sum of [polynomial] wedge terms.  Each
    distinct monomial, coefficient and generator is rendered once per call,
    and the pieces are joined once."""
    if c.form.is_zero():
        return "0"
    monos, coeffs, gens = cache(_mono_tex), cache(_coeff_tex), cache(WedgeGen.latex)
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
