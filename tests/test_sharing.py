"""A kept form holds one object per value.  Every builder's output, and the
form the JSON reader returns, holds one Scalar per distinct coefficient
value and one tuple per distinct monomial: both are built through tables
that live for one call (forms._kept, serialize._form_from_terms).  Sharing
changes no value, no hash and no output."""

import json
from fractions import Fraction

import pytest

from theta_forms.exterior import Form
from theta_forms.forms import (build_km_explicit, build_km_nabla, build_mixed, build_psi_cup,
                               build_psi_orth, build_psi_q)
from theta_forms.models import ORTHOGONAL, UNITARY, Signature
from theta_forms.poly import Polynomial
from theta_forms.scalars import Scalar
from theta_forms.serialize import cochain_from_dict, cochain_from_json, cochain_to_json

U, O = UNITARY, ORTHOGONAL

# signatures whose expansions repeat coefficient values and monomials
BUILDS = [
    (build_psi_q, (3, 2, 1, 0, U)),
    (build_psi_cup, (3, 2, 2, 0, U)),
    (build_psi_cup, (3, 2, 1, 1, U)),
    (build_psi_orth, (3, 2, 2, 0, O)),
    (build_km_nabla, (2, 2, 1, 1, U)),
    (build_km_nabla, (3, 2, 1, 0, O)),
    (build_km_explicit, (2, 2, 1, 1, U)),
    (build_km_explicit, (3, 2, 2, 0, O)),
    (build_mixed, (3, 1, 2, 1, U)),
    (build_mixed, (2, 2, 2, 1, U)),
]
IDS = [f"{b.__name__}-{''.join(map(str, sig[:4]))}{sig[4][0]}" for b, sig in BUILDS]


def _occurrences(form: Form):
    """(coefficients, monomials): every coefficient and every monomial key
    of every polynomial of form, one entry per occurrence."""
    polys = list(form.terms.values())
    return ([s for p in polys for s in p.terms.values()], [m for p in polys for m in p.terms])


def _assert_one_object_per_value(form: Form):
    for values in _occurrences(form):
        first: dict = {}   # value -> the first object seen with it
        assert all(first.setdefault(v, v) is v for v in values)
        # the check has something to share
        assert len(first) < len(values), (len(first), len(values))


def _unshared(form: Form) -> Form:
    """An equal form with a fresh Scalar and a fresh monomial tuple per
    occurrence, built through the public constructors."""
    return Form({w: Polynomial({tuple(list(m)): Scalar(s.terms) for m, s in p.terms.items()})
                 for w, p in form.terms.items()})


@pytest.mark.parametrize("build,sig", BUILDS, ids=IDS)
def test_a_build_holds_one_object_per_value(fresh_operators, build, sig):
    _assert_one_object_per_value(build(Signature(*sig)).form)


@pytest.mark.parametrize("build,sig", BUILDS, ids=IDS)
def test_an_import_holds_one_object_per_value_and_equals_the_build(fresh_operators, build, sig):
    c = build(Signature(*sig))
    back = cochain_from_json(cochain_to_json(c))
    _assert_one_object_per_value(back.form)
    assert back == c and hash(back.form) == hash(c.form)


@pytest.mark.parametrize("build,sig", BUILDS, ids=IDS)
def test_sharing_changes_no_value_hash_or_output(fresh_operators, build, sig):
    c = build(Signature(*sig))
    fresh = _unshared(c.form)
    assert all(s is not t for (s, t) in zip(*(_occurrences(f)[0] for f in (c.form, fresh))))
    assert fresh == c.form and hash(fresh) == hash(c.form)
    assert cochain_to_json(c) == cochain_to_json(type(c)(fresh, c.model, c.sig))


def test_the_reader_shares_a_value_across_its_spellings():
    """Two spellings of one coefficient value ("1/2" and "2/4"), on two
    wedges, import as one Scalar, and two spellings of one monomial (its
    pairs in either order) as one tuple."""
    def entry(re, mono):
        return {"coeff": {"re": re, "im": "0", "piExp": 0}, "mono": mono}

    doc = {"signature": {"p": 2, "q": 1, "r": 1, "s": 0, "family": "unitary"},
           "model": "fock:0",
           "terms": [{"wedge": ["xibar:1:1"], "poly": [entry("1/2", [["X:1:1", 1], ["X:2:1", 1]])]},
                     {"wedge": ["xibar:2:1"], "poly": [entry("2/4", [["X:2:1", 1], ["X:1:1", 1]])]}]}
    form = cochain_from_dict(json.loads(json.dumps(doc))).form
    (s1, s2), (m1, m2) = _occurrences(form)
    assert s1 == Scalar.of(Fraction(1, 2)) and s1 is s2
    assert m1 == m2 and m1 is m2
