"""The shared form-operator kernel behind d, the curvature and the
K-residual, against the plain loop it replaced: each sum rebuilt term by term
as ``out = out + lead ^ f.map_coefficients(op.apply)``."""

import random
from itertools import combinations, product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from theta_forms import forms, suites
from theta_forms.exterior import (Form, WedgeGen, merge_monomials, wedge_monomial, xi,
                                  xibar)
from theta_forms.forms import (GKCochain, build_km_nabla, build_mixed, build_psi_cup,
                               build_psi_orth, cup_embed, gk_curvature, gk_differential,
                               k_invariance_residual)
from theta_forms.models import (ORTHOGONAL, UNITARY, Signature, fock_model,
                                mixed_model, upq_op_model)
from theta_forms.operators import LinOp, op_sum
from theta_forms.poly import X, Xbar, Y, Ybar, Polynomial, monomial
from theta_forms.scalars import Scalar

KINDS = ("fock", "mixed", "orthogonal")
ONE = Polynomial.one()


@st.composite
def cochains(draw, kind):
    """Multi-term cochains: up to five wedge terms, each with a few monomials
    of degree <= 4 and Gaussian-rational coefficients times pi^-1..pi^1.
    Orthogonal cochains (real X, Y variables only) live in fock:0, or in
    mixed:r for kind "orthogonal-mixed".  The variables are drawn from every
    kind, from the X kinds only (so the kernel skips the operators that
    differentiate a Y), or from every kind with one monomial holding every
    variable of the signature (so it skips none)."""
    p, q, r = draw(st.integers(1, 3)), draw(st.integers(1, 2)), draw(st.integers(1, 2))
    if kind in ("orthogonal", "orthogonal-mixed"):
        sig = Signature(p, q, r, 0, ORTHOGONAL)
        model = fock_model(0) if kind == "orthogonal" else mixed_model(r)
    else:
        s = draw(st.integers(0, r)) if kind == "fock" else r
        sig = Signature(p, q, r, s, UNITARY)
        model = fock_model(s) if kind == "fock" else mixed_model(s)
    gens = [xi(i, j) for i in range(1, p + 1) for j in range(1, q + 1)]
    variables = [v(i, c) for v in (X, Y)
                 for i in range(1, p + 1) for c in range(1, r + 1)]
    if sig.family == UNITARY:
        gens += [xibar(i, j) for i in range(1, p + 1) for j in range(1, q + 1)]
        variables += [v(i, c) for v in (Xbar, Ybar)
                      for i in range(1, p + 1) for c in range(1, sig.s + 1)]
    pool = draw(st.sampled_from(("every", "y-free", "all-in-one")))
    if pool == "y-free":
        variables = [v for v in variables if v.kind in ("X", "Xbar")]
    rationals = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    out = {}
    if pool == "all-in-one":
        w = wedge_monomial(draw(st.lists(st.sampled_from(gens), max_size=3, unique=True)))[1]
        out[w] = Polynomial({monomial((v, 1) for v in variables): Scalar.of(draw(rationals) or 1)})
    for _ in range(draw(st.integers(1, 5))):
        sign, w = wedge_monomial(draw(st.lists(st.sampled_from(gens), max_size=3, unique=True)))
        terms = {}
        for _ in range(draw(st.integers(1, 3))):
            mono = monomial(draw(st.lists(st.tuples(st.sampled_from(variables),
                                                    st.integers(1, 2)), max_size=2)))
            terms[mono] = Scalar.of(draw(rationals), draw(rationals), draw(st.integers(-1, 1)))
        out[w] = Polynomial(terms).scale(sign) + out.get(w, Polynomial.zero())
    return GKCochain(Form(out), model, sig)


def ref_differential(c: GKCochain) -> Form:
    sig, model = c.sig, c.model
    out = Form.zero()
    for i in range(1, sig.p + 1):
        for j in range(1, sig.q + 1):
            mult = upq_op_model(sig, model, "pplus", i, j)
            lap = upq_op_model(sig, model, "pminus", i, j)
            lead, lead_bar = Form({(xi(i, j),): ONE}), Form({(xibar(i, j),): ONE})
            if sig.family == ORTHOGONAL:
                out = out + lead.wedge(c.form.map_coefficients((mult + lap).apply))
            else:
                out = out + lead.wedge(c.form.map_coefficients(lap.apply))
                out = out + lead_bar.wedge(c.form.map_coefficients(mult.apply))
    return out


def ref_curvature(c: GKCochain) -> Form:
    sig, model = c.sig, c.model
    out = Form.zero()
    for i in range(1, sig.p + 1):
        for j in range(1, sig.q + 1):
            for k in range(1, sig.p + 1):
                for l in range(1, sig.q + 1):
                    op = LinOp.zero()
                    if j == l:
                        op = op + upq_op_model(sig, model, "k_gl_p", i, k)
                    if i == k:
                        op = op - upq_op_model(sig, model, "k_gl_q", l, j)
                    lead = Form({(xi(i, j), xibar(k, l)): ONE})
                    out = out + lead.wedge(c.form.map_coefficients(op.apply))
    return out


def ref_gen_derivation(f: Form, rule) -> Form:
    out = Form.zero()
    for w, p in f.terms.items():
        for t, g in enumerate(w):
            for coef, g2 in rule(g):
                sign, ww = wedge_monomial(w[:t] + (g2,) + w[t + 1:])
                if sign:
                    out = out + Form({ww: p.scale(coef if sign > 0 else -coef)})
    return out


def ref_k_residual(c: GKCochain) -> Form:
    for kappa in forms._k_basis(c.sig):
        res = (c.form.map_coefficients(forms._k_module_op(c.sig, c.model, kappa).apply)
               + ref_gen_derivation(c.form, forms._coadjoint_rule(c.sig, kappa)))
        if not res.is_zero():
            return res
    return Form.zero()


def assert_canonical(f: Form):
    """No zero Polynomial under a wedge and no zero Scalar under a monomial."""
    for p in f.terms.values():
        assert isinstance(p, Polynomial) and not p.is_zero()
        for c in p.terms.values():
            assert isinstance(c, Scalar) and not c.is_zero()


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(KINDS).flatmap(cochains))
@example(build_psi_cup(Signature(3, 2, 2, 0)))
@example(build_psi_cup(Signature(2, 2, 1, 1)))
@example(build_km_nabla(Signature(2, 2, 1, 1)))
@example(build_mixed(Signature(2, 1, 2, 1)))
@example(build_psi_orth(Signature(3, 2, 2, 0, ORTHOGONAL)))
@example(build_km_nabla(Signature(3, 2, 1, 0, ORTHOGONAL)))
def test_kernel_matches_plain_loop(c):
    d = gk_differential(c).form
    assert d == ref_differential(c)
    assert_canonical(d)
    dd = gk_differential(gk_differential(c)).form
    assert_canonical(dd)
    res = k_invariance_residual(c)
    assert res == ref_k_residual(c)
    assert_canonical(res)
    if c.sig.family == UNITARY:
        curv = gk_curvature(c).form
        assert curv == ref_curvature(c)
        assert_canonical(curv)
        assert dd == curv


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(KINDS).flatmap(cochains), st.data())
def test_cancelling_contributions_give_the_zero_form(c, data):
    groups = forms._pair_ops(c.sig, c.model)
    op, (lead,) = data.draw(st.sampled_from(groups))
    out = forms._form_op_sum([(op, (lead,)), (-op, (lead,))], c.form,
                             forms._layout(c.sig.p, c.sig.q))
    assert out == Form.zero() and out.terms == {}


# -- the bitmask merge -----------------------------------------------------------
# _form_op_sum lays wedges out as bitmasks over forms._layout(p, q); a cochain is
# not validated against its signature, so wedges may hold generators outside it

def ref_op_sum(groups, f: Form) -> Form:
    out = Form.zero()
    for op, leads in groups:
        image = f.map_coefficients(op.apply)
        for lead in leads:
            out = out + Form({lead: ONE}).wedge(image)
    return out


@st.composite
def outside_cochains(draw, kind):
    """A cochain of cochains(kind) with up to three more wedge terms, each
    holding a generator past the signature's p rows or q columns."""
    c = draw(cochains(kind))
    p, q = c.sig.p, c.sig.q
    kinds = (xi,) if c.sig.family == ORTHOGONAL else (xi, xibar)
    pool = [k(i, j) for k in kinds for i in range(1, p + 3) for j in range(1, q + 2)]
    outside = [g for g in pool if g.row > p or g.col > q]
    coefficients = list(c.form.terms.values()) or [ONE]
    terms = dict(c.form.terms)
    for _ in range(draw(st.integers(1, 3))):
        gens = draw(st.lists(st.sampled_from(pool), max_size=2, unique=True))
        sign, w = wedge_monomial(gens + [draw(st.sampled_from([g for g in outside
                                                             if g not in gens]))])
        terms[w] = draw(st.sampled_from(coefficients)).scale(sign) + terms.get(w, Polynomial.zero())
    return GKCochain(Form(terms), c.model, c.sig)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(KINDS).flatmap(outside_cochains))
@example(GKCochain(Form({(xi(1, 1), xi(3, 2)): Polynomial.variable(X(1, 1)),
                         (xi(2, 1), xibar(1, 1)): Polynomial.variable(Xbar(2, 1))}),
                   fock_model(1), Signature(2, 1, 1, 1)))
def test_generators_outside_the_signature_give_the_plain_loop(c):
    assert any(g.row > c.sig.p or g.col > c.sig.q for w in c.form.terms for g in w)
    d = gk_differential(c).form
    assert d == ref_differential(c)
    assert_canonical(d)
    assert k_invariance_residual(c) == ref_k_residual(c)
    if c.sig.family == UNITARY:
        assert gk_curvature(c).form == ref_curvature(c)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(KINDS).flatmap(cochains), st.data())
def test_leads_of_every_length_give_the_plain_loop(c, data):
    """Leads of zero to three generators (d's tables hold one, the
    curvature's two and the K-residual's none) on operators of the tables."""
    sig = c.sig
    kinds = (xi,) if sig.family == ORTHOGONAL else (xi, xibar)
    gens = [k(i, j) for k in kinds for i in range(1, sig.p + 1) for j in range(1, sig.q + 1)]
    ops = [op for op, _ in forms._pair_ops(sig, c.model)] + [op for op, _ in forms._k_ops(sig, c.model)]
    if sig.family == UNITARY:
        ops += [op for op, _ in forms._curvature_ops(sig, c.model)]
    picked = data.draw(st.lists(st.integers(0, len(ops) - 1), min_size=1, max_size=4, unique=True))
    leads = st.lists(st.sampled_from(gens), max_size=3, unique=True).map(lambda g: wedge_monomial(g)[1])
    groups = [(ops[i], tuple(data.draw(st.lists(leads, min_size=1, max_size=3)))) for i in picked]
    out = forms._form_op_sum(groups, c.form, forms._layout(sig.p, sig.q))
    assert out == ref_op_sum(groups, c.form)
    assert_canonical(out)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_the_mask_sign_is_the_merge_sign(data):
    """On the layout of (p, q): disjoint masks iff merge_monomials merges, and
    then (-1)^popcount(wmask & low), low the xor of (bit - 1) over the
    lead's bits, is its sign, and for a lead of at most one generator that
    popcount is the lead's place in the wedge."""
    p, q = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    gens = [k(i, j) for k in (xi, xibar) for i in range(1, p + 1) for j in range(1, q + 1)]
    bits = forms._layout(p, q)
    assert list(bits) == sorted(gens)
    assert list(bits.values()) == [1 << n for n in range(len(gens))]
    w, lead = (wedge_monomial(data.draw(st.lists(st.sampled_from(gens), max_size=n, unique=True)))[1]
               for n in (6, 3))
    wm, lm = sum(bits[g] for g in w), sum(bits[g] for g in lead)
    low = 0
    for g in lead:
        low ^= bits[g] - 1
    sign, merged = merge_monomials(lead, w)
    assert (wm & lm == 0) == (sign != 0)
    if sign:
        j = (wm & low).bit_count()
        assert (-1) ** j == sign
        assert sum(bits[g] for g in merged) == wm | lm
        if len(lead) < 2:
            assert w[:j] + lead + w[j:] == merged


def test_a_warm_kernel_call_hashes_no_operator(monkeypatch):
    """d, the curvature and the K-residual read tables grouped when they were
    built: once warm, a call hashes no LinOp."""
    cochains = [build_psi_cup(Signature(2, 2, 1, 1)),
                build_km_nabla(Signature(3, 2, 1, 0, ORTHOGONAL)),
                build_mixed(Signature(2, 1, 2, 1))]

    def run_all():
        out = []
        for c in cochains:
            out += [gk_differential(c).form, k_invariance_residual(c)]
            if c.sig.family == UNITARY:
                out.append(gk_curvature(c).form)
        return out

    warm = run_all()

    def refuse(op):
        raise AssertionError("LinOp hashed")

    monkeypatch.setattr(LinOp, "__hash__", refuse)
    assert run_all() == warm


def test_closed_forms_cancel_to_the_zero_form():
    for c in (build_psi_cup(Signature(3, 2, 2, 0)), build_psi_cup(Signature(2, 2, 1, 1)),
              build_psi_orth(Signature(3, 2, 2, 0, ORTHOGONAL))):
        assert gk_differential(c).form.terms == {}
        assert k_invariance_residual(c).terms == {}


@st.composite
def derivations(draw):
    """A canonical form over the generators of p <= 3, q <= 2, both kinds,
    and a rule sending each generator to up to three (Scalar, generator)
    pairs from the same pool: images meet the generator taken out, others
    already in the wedge, and free slots left and right of it."""
    p, q = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    gens = [kind(i, j) for kind in (xi, xibar) for i in range(1, p + 1) for j in range(1, q + 1)]
    rationals = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    terms = {}
    for _ in range(draw(st.integers(1, 4))):
        w = wedge_monomial(draw(st.lists(st.sampled_from(gens), max_size=4, unique=True)))[1]
        mono = monomial([(X(1, 1), draw(st.integers(0, 2)))])
        terms[w] = Polynomial({mono: Scalar.of(draw(rationals) or 1, draw(rationals))})
    table = {g: tuple((Scalar.of(draw(rationals) or 1), draw(st.sampled_from(gens)))
                      for _ in range(draw(st.integers(0, 3))))
             for g in gens}
    return Form(terms), table


TWO = Scalar.of(2)
W3 = (xi(1, 1), xi(1, 2), xibar(1, 1))


@settings(max_examples=200, deadline=None)
@given(derivations())
@example((Form({W3: ONE}), {xi(1, 2): ((TWO, xi(1, 2)), (TWO, xibar(1, 1))),
                            xibar(1, 1): ((TWO, xi(2, 1)), (TWO, xibar(2, 1))),
                            xi(1, 1): ((TWO, xi(2, 2)), (TWO, xibar(2, 1)))}))
def test_gen_derivation_matches_the_full_sort(case):
    f, table = case
    got = f.gen_derivation(table.__getitem__)
    assert got == ref_gen_derivation(f, table.__getitem__)
    assert_canonical(got)


@pytest.mark.parametrize("g,image,expected,sign", [
    (xi(1, 2), xi(1, 2), W3, 1),                                        # the generator itself
    (xi(1, 2), xibar(1, 1), (), 0),                                     # already in the wedge
    (xibar(1, 1), xi(2, 1), (xi(1, 1), xi(2, 1), xi(1, 2)), -1),        # one slot left
    (xi(1, 1), xi(2, 2), (xi(1, 2), xi(2, 2), xibar(1, 1)), -1),        # one slot right
    (xi(1, 1), xibar(2, 1), (xi(1, 2), xibar(1, 1), xibar(2, 1)), 1),   # two slots right
    (xibar(1, 1), xibar(2, 1), (xi(1, 1), xi(1, 2), xibar(2, 1)), 1),   # the same slot
], ids=["itself", "repeat", "left", "right", "two-right", "same-slot"])
def test_gen_derivation_signs_one_move_by_its_parity(g, image, expected, sign):
    got = Form({W3: ONE}).gen_derivation(lambda h: ((TWO, image),) if h == g else ())
    assert got == (Form({expected: ONE.scale(TWO * sign)}) if sign else Form.zero())


def assert_one_apply_per_acting_pair(monkeypatch, c: GKCochain, skipped=()):
    """d(c) makes one LinOp.apply call per (operator, coefficient monomial)
    the sum meets, except for the operators dual to a generator kind in
    skipped: each of those differentiates a Y in every term, sends every
    coefficient monomial to zero, and gets no call."""
    pairs = [(lead, op) for op, leads in forms._pair_ops(c.sig, c.model) for lead in leads]
    expected = {(op, m) for lead, op in pairs for w, p in c.form.terms.items()
                if lead[0].kind not in skipped and merge_monomials(lead, w)[0] for m in p.terms}
    monomials = {m for p in c.form.terms.values() for m in p.terms}
    for (g,), op in pairs:
        if g.kind in skipped:
            assert all(any(v.kind == "Y" for v, _ in D) for D in op.terms)
            assert all(op.apply(Polynomial({m: Scalar.one()})).is_zero() for m in monomials)
    d = ref_differential(c)
    calls = []
    apply = LinOp.apply

    def counted(op, f):
        calls.append((op, *f.terms))
        return apply(op, f)

    monkeypatch.setattr(LinOp, "apply", counted)
    assert gk_differential(c).form == d
    assert len(calls) == len(expected) and set(calls) == expected


def test_kernel_images_go_through_linop_apply(monkeypatch):
    """The operators.apply layer boundary sees every kernel image: at split
    1 every operator has a term without derivatives, so none is skipped."""
    c = build_psi_cup(Signature(2, 2, 1, 1))
    assert gk_differential(c).form.terms == {}
    assert_one_apply_per_acting_pair(monkeypatch, c)


def _y_times(c: GKCochain) -> GKCochain:
    """c with every coefficient times the product of its signature's Y."""
    ys = Polynomial({monomial((Y(j, k), 1) for j in range(1, c.sig.q + 1)
                              for k in range(1, c.sig.r + 1)): Scalar.one()})
    return GKCochain(c.form.map_coefficients(lambda p: p * ys), c.model, c.sig)


@pytest.mark.parametrize("c,skipped", [
    # psi at split 0 holds no Y, so the d/dX d/dY operators dual to xi cannot act
    (build_psi_cup(Signature(3, 2, 2, 0)), {"xi"}),
    (_y_times(build_psi_cup(Signature(3, 2, 2, 0))), set()),
], ids=["psi", "psi-times-Y"])
def test_kernel_skips_only_the_operators_that_cannot_act(monkeypatch, c, skipped):
    assert_one_apply_per_acting_pair(monkeypatch, c, skipped)


def test_leibniz_rule_on_column_products():
    """A second path for d on products: for one-term fock:0 cochains c1 at
    (p, q, r1, 0) and c2 at (p, q, r2, 0), c2 moved to columns r1+1.. by
    cup_embed, d(c1 ^ c2) = d(c1) ^ c2 + (-1)^deg(c1) c1 ^ d(c2), with each
    factor's d taken in its own signature."""
    rng = random.Random(11)
    checked = nonzero = 0
    while checked < 40:
        p, q = rng.randint(1, 3), rng.randint(1, 2)
        sig1, sig2 = (Signature(p, q, rng.randint(1, 2), 0) for _ in range(2))
        c1 = suites._random_one_term_cochain(rng, sig1)
        c2 = suites._random_one_term_cochain(rng, sig2)
        if c1 is None or c2 is None:
            continue
        sig = Signature(p, q, sig1.r + sig2.r, 0)
        e2 = cup_embed(c2, sig1.r, 0)
        lhs = gk_differential(GKCochain(c1.form.wedge(e2), fock_model(0), sig)).form
        (w1,) = c1.form.terms
        d2 = cup_embed(gk_differential(c2), sig1.r, 0)
        rhs = gk_differential(c1).form.wedge(e2) + c1.form.wedge(d2).scale((-1) ** len(w1))
        assert lhs == rhs
        checked += 1
        nonzero += not lhs.is_zero()
    assert nonzero >= 10


# -- the K-action against its hand-built gl and so(p) + so(q) forms ------------
# The hand-built operator and coadjoint rules below are written block by block;
# the library reads so(p) + so(q) as the antisymmetric part of the certified
# gl(p) + gl(q) blocks (forms._k_basis) and acts on generators by one rule on
# the gl(p+q) matrix units they are dual to (forms._coadjoint_rule).

def ref_gl_rule(block: str, a: int, b: int):
    """Coadjoint action of the elementary matrix E_ab of the gl(p) or gl(q)
    block on wedge generators, as (Scalar, WedgeGen) pairs."""
    one = Scalar.one()

    def rule(g: WedgeGen):
        out = []
        if block == "k_gl_p":
            if g.kind == "xi" and g.row == a:
                out.append((-one, xi(b, g.col)))
            if g.kind == "xibar" and g.row == b:
                out.append((one, xibar(a, g.col)))
        else:
            if g.kind == "xi" and g.col == b:
                out.append((one, xi(g.row, a)))
            if g.kind == "xibar" and g.col == a:
                out.append((-one, xibar(g.row, b)))
        return out

    return rule


@pytest.mark.parametrize("p,q", list(product(range(1, 4), repeat=2)))
def test_generic_coadjoint_rule_matches_the_hand_written_gl_rule(p, q):
    sig = Signature(p, q, 1, 1)
    gens = [kind(i, j) for kind in (xi, xibar)
            for i in range(1, p + 1) for j in range(1, q + 1)]
    for g in gens:
        assert forms._gen(sig, *forms._unit(sig, g)) == g
    basis = forms._k_basis(sig)
    assert len(basis) == p * p + q * q
    for kappa in basis:
        a, b, anti = kappa
        assert not anti
        ref = ref_gl_rule("k_gl_p", a, b) if b <= p else ref_gl_rule("k_gl_q", a - p, b - p)
        rule = forms._coadjoint_rule(sig, kappa)
        for g in gens:
            assert rule(g) == tuple(ref(g)), (kappa, g)


def ref_so_op(sig: Signature, block: str, a: int, b: int) -> LinOp:
    """sum over columns of X_a d/dX_b - X_b d/dX_a (Y for so(q))."""
    var = X if block == "so_p" else Y
    parts = []
    for col in range(1, sig.r + 1):
        parts.append(-(LinOp.mul_by(Polynomial.variable(var(b, col))).compose(LinOp.partial(var(a, col)))))
        parts.append(LinOp.mul_by(Polynomial.variable(var(a, col))).compose(LinOp.partial(var(b, col))))
    return op_sum(parts)


def ref_so_rule(block: str, a: int, b: int):
    one = Scalar.one()

    def rule(g: WedgeGen):
        out, gen = [], xi if g.kind == "xi" else xibar
        if block == "so_p":
            if g.row == a:
                out.append((-one, gen(b, g.col)))
            if g.row == b:
                out.append((one, gen(a, g.col)))
        else:
            if g.col == b:
                out.append((one, gen(g.row, a)))
            if g.col == a:
                out.append((-one, gen(g.row, b)))
        return out

    return rule


def ref_so_basis(sig: Signature):
    return ([("so_p", a, b) for a, b in combinations(range(1, sig.p + 1), 2)]
            + [("so_q", a, b) for a, b in combinations(range(1, sig.q + 1), 2)])


def ref_orth_k_residual(c: GKCochain) -> Form:
    for block, a, b in ref_so_basis(c.sig):
        res = (c.form.map_coefficients(ref_so_op(c.sig, block, a, b).apply)
               + ref_gen_derivation(c.form, ref_so_rule(block, a, b)))
        if not res.is_zero():
            return res
    return Form.zero()


def assert_orthogonal_k_action_matches(c: GKCochain):
    """Each k-basis element acts as its hand-built twin, operator half and
    coadjoint half separately, and the residuals agree."""
    basis, p = forms._k_basis(c.sig), c.sig.p
    assert [(("so_p", a, b) if b <= p else ("so_q", a - p, b - p)) + (anti,)
            for a, b, anti in basis] == [(*kappa, True) for kappa in ref_so_basis(c.sig)]
    for kappa, (block, a, b) in zip(basis, ref_so_basis(c.sig)):
        op, ref_op = forms._k_module_op(c.sig, c.model, kappa), ref_so_op(c.sig, block, a, b)
        if c.model == fock_model(0):
            assert op == ref_op
        assert c.form.map_coefficients(op.apply) == c.form.map_coefficients(ref_op.apply)
        assert (c.form.gen_derivation(forms._coadjoint_rule(c.sig, kappa))
                == ref_gen_derivation(c.form, ref_so_rule(block, a, b)))
    res = k_invariance_residual(c)
    assert res == ref_orth_k_residual(c)
    return res


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(["orthogonal", "orthogonal-mixed"]).flatmap(cochains))
def test_orthogonal_k_action_matches_the_hand_built_so_action(c):
    assert_orthogonal_k_action_matches(c)


@pytest.mark.parametrize("p,q,r", [(2, 2, 1), (3, 2, 1)])
def test_orthogonal_km_nabla_is_k_invariant_under_both_actions(p, q, r):
    c = build_km_nabla(Signature(p, q, r, 0, ORTHOGONAL))
    assert c.model == mixed_model(r)
    assert assert_orthogonal_k_action_matches(c).is_zero()


@pytest.mark.parametrize("model", [fock_model(0), mixed_model(1)], ids=lambda m: m.token())
def test_non_invariant_orthogonal_cochain_has_the_same_nonzero_residual(model):
    c = GKCochain(Form({(xi(1, 1),): Polynomial.variable(X(1, 1))}), model,
                  Signature(2, 2, 1, 0, ORTHOGONAL))
    assert not assert_orthogonal_k_action_matches(c).is_zero()
