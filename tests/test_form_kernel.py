"""The shared form-operator kernel behind d, the curvature and the
K-residual, against the plain loop it replaced: each sum rebuilt term by term
as ``out = out + lead ^ f.apply_op(op)``."""

import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from theta_forms import forms, suites
from theta_forms.exterior import (Form, WedgeGen, merge_monomials, wedge_monomial, xi,
                                  xibar)
from theta_forms.forms import (GKCochain, build_km_nabla, build_psi_cup, build_psi_orth,
                               cup_embed, gk_curvature, gk_differential,
                               k_invariance_residual)
from theta_forms.models import (ORTHOGONAL, UNITARY, Signature, fock_model,
                                mixed_model, upq_op_model)
from theta_forms.operators import LinOp, op_sum
from theta_forms.poly import X, Y, Polynomial, VariableId, monomial
from theta_forms.scalars import Scalar

KINDS = ("fock", "mixed", "orthogonal")


@st.composite
def cochains(draw, kind):
    """Multi-term cochains: up to five wedge terms, each with a few monomials
    of degree <= 4 and Gaussian-rational coefficients times pi^-1..pi^1.
    Orthogonal cochains (real X, Y variables only) live in fock:0, or in
    mixed:r for kind "orthogonal-mixed"."""
    p, q, r = draw(st.integers(1, 3)), draw(st.integers(1, 2)), draw(st.integers(1, 2))
    if kind in ("orthogonal", "orthogonal-mixed"):
        sig = Signature(p, q, r, 0, ORTHOGONAL)
        model = fock_model(0) if kind == "orthogonal" else mixed_model(r)
    else:
        s = draw(st.integers(0, r)) if kind == "fock" else r
        sig = Signature(p, q, r, s, UNITARY)
        model = fock_model(s) if kind == "fock" else mixed_model(s)
    gens = [xi(i, j) for i in range(1, p + 1) for j in range(1, q + 1)]
    variables = [VariableId(k, i, c) for k in ("X", "Y")
                 for i in range(1, p + 1) for c in range(1, r + 1)]
    if sig.family == UNITARY:
        gens += [xibar(i, j) for i in range(1, p + 1) for j in range(1, q + 1)]
        variables += [VariableId(k, i, c) for k in ("Xbar", "Ybar")
                      for i in range(1, p + 1) for c in range(1, sig.s + 1)]
    rationals = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    out = {}
    for _ in range(draw(st.integers(1, 5))):
        sign, w = wedge_monomial(draw(st.lists(st.sampled_from(gens), max_size=3, unique=True)))
        terms = {}
        for _ in range(draw(st.integers(1, 3))):
            mono = monomial(draw(st.lists(st.tuples(st.sampled_from(variables),
                                                    st.integers(1, 2)), max_size=2)))
            terms[mono] = Scalar.of(draw(rationals), draw(rationals), draw(st.integers(-1, 1)))
        out[w] = Polynomial(terms).scale(sign)
    return GKCochain(Form(out), model, sig)


def ref_differential(c: GKCochain) -> Form:
    sig, model = c.sig, c.model
    out = Form.zero()
    for i in range(1, sig.p + 1):
        for j in range(1, sig.q + 1):
            mult = upq_op_model(sig, model, "pplus", i, j)
            lap = upq_op_model(sig, model, "pminus", i, j)
            if sig.family == ORTHOGONAL:
                out = out + Form.generator(xi(i, j)).wedge(c.form.apply_op(mult + lap))
            else:
                out = out + Form.generator(xi(i, j)).wedge(c.form.apply_op(lap))
                out = out + Form.generator(xibar(i, j)).wedge(c.form.apply_op(mult))
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
                    lead = Form.generator(xi(i, j)).wedge(Form.generator(xibar(k, l)))
                    out = out + lead.wedge(c.form.apply_op(op))
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
    worst = Form.zero()
    for kappa in forms._k_basis(c.sig):
        res = (c.form.apply_op(forms._k_module_op(c.sig, c.model, kappa))
               + ref_gen_derivation(c.form, forms._coadjoint_rule(c.sig, kappa)))
        if res.max_term_count() > worst.max_term_count():
            worst = res
    return worst


def assert_canonical(f: Form):
    """No zero Polynomial under a wedge and no zero Scalar under a monomial."""
    for p in f.terms.values():
        assert isinstance(p, Polynomial) and not p.is_zero()
        for c in p.terms.values():
            assert isinstance(c, Scalar) and not c.is_zero()


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(KINDS).flatmap(cochains))
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
    pairs = forms._pair_ops(c.sig, c.model)
    lead, op = data.draw(st.sampled_from(pairs))
    out = forms._form_op_sum([(lead, op), (lead, -op)], c.form)
    assert out == Form.zero() and out.terms == {}


def test_closed_forms_cancel_to_the_zero_form():
    for c in (build_psi_cup(Signature(3, 2, 2, 0)), build_psi_cup(Signature(2, 2, 1, 1)),
              build_psi_orth(Signature(3, 2, 2, 0, ORTHOGONAL))):
        assert gk_differential(c).form.terms == {}
        assert k_invariance_residual(c).terms == {}


def test_kernel_images_go_through_linop_apply(monkeypatch):
    """One LinOp.apply call per (operator, coefficient monomial) the sum
    meets: the operators.apply layer boundary sees every kernel image."""
    c = build_psi_cup(Signature(2, 2, 1, 1))
    pairs = forms._pair_ops(c.sig, c.model)
    expected = {(op, m) for lead, op in pairs for w, p in c.form.terms.items()
                if merge_monomials(lead, w)[0] for m in p.terms}
    calls = []
    apply = LinOp.apply

    def counted(op, f):
        calls.append((op, *f.terms))
        return apply(op, f)

    monkeypatch.setattr(LinOp, "apply", counted)
    assert gk_differential(c).form.terms == {}
    assert len(calls) == len(expected) and set(calls) == expected


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
        (deg,) = c1.form.degrees()
        d2 = cup_embed(gk_differential(c2), sig1.r, 0)
        rhs = gk_differential(c1).form.wedge(e2) + c1.form.wedge(d2).scale((-1) ** deg)
        assert lhs == rhs
        checked += 1
        nonzero += not lhs.is_zero()
    assert nonzero >= 10


# -- the orthogonal K-action against its hand-built so(p) + so(q) form ---------
# The hand-built operator and coadjoint rule below are the definitions the
# library used before so(p) + so(q) was read off as the antisymmetric part of
# the certified gl(p) + gl(q) blocks (forms._k_basis).

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
        out = []
        if block == "so_p":
            if g.row == a:
                out.append((-one, WedgeGen(g.kind, b, g.col)))
            if g.row == b:
                out.append((one, WedgeGen(g.kind, a, g.col)))
        else:
            if g.col == b:
                out.append((one, WedgeGen(g.kind, g.row, a)))
            if g.col == a:
                out.append((-one, WedgeGen(g.kind, g.row, b)))
        return out

    return rule


def ref_so_basis(sig: Signature):
    return ([("so_p", a, b) for a, b in combinations(range(1, sig.p + 1), 2)]
            + [("so_q", a, b) for a, b in combinations(range(1, sig.q + 1), 2)])


def ref_orth_k_residual(c: GKCochain) -> Form:
    worst = Form.zero()
    for block, a, b in ref_so_basis(c.sig):
        res = (c.form.apply_op(ref_so_op(c.sig, block, a, b))
               + ref_gen_derivation(c.form, ref_so_rule(block, a, b)))
        if res.max_term_count() > worst.max_term_count():
            worst = res
    return worst


def assert_orthogonal_k_action_matches(c: GKCochain):
    """Each k-basis element acts as its hand-built twin, operator half and
    coadjoint half separately, and the residuals agree."""
    basis = forms._k_basis(c.sig)
    assert [(("so_p" if blk == "k_gl_p" else "so_q"), a, b, anti)
            for blk, a, b, anti in basis] == [(*kappa, True) for kappa in ref_so_basis(c.sig)]
    for kappa, (block, a, b) in zip(basis, ref_so_basis(c.sig)):
        op, ref_op = forms._k_module_op(c.sig, c.model, kappa), ref_so_op(c.sig, block, a, b)
        if c.model == fock_model(0):
            assert op == ref_op
        assert c.form.apply_op(op) == c.form.apply_op(ref_op)
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
