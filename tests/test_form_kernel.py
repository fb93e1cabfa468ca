"""The shared form-operator kernel behind d, the curvature and the
K-residual, against the plain loop it replaced: each sum rebuilt term by term
as ``out = out + lead ^ f.apply_op(op)``."""

from hypothesis import given, settings
from hypothesis import strategies as st

from theta_forms import forms
from theta_forms.exterior import Form, merge_monomials, wedge_monomial, xi, xibar
from theta_forms.forms import (GKCochain, build_psi_cup, build_psi_orth,
                               gk_curvature, gk_differential, k_invariance_residual)
from theta_forms.models import (ORTHOGONAL, UNITARY, Signature, fock_model,
                                mixed_model, upq_op_model)
from theta_forms.operators import LinOp
from theta_forms.poly import Polynomial, VariableId, monomial
from theta_forms.scalars import Scalar

KINDS = ("fock", "mixed", "orthogonal")


@st.composite
def cochains(draw, kind):
    """Multi-term cochains: up to five wedge terms, each with a few monomials
    of degree <= 4 and Gaussian-rational coefficients times pi^-1..pi^1."""
    p, q, r = draw(st.integers(1, 3)), draw(st.integers(1, 2)), draw(st.integers(1, 2))
    if kind == "orthogonal":
        sig, model = Signature(p, q, r, 0, ORTHOGONAL), fock_model(0)
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
