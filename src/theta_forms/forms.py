"""Special cohomology cochains: the Fock forms psi, their cup products, the
Kudla-Millson Schwartz forms in nabla and explicit shape, the relative Lie
algebra differential, K-invariance residuals, Euler/Chern forms, and the
restriction map that peels off positive-definite rows.

Column layout convention: for a unitary signature with dual-pair size (r, s),
columns 1..s carry both holomorphic and conjugate variables (doubled Fock
columns for the psi cup products, gaussian-conjugated Schrodinger columns for
the Schwartz forms) and columns s+1..r are purely holomorphic.  Cup products
concatenate column blocks; conjugate-carrying blocks have even total degree
2q, so re-sorting blocks into column order costs no sign.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations, product
from math import factorial

from .exterior import (Form, WedgeGen, merge_monomials, perm_sign, wedge_all,
                       xi, xibar)
from .models import (ModelTag, ORTHOGONAL, Signature, UNITARY, _m_op,
                     calibrate_structure, fock_model, mixed_model, upq_op_model)
from .operators import LinOp
from .poly import Polynomial, VariableId, X, Xbar, _mac_poly, _poly, _polys
from .scalars import _ONE, Scalar, _mac, _reduce, _rows


@dataclass(frozen=True)
class GKCochain:
    form: Form
    model: ModelTag
    sig: Signature

    def is_zero(self) -> bool:
        return self.form.is_zero()

    def bidegree_support(self):
        return self.form.bidegree_support()


@dataclass(frozen=True)
class SplitSpec:
    """Peel the first l rows (a positive-definite subspace of dimension l)."""

    l: int

    def __post_init__(self):
        if self.l < 0:
            raise ValueError("peeled dimension must be non-negative")


class FactorizationError(RuntimeError):
    """Restriction found surviving coefficients that depend on peeled rows;
    the positive-gaussian factorization failed, which signals a bug."""


# ---------------------------------------------------------------------------
# psi factors
# ---------------------------------------------------------------------------

def _gen_kind(sig: Signature, conjugate: bool = False):
    """Wedge generator paired with a column variable: xibar for a unitary
    holomorphic variable, xi for its conjugate and in the orthogonal family."""
    return xi if conjugate or sig.family == ORTHOGONAL else xibar


def _psi_factor(sig: Signature, column: int, conjugate: bool = False) -> Form:
    """sum over (i_1..i_q) of X_{i_1,col} ... X_{i_q,col}
    gen_{i_1,1} ^ ... ^ gen_{i_q,q}; conjugate swaps variables to Xbar."""
    out = {}
    var = Xbar if conjugate else X
    gen = _gen_kind(sig, conjugate)
    for idx in product(range(1, sig.p + 1), repeat=sig.q):
        coeff = Polynomial.one()
        for i in idx:
            coeff = coeff * Polynomial.variable(var(i, column))
        # generators gen(i_j, j) have distinct increasing columns j, so the
        # wedge is already canonical and no two idx share it
        out[tuple(gen(i, j) for j, i in enumerate(idx, start=1))] = coeff
    return Form(out)


def build_psi_q(sig: Signature, column: int = 1) -> GKCochain:
    """The antiholomorphic Fock form of one column: bidegree (0, q)."""
    if not (1 <= column <= sig.r):
        raise ValueError(f"column {column} out of range for r={sig.r}")
    if sig.q < 1:
        raise ValueError("build_psi_q needs q >= 1")
    return GKCochain(_psi_factor(sig, column), fock_model(0), sig)


def _psi_wedge(sig: Signature) -> GKCochain:
    """psi_1 ^ ... ^ psi_r ^ psibar_1 ^ ... ^ psibar_s (s = 0 when orthogonal)."""
    model = fock_model(min(sig.r, sig.s))
    if sig.q == 0:
        return GKCochain(Form.unit(), model, sig)
    blocks = [_psi_factor(sig, k) for k in range(1, sig.r + 1)]
    blocks += [_psi_factor(sig, k, conjugate=True) for k in range(1, sig.s + 1)]
    return GKCochain(wedge_all(blocks), model, sig)


def build_psi_cup(sig: Signature) -> GKCochain:
    """Cup product psi_1 ^ ... ^ psi_r ^ psibar_1 ^ ... ^ psibar_s.

    Holomorphic factors occupy columns 1..r, conjugate factors columns 1..s
    (columns 1..min(r, s) are doubled).  Zero when r > p or s > p, forced by
    alternation."""
    if sig.family != UNITARY:
        raise ValueError("build_psi_cup is the unitary construction; see build_psi_orth")
    return _psi_wedge(sig)


def cup_embed(c: GKCochain, holo_offset: int, conj_offset: int) -> Form:
    """Relabel dual-pair columns into a larger signature: holomorphic
    variable columns shift by holo_offset, conjugate ones by conj_offset.
    (Wedge generators carry no dual-pair column and do not move.)"""

    def relabel(v: VariableId) -> VariableId:
        if v.kind in ("X", "Y"):
            return VariableId(v.kind, v.row, v.col + holo_offset)
        if v.kind in ("Xbar", "Ybar"):
            return VariableId(v.kind, v.row, v.col + conj_offset)
        return v

    return c.form.map_coefficients(lambda P: P.map_variables(relabel))


def cup_product(c1: GKCochain, c2: GKCochain) -> GKCochain:
    """Wedge of two psi cup cochains under the column re-indexing embedding:
    factor 1 keeps columns 1..r1 / 1..s1, factor 2 shifts by (r1, s1)."""
    s1, s2 = c1.sig, c2.sig
    if (s1.p, s1.q, s1.family) != (s2.p, s2.q, s2.family):
        raise ValueError("cup factors must share (p, q) and family")
    sig = Signature(s1.p, s1.q, s1.r + s2.r, s1.s + s2.s, s1.family)
    f1 = cup_embed(c1, 0, 0)
    f2 = cup_embed(c2, s1.r, s1.s)
    return GKCochain(f1.wedge(f2), fock_model(min(sig.r, sig.s)), sig)


def cup_sign(c1_sig: Signature, c2_sig: Signature) -> int:
    """Graded sign relating cup_product to the combined construction:
    moving factor 1's s1 conjugate blocks (degree q each) past factor 2's
    r2 holomorphic blocks gives (-1)^(q * s1 * r2)."""
    return -1 if (c1_sig.q * c1_sig.s * c2_sig.r) % 2 else 1


def build_psi_orth(sig: Signature) -> GKCochain:
    """psi_1 ^ ... ^ psi_r over the real Fock model (orthogonal family)."""
    if sig.family != ORTHOGONAL:
        raise ValueError("build_psi_orth needs the orthogonal family")
    return _psi_wedge(sig)


# ---------------------------------------------------------------------------
# Kudla-Millson Schwartz forms
# ---------------------------------------------------------------------------

_QUARTER_PI_INV = Scalar.of(Fraction(1, 4), 0, -1)  # 1 / (4 pi)


def _nabla(sig: Signature, k: int, j: int, conjugate: bool = False) -> list[tuple[tuple, LinOp]]:
    """The form-valued operator nabla_{k,j}, as (lead, op) pairs for
    _form_op_sum: wedge gen on the left, creation operator on the
    coefficients.  Unitary: M_X = X - (1/2pi) d/dXbar (or its
    conjugate); orthogonal: real variables, X - (1/4pi) d/dX."""
    gen = _gen_kind(sig, conjugate)
    var = Xbar if conjugate else X
    out = []
    for l in range(1, sig.p + 1):
        v = var(l, k)
        if sig.family == ORTHOGONAL:
            op = LinOp.mul_by(Polynomial.variable(v)) - LinOp.partial(v).scale(_QUARTER_PI_INV)
        else:
            op = _m_op(v)
        out.append(((gen(l, j),), op))
    return out


def _form_op_sum(pairs, f: Form) -> Form:
    """sum over (lead, op) pairs of lead ^ op(f): lead is a canonical wedge
    monomial (possibly empty), op a LinOp acting on the coefficients.

    Leads are grouped by operator.  Each distinct operator is applied
    (through LinOp.apply) once per coefficient monomial; the image is
    flattened once into rows (scalars._rows), which serve every lead and
    wedge term the monomial occurs with, and the images of one operator are
    dropped before the next one starts.  Products go into one unreduced
    triple accumulator per wedge, {(monomial, pi_exp): (re, im, den)}, with
    the sign of merge_monomials(lead, w) folded in (scalars._mac); each entry
    is reduced once at the end.  No Scalar is built per product."""
    leads: dict = {}   # operator -> its leads, in first-seen order
    for lead, op in pairs:
        leads.setdefault(op, []).append(lead)
    acc: dict = {}   # wedge -> {(monomial, pi_exp): (re, im, den)}
    for op, op_leads in leads.items():
        images: dict = {}   # monomial -> rows of op(monomial)
        for lead in op_leads:
            for w, p in f.terms.items():
                sign, ww = merge_monomials(lead, w)
                if not sign:
                    continue
                inner = acc.setdefault(ww, {})
                for m, c in p.terms.items():
                    rows = images.get(m)
                    if rows is None:
                        rows = images[m] = _rows(op.apply(Polynomial({m: _ONE})).terms.items())
                    _mac(inner, c, rows, sign)
    # pop each accumulator as its polynomial is built, so the two never
    # coexist in full
    return Form({w: _poly(_reduce(acc.pop(w))) for w in list(acc)})


def _km_column(sig: Signature, k: int) -> Form:
    """prod_j nabla_{k,j} nablabar_{k,j} applied to the vacuum (poly 1); the
    orthogonal family has no conjugate factor."""
    f = Form.unit()
    for j in range(sig.q, 0, -1):
        if sig.family == UNITARY:
            f = _form_op_sum(_nabla(sig, k, j, conjugate=True), f)
        f = _form_op_sum(_nabla(sig, k, j), f)
    return f


def _km_cochain(sig: Signature, column) -> GKCochain:
    """Wedge of one Kudla-Millson column factor per dual-pair column.

    Unitary needs r = s (all columns Schrodinger); orthogonal uses r columns
    of the real model.  Coefficients are polynomials with the gaussian
    implicit."""
    if sig.family == UNITARY and sig.r != sig.s:
        raise ValueError("the unitary Kudla-Millson form needs r = s")
    factors = [column(sig, k) for k in range(1, sig.r + 1)]
    return GKCochain(wedge_all(factors), mixed_model(sig.r), sig)


def build_km_nabla(sig: Signature) -> GKCochain:
    """Kudla-Millson cochain from the nabla operators applied to the vacuum."""
    return _km_cochain(sig, _km_column)


def _omega_form(sig: Signature, k: int, j: int, conjugate: bool = False) -> Form:
    """omega(k,j) = sum_l X_{l,k} xibar_{l,j} (or the conjugate; xi when
    orthogonal)."""
    gen = _gen_kind(sig, conjugate)
    var = Xbar if conjugate else X
    return Form({(gen(l, j),): Polynomial.variable(var(l, k))
                 for l in range(1, sig.p + 1)})


def _big_omega(sig: Signature, i: int, j: int) -> Form:
    """Omega(i,j) = sum_l xibar_{l,i} ^ xi_{l,j} (xi_{l,i} ^ xi_{l,j} when
    orthogonal)."""
    gen = _gen_kind(sig)
    out = {}
    for l in range(1, sig.p + 1):   # distinct rows l give distinct wedges
        sign, w = merge_monomials((gen(l, i),), (xi(l, j),))
        if sign:
            out[w] = Polynomial.constant(sign)
    return Form(out)


def _lambda_sum(sig: Signature, k: int, lam: int) -> Form:
    """The signed permutation sum of one column at one lambda.  Unitary:
    sum over sigma, sigbar of sgn sigma sgn sigbar times the wedge of
    omega(k,sigma_t) ^ omegabar(k,sigbar_t) for t < q - lambda and
    Omega(sigma_t, sigbar_t) after.  Orthogonal: sum over sigma of sgn sigma
    times omega(k,sigma_t) for t < q - 2 lambda and Omega(sigma_t, sigma_t+1)
    on the remaining pairs."""
    q = sig.q
    perms = list(permutations(range(1, q + 1)))
    acc: dict = {}
    if sig.family == UNITARY:
        for sigma, sigbar in product(perms, perms):
            fac = wedge_all([f for t in range(q - lam)
                             for f in (_omega_form(sig, k, sigma[t]),
                                       _omega_form(sig, k, sigbar[t], conjugate=True))]
                            + [_big_omega(sig, sigma[t], sigbar[t]) for t in range(q - lam, q)])
            for w, p in fac.terms.items():
                _mac_poly(acc, w, p, n=perm_sign(sigma) * perm_sign(sigbar))
    else:
        for sigma in perms:
            fac = wedge_all([_omega_form(sig, k, sigma[t]) for t in range(q - 2 * lam)]
                            + [_big_omega(sig, sigma[t], sigma[t + 1])
                               for t in range(q - 2 * lam, q, 2)])
            for w, p in fac.terms.items():
                _mac_poly(acc, w, p, n=perm_sign(sigma))
    return Form(_polys(acc))


def _km_explicit_column(sig: Signature, k: int) -> Form:
    """Sum over lambda of C(q, lambda) / (q!)^2 (unitary) or C(q, lambda) / q!
    (orthogonal) times the lambda-sum of column k, the factorials of q
    cancelled: C(q, lambda) is (-1/2pi)^lambda (q!)^2 / (lambda! ((q-lambda)!)^2)
    unitary and (-1/4pi)^lambda q! / (2^lambda lambda! (q-2 lambda)!) orthogonal."""
    q = sig.q
    if sig.family == UNITARY:
        weights = [Scalar.of(Fraction(-1, 2) ** lam / (factorial(lam) * factorial(q - lam) ** 2),
                             0, -lam) for lam in range(q + 1)]
    else:
        weights = [Scalar.of(Fraction(-1, 8) ** lam / (factorial(lam) * factorial(q - 2 * lam)),
                             0, -lam) for lam in range(q // 2 + 1)]
    acc: dict = {}
    for lam, weight in enumerate(weights):
        for w, p in _lambda_sum(sig, k, lam).terms.items():
            _mac_poly(acc, w, p, weight)
    return Form(_polys(acc))


def build_km_explicit(sig: Signature) -> GKCochain:
    """Kudla-Millson cochain from the explicit C(q, lambda) expansion."""
    return _km_cochain(sig, _km_explicit_column)


def build_mixed(sig: Signature) -> GKCochain:
    """Fock/Schwartz mixed form: Schrodinger factors on columns 1..s, Fock
    psi factors on columns s+1..r."""
    if sig.family != UNITARY:
        raise ValueError("the mixed construction is unitary")
    if sig.s > sig.r:
        raise ValueError("mixed model needs r >= s")
    model = mixed_model(sig.s)
    if sig.q == 0:
        return GKCochain(Form.unit(), model, sig)
    blocks = []
    for k in range(1, sig.s + 1):
        blocks.append(_km_column(sig, k))
    for k in range(sig.s + 1, sig.r + 1):
        blocks.append(_psi_factor(sig, k))
    return GKCochain(wedge_all(blocks), model, sig)


# ---------------------------------------------------------------------------
# The relative Lie algebra differential
# ---------------------------------------------------------------------------

def _pair_ops(sig: Signature, model: ModelTag) -> list[tuple[tuple, LinOp]]:
    """(dual generator, omega(x)) pairs over the p-basis for the model.

    x+_{ij} is the abstract raising vector dual to xi_{ij} (acting by the
    column Laplacians on holomorphic factors); x-_{ij} is dual to xibar_{ij}
    (acting by multiplication).  Orthogonal family: the single p-block, dual
    to xi_{ij}, combines both parts."""
    if sig.q == 0 or sig.r == 0 or sig.p == 0:
        return []
    plus, minus = [], []
    for i in range(1, sig.p + 1):
        for j in range(1, sig.q + 1):
            mult = upq_op_model(sig, model, "pplus", i, j)
            lap = upq_op_model(sig, model, "pminus", i, j)
            if sig.family == ORTHOGONAL:
                plus.append(((xi(i, j),), mult + lap))
            else:
                plus.append(((xi(i, j),), lap))
                minus.append(((xibar(i, j),), mult))
    return plus + minus


def gk_differential(c: GKCochain) -> GKCochain:
    """d = sum over the p-basis of (left wedge by the dual generator) after
    (the module action on coefficients, built with C_PLUS and C_MINUS).  The
    bracket-contraction term is absent: for a symmetric pair [p, p] lies in
    k, so its projection to p vanishes identically; the Kostant curvature
    identity is certified in the verification suites.

    d, gk_curvature and the operator half of k_invariance_residual share one
    kernel, _form_op_sum, which applies each operator once per coefficient
    monomial."""
    return GKCochain(_form_op_sum(_pair_ops(c.sig, c.model), c.form), c.model, c.sig)


def gk_curvature(c: GKCochain) -> GKCochain:
    """The Kostant curvature sum xi_{ij} ^ xibar_{kl} (delta_jl k_gl_p(i,k)
    - delta_ik k_gl_q(l,j)) c, built from the k-blocks (an independent code
    path from d).  d(d(c)) equals this exactly; it vanishes on K-invariant
    cochains.  Unitary models only.  The sum runs through d's kernel,
    _form_op_sum, with the two-generator leads xi_{ij} ^ xibar_{kl}.

    The comparison is only meaningful if d's operators close the gl(p+q)
    brackets, so calibrate_structure certifies them for the signature and
    model first (it raises CalibrationError otherwise)."""
    sig, model = c.sig, c.model
    if sig.family != UNITARY:
        raise ValueError("curvature comparison implemented for the unitary family")
    if sig.p == 0 or sig.q == 0 or sig.r == 0:
        return GKCochain(Form.zero(), model, sig)
    calibrate_structure(sig, model)
    rp, rq = range(1, sig.p + 1), range(1, sig.q + 1)
    gl_p = {(i, k): upq_op_model(sig, model, "k_gl_p", i, k) for i, k in product(rp, repeat=2)}
    gl_q = {(l, j): upq_op_model(sig, model, "k_gl_q", l, j) for l, j in product(rq, repeat=2)}
    pairs = []
    for i, j, k, l in product(rp, rq, rp, rq):
        op = LinOp.zero()
        if j == l:
            op = op + gl_p[(i, k)]
        if i == k:
            op = op - gl_q[(l, j)]
        if not op.is_zero():
            pairs.append(((xi(i, j), xibar(k, l)), op))
    return GKCochain(_form_op_sum(pairs, c.form), model, sig)


# ---------------------------------------------------------------------------
# K-invariance
# ---------------------------------------------------------------------------

def _k_basis(sig: Signature):
    """Basis of the complexified k as (block, a, b, antisymmetric) labels
    over the gl(p) and gl(q) blocks of upq_op_model.  Unitary: every
    elementary matrix E_ab.  Orthogonal: so(p) + so(q) is the antisymmetric
    part, one E_ab - E_ba for each a < b.  Orthogonal coefficients carry no
    conjugate variables, so the conjugate half of each block acts by zero."""
    rp, rq = range(1, sig.p + 1), range(1, sig.q + 1)
    if sig.family == UNITARY:
        pairs_p, pairs_q, anti = product(rp, repeat=2), product(rq, repeat=2), False
    else:
        pairs_p, pairs_q, anti = combinations(rp, 2), combinations(rq, 2), True
    return ([("k_gl_p", a, b, anti) for a, b in pairs_p]
            + [("k_gl_q", a, b, anti) for a, b in pairs_q])


def _gl_rule(block: str, a: int, b: int):
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


def _coadjoint_rule(sig: Signature, kappa):
    """Action of a k-basis element on wedge generators: gl_rule(a, b), minus
    gl_rule(b, a) when antisymmetric."""
    block, a, b, anti = kappa
    rule = _gl_rule(block, a, b)
    if not anti:
        return rule
    twin = _gl_rule(block, b, a)
    return lambda g: rule(g) + [(-c, g2) for c, g2 in twin(g)]


def _k_module_op(sig: Signature, model: ModelTag, kappa) -> LinOp:
    """upq_op_model(a, b), minus upq_op_model(b, a) when antisymmetric."""
    block, a, b, anti = kappa
    op = upq_op_model(sig, model, block, a, b)
    return op - upq_op_model(sig, model, block, b, a) if anti else op


def k_invariance_residual(c: GKCochain) -> Form:
    """Largest residual (omega(kappa) + coadjoint(kappa)) c over the k-basis;
    the zero form iff the cochain is K-invariant."""
    worst = Form.zero()
    for kappa in _k_basis(c.sig):
        op = _k_module_op(c.sig, c.model, kappa)
        res = (_form_op_sum([((), op)], c.form)
               + c.form.gen_derivation(_coadjoint_rule(c.sig, kappa)))
        if res.max_term_count() > worst.max_term_count():
            worst = res
    return worst


# ---------------------------------------------------------------------------
# Euler / Chern forms and evaluation at zero
# ---------------------------------------------------------------------------

def euler_chern_form(sig: Signature) -> Form:
    """c_q, the extreme term of the Kudla-Millson lambda-sum (only Omega
    factors, so no column index): unitary (1/q!) times the lambda = q sum,
    orthogonal (1/(q/2)!) times the lambda = q/2 sum, and zero for odd q."""
    q = sig.q
    if sig.family == ORTHOGONAL and q % 2:
        return Form.zero()
    lam = q if sig.family == UNITARY else q // 2
    return _lambda_sum(sig, 1, lam).scale(Fraction(1, factorial(lam)))


def evaluate_at_zero(c: GKCochain) -> Form:
    """Set all model variables to zero (the constant term of each coefficient)."""
    return Form({w: Polynomial.constant(p.constant_term()) for w, p in c.form.terms.items()})


def forms_proportional(f: Form, g: Form):
    """Return a Scalar c with f = c g when one exists (g != 0), else None."""
    if g.is_zero():
        return Scalar.zero() if f.is_zero() else None
    w0, p0 = next(iter(g.sorted_terms()))
    m0, c0 = next(iter(p0.sorted_terms()))
    p_f = f.terms.get(w0, Polynomial.zero())
    c_f = p_f.coefficient(m0)
    try:
        ratio = c_f * c0.inverse()
    except ZeroDivisionError:
        return None
    return ratio if f == g.scale(ratio) else None


# ---------------------------------------------------------------------------
# Restriction and coefficient probes
# ---------------------------------------------------------------------------

def restrict_form(c: GKCochain, split: SplitSpec) -> GKCochain:
    """Restrict along the peeling of the first l positive rows: wedge
    generators and variables on rows <= l die, surviving coefficients must
    not depend on the peeled rows (the positive gaussian factor carries no
    polynomial part), and the remainder re-indexes to signature (p-l, q)."""
    l = split.l
    sig = c.sig
    if l > sig.p:
        raise ValueError("cannot peel more rows than p")
    if l == 0:
        return c
    new_sig = Signature(sig.p - l, sig.q, sig.r, sig.s, sig.family)

    def row_dead_var(v: VariableId) -> bool:
        return v.kind in ("X", "Xbar") and v.row <= l

    out = {}
    for w, p in c.form.terms.items():
        if any(g.row <= l for g in w):
            continue
        for v in p.variables():
            if row_dead_var(v):
                raise FactorizationError(
                    f"surviving coefficient depends on peeled variable {v}")
        ww = tuple(WedgeGen(g.kind, g.row - l, g.col) for g in w)
        pp = p.map_variables(
            lambda v: VariableId(v.kind, v.row - l, v.col)
            if v.kind in ("X", "Xbar") else v)
        out[ww] = pp
    return GKCochain(Form(out), c.model, new_sig)


def coefficient_at(c: GKCochain, gens) -> Polynomial:
    """Exact coefficient polynomial at a wedge monomial (any gen order)."""
    return c.form.coefficient(list(gens))


def strongly_primitive_monomial(sig: Signature):
    """The wedge monomial dual to the minimal K-type vector: xibar over rows
    1..r (all columns) wedged with xi over the bottom s rows (all columns)."""
    gens = [xibar(i, j) for i in range(1, sig.r + 1) for j in range(1, sig.q + 1)]
    gens += [xi(sig.p - i + 1, sig.q - j + 1)
             for i in range(1, sig.s + 1) for j in range(1, sig.q + 1)]
    return gens
