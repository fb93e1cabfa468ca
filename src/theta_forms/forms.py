"""Special cohomology cochains: the Fock forms psi, their cup products, the
Kudla-Millson Schwartz forms in nabla and explicit shape, the relative Lie
algebra differential, K-invariance residuals, Euler/Chern forms, and the
restriction map that peels off positive-definite rows.

Column layout: models.column_kinds names each dual-pair column's factor for
a model tag, and every Fock, Schwartz and mixed builder wedges those factors
(_column_cochain), so d's operators and the built cochain read one table.

The six build_* functions are functools.cache functions: sharing a built
GKCochain is safe because it is an immutable value.  The helpers behind them
(_psi_factor, _km_column, _km_explicit_column, _lambda_sum) stay uncached, so
a test that patches one sees its patch on each builder-cache miss.  The
operator tables of d, the curvature and the K-residual (_pair_ops,
_curvature_ops, _k_ops) are cached the same way, per (signature, model): a
table holds immutable LinOps and closures over immutable labels, and is
grouped by operator once, when it is built (_group), so the kernel hashes no
operator during a call.  The kernel (_form_op_sum) merges a lead into a
wedge as bitmasks over one generator layout per (p, q) (_layout, cached the
same way), with the sign from a popcount, and finds each operator image by
the position its coefficient monomial gets once per call.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import combinations, permutations, product
from math import factorial

from .exterior import (Form, WedgeGen, merge_monomials, perm_sign, wedge_all,
                       xi, xibar)
from .models import (ModelTag, ORTHOGONAL, Signature, UNITARY, _abstract_image,
                     _bracket_image, _m_op, calibrate_structure, column_kinds,
                     fock_model, mixed_model)
from .operators import LinOp
from .poly import Polynomial, VariableId, X, Xbar, _mac_poly, _poly, _polys
from .scalars import _ONE, Scalar, _mac, _quotient, _reduce, _rows


@dataclass(frozen=True)
class GKCochain:
    form: Form
    model: ModelTag
    sig: Signature


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


def _omega_form(sig: Signature, k: int, j: int, conjugate: bool = False) -> Form:
    """omega(k,j) = sum_l X_{l,k} xibar_{l,j} (or the conjugate; xi when
    orthogonal)."""
    gen = _gen_kind(sig, conjugate)
    var = Xbar if conjugate else X
    return Form({(gen(l, j),): Polynomial.variable(var(l, k))
                 for l in range(1, sig.p + 1)})


def _psi_factor(sig: Signature, column: int, conjugate: bool = False) -> Form:
    """omega(col,1) ^ ... ^ omega(col,q): the sum over (i_1..i_q) of
    X_{i_1,col} ... X_{i_q,col} gen_{i_1,1} ^ ... ^ gen_{i_q,q}; conjugate
    swaps variables to Xbar.  The unit form when q = 0."""
    return wedge_all([_omega_form(sig, column, j, conjugate) for j in range(1, sig.q + 1)])


@cache
def build_psi_q(sig: Signature, column: int = 1) -> GKCochain:
    """The antiholomorphic Fock form of one column: bidegree (0, q)."""
    if not (1 <= column <= sig.r):
        raise ValueError(f"column {column} out of range for r={sig.r}")
    if sig.q < 1:
        raise ValueError("build_psi_q needs q >= 1")
    return GKCochain(_psi_factor(sig, column), fock_model(0), sig)


def _column_cochain(sig: Signature, model: ModelTag, schwartz=None) -> GKCochain:
    """The wedge, in column order, of the factors models.column_kinds names:
    schwartz(sig, k) on each 'schrodinger' column, psi_k on each other column
    with a holomorphic half, then psibar_k on each 'doubled' or 'conj' one.
    Every builder lays out its columns here, so a tag fits its factors."""
    kinds = list(enumerate(column_kinds(sig, model), start=1))
    blocks = [schwartz(sig, k) if kind == "schrodinger" else _psi_factor(sig, k)
              for k, kind in kinds if kind != "conj"]
    blocks += [_psi_factor(sig, k, conjugate=True)
               for k, kind in kinds if kind in ("doubled", "conj")]
    return GKCochain(wedge_all(blocks), model, sig)


@cache
def build_psi_cup(sig: Signature) -> GKCochain:
    """Cup product psi_1 ^ ... ^ psi_r ^ psibar_1 ^ ... ^ psibar_s, the columns
    of fock:min(r, s).  Zero when r > p or s > p, forced by alternation."""
    if sig.family != UNITARY:
        raise ValueError("build_psi_cup is the unitary construction; see build_psi_orth")
    return _column_cochain(sig, fock_model(min(sig.r, sig.s)))


def cup_embed(c: GKCochain, holo_offset: int, conj_offset: int) -> Form:
    """Relabel dual-pair columns into a larger signature: holomorphic
    variable columns shift by holo_offset, conjugate ones by conj_offset.
    (Wedge generators carry no dual-pair column and do not move.)"""

    def relabel(v: VariableId) -> VariableId:
        if v.kind in ("X", "Y"):
            return v._replace(col=v.col + holo_offset)
        if v.kind in ("Xbar", "Ybar"):
            return v._replace(col=v.col + conj_offset)
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


@cache
def build_psi_orth(sig: Signature) -> GKCochain:
    """psi_1 ^ ... ^ psi_r over the real Fock model (orthogonal family)."""
    if sig.family != ORTHOGONAL:
        raise ValueError("build_psi_orth needs the orthogonal family")
    return _column_cochain(sig, fock_model(0))


# ---------------------------------------------------------------------------
# Kudla-Millson Schwartz forms
# ---------------------------------------------------------------------------

def _group(pairs) -> tuple:
    """((op, leads), ...) from (lead, op) pairs: the leads of each distinct
    operator, operators and leads in first-seen order.  The one place pairs
    are grouped, and so the one place a kernel operator is hashed; the
    tables d, the curvature and the K-residual read are grouped when they
    are built, so a kernel call hashes no LinOp."""
    leads: dict = {}   # operator -> its leads
    for lead, op in pairs:
        leads.setdefault(op, []).append(lead)
    return tuple((op, tuple(op_leads)) for op, op_leads in leads.items())


@cache
def _layout(p: int, q: int) -> dict:
    """{WedgeGen: bit} over the generators of (p, q), one bit each in
    generator order, so a canonical wedge is the sum of its bits and the
    bits below a generator's are those of the generators before it.
    Cached, so a kernel call derives no layout."""
    return _bits([kind(i, j) for kind in (xi, xibar)
                  for i in range(1, p + 1) for j in range(1, q + 1)])


def _bits(gens) -> dict:
    """{WedgeGen: bit} for distinct generators, bits in generator order."""
    return {g: 1 << n for n, g in enumerate(sorted(gens))}


def _laid_out(f: Form, bits: dict) -> tuple:
    """(present, bits, terms, monos) for _op_sum: f's variables, and per
    wedge term (mask, wedge, positions, {monomial: coefficient}), each
    position the index in monos of a distinct coefficient monomial.  Few
    containers per term, as they live through the call and bring the next
    collection nearer.  A cochain is not validated against its signature:
    a wedge generator outside bits lays f out over both, for this call."""
    present = {v for p in f.terms.values() for m in p.terms for v, _ in m}
    get, pos = bits.__getitem__, {}
    try:
        terms = [(sum(map(get, w)), w, tuple([pos.setdefault(m, len(pos)) for m in p.terms]),
                  p.terms) for w, p in f.terms.items()]
    except KeyError:
        return _laid_out(f, _bits(bits.keys() | {g for w in f.terms for g in w}))
    return present, bits, terms, list(pos)


def _form_op_sum(groups, f: Form, bits: dict) -> Form:
    """sum over (op, leads) groups of lead ^ op(f), for each of op's leads: a
    lead is a canonical wedge monomial (possibly empty) over the layout
    bits (_layout of the signature's (p, q)), op a LinOp acting on the
    coefficients.  The groups come from _group or hold distinct operators,
    so the kernel itself never hashes an operator.

    An operator that cannot act on f is skipped: every one of its terms
    differentiates a variable that occurs in no coefficient monomial of f,
    so its image of each monomial is zero (a term with D = () always acts).
    Each other operator is applied (through LinOp.apply) once per
    coefficient monomial it meets; the image is flattened once into rows
    (scalars._rows), which serve every lead and wedge term the monomial
    occurs with, and the images of one operator are dropped before the next
    one starts."""
    return _op_sum(groups, _laid_out(f, bits))


def _op_sum(groups, laid) -> Form:
    """_form_op_sum over a laid-out form (the K-residual lays its cochain
    out once per sweep).  A merge is bitmask arithmetic (Dorst, Fontijne &
    Mann, Geometric Algebra for Computer Science, ch. 19): a lead meets a
    wedge iff their masks are disjoint, the merged wedge is their union,
    and with low the xor of (bit - 1) over the lead's bits,
    j = popcount(wmask & low) has the parity of the moves that merge the
    lead in, so (-1)^j is the sign; for a lead of at most one generator j
    is also its place.  The merged tuple is built once per output mask, and
    images sit in a list by monomial position, so no monomial is hashed per
    occurrence.  Products go into one unreduced triple accumulator per
    output mask, {(index, pi_exp): (re, im, den)}, where index is the small
    int an image monomial gets for the call as it is flattened, with the
    sign folded in (scalars._mac); each entry is reduced, and its index
    mapped back, once at the end.  No Scalar is built per product."""
    present, bits, terms, monos = laid
    get = bits.__getitem__
    index: dict = {}   # image monomial -> its index
    acc: dict = {}     # output mask -> {(index, pi_exp): (re, im, den)}
    wedges: list = []  # the wedge of each output mask, in acc's order
    for op, leads in groups:
        for D in op.terms:
            for v, _ in D:
                if v not in present:
                    break
            else:   # D differentiates only variables of f, so op acts
                break
        else:
            continue
        images = [None] * len(monos)   # position -> rows of op(monomial)
        for lead in leads:
            lm = low = 0
            for g in lead:
                b = get(g)
                lm |= b
                low ^= b - 1
            for wm, w, at, cs in terms:
                if wm & lm:
                    continue
                j = (wm & low).bit_count()
                sign = -1 if j & 1 else 1
                om = wm | lm
                inner = acc.get(om)
                if inner is None:
                    inner = acc[om] = {}
                    wedges.append(w[:j] + lead + w[j:] if len(lead) < 2
                                  else tuple(sorted(lead + w)))
                for i, c in zip(at, cs.values()):
                    rows = images[i]
                    if rows is None:
                        rows = images[i] = _rows((index.setdefault(m2, len(index)), s) for m2, s
                                                 in op.apply(_poly({monos[i]: _ONE})).terms.items())
                    if rows:
                        _mac(inner, c, rows, sign)
    # pop each accumulator as its polynomial is built, so the two never
    # coexist in full
    monos = list(index)
    return Form({w: _poly({monos[i]: s for i, s in _reduce(acc.pop(om)).items()})
                 for om, w in zip(list(acc), wedges)})


def _km_column(sig: Signature, k: int) -> Form:
    """prod_j nabla_{k,j} nablabar_{k,j} applied to the vacuum (poly 1), where
    nabla_{k,j} = sum_l gen_{l,j} ^ M_{X_{l,k}} with the family's creation
    operator models._m_op; the orthogonal family has no conjugate factor.
    The p operators of one factor act on distinct variables, so each is its
    own (op, leads) group."""
    halves = (True, False) if sig.family == UNITARY else (False,)
    bits, f = _layout(sig.p, sig.q), Form.unit()
    for j in range(sig.q, 0, -1):
        for conjugate in halves:
            gen, var = _gen_kind(sig, conjugate), (Xbar if conjugate else X)
            f = _form_op_sum([(_m_op(var(l, k), sig.family), ((gen(l, j),),))
                              for l in range(1, sig.p + 1)], f, bits)
    return f


def _km_cochain(sig: Signature, column) -> GKCochain:
    """One Kudla-Millson column factor per column of mixed:r (unitary needs
    r = s); coefficients are polynomials with the gaussian implicit."""
    if sig.family == UNITARY and sig.r != sig.s:
        raise ValueError("the unitary Kudla-Millson form needs r = s")
    return _column_cochain(sig, mixed_model(sig.r), column)


@cache
def build_km_nabla(sig: Signature) -> GKCochain:
    """Kudla-Millson cochain from the nabla operators applied to the vacuum."""
    return _km_cochain(sig, _km_column)


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


@cache
def build_km_explicit(sig: Signature) -> GKCochain:
    """Kudla-Millson cochain from the explicit C(q, lambda) expansion."""
    return _km_cochain(sig, _km_explicit_column)


@cache
def build_mixed(sig: Signature) -> GKCochain:
    """Fock/Schwartz mixed form: the columns of mixed:s, Schrodinger factors
    on columns 1..s and Fock psi factors on columns s+1..r."""
    if sig.family != UNITARY:
        raise ValueError("the mixed construction is unitary")
    if sig.s > sig.r:
        raise ValueError("mixed model needs r >= s")
    return _column_cochain(sig, mixed_model(sig.s), _km_column)


# ---------------------------------------------------------------------------
# The relative Lie algebra differential
# ---------------------------------------------------------------------------

def _unit(sig: Signature, g: WedgeGen) -> tuple[int, int]:
    """The matrix unit E_ab of gl(p+q) dual to a wedge generator:
    xi_{ij} -> E_{i,p+j} and xibar_{ij} -> E_{p+j,i}."""
    if g.kind == "xi":
        return g.row, sig.p + g.col
    return sig.p + g.col, g.row


def _gen(sig: Signature, a: int, b: int) -> WedgeGen:
    """The inverse of _unit, on the off-diagonal matrix units."""
    return xi(a, b - sig.p) if a <= sig.p else xibar(b, a - sig.p)


@cache
def _pair_ops(sig: Signature, model: ModelTag) -> tuple:
    """d's table over the p-basis for the model: (omega(x), (lead,)) groups,
    the lead the one generator dual to x.

    Each generator g acts through the image of its matrix unit _unit(g):
    xi_{ij} by the column Laplacians on holomorphic factors (E_{i,p+j}),
    xibar_{ij} by multiplication (E_{p+j,i}).  Orthogonal family: the single
    p-block, dual to xi_{ij}, is the real sum E_{p+j,i} + E_{i,p+j}."""
    if sig.q == 0 or sig.r == 0 or sig.p == 0:
        return ()
    gens = [xi(i, j) for i in range(1, sig.p + 1) for j in range(1, sig.q + 1)]
    if sig.family == ORTHOGONAL:
        return _group([((g,), _abstract_image(sig, model, *_unit(sig, g.conjugate()))
                         + _abstract_image(sig, model, *_unit(sig, g))) for g in gens])
    return _group([((g,), _abstract_image(sig, model, *_unit(sig, g)))
                   for g in gens + [g.conjugate() for g in gens]])


def gk_differential(c: GKCochain) -> GKCochain:
    """d = sum over the p-basis of (left wedge by the dual generator) after
    (the module action on coefficients, built with C_PLUS and C_MINUS).  The
    bracket-contraction term is absent: for a symmetric pair [p, p] lies in
    k, so its projection to p vanishes identically; the Kostant curvature
    identity is certified in the verification suites.

    d, gk_curvature and the operator half of k_invariance_residual share one
    kernel, _form_op_sum, which merges leads and wedges as bitmasks over
    _layout(p, q), applies each operator once per coefficient monomial and
    skips an operator that cannot act on the cochain: on a
    cochain without Y variables (psi and its cup products at split 0, say)
    every pure d/dX d/dY operator is skipped.  LinOp.apply builds an image
    with one acting term without its accumulator.  The kernel reads tables
    that are built once per (signature, model) and grouped by operator when
    they are built (_pair_ops here, _curvature_ops, _k_ops), so a call
    rebuilds no operator and hashes none."""
    sig = c.sig
    return GKCochain(_form_op_sum(_pair_ops(sig, c.model), c.form, _layout(sig.p, sig.q)),
                     c.model, sig)


@cache
def _curvature_ops(sig: Signature, model: ModelTag) -> tuple:
    """The curvature's table: (op, leads) groups of the nonzero bracket
    images [E_{i,p+j}, E_{p+l,k}] (models._bracket_image) with their leads
    xi_{ij} ^ xibar_{kl}.  Unitary signatures with p, q, r >= 1."""
    pairs = []
    for i, j, k, l in product(range(1, sig.p + 1), range(1, sig.q + 1), repeat=2):
        lead = (xi(i, j), xibar(k, l))
        op = _bracket_image(sig, model, *_unit(sig, lead[0]), *_unit(sig, lead[1]))
        if not op.is_zero():
            pairs.append((lead, op))
    return _group(pairs)


def gk_curvature(c: GKCochain) -> GKCochain:
    """The Kostant curvature sum xi_{ij} ^ xibar_{kl} [E_{i,p+j}, E_{p+l,k}] c,
    the bracket image of the generators' units (models._bracket_image) from
    the gl(p) and gl(q) blocks: an independent code path from d.  d(d(c))
    equals this exactly; it vanishes on K-invariant cochains.  Unitary
    models only.  The sum runs through d's kernel, _form_op_sum, over the
    table _curvature_ops.

    The comparison is only meaningful if d's operators close the gl(p+q)
    brackets, so calibrate_structure certifies them for the signature and
    model first (it raises CalibrationError otherwise)."""
    sig, model = c.sig, c.model
    if sig.family != UNITARY:
        raise ValueError("curvature comparison implemented for the unitary family")
    if sig.p == 0 or sig.q == 0 or sig.r == 0:
        return GKCochain(Form.zero(), model, sig)
    calibrate_structure(sig, model)
    return GKCochain(_form_op_sum(_curvature_ops(sig, model), c.form, _layout(sig.p, sig.q)),
                     model, sig)


# ---------------------------------------------------------------------------
# K-invariance
# ---------------------------------------------------------------------------

def _k_basis(sig: Signature):
    """Basis of the complexified k as (a, b, antisymmetric) labels of the
    gl(p+q) matrix units E_ab in the gl(p) and gl(q) diagonal blocks.
    Unitary: every such E_ab.  Orthogonal: so(p) + so(q) is the
    antisymmetric part, one E_ab - E_ba for each a < b.  Orthogonal
    coefficients carry no conjugate variables, so the conjugate half of each
    operator acts by zero."""
    p, n = sig.p, sig.p + sig.q
    blocks = (range(1, p + 1), range(p + 1, n + 1))
    if sig.family == UNITARY:
        return [(a, b, False) for rows in blocks for a, b in product(rows, repeat=2)]
    return [(a, b, True) for rows in blocks for a, b in combinations(rows, 2)]


def _coadjoint_rule(sig: Signature, kappa):
    """Action of a k-basis element on wedge generators, as a tuple of
    (Scalar, WedgeGen) pairs: on the generator dual to E_cd, E_ab gives
    -[a=c] dual(E_bd) + [b=d] dual(E_ca); an antisymmetric label subtracts
    the action of E_ba."""
    a, b, anti = kappa
    units = [(Scalar.one(), a, b)] + ([(-Scalar.one(), b, a)] if anti else [])

    def rule(g: WedgeGen):
        c, d = _unit(sig, g)
        return (tuple((-s, _gen(sig, y, d)) for s, x, y in units if x == c)
                + tuple((s, _gen(sig, c, x)) for s, x, y in units if y == d))

    return rule


def _k_module_op(sig: Signature, model: ModelTag, kappa) -> LinOp:
    """The image of E_ab, minus that of E_ba when antisymmetric."""
    a, b, anti = kappa
    op = _abstract_image(sig, model, a, b)
    return op - _abstract_image(sig, model, b, a) if anti else op


@cache
def _k_ops(sig: Signature, model: ModelTag) -> tuple:
    """The K-residual's table: (module operator, coadjoint rule) for each
    k-basis element, in _k_basis order.  Each rule is memoised per generator
    (a functools.cache of _coadjoint_rule's closure), so gen_derivation works
    out its image once per generator; the memo lives in the table, and
    _k_ops.cache_clear() drops it with the table."""
    return tuple((_k_module_op(sig, model, kappa), cache(_coadjoint_rule(sig, kappa)))
                 for kappa in _k_basis(sig))


def k_invariance_residual(c: GKCochain) -> Form:
    """The residual (omega(kappa) + coadjoint(kappa)) c of the first k-basis
    element kappa, in _k_basis order, that does not annihilate c; the sweep
    stops there.  The zero form, after the whole basis, iff the cochain is
    K-invariant."""
    laid = _laid_out(c.form, _layout(c.sig.p, c.sig.q))
    for op, rule in _k_ops(c.sig, c.model):
        res = _op_sum(((op, ((),)),), laid) + c.form.gen_derivation(rule)
        if not res.is_zero():
            return res
    return Form.zero()


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
    """Return a Scalar c with f = c g when one exists (g != 0), else None:
    c is the exact quotient (scalars._quotient) of the coefficients of f and
    g at g's first term, checked against the whole forms."""
    if g.is_zero():
        return Scalar.zero() if f.is_zero() else None
    w0, p0 = next(iter(g.sorted_terms()))
    m0, c0 = next(iter(p0.sorted_terms()))
    ratio = _quotient(f.terms.get(w0, Polynomial.zero()).coefficient(m0), c0)
    return ratio if ratio is not None and f == g.scale(ratio) else None


# ---------------------------------------------------------------------------
# Restriction and coefficient probes
# ---------------------------------------------------------------------------

def restrict_form(c: GKCochain, l: int) -> GKCochain:
    """Restrict along the peeling of the first l positive rows, 0 <= l <= p:
    wedges with a generator on a row <= l die, surviving coefficients must
    not depend on the peeled rows (the positive gaussian factor carries no
    polynomial part, so FactorizationError otherwise), and the remainder
    re-indexes to signature (p-l, q)."""
    sig = c.sig
    if type(l) is not int:
        raise TypeError(f"peeled dimension must be an int, got {l!r}")
    if not 0 <= l <= sig.p:
        raise ValueError(f"peeled dimension {l} outside 0..{sig.p}")

    def shift(v: VariableId) -> VariableId:
        if v.kind not in ("X", "Xbar"):
            return v
        if v.row <= l:
            raise FactorizationError(
                f"surviving coefficient depends on peeled variable {v.token()}")
        return v._replace(row=v.row - l)

    return GKCochain(Form({tuple(g._replace(row=g.row - l) for g in w): p.map_variables(shift)
                           for w, p in c.form.terms.items() if all(g.row > l for g in w)}),
                     c.model, Signature(sig.p - l, sig.q, sig.r, sig.s, sig.family))


def strongly_primitive_monomial(sig: Signature):
    """The wedge monomial dual to the minimal K-type vector: xibar over rows
    1..r (all columns) wedged with xi over the bottom s rows (all columns)."""
    gens = [xibar(i, j) for i in range(1, sig.r + 1) for j in range(1, sig.q + 1)]
    gens += [xi(sig.p - i + 1, sig.q - j + 1)
             for i in range(1, sig.s + 1) for j in range(1, sig.q + 1)]
    return gens
