"""Named verification suites.

Each suite checks one family of identities at desk scale and returns a
report; the CLI `verify` command and the acceptance tests both run these.
Suite names double as an index into the verified statements: oscillator
relations, the intertwiner, harmonicity of the highest-weight vectors,
Schur span dimensions, closedness of the special forms, cup products,
the two Kudla-Millson constructions, K-invariance, restriction, the E8
Eisenstein check, and the u(p,q) calibration.

All randomized sweeps take an explicit seed (default 0) and are otherwise
deterministic.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product as iproduct
from time import perf_counter

from .exterior import Form, wedge_monomial, xi, xibar
from .forms import (GKCochain, SplitSpec, build_km_explicit, build_km_nabla,
                    build_mixed, build_psi_cup, build_psi_orth, build_psi_q,
                    cup_product, cup_sign, euler_chern_form,
                    evaluate_at_zero, forms_proportional, gk_curvature,
                    gk_differential, k_invariance_residual, restrict_form,
                    strongly_primitive_monomial)
from .models import (C_MINUS, FOCK, ORTHOGONAL, SCHRODINGER, Signature,
                     calibrate_structure, fock_model, heisenberg_op,
                     inner_product_rel, intertwine, ladder_op, upq_op_model)
from .operators import LinOp
from .poly import Polynomial, X, Y, Zvar, monomial
from .scalars import Scalar
from .schur import (enumerate_ssyt, exact_rank, hook_content_dim,
                    is_harmonic, kv_highest_weight,
                    partitions_up_to, schur_span_dim)
from .theta import (GramMatrix, eisenstein_check, enumerate_with_norms,
                    naive_rep_numbers, rep_numbers)


@dataclass
class SuiteReport:
    name: str
    passed: bool = True
    lines: list = field(default_factory=list)
    seconds: float = 0.0  # wall-clock; printed on the status line, kept out of to_dict

    def check(self, ok: bool, message: str):
        self.lines.append(("ok   " if ok else "FAIL ") + message)
        if not ok:
            self.passed = False

    def note(self, message: str):
        self.lines.append("     " + message)

    def to_dict(self) -> dict:
        return {"suite": self.name, "passed": self.passed, "lines": self.lines}


# ---------------------------------------------------------------------------
# 1. oscillator relations
# ---------------------------------------------------------------------------

def suite_oscillator_relations(n_max: int = 3, **_) -> SuiteReport:
    rep = SuiteReport("oscillator-relations")
    minus_4pi = LinOp.identity().scale(Scalar.of(-4, 0, 1))
    for n in range(1, n_max + 1):
        ok = True
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                ap_i = ladder_op("Aplus", i, n)
                ap_j = ladder_op("Aplus", j, n)
                am_i = ladder_op("Aminus", i, n)
                am_j = ladder_op("Aminus", j, n)
                ok &= ap_i.commutator(ap_j).is_zero()
                ok &= am_i.commutator(am_j).is_zero()
                expect = minus_4pi if i == j else LinOp.zero()
                ok &= ap_i.commutator(am_j) == expect
                h_j = ladder_op("H", j, n)
                e8 = Scalar.of(8 if i == j else 0, 0, 1)
                ok &= h_j.commutator(ap_i) == ap_i.scale(e8)
                ok &= h_j.commutator(am_i) == am_i.scale(-e8)
        one = Polynomial.one()
        for j in range(1, n + 1):
            ok &= ladder_op("Aplus", j, n).apply(one).is_zero()
            ok &= ladder_op("H", j, n).apply(one) == Polynomial.constant(Scalar.of(-4, 0, 1))
        rep.check(ok, f"ladder relations exact at N={n}")
        # Heisenberg central character agrees across models
        central = LinOp.identity().scale(Scalar.of(0, 2, 1))
        ok = True
        for model in (FOCK, SCHRODINGER):
            for j in range(1, n + 1):
                for k in range(1, n + 1):
                    br = heisenberg_op(model, "e", j, n).commutator(
                        heisenberg_op(model, "f", k, n))
                    ok &= br == (central if j == k else LinOp.zero())
        rep.check(ok, f"[rho(e_j), rho(f_k)] = 2 pi i delta_jk in both models, N={n}")
    return rep


# ---------------------------------------------------------------------------
# 2. intertwiner
# ---------------------------------------------------------------------------

def _z_monomials(n: int, deg_max: int):
    for exps in iproduct(range(deg_max + 1), repeat=n):
        if sum(exps) <= deg_max:
            yield exps


def _z_poly(exps) -> Polynomial:
    out = Polynomial.one()
    for j, e in enumerate(exps, start=1):
        out = out * Polynomial.variable(Zvar(j)) ** e
    return out


def suite_intertwiner(**_) -> SuiteReport:
    rep = SuiteReport("intertwiner")
    rep.check(intertwine(Polynomial.one(), 1) == Polynomial.one(),
              "T(1) = vacuum")
    ok = True
    for n in (1, 2):
        for exps in _z_monomials(n, 3):
            v = _z_poly(exps)
            for gen in ("e", "f", "wp", "wpp"):
                for j in range(1, n + 1):
                    lhs = intertwine(heisenberg_op(FOCK, gen, j, n).apply(v), n)
                    rhs = heisenberg_op(SCHRODINGER, gen, j, n).apply(intertwine(v, n))
                    ok &= lhs == rhs
    rep.check(ok, "T rho_F(w) = rho_S(w) T for all Heisenberg generators, deg <= 3, N <= 2")

    # injectivity via exact rank on monomial images, deg <= 4
    ok = True
    for n in (1, 2):
        images = [intertwine(_z_poly(exps), n) for exps in _z_monomials(n, 4)]
        ok &= exact_rank(images) == len(images)
    rep.check(ok, "intertwiner injective on polynomials of degree <= 4 (exact rank)")

    # phi_m = T(z^m) orthogonality, |m| <= 3, N = 2
    n = 2

    def phi(mvec) -> Polynomial:
        return intertwine(_z_poly(mvec), n)

    ms = [m for m in iproduct(range(4), repeat=n) if sum(m) <= 3]
    ok = True
    for i, ma in enumerate(ms):
        for mb in ms[i + 1:]:
            ok &= inner_product_rel(phi(ma), phi(mb)).is_zero()
    rep.check(ok, f"phi_m family pairwise orthogonal, |m| <= 3, N = {n}")
    rep.check(inner_product_rel(phi((0, 0)), phi((0, 0))) == Scalar.one(),
              "<vacuum, vacuum> relative norm is 1")
    ip = inner_product_rel(phi((1, 0)), phi((0, 1)))
    rep.check(ip.is_zero(), "hermitian pairing of distinct states vanishes")
    return rep


# ---------------------------------------------------------------------------
# 3. harmonicity
# ---------------------------------------------------------------------------

def suite_harmonic(size_cap: int = 3, dim_cap: int = 3, **_) -> SuiteReport:
    rep = SuiteReport("harmonic")
    count = 0
    ok = True
    for p in range(1, dim_cap + 1):
        for q in range(1, p + 1):
            for r in range(1, dim_cap + 1):
                sig = Signature(p, q, r, 0)
                for lam in partitions_up_to(size_cap, p):
                    for mu in partitions_up_to(size_cap - lam.size(), q):
                        if len(lam) + len(mu) > r:
                            continue
                        vec = kv_highest_weight(lam, mu, sig)
                        ok &= is_harmonic(vec, sig)
                        count += 1
    rep.check(ok, f"Delta_ij P_(lam,mu) = 0 for all {count} admissible pairs, "
                  f"|lam|+|mu| <= {size_cap}, p,q,r <= {dim_cap}")
    sig = Signature(1, 1, 1, 0)
    bad = Polynomial.variable(X(1, 1)) * Polynomial.variable(Y(1, 1))
    rep.check(not is_harmonic(bad, sig), "negative control: X11 Y11 is not harmonic at r=1")
    rep.check(upq_op_model(sig, FOCK, "pminus", 1, 1).apply(bad) == Polynomial.constant(C_MINUS),
              "Delta_11 (X11 Y11) = 1 at r = 1")
    return rep


# ---------------------------------------------------------------------------
# 4. Schur span dimension
# ---------------------------------------------------------------------------

def suite_schur_dim(size_cap: int = 3, p_cap: int = 3, **_) -> SuiteReport:
    rep = SuiteReport("schur-dim")
    ok = True
    pairs = 0
    for shape in partitions_up_to(4):
        for n in range(1, 5):
            ok &= len(enumerate_ssyt(shape, n)) == hook_content_dim(shape, n)
            pairs += 1
    rep.check(ok, f"SSYT enumeration equals hook-content oracle on {pairs} (shape, n) pairs")
    ok = True
    checked = 0
    for p in range(1, p_cap + 1):
        for shape in partitions_up_to(size_cap):
            if shape.parts and len(shape) > p:
                continue
            r = max(len(shape), 1)
            sig = Signature(p, 0, r, 0)
            ok &= schur_span_dim(shape, sig) == hook_content_dim(shape, p)
            checked += 1
    rep.check(ok, f"span rank of Delta_T equals SSYT count on {checked} shapes, |lam| <= {size_cap}, p <= {p_cap}")
    return rep


# ---------------------------------------------------------------------------
# 5. closedness (and the Kostant curvature certification of d)
# ---------------------------------------------------------------------------

CLOSEDNESS_SIGNATURES = ((1, 1), (2, 1), (2, 2), (3, 1))
RS_PAIRS = ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))


def _random_one_term_cochain(rng: random.Random, sig: Signature) -> GKCochain | None:
    gens = [xi(i, j) for i in range(1, sig.p + 1) for j in range(1, sig.q + 1)]
    gens += [xibar(i, j) for i in range(1, sig.p + 1) for j in range(1, sig.q + 1)]
    k = rng.randrange(0, min(4, len(gens)) + 1)
    sign, w = wedge_monomial(rng.sample(gens, k))
    if sign == 0:
        return None
    pool = []
    for col in range(1, sig.r + 1):
        pool += [X(i, col) for i in range(1, sig.p + 1)]
        pool += [Y(j, col) for j in range(1, sig.q + 1)]
    degree = rng.randrange(0, 3)
    # p = q = 0 has no variables: the constant monomial, its degree still drawn
    mono = monomial([(rng.choice(pool), 1) for _ in range(degree if pool else 0)])
    coeff = Scalar.of(rng.randrange(-3, 4) or 1, rng.randrange(-2, 3))
    return GKCochain(Form({w: Polynomial({mono: coeff})}), fock_model(0), sig)


def suite_closedness(seed: int = 0, signatures=None, rs_pairs=None, dd_samples: int = 20, **_) -> SuiteReport:
    rep = SuiteReport("closedness")
    sigs = signatures or CLOSEDNESS_SIGNATURES
    pairs = rs_pairs or RS_PAIRS
    swept = []  # d(psi) of every swept form, differentiated again below
    for (p, q) in sigs:
        ok = True
        for (r, s) in pairs:
            c = build_psi_cup(Signature(p, q, r, s))
            d = gk_differential(c)
            swept.append(d)
            ok &= d.form.is_zero()
            ok &= d.form.bidegree_part(1, 0).is_zero() and d.form.bidegree_part(0, 1).is_zero()
        rep.check(ok, f"d psi = 0 for every (r, s) with r+s <= 2 at (p, q) = ({p}, {q})")
        if q >= 1:
            sig_col = Signature(p, q, 1, 0)
            rep.check(gk_differential(build_psi_q(sig_col)).form.is_zero(),
                      f"d of the one-column form vanishes at (p, q) = ({p}, {q})")
    # d circ d: exact Kostant identity on seeded random one-term cochains.
    # The bare square is NOT zero off the K-invariant subspace (the unit
    # cochain is a counterexample, recorded below); what certifies the
    # differential is dd == curvature built from the k-blocks, plus the
    # vanishing of both pure-direction components, plus dd = 0 on the
    # K-invariant constructions.
    rng = random.Random(seed)
    for (p, q) in sigs:
        sig = Signature(p, q, 2, 0)
        ok = True
        produced = 0
        while produced < dd_samples:
            c = _random_one_term_cochain(rng, sig)
            if c is None:
                continue
            produced += 1
            dd = gk_differential(gk_differential(c))
            ok &= dd.form == gk_curvature(c).form
            (a0, b0), = c.form.bidegree_support()
            ok &= dd.form.bidegree_part(a0 + 2, b0).is_zero()
            ok &= dd.form.bidegree_part(a0, b0 + 2).is_zero()
        rep.check(ok, f"d(d(c)) equals the k-curvature exactly on {dd_samples} seeded "
                      f"one-term cochains at (p, q) = ({p}, {q}); pure (2,0)/(0,2) parts vanish")
    unit = GKCochain(Form.unit(), fock_model(0), Signature(2, 1, 1, 0))
    rep.check(not gk_differential(gk_differential(unit)).form.is_zero(),
              "negative control: d(d(unit)) = curvature != 0 on the non-invariant unit cochain")
    ok = all(gk_differential(d).form.is_zero() for d in swept)
    rep.check(ok, "d(d(psi)) = 0 on every K-invariant constructed form in the sweep")
    return rep


# ---------------------------------------------------------------------------
# 6. cup products
# ---------------------------------------------------------------------------

def suite_cup(signatures=None, **_) -> SuiteReport:
    rep = SuiteReport("cup")
    sigs = signatures or CLOSEDNESS_SIGNATURES
    factor_pairs = [((0, 0), (1, 0)), ((1, 0), (1, 0)), ((1, 0), (0, 1)),
                    ((0, 1), (1, 0)), ((1, 1), (1, 0)), ((1, 0), (1, 1)),
                    ((0, 2), (2, 0)), ((2, 0), (0, 2))]
    for (p, q) in sigs:
        ok = True
        for (r1, s1), (r2, s2) in factor_pairs:
            sig1, sig2 = Signature(p, q, r1, s1), Signature(p, q, r2, s2)
            prod = cup_product(build_psi_cup(sig1), build_psi_cup(sig2))
            combined = build_psi_cup(prod.sig)
            ok &= prod.form == combined.form.scale(cup_sign(sig1, sig2))
        rep.check(ok, f"cup compatibility (graded sign convention) at (p, q) = ({p}, {q})")
        ok = True
        for (r1, r2) in ((1, 1), (2, 1)):
            s1 = Signature(p, q, r1, 0, ORTHOGONAL)
            s2 = Signature(p, q, r2, 0, ORTHOGONAL)
            prod = cup_product(build_psi_orth(s1), build_psi_orth(s2))
            ok &= prod.form == build_psi_orth(prod.sig).form
        rep.check(ok, f"orthogonal cup compatibility at (p, q) = ({p}, {q})")
        ok = build_psi_cup(Signature(p, q, p + 1, 0)).form.is_zero()
        ok &= build_psi_cup(Signature(p, q, 0, p + 1)).form.is_zero()
        ok &= build_psi_orth(Signature(p, q, p + 1, 0, ORTHOGONAL)).form.is_zero()
        rep.check(ok, f"vanishing beyond range r > p or s > p at (p, q) = ({p}, {q})")
    sig = Signature(2, 1, 2, 0)
    pol = build_psi_cup(sig).form.coefficient(strongly_primitive_monomial(sig))
    rep.check(not pol.is_zero(),
              "strongly primitive wedge coefficient nonzero at (p,q,r,s) = (2,1,2,0)")
    sig = Signature(2, 1, 1, 1)
    pol = build_psi_cup(sig).form.coefficient(strongly_primitive_monomial(sig))
    rep.check(not pol.is_zero(),
              "strongly primitive wedge coefficient nonzero at (p,q,r,s) = (2,1,1,1)")
    return rep


# ---------------------------------------------------------------------------
# 7. Kudla-Millson equality
# ---------------------------------------------------------------------------

def suite_km_equality(**_) -> SuiteReport:
    rep = SuiteReport("km-equality")
    for (p, q, r) in ((1, 1, 1), (2, 1, 1), (1, 2, 1)):
        sig = Signature(p, q, r, r)
        rep.check(build_km_nabla(sig).form == build_km_explicit(sig).form,
                  f"unitary nabla construction equals explicit C(q, lambda) sum at (p,q,r)=({p},{q},{r})")
    for (p, q, r) in ((2, 1, 1), (2, 2, 1), (3, 3, 1)):
        sig = Signature(p, q, r, 0, ORTHOGONAL)
        rep.check(build_km_nabla(sig).form == build_km_explicit(sig).form,
                  f"orthogonal nabla equals explicit at (p,q,r)=({p},{q},{r})")
    for (p, q) in ((2, 1), (3, 3)):
        sig = Signature(p, q, 1, 0, ORTHOGONAL)
        rep.check(evaluate_at_zero(build_km_nabla(sig)).is_zero(),
                  f"orthogonal Schwartz form vanishes at 0 for odd q = {q}")
    sig = Signature(1, 1, 1, 1)
    at0 = evaluate_at_zero(build_km_nabla(sig))
    ratio = forms_proportional(at0, euler_chern_form(sig))
    rep.check(ratio is not None and not ratio.is_zero(),
              f"phi(0) proportional to c_q^r at (1,1,1); ratio {ratio!r}")
    rep.check(euler_chern_form(Signature(2, 1, 1, 0, ORTHOGONAL)).is_zero(),
              "orthogonal Euler form vanishes for odd q")
    sig = Signature(2, 1, 2, 1)
    mixed = build_mixed(sig)
    rep.check(mixed.form.bidegree_support() == {(1, 2)},
              "mixed form bidegree support is (sq, rq) = (1, 2) at (2,1,2,1)")
    rep.check(build_mixed(Signature(2, 1, 2, 0)).form == build_psi_cup(Signature(2, 1, 2, 0)).form,
              "mixed form at s = 0 equals the Fock cup product")
    rep.check(build_mixed(Signature(1, 1, 1, 1)).form == build_km_nabla(Signature(1, 1, 1, 1)).form,
              "mixed form at s = r equals the Kudla-Millson form")
    return rep


# ---------------------------------------------------------------------------
# 8. restriction
# ---------------------------------------------------------------------------

def suite_restriction(**_) -> SuiteReport:
    rep = SuiteReport("restriction")
    c21 = build_psi_q(Signature(2, 1, 1, 0))
    rep.check(restrict_form(c21, SplitSpec(0)).form == c21.form, "l = 0 is the identity")
    rep.check(restrict_form(c21, SplitSpec(1)).form == build_psi_q(Signature(1, 1, 1, 0)).form,
              "psi restricts along (2,1) -> (1,1), l = 1, exactly")
    cup = build_psi_cup(Signature(2, 1, 2, 0))
    rep.check(restrict_form(cup, SplitSpec(1)).form == build_psi_cup(Signature(1, 1, 2, 0)).form,
              "cup product restricts compatibly at (2,1) -> (1,1)")
    km = build_km_nabla(Signature(2, 1, 1, 1))
    rep.check(restrict_form(km, SplitSpec(1)).form == build_km_nabla(Signature(1, 1, 1, 1)).form,
              "Kudla-Millson form restricts to the smaller Kudla-Millson form")
    rep.check(restrict_form(build_psi_cup(Signature(2, 1, 1, 0)), SplitSpec(2)).form.is_zero(),
              "peeling all rows (l = p) kills the form")
    orth = build_psi_orth(Signature(2, 1, 1, 0, ORTHOGONAL))
    rep.check(restrict_form(orth, SplitSpec(1)).form == build_psi_orth(Signature(1, 1, 1, 0, ORTHOGONAL)).form,
              "orthogonal form restricts compatibly")
    return rep


# ---------------------------------------------------------------------------
# 9. K-invariance
# ---------------------------------------------------------------------------

def suite_k_invariance(**_) -> SuiteReport:
    rep = SuiteReport("k-invariance")
    cases = []
    for (p, q) in ((1, 1), (2, 1), (2, 2)):
        for (r, s) in ((1, 0), (2, 0), (1, 1), (0, 1)):
            cases.append(build_psi_cup(Signature(p, q, r, s)))
    cases.append(build_km_nabla(Signature(2, 1, 1, 1)))
    cases.append(build_mixed(Signature(2, 1, 2, 1)))
    cases.append(build_psi_orth(Signature(2, 1, 1, 0, ORTHOGONAL)))
    cases.append(build_psi_orth(Signature(2, 2, 2, 0, ORTHOGONAL)))
    cases.append(build_km_nabla(Signature(2, 2, 1, 0, ORTHOGONAL)))
    ok = True
    for c in cases:
        ok &= k_invariance_residual(c).is_zero()
    rep.check(ok, f"residual vanishes on {len(cases)} constructed forms")
    c = build_psi_cup(Signature(2, 1, 1, 0))
    w, poly = next(iter(c.form.terms.items()))
    corrupted = dict(c.form.terms)
    corrupted[w] = -poly
    bad = GKCochain(Form(corrupted), c.model, c.sig)
    rep.check(not k_invariance_residual(bad).is_zero(),
              "negative control: sign-flipped coefficient breaks invariance")
    ok = True
    for sig in (Signature(2, 1, 0, 0), Signature(2, 2, 0, 0),
                Signature(2, 2, 0, 0, ORTHOGONAL)):
        cq = euler_chern_form(Signature(sig.p, sig.q, 1, 0, sig.family))
        ok &= k_invariance_residual(GKCochain(cq, fock_model(0), sig)).is_zero()
    rep.check(ok, "Euler/Chern forms are coadjoint-invariant (r = 0 wrapping)")
    return rep


# ---------------------------------------------------------------------------
# 10. Eisenstein / theta
# ---------------------------------------------------------------------------

def suite_eisenstein(n_max: int = 6, **_) -> SuiteReport:
    rep = SuiteReport("eisenstein")
    report = eisenstein_check(n_max)
    for line in report.lines():
        rep.note(line)
    rep.check(report.passed, f"E8 representation numbers equal 240 sigma_3(n) for n <= {n_max}")
    ok = True
    small = [([[2]], 4),
             ([[2, 1], [1, 2]], 4),
             ([[2, 0, 0], [0, 4, 1], [0, 1, 2]], 4),
             ([[2, 1, 0, 0], [1, 2, 0, 0], [0, 0, 4, 1], [0, 0, 1, 6]], 4),
             ([[Fraction(3, 2), Fraction(1, 2)], [Fraction(1, 2), Fraction(5, 2)]], 4)]
    for entries, cap in small:
        L = GramMatrix(entries)
        # Three paths: the counting kernel, the box scan and the list enumerator.
        listed = dict.fromkeys(range(cap + 1), 0)
        for _, h in enumerate_with_norms(L, cap):
            if h.denominator == 1:
                listed[h.numerator] += 1
        ok &= rep_numbers(L, cap) == naive_rep_numbers(L, cap) == listed
    rep.check(ok, f"Fincke-Pohst agrees with the brute-force oracle on {len(small)} lattices, dim <= 4, n <= 4")
    return rep


# ---------------------------------------------------------------------------
# 11. calibration
# ---------------------------------------------------------------------------

def suite_calibration(p_cap: int = 2, q_cap: int = 2, r_cap: int = 2, **_) -> SuiteReport:
    rep = SuiteReport("calibration")
    for p in range(1, p_cap + 1):
        for q in range(1, min(p, q_cap) + 1):
            for r in range(1, r_cap + 1):
                cal = calibrate_structure(Signature(p, q, r, 0), FOCK)
                for line in cal.verified:
                    rep.check(True, f"(p,q,r)=({p},{q},{r}): {line}")
    sig = Signature(1, 1, 1, 0)
    c = upq_op_model(sig, FOCK, "pplus", 1, 1).apply(Polynomial.one())
    expect = (Polynomial.variable(X(1, 1)) * Polynomial.variable(Y(1, 1))).scale(Scalar.i_unit())
    rep.check(c == expect, "pplus(1,1) applied to 1 is c_plus X11 Y11 at r = 1")
    rep.check(upq_op_model(sig, FOCK, "k_gl_q", 1, 1).apply(Polynomial.one()) == Polynomial.one(),
              "gl(q) trace on the constant sees the det^r central shift (r = 1)")
    return rep


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

SUITES = {
    "oscillator-relations": suite_oscillator_relations,
    "intertwiner": suite_intertwiner,
    "harmonic": suite_harmonic,
    "schur-dim": suite_schur_dim,
    "closedness": suite_closedness,
    "cup": suite_cup,
    "km-equality": suite_km_equality,
    "restriction": suite_restriction,
    "k-invariance": suite_k_invariance,
    "eisenstein": suite_eisenstein,
    "calibration": suite_calibration,
}


def run_suite(name: str, **kwargs) -> SuiteReport:
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    t0 = perf_counter()
    rep = SUITES[name](**kwargs)
    rep.seconds = perf_counter() - t0
    return rep


def run_all(seed: int = 0) -> list[SuiteReport]:
    return [run_suite(name, seed=seed) for name in SUITES]
