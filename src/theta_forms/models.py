"""Infinitesimal oscillator actions in the Schrodinger, Fock, and mixed models.

Conventions fixed here and used everywhere downstream:

* Gaussians are never expanded.  A Schrodinger-model vector poly * gaussian
  is held as its Polynomial factor alone; all operators on it are
  pre-conjugated by the vacuum gaussian exp(-pi * |x|^2), whose factor is
  Polynomial.one().  Concretely d/dx_j acts on the polynomial part as
  (d/dx_j - 2 pi x_j), so the conjugated ladder operators are
  A+_j = d/dx_j and A-_j = d/dx_j - 4 pi x_j.

* The Fock -> Schrodinger intertwiner T is pinned by T(1) = vacuum and
  T(z_j v) = (-A-_j) T(v); on monomials T(z^m) = (-A-)^m applied to 1.

* In the matrix Fock model P(M_{p x r} + M_{q x r}) the complexified
  u(p,q) acts through:
      k_gl_p(a,b) = -sum_nu X_{b,nu} d/dX_{a,nu}
      k_gl_q(a,b) = (#holomorphic columns) delta_ab + sum_nu Y_{a,nu} d/dY_{b,nu}
      pplus(i,j)  = c_plus  * sum_nu X_{i,nu} Y_{j,nu}          (degree +2)
      pminus(i,j) = c_minus * sum_nu d^2/dX_{i,nu} dY_{j,nu}    (degree -2)
  with the fixed constants c_plus = c_minus = i (C_PLUS, C_MINUS).  The
  brackets force c_plus * c_minus = -1 and leave the split between the two
  free; i, i is the symmetric representative.  upq_op_model is the one
  definition of these operators, shared by every caller (d, the curvature,
  the certificate and the K-residual of both families, where so(p) + so(q)
  is the antisymmetric part k_gl(a,b) - k_gl(b,a)).  calibrate_structure
  certifies the very operators of the model it is given by checking every
  gl(p+q) bracket; it runs only where identities are checked (the
  `calibrate` command, the calibration suite and forms.gk_curvature),
  never on the construction path.
  Conjugate columns carry the complex-conjugate operators; intertwined
  (Schrodinger) columns carry M_V in place of multiplication by V and plain
  d/dV in place of d/dz, where _m_op defines M_V = V - (1/2pi) d/dVbar
  (unitary) or V - (1/4pi) d/dV (orthogonal, on real variables).

* upq_op_model, calibrate_structure and schur.laplacian are functools.cache
  functions of the values they build from: each operator, certificate and
  Delta_ij is built on its first request and shared after that, and
  cache_info() counts the builds (misses) and reuses (hits).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache

from .operators import LinOp, op_sum
from .poly import (Polynomial, VariableId, X, Xbar, Y, Ybar, Zvar, _mac_poly, _polys,
                   monomial_mul, parse_index)
from .scalars import Scalar


# ---------------------------------------------------------------------------
# Signatures and model tags
# ---------------------------------------------------------------------------

UNITARY = "unitary"
ORTHOGONAL = "orthogonal"


@dataclass(frozen=True)
class Signature:
    p: int
    q: int
    r: int = 0
    s: int = 0
    family: str = UNITARY

    def __post_init__(self):
        # Standing convention is p >= q; the p < q corner is tolerated so the
        # restriction map can peel all the way down to p = 0.
        if self.p < 0 or self.q < 0 or self.r < 0 or self.s < 0:
            raise ValueError("signature entries must be non-negative")
        if self.family not in (UNITARY, ORTHOGONAL):
            raise ValueError(f"unknown family {self.family!r}")
        if self.family == ORTHOGONAL and self.s != 0:
            raise ValueError("orthogonal family forces s = 0")


@dataclass(frozen=True)
class ModelTag:
    """Which realization the coefficients live in.

    which = "fock":        columns 1..split are doubled Fock columns
                           (holomorphic and conjugate polynomial factors),
                           the rest are purely holomorphic.
    which = "mixed":       columns 1..split are gaussian-conjugated
                           Schrodinger columns, the rest Fock.
    which = "schrodinger": the scalar model on S(R^N) (Z-kind variables).
    """

    which: str = "fock"
    split: int = 0

    def __post_init__(self):
        if self.which not in ("fock", "schrodinger", "mixed"):
            raise ValueError(f"unknown model {self.which!r}")
        if self.split < 0:
            raise ValueError("model split must be non-negative")

    def token(self) -> str:
        return f"{self.which}:{self.split}"

    @classmethod
    def from_token(cls, tok: str) -> "ModelTag":
        which, split = tok.split(":")
        return cls(which, parse_index(split, 0))


FOCK = ModelTag("fock", 0)
SCHRODINGER = ModelTag("schrodinger", 0)


def mixed_model(split: int) -> ModelTag:
    return ModelTag("mixed", split)


def fock_model(conj_cols: int = 0) -> ModelTag:
    return ModelTag("fock", conj_cols)


# ---------------------------------------------------------------------------
# Scalar oscillator: Heisenberg generators and the ladder calculus
# ---------------------------------------------------------------------------

_2PI = Scalar.of(2, 0, 1)
_4PI = Scalar.of(4, 0, 1)


def _zmul(j: int) -> LinOp:
    return LinOp.mul_by(Polynomial.variable(Zvar(j)))


def _zd(j: int) -> LinOp:
    return LinOp.partial(Zvar(j))


def heisenberg_op(model: ModelTag, gen: str, j: int, dim: int) -> LinOp:
    """Heisenberg generators e_j, f_j, w'_j, w''_j in the given scalar model.

    Fock:        rho(e_j) = (z_j - 4pi d_j)/2, rho(f_j) = -i (z_j + 4pi d_j)/2,
                 rho(w'_j) = -4pi d_j, rho(w''_j) = z_j.
    Schrodinger (gaussian-conjugated, acting on the polynomial factor):
                 rho(e_j) = 2pi x_j - d_j, rho(f_j) = -2 i pi x_j,
                 rho(w'_j) = -d_j, rho(w''_j) = 4pi x_j - d_j.
    """
    if not (1 <= j <= dim):
        raise IndexError(f"generator index {j} out of range 1..{dim}")
    if model.which == "fock":
        z, d = _zmul(j), _zd(j)
        if gen == "wp":
            return d.scale(Scalar.of(-4, 0, 1))
        if gen == "wpp":
            return z
        if gen == "e":
            return (z - d.scale(_4PI)).scale(Fraction(1, 2))
        if gen == "f":
            return (z + d.scale(_4PI)).scale(Scalar.of(0, Fraction(-1, 2)))
        raise ValueError(f"unknown generator {gen!r}")
    if model.which == "schrodinger":
        x, d = _zmul(j), _zd(j)
        if gen == "wp":
            return -d
        if gen == "wpp":
            return x.scale(_4PI) - d
        if gen == "e":
            return x.scale(_2PI) - d
        if gen == "f":
            return x.scale(Scalar.of(0, -2, 1))
        raise ValueError(f"unknown generator {gen!r}")
    raise ValueError("heisenberg_op is defined for the scalar fock/schrodinger models")


def ladder_op(kind: str, j: int, dim: int) -> LinOp:
    """Gaussian-conjugated ladder operators on polynomial factors."""
    if not (1 <= j <= dim):
        raise IndexError(f"ladder index {j} out of range 1..{dim}")
    d = _zd(j)
    x = _zmul(j)
    if kind == "Aplus":
        return d
    if kind == "Aminus":
        return d - x.scale(_4PI)
    if kind == "H":
        ap = d
        am = d - x.scale(_4PI)
        return ap.compose(am) + am.compose(ap)
    raise ValueError(f"unknown ladder kind {kind!r}")


# ---------------------------------------------------------------------------
# Intertwiner and the gaussian-relative inner product
# ---------------------------------------------------------------------------

def intertwine(fock_elem: Polynomial, dim: int) -> Polynomial:
    """Polynomial factor of the image of a Fock polynomial in z_1..z_N under
    the unique intertwiner sending 1 to the vacuum; z^m goes to (-A-)^m
    applied to the vacuum."""
    acc: dict = {None: {}}
    for mono, c in fock_elem.terms.items():
        img = Polynomial.one()
        for v, e in mono:
            if v.kind != "Z" or v.row > dim:
                raise ValueError(f"not a Fock variable of dimension {dim}: {v}")
            neg_am = LinOp.mul_by(Polynomial.variable(v)).scale(_4PI) - LinOp.partial(v)
            for _ in range(e):
                img = neg_am.apply(img)
        _mac_poly(acc, None, img, c)
    return _polys(acc)[None]


def _double_factorial(n: int) -> int:
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


def _moment(n: int) -> Scalar:
    """Gaussian-relative moment of x^n: odd vanish, even are
    (n-1)!! / (4 pi)^(n/2)."""
    if n % 2:
        return Scalar.zero()
    k = n // 2
    return Scalar.of(Fraction(_double_factorial(n - 1), 4 ** k), 0, -k)


def inner_product_rel(a: Polynomial, b: Polynomial) -> Scalar:
    """<a, b> / <vacuum, vacuum> of the Schrodinger vectors with polynomial
    factors a and b, conjugate-linear in b, via exact moments."""
    total = Scalar.zero()
    for m1, c1 in a.terms.items():
        for m2, c2 in b.terms.items():
            factor = c1 * c2.conjugate()
            for _, e in monomial_mul(m1, m2):
                factor = factor * _moment(e)
                if factor.is_zero():
                    break
            total = total + factor
    return total


# ---------------------------------------------------------------------------
# u(p,q) operators in the matrix models
# ---------------------------------------------------------------------------

C_PLUS = Scalar.i_unit()
C_MINUS = Scalar.i_unit()


def column_kinds(sig: Signature, model: ModelTag) -> list[str]:
    """Per-column realization over columns 1..max(r, s):

    'doubled'     Fock holomorphic (x) conjugate tensor factor,
    'schrodinger' the gaussian-conjugated intertwined version of 'doubled',
    'pure'        holomorphic only,
    'conj'        conjugate only (occurs when s > r).
    """
    if model.which == "schrodinger":
        raise ValueError("matrix operators need a fock or mixed model tag")
    kinds = []
    for col in range(1, max(sig.r, sig.s) + 1):
        if col <= model.split:
            kinds.append("doubled" if model.which == "fock" else "schrodinger")
        elif col <= sig.r:
            kinds.append("pure")
        else:
            kinds.append("conj")
    return kinds


def _mult(v: VariableId) -> LinOp:
    return LinOp.mul_by(Polynomial.variable(v))


_INV_2PI = Scalar.of(Fraction(1, 2), 0, -1)
_INV_4PI = Scalar.of(Fraction(1, 4), 0, -1)


def _m_op(v: VariableId, family: str = UNITARY) -> LinOp:
    """Schrodinger-column creation factor M_V: V - (1/2pi) d/dVbar (unitary),
    V - (1/4pi) d/dV on real variables (orthogonal)."""
    if family == UNITARY:
        return _mult(v) - LinOp.partial(v.conjugate()).scale(_INV_2PI)
    return _mult(v) - LinOp.partial(v).scale(_INV_4PI)


def _mul_pair(u: VariableId, v: VariableId, intertwined: bool) -> LinOp:
    """Creation by u*v: multiplication on Fock columns, M_u M_v on
    intertwined (Schrodinger) columns."""
    if intertwined:
        return _m_op(u).compose(_m_op(v))
    return LinOp.mul_by(Polynomial.variable(u) * Polynomial.variable(v))


def _dd(u: VariableId, v: VariableId) -> LinOp:
    return LinOp.partial(u).compose(LinOp.partial(v))


@cache
def upq_op_model(sig: Signature, model: ModelTag, block: str, a: int, b: int,
                 c_plus: Scalar = C_PLUS, c_minus: Scalar = C_MINUS) -> LinOp:
    """The u(p,q) operator for the given block, summed over all columns of
    the model.  Blocks: k_gl_p(a,b), k_gl_q(a,b), pplus(i,j), pminus(i,j).

    This is the one definition of the family: d, the curvature, the
    K-residual and calibrate_structure's certificate all build through it
    with the defaults C_PLUS, C_MINUS.  Other constants are accepted only to
    probe the free split between them.  Each operator is built on the first
    request for its arguments and shared after that (a LinOp is an immutable
    value); passing the constants explicitly is another cache entry."""
    shape = {"k_gl_p": (sig.p, sig.p), "k_gl_q": (sig.q, sig.q),
             "pplus": (sig.p, sig.q), "pminus": (sig.p, sig.q)}.get(block)
    if shape is None:
        raise ValueError(f"unknown u(p,q) block {block!r}")
    rows, cols = shape
    if not (1 <= a <= rows and 1 <= b <= cols):
        raise IndexError(f"{block} index out of range")
    parts = []
    for col, kind in enumerate(column_kinds(sig, model), start=1):
        holo = kind in ("pure", "doubled", "schrodinger")
        conj = kind in ("doubled", "schrodinger", "conj")
        intertwined = kind == "schrodinger"
        if block == "k_gl_p":
            if holo:
                parts.append(-(_mult(X(b, col)).compose(LinOp.partial(X(a, col)))))
            if conj:
                parts.append(_mult(Xbar(a, col)).compose(LinOp.partial(Xbar(b, col))))
        elif block == "k_gl_q":
            if holo:
                op = _mult(Y(a, col)).compose(LinOp.partial(Y(b, col)))
                if a == b:
                    op = op + LinOp.identity()
                parts.append(op)
            if conj:
                op = -(_mult(Ybar(b, col)).compose(LinOp.partial(Ybar(a, col))))
                if a == b:
                    op = op - LinOp.identity()
                parts.append(op)
        elif block == "pplus":
            if holo:
                parts.append(_mul_pair(X(a, col), Y(b, col), intertwined).scale(c_plus))
            if conj:
                parts.append(_dd(Xbar(a, col), Ybar(b, col)).scale(c_minus.conjugate()))
        else:
            if holo:
                parts.append(_dd(X(a, col), Y(b, col)).scale(c_minus))
            if conj:
                parts.append(_mul_pair(Xbar(a, col), Ybar(b, col), intertwined).scale(c_plus.conjugate()))
    return op_sum(parts)


# ---------------------------------------------------------------------------
# Calibration: certify the bracket relations of the operators d is built from
# ---------------------------------------------------------------------------

class CalibrationError(RuntimeError):
    """Raised when the u(p,q) operators fail a gl(p+q) bracket relation —
    this signals an implementation bug, not bad input data."""


@dataclass(frozen=True)
class CalibrationReport:
    sig: Signature
    model: ModelTag
    verified: tuple[str, ...]

    def lines(self) -> list[str]:
        sig = self.sig
        named = f" s={sig.s} model {self.model.token()}" if sig.s else ""
        out = [f"calibration p={sig.p} q={sig.q} r={sig.r}{named}: "
               f"c_plus={C_PLUS!r} c_minus={C_MINUS!r}"]
        out.extend(f"  verified {v}" for v in self.verified)
        return out


def _abstract_image(sig: Signature, model: ModelTag, a: int, b: int) -> LinOp:
    """Phi(E_{a,b}) for the (p+q) x (p+q) elementary matrix, under the fixed
    labeling: gl(p) block -> k_gl_p, gl(q) block -> k_gl_q,
    E_{i,p+j} -> pminus(i,j), E_{p+j,i} -> pplus(i,j).  The certificate, d,
    the curvature and the K-action all read the labeling here."""
    p = sig.p
    if a <= p and b <= p:
        return upq_op_model(sig, model, "k_gl_p", a, b)
    if a > p and b > p:
        return upq_op_model(sig, model, "k_gl_q", a - p, b - p)
    if a <= p < b:
        return upq_op_model(sig, model, "pminus", a, b - p)
    return upq_op_model(sig, model, "pplus", b, a - p)


def _bracket_image(sig: Signature, model: ModelTag, a: int, b: int, c: int, d: int) -> LinOp:
    """Phi([E_ab, E_cd]) = delta_bc Phi(E_ad) - delta_da Phi(E_cb)."""
    out = _abstract_image(sig, model, a, d) if b == c else LinOp.zero()
    return out - _abstract_image(sig, model, c, b) if d == a else out


@cache
def calibrate_structure(sig: Signature, model: ModelTag) -> CalibrationReport:
    """Certify that Phi is a Lie algebra homomorphism onto the u(p,q)
    operators exactly as upq_op_model builds them in the given model (with
    C_PLUS, C_MINUS): every bracket [E_ab, E_cd] of gl(p+q) must close.
    [E_{1,p+1}, E_{p+1,1}] alone pins c_plus * c_minus = -1; the split
    between the two is free.

    Each unordered pair of images is compared once and the diagonal is
    skipped, which still certifies every ordered bracket: [y, x] is term for
    term -[x, y] (LinOp.commutator), the expected side _bracket_image,
    delta_bc E_ad - delta_da E_cb, is antisymmetric under (a,b) <-> (c,d),
    and [x, x] is zero on both sides.  x runs in row-major order and y over
    the images after it; a pair fails in both orders or in neither, so the
    CalibrationError names the first failing bracket of the full ordered
    scan.  Cached per (signature, model), which the report names; model has
    no default, so no caller splits a cache entry in two."""
    if sig.p < 1 or sig.q < 1 or sig.r < 1:
        raise ValueError("calibration needs p, q, r >= 1")
    n = sig.p + sig.q
    img = {(a, b): _abstract_image(sig, model, a, b)
           for a in range(1, n + 1) for b in range(1, n + 1)}
    pairs = list(img.items())
    for i, ((a, b), op1) in enumerate(pairs):
        for (c, d), op2 in pairs[i + 1:]:
            if op1.commutator(op2) != _bracket_image(sig, model, a, b, c, d):
                raise CalibrationError(
                    f"bracket [E{a}{b}, E{c}{d}] fails to close for p={sig.p} q={sig.q} "
                    f"r={sig.r} s={sig.s} model {model.token()}")
    return CalibrationReport(
        sig, model, (f"all {len(img) ** 2} elementary brackets of gl({n}) close exactly",))
