"""Infinitesimal oscillator actions in the Schrodinger, Fock, and mixed models.

Conventions fixed here and used everywhere downstream:

* Gaussians are never expanded.  A Schrodinger-model vector poly * gaussian
  is held as its Polynomial factor alone; all operators on it are
  pre-conjugated by the vacuum gaussian exp(-pi * |x|^2), whose factor is
  Polynomial.one().  Concretely d/dx_j acts on the polynomial part as
  (d/dx_j - 2 pi x_j), so the conjugated ladder operators are
  A+_j = d/dx_j and A-_j = d/dx_j - 4 pi x_j.

* Each scalar model has one (creation c_j, annihilation a_j) pair,
  _scalar_ladder: (z_j, 4pi d/dz_j) in Fock, (-A-_j, A+_j) in Schrodinger.
  The Fock -> Schrodinger intertwiner T is pinned by T(1) = vacuum and
  T(z_j v) = c_j T(v), c_j the Schrodinger creation operator.

* In the matrix Fock model P(M_{p x r} + M_{q x r}) each gl(p+q) index A
  has one ladder pair per column half, _column_ladder: (X_A, d/dX_A) for
  A <= p, (-c_minus d/dY, -c_plus Y) on Y_{A-p}.  upq_op_model sends E_AB
  to one bilinear in them, which on a holomorphic column reads
      k_gl_p(a,b) = -sum_nu X_{b,nu} d/dX_{a,nu}
      k_gl_q(a,b) = (#holomorphic columns) delta_ab + sum_nu Y_{a,nu} d/dY_{b,nu}
      pplus(i,j)  = c_plus  * sum_nu X_{i,nu} Y_{j,nu}          (degree +2)
      pminus(i,j) = c_minus * sum_nu d^2/dX_{i,nu} dY_{j,nu}    (degree -2)
  with the fixed constants c_plus = c_minus = i (C_PLUS, C_MINUS).  They
  rescale the Y pair, which is canonical exactly when c_plus * c_minus = -1:
  the brackets force that product (other constants are not a
  representation) and leave the split free; i, i is the symmetric
  representative.  upq_op_model is the one definition of these operators,
  shared by every caller (d, the curvature, the certificate,
  schur.is_harmonic and the K-residual of both families, where
  so(p) + so(q) is the antisymmetric part k_gl(a,b) - k_gl(b,a)).
  calibrate_structure certifies the very operators of the model it is given
  by checking every gl(p+q) bracket; it runs only where identities are
  checked (the `calibrate` command, the calibration suite and
  forms.gk_curvature), never on the construction path.
  Conjugate columns carry the complex-conjugate operators; intertwined
  (Schrodinger) columns carry M_V in place of multiplication by V in the
  p-blocks and plain d/dV in place of d/dz, where _m_op defines
  M_V = V - (1/2pi) d/dVbar (unitary) or V - (1/4pi) d/dV (orthogonal, on
  real variables).

* _scalar_ladder, _column_ladder, upq_op_model and calibrate_structure are
  functools.cache functions of the values they build from: each ladder
  pair, operator and certificate is built on its first request and shared
  after that, and cache_info() counts the builds (misses) and reuses (hits).
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
# Scalar oscillator: one (creation, annihilation) pair per model
# ---------------------------------------------------------------------------

_4PI = Scalar.of(4, 0, 1)


@cache
def _scalar_ladder(which: str, j: int) -> tuple[LinOp, LinOp]:
    """(c_j, a_j), the creation and annihilation operator of coordinate j in
    the scalar model `which`: (z_j, 4pi d_j) in Fock, (4pi x_j - d_j, d_j) in
    the gaussian-conjugated Schrodinger model."""
    v = Zvar(j)
    mul, d = LinOp.mul_by(Polynomial.variable(v)), LinOp.partial(v)
    if which == "fock":
        return mul, d.scale(_4PI)
    return mul.scale(_4PI) - d, d


def heisenberg_op(model: ModelTag, gen: str, j: int, dim: int) -> LinOp:
    """Heisenberg generators e_j, f_j, w'_j, w''_j in the scalar model, from its
    ladder pair (c, a): rho(e_j) = (c - a)/2, rho(f_j) = -i (c + a)/2,
    rho(w'_j) = -a, rho(w''_j) = c.  In Schrodinger (on the polynomial
    factor) that is rho(e_j) = 2pi x_j - d_j and rho(f_j) = -2 i pi x_j."""
    if not (1 <= j <= dim):
        raise IndexError(f"generator index {j} out of range 1..{dim}")
    if model.which not in ("fock", "schrodinger"):
        raise ValueError("heisenberg_op is defined for the scalar fock/schrodinger models")
    c, a = _scalar_ladder(model.which, j)
    if gen == "e":
        return (c - a).scale(Fraction(1, 2))
    if gen == "f":
        return (c + a).scale(Scalar.of(0, Fraction(-1, 2)))
    if gen == "wp":
        return -a
    if gen == "wpp":
        return c
    raise ValueError(f"unknown generator {gen!r}")


def ladder_op(kind: str, j: int, dim: int) -> LinOp:
    """Gaussian-conjugated ladder operators on polynomial factors, from the
    Schrodinger pair (c, a): A+_j = a, A-_j = -c, H_j = A+_j A-_j + A-_j A+_j."""
    if not (1 <= j <= dim):
        raise IndexError(f"ladder index {j} out of range 1..{dim}")
    c, a = _scalar_ladder("schrodinger", j)
    if kind == "Aplus":
        return a
    if kind == "Aminus":
        return -c
    if kind == "H":
        return -(a.compose(c) + c.compose(a))
    raise ValueError(f"unknown ladder kind {kind!r}")


# ---------------------------------------------------------------------------
# Intertwiner and the gaussian-relative inner product
# ---------------------------------------------------------------------------

def intertwine(fock_elem: Polynomial, dim: int) -> Polynomial:
    """Polynomial factor of the image of a Fock polynomial in z_1..z_N under
    the unique intertwiner sending 1 to the vacuum; z^m goes to c^m applied
    to the vacuum, c_j the Schrodinger creation operator."""
    acc: dict = {None: {}}
    for mono, c in fock_elem.terms.items():
        img = Polynomial.one()
        for v, e in mono:
            if v != Zvar(v.row) or not 1 <= v.row <= dim:
                raise ValueError(f"not a Fock variable of dimension {dim}: {v}")
            create = _scalar_ladder("schrodinger", v.row)[0]
            for _ in range(e):
                img = create.apply(img)
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


@cache
def _column_ladder(p: int, A: int, col: int, conj: bool, intertwined: bool,
                   c_plus: Scalar, c_minus: Scalar) -> tuple[LinOp, LinOp]:
    """(alpha_A, beta_A), the ladder pair of gl(p+q) index A on one half of
    column col: (V, d/dV) for V = X_{A,col} and (-c_minus d/dV, -c_plus V)
    for V = Y_{A-p,col}.  The conjugate half (conj) takes Xbar, Ybar and the
    conjugate constants; an intertwined (Schrodinger) column multiplies by
    M_V = _m_op(V) in place of V.  [beta_A, alpha_B] = delta_AB exactly when
    c_plus * c_minus = -1."""
    x, y = (Xbar, Ybar) if conj else (X, Y)
    v = x(A, col) if A <= p else y(A - p, col)
    mul, d = _m_op(v) if intertwined else _mult(v), LinOp.partial(v)
    if A <= p:
        return mul, d
    if conj:
        c_plus, c_minus = c_plus.conjugate(), c_minus.conjugate()
    return d.scale(-c_minus), mul.scale(-c_plus)


# block -> (A in the q-range, B in the q-range) of its matrix unit E_AB, in
# _abstract_image's labelling
_MATRIX_UNIT = {"k_gl_p": (0, 0), "k_gl_q": (1, 1), "pminus": (0, 1), "pplus": (1, 0)}
# column kind -> its halves, conj = False (holomorphic) and True (conjugate)
_HALVES = {"pure": (False,), "conj": (True,)}


@cache
def upq_op_model(sig: Signature, model: ModelTag, block: str, a: int, b: int,
                 c_plus: Scalar = C_PLUS, c_minus: Scalar = C_MINUS) -> LinOp:
    """The u(p,q) operator for the given block, summed over all columns of
    the model.  Blocks: k_gl_p(a,b), k_gl_q(a,b), pplus(i,j), pminus(i,j).

    The block's matrix unit E_AB adds -alpha_B beta_A on each holomorphic
    half of a column and eps alphabar_A betabar_B on each conjugate half
    (_column_ladder; eps = -1 on the p-blocks).  M_V enters only the
    p-blocks, since k commutes with the intertwiner.

    This is the one definition of the family: d, the curvature, the
    K-residual and calibrate_structure's certificate all build through it
    with the defaults C_PLUS, C_MINUS.  Other constants are accepted only to
    probe the free split between them; a product other than -1 is not a
    representation (k_gl_q comes out scaled by -c_plus * c_minus).  Each
    operator is built on the first request for its arguments and shared
    after that (a LinOp is an immutable value); passing the constants
    explicitly is another cache entry."""
    unit = _MATRIX_UNIT.get(block)
    if unit is None:
        raise ValueError(f"unknown u(p,q) block {block!r}")
    a_in_q, b_in_q = unit
    if a_in_q > b_in_q:   # pplus(i, j) is E_{p+j, i}: its p-index comes first
        a, b = b, a
    sizes = (sig.p, sig.q)
    if not (1 <= a <= sizes[a_in_q] and 1 <= b <= sizes[b_in_q]):
        raise IndexError(f"{block} index out of range")
    A, B = a + sig.p * a_in_q, b + sig.p * b_in_q
    p_block = a_in_q != b_in_q
    parts = []
    for col, kind in enumerate(column_kinds(sig, model), start=1):
        intertwined = p_block and kind == "schrodinger"
        for conj in _HALVES.get(kind, (False, True)):
            alpha_a, beta_a = _column_ladder(sig.p, A, col, conj, intertwined, c_plus, c_minus)
            alpha_b, beta_b = _column_ladder(sig.p, B, col, conj, intertwined, c_plus, c_minus)
            op = alpha_a.compose(beta_b) if conj else alpha_b.compose(beta_a)
            parts.append(op if conj and not p_block else -op)
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
