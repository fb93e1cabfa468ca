"""The public surface of theta_forms: the names the package exports, the
names this surface has shed, and the few that look unused but are not."""

import types

import theta_forms
from theta_forms import forms, models, poly, schur, serialize, theta
from theta_forms.exterior import Form, WedgeGen
from theta_forms.forms import GKCochain
from theta_forms.poly import Polynomial
from theta_forms.scalars import Scalar
from theta_forms.theta import WhittakerPoint

PUBLIC = [
    "BetaMatrix", "FOCK", "Form", "GKCochain", "GramMatrix", "LinOp", "ModelTag",
    "ORTHOGONAL", "Partition", "Polynomial", "SCHRODINGER", "Scalar", "Signature",
    "SplitSpec", "Tableau", "UNITARY", "VariableId", "WedgeGen", "WhittakerPoint",
    "X", "Xbar", "Y", "Ybar", "Zvar", "build_km_explicit", "build_km_nabla",
    "build_mixed", "build_psi_cup", "build_psi_orth", "build_psi_q",
    "calibrate_structure", "delta_T", "e8_gram", "eisenstein_check", "enumerate_ssyt",
    "enumerate_with_norms", "euler_chern_form", "evaluate_at_zero", "fock_model",
    "fourier_assemble", "gk_curvature", "gk_differential", "heisenberg_op",
    "hook_content_dim", "inner_product_rel", "intertwine", "is_harmonic",
    "k_invariance_residual", "kv_highest_weight", "ladder_op", "mixed_model",
    "naive_rep_numbers", "rep_numbers", "restrict_form", "schur_span_dim", "sigma3", "strongly_primitive_monomial", "upq_op_model",
    "whittaker", "xi", "xibar",
]

# Deleted as unused outside the tests or as pass-through wrappers; a name
# that comes back must be wanted by a production path, not slip in.
REMOVED = [
    (models, "sp_op"), (models, "vacuum"), (models, "SchrodingerElement"),
    (models, "upq_op"), (GKCochain, "is_zero"), (GKCochain, "bidegree_support"),
    (forms, "coefficient_at"), (Form, "generator"), (Form, "apply_op"),
    (Form, "degrees"), (Form, "__mul__"), (Form, "__rmul__"), (Scalar, "pi"),
    (Scalar, "__sub__"), (serialize, "cochain_to_dict"), (WhittakerPoint, "of"),
    (theta, "enumerate_vectors"), (schur, "laplacian"), (WedgeGen, "sort_key"),
]


def test_public_names_are_pinned():
    names = sorted(n for n, v in vars(theta_forms).items()
                   if not n.startswith("_") and not isinstance(v, types.ModuleType))
    assert names == PUBLIC


def test_removed_names_stay_removed():
    assert [(getattr(owner, "__name__", owner), name) for owner, name in REMOVED
            if hasattr(owner, name)] == []


def test_degree_stays_for_the_tracer():
    # perfbench/tracer.py (_observe_poly_mul) calls out.degree() on every
    # traced Polynomial product for poly.degree_max; nothing in the library
    # calls it, so only this pin keeps it
    assert callable(Polynomial.degree) and callable(poly.monomial_degree)
