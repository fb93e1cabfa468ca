"""The public surface of theta_forms: the names the package exports, the
names this surface has shed, and the few that look unused but are not."""

import ast
import importlib
import types
from pathlib import Path

import pytest

import theta_forms
from theta_forms import forms, models, poly, schur, serialize, theta
from theta_forms.exterior import Form, WedgeGen
from theta_forms.forms import GKCochain
from theta_forms.poly import Polynomial
from theta_forms.scalars import Scalar
from theta_forms.theta import WhittakerPoint

PUBLIC = [
    "BetaMatrix", "FOCK", "Form", "GKCochain", "GramMatrix", "LinOp", "ModelTag",
    "ORTHOGONAL", "Partition", "Polynomial", "Scalar", "Signature",
    "Tableau", "UNITARY", "VariableId", "WedgeGen", "WhittakerPoint",
    "X", "Xbar", "Y", "Ybar", "Zvar", "build_km_explicit", "build_km_nabla",
    "build_mixed", "build_psi_cup", "build_psi_orth", "build_psi_q",
    "calibrate_structure", "clear_caches", "delta_T", "e8_gram", "eisenstein_check", "enumerate_ssyt",
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
    # the Gram file format lives in theta, so the theta command loads no serialize
    (serialize, "gram_to_json"), (serialize, "gram_from_dict"), (serialize, "gram_from_json"),
    # a model tag is a column layout; the scalar models are the names "fock"
    # and "schrodinger" that heisenberg_op takes
    (models, "SCHRODINGER"),
    # restrict_form takes the peeled dimension as a plain int
    (forms, "SplitSpec"),
    # nothing in the library called them: LinOp.partial(v).apply, the
    # derivative d runs, is the one derivative
    (Polynomial, "partial"), (Polynomial, "variables"),
    # the K-residual returns its first failing element, so nothing ranks residuals
    (Form, "max_term_count"),
]


def test_public_names_are_pinned():
    """The package is lazy, so its public names are what __all__ and dir()
    list, each the very object bound in the submodule that defines it."""
    assert sorted(theta_forms.__all__) == sorted(dir(theta_forms)) == PUBLIC
    assert theta_forms.clear_caches.__module__ == "theta_forms"
    for name in (n for n in PUBLIC if n != "clear_caches"):
        value = getattr(theta_forms, name)
        home = importlib.import_module(f"theta_forms.{theta_forms._HOME[name]}")
        assert value is vars(home)[name], name
        if isinstance(value, (type, types.FunctionType)):
            assert value.__module__ == home.__name__, name


def test_package_resolves_names_and_submodules_on_use():
    assert theta_forms.theta is theta and theta_forms.Signature is models.Signature
    from theta_forms import Signature, suites
    assert Signature is models.Signature and suites.SUITES
    with pytest.raises(AttributeError, match="nope"):
        theta_forms.nope


def test_only_the_cli_and_the_package_import_lazily():
    """No library function imports: the hot paths keep their module-level
    bindings.  Only the CLI's handlers and the package __getattr__ defer
    an import, so that each command loads the layers it runs."""
    src = Path(theta_forms.__file__).parent
    deferred = sorted(f"{path.name}:{fn.name}" for path in src.glob("*.py")
                      for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                      if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                      and any(isinstance(node, (ast.Import, ast.ImportFrom))
                              for node in ast.walk(fn))
                      and path.name != "cli.py")
    assert deferred == ["__init__.py:__getattr__"]


def test_removed_names_stay_removed():
    assert [(getattr(owner, "__name__", owner), name) for owner, name in REMOVED
            if hasattr(owner, name)] == []


def test_degree_stays_for_the_tracer():
    # perfbench/tracer.py (_observe_poly_mul) calls out.degree() on every
    # traced Polynomial product for poly.degree_max; nothing in the library
    # calls it, so only this pin keeps it
    assert callable(Polynomial.degree) and callable(poly.monomial_degree)
