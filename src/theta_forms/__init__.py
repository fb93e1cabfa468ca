"""theta_forms: exact constructions of the special cohomology cochains of
the oscillator representation (Fock-model psi forms, Kudla-Millson Schwartz
forms, cup products, the relative Lie algebra differential) together with a
numeric lattice-theta companion.

The symbolic layer works over Q(i)[pi, 1/pi] with no floating point; floats
appear only in the Whittaker exponentials of theta_forms.theta.

The package is lazy (PEP 562): ``import theta_forms`` loads no submodule;
a public name or submodule is imported on its first use.
"""

import sys

# Each public name and its submodule: the one table __all__ and __getattr__ read.
_HOME = {name: module for module, names in {
    "scalars": "Scalar",
    "poly": "Polynomial VariableId X Xbar Y Ybar Zvar",
    "operators": "LinOp",
    "exterior": "Form WedgeGen xi xibar",
    "models": "FOCK ModelTag ORTHOGONAL Signature UNITARY calibrate_structure "
              "heisenberg_op inner_product_rel intertwine ladder_op mixed_model fock_model "
              "upq_op_model",
    "schur": "Partition Tableau delta_T enumerate_ssyt hook_content_dim is_harmonic "
             "kv_highest_weight schur_span_dim",
    "forms": "GKCochain build_km_explicit build_km_nabla build_mixed build_psi_cup "
             "build_psi_orth build_psi_q euler_chern_form evaluate_at_zero gk_curvature "
             "gk_differential k_invariance_residual restrict_form strongly_primitive_monomial",
    "theta": "BetaMatrix GramMatrix WhittakerPoint e8_gram eisenstein_check enumerate_with_norms "
             "fourier_assemble naive_rep_numbers rep_numbers sigma3 whittaker",
}.items() for name in names.split()}
_SUBMODULES = {*_HOME.values(), "serialize", "suites", "cli"}

__all__ = sorted([*_HOME, "clear_caches"])
__version__ = "0.1.0"


def __getattr__(name: str):
    from importlib import import_module
    if name in _HOME:
        return getattr(import_module(f".{_HOME[name]}", __name__), name)
    if name in _SUBMODULES:
        return import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return list(__all__)


def clear_caches() -> list:
    """Empty every functools.cache function (operators, certificates, form
    builders, the tables of d, minors) of models, forms and schur and return
    them.  A module not loaded holds nothing, so none is imported."""
    loaded = [sys.modules.get(f"{__name__}.{m}") for m in ("models", "forms", "schur")]
    caches = list(dict.fromkeys(fn for module in loaded if module is not None
                                for fn in vars(module).values() if hasattr(fn, "cache_clear")))
    for fn in caches:
        fn.cache_clear()
    return caches
