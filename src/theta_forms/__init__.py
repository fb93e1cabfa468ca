"""theta_forms: exact constructions of the special cohomology cochains of
the oscillator representation (Fock-model psi forms, Kudla-Millson Schwartz
forms, cup products, the relative Lie algebra differential) together with a
numeric lattice-theta companion.

The symbolic layer works over Q(i)[pi, 1/pi] with no floating point; floats
appear only in the Whittaker exponentials of theta_forms.theta.
"""

from .scalars import Scalar
from .poly import Polynomial, VariableId, X, Xbar, Y, Ybar, Zvar
from .operators import LinOp
from .exterior import Form, WedgeGen, xi, xibar
from .models import (FOCK, SCHRODINGER, ModelTag, ORTHOGONAL, Signature,
                     UNITARY, calibrate_structure, heisenberg_op,
                     inner_product_rel, intertwine, ladder_op, mixed_model,
                     fock_model, upq_op_model)
from .schur import (Partition, Tableau, delta_T, enumerate_ssyt,
                    hook_content_dim, is_harmonic, kv_highest_weight,
                    laplacian, schur_span_dim)
from .forms import (GKCochain, SplitSpec, build_km_explicit, build_km_nabla,
                    build_mixed, build_psi_cup, build_psi_orth, build_psi_q,
                    euler_chern_form, evaluate_at_zero,
                    gk_curvature, gk_differential, k_invariance_residual,
                    restrict_form, strongly_primitive_monomial)
from .theta import (BetaMatrix, GramMatrix, WhittakerPoint, e8_gram,
                    eisenstein_check, enumerate_with_norms,
                    fourier_assemble, naive_rep_numbers, rep_numbers, sigma3,
                    whittaker)

__version__ = "0.1.0"

