#!/usr/bin/env python3
"""Construct the special Fock forms and check their headline identities:
closedness under the relative differential, cup-product compatibility,
K-invariance, and the non-vanishing of the minimal K-type coefficient.
"""

from theta_forms import (Signature, build_psi_cup, build_psi_q,
                         gk_differential, k_invariance_residual,
                         strongly_primitive_monomial)
from theta_forms.forms import cup_product, cup_sign
from theta_forms.serialize import cochain_to_latex

sig = Signature(2, 1, 1, 0)
psi = build_psi_q(sig)
print("psi at (p,q) = (2,1):")
print("  ", cochain_to_latex(psi))
print("  d psi =", gk_differential(psi).form)

sig2 = Signature(2, 1, 2, 0)
cup = build_psi_cup(sig2)
print("\ncup product of two columns at (2,1):")
print("  ", cochain_to_latex(cup))
print("  d =", gk_differential(cup).form)
print("  K-invariance residual:", k_invariance_residual(cup))

prod = cup_product(build_psi_cup(sig), build_psi_cup(sig))
sign = cup_sign(sig, sig)
print("\nwedge of two one-column forms equals the two-column form:",
      prod.form == build_psi_cup(sig2).form.scale(sign))

mono = strongly_primitive_monomial(sig2)
print("\nminimal K-type wedge coefficient (a determinant):")
print("  ", cup.form.coefficient(mono))

too_many = build_psi_cup(Signature(2, 1, 3, 0))
print("\nthree columns on a two-row space vanish:", too_many.form.is_zero())
