#!/usr/bin/env python3
"""The Schwartz-form constructions: creation-operator products against the
explicit antisymmetrized expansion, the value at the origin, and the
restriction that peels off a positive-definite row.
"""

from theta_forms import (Signature, build_km_explicit, build_km_nabla,
                         euler_chern_form, evaluate_at_zero, restrict_form)
from theta_forms.forms import forms_proportional
from theta_forms.serialize import cochain_to_latex

sig = Signature(1, 1, 1, 1)
nabla = build_km_nabla(sig)
explicit = build_km_explicit(sig)
print("nabla construction at (1,1,1):")
print("  ", cochain_to_latex(nabla))
print("explicit expansion equals it exactly:", nabla.form == explicit.form)

at0 = evaluate_at_zero(nabla)
ratio = forms_proportional(at0, euler_chern_form(sig))
print("\nvalue at the origin is proportional to the Chern form, ratio:", ratio)

sig2 = Signature(2, 1, 1, 1)
big = build_km_nabla(sig2)
down = restrict_form(big, 1)
small = build_km_nabla(Signature(1, 1, 1, 1))
print("\nrestriction (2,1) -> (1,1) reproduces the smaller form:",
      down.form == small.form)

orth = Signature(3, 3, 1, 0, "orthogonal")
print("\northogonal form at odd q vanishes at the origin:",
      evaluate_at_zero(build_km_nabla(orth)).is_zero())
orth2 = Signature(2, 2, 1, 0, "orthogonal")
r2 = forms_proportional(evaluate_at_zero(build_km_nabla(orth2)),
                        euler_chern_form(orth2))
print("orthogonal form at even q is proportional to the Euler form, ratio:", r2)
