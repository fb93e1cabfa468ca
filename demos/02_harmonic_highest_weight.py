#!/usr/bin/env python3
"""Semistandard tableaux, determinant polynomials, and harmonic
highest-weight vectors.

Enumerates tableaux against the hook-content count, builds the minor
products attached to partitions, and checks harmonicity and the diagonal
weights of the resulting vectors.
"""

from theta_forms import (FOCK, Partition, Signature, Tableau, delta_T,
                         enumerate_ssyt, hook_content_dim, is_harmonic,
                         kv_highest_weight, laplacian, schur_span_dim,
                         upq_op_model)

shape = Partition((2, 1))
tabs = enumerate_ssyt(shape, 3)
print(f"SSYT of shape {shape.parts} with entries <= 3: {len(tabs)} "
      f"(hook-content oracle: {hook_content_dim(shape, 3)})")
for t in tabs[:4]:
    print("  ", t.rows)

sig = Signature(3, 2, 3, 0)
print("\nspan rank of the minor polynomials:",
      schur_span_dim(shape, Signature(3, 0, 2, 0)))

print("\nminor products:")
T = Tableau(Partition((1, 1)), ((1,), (2,)))
print("  Delta_(col 1,2)(X) =", delta_T(T, sig, "x"))
U = Tableau(Partition((1,)), ((1,),))
print("  tilde-Delta_(box 1)(Y) =", delta_T(U, sig, "y_tilde"))

lam, mu = Partition((2, 1)), Partition((1,))
vec = kv_highest_weight(lam, mu, sig)
print(f"\nhighest-weight vector for lambda={lam.parts}, mu={mu.parts}:")
print("  ", vec)
print("  harmonic:", is_harmonic(vec, sig))
print("  Delta_11 applied:", laplacian(1, 1, sig).apply(vec))

print("\ndiagonal k-operator eigenvalues:")
for a in range(1, sig.p + 1):
    out = upq_op_model(sig, FOCK, "k_gl_p", a, a).apply(vec)
    ratio = "0" if vec.is_zero() else next(iter(out.terms.values()), None)
    print(f"  k_gl_p({a},{a}):", ratio)
for b in range(1, sig.q + 1):
    out = upq_op_model(sig, FOCK, "k_gl_q", b, b).apply(vec)
    print(f"  k_gl_q({b},{b}):", next(iter(out.terms.values()), None))
