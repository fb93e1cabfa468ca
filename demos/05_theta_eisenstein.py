#!/usr/bin/env python3
"""Lattice theta arithmetic: exact vector enumeration on E8, representation
numbers against the divisor-sum side, and the Whittaker-weighted Fourier
assembly at rank one.
"""

from theta_forms import (BetaMatrix, WhittakerPoint, e8_gram,
                         eisenstein_check, enumerate_with_norms,
                         fourier_assemble, rep_numbers, whittaker)

E8 = e8_gram()
print("E8 gram: dim", E8.dim, "det", E8.determinant())
roots = [v for v, _ in enumerate_with_norms(E8, 1) if any(v)]
print("root count:", len(roots))

print("\nrepresentation numbers vs 240 sigma_3(n):")
for line in eisenstein_check(6).lines():
    print("  ", line)

print("\nWhittaker factors (literal vs classical convention):")
g = WhittakerPoint.standard(1)
for n in (0, 1, 2):
    lit = whittaker(BetaMatrix.scalar(n), g, E8.dim)
    cla = whittaker(BetaMatrix.scalar(n), g, E8.dim, convention="classical")
    print(f"  n={n}: literal={lit:.6g}  classical={cla:.6g}")

print("\nrank-one Fourier assembly with unit weights (n <= 3):")
table = fourier_assemble(E8, lambda x: 1, g, 3)
counts = rep_numbers(E8, 3)
for n in range(4):
    print(f"  n={n}: shell count {counts[n]}, coefficient {table[n]:.6g}")
