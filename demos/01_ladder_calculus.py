#!/usr/bin/env python3
"""Walk through the oscillator ladder calculus.

Builds the creation/annihilation operators in their gaussian-conjugated
form, checks the canonical commutators, sends Fock monomials through the
intertwiner, and prints a few relative inner products.
"""

from theta_forms import (Polynomial, Scalar, Zvar, inner_product_rel,
                         intertwine, ladder_op)

N = 2
one = Polynomial.one()

print("== ladder relations (exact operator identities) ==")
ap = ladder_op("Aplus", 1, N)
am = ladder_op("Aminus", 1, N)
print("  [A1+, A1-] =", ap.commutator(am))
print("  A1+ vacuum =", ap.apply(one))
h = ladder_op("H", 1, N)
print("  H1 vacuum  =", h.apply(one))
assert h.commutator(ap) == ap.scale(Scalar.of(8, 0, 1))

print("\n== intertwiner: Fock monomials to polynomial-times-gaussian ==")
z1 = Polynomial.variable(Zvar(1))
z2 = Polynomial.variable(Zvar(2))
for name, mono in [("1", one), ("z1", z1), ("z1^2", z1 ** 2), ("z1 z2", z1 * z2)]:
    print(f"  T({name}) = {intertwine(mono, N)!r} * gaussian")

print("\n== orthogonality of the ladder-generated states ==")
def state(m1, m2):
    p = one
    for _ in range(m1):
        p = ladder_op("Aminus", 1, N).apply(p)
    for _ in range(m2):
        p = ladder_op("Aminus", 2, N).apply(p)
    return p

for a in [(0, 0), (1, 0), (2, 0), (1, 1)]:
    for b in [(0, 0), (1, 0), (0, 1)]:
        ip = inner_product_rel(state(*a), state(*b))
        print(f"  <phi_{a}, phi_{b}>_rel = {ip!r}")
