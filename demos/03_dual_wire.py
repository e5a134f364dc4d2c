"""Swap the roles of position and momentum on a wire network.

Read the other way around, a polynomial position potential becomes the
kinetic symbol of a differential operator in x and the old kinetic
branches become an ordinary multiplication.  Two sanity anchors make
the construction credible: a p**2/2 + x**2/2 wire reproduces the
oscillator ladder n + 1/2, and a pure p**4 kinetic in a clamped box on
[0, pi] reproduces n**4.  The same builder applied on the folded grid
agrees with the direct branched assembly matrix entry for entry.
"""

import numpy as np

from branchedq import (DispersionLaw, FoldedGrid, LineGrid, QuadraticPotential,
                       StencilSymbol, build_dual_wire_hamiltonian,
                       build_folded_hamiltonian, solve_eigensystem)

grid = LineGrid(-10.0, 10.0, 2000)
osc = build_dual_wire_hamiltonian(StencilSymbol(0, 0, 0.5, 0),
                                  QuadraticPotential(1.0), grid, accuracy=4)
levels = solve_eigensystem(osc, k=5).eigenvalues
print("oscillator wire, p^2/2 + x^2/2:")
print(" n   E            E - (n + 1/2)")
for n, e in enumerate(levels):
    print(f" {n}   {e:.8f}   {e - n - 0.5:+.2e}")

box = LineGrid(0.0, np.pi, 2000)
quartic = build_dual_wire_hamiltonian(StencilSymbol(1, 0, 0, 0),
                                      None, box)
levels4 = solve_eigensystem(quartic, k=5).eigenvalues
print()
print("clamped box on [0, pi] with p^4 kinetic:")
print(" n   E              n^4      rel. error")
for n, e in enumerate(levels4, start=1):
    print(f" {n}   {e:12.4f}   {n ** 4:5d}   {abs(e - n ** 4) / n ** 4:.2e}")

# On the folded grid the dual assembly and the direct branched assembly
# are the same matrix, not merely similar.
law = DispersionLaw(kappa=3.0)
fg = FoldedGrid(law, 40, 60)
direct = build_folded_hamiltonian(law, fg, QuadraticPotential(0.7))
dual = build_dual_wire_hamiltonian(StencilSymbol.from_quadratic_potential(0.7),
                                   law, fg)
print()
print("folded dual-wire vs direct branched assembly:",
      "identical" if np.array_equal(direct.matrix.toarray(), dual.matrix.toarray())
      else "DIFFER")
