"""Quantize the branched system on the folded momentum line.

The three momentum branches are glued at the junction momenta into one
line, and the kinetic energy becomes a multivalued potential along it.
A quadratic position potential turns into a second derivative in p, and
the junction rows use mirrored one-sided closures so the assembled
matrix is exactly Hermitian.  The same physics assembled on a plain
unfolded line must give the same spectrum; this script checks that and
prints how the low eigenstates distribute their weight across branches.
"""

import numpy as np

from branchedq import (DispersionLaw, FoldedGrid, LineGrid, QuadraticPotential,
                       build_folded_hamiltonian, build_unfolded_hamiltonian,
                       hermiticity_defect, solve_eigensystem)

law = DispersionLaw(kappa=3.0)
grid = FoldedGrid(law, 80, 120)
well = QuadraticPotential(1.0)

op = build_folded_hamiltonian(law, grid, well)
print(f"folded grid: {grid.size} nodes, h = {grid.h:.4f}")
print(f"hermiticity defect: {hermiticity_defect(op.matrix):.2e}")

res = solve_eigensystem(op, k=6)

line = LineGrid(grid.u[0] - grid.h, grid.u[-1] + grid.h, grid.size)
res_u = solve_eigensystem(build_unfolded_hamiltonian(law, line, well), k=6)

print()
print(" n   E(folded)      E(unfolded)    |diff|")
for n in range(6):
    e_f = res.eigenvalues[n]
    e_u = res_u.eigenvalues[n]
    print(f" {n}   {e_f:+.8f}   {e_u:+.8f}   {abs(e_f - e_u):.1e}")

print()
print("branch weight of each eigenstate (fraction of total density):")
print(" n   outer-left   middle   outer-right")
for n in range(6):
    psi = res.eigenvectors[:, n]
    rho = np.abs(psi) ** 2
    total = rho.sum()
    weights = [rho[grid.branch == b].sum() / total for b in (1, 2, 3)]
    print(" {}   {:10.4f}   {:6.4f}   {:11.4f}".format(n, *weights))
