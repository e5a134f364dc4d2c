"""Propagate a Gaussian packet on the folded branched line.

Crank-Nicolson preserves the norm and the energy expectation of the
discrete Hamiltonian to roundoff regardless of the step, so the quality
signals worth watching are the junction flux residuals (how well the
paired-branch currents cancel at the gluing points) and the discrete
continuity defect away from them.  The packet starts in an outer arm
with a small boost toward the junction.
"""

import numpy as np

from branchedq import (DispersionLaw, FoldedGrid, QuadraticPotential,
                       build_folded_hamiltonian, gaussian_packet,
                       probability_current, propagate)

law = DispersionLaw(kappa=3.0)
grid = FoldedGrid(law, 40, 140)
op = build_folded_hamiltonian(law, grid, QuadraticPotential(1.0))
psi0 = gaussian_packet(grid, -10.0, 1.0, boost=0.5)

final, report = propagate(op, psi0, 1e-3, 1000)

print("1000 Crank-Nicolson steps, dt = 1e-3:")
print(f"  norm drift          {report.norm_drift:.2e}")
print(f"  max flux residual   {report.max_flux_residual:.2e}")
print()
print(" time    norm - 1      energy        flux residual")
for k in range(0, report.times.size, 250):
    flux = np.max(np.abs(report.flux_residuals[k]))
    print(f" {report.times[k]:5.3f}   {report.norms[k] - 1.0:+.2e}   "
          f"{report.energies[k]:+.8f}   {flux:.2e}")

print()
print("density and current of the final state at a few nodes:")
j = probability_current(final, grid.h, op.symbol)
rho = np.abs(final) ** 2
print(" u        branch   rho          j")
for i in range(10, grid.size, 64):
    print(f" {grid.u[i]:+7.2f}      {grid.branch[i]}   "
          f"{rho[i]:.3e}   {j[i]:+.3e}")
