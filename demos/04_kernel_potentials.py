"""Potentials that act by convolution in the momentum representation.

A potential V(x) enters the momentum-side problem through its Fourier
transform, sampled at grid offsets into a Toeplitz matrix.  The naive
quadrature of exp(-iqx) V(x) is only Hermitian when V is symmetric; the
hermitian mode splits the kernel so the assembly is Hermitian for any
V.  On a periodic ring the convolution matrix is circulant, and its
spectrum must match the position-side operator obtained by a discrete
Fourier transform of the whole problem.
"""

import numpy as np

from branchedq import (DispersionLaw, GaussianPotential, LineGrid,
                       PeriodicGrid, build_convolution_hamiltonian,
                       build_convolution_potential,
                       fourier_conjugate_hamiltonian, hermiticity_defect,
                       solve_eigensystem)

grid = LineGrid(-20.0, 20.0, 400)
law = DispersionLaw(kappa=3.0)

print("kernel assembly of an asymmetric Gaussian potential:")
bump = GaussianPotential(2.0, 1.0, 1.5)
for mode in ("naive", "hermitian"):
    M = build_convolution_potential(bump, grid, mode=mode, domain=law)
    print(f"  {mode:9s} mode: hermiticity defect {hermiticity_defect(M.matrix):.2e}")

print()
print("centered Gaussian: both modes give the same real kernel:")
sym = GaussianPotential(2.0, 1.0, 0.0)
naive = build_convolution_potential(sym, grid, mode="naive", domain=law)
herm = build_convolution_potential(sym, grid, mode="hermitian")
gap = np.max(np.abs(naive.matrix - herm.matrix))
print(f"  entrywise gap {gap:.2e} (matrix scale {np.max(np.abs(herm.matrix)):.2e})")

ring = PeriodicGrid(-16.0, 16.0, 128)
momentum_side = build_convolution_hamiltonian(law, sym, ring)
position_side = fourier_conjugate_hamiltonian(law, sym, ring)
w_m = solve_eigensystem(momentum_side, k=8).eigenvalues
w_p = solve_eigensystem(position_side, k=8).eigenvalues

print()
print("periodic ring, convolution vs position-side conjugate spectra:")
print(" n   E(convolution)   E(conjugate)     |diff|")
for n in range(8):
    print(f" {n}   {w_m[n]:+.10f}    {w_p[n]:+.10f}   {abs(w_m[n] - w_p[n]):.1e}")
