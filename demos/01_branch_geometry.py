"""Tour of the multivalued velocity-momentum map.

With kinetic term xdot**4/4 - (kappa/2) xdot**2 the momentum
p = xdot**3 - kappa*xdot is a cubic in the velocity, so inverting it
gives one or three real velocities depending on where p sits relative
to the junction values +-2(kappa/3)**1.5.  This script prints the cusp
data, walks the three-branch inversion across that window, and shows
the fold map that later turns the three branches into a single grid.
"""

import numpy as np

from branchedq import DispersionLaw

law = DispersionLaw(kappa=3.0)

print("kappa = 3 dispersion")
print(f"  cusp velocities  : {-law.v_cusp:+.3f}, {law.v_cusp:+.3f}")
print(f"  junction momenta : {law.p_minus:+.3f}, {law.p_plus:+.3f}")
print(f"  cusp energy      : {law.cusp_energy:+.4f}")
print()

print(" p      roots (branch: xdot)")
for p in (-4.0, -2.0, -0.5, 0.0, 0.5, 2.0, 4.0):
    roots = law.invert_momentum(p)
    txt = ", ".join(f"{b}: {v:+.4f}" for b, v in roots)
    print(f"{p:+5.1f}   {txt}")
print()

# The folded coordinate: each point u of a single line maps to one
# (branch, momentum) pair, with the junctions at u = q_- and u = q_+.
print(" u      p      branch")
for u in np.linspace(-5.0, 5.0, 11):
    p, branch = law.fold(u)
    print(f"{u:+5.1f}  {p:+5.2f}     {branch}")

print()
print("energy along each branch at p = 0:")
for branch, xdot in law.invert_momentum(0.0):
    print(f"  branch {branch}: xdot = {xdot:+.4f}, "
          f"E = {law.energy(xdot):+.4f}")
