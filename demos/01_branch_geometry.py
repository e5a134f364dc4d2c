"""Tour of the multivalued velocity-momentum map.

With kinetic term xdot**4/4 - (kappa/2) xdot**2 the momentum
p = xdot**3 - kappa*xdot is a cubic in the velocity, so inverting it
gives one or three real velocities depending on where p sits relative
to the junction values +-2(kappa/3)**1.5.  This script prints the cusp
data, walks the three-branch inversion across that window, and shows
the fold/unfold coordinate pair that later turns the three branches
into a single grid.
"""

import numpy as np

from branchedq import DispersionLaw

law = DispersionLaw(kappa=3.0)
cusp = law.cusp_points()

print("kappa = 3 dispersion")
print(f"  cusp velocities  : {cusp.xdot_minus:+.3f}, {cusp.xdot_plus:+.3f}")
print(f"  junction momenta : {cusp.p_minus:+.3f}, {cusp.p_plus:+.3f}")
print(f"  cusp energy      : {cusp.energy:+.4f}")
print()

print(" p      roots (branch: xdot)")
for p in (-4.0, -2.0, -0.5, 0.0, 0.5, 2.0, 4.0):
    roots = law.invert_momentum(p)
    txt = ", ".join(f"{b}: {v:+.4f}" for b, v in roots)
    print(f"{p:+5.1f}   {txt}")
print()

# Round trip through the folded coordinate: each (branch, momentum)
# pair maps to a unique point u on a single line and back.
dom = law.domain()
print(" u      p      branch   (fold of unfold)")
for u in np.linspace(-5.0, 5.0, 11):
    p, branch = dom.fold(u)
    u_back = dom.unfold(p, branch)
    assert abs(u_back - u) < 1e-12
    print(f"{u:+5.1f}  {p:+5.2f}     {branch}")

print()
print("energy along each branch at p = 0:")
for branch, xdot in law.invert_momentum(0.0):
    print(f"  branch {branch}: xdot = {xdot:+.4f}, "
          f"E = {law.energy(xdot):+.4f}")
