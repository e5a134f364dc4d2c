"""Branched velocity-momentum dispersion for the quartic kinetic law.

The Lagrangian L = xdot**4/4 - (kappa/2) xdot**2 has momentum
p = xdot**3 - kappa*xdot.  For kappa > 0 this cubic is not monotone: it
folds at the cusp velocities +-v_c, v_c = sqrt(kappa/3), so the inverse
map xdot(p) has three branches,

    branch 1:  xdot <= -v_c,   p in (-inf, q_+]
    branch 2:  |xdot| <= v_c,  p in [q_-, q_+]   (orientation reversed)
    branch 3:  xdot >= +v_c,   p in [q_-, +inf)

with junction momenta q_+- = +-2 (kappa/3)**1.5.  Note the reversal: the
left cusp in velocity (xdot = -v_c) carries the right junction in momentum.
The kinetic energy E = (3/4) xdot**4 - (kappa/2) xdot**2 becomes a
multivalued function of p whose global minimum -kappa**2/12 sits at the
junctions.  For kappa <= 0 the momentum map is monotone and everything
degrades gracefully to a single branch.

kappa is the law's only parameter.  A single-valued polynomial kinetic
energy E(p) is not a dispersion law here: it is the dual problem, a
position-space wire with a polynomial kinetic stencil, assembled by
`operators.build_dual_wire_hamiltonian`.

Every momentum inversion is a view over one batched kernel,
`branch_velocities`: the trigonometric three-root form (Nickalls, Math.
Gazette 77 (1993) 354) inside the window |p| <= q_+, a polished Cardano
root outside it, and one snap rule at the junctions.  The law also
provides the fold map from a single real line with interior junction
points to the three-sheeted momentum domain.
"""

import math
import sys
from dataclasses import dataclass

import numpy as np

BRANCHES = (1, 2, 3)

# Momenta this close to a junction, relative to max(1, q_+), count as on it.
_SNAP_RTOL = 1e-12

# Largest |p| whose square is a finite float: the single root's discriminant
# p**2/4 - kappa**3/27 overflows past it.
_P_MAX = math.sqrt(sys.float_info.max)

# Column b-1 of the kernel takes root k = 3 - b of 2 v_c cos((theta - 2 pi k)/3).
_TRIG_SHIFTS = 2.0 * np.pi * np.array([2.0, 1.0, 0.0])


def _cusp(kappa):
    """(v_c, q_+) = (sqrt(kappa/3), 2 (kappa/3)**1.5), both 0 where kappa <= 0
    (q_+ also where it underflows).

    A scalar kappa stays a numpy scalar, whose ** is the libm pow; an
    array's ** may differ from it in the last bit.
    """
    third = np.maximum(kappa, 0.0) / 3.0
    return np.sqrt(third), 2.0 * third**1.5


def _polished_single_root(p, kappa):
    """Real root of v**3 - kappa*v = p in a one-real-root regime.

    Closed-form (hyperbolic-case) Cardano root followed by a few Newton
    steps to push the residual to the roundoff floor; the cube roots alone
    lose a couple of digits near the junctions.
    """
    p = np.asarray(p, dtype=float)
    if np.any(np.abs(p) > _P_MAX):
        raise ValueError(f"momentum |p| = {np.max(np.abs(p)):g} is beyond "
                         f"{_P_MAX:.4g}, where p**2 overflows")
    disc = np.sqrt(np.maximum(p * p / 4.0 - kappa**3 / 27.0, 0.0))
    v = np.cbrt(p / 2.0 + disc) + np.cbrt(p / 2.0 - disc)
    for _ in range(3):
        f = v * v * v - kappa * v - p
        fp = 3.0 * v * v - kappa
        safe = np.abs(fp) > 1e-300
        v = v - np.where(safe, f / np.where(safe, fp, 1.0), 0.0)
    return v


def branch_velocities(p, kappa):
    """Roots of v**3 - kappa*v = p per branch, shape broadcast(p, kappa) + (3,).

    Column b-1 holds the branch-b root; NaN marks a branch that does not
    carry p.  Within _SNAP_RTOL max(1, q_+) of +-q_+, on either side, the
    two branches meeting there take their roots at the junction itself
    (theta = 0 or pi: the double root -+v_c to 5 eps v_c, immune to the
    last bit of q_+).  The simple root is always the root of p.
    """
    vc, qp = _cusp(kappa)
    p = np.asarray(p, dtype=float)
    branched = qp > 0.0
    gap = np.abs(p) - qp
    near = branched & (np.abs(gap) <= _SNAP_RTOL * np.maximum(1.0, qp))
    inside = branched & (gap <= 0.0)
    # Inside entries are discarded; p = 0 keeps their Newton steps finite.
    single = _polished_single_root(np.where(inside, 0.0, p), kappa)
    # The column of the root with the sign of p holds the root of p itself.
    lead = np.where(inside, p, single)
    own = np.where(lead < 0.0, 0, np.where(lead > 0.0, 2, 1))[..., None] == np.arange(3)
    theta = np.arccos(np.clip(p / np.where(inside | near, qp, 1.0), -1.0, 1.0))
    # Near a junction the two branches that meet there are taken on it.
    theta = np.where(near[..., None] & ~own, np.arccos(np.sign(p))[..., None],
                     theta[..., None])
    trig = 2.0 * np.asarray(vc)[..., None] * np.cos((theta - _TRIG_SHIFTS) / 3.0)
    return np.where(own & ~inside[..., None], single[..., None],
                    np.where((inside | near)[..., None], trig, np.nan))


@dataclass(frozen=True)
class DispersionLaw:
    """Kinetic structure of the quartic Lagrangian.

    The law is branched when its junction momentum q_+ = 2 (kappa/3)**1.5 is
    positive, the one test of `branched`, `branch_velocities`,
    `energy_of_momentum` and `FoldedGrid`: kappa > 0, but not below about
    5.5e-216, where q_+ underflows to 0.  The window |p| <= q_+ then holds
    only p = 0, where every branch's energy is 0 in double precision.

    kappa must be finite with a finite cube (|kappa| below about 5.6e102),
    since the momentum inversion evaluates kappa**3.
    """

    kappa: float = 3.0

    def __post_init__(self):
        try:
            finite = math.isfinite(float(self.kappa) ** 3)
        except OverflowError:
            finite = False
        if not finite:
            raise ValueError(f"kappa must be finite with a finite cube, "
                             f"got {self.kappa}")

    @property
    def branched(self):
        return self.p_plus > 0.0

    # -- cusp data -----------------------------------------------------------

    @property
    def v_cusp(self):
        """Cusp velocity sqrt(kappa/3); 0 when kappa <= 0."""
        return _cusp(self.kappa)[0]

    @property
    def p_plus(self):
        """Junction momentum q_+ = p(-v_c) = 2 (kappa/3)**1.5 (0 if unbranched)."""
        return _cusp(self.kappa)[1]

    @property
    def p_minus(self):
        """Junction momentum q_- = p(+v_c) = -q_+."""
        return -self.p_plus

    @property
    def cusp_energy(self):
        """Kinetic energy at the cusps, E(+-v_c) = -kappa**2/12."""
        return -self.kappa**2 / 12.0

    # -- velocity-side maps ---------------------------------------------------

    def momentum(self, v):
        """Canonical momentum p(xdot) = xdot**3 - kappa*xdot."""
        v = np.asarray(v, dtype=float)
        return v**3 - self.kappa * v

    def energy(self, v):
        """Kinetic energy E(xdot) = (3/4) xdot**4 - (kappa/2) xdot**2."""
        v = np.asarray(v, dtype=float)
        return 0.75 * v**4 - 0.5 * self.kappa * v**2

    def branch_of_velocity(self, v):
        """Branch label for a velocity; cusps are assigned to branch 2."""
        v = np.asarray(v, dtype=float)
        vc = self.v_cusp
        return np.where(v < -vc, 1, np.where(v > vc, 3, 2))

    # -- momentum-side maps ---------------------------------------------------

    def energy_of_momentum(self, p):
        """Single-valued kinetic energy E(p) of an unbranched law.

        Branched laws are multivalued in p; use branch_energy.
        """
        p = np.asarray(p, dtype=float)
        if self.branched:
            raise ValueError(
                "energy is multivalued in p for a branched law; use branch_energy"
            )
        return self.energy(_polished_single_root(p, self.kappa))

    def branch_energy(self, p, branch):
        """Kinetic energy of momentum p on a branch, one kernel call.

        `branch` is one label or one label per momentum.  Up to the snap
        band, branch 2 exists only on [q_-, q_+], branch 1 on p <= q_+ and
        branch 3 on p >= q_-.
        """
        p, branch = np.broadcast_arrays(np.asarray(p, dtype=float),
                                        np.asarray(branch))
        if not np.isin(branch, BRANCHES).all():
            raise ValueError(f"branch must be one of {BRANCHES}, got {branch}")
        v = np.take_along_axis(branch_velocities(p, self.kappa),
                               branch[..., None] - 1, axis=-1)[..., 0]
        off = np.isnan(v)
        if off.any():
            raise ValueError(f"off-branch momentum: branch {branch[off][0]} "
                             "does not carry all requested momenta")
        return self.energy(v)

    def invert_momentum(self, p):
        """All (branch, velocity) pairs with momentum p, sorted by branch.

        The non-NaN entries of one row of `branch_velocities`, so a momentum
        within _SNAP_RTOL max(1, q_+) of a junction has three roots.
        """
        row = branch_velocities(float(p), self.kappa)
        return [(b, float(v)) for b, v in zip(BRANCHES, row) if not np.isnan(v)]

    # -- the unfolded line ---------------------------------------------------
    #
    # The three momentum sheets glued at q_- and q_+ unfold to one real line
    # u: branch 1 maps to u < q_-, branch 2 (orientation reversed) to
    # q_- <= u <= q_+, branch 3 to u > q_+.  The junction p = q_+ (branches
    # 1|2) sits at u = q_-, and p = q_- (branches 2|3) at u = q_+, so
    # distances along u are distances along the glued momentum curve.

    def fold(self, u):
        """Map an unfolded coordinate to (momentum, branch)."""
        u = np.asarray(u, dtype=float)
        p_minus, p_plus = self.p_minus, self.p_plus
        # q_- and q_+ open branches 2 and 3
        branch = np.where(u < p_minus, 1, np.where(u < p_plus, 2, 3))
        width = p_plus - p_minus
        folded = np.where(branch == 1, u + width,
                          np.where(branch == 2, p_plus + p_minus - u,
                                   u - width))
        if u.ndim == 0:
            return float(folded), int(branch)
        return folded, branch


def velocity_sweep(law, v_min, v_max, num):
    """Tabulate (xdot, p, E, branch) along a velocity interval.

    Returns a dict of aligned arrays tracing the characteristic swallowtail
    (p, E) curve; the branch column back-tracks through the overlap window
    exactly as the fold requires.
    """
    v = np.linspace(v_min, v_max, num)
    return {
        "xdot": v,
        "p": law.momentum(v),
        "E": law.energy(v),
        "branch": law.branch_of_velocity(v),
    }
