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

A dispersion law can instead be given directly as a single-valued quartic
kinetic symbol E(p) = c4 p**4 + c3 p**3 + c2 p**2 + c1 p (``coefficients``
mode); that form has no branch structure and is what the ordinary-line
oracle problems use.

This module provides the dispersion law, exact branchwise inversion of the
momentum cubic, and the fold/unfold maps between the three-sheeted momentum
domain and a single real line with interior junction points.
"""

from dataclasses import dataclass

import numpy as np

from .errors import UnbranchedDispersionError

BRANCHES = (1, 2, 3)

# Root index k such that 2*v_c*cos((theta - 2*pi*k)/3) lands on the branch.
_TRIG_ROOT_INDEX = {3: 0, 2: 1, 1: 2}

# Momenta this close to a junction, relative to max(1, q_+), count as on it.
_SNAP_RTOL = 1e-12


def _polished_single_root(p, kappa):
    """Real root of v**3 - kappa*v = p in a one-real-root regime.

    Closed-form (hyperbolic-case) Cardano root followed by a few Newton
    steps to push the residual to the roundoff floor; the cube roots alone
    lose a couple of digits near the junctions.
    """
    p = np.asarray(p, dtype=float)
    disc = np.sqrt(np.maximum(p * p / 4.0 - kappa**3 / 27.0, 0.0))
    v = np.cbrt(p / 2.0 + disc) + np.cbrt(p / 2.0 - disc)
    for _ in range(3):
        f = v * v * v - kappa * v - p
        fp = 3.0 * v * v - kappa
        safe = np.abs(fp) > 1e-300
        v = v - np.where(safe, f / np.where(safe, fp, 1.0), 0.0)
    return v


@dataclass(frozen=True)
class CuspData:
    """Cusp structure of a branched law: velocities and junction momenta."""

    xdot_minus: float
    xdot_plus: float
    p_minus: float
    p_plus: float
    energy: float


@dataclass(frozen=True)
class DispersionLaw:
    """Kinetic structure of the classical system.

    Two modes:

    * cubic-momentum (default): the quartic Lagrangian above, parameterized
      by ``kappa``; branched for kappa > 0.
    * general-quartic: ``coefficients = (c4, c3, c2, c1)`` gives the kinetic
      symbol E(p) = c4 p**4 + c3 p**3 + c2 p**2 + c1 p directly, single
      valued in p.
    """

    kappa: float = 3.0
    coefficients: tuple = None

    @property
    def branched(self):
        return self.coefficients is None and self.kappa > 0.0

    def _require_cubic(self):
        if self.coefficients is not None:
            raise ValueError(
                "operation requires cubic-momentum mode, not a general-quartic symbol"
            )

    # -- cusp data -----------------------------------------------------------

    @property
    def v_cusp(self):
        """Cusp velocity sqrt(kappa/3); 0 when the law is unbranched."""
        return np.sqrt(max(self.kappa, 0.0) / 3.0) if self.coefficients is None else 0.0

    @property
    def p_plus(self):
        """Junction momentum q_+ = p(-v_c) = 2 (kappa/3)**1.5 (0 if unbranched)."""
        if self.coefficients is not None or self.kappa <= 0.0:
            return 0.0
        return 2.0 * (self.kappa / 3.0) ** 1.5

    @property
    def p_minus(self):
        """Junction momentum q_- = p(+v_c) = -q_+."""
        return -self.p_plus

    @property
    def cusp_energy(self):
        """Kinetic energy at the cusps, E(+-v_c) = -kappa**2/12."""
        self._require_cubic()
        return -self.kappa**2 / 12.0

    def cusp_points(self):
        self._require_cubic()
        if not self.kappa > 0.0:
            raise UnbranchedDispersionError(
                f"unbranched dispersion: kappa = {self.kappa} <= 0 has a "
                "monotone momentum map and no cusps"
            )
        return CuspData(-self.v_cusp, self.v_cusp, self.p_minus, self.p_plus,
                        self.cusp_energy)

    # -- velocity-side maps ---------------------------------------------------

    def momentum(self, v):
        """Canonical momentum p(xdot) = xdot**3 - kappa*xdot."""
        self._require_cubic()
        v = np.asarray(v, dtype=float)
        return v**3 - self.kappa * v

    def energy(self, v):
        """Kinetic energy E(xdot) = (3/4) xdot**4 - (kappa/2) xdot**2."""
        self._require_cubic()
        v = np.asarray(v, dtype=float)
        return 0.75 * v**4 - 0.5 * self.kappa * v**2

    def hessian(self, v):
        """Velocity Hessian of the Lagrangian, 3*xdot**2 - kappa."""
        self._require_cubic()
        v = np.asarray(v, dtype=float)
        return 3.0 * v * v - self.kappa

    def branch_of_velocity(self, v):
        """Branch label for a velocity; cusps are assigned to branch 2."""
        self._require_cubic()
        v = np.asarray(v, dtype=float)
        vc = self.v_cusp
        return np.where(v < -vc, 1, np.where(v > vc, 3, 2))

    # -- momentum-side maps ---------------------------------------------------

    def energy_of_momentum(self, p):
        """Single-valued kinetic energy E(p).

        Defined for the general-quartic mode and for unbranched (kappa <= 0)
        cubic laws; branched laws are multivalued in p, use branch_energy.
        """
        p = np.asarray(p, dtype=float)
        if self.coefficients is not None:
            c4, c3, c2, c1 = self.coefficients
            return ((c4 * p + c3) * p + c2) * p * p + c1 * p
        if self.kappa > 0.0:
            raise ValueError(
                "energy is multivalued in p for a branched law; use branch_energy"
            )
        return self.energy(_polished_single_root(p, self.kappa))

    def branch_velocity(self, p, branch):
        """Velocity xdot on a given branch as a function of momentum.

        Inside the overlap window |p| <= q_+ all three roots of the momentum
        cubic are real and the trigonometric root formula assigns them to
        branches exactly (no sorting step, so branch identity is stable
        through the junctions, where two roots collide).  Outside the window
        only the outer branch of matching sign exists.
        """
        self._require_cubic()
        if branch not in BRANCHES:
            raise ValueError(f"branch must be one of {BRANCHES}, got {branch}")
        p = np.asarray(p, dtype=float)
        scalar = p.ndim == 0
        p = np.atleast_1d(p)

        if not self.kappa > 0.0:
            v = _polished_single_root(p, self.kappa)
            labels = self.branch_of_velocity(v)
            if np.any(labels != branch):
                raise ValueError(
                    f"off-branch momentum: branch {branch} does not carry all "
                    "requested momenta for this unbranched law"
                )
            return v[0] if scalar else v

        out = np.empty_like(p)
        inside = np.abs(p) <= self.p_plus
        if inside.any():
            theta = np.arccos(np.clip(p[inside] / self.p_plus, -1.0, 1.0))
            k = _TRIG_ROOT_INDEX[branch]
            out[inside] = 2.0 * self.v_cusp * np.cos((theta - 2.0 * np.pi * k) / 3.0)

        outside = ~inside
        if outside.any():
            po = p[outside]
            if branch == 2:
                raise ValueError(
                    "off-branch momentum: branch 2 exists only on [q_-, q_+], "
                    f"got |p| up to {np.abs(po).max():.6g} > {self.p_plus:.6g}"
                )
            if branch == 1 and (po > 0).any():
                raise ValueError("off-branch momentum: branch 1 requires p <= q_+")
            if branch == 3 and (po < 0).any():
                raise ValueError("off-branch momentum: branch 3 requires p >= q_-")
            out[outside] = _polished_single_root(po, self.kappa)

        return out[0] if scalar else out

    def branch_energy(self, p, branch):
        """Kinetic energy as a function of momentum on a given branch."""
        return self.energy(self.branch_velocity(p, branch))

    def invert_momentum(self, p):
        """All (branch, velocity) pairs with momentum p, sorted by branch.

        Momenta within 1e-12 max(1, q_+) of a junction are snapped onto it
        and the double root is reported exactly: +-v_c on the two branches
        that meet there plus the far simple root -+2 v_c on the remaining
        branch, from the factorization (v -+ v_c)**2 (v +- 2 v_c).
        """
        self._require_cubic()
        p = float(p)
        snap_tol = _SNAP_RTOL * max(1.0, self.p_plus)
        if not self.kappa > 0.0:
            v = float(_polished_single_root(p, self.kappa))
            return [(int(self.branch_of_velocity(v)), v)]
        vc = self.v_cusp
        if abs(p - self.p_plus) <= snap_tol:
            return [(1, -vc), (2, -vc), (3, 2.0 * vc)]
        if abs(p - self.p_minus) <= snap_tol:
            return [(1, -2.0 * vc), (2, vc), (3, vc)]
        if p > self.p_plus:
            return [(3, float(self.branch_velocity(p, 3)))]
        if p < self.p_minus:
            return [(1, float(self.branch_velocity(p, 1)))]
        return [(b, float(self.branch_velocity(p, b))) for b in BRANCHES]

    def domain(self):
        """Folded momentum domain with this law's junction points."""
        return BranchedDomain(self.p_minus, self.p_plus)


@dataclass(frozen=True)
class BranchedDomain:
    """Three momentum sheets glued at q_- and q_+, unfolded to one line.

    The unfolded coordinate u runs over the whole real line; branch 1 maps
    to u < q_-, branch 2 (orientation reversed) to q_- <= u <= q_+, branch 3
    to u > q_+.  The junction p = q_+ (branches 1|2) sits at u = q_-, and
    p = q_- (branches 2|3) at u = q_+, so distances along u are distances
    along the glued momentum curve.
    """

    p_minus: float
    p_plus: float

    def unfold(self, q, branch):
        q = np.asarray(q, dtype=float)
        width = self.p_plus - self.p_minus
        if branch == 1:
            if np.any(q > self.p_plus + 1e-12 * max(1.0, width)):
                raise ValueError("off-branch coordinate: branch 1 requires q <= q_+")
            return q - self.p_plus + self.p_minus
        if branch == 2:
            tol = 1e-12 * max(1.0, width)
            if np.any(q > self.p_plus + tol) or np.any(q < self.p_minus - tol):
                raise ValueError("off-branch coordinate: branch 2 requires q in [q_-, q_+]")
            return self.p_plus + self.p_minus - q
        if branch == 3:
            if np.any(q < self.p_minus - 1e-12 * max(1.0, width)):
                raise ValueError("off-branch coordinate: branch 3 requires q >= q_-")
            return q + self.p_plus - self.p_minus
        raise ValueError(f"branch must be one of {BRANCHES}, got {branch}")

    def fold(self, u):
        """Map an unfolded coordinate back to (folded coordinate, branch)."""
        u = np.asarray(u, dtype=float)
        branch = self.branch_of_unfolded(u)
        width = self.p_plus - self.p_minus
        folded = np.where(branch == 1, u + width,
                          np.where(branch == 2, self.p_plus + self.p_minus - u,
                                   u - width))
        if u.ndim == 0:
            return float(folded), int(branch)
        return folded, branch

    def branch_of_unfolded(self, u):
        u = np.asarray(u, dtype=float)
        return np.where(u < self.p_minus, 1, np.where(u < self.p_plus, 2, 3))


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
