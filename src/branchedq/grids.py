"""Uniform grids for the line, the folded branched domain, and the ring.

The three grids (FoldedGrid, LineGrid, PeriodicGrid) carry nodes only:
whether the nodes sample momentum (the branched Hamiltonian) or position
(its dual wire) is up to the operator assembled on them.

The folded grid is the workhorse: it lays the three branches out on the
unfolded line with both junctions exactly on grid nodes and keeps one
shared unknown per junction (value matching is then automatic).  Arm
lengths and the inner spacing are tied so that every node of branch 2
lines up with mirror nodes across both junctions; with that alignment
the alternating-parity junction matching of the derivatives is exactly
the plain central stencil on the unfolded line.
"""

from dataclasses import dataclass

import numpy as np

from .dispersion import DispersionLaw


@dataclass(frozen=True)
class LineGrid:
    """Interior nodes of [x_min, x_max] with Dirichlet values at both ends.

    n is the number of unknowns; the end points themselves carry value 0
    and are not stored.
    """

    x_min: float
    x_max: float
    n: int

    def __post_init__(self):
        if not self.x_max > self.x_min:
            raise ValueError("x_max must exceed x_min")
        if self.n < 5:
            raise ValueError("need at least 5 interior nodes")
        if not 0.0 < self.h < np.inf:
            raise ValueError(f"grid step {self.h:g} must be finite and "
                             "nonzero")

    @property
    def h(self):
        return (self.x_max - self.x_min) / (self.n + 1)

    @property
    def x(self):
        return self.x_min + self.h * np.arange(1, self.n + 1)

    @property
    def size(self):
        return self.n


@dataclass(frozen=True)
class PeriodicGrid:
    """n equispaced nodes on a ring of circumference x_max - x_min."""

    x_min: float
    x_max: float
    n: int

    def __post_init__(self):
        if not self.x_max > self.x_min:
            raise ValueError("x_max must exceed x_min")
        if self.n < 4:
            raise ValueError("need at least 4 nodes")
        if not 0.0 < self.h < np.inf:
            raise ValueError(f"grid step {self.h:g} must be finite and "
                             "nonzero")

    @property
    def period(self):
        return self.x_max - self.x_min

    @property
    def h(self):
        return self.period / self.n

    @property
    def x(self):
        return self.x_min + self.h * np.arange(self.n)

    @property
    def size(self):
        return self.n


class FoldedGrid:
    """Three-branch folded grid with junctions exactly on grid nodes.

    Parameters
    ----------
    law : DispersionLaw
        Supplies the junction momenta q_-, q_+ (law must be branched).
    n_inner : int
        Number of grid intervals between the junctions; the spacing is
        h = (q_+ - q_-)/n_inner.
    n_arm : int
        Nodes on each outer arm counting its junction node; the Dirichlet
        boundary sits one step past the last arm node.

    Unknown layout (N = 2*n_arm + n_inner - 1 total): branch-1 arm nodes
    come first ending in the p=q_+ junction, then the branch-2 interior in
    unfolded order, then the p=q_- junction, then the branch-3 arm.
    """

    def __init__(self, law, n_inner, n_arm):
        if not isinstance(law, DispersionLaw):
            raise TypeError("law must be a DispersionLaw")
        p_minus, p_plus = law.p_minus, law.p_plus
        if not p_plus > p_minus:
            raise ValueError("folded grids require a branched law (kappa > 0)")
        if n_inner < 2:
            raise ValueError("n_inner must be at least 2")
        if n_arm < 3:
            raise ValueError("n_arm must be at least 3")

        self.n_inner = int(n_inner)
        self.n_arm = int(n_arm)
        self.h = (p_plus - p_minus) / n_inner
        self.size = 2 * self.n_arm + self.n_inner - 1

        # Index of the shared node at folded coordinate q_+ (branches 1|2)
        # and at q_- (branches 2|3).
        self.junction_plus = self.n_arm - 1
        self.junction_minus = self.n_arm + self.n_inner - 1

        u = p_minus + self.h * (np.arange(self.size) - (self.n_arm - 1))
        u[self.junction_plus] = p_minus
        u[self.junction_minus] = p_plus
        self.u = u

        p, self.branch = law.fold(u)
        p[self.junction_plus] = p_plus
        p[self.junction_minus] = p_minus
        self.p = p

    def __repr__(self):
        return (f"FoldedGrid(n_inner={self.n_inner}, n_arm={self.n_arm}, "
                f"h={self.h:.6g}, size={self.size})")
