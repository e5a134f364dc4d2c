"""Unitary time evolution and probability-current diagnostics.

Propagation is Crank-Nicolson: (1 + i dt H/2) psi' = (1 - i dt H/2) psi,
exactly norm-preserving for Hermitian H.  The discrete density balance it
implies is

    (rho' - rho)/dt = 2 Im(conj(psi_avg) (H psi_avg))   per node,

with psi_avg the step midpoint, so the continuity defect against the
divergence of the discrete current is purely spatial (second order in h,
independent of dt).

The current associated with the stencil symbol
c4 d^4 + i c3 d^3 - c2 d^2 - i c1 d along the unfolded coordinate is

    j = -2 c4 [Im(conj(psi) psi''') - Im(conj(psi') psi'')]
        - c3 [2 Re(conj(psi) psi'') - |psi'|^2]
        + 2 c2 Im(conj(psi) psi') + c1 |psi|^2,

which a plane wave e^{iku} carries at the group value
4 c4 k^3 + 3 c3 k^2 + 2 c2 k + c1.  At a junction the one-sided currents
evaluated from the two meeting branches must agree; their mismatch is the
junction flux residual.
"""

from dataclasses import dataclass, field
from functools import partial

import numpy as np
import scipy.sparse
from scipy.linalg import lu_factor, lu_solve
from scipy.sparse.linalg import splu

from .grids import FoldedGrid
from .operators import OperatorMatrix, as_matrix, gershgorin_bound


def _grid_axis(grid):
    return grid.u if isinstance(grid, FoldedGrid) else grid.x


@dataclass
class MultiWave:
    """A wave function sampled on a grid, with its clock."""

    grid: object
    data: np.ndarray = field(repr=False)
    time: float = 0.0

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=complex)
        if self.data.shape != (self.grid.size,):
            raise ValueError("data must hold one value per grid node")

    @classmethod
    def gaussian(cls, grid, center, width, boost=0.0):
        """Normalized Gaussian packet exp(-(u-c)^2/(4 w^2) + i k u)."""
        if not width > 0.0:
            raise ValueError("packet width must be positive")
        u = _grid_axis(grid)
        data = np.exp(-((u - center) ** 2) / (4.0 * width**2) + 1j * boost * u)
        wave = cls(grid, data)
        norm = wave.norm()
        if not 0.0 < norm < np.inf:
            raise ValueError(f"packet norm on the grid is {norm:.3g}; "
                             "move the center onto the grid or widen it")
        wave.data /= norm
        return wave

    def norm(self):
        return float(np.sqrt(self.grid.h * np.sum(np.abs(self.data) ** 2)))

    def energy(self, op):
        H = as_matrix(op)
        num = np.real(np.vdot(self.data, H @ self.data))
        return float(num / np.vdot(self.data, self.data).real)

    def copy(self):
        return MultiWave(self.grid, self.data.copy(), self.time)


@dataclass
class EvolutionReport:
    """Per-step unitarity and flux bookkeeping from propagate()."""

    times: np.ndarray
    norms: np.ndarray
    energies: np.ndarray
    flux_residuals: np.ndarray = field(repr=False, default=None)
    snapshots: list = field(repr=False, default_factory=list)
    wave: MultiWave = None

    @property
    def norm_drift(self):
        return float(np.max(np.abs(self.norms - self.norms[0])))

    @property
    def max_flux_residual(self):
        if self.flux_residuals is None or self.flux_residuals.size == 0:
            return 0.0
        return float(np.max(np.abs(self.flux_residuals)))


def propagate(op, wave, dt, steps, snapshot_every=None, stability_budget=0.5):
    """Crank-Nicolson evolution for `steps` steps of size dt.

    The scheme is unconditionally stable, but large dt * ||H|| trades
    accuracy for nothing; by default propagation refuses when the
    Gershgorin bound times dt exceeds `stability_budget` (set None to
    disable the guard).  Junction flux residuals are tracked on folded
    grids when the operator carries a stencil symbol.

    I + i dt H/2 is factored once: by sparse LU (splu) when H is stored
    sparse, by dense LAPACK LU otherwise.

    Returns (final MultiWave, EvolutionReport); the input wave is not
    modified.
    """
    H = as_matrix(op)
    if steps < 1:
        raise ValueError("steps must be positive")
    if stability_budget is not None:
        budget = dt * gershgorin_bound(op)
        if budget > stability_budget:
            raise ValueError(
                f"dt * gershgorin = {budget:.3g} exceeds the accuracy budget "
                f"{stability_budget}; refine dt or raise the budget")

    n = H.shape[0]
    symbol = op.symbol if isinstance(op, OperatorMatrix) else None
    grid = wave.grid
    track_flux = isinstance(grid, FoldedGrid) and symbol is not None

    sparse = scipy.sparse.issparse(H)
    one = (scipy.sparse.diags_array(np.ones(n, dtype=complex), format="csr")
           if sparse else np.eye(n, dtype=complex))
    A = one + 0.5j * dt * H
    B = one - 0.5j * dt * H
    solve = splu(A.tocsc()).solve if sparse else partial(lu_solve, lu_factor(A))

    psi = wave.data.copy()
    t0 = wave.time
    times = t0 + dt * np.arange(steps + 1)
    norms = np.empty(steps + 1)
    energies = np.empty(steps + 1)
    flux = np.empty((steps + 1, 2)) if track_flux else None

    def record(k, v):
        norms[k] = np.sqrt(grid.h * np.sum(np.abs(v) ** 2))
        num = np.real(np.vdot(v, H @ v))
        energies[k] = num / np.vdot(v, v).real
        if track_flux:
            flux[k] = junction_flux_residual(v, grid, symbol)

    snapshots = []

    def snap(k, v):
        if snapshot_every is not None and (k % snapshot_every == 0 or k == steps):
            snapshots.append(MultiWave(grid, v.copy(), times[k]))

    record(0, psi)
    snap(0, psi)
    for k in range(1, steps + 1):
        psi = solve(B @ psi)
        record(k, psi)
        snap(k, psi)

    final = MultiWave(grid, psi, times[-1])
    return final, EvolutionReport(times, norms, energies, flux, snapshots, final)


# -- currents -----------------------------------------------------------------

def _derivatives(psi, h):
    """Central first/second/third derivatives with zero padding outside."""
    f = np.pad(np.asarray(psi, dtype=complex), 2)
    d1 = (f[3:-1] - f[1:-3]) / (2.0 * h)
    d2 = (f[3:-1] - 2.0 * f[2:-2] + f[1:-3]) / h**2
    d3 = (-0.5 * f[:-4] + f[1:-3] - f[3:-1] + 0.5 * f[4:]) / h**3
    return f[2:-2], d1, d2, d3


def _current_point(psi, d1, d2, d3, symbol):
    j = 0.0
    if symbol.c4 != 0.0:
        j -= 2.0 * symbol.c4 * (np.imag(np.conj(psi) * d3) - np.imag(np.conj(d1) * d2))
    if symbol.c3 != 0.0:
        j -= symbol.c3 * (2.0 * np.real(np.conj(psi) * d2) - np.abs(d1) ** 2)
    if symbol.c2 != 0.0:
        j += 2.0 * symbol.c2 * np.imag(np.conj(psi) * d1)
    if symbol.c1 != 0.0:
        j += symbol.c1 * np.abs(psi) ** 2
    return j


def probability_current(psi, h, symbol):
    """Nodal current of the symbol along the (unfolded) grid coordinate.

    Uses central stencils with zero padding at the array ends, so the
    outermost two values are only meaningful for decaying states.
    """
    f, d1, d2, d3 = _derivatives(psi, h)
    return _current_point(f, d1, d2, d3, symbol)


_EDGE1 = np.array([3.0, -4.0, 1.0]) / 2.0
_EDGE2 = np.array([2.0, -5.0, 4.0, -1.0])
_EDGE3 = np.array([5.0, -18.0, 24.0, -14.0, 3.0]) / 2.0


def _one_sided(values, h, toward):
    """Derivatives at one end of `values` using only that side's data.

    toward="left" evaluates at values[-1] with data extending left;
    toward="right" evaluates at values[0] with data extending right.
    Odd orders flip sign between the two orientations.
    """
    v = np.asarray(values, dtype=complex)
    if toward == "left":
        v = v[::-1]
        s = 1.0
    else:
        s = -1.0
    d1 = s * (_EDGE1 @ v[:3]) / h
    d2 = (_EDGE2 @ v[:4]) / h**2 if v.size >= 4 else 0.0
    d3 = s * (_EDGE3 @ v[:5]) / h**3 if v.size >= 5 else 0.0
    return v[0], d1, d2, d3


def junction_flux_residual(psi, grid, symbol):
    """Mismatch of one-sided currents at the two junctions.

    Each side's current is evaluated from that side's nodes alone (the
    junction value is shared), so agreement is a statement about the
    assembled dynamics, not an identity of the formula.  Returns the
    residual at the junction p = q_+ (branches 1|2) and at p = q_-
    (branches 2|3).
    """
    if not isinstance(grid, FoldedGrid):
        raise TypeError("junction flux is defined on folded grids")
    need = 5 if (symbol.c4 != 0.0 or symbol.c3 != 0.0) else 3
    if grid.n_arm < need or grid.n_inner + 1 < need:
        raise ValueError("grid segments are too short for one-sided stencils")
    d = np.asarray(psi, dtype=complex)
    out = np.empty(2)
    for k, J in enumerate((grid.junction_plus, grid.junction_minus)):
        left = _one_sided(d[J - need + 1:J + 1], grid.h, "left")
        right = _one_sided(d[J:J + need], grid.h, "right")
        out[k] = _current_point(*left, symbol) - _current_point(*right, symbol)
    return out


def continuity_residual(op, psi_before, psi_after, dt, grid=None):
    """Nodal defect of the discrete continuity law for one CN step.

    (rho_after - rho_before)/dt + d/du j(psi_mid) evaluated with central
    differences; second order in h and, by the midpoint identity,
    independent of dt up to roundoff.  The outer 4 nodes at each end are
    dropped (padding pollutes them).
    """
    if not isinstance(op, OperatorMatrix) or op.symbol is None:
        raise ValueError("continuity needs an operator with a stencil symbol")
    g = grid if grid is not None else op.grid
    h = g.h
    before = np.asarray(psi_before, dtype=complex)
    after = np.asarray(psi_after, dtype=complex)
    mid = 0.5 * (before + after)
    j = probability_current(mid, h, op.symbol)
    div = np.empty_like(j)
    div[1:-1] = (j[2:] - j[:-2]) / (2.0 * h)
    div[0] = div[1]
    div[-1] = div[-2]
    rho_rate = (np.abs(after) ** 2 - np.abs(before) ** 2) / dt
    res = rho_rate + div
    return res[4:-4]
