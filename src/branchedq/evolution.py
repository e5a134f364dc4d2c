"""Unitary time evolution and probability-current diagnostics.

A state is a complex array with one value per node of its operator's grid.
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
from .operators import OperatorMatrix, gershgorin_bound


def gaussian_packet(grid, center, width, boost=0.0):
    """Normalized Gaussian packet exp(-(u-c)^2/(4 w^2) + i k u) on `grid`:
    a complex array with one value per node."""
    with np.errstate(over="ignore"):
        square = np.float64(width) ** 2
    if not (width > 0.0 and np.isfinite(square)):
        raise ValueError(f"packet width must be positive with a finite "
                         f"square, got {width:g}")
    u = grid.u if isinstance(grid, FoldedGrid) else grid.x
    # A packet far off the grid is reported once, by the norm check.
    with np.errstate(over="ignore", invalid="ignore"):
        psi = np.exp(-((u - center) ** 2) / (4.0 * square) + 1j * boost * u)
    norm = float(np.sqrt(grid.h * np.sum(np.abs(psi) ** 2)))
    if not 0.0 < norm < np.inf:
        raise ValueError(f"packet norm on the grid is {norm:.3g}; "
                         "move the center onto the grid or widen it")
    psi /= norm
    return psi


@dataclass
class EvolutionReport:
    """Per-step unitarity and flux bookkeeping from propagate(), the states
    it kept, and the factorization it stepped with ("splu" or "lu")."""

    times: np.ndarray
    norms: np.ndarray
    energies: np.ndarray
    flux_residuals: np.ndarray = field(repr=False)
    snapshots: np.ndarray = field(repr=False)
    snapshot_times: np.ndarray
    solver: str

    @property
    def norm_drift(self):
        return float(np.max(np.abs(self.norms - self.norms[0])))

    @property
    def max_flux_residual(self):
        if self.flux_residuals is None:
            return 0.0
        return float(np.max(np.abs(self.flux_residuals)))


# Bytes of a diagnostics block with the block-shaped arrays its energies
# allocate (H V^T, its row-order copy, conj(V), their product): 5 complex
# values per state value.  957-node states go 13 to a block, which peaks
# 2.5 MB below 64 at the same speed; 10^4-node states go one at a time.
_BLOCK_BYTES = 2**20


def _block_rows(n):
    return max(1, _BLOCK_BYTES // (5 * 16 * n))


def propagate(op, psi0, dt, steps, snapshot_every=None, stability_budget=0.5):
    """Crank-Nicolson evolution of the state psi0 on op's grid for `steps`
    steps of size dt, starting at time 0.

    The scheme is unconditionally stable, but large dt * ||H|| trades
    accuracy for nothing; by default propagation refuses when the
    Gershgorin bound times dt exceeds `stability_budget` (set None to
    disable the guard).  Junction flux residuals are tracked on folded
    grids when the operator carries a stencil symbol.

    I + i dt H/2 is factored once: by sparse LU (splu) when H is stored
    sparse, by dense LAPACK LU otherwise.

    Each state is copied into a block of rows, and the norms, energies and
    flux residuals of a full block are evaluated together, with H applied
    to the whole block at once; `_BLOCK_BYTES` bounds the block with the
    block-shaped arrays of its diagnostics.

    With `snapshot_every`, the states of every snapshot_every-th step and
    of the last step are kept as the rows of `report.snapshots`, at
    `report.snapshot_times`; without it both are empty.

    Returns (final state, EvolutionReport); psi0 is not modified.
    """
    H, grid, symbol = op.matrix, op.grid, op.symbol
    psi = np.array(psi0, dtype=complex)
    n = grid.size
    if psi.shape != (n,):
        raise ValueError("psi0 must hold one value per grid node")
    if steps < 1:
        raise ValueError("steps must be positive")
    if stability_budget is not None:
        budget = dt * gershgorin_bound(H)
        if budget > stability_budget:
            raise ValueError(
                f"dt * gershgorin = {budget:.3g} exceeds the accuracy budget "
                f"{stability_budget}; refine dt or raise the budget")

    track_flux = isinstance(grid, FoldedGrid) and symbol is not None
    sparse = scipy.sparse.issparse(H)
    one = (scipy.sparse.diags_array(np.ones(n, dtype=complex), format="csr")
           if sparse else np.eye(n, dtype=complex))
    A = one + 0.5j * dt * H
    solve = splu(A.tocsc()).solve if sparse else partial(lu_solve, lu_factor(A))

    times = dt * np.arange(steps + 1)
    norms = np.empty(steps + 1)
    energies = np.empty(steps + 1)
    flux = np.empty((steps + 1, 2)) if track_flux else None
    taken = ([] if snapshot_every is None
             else sorted({*range(0, steps + 1, snapshot_every), steps}))
    snapshot_row = {k: i for i, k in enumerate(taken)}
    snapshots = np.empty((len(taken), n), dtype=complex)
    block = np.empty((min(steps + 1, _block_rows(n)), n), dtype=complex)
    for k in range(steps + 1):
        if k:
            # (1 + i dt H/2)^-1 (1 - i dt H/2) = 2 (1 + i dt H/2)^-1 - 1
            psi = 2.0 * solve(psi) - psi
        if k in snapshot_row:
            snapshots[snapshot_row[k]] = psi
        row = k % len(block)
        block[row] = psi
        if row + 1 < len(block) and k < steps:
            continue
        done, V = slice(k - row, k + 1), block[:row + 1]
        squares = np.sum(np.abs(V) ** 2, axis=1)
        norms[done] = np.sqrt(grid.h * squares)
        # In V's row order: a product of mixed orders is slower.
        HV = (H @ V.T).T.copy()
        energies[done] = np.real(np.sum(np.conj(V) * HV, axis=1)) / squares
        if track_flux:
            flux[done] = junction_flux_residual(V, grid, symbol)

    return psi, EvolutionReport(times, norms, energies, flux, snapshots,
                                times[np.array(taken, dtype=int)],
                                "splu" if sparse else "lu")


# -- currents -----------------------------------------------------------------

def _derivatives(psi, h):
    """Central first/second/third derivatives with zero padding outside."""
    f = np.pad(np.asarray(psi, dtype=complex), 2)
    d1 = (f[3:-1] - f[1:-3]) / (2.0 * h)
    d2 = (f[3:-1] - 2.0 * f[2:-2] + f[1:-3]) / h**2
    d3 = (-0.5 * f[:-4] + f[1:-3] - f[3:-1] + 0.5 * f[4:]) / h**3
    return f[2:-2], d1, d2, d3


def _current_point(psi, d1, d2, d3, symbol):
    """The current at each node, zero everywhere for a zero symbol."""
    j = np.zeros(np.shape(psi))
    if symbol.c4 != 0.0:
        j -= 2.0 * symbol.c4 * (np.imag(np.conj(psi) * d3)
                                - np.imag(np.conj(d1) * d2))
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


def _one_sided(rows, h, toward):
    """Derivatives at one end of each row using only that side's data.

    toward="left" evaluates at row[-1] with data extending left;
    toward="right" evaluates at row[0] with data extending right.
    Odd orders flip sign between the two orientations.
    """
    if toward == "left":
        rows = rows[:, ::-1]
        s = 1.0
    else:
        s = -1.0
    size = rows.shape[1]
    d1 = s * np.sum(_EDGE1 * rows[:, :3], axis=1) / h
    d2 = np.sum(_EDGE2 * rows[:, :4], axis=1) / h**2 if size >= 4 else 0.0
    d3 = s * np.sum(_EDGE3 * rows[:, :5], axis=1) / h**3 if size >= 5 else 0.0
    return rows[:, 0], d1, d2, d3


def junction_flux_residual(psi, grid, symbol):
    """Mismatch of one-sided currents at the two junctions.

    Each side's current is evaluated from that side's nodes alone (the
    junction value is shared), so agreement is a statement about the
    assembled dynamics, not an identity of the formula.  Both sides
    apply `probability_current`'s formula to one-sided differences.
    Returns the residual at the junction p = q_+ (branches 1|2) and at
    p = q_- (branches 2|3): shape (2,) for one state, (m, 2) for an
    (m, n) block of states.  A block's rows are the bits of its states'
    own results.
    """
    if not isinstance(grid, FoldedGrid):
        raise TypeError("junction flux is defined on folded grids")
    need = 5 if (symbol.c4 != 0.0 or symbol.c3 != 0.0) else 3
    if grid.n_arm < need or grid.n_inner + 1 < need:
        raise ValueError("grid segments are too short for one-sided stencils")
    d = np.asarray(psi, dtype=complex)
    rows = d.reshape(-1, d.shape[-1])
    out = np.empty((len(rows), 2))
    for k, J in enumerate((grid.junction_plus, grid.junction_minus)):
        left = _one_sided(rows[:, J - need + 1:J + 1], grid.h, "left")
        right = _one_sided(rows[:, J:J + need], grid.h, "right")
        out[:, k] = (_current_point(*left, symbol)
                     - _current_point(*right, symbol))
    return out if d.ndim == 2 else out[0]


def continuity_residual(op, psi_before, psi_after, dt):
    """Nodal defect of the discrete continuity law for one CN step.

    (rho_after - rho_before)/dt + d/du j(psi_mid) evaluated with central
    differences; second order in h and, by the midpoint identity,
    independent of dt up to roundoff.  The outer 4 nodes at each end are
    dropped (padding pollutes them).
    """
    if not isinstance(op, OperatorMatrix) or op.symbol is None:
        raise ValueError("continuity needs an operator with a stencil symbol")
    h = op.grid.h
    before = np.asarray(psi_before, dtype=complex)
    after = np.asarray(psi_after, dtype=complex)
    mid = 0.5 * (before + after)
    j = probability_current(mid, h, op.symbol)
    div = (j[2:] - j[:-2]) / (2.0 * h)  # at nodes 1 .. n-2
    rho_rate = (np.abs(after) ** 2 - np.abs(before) ** 2) / dt
    return rho_rate[4:-4] + div[3:-3]
