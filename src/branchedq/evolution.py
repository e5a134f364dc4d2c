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

import math
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
        with np.errstate(over="ignore"):
            square = np.float64(width) ** 2
        if not (width > 0.0 and np.isfinite(square)):
            raise ValueError(f"packet width must be positive with a finite "
                             f"square, got {width:g}")
        u = _grid_axis(grid)
        # A packet far off the grid is reported once, by the norm check.
        with np.errstate(over="ignore", invalid="ignore"):
            data = np.exp(-((u - center) ** 2) / (4.0 * square)
                          + 1j * boost * u)
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


@dataclass
class EvolutionReport:
    """Per-step unitarity and flux bookkeeping from propagate()."""

    times: np.ndarray
    norms: np.ndarray
    energies: np.ndarray
    flux_residuals: np.ndarray = field(repr=False, default=None)
    snapshots: list = field(repr=False, default_factory=list)

    @property
    def norm_drift(self):
        return float(np.max(np.abs(self.norms - self.norms[0])))

    @property
    def max_flux_residual(self):
        if self.flux_residuals is None or self.flux_residuals.size == 0:
            return 0.0
        return float(np.max(np.abs(self.flux_residuals)))


# States whose diagnostics are evaluated together: at most 64 steps and
# about 1 MiB of states, so a 10^5-node grid checks one state at a time.
_BLOCK_STEPS = 64
_BLOCK_BYTES = 2**20


def _vdots(V, W):
    """np.vdot(v, w) of each pair of rows, as one stacked product."""
    return (np.conj(V)[:, None, :] @ W[:, :, None])[:, 0, 0]


def propagate(op, wave, dt, steps, snapshot_every=None, stability_budget=0.5):
    """Crank-Nicolson evolution for `steps` steps of size dt.

    The scheme is unconditionally stable, but large dt * ||H|| trades
    accuracy for nothing; by default propagation refuses when the
    Gershgorin bound times dt exceeds `stability_budget` (set None to
    disable the guard).  Junction flux residuals are tracked on folded
    grids when the operator carries a stencil symbol.

    I + i dt H/2 is factored once: by sparse LU (splu) when H is stored
    sparse, by dense LAPACK LU otherwise.

    Each state is copied into a block of rows (`_BLOCK_STEPS` and
    `_BLOCK_BYTES` bound it), and its norm, energy and flux residuals are
    evaluated once the block is full, with the bits of a per-state
    evaluation: numpy's sum over a C-contiguous row and its stacked
    vector products round as they do on one state; a sparse H @ V.T
    (scipy's csr_matvecs) as H @ v does, where a dense H is applied state
    by state; and the flux's complex products are spelled in reals (see
    `junction_flux_residual`).

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
    times = wave.time + dt * np.arange(steps + 1)
    norms = np.empty(steps + 1)
    energies = np.empty(steps + 1)
    flux = np.empty((steps + 1, 2)) if track_flux else None
    snapshots = []
    block = np.empty((max(1, min(steps + 1, _BLOCK_STEPS,
                                 _BLOCK_BYTES // (16 * n))), n), dtype=complex)
    for k in range(steps + 1):
        if k:
            psi = solve(B @ psi)
        if snapshot_every is not None and (k % snapshot_every == 0
                                           or k == steps):
            snapshots.append(MultiWave(grid, psi.copy(), times[k]))
        row = k % len(block)
        block[row] = psi
        if row + 1 < len(block) and k < steps:
            continue
        done, V = slice(k - row, k + 1), block[:row + 1]
        norms[done] = np.sqrt(grid.h * np.sum(np.abs(V) ** 2, axis=1))
        HV = (H @ V.T).T.copy() if sparse else np.array([H @ v for v in V])
        energies[done] = np.real(_vdots(V, HV)) / _vdots(V, V).real
        if track_flux:
            flux[done] = junction_flux_residual(V, grid, symbol)

    final = MultiWave(grid, psi, times[-1])
    return final, EvolutionReport(times, norms, energies, flux, snapshots)


# -- currents -----------------------------------------------------------------

def _derivatives(psi, h):
    """Central first/second/third derivatives with zero padding outside."""
    f = np.pad(np.asarray(psi, dtype=complex), 2)
    d1 = (f[3:-1] - f[1:-3]) / (2.0 * h)
    d2 = (f[3:-1] - 2.0 * f[2:-2] + f[1:-3]) / h**2
    d3 = (-0.5 * f[:-4] + f[1:-3] - f[3:-1] + 0.5 * f[4:]) / h**3
    return f[2:-2], d1, d2, d3


# Im(conj(a) b), Re(conj(a) b) and |a|^2: as numpy evaluates them on complex
# arrays, and spelled so that arrays round as numpy's complex scalars do
# (its array complex product and the array square of |a| move bits; libm
# pow(x, 2), which a float64 scalar's ** 2 calls, does not).
_ARRAY_ROUNDING = (lambda a, b: np.imag(np.conj(a) * b),
                   lambda a, b: np.real(np.conj(a) * b),
                   lambda a: np.abs(a) ** 2)
_SCALAR_ROUNDING = (lambda a, b: a.real * b.imag - a.imag * b.real,
                    lambda a, b: a.real * b.real + a.imag * b.imag,
                    lambda a: np.array([math.pow(x, 2)
                                        for x in np.abs(a).tolist()]))


def _current_point(psi, d1, d2, d3, symbol, rounding=_ARRAY_ROUNDING):
    im, re, square = rounding
    j = 0.0
    if symbol.c4 != 0.0:
        j -= 2.0 * symbol.c4 * (im(psi, d3) - im(d1, d2))
    if symbol.c3 != 0.0:
        j -= symbol.c3 * (2.0 * re(psi, d2) - square(d1))
    if symbol.c2 != 0.0:
        j += 2.0 * symbol.c2 * im(psi, d1)
    if symbol.c1 != 0.0:
        j += symbol.c1 * square(psi)
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


def _edge(weights, rows):
    """weights @ row for each row, as one stacked product that rounds as
    the product on one row does."""
    return (weights @ rows[:, :weights.size, None])[:, 0]


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
    d1 = s * _edge(_EDGE1, rows) / h
    d2 = _edge(_EDGE2, rows) / h**2 if size >= 4 else 0.0
    d3 = s * _edge(_EDGE3, rows) / h**3 if size >= 5 else 0.0
    return rows[:, 0], d1, d2, d3


def junction_flux_residual(psi, grid, symbol):
    """Mismatch of one-sided currents at the two junctions.

    Each side's current is evaluated from that side's nodes alone (the
    junction value is shared), so agreement is a statement about the
    assembled dynamics, not an identity of the formula.  Returns the
    residual at the junction p = q_+ (branches 1|2) and at p = q_-
    (branches 2|3): shape (2,) for one state, (m, 2) for an (m, n) block
    of states.  A block's rows are the bits of its states' own results.
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
        out[:, k] = (_current_point(*left, symbol, _SCALAR_ROUNDING)
                     - _current_point(*right, symbol, _SCALAR_ROUNDING))
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
    div = np.empty_like(j)
    div[1:-1] = (j[2:] - j[:-2]) / (2.0 * h)
    div[0] = div[1]
    div[-1] = div[-2]
    rho_rate = (np.abs(after) ** 2 - np.abs(before) ** 2) / dt
    res = rho_rate + div
    return res[4:-4]
