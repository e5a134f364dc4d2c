"""Finite Hermitian discretizations of branched Hamiltonians.

All stencil-based operators are built from one symbol

    c4 d^4 + i c3 d^3 - c2 d^2 - i c1 d

acting along the grid coordinate, which is the image of a real polynomial
in the conjugate variable: multiplication by x**n in position space turns
into (i d/dxi)**n on the unfolded momentum coordinate, and a kinetic
polynomial in p turns into the same form via p = -i d/dx.  Plane waves
e^{ikx} see the real value c4 k^4 + c3 k^3 + c2 k^2 + c1 k.

On the folded grid the three branches are laid end to end along the
unfolded coordinate, with the orientation-reversed branch carrying the
sign-flipped odd coefficients.  The paper's mirrored junction closure
matches the function and its first three derivatives with alternating
parity across each junction, and under that matching the folded
Hamiltonian is exactly the plain stencil matrix on the unfolded line.
So every stencil operator comes from one line assembly that writes its
(at most five) diagonals directly into sparse storage.

Outer ends are Dirichlet.  Second-layer ghosts there are closed by odd
reflection for even-order stencils and by zero for odd-order stencils;
the latter keeps the odd part of the matrix exactly antisymmetric, which
Hermiticity requires, at a cost that is invisible for states decaying at
the boundary.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse

from .dispersion import DispersionLaw
from .grids import FoldedGrid, LineGrid, PeriodicGrid
from .potentials import QuadraticPotential, QuarticPotential, has_kernel


@dataclass(frozen=True)
class StencilSymbol:
    """Coefficients (c4, c3, c2, c1) of c4 d^4 + i c3 d^3 - c2 d^2 - i c1 d."""

    c4: float = 0.0
    c3: float = 0.0
    c2: float = 0.0
    c1: float = 0.0

    @classmethod
    def from_quadratic_potential(cls, alpha):
        """V(x) = alpha x^2/2 as an operator on the unfolded momentum line."""
        return cls(0.0, 0.0, 0.5 * alpha, 0.0)

    @classmethod
    def from_quartic_potential(cls, alpha=0.0, beta=0.0, gamma=0.0):
        """V(x) = x^4 + alpha x^3 + beta x^2 + gamma x on the momentum line.

        The same tuple realizes the dual kinetic polynomial
        p^4 - alpha p^3 + beta p^2 - gamma p on a position-space wire.
        """
        return cls(1.0, -alpha, beta, -gamma)

    def scaled(self, factor):
        return StencilSymbol(factor * self.c4, factor * self.c3,
                             factor * self.c2, factor * self.c1)

    def is_zero(self):
        return self.c4 == self.c3 == self.c2 == self.c1 == 0.0


@dataclass
class OperatorMatrix:
    """Discretized Hamiltonian with its grid and, if any, its stencil symbol.

    The stencil builders (folded, unfolded, dual wire) and the graph
    assembly store `matrix` as a scipy.sparse CSR array: they have at most
    five diagonals, or P1 chains joined at vertices, so a dense N x N
    array would be almost all zeros.  The kernel and Fourier operators are
    full by nature and store a dense ndarray.
    """

    matrix: object
    grid: object
    symbol: StencilSymbol = None


_D1_2 = {-1: -0.5, 1: 0.5}
_D2_2 = {-1: 1.0, 0: -2.0, 1: 1.0}
_D3_2 = {-2: -0.5, -1: 1.0, 1: -1.0, 2: 0.5}
_D4_2 = {-2: 1.0, -1: -4.0, 0: 6.0, 1: -4.0, 2: 1.0}
_D1_4 = {-2: 1.0 / 12.0, -1: -8.0 / 12.0, 1: 8.0 / 12.0, 2: -1.0 / 12.0}
_D2_4 = {-2: -1.0 / 12.0, -1: 16.0 / 12.0, 0: -30.0 / 12.0, 1: 16.0 / 12.0, 2: -1.0 / 12.0}


def _stencil_weights(symbol, h, accuracy):
    """Even-order (real) and odd-order (imaginary) weights per offset."""
    if accuracy == 2:
        d1, d2 = _D1_2, _D2_2
    elif accuracy == 4:
        if symbol.c4 != 0.0 or symbol.c3 != 0.0:
            raise ValueError("fourth-order closures exist only for the "
                             "second- and first-derivative terms")
        d1, d2 = _D1_4, _D2_4
    else:
        raise ValueError("accuracy must be 2 or 4")
    order = 4 if symbol.c4 != 0.0 else 3 if symbol.c3 != 0.0 else 2
    with np.errstate(over="ignore", under="ignore", divide="ignore"):
        powers = np.float64(h) ** np.arange(1, order + 1)
        finite = np.isfinite(powers) & np.isfinite(1.0 / powers)
    if not finite.all():
        raise ValueError(f"grid step h = {h:g}: h**1 .. h**{order} and "
                         "their inverses must be finite and nonzero")
    even = {}
    odd = {}
    for off, w in d2.items():
        even[off] = even.get(off, 0.0) - symbol.c2 * w / h**2
    for off, w in _D4_2.items():
        if symbol.c4 != 0.0:
            even[off] = even.get(off, 0.0) + symbol.c4 * w / h**4
    for off, w in d1.items():
        odd[off] = odd.get(off, 0.0) - 1j * symbol.c1 * w / h
    for off, w in _D3_2.items():
        if symbol.c3 != 0.0:
            odd[off] = odd.get(off, 0.0) + 1j * symbol.c3 * w / h**3
    even = {k: v for k, v in even.items() if v != 0.0}
    odd = {k: v for k, v in odd.items() if v != 0.0}
    return even, odd


def _assemble_line(n, h, symbol, accuracy, diag, odd_factor=1.0):
    """Stencil matrix of the symbol on n line nodes with Dirichlet ends,
    plus the multiplicative diagonal `diag`, as a CSR array.

    odd_factor (a scalar or one value per row) scales the odd-order
    weights of each row.
    """
    if not np.all(np.isfinite(diag)):
        raise ValueError("the potential or kinetic energy is not finite at "
                         "every grid node")
    diagonals = {0: np.zeros(n, dtype=complex)}
    if symbol is not None and not symbol.is_zero():
        even, odd = _stencil_weights(symbol, h, accuracy)
        factor = np.broadcast_to(odd_factor, (n,))
        for off in set(even) | set(odd):
            if abs(off) < n:
                r = slice(max(0, -off), n - max(0, off))
                diagonals[off] = np.asarray(
                    even.get(off, 0.0) + odd.get(off, 0.0) * factor[r],
                    dtype=complex)
        # Second-layer Dirichlet ghosts: odd reflection of the even part,
        # zero for the odd part (which keeps it exactly antisymmetric).
        diagonals[0][0] -= even.get(-2, 0.0)
        diagonals[0][-1] -= even.get(2, 0.0)
    diagonals[0] += diag
    offsets = sorted(diagonals)
    return scipy.sparse.diags_array([diagonals[off] for off in offsets],
                                    offsets=offsets, shape=(n, n),
                                    format="csr", dtype=complex)


def _unfolded_energy(law, u):
    """Kinetic energy as a function of the unfolded coordinate."""
    if not law.branched:
        return law.energy_of_momentum(u)
    return law.branch_energy(*law.fold(u))


def _symbol_of_potential(V):
    if V is None:
        return None
    if isinstance(V, StencilSymbol):
        return V
    if isinstance(V, QuadraticPotential):
        return StencilSymbol.from_quadratic_potential(V.alpha)
    if isinstance(V, QuarticPotential):
        return StencilSymbol.from_quartic_potential(V.alpha, V.beta, V.gamma)
    raise TypeError("stencil assembly needs a polynomial potential or a "
                    "StencilSymbol; decaying wells go through "
                    "build_convolution_potential")


def _unflipped_odd_factor(grid):
    """Per-row odd factor that undoes the sign flip on the reversed branch.

    Inside branch 2 the unflipped symbol reads as the line's odd part with
    the sign reversed; at the two junctions the flipped and unflipped
    one-sided equations average, so the odd part cancels there.
    """
    factor = np.ones(grid.size)
    factor[grid.junction_plus + 1:grid.junction_minus] = -1.0
    factor[[grid.junction_plus, grid.junction_minus]] = 0.0
    return factor


def build_folded_hamiltonian(law, grid, V=None, accuracy=2, flip_reversed_branch=True):
    """Branched Hamiltonian on the folded momentum grid.

    The kinetic energy multiplies on the diagonal; the polynomial
    potential acts through derivative stencils, with odd coefficients
    flipped on branch 2, which makes it the plain stencil on the
    unfolded line.  flip_reversed_branch=False assembles the
    (non-Hermitian) variant without the sign flips, kept for
    negative-control tests.
    """
    if not isinstance(grid, FoldedGrid):
        raise TypeError("build_folded_hamiltonian needs a FoldedGrid")
    symbol = _symbol_of_potential(V)
    odd_factor = 1.0 if flip_reversed_branch else _unflipped_odd_factor(grid)
    H = _assemble_line(grid.size, grid.h, symbol, accuracy,
                       law.branch_energy(grid.p, grid.branch), odd_factor)
    return OperatorMatrix(H, grid, symbol=symbol)


def build_unfolded_hamiltonian(law, grid, V=None, accuracy=2):
    """Same Hamiltonian assembled plainly on a LineGrid over the unfolded
    coordinate; for an unbranched law the coordinate is the momentum itself.
    """
    if not isinstance(grid, LineGrid):
        raise TypeError("build_unfolded_hamiltonian needs a LineGrid, not a "
                        f"{type(grid).__name__}")
    symbol = _symbol_of_potential(V)
    H = _assemble_line(grid.size, grid.h, symbol, accuracy,
                       _unfolded_energy(law, grid.x))
    return OperatorMatrix(H, grid, symbol=symbol)


def build_dual_wire_hamiltonian(kinetic, W, grid, accuracy=2):
    """Position-space wire: polynomial kinetic stencil, multiplicative W.

    kinetic is the StencilSymbol of the momentum polynomial
    c4 p^4 + c3 p^3 + c2 p^2 + c1 p.  On a FoldedGrid, W is a
    DispersionLaw, its energy curve read as a multivalued potential.  On
    a LineGrid, W is a callable or None.
    """
    if isinstance(grid, FoldedGrid):
        if not isinstance(W, DispersionLaw):
            raise TypeError("on a FoldedGrid, W is a DispersionLaw")
        diag = W.branch_energy(grid.p, grid.branch)
    elif isinstance(grid, LineGrid):
        if W is None:
            diag = np.zeros(grid.size)
        elif callable(W):
            # An overflow here is reported once, by _assemble_line's
            # finiteness check.
            with np.errstate(over="ignore", invalid="ignore"):
                diag = np.asarray(W(grid.x), dtype=float)
        else:
            raise TypeError("on a LineGrid, W is a callable or None")
    else:
        raise TypeError("build_dual_wire_hamiltonian needs a FoldedGrid or LineGrid")
    H = _assemble_line(grid.size, grid.h, kinetic, accuracy, diag)
    return OperatorMatrix(H, grid, symbol=kinetic)


def build_convolution_potential(V, grid, mode="hermitian", domain=None):
    """Kernel realization of a decaying potential on the unfolded grid.

    hermitian mode: plain convolution by K1(xi - xi') with the 1/(2 pi)
    measure.  Entry (i, j) is the kernel sample at offset (i - j) h,
    times h / (2 pi): Toeplitz on a LineGrid (Dirichlet truncation), and
    on a PeriodicGrid circulant, with i - j taken mod n into the half
    period.  naive mode: the three-interval windowed kernel sum with the
    reversed middle interval conjugated (K2 = conj(K1)), the windows
    scaling the columns; for asymmetric V this is not Hermitian and is
    kept for testing.  The naive windows split at the junction momenta of
    `domain`, a branched DispersionLaw.
    """
    return OperatorMatrix(_KernelSlabs(V, grid, mode, domain).matrix(), grid)


class _KernelSlabs:
    """A dense convolution kernel, built a slab of rows or columns at a time.

    The kernel samples and the naive windows are taken once.  `self[rows]`
    and `self[:, cols]` (unit-step slices) build that slab of the matrix
    that `build_convolution_potential` returns, or with `kinetic` that of
    `build_convolution_hamiltonian` (the law is `domain`), bit for bit; so
    the dense branches of `hermiticity_defect` and `_max_abs` reduce over
    it without the n x n matrix.
    """

    def __init__(self, V, grid, mode="hermitian", domain=None, kinetic=False):
        if not has_kernel(V):
            raise ValueError("potential has no integrable transform (a "
                             "polynomial's kernel is a string of "
                             "delta-function derivatives); use the stencil "
                             "assembly instead")
        if mode not in ("hermitian", "naive"):
            raise ValueError(f"unknown kernel mode {mode!r}")
        n = grid.size
        self._windows = None
        if isinstance(grid, LineGrid):
            samples = np.asarray(V.kernel(grid.h * np.arange(-(n - 1), n)))
            if mode == "naive":
                if not (isinstance(domain, DispersionLaw) and domain.branched):
                    raise ValueError("naive mode needs the branched domain "
                                     "for its windows")
                self._windows = _heaviside_windows(grid.x, domain.p_minus,
                                                   domain.p_plus)
        elif isinstance(grid, PeriodicGrid):
            if mode != "hermitian":
                raise ValueError("windowed kernels need the truncated line, "
                                 "not a ring")
            wrap = np.arange(n)
            wrap[wrap > n // 2] -= n
            ring = np.asarray(V.kernel(grid.h * wrap), dtype=complex)
            if n % 2 == 0:
                # The half-period offset is shared between +n/2 and -n/2;
                # its Hermitian part is the consistent sample.
                ring[n // 2] = ring[n // 2].real
            # Offsets 1 - n .. n - 1, each taken mod n.
            samples = np.concatenate([ring[1:], ring])
        else:
            raise TypeError("build_convolution_potential needs a LineGrid or "
                            "PeriodicGrid")
        # Entry (i, j), the sample at offset i - j, is _reversed[n-1-i+j],
        # so each row of a slab is a contiguous run of it.
        self._reversed = samples[::-1].copy()
        self._scale = grid.h / (2.0 * np.pi)
        self._diagonal = _unfolded_energy(domain, grid.x) if kinetic else None
        self.shape = (n, n)
        self.size = n * n

    def __len__(self):
        return self.shape[0]

    def __getitem__(self, key):
        rows, cols = key if isinstance(key, tuple) else (key, slice(None))
        (i0, i1, _), (j0, j1, _) = (s.indices(len(self)) for s in (rows, cols))
        return self._fill(np.empty((i1 - i0, j1 - j0), self._reversed.dtype),
                          i0, j0)

    def matrix(self):
        """The whole n x n matrix, filled one row slab at a time."""
        K = np.empty(self.shape, self._reversed.dtype)
        for i in range(0, len(K), _SLAB_ROWS):
            self._fill(K[i:i + _SLAB_ROWS], i, 0)
        return K

    def _fill(self, out, i0, j0):
        """out := the block whose top left entry is (i0, j0), with one
        block-sized temporary at most."""
        (m, w), n = out.shape, len(self)
        runs = np.lib.stride_tricks.sliding_window_view(self._reversed, w)
        k = runs[n - m - i0 + j0:n - i0 + j0][::-1]  # the samples, a view
        # The measure multiplies in one operand order: numpy runs
        # `scale * K` on a temporary K of 256 KiB or more as K * scale, and
        # the two orders give some underflowing products zeros of opposite
        # sign.
        if self._windows is None:
            np.multiply(self._scale, k, out=out)
        else:
            # K w1 + conj(K) w2 + K w3, the windows scaling the columns.
            w1, w2, w3 = (win[j0:j0 + w] for win in self._windows)
            term = np.conj(k)
            np.multiply(k, w1, out=out)
            out += np.multiply(term, w2, out=term)
            out += np.multiply(k, w3, out=term)
            np.multiply(self._scale, out, out=out)
        if self._diagonal is not None:
            d = np.arange(max(i0, j0), min(i0 + m, j0 + w))
            out[d - i0, d - j0] += self._diagonal[d]
        return out


def _heaviside_windows(xi, p_minus, p_plus):
    w1 = (xi < p_minus).astype(float)
    w2 = ((xi > p_minus) & (xi < p_plus)).astype(float)
    w3 = (xi > p_plus).astype(float)
    on = xi == p_minus
    w1[on] = 0.5
    w2[on] += 0.5
    on = xi == p_plus
    w3[on] = 0.5
    w2[on] += 0.5
    return w1, w2, w3


def build_convolution_hamiltonian(law, V, grid, mode="hermitian"):
    """Kinetic diagonal plus the kernel potential on the unfolded grid."""
    return OperatorMatrix(
        _KernelSlabs(V, grid, mode, law, kinetic=True).matrix(), grid)


def fourier_conjugate_hamiltonian(law, V, grid):
    """Discrete-Fourier conjugate picture on a ring: V multiplies, the
    kinetic energy becomes a pseudodifferential (dense) block.

    Returns the operator whose spectrum matches the ring convolution
    Hamiltonian: diag(V(-x_k)) + F E F* with F[k, m] = e^{-i x_k xi_m}/sqrt(N)
    and x_k the discrete frequencies of the xi grid.
    """
    if not isinstance(grid, PeriodicGrid):
        raise TypeError("the Fourier conjugate picture needs a PeriodicGrid")
    if V is None:
        raise ValueError("the Fourier conjugate picture needs a potential V")
    n = grid.size
    xk = 2.0 * np.pi * np.fft.fftfreq(n, d=grid.h)
    F = np.exp(-1j * np.outer(xk, grid.x)) / np.sqrt(n)
    E = _unfolded_energy(law, grid.x)
    H = (F * E) @ F.conj().T
    H[np.diag_indices_from(H)] += V(-xk)
    return OperatorMatrix(H, grid)


# Rows per slab of each whole-matrix pass over a dense operator.
_SLAB_ROWS = 64


def _slab_max(reduce, n):
    """max of reduce(rows) over n rows in slabs; np.max keeps a NaN."""
    return float(np.max([reduce(slice(i, i + _SLAB_ROWS))
                         for i in range(0, n, _SLAB_ROWS)]))


def _max_abs(H):
    """max|H| of a sparse or dense matrix; NaN or inf if a dense entry is."""
    if scipy.sparse.issparse(H):
        return float(abs(H).max())
    return _slab_max(lambda rows: np.abs(H[rows]).max(), len(H))


def hermiticity_defect(H):
    """Largest entrywise deviation |H - H*| of a sparse or dense matrix;
    compare to 1e-12 max|H|."""
    if scipy.sparse.issparse(H):
        return float(abs(H - H.conj().T).max())
    return _slab_max(lambda rows: np.abs(H[rows] - H[:, rows].conj().T).max(),
                     len(H))


def gershgorin_bound(H):
    """Upper bound on a matrix's spectral radius by row sums, ||H||_inf."""
    if scipy.sparse.issparse(H):
        return float(abs(H).sum(axis=1).max())
    return _slab_max(lambda rows: np.abs(H[rows]).sum(axis=1).max(), len(H))
