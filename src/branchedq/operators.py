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
from scipy.linalg import toeplitz, circulant

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
    measure, Toeplitz on a LineGrid (Dirichlet truncation) or circulant
    on a PeriodicGrid.  naive mode: the three-interval windowed kernel
    sum with the reversed middle interval conjugated (K2 = conj(K1));
    for asymmetric V this is not Hermitian and is kept for testing.  The
    naive windows split at the junction momenta of `domain`, a branched
    DispersionLaw.
    """
    if not has_kernel(V):
        raise ValueError("potential has no integrable transform (a polynomial's "
                         "kernel is a string of delta-function derivatives); "
                         "use the stencil assembly instead")
    if mode not in ("hermitian", "naive"):
        raise ValueError(f"unknown kernel mode {mode!r}")

    if isinstance(grid, LineGrid):
        offsets = grid.h * np.arange(-(grid.size - 1), grid.size)
        samples = V.kernel(offsets)
        pos = samples[grid.size - 1:]
        neg = samples[grid.size - 1::-1]
        K1 = toeplitz(pos, neg)
        if mode == "naive":
            if not (isinstance(domain, DispersionLaw) and domain.branched):
                raise ValueError("naive mode needs the branched domain for "
                                 "its windows")
            K1 = _windowed_sum(
                K1, *_heaviside_windows(grid.x, domain.p_minus, domain.p_plus))
        return OperatorMatrix(_scaled(grid, K1), grid)

    if isinstance(grid, PeriodicGrid):
        if mode != "hermitian":
            raise ValueError("windowed kernels need the truncated line, not a ring")
        n = grid.size
        wrap = np.arange(n)
        wrap[wrap > n // 2] -= n
        samples = np.asarray(V.kernel(grid.h * wrap), dtype=complex)
        if n % 2 == 0:
            # The half-period offset is shared between +n/2 and -n/2;
            # its Hermitian part is the consistent sample.
            samples[n // 2] = samples[n // 2].real
        return OperatorMatrix(_scaled(grid, circulant(samples)), grid)

    raise TypeError("build_convolution_potential needs a LineGrid or PeriodicGrid")


def _scaled(grid, K):
    """K times the measure h / (2 pi), in place.  The operand order is
    fixed: numpy runs `scale * K` on a temporary K of 256 KiB or more as
    K * scale, and the two orders give some underflowing products zeros of
    opposite sign."""
    return np.multiply(grid.h / (2.0 * np.pi), K, out=K)


def _windowed_sum(K1, w1, w2, w3):
    """K1 w1 + conj(K1) w2 + K1 w3 (columns scaled), with one scratch
    matrix beside K1 and the result."""
    M = K1 * w1
    term = np.conj(K1)
    np.multiply(term, w2, out=term)
    M += term
    np.multiply(K1, w3, out=term)
    M += term
    return M


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
    H = build_convolution_potential(V, grid, mode=mode, domain=law).matrix
    H[np.diag_indices_from(H)] += _unfolded_energy(law, grid.x)
    return OperatorMatrix(H, grid)


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


# Rows per slab of a dense defect: the temporaries are a few slabs, not
# copies of the whole matrix.
_DEFECT_SLAB_ROWS = 64


def hermiticity_defect(H):
    """Largest entrywise deviation |H - H*| of a sparse or dense matrix;
    compare to 1e-12 max|H|."""
    if scipy.sparse.issparse(H):
        return float(abs(H - H.conj().T).max())
    # np.max, not max(): a NaN in any slab stays the result.
    return float(np.max([
        np.abs(H[i:i + _DEFECT_SLAB_ROWS]
               - H[:, i:i + _DEFECT_SLAB_ROWS].conj().T).max()
        for i in range(0, H.shape[0], _DEFECT_SLAB_ROWS)]))


def gershgorin_bound(H):
    """Upper bound on a matrix's spectral radius by row sums, ||H||_inf."""
    return float(abs(H).sum(axis=1).max())
