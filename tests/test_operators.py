"""Stencil and kernel assemblies of the branched Hamiltonians.

The load-bearing identities: discrete sine vectors are exact eigenvectors
of the even-order Dirichlet stencils, the folded assembly reproduces an
independent ghost-point construction branch by branch (and with it the
plain unfolded assembly matrix) entry by entry, and the convolution matrix
acts on plane waves as multiplication by the potential in the conjugate
variable.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import circulant, toeplitz

from branchedq import (DispersionLaw, FoldedGrid, GaussianPotential, LineGrid,
                       PeriodicGrid, QuadraticPotential, QuarticPotential,
                       StencilSymbol, build_convolution_hamiltonian,
                       build_convolution_potential, build_dual_wire_hamiltonian,
                       build_folded_hamiltonian, build_unfolded_hamiltonian,
                       fourier_conjugate_hamiltonian, hermiticity_defect)
from branchedq.operators import _heaviside_windows, _unfolded_energy

LAW = DispersionLaw(kappa=3.0)


def _second_order_weights(sym, h):
    """Offset -> (even, odd) weight of the symbol's accuracy-2 stencil."""
    e0 = 6.0 * sym.c4 / h**4 + 2.0 * sym.c2 / h**2
    e1 = -4.0 * sym.c4 / h**4 - sym.c2 / h**2
    e2 = sym.c4 / h**4
    o1 = -0.5j * sym.c1 / h - 1j * sym.c3 / h**3
    o2 = 0.5j * sym.c3 / h**3
    return {-2: (e2, -o2), -1: (e1, -o1), 0: (e0, 0.0), 1: (e1, o1), 2: (e2, o2)}


def _flipped(sym):
    """Odd-coefficient sign flip for the orientation-reversed branch."""
    return StencilSymbol(sym.c4, -sym.c3, sym.c2, -sym.c1)


def ghost_rule_stencil(grid, sym, flip_reversed=True):
    """Reference folded assembly by ghost points, branch by branch.

    Each branch is walked in its own folded coordinate; the reversed
    branch 2 carries the flipped symbol.  Values k steps past a junction
    are read k steps in from the partner branch's named end, values past
    an outer end are zero at distance 1 and the odd reflection of the even
    part at distance 2, and each shared junction row averages the two
    one-sided equations.
    """
    jp, jm, n = grid.junction_plus, grid.junction_minus, grid.size
    # branch: (global nodes in branch order, reversed, left end, right end);
    # an end is None (Dirichlet) or (partner branch, 0 = left / -1 = right).
    branches = {1: (np.arange(jp + 1), False, None, (2, -1)),
                2: (np.arange(jm, jp - 1, -1), True, (3, 0), (1, -1)),
                3: (np.arange(jm, n), False, (2, 0), None)}
    H = np.zeros((n, n), dtype=complex)
    for nodes, reverse, left, right in branches.values():
        weights = _second_order_weights(
            _flipped(sym) if reverse and flip_reversed else sym, grid.h)
        m = len(nodes)
        for i, row in enumerate(nodes):
            half = (i == 0 and left) or (i == m - 1 and right)
            rw = 0.5 if half else 1.0
            for off, (we, wo) in weights.items():
                t = i + off
                if 0 <= t < m:
                    H[row, nodes[t]] += rw * (we + wo)
                    continue
                end, k = (left, -t) if t < 0 else (right, t - m + 1)
                if end is None:
                    if k == 2:
                        H[row, row] -= rw * we
                    continue
                partner = branches[end[0]][0]
                H[row, partner[k] if end[1] == 0 else partner[-1 - k]] += \
                    rw * (we + wo)
    return H


def _plane_wave_energy(sym, k):
    """The symbol's polynomial c4 k^4 + c3 k^3 + c2 k^2 + c1 k."""
    k = np.asarray(k, dtype=float)
    return ((sym.c4 * k + sym.c3) * k + sym.c2) * k * k + sym.c1 * k


def test_plane_wave_energy_frozen():
    sym = StencilSymbol(1.0, 0.5, 2.0, -0.3)
    # 16 + 0.5*8 + 2*4 - 0.3*2 at k = 2
    assert _plane_wave_energy(sym, 2.0) == pytest.approx(27.4)
    assert _plane_wave_energy(sym, 0.0) == 0.0


def test_flip_reverses_the_wavenumber():
    sym = StencilSymbol(0.7, -0.4, 1.2, 0.9)
    k = np.linspace(-3, 3, 11)
    assert np.allclose(_plane_wave_energy(_flipped(sym), k),
                       _plane_wave_energy(sym, -k), atol=1e-14)
    assert _flipped(_flipped(sym)) == sym
    assert _plane_wave_energy(sym.scaled(2.0), k) == pytest.approx(
        list(2.0 * _plane_wave_energy(sym, k)))


def test_potential_symbols():
    assert StencilSymbol.from_quadratic_potential(3.0) == StencilSymbol(0, 0, 1.5, 0)
    assert StencilSymbol.from_quartic_potential(0.4, 1.1, -0.7) == \
        StencilSymbol(1.0, -0.4, 1.1, 0.7)


def test_interior_stencil_rows():
    """Hand-built interior row of the generic symbol, second order."""
    g = LineGrid(0.0, 2.1, 20)
    h = g.h
    sym = StencilSymbol(1.0, 0.5, 2.0, -0.3)
    H = build_dual_wire_hamiltonian(sym, None, g).matrix
    j = 10
    expect = {
        -2: 1.0 / h**4 + 1j * 0.5 * (-0.5) / h**3,
        -1: -4.0 / h**4 - 2.0 / h**2 + 1j * 0.5 * 1.0 / h**3
            - 1j * (-0.3) * (-0.5) / h,
        0: 6.0 / h**4 + 2.0 * 2.0 / h**2,
        1: -4.0 / h**4 - 2.0 / h**2 + 1j * 0.5 * (-1.0) / h**3
           - 1j * (-0.3) * 0.5 / h,
        2: 1.0 / h**4 + 1j * 0.5 * 0.5 / h**3,
    }
    for off, val in expect.items():
        assert H[j, j + off] == pytest.approx(val, rel=1e-13)


@pytest.mark.parametrize("accuracy", [2, 4])
def test_sine_vectors_are_exact_discrete_eigenvectors(accuracy):
    """The Dirichlet closure keeps sin(k x) exact for the even stencils."""
    n = 40
    g = LineGrid(0.0, np.pi, n)
    h = g.h
    sym = StencilSymbol(0.0, 0.0, 1.0, 0.0)  # -d^2
    H = build_dual_wire_hamiltonian(sym, None, g, accuracy=accuracy).matrix
    for m in (1, 3, 7):
        k = m  # modes of the unit-pi box
        v = np.sin(k * g.x)
        th = k * h
        if accuracy == 2:
            lam = (2.0 - 2.0 * np.cos(th)) / h**2
        else:
            lam = (30.0 - 32.0 * np.cos(th) + 2.0 * np.cos(2.0 * th)) / (12.0 * h**2)
        assert np.max(np.abs(H @ v - lam * v)) < 1e-11 * lam


def test_biharmonic_sine_eigenvalue():
    n = 60
    g = LineGrid(0.0, np.pi, n)
    h = g.h
    H = build_dual_wire_hamiltonian(StencilSymbol(1.0, 0, 0, 0), None, g).matrix
    k = 2.0
    v = np.sin(k * g.x)
    lam = (4.0 * np.sin(0.5 * k * h) ** 2 / h**2) ** 2
    assert np.max(np.abs(H @ v - lam * v)) < 1e-10 * lam


def test_kinetic_diagonal_on_folded_grid():
    g = FoldedGrid(LAW, 4, 5)
    H = build_folded_hamiltonian(LAW, g).matrix.toarray()
    assert np.allclose(H, np.diag(np.diag(H)))
    diag = np.real(np.diag(H))
    assert diag[0] == pytest.approx(6.0)          # p=-2 on branch 1, v=-2
    assert diag[4] == pytest.approx(-0.75)        # junction, v=-1
    assert diag[6] == pytest.approx(0.0)          # p=0 on branch 2, v=0
    assert diag[8] == pytest.approx(-0.75)        # junction, v=+1
    assert diag[12] == pytest.approx(6.0)         # p=2 on branch 3, v=2


@pytest.mark.parametrize("kappa", [0.3, 3.0, 7.5])
def test_branch_energy_per_node_matches_per_branch_calls(kappa):
    """A per-node branch array gives each branch's scalar-label call bit
    for bit."""
    law = DispersionLaw(kappa=kappa)
    g = FoldedGrid(law, 60, 90)
    expected = np.empty(g.size)
    for b in (1, 2, 3):
        mask = g.branch == b
        expected[mask] = law.branch_energy(g.p[mask], b)
    assert np.array_equal(law.branch_energy(g.p, g.branch), expected)
    with pytest.raises(ValueError, match="off-branch momentum: branch 1"):
        law.branch_energy([0.0, 2.0 * law.p_plus, -2.0 * law.p_plus],
                          [2, 1, 3])
    with pytest.raises(ValueError, match="off-branch momentum: branch 2"):
        law.branch_energy(2.0 * law.p_plus, 2)
    with pytest.raises(ValueError, match="branch must be one of"):
        law.branch_energy(g.p, 0)


@pytest.mark.parametrize("V", [QuadraticPotential(1.3),
                               QuarticPotential(0.4, 1.1, -0.7)])
def test_folded_assembly_equals_unfolded(V):
    """Ghost matching plus junction averaging reproduces the plain line."""
    g = FoldedGrid(LAW, 16, 12)
    op = build_folded_hamiltonian(LAW, g, V)
    A = op.matrix.toarray()
    kinetic = build_folded_hamiltonian(LAW, g).matrix.toarray()
    ghost = ghost_rule_stencil(g, op.symbol) + kinetic
    scale = np.max(np.abs(A))
    assert np.max(np.abs(ghost - A)) < 1e-13 * scale
    # The unfolded builder on a LineGrid through the same nodes.
    line = LineGrid(g.u[0] - g.h, g.u[-1] + g.h, g.size)
    B = build_unfolded_hamiltonian(LAW, line, V).matrix.toarray()
    assert np.max(np.abs(A - B)) < 1e-13 * scale


_COEFF = st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False)


@settings(max_examples=60, deadline=None)
@given(sym=st.builds(StencilSymbol, _COEFF, _COEFF, _COEFF, _COEFF),
       n_inner=st.integers(2, 24), n_arm=st.integers(3, 24))
def test_folded_assembly_matches_ghost_rule_for_any_symbol(sym, n_inner, n_arm):
    g = FoldedGrid(LAW, n_inner, n_arm)
    kinetic = build_folded_hamiltonian(LAW, g).matrix
    for flip in (True, False):
        A = build_folded_hamiltonian(LAW, g, sym, flip_reversed_branch=flip).matrix
        ref = ghost_rule_stencil(g, sym, flip_reversed=flip) + kinetic
        scale = np.max(np.abs(ref))
        assert np.max(np.abs(A - ref)) <= 1e-13 * scale
        if flip:
            assert hermiticity_defect(A) <= 1e-12 * np.max(np.abs(A))


@pytest.mark.parametrize("V", [QuadraticPotential(1.3),
                               QuarticPotential(0.4, 1.1, -0.7)])
def test_folded_assembly_is_hermitian(V):
    g = FoldedGrid(LAW, 16, 12)
    op = build_folded_hamiltonian(LAW, g, V)
    assert hermiticity_defect(op.matrix) < 1e-12 * np.max(np.abs(op.matrix))


def test_unflipped_reversed_branch_breaks_hermiticity():
    """Without the odd-coefficient flip on the reversed branch the ghost
    rule mismatches the first and third derivatives."""
    g = FoldedGrid(LAW, 16, 12)
    V = QuarticPotential(0.4, 1.1, -0.7)
    op = build_folded_hamiltonian(LAW, g, V, flip_reversed_branch=False)
    assert hermiticity_defect(op.matrix) > 1e-3


def test_dual_wire_matches_folded_for_polynomial_wells():
    """Kinetic stencil + multivalued W is the same matrix as the folded
    picture with the roles of p and x exchanged."""
    g = FoldedGrid(LAW, 12, 10)
    sym = StencilSymbol.from_quadratic_potential(1.3)
    A = build_dual_wire_hamiltonian(sym, LAW, g).matrix.toarray()
    B = build_folded_hamiltonian(LAW, g, QuadraticPotential(1.3)).matrix.toarray()
    assert np.array_equal(A, B)


def test_folded_dual_wire_takes_its_w_from_a_law():
    g = FoldedGrid(LAW, 8, 6)
    # A folded W is the law's multivalued energy curve: a nodal array, a
    # potential or a per-branch mapping is not one.
    flat = {b: lambda p: np.zeros_like(p) for b in (1, 2, 3)}
    for W in (np.zeros(g.size), QuadraticPotential(1.0), flat):
        with pytest.raises(TypeError, match="W is a DispersionLaw$"):
            build_dual_wire_hamiltonian(StencilSymbol(0, 0, 1.0, 0), W, g)


def test_accuracy_four_limited_to_low_orders():
    g = LineGrid(-1.0, 1.0, 9)
    with pytest.raises(ValueError):
        build_dual_wire_hamiltonian(StencilSymbol(1.0, 0, 0, 0), None, g,
                                    accuracy=4)
    with pytest.raises(ValueError):
        build_dual_wire_hamiltonian(StencilSymbol(0, 0, 1.0, 0), None, g,
                                    accuracy=3)


def test_stencil_assembly_rejects_decaying_wells():
    g = FoldedGrid(LAW, 8, 6)
    with pytest.raises(TypeError):
        build_folded_hamiltonian(LAW, g, GaussianPotential())


@pytest.mark.parametrize("grid", [FoldedGrid(LAW, 8, 6),
                                  PeriodicGrid(-2.0, 2.0, 8)])
def test_unfolded_assembly_names_the_grid_it_got(grid):
    with pytest.raises(TypeError, match="needs a LineGrid, not a "
                       f"{type(grid).__name__}$"):
        build_unfolded_hamiltonian(LAW, grid)


def test_fourier_conjugate_refuses_a_missing_potential():
    with pytest.raises(ValueError, match="needs a potential"):
        fourier_conjugate_hamiltonian(LAW, None, PeriodicGrid(-2.0, 2.0, 8))


def test_convolution_matrix_is_a_kernel_table():
    V = GaussianPotential(2.0, 1.0, 1.5)
    g = LineGrid(-8.0, 8.0, 60)
    M = build_convolution_potential(V, g).matrix
    scale = g.h / (2.0 * np.pi)
    rng = np.random.default_rng(3)
    for _ in range(20):
        i, j = rng.integers(0, g.size, size=2)
        assert M[i, j] == pytest.approx(
            scale * V.kernel((i - j) * g.h), rel=1e-13)


def test_convolution_acts_as_multiplication_in_conjugate_variable():
    """On interior nodes the kernel matrix multiplies a plane wave
    e^{i k xi} by V(-k); truncation only pollutes the edges."""
    V = GaussianPotential(1.0, 1.0, 0.4)
    g = LineGrid(-20.0, 20.0, 800)
    M = build_convolution_potential(V, g).matrix
    for k in (0.0, 0.9, -1.7):
        wave = np.exp(1j * k * g.x)
        out = M @ wave
        mid = slice(g.size // 4, 3 * g.size // 4)
        assert np.max(np.abs(out[mid] - V(-k) * wave[mid])) < 1e-8


def test_convolution_rejects_polynomials_and_bad_modes():
    g = LineGrid(-2.0, 2.0, 9)
    with pytest.raises(ValueError):
        build_convolution_potential(QuadraticPotential(), g)
    with pytest.raises(ValueError):
        build_convolution_potential(GaussianPotential(), g, mode="windowed")
    ring = PeriodicGrid(-2.0, 2.0, 8)
    with pytest.raises(ValueError):
        build_convolution_potential(GaussianPotential(), ring, mode="naive",
                                    domain=LAW)


def test_naive_mode_symmetric_well_collapses_to_hermitian():
    V = GaussianPotential(1.0, 1.0, 0.0)
    g = LineGrid(-20.0, 20.0, 400)
    A = build_convolution_potential(V, g, mode="hermitian").matrix
    B = build_convolution_potential(V, g, mode="naive", domain=LAW).matrix
    assert np.max(np.abs(A - B)) <= 1e-15 * np.max(np.abs(A))


def test_naive_mode_asymmetric_well_is_not_hermitian():
    V = GaussianPotential(2.0, 1.0, 1.5)
    g = LineGrid(-20.0, 20.0, 400)
    op = build_convolution_potential(V, g, mode="naive", domain=LAW)
    assert hermiticity_defect(op.matrix) > 1e-3
    assert hermiticity_defect(
        build_convolution_potential(V, g, mode="hermitian").matrix) < 1e-14


def test_ring_convolution_matches_fourier_conjugate_spectrum():
    V = GaussianPotential(1.0, 1.0, 0.0)
    g = PeriodicGrid(-16.0, 16.0, 128)
    A = build_convolution_hamiltonian(LAW, V, g).matrix
    B = fourier_conjugate_hamiltonian(LAW, V, g).matrix
    ea = np.linalg.eigvalsh(A)
    eb = np.linalg.eigvalsh(B)
    assert np.max(np.abs(ea - eb)) < 1e-10


def test_hermiticity_defect_on_raw_arrays():
    assert hermiticity_defect(np.array([[0.0, 1j], [-1j, 0.0]])) == 0.0
    assert hermiticity_defect(np.array([[0.0, 1j], [1j, 0.0]])) == pytest.approx(2.0)


class _RealKernel:
    """A well whose kernel table is real, with subnormal far entries."""

    def __init__(self, width):
        self.width = width

    def kernel(self, q):
        return np.exp(-0.5 * np.square(np.asarray(q, dtype=float) * self.width))


_KERNELS = [GaussianPotential(2.0, 1.0, 1.5), GaussianPotential(1.0, 1.0, 0.0),
            _RealKernel(0.95)]


def _unfused(V, grid, mode):
    """The kernel matrix as one plain expression per mode, scaled in the
    operand order scale * K at every size."""
    samples = V.kernel(grid.h * np.arange(-(grid.size - 1), grid.size))
    K1 = toeplitz(samples[grid.size - 1:], samples[grid.size - 1::-1])
    if mode == "naive":
        w1, w2, w3 = _heaviside_windows(grid.x, LAW.p_minus, LAW.p_plus)
        K1 = K1 * w1 + np.conj(K1) * w2 + K1 * w3
    # np.multiply, not `*`: numpy runs `scale * temporary` as
    # `temporary * scale` from 256 KiB on.
    return np.multiply(grid.h / (2.0 * np.pi), K1)


@pytest.mark.parametrize("V", _KERNELS, ids=["complex", "complex-even", "real"])
@pytest.mark.parametrize("mode", ["hermitian", "naive"])
@pytest.mark.parametrize("n", [7, 100, 130, 200, 400])
def test_kernels_assembled_in_place_keep_every_bit(V, mode, n):
    # tobytes(), not ==: a flipped signed zero must fail.  The sizes sit
    # on both sides of numpy's in-place threshold for temporaries.
    g = LineGrid(-20.0, 20.0, n)
    expected = _unfused(V, g, mode)
    got = build_convolution_potential(V, g, mode=mode, domain=LAW).matrix
    assert got.dtype == expected.dtype
    assert got.tobytes() == expected.tobytes()
    H = expected.copy()
    H[np.diag_indices_from(H)] += _unfolded_energy(LAW, g.x)
    got = build_convolution_hamiltonian(LAW, V, g, mode=mode).matrix
    assert got.tobytes() == H.tobytes()


class _Underflowing:
    """Kernel samples whose products with h / (2 pi) underflow, with signs
    for which the operand orders scale * K and K * scale differ."""

    def kernel(self, q):
        i = np.arange(np.size(q))
        return (np.where(i % 2, 1, -1) * 5e-324
                + 1j * np.where(i % 3, 1, -1) * 2.5e-323)


@pytest.mark.parametrize("n", [100, 200])
def test_ring_kernel_scale_keeps_one_operand_order(n):
    # n = 100 stays below numpy's 256 KiB threshold for temporaries, and
    # n = 200 crosses it.
    g = PeriodicGrid(-10.0, 10.0, n)
    wrap = np.arange(n)
    wrap[wrap > n // 2] -= n
    samples = np.asarray(_Underflowing().kernel(g.h * wrap), dtype=complex)
    samples[n // 2] = samples[n // 2].real
    C = circulant(samples)
    expected = np.multiply(g.h / (2.0 * np.pi), C)
    assert expected.tobytes() != np.multiply(C, g.h / (2.0 * np.pi)).tobytes()
    got = build_convolution_potential(_Underflowing(), g).matrix
    assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("n", [1, 7, 63, 65, 130, 200])
@pytest.mark.parametrize("dtype", [float, complex])
def test_blocked_defect_equals_the_whole_matrix_defect(n, dtype):
    rng = np.random.default_rng(n)
    H = rng.standard_normal((n, n)).astype(dtype)
    if dtype is complex:
        H += 1j * rng.standard_normal((n, n))
    H = H + H.conj().T
    H[n // 2, -1] += 1e-9
    assert hermiticity_defect(H) == float(abs(H - H.conj().T).max())
    # A NaN in the last slab only is the result, as in the whole-matrix max.
    H[-1, -1] = np.nan
    assert np.isnan(hermiticity_defect(H))


def _heap_peak(build):
    """(result, peak bytes traced while building it)."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = build()
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    return result, peak


def test_dense_kernel_heap_peaks():
    # The sizes of C2 and C10.  Ratios are of the result's nbytes: the
    # plain expressions peaked at 4.02 (naive), 2.00 (hermitian), 2.02
    # (Hamiltonian) and 2.01 (defect).
    g = LineGrid(-20.0, 20.0, 800)
    V = GaussianPotential(2.0, 1.0, 1.5)
    for mode, bound in (("naive", 3.1), ("hermitian", 1.1)):
        op, peak = _heap_peak(lambda: build_convolution_potential(
            V, g, mode=mode, domain=LAW))
        assert peak <= bound * op.matrix.nbytes, mode
    H, peak = _heap_peak(lambda: build_convolution_hamiltonian(LAW, V, g))
    assert peak <= 1.1 * H.matrix.nbytes
    _, peak = _heap_peak(lambda: hermiticity_defect(H.matrix))
    assert peak <= 0.25 * H.matrix.nbytes
