"""Crank-Nicolson propagation, currents, and the discrete continuity law.

The Cayley step (1 + i dt H/2)^{-1} (1 - i dt H/2) is exactly unitary and
commutes with H, so norm and energy conservation hold to roundoff no
matter the step size; those are wiring checks.  Accuracy in dt and the
group-velocity value of the current are the physical checks.
"""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from branchedq import (DispersionLaw, FoldedGrid, LineGrid, MultiWave,
                       OperatorMatrix, QuadraticPotential, StencilSymbol,
                       build_dual_wire_hamiltonian, build_folded_hamiltonian,
                       continuity_residual, junction_flux_residual,
                       probability_current, propagate)
from branchedq.operators import gershgorin_bound

LAW = DispersionLaw(kappa=3.0)


def _line_operator(n=24, seed=0, scale=1.0):
    g = LineGrid(-1.0, 1.0, n)
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    H = scale * 0.5 * (A + A.conj().T)
    return OperatorMatrix(H, g), g


def test_gaussian_packet_is_normalized():
    g = FoldedGrid(LAW, 40, 60)
    w = MultiWave.gaussian(g, -4.0, 1.0, boost=0.7)
    assert w.norm() == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        MultiWave(g, np.zeros(g.size + 1))
    with pytest.raises(ValueError):
        MultiWave.gaussian(g, -4.0, 0.0)


def test_cayley_step_is_exactly_unitary():
    op, g = _line_operator(scale=0.2)
    wave = MultiWave(g, np.exp(-np.linspace(-2, 2, g.size) ** 2))
    wave.data /= wave.norm()
    final, rep = propagate(op, wave, dt=0.05, steps=50)
    assert rep.norm_drift < 1e-13
    assert np.max(np.abs(rep.energies - rep.energies[0])) < \
        1e-12 * max(1.0, abs(rep.energies[0]))
    # the input wave must be left untouched
    assert wave.time == 0.0 and wave.norm() == pytest.approx(1.0, abs=1e-12)


def test_diagonal_hamiltonian_phases_are_cayley_exact():
    """For diag(H) each node evolves by ((1-i dt v/2)/(1+i dt v/2))^n."""
    g = LineGrid(-2.0, 2.0, 16)
    v = 1.0 + 0.3 * g.x**2
    op = build_dual_wire_hamiltonian(StencilSymbol(), lambda x: 1.0 + 0.3 * x**2, g)
    psi0 = np.full(g.size, 1.0 / np.sqrt(g.size * g.h), dtype=complex)
    wave = MultiWave(g, psi0)
    dt, steps = 0.07, 9
    final, _ = propagate(op, wave, dt, steps)
    r = (1.0 - 0.5j * dt * v) / (1.0 + 0.5j * dt * v)
    assert np.max(np.abs(final.data - r**steps * psi0)) < 1e-13
    assert final.time == pytest.approx(dt * steps)


def test_second_order_accuracy_in_dt():
    op, g = _line_operator(n=16, seed=4, scale=0.5)
    H = op.matrix
    psi0 = np.exp(-np.linspace(-2, 2, 16) ** 2).astype(complex)
    psi0 /= np.linalg.norm(psi0)
    wave = MultiWave(g, psi0)
    T = 0.8
    exact = scipy.linalg.expm(-1j * T * H) @ psi0
    errs = []
    for steps in (20, 40):
        final, _ = propagate(op, wave, T / steps, steps)
        errs.append(np.linalg.norm(final.data - exact))
    ratio = errs[0] / errs[1]
    assert 3.0 < ratio < 5.0, f"dt-halving error ratio {ratio}"


_COEFF = st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False)


@settings(max_examples=40, deadline=None)
@given(sym=st.builds(StencilSymbol, _COEFF, _COEFF, _COEFF, _COEFF),
       n_inner=st.integers(4, 24), n_arm=st.integers(5, 24))
def test_sparse_crank_nicolson_is_unitary_and_matches_dense(sym, n_inner, n_arm):
    """splu on the sparse folded operator and dense LU on its dense copy
    take the same 20 steps."""
    g = FoldedGrid(LAW, n_inner, n_arm)
    op = build_folded_hamiltonian(LAW, g, sym)
    dense = OperatorMatrix(op.matrix.toarray(), g, symbol=op.symbol)
    wave = MultiWave.gaussian(g, g.u[g.size // 2], 0.25 * (g.u[-1] - g.u[0]),
                              boost=0.5)
    dt = 0.4 / gershgorin_bound(op)
    final, rep = propagate(op, wave, dt, 20)
    ref, _ = propagate(dense, wave, dt, 20)
    assert rep.norm_drift < 1e-12
    assert np.max(np.abs(final.data - ref.data)) < 1e-12


def test_stability_budget_guard():
    op, g = _line_operator(n=16, seed=2, scale=50.0)
    wave = MultiWave(g, np.ones(16))
    with pytest.raises(ValueError):
        propagate(op, wave, dt=1.0, steps=1)
    final, _ = propagate(op, wave, dt=1.0, steps=1, stability_budget=None)
    assert np.isfinite(final.data).all()
    with pytest.raises(ValueError):
        propagate(op, wave, dt=0.1, steps=0, stability_budget=None)


def test_snapshot_schedule():
    op, g = _line_operator(n=16, seed=3, scale=0.1)
    wave = MultiWave(g, np.ones(16, dtype=complex))
    _, rep = propagate(op, wave, dt=0.01, steps=10, snapshot_every=4)
    times = [s.time for s in rep.snapshots]
    assert times == pytest.approx([0.0, 0.04, 0.08, 0.10])
    assert rep.flux_residuals is None  # not a folded grid


@pytest.mark.parametrize("storage", ["sparse", "dense"])
def test_every_step_snapshots_equal_chained_single_steps(storage):
    """One factorization for all steps gives the chained steps' bits."""
    if storage == "sparse":
        g = FoldedGrid(LAW, 8, 36)
        op = build_folded_hamiltonian(LAW, g, QuadraticPotential(1.0))
        wave = MultiWave.gaussian(g, -10.0, 1.0, boost=0.5)
    else:
        op, g = _line_operator(n=16, seed=4, scale=0.1)
        wave = MultiWave(g, np.exp(-np.linspace(-2, 2, g.size) ** 2) + 0j)
    _, rep = propagate(op, wave, 1e-3, 6, snapshot_every=1,
                       stability_budget=None)
    chained = [wave]
    for _ in range(6):
        nxt, _ = propagate(op, chained[-1], 1e-3, 1, stability_budget=None)
        chained.append(nxt)
    assert len(rep.snapshots) == len(chained)
    for snap, step in zip(rep.snapshots, chained):
        assert np.array_equal(snap.data, step.data)


def test_plane_wave_current_is_the_group_velocity():
    sym = StencilSymbol(0.8, -0.3, 1.1, 0.4)
    h = 0.02
    u = h * np.arange(400)
    k = 0.4
    psi = np.exp(1j * k * u)
    j = probability_current(psi, h, sym)
    group = 4.0 * 0.8 * k**3 + 3.0 * (-0.3) * k**2 + 2.0 * 1.1 * k + 0.4
    mid = slice(4, -4)
    assert np.max(np.abs(j[mid] - group)) < 5e-4 * abs(group)


def test_folded_propagation_tracks_junction_flux():
    # residual scale rides on the packet amplitude at the junctions, so
    # the packet starts a few widths out on the branch-1 arm
    g = FoldedGrid(LAW, 40, 80)
    op = build_folded_hamiltonian(LAW, g, QuadraticPotential(1.0))
    wave = MultiWave.gaussian(g, -8.0, 1.0, boost=0.5)
    dt = 1e-3
    final, rep = propagate(op, wave, dt, 200)
    assert rep.flux_residuals.shape == (201, 2)
    assert rep.norm_drift < 1e-12
    assert rep.max_flux_residual < 1e-8


def test_junction_flux_requirements():
    g = LineGrid(-1.0, 1.0, 16)
    with pytest.raises(TypeError):
        junction_flux_residual(np.ones(16), g, StencilSymbol(0, 0, 1, 0))
    short = FoldedGrid(LAW, 4, 4)
    quartic = StencilSymbol.from_quartic_potential(0.1, 0.2, 0.3)
    with pytest.raises(ValueError):
        junction_flux_residual(np.ones(short.size), short, quartic)


def test_continuity_residual_scales_as_h_squared():
    def peak(n_inner, n_arm, dt):
        g = FoldedGrid(LAW, n_inner, n_arm)
        op = build_folded_hamiltonian(LAW, g, QuadraticPotential(1.0))
        wave = MultiWave.gaussian(g, -5.0, 1.2, boost=0.4)
        final, _ = propagate(op, wave, dt, 1, stability_budget=None)
        res = continuity_residual(op, wave.data, final.data, dt)
        return float(np.max(np.abs(res)))

    coarse = peak(20, 40, 1e-3)
    fine = peak(40, 79, 1e-3)
    assert 2.8 < coarse / fine < 5.5, f"h-halving ratio {coarse / fine}"
    # by the midpoint identity the defect is spatial: dt barely matters
    assert peak(20, 40, 5e-4) == pytest.approx(coarse, rel=0.3)


def test_continuity_needs_a_stencil_symbol():
    op, g = _line_operator(n=16)
    with pytest.raises(ValueError):
        continuity_residual(op, np.ones(16), np.ones(16), 0.1)


# The per-state diagnostics that propagate evaluated before it checked
# states in blocks, kept verbatim: the blocked evaluation must give their
# bits.
_EDGES = (np.array([3.0, -4.0, 1.0]) / 2.0, np.array([2.0, -5.0, 4.0, -1.0]),
          np.array([5.0, -18.0, 24.0, -14.0, 3.0]) / 2.0)


def _one_sided_per_state(values, h, toward):
    v = np.asarray(values, dtype=complex)
    if toward == "left":
        v = v[::-1]
        s = 1.0
    else:
        s = -1.0
    d1 = s * (_EDGES[0] @ v[:3]) / h
    d2 = (_EDGES[1] @ v[:4]) / h**2 if v.size >= 4 else 0.0
    d3 = s * (_EDGES[2] @ v[:5]) / h**3 if v.size >= 5 else 0.0
    return v[0], d1, d2, d3


def _current_per_state(psi, d1, d2, d3, symbol):
    j = 0.0
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


def _flux_per_state(v, grid, symbol):
    need = 5 if (symbol.c4 != 0.0 or symbol.c3 != 0.0) else 3
    out = np.empty(2)
    for k, J in enumerate((grid.junction_plus, grid.junction_minus)):
        left = _one_sided_per_state(v[J - need + 1:J + 1], grid.h, "left")
        right = _one_sided_per_state(v[J:J + need], grid.h, "right")
        out[k] = (_current_per_state(*left, symbol)
                  - _current_per_state(*right, symbol))
    return out


def _diagnostics_per_state(op, states):
    H, grid = op.matrix, op.grid
    norms, energies, flux = [], [], []
    for v in states:
        norms.append(np.sqrt(grid.h * np.sum(np.abs(v) ** 2)))
        num = np.real(np.vdot(v, H @ v))
        energies.append(num / np.vdot(v, v).real)
        if isinstance(grid, FoldedGrid):
            flux.append(_flux_per_state(v, grid, op.symbol))
    return (np.array(norms), np.array(energies),
            np.array(flux) if flux else None)


def _quartic_folded():
    g = FoldedGrid(LAW, 8, 36)
    symbol = StencilSymbol.from_quartic_potential(0.3, 0.5, 0.2).scaled(0.01)
    return build_folded_hamiltonian(LAW, g, symbol), -9.0, 0.5


def _quadratic_folded():
    # The packet reaches the junction within the run, so the flux is not
    # all noise.
    g = FoldedGrid(LAW, 12, 24)
    return build_folded_hamiltonian(LAW, g, QuadraticPotential(1.0)), -3.0, 2.0


def _line():
    g = LineGrid(-12.0, 12.0, 96)
    op = build_dual_wire_hamiltonian(StencilSymbol(0.0, 0.0, 0.5, 0.0),
                                     lambda x: 0.5 * x**2, g)
    return op, -2.0, 1.0


def _line_dense():
    op, _, _ = _line()
    return OperatorMatrix(op.matrix.toarray(), op.grid), -2.0, 1.0


@pytest.mark.parametrize("steps", [1, 63, 64, 65, 130])
@pytest.mark.parametrize("case", [_quadratic_folded, _quartic_folded, _line,
                                  _line_dense],
                         ids=["folded-quadratic", "folded-quartic", "line",
                              "line-dense"])
def test_blocked_diagnostics_keep_the_per_state_bits(case, steps):
    op, center, boost = case()
    wave = MultiWave.gaussian(op.grid, center, 1.0, boost=boost)
    _, rep = propagate(op, wave, 2e-3, steps, snapshot_every=1,
                       stability_budget=None)
    norms, energies, flux = _diagnostics_per_state(
        op, [snap.data for snap in rep.snapshots])
    assert rep.norms.tobytes() == norms.tobytes()
    assert rep.energies.tobytes() == energies.tobytes()
    if flux is None:
        assert rep.flux_residuals is None
    else:
        assert rep.flux_residuals.tobytes() == flux.tobytes()
        assert np.any(flux != 0.0)


@pytest.mark.parametrize("case", [_quadratic_folded, _quartic_folded],
                         ids=["folded-quadratic", "folded-quartic"])
def test_junction_flux_of_a_block_is_that_of_its_rows(case):
    op, center, boost = case()
    wave = MultiWave.gaussian(op.grid, center, 1.0, boost=boost)
    _, rep = propagate(op, wave, 2e-3, 40, snapshot_every=1,
                       stability_budget=None)
    block = np.array([snap.data for snap in rep.snapshots])
    rows = junction_flux_residual(block, op.grid, op.symbol)
    assert rows.shape == (41, 2)
    for v, row in zip(block, rows):
        single = junction_flux_residual(v, op.grid, op.symbol)
        assert single.shape == (2,)
        assert single.tobytes() == row.tobytes()
        assert single.tobytes() == _flux_per_state(v, op.grid,
                                                   op.symbol).tobytes()


@pytest.mark.parametrize("symbol", [
    StencilSymbol.from_quartic_potential(0.3, 0.5, 0.2),
    StencilSymbol(0.0, 1.0, 0.0, 0.0)], ids=["quartic", "c3"])
def test_junction_flux_of_random_blocks_keeps_the_per_state_bits(symbol):
    # Enough rows that an array square of |d1| in place of libm pow(x, 2)
    # would move some bits (it rounds about 1 in 1,000 values otherwise).
    grid = FoldedGrid(LAW, 4, 5)
    rng = np.random.default_rng(7)
    scale = 10.0 ** rng.uniform(-8.0, 2.0, size=(5000, 1))
    block = scale * (rng.standard_normal((5000, grid.size))
                     + 1j * rng.standard_normal((5000, grid.size)))
    rows = junction_flux_residual(block, grid, symbol)
    per_state = np.array([_flux_per_state(v, grid, symbol) for v in block])
    assert rows.tobytes() == per_state.tobytes()
