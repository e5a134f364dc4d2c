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

from branchedq import (DispersionLaw, FoldedGrid, LineGrid, OperatorMatrix,
                       QuadraticPotential, StencilSymbol,
                       build_dual_wire_hamiltonian, build_folded_hamiltonian,
                       continuity_residual, gaussian_packet,
                       junction_flux_residual, probability_current, propagate)
from branchedq import evolution
from branchedq.operators import gershgorin_bound

LAW = DispersionLaw(kappa=3.0)


def _line_operator(n=24, seed=0, scale=1.0):
    g = LineGrid(-1.0, 1.0, n)
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    H = scale * 0.5 * (A + A.conj().T)
    return OperatorMatrix(H, g), g


def _norm(grid, psi):
    return np.sqrt(grid.h * np.sum(np.abs(psi) ** 2))


def test_gaussian_packet_is_normalized():
    g = FoldedGrid(LAW, 40, 60)
    psi = gaussian_packet(g, -4.0, 1.0, boost=0.7)
    assert psi.shape == (g.size,) and psi.dtype == complex
    assert _norm(g, psi) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        gaussian_packet(g, -4.0, 0.0)


def test_cayley_step_is_exactly_unitary():
    op, g = _line_operator(scale=0.2)
    psi0 = np.exp(-np.linspace(-2, 2, g.size) ** 2) + 0j
    psi0 /= _norm(g, psi0)
    kept = psi0.copy()
    final, rep = propagate(op, psi0, dt=0.05, steps=50)
    assert rep.norm_drift < 1e-13
    assert np.max(np.abs(rep.energies - rep.energies[0])) < \
        1e-12 * max(1.0, abs(rep.energies[0]))
    # the input state must be left untouched
    assert np.array_equal(psi0, kept)


def test_diagonal_hamiltonian_phases_are_cayley_exact():
    """For diag(H) each node evolves by ((1-i dt v/2)/(1+i dt v/2))^n."""
    g = LineGrid(-2.0, 2.0, 16)
    v = 1.0 + 0.3 * g.x**2
    op = build_dual_wire_hamiltonian(StencilSymbol(), lambda x: 1.0 + 0.3 * x**2, g)
    psi0 = np.full(g.size, 1.0 / np.sqrt(g.size * g.h), dtype=complex)
    dt, steps = 0.07, 9
    final, rep = propagate(op, psi0, dt, steps)
    r = (1.0 - 0.5j * dt * v) / (1.0 + 0.5j * dt * v)
    assert np.max(np.abs(final - r**steps * psi0)) < 1e-13
    assert rep.times[-1] == pytest.approx(dt * steps)


def test_second_order_accuracy_in_dt():
    op, g = _line_operator(n=16, seed=4, scale=0.5)
    H = op.matrix
    psi0 = np.exp(-np.linspace(-2, 2, 16) ** 2).astype(complex)
    psi0 /= np.linalg.norm(psi0)
    T = 0.8
    exact = scipy.linalg.expm(-1j * T * H) @ psi0
    errs = []
    for steps in (20, 40):
        final, _ = propagate(op, psi0, T / steps, steps)
        errs.append(np.linalg.norm(final - exact))
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
    psi0 = gaussian_packet(g, g.u[g.size // 2], 0.25 * (g.u[-1] - g.u[0]),
                           boost=0.5)
    dt = 0.4 / gershgorin_bound(op.matrix)
    final, rep = propagate(op, psi0, dt, 20)
    ref, _ = propagate(dense, psi0, dt, 20)
    assert rep.norm_drift < 1e-12
    assert np.max(np.abs(final - ref)) < 1e-12


def test_stability_budget_guard():
    op, g = _line_operator(n=16, seed=2, scale=50.0)
    psi0 = np.ones(16)
    with pytest.raises(ValueError):
        propagate(op, psi0, dt=1.0, steps=1)
    final, _ = propagate(op, psi0, dt=1.0, steps=1, stability_budget=None)
    assert np.isfinite(final).all()
    with pytest.raises(ValueError):
        propagate(op, psi0, dt=0.1, steps=0, stability_budget=None)
    with pytest.raises(ValueError, match="one value per grid node"):
        propagate(op, np.ones(17), dt=0.1, steps=1, stability_budget=None)


def test_snapshot_schedule():
    op, g = _line_operator(n=16, seed=3, scale=0.1)
    psi0 = np.ones(16, dtype=complex)
    _, rep = propagate(op, psi0, dt=0.01, steps=10, snapshot_every=4)
    assert rep.snapshot_times == pytest.approx([0.0, 0.04, 0.08, 0.10])
    assert rep.snapshots.shape == (4, 16)
    assert rep.flux_residuals is None  # not a folded grid
    _, rep = propagate(op, psi0, dt=0.01, steps=10)
    assert rep.snapshot_times.shape == (0,) and rep.snapshots.shape == (0, 16)


@pytest.mark.parametrize("storage", ["sparse", "dense"])
def test_every_step_snapshots_equal_chained_single_steps(storage):
    """One factorization for all steps gives the chained steps' bits."""
    if storage == "sparse":
        g = FoldedGrid(LAW, 8, 36)
        op = build_folded_hamiltonian(LAW, g, QuadraticPotential(1.0))
        psi0 = gaussian_packet(g, -10.0, 1.0, boost=0.5)
    else:
        op, g = _line_operator(n=16, seed=4, scale=0.1)
        psi0 = np.exp(-np.linspace(-2, 2, g.size) ** 2) + 0j
    _, rep = propagate(op, psi0, 1e-3, 6, snapshot_every=1,
                       stability_budget=None)
    assert rep.solver == {"sparse": "splu", "dense": "lu"}[storage]
    chained = [psi0]
    for _ in range(6):
        nxt, _ = propagate(op, chained[-1], 1e-3, 1, stability_budget=None)
        chained.append(nxt)
    assert len(rep.snapshots) == len(chained)
    for snap, step in zip(rep.snapshots, chained):
        assert np.array_equal(snap, step)


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
    psi0 = gaussian_packet(g, -8.0, 1.0, boost=0.5)
    dt = 1e-3
    final, rep = propagate(op, psi0, dt, 200)
    assert rep.flux_residuals.shape == (201, 2)
    assert rep.norm_drift < 1e-12
    assert rep.max_flux_residual < 1e-8


_QUARTIC = StencilSymbol.from_quartic_potential(0.3, 0.5, 0.2).scaled(0.01)


def _crossing_packet(V, flip_reversed_branch=True):
    """A packet pushed through the p = q_+ junction on three grids.

    Returns the h-orders of the max flux residual between successive
    grids, the largest norm drift, and the share of the final packet on
    branches 2 and 3 of the finest grid.
    """
    flux, drift = [], []
    for n_inner, n_arm in ((40, 140), (80, 279), (160, 557)):
        g = FoldedGrid(LAW, n_inner, n_arm)
        op = build_folded_hamiltonian(LAW, g, V,
                                      flip_reversed_branch=flip_reversed_branch)
        psi0 = gaussian_packet(g, -4.0, 1.0, boost=3.0)
        final, rep = propagate(op, psi0, 1e-3, 1000, stability_budget=None)
        flux.append(rep.max_flux_residual)
        drift.append(rep.norm_drift)
        rho = np.abs(final) ** 2
        crossed = rho[g.branch != 1].sum() / rho.sum()
    return np.log2(np.divide(flux[:-1], flux[1:])), max(drift), crossed


def _converges_unitarily(orders, drift):
    return orders[-1] >= 2.7 and drift < 1e-10


@pytest.mark.parametrize("V", [QuadraticPotential(1.0), _QUARTIC],
                         ids=["quadratic", "quartic"])
def test_packet_crossing_a_junction_converges_unitarily(V):
    """Measured orders 2.97, 2.99 (quadratic) and 2.87, 2.94 (quartic),
    with norm drift at most 2e-13."""
    orders, drift, crossed = _crossing_packet(V)
    assert crossed > 0.5
    assert _converges_unitarily(orders, drift), (orders, drift)


def test_unflipped_branch_breaks_junction_crossing():
    """Without the odd-coefficient flip on branch 2 the quartic operator is
    not Hermitian: drift 3.4e-2 and orders 2.58, 2.44 fail the gate.  The
    quadratic symbol has no odd part, so it cannot serve as the control."""
    orders, drift, _ = _crossing_packet(_QUARTIC, flip_reversed_branch=False)
    assert not _converges_unitarily(orders, drift)


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
        psi0 = gaussian_packet(g, -5.0, 1.2, boost=0.4)
        final, _ = propagate(op, psi0, dt, 1, stability_budget=None)
        res = continuity_residual(op, psi0, final, dt)
        return float(np.max(np.abs(res)))

    coarse = peak(20, 40, 1e-3)
    fine = peak(40, 79, 1e-3)
    assert 2.8 < coarse / fine < 5.5, f"h-halving ratio {coarse / fine}"
    # by the midpoint identity the defect is spatial: dt barely matters
    assert peak(20, 40, 5e-4) == pytest.approx(coarse, rel=0.3)


def test_zero_symbol_carries_zero_current():
    # A free particle: E(p) alone, diagonal on the folded grid.
    g = FoldedGrid(LAW, 12, 24)
    op = build_folded_hamiltonian(LAW, g, QuadraticPotential(0.0))
    assert op.symbol.is_zero()
    psi0 = gaussian_packet(g, -3.0, 1.0, boost=0.5)
    final, rep = propagate(op, psi0, 1e-3, 1)
    assert np.array_equal(probability_current(final, g.h, op.symbol),
                          np.zeros(g.size))
    res = continuity_residual(op, psi0, final, 1e-3)
    rho_rate = (np.abs(final) ** 2 - np.abs(psi0) ** 2) / 1e-3
    assert np.array_equal(res, rho_rate[4:-4])
    assert np.array_equal(rep.flux_residuals, np.zeros((2, 2)))


def test_continuity_needs_a_stencil_symbol():
    op, g = _line_operator(n=16)
    with pytest.raises(ValueError):
        continuity_residual(op, np.ones(16), np.ones(16), 0.1)


# The per-state diagnostics that propagate evaluated before it checked
# states in blocks, kept verbatim as the reference: the blocked evaluation
# must agree with them to a few rounding errors of their terms.
_EPS = np.finfo(float).eps
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


def _flux_scale_per_state(v, grid, symbol):
    """The largest term of `_flux_per_state` at each junction, with each
    derivative bounded by its stencil's sum of |weight| |value|: the scale
    of the residual's rounding."""
    c4, c3, c2, c1 = (abs(symbol.c4), abs(symbol.c3), abs(symbol.c2),
                      abs(symbol.c1))
    need = 5 if (c4 != 0.0 or c3 != 0.0) else 3
    out = np.zeros(2)
    for k, J in enumerate((grid.junction_plus, grid.junction_minus)):
        left, right = v[J - need + 1:J + 1][::-1], v[J:J + need]
        for side in (np.abs(left), np.abs(right)):
            d1, d2, d3 = (np.abs(w) @ side[:w.size] / grid.h**(i + 1)
                          if w.size <= need else 0.0
                          for i, w in enumerate(_EDGES))
            f = side[0]
            out[k] = max(out[k], 2.0 * c4 * f * d3, 2.0 * c4 * d1 * d2,
                         2.0 * c3 * f * d2, c3 * d1**2, 2.0 * c2 * f * d1,
                         c1 * f**2)
    return out


def _assert_flux_near_per_state(rows, states, grid, symbol):
    per_state = np.array([_flux_per_state(v, grid, symbol) for v in states])
    scale = np.array([_flux_scale_per_state(v, grid, symbol)
                      for v in states])
    assert np.all(np.abs(rows - per_state) <= 4.0 * _EPS * scale)


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


# The steps of each run as they fall at 64-row blocks: one state, one full
# block, and one, two and three states past a block edge.  Each run takes
# the same place against the edges of the blocks that propagate uses.
@pytest.mark.parametrize("steps", [1, 63, 64, 65, 130])
@pytest.mark.parametrize("case", [_quadratic_folded, _quartic_folded, _line,
                                  _line_dense],
                         ids=["folded-quadratic", "folded-quartic", "line",
                              "line-dense"])
def test_blocked_diagnostics_keep_the_per_state_bits(case, steps):
    """The norms keep the per-state bits; the energies and flux residuals
    agree with the per-state formulas to a few rounding errors."""
    op, center, boost = case()
    rows = evolution._block_rows(op.grid.size)
    steps += (rows - 64) * ((steps + 1) // 64)
    psi0 = gaussian_packet(op.grid, center, 1.0, boost=boost)
    _, rep = propagate(op, psi0, 2e-3, steps, snapshot_every=1,
                       stability_budget=None)
    V = rep.snapshots
    norms, energies, flux = _diagnostics_per_state(op, V)
    assert rep.norms.tobytes() == norms.tobytes()
    # <v|H|v>/<v|v> rounds within a few eps of <|v|, |H| |v|>/<v|v>.
    scale = (np.sum(np.abs(V) * (np.abs(V) @ abs(op.matrix).T), axis=1)
             / np.sum(np.abs(V) ** 2, axis=1))
    assert np.all(np.abs(rep.energies - energies) <= 4.0 * _EPS * scale)
    if flux is None:
        assert rep.flux_residuals is None
    else:
        _assert_flux_near_per_state(rep.flux_residuals, V, op.grid,
                                    op.symbol)
        assert np.any(flux != 0.0)


@pytest.mark.parametrize("case", [_quadratic_folded, _quartic_folded],
                         ids=["folded-quadratic", "folded-quartic"])
def test_sparse_diagnostics_keep_their_bits_at_any_block_size(case,
                                                               monkeypatch):
    """A sparse H @ V.T computes each column on its own and the sums run
    along rows, so the block size moves no bit of a sparse run."""
    op, center, boost = case()
    psi0 = gaussian_packet(op.grid, center, 1.0, boost=boost)

    def run(rows):
        monkeypatch.setattr(evolution, "_BLOCK_BYTES",
                            rows * 5 * 16 * op.grid.size)
        assert evolution._block_rows(op.grid.size) == rows
        return propagate(op, psi0, 2e-3, 100, snapshot_every=7,
                         stability_budget=None)

    (final, rep), (final5, rep5) = run(64), run(5)
    assert final.tobytes() == final5.tobytes()
    for name in ("norms", "energies", "flux_residuals", "snapshots"):
        assert getattr(rep, name).tobytes() == getattr(rep5, name).tobytes()


@pytest.mark.parametrize("case", [_quadratic_folded, _quartic_folded],
                         ids=["folded-quadratic", "folded-quartic"])
def test_junction_flux_of_a_block_is_that_of_its_rows(case):
    op, center, boost = case()
    psi0 = gaussian_packet(op.grid, center, 1.0, boost=boost)
    _, rep = propagate(op, psi0, 2e-3, 40, snapshot_every=1,
                       stability_budget=None)
    block = rep.snapshots
    rows = junction_flux_residual(block, op.grid, op.symbol)
    assert rows.shape == (41, 2)
    for v, row in zip(block, rows):
        single = junction_flux_residual(v, op.grid, op.symbol)
        assert single.shape == (2,)
        assert single.tobytes() == row.tobytes()
    _assert_flux_near_per_state(rows, block, op.grid, op.symbol)


@pytest.mark.parametrize("symbol", [
    StencilSymbol.from_quartic_potential(0.3, 0.5, 0.2),
    StencilSymbol(0.0, 1.0, 0.0, 0.0)], ids=["quartic", "c3"])
def test_junction_flux_of_random_blocks_matches_the_per_state_formula(symbol):
    # Rows over ten decades of scale, with no smoothness to lean on.
    grid = FoldedGrid(LAW, 4, 5)
    rng = np.random.default_rng(7)
    scale = 10.0 ** rng.uniform(-8.0, 2.0, size=(5000, 1))
    block = scale * (rng.standard_normal((5000, grid.size))
                     + 1j * rng.standard_normal((5000, grid.size)))
    rows = junction_flux_residual(block, grid, symbol)
    _assert_flux_near_per_state(rows, block, grid, symbol)
    assert all(junction_flux_residual(v, grid, symbol).tobytes()
               == row.tobytes() for v, row in zip(block, rows))
