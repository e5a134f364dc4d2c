"""Eigensolvers and the two eigenstate characterizations.

The two-level system diag(0, 1) is small enough to carry exact values:
the equal superposition has variance 1/4, stationarity gap 1/2, and its
largest probe-commutator residual is exactly 1.
"""

import logging
import re

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

import branchedq.spectra
from branchedq import (ConvergenceError, DispersionLaw, FoldedGrid, LineGrid,
                       NonHermitianError, OperatorMatrix, QuarticPotential,
                       StencilSymbol, build_dual_wire_hamiltonian,
                       build_folded_hamiltonian, graph_hamiltonian,
                       newton_refine, solve_eigensystem, star_graph,
                       stationarity_residual, variance_minimize)
from branchedq.acceptance import criterion_eigen_characterizations
from branchedq.operators import gershgorin_bound

TWO = OperatorMatrix(np.diag([0.0, 1.0]), None)
PLUS = np.array([1.0, 1.0]) / np.sqrt(2.0)


def _stationarity_gap(H, psi):
    """||H psi - <H> psi||, the quantity the probe family triangulates."""
    chi = H @ psi
    mean = np.real(np.vdot(psi, chi))
    return float(np.linalg.norm(chi - mean * psi))


def _variance_pair_residual(H, O, psi):
    """<H^2><O O*> + <H O O* H> - <H><{H, O O*}>, zero in eigenstates."""
    OOd = O @ O.conj().T
    hpsi = H @ psi
    h2 = np.real(np.vdot(hpsi, hpsi))
    e = np.real(np.vdot(psi, hpsi))
    oo = np.real(np.vdot(psi, OOd @ psi))
    hooh = np.real(np.vdot(hpsi, OOd @ hpsi))
    anti = np.real(np.vdot(hpsi, OOd @ psi) + np.vdot(psi, OOd @ hpsi))
    return float(h2 * oo + hooh - e * anti)


def test_two_level_eigensystem():
    res = solve_eigensystem(TWO)
    assert np.allclose(res.eigenvalues, [0.0, 1.0])
    assert np.max(res.residuals) < 1e-14
    assert np.allclose(np.abs(res.eigenvectors), np.eye(2), rtol=0.0,
                       atol=1e-14)


def _spectral_tol(op):
    return 64.0 * np.finfo(float).eps * gershgorin_bound(op.matrix)


def test_dirichlet_laplacian_closed_form():
    """Discrete -d^2 spectrum is 2(1 - cos(m pi/(n+1)))/h^2 exactly.

    The solver path follows storage and the share of the spectrum asked
    for: sparse with 20 k <= n takes shift-invert, everything else eigh,
    and both agree with the dense values within 64 eps ||H||_inf.
    """
    n = 40
    g = LineGrid(0.0, np.pi, n)
    op = build_dual_wire_hamiltonian(StencilSymbol(0, 0, 1.0, 0), None, g)
    res = solve_eigensystem(op)
    assert res.solver == "eigh"
    m = np.arange(1, n + 1)
    exact = (2.0 - 2.0 * np.cos(m * np.pi / (n + 1))) / g.h**2
    assert np.max(np.abs(res.eigenvalues - exact)) < 1e-11 * exact[-1]

    dense = OperatorMatrix(op.matrix.toarray(), g)
    for operator, k, solver in ((op, 2, "shift-invert"), (op, 3, "eigh"),
                                (dense, 2, "eigh")):
        part = solve_eigensystem(operator, k=k)
        assert part.solver == solver
        assert np.max(np.abs(part.eigenvalues - res.eigenvalues[:k])) <= \
            _spectral_tol(op)


def test_lowest_k_subset():
    H = np.diag(np.arange(10.0))
    res = solve_eigensystem(OperatorMatrix(H, None), k=3)
    assert res.eigenvalues.size == 3
    assert np.allclose(res.eigenvalues, [0.0, 1.0, 2.0])
    assert res.eigenvectors.shape == (10, 3)


def test_shift_invert_keeps_degenerate_pairs():
    """The star graph's sin modes come in exactly degenerate pairs; a
    symmetric Lanczos start would see only one state of each pair."""
    op = graph_hamiltonian(star_graph(3, 1.0), 300)
    res = solve_eigensystem(op, k=6)
    assert res.solver == "shift-invert"
    dense = np.linalg.eigvalsh(op.matrix.toarray())[:6]
    assert np.max(np.abs(res.eigenvalues - dense)) <= _spectral_tol(op)
    assert abs(res.eigenvalues[1] - res.eigenvalues[2]) <= _spectral_tol(op)
    assert abs(res.eigenvalues[4] - res.eigenvalues[5]) <= _spectral_tol(op)
    assert np.max(res.residuals) <= _spectral_tol(op)


def test_uncertified_shift_invert_falls_back_to_dense(monkeypatch):
    """ARPACK values that skip a state fail the banded count check."""
    op = graph_hamiltonian(star_graph(3, 1.0), 300)
    real_eigsh = branchedq.spectra.eigsh

    def skipping_eigsh(A, k, **kwargs):
        w, v = real_eigsh(A, k=k + 2, **kwargs)
        order = np.argsort(w)
        # Drop the first degenerate pair and let the next pair in: k
        # genuine eigenvalues, two of the lowest k missing.
        keep = np.delete(order, [1, 2])[:k]
        return w[keep], v[:, keep]

    monkeypatch.setattr(branchedq.spectra, "eigsh", skipping_eigsh)
    res = solve_eigensystem(op, k=6)
    assert res.solver == "eigh-fallback"
    dense = np.linalg.eigvalsh(op.matrix.toarray())[:6]
    assert np.max(np.abs(res.eigenvalues - dense)) <= _spectral_tol(op)


def test_shift_invert_columns_are_orthonormal():
    """Complex Hermitian input reaches ARPACK's non-Hermitian Arnoldi;
    the columns handed back must still be orthonormal (C3's quartic
    folded operator, N = 2000)."""
    law = DispersionLaw(kappa=3.0)
    fg = FoldedGrid(law, 501, 750)
    op = build_folded_hamiltonian(law, fg, QuarticPotential(0.4, 0.3, 0.2))
    res = solve_eigensystem(op, k=10)
    assert res.solver == "shift-invert"
    V = res.eigenvectors
    assert np.max(np.abs(V.conj().T @ V - np.eye(10))) <= 1e-13


def _small_operators():
    law = DispersionLaw(kappa=3.0)
    return {
        "folded-quartic": build_folded_hamiltonian(
            law, FoldedGrid(law, 21, 30), QuarticPotential(0.4, 0.3, 0.2)),
        "star": graph_hamiltonian(star_graph(3, 1.0), 20),
        "clamped-box": build_dual_wire_hamiltonian(
            StencilSymbol(1, 0, 0, 0), None, LineGrid(0.0, np.pi, 60)),
    }


@pytest.mark.parametrize("name", ["folded-quartic", "star", "clamped-box"])
def test_inertia_count_matches_eigvalsh(name):
    """Negative LDL^H pivots count the eigenvalues below each shift placed
    between two distinct eigenvalues, and below and above the spectrum
    (the folded quartic is complex Hermitian)."""
    H = branchedq.spectra._checked_hermitian(_small_operators()[name])
    w = np.linalg.eigvalsh(H.toarray())
    distinct = np.diff(w) > 1e-6 * np.max(np.abs(w))
    shifts = np.concatenate([[w[0] - 1.0], 0.5 * (w[1:] + w[:-1])[distinct],
                             [w[-1] + 1.0]])
    P, _ = branchedq.spectra._rcm_band(H)
    floor = np.finfo(float).eps * gershgorin_bound(H)
    counts = [branchedq.spectra._negative_pivots(P, s, floor) for s in shifts]
    assert counts == [int(np.count_nonzero(w < s)) for s in shifts]


def test_pivot_guard_trips_on_an_eigenvalue():
    """The Dirichlet Laplacian tridiag(-1, 2, -1) on 101 nodes (h = 1) has
    the eigenvalue 2 exactly; at that shift the first LDL^H pivot is zero,
    so no count comes back."""
    g = LineGrid(0.0, 102.0, 101)
    op = build_dual_wire_hamiltonian(StencilSymbol(0, 0, 1.0, 0), None, g)
    H = branchedq.spectra._checked_hermitian(op)
    assert np.min(np.abs(np.linalg.eigvalsh(H.toarray()) - 2.0)) <= 1e-15
    P, _ = branchedq.spectra._rcm_band(H)
    floor = np.finfo(float).eps * gershgorin_bound(H)
    assert branchedq.spectra._negative_pivots(P, 2.0, floor) is None
    assert branchedq.spectra._negative_pivots(P, 2.1, floor) == 52
    # Every nonzero pivot within the floor trips the guard too.
    assert branchedq.spectra._negative_pivots(P, 2.1, np.inf) is None
    # On 100 nodes 2 is no eigenvalue, but the first pivot is still zero:
    # SuperLU swaps rows, and the pivots are no longer those of LDL^H.
    even = branchedq.spectra._checked_hermitian(build_dual_wire_hamiltonian(
        StencilSymbol(0, 0, 1.0, 0), None, LineGrid(0.0, 101.0, 100)))
    P, _ = branchedq.spectra._rcm_band(even)
    assert branchedq.spectra._negative_pivots(P, 2.0, floor) is None


def test_degenerate_pair_split_at_k_falls_back(caplog):
    """k = 5 on the star cuts its degenerate 4-5 pair: a sixth eigenvalue
    lies below theta_max + tol, so the count refuses the certificate."""
    op = graph_hamiltonian(star_graph(3, 1.0), 300)
    with caplog.at_level(logging.INFO, logger="branchedq"):
        res = solve_eigensystem(op, k=5)
    assert res.solver == "eigh-fallback"
    assert "6 eigenvalues below" in caplog.text and "expected 5" in caplog.text
    dense = np.linalg.eigvalsh(op.matrix.toarray())
    assert dense[5] - dense[4] <= _spectral_tol(op)
    assert np.max(np.abs(res.eigenvalues - dense[:5])) <= _spectral_tol(op)


def test_large_residuals_fall_back(monkeypatch, caplog):
    """Ritz pairs from a perturbed ARPACK basis miss the residual bound."""
    op = graph_hamiltonian(star_graph(3, 1.0), 300)
    real_eigsh = branchedq.spectra.eigsh

    def noisy_eigsh(A, k, **kwargs):
        w, v = real_eigsh(A, k=k, **kwargs)
        noise = np.random.default_rng(3).standard_normal(v.shape)
        return w, v + 1e-3 * noise

    monkeypatch.setattr(branchedq.spectra, "eigsh", noisy_eigsh)
    with caplog.at_level(logging.INFO, logger="branchedq"):
        res = solve_eigensystem(op, k=6)
    assert res.solver == "eigh-fallback"
    assert "residual margin" in caplog.text
    dense = np.linalg.eigvalsh(op.matrix.toarray())[:6]
    assert np.max(np.abs(res.eigenvalues - dense)) <= _spectral_tol(op)


def test_non_hermitian_rejected():
    with pytest.raises(NonHermitianError):
        solve_eigensystem(OperatorMatrix(np.array([[0.0, 1.0], [0.0, 0.0]]),
                                         None))


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_non_finite_entries_rejected(bad):
    """An infinite diagonal would make the Cholesky bracket of the lowest
    eigenvalue start at -inf and never narrow."""
    H = scipy.sparse.diags_array([np.arange(200.0)], offsets=[0],
                                 format="csr")
    H[7, 7] = bad
    with pytest.raises(ValueError, match="non-finite"):
        solve_eigensystem(OperatorMatrix(H, None), k=3)


def probe_family(n):
    """Reference probes as explicit dense Hermitian matrices.

    Site projectors P_i = |i><i|, then the hops X_i = |i><i+1| + |i+1><i|,
    then Y_i = -i|i><i+1| + i|i+1><i|: 3n - 2 probes in all.
    """
    probes = []
    for i in range(n):
        P = np.zeros((n, n), dtype=complex)
        P[i, i] = 1.0
        probes.append(P)
    for hop in (1.0, -1j):
        for i in range(n - 1):
            O = np.zeros((n, n), dtype=complex)
            O[i, i + 1] = hop
            O[i + 1, i] = np.conj(hop)
            probes.append(O)
    return probes


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 12), seed=st.integers(0, 2**32 - 1),
       sparse=st.booleans())
def test_stationarity_residual_matches_probe_commutators(n, seed, sparse):
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    H = 0.5 * (A + A.conj().T)
    if sparse:
        mask = rng.random((n, n)) < 0.4
        H = np.where(mask | mask.T, H, 0.0)
    psi = rng.normal(size=n) + 1j * rng.normal(size=n)
    psi /= np.linalg.norm(psi)
    op = OperatorMatrix(scipy.sparse.csr_array(H) if sparse else H, None)
    res = stationarity_residual(op, psi)
    assert res.shape == (3 * n - 2,)
    oracle = [abs(np.vdot(psi, (H @ O - O @ H) @ psi)) for O in probe_family(n)]
    assert np.max(np.abs(res - oracle)) <= 1e-13 * max(np.linalg.norm(H, 2),
                                                       1e-300)


def test_stationarity_residual_frozen_values():
    ground = np.array([1.0, 0.0])
    assert np.max(stationarity_residual(TWO, ground)) < 1e-14
    # equal superposition: the Y hop probe sees commutator expectation i
    res = stationarity_residual(TWO, PLUS)
    assert np.max(res) == pytest.approx(1.0, abs=1e-12)
    assert _stationarity_gap(TWO.matrix, PLUS) == pytest.approx(0.5, abs=1e-14)


def test_stationarity_requires_normalized_state():
    with pytest.raises(ValueError):
        stationarity_residual(TWO, np.array([2.0, 0.0]))


def test_variance_pair_identity():
    X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    assert _variance_pair_residual(TWO.matrix, X, np.array([1.0, 0.0])) == \
        pytest.approx(0.0, abs=1e-14)
    # O O* = 1 so the identity reduces to twice the variance: 2 * 1/4
    assert _variance_pair_residual(TWO.matrix, X, PLUS) == \
        pytest.approx(0.5, abs=1e-13)


def _noisy_start(vec, scale, seed):
    rng = np.random.default_rng(seed)
    noise = rng.normal(size=vec.size) + 1j * rng.normal(size=vec.size)
    out = vec + scale * noise
    return out / np.linalg.norm(out)


def test_newton_refine_recovers_eigenpair():
    rng = np.random.default_rng(5)
    A = rng.normal(size=(12, 12))
    op = OperatorMatrix(0.5 * (A + A.T), None)
    ref = solve_eigensystem(op)
    for idx in (0, 4):
        psi0 = _noisy_start(ref.eigenvectors[:, idx], 0.05, 100 + idx)
        E, psi = newton_refine(op, psi0, tol=1e-10)
        assert abs(E - ref.eigenvalues[idx]) < 1e-8
        assert abs(np.vdot(ref.eigenvectors[:, idx], psi)) > 0.999
        # the phase is anchored to the start: <psi0|psi> real and positive
        anchor = np.vdot(psi0, psi)
        assert abs(anchor.imag) <= 1e-14 and anchor.real > 0.0


def test_newton_refine_signals_divergence(monkeypatch):
    monkeypatch.setattr(branchedq.spectra, "_NEWTON_MAX_ITER", 1)
    rng = np.random.default_rng(6)
    A = rng.normal(size=(8, 8))
    op = OperatorMatrix(0.5 * (A + A.T), None)
    psi0 = _noisy_start(np.ones(8), 1.0, 7)
    with pytest.raises(ConvergenceError):
        newton_refine(op, psi0, tol=1e-12)


def test_newton_refine_reports_singular_step():
    """From the equal superposition of diag(-1, 1) the Schur complement
    psi^H (H - E)^-1 psi vanishes, so the bordered system is singular."""
    with pytest.raises(ConvergenceError, match="singular"):
        newton_refine(OperatorMatrix(np.diag([-1.0, 1.0]), None), PLUS)


def test_variance_minimize_recovers_eigenpair():
    rng = np.random.default_rng(8)
    A = rng.normal(size=(12, 12))
    op = OperatorMatrix(0.5 * (A + A.T), None)
    ref = solve_eigensystem(op)
    psi0 = _noisy_start(ref.eigenvectors[:, 2], 0.05, 9)
    E, psi = variance_minimize(op, psi0, tol=1e-9)
    gaps = np.abs(ref.eigenvalues - E)
    idx = int(np.argmin(gaps))
    assert gaps[idx] < 1e-6
    assert abs(np.vdot(ref.eigenvectors[:, idx], psi)) > 0.999


def test_variance_minimize_from_rough_start():
    """Far from any eigenvector the descent still drives var(H) below tol."""
    rng = np.random.default_rng(10)
    A = rng.normal(size=(10, 10))
    H = 0.5 * (A + A.T)
    psi0 = _noisy_start(np.ones(10), 0.3, 11)
    E, psi = variance_minimize(OperatorMatrix(H, None), psi0, tol=1e-9)
    hpsi = H @ psi
    var = np.real(np.vdot(hpsi, hpsi)) - np.real(np.vdot(psi, hpsi)) ** 2
    assert var < 1e-9
    assert np.min(np.abs(np.linalg.eigvalsh(H) - E)) < 1e-4


def test_variance_minimize_reports_stagnation():
    """Below the roundoff floor the variance stops decreasing."""
    rng = np.random.default_rng(10)
    A = rng.normal(size=(10, 10))
    H = 0.5 * (A + A.T)
    psi0 = _noisy_start(np.ones(10), 0.3, 11)
    with pytest.raises(ConvergenceError, match="stagnated"):
        variance_minimize(OperatorMatrix(H, None), psi0, tol=0.0)


def _iterations(caplog, what):
    return [int(re.search(r"after (\d+) iterations", r.getMessage()).group(1))
            for r in caplog.records if r.getMessage().startswith(what)]


def test_refiners_log_their_iterations(caplog):
    """C8's three variance starts converge in a few preconditioned steps
    (505-538 each without the preconditioner), and both refiners report
    their counts on the spectra logger."""
    with caplog.at_level(logging.INFO, logger="branchedq.spectra"):
        gates = criterion_eigen_characterizations()
    assert all(g.passed for g in gates), gates
    variance = _iterations(caplog, "variance minimization")
    assert len(variance) == 3 and max(variance) <= 30
    assert len(_iterations(caplog, "Newton refinement")) == 3


def test_variance_minimize_on_a_stiff_folded_quartic(monkeypatch):
    """On 399 nodes the plain variance gradient is too stiff: from this
    start, without the preconditioner, the recurrence is still at variance
    0.63 after 20,000 steps; 200 would end at 5e4.  The start is C8's
    kind, 5 % noise on the ground state."""
    law = DispersionLaw(kappa=3.0)
    fg = FoldedGrid(law, 100, 150)
    op = build_folded_hamiltonian(law, fg, QuarticPotential(0.4, 0.3, 0.2))
    assert fg.size == 399
    ref = solve_eigensystem(op, k=1)
    exact = ref.eigenvectors[:, 0]
    rng = np.random.default_rng(20260814)
    noise = rng.standard_normal(fg.size) + 1j * rng.standard_normal(fg.size)
    psi0 = exact + 0.05 * noise / np.linalg.norm(noise)
    monkeypatch.setattr(branchedq.spectra, "_VARIANCE_MAX_ITER", 200)
    E, psi = variance_minimize(op, psi0 / np.linalg.norm(psi0), tol=1e-8)
    assert abs(E - ref.eigenvalues[0]) < 1e-6
    assert abs(np.vdot(exact, psi)) > 0.999


def test_full_dense_spectrum_is_accurate_and_orthonormal():
    """The sweep-sized folded quartic (239 nodes, complex Hermitian): the
    divide-and-conquer driver keeps every residual within 8 eps ||H||inf
    and the columns orthonormal to 1e-13 (MRRR reached 19 eps ||H||inf)."""
    law = DispersionLaw(kappa=1.0)
    op = build_folded_hamiltonian(law, FoldedGrid(law, 60, 90),
                                  QuarticPotential(0.4, 0.3, 0.2))
    res = solve_eigensystem(op)
    assert res.solver == "eigh" and res.eigenvalues.size == 239
    eps_norm = np.finfo(float).eps * gershgorin_bound(op.matrix)
    assert np.max(res.residuals) <= 8.0 * eps_norm
    V = res.eigenvectors
    assert np.max(np.abs(V.conj().T @ V - np.eye(239))) <= 1e-13
