"""Eigenpairs three ways: diagonalization, commutator stationarity, and
variance minimization.

Diagonalization is the oracle.  Dense LAPACK eigh serves dense storage and
large shares of the spectrum; the lowest few eigenpairs of a sparse
operator come from ARPACK shift-invert, certified against LAPACK banded
bisection so that no eigenvalue can go missing.  The other two realize the
eigenstate characterizations

    <psi|[H, O_i]|psi> = 0  for a complete probe family O_i,
    var(H) = <H^2> - <H>^2  minimized over normalized psi,

which make sense for operators that are not polynomial in momentum and so
do not reduce to a boundary-value problem.  On the grid the probe family
is all site projectors plus the symmetrized and antisymmetrized
nearest-neighbor hops; that family is rich enough that vanishing
stationarity residual pins an eigenstate of the discrete problem.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse
from scipy.sparse.csgraph import reverse_cuthill_mckee
from scipy.sparse.linalg import ArpackNoConvergence, eigsh

from .errors import ConvergenceError, NonHermitianError
from .operators import as_matrix, gershgorin_bound, hermiticity_defect

# Shift-invert eigenvalues must match banded bisection within this
# multiple of eps * ||H||_inf: eigenvalues are defined only to about
# eps * ||H||.
_CERTIFY_MULTIPLE = 64.0

# Seed of the ARPACK start vector.  A generic start has a component along
# every eigenvector; a symmetric one (all ones) keeps Lanczos inside one
# symmetry sector and drops the partner of each degenerate pair.  A fixed
# seed also makes reruns byte-identical.
_START_SEED = 20260814


@dataclass
class EigenResult:
    """Ascending eigenvalues, orthonormal eigenvector columns, residuals.

    solver records the path taken: "eigh" (dense LAPACK), "shift-invert"
    (certified ARPACK) or "eigh-fallback" (dense after a failed
    certification).
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray = field(repr=False)
    residuals: np.ndarray = field(repr=False)
    provenance: str = ""
    solver: str = "eigh"

    def __len__(self):
        return self.eigenvalues.size


def _checked_hermitian(op):
    H = as_matrix(op)
    defect = hermiticity_defect(H)
    scale = max(float(abs(H).max()), 1e-300)
    if defect > 1e-12 * scale:
        raise NonHermitianError(
            f"matrix is not Hermitian: defect {defect:.3e} exceeds "
            f"1e-12 * max|H| = {1e-12 * scale:.3e}", defect=defect)
    sparse = scipy.sparse.issparse(H)
    if np.iscomplexobj(H) and not np.any((H.data if sparse else H).imag):
        H = H.real if sparse else np.ascontiguousarray(H.real)
    return H


def _dense_eigh(H, k):
    if scipy.sparse.issparse(H):
        H = H.toarray()
    if k is None or k >= H.shape[0]:
        return scipy.linalg.eigh(H)
    return scipy.linalg.eigh(H, subset_by_index=(0, k - 1))


def _banded_lowest(H, m):
    """Lowest m eigenvalues by LAPACK banded bisection (values only).

    A reverse Cuthill-McKee reordering first squeezes the sparse matrix
    into a narrow band (a star graph's vertex rows would otherwise span
    the whole matrix).  Bisection counts eigenvalues, so it cannot skip
    one.
    """
    perm = reverse_cuthill_mckee(H.tocsr(), symmetric_mode=True)
    P = H[perm][:, perm].tocoo()
    low = P.row >= P.col
    offset, col = P.row[low] - P.col[low], P.col[low]
    band = np.zeros((np.max(offset, initial=0) + 1, H.shape[0]), dtype=H.dtype)
    band[offset, col] = P.data[low]
    return scipy.linalg.eigvals_banded(band, lower=True, select="i",
                                       select_range=(0, m - 1))


def _shift_invert(H, k):
    """Lowest k eigenpairs by ARPACK shift-invert, or None if uncertified.

    The shift sits below the lowest eigenvalue by the spread of the k+1
    lowest (at least 1), taken from banded bisection, so (H - sigma)^-1
    maps the wanted eigenvalues to the largest.  Every returned value must
    match bisection within _CERTIFY_MULTIPLE * eps * ||H||_inf.
    """
    exact = _banded_lowest(H, k + 1)
    sigma = exact[0] - max(1.0, exact[k] - exact[0])
    v0 = np.random.default_rng(_START_SEED).standard_normal(H.shape[0])
    try:
        w, v = eigsh(H, k=k, sigma=sigma, which="LM", v0=v0.astype(H.dtype))
    except ArpackNoConvergence:
        return None
    order = np.argsort(w)
    w, v = w[order], v[:, order]
    tol = _CERTIFY_MULTIPLE * np.finfo(float).eps * gershgorin_bound(H)
    if not np.max(np.abs(w - exact[:k])) <= tol:
        return None
    return w, v


def solve_eigensystem(op, k=None):
    """Lowest k eigenpairs (all when k is None) of a Hermitian operator.

    The path follows from what the call shows: dense storage, the full
    spectrum, or more than one twentieth of it (20 k > n) go to dense
    eigh; ARPACK slows past that share.  Otherwise the lowest k come from
    certified shift-invert, with dense eigh as the fallback when the
    certification fails.  Rejects non-Hermitian input.  Residual norms
    ||H v - lambda v|| ride along for downstream sanity checks.
    """
    H = _checked_hermitian(op)
    n = H.shape[0]
    found = None
    solver = "eigh"
    if scipy.sparse.issparse(H) and k is not None and 20 * k <= n:
        found = _shift_invert(H, k)
        solver = "shift-invert" if found is not None else "eigh-fallback"
    w, v = found if found is not None else _dense_eigh(H, k)
    res = np.linalg.norm(H @ v - v * w, axis=0)
    prov = op.provenance if hasattr(op, "provenance") else ""
    return EigenResult(w, v.astype(complex), res, prov, solver)


class OperatorBasis:
    """Site projectors plus symmetrized nearest-neighbor hop probes.

    For an n-site grid the family is P_i = |i><i| (n of them),
    X_i = |i><i+1| + |i+1><i| and Y_i = -i|i><i+1| + i|i+1><i|
    (n-1 each), all Hermitian.  Probes are applied matrix-free.
    """

    def __init__(self, n):
        if n < 2:
            raise ValueError("need at least two sites")
        self.n = int(n)
        self.labels = [("P", i) for i in range(n)]
        self.labels += [("X", i) for i in range(n - 1)]
        self.labels += [("Y", i) for i in range(n - 1)]

    def __len__(self):
        return len(self.labels)

    def apply(self, label, psi):
        kind, i = label
        out = np.zeros_like(psi)
        if kind == "P":
            out[i] = psi[i]
        elif kind == "X":
            out[i] = psi[i + 1]
            out[i + 1] = psi[i]
        elif kind == "Y":
            out[i] = -1j * psi[i + 1]
            out[i + 1] = 1j * psi[i]
        else:
            raise ValueError(f"unknown probe kind {kind!r}")
        return out

    def matrix(self, label):
        n = self.n
        M = np.zeros((n, n), dtype=complex)
        kind, i = label
        if kind == "P":
            M[i, i] = 1.0
        elif kind == "X":
            M[i, i + 1] = M[i + 1, i] = 1.0
        elif kind == "Y":
            M[i, i + 1] = -1j
            M[i + 1, i] = 1j
        return M


def _require_normalized(psi):
    psi = np.asarray(psi, dtype=complex)
    nrm = np.linalg.norm(psi)
    if abs(nrm - 1.0) > 1e-10:
        raise ValueError(f"state must be normalized, got |psi| = {nrm:.12g}")
    return psi


def stationarity_residual(op, psi, basis):
    """|<psi|[H, O_i]|psi>| for every probe in the basis.

    With chi = H psi the commutator expectation is 2i Im <chi|O psi>, so
    each entry costs one sparse probe application.
    """
    H = as_matrix(op)
    psi = _require_normalized(psi)
    chi = H @ psi
    out = np.empty(len(basis))
    for j, label in enumerate(basis.labels):
        out[j] = 2.0 * abs(np.imag(np.vdot(chi, basis.apply(label, psi))))
    return out


def stationarity_gap(op, psi):
    """||H psi - <H> psi||, the quantity the probe family triangulates."""
    H = as_matrix(op)
    psi = _require_normalized(psi)
    chi = H @ psi
    mean = np.real(np.vdot(psi, chi))
    return float(np.linalg.norm(chi - mean * psi))


def newton_refine(op, psi0, basis, tol=1e-10, max_iter=25):
    """Newton iteration for an eigenpair near psi0.

    Solves the bordered system (H - E) psi = 0, <psi|psi> = 1 with the
    phase pinned by Im <psi0|psi> = 0 (one Gauss-Newton least-squares
    step per iteration over real and imaginary parts), and stops when the
    stationarity residual over the probe basis drops below tol.  Returns
    (E, psi) with E = <psi|H|psi> at convergence.

    The iteration homes in on whatever stationary pair is nearest; a
    start orthogonal to the intended target converges elsewhere or not at
    all, in which case divergence is signalled with diagnostics.
    """
    H = as_matrix(op)
    n = H.shape[0]
    dense = H.toarray() if scipy.sparse.issparse(H) else H
    psi = np.asarray(psi0, dtype=complex)
    nrm = np.linalg.norm(psi)
    if nrm == 0.0:
        raise ValueError("psi0 must be nonzero")
    psi = psi / nrm
    ref = psi.copy()
    E = float(np.real(np.vdot(psi, H @ psi)))

    history = []
    for it in range(max_iter):
        resid = float(np.max(stationarity_residual(op, psi, basis)))
        history.append(resid)
        if resid < tol:
            return E, psi
        A = dense - E * np.eye(n)
        # Realified unknowns z = (Re psi, Im psi, E); rows: Re/Im of
        # (H-E)psi, the normalization defect, and the phase anchor.
        J = np.zeros((2 * n + 2, 2 * n + 1))
        J[:n, :n] = A.real
        J[:n, n:2 * n] = -A.imag
        J[n:2 * n, :n] = A.imag
        J[n:2 * n, n:2 * n] = A.real
        J[:n, 2 * n] = -psi.real
        J[n:2 * n, 2 * n] = -psi.imag
        J[2 * n, :n] = psi.real
        J[2 * n, n:2 * n] = psi.imag
        J[2 * n + 1, :n] = -ref.imag
        J[2 * n + 1, n:2 * n] = ref.real
        r = A @ psi
        F = np.concatenate([r.real, r.imag,
                            [0.5 * (np.vdot(psi, psi).real - 1.0)],
                            [np.imag(np.vdot(ref, psi))]])
        try:
            step, *_ = np.linalg.lstsq(J, -F, rcond=None)
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError(
                "Newton step failed: singular least-squares system",
                diagnostics={"iterations": it, "residuals": history}) from exc
        psi = psi + step[:n] + 1j * step[n:2 * n]
        E = E + step[2 * n]
        psi = psi / np.linalg.norm(psi)
        E = float(np.real(np.vdot(psi, H @ psi)))

    resid = float(np.max(stationarity_residual(op, psi, basis)))
    if resid < tol:
        return E, psi
    raise ConvergenceError(
        f"no convergence in {max_iter} Newton iterations "
        f"(last stationarity residual {resid:.3e} > tol {tol:.3e})",
        diagnostics={"iterations": max_iter, "residuals": history,
                     "energy": E, "state": psi})


def variance_minimize(op, psi0, tol=1e-10, max_iter=20000):
    """Minimize <H^2> - <H>^2 over normalized states from psi0.

    Projected gradient descent over the real and imaginary parts with an
    explicit renormalization each step; Barzilai-Borwein step seeding
    with Armijo backtracking keeps the variance non-increasing.  Stops
    when the variance falls below tol and returns (<H>, psi); stagnation
    above tol raises with the last iterate in the diagnostics.
    """
    H = as_matrix(op)
    psi = np.asarray(psi0, dtype=complex)
    nrm = np.linalg.norm(psi)
    if nrm == 0.0:
        raise ValueError("psi0 must be nonzero")
    psi = psi / nrm

    def energy_variance_grad(v):
        hv = H @ v
        e = np.real(np.vdot(v, hv))
        h2 = np.real(np.vdot(hv, hv))
        var = h2 - e * e
        # Riemannian gradient of the variance on the unit sphere.
        g = 2.0 * (H @ hv - h2 * v) - 4.0 * e * (hv - e * v)
        g -= np.real(np.vdot(v, g)) * v
        return e, var, g

    e, var, g = energy_variance_grad(psi)
    step = 1.0 / max(np.linalg.norm(g), 1e-12)
    prev_psi = None
    prev_g = None
    for it in range(max_iter):
        if var < tol:
            return float(e), psi
        if prev_psi is not None:
            dpsi = psi - prev_psi
            dg = g - prev_g
            denom = np.real(np.vdot(dpsi, dg))
            if denom > 0.0:
                step = float(np.real(np.vdot(dpsi, dpsi)) / denom)
        accepted = False
        for _ in range(40):
            trial = psi - step * g
            trial = trial / np.linalg.norm(trial)
            e_t, var_t, g_t = energy_variance_grad(trial)
            if var_t <= var - 1e-4 * step * np.real(np.vdot(g, g)):
                accepted = True
                break
            step *= 0.5
        if not accepted or var - var_t <= 1e-18 * max(var, 1.0):
            raise ConvergenceError(
                f"variance minimization stagnated at {var:.3e} > tol {tol:.3e}",
                diagnostics={"iterations": it, "variance": var,
                             "energy": float(e), "state": psi})
        prev_psi, prev_g = psi, g
        psi, e, var, g = trial, e_t, var_t, g_t
        step = max(step, 1e-14)

    raise ConvergenceError(
        f"variance minimization hit the iteration cap at variance {var:.3e}",
        diagnostics={"iterations": max_iter, "variance": var,
                     "energy": float(e), "state": psi})


def variance_pair_residual(op, probe, psi):
    """Residual of the paired variance identity for one probe.

    <H^2><O O*> + <H O O* H> - <H><{H, O O*}> vanishes in eigenstates;
    nonzero values witness superpositions.
    """
    H = as_matrix(op)
    O = np.asarray(probe, dtype=complex)
    psi = _require_normalized(psi)
    OOd = O @ O.conj().T
    hpsi = H @ psi
    h2 = np.real(np.vdot(hpsi, hpsi))
    e = np.real(np.vdot(psi, hpsi))
    oo = np.real(np.vdot(psi, OOd @ psi))
    hooh = np.real(np.vdot(hpsi, OOd @ hpsi))
    anti = np.real(np.vdot(hpsi, OOd @ psi) + np.vdot(psi, OOd @ hpsi))
    return float(h2 * oo + hooh - e * anti)


def subspace_overlap(u, v):
    """Smallest principal-angle cosine between two eigenvector blocks.

    Columns may be rotated arbitrarily inside degenerate subspaces; the
    singular values of u* v are the invariant comparison.
    """
    u = np.atleast_2d(np.asarray(u, dtype=complex))
    v = np.atleast_2d(np.asarray(v, dtype=complex))
    if u.ndim == 2 and u.shape[0] < u.shape[1]:
        u, v = u.T, v.T
    s = np.linalg.svd(u.conj().T @ v, compute_uv=False)
    return float(np.min(s))
