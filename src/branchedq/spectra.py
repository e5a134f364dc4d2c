"""Eigenpairs three ways: diagonalization, commutator stationarity, and
variance minimization.

Diagonalization is the oracle.  Dense LAPACK eigh serves dense storage and
large shares of the spectrum, a full spectrum by divide and conquer
(?heevd: faster than the MRRR default on clustered spectra, and nearer
orthonormal, for O(n^2) workspace); the lowest few eigenpairs of a sparse
operator come from ARPACK shift-invert (Ericsson & Ruhe, Math. Comp. 35
(1980) 1251).  Banded Cholesky factorizations place the shift below the
lowest eigenvalue, and an LDL^H inertia count certifies that no eigenvalue
went missing (Grimes, Lewis & Simon, SIAM J. Matrix Anal. Appl. 15 (1994)
228); both cost O(n kd^2) on the reverse Cuthill-McKee band.  The other
two realize the eigenstate characterizations

    <psi|[H, O_i]|psi> = 0  for a complete probe family O_i,
    var(H) = ||(H - <H>) psi||^2  minimized over normalized psi,

which make sense for operators that are not polynomial in momentum and so
do not reduce to a boundary-value problem.  On the grid the probe family
is all site projectors plus the symmetrized and antisymmetrized
nearest-neighbor hops; that family is rich enough that vanishing
stationarity residual pins an eigenstate of the discrete problem, and its
expectations are closed-form products of neighboring entries of psi and
H psi.  Newton refinement solves one bordered system by sparse LU per
step; variance minimization is a three-term Rayleigh-Ritz recurrence on
(H - <H>)^2, its gradient preconditioned by T = (H - sigma)^-2, where
sigma is the shift-invert shift, at least 1 below the lowest eigenvalue.
There T has no pole on the spectrum: it damps each eigencomponent by a
factor that falls with its eigenvalue.  A shift inside the spectrum would
amplify the eigenvector nearest it, wanted or not.  Neither decomposes
the spectrum.
"""

import logging
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.linalg.lapack
import scipy.sparse
from scipy.sparse.csgraph import reverse_cuthill_mckee
from scipy.sparse.linalg import ArpackNoConvergence, eigsh, splu

from .errors import ConvergenceError, NonHermitianError
from .operators import _max_abs, gershgorin_bound, hermiticity_defect

# Shift-invert residuals must stay within this multiple of
# eps * ||H||_inf: eigenvalues are defined only to about eps * ||H||.
_CERTIFY_MULTIPLE = 64.0

# Seed of the ARPACK start vector.  A generic start has a component along
# every eigenvector; a symmetric one (all ones) keeps Lanczos inside one
# symmetry sector and drops the partner of each degenerate pair.  A fixed
# seed also makes reruns byte-identical.
_START_SEED = 20260814

_log = logging.getLogger(__name__)


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
    solver: str = "eigh"


def _checked_hermitian(op):
    H = op.matrix
    sparse = scipy.sparse.issparse(H)
    if not np.all(np.isfinite(H.data if sparse else H)):
        raise ValueError("matrix has non-finite entries")
    defect = hermiticity_defect(H)
    scale = max(_max_abs(H), 1e-300)
    if defect > 1e-12 * scale:
        raise NonHermitianError(
            f"matrix is not Hermitian: defect {defect:.3e} exceeds "
            f"1e-12 * max|H| = {1e-12 * scale:.3e}")
    if np.iscomplexobj(H) and not np.any((H.data if sparse else H).imag):
        H = H.real if sparse else np.ascontiguousarray(H.real)
    return H


def _dense_eigh(H, k):
    """Full spectra by divide and conquer (LAPACK ?syevd/?heevd), a subset
    by the MRRR driver that scipy picks for subset_by_index."""
    if scipy.sparse.issparse(H):
        H = H.toarray()
    if k is None or k >= H.shape[0]:
        return scipy.linalg.eigh(H, driver="evd")
    return scipy.linalg.eigh(H, subset_by_index=(0, k - 1))


def _rcm_band(H):
    """H reordered by reverse Cuthill-McKee, as CSC and as its lower band.

    The reordering squeezes the sparse matrix into a narrow band (a star
    graph's vertex rows would otherwise span the whole matrix), so both
    factorizations below cost O(n kd^2) and fill only inside the band.
    """
    perm = reverse_cuthill_mckee(H.tocsr(), symmetric_mode=True)
    P = H[perm][:, perm].tocoo()
    low = P.row >= P.col
    offset, col = P.row[low] - P.col[low], P.col[low]
    band = np.zeros((np.max(offset, initial=0) + 1, H.shape[0]), dtype=H.dtype)
    band[offset, col] = P.data[low]
    return P.tocsc(), band


def _shift_below(band, norm):
    """A shift sigma at least 1 below the lowest eigenvalue lambda_0.

    H - s is positive definite exactly when s lies below lambda_0, which
    lies in [-||H||_inf, min diag H]; bisection by banded Cholesky narrows
    that to a bracket [lo, hi] narrower than max(1, 1e-3 |lambda_0|), and
    sigma = lo - max(1, hi - lo).
    """
    pbtrf = scipy.linalg.lapack.get_lapack_funcs("pbtrf", (band,))
    lo, hi = -norm, float(np.min(band[0].real))
    while hi - lo > max(1.0, 1e-3 * min(abs(lo), abs(hi))):
        mid = 0.5 * (lo + hi)
        shifted = band.copy()
        shifted[0] -= mid
        if pbtrf(shifted, lower=1, overwrite_ab=1)[1] == 0:
            lo = mid
        else:
            hi = mid
    return lo - max(1.0, hi - lo)


def _negative_pivots(P, shift, floor):
    """Eigenvalues of P below shift, counted as negative LDL^H pivots.

    By Sylvester's law of inertia P - shift has as many negative
    eigenvalues as D has negative entries.  splu in the natural order with
    diagonal pivots is that factorization (U = D L^H).  Without pivoting
    it carries no stability guarantee, so a pivot within floor of zero,
    or a zero one that forced a row interchange, returns None.
    """
    n = P.shape[0]
    try:
        lu = splu(P - shift * scipy.sparse.eye_array(n, format="csc"),
                  permc_spec="NATURAL", diag_pivot_thresh=0,
                  options={"SymmetricMode": True})
    except RuntimeError:  # an exactly singular column
        return None
    pivots = lu.U.diagonal()
    if not np.array_equal(lu.perm_r, lu.perm_c) or \
            np.min(np.abs(pivots)) <= floor:
        return None
    return int(np.count_nonzero(pivots.real < 0))


def _shift_invert(H, k):
    """Lowest k eigenpairs and their residual norms by ARPACK shift-invert,
    or None if uncertified.

    The shift sits at least 1 below the lowest eigenvalue, bracketed by
    banded Cholesky, so (H - sigma)^-1 maps the wanted eigenvalues to the
    largest.  The k pairs are certified when every residual is within
    _CERTIFY_MULTIPLE * eps * ||H||_inf and an LDL^H factorization of
    H - (theta_max + tol) has exactly k negative pivots: no eigenvalue
    below the largest returned one was skipped.
    """
    P, band = _rcm_band(H)
    norm = gershgorin_bound(H)
    eps_norm = np.finfo(float).eps * norm
    tol = _CERTIFY_MULTIPLE * eps_norm
    sigma = _shift_below(band, norm)
    v0 = np.random.default_rng(_START_SEED).standard_normal(H.shape[0])
    try:
        _, v = eigsh(H, k=k, sigma=sigma, which="LM", v0=v0.astype(H.dtype))
    except ArpackNoConvergence:
        _log.info("shift-invert uncertified: ARPACK did not converge")
        return None
    # Complex Hermitian input runs through ARPACK's non-Hermitian Arnoldi,
    # whose vectors are orthogonal only to ~1e-9.  Rayleigh-Ritz on their
    # span, against their own Gram matrix, returns orthonormal columns and
    # sorted values.  einsum keeps these thin products off the threaded
    # BLAS, whose spinning workers would slow the factorization after.
    vc = v.conj()
    w, C = scipy.linalg.eigh(np.einsum("ik,il->kl", vc, H @ v),
                             np.einsum("ik,il->kl", vc, v))
    v = np.einsum("ik,kl->il", v, C)
    res = np.linalg.norm(H @ v - v * w, axis=0)
    worst = float(np.max(res))
    if not worst <= tol:
        _log.info("shift-invert uncertified: residual margin %.3g "
                  "(max residual %.3e, tolerance %.3e)", worst / tol, worst,
                  tol)
        return None
    count = _negative_pivots(P, w[-1] + tol, eps_norm)
    if count is None:
        _log.info("shift-invert uncertified: an LDL^H pivot within the "
                  "floor eps*||H||inf = %.3e", eps_norm)
        return None
    if count != k:
        _log.info("shift-invert uncertified: %d eigenvalues below "
                  "theta_max + tol = %.17g, expected %d", count,
                  w[-1] + tol, k)
        return None
    return w, v, res


def solve_eigensystem(op, k=None):
    """Lowest k eigenpairs (all when k is None) of a Hermitian operator.

    The path follows from what the call shows: dense storage, the full
    spectrum, or more than one twentieth of it (20 k > n) go to dense
    eigh; ARPACK slows past that share.  Otherwise the lowest k come from
    certified shift-invert, with dense eigh as the fallback when the
    certification fails.  Rejects non-Hermitian input and non-finite
    entries (ValueError).  Residual norms
    ||H v - lambda v|| ride along for downstream sanity checks.
    """
    H = _checked_hermitian(op)
    n = H.shape[0]
    found = None
    solver = "eigh"
    if scipy.sparse.issparse(H) and k is not None and 20 * k <= n:
        found = _shift_invert(H, k)
        solver = "shift-invert" if found is not None else "eigh-fallback"
    if found is None:
        w, v = _dense_eigh(H, k)
        res = np.linalg.norm(H @ v - v * w, axis=0)
    else:
        w, v, res = found
    return EigenResult(w, v.astype(complex), res, solver)


def _require_normalized(psi):
    psi = np.asarray(psi, dtype=complex)
    nrm = np.linalg.norm(psi)
    if abs(nrm - 1.0) > 1e-10:
        raise ValueError(f"state must be normalized, got |psi| = {nrm:.12g}")
    return psi


def _unit_start(psi0):
    psi = np.asarray(psi0, dtype=complex)
    nrm = np.linalg.norm(psi)
    if nrm == 0.0:
        raise ValueError("psi0 must be nonzero")
    return psi / nrm


def stationarity_residual(op, psi):
    """|<psi|[H, O_i]|psi>| over the probe family, in P, X, Y order.

    The 3n - 2 Hermitian probes are the site projectors P_i = |i><i| and
    the hops X_i = |i><i+1| + |i+1><i|, Y_i = -i|i><i+1| + i|i+1><i|.
    With chi = H psi each expectation is 2i Im <chi|O_i psi>, a product
    of neighboring entries of chi and psi.
    """
    H = op.matrix
    psi = _require_normalized(psi)
    chi = H @ psi
    a = np.conj(chi[:-1]) * psi[1:]
    b = np.conj(chi[1:]) * psi[:-1]
    return 2.0 * np.abs(np.concatenate(
        [np.imag(np.conj(chi) * psi), np.imag(a + b), np.real(b - a)]))


def newton_refine(op, psi0, tol=1e-10, max_iter=25):
    """Newton iteration for an eigenpair near psi0.

    Each step solves the complex bordered system

        [[H - E, -psi], [psi^H, 0]] [dpsi; dE] = [(E - H) psi; 0]

    by sparse LU, then renormalizes psi and resets E to the Rayleigh
    quotient; it stops when the stationarity residual drops below tol.
    The update psi + dpsi = dE (H - E)^-1 psi makes this Rayleigh quotient
    iteration.  Returns (E, psi) with E = <psi|H|psi> and the phase of psi
    chosen so that <psi0|psi> is real and positive.

    The iteration homes in on whatever stationary pair is nearest; a
    start orthogonal to the intended target converges elsewhere or not at
    all, in which case ConvergenceError is raised.
    """
    H = scipy.sparse.csr_array(op.matrix)
    n = H.shape[0]
    psi = ref = _unit_start(psi0)
    E = float(np.real(np.vdot(psi, H @ psi)))
    one = scipy.sparse.eye_array(n, format="csr")

    for it in range(max_iter + 1):
        resid = float(np.max(stationarity_residual(op, psi)))
        if resid < tol:
            _log.info("Newton refinement: stationarity residual %.3e after "
                      "%d iterations", resid, it)
            overlap = np.vdot(ref, psi)
            return E, psi * (abs(overlap) / overlap)
        if it == max_iter:
            break
        K = scipy.sparse.block_array(
            [[H - E * one, -psi[:, None]], [psi.conj()[None, :], None]],
            format="csc")
        try:
            step = splu(K).solve(np.append(E * psi - H @ psi, 0.0))
        except RuntimeError as exc:
            raise ConvergenceError(
                "Newton step failed: singular bordered system") from exc
        psi = psi + step[:n]
        psi = psi / np.linalg.norm(psi)
        E = float(np.real(np.vdot(psi, H @ psi)))

    raise ConvergenceError(
        f"no convergence in {max_iter} Newton iterations "
        f"(last stationarity residual {resid:.3e} > tol {tol:.3e})")


def variance_minimize(op, psi0, tol=1e-10, max_iter=20000):
    """Minimize var(H) = ||(H - <H>) psi||^2 over normalized states.

    A three-term Rayleigh-Ritz recurrence on the variance (LOBPCG on the
    folded operator (H - e)^2, Knyazev, SIAM J. Sci. Comput. 23 (2001)
    517): each step orthonormalizes psi, the preconditioned variance
    gradient T (H - e) r with r = H psi - e psi, and the previous iterate
    into Q, and moves to the combination Q c that minimizes
    ||(H - e) Q c||, the lowest right singular vector of (H - e) Q.  The
    subspace holds psi, so the variance never rises.  Stops when the
    variance falls below tol and returns (<H>, psi); a variance that stops
    strictly decreasing above tol raises ConvergenceError with its last
    value, as does the iteration cap.

    The preconditioner is T = (H - sigma)^-2, with sigma the shift of
    shift-invert: lo - max(1, hi - lo) for the banded Cholesky bracket
    [lo, hi] of the lowest eigenvalue.  H - sigma is then Hermitian
    positive definite, factored once per call, and T scales the gradient's
    component along an eigenvalue lambda by (lambda - sigma)^-2.  That
    evens out the (lambda - e)^2 weights, which the top of a grid
    operator's spectrum dominates by orders of magnitude: C8's starts take
    11-13 steps, not 505-538.  sigma sits below the spectrum so that the
    weight falls monotonically in lambda; at a shift inside it, such as
    the start's own <H>, the weight has a pole there, and the recurrence
    can converge to whichever eigenvector lies nearest the shift instead
    of the one the start is near.  Rejects non-Hermitian input and
    non-finite entries, as solve_eigensystem does.
    """
    H = scipy.sparse.csr_array(_checked_hermitian(op))
    _, band = _rcm_band(H)
    sigma = _shift_below(band, gershgorin_bound(H))
    shifted = splu(scipy.sparse.csc_array(
        H - sigma * scipy.sparse.eye_array(H.shape[0]), dtype=complex))
    psi = _unit_start(psi0)
    prev = None
    last = np.inf
    for it in range(max_iter + 1):
        hpsi = H @ psi
        e = float(np.real(np.vdot(psi, hpsi)))
        r = hpsi - e * psi
        var = float(np.real(np.vdot(r, r)))
        if var < tol:
            _log.info("variance minimization: variance %.3e after %d "
                      "iterations", var, it)
            return e, psi
        if not var < last:
            raise ConvergenceError(
                f"variance minimization stagnated at {var:.3e} > tol {tol:.3e}")
        if it == max_iter:
            break
        step = shifted.solve(shifted.solve(H @ r - e * r))
        directions = [psi, step] + ([] if prev is None else [prev])
        Q, _ = np.linalg.qr(np.column_stack(directions))
        _, _, vh = np.linalg.svd(H @ Q - e * Q, full_matrices=False)
        prev, last = psi, var
        psi = Q @ vh[-1].conj()
        psi = psi / np.linalg.norm(psi)

    raise ConvergenceError(
        f"variance minimization hit the iteration cap at variance {var:.3e}")
