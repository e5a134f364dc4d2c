"""The four benchmark workloads: configs made from a seed, and output checks.

Each workload is one `branchedq` CLI run.  Its config is generated from the
benchmark seed (the program never sees the seed), and its outputs are
checked against references the benchmark computes itself, so a check does
not depend on how the program stores or solves its matrices.

Eigenvalue references come from an independent banded assembly of the same
Hamiltonian on the unfolded momentum line (kinetic energy on the diagonal,
the quartic potential as a fourth-order derivative stencil with Dirichlet
ends).  Eigenvalues are defined only to about eps*||H||, so every spectral
check uses the tolerance ``SPECTRAL_TOL * eps * ||H||_inf``; a correct sparse
or banded solver passes it as well as dense ``eigh``.
"""

import json
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.linalg
import scipy.sparse

# Multiple of eps*||H||_inf allowed between a reported eigenvalue and the
# reference, and for the residual ||H v - lambda v|| of a reported state.
# Dense eigh and the reference differ by up to about 6 eps*||H||, dense and
# shift-invert solvers by about 1, and eigh residuals of the top states of
# a full spectrum reach about 17.
SPECTRAL_TOL = 64.0
EPS = np.finfo(float).eps

# Half-bandwidth of the second-order d^4 stencil.
BANDWIDTH = 2

NORM_DRIFT_TOL = 1e-10
FLUX_TOL = 1e-8

CRITERIA = [f"C{i}" for i in range(1, 11)]


# -- independent reference Hamiltonian ----------------------------------------

def _velocity_roots(p, kappa):
    """Smallest, middle and largest real roots of v^3 - kappa v = p.

    Returns (low, mid, high); mid is NaN where only one root is real, and
    low/high then hold that single root where it belongs (p < 0 or p > 0).
    """
    vc = np.sqrt(kappa / 3.0)
    p_plus = 2.0 * kappa / 3.0 * vc
    low = np.full(p.shape, np.nan)
    mid = np.full(p.shape, np.nan)
    high = np.full(p.shape, np.nan)
    inside = np.abs(p) <= p_plus
    theta = np.arccos(np.clip(p[inside] / p_plus, -1.0, 1.0))
    roots = 2.0 * vc * np.cos((theta[:, None] - 2.0 * np.pi * np.arange(3)) / 3.0)
    roots.sort(axis=1)
    low[inside], mid[inside], high[inside] = roots.T
    out = ~inside
    single = np.sign(p[out]) * 2.0 * vc * np.cosh(np.arccosh(np.abs(p[out]) / p_plus) / 3.0)
    # One Newton step polishes the closed form to working precision.
    single -= (single**3 - kappa * single - p[out]) / (3.0 * single**2 - kappa)
    low[out] = np.where(p[out] < 0, single, np.nan)
    high[out] = np.where(p[out] > 0, single, np.nan)
    return low, mid, high


def reference_hamiltonian(kappa, quartic, n_inner, n_arm):
    """Folded quartic Hamiltonian assembled on the unfolded line (sparse CSR).

    Node order follows the folded grid: branch-1 arm, branch-2 interior in
    unfolded order, branch-3 arm, junctions on nodes n_arm-1 and
    n_arm+n_inner-1.
    """
    alpha, beta, gamma = quartic
    vc = np.sqrt(kappa / 3.0)
    p_plus = 2.0 * kappa / 3.0 * vc
    p_minus = -p_plus
    h = (p_plus - p_minus) / n_inner
    n = 2 * n_arm + n_inner - 1
    j_plus, j_minus = n_arm - 1, n_arm + n_inner - 1
    u = p_minus + h * (np.arange(n) - (n_arm - 1))
    idx = np.arange(n)
    p = np.where(idx <= j_plus, u + p_plus - p_minus,
                 np.where(idx < j_minus, p_plus + p_minus - u,
                          u - p_plus + p_minus))
    p[j_plus], p[j_minus] = p_plus, p_minus
    low, mid, high = _velocity_roots(p, kappa)
    v = np.where(idx < j_plus, low, np.where(idx <= j_minus, mid, high))
    v[j_plus], v[j_minus] = -vc, vc
    diag = 0.75 * v**4 - 0.5 * kappa * v**2

    # x^4 + a x^3 + b x^2 + c x acts on the momentum line as
    # d^4 - i a d^3 - b d^2 + i c d (second-order central differences).
    c4, c3, c2, c1 = 1.0, -alpha, beta, -gamma
    band = {
        0: 6.0 * c4 / h**4 + 2.0 * c2 / h**2,
        1: -4.0 * c4 / h**4 - c2 / h**2 - 1j * c3 / h**3 - 0.5j * c1 / h,
        2: c4 / h**4 + 0.5j * c3 / h**3,
    }
    band[-1] = np.conj(band[1])
    band[-2] = np.conj(band[2])
    d0 = diag + band[0]
    # Dirichlet ends: the second ghost layer is the odd reflection of the
    # first interior node, which folds the outer d^4 weight onto the diagonal.
    d0[0] -= band[-2].real
    d0[-1] -= band[2].real
    offsets = list(range(-BANDWIDTH, BANDWIDTH + 1))
    diags = [np.full(n - abs(k), band[k]) if k else d0 for k in offsets]
    return scipy.sparse.diags(diags, offsets, shape=(n, n), format="csr",
                              dtype=complex)


def reference_eigenvalues(H, k=None):
    """Lowest k (all when None) eigenvalues of a complex Hermitian band matrix.

    The real symmetric embedding [[Re H, -Im H], [Im H, Re H]], interleaved
    so that it stays banded, carries every eigenvalue of H twice.
    """
    n = H.shape[0]
    H = scipy.sparse.csr_matrix(H)
    M = (scipy.sparse.kron(H.real, np.eye(2))
         + scipy.sparse.kron(H.imag, np.array([[0.0, -1.0], [1.0, 0.0]])))
    bw = 2 * BANDWIDTH + 1
    band = np.zeros((bw + 1, 2 * n))
    for d in range(bw + 1):
        band[bw - d, d:] = M.diagonal(d)
    if k is None or k >= n:
        w = scipy.linalg.eigvals_banded(band)
    else:
        w = scipy.linalg.eigvals_banded(band, select="i",
                                        select_range=(0, 2 * k - 1))
    return np.sort(w)[0::2]


def spectral_tolerance(H):
    return SPECTRAL_TOL * EPS * float(abs(H).sum(axis=1).max())


# -- output checks --------------------------------------------------------------

def _read_csv(path):
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def check_spectrum(out, H, ref, states):
    """Eigenvalues match the reference; listed states are eigenvectors."""
    tol = spectral_tolerance(H)
    values = _read_csv(out / "eigenvalues.csv")[:, 1]
    if values.shape != ref.shape:
        return [f"{out.name}: {values.size} eigenvalues, expected {ref.size}"]
    problems = []
    gap = float(np.max(np.abs(values - ref)))
    if not gap <= tol:
        problems.append(f"{out.name}: eigenvalues off by {gap:.3e} > {tol:.3e}")
    for i in states:
        cols = _read_csv(out / f"state_{i:03d}.csv")
        vec = cols[:, 2] + 1j * cols[:, 3]
        norm = np.linalg.norm(vec)
        resid = np.linalg.norm(H @ vec - values[i] * vec) / norm
        if not (abs(norm - 1.0) < 1e-10 and resid <= tol):
            problems.append(f"{out.name}: state {i} norm {norm:.12f}, "
                            f"residual {resid:.3e} > {tol:.3e}")
    return problems


def fingerprint(out, names):
    """Concatenated bytes of the named files (relative to out), in order."""
    return b"".join(name.encode() + b"\0" + (out / name).read_bytes()
                    for name in names)


# -- workloads ------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    """One CLI run: config from a seed, reference, check and fingerprint."""

    name: str
    why: str
    jobs: int = 1

    def config(self, seed, smoke=False):
        raise NotImplementedError

    def reference(self, config):
        return None

    def check(self, out, config, ref):
        raise NotImplementedError

    def fingerprint(self, out, config):
        """Bytes that must repeat exactly across the runs of one set."""
        return fingerprint(out, ["manifest.json"])


def _quartic(rng):
    # Nominal (0.4, 0.3, 0.2); each coefficient drawn within +-0.1.
    return {"form": "quartic",
            "alpha": round(rng.uniform(0.3, 0.5), 4),
            "beta": round(rng.uniform(0.2, 0.4), 4),
            "gamma": round(rng.uniform(0.1, 0.3), 4)}


def _quartic_tuple(config):
    pot = config["potential"]
    return pot["alpha"], pot["beta"], pot["gamma"]


class SpectrumFolded(Workload):
    def config(self, seed, smoke=False):
        n_inner, n_arm, k = (40, 60, 4) if smoke else (501, 750, 10)
        return {"version": 1, "mode": "spectrum",
                "dispersion": {"kappa": 3.0},
                "potential": _quartic(random.Random(seed)),
                "grid": {"kind": "folded", "n_inner": n_inner, "n_arm": n_arm},
                "solver": {"k": k}}

    def reference(self, config):
        g = config["grid"]
        H = reference_hamiltonian(config["dispersion"]["kappa"],
                                  _quartic_tuple(config), g["n_inner"], g["n_arm"])
        return H, reference_eigenvalues(H, config["solver"]["k"])

    def check(self, out, config, ref):
        H, w = ref
        return check_spectrum(out, H, w, range(w.size))


class SpectrumSweep(Workload):
    def config(self, seed, smoke=False):
        rng = random.Random(seed)
        n_inner, n_arm = (10, 15) if smoke else (60, 90)
        # Nominal kappa = 1.0, 1.5, ..., 4.5; each moved by up to +-0.2, so
        # the values stay distinct, ordered and positive.
        kappas = [round(1.0 + 0.5 * i + rng.uniform(-0.2, 0.2), 4)
                  for i in range(8)]
        return {"version": 1, "mode": "spectrum",
                "dispersion": {"kappa": kappas[0]},
                "potential": _quartic(rng),
                "grid": {"kind": "folded", "n_inner": n_inner, "n_arm": n_arm},
                "solver": {"k": 2 * n_arm + n_inner - 1},
                "sweep": {"parameter": "dispersion.kappa", "values": kappas}}

    def reference(self, config):
        g = config["grid"]
        refs = []
        for kappa in config["sweep"]["values"]:
            H = reference_hamiltonian(kappa, _quartic_tuple(config),
                                      g["n_inner"], g["n_arm"])
            refs.append((H, reference_eigenvalues(H)))
        return refs

    def check(self, out, config, ref):
        problems = []
        for i, (H, w) in enumerate(ref):
            # Lowest states and the top one, where eps*||H|| bites hardest.
            problems += check_spectrum(out / f"sweep-{i:03d}", H, w,
                                       (0, 1, w.size - 1))
        return problems

    def fingerprint(self, out, config):
        return fingerprint(out, [f"sweep-{i:03d}/manifest.json"
                                 for i in range(len(config["sweep"]["values"]))])


class EvolveFolded(Workload):
    def config(self, seed, smoke=False):
        n_inner, n_arm, steps, every = ((20, 70, 50, 10) if smoke
                                        else (120, 419, 2000, 100))
        # Nominal centre -10, deep in the branch-1 arm; drawn in [-10, -9].
        # Further left the junction flux residual exceeds its 1e-8 check
        # (1.3e-8 at -10.5, 1.8e-7 at -11).
        center = round(random.Random(seed).uniform(-10.0, -9.0), 4)
        return {"version": 1, "mode": "evolve",
                "dispersion": {"kappa": 3.0},
                "potential": {"form": "quadratic", "alpha": 1.0},
                "grid": {"kind": "folded", "n_inner": n_inner, "n_arm": n_arm},
                "evolution": {"dt": 2.5e-4, "steps": steps,
                              "snapshot_every": every,
                              "packet": {"center": center, "width": 1.0,
                                         "boost": 0.5}}}

    def check(self, out, config, ref):
        summary = json.loads((out / "summary.json").read_text())
        drift, flux = summary["norm_drift"], summary["max_flux_residual"]
        problems = []
        if not drift < NORM_DRIFT_TOL:
            problems.append(f"norm drift {drift:.3e} >= {NORM_DRIFT_TOL}")
        if not flux < FLUX_TOL:
            problems.append(f"flux residual {flux:.3e} >= {FLUX_TOL}")
        return problems


class Verify(Workload):
    def config(self, seed, smoke=False):
        # The seed is ignored: the acceptance criteria pin their own.
        config = {"version": 1, "mode": "verify"}
        if smoke:
            config["criteria"] = ["C1", "C2", "C6", "C9", "C10"]
        return config

    def reference(self, config):
        return config.get("criteria", CRITERIA)

    def check(self, out, config, ref):
        summary = json.loads((out / "summary.json").read_text())
        failed = [cid for cid, ok in summary.items() if ok is not True]
        missing = sorted(set(ref) - set(summary))
        problems = []
        if failed:
            problems.append("criteria failed: " + ", ".join(failed))
        if missing:
            problems.append("criteria missing: " + ", ".join(missing))
        return problems

    def fingerprint(self, out, config):
        # acceptance.txt embeds per-criterion run times, so the manifest
        # that hashes it differs between reruns; the verdicts must not.
        return fingerprint(out, ["summary.json"])


WORKLOADS = {w.name: w for w in (
    SpectrumFolded(
        "spectrum-folded",
        "one large partial eigensolve (N=2000, lowest 10): the spectra layer "
        "dominates, so a sparse or banded solver shows here"),
    EvolveFolded(
        "evolve-folded",
        "Crank-Nicolson propagation (N=957, 2000 steps) with no eigensolve: "
        "an eigensolver change must leave it unchanged"),
    SpectrumSweep(
        "spectrum-sweep",
        "8 small full-spectrum solves (N=239) on 2 threads: dense eigh must "
        "stay fast here, and CSV output dominates", jobs=2),
    Verify(
        "verify",
        "the C1-C10 acceptance gate at the paper's sizes: the only workload "
        "that reaches graphs, refiners, classical and dispersion"),
)}


def write_config(config, path):
    path = Path(path)
    path.write_text(json.dumps(config, indent=2, sort_keys=True) + "\n")
    return path
