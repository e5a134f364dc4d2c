"""End-to-end acceptance checks, one per pinned numerical claim.

Each check returns its gates: measured values against bounds written once,
which its one-line report prints with the share of each bound used.  The
criteria seed their RNGs, so they are independent and may run in any
process and any order; `run_criterion` turns a crash into a failed result.

Two orders are kept apart.  The report order is the registry, `CRITERIA`:
results, and every line and file made from them, come back in it.  The
dispatch order, `DISPATCH`, is the order in which `run_acceptance` hands
the criteria to its map function, so that a pool of workers starts the
longest first.
"""

import math
import operator
import time
from dataclasses import dataclass

import numpy as np

from .classical import ClassicalState, integrate_euler_lagrange, integrate_hamilton
from .dispersion import _SNAP_RTOL, DispersionLaw, _cusp, branch_velocities
from .evolution import continuity_residual, gaussian_packet, propagate
from .graphs import (Edge, HalfLine, MetricGraph, VertexCondition, box_graph,
                     compton_graph, count_conditions, graph_hamiltonian,
                     star_graph, star_secular_spectrum)
from .grids import FoldedGrid, LineGrid, PeriodicGrid
from .operators import (StencilSymbol, build_convolution_hamiltonian,
                        build_convolution_potential, build_dual_wire_hamiltonian,
                        build_folded_hamiltonian, build_unfolded_hamiltonian,
                        fourier_conjugate_hamiltonian, gershgorin_bound,
                        hermiticity_defect)
from .potentials import GaussianPotential, QuadraticPotential, QuarticPotential
from .spectra import (newton_refine, solve_eigensystem, stationarity_residual,
                      variance_minimize)

SEED = 20260814
EPS = np.finfo(float).eps


@dataclass(frozen=True)
class Gate:
    """A bound written once: `value op bound`, op "<", "<=", ">", "==" or
    "in" (inclusive [lo, hi]); `share` is the part of the bound used."""
    label: str
    value: object
    op: str
    bound: object
    _COMPARE = {"<": operator.lt, "<=": operator.le, ">": operator.gt,
                "==": operator.eq, "in": lambda v, b: b[0] <= v <= b[1]}

    @property
    def passed(self):
        return bool(self._COMPARE[self.op](self.value, self.bound))

    @property
    def share(self):
        v, b = self.value, self.bound
        if self.op == "in":
            share = abs(2 * v - b[0] - b[1]) / (b[1] - b[0])
        elif self.op in ("<", "<="):
            share = v / b
        else:  # a floor; an exact check has no share
            return None if self.op == "==" else b / v if v > 0 else math.inf
        return math.inf if math.isnan(share) else float(share)

    def __str__(self):
        if self.share is None:
            return f"{self.label} {self.value} ({self.op} {self.bound})"
        return (f"{self.label} {self.value:#.3g} ({self.op} {self.bound}, "
                f"{self.share:.2f} of it)")


@dataclass
class CriterionResult:
    """A criterion's gates, or the error it raised in place of them."""
    cid: str
    title: str
    gates: list
    elapsed: float
    error: str = ""

    @property
    def passed(self):
        return not self.error and all(g.passed for g in self.gates)

    def line(self):
        flag = "PASS" if self.passed else "FAIL"
        detail = self.error or "; ".join(map(str, self.gates))
        return f"{self.cid} {flag} {self.title}: {detail}"


def criterion_trichotomy():
    rng = np.random.default_rng(SEED)
    kappas = 10.0 ** rng.uniform(-0.7, 0.7, 10000)
    fracs = rng.uniform(-3.0, 3.0, 10000)
    _, p_plus = _cusp(kappas)
    p = fracs * p_plus
    roots = branch_velocities(p, kappas)
    expected = np.where(np.abs(p) - p_plus <= _SNAP_RTOL * np.maximum(1.0, p_plus),
                        3, 1)
    bad_counts = int(np.count_nonzero(
        np.count_nonzero(~np.isnan(roots), axis=1) != expected))
    kp = kappas[:, None]
    worst = float(np.nanmax(np.abs(roots**3 - kp * roots - p[:, None])))
    return [Gate("wrong root counts in 10000 draws", bad_counts, "==", 0),
            Gate("max cubic residual", worst, "<=", 1e-10)]


def criterion_hermiticity():
    law = DispersionLaw(kappa=3.0)
    grid = FoldedGrid(law, 201, 300)
    line = LineGrid(-20.0, 20.0, 800)
    asym = GaussianPotential(2.0, 1.0, 1.5)

    weighted = MetricGraph(
        ["c0", "a", "b", "c"],
        [Edge("c0", "a", 1.0, 1.0, 1.0), Edge("c0", "b", 1.0, 1.0, 1.0),
         Edge("c0", "c", 1.0, 1.0, -1.0)],
        conditions={"a": VertexCondition("dirichlet"),
                    "b": VertexCondition("dirichlet"),
                    "c": VertexCondition("dirichlet"),
                    "c0": VertexCondition("weighted",
                                          (1.0, 1.0, np.sqrt(2.0)))})

    # Built one at a time, so that at most one dense kernel is alive.
    cases = [
        ("folded quadratic", lambda: build_folded_hamiltonian(
            law, grid, QuadraticPotential(1.0))),
        ("folded quartic", lambda: build_folded_hamiltonian(
            law, grid, QuarticPotential(0.4, 0.3, 0.2))),
        ("dual wire", lambda: build_dual_wire_hamiltonian(
            StencilSymbol(0.2, 0.1, 0.5, 0.3), law, grid)),
        ("hermitian convolution", lambda: build_convolution_hamiltonian(
            law, asym, line, mode="hermitian")),
        ("kirchhoff graph", lambda: graph_hamiltonian(star_graph(3, 1.0), 266)),
        ("weighted graph", lambda: graph_hamiltonian(weighted, 266)),
    ]
    gates = []
    for name, build in cases:
        m = build().matrix
        gates.append(Gate(f"{name} defect / max|H|", hermiticity_defect(m)
                          / float(np.max(np.abs(m))), "<", 1e-12))

    n1 = hermiticity_defect(build_folded_hamiltonian(
        law, grid, QuarticPotential(0.4, 0.3, 0.2),
        flip_reversed_branch=False).matrix)
    n2 = hermiticity_defect(build_convolution_potential(
        asym, line, mode="naive", domain=law).matrix)
    return gates + [Gate("control unflipped defect", n1, ">", 1e-3),
                    Gate("control windowed-asymmetric defect", n2, ">", 1e-3)]


def _matching_line(grid):
    u0, u1 = grid.u[0], grid.u[-1]
    return LineGrid(u0 - grid.h, u1 + grid.h, grid.size)


def criterion_fold_unfold():
    law = DispersionLaw(kappa=3.0)
    gates = []
    for name, V in (("quadratic", QuadraticPotential(1.0)),
                    ("quartic", QuarticPotential(0.4, 0.3, 0.2))):
        fg = FoldedGrid(law, 501, 750)
        hf = build_folded_hamiltonian(law, fg, V)
        hu = build_unfolded_hamiltonian(law, _matching_line(fg), V)
        rf = solve_eigensystem(hf, k=10)
        ru = solve_eigensystem(hu, k=10)
        gap = float(np.max(np.abs(rf.eigenvalues - ru.eigenvalues)))
        # The 1e-8 gate holds only while both sides take one solver path:
        # two paths agree to about eps*||H||inf, printed alongside.
        gates.append(Gate(
            f"{name} max deviation [{rf.solver}/{ru.solver}, eps*||H||inf "
            f"{EPS * gershgorin_bound(hf.matrix):.1e}]", gap, "<", 1e-8))

    grounds = []
    for n_inner, n_arm in ((125, 188), (250, 375), (500, 749)):
        fg = FoldedGrid(law, n_inner, n_arm)
        op = build_folded_hamiltonian(law, fg, QuadraticPotential(1.0))
        grounds.append(solve_eigensystem(op, k=1).eigenvalues[0])
    slope = float(np.log2((grounds[0] - grounds[1]) /
                          (grounds[1] - grounds[2])))
    return gates + [Gate("dyadic order", slope, "in", [1.8, 2.2])]


def criterion_known_spectra():
    grid = LineGrid(-10.0, 10.0, 4000)
    op = build_dual_wire_hamiltonian(StencilSymbol(0, 0, 0.5, 0),
                                     QuadraticPotential(1.0), grid, accuracy=4)
    w = solve_eigensystem(op, k=5).eigenvalues
    target = np.arange(5) + 0.5
    oscil = float(np.max(np.abs(w - target)))

    box = LineGrid(0.0, np.pi, 2000)
    op4 = build_dual_wire_hamiltonian(StencilSymbol(1, 0, 0, 0),
                                      None, box)
    res4 = solve_eigensystem(op4, k=5)
    quartic = np.arange(1, 6) ** 4
    rel = float(np.max(np.abs(res4.eigenvalues - quartic) / quartic))

    # The box's eps*||H||inf (about 6e-4) is close to the 1e-3 tolerance
    # on its unit ground level: the measured error there is roundoff.
    return [Gate("oscillator level error", oscil, "<", 1e-6),
            Gate(f"clamped-box relative level error [{res4.solver}, "
                 f"eps*||H||inf {EPS * gershgorin_bound(op4.matrix):.1e}]",
                 rel, "<", 1e-3)]


def _continuity_peak(op, psi0, dt, steps):
    # One factorization per run; every step is kept as a snapshot.
    _, rep = propagate(op, psi0, dt, steps, snapshot_every=1,
                       stability_budget=None)
    worst = 0.0
    for before, after in zip(rep.snapshots, rep.snapshots[1:]):
        r = continuity_residual(op, before, after, dt)
        worst = max(worst, float(np.max(np.abs(r))))
    return worst


def criterion_unitarity_flux():
    law = DispersionLaw(kappa=3.0)
    gates = []
    quartic_symbol = StencilSymbol.from_quartic_potential(0.3, 0.5, 0.2).scaled(0.01)
    # Packets start deep in an arm with a gentle boost: cusp-crossing
    # dynamics are out of scope, so the flux bound is checked while the
    # junction amplitude stays at discretization-noise level.  The quartic
    # h-order is pre-asymptotic on its coarse pair (about 1.55), so a third
    # level gates the finest pair in a tighter band.  The quadratic flux
    # (9.9e-10) is the tail of a packet just reaching the junction at the
    # last step, not a discretization error: it rises twelvefold over the
    # last 100 steps, and reads 1.25e-8 on the (80, 279) grid.
    runs = [
        ("quadratic", QuadraticPotential(1.0), (40, 140), (80, 279), None,
         -10.0, 0.5),
        ("quartic", quartic_symbol, (8, 36), (16, 71), (32, 143), -10.0, 0.5),
    ]
    for name, V, coarse, fine, finest, center, boost in runs:
        fg = FoldedGrid(law, *coarse)
        op = build_folded_hamiltonian(law, fg, V)
        psi0 = gaussian_packet(fg, center, 1.0, boost=boost)
        _, rep = propagate(op, psi0, 1e-3, 1000)
        r_h = _continuity_peak(op, psi0, 1e-3, 10)
        fgf = FoldedGrid(law, *fine)
        opf = build_folded_hamiltonian(law, fgf, V)
        r_h2 = _continuity_peak(
            opf, gaussian_packet(fgf, center, 1.0, boost=boost), 1e-3, 10)
        r_dt2 = _continuity_peak(op, psi0, 5e-4, 20)
        gates += [Gate(f"{name} norm drift", rep.norm_drift, "<", 1e-10),
                  Gate(f"{name} flux", rep.max_flux_residual, "<", 1e-8),
                  Gate(f"{name} continuity h-order",
                       float(np.log2(r_h / r_h2)), "in", [1.5, 2.5]),
                  Gate(f"{name} dt-halving ratio", r_dt2 / r_h, "in",
                       [0.7, 1.4])]
        if finest is not None:
            fgx = FoldedGrid(law, *finest)
            r_h4 = _continuity_peak(build_folded_hamiltonian(law, fgx, V),
                                    gaussian_packet(fgx, center, 1.0,
                                                    boost=boost), 1e-3, 10)
            gates.append(Gate(f"{name} finest-pair h-order",
                              float(np.log2(r_h2 / r_h4)), "in", [1.8, 2.2]))
    return gates


def criterion_condition_counting():
    rng = np.random.default_rng(SEED)
    mismatches = 0
    for _ in range(200):
        nv = int(rng.integers(1, 9))
        vertices = list(range(nv))
        edges = []
        if nv >= 2:
            for _ in range(int(rng.integers(0, 13))):
                u, v = rng.choice(nv, size=2, replace=False)
                edges.append(Edge(int(u), int(v), float(rng.uniform(0.5, 2.0))))
        half = [HalfLine(int(rng.integers(0, nv)))
                for _ in range(int(rng.integers(0, 5)))]
        g = MetricGraph(vertices, edges, half,
                        free_lines=int(rng.integers(0, 3)))
        _, _, total, const = count_conditions(g)
        if total != const:
            mismatches += 1
    counts = "(node, infinity, total, constant) counts"
    return [Gate(f"compton {counts}", count_conditions(compton_graph()), "==",
                 (6, 4, 10, 10)),
            Gate(f"box {counts}", count_conditions(box_graph()), "==",
                 (12, 4, 16, 16)),
            Gate("imbalances in 200 fuzzed graphs", mismatches, "==", 0)]


def criterion_graph_spectra():
    oracle = np.array(star_secular_spectrum(3, 1.0, 7.0)[:6])
    op = graph_hamiltonian(star_graph(3, 1.0), 2000)
    w = solve_eigensystem(op, k=6).eigenvalues
    k = np.sqrt(np.abs(w))
    # The sin/cos multiplicity pattern: levels 1-2 and 4-5 are pairs.
    gates = [Gate("star wavenumber error", float(np.max(np.abs(k - oracle))),
                  "<", 1e-4),
             Gate("star pair splits k2 - k1, k5 - k4",
                  float(np.max(np.abs(k[[2, 5]] - k[[1, 4]]))), "<", 1e-6),
             Gate("star level gaps k1 - k0, k3 - k2, k4 - k3",
                  float(np.min(k[[1, 3, 4]] - k[[0, 2, 3]])), ">", 0.1)]

    path = MetricGraph(
        ["a", "m", "b"],
        [Edge("a", "m", np.pi / 2), Edge("m", "b", np.pi / 2)],
        conditions={"a": VertexCondition("dirichlet"),
                    "b": VertexCondition("dirichlet")})
    wp = solve_eigensystem(graph_hamiltonian(path, 2000), k=5).eigenvalues
    trans = float(np.max(np.abs(np.sqrt(np.abs(wp)) - np.arange(1, 6))))
    return gates + [Gate("pass-through wavenumber error", trans, "<", 1e-4)]


def criterion_eigen_characterizations():
    law = DispersionLaw(kappa=3.0)
    fg = FoldedGrid(law, 40, 60)
    op = build_folded_hamiltonian(law, fg, QuadraticPotential(1.0))
    res = solve_eigensystem(op, k=4)
    rng = np.random.default_rng(SEED)

    worst_e = 0.0
    worst_overlap = 1.0
    for i in range(3):
        exact = res.eigenvectors[:, i]
        noise = (rng.standard_normal(fg.size)
                 + 1j * rng.standard_normal(fg.size))
        # 5% relative perturbation: inside the Newton basin yet large
        # enough that the refiners do real work.
        psi0 = exact + 0.05 * noise / np.linalg.norm(noise)
        psi0 = psi0 / np.linalg.norm(psi0)
        e_n, psi_n = newton_refine(op, psi0, tol=1e-10)
        e_v, psi_v = variance_minimize(op, psi0, tol=1e-8)
        for e, psi in ((e_n, psi_n), (e_v, psi_v)):
            worst_e = max(worst_e, abs(e - res.eigenvalues[i]))
            worst_overlap = min(worst_overlap, abs(np.vdot(psi, exact)))

    worst_res = 0.0
    for i in range(4):
        r = stationarity_residual(op, res.eigenvectors[:, i])
        worst_res = max(worst_res, float(np.max(r)))

    return [Gate("refined energy error", float(worst_e), "<", 1e-6),
            Gate("1 - overlap", 1.0 - float(worst_overlap), "<", 1e-3),
            Gate("eigenvector stationarity", worst_res, "<", 1e-9)]


def criterion_classical_oracles():
    law = DispersionLaw(kappa=3.0)
    bump = GaussianPotential(0.5, 2.0, 0.0)
    rng = np.random.default_rng(SEED)
    t_eval = np.linspace(0.0, 50.0, 501)

    worst_gap = 0.0
    worst_drift = 0.0
    hit = 0
    for _ in range(20):
        x0 = float(rng.uniform(-2.0, 2.0))
        v0 = float(rng.choice([-1.0, 1.0]) * rng.uniform(1.8, 2.3))
        state = ClassicalState(x0, v0)
        th = integrate_hamilton(state, 50.0, law, bump, tol=1e-12,
                                t_eval=t_eval)
        te = integrate_euler_lagrange(state, 50.0, law, bump, tol=1e-12,
                                      t_eval=t_eval)
        if th.status != "completed" or te.status != "completed":
            hit += 1
            continue
        gap = max(float(np.max(np.abs(th.x - te.x))),
                  float(np.max(np.abs(th.xdot - te.xdot))))
        worst_gap = max(worst_gap, gap)
        worst_drift = max(worst_drift, th.energy_drift(), te.energy_drift())

    halted = integrate_hamilton(ClassicalState(0.0, 2.0), 50.0, law,
                                QuadraticPotential(1.0), policy="halt")
    ev_res = max((abs(3.0 * s.xdot**2 - 3.0) for s in halted.events),
                 default=np.inf)
    return [Gate("cusp-free orbits of 20 that hit an event", hit, "==", 0),
            Gate("bracket vs direct sup gap", worst_gap, "<", 1e-8),
            Gate("energy drift", worst_drift, "<", 1e-8),
            Gate("halted run status", halted.status, "==", "halted"),
            Gate("cusp event degeneracy", ev_res, "<", 1e-9)]


def criterion_convolution_consistency():
    law = DispersionLaw(kappa=3.0)
    V = GaussianPotential(1.0, 1.0, 0.0)
    line = LineGrid(-20.0, 20.0, 800)
    mh = build_convolution_potential(V, line, mode="hermitian").matrix
    mn = build_convolution_potential(V, line, mode="naive", domain=law).matrix
    entry = float(np.max(np.abs(mh - mn))) / float(np.max(np.abs(mh)))

    pg = PeriodicGrid(-32.0, 32.0, 256)
    h1 = build_convolution_hamiltonian(law, V, pg, mode="hermitian")
    h2 = fourier_conjugate_hamiltonian(law, V, pg)
    w1 = solve_eigensystem(h1).eigenvalues
    w2 = solve_eigensystem(h2).eigenvalues
    spec_gap = float(np.max(np.abs(w1 - w2)))
    return [Gate("symmetric naive vs hermitian entrywise gap / max|V|", entry,
                 "<=", 1e-15),
            Gate("position-side spectrum gap", spec_gap, "<", 1e-10)]


CRITERIA = [
    ("C1", "momentum-inversion trichotomy", criterion_trichotomy),
    ("C2", "hermiticity of every assembly", criterion_hermiticity),
    ("C3", "folded vs unfolded spectra", criterion_fold_unfold),
    ("C4", "known reference spectra", criterion_known_spectra),
    ("C5", "unitary evolution and junction flux", criterion_unitarity_flux),
    ("C6", "graph condition counting", criterion_condition_counting),
    ("C7", "graph spectra vs secular oracle", criterion_graph_spectra),
    ("C8", "variational eigenstate characterizations",
     criterion_eigen_characterizations),
    ("C9", "classical bracket vs direct integration",
     criterion_classical_oracles),
    ("C10", "convolution modes and position-side conjugate",
     criterion_convolution_consistency),
]


# Close to longest-processing-time first (Graham, SIAM J. Appl. Math. 17
# (1969) 416), from costs measured in fresh forked workers on a 2-core VM
# (median of 16 `verify` runs): C9 0.12 s, C3 0.11, C10 0.10, C5 0.09,
# C2 0.08, C7 0.08, C8 0.05, and C4, C6 and C1 under 0.05 s each.  C9
# starts first; C10 and C2, which build the largest heaps (dense 800 x 800
# kernels), run one after the other beside it, and the rest follow longest
# first.  Over 12 alternating runs the sidecar's run_s read 0.298 s, against
# 0.305 s with C8 first, the order kept while C8 was the longest criterion
# (0.33 s).  Strict LPT, with C3 second and C10 third, was no faster
# (0.303 s) and raised the peak resident set from 86.8 to 88.2 MB; it once
# raised it from 87.5 to 94 MB, with C5 and C8 together and C10 third.
DISPATCH = ("C9", "C10", "C2", "C3", "C5", "C7", "C8", "C4", "C6", "C1")


def run_criterion(cid):
    """Run one registered criterion; a crash becomes a failed result.

    `elapsed` is timed in whichever process runs the criterion, so a worker
    process reports the criterion's own time.
    """
    title, fn = {c: (t, f) for c, t, f in CRITERIA}[cid]
    start = time.perf_counter()
    try:
        gates, error = fn(), ""
    except Exception as exc:
        gates, error = [], f"raised {type(exc).__name__}: {exc}"
    return CriterionResult(cid, title, gates, time.perf_counter() - start,
                           error)


def run_acceptance(ids=None, map_fn=map):
    """Run the registered criteria (all, or a subset of ids).

    `map_fn(run_criterion, ids)` gets the ids in `DISPATCH` order and must
    yield the results in the order of `ids`; a process pool's `map` spreads
    them over workers.  The results come back in registry order.  Raises
    ValueError naming every id that is not registered.
    """
    registered = [cid for cid, _, _ in CRITERIA]
    unknown = [cid for cid in ids or () if cid not in registered]
    if unknown:
        raise ValueError(f"unknown criteria: {', '.join(unknown)}")
    selected = [cid for cid in DISPATCH if not ids or cid in ids]
    results = dict(zip(selected, map_fn(run_criterion, selected)))
    return [results[cid] for cid in registered if cid in results]
