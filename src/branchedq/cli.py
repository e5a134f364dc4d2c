"""Command line front end: config-driven runs with reproducible artifacts.

Every run validates its JSON config against a versioned schema, writes the
mode's CSV/JSON outputs plus a resolved copy of the config, and finishes
with a manifest of sha256 content hashes, so identical (config, seed)
pairs are byte-checkable.  All floating point output uses 17 significant
digits.  Exit codes: 0 success, 2 config error, 3 numerical failure.

Sweep points run in ``--jobs`` worker processes started with ``fork``:
formatting a point's CSV rows is Python work that holds the interpreter
lock, so worker threads ran a sweep no faster than one thread did.  Forked
workers inherit the loaded modules and pay no second import.

The CLI defaults OpenBLAS to one thread unless ``OPENBLAS_NUM_THREADS``,
``GOTO_NUM_THREADS`` or ``OMP_NUM_THREADS`` is set.  numpy and scipy each
load their own OpenBLAS, and both thread pools busy-wait between the
small BLAS calls made here.  Measured on a 2-core VM, one thread cut the
CPU time of the benchmark workloads without a sweep by 20-34 % at no cost
in wall time.
It also makes the output bytes independent of the core count: with the
default pools, 2 of 8 points of a 239-row sweep came out with some
eigenvectors sign-flipped and eigenvalues moved by up to 3e-9.
A program that loaded numpy before this module, with none of those variables
set, keeps its default pools and its environment; its sweeps run serially,
since every forked worker would bring its own spinning pools (one traced
in-process sweep took 6.2 s on two such workers; serially it takes 2.0 to
2.3 s).
"""

import copy
import hashlib
import json
import os
import sys
import time
from pathlib import Path

# OpenBLAS reads its thread count once, when numpy first loads it, so this
# must run before the first numpy import below.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
                     "OMP_NUM_THREADS")
if "numpy" not in sys.modules and not set(_BLAS_THREAD_VARS) & set(os.environ):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
# Whether the environment sized the BLAS pools; sweeps fork only if it did.
_BLAS_THREADS_SET = bool(set(_BLAS_THREAD_VARS) & set(os.environ))

import click
import jsonschema
import numpy as np

from .acceptance import CRITERIA, run_acceptance
from .classical import ClassicalState, integrate_hamilton
from .dispersion import DispersionLaw, velocity_sweep
from .errors import (BranchedQError, ConfigError, DegeneracyError,
                     FluxBalanceError)
from .evolution import MultiWave, probability_current, propagate
from .graphs import (GRAPH_LIBRARY, count_conditions, graph_hamiltonian,
                     load_graph, star_graph)
from .grids import FoldedGrid, LineGrid, PeriodicGrid
from .operators import (StencilSymbol, build_convolution_hamiltonian,
                        build_convolution_potential, build_dual_wire_hamiltonian,
                        build_folded_hamiltonian, build_unfolded_hamiltonian,
                        fourier_conjugate_hamiltonian, hermiticity_defect)
from .potentials import PotentialSpec, has_kernel
from .spectra import solve_eigensystem

_NUM = {"type": "number"}

CONFIG_SCHEMA = {
    "type": "object",
    "required": ["version", "mode"],
    "additionalProperties": False,
    "properties": {
        "version": {"const": 1},
        "mode": {"enum": ["spectrum", "evolve", "graph", "classical",
                          "kernel", "verify"]},
        "seed": {"type": "integer", "minimum": 0},
        "out": {"type": "string"},
        "criteria": {"type": "array",
                     "items": {"enum": [cid for cid, _, _ in CRITERIA]}},
        "dispersion": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "kappa": _NUM,
                "coefficients": {"type": "array", "items": _NUM,
                                 "minItems": 4, "maxItems": 4},
            },
        },
        "potential": {
            "type": "object",
            "required": ["form"],
            "properties": {"form": {"enum": ["quadratic", "quartic",
                                             "gaussian", "lorentzian",
                                             "sech2", "sampled"]}},
        },
        "grid": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "kind": {"enum": ["folded", "folded-p", "folded-x",
                                  "line", "periodic"]},
                "n_inner": {"type": "integer", "minimum": 2},
                "n_arm": {"type": "integer", "minimum": 3},
                "x_min": _NUM,
                "x_max": _NUM,
                "n": {"type": "integer", "minimum": 4},
            },
        },
        "solver": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "k": {"type": "integer", "minimum": 1},
                "accuracy": {"enum": [2, 4]},
                "assembly": {"enum": ["folded", "unfolded", "dual-wire",
                                      "convolution", "fourier"]},
                "kernel_mode": {"enum": ["hermitian", "naive"]},
                "kinetic": {"type": "array", "items": _NUM,
                            "minItems": 4, "maxItems": 4},
            },
        },
        "evolution": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "dt": {"type": "number", "exclusiveMinimum": 0},
                "steps": {"type": "integer", "minimum": 1},
                "snapshot_every": {"type": "integer", "minimum": 1},
                "stability_budget": {"type": ["number", "null"]},
                "packet": {
                    "type": "object",
                    "additionalProperties": False,
                    "properties": {"center": _NUM,
                                   "width": {"type": "number",
                                             "exclusiveMinimum": 0},
                                   "boost": _NUM},
                },
            },
        },
        "classical": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "x": _NUM,
                "xdot": _NUM,
                "t_end": _NUM,
                "tol": {"type": "number", "exclusiveMinimum": 0},
                "policy": {"enum": ["halt", "continue", "random-branch"]},
                "max_events": {"type": "integer", "minimum": 1},
                "samples": {"type": "integer", "minimum": 2},
            },
        },
        "graph": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "name": {"type": "string"},
                "file": {"type": "string"},
                "edges": {"type": "integer", "minimum": 2},
                "length": {"type": "number", "exclusiveMinimum": 0},
                "resolution": {"type": "integer", "minimum": 5},
                "truncation": {"type": "number", "exclusiveMinimum": 0},
                "k": {"type": "integer", "minimum": 1},
            },
        },
        "kernel": {
            "type": "object",
            "additionalProperties": False,
            "properties": {"mode": {"enum": ["hermitian", "naive"]}},
        },
        "sweep": {
            "type": "object",
            "additionalProperties": False,
            "required": ["parameter", "values"],
            "properties": {
                "parameter": {"type": "string"},
                "values": {"type": "array", "minItems": 1},
            },
        },
    },
}


def _write_columns(path, header, fmt, *columns):
    """Write aligned columns as CSV, one `fmt % row` line per row."""
    rows = zip(*(np.asarray(c).tolist() for c in columns))
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(fmt % row for row in rows)


def _write_json(path, payload):
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


# Built once: jsonschema.validate would re-check the constant schema itself
# (about 25 ms) on every call, and a sweep validates every sub-config.
_CONFIG_VALIDATOR = jsonschema.validators.validator_for(CONFIG_SCHEMA)(CONFIG_SCHEMA)


def validate_config(doc, source="config"):
    error = jsonschema.exceptions.best_match(_CONFIG_VALIDATOR.iter_errors(doc))
    if error is not None:
        where = getattr(error, "json_path", "$")
        raise ConfigError(f"{source}: {where}: {error.message}")


def load_config(path):
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from None
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON at line {exc.lineno} "
                          f"column {exc.colno}: {exc.msg}") from None
    validate_config(doc, source=str(path))
    return doc


# -- problem construction -----------------------------------------------------

def _law_from(config):
    d = config.get("dispersion", {})
    if "coefficients" in d:
        return DispersionLaw(coefficients=tuple(float(c)
                                                for c in d["coefficients"]))
    return DispersionLaw(kappa=float(d.get("kappa", 3.0)))


def _potential_from(config):
    spec = config.get("potential")
    if spec is None:
        return None
    try:
        return PotentialSpec.from_mapping(spec).build()
    except (KeyError, ValueError, TypeError) as exc:
        raise ConfigError(f"potential: {exc}") from None


def _grid_from(config, law):
    g = config.get("grid", {})
    kind = g.get("kind", "folded")
    try:
        if kind in ("folded", "folded-p", "folded-x"):
            return FoldedGrid(law, int(g.get("n_inner", 40)),
                              int(g.get("n_arm", 60)),
                              kind="folded-p" if kind == "folded" else kind)
        if kind == "line":
            return LineGrid(float(g["x_min"]), float(g["x_max"]), int(g["n"]))
        if kind == "periodic":
            return PeriodicGrid(float(g["x_min"]), float(g["x_max"]),
                                int(g["n"]))
    except KeyError as exc:
        raise ConfigError(f"grid: kind {kind!r} needs field {exc}") from None
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"grid: {exc}") from None
    raise ConfigError(f"grid: unknown kind {kind!r}")


def _hamiltonian_from(config, law, grid, potential):
    solver = config.get("solver", {})
    default = "folded" if isinstance(grid, FoldedGrid) else "unfolded"
    assembly = solver.get("assembly", default)
    accuracy = int(solver.get("accuracy", 2))
    try:
        if assembly == "folded":
            return build_folded_hamiltonian(law, grid, potential,
                                            accuracy=accuracy)
        if assembly == "unfolded":
            return build_unfolded_hamiltonian(law, grid, potential,
                                              accuracy=accuracy)
        if assembly == "dual-wire":
            coeffs = solver.get("kinetic") or config.get(
                "dispersion", {}).get("coefficients")
            if coeffs is None:
                raise ConfigError("dual-wire assembly needs solver.kinetic "
                                  "or dispersion.coefficients")
            wire = potential if potential is not None else law
            return build_dual_wire_hamiltonian(
                StencilSymbol.from_kinetic(*coeffs), wire, grid,
                accuracy=accuracy)
        if assembly == "convolution":
            return build_convolution_hamiltonian(
                law, potential, grid, mode=solver.get("kernel_mode",
                                                      "hermitian"))
        if assembly == "fourier":
            return fourier_conjugate_hamiltonian(law, potential, grid)
    except ConfigError:
        raise
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"solver: {exc}") from None
    raise ConfigError(f"solver: unknown assembly {assembly!r}")


def _grid_columns(grid):
    if isinstance(grid, FoldedGrid):
        return grid.u, grid.branch
    return grid.x, np.zeros(grid.size, dtype=int)


# -- mode handlers -------------------------------------------------------------

def _mode_spectrum(config, out):
    start = time.perf_counter()
    law = _law_from(config)
    potential = _potential_from(config)
    grid = _grid_from(config, law)
    op = _hamiltonian_from(config, law, grid, potential)
    assembled = time.perf_counter()
    k = int(config.get("solver", {}).get("k", 10))
    res = solve_eigensystem(op, k=min(k, grid.size))
    solved = time.perf_counter()
    files = ["eigenvalues.csv"]
    _write_columns(out / "eigenvalues.csv", ("index", "energy", "residual"),
                   "%d,%.17g,%.17g\n", np.arange(res.eigenvalues.size),
                   res.eigenvalues, res.residuals)
    coord, branch = _grid_columns(grid)
    for i in range(len(res.eigenvalues)):
        vec = res.eigenvectors[:, i]
        name = f"state_{i:03d}.csv"
        _write_columns(out / name, ("coordinate", "branch", "re", "im"),
                       "%.17g,%d,%.17g,%.17g\n", coord, branch, vec.real,
                       vec.imag)
        files.append(name)
    H = op.matrix
    # A sidecar outside the manifest: timings differ between reruns.
    _write_json(out / "diagnostics.json", {
        "assemble_s": assembled - start,
        "solve_s": solved - assembled,
        "write_s": time.perf_counter() - solved,
        "n": H.shape[0],
        "nnz": int(getattr(H, "nnz", H.size)),  # stored entries
        "solver": res.solver,
        "max_residual": float(res.residuals.max()),
    })
    return files, True


def _mode_evolve(config, out):
    law = _law_from(config)
    potential = _potential_from(config)
    grid = _grid_from(config, law)
    op = _hamiltonian_from(config, law, grid, potential)
    ev = config.get("evolution", {})
    packet = ev.get("packet", {})
    try:
        wave = MultiWave.gaussian(grid, float(packet.get("center", 0.0)),
                                  float(packet.get("width", 1.0)),
                                  float(packet.get("boost", 0.0)))
        final, rep = propagate(op, wave, float(ev.get("dt", 1e-3)),
                               int(ev.get("steps", 100)),
                               snapshot_every=ev.get("snapshot_every"),
                               stability_budget=ev.get("stability_budget", 0.5))
    except ValueError as exc:
        raise ConfigError(f"evolution: {exc}") from None
    nsteps = rep.times.size
    flux = rep.flux_residuals if rep.flux_residuals is not None \
        else np.full((nsteps, 2), np.nan)
    _write_columns(out / "report.csv",
                   ("time", "norm", "energy", "flux_plus", "flux_minus"),
                   "%.17g,%.17g,%.17g,%.17g,%.17g\n", rep.times, rep.norms,
                   rep.energies, flux[:, 0], flux[:, 1])
    files = ["report.csv"]

    coord, branch = _grid_columns(grid)
    snaps = rep.snapshots or [final]
    data = np.concatenate([snap.data for snap in snaps])
    if op.symbol is not None:
        current = np.concatenate([probability_current(snap.data, grid.h,
                                                      op.symbol)
                                  for snap in snaps])
    else:
        current = np.full(data.size, np.nan)
    _write_columns(out / "snapshots.csv",
                   ("time", "coordinate", "branch", "re", "im", "rho",
                    "current"),
                   "%.17g,%.17g,%d,%.17g,%.17g,%.17g,%.17g\n",
                   np.repeat([snap.time for snap in snaps], grid.size),
                   np.tile(coord, len(snaps)), np.tile(branch, len(snaps)),
                   data.real, data.imag, np.abs(data) ** 2, current)
    files.append("snapshots.csv")
    _write_json(out / "summary.json", {
        "norm_drift": rep.norm_drift,
        "max_flux_residual": rep.max_flux_residual,
        "final_time": float(final.time),
    })
    files.append("summary.json")
    return files, True


def _graph_from(config):
    gcfg = config.get("graph", {})
    name = gcfg.get("name")
    try:
        if "file" in gcfg:
            return load_graph(gcfg["file"]), gcfg
        if name == "star":
            return star_graph(int(gcfg.get("edges", 3)),
                              float(gcfg.get("length", 1.0))), gcfg
        if name in GRAPH_LIBRARY:
            return GRAPH_LIBRARY[name](float(gcfg.get("length", 1.0))), gcfg
    except jsonschema.ValidationError as exc:
        where = getattr(exc, "json_path", "$")
        raise ConfigError(f"graph file: {where}: {exc.message}") from None
    except (OSError, ValueError, FluxBalanceError) as exc:
        raise ConfigError(f"graph: {exc}") from None
    raise ConfigError("graph: needs a file or a known name "
                      f"(star, {', '.join(sorted(GRAPH_LIBRARY))})")


def _mode_graph(config, out):
    graph, gcfg = _graph_from(config)
    node, infinity, total, constants = count_conditions(graph)
    _write_json(out / "counting.json", {
        "node_conditions": node,
        "infinity_conditions": infinity,
        "total_conditions": total,
        "disposable_constants": constants,
    })
    files = ["counting.json"]
    if "resolution" in gcfg:
        try:
            op = graph_hamiltonian(graph, int(gcfg["resolution"]),
                                   truncation=gcfg.get("truncation"))
        except ValueError as exc:
            raise ConfigError(f"graph: {exc}") from None
        k = int(gcfg.get("k", 6))
        res = solve_eigensystem(op, k=min(k, op.matrix.shape[0]))
        w = res.eigenvalues
        _write_columns(out / "eigenvalues.csv",
                       ("index", "energy", "wavenumber"), "%d,%.17g,%.17g\n",
                       np.arange(w.size), w, np.sqrt(np.where(w < 0.0, 0.0, w)))
        files.append("eigenvalues.csv")
    return files, True


def _mode_classical(config, out):
    law = _law_from(config)
    potential = _potential_from(config)
    c = config.get("classical", {})
    t_end = float(c.get("t_end", 10.0))
    samples = c.get("samples")
    # A general-quartic law or a start on the cusp is rejected before the
    # first step; a stall during integration stays a numerical failure.
    try:
        state = ClassicalState(float(c.get("x", 0.0)),
                               float(c.get("xdot", 2.0)))
        t_eval = np.linspace(state.t, t_end, int(samples)) if samples else None
        traj = integrate_hamilton(state, t_end, law, potential,
                                  tol=float(c.get("tol", 1e-12)),
                                  policy=c.get("policy", "halt"),
                                  seed=config.get("seed"),
                                  max_events=int(c.get("max_events", 32)),
                                  t_eval=t_eval)
    except (ValueError, DegeneracyError) as exc:
        raise ConfigError(f"classical: {exc}") from None
    _write_columns(out / "trajectory.csv",
                   ("t", "x", "xdot", "p", "E", "branch", "event"),
                   "%.17g,%.17g,%.17g,%.17g,%.17g,%d,%d\n", traj.t, traj.x,
                   traj.xdot, traj.momentum, traj.energy, traj.branch,
                   traj.event_flag)
    _write_json(out / "summary.json", {
        "status": traj.status,
        "events": len(traj.events),
        "energy_drift": traj.energy_drift(),
    })
    return ["trajectory.csv", "summary.json"], True


def _mode_kernel(config, out):
    law = _law_from(config)
    potential = _potential_from(config)
    if potential is None or not has_kernel(potential):
        raise ConfigError("kernel mode needs a potential with an integrable "
                          "transform (gaussian, lorentzian, sech2, sampled)")
    grid = _grid_from(config, law)
    mode = config.get("kernel", {}).get("mode", "hermitian")
    try:
        op = build_convolution_potential(
            potential, grid, mode=mode, domain=law if mode == "naive" else None)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"kernel: {exc}") from None
    offsets = grid.h * np.arange(-(grid.size - 1), grid.size)
    samples = np.atleast_1d(potential.kernel(offsets))
    _write_columns(out / "kernel.csv", ("offset", "re", "im"),
                   "%.17g,%.17g,%.17g\n", offsets, samples.real, samples.imag)
    _write_json(out / "summary.json", {
        "mode": mode,
        "hermiticity_defect": hermiticity_defect(op),
    })
    return ["kernel.csv", "summary.json"], True


def _mode_verify(config, out):
    results = run_acceptance(config.get("criteria"))
    lines = [r.line() for r in results]
    for line in lines:
        click.echo(line)
    (out / "acceptance.txt").write_text("\n".join(lines) + "\n")
    _write_json(out / "summary.json",
                {r.cid: bool(r.passed) for r in results})
    return ["acceptance.txt", "summary.json"], all(r.passed for r in results)


_MODES = {
    "spectrum": _mode_spectrum,
    "evolve": _mode_evolve,
    "graph": _mode_graph,
    "classical": _mode_classical,
    "kernel": _mode_kernel,
    "verify": _mode_verify,
}


# -- run orchestration ----------------------------------------------------------

def _set_dotted(mapping, dotted, value):
    keys = dotted.split(".")
    cur = mapping
    for key in keys[:-1]:
        cur = cur.setdefault(key, {})
        if not isinstance(cur, dict):
            raise ConfigError(f"sweep: {dotted} does not address a field")
    cur[keys[-1]] = value


def _finish(config, out_dir, files):
    _write_json(out_dir / "config.resolved.json", config)
    names = sorted(set(files) | {"config.resolved.json"})
    manifest = {
        "version": 1,
        "mode": config["mode"],
        "outputs": {name: hashlib.sha256(
            (out_dir / name).read_bytes()).hexdigest() for name in names},
    }
    _write_json(out_dir / "manifest.json", manifest)


def _run_single(config, out_dir):
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    files, ok = _MODES[config["mode"]](config, out_dir)
    _finish(config, out_dir, files)
    return ok


def _run_task(task):
    """One sweep point in a worker process.

    The pool pickles this function by name; it looks `_run_single` up at
    call time, so a wrapper installed on the module attribute (a tracer)
    still runs, and need not itself be picklable.
    """
    return _run_single(*task)


def _run_forked(tasks, workers):
    """Run the tasks in forked worker processes; None where fork is missing."""
    import multiprocessing
    if "fork" not in multiprocessing.get_all_start_methods():
        return None
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool
    context = multiprocessing.get_context("fork")
    try:
        with ProcessPoolExecutor(workers, mp_context=context) as pool:
            return list(pool.map(_run_task, tasks))
    except BrokenProcessPool as exc:
        raise BranchedQError(f"sweep worker died: {exc}") from None


def _usable_cpus():
    """CPUs this process may run on: its affinity mask, where the OS has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def run_config(config, out_dir, jobs=1):
    """Execute a validated config; returns False when verification failed.

    Sweep points run in min(jobs, points, usable CPUs) forked worker
    processes, or one after another in this process when the BLAS pools
    were not sized from the environment (see the module docstring).
    """
    out_dir = Path(out_dir)
    sweep = config.get("sweep")
    if not sweep:
        return _run_single(config, out_dir)
    tasks = []
    for i, value in enumerate(sweep["values"]):
        sub = copy.deepcopy(config)
        del sub["sweep"]
        _set_dotted(sub, sweep["parameter"], value)
        validate_config(sub, source=f"sweep value {i}")
        tasks.append((sub, out_dir / f"sweep-{i:03d}"))
    workers = min(int(jobs), len(tasks), _usable_cpus())
    fork = workers > 1 and _BLAS_THREADS_SET
    outcomes = _run_forked(tasks, workers) if fork else None
    if outcomes is None:
        outcomes = [_run_task(task) for task in tasks]
    return all(outcomes)


def emit_dispersion_curve(kappa, samples, v_min=-3.0, v_max=3.0,
                          path="dispersion.csv"):
    """Write the (xdot, p, E, branch) sweep tracing the momentum-energy curve."""
    law = DispersionLaw(kappa=float(kappa))
    data = velocity_sweep(law, float(v_min), float(v_max), int(samples))
    _write_columns(Path(path), ("xdot", "p", "E", "branch"),
                   "%.17g,%.17g,%.17g,%d\n", data["xdot"], data["p"],
                   data["E"], data["branch"])
    return Path(path)


# -- click wiring ---------------------------------------------------------------

def _execute(config_path, mode, jobs, seed, out):
    try:
        if config_path:
            config = load_config(config_path)
        elif mode == "verify":
            config = {"version": 1, "mode": "verify"}
        else:
            raise ConfigError("--config is required")
        if mode:
            config["mode"] = mode
        if seed is not None:
            config["seed"] = int(seed)
        if out:
            config["out"] = out
        stem = Path(config_path).stem if config_path else config["mode"]
        out_dir = Path(config.get("out") or f"{stem}-out")
    except ConfigError as exc:
        click.echo(f"config error: {exc}", err=True)
        sys.exit(2)
    try:
        ok = run_config(config, out_dir, jobs)
    except ConfigError as exc:
        click.echo(f"config error: {exc}", err=True)
        sys.exit(2)
    except (BranchedQError, ValueError, np.linalg.LinAlgError) as exc:
        click.echo(f"numerical failure: {exc}", err=True)
        sys.exit(3)
    sys.exit(0 if ok else 3)


def _common(fn):
    fn = click.option("--out", default=None, help="Output directory.")(fn)
    fn = click.option("--seed", default=None, type=int,
                      help="Override the config seed.")(fn)
    fn = click.option("--jobs", default=1, type=click.IntRange(min=1),
                      help="Worker processes for sweeps.")(fn)
    fn = click.option("--config", "config_path", default=None,
                      type=click.Path(), help="JSON experiment config.")(fn)
    return fn


@click.group()
def main():
    """Branched-Hamiltonian quantization toolkit."""


@main.command()
@_common
@click.option("--mode", default=None,
              type=click.Choice(sorted(_MODES)), help="Override config mode.")
def run(config_path, jobs, seed, out, mode):
    """Run a config-driven experiment."""
    _execute(config_path, mode, jobs, seed, out)


def _mode_command(name, doc):
    @main.command(name=name, help=doc)
    @_common
    def _cmd(config_path, jobs, seed, out):
        _execute(config_path, name, jobs, seed, out)
    return _cmd


_mode_command("spectrum", "Solve an eigenvalue problem.")
_mode_command("evolve", "Propagate a wave packet.")
_mode_command("graph", "Count conditions and solve a metric graph.")
_mode_command("classical", "Integrate the classical flow.")
_mode_command("kernel", "Tabulate a convolution kernel.")
_mode_command("verify", "Run the acceptance suite.")


@main.command()
@click.option("--kappa", default=3.0, show_default=True)
@click.option("--samples", default=601, show_default=True)
@click.option("--v-min", default=-3.0, show_default=True)
@click.option("--v-max", default=3.0, show_default=True)
@click.option("--out", default="dispersion.csv", show_default=True)
def dispersion(kappa, samples, v_min, v_max, out):
    """Emit the swallowtail (xdot, p, E, branch) curve as CSV."""
    emit_dispersion_curve(kappa, samples, v_min, v_max, out)
    click.echo(f"wrote {out}")


if __name__ == "__main__":
    main()
