"""End-to-end checks of the command line driver.

Each run is driven by a JSON config and writes CSV/JSON artifacts plus a
sha256 manifest.  The invariants pinned here: exit code 2 for config-phase
failures, 3 for numerical ones, byte-identical reruns for fixed seeds, and
manifest hashes that actually match the files on disk.
"""

import concurrent.futures
import csv
import hashlib
import json
import multiprocessing
import os
import re
import shutil
import subprocess
import sys
import time
import tracemalloc
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import branchedq
from branchedq import acceptance, cli
from branchedq.cli import CONFIG_SCHEMA, _write_columns, main
from branchedq.errors import ConfigError
from branchedq.evolution import (gaussian_packet, probability_current,
                                 propagate)
from branchedq.graphs import load_graph, star_secular_spectrum
from branchedq.operators import (StencilSymbol, build_convolution_hamiltonian,
                                 build_dual_wire_hamiltonian,
                                 build_unfolded_hamiltonian,
                                 fourier_conjugate_hamiltonian)
from branchedq.spectra import solve_eigensystem


def _write_config(path, payload):
    path.write_text(json.dumps(payload, indent=2))
    return str(path)


def _invoke(args):
    runner = CliRunner()
    return runner.invoke(main, args, catch_exceptions=False)


_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _env_without_blas():
    """This environment without the BLAS thread variables."""
    env = {k: v for k, v in os.environ.items() if k not in _BLAS_VARS}
    env["PYTHONPATH"] = str(Path(branchedq.__file__).resolve().parents[1])
    return env


def _classical_config(**overrides):
    cfg = {
        "version": 1,
        "mode": "classical",
        "seed": 42,
        "dispersion": {"kappa": 3.0},
        "potential": {"form": "quadratic", "alpha": 1.0},
        "classical": {
            "x": 0.0,
            "xdot": 2.0,
            "t_end": 10.0,
            "policy": "random-branch",
            "samples": 101,
        },
    }
    cfg.update(overrides)
    return cfg


def test_classical_rerun_is_byte_identical(tmp_path):
    cfg = _write_config(tmp_path / "c.json", _classical_config())
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert _invoke(["run", "--config", cfg, "--out", str(out_a)]).exit_code == 0
    first = {
        name: (out_a / name).read_bytes()
        for name in ("trajectory.csv", "summary.json", "manifest.json")
    }
    # Same destination: every artifact, manifest included, must reproduce.
    assert _invoke(["run", "--config", cfg, "--out", str(out_a)]).exit_code == 0
    for name, payload in first.items():
        assert (out_a / name).read_bytes() == payload, f"{name} not reproducible"
    assert _invoke(["run", "--config", cfg, "--out", str(out_b)]).exit_code == 0
    for name in ("trajectory.csv", "summary.json"):
        assert (out_b / name).read_bytes() == first[name], f"{name} depends on out dir"


def test_rerun_into_another_out_dir_gives_the_same_manifest(tmp_path):
    """The resolved config holds the settings, not where the run wrote."""
    cfg = _write_config(tmp_path / "c.json", _classical_config(out="ignored"))
    for out in ("a", "b"):
        assert _invoke(["run", "--config", cfg, "--out",
                        str(tmp_path / out)]).exit_code == 0
    for name in ("manifest.json", "config.resolved.json"):
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes(), f"{name} depends on out dir"
    assert "out" not in json.loads(
        (tmp_path / "a" / "config.resolved.json").read_text())


def test_manifest_hashes_match_files(tmp_path):
    cfg = _write_config(tmp_path / "c.json", _classical_config())
    out = tmp_path / "out"
    assert _invoke(["run", "--config", cfg, "--out", str(out)]).exit_code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["mode"] == "classical"
    assert manifest["outputs"], "manifest lists no outputs"
    for name, digest in manifest["outputs"].items():
        actual = hashlib.sha256((out / name).read_bytes()).hexdigest()
        assert actual == digest, f"manifest hash stale for {name}"


def test_classical_trajectory_columns(tmp_path):
    cfg = _write_config(tmp_path / "c.json", _classical_config())
    out = tmp_path / "out"
    assert _invoke(["run", "--config", cfg, "--out", str(out)]).exit_code == 0
    lines = (out / "trajectory.csv").read_text().splitlines()
    assert lines[0] == "t,x,xdot,p,E,branch,event"
    first = lines[1].split(",")
    assert float(first[0]) == 0.0 and float(first[2]) == 2.0
    summary = json.loads((out / "summary.json").read_text())
    assert set(summary) == {"status", "events", "energy_drift"}
    # A branch hop legally adds the 6.75 kinetic gap, so energy_drift is
    # only small when no events fired.
    if summary["events"] == 0:
        assert summary["energy_drift"] < 1e-6
    # The integrator's sidecar stays out of the hashed manifest.
    diag = json.loads((out / "diagnostics.json").read_text())
    assert set(diag) == {"integrate_s", "accepted_steps", "rejected_steps",
                         "rhs_evals", "events", "status"}
    assert diag["integrate_s"] > 0
    assert diag["accepted_steps"] > 0
    assert (diag["events"], diag["status"]) == (summary["events"],
                                                summary["status"])
    # Two evaluations per segment (its start and its first step size),
    # then six per tried step.  A segment ends at t_end or at an event.
    segments = diag["events"] + (diag["status"] == "completed")
    tried = diag["accepted_steps"] + diag["rejected_steps"]
    assert diag["rhs_evals"] == 6 * tried + 2 * segments
    assert "diagnostics.json" not in json.loads(
        (out / "manifest.json").read_text())["outputs"]


def test_spectrum_mode_outputs(tmp_path):
    cfg = _write_config(
        tmp_path / "s.json",
        {
            "version": 1,
            "mode": "spectrum",
            "dispersion": {"kappa": 3.0},
            "potential": {"form": "quadratic", "alpha": 1.0},
            "grid": {"kind": "folded", "n_inner": 16, "n_arm": 24},
            "solver": {"k": 3, "assembly": "folded"},
        },
    )
    out = tmp_path / "out"
    assert _invoke(["spectrum", "--config", cfg, "--out", str(out)]).exit_code == 0
    lines = (out / "eigenvalues.csv").read_text().splitlines()
    assert lines[0] == "index,energy,residual"
    assert len(lines) == 4
    energies = [float(row.split(",")[1]) for row in lines[1:]]
    assert energies == sorted(energies)
    residuals = [float(row.split(",")[2]) for row in lines[1:]]
    assert max(residuals) < 1e-10
    # The timing sidecar stays out of the hashed manifest.
    diag = json.loads((out / "diagnostics.json").read_text())
    assert set(diag) == {"assemble_s", "solve_s", "write_s", "n", "nnz",
                         "solver", "max_residual", "eps_norm",
                         "residual_margin"}
    assert diag["n"] == 2 * 24 + 16 - 1
    assert 0 < diag["nnz"] <= 5 * diag["n"]
    # 20 k <= n: the lowest 3 come from certified shift-invert.
    assert diag["solver"] == "shift-invert"
    assert diag["max_residual"] == max(residuals)
    assert diag["eps_norm"] > 0
    assert diag["residual_margin"] == pytest.approx(
        diag["max_residual"] / (64 * diag["eps_norm"]), rel=1e-12)
    assert diag["residual_margin"] < 1
    assert "diagnostics.json" not in json.loads(
        (out / "manifest.json").read_text())["outputs"]
    for i in range(3):
        state = (out / f"state_{i:03d}.csv").read_text().splitlines()
        assert state[0] == "coordinate,branch,re,im"
        assert len(state) == 1 + (2 * 24 + 16 - 1)


def test_evolve_mode_outputs(tmp_path):
    cfg = _write_config(
        tmp_path / "e.json",
        {
            "version": 1,
            "mode": "evolve",
            "dispersion": {"kappa": 3.0},
            "potential": {"form": "quadratic", "alpha": 0.5},
            "grid": {"kind": "folded", "n_inner": 12, "n_arm": 20},
            "evolution": {
                "dt": 1e-3,
                "steps": 6,
                "snapshot_every": 3,
                "packet": {"center": -4.0, "width": 1.0, "boost": 0.5},
            },
        },
    )
    out = tmp_path / "out"
    assert _invoke(["evolve", "--config", cfg, "--out", str(out)]).exit_code == 0
    report = (out / "report.csv").read_text().splitlines()
    assert report[0] == "time,norm,energy,flux_plus,flux_minus"
    assert len(report) == 8
    times = (out / "snapshot_times.csv").read_text().splitlines()
    assert times == ["time", "0", "0.0030000000000000001",
                     "0.0060000000000000001"]
    grid = (out / "grid.csv").read_text().splitlines()
    assert grid[0] == "coordinate,branch" and len(grid) == 1 + 2 * 20 + 12 - 1
    assert np.load(out / "snapshots.npy").shape == (3, 2 * 20 + 12 - 1)
    assert np.load(out / "currents.npy").shape == (3, 2 * 20 + 12 - 1)
    summary = json.loads((out / "summary.json").read_text())
    assert summary["final_time"] == 0.006
    assert summary["norm_drift"] < 1e-12
    # The timing sidecar stays out of the hashed manifest.
    diag = json.loads((out / "diagnostics.json").read_text())
    assert set(diag) == {"assemble_s", "propagate_s", "write_s", "n", "nnz",
                         "steps", "solver"}
    assert diag["n"] == 2 * 20 + 12 - 1
    assert 0 < diag["nnz"] <= 5 * diag["n"]
    assert (diag["steps"], diag["solver"]) == (6, "splu")
    assert "diagnostics.json" not in json.loads(
        (out / "manifest.json").read_text())["outputs"]


def test_free_particle_evolves_with_zero_current(tmp_path):
    cfg = _write_config(tmp_path / "e.json", {
        "version": 1, "mode": "evolve",
        "potential": {"form": "quadratic", "alpha": 0.0},
        "evolution": {"steps": 10, "packet": {"center": -8.0}}})
    out = tmp_path / "out"
    assert _invoke(["evolve", "--config", cfg, "--out", str(out)]).exit_code == 0
    report = np.loadtxt(out / "report.csv", delimiter=",", skiprows=1)
    snaps = np.load(out / "snapshots.npy")
    currents = np.load(out / "currents.npy")
    assert np.all(np.isfinite(report)) and np.all(np.isfinite(snaps))
    assert np.all(report[:, 3:] == 0.0) and np.all(currents == 0.0)


def test_graph_mode_counting_and_spectrum(tmp_path):
    cfg = _write_config(
        tmp_path / "g.json",
        {
            "version": 1,
            "mode": "graph",
            "graph": {"name": "compton", "resolution": 40, "truncation": 6.0},
            "solver": {"k": 5},
        },
    )
    out = tmp_path / "out"
    assert _invoke(["graph", "--config", cfg, "--out", str(out)]).exit_code == 0
    counting = json.loads((out / "counting.json").read_text())
    assert counting == {
        "node_conditions": 6,
        "infinity_conditions": 4,
        "total_conditions": 10,
        "disposable_constants": 10,
    }
    lines = (out / "eigenvalues.csv").read_text().splitlines()
    assert lines[0] == "index,energy,wavenumber"
    assert len(lines) == 6


def test_graph_sidecar_shows_a_spectrum_below_its_noise(tmp_path):
    """Edge elements of 1.25e-77 beside half-line elements of 0.25 put
    eps ||H||_inf far above the low spectrum.  The run still exits 0, but
    the sidecar's eps_norm exceeds every energy it wrote."""
    cfg = _write_config(tmp_path / "g.json", {
        "version": 1, "mode": "graph",
        "graph": {"name": "compton", "length": 1e-76, "truncation": 2.0,
                  "resolution": 8}})
    out = tmp_path / "out"
    assert _invoke(["graph", "--config", cfg, "--out", str(out)]).exit_code == 0
    energies = _eigenvalue_rows(out)[:, 0]
    diag = json.loads((out / "diagnostics.json").read_text())
    assert set(diag) == {"n", "nnz", "solver", "max_residual", "eps_norm",
                         "residual_margin"}
    assert diag["eps_norm"] == pytest.approx(5.68e138, rel=1e-3)
    assert diag["eps_norm"] > np.max(np.abs(energies))
    assert "diagnostics.json" not in json.loads(
        (out / "manifest.json").read_text())["outputs"]


def _eigenvalue_rows(out):
    """(energy, wavenumber) columns of a graph run's eigenvalues.csv."""
    rows = (out / "eigenvalues.csv").read_text().splitlines()[1:]
    return np.array([[float(v) for v in row.split(",")[1:]] for row in rows])


def test_graph_mode_named_star(tmp_path):
    """name "star" builds the star from `edges` and `length`."""
    cfg = _write_config(tmp_path / "g.json", {
        "version": 1, "mode": "graph",
        "graph": {"name": "star", "edges": 4, "length": 2.0,
                  "resolution": 80},
        "solver": {"k": 4}})
    out = tmp_path / "out"
    assert _invoke(["graph", "--config", cfg, "--out", str(out)]).exit_code == 0
    assert json.loads((out / "counting.json").read_text()) == {
        "node_conditions": 8, "infinity_conditions": 0,
        "total_conditions": 8, "disposable_constants": 8}
    # pi/4, then pi/2 three times: the star's secular roots at length 2.
    np.testing.assert_allclose(_eigenvalue_rows(out)[:, 1],
                               star_secular_spectrum(4, 2.0, 2.0), rtol=1e-3)


def test_graph_file_with_complex_weights_round_trips(tmp_path):
    """Complex kappa pairs are read from a graph file, and a real kappa
    reads as the pair [re, 0].

    The phase of each kappa can be gauged into its edge, so the spectrum
    is that of the graph with |kappa| in its place.
    """
    def doc(kappa):
        return {"version": 1, "vertices": [
            {"id": "c", "condition": {"type": "weighted", "kappa": kappa}},
            {"id": "a", "condition": {"type": "dirichlet"}},
            {"id": "b", "condition": {"type": "dirichlet"}}, {"id": "d"}],
            "edges": [{"u": "c", "v": "a", "length": 1.0},
                      {"u": "c", "v": "b", "length": 1.5},
                      {"u": "c", "v": "d", "length": 0.7}]}

    def run(graph, name):
        cfg = _write_config(tmp_path / f"run-{name}.json", {
            "version": 1, "mode": "graph",
            "graph": {"file": str(graph), "resolution": 25},
            "solver": {"k": 4}})
        out = tmp_path / name
        assert _invoke(["graph", "--config", cfg, "--out", str(out)]).exit_code == 0
        return out

    first = tmp_path / "weighted.json"
    first.write_text(json.dumps(doc([[0.6, 0.8], 2.0, [0.0, -1.0]])))
    assert load_graph(first).conditions["c"].kappa == (0.6 + 0.8j, 2.0, -1j)
    again = tmp_path / "again.json"
    again.write_text(json.dumps(doc([[0.6, 0.8], [2.0, 0.0], [0.0, -1.0]])))
    a, b = run(first, "first"), run(again, "again")
    for name in ("counting.json", "eigenvalues.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()
    gauge = tmp_path / "gauge.json"
    gauge.write_text(json.dumps(doc([1.0, 2.0, 1.0])))
    np.testing.assert_allclose(_eigenvalue_rows(a),
                               _eigenvalue_rows(run(gauge, "gauge")),
                               rtol=1e-10)


_WELL = {"form": "gaussian", "amplitude": -2.0, "width": 1.0, "center": 0.5}
_RING = {"kind": "periodic", "x_min": -12.0, "x_max": 12.0, "n": 96}


def _library_spectrum(assembly, law, grid, potential, solver):
    if assembly == "unfolded":
        op = build_unfolded_hamiltonian(law, grid, potential)
    elif assembly == "dual-wire":
        wire = potential if potential is not None else law
        op = build_dual_wire_hamiltonian(StencilSymbol(*solver["kinetic"]),
                                         wire, grid,
                                         accuracy=solver.get("accuracy", 2))
    elif assembly == "convolution":
        op = build_convolution_hamiltonian(law, potential, grid)
    else:
        op = fourier_conjugate_hamiltonian(law, potential, grid)
    return solve_eigensystem(op, k=solver["k"]).eigenvalues


@pytest.mark.parametrize("grid,potential,solver", [
    ({"kind": "line", "x_min": -8.0, "x_max": 8.0, "n": 120},
     {"form": "quadratic", "alpha": 1.0},
     {"k": 4, "assembly": "unfolded"}),
    ({"kind": "line", "x_min": -10.0, "x_max": 10.0, "n": 800},
     {"form": "quadratic", "alpha": 1.0},
     {"k": 5, "assembly": "dual-wire", "kinetic": [0, 0, 0.5, 0],
      "accuracy": 4}),
    ({"kind": "folded", "n_inner": 16, "n_arm": 24}, None,
     {"k": 4, "assembly": "dual-wire", "kinetic": [0, 0, 0.5, 0]}),
    (_RING, _WELL, {"k": 4, "assembly": "convolution"}),
    (_RING, _WELL, {"k": 4, "assembly": "fourier"}),
], ids=["unfolded-line", "dual-wire-line", "dual-wire-folded",
        "convolution-ring", "fourier-ring"])
def test_spectrum_assemblies_match_library(tmp_path, grid, potential, solver):
    config = {"version": 1, "mode": "evolve", "dispersion": {"kappa": 3.0},
              "grid": grid, "solver": solver}
    if potential is not None:
        config["potential"] = potential
    cfg = _write_config(tmp_path / "s.json", config)
    out = tmp_path / "out"
    # A mode subcommand overrides the config's mode.
    result = _invoke(["spectrum", "--config", cfg, "--out", str(out)])
    assert result.exit_code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["mode"] == "spectrum"
    rows = (out / "eigenvalues.csv").read_text().splitlines()[1:]
    energies = np.array([float(row.split(",")[1]) for row in rows])
    law = cli._law_from(config)
    expected = _library_spectrum(
        solver["assembly"], law, cli._grid_from(config, law),
        cli._potential_from(config), solver)
    np.testing.assert_allclose(energies, expected, rtol=1e-12, atol=1e-12)
    if solver["assembly"] == "dual-wire" and grid["kind"] == "line":
        # p^2/2 + x^2/2: the oscillator ladder n + 1/2.
        np.testing.assert_allclose(energies, np.arange(5) + 0.5, atol=1e-5)


def test_kernel_hermitian_outputs(tmp_path):
    cfg = _write_config(
        tmp_path / "k.json",
        {
            "version": 1,
            "mode": "kernel",
            "dispersion": {"kappa": 3.0},
            "potential": {
                "form": "gaussian",
                "amplitude": 2.0,
                "width": 1.0,
                "center": 1.5,
            },
            "grid": {"kind": "line", "x_min": -12.0, "x_max": 12.0, "n": 160},
            "kernel": {"mode": "hermitian"},
        },
    )
    out = tmp_path / "out"
    assert _invoke(["kernel", "--config", cfg, "--out", str(out)]).exit_code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["mode"] == "hermitian"
    assert summary["hermiticity_defect"] < 1e-12
    lines = (out / "kernel.csv").read_text().splitlines()
    assert lines[0] == "offset,re,im"
    # One row per Toeplitz offset (i - j)h, so 2n - 1 of them.
    assert len(lines) == 1 + (2 * 160 - 1)
    offsets = np.array([float(row.split(",")[0]) for row in lines[1:]])
    np.testing.assert_allclose(offsets, -offsets[::-1], atol=1e-12)
    # The sidecar, outside the manifest, sizes the dense kernel matrix.
    assert json.loads((out / "diagnostics.json").read_text()) == {
        "n": 160, "nnz": 160 * 160}
    assert "diagnostics.json" not in json.loads(
        (out / "manifest.json").read_text())["outputs"]


@pytest.mark.parametrize("mode", ["hermitian", "naive"])
def test_kernel_run_holds_only_slabs(tmp_path, mode):
    # At C2's and C10's size, a kernel run that built the whole kernel
    # peaked at 1.18 times its bytes; its defect over slabs, at 0.28.
    n = 800
    cfg = _write_config(tmp_path / "k.json", {
        "version": 1, "mode": "kernel",
        "potential": {"form": "gaussian", "amplitude": 2.0, "width": 1.0,
                      "center": 1.5},
        "grid": {"kind": "line", "x_min": -20.0, "x_max": 20.0, "n": n},
        "kernel": {"mode": mode}})
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = _invoke(["kernel", "--config", cfg, "--out",
                          str(tmp_path / "out")])
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert result.exit_code == 0
    assert json.loads((tmp_path / "out" / "diagnostics.json").read_text()) \
        == {"n": n, "nnz": n * n}
    assert peak <= 0.4 * n * n * 16


def test_kernel_rejects_polynomial_potential(tmp_path):
    cfg = _write_config(
        tmp_path / "k.json",
        {
            "version": 1,
            "mode": "kernel",
            "potential": {"form": "quadratic", "alpha": 1.0},
            "grid": {"kind": "line", "x_min": -5.0, "x_max": 5.0, "n": 50},
        },
    )
    result = _invoke(["kernel", "--config", cfg, "--out", str(tmp_path / "out")])
    assert result.exit_code == 2
    assert "config error" in result.output


# exp(-x**2) tabulated on [-5, 5]; its transform is sqrt(pi) exp(-q**2/4).
_TABLE_X = np.linspace(-5.0, 5.0, 81)
_SAMPLED = {"form": "sampled", "x": _TABLE_X.tolist(),
            "values": np.exp(-_TABLE_X**2).tolist()}


def test_kernel_tabulates_a_sampled_potential(tmp_path):
    cfg = _write_config(tmp_path / "k.json", {
        "version": 1, "mode": "kernel", "potential": _SAMPLED,
        "grid": {"kind": "line", "x_min": -4.0, "x_max": 4.0, "n": 40}})
    out = tmp_path / "out"
    assert _invoke(["kernel", "--config", cfg, "--out", str(out)]).exit_code == 0
    rows = np.array([[float(v) for v in row.split(",")] for row
                     in (out / "kernel.csv").read_text().splitlines()[1:]])
    q = rows[:, 0]
    np.testing.assert_allclose(rows[:, 1] + 1j * rows[:, 2],
                               np.sqrt(np.pi) * np.exp(-q**2 / 4.0),
                               rtol=0.0, atol=1e-9)
    assert json.loads((out / "summary.json").read_text())[
        "hermiticity_defect"] < 1e-14


def test_classical_mode_takes_a_sampled_potential(tmp_path):
    """A tabulated bump steers the orbit as the analytic one does."""
    finals = []
    for potential in (_SAMPLED, {"form": "gaussian", "amplitude": 1.0,
                                 "width": 0.5 ** 0.5}):
        cfg = _write_config(tmp_path / "c.json", {
            "version": 1, "mode": "classical", "potential": potential,
            "classical": {"x": -3.0, "xdot": 1.5, "t_end": 4.0,
                          "samples": 9}})
        out = tmp_path / potential["form"]
        assert _invoke(["classical", "--config", cfg,
                        "--out", str(out)]).exit_code == 0
        rows = (out / "trajectory.csv").read_text().splitlines()
        finals.append([float(v) for v in rows[-1].split(",")[:3]])
    (t_s, x_s, v_s), (t_a, x_a, v_a) = finals
    assert t_s == t_a == 4.0
    assert abs(x_s - x_a) < 1e-2 and abs(v_s - v_a) < 1e-2


def test_schema_violation_exits_two(tmp_path):
    jsonschema.validators.validator_for(CONFIG_SCHEMA).check_schema(CONFIG_SCHEMA)
    cfg = _write_config(
        tmp_path / "bad.json",
        {"version": 1, "mode": "spectrum", "grid": {"kind": "hexagonal"}},
    )
    result = _invoke(["run", "--config", cfg])
    assert result.exit_code == 2
    assert "config error" in result.output
    assert "grid.kind" in result.output


_SMALL_FOLDED = {
    "version": 1,
    "dispersion": {"kappa": 3.0},
    "potential": {"form": "quadratic", "alpha": 1.0},
    "grid": {"kind": "folded", "n_inner": 8, "n_arm": 10},
}

_LINE_KERNEL = {
    "version": 1, "mode": "kernel",
    "grid": {"kind": "line", "x_min": -5.0, "x_max": 5.0, "n": 50},
}

_NEEDLE = {"form": "gaussian", "amplitude": 0.5, "width": 1e-300,
           "center": 1.0}


@pytest.mark.parametrize("payload,where", [
    (dict(_SMALL_FOLDED, mode="spectrum",
          sweep={"parameter": "solver.k", "values": [2, "abc"]}),
     "sweep value 1"),
    (dict(_SMALL_FOLDED, mode="evolve",
          evolution={"dt": 1e-3, "steps": 2, "packet": {"width": 0}}),
     "width"),
    (dict(_SMALL_FOLDED, mode="evolve",
          evolution={"dt": 1e-3, "steps": 2, "packet": {"center": 1000}}),
     "packet norm"),
    (dict(_SMALL_FOLDED, mode="evolve", evolution={"dt": 10.0, "steps": 2}),
     "budget"),
    (_classical_config(classical={"tol": 0}), "classical.tol"),
    (_classical_config(classical={"tol": -1}), "classical.tol"),
    (_classical_config(dispersion={"coefficients": [1.0, 0.0, 0.0, 0.0]}),
     "coefficients"),
    (_classical_config(classical={"xdot": 1.0}), "degeneracy surface"),
    ({"version": 1, "mode": "verify", "criteria": ["C99"]}, "criteria"),
    ({"version": 1, "mode": "graph",
      "graph": {"name": "compton", "resolution": 20}}, "truncation"),
    (dict(_SMALL_FOLDED, mode="kernel",
          potential={"form": "gaussian", "amplitude": 1.0, "width": 1.0}),
     "LineGrid"),
    (dict(_SMALL_FOLDED, mode="spectrum", dispersion={"kappa": float("nan")}),
     "number NaN is NaN"),
    (dict(_SMALL_FOLDED, mode="evolve",
          evolution={"dt": float("nan"), "steps": 2}),
     "number NaN is NaN"),
    (dict(_SMALL_FOLDED, mode="spectrum", dispersion={"kappa": 1e200}),
     "finite cube"),
    (dict(_SMALL_FOLDED, mode="spectrum", dispersion={"kappa": 10**400}),
     "beyond the float range"),
    (_classical_config(potential={"form": "gaussian", "width": 0}),
     "width must be positive"),
    (dict(_LINE_KERNEL, potential={"form": "lorentzian", "width": 0}),
     "width must be positive"),
    (dict(_LINE_KERNEL, potential={"form": "sech2", "width": 0}),
     "width must be positive"),
    (dict(_SMALL_FOLDED, mode="spectrum",
          grid={"kind": "folded-x", "n_inner": 8, "n_arm": 10}),
     "grid.kind"),
    (dict(_SMALL_FOLDED, mode="spectrum", solver={"assembly": "unfolded"}),
     "needs a LineGrid"),
    ({"version": 1, "mode": "classical",
      "classical": {"t_end": 0.0, "samples": 2}}, "classical: t_end"),
    ({"version": 1, "mode": "classical", "classical": {"xdot": 1e300}},
     "classical: initial energy"),
    # xdot**3 is finite here, but the energy's xdot**4 is not.
    ({"version": 1, "mode": "classical", "classical": {"xdot": 1e80}},
     "classical: initial energy"),
    (dict(_LINE_KERNEL, mode="spectrum",
          grid={"kind": "line", "x_min": 0, "x_max": 1e-300, "n": 100},
          potential={"form": "quadratic", "alpha": 1.0}), "grid step"),
    (dict(_LINE_KERNEL, mode="spectrum",
          grid={"kind": "line", "x_min": -1e308, "x_max": 1e308, "n": 100},
          potential={"form": "quadratic", "alpha": 1.0}), "grid step inf"),
    (dict(_LINE_KERNEL, mode="evolve",
          grid={"kind": "line", "x_min": 0, "x_max": 1e300, "n": 100},
          potential={"form": "gaussian", "amplitude": -2.0, "width": 1.0},
          solver={"assembly": "dual-wire",
                  "kinetic": [1e-300, 100, 0.5, 1e300]}), "grid step"),
    (dict(_LINE_KERNEL, mode="spectrum",
          solver={"assembly": "dual-wire", "kinetic": [0, 0, 1, 0]}),
     "potential: the dual-wire assembly"),
    # h**2 is finite, but the potential 0.5 x**2 overflows at the far end.
    (dict(_LINE_KERNEL, mode="spectrum",
          grid={"kind": "line", "x_min": 0, "x_max": 1e155, "n": 100},
          potential={"form": "quadratic", "alpha": 1.0},
          solver={"assembly": "dual-wire", "kinetic": [0, 0, 1, 0], "k": 2}),
     "not finite at every grid node"),
    # (u - center)**2 overflows: one message, no numpy warning before it.
    (dict(_SMALL_FOLDED, mode="evolve",
          evolution={"steps": 2, "packet": {"center": 1e300}}),
     "packet norm"),
    # 4.0 * width**2 overflowed a Python float.
    (dict(_SMALL_FOLDED, mode="evolve",
          evolution={"steps": 2, "packet": {"width": 1e300}}),
     "evolution: packet width"),
    # V(3) = 0, but V'(3) is NaN: the first step would take a NaN stage,
    # and no step could be accepted.
    (_classical_config(potential=_NEEDLE, classical={"x": 3.0, "xdot": 2.0}),
     "classical: initial force"),
    (_classical_config(potential=_NEEDLE, dispersion={"kappa": 1e8},
                       classical={"x": 3.0, "xdot": 1.0, "t_end": 0.5,
                                  "tol": 1e300}),
     "classical: initial force"),
    (dict(_SMALL_FOLDED, mode="spectrum",
          solver={"k": 3, "assembly": "dual-wire",
                  "kinetic": [0, 0, 0.5, 0]}),
     "potential: the dual-wire assembly on a folded grid takes its W from "
     "kappa"),
    # Graph mode reads solver.k; the graph section has no k of its own.
    ({"version": 1, "mode": "graph",
      "graph": {"name": "box", "resolution": 10, "truncation": 2.0, "k": 3}},
     "'k' was unexpected"),
    # Settings that the mode never reads.
    ({"version": 1, "mode": "graph",
      "graph": {"name": "box", "resolution": 10, "truncation": 2.0},
      "solver": {"k": 3, "assembly": "fourier", "accuracy": 4,
                 "kinetic": [1, 2, 3, 4]}},
     "solver: graph mode does not read accuracy, assembly, kinetic"),
    (dict(_LINE_KERNEL, mode="spectrum", grid=_RING, potential=_WELL,
          solver={"k": 4, "assembly": "fourier"}, kernel={"mode": "naive"}),
     "kernel: the fourier assembly does not read it"),
    (dict(_SMALL_FOLDED, mode="evolve", solver={"k": 3},
          evolution={"steps": 2}),
     "solver: evolve mode does not read k"),
    (_classical_config(grid={"kind": "folded", "n_inner": 8, "n_arm": 10}),
     "grid: classical mode does not read it"),
    ({"version": 1, "mode": "graph",
      "graph": {"name": "box", "resolution": 10, "truncation": 2.0},
      "sweep": {"parameter": "dispersion.kappa", "values": [2.0]}},
     "sweep value 0: dispersion: graph mode does not read it"),
    # Keys that the grid kind, the solver assembly or the graph source
    # never reads.
    (dict(_LINE_KERNEL, mode="spectrum",
          potential={"form": "quadratic", "alpha": 1.0},
          grid=dict(_LINE_KERNEL["grid"], n_inner=7)),
     "grid: a line grid does not read n_inner"),
    (dict(_SMALL_FOLDED, mode="spectrum",
          grid=dict(_SMALL_FOLDED["grid"], x_min=-1)),
     "grid: a folded grid does not read x_min"),
    (dict(_SMALL_FOLDED, mode="spectrum",
          solver={"assembly": "folded", "kinetic": [0, 0, 1, 0]}),
     "solver: the folded assembly does not read kinetic"),
    (dict(_LINE_KERNEL, mode="spectrum", potential=_WELL,
          solver={"assembly": "convolution", "accuracy": 4}),
     "solver: the convolution assembly does not read accuracy"),
    ({"version": 1, "mode": "graph",
      "graph": {"name": "box", "edges": 5, "resolution": 10,
                "truncation": 2.0}},
     "graph: the box graph does not read edges"),
    ({"version": 1, "mode": "graph",
      "graph": {"name": "star", "resolution": 10, "truncation": 2.0}},
     "graph: the star graph does not read truncation"),
    ({"version": 1, "mode": "graph",
      "graph": {"file": "graph.json", "name": "star", "resolution": 10}},
     "graph: a graph file does not read name"),
    # Without a resolution graph mode assembles nothing to truncate or
    # solve.
    ({"version": 1, "mode": "graph",
      "graph": {"name": "box", "truncation": 2.0}, "solver": {"k": 3}},
     "graph: graph mode without a resolution does not read truncation"),
    ({"version": 1, "mode": "graph", "graph": {"name": "box"},
      "solver": {"k": 3}},
     "solver: graph mode without a resolution does not read it"),
    # The naive windows split at the junctions, which need kappa > 0.
    (dict(_LINE_KERNEL, potential=_WELL, dispersion={"kappa": -1.0},
          kernel={"mode": "naive"}),
     "kernel: naive mode needs the branched domain"),
    (dict(_LINE_KERNEL, potential=_WELL, dispersion={"kappa": 0.0},
          kernel={"mode": "naive"}),
     "kernel: naive mode needs the branched domain"),
    # A naive kernel of an asymmetric well assembles a non-Hermitian matrix.
    ({"version": 1, "mode": "spectrum",
      "potential": {"form": "gaussian", "amplitude": -1.5, "width": 0.7,
                    "center": 0.8},
      "grid": {"kind": "line", "x_min": -8.0, "x_max": 8.0, "n": 120},
      "solver": {"k": 6, "assembly": "convolution"},
      "kernel": {"mode": "naive"}},
     "kernel: the convolution assembly with a naive kernel does not read it"),
    # Elements this short put a stiffness 2/h**2 past the float range.
    ({"version": 1, "mode": "graph",
      "graph": {"name": "compton", "length": 1e-300, "truncation": 2.0,
                "resolution": 8}}, "graph: element length"),
    ({"version": 1, "mode": "graph",
      "graph": {"name": "compton", "truncation": 1e-300, "resolution": 8}},
     "graph: element length"),
    # The unfolded kinetic term reaches a momentum whose square overflows.
    (dict(_LINE_KERNEL, mode="spectrum",
          potential={"form": "quartic", "alpha": 0.4, "beta": 0.3,
                     "gamma": 0.2},
          grid={"kind": "line", "x_min": 2, "x_max": 1e300, "n": 40}),
     "solver: momentum |p|"),
    # Keys that the run reads and needs, with no default.
    (dict(_LINE_KERNEL, mode="spectrum", potential=_WELL,
          solver={"assembly": "dual-wire"}),
     "solver: the dual-wire assembly needs kinetic"),
    (dict(_LINE_KERNEL, mode="spectrum", grid=_RING,
          solver={"assembly": "fourier"}),
     "potential: the fourier assembly needs one"),
    (dict(_LINE_KERNEL, mode="spectrum", grid=_RING, potential=_WELL),
     "solver: a periodic grid needs assembly"),
    (dict(_LINE_KERNEL, mode="spectrum", potential=_WELL,
          grid={"kind": "line", "x_min": -5.0, "x_max": 5.0}),
     "grid: a line grid needs n"),
    (dict(_LINE_KERNEL, potential={"form": "quadratic", "alpha": 1.0}),
     "potential: kernel mode needs one with an integrable transform"),
    ({"version": 1, "mode": "graph", "graph": {"name": "ring"}},
     "$.graph.name: 'ring' is not one of ['star', 'compton', 'box']"),
    ({"version": 1, "mode": "graph", "graph": {"resolution": 10}},
     "graph: graph mode without a file needs name"),
    (dict(_LINE_KERNEL, potential={"form": "sampled"}),
     "potential: the sampled form needs x and values"),
    (_classical_config(potential={"form": "gaussian", "depth": 1.0}),
     "potential: the gaussian form takes no parameter 'depth'"),
    (_classical_config(classical={"policy": "continue"}),
     "'continue' is not one of ['halt', 'random-branch']"),
    # eps * ||H||inf is 0, so the residuals have no scale.
    (dict(_LINE_KERNEL, mode="spectrum",
          potential={"form": "quadratic", "alpha": 0},
          solver={"assembly": "dual-wire", "kinetic": [0, 0, 0, 0]}),
     "solver: the operator is zero to double precision"),
    # 64 * eps * ||H||inf squared overflows, so a residual's norm would.
    ({"version": 1, "mode": "spectrum",
      "grid": {"kind": "line", "x_min": -1.0, "x_max": 1.0, "n": 5},
      "potential": {"form": "quadratic", "alpha": 1.0},
      "solver": {"assembly": "dual-wire",
                 "kinetic": [-1.0, 4.4366529212936, 1e-8, 1e300], "k": 2}},
     "solver: the operator is too large for double precision"),
], ids=["sweep-value", "packet-width", "packet-center", "dt-budget",
        "classical-tol-zero", "classical-tol-negative", "classical-quartic-law",
        "classical-on-cusp", "unknown-criterion", "graph-no-truncation",
        "kernel-folded-grid", "kappa-nan", "dt-nan", "kappa-cube-overflow",
        "kappa-past-float-range",
        "classical-gaussian-zero-width", "kernel-lorentzian-zero-width",
        "kernel-sech2-zero-width", "folded-x-grid", "unfolded-on-folded-grid",
        "classical-no-time-to-sample", "classical-xdot-overflow",
        "classical-energy-overflow", "line-step-underflow",
        "line-step-overflow", "dual-wire-step-overflow",
        "dual-wire-no-potential", "dual-wire-potential-overflow",
        "packet-center-overflow", "packet-width-overflow",
        "classical-force-nan", "classical-force-nan-loose-tol",
        "dual-wire-folded-potential", "graph-k-moved",
        "graph-reads-only-solver-k", "fourier-kernel-mode", "evolve-solver-k",
        "classical-grid", "sweep-unread-section", "line-grid-n-inner",
        "folded-grid-x-min", "folded-assembly-kinetic",
        "convolution-accuracy", "box-graph-edges", "star-graph-truncation",
        "graph-file-name", "graph-truncation-without-resolution",
        "graph-solver-without-resolution", "kernel-naive-unbranched",
        "kernel-naive-unbranched-flat", "convolution-naive",
        "graph-element-underflow",
        "graph-truncation-underflow", "unfolded-momentum-overflow",
        "dual-wire-no-kinetic", "fourier-no-potential",
        "periodic-no-assembly", "line-grid-no-n", "kernel-quadratic",
        "graph-unknown-name", "graph-no-source", "sampled-no-table",
        "potential-unknown-parameter", "classical-continue-policy",
        "dual-wire-zero-operator", "dual-wire-residual-overflow"])
# A numpy warning printed before the message breaks the one-line rule.
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_bad_values_exit_two(tmp_path, payload, where):
    cfg = _write_config(tmp_path / "bad.json", payload)
    result = _invoke(["run", "--config", cfg, "--out", str(tmp_path / "out")])
    assert result.exit_code == 2
    # One message line, no traceback.
    lines = result.output.splitlines()
    assert len(lines) == 1 and lines[0].startswith("config error: ")
    assert where in result.output
    # After the sweep point, it opens with the config file or a config
    # section (as a schema path for a sweep point's schema error).
    sections = "|".join(CONFIG_SCHEMA["properties"])
    assert re.match(rf"config error: (sweep value \d+: )?({re.escape(cfg)}: "
                    rf"|(\$\.)?({sections})[:.[])", lines[0]), lines[0]


def test_sweep_refuses_a_point_before_any_runs(tmp_path):
    cfg = _write_config(tmp_path / "s.json", dict(
        _LINE_KERNEL, mode="spectrum", potential=_WELL,
        sweep={"parameter": "solver.assembly",
               "values": ["unfolded", "dual-wire"]}))
    out = tmp_path / "out"
    result = _invoke(["run", "--config", cfg, "--out", str(out),
                      "--jobs", "1"])
    assert result.exit_code == 2
    assert result.output == ("config error: sweep value 1: solver: the "
                             "dual-wire assembly needs kinetic\n")
    assert not (out / "sweep-000" / "manifest.json").exists()


_STAR = [{"id": "c"}, {"id": "t", "condition": {"type": "dirichlet"}}]


def _star_edge(key, number):
    """A one-edge star graph file whose edge `key` is the JSON text `number`."""
    edge = {"u": "c", "v": "t", "length": 1.0, key: 0}
    return json.dumps({"version": 1, "vertices": _STAR, "edges": [edge]}) \
        .replace(f'"{key}": 0', f'"{key}": {number}')


@pytest.mark.parametrize("text,where", [
    (None, "No such file"),
    ('{"version": 1, "vertices": "oops"}',
     "config error: graph file: $.vertices: 'oops' is not of type 'array'"),
    ('{"version": 1, "vertices": [', "Expecting value"),
    (json.dumps({"version": 1, "vertices": [{"id": "a"}],
                 "edges": [{"u": "a", "v": "b", "length": 1.0}]}), "dangling"),
    (json.dumps({"version": 1, "vertices": [
        {"id": "c", "condition": {"type": "weighted", "kappa": [[1, "x"]]}},
        {"id": "t"}], "edges": [{"u": "c", "v": "t", "length": 1.0}]}),
     "kappa"),
    (json.dumps({"version": 1, "vertices": _STAR, "edges": [
        {"u": "c", "v": "t", "length": 1.0, "beta": 0.5}],
        "half_lines": [{"vertex": "c"}]}), "drift balance"),
    (json.dumps({"version": 1, "vertices": _STAR}), "no edges"),
    (json.dumps({"version": 1, "vertices": [
        {"id": "c", "condition": {"type": "weighted", "kappa": ["x"]}},
        {"id": "t"}], "edges": [{"u": "c", "v": "t", "length": 1.0}]}),
     "config error: graph file: $.vertices[0].condition.kappa[0]: "
     "'x' is not of type 'number', 'array'"),
    (_star_edge("alpha", "NaN"), "config error: graph: number NaN is NaN"),
    (_star_edge("beta", "Infinity"),
     "config error: graph: number Infinity is NaN"),
    (_star_edge("alpha", "1e400"), "config error: graph: number 1e400 is NaN"),
    (_star_edge("length", "Infinity"),
     "config error: graph: number Infinity is NaN"),
    # A zero matrix, and one whose eps * ||H||inf underflows to 0.
    (_star_edge("alpha", "0.0"),
     "config error: graph: the operator is zero to double precision"),
    (_star_edge("alpha", "1e-320"),
     "config error: graph: the operator is zero to double precision"),
], ids=["missing", "schema", "truncated", "dangling", "kappa-type",
        "drift-imbalance", "no-lines", "kappa-not-number-or-pair",
        "alpha-nan", "beta-infinity", "alpha-overflow", "length-infinity",
        "alpha-zero", "alpha-subnormal"])
def test_bad_graph_file_exits_two(tmp_path, text, where):
    graph = tmp_path / "graph.json"
    if text is not None:
        graph.write_text(text)
    cfg = _write_config(tmp_path / "g.json", {
        "version": 1, "mode": "graph",
        "graph": {"file": str(graph), "resolution": 10, "truncation": 2.0}})
    result = _invoke(["run", "--config", cfg, "--out", str(tmp_path / "out")])
    assert result.exit_code == 2
    assert "config error" in result.output
    assert where in result.output


def test_mode_override_checks_what_the_new_mode_reads(tmp_path):
    cfg = _write_config(tmp_path / "s.json", dict(_SMALL_FOLDED, mode="spectrum"))
    result = _invoke(["graph", "--config", cfg, "--out", str(tmp_path / "out")])
    assert result.exit_code == 2
    assert result.output == ("config error: dispersion: graph mode does not "
                             "read it\n")
    assert not (tmp_path / "out").exists()
    assert set(cli._MODE_NAMES) == set(cli._MODES)


# Each mode once, with the settings config.resolved.json must record: its
# defaults, and no `out`.
_ROUND_TRIPS = {
    "spectrum-folded": (
        {"version": 1, "mode": "spectrum",
         "potential": {"form": "quadratic", "alpha": 1.0}},
        {"solver.assembly": "folded", "solver.accuracy": 2, "solver.k": 10,
         "grid.n_inner": 40, "grid.n_arm": 60, "dispersion.kappa": 3.0}),
    "spectrum-dual-wire-line": (
        {"version": 1, "mode": "spectrum",
         "potential": {"form": "quadratic", "alpha": 1.0},
         "grid": {"kind": "line", "x_min": -8.0, "x_max": 8.0, "n": 120},
         "solver": {"assembly": "dual-wire", "kinetic": [0, 0, 0.5, 0],
                    "k": 4}},
        {"solver.accuracy": 2, "solver.k": 4}),
    "evolve": (
        dict(_SMALL_FOLDED, mode="evolve",
             evolution={"steps": 4, "snapshot_every": 2,
                        "stability_budget": None}),
        {"solver.assembly": "folded", "evolution.dt": 1e-3,
         "evolution.stability_budget": None, "evolution.packet.width": 1.0}),
    "graph": (
        {"version": 1, "mode": "graph",
         "graph": {"name": "compton", "resolution": 20, "truncation": 4.0}},
        {"graph.length": 1.0, "solver.k": 6}),
    "classical": (
        _classical_config(out="elsewhere", classical={"t_end": 2.0}),
        {"seed": 42, "classical.xdot": 2.0, "classical.policy": "halt",
         "classical.max_events": 32}),
    "kernel": (
        dict(_LINE_KERNEL, potential=_WELL),
        {"kernel.mode": "hermitian", "dispersion.kappa": 3.0}),
    "verify": (
        {"version": 1, "mode": "verify", "criteria": ["C6"]},
        {"criteria": ["C6"]}),
}


@pytest.mark.parametrize("config,recorded", _ROUND_TRIPS.values(),
                         ids=_ROUND_TRIPS)
def test_resolved_config_reproduces_the_run(tmp_path, config, recorded):
    """Fed back in, config.resolved.json gives every artifact again, itself
    included, byte for byte."""
    first, again = tmp_path / "first", tmp_path / "again"
    cfg = _write_config(tmp_path / "c.json", config)
    assert _invoke(["run", "--config", cfg, "--out", str(first),
                    "--jobs", "1"]).exit_code == 0
    resolved = first / "config.resolved.json"
    assert _invoke(["run", "--config", str(resolved), "--out", str(again),
                    "--jobs", "1"]).exit_code == 0
    assert _tree(again) == _tree(first)
    doc = json.loads(resolved.read_text())
    assert "out" not in doc
    for dotted, value in recorded.items():
        node = doc
        for key in dotted.split("."):
            node = node[key]
        assert node == value, dotted


@pytest.mark.parametrize("config", [c for c, _ in _ROUND_TRIPS.values()],
                         ids=_ROUND_TRIPS)
def test_manifest_digests_are_the_files_on_disk(tmp_path, monkeypatch,
                                                config):
    """The digests, taken from the bytes as they are written, are the sha256
    of each file on disk, and the manifest lists every artifact but itself
    and the sidecar.  Small chunks write each CSV in several pieces."""
    monkeypatch.setattr(cli, "_ROWS_PER_CALL", 64)
    cfg = _write_config(tmp_path / "c.json", config)
    out = tmp_path / "out"
    assert _invoke(["run", "--config", cfg, "--out", str(out),
                    "--jobs", "1"]).exit_code == 0
    outputs = json.loads((out / "manifest.json").read_text())["outputs"]
    on_disk = {p.name for p in out.iterdir()} - {"manifest.json",
                                                  "diagnostics.json"}
    assert set(outputs) == on_disk
    for name, digest in outputs.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == \
            digest, name


def _drawn(schema):
    """Values that a schema fragment of the config table accepts."""
    if "const" in schema:
        return st.just(schema["const"])
    if "enum" in schema:
        return st.sampled_from(schema["enum"])
    kind = schema["type"]
    if kind == "object":
        required = schema.get("required", ())
        return st.fixed_dictionaries(
            {key: _drawn(schema["properties"][key]) for key in required},
            optional={key: _drawn(sub)
                      for key, sub in schema["properties"].items()
                      if key not in required})
    if kind == "array":
        return st.lists(_drawn(schema.get("items", {"const": 1})),
                        min_size=schema.get("minItems", 0),
                        max_size=schema.get("maxItems", 2))
    if kind == "integer":
        return st.integers(schema["minimum"], schema["minimum"] + 2)
    if kind == "string":
        return st.just("other")
    return st.sampled_from([0.5, 2.0] + ([None] if "null" in kind else []))


@st.composite
def _configs(draw):
    """A valid config: a mode and up to three other top-level entries."""
    entries = CONFIG_SCHEMA["properties"]
    config = {"version": 1, "mode": draw(_drawn(entries["mode"]))}
    others = sorted(set(entries) - set(config))
    for name in draw(st.lists(st.sampled_from(others), max_size=3,
                              unique=True)):
        config[name] = draw(_drawn(entries[name]))
    return config


def _paths(doc, table=cli._CONFIG, prefix=()):
    """Every key of a config as a path, down the sections of the table."""
    for key, value in doc.items():
        yield prefix + (key,)
        if isinstance(table.get(key), dict):
            yield from _paths(value, table[key], prefix + (key,))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(config=_configs())
def test_resolve_reads_what_the_check_accepts(config):
    cli.validate_config(config)
    resolved = cli._resolve(config)
    cli.validate_config(resolved)
    # version, mode, seed, and out and sweep, read before the run.
    every_mode = {(name,) for name, spec in cli._CONFIG.items()
                  if not isinstance(spec, dict)
                  and (spec.reads is None or set(spec.reads) == set(cli._MODES))}
    unread = set(_paths(config)) - set(_paths(resolved)) - every_mode
    try:
        assert cli._check_reads(config) == resolved
    except ConfigError as exc:
        # Refused for an unread key, or else for a key the run needs and
        # has no value for.
        needed = re.fullmatch(r"(\w+): .* needs (\w+)", str(exc))
        assert bool(unread) != bool(needed), str(exc)
        if needed:
            section, key = needed.groups()
            assert cli._CONFIG[section][key].needs
            assert key not in resolved.get(section, {})
    else:
        assert not unread
    # Resolving again changes nothing.
    assert cli._resolve(resolved) == resolved


def test_malformed_json_exits_two(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"version": 1,')
    result = _invoke(["run", "--config", str(path)])
    assert result.exit_code == 2
    assert "config error" in result.output


def test_missing_config_exits_two():
    result = _invoke(["run"])
    assert result.exit_code == 2


# At kappa 1e-8 a quadratic well's flow stalls away from any cusp: the
# step size collapses, a numerical failure.  (A naive convolution kernel,
# which assembled a non-Hermitian matrix, is refused as a config error.)
_STALL = {"version": 1, "mode": "classical", "dispersion": {"kappa": 1e-8},
          "potential": {"form": "quadratic", "alpha": 1.0}}


# At kappa 0 every turning point lies on the degeneracy surface xdot = 0,
# where the cusp speed is 0 too, so no stall there counts as a cusp arrival.
# Without a potential the same law never turns and exits 0.
_STALLS = {
    "kappa 1e-8": (_STALL, "numerical failure: step size collapsed"),
    "kappa 0": (dict(_STALL, dispersion={"kappa": 0.0}),
                "numerical failure: step size collapsed at t = 2.93483 away "
                "from any cusp (xdot = 4.66016e-05)\n"),
}


def test_numerical_failure_exits_three(tmp_path):
    for name, (config, message) in _STALLS.items():
        cfg = _write_config(tmp_path / f"{name}.json", config)
        result = _invoke(["classical", "--config", cfg, "--out",
                          str(tmp_path / name)])
        assert result.exit_code == 3, name
        assert message in result.output, name
    free = {key: value for key, value in _STALLS["kappa 0"][0].items()
            if key != "potential"}
    cfg = _write_config(tmp_path / "free.json", free)
    assert _invoke(["classical", "--config", cfg, "--out",
                    str(tmp_path / "free")]).exit_code == 0


# Below kappa 5.5e-216 the junction momentum q_+ = 2 (kappa/3)**1.5
# underflows to 0, so the law is unbranched: the momentum inversion took
# q_+ = 0 as a window and divided 0 by 0 at p = 0.
_TINY_KAPPA = {"version": 1, "mode": "spectrum",
               "dispersion": {"kappa": 1e-300},
               "potential": {"form": "gaussian", "amplitude": 1.0,
                             "width": 1.0},
               "grid": {"kind": "periodic", "x_min": -10, "x_max": 10,
                        "n": 64},
               "solver": {"assembly": "fourier", "k": 4}}


def test_kappa_whose_junction_underflows_runs_unbranched(tmp_path):
    cfg = _write_config(tmp_path / "tiny.json", _TINY_KAPPA)
    result = _invoke(["run", "--config", cfg, "--out", str(tmp_path / "o")])
    assert (result.exit_code, result.stderr) == (0, "")
    energies = np.loadtxt(tmp_path / "o" / "eigenvalues.csv", delimiter=",",
                          skiprows=1)[:, 1]
    assert energies.size == 4 and np.all(np.isfinite(energies))


def test_process_entry_keeps_artifacts_and_exit_codes(tmp_path):
    """`python -m branchedq.cli` runs through `console()`, which freezes the
    import heap before the run: the same manifest as an in-process run, and
    the same exit codes with one stderr line."""
    env = {**os.environ,
           "PYTHONPATH": str(Path(branchedq.__file__).resolve().parents[1])}

    def run(payload, name):
        cfg = _write_config(tmp_path / f"{name}.json", payload)
        proc = subprocess.run(
            [sys.executable, "-m", "branchedq.cli", "run", "--config", cfg,
             "--out", str(tmp_path / name), "--jobs", "1"],
            capture_output=True, text=True, env=env)
        return cfg, proc

    evolve = dict(_SMALL_FOLDED, mode="evolve",
                  evolution={"steps": 70, "snapshot_every": 20})
    cfg, proc = run(evolve, "process")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "")
    assert _invoke(["run", "--config", cfg, "--out", str(tmp_path / "inproc"),
                    "--jobs", "1"]).exit_code == 0
    assert (tmp_path / "process" / "manifest.json").read_bytes() == \
        (tmp_path / "inproc" / "manifest.json").read_bytes()
    _, proc = run(dict(evolve, evolution={"steps": 0}), "bad")
    assert proc.returncode == 2
    assert proc.stderr.startswith("config error: ")
    assert proc.stderr.count("\n") == 1
    _, proc = run(_STALL, "stall")
    assert proc.returncode == 3
    assert proc.stderr.startswith("numerical failure: step size collapsed")
    assert proc.stderr.count("\n") == 1


def test_verify_single_criterion(tmp_path):
    cfg = _write_config(
        tmp_path / "v.json", {"version": 1, "mode": "verify", "criteria": ["C6"]}
    )
    out = tmp_path / "out"
    result = _invoke(["verify", "--config", cfg, "--out", str(out)])
    assert result.exit_code == 0
    assert "C6 PASS" in result.output
    assert "C6 PASS" in (out / "acceptance.txt").read_text()
    assert json.loads((out / "summary.json").read_text()) == {"C6": True}
    diagnostics = json.loads((out / "diagnostics.json").read_text())
    assert set(diagnostics) == {"run_s", "workers", "dispatch", "peak_rss_mb",
                                "elapsed_s", "gates"}
    assert diagnostics["workers"] == 1
    assert diagnostics["dispatch"] == ["C6"]
    assert diagnostics["peak_rss_mb"] > 0
    assert set(diagnostics["elapsed_s"]) == {"C6"}
    assert diagnostics["elapsed_s"]["C6"] <= diagnostics["run_s"]
    # C6's gates are all exact counts, which use no share of a bound.
    assert [(cid, share) for cid, *_, share in diagnostics["gates"]] == \
        [("C6", None)] * 3
    manifest = json.loads((out / "manifest.json").read_text())
    assert set(manifest["outputs"]) == {"acceptance.txt", "summary.json",
                                        "config.resolved.json"}


def _no_constant(name):
    raise ValueError(f"{name} in JSON")


def test_verify_sidecar_gates_match_acceptance_txt(tmp_path):
    # Every kind of gate: bounds, a band, exact ints, tuples and a string,
    # and C3's and C4's noted gates.
    cfg = _write_config(tmp_path / "v.json", {
        "version": 1, "mode": "verify",
        "criteria": ["C1", "C3", "C4", "C6", "C9"]})
    out = tmp_path / "out"
    assert _invoke(["verify", "--config", cfg, "--out", str(out),
                    "--jobs", "1"]).exit_code == 0
    gates = json.loads((out / "diagnostics.json").read_text(),
                       parse_constant=_no_constant)["gates"]
    printed = [(line.split()[0], gate)
               for line in (out / "acceptance.txt").read_text().splitlines()
               for gate in line.split(": ", 1)[1].split("; ")]
    assert [cid for cid, _ in printed] == [entry[0] for entry in gates]
    for (_, text), (_, label, value, op, bound, share) in zip(printed, gates):
        assert text.startswith(label)
        rest = text[len(label):]
        if rest.startswith(" ["):  # the note, printed after the label
            rest = rest[rest.index("]") + 1:]
        if op == "==":  # JSON holds a tuple as a list
            shown = str(tuple(value) if isinstance(value, list) else value)
            assert share is None
        else:
            shown = f"{value:#.3g}"
            assert rest.endswith(f", {share:.2f} of it)")
        assert rest.startswith(f" {shown} ({op} ")
    notes = [text for _, text in printed if "] " in text]
    assert [text.split(" [")[0] for text in notes] == [
        "quadratic max deviation", "quartic max deviation",
        "clamped-box relative level error"]


@pytest.fixture
def many_cpus(monkeypatch):
    """Let a run fork one worker per sweep point or criterion, whatever the
    host's CPU count.

    Where the platform has no fork the sweep runs serially, and the tests
    using this fixture must hold there too.
    """
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 64)
    # The test process loads numpy before the CLI, so the environment did
    # not size its BLAS pools; fork anyway.
    monkeypatch.setattr(cli, "_BLAS_THREADS_SET", True)


@pytest.fixture
def forked(many_cpus):
    """As many_cpus, for tests that need a real worker pool."""
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("no fork start method on this platform")


def _tree(root):
    """Every file under root, but the timing sidecars, by relative path."""
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*"))
            if p.is_file() and p.name != "diagnostics.json"}


def test_sweep_fans_out(tmp_path, many_cpus):
    cfg = _write_config(
        tmp_path / "sweep.json",
        _classical_config(
            classical={"x": 0.0, "xdot": 2.0, "t_end": 2.0, "samples": 21},
            sweep={"parameter": "classical.xdot", "values": [1.5, 2.0]},
        ),
    )
    out = tmp_path / "out"
    trees = []
    for jobs in ("1", "2"):
        shutil.rmtree(out, ignore_errors=True)
        result = _invoke(["run", "--config", cfg, "--out", str(out),
                          "--jobs", jobs])
        assert result.exit_code == 0
        trees.append(_tree(out))
    assert trees[0] == trees[1]
    for i, xdot in enumerate([1.5, 2.0]):
        sub = out / f"sweep-{i:03d}"
        resolved = json.loads((sub / "config.resolved.json").read_text())
        assert resolved["classical"]["xdot"] == xdot
        assert "sweep" not in resolved
        assert (sub / "manifest.json").exists()


def test_spectrum_sweep_workers_match_serial_run(tmp_path, many_cpus):
    cfg = _write_config(tmp_path / "s.json", dict(
        _SMALL_FOLDED, mode="spectrum", solver={"k": 25},
        potential={"form": "quartic", "alpha": 0.4, "beta": 0.3, "gamma": 0.2},
        sweep={"parameter": "dispersion.kappa", "values": [1.0, 2.0, 3.5]}))
    out = tmp_path / "out"
    trees = []
    for jobs in ("1", "2"):
        shutil.rmtree(out, ignore_errors=True)
        assert _invoke(["run", "--config", cfg, "--out", str(out),
                        "--jobs", jobs]).exit_code == 0
        trees.append(_tree(out))
        assert len(list(out.glob("sweep-*/diagnostics.json"))) == 3
    assert trees[0] == trees[1]


def test_manifests_match_across_jobs_and_chunks(tmp_path, many_cpus,
                                                monkeypatch):
    """Every sweep point writes the same manifest at --jobs 1 and 2, and
    with the state files rendered one or two per call."""
    grid = _SMALL_FOLDED["grid"]
    size = 2 * grid["n_arm"] + grid["n_inner"] - 1
    sweeps = {
        "spectrum": dict(
            _SMALL_FOLDED, mode="spectrum", solver={"k": size},
            potential={"form": "quartic", "alpha": 0.4, "beta": 0.3,
                       "gamma": 0.2},
            sweep={"parameter": "dispersion.kappa",
                   "values": [1.0, 2.0, 3.5]}),
        "evolve": dict(
            _SMALL_FOLDED, mode="evolve",
            evolution={"dt": 1e-3, "steps": 20, "snapshot_every": 5},
            sweep={"parameter": "evolution.packet.center",
                   "values": [-2.0, 0.5]}),
    }
    for name, payload in sweeps.items():
        cfg = _write_config(tmp_path / f"{name}.json", payload)
        manifests = []
        for jobs, rows in (("1", cli._ROWS_PER_CALL),
                           ("2", cli._ROWS_PER_CALL), ("1", 2 * size)):
            monkeypatch.setattr(cli, "_ROWS_PER_CALL", rows)
            out = tmp_path / f"{name}-{len(manifests)}"
            assert _invoke(["run", "--config", cfg, "--out", str(out),
                            "--jobs", jobs]).exit_code == 0
            manifests.append({p.parent.name: p.read_bytes()
                              for p in out.glob("sweep-*/manifest.json")})
        assert len(manifests[0]) == len(payload["sweep"]["values"])
        assert manifests[0] == manifests[1] == manifests[2]
        outputs = json.loads(manifests[0]["sweep-000"])["outputs"]
        assert sum(key.startswith("state_") for key in outputs) == (
            size if name == "spectrum" else 0)


def test_sidecar_times_lie_within_the_run(tmp_path):
    payloads = {
        "spectrum": dict(_SMALL_FOLDED, mode="spectrum", solver={"k": 5}),
        "evolve": dict(_SMALL_FOLDED, mode="evolve",
                       evolution={"dt": 1e-3, "steps": 10,
                                  "snapshot_every": 5}),
        "classical": _classical_config(),
    }
    for name, payload in payloads.items():
        cfg = _write_config(tmp_path / f"{name}.json", payload)
        out = tmp_path / name
        began = time.perf_counter()
        assert _invoke(["run", "--config", cfg, "--out", str(out)]
                       ).exit_code == 0
        elapsed = time.perf_counter() - began
        sidecar = json.loads((out / "diagnostics.json").read_text())
        times = {key: value for key, value in sidecar.items()
                 if key.endswith("_s")}
        assert times, name
        for key, value in times.items():
            assert 0.0 <= value <= elapsed, (name, key, value)


@pytest.mark.parametrize("payload,code,message", [
    (dict(_SMALL_FOLDED, mode="evolve",
          evolution={"dt": 1e-3, "steps": 2},
          sweep={"parameter": "evolution.packet.center",
                 "values": [0.0, 1000]}),
     2, "config error: evolution: "),
    (dict(_STALL, sweep={"parameter": "dispersion.kappa",
                         "values": [3.0, 1e-8]}),
     3, "numerical failure: "),
], ids=["config-error", "numerical-failure"])
def test_worker_failure_matches_serial_run(tmp_path, many_cpus, payload,
                                           code, message):
    cfg = _write_config(tmp_path / "bad.json", payload)
    lines = []
    for jobs in ("1", "2"):
        result = _invoke(["run", "--config", cfg, "--out",
                          str(tmp_path / f"out{jobs}"), "--jobs", jobs])
        assert result.exit_code == code
        lines.append(result.stderr)
    assert lines[0] == lines[1]
    assert lines[0].startswith(message) and lines[0].count("\n") == 1


def test_jobs_are_capped_by_sweep_points(tmp_path, forked, monkeypatch):
    sizes = []

    class Spy(ProcessPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            super().__init__(max_workers, **kwargs)
            sizes.append(max_workers)

        def shutdown(self, *args, **kwargs):
            sizes.append(len(self._processes or ()))
            super().shutdown(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Spy)
    cfg = _write_config(tmp_path / "sweep.json", _classical_config(
        classical={"t_end": 1.0, "samples": 5},
        sweep={"parameter": "classical.xdot", "values": [1.5, 2.0]}))
    result = _invoke(["run", "--config", cfg, "--out", str(tmp_path / "out"),
                      "--jobs", "64"])
    assert result.exit_code == 0
    assert sizes[0] == 2 and 1 <= sizes[1] <= 2


def test_dead_worker_exits_three(tmp_path, forked, monkeypatch):
    # Replaced in the parent, so the forked workers run it too; like a
    # tracer's wrapper it is a closure the pool could not pickle.
    monkeypatch.setattr(cli, "_run_single", lambda config, out: os._exit(1))
    cfg = _write_config(tmp_path / "sweep.json", _classical_config(
        sweep={"parameter": "classical.xdot", "values": [1.5, 2.0]}))
    result = _invoke(["run", "--config", cfg, "--out", str(tmp_path / "out"),
                      "--jobs", "2"])
    assert result.exit_code == 3
    assert result.stderr.startswith("numerical failure: sweep worker died")
    assert "Traceback" not in result.output


def _verify(tmp_path, criteria, *args):
    """Run verify on the criteria; (result, acceptance lines, out)."""
    cfg = _write_config(tmp_path / "v.json", {"version": 1, "mode": "verify",
                                              "criteria": criteria})
    out = tmp_path / "out"
    shutil.rmtree(out, ignore_errors=True)
    result = _invoke(["verify", "--config", cfg, "--out", str(out), *args])
    lines = (out / "acceptance.txt").read_text().splitlines()
    return result, lines, out


def test_verify_workers_match_serial_run(tmp_path, many_cpus):
    runs = []
    for args in (["--jobs", "1"], ["--jobs", "2"], []):
        result, lines, out = _verify(tmp_path, ["C10", "C1", "C6"], *args)
        assert result.exit_code == 0
        diagnostics = json.loads((out / "diagnostics.json").read_text())
        assert diagnostics["dispatch"] == ["C10", "C6", "C1"]
        runs.append(((out / "summary.json").read_bytes(), lines,
                     diagnostics["gates"], diagnostics["workers"]))
    assert runs[0][:3] == runs[1][:3] == runs[2][:3]
    # Gates in report order; the four exact counts have no share.
    assert [(cid, share is None) for cid, *_, share in runs[0][2]] == \
        [("C1", True), ("C1", False)] + [("C6", True)] * 3 + \
        [("C10", False)] * 2
    assert [line.split()[0] for line in runs[0][1]] == ["C1", "C6", "C10"]
    forks = "fork" in multiprocessing.get_all_start_methods()
    # --jobs defaults to the usable CPUs: one worker per criterion here.
    assert [w for *_, w in runs] == ([1, 2, 3] if forks else [1, 1, 1])


def _broken_c6(monkeypatch, fn):
    """Put fn in place of C6; forked workers inherit the patched registry."""
    monkeypatch.setattr(acceptance, "CRITERIA", [
        (cid, title, fn if cid == "C6" else check)
        for cid, title, check in acceptance.CRITERIA])


def _raise():
    raise RuntimeError("boom")


@pytest.mark.parametrize("check,detail", [
    (_raise, "raised RuntimeError: boom"),
    (lambda: [acceptance.Gate("forced failure", 1, "==", 0)],
     "forced failure 1 (== 0)"),
], ids=["raises", "fails"])
def test_failed_criterion_matches_serial_run(tmp_path, many_cpus, monkeypatch,
                                             check, detail):
    _broken_c6(monkeypatch, check)
    runs = []
    for jobs in ("1", "2"):
        result, lines, out = _verify(tmp_path, ["C1", "C6"], "--jobs", jobs)
        assert result.exit_code == 3
        runs.append((lines, json.loads((out / "summary.json").read_text())))
    assert runs[0] == runs[1]
    assert runs[0][0][1] == f"C6 FAIL graph condition counting: {detail}"
    assert runs[0][1] == {"C1": True, "C6": False}


def test_dead_verify_worker_exits_three(tmp_path, forked, monkeypatch):
    _broken_c6(monkeypatch, lambda: os._exit(1))
    cfg = _write_config(tmp_path / "v.json", {"version": 1, "mode": "verify",
                                              "criteria": ["C1", "C6"]})
    result = _invoke(["verify", "--config", cfg, "--out",
                      str(tmp_path / "out"), "--jobs", "2"])
    assert result.exit_code == 3
    assert result.stderr.startswith("numerical failure: verify worker died")
    assert "Traceback" not in result.output


def test_verify_sweep_starts_one_pool(tmp_path, forked, monkeypatch):
    log = tmp_path / "pools.log"

    class Spy(ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            # Logged to a file, so that a pool a worker starts counts too.
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()}\n")
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Spy)
    # Two criteria per point: one alone would never start a pool.
    cfg = _write_config(tmp_path / "v.json", {
        "version": 1, "mode": "verify", "criteria": ["C1", "C6"],
        "sweep": {"parameter": "seed", "values": [1, 2]}})
    result = _invoke(["run", "--config", cfg, "--out", str(tmp_path / "out"),
                      "--jobs", "2"])
    assert result.exit_code == 0
    assert log.read_text().split() == [str(os.getpid())]
    for i in range(2):
        summary = tmp_path / "out" / f"sweep-{i:03d}" / "summary.json"
        assert json.loads(summary.read_text()) == {"C1": True, "C6": True}


def test_usable_cpus_follow_the_affinity_mask(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                        raising=False)
    assert cli._usable_cpus() == 2
    monkeypatch.delattr(os, "sched_getaffinity")
    assert cli._usable_cpus() == 64


def test_sweep_without_sized_blas_pools_runs_serially(tmp_path):
    # numpy loaded first with no BLAS thread variable: the CLI leaves the
    # environment alone and must not fork workers with default pools.
    cfg = _write_config(tmp_path / "sweep.json", _classical_config(
        classical={"t_end": 1.0, "samples": 5},
        sweep={"parameter": "classical.xdot", "values": [1.5, 2.0]}))
    code = ("import json, os, sys\n"
            "import numpy\n"
            "import branchedq.cli as cli\n"
            "def refuse(*args):\n"
            "    raise AssertionError('forked without sized BLAS pools')\n"
            "cli._run_forked = refuse\n"
            "cli._usable_cpus = lambda: 64\n"
            "ok = cli.run_config(cli.load_config(sys.argv[1]), sys.argv[2], 2)\n"
            f"env = [k for k in {_BLAS_VARS!r} if k in os.environ]\n"
            "print(json.dumps([ok, env, cli._BLAS_THREADS_SET]))\n")
    out = subprocess.run(
        [sys.executable, "-c", code, cfg, str(tmp_path / "out")],
        capture_output=True, text=True, check=True, env=_env_without_blas())
    assert json.loads(out.stdout) == [True, [], False]
    assert (tmp_path / "out" / "sweep-001" / "manifest.json").exists()


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_bad_jobs_exit_two(tmp_path, jobs):
    cfg = _write_config(tmp_path / "c.json", _classical_config())
    result = _invoke(["run", "--config", cfg, "--jobs", jobs])
    assert result.exit_code == 2
    assert "Invalid value for '--jobs'" in result.output


@pytest.mark.parametrize("command", ["run", "spectrum", "evolve", "graph",
                                     "classical", "kernel", "verify"])
def test_seed_option_is_gone(tmp_path, command):
    """A config's `seed` is the one way to set the seed."""
    cfg = _write_config(tmp_path / "c.json", _classical_config())
    out = tmp_path / "out"
    result = _invoke([command, "--config", cfg, "--seed", "3", "--out",
                      str(out)])
    assert result.exit_code == 2
    assert "No such option '--seed'" in result.output
    assert not out.exists()


def test_dispersion_command_csv(tmp_path):
    out = tmp_path / "disp.csv"
    result = _invoke(
        [
            "dispersion",
            "--kappa",
            "3.0",
            "--samples",
            "13",
            "--v-min",
            "-3",
            "--v-max",
            "3",
            "--out",
            str(out),
        ]
    )
    assert result.exit_code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "xdot,p,E,branch"
    rows = np.array([[float(v) for v in row.split(",")] for row in lines[1:]])
    assert rows.shape == (13, 4)
    # Row at xdot = 1 sits on the upper cusp: p = -2, E = -3/4, middle branch.
    cusp = rows[np.isclose(rows[:, 0], 1.0)][0]
    assert np.allclose(cusp, [1.0, -2.0, -0.75, 2.0], atol=1e-12)
    np.testing.assert_allclose(
        rows[:, 1], rows[:, 0] ** 3 - 3.0 * rows[:, 0], atol=1e-12
    )


def test_dispersion_command_allows_flat_law(tmp_path):
    out = tmp_path / "flat.csv"
    result = _invoke(["dispersion", "--kappa", "0", "--samples", "5", "--out", str(out)])
    assert result.exit_code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 6


@pytest.mark.parametrize("kappa", ["nan", "1e200"])
def test_dispersion_command_rejects_bad_kappa(tmp_path, kappa):
    out = tmp_path / "bad.csv"
    result = _invoke(["dispersion", "--kappa", kappa, "--out", str(out)])
    assert result.exit_code == 2
    assert "finite cube" in result.output
    assert not out.exists()


@pytest.mark.parametrize("option,value", [
    ("--v-min", "nan"), ("--v-min", "-inf"), ("--v-max", "inf"),
    ("--samples", "-1"), ("--samples", "0"),
    # 0.75 * v**4 overflows: the rows would hold p = inf and E = nan.
    ("--v-max", "1e200"), ("--v-min", "-1.2e77"), ("--v-max", "1.16e77")])
# A numpy warning printed before the message breaks the one-line rule.
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_dispersion_command_rejects_bad_range(tmp_path, option, value):
    out = tmp_path / "bad.csv"
    result = _invoke(["dispersion", option, value, "--out", str(out)])
    assert result.exit_code == 2
    assert f"Invalid value for '{option}'" in result.output
    assert not out.exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_dispersion_command_takes_the_largest_finite_energy(tmp_path):
    out = tmp_path / "curve.csv"
    result = _invoke(["dispersion", "--v-min", "-1.15e77", "--v-max",
                      "1.15e77", "--samples", "3", "--out", str(out)])
    assert result.exit_code == 0
    rows = np.loadtxt(out, delimiter=",", skiprows=1)
    assert np.isfinite(rows).all() and rows[-1, 0] == 1.15e77


def test_dispersion_command_short_curve(tmp_path):
    out = tmp_path / "curve.csv"
    result = _invoke(["dispersion", "--kappa", "3.0", "--samples", "7",
                      "--v-min", "-1.5", "--v-max", "1.5", "--out", str(out)])
    assert result.exit_code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 8
    first = [float(v) for v in lines[1].split(",")]
    assert first[0] == -1.5


def _csv_writer_oracle(path, header, rows):
    """The csv.writer-based artifact writer that _write_columns replaced."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow(["%.17g" % c if isinstance(c, (float, np.floating))
                             else c for c in row])


def test_write_columns_matches_csv_writer(tmp_path, monkeypatch):
    rng = np.random.default_rng(3)
    special = [np.nan, -0.0, 0.0, np.inf, -np.inf, 1e-300, -5e-324, 1.0 / 3.0,
               1e300, 2.0**53 + 1]
    x = np.concatenate([special, rng.standard_normal(40) * 1e8])
    n = x.size
    ints = rng.integers(-3, 4, n)
    cplx = x * np.exp(1j * rng.uniform(0, 2 * np.pi, n))
    header = ("x", "branch", "re", "im")
    old, new = tmp_path / "old.csv", tmp_path / "new.csv"
    # every case rendered whole, and in parts of 7 rows
    for rows_per_call in (cli._ROWS_PER_CALL, 7):
        monkeypatch.setattr(cli, "_ROWS_PER_CALL", rows_per_call)
        # numpy scalars per cell on the oracle side, whole columns on the
        # new one
        _csv_writer_oracle(old, header, zip(x, ints, cplx.real, cplx.imag))
        _write_columns(new, dict(zip(header, (x, ints, cplx.real,
                                              cplx.imag))))
        assert new.read_bytes() == old.read_bytes()
        # python floats and ints, as the eigenvalue tables used to pass them
        _csv_writer_oracle(old, ("index", "energy"),
                           [(i, float(e)) for i, e in enumerate(x)])
        _write_columns(new, {"index": np.arange(n), "energy": x})
        assert new.read_bytes() == old.read_bytes()
        # integer columns out to +-2**53, where float64 still holds every
        # integer, rendered as "%d" renders them
        edge = np.array([2**53, -(2**53), 2**53 - 1, 1 - 2**53, 10**15,
                         -(10**15), 0, 7] * (n // 8) + [1] * (n % 8))
        _csv_writer_oracle(old, ("energy", "count"), zip(x, edge))
        _write_columns(new, {"energy": x, "count": edge})
        assert new.read_bytes() == old.read_bytes()
        # a repeated time column and a tiled coordinate column, special
        # values in both and in the others
        re, im = np.roll(x, 3), x[::-1].copy()
        times = [0.0, np.nan, 1e-300]
        blocks = [(np.roll(re, k), np.roll(im, -k)) for k in range(3)]
        _csv_writer_oracle(old, ("time",) + header,
                           [(t, *row) for t, (a, b) in zip(times, blocks)
                            for row in zip(x, ints, a, b)])
        _write_columns(new, {"time": np.repeat(times, n), "x": np.tile(x, 3),
                             "branch": np.tile(ints, 3),
                             "re": np.concatenate([a for a, _ in blocks]),
                             "im": np.concatenate([b for _, b in blocks])})
        assert new.read_bytes() == old.read_bytes()
        # columns rendered already, as the grid columns are: whole, or
        # without the bytes that are NUL in every row
        branch = cli._g17(ints)
        _csv_writer_oracle(old, header, zip(x, ints, re, im))
        _write_columns(new, {"x": cli._g17(x),
                             "branch": branch[:, branch.any(axis=0)],
                             "re": re, "im": im})
        assert new.read_bytes() == old.read_bytes()


@pytest.mark.parametrize("grid,potential,solver,budget", [
    ({"kind": "folded", "n_inner": 12, "n_arm": 20},
     {"form": "quadratic", "alpha": 0.5}, {}, 0.5),
    ({"kind": "line", "x_min": -12.0, "x_max": 12.0, "n": 96}, _WELL,
     {"assembly": "convolution"}, None),
], ids=["folded", "line-convolution"])
def test_snapshot_arrays_match_the_report(tmp_path, grid, potential, solver,
                                          budget):
    """snapshots.npy holds the report's snapshots and currents.npy their
    currents, bit for bit; NaN currents without a stencil symbol."""
    config = {"version": 1, "mode": "evolve", "dispersion": {"kappa": 3.0},
              "potential": potential, "grid": grid, "solver": solver,
              "evolution": {"dt": 1e-3, "steps": 6, "snapshot_every": 3,
                            "stability_budget": budget,
                            "packet": {"center": -4.0, "width": 1.0,
                                       "boost": 0.5}}}
    out = tmp_path / "out"
    cfg = _write_config(tmp_path / "e.json", config)
    assert _invoke(["evolve", "--config", cfg, "--out", str(out)]).exit_code == 0
    resolved = cli._resolve(config)
    law = cli._law_from(resolved)
    grid = cli._grid_from(resolved, law)
    op = cli._hamiltonian_from(resolved, law, grid,
                               cli._potential_from(resolved))
    ev = resolved["evolution"]
    packet = ev["packet"]
    psi0 = gaussian_packet(grid, packet["center"], packet["width"],
                           packet["boost"])
    _, rep = propagate(op, psi0, ev["dt"], ev["steps"],
                       snapshot_every=ev["snapshot_every"],
                       stability_budget=ev["stability_budget"])
    snapshots = np.load(out / "snapshots.npy")
    currents = np.load(out / "currents.npy")
    assert snapshots.shape == currents.shape == (3, grid.size)
    assert snapshots.tobytes() == rep.snapshots.tobytes()
    if solver:  # the convolution assembly has no stencil symbol
        assert op.symbol is None and np.isnan(currents).all()
    else:
        assert currents.tobytes() == np.array([
            probability_current(snap, grid.h, op.symbol)
            for snap in rep.snapshots]).tobytes()
    times = np.loadtxt(out / "snapshot_times.csv", skiprows=1)
    assert times.tobytes() == rep.snapshot_times.tobytes()
    # the node of each column; branch 0 off a folded grid
    nodes = np.loadtxt(out / "grid.csv", delimiter=",", skiprows=1)
    coordinate, branch = ((grid.x, 0) if solver else (grid.u, grid.branch))
    assert nodes[:, 0].tobytes() == coordinate.tobytes()
    assert np.array_equal(nodes[:, 1], np.broadcast_to(branch, grid.size))


@pytest.mark.parametrize("preset,expected", [
    ({}, {"OPENBLAS_NUM_THREADS": "1"}),
    ({"OPENBLAS_NUM_THREADS": "3"}, {"OPENBLAS_NUM_THREADS": "3"}),
    ({"OMP_NUM_THREADS": "3"}, {"OMP_NUM_THREADS": "3"}),
], ids=["default", "openblas-preset", "omp-preset"])
def test_cli_defaults_blas_to_one_thread(preset, expected):
    code = ("import json, os, sys\n"
            "import branchedq\n"
            "lazy = 'numpy' not in sys.modules\n"
            "import branchedq.cli\n"
            f"env = {{k: os.environ[k] for k in {_BLAS_VARS!r} "
            "if k in os.environ}\n"
            "names = {}\n"
            "exec('from branchedq import *', names)\n"
            "print(json.dumps([lazy, env, "
            "sorted(set(branchedq.__all__) - set(names))]))\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**_env_without_blas(), **preset})
    lazy, blas, unbound = json.loads(out.stdout)
    assert lazy, "import branchedq loaded numpy"
    assert blas == expected
    assert unbound == []


def test_start_up_loads_no_jsonschema(tmp_path):
    """Configs and graph files are checked without importing jsonschema."""
    cfg = _write_config(tmp_path / "c.json", {"version": 1, "mode": "verify"})
    graph = tmp_path / "g.json"
    graph.write_text(json.dumps({"version": 1, "vertices": _STAR, "edges": [
        {"u": "c", "v": "t", "length": 1.0}]}))
    code = ("import sys\n"
            "import branchedq.cli as cli\n"
            "from branchedq import graphs\n"
            "cli.load_config(sys.argv[1])\n"
            "graphs.load_graph(sys.argv[2])\n"
            "print('jsonschema' in sys.modules)\n")
    src = str(Path(branchedq.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code, cfg, str(graph)],
                         capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "False"


def test_import_cli_skips_scipy_integrate(tmp_path):
    # multiprocessing is imported only when a worker pool may start.
    code = ("import sys, branchedq.cli; print([m in sys.modules for m in "
            "('scipy.integrate', 'multiprocessing')])")
    src = str(Path(branchedq.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env)
    assert out.stdout.strip() == "[False, False]"
    # The classical integrators are built in: neither a classical run nor
    # C9 loads scipy's integrators or the optimizers they pull in.
    cfg = _write_config(tmp_path / "c.json", _classical_config())
    runs = {
        "classical": ("from branchedq.cli import main\n"
                      "try:\n"
                      "    main(['run', '--config', sys.argv[1], '--out', "
                      "sys.argv[2]])\n"
                      "except SystemExit as exit:\n"
                      "    assert exit.code == 0\n"),
        "C9": ("from branchedq.acceptance import run_criterion\n"
               "assert run_criterion('C9').passed\n"),
    }
    for name, run in runs.items():
        code = ("import sys\n" + run + "print([m in sys.modules for m in "
                "('scipy.integrate', 'scipy.optimize')])\n")
        out = subprocess.run([sys.executable, "-c", code, cfg,
                              str(tmp_path / "out")], capture_output=True,
                             text=True, check=True, env=env)
        assert out.stdout.strip() == "[False, False]", name
