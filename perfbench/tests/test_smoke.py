"""Smoke tests of the benchmark: every workload at reduced size.

Run from the repository root:

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path.insert(0, str(BENCH))
import workloads  # noqa: E402


def _bench(cwd, *args):
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"),
                           *args], capture_output=True, text=True,
                          timeout=170, cwd=cwd)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_smoke(workload, trace):
    proc = _bench(ROOT, "--workload", workload, "--seed", "5", "--seconds",
                  "0", "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stdout
    assert result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}


def test_refuses_without_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, "--workload", "verify", "--seed", "1",
                  "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())


def test_spectrum_check_rejects_a_shifted_eigenvalue(tmp_path):
    H = workloads.reference_hamiltonian(3.0, (0.4, 0.3, 0.2), 20, 30)
    w, v = np.linalg.eigh(H.toarray())
    tol = workloads.spectral_tolerance(H)

    def write(values):
        rows = "".join(f"{i},{e:.17g},0\n" for i, e in enumerate(values))
        (tmp_path / "eigenvalues.csv").write_text("index,energy,residual\n" + rows)

    for i in range(3):
        (tmp_path / f"state_{i:03d}.csv").write_text(
            "coordinate,branch,re,im\n" + "".join(
                f"0,1,{c.real:.17g},{c.imag:.17g}\n" for c in v[:, i]))
    write(w[:3])
    assert workloads.check_spectrum(tmp_path, H, w[:3], range(3)) == []
    write(w[:3] + np.array([0.0, 2.0 * tol, 0.0]))
    assert workloads.check_spectrum(tmp_path, H, w[:3], range(3))
