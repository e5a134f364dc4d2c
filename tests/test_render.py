"""The CSV float kernel renders the bytes of CPython's "%.17g" % v.

`cli._g17` computes the 17 digits of every float64 with a double-double
product and falls back to `%`, through `cli._exact_text`, for the values it
cannot decide.  These tests compare it with `%` byte for byte on the values
where a digit kernel goes wrong: exponent boundaries, decimal ties,
subnormals, the edges of its range and random bit patterns.
"""

import json
import os
import runpy
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import branchedq
from branchedq import cli

_CHUNK = 100_000


def _assert_exact(values):
    """The kernel's rows against "%.17g" % v, in chunks to bound memory."""
    values = np.asarray(values, dtype=np.float64).ravel()
    for start in range(0, values.size, _CHUNK):
        part = values[start:start + _CHUNK]
        want = "".join("%.17g\n" % v for v in part.tolist()).encode()
        got = cli._text(cli._rows([part]))
        if got != want:
            bad = [(v, w, g) for v, w, g in zip(part.tolist(), want.split(),
                                                got.split()) if w != g]
            pytest.fail(f"{len(bad)} of {part.size} differ, first {bad[:3]}")


def _neighbours(values, steps=2):
    """values and their `steps` nearest floats on each side."""
    out, down, up = [values], values, values
    for _ in range(steps):
        down, up = np.nextafter(down, -np.inf), np.nextafter(up, np.inf)
        out += [down, up]
    return np.concatenate(out)


def _decimal_ties():
    """Dyadic m * 2**-k whose exact decimal has 18 significant digits, so
    that "%.17g" must round a trailing 5 half to even."""
    ties = [m * 2.0**-k for k in range(1, 120) for m in range(1, 400, 2)
            if len(str(m * 5**k).rstrip("0")) == 18]
    assert 2.0**-25 in ties and len(ties) > 100
    return np.array(ties)


def test_kernel_matches_percent_on_edge_values():
    powers_of_ten = np.array([float(f"1e{k}") for k in range(-330, 309)])
    ties = _decimal_ties()
    rng = np.random.default_rng(20260817)
    subnormal = rng.integers(1, 2**52, 2000, dtype=np.uint64).view(np.float64)
    values = np.concatenate([
        [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan],
        np.ldexp(1.0, np.arange(-1074, 1024)),
        np.ldexp(5.0, np.arange(-1074, 1022)),
        _neighbours(powers_of_ten),
        _neighbours(ties, 1), -ties,
        subnormal, [5e-324, np.nextafter(2.2250738585072014e-308, 0.0)],
        _neighbours(np.array([1e-270, 1e270])),
    ])
    _assert_exact(np.concatenate([values, -values]))


def test_kernel_matches_percent_on_random_values():
    rng = np.random.default_rng(20260817)
    bits = rng.integers(0, 2**64, 10**6, dtype=np.uint64).view(np.float64)
    spread = (rng.standard_normal(10**6)
              * 10.0 ** rng.uniform(-20.0, 20.0, 10**6))
    _assert_exact(bits)
    _assert_exact(spread)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=40))
def test_kernel_matches_percent_on_drawn_floats(values):
    _assert_exact(values)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=40))
def test_kernel_matches_percent_on_drawn_bit_patterns(bits):
    _assert_exact(np.array(bits, dtype=np.uint64).view(np.float64))


@pytest.fixture
def fallbacks(monkeypatch):
    """The values that reach the per-value fallback, one list per call."""
    calls = []
    exact_text = cli._exact_text

    def counted(values):
        calls.append(values.tolist())
        return exact_text(values)

    monkeypatch.setattr(cli, "_exact_text", counted)
    return calls


def test_constant_columns_take_the_fast_path(fallbacks):
    for value in (0.0, -0.0, np.nan, np.inf, -np.inf):
        _assert_exact(np.full(1000, value))
    assert fallbacks == []
    # the counter sees a value outside the kernel's range
    _assert_exact([1e-300, 1.0])
    assert fallbacks == [[1e-300]]


def test_cli_runs_take_the_fast_path(tmp_path, fallbacks):
    workloads = runpy.run_path(str(Path(__file__).resolve().parents[1]
                                   / "perfbench" / "workloads.py"))
    sweep = workloads["WORKLOADS"]["spectrum-sweep"].config(20260817,
                                                            smoke=True)
    assert cli.run_config(sweep, tmp_path / "sweep", jobs=1)
    # a real eigenvector's im column
    real = {"version": 1, "mode": "spectrum",
            "potential": {"form": "quadratic", "alpha": 1.0},
            "grid": {"kind": "folded", "n_inner": 8, "n_arm": 10},
            "solver": {"k": 3}}
    assert cli.run_config(real, tmp_path / "real", jobs=1)
    state = np.loadtxt(tmp_path / "real" / "state_002.csv", delimiter=",",
                       skiprows=1)
    assert not state[:, 3].any()
    assert fallbacks == []


def test_import_builds_no_tables(tmp_path):
    """The tables are built on first use: a process that imports the CLI
    and validates a config, as the benchmark's setup probe does, pays
    nothing for them."""
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"version": 1, "mode": "verify"}))
    probe = ("import sys\n"
             "import branchedq.cli as cli\n"
             "cli.load_config(sys.argv[1])\n"
             "print(cli._tables.cache_info().currsize)\n")
    src = str(Path(branchedq.__file__).resolve().parents[1])
    result = subprocess.run([sys.executable, "-c", probe, str(config)],
                            capture_output=True, text=True, check=True,
                            env=dict(os.environ, PYTHONPATH=src))
    assert result.stdout.strip() == "0"
