"""The numbers ledger: a subset of the covering set, run in process, against
tools/ledger.json, and a planted eigenvalue move that the check refuses."""

import copy
import json
import runpy
from pathlib import Path

import pytest
from click.testing import CliRunner

from branchedq.cli import main

_TOOLS = Path(__file__).resolve().parents[1] / "tools"

# One case per mode and per graph assembly, each well under 0.1 s.
_SUBSET = ("graph-star", "graph-compton", "spectrum-unfolded",
           "spectrum-dual-wire-folded-kappa1.0", "evolve-folded-quadratic",
           "classical-halt", "kernel-hermitian-40", "refused-unread-solver",
           "verify-C2")


@pytest.fixture(scope="module")
def tool():
    return runpy.run_path(str(_TOOLS / "ledger.py"))


@pytest.fixture(scope="module")
def ledger():
    whole = json.loads((_TOOLS / "ledger.json").read_text())
    return {"cases": {name: whole["cases"][name] for name in _SUBSET},
            "referee": {key: entry for key, entry in whole["referee"].items()
                        if key.split("/")[0] in _SUBSET}}


@pytest.fixture(scope="module")
def run(tool, tmp_path_factory):
    """The subset's numbers, each case run in this process."""
    base = tmp_path_factory.mktemp("ledger")
    cases = {case["name"]: case
             for case in json.loads((_TOOLS / "covering.json").read_text())}
    numbers = {}
    for name in _SUBSET:
        out, config = base / name, base / f"{name}.json"
        out.mkdir()
        config.write_text(json.dumps(cases[name]["config"]))
        result = CliRunner().invoke(main, ["run", "--config", str(config),
                                           "--jobs", "1", "--out", str(out)])
        (out / "@exit").write_text(f"{result.exit_code}\n")
        numbers[name] = tool["read_case"](out)
    return numbers


def test_subset_matches_the_ledger(tool, ledger, run):
    lines, failures = tool["compare"](ledger, run)
    assert failures == 0, "\n".join(lines)
    assert lines[-1].endswith("0 failures; 0 lists written that the ledger "
                              "does not hold")
    assert sum(line.startswith("referee ") for line in lines) == 4


def test_shifted_eigenvalue_fails(tool, ledger, run):
    moved = copy.deepcopy(ledger)
    entry = moved["cases"]["graph-star"]["energy"]
    entry["values"][2] += 100.0 * entry["eps_norm"]
    lines, failures = tool["compare"](moved, run)
    assert failures == 1
    fail = next(line for line in lines if line.startswith("FAIL"))
    assert fail.startswith("FAIL  graph-star/energy: max|d| ")
    assert " eps*||H||inf" in fail


def test_gate_note_stays_out_of_the_key(tool, tmp_path):
    # C3 prints its solver path and eps*||H||inf after its labels; the
    # ledger keys its gates by id and label alone.
    config = tmp_path / "v.json"
    config.write_text(json.dumps({"version": 1, "mode": "verify",
                                  "criteria": ["C3"]}))
    out = tmp_path / "out"
    result = CliRunner().invoke(main, ["run", "--config", str(config),
                                       "--jobs", "1", "--out", str(out)])
    (out / "@exit").write_text(f"{result.exit_code}\n")
    assert "quadratic max deviation [" in (out / "acceptance.txt").read_text()
    assert set(tool["read_case"](out)) == {
        "@exit", "C3 passed", "C3 quadratic max deviation",
        "C3 quartic max deviation", "C3 dyadic order"}
