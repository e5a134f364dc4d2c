"""The parent differential's compare and report, on two small output trees
written by hand: no git checkout and no CLI run."""

import json
import runpy
from pathlib import Path

import pytest

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "differential.py"


@pytest.fixture(scope="module")
def differential():
    return runpy.run_path(str(_TOOL))


def _write(root, files):
    for rel, data in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)


def _side(root, energies, digest, sidecar, stderr=b"", extra=None):
    streams = {"@exit": b"0\n", "@stdout": b"", "@stderr": b""}
    _write(root, {
        **{f"spec/{name}": data for name, data in streams.items()},
        "spec/manifest.json": json.dumps(
            {"outputs": {"eigenvalues.csv": digest}}).encode(),
        "spec/eigenvalues.csv": b"index,energy,residual\n" + energies,
        "spec/diagnostics.json": sidecar,
        **{f"curve/{name}": data for name, data in streams.items()},
        "curve/@stderr": stderr,
        "curve/dispersion.csv": b"xdot,p\n1,2\n",
        **(extra or {})})


def test_compare_and_report(differential, tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    _side(parent, b"0,1.5,1e-15\n1,2.5,0.25\n", "aa", b"{\"solve_s\": 0.1}")
    _side(change, b"0,1.5,1e-15\n1,2.5000000000000004,0.5\n", "bb",
          b"{\"solve_s\": 0.2}", stderr=b"warning\n",
          extra={"curve/extra.csv": b"a\n"})

    diffs, count, unlisted = differential["compare"](parent, change)
    assert count == 10
    # The sidecar differs, but no manifest lists it: counted, not compared.
    assert dict(unlisted) == {"diagnostics.json": 1}
    assert diffs == {
        "curve/@stderr": "bytes differ",
        "curve/extra.csv": "only in change",
        "spec/eigenvalues.csv": [
            ("index", 0.0, 0.0),
            ("energy", 2.5000000000000004 - 2.5, (2.5000000000000004 - 2.5)
             / 2.5000000000000004),
            ("residual", 0.25, 0.5)],
        "spec/manifest.json": "bytes differ"}

    text, unexpected = differential["report"](
        {1: (diffs, count, unlisted), 2: (diffs, count, unlisted)},
        ["spec/*", "verify-*/acceptance.txt"])
    assert unexpected == 2
    lines = text.splitlines()
    assert lines[0] == ("--jobs 1: 10 files compared; not compared (not in "
                        "their directory's manifest): diagnostics.json x1")
    assert "UNEXPECTED curve/@stderr [--jobs 1, 2]: bytes differ" in lines
    assert "UNEXPECTED curve/extra.csv [--jobs 1, 2]: only in change" in lines
    assert ("expected   spec/eigenvalues.csv [--jobs 1, 2]: index max|d| 0, "
            "max|d|/max|value| 0; energy max|d| 4.44e-16, max|d|/max|value| "
            "1.78e-16; residual max|d| 0.25, max|d|/max|value| 0.5") in lines
    assert "expected, not seen: verify-*/acceptance.txt" in lines
    assert lines[-1] == "4 differences, 2 unexpected"


def test_identical_trees_show_no_difference(differential, tmp_path):
    for side in ("parent", "change"):
        _side(tmp_path / side, b"0,1.5,nan\n", "aa", b"{}")
    diffs, count, _ = differential["compare"](tmp_path / "parent",
                                              tmp_path / "change")
    assert (diffs, count) == ({}, 9)
    text, unexpected = differential["report"]({1: (diffs, count, {})})
    assert unexpected == 0
    assert text.splitlines()[-1] == "0 differences, 0 unexpected"


def test_report_summarizes_each_case(differential, tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    _side(parent, b"0,1.5,1e-15\n1,2.5,0.25\n", "aa", b"{}",
          extra={"curve/table.csv": b"a\n1\n"})
    _side(change, b"0,1.5,1e-15\n1,2.5,0.5\n", "bb", b"{}",
          stderr=b"warning\n", extra={"curve/extra.csv": b"a\n",
                                       "curve/table.csv": b"a\n1\n2\n"})
    diffs, count, unlisted = differential["compare"](parent, change)
    text, unexpected = differential["report"](
        {1: (diffs, count, unlisted), 2: (diffs, count, unlisted)},
        ["spec/*", "curve/extra.csv"])
    lines = text.splitlines()
    # one line per case, after the --jobs lines and ahead of the detail
    assert lines[2:4] == [
        "case curve: 3 files: 1 only in change, 1 bytes differ, 1 CSV "
        "(1 not aligned); 1 expected, 2 unexpected",
        "case spec: 2 files: 1 bytes differ, 1 CSV (largest "
        "max|d|/max|value| 0.5); 2 expected, 0 unexpected"]
    assert lines[4].startswith(("expected   ", "UNEXPECTED "))
    assert unexpected == 2
    assert lines[-1] == "5 differences, 2 unexpected"
