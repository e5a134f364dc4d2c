"""Acceptance gate: the ten release criteria, one test per criterion.

Each test runs a single criterion end to end at its frozen tolerances and
prints the standard one-line PASS/FAIL summary, so `pytest -v -s` doubles
as the acceptance report.  The same checks back the `verify` CLI mode.
"""

import pytest

from branchedq.acceptance import CRITERIA, run_acceptance

CRITERION_IDS = [cid for cid, _, _ in CRITERIA]


@pytest.mark.parametrize("cid", CRITERION_IDS)
def test_criterion(cid):
    result = run_acceptance([cid])[0]
    print(result.line())
    assert result.passed, result.line()


def test_criteria_run_in_registry_order():
    calls = []

    def spy_map(fn, ids):
        calls.append(list(ids))
        return map(fn, ids)

    results = run_acceptance(["C6", "C1", "C6"], map_fn=spy_map)
    assert calls == [["C1", "C6"]]
    assert [(r.cid, r.passed) for r in results] == [("C1", True), ("C6", True)]


@pytest.mark.parametrize("ids,named", [
    (["C11"], "C11"),
    (["c1"], "c1"),
    (["C1", "C11", "c1"], "C11, c1"),
])
def test_unknown_criteria_raise(ids, named):
    with pytest.raises(ValueError, match=f"^unknown criteria: {named}$"):
        run_acceptance(ids)
