"""Acceptance gate: the ten release criteria, one test per criterion.

Each test runs a single criterion end to end at its frozen tolerances and
prints the standard one-line PASS/FAIL summary, so `pytest -v -s` doubles
as the acceptance report.  The same checks back the `verify` CLI mode.
"""

import pytest

from branchedq import acceptance
from branchedq.acceptance import CRITERIA, DISPATCH, run_acceptance

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
    # Handed out in dispatch order, reported in registry order.
    assert calls == [["C6", "C1"]]
    assert [(r.cid, r.passed) for r in results] == [("C1", True), ("C6", True)]


def test_dispatch_is_a_permutation_of_the_registry():
    assert sorted(DISPATCH) == sorted(CRITERION_IDS)
    assert len(set(DISPATCH)) == len(DISPATCH)


def _boom():
    raise RuntimeError("boom")


def test_first_dispatched_crash_lands_in_its_registry_slot(monkeypatch):
    # Stub checks: the first one dispatched raises, the rest pass at once.
    first = DISPATCH[0]
    monkeypatch.setattr(acceptance, "CRITERIA", [
        (cid, title, _boom if cid == first else lambda: (True, "stub"))
        for cid, title, _ in CRITERIA])
    calls = []

    def spy_map(fn, ids):
        calls.append(list(ids))
        return map(fn, ids)

    results = run_acceptance(map_fn=spy_map)
    assert calls == [list(DISPATCH)]
    assert [r.cid for r in results] == CRITERION_IDS
    failed = [(i, r.detail) for i, r in enumerate(results) if not r.passed]
    assert failed == [(CRITERION_IDS.index(first),
                       "raised RuntimeError: boom")]


@pytest.mark.parametrize("ids,named", [
    (["C11"], "C11"),
    (["c1"], "c1"),
    (["C1", "C11", "c1"], "C11, c1"),
])
def test_unknown_criteria_raise(ids, named):
    with pytest.raises(ValueError, match=f"^unknown criteria: {named}$"):
        run_acceptance(ids)
