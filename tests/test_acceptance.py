"""Acceptance gate: the ten release criteria, one test per criterion.

Each test runs a single criterion end to end at its frozen tolerances and
prints the standard one-line PASS/FAIL summary, so `pytest -v -s` doubles
as the acceptance report.  The same checks back the `verify` CLI mode.
"""

import tracemalloc

import pytest

from branchedq import acceptance
from branchedq.acceptance import CRITERIA, DISPATCH, Gate, run_acceptance

CRITERION_IDS = [cid for cid, _, _ in CRITERIA]

# Every (label, comparison, bound) that the criteria declare, written out by
# hand from the literals of the pass/fail expressions they replaced.  Some
# changed form, not value: C2's and C10's bounds of 1e-12 and 1e-15 times
# the largest entry are ratios against the same literals, C8's overlap >
# 0.999 reads 1 - overlap < 1e-3, and C7 gates the largest of its two pair
# splits and the smallest of its three level gaps.
_COUNTS = "(node, infinity, total, constant) counts"
BOUNDS = {
    "C1": [("wrong root counts in 10000 draws", "==", 0),
           ("max cubic residual", "<=", 1e-10)],
    "C2": [(f"{name} defect / max|H|", "<", 1e-12) for name in (
        "folded quadratic", "folded quartic", "dual wire",
        "hermitian convolution", "kirchhoff graph", "weighted graph")]
          + [("control unflipped defect", ">", 1e-3),
             ("control windowed-asymmetric defect", ">", 1e-3)],
    "C3": [("quadratic max deviation", "<", 1e-8),
           ("quartic max deviation", "<", 1e-8),
           ("dyadic order", "in", [1.8, 2.2])],
    "C4": [("oscillator level error", "<", 1e-6),
           ("clamped-box relative level error", "<", 1e-3)],
    "C5": [("quadratic norm drift", "<", 1e-10),
           ("quadratic flux", "<", 1e-8),
           ("quadratic continuity h-order", "in", [1.5, 2.5]),
           ("quadratic dt-halving ratio", "in", [0.7, 1.4]),
           ("quartic norm drift", "<", 1e-10),
           ("quartic flux", "<", 1e-8),
           ("quartic continuity h-order", "in", [1.5, 2.5]),
           ("quartic dt-halving ratio", "in", [0.7, 1.4]),
           ("quartic finest-pair h-order", "in", [1.8, 2.2])],
    "C6": [(f"compton {_COUNTS}", "==", (6, 4, 10, 10)),
           (f"box {_COUNTS}", "==", (12, 4, 16, 16)),
           ("imbalances in 200 fuzzed graphs", "==", 0)],
    "C7": [("star wavenumber error", "<", 1e-4),
           ("star pair splits k2 - k1, k5 - k4", "<", 1e-6),
           ("star level gaps k1 - k0, k3 - k2, k4 - k3", ">", 0.1),
           ("pass-through wavenumber error", "<", 1e-4)],
    "C8": [("refined energy error", "<", 1e-6),
           ("1 - overlap", "<", 1e-3),
           ("eigenvector stationarity", "<", 1e-9)],
    "C9": [("cusp-free orbits of 20 that hit an event", "==", 0),
           ("bracket vs direct sup gap", "<", 1e-8),
           ("energy drift", "<", 1e-8),
           ("halted run status", "==", "halted"),
           ("cusp event degeneracy", "<", 1e-9)],
    "C10": [("symmetric naive vs hermitian entrywise gap / max|V|", "<=",
             1e-15),
            ("position-side spectrum gap", "<", 1e-10)],
}

# Gates allowed to use more than half of their bound, each with its reason.
THIN = {
    ("C5", "quartic continuity h-order"):
        "pre-asymptotic on its coarse pair (about 1.55); the finest pair "
        "is gated in a tighter band",
}


@pytest.mark.parametrize("cid", CRITERION_IDS)
def test_criterion(cid):
    result = run_acceptance([cid])[0]
    print(result.line())
    assert result.passed, result.line()
    assert [(g.label, g.op, g.bound) for g in result.gates] == BOUNDS[cid]
    hairs = [(g.label, g.share) for g in result.gates
             if g.share is not None and g.share > 0.5
             and (cid, g.label) not in THIN]
    assert not hairs, hairs


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
        (cid, title,
         _boom if cid == first else lambda: [Gate("stub", 0, "==", 0)])
        for cid, title, _ in CRITERIA])
    calls = []

    def spy_map(fn, ids):
        calls.append(list(ids))
        return map(fn, ids)

    results = run_acceptance(map_fn=spy_map)
    assert calls == [list(DISPATCH)]
    assert [r.cid for r in results] == CRITERION_IDS
    failed = [(i, r.error) for i, r in enumerate(results) if not r.passed]
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


# One 800 x 800 complex matrix, the size of C2's and C10's kernels.
_KERNEL_BYTES = 800 * 800 * 16


@pytest.mark.parametrize("cid,bound", [("C2", 0.4), ("C10", 0.7)])
def test_dense_criteria_heap_peaks(cid, bound):
    # With whole-matrix passes over the kernels, C2 peaked at 3.03 kernels
    # and C10 at 4.02; with row-slab passes over whole kernels, at 1.19 and
    # 2.18.  Built a slab at a time and never whole, they peak at 0.28 and
    # 0.53, C10 at its ring part.
    check = {c: fn for c, _, fn in CRITERIA}[cid]
    check()  # the first run fills the library's caches
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        check()
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= bound * _KERNEL_BYTES
