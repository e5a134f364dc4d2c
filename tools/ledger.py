"""Numbers ledger: the numbers a reader would quote from each run of the
covering set, recorded once with a tolerance set by each number's
conditioning, and any revision checked against them.

Usage (from the repository root):

    python3 tools/ledger.py --check HEAD      # a revision against the ledger
    python3 tools/ledger.py --check           # this working tree
    python3 tools/ledger.py --record          # re-record: this working tree
    python3 tools/ledger.py --check 131719d --ledger baae54c.json \\
        --jobs 2 --blas-threads 2

The covering set (``covering.json``) runs as ``differential.py`` runs it,
through its ``checkout`` and ``run_case``: a revision is checked out with
``git worktree`` into a temporary directory, removed on exit, and each case
is a fresh ``python -m branchedq.cli`` process at ``--jobs`` on
``--blas-threads`` OpenBLAS threads.  The ledger (``ledger.json`` beside this
script) holds numbers, not bytes: the bytes depend on the host's BLAS.

Per case the ledger holds these numbers, each list with one tolerance:

- the exit code, exactly;
- every eigenvalue of a ``spectrum`` or ``graph`` run, and of each sweep
  point, within _CERTIFY_MULTIPLE eps ||H||inf (an eigenvalue is defined only
  to about eps ||H||inf), and the largest ``spectrum`` residual within the
  same bound, below which a certified residual stays;
- a graph's four condition counts, exactly;
- ``evolve``'s norm drift, largest flux residual, final norm and final
  energy within steps * _CERTIFY_MULTIPLE * eps * max(1, |value|), the
  energy times ||H||inf, since each Crank-Nicolson step is unitary to
  rounding; its final time within steps * eps * |t|;
- ``classical``'s status and event count exactly, and its event times and
  energy drift within the orbit's stepper tolerance ``tol`` * max(1,
  |value|);
- ``kernel``'s Hermiticity defect within _CERTIFY_MULTIPLE * eps *
  max(1, |value|);
- ``verify``'s pass flag per criterion exactly, and each gate's value at
  full precision from the ``gates`` list of its ``diagnostics.json``, keyed
  by criterion id and label: an exact gate exactly, a band within 1e-3 of
  its width, any other within 1 % of its value or 1e-3 of its bound,
  whichever is larger.  A gate value is a measured error, residual or
  order whose last digits follow the rounding of the whole run (solver
  path, BLAS threads); what a reader quotes of it is its share of the
  bound.  1e-3 of a band's width or of a bound moves that share by at most
  0.002 or 0.001, below the 0.01 step in which ``acceptance.txt`` prints
  it, and 1 % of the value moves it by at most 1 % of itself: that sets the
  tolerance of a floor (``>``), whose value sits far above its bound.

||H||inf is the Gershgorin bound of the run's operator, and _CERTIFY_MULTIPLE
the recorded tree's own; the recording tree builds each operator again from
the run's ``config.resolved.json``.

The referee: for each eigenvalue list of an operator with n <= 200, the
ledger also holds the eigenvalues of the same float64 matrix by mpmath at 30
digits.  ``--check`` reports the largest distance of the ledger's and of the
revision's eigenvalues from them, in units of eps ||H||inf, so a change that
moves eigenvalues shows whether it moved them toward the exact eigenvalues of
the recorded matrix or away from them.

``--check`` fails (exit 1) on a number outside its tolerance, on a list
whose length changed, and on a number of the ledger that the revision did
not write; a number that only the revision writes is counted.  A change to
the ledger is disclosed in CHANGES.md.
"""

import argparse
import contextlib
import csv
import json
import math
import multiprocessing
import os
import runpy
import subprocess
import sys
import tempfile
from concurrent.futures import ProcessPoolExecutor
from decimal import Decimal, localcontext
from pathlib import Path

import numpy as np

TOOLS = Path(__file__).resolve().parent
_DIFFERENTIAL = runpy.run_path(str(TOOLS / "differential.py"))
ROOT, COVERING = _DIFFERENTIAL["ROOT"], _DIFFERENTIAL["COVERING"]
checkout, run_case = _DIFFERENTIAL["checkout"], _DIFFERENTIAL["run_case"]
LEDGER = TOOLS / "ledger.json"
EPS = float(np.finfo(float).eps)
REFEREE_N = 200
REFEREE_DIGITS = 30


# -- reading a run -----------------------------------------------------------

def _columns(path):
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return {name: [float(row[name]) for row in rows] for name in rows[0]} \
        if rows else {}


def _json(path):
    return json.loads(path.read_text())


def _scale(values):
    return max([1.0] + [abs(v) for v in values
                        if isinstance(v, float) and math.isfinite(v)])


def read_case(case_dir, scale=None):
    """The numbers of one case's run: {name: {"values": [...], "tol": t}}.

    `scale` is (_CERTIFY_MULTIPLE, {run directory: ||H||inf of its
    operator}); without it no tolerance is set (a check reads only the
    values).
    """
    numbers = {}
    multiple, norms = scale or (None, None)

    def add(name, values, tol=lambda: 0.0):
        # `tol` runs at once, so it may read the loop's variables.
        numbers[name] = {"values": list(values)}
        if scale:
            numbers[name]["tol"] = tol()

    add("@exit", [int((case_dir / "@exit").read_text())])
    for run in [case_dir, *sorted(case_dir.glob("sweep-*"))]:
        at = "" if run == case_dir else run.name + "/"
        if (run / "eigenvalues.csv").exists():
            table = _columns(run / "eigenvalues.csv")
            certified = lambda: multiple * EPS * norms[run]
            add(at + "energy", table["energy"], certified)
            if scale:
                numbers[at + "energy"]["eps_norm"] = EPS * norms[run]
            if "residual" in table:
                add(at + "max_residual", [max(table["residual"])], certified)
        if (run / "counting.json").exists():
            counts = _json(run / "counting.json")
            add(at + "counts", [counts[key] for key in (
                "node_conditions", "infinity_conditions", "total_conditions",
                "disposable_constants")])
        if (run / "report.csv").exists():
            summary = _json(run / "summary.json")
            report = _columns(run / "report.csv")
            steps = _json(run / "config.resolved.json")["evolution"]["steps"]
            for name, value in (("norm_drift", summary["norm_drift"]),
                                ("max_flux_residual",
                                 summary["max_flux_residual"]),
                                ("final_norm", report["norm"][-1]),
                                ("final_energy", report["energy"][-1])):
                add(at + name, [value], lambda: (
                    steps * multiple * EPS * _scale([value])
                    * (norms[run] if name == "final_energy" else 1.0)))
            t = summary["final_time"]
            add(at + "final_time", [t], lambda: steps * EPS * abs(t))
        if (run / "trajectory.csv").exists():
            summary = _json(run / "summary.json")
            tol = _json(run / "config.resolved.json")["classical"]["tol"]
            table = _columns(run / "trajectory.csv")
            add(at + "status", [summary["status"]])
            add(at + "events", [summary["events"]])
            for name, values in (
                    ("event_times", [t for t, event in zip(
                        table["t"], table["event"]) if event]),
                    ("energy_drift", [summary["energy_drift"]])):
                add(at + name, values, lambda: tol * _scale(values))
        if (run / "kernel.csv").exists():
            defect = _json(run / "summary.json")["hermiticity_defect"]
            add(at + "hermiticity_defect", [defect],
                lambda: multiple * EPS * _scale([defect]))
        if (run / "acceptance.txt").exists():
            for cid, passed in _json(run / "summary.json").items():
                add(f"{at}{cid} passed", [passed])
            for cid, label, value, op, bound, _ in _json(
                    run / "diagnostics.json")["gates"]:
                add(f"{at}{cid} {label}",
                    value if isinstance(value, list) else [value],
                    lambda: 0.0 if op == "==" else
                    1e-3 * (bound[1] - bound[0]) if op == "in" else
                    max(0.01 * abs(value), 1e-3 * abs(bound)))
    return numbers


# -- recording ---------------------------------------------------------------

# Run under the recorded tree: each run's operator, built again from its
# resolved config, saved with its Gershgorin bound and, when it is small
# enough for the referee, its dense matrix; then the tree's certification
# multiple is printed.
_OPERATORS = r'''
import json, sys
import numpy as np
from branchedq import cli
from branchedq.graphs import graph_hamiltonian
from branchedq.operators import gershgorin_bound
from branchedq.spectra import _CERTIFY_MULTIPLE

for run in sys.argv[2:]:
    with open(run + "/config.resolved.json") as fh:
        config = json.load(fh)
    if config["mode"] == "graph":
        graph = config["graph"]
        op = graph_hamiltonian(cli._graph_from(config),
                               int(graph["resolution"]),
                               truncation=graph.get("truncation"))
    else:
        op = cli._operator_from(config)
    H = op.matrix
    small = H.shape[0] <= int(sys.argv[1]) and config["mode"] != "evolve"
    dense = (H.toarray() if hasattr(H, "toarray") else H) if small \
        else np.empty(0)
    np.savez(run + "/ledger-operator.npz", norm=gershgorin_bound(H),
             matrix=dense)
print(_CERTIFY_MULTIPLE)
'''


def _referee(path, count):
    """The lowest `count` eigenvalues of the matrix saved at `path`, by
    mpmath at REFEREE_DIGITS digits, as text."""
    from mpmath import mp
    mp.dps = REFEREE_DIGITS
    H = np.load(path)["matrix"]
    if np.iscomplexobj(H) and not H.imag.any():
        H = H.real
    solve = mp.eighe if np.iscomplexobj(H) else mp.eigsy
    values = solve(mp.matrix(H.tolist()), eigvals_only=True)
    return [mp.nstr(v, REFEREE_DIGITS)
            for v in sorted(values[i] for i in range(H.shape[0]))[:count]]


def record(tree, runs, names, jobs):
    """The ledger of the runs under `runs` (one directory per case name),
    with each operator built again under `tree`."""
    operated = sorted(path.parent for name in names
                      for pattern in ("eigenvalues.csv", "report.csv")
                      for path in (runs / name).rglob(pattern))
    multiple = float(subprocess.run(
        [sys.executable, "-c", _OPERATORS, str(REFEREE_N),
         *map(str, operated)], check=True, capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(tree / "src"),
                 OPENBLAS_NUM_THREADS="1")).stdout)
    saved = {run: np.load(run / "ledger-operator.npz") for run in operated}
    norms = {run: float(data["norm"]) for run, data in saved.items()}
    ledger = {"cases": {name: read_case(runs / name, (multiple, norms))
                        for name in names}, "referee": {}}
    small = [(name, run) for name in names
             for run in sorted((runs / name).rglob("eigenvalues.csv"))
             if saved[run.parent]["matrix"].size]
    with ProcessPoolExecutor(max_workers=jobs,
                             mp_context=multiprocessing.get_context("spawn")) \
            as pool:
        futures = {}
        for name, run in small:
            at = "" if run.parent.name == name else run.parent.name + "/"
            entry = ledger["cases"][name][at + "energy"]
            futures[f"{name}/{at}energy"] = (entry, pool.submit(
                _referee, run.parent / "ledger-operator.npz",
                len(entry["values"])))
        for key, (entry, future) in sorted(futures.items()):
            ledger["referee"][key] = {"eps_norm": entry["eps_norm"],
                                      "values": future.result()}
    return ledger


# -- checking ----------------------------------------------------------------

def _distance(a, b):
    """|a - b|: 0 for two NaNs, inf for a NaN against a number and for
    unequal texts or flags."""
    if a == b or a != a and b != b:
        return 0.0
    if isinstance(a, (str, bool)) or isinstance(b, (str, bool)):
        return math.inf
    d = abs(a - b)
    return math.inf if math.isnan(d) else d


def _referee_distance(entry, exact):
    """Largest |value - exact| over a list, in units of eps ||H||inf."""
    if entry is None:
        return "not written"
    with localcontext() as ctx:
        ctx.prec = 2 * REFEREE_DIGITS
        worst = max(abs(Decimal(v) - Decimal(x))
                    for v, x in zip(entry["values"], exact["values"]))
        return f"{float(worst / Decimal(exact['eps_norm'])):.3g}"


def compare(ledger, run):
    """Each number of the ledger against the run's ({case: read_case(...)}).

    Returns (report lines, failures): a line per failing list, per list that
    moved within its tolerance, per referee entry, and a closing count.
    """
    lines, failures, compared = [], 0, 0
    for case, numbers in ledger["cases"].items():
        written = run.get(case, {})
        for name, entry in numbers.items():
            key, got = f"{case}/{name}", written.get(name)
            if got is None:
                failures += 1
                lines.append(f"FAIL  {key}: not written")
                continue
            got, want, tol = got["values"], entry["values"], entry["tol"]
            if len(got) != len(want):
                failures += 1
                lines.append(f"FAIL  {key}: {len(got)} values, the ledger "
                             f"holds {len(want)}")
                continue
            compared += len(want)
            worst = max(map(_distance, want, got), default=0.0)
            if worst == 0.0:
                continue
            detail = f"max|d| {worst:.3g}"
            if tol:
                detail += f", {worst / tol:.3g} of its tolerance"
            if "eps_norm" in entry:
                detail += f", {worst / entry['eps_norm']:.3g} eps*||H||inf"
            failures += worst > tol
            lines.append(f"{'FAIL ' if worst > tol else 'moved'} {key}: "
                         f"{detail}")
    for key, exact in ledger["referee"].items():
        case, name = key.split("/", 1)
        mine = _referee_distance(ledger["cases"][case][name], exact)
        theirs = _referee_distance(run.get(case, {}).get(name), exact)
        lines.append(f"referee {key}: {len(exact['values'])} eigenvalues "
                     f"within {mine} (ledger) and {theirs} (checked) "
                     "eps*||H||inf of the exact ones")
    extra = sum(len(numbers) for case, numbers in run.items()
                if case not in ledger["cases"]) + sum(
        len(set(run.get(case, {})) - set(numbers))
        for case, numbers in ledger["cases"].items())
    lines.append(f"{compared} numbers compared, {failures} failures; "
                 f"{extra} lists written that the ledger does not hold")
    return lines, failures


# -- command line ------------------------------------------------------------

def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    action = parser.add_mutually_exclusive_group(required=True)
    action.add_argument("--check", nargs="?", const="", metavar="REV",
                        help="compare REV (default: this working tree) with "
                        "the ledger")
    action.add_argument("--record", nargs="?", const="", metavar="REV",
                        help="record the ledger from REV (default: this "
                        "working tree)")
    parser.add_argument("--ledger", type=Path, default=LEDGER,
                        help="the ledger file (default: %(default)s)")
    parser.add_argument("--jobs", type=int, default=1,
                        help="the CLI's --jobs, and the referee's processes")
    parser.add_argument("--blas-threads", type=int, default=1,
                        help="OPENBLAS_NUM_THREADS of each run")
    args = parser.parse_args(argv)
    rev = args.record if args.check is None else args.check

    cases = json.loads(COVERING.read_text())
    names = [case["name"] for case in cases]
    with contextlib.ExitStack() as stack:
        work = Path(stack.enter_context(tempfile.TemporaryDirectory(
            prefix="ledger-")))
        tree = stack.enter_context(checkout(rev, work / "tree")) if rev \
            else ROOT
        for case in cases:
            run_case(tree, case, args.jobs, work, args.blas_threads)
        if args.check is None:
            ledger = record(tree, work / "cases", names, args.jobs)
            args.ledger.write_text(json.dumps(ledger, indent=1) + "\n")
            print(f"recorded {len(names)} cases from {rev or 'working tree'}"
                  f" into {args.ledger}")
            return 0
        run = {name: read_case(work / "cases" / name) for name in names}
    lines, failures = compare(json.loads(args.ledger.read_text()), run)
    print(f"{rev or 'working tree'} against {args.ledger}, --jobs "
          f"{args.jobs}, {args.blas_threads} BLAS threads:")
    print("\n".join(lines))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
