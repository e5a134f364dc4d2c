"""Parent differential: run one covering set of CLI configs under two
revisions and compare what they write, byte for byte.

Usage (from the repository root):

    python3 tools/differential.py --parent HEAD     # this working tree
    python3 tools/differential.py --parent HEAD --change HEAD
    python3 tools/differential.py --parent 131719d --change 765d556 \\
        --expect-change 'verify-*/acceptance.txt' \\
        --expect-change 'verify-*/manifest.json' --expect-change 'verify-*/@stdout'

A revision is checked out with ``git worktree`` into a temporary directory,
which is removed on exit; the change side defaults to this working tree,
uncommitted edits included.  Nothing is fetched.  Each case of the covering
set (``covering.json`` beside this script: a config, or the argv of a
command without one) runs on both sides as a fresh ``python -m
branchedq.cli`` process, with ``PYTHONPATH`` at that side's ``src`` and
``OPENBLAS_NUM_THREADS=1``, once at ``--jobs 1`` and once at ``--jobs 2``.

Per case and ``--jobs`` value, the differential compares byte for byte:

- the exit code, stdout and stderr (keys ``<case>/@exit``, ``@stdout`` and
  ``@stderr``), with the side's checkout path written as ``<tree>``;
- every file that the ``manifest.json`` of its directory lists, and the
  manifest itself;
- every file of a directory without a manifest (the ``dispersion`` command).

The files that a manifest does not list (the ``diagnostics.json``
sidecars, which hold run times) are not compared, and the report counts
them by name.  A file on one side only is a difference.  A difference whose
key (``<case>/<path>``) matches an ``--expect-change`` glob is disclosed;
any other one is unexpected and makes the exit code 1.  For each differing
CSV the report gives, per numeric column, max|d| (the largest absolute
difference) and max|d| / max|value| (over the finite values of both sides).  Ahead of
the detail, one line per case counts its differing files by kind and says
how many of them are expected.
"""

import argparse
import contextlib
import csv
import fnmatch
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COVERING = Path(__file__).resolve().parent / "covering.json"
STREAMS = ("@exit", "@stdout", "@stderr")
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS",
            "MKL_NUM_THREADS")
RUN_TIMEOUT_S = 600
JOBS = (1, 2)  # the CLI's serial path and its worker pool


# -- running -------------------------------------------------------------------

@contextlib.contextmanager
def checkout(rev, path):
    """The tree of `rev`, checked out at `path` and removed on exit."""
    subprocess.run(["git", "-C", str(ROOT), "worktree", "add", "--detach",
                    "--quiet", str(path), rev], check=True)
    try:
        yield path
    finally:
        subprocess.run(["git", "-C", str(ROOT), "worktree", "remove",
                        "--force", str(path)], check=False)


def run_case(tree, case, jobs, base, blas_threads=1):
    """Run one case under `tree` in base/cases/<name>, on `blas_threads`
    OpenBLAS threads; its exit code, stdout and stderr become the files
    @exit, @stdout and @stderr there."""
    out = base / "cases" / case["name"]
    out.mkdir(parents=True)
    if "config" in case:
        config = base / "configs" / f"{case['name']}.json"
        config.parent.mkdir(exist_ok=True)
        config.write_text(json.dumps(case["config"]) + "\n")
        argv = ["run", "--config", os.path.relpath(config, out),
                "--jobs", str(jobs), "--out", "."]
    else:
        argv = case["argv"]
    env = {key: value for key, value in os.environ.items()
           if key not in BLAS_ENV and key != "PYTHONPATH"}
    env.update(PYTHONPATH=str(tree / "src"),
               OPENBLAS_NUM_THREADS=str(blas_threads))
    proc = subprocess.run([sys.executable, "-m", "branchedq.cli", *argv],
                          cwd=out, env=env, capture_output=True,
                          timeout=RUN_TIMEOUT_S)
    for name, data in zip(STREAMS, (b"%d\n" % proc.returncode, proc.stdout,
                                    proc.stderr)):
        (out / name).write_bytes(data.replace(str(tree).encode(), b"<tree>"))


# -- comparing -----------------------------------------------------------------

def _split_files(cases):
    """The files under `cases` that are compared, and those that are not,
    as paths relative to it."""
    compared, unlisted = set(), set()
    for path in sorted(p for p in cases.rglob("*") if p.is_file()):
        manifest = path.parent / "manifest.json"
        listed = (path.name in STREAMS or path == manifest
                  or not manifest.exists()
                  or path.name in json.loads(manifest.read_text())["outputs"])
        (compared if listed else unlisted).add(path.relative_to(cases))
    return compared, unlisted


def _column_deltas(a, b):
    """Per numeric column of two CSV texts: (name, max|d|, max|d| / max|value|);
    a string when the two tables do not line up."""
    ta, tb = (list(csv.reader(io.StringIO(t.decode()))) for t in (a, b))
    if not ta or not tb or ta[0] != tb[0]:
        return "headers differ"
    if len(ta) != len(tb):
        return f"{len(ta) - 1} rows -> {len(tb) - 1} rows"
    stats = []
    for j, name in enumerate(ta[0]):
        try:
            pairs = [(float(ra[j]), float(rb[j]))
                     for ra, rb in zip(ta[1:], tb[1:])]
        except (ValueError, IndexError):
            continue  # not a numeric column
        # Two NaNs agree; a NaN against a number differs by inf.
        worst = max((math.inf if math.isnan(x) != math.isnan(y)
                     else abs(x - y) for x, y in pairs
                     if x != y and not (math.isnan(x) and math.isnan(y))),
                    default=0.0)
        scale = max((abs(v) for pair in pairs for v in pair
                     if math.isfinite(v)), default=0.0)
        stats.append((name, worst, worst / scale if scale else math.inf))
    return stats


def compare(parent, change):
    """Differences between two directories of case outputs.

    Returns ({key: detail}, files compared, Counter of the names of the
    files not compared); a key is "<case>/<path>", and the detail says how
    the two sides differ.
    """
    compared_a, unlisted_a = _split_files(parent)
    compared_b, unlisted_b = _split_files(change)
    diffs = {}
    for rel in sorted(compared_a | compared_b):
        a, b = parent / rel, change / rel
        if not (a.is_file() and b.is_file()):
            diffs[rel.as_posix()] = ("only in parent" if a.is_file()
                                     else "only in change")
            continue
        da, db = a.read_bytes(), b.read_bytes()
        if da != db:
            diffs[rel.as_posix()] = (_column_deltas(da, db)
                                     if rel.suffix == ".csv" else "bytes differ")
    unlisted = Counter(rel.name for rel in unlisted_a | unlisted_b)
    return diffs, len(compared_a | compared_b), unlisted


def _detail(detail):
    if isinstance(detail, str):
        return detail
    return "; ".join(f"{name} max|d| {worst:.3g}, max|d|/max|value| {rel:.3g}"
                     for name, worst, rel in detail)


_KINDS = ("only in parent", "only in change", "bytes differ")


def _disclosed(key, expected):
    return any(fnmatch.fnmatchcase(key, glob) for glob in expected)


def _summary(files, expected):
    """One line per case: its differing files counted by kind (a CSV with
    the largest max|d| / max|value| of its columns), and how many of them
    are expected.  `files` maps each differing key to its details."""
    cases = {}
    for key, details in files.items():
        cases.setdefault(key.split("/", 1)[0], []).append((key, details))
    lines = []
    for case, entries in sorted(cases.items()):
        kinds, scaled, unaligned = Counter(), [], 0
        for key, details in entries:
            kind = details[0] if details[0] in _KINDS else "CSV"
            kinds[kind] += 1
            if kind == "CSV":  # a string when the tables do not line up
                unaligned += any(isinstance(d, str) for d in details)
                scaled += [rel for d in details if not isinstance(d, str)
                           for _, _, rel in d]
        counts = [f"{kinds[kind]} {kind}" for kind in _KINDS if kinds[kind]]
        if kinds["CSV"]:
            notes = [f"{unaligned} not aligned"] if unaligned else []
            if scaled:
                notes.append(f"largest max|d|/max|value| {max(scaled):.3g}")
            counts.append(f"{kinds['CSV']} CSV ({'; '.join(notes)})")
        disclosed = sum(_disclosed(key, expected) for key, _ in entries)
        lines.append(f"case {case}: {len(entries)} files: {', '.join(counts)}; "
                     f"{disclosed} expected, {len(entries) - disclosed} "
                     "unexpected")
    return lines


def report(results, expected=()):
    """The report of {jobs: compare(...)} under the --expect-change globs,
    and the number of unexpected differences: a line per --jobs value, a
    summary line per case, then a line per difference."""
    seen, files = {}, {}
    lines = []
    for jobs, (diffs, count, unlisted) in results.items():
        listed = ", ".join(f"{name} x{n}" for name, n in sorted(unlisted.items()))
        lines.append(f"--jobs {jobs}: {count} files compared; not compared "
                     f"(not in their directory's manifest): {listed or 'none'}")
        for key, detail in diffs.items():
            seen.setdefault((key, _detail(detail)), []).append(jobs)
            files.setdefault(key, []).append(detail)
    lines += _summary(files, expected)
    unexpected = 0
    for (key, detail), jobs in seen.items():
        disclosed = _disclosed(key, expected)
        unexpected += not disclosed
        flag = "expected  " if disclosed else "UNEXPECTED"
        lines.append(f"{flag} {key} [--jobs {', '.join(map(str, jobs))}]: "
                     f"{detail}")
    for glob in expected:
        if not any(fnmatch.fnmatchcase(key, glob) for key in files):
            lines.append(f"expected, not seen: {glob}")
    lines.append(f"{len(seen)} differences, {unexpected} unexpected")
    return "\n".join(lines), unexpected


# -- command line --------------------------------------------------------------

def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="parent revision")
    parser.add_argument("--change", default=None,
                        help="change revision (default: this working tree)")
    parser.add_argument("--expect-change", action="append", default=[],
                        metavar="GLOB", help="a disclosed change: a glob of "
                        "<case>/<path> keys (repeatable)")
    args = parser.parse_args(argv)

    cases = json.loads(COVERING.read_text())
    with contextlib.ExitStack() as stack:
        work = Path(stack.enter_context(tempfile.TemporaryDirectory(
            prefix="differential-")))
        trees = {"parent": stack.enter_context(
            checkout(args.parent, work / "tree-parent"))}
        trees["change"] = (stack.enter_context(checkout(
            args.change, work / "tree-change")) if args.change else ROOT)
        results = {}
        for jobs in JOBS:
            for side, tree in trees.items():
                for case in cases:
                    run_case(tree, case, jobs, work / side / f"j{jobs}")
            results[jobs] = compare(work / "parent" / f"j{jobs}" / "cases",
                                    work / "change" / f"j{jobs}" / "cases")
    print(f"parent {args.parent}, change {args.change or 'working tree'}: "
          f"{len(cases)} cases")
    text, unexpected = report(results, args.expect_change)
    print(text)
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main())
