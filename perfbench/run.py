"""Benchmark of the `branchedq` CLI: end-to-end cost and per-layer time.

Usage (from the repository root):

    python3 perfbench/run.py --workload spectrum-folded --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all             # every workload, one table

With ``--trace 0`` every measured run is a fresh ``python3 -m branchedq.cli``
child process (``PYTHONPATH=src``; the package is not installed), timed from
spawn to exit, with its own CPU time and peak RSS from ``os.wait4``.  Runs
repeat until ``--seconds`` have passed; metrics are medians over the runs.
``setup_s`` is measured by separate probe processes that start the
interpreter, import ``branchedq.cli`` and validate the config, and nothing
else.

With ``--trace 1`` the same config runs in this process through the CLI's
click entry point, alternately traced and untraced (see tracer.py), and the
per-layer self times and counts of the traced runs are reported with the
tracing overhead.

Every run's outputs are checked (see workloads.py) and must repeat exactly
within one invocation.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.  The program under
test sees only the generated config, never the seed.
"""

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from workloads import WORKLOADS, write_config

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

DEFAULT_SEED = 20260817
SETUP_PROBES = 3
CHILD_TIMEOUT_S = 150.0

E2E_UNITS = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "GOTO_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

# Starts the interpreter, imports the CLI and validates the config, then
# prints the monotonic clock, which is shared with the parent process.
SETUP_PROBE = ("import sys, time\n"
               "import branchedq.cli as cli\n"
               "cli.load_config(sys.argv[1])\n"
               "print(repr(time.monotonic()))\n")


class BenchError(Exception):
    """The benchmark cannot run here (program missing, probe failed)."""


def layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_us"):
        return "us"
    if "bytes" in name:
        return "bytes"
    if name.endswith(".n"):
        return "rows"
    return "count"


# -- machine facts ----------------------------------------------------------------

def _cpu_model():
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.processor() or None


def _caches():
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        with contextlib.suppress(OSError):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            label = f"L{level}" + {"Data": "d", "Instruction": "i"}.get(kind, "")
            caches[label] = (index / "size").read_text().strip()
    return caches


def _openblas_version(module):
    with contextlib.suppress(AttributeError, KeyError, TypeError):
        blas = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    return None


def machine_facts():
    import numpy
    import scipy
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": _openblas_version(numpy),
        "scipy_blas": _openblas_version(scipy),
        # Recorded as found; the benchmark never sets them.
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
    }


# -- child processes ----------------------------------------------------------------

def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_child(argv, log_path):
    """Run argv to completion; wall time from spawn to exit, own rusage."""
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=child_env(), stdout=log,
                                stderr=subprocess.STDOUT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"exit": proc.returncode, "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            # ru_maxrss is in KiB on Linux.
            "peak_rss_mb": usage.ru_maxrss / 1024.0}


def setup_time(config_path):
    start = time.monotonic()
    proc = subprocess.run([sys.executable, "-c", SETUP_PROBE, str(config_path)],
                          env=child_env(), capture_output=True, text=True,
                          timeout=60)
    if proc.returncode != 0:
        raise BenchError("setup probe failed:\n" + proc.stderr.strip())
    return float(proc.stdout.split()[-1]) - start


def cli_args(workload, config_path, out):
    args = ["run", "--config", str(config_path), "--out", str(out)]
    if workload.jobs > 1:
        args += ["--jobs", str(workload.jobs)]
    return args


def check_outputs(workload, out, config, ref):
    try:
        return workload.check(out, config, ref), workload.fingerprint(out, config)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return [f"unreadable outputs: {type(exc).__name__}: {exc}"], None


class Samples:
    """Measured runs of one set, with the exact-repeat check."""

    def __init__(self):
        self.runs = []
        self._first = None

    def add(self, record, problems, fingerprint):
        if fingerprint is not None:
            if self._first is None:
                self._first = fingerprint
            elif fingerprint != self._first:
                problems = problems + ["outputs differ from the first run"]
        record["problems"] = problems
        self.runs.append(record)

    @property
    def failed(self):
        return sum(bool(r["problems"]) for r in self.runs)

    def median(self, key):
        good = [r for r in self.runs if not r["problems"]] or self.runs
        return statistics.median(r[key] for r in good)


def measure_processes(workload, config, config_path, ref, seconds, probes):
    out = WORK / "out"
    setups = [setup_time(config_path) for _ in range(probes)]
    samples = Samples()
    start = time.perf_counter()
    while not samples.runs or time.perf_counter() - start < seconds:
        shutil.rmtree(out, ignore_errors=True)
        argv = [sys.executable, "-m", "branchedq.cli"] + cli_args(
            workload, config_path, out)
        record = run_child(argv, WORK / "child.log")
        if record["exit"] != 0:
            tail = (WORK / "child.log").read_text(errors="replace")[-2000:]
            samples.add(record, [f"exit {record['exit']}: {tail}"], None)
        else:
            samples.add(record, *check_outputs(workload, out, config, ref))
    shutil.rmtree(out, ignore_errors=True)
    metrics = {name: statistics.median(setups) if name == "setup_s"
               else samples.median(name) for name in E2E_UNITS}
    return samples, metrics, {"setup_s": setups}


# -- in-process traced runs -------------------------------------------------------

def measure_traced(workload, config, config_path, ref, seconds, tag,
                   warmup_path):
    sys.path.insert(0, str(SRC))
    import branchedq.cli as cli
    from tracer import Tracer

    out = WORK / "out"

    def invoke(path, tracer=None):
        shutil.rmtree(out, ignore_errors=True)
        log = WORK / "inprocess.log"
        args = cli_args(workload, path, out)
        with open(log, "w") as fh, contextlib.redirect_stdout(fh), \
                (tracer or contextlib.nullcontext()):
            start = time.perf_counter()
            try:
                cli.main.main(args=args, prog_name="branchedq",
                              standalone_mode=False)
                code = 0
            except SystemExit as exc:
                code = exc.code or 0
            elapsed = time.perf_counter() - start
        record = {"exit": code, "run_s": elapsed, "traced": bool(tracer)}
        if code != 0:
            return record, [f"exit {code}: {log.read_text()[-2000:]}"], None
        files = [p for p in out.rglob("*") if p.is_file()]
        record["files_written"] = len(files)
        record["bytes_written"] = sum(p.stat().st_size for p in files)
        return (record, *check_outputs(workload, out, config, ref))

    # A reduced-size run first takes the one-off costs of the first call in
    # a process (lazy imports, BLAS thread start), which would otherwise be
    # charged to whichever layer happens to run first.
    invoke(warmup_path)
    samples = Samples()
    layers = []
    start = time.perf_counter()
    while not layers or time.perf_counter() - start < seconds:
        # Alternate which side runs first, so drift does not favour one.
        # The first full-size run still pays for first use of large
        # buffers; it is a traced one, so the overhead errs high, not low.
        for traced in ((True, False) if len(layers) % 2 == 0
                       else (False, True)):
            tracer = Tracer() if traced else None
            record, problems, fp = invoke(config_path, tracer)
            samples.add(record, problems, fp)
            if traced:
                metrics = tracer.layer_metrics()
                metrics["cli.files_written"] = record.get("files_written", 0)
                metrics["cli.bytes_written"] = record.get("bytes_written", 0)
                metrics["trace.run_s"] = record["run_s"]
                layers.append(metrics)
                spans = tracer
    shutil.rmtree(out, ignore_errors=True)
    spans.dump(WORK / "results" / f"{tag}.spans.json")

    # Times are medians over the traced runs; counts repeat exactly.
    metrics = {name: (statistics.median(m[name] for m in layers)
                      if layer_unit(name) in ("s", "us") else layers[0][name])
               for name in layers[0]}
    metrics["trace.untraced_s"] = statistics.median(
        r["run_s"] for r in samples.runs if not r["traced"])
    metrics["trace.overhead_s"] = (metrics["trace.run_s"]
                                   - metrics["trace.untraced_s"])
    return samples, metrics, {"layer_runs": layers}


# -- driver ---------------------------------------------------------------------------

def run_workload(name, seed, seconds, trace, smoke, machine):
    workload = WORKLOADS[name]
    config = workload.config(seed, smoke=smoke)
    config_path = write_config(config, WORK / f"{name}.json")
    ref = workload.reference(config)
    tag = f"{name}-seed{seed}-trace{int(trace)}"
    if trace:
        warmup_path = write_config(workload.config(seed, smoke=True),
                                   WORK / f"{name}-warmup.json")
        samples, metrics, extra = measure_traced(
            workload, config, config_path, ref, seconds, tag, warmup_path)
    else:
        samples, metrics, extra = measure_processes(
            workload, config, config_path, ref, seconds,
            1 if smoke else SETUP_PROBES)
    attempted, failed = len(samples.runs), samples.failed
    result = {
        "workload": name, "why": workload.why, "seed": seed,
        "seconds": seconds, "trace": int(trace), "smoke": smoke,
        "config": config, "machine": machine,
        "attempted": attempted, "failed": failed,
        "error_rate": failed / attempted,
        "metrics": {k: {"value": v,
                        "unit": E2E_UNITS.get(k) or layer_unit(k)}
                    for k, v in metrics.items()},
        "runs": samples.runs, **extra,
    }
    (WORK / "results" / f"{tag}.json").write_text(
        json.dumps(result, indent=1, default=str) + "\n")
    return result


def report(result):
    print(f"{result['workload']} (seed {result['seed']}, trace "
          f"{result['trace']}): {result['attempted']} runs, "
          f"{result['failed']} failed, error_rate {result['error_rate']:.3g}")
    for run in result["runs"]:
        for problem in run["problems"]:
            print(f"  FAILED: {problem}")
    for name, m in result["metrics"].items():
        print(f"  {name:<28} {m['value']:>16.6f} {m['unit']}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced sizes, for the smoke test")
    args = parser.parse_args(argv)

    if not (SRC / "branchedq" / "cli.py").is_file():
        raise BenchError(f"branchedq sources not found under {SRC}")
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    machine = machine_facts()
    print("machine: " + json.dumps(machine, sort_keys=True))
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        results.append(run_workload(name, args.seed, args.seconds,
                                    args.trace, args.smoke, machine))
        report(results[-1])
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results
                   for k, v in r["metrics"].items()}
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    summary = {"correct": failed == 0, "attempted": attempted,
               "failed": failed, "metrics": metrics}
    print(json.dumps(summary), flush=True)


if __name__ == "__main__":
    try:
        main()
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
