"""Span tracing around the layer entry points of `branchedq`, from outside.

`Tracer.install` replaces the module attributes the layers are called
through (``branchedq.cli.solve_eigensystem``, ``branchedq.spectra.
hermiticity_defect``, ...) with wrappers that record a span per call:
name, start, end, parent span and thread.  Nothing under ``src/`` changes;
`Tracer.uninstall` puts the original functions back.

A span's self time is its duration minus the durations of its child spans.
Counts (matrix size, nonzeros, steps, ...) are taken from each call's
result at the same boundary; the time spent counting is kept
in a ``trace.count`` span under the caller, so it is charged to tracing,
not to the layer that called.
"""

import importlib
import json
import threading
import time

import numpy as np
import scipy.sparse

_SPARSE_ARRAYS = ("data", "indices", "indptr", "offsets", "row", "col")


def _count_matrix(result):
    m = getattr(result, "matrix", result)
    if scipy.sparse.issparse(m):
        nnz = int(m.count_nonzero())
        stored = sum(getattr(m, a).nbytes for a in _SPARSE_ARRAYS
                     if isinstance(getattr(m, a, None), np.ndarray))
    else:
        m = np.asarray(m)
        nnz = int(np.count_nonzero(m))
        stored = int(m.nbytes)
    return {"n": int(m.shape[0]), "nnz": nnz, "stored_bytes": stored}


def _count_pairs(result):
    return {"pairs": len(result.eigenvalues)}


def _count_steps(result):
    _, report = result
    return {"steps": len(report.times) - 1}


def _count_acceptance(result):
    counts = {f"{r.cid}_s": float(r.elapsed) for r in result}
    counts["passed"] = sum(bool(r.passed) for r in result)
    return counts


_BUILDERS = ("build_folded_hamiltonian", "build_unfolded_hamiltonian",
             "build_dual_wire_hamiltonian", "build_convolution_hamiltonian",
             "build_convolution_potential", "fourier_conjugate_hamiltonian")

# (module, attribute, span name, counter).  Each entry is a place a layer
# is called through; names missing from the module are skipped.
ENTRY_POINTS = (
    [("branchedq.cli", "load_config", "cli.validate", None),
     ("branchedq.cli", "_run_single", "cli.self", None),
     ("branchedq.cli", "run_acceptance", "acceptance.self", _count_acceptance),
     ("branchedq.spectra", "hermiticity_defect", "spectra.hermcheck", None),
     ("branchedq.spectra", "stationarity_residual", "spectra.stationarity",
      None),
     ("branchedq.evolution", "junction_flux_residual", "evolution.flux", None),
     ("branchedq.evolution", "probability_current", "evolution.current", None),
     ("branchedq.acceptance", "newton_refine", "spectra.refine", None),
     ("branchedq.acceptance", "variance_minimize", "spectra.refine", None),
     ("branchedq.acceptance", "stationarity_residual", "spectra.stationarity",
      None),
     ("branchedq.acceptance", "continuity_residual", "evolution.current", None),
     ("branchedq.acceptance", "integrate_euler_lagrange",
      "classical.integrate", None),
     ("branchedq.cli", "probability_current", "evolution.current", None)]
    + [(mod, name, span, counter)
       for mod in ("branchedq.cli", "branchedq.acceptance")
       for name, span, counter in (
           [("solve_eigensystem", "spectra.solve", _count_pairs),
            ("propagate", "evolution.propagate", _count_steps),
            ("graph_hamiltonian", "graphs.assemble", _count_matrix),
            ("count_conditions", "graphs.count", None),
            ("integrate_hamilton", "classical.integrate", None)]
           + [(b, "operators.assemble", _count_matrix) for b in _BUILDERS])]
)

# Layer span names, in report order.  Metric "<name>_s" is their self time.
LAYERS = ("cli.validate", "cli.self", "acceptance.self", "operators.assemble",
          "spectra.solve", "spectra.hermcheck", "spectra.refine",
          "spectra.stationarity", "evolution.propagate", "evolution.flux",
          "evolution.current", "graphs.assemble", "graphs.count",
          "classical.integrate", "dispersion.invert")


class Tracer:
    """Keeps spans in memory: [name, start, end, parent, thread, counts]."""

    def __init__(self):
        self.spans = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._saved = []

    def _open(self, name, parent):
        span = [name, time.perf_counter(), None, parent,
                threading.get_ident(), None]
        with self._lock:
            self.spans.append(span)
            return len(self.spans) - 1, span

    def wrap(self, name, fn, counter=None):
        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            parent = stack[-1] if stack else None
            index, span = self._open(name, parent)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if counter is not None:
                _, count_span = self._open("trace.count", parent)
                span[5] = counter(result)
                count_span[2] = time.perf_counter()
            return result
        traced.__wrapped__ = fn
        return traced

    def install(self):
        from branchedq.dispersion import DispersionLaw
        for mod_name, attr, name, counter in ENTRY_POINTS:
            module = importlib.import_module(mod_name)
            original = getattr(module, attr, None)
            if original is None:
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(name, original, counter))
        original = DispersionLaw.invert_momentum
        self._saved.append((DispersionLaw, "invert_momentum", original))
        DispersionLaw.invert_momentum = self.wrap("dispersion.invert", original)

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def self_times(self):
        """Self time of every span: duration minus its children's."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        return [end - start - c for (_, start, end, _, _, _), c
                in zip(self.spans, child)]

    def layer_metrics(self):
        """Per-layer self times (s) and exact counts from the spans."""
        selfs = self.self_times()
        out = {f"{layer}_s": 0.0 for layer in LAYERS}
        calls = {}
        counts = {}
        for (name, *_, span_counts), t in zip(self.spans, selfs):
            if name == "trace.count":
                continue
            out[f"{name}_s"] += t
            calls[name] = calls.get(name, 0) + 1
            for key, value in (span_counts or {}).items():
                counts.setdefault((name, key), []).append(value)

        def total(name, key, empty=0):
            return sum(counts.get((name, key), [empty]))

        out.update({
            "spectra.solve_calls": calls.get("spectra.solve", 0),
            "spectra.pairs": total("spectra.solve", "pairs"),
            "operators.calls": calls.get("operators.assemble", 0),
            "operators.n": max(counts.get(("operators.assemble", "n"), [0])),
            "operators.nnz": total("operators.assemble", "nnz"),
            "operators.stored_bytes": total("operators.assemble",
                                            "stored_bytes"),
            "evolution.steps": total("evolution.propagate", "steps"),
            "graphs.n": max(counts.get(("graphs.assemble", "n"), [0])),
            "classical.orbits": calls.get("classical.integrate", 0),
            "dispersion.invert_calls": calls.get("dispersion.invert", 0),
            "acceptance.passed": total("acceptance.self", "passed"),
        })
        steps = out["evolution.steps"]
        out["evolution.step_us"] = (1e6 * out["evolution.propagate_s"] / steps
                                    if steps else 0.0)
        for i in range(1, 11):
            out[f"acceptance.C{i}_s"] = total("acceptance.self", f"C{i}_s",
                                              0.0)
        return out

    def dump(self, path):
        """Write the spans as JSON, times relative to the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [{"name": n, "start": s - t0, "end": e - t0, "parent": p,
                 "thread": th, "counts": c}
                for n, s, e, p, th, c in self.spans]
        path.write_text(json.dumps(rows) + "\n")
