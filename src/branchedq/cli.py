"""Command line front end: config-driven runs with reproducible artifacts.

Every run validates its JSON config against a versioned schema, writes the
mode's CSV/JSON outputs plus the resolved config (each setting the run reads,
defaults included; not `out`), and finishes with a manifest of sha256 content
hashes, so identical (config, seed) pairs are byte-checkable.  All floating
point output uses 17 significant digits.  Exit codes: 0 success, 2 config
error, 3 numerical failure.

Sweep points, and the criteria of a ``verify`` run, run in ``--jobs``
worker processes started with ``fork``; ``--jobs`` defaults to the CPUs
the process may run on, and ``--jobs 1`` runs everything in this process.
The artifacts are the same bytes either way, apart from the
``diagnostics.json`` sidecars.
Worker threads ran a sweep no faster than one thread did while its CSV
formatting was Python work that held the interpreter lock.  Forked workers
inherit the loaded modules and pay no second import.

Every CSV float is rendered as the bytes of ``"%.17g" % v`` by one array
kernel: with X = floor(log10|v|), it forms |v| * 10**(16 - X) as a
double-double (Dekker, Numer. Math. 18 (1971) 224) from correctly rounded
powers of ten, and rounds it to 17 digits.  A scaled fraction within 1e-12
of 1/2, a scaled value outside [1e16, 1e17) and a magnitude outside
[1e-270, 1e270] fall back to ``%``; zeros, infinities and NaNs are written
directly.  Files are rendered and written in chunks of 4096 rows, a
spectrum's state files several to a chunk.  On a 2-vCPU VM the kernel
takes about 0.2 us per float, ``%`` about 1 us.

The CLI defaults OpenBLAS to one thread unless ``OPENBLAS_NUM_THREADS``,
``GOTO_NUM_THREADS`` or ``OMP_NUM_THREADS`` is set.  numpy and scipy each
load their own OpenBLAS, and both thread pools busy-wait between the
small BLAS calls made here.  Measured on a 2-core VM, one thread cut the
CPU time of the benchmark workloads without a sweep by 20-34 % at no cost
in wall time.
It also makes the output bytes independent of the core count: with the
default pools, 2 of 8 points of a 239-row sweep came out with some
eigenvectors sign-flipped and eigenvalues moved by up to 3e-9.
A program that loaded numpy before this module, with none of those variables
set, keeps its default pools and its environment; its sweep points and
criteria run serially, since every forked worker would bring its own
spinning pools (one traced in-process sweep took 6.2 s on two such
workers; serially it takes 2.0 to 2.3 s).

A process enters through ``console()``, which calls ``gc.freeze()`` before
``main()``: the heap that the imports left moves to the permanent
generation, which the collections at interpreter exit skip.  On a 2-vCPU
VM (medians of 5 runs) that took the time from the end of ``main()`` to
process exit from 0.14, 0.12, 0.15 and 0.15 s to 0.024, 0.021, 0.036 and
0.034 s on the benchmark's spectrum-folded, evolve-folded, verify and
spectrum-sweep configs.  ``main`` freezes nothing, so an in-process caller
(a test runner) keeps its heap, and importing this module freezes nothing.
"""

import contextlib
import copy
import functools
import gc
import hashlib
import json
import math
import os
import re
import sys
import time
from collections import namedtuple
from pathlib import Path

# OpenBLAS reads its thread count once, when numpy first loads it, so this
# must run before the first numpy import below.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
                     "OMP_NUM_THREADS")
if "numpy" not in sys.modules and not set(_BLAS_THREAD_VARS) & set(os.environ):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
# Whether the environment sized the BLAS pools; sweeps fork only if it did.
_BLAS_THREADS_SET = bool(set(_BLAS_THREAD_VARS) & set(os.environ))

import click
import numpy as np

from .acceptance import CRITERIA, run_acceptance
from .classical import ClassicalState, integrate_hamilton
from .dispersion import DispersionLaw, velocity_sweep
from .errors import (BranchedQError, ConfigError, DegeneracyError,
                     FluxBalanceError)
from .evolution import gaussian_packet, probability_current, propagate
from .graphs import (GRAPH_LIBRARY, count_conditions, graph_hamiltonian,
                     load_graph, star_graph)
from .grids import FoldedGrid, LineGrid, PeriodicGrid
from .operators import (StencilSymbol, build_convolution_hamiltonian,
                        build_convolution_potential, build_dual_wire_hamiltonian,
                        build_folded_hamiltonian, build_unfolded_hamiltonian,
                        fourier_conjugate_hamiltonian, gershgorin_bound,
                        hermiticity_defect)
from .potentials import has_kernel, potential_from_mapping
from .schema import SchemaViolation, check, check_schema, parse_json
from .spectra import _CERTIFY_MULTIPLE, solve_eigensystem

# -- the config table -----------------------------------------------------------
#
# Each key is declared once: its schema fragment, its default (None: none; a
# callable: set by the run's settings), its readers and what needs it.  A
# reader is a mode, mapped to the settings it needs: the grid kind, the
# assembly, the graph source (a file or a name), whether graph.resolution is
# given, the kernel mode.  Readers None mark `out` and `sweep`, read before a
# run and never resolved.  A given key that `_resolve` leaves out is never
# read, and exits 2.  So does a key that the run reads, that has no default
# and that names in `needs` the setting whose label says what needs it.

_Key = namedtuple("_Key", "schema default reads needs", defaults=(None,))


def _reads(*readers, **settings):
    return dict.fromkeys(readers, settings)


def _int(minimum):
    return {"type": "integer", "minimum": minimum}


def _enum(*values):
    return {"enum": list(values)}


_MODE_NAMES = ("spectrum", "evolve", "graph", "classical", "kernel", "verify")
_EVERY = _reads(*_MODE_NAMES)
_LAW = _reads("spectrum", "evolve", "classical", "kernel")
_GRID, _ASSEMBLED = ("spectrum", "evolve", "kernel"), ("spectrum", "evolve")
_FOLDED = _reads(*_GRID, kind=("folded",))
_LINE = _reads(*_GRID, kind=("line", "periodic"))
_EVOLVE, _CLASSICAL = _reads("evolve"), _reads("classical")
_NAMED = ("star", *GRAPH_LIBRARY)
_NUM = {"type": "number"}
_POSITIVE = {"type": "number", "exclusiveMinimum": 0}

_CONFIG = {
    "version": _Key({"const": 1}, None, _EVERY),
    "mode": _Key(_enum(*_MODE_NAMES), None, _EVERY),
    "seed": _Key(_int(0), None, _EVERY),
    "out": _Key({"type": "string"}, None, None),
    "criteria": _Key({"type": "array", "items": _enum(
        *[cid for cid, _, _ in CRITERIA])}, None, _reads("verify")),
    "dispersion": {"kappa": _Key(_NUM, 3.0, _LAW)},
    "potential": _Key({"type": "object", "required": ["form"], "properties": {
        "form": _enum("quadratic", "quartic", "gaussian", "lorentzian",
                      "sech2", "sampled")}}, None, _LAW),
    "grid": {
        "kind": _Key(_enum("folded", "line", "periodic"), "folded",
                     _reads(*_GRID)),
        "n_inner": _Key(_int(2), 40, _FOLDED),
        "n_arm": _Key(_int(3), 60, _FOLDED),
        "x_min": _Key(_NUM, None, _LINE, "kind"),
        "x_max": _Key(_NUM, None, _LINE, "kind"),
        "n": _Key(_int(4), None, _LINE, "kind"),
    },
    "solver": {
        "k": _Key(_int(1), lambda run: 6 if run["mode"] == "graph" else 10,
                  _reads("spectrum") | _reads("graph", resolution=(True,))),
        "accuracy": _Key(_enum(2, 4), 2, _reads(
            *_ASSEMBLED, assembly=("folded", "unfolded", "dual-wire"))),
        "assembly": _Key(
            _enum("folded", "unfolded", "dual-wire", "convolution", "fourier"),
            lambda run: {"folded": "folded", "line": "unfolded"}.get(
                run["kind"]), _reads(*_ASSEMBLED), "kind"),
        "kinetic": _Key({"type": "array", "items": _NUM, "minItems": 4,
                         "maxItems": 4}, None,
                        _reads(*_ASSEMBLED, assembly=("dual-wire",)),
                        "assembly"),
    },
    "evolution": {
        "dt": _Key(_POSITIVE, 1e-3, _EVOLVE),
        "steps": _Key(_int(1), 100, _EVOLVE),
        "snapshot_every": _Key(_int(1), None, _EVOLVE),
        "stability_budget": _Key({"type": ["number", "null"]}, 0.5, _EVOLVE),
        "packet": {"center": _Key(_NUM, 0.0, _EVOLVE),
                   "width": _Key(_POSITIVE, 1.0, _EVOLVE),
                   "boost": _Key(_NUM, 0.0, _EVOLVE)},
    },
    "classical": {
        "x": _Key(_NUM, 0.0, _CLASSICAL),
        "xdot": _Key(_NUM, 2.0, _CLASSICAL),
        "t_end": _Key(_NUM, 10.0, _CLASSICAL),
        "tol": _Key(_POSITIVE, 1e-12, _CLASSICAL),
        "policy": _Key(_enum("halt", "random-branch"), "halt", _CLASSICAL),
        "max_events": _Key(_int(1), 32, _CLASSICAL),
        "samples": _Key(_int(2), None, _CLASSICAL),
    },
    "graph": {
        "name": _Key(_enum(*_NAMED), None, _reads("graph", source=_NAMED),
                     "source"),
        "file": _Key({"type": "string"}, None,
                     _reads("graph", source=("file",))),
        "edges": _Key(_int(2), 3, _reads("graph", source=("star",))),
        "length": _Key(_POSITIVE, 1.0, _reads("graph", source=_NAMED)),
        "resolution": _Key(_int(5), None, _reads("graph")),
        # A file's, when it has half-lines.
        "truncation": _Key(_POSITIVE, None, _reads(
            "graph", resolution=(True,), source=("file", "compton", "box"))),
    },
    # A naive kernel of an asymmetric well is not Hermitian, so the
    # convolution assembly takes the hermitian one only.
    "kernel": {"mode": _Key(_enum("hermitian", "naive"), "hermitian",
                            _reads("kernel") | _reads(
                                *_ASSEMBLED, assembly=("convolution",),
                                kernel=("hermitian",)))},
    "sweep": _Key({"type": "object", "additionalProperties": False,
                   "required": ["parameter", "values"], "properties": {
                       "parameter": {"type": "string"},
                       "values": {"type": "array", "minItems": 1}}}, None, None),
}


def _schema(table, **extra):
    return {"type": "object", **extra, "additionalProperties": False,
            "properties": {name: _schema(spec) if isinstance(spec, dict)
                           else spec.schema for name, spec in table.items()}}


CONFIG_SCHEMA = _schema(_CONFIG, required=["version", "mode"])
check_schema(CONFIG_SCHEMA)

# What rules a key out, in the order of report (the mode in config order,
# then each setting, the section that holds it first), and its label.
_SETTINGS = {"mode": (None, "{mode} mode"),
             "resolution": ("graph", "{mode} mode without a resolution"),
             "kind": ("grid", "a {kind} grid"),
             "assembly": ("solver", "the {assembly} assembly"),
             "source": ("graph", "{graph}"),
             "kernel": ("kernel", "the {assembly} assembly with a {kernel} "
                                  "kernel")}
_READ = len(_SETTINGS)


def _run_settings(config):
    """The mode and the settings of a run.  A setting that the config leaves
    open (no assembly on a periodic grid, no graph source) is None, which
    no key refuses."""
    grid, solver, graph = (config.get(name, {})
                           for name in ("grid", "solver", "graph"))
    run = {"mode": config["mode"], "resolution": "resolution" in graph,
           "kind": grid.get("kind", _CONFIG["grid"]["kind"].default)}
    run["assembly"] = solver.get("assembly",
                                 _CONFIG["solver"]["assembly"].default(run))
    run["source"] = "file" if "file" in graph else graph.get("name")
    run["kernel"] = config.get("kernel", {}).get(
        "mode", _CONFIG["kernel"]["mode"].default)
    run["graph"] = ("a graph file" if "file" in graph
                    else f"the {run['source']} graph" if run["source"]
                    else "graph mode without a file")
    return run


def _rank(spec, run):
    """_READ when the run reads `spec`, else the rank in _SETTINGS of what
    rules it out; for a section, the highest of its keys'."""
    if isinstance(spec, dict):
        return max(_rank(key, run) for key in spec.values())
    if spec.reads is None:
        return _READ
    settings = spec.reads.get(run["mode"])
    if settings is None:
        return 0
    return next((rank for rank, name in enumerate(_SETTINGS)
                 if run[name] not in settings.get(name, [run[name]])
                 and run[name] is not None), _READ)


def _resolve(config, table=_CONFIG, run=None):
    """The keys the run reads, each with its given value or its default."""
    run = run or _run_settings(config)
    resolved = {}
    for name, spec in table.items():
        if isinstance(spec, dict):
            value = _resolve(config.get(name, {}), spec, run)
            if value:
                resolved[name] = value
        elif spec.reads is None or _rank(spec, run) < _READ:
            continue
        elif name in config:
            resolved[name] = config[name]
        else:
            default = (spec.default(run) if callable(spec.default)
                       else spec.default)
            if default is not None:
                resolved[name] = default
    return resolved


def _check_reads(config, source=""):
    """The resolved config; ConfigError for a given key that it leaves out,
    a setting the run never reads, named with what rules it out, and then
    for a key that the run reads and needs but that has no value."""
    run = _run_settings(config)
    for rank, (owner, label) in enumerate(_SETTINGS.values()):
        for name in sorted(config, key=lambda section: section != owner):
            spec = _CONFIG[name]
            keys = config[name] if isinstance(spec, dict) else ()
            what = ", ".join(sorted(key for key in keys
                                    if _rank(spec[key], run) == rank))
            if _rank(spec, run) == rank:  # the run reads nothing of it
                what = "it"
            if what:
                raise ConfigError(f"{source}{name}: {label.format(**run)} "
                                  f"does not read {what}")
    resolved = _resolve(config, run=run)
    for name, section in _CONFIG.items():
        for key, spec in section.items() if isinstance(section, dict) else ():
            if (getattr(spec, "needs", None) and _rank(spec, run) == _READ
                    and key not in resolved.get(name, {})):
                label = _SETTINGS[spec.needs][1].format(**run)
                raise ConfigError(f"{source}{name}: {label} needs {key}")
    return resolved


# -- CSV rendering -------------------------------------------------------------
#
# The kernel of the module docstring.  A value's slot holds the sign, the
# "0.000" of -4 <= X < 0, d0, the point, d1..d16 and the exponent of X < -4
# or X >= 17; for 1 <= X <= 16, d1..dX move left over the point.  Unused
# bytes, trailing zeros and a bare point are NULs, which `_text` drops.

_FIELD = re.compile(r"%(\.17g|d|%)")
_SLOT = 29
_X_MIN, _X_MAX = -272, 271  # the decimal exponents the tables cover


@functools.lru_cache(maxsize=None)
def _tables():
    """For each X: 10**(16 - X) as correctly rounded (hi, lo) doubles, and
    the slot bytes that X alone sets; and the digits of 0..9999, then the
    same without their trailing zeros.

    Built on first use.  The powers take integer arithmetic, whose
    int -> float and int / int round correctly where a float power need
    not; the bytes take array arithmetic.
    """
    hi, lo = [], []
    for x in range(_X_MIN, _X_MAX + 1):
        if x <= 16:  # an integer: round it, then its remainder
            n = 10 ** (16 - x)
            hi.append(float(n))
            lo.append(float(n - int(hi[-1])))
        else:
            d = 10 ** (x - 16)
            m, e = (1 / d).as_integer_ratio()
            hi.append(m / e)
            lo.append((e - m * d) / (d * e))
    x = np.arange(_X_MIN, _X_MAX + 1)
    slots = np.zeros((x.size, _SLOT), np.uint8)
    lead = (x >= -4) & (x < 0)  # "0." and -1 - X zeros from byte 1
    col = np.arange(_SLOT)
    slots[lead[:, None] & (col >= 1) & (col <= 1 - x[:, None])] = ord("0")
    slots[lead, 2] = ord(".")
    slots[~lead & (x != 16), 7] = ord(".")
    shown = (x < -4) | (x >= 17)  # "e%+03d" % X from byte 24
    a = np.abs(x)
    digits = np.stack([a // 100, a // 10 % 10, a % 10], axis=1) + ord("0")
    slots[shown, 24] = ord("e")
    slots[shown, 25] = np.where(x < 0, ord("-"), ord("+"))[shown]
    wide = shown & (a >= 100)
    slots[wide, 26:29] = digits[wide]
    slots[shown & ~wide, 26:28] = digits[shown & ~wide, 1:]
    quads = (np.indices((10,) * 4).reshape(4, -1).T
             + ord("0")).astype(np.uint8)
    bare = quads.copy()
    bare[np.logical_and.accumulate(quads[:, ::-1] == ord("0"),
                                   axis=1)[:, ::-1]] = 0
    return (np.array(hi), np.array(lo), slots.view("V%d" % _SLOT).ravel(),
            np.concatenate([quads, bare]).view("S4").ravel())


def _exact_text(values):
    """The per-value fallback: "%.17g" % v, as _SLOT-byte rows."""
    text = np.array(["%.17g" % v for v in values.tolist()], "S%d" % _SLOT)
    return text.view(np.uint8).reshape(-1, _SLOT)


def _split(a):
    c = 134217729.0 * a  # 2**27 + 1
    high = c - (c - a)
    return high, a - high


def _g17(values):
    """"%.17g" % v of each value, as the rows of an (n, _SLOT) uint8 matrix."""
    v = np.asarray(values, dtype=np.float64).ravel()
    n = v.size
    hi, lo, slots, quads = _tables()
    a = np.abs(v)
    ok = (a >= 1e-270) & (a <= 1e270)
    a[~ok] = 1.0
    x = np.floor(np.log10(a)).astype(np.int64)
    ph = hi[x - _X_MIN]
    p = a * ph
    (ah, al), (bh, bl) = _split(a), _split(ph)
    err = ((ah * bh - p) + ah * bl + al * bh) + al * bl + a * lo[x - _X_MIN]
    s = p + err
    frac = err - (s - p)  # the scaled value is s + frac, s an integer
    whole = np.floor(frac)
    frac -= whole
    d = s.astype(np.int64) + whole.astype(np.int64)
    ok &= (d >= 10**16) & (np.abs(frac - 0.5) > 1e-12)
    d += frac > 0.5
    ok &= d < 10**17
    # d0, d1..d8 and d9..d16; then d1..d16 as four groups of four digits,
    # a group followed by zeros only spelled without its trailing zeros
    top, high = d // 10**16, d // 10**8
    low = d - high * 10**8
    high -= top * 10**8
    groups = np.empty((n, 4), np.int64)
    groups[:, 0], groups[:, 2] = high // 10**4, low // 10**4
    groups[:, 1] = high - groups[:, 0] * 10**4
    groups[:, 3] = low - groups[:, 2] * 10**4 + 10000
    groups[:, 2] += (groups[:, 3] == 10000) * 10000
    groups[:, 1] += (low == 0) * 10000
    groups[:, 0] += (groups[:, 1] == 10000) * 10000
    out = slots[x - _X_MIN].view(np.uint8).reshape(n, _SLOT)
    out[:, 0] = np.signbit(v) * np.uint8(ord("-"))
    out[:, 6] = top + ord("0")
    out[:, 7] *= (high | low) != 0
    out[:, 8:24] = quads[groups].view(np.uint8).reshape(n, 16)
    for q in np.unique(x[(x > 0) & (x < 17)]).tolist():
        rows = np.flatnonzero(x == q)
        digits = out[rows, 8:8 + q]
        digits[digits == 0] = ord("0")  # integer digits keep their zeros
        out[rows, 7:7 + q] = digits
        out[rows, 7 + q] = (d[rows] % 10**(16 - q) != 0) * np.uint8(ord("."))
    nan = np.isnan(v)
    for mask, text in ((v == 0, b"0"), (np.isinf(v), b"inf"), (nan, b"nan")):
        out[mask, 1:] = np.frombuffer(text.ljust(_SLOT - 1, b"\0"), np.uint8)
        ok |= mask
    out[nan, 0] = 0
    if not ok.all():
        out[~ok] = _exact_text(v[~ok])
    return out


def _ints(values):
    """"%d" % v of each value, as the rows of a NUL-padded uint8 matrix."""
    text = np.array(["%d" % v for v in np.asarray(values).ravel().tolist()],
                    "S")
    return text.view(np.uint8).reshape(text.size, text.itemsize)


def _rows(fmt, columns, lead=None, prefix=""):
    """The rows prefix + lead + `fmt`, as one NUL-padded uint8 matrix.

    `fmt`'s "%.17g" and "%d" slots take the aligned columns in turn.
    """
    n, values = len(columns[0]), iter(columns)
    parts = [prefix] if lead is None else [prefix, lead]
    for i, piece in enumerate(_FIELD.split(fmt)):
        if i % 2 and piece != "%":
            piece = (_g17 if piece == ".17g" else _ints)(next(values))
        parts.append(piece)
    return np.hstack([np.broadcast_to(np.frombuffer(p.encode(), np.uint8),
                                      (n, len(p))) if isinstance(p, str) else p
                      for p in parts])


def _text(rows):
    """The bytes of a `_rows` matrix, NULs dropped."""
    return rows.tobytes().translate(None, b"\0")


# Rows rendered per call.  A file is written as its chunks are rendered, so
# it is never held whole: rendered whole, the state files of a 239-row,
# 8-point sweep raised its peak RSS at --jobs 1 from 71 to 86 MB.
_ROWS_PER_CALL = 4096


def _write_columns(path, header, fmt, blocks, lead=None):
    """Write a CSV file block by block, `_ROWS_PER_CALL` rows per chunk,
    and return the sha256 hex digest of its bytes.

    `blocks` yields (prefix, columns) pairs.  Row i of a block is the
    prefix text, then row i of `lead` (no lead by default), then `fmt`
    with its slots filled from row i of the aligned columns.
    """
    def chunks():
        yield (",".join(header) + "\n").encode()
        for prefix, columns in blocks:
            columns = [np.asarray(c) for c in columns]
            for start in range(0, columns[0].size, _ROWS_PER_CALL):
                stop = start + _ROWS_PER_CALL
                yield _text(_rows(
                    fmt, [c[start:stop] for c in columns],
                    None if lead is None else lead[start:stop], prefix))

    digest = hashlib.sha256()
    with open(path, "wb") as fh:
        for chunk in chunks():
            fh.write(chunk)
            digest.update(chunk)
    return digest.hexdigest()


def _write_bytes(path, data):
    """Write `data` to `path`; returns the sha256 hex digest of `data`."""
    Path(path).write_bytes(data)
    return hashlib.sha256(data).hexdigest()


def _write_json(path, payload):
    return _write_bytes(path, (json.dumps(payload, indent=2, sort_keys=True)
                               + "\n").encode())


def validate_config(doc, source="config"):
    try:
        check(doc, CONFIG_SCHEMA)
    except SchemaViolation as exc:
        raise ConfigError(f"{source}: {exc}") from None


def load_config(path):
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from None
    try:
        doc = parse_json(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON at line {exc.lineno} "
                          f"column {exc.colno}: {exc.msg}") from None
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    validate_config(doc, source=str(path))
    return doc


# -- problem construction -----------------------------------------------------

@contextlib.contextmanager
def _section(name, *errors):
    """Raise each of `errors` from the block, or from the function that this
    decorates, as a ConfigError in config section `name`."""
    try:
        yield
    except errors as exc:
        raise ConfigError(f"{name}: {exc}") from None


@_section("dispersion", ValueError)
def _law_from(config):
    return DispersionLaw(kappa=float(config["dispersion"]["kappa"]))


@_section("potential", ValueError, TypeError)
def _potential_from(config):
    if "potential" not in config:
        return None
    return potential_from_mapping(config["potential"])


@_section("grid", ValueError, TypeError)
def _grid_from(config, law):
    g = config["grid"]
    if g["kind"] == "folded":
        return FoldedGrid(law, int(g["n_inner"]), int(g["n_arm"]))
    grid = LineGrid if g["kind"] == "line" else PeriodicGrid
    return grid(float(g["x_min"]), float(g["x_max"]), int(g["n"]))


@_section("solver", ValueError, TypeError)
def _hamiltonian_from(config, law, grid, potential):
    solver = config["solver"]
    assembly = solver["assembly"]
    if assembly in ("folded", "unfolded"):
        build = (build_folded_hamiltonian if assembly == "folded"
                 else build_unfolded_hamiltonian)
        return build(law, grid, potential, accuracy=int(solver["accuracy"]))
    if assembly == "dual-wire":
        if potential is None and isinstance(grid, LineGrid):
            raise ConfigError("potential: the dual-wire assembly on a line "
                              "grid needs one")
        if potential is not None and isinstance(grid, FoldedGrid):
            raise ConfigError("potential: the dual-wire assembly on a folded "
                              "grid takes its W from kappa, not from a "
                              "potential")
        wire = potential if potential is not None else law
        return build_dual_wire_hamiltonian(
            StencilSymbol(*solver["kinetic"]), wire, grid,
            accuracy=int(solver["accuracy"]))
    if assembly == "convolution":
        return build_convolution_hamiltonian(
            law, potential, grid, mode=config["kernel"]["mode"])
    if potential is None:
        raise ConfigError("potential: the fourier assembly needs one")
    return fourier_conjugate_hamiltonian(law, potential, grid)


def _operator_from(config):
    law = _law_from(config)
    potential = _potential_from(config)
    return _hamiltonian_from(config, law, _grid_from(config, law), potential)


def _stored(H):
    """The matrix size `n` and its stored entries `nnz`, for a sidecar."""
    return {"n": H.shape[0], "nnz": int(getattr(H, "nnz", H.size))}


def _lowest(op, k, section):
    """The lowest k eigenpairs of op (all, if it has fewer) and the
    spectral sidecar: what was solved, how, and how well.

    An operator whose eps * ||H||inf is 0 gives its residuals no scale;
    it is refused as a ConfigError of the config section that built it.
    """
    H = op.matrix
    eps_norm = float(np.finfo(float).eps * gershgorin_bound(H))
    if eps_norm == 0.0:
        raise ConfigError(f"{section}: the operator is zero to double "
                          "precision (eps * ||H||inf is 0)")
    res = solve_eigensystem(op, k=min(k, H.shape[0]))
    max_residual = float(res.residuals.max())
    return res, {
        **_stored(H),
        "solver": res.solver,
        "max_residual": max_residual,
        "eps_norm": eps_norm,  # eigenvalues are defined only to about this
        "residual_margin": max_residual / (_CERTIFY_MULTIPLE * eps_norm),
    }


def _grid_lead(grid):
    """The coordinate and branch columns, formatted once per run."""
    if isinstance(grid, FoldedGrid):
        return _rows("%.17g,%d,", (grid.u, grid.branch))
    return _rows("%.17g,%d,", (grid.x, np.zeros(grid.size, dtype=int)))


# -- mode handlers -------------------------------------------------------------
#
# Each handler returns (files, ok, sidecar): the name of each file the
# manifest lists with the sha256 hex digest of the bytes written, whether
# the run passed, and the `diagnostics.json` sidecar, which stays out of the
# manifest because its timings differ between reruns.

def _mode_spectrum(config, out):
    start = time.perf_counter()
    op = _operator_from(config)
    assembled = time.perf_counter()
    res, sidecar = _lowest(op, int(config["solver"]["k"]), "solver")
    solved = time.perf_counter()
    files = {"eigenvalues.csv": _write_columns(
        out / "eigenvalues.csv", ("index", "energy", "residual"),
        "%d,%.17g,%.17g\n", [("", (np.arange(res.eigenvalues.size),
                                   res.eigenvalues, res.residuals))])}
    # State files are rendered several to a chunk, then cut at their sizes.
    lead = _grid_lead(op.grid)
    per_call = max(1, _ROWS_PER_CALL // len(lead))
    for first in range(0, res.eigenvalues.size, per_call):
        block = res.eigenvectors[:, first:first + per_call].T
        rows = _rows("%.17g,%.17g\n", (block.real.ravel(), block.imag.ravel()),
                     np.tile(lead, (len(block), 1)))
        text, begin = _text(rows), 0
        sizes = np.count_nonzero(rows.reshape(len(block), -1), axis=1)
        for i, size in enumerate(sizes.tolist(), first):
            name = f"state_{i:03d}.csv"
            files[name] = _write_bytes(out / name, b"coordinate,branch,re,im\n"
                                       + text[begin:begin + size])
            begin += size
    return files, True, {"assemble_s": assembled - start,
                         "solve_s": solved - assembled,
                         "write_s": time.perf_counter() - solved, **sidecar}


def _mode_evolve(config, out):
    start = time.perf_counter()
    op = _operator_from(config)
    grid = op.grid
    assembled = time.perf_counter()
    ev = config["evolution"]
    steps = int(ev["steps"])
    with _section("evolution", ValueError):
        psi0 = gaussian_packet(grid, *(float(ev["packet"][key]) for key
                                       in ("center", "width", "boost")))
        psi, rep = propagate(op, psi0, float(ev["dt"]), steps,
                             snapshot_every=ev.get("snapshot_every"),
                             stability_budget=ev["stability_budget"])
    propagated = time.perf_counter()
    nsteps = rep.times.size
    flux = rep.flux_residuals if rep.flux_residuals is not None \
        else np.full((nsteps, 2), np.nan)
    files = {"report.csv": _write_columns(
        out / "report.csv",
        ("time", "norm", "energy", "flux_plus", "flux_minus"),
        "%.17g,%.17g,%.17g,%.17g,%.17g\n",
        [("", (rep.times, rep.norms, rep.energies, flux[:, 0], flux[:, 1]))])}

    # Without snapshots, the final state is written.
    kept = (zip(rep.snapshot_times, rep.snapshots) if rep.snapshot_times.size
            else [(rep.times[-1], psi)])

    def blocks():
        for t, data in kept:
            current = (probability_current(data, grid.h, op.symbol)
                       if op.symbol is not None
                       else np.full(data.size, np.nan))
            yield (_text(_rows("%.17g,", ([t],))).decode(),
                   (data.real, data.imag, np.abs(data) ** 2, current))

    files["snapshots.csv"] = _write_columns(
        out / "snapshots.csv",
        ("time", "coordinate", "branch", "re", "im", "rho", "current"),
        "%.17g,%.17g,%.17g,%.17g\n", blocks(), _grid_lead(grid))
    files["summary.json"] = _write_json(out / "summary.json", {
        "norm_drift": rep.norm_drift,
        "max_flux_residual": rep.max_flux_residual,
        "final_time": float(rep.times[-1]),
    })
    return files, True, {
        "assemble_s": assembled - start,
        "propagate_s": propagated - assembled,
        "write_s": time.perf_counter() - propagated,
        **_stored(op.matrix),
        "steps": steps,
        "solver": rep.solver,
    }


@_section("graph", OSError, ValueError, FluxBalanceError)
@_section("graph file", SchemaViolation)  # a ValueError: caught first
def _graph_from(config):
    gcfg = config["graph"]
    if "file" in gcfg:
        return load_graph(gcfg["file"])
    if gcfg["name"] == "star":
        return star_graph(int(gcfg["edges"]), float(gcfg["length"]))
    return GRAPH_LIBRARY[gcfg["name"]](float(gcfg["length"]))


def _mode_graph(config, out):
    graph, gcfg = _graph_from(config), config["graph"]
    node, infinity, total, constants = count_conditions(graph)
    files, sidecar = {"counting.json": _write_json(out / "counting.json", {
        "node_conditions": node,
        "infinity_conditions": infinity,
        "total_conditions": total,
        "disposable_constants": constants,
    })}, {}
    if "resolution" in gcfg:
        with _section("graph", ValueError):
            op = graph_hamiltonian(graph, int(gcfg["resolution"]),
                                   truncation=gcfg.get("truncation"))
        res, sidecar = _lowest(op, int(config["solver"]["k"]), "graph")
        w = res.eigenvalues
        files["eigenvalues.csv"] = _write_columns(
            out / "eigenvalues.csv", ("index", "energy", "wavenumber"),
            "%d,%.17g,%.17g\n", [("", (np.arange(w.size), w,
                                       np.sqrt(np.where(w < 0.0, 0.0, w))))])
    return files, True, sidecar


def _mode_classical(config, out):
    law = _law_from(config)
    potential = _potential_from(config)
    c = config["classical"]
    t_end = float(c["t_end"])
    # A start on the cusp is rejected before the first step; a stall
    # during integration stays a numerical failure.
    with _section("classical", ValueError, DegeneracyError):
        state = ClassicalState(float(c["x"]), float(c["xdot"]))
        t_eval = (np.linspace(state.t, t_end, int(c["samples"]))
                  if "samples" in c else None)
        start = time.perf_counter()
        traj = integrate_hamilton(state, t_end, law, potential,
                                  tol=float(c["tol"]), policy=c["policy"],
                                  seed=config.get("seed"),
                                  max_events=int(c["max_events"]),
                                  t_eval=t_eval)
        integrate_s = time.perf_counter() - start
    files = {"trajectory.csv": _write_columns(
        out / "trajectory.csv", ("t", "x", "xdot", "p", "E", "branch", "event"),
        "%.17g,%.17g,%.17g,%.17g,%.17g,%d,%d\n",
        [("", (traj.t, traj.x, traj.xdot, traj.momentum, traj.energy,
               traj.branch, traj.event_flag))])}
    files["summary.json"] = _write_json(out / "summary.json", {
        "status": traj.status,
        "events": len(traj.events),
        "energy_drift": traj.energy_drift(),
    })
    return files, True, {
        "integrate_s": integrate_s,
        **traj.stats,
        "events": len(traj.events),
        "status": traj.status,
    }


def _mode_kernel(config, out):
    law = _law_from(config)
    potential = _potential_from(config)
    if potential is None or not has_kernel(potential):
        raise ConfigError("potential: kernel mode needs one with an "
                          "integrable transform (gaussian, lorentzian, sech2, "
                          "sampled)")
    grid = _grid_from(config, law)
    mode = config["kernel"]["mode"]
    with _section("kernel", ValueError, TypeError):
        op = build_convolution_potential(potential, grid, mode=mode, domain=law)
    offsets = grid.h * np.arange(-(grid.size - 1), grid.size)
    samples = potential.kernel(offsets)
    files = {"kernel.csv": _write_columns(
        out / "kernel.csv", ("offset", "re", "im"), "%.17g,%.17g,%.17g\n",
        [("", (offsets, samples.real, samples.imag))])}
    files["summary.json"] = _write_json(out / "summary.json", {
        "mode": mode,
        "hermiticity_defect": hermiticity_defect(op.matrix),
    })
    return files, True, _stored(op.matrix)


def _mode_verify(config, out, jobs=1):
    dispatch = []

    def map_fn(fn, ids):
        dispatch.extend(ids)
        return _map(fn, ids, jobs, "verify")

    start = time.perf_counter()
    results = run_acceptance(config.get("criteria"), map_fn)
    run_s = time.perf_counter() - start
    workers = _workers(jobs, len(results))
    lines = [r.line() for r in results]
    for line in lines:
        click.echo(line)
    files = {"acceptance.txt": _write_bytes(out / "acceptance.txt",
                                            ("\n".join(lines) + "\n").encode()),
             "summary.json": _write_json(out / "summary.json", {
                 r.cid: bool(r.passed) for r in results})}
    # In-process spans cannot see a criterion run in a worker process; its
    # time, taken there, comes back with its result.  The peak resident set
    # is that of the largest process that ran criteria: the workers, all
    # joined by now, or this process (ru_maxrss is in KiB on Linux).  A
    # process that reaped larger children before this run reports theirs.
    import resource
    usage = resource.getrusage(resource.RUSAGE_CHILDREN if workers > 1
                               else resource.RUSAGE_SELF)
    ok = all(r.passed for r in results)
    return files, ok, {
        "run_s": run_s,
        "workers": workers,
        "dispatch": dispatch,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "elapsed_s": {r.cid: r.elapsed for r in results},
        "shares": sorted(([r.cid, g.label, g.share] for r in results
                          for g in r.gates if g.share is not None),
                         key=lambda entry: -entry[2]),
    }


_MODES = {
    "spectrum": _mode_spectrum,
    "evolve": _mode_evolve,
    "graph": _mode_graph,
    "classical": _mode_classical,
    "kernel": _mode_kernel,
    "verify": _mode_verify,
}


# -- run orchestration ----------------------------------------------------------

def _set_dotted(mapping, dotted, value):
    keys = dotted.split(".")
    cur = mapping
    for key in keys[:-1]:
        cur = cur.setdefault(key, {})
        if not isinstance(cur, dict):
            raise ConfigError(f"sweep: {dotted} does not address a field")
    cur[keys[-1]] = value


def _finish(config, out_dir, files):
    """Write the resolved config and the manifest of `files`, a dict of each
    artifact's name and sha256 hex digest."""
    outputs = {**files, "config.resolved.json": _write_json(
        out_dir / "config.resolved.json", config)}
    _write_json(out_dir / "manifest.json", {
        "version": 1, "mode": config["mode"], "outputs": outputs})


def _run_single(config, out_dir, jobs=1):
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    mode = config["mode"]
    # Of the modes, only verify spreads its work over worker processes.
    files, ok, sidecar = (_mode_verify(config, out_dir, jobs)
                          if mode == "verify"
                          else _MODES[mode](config, out_dir))
    _write_json(out_dir / "diagnostics.json", sidecar)
    _finish(config, out_dir, files)
    return ok


def _run_task(task):
    """One sweep point, in a worker process or in this one.

    The pool pickles this function by name; it looks `_run_single` up at
    call time, so a wrapper installed on the module attribute (a tracer)
    still runs, and need not itself be picklable.  The point runs with
    jobs=1: a sweep's points run their own criteria one after another, so
    a run starts at most one pool.
    """
    return _run_single(*task)


def _workers(jobs, count):
    """Processes to run `count` independent items in; 1 means this one.

    min(jobs, count, usable CPUs), but 1 when the BLAS pools were not sized
    from the environment (see the module docstring) or the platform has no
    fork.  `multiprocessing` is imported only when a pool may start.
    """
    workers = min(int(jobs), count, _usable_cpus())
    if workers < 2 or not _BLAS_THREADS_SET:
        return 1
    import multiprocessing
    return workers if "fork" in multiprocessing.get_all_start_methods() else 1


def _map(fn, items, jobs, what):
    """[fn(item) for item in items], in `_workers(jobs, len(items))` processes.

    `what` names the items in the error raised when a worker dies.
    """
    workers = _workers(jobs, len(items))
    if workers == 1:
        return [fn(item) for item in items]
    return _run_forked(fn, items, workers, what)


def _run_forked(fn, items, workers, what):
    """fn over items, in order, in forked worker processes."""
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool
    context = multiprocessing.get_context("fork")
    try:
        with ProcessPoolExecutor(workers, mp_context=context) as pool:
            return list(pool.map(fn, items))
    except BrokenProcessPool as exc:
        raise BranchedQError(f"{what} worker died: {exc}") from None


def _usable_cpus():
    """CPUs this process may run on: its affinity mask, where the OS has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def run_config(config, out_dir, jobs=1):
    """Execute a validated config; returns False when verification failed.

    Sweep points, or the criteria of a `verify` run, run in min(jobs,
    items, usable CPUs) forked worker processes, or one after another in
    this process when the BLAS pools were not sized from the environment
    (see the module docstring).  Each sweep point runs its own criteria
    one after another.
    """
    out_dir = Path(out_dir)
    sweep = config.get("sweep")
    if not sweep:
        return _run_single(_check_reads(config), out_dir, jobs)
    tasks = []
    for i, value in enumerate(sweep["values"]):
        sub = copy.deepcopy(config)
        del sub["sweep"]
        _set_dotted(sub, sweep["parameter"], value)
        validate_config(sub, source=f"sweep value {i}")
        tasks.append((_check_reads(sub, source=f"sweep value {i}: "),
                      out_dir / f"sweep-{i:03d}"))
    return all(_map(_run_task, tasks, jobs, "sweep"))


def emit_dispersion_curve(kappa, samples, v_min=-3.0, v_max=3.0,
                          path="dispersion.csv"):
    """Write the (xdot, p, E, branch) sweep tracing the momentum-energy curve."""
    law = DispersionLaw(kappa=float(kappa))
    data = velocity_sweep(law, float(v_min), float(v_max), int(samples))
    _write_columns(Path(path), ("xdot", "p", "E", "branch"),
                   "%.17g,%.17g,%.17g,%d\n",
                   [("", (data["xdot"], data["p"], data["E"], data["branch"]))])
    return Path(path)


# -- click wiring ---------------------------------------------------------------

def _execute(config_path, mode, jobs, seed, out):
    try:
        if config_path:
            config = load_config(config_path)
        elif mode == "verify":
            config = {"version": 1, "mode": "verify"}
        else:
            raise ConfigError("--config is required")
        if mode:
            config["mode"] = mode
        if seed is not None:
            config["seed"] = int(seed)
        stem = Path(config_path).stem if config_path else config["mode"]
        out_dir = Path(out or config.get("out") or f"{stem}-out")
        ok = run_config(config, out_dir,
                        _usable_cpus() if jobs is None else jobs)
    except ConfigError as exc:
        click.echo(f"config error: {exc}", err=True)
        sys.exit(2)
    except (BranchedQError, ValueError, np.linalg.LinAlgError) as exc:
        click.echo(f"numerical failure: {exc}", err=True)
        sys.exit(3)
    sys.exit(0 if ok else 3)


def _common(fn):
    fn = click.option("--out", default=None, help="Output directory.")(fn)
    fn = click.option("--seed", default=None, type=int,
                      help="Override the config seed.")(fn)
    fn = click.option("--jobs", default=None, type=click.IntRange(min=1),
                      help="Worker processes for sweep points and verify "
                           "criteria (default: the usable CPUs); the "
                           "results do not depend on it.")(fn)
    fn = click.option("--config", "config_path", default=None,
                      type=click.Path(), help="JSON experiment config.")(fn)
    return fn


@click.group()
def main():
    """Branched-Hamiltonian quantization toolkit."""


@main.command()
@_common
def run(config_path, jobs, seed, out):
    """Run a config-driven experiment in its config's mode."""
    _execute(config_path, None, jobs, seed, out)


def _mode_command(name, doc):
    @main.command(name=name, help=doc)
    @_common
    def _cmd(config_path, jobs, seed, out):
        _execute(config_path, name, jobs, seed, out)
    return _cmd


_mode_command("spectrum", "Solve an eigenvalue problem.")
_mode_command("evolve", "Propagate a wave packet.")
_mode_command("graph", "Count conditions and solve a metric graph.")
_mode_command("classical", "Integrate the classical flow.")
_mode_command("kernel", "Tabulate a convolution kernel.")
_mode_command("verify", "Run the acceptance suite.")


def _finite_velocity(ctx, param, value):
    """A velocity whose kinetic energy 0.75 * v**4 is a finite float
    (|v| below about 1.16e77): past it the curve's rows would hold inf
    and NaN."""
    if not math.isfinite(value):
        raise click.BadParameter(f"{value} is not a finite number")
    try:
        value**4
    except OverflowError:
        raise click.BadParameter(f"{value}: the energy 0.75 * v**4 "
                                 "overflows") from None
    return value


@main.command()
@click.option("--kappa", default=3.0, show_default=True)
@click.option("--samples", default=601, show_default=True,
              type=click.IntRange(min=1))
@click.option("--v-min", default=-3.0, show_default=True,
              callback=_finite_velocity)
@click.option("--v-max", default=3.0, show_default=True,
              callback=_finite_velocity)
@click.option("--out", default="dispersion.csv", show_default=True)
def dispersion(kappa, samples, v_min, v_max, out):
    """Emit the swallowtail (xdot, p, E, branch) curve as CSV."""
    try:
        emit_dispersion_curve(kappa, samples, v_min, v_max, out)
    except ValueError as exc:
        raise click.BadParameter(str(exc), param_hint="--kappa") from None
    click.echo(f"wrote {out}")


def console():
    """The process entry point: `branchedq` and `python -m branchedq.cli`.

    Moves the import heap to the permanent generation (gc.freeze), so the
    collections at interpreter exit skip it; see the module docstring.
    """
    gc.freeze()
    main()


if __name__ == "__main__":
    console()
