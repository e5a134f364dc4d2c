"""Quantum mechanics on metric graphs: wires carrying -a d^2/dx^2 - i b d/dx
joined at vertices by value and flux matching.

At a weighted vertex the incident edge values lock to kappa_mu times one
shared vertex amplitude, and the weighted flux sum
sum_mu alpha_mu conj(kappa_mu) psi_mu' (inward) vanishes.  Kirchhoff is
kappa = 1 with drift-free edges.  The discretization assembles piecewise
linear elements with a lumped mass matrix: the constrained basis bakes the
value matching in exactly, the symmetrized drift form keeps the matrix
Hermitian unconditionally, and consistency of that Hermitian matrix with
the intended differential operator is precisely the balance constraint
sum_mu beta_mu |kappa_mu|^2 = 0, which is validated and enforced here.

Condition counting follows the wire picture directly: a degree-d vertex
supplies d conditions (d-1 matchings plus one flux), each semi-infinite
end supplies one decay condition, and each line owns two disposable
constants, so conditions and constants balance on Kirchhoff networks.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse

from .errors import FluxBalanceError
from .operators import OperatorMatrix
from .schema import check, check_schema, parse_json


@dataclass(frozen=True)
class Edge:
    """Finite edge between two vertices; kinetic form alpha p^2 + beta p."""

    u: object
    v: object
    length: float
    alpha: float = 1.0
    beta: float = 0.0


@dataclass(frozen=True)
class HalfLine:
    """Semi-infinite edge anchored at one vertex."""

    vertex: object
    alpha: float = 1.0
    beta: float = 0.0


@dataclass(frozen=True)
class VertexCondition:
    """kirchhoff | weighted (kappa per incident line, incidence order) |
    dirichlet."""

    kind: str = "kirchhoff"
    kappa: tuple = None

    def __post_init__(self):
        if self.kind not in ("kirchhoff", "weighted", "dirichlet"):
            raise ValueError(f"unknown vertex condition {self.kind!r}")
        if self.kind == "weighted":
            if self.kappa is None or len(self.kappa) == 0:
                raise ValueError("weighted condition needs kappa coefficients")
            object.__setattr__(self, "kappa", tuple(complex(k) for k in self.kappa))
        elif self.kappa is not None:
            raise ValueError(f"{self.kind} condition takes no kappa list")


class MetricGraph:
    """Vertices, finite edges, half-lines, and loose free lines.

    conditions maps vertex id to a VertexCondition; unmapped vertices are
    Kirchhoff.  Incidence order at a vertex (the order kappa lists follow)
    is finite edges in list order, each endpoint separately, then
    half-lines in list order.  free_lines counts lines with two infinite
    ends and no vertex; they only participate in condition counting.
    """

    def __init__(self, vertices, edges=(), half_lines=(), free_lines=0,
                 conditions=None):
        self.vertices = list(vertices)
        vset = set(self.vertices)
        if len(vset) != len(self.vertices):
            raise ValueError("duplicate vertex ids")
        self.edges = list(edges)
        self.half_lines = list(half_lines)
        if not (all(isinstance(e, Edge) for e in self.edges)
                and all(isinstance(h, HalfLine) for h in self.half_lines)):
            raise TypeError("edges must be Edge and half_lines HalfLine objects")
        self.free_lines = int(free_lines)
        for e in self.edges:
            if e.u not in vset or e.v not in vset:
                raise ValueError(f"dangling edge {e.u!r}-{e.v!r}: endpoint "
                                 "not a declared vertex")
            if e.u == e.v:
                raise ValueError("self-loops are not supported")
            if not e.length > 0.0:
                raise ValueError("edge lengths must be positive")
        for hl in self.half_lines:
            if hl.vertex not in vset:
                raise ValueError(f"dangling half-line at {hl.vertex!r}")
        self.conditions = {v: VertexCondition() for v in self.vertices}
        if conditions:
            for v, c in conditions.items():
                if v not in vset:
                    raise ValueError(f"condition for unknown vertex {v!r}")
                self.conditions[v] = c
        for v in self.vertices:
            self._check_condition(v)

    def incidence(self, v):
        """Incident (kind, index, end) triples in canonical order."""
        out = []
        for i, e in enumerate(self.edges):
            if e.u == v:
                out.append(("edge", i, 0))
            if e.v == v:
                out.append(("edge", i, 1))
        for j, hl in enumerate(self.half_lines):
            if hl.vertex == v:
                out.append(("half", j, 0))
        return out

    def degree(self, v):
        return len(self.incidence(v))

    def _line(self, kind, index):
        return self.edges[index] if kind == "edge" else self.half_lines[index]

    def vertex_kappa(self, v):
        """kappa per incident line (1.0 for kirchhoff and dirichlet)."""
        cond = self.conditions[v]
        inc = self.incidence(v)
        if cond.kind == "weighted":
            if len(cond.kappa) != len(inc):
                raise ValueError(
                    f"vertex {v!r}: {len(cond.kappa)} kappa values for "
                    f"{len(inc)} incident lines")
            return list(cond.kappa)
        return [1.0] * len(inc)

    def _check_condition(self, v):
        cond = self.conditions[v]
        if cond.kind == "dirichlet":
            return
        inc = self.incidence(v)
        if not inc:
            return
        kappa = self.vertex_kappa(v)
        balance = sum(self._line(k, i).beta * abs(kp) ** 2
                      for (k, i, _), kp in zip(inc, kappa))
        scale = sum(abs(self._line(k, i).beta) * abs(kp) ** 2
                    for (k, i, _), kp in zip(inc, kappa))
        if abs(balance) > 1e-12 * max(scale, 1e-300):
            raise FluxBalanceError(
                f"vertex {v!r} violates the drift balance: "
                f"sum beta |kappa|^2 = {balance:.6g} (must vanish for the "
                "discrete operator to match the vertex conditions)")

    def __repr__(self):
        return (f"MetricGraph({len(self.vertices)} vertices, "
                f"{len(self.edges)} edges, {len(self.half_lines)} half-lines"
                + (f", {self.free_lines} free lines" if self.free_lines else "")
                + ")")


def count_conditions(graph):
    """(node, infinity, total, disposable constants).

    A degree-d vertex carries d conditions; every semi-infinite end one;
    every line (edge, half-line, or free line) two solution constants.
    """
    node = sum(graph.degree(v) for v in graph.vertices)
    infinity = len(graph.half_lines) + 2 * graph.free_lines
    lines = len(graph.edges) + len(graph.half_lines) + graph.free_lines
    return node, infinity, node + infinity, 2 * lines


# -- discretization -----------------------------------------------------------

@dataclass
class _Chain:
    """One meshed line: local nodes 0..n, global slots, endpoint factors."""

    n: int
    h: float
    alpha: float
    beta: float
    slots: np.ndarray = field(repr=False)
    factors: np.ndarray = field(repr=False)


def _cmul(x, y):
    """Complex product by the textbook formula, one rounding per operation.

    numpy's vectorized complex multiply may fuse multiply-adds, which
    leaves conj(f) * f with a roundoff imaginary part; this form keeps it
    exactly real and rounds like a scalar complex product.
    """
    out = np.empty(np.broadcast(x, y).shape, dtype=complex)
    out.real = x.real * y.real - x.imag * y.imag
    out.imag = x.real * y.imag + x.imag * y.real
    return out


def _element_ends(n):
    """Local end nodes (i, i + 1) of a chain's n P1 elements, shape (n, 2)."""
    return np.arange(n)[:, None] + np.arange(2)


# Shortest element length.  A P1 element of length h puts its stiffness over
# its lumped mass, 2 alpha / h**2, into the matrix: at 1e-150 that is 2e300
# for alpha 1, so a shorter element would overflow the assembly.
_MIN_ELEMENT = 1e-150


class GraphLayout:
    """Mesh bookkeeping for a discretized graph.

    Interior nodes of every line come first, then one slot per
    non-Dirichlet vertex.  Physical edge values are the mass-scaled
    entries of an eigenvector times the endpoint kappa factors.
    """

    def __init__(self, graph, resolution, truncation=None):
        if resolution < 5:
            raise ValueError("resolution must be at least 5 intervals per edge")
        if graph.half_lines and truncation is None:
            raise ValueError("graphs with half-lines need a truncation length")
        if graph.free_lines:
            raise ValueError("free lines have no vertices to mesh against")
        if not graph.edges and not graph.half_lines:
            raise ValueError("graph has no edges or half-lines to mesh")
        # Norms of mass-scaled vectors are plain sums; no grid spacing.
        self.h = 1.0
        kappa = {
            v: dict(zip([(k, i) for k, i, _ in graph.incidence(v)],
                        graph.vertex_kappa(v)))
            for v in graph.vertices}

        n = int(resolution)
        lines = [("edge", i, e.u, e.v, e.length, e.alpha, e.beta)
                 for i, e in enumerate(graph.edges)]
        lines += [("half", j, hl.vertex, None, truncation, hl.alpha, hl.beta)
                  for j, hl in enumerate(graph.half_lines)]
        shortest = min(line[4] for line in lines) / n
        if not shortest >= _MIN_ELEMENT:
            raise ValueError(f"element length {shortest:g} (line length / "
                             f"resolution) is below {_MIN_ELEMENT:g}, where "
                             "the stiffness 2/h**2 overflows")
        cursor = len(lines) * (n - 1)
        self.vertex_slot = {}
        for v in graph.vertices:
            if graph.conditions[v].kind != "dirichlet" and graph.degree(v) > 0:
                self.vertex_slot[v] = cursor
                cursor += 1
        self.size = cursor

        self.chains = []
        for j, (kind, idx, va, vb, length, alpha, beta) in enumerate(lines):
            slots = np.empty(n + 1, dtype=int)
            factors = np.ones(n + 1, dtype=complex)
            slots[1:n] = j * (n - 1) + np.arange(n - 1)
            for local, v in ((0, va), (n, vb)):
                if v is not None and v in self.vertex_slot:
                    slots[local] = self.vertex_slot[v]
                    factors[local] = kappa[v][(kind, idx)]
                else:
                    slots[local] = -1
                    factors[local] = 0.0
            self.chains.append(_Chain(n, length / n, alpha, beta, slots,
                                      factors))

        # Lumped mass: each element adds h/2 |factor|^2 at both ends.
        self.mass = np.zeros(self.size)
        for c in self.chains:
            w = np.abs(c.factors) ** 2 * (c.h / 2.0)
            ends = _element_ends(c.n).ravel()
            ends = ends[c.slots[ends] >= 0]
            np.add.at(self.mass, c.slots[ends], w[ends])


def graph_hamiltonian(graph, resolution, truncation=None):
    """Hermitian graph Hamiltonian by constrained P1 elements, lumped mass,
    stored as a sparse CSR array.

    resolution is the interval count per line; half-lines are cut to
    `truncation` with Dirichlet caps.  The drift balance
    sum beta |kappa|^2 = 0 is validated per vertex (by MetricGraph) and
    violations are rejected with the computed imbalance.
    """
    layout = GraphLayout(graph, resolution, truncation)
    # Drift-free graphs with real weights assemble real symmetric, which
    # halves memory and lets the eigensolvers take the real path.  A
    # weighted vertex always has a slot, so the factors hold every weight.
    complex_needed = any(c.beta != 0.0 or np.any(c.factors.imag)
                         for c in layout.chains)
    dtype = complex if complex_needed else float
    rows, cols, vals = [], [], []
    for c in layout.chains:
        # Element i, then row end a, then column end b: the order a loop
        # over elements adds the 2 x 2 element matrices in.
        ends = _element_ends(c.n)
        a = np.repeat(ends, 2, axis=1).ravel()
        b = np.tile(ends, 2).ravel()
        live = (c.slots[a] >= 0) & (c.slots[b] >= 0)
        a, b = a[live], b[live]
        pair = _cmul(np.conj(c.factors[a]), c.factors[b])
        stiff = c.alpha / c.h
        term = _cmul(pair, np.where(a == b, stiff, -stiff).astype(complex))
        if c.beta != 0.0:
            drift = -0.5j * c.beta
            off = a != b
            term[off] += _cmul(pair[off],
                               np.where(b[off] > a[off], drift, -drift))
        rows.append(c.slots[a])
        cols.append(c.slots[b])
        vals.append(term if dtype is complex else term.real)
    # Duplicates accumulate in element order (np.add.at is unbuffered), so
    # every entry is the same floating-point sum a dense += would form.
    n = layout.size
    keys, slot = np.unique(np.concatenate(rows) * n + np.concatenate(cols),
                           return_inverse=True)
    data = np.zeros(keys.size, dtype=dtype)
    np.add.at(data, slot, np.concatenate(vals))
    row, col = np.divmod(keys, n)
    root = np.sqrt(layout.mass)
    data /= root[row]
    data /= root[col]
    A = scipy.sparse.csr_array((data, (row, col)), shape=(n, n))
    return OperatorMatrix(A, layout)


# -- analytic oracle and library ----------------------------------------------

def star_secular_spectrum(edge_count, length, k_max):
    """Wavenumbers of the equilateral Dirichlet-tip Kirchhoff star, up to k_max.

    The secular equation factors into cos(k l) sin(k l)^(edge_count - 1)
    = 0: the simple symmetric modes (m + 1/2) pi / l and the modes
    m pi / l (m >= 1) of multiplicity edge_count - 1.  Returned sorted
    with repeats.
    """
    if edge_count < 2:
        raise ValueError("a star needs at least two edges")
    m = np.arange(int(k_max * length / np.pi) + 1)
    ks = np.concatenate([(m + 0.5) * np.pi / length,
                         np.repeat(m[1:] * np.pi / length, edge_count - 1)])
    return np.sort(ks[ks <= k_max])


def star_graph(edge_count, length):
    """Equilateral star: Kirchhoff center, Dirichlet tips."""
    tips = [f"t{i}" for i in range(edge_count)]
    edges = [Edge("c", t, length) for t in tips]
    conditions = {t: VertexCondition("dirichlet") for t in tips}
    return MetricGraph(["c"] + tips, edges, conditions=conditions)


def compton_graph(edge_length=1.0):
    """Two internal vertices joined by one edge, two half-lines each:
    five lines total."""
    return MetricGraph(
        ["L", "R"],
        [Edge("L", "R", edge_length)],
        [HalfLine("L"), HalfLine("L"), HalfLine("R"), HalfLine("R")])


def box_graph(edge_length=1.0):
    """Four vertices in a cycle, one half-line per vertex: eight lines."""
    ids = [0, 1, 2, 3]
    edges = [Edge(i, (i + 1) % 4, edge_length) for i in ids]
    return MetricGraph(ids, edges, [HalfLine(i) for i in ids])


GRAPH_LIBRARY = {"compton": compton_graph, "box": box_graph}


# -- file format ---------------------------------------------------------------

# A kappa entry is a real number or a [re, im] pair.
_KAPPA_ITEM = {"type": ["number", "array"], "items": {"type": "number"},
               "minItems": 2, "maxItems": 2}

GRAPH_SCHEMA = {
    "type": "object",
    "required": ["version", "vertices"],
    "properties": {
        "version": {"const": 1},
        "vertices": {"type": "array", "items": {
            "type": "object",
            "required": ["id"],
            "properties": {
                "id": {"type": ["string", "integer"]},
                "condition": {"type": "object",
                              "required": ["type"],
                              "properties": {
                                  "type": {"enum": ["kirchhoff", "weighted",
                                                    "dirichlet"]},
                                  "kappa": {"type": "array",
                                            "items": _KAPPA_ITEM}}},
            }}},
        "edges": {"type": "array", "items": {
            "type": "object",
            "required": ["u", "v", "length"],
            "properties": {"u": {"type": ["string", "integer"]},
                           "v": {"type": ["string", "integer"]},
                           "length": {"type": "number"},
                           "alpha": {"type": "number"},
                           "beta": {"type": "number"}}}},
        "half_lines": {"type": "array", "items": {
            "type": "object",
            "required": ["vertex"],
            "properties": {"vertex": {"type": ["string", "integer"]},
                           "alpha": {"type": "number"},
                           "beta": {"type": "number"}}}},
        "free_lines": {"type": "integer", "minimum": 0},
    },
}
check_schema(GRAPH_SCHEMA)


def _kappa_from_json(values):
    return tuple(complex(*v) if isinstance(v, list) else complex(v)
                 for v in values)


def graph_from_mapping(doc):
    """Build a MetricGraph from the versioned mapping format.

    A document that breaks GRAPH_SCHEMA raises schema.SchemaViolation, a
    ValueError whose text is '$.path: message'.
    """
    check(doc, GRAPH_SCHEMA)
    vertices = []
    conditions = {}
    for entry in doc["vertices"]:
        vid = entry["id"]
        vertices.append(vid)
        cond = entry.get("condition")
        if cond:
            kappa = cond.get("kappa")
            conditions[vid] = VertexCondition(
                cond["type"],
                _kappa_from_json(kappa) if kappa is not None else None)
    edges = [Edge(e["u"], e["v"], e["length"], e.get("alpha", 1.0),
                  e.get("beta", 0.0)) for e in doc.get("edges", [])]
    half = [HalfLine(h["vertex"], h.get("alpha", 1.0), h.get("beta", 0.0))
            for h in doc.get("half_lines", [])]
    return MetricGraph(vertices, edges, half, doc.get("free_lines", 0),
                       conditions)


def load_graph(path):
    with open(path) as fh:
        return graph_from_mapping(parse_json(fh.read()))
