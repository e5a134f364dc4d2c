"""Metric graphs: condition counting, spectra, flux balance, and JSON IO.

Two exact identities anchor the discretization: the Dirichlet interval
reproduces the closed-form tridiagonal spectrum, and a path with a
degree-2 Kirchhoff vertex assembles the very same operator as the merged
interval (transparency), so their eigenvalues agree to roundoff.
"""

import json

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from branchedq import (Edge, FluxBalanceError, HalfLine, MetricGraph,
                       VertexCondition, box_graph, compton_graph,
                       count_conditions, graph_hamiltonian, load_graph,
                       solve_eigensystem, star_graph, star_secular_spectrum)
from branchedq.graphs import GraphLayout, graph_from_mapping


def per_entry_graph_assembly(graph, resolution, truncation=None):
    """Reference P1 assembly, one element end and one matrix entry at a time.

    Lines are meshed in order (edges, then half-lines) with their interior
    nodes first, then one slot per non-Dirichlet vertex of positive degree.
    Element i of a line adds h/2 |f|^2 to the lumped mass at both ends and,
    for each row end r and column end c, (conj(f_r) f_c) (+-alpha/h) plus,
    off the diagonal, (conj(f_r) f_c) (-+i beta/2) to the stiffness.
    Returns the dense mass-scaled matrix and the mass.
    """
    n = resolution
    lines = [(e.u, e.v, e.length, e.alpha, e.beta, ("edge", i))
             for i, e in enumerate(graph.edges)]
    lines += [(hl.vertex, None, truncation, hl.alpha, hl.beta, ("half", j))
              for j, hl in enumerate(graph.half_lines)]
    size = len(lines) * (n - 1)
    vslot = {}
    for v in graph.vertices:
        if graph.conditions[v].kind != "dirichlet" and graph.degree(v) > 0:
            vslot[v] = size
            size += 1
    kappa = {v: dict(zip([(k, i) for k, i, _ in graph.incidence(v)],
                         graph.vertex_kappa(v))) for v in graph.vertices}
    cplx = any(line[4] != 0.0 for line in lines) or any(
        complex(k).imag != 0.0 for kv in kappa.values() for k in kv.values())
    H = np.zeros((size, size), dtype=complex if cplx else float)
    mass = np.zeros(size)
    for j, (va, vb, length, alpha, beta, key) in enumerate(lines):
        h = length / n
        slots = [None] + [j * (n - 1) + m for m in range(n - 1)] + [None]
        f = np.ones(n + 1, dtype=complex)
        for local, v in ((0, va), (n, vb)):
            if v is not None and v in vslot:
                slots[local], f[local] = vslot[v], kappa[v][key]
            else:
                f[local] = 0.0
        w = np.abs(f) ** 2 * (h / 2.0)
        stiff, drift = alpha / h, -0.5j * beta
        for i in range(n):
            for r in (i, i + 1):
                if slots[r] is None:
                    continue
                mass[slots[r]] += w[r]
                for c in (i, i + 1):
                    if slots[c] is None:
                        continue
                    term = np.conj(f[r]) * f[c] * (stiff if r == c else -stiff)
                    if beta != 0.0 and r != c:
                        term = term + np.conj(f[r]) * f[c] * (
                            drift if c > r else -drift)
                    H[slots[r], slots[c]] += term if cplx else term.real
    root = np.sqrt(mass)
    return H / root[:, None] / root[None, :], mass


@st.composite
def metric_graphs(draw):
    """Random graphs with Dirichlet, Kirchhoff and weighted vertices,
    half-lines, optional complex kappa and balanced drift."""
    nv = draw(st.integers(2, 5))
    pairs = draw(st.lists(st.tuples(st.integers(0, nv - 1),
                                    st.integers(0, nv - 1))
                          .filter(lambda e: e[0] != e[1]),
                          min_size=1, max_size=6))
    anchors = draw(st.lists(st.integers(0, nv - 1), max_size=4))
    kinds = draw(st.lists(st.sampled_from(["kirchhoff", "weighted",
                                           "dirichlet"]),
                          min_size=nv, max_size=nv))
    complex_kappa, with_drift = draw(st.booleans()), draw(st.booleans())
    if with_drift:
        # Two half-lines at one vertex can carry opposite drift there.
        anchors += [draw(st.integers(0, nv - 1))] * 2
    size, signs = st.floats(0.5, 2.0), st.sampled_from([-1.0, 1.0])
    edges = [Edge(u, v, draw(size), draw(size)) for u, v in pairs]
    half = [HalfLine(v, draw(size)) for v in anchors]
    draft = MetricGraph(range(nv), edges, half)

    conditions, weight = {}, {}
    for v in range(nv):
        inc = draft.incidence(v)
        kind = kinds[v] if inc or kinds[v] != "weighted" else "kirchhoff"
        kap = [1.0] * len(inc)
        if kind == "weighted":
            kap = [draw(size) * (np.exp(1j * draw(st.floats(-3.0, 3.0)))
                                 if complex_kappa else draw(signs))
                   for _ in inc]
        conditions[v] = VertexCondition(kind, kap if kind == "weighted"
                                        else None)
        weight.update({(v, k, i): abs(kp) ** 2
                       for (k, i, _), kp in zip(inc, kap)})

    # A line with one non-Dirichlet end balances at that vertex only, so
    # each vertex's last such line takes the beta that zeroes its sum.
    beta = {}
    private = {}
    lines = [("edge", i, (e.u, e.v)) for i, e in enumerate(edges)]
    lines += [("half", j, (h.vertex,)) for j, h in enumerate(half)]
    for kind, i, ends in lines:
        live = [v for v in ends if conditions[v].kind != "dirichlet"]
        if len(live) == 1:
            private.setdefault(live[0], []).append((kind, i))
        beta[kind, i] = (draw(st.floats(0.1, 2.0)) * draw(signs)
                         if with_drift and len(live) < 2 else 0.0)
    for v, own in private.items():
        *rest, (kind, i) = own
        total = sum(beta[line] * weight[(v,) + line] for line in rest)
        beta[kind, i] = -total / weight[v, kind, i]
    edges = [Edge(e.u, e.v, e.length, e.alpha, beta["edge", i])
             for i, e in enumerate(edges)]
    half = [HalfLine(h.vertex, h.alpha, beta["half", j])
            for j, h in enumerate(half)]
    graph = MetricGraph(range(nv), edges, half, conditions=conditions)
    truncation = draw(size) if half else None
    return graph, draw(st.integers(5, 12)), truncation


@settings(max_examples=80, deadline=None)
@given(metric_graphs())
def test_graph_assembly_matches_per_entry_oracle(case):
    graph, resolution, truncation = case
    op = graph_hamiltonian(graph, resolution, truncation=truncation)
    H, mass = per_entry_graph_assembly(graph, resolution, truncation)
    assert op.matrix.dtype == H.dtype
    assert np.array_equal(op.matrix.toarray(), H)
    assert np.array_equal(op.grid.mass, mass)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 7), st.floats(0.1, 3.0), st.floats(0.0, 40.0))
def test_star_secular_roots_and_multiplicities(edge_count, length, k_max):
    quarter = 2.0 * k_max * length / np.pi
    # k_max within roundoff of a root makes its inclusion a coin toss.
    assume(abs(quarter - round(quarter)) > 1e-9)
    ks = star_secular_spectrum(edge_count, length, k_max)
    assert np.all(np.diff(ks) >= 0.0) and np.all((ks > 0.0) & (ks <= k_max))
    roots, mult = np.unique(ks, return_counts=True)
    # Distinct roots are the multiples j pi / (2 l) up to k_max.
    j = np.arange(1, int(quarter) + 1)
    np.testing.assert_allclose(roots, j * np.pi / (2.0 * length), rtol=1e-14)
    kl = roots * length
    assert np.all(np.abs(np.cos(kl) * np.sin(kl)) < 1e-13 * np.maximum(kl, 1.0))
    assert np.array_equal(mult, np.where(j % 2 == 1, 1, edge_count - 1))


def _interval(length=np.pi):
    return MetricGraph(
        ["a", "b"], [Edge("a", "b", length)],
        conditions={"a": VertexCondition("dirichlet"),
                    "b": VertexCondition("dirichlet")})


def test_condition_counting_frozen():
    assert count_conditions(compton_graph()) == (6, 4, 10, 10)
    assert count_conditions(box_graph()) == (12, 4, 16, 16)
    assert count_conditions(_interval()) == (2, 0, 2, 2)
    assert count_conditions(star_graph(3, 1.0)) == (6, 0, 6, 6)
    assert count_conditions(MetricGraph([], free_lines=1)) == (0, 2, 2, 2)


def test_counting_matches_constants_on_random_graphs():
    rng = np.random.default_rng(20260814)
    for _ in range(50):
        nv = int(rng.integers(1, 7))
        ids = list(range(nv))
        edges = []
        if nv >= 2:
            for _ in range(int(rng.integers(0, 8))):
                u, v = rng.choice(nv, size=2, replace=False)
                edges.append(Edge(int(u), int(v), float(rng.uniform(0.5, 2.0))))
        half = [HalfLine(int(rng.integers(0, nv)))
                for _ in range(int(rng.integers(0, 4)))]
        g = MetricGraph(ids, edges, half, free_lines=int(rng.integers(0, 3)))
        node, infinity, total, constants = count_conditions(g)
        assert total == node + infinity
        assert total == constants


def test_interval_spectrum_closed_form():
    n = 40
    op = graph_hamiltonian(_interval(np.pi), n)
    assert op.matrix.dtype == np.float64
    res = solve_eigensystem(op)
    h = np.pi / n
    m = np.arange(1, n)
    exact = (2.0 - 2.0 * np.cos(m * np.pi / n)) / h**2
    assert np.max(np.abs(res.eigenvalues - exact)) < 1e-10 * exact[-1]


def test_degree_two_kirchhoff_is_transparent():
    path = MetricGraph(
        ["a", "m", "b"],
        [Edge("a", "m", 0.5), Edge("m", "b", 0.5)],
        conditions={"a": VertexCondition("dirichlet"),
                    "b": VertexCondition("dirichlet")})
    merged = _interval(1.0)
    ep = solve_eigensystem(graph_hamiltonian(path, 30)).eigenvalues
    em = solve_eigensystem(graph_hamiltonian(merged, 60)).eigenvalues
    assert ep.size == em.size
    assert np.max(np.abs(ep - em)) < 1e-9 * max(1.0, np.max(np.abs(em)))


def test_star_spectrum_against_secular_oracle():
    graph = star_graph(3, 1.0)
    op = graph_hamiltonian(graph, 300)
    res = solve_eigensystem(op, k=6)
    ks = star_secular_spectrum(3, 1.0, 7.0)
    # pi/2, pi, pi, 3pi/2, 2pi, 2pi with the sin modes doubly degenerate
    assert np.allclose(ks, [np.pi / 2, np.pi, np.pi,
                            1.5 * np.pi, 2 * np.pi, 2 * np.pi], atol=1e-9)
    exact = np.square(ks)
    assert np.max(np.abs(res.eigenvalues - exact)) < 5e-3 * exact[-1]
    # discrete symmetry keeps the degenerate pairs exactly paired
    assert abs(res.eigenvalues[1] - res.eigenvalues[2]) < 1e-9
    assert abs(res.eigenvalues[4] - res.eigenvalues[5]) < 1e-9


# 5-point one-sided first derivative at an end node, pointing away from it.
_FLUX_EDGE = np.array([-25.0, 48.0, -36.0, 16.0, -3.0]) / 12.0


def _node_flux(psi, vertex, op):
    """Weighted inward flux sum_mu alpha_mu conj(kappa_mu) psi_mu' at a vertex.

    Edge values are the mass-scaled entries of psi times the chain's
    endpoint factors, whose value at the vertex is its kappa.  Each
    derivative is the 5-point one-sided stencil along an incident chain.
    """
    layout = op.grid
    slot = layout.vertex_slot[vertex]
    scaled = psi / np.sqrt(layout.mass)
    flux = 0.0
    for c in layout.chains:
        for end, local in ((0, np.arange(5)), (c.n, c.n - np.arange(5))):
            if c.slots[end] == slot:
                values = c.factors[local] * scaled[c.slots[local]]
                outward = (_FLUX_EDGE @ values) / c.h
                flux += c.alpha * np.conj(c.factors[end]) * (-outward)
    return flux


def test_node_flux_vanishes_on_eigenstates():
    graph = star_graph(3, 1.0)
    op = graph_hamiltonian(graph, 200)
    res = solve_eigensystem(op, k=4)
    for i in range(4):
        psi = res.eigenvectors[:, i]
        scale = np.sqrt(res.eigenvalues[i])
        assert abs(_node_flux(psi, "c", op)) < 1e-5 * max(scale, 1.0)


def test_half_line_graphs_need_truncation():
    with pytest.raises(ValueError):
        graph_hamiltonian(compton_graph(), 20)
    op = graph_hamiltonian(compton_graph(), 20, truncation=6.0)
    H = op.matrix
    assert np.max(np.abs(H - H.conj().T)) < 1e-12 * np.max(np.abs(H))


def test_drift_requires_flux_balance():
    lop = MetricGraph(
        ["a", "c", "b"],
        [Edge("a", "c", 1.0, 1.0, 0.7), Edge("c", "b", 1.0, 1.0, -0.7)],
        conditions={"a": VertexCondition("dirichlet"),
                    "b": VertexCondition("dirichlet")})
    op = graph_hamiltonian(lop, 40)
    assert op.matrix.dtype == complex
    H = op.matrix
    assert np.max(np.abs(H - H.conj().T)) < 1e-13 * np.max(np.abs(H))

    # A star whose three edges all drift outward leaves its centre unbalanced.
    tips = ["t0", "t1", "t2"]
    with pytest.raises(FluxBalanceError):
        graph_hamiltonian(MetricGraph(
            ["c"] + tips, [Edge("c", t, 1.0, 1.0, 0.5) for t in tips],
            conditions={t: VertexCondition("dirichlet") for t in tips}), 40)


def test_weighted_matching_with_balanced_drift():
    """beta = (1, 1, -1) with kappa = (1, 1, sqrt(2)) balances exactly."""
    kappa = (1.0, 1.0, np.sqrt(2.0))
    graph = MetricGraph(
        ["c", "t0", "t1", "t2"],
        [Edge("c", f"t{i}", 1.0, 1.0, b) for i, b in enumerate((1.0, 1.0, -1.0))],
        conditions={"c": VertexCondition("weighted", kappa),
                    "t0": VertexCondition("dirichlet"),
                    "t1": VertexCondition("dirichlet"),
                    "t2": VertexCondition("dirichlet")})
    op = graph_hamiltonian(graph, 60)
    H = op.matrix
    assert np.max(np.abs(H - H.conj().T)) < 1e-12 * np.max(np.abs(H))


def test_vertex_condition_validation():
    with pytest.raises(ValueError):
        VertexCondition("weighted")          # needs kappa
    with pytest.raises(ValueError):
        VertexCondition("kirchhoff", kappa=(1.0, 2.0))
    with pytest.raises(ValueError):
        MetricGraph(["a", "a"])
    with pytest.raises(ValueError):
        MetricGraph(["a"], [Edge("a", "zzz", 1.0)])
    with pytest.raises(ValueError):
        MetricGraph(["a"], [Edge("a", "a", 1.0)])
    with pytest.raises(ValueError):
        MetricGraph(["a", "b"], [Edge("a", "b", -1.0)])


def test_layout_rejects_free_lines_and_low_resolution():
    with pytest.raises(ValueError):
        GraphLayout(MetricGraph([], free_lines=1), 20)
    with pytest.raises(ValueError):
        GraphLayout(_interval(), 4)


def test_json_round_trip(tmp_path):
    graph = compton_graph(1.5)
    doc = {"version": 1,
           "vertices": [{"id": "L", "condition": {"type": "kirchhoff"}},
                        {"id": "R"}],
           "edges": [{"u": "L", "v": "R", "length": 1.5}],
           "half_lines": [{"vertex": v} for v in "LLRR"]}
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(doc))
    for back in (graph_from_mapping(doc), load_graph(path)):
        assert back.vertices == graph.vertices
        assert back.edges == graph.edges
        assert back.half_lines == graph.half_lines
        assert back.conditions == graph.conditions
        assert count_conditions(back) == count_conditions(graph)


def test_json_schema_rejects_malformed_documents():
    with pytest.raises(ValueError, match=r"^\$\.vertices: 'oops' is not of type 'array'$"):
        graph_from_mapping({"version": 1, "vertices": "oops"})


def test_secular_star_needs_two_edges():
    with pytest.raises(ValueError):
        star_secular_spectrum(1, 1.0, 5.0)
