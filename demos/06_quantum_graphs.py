"""Quantum mechanics on metric graphs: counting and spectra.

A wire network carries one second-order problem per edge, so each edge
contributes two disposable constants.  Vertex conditions (value
matching plus a weighted derivative-flux balance) and decay conditions
at infinity must consume exactly that many.  The counting is checked on
two library graphs, then an equilateral three-star is solved by finite
differences and compared against its transcendental secular equation,
whose sin/cos factorization fixes the multiplicity pattern.
"""

import numpy as np

from branchedq import (Edge, MetricGraph, VertexCondition, count_conditions,
                       graph_hamiltonian, solve_eigensystem, star_graph,
                       star_secular_spectrum)
from branchedq.graphs import GRAPH_LIBRARY

print("condition counting (conditions must equal disposable constants):")
for name in ("compton", "box"):
    g = GRAPH_LIBRARY[name]()
    node, inf, total, const = count_conditions(g)
    print(f"  {name:8s}: {node} node + {inf} infinity = {total} conditions, "
          f"{const} constants")

star = star_graph(3, 1.0)
op = graph_hamiltonian(star, 600)
levels = solve_eigensystem(op, k=6).eigenvalues
oracle = star_secular_spectrum(3, 1.0, 7.0)[:6]

print()
print("equilateral 3-star, Dirichlet tips, Kirchhoff center:")
print(" n   k (finite diff)   k (secular)   |diff|")
for n, (e, k) in enumerate(zip(levels, oracle)):
    k_fd = np.sqrt(abs(e))
    print(f" {n}   {k_fd:.8f}        {k:.8f}    {abs(k_fd - k):.1e}")
print("  (sin kl = 0 roots appear twice: the doublets above)")

# A degree-2 Kirchhoff vertex is invisible: a path of two half-length
# edges has the spectrum of the merged interval.
path = MetricGraph(
    ["a", "m", "b"],
    [Edge("a", "m", 0.5), Edge("m", "b", 0.5)],
    conditions={"a": VertexCondition("dirichlet"),
                "b": VertexCondition("dirichlet")})
merged = MetricGraph(
    ["a", "b"], [Edge("a", "b", 1.0)],
    conditions={"a": VertexCondition("dirichlet"),
                "b": VertexCondition("dirichlet")})
wp = solve_eigensystem(graph_hamiltonian(path, 40), k=4).eigenvalues
wm = solve_eigensystem(graph_hamiltonian(merged, 80), k=4).eigenvalues
print()
print("degree-2 Kirchhoff transparency (same h on both discretizations):")
print(f"  max eigenvalue gap {np.max(np.abs(wp - wm)):.2e}")
