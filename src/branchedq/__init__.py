"""Quantization toolkit for classical systems with multivalued Hamiltonians.

A quartic velocity term with a destabilizing quadratic piece makes the
Legendre map non-invertible: momentum is a cubic in the velocity and the
Hamiltonian develops three branches joined at cusps.  This package covers
the classical side (branch geometry, cusped flows) and four quantum
realizations that agree where they overlap: folded single-wire stencils,
dual-wire junction operators, convolution kernels for decaying potentials,
and self-adjoint extensions on metric graphs.
"""

from .classical import (ClassicalState, Trajectory, energy, hamilton_rhs,
                        integrate_euler_lagrange, integrate_hamilton,
                        poisson_bracket)
from .dispersion import BranchedDomain, CuspData, DispersionLaw, velocity_sweep
from .errors import (BranchedQError, ConfigError, ConvergenceError,
                     DegeneracyError, FluxBalanceError,
                     IntegrationStalledError, NonHermitianError,
                     UnbranchedDispersionError)
from .evolution import (EvolutionReport, MultiWave, continuity_residual,
                        junction_flux_residual, probability_current,
                        propagate)
from .graphs import (GRAPH_LIBRARY, Edge, GraphLayout, HalfLine, MetricGraph,
                     VertexCondition, box_graph, compton_graph,
                     count_conditions, dump_graph, graph_hamiltonian,
                     load_graph, node_flux, star_graph,
                     star_secular_spectrum)
from .grids import FoldedGrid, LineGrid, PeriodicGrid
from .operators import (OperatorMatrix, StencilSymbol,
                        build_convolution_hamiltonian,
                        build_convolution_potential,
                        build_dual_wire_hamiltonian, build_folded_hamiltonian,
                        build_unfolded_hamiltonian,
                        fourier_conjugate_hamiltonian, hermiticity_defect)
from .potentials import (GaussianPotential, LorentzianPotential,
                         PotentialSpec, QuadraticPotential, QuarticPotential,
                         SampledPotential, SechSquaredPotential, has_kernel)
from .spectra import (EigenResult, newton_refine, solve_eigensystem,
                      stationarity_residual, subspace_overlap,
                      variance_minimize)

__version__ = "0.1.0"

__all__ = [
    "BranchedDomain", "BranchedQError", "ClassicalState", "ConfigError",
    "ConvergenceError", "CuspData", "DegeneracyError", "DispersionLaw",
    "Edge", "EigenResult", "EvolutionReport", "FluxBalanceError",
    "FoldedGrid", "GRAPH_LIBRARY", "GaussianPotential", "GraphLayout",
    "HalfLine", "IntegrationStalledError", "LineGrid",
    "LorentzianPotential", "MetricGraph", "MultiWave", "NonHermitianError",
    "OperatorMatrix", "PeriodicGrid", "PotentialSpec",
    "QuadraticPotential", "QuarticPotential", "SampledPotential",
    "SechSquaredPotential", "StencilSymbol", "Trajectory",
    "UnbranchedDispersionError", "VertexCondition", "box_graph",
    "build_convolution_hamiltonian", "build_convolution_potential",
    "build_dual_wire_hamiltonian", "build_folded_hamiltonian",
    "build_unfolded_hamiltonian", "compton_graph", "continuity_residual",
    "count_conditions", "dump_graph", "energy",
    "fourier_conjugate_hamiltonian", "graph_hamiltonian", "hamilton_rhs",
    "has_kernel", "hermiticity_defect", "integrate_euler_lagrange",
    "integrate_hamilton", "junction_flux_residual", "load_graph",
    "newton_refine", "node_flux", "poisson_bracket", "probability_current",
    "propagate", "solve_eigensystem", "star_graph", "star_secular_spectrum",
    "stationarity_residual", "subspace_overlap", "variance_minimize",
    "velocity_sweep",
]
