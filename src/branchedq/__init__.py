"""Quantization toolkit for classical systems with multivalued Hamiltonians.

A quartic velocity term with a destabilizing quadratic piece makes the
Legendre map non-invertible: momentum is a cubic in the velocity and the
Hamiltonian develops three branches joined at cusps.  This package covers
the classical side (branch geometry, cusped flows) and four quantum
realizations that agree where they overlap: folded single-wire stencils,
dual-wire junction operators, convolution kernels for decaying potentials,
and self-adjoint extensions on metric graphs.

The public names load their submodule on first access (PEP 562), so
``import branchedq`` alone imports no numpy: the command line front end
can still choose the BLAS thread count before numpy loads.
"""

import importlib

__version__ = "0.1.0"

# Public name -> submodule that defines it.
_EXPORTS = {name: module for module, names in {
    "classical": ("ClassicalState", "Trajectory", "energy", "hamilton_rhs",
                  "integrate_euler_lagrange", "integrate_hamilton",
                  "poisson_bracket"),
    "dispersion": ("DispersionLaw", "velocity_sweep"),
    "errors": ("BranchedQError", "ConfigError", "ConvergenceError",
               "DegeneracyError", "FluxBalanceError",
               "IntegrationStalledError", "NonHermitianError"),
    "evolution": ("EvolutionReport", "MultiWave", "continuity_residual",
                  "junction_flux_residual", "probability_current",
                  "propagate"),
    "graphs": ("GRAPH_LIBRARY", "Edge", "GraphLayout", "HalfLine",
               "MetricGraph", "VertexCondition", "box_graph",
               "compton_graph", "count_conditions", "dump_graph",
               "graph_hamiltonian", "load_graph", "node_flux", "star_graph",
               "star_secular_spectrum"),
    "grids": ("FoldedGrid", "LineGrid", "PeriodicGrid"),
    "operators": ("OperatorMatrix", "StencilSymbol",
                  "build_convolution_hamiltonian",
                  "build_convolution_potential",
                  "build_dual_wire_hamiltonian", "build_folded_hamiltonian",
                  "build_unfolded_hamiltonian",
                  "fourier_conjugate_hamiltonian", "hermiticity_defect"),
    "potentials": ("GaussianPotential", "LorentzianPotential",
                   "QuadraticPotential", "QuarticPotential",
                   "SampledPotential", "SechSquaredPotential", "has_kernel",
                   "potential_from_mapping"),
    "spectra": ("EigenResult", "newton_refine", "solve_eigensystem",
                "stationarity_residual", "subspace_overlap",
                "variance_minimize"),
}.items() for name in names}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value

