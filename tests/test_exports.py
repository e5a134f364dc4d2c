"""Every public name of `branchedq` has a reader in the package or a demo,
and the settings of the public API are pinned.

A name that only tests call is dead API: it grows the surface to keep
working without serving the command line, a criterion or a demo.  Readers
are found in the syntax trees of the package modules (not `__init__.py`,
which lists the names) and the demo scripts.  A load of a name or an
attribute counts, and so does an import; strings and docstrings do not.
"""

import ast
import inspect
import re
from pathlib import Path

import branchedq
from branchedq import cli

_ROOT = Path(__file__).resolve().parents[1]
_READERS = sorted(set((_ROOT / "src" / "branchedq").glob("*.py"))
                  - {_ROOT / "src" / "branchedq" / "__init__.py"}) \
    + sorted((_ROOT / "demos").glob("*.py"))


def _names_read(path):
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update(node.name.split("."))
    return names


def test_every_public_name_has_a_reader():
    assert len(_READERS) > 7
    read = set().union(*map(_names_read, _READERS))
    assert sorted(set(branchedq.__all__) - read) == []


# The settings of the public API: every callable in `branchedq.__all__`
# with its parameters and defaults, and every click command with its
# options and defaults (or "required").  A change that adds or drops a
# setting, or moves a default, edits this table.  An exception takes its
# message only.
API_SETTINGS = {
    "BranchedQError": "(message)",
    "ClassicalState": "(x, xdot, t=0.0)",
    "ConfigError": "(message)",
    "ConvergenceError": "(message)",
    "DegeneracyError": "(message)",
    "DispersionLaw": "(kappa=3.0)",
    "Edge": "(u, v, length, alpha=1.0, beta=0.0)",
    "EigenResult": "(eigenvalues, eigenvectors, residuals, solver='eigh')",
    "EvolutionReport": "(times, norms, energies, flux_residuals, snapshots, "
                       "snapshot_times, solver)",
    "FluxBalanceError": "(message)",
    "FoldedGrid": "(law, n_inner, n_arm)",
    "GaussianPotential": "(amplitude=1.0, width=1.0, center=0.0)",
    "HalfLine": "(vertex, alpha=1.0, beta=0.0)",
    "IntegrationStalledError": "(message)",
    "LineGrid": "(x_min, x_max, n)",
    "LorentzianPotential": "(amplitude=1.0, width=1.0, center=0.0)",
    "MetricGraph": "(vertices, edges=(), half_lines=(), free_lines=0, "
                   "conditions=None)",
    "NonHermitianError": "(message)",
    "OperatorMatrix": "(matrix, grid, symbol=None)",
    "PeriodicGrid": "(x_min, x_max, n)",
    "QuadraticPotential": "(alpha=1.0)",
    "QuarticPotential": "(alpha=0.0, beta=0.0, gamma=0.0)",
    "SampledPotential": "(x, values)",
    "SechSquaredPotential": "(amplitude=1.0, width=1.0, center=0.0)",
    "StencilSymbol": "(c4=0.0, c3=0.0, c2=0.0, c1=0.0)",
    "Trajectory": "(t, x, xdot, momentum, energy, branch, event_flag, "
                  "events=<factory>, status='completed', stats=<factory>)",
    "VertexCondition": "(kind='kirchhoff', kappa=None)",
    "box_graph": "(edge_length=1.0)",
    "build_convolution_hamiltonian": "(law, V, grid, mode='hermitian')",
    "build_convolution_potential": "(V, grid, mode='hermitian', domain=None)",
    "build_dual_wire_hamiltonian": "(kinetic, W, grid, accuracy=2)",
    "build_folded_hamiltonian": "(law, grid, V=None, accuracy=2, "
                                "flip_reversed_branch=True)",
    "build_unfolded_hamiltonian": "(law, grid, V=None, accuracy=2)",
    "compton_graph": "(edge_length=1.0)",
    "continuity_residual": "(op, psi_before, psi_after, dt)",
    "count_conditions": "(graph)",
    "energy": "(state, law, potential=None)",
    "fourier_conjugate_hamiltonian": "(law, V, grid)",
    "gaussian_packet": "(grid, center, width, boost=0.0)",
    "graph_hamiltonian": "(graph, resolution, truncation=None)",
    "has_kernel": "(potential)",
    "hermiticity_defect": "(H)",
    "integrate_euler_lagrange": "(state0, end_time, law, potential=None, *, "
                                "tol=1e-12, t_eval=None)",
    "integrate_hamilton": "(state0, end_time, law, potential=None, *, "
                          "tol=1e-12, policy='halt', seed=None, "
                          "max_events=32, t_eval=None)",
    "junction_flux_residual": "(psi, grid, symbol)",
    "load_graph": "(path)",
    "newton_refine": "(op, psi0, tol=1e-10)",
    "potential_from_mapping": "(mapping)",
    "probability_current": "(psi, h, symbol)",
    "propagate": "(op, psi0, dt, steps, snapshot_every=None, "
                 "stability_budget=0.5)",
    "solve_eigensystem": "(op, k=None)",
    "star_graph": "(edge_count, length)",
    "star_secular_spectrum": "(edge_count, length, k_max)",
    "stationarity_residual": "(op, psi)",
    "variance_minimize": "(op, psi0, tol=1e-10)",
    "velocity_sweep": "(law, v_min, v_max, num)",
}
CLI_SETTINGS = {
    "run": ["--config=required", "--jobs=None", "--out=None"],
    "verify": ["--jobs=None", "--out=None"],
    "dispersion": ["--kappa=3.0", "--samples=601", "--v-min=-3.0",
                   "--v-max=3.0", "--out='dispersion.csv'"],
}


def _settings(obj):
    if isinstance(obj, type) and issubclass(obj, BaseException):
        assert not any("__init__" in vars(c) or "__new__" in vars(c)
                       for c in obj.__mro__
                       if c.__module__.startswith("branchedq")), obj
        return "(message)"
    sig = inspect.signature(obj)
    return str(sig.replace(
        parameters=[p.replace(annotation=p.empty)
                    for p in sig.parameters.values()],
        return_annotation=sig.empty))


def test_public_settings_are_pinned():
    got = {name: _settings(getattr(branchedq, name))
           for name in branchedq.__all__
           if callable(getattr(branchedq, name))}
    assert got == API_SETTINGS


def test_command_options_are_pinned():
    got = {name: [f"{p.opts[0]}="
                  + ("required" if p.required else repr(p.default))
                  for p in command.params]
           for name, command in cli.main.commands.items()}
    assert got == CLI_SETTINGS


def _usage_lines():
    """The `branchedq ...` lines of README's usage block: the first shell
    block under "## Command line"."""
    readme = (_ROOT / "README.md").read_text()
    section = readme.split("\n## Command line\n", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    return [line.split() for line in block.splitlines()
            if line.startswith("branchedq ")]


def test_readme_usage_names_only_declared_options():
    lines = _usage_lines()
    assert sorted(words[1] for words in lines) == sorted(cli.main.commands)
    for words in lines:
        command = cli.main.commands[words[1]]
        declared = {opt for p in command.params for opt in p.opts}
        used = {word.strip("[]") for word in words[2:]
                if word.strip("[]").startswith("--")}
        assert used <= declared, (words[1], sorted(used - declared))
