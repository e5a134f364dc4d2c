"""Every public name of `branchedq` has a reader in the package or a demo.

A name that only tests call is dead API: it grows the surface to keep
working without serving the command line, a criterion or a demo.  Readers
are found in the syntax trees of the package modules (not `__init__.py`,
which lists the names) and the demo scripts.  A load of a name or an
attribute counts, and so does an import; strings and docstrings do not.
"""

import ast
from pathlib import Path

import branchedq

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
