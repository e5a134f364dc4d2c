"""The config and graph-file validator against jsonschema, its reference.

jsonschema is a test dependency only: `branchedq.schema` checks the
keyword subset that CONFIG_SCHEMA and GRAPH_SCHEMA use, and must accept
and reject what jsonschema does, with the same `$.path: message`.
"""

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from branchedq.cli import CONFIG_SCHEMA
from branchedq.graphs import GRAPH_SCHEMA
from branchedq.schema import (SchemaViolation, _errors, check, check_schema,
                              violation)

_BOUNDARY = [0, 0.0, 1e-300, -1e-300, 1e300, -1e300, 2, 2.0, 2.5, -1, True,
             False, None, "", [], {}]


def _near(rnd, schema, odds=None):
    """A document near `schema`: its own fields and values, with one time
    in `odds` a boundary value in a field's place, a required key missing,
    an extra key or an array one item too long or too short.  A document
    is noisy (odds 3: several errors, which must all match) or quiet (odds
    16: often a single error, whose message must match)."""
    if odds is None:
        odds = rnd.choice([3, 16])

    def chance(n):
        return rnd.randrange(n) == 0

    if chance(odds):
        return rnd.choice(_BOUNDARY)
    if "const" in schema:
        return schema["const"]
    if "enum" in schema:
        return rnd.choice(schema["enum"])
    types = schema["type"]
    kind = types if isinstance(types, str) else rnd.choice(types)
    if kind == "object":
        required = schema.get("required", ())
        doc = {key: _near(rnd, sub, odds)
               for key, sub in schema.get("properties", {}).items()
               if (not chance(odds) if key in required else chance(3))}
        for extra in ("extra", "Extra"):
            if chance(odds):
                doc[extra] = rnd.choice(_BOUNDARY)
        return doc
    if kind == "array":
        size = rnd.randint(schema.get("minItems", 0), schema.get("maxItems", 3))
        if chance(odds):
            size = max(size + rnd.choice([-1, 1]), 0)
        return [_near(rnd, schema.get("items", {"type": "number"}), odds)
                for _ in range(size)]
    if kind == "integer":
        low = schema.get("minimum", 0)
        return rnd.choice([low, float(low), low + 1])
    return rnd.choice({"number": [1e-300, 1e300, 2, 2.0, 0.5],
                       "string": ["x", "star"],
                       "null": [None]}[kind])


def _reference(schema):
    return jsonschema.validators.validator_for(schema)(schema)


_CASES = {"config": (CONFIG_SCHEMA, _reference(CONFIG_SCHEMA)),
          "graph": (GRAPH_SCHEMA, _reference(GRAPH_SCHEMA))}


def _reference_errors(errors, where=()):
    """Every error jsonschema found, and any nested under it, which the
    checked keywords never give."""
    for error in errors:
        yield where + tuple(error.path), error.message
        yield from _reference_errors(error.context, where + tuple(error.path))


def _agrees(doc, schema, reference):
    """The same errors as jsonschema, in the same order, and the same one
    reported where jsonschema finds exactly one."""
    errors = list(reference.iter_errors(doc))
    # Each error is a (path, message) named tuple.
    assert list(_errors(doc, schema)) == list(_reference_errors(errors))
    found = violation(doc, schema)
    assert (found is None) == (not errors)
    if len(errors) == 1:
        best = jsonschema.exceptions.best_match(errors)
        assert found == (best.json_path, best.message)


@settings(max_examples=700, deadline=None, derandomize=True)
@given(rnd=st.randoms(use_true_random=True))
def test_config_validation_matches_jsonschema(rnd):
    _agrees(_near(rnd, CONFIG_SCHEMA), *_CASES["config"])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(rnd=st.randoms(use_true_random=True))
def test_graph_validation_matches_jsonschema(rnd):
    _agrees(_near(rnd, GRAPH_SCHEMA), *_CASES["graph"])


@pytest.mark.parametrize("doc,where", [
    ({"version": 1, "mode": "verify"}, None),
    # 1.0 is the integer 1; true is not.
    ({"version": 1.0, "mode": "verify"}, None),
    ({"version": True, "mode": "verify"}, ("$.version", "1 was expected")),
    ({"version": 1, "mode": "spectrum", "solver": {"accuracy": 4.0, "k": 2.0}},
     None),
    ({"version": 1, "mode": "spectrum", "solver": {"k": True}},
     ("$.solver.k", "True is not of type 'integer'")),
    ({"version": 1, "mode": "spectrum", "dispersion": {"kappa": False}},
     ("$.dispersion.kappa", "False is not of type 'number'")),
    ({"version": 1, "mode": "verify", "extra": 1},
     ("$", "Additional properties are not allowed ('extra' was unexpected)")),
    ({"version": 1, "mode": "spectrum", "sweep": {"parameter": "k",
                                                  "values": []}},
     ("$.sweep.values", "[] should be non-empty")),
    ({"version": 1, "mode": "evolve", "evolution": {"dt": 0}},
     ("$.evolution.dt", "0 is less than or equal to the minimum of 0")),
    ({"version": 1, "mode": "spectrum", "solver": {"kinetic": [1, 2, 3, 4, 5]}},
     ("$.solver.kinetic", "[1, 2, 3, 4, 5] is too long")),
    ({"version": 1, "mode": "verify", "zz": 1, "aa": 2},
     ("$", "Additional properties are not allowed ('aa', 'zz' were "
           "unexpected)")),
    # Of two errors at one depth, jsonschema's best_match takes the
    # greater path.
    ({"version": 1, "mode": "spectrum", "grid": {"n": 1},
      "solver": {"k": 0}},
     ("$.solver.k", "0 is less than the minimum of 1")),
], ids=["valid", "integral-float", "bool-const", "integral-floats",
        "bool-integer", "bool-number", "extra-key", "empty-values", "dt-zero",
        "kinetic-too-long", "two-extra-keys", "sibling-errors"])
def test_json_semantics(doc, where):
    assert violation(doc, CONFIG_SCHEMA) == where
    _agrees(doc, *_CASES["config"])


def test_kappa_entry_reports_the_branch_it_nearly_matched():
    doc = {"version": 1, "vertices": [
        {"id": "c", "condition": {"type": "weighted", "kappa": [[1, "x"]]}}]}
    with pytest.raises(SchemaViolation) as info:
        check(doc, GRAPH_SCHEMA)
    assert str(info.value) == ("$.vertices[0].condition.kappa[0][1]: "
                               "'x' is not of type 'number'")
    assert isinstance(info.value, ValueError)


@pytest.mark.parametrize("schema", [
    {"type": "string", "pattern": "^a"},
    {"type": "object", "properties": {"a": {"maximum": 3}}},
    {"type": "array", "items": {"anyOf": [{"type": "number"}]}},
    {"oneOf": [{"type": "number"}, {"type": "array"}]},
    {"oneOf": [{"type": "number"}, {"format": "date"}]},
    {"type": "object", "additionalProperties": {"type": "number"}},
    {"type": "decimal"},
], ids=["pattern", "nested-maximum", "anyOf-in-items", "oneOf",
        "format-in-oneOf",
        "additional-schema", "unknown-type"])
def test_unchecked_keyword_is_refused(schema):
    with pytest.raises(ValueError):
        check_schema(schema)


@pytest.mark.parametrize("schema", [
    {"const": [1, 2]},
    {"const": {"a": 1}},
    {"enum": [1, [1, 2]]},
    {"type": "object", "properties": {"a": {"enum": [{"b": True}]}}},
], ids=["const-list", "const-object", "enum-list", "nested-enum-object"])
def test_container_const_or_enum_is_refused(schema):
    """`_equal` compares scalars only, so a list or object that a `const`
    or `enum` names would be compared wrongly."""
    with pytest.raises(ValueError, match="scalar const and enum"):
        check_schema(schema)
