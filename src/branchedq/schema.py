"""Checks a JSON document against the JSON Schema subset the configs use.

The config and graph-file schemas use eleven JSON Schema (draft 2020-12)
keywords: type, const, enum, required, properties, additionalProperties
(false only), items, minItems, maxItems, minimum and exclusiveMinimum.
`violation` checks exactly those, with JSON Schema's meaning (a
bool is not a number, 2.0 is an integer, `const` and `enum` tell true
from 1).  It reports the error, and the message text, that the Python
reference validator (version 4.26, a test dependency) picks with its
`best_match`; tests/test_schema.py compares the two.  `check_schema`
refuses a schema that uses any other keyword or type, so that no check is
skipped in silence.  `parse_json` reads both kinds of document and refuses
the numbers no schema keyword can: NaN, Infinity and float overflow.

The reference validator, imported at start-up before, took 0.07 s of every
`import branchedq.cli` on a 2-core VM (0.533 -> 0.465 s, medians of 15
alternating pairs) and 3.6 MB of peak RSS.
"""

import json
import math
import numbers
import re
from collections.abc import Mapping, Sequence
from typing import NamedTuple

_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "null": lambda v: v is None,
    "number": lambda v: isinstance(v, numbers.Number) and not isinstance(v, bool),
    "integer": lambda v: (isinstance(v, int) and not isinstance(v, bool)
                          or isinstance(v, float) and v.is_integer()),
}


def _finite_number(text, parse=float):
    """Parse a JSON number, refusing NaN, Infinity and float overflow."""
    if not math.isfinite(float(text)):
        raise ValueError(f"number {text[:24]} is NaN, infinite or beyond "
                         "the float range")
    return parse(text)


def parse_json(text):
    """The JSON document in `text`, with every number finite.

    Raises json.JSONDecodeError on malformed text and ValueError on a
    NaN, Infinity or out-of-range number.
    """
    return json.loads(text, parse_float=_finite_number,
                      parse_constant=_finite_number,
                      parse_int=lambda t: _finite_number(t, int))


class SchemaViolation(ValueError):
    """A document breaks its schema; the text is '$.path: message'."""


class _Error(NamedTuple):
    path: tuple  # relative to the instance that `_errors` checks
    message: str


def _is_type(instance, types):
    return any(_TYPES[t](instance) for t in ([types] if isinstance(types, str)
                                             else types))


def _unbool(value, true=object(), false=object()):
    return true if value is True else false if value is False else value


def _equal(one, two):
    """JSON equality: true is not 1, and 2.0 is 2."""
    if one is two:
        return True
    if isinstance(one, str) or isinstance(two, str):
        return one == two
    if isinstance(one, Sequence) and isinstance(two, Sequence):
        return len(one) == len(two) and all(map(_equal, one, two))
    if isinstance(one, Mapping) and isinstance(two, Mapping):
        return len(one) == len(two) and all(
            key in two and _equal(value, two[key]) for key, value in one.items())
    return _unbool(one) == _unbool(two)


def _type(value, instance, schema):
    if not _is_type(instance, value):
        names = ", ".join(map(repr, [value] if isinstance(value, str) else value))
        yield f"{instance!r} is not of type {names}"


def _const(value, instance, schema):
    if not _equal(instance, value):
        yield f"{value!r} was expected"


def _enum(value, instance, schema):
    if not any(_equal(each, instance) for each in value):
        yield f"{instance!r} is not one of {value!r}"


def _required(value, instance, schema):
    if isinstance(instance, dict):
        for name in value:
            if name not in instance:
                yield f"{name!r} is a required property"


def _properties(value, instance, schema):
    if isinstance(instance, dict):
        for name, sub in value.items():
            if name in instance:
                yield from _nested(instance[name], sub, name)


def _additional_properties(value, instance, schema):
    if isinstance(instance, dict):
        known = schema.get("properties", {})
        extras = sorted((k for k in instance if k not in known), key=str)
        if extras:
            verb = "was" if len(extras) == 1 else "were"
            yield ("Additional properties are not allowed "
                   f"({', '.join(map(repr, extras))} {verb} unexpected)")


def _items(value, instance, schema):
    if isinstance(instance, list):
        for index, item in enumerate(instance):
            yield from _nested(item, value, index)


def _min_items(value, instance, schema):
    if isinstance(instance, list) and len(instance) < value:
        yield f"{instance!r} " + ("should be non-empty" if value == 1
                                  else "is too short")


def _max_items(value, instance, schema):
    if isinstance(instance, list) and len(instance) > value:
        yield f"{instance!r} " + ("is expected to be empty" if value == 0
                                  else "is too long")


def _minimum(value, instance, schema):
    if _TYPES["number"](instance) and instance < value:
        yield f"{instance!r} is less than the minimum of {value!r}"


def _exclusive_minimum(value, instance, schema):
    if _TYPES["number"](instance) and instance <= value:
        yield f"{instance!r} is less than or equal to the minimum of {value!r}"


_KEYWORDS = {
    "type": _type,
    "const": _const,
    "enum": _enum,
    "required": _required,
    "properties": _properties,
    "additionalProperties": _additional_properties,
    "items": _items,
    "minItems": _min_items,
    "maxItems": _max_items,
    "minimum": _minimum,
    "exclusiveMinimum": _exclusive_minimum,
}


def _errors(instance, schema):
    """Every error, in the reference validator's order: keywords in schema
    order.

    A keyword yields a message for its own failure and an _Error for one
    found below it.
    """
    for keyword, value in schema.items():
        for found in _KEYWORDS[keyword](value, instance, schema):
            yield found if isinstance(found, _Error) else _Error((), found)


def _nested(instance, schema, step):
    for error in _errors(instance, schema):
        yield error._replace(path=(step,) + error.path)


def _relevance(error):
    # The reference validator's `relevance`: the shallowest error, then the
    # greatest path.  Its further keys tell apart errors that different
    # schema nodes report at one path, which these keywords never do.
    return (-len(error.path), error.path)


_PLAIN_NAME = re.compile("^[a-zA-Z][a-zA-Z0-9_]*$")


def _json_path(path):
    text = "$"
    for step in path:
        if isinstance(step, int):
            text += f"[{step}]"
        elif _PLAIN_NAME.match(step):
            text += "." + step
        else:
            text += "['" + step.replace("\\", "\\\\").replace("'", "\\'") + "']"
    return text


def violation(doc, schema):
    """The violation `best_match` reports, as ('$.path', message).

    None when `doc` is valid.  The shallowest error wins.
    """
    best = max(_errors(doc, schema), key=_relevance, default=None)
    return None if best is None else (_json_path(best.path), best.message)


def check(doc, schema):
    """Raise SchemaViolation('$.path: message') unless `doc` is valid."""
    found = violation(doc, schema)
    if found is not None:
        raise SchemaViolation("%s: %s" % found)


def check_schema(schema):
    """Raise ValueError if `schema` uses a keyword that this module skips."""
    unknown = set(schema) - set(_KEYWORDS)
    if unknown:
        raise ValueError(f"schema keywords {sorted(unknown)} are not checked")
    if schema.get("additionalProperties", False) is not False:
        raise ValueError("only additionalProperties: false is checked")
    types = schema.get("type", ())
    unknown = set([types] if isinstance(types, str) else types) - set(_TYPES)
    if unknown:
        raise ValueError(f"schema types {sorted(unknown)} are not checked")
    subschemas = list(schema.get("properties", {}).values())
    if "items" in schema:
        subschemas.append(schema["items"])
    for sub in subschemas:
        check_schema(sub)
