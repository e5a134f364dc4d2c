"""Checks a JSON document against the JSON Schema subset the configs use.

The config and graph-file schemas use twelve JSON Schema (draft 2020-12)
keywords: type, const, enum, required, properties, additionalProperties
(false only), items, minItems, maxItems, minimum, exclusiveMinimum and
oneOf.  `violation` checks exactly those, with JSON Schema's meaning (a
bool is not a number, 2.0 is an integer, `const` and `enum` tell true
from 1).  It reports the error, and the message text, that the Python
reference validator (version 4.26, a test dependency) picks with its
`best_match`; tests/test_schema.py compares the two.  `check_schema`
refuses a schema that uses any other keyword or type, so that no check is
skipped in silence.

The reference validator, imported at start-up before, took 0.07 s of every
`import branchedq.cli` on a 2-core VM (0.533 -> 0.465 s, medians of 15
alternating pairs) and 3.6 MB of peak RSS.
"""

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


class SchemaViolation(ValueError):
    """A document breaks its schema; the text is '$.path: message'."""


class _Error(NamedTuple):
    path: tuple       # relative to the instance that the enclosing oneOf checks
    keyword: str
    message: str
    matches_type: bool  # the instance has the type its schema node names
    context: tuple = ()  # a failed oneOf's errors, one or more per branch


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


def _one_of(value, instance, schema):
    context = []
    for index, sub in enumerate(value):
        errors = list(_errors(instance, sub))
        if not errors:
            break
        context.extend(errors)
    else:
        yield _Error((), "oneOf", f"{instance!r} is not valid under any of "
                     "the given schemas", _matches(instance, schema),
                     tuple(context))
        return
    more = [each for each in value[index + 1:] if not any(_errors(instance, each))]
    if more:
        yield (f"{instance!r} is valid under each of "
               + ", ".join(map(repr, more + [sub])))


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
    "oneOf": _one_of,
}


def _matches(instance, schema):
    return "type" in schema and _is_type(instance, schema["type"])


def _errors(instance, schema):
    """Every error, in the reference validator's order: keywords in schema
    order.

    A keyword yields a message for its own failure and an _Error for one
    found below it.
    """
    for keyword, value in schema.items():
        for found in _KEYWORDS[keyword](value, instance, schema):
            yield (found if isinstance(found, _Error) else
                   _Error((), keyword, found, _matches(instance, schema)))


def _nested(instance, schema, step):
    for error in _errors(instance, schema):
        yield error._replace(path=(step,) + error.path)


def _relevance(error):
    # The reference validator's `relevance`: the shallowest error, then the
    # greatest path, then not oneOf, then one whose instance has the wrong type.
    return (-len(error.path), error.path, error.keyword != "oneOf",
            not error.matches_type)


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

    None when `doc` is valid.  The shallowest error wins; a failed oneOf is
    replaced by the deepest error under its branches, unless two tie.
    """
    best = max(_errors(doc, schema), key=_relevance, default=None)
    if best is None:
        return None
    where = ()
    while best.context:
        first, *rest = sorted(best.context, key=_relevance)[:2]
        if rest and _relevance(first) == _relevance(rest[0]):
            break
        where += best.path
        best = first
    return _json_path(where + best.path), best.message


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
    subschemas = [*schema.get("properties", {}).values(), *schema.get("oneOf", ())]
    if "items" in schema:
        subschemas.append(schema["items"])
    for sub in subschemas:
        check_schema(sub)
