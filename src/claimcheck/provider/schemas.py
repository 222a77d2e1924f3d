"""Versioned output schemas, one per task kind.

The keys of `OUTPUT_SCHEMAS` are the task kinds, and `SCHEMA_VERSION` names
this set of schemas; task fingerprints and transcript records carry it.

Responses are validated before any caller sees them; a malformed provider
output is a SchemaViolation, never a silent pass-through. Schemas are the
contract that keeps differently-styled inference backends interchangeable.

Each schema is compiled once, at import, into two checks. The first is an
acceptor: a plain-Python predicate that knows only the keywords these
schemas use (`type`, `enum`, `required`, `properties`,
`additionalProperties: true`, `items`, `minItems`/`maxItems`, `minLength`
and `minimum`/`maximum`). It is True only for an instance made of exact
`str`, `int`, `float`, `bool`, `None`, `list` and `dict` that meets every
keyword, and every such instance is valid for the stock checks too: an
exact `int` or `float` is a "number", an exact `int` an "integer", and so
on. Items of a bare scalar type, such as the 256 numbers of an embedding
vector, take one type-set test at C speed. `build_acceptor` raises at
import on any other keyword or value, so a new keyword cannot be skipped
without notice.

When the acceptor says no, the second check decides: the stock
`Draft202012Validator`, the draft that `jsonschema.validate` picks for a
schema without `$schema`, reporting through the same `best_match`. So every
accept or reject result and every message is the one `jsonschema.validate`
gives. jsonschema is imported, and a kind's validator built, only when the
acceptor first says no to an output of that kind: a run whose outputs are
all accepted, such as a golden replay, never loads it. The acceptor says no
to what it cannot show valid cheaply: a `bool` or a `numpy.float64` where a
number goes, `1.0` as an integer, a tuple, a subclass of `str` or `dict`,
and every invalid output. Unlike `jsonschema.validate`, nothing here
re-checks the schemas against the meta-schema on every call: they are
constants of this module, and a test checks each of them once.
"""

from __future__ import annotations

import functools
from typing import Any, Callable

from ..errors import SchemaViolation

SCHEMA_VERSION = "v1"

_ENTITY_KINDS = ["organization", "researcher", "algorithm", "hardware",
                 "product", "dataset", "metric-concept", "other"]
_NLI_LABELS = ["supports", "contradicts", "neutral"]
_COHERENCE_DIMS = ["scope-consistency", "baseline-fairness", "reproducibility"]
_SEVERITIES = ["minor", "moderate", "severe"]
_OVERCLAIM_ISSUES = ["overgeneralization", "extreme-value-reporting",
                     "projection-as-result", "scope-inflation",
                     "omitted-limitation"]
_ALIGN_RELATIONS = ["matched", "partially-overlapping", "unrelated"]
_STANCES = ["agrees", "disagrees", "not-applicable"]
_ROOT_CAUSES = ["methodological-difference", "incompatible-experimental-conditions",
                "differing-benchmark-datasets", "runtime-definition-mismatch",
                "baseline-selection", "statistical-sampling", "other"]
_RUBRIC_MET = ["yes", "partial", "no"]


def _obj(properties: dict[str, Any], required: list[str]) -> dict[str, Any]:
    return {"type": "object", "properties": properties,
            "required": required, "additionalProperties": True}


OUTPUT_SCHEMAS: dict[str, dict[str, Any]] = {
    "extract-entities": _obj({
        "entities": {"type": "array", "items": _obj({
            "name": {"type": "string", "minLength": 1},
            "kind": {"enum": _ENTITY_KINDS},
            "aliases": {"type": "array", "items": {"type": "string"}},
        }, ["name", "kind"])},
    }, ["entities"]),
    "extract-claims": _obj({
        "claims": {"type": "array", "items": _obj({
            "subject": {"type": "string", "minLength": 1},
            "predicate": {"type": "string", "minLength": 1},
            "object": {"type": "string", "minLength": 1},
            "object_is_entity": {"type": "boolean"},
            "passages": {"type": "array",
                         "items": {"type": "array",
                                   "items": {"type": "integer"},
                                   "minItems": 2, "maxItems": 2}},
            "metric_text": {"type": ["string", "null"]},
            "methodology": {"type": ["string", "null"]},
            "included_overheads": {"type": "array", "items": {"type": "string"}},
            "excluded_overheads": {"type": "array", "items": _obj({
                "name": {"type": "string"},
                "magnitude": {"type": ["string", "null"]},
            }, ["name"])},
            "cited_refs": {"type": "array", "items": {"type": "string"}},
        }, ["subject", "predicate", "object", "passages"])},
    }, ["claims"]),
    "classify-provenance": _obj({
        "level": {"type": "integer", "minimum": 1, "maximum": 5},
    }, ["level"]),
    "nli-verdict": _obj({
        "label": {"enum": _NLI_LABELS},
        "rationale": {"type": "string"},
    }, ["label"]),
    "coherence": _obj({
        "flags": {"type": "array", "items": _obj({
            "dimension": {"enum": _COHERENCE_DIMS},
            "severity": {"enum": _SEVERITIES},
            "note": {"type": "string"},
        }, ["dimension", "severity", "note"])},
    }, ["flags"]),
    "overclaim": _obj({
        "annotations": {"type": "array", "items": _obj({
            "subject": {"type": "string"},
            "predicate": {"type": "string"},
            "issue": {"enum": _OVERCLAIM_ISSUES},
            "severity": {"enum": ["moderate", "severe"]},
            "claim_text": {"type": "string"},
            "evidence_text": {"type": "string"},
        }, ["subject", "predicate", "issue", "severity",
            "claim_text", "evidence_text"])},
    }, ["annotations"]),
    "align-claims": _obj({
        "relation": {"enum": _ALIGN_RELATIONS},
        "stance": {"enum": _STANCES},
        "rationale": {"type": "string"},
    }, ["relation", "stance"]),
    "citation-fidelity": _obj({
        "faithful": {"type": "boolean"},
        "distortion_note": {"type": ["string", "null"]},
    }, ["faithful"]),
    "root-cause": _obj({
        "category": {"enum": _ROOT_CAUSES},
        "explanation": {"type": "string"},
    }, ["category", "explanation"]),
    "rubric": _obj({
        "criteria": {"type": "array", "items": _obj({
            "name": {"type": "string"},
            "met": {"enum": _RUBRIC_MET},
            "note": {"type": "string"},
        }, ["name", "met", "note"])},
    }, ["criteria"]),
    "describe-asset": _obj({
        "description": {"type": "string", "minLength": 1},
        "trends": {"type": "array", "items": {"type": "string"}},
    }, ["description"]),
    "hypothesize": _obj({
        "statement": {"type": ["string", "null"]},
        "conclusion": {"type": ["string", "null"]},
    }, ["statement", "conclusion"]),
    "counter-hypothesize": _obj({
        "statement": {"type": "string", "minLength": 1},
    }, ["statement"]),
    "embed": _obj({
        "vector": {"type": "array", "items": {"type": "number"}, "minItems": 1},
        "model_tag": {"type": "string"},
    }, ["vector", "model_tag"]),
}


# The exact Python types that each JSON type name accepts here: no `bool`
# as "integer" or "number", and no subclass of anything.
_EXACT = {"object": {dict}, "array": {list}, "string": {str},
          "integer": {int}, "number": {int, float}, "boolean": {bool},
          "null": {type(None)}}
_PLAIN = frozenset().union(*_EXACT.values())

# The keywords an acceptor compiles besides `type`, by the one type name
# that allows them. A schema of several type names allows none.
_KEYWORDS = {"object": {"properties", "required", "additionalProperties"},
             "array": {"items", "minItems", "maxItems"},
             "string": {"minLength"},
             "integer": {"minimum", "maximum"},
             "number": {"minimum", "maximum"}}

Acceptor = Callable[[Any], bool]


def _plain(value: Any) -> bool:
    """True when `value` is made of exact JSON types only."""
    kind = type(value)
    if kind is dict:
        return all(type(k) is str and _plain(v) for k, v in value.items())
    if kind is list:
        return all(map(_plain, value))
    return kind in _PLAIN


def _refuse(what: str, value: Any) -> ValueError:
    return ValueError(f"no acceptor for {what} {value!r}")


def _exact_types(schema: dict[str, Any]) -> tuple[list[str], frozenset]:
    """The type names of `schema` and the exact types they accept."""
    names = schema.get("type")
    names = [names] if isinstance(names, str) else names
    if not isinstance(names, list) or not names or any(
            not isinstance(name, str) or name not in _EXACT for name in names) \
            or len(names) > 1 and {"object", "array"} & set(names):
        raise _refuse("type", names)
    allowed = _KEYWORDS.get(names[0], set()) if len(names) == 1 else set()
    if schema.keys() - allowed - {"type"}:
        raise _refuse("keywords", sorted(schema.keys() - {"type"}))
    return names, frozenset().union(*(_EXACT[name] for name in names))


def _keyword(schema: dict[str, Any], key: str, kinds: tuple,
             default: Any) -> Any:
    """`schema[key]`, which must be of an exact type in `kinds`."""
    if key not in schema:
        return default
    if type(schema[key]) not in kinds:
        raise _refuse(key, schema[key])
    return schema[key]


def build_acceptor(schema: dict[str, Any]) -> Acceptor:
    """A predicate that is True only for plain instances `schema` accepts.

    False means "not shown valid here", and the stock validator decides.
    A keyword or value that this function does not know raises ValueError.
    """
    if type(schema) is not dict:
        raise _refuse("schema", schema)
    if "enum" in schema:
        values = schema["enum"]
        if schema.keys() != {"enum"} or type(values) is not list or \
                not values or any(type(v) is not str for v in values):
            raise _refuse("enum schema", schema)
        members = frozenset(values)
        return lambda x: type(x) is str and x in members
    names, types = _exact_types(schema)
    if names == ["object"]:
        return _object(schema)
    if names == ["array"]:
        return _array(schema)
    if "minLength" in schema:
        least = _keyword(schema, "minLength", (int,), 0)
        return lambda x: type(x) is str and len(x) >= least
    if "minimum" in schema or "maximum" in schema:
        low = _keyword(schema, "minimum", (int, float), -float("inf"))
        high = _keyword(schema, "maximum", (int, float), float("inf"))
        return lambda x: type(x) in types and low <= x <= high
    return lambda x: type(x) in types


def _object(schema: dict[str, Any]) -> Acceptor:
    if schema.get("additionalProperties", True) is not True:
        raise _refuse("additionalProperties", schema["additionalProperties"])
    properties = _keyword(schema, "properties", (dict,), {})
    properties = {key: build_acceptor(sub) for key, sub in properties.items()}
    required = _keyword(schema, "required", (list,), [])
    if any(type(key) is not str for key in required):
        raise _refuse("required", required)
    required = frozenset(required)

    def accept(x: Any) -> bool:
        if type(x) is not dict or not required <= x.keys():
            return False
        for key, value in x.items():
            sub = properties.get(key)
            if type(key) is not str or \
                    not (_plain(value) if sub is None else sub(value)):
                return False
        return True
    return accept


def _array(schema: dict[str, Any]) -> Acceptor:
    low = _keyword(schema, "minItems", (int,), 0)
    high = _keyword(schema, "maxItems", (int,), float("inf"))
    items = schema.get("items")
    item_ok = build_acceptor(items)
    if items.keys() == {"type"} and items["type"] not in ("object", "array"):
        # Items of bare scalar types: one type-set test at C speed.
        exact = _exact_types(items)[1]
        return lambda x: (type(x) is list and low <= len(x) <= high
                          and set(map(type, x)) <= exact)
    return lambda x: (type(x) is list and low <= len(x) <= high
                      and all(map(item_ok, x)))


_ACCEPTORS = {kind: build_acceptor(schema)
              for kind, schema in OUTPUT_SCHEMAS.items()}


@functools.cache
def _validator(kind: str) -> Any:
    """The stock validator of `kind`'s schema, built on first need."""
    from jsonschema import Draft202012Validator
    return Draft202012Validator(OUTPUT_SCHEMAS[kind])


def validate_output(kind: str, output: Any) -> None:
    accept = _ACCEPTORS.get(kind)
    if accept is None:
        raise SchemaViolation(f"no output schema for task kind {kind!r} "
                              f"(schema set {SCHEMA_VERSION})")
    if accept(output):
        return
    from jsonschema.exceptions import best_match
    error = best_match(_validator(kind).iter_errors(output))
    if error is not None:
        raise SchemaViolation(
            f"{kind} output failed schema {SCHEMA_VERSION}: {error.message}"
        ) from error
