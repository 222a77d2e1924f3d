"""Versioned output schemas, one per task kind.

The keys of `OUTPUT_SCHEMAS` are the task kinds, and `SCHEMA_VERSION` names
this set of schemas; task fingerprints and transcript records carry it.

Responses are validated before any caller sees them; a malformed provider
output is a SchemaViolation, never a silent pass-through. Schemas are the
contract that keeps differently-styled inference backends interchangeable.

Each schema node is built by one of four constructors, `_obj`, `_array`,
`_enum` and `_type`, which return the JSON-schema dict together with its
acceptor, `.accept`: a plain-Python predicate that is True only for an
instance made of exact `str`, `int`, `float`, `bool`, `None`, `list` and
`dict` that meets every keyword of the node. Every such instance is valid
for the stock checks too: an exact `int` or `float` is a "number", an exact
`int` an "integer", and so on. Items of a bare scalar type, such as the 256
numbers of an embedding vector, take one type-set test at C speed. A node
cannot be built without its acceptor, so no keyword goes unchecked.

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

# The exact Python types that each JSON type name accepts here: no `bool`
# as "integer" or "number", and no subclass of anything.
_EXACT = {"object": {dict}, "array": {list}, "string": {str},
          "integer": {int}, "number": {int, float}, "boolean": {bool},
          "null": {type(None)}}
_PLAIN = frozenset().union(*_EXACT.values())


class _Schema(dict):
    """A JSON-schema node; `accept` is True only for plain instances that
    the node accepts. False means "not shown valid here", and the stock
    validator decides."""

    __slots__ = ("accept",)

    def __init__(self, accept: Callable[[Any], bool], **node: Any):
        super().__init__(node)
        self.accept = accept


def _plain(value: Any) -> bool:
    """True when `value` is made of exact JSON types only."""
    kind = type(value)
    if kind is dict:
        return all(type(k) is str and _plain(v) for k, v in value.items())
    if kind is list:
        return all(map(_plain, value))
    return kind in _PLAIN


def _exact(names: str | list[str]) -> frozenset:
    """The exact types that the JSON type name or names accept."""
    names = [names] if isinstance(names, str) else names
    return frozenset().union(*(_EXACT[name] for name in names))


def _type(*names: str, **bounds: int) -> _Schema:
    """A scalar of the JSON types `names`: a bare type, a "string" with
    `minLength`, or an "integer" with `minimum` and `maximum`."""
    node_type = names[0] if len(names) == 1 else list(names)
    types = _exact(node_type)
    if "minLength" in bounds:
        least = bounds["minLength"]
        return _Schema(lambda x: type(x) is str and len(x) >= least,
                       type=node_type, **bounds)
    if bounds:
        low, high = bounds["minimum"], bounds["maximum"]
        return _Schema(lambda x: type(x) in types and low <= x <= high,
                       type=node_type, **bounds)
    return _Schema(lambda x: type(x) in types, type=node_type)


def _enum(values: list[str]) -> _Schema:
    members = frozenset(values)
    return _Schema(lambda x: type(x) is str and x in members, enum=values)


def _array(items: _Schema, **bounds: int) -> _Schema:
    """An array of `items`, with `minItems` and `maxItems` if given."""
    low = bounds.get("minItems", 0)
    high = bounds.get("maxItems", float("inf"))
    if items.keys() == {"type"}:
        # Items of bare scalar types: one type-set test at C speed.
        types = _exact(items["type"])
        accept = lambda x: (type(x) is list and low <= len(x) <= high
                            and set(map(type, x)) <= types)
    else:
        item_ok = items.accept
        accept = lambda x: (type(x) is list and low <= len(x) <= high
                            and all(map(item_ok, x)))
    return _Schema(accept, type="array", items=items, **bounds)


def _obj(properties: dict[str, _Schema], required: list[str]) -> _Schema:
    subs = {key: sub.accept for key, sub in properties.items()}
    needed = frozenset(required)

    def accept(x: Any) -> bool:
        if type(x) is not dict or not needed <= x.keys():
            return False
        for key, value in x.items():
            sub = subs.get(key)
            if type(key) is not str or \
                    not (_plain(value) if sub is None else sub(value)):
                return False
        return True
    return _Schema(accept, type="object", properties=properties,
                   required=required, additionalProperties=True)


OUTPUT_SCHEMAS: dict[str, _Schema] = {
    "extract-entities": _obj({
        "entities": _array(_obj({
            "name": _type("string", minLength=1),
            "kind": _enum(_ENTITY_KINDS),
            "aliases": _array(_type("string")),
        }, ["name", "kind"])),
    }, ["entities"]),
    "extract-claims": _obj({
        "claims": _array(_obj({
            "subject": _type("string", minLength=1),
            "predicate": _type("string", minLength=1),
            "object": _type("string", minLength=1),
            "object_is_entity": _type("boolean"),
            "passages": _array(_array(_type("integer"),
                                      minItems=2, maxItems=2)),
            "metric_text": _type("string", "null"),
            "methodology": _type("string", "null"),
            "included_overheads": _array(_type("string")),
            "excluded_overheads": _array(_obj({
                "name": _type("string"),
                "magnitude": _type("string", "null"),
            }, ["name"])),
            "cited_refs": _array(_type("string")),
        }, ["subject", "predicate", "object", "passages"])),
    }, ["claims"]),
    "classify-provenance": _obj({
        "level": _type("integer", minimum=1, maximum=5),
    }, ["level"]),
    "nli-verdict": _obj({
        "label": _enum(_NLI_LABELS),
        "rationale": _type("string"),
    }, ["label"]),
    "coherence": _obj({
        "flags": _array(_obj({
            "dimension": _enum(_COHERENCE_DIMS),
            "severity": _enum(_SEVERITIES),
            "note": _type("string"),
        }, ["dimension", "severity", "note"])),
    }, ["flags"]),
    "overclaim": _obj({
        "annotations": _array(_obj({
            "subject": _type("string"),
            "predicate": _type("string"),
            "issue": _enum(_OVERCLAIM_ISSUES),
            "severity": _enum(["moderate", "severe"]),
            "claim_text": _type("string"),
            "evidence_text": _type("string"),
        }, ["subject", "predicate", "issue", "severity",
            "claim_text", "evidence_text"])),
    }, ["annotations"]),
    "align-claims": _obj({
        "relation": _enum(_ALIGN_RELATIONS),
        "stance": _enum(_STANCES),
        "rationale": _type("string"),
    }, ["relation", "stance"]),
    "citation-fidelity": _obj({
        "faithful": _type("boolean"),
        "distortion_note": _type("string", "null"),
    }, ["faithful"]),
    "root-cause": _obj({
        "category": _enum(_ROOT_CAUSES),
        "explanation": _type("string"),
    }, ["category", "explanation"]),
    "rubric": _obj({
        "criteria": _array(_obj({
            "name": _type("string"),
            "met": _enum(_RUBRIC_MET),
            "note": _type("string"),
        }, ["name", "met", "note"])),
    }, ["criteria"]),
    "describe-asset": _obj({
        "description": _type("string", minLength=1),
        "trends": _array(_type("string")),
    }, ["description"]),
    "hypothesize": _obj({
        "statement": _type("string", "null"),
        "conclusion": _type("string", "null"),
    }, ["statement", "conclusion"]),
    "counter-hypothesize": _obj({
        "statement": _type("string", minLength=1),
    }, ["statement"]),
    "embed": _obj({
        "vector": _array(_type("number"), minItems=1),
        "model_tag": _type("string"),
    }, ["vector", "model_tag"]),
}

_ACCEPTORS = {kind: schema.accept for kind, schema in OUTPUT_SCHEMAS.items()}


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
