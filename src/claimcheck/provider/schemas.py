"""Versioned output schemas, one per task kind.

The keys of `OUTPUT_SCHEMAS` are the task kinds, and `SCHEMA_VERSION` names
this set of schemas; task fingerprints and transcript records carry it.

Responses are validated before any caller sees them; a malformed provider
output is a SchemaViolation, never a silent pass-through. Schemas are the
contract that keeps differently-styled inference backends interchangeable.

Each schema is compiled into a validator once, at import. The draft is
2020-12, the one `jsonschema.validate` picks for a schema without
`$schema`, and a violation is reported through the same `best_match`, so
messages are the ones `jsonschema.validate` gives. Unlike that function,
nothing here re-checks the schemas against the meta-schema on every call:
they are constants of this module, and a test checks each of them once.

The compiled validators replace the `items` keyword with one that first
tries a fast pass when the item schema is exactly `{"type": "number"}` or
`{"type": "string"}` and there is no `prefixItems`. The stock keyword
applies that schema to each item, whose only check is
`validator.is_type(item, name)`. The fast pass is one type-set test at C
speed: the set of the items' exact types is a subset of `_EXACT[name]`.
Every exact `int` or `float` passes the stock "number" check and every exact
`str` passes "string", so the test accepts no array that the stock keyword
rejects. Any other array, with a `bool`, a `numpy.float64` or a subclass of
`int`, `float` or `str` among its items, and every other item schema, goes
to the stock keyword, so its result and messages are unchanged. "integer"
has no entry, because the stock check accepts `1.0` as an integer. This
matters for 256-number embedding vectors, which the stock keyword checks one
descent per element, and which the type-set test checks in one pass.
"""

from __future__ import annotations

from typing import Any, Iterator

from jsonschema import Draft202012Validator, ValidationError, validators
from jsonschema.exceptions import best_match

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


_stock_items = Draft202012Validator.VALIDATORS["items"]

# The exact Python types that the stock type checker accepts as each name.
_EXACT = {"number": {int, float}, "string": {str}}


def _items(validator: Any, items: Any, instance: Any,
           schema: dict[str, Any]) -> Iterator[ValidationError]:
    """`items` that accepts a flat array of one exact type in one pass."""
    if (isinstance(items, dict) and items.keys() == {"type"}
            and isinstance(items["type"], str) and items["type"] in _EXACT
            and "prefixItems" not in schema
            and validator.is_type(instance, "array")
            and set(map(type, instance)) <= _EXACT[items["type"]]):
        return
    yield from _stock_items(validator, items, instance, schema)


_OutputValidator = validators.extend(Draft202012Validator, {"items": _items})

_VALIDATORS = {kind: _OutputValidator(schema)
               for kind, schema in OUTPUT_SCHEMAS.items()}


def validate_output(kind: str, output: Any) -> None:
    validator = _VALIDATORS.get(kind)
    if validator is None:
        raise SchemaViolation(f"no output schema for task kind {kind!r} "
                              f"(schema set {SCHEMA_VERSION})")
    error = best_match(validator.iter_errors(output))
    if error is not None:
        raise SchemaViolation(
            f"{kind} output failed schema {SCHEMA_VERSION}: {error.message}"
        ) from error
