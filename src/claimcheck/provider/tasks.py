"""Inference task and response records, and the claim handles tasks carry.

A task fingerprint is a pure function of (kind, canonicalized payload,
schema version): field order and whitespace never change it. Fingerprints
key the replay fixture and the run transcript.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ..ids import content_hash
from .schemas import OUTPUT_SCHEMAS, SCHEMA_VERSION


def claim_key(claim: dict[str, Any]) -> str:
    """`"<slug>:<subject>|<predicate>"` for a claim in its task payload form."""
    return f"{claim['slug']}:{claim['subject']}|{claim['predicate']}"


def pair_key(a: dict[str, Any], b: dict[str, Any]) -> str:
    return " & ".join(sorted((claim_key(a), claim_key(b))))


@dataclass(frozen=True)
class InferenceTask:
    kind: str
    payload: dict[str, Any]
    fingerprint: str = field(init=False)

    def __post_init__(self):
        if self.kind not in OUTPUT_SCHEMAS:
            raise ValueError(f"unknown task kind: {self.kind}")
        fp = content_hash({"kind": self.kind, "payload": self.payload,
                           "schema": SCHEMA_VERSION}, length=20)
        object.__setattr__(self, "fingerprint", fp)


@dataclass(frozen=True)
class InferenceResponse:
    """One served response; its record is a line of the run transcript."""

    fingerprint: str
    kind: str
    output: dict[str, Any]
    provider_tag: str
    sample_index: int = 0
    schema_version: str = SCHEMA_VERSION
