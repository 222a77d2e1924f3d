"""Entities, claim triples, provenance levels, and normalized metrics."""

from __future__ import annotations

from dataclasses import dataclass, field

PROVENANCE_LABELS = {
    1: "experimental-data",
    2: "simulation-result",
    3: "theoretical-estimate",
    4: "citation-of-another-work",
    5: "author-assertion",
}


@dataclass(frozen=True)
class ProvenanceLevel:
    level: int

    def __post_init__(self):
        if self.level not in PROVENANCE_LABELS:
            raise ValueError(f"provenance level must be 1-5, got {self.level}")

    @property
    def label(self) -> str:
        return PROVENANCE_LABELS[self.level]

    def to_record(self) -> int:
        return self.level

    @classmethod
    def from_record(cls, level: int) -> "ProvenanceLevel":
        return cls(level)


@dataclass
class Entity:
    entity_id: str
    name: str
    kind: str
    aliases: list[str] = field(default_factory=list)
    first_seen_doc: str | None = None


@dataclass
class OverheadEntry:
    name: str
    quantity: float | None = None
    unit: str | None = None


@dataclass
class MetricValue:
    """Normalized quantity: scalar or closed interval, in a canonical unit.

    included/excluded overheads carry the named runtime components a
    measurement does or does not cover; excluded entries may state an
    estimated magnitude so definitional asymmetry can be assessed.
    """

    quantity: float | tuple[float, float]
    unit: str  # "s" | "ratio" | "count" | "Hz"
    raw_text: str = ""
    methodology: str = ""
    included_overheads: list[str] = field(default_factory=list)
    excluded_overheads: list[OverheadEntry] = field(default_factory=list)

    @property
    def is_interval(self) -> bool:
        return isinstance(self.quantity, tuple)

    @property
    def upper(self) -> float:
        return self.quantity[1] if self.is_interval else self.quantity

    @property
    def lower(self) -> float:
        return self.quantity[0] if self.is_interval else self.quantity


@dataclass
class ComparabilityVerdict:
    comparable: bool
    discrepancies: list[str] = field(default_factory=list)
    asymmetry_note: str | None = None


@dataclass
class ClaimTriple:
    claim_id: str
    subject: str                    # entity_id
    predicate: str                  # normalized verb phrase
    object: str                     # entity_id or literal text
    object_is_entity: bool
    doc_id: str
    section_id: str
    passage_ids: list[str]
    subject_name: str = ""          # canonical names kept for readability
    object_name: str = ""
    provenance: ProvenanceLevel | None = None
    metric: MetricValue | None = None
    cited_refs: list[str] = field(default_factory=list)  # slugs/external ids

    @property
    def text(self) -> str:
        return f"{self.subject_name} {self.predicate} {self.object_name}"

    @property
    def endpoints(self) -> set[str]:
        """Entity ids the claim connects: the subject, plus the object when
        the object is an entity."""
        return {self.subject, self.object} if self.object_is_entity \
            else {self.subject}

    def task_payload(self, doc_slug: str) -> dict[str, str]:
        """The claim as inference tasks carry it: readable names plus the
        slug of its document."""
        return {"slug": doc_slug, "subject": self.subject_name,
                "predicate": self.predicate, "object": self.object_name}
