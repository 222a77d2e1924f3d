"""Entity and claim extraction, provenance classification, registry merge."""

from __future__ import annotations

import logging

from ..config import KnowledgeConfig
from ..errors import (AlreadyClassified, SchemaViolation, UnparseableMetric,
                      UnresolvedSubject)
from ..ids import make_id, normalize_text
from ..provider import InferenceRouter, InferenceTask
from ..corpus.model import SourceDocument
from .metrics import normalize_metric
from .model import ClaimTriple, Entity, MetricValue, OverheadEntry, ProvenanceLevel

logger = logging.getLogger(__name__)


def normalize_predicate(raw: str, cfg: KnowledgeConfig) -> str:
    """Lowercase-hyphenated verb phrase, folded through the synonym table."""
    phrase = "-".join(normalize_text(raw).lower().split())
    return cfg.predicate_synonyms.get(phrase, phrase)


class EntityRegistry:
    """Corpus-wide entity store; single merge point for all documents.

    Canonical names are resolved through the configured alias table, so two
    documents naming the same actor differently unify into one entity whose
    alias list carries every surface form seen.
    """

    def __init__(self, cfg: KnowledgeConfig | None = None):
        self.cfg = cfg or KnowledgeConfig()
        self._by_key: dict[str, Entity] = {}

    def _canonical_name(self, name: str) -> str:
        cleaned = normalize_text(name)
        return self.cfg.entity_aliases.get(cleaned.lower(), cleaned)

    def _key(self, name: str) -> str:
        return self._canonical_name(name).lower()

    def __len__(self) -> int:
        return len(self._by_key)

    def entities(self) -> list[Entity]:
        return sorted(self._by_key.values(), key=lambda e: e.entity_id)

    def get(self, name: str) -> Entity | None:
        return self._by_key.get(self._key(name))

    def register(self, name: str, kind: str, aliases: list[str] | None = None,
                 first_seen_doc: str | None = None) -> Entity:
        canonical = self._canonical_name(name)
        key = canonical.lower()
        entity = self._by_key.get(key)
        if entity is None:
            entity = Entity(
                entity_id=make_id("ent", key),
                name=canonical, kind=kind, aliases=[],
                first_seen_doc=first_seen_doc)
            self._by_key[key] = entity
        merged = set(entity.aliases)
        for alias in (aliases or []):
            alias = normalize_text(alias)
            if alias and alias.lower() != key:
                merged.add(alias)
        if normalize_text(name).lower() != key:
            merged.add(normalize_text(name))
        entity.aliases = sorted(merged)
        return entity

    def resolve(self, name: str) -> Entity:
        entity = self.get(name)
        if entity is None:
            raise UnresolvedSubject(f"no registry entity named {name!r}")
        return entity


def extract_entities(doc: SourceDocument, router: InferenceRouter,
                     registry: EntityRegistry) -> list[Entity]:
    """Provider-extracted entities, deduplicated and merged into the registry."""
    task = InferenceTask("extract-entities", {
        "doc": {"slug": doc.slug, "title": doc.title, "text": doc.full_text()},
    })
    output = router.invoke(task).output
    seen: dict[str, Entity] = {}
    for row in output["entities"]:
        entity = registry.register(row["name"], row["kind"],
                                   aliases=row.get("aliases", []),
                                   first_seen_doc=doc.doc_id)
        seen.setdefault(entity.entity_id, entity)
    return sorted(seen.values(), key=lambda e: e.entity_id)


def _build_metric(row: dict) -> MetricValue | None:
    metric_text = row.get("metric_text")
    if not metric_text:
        return None
    try:
        metric = normalize_metric(metric_text, row.get("methodology") or "")
    except UnparseableMetric:
        logger.warning("unparseable metric %r; claim keeps raw text only",
                       metric_text)
        return None
    metric.included_overheads = list(row.get("included_overheads", []))
    for entry in row.get("excluded_overheads", []):
        magnitude = entry.get("magnitude")
        if magnitude:
            try:
                parsed = normalize_metric(magnitude)
                metric.excluded_overheads.append(OverheadEntry(
                    name=entry["name"], quantity=parsed.upper,
                    unit=parsed.unit))
                continue
            except UnparseableMetric:
                pass
        metric.excluded_overheads.append(OverheadEntry(name=entry["name"]))
    return metric


def extract_claims(doc: SourceDocument, entities: list[Entity],
                   router: InferenceRouter, registry: EntityRegistry,
                   cfg: KnowledgeConfig | None = None) -> list[ClaimTriple]:
    """Decompose the document's assertions into resolved claim triples."""
    cfg = cfg or KnowledgeConfig()
    task = InferenceTask("extract-claims", {
        "doc": {"slug": doc.slug, "title": doc.title, "text": doc.full_text()},
        "entities": sorted(e.name for e in entities),
    })
    output = router.invoke(task).output
    claims: list[ClaimTriple] = []
    for row in output["claims"]:
        subject = registry.get(row["subject"])
        if subject is None:
            raise UnresolvedSubject(
                f"claim subject {row['subject']!r} not in registry "
                f"(doc {doc.slug})")
        object_is_entity = bool(row.get("object_is_entity", False))
        object_entity = registry.get(row["object"]) if object_is_entity else None
        if object_is_entity and object_entity is None:
            object_is_entity = False
        predicate = normalize_predicate(row["predicate"], cfg)

        passage_ids: list[str] = []
        section_id = doc.sections[0].section_id if doc.sections else ""
        for si, pi in row["passages"]:
            if not (0 <= si < len(doc.sections)
                    and 0 <= pi < len(doc.sections[si].passages)):
                raise SchemaViolation(f"extract-claims output for {doc.slug} "
                                      f"names no passage: [{si}, {pi}]")
            section = doc.sections[si]
            passage_ids.append(section.passages[pi][0])
            section_id = section.section_id

        claim_id = make_id("clm", doc.doc_id, subject.entity_id, predicate,
                           row["object"], passage_ids)
        claims.append(ClaimTriple(
            claim_id=claim_id,
            subject=subject.entity_id,
            predicate=predicate,
            object=(object_entity.entity_id if object_entity
                    else normalize_text(row["object"])),
            object_is_entity=object_entity is not None,
            doc_id=doc.doc_id,
            section_id=section_id,
            passage_ids=passage_ids,
            subject_name=subject.name,
            object_name=(object_entity.name if object_entity
                         else normalize_text(row["object"])),
            metric=_build_metric(row),
            cited_refs=list(row.get("cited_refs", [])),
        ))
    return claims


def classify_provenance(claim: ClaimTriple, evidence_text: str,
                        router: InferenceRouter,
                        doc_slug: str) -> ProvenanceLevel:
    """Assign one of the five evidentiary tiers; a claim is classified once."""
    if claim.provenance is not None:
        raise AlreadyClassified(
            f"claim {claim.claim_id} already at level {claim.provenance.level}")
    task = InferenceTask("classify-provenance", {
        "claim": claim.task_payload(doc_slug),
        "evidence": evidence_text,
    })
    level = ProvenanceLevel(router.invoke(task).output["level"])
    claim.provenance = level
    return level
