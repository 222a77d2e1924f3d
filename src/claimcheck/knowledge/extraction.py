"""Entity and claim extraction, provenance classification, registry merge."""

from __future__ import annotations

import logging
from functools import partial
from typing import Callable

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

    def __init__(self, cfg: KnowledgeConfig):
        self.cfg = cfg
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


def extract_docs(docs: list[SourceDocument], router: InferenceRouter,
                 registry: EntityRegistry
                 ) -> list[tuple[list[Entity], list[ClaimTriple]]]:
    """Each document's entities and claim triples, from two waves of
    `router.map`: every `extract-entities` call, then every `extract-claims`
    call.

    The results and the registry are those of extracting the documents one
    at a time in the given order, and so is the first error that a fold
    raises. The entity outputs are registered in document order. A claim
    payload names only its document's own entities, and a name is fixed at
    first registration, so every payload is known once they are registered.
    Each document's claims then resolve against the registry as of that
    document: an entity that only a later document registers is absent for
    it.
    """
    texts = [{"slug": doc.slug, "title": doc.title, "text": doc.full_text()}
             for doc in docs]

    def ask(task: InferenceTask) -> dict:
        return router.invoke(task).output

    outputs = router.map(ask, [InferenceTask("extract-entities", {"doc": text})
                               for text in texts])
    # Position in `docs` of the document that registered each entity first;
    # an entity registered before this batch has no entry: it counts as -1.
    born: dict[str, int] = {}
    entities = [_register_entities(doc, output, registry, born, i)
                for i, (doc, output) in enumerate(zip(docs, outputs))]
    outputs = router.map(ask, [
        InferenceTask("extract-claims", {
            "doc": text, "entities": sorted(e.name for e in found)})
        for text, found in zip(texts, entities)])
    return [(found, _resolve_claims(doc, output,
                                    partial(_as_of, registry, born, i),
                                    registry.cfg))
            for i, (doc, output, found)
            in enumerate(zip(docs, outputs, entities))]


def _register_entities(doc: SourceDocument, output: dict,
                       registry: EntityRegistry, born: dict[str, int],
                       position: int) -> list[Entity]:
    """Merge one `extract-entities` output into the registry; the document's
    entities, deduplicated. Each entity it registers first gets `position`
    in `born`."""
    seen: dict[str, Entity] = {}
    for row in output["entities"]:
        size = len(registry)
        entity = registry.register(row["name"], row["kind"],
                                   aliases=row.get("aliases", []),
                                   first_seen_doc=doc.doc_id)
        if len(registry) > size:
            born[entity.entity_id] = position
        seen.setdefault(entity.entity_id, entity)
    return sorted(seen.values(), key=lambda e: e.entity_id)


def _as_of(registry: EntityRegistry, born: dict[str, int], position: int,
           name: str) -> Entity | None:
    """`registry.get(name)` as the document at `position` sees it: None for
    an entity that only a later document registers."""
    entity = registry.get(name)
    if entity is None or born.get(entity.entity_id, -1) > position:
        return None
    return entity


def _resolve_claims(doc: SourceDocument, output: dict,
                    lookup: Callable[[str], Entity | None],
                    cfg: KnowledgeConfig) -> list[ClaimTriple]:
    """One `extract-claims` output as claim triples, with subject and object
    names resolved through `lookup`."""
    claims: list[ClaimTriple] = []
    for row in output["claims"]:
        subject = lookup(row["subject"])
        if subject is None:
            raise UnresolvedSubject(
                f"claim subject {row['subject']!r} not in registry "
                f"(doc {doc.slug})")
        object_entity = lookup(row["object"]) \
            if row.get("object_is_entity") else None
        predicate = normalize_predicate(row["predicate"], cfg)

        passage_ids: list[str] = []
        section_id = doc.sections[0].section_id if doc.sections else ""
        for si, pi in row["passages"]:
            # jsonschema's "integer" admits 1.0, which cannot index a list.
            section = doc.sections[int(si)] \
                if 0 <= si < len(doc.sections) else None
            if section is None or not 0 <= pi < len(section.passages):
                raise SchemaViolation(f"extract-claims output for {doc.slug} "
                                      f"names no passage: [{si}, {pi}]")
            passage_ids.append(section.passages[int(pi)][0])
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
