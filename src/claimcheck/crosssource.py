"""Layer 4: cross-source verification.

Discovers related documents, aligns claims across sources, audits citation
fidelity, classifies contradiction root causes, rates pairwise source
independence, and folds agreement records into an independence- and
consistency-weighted consensus score in [-1, 1].
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Iterable

from .config import CrossSourceConfig, KnowledgeConfig
from .corpus.embedding import EmbeddingStore, semantic_searches
from .corpus.model import DocumentMetadata, SourceDocument
from .errors import (MissingConsistency, MissingRating, RubricNotEnumerable,
                     SchemaViolation, UnitFamilyMismatch)
from .knowledge.graph import KnowledgeGraph
from .knowledge.metrics import compare_metric_definitions
from .knowledge.model import ClaimTriple
from .provider import InferenceRouter, InferenceTask, claim_key


@dataclass
class ClaimAlignment:
    claim_a: str
    claim_b: str
    relation: str
    stance: str = "not-applicable"  # agrees | disagrees | not-applicable
    rationale: str = ""


@dataclass
class RootCause:
    category: str
    explanation: str


@dataclass
class CitationFidelityFinding:
    citing_claim: str
    cited_doc: str
    faithful: bool
    distortion_note: str | None = None


@dataclass
class AgreementRecord:
    claim_id: str
    counter_doc: str
    label: str  # corroborates | contradicts | misrepresents
    counter_claim: str | None = None
    root_cause: RootCause | None = None
    fidelity: CitationFidelityFinding | None = None


@dataclass
class IndependenceRating:
    pair: tuple[str, str]
    rating: str
    author_jaccard: float
    shared_affiliation: bool
    citation_distance: int | None  # None = infinite
    competitor_stake: bool
    weight: float
    caveat: str | None = None


@dataclass
class ConsensusScore:
    claim_id: str
    score: float
    contributions: list[dict[str, Any]] = field(default_factory=list)
    fidelity_flags: list[str] = field(default_factory=list)
    uncorroborated: bool = False


@dataclass
class RubricAssessment:
    claim_id: str
    rubric_source: str
    criteria: list[tuple[str, str, str]]  # (name, met, note)
    summary: str


# --- related-work discovery -------------------------------------------------

def citation_neighbors(citations: set[tuple[str, str]],
                       doc_ids: Iterable[str], max_hops: int) -> set[str]:
    """The docs within `max_hops` undirected citation hops of any of
    `doc_ids`, direct edges included: the adjacency is built once, then
    each document's hops are walked over it."""
    adjacency: dict[str, set[str]] = {}
    for a, b in citations:
        adjacency.setdefault(a, set()).add(b)
        adjacency.setdefault(b, set()).add(a)
    related: set[str] = set()
    for doc_id in doc_ids:
        frontier = {doc_id}
        seen = {doc_id}
        for _ in range(max_hops):
            frontier = {n for d in frontier for n in adjacency.get(d, ())} - seen
            seen |= frontier
        seen.discard(doc_id)
        related |= seen
    return related


def discover_related(claims: list[ClaimTriple], graph: KnowledgeGraph,
                     store: EmbeddingStore, router: InferenceRouter,
                     citations: set[tuple[str, str]],
                     documents: dict[str, SourceDocument],
                     cfg: CrossSourceConfig) -> list[str]:
    """Union, over the focus claims, of citation-hop, semantic-search and
    entity-sharing hits. The claims' query embeddings go out as one wave.

    The claims' own sources are excluded. Callers must push every newly
    discovered document through Layers 1-3 before comparing claims.
    """
    related = citation_neighbors(citations,
                                 {claim.doc_id for claim in claims},
                                 cfg.discovery_citation_hops)

    owner_to_doc = {owner: doc_id for doc_id in sorted(documents)
                    for owner, _ in documents[doc_id].embedded_texts()}
    hits = semantic_searches([(claim.text, None) for claim in claims],
                             cfg.discovery_top_k, store, router)
    related.update(owner_to_doc[owner] for found in hits for owner, _ in found
                   if owner in owner_to_doc)

    names: set[str] = set()
    for entity_id in set().union(*(claim.endpoints for claim in claims)):
        if entity_id in graph.nodes:
            entity = graph.nodes[entity_id]
            names.add(entity.name.lower())
            names.update(a.lower() for a in entity.aliases)
    for doc_id, doc in documents.items():
        text = doc.full_text().lower()
        if any(name in text for name in names):
            related.add(doc_id)

    related -= {claim.doc_id for claim in claims}
    return sorted(related.intersection(documents))


# --- pairwise alignment and agreement ----------------------------------------

def align_claims(a: ClaimTriple, b: ClaimTriple, router: InferenceRouter,
                 slug_a: str, slug_b: str) -> ClaimAlignment:
    task = InferenceTask("align-claims", {
        "a": a.task_payload(slug_a), "b": b.task_payload(slug_b),
    })
    output = router.invoke(task).output
    return ClaimAlignment(claim_a=a.claim_id, claim_b=b.claim_id,
                          relation=output["relation"], stance=output["stance"],
                          rationale=output.get("rationale", ""))


def check_citation_fidelity(citing: ClaimTriple,
                            cited_claims: list[ClaimTriple],
                            router: InferenceRouter, citing_slug: str,
                            cited_slug: str) -> CitationFidelityFinding:
    task = InferenceTask("citation-fidelity", {
        "citing": citing.task_payload(citing_slug),
        "cited_doc": cited_slug,
        "cited_claims": [
            {"subject": c.subject_name, "predicate": c.predicate,
             "object": c.object_name}
            for c in sorted(cited_claims, key=lambda c: c.claim_id)],
    })
    output = router.invoke(task).output
    return CitationFidelityFinding(
        citing_claim=citing.claim_id, cited_doc=cited_slug,
        faithful=output["faithful"],
        distortion_note=output.get("distortion_note"))


def analyze_contradiction(a: ClaimTriple, b: ClaimTriple,
                          router: InferenceRouter, slug_a: str,
                          slug_b: str, cfg: KnowledgeConfig) -> RootCause:
    """Root-cause a matched, opposing claim pair.

    When both claims carry metrics whose definitions are not comparable,
    the cause is a runtime-definition mismatch by construction and no
    provider call is made.
    """
    if a.metric is not None and b.metric is not None:
        try:
            verdict = compare_metric_definitions(a.metric, b.metric, cfg)
        except UnitFamilyMismatch:
            verdict = None
        if verdict is not None and not verdict.comparable:
            detail = "; ".join(verdict.discrepancies)
            return RootCause(
                category="runtime-definition-mismatch",
                explanation=f"metric definitions are not comparable: {detail}")
    task = InferenceTask("root-cause", {
        "a": a.task_payload(slug_a), "b": b.task_payload(slug_b),
    })
    output = router.invoke(task).output
    return RootCause(category=output["category"],
                     explanation=output["explanation"])


# --- independence ------------------------------------------------------------

@dataclass
class CorpusView:
    """Everything independence assessment needs about the corpus."""

    metadata: dict[str, DocumentMetadata]
    citations: set[tuple[str, str]] = field(default_factory=set)
    competitor_pairs: set[frozenset[str]] = field(default_factory=set)
    doc_orgs: dict[str, set[str]] = field(default_factory=dict)

    @cached_property
    def references(self) -> dict[str, set[str]]:
        """Forward-reference adjacency of `citations`, built on first use;
        the view is a snapshot, so its citations do not change after."""
        refs: dict[str, set[str]] = {}
        for x, y in self.citations:
            refs.setdefault(x, set()).add(y)
        return refs


def _author_names(meta: DocumentMetadata) -> set[str]:
    return {name.strip().lower() for name, _ in meta.authors if name.strip()}


def _affiliations(meta: DocumentMetadata) -> set[str]:
    return {aff.strip().lower() for _, aff in meta.authors if aff.strip()}


def _reference_closure(refs: dict[str, set[str]], start: str,
                       blocked: str) -> dict[str, int]:
    """Hop counts to every document reachable by following references
    forward from `start`, never passing through `blocked`."""
    hops: dict[str, int] = {}
    frontier = {start}
    depth = 0
    while frontier:
        depth += 1
        frontier = {n for d in frontier for n in refs.get(d, ())
                    if n != blocked and n not in hops and n != start}
        for node in frontier:
            hops[node] = depth
    return hops


def intermediary_citation_distance(refs: dict[str, set[str]], a: str,
                                   b: str) -> int | None:
    """Bibliographic-coupling proximity over a reference index
    (`CorpusView.references`): how close the two documents' reference
    lineages come, counted in shared ancestors.

    Distance 1 means they cite a common work directly. A rebuttal citing
    the work it evaluates is not shared lineage, so paths through the pair
    itself never count (that edge still counts for discovery).
    """
    if a == b:
        return 0
    closure_a = _reference_closure(refs, a, blocked=b)
    closure_b = _reference_closure(refs, b, blocked=a)
    common = set(closure_a) & set(closure_b)
    if not common:
        return None
    return min(closure_a[x] + closure_b[x] - 1 for x in common)


def assess_independence(a: str, b: str, corpus: CorpusView,
                        cfg: CrossSourceConfig) -> IndependenceRating:
    """Deterministic bibliometric rule; symmetric in the pair."""
    first, second = sorted((a, b))
    meta_a = corpus.metadata.get(first)
    meta_b = corpus.metadata.get(second)
    weights = {"high": cfg.weight_high, "medium": cfg.weight_medium,
               "low": cfg.weight_low}

    caveat = None
    authors_a = _author_names(meta_a) if meta_a else set()
    authors_b = _author_names(meta_b) if meta_b else set()
    if not authors_a or not authors_b:
        return IndependenceRating(
            pair=(first, second), rating="medium", author_jaccard=0.0,
            shared_affiliation=False, citation_distance=None,
            competitor_stake=False, weight=weights["medium"],
            caveat="author metadata unknown; defaulting to medium")

    union = authors_a | authors_b
    jaccard = len(authors_a & authors_b) / len(union) if union else 0.0
    shared_affiliation = bool(_affiliations(meta_a) & _affiliations(meta_b))
    distance = intermediary_citation_distance(corpus.references, first,
                                              second)
    orgs_a = corpus.doc_orgs.get(first, set())
    orgs_b = corpus.doc_orgs.get(second, set())
    competitor = any(frozenset((x, y)) in corpus.competitor_pairs
                     for x in orgs_a for y in orgs_b)

    if jaccard >= cfg.author_jaccard_low or shared_affiliation:
        rating = "low"
    elif (distance is not None and distance <= cfg.citation_distance_medium) \
            or competitor:
        rating = "medium"
    else:
        rating = "high"
    return IndependenceRating(
        pair=(first, second), rating=rating, author_jaccard=jaccard,
        shared_affiliation=shared_affiliation, citation_distance=distance,
        competitor_stake=competitor, weight=weights[rating], caveat=caveat)


# --- consensus ----------------------------------------------------------------

_SIGNS = {"corroborates": 1.0, "contradicts": -1.0}


def compute_consensus(claim: ClaimTriple, records: list[AgreementRecord],
                      ratings: dict[str, IndependenceRating],
                      consistency: dict[str, float]) -> ConsensusScore:
    """Signed weighted mean of agreement records.

    Weight = independence weight x the counter-doc's internal consistency.
    Misrepresents records never move the score; each contributes exactly one
    fidelity flag. An empty record set scores 0, flagged uncorroborated.
    """
    contributions: list[dict[str, Any]] = []
    fidelity_flags: list[str] = []
    numerator = 0.0
    denominator = 0.0
    for record in sorted(records, key=lambda r: r.counter_doc):
        if record.label == "misrepresents":
            note = (record.fidelity.distortion_note
                    if record.fidelity and record.fidelity.distortion_note
                    else "cited result misrepresented")
            fidelity_flags.append(f"{record.counter_doc}: {note}")
            continue
        rating = ratings.get(record.counter_doc)
        if rating is None:
            raise MissingRating(
                f"no independence rating for counter-doc {record.counter_doc}")
        if record.counter_doc not in consistency:
            raise MissingConsistency(
                f"no consistency score for counter-doc {record.counter_doc}")
        weight = rating.weight * consistency[record.counter_doc]
        sign = _SIGNS[record.label]
        numerator += weight * sign
        denominator += weight
        contributions.append({
            "counter_doc": record.counter_doc, "label": record.label,
            "independence": rating.rating, "weight": weight, "sign": sign,
        })
    if denominator == 0.0:
        return ConsensusScore(claim_id=claim.claim_id, score=0.0,
                              contributions=contributions,
                              fidelity_flags=fidelity_flags,
                              uncorroborated=True)
    score = numerator / denominator
    score = max(-1.0, min(1.0, score))
    return ConsensusScore(claim_id=claim.claim_id, score=score,
                          contributions=contributions,
                          fidelity_flags=fidelity_flags)


# --- external rubric -----------------------------------------------------------

def enumerate_rubric_criteria(rubric_doc: SourceDocument) -> list[str]:
    """Criterion names from a criteria-style section ("Name: description")."""
    section = rubric_doc.find_section("criteri", "keystone", "properties",
                                      "rubric")
    if section is None:
        raise RubricNotEnumerable(
            f"document {rubric_doc.slug} has no criteria section")
    names: list[str] = []
    for _, text in section.passages:
        head = text.split(":", 1)[0].strip()
        if 0 < len(head) <= 60 and ":" in text:
            names.append(head)
    if not names:
        raise RubricNotEnumerable(
            f"criteria section of {rubric_doc.slug} lists no criteria")
    return names


def evaluate_rubric(claim_cluster: list[ClaimTriple],
                    rubric_doc: SourceDocument, router: InferenceRouter,
                    cluster_slugs: dict[str, str]) -> RubricAssessment:
    if not claim_cluster:
        raise RubricNotEnumerable("empty claim cluster")
    criteria = enumerate_rubric_criteria(rubric_doc)
    primary = sorted(claim_cluster, key=lambda c: c.claim_id)[0]
    cluster_subject = primary.subject_name
    task = InferenceTask("rubric", {
        "rubric_doc": rubric_doc.slug,
        "criteria": criteria,
        "cluster_subject": cluster_subject,
        "cluster": sorted(
            claim_key(c.task_payload(cluster_slugs.get(c.doc_id, c.doc_id)))
            for c in claim_cluster),
    })
    output = router.invoke(task).output
    graded = {row["name"]: (row["met"], row["note"])
              for row in output["criteria"]}
    if set(graded) != set(criteria):
        raise SchemaViolation(
            f"rubric response must grade exactly {sorted(criteria)}, "
            f"got {sorted(graded)}")
    rows = [(name, graded[name][0], graded[name][1]) for name in criteria]
    fully = sum(1 for _, met, _ in rows if met == "yes")
    return RubricAssessment(
        claim_id=primary.claim_id, rubric_source=rubric_doc.doc_id,
        criteria=rows, summary=f"{fully}/{len(rows)} fully met")
