"""Layer 3: intra-document verification.

Aligns each claim to in-document evidence via NLI-style judgments, checks
methodology-result coherence, detects overclaims, and folds everything into
per-claim verdicts and a document consistency score (the fraction of claims
fully supported by internal evidence).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .corpus.model import SourceDocument
from .knowledge.model import ClaimTriple
from .provider import InferenceRouter, InferenceTask

VERDICTS = ("supports", "partial", "overclaim", "neutral", "contradicted")
SEVERITY_ORDER = {"minor": 0, "moderate": 1, "severe": 2}


@dataclass
class EvidenceLink:
    claim_id: str
    evidence_id: str            # passage_id or asset_id
    nli_label: str
    rationale: str = ""
    self_evidence: bool = False  # claim's own source passage; low weight


@dataclass
class CoherenceFlag:
    doc_id: str
    dimension: str  # scope-consistency | baseline-fairness | reproducibility
    severity: str   # minor | moderate | severe
    note: str


@dataclass
class OverclaimAnnotation:
    claim_id: str
    issue: str      # overgeneralization | extreme-value-reporting | ...
    severity: str   # moderate | severe
    claim_text: str
    evidence_text: str


@dataclass
class ClaimVerdict:
    claim_id: str
    verdict: str
    link_evidence_ids: list[str] = field(default_factory=list)
    annotation_issues: list[str] = field(default_factory=list)


@dataclass
class ConsistencyReport:
    doc_id: str
    verdicts: dict[str, str]            # claim_id -> verdict
    counts: dict[str, int]
    consistency_score: float
    empty_document: bool = False


def evidence_owners(doc: SourceDocument) -> set[str]:
    """What a claim's evidence search may return: the owners of the
    document's embedded texts."""
    return {owner for owner, _ in doc.embedded_texts()}


def evidence_candidates(claim: ClaimTriple, doc: SourceDocument,
                        hits: list[tuple[str, float]]) -> dict[str, str]:
    """Evidence id -> text to NLI-label, in id order: the claim's semantic
    hits among `evidence_owners(doc)` plus its own source passages. Asset
    descriptions participate like passages."""
    texts = dict(doc.embedded_texts())
    owners = {owner for owner, _ in hits}.union(claim.passage_ids)
    return {owner: texts.get(owner, "") for owner in sorted(owners)}


def judge_evidence(claim: ClaimTriple, doc_slug: str, evidence_id: str,
                   text: str, router: InferenceRouter) -> EvidenceLink:
    task = InferenceTask("nli-verdict", {
        "claim": claim.task_payload(doc_slug),
        "passage": {"owner": evidence_id, "text": text},
    })
    output = router.invoke(task).output
    return EvidenceLink(claim_id=claim.claim_id, evidence_id=evidence_id,
                        nli_label=output["label"],
                        rationale=output.get("rationale", ""),
                        self_evidence=evidence_id in claim.passage_ids)


def assess_coherence(doc: SourceDocument, claims: list[ClaimTriple],
                     router: InferenceRouter) -> list[CoherenceFlag]:
    """Methodology-result coherence over scope, baselines, reproducibility.

    One flag per dimension at most. Documents without identifiable methods
    and results sections get a single reproducibility flag instead of a
    provider call.
    """
    methods = doc.find_section("method", "approach", "implementation")
    results = doc.find_section("result", "evaluation", "experiment", "benchmark")
    if methods is None or results is None:
        return [CoherenceFlag(
            doc_id=doc.doc_id, dimension="reproducibility", severity="moderate",
            note="no identifiable methods/results sections to audit")]

    task = InferenceTask("coherence", {
        "doc": {"slug": doc.slug},
        "sections": {
            "methods": " ".join(t for _, t in methods.passages),
            "results": " ".join(t for _, t in results.passages),
        },
        "claims": sorted(f"{c.subject_name}|{c.predicate}" for c in claims),
    })
    output = router.invoke(task).output
    best: dict[str, CoherenceFlag] = {}
    for row in output["flags"]:
        flag = CoherenceFlag(doc_id=doc.doc_id, dimension=row["dimension"],
                             severity=row["severity"], note=row["note"])
        kept = best.get(flag.dimension)
        if kept is None or SEVERITY_ORDER[flag.severity] > SEVERITY_ORDER[kept.severity]:
            best[flag.dimension] = flag
    return [best[d] for d in sorted(best)]


def detect_overclaims(doc: SourceDocument, claims: list[ClaimTriple],
                      router: InferenceRouter) -> list[OverclaimAnnotation]:
    """Flag statements exceeding their evidence; annotations cite both the
    claim text and the conflicting evidence location."""
    task = InferenceTask("overclaim", {
        "doc": {"slug": doc.slug, "text": doc.full_text()},
        "claims": [{"subject": c.subject_name, "predicate": c.predicate,
                    "object": c.object_name}
                   for c in sorted(claims, key=lambda c: c.claim_id)],
    })
    output = router.invoke(task).output
    by_key = {(c.subject_name, c.predicate): c
              for c in sorted(claims, key=lambda c: c.claim_id)}
    annotations: list[OverclaimAnnotation] = []
    for row in output["annotations"]:
        claim = by_key.get((row["subject"], row["predicate"]))
        if claim is None:
            continue
        annotations.append(OverclaimAnnotation(
            claim_id=claim.claim_id, issue=row["issue"],
            severity=row["severity"], claim_text=row["claim_text"],
            evidence_text=row["evidence_text"]))
    return annotations


def derive_claim_verdict(claim: ClaimTriple, links: list[EvidenceLink],
                         annotations: list[OverclaimAnnotation]) -> ClaimVerdict:
    """Pure aggregation rule. Overclaim annotations dominate link labels;
    otherwise verdicts follow the supports/contradicts mix."""
    own_annotations = [a for a in annotations if a.claim_id == claim.claim_id]
    own_links = [l for l in links if l.claim_id == claim.claim_id]
    supports = [l for l in own_links if l.nli_label == "supports"]
    contradicts = [l for l in own_links if l.nli_label == "contradicts"]

    if own_annotations:
        verdict = "overclaim"
    elif supports and not contradicts:
        verdict = "supports"
    elif supports and contradicts:
        verdict = "partial"
    elif contradicts:
        verdict = "contradicted"
    else:
        verdict = "neutral"
    return ClaimVerdict(
        claim_id=claim.claim_id, verdict=verdict,
        link_evidence_ids=sorted(l.evidence_id for l in own_links),
        annotation_issues=sorted(a.issue for a in own_annotations))


def consistency_score(doc_id: str, verdicts: list[ClaimVerdict]) -> ConsistencyReport:
    counts = {v: 0 for v in VERDICTS}
    for verdict in verdicts:
        counts[verdict.verdict] += 1
    if not verdicts:
        return ConsistencyReport(doc_id=doc_id, verdicts={}, counts=counts,
                                 consistency_score=0.0, empty_document=True)
    score = counts["supports"] / len(verdicts)
    return ConsistencyReport(
        doc_id=doc_id,
        verdicts={v.claim_id: v.verdict
                  for v in sorted(verdicts, key=lambda v: v.claim_id)},
        counts=counts, consistency_score=score)
