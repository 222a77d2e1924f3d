"""Layer 6: evidence fusion, hypothesis matrix, and final labels.

Fuses per-claim enrichments from Layers 2-5 into evidence profiles,
generates hypotheses with adversarial counter-hypotheses, scores stability
via semantic entropy over sampled conclusions, and assigns the final
supported / needs-review / likely-hallucination labels plus maturity and
alpha-signal assessments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

from .config import AssessConfig
from .crosssource import ConsensusScore
from .errors import (AllSlotsFailed, ClaimcheckError, EmptySamples,
                     IncompleteEnrichment, NoProfiles)
from .ids import make_id
from .intradoc import ClaimVerdict, CoherenceFlag
from .knowledge.model import ClaimTriple
from .provider import InferenceRouter, InferenceTask, claim_key
from .records import decode_fields, encode_fields
from .signals import COIFlag, StrategicEvent


@dataclass
class EvidenceProfile:
    claim: ClaimTriple
    verdict: ClaimVerdict
    consensus: ConsensusScore
    coherence_flags: list[CoherenceFlag] = field(default_factory=list)
    coi_context: list[COIFlag] = field(default_factory=list)
    rubric_summary: str | None = None
    source_slug: str = ""

    @property
    def provenance_level(self) -> int:
        return self.claim.provenance.level

    def to_record(self) -> dict[str, Any]:
        """The fields plus the claim's id and provenance level as top-level
        keys, for readers of `profiles.jsonl`."""
        record = encode_fields(self)
        record["claim_id"] = self.claim.claim_id
        record["provenance"] = self.provenance_level
        return record

    @classmethod
    def from_record(cls, data: dict[str, Any]) -> "EvidenceProfile":
        return decode_fields(cls, {k: v for k, v in data.items()
                                   if k not in ("claim_id", "provenance")})


@dataclass
class Hypothesis:
    hypothesis_id: str
    statement: str
    supporting_refs: list[str] = field(default_factory=list)
    is_counter: bool = False
    parent: str | None = None


@dataclass
class HypothesisRow:
    hypothesis: Hypothesis
    evidence_refs: list[str]
    cross_source: str
    entropy: float
    model_agreement: tuple[int, int]
    confidence: str
    alternatives: list[Hypothesis]
    status: str


@dataclass
class MaturityAssessment:
    trl_low: int
    trl_high: int
    rationale: str


@dataclass
class AlphaSignal:
    claim_id: str
    dimensions_converging: list[str]
    note: str


def build_evidence_profile(claim: ClaimTriple,
                           verdict: ClaimVerdict | None,
                           consensus: ConsensusScore | None,
                           coherence_flags: list[CoherenceFlag],
                           coi_context: list[COIFlag],
                           rubric_summary: str | None = None,
                           source_slug: str = "") -> EvidenceProfile:
    """Assemble the unified profile; absent optional parts stay absent, but a
    missing required layer is an error naming that layer."""
    if claim.provenance is None:
        raise IncompleteEnrichment("knowledge")
    if verdict is None:
        raise IncompleteEnrichment("intradoc")
    if consensus is None:
        raise IncompleteEnrichment("crosssource")
    return EvidenceProfile(claim=claim, verdict=verdict, consensus=consensus,
                           coherence_flags=coherence_flags,
                           coi_context=coi_context,
                           rubric_summary=rubric_summary,
                           source_slug=source_slug)


def semantic_entropy(samples: list[str]) -> float:
    """Shannon entropy over equality clusters of conclusion labels."""
    if not samples:
        raise EmptySamples("semantic entropy needs at least one sample")
    counts: dict[str, int] = {}
    for label in samples:
        counts[label] = counts.get(label, 0) + 1
    total = len(samples)
    entropy = 0.0
    for count in counts.values():
        p = count / total
        entropy -= p * math.log(p)
    return max(0.0, entropy)


def confidence_level(entropy: float, agreement: tuple[int, int],
                     cfg: AssessConfig) -> str:
    agreeing, total = agreement
    if total < 1:
        raise ValueError("agreement total must be >= 1")
    if entropy >= cfg.entropy_low_confidence or agreeing <= total / 2:
        return "low"
    if entropy <= cfg.entropy_high_confidence and agreeing == total:
        return "high"
    return "medium"


def cross_source_label(consensus: ConsensusScore,
                       cfg: AssessConfig) -> str:
    """Matrix column label. `consensus` marks unanimous corroboration from
    at least two sources; otherwise the score bands decide."""
    contributions = consensus.contributions
    if (len(contributions) >= 2
            and all(c["label"] == "corroborates" for c in contributions)):
        return "consensus"
    if consensus.score >= cfg.status_supported_consensus:
        return "supported"
    if consensus.score <= -cfg.cross_source_band:
        return "contradicted"
    return "mixed"


def assign_status(consensus_score: float, independent_contradicting: int,
                  claimant_self_corrected: bool, confidence: str,
                  cfg: AssessConfig) -> str:
    """Final label rule.

    likely-hallucination needs strongly negative consensus plus either two
    independent contradicting sources or one plus a self-correction event by
    the claimant; supported needs positive consensus and non-low confidence.
    """
    if consensus_score <= cfg.status_hallucination_consensus and (
            independent_contradicting >= 2
            or (independent_contradicting >= 1 and claimant_self_corrected)):
        return "likely-hallucination"
    if consensus_score >= cfg.status_supported_consensus and confidence != "low":
        return "supported"
    return "needs-review"


def independent_contradicting_count(consensus: ConsensusScore) -> int:
    return sum(1 for c in consensus.contributions
               if c["label"] == "contradicts"
               and c["independence"] in ("high", "medium"))


@dataclass
class HypothesisBundle:
    primary: Hypothesis | None
    counter: Hypothesis | None
    samples: list[str]
    agreement: tuple[int, int]


def generate_hypotheses(profile: EvidenceProfile, router: InferenceRouter,
                        n_samples: int, models: list[str]) -> HypothesisBundle:
    """Sample hypothesis conclusions across models and draft the adversarial
    counter-hypothesis with a directed prompt (not a resample).

    Slots go in (provider tag, sample index) order, whatever order `models`
    lists them in; a slot whose call fails is skipped. The calls go one at a
    time and start no wave, since layer 6 runs this function inside one.
    """
    handle = claim_key(profile.claim.task_payload(profile.source_slug))
    task = InferenceTask("hypothesize", {
        "profile": {
            "claim": handle,
            "statement_seed": profile.claim.text,
            "verdict": profile.verdict.verdict,
            "consensus": round(profile.consensus.score, 6),
            "provenance": profile.provenance_level,
        },
    })
    statement: str | None = None
    samples: list[str] = []
    model_conclusions: dict[str, list[str]] = {}
    answered = 0
    for tag in sorted(models):
        for index in range(n_samples):
            try:
                output = router.invoke(task, provider_tag=tag,
                                       sample_index=index).output
            except ClaimcheckError:
                continue
            answered += 1
            if statement is None and output.get("statement"):
                statement = output["statement"]
            conclusion = output.get("conclusion")
            if conclusion:
                samples.append(conclusion)
                model_conclusions.setdefault(tag, []).append(conclusion)
    if not answered:
        raise AllSlotsFailed(
            f"all {len(models) * n_samples} hypothesis slots failed for task "
            f"{task.fingerprint} ({task.kind})")

    if statement is None:
        return HypothesisBundle(primary=None, counter=None, samples=[],
                                agreement=(0, max(1, len(models))))

    # Model agreement: how many models' modal conclusion matches the overall
    # modal conclusion.
    total = len(model_conclusions)
    agreeing = 0
    if samples:
        overall = _modal(samples)
        agreeing = sum(1 for conclusions in model_conclusions.values()
                       if _modal(conclusions) == overall)

    primary = Hypothesis(
        hypothesis_id=make_id("hyp", profile.claim.claim_id, statement),
        statement=statement,
        supporting_refs=[profile.claim.claim_id], is_counter=False)
    counter_task = InferenceTask("counter-hypothesize", {
        "claim": handle, "hypothesis": statement,
    })
    counter_output = router.invoke(counter_task).output
    counter = Hypothesis(
        hypothesis_id=make_id("hyp", profile.claim.claim_id,
                              counter_output["statement"], "counter"),
        statement=counter_output["statement"],
        supporting_refs=[profile.claim.claim_id], is_counter=True,
        parent=primary.hypothesis_id)
    return HypothesisBundle(primary=primary, counter=counter, samples=samples,
                            agreement=(agreeing, max(1, total)))


def _modal(labels: list[str]) -> str:
    counts: dict[str, int] = {}
    for label in labels:
        counts[label] = counts.get(label, 0) + 1
    return sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[0][0]


def build_hypothesis_row(profile: EvidenceProfile, bundle: HypothesisBundle,
                         self_corrected: bool,
                         cfg: AssessConfig) -> HypothesisRow | None:
    if bundle.primary is None:
        return None
    entropy = semantic_entropy(bundle.samples) if bundle.samples else 0.0
    confidence = confidence_level(entropy, bundle.agreement, cfg)
    status = assign_status(
        profile.consensus.score,
        independent_contradicting_count(profile.consensus),
        self_corrected, confidence, cfg)
    return HypothesisRow(
        hypothesis=bundle.primary,
        evidence_refs=sorted({profile.claim.claim_id,
                              *(c["counter_doc"]
                                for c in profile.consensus.contributions)}),
        cross_source=cross_source_label(profile.consensus, cfg),
        entropy=round(entropy, 6),
        model_agreement=bundle.agreement,
        confidence=confidence,
        alternatives=[bundle.counter] if bundle.counter else [],
        status=status)


def assess_maturity(profiles: list[EvidenceProfile],
                    timeline: list[StrategicEvent],
                    statuses: dict[str, str],
                    hardware_kinds: dict[str, str],
                    cfg: AssessConfig) -> MaturityAssessment:
    """Readiness-band rubric over the fused evidence.

    Base band is theoretical (1,3). Independently-confirmed hardware
    execution lifts the floor to 4; a product launch lifts the ceiling to 5;
    an independently supported value-proposition claim lifts it to 6+.
    """
    if not profiles:
        raise NoProfiles("maturity assessment needs at least one profile")
    trl_low, trl_high = 1, 3
    reasons: list[str] = []

    hardware_confirmed = any(
        p.provenance_level == 1
        and p.claim.predicate in cfg.hardware_execution_predicates
        and hardware_kinds.get(p.claim.object) == "hardware"
        and p.consensus.score >= 0.5
        for p in profiles)
    if hardware_confirmed:
        trl_low = max(trl_low, 4)
        trl_high = max(trl_high, 4)
        reasons.append("hardware execution independently confirmed")

    if any(e.kind == "product-launch" for e in timeline):
        trl_high = max(trl_high, 5)
        reasons.append("commercial product launched")

    value_supported = any(
        p.claim.predicate in cfg.value_proposition_predicates
        and statuses.get(p.claim.claim_id) == "supported"
        and any(c["independence"] == "high" and c["label"] == "corroborates"
                and c["counter_doc"] != p.claim.doc_id
                for c in p.consensus.contributions)
        for p in profiles)
    if value_supported:
        trl_high = max(trl_high, 6)
        reasons.append("value proposition independently supported")
    else:
        reasons.append("core value proposition not independently established")

    trl_low = min(max(trl_low, 1), 9)
    trl_high = min(max(trl_high, trl_low), 9)
    return MaturityAssessment(trl_low=trl_low, trl_high=trl_high,
                              rationale="; ".join(reasons))


def detect_alpha(profiles: list[EvidenceProfile],
                 cfg: AssessConfig) -> list[AlphaSignal]:
    """Claims where every layer converges positively: strong provenance,
    supported verdict, high-independence corroborated consensus, and no COI
    on the asserting organization."""
    signals: list[AlphaSignal] = []
    for profile in sorted(profiles, key=lambda p: p.claim.claim_id):
        if profile.provenance_level not in (1, 2):
            continue
        if profile.verdict.verdict != "supports":
            continue
        if profile.consensus.score < cfg.alpha_consensus:
            continue
        if not any(c["independence"] == "high" and c["label"] == "corroborates"
                   and c["counter_doc"] != profile.claim.doc_id
                   for c in profile.consensus.contributions):
            continue
        if profile.coi_context:
            continue
        signals.append(AlphaSignal(
            claim_id=profile.claim.claim_id,
            dimensions_converging=["knowledge", "intradoc", "crosssource",
                                   "signals"],
            note="provenance, internal verdict, independent consensus, and "
                 "signal profile all converge positively"))
    return signals
