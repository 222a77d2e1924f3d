"""Golden-run details beyond the acceptance gate: alignment relations,
root causes, overclaim issues, hypothesis bundles, transcript closure."""

from __future__ import annotations

import re

import pytest

from claimcheck.assess import generate_hypotheses
from claimcheck.config import KnowledgeConfig
from claimcheck.errors import SchemaViolation, UnresolvedSubject
from claimcheck.knowledge import EntityRegistry, extract_docs
from claimcheck.corpus import ingest_document
from claimcheck.pipeline import ProviderSpec
from claimcheck.provider import ScriptedProvider

from conftest import (PLAYBOOK, StubProvider, dir_digest, make_router,
                      run_golden, scripted_spec)
from test_corpus import manifest_bytes


def claim_key(golden, claim_id):
    claim = golden.claims[claim_id]
    return (f"{golden.slug_of(claim.doc_id)}:"
            f"{claim.subject_name}|{claim.predicate}")


# --- extraction edge cases --------------------------------------------------

def test_doc_without_assertive_text_yields_no_claims(golden):
    e1 = golden.doc_by_slug("e1-keystone-criteria")
    assert golden.doc_claims[e1.doc_id] == []
    assert golden.doc_entities[e1.doc_id] == []
    report = golden.consistency[e1.doc_id]
    assert report.empty_document is True
    assert report.consistency_score == 0.0


def _claims_router(*passages):
    """A router whose `extract-claims` output for "mini" is one claim by
    "Known Thing" citing `passages`."""
    return make_router(ScriptedProvider({"extract-claims": {"mini": {
        "claims": [{"subject": "Known Thing", "predicate": "does",
                    "object": "x", "passages": list(passages)}]}}}))


def test_extract_claims_unresolved_subject():
    doc = ingest_document(manifest_bytes(), "json-manifest")
    registry = EntityRegistry(KnowledgeConfig())
    registry.register("Known Thing", "other")
    router = make_router(StubProvider(lambda t, tag, i: {
        "extract-entities": {"entities": []},
        "extract-claims": {"claims": [
            {"subject": "Unknown Thing", "predicate": "does", "object": "x",
             "passages": [[0, 0]]}]}}[t.kind]))
    with pytest.raises(UnresolvedSubject):
        extract_docs([doc], router, registry)


@pytest.mark.parametrize("pair", [[99, 0], [0, 2], [-1, 0], [0, -1]])
def test_extract_claims_rejects_a_passage_the_document_lacks(pair):
    # "mini" has one section of two passages; a negative index does not
    # count from the end.
    doc = ingest_document(manifest_bytes(), "json-manifest")
    registry = EntityRegistry(KnowledgeConfig())
    registry.register("Known Thing", "other")
    message = (f"extract-claims output for mini names no passage: "
               f"[{pair[0]}, {pair[1]}]")
    with pytest.raises(SchemaViolation, match=re.escape(message)):
        extract_docs([doc], _claims_router([0, 0], pair), registry)


def test_extract_claims_takes_an_integral_float_as_a_passage_index():
    # jsonschema's "integer" accepts 1.0, so the output reaches the fold.
    doc = ingest_document(manifest_bytes(), "json-manifest")
    claims = []
    for index in (1.0, 1):
        registry = EntityRegistry(KnowledgeConfig())
        registry.register("Known Thing", "other")
        [(_, found)] = extract_docs([doc], _claims_router([0, index]),
                                    registry)
        claims += found
    assert claims[0].passage_ids == [doc.sections[0].passages[1][0]]
    assert claims[0] == claims[1]


def test_golden_provenance_spread(golden, golden_claims):
    assert golden_claims["s1-target:BF-DCQO|executed-on"].provenance.level == 1
    assert golden_claims[
        "s1-target:BF-DCQO|projected-to-achieve"].provenance.level == 5
    assert golden_claims["s1-target:HUBO|generalizes"].provenance.level == 4
    assert golden_claims["s1-target:BF-DCQO|uses"].provenance.level == 3


# --- alignments and root causes -----------------------------------------------

def test_golden_alignment_relations(golden, golden_claims):
    headline = golden_claims["s1-target:BF-DCQO|achieves"]
    softened = golden_claims["s3-reframing:BF-DCQO|maintains-performance-at"]
    wallclock = golden_claims["r1-wallclock-rebuttal:BF-DCQO|shows-runtime"]
    relations = {}
    for alignment in golden.alignments.values():
        relations[frozenset((alignment.claim_a, alignment.claim_b))] = \
            alignment
    opposed = relations[frozenset((headline.claim_id, wallclock.claim_id))]
    assert opposed.relation == "matched"
    assert opposed.stance == "disagrees"
    partial = relations[frozenset((headline.claim_id, softened.claim_id))]
    assert partial.relation == "partially-overlapping"


def test_golden_partial_overlap_excluded_from_consensus(golden,
                                                        golden_claims):
    headline = golden_claims["s1-target:BF-DCQO|achieves"]
    consensus = golden.consensus[headline.claim_id]
    s3 = golden.doc_by_slug("s3-reframing")
    # s3 appears only as a fidelity flag (misrepresents), never a weight
    assert all(c["counter_doc"] != s3.doc_id
               for c in consensus.contributions)


def test_golden_root_causes_cover_three_categories(golden, golden_claims):
    by_pair = {}
    for record in golden.agreements:
        if record.root_cause is not None:
            by_pair[(claim_key(golden, record.claim_id),
                     golden.slug_of(record.counter_doc))] = \
                record.root_cause.category
    assert by_pair[("s1-target:BF-DCQO|achieves-runtime",
                    "r1-wallclock-rebuttal")] == "runtime-definition-mismatch"
    assert by_pair[("s1-target:BF-DCQO|achieves",
                    "s4-cross-solver-benchmark")] == "baseline-selection"
    assert by_pair[("s1-target:BF-DCQO|achieves-median-enhancement",
                    "r1-wallclock-rebuttal")] == "statistical-sampling"


def test_golden_auto_root_cause_has_no_transcript_dependency(golden,
                                                             golden_claims):
    # the runtime-definition record was derived from metric comparison, so
    # its explanation names the definitional mismatch
    runtime = golden_claims["s1-target:BF-DCQO|achieves-runtime"]
    r1 = golden.doc_by_slug("r1-wallclock-rebuttal")
    record = next(r for r in golden.agreements
                  if r.claim_id == runtime.claim_id
                  and r.counter_doc == r1.doc_id)
    assert "not comparable" in record.root_cause.explanation


# --- overclaims -----------------------------------------------------------------

def test_golden_conclusion_claim_carries_two_issues(golden, golden_claims):
    conclusion = golden_claims["s1-target:BF-DCQO|solves"]
    issues = {a.issue for a in golden.overclaims
              if a.claim_id == conclusion.claim_id}
    assert issues == {"scope-inflation", "extreme-value-reporting"}
    assert golden.verdicts[conclusion.claim_id].verdict == "overclaim"


def test_golden_overclaim_total_is_four_annotations(golden):
    assert len(golden.overclaims) == 4
    claim_ids = {a.claim_id for a in golden.overclaims}
    assert len(claim_ids) == 3  # three overclaim verdicts


# --- hypotheses ------------------------------------------------------------------

def test_golden_counter_hypotheses(golden):
    counters = {row.hypothesis.statement: [a.statement
                                           for a in row.alternatives]
                for row in golden.matrix}
    assert counters["The reported runtime quantum advantage is genuine"] == \
        ["The reported advantage is a measurement artifact of excluded "
         "overheads"]
    assert counters["The quantum processor contributes materially to "
                    "end-to-end performance"] == \
        ["Classical iteration alone suffices to reach the same solution "
         "quality"]
    for row in golden.matrix:
        for alternative in row.alternatives:
            assert alternative.is_counter
            assert alternative.parent == row.hypothesis.hypothesis_id


def test_generate_hypotheses_single_sample():
    from claimcheck.assess import build_evidence_profile
    from claimcheck.crosssource import ConsensusScore
    from claimcheck.intradoc import ClaimVerdict
    from claimcheck.knowledge import ProvenanceLevel
    from test_intradoc import make_claim

    claim = make_claim()
    claim.provenance = ProvenanceLevel(1)
    profile = build_evidence_profile(
        claim, ClaimVerdict(claim_id=claim.claim_id, verdict="supports"),
        ConsensusScore(claim_id=claim.claim_id, score=0.5), [], [],
        source_slug="doc-a")

    def backend(task, tag, i):
        if task.kind == "hypothesize":
            return {"statement": "the effect is real", "conclusion": "real"}
        return {"statement": "the effect is an artifact"}

    bundle = generate_hypotheses(profile, make_router(StubProvider(backend)),
                                 n_samples=1, models=["analyst-a"])
    assert bundle.primary is not None
    assert bundle.counter is not None
    assert bundle.samples == ["real"]
    assert bundle.agreement == (1, 1)


def test_golden_runtime_profile_shape(golden, golden_claims):
    headline = golden_claims["s1-target:BF-DCQO|achieves"]
    profile = next(p for p in golden.profiles
                   if p.claim.claim_id == headline.claim_id)
    assert profile.provenance_level == 1
    assert profile.verdict.verdict == "overclaim"
    assert profile.consensus.score < 0
    assert profile.coi_context
    assert profile.rubric_summary == "0/5 fully met"


# --- transcript closure -------------------------------------------------------------

def test_scripted_transcript_replays_to_identical_outputs(tmp_path):
    scripted = run_golden(tmp_path / "live", spec=scripted_spec())
    replayed = run_golden(
        tmp_path / "replayed",
        spec=ProviderSpec(mode="replay",
                          fixtures=str(tmp_path / "live" / "transcript")))
    # pipeline outputs are byte-identical; only the manifest's provider
    # record differs between the two runs
    for section in ("store", "report", "transcript"):
        assert dir_digest(tmp_path / "live" / section) == \
            dir_digest(tmp_path / "replayed" / section), section


def test_scripted_provider_parses_playbook():
    provider = ScriptedProvider.from_path(PLAYBOOK)
    assert "extract-entities" in provider.playbook
    assert "nli-verdict" in provider.playbook
