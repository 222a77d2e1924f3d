"""Layer 6: entropy, confidence, status labels, maturity, alpha, reporting."""

from __future__ import annotations

import json
import math
import random

import pytest

from claimcheck.assess import (assess_maturity,
                               assign_status, build_evidence_profile,
                               confidence_level, cross_source_label,
                               detect_alpha, generate_hypotheses,
                               semantic_entropy)
from claimcheck.config import AssessConfig
from claimcheck.crosssource import ConsensusScore
from claimcheck.errors import (AllSlotsFailed, EmptySamples,
                               IncompleteEnrichment, NoProfiles,
                               ProviderFailure)
from claimcheck.intradoc import ClaimVerdict
from claimcheck.knowledge import ProvenanceLevel
from claimcheck.report import narrative_report, render_report
from claimcheck.signals import StrategicEvent

from conftest import StubProvider, make_router
from test_intradoc import make_claim

ASSESS = AssessConfig()


# --- semantic entropy ------------------------------------------------------------

def test_entropy_unanimous_zero():
    assert semantic_entropy(["A", "A", "A"]) == 0.0


def test_entropy_two_one_split():
    assert semantic_entropy(["A", "A", "B"]) == pytest.approx(0.6365,
                                                              abs=1e-4)


def test_entropy_uniform_three():
    assert semantic_entropy(["A", "B", "C"]) == pytest.approx(math.log(3))


def test_entropy_empty_samples():
    with pytest.raises(EmptySamples):
        semantic_entropy([])


def test_entropy_properties_fuzz():
    rng = random.Random(12)
    labels = ["A", "B", "C", "D"]
    for _ in range(500):
        samples = [rng.choice(labels) for _ in range(rng.randint(1, 12))]
        entropy = semantic_entropy(samples)
        assert entropy >= 0.0
        assert (entropy == 0.0) == (len(set(samples)) == 1)
        assert entropy <= math.log(len(set(samples))) + 1e-12
        shuffled = list(samples)
        rng.shuffle(shuffled)
        assert semantic_entropy(shuffled) == pytest.approx(entropy)


# --- confidence --------------------------------------------------------------------

def test_confidence_high():
    assert confidence_level(0.12, (3, 3), ASSESS) == "high"


def test_confidence_low_by_entropy_or_split():
    assert confidence_level(0.68, (1, 3), ASSESS) == "low"
    assert confidence_level(0.1, (1, 3), ASSESS) == "low"
    assert confidence_level(0.9, (3, 3), ASSESS) == "low"


def test_confidence_medium_band():
    assert confidence_level(0.4, (2, 3), ASSESS) == "medium"
    # low entropy without unanimity is not high
    assert confidence_level(0.2, (2, 3), ASSESS) == "medium"


def test_confidence_requires_total():
    with pytest.raises(ValueError):
        confidence_level(0.1, (0, 0), ASSESS)


# --- status ------------------------------------------------------------------------

def test_status_likely_hallucination():
    assert assign_status(-0.7, 2, True, "low", ASSESS) == \
        "likely-hallucination"
    assert assign_status(-0.7, 1, True, "low", ASSESS) == \
        "likely-hallucination"


def test_status_needs_review():
    # one independent contradiction, no self-correction
    assert assign_status(-0.7, 1, False, "low", ASSESS) == "needs-review"
    # strongly negative but uncorroborated contradiction
    assert assign_status(-0.6, 0, True, "low", ASSESS) == "needs-review"


def test_status_supported():
    assert assign_status(0.9, 0, False, "high", ASSESS) == "supported"
    assert assign_status(0.25, 0, False, "medium", ASSESS) == "supported"
    # low confidence blocks supported
    assert assign_status(0.9, 0, False, "low", ASSESS) == "needs-review"


def test_status_total_function_fuzz():
    rng = random.Random(99)
    for _ in range(1000):
        status = assign_status(rng.uniform(-1, 1), rng.randint(0, 4),
                               rng.random() < 0.5,
                               rng.choice(["low", "medium", "high"]), ASSESS)
        assert status in ("supported", "needs-review", "likely-hallucination")


# --- cross-source label ----------------------------------------------------------------

def consensus(score, contributions):
    return ConsensusScore(claim_id="clm-t", score=score,
                          contributions=contributions)


def contribution(label, independence="high", counter="doc-x"):
    return {"counter_doc": counter, "label": label,
            "independence": independence, "weight": 1.0,
            "sign": 1.0 if label == "corroborates" else -1.0}


def test_cross_source_consensus_label_needs_unanimity():
    unanimous = consensus(1.0, [contribution("corroborates", counter="d1"),
                                contribution("corroborates", counter="d2")])
    assert cross_source_label(unanimous, ASSESS) == "consensus"
    lone = consensus(1.0, [contribution("corroborates")])
    assert cross_source_label(lone, ASSESS) == "supported"


def test_cross_source_bands():
    mixed = consensus(0.1, [contribution("corroborates"),
                            contribution("contradicts", counter="d2")])
    assert cross_source_label(mixed, ASSESS) == "mixed"
    assert cross_source_label(consensus(-0.7, [
        contribution("contradicts")]), ASSESS) == "contradicted"
    assert cross_source_label(consensus(0.5, [
        contribution("corroborates"),
        contribution("contradicts", counter="d2")]), ASSESS) == "supported"


# --- evidence profile -------------------------------------------------------------------

def full_profile(provenance=1, verdict="supports", score=1.0,
                 contributions=None, coi=()):
    claim = make_claim()
    claim.provenance = ProvenanceLevel(provenance)
    return build_evidence_profile(
        claim, ClaimVerdict(claim_id=claim.claim_id, verdict=verdict),
        consensus(score, contributions if contributions is not None
                  else [contribution("corroborates")]),
        [], list(coi), None, source_slug="doc-a")


def test_profile_missing_consensus_names_layer():
    claim = make_claim()
    claim.provenance = ProvenanceLevel(1)
    with pytest.raises(IncompleteEnrichment) as err:
        build_evidence_profile(
            claim, ClaimVerdict(claim_id=claim.claim_id, verdict="supports"),
            None, [], [])
    assert err.value.missing_layer == "crosssource"


def test_profile_missing_verdict_names_layer():
    claim = make_claim()
    claim.provenance = ProvenanceLevel(1)
    with pytest.raises(IncompleteEnrichment) as err:
        build_evidence_profile(claim, None, consensus(0.0, []), [], [])
    assert err.value.missing_layer == "intradoc"


# --- hypothesis sampling --------------------------------------------------------------

def sample_backend(hypothesize):
    """A stub backend that answers `hypothesize` through `hypothesize` and
    records every call as (kind, provider tag, sample index)."""
    calls: list[tuple[str, str, int]] = []

    def answer(task, tag, index):
        calls.append((task.kind, tag, index))
        if task.kind == "hypothesize":
            return hypothesize(tag, index)
        return {"statement": "the effect is an artifact"}

    return StubProvider(answer), calls


def test_generate_hypotheses_visits_slots_in_tag_and_sample_order():
    backend, calls = sample_backend(
        lambda tag, i: {"statement": f"s-{tag}", "conclusion": f"c-{tag}-{i}"})
    bundle = generate_hypotheses(full_profile(), make_router(backend),
                                 n_samples=2, models=["analyst-c", "analyst-a"])
    assert calls == [("hypothesize", "analyst-a", 0),
                     ("hypothesize", "analyst-a", 1),
                     ("hypothesize", "analyst-c", 0),
                     ("hypothesize", "analyst-c", 1),
                     ("counter-hypothesize", "analyst-a", 0)]
    assert bundle.primary.statement == "s-analyst-a"
    assert bundle.samples == ["c-analyst-a-0", "c-analyst-a-1",
                              "c-analyst-c-0", "c-analyst-c-1"]


def test_generate_hypotheses_with_one_model_and_one_sample():
    backend, calls = sample_backend(
        lambda tag, i: {"statement": "s", "conclusion": "c"})
    bundle = generate_hypotheses(full_profile(), make_router(backend),
                                 n_samples=1, models=["analyst-a"])
    assert [call[0] for call in calls] == ["hypothesize", "counter-hypothesize"]
    assert bundle.primary.statement == "s"
    assert bundle.samples == ["c"]
    assert bundle.agreement == (1, 1)


def test_generate_hypotheses_skips_failed_slots():
    def missing_b(tag, i):
        if tag == "analyst-b":
            raise ProviderFailure("absent from fixture", retryable=False)
        return {"statement": f"s-{tag}", "conclusion": "c"}

    backend, calls = sample_backend(missing_b)
    bundle = generate_hypotheses(
        full_profile(), make_router(backend), n_samples=1,
        models=["analyst-b", "analyst-c", "analyst-a"])
    assert ("hypothesize", "analyst-b", 0) in calls
    assert bundle.primary.statement == "s-analyst-a"
    assert bundle.samples == ["c", "c"]
    # Only the two models that answered count towards agreement.
    assert bundle.agreement == (2, 2)


def test_generate_hypotheses_all_slots_failed():
    def nothing(tag, i):
        raise ProviderFailure("no", retryable=False)

    backend, calls = sample_backend(nothing)
    with pytest.raises(AllSlotsFailed) as err:
        generate_hypotheses(full_profile(), make_router(backend), n_samples=1,
                            models=["analyst-a", "analyst-b"])
    assert "(hypothesize)" in str(err.value)
    assert all(kind == "hypothesize" for kind, _, _ in calls)


# --- maturity -----------------------------------------------------------------------------

def hardware_profile(score=1.0):
    claim = make_claim("clm-hw")
    claim.provenance = ProvenanceLevel(1)
    claim.predicate = "executed-on"
    claim.object = "ent-chip"
    claim.object_is_entity = True
    return build_evidence_profile(
        claim, ClaimVerdict(claim_id="clm-hw", verdict="supports"),
        consensus(score, [contribution("corroborates")]), [], [])


def value_profile():
    claim = make_claim("clm-val")
    claim.provenance = ProvenanceLevel(1)
    claim.predicate = "outperforms"
    return build_evidence_profile(
        claim, ClaimVerdict(claim_id="clm-val", verdict="supports"),
        consensus(0.9, [contribution("corroborates", "high", "doc-z")]),
        [], [])


def theoretical_profile():
    claim = make_claim("clm-th")
    claim.provenance = ProvenanceLevel(3)
    return build_evidence_profile(
        claim, ClaimVerdict(claim_id="clm-th", verdict="supports"),
        consensus(0.0, []), [], [])


LAUNCH = StrategicEvent(date="2025-03-17", kind="product-launch",
                        parties=["ent-org"], source="press")
KINDS = {"ent-chip": "hardware"}


def test_maturity_requires_profiles():
    with pytest.raises(NoProfiles):
        assess_maturity([], [], {}, {}, ASSESS)


def test_maturity_theoretical_band():
    result = assess_maturity([theoretical_profile()], [], {}, KINDS, ASSESS)
    assert (result.trl_low, result.trl_high) == (1, 3)


def test_maturity_hardware_plus_launch():
    result = assess_maturity([hardware_profile()], [LAUNCH], {}, KINDS, ASSESS)
    assert (result.trl_low, result.trl_high) == (4, 5)


def test_maturity_independent_value_reaches_six():
    profiles = [hardware_profile(), value_profile()]
    result = assess_maturity(profiles, [LAUNCH],
                             {"clm-val": "supported"}, KINDS, ASSESS)
    assert result.trl_high >= 6


def test_maturity_bounds_and_monotone():
    base = assess_maturity([hardware_profile()], [], {}, KINDS, ASSESS)
    more = assess_maturity([hardware_profile()], [LAUNCH], {}, KINDS, ASSESS)
    assert more.trl_high >= base.trl_high
    assert 1 <= base.trl_low <= base.trl_high <= 9


# --- alpha ---------------------------------------------------------------------------------

def alpha_ready_profile(**overrides):
    kwargs = dict(provenance=1, verdict="supports", score=1.0,
                  contributions=[contribution("corroborates", "high",
                                              "doc-z")],
                  coi=())
    kwargs.update(overrides)
    return full_profile(**kwargs)


def test_alpha_all_conditions_met():
    signals = detect_alpha([alpha_ready_profile()], ASSESS)
    assert len(signals) == 1
    assert set(signals[0].dimensions_converging) == {
        "knowledge", "intradoc", "crosssource", "signals"}


def test_alpha_single_condition_failures():
    from claimcheck.signals import COIFlag
    flag = COIFlag(author="ent-a", organization="ent-o", role="founded",
                   product_path=[], disclosed=False)
    cases = [
        alpha_ready_profile(provenance=3),
        alpha_ready_profile(verdict="partial"),
        alpha_ready_profile(score=0.3),
        alpha_ready_profile(contributions=[
            contribution("corroborates", "medium", "doc-z")]),
        alpha_ready_profile(coi=[flag]),
    ]
    for profile in cases:
        assert detect_alpha([profile], ASSESS) == []


def test_alpha_own_source_does_not_count_as_independent():
    profile = alpha_ready_profile(contributions=[
        contribution("corroborates", "high", counter="d")])  # own doc
    assert detect_alpha([profile], ASSESS) == []


def test_alpha_subset_of_supported(golden):
    supported = {p.claim.claim_id for p in golden.profiles
                 if p.verdict.verdict == "supports"}
    for signal in detect_alpha(golden.profiles, golden.cfg.assess):
        assert signal.claim_id in supported


# --- report -------------------------------------------------------------------------------

def test_report_empty_matrix_valid():
    from claimcheck.report import machine_report
    payload = machine_report("q", [], None, [], {}, [], {}, "run-x")
    text = narrative_report(payload)
    assert "No hypotheses" in text
    assert render_report(payload, "machine").endswith("\n")
    with pytest.raises(ValueError):
        render_report(payload, "pdf")
    # The machine form prints the stored strings unchanged.
    stored = {"note": "line one\nline  two", "x": [" pad "]}
    assert json.loads(render_report(stored, "machine")) == stored


def test_golden_report_renders_deterministically(golden):
    payload = golden.report_payload()
    assert render_report(payload, "machine") == render_report(payload,
                                                              "machine")
    narrative = render_report(payload, "narrative")
    assert narrative == render_report(payload, "narrative")
    assert "likely-hallucination" in narrative
    assert "TRL 4-5" in narrative


def test_golden_narrative_links_numbers_to_records(golden):
    narrative = narrative_report(golden.report_payload())
    s1 = golden.doc_by_slug("s1-target")
    assert f"[consistency:{s1.doc_id}]" in narrative
