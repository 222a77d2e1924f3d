"""Layer 4: discovery, alignment, fidelity, root cause, independence,
consensus, rubric."""

from __future__ import annotations

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from claimcheck.config import (CrossSourceConfig, KnowledgeConfig,
                              PipelineConfig)
from claimcheck.corpus import (DocumentMetadata, SourceDocument,
                               ingest_document, semantic_searches)
from claimcheck.crosssource import (AgreementRecord, CorpusView,
                                    IndependenceRating, assess_independence,
                                    citation_neighbors,
                                    compute_consensus,
                                    enumerate_rubric_criteria,
                                    evaluate_rubric,
                                    intermediary_citation_distance)
from claimcheck.crosssource import analyze_contradiction, discover_related
from claimcheck.errors import (MissingConsistency, MissingRating,
                               RubricNotEnumerable, SchemaViolation)
from claimcheck.knowledge.graph import KnowledgeGraph
from claimcheck.knowledge.model import ProvenanceLevel
from claimcheck.pipeline import Run
from claimcheck.provider import ReplayProvider, ScriptedProvider

from conftest import (CORPUS_DIR, GOLDEN_QUERY, PLAYBOOK, StubProvider,
                      make_router, replay_spec, run_golden)
from test_intradoc import make_claim
from test_corpus import manifest_bytes
from test_knowledge import classical_metric, quantum_metric


def rating(rating_label, weight):
    return IndependenceRating(pair=("a", "b"), rating=rating_label,
                              author_jaccard=0.0, shared_affiliation=False,
                              citation_distance=None, competitor_stake=False,
                              weight=weight)


def record(counter_doc, label):
    return AgreementRecord(claim_id="clm-t", counter_doc=counter_doc,
                           label=label)


RATING_WEIGHTS = {"high": 1.0, "medium": 0.6, "low": 0.3}


def consensus_of(entries):
    """entries: list of (rating_label, consistency, label)."""
    records, ratings, consistency = [], {}, {}
    for i, (rlabel, cons, label) in enumerate(entries):
        doc = f"doc-{i}"
        records.append(record(doc, label))
        ratings[doc] = rating(rlabel, RATING_WEIGHTS[rlabel])
        consistency[doc] = cons
    return compute_consensus(make_claim(), records, ratings, consistency)


# --- consensus -----------------------------------------------------------------

def test_consensus_worked_example():
    score = consensus_of([
        ("low", 0.30, "corroborates"),
        ("low", 0.8, "corroborates"),
        ("high", 0.9, "contradicts"),
        ("medium", 0.9, "contradicts"),
    ])
    assert score.score == pytest.approx(-0.627, abs=1e-3)


def test_consensus_unanimity_exact():
    assert consensus_of([("low", 0.2, "corroborates"),
                         ("high", 0.9, "corroborates")]).score == 1.0
    assert consensus_of([("low", 0.2, "contradicts"),
                         ("medium", 0.5, "contradicts")]).score == -1.0


def test_consensus_empty_is_uncorroborated():
    score = compute_consensus(make_claim(), [], {}, {})
    assert score.score == 0.0
    assert score.uncorroborated is True


def test_consensus_misrepresents_flag_not_score():
    base = consensus_of([("high", 0.9, "corroborates"),
                         ("medium", 0.8, "contradicts")])
    with_misrep = consensus_of([("high", 0.9, "corroborates"),
                                ("medium", 0.8, "contradicts"),
                                ("low", 0.5, "misrepresents")])
    assert with_misrep.score == base.score
    assert len(with_misrep.fidelity_flags) == 1
    assert len(base.fidelity_flags) == 0


def test_consensus_missing_rating_and_consistency():
    claim = make_claim()
    with pytest.raises(MissingRating):
        compute_consensus(claim, [record("doc-0", "corroborates")], {},
                          {"doc-0": 0.5})
    with pytest.raises(MissingConsistency):
        compute_consensus(claim, [record("doc-0", "corroborates")],
                          {"doc-0": rating("high", 1.0)}, {})


def test_consensus_bounds_and_monotonicity_fuzz():
    rng = random.Random(627)
    labels = ["corroborates", "contradicts", "misrepresents"]
    ratings_pool = list(RATING_WEIGHTS)
    for _ in range(1000):
        entries = [(rng.choice(ratings_pool), round(rng.uniform(0.05, 1.0), 3),
                    rng.choice(labels))
                   for _ in range(rng.randint(1, 8))]
        score = consensus_of(entries).score
        assert -1.0 <= score <= 1.0
        # adding a contradicting record never raises the score
        lowered = consensus_of(
            entries + [(rng.choice(ratings_pool), 0.9, "contradicts")]).score
        assert lowered <= score + 1e-12
        # adding a corroborating record never lowers it
        raised = consensus_of(
            entries + [(rng.choice(ratings_pool), 0.9, "corroborates")]).score
        assert raised >= score - 1e-12
        # unanimity is exact
        signs = {label for _, _, label in entries
                 if label != "misrepresents"}
        if signs == {"corroborates"}:
            assert score == 1.0
        if signs == {"contradicts"}:
            assert score == -1.0


# --- independence ------------------------------------------------------------------

def meta(authors):
    return DocumentMetadata(authors=authors)


def view(metadata, citations=(), competitors=(), doc_orgs=None):
    return CorpusView(metadata=metadata, citations=set(citations),
                      competitor_pairs={frozenset(p) for p in competitors},
                      doc_orgs=doc_orgs or {})


def test_independence_low_by_author_overlap():
    authors = [(f"Person {i}", f"Org {i}") for i in range(6)]
    result = assess_independence("a", "b", view({
        "a": meta(authors), "b": meta(authors[:4] + [("Other", "Elsewhere"),
                                                     ("More", "Elsewhere")]),
    }), CrossSourceConfig())
    assert result.author_jaccard >= 0.3
    assert result.rating == "low"
    assert result.weight == 0.3


def test_independence_low_by_shared_affiliation():
    result = assess_independence("a", "b", view({
        "a": meta([("P1", "Same Lab")]), "b": meta([("P2", "Same Lab")]),
    }), CrossSourceConfig())
    assert result.rating == "low"


def test_independence_medium_by_shared_reference():
    metadata = {"a": meta([("P1", "L1")]), "b": meta([("P2", "L2")]),
                "x": meta([("P3", "L3")])}
    result = assess_independence("a", "b", view(
        metadata, citations={("a", "x"), ("b", "x")}), CrossSourceConfig())
    assert result.citation_distance == 1
    assert result.rating == "medium"
    assert result.weight == 0.6


def test_independence_direct_citation_alone_stays_high():
    # a rebuttal cites the work it evaluates; that is not shared lineage
    metadata = {"a": meta([("P1", "L1")]), "b": meta([("P2", "L2")])}
    result = assess_independence("a", "b", view(
        metadata, citations={("b", "a")}), CrossSourceConfig())
    assert result.citation_distance is None
    assert result.rating == "high"
    assert result.weight == 1.0


def test_independence_medium_by_competitor_stake():
    metadata = {"a": meta([("P1", "L1")]), "b": meta([("P2", "L2")])}
    result = assess_independence("a", "b", view(
        metadata, competitors=[("org-1", "org-2")],
        doc_orgs={"a": {"org-1"}, "b": {"org-2"}}), CrossSourceConfig())
    assert result.competitor_stake is True
    assert result.rating == "medium"


def test_independence_unknown_authors_medium_with_caveat():
    result = assess_independence("a", "b", view({
        "a": meta([]), "b": meta([("P", "L")])}), CrossSourceConfig())
    assert result.rating == "medium"
    assert result.caveat


def test_independence_symmetric_fuzz():
    rng = random.Random(44)
    people = [f"Person {i}" for i in range(8)]
    orgs = ["L1", "L2", "L3"]
    for _ in range(200):
        def sample_meta():
            return meta([(p, rng.choice(orgs))
                         for p in rng.sample(people, rng.randint(1, 5))])
        metadata = {"a": sample_meta(), "b": sample_meta(),
                    "x": sample_meta()}
        citations = set()
        for pair in [("a", "b"), ("a", "x"), ("b", "x")]:
            if rng.random() < 0.5:
                citations.add(pair if rng.random() < 0.5 else pair[::-1])
        corpus = view(metadata, citations=citations)
        forward = assess_independence("a", "b", corpus, CrossSourceConfig())
        backward = assess_independence("b", "a", corpus, CrossSourceConfig())
        assert forward.rating == backward.rating
        assert forward.author_jaccard == backward.author_jaccard


def test_citation_helpers():
    citations = {("r1", "s1"), ("s1", "b1"), ("b2", "b1")}
    assert citation_neighbors(citations, ["s1"], 1) == {"r1", "b1"}
    assert citation_neighbors(citations, ["s1"], 2) == {"r1", "b1", "b2"}
    refs = CorpusView(metadata={}, citations=citations).references
    assert intermediary_citation_distance(refs, "s1", "b2") == 1
    assert intermediary_citation_distance(refs, "s1", "r1") is None


def _within_hops(citations, doc_id, max_hops):
    """Docs at undirected citation distance 1..max_hops from `doc_id`, by
    relaxing distances over the edge list: the reference for the walks."""
    distance = {doc_id: 0}
    changed = True
    while changed:
        changed = False
        for a, b in citations:
            for x, y in ((a, b), (b, a)):
                if x in distance and distance[x] + 1 < distance.get(y, max_hops + 1):
                    distance[y] = distance[x] + 1
                    changed = True
    return {d for d, hops in distance.items() if 0 < hops <= max_hops}


_DOCS = ["a", "b", "c", "d", "e", "f"]


@settings(max_examples=300, deadline=None)
@given(st.sets(st.tuples(st.sampled_from(_DOCS), st.sampled_from(_DOCS)),
               max_size=12),
       st.sets(st.sampled_from(_DOCS + ["unknown"]), max_size=4),
       st.integers(0, 4))
def test_citation_neighbors_of_is_the_union_of_per_document_walks(
        citations, doc_ids, max_hops):
    union = citation_neighbors(citations, doc_ids, max_hops)
    per_doc = [citation_neighbors(citations, [d], max_hops) for d in doc_ids]
    assert union == set().union(*per_doc)
    assert per_doc == [_within_hops(citations, d, max_hops) for d in doc_ids]


# --- contradiction root cause ----------------------------------------------------------

def test_auto_root_cause_without_provider_call():
    a = make_claim("clm-a")
    a.metric = quantum_metric()
    b = make_claim("clm-b")
    b.metric = classical_metric()
    # a replay provider with no fixture would fail on any call
    router = make_router(ReplayProvider({}))
    cause = analyze_contradiction(a, b, router, "doc-a", "doc-b",
                                  KnowledgeConfig())
    assert cause.category == "runtime-definition-mismatch"
    assert "transpilation" in cause.explanation


def test_root_cause_uses_provider_when_comparable():
    a = make_claim("clm-a")
    a.metric = quantum_metric()
    b = make_claim("clm-b")
    b.metric = quantum_metric()
    router = make_router(StubProvider(lambda t, tag, i: {
        "category": "baseline-selection", "explanation": "weak baseline"}))
    cause = analyze_contradiction(a, b, router, "doc-a", "doc-b",
                                  KnowledgeConfig())
    assert cause.category == "baseline-selection"


# --- citation fidelity ------------------------------------------------------------------

def test_fidelity_jobs_missing_cited_doc_records_a_gap(tmp_path):
    state = Run(tmp_path / "run", CORPUS_DIR, GOLDEN_QUERY, PipelineConfig(),
                replay_spec())
    citing = make_claim()
    citing.provenance = ProvenanceLevel(4)
    citing.cited_refs = ["doc:gone"]
    assert state._fidelity_jobs([citing]) == []
    assert state.citation_gaps == ["clm-t -> gone"]
    assert state.fidelity == {}


def test_counter_claim_citing_a_missing_doc_records_a_gap_per_matched_pair(
        tmp_path):
    """A provenance-4 counter-claim that cites the matched claim's document,
    but whose first cited document is missing, records one gap for each
    matched pair it is the counter of and is labelled from no finding."""
    state = run_golden(tmp_path / "run", stop_after="layer4")
    by_key = {f"{state.slug_of(c.doc_id)}:{c.subject_name}|{c.predicate}": c
              for c in state.claims.values()}
    counter = by_key["r1-wallclock-rebuttal:BF-DCQO|shows-runtime"]
    matched = [by_key["s1-target:BF-DCQO|achieves-runtime"].claim_id,
               by_key["s1-target:BF-DCQO|achieves"].claim_id]
    assert counter.claim_id not in state.fidelity
    counter.provenance = ProvenanceLevel(4)
    counter.cited_refs = ["doc:gone", "doc:s1-target"]
    state.citation_gaps = []
    focus = [state.claims[c] for c in state.doc_claims[state.seeds[0]]]
    state._compare_claims(focus, state.corpus_view(state.citation_edges()))
    assert state.citation_gaps == [f"{counter.claim_id} -> gone"] * 2
    records = sorted((r.claim_id, r.label, r.fidelity) for r in state.agreements
                     if r.counter_claim == counter.claim_id)
    assert records == [(claim_id, "contradicts", None)
                       for claim_id in sorted(matched)]
    assert counter.claim_id not in state.fidelity


def test_fidelity_faithful_and_distorted(golden, golden_claims):
    findings = golden.fidelity
    faithful_claim = golden_claims["s1-target:HUBO|generalizes"]
    assert findings[faithful_claim.claim_id].faithful is True
    distorted = golden_claims["s3-reframing:BF-DCQO|previously-demonstrated"]
    finding = findings[distorted.claim_id]
    assert finding.faithful is False
    assert "qualifier" in finding.distortion_note


def test_golden_misrepresents_record_flags_consensus(golden, golden_claims):
    headline = golden_claims["s1-target:BF-DCQO|achieves"]
    consensus = golden.consensus[headline.claim_id]
    assert len(consensus.fidelity_flags) == 1
    s3 = golden.doc_by_slug("s3-reframing")
    labels = {r.counter_doc: r.label for r in golden.agreements
              if r.claim_id == headline.claim_id}
    assert labels[s3.doc_id] == "misrepresents"


# --- rubric -----------------------------------------------------------------------------

def test_rubric_enumeration_requires_criteria_section():
    doc = ingest_document(manifest_bytes(), "json-manifest")
    with pytest.raises(RubricNotEnumerable):
        enumerate_rubric_criteria(doc)


def test_rubric_degenerate_single_criterion():
    raw = manifest_bytes(slug="onecrit", sections=[
        {"heading": "Criteria", "passages":
         ["Solubility: the approach dissolves the problem."]}])
    rubric_doc = ingest_document(raw, "json-manifest")
    router = make_router(StubProvider(lambda t, tag, i: {"criteria": [
        {"name": "Solubility", "met": "yes", "note": "ok"}]}))
    assessment = evaluate_rubric([make_claim()], rubric_doc, router, {})
    assert assessment.summary == "1/1 fully met"


def test_rubric_response_must_cover_criteria():
    raw = manifest_bytes(slug="twocrit", sections=[
        {"heading": "Criteria", "passages":
         ["First: one.", "Second: two."]}])
    rubric_doc = ingest_document(raw, "json-manifest")
    router = make_router(StubProvider(lambda t, tag, i: {"criteria": [
        {"name": "First", "met": "yes", "note": "ok"}]}))
    with pytest.raises(SchemaViolation):
        evaluate_rubric([make_claim()], rubric_doc, router, {})


# --- discovery (golden) --------------------------------------------------------------------

def test_golden_discovery_includes_both_direct_rebuttals(golden,
                                                         golden_claims):
    from claimcheck.crosssource import discover_related
    claim = golden_claims["s1-target:BF-DCQO|achieves"]
    related = discover_related(
        [claim], golden.graph(), golden.store, golden.router,
        golden.citation_edges(), golden.documents, CrossSourceConfig())
    slugs = {golden.slug_of(d) for d in related}
    assert "r1-wallclock-rebuttal" in slugs
    assert "r2-bfnull-control" in slugs
    assert "s1-target" not in slugs


def test_golden_entity_scan_discovers_mention_docs(golden, golden_claims):
    from claimcheck.crosssource import discover_related
    claim = golden_claims["s1-target:BF-DCQO|executed-on"]
    related = discover_related(
        [claim], golden.graph(), golden.store, golden.router,
        golden.citation_edges(), golden.documents, CrossSourceConfig())
    mention_docs = {
        d for d, doc in golden.documents.items()
        if "bf-dcqo" in doc.full_text().lower() and d != claim.doc_id}
    assert mention_docs <= set(related)


# --- discovery over every focus claim at once ------------------------------------------------

def _discover_one(claim, graph, store, router, citations, documents,
                  owner_to_doc, cfg):
    """Discovery for a single claim, written out as it stood before
    discovery took all focus claims at once: the reference for the batch."""
    related = citation_neighbors(citations, [claim.doc_id],
                                 cfg.discovery_citation_hops)
    [hits] = semantic_searches([(claim.text, None)], cfg.discovery_top_k,
                               store, router)
    for owner, _ in hits:
        doc_id = owner_to_doc.get(owner)
        if doc_id:
            related.add(doc_id)
    names = set()
    for entity_id in (claim.subject,
                      claim.object if claim.object_is_entity else None):
        if entity_id and entity_id in graph.nodes:
            entity = graph.nodes[entity_id]
            names.add(entity.name.lower())
            names.update(a.lower() for a in entity.aliases)
    for doc_id, doc in documents.items():
        text = doc.full_text().lower()
        if any(name in text for name in names):
            related.add(doc_id)
    related.discard(claim.doc_id)
    return sorted(d for d in related if d in documents)


@pytest.fixture(scope="module")
def local_embedder():
    """A router that embeds any text locally; the golden transcript holds
    embeddings only for the claims the golden run searched with."""
    return make_router(ScriptedProvider.from_path(PLAYBOOK))


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_batched_discovery_equals_union_of_per_claim_discovery(
        golden, local_embedder, data):
    # Small hop counts and top-k, subsets of the documents and citations,
    # and at times no entity names keep the union from covering the whole
    # 11-document corpus, so a hit lost for any one claim shows.
    claim_ids = data.draw(st.lists(st.sampled_from(sorted(golden.claims)),
                                   min_size=1, max_size=10, unique=True))
    doc_ids = data.draw(st.sets(st.sampled_from(sorted(golden.documents)),
                                min_size=1))
    cfg = CrossSourceConfig(
        discovery_citation_hops=data.draw(st.integers(0, 2)),
        discovery_top_k=data.draw(st.integers(1, 8)))
    claims = [golden.claims[c] for c in claim_ids]
    documents = {d: golden.documents[d] for d in sorted(doc_ids)}
    citations = data.draw(st.sets(st.sampled_from(
        sorted(golden.citation_edges()))))
    graph = golden.graph() if data.draw(st.booleans()) \
        else KnowledgeGraph()
    owner_to_doc = {}
    for doc_id, doc in documents.items():
        for pid, _ in doc.passages():
            owner_to_doc[pid] = doc_id
        for asset in doc.assets:
            owner_to_doc[asset.asset_id] = doc_id
    expected = set()
    for claim in claims:
        expected.update(_discover_one(
            claim, graph, golden.store, local_embedder, citations,
            documents, owner_to_doc, cfg))
    expected -= {claim.doc_id for claim in claims}
    assert discover_related(claims, graph, golden.store, local_embedder,
                            citations, documents, cfg) == sorted(expected)


def test_discovery_reads_each_document_text_once(golden, local_embedder,
                                                 monkeypatch):
    reads = Counter()
    full_text = SourceDocument.full_text

    def counted(doc):
        reads[doc.doc_id] += 1
        return full_text(doc)
    monkeypatch.setattr(SourceDocument, "full_text", counted)
    claims = [golden.claims[c] for c in sorted(golden.claims)]
    discover_related(claims, golden.graph(), golden.store, local_embedder,
                     golden.citation_edges(), golden.documents,
                     CrossSourceConfig())
    assert len(claims) > 1
    assert set(reads) == set(golden.documents)
    assert max(reads.values()) == 1
