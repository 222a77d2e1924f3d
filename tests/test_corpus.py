"""Layer 1: ingestion, scoring, embedding, search, asset description."""

from __future__ import annotations

import json
import types

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from claimcheck import records
from claimcheck.config import CorpusConfig
from claimcheck.corpus import ingest
from claimcheck.corpus import (DocumentMetadata, EmbeddingRecord,
                               EmbeddingStore, VisualAsset, chunk_and_embed,
                               describe_visual_asset, ingest_document,
                               score_source, semantic_searches, sells_chains)
from claimcheck.errors import (DimensionMismatch, EmptyInput, EmptyStore,
                               ModelTagMismatch, ProviderFailure,
                               UnsupportedFormat)
from claimcheck.provider import ReplayProvider, ScriptedProvider
from claimcheck.provider.embedder import embed_text

from conftest import CORPUS_DIR, PLAYBOOK, make_router, run_golden


def manifest_bytes(slug="mini", sections=None, assets=None):
    return json.dumps({
        "manifest_kind": "document", "slug": slug, "source_type": "paper",
        "title": "A minimal document",
        "metadata": {"authors": [{"name": "A. Author", "affiliation": "Lab"}],
                     "publication_date": "2025-01-01"},
        "sections": sections or [
            {"heading": "Body", "level": 1,
             "passages": ["First passage.", "Second passage."]}],
        "assets": assets or [],
    }).encode()


def scripted_router():
    return make_router(ScriptedProvider.from_path(PLAYBOOK))


# --- ingestion ---------------------------------------------------------------

def test_ingest_manifest_counts_authors():
    raw = (CORPUS_DIR / "s1-target.json").read_bytes()
    doc = ingest_document(raw, "json-manifest")
    assert len(doc.metadata.authors) == 6
    assert doc.metadata.venue == "arXiv"
    assert doc.metadata.publication_date.startswith("2025-05")
    assert doc.slug == "s1-target"


def test_ingest_whitespace_only_is_empty_input():
    with pytest.raises(EmptyInput):
        ingest_document(b"   \n\t  ", "plain")


def test_ingest_unknown_format_rejected():
    with pytest.raises(UnsupportedFormat):
        ingest_document(b"text", "docx")


@pytest.mark.parametrize("change, error", [
    ({"sections": [5]}, "AttributeError"),
    ({"metadata": {"authors": [{"affiliation": "Lab"}]}}, "KeyError: 'name'"),
    ({"sections": [{"passages": 7}]}, "TypeError"),
    ({"sections": [{"level": "one", "passages": ["Text."]}]}, "ValueError"),
    ({"metadata": []}, "AttributeError"),
    ({"assets": [3]}, "AttributeError")])
def test_ingest_malformed_manifest_structure_is_unsupported(change, error):
    raw = json.dumps({**json.loads(manifest_bytes()), **change}).encode()
    with pytest.raises(UnsupportedFormat,
                       match=f"^manifest is malformed: {error}"):
        ingest_document(raw, "json-manifest")


def test_layer1_decodes_each_json_file_once(tmp_path, monkeypatch):
    decoded = []

    def loads(text):
        decoded.append(text)
        return json.loads(text)
    monkeypatch.setattr(ingest, "json", types.SimpleNamespace(
        loads=loads, JSONDecodeError=json.JSONDecodeError))
    state = run_golden(tmp_path / "run", stop_after="layer1")
    names = [p.name for p in CORPUS_DIR.iterdir() if p.suffix == ".json"]
    assert len(decoded) == len(names) == len(set(decoded))
    assert len(state.documents) == 11


def test_ingest_same_bytes_same_doc_id():
    raw = manifest_bytes()
    first = ingest_document(raw, "json-manifest")
    second = ingest_document(raw, "json-manifest")
    assert first.doc_id == second.doc_id
    assert records.to_record(first) == records.to_record(second)


def test_ingest_plain_heading_heuristics():
    text = (
        "A Study of Things\n\n"
        "1. Introduction\n\nThis is the intro paragraph.\n\n"
        "2. Methods\n\nWe did things.\n\nAnd more things.\n\n"
        "RESULTS\n\nIt worked.\n"
    )
    doc = ingest_document(text.encode(), "plain")
    headings = [s.heading for s in doc.sections]
    assert "Introduction" in headings
    assert "Methods" in headings
    assert "Results" in headings
    methods = next(s for s in doc.sections if s.heading == "Methods")
    assert len(methods.passages) == 2


def test_ingest_html_sections():
    html = (b"<html><head><title>Web Doc</title></head><body>"
            b"<h1>Overview</h1><p>First.</p><p>Second.</p>"
            b"<h2>Details</h2><p>Third.</p></body></html>")
    doc = ingest_document(html, "html")
    assert doc.title == "Web Doc"
    assert [s.heading for s in doc.sections] == ["Overview", "Details"]
    assert len(doc.sections[0].passages) == 2


def test_ingest_hints_override_extraction():
    hints = DocumentMetadata(venue="journal", citation_count=5)
    doc = ingest_document(manifest_bytes(), "json-manifest", hints)
    assert doc.metadata.venue == "journal"
    assert doc.metadata.citation_count == 5
    # non-conflicting extracted fields survive
    assert doc.metadata.publication_date == "2025-01-01"


# --- scoring ------------------------------------------------------------------

def test_score_unknown_fields_fall_to_prior():
    raw = json.dumps({
        "manifest_kind": "document", "slug": "bare", "source_type": "paper",
        "title": "Bare document", "metadata": {},
        "sections": [{"heading": "Body", "passages": ["Text."]}],
    }).encode()
    doc = ingest_document(raw, "json-manifest")
    score = score_source(doc, {}, CorpusConfig())
    assert score.quality == pytest.approx(0.5)
    assert score.bias_flags == []


def test_score_quality_bounds_extremes():
    doc = ingest_document(manifest_bytes(), "json-manifest")
    doc.metadata.venue = "journal"
    doc.metadata.citation_count = 10 ** 9
    assert 0.0 <= score_source(doc, {}, CorpusConfig()).quality <= 1.0
    doc.metadata.citation_count = 0
    assert 0.0 <= score_source(doc, {}, CorpusConfig()).quality <= 1.0


def test_score_commercial_affiliation_flag():
    relations = [("Kipu Quantum", "sells", "Iskay Quantum Optimizer"),
                 ("Iskay Quantum Optimizer", "implements", "BF-DCQO")]
    target = ingest_document((CORPUS_DIR / "s1-target.json").read_bytes(),
                             "json-manifest")
    score = score_source(target, sells=sells_chains(relations),
                         cfg=CorpusConfig())
    assert "commercial-affiliation" in score.bias_flags

    rebuttal = ingest_document(
        (CORPUS_DIR / "r1-wallclock-rebuttal.json").read_bytes(),
        "json-manifest")
    assert "commercial-affiliation" not in \
        score_source(rebuttal, sells=sells_chains(relations),
                     cfg=CorpusConfig()).bias_flags


def test_score_independent_rebuttal_at_least_target():
    relations = [("Kipu Quantum", "sells", "Iskay Quantum Optimizer"),
                 ("Iskay Quantum Optimizer", "implements", "BF-DCQO")]
    cfg = CorpusConfig()
    target = ingest_document((CORPUS_DIR / "s1-target.json").read_bytes(),
                             "json-manifest")
    rebuttal = ingest_document(
        (CORPUS_DIR / "r1-wallclock-rebuttal.json").read_bytes(),
        "json-manifest")
    assert score_source(rebuttal, sells=sells_chains(relations), cfg=cfg).quality >= \
        score_source(target, sells=sells_chains(relations), cfg=cfg).quality


# --- embedding and search ------------------------------------------------------

def test_chunk_and_embed_counts():
    router = scripted_router()
    doc = ingest_document(manifest_bytes(sections=[
        {"heading": "Body", "passages": [f"Passage number {i}."
                                         for i in range(10)]}]),
        "json-manifest")
    store = EmbeddingStore(dim=256, model_tag="hashed-bow-v1")
    records = chunk_and_embed([doc], router, store)
    assert len(records) == 10
    assert len(store) == 10

    with_assets = ingest_document(manifest_bytes(
        slug="withassets",
        sections=[{"heading": "Body",
                   "passages": [f"Passage {i}." for i in range(10)]}],
        assets=[{"kind": "figure", "caption": "A plot of things"},
                {"kind": "diagram", "caption": "A diagram of stages"}]),
        "json-manifest")
    for i, asset in enumerate(with_assets.assets):
        with_assets.assets[i] = describe_visual_asset(
            asset, with_assets.slug, router)
    store2 = EmbeddingStore(dim=256, model_tag="hashed-bow-v1")
    assert len(chunk_and_embed([with_assets], router, store2)) == 12


def test_embedding_completeness_per_passage():
    router = scripted_router()
    doc = ingest_document(manifest_bytes(), "json-manifest")
    store = EmbeddingStore(dim=256, model_tag="hashed-bow-v1")
    chunk_and_embed([doc], router, store)
    for pid, _ in doc.passages():
        assert pid in store


def test_replay_miss_during_embed_names_fingerprint():
    router = make_router(ReplayProvider({}))
    doc = ingest_document(manifest_bytes(sections=[
        {"heading": "Body", "passages": ["Only passage."]}]), "json-manifest")
    store = EmbeddingStore(dim=256, model_tag="hashed-bow-v1")
    with pytest.raises(ProviderFailure) as err:
        chunk_and_embed([doc], router, store)
    assert "fingerprint" in str(err.value) or "-" in str(err.value)


def test_store_dimension_and_tag_mismatch():
    store = EmbeddingStore(dim=4, model_tag="m1")
    store.add(EmbeddingRecord("p1", "fp1", "m1"), (1.0, 0.0, 0.0, 0.0))
    with pytest.raises(DimensionMismatch):
        store.add(EmbeddingRecord("p2", "fp2", "m1"), (1.0, 0.0))
    with pytest.raises(ModelTagMismatch):
        store.add(EmbeddingRecord("p3", "fp3", "m2"), (0.0, 1.0, 0.0, 0.0))


def test_store_keeps_float64_rows_of_any_sequence_it_is_given():
    store = EmbeddingStore(dim=3, model_tag="m")
    store.add(EmbeddingRecord("p1", "fp1", "m"), [1, 2.5, -3])
    store.add(EmbeddingRecord("p2", "fp2", "m"), (0.0, 1.0, 0.0))
    for row in store._pending.values():
        assert type(row) is np.ndarray and row.dtype == np.float64
    assert store._pending["p1"].tolist() == [1.0, 2.5, -3.0]


def test_search_with_a_query_of_another_dim_names_the_query():
    store = EmbeddingStore(dim=4, model_tag="m1")
    store.add(EmbeddingRecord("p1", "fp1", "m1"), (1.0, 0.0, 0.0, 0.0))
    for query in ([1.0, 0.0, 0.0], np.zeros(5), []):
        with pytest.raises(DimensionMismatch,
                           match=rf"^query vector has dim {len(query)}, "
                                 r"store expects 4$"):
            store.search(query, 1)


def test_looked_up_vector_of_another_dim_names_its_owner():
    """A vector looked up in the layer-1 transcript is checked as `add`
    takes it, and a refused one leaves the store as it was."""
    store = EmbeddingStore(dim=4, model_tag="m1")
    store.add(EmbeddingRecord("p1", "fp1", "m1"), [0.5, 0.5, 0.5, 0.5])
    with pytest.raises(DimensionMismatch,
                       match=r"^record p2 has dim 3, store expects 4$"):
        store.add(EmbeddingRecord("p2", "fp2", "m1"), [1.0, 0.0, 0.0])
    assert "p2" not in store and len(store) == 1


def test_a_second_matrix_build_keeps_the_rows_of_the_first():
    """Records added after a search join the rows already built: each
    earlier row is copied as it was, and an owner added again takes its new
    vector."""
    store = EmbeddingStore(dim=3, model_tag="m")
    store.add(EmbeddingRecord("p2", "fp2", "m"), (0.0, 2.0, 0.0))
    store.add(EmbeddingRecord("p4", "fp4", "m"), np.full(3, 9.0))
    assert store.search([0.0, 1.0, 0.0], 1) == [("p2", 1.0)]
    first = store._matrix.copy()
    store.add(EmbeddingRecord("p1", "fp1", "m"), (1.0, 0.0, 0.0))
    store.add(EmbeddingRecord("p3", "fp3", "m"), (0.0, 0.0, 3.0))
    store.add(EmbeddingRecord("p5", "fp5", "m"), np.full(3, 9.0))
    assert store.search([0.0, 1.0, 0.0], 1) == [("p2", 1.0)]
    assert store._owners == ["p1", "p2", "p3", "p4", "p5"]
    assert np.array_equal(store._matrix[[1, 3]], first)
    assert store._matrix.tolist() == [[1.0, 0.0, 0.0], [0.0, 2.0, 0.0],
                                      [0.0, 0.0, 3.0], [9.0, 9.0, 9.0],
                                      [9.0, 9.0, 9.0]]
    assert store._norms.tolist() == [np.linalg.norm(v) for v in
                                     store._matrix.tolist()]
    assert store._pending == {}
    store.add(EmbeddingRecord("p2", "fp2b", "m"), (0.0, 0.0, -1.0))
    assert store.search([0.0, 0.0, -1.0], 1) == [("p2", 1.0)]
    assert store._matrix[1].tolist() == [0.0, 0.0, -1.0]


def search(query, k, store, router):
    """The hits of one query over the whole store, as a run searches."""
    [hits] = semantic_searches([(query, None)], k, store, router)
    return hits


def test_search_self_similarity_ranks_first():
    router = scripted_router()
    texts = ["the quick brown fox", "a slow green turtle",
             "quantum runtime advantage evaluation"]
    store = EmbeddingStore(dim=256, model_tag="hashed-bow-v1")
    for i, text in enumerate(texts):
        store.add(EmbeddingRecord(f"p{i}", f"fp{i}", "hashed-bow-v1"),
                  tuple(embed_text(text, 256)))
    hits = search("quantum runtime advantage evaluation", 3, store, router)
    assert hits[0][0] == "p2"
    assert hits[0][1] == pytest.approx(1.0)


def test_search_k_larger_than_store():
    router = scripted_router()
    store = EmbeddingStore(dim=256, model_tag="hashed-bow-v1")
    store.add(EmbeddingRecord("p0", "fp0", "hashed-bow-v1"),
              tuple(embed_text("alpha", 256)))
    assert len(search("alpha", 10, store, router)) == 1


def test_search_ties_broken_by_owner():
    router = scripted_router()
    store = EmbeddingStore(dim=256, model_tag="hashed-bow-v1")
    vec = tuple(embed_text("identical text", 256))
    for owner in ("pz", "pa", "pm"):
        store.add(EmbeddingRecord(owner, "fp", "hashed-bow-v1"), vec)
    hits = search("identical text", 3, store, router)
    assert [h[0] for h in hits] == ["pa", "pm", "pz"]


def test_search_empty_store():
    store = EmbeddingStore(dim=256, model_tag="hashed-bow-v1")
    with pytest.raises(EmptyStore):
        store.search(embed_text("anything", 256), 1)
    assert search("anything", 1, store, scripted_router()) == []


def test_search_deterministic(golden):
    router = scripted_router()
    first = search("runtime quantum advantage evaluation", 5, golden.store,
                   router)
    second = search("runtime quantum advantage evaluation", 5, golden.store,
                    router)
    assert first == second


def test_search_finds_rebuttal_passages(golden):
    hits = search("runtime quantum advantage evaluation", 5, golden.store,
                  scripted_router())
    rebuttals = {d for d in golden.documents
                 if golden.documents[d].source_type == "rebuttal"}
    owner_docs = set()
    for owner, _ in hits:
        for doc_id, doc in golden.documents.items():
            if any(pid == owner for pid, _ in doc.passages()):
                owner_docs.add(doc_id)
    assert owner_docs & rebuttals


def search_by_loop(vectors, query_vector, k, owner_filter=None):
    """The per-record search that the store's matrix search replaced, kept
    as the oracle: every vector added, by owner, scored as `q @ v`, then
    sorted."""
    owners = sorted(vectors)
    if owner_filter is not None:
        owners = [o for o in owners if o in owner_filter]
    if not owners:
        raise EmptyStore("embedding store has no matching records")
    q = np.asarray(query_vector, dtype=np.float64)
    qn = np.linalg.norm(q)
    scored = []
    for owner in owners:
        v = np.asarray(vectors[owner], dtype=np.float64)
        vn = np.linalg.norm(v)
        sim = 0.0 if qn == 0.0 or vn == 0.0 else float(q @ v / (qn * vn))
        scored.append((owner, sim))
    scored.sort(key=lambda item: (-item[1], item[0]))
    return scored[:k]


@st.composite
def search_cases(draw):
    """A store, split into two batches of adds, and searches against it.

    Most vectors are hashed-style: a few +-1 slots, L2-normalised and
    rounded to 9 decimals as `embed_text` does, so exact-zero dot products
    are common. The rest are duplicates, zero vectors or dense floats."""
    dim = draw(st.sampled_from((1, 3, 8, 37, 256)))

    def vector(others):
        choice = draw(st.integers(0, 9))
        if choice == 0 and others:
            return draw(st.sampled_from(others))
        if choice == 1:
            return (0.0,) * dim
        if choice == 2:
            rng = np.random.default_rng(draw(st.integers(0, 2**32)))
            return tuple(rng.uniform(-1.0, 1.0, dim).tolist())
        vec = np.zeros(dim)
        for index, sign in draw(st.lists(
                st.tuples(st.integers(0, dim - 1), st.sampled_from((1, -1))),
                max_size=12)):
            vec[index] += sign
        norm = np.linalg.norm(vec)
        if norm > 0.0:
            vec /= norm
        return tuple(round(float(x), 9) for x in vec)

    owners = draw(st.lists(st.text("abpqz", min_size=1, max_size=3),
                           min_size=1, max_size=30, unique=True))
    vectors: list[tuple[float, ...]] = []
    for _ in owners:
        vectors.append(vector(vectors))
    split = draw(st.integers(1, len(owners)))
    searches = []
    for _ in range(3):
        query = vector(vectors)
        owner_filter = draw(st.none() | st.sets(
            st.sampled_from(owners) | st.just("unknown")))
        searches.append((query, draw(st.integers(1, len(owners) + 2)),
                         owner_filter))
    return dim, list(zip(owners, vectors)), split, searches


# Hashed vectors whose exact cosines with the query tie at 0.0 where a
# product with fused multiply-adds leaves tiny nonzero values; without the
# shortlist margin, k=2 would pick the wrong 0.0-tied owner there.
ZERO_TIES = (8, [
    ("p0", (0.0, 0.0, 0.577350269, 0.288675135, -0.288675135, -0.577350269,
            -0.288675135, 0.288675135)),
    ("p1", (-0.23570226, 0.23570226, 0.23570226, 0.0, -0.707106781,
            -0.23570226, -0.471404521, 0.23570226)),
    ("p2", (-0.288675135, -0.577350269, 0.577350269, -0.288675135, 0.0,
            -0.288675135, 0.0, 0.288675135)),
    ("p3", (-0.213200716, -0.639602149, 0.0, -0.639602149, 0.213200716,
            0.213200716, -0.213200716, 0.0))], 4,
    [((0.0, 0.353553391, 0.353553391, 0.0, 0.353553391, 0.353553391, 0.0,
       -0.707106781), 2, None)])


@settings(max_examples=300, deadline=None)
@given(search_cases())
@example(ZERO_TIES)
def test_search_matches_the_per_record_loop(case):
    dim, items, split, searches = case
    store = EmbeddingStore(dim=dim, model_tag="m")
    added = {}
    for batch in (items[:split], items[split:]):
        for owner, vector in batch:
            store.add(EmbeddingRecord(owner, f"fp-{owner}", "m"), vector)
            added[owner] = vector
        for query, k, owner_filter in searches:
            try:
                expected = search_by_loop(added, query, k, owner_filter)
            except EmptyStore:
                with pytest.raises(EmptyStore):
                    store.search(list(query), k, owner_filter)
                continue
            assert store.search(list(query), k, owner_filter) == expected


# --- visual assets ---------------------------------------------------------------

def test_describe_asset_requires_caption():
    router = scripted_router()
    asset = VisualAsset(asset_id="ast-x", kind="figure", caption="  ")
    with pytest.raises(EmptyInput):
        describe_visual_asset(asset, "any", router)


def test_describe_asset_replay_determinism():
    asset = VisualAsset(asset_id="ast-x", kind="diagram",
                        caption="Hybrid workflow of BF-DCQO: classical "
                                "simulated annealing pre-processing, quantum "
                                "counterdiabatic evolution, and classical "
                                "post-processing refinement.")
    router = scripted_router()
    first = describe_visual_asset(asset, "s1-target", router)
    second = describe_visual_asset(asset, "s1-target", router)
    assert first.description == second.description
    assert first.description and "pre-processing" in first.description
    assert "post-processing" in first.description
    # original object untouched
    assert asset.description is None


def test_workflow_diagram_description_mentions_stages(golden):
    s1 = golden.doc_by_slug("s1-target")
    assert s1.assets, "target fixture carries the workflow diagram"
    description = s1.assets[0].description
    assert "pre-processing" in description
    assert "post-processing" in description
