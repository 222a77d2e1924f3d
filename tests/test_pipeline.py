"""Orchestration: run/resume, budget, manifests, CLI exit codes."""

from __future__ import annotations

import builtins
import dataclasses
import io
import json
import os
import re
import shutil
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from claimcheck import ids, pipeline
from claimcheck.cli import main
from claimcheck.config import PipelineConfig
from claimcheck.corpus.embedding import EmbeddingStore, embed_query
from claimcheck.corpus.ingest import ingest_document
from claimcheck.errors import (BudgetExceeded, ClaimcheckError, ConfigDrift,
                               CorruptManifest, EmptyCorpus, ProviderFailure)
from claimcheck.jsonl import read_all, read_json, write_records
from claimcheck.pipeline import (LAYERS, STORE, ProviderSpec,
                                 load_corpus_dir, read_corpus_dir, resume,
                                 run)
from claimcheck.provider import InferenceRouter, ReplayProvider, replay

from conftest import (CORPUS_DIR, GOLDEN_QUERY, PLAYBOOK, TRANSCRIPT,
                      dir_digest, golden_state, live_golden_state, run_golden,
                      scripted_spec)


def test_empty_corpus(tmp_path):
    empty = tmp_path / "corpus"
    empty.mkdir()
    with pytest.raises(EmptyCorpus):
        run("anything", empty, tmp_path / "run", PipelineConfig(),
            scripted_spec())


def test_unknown_target_doc(tmp_path):
    with pytest.raises(EmptyCorpus):
        run(GOLDEN_QUERY, CORPUS_DIR, tmp_path / "run", PipelineConfig(),
            scripted_spec(), target_doc="not-a-doc")


def test_budget_exceeded_lists_queued_gaps(tmp_path):
    cfg = PipelineConfig()
    cfg.document_budget = 1
    with pytest.raises(BudgetExceeded) as err:
        run(GOLDEN_QUERY, CORPUS_DIR, tmp_path / "run", cfg, scripted_spec(),
            target_doc="s1-target")
    assert len(err.value.queued) == 10
    # partial results persisted with gap markers
    manifest = read_json(tmp_path / "run" / "manifest.json")
    assert len(manifest["gaps"]) == 10
    assert manifest["layers"]["layer4"] is False
    assert (tmp_path / "run" / "store" / "claims.jsonl").exists()


def test_partial_budget_admits_the_first_queued_documents(tmp_path, golden):
    discovered = sorted(set(golden.docs_processed) - set(golden.seeds))
    assert len(discovered) == 10
    cfg = PipelineConfig()
    cfg.document_budget = 5
    with pytest.raises(BudgetExceeded) as err:
        run_golden(tmp_path / "run", cfg=cfg)
    assert err.value.queued == discovered[4:]
    manifest = read_json(tmp_path / "run" / "manifest.json")
    admitted = sorted(golden.seeds + discovered[:4])
    assert manifest["docs_processed"] == admitted
    assert manifest["gaps"] == err.value.queued
    claims = read_all(tmp_path / "run" / "store" / "claims.jsonl")
    assert {claim["doc_id"] for claim in claims} == set(admitted)


def test_resume_after_budget_stop_keeps_the_gaps_once(tmp_path):
    cfg = PipelineConfig()
    cfg.document_budget = 5
    with pytest.raises(BudgetExceeded) as first:
        run_golden(tmp_path / "run", cfg=cfg)
    assert len(first.value.queued) == 6
    with pytest.raises(BudgetExceeded) as again:
        resume(tmp_path / "run")
    assert again.value.queued == first.value.queued
    manifest = read_json(tmp_path / "run" / "manifest.json")
    assert manifest["gaps"] == first.value.queued


def counted_calls(monkeypatch) -> list[str]:
    """The kind of each task the router serves while the test runs."""
    served = []
    invoke = InferenceRouter.invoke

    def counting(router, task, *args, **kwargs):
        served.append(task.kind)
        return invoke(router, task, *args, **kwargs)

    monkeypatch.setattr(InferenceRouter, "invoke", counting)
    return served


def file_states(root: Path) -> dict[str, tuple[bytes, int]]:
    """Each file under `root`: its bytes and its modification time."""
    return {str(path.relative_to(root)): (path.read_bytes(),
                                          path.stat().st_mtime_ns)
            for path in sorted(root.rglob("*")) if path.is_file()}


def assert_resumes_stop_at_once(run_dir: Path, queued: list[str],
                                served: list[str]) -> None:
    """Two resumes of a run stopped at the budget: each raises the same
    stop, serves no call and writes no file."""
    before = file_states(run_dir)
    for _ in range(2):
        served.clear()
        with pytest.raises(BudgetExceeded) as again:
            resume(run_dir)
        assert again.value.queued == queued
        assert served == []
        assert file_states(run_dir) == before


def test_a_budget_stop_keeps_the_calls_layer4_paid_for(tmp_path,
                                                       monkeypatch):
    cfg = PipelineConfig()
    cfg.document_budget = 5
    served = counted_calls(monkeypatch)
    with pytest.raises(BudgetExceeded) as stop:
        run_golden(tmp_path / "run", cfg=cfg)
    transcript = tmp_path / "run" / "transcript"
    assert sorted(p.name for p in transcript.iterdir()) == [
        f"layer{i}.jsonl" for i in range(1, 5)]
    assert read_all(transcript / "layer4.jsonl")
    assert sum(len(read_all(p)) for p in transcript.iterdir()) == len(served)
    assert not read_json(tmp_path / "run" / "manifest.json")["layers"][
        "layer4"]
    # The stop is final: the budget is in the config snapshot, so a resume
    # could admit no more documents, and it stops before discovery.
    assert_resumes_stop_at_once(tmp_path / "run", stop.value.queued, served)


@settings(max_examples=10, deadline=None)
@given(budget=st.integers(1, 10))
def test_every_budget_stop_is_final(budget):
    """Golden discovers 10 documents besides its seed, so each budget of 1
    to 10 stops it in layer 4; each stop's resume stops again at once."""
    cfg = PipelineConfig()
    cfg.document_budget = budget
    with tempfile.TemporaryDirectory() as tmp, \
            pytest.MonkeyPatch.context() as monkeypatch:
        served = counted_calls(monkeypatch)
        with pytest.raises(BudgetExceeded) as stop:
            run_golden(Path(tmp) / "run", cfg=cfg)
        assert len(stop.value.queued) == 11 - budget
        assert_resumes_stop_at_once(Path(tmp) / "run", stop.value.queued,
                                    served)


def doc_orgs_by_scan(state, doc_id: str) -> set[str]:
    """The per-document scan that the `doc_orgs` table replaced."""
    doc = state.documents[doc_id]
    orgs: set[str] = set()
    for entity in state.registry.entities():
        if entity.kind != "organization":
            continue
        for _, affiliation in doc.metadata.authors:
            if entity.name.lower() in affiliation.lower():
                orgs.add(entity.entity_id)
    return orgs


def test_doc_orgs_table_matches_the_per_document_scan(golden):
    assert sorted(golden.doc_orgs) == sorted(golden.documents)
    for doc_id in golden.documents:
        assert golden.doc_orgs[doc_id] == doc_orgs_by_scan(golden, doc_id)
    assert sum(map(len, golden.doc_orgs.values())) >= 2


def test_relevance_gate_without_target(tmp_path):
    state = run("bias-field counterdiabatic runtime advantage", CORPUS_DIR,
                tmp_path / "run", PipelineConfig(), scripted_spec(),
                stop_after="layer2")
    assert state.seeds  # semantic gate found relevant documents


BACKGROUND_WORDS = ("solver", "runtime", "benchmark", "quantum", "annealing",
                    "graph", "heuristic", "advantage", "classical", "hardware",
                    "noise", "sampling", "protocol", "bias-field")


def background_corpus(tmp_path: Path, n: int) -> Path:
    """The fixture corpus plus `n` generated background documents."""
    corpus = tmp_path / "corpus"
    shutil.copytree(CORPUS_DIR, corpus)
    for i in range(n):
        words = [BACKGROUND_WORDS[(i * j + j) % len(BACKGROUND_WORDS)]
                 for j in range(1, 7)]
        (corpus / f"bg{i:02d}.json").write_text(json.dumps({
            "manifest_kind": "document", "slug": f"bg{i:02d}",
            "source_type": "paper", "title": f"Background note {i}",
            "metadata": {"authors": [{"name": "B. Author",
                                      "affiliation": "Lab"}],
                         "publication_date": "2024-01-01"},
            "sections": [{"heading": "Abstract", "level": 1,
                          "passages": [" ".join(words) + f", note {i}.",
                                       f"Second passage of note {i}."]},
                         {"heading": "Body", "level": 1,
                          "passages": [" ".join(reversed(words)) + "."]}],
            "assets": []}))
    return corpus


def seeds_by_document(state) -> list[str]:
    """Seed selection as one k=1 search per document, which the single
    search of `Run._select_seeds` replaced."""
    query_vec = embed_query(state.router, state.query, state.store.dim,
                            state.store.model_tag)
    ranked = []
    for doc_id in sorted(state.documents):
        doc = state.documents[doc_id]
        owners = {pid for pid, _ in
                  (doc.sections[0].passages if doc.sections else [])}
        if owners:
            hits = state.store.search(query_vec, k=1, owner_filter=owners)
            if hits[0][1] > 0.0:
                ranked.append((-hits[0][1], doc_id))
    return [doc_id for _, doc_id in sorted(ranked)[:state.cfg.relevance_top_n]]


@pytest.mark.parametrize("top_n", [3, 100])
def test_one_search_selects_the_seeds_of_per_document_searches(tmp_path,
                                                               top_n):
    cfg = PipelineConfig()
    cfg.relevance_top_n = top_n
    state = run(GOLDEN_QUERY, background_corpus(tmp_path, 40),
                tmp_path / "run", cfg, scripted_spec(), stop_after="layer1")
    # A document that shares its passage ids with the most relevant one.
    doc = state.documents[seeds_by_document(state)[0]]
    state.documents["zz-copy"] = dataclasses.replace(doc, doc_id="zz-copy")
    seeds = state._select_seeds()
    assert seeds == seeds_by_document(state)
    assert seeds[1] == "zz-copy"
    if top_n == 3:
        assert len(seeds) == 3
    else:  # background documents pass, and the relevance gate drops some
        assert 11 < len(seeds) < len(state.documents)


def counted(counts: dict[str, int], name: str, fn):
    """`fn`, adding one to `counts[name]` at each call."""
    def wrapper(*args, **kwargs):
        counts[name] = counts.get(name, 0) + 1
        return fn(*args, **kwargs)
    return wrapper


@pytest.mark.parametrize("background", [0, 40])
def test_seed_selection_is_one_search_and_one_matrix_build(
        tmp_path, monkeypatch, background):
    counts: dict[str, int] = {}
    monkeypatch.setattr(EmbeddingStore, "search",
                        counted(counts, "search", EmbeddingStore.search))
    monkeypatch.setattr(EmbeddingStore, "_build_matrix",
                        counted(counts, "build", EmbeddingStore._build_matrix))
    state = run(GOLDEN_QUERY, background_corpus(tmp_path, background),
                tmp_path / "run", PipelineConfig(), scripted_spec(),
                stop_after="layer2")
    assert len(state.documents) == 11 + background
    assert counts == {"search": 1, "build": 1}


def test_layer1_sends_the_same_waves_whatever_the_corpus_size(tmp_path,
                                                              monkeypatch):
    counts: dict[str, int] = {}
    monkeypatch.setattr(InferenceRouter, "map",
                        counted(counts, "map", InferenceRouter.map))
    waves = {}
    for background in (0, 40):
        counts.clear()
        state = run(GOLDEN_QUERY,
                    background_corpus(tmp_path / str(background), background),
                    tmp_path / str(background) / "run", PipelineConfig(),
                    scripted_spec(), stop_after="layer1")
        assert len(state.documents) == 11 + background
        waves[background] = counts["map"]
    assert waves[0] == waves[40] == 2


def test_layer2_sends_the_same_waves_whatever_the_number_of_seeds(
        tmp_path, monkeypatch):
    """Entity extraction, claim extraction and provenance go as three waves,
    whether layer 2 extracts the 7 seeds of the golden corpus or 20 of a
    larger corpus."""
    counts: dict[str, int] = {}
    monkeypatch.setattr(InferenceRouter, "map",
                        counted(counts, "map", InferenceRouter.map))
    waves, seeds = {}, {}
    for background in (0, 40):
        state = run(GOLDEN_QUERY,
                    background_corpus(tmp_path / str(background), background),
                    tmp_path / str(background) / "run", PipelineConfig(),
                    scripted_spec(), stop_after="layer1")
        counts.clear()
        state.execute(stop_after="layer2")
        waves[background], seeds[background] = counts["map"], len(state.seeds)
        assert sorted(state.doc_entities) == sorted(state.seeds)
    assert seeds == {0: 7, 40: 20}
    assert waves[0] == waves[40] == 3


def test_relation_edges_are_built_once_per_run(tmp_path, monkeypatch):
    counts: dict[str, int] = {}
    monkeypatch.setattr(pipeline, "relation_edge",
                        counted(counts, "edge", pipeline.relation_edge))
    state = run_golden(tmp_path / "run")
    rows = state.relations.entity_rows()
    assert rows and counts["edge"] == len(rows)


def test_layer4_walks_each_claim_once_and_tests_each_citation_once(
        tmp_path, monkeypatch):
    """Each claim's counter-claims are walked once in its alignment wave,
    and each matched pair's citation test is evaluated once."""
    counts: dict[str, int] = {}
    for name in ("_counters", "_cites"):
        monkeypatch.setattr(pipeline.Run, name,
                            counted(counts, name, getattr(pipeline.Run, name)))
    state = run_golden(tmp_path / "run", stop_after="layer4")
    assert counts["_counters"] == len(state.consensus) == 34
    assert counts["_cites"] == 35


def _corpus_with_notes(tmp_path: Path) -> Path:
    """The golden corpus plus a file that no loader reads."""
    corpus = tmp_path / "corpus"
    shutil.copytree(CORPUS_DIR, corpus)
    (corpus / "notes.xyz").write_text("hashed, never loaded\n",
                                      encoding="utf-8")
    return corpus


def test_construction_and_layer1_read_each_corpus_file_once(tmp_path,
                                                            monkeypatch):
    corpus = _corpus_with_notes(tmp_path)
    opened: dict[str, int] = {}
    original = io.open

    def counting(file, *args, **kwargs):
        if isinstance(file, (str, os.PathLike)) and \
                Path(file).parent == corpus:
            opened[Path(file).name] = opened.get(Path(file).name, 0) + 1
        return original(file, *args, **kwargs)

    monkeypatch.setattr(io, "open", counting)
    monkeypatch.setattr(builtins, "open", counting)
    state = run(GOLDEN_QUERY, corpus, tmp_path / "run", PipelineConfig(),
                scripted_spec(), target_doc="s1-target", stop_after="layer1")
    monkeypatch.undo()
    assert len(state.documents) == 11
    assert opened == {path.name: 1 for path in corpus.iterdir()}
    assert state._corpus_files is None


def test_editing_a_file_no_loader_reads_is_corpus_drift(tmp_path):
    corpus = _corpus_with_notes(tmp_path)
    state = run(GOLDEN_QUERY, corpus, tmp_path / "run", PipelineConfig(),
                scripted_spec(), target_doc="s1-target", stop_after="layer1")
    (corpus / "notes.xyz").write_text("edited\n", encoding="utf-8")
    with pytest.raises(ConfigDrift, match="corpus changed"):
        resume(tmp_path / "run")
    (corpus / "notes.xyz").write_text("hashed, never loaded\n",
                                      encoding="utf-8")
    assert resume(tmp_path / "run", stop_after="layer2").corpus_hash == \
        state.corpus_hash


def test_resume_past_layer1_keeps_no_corpus_bytes(tmp_path):
    run_golden(tmp_path / "a", stop_after="layer1")
    state = resume(tmp_path / "a", stop_after="layer2")
    assert state.layers_done["layer2"]
    assert state._corpus_files is None


def test_golden_store_keeps_each_fact_once(golden, tmp_path, monkeypatch):
    """A stored embedding's vector is only in the layer-1 transcript, the
    relations and the signal profiles are not copied into the store, and
    writing the store hashes nothing."""
    run_dir = golden.run_dir
    stored = {r["fingerprint"]
              for r in read_all(run_dir / "store" / "embeddings.jsonl")}
    holders = set()
    for path in run_dir.rglob("*"):
        if not path.is_file():
            continue
        rel = path.relative_to(run_dir).as_posix()
        text = path.read_text(encoding="utf-8")
        if rel.startswith("transcript/"):
            if any(json.loads(line)["fingerprint"] in stored
                   for line in text.splitlines()):
                holders.add(rel)
        elif '"vector"' in text:
            holders.add(rel)
    assert stored and holders == {"transcript/layer1.jsonl"}
    store = {path.name for path in (run_dir / "store").iterdir()}
    assert "relations.jsonl" not in store
    assert "signal_profiles.jsonl" not in store

    shutil.copytree(run_dir, tmp_path / "run")
    state = resume(tmp_path / "run")
    for entry in STORE:  # read first: the registry hashes as it loads
        getattr(state, entry.attr)
    counts: dict[str, int] = {}
    original = ids.content_hash
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("claimcheck") and \
                vars(module).get("content_hash") is original:
            monkeypatch.setattr(module, "content_hash", counted(
                counts, "content_hash", original))
    for layer in LAYERS:
        state._persist(layer)
    assert counts == {}


def test_resume_after_layer1_rebuilds_the_search_matrix(tmp_path):
    corpus = background_corpus(tmp_path, 40)
    cfg = PipelineConfig()
    cfg.document_budget = 100  # every document may be discovered
    whole = run(GOLDEN_QUERY, corpus, tmp_path / "whole", cfg,
                scripted_spec())
    run(GOLDEN_QUERY, corpus, tmp_path / "resumed", cfg, scripted_spec(),
        stop_after="layer1")
    resumed = resume(tmp_path / "resumed")
    assert resumed.store._owners == whole.store._owners
    assert np.array_equal(resumed.store._matrix, whole.store._matrix)
    assert dir_digest(tmp_path / "resumed") == dir_digest(tmp_path / "whole")


def test_resume_after_layer4_reads_no_transcript(tmp_path, monkeypatch):
    run_golden(tmp_path / "a", stop_after="layer4")
    transcripts = tmp_path / "a" / "transcript"
    read: list[str] = []
    original = io.open

    def recording(file, mode="r", *args, **kwargs):
        if isinstance(file, (str, os.PathLike)) and \
                Path(file).parent == transcripts and "r" in mode:
            read.append(Path(file).name)
        return original(file, mode, *args, **kwargs)

    monkeypatch.setattr(io, "open", recording)
    monkeypatch.setattr(builtins, "open", recording)
    state = resume(tmp_path / "a")
    monkeypatch.undo()
    assert state.layers_done["layer6"]
    assert read == []


def test_resume_after_layer5_parses_no_corpus_file(golden, tmp_path,
                                                   monkeypatch):
    """Layer 6 reads no relation, so its resume needs no corpus parse."""
    run_golden(tmp_path / "a", stop_after="layer5")

    def refuse(files):
        raise AssertionError("load_corpus_dir called")

    monkeypatch.setattr(pipeline, "load_corpus_dir", refuse)
    state = resume(tmp_path / "a")
    assert state.layers_done["layer6"]
    assert state._corpus_files is None  # dropped unparsed
    assert dir_digest(tmp_path / "a") == dir_digest(golden.run_dir)


# The store files of layers 1 to 5 that layer 6 never reads.
NOT_READ_BY_LAYER6 = ("embeddings.jsonl", "doc_claims.json",
                      "doc_entities.json", "evidence_links.jsonl",
                      "overclaims.jsonl", "agreements.jsonl", "fidelity.jsonl",
                      "financial.jsonl", "conflict_webs.jsonl",
                      "supply_chains.jsonl", "correlations.jsonl")


def test_resume_after_layer5_opens_only_the_store_files_layer6_reads(
        golden, tmp_path, monkeypatch):
    run_golden(tmp_path / "a", stop_after="layer5")
    store = tmp_path / "a" / "store"
    read: list[str] = []
    original = io.open

    def recording(file, mode="r", *args, **kwargs):
        if isinstance(file, (str, os.PathLike)) and \
                Path(file).parent == store and "r" in mode:
            read.append(Path(file).name)
        return original(file, mode, *args, **kwargs)

    monkeypatch.setattr(io, "open", recording)
    monkeypatch.setattr(builtins, "open", recording)
    state = resume(tmp_path / "a")
    monkeypatch.undo()
    assert state.layers_done["layer6"]
    before_layer6 = [e.name for e in STORE if e.layer != "layer6"]
    assert set(NOT_READ_BY_LAYER6) <= set(before_layer6)
    assert sorted(read) == sorted(set(before_layer6) -
                                  set(NOT_READ_BY_LAYER6))
    assert dir_digest(tmp_path / "a") == dir_digest(golden.run_dir)


@pytest.mark.parametrize("layer", ["layer1", "layer3"])
def test_resume_parses_the_corpus_once_at_the_first_relation_read(
        golden, tmp_path, monkeypatch, layer):
    run_golden(tmp_path / "a", stop_after=layer)
    counts: dict[str, int] = {}
    monkeypatch.setattr(pipeline, "load_corpus_dir", counted(
        counts, "load", pipeline.load_corpus_dir))
    state = resume(tmp_path / "a")
    assert counts == {"load": 1}
    assert state._corpus_files is None
    assert dir_digest(tmp_path / "a") == dir_digest(golden.run_dir)


def test_a_full_run_builds_the_knowledge_graph_in_layer5_only(
        tmp_path, monkeypatch):
    layer: list[str] = []
    built: list[str] = []
    for name, fn in pipeline.Run._LAYER_FNS.items():
        def entered(state, name=name, fn=fn):
            layer[:] = [name]
            return fn(state)
        monkeypatch.setitem(pipeline.Run._LAYER_FNS, name, entered)
    build_graph = pipeline.build_graph

    def recording(*args):
        built.append(layer[0])
        return build_graph(*args)

    monkeypatch.setattr(pipeline, "build_graph", recording)
    run_golden(tmp_path / "run")
    assert built == ["layer5"]


def test_golden_resume_after_layer5_decodes_only_the_lines_it_serves(
        tmp_path, monkeypatch):
    run_golden(tmp_path / "a", stop_after="layer5")
    decoded, served = [], []
    decode, complete = replay._Line.decode, ReplayProvider.complete

    def counting_decode(line):
        response = decode(line)
        decoded.append((response.fingerprint, response.provider_tag,
                        response.sample_index))
        return response

    def counting_complete(provider, task, tag, index):
        served.append((task.fingerprint, tag, index))
        return complete(provider, task, tag, index)

    monkeypatch.setattr(replay._Line, "decode", counting_decode)
    monkeypatch.setattr(ReplayProvider, "complete", counting_complete)
    state = resume(tmp_path / "a")
    monkeypatch.undo()
    assert state.layers_done["layer6"]
    layer6 = read_all(tmp_path / "a" / "transcript" / "layer6.jsonl")
    assert len(served) == len(layer6) == 106
    # Two workers may decode one line at once; no line is decoded unserved.
    assert set(decoded) == set(served)
    assert len(decoded) <= len(served)


def test_resume_accepts_a_manifest_with_the_old_queue_key(golden, tmp_path):
    run_golden(tmp_path / "a", stop_after="layer3")
    manifest = read_json(tmp_path / "a" / "manifest.json")
    assert "queue" not in manifest
    (tmp_path / "a" / "manifest.json").write_text(
        json.dumps({**manifest, "queue": []}), encoding="utf-8")
    resume(tmp_path / "a")
    assert dir_digest(tmp_path / "a") == dir_digest(golden.run_dir)


def test_resume_without_a_stored_vector_exits_2_naming_the_file(tmp_path,
                                                                capsys):
    run_golden(tmp_path / "a", stop_after="layer1")
    path = tmp_path / "a" / "transcript" / "layer1.jsonl"
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    rows = [json.loads(line) for line in lines]
    fingerprints = [row["fingerprint"] for row in rows]
    dropped = next(i for i, row in enumerate(rows) if row["kind"] == "embed"
                   and fingerprints.count(row["fingerprint"]) == 1)
    path.write_text("".join(lines[:dropped] + lines[dropped + 1:]),
                    encoding="utf-8")
    assert cli("resume", "--run-dir", tmp_path / "a") == 2
    assert str(path) in capsys.readouterr().err


def test_resume_with_a_short_stored_vector_exits_2_naming_its_owner(
        tmp_path, capsys):
    run_golden(tmp_path / "a", stop_after="layer1")
    path = tmp_path / "a" / "transcript" / "layer1.jsonl"
    rows = read_all(path)
    fingerprints = [row["fingerprint"] for row in rows]
    short = next(row for row in rows if row["kind"] == "embed"
                 and fingerprints.count(row["fingerprint"]) == 1)
    short["output"]["vector"] = short["output"]["vector"][:3]
    write_records(path, rows)
    [owner] = [r["owner"] for r in read_all(tmp_path / "a" / "store" /
                                            "embeddings.jsonl")
               if r["fingerprint"] == short["fingerprint"]]
    assert cli("resume", "--run-dir", tmp_path / "a") == 2
    assert capsys.readouterr().err == \
        f"error: record {owner} has dim 3, store expects 256\n"


def test_resume_lookup_converts_only_the_vectors_it_is_asked_for(
        tmp_path, monkeypatch):
    state = run_golden(tmp_path / "a", stop_after="layer1")
    path = tmp_path / "a" / "transcript" / "layer1.jsonl"
    records = state.embeddings
    # Two owners that share a fingerprint share its row.
    asked = records[:4] + [dataclasses.replace(records[1], owner="zz-copy")]
    converted = []

    def asarray(vector, dtype):
        converted.append(vector)
        return np.asarray(vector, dtype=dtype)

    monkeypatch.setattr(pipeline, "np", SimpleNamespace(asarray=asarray,
                                                        float64=np.float64))
    rows = pipeline._transcript_vectors(path, asked)
    monkeypatch.undo()
    lines = [r for r in read_all(path) if r["kind"] == "embed"]
    outputs = {r["fingerprint"]: r["output"]["vector"] for r in lines}
    assert len(records) > 50
    # One conversion for each line of an asked fingerprint, and no other.
    assert converted == [r["output"]["vector"] for r in lines if
                         r["fingerprint"] in {a.fingerprint for a in asked}]
    for record, row in zip(asked, rows, strict=True):
        assert type(row) is np.ndarray and row.dtype == np.float64
        assert row.tolist() == outputs[record.fingerprint]
    assert rows[4] is rows[1]


@pytest.mark.parametrize("make_state", [golden_state, live_golden_state],
                         ids=["inline", "pool"])
def test_embed_waves_yield_float64_rows_and_no_list_of_floats(
        tmp_path, monkeypatch, make_state):
    """The passage wave's items turn each vector into a float64 row, which
    the store keeps as it is; a query wave yields float64 rows too. This
    holds on the calling thread (replay) and on pool threads (live)."""
    waves, added = [], []
    router_map, store_add = InferenceRouter.map, EmbeddingStore.add

    def recording_map(router, fn, items):
        waves.append(router_map(router, fn, items))
        return waves[-1]

    def recording_add(store, record, vector=None):
        added.append(vector)
        store_add(store, record, vector)

    monkeypatch.setattr(InferenceRouter, "map", recording_map)
    monkeypatch.setattr(EmbeddingStore, "add", recording_add)
    state = make_state(tmp_path / "run")
    state.execute(stop_after="layer3")
    [passages] = [w for w in waves if w and type(w[0]) is tuple]
    assert len(passages) == len(added) == len(state.store) > 50
    for (fingerprint, model_tag, row), vector in zip(passages, added):
        assert type(fingerprint) is str and model_tag == "hashed-bow-v1"
        assert type(row) is np.ndarray and row.dtype == np.float64
        assert row.shape == (256,) and vector is row
    queries = [w for w in waves if w and type(w[0]) is np.ndarray]
    assert queries
    for row in (row for wave in queries for row in wave):
        assert row.dtype == np.float64 and row.shape == (256,)


def test_resume_completes_interrupted_run(tmp_path):
    partial = run_golden(tmp_path / "a", stop_after="layer3")
    manifest = read_json(partial.manifest_path)
    assert manifest["layers"]["layer3"] is True
    assert manifest["layers"]["layer4"] is False

    resumed = resume(tmp_path / "a")
    manifest = read_json(resumed.manifest_path)
    assert all(manifest["layers"][layer] for layer in LAYERS)
    assert (tmp_path / "a" / "report" / "assessment.json").exists()


def test_resume_of_complete_run_is_noop(tmp_path):
    state = run_golden(tmp_path / "a")
    before = dir_digest(tmp_path / "a")
    resume(tmp_path / "a")
    assert dir_digest(tmp_path / "a") == before


def test_resume_config_drift(tmp_path):
    run_golden(tmp_path / "a", stop_after="layer2")
    changed = PipelineConfig()
    changed.document_budget = 7
    with pytest.raises(ConfigDrift):
        resume(tmp_path / "a", cfg=changed)


def test_resume_corrupt_manifest(tmp_path):
    run_golden(tmp_path / "a", stop_after="layer1")
    (tmp_path / "a" / "manifest.json").write_text("{not json",
                                                  encoding="utf-8")
    with pytest.raises(CorruptManifest):
        resume(tmp_path / "a")
    (tmp_path / "a" / "manifest.json").write_text("[]", encoding="utf-8")
    with pytest.raises(CorruptManifest, match="unexpected manifest schema"):
        resume(tmp_path / "a")


def test_run_id_stable_across_out_dirs(tmp_path):
    a = run_golden(tmp_path / "a", stop_after="layer1")
    b = run_golden(tmp_path / "b", stop_after="layer1")
    assert a.run_id == b.run_id


def test_live_provider_requires_backend(tmp_path):
    with pytest.raises(ProviderFailure):
        run(GOLDEN_QUERY, CORPUS_DIR, tmp_path / "run", PipelineConfig(),
            ProviderSpec(mode="live", backend="no.such.module:fn"),
            target_doc="s1-target")


# --- CLI ------------------------------------------------------------------------

def cli(*args) -> int:
    return main([str(a) for a in args])


def test_cli_run_and_report(tmp_path, capsys):
    code = cli("run", "--query", GOLDEN_QUERY, "--corpus-dir", CORPUS_DIR,
               "--out", tmp_path / "run", "--provider", "replay",
               "--fixtures", TRANSCRIPT, "--target-doc", "s1-target")
    assert code == 0
    out = tmp_path / "report.txt"
    code = cli("report", "--run-dir", tmp_path / "run", "--out", out,
               "--format", "narrative")
    assert code == 0
    assert "Hypothesis matrix" in out.read_text(encoding="utf-8")


def test_cli_exit_code_precondition(tmp_path, capsys):
    empty = tmp_path / "corpus"
    empty.mkdir()
    code = cli("run", "--query", "q", "--corpus-dir", empty,
               "--out", tmp_path / "run", "--provider", "scripted",
               "--playbook", PLAYBOOK)
    assert code == 2


def test_cli_exit_code_budget(tmp_path, capsys):
    code = cli("run", "--query", GOLDEN_QUERY, "--corpus-dir", CORPUS_DIR,
               "--out", tmp_path / "run", "--provider", "scripted",
               "--playbook", PLAYBOOK, "--target-doc", "s1-target",
               "--budget", "1")
    assert code == 4


def test_cli_exit_code_provider_failure(tmp_path, capsys):
    code = cli("run", "--query", GOLDEN_QUERY, "--corpus-dir", CORPUS_DIR,
               "--out", tmp_path / "run", "--provider", "replay",
               "--fixtures", tmp_path / "missing.jsonl",
               "--target-doc", "s1-target")
    assert code in (2, 3)


def test_cli_layer_subcommand(tmp_path, capsys):
    code = cli("ingest", "--corpus-dir", CORPUS_DIR, "--out",
               tmp_path / "run", "--provider", "scripted",
               "--playbook", PLAYBOOK, "--query", GOLDEN_QUERY,
               "--target-doc", "s1-target")
    assert code == 0
    manifest = read_json(tmp_path / "run" / "manifest.json")
    assert manifest["layers"]["layer1"] is True
    assert manifest["layers"]["layer2"] is False
    # continue through extraction on the same run dir
    code = cli("extract", "--out", tmp_path / "run")
    assert code == 0
    manifest = read_json(tmp_path / "run" / "manifest.json")
    assert manifest["layers"]["layer2"] is True


def test_manifest_records_config_snapshot(tmp_path):
    state = run_golden(tmp_path / "run", stop_after="layer1")
    manifest = read_json(state.manifest_path)
    assert manifest["config_hash"] == PipelineConfig().snapshot_hash()
    assert manifest["corpus_hash"] == state.corpus_hash
    assert manifest["run_id"].startswith("run-")


_ROW_VALUES = st.sampled_from(["a", "a  b", "a b", 1, 1.0, True, 0, False,
                               None, {"value": 1, "currency": "EUR"},
                               {"value": 1.0, "currency": "EUR"}, [1, "a"]])
_NAMES = st.sampled_from(["a", "a  b", "a b"])
# Rows that `load_corpus_dir` admits: string subject, relation and object,
# and an object amount; any JSON value in a further key.
_ROWS = st.lists(st.fixed_dictionaries(
    {"subject": _NAMES, "relation": _NAMES, "object": _NAMES},
    optional={"amount": st.dictionaries(st.sampled_from(["value", "currency"]),
                                        _ROW_VALUES),
              "note": _ROW_VALUES}), max_size=12)


def _old_row_key(value):
    """The equality key every relation row had, without the fast path for
    a row of scalars: the reference."""
    if isinstance(value, dict):
        return frozenset((k, _old_row_key(v)) for k, v in value.items())
    if isinstance(value, list):
        return tuple(_old_row_key(v) for v in value)
    return value


@settings(max_examples=100, deadline=None)
@given(_ROWS, _ROWS)
def test_relation_rows_deduplicated_by_equality_in_first_seen_order(a, b):
    with tempfile.TemporaryDirectory() as tmp:
        corpus = Path(tmp)
        for name, rows in (("rel-a.json", a), ("rel-b.json", b)):
            (corpus / name).write_text(json.dumps(
                {"manifest_kind": "relations", "records": rows}),
                encoding="utf-8")
        _, relations = load_corpus_dir(read_corpus_dir(corpus))
    expected: list = []
    for row in a + b:
        if row not in expected:
            expected.append(row)
    assert relations.rows == expected
    assert [type(v) for r in relations.rows for v in r.values()] == \
        [type(v) for r in expected for v in r.values()]
    kept, seen = [], set()
    for row in a + b:
        if _old_row_key(row) not in seen:
            seen.add(_old_row_key(row))
            kept.append(row)
    assert json.dumps(relations.rows) == json.dumps(kept)


def test_shared_slug_resolves_alike_in_fresh_and_resumed_runs(tmp_path):
    corpus = tmp_path / "corpus"
    shutil.copytree(CORPUS_DIR, corpus)
    original = (corpus / "s1-target.json").read_bytes()
    data = json.loads(original)
    data["title"] += " (preprint)"
    copy = json.dumps(data, indent=2).encode("utf-8")
    ids = [ingest_document(raw, "json-manifest").doc_id
           for raw in (original, copy)]
    # Name the copy so that file order reads the higher doc_id first.
    (corpus / ("a-copy.json" if ids[1] > ids[0] else "z-copy.json")) \
        .write_bytes(copy)

    fresh = run(GOLDEN_QUERY, corpus, tmp_path / "fresh", PipelineConfig(),
                scripted_spec(), target_doc="s1-target", stop_after="layer2")
    run(GOLDEN_QUERY, corpus, tmp_path / "resumed", PipelineConfig(),
        scripted_spec(), target_doc="s1-target", stop_after="layer1")
    resumed = resume(tmp_path / "resumed", stop_after="layer2")
    assert fresh.seeds == resumed.seeds == [min(ids)]
    assert fresh.doc_by_slug("s1-target") == resumed.doc_by_slug("s1-target")


def test_cli_layer_command_checks_a_given_config_against_the_run(tmp_path,
                                                                 capsys):
    run_dir = tmp_path / "run"
    assert cli("ingest", "--corpus-dir", CORPUS_DIR, "--out", run_dir,
               "--provider", "scripted", "--playbook", PLAYBOOK,
               "--target-doc", "s1-target") == 0
    code = cli("verify-cross", "--out", run_dir, "--top-k", "1",
               "--max-hops", "0", "--budget", "1")
    assert code == 2
    assert "config differs" in capsys.readouterr().err
    layers = read_json(run_dir / "manifest.json")["layers"]
    assert layers["layer2"] is False and layers["layer4"] is False
    # a given config equal to the run's snapshot continues the run
    assert cli("extract", "--out", run_dir, "--budget", "50") == 0
    assert read_json(run_dir / "manifest.json")["layers"]["layer2"] is True


def test_cli_layer_command_without_config_flags_continues_the_run_snapshot(
        tmp_path, capsys):
    """A per-layer command given no config flag continues a run made with
    a non-default config with the run's own snapshot."""
    run_dir = tmp_path / "run"
    assert cli("ingest", "--corpus-dir", CORPUS_DIR, "--out", run_dir,
               "--provider", "scripted", "--playbook", PLAYBOOK,
               "--target-doc", "s1-target", "--budget", "7") == 0
    snapshot = read_json(run_dir / "manifest.json")["config_hash"]
    assert snapshot != PipelineConfig().snapshot_hash()
    assert cli("extract", "--out", run_dir) == 0
    manifest = read_json(run_dir / "manifest.json")
    assert manifest["layers"]["layer2"] is True
    assert manifest["config_hash"] == snapshot


@pytest.mark.parametrize("stored", ["as-met", "reversed"])
def test_self_corrected_through_an_alignment_stored_either_way(stored):
    """A claimant's reframing event counts when its source document holds
    a claim aligned with the claim, whichever claim the alignment names
    first; an alignment that does not name the claim does not count."""
    ns = SimpleNamespace
    claims = {"c1": ns(claim_id="c1", doc_id="d1"),
              "c2": ns(claim_id="c2", doc_id="d2"),
              "c3": ns(claim_id="c3", doc_id="d3")}
    docs = {"s2": ns(doc_id="d2"), "s3": ns(doc_id="d3")}

    def corrected(a, b, relation="matched", source="doc:s2"):
        state = ns(doc_orgs={"d1": {"org-1"}}, claims=claims,
                   alignments={(a, b): ns(claim_a=a, claim_b=b,
                                          relation=relation)},
                   timeline=[ns(kind="reframing", parties=["org-1"],
                                source=source)],
                   doc_by_slug=docs.get)
        return pipeline.Run._self_corrected(state, claims["c1"])

    a, b = ("c1", "c2") if stored == "as-met" else ("c2", "c1")
    assert corrected(a, b)
    assert corrected(a, b, relation="partially-overlapping")
    assert not corrected(a, b, relation="unrelated")
    assert not corrected(a, b, source="doc:s3")
    assert not corrected("c3", "c2", source="doc:s3")


@pytest.mark.parametrize("data, message", [
    ({"document_budgett": 1}, "unknown config key: document_budgett"),
    ({"corpus": {"quality_priorr": 0.5}},
     "unknown config key: corpus.quality_priorr"),
    ({"corpus": 5}, "config corpus must be a JSON object"),
    ([1], "config file must be a JSON object"),
    ({"corpus": {"quality_prior": "high"}},
     "config corpus.quality_prior must be a JSON number, not string"),
    ({"corpus": {"venue_tiers": 5}},
     "config corpus.venue_tiers must be a JSON object, not integer"),
    ({"corpus": {"venue_tiers": {"arxiv": "low"}}},
     "config corpus.venue_tiers.arxiv must be a JSON number, not string"),
    ({"assess": {"hypothesis_models": ["analyst-a", 3]}},
     r"config assess.hypothesis_models\[1\] must be a JSON string, not integer"),
    ({"document_budget": True},
     "config document_budget must be a JSON integer, not boolean"),
    ({"document_budget": 7.0},
     "config document_budget must be a JSON integer, not number"),
    ({"knowledge": {"entity_aliases": {"bf-dcqo": 3}}},
     "config knowledge.entity_aliases.bf-dcqo must be a JSON string, "
     "not integer"),
])
def test_config_rejects_unknown_keys_and_non_object_sections(data, message):
    with pytest.raises(ClaimcheckError, match=message):
        PipelineConfig.from_dict(data)


def test_config_type_check_accepts_an_integer_for_a_number():
    cfg = PipelineConfig.from_dict({"corpus": {"quality_prior": 1,
                                               "venue_tiers": {"arxiv": 0}}})
    assert cfg.corpus.quality_prior == 1
    assert cfg.corpus.venue_tiers == {"arxiv": 0}
    assert PipelineConfig().snapshot_hash() == "77ea7ef2ab5c4141"


def test_config_from_dict_overrides_only_the_given_keys():
    cfg = PipelineConfig.from_dict({"corpus": {"quality_prior": 0.4},
                                    "document_budget": 7})
    expected = PipelineConfig()
    expected.corpus.quality_prior = 0.4
    expected.document_budget = 7
    assert cfg == expected
    assert PipelineConfig.from_dict(PipelineConfig().to_dict()) == \
        PipelineConfig()


@pytest.mark.parametrize("text", ['{not json',
                                  '{"document_budgett": 1}', '{"corpus": 5}',
                                  '{"assess": {"n_samples": 0}}',
                                  '{"assess": {"hypothesis_models": []}}',
                                  '{"corpus": {"quality_prior": "high"}}',
                                  '{"corpus": {"venue_tiers": 5}}',
                                  '{"intradoc": {"candidate_top_k": 0}}',
                                  '{"crosssource": {"discovery_top_k": 0}}',
                                  '{"relevance_top_n": 0}',
                                  '{"corpus": {"citation_saturation": 0}}',
                                  '{"corpus": {"embedding_dim": 0}}',
                                  '{"provider": {"backoff_base": -1}}',
                                  '{"provider": {"backoff_factor": -2}}',
                                  '{"corpus": {"venue_weight": 0, '
                                  '"citation_weight": 0, '
                                  '"diversity_weight": 0}}',
                                  '{"corpus": {"venue_weight": -1}}',
                                  '{"signals": {"coi_max_hops": -1}}',
                                  '{"crosssource": '
                                  '{"discovery_citation_hops": -3}}',
                                  '{"signals": '
                                  '{"correlation_window_days": -5}}'])
def test_cli_run_with_bad_config_exits_2(tmp_path, capsys, text):
    bad = tmp_path / "bad.json"
    bad.write_text(text, encoding="utf-8")
    code = cli("run", "--query", GOLDEN_QUERY, "--corpus-dir", CORPUS_DIR,
               "--out", tmp_path / "run", "--provider", "scripted",
               "--playbook", PLAYBOOK, "--config", bad)
    assert code == 2
    assert "error: " in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("flag, text", [
    pytest.param("--config", None, id="missing-config"),
    pytest.param("--playbook", None, id="missing-playbook"),
    pytest.param("--playbook", "{not json", id="playbook-not-json")])
def test_cli_run_with_an_unreadable_json_file_exits_2_naming_it(
        tmp_path, capsys, flag, text):
    path = tmp_path / "given.json"
    if text is not None:
        path.write_text(text, encoding="utf-8")
    files = {"--playbook": PLAYBOOK, flag: path}
    code = cli("run", "--query", GOLDEN_QUERY, "--corpus-dir", CORPUS_DIR,
               "--out", tmp_path / "run", "--provider", "scripted",
               *(arg for item in files.items() for arg in item))
    assert code == 2
    assert capsys.readouterr().err.startswith(
        f"error: cannot read JSON file {path}: ")


def test_cli_report_on_a_run_stopped_before_layer6_exits_2_naming_the_file(
        tmp_path, capsys):
    run_golden(tmp_path / "run", stop_after="layer2")
    code = cli("report", "--run-dir", tmp_path / "run")
    assert code == 2
    path = tmp_path / "run" / "report" / "assessment.json"
    assert capsys.readouterr().err.startswith(
        f"error: cannot read JSON file {path}: ")


def test_cli_run_with_out_a_regular_file_exits_2_naming_it(tmp_path, capsys):
    out = tmp_path / "taken"
    out.write_text("not a directory", encoding="utf-8")
    code = cli("run", "--query", GOLDEN_QUERY, "--corpus-dir", CORPUS_DIR,
               "--out", out, "--provider", "replay", "--fixtures", TRANSCRIPT,
               "--target-doc", "s1-target")
    assert code == 2
    assert capsys.readouterr().err.startswith(
        f"error: cannot write {out / 'manifest.json'}: ")
    assert out.read_text(encoding="utf-8") == "not a directory"


def test_cli_run_that_cannot_write_a_store_file_exits_2_naming_it(tmp_path,
                                                                  capsys):
    (tmp_path / "run").mkdir()
    (tmp_path / "run" / "store").write_text("", encoding="utf-8")
    code = cli("run", "--query", GOLDEN_QUERY, "--corpus-dir", CORPUS_DIR,
               "--out", tmp_path / "run", "--provider", "replay",
               "--fixtures", TRANSCRIPT, "--target-doc", "s1-target")
    assert code == 2
    path = tmp_path / "run" / "store" / "documents.jsonl"
    assert capsys.readouterr().err.startswith(f"error: cannot write {path}: ")


def test_cli_report_out_in_a_missing_directory_exits_2_naming_it(golden,
                                                                 tmp_path,
                                                                 capsys):
    out = tmp_path / "missing" / "report.txt"
    code = cli("report", "--run-dir", golden.run_dir, "--out", out)
    assert code == 2
    assert capsys.readouterr().err.startswith(f"error: cannot write {out}: ")
    assert not out.parent.exists()


def test_cli_resume_with_a_damaged_store_line_exits_2_naming_it(tmp_path,
                                                                capsys):
    run_golden(tmp_path / "run", stop_after="layer2")
    path = tmp_path / "run" / "store" / "claims.jsonl"
    number = len(path.read_text(encoding="utf-8").splitlines()) + 1
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("garbage\n")
    code = cli("resume", "--run-dir", tmp_path / "run")
    assert code == 2
    assert capsys.readouterr().err.startswith(
        f"error: {path} line {number} is not JSON: ")


def test_cli_resume_with_a_store_file_not_utf8_exits_2_naming_it(tmp_path,
                                                                capsys):
    run_golden(tmp_path / "run", stop_after="layer2")
    path = tmp_path / "run" / "store" / "claims.jsonl"
    with open(path, "ab") as fh:
        fh.write(b"\xff\xfe\n")
    code = cli("resume", "--run-dir", tmp_path / "run")
    assert code == 2
    assert capsys.readouterr().err.startswith(
        f"error: {path} is not UTF-8: ")


@pytest.mark.parametrize("text", ["[]", "5", '"x"'])
def test_cli_run_with_a_playbook_not_an_object_exits_2_naming_it(
        tmp_path, capsys, text):
    path = tmp_path / "playbook.json"
    path.write_text(text, encoding="utf-8")
    code = cli("run", "--query", GOLDEN_QUERY, "--corpus-dir", CORPUS_DIR,
               "--out", tmp_path / "run", "--provider", "scripted",
               "--playbook", path, "--target-doc", "s1-target")
    assert code == 2
    assert capsys.readouterr().err == \
        f"error: playbook {path} must be a JSON object\n"


@pytest.mark.parametrize("key", ["config", "config_hash", "query",
                                 "corpus_dir", "corpus_hash", "provider",
                                 "layers", "run_id"])
def test_resume_of_a_manifest_without_a_key_names_the_key(tmp_path, key):
    run_golden(tmp_path / "a", stop_after="layer1")
    path = tmp_path / "a" / "manifest.json"
    manifest = read_json(path)
    del manifest[key]
    path.write_text(json.dumps(manifest), encoding="utf-8")
    with pytest.raises(CorruptManifest, match=f"has no '{key}'"):
        resume(tmp_path / "a")


@pytest.mark.parametrize("key, value, message", [
    ("layers", [], "manifest layers must be a JSON object, not array"),
    ("layers", {"layer1": 1},
     "manifest layers.layer1 must be a JSON boolean, not integer"),
    ("seeds", 5, "manifest seeds must be a JSON array, not integer"),
    ("gaps", None, "manifest gaps must be a JSON array, not null"),
    ("seeds", [5], r"manifest seeds\[0\] must be a JSON string, not integer"),
    ("provider", {"mode": "replay", "fixtures": 7},
     "manifest provider.fixtures must be a JSON string, not integer"),
    ("provider", ["replay"], "manifest provider must be a JSON object"),
    ("provider", {"mode": "replay", "fixture": "x"},
     "unknown manifest key: provider.fixture"),
    ("provider", {}, "manifest has no 'provider.mode'"),
    ("corpus_dir", 5, "manifest corpus_dir must be a JSON string, not integer"),
    ("query", 5, "manifest query must be a JSON string, not integer"),
    ("target_doc", 5,
     "manifest target_doc must be a JSON string, not integer"),
    ("gap", [], "unknown manifest key: gap")])
def test_cli_resume_of_a_manifest_value_of_the_wrong_type_exits_2_naming_it(
        tmp_path, capsys, key, value, message):
    run_golden(tmp_path / "a", stop_after="layer3")
    path = tmp_path / "a" / "manifest.json"
    path.write_text(json.dumps({**read_json(path), key: value}),
                    encoding="utf-8")
    assert cli("resume", "--run-dir", tmp_path / "a") == 2
    err = capsys.readouterr().err
    assert re.match(f"error: {message} in ", err) and str(path) in err
    with pytest.raises(CorruptManifest):
        resume(tmp_path / "a")


def test_cli_verify_cross_with_top_k_0_exits_2(tmp_path, capsys):
    code = cli("verify-cross", "--query", GOLDEN_QUERY, "--corpus-dir",
               CORPUS_DIR, "--out", tmp_path / "run", "--provider",
               "scripted", "--playbook", PLAYBOOK, "--top-k", "0")
    assert code == 2
    assert "crosssource.discovery_top_k >= 1" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command, flag, value, what", [
    ("verify-cross", "--max-hops", "-3", "crosssource.discovery_citation_hops"),
    ("signals", "--window-days", "-5", "signals.correlation_window_days")])
def test_cli_negative_hops_or_window_exits_2(tmp_path, capsys, command, flag,
                                             value, what):
    code = cli(command, "--query", GOLDEN_QUERY, "--corpus-dir", CORPUS_DIR,
               "--out", tmp_path / "run", "--provider", "scripted",
               "--playbook", PLAYBOOK, flag, value)
    assert code == 2
    assert f"{what} >= 0" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def _s2_with_asset(asset):
    """s2-algorithm-intro.json (three sections) with one visual asset."""
    data = json.loads((CORPUS_DIR / "s2-algorithm-intro.json").read_bytes())
    return json.dumps({**data, "assets": [{"caption": "A plot", **asset}]})


def _edited(name, where, value):
    """Corpus file `name` with the value at key path `where` set to `value`."""
    data = json.loads((CORPUS_DIR / name).read_bytes())
    *path, key = where
    node = data
    for step in path:
        node = node[step]
    node[key] = value
    return json.dumps(data)


def _bad_dates(value, suffix=""):
    """Cases with `value` as a relation row's, a manifest's and a sidecar's
    date."""
    return [
        pytest.param("relations.json",
                     _edited("relations.json", ["records", 15, "date"], value),
                     "corpus file relations.json is malformed: records[15] "
                     f"date {value!r} is not an ISO date",
                     id="relation-date" + suffix),
        pytest.param("s1-target.json",
                     _edited("s1-target.json",
                             ["metadata", "publication_date"], value),
                     "corpus file s1-target.json: metadata publication_date "
                     f"{value!r} is not an ISO date",
                     id="manifest-date" + suffix),
        pytest.param("s1-target.meta.json",
                     json.dumps({"publication_date": value}),
                     "corpus file s1-target.meta.json is malformed: "
                     f"publication_date {value!r} is not an ISO date",
                     id="sidecar-date" + suffix)]


@pytest.mark.parametrize("name, text, message", [
    pytest.param(None, None, "cannot read corpus path {corpus}: ",
                 id="missing-dir"),
    pytest.param("broken.json", '{"title": ',
                 "corpus file broken.json is malformed: ", id="document-json"),
    pytest.param("s1-target.meta.json", "{",
                 "corpus file s1-target.meta.json is malformed: ",
                 id="sidecar-json"),
    pytest.param("s1-target.meta.json", '{"sponsor": "x"}',
                 "corpus file s1-target.meta.json is malformed: "
                 "unknown metadata key: sponsor", id="sidecar-unknown-key"),
    pytest.param("s1-target.meta.json", '{"citation_count": "many"}',
                 "corpus file s1-target.meta.json is malformed: metadata "
                 "citation_count must be a JSON integer, not string",
                 id="sidecar-wrong-type"),
    pytest.param("s1-target.meta.json", '{"authors": [["A"]]}',
                 "corpus file s1-target.meta.json is malformed: metadata "
                 "authors[0] must be a JSON array of 2 items, not 1",
                 id="sidecar-short-author"),
    pytest.param("listed.json", "[1, 2]",
                 "corpus file listed.json is malformed: its top level is not "
                 "a JSON object", id="document-not-an-object"),
    pytest.param("s2-algorithm-intro.json",
                 _s2_with_asset({"inline_refs": [[99, 0]]}),
                 "corpus file s2-algorithm-intro.json: asset 0 section 99 "
                 "does not exist", id="asset-ref-section"),
    pytest.param("s2-algorithm-intro.json",
                 _s2_with_asset({"inline_refs": [[0, -1]]}),
                 "corpus file s2-algorithm-intro.json: asset 0 passage -1 "
                 "does not exist", id="asset-ref-negative-passage"),
    pytest.param("s2-algorithm-intro.json", _s2_with_asset({"section": 3}),
                 "corpus file s2-algorithm-intro.json: asset 0 section 3 "
                 "does not exist", id="asset-section"),
    pytest.param("blank.txt", "  \n",
                 "corpus file blank.txt: document contains no usable text",
                 id="empty-input"),
    pytest.param("novel.json", '{"source_type": "novel"}',
                 "corpus file novel.json: unknown source_type 'novel'",
                 id="unsupported-format"),
    pytest.param("odd.json", '{"sections": [5]}',
                 "corpus file odd.json: manifest is malformed: "
                 "AttributeError: ", id="manifest-section-not-an-object"),
    pytest.param("odd.json", json.dumps({
        "metadata": {"authors": [{"affiliation": "Lab"}]},
        "sections": [{"passages": ["Text."]}]}),
                 "corpus file odd.json: manifest is malformed: "
                 "KeyError: 'name'", id="manifest-author-without-name"),
    pytest.param("s1-target.json",
                 _edited("s1-target.json", ["metadata", "citation_count"],
                         "many"),
                 "corpus file s1-target.json: metadata citation_count must "
                 "be a JSON integer, not string", id="manifest-wrong-type"),
    pytest.param("s1-target.json",
                 _edited("s1-target.json", ["metadata", "sponsor"], "x"),
                 "corpus file s1-target.json: unknown metadata key: sponsor",
                 id="manifest-unknown-key"),
    pytest.param("relations.json",
                 _edited("relations.json", ["records", 15],
                         {"subject": "Kipu Quantum", "relation": "acquired"}),
                 "corpus file relations.json is malformed: records[15] "
                 "object must be a JSON string", id="relation-without-object"),
    pytest.param("relations.json",
                 _edited("relations.json", ["records", 15, "subject"], 5),
                 "corpus file relations.json is malformed: records[15] "
                 "subject must be a JSON string", id="relation-subject-number"),
    pytest.param("relations.json", _edited("relations.json", ["records"], 5),
                 "corpus file relations.json is malformed: records must be a "
                 "JSON array", id="relation-records-number"),
    pytest.param("relations.json",
                 _edited("relations.json", ["records", 15], "a row"),
                 "corpus file relations.json is malformed: records[15] must "
                 "be a JSON object", id="relation-row-string"),
    pytest.param("relations.json",
                 _edited("relations.json", ["records", 15, "amount"], 5),
                 "corpus file relations.json is malformed: records[15] "
                 "amount must be a JSON object", id="relation-amount-number"),
    # Python 3.11's `date.fromisoformat` reads the basic and week forms too,
    # but layer 5 orders dates as strings, so only `YYYY-MM-DD` may load.
    *_bad_dates("soon"), *_bad_dates("20250317", "-basic"),
    *_bad_dates("2025-W11-1", "-week")])
def test_cli_run_with_bad_corpus_input_exits_2_naming_it(tmp_path, capsys,
                                                         name, text, message):
    corpus = tmp_path / "corpus"
    if name is not None:
        shutil.copytree(CORPUS_DIR, corpus)
        (corpus / name).write_text(text, encoding="utf-8")
    code = cli("run", "--query", GOLDEN_QUERY, "--corpus-dir", corpus,
               "--out", tmp_path / "run", "--provider", "scripted",
               "--playbook", PLAYBOOK)
    assert code == 2
    assert capsys.readouterr().err.startswith(
        "error: " + message.format(corpus=corpus))


def test_cli_replay_with_missing_fixtures_exits_2(tmp_path, capsys):
    missing = tmp_path / "transcript.jsonl"
    code = cli("run", "--query", GOLDEN_QUERY, "--corpus-dir", CORPUS_DIR,
               "--out", tmp_path / "run", "--provider", "replay",
               "--fixtures", missing)
    assert code == 2
    assert f"replay fixtures {missing} do not exist" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()



def _first_line_edited(edit):
    def write(path):
        lines = TRANSCRIPT.read_text(encoding="utf-8").splitlines()
        lines[0] = edit(lines[0])
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path
    return write


def _line_appended(path):
    path.write_text(TRANSCRIPT.read_text(encoding="utf-8") + '{"fingerprint"',
                    encoding="utf-8")
    return path


@pytest.mark.parametrize("fixtures, message, built", [
    pytest.param(lambda path: path.mkdir() or path,
                 "replay fixtures {path} hold no *.jsonl file", False,
                 id="empty-dir"),
    pytest.param(lambda path: path.write_bytes(b"\xff\n") and path,
                 "cannot read replay fixtures {path}: ", False,
                 id="not-utf8"),
    pytest.param(_line_appended, "replay fixtures {path} line 1284 is "
                 "malformed: ", False, id="line-outside-the-layout"),
    pytest.param(_first_line_edited(
        lambda line: line.replace('"output":{', '"output":{{', 1)),
                 "replay fixtures {path} line 1 is malformed: ", True,
                 id="layout-line-not-json"),
    pytest.param(_first_line_edited(
        lambda line: line.replace(',"provider_tag":',
                                  ',"fingerprint":"x","provider_tag":', 1)),
                 "replay fixtures {path} line 1 is malformed: it decodes to "
                 "key ('x', ", True, id="layout-line-of-another-key")])
def test_cli_run_with_bad_replay_fixtures_exits_2_naming_them(
        tmp_path, capsys, fixtures, message, built):
    path = fixtures(tmp_path / "transcript.jsonl")
    code = cli("run", "--query", GOLDEN_QUERY, "--corpus-dir", CORPUS_DIR,
               "--out", tmp_path / "run", "--provider", "replay",
               "--fixtures", path, "--target-doc", "s1-target")
    assert code == 2
    assert capsys.readouterr().err.startswith(
        "error: " + message.format(path=path))
    # A line in the layout is decoded, and so refused, when first served.
    assert (tmp_path / "run").exists() is built
