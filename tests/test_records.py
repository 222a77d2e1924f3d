"""The generic record codec and the store table that uses it."""

from __future__ import annotations

import dataclasses
import json
import shutil
import types
import typing
from typing import Any

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from claimcheck.assess import EvidenceProfile, HypothesisRow
from claimcheck.corpus.model import DocumentMetadata, SourceDocument
from claimcheck.crosssource import IndependenceRating, RubricAssessment
from claimcheck.errors import ClaimcheckError
from claimcheck.jsonl import dumps_record
from claimcheck.knowledge.model import (ClaimTriple, MetricValue,
                                        OverheadEntry, ProvenanceLevel)
from claimcheck.pipeline import (LAYERS, STORE, load_corpus_dir,
                                 read_corpus_dir, resume)
from claimcheck.records import from_record, to_record

from conftest import CORPUS_DIR, golden_state

RECORD_TYPES = sorted({entry.record for entry in STORE if entry.record},
                      key=lambda cls: cls.__name__)

_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=8)
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=6)

# Field values the classes themselves constrain.
_OVERRIDES = {
    ProvenanceLevel: st.builds(ProvenanceLevel, st.integers(1, 5)),
    # rounded on write, so only 6-place values survive the round trip
    (HypothesisRow, "entropy"): st.floats(0, 10).map(lambda x: round(x, 6)),
    # a stored profile always carries a classified claim
    (EvidenceProfile, "claim"): st.deferred(lambda: _of(ClaimTriple).filter(
        lambda claim: claim.provenance is not None)),
}


def _of(tp: Any) -> st.SearchStrategy:
    """Values of an annotated type, built from the annotation alone."""
    if tp in _OVERRIDES:
        return _OVERRIDES[tp]
    if tp is Any:
        return _JSON
    if tp is str:
        return st.text(max_size=8)
    if tp in (int, bool, type(None)):
        return st.from_type(tp)
    if tp is float:
        return st.floats(allow_nan=False, allow_infinity=False)
    if dataclasses.is_dataclass(tp):
        hints = typing.get_type_hints(tp)
        return st.builds(tp, **{
            f.name: _OVERRIDES[tp, f.name] if (tp, f.name) in _OVERRIDES
            else _of(hints[f.name]) for f in dataclasses.fields(tp)})
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin in (typing.Union, types.UnionType):
        return st.one_of([_of(arg) for arg in args])
    if origin is dict:
        return st.dictionaries(st.text(max_size=8), _of(args[1]), max_size=3)
    if origin is tuple and args[-1] is not Ellipsis:
        return st.tuples(*(_of(arg) for arg in args))
    items = st.lists(_of(args[0]), max_size=3)
    return items.map(tuple) if origin is tuple else items


def _round_trip(obj: Any) -> Any:
    return from_record(type(obj), json.loads(dumps_record(to_record(obj))))


@pytest.mark.parametrize("cls", RECORD_TYPES, ids=lambda cls: cls.__name__)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_every_store_record_type_round_trips(cls, data):
    obj = data.draw(_of(cls))
    assert _round_trip(obj) == obj


def _claim(**changes: Any) -> ClaimTriple:
    claim = ClaimTriple(claim_id="clm-1", subject="ent-a", predicate="runs-on",
                        object="ent-b", object_is_entity=True, doc_id="doc-1",
                        section_id="sec-1", passage_ids=[])
    return dataclasses.replace(claim, **changes)


@pytest.mark.parametrize("obj", [
    _claim(),  # None optionals and empty lists
    _claim(provenance=ProvenanceLevel(4), cited_refs=["doc:b"],
           metric=MetricValue(quantity=(1.5, 2.0), unit="s",
                              excluded_overheads=[OverheadEntry("queue")])),
    _claim(metric=MetricValue(quantity=3.0, unit="ratio")),
    IndependenceRating(pair=("doc-a", "doc-b"), rating="low",
                       author_jaccard=0.5, shared_affiliation=True,
                       citation_distance=None, competitor_stake=False,
                       weight=0.25),
    RubricAssessment(claim_id="clm-1", rubric_source="doc-e",
                     criteria=[("wall-clock", "no", "excludes queueing")],
                     summary="fails one criterion"),
    DocumentMetadata(authors=[("A. Author", "Lab")], citation_count=0),
], ids=["bare-claim", "interval-metric", "scalar-metric", "rating-pair",
        "rubric-criteria", "metadata-authors"])
def test_named_shapes_round_trip_with_their_types(obj):
    back = _round_trip(obj)
    assert back == obj
    assert repr(back) == repr(obj)  # tuples stay tuples, floats stay floats


def test_hook_types_keep_their_stored_form():
    record = to_record(_claim(provenance=ProvenanceLevel(3)))
    assert record["provenance"] == 3
    assert "enrichments" not in record
    doc = SourceDocument(doc_id="doc-1", source_type="paper", title="t",
                         sections=[])
    assert "sections" in to_record(doc) and "body" not in to_record(doc)


def test_decoder_rejects_unknown_keys():
    with pytest.raises(TypeError):
        from_record(DocumentMetadata, {"venue": "v", "sponsor": "x"})
    record = to_record(SourceDocument(doc_id="doc-1", source_type="paper",
                                      title="t", sections=[]))
    record["metadata"]["sponsor"] = "x"
    with pytest.raises(TypeError):
        from_record(SourceDocument, record)


def test_metadata_sidecar_with_unknown_key_is_rejected(tmp_path):
    shutil.copy(CORPUS_DIR / "s1-target.json", tmp_path / "s1-target.json")
    (tmp_path / "s1-target.meta.json").write_text(
        json.dumps({"venue": "v", "sponsor": "x"}), encoding="utf-8")
    with pytest.raises(ClaimcheckError,
                       match="s1-target.meta.json is malformed.*sponsor"):
        load_corpus_dir(read_corpus_dir(tmp_path))


def test_store_table_names_every_store_file_once(golden):
    names = [entry.name for entry in STORE]
    assert len(names) == len(set(names))
    on_disk = sorted(p.name for p in (golden.run_dir / "store").iterdir())
    assert on_disk == sorted(names)
    assert {entry.layer for entry in STORE} <= set(LAYERS)


def test_reload_and_persist_reproduces_every_reloaded_file(golden, tmp_path):
    run_dir = tmp_path / "run"
    shutil.copytree(golden.run_dir, run_dir)
    state = resume(run_dir)
    for entry in STORE:  # each table is read from its file at its first read
        getattr(state, entry.attr)
    for entry in STORE:
        (run_dir / "store" / entry.name).unlink()
    for layer in LAYERS:
        state._persist(layer)
    for entry in STORE:
        assert (run_dir / "store" / entry.name).read_bytes() == \
            (golden.run_dir / "store" / entry.name).read_bytes(), entry.name


def test_a_fresh_run_holds_each_store_table_empty_with_its_type(tmp_path):
    state = golden_state(tmp_path / "run")
    for entry in STORE:
        table = getattr(state, entry.attr)
        assert type(table) is entry.table and not table, entry.attr
    assert {entry.table for entry in STORE} == {list, dict}


def test_resuming_a_finished_run_loads_matrix_and_profiles(golden, tmp_path):
    run_dir = tmp_path / "run"
    shutil.copytree(golden.run_dir, run_dir)
    state = resume(run_dir)
    assert golden.matrix and golden.profiles
    assert state.matrix == golden.matrix
    assert state.profiles == golden.profiles
