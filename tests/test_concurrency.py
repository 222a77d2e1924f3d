"""Provider calls in waves: the run directory must not depend on the order
in which concurrent calls finish, the calls that layers 2-4 and 6 batch
must go through the router's pool on a live backend, and a replay run must
make them on the calling thread."""

from __future__ import annotations

import json
import random
import threading
import time
from functools import cached_property

import pytest

from claimcheck import pipeline
from claimcheck.pipeline import LAYERS, STORE, Run, StoreFile, resume
from claimcheck.provider import LiveProvider
from claimcheck.provider.spec import build_router

from conftest import (TranscriptBackend, dir_digest, golden_state,
                      live_golden_state, run_golden)
from test_golden_digest import DIGESTS, PINNED_DIRS

# Task kinds that layers 1-4 and 6 send only in waves of `router.map`.
WAVE_KINDS = ("describe-asset", "extract-entities", "extract-claims",
              "align-claims", "classify-provenance", "nli-verdict", "embed",
              "coherence", "overclaim", "root-cause", "citation-fidelity",
              "rubric", "hypothesize", "counter-hypothesize")


class ShuffledBackend(TranscriptBackend):
    """A live backend that answers each task from the golden transcript by
    fingerprint after a seeded random delay of 0-3 ms, so concurrent calls
    finish in an order unrelated to the order they were sent in."""

    def __init__(self, seed: int):
        super().__init__()
        self._random = random.Random(seed)
        self._lock = threading.Lock()

    def __call__(self, kind, payload, provider_tag, sample_index):
        with self._lock:
            delay = self._random.uniform(0.0, 0.003)
        time.sleep(delay)
        return super().__call__(kind, payload, provider_tag, sample_index)


@pytest.mark.parametrize("seed", [1, 2])
def test_out_of_order_live_answers_give_the_golden_run(tmp_path, seed):
    state = live_golden_state(tmp_path / "run", ShuffledBackend(seed))
    state.execute()
    pinned = {rel: digest for rel, digest in
              json.loads(DIGESTS.read_text(encoding="utf-8")).items()
              if rel.startswith(PINNED_DIRS)}
    actual = {rel: digest for rel, digest in dir_digest(state.run_dir).items()
              if rel.startswith(PINNED_DIRS)}
    assert sorted(actual) == sorted(pinned)
    changed = sorted(rel for rel in pinned if actual[rel] != pinned[rel])
    assert not changed, f"out-of-order run differs from the pin: {changed}"


class ThreadRecorder:
    """Wraps a backend and records the thread that makes each call."""

    def __init__(self, inner):
        self.inner = inner
        self.deterministic = inner.deterministic
        self.calls: list[tuple[str, int]] = []
        self._lock = threading.Lock()

    def complete(self, task, provider_tag, sample_index):
        with self._lock:
            self.calls.append((task.kind, threading.get_ident()))
        return self.inner.complete(task, provider_tag, sample_index)


def test_wave_kinds_never_run_on_the_calling_thread(tmp_path):
    state = live_golden_state(tmp_path / "run")
    recorder = ThreadRecorder(state.router.backend)
    state.router.backend = recorder
    state.execute()
    caller = threading.get_ident()
    kinds = {kind for kind, _ in recorder.calls}
    assert set(WAVE_KINDS) <= kinds
    on_caller = sorted({kind for kind, thread in recorder.calls
                        if thread == caller and kind in WAVE_KINDS})
    assert not on_caller, f"calls made on the thread running the layers: {on_caller}"
    assert len(recorder.calls) == 1283


def test_layer6_sends_one_wave_off_the_calling_thread(tmp_path):
    state = golden_state(tmp_path / "run")
    state.execute(stop_after="layer5")
    recorder = ThreadRecorder(LiveProvider(TranscriptBackend()))
    state.router.backend = recorder
    waves = []
    original_map = state.router.map

    def counting_map(fn, items):
        waves.append(1)
        return original_map(fn, items)

    state.router.map = counting_map
    state.layer6()
    assert len(waves) == 1
    assert len(recorder.calls) == 106
    caller = threading.get_ident()
    assert all(thread != caller for _, thread in recorder.calls)


def test_replay_waves_run_on_the_calling_thread(tmp_path, started_threads):
    state = golden_state(tmp_path / "run")
    recorder = ThreadRecorder(state.router.backend)
    state.router.backend = recorder
    state.execute()
    assert not started_threads
    assert len(recorder.calls) == 1283
    caller = threading.get_ident()
    assert {thread for _, thread in recorder.calls} == {caller}


# The views of `Run` that are built at their first read, as the tables are.
VIEWS = ("docs_by_slug", "doc_orgs", "registry", "store", "relations",
         "relation_edges")


def test_a_live_resume_builds_every_table_and_view_on_the_calling_thread(
        golden, tmp_path, monkeypatch):
    """A live golden run resumed from each of layers 1 to 5 in turn: its
    waves run on the pool, and every table and view it builds is built on
    the thread that runs the layers."""
    recorders = []

    def live_router(spec, cfg, transcript):
        router = build_router(spec, cfg, transcript)
        router.backend = ThreadRecorder(LiveProvider(TranscriptBackend()))
        recorders.append(router.backend)
        return router

    built: list[tuple[str, int]] = []
    load_table = StoreFile.__get__

    def recording_get(entry, state, owner=None):
        if state is not None:
            built.append((entry.attr, threading.get_ident()))
        return load_table(entry, state, owner)

    monkeypatch.setattr(pipeline, "build_router", live_router)
    monkeypatch.setattr(StoreFile, "__get__", recording_get)
    for name in VIEWS:
        def recording(state, name=name, build=vars(Run)[name].func):
            built.append((name, threading.get_ident()))
            return build(state)
        view = cached_property(recording)
        view.__set_name__(Run, name)
        monkeypatch.setattr(Run, name, view)

    run_golden(tmp_path / "run", stop_after="layer1")
    caller = threading.get_ident()
    seen = set()
    for stop in LAYERS[1:]:
        built.clear()
        state = resume(tmp_path / "run", stop_after=stop)
        assert state.layers_done[stop]
        off_caller = sorted({name for name, thread in built
                             if thread != caller})
        assert not off_caller, f"built off the calling thread: {off_caller}"
        if stop != "layer5":  # layer 5 makes no provider call
            assert any(thread != caller
                       for _, thread in recorders[-1].calls), stop
        seen |= {name for name, _ in built}
    monkeypatch.undo()
    # `embeddings` and `entities` are read through `store` and `registry`;
    # layers 4 to 6 assign three tables whole before any read.
    assert seen == {entry.attr for entry in STORE} - {
        "embeddings", "entities", "agreements", "correlations",
        "matrix"} | set(VIEWS)
    assert dir_digest(tmp_path / "run") == dir_digest(golden.run_dir)
