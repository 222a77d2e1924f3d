"""Provider layer: fingerprints, schema validation, replay, retries, the pool."""

from __future__ import annotations

import hashlib
import json
import os
import re
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from types import SimpleNamespace

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from jsonschema import Draft202012Validator

from claimcheck.config import PipelineConfig, ProviderConfig
from claimcheck.errors import ClaimcheckError, ProviderFailure, SchemaViolation
from claimcheck.ids import content_hash
from claimcheck.jsonl import dumps_record, read_json, read_records, write_records
from claimcheck.provider import (InferenceResponse, InferenceRouter,
                                 InferenceTask, ReplayProvider,
                                 ScriptedProvider, Transcript, replay)
from claimcheck.provider.base import line_of
from claimcheck.provider.embedder import embed_text, tokenize
from claimcheck.provider.schemas import OUTPUT_SCHEMAS, validate_output
from claimcheck.provider.spec import ProviderSpec
from claimcheck.provider.tasks import SCHEMA_VERSION
from claimcheck.records import from_record, to_record

from conftest import (CORPUS_DIR, GOLDEN_QUERY, PLAYBOOK, ROOT, TRANSCRIPT,
                      StubProvider, dir_digest, live_golden_state, make_router,
                      run_golden)


def test_fingerprint_independent_of_field_order():
    a = InferenceTask("nli-verdict", {"claim": {"slug": "d", "subject": "X",
                                                "predicate": "p", "object": "o"},
                                      "passage": {"owner": "p1", "text": "t"}})
    b = InferenceTask("nli-verdict", {"passage": {"text": "t", "owner": "p1"},
                                      "claim": {"object": "o", "predicate": "p",
                                                "subject": "X", "slug": "d"}})
    assert a.fingerprint == b.fingerprint


def test_fingerprint_normalizes_whitespace():
    a = InferenceTask("embed", {"text": "hello   world", "dim": 8,
                                "model_tag": "t"})
    b = InferenceTask("embed", {"text": "hello world ", "dim": 8,
                                "model_tag": "t"})
    assert a.fingerprint == b.fingerprint


def test_unknown_task_kind_rejected():
    with pytest.raises(ValueError):
        InferenceTask("divination", {})


def test_invoke_validates_output_schema():
    backend = StubProvider(lambda t, tag, i: {"label": "perhaps"})
    router = make_router(backend)
    task = InferenceTask("nli-verdict", {"claim": {}, "passage": {"text": "x"}})
    with pytest.raises(SchemaViolation):
        router.invoke(task)
    # deterministic backend is not retried on schema violations
    assert backend.calls == 1


def test_invoke_retries_nondeterministic_backend():
    state = {"n": 0}

    def flaky(task, tag, i):
        state["n"] += 1
        if state["n"] < 3:
            raise ProviderFailure("transient")
        return {"label": "supports", "rationale": ""}

    backend = StubProvider(flaky, deterministic=False)
    router = make_router(backend)
    task = InferenceTask("nli-verdict", {"claim": {}, "passage": {"text": "x"}})
    assert router.invoke(task).output["label"] == "supports"
    assert backend.calls == 3


def test_invoke_exhausts_retries():
    def always_fail(task, tag, i):
        raise ProviderFailure("down")

    backend = StubProvider(always_fail, deterministic=False)
    router = make_router(backend, retries=3)
    task = InferenceTask("nli-verdict", {"claim": {}, "passage": {"text": "x"}})
    with pytest.raises(ProviderFailure):
        router.invoke(task)
    assert backend.calls == 3


def test_replay_serves_recorded_response(tmp_path):
    task = InferenceTask("nli-verdict", {"claim": {}, "passage": {"text": "x"}})
    response = InferenceResponse(fingerprint=task.fingerprint,
                                 kind="nli-verdict",
                                 output={"label": "supports", "rationale": ""},
                                 provider_tag="analyst-a", sample_index=0)
    write_records(tmp_path / "t.jsonl", [to_record(response)])
    provider = ReplayProvider.from_path(tmp_path / "t.jsonl")
    router = make_router(provider)
    assert router.invoke(task).output == response.output


def test_replay_miss_names_fingerprint():
    provider = ReplayProvider({})
    router = make_router(provider)
    task = InferenceTask("nli-verdict", {"claim": {}, "passage": {"text": "x"}})
    with pytest.raises(ProviderFailure) as err:
        router.invoke(task)
    assert task.fingerprint in str(err.value)


def _eager_responses(files):
    """The replay loader that decoded every line at load: the reference."""
    responses = {}
    for file in files:
        for record in read_records(file):
            response = from_record(InferenceResponse, record)
            responses[response.fingerprint, response.provider_tag,
                      response.sample_index] = response
    return responses


_JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-10, 10),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=6),
    # text that looks like the tail of a transcript line
    st.just('","provider_tag":"analyst-a","sample_index":0,'
            '"schema_version":"v1"}'))
_JSON_VALUES = st.recursive(
    _JSON_SCALARS, lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=8)
_RESPONSE_RECORDS = st.fixed_dictionaries({
    "fingerprint": st.sampled_from(["f0", "f1", "f2", 'f"3', "f\\4"]),
    "kind": st.sampled_from(["embed", "nli-verdict"]),
    "output": st.dictionaries(st.text(max_size=4), _JSON_VALUES, max_size=3),
    "provider_tag": st.sampled_from(["analyst-a", "analyst-b", "é"]),
    "sample_index": st.integers(-1, 11),
    "schema_version": st.sampled_from([SCHEMA_VERSION, "v0"])})
# How a line is written: as `write_records` does, or in another layout.
_RENDERINGS = {
    "layout": dumps_record,
    "spaced": lambda record: json.dumps(record, sort_keys=True),
    "unsorted": lambda record: json.dumps(dict(reversed(record.items())),
                                          separators=(",", ":")),
    "padded": lambda record: "  " + dumps_record(record) + " \t"}


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(_RESPONSE_RECORDS, st.sampled_from(sorted(
    _RENDERINGS)), st.booleans()), max_size=14), st.data())
def test_replay_loader_serves_what_the_eager_loader_did(lines, data):
    text = [_RENDERINGS[how](record) + ("\n" if blank else "")
            for record, how, blank in lines]
    cut = data.draw(st.integers(0, len(text)))
    with tempfile.TemporaryDirectory() as tmp:
        folder = Path(tmp)
        files = [folder / "a.jsonl", folder / "b.jsonl"]
        files[0].write_text("\n".join(text[:cut]), encoding="utf-8")
        files[1].write_text("\n".join(text[cut:]) + "\n", encoding="utf-8")
        for path, expected in ((folder, _eager_responses(files)),
                               (files[1], _eager_responses(files[1:]))):
            provider = ReplayProvider.from_path(path)
            assert len(provider) == len(expected)
            for (fingerprint, tag, index), response in expected.items():
                task = SimpleNamespace(fingerprint=fingerprint,
                                       kind=response.kind)
                for _ in range(2):   # each serve decodes the line again
                    output = provider.complete(task, tag, index)
                    assert dumps_record(output) == \
                        dumps_record(response.output)


def _whole_text_lines(file):
    """The replay loader that read a file whole and split it at "\\n": the
    reference for the served line of each key and where it was read."""
    lines = {}
    for number, raw in enumerate(
            file.read_text(encoding="utf-8").split("\n"), 1):
        text = raw.strip()
        if not text:
            continue
        match = replay._LAYOUT.fullmatch(text)
        if match is not None and match[4] == SCHEMA_VERSION:
            lines[match[1], match[2], int(match[3])] = (file, number, text)
        else:
            response = from_record(InferenceResponse, json.loads(text))
            lines[response.fingerprint, response.provider_tag,
                  response.sample_index] = (
                file, number, line_of(response))
    return lines


def _golden_lines(count):
    """The first `count` golden transcript lines: every other one in the
    layout, the rest spaced or of an old schema version."""
    records = list(read_records(TRANSCRIPT))[:count]
    texts = []
    for i, record in enumerate(records):
        if i % 4 == 1:
            texts.append(json.dumps(record, sort_keys=True))
        elif i % 4 == 3:
            texts.append(dumps_record({**record, "schema_version": "v0"}))
        else:
            texts.append(dumps_record(record))
    return texts


@pytest.mark.parametrize("join", [
    pytest.param(lambda texts: "".join(t + "\r\n" for t in texts), id="crlf"),
    # Both loaders read in universal-newline mode: a lone "\r" ends a line.
    pytest.param(lambda texts: "\r".join(texts) + "\r", id="cr"),
    pytest.param(lambda texts: "\n".join(texts), id="no-final-newline"),
    pytest.param(lambda texts: "\n\n \t\n".join(texts) + "\n\n",
                 id="blank-lines"),
    pytest.param(lambda texts: "\r\n\r\n".join(texts) + "\r\n  ",
                 id="crlf-blank-lines-and-no-final-newline")])
def test_streamed_loader_serves_what_the_whole_text_loader_did(tmp_path,
                                                               join):
    path = tmp_path / "t.jsonl"
    path.write_bytes(join(_golden_lines(12)).encode("utf-8"))
    expected = _whole_text_lines(path)
    provider = ReplayProvider.from_path(path)
    assert len(provider) == len(expected) == 12
    assert {key: tuple(line) for key, line in provider._lines.items()} == \
        expected
    for (fingerprint, tag, index), (_, _, text) in expected.items():
        task = SimpleNamespace(fingerprint=fingerprint, kind=json.loads(
            text)["kind"])
        assert provider.served_line(task, tag, index) == text
        assert provider.complete(task, tag, index) == json.loads(text)["output"]


def test_streamed_loader_names_the_line_and_the_file_it_fails_on(tmp_path):
    path = tmp_path / "t.jsonl"
    texts = _golden_lines(3)
    path.write_bytes("\r\n\r\n".join(texts[:2] + ["{"]).encode("utf-8"))
    with pytest.raises(ClaimcheckError,
                       match=rf"^replay fixtures {re.escape(str(path))} "
                             r"line 5 is malformed: "):
        ReplayProvider.from_path(path)
    # A byte that is not UTF-8 after lines that are.
    path.write_bytes("\n".join(texts).encode("utf-8") + b"\n\xff\n")
    with pytest.raises(ClaimcheckError,
                       match=rf"^cannot read replay fixtures "
                             rf"{re.escape(str(path))}: "):
        ReplayProvider.from_path(path)


def test_replay_keeps_layout_lines_as_text_until_served(tmp_path):
    task = InferenceTask("nli-verdict", {"claim": {}, "passage": {"text": "x"}})
    record = to_record(InferenceResponse(
        fingerprint=task.fingerprint, kind=task.kind,
        output={"label": "supports", "rationale": ""},
        provider_tag="analyst-a"))
    write_records(tmp_path / "t.jsonl", [record])
    decoded = []
    decode = replay._Line.decode
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(replay._Line, "decode",
                      lambda line: decoded.append(line.number) or decode(line))
        provider = ReplayProvider.from_path(tmp_path / "t.jsonl")
        assert decoded == []
        for _ in range(3):
            assert provider.complete(task, "analyst-a", 0) == record["output"]
    assert decoded == [1, 1, 1]


def test_one_wave_asking_one_key_from_many_items_always_succeeds(
        tmp_path, monkeypatch):
    task = InferenceTask("embed", {"text": "x", "dim": 256,
                                   "model_tag": "hashed-bow-v1"})
    output = {"model_tag": "hashed-bow-v1", "vector": [0.5] * 256}
    path = tmp_path / "t.jsonl"
    write_records(path, [to_record(InferenceResponse(
        fingerprint=task.fingerprint, kind=task.kind, output=output,
        provider_tag="analyst-a"))])
    decode = replay._Line.decode

    def slow(line):   # gives the other workers the GIL mid-decode
        time.sleep(0.002)
        return decode(line)

    monkeypatch.setattr(replay._Line, "decode", slow)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for _ in range(10):   # 4 workers on one key at once
            router = make_router(ReplayProvider.from_path(path))
            served = router.map(lambda _: router.invoke(task, "analyst-a"),
                                range(16))
            assert [response.output for response in served] == [output] * 16
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("edit, reason", [
    pytest.param(lambda line: line.replace('"output":{', '"output":{{', 1),
                 "Expecting property name", id="not-json"),
    pytest.param(lambda line: line.replace(
        ',"provider_tag":', ',"fingerprint":"other","provider_tag":', 1),
                 "it decodes to key ('other', 'analyst-a', 0)",
                 id="another-key")])
def test_bad_layout_line_is_reported_when_first_served(tmp_path, edit,
                                                       reason):
    task = InferenceTask("nli-verdict", {"claim": {}, "passage": {"text": "x"}})
    record = to_record(InferenceResponse(
        fingerprint=task.fingerprint, kind=task.kind,
        output={"label": "supports", "rationale": ""},
        provider_tag="analyst-a"))
    path = tmp_path / "t.jsonl"
    path.write_text("\n" + edit(dumps_record(record)) + "\n", encoding="utf-8")
    provider = ReplayProvider.from_path(path)
    assert len(provider) == 1
    with pytest.raises(ClaimcheckError,
                       match=f"replay fixtures {path} line 2 is malformed: "
                       f"{re.escape(reason)}") as err:
        make_router(provider).invoke(task, "analyst-a")
    assert type(err.value) is ClaimcheckError


# --- the router's bounded pool -----------------------------------------------
# Only waves on a non-deterministic backend use the pool, so the pool tests
# run on a live backend or a stub marked non-deterministic.

def live_stub() -> StubProvider:
    return StubProvider(lambda t, tag, i: {}, deterministic=False)


def test_golden_run_starts_at_most_max_parallelism_threads(tmp_path,
                                                           started_threads):
    live_golden_state(tmp_path / "run").execute()
    assert 1 <= len(started_threads) <= PipelineConfig().max_parallelism, \
        started_threads


def test_router_map_collates_in_input_order():
    router = make_router(live_stub())
    last_done = threading.Event()

    def fn(i):
        if i == 0:  # the first item finishes only after the last one
            assert last_done.wait(timeout=10)
        if i == 3:
            last_done.set()
        return i * 10

    assert router.map(fn, range(4)) == [0, 10, 20, 30]
    assert router.map(fn, []) == []


def test_router_map_raises_the_earliest_failure_by_input_order():
    router = make_router(live_stub())
    later_failed = threading.Event()

    def fn(i):
        if i == 1:  # fails only after item 3 has failed
            assert later_failed.wait(timeout=10)
            raise ProviderFailure("item 1")
        if i == 3:
            later_failed.set()
            raise ProviderFailure("item 3")
        return i

    with pytest.raises(ProviderFailure, match="item 1"):
        router.map(fn, range(4))


def test_router_map_runs_each_item_once_under_thread_churn():
    cfg = ProviderConfig(retries=1, backoff_base=0.0, routing={})
    router = InferenceRouter(live_stub(), cfg, max_parallelism=8)
    seen: list[int] = []
    outcome = {}

    def fn(i):
        seen.append(i)
        return i * 2

    def waves():
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            outcome["results"] = [router.map(fn, range(n))
                                  for n in (0, 1, 7, 2000)]
        finally:
            sys.setswitchinterval(interval)

    caller = threading.Thread(target=waves, daemon=True)
    caller.start()
    caller.join(timeout=60)
    assert not caller.is_alive()
    assert outcome["results"] == [[2 * i for i in range(n)]
                                  for n in (0, 1, 7, 2000)]
    assert sorted(seen) == sorted([*range(1), *range(7), *range(2000)])


def test_router_map_inside_a_wave_raises_instead_of_deadlocking():
    for deterministic in (False, True):  # the pool, then inline
        router = make_router(StubProvider(lambda t, tag, i: {},
                                          deterministic=deterministic))
        outcome = {}

        def nest():
            try:
                router.map(lambda i: router.map(str, [i]), range(8))
            except ClaimcheckError as exc:
                outcome["error"] = exc

        caller = threading.Thread(target=nest, daemon=True)
        caller.start()
        caller.join(timeout=10)
        assert not caller.is_alive(), "nested router.map deadlocked the pool"
        assert "inside a wave" in str(outcome["error"])
        assert router.map(str, range(3)) == ["0", "1", "2"]


def test_inline_wave_runs_in_input_order_on_the_calling_thread():
    router = make_router(StubProvider(lambda t, tag, i: {}))
    calls = []

    def fn(i):
        calls.append((i, threading.get_ident()))
        return i * 10

    assert router.map(fn, range(5)) == [0, 10, 20, 30, 40]
    assert calls == [(i, threading.get_ident()) for i in range(5)]
    assert router.map(fn, []) == []


def test_inline_wave_stops_at_the_first_failure():
    router = make_router(StubProvider(lambda t, tag, i: {}))
    called = []

    def fn(i):
        called.append(i)
        if i in (2, 3):
            raise ProviderFailure(f"item {i}")
        return i

    with pytest.raises(ProviderFailure, match="item 2"):
        router.map(fn, range(6))
    assert called == [0, 1, 2]


def test_nested_map_after_a_failed_inline_wave_still_raises():
    router = make_router(StubProvider(lambda t, tag, i: {}))

    def fail(i):
        raise ProviderFailure(f"item {i}")

    with pytest.raises(ProviderFailure, match="item 0"):
        router.map(fail, range(3))
    with pytest.raises(ClaimcheckError, match="inside a wave"):
        router.map(lambda i: router.map(str, [i]), range(3))
    assert router.map(str, range(3)) == ["0", "1", "2"]


def test_a_swapped_backend_chooses_the_path_of_the_next_wave():
    router = make_router(StubProvider(lambda t, tag, i: {}))
    assert router.map(lambda i: threading.get_ident(), range(2)) == [
        threading.get_ident()] * 2
    router.backend = live_stub()
    threads = router.map(lambda i: threading.get_ident(), range(2))
    assert threading.get_ident() not in threads


def test_pool_threads_exit_once_the_run_is_dropped(tmp_path):
    before = set(threading.enumerate())
    state = live_golden_state(tmp_path / "run")
    state.execute()
    pool_threads = set(threading.enumerate()) - before
    assert pool_threads
    del state
    for thread in pool_threads:
        thread.join(timeout=10)
    assert not [t.name for t in pool_threads if t.is_alive()]


def test_transcript_round_trips_through_replay(tmp_path):
    playbook = ScriptedProvider.from_path(PLAYBOOK)
    transcript = Transcript()
    router = make_router(playbook, transcript=transcript)
    task = InferenceTask("align-claims", {
        "a": {"slug": "d1", "subject": "X", "predicate": "p", "object": "o"},
        "b": {"slug": "d2", "subject": "X", "predicate": "q", "object": "o"},
    })
    first = router.invoke(task)
    path = tmp_path / "transcript.jsonl"
    path.write_text("\n".join(transcript.drain()), encoding="utf-8")
    replay_router = make_router(ReplayProvider.from_path(path))
    assert replay_router.invoke(task).output == first.output


def test_scripted_embed_matches_local_embedder():
    playbook = ScriptedProvider.from_path(PLAYBOOK)
    router = make_router(playbook)
    task = InferenceTask("embed", {"text": "runtime advantage", "dim": 16,
                                   "model_tag": "hashed-bow-v1"})
    out = router.invoke(task).output
    assert out["vector"] == embed_text("runtime advantage", 16)


def test_embedder_deterministic_and_normalized():
    a = embed_text("quantum optimization runtime", 64)
    b = embed_text("quantum optimization runtime", 64)
    assert a == b
    norm = sum(x * x for x in a) ** 0.5
    assert abs(norm - 1.0) < 1e-6


def _numpy_slot(feature: str, dim: int) -> tuple[int, float]:
    digest = hashlib.sha256(feature.encode("utf-8")).digest()
    return (int.from_bytes(digest[:4], "big") % dim,
            1.0 if digest[4] % 2 == 0 else -1.0)


def _numpy_embed_text(text: str, dim: int) -> list[float]:
    """The NumPy embedder that `embed_text` replaced: the reference."""
    tokens = tokenize(text)
    vec = np.zeros(dim, dtype=np.float64)
    features = list(tokens)
    features.extend(f"{a}__{b}" for a, b in zip(tokens, tokens[1:]))
    for feature in features:
        index, sign = _numpy_slot(feature, dim)
        vec[index] += sign
    norm = float(np.linalg.norm(vec))
    if norm > 0.0:
        vec /= norm
    return [round(float(x), 9) for x in vec]


def _bits(vector: list[float]) -> list[str]:
    """Each component's exact value, so 0.0 and -0.0 differ."""
    assert all(type(x) is float for x in vector)
    return [x.hex() for x in vector]


_WORDS = ["qubit", "anneal", "runtime", "x", "2.5", "gpu-a100", "a_b", "é"]


@settings(max_examples=300, deadline=None)
@given(text=st.lists(st.sampled_from(_WORDS)).map(" ".join) | st.text(),
       dim=st.sampled_from([1, 7, 256]) | st.integers(1, 64))
def test_embed_text_is_bit_identical_to_the_numpy_embedder(text, dim):
    assert _bits(embed_text(text, dim)) == _bits(_numpy_embed_text(text, dim))


def _cancelling_text(dim: int) -> tuple[str, int]:
    """Two words and the slot where two of their features' signs cancel."""
    for i in range(100):
        for j in range(100):
            features = [f"w{i}", f"w{j}", f"w{i}__w{j}"]
            slots = [_numpy_slot(f, dim) for f in features]
            for index in {index for index, _ in slots}:
                if sorted(s for k, s in slots if k == index) == [-1.0, 1.0]:
                    return f"w{i} w{j}", index
    raise AssertionError("no cancelling pair")


@pytest.mark.parametrize("text, dim", [
    ("", 1), ("", 7), ("", 256), ("...", 256), ("qubit", 1), ("qubit", 7),
    ("qubit " * 40, 256), ("a b a b a b", 7), ("a b c d", 1),
])
def test_embed_text_named_cases(text, dim):
    vector = embed_text(text, dim)
    assert len(vector) == dim
    assert _bits(vector) == _bits(_numpy_embed_text(text, dim))
    if not tokenize(text):
        assert _bits(vector) == [(0.0).hex()] * dim


@pytest.mark.parametrize("dim", [7, 256])
def test_embed_text_of_cancelling_signs_keeps_a_positive_zero(dim):
    text, index = _cancelling_text(dim)
    vector = embed_text(text, dim)
    assert vector[index].hex() == (0.0).hex()
    assert _bits(vector) == _bits(_numpy_embed_text(text, dim))


@pytest.mark.parametrize("module", ["claimcheck.provider",
                                    "claimcheck.provider.tasks"])
def test_the_provider_package_imports_no_numpy(module):
    # A fresh interpreter, so nothing this test process imported counts.
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, "-c", f"import sys, {module}\n"
         "print('numpy' in sys.modules)"],
        capture_output=True, text=True, env=env, check=True)
    assert done.stdout.split() == ["False"]


# --- output schema validation against jsonschema.validate as the oracle ------

def _reference_message(kind, output):
    """The SchemaViolation message jsonschema.validate implies, or None."""
    try:
        jsonschema.validate(output, OUTPUT_SCHEMAS[kind])
    except jsonschema.ValidationError as exc:
        return f"{kind} output failed schema {SCHEMA_VERSION}: {exc.message}"
    return None


def _message(kind, output):
    try:
        validate_output(kind, output)
    except SchemaViolation as exc:
        return str(exc)
    return None


def _valid(schema):
    """Outputs that satisfy `schema` (the subset of keywords it uses)."""
    if "enum" in schema:
        return st.sampled_from(schema["enum"])
    kind = schema["type"]
    if isinstance(kind, list):
        return st.one_of([_valid({**schema, "type": k}) for k in kind])
    if kind == "object":
        props, required = schema["properties"], schema["required"]
        return st.fixed_dictionaries(
            {k: _valid(props[k]) for k in required},
            optional={k: _valid(v) for k, v in props.items()
                      if k not in required})
    if kind == "array":
        return st.lists(_valid(schema["items"]),
                        min_size=schema.get("minItems", 0),
                        max_size=schema.get("maxItems", 5))
    return {
        "string": st.text(min_size=schema.get("minLength", 0), max_size=5),
        "integer": st.integers(schema.get("minimum"), schema.get("maximum")),
        "number": st.one_of(st.integers(), st.floats(allow_nan=False)),
        "boolean": st.booleans(),
        "null": st.none(),
    }[kind]


_JUNK = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 6), st.just(1.0),
    st.floats(allow_nan=False), st.text(max_size=3), st.just("not-a-label"),
    st.lists(st.integers(0, 3), max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2))


def _paths(value, prefix=()):
    yield prefix
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _paths(item, prefix + (key,))
    elif isinstance(value, list):
        for index, item in enumerate(value):
            yield from _paths(item, prefix + (index,))


@st.composite
def _mutated(draw, kind):
    """A valid output with one node replaced, dropped, grown or emptied."""
    output = draw(_valid(OUTPUT_SCHEMAS[kind]))
    path = draw(st.sampled_from(list(_paths(output))))
    op = draw(st.sampled_from(["replace", "drop", "grow", "clear"]))
    if not path:
        return draw(_JUNK)
    parent = output
    for step in path[:-1]:
        parent = parent[step]
    target = parent[path[-1]]
    if op == "drop":
        del parent[path[-1]]
    elif op == "grow" and isinstance(target, list):
        target.append(draw(st.sampled_from(target) if target else _JUNK))
    elif op == "clear" and isinstance(target, (list, dict)):
        target.clear()
    else:
        parent[path[-1]] = draw(_JUNK)
    return output


_KINDS = sorted(OUTPUT_SCHEMAS)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(_KINDS).flatmap(lambda kind: st.tuples(
    st.just(kind), st.one_of(_valid(OUTPUT_SCHEMAS[kind]), _mutated(kind)))))
def test_validate_output_agrees_with_jsonschema_validate(case):
    kind, output = case
    assert _message(kind, output) == _reference_message(kind, output)


_CLAIM = {"subject": "X", "predicate": "p", "object": "o",
          "passages": [[0, 1]]}


class _Int(int):
    pass


class _Float(float):
    pass


class _Str(str):
    pass


@pytest.mark.parametrize("kind,output", [
    ("embed", {"vector": [0.5, -1, 2.0], "model_tag": "t"}),
    ("embed", {"vector": [0.5, True], "model_tag": "t"}),
    ("embed", {"vector": [0.5, "0.5"], "model_tag": "t"}),
    ("embed", {"vector": [], "model_tag": "t"}),
    ("embed", {"vector": [0.5]}),
    ("embed", {"vector": "0.5", "model_tag": "t"}),
    ("extract-claims", {"claims": [_CLAIM]}),
    ("extract-claims", {"claims": [{**_CLAIM, "passages": [[0, 1.0]]}]}),
    ("extract-claims", {"claims": [{**_CLAIM, "passages": [[True, 1]]}]}),
    ("extract-claims", {"claims": [{**_CLAIM, "passages": [[0]]}]}),
    ("extract-claims", {"claims": [{**_CLAIM, "passages": [[0, 1, 2]]}]}),
    ("extract-claims", {"claims": [{**_CLAIM, "cited_refs": ["a", 3]}]}),
    ("extract-claims", {"claims": [{k: v for k, v in _CLAIM.items()
                                    if k != "subject"}]}),
    ("nli-verdict", {"label": "perhaps"}),
    ("align-claims", {"relation": "matched", "stance": "maybe"}),
    ("describe-asset", {"description": "d", "trends": ["up", None]}),
    # Items that the acceptor leaves to the stock validator.
    ("embed", {"vector": [True], "model_tag": "t"}),
    ("embed", {"vector": [0.5, np.float64(0.25)], "model_tag": "t"}),
    ("embed", {"vector": [1, _Int(2)], "model_tag": "t"}),
    ("embed", {"vector": [0.5, _Float(0.25)], "model_tag": "t"}),
    ("embed", {"vector": [float("nan"), float("inf"), -float("inf")],
               "model_tag": "t"}),
    ("describe-asset", {"description": "d", "trends": ["up", 1.5]}),
    ("describe-asset", {"description": "d", "trends": ["up", _Str("down")]}),
])
def test_validate_output_named_mutations(kind, output):
    assert _message(kind, output) == _reference_message(kind, output)


def _is_type_calls(kind, output):
    """How many times validating `output` calls the stock validator's
    `is_type`."""
    calls = []
    original = Draft202012Validator.is_type

    def counting(validator, instance, name):
        calls.append(name)
        return original(validator, instance, name)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Draft202012Validator, "is_type", counting)
        assert _message(kind, output) is None
    return len(calls)


def _embed(vector):
    return {"vector": vector, "model_tag": "hashed-bow-v1"}


def test_embed_validation_calls_is_type_independent_of_the_vector_length():
    vector = embed_text("a passage about quantum annealing", 256)
    assert len(vector) == 256
    calls = _is_type_calls("embed", _embed(vector))
    assert calls == _is_type_calls("embed", _embed(vector[:1]))
    assert calls == _is_type_calls("embed", _embed([0, 1.5] * 128))
    assert calls < 16


@pytest.mark.parametrize("item", [np.float64(0.5), _Float(0.5), _Int(1)])
def test_other_number_types_go_to_the_stock_keyword(item):
    # Only exact int and float pass the acceptor's type-set test; the rest
    # take the stock validator, one descent and so one `is_type` call per
    # item.
    short = _is_type_calls("embed", _embed([0.5] + [item] * 4))
    long = _is_type_calls("embed", _embed([0.5] + [item] * 8))
    assert long - short == 4


# --- the acceptor: True only where jsonschema.validate passes ----------------

def _accepts(kind, output):
    """The acceptor's answer; when it is True, jsonschema.validate passes."""
    accepted = OUTPUT_SCHEMAS[kind].accept(output)
    assert type(accepted) is bool
    if accepted:
        jsonschema.validate(output, OUTPUT_SCHEMAS[kind])
    return accepted


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(_KINDS).flatmap(lambda kind: st.tuples(
    st.just(kind), st.one_of(_valid(OUTPUT_SCHEMAS[kind]), _mutated(kind)))))
def test_acceptor_accepts_only_what_jsonschema_accepts(case):
    _accepts(*case)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(_KINDS).flatmap(lambda kind: st.tuples(
    st.just(kind), _valid(OUTPUT_SCHEMAS[kind]))))
def test_acceptor_accepts_every_valid_output_of_exact_types(case):
    assert _accepts(*case)


class _Dict(dict):
    pass


@pytest.mark.parametrize("kind,output,accepted,valid", [
    ("classify-provenance", {"level": True}, False, False),
    ("embed", {"vector": [0.5, True], "model_tag": "t"}, False, False),
    ("classify-provenance", {"level": 1.0}, False, True),
    ("classify-provenance", {"level": 6}, False, False),
    ("embed", {"vector": (0.5, 1.0), "model_tag": "t"}, False, False),
    ("classify-provenance", _Dict(level=2), False, True),
    ("nli-verdict", {"label": _Str("supports")}, False, True),
    ("embed", {"vector": [np.float64(0.5)], "model_tag": "t"}, False, True),
    ("embed", {"vector": [float("nan")], "model_tag": "t"}, True, True),
    ("classify-provenance", {"level": float("nan")}, False, False),
    ("nli-verdict", {"label": "neutral", "extra": (1, 2)}, False, True),
    ("nli-verdict", {"label": "neutral", "extra": {"a": [1, None]}}, True, True),
    ("nli-verdict", {"label": "neutral", 3: "x"}, False, True),
])
def test_acceptor_named_cases(kind, output, accepted, valid):
    assert _accepts(kind, output) is accepted
    assert (_reference_message(kind, output) is None) is valid
    assert _message(kind, output) == _reference_message(kind, output)


_FRESH_GOLDEN_REPLAY = """
import sys
from pathlib import Path
from claimcheck.config import PipelineConfig
from claimcheck.errors import SchemaViolation
from claimcheck.pipeline import ProviderSpec, run
from claimcheck.provider.schemas import validate_output

query, corpus, transcript, out = sys.argv[1:]
run(query, Path(corpus), Path(out), PipelineConfig(),
    ProviderSpec(mode="replay", fixtures=transcript), target_doc="s1-target")
print("jsonschema" in sys.modules)
try:
    validate_output("nli-verdict", {"label": "perhaps"})
except SchemaViolation as exc:
    print(exc)
print("jsonschema" in sys.modules)
"""


def test_golden_replay_never_imports_jsonschema(tmp_path):
    # A fresh interpreter, so nothing this test process imported counts.
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, "-c", _FRESH_GOLDEN_REPLAY, GOLDEN_QUERY,
         str(CORPUS_DIR), str(TRANSCRIPT), str(tmp_path / "run")],
        capture_output=True, text=True, env=env, check=True)
    assert done.stdout.splitlines() == [
        "False", _reference_message("nli-verdict", {"label": "perhaps"}),
        "True"]


@pytest.mark.parametrize("kind", _KINDS)
def test_output_schemas_are_valid_2020_12(kind):
    schema = OUTPUT_SCHEMAS[kind]
    Draft202012Validator.check_schema(schema)
    # the draft jsonschema.validate would pick for this schema
    assert jsonschema.validators.validator_for(schema) is Draft202012Validator


def test_output_schemas_serialise_as_before():
    # Task fingerprints carry SCHEMA_VERSION, not the schemas: a change
    # here needs a new version.
    assert content_hash(OUTPUT_SCHEMAS) == "9416de41360089fc"


def test_unknown_kind_raises_schema_violation():
    with pytest.raises(SchemaViolation, match="no output schema"):
        validate_output("divination", {})


# --- the contract: task kinds, retry rule, transcript records ---------------

@pytest.mark.parametrize("kind", _KINDS)
def test_task_constructs_for_every_schema_kind(kind):
    assert InferenceTask(kind, {}).kind == kind


@settings(max_examples=50, deadline=None)
@given(st.text(max_size=20).filter(lambda kind: kind not in OUTPUT_SCHEMAS))
def test_task_rejects_every_kind_without_a_schema(kind):
    with pytest.raises(ValueError, match="unknown task kind"):
        InferenceTask(kind, {})


@pytest.mark.parametrize("deterministic, calls, sleeps",
                         [(True, 1, []), (False, 3, [0.1, 0.2])])
def test_only_nondeterministic_backends_are_retried_after_backoff(
        monkeypatch, deterministic, calls, sleeps):
    slept = []
    monkeypatch.setattr(time, "sleep", slept.append)
    backend = StubProvider(lambda t, tag, i: {"label": "perhaps"},
                           deterministic=deterministic)
    router = InferenceRouter(backend, ProviderConfig())
    task = InferenceTask("nli-verdict", {"claim": {}, "passage": {"text": "x"}})
    with pytest.raises(SchemaViolation):
        router.invoke(task)
    assert backend.calls == calls
    assert slept == pytest.approx(sleeps)


def test_transcript_record_round_trips_through_replay(tmp_path):
    task = InferenceTask("hypothesize", {"profile": {"claim": "d:X|p"}})
    response = InferenceResponse(
        fingerprint=task.fingerprint, kind=task.kind,
        output={"statement": "s", "conclusion": None},
        provider_tag="analyst-b", sample_index=2)
    transcript = Transcript()
    transcript.record(response, line_of(response))
    [line] = transcript.drain()
    record = {"fingerprint": task.fingerprint, "kind": "hypothesize",
              "output": {"statement": "s", "conclusion": None},
              "provider_tag": "analyst-b", "sample_index": 2,
              "schema_version": SCHEMA_VERSION}
    assert line == dumps_record(record)
    assert from_record(InferenceResponse, json.loads(line)) == response
    write_records(tmp_path / "t.jsonl", [line])
    replay = ReplayProvider.from_path(tmp_path / "t.jsonl")
    assert replay.complete(task, "analyst-b", 2) == response.output


def test_golden_transcript_lines_decode_and_encode_unchanged():
    for line in TRANSCRIPT.read_text(encoding="utf-8").splitlines():
        response = from_record(InferenceResponse, json.loads(line))
        assert dumps_record(to_record(response)) == line


# --- replay writes back the line it served -----------------------------------

def test_replay_serves_the_recorded_output_after_a_caller_changes_one(
        tmp_path):
    task = InferenceTask("nli-verdict", {"claim": {}, "passage": {"text": "x"}})
    write_records(tmp_path / "t.jsonl", [to_record(InferenceResponse(
        fingerprint=task.fingerprint, kind=task.kind,
        output={"label": "supports", "rationale": "r"},
        provider_tag="analyst-a"))])
    provider = ReplayProvider.from_path(tmp_path / "t.jsonl")
    provider.complete(task, "analyst-a", 0).clear()
    assert provider.complete(task, "analyst-a", 0) == \
        {"label": "supports", "rationale": "r"}


def _transcript_text(router, calls, folder, name):
    """The transcript file `router` writes for one wave of `calls`."""
    router.map(lambda call: router.invoke(*call), calls)
    path = folder / name
    write_records(path, router.transcript.drain())
    return path.read_text(encoding="utf-8")


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(
    st.sampled_from(_KINDS).flatmap(
        lambda kind: st.tuples(st.just(kind), _valid(OUTPUT_SCHEMAS[kind]))),
    st.sampled_from(["analyst-a", "analyst-b"]), st.integers(0, 2),
    st.booleans()), max_size=12))
def test_replayed_transcript_is_the_recorded_transcript(calls):
    """A transcript encoded from the backend's outputs, and the one a replay
    of it writes back from the served lines, are the same bytes."""
    outputs = {}
    wave = []
    for number, ((kind, output), tag, index, twice) in enumerate(calls):
        task = InferenceTask(kind, {"n": number})
        outputs[task.fingerprint, tag, index] = output
        wave += [(task, tag, index)] * (1 + twice)
    stub = StubProvider(lambda task, tag, index:
                        outputs[task.fingerprint, tag, index])
    with tempfile.TemporaryDirectory() as tmp:
        folder = Path(tmp)
        recorded = _transcript_text(make_router(stub, Transcript()), wave,
                                    folder, "recorded.jsonl")
        replay_provider = ReplayProvider.from_path(folder / "recorded.jsonl")
        replayed = _transcript_text(make_router(replay_provider, Transcript()),
                                    wave, folder, "replayed.jsonl")
    assert replayed == recorded


_NLI_TASK = InferenceTask("nli-verdict", {"claim": {}, "passage": {"text": "x"}})
_NLI_RECORD = {"fingerprint": _NLI_TASK.fingerprint, "kind": "nli-verdict",
               "output": {"label": "supports", "rationale": "café"},
               "provider_tag": "analyst-a", "sample_index": 0,
               "schema_version": SCHEMA_VERSION}


@pytest.mark.parametrize("line, written", [
    pytest.param(json.dumps(_NLI_RECORD, sort_keys=True),
                 dumps_record(_NLI_RECORD), id="spaced-is-normalised"),
    pytest.param(dumps_record({**_NLI_RECORD, "schema_version": "v0"}),
                 dumps_record(_NLI_RECORD), id="old-version-is-normalised"),
    pytest.param(dumps_record(_NLI_RECORD).replace(
        '{"label":"supports","rationale":"café"}',
        '{"rationale":"caf\\u00e9", "label":"supports"}'), None,
                 id="inner-output-is-copied")])
def test_replay_writes_back_the_line_it_would_encode(tmp_path, line, written):
    path = tmp_path / "fixtures.jsonl"
    path.write_text(line + "\n", encoding="utf-8")
    router = make_router(ReplayProvider.from_path(path), Transcript())
    assert router.invoke(_NLI_TASK, "analyst-a").output == \
        _NLI_RECORD["output"]
    write_records(tmp_path / "t.jsonl", router.transcript.drain())
    assert (tmp_path / "t.jsonl").read_text(encoding="utf-8") == \
        (written or line) + "\n"


def test_a_swapped_in_backend_is_recorded_by_its_own_output(tmp_path):
    path = tmp_path / "fixtures.jsonl"
    write_records(path, [_NLI_RECORD])
    router = make_router(ReplayProvider.from_path(path), Transcript())
    output = {"label": "contradicts", "rationale": "live"}
    router.backend = StubProvider(lambda task, tag, index: output)
    router.invoke(_NLI_TASK, "analyst-a")
    assert router.transcript.drain() == [dumps_record(to_record(
        InferenceResponse(fingerprint=_NLI_TASK.fingerprint,
                          kind=_NLI_TASK.kind, output=output,
                          provider_tag="analyst-a")))]


def test_replay_of_a_replay_run_transcript_is_a_fixed_point(golden, tmp_path):
    again = run_golden(tmp_path / "run", ProviderSpec(
        mode="replay", fixtures=str(golden.run_dir / "transcript")))
    assert dir_digest(again.run_dir, skip=("manifest.json",)) == \
        dir_digest(golden.run_dir, skip=("manifest.json",))
    manifests = [read_json(state.manifest_path) for state in (golden, again)]
    for manifest in manifests:
        del manifest["provider"]["fixtures"]
    assert manifests[0] == manifests[1]
