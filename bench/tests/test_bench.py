"""Tests of the benchmark itself: generator, oracle, live backend, metrics.

Run from the repository root:  python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
for path in (ROOT / "src", BENCH_DIR):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import checks  # noqa: E402
import corpus_gen  # noqa: E402
import run as bench_run  # noqa: E402
import workloads as wl  # noqa: E402
from live_backend import SimulatedBackend, UnknownTask  # noqa: E402
from tracing import Tracer, union_length  # noqa: E402

from claimcheck.config import KnowledgeConfig, PipelineConfig  # noqa: E402
from claimcheck.knowledge.extraction import normalize_predicate  # noqa: E402
from claimcheck.pipeline import ProviderSpec, resume, run  # noqa: E402

TRANSCRIPT = ROOT / "fixtures" / "replay" / "transcript.jsonl"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.fixture(scope="module")
def generated(tmp_path_factory):
    out = tmp_path_factory.mktemp("bulk")
    oracle = corpus_gen.generate(7, out)
    playbook = json.loads((out / "playbook.json").read_text("utf-8"))
    return out, oracle, playbook


def test_generator_is_deterministic_per_seed(tmp_path, generated):
    out, _, _ = generated
    corpus_gen.generate(7, tmp_path / "same")
    corpus_gen.generate(8, tmp_path / "other")
    assert checks.dir_digest(tmp_path / "same") == checks.dir_digest(out)
    assert checks.dir_digest(tmp_path / "other") != checks.dir_digest(out)


def test_generator_shape(generated):
    out, oracle, _ = generated
    corpus = out / "corpus"
    documents = [p for p in corpus.iterdir()
                 if not p.name.endswith(".meta.json")
                 and not p.name.startswith("relations-")]
    assert 390 <= len(documents) <= 410
    assert len(oracle["cluster"]) <= 45
    assert len(oracle["seeds"]) == PipelineConfig().relevance_top_n
    suffixes = {p.suffix for p in documents}
    assert suffixes == {".json", ".txt", ".html"}
    for path in documents:
        if path.suffix != ".json":
            assert path.with_name(path.stem + ".meta.json").exists()
    rows = [json.loads((corpus / f"relations-{x}.json").read_text("utf-8"))
            ["records"] for x in "ab"]
    assert len(rows[0]) + len(rows[1]) >= 2000
    assert any(row in rows[1] for row in rows[0])  # duplicated across files


def test_oracle_agrees_with_playbook(generated):
    out, oracle, playbook = generated
    align = playbook["align-claims"]

    def pair(a, b):
        return " & ".join(sorted((a, b)))

    planted = {}
    for a, b, _ in oracle["contradictions"]:
        planted[pair(a, b)] = ("matched", "disagrees")
        assert pair(a, b) in playbook["root-cause"]
    for a, b in oracle["matched"]:
        planted[pair(a, b)] = ("matched", "agrees")
    for a, b in oracle["partial"]:
        planted[pair(a, b)] = ("partially-overlapping", "agrees")
    assert {k: (v["relation"], v["stance"]) for k, v in align.items()} \
        == planted
    for a, b, counter_slug in oracle["misrepresents"]:
        assert pair(a, b) in planted
        fidelity = playbook["citation-fidelity"][
            f"{b} -> {a.split(':')[0]}"]
        assert fidelity["faithful"] is False
        assert b.startswith(counter_slug + ":")

    slugs = {p.name.split(".")[0] for p in (out / "corpus").iterdir()}
    for gap in oracle["citation_gaps"]:
        assert gap.rsplit(" -> ", 1)[1] not in slugs
    assert set(oracle["seeds"]) <= set(oracle["cluster"]) <= slugs

    # every scripted claim keeps its playbook key through extraction
    knowledge = KnowledgeConfig()
    for slug, section in playbook["extract-claims"].items():
        names = {e["name"] for e in
                 playbook["extract-entities"][slug]["entities"]}
        for claim in section["claims"]:
            assert normalize_predicate(claim["predicate"], knowledge) \
                == claim["predicate"]
            assert claim["subject"] in names


@pytest.mark.parametrize("seed", [13, 598077598])
def test_layer4_discovers_no_background_document(tmp_path, seed):
    # On these seeds an executed-on claim once shared two embedding hash
    # slots with the background asset descriptions, and semantic search in
    # layer 4 pulled those documents in.
    oracle = corpus_gen.generate(seed, tmp_path)
    run(corpus_gen.QUERY, tmp_path / "corpus", tmp_path / "run",
        PipelineConfig(),
        ProviderSpec(mode="scripted", playbook=str(tmp_path / "playbook.json")),
        stop_after="layer4")
    manifest = json.loads((tmp_path / "run" / "manifest.json")
                          .read_text("utf-8"))
    slug_of = {}
    with open(tmp_path / "run" / "store" / "documents.jsonl",
              encoding="utf-8") as fh:
        for line in fh:
            record = json.loads(line)
            slug_of[record["doc_id"]] = record["metadata"]["external_ids"][
                "slug"]
    assert sorted(slug_of[d] for d in manifest["docs_processed"]) == \
        sorted(oracle["cluster"])


def test_live_backend_answers_every_golden_task(tmp_path):
    import live_backend
    backend = live_backend.backend = SimulatedBackend(TRANSCRIPT, 0.0)
    try:
        run(wl.GOLDEN_QUERY, ROOT / "fixtures" / "corpus", tmp_path / "run",
            PipelineConfig(),
            ProviderSpec(mode="live", backend="live_backend:backend"),
            target_doc=wl.GOLDEN_TARGET)
    finally:
        live_backend.backend = None
    assert backend.calls == len(TRANSCRIPT.read_text("utf-8").splitlines())
    assert 1 <= backend.in_flight_max <= PipelineConfig().max_parallelism
    assert checks.check_golden(tmp_path / "run") == []


def test_live_backend_raises_on_unknown_task():
    backend = SimulatedBackend(TRANSCRIPT, 0.0)
    with pytest.raises(UnknownTask):
        backend("embed", {"text": "never recorded", "dim": 256,
                          "model_tag": "hashed-bow-v1"}, "local-embed", 0)


def test_live_backend_counters_are_thread_safe():
    backend = SimulatedBackend(TRANSCRIPT, 0.0)
    workers, per_worker = 8, 200
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        def hammer():
            for _ in range(per_worker):
                with pytest.raises(UnknownTask):
                    backend("coherence", {"doc": {"slug": "x"}}, "a", 0)
        threads = [threading.Thread(target=hammer) for _ in range(workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(switch)
    assert backend.calls == workers * per_worker
    assert backend.in_flight == 0
    assert 1 <= backend.in_flight_max <= workers
    backend.reset()
    assert (backend.calls, backend.in_flight, backend.in_flight_max) == \
        (0, 0, 0)


def test_union_length():
    assert union_length([]) == 0.0
    assert union_length([(0, 2), (1, 3), (5, 6), (5.5, 5.7)]) == 4.0


def test_benchmark_json_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(wl.WORKLOADS)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
    assert len(SPEC["end_to_end"]) <= 16 and len(SPEC["per_layer"]) <= 128
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_traced_run_emits_every_per_layer_metric(tmp_path):
    tracer = Tracer()
    spec = ProviderSpec(mode="replay", fixtures=str(TRANSCRIPT))
    corpus = ROOT / "fixtures" / "corpus"
    run(wl.GOLDEN_QUERY, corpus, tmp_path / "prep", PipelineConfig(), spec,
        target_doc=wl.GOLDEN_TARGET, stop_after="layer5")
    import claimcheck.pipeline as pipeline
    from claimcheck.provider.base import InferenceRouter
    originals = (InferenceRouter.invoke, pipeline.write_json,
                 pipeline.Run._LAYER_FNS, threading.Thread.start)
    tracer.install()
    try:
        tracer.run_id = "run"
        run(wl.GOLDEN_QUERY, corpus, tmp_path / "run", PipelineConfig(), spec,
            target_doc=wl.GOLDEN_TARGET)
        tracer.run_id = "resume"
        resume(tmp_path / "prep")
    finally:
        tracer.uninstall()
    metrics = bench_run.layer_metrics(tracer, tmp_path / "run", 1.0, 1.0)
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {n: u for n, (_, u) in metrics.items()} == units
    assert metrics["provider.calls"][0] == 1283
    assert metrics["provider.calls.crosssource"][0] == 899
    assert metrics["provider.calls.align-claims"][0] == 587
    assert metrics["crosssource.align_useful"][0] == 20
    assert checks.dir_digest(tmp_path / "prep") == \
        checks.dir_digest(tmp_path / "run")
    assert originals == (InferenceRouter.invoke, pipeline.write_json,
                         pipeline.Run._LAYER_FNS, threading.Thread.start)


def test_end_to_end_output_line():
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload",
         "golden-replay", "--seed", "1", "--seconds", "0.1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True)
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert {n: m["unit"] for n, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert result["metrics"]["provider_calls"]["value"] == 1283


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copyfile(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "golden-replay",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
