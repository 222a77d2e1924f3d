"""Shared fixtures: fixture-corpus paths, provider helpers, and one golden
replay run reused across test modules."""

from __future__ import annotations

import hashlib
import threading
from pathlib import Path

import pytest

from claimcheck.config import PipelineConfig, ProviderConfig
from claimcheck.jsonl import read_records
from claimcheck.pipeline import ProviderSpec, Run, run
from claimcheck.provider import InferenceRouter, InferenceTask, LiveProvider

ROOT = Path(__file__).resolve().parent.parent
CORPUS_DIR = ROOT / "fixtures" / "corpus"
PLAYBOOK = ROOT / "fixtures" / "replay" / "playbook.json"
TRANSCRIPT = ROOT / "fixtures" / "replay" / "transcript.jsonl"

GOLDEN_QUERY = ("Does the hybrid bias-field optimizer achieve a true "
                "runtime advantage over classical solvers?")


class StubProvider:
    """Unit-test backend driven by a callable."""

    def __init__(self, fn, deterministic=True):
        self._fn = fn
        self.deterministic = deterministic
        self.calls = 0

    def complete(self, task, provider_tag, sample_index):
        self.calls += 1
        return self._fn(task, provider_tag, sample_index)


def make_router(backend, retries: int = 3) -> InferenceRouter:
    cfg = ProviderConfig(retries=retries, backoff_base=0.0, routing={})
    return InferenceRouter(backend, cfg)


def replay_spec() -> ProviderSpec:
    return ProviderSpec(mode="replay", fixtures=str(TRANSCRIPT))


def scripted_spec() -> ProviderSpec:
    return ProviderSpec(mode="scripted", playbook=str(PLAYBOOK))


def run_golden(out_dir: Path, spec: ProviderSpec | None = None,
               stop_after: str | None = None,
               cfg: PipelineConfig | None = None) -> Run:
    return run(GOLDEN_QUERY, CORPUS_DIR, out_dir, cfg or PipelineConfig(),
               spec or replay_spec(), target_doc="s1-target",
               stop_after=stop_after)


class TranscriptBackend:
    """A live backend callable that answers each task from the golden
    transcript by fingerprint."""

    def __init__(self):
        self._answers = {
            (r["fingerprint"], r["provider_tag"], r["sample_index"]): r["output"]
            for r in read_records(TRANSCRIPT)}

    def __call__(self, kind, payload, provider_tag, sample_index):
        key = (InferenceTask(kind, payload).fingerprint, provider_tag,
               sample_index)
        return self._answers[key]


def golden_state(run_dir: Path) -> Run:
    """The golden run, not yet executed, on the replay backend."""
    return Run(run_dir, CORPUS_DIR, GOLDEN_QUERY, PipelineConfig(),
               replay_spec(), target_doc="s1-target")


def live_golden_state(run_dir: Path, backend=None) -> Run:
    """The golden run, not yet executed, on a live backend (by default one
    that answers from the golden transcript), so its waves use the pool."""
    state = golden_state(run_dir)
    state.router.backend = LiveProvider(backend or TranscriptBackend())
    return state


@pytest.fixture
def started_threads(monkeypatch) -> list[str]:
    """The names of the threads started while the test runs."""
    started = []
    original = threading.Thread.start

    def start(thread, *args, **kwargs):
        started.append(thread.name)
        return original(thread, *args, **kwargs)

    monkeypatch.setattr(threading.Thread, "start", start)
    return started


def dir_digest(root: Path, skip: tuple[str, ...] = ()) -> dict[str, str]:
    """Relative path -> content hash for every file under root."""
    out = {}
    for path in sorted(root.rglob("*")):
        if not path.is_file():
            continue
        rel = str(path.relative_to(root))
        if any(rel.startswith(s) for s in skip):
            continue
        out[rel] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


@pytest.fixture(scope="session")
def golden(tmp_path_factory) -> Run:
    """One full replay run over the shipped fixture corpus + transcript."""
    out = tmp_path_factory.mktemp("golden") / "run"
    return run_golden(out)


@pytest.fixture(scope="session")
def golden_claims(golden):
    """claim lookup by '<slug>:<subject>|<predicate>' key."""
    table = {}
    for claim in golden.claims.values():
        key = (f"{golden.slug_of(claim.doc_id)}:"
               f"{claim.subject_name}|{claim.predicate}")
        table[key] = claim
    return table
