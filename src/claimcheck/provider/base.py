"""Provider protocol, retry wrapper, and transcript recording.

All natural-language judgment flows through `invoke`: it validates the
response against the per-kind schema, retries with exponential backoff, and
records every served response, as its transcript line, so a completed live
run doubles as a replay fixture for future offline runs. The router makes
that line once, as the call returns: `line_of(response)`, or, from a backend
that serves recorded transcript lines, the line it served (`served_line`),
written as it is. The router keeps those lines, as text, never a
response's output, until `drain` hands them over sorted by key.
Concurrent calls go through `map`, which runs one wave of them and collates
results in input order, so pipeline outputs do not depend on worker
completion order. A live wave runs on the router's one bounded pool; a wave
on a deterministic backend (replay, scripted) runs on the calling thread,
since a backend that answers from memory never waits and threads that never
wait only take turns on the interpreter lock.
"""

from __future__ import annotations

import logging
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from operator import itemgetter
from typing import Any, Callable, Iterable, Protocol, TypeVar

from ..config import ProviderConfig
from ..errors import ClaimcheckError, ProviderFailure, SchemaViolation
from ..ids import encode_sorted
from ..records import to_record
from .schemas import SCHEMA_VERSION, validate_output
from .tasks import InferenceResponse, InferenceTask

logger = logging.getLogger(__name__)

# A transcript line's key: (fingerprint, provider_tag, sample_index).
Key = tuple[str, str, int]

T = TypeVar("T")
R = TypeVar("R")

# Marks the threads of every router's pool, and a thread running an inline
# wave while it runs, so `map` can refuse to nest.
_pool_thread = threading.local()


def _mark_pool_thread() -> None:
    _pool_thread.active = True


class Provider(Protocol):
    """A backend that answers one inference task.

    A backend may also define `served_line(task, provider_tag, sample_index)`:
    the transcript line it served the task from, which the router records in
    place of `line_of(response)`.

    A `deterministic` backend answers from memory: its calls are never
    retried, and its waves run inline on the calling thread.
    """

    deterministic: bool

    def complete(self, task: InferenceTask, provider_tag: str,
                 sample_index: int) -> dict[str, Any]:
        ...


def line_of(response: InferenceResponse) -> str:
    """The transcript line of `response`: its record, sorted keys and no
    spaces, with the current `SCHEMA_VERSION`."""
    return encode_sorted({**to_record(response),
                          "schema_version": SCHEMA_VERSION})


class InferenceRouter:
    """Serves every task from one backend, applies the retry policy, bounds
    how many calls of a live wave run at once, and keeps the transcript line
    of each response it serves until `drain` takes them.

    The pool serves only waves on a non-deterministic backend. It starts its
    threads on first use, so a replay or scripted run starts none, and ends
    them once the router is dropped.
    """

    def __init__(self, backend: Provider, cfg: ProviderConfig, *,
                 max_parallelism: int = 4):
        self.backend = backend
        self.cfg = cfg
        self._lines: list[tuple[Key, str]] = []
        self._lines_lock = threading.Lock()
        self._workers = max_parallelism
        self._pool = ThreadPoolExecutor(max_workers=max_parallelism,
                                        initializer=_mark_pool_thread)

    def map(self, fn: Callable[[T], R], items: Iterable[T]) -> list[R]:
        """Run `fn` over `items` as one wave; results come back in input
        order, whatever order the calls finish in.

        On a deterministic backend the wave runs on the calling thread, item
        by item in input order; on any other it runs on the router's pool.
        Either way, once an item fails no further item starts; when the
        items already started have finished, the exception of the first
        failing one by input order is raised. A wave cannot start another: a
        nested wait on the bounded pool can deadlock, so `map` called from
        inside a wave, inline or on a pool thread, raises `ClaimcheckError`.
        Callers collect a step's tasks first and send them as one wave.
        """
        if getattr(_pool_thread, "active", False):
            raise ClaimcheckError("router.map called from inside a wave")
        items = list(items)
        # Read on each call: `backend` may be swapped.
        if self.backend.deterministic:
            _pool_thread.active = True
            try:
                return [fn(item) for item in items]
            finally:
                _pool_thread.active = False
        results: list[Any] = [None] * len(items)
        failures: dict[int, Exception] = {}
        lock = threading.Lock()
        indices = iter(range(len(items)))

        # Each worker takes items in input order until none is left or one
        # has failed. One task per worker, not one per item, keeps thread
        # hand-offs per wave, not per call.
        def drain() -> None:
            while True:
                with lock:
                    index = None if failures else next(indices, None)
                if index is None:
                    return
                try:
                    results[index] = fn(items[index])
                except Exception as exc:
                    with lock:
                        failures[index] = exc

        workers = [self._pool.submit(drain)
                   for _ in range(min(self._workers, len(items)))]
        for worker in workers:
            worker.result()
        if failures:
            raise failures[min(failures)]
        return results

    def drain(self) -> list[str]:
        """The lines of the responses served since the last drain, sorted
        by key (fingerprint, provider_tag, sample_index), so a transcript
        file does not depend on the order in which calls finished."""
        with self._lines_lock:
            batch, self._lines = self._lines, []
        batch.sort(key=itemgetter(0))
        return [line for _, line in batch]

    def invoke(self, task: InferenceTask, provider_tag: str | None = None,
               sample_index: int = 0) -> InferenceResponse:
        cfg = self.cfg
        tag = provider_tag or cfg.routing.get(task.kind, cfg.default_tag)
        last_error: Exception | None = None
        for attempt in range(cfg.retries):
            try:
                output = self.backend.complete(task, tag, sample_index)
                validate_output(task.kind, output)
                response = InferenceResponse(
                    fingerprint=task.fingerprint, kind=task.kind,
                    output=output, provider_tag=tag, sample_index=sample_index)
                # Looked up on each call: `backend` may be swapped.
                served = getattr(self.backend, "served_line", None)
                line = served(task, tag, sample_index) if served \
                    else line_of(response)
                with self._lines_lock:
                    self._lines.append(((task.fingerprint, tag, sample_index),
                                        line))
                return response
            except ProviderFailure as exc:
                last_error = exc
                if not exc.retryable:
                    raise
            except SchemaViolation as exc:
                last_error = exc
            # Deterministic backends will not change their answer; sleeping
            # and retrying would only slow replay tests down.
            if self.backend.deterministic:
                break
            if attempt + 1 < cfg.retries:
                time.sleep(cfg.backoff_base * cfg.backoff_factor ** attempt)
        if isinstance(last_error, SchemaViolation):
            raise last_error
        raise ProviderFailure(
            f"{task.kind} task {task.fingerprint} failed after "
            f"{cfg.retries} attempts: {last_error}")
