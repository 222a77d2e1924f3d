"""Provider protocol, retry wrapper, and transcript recording.

All natural-language judgment flows through `invoke`: it validates the
response against the per-kind schema, retries with exponential backoff, and
records every served response so a completed live run doubles as a replay
fixture for future offline runs. Concurrent calls go through `map`, which
runs them on the router's one bounded pool and collates results in input
order, so pipeline outputs do not depend on worker completion order.
"""

from __future__ import annotations

import logging
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Iterable, Protocol, TypeVar

from ..errors import ProviderFailure, SchemaViolation
from .schemas import validate_output
from .tasks import InferenceResponse, InferenceTask

logger = logging.getLogger(__name__)

T = TypeVar("T")
R = TypeVar("R")


class Provider(Protocol):
    """A backend that answers one inference task."""

    deterministic: bool

    def complete(self, task: InferenceTask, provider_tag: str,
                 sample_index: int) -> dict[str, Any]:
        ...


class Transcript:
    """Collects served responses; flushed in sorted batches by the caller.

    Appends are serialized; ordering inside a batch is canonical
    (fingerprint, provider_tag, sample_index) so transcript files are
    reproducible regardless of worker completion order.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._pending: list[InferenceResponse] = []

    def record(self, response: InferenceResponse) -> None:
        with self._lock:
            self._pending.append(response)

    def drain(self) -> list[dict[str, Any]]:
        with self._lock:
            batch = sorted(
                self._pending,
                key=lambda r: (r.fingerprint, r.provider_tag, r.sample_index),
            )
            self._pending = []
        return [r.to_record() for r in batch]


class InferenceRouter:
    """Routes task kinds to provider backends, applies the retry policy, and
    bounds how many calls run at once.

    The pool starts its threads on first use and ends them once the router
    is dropped.
    """

    def __init__(self, backends: dict[str, Provider], *, routing: dict[str, str],
                 default_tag: str, retries: int = 3, backoff_base: float = 0.1,
                 backoff_factor: float = 2.0, transcript: Transcript | None = None,
                 max_parallelism: int = 4):
        self.backends = backends
        self.routing = routing
        self.default_tag = default_tag
        self.retries = retries
        self.backoff_base = backoff_base
        self.backoff_factor = backoff_factor
        self.transcript = transcript
        self._pool = ThreadPoolExecutor(max_workers=max_parallelism)

    def map(self, fn: Callable[[T], R], items: Iterable[T]) -> list[R]:
        """`fn` over `items` on the router's pool, results in input order.

        If items fail, the exception of the first failing one by input order
        is raised. `fn` must not call `map` itself: a nested wait on the
        bounded pool can deadlock.
        """
        return list(self._pool.map(fn, items))

    def tag_for(self, kind: str) -> str:
        return self.routing.get(kind, self.default_tag)

    def _backend(self, provider_tag: str) -> Provider:
        backend = self.backends.get(provider_tag) or self.backends.get("*")
        if backend is None:
            raise ProviderFailure(
                f"no backend configured for provider tag {provider_tag!r}",
                retryable=False)
        return backend

    def invoke(self, task: InferenceTask, provider_tag: str | None = None,
               sample_index: int = 0) -> InferenceResponse:
        tag = provider_tag or self.tag_for(task.kind)
        backend = self._backend(tag)
        last_error: Exception | None = None
        for attempt in range(self.retries):
            try:
                output = backend.complete(task, tag, sample_index)
                validate_output(task.kind, output)
                response = InferenceResponse(
                    fingerprint=task.fingerprint, kind=task.kind,
                    output=output, provider_tag=tag, sample_index=sample_index)
                if self.transcript is not None:
                    self.transcript.record(response)
                return response
            except ProviderFailure as exc:
                last_error = exc
                if not exc.retryable:
                    raise
            except SchemaViolation as exc:
                last_error = exc
            # Deterministic backends will not change their answer; sleeping
            # and retrying would only slow replay tests down.
            if getattr(backend, "deterministic", False):
                break
            if attempt + 1 < self.retries:
                time.sleep(self.backoff_base * self.backoff_factor ** attempt)
        if isinstance(last_error, SchemaViolation):
            raise last_error
        raise ProviderFailure(
            f"{task.kind} task {task.fingerprint} failed after "
            f"{self.retries} attempts: {last_error}")
