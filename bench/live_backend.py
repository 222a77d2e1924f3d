"""Simulated live backend for the live-latency workload.

claimcheck's live provider calls ``backend(kind, payload, provider_tag,
sample_index)``. This backend answers from a recorded transcript, looked up
by the task fingerprint, after a fixed delay that stands in for a model
call. It never makes up an answer: an unknown task raises, which fails the
run. It also counts calls and calls in flight, so the benchmark can see how
many provider calls overlap.

The live provider names its backend as "module:attribute"; the benchmark
installs one instance as ``backend`` in this module and passes
``live_backend:backend``.
"""

from __future__ import annotations

import json
import threading
import time
from pathlib import Path
from typing import Any

from claimcheck.provider.tasks import InferenceTask

Key = tuple[str, str, int]


class UnknownTask(LookupError):
    """The transcript has no answer for a task."""


class SimulatedBackend:
    def __init__(self, transcript: Path, latency_s: float):
        self.latency_s = latency_s
        # Answers are kept as JSON text and parsed per call, like a response
        # body, so no caller can change the stored answer.
        self._answers: dict[Key, str] = {}
        with open(transcript, encoding="utf-8") as fh:
            for line in fh:
                if not line.strip():
                    continue
                record = json.loads(line)
                key = (record["fingerprint"], record["provider_tag"],
                       int(record.get("sample_index", 0)))
                self._answers[key] = json.dumps(record["output"])
        self._lock = threading.Lock()
        self.calls = 0
        self.in_flight = 0
        self.in_flight_max = 0

    def reset(self) -> None:
        """Zero the counters; call before each run."""
        with self._lock:
            self.calls = 0
            self.in_flight = 0
            self.in_flight_max = 0

    def __call__(self, kind: str, payload: dict[str, Any], provider_tag: str,
                 sample_index: int) -> dict[str, Any]:
        key = (InferenceTask(kind, payload).fingerprint, provider_tag,
               sample_index)
        with self._lock:
            self.calls += 1
            self.in_flight += 1
            self.in_flight_max = max(self.in_flight_max, self.in_flight)
        try:
            time.sleep(self.latency_s)
            answer = self._answers.get(key)
            if answer is None:
                raise UnknownTask(f"no recorded answer for {kind} task {key}")
            return json.loads(answer)
        finally:
            with self._lock:
                self.in_flight -= 1


backend: SimulatedBackend | None = None
