"""Strict replay provider: serves recorded responses, nothing else.

Lookups are exact on (fingerprint, provider_tag, sample_index). A miss is a
non-retryable ProviderFailure naming the fingerprint, so fixture drift is
loud, never fuzzy-matched. Replay runs perform no network activity.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any

from ..errors import ClaimcheckError, ProviderFailure
from ..jsonl import read_records
from ..records import from_record
from .tasks import InferenceResponse, InferenceTask

Key = tuple[str, str, int]


class ReplayProvider:
    deterministic = True

    def __init__(self, responses: dict[Key, InferenceResponse]):
        self._responses = responses

    @classmethod
    def from_path(cls, path: Path) -> "ReplayProvider":
        """Load a transcript file, or a directory of transcript files."""
        if not path.exists():
            raise ClaimcheckError(f"replay fixtures {path} do not exist")
        files: list[Path]
        if path.is_dir():
            files = sorted(path.glob("*.jsonl"))
        else:
            files = [path]
        responses: dict[Key, InferenceResponse] = {}
        for file in files:
            for record in read_records(file):
                response = from_record(InferenceResponse, record)
                key = (response.fingerprint, response.provider_tag,
                       response.sample_index)
                responses[key] = response
        return cls(responses)

    def __len__(self) -> int:
        return len(self._responses)

    def complete(self, task: InferenceTask, provider_tag: str,
                 sample_index: int) -> dict[str, Any]:
        key = (task.fingerprint, provider_tag, sample_index)
        response = self._responses.get(key)
        if response is None:
            raise ProviderFailure(
                f"replay fixture has no response for fingerprint "
                f"{task.fingerprint} (kind={task.kind}, tag={provider_tag}, "
                f"sample={sample_index})", retryable=False)
        if response.kind != task.kind:
            raise ProviderFailure(
                f"replay fixture kind mismatch for {task.fingerprint}: "
                f"recorded {response.kind}, requested {task.kind}",
                retryable=False)
        return response.output
