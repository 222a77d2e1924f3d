"""Strict replay provider: serves recorded responses, nothing else.

Lookups are exact on (fingerprint, provider_tag, sample_index). A miss is a
non-retryable ProviderFailure naming the fingerprint, so fixture drift is
loud, never fuzzy-matched. Replay runs perform no network activity.

A line is decoded when it is first served, not at load. `write_records`
writes every transcript line in one layout, `{"fingerprint":…,"kind":…,
"output":…,"provider_tag":…,"sample_index":…,"schema_version":…}` with no
spaces, so the loader reads the key of such a line from its text and keeps
the text. Any other line is decoded at load. A line that is not a valid
response record, or whose decoded key is not the key read off its text, is a
`ClaimcheckError` naming the file and the line, raised when it is decoded.
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import Any, NamedTuple

from ..errors import ClaimcheckError, ProviderFailure
from ..records import from_record
from .tasks import InferenceResponse, InferenceTask

Key = tuple[str, str, int]

# The transcript line layout. The greedy `.*` takes the whole output: the
# fixed tail after it holds no quote, so it is the last match in the line.
_LAYOUT = re.compile(
    r'\{"fingerprint":"([^"\\]*)","kind":"[^"\\]*","output":.*'
    r',"provider_tag":"([^"\\]*)","sample_index":(0|[1-9][0-9]*)'
    r',"schema_version":"[^"\\]*"\}')


def _key(response: InferenceResponse) -> Key:
    return response.fingerprint, response.provider_tag, response.sample_index


class _Line(NamedTuple):
    """A transcript line kept as text until it is first served."""

    file: Path
    number: int
    text: str

    def decode(self) -> InferenceResponse:
        try:
            return from_record(InferenceResponse, json.loads(self.text))
        except (ValueError, TypeError) as exc:
            raise self.malformed(exc) from exc

    def malformed(self, reason: Any) -> ClaimcheckError:
        return ClaimcheckError(f"replay fixtures {self.file} line "
                               f"{self.number} is malformed: {reason}")


class ReplayProvider:
    deterministic = True

    def __init__(self, responses: dict[Key, InferenceResponse | _Line]):
        self._responses = responses

    @classmethod
    def from_path(cls, path: Path) -> "ReplayProvider":
        """Load a transcript file, or a directory of transcript files."""
        if not path.exists():
            raise ClaimcheckError(f"replay fixtures {path} do not exist")
        files: list[Path]
        if path.is_dir():
            files = sorted(path.glob("*.jsonl"))
            if not files:
                raise ClaimcheckError(
                    f"replay fixtures {path} hold no *.jsonl file")
        else:
            files = [path]
        responses: dict[Key, InferenceResponse | _Line] = {}
        for file in files:
            try:
                text = file.read_text(encoding="utf-8")
            except (OSError, ValueError) as exc:
                raise ClaimcheckError(
                    f"cannot read replay fixtures {file}: {exc}") from exc
            for number, raw in enumerate(text.split("\n"), 1):
                line = _Line(file, number, raw.strip())
                if not line.text:
                    continue
                match = _LAYOUT.fullmatch(line.text)
                if match is None:
                    response = line.decode()
                    responses[_key(response)] = response
                else:
                    fingerprint, tag, index = match.groups()
                    responses[fingerprint, tag, int(index)] = line
        return cls(responses)

    def __len__(self) -> int:
        return len(self._responses)

    def complete(self, task: InferenceTask, provider_tag: str,
                 sample_index: int) -> dict[str, Any]:
        key = (task.fingerprint, provider_tag, sample_index)
        response = self._responses.get(key)
        if type(response) is _Line:
            # First serve. No lock: the text stays until the response
            # replaces it, and threads that decode the line at once store
            # equal responses.
            line, response = response, response.decode()
            if _key(response) != key:
                raise line.malformed(f"it decodes to key {_key(response)}, "
                                     f"not {key}")
            self._responses[key] = response
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
