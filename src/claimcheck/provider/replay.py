"""Strict replay provider: serves recorded responses, nothing else.

Lookups are exact on (fingerprint, provider_tag, sample_index). A miss is a
non-retryable ProviderFailure naming the fingerprint, so fixture drift is
loud, never fuzzy-matched. Replay runs perform no network activity.

The loader reads each transcript file one line at a time, so no file's text
is held whole. The provider holds one transcript line per key, as text, and
decodes it on every serve: no decoded response outlives its serve, and no two
serves share an output. The router writes a served response to the run
transcript as the line it was served from (`served_line`), so replay encodes
nothing again.

The router makes every transcript line with `line_of`, in one layout,
`{"fingerprint":…,"kind":…,"output":…,"provider_tag":…,"sample_index":…,
"schema_version":…}` with no spaces, so the loader reads the key of such a
line from its text and keeps the text as it is. A line in any other layout,
or whose `schema_version` is not `SCHEMA_VERSION`, is decoded at load and
encoded once with `line_of`, as the router would write it. The output inside
a layout line is not looked at, so one with unsorted keys or `\\u` escapes
is served and written back as it is. A line that is not a valid response
record, or whose decoded key is not the key read off its text, is a
`ClaimcheckError` naming the file and the line, raised when it is decoded.
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import Any, Iterator, NamedTuple

from ..errors import ClaimcheckError, ProviderFailure
from ..records import from_record
from .base import Key, line_of
from .schemas import SCHEMA_VERSION
from .tasks import InferenceResponse, InferenceTask

# The transcript line layout. The greedy `.*` takes the whole output: the
# fixed tail after it holds no quote, so it is the last match in the line.
_LAYOUT = re.compile(
    r'\{"fingerprint":"([^"\\]*)","kind":"[^"\\]*","output":.*'
    r',"provider_tag":"([^"\\]*)","sample_index":(0|[1-9][0-9]*)'
    r',"schema_version":"([^"\\]*)"\}')


def _key(response: InferenceResponse) -> Key:
    return response.fingerprint, response.provider_tag, response.sample_index


class _Line(NamedTuple):
    """The transcript line a key is served from, and where it was read."""

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


def _numbered_lines(file: Path) -> Iterator[tuple[int, str]]:
    """Each line of `file` with its number from 1, read one at a time. A
    line ends at LF, CRLF or a lone CR: universal newlines, as
    `Path.read_text` reads a file. A file that cannot be opened or is not
    UTF-8 is a `ClaimcheckError` naming it."""
    try:
        with open(file, encoding="utf-8") as fh:
            yield from enumerate(fh, 1)
    except (OSError, ValueError) as exc:
        raise ClaimcheckError(
            f"cannot read replay fixtures {file}: {exc}") from exc


class ReplayProvider:
    deterministic = True

    def __init__(self, lines: dict[Key, _Line]):
        self._lines = lines

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
        lines: dict[Key, _Line] = {}
        for file in files:
            for number, raw in _numbered_lines(file):
                line = _Line(file, number, raw.strip())
                if not line.text:
                    continue
                match = _LAYOUT.fullmatch(line.text)
                if match is not None and match[4] == SCHEMA_VERSION:
                    lines[match[1], match[2], int(match[3])] = line
                else:
                    response = line.decode()
                    lines[_key(response)] = _Line(file, number,
                                                  line_of(response))
        return cls(lines)

    def __len__(self) -> int:
        return len(self._lines)

    def complete(self, task: InferenceTask, provider_tag: str,
                 sample_index: int) -> dict[str, Any]:
        key = (task.fingerprint, provider_tag, sample_index)
        line = self._lines.get(key)
        if line is None:
            raise ProviderFailure(
                f"replay fixture has no response for fingerprint "
                f"{task.fingerprint} (kind={task.kind}, tag={provider_tag}, "
                f"sample={sample_index})", retryable=False)
        response = line.decode()
        if _key(response) != key:
            raise line.malformed(f"it decodes to key {_key(response)}, "
                                 f"not {key}")
        if response.kind != task.kind:
            raise ProviderFailure(
                f"replay fixture kind mismatch for {task.fingerprint}: "
                f"recorded {response.kind}, requested {task.kind}",
                retryable=False)
        return response.output

    def served_line(self, task: InferenceTask, provider_tag: str,
                    sample_index: int) -> str:
        """The line `complete` served this task from, for the transcript."""
        return self._lines[task.fingerprint, provider_tag, sample_index].text
