"""Record-per-line JSON storage for run directories.

Writes are atomic (temp file + rename) so an interrupted run never leaves a
half-written store file behind; resume relies on that. Records are always
serialized with sorted keys so two runs over identical inputs produce
byte-identical files. A record that is already a line of text, such as a
transcript line, is written as it is.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterable, Iterator, TextIO

from .errors import ClaimcheckError
from .ids import encode_sorted as dumps_record


@contextmanager
def _atomic(path: Path) -> Iterator[TextIO]:
    """A file to write `path` through. A directory or file that cannot be
    made is a `ClaimcheckError` naming the path."""
    tmp = path.with_suffix(path.suffix + ".tmp")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(tmp, "w", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except OSError as exc:
        raise ClaimcheckError(f"cannot write {path}: {exc}") from exc


def write_records(path: Path, records: Iterable[dict[str, Any] | str]) -> None:
    with _atomic(path) as fh:
        fh.writelines((record if type(record) is str else dumps_record(record))
                      + "\n" for record in records)


def read_records(path: Path) -> Iterator[dict[str, Any]]:
    """The record on each non-blank line of `path`, if it exists. A line
    that is not JSON is a `ClaimcheckError` naming the file and the line,
    and a file that is not UTF-8 one naming the file."""
    if not path.exists():
        return
    with open(path, encoding="utf-8") as fh:
        try:
            for number, line in enumerate(fh, 1):
                if not line.strip():
                    continue
                try:
                    record = json.loads(line)
                except ValueError as exc:
                    raise ClaimcheckError(
                        f"{path} line {number} is not JSON: {exc}") from exc
                yield record
        except UnicodeDecodeError as exc:
            raise ClaimcheckError(f"{path} is not UTF-8: {exc}") from exc


def read_all(path: Path) -> list[dict[str, Any]]:
    return list(read_records(path))


def write_json(path: Path, payload: Any) -> None:
    text = json.dumps(payload, sort_keys=True, indent=2, ensure_ascii=False)
    with _atomic(path) as fh:
        fh.write(text + "\n")


def write_text(path: Path, text: str) -> None:
    with _atomic(path) as fh:
        fh.write(text)


def read_json(path: Path) -> Any:
    """The JSON value in `path`. A file that cannot be read or is not JSON
    is a `ClaimcheckError` naming it."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise ClaimcheckError(f"cannot read JSON file {path}: {exc}") from exc
