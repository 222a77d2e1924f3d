"""Document ingestion: raw bytes to a structured, content-addressed document.

Accepts pre-extracted text (pdf-text, plain), HTML, or a structured JSON
manifest. Section boundaries come from heading heuristics for flat text and
from explicit structure for manifests. The doc_id is a pure function of the
raw input bytes, so re-ingesting an unchanged corpus is byte-identical.
`read_corpus_dir` reads a corpus directory once, and `load_corpus_dir`
sorts those bytes into document files, their `.meta.json` metadata
sidecars, and the relation manifest; a missing directory, a malformed
JSON file, sidecar or relation row, or a date that is not ISO is a
`ClaimcheckError` that names it.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass, field
from datetime import date
from html.parser import HTMLParser
from pathlib import Path, PurePath
from typing import Any, Iterable

from ..errors import ClaimcheckError, EmptyInput, UnsupportedFormat
from ..ids import content_hash, hash_bytes, make_id, normalize_text
from ..records import check_record, from_record
from .model import (SOURCE_TYPES, DocumentMetadata, Section, SourceDocument,
                    VisualAsset)

FORMATS = ("pdf-text", "html", "plain", "json-manifest")

# Numbered headings ("3.1 Results") or short ALL-CAPS lines start a section.
_NUMBERED = re.compile(r"^\s*(\d+(?:\.\d+)*)[.)]?\s+(\S.*)$")
_ALLCAPS = re.compile(r"^[A-Z][A-Z0-9 \-&]{2,60}$")


def ingest_document(raw: bytes, format: str,
                    hints: DocumentMetadata | None = None,
                    manifest: dict[str, Any] | None = None) -> SourceDocument:
    """The document of `raw`. For a json-manifest, `manifest` may give the
    JSON object of `raw` where the caller has decoded it already."""
    if format not in FORMATS:
        raise UnsupportedFormat(f"format {format!r} not one of {FORMATS}")
    if not raw or not raw.decode("utf-8", errors="replace").strip():
        raise EmptyInput("document contains no usable text")
    doc_id = f"doc-{hash_bytes(raw)}"
    if format == "json-manifest":
        try:
            if manifest is None:
                manifest = json.loads(raw.decode("utf-8"))
            doc = _from_manifest(doc_id, manifest)
        except json.JSONDecodeError as exc:
            raise UnsupportedFormat(
                f"manifest is not valid JSON: {exc}") from exc
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise UnsupportedFormat(f"manifest is malformed: "
                                    f"{type(exc).__name__}: {exc}") from exc
    elif format == "html":
        doc = _from_html(doc_id, raw)
    else:  # plain and pdf-text share the heading heuristics
        doc = _from_plain(doc_id, raw)
    if not doc.sections or not doc.passages():
        raise EmptyInput("document yielded no sections or passages")
    doc.metadata = doc.metadata.merged_with(hints)
    return doc


def _section_from(doc_id: str, index: int, heading: str, level: int,
                  passages: list[str]) -> Section:
    section_id = make_id("sec", doc_id, index, heading)
    rows: list[tuple[str, str]] = []
    for p_index, text in enumerate(passages):
        text = normalize_text(text)
        if not text:
            continue
        rows.append((make_id("pas", doc_id, index, p_index, text), text))
    return Section(section_id=section_id, heading=heading, level=level,
                   passages=rows)


def _from_manifest(doc_id: str, data: dict[str, Any]) -> SourceDocument:
    if data.get("manifest_kind", "document") != "document":
        raise UnsupportedFormat(
            f"manifest_kind {data.get('manifest_kind')!r} is not a document")
    source_type = data.get("source_type", "paper")
    if source_type not in SOURCE_TYPES:
        raise UnsupportedFormat(f"unknown source_type {source_type!r}")

    sections: list[Section] = []
    for index, sec in enumerate(data.get("sections", [])):
        sections.append(_section_from(
            doc_id, index, sec.get("heading", f"Section {index + 1}"),
            int(sec.get("level", 1)), list(sec.get("passages", []))))

    meta = data.get("metadata", {})
    authors = [(a["name"], a.get("affiliation", ""))
               for a in meta.get("authors", [])]
    metadata = _metadata({**meta, "authors": authors},
                         "metadata publication_date")
    if "slug" in data:
        metadata.external_ids.setdefault("slug", data["slug"])

    assets: list[VisualAsset] = []
    for a_index, asset in enumerate(data.get("assets", [])):
        caption = normalize_text(asset.get("caption", ""))
        refs = []
        for si, pi in asset.get("inline_refs", []):
            section = _at(sections, si, f"asset {a_index} section")
            refs.append(_at(section.passages, pi,
                            f"asset {a_index} passage")[0])
        assets.append(VisualAsset(
            asset_id=make_id("ast", doc_id, a_index, caption),
            kind=asset.get("kind", "figure"), caption=caption,
            inline_refs=refs,
            section_id=(_at(sections, asset["section"],
                            f"asset {a_index} section").section_id
                        if "section" in asset else None)))

    return SourceDocument(doc_id=doc_id, source_type=source_type,
                          title=normalize_text(data.get("title", "")),
                          sections=sections, assets=assets, metadata=metadata)


def _metadata(data: Any, date_what: str) -> DocumentMetadata:
    """The metadata record of a manifest's or sidecar's `metadata` object,
    once its keys, their JSON types and its `publication_date` (named as
    `date_what`) check out."""
    check_record(DocumentMetadata, data, "metadata")
    if data.get("publication_date"):
        _check_date(data["publication_date"], date_what)
    return from_record(DocumentMetadata, data)


def _check_date(value: Any, what: str) -> None:
    """Raise unless `value` is a `YYYY-MM-DD` date. Layer 5 reads it with
    `date.fromisoformat` and orders dates as strings, which is date order
    only in this form; Python 3.11 also reads `20250317` and `2025-W11-1`."""
    try:
        if date.fromisoformat(value).isoformat() == value:
            return
    except (TypeError, ValueError):
        pass
    raise ClaimcheckError(f"{what} {value!r} is not an ISO date")


def _at(rows: list[Any], index: Any, what: str) -> Any:
    """`rows[index]`, for an index in `range(len(rows))` only."""
    if type(index) is not int or not 0 <= index < len(rows):
        raise UnsupportedFormat(f"{what} {index!r} does not exist")
    return rows[index]


def _from_plain(doc_id: str, raw: bytes) -> SourceDocument:
    text = raw.decode("utf-8", errors="replace").replace("\f", "\n")
    lines = text.splitlines()
    title = ""
    blocks: list[tuple[str, int, list[str]]] = []  # (heading, level, paragraphs)
    current: list[str] = []
    paragraph: list[str] = []

    def close_paragraph():
        if paragraph:
            current.append(" ".join(paragraph))
            paragraph.clear()

    def close_block(heading: str, level: int):
        close_paragraph()
        if current or not blocks:
            blocks.append((heading, level, list(current)))
        current.clear()

    heading, level = "Body", 1
    for line in lines:
        stripped = line.strip()
        if not stripped:
            close_paragraph()
            continue
        if not title:
            title = stripped
            continue
        numbered = _NUMBERED.match(stripped)
        if numbered and len(stripped) < 80:
            close_block(heading, level)
            heading = numbered.group(2).strip()
            level = numbered.group(1).count(".") + 1
            continue
        if _ALLCAPS.match(stripped):
            close_block(heading, level)
            heading, level = stripped.title(), 1
            continue
        paragraph.append(stripped)
    close_block(heading, level)

    sections = [_section_from(doc_id, i, h, lv, ps)
                for i, (h, lv, ps) in enumerate(blocks) if ps]
    if not sections and title:
        sections = [_section_from(doc_id, 0, "Body", 1, [title])]
    return SourceDocument(doc_id=doc_id, source_type="paper", title=title,
                          sections=sections)


class _HTMLCollector(HTMLParser):
    def __init__(self):
        super().__init__()
        self.title = ""
        self.blocks: list[tuple[str, int, list[str]]] = [("Body", 1, [])]
        self._target: str | None = None
        self._buffer: list[str] = []

    def handle_starttag(self, tag, attrs):
        if tag in ("h1", "h2", "h3", "h4", "h5", "h6", "p", "title"):
            self._target = tag
            self._buffer = []

    def handle_endtag(self, tag):
        if tag != self._target:
            return
        text = normalize_text("".join(self._buffer))
        if text:
            if tag == "title":
                self.title = text
            elif tag.startswith("h"):
                self.blocks.append((text, int(tag[1]), []))
            else:
                self.blocks[-1][2].append(text)
        self._target = None

    def handle_data(self, data):
        if self._target:
            self._buffer.append(data)


def _from_html(doc_id: str, raw: bytes) -> SourceDocument:
    collector = _HTMLCollector()
    collector.feed(raw.decode("utf-8", errors="replace"))
    sections = [_section_from(doc_id, i, h, lv, ps)
                for i, (h, lv, ps) in enumerate(collector.blocks) if ps]
    title = collector.title or next(
        (h for h, _, ps in collector.blocks if ps), "")
    return SourceDocument(doc_id=doc_id, source_type="paper", title=title,
                          sections=sections)


# --- corpus directories ----------------------------------------------------

@dataclass
class RelationSet:
    """Structured relation records loaded from the corpus directory."""

    rows: list[dict[str, Any]] = field(default_factory=list)

    def triples(self) -> list[tuple[str, str, str]]:
        return [(r["subject"], r["relation"], r["object"]) for r in self.rows]

    def entity_rows(self) -> list[dict[str, Any]]:
        return [r for r in self.rows
                if not r["subject"].startswith("doc:")
                and not r["object"].startswith("doc:")]

    def citation_rows(self) -> list[dict[str, Any]]:
        return [r for r in self.rows if r["relation"] == "cites"]


def _row_key(value: Any) -> Any:
    """Hashable form of a JSON value: two values get equal keys exactly when
    they compare equal with `==`."""
    if isinstance(value, dict):
        try:  # only scalar values: the same key, built at C speed
            return frozenset(value.items())
        except TypeError:  # a nested value
            return frozenset((k, _row_key(v)) for k, v in value.items())
    if isinstance(value, list):
        return tuple(_row_key(v) for v in value)
    return value


def read_corpus_dir(corpus_dir: Path) -> list[tuple[str, bytes]]:
    """(name, bytes) of every regular file in `corpus_dir`, sorted by name.

    Sorting names gives the order that sorting the paths would, since they
    share a parent; names are unique, so no two paths are compared. Each
    file is read in one unbuffered `readall`, with no `Path` built."""
    try:
        with os.scandir(corpus_dir) as entries:
            files = sorted((e.name, e.path) for e in entries if e.is_file())
        return [(name, _read_bytes(path)) for name, path in files]
    except OSError as exc:
        raise ClaimcheckError(f"cannot read corpus path {exc.filename}: "
                              f"{exc.strerror}") from exc


def _read_bytes(path: str) -> bytes:
    with open(path, "rb", buffering=0) as fh:
        return fh.readall()


def _decode(name: str, raw: bytes, as_metadata: bool = False) -> Any:
    """The JSON object of corpus file `name`, as a metadata record if
    `as_metadata` (a sidecar)."""
    try:
        data = json.loads(raw.decode("utf-8"))
        if type(data) is not dict:
            raise ValueError("its top level is not a JSON object")
        return _metadata(data, "publication_date") if as_metadata else data
    except (ValueError, ClaimcheckError) as exc:
        raise ClaimcheckError(f"corpus file {name} is malformed: {exc}") from exc


def _check_row(row: Any, where: str) -> None:
    """Raise unless relation row `row` is an object with string `subject`,
    `relation` and `object`, an object `amount` and an ISO `date` where
    given. `where` names the row."""
    if type(row) is not dict:
        raise ClaimcheckError(f"{where} must be a JSON object")
    for key in ("subject", "relation", "object"):
        if type(row.get(key)) is not str:
            raise ClaimcheckError(f"{where} {key} must be a JSON string")
    if "amount" in row and type(row["amount"]) is not dict:
        raise ClaimcheckError(f"{where} amount must be a JSON object")
    if "date" in row:
        _check_date(row["date"], f"{where} date")


def load_corpus_dir(files: list[tuple[str, bytes]]
                    ) -> tuple[list[tuple[str, bytes, str,
                                          DocumentMetadata | None,
                                          dict[str, Any] | None]],
                               RelationSet]:
    """Collect (name, raw, format, hints, manifest) for every document file
    plus the relation records, from a directory as `read_corpus_dir` gives
    it. Sidecars and manifests are parsed from those bytes, each once: a
    document manifest's JSON object goes on as `manifest`, None for other
    formats. The order is that of `files`."""
    raw_by_name = dict(files)
    documents = []
    relations = RelationSet()
    seen_rows: set[Any] = set()
    format_map = {".txt": "plain", ".html": "html", ".json": "json-manifest"}
    for name, raw in files:
        if name.endswith(".meta.json"):
            continue
        path = PurePath(name)
        fmt = format_map.get(path.suffix)
        if fmt is None:
            continue
        data = _decode(name, raw) if fmt == "json-manifest" else None
        if data is not None and data.get("manifest_kind") == "relations":
            rows = data.get("records", [])
            if type(rows) is not list:
                raise ClaimcheckError(f"corpus file {name} is malformed: "
                                      "records must be a JSON array")
            for index, row in enumerate(rows):
                _check_row(row, f"corpus file {name} is malformed: "
                           f"records[{index}]")
                key = _row_key(row)
                if key not in seen_rows:
                    seen_rows.add(key)
                    relations.rows.append(row)
            continue
        sidecar = path.stem + ".meta.json"
        hints = _decode(sidecar, raw_by_name[sidecar], as_metadata=True) \
            if sidecar in raw_by_name else None
        documents.append((name, raw, fmt, hints, data))
    return documents, relations


def corpus_fingerprint(files: Iterable[tuple[str, bytes]]) -> str:
    """Hash of every file that `read_corpus_dir` lists, whatever its
    suffix: sidecars and files that no loader reads change it too."""
    return content_hash([[name, hash_bytes(raw)] for name, raw in files])
