"""Source document model: sections, passages, assets, metadata, quality."""

from __future__ import annotations

from dataclasses import dataclass, field

SOURCE_TYPES = ("paper", "patent", "rebuttal", "benchmark",
                "evaluation-framework", "press", "filing", "profile")


@dataclass
class DocumentMetadata:
    authors: list[tuple[str, str]] = field(default_factory=list)  # (name, affiliation)
    publication_date: str | None = None                           # ISO date
    venue: str | None = None
    citation_count: int | None = None
    external_ids: dict[str, str] = field(default_factory=dict)
    disclosures: list[str] = field(default_factory=list)

    def merged_with(self, hints: "DocumentMetadata | None") -> "DocumentMetadata":
        """Overlay hint fields on extracted fields; hints win on conflict."""
        if hints is None:
            return self
        return DocumentMetadata(
            authors=hints.authors or self.authors,
            publication_date=hints.publication_date or self.publication_date,
            venue=hints.venue or self.venue,
            citation_count=(hints.citation_count
                            if hints.citation_count is not None
                            else self.citation_count),
            external_ids={**self.external_ids, **hints.external_ids},
            disclosures=hints.disclosures or self.disclosures,
        )


@dataclass
class Section:
    section_id: str
    heading: str
    level: int
    passages: list[tuple[str, str]]  # (passage_id, text)


@dataclass
class VisualAsset:
    asset_id: str
    kind: str  # figure | plot | diagram | table-image
    caption: str
    inline_refs: list[str] = field(default_factory=list)  # passage_ids
    description: str | None = None
    extracted_trends: list[str] = field(default_factory=list)
    section_id: str | None = None


@dataclass
class SourceScore:
    quality: float
    bias_flags: list[str]
    rationale: str


@dataclass
class SourceDocument:
    doc_id: str
    source_type: str
    title: str
    sections: list[Section]
    assets: list[VisualAsset] = field(default_factory=list)
    metadata: DocumentMetadata = field(default_factory=DocumentMetadata)
    quality: SourceScore | None = None

    @property
    def slug(self) -> str:
        """Stable human handle; falls back to the content hash."""
        return self.metadata.external_ids.get("slug", self.doc_id)

    def passages(self) -> list[tuple[str, str]]:
        out: list[tuple[str, str]] = []
        for section in self.sections:
            out.extend(section.passages)
        return out

    def passage_text(self, passage_id: str) -> str | None:
        for pid, text in self.passages():
            if pid == passage_id:
                return text
        return None

    def full_text(self) -> str:
        parts = [self.title]
        for section in self.sections:
            parts.append(section.heading)
            parts.extend(text for _, text in section.passages)
        return "\n".join(parts)

    def embedded_texts(self) -> list[tuple[str, str]]:
        """The `(owner, text)` pairs the document embeds and searches: its
        passages, then the descriptions of its described assets."""
        return self.passages() + [(a.asset_id, a.description)
                                  for a in self.assets if a.description]

    def find_section(self, *keywords: str) -> Section | None:
        for section in self.sections:
            heading = section.heading.lower()
            if any(k in heading for k in keywords):
                return section
        return None


@dataclass(frozen=True)
class EmbeddingRecord:
    owner: str  # passage_id or asset_id
    fingerprint: str  # of the `embed` call whose output is the vector
    model_tag: str
