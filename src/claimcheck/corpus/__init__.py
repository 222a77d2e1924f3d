"""Layer 1: corpus construction and ingestion."""

from .embedding import (EmbeddingStore, chunk_and_embed, embed_query,
                        semantic_searches)
from .ingest import FORMATS, ingest_document
from .model import (DocumentMetadata, EmbeddingRecord, Section, SourceDocument,
                    SourceScore, VisualAsset)
from .scoring import score_source, sells_chains
from .visuals import describe_visual_asset

__all__ = [
    "EmbeddingStore", "chunk_and_embed", "embed_query",
    "semantic_searches", "FORMATS", "ingest_document",
    "DocumentMetadata", "EmbeddingRecord", "Section", "SourceDocument",
    "SourceScore", "VisualAsset", "score_source", "sells_chains",
    "describe_visual_asset",
]
