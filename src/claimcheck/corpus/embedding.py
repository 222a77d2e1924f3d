"""Embedding store and semantic search over passages and asset descriptions."""

from __future__ import annotations

import numpy as np

from ..errors import (ClaimcheckError, DimensionMismatch, EmptyStore,
                      ModelTagMismatch)
from ..provider import InferenceRouter, InferenceTask
from .model import EmbeddingRecord, SourceDocument


class EmbeddingStore:
    """Fixed-dimension vector store; one model_tag per store.

    Reads are lock-free over immutable records; appends go through `add`,
    which the pipeline serializes per store.
    """

    def __init__(self, dim: int, model_tag: str):
        self.dim = dim
        self.model_tag = model_tag
        self._records: dict[str, EmbeddingRecord] = {}

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, owner: str) -> bool:
        return owner in self._records

    def add(self, record: EmbeddingRecord) -> None:
        if len(record.vector) != self.dim:
            raise DimensionMismatch(
                f"record {record.owner} has dim {len(record.vector)}, "
                f"store expects {self.dim}")
        if record.model_tag != self.model_tag:
            raise ModelTagMismatch(
                f"record {record.owner} tagged {record.model_tag!r}, "
                f"store expects {self.model_tag!r}")
        self._records[record.owner] = record

    def records(self) -> list[EmbeddingRecord]:
        return [self._records[owner] for owner in sorted(self._records)]

    def search(self, query_vector: list[float], k: int,
               owner_filter: set[str] | None = None) -> list[tuple[str, float]]:
        if k < 1:
            raise ClaimcheckError("search needs k >= 1")
        owners = sorted(self._records)
        if owner_filter is not None:
            owners = [o for o in owners if o in owner_filter]
        if not owners:
            raise EmptyStore("embedding store has no matching records")
        q = np.asarray(query_vector, dtype=np.float64)
        qn = np.linalg.norm(q)
        scored: list[tuple[str, float]] = []
        for owner in owners:
            v = np.asarray(self._records[owner].vector, dtype=np.float64)
            vn = np.linalg.norm(v)
            sim = 0.0 if qn == 0.0 or vn == 0.0 else float(q @ v / (qn * vn))
            scored.append((owner, sim))
        # Descending similarity; ties broken by ascending owner id.
        scored.sort(key=lambda item: (-item[1], item[0]))
        return scored[:k]


def embed_texts(router: InferenceRouter, owners_texts: list[tuple[str, str]],
                dim: int, model_tag: str) -> list[EmbeddingRecord]:
    def one(pair: tuple[str, str]) -> EmbeddingRecord:
        owner, text = pair
        task = InferenceTask("embed", {"text": text, "dim": dim,
                                       "model_tag": model_tag})
        response = router.invoke(task)
        return EmbeddingRecord(owner=owner,
                               vector=tuple(response.output["vector"]),
                               model_tag=response.output["model_tag"])

    return router.map(one, owners_texts)


def chunk_and_embed(doc: SourceDocument, router: InferenceRouter,
                    store: EmbeddingStore) -> list[EmbeddingRecord]:
    """One record per passage and per described asset; appended to `store`."""
    owners_texts = list(doc.passages())
    owners_texts.extend((a.asset_id, a.description)
                        for a in doc.described_assets())
    records = embed_texts(router, owners_texts, store.dim, store.model_tag)
    for record in records:
        store.add(record)
    return records


def embed_query(router: InferenceRouter, text: str, dim: int,
                model_tag: str) -> list[float]:
    task = InferenceTask("embed", {"text": text, "dim": dim,
                                   "model_tag": model_tag})
    return list(router.invoke(task).output["vector"])


def semantic_search(query: str, k: int, store: EmbeddingStore,
                    router: InferenceRouter,
                    owner_filter: set[str] | None = None) -> list[tuple[str, float]]:
    if len(store) == 0:
        raise EmptyStore("embedding store is empty")
    vector = embed_query(router, query, store.dim, store.model_tag)
    return store.search(vector, k, owner_filter=owner_filter)


def semantic_searches(queries: list[tuple[str, set[str] | None]], k: int,
                      store: EmbeddingStore, router: InferenceRouter
                      ) -> list[list[tuple[str, float]]]:
    """`semantic_search` for each `(query, owner_filter)`, with no hits
    where it would raise `EmptyStore`.

    The query embeddings go out as one wave of `router.map`. The searches
    then run on the calling thread: they are CPU-bound, and on the pool they
    would only contend for the interpreter lock.
    """
    if len(store) == 0:
        return [[] for _ in queries]
    vectors = router.map(
        lambda query: embed_query(router, query[0], store.dim, store.model_tag),
        queries)
    hits: list[list[tuple[str, float]]] = []
    for (_, owner_filter), vector in zip(queries, vectors):
        try:
            hits.append(store.search(vector, k, owner_filter=owner_filter))
        except EmptyStore:  # no record passes the filter
            hits.append([])
    return hits
