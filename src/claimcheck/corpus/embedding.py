"""Embedding store and semantic search over passages and asset descriptions."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..errors import (ClaimcheckError, DimensionMismatch, EmptyStore,
                      ModelTagMismatch)
from ..provider import InferenceRouter, InferenceTask
from .model import EmbeddingRecord, SourceDocument


# The product sums each row in BLAS order, not in the order of `q @ v`, so a
# fast cosine can differ from the exact one by rounding error: at most about
# dim * 2**-53 for unit-scale cosines (3e-14 at dim 256). A row of the exact
# top k then has a fast cosine no lower than the k-th fast one minus twice
# that, so a margin of 1e-9 keeps every such row on the shortlist.
_SHORTLIST_MARGIN = 1e-9


class EmbeddingStore:
    """Fixed-dimension vector store; one model_tag per store.

    A record names its vector by the fingerprint of its `embed` call. The
    store keeps each vector only as a float64 row. The rows form its search
    matrix, in sorted-owner order, with an owner -> row index and each row's
    norm, all built at the first search after an `add`: once per run, or
    once per resume that searches. Until then a row waits as `add` took it
    (`add` turns any other sequence into a float64 row). A row or query
    without `dim` numbers is a `DimensionMismatch` naming it.

    Appends go through `add`, which the pipeline serializes per store.
    Searches run on the calling thread: each is one small product, so a pool
    would only add hand-off cost, and the lazy build is not safe across
    threads.
    """

    def __init__(self, dim: int, model_tag: str):
        self.dim = dim
        self.model_tag = model_tag
        self._records: dict[str, EmbeddingRecord] = {}
        self._pending: dict[str, np.ndarray] = {}  # not in the matrix yet
        self._owners: list[str] = []
        self._rows: dict[str, int] = {}
        self._matrix = np.zeros((0, dim))
        self._norms = np.zeros(0)

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, owner: str) -> bool:
        return owner in self._records

    def _row(self, vector: Sequence[float], name: str) -> np.ndarray:
        row = np.asarray(vector, dtype=np.float64)
        if row.shape != (self.dim,):
            raise DimensionMismatch(f"{name} has dim {row.size}, "
                                    f"store expects {self.dim}")
        return row

    def add(self, record: EmbeddingRecord, vector: Sequence[float]) -> None:
        vector = self._row(vector, f"record {record.owner}")
        if record.model_tag != self.model_tag:
            raise ModelTagMismatch(
                f"record {record.owner} tagged {record.model_tag!r}, "
                f"store expects {self.model_tag!r}")
        self._records[record.owner] = record
        self._pending[record.owner] = vector

    def records(self) -> list[EmbeddingRecord]:
        return [self._records[owner] for owner in sorted(self._records)]

    def _build_matrix(self) -> None:
        """Write every row once into its sorted place in a new matrix: a
        pending row, popped as it is written, or a row of the last matrix."""
        pending, self._pending = self._pending, {}
        owners = sorted(self._records)
        matrix = np.empty((len(owners), self.dim))
        for row, owner in enumerate(owners):
            vector = pending.pop(owner, None)
            matrix[row] = self._matrix[self._rows[owner]] \
                if vector is None else vector
        self._owners, self._matrix = owners, matrix
        self._rows = {owner: row for row, owner in enumerate(owners)}
        # Row by row, so each norm is bit-for-bit the one of a lone vector.
        self._norms = np.array([np.linalg.norm(v) for v in matrix])

    def search(self, query_vector: Sequence[float], k: int,
               owner_filter: set[str] | None = None) -> list[tuple[str, float]]:
        """The k records most similar to the query by cosine, each with its
        similarity; ties go to the lower owner id.

        One matrix-vector product ranks every row; the rows that can reach
        the top k are then scored again one by one, as `q @ v`, so the
        owners and similarities do not depend on the product's rounding.
        """
        if k < 1:
            raise ClaimcheckError("search needs k >= 1")
        q = self._row(query_vector, "query vector")
        if self._pending:
            self._build_matrix()
        if owner_filter is None:
            rows = np.arange(len(self._owners))
        else:
            rows = np.fromiter((self._rows[o] for o in owner_filter
                                if o in self._rows), dtype=np.intp)
        if len(rows) == 0:
            raise EmptyStore("embedding store has no matching records")
        qn = np.linalg.norm(q)
        # A zero query scores every row 0.0, so there is nothing to shortlist.
        if len(rows) > k and qn != 0.0:
            norms = self._norms[rows]
            with np.errstate(divide="ignore", invalid="ignore"):
                fast = np.where(norms == 0.0, 0.0,
                                (self._matrix @ q)[rows] / (norms * qn))
            kth = np.partition(fast, len(rows) - k)[len(rows) - k]
            rows = rows[fast >= kth - _SHORTLIST_MARGIN]
        scored: list[tuple[str, float]] = []
        for row in rows.tolist():
            vn = self._norms[row]
            sim = 0.0 if qn == 0.0 or vn == 0.0 \
                else float(q @ self._matrix[row] / (qn * vn))
            scored.append((self._owners[row], sim))
        # Descending similarity; ties broken by ascending owner id.
        scored.sort(key=lambda item: (-item[1], item[0]))
        return scored[:k]


def _embed(router: InferenceRouter, text: str, dim: int, model_tag: str):
    return router.invoke(InferenceTask("embed", {"text": text, "dim": dim,
                                                 "model_tag": model_tag}))


def chunk_and_embed(docs: list[SourceDocument], router: InferenceRouter,
                    store: EmbeddingStore) -> list[EmbeddingRecord]:
    """One record per embedded text (`SourceDocument.embedded_texts`) of
    each document.

    Every document's texts go out as one wave of `embed` calls, whatever the
    number of documents. The records and their vectors are appended to
    `store` in the order of `docs`, so an owner that two documents share
    resolves to the later one. Each wave item turns its vector into a
    float64 row, so the wave's results hold no list of floats.
    """
    owners_texts = [pair for doc in docs for pair in doc.embedded_texts()]

    def embedded(pair: tuple[str, str]) -> tuple[str, str, np.ndarray]:
        response = _embed(router, pair[1], store.dim, store.model_tag)
        return (response.fingerprint, response.output["model_tag"],
                np.asarray(response.output["vector"], dtype=np.float64))

    records = []
    for (owner, _), (fingerprint, model_tag, vector) in zip(
            owners_texts, router.map(embedded, owners_texts)):
        records.append(EmbeddingRecord(owner, fingerprint, model_tag))
        store.add(records[-1], vector)
    return records


def embed_query(router: InferenceRouter, text: str, dim: int,
                model_tag: str) -> np.ndarray:
    """The query's vector, as a float64 row."""
    return np.asarray(_embed(router, text, dim, model_tag).output["vector"],
                      dtype=np.float64)


def semantic_searches(queries: list[tuple[str, set[str] | None]], k: int,
                      store: EmbeddingStore, router: InferenceRouter
                      ) -> list[list[tuple[str, float]]]:
    """`EmbeddingStore.search` for each `(query, owner_filter)`, with no
    hits where it would raise `EmptyStore`.

    The query embeddings go out as one wave of `router.map`. The searches
    then run on the calling thread, as `EmbeddingStore` requires.
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
