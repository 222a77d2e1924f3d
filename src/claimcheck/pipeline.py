"""End-to-end orchestration of the six verification layers.

A run directory is fully deterministic: the run id derives from the query,
corpus hash, and config hash; every store file is written in sorted order at
a layer boundary; and the provider transcript is flushed per layer. Killing
a run at any layer boundary and resuming reproduces the uninterrupted run
byte-for-byte.

Every store file is declared once, in `STORE`, with the type of its table
(list or dict); one loop in `_persist` (run by `_flush_layer`) writes a
layer's files, through the dataclass codec of `records.py`. Adding a store
file means adding one entry. All `Run` state is built at its first read: a
`STORE` table (`StoreFile.__get__`) holds its file's rows once its layer is
committed and is empty before, and the views (`docs_by_slug`, `doc_orgs`,
`registry`, `store`, `relations`, `relation_edges`) are cached properties.
So a resume that runs only layer 6 parses no corpus file, opens no
transcript file, and decodes only the store files it reads. Every table and
view is first read on the calling thread, never inside a wave item.

Layers 1–4 and 6 send their provider calls in dependency waves. Each step
collects the calls it is certain to need, sends them as one wave of
`router.map` (`Run._wave`), and stores the results in the run's tables; the
fold that follows reads those tables in sorted order, as a sequential run
would. Layer 1 sends two waves whatever the corpus size: every asset
description, then every passage and asset embedding. Layer 2, and layer 4
for the documents it discovers, sends three: every entity extraction, every
claim extraction, then every provenance classification; claims resolve names
against the registry as of their own document, so no document sees entities
that only a later one registers. Layer 6 sends one wave over the evidence
profiles, and each item makes its claim's hypothesis calls in order. Calls
may finish in any order: the transcript is drained sorted, so the run
directory does not depend on it.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from functools import cached_property, partial
from operator import attrgetter
from pathlib import Path
from typing import Any, Callable, Iterator

import numpy as np

from . import assess as assess_mod
from . import crosssource as cross
from . import intradoc as intra
from . import signals as sig
from .config import PipelineConfig
from .corpus.embedding import (EmbeddingStore, chunk_and_embed, embed_query,
                               semantic_searches)
from .corpus.ingest import (RelationSet, corpus_fingerprint, ingest_document,
                            load_corpus_dir, read_corpus_dir)
from .corpus.model import EmbeddingRecord, SourceDocument
from .corpus.scoring import score_source, sells_chains
from .corpus.visuals import describe_visual_asset
from .errors import (BudgetExceeded, ClaimcheckError, ConfigDrift,
                     CorruptManifest, EmptyCorpus)
from .ids import make_id
from .jsonl import read_json, read_records, write_json, write_records, write_text
from .knowledge.extraction import (EntityRegistry, classify_provenance,
                                   extract_docs)
from .knowledge.graph import Edge, KnowledgeGraph, build_graph, relation_edge
from .knowledge.model import ClaimTriple, Entity
from .provider.spec import ProviderSpec, build_router
from .records import check_record, from_record, to_record
from .report import machine_report, narrative_report

logger = logging.getLogger(__name__)

LAYERS = ("layer1", "layer2", "layer3", "layer4", "layer5", "layer6")

_EVENT_PREDICATES = {
    "launched": "product-launch",
    "acquired": "acquisition",
    "raised-funding": "funding",
    "partnered-with": "partnership",
    "reframed-position": "reframing",
}


@dataclass(frozen=True)
class StoreFile:
    """One store file and the `Run` table it fills, of type `table`.

    A list is written sorted by `key` (as held if None) and read back in file
    order; a dict is written sorted by `key` and read back keyed by it, and a
    `.json` file holds the whole dict. `record` is the rows' dataclass (None:
    plain JSON rows).
    """

    layer: str
    name: str
    attr: str
    record: type | None = None
    key: Callable[[Any], Any] | None = None
    table: type = list

    def __get__(self, run: Run | None, owner: type | None = None) -> Any:
        """The `Run` table, built at its first read (its file's rows once its
        layer is committed, else empty) and kept in the run's `__dict__`."""
        if run is None:
            return self
        table = self.read(run.store_dir) if run.layers_done[self.layer] \
            else self.table()
        setattr(run, self.attr, table)
        return table

    def read(self, store_dir: Path) -> Any:
        path = store_dir / self.name
        if self.name.endswith(".json"):
            return read_json(path)
        rows = read_records(path)  # each record is built as its line is read
        if self.record is not None:
            rows = (from_record(self.record, row) for row in rows)
        return {self.key(row): row for row in rows} \
            if self.table is dict else list(rows)


_by = attrgetter

# Every file of the run store, declared once: (layer that writes it, file,
# Run attribute, record type, sort key, table type). No fact is stored twice:
# vectors are in `transcript/layer1.jsonl`, and the relations in the corpus.
STORE = (
    StoreFile("layer1", "documents.jsonl", "documents", SourceDocument, _by("doc_id"), dict),
    StoreFile("layer1", "embeddings.jsonl", "embeddings", EmbeddingRecord),
    StoreFile("layer2", "entities.jsonl", "entities", Entity),
    StoreFile("layer2", "claims.jsonl", "claims", ClaimTriple, _by("claim_id"), dict),
    StoreFile("layer2", "doc_claims.json", "doc_claims", table=dict),
    StoreFile("layer2", "doc_entities.json", "doc_entities", table=dict),
    StoreFile("layer3", "evidence_links.jsonl", "links", intra.EvidenceLink,
              _by("claim_id", "evidence_id")),
    StoreFile("layer3", "coherence_flags.jsonl", "coherence", intra.CoherenceFlag,
              _by("doc_id", "dimension")),
    StoreFile("layer3", "overclaims.jsonl", "overclaims", intra.OverclaimAnnotation,
              _by("claim_id", "issue")),
    StoreFile("layer3", "verdicts.jsonl", "verdicts", intra.ClaimVerdict,
              _by("claim_id"), dict),
    StoreFile("layer3", "consistency.jsonl", "consistency", intra.ConsistencyReport,
              _by("doc_id"), dict),
    StoreFile("layer4", "alignments.jsonl", "alignments", cross.ClaimAlignment,
              _by("claim_a", "claim_b"), dict),
    StoreFile("layer4", "agreements.jsonl", "agreements", cross.AgreementRecord,
              _by("claim_id", "counter_doc")),
    StoreFile("layer4", "independence.jsonl", "ratings", cross.IndependenceRating,
              _by("pair"), dict),
    StoreFile("layer4", "consensus.jsonl", "consensus", cross.ConsensusScore,
              _by("claim_id"), dict),
    StoreFile("layer4", "fidelity.jsonl", "fidelity", cross.CitationFidelityFinding,
              _by("citing_claim"), dict),
    StoreFile("layer4", "rubrics.jsonl", "rubrics", cross.RubricAssessment,
              _by("claim_id", "rubric_source")),
    StoreFile("layer5", "financial.jsonl", "financial", sig.FinancialProfile,
              _by("entity_id"), dict),
    StoreFile("layer5", "coi.jsonl", "coi_flags", sig.COIFlag,
              lambda f: (f.author, f.organization, len(f.product_path))),
    StoreFile("layer5", "conflict_webs.jsonl", "conflict_webs", sig.EntityConflictWeb,
              _by("entity_id")),
    StoreFile("layer5", "supply_chains.jsonl", "supply_chains", sig.SupplyChainDependency,
              lambda c: (c.dependent, len(c.chain), str(c.chain))),
    StoreFile("layer5", "timeline.jsonl", "timeline", sig.StrategicEvent),
    StoreFile("layer5", "correlations.jsonl", "correlations"),
    StoreFile("layer6", "profiles.jsonl", "profiles", assess_mod.EvidenceProfile,
              lambda p: p.claim.claim_id),
    StoreFile("layer6", "matrix.jsonl", "matrix", assess_mod.HypothesisRow),
)
_TABLES = {entry.attr: entry for entry in STORE}

# One call of a wave: (table, key, call). `Run._wave` stores the call's
# result in the table under the key.
Job = tuple[dict | list, Any, Callable[[], Any]]

# Run state kept in the manifest rather than the store.
_MANIFEST_LISTS = ("seeds", "docs_processed", "gaps", "citation_gaps")


@dataclass
class RunManifest:
    """`manifest.json`: what `resume` needs to rebuild the run, the layers
    it has committed, and the run state of `_MANIFEST_LISTS`. A field
    without a default is one that `resume` requires."""

    run_id: str
    query: str
    corpus_dir: str
    corpus_hash: str
    config_hash: str
    config: dict[str, Any]
    provider: ProviderSpec
    layers: dict[str, bool]
    schema: str = "run-manifest@1"
    target_doc: str | None = None
    seeds: list[str] = field(default_factory=list)
    docs_processed: list[str] = field(default_factory=list)
    gaps: list[str] = field(default_factory=list)
    citation_gaps: list[str] = field(default_factory=list)

# Layer 4 extracts and verifies the documents it discovers, so it rewrites
# the knowledge and intradoc stores along with its own.
_REWRITES = {"layer4": ("layer2", "layer3", "layer4")}


class Run:
    """One verification run rooted at a run directory.

    Construction reads and hashes the corpus; the layers build the rest,
    each table and view at its first read, and the knowledge graph in the
    layer that walks it (5)."""

    def __init__(self, run_dir: Path, corpus_dir: Path, query: str,
                 cfg: PipelineConfig, provider_spec: ProviderSpec,
                 target_doc: str | None = None):
        self.run_dir = Path(run_dir)
        self.corpus_dir = Path(corpus_dir)
        self.query = query
        self.cfg = cfg
        self.provider_spec = provider_spec
        self.target_doc = target_doc
        self.router = build_router(provider_spec, cfg)

        for name in _MANIFEST_LISTS:
            setattr(self, name, [])
        self.maturity: assess_mod.MaturityAssessment | None = None
        self.alphas: list[assess_mod.AlphaSignal] = []
        self.layers_done: dict[str, bool] = {layer: False for layer in LAYERS}

        # The corpus is read once: its bytes give the hash here, and the
        # documents in layer 1 or the relations at their first read. Either
        # drops them, as does a resume after layer 5.
        self._corpus_files: list[tuple[str, bytes]] | None = \
            read_corpus_dir(self.corpus_dir)
        self.corpus_hash = corpus_fingerprint(self._corpus_files)
        # The config is fixed for the run: its manifest fields are built
        # once, not at each of the run's manifest writes.
        self._config = cfg.to_dict()
        self._config_hash = cfg.snapshot_hash()
        self.run_id = make_id("run", query, self.corpus_hash,
                              self._config_hash)

    # --- paths and manifest -------------------------------------------------

    @property
    def store_dir(self) -> Path:
        return self.run_dir / "store"

    @property
    def manifest_path(self) -> Path:
        return self.run_dir / "manifest.json"

    def slug_of(self, doc_id: str) -> str:
        doc = self.documents.get(doc_id)
        return doc.slug if doc else doc_id

    def doc_by_slug(self, slug: str) -> SourceDocument | None:
        return self.docs_by_slug.get(slug) or self.documents.get(slug)

    @cached_property
    def docs_by_slug(self) -> dict[str, SourceDocument]:
        """The documents by slug, first read after layer 1; of documents
        that share a slug, the lowest doc_id wins (it is written last)."""
        return {doc.slug: doc
                for _, doc in sorted(self.documents.items(), reverse=True)}

    def write_manifest(self) -> None:
        write_json(self.manifest_path, to_record(RunManifest(
            run_id=self.run_id, query=self.query, target_doc=self.target_doc,
            corpus_dir=str(self.corpus_dir), corpus_hash=self.corpus_hash,
            config_hash=self._config_hash, config=self._config,
            provider=self.provider_spec, layers=self.layers_done,
            **{name: sorted(getattr(self, name)) for name in _MANIFEST_LISTS})))

    def _persist(self, layer: str) -> None:
        layers = _REWRITES.get(layer, (layer,))
        for entry in (e for e in STORE if e.layer in layers):
            path = self.store_dir / entry.name
            value = getattr(self, entry.attr)
            if entry.name.endswith(".json"):
                write_json(path, value)
                continue
            rows = value.values() if entry.table is dict else value
            if entry.key is not None:
                rows = sorted(rows, key=entry.key)
            write_records(path, map(to_record, rows) if entry.record else rows)

    def _flush_layer(self, layer: str, done: bool = True) -> None:
        """Write the layer's store files, its transcript and the manifest;
        `done=False` leaves the layer uncommitted (a budget stop)."""
        self._persist(layer)
        self.layers_done[layer] = done
        write_records(self.run_dir / "transcript" / f"{layer}.jsonl",
                      self.router.drain())
        self.write_manifest()

    # --- views built at their first read, as the `STORE` tables are --------

    @cached_property
    def store(self) -> EmbeddingStore:
        """The embedding store; once layer 1 is committed, its records come
        back with their vectors, from the layer-1 transcript."""
        store = EmbeddingStore(self.cfg.corpus.embedding_dim,
                               self.cfg.corpus.embedding_model_tag)
        if self.layers_done["layer1"]:
            records = _TABLES["embeddings"].read(self.store_dir)
            for record, vector in zip(records, _transcript_vectors(
                    self.run_dir / "transcript" / "layer1.jsonl", records)):
                store.add(record, vector)
        return store

    @cached_property
    def registry(self) -> EntityRegistry:
        """The entity registry; once layer 2 is committed, its entities are
        registered again in stored order."""
        registry = EntityRegistry(self.cfg.knowledge)
        if self.layers_done["layer2"]:
            for entity in _TABLES["entities"].read(self.store_dir):
                registry.register(entity.name, entity.kind, entity.aliases,
                                  entity.first_seen_doc)
        return registry

    @property
    def embeddings(self) -> list[EmbeddingRecord]:
        return self.store.records()

    @property
    def entities(self) -> list[Entity]:
        return self.registry.entities()

    # --- layer 1: corpus ------------------------------------------------------

    def layer1(self) -> None:
        files, self.relations = load_corpus_dir(self._corpus_files)
        self._corpus_files = None
        if not files:
            raise EmptyCorpus(f"no documents in {self.corpus_dir}")
        for name, raw, fmt, hints, manifest in files:
            try:
                doc = ingest_document(raw, fmt, hints, manifest)
            except ClaimcheckError as exc:
                raise type(exc)(f"corpus file {name}: {exc}") from exc
            self.documents[doc.doc_id] = doc
        del files  # no raw corpus bytes past ingest
        docs = [self.documents[doc_id] for doc_id in sorted(self.documents)]
        jobs: list[Job] = []
        for doc in docs:
            doc.assets = sorted(doc.assets, key=attrgetter("asset_id"))
            jobs += [(doc.assets, i, partial(describe_visual_asset, asset,
                                             doc.slug, self.router))
                     for i, asset in enumerate(doc.assets)
                     if asset.caption.strip()]
        self._wave(jobs)
        sells = sells_chains(self.relations.triples())
        for doc in docs:
            doc.quality = score_source(doc, sells, cfg=self.cfg.corpus)
        chunk_and_embed(docs, self.router, self.store)
        self._flush_layer("layer1")

    # --- relation-derived structures -----------------------------------------

    @cached_property
    def relations(self) -> RelationSet:
        """The corpus relation rows, parsed at their first read from the
        bytes that `__init__` hashed. Layer 1 sets them as it loads the
        documents; a resume after layer 5, whose layer 6 reads none, drops
        the bytes unparsed."""
        _, relations = load_corpus_dir(self._corpus_files)
        self._corpus_files = None
        return relations

    def _register_relation_entities(self) -> None:
        for row in self.relations.entity_rows():
            self.registry.register(row["subject"],
                                   row.get("subject_kind", "other"))
            if row.get("object_kind"):
                self.registry.register(row["object"], row["object_kind"])

    @cached_property
    def relation_edges(self) -> list[Edge]:
        """The relation rows' entity edges. Computed once per run: from
        layer 2 on, every subject, and every object with an `object_kind`,
        is registered, and an entity's id depends only on its name."""
        edges: dict[str, Edge] = {}
        for row in self.relations.entity_rows():
            subject = self.registry.get(row["subject"])
            if subject is None:
                continue
            obj = self.registry.get(row["object"]) \
                if row.get("object_kind") else None
            edge = relation_edge(
                subject.entity_id, row["relation"],
                obj.entity_id if obj else row["object"],
                object_is_entity=obj is not None,
                source=row.get("source", "relations"))
            edges[edge.edge_id] = edge
        return [edges[k] for k in sorted(edges)]

    def citation_edges(self) -> set[tuple[str, str]]:
        edges: set[tuple[str, str]] = set()
        for row in self.relations.citation_rows():
            a = self.doc_by_slug(row["subject"].removeprefix("doc:"))
            b = self.doc_by_slug(row["object"].removeprefix("doc:"))
            if a and b:
                edges.add((a.doc_id, b.doc_id))
        return edges

    def graph(self) -> KnowledgeGraph:
        claims = [self.claims[c] for c in sorted(self.claims)]
        return build_graph(self.registry.entities(), claims,
                           self.relation_edges)

    @cached_property
    def doc_orgs(self) -> dict[str, set[str]]:
        """For each document, the organization entities named in one of its
        author affiliations. First read in layer 4 after the discovered
        documents are extracted; layers 5 and 6 register no entity, so the
        registry is final then."""
        docs_by_affiliation: dict[str, list[str]] = {}
        for doc_id, doc in self.documents.items():
            for _, affiliation in doc.metadata.authors:
                docs_by_affiliation.setdefault(affiliation.lower(),
                                               []).append(doc_id)
        doc_orgs = {doc_id: set() for doc_id in self.documents}
        for entity in self.registry.entities():
            if entity.kind != "organization":
                continue
            name = entity.name.lower()
            for affiliation, doc_ids in docs_by_affiliation.items():
                if name in affiliation:
                    for doc_id in doc_ids:
                        doc_orgs[doc_id].add(entity.entity_id)
        return doc_orgs

    def corpus_view(self, citations: set[tuple[str, str]]) -> cross.CorpusView:
        competitor_pairs: set[frozenset[str]] = set()
        for row in self.relations.entity_rows():
            if row["relation"] == "competes-with":
                a = self.registry.get(row["subject"])
                b = self.registry.get(row["object"])
                if a and b:
                    competitor_pairs.add(frozenset((a.entity_id, b.entity_id)))
        return cross.CorpusView(
            metadata={d: self.documents[d].metadata for d in self.documents},
            citations=citations,
            competitor_pairs=competitor_pairs,
            doc_orgs=self.doc_orgs)

    # --- layers 2 and 3 (shared by seeds and discovered docs) -----------------

    def _select_seeds(self) -> list[str]:
        if self.target_doc:
            doc = self.doc_by_slug(self.target_doc)
            if doc is None:
                raise EmptyCorpus(
                    f"target doc {self.target_doc!r} not in corpus")
            return [doc.doc_id]
        query_vec = embed_query(self.router, self.query, self.store.dim,
                                self.store.model_tag)
        # One search ranks every document's first-section passages; the
        # first hit of a document is the one its own k=1 search would give.
        docs_of: dict[str, list[str]] = {}
        for doc_id in sorted(self.documents):
            doc = self.documents[doc_id]
            for pid, _ in (doc.sections[0].passages if doc.sections else []):
                docs_of.setdefault(pid, []).append(doc_id)
        best: dict[str, float] = {}
        if docs_of:
            for owner, sim in self.store.search(query_vec, k=len(docs_of),
                                                owner_filter=set(docs_of)):
                for doc_id in docs_of[owner]:
                    best.setdefault(doc_id, sim)
        ranked = sorted((-sim, doc_id) for doc_id, sim in best.items()
                        if sim > 0.0)
        seeds = [doc_id for _, doc_id in ranked[:self.cfg.relevance_top_n]]
        if not seeds:
            raise EmptyCorpus("no document is relevant to the query")
        return seeds

    def _wave(self, jobs: list[Job]) -> None:
        """Send the jobs' calls as one wave of `router.map`, then store each
        result in its table under its key, in job order."""
        results = self.router.map(lambda job: job[2](), jobs)
        for (table, key, _), result in zip(jobs, results):
            table[key] = result

    def _extract_docs(self, doc_ids: list[str]) -> None:
        """Layer 2 for `doc_ids`, in three waves whatever their number: every
        document's entity extraction, every claim extraction, then the
        provenance calls of all their claims. `extract_docs` folds the first
        two in the given order, so a document does not see entities that only
        a later one registers."""
        docs = [self.documents[doc_id] for doc_id in doc_ids]
        claims: list[ClaimTriple] = []
        for doc, (entities, found) in zip(docs, extract_docs(
                docs, self.router, self.registry)):
            self.doc_entities[doc.doc_id] = [e.entity_id for e in entities]
            found.sort(key=attrgetter("claim_id"))
            self.doc_claims[doc.doc_id] = [c.claim_id for c in found]
            claims += found

        def classify(claim: ClaimTriple) -> None:
            doc = self.documents[claim.doc_id]
            evidence = " ".join(
                doc.passage_text(pid) or "" for pid in claim.passage_ids)
            classify_provenance(claim, evidence, self.router, doc.slug)

        self.router.map(classify, claims)
        self.claims.update((c.claim_id, c) for c in claims)

    def _verify_docs(self, doc_ids: list[str]) -> None:
        """Layer 3 for `doc_ids`: one wave for the claims' evidence searches,
        one wave of NLI, coherence and overclaim calls, then the per-document
        fold in `doc_ids` order (overclaims with equal sort keys keep it)."""
        docs = [self.documents[d] for d in doc_ids]
        claims = {doc.doc_id: [self.claims[c]
                               for c in self.doc_claims.get(doc.doc_id, [])]
                  for doc in docs}
        pairs = [(doc, claim) for doc in docs for claim in claims[doc.doc_id]]
        hits = semantic_searches(
            [(claim.text, intra.evidence_owners(doc)) for doc, claim in pairs],
            self.cfg.intradoc.candidate_top_k, self.store, self.router)

        links: dict[tuple[str, str], intra.EvidenceLink] = {}
        flags: dict[str, list[intra.CoherenceFlag]] = {}
        annotations: dict[str, list[intra.OverclaimAnnotation]] = {}
        owners: dict[str, list[str]] = {}
        jobs: list[Job] = []
        for (doc, claim), found in zip(pairs, hits):
            candidates = intra.evidence_candidates(claim, doc, found)
            owners[claim.claim_id] = list(candidates)
            jobs += [(links, (claim.claim_id, owner),
                      partial(intra.judge_evidence, claim, doc.slug, owner,
                              text, self.router))
                     for owner, text in candidates.items()]
        for doc in docs:
            jobs.append((flags, doc.doc_id, partial(
                intra.assess_coherence, doc, claims[doc.doc_id], self.router)))
            jobs.append((annotations, doc.doc_id, partial(
                intra.detect_overclaims, doc, claims[doc.doc_id], self.router)))
        self._wave(jobs)

        for doc in docs:
            doc_links = [links[claim.claim_id, owner]
                         for claim in claims[doc.doc_id]
                         for owner in owners[claim.claim_id]]
            verdicts = [intra.derive_claim_verdict(claim, doc_links,
                                                   annotations[doc.doc_id])
                        for claim in claims[doc.doc_id]]
            self.links.extend(doc_links)
            self.coherence.extend(flags[doc.doc_id])
            self.overclaims.extend(annotations[doc.doc_id])
            for verdict in verdicts:
                self.verdicts[verdict.claim_id] = verdict
            self.consistency[doc.doc_id] = intra.consistency_score(doc.doc_id,
                                                                   verdicts)

    def layer2(self) -> None:
        self._register_relation_entities()
        self.seeds = self._select_seeds()
        self._extract_docs(sorted(self.seeds))
        self.docs_processed += sorted(self.seeds)
        self._flush_layer("layer2")

    def layer3(self) -> None:
        self._verify_docs(sorted(self.seeds))
        self._flush_layer("layer3")

    # --- layer 4: cross-source -------------------------------------------------

    def layer4(self) -> None:
        """Discover the documents related to the seeds' claims, extract and
        verify those the budget admits as one batch, in discovery order,
        then compare claims. Discovered documents that do not fit become
        gaps, and the layer stops uncommitted with `BudgetExceeded`. The
        stop is final: the budget is part of the config snapshot, so a
        resume could admit nothing more, and it raises the same stop before
        any call or write."""
        if self.gaps:
            raise self._budget_exceeded()
        citations = self.citation_edges()
        focus_claims = [self.claims[c] for d in sorted(self.seeds)
                        for c in self.doc_claims.get(d, [])]
        discovered = cross.discover_related(
            focus_claims, {e.entity_id: e for e in self.entities},
            self.store, self.router, citations, self.documents,
            self.cfg.crosssource)
        queue = [d for d in discovered if d not in self.docs_processed]
        room = max(0, self.cfg.document_budget - len(self.docs_processed))
        batch, self.gaps = queue[:room], queue[room:]
        self._extract_docs(batch)
        self._verify_docs(batch)
        self.docs_processed += batch
        if self.gaps:
            self._flush_layer("layer4", done=False)
            raise self._budget_exceeded()

        self._compare_claims(focus_claims, self.corpus_view(citations))
        self._evaluate_rubrics()
        self._flush_layer("layer4")

    def _budget_exceeded(self) -> BudgetExceeded:
        return BudgetExceeded(
            f"document budget {self.cfg.document_budget} exceeded; "
            f"{len(self.gaps)} documents left unprocessed",
            queued=sorted(self.gaps))

    def _rating_for(self, a: str, b: str,
                    view: cross.CorpusView) -> cross.IndependenceRating:
        key = tuple(sorted((a, b)))
        if key not in self.ratings:
            self.ratings[key] = cross.assess_independence(
                key[0], key[1], view, self.cfg.crosssource)
        return self.ratings[key]

    def _own_rating(self, doc_id: str) -> cross.IndependenceRating:
        """The claim's own source: low independence when commercially
        interested (Layer-1 bias flag), high otherwise."""
        key = (doc_id, doc_id)
        if key not in self.ratings:
            doc = self.documents[doc_id]
            coi = bool(doc.quality and
                       "commercial-affiliation" in doc.quality.bias_flags)
            rating = "low" if coi else "high"
            weight = (self.cfg.crosssource.weight_low if coi
                      else self.cfg.crosssource.weight_high)
            self.ratings[key] = cross.IndependenceRating(
                pair=key, rating=rating, author_jaccard=1.0,
                shared_affiliation=True, citation_distance=0,
                competitor_stake=False, weight=weight,
                caveat="own source" + (", commercially interested" if coi
                                       else ""))
        return self.ratings[key]

    def _counters(self, claim: ClaimTriple) -> Iterator[ClaimTriple]:
        """The counter-claim walk: claims of the other processed documents,
        in sorted document order, that share an endpoint with `claim`."""
        anchors = claim.endpoints
        for doc_id in sorted(self.docs_processed):
            if doc_id == claim.doc_id:
                continue
            for claim_id in self.doc_claims.get(doc_id, []):
                if anchors & self.claims[claim_id].endpoints:
                    yield self.claims[claim_id]

    def _alignment(self, a: str, b: str) -> cross.ClaimAlignment | None:
        return self.alignments.get((a, b)) or self.alignments.get((b, a))

    def _walk(self, claims: list[ClaimTriple]) -> tuple[
            list[tuple[ClaimTriple, ClaimTriple]], list[Job]]:
        """The counter-claim walk from each of `claims`, once: the
        `(claim, counter)` pairs it meets, in walk order, and an
        `align-claims` job for each pair not aligned yet, oriented as first
        met (the orientation is part of the task payload)."""
        pairs = []
        jobs: dict[tuple[str, str], Job] = {}
        for claim in claims:
            for counter in self._counters(claim):
                pairs.append((claim, counter))
                key = (claim.claim_id, counter.claim_id)
                if key in jobs or key[::-1] in jobs \
                        or self._alignment(*key) is not None:
                    continue
                jobs[key] = (self.alignments, key, partial(
                    cross.align_claims, claim, counter, self.router,
                    self.slug_of(claim.doc_id), self.slug_of(counter.doc_id)))
        return pairs, list(jobs.values())

    def _matched(self, pairs: list[tuple[ClaimTriple, ClaimTriple]]) -> list[
            tuple[ClaimTriple, ClaimTriple, cross.ClaimAlignment]]:
        """The walked pairs aligned as matched, with their alignments."""
        return [(claim, counter, alignment) for claim, counter in pairs
                if (alignment := self._alignment(
                    claim.claim_id, counter.claim_id)).relation == "matched"]

    def _fidelity_jobs(self, claims: list[ClaimTriple]) -> list[Job]:
        """A `citation-fidelity` job for each provenance-4 claim that has no
        finding yet, against the document it cites first. A cited document
        missing from the corpus is recorded as a discovery gap instead,
        once per claim passed."""
        jobs: dict[str, Job] = {}
        for citing in claims:
            if citing.provenance is None or citing.provenance.level != 4 \
                    or not citing.cited_refs:
                continue
            slug = citing.cited_refs[0].removeprefix("doc:")
            cited = self.doc_by_slug(slug)
            if cited is None:
                self.citation_gaps.append(f"{citing.claim_id} -> {slug}")
            elif citing.claim_id not in self.fidelity \
                    and citing.claim_id not in jobs:
                jobs[citing.claim_id] = (self.fidelity, citing.claim_id, partial(
                    cross.check_citation_fidelity, citing,
                    [self.claims[c] for c in self.doc_claims.get(cited.doc_id, [])],
                    self.router, self.slug_of(citing.doc_id), cited.slug))
        return list(jobs.values())

    def _cites(self, counter: ClaimTriple, claim: ClaimTriple) -> bool:
        """Whether a provenance-4 counter-claim cites the claim's document."""
        return bool(counter.provenance and counter.provenance.level == 4
                    and any(self.slug_of(claim.doc_id) ==
                            ref.removeprefix("doc:")
                            for ref in counter.cited_refs))

    def _compare_claims(self, focus_claims: list[ClaimTriple],
                        view: cross.CorpusView) -> None:
        # Every (seed, processed-doc) pair gets a rating up front; the
        # deliverable includes ratings even for pairs that never produce an
        # agreement record.
        for seed in sorted(self.seeds):
            self._own_rating(seed)
            for doc_id in sorted(self.docs_processed):
                if doc_id != seed:
                    self._rating_for(seed, doc_id, view)
        focus = sorted(focus_claims, key=lambda c: c.claim_id)
        # Wave A: the focus claims' pairs and their own citation checks.
        walked, align = self._walk(focus)
        self._wave(align + self._fidelity_jobs(focus))
        matched = self._matched(walked)
        cluster = {c.claim_id: c for c in focus_claims}
        counters = {counter.claim_id: counter for _, counter, _ in matched
                    if counter.claim_id not in cluster}
        cluster |= counters
        # Wave B: matched counter-claims get their own consensus so Layer 6
        # can hypothesize over both sides of a contested proposition.
        walked, align = self._walk([counters[c] for c in sorted(counters)])
        self._wave(align)
        matched += self._matched(walked)
        # Wave C: counter-claims that cite the claim they match.
        cites = [self._cites(counter, claim) for claim, counter, _ in matched]
        self._wave(self._fidelity_jobs([
            counter for (_, counter, _), cited in zip(matched, cites) if cited]))

        labelled = []
        for (claim, counter, alignment), cited in zip(matched, cites):
            label = ("corroborates" if alignment.stance == "agrees"
                     else "contradicts")
            fidelity = self.fidelity.get(counter.claim_id) if cited else None
            if fidelity is not None and not fidelity.faithful:
                label = "misrepresents"
            labelled.append((claim, counter, label, fidelity))
        # Wave D: the root cause of every contradicting pair.
        roots: dict[int, cross.RootCause] = {}
        self._wave([
            (roots, i, partial(cross.analyze_contradiction, claim, counter,
                               self.router, self.slug_of(claim.doc_id),
                               self.slug_of(counter.doc_id),
                               self.cfg.knowledge))
            for i, (claim, counter, label, _) in enumerate(labelled)
            if label == "contradicts"])

        records: dict[tuple[str, str], cross.AgreementRecord] = {}
        for i, (claim, counter, label, fidelity) in enumerate(labelled):
            key = (claim.claim_id, counter.doc_id)
            existing = records.get(key)
            if existing is None or _record_precedence(label) > \
                    _record_precedence(existing.label):
                records[key] = cross.AgreementRecord(
                    claim_id=claim.claim_id, counter_doc=counter.doc_id,
                    label=label, counter_claim=counter.claim_id,
                    root_cause=roots.get(i), fidelity=fidelity)

        self.agreements = [records[k] for k in sorted(records)]
        consistency = {d: r.consistency_score
                       for d, r in self.consistency.items()}
        for claim_id in sorted(cluster):
            claim = cluster[claim_id]
            claim_records = [r for r in self.agreements
                             if r.claim_id == claim_id]
            claim_records.append(cross.AgreementRecord(
                claim_id=claim_id, counter_doc=claim.doc_id,
                label="corroborates", counter_claim=claim_id))
            ratings = {claim.doc_id: self._own_rating(claim.doc_id)}
            for record in claim_records:
                if record.counter_doc != claim.doc_id:
                    ratings[record.counter_doc] = self._rating_for(
                        claim.doc_id, record.counter_doc, view)
            self.consensus[claim_id] = cross.compute_consensus(
                claim, claim_records, ratings, consistency)

    def _evaluate_rubrics(self) -> None:
        rubric_docs = [self.documents[d] for d in sorted(self.documents)
                       if self.documents[d].source_type == "evaluation-framework"
                       and d in self.docs_processed]
        if not rubric_docs:
            return
        slugs = {d: self.slug_of(d) for d in self.documents}
        contested = sorted({
            r.claim_id for r in self.agreements if r.label == "contradicts"})
        jobs = []
        for claim_id in contested:
            claim = self.claims[claim_id]
            if claim.doc_id not in self.seeds:
                continue
            members = [claim] + [self.claims[r.counter_claim]
                                 for r in self.agreements
                                 if r.claim_id == claim_id and r.counter_claim]
            jobs += [(members, rubric_doc) for rubric_doc in rubric_docs]
        self.rubrics += self.router.map(
            lambda job: cross.evaluate_rubric(*job, self.router, slugs), jobs)

    # --- layer 5: signals --------------------------------------------------------

    def _strategic_events(self, graph: KnowledgeGraph) -> list[sig.StrategicEvent]:
        events: list[sig.StrategicEvent] = []
        for doc_id in sorted(self.docs_processed):
            doc = self.documents[doc_id]
            if not doc.metadata.publication_date:
                continue
            kind = "rebuttal" if doc.source_type == "rebuttal" else "publication"
            parties = set(self.doc_orgs[doc_id])
            for claim_id in self.doc_claims.get(doc_id, []):
                claim = self.claims[claim_id]
                subject = graph.nodes.get(claim.subject)
                if subject is not None and subject.kind == "algorithm":
                    parties.add(subject.entity_id)
            events.append(sig.StrategicEvent(
                date=doc.metadata.publication_date, kind=kind,
                parties=sorted(parties), source=doc_id,
                note=doc.title))
        for row in self.relations.rows:
            kind = _EVENT_PREDICATES.get(row["relation"])
            if kind is None or "date" not in row:
                continue
            parties = []
            for name in (row["subject"], row["object"]):
                entity = self.registry.get(name)
                if entity is not None:
                    parties.append(entity.entity_id)
            events.append(sig.StrategicEvent(
                date=row["date"], kind=kind, parties=sorted(set(parties)),
                source=row.get("source", "relations"),
                note=row.get("description", row["relation"])))
        return events

    def layer5(self) -> None:
        graph = self.graph()
        financial_events = sig.financial_events(self.relations.rows,
                                                self.registry)
        for entity_id in sorted(financial_events):
            self.financial[entity_id] = sig.classify_spending(
                financial_events[entity_id], self.cfg.signals)

        evaluated = sorted({
            self.claims[c].subject for d in sorted(self.seeds)
            for c in self.doc_claims.get(d, [])
            if graph.nodes[self.claims[c].subject].kind == "algorithm"})
        for doc_id in sorted(self.seeds):
            doc = self.documents[doc_id]
            author_entities = []
            for name, _ in doc.metadata.authors:
                entity = self.registry.get(name)
                if entity is not None and entity.kind == "researcher":
                    author_entities.append(entity.entity_id)
            self.coi_flags.extend(sig.detect_coi(
                doc, graph, author_entities, evaluated, self.cfg.signals))

        involved: set[str] = set(evaluated)
        for doc_id in sorted(self.seeds):
            for claim_id in self.doc_claims.get(doc_id, []):
                involved |= self.claims[claim_id].endpoints
        for edge in graph.edges.values():
            if edge.predicate in ("implements", "evaluates") \
                    and edge.object_is_entity and edge.object in involved:
                involved.add(edge.subject)
        for entity in self.registry.entities():
            if entity.kind != "organization":
                continue
            web = sig.map_conflict_web(entity.entity_id, graph, involved,
                                       self.cfg.signals)
            if web.edges:
                self.conflict_webs.append(web)

        for entity_id in evaluated:
            self.supply_chains.extend(sig.map_supply_chain(
                entity_id, graph, self.cfg.signals))

        related_pairs = {
            frozenset((e.subject, e.object)) for e in graph.edges.values()
            if e.object_is_entity}
        self.timeline, self.correlations = sig.build_timeline(
            self._strategic_events(graph),
            self.cfg.signals.correlation_window_days, related_pairs)

        self._flush_layer("layer5")

    # --- layer 6: assessment --------------------------------------------------------

    def _claim_coi_context(self, claim: ClaimTriple) -> list[sig.COIFlag]:
        """Flags of involved entities: the asserting orgs plus any stake
        chain terminating at the claim's subject or object."""
        orgs = self.doc_orgs[claim.doc_id]
        return [flag for flag in self.coi_flags
                if flag.organization in orgs
                or (flag.product_path
                    and flag.product_path[-1]["to"] in claim.endpoints)]

    def _self_corrected(self, claim: ClaimTriple) -> bool:
        """A reframing event by the claimant whose source document carries a
        claim aligned with this one."""
        claimant_orgs = self.doc_orgs[claim.doc_id]
        aligned_claims = {a.claim_b for a in self.alignments.values()
                          if a.claim_a == claim.claim_id
                          and a.relation in ("matched", "partially-overlapping")}
        aligned_claims |= {a.claim_a for a in self.alignments.values()
                           if a.claim_b == claim.claim_id
                           and a.relation in ("matched", "partially-overlapping")}
        aligned_docs = {self.claims[c].doc_id for c in aligned_claims
                        if c in self.claims}
        for event in self.timeline:
            if event.kind != "reframing":
                continue
            if not claimant_orgs & set(event.parties):
                continue
            source_doc = self.doc_by_slug(event.source.removeprefix("doc:"))
            if source_doc and source_doc.doc_id in aligned_docs:
                return True
        return False

    def layer6(self) -> None:
        rubric_by_claim = {r.claim_id: r.summary for r in self.rubrics}
        for claim_id in sorted(self.consensus):
            claim = self.claims[claim_id]
            profile = assess_mod.build_evidence_profile(
                claim, self.verdicts.get(claim_id),
                self.consensus.get(claim_id),
                [f for f in self.coherence if f.doc_id == claim.doc_id],
                self._claim_coi_context(claim),
                rubric_by_claim.get(claim_id),
                source_slug=self.slug_of(claim.doc_id))
            self.profiles.append(profile)

        bundles = self.router.map(
            lambda profile: assess_mod.generate_hypotheses(
                profile, self.router, self.cfg.assess.n_samples,
                self.cfg.assess.hypothesis_models),
            self.profiles)
        statuses: dict[str, str] = {}
        rows: list[assess_mod.HypothesisRow] = []
        for profile, bundle in zip(self.profiles, bundles):
            row = assess_mod.build_hypothesis_row(
                profile, bundle, self._self_corrected(profile.claim),
                self.cfg.assess)
            if row is not None:
                rows.append(row)
                statuses[profile.claim.claim_id] = row.status
        rows.sort(key=lambda r: r.hypothesis.hypothesis_id)
        self.matrix = rows

        hardware_kinds = {e.entity_id: e.kind
                          for e in self.registry.entities()}
        if self.profiles:
            self.maturity = assess_mod.assess_maturity(
                self.profiles, self.timeline, statuses, hardware_kinds,
                self.cfg.assess)
        self.alphas = assess_mod.detect_alpha(self.profiles, self.cfg.assess)

        self._write_report()
        self._flush_layer("layer6")

    def report_payload(self) -> dict[str, Any]:
        consistency = {
            doc_id: {
                "slug": self.slug_of(doc_id),
                "consistency_score": round(report.consistency_score, 6),
                "counts": report.counts,
                "claims": len(report.verdicts),
                "empty_document": report.empty_document,
            }
            for doc_id, report in sorted(self.consistency.items())}
        independence = [
            {
                "pair": list(self.ratings[key].pair),
                "pair_slugs": [self.slug_of(key[0]), self.slug_of(key[1])],
                "rating": self.ratings[key].rating,
                "author_jaccard": round(self.ratings[key].author_jaccard, 6),
                "weight": self.ratings[key].weight,
            }
            for key in sorted(self.ratings) if key[0] != key[1]]
        return machine_report(
            self.query, self.matrix, self.maturity, self.alphas, consistency,
            independence, self._config, self.run_id)

    def _write_report(self) -> None:
        payload = self.report_payload()
        write_json(self.run_dir / "report" / "assessment.json", payload)
        write_text(self.run_dir / "report" / "assessment.txt",
                   narrative_report(payload))

    # --- orchestration -----------------------------------------------------------

    _LAYER_FNS = {
        "layer1": layer1, "layer2": layer2, "layer3": layer3,
        "layer4": layer4, "layer5": layer5, "layer6": layer6,
    }

    def execute(self, stop_after: str | None = None) -> Path:
        if not any(self.layers_done.values()):  # a resume has its manifest
            self.write_manifest()
        for layer in LAYERS:
            if self.layers_done[layer]:
                continue
            self._LAYER_FNS[layer](self)
            if stop_after == layer:
                break
        return self.run_dir


for _entry in STORE:  # each table that no view holds is a `Run` attribute
    if _entry.attr not in vars(Run):
        setattr(Run, _entry.attr, _entry)


def _transcript_vectors(path: Path, records: list[EmbeddingRecord]
                        ) -> list[np.ndarray]:
    """The vectors of reloaded embedding records, as float64 rows: the
    outputs of their `embed` calls in the layer-1 transcript at `path`. The
    store view reads it as it is built, so a resume that runs only layers 5
    and 6 never reads it. The file is read line by line, and only the
    vectors of `records` are kept, each converted as its line is read."""
    vectors: dict[str, np.ndarray | None] = dict.fromkeys(
        record.fingerprint for record in records)
    for row in read_records(path):
        if row["fingerprint"] in vectors:
            vector = row["output"].get("vector")
            vectors[row["fingerprint"]] = None if vector is None \
                else np.asarray(vector, dtype=np.float64)
    for record in records:
        if vectors[record.fingerprint] is None:
            raise ClaimcheckError(f"{path} holds no embed output for "
                                  f"{record.owner} ({record.fingerprint})")
    return [vectors[record.fingerprint] for record in records]


def _record_precedence(label: str) -> int:
    return {"corroborates": 1, "misrepresents": 2, "contradicts": 3}[label]


def run(query: str, corpus_dir: Path, out_dir: Path, cfg: PipelineConfig,
        provider_spec: ProviderSpec, target_doc: str | None = None,
        stop_after: str | None = None) -> Run:
    state = Run(out_dir, corpus_dir, query, cfg, provider_spec, target_doc)
    state.execute(stop_after=stop_after)
    return state


def resume(run_dir: Path, cfg: PipelineConfig | None = None,
           provider_spec: ProviderSpec | None = None,
           stop_after: str | None = None) -> Run:
    """Continue a run from its first incomplete layer.

    Completed layers are never recomputed: the remaining layers read their
    outputs from the store, each table at its first read. The config
    snapshot must match the current config.
    """
    manifest_path = Path(run_dir) / "manifest.json"
    try:
        data = read_json(manifest_path)
    except ClaimcheckError as exc:
        raise CorruptManifest(str(exc)) from exc
    if not isinstance(data, dict) or data.get("schema") != "run-manifest@1":
        raise CorruptManifest(f"unexpected manifest schema in {manifest_path}")
    data.pop("queue", None)  # always empty, in the manifests of older runs
    try:
        check_record(RunManifest, data, "manifest")
    except ClaimcheckError as exc:
        raise CorruptManifest(f"{exc} in {manifest_path}") from exc
    manifest = from_record(RunManifest, data)

    if cfg is None:
        cfg = PipelineConfig.from_dict(manifest.config)
    if cfg.snapshot_hash() != manifest.config_hash:
        raise ConfigDrift(
            "config differs from the run snapshot; refusing to resume")
    state = Run(Path(run_dir), Path(manifest.corpus_dir), manifest.query, cfg,
                provider_spec or manifest.provider, manifest.target_doc)
    if state.corpus_hash != manifest.corpus_hash:
        raise ConfigDrift("corpus changed since the run was started")
    state.layers_done = {layer: manifest.layers.get(layer, False)
                         for layer in LAYERS}
    for name in _MANIFEST_LISTS:
        setattr(state, name, getattr(manifest, name))
    if state.layers_done["layer5"]:
        state._corpus_files = None  # layer 6 reads no relation
    state.execute(stop_after=stop_after)
    return state
