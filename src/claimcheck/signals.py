"""Layer 5: external signal corroboration.

Derives per-entity signals from structured relation records:
CapEx/OpEx spending classification, conflict-of-interest discovery over the
knowledge graph, supply-chain dependency mapping, and strategic timelines
with temporal correlations.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date
from typing import Any

from .config import SignalsConfig
from .errors import UnknownEntity
from .knowledge.extraction import EntityRegistry
from .knowledge.graph import KnowledgeGraph, Path, find_paths, simple_paths
from .records import to_record
from .corpus.model import SourceDocument


@dataclass
class FinancialEvent:
    entity_id: str
    date: str              # ISO date
    kind: str              # funding-round | acquisition | revenue | expenditure
    description: str = ""
    amount: float | None = None
    currency: str | None = None
    classification: str = "unclassified"  # capex | opex | unclassified
    source: str = ""


@dataclass
class FinancialProfile:
    entity_id: str
    events: list[FinancialEvent]
    dominance: str  # capex-dominant | opex-dominant | mixed | unknown
    summary: str


@dataclass
class COIFlag:
    author: str        # researcher entity_id
    organization: str  # entity_id
    role: str
    product_path: list[dict[str, str]]  # edge-labeled path steps
    disclosed: bool


@dataclass
class EntityConflictWeb:
    """Organization-level conflict web: stake edges touching the evaluation.

    Complements author-level COI flags for actors (hardware vendors,
    marketplace hosts) that never author a paper but hold several stakes in
    the evaluated claim at once.
    """

    entity_id: str
    edges: list[dict[str, str]]  # {predicate, target, target_name}


@dataclass
class SupplyChainDependency:
    dependent: str
    chain: list[dict[str, str]]
    single_supplier: bool


@dataclass
class StrategicEvent:
    date: str
    kind: str
    parties: list[str]  # entity_ids
    source: str
    note: str = ""


# --- spending classification ---------------------------------------------------

def _classify_event(event: FinancialEvent, cfg: SignalsConfig) -> str:
    if event.kind not in ("expenditure", "acquisition"):
        return "unclassified"
    text = event.description.lower()
    if any(k in text for k in cfg.capex_keywords):
        return "capex"
    if any(k in text for k in cfg.opex_keywords):
        return "opex"
    return "unclassified"


_FINANCIAL_PREDICATES = {
    "raised-funding": "funding-round",
    "acquired": "acquisition",
    "spent-on": "expenditure",
    "earned-revenue": "revenue",
}


def financial_events(relation_rows: list[dict[str, Any]],
                     registry: EntityRegistry
                     ) -> dict[str, list[FinancialEvent]]:
    """Dated financial relation records, per registered subject entity."""
    events: dict[str, list[FinancialEvent]] = {}
    for row in relation_rows:
        kind = _FINANCIAL_PREDICATES.get(row["relation"])
        if kind is None or "date" not in row:
            continue
        entity = registry.get(row["subject"])
        if entity is None:
            continue
        amount = row.get("amount") or {}
        events.setdefault(entity.entity_id, []).append(FinancialEvent(
            entity_id=entity.entity_id, date=row["date"], kind=kind,
            description=row.get("description", row["object"]),
            amount=amount.get("value"), currency=amount.get("currency"),
            source=row.get("source", "relations")))
    return events


def classify_spending(events: list[FinancialEvent],
                      cfg: SignalsConfig) -> FinancialProfile:
    """Classify expenditures by the keyword rule table; dominance goes to the
    side holding more than the configured fraction of classified amounts."""
    entity_id = events[0].entity_id if events else ""
    classified = []
    for event in events:
        event.classification = _classify_event(event, cfg)
        classified.append(event)
    capex = sum(e.amount or 0.0 for e in classified
                if e.classification == "capex")
    opex = sum(e.amount or 0.0 for e in classified
               if e.classification == "opex")
    total = capex + opex
    if total <= 0.0:
        dominance = "unknown"
    elif capex / total > cfg.dominance_fraction:
        dominance = "capex-dominant"
    elif opex / total > cfg.dominance_fraction:
        dominance = "opex-dominant"
    else:
        dominance = "mixed"
    summary = (f"capex={capex:.2f} opex={opex:.2f} over "
               f"{len(classified)} events")
    return FinancialProfile(entity_id=entity_id,
                            events=sorted(classified,
                                          key=lambda e: (e.date, e.kind)),
                            dominance=dominance, summary=summary)


# --- conflict-of-interest discovery ---------------------------------------------

def _path_steps(path: Path, graph: KnowledgeGraph) -> list[dict[str, str]]:
    return [{"edge_id": s.edge_id, "predicate": s.predicate,
             "from": s.from_entity, "to": s.to_entity,
             "from_name": graph.nodes[s.from_entity].name,
             "to_name": graph.nodes[s.to_entity].name}
            for s in path]


def detect_coi(doc: SourceDocument, graph: KnowledgeGraph,
               author_entities: list[str], evaluated: list[str],
               cfg: SignalsConfig) -> list[COIFlag]:
    """Author-to-algorithm stake discovery.

    One flag per (author, organization, path) where the author holds a
    founder/officer edge into an organization whose commercial chain reaches
    an evaluated algorithm within the hop budget. disclosed=True only when
    the document declares the interest.
    """
    officer_predicates = set(cfg.officer_predicates)
    chain_predicates = set(cfg.coi_chain_predicates)
    disclosed = bool(doc.metadata.disclosures)
    flags: list[COIFlag] = []
    for author_id in sorted(author_entities):
        if author_id not in graph.nodes:
            continue
        for target in sorted(evaluated):
            if target not in graph.nodes:
                continue
            paths = find_paths(graph, author_id, target, cfg.coi_max_hops,
                               predicate_filter=officer_predicates
                               | chain_predicates)
            for path in paths:
                if not path or path[0].predicate not in officer_predicates:
                    continue
                if any(step.predicate not in chain_predicates
                       for step in path[1:]):
                    continue
                flags.append(COIFlag(
                    author=author_id,
                    organization=path[0].to_entity,
                    role=path[0].predicate,
                    product_path=_path_steps(path, graph),
                    disclosed=disclosed))
    return flags


def map_conflict_web(entity_id: str, graph: KnowledgeGraph,
                     involved: set[str],
                     cfg: SignalsConfig) -> EntityConflictWeb:
    """Stake edges from one organization into evaluation-involved entities."""
    if entity_id not in graph.nodes:
        raise UnknownEntity(f"unknown entity {entity_id}")
    stake = set(cfg.stake_predicates)
    edges = []
    for edge in graph.out_edges(entity_id):
        if edge.predicate in stake and edge.object_is_entity \
                and edge.object in involved:
            edges.append({"predicate": edge.predicate, "target": edge.object,
                          "target_name": graph.nodes[edge.object].name})
    return EntityConflictWeb(entity_id=entity_id, edges=edges)


# --- supply chain ----------------------------------------------------------------

def map_supply_chain(entity_id: str, graph: KnowledgeGraph,
                     cfg: SignalsConfig) -> list[SupplyChainDependency]:
    """Maximal dependency-typed paths out of an entity, within the hop budget.

    single_supplier is set when every path that reaches a manufacturer
    terminates at the same one.
    """
    if entity_id not in graph.nodes:
        raise UnknownEntity(f"unknown entity {entity_id}")
    paths = simple_paths(graph, entity_id, cfg.coi_max_hops,
                         set(cfg.dependency_predicates))
    # Maximal paths: those that no other path extends.
    prefixes = {p[:-1] for p in paths}
    chains = [p for p in paths if p not in prefixes]

    manufacturers = {p[-1].to_entity for p in chains
                     if p[-1].predicate == "manufactured-by"}
    single = len(manufacturers) == 1
    return [SupplyChainDependency(
        dependent=entity_id, chain=_path_steps(path, graph),
        single_supplier=single and path[-1].predicate == "manufactured-by")
        for path in chains]


# --- strategic timeline -------------------------------------------------------------

def _days_between(a: str, b: str) -> int:
    return abs((date.fromisoformat(a) - date.fromisoformat(b)).days)


def build_timeline(events: list[StrategicEvent], window_days: int,
                   related: set[frozenset[str]] | None = None
                   ) -> tuple[list[StrategicEvent], list[dict[str, Any]]]:
    """Sort events chronologically and pair up related ones within the window.

    Two events are related when they share a party, or when `related` links
    any of their party pairs (graph adjacency, precomputed by the caller).
    """
    related = related or set()
    timeline = sorted(events, key=lambda e: (e.date, sorted(e.parties), e.kind))
    correlations: list[dict[str, Any]] = []
    for i, first in enumerate(timeline):
        for second in timeline[i + 1:]:
            gap = _days_between(first.date, second.date)
            if gap > window_days:
                break  # sorted by date; later events only grow the gap
            parties_a, parties_b = set(first.parties), set(second.parties)
            linked = bool(parties_a & parties_b) or any(
                frozenset((x, y)) in related
                for x in parties_a for y in parties_b)
            if linked:
                correlations.append({
                    "first": to_record(first), "second": to_record(second),
                    "gap_days": gap,
                    "note": f"{first.kind} followed by {second.kind} "
                            f"within {gap} days",
                })
    return timeline, correlations
