"""Knowledge graph: entities as nodes, claims and relations as typed edges.

Supports bounded-hop simple-path queries with a deterministic ordering
(shortest paths first, then lexicographic edge-id tuples). The graph is a
multigraph: two edges may connect the same pair under different predicates,
and each contributes its own paths.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import DanglingEndpoint, DuplicateEdge, UnknownEntity
from ..ids import make_id
from .model import ClaimTriple, Entity


@dataclass(frozen=True)
class Edge:
    edge_id: str
    subject: str          # entity_id
    predicate: str
    object: str           # entity_id or literal text
    object_is_entity: bool
    source: str = ""      # doc or relation-file id


@dataclass(frozen=True)
class PathStep:
    edge_id: str
    predicate: str
    from_entity: str
    to_entity: str


Path = tuple[PathStep, ...]


@dataclass
class KnowledgeGraph:
    nodes: dict[str, Entity] = field(default_factory=dict)
    edges: dict[str, Edge] = field(default_factory=dict)
    _out: dict[str, list[str]] = field(default_factory=dict)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def add_node(self, entity: Entity) -> None:
        self.nodes[entity.entity_id] = entity

    def add_edge(self, edge: Edge) -> None:
        if edge.edge_id in self.edges:
            raise DuplicateEdge(f"edge id {edge.edge_id} already present")
        if edge.subject not in self.nodes:
            raise DanglingEndpoint(
                f"edge {edge.edge_id} subject {edge.subject} not a node")
        if edge.object_is_entity and edge.object not in self.nodes:
            raise DanglingEndpoint(
                f"edge {edge.edge_id} object {edge.object} not a node")
        self.edges[edge.edge_id] = edge
        self._out.setdefault(edge.subject, []).append(edge.edge_id)

    def out_edges(self, entity_id: str) -> list[Edge]:
        return sorted((self.edges[e] for e in self._out.get(entity_id, [])),
                      key=lambda e: e.edge_id)


def relation_edge(subject_id: str, predicate: str, object_id: str,
                  object_is_entity: bool = True, source: str = "") -> Edge:
    edge_id = make_id("rel", subject_id, predicate, object_id, source)
    return Edge(edge_id=edge_id, subject=subject_id, predicate=predicate,
                object=object_id, object_is_entity=object_is_entity,
                source=source)


def build_graph(entities: list[Entity], claims: list[ClaimTriple],
                relations: list[Edge]) -> KnowledgeGraph:
    graph = KnowledgeGraph()
    for entity in entities:
        graph.add_node(entity)
    for claim in claims:
        graph.add_edge(Edge(
            edge_id=claim.claim_id, subject=claim.subject,
            predicate=claim.predicate, object=claim.object,
            object_is_entity=claim.object_is_entity, source=claim.doc_id))
    for relation in relations:
        graph.add_edge(relation)
    return graph


def simple_paths(graph: KnowledgeGraph, start: str, max_hops: int,
                 predicates: set[str] | None = None) -> list[Path]:
    """Every simple directed path of 1..max_hops entity edges out of `start`.

    "Simple" means no repeated nodes; parallel edges yield distinct paths.
    Results are ordered shortest-first, then by the edge-id tuple.
    """
    paths: list[Path] = []

    def walk(current: str, visited: set[str], steps: Path) -> None:
        for edge in graph.out_edges(current):
            if not edge.object_is_entity or edge.object in visited:
                continue
            if predicates is not None and edge.predicate not in predicates:
                continue
            path = steps + (PathStep(edge_id=edge.edge_id,
                                     predicate=edge.predicate,
                                     from_entity=current,
                                     to_entity=edge.object),)
            paths.append(path)
            if len(path) < max_hops:
                walk(edge.object, visited | {edge.object}, path)

    if max_hops >= 1:
        walk(start, {start}, ())
    paths.sort(key=lambda p: (len(p), tuple(s.edge_id for s in p)))
    return paths


def find_paths(graph: KnowledgeGraph, from_entity: str, to_entity: str,
               max_hops: int, predicate_filter: set[str] | None = None
               ) -> list[Path]:
    """The simple paths of `simple_paths` that end at `to_entity`."""
    if from_entity not in graph.nodes:
        raise UnknownEntity(f"unknown entity {from_entity}")
    if to_entity not in graph.nodes:
        raise UnknownEntity(f"unknown entity {to_entity}")

    # Reflexive query: the only simple path is the zero-length one (any
    # longer path would revisit the endpoint).
    if from_entity == to_entity:
        return [()]
    return [p for p in simple_paths(graph, from_entity, max_hops,
                                    predicate_filter)
            if p[-1].to_entity == to_entity]
