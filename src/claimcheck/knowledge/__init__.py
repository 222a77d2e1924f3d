"""Layer 2: entities, claim triples, provenance, metrics, knowledge graph."""

from .extraction import (EntityRegistry, classify_provenance, extract_docs,
                         normalize_predicate)
from .graph import (Edge, KnowledgeGraph, Path, PathStep, build_graph,
                    find_paths, relation_edge)
from .metrics import compare_metric_definitions, normalize_metric, render_metric
from .model import (ClaimTriple, ComparabilityVerdict, Entity, MetricValue,
                    OverheadEntry, ProvenanceLevel)

__all__ = [
    "EntityRegistry", "classify_provenance", "extract_docs",
    "normalize_predicate", "Edge", "KnowledgeGraph",
    "Path", "PathStep", "build_graph", "find_paths", "relation_edge",
    "compare_metric_definitions", "normalize_metric", "render_metric",
    "ClaimTriple", "ComparabilityVerdict", "Entity", "MetricValue",
    "OverheadEntry", "ProvenanceLevel",
]
