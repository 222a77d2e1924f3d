"""Pipeline configuration: every scoring weight and threshold in one place.

Defaults are the documented values; anything here can be overridden from a
JSON config file. The full config is snapshotted (and hashed) into the run
manifest so a resumed run can detect drift.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from functools import reduce
from pathlib import Path
from typing import Any

from .errors import ClaimcheckError
from .ids import content_hash
from .jsonl import read_json
from .records import check_record, from_record


@dataclass
class CorpusConfig:
    quality_prior: float = 0.5
    venue_weight: float = 0.4
    citation_weight: float = 0.3
    diversity_weight: float = 0.3
    # Venue tiers in [0,1]; unlisted venues fall back to the prior.
    venue_tiers: dict[str, float] = field(default_factory=lambda: {
        "arxiv": 0.5,
        "preprint": 0.5,
        "workshop": 0.6,
        "conference": 0.8,
        "journal": 0.9,
    })
    citation_saturation: int = 1000
    embedding_dim: int = 256
    embedding_model_tag: str = "hashed-bow-v1"


@dataclass
class KnowledgeConfig:
    # Canonicalizes predicate phrasing; extendable per corpus.
    predicate_synonyms: dict[str, str] = field(default_factory=lambda: {
        "runs-on": "executed-on",
        "run-on": "executed-on",
        "executed-upon": "executed-on",
        "depends-on": "requires",
    })
    entity_aliases: dict[str, str] = field(default_factory=dict)
    # Exclusion is significant when >= this fraction of its side's total.
    asymmetry_fraction: float = 0.5


@dataclass
class IntradocConfig:
    candidate_top_k: int = 8


@dataclass
class CrossSourceConfig:
    author_jaccard_low: float = 0.3
    citation_distance_medium: int = 1
    weight_high: float = 1.0
    weight_medium: float = 0.6
    weight_low: float = 0.3
    discovery_citation_hops: int = 2
    discovery_top_k: int = 8


@dataclass
class SignalsConfig:
    capex_keywords: list[str] = field(default_factory=lambda: [
        "hardware", "fabrication", "fab", "equipment", "facility",
        "manufacturing", "datacenter",
    ])
    opex_keywords: list[str] = field(default_factory=lambda: [
        "cloud", "access", "personnel", "staff", "license", "licensing",
        "marketing", "platform", "software", "subscription",
    ])
    dominance_fraction: float = 0.6
    correlation_window_days: int = 90
    coi_max_hops: int = 4
    officer_predicates: list[str] = field(default_factory=lambda: [
        "founded", "co-founded", "officer-of",
    ])
    # commercial chain from an organization down to the evaluated algorithm
    coi_chain_predicates: list[str] = field(default_factory=lambda: [
        "sells", "implements",
    ])
    stake_predicates: list[str] = field(default_factory=lambda: [
        "provides", "owns", "hosts", "co-authored", "sells", "funds",
    ])
    dependency_predicates: list[str] = field(default_factory=lambda: [
        "requires", "topology", "manufactured-by",
    ])


@dataclass
class AssessConfig:
    entropy_high_confidence: float = 0.3
    entropy_low_confidence: float = 0.6
    status_hallucination_consensus: float = -0.5
    status_supported_consensus: float = 0.25
    cross_source_band: float = 0.25
    hypothesis_models: list[str] = field(default_factory=lambda: [
        "analyst-a", "analyst-b", "analyst-c",
    ])
    n_samples: int = 1
    # Predicates that mark a claim as hardware execution / value proposition
    # for the maturity rubric.
    hardware_execution_predicates: list[str] = field(default_factory=lambda: [
        "executed-on",
    ])
    value_proposition_predicates: list[str] = field(default_factory=lambda: [
        "outperforms", "outperforms-time-to-result", "achieves",
        "achieves-speedup-over", "reduces",
    ])
    alpha_consensus: float = 0.5


@dataclass
class ProviderConfig:
    retries: int = 3
    backoff_base: float = 0.1
    backoff_factor: float = 2.0
    # Task-kind routing: kind -> provider tag. Unrouted kinds use `default_tag`.
    routing: dict[str, str] = field(default_factory=lambda: {
        "embed": "local-embed",
    })
    default_tag: str = "analyst-a"


@dataclass
class PipelineConfig:
    corpus: CorpusConfig = field(default_factory=CorpusConfig)
    knowledge: KnowledgeConfig = field(default_factory=KnowledgeConfig)
    intradoc: IntradocConfig = field(default_factory=IntradocConfig)
    crosssource: CrossSourceConfig = field(default_factory=CrossSourceConfig)
    signals: SignalsConfig = field(default_factory=SignalsConfig)
    assess: AssessConfig = field(default_factory=AssessConfig)
    provider: ProviderConfig = field(default_factory=ProviderConfig)
    document_budget: int = 50
    relevance_top_n: int = 20
    max_parallelism: int = 4

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)

    def snapshot_hash(self) -> str:
        return content_hash(self.to_dict(), length=16)

    def validate(self) -> None:
        # A count, size or budget below 1, or a backoff, weight, hop count
        # or window below 0, cannot run.
        floors = {"corpus.citation_saturation": 1, "corpus.embedding_dim": 1,
                  "intradoc.candidate_top_k": 1,
                  "crosssource.discovery_top_k": 1, "assess.n_samples": 1,
                  "document_budget": 1, "relevance_top_n": 1,
                  "provider.retries": 1, "max_parallelism": 1,
                  "provider.backoff_base": 0, "provider.backoff_factor": 0,
                  "corpus.venue_weight": 0, "corpus.citation_weight": 0,
                  "corpus.diversity_weight": 0, "signals.coi_max_hops": 0,
                  "crosssource.discovery_citation_hops": 0,
                  "signals.correlation_window_days": 0}
        checks = [
            (self.corpus.venue_weight + self.corpus.citation_weight
             + self.corpus.diversity_weight > 0, "corpus weights sum > 0"),
            (0.0 <= self.corpus.quality_prior <= 1.0, "corpus.quality_prior in [0,1]"),
            (0.0 <= self.crosssource.author_jaccard_low <= 1.0,
             "crosssource.author_jaccard_low in [0,1]"),
            (0.0 < self.crosssource.weight_low <= self.crosssource.weight_medium
             <= self.crosssource.weight_high <= 1.0,
             "independence weights ordered in (0,1]"),
            (0.0 < self.signals.dominance_fraction < 1.0,
             "signals.dominance_fraction in (0,1)"),
            (self.assess.entropy_high_confidence <= self.assess.entropy_low_confidence,
             "entropy thresholds ordered"),
            (bool(self.assess.hypothesis_models),
             "assess.hypothesis_models non-empty"),
        ] + [(reduce(getattr, path.split("."), self) >= least,
              f"{path} >= {least}") for path, least in floors.items()]
        for ok, what in checks:
            if not ok:
                raise ClaimcheckError(f"config out of range: {what}")

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "PipelineConfig":
        """A config from JSON: omitted keys keep their defaults."""
        check_record(cls, data, "config")
        cfg = from_record(cls, data)
        cfg.validate()
        return cfg

    @classmethod
    def load(cls, path: Path | None) -> "PipelineConfig":
        if path is None:
            cfg = cls()
            cfg.validate()
            return cfg
        return cls.from_dict(read_json(path))
