"""Source quality scoring and bias flagging.

quality = weighted sum of venue tier, log-scaled citation count, and an
affiliation-diversity term, clamped to [0,1]. Unknown fields contribute the
configured prior instead of failing: ragged metadata lowers quality toward
the prior, it never blocks ingestion.
"""

from __future__ import annotations

import math
from typing import Iterable

from ..config import CorpusConfig
from .model import SourceDocument, SourceScore


def _venue_component(venue: str | None, cfg: CorpusConfig) -> tuple[float, bool]:
    if not venue:
        return cfg.quality_prior, False
    tier = cfg.venue_tiers.get(venue.strip().lower())
    if tier is None:
        return cfg.quality_prior, False
    return tier, True


def _citation_component(count: int | None, cfg: CorpusConfig) -> tuple[float, bool]:
    if count is None:
        return cfg.quality_prior, False
    value = math.log1p(max(0, count)) / math.log1p(cfg.citation_saturation)
    return min(1.0, value), True


def _diversity_component(doc: SourceDocument, cfg: CorpusConfig) -> tuple[float, bool]:
    authors = doc.metadata.authors
    if not authors:
        return cfg.quality_prior, False
    affiliations = {aff.strip().lower() for _, aff in authors if aff.strip()}
    if not affiliations:
        return cfg.quality_prior, False
    return len(affiliations) / len(authors), True


def sells_chains(relations: Iterable[tuple[str, str, str]]) -> dict[str, set[str]]:
    """org -> names of products it sells plus what those products implement."""
    sells: dict[str, set[str]] = {}
    implements: dict[str, set[str]] = {}
    for subject, predicate, obj in relations:
        if predicate == "sells":
            sells.setdefault(subject.lower(), set()).add(obj)
        elif predicate == "implements":
            implements.setdefault(subject, set()).add(obj)
    chains: dict[str, set[str]] = {}
    for org, products in sells.items():
        names = set(products)
        for product in products:
            names.update(implements.get(product, ()))
        chains[org] = names
    return chains


def score_source(doc: SourceDocument, sells: dict[str, set[str]],
                 cfg: CorpusConfig) -> SourceScore:
    """`sells` is `sells_chains` of the run's relations, built once per run."""
    venue, venue_known = _venue_component(doc.metadata.venue, cfg)
    cites, cites_known = _citation_component(doc.metadata.citation_count, cfg)
    diversity, div_known = _diversity_component(doc, cfg)
    total_weight = (cfg.venue_weight + cfg.citation_weight
                    + cfg.diversity_weight)
    quality = (cfg.venue_weight * venue + cfg.citation_weight * cites
               + cfg.diversity_weight * diversity) / total_weight
    quality = min(1.0, max(0.0, quality))

    bias_flags: list[str] = []
    text = doc.full_text().lower()
    for org, commercial_names in sells.items():
        affiliated = any(org in aff.lower()
                         for _, aff in doc.metadata.authors)
        referenced = any(name.lower() in text for name in commercial_names)
        if affiliated and referenced:
            bias_flags.append("commercial-affiliation")
            break
    if not doc.metadata.disclosures and bias_flags:
        bias_flags.append("undisclosed-interest")

    unknown = [name for name, known in
               (("venue", venue_known), ("citations", cites_known),
                ("affiliations", div_known)) if not known]
    rationale = (f"venue={venue:.2f} citations={cites:.2f} "
                 f"diversity={diversity:.2f}")
    if unknown:
        rationale += f"; unknown fields at prior: {', '.join(unknown)}"
    return SourceScore(quality=quality, bias_flags=bias_flags,
                       rationale=rationale)
