"""Metric normalization and definitional comparison.

Quantities are converted to canonical units (time in seconds, speedups as
dimensionless ratios, counts as integers, frequency in Hz). Ranges are
first-class: a reported "0.2–2.2 s" stays a closed interval. Comparison of
two metrics checks whether their included/excluded overhead sets actually
measure the same thing, and flags asymmetric exclusions whose magnitude is
a significant fraction of the side's own total.
"""

from __future__ import annotations

import re

from ..config import KnowledgeConfig
from ..errors import UnitFamilyMismatch, UnparseableMetric
from .model import ComparabilityVerdict, MetricValue, OverheadEntry

# "µs" is spelled with the micro sign (U+00B5) or the Greek small letter mu
# (U+03BC), which NFKC normalization makes of the micro sign.
_TIME_UNITS = {
    "ns": 1e-9, "us": 1e-6, "\u00b5s": 1e-6, "\u03bcs": 1e-6, "ms": 1e-3,
    "s": 1.0, "sec": 1.0, "secs": 1.0, "second": 1.0, "seconds": 1.0,
    "min": 60.0, "minute": 60.0, "minutes": 60.0,
    "h": 3600.0, "hr": 3600.0, "hour": 3600.0, "hours": 3600.0,
}
_FREQ_UNITS = {"hz": 1.0, "khz": 1e3, "mhz": 1e6, "ghz": 1e9}
_RATIO_UNITS = {"x", "×", "fold", "speedup", "ratio"}
_COUNT_UNITS = {"count", "counts", "instances", "qubits", "iterations",
                "threads", "samples", "sweeps", "variables", "shots"}

_NUM = r"(\d+(?:\.\d+)?(?:e-?\d+)?)"
_UNIT = r"([a-z\u00b5\u03bc×]+)"
_RANGE = re.compile(rf"{_NUM}\s*[-–—]\s*{_NUM}\s*{_UNIT}", re.IGNORECASE)
_FACTOR = re.compile(rf"factor\s+of\s+{_NUM}", re.IGNORECASE)
_SINGLE = re.compile(rf"{_NUM}\s*{_UNIT}", re.IGNORECASE)
_BARE_RATIO = re.compile(rf"{_NUM}\s*[×x](?![a-z])", re.IGNORECASE)


def _convert(value: float, unit_token: str) -> tuple[float, str] | None:
    token = unit_token.lower()
    if token in _TIME_UNITS:
        return value * _TIME_UNITS[token], "s"
    if token in _FREQ_UNITS:
        return value * _FREQ_UNITS[token], "Hz"
    if token in _RATIO_UNITS:
        return value, "ratio"
    if token in _COUNT_UNITS:
        return float(int(value)), "count"
    return None


def _methodology_tags(raw: str, methodology: str) -> str:
    tags = []
    lowered = raw.lower()
    if re.search(r"\bup to\b|\bbest\b|\bmaximum\b|\bpeak\b", lowered):
        tags.append("extreme-value")
    if re.search(r">|\bat least\b|\bmore than\b|\bover\b", lowered):
        tags.append("lower-bound")
    parts = [methodology] if methodology else []
    parts.extend(t for t in tags if t not in methodology)
    return "; ".join(parts)


def normalize_metric(raw: str, methodology: str = "") -> MetricValue:
    """Parse a quantity-unit expression into a canonical MetricValue."""
    text = raw.strip()
    if not text:
        raise UnparseableMetric("empty metric text")

    match = _RANGE.search(text)
    if match:
        low, high, unit = match.groups()
        converted_low = _convert(float(low), unit)
        converted_high = _convert(float(high), unit)
        if converted_low and converted_high:
            return MetricValue(
                quantity=(converted_low[0], converted_high[0]),
                unit=converted_low[1], raw_text=raw,
                methodology=_methodology_tags(raw, methodology))

    match = _FACTOR.search(text)
    if match:
        return MetricValue(quantity=float(match.group(1)), unit="ratio",
                           raw_text=raw,
                           methodology=_methodology_tags(raw, methodology))

    for match in _SINGLE.finditer(text):
        converted = _convert(float(match.group(1)), match.group(2))
        if converted:
            return MetricValue(quantity=converted[0], unit=converted[1],
                               raw_text=raw,
                               methodology=_methodology_tags(raw, methodology))

    match = _BARE_RATIO.search(text)
    if match:
        return MetricValue(quantity=float(match.group(1)), unit="ratio",
                           raw_text=raw,
                           methodology=_methodology_tags(raw, methodology))

    raise UnparseableMetric(f"no quantity-unit pair found in {raw!r}")


def _format_quantity(value: float, unit: str) -> str:
    if unit == "count":
        return str(int(value))
    return str(value)


def render_metric(metric: MetricValue) -> str:
    """Canonical text for a metric; normalize(render(m)) round-trips the
    quantity-unit core."""
    unit_token = {"s": "s", "ratio": "x", "count": "count", "Hz": "Hz"}[metric.unit]
    if metric.is_interval:
        low, high = metric.quantity
        return (f"{_format_quantity(low, metric.unit)}–"
                f"{_format_quantity(high, metric.unit)} {unit_token}")
    return f"{_format_quantity(metric.quantity, metric.unit)} {unit_token}"


def _overhead_label(entry: OverheadEntry) -> str:
    if entry.quantity is None:
        return entry.name
    return f"{entry.name} (~{entry.quantity} {entry.unit or ''})".replace(" )", ")")


def _significant_exclusions(metric: MetricValue,
                            fraction: float) -> list[OverheadEntry]:
    total = metric.upper
    if total <= 0:
        return []
    return [entry for entry in metric.excluded_overheads
            if entry.quantity is not None
            and (entry.unit or metric.unit) == metric.unit
            and entry.quantity >= fraction * total]


def compare_metric_definitions(a: MetricValue, b: MetricValue,
                               cfg: KnowledgeConfig) -> ComparabilityVerdict:
    if a.unit != b.unit:
        raise UnitFamilyMismatch(
            f"cannot compare {a.unit!r} against {b.unit!r}")

    included_a = {s.strip().lower() for s in a.included_overheads}
    included_b = {s.strip().lower() for s in b.included_overheads}
    excluded_a = {e.name.strip().lower(): e for e in a.excluded_overheads}
    excluded_b = {e.name.strip().lower(): e for e in b.excluded_overheads}

    discrepancies: list[str] = []
    for name in sorted(included_a ^ included_b):
        discrepancies.append(f"inclusion mismatch: {name}")
    for name in sorted(set(excluded_a) ^ set(excluded_b)):
        entry = excluded_a.get(name) or excluded_b[name]
        discrepancies.append(f"exclusion mismatch: {_overhead_label(entry)}")

    comparable = not discrepancies

    notes: list[str] = []
    for metric in (a, b):
        for entry in _significant_exclusions(metric, cfg.asymmetry_fraction):
            notes.append(
                f"excluded {_overhead_label(entry)} is comparable to that "
                f"side's total of {render_metric(metric)}; including it "
                f"would materially change the comparison")
    asymmetry_note = "; ".join(notes) if notes else None

    return ComparabilityVerdict(comparable=comparable,
                                discrepancies=discrepancies,
                                asymmetry_note=asymmetry_note)
