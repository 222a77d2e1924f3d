"""Assessment report rendering: machine-readable and narrative outputs.

Every number in the narrative carries the id of the stored record it came
from, so an analyst can walk any figure back to its evidence. Rendering is
a deterministic fold over sorted inputs: identical run directories render
identical bytes.
"""

from __future__ import annotations

from typing import Any

from .assess import AlphaSignal, HypothesisRow, MaturityAssessment
from .ids import encode_sorted
from .records import to_record


def machine_report(query: str, matrix: list[HypothesisRow],
                   maturity: MaturityAssessment | None,
                   alphas: list[AlphaSignal],
                   consistency: dict[str, dict[str, Any]],
                   independence: list[dict[str, Any]],
                   config_snapshot: dict[str, Any],
                   run_id: str) -> dict[str, Any]:
    return {
        "schema": "assessment@1",
        "run_id": run_id,
        "query": query,
        "matrix": [to_record(row) for row in matrix],
        "maturity": None if maturity is None else to_record(maturity),
        "alpha_signals": [to_record(a) for a in alphas],
        "consistency": consistency,
        "independence": independence,
        "config": config_snapshot,
    }


def narrative_report(report: dict[str, Any]) -> str:
    lines: list[str] = []
    lines.append("# Assessment report")
    lines.append(f"run: {report['run_id']}")
    lines.append(f"query: {report['query']}")
    lines.append("")

    lines.append("## Hypothesis matrix")
    matrix = report["matrix"]
    if not matrix:
        lines.append("No hypotheses were generated for this run.")
    for row in matrix:
        hyp = row["hypothesis"]
        lines.append(f"- {hyp['statement']}  [{hyp['hypothesis_id']}]")
        lines.append(f"  cross-source: {row['cross_source']}; "
                     f"entropy {row['entropy']} with "
                     f"{row['model_agreement'][0]}/{row['model_agreement'][1]} "
                     f"model agreement -> confidence {row['confidence']}")
        for alt in row["alternatives"]:
            lines.append(f"  alternative: {alt['statement']}  "
                         f"[{alt['hypothesis_id']}]")
        lines.append(f"  status: {row['status']}")
    lines.append("")

    maturity = report["maturity"]
    lines.append("## Technology maturity")
    if maturity is None:
        lines.append("Not assessed (no evidence profiles).")
    else:
        lines.append(f"TRL {maturity['trl_low']}-{maturity['trl_high']}: "
                     f"{maturity['rationale']}")
    lines.append("")

    lines.append("## Alpha signals")
    if not report["alpha_signals"]:
        lines.append("None: no claim shows positive convergence across all "
                     "pipeline layers.")
    for alpha in report["alpha_signals"]:
        lines.append(f"- {alpha['claim_id']}: {alpha['note']} "
                     f"({', '.join(alpha['dimensions_converging'])})")
    lines.append("")

    lines.append("## Internal consistency by document")
    for doc_id in sorted(report["consistency"]):
        row = report["consistency"][doc_id]
        lines.append(f"- {row['slug']}: score {row['consistency_score']} "
                     f"({row['counts']['supports']} of {row['claims']} "
                     f"supported)  [consistency:{doc_id}]")
    lines.append("")

    lines.append("## Source independence")
    for row in report["independence"]:
        pair = " vs ".join(row["pair_slugs"])
        lines.append(f"- {pair}: {row['rating']} "
                     f"(author overlap {row['author_jaccard']}, "
                     f"weight {row['weight']})")
    lines.append("")
    return "\n".join(lines) + "\n"


def render_report(report: dict[str, Any], fmt: str = "machine") -> str:
    if fmt == "machine":
        return encode_sorted(report) + "\n"
    if fmt == "narrative":
        return narrative_report(report)
    raise ValueError(f"unknown report format {fmt!r}")
