"""Output checks applied to every benchmark run directory.

Each check returns a list of problems; an empty list means the run passed.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any


def dir_digest(root: Path, skip: str | None = None) -> str:
    """One hash over every file's relative path and bytes, leaving out the
    top-level entry named `skip`."""
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        if skip is not None and path.relative_to(root).parts[0] == skip:
            continue
        digest.update(str(path.relative_to(root)).encode("utf-8") + b"\0")
        digest.update(hashlib.sha256(path.read_bytes()).digest())
    return digest.hexdigest()


def _read_jsonl(path: Path) -> list[dict[str, Any]]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def check_golden(run_dir: Path) -> list[str]:
    """The paper's acceptance numbers: four matrix rows, the TRL 4-5 band,
    and consistency 0.30 for s1-target."""
    report = json.loads((run_dir / "report" / "assessment.json")
                        .read_text("utf-8"))
    problems = []
    if len(report["matrix"]) != 4:
        problems.append(f"matrix has {len(report['matrix'])} rows, want 4")
    maturity = report["maturity"] or {}
    band = (maturity.get("trl_low"), maturity.get("trl_high"))
    if band != (4, 5):
        problems.append(f"maturity band {band}, want (4, 5)")
    scores = [entry["consistency_score"]
              for entry in report["consistency"].values()
              if entry["slug"] == "s1-target"]
    if len(scores) != 1 or abs(scores[0] - 0.30) > 1e-9:
        problems.append(f"s1-target consistency {scores}, want 0.30")
    return problems


def check_bulk(run_dir: Path, oracle: dict[str, Any]) -> list[str]:
    """The generator's planted oracle holds in the stored run."""
    store = run_dir / "store"
    manifest = json.loads((run_dir / "manifest.json").read_text("utf-8"))
    slug_of = {r["doc_id"]: r["metadata"]["external_ids"].get("slug",
                                                              r["doc_id"])
               for r in _read_jsonl(store / "documents.jsonl")}
    doc_of = {slug: doc_id for doc_id, slug in slug_of.items()}
    claims = _read_jsonl(store / "claims.jsonl")
    key_of = {c["claim_id"]: f"{slug_of[c['doc_id']]}:{c['subject_name']}"
                             f"|{c['predicate']}" for c in claims}
    claim_of = {key: claim_id for claim_id, key in key_of.items()}
    problems = []

    if not (run_dir / "report" / "assessment.json").exists():
        problems.append("no report/assessment.json")
    seeds = sorted(slug_of.get(d, d) for d in manifest["seeds"])
    if seeds != sorted(oracle["seeds"]):
        problems.append(f"seeds {seeds} differ from the planted seeds")
    processed = sorted(slug_of.get(d, d) for d in manifest["docs_processed"])
    if processed != sorted(oracle["cluster"]):
        problems.append("processed documents differ from the cluster: "
                        f"{sorted(set(processed) ^ set(oracle['cluster']))}")
    if manifest["gaps"]:
        problems.append(f"budget gaps {manifest['gaps']}")
    citation_gaps = []
    for gap in manifest["citation_gaps"]:
        claim_id, _, cited = gap.partition(" -> ")
        citation_gaps.append(f"{key_of.get(claim_id, claim_id)} -> {cited}")
    if sorted(citation_gaps) != sorted(oracle["citation_gaps"]):
        problems.append(f"citation gaps {sorted(citation_gaps)} differ from "
                        f"{sorted(oracle['citation_gaps'])}")

    labels = {(r["claim_id"], r["counter_doc"]): r["label"]
              for r in _read_jsonl(store / "agreements.jsonl")}
    for want, planted in (("contradicts", oracle["contradictions"]),
                          ("misrepresents", oracle["misrepresents"])):
        for claim_key, counter_key, counter_slug in planted:
            got = labels.get((claim_of.get(claim_key),
                              doc_of.get(counter_slug)))
            if got != want:
                problems.append(f"{claim_key} vs {counter_key}: agreement "
                                f"{got}, want {want}")

    relations = {frozenset((a["claim_a"], a["claim_b"])): a["relation"]
                 for a in _read_jsonl(store / "alignments.jsonl")}
    for want, planted in (("matched", oracle["matched"]),
                          ("partially-overlapping", oracle["partial"])):
        for claim_key, counter_key in planted:
            pair = frozenset((claim_of.get(claim_key),
                              claim_of.get(counter_key)))
            if relations.get(pair) != want:
                problems.append(f"{claim_key} vs {counter_key}: alignment "
                                f"{relations.get(pair)}, want {want}")
    return problems
