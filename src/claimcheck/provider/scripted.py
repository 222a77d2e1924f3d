"""Playbook-driven provider.

Answers inference tasks from a JSON playbook of matcher rules keyed by
stable semantic handles (document slug, subject|predicate), with sensible
defaults for everything unlisted. This is the offline stand-in for a live
model: fully deterministic, so a recorded scripted run replays byte-for-byte.

Playbook selectors:
  document kinds        -> "<slug>"
  claim kinds           -> "<slug>:<subject>|<predicate>"
  pair kinds            -> the two claim keys, sorted, joined with " & "
  citation-fidelity     -> "<citing key> -> <cited slug>"
  rubric                -> "<rubric slug>:<cluster subject>"
  describe-asset        -> "<slug>:<caption prefix>"
  nli-verdict           -> ordered rule list with `passage_contains` matching
"""

from __future__ import annotations

from pathlib import Path
from typing import Any

from ..errors import ClaimcheckError
from ..jsonl import read_json
from .embedder import embed_text
from .tasks import InferenceTask, claim_key, pair_key


class ScriptedProvider:
    deterministic = True

    def __init__(self, playbook: dict[str, Any]):
        self.playbook = playbook

    @classmethod
    def from_path(cls, path: Path) -> "ScriptedProvider":
        playbook = read_json(path)
        if not isinstance(playbook, dict):
            raise ClaimcheckError(f"playbook {path} must be a JSON object")
        return cls(playbook)

    def _section(self, kind: str) -> dict[str, Any]:
        return self.playbook.get(kind, {})

    def complete(self, task: InferenceTask, provider_tag: str,
                 sample_index: int) -> dict[str, Any]:
        payload = task.payload
        kind = task.kind
        section = self._section(kind)

        if kind == "embed":
            return {"vector": embed_text(payload["text"], payload["dim"]),
                    "model_tag": payload["model_tag"]}

        if kind == "extract-entities":
            return section.get(payload["doc"]["slug"], {"entities": []})

        if kind == "extract-claims":
            return section.get(payload["doc"]["slug"], {"claims": []})

        if kind == "classify-provenance":
            key = claim_key(payload["claim"])
            hit = section.get(key, section.get("*", {"level": 5}))
            return hit

        if kind == "nli-verdict":
            key = claim_key(payload["claim"])
            text = payload["passage"]["text"].lower()
            for rule in section.get("rules", []):
                if rule["claim"] != key:
                    continue
                if rule["passage_contains"].lower() in text:
                    return {"label": rule["label"],
                            "rationale": rule.get("rationale", "")}
            return dict(section.get("default", {"label": "neutral",
                                                "rationale": "no bearing"}))

        if kind == "coherence":
            return section.get(payload["doc"]["slug"], {"flags": []})

        if kind == "overclaim":
            return section.get(payload["doc"]["slug"], {"annotations": []})

        if kind == "align-claims":
            key = pair_key(payload["a"], payload["b"])
            return dict(section.get(key, section.get("*", {
                "relation": "unrelated", "stance": "not-applicable",
                "rationale": "no shared proposition"})))

        if kind == "citation-fidelity":
            key = f"{claim_key(payload['citing'])} -> {payload['cited_doc']}"
            return dict(section.get(key, section.get("*", {
                "faithful": True, "distortion_note": None})))

        if kind == "root-cause":
            key = pair_key(payload["a"], payload["b"])
            return dict(section.get(key, section.get("*", {
                "category": "other",
                "explanation": "disagreement cause not determined"})))

        if kind == "rubric":
            cluster_subject = payload["cluster_subject"]
            key = f"{payload['rubric_doc']}:{cluster_subject}"
            hit = section.get(key)
            if hit is not None:
                return dict(hit)
            return {"criteria": [
                {"name": name, "met": "partial",
                 "note": "insufficient evidence to grade"}
                for name in payload["criteria"]]}

        if kind == "describe-asset":
            caption = payload["asset"]["caption"]
            key = f"{payload['doc']}:{caption[:40]}"
            hit = section.get(key)
            if hit is not None:
                return dict(hit)
            return {"description": f"{payload['asset']['kind']} showing {caption}",
                    "trends": []}

        if kind == "hypothesize":
            key = payload["profile"]["claim"]
            rule = section.get(key)
            if rule is None:
                return {"statement": None, "conclusion": None}
            conclusions = rule.get("conclusions", {})
            per_tag = conclusions.get(provider_tag, [])
            if sample_index < len(per_tag):
                conclusion = per_tag[sample_index]
            else:
                conclusion = per_tag[-1] if per_tag else rule.get("conclusion")
            return {"statement": rule["statement"], "conclusion": conclusion}

        if kind == "counter-hypothesize":
            rule = section.get(payload["claim"])
            if rule is not None:
                return {"statement": rule["statement"]}
            return {"statement": "an alternative mechanism produces the "
                                 "same observations"}

        raise ValueError(f"scripted provider cannot answer kind {kind!r}")
