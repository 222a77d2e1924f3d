"""Seeded generator for the bulk-corpus benchmark workload.

Writes, in the style of scripts/build_fixtures.py:

- ``corpus/``: 400 documents. A topical cluster of 41 documents is split
  into ten threads, each built around one algorithm: two seed documents whose
  abstracts answer the benchmark query, and one to three documents (a
  rebuttal, a benchmark, a follow-up) that layer 4 discovers through entity
  names and citations; plus one evaluation framework. The rest are
  background documents that share no entity name with the cluster. A share
  of the documents are ``.txt`` and ``.html`` files with ``.meta.json``
  sidecars, so every ingest path runs.
- two relation files with a few thousand rows, some of them present in both;
- ``playbook.json``: the scripted-provider answers for the cluster;
- ``oracle.json``: what a correct run must contain (planted seeds, matched,
  partially-overlapping, contradicting and misrepresenting claim pairs, and
  citation gaps).

The same seed gives the same bytes. The seed picks names, wording, dates
and which threads and claims carry each planted feature, never how many, so
every seed costs the same number of provider calls. Nothing here imports
claimcheck.

Usage:  python3 bench/corpus_gen.py --seed 1 --out /tmp/bulk
"""

from __future__ import annotations

import argparse
import json
import random
from pathlib import Path
from typing import Any

QUERY = ("Do hybrid annealing heuristics deliver verified speedups on fleet "
         "routing benchmarks?")

N_DOCUMENTS = 400
N_THREADS = 10
N_BACKGROUND_ENTITY_ROWS = 900
N_BACKGROUND_FINANCIAL_ROWS = 260
N_BACKGROUND_LAUNCH_ROWS = 80
N_DUPLICATED_ROWS = 350

# Cluster names are built from these syllables and background names from a
# disjoint set, so no cluster entity name can occur in a background text.
_CLUSTER_SYLLABLES = ["vor", "plex", "quan", "tir", "zel", "mor", "dax", "kel",
                      "rin", "sov", "bren", "thal", "yor", "wex", "jun", "cal",
                      "pyr", "nox", "gav", "lum"]
_BACKGROUND_SYLLABLES = ["amba", "bedo", "cima", "dulo", "efra", "gosi", "hani",
                         "ilvo", "jesa", "kubo", "lenu", "mapi", "nesu", "obra",
                         "peku", "rasi", "sulo", "teba", "ushi", "vena"]
_FIRST_NAMES = ["Ana", "Bruno", "Chiara", "Dmitri", "Elif", "Farah", "Goran",
                "Hana", "Ivo", "Jonas", "Keiko", "Lars", "Mira", "Nikos",
                "Olga", "Pavel", "Rosa", "Samir", "Tova", "Umar"]

# Background prose avoids every query word, so no background abstract can
# outrank a seed abstract in query-based seed selection.
_BG_SUBJECTS = ["The coastal survey", "This field study", "The archive review",
                "A soil sampling campaign", "The choir festival report",
                "This pottery catalogue", "The glacier transect",
                "A textile ledger", "The orchard census", "This tidal record"]
_BG_VERBS = ["documents", "compares", "catalogues", "revisits", "summarises",
             "describes", "maps", "tabulates"]
_BG_OBJECTS = ["seasonal moss growth", "medieval grain prices",
               "river sediment layers", "migratory heron counts",
               "glaze recipes of the northern kilns", "wool dye batches",
               "spring frost dates", "harbour toll receipts",
               "lichen cover near the ridge", "parish baptism rolls"]
_BG_TAILS = ["across three decades", "from two regional collections",
             "with notes from local keepers", "in the upland valleys",
             "over one wet summer", "from restored ledgers"]
_BG_SOURCE_TYPES = ["paper", "patent", "press", "filing", "profile"]

_CAPEX = ["fabrication facility expansion", "manufacturing equipment",
          "datacenter hardware"]
_OPEX = ["cloud subscription fees", "staff expansion", "software licensing"]
_ROOT_CAUSES = ["methodological-difference", "baseline-selection",
                "differing-benchmark-datasets", "statistical-sampling",
                "incompatible-experimental-conditions"]

# (predicate, object, metric template or None); "{n}" is a number. Every
# seed document states the same phrases, so each seed claim has at least ten
# close matches in the cluster: layer 4's top-8 semantic search then never
# reaches a background document.
_VENDOR_STATEMENTS = [
    ("outperforms", "the greedy insertion baseline", "{n}x"),
]
_STUDY_STATEMENTS = [
    ("matches", "exact solver tour quality", None),
]
_COUNTER_STATEMENTS = [
    ("shows-runtime", "{n} s end to end", "{n} s"),
    ("loses-advantage-under", "instance-averaged evaluation", None),
    ("trails", "tuned tabu search", None),
    ("confirms", "the reported tour savings", None),
    ("relies-on", "classical post-processing", None),
    ("attributes-gain-to", "preprocessing heuristics", None),
]
_ROLE_SOURCE_TYPE = {"rebuttal": "rebuttal", "benchmark": "benchmark",
                     "follow-up": "paper"}


def _key(slug: str, subject: str, predicate: str) -> str:
    return f"{slug}:{subject}|{predicate}"


def _pair(a: str, b: str) -> str:
    return " & ".join(sorted((a, b)))


class _Names:
    """Unique made-up words; none is a substring of another."""

    def __init__(self, rng: random.Random, syllables: list[str], parts: int):
        self._rng = rng
        self._syllables = syllables
        self._parts = parts
        self._used: list[str] = []

    def word(self) -> str:
        for _ in range(1000):
            word = "".join(self._rng.sample(self._syllables, self._parts))
            if all(word not in u and u not in word for u in self._used):
                self._used.append(word)
                return word
        raise RuntimeError("name pool exhausted")

    def person(self) -> str:
        return f"{self._rng.choice(_FIRST_NAMES)} {self.word().capitalize()}"


def _manifest(slug: str, source_type: str, title: str,
              authors: list[tuple[str, str]], date: str, venue: str,
              citations: int, sections: list[tuple[str, list[str]]],
              assets: list[dict[str, Any]] | None = None,
              disclosures: list[str] | None = None) -> dict[str, Any]:
    return {
        "manifest_kind": "document",
        "slug": slug,
        "source_type": source_type,
        "title": title,
        "metadata": {
            "authors": [{"name": n, "affiliation": a} for n, a in authors],
            "publication_date": date,
            "venue": venue,
            "citation_count": citations,
            "external_ids": {"slug": slug},
            "disclosures": disclosures or [],
        },
        "sections": [{"heading": h, "level": 1, "passages": ps}
                     for h, ps in sections],
        "assets": assets or [],
    }


def _sidecar(doc: dict[str, Any]) -> dict[str, Any]:
    meta = doc["metadata"]
    return {"authors": [[a["name"], a["affiliation"]] for a in meta["authors"]],
            "publication_date": meta["publication_date"],
            "venue": meta["venue"],
            "citation_count": meta["citation_count"],
            "external_ids": {"slug": doc["slug"]},
            "disclosures": meta["disclosures"]}


def _as_text(doc: dict[str, Any]) -> str:
    """Plain-text rendering that ingest splits into the same sections."""
    lines = [doc["title"], ""]
    for index, section in enumerate(doc["sections"], start=1):
        lines.append(f"{index} {section['heading']}")
        for passage in section["passages"]:
            lines.extend([passage, ""])
    return "\n".join(lines)


def _as_html(doc: dict[str, Any]) -> str:
    parts = [f"<html><head><title>{doc['title']}</title></head><body>"]
    for section in doc["sections"]:
        parts.append(f"<h2>{section['heading']}</h2>")
        parts.extend(f"<p>{p}</p>" for p in section["passages"])
    parts.append("</body></html>")
    return "\n".join(parts)


def _date(rng: random.Random, year_low: int, year_high: int) -> str:
    return (f"{rng.randint(year_low, year_high)}-{rng.randint(1, 12):02d}-"
            f"{rng.randint(1, 28):02d}")


class _Claim:
    def __init__(self, slug: str, subject: str, predicate: str, obj: str,
                 passage: list[int], *, entity: bool = False,
                 metric: str | None = None, level: int = 1,
                 cites: str | None = None):
        self.slug = slug
        self.subject = subject
        self.predicate = predicate
        self.object = obj
        self.passage = passage
        self.entity = entity
        self.metric = metric
        self.level = level
        self.cites = cites

    @property
    def key(self) -> str:
        return _key(self.slug, self.subject, self.predicate)

    def row(self) -> dict[str, Any]:
        row: dict[str, Any] = {"subject": self.subject,
                               "predicate": self.predicate,
                               "object": self.object,
                               "object_is_entity": self.entity,
                               "passages": [self.passage]}
        if self.metric:
            row["metric_text"] = self.metric
            row["methodology"] = "per-instance wall-clock"
        if self.cites:
            row["cited_refs"] = [f"doc:{self.cites}"]
        return row


class _Generator:
    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.names = _Names(self.rng, _CLUSTER_SYLLABLES, 2)
        self.bg_names = _Names(self.rng, _BACKGROUND_SYLLABLES, 3)
        # every vendor runs on one shared board, so its supply chain and the
        # executed-on claims connect the threads
        self.board = f"{self.names.word().capitalize()} Board"
        self.mesh = f"{self.names.word()} mesh"
        self.fab = f"{self.names.word().capitalize()} Fabrication"
        self.documents: list[tuple[dict[str, Any], str]] = []  # (doc, format)
        self.cluster_rows: list[dict[str, Any]] = [
            {"subject": self.board, "subject_kind": "hardware",
             "relation": "topology", "object": self.mesh,
             "object_kind": "hardware", "source": "registry"},
            {"subject": self.mesh, "subject_kind": "hardware",
             "relation": "manufactured-by", "object": self.fab,
             "object_kind": "organization", "source": "registry"},
            {"subject": self.fab, "subject_kind": "organization",
             "relation": "provides", "object": self.board,
             "object_kind": "hardware", "source": "registry"}]
        self.cluster_names = [self.board, self.mesh, self.fab]
        self.playbook: dict[str, Any] = {
            kind: {} for kind in (
                "extract-entities", "extract-claims", "classify-provenance",
                "coherence", "overclaim", "align-claims", "citation-fidelity",
                "root-cause", "hypothesize", "counter-hypothesize")}
        self.playbook["nli-verdict"] = {
            "rules": [], "default": {"label": "neutral",
                                     "rationale": "no bearing"}}
        self.oracle: dict[str, Any] = {
            "query": QUERY, "seeds": [], "cluster": [], "contradictions": [],
            "matched": [], "partial": [], "misrepresents": [],
            "citation_gaps": []}

    # --- cluster ---------------------------------------------------------------

    def _add_cluster_doc(self, doc: dict[str, Any], fmt: str,
                         entities: list[tuple[str, str]],
                         claims: list[_Claim]) -> None:
        slug = doc["slug"]
        self.documents.append((doc, fmt))
        self.oracle["cluster"].append(slug)
        self.playbook["extract-entities"][slug] = {"entities": [
            {"name": n, "kind": k, "aliases": []} for n, k in entities]}
        self.playbook["extract-claims"][slug] = {
            "claims": [c.row() for c in claims]}
        nli = self.playbook["nli-verdict"]["rules"]
        for claim in claims:
            self.playbook["classify-provenance"][claim.key] = {
                "level": claim.level}
            si, pi = claim.passage
            marker = doc["sections"][si]["passages"][pi].split("(")[-1]
            nli.append({"claim": claim.key,
                        "passage_contains": marker.rstrip(").").lower(),
                        "label": "supports", "rationale": "stated result"})

    def _thread(self, t: int, plan: dict[str, Any]) -> None:
        rng = self.rng
        word = self.names.word
        algo = f"{word().capitalize()}-Opt"
        org = f"{word().capitalize()} Dynamics"
        product = f"{word().capitalize()} Route Engine"
        rival = f"{word().capitalize()} Logistics"
        university = f"{word().capitalize()} Institute"
        founder = self.names.person()
        staff = self.names.person()
        outsiders = [self.names.person() for _ in range(3)]
        self.cluster_names += [algo, org, product, rival, university]
        board = self.board
        entities = [(algo, "algorithm"), (org, "organization"),
                    (board, "hardware")]

        stem = algo.split("-")[0].lower()
        vendor_slug = f"t{t:02d}-vendor-{stem}"
        indep_slug = f"t{t:02d}-study-{stem}"
        roles = plan["roles"]
        counter_slugs = [f"t{t:02d}-{role}-{stem}" for role in roles]

        def statements(slug: str, rows, section: int,
                       level=lambda: 1) -> tuple[list[_Claim], list[str]]:
            claims, texts = [], []
            for i, (pred, obj, metric) in enumerate(rows):
                n = rng.choice([2, 3, 4, 5, 6, 8, 12, 40, 60, 120])
                metric = metric.format(n=n) if metric else None
                claims.append(_Claim(slug, algo, pred, obj.format(n=n),
                                     [section, i], metric=metric,
                                     level=level()))
                texts.append(f"{algo} {pred} {obj.format(n=n)}"
                             + (f" by {metric}" if metric else "")
                             + f" (finding {i + 1}).")
            return claims, texts

        # seed 1: the vendor paper, the only one with a methods section. Its
        # methods passage states the executed-on claim and nothing else, so
        # the ten vendor passages share most of that claim's embedding
        # features and rank far above a short background text (an asset
        # description) that shares one or two of them by hash collision.
        vendor_claims, texts = statements(vendor_slug, _VENDOR_STATEMENTS, 2)
        vendor_claims.append(_Claim(vendor_slug, algo, "executed-on", board,
                                    [1, 0], entity=True))
        vendor_doc = _manifest(
            vendor_slug, "paper", f"{algo}: production results from {org}",
            [(founder, f"{org} GmbH"), (staff, f"{org} GmbH")],
            _date(rng, 2022, 2023), "arxiv", rng.randint(5, 90),
            [("Abstract", [f"We examine whether hybrid annealing heuristics "
                           f"deliver verified speedups on fleet routing "
                           f"benchmarks, using {algo} from {org}."]),
             ("Methods", [f"{algo} executed-on {board} (finding 0)."]),
             ("Results", texts)],
            assets=[{"kind": "plot",
                     "caption": f"Runtime of {algo} against instance size",
                     "inline_refs": [[2, 0]], "section": 2}])
        self._add_cluster_doc(vendor_doc, "json", entities + [
            (product, "product")], vendor_claims)
        self.playbook["coherence"][vendor_slug] = {"flags": [
            {"dimension": "baseline-fairness", "severity": "moderate",
             "note": "baseline limited to a single greedy heuristic"}]}

        # seed 2: the independent study. Its citing claim points at the
        # vendor paper or, as a planted citation gap, at a missing document.
        indep_claims, texts = statements(indep_slug, _STUDY_STATEMENTS, 1,
                                         lambda: rng.choice([1, 2]))
        cited = (f"t{t:02d}-withdrawn-preprint" if plan["missing_citation"]
                 else vendor_slug)
        i = len(indep_claims)
        indep_claims.append(_Claim(indep_slug, algo, "reportedly-achieves",
                                   "the vendor tour savings", [1, i],
                                   level=4, cites=cited))
        texts.append(f"{algo} reportedly-achieves the vendor tour savings "
                     f"(finding {i + 1}).")
        if cited == vendor_slug:
            self.playbook["citation-fidelity"][
                f"{indep_claims[-1].key} -> {cited}"] = {
                    "faithful": True, "distortion_note": None}
        else:
            self.oracle["citation_gaps"].append(
                f"{indep_claims[-1].key} -> {cited}")
        indep_doc = _manifest(
            indep_slug, "paper", f"An independent look at {algo}",
            [(o, university) for o in outsiders[:2]],
            _date(rng, 2023, 2024), rng.choice(["conference", "journal"]),
            rng.randint(0, 40),
            [("Abstract", [f"Do hybrid annealing heuristics deliver verified "
                           f"speedups on fleet routing benchmarks? We test "
                           f"{algo}."]),
             ("Results", texts)])
        self._add_cluster_doc(indep_doc, plan["study_format"], entities,
                              indep_claims)
        self.oracle["seeds"] += [vendor_slug, indep_slug]
        self.cluster_rows += [
            {"subject": f"doc:{indep_slug}", "relation": "cites",
             "object": f"doc:{vendor_slug}"},
            {"subject": university, "subject_kind": "organization",
             "relation": "evaluates", "object": algo,
             "object_kind": "algorithm", "source": f"doc:{indep_slug}"}]

        # documents that layer 4 discovers through the algorithm's name
        counter_claims: dict[str, list[_Claim]] = {}
        for role, slug in zip(roles, counter_slugs):
            claims, texts = statements(slug, rng.sample(_COUNTER_STATEMENTS, 2),
                                       1)
            if role == "follow-up":
                claims.append(_Claim(slug, algo, "restates", "the vendor "
                                     "speedup figures", [1, 2], level=4,
                                     cites=vendor_slug))
                texts.append(f"{algo} restates the vendor speedup figures "
                             f"(finding 3).")
                authors = [(staff, f"{org} GmbH"), (outsiders[2], university)]
            elif role == "benchmark":
                authors = [(self.names.person(), f"{rival} Ltd")]
            else:
                authors = [(self.names.person(), university),
                           (self.names.person(), university)]
            doc = _manifest(
                slug, _ROLE_SOURCE_TYPE[role], f"{algo} revisited: {role}",
                authors, _date(rng, 2024, 2025), "workshop",
                rng.randint(0, 20),
                [("Abstract", [f"{algo} is re-examined in this {role} with "
                               f"fresh experiments."]),
                 ("Results", texts)])
            # txt and html ingest as papers, so only follow-ups vary format
            fmt = plan["follow_up_format"] if role == "follow-up" else "json"
            self._add_cluster_doc(doc, fmt, [(algo, "algorithm")], claims)
            counter_claims[role] = claims
            self.cluster_rows.append({"subject": f"doc:{slug}",
                                      "relation": "cites",
                                      "object": f"doc:{vendor_slug}"})

        self._plant(t, plan, vendor_claims, indep_claims, counter_claims,
                    vendor_slug)

        amount = float(rng.randint(2, 40) * 500000)
        self.cluster_rows += [
            {"subject": founder, "subject_kind": "researcher",
             "relation": "co-founded", "object": org,
             "object_kind": "organization", "source": "registry"},
            {"subject": org, "subject_kind": "organization",
             "relation": "sells", "object": product,
             "object_kind": "product", "source": "registry"},
            {"subject": product, "subject_kind": "product",
             "relation": "implements", "object": algo,
             "object_kind": "algorithm", "source": "registry"},
            {"subject": algo, "subject_kind": "algorithm",
             "relation": "requires", "object": board,
             "object_kind": "hardware", "source": f"doc:{vendor_slug}"},
            {"subject": rival, "subject_kind": "organization",
             "relation": "competes-with", "object": org,
             "object_kind": "organization", "source": "registry"},
            {"subject": org, "subject_kind": "organization",
             "relation": "raised-funding", "object": "series A",
             "date": _date(rng, 2021, 2023),
             "amount": {"value": amount, "currency": "EUR"},
             "description": "disclosed funding round",
             "source": "press:funding"},
            {"subject": org, "subject_kind": "organization",
             "relation": "spent-on", "object": "equipment",
             "date": _date(rng, 2023, 2024),
             "amount": {"value": amount / 4, "currency": "EUR"},
             "description": rng.choice(_CAPEX), "source": "filing:annual"},
            {"subject": org, "subject_kind": "organization",
             "relation": "spent-on", "object": "services",
             "date": _date(rng, 2023, 2024),
             "amount": {"value": amount / 5, "currency": "EUR"},
             "description": rng.choice(_OPEX), "source": "filing:annual"},
            {"subject": org, "subject_kind": "organization",
             "relation": "launched", "object": product,
             "object_kind": "product", "date": _date(rng, 2024, 2024),
             "description": "product listed on a cloud marketplace",
             "source": "press:launch"},
        ]
        if "follow-up" in roles:
            self.cluster_rows.append(
                {"subject": org, "subject_kind": "organization",
                 "relation": "reframed-position", "object": algo,
                 "object_kind": "algorithm", "date": _date(rng, 2025, 2025),
                 "description": "speedup language softened",
                 "source": f"doc:{counter_slugs[roles.index('follow-up')]}"})

    def _plant(self, t: int, plan: dict[str, Any],
               vendor_claims: list[_Claim],
               indep_claims: list[_Claim],
               counter_claims: dict[str, list[_Claim]],
               vendor_slug: str) -> None:
        """Choose this thread's planted pairs and script their answers."""
        rng = self.rng
        align = self.playbook["align-claims"]
        headline = vendor_claims[:-1]          # without executed-on
        focus = headline + indep_claims
        rebuttal = counter_claims["rebuttal"]
        benchmark = counter_claims.get("benchmark", [])
        used: set[str] = set()

        def put(a: _Claim, b: _Claim, relation: str, stance: str) -> str:
            key = _pair(a.key, b.key)
            used.add(key)
            align[key] = {"relation": relation, "stance": stance,
                          "rationale": f"planted {relation} ({stance})"}
            return key

        # contradictions: a vendor claim against the rebuttal, and another
        # seed claim against the benchmark where there is one (distinct, so
        # the number of contested claims is fixed)
        first = rng.choice(headline)
        contradicting = [(first, rng.choice(rebuttal))]
        if benchmark:
            second = rng.choice([c for c in focus if c is not first])
            contradicting.append((second, rng.choice(benchmark)))
        for f, g in contradicting:
            key = put(f, g, "matched", "disagrees")
            self.playbook["root-cause"][key] = {
                "category": rng.choice(_ROOT_CAUSES),
                "explanation": f"planted disagreement in thread {t}"}
            self.oracle["contradictions"].append([f.key, g.key, g.slug])

        # corroboration between the two seeds
        f = rng.choice(headline)
        g = rng.choice(indep_claims[:-1])
        put(f, g, "matched", "agrees")
        self.oracle["matched"].append([f.key, g.key])

        # partial overlap with a discovered document
        f, g = rng.choice([(f, g) for f in focus for g in rebuttal + benchmark
                           if _pair(f.key, g.key) not in used])
        put(f, g, "partially-overlapping", "agrees")
        self.oracle["partial"].append([f.key, g.key])

        # the follow-up restates a vendor result: misrepresented in some
        # threads, faithfully cited in the others
        if "follow-up" in counter_claims:
            g = counter_claims["follow-up"][-1]
            f = rng.choice(headline)
            faithful = not plan["misrepresents"]
            put(f, g, "matched", "agrees")
            self.oracle["matched"].append([f.key, g.key])
            self.playbook["citation-fidelity"][f"{g.key} -> {vendor_slug}"] = {
                "faithful": faithful,
                "distortion_note": None if faithful else
                "drops the selected-instances qualifier"}
            if not faithful:
                self.oracle["misrepresents"].append([f.key, g.key, g.slug])

        # hypothesis rules for the vendor's headline claim
        if plan["hypothesis"]:
            claim = headline[0]
            verdicts = ["speedup-genuine", "baseline-artifact",
                        "measurement-artifact"]
            self.playbook["hypothesize"][claim.key] = {
                "statement": f"{claim.subject} delivers a real speedup",
                "conclusions": {
                    tag: [rng.choice(verdicts)]
                    for tag in ("analyst-a", "analyst-b", "analyst-c")}}
            self.playbook["counter-hypothesize"][claim.key] = {
                "statement": "the speedup comes from the classical stages"}
        # an overclaim annotation on one vendor claim
        if plan["overclaim"]:
            claim = headline[-1]
            self.playbook["overclaim"][claim.slug] = {"annotations": [{
                "subject": claim.subject, "predicate": claim.predicate,
                "issue": "extreme-value-reporting", "severity": "moderate",
                "claim_text": f"{claim.predicate} {claim.object}",
                "evidence_text": "largest instance only"}]}

    def _rubric_doc(self, algo: str) -> None:
        slug = "eval-routing-criteria"
        doc = _manifest(
            slug, "evaluation-framework",
            "Criteria for credible routing speedup claims",
            [(self.names.person(), "Center for Solver Assessment")],
            "2025-02-01", "journal", 17,
            [("Overview", [f"Five properties a speedup claim such as the "
                           f"one for {algo} should satisfy."]),
             ("Criteria", [
                 "Typicality: the gain holds on representative instances.",
                 "Robustness: the gain survives tuned classical baselines.",
                 "Verifiability: code and instances are public.",
                 "Accounting: reported time covers the whole pipeline."])])
        self._add_cluster_doc(doc, "json", [], [])

    # --- background --------------------------------------------------------------

    def _background(self, count: int) -> list[dict[str, Any]]:
        rng = self.rng
        orgs = [f"{self.bg_names.word().capitalize()} Cooperative"
                for _ in range(120)]
        people = [f"{rng.choice(_FIRST_NAMES)} "
                  f"{self.bg_names.word().capitalize()}" for _ in range(100)]
        products = [f"{self.bg_names.word().capitalize()} Kit"
                    for _ in range(100)]
        sites = [f"{self.bg_names.word().capitalize()} Depot"
                 for _ in range(60)]

        def sentence() -> str:
            return (f"{rng.choice(_BG_SUBJECTS)} {rng.choice(_BG_VERBS)} "
                    f"{rng.choice(_BG_OBJECTS)} {rng.choice(_BG_TAILS)}.")

        formats = ["txt"] * (count // 4) + ["html"] * (count // 4)
        formats += ["json"] * (count - len(formats))
        rng.shuffle(formats)
        two_sections = set(rng.sample(range(count), count // 10))
        with_asset = set(rng.sample([i for i, f in enumerate(formats)
                                     if f == "json"], count // 20))
        slugs = []
        for i in range(count):
            slug = f"bg-{i:03d}"
            slugs.append(slug)
            sections = [("Summary", [sentence() + " " + sentence()])]
            if i in two_sections:
                sections.append(("Notes", [sentence()]))
            assets = None
            if i in with_asset:
                assets = [{"kind": "figure",
                           "caption": f"Map of {rng.choice(sites)}"}]
            org = rng.choice(orgs)
            doc = _manifest(
                slug, rng.choice(_BG_SOURCE_TYPES),
                f"{rng.choice(_BG_OBJECTS).capitalize()} at {rng.choice(sites)}",
                [(rng.choice(people), org)], _date(rng, 2015, 2025),
                rng.choice(["journal", "workshop", "bulletin", ""]),
                rng.randint(0, 300), sections, assets=assets)
            if formats[i] != "json":
                doc["source_type"] = "paper"
            self.documents.append((doc, formats[i]))

        rows: list[dict[str, Any]] = []
        for i, slug in enumerate(slugs[1:], start=1):
            for cited in rng.sample(slugs[:i], min(i, 2)):
                rows.append({"subject": f"doc:{slug}", "relation": "cites",
                             "object": f"doc:{cited}"})
        kinds = [("officer-of", people, "researcher", orgs, "organization"),
                 ("owns", orgs, "organization", products, "product"),
                 ("supplies", orgs, "organization", orgs, "organization"),
                 ("requires", products, "product", sites, "other"),
                 ("funds", orgs, "organization", orgs, "organization"),
                 ("partnered-with", orgs, "organization", orgs,
                  "organization")]
        seen: set[tuple[str, str, str]] = set()
        for relation, subjects, s_kind, objects, o_kind in kinds:
            added = 0
            while added < N_BACKGROUND_ENTITY_ROWS // len(kinds):
                s, o = rng.choice(subjects), rng.choice(objects)
                if s == o or (s, relation, o) in seen:
                    continue
                seen.add((s, relation, o))
                added += 1
                row = {"subject": s, "subject_kind": s_kind,
                       "relation": relation, "object": o,
                       "object_kind": o_kind, "source": "registry"}
                if relation == "partnered-with":
                    row["date"] = _date(rng, 2016, 2025)
                rows.append(row)
        for i in range(N_BACKGROUND_FINANCIAL_ROWS):
            relation = ("raised-funding", "spent-on", "spent-on",
                        "acquired")[i % 4]
            rows.append({
                "subject": rng.choice(orgs), "subject_kind": "organization",
                "relation": relation, "object": f"item {i}",
                "date": _date(rng, 2016, 2025),
                "amount": {"value": float(rng.randint(1, 90) * 10000),
                           "currency": "EUR"},
                "description": rng.choice(_CAPEX + _OPEX + ["general costs"]),
                "source": "filing:annual"})
        for _ in range(N_BACKGROUND_LAUNCH_ROWS):
            rows.append({"subject": rng.choice(orgs),
                         "subject_kind": "organization", "relation": "launched",
                         "object": rng.choice(products), "object_kind": "product",
                         "date": _date(rng, 2016, 2025),
                         "description": "catalogue release",
                         "source": "press:launch"})
        return rows

    # --- assembly ----------------------------------------------------------------

    def build(self) -> dict[str, Any]:
        rng = self.rng
        # The seed decides which threads get what, never how many, so every
        # seed costs the same number of provider calls.
        def pick(count: int, among=range(N_THREADS)) -> set[int]:
            return set(rng.sample(sorted(among), count))
        # (benchmark, follow-up) per thread, in fixed proportions
        shapes = [(True, True)] * 2 + [(True, False)] * 4 + \
            [(False, True)] * 2 + [(False, False)] * 2
        rng.shuffle(shapes)
        benchmark = {t for t, (b, _) in enumerate(shapes) if b}
        follow_up = {t for t, (_, f) in enumerate(shapes) if f}
        missing, hypothesis, overclaim, txt = pick(3), pick(7), pick(5), pick(4)
        misrepresents, html = pick(2, follow_up), pick(2, follow_up)
        first_algo = None
        for t in range(N_THREADS):
            self._thread(t, {
                "roles": ["rebuttal"] + ["benchmark"] * (t in benchmark)
                + ["follow-up"] * (t in follow_up),
                "missing_citation": t in missing,
                "hypothesis": t in hypothesis,
                "overclaim": t in overclaim,
                "misrepresents": t in misrepresents,
                "study_format": "txt" if t in txt else "json",
                "follow_up_format": "html" if t in html else "json"})
            first_algo = first_algo or self.cluster_names[3]
        self._rubric_doc(first_algo)
        n_cluster = len(self.documents)
        background_rows = self._background(N_DOCUMENTS - n_cluster)
        rows = self.cluster_rows + background_rows
        rng.shuffle(rows)
        split = len(rows) * 3 // 5
        duplicated = rng.sample(range(len(rows)), N_DUPLICATED_ROWS)
        file_a = rows[:split] + [rows[i] for i in duplicated if i >= split]
        file_b = rows[split:] + [rows[i] for i in duplicated if i < split]
        self._check_separation(n_cluster)
        return {"rows_a": file_a, "rows_b": file_b}

    def _check_separation(self, n_cluster: int) -> None:
        names = [n.lower() for n in self.cluster_names]
        for doc, _ in self.documents[n_cluster:]:
            text = json.dumps(doc).lower()
            for name in names:
                if name in text:
                    raise AssertionError(
                        f"background document {doc['slug']} names {name!r}")


def _dump(payload: Any) -> str:
    return json.dumps(payload, indent=2, ensure_ascii=False) + "\n"


def generate(seed: int, out_dir: Path) -> dict[str, Any]:
    """Write corpus/, playbook.json and oracle.json under out_dir; return
    the oracle."""
    gen = _Generator(seed)
    relations = gen.build()
    corpus = out_dir / "corpus"
    corpus.mkdir(parents=True, exist_ok=True)
    for doc, fmt in gen.documents:
        slug = doc["slug"]
        if fmt == "json":
            (corpus / f"{slug}.json").write_text(_dump(doc), encoding="utf-8")
            continue
        text = _as_text(doc) if fmt == "txt" else _as_html(doc)
        (corpus / f"{slug}.{fmt}").write_text(text, encoding="utf-8")
        (corpus / f"{slug}.meta.json").write_text(_dump(_sidecar(doc)),
                                                  encoding="utf-8")
    for name, rows in (("relations-a", relations["rows_a"]),
                       ("relations-b", relations["rows_b"])):
        (corpus / f"{name}.json").write_text(
            _dump({"manifest_kind": "relations", "records": rows}),
            encoding="utf-8")
    (out_dir / "playbook.json").write_text(_dump(gen.playbook),
                                           encoding="utf-8")
    (out_dir / "oracle.json").write_text(_dump(gen.oracle), encoding="utf-8")
    return gen.oracle


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    oracle = generate(args.seed, args.out)
    print(f"wrote {len(oracle['cluster'])} cluster documents to {args.out}")


if __name__ == "__main__":
    main()
