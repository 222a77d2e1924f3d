"""Acceptance criteria, one test per criterion.

Golden-run criteria replay the shipped fixture corpus + transcript and
check the case-study numbers exactly; property criteria fuzz the
deterministic core. Each test prints one PASS line on success (run with
`pytest -s tests/test_acceptance.py` to see them inline).
"""

from __future__ import annotations

import math
import random
import socket

import pytest

from claimcheck.assess import semantic_entropy
from claimcheck.knowledge import compare_metric_definitions, find_paths
from claimcheck.pipeline import LAYERS, resume

from conftest import dir_digest, run_golden
from test_crosssource import consensus_of
from test_knowledge import oracle_simple_paths, random_graph
from test_signals import oracle_dependency_chains


def ok(criterion: int, message: str) -> None:
    print(f"PASS criterion-{criterion:02d}: {message}")


def test_criterion_01_extraction_counts(golden):
    s1 = golden.doc_by_slug("s1-target")
    entities = golden.doc_entities[s1.doc_id]
    claims = golden.doc_claims[s1.doc_id]
    assert len(entities) == 17
    assert len(claims) == 20
    ok(1, "target document yields exactly 17 entities and 20 claim triples")


def test_criterion_02_consistency_counts_and_score(golden):
    s1 = golden.doc_by_slug("s1-target")
    report = golden.consistency[s1.doc_id]
    assert report.counts["supports"] == 6
    assert report.counts["partial"] == 8
    assert report.counts["overclaim"] == 3
    assert report.counts["neutral"] == 3
    assert report.counts["contradicted"] == 0
    assert report.consistency_score == pytest.approx(0.30, abs=1e-12)
    ok(2, "verdicts 6/8/3/3 and consistency score 0.30 exactly")


def test_criterion_03_metric_comparability(golden, golden_claims):
    quantum = golden_claims["s1-target:BF-DCQO|achieves-runtime"].metric
    classical = golden_claims[
        "s1-target:Simulated Annealing|requires-runtime"].metric
    verdict = compare_metric_definitions(quantum, classical,
                                         golden.cfg.knowledge)
    assert verdict.comparable is False
    text = " ".join(verdict.discrepancies)
    assert "transpilation" in text and "2.0 s" in text
    assert "initialization" in text and "1.65 s" in text
    assert verdict.asymmetry_note is not None
    assert "transpilation" in verdict.asymmetry_note
    ok(3, "quantum vs classical runtime not comparable; both exclusions "
          "listed with an asymmetry note")


def test_criterion_04_independence_ratings(golden):
    s1 = golden.doc_by_slug("s1-target")
    expected = {
        "s2-algorithm-intro": "low",
        "s3-reframing": "low",
        "s4-cross-solver-benchmark": "low",
        "s5-counterdiabatic-protocols": "low",
        "r1-wallclock-rebuttal": "high",
        "r2-bfnull-control": "medium",
    }
    for slug, wanted in expected.items():
        other = golden.doc_by_slug(slug)
        key = tuple(sorted((s1.doc_id, other.doc_id)))
        rating = golden.ratings[key]
        assert rating.rating == wanted, f"{slug}: {rating.rating}"
        if wanted == "low":
            assert rating.author_jaccard >= 0.3 or rating.shared_affiliation
    ok(4, "4 same-group docs rated low, rebuttal high, competitor medium")


def test_criterion_05_consensus_polarity(golden, golden_claims):
    runtime = golden_claims["s1-target:BF-DCQO|achieves"]
    execution = golden_claims["s1-target:BF-DCQO|executed-on"]
    assert golden.consensus[runtime.claim_id].score < 0
    assert golden.consensus[execution.claim_id].score == 1.0
    worked = consensus_of([
        ("low", 0.30, "corroborates"),
        ("low", 0.8, "corroborates"),
        ("high", 0.9, "contradicts"),
        ("medium", 0.9, "contradicts"),
    ])
    assert worked.score == pytest.approx(-0.627, abs=1e-3)
    ok(5, "runtime-advantage consensus negative, execution consensus +1, "
          "worked example -0.627")


def test_criterion_06_coi_and_graph_reasoning(golden):
    flag = golden.coi_flags[0]
    assert [s["predicate"] for s in flag.product_path] == \
        ["co-founded", "sells", "implements"]
    assert [s["to_name"] for s in flag.product_path] == \
        ["Kipu Quantum", "Iskay Quantum Optimizer", "BF-DCQO"]

    ibm = golden.registry.get("IBM")
    web = next(w for w in golden.conflict_webs
               if w.entity_id == ibm.entity_id)
    assert len(web.edges) == 4

    bf = golden.registry.get("BF-DCQO")
    chain = next(c for c in golden.supply_chains
                 if c.dependent == bf.entity_id)
    assert [s["predicate"] for s in chain.chain] == \
        ["requires", "topology", "manufactured-by"]
    assert chain.single_supplier is True
    ok(6, "3-edge founder-to-algorithm path, 4 vendor conflict edges, "
          "single-supplier hardware chain")


def test_criterion_07_hypothesis_matrix(golden):
    statuses = {row.hypothesis.statement: row.status for row in golden.matrix}
    assert len(golden.matrix) == 4
    assert statuses["The reported runtime quantum advantage is genuine"] == \
        "likely-hallucination"
    assert statuses["The quantum processor contributes materially to "
                    "end-to-end performance"] == "needs-review"
    assert statuses["The claimed advantage is a measurement artifact of "
                    "runtime accounting"] == "supported"
    assert statuses["The work represents real but incremental optimization "
                    "progress"] == "supported"
    assert (golden.maturity.trl_low, golden.maturity.trl_high) == (4, 5)
    assert golden.alphas == []
    ok(7, "matrix statuses match, maturity (4,5), alpha list empty")


def test_criterion_08_keystone_rubric(golden, golden_claims):
    runtime = golden_claims["s1-target:BF-DCQO|achieves"]
    assessment = next(r for r in golden.rubrics
                      if r.claim_id == runtime.claim_id)
    assert assessment.summary == "0/5 fully met"
    assert len(assessment.criteria) == 5
    ok(8, 'keystone assessment returns "0/5 fully met"')


def test_criterion_09_consensus_properties():
    rng = random.Random(5001)
    labels = ["corroborates", "contradicts", "misrepresents"]
    ratings = ["high", "medium", "low"]
    for _ in range(1000):
        entries = [(rng.choice(ratings), round(rng.uniform(0.05, 1.0), 3),
                    rng.choice(labels))
                   for _ in range(rng.randint(1, 7))]
        score = consensus_of(entries).score
        assert -1.0 <= score <= 1.0
        assert consensus_of(entries + [("high", 0.9, "contradicts")]).score \
            <= score + 1e-12
        assert consensus_of(entries + [("high", 0.9, "corroborates")]).score \
            >= score - 1e-12
        signs = {label for _, _, label in entries if label != "misrepresents"}
        if signs == {"corroborates"}:
            assert score == 1.0
        elif signs == {"contradicts"}:
            assert score == -1.0
    ok(9, "consensus bounded, monotone, and sign-unanimity exact over 1000 "
          "fuzzed cases")


def test_criterion_10_entropy_properties():
    assert semantic_entropy(["A", "A", "B"]) == pytest.approx(0.6365,
                                                              abs=1e-4)
    rng = random.Random(5002)
    alphabet = ["A", "B", "C", "D", "E"]
    for _ in range(1000):
        samples = [rng.choice(alphabet) for _ in range(rng.randint(1, 10))]
        entropy = semantic_entropy(samples)
        assert entropy >= 0.0
        assert (entropy == 0.0) == (len(set(samples)) == 1)
        assert entropy <= math.log(len(set(samples))) + 1e-12
        shuffled = list(samples)
        rng.shuffle(shuffled)
        assert semantic_entropy(shuffled) == pytest.approx(entropy)
    ok(10, "entropy zero iff unanimous, bounded by ln(clusters), "
           "permutation-invariant; [A,A,B] = 0.6365")


def test_criterion_11_graph_oracles():
    from claimcheck.config import SignalsConfig
    from claimcheck.knowledge.graph import build_graph, Edge
    from claimcheck.signals import map_supply_chain
    from test_knowledge import ent

    rng = random.Random(5003)
    cfg = SignalsConfig()
    for i in range(200):
        graph, n = random_graph(rng)
        start = f"ent-n{rng.randrange(n)}"
        goal = f"ent-n{rng.randrange(n)}"
        hops = rng.randint(1, 4)
        got = {tuple(s.edge_id for s in p)
               for p in find_paths(graph, start, goal, hops)}
        assert got == oracle_simple_paths(graph, start, goal, hops)

        m = rng.randint(2, 10)
        nodes = [ent(f"n{i}") for i in range(m)]
        edges = [Edge(edge_id=f"e{e:03d}", subject=f"ent-n{rng.randrange(m)}",
                      predicate=rng.choice(cfg.dependency_predicates
                                           + ["unrelated"]),
                      object=f"ent-n{rng.randrange(m)}",
                      object_is_entity=True)
                 for e in range(rng.randint(0, 14))]
        edges = [e for e in edges if e.subject != e.object]
        dep_graph = build_graph(nodes, [], edges)
        origin = f"ent-n{rng.randrange(m)}"
        dep_hops = rng.randint(1, 4)
        chains = {tuple(s["edge_id"] for s in c.chain)
                  for c in map_supply_chain(
                      origin, dep_graph, SignalsConfig(coi_max_hops=dep_hops))}
        assert chains == oracle_dependency_chains(
            dep_graph, origin, dep_hops, set(cfg.dependency_predicates))
    ok(11, "path queries and supply chains match brute-force enumeration "
           "on 200 random graphs")


def test_criterion_12_determinism_and_resume(golden, tmp_path):
    reference = dir_digest(golden.run_dir)

    rerun = run_golden(tmp_path / "again")
    assert dir_digest(rerun.run_dir) == reference

    for layer in LAYERS:
        out = tmp_path / f"kill-{layer}"
        run_golden(out, stop_after=layer)
        resume(out)
        assert dir_digest(out) == reference, f"divergence after {layer}"
    ok(12, "two replay runs byte-identical; kill-and-resume at every layer "
           "boundary reproduces the run byte-for-byte")


def test_criterion_13_replay_needs_no_network(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("network access attempted during replay")

    monkeypatch.setattr(socket, "socket", refuse)
    monkeypatch.setattr(socket, "create_connection", refuse)
    state = run_golden(tmp_path / "offline")
    assert (state.run_dir / "report" / "assessment.json").exists()
    assert len(state.matrix) == 4
    ok(13, "golden replay run completes with all network access disabled")
