"""Layer 5: spending classification, COI, supply chain, timeline."""

from __future__ import annotations

import random

import pytest

from claimcheck.config import SignalsConfig
from claimcheck.corpus import DocumentMetadata, SourceDocument
from claimcheck.errors import UnknownEntity
from claimcheck.knowledge import build_graph, find_paths, relation_edge
from claimcheck.knowledge.graph import Edge
from claimcheck.signals import (FinancialEvent, StrategicEvent,
                                build_timeline, classify_spending,
                                detect_coi, map_conflict_web,
                                map_supply_chain)

from test_knowledge import ent


def money(kind, description, amount, date="2025-01-01"):
    return FinancialEvent(entity_id="ent-org", date=date, kind=kind,
                          description=description, amount=amount,
                          currency="EUR")


# --- spending ---------------------------------------------------------------

def test_spending_opex_dominant_platform_company():
    events = [
        money("funding-round", "disclosed seed funding", 10_000_000.0),
        money("acquisition", "software platform acquisition", 2_000_000.0),
        money("expenditure", "cloud access fees for hosted QPU time",
              600_000.0),
        money("expenditure", "research personnel expansion", 1_200_000.0),
    ]
    profile = classify_spending(events, SignalsConfig())
    assert profile.dominance == "opex-dominant"
    # funding rounds are not expenditures and stay unclassified
    classifications = {e.description: e.classification
                       for e in profile.events}
    assert classifications["disclosed seed funding"] == "unclassified"


def test_spending_empty_unknown():
    assert classify_spending([], SignalsConfig()).dominance == "unknown"


def test_spending_all_unclassified_unknown():
    events = [money("expenditure", "miscellaneous sundries", 1000.0)]
    assert classify_spending(events, SignalsConfig()).dominance == "unknown"


def test_spending_capex_threshold():
    events = [money("expenditure", "hardware fabrication line", 70.0),
              money("expenditure", "cloud access subscription", 30.0)]
    assert classify_spending(events, SignalsConfig()).dominance == \
        "capex-dominant"
    even = [money("expenditure", "hardware fabrication line", 50.0),
            money("expenditure", "cloud access subscription", 50.0)]
    assert classify_spending(even, SignalsConfig()).dominance == "mixed"


def test_spending_scale_invariance_fuzz():
    rng = random.Random(90)
    descriptions = ["hardware fabrication", "cloud access", "personnel",
                    "equipment purchase", "license renewal"]
    for _ in range(100):
        events = [money("expenditure", rng.choice(descriptions),
                        round(rng.uniform(1.0, 1000.0), 2))
                  for _ in range(rng.randint(1, 6))]
        base = classify_spending(events, SignalsConfig()).dominance
        factor = rng.choice([0.001, 3.0, 1e6])
        scaled = [money(e.kind, e.description, e.amount * factor)
                  for e in events]
        assert classify_spending(scaled, SignalsConfig()).dominance == base


# --- COI and conflict web ------------------------------------------------------

def test_golden_coi_three_edge_path(golden):
    assert len(golden.coi_flags) == 1
    flag = golden.coi_flags[0]
    assert [step["predicate"] for step in flag.product_path] == \
        ["co-founded", "sells", "implements"]
    names = [step["to_name"] for step in flag.product_path]
    assert names == ["Kipu Quantum", "Iskay Quantum Optimizer", "BF-DCQO"]
    assert flag.disclosed is False
    assert flag.role == "co-founded"


def test_golden_coi_path_validates_against_find_paths(golden):
    graph = golden.graph()
    flag = golden.coi_flags[0]
    author = flag.product_path[0]["from"]
    target = flag.product_path[-1]["to"]
    paths = find_paths(graph, author, target, 4)
    edge_tuples = {tuple(s.edge_id for s in p) for p in paths}
    assert tuple(s["edge_id"] for s in flag.product_path) in edge_tuples


def test_golden_authors_without_officer_edges_unflagged(golden):
    flagged_authors = {f.author for f in golden.coi_flags}
    solano = golden.registry.get("Enrique Solano")
    assert flagged_authors == {solano.entity_id}


def test_golden_ibm_conflict_web_four_edges(golden):
    ibm = golden.registry.get("IBM")
    web = next(w for w in golden.conflict_webs if w.entity_id == ibm.entity_id)
    assert len(web.edges) == 4
    assert {e["predicate"] for e in web.edges} == \
        {"provides", "owns", "hosts", "co-authored"}


def coi_graph(*edges):
    """Entities author, org, prod, algo and other, joined by the given
    (subject, predicate, object) edges."""
    return build_graph(
        [ent(n) for n in ("author", "org", "prod", "algo", "other")], [],
        [relation_edge(f"ent-{s}", p, f"ent-{o}") for s, p, o in edges])


def coi(graph, authors=("ent-author",), evaluated=("ent-algo",),
        disclosures=(), **cfg):
    doc = SourceDocument(doc_id="doc-x", source_type="paper", title="X",
                         sections=[], metadata=DocumentMetadata(
                             disclosures=list(disclosures)))
    return detect_coi(doc, graph, list(authors), list(evaluated),
                      SignalsConfig(**cfg))


CHAIN = [("author", "founded", "org"), ("org", "sells", "prod"),
         ("prod", "implements", "algo")]


def test_coi_flags_an_officer_whose_organization_sells_the_algorithm():
    [flag] = coi(coi_graph(*CHAIN))
    assert (flag.author, flag.organization, flag.role, flag.disclosed) == \
        ("ent-author", "ent-org", "founded", False)
    assert [(s["from"], s["predicate"], s["to"]) for s in flag.product_path] \
        == [(f"ent-{s}", p, f"ent-{o}") for s, p, o in CHAIN]
    [flag] = coi(coi_graph(*CHAIN), disclosures=["The author founded Org."])
    assert flag.disclosed is True


def test_coi_chain_is_bounded_by_the_hop_budget():
    assert coi(coi_graph(*CHAIN), coi_max_hops=2) == []
    assert len(coi(coi_graph(*CHAIN), coi_max_hops=3)) == 1


def test_coi_skips_an_author_or_target_missing_from_the_graph():
    graph = coi_graph(*CHAIN)
    assert coi(graph, authors=["ent-ghost"]) == []
    assert coi(graph, evaluated=["ent-ghost"]) == []
    # the pair that is in the graph is still flagged beside them
    [flag] = coi(graph, authors=["ent-ghost", "ent-author"],
                 evaluated=["ent-algo", "ent-ghost"])
    assert flag.author == "ent-author"


def test_coi_skips_a_path_that_does_not_start_with_an_officer_edge():
    # `sells` may continue a chain but not start one
    assert coi(coi_graph(("author", "sells", "prod"),
                         ("prod", "implements", "algo"))) == []
    # nor does the empty path of an author who is the evaluated entity
    assert coi(coi_graph(*CHAIN), evaluated=["ent-author"]) == []


def test_coi_skips_a_path_with_a_later_step_outside_the_chain():
    # `officer-of` is a first step only; later steps must be `sells` or
    # `implements`
    assert coi(coi_graph(("author", "founded", "org"),
                         ("org", "officer-of", "prod"),
                         ("prod", "implements", "algo"))) == []


def test_conflict_web_keeps_stake_edges_into_involved_entities():
    graph = build_graph([ent(n) for n in ("org", "algo", "chip", "lab")], [], [
        relation_edge("ent-org", "owns", "ent-chip"),
        relation_edge("ent-org", "funds", "ent-algo"),
        # not a stake predicate
        relation_edge("ent-org", "requires", "ent-algo"),
        # a stake in an entity outside the evaluation
        relation_edge("ent-org", "provides", "ent-lab"),
        # a text object that spells an involved entity id
        relation_edge("ent-org", "sells", "ent-algo", object_is_entity=False),
    ])
    web = map_conflict_web("ent-org", graph, {"ent-algo", "ent-chip"},
                           SignalsConfig())
    assert web.entity_id == "ent-org"
    assert sorted((e["predicate"], e["target"], e["target_name"])
                  for e in web.edges) == [("funds", "ent-algo", "algo"),
                                          ("owns", "ent-chip", "chip")]
    assert map_conflict_web("ent-org", graph, {"ent-algo"},
                            SignalsConfig(stake_predicates=["requires"])
                            ).edges == [{"predicate": "requires",
                                         "target": "ent-algo",
                                         "target_name": "algo"}]


def test_conflict_web_of_an_unknown_entity():
    with pytest.raises(UnknownEntity):
        map_conflict_web("ent-ghost", build_graph([], [], []), set(),
                         SignalsConfig())


# --- supply chain -----------------------------------------------------------------

def test_golden_supply_chain_single_supplier(golden):
    bf = golden.registry.get("BF-DCQO")
    chains = [c for c in golden.supply_chains
              if c.dependent == bf.entity_id]
    assert len(chains) == 1
    chain = chains[0]
    assert [s["predicate"] for s in chain.chain] == \
        ["requires", "topology", "manufactured-by"]
    assert chain.chain[-1]["to_name"] == "IBM"
    assert chain.single_supplier is True


def test_supply_chain_isolated_entity_empty():
    graph = build_graph([ent("alone")], [], [])
    assert map_supply_chain("ent-alone", graph,
                            SignalsConfig(coi_max_hops=4)) == []


def test_supply_chain_unknown_entity():
    graph = build_graph([], [], [])
    with pytest.raises(UnknownEntity):
        map_supply_chain("ent-ghost", graph,
                         SignalsConfig(coi_max_hops=4))


def test_supply_chain_multiple_manufacturers_not_single():
    nodes = [ent(n) for n in ("algo", "chip1", "chip2", "fab1", "fab2")]
    edges = [
        relation_edge("ent-algo", "requires", "ent-chip1"),
        relation_edge("ent-algo", "requires", "ent-chip2"),
        relation_edge("ent-chip1", "manufactured-by", "ent-fab1"),
        relation_edge("ent-chip2", "manufactured-by", "ent-fab2"),
    ]
    graph = build_graph(nodes, [], edges)
    chains = map_supply_chain("ent-algo", graph,
                              SignalsConfig(coi_max_hops=4))
    assert chains
    assert all(not c.single_supplier for c in chains)


def oracle_dependency_chains(graph, start, max_hops, predicates):
    """Maximal simple dependency paths by exhaustive DFS (no shared code
    with the implementation's walk)."""
    results = set()

    def explore(node, visited, path):
        extensions = []
        if len(path) < max_hops:
            for edge in graph.edges.values():
                if edge.subject != node or not edge.object_is_entity:
                    continue
                if edge.predicate not in predicates:
                    continue
                if edge.object in visited:
                    continue
                extensions.append(edge)
        if not extensions:
            if path:
                results.add(tuple(e.edge_id for e in path))
            return
        for edge in sorted(extensions, key=lambda e: e.edge_id):
            explore(edge.object, visited | {edge.object}, path + [edge])

    explore(start, {start}, [])
    return results


def test_supply_chain_matches_bruteforce_oracle():
    rng = random.Random(5151)
    cfg = SignalsConfig()
    predicates = set(cfg.dependency_predicates)
    for _ in range(200):
        n = rng.randint(2, 10)
        nodes = [ent(f"n{i}") for i in range(n)]
        edges = []
        for e in range(rng.randint(0, 16)):
            a, b = rng.sample(range(n), 2)
            edges.append(Edge(
                edge_id=f"e{e:03d}", subject=f"ent-n{a}",
                predicate=rng.choice(cfg.dependency_predicates + ["other"]),
                object=f"ent-n{b}", object_is_entity=True))
        graph = build_graph(nodes, [], edges)
        start = f"ent-n{rng.randrange(n)}"
        max_hops = rng.randint(1, 4)
        got = {tuple(s["edge_id"] for s in c.chain)
               for c in map_supply_chain(
                   start, graph, SignalsConfig(coi_max_hops=max_hops))}
        assert got == oracle_dependency_chains(graph, start, max_hops,
                                               predicates)


# --- timeline -----------------------------------------------------------------------

def event(date, kind, parties, source="src"):
    return StrategicEvent(date=date, kind=kind, parties=parties,
                          source=source)


def test_timeline_sorted_and_permutation_invariant():
    events = [
        event("2025-05-16", "publication", ["ent-kipu"]),
        event("2025-03-17", "product-launch", ["ent-kipu", "ent-iskay"]),
        event("2025-10-06", "rebuttal", ["ent-polar", "ent-bf"]),
    ]
    rng = random.Random(3)
    timeline, _ = build_timeline(list(events), 90)
    for _ in range(10):
        shuffled = list(events)
        rng.shuffle(shuffled)
        again, _ = build_timeline(shuffled, 90)
        assert again == timeline
    assert [e.date for e in timeline] == sorted(e.date for e in events)


def test_timeline_launch_to_publication_gap():
    events = [
        event("2025-03-17", "product-launch", ["ent-kipu", "ent-iskay"]),
        event("2025-05-16", "publication", ["ent-kipu", "ent-bf"]),
    ]
    _, correlations = build_timeline(events, 90)
    assert len(correlations) == 1
    assert correlations[0]["gap_days"] == 60


def test_timeline_rebuttal_then_reframing_within_days():
    events = [
        event("2025-10-06", "rebuttal", ["ent-polar", "ent-bf"]),
        event("2025-10-10", "reframing", ["ent-kipu", "ent-bf"]),
    ]
    _, correlations = build_timeline(events, 90)
    assert len(correlations) == 1
    assert correlations[0]["gap_days"] == 4


def test_timeline_single_event_no_pairs():
    _, correlations = build_timeline(
        [event("2025-01-01", "funding", ["ent-kipu"])], 90)
    assert correlations == []


def test_timeline_window_excludes_distant_events():
    events = [
        event("2025-01-01", "funding", ["ent-kipu"]),
        event("2025-09-01", "publication", ["ent-kipu"]),
    ]
    _, correlations = build_timeline(events, 90)
    assert correlations == []


def test_golden_timeline_correlations(golden):
    kipu = golden.registry.get("Kipu Quantum").entity_id
    launch_pairs = [
        c for c in golden.correlations
        if c["first"]["kind"] == "product-launch"
        and c["second"]["kind"] == "publication"
        and kipu in c["second"]["parties"] and c["gap_days"] == 60]
    assert launch_pairs
    retreat_pairs = [
        c for c in golden.correlations
        if c["first"]["kind"] == "rebuttal"
        and c["second"]["kind"] == "reframing" and c["gap_days"] <= 7]
    assert retreat_pairs


def test_golden_kipu_signal_profile(golden):
    kipu = golden.registry.get("Kipu Quantum").entity_id
    assert golden.financial[kipu].dominance == "opex-dominant"
    assert len([f for f in golden.coi_flags
                if kipu in (f.organization, f.author)]) == 1
    assert len([e for e in golden.timeline if kipu in e.parties]) >= 3
    assert [c for c in golden.correlations
            if kipu in c["first"]["parties"] + c["second"]["parties"]]
