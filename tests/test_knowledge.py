"""Layer 2: metrics, registry, extraction contracts, graph path queries."""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from claimcheck.config import KnowledgeConfig
from claimcheck.errors import (AlreadyClassified, DanglingEndpoint,
                               DuplicateEdge, UnitFamilyMismatch,
                               UnknownEntity, UnparseableMetric,
                               UnresolvedSubject)
from claimcheck.corpus import ingest_document
from claimcheck.ids import normalize_text
from claimcheck.knowledge import (ClaimTriple, Entity, EntityRegistry,
                                  KnowledgeGraph, MetricValue, OverheadEntry,
                                  ProvenanceLevel, build_graph,
                                  compare_metric_definitions, extract_docs,
                                  find_paths, normalize_metric,
                                  normalize_predicate, relation_edge,
                                  render_metric)
from claimcheck.knowledge.graph import Edge
from claimcheck.provider import ScriptedProvider

from conftest import make_router
from test_corpus import manifest_bytes


# --- metric normalization ------------------------------------------------------

def test_normalize_runtime_interval():
    metric = normalize_metric("0.2-2.2 s runtime")
    assert metric.quantity == (0.2, 2.2)
    assert metric.unit == "s"


def test_normalize_unit_conversion():
    assert normalize_metric("2000 ms").quantity == pytest.approx(2.0)
    assert normalize_metric("2000 ms").unit == "s"
    assert normalize_metric("3 min").quantity == pytest.approx(180.0)


@pytest.mark.parametrize("text, seconds", [
    ("500 ns", 5e-7), ("250 us", 2.5e-4), ("250 \u00b5s", 2.5e-4),
    ("250 \u03bcs", 2.5e-4), ("1\u20133 \u03bcs", (1e-6, 3e-6)),
    ("1\u20133 \u00b5s", (1e-6, 3e-6))],
    ids=["ns", "us", "micro-sign-s", "greek-mu-s", "greek-mu-range",
         "micro-sign-range"])
def test_normalize_converts_sub_millisecond_units(text, seconds):
    metric = normalize_metric(text)
    assert metric.unit == "s"
    assert metric.quantity == pytest.approx(seconds, rel=1e-12)


def test_normalize_factor_is_extreme_value_tagged():
    metric = normalize_metric("up to a factor of 80")
    assert metric.quantity == pytest.approx(80.0)
    assert metric.unit == "ratio"
    assert "extreme-value" in metric.methodology


def test_normalize_counts_are_integers():
    metric = normalize_metric("156 qubits")
    assert metric.quantity == 156
    assert metric.unit == "count"


def test_normalize_ratio_interval():
    metric = normalize_metric("5-7x")
    assert metric.quantity == (5.0, 7.0)
    assert metric.unit == "ratio"


def test_normalize_unparseable():
    with pytest.raises(UnparseableMetric):
        normalize_metric("no numbers here")
    with pytest.raises(UnparseableMetric):
        normalize_metric("")


def test_metric_render_round_trip_fuzz():
    rng = random.Random(20250516)
    units = ["s", "ratio", "count", "Hz"]
    for _ in range(200):
        unit = rng.choice(units)
        if unit == "count":
            quantity = float(rng.randint(1, 10 ** 6))
        elif rng.random() < 0.4:
            low = round(rng.uniform(0.01, 50.0), 3)
            high = round(low + rng.uniform(0.01, 50.0), 3)
            quantity = (low, high)
        else:
            quantity = round(rng.uniform(0.01, 10 ** 4), 3)
        metric = MetricValue(quantity=quantity, unit=unit)
        back = normalize_metric(render_metric(metric))
        assert back.unit == metric.unit
        if metric.is_interval:
            assert back.quantity == pytest.approx(metric.quantity)
        else:
            assert back.quantity == pytest.approx(metric.quantity)


# --- metric comparison -----------------------------------------------------------

def quantum_metric():
    return MetricValue(
        quantity=(0.2, 2.2), unit="s",
        included_overheads=["T_CPU pre- and post-processing",
                            "T_QPU gate execution"],
        excluded_overheads=[OverheadEntry("transpilation", 2.0, "s"),
                            OverheadEntry("readout"),
                            OverheadEntry("queuing")])


def classical_metric():
    return MetricValue(
        quantity=30.0, unit="s",
        included_overheads=["T_sweep computation"],
        excluded_overheads=[OverheadEntry("initialization", 1.65, "s"),
                            OverheadEntry("solver setup")])


def test_compare_quantum_vs_classical_runtime():
    verdict = compare_metric_definitions(quantum_metric(), classical_metric(),
                                         KnowledgeConfig())
    assert verdict.comparable is False
    text = " ".join(verdict.discrepancies)
    assert "transpilation" in text and "2.0" in text
    assert "initialization" in text and "1.65" in text
    assert verdict.asymmetry_note is not None
    assert "transpilation" in verdict.asymmetry_note
    # classical exclusion is small next to its own 30 s total
    assert "initialization" not in verdict.asymmetry_note


def test_compare_identical_definitions():
    verdict = compare_metric_definitions(quantum_metric(), quantum_metric(),
                                         KnowledgeConfig())
    assert verdict.comparable is True
    assert verdict.discrepancies == []


def test_compare_unit_family_mismatch():
    with pytest.raises(UnitFamilyMismatch):
        compare_metric_definitions(quantum_metric(),
                                   MetricValue(quantity=80.0, unit="ratio"),
                                   KnowledgeConfig())


def test_compare_asymmetry_on_own_total():
    # 2 s exclusion against a 0.2-2.2 s total is significant
    verdict = compare_metric_definitions(quantum_metric(), MetricValue(
        quantity=(0.2, 2.2), unit="s", included_overheads=["everything"]),
        KnowledgeConfig())
    assert verdict.asymmetry_note is not None


def test_compare_symmetry_fuzz():
    rng = random.Random(73)
    names = ["alpha", "beta", "gamma", "delta"]
    for _ in range(100):
        def sample():
            return MetricValue(
                quantity=round(rng.uniform(0.1, 100.0), 2), unit="s",
                included_overheads=rng.sample(names, rng.randint(0, 3)),
                excluded_overheads=[
                    OverheadEntry(n, round(rng.uniform(0.1, 10.0), 2), "s")
                    for n in rng.sample(names, rng.randint(0, 3))])
        a, b = sample(), sample()
        forward = compare_metric_definitions(a, b, KnowledgeConfig())
        backward = compare_metric_definitions(b, a, KnowledgeConfig())
        assert forward.comparable == backward.comparable
        assert sorted(forward.discrepancies) == sorted(backward.discrepancies)


# --- registry and extraction  -----------------------------------------------------

def test_registry_alias_map_unifies_names():
    cfg = KnowledgeConfig(entity_aliases={
        "international business machines": "IBM"})
    registry = EntityRegistry(cfg)
    registry.register("IBM", "organization", first_seen_doc="d1")
    registry.register("International Business Machines", "organization",
                      first_seen_doc="d2")
    assert len(registry) == 1
    entity = registry.get("IBM")
    assert entity.name == "IBM"
    assert "International Business Machines" in entity.aliases
    assert entity.first_seen_doc == "d1"


def test_registry_aliases_exclude_canonical_name():
    registry = EntityRegistry(KnowledgeConfig())
    entity = registry.register("Kipu Quantum", "organization",
                               aliases=["Kipu Quantum", "Kipu Quantum GmbH"])
    assert "Kipu Quantum" not in entity.aliases
    assert "Kipu Quantum GmbH" in entity.aliases


def test_registry_resolve_unknown():
    with pytest.raises(UnresolvedSubject):
        EntityRegistry(KnowledgeConfig()).resolve("Nobody")


# --- extraction in waves: the registry as of each document -------------------

_ALIASES = KnowledgeConfig(entity_aliases={
    "international business machines": "IBM"})
_NAMES = ["Alpha", "alpha", "ALPHA", "Beta", "IBM",
          "International Business Machines", "Gamma"]
_DOCS = [ingest_document(manifest_bytes(slug=f"d{i}"), "json-manifest")
         for i in range(5)]


class _Recording(ScriptedProvider):
    """Answers from its playbook, and keeps the entity names that each
    document's `extract-claims` payload carries."""

    def complete(self, task, provider_tag, sample_index):
        if task.kind == "extract-claims":
            self.sent[task.payload["doc"]["slug"]] = task.payload["entities"]
        return super().complete(task, provider_tag, sample_index)


_PROVIDER = _Recording({})
_ROUTER = make_router(_PROVIDER)


def serial_extraction(docs, playbook, registry, cfg):
    """The serial fold that layer 2 ran before its waves: each document's
    entities are registered, and then its claims resolved against the
    registry as it stands, before the next document is asked. Gives each
    document's (claim payload names, entity ids, claims as (subject,
    object, object_is_entity))."""
    results = []
    for doc in docs:
        seen = {}
        for row in playbook["extract-entities"][doc.slug]["entities"]:
            entity = registry.register(row["name"], row["kind"],
                                       aliases=row["aliases"],
                                       first_seen_doc=doc.doc_id)
            seen[entity.entity_id] = entity.name
        claims = []
        for row in playbook["extract-claims"][doc.slug]["claims"]:
            subject = registry.get(row["subject"])
            if subject is None:
                raise UnresolvedSubject(
                    f"claim subject {row['subject']!r} not in registry "
                    f"(doc {doc.slug})")
            obj = registry.get(row["object"]) \
                if row["object_is_entity"] else None
            claims.append((subject.entity_id, obj.entity_id if obj
                           else normalize_text(row["object"]),
                           obj is not None))
        results.append((sorted(seen.values()), sorted(seen), claims))
    return results


def wave_extraction(docs, playbook, registry, cfg):
    """`extract_docs` in the shape of `serial_extraction`; the payload
    names are the ones its `extract-claims` calls carried."""
    _PROVIDER.playbook, _PROVIDER.sent = playbook, {}
    found = extract_docs(docs, _ROUTER, registry)
    return [(_PROVIDER.sent[doc.slug], [e.entity_id for e in entities],
             [(c.subject, c.object, c.object_is_entity) for c in claims])
            for doc, (entities, claims) in zip(docs, found)]


def _outcome(extraction, docs, playbook, known):
    registry = EntityRegistry(_ALIASES)
    for name in known:
        registry.register(name, "other")
    try:
        results = extraction(docs, playbook, registry, _ALIASES)
    except UnresolvedSubject as exc:
        return str(exc), None
    return results, registry.entities()


_ENTITY_ROWS = st.lists(st.fixed_dictionaries({
    "name": st.sampled_from(_NAMES),
    "kind": st.sampled_from(["organization", "algorithm", "other"]),
    "aliases": st.lists(st.sampled_from(_NAMES + ["Alpha Corp"]),
                        max_size=2)}), max_size=3)
_CLAIM_ROWS = st.lists(st.fixed_dictionaries({
    "subject": st.sampled_from(_NAMES),
    "predicate": st.sampled_from(["uses", "Runs On"]),
    "object": st.sampled_from(_NAMES + [" a free text "]),
    "object_is_entity": st.booleans(),
    "passages": st.sampled_from([[[0, 0]], [[0, 1]], []])}), max_size=3)


@st.composite
def _batches(draw):
    docs = draw(st.permutations(_DOCS))[:draw(st.integers(1, len(_DOCS)))]
    known = draw(st.lists(st.sampled_from(_NAMES), max_size=2))
    playbook = {kind: {doc.slug: {key: draw(rows)} for doc in docs}
                for kind, key, rows in (
                    ("extract-entities", "entities", _ENTITY_ROWS),
                    ("extract-claims", "claims", _CLAIM_ROWS))}
    return docs, playbook, known


@settings(max_examples=200, deadline=None)
@given(_batches())
def test_extraction_waves_give_what_the_serial_fold_gave(batch):
    """Over random document orders, entity names, aliases and names that a
    registry held before the batch: the same claim payloads, entities,
    claims and final registry, or the same `UnresolvedSubject` raised at
    the same document."""
    docs, playbook, known = batch
    assert _outcome(wave_extraction, docs, playbook, known) == \
        _outcome(serial_extraction, docs, playbook, known)


def _two_docs(first_claim):
    """d0 claims `first_claim`; d1 registers Beta and claims it uses Alpha,
    which d0 registered."""
    return {"extract-entities": {
                "d0": {"entities": [{"name": "Alpha", "kind": "other",
                                     "aliases": []}]},
                "d1": {"entities": [{"name": "Beta", "kind": "other",
                                     "aliases": []}]}},
            "extract-claims": {
                "d0": {"claims": [{"predicate": "uses", "passages": [[0, 0]],
                                   **first_claim}]},
                "d1": {"claims": [{"subject": "Beta", "predicate": "uses",
                                   "object": "Alpha", "object_is_entity": True,
                                   "passages": [[0, 0]]}]}}}


def test_an_object_that_only_a_later_document_registers_stays_text():
    playbook = _two_docs({"subject": "Alpha", "object": "beta",
                          "object_is_entity": True})
    outcome = _outcome(wave_extraction, _DOCS[:2], playbook, [])
    assert outcome == _outcome(serial_extraction, _DOCS[:2], playbook, [])
    [(_, _, [first]), (_, _, [second])], _ = outcome
    assert first[1:] == ("beta", False)
    assert second[2] is True


def test_a_subject_that_only_a_later_document_registers_is_unresolved():
    playbook = _two_docs({"subject": "Beta", "object": "x",
                          "object_is_entity": False})
    message = "claim subject 'Beta' not in registry (doc d0)"
    assert _outcome(wave_extraction, _DOCS[:2], playbook, []) == \
        (message, None)
    assert _outcome(serial_extraction, _DOCS[:2], playbook, []) == \
        (message, None)
    # Registered before the batch, Beta resolves for d0 too.
    assert _outcome(wave_extraction, _DOCS[:2], playbook, ["Beta"])[1]


def test_predicate_normalization_synonyms():
    cfg = KnowledgeConfig()
    assert normalize_predicate("Runs On", cfg) == "executed-on"
    assert normalize_predicate("outperforms", cfg) == "outperforms"


def test_classify_provenance_once(golden, golden_claims):
    claim = golden_claims["s1-target:BF-DCQO|executed-on"]
    assert claim.provenance.level == 1
    assert claim.provenance.label == "experimental-data"
    with pytest.raises(AlreadyClassified):
        from claimcheck.knowledge import classify_provenance
        classify_provenance(claim, "text", golden.router, "s1-target")


def test_provenance_level_label_bijection():
    labels = {ProvenanceLevel(i).label for i in range(1, 6)}
    assert len(labels) == 5
    with pytest.raises(ValueError):
        ProvenanceLevel(0)
    with pytest.raises(ValueError):
        ProvenanceLevel(6)


# --- graph -------------------------------------------------------------------------

def ent(name):
    return Entity(entity_id=f"ent-{name}", name=name, kind="other")


def claim_edge(eid, subject, obj, predicate="links-to"):
    return ClaimTriple(
        claim_id=eid, subject=f"ent-{subject}", predicate=predicate,
        object=f"ent-{obj}", object_is_entity=True, doc_id="d",
        section_id="s", passage_ids=[], subject_name=subject,
        object_name=obj)


def test_build_graph_counts():
    graph = build_graph([ent("a"), ent("b"), ent("c")],
                        [claim_edge("clm-1", "a", "b")],
                        [relation_edge("ent-b", "feeds", "ent-c")])
    assert len(graph.nodes) == 3
    assert graph.edge_count == 2


def test_build_graph_empty_is_valid():
    graph = build_graph([], [], [])
    assert len(graph.nodes) == 0 and graph.edge_count == 0


def test_build_graph_duplicate_edge():
    with pytest.raises(DuplicateEdge):
        build_graph([ent("a"), ent("b")],
                    [claim_edge("clm-1", "a", "b"),
                     claim_edge("clm-1", "b", "a")], [])


def test_build_graph_dangling_endpoint():
    with pytest.raises(DanglingEndpoint):
        build_graph([ent("a")], [claim_edge("clm-1", "a", "zz")], [])


def test_find_paths_reflexive():
    graph = build_graph([ent("a"), ent("b")], [claim_edge("clm-1", "a", "b")],
                        [])
    assert find_paths(graph, "ent-a", "ent-a", 3) == [()]


def test_find_paths_unknown_entity():
    graph = build_graph([ent("a")], [], [])
    with pytest.raises(UnknownEntity):
        find_paths(graph, "ent-a", "ent-zz", 2)


def test_find_paths_ordering_shortest_first():
    graph = build_graph(
        [ent("a"), ent("b"), ent("c")],
        [claim_edge("clm-1", "a", "c"),
         claim_edge("clm-2", "a", "b"),
         claim_edge("clm-3", "b", "c")], [])
    paths = find_paths(graph, "ent-a", "ent-c", 3)
    assert [len(p) for p in paths] == [1, 2]
    assert paths[0][0].edge_id == "clm-1"


def random_graph(rng: random.Random, max_nodes: int = 10):
    n = rng.randint(2, max_nodes)
    nodes = [ent(f"n{i}") for i in range(n)]
    edges = []
    edge_count = rng.randint(0, min(18, n * (n - 1)))
    for e in range(edge_count):
        a, b = rng.sample(range(n), 2)
        edges.append(Edge(edge_id=f"e{e:03d}", subject=f"ent-n{a}",
                          predicate=rng.choice(["x", "y"]),
                          object=f"ent-n{b}", object_is_entity=True))
    graph = build_graph(nodes, [], edges)
    return graph, n


def oracle_simple_paths(graph: KnowledgeGraph, start: str, goal: str,
                        max_hops: int) -> set[tuple[str, ...]]:
    """Independent enumeration: try every node sequence, then every way of
    realizing it with parallel edges."""
    if start == goal:
        return {()}
    nodes = sorted(graph.nodes)
    others = [n for n in nodes if n not in (start, goal)]
    found: set[tuple[str, ...]] = set()
    edge_lookup: dict[tuple[str, str], list[str]] = {}
    for edge in graph.edges.values():
        if edge.object_is_entity:
            edge_lookup.setdefault((edge.subject, edge.object), []).append(
                edge.edge_id)
    for length in range(1, max_hops + 1):
        for middle in itertools.permutations(others, length - 1):
            sequence = (start, *middle, goal)
            options = []
            for a, b in zip(sequence, sequence[1:]):
                ids = edge_lookup.get((a, b))
                if not ids:
                    break
                options.append(ids)
            else:
                for combo in itertools.product(*options):
                    found.add(tuple(combo))
    return found


def test_find_paths_matches_bruteforce_oracle():
    rng = random.Random(1187)
    for _ in range(200):
        graph, n = random_graph(rng)
        start = f"ent-n{rng.randrange(n)}"
        goal = f"ent-n{rng.randrange(n)}"
        max_hops = rng.randint(1, 4)
        got = {tuple(s.edge_id for s in p)
               for p in find_paths(graph, start, goal, max_hops)}
        assert got == oracle_simple_paths(graph, start, goal, max_hops)


def test_find_paths_deterministic_order():
    rng = random.Random(55)
    graph, n = random_graph(rng)
    first = find_paths(graph, "ent-n0", f"ent-n{n - 1}", 4)
    second = find_paths(graph, "ent-n0", f"ent-n{n - 1}", 4)
    assert first == second


def test_golden_graph_referential_integrity(golden):
    graph = golden.graph()
    for edge in graph.edges.values():
        assert edge.subject in graph.nodes
        assert not edge.object_is_entity or edge.object in graph.nodes
