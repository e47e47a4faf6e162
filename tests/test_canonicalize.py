"""Canonicalize's term layer and greedy grouping.

The grouping loops of ``EntityDisambiguator`` run over precomputed
per-entity arrays and prune candidates by an exact-name index, a label
length band and a character-bag bound. The groups must be exactly those of
the reference loops, kept here verbatim as the oracle, including their
order (the greedy pass is insertion-order dependent).
"""

from __future__ import annotations

import random
import string
from typing import Dict, List, Optional, Set

import pytest

from ontocast_ray.functions import fuzz
from ontocast_ray.functions.fuzz import ratio, ratio_at_least
from ontocast_ray.rdf.namespaces import PROV, RDF, RDFS, Namespace
from ontocast_ray.rdf.terms import BNode, Literal, URI
from ontocast_ray.stages.canonicalize import (
    EntityDisambiguator,
    EntityMetadata,
    PredicateMetadata,
)

NS = "https://example.com/doc/0123456789ab/chunk/0123456789ab/"


# --- the oracle: the reference loops, verbatim ----------------------------

def oracle_find_similar_entities(
    self,
    entities_with_labels: Dict[URI, EntityMetadata],
    entity_types: Optional[Dict[URI, Set[URI]]] = None,
) -> List[List[URI]]:
    if entity_types is None:
        entity_types = {}
    entity_groups: List[List[URI]] = []
    processed: set = set()
    entities_list = list(entities_with_labels.keys())

    for i, entity1 in enumerate(entities_list):
        if entity1 in processed:
            continue
        similar_group = [entity1]
        info1 = entities_with_labels[entity1]
        types1 = entity_types.get(entity1, set())
        processed.add(entity1)

        for entity2 in entities_list[i + 1:]:
            if entity2 in processed:
                continue
            info2 = entities_with_labels[entity2]
            types2 = entity_types.get(entity2, set())

            type_compatible = (
                not types1 or not types2 or bool(types1.intersection(types2))
            )
            if not type_compatible:
                continue

            if info1.local_name.lower() == info2.local_name.lower():
                similar_group.append(entity2)
                processed.add(entity2)
                continue

            label1 = info1.label.lower() if info1.label is not None else ""
            label2 = info2.label.lower() if info2.label is not None else ""
            if label1 and label2:
                threshold = (
                    self.semantic_threshold
                    if types1.intersection(types2)
                    else self.similarity_threshold
                )
                if ratio_at_least(label1, label2, threshold):
                    similar_group.append(entity2)
                    processed.add(entity2)

        if len(similar_group) > 1:
            entity_groups.append(similar_group)
    return entity_groups


def oracle_find_similar_predicates(
    self, predicates_with_info: Dict[URI, PredicateMetadata]
) -> List[List[URI]]:
    predicate_groups: List[List[URI]] = []
    processed: set = set()
    predicates_list = list(predicates_with_info.keys())

    for i, pred_a in enumerate(predicates_list):
        if pred_a in processed:
            continue
        similar_group = [pred_a]
        info1 = predicates_with_info[pred_a]
        processed.add(pred_a)

        for pred_b in predicates_list[i + 1:]:
            if pred_b in processed:
                continue
            info2 = predicates_with_info[pred_b]

            if info1.local_name.lower() == info2.local_name.lower():
                if self._check_domain_range_compatibility(info1, info2):
                    similar_group.append(pred_b)
                    processed.add(pred_b)
                continue

            if info1.label is not None and info2.label is not None:
                if ratio_at_least(
                    info1.label.lower(), info2.label.lower(), self.similarity_threshold
                ) and self._check_domain_range_compatibility(info1, info2):
                    similar_group.append(pred_b)
                    processed.add(pred_b)

        if len(similar_group) > 1:
            predicate_groups.append(similar_group)
    return predicate_groups


def oracle_scan(self, graph):
    """The two-pass metadata extractors and the rdf:type loop that
    ``scan_graph`` folded into one pass (ref :113-172, :444-482,
    :648-690), verbatim but for the memo."""
    def norm(term, namespaces):
        full_uri, local_name = self.normalize_uri(term, namespaces)
        return (term if full_uri == str(term) else URI(full_uri)), local_name

    labels: Dict[URI, EntityMetadata] = {}
    namespaces = dict(graph.namespaces())
    for subj, pred, obj in graph:
        if (
            (pred == RDFS.label or pred == RDFS.comment)
            and isinstance(obj, Literal)
            and isinstance(subj, URI)
        ):
            uri_ref, local_name = norm(subj, namespaces)
            if uri_ref not in labels:
                labels[uri_ref] = EntityMetadata(local_name=local_name)
            if pred == RDFS.label:
                labels[uri_ref].label = str(obj)
            elif pred == RDFS.comment:
                labels[uri_ref].comment = str(obj)
    for subj, pred, obj in graph:
        for entity in (subj, obj):
            if isinstance(entity, URI):
                uri_ref, local_name = norm(entity, namespaces)
                if uri_ref not in labels:
                    labels[uri_ref] = EntityMetadata(local_name=local_name)

    entity_types: Dict[URI, Set[URI]] = {}
    for subj, pred, obj in graph:
        if pred == RDF.type and isinstance(subj, URI) and isinstance(obj, URI):
            entity_types.setdefault(subj, set()).add(obj)

    predicate_info: Dict[URI, PredicateMetadata] = {}
    for _, pred, _ in graph:
        if isinstance(pred, URI):
            uri_ref, local_name = norm(pred, namespaces)
            if uri_ref not in predicate_info:
                predicate_info[uri_ref] = PredicateMetadata(local_name=local_name)
    for subj, pred, obj in graph:
        if isinstance(subj, URI):
            norm_subj, _ = norm(subj, namespaces)
            if pred == RDF.type and obj == RDF.Property:
                if norm_subj in predicate_info:
                    predicate_info[norm_subj].is_explicit_property = True
            elif (pred == RDFS.label or pred == RDFS.comment) and isinstance(obj, Literal):
                if norm_subj in predicate_info:
                    if pred == RDFS.label:
                        predicate_info[norm_subj].label = str(obj)
                    else:
                        predicate_info[norm_subj].comment = str(obj)
            elif pred == RDFS.domain and norm_subj in predicate_info:
                predicate_info[norm_subj].domain = obj
            elif pred == RDFS.range and norm_subj in predicate_info:
                predicate_info[norm_subj].range = obj
    return labels, entity_types, predicate_info


# --- inputs ----------------------------------------------------------------

def _random_graph(seed: int, n: int = 80):
    """Triples over plain, prefixed ("ex:") and blank-node terms, with
    labels, comments, domains, ranges and rdf:Property declarations about
    terms that are also used as predicates, before and after that use."""
    from ontocast_ray.rdf.graph import TripleGraph

    rng = random.Random(seed)
    g = TripleGraph()
    g.bind("ex", "http://example.org/")
    terms = [URI(NS + f"t{i}") for i in range(6)] + [URI(f"ex:t{i}") for i in range(3)]
    terms += [URI("http://example.org/t1"), BNode("b0")]
    preds = terms[:4] + [RDFS.label, RDFS.comment, RDFS.domain, RDFS.range, RDF.type,
                         URI(str(RDFS.label))]
    objects = terms + [RDF.Property, URI(str(RDF.Property)), Literal("a"), Literal("bb"),
                       Literal("ccc", lang="en"), Literal("t1")]
    for _ in range(n):
        s = rng.choice(terms)
        g.add((s, rng.choice(preds), rng.choice(objects)))
    return g



# (length of each label, characters substituted) → fuzz.ratio exactly r:
# a substituted character is absent from the base, so LCS = length - k
# and ratio = 100 * (length - k) / length.
_AT_RATIO = {84: (25, 4), 85: (20, 3), 89: (100, 11), 90: (20, 2), 91: (100, 9)}


def _at_ratio(rng: random.Random, r: int) -> tuple[str, str]:
    """Two lowercase labels whose fuzz.ratio is exactly ``r``."""
    length, k = _AT_RATIO[r]
    base = "".join(rng.choice("abcdefghij ") for _ in range(length))
    chars = list(base)
    for pos in rng.sample(range(length), k):
        chars[pos] = rng.choice("XYZ")
    return base, "".join(chars)


def _random_doc(seed: int, n: int = 60):
    """Entities with case-only local-name twins, None and empty labels,
    label pairs at ratios 84/85/89/90/91, and types that conflict, are
    shared, are disjoint or are absent."""
    rng = random.Random(seed)
    types = [URI(f"https://schema.org/T{i}") for i in range(4)]
    words = ["alpha", "beta", "gamma", "delta", "omega"]
    labels_pool: list[Optional[str]] = [None, "", "Acme Corp", "ACME Corp.", "Zoë Ltd"]
    for r in _AT_RATIO:
        a, b = _at_ratio(rng, r)
        assert ratio(a, b) == r
        labels_pool += [a, b]
    entities: Dict[URI, EntityMetadata] = {}
    entity_types: Dict[URI, Set[URI]] = {}
    for i in range(n):
        local = rng.choice(words) + str(rng.randrange(6))
        if rng.random() < 0.3:
            local = local.upper() if rng.random() < 0.5 else local.capitalize()
        uri = URI(NS + f"{local}_{i}")
        label = rng.choice(labels_pool)
        if label and rng.random() < 0.3:
            label = label.upper()
        entities[uri] = EntityMetadata(local_name=local, label=label)
        pick = rng.random()
        if pick < 0.5:
            entity_types[uri] = set(rng.sample(types, rng.randint(1, 2)))
    return entities, entity_types


def _random_predicates(seed: int, n: int = 30) -> Dict[URI, PredicateMetadata]:
    rng = random.Random(seed)
    ranges = [None, URI("https://schema.org/A"), URI("https://schema.org/B")]
    pool: list[Optional[str]] = [None, "", "works at", "Works At", "worked at"]
    for r in _AT_RATIO:
        pool += list(_at_ratio(rng, r))
    out = {}
    for i in range(n):
        local = rng.choice(["worksAt", "WORKSAT", "knows", "locatedIn", "hasSkill"])
        out[URI(NS + f"p{i}")] = PredicateMetadata(
            local_name=local, label=rng.choice(pool),
            domain=rng.choice(ranges), range=rng.choice(ranges),
        )
    return out


def _worst_case_doc(n: int = 500):
    """Distinct local names and untyped entities, so every pair is a
    fuzzy candidate for the reference loop; labels of spread lengths."""
    rng = random.Random(500)
    entities = {}
    for i in range(n):
        label = "".join(rng.choice(string.ascii_lowercase + " ")
                        for _ in range(rng.randint(3, 60)))
        entities[URI(NS + f"e{i}")] = EntityMetadata(local_name=f"e{i}", label=label)
    for i in range(0, n, 25):  # a few near-twins that must group
        a = list(entities)[i]
        twin = URI(NS + f"twin{i}")
        entities[twin] = EntityMetadata(local_name=f"twin{i}",
                                        label=entities[a].label + "x")
    return entities


# --- tests -----------------------------------------------------------------

@pytest.mark.parametrize("seed", range(12))
def test_entity_groups_equal_the_reference_loop(seed):
    d = EntityDisambiguator()
    entities, types = _random_doc(seed)
    want = oracle_find_similar_entities(d, entities, types)
    assert d.find_similar_entities(entities, types) == want
    assert d.find_similar_entities(entities) == oracle_find_similar_entities(d, entities)


@pytest.mark.parametrize("seed", range(20))
def test_scan_graph_equals_the_two_pass_extractors(seed):
    d = EntityDisambiguator()
    graph = _random_graph(seed)
    got, want = d.scan_graph(graph), oracle_scan(d, graph)
    for g, w in zip(got, want):
        assert list(g.items()) == list(w.items())


@pytest.mark.parametrize("seed", range(12))
def test_predicate_groups_equal_the_reference_loop(seed):
    d = EntityDisambiguator()
    preds = _random_predicates(seed)
    assert d.find_similar_predicates(preds) == oracle_find_similar_predicates(d, preds)


@pytest.mark.parametrize("thresholds", [(85.0, 90.0), (90.0, 85.0), (0.0, 100.0)])
def test_groups_equal_the_reference_loop_at_other_thresholds(thresholds):
    d = EntityDisambiguator(*thresholds)
    entities, types = _random_doc(99)
    assert d.find_similar_entities(entities, types) == oracle_find_similar_entities(
        d, entities, types)
    preds = _random_predicates(99)
    assert d.find_similar_predicates(preds) == oracle_find_similar_predicates(d, preds)


def test_worst_case_doc_groups_equal_with_fewer_lcs_than_pairs(monkeypatch):
    d = EntityDisambiguator()
    entities = _worst_case_doc()
    want = oracle_find_similar_entities(d, entities)
    assert want  # the twins group

    calls = 0
    lcs = fuzz._lcs_length

    def counted(a, b):
        nonlocal calls
        calls += 1
        return lcs(a, b)

    monkeypatch.setattr(fuzz, "_lcs_length", counted)
    assert d.find_similar_entities(entities) == want
    n = len(entities)
    assert calls < n * (n - 1) // 2
    assert calls < n  # the length band and character bags prune nearly all


def test_char_bag_bounds_lcs():
    rng = random.Random(3)
    alphabet = "abcab ZoëéÀ中" + chr(0x1F600)
    for _ in range(500):
        a = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 30)))
        b = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 30)))
        (ca, oa), (cb, ob) = fuzz.char_bag(a), fuzz.char_bag(b)
        assert (ca & cb).bit_count() + oa + ob >= fuzz._lcs_length(a, b)


def test_interned_vocabulary_terms_are_one_object():
    assert RDF.type is RDF.type
    assert RDFS.label is RDFS.label
    assert PROV.wasGeneratedBy is PROV.wasGeneratedBy
    assert RDFS.label == URI("http://www.w3.org/2000/01/rdf-schema#label")
    ns = Namespace("https://example.com/ns#")
    assert ns.split is not ns.split  # str methods stay methods
    assert isinstance(ns.split("#"), list)


def test_terms_hash_natively_and_compare_by_type():
    assert URI.__hash__ is str.__hash__
    assert hash(URI("x")) == hash("x")
    assert URI("x") != Literal("x")
    assert Literal("x") != URI("x")
    assert URI("x") != "x"
    assert "x" != URI("x")
    assert URI("x") != BNode("x")
    assert Literal("1", datatype="int") != Literal("1", datatype="date")
    keys = [URI("x"), BNode("x"), Literal("x"), Literal("x", lang="en"),
            Literal("x", datatype="d"), "x"]
    d = {k: i for i, k in enumerate(keys)}
    assert len(d) == len(keys)
    for i, k in enumerate(keys):
        assert d[k] == i
    assert len({URI("x"), URI("x"), BNode("x")}) == 2


def test_kg_kernel_time_smoke(capsys):
    """tools/kg_kernel_time.py runs the kernel in-process and prints its
    CPU times and the output digest, the same on every run."""
    import json

    out = _kernel_time_tool().main(["--docs", "6", "--runs", "2"])
    assert json.loads(capsys.readouterr().out) == out
    assert out["docs"] == 6 and len(out["process_time_s"]) == 2 and out["rows"] > 0
    assert len(out["digest"]) == 16 and "pin_ok" not in out


def _kernel_time_tool():
    import importlib.util
    import pathlib

    path = pathlib.Path(__file__).resolve().parents[1] / "tools" / "kg_kernel_time.py"
    spec = importlib.util.spec_from_file_location("kg_kernel_time", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_kg_rows_do_not_depend_on_batching():
    """``KGProcessDocs`` emits the seed-1 ``crawl_update`` rows whatever the
    batch size, and one processor reused across calls emits what fresh
    processors do: no term-table state leaks from one call to the next."""
    from perfbench.checks import TRIPLE_COLUMNS, digest
    from perfbench.workloads import CHUNKING, load_pins

    from ontocast_ray.pipelines.kg import KGProcessDocs, default_ontology_records
    from ontocast_ray.state.ontology_hub import seed_from_records

    tool = _kernel_time_tool()
    docs = tool.day2_docs(1, 1024)
    pin = load_pins()["crawl_update"]["1"]
    for rows in (1, 7, 64, 256):
        tables = tool.run_kernel(docs, rows)
        assert digest(tables, TRIPLE_COLUMNS) == (pin["triples"], pin["digest"]), rows
    seeds = seed_from_records(default_ontology_records())
    fresh = [KGProcessDocs(ontology_seeds=seeds, **CHUNKING)(docs.slice(i, 64))
             for i in range(0, 256, 64)]
    reused = KGProcessDocs(ontology_seeds=seeds, **CHUNKING)
    assert [reused(docs.slice(i, 64)) for i in range(0, 256, 64)] == fresh


def test_sublimate_splits_on_the_chunk_namespace():
    """A triple is a fact iff its subject or predicate, or its object when
    a URI, lies in the chunk namespace; a literal object never counts."""
    from ontocast_ray.stages.sublimate import sublimate_graph

    onto = URI("https://example.com/onto#Person")
    graph_in = [
        (URI(NS + "alice"), RDFS.label, Literal("Alice")),
        (onto, RDFS.label, Literal(NS + "looks like an IRI")),
        (onto, RDF.type, RDFS.Class),
        (BNode("b0"), URI(NS + "knows"), URI("https://example.com/x")),
        (BNode(NS + "b1"), RDFS.label, Literal("blank label in the namespace")),
        (onto, URI("https://example.com/onto#sameAs"), URI(NS + "bob")),
        (onto, URI("https://example.com/onto#sameAs"), BNode(NS + "b2")),
    ]
    from ontocast_ray.rdf.graph import TripleGraph

    addendum, facts = sublimate_graph(TripleGraph(graph_in), NS)
    assert list(facts) == [graph_in[0], graph_in[3], graph_in[4], graph_in[5]]
    assert list(addendum) == [graph_in[1], graph_in[2], graph_in[6]]
    assert dict(facts.namespaces()) == {"cd": NS}


def test_predicate_metadata_merges_across_chunks():
    """The same predicate described in two chunks keeps, per field, the
    first value given, replaced by a longer one (ref :147-172): for
    domain and range, the longer IRI."""
    from ontocast_ray.rdf.graph import TripleGraph
    from ontocast_ray.stages.canonicalize import ChunkGraph, ChunkGraphAggregator

    doc_ns = "https://example.com/doc/0123456789ab/"
    pred = URI(doc_ns + "worksAt")
    short, longer = URI("https://e.org/A"), URI("https://example.org/Company")

    def chunk(hid, domain, label):
        g = TripleGraph([(pred, RDFS.domain, domain), (pred, RDFS.label, Literal(label)),
                         (URI(doc_ns + "x"), pred, URI(doc_ns + "y"))])
        return ChunkGraph(hid=hid, doc_iri=doc_ns.rstrip("/"), graph=g)

    agg = ChunkGraphAggregator().aggregate_graphs(
        [chunk("c1", short, "works at company"), chunk("c2", longer, "works at")], doc_ns)
    # the chunks' own rdfs:domain triples are re-emitted under the grouped
    # predicate (rdfs:domain and rdfs:label share the local name rdf-schema)
    assert {o for s, p, o in agg if s == pred and p == RDFS.domain} == {longer}
    assert (pred, RDFS.label, Literal("works at company")) in agg
