"""Graph connectivity validation + auto-connection.

Faithful port of the reference's connectivity semantics
(/root/reference/ontocast/tool/validate.py:18-379):

- connected components over the *undirected* URI↔URI edge graph (literals are
  not entities);
- if more than one component, add a hub: the chunk IRI typed
  ``schema:TextDigitalDocument`` with label "Chunk {hid}", connected to one
  representative entity per component via ``schema:hasPart`` and a reverse
  ``prov:wasQuotedFrom``;
- representative choice (ref validate.py:346-379): prefer entities having an
  rdfs:label/rdfs:comment, then maximum degree. Where the reference's choice
  is set-iteration-order-dependent, we break ties by graph insertion order —
  deterministic, and triple-set cardinality is identical either way.

Unlike the reference (rdflib graph object), this operates on our
insertion-ordered TripleGraph of term ids (``rdf.table``); graphs here are
per-chunk (tens of triples), and the engine calls it inside a
``map_batches`` task, once per chunk row. ``connectivity_report`` and
``validate_and_connect(terms=None)`` take graphs of term objects.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from ontocast_ray.rdf.graph import TripleGraph
from ontocast_ray.rdf.namespaces import RDF, RDFS
from ontocast_ray.rdf.table import (
    COMMENT, HAS_PART, LABEL, TEXT_DOCUMENT, TYPE, WAS_QUOTED_FROM, TermTable,
)
from ontocast_ray.rdf.terms import URI


def _all_entities(graph: TripleGraph, terms: TermTable) -> list[int]:
    """Unique URI entities in insertion order (ref validate.py:94-108 uses a set)."""
    is_uri = terms.is_uri
    seen: dict[int, None] = {}
    for s, _, o in graph:
        if is_uri[s]:
            seen[s] = None
        if is_uri[o]:
            seen[o] = None
    return list(seen)


def find_connected_components(graph: TripleGraph, terms: TermTable) -> list[list[int]]:
    """BFS components over URI entities (ref validate.py:125-155), insertion-ordered."""
    is_uri = terms.is_uri
    adj: dict[int, dict[int, None]] = {}  # every URI entity, in order of first mention
    for s, _, o in graph:
        if is_uri[s]:
            s_adj = adj.setdefault(s, {})
            if is_uri[o]:
                s_adj[o] = None
                adj.setdefault(o, {})[s] = None
        elif is_uri[o]:
            adj.setdefault(o, {})
    visited: set[int] = set()
    components: list[list[int]] = []
    for entity in adj:
        if entity in visited:
            continue
        component: list[int] = []
        queue = deque([entity])
        while queue:
            current = queue.popleft()
            if current in visited:
                continue
            visited.add(current)
            component.append(current)
            for neighbor in adj[current]:
                if neighbor not in visited:
                    queue.append(neighbor)
        components.append(component)
    return components


def _degree_and_labeled(graph: TripleGraph) -> tuple[dict, set]:
    """One pass: per-term degree (count of triples where the term is s or o)
    and the set of subjects carrying rdfs:label/rdfs:comment."""
    degrees: dict = {}
    labeled: set = set()
    for s, p, o in graph:
        degrees[s] = degrees.get(s, 0) + 1
        degrees[o] = degrees.get(o, 0) + 1
        if p == LABEL or p == COMMENT:
            labeled.add(s)
    return degrees, labeled


def _choose_representative(component: list[int], degrees: dict, labeled: set) -> int:
    """Labeled entity with max degree, else max degree (ref validate.py:346-379).

    The reference recomputes degrees against the evolving graph per component;
    a single precomputed map gives identical choices because the triples
    added while connecting only touch the hub and earlier components'
    representatives — never members of a *later* component (components are
    disjoint and the hub is a fresh node; the hub-in-component edge case is
    handled by the caller updating the map incrementally)."""
    pool = [e for e in component if e in labeled] or component
    # max() keeps the first maximum → insertion order is the deterministic tiebreak
    return max(pool, key=lambda e: degrees.get(e, 0))


def make_graph_connected(graph: TripleGraph, chunk_iri: str, terms: TermTable) -> TripleGraph:
    """Connect components via a chunk-IRI hub (ref validate.py:283-344)."""
    components = find_connected_components(graph, terms)
    if len(components) <= 1:
        return graph
    connected = graph.copy()
    hub = terms.uri(chunk_iri)
    hub_id = chunk_iri.split("/")[-1]
    connected.add((hub, TYPE, TEXT_DOCUMENT))
    connected.add((hub, LABEL, terms.literal(f"Chunk {hub_id}")))
    degrees, labeled = _degree_and_labeled(connected)
    for component in components:
        representative = _choose_representative(component, degrees, labeled)
        connected.add((hub, HAS_PART, representative))
        connected.add((representative, WAS_QUOTED_FROM, hub))
        # keep the map faithful to the evolving graph (matters only if the
        # hub or an earlier representative appears in a later component)
        degrees[hub] = degrees.get(hub, 0) + 2
        degrees[representative] = degrees.get(representative, 0) + 2
    return connected


def validate_and_connect(
    graph: TripleGraph, chunk_iri: str, auto_connect: bool = True,
    terms: Optional[TermTable] = None,
) -> TripleGraph:
    """validate_and_connect_chunk semantics (ref validate.py:18-72).

    ``graph`` holds ids of ``terms``; with ``terms`` None it holds term
    objects, and so does the graph returned."""
    if not auto_connect:
        return graph
    if terms is None:
        terms = TermTable()
        return terms.decode_graph(
            make_graph_connected(terms.encode_graph(graph), chunk_iri, terms))
    return make_graph_connected(graph, chunk_iri, terms)


def validate_predicates(graph: TripleGraph) -> dict:
    """Predicate hygiene report (ref validate.py:157-248): label presence and
    domain/range consistency of predicate *usage* against declared types."""
    result = {
        "has_required_properties": True,
        "domain_range_consistent": True,
        "missing_labels": [],
        "domain_range_violations": [],
        "predicate_stats": {"total": 0, "with_labels": 0, "with_domains": 0, "with_ranges": 0},
    }
    predicates: dict[URI, None] = {}
    for _, pred, _ in graph:
        if isinstance(pred, URI):
            predicates.setdefault(pred, None)
    result["predicate_stats"]["total"] = len(predicates)

    # first declared rdf:type per subject (ref takes the first match)
    first_type: dict = {}
    for s, p, o in graph:
        if p == RDF.type and s not in first_type:
            first_type[s] = o

    for pred in predicates:
        has_label = has_domain = has_range = False
        domain = range_ = None
        for s, p, o in graph:
            if s == pred:
                if p == RDFS.label:
                    has_label = True
                    result["predicate_stats"]["with_labels"] += 1
                elif p == RDFS.domain:
                    has_domain, domain = True, o
                    result["predicate_stats"]["with_domains"] += 1
                elif p == RDFS.range:
                    has_range, range_ = True, o
                    result["predicate_stats"]["with_ranges"] += 1
        if not has_label:
            result["has_required_properties"] = False
            result["missing_labels"].append(str(pred))
        if has_domain or has_range:
            for s, p, o in graph:
                if p != pred:
                    continue
                if has_domain and isinstance(s, URI):
                    st = first_type.get(s)
                    if st is not None and domain is not None and st != domain:
                        result["domain_range_consistent"] = False
                        result["domain_range_violations"].append(
                            f"Subject {s} of type {st} used with predicate {pred} "
                            f"that requires domain {domain}"
                        )
                if has_range and isinstance(o, URI):
                    ot = first_type.get(o)
                    if ot is not None and range_ is not None and ot != range_:
                        result["domain_range_consistent"] = False
                        result["domain_range_violations"].append(
                            f"Object {o} of type {ot} used with predicate {pred} "
                            f"that requires range {range_}"
                        )
    return result


def connectivity_report(graph: TripleGraph) -> dict:
    """Summary stats matching ref validate.py:250-281 (component/entity counts)."""
    terms = TermTable()
    ids = terms.encode_graph(graph)
    components = find_connected_components(ids, terms)
    report = {
        "is_fully_connected": len(components) <= 1,
        "num_components": len(components),
        "total_entities": len(_all_entities(ids, terms)),
        "largest_component_size": max((len(c) for c in components), default=0),
        "isolated_entities": [terms.decode(c[0]) for c in components if len(c) == 1],
    }
    report.update(validate_predicates(graph))  # ref validate.py:277-279
    return report
