"""Sublimation: split a chunk graph into ontology-addendum vs pure-fact triples.

Port of the reference's two SPARQL SELECT filters
(/root/reference/ontocast/agent/sublimate_ontology.py:31-74): a triple is a
**fact** iff its subject or predicate starts with the chunk namespace, or its
object is an IRI starting with the chunk namespace; everything else is an
**ontology addendum** triple.

The split runs *inside* the extraction loop, once per chunk, where all
triples share one namespace — so it is a per-chunk graph kernel by design
(a cross-chunk Arrow filter would need a per-row namespace comparison, which
has no vectorized kernel and no call site in this engine).
"""

from __future__ import annotations

from typing import Optional

from ontocast_ray.rdf.graph import TripleGraph
from ontocast_ray.rdf.table import TermTable


def sublimate_graph(
    graph: TripleGraph, chunk_namespace: str, terms: Optional[TermTable] = None
) -> tuple[TripleGraph, TripleGraph]:
    """→ (ontology_addendum, facts_pure); prefix bindings per ref :24-29.

    ``graph`` holds ids of ``terms``; with ``terms`` None it holds term
    objects, and so do the two graphs returned. Each id is tested against
    the namespace once."""
    decode = terms is None
    if decode:
        terms = TermTable()
        graph = terms.encode_graph(graph)
    is_uri = terms.is_uri
    under = {
        i for i in {i for t in graph for i in t}
        if terms.lexical(i).startswith(chunk_namespace)
    }
    onto, facts = [], []
    for t in graph:
        s, p, o = t
        if s in under or p in under or (o in under and is_uri[o]):
            facts.append(t)
        else:
            onto.append(t)
    onto_graph, facts_graph = TripleGraph().update(onto), TripleGraph().update(facts)
    facts_graph.bind("cd", chunk_namespace)
    if decode:
        return terms.decode_graph(onto_graph), terms.decode_graph(facts_graph)
    return onto_graph, facts_graph
