"""Insertion-ordered triple graph with a prefix map.

Replaces the reference's ``RDFGraph(rdflib.Graph)`` (/root/reference/
ontocast/onto.py:139-420) inside per-chunk/per-doc kernels. Semantics kept:

- set-of-triples with dedup on add (rdflib store semantics);
- ``+`` = triple-set union + union of both prefix maps (onto.py:176-218);
- ``unbind_chunk_namespaces`` drops prefix bindings whose URI contains
  "/chunk/" while keeping all triples (onto.py:381-420);
- ``sanitize_prefixes_namespaces`` dedupes multiple prefixes bound to one
  URI, keeping the (shortest, alphabetically-first) prefix (onto.py:283-379;
  the reference's extra "Namespace-typed first" criterion is vacuous here
  because we have a single namespace representation).

Unlike rdflib, iteration order is **insertion order** (deterministic), which
is what makes the order-sensitive greedy disambiguation reproducible.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, Tuple

from ontocast_ray.rdf.terms import Literal, URI

Triple = Tuple[object, object, object]


class TripleGraph:
    __slots__ = ("_triples", "_prefixes")

    def __init__(self, triples: Optional[Iterable[Triple]] = None):
        self._triples: dict[Triple, None] = {}
        self._prefixes: dict[str, str] = {}
        if triples:
            for t in triples:
                self.add(t)

    # -- triple store ------------------------------------------------------
    def add(self, triple: Triple) -> "TripleGraph":
        self._triples[triple] = None
        return self

    def update(self, triples: Iterable[Triple]) -> "TripleGraph":
        """``add`` each of ``triples``, in order."""
        self._triples.update(dict.fromkeys(triples))
        return self

    def __iter__(self) -> Iterator[Triple]:
        return iter(self._triples)

    def __len__(self) -> int:
        return len(self._triples)

    def __contains__(self, triple: Triple) -> bool:
        return triple in self._triples

    def triples_set(self) -> set:
        return set(self._triples)

    # -- prefixes ----------------------------------------------------------
    def bind(self, prefix: str, uri: str, override: bool = True) -> None:
        if override or prefix not in self._prefixes:
            self._prefixes[prefix] = str(uri)

    def namespaces(self) -> Iterator[Tuple[str, str]]:
        return iter(self._prefixes.items())

    def prefix_map(self) -> dict[str, str]:
        return dict(self._prefixes)

    # -- reference-parity operations --------------------------------------
    def __add__(self, other: "TripleGraph") -> "TripleGraph":
        result = TripleGraph()
        for t in self:
            result.add(t)
        for t in other:
            result.add(t)
        for prefix, uri in self.namespaces():
            result.bind(prefix, uri)
        for prefix, uri in other.namespaces():
            result.bind(prefix, uri)
        return result

    def __iadd__(self, other: "TripleGraph") -> "TripleGraph":
        for t in other:
            self.add(t)
        for prefix, uri in other.namespaces():
            if prefix not in self._prefixes:
                self.bind(prefix, uri)
        return self

    def copy(self) -> "TripleGraph":
        g = TripleGraph()
        g._triples = dict(self._triples)
        g._prefixes = dict(self._prefixes)
        return g

    def unbind_chunk_namespaces(self, chunk_pattern: str = "/chunk/") -> "TripleGraph":
        """New graph with chunk-namespace prefix bindings dropped (triples kept)."""
        new_graph = TripleGraph()
        new_graph._triples = dict(self._triples)
        for prefix, uri in self._prefixes.items():
            if chunk_pattern not in uri:
                new_graph.bind(prefix, uri)
        return new_graph

    def sanitize_prefixes_namespaces(self) -> None:
        """Collapse duplicate prefix→URI bindings: shortest then alphabetical wins."""
        uri_to_prefixes: dict[str, list[str]] = {}
        for prefix, uri in self._prefixes.items():
            uri_to_prefixes.setdefault(uri, []).append(prefix)
        final: dict[str, str] = {}
        for uri, prefixes in uri_to_prefixes.items():
            prefixes.sort(key=lambda p: (len(p), p))
            final[prefixes[0]] = uri
        self._prefixes = final

    # -- queries used by kernels ------------------------------------------
    def subjects_with(self, predicate, obj=None):
        for s, p, o in self:
            if p == predicate and (obj is None or o == obj):
                yield s

    def objects_of(self, subject, predicate):
        for s, p, o in self:
            if s == subject and p == predicate:
                yield o
