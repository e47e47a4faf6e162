"""The KG kernel's term table: a per-call dictionary encoding of RDF terms.

``KGProcessDocs`` encodes every term of one call once, into one
``TermTable``. Inside the kernel a graph is a ``TripleGraph`` of
``(s, p, o)`` int tuples that index the table, so dedup, insertion order
and the type-aware equality of the term classes all hold on plain ints
(the dictionary encoding of triple stores). The rows of the whole call
come out once, by ``take`` over the table's cell columns
(``model.graph_to_rows``).

Keys: a URI by its plain ``str``, a blank node by ``"_:" + label`` and a
literal by ``(value, datatype, lang)``, so two ids are equal exactly when
the terms are. Every table starts with the vocabulary ``VOCAB`` at fixed
ids (``LABEL``, ``TYPE``, ...), which the kernels compare as ints.

The term classes stay at the edges: ``encode_graph``/``decode_graph``
convert a ``TripleGraph`` of terms, which is what Turtle, parity, the CLI,
the server, the hub and any extractor model that returns terms work with.
"""

from __future__ import annotations

from ontocast_ray.functions.uris import derive_ontology_id
from ontocast_ray.rdf.graph import TripleGraph
from ontocast_ray.rdf.namespaces import PROV, RDF, RDFS, SCHEMA
from ontocast_ray.rdf.terms import BNode, Literal, URI

_BNODE_MARK = "_:"

VOCAB = tuple(
    str(term)
    for term in (
        RDFS.label, RDFS.comment, RDFS.domain, RDFS.range, RDFS.Class,
        RDF.type, RDF.Property,
        PROV.Entity, PROV.wasPartOf, PROV.wasGeneratedBy, PROV.wasQuotedFrom,
        SCHEMA.TextDigitalDocument, SCHEMA.hasPart,
    )
)
(
    LABEL, COMMENT, DOMAIN, RANGE, CLASS,
    TYPE, PROPERTY,
    PROV_ENTITY, WAS_PART_OF, WAS_GENERATED_BY, WAS_QUOTED_FROM,
    TEXT_DOCUMENT, HAS_PART,
) = range(len(VOCAB))


class TermTable:
    """Term ids of one call. Per id: the cell ``value`` (a blank node's is
    ``"_:" + label``), ``is_literal``, ``datatype`` and ``lang`` (the
    TRIPLES_SCHEMA object columns), ``is_uri``, and the local name
    (``local``, computed once)."""

    __slots__ = ("ids", "value", "is_literal", "is_uri", "datatype", "lang", "_local")

    def __init__(self):
        self.ids: dict = {}
        self.value: list[str] = []
        self.is_literal: list[bool] = []
        self.is_uri: list[bool] = []
        self.datatype: list = []
        self.lang: list = []
        self._local: dict[int, str] = {}
        for iri in VOCAB:
            self.uri(iri)

    def _add(self, key, value: str, is_uri: bool, is_literal: bool = False,
             datatype=None, lang=None) -> int:
        i = self.ids[key] = len(self.value)
        self.value.append(value)
        self.is_uri.append(is_uri)
        self.is_literal.append(is_literal)
        self.datatype.append(datatype)
        self.lang.append(lang)
        return i

    def uri(self, iri: str) -> int:
        """The id of the URI ``iri`` (a plain ``str``)."""
        i = self.ids.get(iri)
        return self._add(iri, iri, True) if i is None else i

    def bnode(self, label: str) -> int:
        key = _BNODE_MARK + label
        i = self.ids.get(key)
        return self._add(key, key, False) if i is None else i

    def literal(self, value: str, datatype=None, lang=None) -> int:
        key = (value, datatype or None, lang or None)
        i = self.ids.get(key)
        return self._add(key, value, False, True, key[1], key[2]) if i is None else i

    def local(self, i: int) -> str:
        """``derive_ontology_id`` of URI ``i``, once per id."""
        name = self._local.get(i)
        if name is None:
            name = self._local[i] = derive_ontology_id(self.value[i])
        return name

    def lexical(self, i: int) -> str:
        """The term's string form, as ``str(term)``: a blank node's label."""
        value = self.value[i]
        if self.is_uri[i] or self.is_literal[i]:
            return value
        return value[len(_BNODE_MARK):]

    # -- the term-class edge -----------------------------------------------
    def encode(self, term) -> int:
        if isinstance(term, Literal):
            return self.literal(str(term), term.datatype, term.lang)
        if isinstance(term, BNode):
            return self.bnode(str(term))
        return self.uri(str(term))

    def decode(self, i: int):
        value = self.value[i]
        if self.is_uri[i]:
            return URI(value)
        if self.is_literal[i]:
            return Literal(value, datatype=self.datatype[i], lang=self.lang[i])
        return BNode(value[len(_BNODE_MARK):])

    def encode_graph(self, graph: TripleGraph) -> TripleGraph:
        """A graph of terms → the same graph of ids (order and prefixes kept)."""
        enc = self.encode
        return _with_prefixes(
            TripleGraph().update((enc(s), enc(p), enc(o)) for s, p, o in graph), graph)

    def decode_graph(self, graph: TripleGraph) -> TripleGraph:
        dec = self.decode
        return _with_prefixes(
            TripleGraph().update((dec(s), dec(p), dec(o)) for s, p, o in graph), graph)

    def cells(self, graph: TripleGraph) -> list[tuple]:
        """Per triple: (subject, predicate, object, is_literal, datatype,
        lang), the TRIPLES_SCHEMA term cells."""
        v, lit, dt, lang = self.value, self.is_literal, self.datatype, self.lang
        return [(v[s], v[p], v[o], lit[o], dt[o], lang[o]) for s, p, o in graph]


def _with_prefixes(out: TripleGraph, source: TripleGraph) -> TripleGraph:
    for prefix, uri in source.namespaces():
        out.bind(prefix, uri)
    return out
