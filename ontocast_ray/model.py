"""Arrow schemas for the engine's tables + triple-row ↔ graph converters.

The engine's wire format between Ray Data stages is columnar Arrow — RDF
graphs never cross stage boundaries as Python objects. A "graph" is a group
of triple rows sharing (doc_id[, chunk_hid]); URIs are stored **expanded**
(the reference also compares on expanded URIs internally — ref
/root/reference/ontocast/tool/aggregate.py:427-442).

Input table shape is the north-rule input_hint:
    doc_id: string,
    spans: list<struct<kind: string, text: string, media_ref: string, offset: int32>>
"""

from __future__ import annotations

from itertools import chain
from typing import Sequence

import numpy as np
import pyarrow as pa

from ontocast_ray.rdf.graph import TripleGraph
from ontocast_ray.rdf.table import TermTable
from ontocast_ray.rdf.terms import BNode, Literal, URI

SPAN_STRUCT = pa.struct(
    [
        pa.field("kind", pa.string()),
        pa.field("text", pa.string()),
        pa.field("media_ref", pa.string()),
        pa.field("offset", pa.int32()),
    ]
)

DOCS_SCHEMA = pa.schema(
    [
        pa.field("doc_id", pa.string()),
        pa.field("spans", pa.list_(SPAN_STRUCT)),
    ]
)

CHUNKS_SCHEMA = pa.schema(
    [
        pa.field("doc_id", pa.string()),
        pa.field("doc_hid", pa.string()),
        pa.field("doc_iri", pa.string()),
        pa.field("chunk_idx", pa.int32()),
        pa.field("chunk_hid", pa.string()),
        pa.field("text", pa.string()),
        pa.field("spans", pa.list_(SPAN_STRUCT)),
    ]
)

TRIPLES_SCHEMA = pa.schema(
    [
        pa.field("subject", pa.string()),
        pa.field("predicate", pa.string()),
        pa.field("object", pa.string()),
        pa.field("object_is_literal", pa.bool_()),
        pa.field("object_datatype", pa.string()),
        pa.field("object_lang", pa.string()),
        pa.field("doc_id", pa.string()),
        pa.field("doc_iri", pa.string()),
        pa.field("chunk_hid", pa.string()),
        pa.field("chunk_idx", pa.int32()),
        pa.field("graph_scope", pa.string()),  # "facts" | "ontology"
    ]
)

_BNODE_MARK = "_:"


def cell_to_term(value: str, is_literal: bool, datatype: str | None, lang: str | None):
    if is_literal:
        return Literal(value, datatype=datatype, lang=lang)
    if value.startswith(_BNODE_MARK):
        return BNode(value[len(_BNODE_MARK):])
    return URI(value)


def cell_to_node(value: str):
    if value.startswith(_BNODE_MARK):
        return BNode(value[len(_BNODE_MARK):])
    return URI(value)


def graph_to_rows(terms: TermTable, triples: list, segments: list) -> pa.Table:
    """One batch's graphs of ids → one TRIPLES_SCHEMA table.

    ``triples`` holds the (s, p, o) ids of every graph, graph after graph,
    each in insertion order; ``segments`` holds per graph its row count and
    (doc_id, doc_iri, chunk_hid, chunk_idx, graph_scope). The term columns
    are a ``take`` over ``terms``' cell columns, the graph columns a
    ``take`` over the segments."""
    spo = np.fromiter(chain.from_iterable(triples), dtype=np.int32, count=3 * len(triples))
    s, p, o = np.ascontiguousarray(spo.reshape(-1, 3).T)
    seg = np.repeat(np.arange(len(segments), dtype=np.int32),
                    np.fromiter((g[0] for g in segments), dtype=np.int64, count=len(segments)))
    value = pa.array(terms.value, pa.string())
    cols = [
        value.take(s), value.take(p), value.take(o),
        pa.array(terms.is_literal, pa.bool_()).take(o),
        pa.array(terms.datatype, pa.string()).take(o),
        pa.array(terms.lang, pa.string()).take(o),
    ]
    for k, name in enumerate(TRIPLES_SCHEMA.names[6:], start=1):
        typ = TRIPLES_SCHEMA.field(name).type
        cols.append(pa.array([g[k] for g in segments], typ).take(seg))
    return pa.Table.from_arrays(cols, schema=TRIPLES_SCHEMA)


def rows_to_graph(
    subjects: Sequence[str],
    predicates: Sequence[str],
    objects: Sequence[str],
    object_is_literal: Sequence[bool],
    object_datatype: Sequence[str | None],
    object_lang: Sequence[str | None],
) -> TripleGraph:
    """Column slices → TripleGraph, preserving row order."""
    g = TripleGraph()
    for s, p, o, lit, dt, lang in zip(
        subjects, predicates, objects, object_is_literal, object_datatype, object_lang
    ):
        g.add((cell_to_node(s), cell_to_node(p), cell_to_term(o, lit, dt, lang)))
    return g


def table_to_graph(table: pa.Table) -> TripleGraph:
    return rows_to_graph(
        table["subject"].to_pylist(),
        table["predicate"].to_pylist(),
        table["object"].to_pylist(),
        table["object_is_literal"].to_pylist(),
        table["object_datatype"].to_pylist(),
        table["object_lang"].to_pylist(),
    )
