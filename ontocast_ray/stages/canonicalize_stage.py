"""Ray stage wrapper for per-document canonicalization.

Shuffle #1 of the pipeline: all of a document's triple rows must co-locate
(the reference's aggregation is strictly per-document, ref
/root/reference/ontocast/agent/aggregate_facts.py:23-25). Chunk rows are
re-ordered by chunk_idx inside the group before the fold — the greedy
disambiguation is insertion-order dependent (SURVEY §7).

**Partitioning scheme**: a naive ``groupby("doc_id").map_groups`` pays one
Python kernel invocation + format conversion PER DOCUMENT — ruinous at
millions of docs. Instead the pipeline runs ``shuffle_by(ds, "doc_id",
canonicalize_partition, P)``: P balanced partitions of
``hash_partition(doc_id, P)`` (P scales with the cluster, not the corpus),
and the kernel loops the documents inside one Arrow table. Same exchange
volume, 1/thousands of the invocation count.

Non-fact rows (ontology addendum, status) pass through unchanged, so the
whole triple stream takes exactly one shuffle.
"""

from __future__ import annotations

import pyarrow as pa

from ontocast_ray.functions.uris import iri2namespace
from ontocast_ray.model import TRIPLES_SCHEMA, graph_to_rows, rows_to_graph
from ontocast_ray.stages.canonicalize import ChunkGraph, ChunkGraphAggregator


def canonicalize_doc_group(group: pa.Table) -> pa.Table:
    """Aggregate one document's fact triples; pass other scopes through."""
    scope = group["graph_scope"].to_pylist()
    fact_idx = [i for i, s in enumerate(scope) if s == "facts"]
    other_idx = [i for i, s in enumerate(scope) if s != "facts"]

    out_parts = []
    if other_idx:
        out_parts.append(group.take(other_idx))

    if fact_idx:
        facts = group.take(fact_idx)
        doc_id = facts["doc_id"][0].as_py()
        doc_iri = facts["doc_iri"][0].as_py()
        doc_namespace = iri2namespace(doc_iri)

        # split into per-chunk graphs, ordered by chunk_idx (determinism!)
        chunk_idxs = facts["chunk_idx"].to_pylist()
        chunk_hids = facts["chunk_hid"].to_pylist()
        per_chunk: dict[tuple, list[int]] = {}
        for i, (cidx, chid) in enumerate(zip(chunk_idxs, chunk_hids)):
            per_chunk.setdefault((cidx, chid), []).append(i)

        chunks = []
        for (cidx, chid) in sorted(per_chunk.keys()):
            rows = facts.take(per_chunk[(cidx, chid)])
            graph = rows_to_graph(
                rows["subject"].to_pylist(),
                rows["predicate"].to_pylist(),
                rows["object"].to_pylist(),
                rows["object_is_literal"].to_pylist(),
                rows["object_datatype"].to_pylist(),
                rows["object_lang"].to_pylist(),
            )
            chunk = ChunkGraph(hid=chid, doc_iri=doc_iri, graph=graph)
            chunk.sanitize()  # ref aggregate_facts.py:20-21
            chunks.append(chunk)

        aggregator = ChunkGraphAggregator()
        aggregated = aggregator.aggregate_graphs(chunks, doc_namespace)
        cols = graph_to_rows(
            aggregated,
            doc_id=doc_id,
            doc_iri=doc_iri,
            chunk_hid="",
            chunk_idx=-1,
            graph_scope="facts",
        )
        out_parts.append(
            pa.table(
                {
                    name: pa.array(cols[name], type=TRIPLES_SCHEMA.field(name).type)
                    for name in TRIPLES_SCHEMA.names
                }
            )
        )

    if not out_parts:
        return TRIPLES_SCHEMA.empty_table()
    return pa.concat_tables(out_parts, promote_options="default")


def canonicalize_partition(group: pa.Table) -> pa.Table:
    """Kernel for one doc_id-hash partition: loop the documents inside it."""
    doc_ids = group["doc_id"].to_pylist()
    by_doc: dict[str, list[int]] = {}
    for i, d in enumerate(doc_ids):
        by_doc.setdefault(d, []).append(i)
    outs = []
    for d in sorted(by_doc):
        outs.append(canonicalize_doc_group(group.take(by_doc[d])))
    return pa.concat_tables(outs, promote_options="default")
