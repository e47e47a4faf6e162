"""The flagship KG-construction pipeline (Ray-Data restructuring of the
reference's batch entry point, SURVEY §3.4):

    docs (doc_id, spans)
      → map_batches(KGProcessDocs)                 [default "fused" mode: one actor
                                                    task per doc batch runs chunk →
                                                    extract → canonicalize, no shuffle]
      → materialize → partitioned parquet + per-shard lineage manifests (resumable)

mode="staged" splits the fused stage:

      → map_batches(ChunkDocuments)                [actor pool: embedder state]
      → map_batches(ExtractTriples)                [actor pool: extractor + hub snapshot]
      → shuffle_by(doc_id, canonicalize_partition) [the one all-to-all exchange]

``build_kg_pipeline`` streams: the fused default has no all-to-all exchange
at all (reference semantics are strictly per-document), and staged mode has
one, on doc_id. The resumable sink (``run_resumable``) materializes the
triples before its coalescing write, so the KG stage runs one task per doc
block instead of being fused into, and serialized by, the write (see
``sources.io``); the blocks wait in the object store, which spills. The
ontology side-channel is the
OntologyHub named actor (broadcast-small reads once per actor + batched
commutative merges — not a shuffle).
"""

from __future__ import annotations

from typing import Optional

import ray
import ray.data

from ontocast_ray.corpus import spanify_batch
from ontocast_ray.sources.io import _write_committed, committed_shards
from ontocast_ray.sources.ontologies import OntologyRecord, fetch_ontologies
from ontocast_ray.stages.assemble import assemble_spans
from ontocast_ray.stages.chunking import ChunkDocuments
from ontocast_ray.stages.extract import ExtractTriples
from ontocast_ray.state.ontology_hub import get_or_create_hub, seed_from_records
from ontocast_ray.util import pool

DEFAULT_DOMAIN = "https://example.com"


def default_ontology_records() -> list[OntologyRecord]:
    """Two tiny seed ontologies (synthetic analogues of the reference's
    criminal/fin-securities pair — ref test_00_tools.py expects exactly 2)."""
    from ontocast_ray.rdf import parse_turtle

    corp = """
    @prefix owl: <http://www.w3.org/2002/07/owl#> .
    @prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
    @prefix rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> .
    @prefix dcterms: <http://purl.org/dc/terms/> .
    @prefix corp: <https://example.com/corp#> .
    <https://example.com/corp#> a owl:Ontology ;
        rdfs:label "Corporate Ontology" ;
        dcterms:description "An ontology for people company organization employment works skill report filed located city" ;
        owl:versionInfo "1.0" .
    corp:Person a rdfs:Class ; rdfs:label "Person" .
    corp:Company a rdfs:Class ; rdfs:label "Company" .
    corp:worksAt a rdf:Property ; rdfs:label "works at" ;
        rdfs:domain corp:Person ; rdfs:range corp:Company .
    """
    sci = """
    @prefix owl: <http://www.w3.org/2002/07/owl#> .
    @prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
    @prefix dcterms: <http://purl.org/dc/terms/> .
    <https://example.com/sci#> a owl:Ontology ;
        rdfs:label "Science Ontology" ;
        dcterms:description "An ontology for experiments measurements instruments laboratory samples" ;
        owl:versionInfo "1.0" .
    """
    return [
        # sorted order mirrors the reference's sorted ttl glob
        _rec(corp),
        _rec(sci),
    ]


def _rec(ttl: str) -> OntologyRecord:
    from ontocast_ray.rdf import parse_turtle
    from ontocast_ray.sources.ontologies import ontology_from_graph

    return ontology_from_graph(parse_turtle(ttl))


class KGProcessDocs:
    """Fused doc-atomic actor stage: chunk → extract → canonicalize per doc.

    The reference's aggregation scope is strictly per-document
    (aggregate_facts.py:23-25), and chunking emits all of a document's chunks
    in one call — so the whole per-doc path can run inside ONE actor task
    with ZERO shuffle. This is the default execution mode: at any scale, the
    only all-to-all left in the pipeline is the (optional) cross-document
    entity merge, which is salted by design.

    The staged mode (mode="staged" in build_kg_pipeline) keeps extraction as
    its own actor-pool stage + a doc_id-partitioned canonicalize shuffle —
    preferable when extraction is expensive per chunk (live LLM) and chunk-
    level pipelining across actors matters more than shuffle cost.
    """

    def __init__(
        self,
        ontology_seeds: Optional[list[dict]] = None,
        hub_name: Optional[str] = None,
        domain: str = DEFAULT_DOMAIN,
        max_visits: int = 3,
        min_chunk_size: int = 2000,
        max_chunk_size: int = 20000,
        max_chunks: Optional[int] = None,
    ):
        self.chunker = ChunkDocuments(
            domain=domain,
            min_chunk_size=min_chunk_size,
            max_chunk_size=max_chunk_size,
            max_chunks=max_chunks,
        )
        self.extractor = ExtractTriples(
            ontology_seeds=ontology_seeds,
            hub_name=hub_name,
            domain=domain,
            max_visits=max_visits,
            merge_to_hub=hub_name is not None,
        )

    def __call__(self, batch):
        """Direct graph path: the per-doc fold runs on graphs in memory — no
        rows→graph round-trip between extract and canonicalize."""
        import inspect
        import pyarrow as pa

        from ontocast_ray.functions.uris import iri2namespace
        from ontocast_ray.model import TRIPLES_SCHEMA, concat_triple_columns, graph_to_rows
        from ontocast_ray.rdf.namespaces import RDFS
        from ontocast_ray.rdf.terms import Literal
        from ontocast_ray.stages.canonicalize import ChunkGraph, ChunkGraphAggregator
        from ontocast_ray.stages.extract import addendum_delta_rows, status_graph

        chunks = self.chunker(batch)
        model = self.extractor.extractor
        supports_extra = "extra_known" in inspect.signature(model.process_chunk).parameters
        max_visits = self.extractor.max_visits
        hub_version = self.extractor._snapshot_version

        doc_ids = chunks["doc_id"].to_pylist()
        doc_iris = chunks["doc_iri"].to_pylist()
        chunk_idxs = chunks["chunk_idx"].to_pylist()
        chunk_hids = chunks["chunk_hid"].to_pylist()
        texts = chunks["text"].to_pylist()

        # group chunk row indices per doc (contiguous, chunk order preserved)
        by_doc: dict[str, list[int]] = {}
        for i, d in enumerate(doc_ids):
            by_doc.setdefault(d, []).append(i)

        aggregator = ChunkGraphAggregator()
        parts = []
        deltas: dict[str, list] = {}
        for doc_id, idxs in by_doc.items():
            doc_iri = doc_iris[idxs[0]]
            doc_known: set = set()
            chunk_graphs: list[ChunkGraph] = []
            for i in idxs:
                if supports_extra:
                    result = model.process_chunk(
                        texts[i], doc_iri, chunk_hids[i], max_visits=max_visits,
                        extra_known=doc_known,
                    )
                else:
                    result = model.process_chunk(
                        texts[i], doc_iri, chunk_hids[i], max_visits=max_visits
                    )
                for s, p, o in result.ontology_addendum:
                    if p == RDFS.label and isinstance(o, Literal):
                        doc_known.add(str(o).lower())
                parts.append(
                    graph_to_rows(
                        result.ontology_addendum, doc_id=doc_id, doc_iri=doc_iri,
                        chunk_hid=chunk_hids[i], chunk_idx=chunk_idxs[i],
                        graph_scope="ontology",
                    )
                )
                parts.append(
                    graph_to_rows(
                        status_graph(result, f"{doc_iri}/chunk/{chunk_hids[i]}", hub_version),
                        doc_id=doc_id, doc_iri=doc_iri,
                        chunk_hid=chunk_hids[i], chunk_idx=chunk_idxs[i],
                        graph_scope="status",
                    )
                )
                if len(result.ontology_addendum):
                    deltas.setdefault(result.ontology_id, []).extend(
                        addendum_delta_rows(result.ontology_addendum)
                    )
                chunk = ChunkGraph(hid=chunk_hids[i], doc_iri=doc_iri, graph=result.facts)
                chunk.sanitize()  # ref aggregate_facts.py:20-21
                chunk_graphs.append(chunk)

            aggregated = aggregator.aggregate_graphs(chunk_graphs, iri2namespace(doc_iri))
            parts.append(
                graph_to_rows(
                    aggregated, doc_id=doc_id, doc_iri=doc_iri,
                    chunk_hid="", chunk_idx=-1, graph_scope="facts",
                )
            )

        if self.extractor.merge_to_hub and self.extractor._hub is not None and deltas:
            import ray

            refs = [
                self.extractor._hub.merge_delta.remote(oid, None, rows)
                for oid, rows in deltas.items()
            ]
            ray.wait(refs, num_returns=len(refs))

        cols = concat_triple_columns(parts)
        return pa.table(
            {
                name: pa.array(cols[name], type=TRIPLES_SCHEMA.field(name).type)
                for name in TRIPLES_SCHEMA.names
            }
        )


_TASK_PROCESSOR_CACHE: dict = {}


def _kg_process_docs_task_factory(cfg: dict):
    """Task-based wrapper with a per-worker-process processor cache."""
    import hashlib as _hl

    key = _hl.sha256(repr(sorted((k, repr(v)) for k, v in cfg.items())).encode()).hexdigest()

    def _process(batch):
        proc = _TASK_PROCESSOR_CACHE.get(key)
        if proc is None:
            proc = KGProcessDocs(**cfg)
            _TASK_PROCESSOR_CACHE[key] = proc
        return proc(batch)

    return _process


def build_kg_pipeline(
    docs: "ray.data.Dataset",
    ontology_dir: Optional[str] = None,
    ontology_records: Optional[list[OntologyRecord]] = None,
    domain: str = DEFAULT_DOMAIN,
    hub_name: Optional[str] = None,
    chunk_concurrency: int = 4,
    extract_concurrency: int = 4,
    batch_size: int = 64,
    max_visits: int = 3,
    min_chunk_size: int = 2000,
    max_chunk_size: int = 20000,
    max_chunks: Optional[int] = None,
    canonicalize_partitions: int = 64,
    mode: str = "fused",
) -> "ray.data.Dataset":
    """docs (DOCS_SCHEMA) → canonicalized triple rows (TRIPLES_SCHEMA).

    mode="fused" (default): doc-atomic chunk+extract+canonicalize in one
    actor pool, zero shuffle. mode="staged": separate chunk / extract actor
    pools + doc_id-partitioned canonicalize shuffle (LLM-mode pipelining).
    """
    if ontology_records is None:
        ontology_records = (
            fetch_ontologies(ontology_dir) if ontology_dir else default_ontology_records()
        )
    seeds = seed_from_records(ontology_records)
    if hub_name is not None:
        get_or_create_hub(seeds, name=hub_name)

    ds = docs.map_batches(assemble_spans, batch_format="pyarrow", batch_size=batch_size)

    if mode == "fused":
        cfg = {
            "ontology_seeds": None if hub_name else seeds,
            "hub_name": hub_name,
            "domain": domain,
            "max_visits": max_visits,
            "min_chunk_size": min_chunk_size,
            "max_chunk_size": max_chunk_size,
            "max_chunks": max_chunks,
        }
        # Actor pool vs tasks: actors exist to amortize EXPENSIVE per-worker
        # state (models, hub connections). The deterministic processor's
        # state is compiled regexes + tiny ontology views (~ms to build), so
        # plain tasks — which reuse Ray's prestarted worker processes instead
        # of spawning dedicated actor processes — start faster and schedule
        # freely. A per-worker processor cache keeps the build-once property.
        # With a hub (mutable shared state) or a real model, use the pool.
        if hub_name is not None:
            return ds.map_batches(
                KGProcessDocs,
                fn_constructor_kwargs=cfg,
                batch_format="pyarrow",
                batch_size=batch_size,
                # no AllToAll downstream to starve → high-minimum pool is safe
                # and avoids the autoscaler's slow ramp from 1 actor
                concurrency=(
                    max(1, max(chunk_concurrency, extract_concurrency) // 2),
                    max(chunk_concurrency, extract_concurrency),
                ),
            )
        return ds.map_batches(
            _kg_process_docs_task_factory(cfg),
            batch_format="pyarrow",
            batch_size=batch_size,
        )

    extract_kwargs: dict = {"domain": domain, "max_visits": max_visits}
    if hub_name is not None:
        extract_kwargs["hub_name"] = hub_name
    else:
        extract_kwargs["ontology_seeds"] = seeds
        extract_kwargs["merge_to_hub"] = False

    ds = ds.map_batches(
        ChunkDocuments,
        fn_constructor_kwargs={
            "domain": domain,
            "min_chunk_size": min_chunk_size,
            "max_chunk_size": max_chunk_size,
            "max_chunks": max_chunks,
        },
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=pool(chunk_concurrency),
    )
    ds = ds.map_batches(
        ExtractTriples,
        fn_constructor_kwargs=extract_kwargs,
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=pool(extract_concurrency),
    )
    from ontocast_ray.ops.shuffle import shuffle_by
    from ontocast_ray.stages.canonicalize_stage import canonicalize_partition

    return shuffle_by(
        ds, "doc_id", canonicalize_partition, canonicalize_partitions,
        batch_format="pyarrow",
    )


def spanify_flat_documents(
    flat_docs: "ray.data.Dataset", seed: int = 42, inject_entities: bool = False
) -> "ray.data.Dataset":
    """Driver's flat documents table → north-rule span-struct docs table."""
    return flat_docs.map_batches(
        lambda b: spanify_batch(b, seed=seed, inject_entities=inject_entities),
        batch_format="pyarrow",
    )


def run_resumable(
    docs: "ray.data.Dataset",
    out_dir: str,
    n_shards: int = 8,
    **pipeline_kwargs,
) -> dict:
    """Run the pipeline once over every uncommitted shard, into
    ``out_dir/part=<shard>/`` with committed lineage manifests.

    Shards partition the corpus by ``hash_partition(doc_id, n_shards)``.
    One pass: documents of committed shards are dropped before extraction,
    the pipeline runs once (one task per doc block), and each triple row is
    tagged with its doc's shard. The sink's commit protocol (``sources.io``)
    purges uncommitted shard directories, materializes the triples, writes
    them partitioned by shard and commits every shard only after the whole
    write, so a resume never duplicates rows; the trade-off is that a crash
    re-runs every uncommitted shard in one pass. At multi-node scale shards
    would be input-file groups; the hash keeps the same layout on one input
    file.

    → {shards_total, shards_skipped, shards_run, rows_written, blocks}:
    ``rows_written`` sums the rows of the shards this run wrote, ``blocks``
    counts the materialized triple blocks (one per doc block while the KG
    stage runs a task per block, so a collapse shows as a drop).
    """
    import pyarrow as pa

    from ontocast_ray.util import hash_partition

    done = committed_shards(out_dir)
    todo = [s for s in range(n_shards) if s not in done]
    stats = {"shards_total": n_shards, "shards_skipped": len(done), "shards_run": len(todo),
             "rows_written": 0, "blocks": 0}
    if not todo:
        return stats
    docs = docs.map_batches(_shard_filter_factory(done, n_shards), batch_format="pyarrow")
    triples = build_kg_pipeline(docs, **pipeline_kwargs).map_batches(
        lambda b: b.append_column("part", pa.array(hash_partition(b["doc_id"], n_shards))),
        batch_format="pyarrow",
    )
    # one file per ~200k rows per shard, not one per block
    rows, stats["blocks"] = _write_committed(
        triples, out_dir, "part", n_shards, done, min_rows_per_file=200_000
    )
    stats["rows_written"] = sum(rows[s] for s in todo)
    return stats


def _shard_filter_factory(done: set[int], n_shards: int):
    """→ a batch map that drops the docs of the ``done`` shards."""
    import numpy as np
    import pyarrow as pa

    from ontocast_ray.util import hash_partition

    skip = np.array(sorted(done), dtype=np.int32)

    def _filter(batch: pa.Table) -> pa.Table:
        return batch.filter(pa.array(~np.isin(hash_partition(batch["doc_id"], n_shards), skip)))

    return _filter
