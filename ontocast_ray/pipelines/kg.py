"""The flagship KG-construction pipeline (Ray-Data restructuring of the
reference's batch entry point, SURVEY §3.4):

    docs (doc_id, spans)
      → one block function (``_kg_blocks``): assemble_spans → KGProcessDocs
        per ≤batch_size docs [chunk → extract → canonicalize, no shuffle]
      → partitioned parquet + per-shard lineage manifests (resumable)

There is one execution path and no all-to-all exchange: the reference's
aggregation scope is strictly per document, so each document's chunks are
extracted and folded inside the call that chunked them. The block
function runs two ways. ``build_kg_pipeline`` maps it lazily, so driver
queries compose it. The resumable sink (``run_resumable``) runs it eagerly
with ``ops.shuffle.map_blocks``, one plain Ray task per doc block outside
Ray Data's streaming executor: the sink's write exchange materializes the
triples anyway (see ``sources.io``), and the blocks wait in the object
store, which spills. The ontology side-channel is the
OntologyHub named actor (broadcast-small reads once per actor + batched
commutative merges — not a shuffle), used by ``build_kg_pipeline``'s hub
branch only.
"""

from __future__ import annotations

from typing import Optional

import pyarrow as pa
import ray
import ray.data

from ontocast_ray.corpus import spanify_batch
from ontocast_ray.model import TRIPLES_SCHEMA
from ontocast_ray.ops.shuffle import map_blocks
from ontocast_ray.sources.io import _write_committed, committed_shards
from ontocast_ray.sources.ontologies import OntologyRecord, fetch_ontologies
from ontocast_ray.stages.assemble import assemble_spans
from ontocast_ray.stages.chunking import ChunkDocuments
from ontocast_ray.stages.extract import ExtractTriples
from ontocast_ray.state.ontology_hub import get_or_create_hub, seed_from_records
from ontocast_ray.util import hash_partition

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
    """Doc-atomic map_batches stage: chunk → extract → canonicalize per doc.

    The reference's aggregation scope is strictly per-document
    (aggregate_facts.py:23-25), and chunking emits all of a document's chunks
    in one call — so the whole per-doc path runs inside one call with no
    shuffle. At any scale, the only all-to-all left in the pipeline is the
    (optional) cross-document entity merge, which is salted by design.

    Composes ``self.chunker`` (``ChunkDocuments``) and ``self.extractor``
    (``ExtractTriples``: the extractor model plus the hub snapshot). Within a
    document, chunk i+1 sees the term labels chunk i's addendum defined
    (ref criticise_ontology.py:82-92); a new document starts from the
    snapshot again. With a hub, the batch's addenda are merged into it once
    per call. Output: TRIPLES_SCHEMA rows — per chunk, its ontology addendum
    and status rows; per document, its aggregated facts (``chunk_idx`` -1).
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
        )

    def __call__(self, batch):
        """Chunk the batch, then per doc: extract each chunk in chunk_idx
        order and fold the chunk graphs in memory into the doc's facts.

        Every graph holds ids of one term table per call; an extractor model
        that returns term objects is encoded into it. The rows of the whole
        call come out of ``model.graph_to_rows`` at once."""
        import inspect

        import ontocast_ray.model
        from ontocast_ray.functions.uris import iri2namespace
        from ontocast_ray.rdf.table import LABEL, TermTable
        from ontocast_ray.stages.canonicalize import ChunkGraph, ChunkGraphAggregator
        from ontocast_ray.stages.extract import status_graph

        chunks = self.chunker(batch)
        model = self.extractor.extractor
        params = inspect.signature(model.process_chunk).parameters
        supports_extra, supports_terms = "extra_known" in params, "terms" in params
        max_visits = self.extractor.max_visits
        hub, hub_version = self.extractor._hub, self.extractor._snapshot_version

        doc_ids = chunks["doc_id"].to_pylist()
        doc_iris = chunks["doc_iri"].to_pylist()
        chunk_idxs = chunks["chunk_idx"].to_pylist()
        chunk_hids = chunks["chunk_hid"].to_pylist()
        texts = chunks["text"].to_pylist()

        # group chunk row indices per doc (contiguous, chunk order preserved)
        by_doc: dict[str, list[int]] = {}
        for i, d in enumerate(doc_ids):
            by_doc.setdefault(d, []).append(i)

        terms = TermTable()
        is_literal, value = terms.is_literal, terms.value
        aggregator = ChunkGraphAggregator()
        triples: list = []
        # per emitted graph: (rows, doc_id, doc_iri, chunk_hid, chunk_idx, scope)
        segments: list = []
        deltas: dict[str, list] = {}
        for doc_id, idxs in by_doc.items():
            doc_iri = doc_iris[idxs[0]]
            doc_known: set = set()
            chunk_graphs: list[ChunkGraph] = []
            for i in idxs:
                kwargs = {"extra_known": doc_known} if supports_extra else {}
                if supports_terms:
                    kwargs["terms"] = terms
                result = model.process_chunk(
                    texts[i], doc_iri, chunk_hids[i], max_visits=max_visits, **kwargs
                )
                if not supports_terms:
                    result.facts = terms.encode_graph(result.facts)
                    result.ontology_addendum = terms.encode_graph(result.ontology_addendum)
                addendum = result.ontology_addendum
                for s, p, o in addendum:
                    if p == LABEL and is_literal[o]:
                        doc_known.add(value[o].lower())
                chunk_iri = f"{doc_iri}/chunk/{chunk_hids[i]}"
                status = status_graph(result, chunk_iri, hub_version, terms)
                for graph, scope in ((addendum, "ontology"), (status, "status")):
                    triples.extend(graph)
                    segments.append(
                        (len(graph), doc_id, doc_iri, chunk_hids[i], chunk_idxs[i], scope))
                if hub is not None and len(addendum):
                    deltas.setdefault(result.ontology_id, []).extend(terms.cells(addendum))
                chunk = ChunkGraph(hid=chunk_hids[i], doc_iri=doc_iri, graph=result.facts)
                chunk.sanitize()  # ref aggregate_facts.py:20-21
                chunk_graphs.append(chunk)

            aggregated = aggregator.aggregate_graphs(chunk_graphs, iri2namespace(doc_iri), terms)
            triples.extend(aggregated)
            segments.append((len(aggregated), doc_id, doc_iri, "", -1, "facts"))

        if deltas:
            import ray

            refs = [
                hub.merge_delta.remote(oid, None, cells)
                for oid, cells in deltas.items()
            ]
            ray.wait(refs, num_returns=len(refs))

        return ontocast_ray.model.graph_to_rows(terms, triples, segments)


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
    batch_size: int = 64,
    max_visits: int = 3,
    min_chunk_size: int = 2000,
    max_chunk_size: int = 20000,
    max_chunks: Optional[int] = None,
) -> "ray.data.Dataset":
    """docs (DOCS_SCHEMA) → canonicalized triple rows (TRIPLES_SCHEMA), lazily.

    Without a ``hub_name`` the stage is one task map of ``_kg_blocks``'s
    block function over batches of ``batch_size`` docs, the function that
    ``run_resumable`` runs eagerly. With one, spans are assembled and a pool
    of 2-4 ``KGProcessDocs`` actors, each holding the hub snapshot, runs
    the kernel and merges its addenda into the hub.
    """
    if hub_name is not None:
        get_or_create_hub(_ontology_seeds(ontology_dir, ontology_records), name=hub_name)
        # Actors exist to amortize expensive or mutable shared state: the hub is
        # the latter. The deterministic processor's own state (compiled regexes,
        # tiny ontology views) costs ~ms, so the task branch keeps a per-worker
        # processor cache instead.
        return docs.map_batches(
            assemble_spans, batch_format="pyarrow", batch_size=batch_size,
        ).map_batches(
            KGProcessDocs,
            fn_constructor_kwargs={
                "ontology_seeds": None,
                "hub_name": hub_name,
                "domain": domain,
                "max_visits": max_visits,
                "min_chunk_size": min_chunk_size,
                "max_chunk_size": max_chunk_size,
                "max_chunks": max_chunks,
            },
            batch_format="pyarrow",
            batch_size=batch_size,
            # no AllToAll downstream to starve → high-minimum pool is safe
            # and avoids the autoscaler's slow ramp from 1 actor
            concurrency=(2, 4),
        )
    return docs.map_batches(
        _kg_blocks(ontology_dir=ontology_dir, ontology_records=ontology_records,
                   domain=domain, batch_size=batch_size, max_visits=max_visits,
                   min_chunk_size=min_chunk_size, max_chunk_size=max_chunk_size,
                   max_chunks=max_chunks),
        batch_format="pyarrow",
        batch_size=batch_size,
    )


def _ontology_seeds(ontology_dir: Optional[str], ontology_records) -> list[dict]:
    """The hub/processor seeds of ``ontology_records``, else of the
    ontologies under ``ontology_dir``, else of the default records."""
    if ontology_records is None:
        ontology_records = (
            fetch_ontologies(ontology_dir) if ontology_dir else default_ontology_records()
        )
    return seed_from_records(ontology_records)


def _kg_blocks(
    keep=None,
    n_shards: Optional[int] = None,
    ontology_dir: Optional[str] = None,
    ontology_records: Optional[list[OntologyRecord]] = None,
    domain: str = DEFAULT_DOMAIN,
    batch_size: int = 64,
    max_visits: int = 3,
    min_chunk_size: int = 2000,
    max_chunk_size: int = 20000,
    max_chunks: Optional[int] = None,
):
    """→ the KG stage as one block function: ``keep`` (a docs filter, or
    None) → ``assemble_spans`` → the ``KGProcessDocs`` kernel, called once
    per slice of at most ``batch_size`` docs → with ``n_shards``, an int32
    ``part`` column of each row's shard, ``hash_partition(doc_id,
    n_shards)``. Its rows do not depend on how the docs are blocked.

    ``assemble_spans`` and the processor factory are read from this
    module's globals here, on the driver, so a caller that replaces them
    (perfbench's trace hooks, the worker-crash test) reaches the workers.
    The factory's config is the one the task branch always had, so a
    worker's cached processor serves either caller.
    """
    assemble = assemble_spans
    process = _kg_process_docs_task_factory({
        "ontology_seeds": _ontology_seeds(ontology_dir, ontology_records),
        "hub_name": None,
        "domain": domain,
        "max_visits": max_visits,
        "min_chunk_size": min_chunk_size,
        "max_chunk_size": max_chunk_size,
        "max_chunks": max_chunks,
    })

    def kg_block(block: pa.Table) -> pa.Table:
        docs = assemble(block if keep is None else keep(block))
        rows = [process(docs.slice(i, batch_size)) for i in range(0, len(docs), batch_size)]
        out = pa.concat_tables(rows) if rows else TRIPLES_SCHEMA.empty_table()
        if n_shards is None:
            return out
        return out.append_column("part", pa.array(hash_partition(out["doc_id"], n_shards)))

    return kg_block


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
    One pass, eager: ``map_blocks`` materializes ``docs`` and runs
    ``_kg_blocks``'s block function as one plain Ray task per doc block. It
    drops the docs of committed shards, runs the KG kernel and tags each
    triple row with its doc's shard. The sink's commit protocol
    (``sources.io``) then purges uncommitted shard directories, writes the
    triples through one ``shuffle_by(part)`` whose kernel writes one file
    per shard (one plain Ray task up to the exchange's 64 MiB gather limit,
    so a pass over materialized docs starts no Ray Data execution; above
    it, the sort path's reducers), and commits every shard only after the
    whole write, so a resume never duplicates rows; the trade-off is that a
    crash re-runs every uncommitted shard in one pass. At
    multi-node scale shards would be input-file groups; the hash keeps the
    same layout on one input file.

    ``pipeline_kwargs`` are ``build_kg_pipeline``'s, without ``hub_name``:
    the sink runs tasks only, so a hub raises TypeError.

    → {shards_total, shards_skipped, shards_run, rows_written, blocks}:
    ``rows_written`` sums the rows of the shards this run wrote, ``blocks``
    counts the triple blocks (one per doc block, so a collapse shows as a
    drop).
    """
    if "hub_name" in pipeline_kwargs:
        raise TypeError("run_resumable runs plain tasks and takes no hub_name; "
                        "build_kg_pipeline(hub_name=...) runs the hub's actor pool")
    done = committed_shards(out_dir)
    todo = [s for s in range(n_shards) if s not in done]
    stats = {"shards_total": n_shards, "shards_skipped": len(done), "shards_run": len(todo),
             "rows_written": 0, "blocks": 0}
    if not todo:
        return stats
    kg_block = _kg_blocks(_shard_filter_factory(done, n_shards), n_shards, **pipeline_kwargs)
    rows, stats["blocks"] = _write_committed(map_blocks(docs, kg_block), out_dir, "part",
                                             n_shards, done)
    stats["rows_written"] = sum(rows[s] for s in todo)
    return stats


def _shard_filter_factory(done: set[int], n_shards: int):
    """→ a batch map that drops the docs of the ``done`` shards."""
    import numpy as np

    skip = np.array(sorted(done), dtype=np.int32)

    def _filter(batch: pa.Table) -> pa.Table:
        return batch.filter(pa.array(~np.isin(hash_partition(batch["doc_id"], n_shards), skip)))

    return _filter
