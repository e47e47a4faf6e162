"""Driver contract for the graft builder (Ray Data target).

The driver initialises Ray BEFORE importing this module; nothing here calls
``ray.init()`` / ``ray.shutdown()``.

- ``entry()``: flagship KG-construction pipeline over /root/testdata/sf0.001
  documents wrapped into the north-rule span-struct shape (deterministic
  entity sentences interleaved — the driver's flat text has no extractable
  entities; FIXTURES.md §1 says the span table is synthesized by us).
- ``queries()``: one entry per implemented operator/pipeline (SURVEY.md §2 +
  the training-data ops). SQL-expressible ops have ``oracle_sql()`` twins
  with matching column names; stateful/hash/model ops have pinned goldens
  (``_GOLDEN_QUERIES``).
"""

from __future__ import annotations

import os
from collections.abc import Callable
from typing import Any

SF_DEFAULT = "/root/testdata/sf0.001"
KG_DOC_LIMIT = 500  # covers the whole documents table at sf0.001/sf0.01


def _read(sf_dir: str, table: str, columns=None, filter=None):
    """A lazy parquet read. A query that hands it to several eager ops (the
    near-dup queries' LSH and verify each materialize their docs)
    materializes it once: each op would otherwise read the parquet again."""
    import ray.data

    return ray.data.read_parquet(
        f"{sf_dir}/{table}.parquet", columns=columns, filter=filter
    )


# ---------------------------------------------------------------------------
# KG pipeline queries (no SQL equivalent → rows-only checks)


def _kg_docs(sf_dir: str, limit: int = KG_DOC_LIMIT):
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data

    from ontocast_ray.pipelines.kg import spanify_flat_documents

    flat = _read(sf_dir, "documents", columns=["doc_id", "text"])
    flat = flat.map_batches(
        lambda b: b.filter(pc.less(b["doc_id"], pa.scalar(limit))),
        batch_format="pyarrow",
    )
    return spanify_flat_documents(flat, seed=42, inject_entities=True)


# flagship triples are consumed by 8+ kg_* analytics queries; without a
# cache each one re-runs the whole extraction pipeline (~5 s per query at
# the sf0.01 gate). Key includes the Ray job id so a cached (materialized)
# dataset never outlives its session's object store.
_KG_TRIPLES_CACHE: dict = {}


def _q_kg_triples(sf_dir: str):
    """Flagship KG pipeline: spans -> chunk -> extract -> validate -> canonicalize; per-doc triples (golden; anchored by reference fixture replay P/R=1.0)."""
    import ray

    from ontocast_ray.pipelines.kg import build_kg_pipeline

    try:
        job = ray.get_runtime_context().get_job_id()
    except Exception:
        job = None
    key = (sf_dir, job)
    cached = _KG_TRIPLES_CACHE.get(key)
    if cached is not None:
        return cached
    out = build_kg_pipeline(
        _kg_docs(sf_dir),
        min_chunk_size=200,
        max_chunk_size=2000,
    ).materialize()
    _KG_TRIPLES_CACHE[key] = out
    return out


def _q_kg_chunks(sf_dir: str):
    """Span-aware semantic chunking of the interleaved docs (golden; span-sequence equality tested)."""
    from ontocast_ray.stages.assemble import assemble_spans
    from ontocast_ray.stages.chunking import ChunkDocuments

    docs = _kg_docs(sf_dir)
    ds = docs.map_batches(assemble_spans, batch_format="pyarrow")
    ds = ds.map_batches(
        ChunkDocuments(min_chunk_size=200, max_chunk_size=2000), batch_format="pyarrow"
    )
    return ds.select_columns(["doc_id", "doc_hid", "chunk_idx", "chunk_hid"])


def _q_kg_aggregated_facts(sf_dir: str):
    """Per-doc aggregation/disambiguation output of the KG pipeline (golden; 22-triple/1-component reference golden)."""
    import pyarrow as pa
    import pyarrow.compute as pc

    ds = _q_kg_triples(sf_dir)
    return ds.map_batches(
        lambda b: b.filter(pc.equal(b["graph_scope"], pa.scalar("facts"))),
        batch_format="pyarrow",
    ).select_columns(["doc_id", "subject", "predicate", "object", "object_is_literal"])


# ---------------------------------------------------------------------------
# SQL-checked queries


def _q_exact_dedup(sf_dir: str):
    """Exact dedup: sha inside map_batches (text never shuffles), one groupby keeping min doc_id + copy count."""
    from ontocast_ray.ops.dedup import exact_dedup

    return exact_dedup(_read(sf_dir, "documents", columns=["doc_id", "text"]))


def _q_token_stats(sf_dir: str):
    """Whitespace + BPE-ish token counts per doc - pure vectorized map."""
    from ontocast_ray.ops.text import token_stats

    return _read(sf_dir, "documents", columns=["doc_id", "text"]).map_batches(
        token_stats, batch_format="pyarrow"
    )


def _q_quality_stats(sf_dir: str):
    """Length/punct/alpha/stopword quality ratios - raw int/int IEEE divisions matching SQL bit-for-bit."""
    from ontocast_ray.ops.text import quality_stats

    return _read(sf_dir, "documents", columns=["doc_id", "text"]).map_batches(
        quality_stats, batch_format="pyarrow"
    )


def _q_lang_dist(sf_dir: str):
    """Documents per declared language - single small groupby."""
    from ray.data.aggregate import Count, Sum

    docs = _read(sf_dir, "documents", columns=["lang", "n_chars"])
    return docs.groupby("lang").aggregate(
        Count(alias_name="n_docs"), Sum("n_chars", alias_name="total_chars")
    )


def _q_events_by_type(sf_dir: str):
    """Events per type - canonical pre-aggregate groupby."""
    from ray.data.aggregate import Count, Max, Min

    events = _read(sf_dir, "events", columns=["event_type", "value"])
    return events.groupby("event_type").aggregate(
        Count(alias_name="n_events"),
        Min("value", alias_name="min_value"),
        Max("value", alias_name="max_value"),
    )


def _q_customers_by_region(sf_dir: str):
    """Star-schema broadcast join: customer ⋈ nation ⋈ region, dims broadcast."""
    import ray

    from ontocast_ray.ops.joins import BroadcastLookup
    from ray.data.aggregate import Count, Max, Min

    nation = {
        r["n_nationkey"]: r["n_regionkey"]
        for r in _read(sf_dir, "nation").take_all()
    }
    region = {
        r["r_regionkey"]: r["r_name"] for r in _read(sf_dir, "region").take_all()
    }
    # compose the two tiny dims driver-side: nationkey → region name
    lookup_ref = ray.put({nk: region[rk] for nk, rk in nation.items()})
    customers = _read(sf_dir, "customer", columns=["c_nationkey", "c_acctbal"])
    joined = customers.map_batches(
        BroadcastLookup(lookup_ref, "c_nationkey", "r_name"), batch_format="pyarrow"
    )
    return joined.groupby("r_name").aggregate(
        Count(alias_name="n_customers"),
        Min("c_acctbal", alias_name="min_acctbal"),
        Max("c_acctbal", alias_name="max_acctbal"),
    )


def _q_events_windowed(sf_dir: str):
    """Tumbling 1h window aggregates per user - pure-map window key + one groupby."""
    import pyarrow as pa

    from ontocast_ray.ops.windows import tumbling_window

    out = tumbling_window(
        _read(sf_dir, "events", columns=["user_id", "ts", "value"]), every="1h"
    )

    def cast_us(batch: pa.Table) -> pa.Table:
        i = batch.schema.get_field_index("window_start")
        return batch.set_column(
            i, "window_start", batch["window_start"].cast(pa.timestamp("us"))
        )

    return out.map_batches(cast_us, batch_format="pyarrow")


def _q_events_sessions(sf_dir: str):
    """Gap-based sessionization (30 min) - coarse colocate-by-user kernel, vectorized across keys."""
    from ontocast_ray.ops.windows import sessionize

    return sessionize(
        _read(sf_dir, "events", columns=["event_id", "user_id", "ts"]),
        gap_minutes=30.0,
    )


def _q_events_with_lag(sf_dir: str):
    """Per-key lag (previous event ts/value) - one coarse shuffle, groupby().shift kernel."""
    from ontocast_ray.ops.windows import with_previous_event

    return with_previous_event(
        _read(sf_dir, "events", columns=["event_id", "user_id", "ts", "value"])
    )


def _q_mad_outliers(sf_dir: str):
    """Robust per-user outlier flags |v - median| > 3·MAD — selection +
    one midpoint average, bit-exact vs the SQL median window oracle."""
    from ontocast_ray.ops.features import mad_outliers

    events = _read(sf_dir, "events", columns=["event_id", "user_id", "value"])
    return mad_outliers(events, key_col="user_id", value_col="value", k=3.0)


def _q_json_field(sf_dir: str):
    """Extract the integer 'k' property from the events JSON props column
    — one vectorized C regex per batch (flat-JSON fast path), zero
    shuffle. Oracle uses DuckDB's real JSON parser: identical on flat
    payloads by construction."""
    from ontocast_ray.ops.features import json_int_field

    events = _read(sf_dir, "events", columns=["event_id", "props"])
    return json_int_field(events, col="props", field="k", out_col="k")


def _q_event_sequences(sf_dir: str):
    """Per-user event-type journey in strict (ts, event_id) order — SQL
    string_agg ORDER BY mirror; byte-exact strings."""
    from ontocast_ray.ops.windows import event_sequences

    return event_sequences(
        _read(sf_dir, "events", columns=["event_id", "user_id", "ts", "event_type"])
    )


def _q_bucket_join(sf_dir: str):
    """Write orders and customer co-bucketed by custkey (shuffle paid once
    at write), then join them with ZERO shuffle — one task per bucket
    directory pair, column-pruned pyarrow reads, vectorized merge. The
    read-side payoff of the bucketed sink."""
    from ontocast_ray.ops.joins import bucket_join
    from ontocast_ray.sources.io import write_bucketed

    orders = _read(sf_dir, "orders", columns=["o_custkey", "o_orderkey"])
    cust = _read(sf_dir, "customer", columns=["c_custkey", "c_nationkey"])
    ldir = _index_scratch(sf_dir, "bucket_orders")
    rdir = _index_scratch(sf_dir, "bucket_customer")
    write_bucketed(orders, ldir, "o_custkey", n_buckets=8)
    write_bucketed(cust, rdir, "c_custkey", n_buckets=8)
    return bucket_join(
        ldir, rdir,
        key_col="o_custkey", right_key_col="c_custkey",
        left_cols=["o_orderkey"], right_cols=["c_nationkey"],
        n_buckets=8,
    )


def _q_rollup(sf_dir: str):
    """GROUP BY ROLLUP (source, lang) counts with 'ALL' sentinel levels —
    each batch emits all rollup levels from its already-aggregated
    partials (raw rows never fan out), one coarse shuffle sums."""
    from ontocast_ray.ops.features import rollup_counts

    docs = _read(sf_dir, "documents", columns=["source", "lang"])
    return rollup_counts(docs, ["source", "lang"])


def _q_rebalance_sample(sf_dir: str):
    """Language rebalancing: downsample English to 20%, Chinese to 50%,
    keep the tail — per-group Bernoulli at group rates via splitmix
    draws; pure map, mirrored by one SQL CASE over the same draws."""
    from ontocast_ray.ops.interleave import rebalance_sample

    docs = _read(sf_dir, "documents", columns=["doc_id", "lang"])
    return rebalance_sample(
        docs, rate_col="lang", rates={"en": 0.2, "zh": 0.5}, seed=21
    )


def _q_hourly_distinct_users(sf_dir: str):
    """Distinct users per tumbling hour — pure-map window key + the exact
    grouped COUNT DISTINCT (distinct_on combiner shuffle + tiny sum)."""
    from ontocast_ray.ops.joins import grouped_count_distinct
    from ontocast_ray.ops.windows import add_tumbling_window

    events = _read(sf_dir, "events", columns=["user_id", "ts"])
    windowed = events.map_batches(add_tumbling_window, batch_format="pyarrow")
    return grouped_count_distinct(
        windowed, group_col="window_start", key_col="user_id"
    )


def _q_funnel_users(sf_dir: str):
    """Ordered funnel: users whose (ts, event_id)-ordered journey contains
    view → … → click → … → purchase. Composes event_sequences (one coarse
    shuffle) with a vectorized regex over the journey strings — byte-
    identical inputs on both engines, so LIKE and re agree exactly."""
    import pyarrow as pa

    from ontocast_ray.ops.windows import event_sequences

    seqs = event_sequences(
        _read(sf_dir, "events", columns=["event_id", "user_id", "ts", "event_type"])
    )

    def funnel(batch: pa.Table) -> pa.Table:
        import pandas as pd

        s = batch["sequence"].to_pandas()
        hit = s.str.contains("view.*click.*purchase", regex=True).fillna(False)
        out = pa.table(
            {"user_id": batch["user_id"], "n_events": batch["n_events"]}
        )
        return out.filter(pa.Array.from_pandas(hit))

    return seqs.map_batches(funnel, batch_format="pyarrow")


def _q_negative_samples(sf_dir: str):
    """3 deterministic contrastive negatives per doc (dense 0..N-1 ids):
    pure map, zero shuffle, splitmix64 draws mirrored exactly in SQL."""
    from ontocast_ray.ops.interleave import negative_samples

    docs = _read(sf_dir, "documents", columns=["doc_id"])
    return negative_samples(docs, k=3, seed=100)


def _q_top_terms_per_source(sf_dir: str):
    """Per-source vocabulary profile: 5 most frequent terms per source
    (count desc, term asc). Combiner-first (group,term) counts + one
    coarse shuffle, then the top-k selector."""
    from ontocast_ray.ops.text import top_terms_per_group

    docs = _read(sf_dir, "documents", columns=["source", "text"])
    out = top_terms_per_group(docs, group_col="source", k=5)
    return out.select_columns(["source", "term", "n_count", "rank"])


def _q_interval_count(sf_dir: str):
    """Attribution window count: for each purchase, how many clicks by the
    same user in the preceding 30 minutes (inclusive bounds). Union-tag +
    one hash(key) shuffle; the range count is a difference of two
    vectorized cumulative as-of lookups — no per-key Python."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from ontocast_ray.ops.joins import interval_count_join

    events = _read(
        sf_dir, "events", columns=["event_id", "user_id", "ts", "event_type"]
    )

    def of_type(t):
        return lambda b: b.filter(
            pc.equal(b["event_type"], pa.scalar(t))
        ).drop_columns(["event_type"])

    purchases = events.map_batches(of_type("purchase"), batch_format="pyarrow")
    clicks = events.map_batches(of_type("click"), batch_format="pyarrow")
    return interval_count_join(
        purchases, clicks,
        key_col="user_id", ts_col="ts", left_id_col="event_id",
        window="30min", out_col="n_prior_clicks",
    )


def _q_grouped_count_distinct(sf_dir: str):
    """Exact per-type COUNT(DISTINCT user): distinct_on combiner shuffle +
    a tiny second coarse pass — the exact companion to the HLL sketch."""
    from ontocast_ray.ops.joins import grouped_count_distinct

    events = _read(sf_dir, "events", columns=["event_type", "user_id"])
    return grouped_count_distinct(
        events, group_col="event_type", key_col="user_id"
    )


def _q_window_first_last(sf_dir: str):
    """First/last-touch value per user per 1h tumbling window, ordered by
    (ts, event_id) — selection not arithmetic, so doubles are bit-exact
    vs the SQL row_number oracle."""
    from ontocast_ray.ops.windows import window_first_last

    return window_first_last(
        _read(sf_dir, "events", columns=["event_id", "user_id", "ts", "value"]),
        every="1h",
    )


def _q_skew_join(sf_dir: str):
    """Skew-aware lineitem ⋈ supplier: measured per-key frequencies split
    the key space — keys with > 600 lineitems join map-side against
    broadcast supplier rows (never shuffled), the rest take the
    partitioned hash join. At sf0.01 both paths carry real rows (counts
    span 541-663). Result is identical to a plain SQL equi-join."""
    from ontocast_ray.ops.joins import skew_join

    return skew_join(
        _read(sf_dir, "lineitem", columns=["l_orderkey", "l_suppkey", "l_linenumber"]),
        _read(sf_dir, "supplier", columns=["s_suppkey", "s_nationkey"]),
        left_on="l_suppkey",
        right_on="s_suppkey",
        left_cols=["l_orderkey", "l_linenumber"],
        right_cols=["s_nationkey"],
        hot_threshold=600,
    )


def _q_triangles(sf_dir: str):
    """Exact triangle count of the supplier co-occurrence graph (suppliers
    sharing ≥30 orders): self-join → thresholded pair counts
    (``shuffle_by`` on the packed pair key) → degree-ordered wedge
    semi-join. The degree orientation bounds per-node wedge work at
    O(√m²) — the skew defusal a naive wedge join lacks."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa

    from ontocast_ray.ops.graph_cc import triangle_count
    from ontocast_ray.ops.joins import hash_join
    from ontocast_ray.ops.shuffle import shuffle_by

    li = _read(sf_dir, "lineitem", columns=["l_orderkey", "l_suppkey"])
    rhs = li.map_batches(
        lambda b: pa.table({"o2": b["l_orderkey"], "s_b": b["l_suppkey"]}),
        batch_format="pyarrow",
    )
    joined = hash_join(
        li, rhs, left_on="l_orderkey", right_on="o2",
        left_cols=["l_suppkey"], right_cols=["s_b"],
    )

    def pair_rows(batch: pa.Table) -> pa.Table:
        a = batch["l_suppkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        b = batch["s_b"].to_numpy(zero_copy_only=False).astype(np.int64)
        m = a < b
        return pa.table({"key": pa.array((a[m] << np.int64(31)) | b[m])})

    def thresholded(df: "pd.DataFrame") -> "pd.DataFrame":
        vc = df["key"].value_counts()
        keys = vc.index.to_numpy(np.int64)[vc.to_numpy() >= 30]
        return pd.DataFrame(
            {"u": keys >> np.int64(31), "v": keys & np.int64((1 << 31) - 1)}
        )

    edges = shuffle_by(
        joined.map_batches(pair_rows, batch_format="pyarrow"), "key",
        thresholded,
    )
    return triangle_count(edges)


def _q_minmax_scale(sf_dir: str):
    """Per-user min-max feature scaling of event values: one coarse
    hash(user)%P shuffle colocates each user's rows; min/max + scale in
    two C transforms per partition — no group table on the driver.
    min/max are order-free and the IEEE division matches the SQL window
    oracle bit-for-bit."""
    from ontocast_ray.ops.features import group_minmax_scale

    events = _read(sf_dir, "events", columns=["event_id", "user_id", "value"])
    return group_minmax_scale(events, key_col="user_id", value_col="value")


def _q_pivot_lang_source(sf_dir: str):
    """Long → wide count crosstab (docs per source × language): per-batch
    crosstab combiner, then a coarse-partition sum — the shuffle carries
    one row per (batch, source), never the documents."""
    from ontocast_ray.ops.features import pivot_counts

    docs = _read(sf_dir, "documents", columns=["source", "lang"])
    return pivot_counts(
        docs, row_col="source", col_col="lang",
        categories=["de", "en", "es", "fr", "zh"],
    )


def _q_dup_span_stats(sf_dir: str):
    """Per-document duplicated-span stats (ExactSubstr signal): distinct
    3-word shingles per doc and how many appear in ≥1 other doc. Rolling
    FNV gram hashes, one gram-keyed shuffle, doc-keyed sum — oracle
    re-derives with exact string shingles + self-count."""
    from ontocast_ray.ops.dedup import dup_span_stats

    docs = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return dup_span_stats(docs, k=3)


def _q_knn_ivf_join(sf_dir: str):
    """IVF-bucketed approximate kNN self-join (the scale path of the
    exact join: candidates from own cluster, queries probe 2 of 8
    clusters — compute ~n²/4 instead of n²). Seed-deterministic
    (kmeans_lite head sample) → golden oracle."""
    from ontocast_ray.ops.similarity import knn_join_ivf

    emb = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    return knn_join_ivf(emb, k=5, n_clusters=8, n_probe=2, sample_size=500)


def _q_classifier_curated_packing(sf_dir: str):
    """Round-4 composition, end-to-end verified: hashed-feature classifier
    gate (keep docs with positive raw score) → concat-and-split packing of
    the survivors — one streaming pipeline, one chained SQL oracle (the
    classifier's FNV-bucket CTE feeding the packing window prefix sum)."""
    import pyarrow as pa

    from ontocast_ray.ops.packing import pack_sequences
    from ontocast_ray.ops.text import quality_classifier_score

    docs = _read(sf_dir, "documents", columns=["doc_id", "text"])
    keep = quality_classifier_score(docs)

    def _keep_only(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return batch.filter(pc.equal(batch["keep"], True)).select(["doc_id"])

    # semi-join the corpus against the kept ids (WHERE EXISTS shape): only
    # distinct kept ids cross the wire, one coarse hash(doc_id)%P shuffle
    from ontocast_ray.ops.joins import hash_join

    kept_docs = hash_join(
        docs,
        keep.map_batches(_keep_only, batch_format="pyarrow"),
        left_on="doc_id",
        right_on="doc_id",
        left_cols=["text"],
        right_cols=[],
        how="semi",
    )
    return pack_sequences(kept_docs, capacity=64, shard_span=100)


def _q_knn_self_join(sf_dir: str):
    """Exact dataset-to-dataset kNN join (no broadcast side): every
    vector's top-5 cosine neighbors among all others, via bounded
    shard-pair reducers (max_rows_per_shard=200 forces the distributed
    pair-group path at gate SF). Cosine column dropped from the contract
    output (float-noise rank flips are the documented knn oracle risk;
    rank itself is deterministic at this SF)."""
    from ontocast_ray.ops.similarity import knn_self_join

    emb = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    out = knn_self_join(emb, k=5, max_rows_per_shard=200)
    return out.select_columns(["query_id", "neighbor", "rank"])


def _q_neardup_scrubbed_packing(sf_dir: str):
    """The DataComp/RefinedWeb curation order, end-to-end verified:
    doc-level near-dedup (MinHash→LSH→exact-Jaccard verify→CC keep-list→
    Bloom-pruned anti-join) → span-level ExactSubstr scrub over the
    SURVIVORS (gram counts re-derived on the filtered corpus) →
    concat-and-split packing. One streaming Dataset pipeline; one chained
    SQL oracle (recursive keep-list closure + positional-gram mask +
    window prefix sum)."""
    from ontocast_ray.ops.dedup import (
        minhash_lsh_candidates,
        ngram_jaccard_verify,
        remove_dup_spans,
    )
    from ontocast_ray.ops.graph_cc import apply_keep_list, dedup_keep_list
    from ontocast_ray.ops.packing import pack_sequences

    docs = _read(sf_dir, "documents", columns=["doc_id", "text"]).materialize()
    pairs = minhash_lsh_candidates(docs, num_perm=64, bands=16, shingle_k=3)
    verified = ngram_jaccard_verify(docs, pairs, threshold=0.8, shingle_k=3)
    # the scrub consumes its input lineage twice (gram pass + doc rows) and
    # pack re-reads once more — materialize the filtered corpus ONCE so the
    # minhash→verify→CC chain doesn't re-execute per consumer (object-store
    # backed and spillable; the same reason pack_token_meta materializes).
    kept = apply_keep_list(docs, dedup_keep_list(verified)).materialize()
    scrubbed = remove_dup_spans(kept, k=3).materialize()
    return pack_sequences(scrubbed, capacity=64, shard_span=100)


def _q_quality_classifier(sf_dir: str):
    """fastText-style hashed-feature linear quality scorer (CCNet/DataComp
    classifier gate): integer marker weights over FNV-hashed bag-of-words
    buckets — exact int64 dot product, one double divide, broadcast
    weights, zero shuffles. Oracle re-derives the SAME FNV bucket per
    token in pure SQL (list_reduce + HUGEINT wrapping multiply), so even
    hash collisions agree across engines."""
    from ontocast_ray.ops.text import quality_classifier_score

    docs = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return quality_classifier_score(docs)


def _q_lpa_communities(sf_dir: str):
    """Deterministic synchronous Label Propagation (3 rounds) over the
    supplier↔customer bipartite graph — the graph-clustering step of
    entity resolution (communities INSIDE the components CC finds).
    Most-frequent-neighbour-label rule with smallest-label ties: no RNG,
    no visit order, bit-replayable by the generated-CTE SQL oracle."""
    from ontocast_ray.ops.graph_cc import label_propagation

    edges = _supplier_customer_edges(sf_dir).materialize()
    return label_propagation(edges, n_iters=3)


def _q_k_core(sf_dir: str):
    """K-core of the supplier↔customer graph (synchronous peeling to the
    unique fixpoint): degrees via the count combiner, low-degree nodes
    dropped with two partitioned anti-joins per round, one scalar to the
    driver per round. Oracle replays the peeling with generated
    fixed-round CTEs (the LPA/Lloyd pattern)."""
    from ontocast_ray.ops.graph_cc import k_core

    edges = _supplier_customer_edges(sf_dir)
    return k_core(edges, k=_K_CORE_K)


_K_CORE_K = 9


def _k_core_sql(k: int, rounds: int = 24) -> str:
    """Generated-CTE replay of synchronous k-core peeling — enough rounds
    that the fixpoint is reached at gate SF (peeling converges in a
    handful on this graph; non-convergence would surface as an oracle
    mismatch, never silently)."""
    parts = [
        """pairs AS (
            SELECT DISTINCT l.l_suppkey AS s, o.o_custkey AS c
            FROM lineitem l JOIN orders o ON l.l_orderkey = o.o_orderkey
        )""",
        """e0 AS (
            SELECT s AS src, c + 1000000 AS dst FROM pairs
            UNION ALL
            SELECT c + 1000000 AS src, s AS dst FROM pairs
        )""",
    ]
    # AS MATERIALIZED: each e{i}/d{i} is referenced 2-3 times per round —
    # default CTE inlining would expand the chain exponentially (observed
    # as "too many open files" from 3^rounds parquet scans)
    for i in range(rounds):
        parts.append(
            f"d{i} AS MATERIALIZED (SELECT src AS node, count(*) AS deg "
            f"FROM e{i} GROUP BY src)"
        )
        parts.append(f"""e{i + 1} AS MATERIALIZED (
            SELECT e.src, e.dst FROM e{i} e
            JOIN d{i} a ON e.src = a.node
            JOIN d{i} b ON e.dst = b.node
            WHERE a.deg >= {k} AND b.deg >= {k}
        )""")
    return (
        "WITH " + ",\n".join(parts)
        + f" SELECT src AS node, CAST(count(*) AS BIGINT) AS degree "
          f"FROM e{rounds} GROUP BY src"
    )


def _lpa_sql(n_iters: int = 3) -> str:
    """Generated-CTE SQL replay of deterministic synchronous LPA (the
    Lloyd-k-means oracle pattern): same bipartite edges as pagerank,
    same most-frequent/smallest-label adoption rule per round."""
    parts = [
        """pairs AS (
            SELECT DISTINCT l.l_suppkey AS s, o.o_custkey AS c
            FROM lineitem l JOIN orders o ON l.l_orderkey = o.o_orderkey
        )""",
        """edges AS (
            SELECT s AS src, c + 1000000 AS dst FROM pairs
            UNION ALL
            SELECT c + 1000000 AS src, s AS dst FROM pairs
        )""",
        """nodes AS (
            SELECT src AS node FROM edges UNION SELECT dst FROM edges
        )""",
        "lp0 AS (SELECT node, node AS label FROM nodes)",
    ]
    for i in range(n_iters):
        parts.append(f"""nb{i} AS (
            SELECT e.src AS node, l.label, count(*) AS c
            FROM edges e JOIN lp{i} l ON l.node = e.dst
            GROUP BY e.src, l.label
        )""")
        parts.append(f"""w{i} AS (
            SELECT node, label FROM (
                SELECT node, label,
                       row_number() OVER (PARTITION BY node
                                          ORDER BY c DESC, label ASC) AS rn
                FROM nb{i}
            ) WHERE rn = 1
        )""")
        parts.append(f"""lp{i + 1} AS (
            SELECT l.node, COALESCE(w.label, l.label) AS label
            FROM lp{i} l LEFT JOIN w{i} w USING (node)
        )""")
    return (
        "WITH " + ",\n".join(parts)
        + f" SELECT node, label FROM lp{n_iters}"
    )


def _q_bigram_coverage(sf_dir: str):
    """Bigram-coverage LM gate (the CCNet-perplexity-filter shape without
    a trained LM): per-doc fraction of word bigrams whose corpus count
    ≥ 3 — integer counts end-to-end, one IEEE divide. No broadcast, no
    driver set: bigram hashes are counted globally inside their own
    hash%P part, then per-doc partials sum on a doc shuffle."""
    from ontocast_ray.ops.text import bigram_coverage

    docs = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return bigram_coverage(docs, min_count=3)


def _q_incremental_dedup(sf_dir: str):
    """Incremental exact dedup (daily-crawl shape): the 'new batch' is the
    odd-id docs plus synthesized re-crawls (doc_id%10==0 docs re-tagged
    +1_000_000 — known-duplicate pages); the 'index' is the even-id docs.
    The re-crawls must all be anti-joined away; survivors are the odd docs
    deduped within the batch. Text never shuffles (sha inside map_batches
    both sides); the index ships one sha per doc into the partitioned
    anti join."""
    import pyarrow.compute as pc

    from ontocast_ray.ops.dedup import incremental_dedup

    docs = _read(sf_dir, "documents", columns=["doc_id", "text"])
    odd = docs.map_batches(
        lambda b: b.filter(pc.equal(pc.bit_wise_and(b["doc_id"], 1), 1)),
        batch_format="pyarrow",
    )
    def _recrawl(b):
        import numpy as np
        import pyarrow as pa

        mask = (b["doc_id"].to_numpy(zero_copy_only=False) % 10) == 0
        f = b.filter(pa.array(mask))
        return f.set_column(
            f.schema.get_field_index("doc_id"),
            "doc_id",
            pc.add(f["doc_id"], 1_000_000),
        )

    recrawl = docs.map_batches(_recrawl, batch_format="pyarrow")
    index = docs.map_batches(
        lambda b: b.filter(pc.equal(pc.bit_wise_and(b["doc_id"], 1), 0)),
        batch_format="pyarrow",
    )
    return incremental_dedup(odd.union(recrawl), index)


def _q_dsir_select(sf_dir: str):
    """DSIR importance resampling (Xie et al. 2023): fit hashed-unigram
    multinomials on target ('src0') vs raw corpora, weight every raw doc
    by an INTEGER-quantized base-2 log-likelihood ratio (bit-length
    arithmetic — bit-exact vs DuckDB's length(bin(x))), keep the top 25%
    by (weight DESC, doc_id). Fit is one map-combined pass bounded by the
    2^16 feature space; scoring is a zero-shuffle broadcast map."""
    from ontocast_ray.ops.dsir import dsir_select

    docs = _read(sf_dir, "documents", columns=["doc_id", "text", "source"])
    return dsir_select(docs, "src0", keep_frac=0.25)


def _dsir_sql(target: str = "src0", keep_frac: float = 0.25,
              n_features: int = 1 << 16, scale_bits: int = 30) -> str:
    """Full SQL re-derivation of DSIR: the same FNV-1a bucket per token
    (shared `_fnv_fold_sql`), target/raw bucket counts, the identical
    integer lambda via length(bin(...)) == int.bit_length, and the same
    deterministic (weight DESC, doc_id) top-fraction rule."""
    shift = 1 << scale_bits
    return f"""
        WITH toks AS (
          SELECT doc_id, COALESCE(source, '') AS source, w
          FROM documents,
               UNNEST(regexp_extract_all(lower(text), '[a-z]+')) AS t(w)
        ), hashed AS (
          SELECT doc_id, source, {_fnv_fold_sql('w', n_features)} AS bucket
          FROM toks
        ), counts AS (
          SELECT bucket,
                 CAST(sum(CASE WHEN source = '{target}' THEN 1 ELSE 0 END)
                      AS BIGINT) AS t_cnt,
                 CAST(sum(CASE WHEN source <> '{target}' THEN 1 ELSE 0 END)
                      AS BIGINT) AS r_cnt
          FROM hashed GROUP BY bucket
        ), tot AS (
          SELECT greatest(CAST(sum(t_cnt) AS HUGEINT), 1) AS T,
                 greatest(CAST(sum(r_cnt) AS HUGEINT), 1) AS R FROM counts
        ), lam AS (
          SELECT bucket,
                 CAST(length(bin(1 + (CAST(t_cnt AS HUGEINT) * {shift}) // T))
                      AS BIGINT)
               - CAST(length(bin(1 + (CAST(r_cnt AS HUGEINT) * {shift}) // R))
                      AS BIGINT) AS lam
          FROM counts, tot
        ), scored AS (
          SELECT h.doc_id, CAST(sum(l.lam) AS BIGINT) AS weight,
                 CAST(count(*) AS BIGINT) AS n_tokens
          FROM hashed h JOIN lam l USING (bucket)
          WHERE h.source <> '{target}'
          GROUP BY h.doc_id
        ), raws AS (
          SELECT d.doc_id, COALESCE(s.weight, 0) AS weight,
                 COALESCE(s.n_tokens, 0) AS n_tokens
          FROM documents d LEFT JOIN scored s USING (doc_id)
          WHERE COALESCE(d.source, '') <> '{target}'
        ), ranked AS (
          SELECT *, ROW_NUMBER() OVER (ORDER BY weight DESC, doc_id) AS rk
          FROM raws
        )
        SELECT doc_id, weight, n_tokens FROM ranked
        WHERE rk <= CAST(ceil({keep_frac} * (SELECT count(*) FROM raws))
                         AS BIGINT)
    """


def _fnv_fold_sql(col: str, n_features: int) -> str:
    """SQL expression: FNV-1a 64 of ``col``'s UTF-8 bytes, mod n_features —
    bit-exact vs `ontocast_ray.ops.text.fnv1a_words`. Wrapping multiply via
    32-bit constant halves in HUGEINT (same trick as the splitmix mirror).
    Shared by the quality-classifier and DSIR oracles."""
    prime = 1099511628211
    ch, cl = prime >> 32, prime & 0xFFFFFFFF
    e = "CAST(xor(acc, c) AS HUGEINT)"
    mul = (
        f"CAST(((({e}) * {cl}) + (((({e}) * {ch}) % 4294967296)"
        f" * 4294967296)) % 18446744073709551616 AS UBIGINT)"
    )
    return f"""CAST(list_reduce(
            list_prepend(CAST(14695981039346656037 AS UBIGINT),
                         list_transform(split({col}, ''),
                                        c -> CAST(ascii(c) AS UBIGINT))),
            (acc, c) -> {mul}
        ) % {n_features} AS BIGINT)"""


def _fnv_raw_sql(col: str) -> str:
    """SQL expression: the FULL 64-bit FNV-1a of ``col`` as UBIGINT (no
    modulus) — the raw-hash sibling of `_fnv_fold_sql`, for oracles that
    mix the hash further (Count-Min row buckets)."""
    prime = 1099511628211
    ch, cl = prime >> 32, prime & 0xFFFFFFFF
    e = "CAST(xor(acc, c) AS HUGEINT)"
    mul = (
        f"CAST(((({e}) * {cl}) + (((({e}) * {ch}) % 4294967296)"
        f" * 4294967296)) % 18446744073709551616 AS UBIGINT)"
    )
    return f"""list_reduce(
            list_prepend(CAST(14695981039346656037 AS UBIGINT),
                         list_transform(split({col}, ''),
                                        c -> CAST(ascii(c) AS UBIGINT))),
            (acc, c) -> {mul}
        )"""


def _cms_sql(depth: int = 4, width: int = 1024, threshold: int = 100) -> str:
    """Generated oracle: rebuild the Count-Min table in SQL (same FNV-1a
    word hash, same odd-multiplier top-bit row buckets via the HUGEINT
    wrapping multiply) and take min-over-rows estimates for the exact
    heavy terms."""
    import math as _m

    from ontocast_ray.ops.sketch import _CMS_MULS

    shift = 64 - int(_m.log2(width))

    def mul_shift(const: int) -> str:
        ch, cl = const >> 32, const & 0xFFFFFFFF
        e = "CAST(h64 AS HUGEINT)"
        return (
            f"CAST((({e} * {cl}) + ((({e} * {ch}) % 4294967296)"
            f" * 4294967296)) % 18446744073709551616 AS UBIGINT)"
            f" >> {shift}"
        )

    rows = " UNION ALL ".join(
        f"SELECT w, c, {j} AS j, CAST({mul_shift(m)} AS BIGINT) AS bucket"
        f" FROM th"
        for j, m in enumerate(_CMS_MULS[:depth])
    )
    return f"""
        WITH toks AS (
            SELECT w FROM documents,
                 UNNEST(regexp_extract_all(lower(text), '[a-z]+')) AS t(w)
        ), tc AS (
            SELECT w, count(*) AS c FROM toks GROUP BY w
        ), th AS (
            SELECT w, c, {_fnv_raw_sql('w')} AS h64 FROM tc
        ), tb AS (
            {rows}
        ), cms AS (
            SELECT j, bucket, CAST(sum(c) AS BIGINT) AS cnt
            FROM tb GROUP BY j, bucket
        ), heavy AS (
            SELECT w AS term, CAST(c AS BIGINT) AS n_count
            FROM tc WHERE c >= {threshold}
        )
        SELECT hv.term, hv.n_count, min(cms.cnt) AS n_est
        FROM heavy hv
        JOIN tb ON tb.w = hv.term
        JOIN cms ON cms.j = tb.j AND cms.bucket = tb.bucket
        GROUP BY 1, 2
    """


def _web_pipeline_sql() -> str:
    """Chained oracle for the full web front-half: every CTE is the
    already-proven fragment from url_dedup / blocked_domain_survivors /
    html_extracted_text / curated_packing, composed."""
    entity_quote = "'" * 4  # '' escape of a single quote inside SQL
    return r"""
        WITH raw AS (
            SELECT doc_id, text,
                   'HTTP://WWW.Site' || (doc_id % 5)
                   || '.Example.COM:80/p/' || (doc_id % 7)
                   || '/?b=' || (doc_id % 3)
                   || '&utm_source=feed&a=' || (doc_id % 2)
                   || '#s' || doc_id AS url,
                   '<HTML><head><script>var x=1;</script></head><body>'
                   || '<NAV id="n">menu</NAV><p class="a">' || text
                   || ' &nbsp;&amp; more</p><br/>'
                   || '<footer>(c) site</footer></body></html>' AS html
            FROM documents
        ), p AS (
            SELECT doc_id,
                   lower(regexp_extract(url,
                       '^([A-Za-z][A-Za-z0-9+.-]*)://', 1)) AS scheme,
                   lower(regexp_extract(url,
                       '^[A-Za-z][A-Za-z0-9+.-]*://([^/:?#]+)', 1)) AS host,
                   regexp_extract(url,
                       '^[A-Za-z][A-Za-z0-9+.-]*://[^/:?#]+:(\d+)', 1)
                       AS port,
                   regexp_extract(url,
                       '^[A-Za-z][A-Za-z0-9+.-]*://[^/?#]+(/[^?#]*)', 1)
                       AS path,
                   regexp_extract(url, '\?([^#]*)', 1) AS q
            FROM raw
        ), qs AS (
            SELECT *, array_to_string(list_sort(list_filter(
                       string_split(q, '&'),
                       x -> x <> '' AND NOT starts_with(x, 'utm_')
                            AND NOT starts_with(x, 'fbclid')
                            AND NOT starts_with(x, 'gclid'))), '&')
                       AS qsorted
            FROM p
        ), canon AS (
            SELECT doc_id,
                   CASE WHEN host LIKE 'www.%' THEN substr(host, 5)
                        ELSE host END AS nhost,
                   scheme || '://'
                   || (CASE WHEN host LIKE 'www.%' THEN substr(host, 5)
                            ELSE host END)
                   || (CASE WHEN port <> '' AND NOT (
                                (scheme = 'http' AND port = '80') OR
                                (scheme = 'https' AND port = '443'))
                            THEN ':' || port ELSE '' END)
                   || (CASE WHEN regexp_replace(path, '/+$', '') = ''
                            THEN '/'
                            ELSE regexp_replace(path, '/+$', '') END)
                   || (CASE WHEN qsorted <> '' THEN '?' || qsorted
                            ELSE '' END) AS url_canon
            FROM qs
        ), urlkeep AS (
            SELECT min(doc_id) AS doc_id FROM canon GROUP BY url_canon
        ), unblocked AS (
            SELECT r.doc_id, r.html
            FROM raw r
            JOIN urlkeep USING (doc_id)
            JOIN canon c ON c.doc_id = r.doc_id
            WHERE c.nhost NOT IN ('site1.example.com')
              AND NOT (c.nhost LIKE '%.site1.example.com')
        ), ext AS (
            SELECT doc_id,
                   trim(regexp_replace(
                       replace(replace(replace(replace(replace(replace(
                           regexp_replace(
                               regexp_replace(html,
                                   '<(script|style|nav|header|footer|aside)\b[^>]*>.*?</(?:script|style|nav|header|footer|aside)>',
                                   ' ', 'gis'),
                               '<[^>]*>', ' ', 'gs'),
                           '&nbsp;', ' '), '&lt;', '<'), '&gt;', '>'),
                           '&quot;', '"'), '&#39;', QUOTEREPL), '&amp;', '&'),
                       '[ \t\n\r\f\v]+', ' ', 'g'), ' ') AS text
            FROM unblocked
        ), gated AS (
            SELECT doc_id, text,
                   CASE WHEN trim(text) = '' THEN 0
                        ELSE len(regexp_split_to_array(trim(text), '\s+'))
                   END AS tok
            FROM ext
            WHERE len(regexp_extract_all(text, '[A-Za-z]'))::DOUBLE
                  / greatest(length(text), 1) >= 0.6
        ), winners AS (
            SELECT min(doc_id) AS doc_id, min(tok) AS n_tokens
            FROM gated GROUP BY text
        ), cum AS (
            SELECT doc_id, n_tokens,
                   COALESCE(SUM(n_tokens) OVER (
                       ORDER BY doc_id
                       ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING
                   ), 0) AS goff
            FROM winners
        )
        SELECT doc_id,
               doc_id // 100 AS shard,
               CAST(n_tokens AS BIGINT) AS n_tokens,
               CAST(goff AS BIGINT) AS global_offset,
               CAST(goff // 64 AS BIGINT) AS first_bin,
               CAST((goff + CASE WHEN n_tokens > 0 THEN n_tokens - 1 ELSE 0 END)
                    // 64 AS BIGINT) AS last_bin,
               CAST(goff % 64 AS BIGINT) AS offset_in_bin
        FROM cum
    """.replace("QUOTEREPL", entity_quote)


def _para_dedup_ctes(src: str) -> str:
    """CTE chain: ``src``(doc_id, text) → ``scrubbed``(doc_id, text,
    n_removed) — keep-FIRST paragraph dedup (ROW_NUMBER over exploded
    paragraph strings; whitespace-only paragraphs exempt). Shared by the
    standalone paragraph_dedup oracle and the chained Dolma pipeline."""
    return f"""pd_exploded AS (
            SELECT doc_id, ls, unnest(range(1, len(ls) + 1)) AS ord
            FROM (SELECT doc_id, string_split(text, chr(10)) AS ls
                  FROM {src})
        ), pd_paras AS (
            SELECT doc_id, ord, ls[ord] AS para,
                   trim(ls[ord], ' ' || chr(9) || chr(13) || chr(12)
                        || chr(11)) <> '' AS eligible
            FROM pd_exploded
        ), pd_ranked AS (
            SELECT *, row_number() OVER (
                PARTITION BY para ORDER BY doc_id, ord) AS rn
            FROM pd_paras
        ), pd_kept AS (
            SELECT doc_id, ord, para FROM pd_ranked
            WHERE NOT eligible OR rn = 1
        ), pd_agg AS (
            SELECT doc_id,
                   coalesce(string_agg(para, chr(10) ORDER BY ord), '')
                       AS text,
                   count(*) AS n_kept
            FROM pd_kept GROUP BY doc_id
        ), pd_totals AS (
            SELECT doc_id, count(*) AS n_total FROM pd_paras GROUP BY doc_id
        ), scrubbed AS (
            SELECT t.doc_id,
                   coalesce(a.text, '') AS text,
                   CAST(t.n_total - coalesce(a.n_kept, 0) AS BIGINT)
                       AS n_removed
            FROM pd_totals t LEFT JOIN pd_agg a USING (doc_id)
        )"""


def _gopher_ctes(src: str) -> str:
    """CTE chain: ``src``(doc_id, text) → ``g_sig``(doc_id, n_words,
    mean_word_len, dup_line_frac, top_2gram_frac, stop_hits) — the full
    Gopher signal set. Repetition CTEs identical to the repetition_stats
    oracle; ratios are raw int/int double divisions (bit-exact vs numpy).
    Shared by the standalone gopher oracle and the Dolma chain."""
    return rf"""g_lines AS (
            SELECT doc_id, trim(l, ' ' || chr(9) || chr(13) || chr(11)
                   || chr(12)) AS line
            FROM (SELECT doc_id, unnest(string_split(text, chr(10))) AS l
                  FROM {src})
        ), g_nlines AS (
            SELECT doc_id, count(*) AS n_lines,
                   count(DISTINCT line) AS n_distinct
            FROM g_lines WHERE line != '' GROUP BY doc_id
        ), g_ws AS (
            SELECT doc_id,
                   regexp_split_to_array(lower(trim(text)), '\s+') AS w
            FROM {src} WHERE trim(coalesce(text, '')) <> ''
        ), g_bigrams AS (
            SELECT doc_id,
                   unnest(list_transform(range(1, len(w)),
                                         i -> w[i] || ' ' || w[i+1])) AS bg
            FROM g_ws WHERE len(w) >= 2
        ), g_bgc AS (
            SELECT doc_id, bg, count(*) AS c FROM g_bigrams
            GROUP BY doc_id, bg
        ), g_bgs AS (
            SELECT doc_id, max(c) AS top_c, sum(c) AS n_bigrams
            FROM g_bgc GROUP BY doc_id
        ), g_wstats AS (
            SELECT doc_id,
                   len(w) AS n_words,
                   list_aggregate(list_transform(w, x -> length(x)),
                                  'sum') AS char_sum,
                   len(list_filter(w, x -> list_contains(
                       ['the','be','to','of','and','that','have','with'],
                       x))) AS stop_hits
            FROM g_ws
        ), g_sig AS (
            SELECT d.doc_id,
                   CAST(coalesce(s.n_words, 0) AS BIGINT) AS n_words,
                   CAST(coalesce(s.char_sum, 0) AS DOUBLE)
                       / (CASE WHEN coalesce(s.n_words, 0) = 0 THEN 1
                               ELSE s.n_words END) AS mean_word_len,
                   CASE WHEN ls.n_lines > 0
                        THEN 1.0 - CAST(ls.n_distinct AS DOUBLE)
                             / ls.n_lines
                        ELSE 0.0 END AS dup_line_frac,
                   CASE WHEN bgs.n_bigrams > 0
                        THEN CAST(bgs.top_c AS DOUBLE) / bgs.n_bigrams
                        ELSE 0.0 END AS top_2gram_frac,
                   CAST(coalesce(s.stop_hits, 0) AS BIGINT) AS stop_hits
            FROM {src} d
            LEFT JOIN g_wstats s USING (doc_id)
            LEFT JOIN g_nlines ls USING (doc_id)
            LEFT JOIN g_bgs bgs USING (doc_id)
        )"""


_GOPHER_KEPT_PRED = (
    "(n_words >= 50 AND n_words <= 100000"
    " AND mean_word_len >= 3.0 AND mean_word_len <= 10.0"
    " AND dup_line_frac <= 0.30 AND top_2gram_frac <= 0.20"
    " AND stop_hits >= 2)"
)


def _quality_clf_ctes() -> str:
    """CTE chain of the hashed-feature classifier (shared by the
    standalone oracle and the chained curation oracle)."""
    import numpy as np

    from ontocast_ray.ops.text import _QUALITY_MARKERS, fnv1a_words

    F = 1 << 20
    words = list(_QUALITY_MARKERS)
    buckets = fnv1a_words(np.asarray(words, dtype=object)) % np.uint64(F)
    vals = ", ".join(
        f"({int(b)}, {w})" for b, w in zip(buckets, _QUALITY_MARKERS.values())
    )
    return f"""clf_toks AS (
            SELECT doc_id, w
            FROM documents,
                 UNNEST(regexp_extract_all(lower(text), '[a-z]+')) AS t(w)
        ), clf_hashed AS (
            SELECT doc_id, {_fnv_fold_sql('w', F)} AS bucket
            FROM clf_toks
        ), clf_wt AS (
            SELECT * FROM (VALUES {vals}) v(bucket, weight)
        ), clf_scored AS (
            SELECT h.doc_id, COALESCE(w.weight, 0) AS tw
            FROM clf_hashed h LEFT JOIN clf_wt w USING (bucket)
        ), clf_agg AS (
            SELECT doc_id,
                   CAST(count(*) AS BIGINT) AS n_tokens,
                   CAST(sum(tw) AS BIGINT) AS raw_score
            FROM clf_scored GROUP BY doc_id
        )"""


def _quality_clf_sql() -> str:
    return f"""
        WITH {_quality_clf_ctes()}
        SELECT d.doc_id,
               COALESCE(a.n_tokens, 0) AS n_tokens,
               COALESCE(a.raw_score, 0) AS raw_score,
               CASE WHEN COALESCE(a.n_tokens, 0) > 0
                    THEN CAST(a.raw_score AS DOUBLE) / CAST(a.n_tokens AS DOUBLE)
                    ELSE 0.0 END AS score,
               COALESCE(a.raw_score, 0) > 0 AS keep
        FROM documents d LEFT JOIN clf_agg a USING (doc_id)
    """


def _classifier_packing_sql() -> str:
    """Chained oracle: classifier keep-gate → whitespace token counts →
    ordered prefix sum → bin arithmetic, all in one WITH chain."""
    return rf"""
        WITH {_quality_clf_ctes()},
        kept AS (
            SELECT d.doc_id, d.text
            FROM documents d JOIN clf_agg a USING (doc_id)
            WHERE a.raw_score > 0
        ), toks AS (
            SELECT doc_id,
                   CASE WHEN trim(COALESCE(text, '')) = '' THEN 0
                        ELSE len(regexp_split_to_array(trim(text), '\s+'))
                   END AS n_tokens
            FROM kept
        ), cum AS (
            SELECT doc_id, n_tokens,
                   COALESCE(SUM(n_tokens) OVER (
                       ORDER BY doc_id
                       ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING
                   ), 0) AS goff
            FROM toks
        )
        SELECT doc_id,
               doc_id // 100 AS shard,
               CAST(n_tokens AS BIGINT) AS n_tokens,
               CAST(goff AS BIGINT) AS global_offset,
               CAST(goff // 64 AS BIGINT) AS first_bin,
               CAST((goff + CASE WHEN n_tokens > 0 THEN n_tokens - 1 ELSE 0 END)
                    // 64 AS BIGINT) AS last_bin,
               CAST(goff % 64 AS BIGINT) AS offset_in_bin
        FROM cum
    """


def _q_dup_span_scrub(sf_dir: str):
    """ExactSubstr-style duplicated-span REMOVAL (the step after MinHash in
    DataComp-style pipelines): cut every word position covered by a 3-gram
    appearing in ≥2 distinct docs; rebuild the surviving word stream.
    2 coarse shuffles, parallelism-invariant; oracle re-derives with exact
    string grams + a positional mask in pure SQL."""
    from ontocast_ray.ops.dedup import remove_dup_spans

    docs = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return remove_dup_spans(docs, k=3)


def _q_normalize_text(sf_dir: str):
    """Canonical text normalization (NFC → lower → whitespace collapse →
    strip) — pure map, zero shuffle. Whitespace class is explicit so
    Python re and DuckDB RE2 agree byte-for-byte."""
    from ontocast_ray.ops.curation import normalize_text

    docs = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return normalize_text(docs, text_col="text", out_col="norm_text")


def _q_heavy_hitters(sf_dir: str):
    """Exact heavy hitters (terms ≥ 100 occurrences) via two-pass
    Misra-Gries: bounded-memory candidate sketch per batch (no vocabulary
    shuffle), exact re-count of the candidate set only. Guaranteed no
    false negatives for threshold > N/(k+1); pass 2 removes false
    positives — output is exactly the SQL HAVING answer."""
    from ontocast_ray.ops.sketch import heavy_hitters

    docs = _read(sf_dir, "documents", columns=["text"])
    return heavy_hitters(docs, threshold=100, k=4096)


def _q_doc_row_numbers(sf_dir: str):
    """Global ROW_NUMBER + exact SQL NTILE(7) over doc_id order without a
    global sort — two-phase ordered scan (per-shard counts → driver
    exclusive scan over the tiny shard list → broadcast base offsets)."""
    from ontocast_ray.ops.rank import global_row_number

    docs = _read(sf_dir, "documents", columns=["doc_id"])
    return global_row_number(
        docs, order_col="doc_id", ntile=7, percent_rank=True, shard_span=64
    )


def _q_events_rolling_max(sf_dir: str):
    """Sliding 3-row max per user (peak detection window): SQL ``max(value)
    OVER (PARTITION BY user_id ORDER BY ts, event_id ROWS BETWEEN 2
    PRECEDING AND CURRENT ROW)``. max is order-free → bit-exact on doubles
    across engines."""
    from ontocast_ray.ops.windows import rolling_window_agg

    return rolling_window_agg(
        _read(sf_dir, "events", columns=["event_id", "user_id", "ts", "value"]),
        k=3,
        agg="max",
    )


def _query_vectors(emb, n: int = 2):
    """First n vec_ids as a query matrix — vectorized pc filter, not a
    per-row Python predicate (the filter prunes inside each batch)."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    qrows = sorted(
        emb.map_batches(
            lambda b: b.filter(pc.less(b["vec_id"], pa.scalar(n))),
            batch_format="pyarrow",
        ).take_all(),
        key=lambda r: r["vec_id"],
    )
    return np.array([r["embedding"] for r in qrows], dtype=np.float64)


def _q_knn(sf_dir: str):
    """Brute-force cosine top-10 - broadcast query matrix, per-batch partial top-k."""
    from ontocast_ray.ops.similarity import knn_bruteforce

    emb = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    out = knn_bruteforce(emb, _query_vectors(emb), k=10)
    return out.select_columns(["query_id", "vec_id", "rank"])


def _q_kmeans(sf_dir: str):
    """SemDeDup-style semantic clustering: distributed Lloyd k-means
    (per-batch partial sums, tree reduce, broadcast centroids) → final
    (vec_id, cluster) assignment. Oracle re-derives the identical Lloyd
    schedule in SQL (init = k smallest vec_ids, 2 updates, final assign)."""
    from ontocast_ray.ops.clustering import kmeans_fit_predict

    emb = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    return kmeans_fit_predict(emb, k=8, n_iters=2)


def _q_semdedup(sf_dir: str):
    """Full SemDeDup: k-means then within-cluster cosine near-dup keep rule
    (drop iff a lower-id cluster member is within the cosine threshold)."""
    from ontocast_ray.ops.clustering import semdedup

    emb = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    return semdedup(emb, k=8, n_iters=2, threshold=0.35)


def _q_pagerank(sf_dir: str):
    """Integer-arithmetic PageRank over the supplier↔customer bipartite
    graph (distinct lineitem⋈orders pairs, both directions, customers
    offset into a disjoint id space). Floor-division spec is exact, so
    the SQL oracle reproduces every rank bit-for-bit."""
    from ontocast_ray.ops.pagerank import pagerank_int

    edges = _supplier_customer_edges(sf_dir)
    return pagerank_int(edges, n_iters=3)


def _q_term_cooccurrence(sf_dir: str):
    """Windowed term co-occurrence counts (PMI-style, counts only): pairs
    (least, greatest) over every i<j ≤ i+5 within a document, map-side
    combined, min_count ≥ 3, top 100 by (n desc, a, b)."""
    from ontocast_ray.ops.text import term_cooccurrence

    docs = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return term_cooccurrence(docs, window=5, min_count=3, top_n=100)


def _q_docs_by_source(sf_dir: str):
    """Documents + char stats per source - small groupby."""
    from ray.data.aggregate import Count, Max, Min

    docs = _read(sf_dir, "documents", columns=["source", "n_chars"])
    return docs.groupby("source").aggregate(
        Count(alias_name="n_docs"),
        Min("n_chars", alias_name="min_chars"),
        Max("n_chars", alias_name="max_chars"),
    )


def _q_top_docs_by_len(sf_dir: str):
    """Global top-20 docs by length - distributed sort + limit."""
    docs = _read(sf_dir, "documents", columns=["doc_id", "n_chars"])
    return docs.sort(["n_chars", "doc_id"], descending=[True, False]).limit(20)


def _q_events_by_user(sf_dir: str):
    """Per-user event counts and integer value sums."""
    from ray.data.aggregate import Count, Max, Min

    events = _read(sf_dir, "events", columns=["user_id", "ts"])
    return events.groupby("user_id").aggregate(
        Count(alias_name="n_events"),
        Min("ts", alias_name="first_ts"),
        Max("ts", alias_name="last_ts"),
    )


# ---------------------------------------------------------------------------
# rows-only ops queries


def _q_minhash_pairs(sf_dir: str):
    """MinHash+LSH candidates verified by exact shingle Jaccard (live SQL oracle at the driver's sf0.01 gate)."""
    from ontocast_ray.ops.dedup import minhash_lsh_candidates, ngram_jaccard_verify

    docs = _read(sf_dir, "documents", columns=["doc_id", "text"]).materialize()
    pairs = minhash_lsh_candidates(docs, num_perm=64, bands=16, shingle_k=3)
    return ngram_jaccard_verify(docs, pairs, threshold=0.8, shingle_k=3)


def _q_simhash(sf_dir: str):
    """64-bit SimHash signatures (vectorized bit votes; golden)."""
    from ontocast_ray.ops.dedup import simhash_signatures

    return simhash_signatures(_read(sf_dir, "documents", columns=["doc_id", "text"]))


def _q_embedding_dedup(sf_dir: str):
    """Embedding-cosine near-dup pairs via banded hyperplane LSH buckets (golden)."""
    import pyarrow as pa

    from ontocast_ray.ops.dedup import embedding_dedup_candidates

    out = embedding_dedup_candidates(
        _read(sf_dir, "embeddings", columns=["vec_id", "embedding"]), threshold=0.99
    )
    # collect to arrow with a pinned schema: an all-empty result otherwise
    # loses its schema (None) and the driver compare can't see columns
    fallback = pa.schema(
        [("id_a", pa.int64()), ("id_b", pa.int64()), ("cosine", pa.float64())]
    )
    batches = list(out.iter_batches(batch_size=4096, batch_format="pyarrow"))
    if batches:
        return pa.concat_tables(batches, promote_options="default")
    return fallback.empty_table()


def _q_lang_id(sf_dir: str):
    """Stopword-ratio language ID with en,de,fr,es tie priority - SQL-mirrored exactly."""
    from ontocast_ray.ops.text import LangId

    return _read(sf_dir, "documents", columns=["doc_id", "text"]).map_batches(
        LangId(), batch_format="pyarrow"
    )


def _q_fingerprint(sf_dir: str):
    """Winnowing document fingerprints (rolling 4-gram min-sampling; golden)."""
    from ontocast_ray.ops.text import fingerprint

    return _read(sf_dir, "documents", columns=["doc_id", "text"]).map_batches(
        fingerprint, batch_format="pyarrow"
    )


def _index_scratch(sf_dir: str, kind: str) -> str:
    """Deterministic per-(sf, kind) scratch dir, WIPED before rebuild so
    repeated gate/bench runs reuse one path instead of accumulating /tmp."""
    import hashlib
    import os
    import shutil

    tag = hashlib.sha256(sf_dir.encode()).hexdigest()[:12]
    path = os.path.join("/tmp", "ontocast_ray_indexes", f"{kind}_{tag}")
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path, exist_ok=True)
    return path


def _q_knn_pq(sf_dir: str):
    """PQ-compressed ADC top-10 (seed-deterministic -> golden oracle)."""
    from ontocast_ray.ops.similarity import build_pq_index, knn_pq_search

    emb = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    queries = _query_vectors(emb)
    index_dir = _index_scratch(sf_dir, "pq")
    build_pq_index(emb, index_dir, m=8, n_codes=256)
    return knn_pq_search(index_dir, queries, k=10)


def _q_knn_ivf(sf_dir: str):
    """IVF ANN over a cluster-partitioned parquet layout - probed partitions only (golden)."""
    from ontocast_ray.ops.similarity import knn_ivf

    emb = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    return knn_ivf(
        emb, _query_vectors(emb), k=10, n_clusters=16, n_probe=4,
        index_dir=_index_scratch(sf_dir, "ivf"),
    )


def _q_knn_ivf_rerank(sf_dir: str):
    """IVF-PQ ADC candidates (code-only probed scan) + exact float re-rank
    (seed-deterministic → golden oracle; recall≥0.9 asserted in tests)."""
    from ontocast_ray.ops.similarity import build_ivfpq_index, knn_ivfpq_rerank_search

    emb = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    queries = _query_vectors(emb)
    index_dir = _index_scratch(sf_dir, "ivfpq")
    build_ivfpq_index(emb, index_dir, n_clusters=16, m=8, n_codes=256)
    return knn_ivfpq_rerank_search(index_dir, queries, k=10, n_probe=4, rerank_factor=4)


def _q_repetition_stats(sf_dir: str):
    """Gopher-style repetition quality signals (dup-line fraction, top
    word-2-gram fraction) — pure-map, SQL-oracled."""
    from ontocast_ray.ops.text import repetition_stats

    return _read(sf_dir, "documents", columns=["doc_id", "text"]).map_batches(
        repetition_stats, batch_format="pyarrow"
    )


def _inject_pii(batch):
    """Deterministic PII injection (the driver's documents are clean word
    soup, so the scrub oracle would be vacuous without it): prefix each doc
    with an email (doc_id % 3 != 0), an IPv4 (doc_id % 2 == 0) and always a
    phone number — every fragment a pure function of doc_id, re-built
    identically by the SQL oracle's string concatenation."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa

    ids = batch["doc_id"].to_pandas().astype("int64")
    txt = batch["text"].to_pandas().fillna("")
    ids_str = ids.astype(str)
    email = pd.Series(
        np.where((ids % 3) != 0, "reach user" + ids_str + "@example.com ", ""),
        index=ids.index,
    )
    ip = pd.Series(
        np.where(
            (ids % 2) == 0,
            "from 10." + (ids % 256).astype(str) + ".0."
            + ((ids * 7) % 256).astype(str) + " ",
            "",
        ),
        index=ids.index,
    )
    phone = "call +1555" + (ids % 10000).astype(str).str.zfill(4) + " "
    return pa.table(
        {
            "doc_id": batch["doc_id"],
            "text": pa.array(email + ip + phone + txt, type=pa.string()),
        }
    )


def _q_pii_scrub(sf_dir: str):
    """PII redaction (email/IPv4/phone → placeholder tokens) with per-rule
    match counts — pure-map, chained-regexp_replace SQL oracle."""
    from ontocast_ray.ops.text import pii_scrub

    return (
        _read(sf_dir, "documents", columns=["doc_id", "text"])
        .map_batches(_inject_pii, batch_format="pyarrow")
        .map_batches(pii_scrub, batch_format="pyarrow")
    )


def _q_pack_sequences(sf_dir: str):
    """Concat-and-split training-sequence packing (capacity 64 tokens) —
    distributed ordered prefix sum, window-function SQL oracle."""
    from ontocast_ray.ops.packing import pack_sequences

    return pack_sequences(
        _read(sf_dir, "documents", columns=["doc_id", "text"]),
        capacity=64,
        shard_span=100,
    )


def _q_packed_bpe(sf_dir: str):
    """Packing under the REAL byte-BPE tokenizer (fixture merge table):
    bin boundaries follow BPE token counts, matching what a training stack
    would see. BPE is not SQL-expressible — golden-pinned oracle,
    parallelism-invariant (pure function of corpus + fixed merges)."""
    from ontocast_ray.functions.tokenizer import ByteBPETokenizer
    from ontocast_ray.ops.packing import pack_sequences

    return pack_sequences(
        _read(sf_dir, "documents", columns=["doc_id", "text"]),
        capacity=256,
        shard_span=100,
        tokenizer=ByteBPETokenizer(),
    )


def _q_curated_packing(sf_dir: str):
    """End-to-end curation: language filter (en) + alpha-ratio quality gate
    + exact dedup (injected duplicates: every doc_id%10==0 doc re-appears as
    doc_id+100000) + concat-and-split packing — one streaming pipeline, one
    chained SQL oracle."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from ontocast_ray.pipelines.curation import curate_corpus

    docs = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def _dup_shift(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        f = batch.filter(pa.array(ids % 10 == 0))
        i = f.schema.get_field_index("doc_id")
        return f.set_column(i, "doc_id", pc.add(f["doc_id"], 100_000))

    dups = docs.map_batches(_dup_shift, batch_format="pyarrow")
    return curate_corpus(
        docs.union(dups),
        lang="en",
        min_alpha_ratio=0.82,
        capacity=64,
        shard_span=100,
    )


def _q_events_hll(sf_dir: str):
    """HyperLogLog approximate distinct event_ids per event_type (p=12 →
    4 KB registers; linear-counting range at this cardinality, ~1% error).
    Pinned golden oracle: siphash registers are not SQL-re-derivable;
    accuracy (incl. the raw-estimator range) is property-tested against
    exact counts in tests/test_sketch.py."""
    from ontocast_ray.ops.sketch import hll_distinct

    return hll_distinct(
        _read(sf_dir, "events", columns=["event_id", "event_type"]),
        key_col="event_id",
        group_col="event_type",
        p=12,
    )


def _q_events_dd_quantiles(sf_dir: str):
    """DDSketch p50/p95/p99 of event value per type (alpha=1%) — mergeable
    log-bucket sketch; the SQL oracle re-derives the exact same buckets,
    rank walk, and bucket→value map (libm-matched, bit-exact)."""
    from ontocast_ray.ops.sketch import dd_quantiles

    return dd_quantiles(
        _read(sf_dir, "events", columns=["event_type", "value"]),
        value_col="value",
        group_col="event_type",
        quantiles=(0.5, 0.95, 0.99),
        alpha=0.01,
    )


def _q_docs_source_cap(sf_dir: str):
    """Per-source document cap (10 per source), survivors chosen as the
    cap smallest splitmix64(seed=3, doc_id) — the C4/RefinedWeb-style
    per-domain cap. Combiner-first: blocks are pre-capped map-side, the
    shuffle moves O(cap × sources). Oracle ranks by the identical UBIGINT
    mix via row_number()."""
    from ontocast_ray.ops.curation import cap_per_group

    return cap_per_group(
        _read(sf_dir, "documents", columns=["doc_id", "source"]),
        group_col="source",
        cap=10,
        id_col="doc_id",
        seed=3,
    )


def _q_decontam(sf_dir: str):
    """Benchmark decontamination: the 'eval set' is the first 20 words of
    every doc_id%50==0 document (a leaked-benchmark simulation); any
    training doc sharing a word-3-shingle with it is flagged with its
    distinct-overlap count. Broadcast sorted hash array + pure map over
    the corpus — zero shuffle. Oracle re-derives with string shingles."""
    from ontocast_ray.ops.curation import decontaminate
    from ontocast_ray.ops.dedup import _WS

    docs = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def _eval_slice(batch):
        import pyarrow as pa

        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        f = batch.filter(pa.array(ids % 50 == 0))
        texts = [
            " ".join(_WS.split((t or "").strip().lower())[:20])
            for t in f["text"].to_pylist()
        ]
        return pa.table({"doc_id": f["doc_id"], "text": pa.array(texts)})

    eval_ds = docs.map_batches(_eval_slice, batch_format="pyarrow")
    return decontaminate(docs, eval_ds, k=3)


def _q_boilerplate(sf_dir: str):
    """Line-level boilerplate removal (C4-style): a disclaimer header is
    injected on every doc and a newsletter footer on doc_id%3==0 docs, then
    any line occurring ≥2 times across the corpus is dropped. Count pass is
    a map-side combiner + coarse groupby; scrub is a pure map against the
    broadcast frequent-line hash set. Oracle re-derives with string lines."""
    import pyarrow as pa

    from ontocast_ray.ops.curation import remove_boilerplate_lines

    docs = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def _inject(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        texts = [
            "disclaimer: synthetic corpus\n" + (t or "")
            + ("\nsubscribe to our newsletter" if i % 3 == 0 else "")
            for i, t in zip(ids, batch["text"].to_pylist())
        ]
        return pa.table({"doc_id": batch["doc_id"], "text": pa.array(texts)})

    return remove_boilerplate_lines(
        docs.map_batches(_inject, batch_format="pyarrow"), min_count=2
    )


def _para_inject_batch(batch):
    """Shared paragraph-synth injection (promo block per doc_id%4 + a
    corpus-wide footer) used by BOTH _q_paragraph_dedup and
    _q_dolma_pipeline — the SQL twin is _PARA_CORPUS_SQL; editing one
    without the other cannot silently diverge the two queries."""
    import pyarrow as pa

    ids = batch["doc_id"].to_numpy(zero_copy_only=False)
    texts = [
        (t or "") + "\npromo block " + str(i % 4)
        + "\nshared footer paragraph"
        for i, t in zip(ids, batch["text"].to_pylist())
    ]
    return pa.table({"doc_id": batch["doc_id"], "text": pa.array(texts)})


_PARA_CORPUS_SQL = """corpus AS (
                SELECT doc_id,
                       coalesce(text, '') || chr(10) || 'promo block '
                       || (doc_id % 4)
                       || chr(10) || 'shared footer paragraph' AS text
                FROM documents
            )"""


def _q_paragraph_dedup(sf_dir: str):
    """Dolma-style cross-document paragraph dedup (keep-FIRST rule — the
    complement of boilerplate_scrub's drop-all rule): a per-group promo
    paragraph (doc_id%4) and a corpus-wide footer paragraph are appended,
    then every paragraph occurring ≥2 times keeps only its globally first
    (doc_id, idx) occurrence. Winner pass is a map-side combiner + coarse
    hash%P groupby; scrub is a pure map against the broadcast (hash,
    min_position) dup map (Bloom + shuffle semi-join scale path kept and
    tested with the broadcast limit at 0). Oracle re-derives with ROW_NUMBER over
    the exploded paragraph strings."""
    import pyarrow as pa

    from ontocast_ray.ops.curation import paragraph_dedup

    docs = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return paragraph_dedup(
        docs.map_batches(_para_inject_batch, batch_format="pyarrow"),
    )


def _q_gazetteer(sf_dir: str):
    """Dictionary entity linking (gazetteer NER, the first stage of KG
    entity linking): 25 two-token aliases built from the nation catalog
    ('nation a'…'nation y'), mentions injected deterministically (every
    doc one, every 3rd doc two), counted over the [a-z]+ token stream.
    Gazetteer broadcast once (catalogs are MBs vs TB corpora); one coarse
    combiner shuffle of match-sized partials. Oracle re-joins exact
    bigram strings against the same alias CTE."""
    import numpy as np
    import pandas as pd

    from ontocast_ray.ops.text import gazetteer_mentions

    nations = _read(sf_dir, "nation", columns=["n_nationkey"]).take_all()
    aliases = [
        (int(r["n_nationkey"]), "nation " + chr(97 + int(r["n_nationkey"])))
        for r in nations
    ]

    docs = _read(sf_dir, "documents", columns=["doc_id", "text"])
    letters = np.array([chr(97 + i) for i in range(25)], dtype=object)

    def synth(df):
        d = df["doc_id"].to_numpy()
        extra = pd.Series(
            np.where(d % 3 == 0,
                     " nation " + letters[(d * 7) % 25], "")
        )
        df = df.copy()
        df["text"] = (
            df["text"].fillna("") + " nation " + letters[d % 25] + extra
        )
        return df

    return gazetteer_mentions(
        docs.map_batches(synth, batch_format="pandas"), aliases
    )


def _q_scalar_quant(sf_dir: str):
    """Scalar int8-style embedding quantization (FAISS SQ8 shape): global
    per-dimension [min,max] from a bounded per-block partial (one 2·d row
    per block to the driver), broadcast once, pure-map encode. Outputs
    integer code sums + order-free error stats (max, fixed-point L1) so
    the SQL oracle reproduces bit-for-bit via positional UNNEST."""
    from ontocast_ray.ops.similarity import scalar_quantize_embeddings

    emb = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    return scalar_quantize_embeddings(emb)


def _q_sample_exact_k(sf_dir: str):
    """Exactly-100 uniform sample (eval-set carving): the 100 smallest
    splitmix64(seed=31, doc_id) draws, ties by id — exact-size companion
    to the Bernoulli doc_sample_10pct. Per-block partial top-k bounds the
    wire to k rows per block; one bounded merge. Oracle: ORDER BY the
    pure-SQL mix LIMIT 100."""
    from ontocast_ray.ops.interleave import sample_exact_k

    docs = _read(sf_dir, "documents", columns=["doc_id"])
    return sample_exact_k(docs, k=100, seed=31)


def _q_next_event_context(sf_dir: str):
    """Sequence-model dataset construction: previous-3-event-type context
    + current type label per event, per user, strict (ts, event_id)
    order, '<s>' pad before history start (a literal, because NULL→str
    casts diverge between engines). One coarse user-hash shuffle,
    vectorized groupby().shift kernel. Oracle: three lag() windows with
    the same COALESCE."""
    from ontocast_ray.ops.windows import next_event_context

    events = _read(
        sf_dir, "events", columns=["event_id", "user_id", "ts", "event_type"]
    )
    return next_event_context(events, context=3)


def _q_vocab_coverage(sf_dir: str):
    """Vocabulary coverage curve (tokenizer-design stat): token-mass
    share of the top-{100,1000,10000} terms. Vocabulary-sized combiner
    shuffle, one distributed sort bounded to max(k) rows, scalar total
    fold — no full-vocab collection. Oracle: ROW_NUMBER over counts with
    the same (n DESC, term) tie order."""
    from ontocast_ray.ops.text import vocab_coverage

    docs = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return vocab_coverage(docs, ks=(100, 1_000, 10_000))


def _q_comention_edges(sf_dir: str):
    """Entity co-mention graph (the KG edge-candidate generator feeding
    relation extraction): two nation mentions injected per doc
    (doc%25 and (doc·3+1)%25 — equal for doc≡12 mod 25, which then
    yields no pair), distinct per-doc entity sets expanded to unordered
    pairs map-side, one coarse pair-hash combiner. Oracle re-joins
    exact bigram matches and self-joins on doc_id."""
    import numpy as np

    from ontocast_ray.ops.text import entity_comention_edges

    nations = _read(sf_dir, "nation", columns=["n_nationkey"]).take_all()
    aliases = [
        (int(r["n_nationkey"]), "nation " + chr(97 + int(r["n_nationkey"])))
        for r in nations
    ]
    docs = _read(sf_dir, "documents", columns=["doc_id", "text"])
    letters = np.array([chr(97 + i) for i in range(25)], dtype=object)

    def synth(df):
        d = df["doc_id"].to_numpy()
        df = df.copy()
        df["text"] = (
            df["text"].fillna("")
            + " nation " + letters[d % 25]
            + " nation " + letters[(d * 3 + 1) % 25]
        )
        return df

    return entity_comention_edges(
        docs.map_batches(synth, batch_format="pandas"), aliases
    )


def _q_source_similarity(sf_dir: str):
    """Corpus-level source-overlap report: exact pairwise Jaccard between
    every two sources' word-3-shingle sets — the which-sources-duplicate
    report behind crawl-source retirement. Shingle-hash-partitioned, so
    sizes AND intersections finish within partitions; the driver sees
    only O(P·sources²) count rows. Oracle re-derives with exact shingle
    strings (the _JACCARD_PAIRS_SQL tokenization)."""
    from ontocast_ray.ops.dedup import source_similarity_matrix

    docs = _read(sf_dir, "documents", columns=["doc_id", "source", "text"])
    return source_similarity_matrix(docs, shingle_k=3)


def _q_cdc_dup_stats(sf_dir: str):
    """Content-defined-chunking dedup signal (FastCDC at word
    granularity): variable-length chunks cut where a token's FNV
    satisfies hash%64<8, deduped corpus-wide — boundaries re-align after
    edits, so shifted copies still match (the property fixed-k grams
    lack). Two coarse shuffles, no broadcast; oracle re-derives chunk
    boundaries with the raw-FNV SQL fold and dedupes exact chunk
    STRINGS."""
    from ontocast_ray.ops.dedup import cdc_chunk_dup_stats

    docs = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return cdc_chunk_dup_stats(docs)


def _q_span_transitions(sf_dir: str):
    """Interleaved-document layout profile: corpus-wide span-kind
    transition counts (text→image, image→text, …) over the deterministic
    media-slot injection (every 7th span at offset 3 is an image) — what
    a multimodal packer reads before choosing strategy. Span structure is
    synthesized from the flat corpus (ceil(n_words/8) spans per doc — the
    same word-split the other oracles mirror); the kernel is a vectorized
    boundary-masked shift + one coarse combiner shuffle; oracle replays
    with lead() over unnest(range(n_spans))."""
    import pandas as pd

    from ontocast_ray.ops.multimodal import span_kind_transitions

    docs = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def synth(df):
        n = (
            df["text"].fillna("").str.strip().str.split().str.len()
            .fillna(0).astype("int64")
        )
        k = (-(-n // 8)).to_numpy()  # ceil(n/8); 0 words → 0 → 1 span ('')
        spans = (
            pd.Series(["s\n"] * len(df), index=df.index)
            .str.repeat(k)
            .str.rstrip("\n")
        )
        return pd.DataFrame({"doc_id": df["doc_id"].to_numpy(),
                             "text": spans.to_numpy()})

    return span_kind_transitions(
        docs.map_batches(synth, batch_format="pandas")
    )


def _q_domain_report(sf_dir: str):
    """Per-domain quality/duplication report — the step that BUILDS a
    domain blocklist: synth crawl URLs (mixed-case host, www., port 80 —
    the url_dedup pattern), canonical host extracted map-side, classifier
    scores and distinct-text counts folded per domain through two coarse
    shuffles (wire = distinct (domain, text) pairs, never bodies).
    Oracle re-derives domains from the synth rule and aggregates with
    count(DISTINCT text) + the classifier CTEs."""
    import pyarrow as pa

    from ontocast_ray.ops.text import quality_classifier_score
    from ontocast_ray.ops.urls import domain_report

    docs = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def synth(df):
        d = df["doc_id"]
        df["url"] = (
            "HTTP://WWW.Site" + (d % 5).astype(str)
            + ".Example.COM:80/p/" + d.astype(str)
        )
        return df

    pages = docs.map_batches(synth, batch_format="pandas")
    scored = quality_classifier_score(pages, extra_cols=("url", "text"))
    return domain_report(scored)


def _q_kg_two_hop(sf_dir: str):
    """KG path analytics over the FLAGSHIP pipeline output: two-hop
    predicate-pair counts — for every (p1, p2), how many s -p1-> m -p2-> o
    ENTITY-graph paths the extracted facts contain (literal-valued edges
    are excluded from the edge table entirely, so both m and o are
    entities — paths terminating in a literal are out of scope by design).
    The entity-edge table self-joins on the middle node via the repo's
    partitioned hash_join (one coarse shuffle), then a count combiner
    folds (p1, p2) pairs map-side ahead of one ``shuffle_by`` on
    (p1, p2). Golden-pinned like the other kg_* queries (doc IRIs are
    content-hash-derived)."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa

    from ontocast_ray.ops.joins import hash_join
    from ontocast_ray.ops.shuffle import shuffle_by

    triples = _q_kg_triples(sf_dir)

    def edges(df: "pd.DataFrame") -> "pa.Table":
        df = df[(df["graph_scope"] == "facts") & ~df["object_is_literal"]]
        # arrow out: Ray's Project (rename/select) ops assume arrow blocks
        return pa.table({
            "subject": pa.array(df["subject"].to_numpy(), type=pa.string()),
            "predicate": pa.array(df["predicate"].to_numpy(), type=pa.string()),
            "object": pa.array(df["object"].to_numpy(), type=pa.string()),
        })

    e = triples.map_batches(edges, batch_format="pandas").materialize()
    left = e.select_columns(["object", "predicate"]).rename_columns(
        {"predicate": "pred_a"}
    )
    right = e.select_columns(["subject", "predicate"]).rename_columns(
        {"predicate": "pred_b"}
    )
    paths = hash_join(
        left, right, left_on="object", right_on="subject",
        left_cols=["pred_a"], right_cols=["pred_b"],
    )

    def partial(df: "pd.DataFrame") -> "pd.DataFrame":
        g = df.groupby(["pred_a", "pred_b"], as_index=False).size()
        g = g.rename(columns={"size": "n_paths"})
        g["n_paths"] = g["n_paths"].astype(np.int64)
        return g

    def combine(df: "pd.DataFrame") -> "pd.DataFrame":
        out = df.groupby(["pred_a", "pred_b"], as_index=False)["n_paths"].sum()
        out["n_paths"] = out["n_paths"].astype(np.int64)
        return out

    return shuffle_by(
        paths.map_batches(partial, batch_format="pandas"),
        ["pred_a", "pred_b"], combine,
    )


def _q_user_max_gap(sf_dir: str):
    """Inactivity-gap analysis (churn signal): per user, the LONGEST gap
    between consecutive events in strict (ts, event_id) order, exact
    integer microseconds (float-free, engine-exact), plus a churn-risk
    flag (> 12h). ``shuffle_by`` on user, vectorized groupby().diff
    kernel; lag()-window SQL oracle."""
    import numpy as np
    import pandas as pd

    from ontocast_ray.ops.shuffle import shuffle_by

    events = _read(sf_dir, "events", columns=["event_id", "user_id", "ts"])
    thresh_us = np.int64(12 * 3600 * 1_000_000)

    def kernel(df: "pd.DataFrame") -> "pd.DataFrame":
        df = df.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        diffs = df.groupby("user_id", sort=False)["ts"].diff()
        # integer ns → us truncation: NO float roundtrip (total_seconds()
        # · 1e6 loses ulps on large gaps and diverges from epoch_us)
        gap_ns = diffs.to_numpy().astype("timedelta64[ns]").astype(np.int64)
        gap_us = np.where(diffs.isna().to_numpy(), 0, gap_ns // 1000)
        df = df.assign(gap=gap_us.astype(np.int64))
        g = df.groupby("user_id", as_index=False).agg(
            n_events=("event_id", "size"), max_gap_us=("gap", "max")
        )
        g["n_events"] = g["n_events"].astype(np.int64)
        g["max_gap_us"] = g["max_gap_us"].astype(np.int64)
        g["churn_risk"] = g["max_gap_us"] > thresh_us
        return g

    return shuffle_by(events, "user_id", kernel)


def _q_doc_length_histogram(sf_dir: str):
    """Corpus length profile: documents bucketed by the BINARY LENGTH of
    n_chars (the exact integer stand-in for floor(log2)+1 — log2() is
    not cross-engine bit-stable, bit length is) with doc counts and
    total chars per bucket. Pure-map bucket key + one small combiner.
    Oracle: length(bin(n_chars))."""
    import numpy as np
    import pandas as pd

    from ontocast_ray.ops.shuffle import shuffle_by

    docs = _read(sf_dir, "documents", columns=["doc_id", "n_chars"])

    def partial(df: "pd.DataFrame") -> "pd.DataFrame":
        n = df["n_chars"].to_numpy(dtype=np.int64)
        # bit length == len(bin(n)) - 2 for n>0; DuckDB bin() has no '0b'
        # prefix so the oracle uses length(bin(n)) directly — mirror that
        bucket = np.asarray(
            [len(np.binary_repr(v)) for v in n], dtype=np.int64
        )
        g = (
            pd.DataFrame({"bucket": bucket, "n_chars": n})
            .groupby("bucket", as_index=False)
            .agg(n_docs=("n_chars", "size"), total_chars=("n_chars", "sum"))
        )
        g["n_docs"] = g["n_docs"].astype(np.int64)
        g["total_chars"] = g["total_chars"].astype(np.int64)
        return g

    def combine(df: "pd.DataFrame") -> "pd.DataFrame":
        g = df.groupby("bucket", as_index=False)[
            ["n_docs", "total_chars"]
        ].sum()
        for c in ("n_docs", "total_chars"):
            g[c] = g[c].astype(np.int64)
        return g

    return shuffle_by(
        docs.map_batches(partial, batch_format="pandas"), "bucket", combine,
    )


def _q_kg_label_ambiguity(sf_dir: str):
    """Entity-linking dictionary BUILD from the flagship KG: invert the
    facts' rdfs:label edges into label → (n_entities, min_entity) — the
    alias table a gazetteer linker consumes, with the ambiguity count
    that decides which labels need disambiguation context. One
    ``shuffle_by`` on label (map-side distinct (label, entity) first);
    golden-pinned like the other kg_* queries."""
    import numpy as np
    import pandas as pd

    from ontocast_ray.ops.shuffle import shuffle_by

    _LABEL = "http://www.w3.org/2000/01/rdf-schema#label"
    triples = _q_kg_triples(sf_dir)

    def partial(df: "pd.DataFrame") -> "pd.DataFrame":
        df = df[(df["graph_scope"] == "facts")
                & (df["predicate"] == _LABEL)]
        return pd.DataFrame({
            "label": df["object"].to_numpy(),
            "entity": df["subject"].to_numpy(),
        }).drop_duplicates()

    def combine(df: "pd.DataFrame") -> "pd.DataFrame":
        dd = df.drop_duplicates(["label", "entity"])
        g = dd.groupby("label", as_index=False).agg(
            n_entities=("entity", "nunique"), min_entity=("entity", "min")
        )
        g["n_entities"] = g["n_entities"].astype(np.int64)
        return g

    return shuffle_by(
        triples.map_batches(partial, batch_format="pandas"), "label", combine,
    )


def _q_train_test_leakage(sf_dir: str):
    """Split-leakage audit (the check-your-split step every training run
    needs): docs assigned train/val/test by the splitmix rule, then
    exact-text collisions ACROSS splits counted per split pair — one
    ``shuffle_by`` on the text hash carrying (hash, split) partial counts,
    pair expansion on the distinct rows. Known duplicates are injected
    (every doc_id%10==0 re-appears at +100000 — the incremental_dedup
    clone rule) so cross-split collisions exist at every SF. Oracle: the
    pure-SQL splitmix split over the same cloned corpus, self-joined on
    text."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import pyarrow.compute as pc

    from ontocast_ray.ops.interleave import splitmix64
    from ontocast_ray.ops.shuffle import shuffle_by
    from ontocast_ray.util import hash_u64

    base = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def clone(batch: "pa.Table") -> "pa.Table":
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        c = batch.filter(pa.array(ids % 10 == 0))
        return c.set_column(
            c.column_names.index("doc_id"), "doc_id",
            pc.add(c["doc_id"], 100000),
        )

    docs = base.union(base.map_batches(clone, batch_format="pyarrow"))

    def assign(df: "pd.DataFrame") -> "pd.DataFrame":
        ids = df["doc_id"].to_numpy().astype(np.uint64)
        u = splitmix64(ids, seed=9).astype(np.float64) / float(2**64)
        split = np.where(u < 0.9, "train", np.where(u < 0.95, "val", "test"))
        h = hash_u64(df["text"].fillna("").to_numpy(dtype=object))
        return (
            pd.DataFrame({"th": h, "split": split})
            .groupby(["th", "split"], as_index=False)
            .size()
            .rename(columns={"size": "n"})
        )

    def combine(df: "pd.DataFrame") -> "pd.DataFrame":
        g = df.groupby(["th", "split"], as_index=False)["n"].sum()
        m = g.merge(g, on="th", suffixes=("_a", "_b"))
        m = m[m["split_a"] < m["split_b"]]
        if not len(m):
            return pd.DataFrame({
                "split_a": pd.Series([], dtype=object),
                "split_b": pd.Series([], dtype=object),
                "n_pairs": pd.Series([], dtype="int64"),
            })
        m["n_pairs"] = (m["n_a"] * m["n_b"]).astype(np.int64)
        out = m.groupby(["split_a", "split_b"], as_index=False)[
            "n_pairs"
        ].sum()
        out["n_pairs"] = out["n_pairs"].astype(np.int64)
        return out

    leaks = shuffle_by(
        docs.map_batches(assign, batch_format="pandas"), "th", combine,
    )

    def total(df: "pd.DataFrame") -> "pd.DataFrame":
        out = df.groupby(["split_a", "split_b"], as_index=False)[
            "n_pairs"
        ].sum()
        out["n_pairs"] = out["n_pairs"].astype(np.int64)
        return out

    return shuffle_by(
        leaks.map_batches(total, batch_format="pandas"), "split_a", total,
        n_parts=1,
    )


def _q_epoch_shuffle(sf_dir: str):
    """Deterministic epoch-2 training shuffle: global sample position =
    exact rank of splitmix64(seed=20+2, doc_id), sharded 256/shard — the
    reproducible replacement for random_shuffle. Exact global ranks with
    NO global sort (16-bit bucket histogram → driver exclusive scan of
    ≤65,536 ints → one coarse shuffle). Oracle: ROW_NUMBER over the same
    pure-SQL splitmix mix."""
    from ontocast_ray.ops.interleave import epoch_shuffle

    docs = _read(sf_dir, "documents", columns=["doc_id"])
    return epoch_shuffle(
        docs, seed=20, epoch=2, shard_size=256
    )


def _q_lang_quality_buckets(sf_dir: str):
    """CCNet head/middle/tail bucketing: each doc's hashed-feature
    classifier raw score is bucketed by its position within its OWN
    language's exact terciles (quantile_disc rule). Phase 1 is a
    (lang, score) count combiner through one coarse shuffle — the wire
    carries distinct pairs, never documents; boundaries (langs × 2
    scalars) broadcast once; assignment is a pure map. Oracle re-derives
    the classifier in SQL and buckets with quantile_disc per lang."""
    from ontocast_ray.ops.text import quality_classifier_score
    from ontocast_ray.ops.windows import grouped_quantile_buckets

    docs = _read(sf_dir, "documents", columns=["doc_id", "lang", "text"])
    scored = quality_classifier_score(docs, extra_cols=("lang",))
    return grouped_quantile_buckets(
        scored.select_columns(["doc_id", "lang", "raw_score"]),
        group_col="lang",
        score_col="raw_score",
    )


def _q_dolma_pipeline(sf_dir: str):
    """The Dolma curation order, end-to-end verified in ONE chained
    oracle: paragraph-level keep-first dedup (cross-doc) → full Gopher
    quality gate over the scrubbed text → whitespace-token packing
    (capacity 64, shard = doc_id//100). Composes the round-5 operators
    the way Dolma actually runs them; every stage re-derived in the
    single WITH chain (shared _para_dedup_ctes/_gopher_ctes builders —
    drift-proof against the standalone oracles)."""
    import pyarrow as pa

    from ontocast_ray.ops.curation import paragraph_dedup
    from ontocast_ray.ops.packing import pack_token_meta
    from ontocast_ray.ops.text import gopher_quality_filter

    docs = _read(sf_dir, "documents", columns=["doc_id", "text"])
    scrubbed = paragraph_dedup(
        docs.map_batches(_para_inject_batch, batch_format="pyarrow"),
    )

    def _gate_meta(batch: pa.Table) -> pa.Table:
        import numpy as np
        import pandas as pd

        kept = batch.filter(gopher_quality_filter(batch)["kept"])
        s = pd.Series(kept["text"].to_pandas()).fillna("").str.strip()
        n_tok = s.str.split().str.len().fillna(0).astype("int64").to_numpy()
        ids = kept["doc_id"].to_numpy(zero_copy_only=False)
        return pa.table({
            "doc_id": kept["doc_id"],
            "shard": pa.array(ids // np.int64(100)),
            "n_tokens": pa.array(n_tok, type=pa.int64()),
        })

    meta = scrubbed.map_batches(_gate_meta, batch_format="pyarrow")
    return pack_token_meta(meta, capacity=64)


def _q_gopher_filter(sf_dir: str):
    """The FULL Gopher quality rule set (Rae et al. 2021 §A1.1) applied as
    one pure-map gate: word-count bounds [50, 100k], mean-word-length
    bounds [3, 10], dup-line fraction ≤ 0.30, top-bigram fraction ≤ 0.20,
    ≥2 of the 8 Gopher stop words. Zero shuffles; every signal and the
    final verdict are re-derived by the SQL oracle (int/int IEEE ratios,
    no rounding)."""
    from ontocast_ray.ops.text import gopher_quality_filter

    docs = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return docs.map_batches(gopher_quality_filter, batch_format="pyarrow")


def _q_hash_join(sf_dir: str):
    """Shuffle hash equi-join of the two largest tables (lineitem ⋈
    orders) — both sides too big to broadcast at 100 TB, so this is the
    partitioned hash-join shape: tag + union + one hash(key) shuffle +
    per-partition vectorized merge."""
    from ontocast_ray.ops.joins import hash_join

    return hash_join(
        _read(sf_dir, "lineitem", columns=["l_orderkey", "l_linenumber", "l_quantity"]),
        _read(sf_dir, "orders", columns=["o_orderkey", "o_custkey", "o_totalprice"]),
        left_on="l_orderkey",
        right_on="o_orderkey",
        left_cols=["l_linenumber", "l_quantity"],
        right_cols=["o_custkey", "o_totalprice"],
        how="inner",
    )


def _q_stratified_sample(sf_dir: str):
    """Deterministic stratified sample: 5 docs per source with the
    smallest splitmix64(seed=13, doc_id) — exact per-group uniform draw,
    cluster-size independent. Oracle re-derives u with the pure-SQL
    splitmix64 mirror and ranks with row_number()."""
    from ontocast_ray.ops.text import stratified_sample

    docs = _read(sf_dir, "documents", columns=["doc_id", "source"])
    out = stratified_sample(docs, group_col="source", n=5, seed=13)
    return out.select_columns(["source", "doc_id", "rank"])


def _q_semi_join(sf_dir: str):
    """Semi join (SQL WHERE EXISTS): customers that placed at least one
    order. Only DISTINCT right keys cross the wire (map-side dedup), then
    one coarse hash shuffle + per-partition vectorized isin."""
    from ontocast_ray.ops.joins import hash_join

    return hash_join(
        _read(sf_dir, "customer", columns=["c_custkey", "c_nationkey", "c_mktsegment"]),
        _read(sf_dir, "orders", columns=["o_custkey"]),
        left_on="c_custkey",
        right_on="o_custkey",
        left_cols=["c_nationkey", "c_mktsegment"],
        right_cols=[],
        how="semi",
    )


def _q_anti_join(sf_dir: str):
    """Anti join (SQL WHERE NOT EXISTS): customers with no URGENT-priority
    order — the standard referential-integrity / orphan scan (the right
    side is row-filtered at the read so the anti set is non-trivial)."""
    import pyarrow.dataset as pads

    from ontocast_ray.ops.joins import hash_join

    urgent = _read(
        sf_dir,
        "orders",
        columns=["o_custkey"],
        filter=pads.field("o_orderpriority") == "1-URGENT",
    )
    return hash_join(
        _read(sf_dir, "customer", columns=["c_custkey", "c_nationkey", "c_mktsegment"]),
        urgent,
        left_on="c_custkey",
        right_on="o_custkey",
        left_cols=["c_nationkey", "c_mktsegment"],
        right_cols=[],
        how="anti",
    )


def _q_distinct_pairs(sf_dir: str):
    """Multi-column DISTINCT over a joined fact table (the supplier ↔
    customer relationship pairs). Ray Data's native multi-key groupby is a
    full sort-based aggregate; distinct_on is the coarse-shuffle shape:
    map-side drop_duplicates combiner → ONE hash(cols)%P shuffle →
    per-partition dedup. Nothing duplicate-sized crosses the wire twice."""
    from ontocast_ray.ops.joins import distinct_on, hash_join

    joined = hash_join(
        _read(sf_dir, "lineitem", columns=["l_orderkey", "l_suppkey"]),
        _read(sf_dir, "orders", columns=["o_orderkey", "o_custkey"]),
        left_on="l_orderkey",
        right_on="o_orderkey",
        left_cols=["l_suppkey"],
        right_cols=["o_custkey"],
        how="inner",
    )
    return distinct_on(joined, ["l_suppkey", "o_custkey"])


def _q_split_assign(sf_dir: str):
    """Deterministic train/val/test split: u = splitmix64(seed=9, doc_id)
    scaled to [0,1); train <0.9, val <0.95, else test. Pure map — the
    standard leakage-free split assignment, identical on any cluster
    size. Oracle re-derives u with the pure-SQL splitmix64 mirror."""
    import numpy as np
    import pyarrow as pa

    from ontocast_ray.ops.interleave import splitmix64

    def _assign(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.uint64)
        u = splitmix64(ids, seed=9).astype(np.float64) / float(2**64)
        split = np.where(u < 0.9, "train", np.where(u < 0.95, "val", "test"))
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "split": pa.array(split.astype(object), type=pa.string()),
            }
        )

    return _read(sf_dir, "documents", columns=["doc_id"]).map_batches(
        _assign, batch_format="pyarrow"
    )


_BM25_TERMS = ["merge", "spark", "vector"]


def _q_bm25_topk(sf_dir: str):
    """BM25 keyword retrieval: global top-20 docs for a 3-term query —
    two streaming passes (tiny stats aggregate, then score+prune+sort);
    scores match the SQL oracle bit-for-bit (see ops/relevance.py)."""
    from ontocast_ray.ops.relevance import bm25_topk

    return bm25_topk(
        _read(sf_dir, "documents", columns=["doc_id", "text"]),
        terms=_BM25_TERMS,
        k=20,
    )


def _bm25_sql(terms=None, k: int = 20) -> str:
    """BM25 oracle mirroring ops/relevance.py expression-for-expression:
    same tokenization ([a-z]+ on lower), same Lucene idf, same left-to-right
    term accumulation, k1=1.5 / b=0.75 chosen exactly double-representable
    so DECIMAL literal → DOUBLE conversion is exact."""
    terms = terms or _BM25_TERMS
    df_cols = ", ".join(
        f"CAST(count(*) FILTER (list_contains(w, '{t}')) AS BIGINT) AS df{i}"
        for i, t in enumerate(terms)
    )
    avgdl = "(CAST(total_len AS DOUBLE) / n)"
    parts = []
    for i, t in enumerate(terms):
        tf = f"len(list_filter(w, x -> x = '{t}'))"
        parts.append(
            f"ln(1 + (n - df{i} + 0.5) / (df{i} + 0.5))"
            f" * ({tf} * 2.5)"
            f" / ({tf} + 1.5 * (0.25 + 0.75 * (len(w) / {avgdl})))"
        )
    score = "\n                 + ".join(parts)
    return f"""
        WITH words AS (
            SELECT doc_id, regexp_extract_all(lower(text), '[a-z]+') AS w
            FROM documents
        ), stats AS (
            SELECT CAST(count(*) AS BIGINT) AS n,
                   CAST(sum(len(w)) AS BIGINT) AS total_len,
                   {df_cols}
            FROM words
        )
        SELECT doc_id,
               {score} AS bm25
        FROM words, stats
        ORDER BY bm25 DESC, doc_id
        LIMIT {k}
    """


def _q_corpus_interleave(sf_dir: str):
    """Deterministic weighted source interleave: even doc_ids as a 'web'
    source (weight 2), odd as 'code' (weight 1), seed 7 — position is a
    pure function of (seed, doc_id), re-derived bit-exactly by the SQL
    oracle's splitmix64."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from ontocast_ray.ops.interleave import weighted_interleave

    docs = _read(sf_dir, "documents", columns=["doc_id"])
    web = docs.map_batches(
        lambda b: b.filter(pc.equal(pc.bit_wise_and(b["doc_id"], 1), 0)),
        batch_format="pyarrow",
    )
    code = docs.map_batches(
        lambda b: b.filter(pc.equal(pc.bit_wise_and(b["doc_id"], 1), 1)),
        batch_format="pyarrow",
    )
    return weighted_interleave(
        {"web": web, "code": code}, {"web": 2.0, "code": 1.0}, seed=7
    )


def _q_global_entities(sf_dir: str):
    """Cross-document entity merge: salted two-phase metadata groupby (golden)."""
    from ontocast_ray.pipelines.crossdoc import global_entity_table

    return global_entity_table(_q_kg_triples(sf_dir)).select_columns(
        ["entity_uri", "entity_key", "label", "n_docs", "n_mentions"]
    )


def _q_kg_rewritten_global(sf_dir: str):
    """Pure-map triple rewrite onto global entity URIs (golden)."""
    from ontocast_ray.pipelines.crossdoc import rewrite_to_global

    return _q_kg_triples(sf_dir).map_batches(
        rewrite_to_global, batch_format="pyarrow"
    ).select_columns(["subject", "predicate", "object", "graph_scope"])


def _q_media_features(sf_dir: str):
    """Multimodal feature extraction - REAL raw decode for image/PCM rows (golden; l2 digest projection)."""
    import numpy as np
    import pyarrow as pa
    import ray.data

    from ontocast_ray.ops.multimodal import extract_media_features, synth_media_table

    # raw = REAL pixel decode for the image rows (uncompressed uint8
    # H×W×3 buffers): channel means + luminance histogram actually
    # computed; audio/video still flow through the deterministic fake
    # (their codecs aren't in this container)
    media = ray.data.from_arrow(synth_media_table(n=64))
    out = extract_media_features(media, decoder="raw")

    def digest(batch: pa.Table) -> pa.Table:
        # project the list<float> feature to a scalar l2 digest: value-hash
        # comparable by the driver (list columns are not), same information
        # for a regression check
        n = len(batch)
        flat = batch["feature"].combine_chunks().flatten().to_numpy(
            zero_copy_only=False
        )
        arr = flat.reshape(n, -1).astype(np.float64) if n else np.zeros((0, 1))
        return pa.table(
            {
                "media_ref": batch["media_ref"],
                "kind": batch["kind"],
                "feature_dim": batch["feature_dim"],
                "payload_sha": batch["payload_sha"],
                "feature_l2": pa.array(np.sqrt((arr ** 2).sum(axis=1))),
            }
        )

    return out.map_batches(digest, batch_format="pyarrow")


def _q_doc_group_components(sf_dir: str):
    """Connected components over star edges within each (source, lang)
    group — a SQL-checkable closure: component == min doc_id per group."""
    from ontocast_ray.ops.graph_cc import connected_components
    from ontocast_ray.ops.shuffle import shuffle_by

    def pairs_kernel(group):
        import pandas as pd

        frames = []
        for _, rows in group.groupby(["source", "lang"], sort=False):
            ids = sorted(rows["doc_id"].tolist())
            if len(ids) < 2:
                continue
            frames.append(
                pd.DataFrame({"doc_id_a": [ids[0]] * (len(ids) - 1), "doc_id_b": ids[1:]})
            )
        if not frames:
            return pd.DataFrame({"doc_id_a": [], "doc_id_b": []})
        return pd.concat(frames, ignore_index=True)

    docs = _read(sf_dir, "documents", columns=["doc_id", "source", "lang"])
    pairs = shuffle_by(docs, "source", pairs_kernel)
    return connected_components(pairs)


def _q_component_size_hist(sf_dir: str):
    """Duplicate-cluster SIZE DISTRIBUTION (the dedup accounting chart:
    how many 2-clusters vs giant components — the number that decides
    between keep-first and keep-best policies): component sizes from the
    star-edge CC, folded to (size, n_components). Two count folds:
    ``shuffle_by`` on component, then a one-partition gather; the
    histogram itself is O(distinct sizes). Oracle: the window-CTE closure
    + double GROUP BY."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa

    from ontocast_ray.ops.shuffle import shuffle_by

    comps = _q_doc_group_components(sf_dir)

    def size_partial(batch: pa.Table) -> pa.Table:
        c = batch["component"].to_numpy(zero_copy_only=False)
        uniq, cnt = np.unique(c, return_counts=True)
        return pa.table({
            "component": pa.array(uniq.astype(np.int64)),
            "n": pa.array(cnt.astype(np.int64)),
        })

    def size_combine(df: "pd.DataFrame") -> "pd.DataFrame":
        g = df.groupby("component", as_index=False)["n"].sum()
        h = g.groupby("n", as_index=False).size().rename(
            columns={"n": "size", "size": "partial"}
        )
        h["partial"] = h["partial"].astype(np.int64)
        return h[["size", "partial"]]

    sizes = shuffle_by(
        comps.map_batches(size_partial, batch_format="pyarrow"), "component",
        size_combine,
    )

    def hist_fold(df: "pd.DataFrame") -> "pd.DataFrame":
        g = df.groupby("size", as_index=False)["partial"].sum().rename(
            columns={"partial": "n_components"}
        )
        g["n_components"] = g["n_components"].astype(np.int64)
        return g[["size", "n_components"]]

    # distinct sizes are a handful → single-group final fold
    return shuffle_by(sizes, "size", hist_fold, n_parts=1)


def _q_neardup_keep_list(sf_dir: str):
    """Near-dup keep-list: MinHash candidates → exact Jaccard → components."""
    from ontocast_ray.ops.dedup import minhash_lsh_candidates, ngram_jaccard_verify
    from ontocast_ray.ops.graph_cc import dedup_keep_list

    docs = _read(sf_dir, "documents", columns=["doc_id", "text"]).materialize()
    pairs = minhash_lsh_candidates(docs, num_perm=64, bands=16, shingle_k=3)
    verified = ngram_jaccard_verify(docs, pairs, threshold=0.8, shingle_k=3)
    return dedup_keep_list(verified)


def _q_neardup_filtered(sf_dir: str):
    """End of the dedup flow: the corpus with non-representative near-dups
    removed (Bloom-pruned shuffle anti-join — nothing corpus-sized on the
    driver). Projects text to its length so the compare hashes scalars."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from ontocast_ray.ops.dedup import minhash_lsh_candidates, ngram_jaccard_verify
    from ontocast_ray.ops.graph_cc import apply_keep_list, dedup_keep_list

    docs = _read(sf_dir, "documents", columns=["doc_id", "source", "text"]).materialize()
    pairs = minhash_lsh_candidates(docs, num_perm=64, bands=16, shingle_k=3)
    verified = ngram_jaccard_verify(docs, pairs, threshold=0.8, shingle_k=3)
    kept = apply_keep_list(docs, dedup_keep_list(verified))

    def project(batch):
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "source": batch["source"],
                "text_len": pc.utf8_length(batch["text"]),
            }
        )

    return kept.map_batches(project, batch_format="pyarrow")


def _q_events_hopping(sf_dir: str):
    """Hopping (overlapping) windows - each row fans out to its windows map-side, one groupby."""
    import pyarrow as pa

    from ontocast_ray.ops.windows import hopping_window

    out = hopping_window(
        _read(sf_dir, "events", columns=["user_id", "ts", "value"]),
        size_minutes=60, hop_minutes=30,
    )

    def cast_us(batch: pa.Table) -> pa.Table:
        i = batch.schema.get_field_index("window_start")
        return batch.set_column(
            i, "window_start", batch["window_start"].cast(pa.timestamp("us"))
        )

    return out.map_batches(cast_us, batch_format="pyarrow")


_VALUE_BANDS = [(0.0, 10.0, "tiny"), (10.0, 50.0, "small"), (50.0, 150.0, "large")]


def _q_events_value_bands(sf_dir: str):
    """Broadcast range join: events.value → band intervals, then aggregate."""
    from ray.data.aggregate import Count, Max, Min

    from ontocast_ray.ops.joins import broadcast_range_join

    events = _read(sf_dir, "events", columns=["event_id", "value"])
    banded = broadcast_range_join(events, _VALUE_BANDS, value_col="value", out_col="band")
    return banded.groupby("band").aggregate(
        Count(alias_name="n_events"),
        Min("value", alias_name="min_value"),
        Max("value", alias_name="max_value"),
    )


def _q_events_watermark(sf_dir: str):
    """Tumbling window dropping late arrivals (watermark semantics);
    arrival_ts synthesized deterministically: ts + (id*K)%1200 seconds."""
    import pyarrow as pa

    from ontocast_ray.ops.windows import tumbling_window_late_drop

    events = _read(sf_dir, "events", columns=["event_id", "user_id", "ts", "value"])

    def with_arrival(batch: pa.Table) -> pa.Table:
        import numpy as np

        ids = batch["event_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        delay_s = (ids * 2654435761) % 1200
        ts = batch["ts"].to_pandas()
        arrival = ts + pd.to_timedelta(delay_s, unit="s")
        return batch.append_column(
            "arrival_ts", pa.Array.from_pandas(arrival, type=batch["ts"].type)
        )

    import pandas as pd

    out = tumbling_window_late_drop(
        events.map_batches(with_arrival, batch_format="pyarrow"),
        every_minutes=60, allowed_lateness_minutes=10,
    )

    def cast_us(batch: pa.Table) -> pa.Table:
        i = batch.schema.get_field_index("window_start")
        return batch.set_column(
            i, "window_start", batch["window_start"].cast(pa.timestamp("us"))
        )

    return out.map_batches(cast_us, batch_format="pyarrow")


def _q_events_quantiles(sf_dir: str):
    """Exact per-user quantiles (disc rule) - per-key-fits-reducer caveat documented; DDSketch is the scale path."""
    from ontocast_ray.ops.windows import group_quantiles

    return group_quantiles(
        _read(sf_dir, "events", columns=["event_type", "value"]),
        key_col="event_type", value_col="value", quantiles=(0.5, 0.95, 0.99),
    )


def _q_events_asof(sf_dir: str):
    """Each purchase annotated with the user's latest click at or before it."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from ontocast_ray.ops.joins import asof_join

    events = _read(sf_dir, "events", columns=["event_id", "user_id", "ts", "value", "event_type"])

    def of_type(t):
        return lambda b: b.filter(pc.equal(b["event_type"], pa.scalar(t))).drop_columns(
            ["event_type"]
        )

    purchases = events.map_batches(of_type("purchase"), batch_format="pyarrow")
    clicks = events.map_batches(of_type("click"), batch_format="pyarrow")
    return asof_join(
        purchases, clicks, key_col="user_id", ts_col="ts",
        left_cols=["user_id", "ts", "event_id", "value"], right_value_col="value",
        out_ts_col="click_ts", out_value_col="click_value",
    )


def _q_term_counts(sf_dir: str):
    """Global top-50 term frequencies - map-side combiner, vocabulary-sized shuffle."""
    from ontocast_ray.ops.text import term_counts

    return term_counts(_read(sf_dir, "documents", columns=["text"]), top_n=50)


def _q_doc_sample(sf_dir: str):
    """Deterministic 10% modular-hash sample - pure map, no RNG state."""
    from ontocast_ray.ops.text import deterministic_sample

    return deterministic_sample(
        _read(sf_dir, "documents", columns=["doc_id", "n_chars"]), pct=10
    )


def _q_top_docs_per_source(sf_dir: str):
    """Per-group top-3 by length - partial top-k combiner, shuffle moves <= k rows per (group, batch)."""
    from ontocast_ray.ops.rank import topk_per_group

    docs = _read(sf_dir, "documents", columns=["source", "doc_id", "n_chars"])
    out = topk_per_group(
        docs, group_col="source", order_col="n_chars", k=3,
        tiebreak_col="doc_id", descending=True,
    )
    return out.select_columns(["source", "doc_id", "n_chars", "rank"])


def _q_url_dedup(sf_dir: str):
    """URL-level dedup, the FIRST pass of every web-crawl curation stack
    (CCNet/RefinedWeb/Dolma run it before any content dedup): synthesize
    a deterministic crawl URL per doc (mixed-case scheme/host, www.
    prefix, default :80 port, trailing slash, unsorted query params, a
    utm_ tracking param, a fragment — mods 5/7/3/2 so distinct doc_ids
    collide on the canonical form), canonicalize, keep min doc_id per
    canonical URL. The oracle re-derives canonicalization INDEPENDENTLY
    from the raw string with DuckDB regex/list functions. Shuffle
    carries only (url_canon, min_id, count) combiner rows."""
    from ontocast_ray.ops.urls import url_dedup

    docs = _read(sf_dir, "documents", columns=["doc_id"])

    def synth(df):
        d = df["doc_id"]
        df["url"] = (
            "HTTP://WWW.Site" + (d % 5).astype(str)
            + ".Example.COM:80/p/" + (d % 7).astype(str)
            + "/?b=" + (d % 3).astype(str)
            + "&utm_source=feed&a=" + (d % 2).astype(str)
            + "#s" + d.astype(str)
        )
        return df

    return url_dedup(
        docs.map_batches(synth, batch_format="pandas")
    )


def _q_token_windows(sf_dir: str):
    """Overlapping fixed-size context windows (LM-eval striding: window
    32, stride 16) per document — the non-concatenating alternative to
    pack_sequences. Pure map fan-out, zero shuffles; every window's text
    is byte-compared against the SQL list_slice mirror."""
    from ontocast_ray.ops.packing import sliding_token_windows

    docs = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return sliding_token_windows(docs, window=32, stride=16)


def _q_knn_ivf_recall(sf_dir: str):
    """ANN index evaluation: per-query recall@10 of the IVF search (16
    clusters, 4 probed) against the exact brute-force top-10 — the
    metric every ANN deployment tunes against. Both sides are the
    existing golden-backed searches; the recall join shuffles ≤ 2k rows
    per query on a coarse query-hash key (seed-deterministic → golden)."""
    from ontocast_ray.ops.similarity import knn_bruteforce, knn_ivf, knn_recall

    emb = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    queries = _query_vectors(emb)
    approx = knn_ivf(
        emb, queries, k=10, n_clusters=16, n_probe=4,
        index_dir=_index_scratch(sf_dir, "ivf_recall"),
    )
    exact = knn_bruteforce(emb, queries, k=10)
    return knn_recall(approx, exact)


def _q_html_extract(sf_dir: str):
    """HTML→text extraction (the step before all text curation on web
    crawls): synthesize an HTML page per doc (mixed-case tags, script/
    nav/footer junk elements, attributes, entities), drop non-content
    elements wholesale, strip tags, decode entities, collapse
    whitespace. RE2-compatible patterns only, so the DuckDB
    regexp_replace('gis') chain mirrors byte-for-byte."""
    from ontocast_ray.ops.curation import html_extract_text

    docs = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def synth(df):
        df["html"] = (
            '<HTML><head><script>var x=1;</script></head><body>'
            '<NAV id="n">menu</NAV><p class="a">'
            + df["text"] + " &nbsp;&amp; more</p><br/>"
            '<footer>(c) site</footer></body></html>'
        )
        return df[["doc_id", "html"]]

    return html_extract_text(
        docs.map_batches(synth, batch_format="pandas")
    ).select_columns(["doc_id", "text"])


def _q_blocked_domains(sf_dir: str):
    """Domain-blocklist filter (the content-policy step right after URL
    canonicalization): synthesized hosts — 3 of 4 docs on
    www.site{d%5}.example.com, 1 of 4 on a.b.example.org — filtered
    against {site1.example.com, example.org}; the blocklist closure must
    drop the deep subdomain via the parent-domain rule. Broadcast-small
    blocklist, vectorized isin, zero shuffles; oracle re-parses the raw
    URL and re-derives suffix membership in SQL."""
    from ontocast_ray.ops.urls import filter_blocked_domains

    docs = _read(sf_dir, "documents", columns=["doc_id"])

    def synth(df):
        d = df["doc_id"]
        site = "WWW.Site" + (d % 5).astype(str) + ".Example.COM"
        host = site.where(d % 4 != 3, "a.b.Example.ORG")
        df["url"] = "http://" + host + "/p/" + d.astype(str)
        return df

    return filter_blocked_domains(
        docs.map_batches(synth, batch_format="pandas"),
        {"site1.example.com", "example.org"},
    )


def _q_diversity_stats(sf_dir: str):
    """Lexical-diversity quality signals (type-token ratio +
    distinct-trigram fraction — the inverse of Gopher's repetition
    rules): pure vectorized map over FNV word hashes, zero shuffles;
    integer counts, two IEEE divides, SQL list_distinct mirror."""
    from ontocast_ray.ops.text import diversity_stats

    docs = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return docs.map_batches(diversity_stats, batch_format="pyarrow")


def _q_corpus_diff(sf_dir: str):
    """Corpus snapshot diff (crawl-over-crawl accounting): 'old' = docs
    with id%3≠0, 'new' = id%2≠0; a FULL OUTER hash join on doc_id labels
    every doc added/removed/both, then a tiny 3-key rollup of counts and
    retained chars. Exercises the full-outer mode of the partitioned
    hash join (both-side null payloads)."""
    import numpy as np
    import pyarrow as pa

    from ontocast_ray.ops.joins import hash_join
    from ontocast_ray.ops.shuffle import shuffle_by

    docs = _read(sf_dir, "documents", columns=["doc_id", "n_chars"])

    def side(mod: int, flag_col: str, keep_chars: bool):
        def _s(b: pa.Table) -> pa.Table:
            m = (b["doc_id"].to_numpy(zero_copy_only=False) % mod) != 0
            f = b.filter(pa.array(m))
            cols = {"doc_id": f["doc_id"]}
            if keep_chars:
                cols["old_chars"] = f["n_chars"]
            cols[flag_col] = pa.array(np.ones(len(f), dtype=np.int64))
            return pa.table(cols)

        return _s

    old = docs.map_batches(side(3, "old_flag", True), batch_format="pyarrow")
    new = docs.map_batches(side(2, "new_flag", False), batch_format="pyarrow")
    joined = hash_join(
        old, new, left_on="doc_id", right_on="doc_id",
        left_cols=["old_chars", "old_flag"], right_cols=["new_flag"],
        how="full",
    )

    def label(df):
        import pandas as pd

        o = df["old_flag"].notna().to_numpy()
        n = df["new_flag"].notna().to_numpy()
        status = np.where(o & n, "both", np.where(o, "removed", "added"))
        chars = df["old_chars"].fillna(0).astype("int64").to_numpy()
        part = pd.DataFrame({"status": status, "chars": chars})
        return part.groupby("status", as_index=False).agg(
            n_docs=("chars", "size"), old_chars_total=("chars", "sum")
        )

    def merge(g):
        return g.groupby("status", as_index=False).agg(
            n_docs=("n_docs", "sum"), old_chars_total=("old_chars_total", "sum")
        )

    return shuffle_by(
        joined.map_batches(label, batch_format="pandas"), "status", merge,
    )


def _q_temperature_mix(sf_dir: str):
    """Temperature-scaled language mixing (XLM-R rule, T=0.5): per-lang
    keep rate min(1, 10/sqrt(c)) damps the English head and keeps the
    tail whole; splitmix Bernoulli draws, zero shuffles, BIT-exact SQL
    mirror (sqrt/divide are IEEE-correctly-rounded in both engines)."""
    from ontocast_ray.ops.interleave import temperature_mix

    docs = _read(sf_dir, "documents", columns=["doc_id", "lang"])
    return temperature_mix(
        docs, group_col="lang", k_scale=10.0, temperature=0.5, seed=33
    )


def _q_label_centroids(sf_dir: str):
    """Per-label embedding centroids (nearest-class-mean prototypes),
    integer-quantized floor(v·2^20) BEFORE summing so int64 sums are
    order-free and exact in both engines — the float-sum-order trap the
    repo's oracle rules forbid. Map-side np.add.at partials, one coarse
    label%P shuffle."""
    from ontocast_ray.ops.features import label_centroids

    emb = _read(sf_dir, "embeddings", columns=["label", "embedding"])
    return label_centroids(emb)


def _q_incremental_neardup(sf_dir: str):
    """Incremental MinHash near-dup (the daily-crawl shape for NEAR
    duplicates): the 'new batch' = odd docs plus lightly-edited recrawls
    of id%10==0 docs (text + 3 appended words, Jaccard ≈0.9 vs the even
    originals in the index); candidates are cross-side LSH bucket pairs
    (32 bands × 2 rows — recall ~1 at J≥0.8 even at sf0.001), verified
    by the exact distributed shingle-Jaccard join. The index is probed,
    never re-deduped against itself."""
    import pyarrow.compute as pc

    from ontocast_ray.ops.dedup import (
        incremental_minhash_candidates,
        ngram_jaccard_verify,
    )

    docs = _read(sf_dir, "documents", columns=["doc_id", "text"])
    index = docs.map_batches(
        lambda b: b.filter(pc.equal(pc.bit_wise_and(b["doc_id"], 1), 0)),
        batch_format="pyarrow",
    )
    odd = docs.map_batches(
        lambda b: b.filter(pc.equal(pc.bit_wise_and(b["doc_id"], 1), 1)),
        batch_format="pyarrow",
    )

    def _recrawl(b):
        import numpy as np
        import pyarrow as pa
        import pyarrow.compute as pc

        mask = (b["doc_id"].to_numpy(zero_copy_only=False) % 10) == 0
        f = b.filter(pa.array(mask))
        return pa.table(
            {
                "doc_id": pc.add(f["doc_id"], 1_000_000),
                "text": pc.binary_join_element_wise(
                    pc.cast(f["text"], pa.string()),
                    " extra revision line", "",
                ),
            }
        )

    new = odd.union(docs.map_batches(_recrawl, batch_format="pyarrow"))
    pairs = incremental_minhash_candidates(
        new, index, num_perm=64, bands=32, shingle_k=3
    )
    return ngram_jaccard_verify(
        index.union(new), pairs, threshold=0.8, shingle_k=3
    )


def _q_global_quantiles(sf_dir: str):
    """EXACT global quantiles of event value by distributed 16-bit radix
    selection over the IEEE order-preserving key: 4 pure-map rounds, no
    shuffle, O(|Q|·2^16) driver ints, heavy duplication free — the exact
    counterpart of the DDSketch leg and the global-scale escape from
    group_quantiles' per-key-fits-reducer caveat."""
    from ontocast_ray.ops.windows import global_quantiles_exact

    events = _read(sf_dir, "events", columns=["value"])
    return global_quantiles_exact(
        events, quantiles=(0.25, 0.5, 0.95, 0.99)
    )


def _q_countmin(sf_dir: str):
    """Count-Min sketch point-frequency estimates for the exact heavy
    terms (≥100 occurrences): the sketch is one no-shuffle pass with
    32 KB of mergeable driver state; estimates are min-over-depth-rows
    and always ≥ the exact count. Oracle rebuilds the identical table
    in SQL (raw FNV-1a + odd-multiplier top-bit buckets, HUGEINT
    wrapping multiply)."""
    import pyarrow as pa

    from ontocast_ray.ops.sketch import (
        countmin_estimate,
        countmin_table,
        heavy_hitters,
    )

    docs = _read(sf_dir, "documents", columns=["doc_id", "text"])
    heavy = heavy_hitters(docs, threshold=100).to_pandas()
    table = countmin_table(docs, depth=4, width=1024)
    est = countmin_estimate(table, heavy["term"].tolist())
    return pa.table(
        {
            "term": pa.array(heavy["term"].astype(object)),
            "n_count": pa.array(heavy["n_count"].to_numpy().astype("int64")),
            "n_est": pa.array(est),
        }
    )


def _q_keep_best(sf_dir: str):
    """Quality-aware near-dup keep rule (the RefinedWeb/Dolma policy):
    within each verified near-dup component keep the LONGEST member
    (n_chars, tie → min id) instead of min-id — clusters usually pair a
    full page with truncated copies. 32-band LSH (recall ~1 at J≥0.8
    down to sf0.001) → exact Jaccard verify → components → one coarse
    component-hash argmax."""
    from ontocast_ray.ops.dedup import (
        minhash_lsh_candidates,
        ngram_jaccard_verify,
    )
    from ontocast_ray.ops.graph_cc import dedup_keep_best

    docs = _read(sf_dir, "documents", columns=["doc_id", "text", "n_chars"]).materialize()
    pairs = minhash_lsh_candidates(
        docs, num_perm=64, bands=32, shingle_k=3
    )
    verified = ngram_jaccard_verify(
        docs, pairs, threshold=0.8, shingle_k=3
    )
    # the docs themselves are the scores: a projection of them would start
    # an execution of its own, and the score map reads two columns anyway
    return dedup_keep_best(verified, docs, score_col="n_chars")


def _q_dedup_audit(sf_dir: str):
    """Dedup accountability report: every doc in a verified near-dup
    component with its representative, strongest direct evidence (max
    exact Jaccard over its pairs) and partner count — the audit trail
    production dedup ships with a keep-list. Pair-scale data only, one
    coarse doc-hash shuffle."""
    from ontocast_ray.ops.dedup import (
        minhash_lsh_candidates,
        ngram_jaccard_verify,
    )
    from ontocast_ray.ops.graph_cc import dedup_audit, dedup_keep_list

    docs = _read(sf_dir, "documents", columns=["doc_id", "text"]).materialize()
    pairs = minhash_lsh_candidates(
        docs, num_perm=64, bands=32, shingle_k=3,
        pair_mode="all",
    )
    verified = ngram_jaccard_verify(
        docs, pairs, threshold=0.8, shingle_k=3
    ).materialize()
    keep = dedup_keep_list(verified)
    return dedup_audit(verified, keep)


def _q_global_robust(sf_dir: str):
    """Global robust standardization (v - median)/MAD via two radix
    selections + one scaling map — zero shuffles, two scalar driver
    values, bit-exact against the quantile_disc SQL mirror."""
    from ontocast_ray.ops.windows import global_robust_scale

    events = _read(sf_dir, "events", columns=["event_id", "value"])
    return global_robust_scale(events)


def _q_web_pipeline(sf_dir: str):
    """The full web-crawl curation front-half, end-to-end verified: synth
    crawl pages (colliding URLs + HTML junk wrappers per doc) → URL
    dedup → domain blocklist (site1 banned) → HTML→text extraction →
    alpha-ratio gate → exact content dedup → 64-token packing. ONE
    streaming pipeline, ONE chained SQL oracle re-deriving every stage."""
    from ontocast_ray.pipelines.web import curate_web_corpus

    docs = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def synth(df):
        d = df["doc_id"]
        df["url"] = (
            "HTTP://WWW.Site" + (d % 5).astype(str)
            + ".Example.COM:80/p/" + (d % 7).astype(str)
            + "/?b=" + (d % 3).astype(str)
            + "&utm_source=feed&a=" + (d % 2).astype(str)
            + "#s" + d.astype(str)
        )
        df["html"] = (
            '<HTML><head><script>var x=1;</script></head><body>'
            '<NAV id="n">menu</NAV><p class="a">'
            + df["text"] + " &nbsp;&amp; more</p><br/>"
            '<footer>(c) site</footer></body></html>'
        )
        return df[["doc_id", "url", "html"]]

    pages = docs.map_batches(synth, batch_format="pandas")
    return curate_web_corpus(
        pages, {"site1.example.com"},
        min_alpha_ratio=0.6, capacity=64, shard_span=100,
    )


def _q_stratified_split(sf_dir: str):
    """EXACT per-source train/val/test split (80/10/10, floor-cumulative
    boundaries over the splitmix rank within each group) — the exact-
    proportions companion to the Bernoulli split_assign. One coarse
    group-hash shuffle; ROW_NUMBER-over-same-mix SQL replay (ordered by
    the raw UBIGINT mix, not its float projection)."""
    from ontocast_ray.ops.interleave import stratified_split

    docs = _read(sf_dir, "documents", columns=["doc_id", "source"])
    return stratified_split(
        docs, group_col="source", fracs=(0.8, 0.1, 0.1), seed=41,
    )


def _q_incremental_embedding(sf_dir: str):
    """Incremental EMBEDDING near-dup (semantic member of the incremental
    family): 'new batch' = odd vecs + re-tagged copies of even%10==0 vecs
    (known semantic dups, cosine 1.0); 'index' = even vecs, probed via
    the SAME seeded hyperplane buckets it was built with — never
    re-deduped against itself. Seed-deterministic → golden."""
    import pyarrow.compute as pc

    from ontocast_ray.ops.dedup import incremental_embedding_dedup

    emb = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    index = emb.map_batches(
        lambda b: b.filter(pc.equal(pc.bit_wise_and(b["vec_id"], 1), 0)),
        batch_format="pyarrow",
    )
    odd = emb.map_batches(
        lambda b: b.filter(pc.equal(pc.bit_wise_and(b["vec_id"], 1), 1)),
        batch_format="pyarrow",
    )

    def _copies(b):
        import numpy as np
        import pyarrow as pa
        import pyarrow.compute as pc

        ids = b["vec_id"].to_numpy(zero_copy_only=False)
        f = b.filter(pa.array((ids % 10) == 0))
        return f.set_column(
            f.schema.get_field_index("vec_id"),
            "vec_id",
            pc.add(f["vec_id"], 1_000_000),
        )

    new = odd.union(emb.map_batches(_copies, batch_format="pyarrow"))
    return incremental_embedding_dedup(
        new, index, threshold=0.95, n_planes=16, bands=2, seed=5,
    )


def _q_neighbor_agg(sf_dir: str):
    """2-hop GNN-style neighbor feature aggregation over the supplier↔
    customer bipartite graph: integer features (acctbal cents via exact
    floor), one feature-carrier join + coarse dst-sum per hop; (A^T)² f
    exactly, mirrored by a two-join SQL chain."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from ontocast_ray.ops.graph_cc import neighbor_feature_sum
    from ontocast_ray.ops.joins import distinct_on, hash_join

    edges = _supplier_customer_edges(sf_dir).materialize()

    supp = _read(sf_dir, "supplier", columns=["s_suppkey", "s_acctbal"])
    cust = _read(sf_dir, "customer", columns=["c_custkey", "c_acctbal"])

    def s_feat(b):
        import numpy as np
        import pyarrow as pa

        return pa.table({
            "node": b["s_suppkey"].cast(pa.int64()),
            "f": pa.array(np.floor(
                b["s_acctbal"].to_numpy(zero_copy_only=False) * 100.0
            ).astype(np.int64)),
        })

    def c_feat(b):
        import numpy as np
        import pyarrow as pa
        import pyarrow.compute as pc

        return pa.table({
            "node": pc.add(b["c_custkey"], 1_000_000).cast(pa.int64()),
            "f": pa.array(np.floor(
                b["c_acctbal"].to_numpy(zero_copy_only=False) * 100.0
            ).astype(np.int64)),
        })

    feats = (
        supp.map_batches(s_feat, batch_format="pyarrow")
        .union(cust.map_batches(c_feat, batch_format="pyarrow"))
        .materialize()
    )
    return neighbor_feature_sum(edges, feats, hops=2)


def _q_weekly_retention(sf_dir: str):
    """Week-over-week cohort retention: distinct (user, ISO week) pairs
    map-side, one coarse user-hash colocate flags retained weeks via a
    sorted 7-day diff, tiny week-keyed sum. EXISTS-subquery SQL mirror."""
    from ontocast_ray.ops.windows import weekly_retention

    events = _read(sf_dir, "events", columns=["user_id", "ts"])
    return weekly_retention(events)


def _q_quantile_buckets(sf_dir: str):
    """Equal-frequency feature binning (decile buckets of event value):
    exact boundaries from one radix-selection pass, then a pure
    searchsorted map — no sort, no shuffle. Oracle counts boundary-list
    membership per row against the same quantile_disc boundaries."""
    from ontocast_ray.ops.windows import quantile_bucketize

    events = _read(sf_dir, "events", columns=["event_id", "value"])
    return quantile_bucketize(events, k=10)


def _supplier_customer_edges(sf_dir: str, with_ek: bool = False):
    """Shared bipartite-edge builder (supplier ↔ customer via distinct
    lineitem⋈orders pairs, customers offset +1,000,000, both
    directions) — single source of truth for the graph queries (ppr,
    lpa, pagerank, neighbor agg/sample); ``with_ek`` adds the
    src·2^32+dst edge key used by sampling."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from ontocast_ray.ops.joins import broadcast_join_int, distinct_on

    li = _read(sf_dir, "lineitem", columns=["l_orderkey", "l_suppkey"])
    orders = _read(sf_dir, "orders", columns=["o_orderkey", "o_custkey"])
    # orders is the dim side here (4× smaller than lineitem, unique key):
    # broadcast it once instead of shuffling both tables — measured 25%
    # faster than the partitioned hash_join at sf0.1 (which remains the
    # path when neither side is broadcastable; exercised by
    # lineitem_orders_join / supplier_customer_pairs)
    joined = broadcast_join_int(
        li, orders, big_key="l_orderkey", small_key="o_orderkey",
        small_val="o_custkey", out_col="o_custkey",
    )
    pairs = distinct_on(joined, ["l_suppkey", "o_custkey"])

    def mk(b: pa.Table) -> pa.Table:
        s = b["l_suppkey"].combine_chunks().cast(pa.int64())
        c = pc.add(b["o_custkey"].combine_chunks().cast(pa.int64()),
                   1_000_000)
        src = pa.concat_arrays([s, c])
        dst = pa.concat_arrays([c, s])
        cols = {"src": src, "dst": dst}
        if with_ek:
            cols["ek"] = pc.add(pc.multiply(src, 4294967296), dst)
        return pa.table(cols)

    return pairs.map_batches(mk, batch_format="pyarrow")


def _q_ppr(sf_dir: str):
    """Personalized integer PageRank (random walk with restart): teleport
    + dangling mass flow only to even-id nodes — the seed set is a pure
    node predicate (no broadcast), so the floor-division spec stays
    bit-exact and the SQL mirror replays it verbatim."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from ontocast_ray.ops.joins import distinct_on, hash_join
    from ontocast_ray.ops.pagerank import pagerank_int

    edges = _supplier_customer_edges(sf_dir)
    return pagerank_int(edges, n_iters=3, seed_mod=2, seed_rem=0)


def _q_doc_keywords(sf_dir: str):
    """Per-doc keyword extraction: top-3 terms by (tf DESC, df ASC,
    term ASC) — the TF-IDF ordering made integer-exact (no float log).
    Term shuffle carries per-doc combined (doc, term, tf) rows once;
    ROW_NUMBER SQL mirror."""
    from ontocast_ray.ops.text import doc_keywords

    docs = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return doc_keywords(docs, k=3)


def _q_rrf(sf_dir: str):
    """Hybrid retrieval: Reciprocal Rank Fusion of the BM25 top-20 and
    the exact dense-kNN top-20 (query vector 0) — rrf = 1/(60+r_bm25) +
    1/(60+r_knn), fixed fold order. Golden-pinned: the kNN leg ranks by
    float32 cosine, and cross-engine float ordering (numpy BLAS vs
    DuckDB's fold) can rank-swap near-ties — the same reason the IVF
    kNN queries are goldens. The fusion arithmetic itself is
    unit-anchored. Both retrievers scan distributed; the fuse merges
    two k-bounded lists."""
    import pyarrow as pa

    import ray.data

    from ontocast_ray.ops.relevance import bm25_topk, reciprocal_rank_fusion
    from ontocast_ray.ops.similarity import knn_bruteforce

    docs = _read(sf_dir, "documents", columns=["doc_id", "text"])
    bm_rows = sorted(
        bm25_topk(docs, terms=_BM25_TERMS, k=20).take_all(),
        key=lambda r: (-r["bm25"], r["doc_id"]),
    )
    bm_ranked = ray.data.from_arrow(pa.table({
        "doc_id": pa.array([r["doc_id"] for r in bm_rows], type=pa.int64()),
        "r": pa.array(range(1, len(bm_rows) + 1), type=pa.int64()),
    }))

    emb = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    knn = knn_bruteforce(emb, _query_vectors(emb, n=1), k=20)
    knn_ranked = knn.map_batches(
        lambda b: pa.table({"doc_id": b["vec_id"].cast(pa.int64()),
                            "r": b["rank"].cast(pa.int64())}),
        batch_format="pyarrow",
    )
    return reciprocal_rank_fusion([bm_ranked, knn_ranked], k0=60, k=10)


def _q_kg_entity_degrees(sf_dir: str):
    """KG analytics over the FLAGSHIP pipeline output: per-entity degree
    profile of the extracted fact graph (out = as subject, in = as
    non-literal object, scope='facts'), top-50 hubs by (degree DESC,
    entity ASC). Runs the live KG pipeline then one ``shuffle_by`` on
    entity for the degree sum. Golden-pinned (doc IRIs are
    content-hash-derived, so the value set is SF-specific like the other
    kg_* goldens); the degree kernel itself is unit-anchored."""
    import numpy as np
    import pandas as pd

    from ontocast_ray.ops.shuffle import shuffle_by

    triples = _q_kg_triples(sf_dir)

    def partial(df: "pd.DataFrame") -> "pd.DataFrame":
        df = df[df["graph_scope"] == "facts"]
        subs = df["subject"]
        objs = df.loc[~df["object_is_literal"], "object"]
        ent = pd.concat([subs, objs], ignore_index=True)
        out_flag = np.concatenate([
            np.ones(len(subs), dtype=np.int64),
            np.zeros(len(objs), dtype=np.int64),
        ])
        g = pd.DataFrame({"entity": ent, "out_deg": out_flag,
                          "in_deg": 1 - out_flag})
        return g.groupby("entity", as_index=False).sum()

    def combine(g: "pd.DataFrame") -> "pd.DataFrame":
        out = g.groupby("entity", as_index=False).agg(
            out_deg=("out_deg", "sum"), in_deg=("in_deg", "sum")
        )
        out["degree"] = out["out_deg"] + out["in_deg"]
        return out

    degrees = shuffle_by(
        triples.map_batches(partial, batch_format="pandas"), "entity",
        combine,
    )
    top = degrees.sort(["degree", "entity"], descending=[True, False]).limit(50)
    return top.select_columns(["entity", "out_deg", "in_deg", "degree"])


def _q_langid_confusion(sf_dir: str):
    """Language-ID evaluation: confusion counts of declared lang vs the
    stopword-ratio predictor — (lang_declared, lang_pred, n_docs). One
    partitioned join of two per-doc label streams + a tiny pair count;
    the standard quality check before trusting a classifier gate."""
    import pandas as pd

    from ontocast_ray.ops.joins import hash_join
    from ontocast_ray.ops.shuffle import shuffle_by
    from ontocast_ray.ops.text import LangId

    docs = _read(sf_dir, "documents", columns=["doc_id", "text", "lang"])
    pred = docs.map_batches(LangId(), batch_format="pyarrow").select_columns(
        ["doc_id", "lang_pred"]
    )
    declared = docs.select_columns(["doc_id", "lang"])
    joined = hash_join(
        declared, pred,
        left_on="doc_id", right_on="doc_id",
        left_cols=["lang"], right_cols=["lang_pred"],
    )

    def partial(df: "pd.DataFrame") -> "pd.DataFrame":
        g = df.groupby(["lang", "lang_pred"], as_index=False).size()
        return g.rename(columns={"size": "n", "lang": "lang_declared"})

    def combine(g: "pd.DataFrame") -> "pd.DataFrame":
        out = g.groupby(["lang_declared", "lang_pred"], as_index=False)[
            "n"
        ].sum()
        out["n_docs"] = out["n"].astype("int64")
        return out[["lang_declared", "lang_pred", "n_docs"]]

    # pair cardinality ≤ |langs|² — one tiny single-partition combine
    return shuffle_by(
        joined.map_batches(partial, batch_format="pandas"), "lang_declared",
        combine, n_parts=1,
    )


def _q_neighbor_sample(sf_dir: str):
    """GNN minibatch prep: deterministic neighbor sampling — keep ≤3
    neighbors per node, chosen as the smallest splitmix64(seed, edge
    key) (edge key = src·2^32 + dst). Pure reuse of cap_per_group's
    combiner-first shape; identical at any parallelism and replayed by
    the scalar-splitmix ROW_NUMBER oracle."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from ontocast_ray.ops.curation import cap_per_group
    from ontocast_ray.ops.joins import distinct_on, hash_join

    edges = _supplier_customer_edges(sf_dir, with_ek=True)
    return cap_per_group(
        edges, group_col="src", cap=3, id_col="ek", seed=13
    ).select_columns(["src", "dst"])


def _q_contrastive_triplets(sf_dir: str):
    """Contrastive-training data construction (SimCSE/E5 prep): anchors/
    positives are the verified near-dup pairs (exact Jaccard ≥ 0.8 via
    32-band LSH), the negative is a deterministic splitmix draw keyed on
    the PAIR (a·2^32+b) over the dense doc space, nudged off collisions
    with either member — pure map after the dedup flow, zero extra
    shuffles, scalar-splitmix SQL replay."""
    import numpy as np
    import pyarrow as pa

    from ontocast_ray.ops.dedup import (
        minhash_lsh_candidates,
        ngram_jaccard_verify,
    )
    from ontocast_ray.ops.interleave import splitmix64

    docs = _read(sf_dir, "documents", columns=["doc_id", "text"]).materialize()
    n_docs = docs.count()
    pairs = minhash_lsh_candidates(
        docs, num_perm=64, bands=32, shingle_k=3,
        pair_mode="all",  # the pair LIST is the product, not components
    )
    verified = ngram_jaccard_verify(
        docs, pairs, threshold=0.8, shingle_k=3
    )

    def draw(batch: pa.Table) -> pa.Table:
        a = batch["doc_id_a"].to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        b = batch["doc_id_b"].to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        with np.errstate(over="ignore"):
            key = (a.astype(np.uint64) * np.uint64(4294967296)
                   + b.astype(np.uint64))
        neg = (splitmix64(key, seed=23) % np.uint64(n_docs)).astype(
            np.int64
        )
        neg = np.where((neg == a) | (neg == b), (neg + 1) % n_docs, neg)
        neg = np.where((neg == a) | (neg == b), (neg + 1) % n_docs, neg)
        return pa.table(
            {"anchor": pa.array(a), "positive": pa.array(b),
             "negative": pa.array(neg)}
        )

    return verified.map_batches(draw, batch_format="pyarrow")


def _q_decayed_value(sf_dir: str):
    """Recency-weighted per-user value: integer half-life decay
    (cents >> age_weeks vs a fixed reference) — order-free exact sums,
    bit-identical SQL mirror; map-side combiner + one coarse shuffle."""
    from ontocast_ray.ops.windows import decayed_user_value

    events = _read(sf_dir, "events", columns=["user_id", "ts", "value"])
    return decayed_user_value(events)


def _q_linear_attribution(sf_dir: str):
    """Linear multi-touch attribution: each purchase splits 10 000
    integer credit units equally over the user's clicks in the prior 30
    minutes (floor share — remainders stay with the purchase, the spec);
    per-user totals of attributed credit. Composition over the interval
    count join — per-purchase counts become per-click shares as pure
    arithmetic, then one ``shuffle_by`` user sum. Integer end-to-end."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import pyarrow.compute as pc

    from ontocast_ray.ops.joins import interval_count_join
    from ontocast_ray.ops.shuffle import shuffle_by

    events = _read(
        sf_dir, "events", columns=["event_id", "user_id", "ts", "event_type"]
    )

    def of_type(t):
        return lambda b: b.filter(
            pc.equal(b["event_type"], pa.scalar(t))
        ).drop_columns(["event_type"])

    purchases = events.map_batches(of_type("purchase"),
                                   batch_format="pyarrow")
    clicks = events.map_batches(of_type("click"), batch_format="pyarrow")
    counts = interval_count_join(
        purchases, clicks,
        key_col="user_id", ts_col="ts", left_id_col="event_id",
        window="30min", out_col="n_prior_clicks",
    )

    def credit(df: "pd.DataFrame") -> "pd.DataFrame":
        n = df["n_prior_clicks"].to_numpy().astype(np.int64)
        credited = np.where(n > 0, (10_000 // np.maximum(n, 1)) * n, 0)
        return pd.DataFrame({
            "user_id": df["user_id"].to_numpy(),
            "credit": credited,
            "n_purchases": np.ones(len(df), dtype=np.int64),
            "n_attributed": (n > 0).astype(np.int64),
        }).groupby("user_id", as_index=False).sum()

    def combine(g: "pd.DataFrame") -> "pd.DataFrame":
        return g.groupby("user_id", as_index=False).agg(
            credit=("credit", "sum"),
            n_purchases=("n_purchases", "sum"),
            n_attributed=("n_attributed", "sum"),
        )

    return shuffle_by(
        counts.map_batches(credit, batch_format="pandas"), "user_id", combine,
    )


def _q_top_sessions(sf_dir: str):
    """Global top-10 sessions by value: gap sessionization composed with
    an integer-cents rollup and a per-partition top-k + tiny global
    sort. Sessions CTE + cents sum + ORDER/LIMIT SQL mirror."""
    from ontocast_ray.ops.windows import top_sessions_by_value

    events = _read(
        sf_dir, "events", columns=["event_id", "user_id", "ts", "value"]
    )
    return top_sessions_by_value(events, gap_minutes=30.0, k=10)


def _q_source_dup_rates(sf_dir: str):
    """Per-source duplication accounting (the report that decides which
    crawl sources get per-domain caps): docs vs distinct texts per
    source, dup_frac = 1 - distinct/docs. Text never shuffles — sha
    inside map_batches, then the exact grouped COUNT DISTINCT combiner;
    one IEEE divide."""
    import hashlib

    import numpy as np
    import pandas as pd
    import pyarrow as pa

    from ontocast_ray.ops.joins import grouped_count_distinct, hash_join
    from ontocast_ray.ops.shuffle import shuffle_by

    docs = _read(sf_dir, "documents", columns=["doc_id", "text", "source"])

    def sha_rows(df: "pd.DataFrame") -> "pd.DataFrame":
        # NULL texts are excluded from the distinct count (matching SQL
        # count(DISTINCT text), which skips NULLs) — fillna would both
        # count them and collide them with genuinely-empty texts
        m = df["text"].notna()
        return pd.DataFrame({
            "source": df.loc[m, "source"].to_numpy(),
            "sha": [hashlib.sha256(t.encode()).hexdigest()[:32]
                    for t in df.loc[m, "text"]],
        })

    shas = docs.map_batches(sha_rows, batch_format="pandas")
    distinct = grouped_count_distinct(
        shas, group_col="source", key_col="sha"
    )

    def count_partial(df: "pd.DataFrame") -> "pd.DataFrame":
        vc = df["source"].value_counts()
        return pd.DataFrame({"source": vc.index.to_numpy(),
                             "n_docs": vc.to_numpy().astype(np.int64)})

    totals = shuffle_by(
        docs.map_batches(count_partial, batch_format="pandas"), "source",
        lambda g: g.groupby("source", as_index=False)["n_docs"].sum(),
        n_parts=1,
    )
    joined = hash_join(
        totals, distinct,
        left_on="source", right_on="source",
        left_cols=["n_docs"], right_cols=["n_distinct"],
    )

    def rate(b: pa.Table) -> pa.Table:
        nd = b["n_docs"].to_numpy(zero_copy_only=False).astype(np.int64)
        nu = b["n_distinct"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({
            "source": b["source"],
            "n_docs": pa.array(nd),
            "n_distinct": pa.array(nu),
            "dup_frac": pa.array(1.0 - nu / nd),
        })

    return joined.map_batches(rate, batch_format="pyarrow")


def _q_embedding_gram(sf_dir: str):
    """Exact integer Gram matrix of the embedding corpus (PCA/whitening
    prep): per-block qᵀq matmuls (q = floor(v·2^8)) summed on a coarse
    cell shuffle — order-free int64, bit-identical to the positional-
    unnest SQL mirror; d² = 4096 output rows."""
    from ontocast_ray.ops.features import embedding_gram

    emb = _read(sf_dir, "embeddings", columns=["embedding"])
    return embedding_gram(emb, scale=1 << 8)


def _q_rademacher(sf_dir: str):
    """JL dimensionality reduction 64→8 with a splitmix-derived ±1
    matrix over quantized components — no stored matrix, exact int64
    projections, scalar-splitmix sign re-derivation in SQL."""
    from ontocast_ray.ops.features import rademacher_project

    emb = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    return rademacher_project(emb, k=8, seed=19, scale=1 << 8)


def _q_sliding_hll(sf_dir: str):
    """Sliding 3-hour distinct users via HLL register merges — the
    mergeability demo: multi-hour estimates from per-hour 4 KB blobs,
    never a rescan; equals HLL-of-union exactly. Deterministic →
    golden."""
    from ontocast_ray.ops.sketch import sliding_hll_distinct

    events = _read(sf_dir, "events", columns=["user_id", "ts"])
    return sliding_hll_distinct(
        events, window_hours=3, p=12
    )


def _q_followed_by(sf_dir: str):
    """'A followed by B within 10 min' transition counts over all event-
    type pairs — the CEP/sequence-mining primitive; searchsorted window
    walk per user, strictly-later rule, exact self-join SQL mirror."""
    from ontocast_ray.ops.windows import followed_by_counts

    events = _read(
        sf_dir, "events", columns=["event_id", "user_id", "ts", "event_type"]
    )
    return followed_by_counts(events, window_minutes=10)


def _q_dataset_card(sf_dir: str):
    """One-row dataset-card stats block (what every corpus release
    ships): doc/token/char totals, distinct texts, language and source
    cardinalities — integer sums via map partials + one single-row
    combine; distinct counts ride the existing combiner shapes."""
    import hashlib

    import numpy as np
    import pandas as pd

    from ontocast_ray.ops.shuffle import shuffle_by

    docs = _read(
        sf_dir, "documents", columns=["doc_id", "text", "lang", "source"]
    )

    def partial(df: "pd.DataFrame") -> "pd.DataFrame":
        texts = df["text"].fillna("")
        toks = texts.str.strip().str.split().str.len().fillna(0)
        return pd.DataFrame({
            "n_docs": [np.int64(len(df))],
            "total_tokens": [np.int64(toks.sum())],
            "total_chars": [np.int64(texts.str.len().sum())],
            "shas": [",".join(
                hashlib.sha256(t.encode()).hexdigest()[:16]
                for t in texts
            )],
            "langs": [",".join(sorted(set(df["lang"])))],
            "sources": [",".join(sorted(set(df["source"])))],
        })

    def combine(g: "pd.DataFrame") -> "pd.DataFrame":
        shas = set()
        langs, sources = set(), set()
        for s in g["shas"]:
            shas.update(x for x in s.split(",") if x)
        for s in g["langs"]:
            langs.update(x for x in s.split(",") if x)
        for s in g["sources"]:
            sources.update(x for x in s.split(",") if x)
        return pd.DataFrame({
            "n_docs": [np.int64(g["n_docs"].sum())],
            "total_tokens": [np.int64(g["total_tokens"].sum())],
            "total_chars": [np.int64(g["total_chars"].sum())],
            "n_distinct_texts": [np.int64(len(shas))],
            "n_langs": [np.int64(len(langs))],
            "n_sources": [np.int64(len(sources))],
        })

    return shuffle_by(
        docs.map_batches(partial, batch_format="pandas"), "n_docs", combine,
        n_parts=1,
    )


def _q_fuzzy_name_matches(sf_dir: str):
    """Blocked edit-distance similarity join (record linkage): customer ×
    supplier names within Levenshtein ≤ 6, blocked on nationkey — the
    fuzzy-matching table join (one coarse block-hash shuffle of
    3-column projections, batched-DP distance over all pairs at once,
    byte-level to match DuckDB ``levenshtein()`` exactly)."""
    from ontocast_ray.ops.fuzzy import edit_distance_join

    cust = _read(sf_dir, "customer", columns=["c_custkey", "c_name", "c_nationkey"])
    supp = _read(sf_dir, "supplier", columns=["s_suppkey", "s_name", "s_nationkey"])
    return edit_distance_join(
        cust,
        supp,
        left_key="c_custkey",
        right_key="s_suppkey",
        left_name="c_name",
        right_name="s_name",
        left_block="c_nationkey",
        right_block="s_nationkey",
        max_dist=6,
    )


def _q_events_running_total(sf_dir: str):
    """Per-user RUNNING total of event value in strict (ts, event_id)
    order — the classic cumulative window, in exact integer cents
    (floor(value·100): float cumsum order-of-accumulation never leaks
    into the compare). ``shuffle_by`` on user, vectorized
    groupby().cumsum kernel; SUM OVER ROWS UNBOUNDED PRECEDING oracle."""
    import numpy as np
    import pandas as pd

    from ontocast_ray.ops.shuffle import shuffle_by

    events = _read(
        sf_dir, "events", columns=["event_id", "user_id", "ts", "value"]
    )

    def kernel(df: "pd.DataFrame") -> "pd.DataFrame":
        df = df.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        cents = np.floor(df["value"].to_numpy() * 100.0).astype(np.int64)
        run = (
            df.assign(c=cents)
            .groupby("user_id", sort=False)["c"]
            .cumsum()
            .to_numpy()
        )
        return pd.DataFrame({
            "event_id": df["event_id"].to_numpy(),
            "user_id": df["user_id"].to_numpy(),
            "running_cents": run.astype(np.int64),
        })

    return shuffle_by(events, "user_id", kernel)


def _q_hits_scores(sf_dir: str):
    """Integer HITS (Kleinberg hubs & authorities) over the supplier↔
    customer bipartite graph — two unrolled half-iterations from
    hub0 = 1: auth1(c) = supplier-degree, hub1(s) = Σ auth1(c),
    auth2(c) = Σ hub1(s). All-integer (no normalization floats) →
    bit-exact across engines. Same distinct-pair edge derivation as
    pagerank_suppliers; each half-iteration = one partitioned hash join
    + a ``shuffle_by`` keyed sum (map-side combiner, never a fine-key
    groupby)."""
    import numpy as np
    import pandas as pd

    from ontocast_ray.ops.joins import broadcast_join_int, distinct_on
    from ontocast_ray.ops.shuffle import shuffle_by

    li = _read(sf_dir, "lineitem", columns=["l_orderkey", "l_suppkey"])
    orders = _read(sf_dir, "orders", columns=["o_orderkey", "o_custkey"])
    # orders is the broadcastable dim side (the edge-builder rule)
    joined = broadcast_join_int(
        li, orders, big_key="l_orderkey", small_key="o_orderkey",
        small_val="o_custkey", out_col="o_custkey",
    )
    # edges consumed by 3 downstream passes → materialize (CLAUDE.md rule)
    edges = distinct_on(
        joined, ["l_suppkey", "o_custkey"]
    ).materialize()

    def _keyed_sum(ds, key: str, val: str | None, out: str):
        """Σ val per key (val=None → count) via map-side combiner + one
        ``shuffle_by`` on key — the engine-wide grouped-sum shape."""

        def partial(df: "pd.DataFrame") -> "pd.DataFrame":
            if val is None:
                g = df.groupby(key, as_index=False).size()
                g = g.rename(columns={"size": out})
            else:
                g = df.groupby(key, as_index=False)[val].sum()
                g = g.rename(columns={val: out})
            g[out] = g[out].astype(np.int64)
            return g

        def combine(df: "pd.DataFrame") -> "pd.DataFrame":
            g = df.groupby(key, as_index=False)[out].sum()
            g[out] = g[out].astype(np.int64)
            return g

        return shuffle_by(
            ds.map_batches(partial, batch_format="pandas"), key, combine,
        )

    # auth1(c) = |{s : s→c}| (hub0 = 1)
    auth1 = _keyed_sum(edges, "o_custkey", None, "auth1")
    # score tables are NODE-sized (two int64 columns) → broadcast them
    # back onto the edge stream instead of a partitioned join per
    # half-iteration (measured 65 s → ~8 s at the sf0.01 gate; hash_join
    # remains the path when the node table outgrows a broadcast — the
    # same size gate every broadcast fast path in this repo documents)
    # hub1(s) = Σ_{c: s→c} auth1(c)
    hub1 = _keyed_sum(
        broadcast_join_int(
            edges, auth1, big_key="o_custkey", small_key="o_custkey",
            small_val="auth1", out_col="auth1",
        ),
        "l_suppkey", "auth1", "hub",
    ).materialize()  # consumed by auth2 AND the tagged output union
    # auth2(c) = Σ_{s: s→c} hub1(s)
    auth2 = _keyed_sum(
        broadcast_join_int(
            edges, hub1, big_key="l_suppkey", small_key="l_suppkey",
            small_val="hub", out_col="hub",
        ),
        "o_custkey", "hub", "score",
    )

    def tag_supp(df: "pd.DataFrame") -> "pd.DataFrame":
        return pd.DataFrame({
            "node_type": np.full(len(df), "supplier", dtype=object),
            "node_id": df["l_suppkey"].to_numpy().astype(np.int64),
            "score": df["hub"].to_numpy().astype(np.int64),
        })

    def tag_cust(df: "pd.DataFrame") -> "pd.DataFrame":
        return pd.DataFrame({
            "node_type": np.full(len(df), "customer", dtype=object),
            "node_id": df["o_custkey"].to_numpy().astype(np.int64),
            "score": df["score"].to_numpy().astype(np.int64),
        })

    return hub1.map_batches(tag_supp, batch_format="pandas").union(
        auth2.map_batches(tag_cust, batch_format="pandas")
    )


def _q_balanced_shards(sf_dir: str):
    """Output-shard balancing: docs assigned to 8 shards ROUND-ROBIN by
    global length rank (n_chars DESC, doc_id) — the size-balanced sink
    layout a corpus export writes. Rank without a global sort: composite
    int64 key (inverted length ‖ doc_id) → per-length-shard counts →
    driver exclusive scan over the tiny distinct-length list → broadcast
    base offsets (the ops/rank.py two-phase scan). Output = 8-row
    per-shard accounting (the balance report)."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa

    import ray

    from ontocast_ray.ops.shuffle import shuffle_by

    docs = _read(sf_dir, "documents", columns=["doc_id", "n_chars"])
    n_shards = 8
    inv_bits = np.int64(1) << np.int64(31)  # n_chars < 2^31 by contract

    def meta(batch: "pa.Table") -> "pa.Table":
        ids = batch["doc_id"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        nch = batch["n_chars"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        inv = inv_bits - np.int64(1) - nch  # descending length order
        return pa.table({
            "doc_id": pa.array(ids),
            "n_chars": pa.array(nch),
            "lshard": pa.array(inv),  # one rank-shard per distinct length
        })

    keyed = docs.map_batches(meta, batch_format="pyarrow").materialize()
    counts = keyed.groupby("lshard").count().take_all()
    base: dict[int, int] = {}
    acc = 0
    for r in sorted(counts, key=lambda r: r["lshard"]):
        base[r["lshard"]] = acc
        acc += int(r["count()"])
    base_ref = ray.put(base)

    def kernel(df: "pd.DataFrame") -> "pd.DataFrame":
        df = df.sort_values(["lshard", "doc_id"], kind="mergesort")
        b = df["lshard"].map(ray.get(base_ref)).to_numpy(np.int64)
        intra = df.groupby("lshard", sort=False).cumcount().to_numpy(np.int64)
        shard = (b + intra) % np.int64(n_shards)
        g = (
            df.assign(shard=shard)
            .groupby("shard", as_index=False)
            .agg(n_docs=("doc_id", "size"), total_chars=("n_chars", "sum"))
        )
        g["n_docs"] = g["n_docs"].astype(np.int64)
        g["total_chars"] = g["total_chars"].astype(np.int64)
        return g

    def final(df: "pd.DataFrame") -> "pd.DataFrame":
        g = df.groupby("shard", as_index=False).agg(
            n_docs=("n_docs", "sum"), total_chars=("total_chars", "sum")
        )
        g["n_docs"] = g["n_docs"].astype(np.int64)
        g["total_chars"] = g["total_chars"].astype(np.int64)
        return g

    per_shard = shuffle_by(keyed, "lshard", kernel)
    return shuffle_by(per_shard, "shard", final, n_parts=1)


def _q_nucleus_docs(sf_dir: str):
    """Per-source nucleus (top-p) selection: keep the longest docs of each
    source while the cumulative char mass BEFORE a doc stays under 80% of
    the source total — the top-p data-selection rule (quality-ordered
    cumulative cutoff). Exact integers: keep iff 10·before < 8·total.
    One ``shuffle_by`` on source; the kernel vectorizes the per-source
    cumsum via groupby().transform across ALL sources in the partition."""
    import numpy as np
    import pandas as pd

    from ontocast_ray.ops.shuffle import shuffle_by

    docs = _read(sf_dir, "documents", columns=["doc_id", "source", "n_chars"])

    def kernel(df: "pd.DataFrame") -> "pd.DataFrame":
        df = df.sort_values(["source", "n_chars", "doc_id"],
                            ascending=[True, False, True], kind="mergesort")
        nch = df["n_chars"].to_numpy().astype(np.int64)
        grp = df.groupby("source", sort=False)["n_chars"]
        before = (grp.cumsum().to_numpy().astype(np.int64) - nch)
        total = grp.transform("sum").to_numpy().astype(np.int64)
        keep = 10 * before < 8 * total
        out = df[keep]
        return pd.DataFrame({
            "doc_id": out["doc_id"].to_numpy().astype(np.int64),
            "source": out["source"].to_numpy(dtype=object),
            "n_chars": out["n_chars"].to_numpy().astype(np.int64),
        })

    return shuffle_by(docs, "source", kernel)


def _q_deepwalk(sf_dir: str):
    """DeepWalk-style corpus prep: one deterministic 3-hop walk from every
    supplier node of the supplier↔customer bipartite graph. Neighbor
    choice at (node, step) = splitmix64(node·4+step, seed=41) %
    degree(node) over the dst-ASC-ranked adjacency — a pure function of
    the graph, so the SQL oracle re-derives every hop exactly (ranked
    adjacency + the splitmix mirror). Each hop = two partitioned hash
    joins on composite keys; adjacency ranked once and reused."""
    from ontocast_ray.ops.walks import deterministic_walks

    edges = _supplier_customer_edges(sf_dir)
    return deterministic_walks(
        edges, n_steps=3, seed=41, start_below=1_000_000
    )


def _q_sentence_stats(sf_dir: str):
    """Sentence segmentation profile (the curation primitive under
    sentence-level dedup / per-sentence filters): split on [.!?]+ runs,
    count segments containing an alphanumeric and their total codepoint
    length — pure vectorized map (split + explode + two index-level
    sums), zero shuffle; list-lambda SQL mirror."""
    import numpy as np
    import pandas as pd

    docs = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def kern(df: "pd.DataFrame") -> "pd.DataFrame":
        texts = df["text"].fillna("").reset_index(drop=True)
        segs = texts.str.split(r"[.!?]+", regex=True).explode()
        real = segs.str.contains(r"[a-zA-Z0-9]", regex=True, na=False)
        lens = segs.str.len().fillna(0).astype(np.int64) * real
        n_sent = real.groupby(level=0).sum().reindex(
            texts.index, fill_value=0
        )
        total = lens.groupby(level=0).sum().reindex(texts.index, fill_value=0)
        return pd.DataFrame({
            "doc_id": df["doc_id"].to_numpy(),
            "n_sentences": n_sent.to_numpy().astype(np.int64),
            "sentence_chars": total.to_numpy().astype(np.int64),
        })

    return docs.map_batches(kern, batch_format="pandas")


def _q_media_phash(sf_dir: str):
    """Perceptual image dedup (LAION/DataComp phash-dedup shape): 64-bit
    average-hash over the REAL raw uint8 pixel buffers (integral-image
    block means, actually executed), then banded Hamming-≤3 pair search
    with exact pigeonhole recall. Input = the synth media table plus a
    one-byte-perturbed copy of every image (the near-dup the perceptual
    hash must catch while the random non-dups stay ~32 bits apart).
    Seed-deterministic → golden oracle."""
    import pyarrow as pa

    import ray.data

    from ontocast_ray.ops.multimodal import (
        image_average_hash,
        phash_dup_pairs,
        synth_media_table,
    )

    base = synth_media_table(n=64, seed=9)
    rows = base.to_pylist()  # 64 synthetic rows — driver-side tiny
    dups = []
    for r in rows:
        if r["kind"] != "image":
            continue
        p = bytearray(r["payload"])
        p[0] = (p[0] + 1) % 256
        d = dict(r)
        d["media_ref"] = r["media_ref"] + "/dup"
        d["payload"] = bytes(p)
        dups.append(d)
    media = ray.data.from_arrow(
        pa.Table.from_pylist(rows + dups, schema=base.schema)
    )
    return phash_dup_pairs(image_average_hash(media), max_hamming=3)


def _q_char_pair_counts(sf_dir: str):
    """BPE-trainer inner statistic: corpus-wide adjacent CHARACTER-pair
    counts within [a-z]+ tokens (the frequency table the first BPE merge
    maximizes). Fully vectorized: all tokens of a batch joined with a
    NUL separator, one uint8 view → code = a·256+b → bincount; pairs
    never cross tokens (NUL masks). ≤ 676 distinct pairs ever shuffle."""
    import numpy as np
    import pandas as pd

    from ontocast_ray.ops.shuffle import shuffle_by

    docs = _read(sf_dir, "documents", columns=["text"])

    def partial(df: "pd.DataFrame") -> "pd.DataFrame":
        toks = (
            df["text"].fillna("").str.lower().str.findall(r"[a-z]+").explode()
        )
        toks = toks[toks.notna()]
        big = "\x00".join(toks.tolist())
        if len(big) < 2:
            return pd.DataFrame({
                "pair": pd.Series([], dtype=object),
                "n": pd.Series([], dtype="int64"),
            })
        arr = np.frombuffer(big.encode("ascii"), dtype=np.uint8)
        a, b = arr[:-1], arr[1:]
        valid = (a != 0) & (b != 0)
        codes = a[valid].astype(np.int32) * 256 + b[valid]
        counts = np.bincount(codes, minlength=65536)
        nz = np.nonzero(counts)[0]
        return pd.DataFrame({
            "pair": [chr(c >> 8) + chr(c & 255) for c in nz],
            "n": counts[nz].astype(np.int64),
        })

    def combine(df: "pd.DataFrame") -> "pd.DataFrame":
        g = df.groupby("pair", as_index=False)["n"].sum()
        g["n"] = g["n"].astype(np.int64)
        return g

    return shuffle_by(
        docs.map_batches(partial, batch_format="pandas"), "pair", combine,
        n_parts=1,
    )


def _q_span_corruption(sf_dir: str):
    """T5/MLM training-pair construction: each whitespace token is masked
    iff splitmix64(doc_id·2^20 + position, seed=15) % 100 < 15 — a pure
    function of (doc_id, position), so the mask schedule is
    parallelism-invariant and SQL-re-derivable. → (doc_id, input_text
    with '<X>' holes, target_text = masked tokens in order, n_masked).
    Pure map, zero shuffle (doc-atomic kernel)."""
    import numpy as np
    import pandas as pd

    from ontocast_ray.ops.interleave import splitmix64

    docs = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def kern(df: "pd.DataFrame") -> "pd.DataFrame":
        df = df.reset_index(drop=True)
        toks = df["text"].fillna("").str.split().explode()
        toks = toks[toks.notna()]
        if toks.empty:
            return pd.DataFrame({
                "doc_id": pd.Series([], dtype="int64"),
                "input_text": pd.Series([], dtype=object),
                "target_text": pd.Series([], dtype=object),
                "n_masked": pd.Series([], dtype="int64"),
            })
        idx = toks.index.to_numpy()
        doc_ids = df["doc_id"].to_numpy()[idx].astype(np.uint64)
        pos = (
            pd.Series(np.arange(len(toks)))
            .groupby(idx)
            .cumcount()
            .to_numpy()
            .astype(np.uint64)
        )
        m = (
            splitmix64(doc_ids * np.uint64(1 << 20) + pos, seed=15)
            % np.uint64(100)
        ) < np.uint64(15)
        words = toks.to_numpy(dtype=object)
        inp = pd.Series(np.where(m, "<X>", words), index=idx)
        tgt = pd.Series(words[m], index=idx[m])
        gi = inp.groupby(level=0).agg(" ".join)
        gt = tgt.groupby(level=0).agg(" ".join).reindex(
            gi.index, fill_value=""
        )
        nm = pd.Series(m.astype(np.int64), index=idx).groupby(level=0).sum()
        return pd.DataFrame({
            "doc_id": df["doc_id"].to_numpy()[gi.index.to_numpy()],
            "input_text": gi.to_numpy(dtype=object),
            "target_text": gt.to_numpy(dtype=object),
            "n_masked": nm.to_numpy().astype(np.int64),
        })

    return docs.map_batches(kern, batch_format="pandas")


def _q_events_cume_dist(sf_dir: str):
    """Per-user CUME_DIST of event value (the empirical-CDF feature):
    cd = |{rows with value ≤ v}| / n within the user — one ``shuffle_by``
    on user, tie handling via a vectorized per-(user, value)
    max-position transform; the final division is the same two integers
    on both engines → bit-exact doubles."""
    import numpy as np
    import pandas as pd

    from ontocast_ray.ops.shuffle import shuffle_by

    events = _read(sf_dir, "events", columns=["event_id", "user_id", "value"])

    def kernel(df: "pd.DataFrame") -> "pd.DataFrame":
        df = df.sort_values(["user_id", "value"], kind="mergesort")
        pos = df.groupby("user_id", sort=False).cumcount().to_numpy() + 1
        peers = (
            df.assign(pos=pos)
            .groupby(["user_id", "value"], sort=False)["pos"]
            .transform("max")
            .to_numpy()
            .astype(np.float64)
        )
        n = (
            df.groupby("user_id", sort=False)["value"]
            .transform("size")
            .to_numpy()
            .astype(np.float64)
        )
        return pd.DataFrame({
            "event_id": df["event_id"].to_numpy(),
            "user_id": df["user_id"].to_numpy(),
            "cd": peers / n,
        })

    return shuffle_by(events, "user_id", kernel)


def _q_events_winsorized(sf_dir: str):
    """Per-user winsorization report (robust feature preprocessing): clip
    values to the user's [p05, p95] discrete quantiles and sum the
    clipped series in exact integer cents; counts of low/high clips.
    ONE ``shuffle_by`` on user computes quantiles AND clips in the same
    kernel (no second join); quantile index = ceil(p·n)−1, the SQL
    quantile_disc rule, so the clip boundaries match bit-for-bit."""
    import math as _math

    import numpy as np
    import pandas as pd

    from ontocast_ray.ops.shuffle import shuffle_by

    events = _read(sf_dir, "events", columns=["user_id", "value"])

    def kernel(df: "pd.DataFrame") -> "pd.DataFrame":
        out = {
            "user_id": [], "n_events": [], "n_clip_low": [],
            "n_clip_high": [], "winsorized_cents": [],
        }
        for uid, rows in df.groupby("user_id", sort=False):
            v = rows["value"].to_numpy()
            sv = np.sort(v)
            n = len(sv)
            lo = sv[max(0, _math.ceil(0.05 * n) - 1)]
            hi = sv[max(0, _math.ceil(0.95 * n) - 1)]
            clipped = np.minimum(np.maximum(v, lo), hi)
            out["user_id"].append(uid)
            out["n_events"].append(np.int64(n))
            out["n_clip_low"].append(np.int64((v < lo).sum()))
            out["n_clip_high"].append(np.int64((v > hi).sum()))
            out["winsorized_cents"].append(
                np.int64(np.floor(clipped * 100.0).astype(np.int64).sum())
            )
        return pd.DataFrame(out)

    return shuffle_by(events, "user_id", kernel)


def _q_link_prediction(sf_dir: str):
    """Neighbor-set Jaccard link prediction over the supplier projection:
    for supplier pairs sharing ≥2 customers, |N(a)∩N(b)| / |N(a)∪N(b)|
    (the classic similarity-based edge-candidate score). Intersections
    via per-customer pair expansion with packed int64 keys + map-side
    combiners; degrees broadcast (supplier dim = the small side, the
    documented star-schema contract); the ratio is the same two ints
    divided on both engines → bit-exact doubles."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa

    import ray

    from ontocast_ray.ops.joins import broadcast_join_int, distinct_on
    from ontocast_ray.ops.shuffle import shuffle_by

    li = _read(sf_dir, "lineitem", columns=["l_orderkey", "l_suppkey"])
    orders = _read(sf_dir, "orders", columns=["o_orderkey", "o_custkey"])
    # orders is the broadcastable dim side (the edge-builder rule)
    joined = broadcast_join_int(
        li, orders, big_key="l_orderkey", small_key="o_orderkey",
        small_val="o_custkey", out_col="o_custkey",
    )
    pairs = distinct_on(
        joined, ["l_suppkey", "o_custkey"]
    ).materialize()  # consumed by degrees + pair expansion

    # degrees: map-side combiner + driver fold (suppliers = small dim)
    def deg_partial(df: "pd.DataFrame") -> "pd.DataFrame":
        g = df.groupby("l_suppkey", as_index=False).size()
        return g.rename(columns={"size": "d"})

    deg_rows = pairs.map_batches(deg_partial, batch_format="pandas")
    deg: dict[int, int] = {}
    for r in deg_rows.take_all():
        deg[r["l_suppkey"]] = deg.get(r["l_suppkey"], 0) + int(r["d"])
    deg_ref = ray.put(deg)

    def by_customer(batch: "pa.Table") -> "pa.Table":
        return pa.table({
            "s": batch["l_suppkey"].combine_chunks().cast(pa.int64()),
            "c": batch["o_custkey"].combine_chunks().cast(pa.int64()),
        })

    def expand(df: "pd.DataFrame") -> "pd.DataFrame":
        m = df.merge(df, on="c", suffixes=("_a", "_b"))
        m = m[m["s_a"] < m["s_b"]]
        key = (m["s_a"].to_numpy() << np.int64(31)) | m["s_b"].to_numpy()
        g = pd.DataFrame({"key": key}).groupby("key", as_index=False).size()
        g = g.rename(columns={"size": "n"})
        g["n"] = g["n"].astype(np.int64)
        return g

    def score(df: "pd.DataFrame") -> "pd.DataFrame":
        g = df.groupby("key", as_index=False)["n"].sum()
        g = g[g["n"] >= 2]
        a = (g["key"].to_numpy() >> np.int64(31)).astype(np.int64)
        b = (g["key"].to_numpy() & np.int64((1 << 31) - 1)).astype(np.int64)
        n = g["n"].to_numpy().astype(np.int64)
        dd = ray.get(deg_ref)
        da = np.array([dd[x] for x in a], dtype=np.int64)
        db = np.array([dd[x] for x in b], dtype=np.int64)
        return pd.DataFrame({
            "s_a": a, "s_b": b, "n_common": n,
            "jaccard": n.astype(np.float64) / (da + db - n),
        })

    counts = shuffle_by(
        pairs.map_batches(by_customer, batch_format="pyarrow"), "c", expand,
    )
    return shuffle_by(counts, "key", score)


def _q_events_per_minute(sf_dir: str):
    """Gap-filled dense time series: global events-per-minute between the
    corpus min and max minute, zeros included (the rate series every
    monitoring/feature pipeline densifies). Map-side per-minute partial
    counts (bounded by the time range, never the event count) → one
    single-group combine that folds partials and zero-fills with
    np.arange — the driver never sees a row."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa

    from ontocast_ray.ops.shuffle import shuffle_by

    events = _read(sf_dir, "events", columns=["ts"])

    def partial(batch: "pa.Table") -> "pa.Table":
        ts = batch["ts"].cast(pa.timestamp("us")).to_numpy(
            zero_copy_only=False
        )
        minute = ts.astype("datetime64[us]").astype(np.int64) // np.int64(
            60_000_000
        )
        uniq, cnt = np.unique(minute, return_counts=True)
        return pa.table({
            "minute": pa.array(uniq),
            "n": pa.array(cnt.astype(np.int64)),
        })

    def combine(df: "pd.DataFrame") -> "pd.DataFrame":
        g = df.groupby("minute")["n"].sum()
        lo, hi = int(g.index.min()), int(g.index.max())
        dense = np.arange(lo, hi + 1, dtype=np.int64)
        filled = g.reindex(dense, fill_value=0)
        return pd.DataFrame({
            "minute": dense,
            "n_events": filled.to_numpy().astype(np.int64),
        })

    return shuffle_by(
        events.map_batches(partial, batch_format="pyarrow"), "minute",
        combine, n_parts=1,
    )


def _q_lm_band_filter(sf_dir: str):
    """CCNet's middle-band perplexity selection: keep docs whose bigram-LM
    average likelihood sits between the corpus P10 and P90 (both tails
    are suspect — too predictable = boilerplate, too surprising = junk).
    Scores via ops/lm.py (one w1-hash shuffle); band bounds via the
    shuffle-free distributed radix selection (ops/windows.py
    global_quantiles_exact — driver sees two scalars); the filter is a
    pure map. Scores materialize once (consumed by bounds + filter)."""
    import numpy as np
    import pyarrow as pa

    from ontocast_ray.ops.lm import bigram_lm_scores
    from ontocast_ray.ops.windows import global_quantiles_exact

    docs = _read(sf_dir, "documents", columns=["doc_id", "text"])
    scores = bigram_lm_scores(docs).materialize()

    def as_value(batch: "pa.Table") -> "pa.Table":
        return pa.table({
            "value": batch["lm_avg"].cast(pa.float64()),
        })

    qrows = global_quantiles_exact(
        scores.map_batches(as_value, batch_format="pyarrow"),
        value_col="value", quantiles=(0.10, 0.90),
    ).take_all()
    bounds = {round(r["q"], 2): r["value"] for r in qrows}
    lo, hi = np.int64(bounds[0.10]), np.int64(bounds[0.90])

    def band(batch: "pa.Table") -> "pa.Table":
        v = batch["lm_avg"].to_numpy(zero_copy_only=False)
        keep = (v >= lo) & (v <= hi)
        return batch.filter(pa.array(keep)).select(
            ["doc_id", "n_bigrams", "lm_avg"]
        )

    return scores.map_batches(band, batch_format="pyarrow")


def _q_kg_validation_report(sf_dir: str):
    """Per-document connectivity/predicate-hygiene report over the
    FLAGSHIP pipeline's fact graphs — the reference's
    connectivity_report + validate_predicates surface (ref
    validate.py:157-281) exposed as a table: components, entities,
    largest component, isolated entities, predicate label coverage.
    One ``shuffle_by`` on doc_id; the per-doc report is the
    reference's own pure-Python graph walk (doc-scoped graphs are
    chunk-sized — the same per-group contract as canonicalization).
    Golden-pinned (content-hash IRIs)."""
    import pandas as pd

    from ontocast_ray.ops.shuffle import shuffle_by

    triples = _q_kg_triples(sf_dir)

    def facts(df: "pd.DataFrame") -> "pd.DataFrame":
        return df[df["graph_scope"] == "facts"]

    def report(group: "pd.DataFrame") -> "pd.DataFrame":
        from ontocast_ray.model import rows_to_graph
        from ontocast_ray.stages.validate import connectivity_report

        rows = []
        for doc_id, df in group.groupby("doc_id", sort=False):
            g = rows_to_graph(
                df["subject"].tolist(),
                df["predicate"].tolist(),
                df["object"].tolist(),
                df["object_is_literal"].tolist(),
                df["object_datatype"].tolist(),
                df["object_lang"].tolist(),
            )
            r = connectivity_report(g)
            rows.append({
                "doc_id": doc_id,
                "num_components": int(r["num_components"]),
                "total_entities": int(r["total_entities"]),
                "largest_component": int(r["largest_component_size"]),
                "n_isolated": len(r["isolated_entities"]),
                "n_predicates": int(r["predicate_stats"]["total"]),
                "n_pred_labeled": int(
                    r["predicate_stats"]["with_labels"]
                ),
                "fully_connected": bool(r["is_fully_connected"]),
            })
        return pd.DataFrame(rows)

    return shuffle_by(
        triples.map_batches(facts, batch_format="pandas"), "doc_id", report,
    )


def _q_curation_funnel(sf_dir: str):
    """Per-source curation REJECTION LEDGER (the Dolma-style attribute
    accounting every production pipeline ships): each doc is attributed
    to its FIRST failing gate — declared-lang → alpha-ratio → full
    Gopher rule set → exact dedup — and the report counts every stage
    per source. Gates are pure maps; one ``shuffle_by`` on sha gives the
    dedup verdict (every non-survivor has sha "" and lands in one
    partition); per-source stage counts are a one-partition gather."""
    import hashlib

    import numpy as np
    import pandas as pd
    import pyarrow as pa

    from ontocast_ray.ops.shuffle import shuffle_by
    from ontocast_ray.ops.text import gopher_quality_filter

    docs = _read(
        sf_dir, "documents", columns=["doc_id", "source", "lang", "text"]
    )

    def stage_map(df: "pd.DataFrame") -> "pd.DataFrame":
        df = df.reset_index(drop=True)
        text = df["text"].fillna("")
        lang_ok = df["lang"].fillna("") == "en"
        n_alpha = text.str.count(r"[A-Za-z]").to_numpy(np.int64)
        n_chars = text.str.len().to_numpy(np.int64)
        alpha_ok = (n_alpha / np.maximum(n_chars, 1)) >= 0.6
        stage = np.full(len(df), 9, dtype=np.int64)  # 9 = survivor
        stage[~lang_ok] = 0
        stage[lang_ok & ~alpha_ok] = 1
        surv = stage == 9
        if surv.any():
            sub = pa.table({
                "doc_id": pa.array(df.loc[surv, "doc_id"].to_numpy()),
                "text": pa.array(text[surv].tolist(), type=pa.string()),
            })
            gop = gopher_quality_filter(sub)
            kept = gop["kept"].to_numpy(zero_copy_only=False)
            idx = np.nonzero(surv)[0][~kept]
            stage[idx] = 2
        surv = stage == 9
        shas = np.array(
            [
                hashlib.sha256(t.encode()).hexdigest()[:32] if s else ""
                for t, s in zip(text, surv)
            ],
            dtype=object,
        )
        return pd.DataFrame({
            "doc_id": df["doc_id"].to_numpy(np.int64),
            "source": df["source"].to_numpy(),
            "stage": stage,
            "sha": shas,
        })

    def dedup_verdict(g: "pd.DataFrame") -> "pd.DataFrame":
        g = g.copy()
        surv = g["stage"] == 9
        if surv.any():
            rep = g.loc[surv].groupby("sha")["doc_id"].transform("min")
            is_rep = g.loc[surv, "doc_id"] == rep
            g.loc[surv, "stage"] = np.where(is_rep, 4, 3)
        out = g.groupby(["source", "stage"], as_index=False).size()
        out = out.rename(columns={"size": "n"})
        out["n"] = out["n"].astype(np.int64)
        return out[["source", "stage", "n"]]

    def finalize(df: "pd.DataFrame") -> "pd.DataFrame":
        g = df.groupby(["source", "stage"])["n"].sum().unstack(
            fill_value=0
        )
        for s in (0, 1, 2, 3, 4):
            if s not in g.columns:
                g[s] = 0
        return pd.DataFrame({
            "source": g.index.to_numpy(),
            "n_docs": g[[0, 1, 2, 3, 4]].sum(axis=1)
            .to_numpy(np.int64),
            "n_fail_lang": g[0].to_numpy(np.int64),
            "n_fail_alpha": g[1].to_numpy(np.int64),
            "n_fail_gopher": g[2].to_numpy(np.int64),
            "n_dup_dropped": g[3].to_numpy(np.int64),
            "n_kept": g[4].to_numpy(np.int64),
        })

    verdicts = shuffle_by(
        docs.map_batches(stage_map, batch_format="pandas"), "sha",
        dedup_verdict,
    )
    return shuffle_by(verdicts, "source", finalize, n_parts=1)


def _q_length_drift(sf_dir: str):
    """Distribution-drift report (the PSI-style monitoring table every
    production feed watches): reference = even doc_ids, current = odd;
    reference quartile boundaries (exact radix selection, 3 scalars to
    the driver) bucket BOTH halves; per-bucket counts and integer-ppm
    fractions. Map-side bucket counts → one single-group combine."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa

    from ontocast_ray.ops.shuffle import shuffle_by
    from ontocast_ray.ops.windows import global_quantiles_exact

    docs = _read(sf_dir, "documents", columns=["doc_id", "n_chars"])

    def ref_vals(batch: "pa.Table") -> "pa.Table":
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        v = batch["n_chars"].to_numpy(zero_copy_only=False)
        return pa.table({"value": pa.array(
            v[ids % 2 == 0].astype(np.float64)
        )})

    qrows = global_quantiles_exact(
        docs.map_batches(ref_vals, batch_format="pyarrow"),
        value_col="value", quantiles=(0.25, 0.50, 0.75),
    ).take_all()
    bmap = {round(r["q"], 2): r["value"] for r in qrows}
    cuts = np.array(
        [bmap[0.25], bmap[0.50], bmap[0.75]], dtype=np.float64
    )

    def partial(batch: "pa.Table") -> "pa.Table":
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        v = batch["n_chars"].to_numpy(zero_copy_only=False).astype(
            np.float64
        )
        bucket = np.searchsorted(cuts, v, side="left").astype(np.int64)
        is_ref = (ids % 2 == 0)
        rows = []
        for flag in (True, False):
            u, c = np.unique(bucket[is_ref == flag], return_counts=True)
            rows.append(pd.DataFrame({
                "bucket": u, "is_ref": np.int8(flag),
                "n": c.astype(np.int64),
            }))
        out = pd.concat(rows, ignore_index=True)
        return pa.Table.from_pandas(out, preserve_index=False)

    def combine(df: "pd.DataFrame") -> "pd.DataFrame":
        full = pd.DataFrame({"bucket": np.arange(4, dtype=np.int64)})
        r = (df[df["is_ref"] == 1].groupby("bucket")["n"].sum()
             .reindex(full["bucket"], fill_value=0).to_numpy(np.int64))
        c = (df[df["is_ref"] == 0].groupby("bucket")["n"].sum()
             .reindex(full["bucket"], fill_value=0).to_numpy(np.int64))
        tr, tc = max(int(r.sum()), 1), max(int(c.sum()), 1)
        return pd.DataFrame({
            "bucket": full["bucket"],
            "n_ref": r,
            "n_cur": c,
            "frac_ref_ppm": (r * np.int64(1_000_000)) // np.int64(tr),
            "frac_cur_ppm": (c * np.int64(1_000_000)) // np.int64(tc),
        })

    return shuffle_by(
        docs.map_batches(partial, batch_format="pyarrow"), "bucket", combine,
        n_parts=1,
    )


def _q_fim_psm(sf_dir: str):
    """Fill-in-the-middle PSM reordering (code-LM pretraining transform):
    deterministic splitmix character split points per doc, zero shuffles
    (ops/lm.py fim_transform); substring+splitmix SQL mirror."""
    from ontocast_ray.ops.lm import fim_transform

    docs = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return fim_transform(docs, seed=7)


def _q_wordset_dedup(sf_dir: str):
    """Bag-of-words exact dedup (reordered/re-punctuated boilerplate
    catcher): sorted-distinct-word-set fingerprint, exact_dedup shuffle
    shape — the shuffle carries (key, min_id, count), never text
    (ops/dedup.py wordset_dedup)."""
    from ontocast_ray.ops.dedup import wordset_dedup

    docs = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return wordset_dedup(docs)


def _q_compression_ratio(sf_dir: str):
    """zlib-compressibility quality signal per doc (template spam is
    highly compressible, binary junk is not) — pure map, fixed-point
    ratio; golden-pinned (no SQL zlib)."""
    from ontocast_ray.ops.text import compression_stats

    docs = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return docs.map_batches(compression_stats, batch_format="pyarrow")


def _q_kg_predicate_profile(sf_dir: str):
    """KG schema-usage profile over the FLAGSHIP pipeline output: per
    predicate — triple count, distinct subjects, distinct objects,
    literal-valued share. The ontology-side 'which relations carry the
    graph' report (reference exposes graph stats via its aggregation
    status; this is the per-predicate breakdown). One ``shuffle_by`` on
    predicate of batch-combined partials; golden-pinned like the other
    kg_* queries (content-hash IRIs)."""
    import pandas as pd

    from ontocast_ray.ops.shuffle import shuffle_by

    triples = _q_kg_triples(sf_dir)

    def partial(df: "pd.DataFrame") -> "pd.DataFrame":
        df = df[df["graph_scope"] == "facts"]
        if df.empty:
            return pd.DataFrame({
                "predicate": pd.Series([], dtype=object),
                "subject": pd.Series([], dtype=object),
                "object": pd.Series([], dtype=object),
                "is_lit": pd.Series([], dtype="int64"),
                "n": pd.Series([], dtype="int64"),
            })
        g = (
            df.assign(is_lit=df["object_is_literal"].astype("int64"))
            .groupby(["predicate", "subject", "object", "is_lit"],
                     as_index=False)
            .size()
            .rename(columns={"size": "n"})
        )
        g["n"] = g["n"].astype("int64")
        return g

    def combine(g: "pd.DataFrame") -> "pd.DataFrame":
        d = g.groupby(["predicate", "subject", "object", "is_lit"],
                      as_index=False)["n"].sum()
        out = d.groupby("predicate", as_index=False).agg(
            n_triples=("n", "sum"),
            n_subjects=("subject", "nunique"),
            n_objects=("object", "nunique"),
        )
        lit = (
            d[d["is_lit"] == 1]
            .groupby("predicate", as_index=False)["n"].sum()
            .rename(columns={"n": "n_literal"})
        )
        out = out.merge(lit, on="predicate", how="left")
        out["n_literal"] = out["n_literal"].fillna(0).astype("int64")
        for c in ("n_triples", "n_subjects", "n_objects"):
            out[c] = out[c].astype("int64")
        return out

    return shuffle_by(
        triples.map_batches(partial, batch_format="pandas"), "predicate",
        combine,
    )


def _q_link_host_degrees(sf_dir: str):
    """Link-graph construction (the host-level PageRank input every web
    crawl builds): synthesize anchors per doc — two absolute links
    (one mixed-case scheme/host/attr), a relative link that must be
    skipped, a duplicate anchor on even ids — extract hrefs, lowercase
    hosts, aggregate per-host link + distinct-linking-doc counts
    (ops/urls.py link_host_degrees)."""
    from ontocast_ray.ops.urls import link_host_degrees

    docs = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def synth(df):
        d = df["doc_id"]
        a1 = (
            '<a class="x" href="https://site' + (d % 7).astype(str)
            + ".example.com/p" + (d % 3).astype(str) + '">l1</a>'
        )
        a2 = (
            '<A HREF="HTTPS://Site' + ((d * 3 + 1) % 7).astype(str)
            + '.Example.COM/q?a=1">l2</A>'
        )
        dup = a1.str.replace(">l1<", ">dup<", regex=False).where(
            d % 2 == 0, ""
        )
        df["html"] = (
            "<html><body><p>" + df["text"].fillna("") + "</p>"
            + a1 + a2 + '<a href="/rel/path">rel</a>' + dup
            + "</body></html>"
        )
        return df[["doc_id", "html"]]

    return link_host_degrees(
        docs.map_batches(synth, batch_format="pandas")
    )


def _q_anchor_text_top(sf_dir: str):
    """Per-target-host anchor-text mining over the same synthetic anchors
    as link_host_degrees: most frequent lowercased anchor per host +
    total inbound anchors (ops/urls.py anchor_text_top)."""
    from ontocast_ray.ops.urls import anchor_text_top

    docs = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def synth(df):
        d = df["doc_id"]
        a1 = (
            '<a class="x" href="https://site' + (d % 7).astype(str)
            + ".example.com/p" + (d % 3).astype(str) + '">Link One</a>'
        )
        a2 = (
            '<A HREF="HTTPS://Site' + ((d * 3 + 1) % 7).astype(str)
            + '.Example.COM/q?a=1"> MORE here </A>'
        )
        dup = a1.str.replace(">Link One<", ">link one <", regex=False).where(
            d % 2 == 0, ""
        )
        df["html"] = (
            "<html><body><p>" + df["text"].fillna("") + "</p>"
            + a1 + a2 + '<a href="/rel/path">rel</a>' + dup
            + "</body></html>"
        )
        return df[["doc_id", "html"]]

    return anchor_text_top(
        docs.map_batches(synth, batch_format="pandas")
    )


def _q_containment_pairs(sf_dir: str):
    """Exact shingle-containment near-dup pairs (quote-inclusion/subset
    duplicates Jaccard misses): inverted-index join on hash(shingle)%P —
    no LSH, no candidate list — with the df≤64 boilerplate cap applied
    where the posting list is globally exact (ops/dedup.py
    containment_pairs)."""
    from ontocast_ray.ops.dedup import containment_pairs

    docs = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return containment_pairs(docs, shingle_k=3, threshold_ppm=600_000, max_df=64)


def _q_bigram_lm(sf_dir: str):
    """Corpus bigram-LM likelihood scoring (CCNet/RedPajama perplexity
    filter) in exact fixed-point: each bigram occurrence contributes
    (c(w1,w2)·10^6) // c(w1) under the corpus's own counts. No broadcast
    model: ONE hash(w1)%P shuffle co-locates counts + scoring, one
    doc-hash shuffle sums (ops/lm.py)."""
    from ontocast_ray.ops.lm import bigram_lm_scores

    docs = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return bigram_lm_scores(docs)


def _q_kg_provenance(sf_dir: str):
    """Per-triple provenance ledger over the FLAGSHIP pipeline output —
    the lineage table the north-rule's per-partition manifests feed: for
    every canonical FACT triple, how many documents and chunks assert it,
    and the first (min doc_id, then chunk_idx) asserting occurrence. The
    audit trail entity-resolution QA reads when a merged triple looks
    wrong. One ``shuffle_by`` on (s, p, o) of per-batch distinct
    (triple, doc) partials; golden-pinned like the other kg_* queries
    (content-hash IRIs)."""
    import pandas as pd

    from ontocast_ray.ops.shuffle import shuffle_by

    triples = _q_kg_triples(sf_dir)

    def partial(df: "pd.DataFrame") -> "pd.DataFrame":
        df = df[df["graph_scope"] == "facts"]
        if df.empty:
            return pd.DataFrame({
                "subject": pd.Series([], dtype=object),
                "predicate": pd.Series([], dtype=object),
                "object": pd.Series([], dtype=object),
                "doc_id": pd.Series([], dtype="int64"),
                "n_chunks": pd.Series([], dtype="int64"),
            })
        g = (
            df.groupby(["subject", "predicate", "object", "doc_id"],
                       as_index=False)
            .agg(n_chunks=("chunk_hid", "nunique"))
        )
        g["doc_id"] = g["doc_id"].astype("int64")
        g["n_chunks"] = g["n_chunks"].astype("int64")
        return g

    def combine(g: "pd.DataFrame") -> "pd.DataFrame":
        out = (
            g.groupby(["subject", "predicate", "object"], as_index=False)
            .agg(
                n_docs=("doc_id", "nunique"),
                n_chunks=("n_chunks", "sum"),
                first_doc=("doc_id", "min"),
            )
        )
        for c in ("n_docs", "n_chunks", "first_doc"):
            out[c] = out[c].astype("int64")
        return out[["subject", "predicate", "object",
                    "n_docs", "n_chunks", "first_doc"]]

    return shuffle_by(
        triples.map_batches(partial, batch_format="pandas"),
        ["subject", "predicate", "object"], combine,
    )


def _q_kg_incremental_entities(sf_dir: str):
    """Incremental KG entity-table update (the daily-crawl shape the
    north-rule's 10^12-doc scale forces — never reprocess old docs):
    'yesterday' = the global entity table of docs < 250, 'today's batch'
    = the triples of docs ≥ 250; the update unions the new batch's
    per-batch aggregates with the old table's rows into ONE shuffle on
    entity_key (no salted pre-aggregation) and tags every row
    new/updated/unchanged. Property-tested: equals the full-batch
    global_entity_table over all docs, row for row (merge rules are
    associative). Golden-pinned (content-hash IRIs)."""
    import pyarrow.compute as pc

    from ontocast_ray.pipelines.crossdoc import (
        global_entity_table,
        incremental_global_entities,
    )

    triples = _q_kg_triples(sf_dir).materialize()

    def half(lo: int, hi: int):
        def f(b):
            ids = pc.cast(
                pc.if_else(
                    pc.equal(b["doc_id"], ""), "-1", b["doc_id"]
                ),
                "int64",
            )
            keep = pc.and_(pc.greater_equal(ids, lo), pc.less(ids, hi))
            return b.filter(keep)

        return triples.map_batches(f, batch_format="pyarrow")

    old_table = global_entity_table(half(0, 250))
    return incremental_global_entities(
        old_table, half(250, 10**9)
    ).select_columns(
        ["entity_uri", "entity_key", "label",
         "n_docs", "n_mentions", "status"]
    )


def _q_kg_class_instances(sf_dir: str):
    """Ontology-usage census over the FLAGSHIP pipeline output: per
    rdf:type class — distinct instances, total assertions, documents
    asserting it. The 'which classes does this corpus actually use'
    report that drives ontology pruning/criticism (the reference's
    criticise step reasons over exactly this signal per chunk; this is
    the corpus-wide table). One ``shuffle_by`` on class of per-batch
    distinct partials; golden-pinned (content-hash IRIs)."""
    import pandas as pd

    from ontocast_ray.ops.shuffle import shuffle_by

    triples = _q_kg_triples(sf_dir)
    rdf_type = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"

    def partial(df: "pd.DataFrame") -> "pd.DataFrame":
        df = df[(df["graph_scope"] == "facts")
                & (df["predicate"] == rdf_type)]
        if df.empty:
            return pd.DataFrame({
                "class_uri": pd.Series([], dtype=object),
                "subject": pd.Series([], dtype=object),
                "doc_id": pd.Series([], dtype=object),
                "n": pd.Series([], dtype="int64"),
            })
        g = (
            df.groupby(["object", "subject", "doc_id"], as_index=False)
            .size().rename(columns={"size": "n", "object": "class_uri"})
        )
        g["n"] = g["n"].astype("int64")
        return g

    def combine(g: "pd.DataFrame") -> "pd.DataFrame":
        out = g.groupby("class_uri", as_index=False).agg(
            n_instances=("subject", "nunique"),
            n_docs=("doc_id", "nunique"),
            n_assertions=("n", "sum"),
        )
        for c in ("n_instances", "n_docs", "n_assertions"):
            out[c] = out[c].astype("int64")
        return out[["class_uri", "n_instances", "n_docs", "n_assertions"]]

    return shuffle_by(
        triples.map_batches(partial, batch_format="pandas"), "class_uri",
        combine,
    )


def _q_link_density(sf_dir: str):
    """Link-density quality signal (the boilerplate-page detector every
    web-text pipeline gates on — nav/footer pages are mostly anchor
    text): over the same synthetic anchor corpus as anchor_text_top, per
    doc — total chars, link count, anchor-text chars, and the IEEE
    int/int anchor-char ratio. Pure map, zero shuffle; one compiled
    regex per batch. Oracle re-derives with regexp_extract_all."""
    import re as _re

    import numpy as np
    import pyarrow as pa

    docs = _read(sf_dir, "documents", columns=["doc_id", "text"])
    link_re = _re.compile(r'<a\s[^>]*href="([^"]+)"[^>]*>([^<]*)</a>',
                          _re.IGNORECASE | _re.DOTALL)

    def kern(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        n_chars, n_links, anchor_chars = [], [], []
        htmls = []
        for d, t in zip(ids, batch["text"].to_pylist()):
            html = (
                "<html><body><p>" + (t or "") + "</p>"
                + '<a class="x" href="https://site' + str(d % 7)
                + '.example.com/p' + str(d % 3) + '">Link One</a>'
                + ('<A HREF="HTTPS://Site' + str((d * 3 + 1) % 7)
                   + '.Example.COM/q?a=1"> MORE here </A>')
                + '<a href="/rel/path">rel</a>'
                + "</body></html>"
            )
            htmls.append(html)
        for html in htmls:
            ms = link_re.findall(html)
            n_chars.append(len(html))
            n_links.append(len(ms))
            anchor_chars.append(sum(len(a) for _, a in ms))
        n_chars = np.asarray(n_chars, dtype=np.int64)
        anchor_chars = np.asarray(anchor_chars, dtype=np.int64)
        return pa.table({
            "doc_id": batch["doc_id"],
            "n_chars": pa.array(n_chars),
            "n_links": pa.array(np.asarray(n_links, dtype=np.int64)),
            "anchor_chars": pa.array(anchor_chars),
            "link_char_ratio": pa.array(
                anchor_chars / np.maximum(n_chars, 1)
            ),
        })

    return docs.map_batches(kern, batch_format="pyarrow")


def _q_bpe_trained_merges(sf_dir: str):
    """BPE tokenizer TRAINING over the corpus (the HF/SentencePiece
    industrial shape): one distributed word-frequency pass, then the
    merge loop over the weighted vocabulary — 24 learned merges with
    their winning pair counts. Anchored by a pure-python reference
    trainer + a hand-derived merge sequence in tests; golden-pinned
    (iterative argmax is not SQL-expressible)."""
    from ontocast_ray.ops.packing import bpe_train

    docs = _read(sf_dir, "documents", columns=["text"])
    return bpe_train(docs, n_merges=24)


def _q_orders_weekly_deltas(sf_dir: str):
    """Weekly order-volume time series with week-over-week integer
    deltas (the ops dashboard every ingestion pipeline watches): orders
    bucketed by epoch week, counts + LAG delta. One small groupby (weeks
    are few); the delta pass is a driver-side sort over the week-count
    table. SQL mirror: date_trunc + LAG."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa

    from ontocast_ray.ops.shuffle import shuffle_by

    orders = _read(sf_dir, "orders", columns=["o_orderkey", "o_orderdate"])

    def partial(batch: pa.Table) -> pa.Table:
        ts = batch["o_orderdate"].cast(pa.timestamp("us")).cast(pa.int64())
        t = ts.to_numpy(zero_copy_only=False)
        # epoch-µs → ISO-Monday week start (1970-01-01 was a Thursday:
        # shift 3 days so day 0 is a Monday, floor to weeks, shift back)
        day_us = 86_400_000_000
        week = ((t // day_us + 3) // 7) * 7 * day_us - 3 * day_us
        g = (
            pd.DataFrame({"week_start": week})
            .groupby("week_start", as_index=False).size()
            .rename(columns={"size": "n_orders"})
        )
        g["n_orders"] = g["n_orders"].astype(np.int64)
        return pa.Table.from_pandas(g, preserve_index=False)

    def combine(df: "pd.DataFrame") -> "pd.DataFrame":
        g = df.groupby("week_start", as_index=False)["n_orders"].sum()
        g = g.sort_values("week_start").reset_index(drop=True)
        prev = g["n_orders"].shift(1)
        g["delta"] = (g["n_orders"] - prev.fillna(0)).astype(np.int64)
        g.loc[prev.isna(), "delta"] = 0
        g["n_orders"] = g["n_orders"].astype(np.int64)
        return g[["week_start", "n_orders", "delta"]]

    # the week table is tiny (one row per calendar week) → single group
    return shuffle_by(
        orders.map_batches(partial, batch_format="pyarrow"), "week_start",
        combine, n_parts=1,
    )


def _q_events_dow_hour(sf_dir: str):
    """Day-of-week × hour activity heatmap (the traffic table every ops
    dashboard opens with): counts per (dow, hour) in PURE integer epoch
    arithmetic — dow = (epoch_days + 4) % 7 with 0=Sunday (1970-01-01
    was a Thursday), hour = epoch-hours % 24 — identical formulas on
    both engines, no date/timezone functions to drift. Map-side combiner
    → one 168-row groupby."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa

    from ontocast_ray.ops.shuffle import shuffle_by

    ev = _read(sf_dir, "events", columns=["ts"])

    def partial(batch: pa.Table) -> pa.Table:
        t = batch["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        dow = ((t // 86_400_000_000) + 4) % 7
        hour = (t // 3_600_000_000) % 24
        g = (
            pd.DataFrame({"dow": dow, "hour": hour})
            .groupby(["dow", "hour"], as_index=False).size()
            .rename(columns={"size": "n_events"})
        )
        g["n_events"] = g["n_events"].astype(np.int64)
        return pa.Table.from_pandas(g, preserve_index=False)

    def combine(df: "pd.DataFrame") -> "pd.DataFrame":
        g = df.groupby(["dow", "hour"], as_index=False)["n_events"].sum()
        g["n_events"] = g["n_events"].astype(np.int64)
        return g[["dow", "hour", "n_events"]]

    # ≤168 distinct cells → single-part final combine
    return shuffle_by(
        ev.map_batches(partial, batch_format="pyarrow"), ["dow", "hour"],
        combine, n_parts=1,
    )


def _q_minhash_calibration(sf_dir: str):
    """MinHash calibration table (the num_perm-tuning report): per LSH
    candidate pair, signature-estimated Jaccard vs EXACT shingle Jaccard
    and the absolute error. Signatures broadcast once (doc-count-sized
    catalog); pairs from pair_mode='all'; exact values from the
    distributed Bloom-pruned verifier. Golden-pinned (hash-based)."""
    from ontocast_ray.ops.dedup import minhash_estimate_errors

    docs = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return minhash_estimate_errors(
        docs, num_perm=64, bands=16, shingle_k=3
    )


def _q_pca_projection(sf_dir: str):
    """Distributed PCA top-2 projection of the embedding corpus: exact
    integer second moments (the embedding_gram shuffle), d×d eig on the
    driver, components broadcast, projection pure-map. Eigenbasis is a
    pure function of the exact integer moments → identical at any
    parallelism (sign fixed by the max-|coef| convention); anchored by
    a numpy-equality test, golden-pinned (eig is not SQL)."""
    from ontocast_ray.ops.features import pca_project

    emb = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    return pca_project(emb, k=2, scale=1 << 8)


def _q_customer_recency(sf_dir: str):
    """Days-since-last-order per customer (the R of RFM, integer-exact):
    per-customer max order day + frequency via the count combiner; the
    anchor is the corpus-wide max order date (one scalar broadcast
    driver-side — never row data). Money columns stay out (float-sum
    rule). SQL mirror: max(day) window anchor."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa

    from ontocast_ray.ops.shuffle import shuffle_by

    orders = _read(sf_dir, "orders", columns=["o_custkey", "o_orderdate"])
    day_us = np.int64(86_400_000_000)

    def partial(batch: pa.Table) -> pa.Table:
        ts = batch["o_orderdate"].cast(pa.timestamp("us")).cast(pa.int64())
        d = ts.to_numpy(zero_copy_only=False) // day_us
        g = (
            pd.DataFrame({
                "o_custkey": batch["o_custkey"].to_numpy(
                    zero_copy_only=False
                ),
                "day": d,
            })
            .groupby("o_custkey", as_index=False)
            .agg(last_day=("day", "max"), n_orders=("day", "size"))
        )
        g["n_orders"] = g["n_orders"].astype(np.int64)
        return pa.Table.from_pandas(g, preserve_index=False)

    partials = orders.map_batches(
        partial, batch_format="pyarrow"
    ).materialize()  # consumed by the anchor max AND the final combine
    anchor = int(partials.max("last_day"))

    def combine(df: "pd.DataFrame") -> "pd.DataFrame":
        g = df.groupby("o_custkey", as_index=False).agg(
            last_day=("last_day", "max"), n_orders=("n_orders", "sum")
        )
        g["recency_days"] = (anchor - g["last_day"]).astype(np.int64)
        g["n_orders"] = g["n_orders"].astype(np.int64)
        return g[["o_custkey", "recency_days", "n_orders"]]

    return shuffle_by(partials, "o_custkey", combine)


def _q_kg_sameas_audit(sf_dir: str):
    """owl:sameAs lineage audit over the global rewrite: per global
    entity URI, how many distinct doc-canonical aliases merged into it —
    the fan-in report entity-resolution QA reads next to the provenance
    ledger. One ``shuffle_by`` on the global URI of per-batch distinct
    (global, alias) partials; golden-pinned (content-hash IRIs)."""
    import pandas as pd

    from ontocast_ray.ops.shuffle import shuffle_by

    rewritten = _q_kg_rewritten_global(sf_dir)

    def partial(df: "pd.DataFrame") -> "pd.DataFrame":
        df = df[df["graph_scope"] == "sameas"]
        if df.empty:
            return pd.DataFrame({
                "entity_uri": pd.Series([], dtype=object),
                "alias": pd.Series([], dtype=object),
            })
        return df[["object", "subject"]].drop_duplicates().rename(
            columns={"object": "entity_uri", "subject": "alias"}
        )

    def combine(g: "pd.DataFrame") -> "pd.DataFrame":
        out = (
            g.drop_duplicates(["entity_uri", "alias"])
            .groupby("entity_uri", as_index=False)
            .agg(n_aliases=("alias", "nunique"))
        )
        out["n_aliases"] = out["n_aliases"].astype("int64")
        return out[["entity_uri", "n_aliases"]]

    return shuffle_by(
        rewritten.map_batches(partial, batch_format="pandas"), "entity_uri",
        combine,
    )


def _q_activity_streaks(sf_dir: str):
    """Longest consecutive-day streak per user (gaps-and-islands, the
    retention feature): distinct active days, islands by day − rank,
    max island + total days. One coarse user shuffle of deduped
    (user, day) rows. SQL mirror: the ROW_NUMBER islands idiom."""
    from ontocast_ray.ops.windows import activity_streaks

    ev = _read(sf_dir, "events", columns=["user_id", "ts"])
    return activity_streaks(ev)


def _q_gram_novelty(sf_dir: str):
    """Per-doc 3-gram novelty (Lee et al. 2022 dedup-analysis metric):
    share of the doc's distinct word-3-shingles whose global first
    occurrence (min doc_id) is this doc. Two coarse shuffles (shingle →
    min doc, winners → doc); hashes only on the wire. Oracle re-derives
    with string grams (the dup_span_scrub equivalence)."""
    from ontocast_ray.ops.dedup import gram_novelty

    docs = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return gram_novelty(docs, k=3)


def _q_kg_from_curated(sf_dir: str):
    """The full production story in ONE streaming pipeline: quality-gate
    the raw corpus (Gopher rule set, pure map) → spanify survivors into
    the north-rule interleaved shape → flagship KG extraction →
    per-document triple/entity yield. The curate-then-extract
    composition a real KG build runs — rejected docs never reach the
    (expensive) extraction stage, which is the whole point of gating
    first. Golden-pinned (content-hash IRIs)."""
    import pandas as pd
    import pyarrow as pa
    import pyarrow.compute as pc

    from ontocast_ray.ops.text import gopher_quality_filter
    from ontocast_ray.ops.shuffle import shuffle_by
    from ontocast_ray.pipelines.kg import (
        build_kg_pipeline,
        spanify_flat_documents,
    )

    docs = _read(sf_dir, "documents", columns=["doc_id", "text"])
    docs = docs.map_batches(
        lambda b: b.filter(pc.less(b["doc_id"], pa.scalar(KG_DOC_LIMIT))),
        batch_format="pyarrow",
    ).materialize()  # consumed by the gate AND the keep-join below
    gates = gopher_quality_filter_ds = docs.map_batches(
        gopher_quality_filter, batch_format="pyarrow"
    ).select_columns(["doc_id", "kept"])

    # keep-list is corpus-row-sized booleans → broadcast the kept ids
    # (the apply_keep_list fast-path shape)
    import numpy as np

    import ray

    kept_ids = []
    for b in gates.iter_batches(batch_size=None, batch_format="pyarrow"):
        ids = b["doc_id"].to_numpy(zero_copy_only=False)
        k = b["kept"].to_numpy(zero_copy_only=False)
        kept_ids.append(ids[k.astype(bool)])
    kept = np.sort(np.concatenate(kept_ids)) if kept_ids else np.array([], np.int64)
    kref = ray.put(kept)

    def keep_only(batch: pa.Table) -> pa.Table:
        ks = ray.get(kref)
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        if len(ks) == 0:
            return batch.slice(0, 0)
        pos = np.minimum(np.searchsorted(ks, ids), len(ks) - 1)
        return batch.filter(pa.array(ks[pos] == ids))

    survivors = docs.map_batches(keep_only, batch_format="pyarrow")
    spans = spanify_flat_documents(survivors, seed=42, inject_entities=True)
    triples = build_kg_pipeline(
        spans, min_chunk_size=200, max_chunk_size=2000,
    )

    def partial(df: "pd.DataFrame") -> "pd.DataFrame":
        df = df[df["graph_scope"] == "facts"]
        if df.empty:
            return pd.DataFrame({
                "doc_id": pd.Series([], dtype=object),
                "n_triples": pd.Series([], dtype="int64"),
                "n_entities": pd.Series([], dtype="int64"),
            })
        g = df.groupby("doc_id", as_index=False).agg(
            n_triples=("subject", "size"),
            n_entities=("subject", "nunique"),
        )
        g["n_triples"] = g["n_triples"].astype("int64")
        g["n_entities"] = g["n_entities"].astype("int64")
        return g

    def combine(g: "pd.DataFrame") -> "pd.DataFrame":
        out = g.groupby("doc_id", as_index=False).agg(
            n_triples=("n_triples", "sum"),
            n_entities=("n_entities", "sum"),
        )
        out["n_triples"] = out["n_triples"].astype("int64")
        out["n_entities"] = out["n_entities"].astype("int64")
        return out[["doc_id", "n_triples", "n_entities"]]

    return shuffle_by(
        triples.map_batches(partial, batch_format="pandas"), "doc_id",
        combine,
    )


def _q_lineitem_pricing_summary(sf_dir: str):
    """TPC-H Q1 silhouette with EXACT integer measures (quantities are
    integral doubles → BIGINT cast on both engines; money columns are
    floats and stay out — the repo-wide float-sum rule): per
    (returnflag, linestatus) — line count, summed quantity, distinct
    parts. Map-side combiner, one tiny groupby."""
    import numpy as np
    import pandas as pd

    from ontocast_ray.ops.shuffle import shuffle_by

    li = _read(
        sf_dir, "lineitem",
        columns=["l_returnflag", "l_linestatus", "l_quantity", "l_partkey"],
    )

    def partial(df: "pd.DataFrame") -> "pd.DataFrame":
        df = df.assign(q=df["l_quantity"].to_numpy().astype(np.int64))
        g = df.groupby(["l_returnflag", "l_linestatus", "l_partkey"],
                       as_index=False).agg(
            n=("q", "size"), sq=("q", "sum"),
        )
        return g

    def combine(df: "pd.DataFrame") -> "pd.DataFrame":
        g = df.groupby(["l_returnflag", "l_linestatus"], as_index=False).agg(
            count_order=("n", "sum"),
            sum_qty=("sq", "sum"),
            n_parts=("l_partkey", "nunique"),
        )
        for c in ("count_order", "sum_qty", "n_parts"):
            g[c] = g[c].astype(np.int64)
        return g[["l_returnflag", "l_linestatus",
                  "count_order", "sum_qty", "n_parts"]]

    # 6 (flag, status) groups → single-part final combine; the partial
    # keeps partkey so distinct-parts merges exactly
    return shuffle_by(
        li.map_batches(partial, batch_format="pandas"), "l_returnflag",
        combine, n_parts=1,
    )


def _q_event_bursts(sf_dir: str):
    """Per-user hourly burst flags (crawl-trap/abuse monitoring): a
    window bursts when count × n_active_windows > 2 × user_total — pure
    integer cross-multiplication, no float mean. One coarse user shuffle
    of (user, window, count) partials. SQL mirror uses the same integer
    inequality over window functions."""
    from ontocast_ray.ops.windows import event_bursts

    ev = _read(sf_dir, "events", columns=["user_id", "ts"])
    return event_bursts(ev)


def _q_user_trend(sf_dir: str):
    """Per-user OLS trend of the integer props.k signal over event time,
    EXACT as integer fractions (slope = num/den) — the featurize-per-
    entity step where a naive float slope is reduce-order-dependent.
    One coarse hash(user)%P shuffle; all four moments in one vectorized
    groupby pass. Oracle mirrors with HUGEINT sums cast to BIGINT."""
    import numpy as np
    import pyarrow as pa

    from ontocast_ray.ops.windows import user_trend_fractions

    ev = _read(sf_dir, "events", columns=["user_id", "ts", "props"])

    def with_y(batch: pa.Table) -> pa.Table:
        import json

        ks = [json.loads(p)["k"] for p in batch["props"].to_pylist()]
        return pa.table({
            "user_id": batch["user_id"],
            "ts": batch["ts"],
            "y": pa.array(np.asarray(ks, dtype=np.int64)),
        })

    return user_trend_fractions(
        ev.map_batches(with_y, batch_format="pyarrow")
    )


def _q_mixing_weights(sf_dir: str):
    """The multi-source mixture planning table (Pile/Dolma 'epochs per
    source'): per source, doc/whitespace-token totals, ceil-integer
    epochs to fill a 1M-token budget, and the corpus token share as one
    IEEE int/int division. Two O(sources)-row shuffles only."""
    from ontocast_ray.ops.interleave import mixing_weights

    docs = _read(sf_dir, "documents", columns=["source", "text"])
    return mixing_weights(docs, token_budget_per_source=1_000_000)


def _q_knn_hubness(sf_dir: str):
    """ANN hubness report (Radovanović et al. 2010): in-degree of every
    vector in the exact cosine top-5 graph — the health check that
    catches hub vectors poisoning retrieval. Composition: the golden-
    anchored exact kNN self-join feeds the exact_dedup-shaped count
    combiner. Oracle: the knn_self_join SQL + GROUP BY neighbor."""
    from ontocast_ray.ops.similarity import knn_hubness, knn_self_join

    emb = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    pairs = knn_self_join(emb, k=5, max_rows_per_shard=200)
    return knn_hubness(pairs)


def _q_c4_line_filter(sf_dir: str):
    """The C4 line-rule set (Raffel et al. 2020 §2.2) end-to-end: a
    deterministic multi-line page is synthesized per doc (good sentences,
    a punctuation-less base line, a too-short line, a javascript notice on
    doc_id%4, lorem-ipsum on %11, a ``{`` code line on %13), then lines
    are kept only if terminal-punctuated + ≥3 words + no 'javascript',
    and pages are dropped on lorem-ipsum / '{' / <2 kept lines. Pure map,
    zero shuffle. Oracle re-derives line-by-line with parallel UNNEST."""
    import pyarrow as pa

    from ontocast_ray.ops.curation import c4_line_filter

    docs = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def synth(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        texts = []
        for d, t in zip(ids, batch["text"].to_pylist()):
            lines = [
                "This is a good sentence line ok.",
                t or "",
                "tiny.",
            ]
            if d % 4 == 0:
                lines.append("Please enable javascript to continue here.")
            if d % 2 == 0:
                lines.append("Another complete sentence appears right here!")
            if d % 11 == 0:
                lines.append("this page uses lorem ipsum filler text.")
            if d % 13 == 0:
                lines.append("function f() { return 1; }")
            texts.append("\n".join(lines))
        return pa.table({
            "doc_id": batch["doc_id"], "text": pa.array(texts),
        })

    return c4_line_filter(
        docs.map_batches(synth, batch_format="pyarrow"),
        min_words_per_line=3, min_kept_lines=2,
    )


def _q_script_profile(sf_dir: str):
    """Unicode-script character profile (the CCNet script-routing signal):
    deterministic Cyrillic/Greek/Han runs are appended per doc_id (and
    doc_id%9 pages replaced by a pure-Cyrillic body), then per-doc counts
    over the FIXED codepoint table shared verbatim with the SQL oracle's
    RE2 classes — counts + argmax main_script must match bit-for-bit.
    Pure map: one utf-32 decode + four vectorized range masks per batch."""
    import pyarrow as pa

    from ontocast_ray.ops.text import script_profile

    docs = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def synth(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        texts = []
        for d, t in zip(ids, batch["text"].to_pylist()):
            if d % 9 == 0:
                texts.append("аб" * 40)
                continue
            t = t or ""
            if d % 3 == 0:
                t += " " + "аб" * (d % 5 + 1)
            elif d % 3 == 1:
                t += " " + "λμ" * (d % 4 + 1)
            else:
                t += " " + "中文" * (d % 3 + 1)
            texts.append(t)
        return pa.table({
            "doc_id": batch["doc_id"], "text": pa.array(texts),
        })

    return docs.map_batches(synth, batch_format="pyarrow").map_batches(
        script_profile, batch_format="pyarrow"
    )


def _q_url_templates(sf_dir: str):
    """Crawl path-template mining (calendar-trap / pagination-family
    report): synthesize a deterministic item URL per doc (mixed-case
    host, www., digit segments, trailing slash on doc_id%2, query+
    fragment noise, an unparseable string on %17), collapse digit runs in
    the PATH to 'N', count pages per (host, template). Map-side combiner
    → one coarse shuffle of (host, template, count) rows. Oracle
    re-derives host/path/template independently with DuckDB regexes."""
    from ontocast_ray.ops.urls import url_path_templates

    docs = _read(sf_dir, "documents", columns=["doc_id"])

    def synth(df):
        d = df["doc_id"]
        base = (
            "https://WWW.Shop" + (d % 5).astype(str)
            + ".Example.com"
            + ("/p/" + d.astype(str) + "/x").where(
                d % 3 == 0,
                "/cat/" + (d % 7).astype(str)
                + "/item/" + (d * 97 % 1000).astype(str),
            )
            + (d % 2).map({0: "/", 1: ""})
            + "?page=" + (d % 4).astype(str) + "#frag"
        )
        df["url"] = base.where(d % 17 != 0, "not a url " + d.astype(str))
        return df

    return url_path_templates(
        docs.map_batches(synth, batch_format="pandas")
    )


def _q_mention_contexts(sf_dir: str):
    """Entity-linker training windows (the BLINK/GENRE data-prep shape):
    catalog terms alpha/beta/gamma are injected at deterministic spots
    (doc start on %4 — left-clamp; end of doc — right-clamp), then every
    occurrence in the [a-z]+ token stream emits its ±2-token context.
    Pure map, zero shuffle; matches (sparse) are the only Python loop.
    Oracle: parallel UNNEST with ordinality + list slice on the words."""
    import pyarrow as pa

    from ontocast_ray.ops.text import mention_contexts

    docs = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def synth(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        texts = []
        for d, t in zip(ids, batch["text"].to_pylist()):
            t = ("alpha leads " if d % 4 == 0 else "") + (t or "")
            t += " sees alpha by the old mill"
            if d % 3 == 0:
                t += " beta rises"
            if d % 5 == 0:
                t += " gamma"
            texts.append(t)
        return pa.table({
            "doc_id": batch["doc_id"], "text": pa.array(texts),
        })

    return mention_contexts(
        docs.map_batches(synth, batch_format="pyarrow"),
        terms=("alpha", "beta", "gamma"), window=2,
    )


def _q_taxonomy_closure(sf_dir: str):
    """rdfs:subClassOf-style transitive ancestor closure by RECURSIVE
    DOUBLING (O(log depth) rounds, not O(depth)): the hierarchy is the
    deterministic ternary forest parent(d) = (d-1)//3 over doc_ids. The
    jump table (node-sized) takes the broadcast fast path; the closed set
    — the depth-multiplied big side — never leaves the cluster. Oracle:
    WITH RECURSIVE over the same parent rule."""
    import pyarrow as pa

    from ontocast_ray.ops.graph_cc import ancestor_closure

    docs = _read(sf_dir, "documents", columns=["doc_id"])

    def edges(batch: pa.Table) -> pa.Table:
        import numpy as np

        d = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        d = d[d > 0]
        return pa.table({
            "child": pa.array(d),
            "parent": pa.array((d - 1) // 3),
        })

    return ancestor_closure(
        docs.map_batches(edges, batch_format="pyarrow"),
    ).map_batches(
        lambda b: b.select(["node", "ancestor", "depth"]),
        batch_format="pyarrow",
    )


# ---------------------------------------------------------------------------
# driver surface


def entry() -> Any:
    """Flagship pipeline on /root/testdata/sf0.001; driver checks rows>=0."""
    return _q_kg_triples(SF_DEFAULT)


def queries() -> dict[str, Callable[[str], Any]]:
    return {
        # KG-construction pipeline (SURVEY §2 / §3.4)
        "kg_triples": _q_kg_triples,
        "kg_chunks": _q_kg_chunks,
        "kg_aggregated_facts": _q_kg_aggregated_facts,
        # relational / text ops with DuckDB oracles
        "exact_dedup": _q_exact_dedup,
        "token_stats": _q_token_stats,
        "quality_stats": _q_quality_stats,
        "lang_dist": _q_lang_dist,
        "events_by_type": _q_events_by_type,
        "docs_by_source": _q_docs_by_source,
        "top_docs_by_len": _q_top_docs_by_len,
        "events_by_user": _q_events_by_user,
        "events_windowed": _q_events_windowed,
        "events_sessions": _q_events_sessions,
        "customers_by_region": _q_customers_by_region,
        "events_with_lag": _q_events_with_lag,
        "knn_cosine_top10": _q_knn,
        # training-data ops, rows-only (hash/model-based, not SQL-expressible)
        "minhash_dedup_pairs": _q_minhash_pairs,
        "simhash_signatures": _q_simhash,
        "embedding_dedup_pairs": _q_embedding_dedup,
        "lang_id": _q_lang_id,
        "doc_fingerprint": _q_fingerprint,
        "knn_ivf_top10": _q_knn_ivf,
        "knn_pq_top10": _q_knn_pq,
        "knn_ivf_rerank_top10": _q_knn_ivf_rerank,
        "media_features": _q_media_features,
        # cross-document entity merge (salted two-phase shuffle + pure-map rewrite)
        "kg_global_entities": _q_global_entities,
        "kg_rewritten_global": _q_kg_rewritten_global,
        # round 2: dedup end-game + extra window/rank ops
        "doc_group_components": _q_doc_group_components,
        "neardup_keep_list": _q_neardup_keep_list,
        "neardup_filtered_docs": _q_neardup_filtered,
        "events_hopping": _q_events_hopping,
        "top_docs_per_source": _q_top_docs_per_source,
        "events_asof_click": _q_events_asof,
        "events_value_bands": _q_events_value_bands,
        "events_quantiles": _q_events_quantiles,
        "events_watermark_window": _q_events_watermark,
        "term_counts_top50": _q_term_counts,
        "doc_sample_10pct": _q_doc_sample,
        # round 3: training-data export + quality surface
        "corpus_interleave": _q_corpus_interleave,
        "repetition_stats": _q_repetition_stats,
        "pii_scrub": _q_pii_scrub,
        "pack_sequences": _q_pack_sequences,
        "packed_bpe": _q_packed_bpe,
        "curated_packing": _q_curated_packing,
        "bm25_top20": _q_bm25_topk,
        "events_approx_distinct": _q_events_hll,
        "events_sketch_quantiles": _q_events_dd_quantiles,
        "docs_source_cap": _q_docs_source_cap,
        "decontam_overlap": _q_decontam,
        "boilerplate_scrub": _q_boilerplate,
        "paragraph_dedup": _q_paragraph_dedup,
        "gopher_filtered_docs": _q_gopher_filter,
        "dolma_curated_packing": _q_dolma_pipeline,
        "lang_quality_buckets": _q_lang_quality_buckets,
        "epoch_shuffle_pos": _q_epoch_shuffle,
        "kg_two_hop_preds": _q_kg_two_hop,
        "domain_quality_report": _q_domain_report,
        "span_kind_transitions": _q_span_transitions,
        "cdc_dup_stats": _q_cdc_dup_stats,
        "source_similarity": _q_source_similarity,
        "entity_comention_edges": _q_comention_edges,
        "vocab_coverage": _q_vocab_coverage,
        "next_event_context": _q_next_event_context,
        "kg_label_ambiguity": _q_kg_label_ambiguity,
        "train_test_leakage": _q_train_test_leakage,
        "user_max_gap": _q_user_max_gap,
        "doc_length_histogram": _q_doc_length_histogram,
        "sample_exact_100": _q_sample_exact_k,
        "embedding_sq8": _q_scalar_quant,
        "gazetteer_mentions": _q_gazetteer,
        "supplier_k_core": _q_k_core,
        "lineitem_orders_join": _q_hash_join,
        "supplier_customer_pairs": _q_distinct_pairs,
        "customers_with_orders": _q_semi_join,
        "customers_without_orders": _q_anti_join,
        "stratified_sample_5per_source": _q_stratified_sample,
        "events_rolling_max": _q_events_rolling_max,
        "doc_row_numbers": _q_doc_row_numbers,
        "heavy_hitter_terms": _q_heavy_hitters,
        "normalize_text": _q_normalize_text,
        "dup_span_stats": _q_dup_span_stats,
        "dup_span_scrub": _q_dup_span_scrub,
        "quality_classifier": _q_quality_classifier,
        "knn_self_join_top5": _q_knn_self_join,
        "knn_ivf_join_top5": _q_knn_ivf_join,
        "classifier_curated_packing": _q_classifier_curated_packing,
        "neardup_scrubbed_packing": _q_neardup_scrubbed_packing,
        "events_minmax_scaled": _q_minmax_scale,
        "supplier_triangles": _q_triangles,
        "lineitem_supplier_skew_join": _q_skew_join,
        "users_per_event_type": _q_grouped_count_distinct,
        "docs_rollup_counts": _q_rollup,
        "orders_customer_bucket_join": _q_bucket_join,
        "user_event_sequences": _q_event_sequences,
        "events_json_field": _q_json_field,
        "events_mad_outliers": _q_mad_outliers,
        "purchase_click_window_counts": _q_interval_count,
        "top_terms_per_source": _q_top_terms_per_source,
        "contrastive_negatives": _q_negative_samples,
        "funnel_view_click_purchase": _q_funnel_users,
        "hourly_distinct_users": _q_hourly_distinct_users,
        "lang_rebalanced_docs": _q_rebalance_sample,
        "events_window_first_last": _q_window_first_last,
        "docs_lang_pivot": _q_pivot_lang_source,
        "split_assign": _q_split_assign,
        "kmeans_clusters": _q_kmeans,
        "semdedup_keep": _q_semdedup,
        "pagerank_suppliers": _q_pagerank,
        "term_cooccurrence_top100": _q_term_cooccurrence,
        "dsir_selected_docs": _q_dsir_select,
        "incremental_dedup_new_docs": _q_incremental_dedup,
        "bigram_coverage": _q_bigram_coverage,
        "lpa_communities": _q_lpa_communities,
        "url_dedup": _q_url_dedup,
        "token_windows": _q_token_windows,
        "knn_ivf_recall10": _q_knn_ivf_recall,
        "html_extracted_text": _q_html_extract,
        "blocked_domain_survivors": _q_blocked_domains,
        "diversity_stats": _q_diversity_stats,
        "corpus_diff": _q_corpus_diff,
        "temperature_mixed_docs": _q_temperature_mix,
        "label_centroids": _q_label_centroids,
        "incremental_neardup_pairs": _q_incremental_neardup,
        "events_global_quantiles": _q_global_quantiles,
        "countmin_heavy_estimates": _q_countmin,
        "neardup_keep_best": _q_keep_best,
        "dedup_audit_report": _q_dedup_audit,
        "events_global_robust_scaled": _q_global_robust,
        "web_curated_packing": _q_web_pipeline,
        "stratified_split_exact": _q_stratified_split,
        "incremental_embedding_pairs": _q_incremental_embedding,
        "neighbor_feature_agg": _q_neighbor_agg,
        "weekly_retention": _q_weekly_retention,
        "event_value_deciles": _q_quantile_buckets,
        "ppr_even_seeds": _q_ppr,
        "doc_keywords_top3": _q_doc_keywords,
        "hybrid_rrf_top10": _q_rrf,
        "kg_entity_degrees": _q_kg_entity_degrees,
        "langid_confusion": _q_langid_confusion,
        "sampled_neighbors_3": _q_neighbor_sample,
        "contrastive_triplets": _q_contrastive_triplets,
        "decayed_user_value": _q_decayed_value,
        "linear_attribution": _q_linear_attribution,
        "top_sessions_by_value": _q_top_sessions,
        "source_dup_rates": _q_source_dup_rates,
        "embedding_gram": _q_embedding_gram,
        "jl_projection_8d": _q_rademacher,
        "sliding_hll_distinct_users": _q_sliding_hll,
        "followed_by_pairs": _q_followed_by,
        "dataset_card": _q_dataset_card,
        "fuzzy_name_matches": _q_fuzzy_name_matches,
        "events_running_total": _q_events_running_total,
        "hits_scores": _q_hits_scores,
        "balanced_shards": _q_balanced_shards,
        "nucleus_top80_docs": _q_nucleus_docs,
        "deepwalk_walks": _q_deepwalk,
        "sentence_stats": _q_sentence_stats,
        "media_phash_dupes": _q_media_phash,
        "char_pair_counts": _q_char_pair_counts,
        "span_corruption_pairs": _q_span_corruption,
        "events_user_cume_dist": _q_events_cume_dist,
        "events_winsorized": _q_events_winsorized,
        "supplier_link_prediction": _q_link_prediction,
        "events_per_minute_dense": _q_events_per_minute,
        "bigram_lm_scores": _q_bigram_lm,
        "containment_dup_pairs": _q_containment_pairs,
        "link_host_degrees": _q_link_host_degrees,
        "compression_ratio": _q_compression_ratio,
        "kg_predicate_profile": _q_kg_predicate_profile,
        "fim_psm_docs": _q_fim_psm,
        "wordset_dedup": _q_wordset_dedup,
        "lm_band_filtered_docs": _q_lm_band_filter,
        "length_drift_report": _q_length_drift,
        "kg_validation_report": _q_kg_validation_report,
        "curation_funnel_report": _q_curation_funnel,
        "anchor_text_top": _q_anchor_text_top,
        "c4_filtered_docs": _q_c4_line_filter,
        "script_profile": _q_script_profile,
        "url_templates": _q_url_templates,
        "mention_contexts": _q_mention_contexts,
        "taxonomy_closure": _q_taxonomy_closure,
        "kg_triple_provenance": _q_kg_provenance,
        "kg_incremental_entities": _q_kg_incremental_entities,
        "event_bursts": _q_event_bursts,
        "kg_class_instances": _q_kg_class_instances,
        "link_density": _q_link_density,
        "bpe_trained_merges": _q_bpe_trained_merges,
        "orders_weekly_deltas": _q_orders_weekly_deltas,
        "kg_from_curated": _q_kg_from_curated,
        "lineitem_pricing_summary": _q_lineitem_pricing_summary,
        "gram_novelty": _q_gram_novelty,
        "activity_streaks": _q_activity_streaks,
        "customer_order_recency": _q_customer_recency,
        "kg_sameas_audit": _q_kg_sameas_audit,
        "pca_projection_top2": _q_pca_projection,
        "minhash_calibration": _q_minhash_calibration,
        "events_dow_hour": _q_events_dow_hour,
        "component_size_hist": _q_component_size_hist,
        "user_trend_fractions": _q_user_trend,
        "mixing_weights": _q_mixing_weights,
        "knn_hubness": _q_knn_hubness,
    }


_GOLDEN_DIR = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "goldens", "sf0.01"
)

# Seed-deterministic queries whose outputs SQL cannot re-derive (hash
# signatures, LSH, KG extraction): the oracle is a pinned golden parquet
# regenerated by tools/make_goldens.py at the driver's gate SF (0.01) and
# verified invariant across Ray parallelism levels. This upgrades the
# former rows-only checks to rows+schema+value-hash regression checks.
_GOLDEN_QUERIES = [
    "kg_triples",
    "kg_chunks",
    "kg_aggregated_facts",
    "simhash_signatures",
    "embedding_dedup_pairs",
    "doc_fingerprint",
    "knn_ivf_top10",
    "knn_pq_top10",
    "knn_ivf_rerank_top10",
    "media_features",
    "kg_global_entities",
    "kg_rewritten_global",
    "events_approx_distinct",
    "packed_bpe",
    "knn_ivf_join_top5",
    "knn_ivf_recall10",
    "incremental_embedding_pairs",
    "kg_entity_degrees",
    "hybrid_rrf_top10",
    "sliding_hll_distinct_users",
    "kg_two_hop_preds",
    "kg_label_ambiguity",
    "media_phash_dupes",
    "compression_ratio",
    "kg_predicate_profile",
    "kg_validation_report",
    "kg_triple_provenance",
    "kg_incremental_entities",
    "kg_class_instances",
    "bpe_trained_merges",
    "kg_from_curated",
    "kg_sameas_audit",
    "pca_projection_top2",
    "minhash_calibration",
]

# Queries whose oracle is exact only at the gate SF (sf0.01): the goldens
# are pinned there, and minhash_dedup_pairs' LSH banding misses
# exact-Jaccard pairs below it (recall 25 of 28 at sf0.001). The sf0.001
# contract test and off-gate sweeps leave these to the sf0.01 gate.
_GATE_SF_ONLY = frozenset(_GOLDEN_QUERIES) | {"minhash_dedup_pairs"}

# Exact word-3-shingle Jaccard ≥ 0.8 over all doc pairs — an INDEPENDENT
# re-derivation of the MinHash→LSH→verify pipeline's final answer (at this
# SF every true pair is caught by 16 bands × 4 rows with probability
# ~1-1e-4, and the fixed seeds make it deterministic). Tokenization mirrors
# ops/dedup.py:_word_hashes_batch: lower, strip, split on \s+; docs with
# < 3 words collapse to one whole-text shingle; jaccard is the raw IEEE
# |∩|/|∪| integer division on both sides.
# corpus bigram-LM fixed-point likelihood per doc — shared by the raw
# scores oracle and the CCNet-style band filter built on top of it
_BIGRAM_LM_SQL = r"""
            WITH bg AS (
                SELECT doc_id, w1, w2,
                       CAST(count(*) AS BIGINT) AS n_occ
                FROM (
                    SELECT doc_id,
                           unnest(list_transform(range(1, len(ws)),
                                  i -> ws[i])) AS w1,
                           unnest(list_transform(range(1, len(ws)),
                                  i -> ws[i+1])) AS w2
                    FROM (SELECT doc_id,
                                 regexp_extract_all(
                                     lower(COALESCE(text, '')),
                                     '[a-z]+') AS ws
                          FROM documents)
                    WHERE len(ws) >= 2
                )
                GROUP BY 1, 2, 3
            ), c12 AS (
                SELECT w1, w2, CAST(sum(n_occ) AS BIGINT) AS n12
                FROM bg GROUP BY 1, 2
            ), c1 AS (
                SELECT w1, CAST(sum(n_occ) AS BIGINT) AS n1
                FROM bg GROUP BY 1
            )
            SELECT bg.doc_id,
                   CAST(sum(bg.n_occ) AS BIGINT) AS n_bigrams,
                   CAST(sum(((c12.n12 * 1000000) // c1.n1) * bg.n_occ)
                        AS BIGINT) AS lm_score,
                   CAST(CAST(sum(((c12.n12 * 1000000) // c1.n1)
                                 * bg.n_occ) AS BIGINT)
                        // greatest(CAST(sum(bg.n_occ) AS BIGINT), 1)
                        AS BIGINT) AS lm_avg
            FROM bg
            JOIN c12 ON bg.w1 = c12.w1 AND bg.w2 = c12.w2
            JOIN c1 ON bg.w1 = c1.w1
            GROUP BY bg.doc_id
"""


_JACCARD_PAIRS_SQL = r"""
    WITH ws AS (
        SELECT doc_id, regexp_split_to_array(lower(trim(text)), '\s+') AS w
        FROM documents
    ), sh AS (
        SELECT doc_id,
               list_distinct(
                 CASE WHEN len(w) >= 3
                      THEN list_transform(range(1, len(w) - 1),
                                          i -> w[i] || ' ' || w[i+1] || ' ' || w[i+2])
                      ELSE [array_to_string(w, ' ')] END
               ) AS shingles
        FROM ws
    ), ex AS (
        SELECT doc_id, unnest(shingles) AS s FROM sh
    ), sizes AS (
        SELECT doc_id, len(shingles) AS n FROM sh
    ), inter AS (
        SELECT a.doc_id AS doc_id_a, b.doc_id AS doc_id_b, count(*) AS i
        FROM ex a JOIN ex b ON a.s = b.s AND a.doc_id < b.doc_id
        GROUP BY 1, 2
    )
    SELECT doc_id_a, doc_id_b,
           CAST(i AS DOUBLE) / (na.n + nb.n - i) AS jaccard
    FROM inter
    JOIN sizes na ON na.doc_id = doc_id_a
    JOIN sizes nb ON nb.doc_id = doc_id_b
    WHERE CAST(i AS DOUBLE) / (na.n + nb.n - i) >= 0.8
"""

# splitmix64 re-derived in pure SQL (ops/interleave.py mirrors this exactly):
# 64-bit wrapping multiply via 32-bit constant halves inside HUGEINT (a full
# 64×64 product overflows INT128), xor-shift on UBIGINT. Bit-exact vs the
# numpy kernel — verified in tests and by the corpus_interleave hash match.
def _splitmix_sql(seed: int, sfx: str = "", src: str = "documents") -> str:
    # sfx renames the CTEs (s0{sfx}…mixed{sfx}) so several seeds can
    # coexist in one WITH clause (e.g. the k negative-sample draws);
    # src lets the chain run over a CTE instead of the documents view
    T = "18446744073709551616"  # 2^64
    gamma = 0x9E3779B97F4A7C15
    m1, m2 = 0xBF58476D1CE4E5B9, 0x94D049BB133111EB
    add = (seed * gamma + gamma) % (1 << 64)

    def mul_mod(expr: str, const: int) -> str:
        ch, cl = const >> 32, const & 0xFFFFFFFF
        e = f"CAST({expr} AS HUGEINT)"
        return (
            f"CAST((({e} * {cl}) + ((({e} * {ch}) % 4294967296) * 4294967296))"
            f" % {T} AS UBIGINT)"
        )

    return f"""
        s0{sfx} AS (
            SELECT doc_id,
                   CAST((CAST(doc_id AS HUGEINT) + {add}) % {T} AS UBIGINT) AS z
            FROM {src}
        ), s1{sfx} AS (
            SELECT doc_id, {mul_mod("xor(z, z >> 30)", m1)} AS z FROM s0{sfx}
        ), s2{sfx} AS (
            SELECT doc_id, {mul_mod("xor(z, z >> 27)", m2)} AS z FROM s1{sfx}
        ), mixed{sfx} AS (
            SELECT doc_id,
                   CAST(xor(z, z >> 31) AS DOUBLE) / {T}.0 AS u,
                   xor(z, z >> 31) AS zr
            FROM s2{sfx}
        )"""


# k=3 negative draws: one suffixed splitmix chain per seed, identical
# double multiply + floor on both engines; an unconditional % N guards the
# u=1.0 rounding edge (draws within ~2^11 of 2^64) so neg stays in 0..N-1;
# self-hits then move to (neg+1) % N — mirrors ops/interleave.py exactly
_NEG_SQL = (
    "WITH "
    + ", ".join(_splitmix_sql(100 + j, f"_n{j}").strip() for j in range(3))
    + ", nn AS (SELECT count(*) AS n FROM documents) "
    + " UNION ALL ".join(
        f"""
        SELECT m.doc_id, {j} AS neg_idx,
               CASE WHEN CAST(floor(m.u * nn.n) AS BIGINT) % nn.n = m.doc_id
                    THEN (CAST(floor(m.u * nn.n) AS BIGINT) % nn.n + 1) % nn.n
                    ELSE CAST(floor(m.u * nn.n) AS BIGINT) % nn.n END AS neg_id
        FROM mixed_n{j} m, nn
        """
        for j in range(3)
    )
)

_INTERLEAVE_SQL = f"""
    WITH {_splitmix_sql(7)}
    SELECT doc_id,
           CASE WHEN doc_id % 2 = 0 THEN 'web' ELSE 'code' END AS source_name,
           u / (CASE WHEN doc_id % 2 = 0 THEN 2.0 / 3.0 ELSE 1.0 / 3.0 END)
               AS position
    FROM mixed
"""

# Transitive closure of the verified pair graph via WITH RECURSIVE:
# reach(node, comp) holds when a path comp→node exists, so min(comp) per
# node is the component's min id — the keep-list rule.
_NEARDUP_KEEP_SQL = f"""
    WITH RECURSIVE pairs AS ({_JACCARD_PAIRS_SQL}),
    edges AS (
        SELECT doc_id_a AS u, doc_id_b AS v FROM pairs
        UNION
        SELECT doc_id_b AS u, doc_id_a AS v FROM pairs
    ),
    reach AS (
        SELECT u AS node, u AS comp FROM edges
        UNION
        SELECT e.v AS node, r.comp FROM reach r JOIN edges e ON e.u = r.node
    )
    SELECT node AS doc_id, min(comp) AS keep_id, node = min(comp) AS keep
    FROM reach GROUP BY node
"""


_KEEP_BEST_SQL = f"""
    WITH RECURSIVE pairs AS ({_JACCARD_PAIRS_SQL}),
    edges AS (
        SELECT doc_id_a AS u, doc_id_b AS v FROM pairs
        UNION
        SELECT doc_id_b AS u, doc_id_a AS v FROM pairs
    ),
    reach AS (
        SELECT u AS node, u AS comp FROM edges
        UNION
        SELECT e.v AS node, r.comp FROM reach r JOIN edges e ON e.u = r.node
    ),
    comp AS (
        SELECT node AS doc_id, min(comp) AS component FROM reach GROUP BY node
    ),
    ranked AS (
        SELECT c.doc_id, c.component,
               row_number() OVER (PARTITION BY c.component
                                  ORDER BY d.n_chars DESC, c.doc_id ASC)
                   AS rn
        FROM comp c JOIN documents d USING (doc_id)
    ),
    best AS (SELECT component, doc_id AS keep_id FROM ranked WHERE rn = 1)
    SELECT r.doc_id, b.keep_id, r.doc_id = b.keep_id AS keep
    FROM ranked r JOIN best b USING (component)
"""


_AUDIT_SQL = f"""
    WITH RECURSIVE pairs AS ({_JACCARD_PAIRS_SQL}),
    edges AS (
        SELECT doc_id_a AS u, doc_id_b AS v FROM pairs
        UNION
        SELECT doc_id_b AS u, doc_id_a AS v FROM pairs
    ),
    reach AS (
        SELECT u AS node, u AS comp FROM edges
        UNION
        SELECT e.v AS node, r.comp FROM reach r JOIN edges e ON e.u = r.node
    ),
    keepl AS (
        SELECT node AS doc_id, min(comp) AS keep_id FROM reach GROUP BY node
    ),
    ev AS (
        SELECT doc_id, max(j) AS max_jaccard,
               CAST(count(*) AS BIGINT) AS n_partners
        FROM (
            SELECT doc_id_a AS doc_id, jaccard AS j FROM pairs
            UNION ALL
            SELECT doc_id_b AS doc_id, jaccard AS j FROM pairs
        ) GROUP BY doc_id
    )
    SELECT k.doc_id, k.keep_id, ev.max_jaccard, ev.n_partners
    FROM keepl k JOIN ev USING (doc_id)
"""


def _kmeans_sql(k: int = 8, n_iters: int = 2, final: str | None = None) -> str:
    """Lloyd k-means re-derived in pure SQL, mirroring ops/clustering.py:
    init = vectors of the k smallest vec_ids; each iteration assigns by
    list_distance (ties → lowest cluster, same as numpy argmin) then
    averages per dim; empty clusters keep the previous centroid; the final
    SELECT (default: the assignment against the last centroids) can be
    overridden via ``final``, which sees the CTE ``a{n_iters}``
    (vec_id, v, cluster)."""

    def assign(cte: str, cents: str) -> str:
        return f"""{cte} AS (
        SELECT vec_id, v, cluster FROM (
            SELECT e.vec_id, e.v, c.cluster,
                   row_number() OVER (PARTITION BY e.vec_id
                                      ORDER BY list_distance(e.v, c.cent) ASC,
                                               c.cluster ASC) AS rn
            FROM e CROSS JOIN {cents} c) WHERE rn = 1
    )"""

    parts = [
        """e AS (
        SELECT vec_id, list_transform(embedding, x -> CAST(x AS DOUBLE)) AS v
        FROM embeddings
    )""",
        f"""c0 AS (
        SELECT row_number() OVER (ORDER BY vec_id) - 1 AS cluster, v AS cent
        FROM e QUALIFY row_number() OVER (ORDER BY vec_id) <= {k}
    )""",
    ]
    for i in range(n_iters):
        parts.append(assign(f"a{i}", f"c{i}"))
        parts.append(f"""u{i + 1} AS (
        SELECT cluster, dim, avg(val) AS m FROM (
            SELECT cluster, unnest(v) AS val, unnest(range(len(v))) AS dim
            FROM a{i})
        GROUP BY cluster, dim
    )""")
        parts.append(f"""c{i + 1} AS (
        SELECT c.cluster, COALESCE(n.cent, c.cent) AS cent
        FROM c{i} c LEFT JOIN (
            SELECT cluster, list(m ORDER BY dim) AS cent FROM u{i + 1}
            GROUP BY cluster) n ON c.cluster = n.cluster
    )""")
    parts.append(assign(f"a{n_iters}", f"c{n_iters}"))
    if final is None:
        final = f"SELECT vec_id, cluster FROM a{n_iters}"
    return "WITH " + ",\n    ".join(parts) + "\n    " + final


def _semdedup_sql(k: int = 8, n_iters: int = 2, threshold: float = 0.35) -> str:
    """SemDeDup keep rule on top of the k-means CTE chain: a vector is
    dropped iff a LOWER-id member of the same cluster has cosine ≥
    threshold (order-free predicate — no sequential greedy state)."""
    return _kmeans_sql(
        k,
        n_iters,
        final=f"""SELECT a.vec_id, a.cluster,
               NOT EXISTS (
                   SELECT 1 FROM a{n_iters} b
                   WHERE b.cluster = a.cluster AND b.vec_id < a.vec_id
                     AND list_cosine_similarity(b.v, a.v) >= {threshold}
               ) AS keep
        FROM a{n_iters} a""",
    )


def _pagerank_sql(
    n_iters: int = 3, mass: int = 10**12, d_num: int = 17, d_den: int = 20
) -> str:
    """Integer PageRank re-derived in SQL, mirroring ops/pagerank.py's
    floor-division spec step for step. sum(BIGINT) is HUGEINT in DuckDB —
    every sum is cast back before division so the arithmetic width matches
    the int64 Ray kernels."""
    teleport = f"(({mass} - ({d_num} * {mass}) // {d_den}) // c.n)"
    parts = [
        """pairs AS (
        SELECT DISTINCT l.l_suppkey AS s, o.o_custkey AS c
        FROM lineitem l JOIN orders o ON l.l_orderkey = o.o_orderkey
    )""",
        """edges AS (
        SELECT s AS src, c + 1000000 AS dst FROM pairs
        UNION ALL
        SELECT c + 1000000 AS src, s AS dst FROM pairs
    )""",
        """nodes AS (
        SELECT src AS node FROM edges UNION SELECT dst FROM edges
    )""",
        """deg AS (
        SELECT src AS node, CAST(count(*) AS BIGINT) AS outdeg
        FROM edges GROUP BY src
    )""",
        """const AS (SELECT CAST(count(*) AS BIGINT) AS n FROM nodes)""",
        f"""r0 AS (
        SELECT node, CAST({mass} // c.n AS BIGINT) AS r FROM nodes, const c
    )""",
    ]
    for i in range(n_iters):
        parts.append(f"""g{i} AS (
        SELECT r.node, r.r // d.outdeg AS give
        FROM r{i} r JOIN deg d ON r.node = d.node
    )""")
        parts.append(f"""d{i} AS (
        SELECT CAST(COALESCE(sum(r.r), 0) AS BIGINT) AS dm
        FROM r{i} r LEFT JOIN deg d ON r.node = d.node
        WHERE d.node IS NULL
    )""")
        parts.append(f"""s{i} AS (
        SELECT e.dst AS node, CAST(sum(g.give) AS BIGINT) AS s
        FROM edges e JOIN g{i} g ON g.node = e.src GROUP BY e.dst
    )""")
        parts.append(f"""r{i + 1} AS (
        SELECT n.node,
               CAST({teleport}
                    + ({d_num} * (COALESCE(s.s, 0) + d.dm // c.n)) // {d_den}
                    AS BIGINT) AS r
        FROM nodes n LEFT JOIN s{i} s ON n.node = s.node, d{i} d, const c
    )""")
    return (
        "WITH "
        + ",\n    ".join(parts)
        + f"\n    SELECT node, r AS rank FROM r{n_iters}"
    )


def _ppr_sql(
    n_iters: int = 3, mass: int = 10**12, d_num: int = 17, d_den: int = 20,
    seed_mod: int = 2, seed_rem: int = 0,
) -> str:
    """Personalized integer PageRank in SQL — teleport + dangling mass
    flow only to seed nodes (node % seed_mod == seed_rem, split over
    |S|); same floor-division spec as `_pagerank_sql` otherwise."""
    is_seed = f"(n.node % {seed_mod} = {seed_rem})"
    tele = f"(({mass} - ({d_num} * {mass}) // {d_den}) // c.ns)"
    parts = [
        """pairs AS (
        SELECT DISTINCT l.l_suppkey AS s, o.o_custkey AS c
        FROM lineitem l JOIN orders o ON l.l_orderkey = o.o_orderkey
    )""",
        """edges AS (
        SELECT s AS src, c + 1000000 AS dst FROM pairs
        UNION ALL
        SELECT c + 1000000 AS src, s AS dst FROM pairs
    )""",
        """nodes AS (
        SELECT src AS node FROM edges UNION SELECT dst FROM edges
    )""",
        """deg AS (
        SELECT src AS node, CAST(count(*) AS BIGINT) AS outdeg
        FROM edges GROUP BY src
    )""",
        f"""const AS (
        SELECT CAST(count(*) AS BIGINT) AS n,
               CAST(greatest(sum(CASE WHEN node % {seed_mod} = {seed_rem}
                                      THEN 1 ELSE 0 END), 1) AS BIGINT)
                   AS ns
        FROM nodes
    )""",
        f"""r0 AS (
        SELECT node, CAST({mass} // c.n AS BIGINT) AS r FROM nodes, const c
    )""",
    ]
    for i in range(n_iters):
        parts.append(f"""g{i} AS (
        SELECT r.node, r.r // d.outdeg AS give
        FROM r{i} r JOIN deg d ON r.node = d.node
    )""")
        parts.append(f"""d{i} AS (
        SELECT CAST(COALESCE(sum(r.r), 0) AS BIGINT) AS dm
        FROM r{i} r LEFT JOIN deg d ON r.node = d.node
        WHERE d.node IS NULL
    )""")
        parts.append(f"""s{i} AS (
        SELECT e.dst AS node, CAST(sum(g.give) AS BIGINT) AS s
        FROM edges e JOIN g{i} g ON g.node = e.src GROUP BY e.dst
    )""")
        parts.append(f"""r{i + 1} AS (
        SELECT n.node,
               CAST(CASE WHEN {is_seed} THEN {tele} ELSE 0 END
                    + ({d_num} * (COALESCE(s.s, 0)
                       + CASE WHEN {is_seed} THEN d.dm // c.ns
                              ELSE 0 END)) // {d_den}
                    AS BIGINT) AS r
        FROM nodes n LEFT JOIN s{i} s ON n.node = s.node, d{i} d, const c
    )""")
    return (
        "WITH "
        + ",\n    ".join(parts)
        + f"\n    SELECT node, r AS rank FROM r{n_iters}"
    )


def _splitmix_expr_sql(col_expr: str, seed: int) -> str:
    """Scalar splitmix64 over an ARBITRARY UBIGINT expression (the CTE
    form `_splitmix_sql` is hardwired to documents.doc_id) — same
    HUGEINT wrapping-multiply trick, nested instead of staged. Returns
    a UBIGINT expression."""
    T = "18446744073709551616"
    gamma = 0x9E3779B97F4A7C15
    m1, m2 = 0xBF58476D1CE4E5B9, 0x94D049BB133111EB
    add = (seed * gamma + gamma) % (1 << 64)

    def mul_mod(expr: str, const: int) -> str:
        ch, cl = const >> 32, const & 0xFFFFFFFF
        e = f"CAST({expr} AS HUGEINT)"
        return (
            f"CAST((({e} * {cl}) + ((({e} * {ch}) % 4294967296)"
            f" * 4294967296)) % {T} AS UBIGINT)"
        )

    z0 = f"CAST((CAST({col_expr} AS HUGEINT) + {add}) % {T} AS UBIGINT)"
    z1 = mul_mod(f"xor({z0}, ({z0}) >> 30)", m1)
    z2 = mul_mod(f"xor({z1}, ({z1}) >> 27)", m2)
    return f"xor({z2}, ({z2}) >> 31)"


def oracle_sql() -> dict[str, str]:
    out = {
        name: f"SELECT * FROM read_parquet('{_GOLDEN_DIR}/{name}.parquet')"
        for name in _GOLDEN_QUERIES
    }
    out.update(_sql_oracles())
    return out


def _pii_scrub_sql() -> str:
    """Chained regexp_replace oracle sharing ops/text.py's rule table, so
    the regexes can never drift between the Ray kernel and the oracle.
    Counts are taken on the text state each rule sees (after the previous
    rule's replacement), exactly like pii_scrub."""
    from ontocast_ray.ops.text import _PII_RULES

    inject = (
        "SELECT doc_id, "
        "CASE WHEN doc_id % 3 <> 0 THEN 'reach user' || CAST(doc_id AS VARCHAR)"
        " || '@example.com ' ELSE '' END || "
        "CASE WHEN doc_id % 2 = 0 THEN 'from 10.' || CAST(doc_id % 256 AS VARCHAR)"
        " || '.0.' || CAST((doc_id * 7) % 256 AS VARCHAR) || ' ' ELSE '' END || "
        "'call +1555' || lpad(CAST(doc_id % 10000 AS VARCHAR), 4, '0') || ' ' || "
        "COALESCE(text, '') AS t0 FROM documents"
    )
    ctes = ["injected AS (" + inject + ")"]
    count_cols: list[str] = []
    prev = "injected"
    for i, (name, pat, repl) in enumerate(_PII_RULES):
        lit = pat.replace("'", "''")
        ctes.append(
            f"s{i} AS (SELECT doc_id, "
            + ", ".join(count_cols)
            + (", " if count_cols else "")
            + f"CAST(len(regexp_extract_all(t{i}, '{lit}')) AS BIGINT) AS n_{name}, "
            + f"regexp_replace(t{i}, '{lit}', '{repl}', 'g') AS t{i + 1} "
            + f"FROM {prev})"
        )
        count_cols.append(f"n_{name}")
        prev = f"s{i}"
    n = len(_PII_RULES)
    return (
        "WITH "
        + ", ".join(ctes)
        + f" SELECT doc_id, {', '.join(count_cols)}, t{n} AS clean_text FROM {prev}"
    )


def _sql_oracles() -> dict[str, str]:
    return {
        "pii_scrub": _pii_scrub_sql(),
        # concat-and-split packing: the whole op is an ordered prefix sum
        # (ops/packing.py) — in SQL that is one window function; bins and
        # offsets follow by integer division. Tokenization mirrors
        # token_stats (strip + split on \s+; empty/null → 0 tokens).
        "pack_sequences": r"""
            WITH toks AS (
                SELECT doc_id,
                       CASE WHEN trim(COALESCE(text, '')) = '' THEN 0
                            ELSE len(regexp_split_to_array(trim(text), '\s+'))
                       END AS n_tokens
                FROM documents
            ), cum AS (
                SELECT doc_id, n_tokens,
                       COALESCE(SUM(n_tokens) OVER (
                           ORDER BY doc_id
                           ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING
                       ), 0) AS goff
                FROM toks
            )
            SELECT doc_id,
                   doc_id // 100 AS shard,
                   CAST(n_tokens AS BIGINT) AS n_tokens,
                   CAST(goff AS BIGINT) AS global_offset,
                   CAST(goff // 64 AS BIGINT) AS first_bin,
                   CAST((goff + CASE WHEN n_tokens > 0 THEN n_tokens - 1 ELSE 0 END)
                        // 64 AS BIGINT) AS last_bin,
                   CAST(goff % 64 AS BIGINT) AS offset_in_bin
            FROM cum
        """,
        "bm25_top20": _bm25_sql(),
        # DDSketch re-derived exactly: same log-spaced buckets
        # (ceil(ln(v)/ln(gamma)), gamma=(1+0.01)/(1-0.01)), same
        # rank-exceeds-cumulative walk (rank forced to DOUBLE to match the
        # kernel's float math), same 2*gamma^b/(gamma+1) bucket→value map
        # (DuckDB ln/power are libm, as is the kernel — bit-exact)
        "events_sketch_quantiles": r"""
            WITH b AS (
                SELECT event_type,
                       CASE WHEN value > 0
                            THEN CAST(ceil(ln(value) / ln((1.0 + 0.01) / (1.0 - 0.01))) AS BIGINT)
                            ELSE (-9223372036854775807 - 1) END AS bucket
                FROM events
            ), c AS (
                SELECT event_type, bucket, count(*) AS n
                FROM b GROUP BY event_type, bucket
            ), cum AS (
                SELECT event_type, bucket,
                       SUM(n) OVER (PARTITION BY event_type ORDER BY bucket) AS cum,
                       SUM(n) OVER (PARTITION BY event_type) AS total
                FROM c
            ), picked AS (
                SELECT event_type,
                       min(bucket) FILTER (WHERE cum > 0.5 * CAST(total - 1 AS DOUBLE)) AS b50,
                       min(bucket) FILTER (WHERE cum > 0.95 * CAST(total - 1 AS DOUBLE)) AS b95,
                       min(bucket) FILTER (WHERE cum > 0.99 * CAST(total - 1 AS DOUBLE)) AS b99
                FROM cum GROUP BY event_type
            )
            SELECT event_type,
                   CASE WHEN b50 = (-9223372036854775807 - 1) THEN 0.0
                        ELSE 2.0 * power((1.0 + 0.01) / (1.0 - 0.01), b50)
                             / ((1.0 + 0.01) / (1.0 - 0.01) + 1.0) END AS q_5,
                   CASE WHEN b95 = (-9223372036854775807 - 1) THEN 0.0
                        ELSE 2.0 * power((1.0 + 0.01) / (1.0 - 0.01), b95)
                             / ((1.0 + 0.01) / (1.0 - 0.01) + 1.0) END AS q_95,
                   CASE WHEN b99 = (-9223372036854775807 - 1) THEN 0.0
                        ELSE 2.0 * power((1.0 + 0.01) / (1.0 - 0.01), b99)
                             / ((1.0 + 0.01) / (1.0 - 0.01) + 1.0) END AS q_99
            FROM picked
        """,
        # per-source cap re-derived: rank every doc by the identical
        # splitmix64 mix (seed=3) as a raw UBIGINT (NOT the float
        # projection — low bits matter for the order), keep rank <= 10
        "docs_source_cap": f"""
            WITH {_splitmix_sql(3)},
            zfin AS (
                SELECT doc_id, xor(z, z >> 31) AS zk FROM s2
            ), ranked AS (
                SELECT d.source, d.doc_id,
                       row_number() OVER (
                           PARTITION BY d.source
                           ORDER BY zf.zk, d.doc_id
                       ) AS rn
                FROM documents d JOIN zfin zf USING (doc_id)
            )
            SELECT source, doc_id FROM ranked WHERE rn <= 10
        """,
        # decontamination re-derived with STRING shingles (the kernel uses
        # 64-bit rolling hashes — identical counts barring collisions, the
        # same equivalence the exact-Jaccard oracle relies on): eval = first
        # 20 words of doc_id%50==0 docs, overlap = distinct shared
        # word-3-shingles per training doc
        "decontam_overlap": r"""
            WITH ws AS (
                SELECT doc_id, regexp_split_to_array(lower(trim(text)), '\s+') AS w
                FROM documents
            ), ev AS (
                SELECT w[1:20] AS w FROM ws WHERE doc_id % 50 = 0
            ), evsh AS (
                SELECT DISTINCT s FROM (
                    SELECT unnest(
                        CASE WHEN len(w) >= 3
                             THEN list_transform(range(1, len(w) - 1),
                                                 i -> w[i] || ' ' || w[i+1] || ' ' || w[i+2])
                             ELSE [array_to_string(w, ' ')] END) AS s
                    FROM ev)
            ), tr AS (
                SELECT doc_id, unnest(list_distinct(
                        CASE WHEN len(w) >= 3
                             THEN list_transform(range(1, len(w) - 1),
                                                 i -> w[i] || ' ' || w[i+1] || ' ' || w[i+2])
                             ELSE [array_to_string(w, ' ')] END)) AS s
                FROM ws
            )
            SELECT tr.doc_id, count(*) AS n_overlap
            FROM tr JOIN evsh USING (s)
            GROUP BY tr.doc_id
        """,
        "lineitem_orders_join": """
            SELECT l.l_orderkey, l.l_linenumber, l.l_quantity,
                   o.o_custkey, o.o_totalprice
            FROM lineitem l JOIN orders o ON l.l_orderkey = o.o_orderkey
        """,
        "supplier_customer_pairs": """
            SELECT DISTINCT l.l_suppkey, o.o_custkey
            FROM lineitem l JOIN orders o ON l.l_orderkey = o.o_orderkey
        """,
        "customers_with_orders": """
            SELECT c_custkey, c_nationkey, c_mktsegment
            FROM customer c
            WHERE EXISTS (SELECT 1 FROM orders o WHERE o.o_custkey = c.c_custkey)
        """,
        "customers_without_orders": """
            SELECT c_custkey, c_nationkey, c_mktsegment
            FROM customer c
            WHERE NOT EXISTS (
                SELECT 1 FROM orders o
                WHERE o.o_custkey = c.c_custkey
                  AND o.o_orderpriority = '1-URGENT'
            )
        """,
        # stratified sample re-derived: u = splitmix64(seed=13, doc_id)/2^64
        # (bit-identical on both sides), smallest-5 per source
        "stratified_sample_5per_source": f"""
            WITH {_splitmix_sql(13)}
            SELECT source, doc_id, rank FROM (
                SELECT d.source, d.doc_id,
                       row_number() OVER (PARTITION BY d.source
                                          ORDER BY m.u ASC, d.doc_id ASC) AS rank
                FROM documents d JOIN mixed m USING (doc_id)
            ) WHERE rank <= 5
        """,
        # split assignment re-derived: u = splitmix64(seed=9, doc_id)/2^64
        # as DOUBLE on both sides (same float64 division), same thresholds
        "supplier_k_core": _k_core_sql(_K_CORE_K),
        # gazetteer NER: exact bigram-string join against the alias CTE,
        # same deterministic mention injection as the Ray synth
        "gazetteer_mentions": r"""
            WITH aliases AS (
                SELECT n_nationkey AS entity_id,
                       'nation ' || chr(97 + CAST(n_nationkey AS INT))
                           AS alias
                FROM nation
            ), corpus AS (
                SELECT doc_id,
                       coalesce(text, '') || ' nation '
                       || chr(97 + CAST(doc_id % 25 AS INT))
                       || CASE WHEN doc_id % 3 = 0
                               THEN ' nation '
                                    || chr(97 + CAST((doc_id * 7) % 25
                                                     AS INT))
                               ELSE '' END AS text
                FROM documents
            ), bigrams AS (
                SELECT doc_id,
                       unnest(list_transform(range(1, len(ws)),
                              i -> ws[i] || ' ' || ws[i+1])) AS bg
                FROM (SELECT doc_id,
                             regexp_extract_all(lower(text), '[a-z]+') AS ws
                      FROM corpus)
                WHERE len(ws) >= 2
            ), matches AS (
                SELECT a.entity_id, a.alias, b.doc_id
                FROM bigrams b JOIN aliases a ON b.bg = a.alias
            )
            SELECT entity_id, alias,
                   CAST(count(*) AS BIGINT) AS n_mentions,
                   CAST(count(DISTINCT doc_id) AS BIGINT) AS n_docs
            FROM matches GROUP BY entity_id, alias
        """,
        # SQ8 quantization: per-dim ranges + bucket-center reconstruction,
        # positional UNNEST; code_sum is an integer-valued double sum
        # (exact < 2^53), L1 error is fixed-point (order-free int sum)
        "embedding_sq8": r"""
            WITH vals AS (
                SELECT vec_id,
                       CAST(unnest(embedding) AS DOUBLE) AS v,
                       unnest(range(len(embedding))) AS dim
                FROM embeddings
            ), rng AS (
                SELECT dim, min(v) AS lo, max(v) AS hi
                FROM vals GROUP BY dim
            ), coded AS (
                SELECT vec_id,
                       CASE WHEN r.hi > r.lo
                            THEN LEAST(GREATEST(floor(
                                 (t.v - r.lo) / (r.hi - r.lo) * 256
                                 ), 0), 255)
                            ELSE 0 END AS code,
                       t.v, r.lo, r.hi
                FROM vals t JOIN rng r USING (dim)
            ), errs AS (
                SELECT vec_id, code,
                       abs(v - (CASE WHEN hi > lo
                                     THEN lo + (code + 0.5)
                                          * ((hi - lo) / 256)
                                     ELSE lo END)) AS err
                FROM coded
            )
            SELECT vec_id,
                   CAST(sum(code) AS BIGINT) AS code_sum,
                   max(err) AS max_abs_err,
                   CAST(sum(CAST(floor(err * 1048576) AS BIGINT))
                        AS BIGINT) AS err_l1_fp
            FROM errs GROUP BY vec_id
        """,
        # churn gaps: lag() diff in exact integer microseconds
        "user_max_gap": r"""
            WITH gaps AS (
                SELECT user_id, event_id,
                       CAST(coalesce(epoch_us(ts - lag(ts) OVER (
                           PARTITION BY user_id ORDER BY ts, event_id
                       )), 0) AS BIGINT) AS gap
                FROM events
            )
            SELECT user_id,
                   CAST(count(*) AS BIGINT) AS n_events,
                   CAST(max(gap) AS BIGINT) AS max_gap_us,
                   max(gap) > 43200000000 AS churn_risk
            FROM gaps GROUP BY user_id
        """,
        # length histogram: length(bin(n)) == the bit length of n —
        # the exact integer floor(log2)+1 (log2() is not bit-stable
        # across engines)
        "doc_length_histogram": r"""
            SELECT length(bin(n_chars)) AS bucket,
                   CAST(count(*) AS BIGINT) AS n_docs,
                   CAST(sum(n_chars) AS BIGINT) AS total_chars
            FROM documents GROUP BY 1
        """,
        # split-leakage audit: pure-SQL splitmix split, exact-text
        # self-join across splits, pair counts = n_a·n_b per text
        "train_test_leakage": f"""
            WITH corpus AS (
                SELECT doc_id, text FROM documents
                UNION ALL
                SELECT doc_id + 100000, text FROM documents
                WHERE doc_id % 10 = 0
            ), {_splitmix_sql(9, src="corpus")},
            assigned AS (
                SELECT d.doc_id, d.text,
                       CASE WHEN m.u < 0.9 THEN 'train'
                            WHEN m.u < 0.95 THEN 'val'
                            ELSE 'test' END AS split
                FROM corpus d JOIN mixed m USING (doc_id)
            ), counts AS (
                SELECT text, split, count(*) AS n
                FROM assigned GROUP BY text, split
            )
            SELECT a.split AS split_a, b.split AS split_b,
                   CAST(sum(a.n * b.n) AS BIGINT) AS n_pairs
            FROM counts a JOIN counts b
              ON a.text = b.text AND a.split < b.split
            GROUP BY 1, 2
        """,
        # next-event training pairs: 3 lag() windows, literal '<s>' pad
        "next_event_context": r"""
            SELECT event_id, user_id,
                   COALESCE(lag(event_type, 1) OVER w, '<s>') AS prev1,
                   COALESCE(lag(event_type, 2) OVER w, '<s>') AS prev2,
                   COALESCE(lag(event_type, 3) OVER w, '<s>') AS prev3,
                   event_type AS label
            FROM events
            WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
        """,
        # coverage curve: ROW_NUMBER over term counts, same tie order
        "vocab_coverage": r"""
            WITH toks AS (
                SELECT unnest(regexp_extract_all(lower(text), '[a-z]+'))
                    AS w
                FROM documents
            ), counts AS (
                SELECT w, count(*) AS n FROM toks GROUP BY w
            ), ranked AS (
                SELECT n, row_number() OVER (ORDER BY n DESC, w) AS rn
                FROM counts
            ), tot AS (
                SELECT sum(n) AS total FROM counts
            )
            SELECT k,
                   CAST(sum(CASE WHEN rn <= k THEN n ELSE 0 END)
                        AS BIGINT) AS covered_tokens,
                   CAST(tot.total AS BIGINT) AS total_tokens,
                   CAST(sum(CASE WHEN rn <= k THEN n ELSE 0 END)
                        AS DOUBLE) / tot.total AS coverage
            FROM ranked, tot,
                 (VALUES (100), (1000), (10000)) ks(k)
            GROUP BY k, tot.total
        """,
        # co-mention edges: exact bigram matches self-joined on doc_id,
        # DISTINCT per-doc entity sets, unordered pairs
        "entity_comention_edges": r"""
            WITH aliases AS (
                SELECT n_nationkey AS entity_id,
                       'nation ' || chr(97 + CAST(n_nationkey AS INT))
                           AS alias
                FROM nation
            ), corpus AS (
                SELECT doc_id,
                       coalesce(text, '') || ' nation '
                       || chr(97 + CAST(doc_id % 25 AS INT))
                       || ' nation '
                       || chr(97 + CAST((doc_id * 3 + 1) % 25 AS INT))
                           AS text
                FROM documents
            ), bigrams AS (
                SELECT doc_id,
                       unnest(list_transform(range(1, len(ws)),
                              i -> ws[i] || ' ' || ws[i+1])) AS bg
                FROM (SELECT doc_id,
                             regexp_extract_all(lower(text), '[a-z]+') AS ws
                      FROM corpus)
                WHERE len(ws) >= 2
            ), ments AS (
                SELECT DISTINCT b.doc_id, a.entity_id
                FROM bigrams b JOIN aliases a ON b.bg = a.alias
            )
            SELECT x.entity_id AS entity_a, y.entity_id AS entity_b,
                   CAST(count(*) AS BIGINT) AS n_docs
            FROM ments x JOIN ments y
              ON x.doc_id = y.doc_id AND x.entity_id < y.entity_id
            GROUP BY 1, 2
        """,
        # corpus-level source Jaccard: exact shingle strings, the
        # _JACCARD_PAIRS_SQL tokenization (lower/trim/\s+; <3 words →
        # whole-text shingle), DISTINCT per source
        "source_similarity": r"""
            WITH ws AS (
                SELECT source,
                       regexp_split_to_array(lower(trim(text)), '\s+') AS w
                FROM documents
            ), sh AS (
                SELECT source,
                       list_distinct(
                         CASE WHEN len(w) >= 3
                              THEN list_transform(range(1, len(w) - 1),
                                   i -> w[i] || ' ' || w[i+1] || ' '
                                        || w[i+2])
                              ELSE [array_to_string(w, ' ')] END
                       ) AS shingles
                FROM ws
            ), ex AS (
                SELECT DISTINCT source, unnest(shingles) AS s FROM sh
            ), sizes AS (
                SELECT source, count(*) AS n FROM ex GROUP BY source
            ), inter AS (
                SELECT a.source AS source_a, b.source AS source_b,
                       count(*) AS i
                FROM ex a JOIN ex b
                  ON a.s = b.s AND a.source < b.source
                GROUP BY 1, 2
            )
            SELECT i.source_a, i.source_b,
                   CAST(i.i AS BIGINT) AS n_common,
                   CAST(i.i AS DOUBLE) / (sa.n + sb.n - i.i) AS jaccard
            FROM inter i
            JOIN sizes sa ON sa.source = i.source_a
            JOIN sizes sb ON sb.source = i.source_b
        """,
        "sample_exact_100": f"""
            WITH {_splitmix_sql(31)}
            SELECT doc_id, zr AS draw FROM mixed
            ORDER BY zr, doc_id LIMIT 100
        """,
        # epoch shuffle: ROW_NUMBER over the raw UBIGINT mix (zr), ties by
        # doc_id — mirrors the kernel's (mix, id) mergesort exactly
        "epoch_shuffle_pos": f"""
            WITH {_splitmix_sql(22)},
            ranked AS (
                SELECT doc_id,
                       row_number() OVER (ORDER BY zr, doc_id) - 1 AS pos
                FROM mixed
            )
            SELECT doc_id,
                   CAST(pos AS BIGINT) AS pos,
                   CAST(pos // 256 AS BIGINT) AS train_shard,
                   CAST(pos % 256 AS BIGINT) AS pos_in_shard
            FROM ranked
        """,
        "split_assign": f"""
            WITH {_splitmix_sql(9)}
            SELECT doc_id,
                   CASE WHEN u < 0.9 THEN 'train'
                        WHEN u < 0.95 THEN 'val'
                        ELSE 'test' END AS split
            FROM mixed
        """,
        # line-level boilerplate removal re-derived with string lines (the
        # kernel uses 64-bit line hashes — identical barring collisions):
        # same injected header/footer, same ≥2 occurrence threshold, same
        # in-order re-join
        "boilerplate_scrub": r"""
            WITH corpus AS (
                SELECT doc_id,
                       'disclaimer: synthetic corpus' || chr(10) || text ||
                       CASE WHEN doc_id % 3 = 0
                            THEN chr(10) || 'subscribe to our newsletter'
                            ELSE '' END AS text
                FROM documents
            ), exploded AS (
                SELECT doc_id, ls, unnest(range(1, len(ls) + 1)) AS ord
                FROM (SELECT doc_id, string_split(text, chr(10)) AS ls FROM corpus)
            ), lines AS (
                SELECT doc_id, ord, ls[ord] AS line FROM exploded
            ), freq AS (
                SELECT line FROM lines GROUP BY line HAVING count(*) >= 2
            ), kept AS (
                SELECT doc_id, ord, line FROM lines
                WHERE line NOT IN (SELECT line FROM freq)
            ), agg AS (
                SELECT doc_id,
                       coalesce(string_agg(line, chr(10) ORDER BY ord), '') AS text,
                       count(*) AS n_kept
                FROM kept GROUP BY doc_id
            ), totals AS (
                SELECT doc_id, count(*) AS n_total FROM lines GROUP BY doc_id
            )
            SELECT t.doc_id,
                   coalesce(a.text, '') AS text,
                   CAST(t.n_total - coalesce(a.n_kept, 0) AS BIGINT) AS n_removed
            FROM totals t LEFT JOIN agg a USING (doc_id)
        """,
        # keep-FIRST paragraph dedup: ROW_NUMBER over the exploded
        # paragraph strings — rn=1 (the globally first (doc_id, idx)
        # occurrence) survives, later occurrences are dropped; whitespace-
        # only paragraphs never participate (trim charset mirrors the
        # kernel's str.strip(" \t\r\f\v"))
        "paragraph_dedup": f"""
            WITH {_PARA_CORPUS_SQL}, {_para_dedup_ctes("corpus")}
            SELECT doc_id, text, n_removed FROM scrubbed
        """,
        # chained curation oracle: the full pipeline (lang filter → alpha
        # quality gate → exact dedup → packing) re-derived stage-for-stage
        # in one SQL statement — lang scores mirror lang_id, alpha_ratio
        # mirrors quality_stats, tokenization mirrors token_stats, the
        # prefix sum mirrors pack_sequences. Duplicates are injected the
        # same way as the Ray side (doc_id%10==0 re-appears at +100000).
        "curated_packing": r"""
            WITH corpus AS (
                SELECT doc_id, text FROM documents
                UNION ALL
                SELECT doc_id + 100000 AS doc_id, text
                FROM documents WHERE doc_id % 10 = 0
            ), scored AS (
                SELECT doc_id, text,
                       len(list_filter(regexp_extract_all(lower(text), '[a-zà-ÿäöüß]+'),
                           w -> w IN ('the','and','of','to','a','in','is','that','it','for','on','with','as')))
                           / greatest(len(regexp_extract_all(lower(text), '[a-zà-ÿäöüß]+')), 1)::DOUBLE AS s_en,
                       len(list_filter(regexp_extract_all(lower(text), '[a-zà-ÿäöüß]+'),
                           w -> w IN ('der','die','das','und','ist','von','mit','ein','eine','zu','den','für')))
                           / greatest(len(regexp_extract_all(lower(text), '[a-zà-ÿäöüß]+')), 1)::DOUBLE AS s_de,
                       len(list_filter(regexp_extract_all(lower(text), '[a-zà-ÿäöüß]+'),
                           w -> w IN ('le','la','les','et','de','un','une','est','pour','dans','que','des')))
                           / greatest(len(regexp_extract_all(lower(text), '[a-zà-ÿäöüß]+')), 1)::DOUBLE AS s_fr,
                       len(list_filter(regexp_extract_all(lower(text), '[a-zà-ÿäöüß]+'),
                           w -> w IN ('el','la','los','las','y','de','un','una','es','por','que','con')))
                           / greatest(len(regexp_extract_all(lower(text), '[a-zà-ÿäöüß]+')), 1)::DOUBLE AS s_es,
                       len(regexp_extract_all(text, '[A-Za-z]'))::DOUBLE
                           / greatest(length(text), 1) AS alpha_ratio
                FROM corpus
            ), kept AS (
                SELECT doc_id, text,
                       CASE WHEN trim(text) = '' THEN 0
                            ELSE len(regexp_split_to_array(trim(text), '\s+'))
                       END AS tok
                FROM scored
                WHERE s_en > 0.02 AND s_en >= greatest(s_de, s_fr, s_es)
                  AND alpha_ratio >= 0.82
            ), winners AS (
                SELECT min(doc_id) AS doc_id, min(tok) AS n_tokens
                FROM kept GROUP BY text
            ), cum AS (
                SELECT doc_id, n_tokens,
                       COALESCE(SUM(n_tokens) OVER (
                           ORDER BY doc_id
                           ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING
                       ), 0) AS goff
                FROM winners
            )
            SELECT doc_id,
                   doc_id // 100 AS shard,
                   CAST(n_tokens AS BIGINT) AS n_tokens,
                   CAST(goff AS BIGINT) AS global_offset,
                   CAST(goff // 64 AS BIGINT) AS first_bin,
                   CAST((goff + CASE WHEN n_tokens > 0 THEN n_tokens - 1 ELSE 0 END)
                        // 64 AS BIGINT) AS last_bin,
                   CAST(goff % 64 AS BIGINT) AS offset_in_bin
            FROM cum
        """,
        # independent re-derivations of the dedup end-game (see the CTE
        # docstrings above): exact shingle Jaccard, recursive closure, and
        # the filtered corpus as an anti-join against the closure
        "minhash_dedup_pairs": _JACCARD_PAIRS_SQL,
        "neardup_keep_list": _NEARDUP_KEEP_SQL,
        "neardup_keep_best": _KEEP_BEST_SQL,
        "dedup_audit_report": _AUDIT_SQL,
        "web_curated_packing": _web_pipeline_sql(),
        "corpus_interleave": _INTERLEAVE_SQL,
        # Gopher repetition rules: dup-line fraction via per-doc DISTINCT,
        # top-2-gram fraction via UNNEST-ed bigram counts; tokenization
        # mirrors ops/text.py:repetition_stats (lower/strip/\s+ and
        # whitespace-trimmed non-empty lines)
        "repetition_stats": r"""
            WITH lines AS (
                SELECT doc_id, trim(l, ' ' || chr(9) || chr(13) || chr(11) || chr(12)) AS line
                FROM (SELECT doc_id, unnest(string_split(text, chr(10))) AS l
                      FROM documents)
            ), nlines AS (
                SELECT doc_id, count(*) AS n_lines, count(DISTINCT line) AS n_distinct
                FROM lines WHERE line != '' GROUP BY doc_id
            ), words AS (
                SELECT doc_id, regexp_split_to_array(lower(trim(text)), '\s+') AS w
                FROM documents
            ), bigrams AS (
                SELECT doc_id,
                       unnest(list_transform(range(1, len(w)),
                                             i -> w[i] || ' ' || w[i+1])) AS bg
                FROM words WHERE len(w) >= 2
            ), bgc AS (
                SELECT doc_id, bg, count(*) AS c FROM bigrams GROUP BY doc_id, bg
            ), bgs AS (
                SELECT doc_id, max(c) AS top_c, sum(c) AS n_bigrams
                FROM bgc GROUP BY doc_id
            )
            SELECT d.doc_id,
                   COALESCE(ls.n_lines, 0) AS n_lines,
                   CASE WHEN ls.n_lines > 0
                        THEN 1.0 - CAST(ls.n_distinct AS DOUBLE) / ls.n_lines
                        ELSE 0.0 END AS dup_line_frac,
                   CAST(COALESCE(bgs.n_bigrams, 0) AS BIGINT) AS n_bigrams,
                   CASE WHEN bgs.n_bigrams > 0
                        THEN CAST(bgs.top_c AS DOUBLE) / bgs.n_bigrams
                        ELSE 0.0 END AS top_2gram_frac
            FROM documents d
            LEFT JOIN nlines ls USING (doc_id)
            LEFT JOIN bgs USING (doc_id)
        """,
        # full Gopher rule set: repetition CTEs identical to the
        # repetition_stats oracle; word stats use the house split idiom;
        # ratios are raw int/int double divisions (bit-exact vs numpy)
        "gopher_filtered_docs": f"""
            WITH {_gopher_ctes("documents")}
            SELECT *, {_GOPHER_KEPT_PRED} AS kept FROM g_sig
        """,
        # the Dolma chain: paragraph dedup → Gopher gate → packing, all
        # re-derived in one WITH chain from the shared CTE builders
        "dolma_curated_packing": rf"""
            WITH {_PARA_CORPUS_SQL}, {_para_dedup_ctes("corpus")},
            {_gopher_ctes("scrubbed")},
            gkept AS (
                SELECT s.doc_id, s.text
                FROM scrubbed s JOIN g_sig USING (doc_id)
                WHERE {_GOPHER_KEPT_PRED}
            ), toks AS (
                SELECT doc_id,
                       CASE WHEN trim(COALESCE(text, '')) = '' THEN 0
                            ELSE len(regexp_split_to_array(trim(text),
                                                           '\s+'))
                       END AS n_tokens
                FROM gkept
            ), cum AS (
                SELECT doc_id, n_tokens,
                       COALESCE(SUM(n_tokens) OVER (
                           ORDER BY doc_id
                           ROWS BETWEEN UNBOUNDED PRECEDING
                                    AND 1 PRECEDING), 0) AS goff
                FROM toks
            )
            SELECT doc_id,
                   doc_id // 100 AS shard,
                   CAST(n_tokens AS BIGINT) AS n_tokens,
                   CAST(goff AS BIGINT) AS global_offset,
                   CAST(goff // 64 AS BIGINT) AS first_bin,
                   CAST((goff + CASE WHEN n_tokens > 0
                                     THEN n_tokens - 1 ELSE 0 END)
                        // 64 AS BIGINT) AS last_bin,
                   CAST(goff % 64 AS BIGINT) AS offset_in_bin
            FROM cum
        """,
        "neardup_filtered_docs": f"""
            WITH RECURSIVE keep_list AS ({_NEARDUP_KEEP_SQL})
            SELECT d.doc_id, d.source, length(d.text) AS text_len
            FROM documents d
            LEFT JOIN keep_list k ON d.doc_id = k.doc_id
            WHERE k.keep IS NULL OR k.keep
        """,
        "neardup_scrubbed_packing": rf"""
            WITH RECURSIVE keep_list AS ({_NEARDUP_KEEP_SQL}),
            kept AS (
                SELECT d.doc_id, d.text FROM documents d
                LEFT JOIN keep_list k ON d.doc_id = k.doc_id
                WHERE k.keep IS NULL OR k.keep
            ), ws AS (
                SELECT doc_id, regexp_split_to_array(lower(trim(text)), '\s+') AS w
                FROM kept WHERE trim(coalesce(text, '')) <> ''
            ), g AS (
                SELECT doc_id, w, len(w) AS n,
                       CASE WHEN len(w) >= 3 THEN len(w) - 2 ELSE 1 END AS ng
                FROM ws
            ), grams AS (
                SELECT doc_id, i AS q,
                       CASE WHEN n >= 3
                            THEN w[i] || ' ' || w[i+1] || ' ' || w[i+2]
                            ELSE array_to_string(w, ' ') END AS gram
                FROM g, UNNEST(range(1, ng + 1)) AS t(i)
            ), shared AS (
                SELECT gram FROM grams GROUP BY gram
                HAVING COUNT(DISTINCT doc_id) >= 2
            ), bad AS (
                SELECT DISTINCT gr.doc_id, gr.q
                FROM grams gr JOIN shared USING (gram)
            ), words AS (
                SELECT doc_id, n, i AS p
                FROM g, UNNEST(range(1, n + 1)) AS t(i)
            ), flags AS (
                SELECT wd.doc_id, wd.p,
                       EXISTS (SELECT 1 FROM bad b
                               WHERE b.doc_id = wd.doc_id AND b.q <= wd.p
                                 AND wd.p < b.q +
                                     CASE WHEN wd.n < 3 THEN wd.n ELSE 3 END)
                           AS masked
                FROM words wd
            ), scnt AS (
                SELECT doc_id,
                       CAST(count(*) FILTER (WHERE NOT masked) AS BIGINT)
                           AS n_tokens
                FROM flags GROUP BY doc_id
            ), toks AS (
                SELECT k2.doc_id, COALESCE(s.n_tokens, 0) AS n_tokens
                FROM kept k2 LEFT JOIN scnt s USING (doc_id)
            ), cum AS (
                SELECT doc_id, n_tokens,
                       COALESCE(SUM(n_tokens) OVER (
                           ORDER BY doc_id
                           ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING
                       ), 0) AS goff
                FROM toks
            )
            SELECT doc_id,
                   doc_id // 100 AS shard,
                   CAST(n_tokens AS BIGINT) AS n_tokens,
                   CAST(goff AS BIGINT) AS global_offset,
                   CAST(goff // 64 AS BIGINT) AS first_bin,
                   CAST((goff + CASE WHEN n_tokens > 0
                                     THEN n_tokens - 1 ELSE 0 END)
                        // 64 AS BIGINT) AS last_bin,
                   CAST(goff % 64 AS BIGINT) AS offset_in_bin
            FROM cum
        """,
        "exact_dedup": """
            SELECT min(doc_id) AS doc_id, count(*) AS n_copies
            FROM documents GROUP BY text
        """,
        "token_stats": r"""
            SELECT doc_id,
                   CASE WHEN trim(text) = '' THEN 0
                        ELSE len(regexp_split_to_array(trim(text), '\s+')) END AS n_tokens_ws,
                   len(regexp_extract_all(text, '[A-Za-z]+|\d+|[^\sA-Za-z\d]')) AS n_tokens_bpeish
            FROM documents
        """,
        "quality_stats": r"""
            SELECT doc_id,
                   length(text) AS n_chars,
                   len(regexp_extract_all(lower(text), '[a-z]+')) AS n_words,
                   length(regexp_replace(text, '[^A-Za-z]', '', 'g'))
                       / greatest(length(text), 1)::DOUBLE AS alpha_ratio,
                   len(regexp_extract_all(text, '[^\w\s]'))
                       / greatest(length(text), 1)::DOUBLE AS punct_ratio,
                   len(regexp_extract_all(text, '\d'))
                       / greatest(length(text), 1)::DOUBLE AS digit_ratio,
                   len(list_filter(regexp_extract_all(lower(text), '[a-z]+'),
                             w -> w IN ('the','and','of','to','a','in','is','that','it','for','on','with','as')))
                       / greatest(len(regexp_extract_all(lower(text), '[a-z]+')), 1)::DOUBLE
                       AS stopword_ratio
            FROM documents
        """,
        "lang_dist": """
            SELECT lang, count(*) AS n_docs,
                   sum(n_chars)::BIGINT AS total_chars  -- duckdb sum(BIGINT)=HUGEINT
            FROM documents GROUP BY lang
        """,
        "events_by_type": """
            SELECT event_type, count(*) AS n_events,
                   min(value) AS min_value, max(value) AS max_value
            FROM events GROUP BY event_type
        """,
        "docs_by_source": """
            SELECT source, count(*) AS n_docs,
                   min(n_chars) AS min_chars, max(n_chars) AS max_chars
            FROM documents GROUP BY source
        """,
        "top_docs_by_len": """
            SELECT doc_id, n_chars FROM documents
            ORDER BY n_chars DESC, doc_id ASC LIMIT 20
        """,
        "events_by_user": """
            SELECT user_id, count(*) AS n_events,
                   min(ts) AS first_ts, max(ts) AS last_ts
            FROM events GROUP BY user_id
        """,
        "events_with_lag": """
            SELECT user_id, event_id, ts, value,
                   lag(ts) OVER w AS prev_ts,
                   lag(value) OVER w AS prev_value
            FROM events
            WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
        """,
        "lineitem_supplier_skew_join": """
            SELECT l.l_suppkey, l.l_orderkey, l.l_linenumber, s.s_nationkey
            FROM lineitem l JOIN supplier s ON l.l_suppkey = s.s_suppkey
        """,
        "users_per_event_type": """
            SELECT event_type, CAST(count(DISTINCT user_id) AS BIGINT) AS n_distinct
            FROM events GROUP BY event_type
        """,
        "orders_customer_bucket_join": """
            SELECT o.o_custkey, o.o_orderkey, c.c_nationkey
            FROM orders o JOIN customer c ON o.o_custkey = c.c_custkey
        """,
        "user_event_sequences": """
            SELECT user_id,
                   CAST(count(*) AS BIGINT) AS n_events,
                   string_agg(event_type, ',' ORDER BY ts, event_id) AS sequence
            FROM events GROUP BY user_id
        """,
        "events_json_field": """
            SELECT event_id, props,
                   CAST(json_extract_string(props, '$.k') AS BIGINT) AS k
            FROM events
        """,
        "contrastive_negatives": _NEG_SQL,
        "lang_rebalanced_docs": f"""
            WITH {_splitmix_sql(21)}
            SELECT d.doc_id, d.lang
            FROM documents d JOIN mixed m USING (doc_id)
            WHERE m.u < CASE d.lang WHEN 'en' THEN 0.2
                                    WHEN 'zh' THEN 0.5
                                    ELSE 1.0 END
        """,
        "hourly_distinct_users": """
            SELECT date_trunc('hour', ts) AS window_start,
                   CAST(count(DISTINCT user_id) AS BIGINT) AS n_distinct
            FROM events GROUP BY date_trunc('hour', ts)
        """,
        "funnel_view_click_purchase": """
            SELECT user_id, CAST(count(*) AS BIGINT) AS n_events
            FROM events
            GROUP BY user_id
            HAVING string_agg(event_type, ',' ORDER BY ts, event_id)
                   LIKE '%view%click%purchase%'
        """,
        "top_terms_per_source": """
            SELECT source, term, n_count, rank FROM (
                SELECT source, w AS term, CAST(count(*) AS BIGINT) AS n_count,
                       row_number() OVER (PARTITION BY source
                                          ORDER BY count(*) DESC, w ASC) AS rank
                FROM documents,
                     UNNEST(regexp_extract_all(lower(text), '[a-z]+')) AS t(w)
                GROUP BY source, w
            ) WHERE rank <= 5
        """,
        "purchase_click_window_counts": """
            SELECT p.user_id, p.ts, p.event_id,
                   CAST(count(c.event_id) AS BIGINT) AS n_prior_clicks
            FROM (SELECT * FROM events WHERE event_type = 'purchase') p
            LEFT JOIN (SELECT * FROM events WHERE event_type = 'click') c
              ON c.user_id = p.user_id
             AND c.ts BETWEEN p.ts - INTERVAL 30 MINUTE AND p.ts
            GROUP BY p.user_id, p.ts, p.event_id
        """,
        "events_mad_outliers": """
            WITH m AS (
                SELECT event_id, user_id, value,
                       median(value) OVER (PARTITION BY user_id) AS med
                FROM events
            ), m2 AS (
                SELECT *, median(abs(value - med))
                              OVER (PARTITION BY user_id) AS mad
                FROM m
            )
            SELECT event_id, user_id, value, med, mad,
                   abs(value - med) > 3.0 * mad AS is_outlier
            FROM m2
        """,
        # rollup NULL markers → 'ALL' sentinel (no genuine NULLs in data)
        "docs_rollup_counts": """
            SELECT coalesce(source, 'ALL') AS source,
                   coalesce(lang, 'ALL') AS lang,
                   CAST(count(*) AS BIGINT) AS n
            FROM documents GROUP BY ROLLUP (source, lang)
        """,
        "events_window_first_last": """
            WITH ranked AS (
                SELECT user_id, date_trunc('hour', ts) AS window_start, value,
                       row_number() OVER w AS rn_a,
                       row_number() OVER (PARTITION BY user_id, date_trunc('hour', ts)
                                          ORDER BY ts DESC, event_id DESC) AS rn_d,
                       count(*) OVER (PARTITION BY user_id, date_trunc('hour', ts))
                           AS n_events
                FROM events
                WINDOW w AS (PARTITION BY user_id, date_trunc('hour', ts)
                             ORDER BY ts ASC, event_id ASC)
            )
            SELECT user_id, window_start,
                   max(CASE WHEN rn_a = 1 THEN value END) AS first_value,
                   max(CASE WHEN rn_d = 1 THEN value END) AS last_value,
                   CAST(max(n_events) AS BIGINT) AS n_events
            FROM ranked GROUP BY user_id, window_start
        """,
        # triangle count by id-order triple self-join == the degree-order
        # wedge count (each triangle counted exactly once either way)
        "supplier_triangles": """
            WITH pairs AS (
                SELECT a.l_suppkey AS u, b.l_suppkey AS v
                FROM lineitem a JOIN lineitem b
                  ON a.l_orderkey = b.l_orderkey AND a.l_suppkey < b.l_suppkey
                GROUP BY 1, 2
                HAVING count(*) >= 30
            )
            SELECT count(*) AS n_triangles
            FROM pairs e1
            JOIN pairs e2 ON e2.u = e1.u AND e2.v > e1.v
            JOIN pairs e3 ON e3.u = e1.v AND e3.v = e2.v
        """,
        "events_minmax_scaled": """
            SELECT event_id, user_id, value,
                   CASE WHEN max(value) OVER w = min(value) OVER w THEN 0.0
                        ELSE (value - min(value) OVER w)
                             / (max(value) OVER w - min(value) OVER w) END
                       AS scaled
            FROM events
            WINDOW w AS (PARTITION BY user_id)
        """,
        "docs_lang_pivot": """
            SELECT source,
                   CAST(count(*) FILTER (WHERE lang = 'de') AS BIGINT) AS de,
                   CAST(count(*) FILTER (WHERE lang = 'en') AS BIGINT) AS en,
                   CAST(count(*) FILTER (WHERE lang = 'es') AS BIGINT) AS es,
                   CAST(count(*) FILTER (WHERE lang = 'fr') AS BIGINT) AS fr,
                   CAST(count(*) FILTER (WHERE lang = 'zh') AS BIGINT) AS zh
            FROM documents
            GROUP BY source
        """,
        # same 3-word shingle rule as the Jaccard oracle; n_docs counts
        # (gram, doc) pairs after per-doc list_distinct = docs per gram
        "dup_span_stats": r"""
            WITH ws AS (
                SELECT doc_id, regexp_split_to_array(lower(trim(text)), '\s+') AS w
                FROM documents
            ), sh AS (
                SELECT doc_id, unnest(list_distinct(
                    CASE WHEN len(w) >= 3
                         THEN list_transform(range(1, len(w) - 1),
                                             i -> w[i] || ' ' || w[i+1] || ' ' || w[i+2])
                         ELSE [array_to_string(w, ' ')] END)) AS s
                FROM ws
            ), cnt AS (
                SELECT s, count(*) AS n_docs FROM sh GROUP BY s
            )
            SELECT doc_id,
                   count(*) AS n_shingles,
                   CAST(sum(CASE WHEN n_docs >= 2 THEN 1 ELSE 0 END) AS BIGINT)
                       AS n_shared,
                   CAST(sum(CASE WHEN n_docs >= 2 THEN 1 ELSE 0 END) AS DOUBLE)
                       / CAST(count(*) AS DOUBLE) AS shared_frac
            FROM sh JOIN cnt USING (s)
            GROUP BY doc_id
        """,
        "quality_classifier": _quality_clf_sql(),
        # CDC chunk dedup: boundary rule replayed with the raw-FNV fold,
        # chunk ids via an exclusive window sum of boundary flags, chunks
        # compared as exact strings (kernel uses 64-bit hashes)
        "cdc_dup_stats": f"""
            WITH toks AS (
                SELECT doc_id,
                       unnest(ws) AS w,
                       unnest(range(len(ws))) AS ord
                FROM (SELECT doc_id,
                             regexp_extract_all(lower(text), '[a-z]+') AS ws
                      FROM documents)
            ), flags AS (
                SELECT doc_id, w, ord,
                       CASE WHEN ({_fnv_raw_sql("w")}) % 64 < 8
                            THEN 1 ELSE 0 END AS bnd
                FROM toks
            ), chunks AS (
                SELECT doc_id, w, ord,
                       COALESCE(SUM(bnd) OVER (
                           PARTITION BY doc_id ORDER BY ord
                           ROWS BETWEEN UNBOUNDED PRECEDING
                                    AND 1 PRECEDING), 0) AS cid
                FROM flags
            ), chunk_strs AS (
                SELECT doc_id, cid,
                       string_agg(w, ' ' ORDER BY ord) AS chunk
                FROM chunks GROUP BY doc_id, cid
            ), counted AS (
                SELECT doc_id,
                       count(*) OVER (PARTITION BY chunk) AS cnt
                FROM chunk_strs
            )
            SELECT doc_id,
                   CAST(count(*) AS BIGINT) AS n_chunks,
                   CAST(sum(CASE WHEN cnt >= 2 THEN 1 ELSE 0 END)
                        AS BIGINT) AS n_dup_chunks,
                   CAST(sum(CASE WHEN cnt >= 2 THEN 1 ELSE 0 END)
                        AS DOUBLE) / count(*) AS dup_chunk_frac
            FROM counted GROUP BY doc_id
        """,
        # interleaved span-kind transitions: lead() over the exploded
        # spans, same deterministic image-slot rule ((ord-1)%7==3)
        "span_kind_transitions": r"""
            WITH ws AS (
                SELECT doc_id,
                       CASE WHEN trim(coalesce(text, '')) = '' THEN 1
                            ELSE CAST(ceil(len(regexp_split_to_array(
                                     trim(text), '\s+')) / 8.0) AS BIGINT)
                       END AS n_spans
                FROM documents
            ), ords AS (
                SELECT doc_id, unnest(range(n_spans)) AS ord0 FROM ws
            ), kinds AS (
                SELECT doc_id, ord0,
                       CASE WHEN ord0 % 7 = 3 THEN 'image'
                            ELSE 'text' END AS kind
                FROM ords
            ), pairs AS (
                SELECT doc_id, kind AS kind_a,
                       lead(kind) OVER (
                           PARTITION BY doc_id ORDER BY ord0) AS kind_b
                FROM kinds
            )
            SELECT kind_a, kind_b, CAST(count(*) AS BIGINT) AS n
            FROM pairs WHERE kind_b IS NOT NULL
            GROUP BY kind_a, kind_b
        """,
        # blocklist-builder report: domains re-derived from the synth rule
        # (the Ray side must parse the mixed-case URL back to exactly
        # this), classifier CTEs reused, count(DISTINCT text) vs the
        # kernel's 64-bit text-hash distinct (collision-free assumption
        # shared with exact_dedup)
        "domain_quality_report": f"""
            WITH {_quality_clf_ctes()},
            pages AS (
                SELECT doc_id, text,
                       'site' || (doc_id % 5) || '.example.com' AS domain
                FROM documents
            ), scored AS (
                SELECT p.domain, p.text,
                       COALESCE(a.raw_score, 0) AS raw_score,
                       COALESCE(a.n_tokens, 0) AS n_tokens
                FROM pages p LEFT JOIN clf_agg a USING (doc_id)
            ), agg AS (
                SELECT domain,
                       count(*) AS n_pages,
                       count(DISTINCT text) AS n_distinct_texts,
                       sum(raw_score) AS sum_raw_score,
                       sum(n_tokens) AS sum_tokens
                FROM scored GROUP BY domain
            )
            SELECT domain,
                   CAST(n_pages AS BIGINT) AS n_pages,
                   CAST(n_distinct_texts AS BIGINT) AS n_distinct_texts,
                   CAST(sum_raw_score AS BIGINT) AS sum_raw_score,
                   CAST(sum_tokens AS BIGINT) AS sum_tokens,
                   CASE WHEN sum_tokens > 0
                        THEN CAST(sum_raw_score AS DOUBLE)
                             / CAST(sum_tokens AS DOUBLE)
                        ELSE 0.0 END AS quality,
                   1.0 - CAST(n_distinct_texts AS DOUBLE) / n_pages
                       AS dup_rate
            FROM agg
        """,
        # CCNet terciles: classifier CTEs re-used verbatim, per-lang
        # quantile_disc boundaries (index rule = max(0, ceil(p·n)-1),
        # probed identical to the kernel's searchsorted walk)
        "lang_quality_buckets": f"""
            WITH {_quality_clf_ctes()},
            scored AS (
                SELECT d.doc_id, d.lang,
                       CAST(COALESCE(a.raw_score, 0) AS BIGINT) AS raw_score
                FROM documents d LEFT JOIN clf_agg a USING (doc_id)
            ), bounds AS (
                SELECT lang,
                       quantile_disc(raw_score, 1.0/3) AS b1,
                       quantile_disc(raw_score, 2.0/3) AS b2
                FROM scored GROUP BY lang
            )
            SELECT s.doc_id, s.lang, s.raw_score,
                   CASE WHEN s.raw_score <= b.b1 THEN 'tail'
                        WHEN s.raw_score <= b.b2 THEN 'middle'
                        ELSE 'head' END AS bucket
            FROM scored s JOIN bounds b USING (lang)
        """,
        "classifier_curated_packing": _classifier_packing_sql(),
        "knn_self_join_top5": """
            WITH scored AS (
                SELECT a.vec_id AS query_id, b.vec_id AS neighbor,
                       list_cosine_similarity(a.embedding, b.embedding) AS cosine
                FROM embeddings a JOIN embeddings b ON a.vec_id <> b.vec_id
            )
            SELECT query_id, neighbor, rank FROM (
                SELECT query_id, neighbor,
                       row_number() OVER (PARTITION BY query_id
                                          ORDER BY cosine DESC, neighbor ASC)
                           AS rank
                FROM scored
            ) WHERE rank <= 5
        """,
        "dup_span_scrub": r"""
            WITH ws AS (
                SELECT doc_id, regexp_split_to_array(lower(trim(text)), '\s+') AS w
                FROM documents WHERE trim(coalesce(text, '')) <> ''
            ), g AS (
                SELECT doc_id, w, len(w) AS n,
                       CASE WHEN len(w) >= 3 THEN len(w) - 2 ELSE 1 END AS ng
                FROM ws
            ), grams AS (
                SELECT doc_id, i AS q,
                       CASE WHEN n >= 3
                            THEN w[i] || ' ' || w[i+1] || ' ' || w[i+2]
                            ELSE array_to_string(w, ' ') END AS gram
                FROM g, UNNEST(range(1, ng + 1)) AS t(i)
            ), shared AS (
                SELECT gram FROM grams GROUP BY gram
                HAVING COUNT(DISTINCT doc_id) >= 2
            ), bad AS (
                SELECT DISTINCT gr.doc_id, gr.q
                FROM grams gr JOIN shared USING (gram)
            ), words AS (
                SELECT doc_id, n, i AS p, w[i] AS word
                FROM g, UNNEST(range(1, n + 1)) AS t(i)
            ), flags AS (
                SELECT wd.doc_id, wd.p, wd.word,
                       EXISTS (SELECT 1 FROM bad b
                               WHERE b.doc_id = wd.doc_id AND b.q <= wd.p
                                 AND wd.p < b.q +
                                     CASE WHEN wd.n < 3 THEN wd.n ELSE 3 END)
                           AS masked
                FROM words wd
            ), agg AS (
                SELECT doc_id,
                       COALESCE(string_agg(word, ' ' ORDER BY p)
                                FILTER (WHERE NOT masked), '') AS text,
                       CAST(count(*) FILTER (WHERE masked) AS BIGINT)
                           AS n_removed
                FROM flags GROUP BY doc_id
            )
            SELECT d.doc_id,
                   COALESCE(a.text, '') AS text,
                   CAST(COALESCE(a.n_removed, 0) AS BIGINT) AS n_removed
            FROM documents d LEFT JOIN agg a USING (doc_id)
        """,
        "normalize_text": """
            SELECT doc_id, text,
                   trim(regexp_replace(lower(nfc_normalize(text)),
                                       '[ \t\n\r\f\v]+', ' ', 'g')) AS norm_text
            FROM documents
        """,
        "heavy_hitter_terms": """
            SELECT w AS term, count(*) AS n_count
            FROM documents, UNNEST(regexp_extract_all(lower(text), '[a-z]+')) AS t(w)
            GROUP BY w
            HAVING count(*) >= 100
            ORDER BY n_count DESC, term ASC
        """,
        "doc_row_numbers": """
            SELECT doc_id,
                   row_number() OVER (ORDER BY doc_id) AS rn,
                   ntile(7) OVER (ORDER BY doc_id) AS tile,
                   percent_rank() OVER (ORDER BY doc_id) AS pct_rank
            FROM documents
        """,
        "events_rolling_max": """
            SELECT user_id, event_id, ts, value,
                   max(value) OVER (PARTITION BY user_id ORDER BY ts, event_id
                                    ROWS BETWEEN 2 PRECEDING AND CURRENT ROW)
                       AS rolling_max
            FROM events
        """,
        "customers_by_region": """
            SELECT r_name, count(*) AS n_customers,
                   min(c_acctbal) AS min_acctbal, max(c_acctbal) AS max_acctbal
            FROM customer
            JOIN nation ON c_nationkey = n_nationkey
            JOIN region ON n_regionkey = r_regionkey
            GROUP BY r_name
        """,
        "events_windowed": """
            SELECT user_id, date_trunc('hour', ts) AS window_start,
                   count(*) AS n_events,
                   min(value) AS min_value, max(value) AS max_value
            FROM events GROUP BY user_id, date_trunc('hour', ts)
        """,
        "events_sessions": """
            WITH flagged AS (
                SELECT user_id, event_id, ts,
                       CASE WHEN lag(ts) OVER w IS NULL
                                 OR ts - lag(ts) OVER w > INTERVAL 30 MINUTE
                            THEN 1 ELSE 0 END AS new_session
                FROM events
                WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
            ), numbered AS (
                SELECT user_id, event_id, ts,
                       sum(new_session) OVER (PARTITION BY user_id
                                              ORDER BY ts, event_id) AS session_id
                FROM flagged
            )
            SELECT user_id, session_id::BIGINT AS session_id,
                   count(*) AS n_events,
                   min(ts) AS session_start, max(ts) AS session_end
            FROM numbered GROUP BY user_id, session_id
        """,
        # CC over (source, lang) star edges == min-doc_id label per group
        "doc_group_components": """
            WITH g AS (
                SELECT doc_id,
                       min(doc_id) OVER (PARTITION BY source, lang) AS component,
                       count(*) OVER (PARTITION BY source, lang) AS n_members
                FROM documents
            )
            SELECT doc_id, component FROM g WHERE n_members > 1
        """,
        "events_hopping": """
            WITH assigned AS (
                SELECT user_id, value, ts,
                       time_bucket(INTERVAL '30 minutes', ts) AS window_start
                FROM events
                UNION ALL
                SELECT user_id, value, ts,
                       time_bucket(INTERVAL '30 minutes', ts) - INTERVAL '30 minutes'
                FROM events
            )
            SELECT user_id, window_start, count(*) AS n_events,
                   min(value) AS min_value, max(value) AS max_value
            FROM assigned
            WHERE ts >= window_start AND ts < window_start + INTERVAL '60 minutes'
            GROUP BY user_id, window_start
        """,
        # watermark drop: late iff arrival > window close + lateness; arrival
        # synthesized as ts + (event_id*K)%1200 seconds on both sides
        "events_watermark_window": """
            WITH w AS (
                SELECT user_id, value,
                       date_trunc('hour', ts) AS window_start,
                       ts + INTERVAL ((event_id * 2654435761) % 1200) SECOND AS arrival_ts
                FROM events
            )
            SELECT user_id, window_start, count(*) AS n_events,
                   min(value) AS min_value, max(value) AS max_value
            FROM w
            WHERE arrival_ts <= window_start + INTERVAL '70 minutes'
            GROUP BY user_id, window_start
        """,
        # exact discrete quantiles: quantile_disc picks sorted[ceil(p*n)-1]
        "events_quantiles": """
            SELECT event_type,
                   quantile_disc(value, 0.5) AS q50,
                   quantile_disc(value, 0.95) AS q95,
                   quantile_disc(value, 0.99) AS q99
            FROM events GROUP BY event_type
        """,
        # range join against a literal interval table (lo <= v < hi, inner)
        "events_value_bands": """
            WITH bands(lo, hi, band) AS (VALUES
                (0.0, 10.0, 'tiny'), (10.0, 50.0, 'small'), (50.0, 150.0, 'large'))
            SELECT band, count(*) AS n_events,
                   min(value) AS min_value, max(value) AS max_value
            FROM events JOIN bands ON value >= lo AND value < hi
            GROUP BY band
        """,
        # DuckDB native ASOF LEFT JOIN; right side deduped to one row per
        # (user, ts) with max(value) so tie behavior matches the Ray kernel
        "events_asof_click": """
            WITH p AS (
                SELECT event_id, user_id, ts, value FROM events
                WHERE event_type = 'purchase'
            ), c AS (
                SELECT user_id, ts AS click_ts, max(value) AS click_value
                FROM events WHERE event_type = 'click' GROUP BY user_id, ts
            )
            SELECT p.event_id, p.user_id, p.ts, p.value,
                   c.click_ts, c.click_value
            FROM p ASOF LEFT JOIN c
            ON p.user_id = c.user_id AND p.ts >= c.click_ts
        """,
        # map-side combiner then one vocab-sized groupby; tie-break (count desc,
        # term asc) makes the top-50 cutoff deterministic on both sides
        "term_counts_top50": """
            SELECT w AS term, count(*) AS n_count
            FROM documents, UNNEST(regexp_extract_all(lower(text), '[a-z]+')) AS t(w)
            GROUP BY w
            ORDER BY n_count DESC, term ASC
            LIMIT 50
        """,
        # same modular hash both sides: (doc_id * 2654435761) % 2^32 < 10% of 2^32
        "doc_sample_10pct": """
            SELECT doc_id, n_chars FROM documents
            WHERE (doc_id * 2654435761) % 4294967296 < 429496729
        """,
        "top_docs_per_source": """
            SELECT source, doc_id, n_chars, rank FROM (
                SELECT source, doc_id, n_chars,
                       row_number() OVER (PARTITION BY source
                                          ORDER BY n_chars DESC, doc_id ASC) AS rank
                FROM documents
            ) WHERE rank <= 3
        """,
        # mirrors ops/text.py LangId exactly: words = [a-zà-ÿäöüß]+ of
        # lower(text); per-language stopword ratio; strict-> argmax with
        # en,de,fr,es priority on ties; 'unknown' unless best > 0.02;
        # raw int/int double division (no rounding) matches Python IEEE
        "lang_id": r"""
            WITH scored AS (
                SELECT doc_id,
                       len(list_filter(regexp_extract_all(lower(text), '[a-zà-ÿäöüß]+'),
                           w -> w IN ('the','and','of','to','a','in','is','that','it','for','on','with','as')))
                           / greatest(len(regexp_extract_all(lower(text), '[a-zà-ÿäöüß]+')), 1)::DOUBLE AS s_en,
                       len(list_filter(regexp_extract_all(lower(text), '[a-zà-ÿäöüß]+'),
                           w -> w IN ('der','die','das','und','ist','von','mit','ein','eine','zu','den','für')))
                           / greatest(len(regexp_extract_all(lower(text), '[a-zà-ÿäöüß]+')), 1)::DOUBLE AS s_de,
                       len(list_filter(regexp_extract_all(lower(text), '[a-zà-ÿäöüß]+'),
                           w -> w IN ('le','la','les','et','de','un','une','est','pour','dans','que','des')))
                           / greatest(len(regexp_extract_all(lower(text), '[a-zà-ÿäöüß]+')), 1)::DOUBLE AS s_fr,
                       len(list_filter(regexp_extract_all(lower(text), '[a-zà-ÿäöüß]+'),
                           w -> w IN ('el','la','los','las','y','de','un','una','es','por','que','con')))
                           / greatest(len(regexp_extract_all(lower(text), '[a-zà-ÿäöüß]+')), 1)::DOUBLE AS s_es
                FROM documents
            )
            SELECT doc_id,
                   CASE WHEN greatest(s_en, s_de, s_fr, s_es) <= 0.02 THEN 'unknown'
                        WHEN s_en >= greatest(s_de, s_fr, s_es) THEN 'en'
                        WHEN s_de >= greatest(s_fr, s_es) THEN 'de'
                        WHEN s_fr >= s_es THEN 'fr'
                        ELSE 'es' END AS lang_pred,
                   greatest(s_en, s_de, s_fr, s_es) AS lang_score
            FROM scored
        """,
        "knn_cosine_top10": """
            WITH q AS (
                SELECT vec_id AS query_id, embedding FROM embeddings WHERE vec_id < 2
            ), scored AS (
                SELECT q.query_id, e.vec_id,
                       list_cosine_similarity(q.embedding, e.embedding) AS cosine
                FROM q CROSS JOIN embeddings e
            )
            SELECT query_id, vec_id,
                   rank FROM (
                SELECT query_id, vec_id, cosine,
                       row_number() OVER (PARTITION BY query_id
                                          ORDER BY cosine DESC, vec_id ASC) AS rank
                FROM scored
            ) WHERE rank <= 10
        """,
        "kmeans_clusters": _kmeans_sql(k=8, n_iters=2),
        "semdedup_keep": _semdedup_sql(k=8, n_iters=2, threshold=0.35),
        "pagerank_suppliers": _pagerank_sql(n_iters=3),
        "term_cooccurrence_top100": """
            WITH w AS (
                SELECT doc_id, regexp_extract_all(lower(text), '[a-z]+') AS words
                FROM documents
            ),
            tok AS (
                SELECT doc_id, unnest(words) AS term,
                       unnest(range(len(words))) AS pos
                FROM w
            ),
            pairs AS (
                SELECT least(t1.term, t2.term) AS term_a,
                       greatest(t1.term, t2.term) AS term_b
                FROM tok t1 JOIN tok t2
                  ON t1.doc_id = t2.doc_id
                 AND t2.pos > t1.pos AND t2.pos <= t1.pos + 5
            )
            SELECT term_a, term_b, CAST(count(*) AS BIGINT) AS n_count
            FROM pairs GROUP BY term_a, term_b
            HAVING count(*) >= 3
            ORDER BY n_count DESC, term_a, term_b LIMIT 100
        """,
        "dsir_selected_docs": _dsir_sql(),
        "incremental_dedup_new_docs": """
            WITH new_docs AS (
                SELECT doc_id, text FROM documents WHERE doc_id % 2 = 1
                UNION ALL
                SELECT doc_id + 1000000 AS doc_id, text
                FROM documents WHERE doc_id % 10 = 0
            ), index_docs AS (
                SELECT text FROM documents WHERE doc_id % 2 = 0
            ), firsts AS (
                SELECT text, min(doc_id) AS doc_id,
                       CAST(count(*) AS BIGINT) AS n_new_copies
                FROM new_docs GROUP BY text
            )
            SELECT doc_id, n_new_copies FROM firsts f
            WHERE NOT EXISTS (
                SELECT 1 FROM index_docs i WHERE i.text = f.text
            )
        """,
        "bigram_coverage": r"""
            WITH ws AS (
                SELECT doc_id,
                       regexp_split_to_array(lower(trim(text)), '\s+') AS w
                FROM documents
            ), flat AS (
                SELECT doc_id,
                       unnest(list_transform(range(1, len(w)),
                                             i -> w[i] || ' ' || w[i+1])) AS b
                FROM ws WHERE len(w) >= 2
            ), cnt AS (
                SELECT b, count(*) AS n FROM flat GROUP BY b
            ), per AS (
                SELECT f.doc_id, CAST(count(*) AS BIGINT) AS n_bigrams,
                       CAST(sum(CASE WHEN c.n >= 3 THEN 1 ELSE 0 END)
                            AS BIGINT) AS n_covered
                FROM flat f JOIN cnt c USING (b)
                GROUP BY f.doc_id
            )
            SELECT d.doc_id,
                   COALESCE(p.n_bigrams, 0) AS n_bigrams,
                   COALESCE(p.n_covered, 0) AS n_covered,
                   CASE WHEN COALESCE(p.n_bigrams, 0) > 0
                        THEN CAST(p.n_covered AS DOUBLE)
                             / CAST(p.n_bigrams AS DOUBLE)
                        ELSE 0.0 END AS coverage
            FROM documents d LEFT JOIN per p USING (doc_id)
        """,
        "lpa_communities": _lpa_sql(n_iters=3),
        "jl_projection_8d": f"""
            WITH q AS (
                SELECT vec_id,
                       list_transform(embedding,
                           x -> CAST(floor(CAST(x AS DOUBLE) * 256.0)
                                     AS BIGINT)) AS qv
                FROM embeddings
            ), cells AS (
                SELECT vec_id, j,
                       qv[i + 1] *
                       (2 * CAST(({_splitmix_expr_sql(
                           'CAST(i * 256 + j AS UBIGINT)', 19)}) >> 63
                            AS BIGINT) - 1) AS term
                FROM q,
                     unnest(range(len(qv))) AS ti(i),
                     unnest(range(8)) AS tj(j)
            )
            SELECT vec_id, CAST(j AS BIGINT) AS j,
                   CAST(sum(term) AS BIGINT) AS qproj
            FROM cells GROUP BY vec_id, j
        """,
        "contrastive_triplets": f"""
            WITH pairs AS ({_JACCARD_PAIRS_SQL}),
            nn AS (SELECT CAST(count(*) AS BIGINT) AS n FROM documents),
            keyed AS (
                SELECT doc_id_a AS anchor, doc_id_b AS positive,
                       CAST(doc_id_a * 4294967296 + doc_id_b AS UBIGINT)
                           AS ek
                FROM pairs
            ), drawn AS (
                SELECT anchor, positive,
                       CAST({_splitmix_expr_sql('ek', 23)} %
                            CAST(nn.n AS UBIGINT) AS BIGINT) AS neg0,
                       nn.n
                FROM keyed, nn
            ), step1 AS (
                SELECT anchor, positive, n,
                       CASE WHEN neg0 = anchor OR neg0 = positive
                            THEN (neg0 + 1) % n ELSE neg0 END AS neg1
                FROM drawn
            )
            SELECT anchor, positive,
                   CASE WHEN neg1 = anchor OR neg1 = positive
                        THEN (neg1 + 1) % n ELSE neg1 END AS negative
            FROM step1
        """,
        "sampled_neighbors_3": f"""
            WITH pairs AS (
                SELECT DISTINCT l.l_suppkey AS s, o.o_custkey AS c
                FROM lineitem l JOIN orders o ON l.l_orderkey = o.o_orderkey
            ), edges AS (
                SELECT s AS src, c + 1000000 AS dst FROM pairs
                UNION ALL
                SELECT c + 1000000 AS src, s AS dst FROM pairs
            ), keyed AS (
                SELECT src, dst,
                       CAST(src * 4294967296 + dst AS UBIGINT) AS ek
                FROM edges
            ), mixed AS (
                SELECT src, dst, ek,
                       {_splitmix_expr_sql('ek', 13)} AS u
                FROM keyed
            ), r AS (
                SELECT src, dst,
                       row_number() OVER (PARTITION BY src
                                          ORDER BY u, ek) AS rk
                FROM mixed
            )
            SELECT src, dst FROM r WHERE rk <= 3
        """,
        "ppr_even_seeds": _ppr_sql(n_iters=3, seed_mod=2, seed_rem=0),
        "countmin_heavy_estimates": _cms_sql(depth=4, width=1024,
                                             threshold=100),
        "token_windows": r"""
            WITH ws AS (
                SELECT doc_id,
                       CASE WHEN trim(text) = '' THEN []::VARCHAR[]
                            ELSE regexp_split_to_array(trim(text), '\s+')
                       END AS w
                FROM documents
            ), wins AS (
                SELECT doc_id, w,
                       unnest(range(0, len(w), 16)) AS s
                FROM ws
            )
            SELECT doc_id,
                   CAST(s / 16 AS BIGINT) AS win_idx,
                   CAST(s AS BIGINT) AS start_tok,
                   CAST(least(32, len(w) - s) AS BIGINT) AS n_tokens,
                   array_to_string(list_slice(w, s + 1, s + 32), ' ')
                       AS window_text
            FROM wins
        """,
        "html_extracted_text": r"""
            WITH raw AS (
                SELECT doc_id,
                       '<HTML><head><script>var x=1;</script></head><body>'
                       || '<NAV id="n">menu</NAV><p class="a">' || text
                       || ' &nbsp;&amp; more</p><br/>'
                       || '<footer>(c) site</footer></body></html>' AS html
                FROM documents
            )
            SELECT doc_id,
                   trim(regexp_replace(
                       replace(replace(replace(replace(replace(replace(
                           regexp_replace(
                               regexp_replace(html,
                                   '<(script|style|nav|header|footer|aside)\b[^>]*>.*?</(?:script|style|nav|header|footer|aside)>',
                                   ' ', 'gis'),
                               '<[^>]*>', ' ', 'gs'),
                           '&nbsp;', ' '), '&lt;', '<'), '&gt;', '>'),
                           '&quot;', '"'), '&#39;', ''''), '&amp;', '&'),
                       '[ \t\n\r\f\v]+', ' ', 'g'), ' ') AS text
            FROM raw
        """,
        "blocked_domain_survivors": r"""
            WITH raw AS (
                SELECT doc_id,
                       'http://' ||
                       (CASE WHEN doc_id % 4 <> 3
                             THEN 'WWW.Site' || (doc_id % 5)
                                  || '.Example.COM'
                             ELSE 'a.b.Example.ORG' END)
                       || '/p/' || doc_id AS url
                FROM documents
            ), hosts AS (
                SELECT doc_id, url,
                       lower(regexp_extract(url,
                           '^[A-Za-z][A-Za-z0-9+.-]*://([^/:?#]+)', 1))
                           AS h0
                FROM raw
            ), norm AS (
                SELECT doc_id, url,
                       CASE WHEN h0 LIKE 'www.%' THEN substr(h0, 5)
                            ELSE h0 END AS host
                FROM hosts
            ), lab AS (
                SELECT *, string_split(host, '.') AS ls,
                       len(string_split(host, '.')) AS nl
                FROM norm
            )
            SELECT doc_id, url FROM lab
            WHERE NOT (
                host IN ('site1.example.com', 'example.org')
                OR (nl > 2 AND array_to_string(
                        list_slice(ls, nl - 1, nl), '.')
                    IN ('site1.example.com', 'example.org'))
                OR (nl > 3 AND array_to_string(
                        list_slice(ls, nl - 2, nl), '.')
                    IN ('site1.example.com', 'example.org'))
                OR (nl > 4 AND array_to_string(
                        list_slice(ls, nl - 3, nl), '.')
                    IN ('site1.example.com', 'example.org'))
            )
        """,
        "diversity_stats": r"""
            WITH ws AS (
                SELECT doc_id,
                       CASE WHEN trim(text) = '' THEN []::VARCHAR[]
                            ELSE regexp_split_to_array(lower(trim(text)),
                                                       '\s+')
                       END AS w
                FROM documents
            ), tri AS (
                SELECT doc_id, w, len(w) AS n,
                       CASE WHEN len(w) >= 3
                            THEN list_transform(range(1, len(w) - 1),
                                 i -> w[i] || ' ' || w[i+1] || ' ' || w[i+2])
                            ELSE []::VARCHAR[] END AS t
                FROM ws
            )
            SELECT doc_id,
                   CAST(n AS BIGINT) AS n_tokens,
                   CAST(len(list_distinct(w)) AS BIGINT) AS n_distinct,
                   CASE WHEN n > 0
                        THEN CAST(len(list_distinct(w)) AS DOUBLE) / n
                        ELSE 0.0 END AS ttr,
                   CAST(len(t) AS BIGINT) AS n_trigrams,
                   CAST(len(list_distinct(t)) AS BIGINT)
                       AS n_distinct_trigrams,
                   CASE WHEN len(t) > 0
                        THEN CAST(len(list_distinct(t)) AS DOUBLE) / len(t)
                        ELSE 0.0 END AS distinct_trigram_frac
            FROM tri
        """,
        "corpus_diff": r"""
            WITH old AS (
                SELECT doc_id, n_chars FROM documents WHERE doc_id % 3 <> 0
            ), new AS (
                SELECT doc_id FROM documents WHERE doc_id % 2 <> 0
            ), lab AS (
                SELECT CASE WHEN o.doc_id IS NOT NULL
                                 AND n.doc_id IS NOT NULL THEN 'both'
                            WHEN o.doc_id IS NOT NULL THEN 'removed'
                            ELSE 'added' END AS status,
                       COALESCE(o.n_chars, 0) AS chars
                FROM old o FULL OUTER JOIN new n ON o.doc_id = n.doc_id
            )
            SELECT status, CAST(count(*) AS BIGINT) AS n_docs,
                   CAST(sum(chars) AS BIGINT) AS old_chars_total
            FROM lab GROUP BY status
        """,
        "temperature_mixed_docs": f"""
            WITH {_splitmix_sql(33)},
            cnt AS (
                SELECT lang, CAST(count(*) AS BIGINT) AS c
                FROM documents GROUP BY lang
            ), r AS (
                SELECT lang,
                       least(1.0, 10.0 / sqrt(CAST(c AS DOUBLE))) AS rate
                FROM cnt
            )
            SELECT d.doc_id, d.lang
            FROM documents d
            JOIN mixed m USING (doc_id) JOIN r USING (lang)
            WHERE m.u < r.rate
        """,
        "label_centroids": r"""
            WITH f AS (
                SELECT CAST(label AS BIGINT) AS label,
                       unnest(embedding) AS v,
                       unnest(range(len(embedding))) AS dim
                FROM embeddings
            )
            SELECT label, CAST(dim AS BIGINT) AS dim,
                   CAST(sum(CAST(floor(CAST(v AS DOUBLE) * 1048576.0)
                                 AS BIGINT)) AS BIGINT) AS qsum,
                   CAST(count(*) AS BIGINT) AS n_vecs
            FROM f GROUP BY label, dim
        """,
        "incremental_neardup_pairs": r"""
            WITH idx AS (
                SELECT doc_id, text FROM documents WHERE doc_id % 2 = 0
            ), newd AS (
                SELECT doc_id, text FROM documents WHERE doc_id % 2 = 1
                UNION ALL
                SELECT doc_id + 1000000 AS doc_id,
                       text || ' extra revision line' AS text
                FROM documents WHERE doc_id % 10 = 0
            ), wsa AS (
                SELECT doc_id,
                       regexp_split_to_array(lower(trim(text)), '\s+') AS w
                FROM idx
            ), wsb AS (
                SELECT doc_id,
                       regexp_split_to_array(lower(trim(text)), '\s+') AS w
                FROM newd
            ), sha AS (
                SELECT doc_id, list_distinct(
                    CASE WHEN len(w) >= 3
                         THEN list_transform(range(1, len(w) - 1),
                              i -> w[i] || ' ' || w[i+1] || ' ' || w[i+2])
                         ELSE [array_to_string(w, ' ')] END) AS shingles
                FROM wsa
            ), shb AS (
                SELECT doc_id, list_distinct(
                    CASE WHEN len(w) >= 3
                         THEN list_transform(range(1, len(w) - 1),
                              i -> w[i] || ' ' || w[i+1] || ' ' || w[i+2])
                         ELSE [array_to_string(w, ' ')] END) AS shingles
                FROM wsb
            ), exa AS (
                SELECT doc_id, unnest(shingles) AS s FROM sha
            ), exb AS (
                SELECT doc_id, unnest(shingles) AS s FROM shb
            ), inter AS (
                SELECT a.doc_id AS doc_id_a, b.doc_id AS doc_id_b,
                       count(*) AS i
                FROM exa a JOIN exb b ON a.s = b.s
                GROUP BY 1, 2
            )
            SELECT doc_id_a, doc_id_b,
                   CAST(i AS DOUBLE) / (na.n + nb.n - i) AS jaccard
            FROM inter
            JOIN (SELECT doc_id, len(shingles) AS n FROM sha) na
                 ON na.doc_id = doc_id_a
            JOIN (SELECT doc_id, len(shingles) AS n FROM shb) nb
                 ON nb.doc_id = doc_id_b
            WHERE CAST(i AS DOUBLE) / (na.n + nb.n - i) >= 0.8
        """,
        "events_global_quantiles": r"""
            SELECT unnest([0.25, 0.5, 0.95, 0.99]) AS q,
                   unnest(quantile_disc(value, [0.25, 0.5, 0.95, 0.99]))
                       AS value
            FROM events
        """,
        "events_global_robust_scaled": r"""
            WITH m AS (SELECT quantile_disc(value, 0.5) AS med FROM events),
            d AS (
                SELECT quantile_disc(abs(value - (SELECT med FROM m)), 0.5)
                    AS mad
                FROM events
            )
            SELECT event_id, value,
                   CASE WHEN (SELECT mad FROM d) <> 0.0
                        THEN (value - (SELECT med FROM m))
                             / (SELECT mad FROM d)
                        ELSE 0.0 END AS robust_z
            FROM events
        """,
        "stratified_split_exact": f"""
            WITH {_splitmix_sql(41)},
            r AS (
                SELECT d.doc_id, d.source,
                       row_number() OVER (PARTITION BY d.source
                                          ORDER BY m.zr, d.doc_id) - 1
                           AS rk,
                       count(*) OVER (PARTITION BY d.source) AS n
                FROM documents d JOIN mixed m USING (doc_id)
            )
            SELECT doc_id, source,
                   CASE WHEN rk < floor(0.8 * n) THEN 'train'
                        WHEN rk < floor(0.9 * n) THEN 'val'
                        ELSE 'test' END AS split
            FROM r
        """,
        "neighbor_feature_agg": r"""
            WITH feats AS (
                SELECT s_suppkey AS node,
                       CAST(floor(s_acctbal * 100.0) AS BIGINT) AS f
                FROM supplier
                UNION ALL
                SELECT c_custkey + 1000000 AS node,
                       CAST(floor(c_acctbal * 100.0) AS BIGINT) AS f
                FROM customer
            ), pairs AS (
                SELECT DISTINCT l.l_suppkey AS s, o.o_custkey AS c
                FROM lineitem l JOIN orders o ON l.l_orderkey = o.o_orderkey
            ), edges AS (
                SELECT s AS src, c + 1000000 AS dst FROM pairs
                UNION ALL
                SELECT c + 1000000 AS src, s AS dst FROM pairs
            ), h1 AS (
                SELECT e.dst AS node, sum(f.f) AS f, count(*) AS n
                FROM edges e JOIN feats f ON f.node = e.src
                GROUP BY e.dst
            ), h2 AS (
                SELECT e.dst AS node, sum(h1.f) AS f, count(*) AS n
                FROM edges e JOIN h1 ON h1.node = e.src
                GROUP BY e.dst
            )
            SELECT fe.node,
                   CAST(COALESCE(h2.f, 0) AS BIGINT) AS h_sum,
                   CAST(COALESCE(h2.n, 0) AS BIGINT) AS n_msgs
            FROM feats fe LEFT JOIN h2 USING (node)
        """,
        "weekly_retention": r"""
            WITH uw AS (
                SELECT DISTINCT user_id,
                       date_trunc('week', ts) AS week_start
                FROM events
            ), r AS (
                SELECT a.week_start,
                       count(*) AS n_active,
                       sum(CASE WHEN EXISTS (
                               SELECT 1 FROM uw b
                               WHERE b.user_id = a.user_id
                                 AND b.week_start =
                                     a.week_start + INTERVAL 7 DAY
                           ) THEN 1 ELSE 0 END) AS n_retained
                FROM uw a GROUP BY a.week_start
            )
            SELECT CAST(week_start AS TIMESTAMP) AS week_start,
                   CAST(n_active AS BIGINT) AS n_active,
                   CAST(n_retained AS BIGINT) AS n_retained,
                   CAST(n_retained AS DOUBLE)
                       / greatest(n_active, 1) AS retention
            FROM r
        """,
        "event_value_deciles": r"""
            WITH b AS (
                SELECT quantile_disc(value,
                    [0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9]) AS bs
                FROM events
            )
            SELECT event_id, value,
                   CAST(len(list_filter((SELECT bs FROM b),
                                        x -> value >= x)) AS BIGINT)
                       AS bucket
            FROM events
        """,
        "doc_keywords_top3": r"""
            WITH toks AS (
                SELECT doc_id, w AS term FROM documents,
                     UNNEST(regexp_extract_all(lower(text), '[a-z]+')) t(w)
            ), tf AS (
                SELECT doc_id, term, CAST(count(*) AS BIGINT) AS tf
                FROM toks GROUP BY doc_id, term
            ), dfreq AS (
                SELECT term, CAST(count(*) AS BIGINT) AS df
                FROM tf GROUP BY term
            ), ranked AS (
                SELECT tf.doc_id, tf.term, tf.tf, d.df,
                       row_number() OVER (
                           PARTITION BY tf.doc_id
                           ORDER BY tf.tf DESC, d.df ASC, tf.term ASC
                       ) AS rank
                FROM tf JOIN dfreq d USING (term)
            )
            SELECT doc_id, term, tf, df, CAST(rank AS BIGINT) AS rank
            FROM ranked WHERE rank <= 3
        """,
        "langid_confusion": r"""
            WITH scored AS (
                SELECT doc_id, lang,
                       len(list_filter(regexp_extract_all(lower(text), '[a-zà-ÿäöüß]+'),
                           w -> w IN ('the','and','of','to','a','in','is','that','it','for','on','with','as')))
                           / greatest(len(regexp_extract_all(lower(text), '[a-zà-ÿäöüß]+')), 1)::DOUBLE AS s_en,
                       len(list_filter(regexp_extract_all(lower(text), '[a-zà-ÿäöüß]+'),
                           w -> w IN ('der','die','das','und','ist','von','mit','ein','eine','zu','den','für')))
                           / greatest(len(regexp_extract_all(lower(text), '[a-zà-ÿäöüß]+')), 1)::DOUBLE AS s_de,
                       len(list_filter(regexp_extract_all(lower(text), '[a-zà-ÿäöüß]+'),
                           w -> w IN ('le','la','les','et','de','un','une','est','pour','dans','que','des')))
                           / greatest(len(regexp_extract_all(lower(text), '[a-zà-ÿäöüß]+')), 1)::DOUBLE AS s_fr,
                       len(list_filter(regexp_extract_all(lower(text), '[a-zà-ÿäöüß]+'),
                           w -> w IN ('el','la','los','las','y','de','un','una','es','por','que','con')))
                           / greatest(len(regexp_extract_all(lower(text), '[a-zà-ÿäöüß]+')), 1)::DOUBLE AS s_es
                FROM documents
            ), pred AS (
                SELECT doc_id, lang AS lang_declared,
                       CASE WHEN greatest(s_en, s_de, s_fr, s_es) <= 0.02 THEN 'unknown'
                            WHEN s_en >= greatest(s_de, s_fr, s_es) THEN 'en'
                            WHEN s_de >= greatest(s_fr, s_es) THEN 'de'
                            WHEN s_fr >= s_es THEN 'fr'
                            ELSE 'es' END AS lang_pred
                FROM scored
            )
            SELECT lang_declared, lang_pred,
                   CAST(count(*) AS BIGINT) AS n_docs
            FROM pred GROUP BY lang_declared, lang_pred
        """,
        "decayed_user_value": r"""
            WITH d AS (
                SELECT user_id,
                       CAST(floor(value * 100.0) AS BIGINT) >>
                       LEAST(GREATEST(CAST(
                           date_diff('microsecond', ts,
                                     TIMESTAMP '2024-02-01 00:00:00')
                           // 86400000000 // 7 AS BIGINT), 0), 62) AS dec
                FROM events
            )
            SELECT user_id,
                   CAST(sum(dec) AS BIGINT) AS decayed_cents,
                   CAST(count(*) AS BIGINT) AS n_events
            FROM d GROUP BY user_id
        """,
        "linear_attribution": r"""
            WITH counts AS (
                SELECT p.user_id, p.event_id,
                       CAST(count(c.event_id) AS BIGINT) AS n
                FROM (SELECT * FROM events WHERE event_type = 'purchase') p
                LEFT JOIN (SELECT * FROM events
                           WHERE event_type = 'click') c
                  ON c.user_id = p.user_id
                 AND c.ts BETWEEN p.ts - INTERVAL 30 MINUTE AND p.ts
                GROUP BY p.user_id, p.event_id
            )
            SELECT user_id,
                   CAST(sum(CASE WHEN n > 0
                                 THEN (10000 // n) * n ELSE 0 END)
                        AS BIGINT) AS credit,
                   CAST(count(*) AS BIGINT) AS n_purchases,
                   CAST(sum(CASE WHEN n > 0 THEN 1 ELSE 0 END)
                        AS BIGINT) AS n_attributed
            FROM counts GROUP BY user_id
        """,
        "top_sessions_by_value": r"""
            WITH flagged AS (
                SELECT user_id, event_id, ts, value,
                       CASE WHEN lag(ts) OVER w IS NULL
                                 OR ts - lag(ts) OVER w
                                    > INTERVAL 30 MINUTE
                            THEN 1 ELSE 0 END AS new_session
                FROM events
                WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
            ), numbered AS (
                SELECT user_id, value,
                       sum(new_session) OVER (PARTITION BY user_id
                                              ORDER BY ts, event_id)
                           AS session_id
                FROM flagged
            ), rolled AS (
                SELECT user_id, CAST(session_id AS BIGINT) AS session_id,
                       CAST(count(*) AS BIGINT) AS n_events,
                       CAST(sum(CAST(floor(value * 100.0) AS BIGINT))
                            AS BIGINT) AS value_cents
                FROM numbered GROUP BY user_id, session_id
            )
            SELECT user_id, session_id, n_events, value_cents
            FROM rolled
            ORDER BY value_cents DESC, user_id, session_id
            LIMIT 10
        """,
        "source_dup_rates": r"""
            SELECT source,
                   CAST(count(*) AS BIGINT) AS n_docs,
                   CAST(count(DISTINCT text) AS BIGINT) AS n_distinct,
                   1.0 - CAST(count(DISTINCT text) AS DOUBLE)
                         / count(*) AS dup_frac
            FROM documents GROUP BY source
        """,
        "embedding_gram": r"""
            WITH q AS (
                SELECT list_transform(embedding,
                           x -> CAST(floor(CAST(x AS DOUBLE) * 256.0)
                                     AS BIGINT)) AS qv
                FROM embeddings
            ), cells AS (
                SELECT i, j, qv[i + 1] * qv[j + 1] AS p
                FROM q,
                     unnest(range(len(qv))) AS ti(i),
                     unnest(range(len(qv))) AS tj(j)
            )
            SELECT CAST(i AS BIGINT) AS i, CAST(j AS BIGINT) AS j,
                   CAST(sum(p) AS BIGINT) AS qsum,
                   CAST(count(*) AS BIGINT) AS n_vecs
            FROM cells GROUP BY i, j
        """,
        "followed_by_pairs": r"""
            SELECT a.event_type AS type_a, b.event_type AS type_b,
                   CAST(count(*) AS BIGINT) AS n_pairs
            FROM events a JOIN events b
              ON b.user_id = a.user_id
             AND b.ts > a.ts
             AND b.ts <= a.ts + INTERVAL 10 MINUTE
            GROUP BY type_a, type_b
        """,
        # blocked record linkage: DuckDB levenshtein() is utf-8
        # byte-level — the Ray kernel matches it byte-for-byte
        "fuzzy_name_matches": r"""
            SELECT c_custkey, s_suppkey,
                   CAST(levenshtein(c_name, s_name) AS BIGINT) AS dist
            FROM customer JOIN supplier ON c_nationkey = s_nationkey
            WHERE levenshtein(c_name, s_name) <= 6
        """,
        # deterministic 3-hop walks: ranked adjacency + splitmix mirror,
        # each hop one expression join (walk schedule re-derived exactly)
        "deepwalk_walks": f"""
            WITH pairs AS (
                SELECT DISTINCT l_suppkey AS s, o_custkey AS c
                FROM lineitem JOIN orders ON l_orderkey = o_orderkey
            ), edges AS (
                SELECT s AS src, c + 1000000 AS dst FROM pairs
                UNION ALL
                SELECT c + 1000000 AS src, s AS dst FROM pairs
            ), adj AS (
                SELECT src, dst,
                       ROW_NUMBER() OVER (PARTITION BY src ORDER BY dst)
                           - 1 AS rnk,
                       COUNT(*) OVER (PARTITION BY src) AS deg
                FROM edges
            ), s0 AS (
                SELECT DISTINCT src AS wstart, src AS cur FROM edges
                WHERE src < 1000000
            ), s1 AS (
                SELECT s0.wstart, a.dst AS cur FROM s0 JOIN adj a
                  ON a.src = s0.cur AND CAST(a.rnk AS UBIGINT) =
                     {_splitmix_expr_sql('CAST(s0.cur * 4 + 1 AS UBIGINT)', 41)}
                     % CAST(a.deg AS UBIGINT)
            ), s2 AS (
                SELECT s1.wstart, a.dst AS cur FROM s1 JOIN adj a
                  ON a.src = s1.cur AND CAST(a.rnk AS UBIGINT) =
                     {_splitmix_expr_sql('CAST(s1.cur * 4 + 2 AS UBIGINT)', 41)}
                     % CAST(a.deg AS UBIGINT)
            ), s3 AS (
                SELECT s2.wstart, a.dst AS cur FROM s2 JOIN adj a
                  ON a.src = s2.cur AND CAST(a.rnk AS UBIGINT) =
                     {_splitmix_expr_sql('CAST(s2.cur * 4 + 3 AS UBIGINT)', 41)}
                     % CAST(a.deg AS UBIGINT)
            )
            SELECT wstart AS start, CAST(0 AS BIGINT) AS step,
                   cur AS node FROM s0
            UNION ALL SELECT wstart, CAST(1 AS BIGINT), cur FROM s1
            UNION ALL SELECT wstart, CAST(2 AS BIGINT), cur FROM s2
            UNION ALL SELECT wstart, CAST(3 AS BIGINT), cur FROM s3
        """,
        # neighbor-set Jaccard link prediction (≥2 shared customers);
        # ratio = same two ints divided → bit-exact
        "supplier_link_prediction": r"""
            WITH pairs AS (
                SELECT DISTINCT l_suppkey AS s, o_custkey AS c
                FROM lineitem JOIN orders ON l_orderkey = o_orderkey
            ), deg AS (
                SELECT s, count(*) AS d FROM pairs GROUP BY s
            ), inter AS (
                SELECT a.s AS s_a, b.s AS s_b,
                       CAST(count(*) AS BIGINT) AS n_common
                FROM pairs a JOIN pairs b ON a.c = b.c AND a.s < b.s
                GROUP BY a.s, b.s HAVING count(*) >= 2
            )
            SELECT s_a, s_b, n_common,
                   CAST(n_common AS DOUBLE) / (da.d + db.d - n_common)
                       AS jaccard
            FROM inter
            JOIN deg da ON da.s = s_a
            JOIN deg db ON db.s = s_b
        """,
        # dense per-minute rate series, zero-filled over the full range
        "events_per_minute_dense": r"""
            WITH m AS (
                SELECT epoch_us(ts) // 60000000 AS minute FROM events
            ), b AS (
                SELECT min(minute) AS lo, max(minute) AS hi FROM m
            ), g AS (
                SELECT unnest(range(lo, hi + 1)) AS minute FROM b
            )
            SELECT g.minute, CAST(count(m.minute) AS BIGINT) AS n_events
            FROM g LEFT JOIN m ON m.minute = g.minute
            GROUP BY g.minute
        """,
        # empirical CDF per user — same integer division both engines
        "events_user_cume_dist": r"""
            SELECT event_id, user_id,
                   cume_dist() OVER (
                       PARTITION BY user_id ORDER BY value
                   ) AS cd
            FROM events
        """,
        # winsorized sums in exact integer cents; quantile_disc bounds
        "events_winsorized": r"""
            WITH q AS (
                SELECT user_id,
                       quantile_disc(value, 0.05) AS lo,
                       quantile_disc(value, 0.95) AS hi
                FROM events GROUP BY user_id
            )
            SELECT e.user_id,
                   CAST(count(*) AS BIGINT) AS n_events,
                   CAST(count(*) FILTER (WHERE e.value < q.lo)
                        AS BIGINT) AS n_clip_low,
                   CAST(count(*) FILTER (WHERE e.value > q.hi)
                        AS BIGINT) AS n_clip_high,
                   CAST(sum(CAST(floor(
                       least(greatest(e.value, q.lo), q.hi) * 100)
                       AS BIGINT)) AS BIGINT) AS winsorized_cents
            FROM events e JOIN q USING (user_id)
            GROUP BY e.user_id
        """,
        # BPE-trainer pair stats: 2-char substrings over [a-z]+ tokens
        "char_pair_counts": r"""
            WITH toks AS (
                SELECT unnest(regexp_extract_all(
                    lower(COALESCE(text, '')), '[a-z]+')) AS w
                FROM documents
            )
            SELECT substring(w, i, 2) AS pair,
                   CAST(count(*) AS BIGINT) AS n
            FROM toks, UNNEST(range(1, length(w))) AS t(i)
            GROUP BY pair
        """,
        # span corruption: splitmix mask over (doc_id·2^20 + position),
        # ordered string_agg reassembly — the exact Ray mask schedule
        "span_corruption_pairs": f"""
            WITH toks AS (
                SELECT doc_id,
                       CASE WHEN trim(COALESCE(text, '')) = '' THEN []
                            ELSE regexp_split_to_array(trim(text), '\\s+')
                       END AS ws
                FROM documents
            ), flat AS (
                SELECT doc_id, unnest(ws) AS tok,
                       unnest(range(len(ws))) AS i
                FROM toks
            ), marked AS (
                SELECT doc_id, tok, i,
                       ({_splitmix_expr_sql(
                           'CAST(doc_id * 1048576 + i AS UBIGINT)', 15)}
                        % 100) < 15 AS m
                FROM flat
            )
            SELECT doc_id,
                   string_agg(CASE WHEN m THEN '<X>' ELSE tok END, ' '
                              ORDER BY i) AS input_text,
                   COALESCE(string_agg(CASE WHEN m THEN tok END, ' '
                                       ORDER BY i), '') AS target_text,
                   CAST(count(*) FILTER (WHERE m) AS BIGINT) AS n_masked
            FROM marked GROUP BY doc_id
        """,
        # sentence segmentation: list-lambda mirror of split+filter+sum
        "sentence_stats": r"""
            WITH segs AS (
                SELECT doc_id,
                       list_filter(
                           regexp_split_to_array(COALESCE(text, ''),
                                                 '[.!?]+'),
                           x -> regexp_matches(x, '[a-zA-Z0-9]')
                       ) AS ss
                FROM documents
            )
            SELECT doc_id,
                   CAST(len(ss) AS BIGINT) AS n_sentences,
                   CAST(COALESCE(list_sum(
                       list_transform(ss, x -> length(x))), 0)
                        AS BIGINT) AS sentence_chars
            FROM segs
        """,
        # integer HITS: two unrolled half-iterations, pure join+sum SQL
        "hits_scores": r"""
            WITH edges AS (
                SELECT DISTINCT l_suppkey AS s, o_custkey AS c
                FROM lineitem JOIN orders ON l_orderkey = o_orderkey
            ), auth1 AS (
                SELECT c, CAST(count(*) AS BIGINT) AS a FROM edges GROUP BY c
            ), hub1 AS (
                SELECT s, CAST(sum(a) AS BIGINT) AS h
                FROM edges JOIN auth1 USING (c) GROUP BY s
            ), auth2 AS (
                SELECT c, CAST(sum(h) AS BIGINT) AS a2
                FROM edges JOIN hub1 USING (s) GROUP BY c
            )
            SELECT 'supplier' AS node_type, s AS node_id, h AS score
            FROM hub1
            UNION ALL
            SELECT 'customer' AS node_type, c AS node_id, a2 AS score
            FROM auth2
        """,
        # round-robin-by-length-rank shard balance report
        "balanced_shards": r"""
            WITH ranked AS (
                SELECT doc_id, n_chars,
                       ROW_NUMBER() OVER (ORDER BY n_chars DESC, doc_id)
                           AS rn
                FROM documents
            )
            SELECT CAST((rn - 1) % 8 AS BIGINT) AS shard,
                   CAST(count(*) AS BIGINT) AS n_docs,
                   CAST(sum(n_chars) AS BIGINT) AS total_chars
            FROM ranked GROUP BY 1
        """,
        # per-source nucleus cutoff: strictly-before cumulative rule,
        # exact integer comparison (10*before < 8*total)
        "nucleus_top80_docs": r"""
            WITH t AS (
                SELECT doc_id, source, n_chars,
                       sum(n_chars) OVER (
                           PARTITION BY source
                           ORDER BY n_chars DESC, doc_id
                           ROWS UNBOUNDED PRECEDING
                       ) - n_chars AS before_chars,
                       sum(n_chars) OVER (PARTITION BY source)
                           AS total_chars
                FROM documents
            )
            SELECT doc_id, source, CAST(n_chars AS BIGINT) AS n_chars
            FROM t WHERE 10 * before_chars < 8 * total_chars
        """,
        # cumulative window in exact integer cents (floor(value*100):
        # both engines do the same double multiply+floor, then integer
        # cumsum — no float accumulation-order hazard)
        "events_running_total": r"""
            SELECT event_id, user_id,
                   CAST(sum(CAST(floor(value * 100) AS BIGINT)) OVER (
                       PARTITION BY user_id ORDER BY ts, event_id
                       ROWS UNBOUNDED PRECEDING
                   ) AS BIGINT) AS running_cents
            FROM events
        """,
        "dataset_card": r"""
            SELECT CAST(count(*) AS BIGINT) AS n_docs,
                   CAST(sum(CASE WHEN trim(COALESCE(text, '')) = ''
                                 THEN 0
                                 ELSE len(regexp_split_to_array(
                                          trim(text), '\s+'))
                            END) AS BIGINT) AS total_tokens,
                   CAST(sum(length(COALESCE(text, ''))) AS BIGINT)
                       AS total_chars,
                   CAST(count(DISTINCT COALESCE(text, ''))
                        AS BIGINT) AS n_distinct_texts,
                   CAST(count(DISTINCT lang) AS BIGINT) AS n_langs,
                   CAST(count(DISTINCT source) AS BIGINT) AS n_sources
            FROM documents
        """,
        "url_dedup": r"""
            WITH raw AS (
                SELECT doc_id,
                       'HTTP://WWW.Site' || (doc_id % 5)
                       || '.Example.COM:80/p/' || (doc_id % 7)
                       || '/?b=' || (doc_id % 3)
                       || '&utm_source=feed&a=' || (doc_id % 2)
                       || '#s' || doc_id AS url
                FROM documents
            ), p AS (
                SELECT doc_id,
                       lower(regexp_extract(url,
                           '^([A-Za-z][A-Za-z0-9+.-]*)://', 1)) AS scheme,
                       lower(regexp_extract(url,
                           '^[A-Za-z][A-Za-z0-9+.-]*://([^/:?#]+)', 1))
                           AS host,
                       regexp_extract(url,
                           '^[A-Za-z][A-Za-z0-9+.-]*://[^/:?#]+:(\d+)', 1)
                           AS port,
                       regexp_extract(url,
                           '^[A-Za-z][A-Za-z0-9+.-]*://[^/?#]+(/[^?#]*)', 1)
                           AS path,
                       regexp_extract(url, '\?([^#]*)', 1) AS q
                FROM raw
            ), qs AS (
                SELECT *, array_to_string(list_sort(list_filter(
                           string_split(q, '&'),
                           x -> x <> '' AND NOT starts_with(x, 'utm_')
                                AND NOT starts_with(x, 'fbclid')
                                AND NOT starts_with(x, 'gclid'))), '&')
                           AS qsorted
                FROM p
            ), canon AS (
                SELECT doc_id,
                       scheme || '://'
                       || (CASE WHEN host LIKE 'www.%' THEN substr(host, 5)
                                ELSE host END)
                       || (CASE WHEN port <> '' AND NOT (
                                    (scheme = 'http' AND port = '80') OR
                                    (scheme = 'https' AND port = '443'))
                                THEN ':' || port ELSE '' END)
                       || (CASE WHEN regexp_replace(path, '/+$', '') = ''
                                THEN '/'
                                ELSE regexp_replace(path, '/+$', '') END)
                       || (CASE WHEN qsorted <> '' THEN '?' || qsorted
                                ELSE '' END) AS url_canon
                FROM qs
            )
            SELECT min(doc_id) AS doc_id, url_canon,
                   CAST(count(*) AS BIGINT) AS n_copies
            FROM canon GROUP BY url_canon
        """,
        # corpus bigram-LM fixed-point likelihood: self-trained counts,
        # per-type contribution ((n12 * 10^6) // n1) * n_occ — integer
        # division order matches the Ray kernel exactly
        "bigram_lm_scores": _BIGRAM_LM_SQL,
        # CCNet band filter: quantile_disc bounds over the same scores
        "lm_band_filtered_docs": f"""
            WITH scores AS ({_BIGRAM_LM_SQL}),
            b AS (
                SELECT quantile_disc(lm_avg, 0.10) AS lo,
                       quantile_disc(lm_avg, 0.90) AS hi
                FROM scores
            )
            SELECT s.doc_id, s.n_bigrams, s.lm_avg
            FROM scores s, b
            WHERE s.lm_avg BETWEEN b.lo AND b.hi
        """,
        # curation funnel: first-failing-gate attribution re-derived with
        # the shared Gopher CTE builders + windowed exact-dedup verdict
        "curation_funnel_report": f"""
            WITH base AS (
                SELECT doc_id, source, lang, text FROM documents
            ), alpha AS (
                SELECT doc_id,
                       len(regexp_extract_all(COALESCE(text, ''),
                           '[A-Za-z]'))::DOUBLE
                       / greatest(length(COALESCE(text, '')), 1) AS ar
                FROM base
            ), s2 AS (
                SELECT b.doc_id, b.source, b.text
                FROM base b JOIN alpha a ON b.doc_id = a.doc_id
                WHERE COALESCE(b.lang, '') = 'en' AND a.ar >= 0.6
            ), {_gopher_ctes("s2")},
            s3 AS (
                SELECT s2.doc_id, s2.source, s2.text
                FROM s2 JOIN g_sig ON s2.doc_id = g_sig.doc_id
                WHERE {_GOPHER_KEPT_PRED}
            ), dd AS (
                SELECT doc_id,
                       doc_id = min(doc_id) OVER (
                           PARTITION BY COALESCE(text, '')) AS is_rep
                FROM s3
            ), stage AS (
                SELECT b.doc_id, b.source,
                       CASE WHEN COALESCE(b.lang, '') <> 'en' THEN 0
                            WHEN a.ar < 0.6 THEN 1
                            WHEN gk.doc_id IS NULL THEN 2
                            WHEN NOT dd.is_rep THEN 3
                            ELSE 4 END AS stage
                FROM base b
                JOIN alpha a ON b.doc_id = a.doc_id
                LEFT JOIN s3 gk ON b.doc_id = gk.doc_id
                LEFT JOIN dd ON b.doc_id = dd.doc_id
            )
            SELECT source,
                   CAST(count(*) AS BIGINT) AS n_docs,
                   CAST(count(*) FILTER (WHERE stage = 0) AS BIGINT)
                       AS n_fail_lang,
                   CAST(count(*) FILTER (WHERE stage = 1) AS BIGINT)
                       AS n_fail_alpha,
                   CAST(count(*) FILTER (WHERE stage = 2) AS BIGINT)
                       AS n_fail_gopher,
                   CAST(count(*) FILTER (WHERE stage = 3) AS BIGINT)
                       AS n_dup_dropped,
                   CAST(count(*) FILTER (WHERE stage = 4) AS BIGINT)
                       AS n_kept
            FROM stage GROUP BY source
        """,
        # PSI-style drift buckets: reference-quartile boundaries, <=-chain
        # bucketing, integer-ppm fractions
        "length_drift_report": r"""
            WITH ref AS (
                SELECT n_chars FROM documents WHERE doc_id % 2 = 0
            ), cur AS (
                SELECT n_chars FROM documents WHERE doc_id % 2 = 1
            ), b AS (
                SELECT quantile_disc(n_chars, 0.25) AS q1,
                       quantile_disc(n_chars, 0.50) AS q2,
                       quantile_disc(n_chars, 0.75) AS q3
                FROM ref
            ), rb AS (
                SELECT CASE WHEN n_chars <= q1 THEN 0
                            WHEN n_chars <= q2 THEN 1
                            WHEN n_chars <= q3 THEN 2
                            ELSE 3 END AS bucket
                FROM ref, b
            ), cb AS (
                SELECT CASE WHEN n_chars <= q1 THEN 0
                            WHEN n_chars <= q2 THEN 1
                            WHEN n_chars <= q3 THEN 2
                            ELSE 3 END AS bucket
                FROM cur, b
            ), rc AS (
                SELECT bucket, CAST(count(*) AS BIGINT) AS n_ref
                FROM rb GROUP BY 1
            ), cc AS (
                SELECT bucket, CAST(count(*) AS BIGINT) AS n_cur
                FROM cb GROUP BY 1
            ), tot AS (
                SELECT greatest((SELECT count(*) FROM ref), 1) AS tr,
                       greatest((SELECT count(*) FROM cur), 1) AS tc
            ), g AS (
                SELECT unnest(range(4)) AS bucket
            )
            SELECT g.bucket,
                   COALESCE(rc.n_ref, 0) AS n_ref,
                   COALESCE(cc.n_cur, 0) AS n_cur,
                   (COALESCE(rc.n_ref, 0) * 1000000) // tot.tr
                       AS frac_ref_ppm,
                   (COALESCE(cc.n_cur, 0) * 1000000) // tot.tc
                       AS frac_cur_ppm
            FROM g LEFT JOIN rc ON g.bucket = rc.bucket
                   LEFT JOIN cc ON g.bucket = cc.bucket, tot
        """,
        # exact containment pairs: the _JACCARD_PAIRS_SQL shingle rule
        # + df<=64 boilerplate cap + integer-ppm one-sided overlap
        "containment_dup_pairs": r"""
            WITH ws AS (
                SELECT doc_id,
                       regexp_split_to_array(lower(trim(text)), '\s+') AS w
                FROM documents
            ), sh AS (
                SELECT doc_id,
                       list_distinct(
                         CASE WHEN len(w) >= 3
                              THEN list_transform(range(1, len(w) - 1),
                                   i -> w[i] || ' ' || w[i+1] || ' '
                                        || w[i+2])
                              ELSE [array_to_string(w, ' ')] END
                       ) AS shingles
                FROM ws
            ), ex AS (
                SELECT doc_id, unnest(shingles) AS s FROM sh
            ), keepsh AS (
                SELECT s FROM ex GROUP BY s HAVING count(*) <= 64
            ), ex2 AS (
                SELECT ex.doc_id, ex.s FROM ex JOIN keepsh USING (s)
            ), sizes AS (
                SELECT doc_id, len(shingles) AS n FROM sh
            ), inter AS (
                SELECT a.doc_id AS doc_id_a, b.doc_id AS doc_id_b,
                       CAST(count(*) AS BIGINT) AS i
                FROM ex2 a JOIN ex2 b
                  ON a.s = b.s AND a.doc_id < b.doc_id
                GROUP BY 1, 2
            )
            SELECT doc_id_a, doc_id_b, i AS n_shared,
                   CAST(na.n AS BIGINT) AS n_a,
                   CAST(nb.n AS BIGINT) AS n_b,
                   CAST((i * 1000000) // na.n AS BIGINT) AS cont_a_ppm,
                   CAST((i * 1000000) // nb.n AS BIGINT) AS cont_b_ppm
            FROM inter
            JOIN sizes na ON na.doc_id = doc_id_a
            JOIN sizes nb ON nb.doc_id = doc_id_b
            WHERE greatest((i * 1000000) // na.n,
                           (i * 1000000) // nb.n) >= 600000
        """,
        # link graph: same synthetic anchors, regexp_extract_all('is')
        # href pull, absolute-URL host lowering, relative links skipped
        "link_host_degrees": r"""
            WITH pages AS (
                SELECT doc_id,
                       '<html><body><p>' || COALESCE(text, '') || '</p>'
                       || '<a class="x" href="https://site'
                       || CAST(doc_id % 7 AS VARCHAR) || '.example.com/p'
                       || CAST(doc_id % 3 AS VARCHAR) || '">l1</a>'
                       || '<A HREF="HTTPS://Site'
                       || CAST((doc_id * 3 + 1) % 7 AS VARCHAR)
                       || '.Example.COM/q?a=1">l2</A>'
                       || '<a href="/rel/path">rel</a>'
                       || CASE WHEN doc_id % 2 = 0 THEN
                              '<a class="x" href="https://site'
                              || CAST(doc_id % 7 AS VARCHAR)
                              || '.example.com/p'
                              || CAST(doc_id % 3 AS VARCHAR) || '">dup</a>'
                          ELSE '' END
                       || '</body></html>' AS html
                FROM documents
            ), hrefs AS (
                SELECT doc_id,
                       unnest(regexp_extract_all(
                           html, '<a\s[^>]*href="([^"]+)"', 1, 'is'))
                           AS href
                FROM pages
            ), hosts AS (
                SELECT doc_id,
                       lower(regexp_extract(href,
                           '^[A-Za-z][A-Za-z0-9+.-]*://([^/:?#]+)', 1))
                           AS dst_host
                FROM hrefs
                WHERE regexp_matches(href,
                          '^[A-Za-z][A-Za-z0-9+.-]*://')
            )
            SELECT dst_host,
                   CAST(count(*) AS BIGINT) AS n_links,
                   CAST(count(DISTINCT doc_id) AS BIGINT) AS n_src_docs
            FROM hosts GROUP BY dst_host
        """,
        # anchor-text mining: list_zip of the two capture groups, trim+
        # lower, per-host argmax with (n DESC, anchor) tie rule
        "anchor_text_top": r"""
            WITH pages AS (
                SELECT doc_id,
                       '<html><body><p>' || COALESCE(text, '') || '</p>'
                       || '<a class="x" href="https://site'
                       || CAST(doc_id % 7 AS VARCHAR) || '.example.com/p'
                       || CAST(doc_id % 3 AS VARCHAR)
                       || '">Link One</a>'
                       || '<A HREF="HTTPS://Site'
                       || CAST((doc_id * 3 + 1) % 7 AS VARCHAR)
                       || '.Example.COM/q?a=1"> MORE here </A>'
                       || '<a href="/rel/path">rel</a>'
                       || CASE WHEN doc_id % 2 = 0 THEN
                              '<a class="x" href="https://site'
                              || CAST(doc_id % 7 AS VARCHAR)
                              || '.example.com/p'
                              || CAST(doc_id % 3 AS VARCHAR)
                              || '">link one </a>'
                          ELSE '' END
                       || '</body></html>' AS html
                FROM documents
            ), pairs AS (
                SELECT doc_id,
                       unnest(list_zip(
                           regexp_extract_all(html,
                               '<a\s[^>]*href="([^"]+)"[^>]*>([^<]*)</a>',
                               1, 'is'),
                           regexp_extract_all(html,
                               '<a\s[^>]*href="([^"]+)"[^>]*>([^<]*)</a>',
                               2, 'is'))) AS z
                FROM pages
            ), h AS (
                SELECT lower(regexp_extract(z[1],
                           '^[A-Za-z][A-Za-z0-9+.-]*://([^/:?#]+)', 1))
                           AS dst_host,
                       lower(trim(z[2])) AS anchor
                FROM pairs
                WHERE regexp_matches(z[1],
                          '^[A-Za-z][A-Za-z0-9+.-]*://')
            ), c AS (
                SELECT dst_host, anchor,
                       CAST(count(*) AS BIGINT) AS n
                FROM h GROUP BY 1, 2
            ), t AS (
                SELECT dst_host, CAST(sum(n) AS BIGINT) AS n_anchors
                FROM c GROUP BY 1
            ), r AS (
                SELECT dst_host, anchor AS top_anchor, n AS n_top,
                       ROW_NUMBER() OVER (
                           PARTITION BY dst_host
                           ORDER BY n DESC, anchor) AS rn
                FROM c
            )
            SELECT r.dst_host, r.top_anchor, r.n_top, t.n_anchors
            FROM r JOIN t ON r.dst_host = t.dst_host
            WHERE r.rn = 1
        """,
        # FIM: substring + the splitmix HUGEINT mirror, seeds 7/8
        "fim_psm_docs": f"""
            WITH base AS (
                SELECT doc_id, COALESCE(text, '') AS t,
                       CAST(length(COALESCE(text, '')) AS BIGINT) AS L
                FROM documents
            ), sp AS (
                SELECT doc_id, t, L,
                       CAST({_splitmix_expr_sql(
                           'CAST(doc_id AS UBIGINT)', 7)}
                            % CAST(L + 1 AS UBIGINT) AS BIGINT) AS i
                FROM base
            ), sp2 AS (
                SELECT doc_id, t, L, i,
                       i + CAST({_splitmix_expr_sql(
                           'CAST(doc_id AS UBIGINT)', 8)}
                            % CAST(L - i + 1 AS UBIGINT) AS BIGINT) AS j
                FROM sp
            )
            SELECT doc_id, L AS n_chars, i AS split_i, j AS split_j,
                   '<PRE>' || substring(t, 1, i) || '<SUF>'
                   || substring(t, j + 1) || '<MID>'
                   || substring(t, i + 1, j - i) AS fim_text
            FROM sp2
        """,
        # C4 line rules: parallel UNNEST of lines with ordinality, line
        # predicates mirror the kernel byte-for-byte (space-only trim,
        # [^ ]+ word count, terminal-punct class), page rules on the
        # ORIGINAL text + kept-line count
        "c4_filtered_docs": r"""
            WITH corpus AS (
                SELECT doc_id,
                       'This is a good sentence line ok.' || chr(10)
                       || COALESCE(text, '') || chr(10) || 'tiny.'
                       || CASE WHEN doc_id % 4 = 0 THEN chr(10)
                           || 'Please enable javascript to continue here.'
                           ELSE '' END
                       || CASE WHEN doc_id % 2 = 0 THEN chr(10)
                           || 'Another complete sentence appears right here!'
                           ELSE '' END
                       || CASE WHEN doc_id % 11 = 0 THEN chr(10)
                           || 'this page uses lorem ipsum filler text.'
                           ELSE '' END
                       || CASE WHEN doc_id % 13 = 0 THEN chr(10)
                           || 'function f() { return 1; }'
                           ELSE '' END AS text
                FROM documents
            ), pages AS (
                SELECT doc_id, text, string_split(text, chr(10)) AS ls
                FROM corpus
                WHERE NOT contains(lower(text), 'lorem ipsum')
                  AND NOT contains(text, '{')
            ), ex AS (
                SELECT doc_id, len(ls) AS n_lines, ls,
                       unnest(range(1, len(ls) + 1)) AS ord
                FROM pages
            ), lines AS (
                SELECT doc_id, n_lines, ord,
                       trim(ls[ord], ' ') AS s
                FROM ex
            ), kept AS (
                SELECT doc_id, n_lines, ord, s FROM lines
                WHERE regexp_matches(s, '[.!?"'']$')
                  AND len(regexp_extract_all(s, '[^ ]+')) >= 3
                  AND NOT contains(lower(s), 'javascript')
            )
            SELECT doc_id,
                   string_agg(s, chr(10) ORDER BY ord) AS text,
                   CAST(min(n_lines) AS BIGINT) AS n_lines,
                   CAST(count(*) AS BIGINT) AS n_kept
            FROM kept GROUP BY doc_id
            HAVING count(*) >= 2
        """,
        # script profile: RE2 char classes over the SAME fixed codepoint
        # ranges as ops/text.py _SCRIPT_RANGES; argmax with first-max
        # (latin>cyrillic>greek>han) tie priority
        "script_profile": r"""
            WITH corpus AS (
                SELECT doc_id,
                       CASE
                           WHEN doc_id % 9 = 0
                               THEN repeat(chr(1072) || chr(1073), 40)
                           WHEN doc_id % 3 = 0 THEN COALESCE(text, '')
                               || ' ' || repeat(chr(1072) || chr(1073),
                                                CAST(doc_id % 5 + 1 AS INT))
                           WHEN doc_id % 3 = 1 THEN COALESCE(text, '')
                               || ' ' || repeat(chr(955) || chr(956),
                                                CAST(doc_id % 4 + 1 AS INT))
                           ELSE COALESCE(text, '')
                               || ' ' || repeat(chr(20013) || chr(25991),
                                                CAST(doc_id % 3 + 1 AS INT))
                       END AS text
                FROM documents
            ), counts AS (
                SELECT doc_id,
                       CAST(length(regexp_replace(text,
                           '[^A-Za-z\x{00C0}-\x{024F}]', '', 'g'))
                           AS BIGINT) AS n_latin,
                       CAST(length(regexp_replace(text,
                           '[^\x{0400}-\x{04FF}]', '', 'g'))
                           AS BIGINT) AS n_cyrillic,
                       CAST(length(regexp_replace(text,
                           '[^\x{0370}-\x{03FF}]', '', 'g'))
                           AS BIGINT) AS n_greek,
                       CAST(length(regexp_replace(text,
                           '[^\x{4E00}-\x{9FFF}]', '', 'g'))
                           AS BIGINT) AS n_han
                FROM corpus
            )
            SELECT doc_id, n_latin, n_cyrillic, n_greek, n_han,
                   CASE
                       WHEN n_latin = 0 AND n_cyrillic = 0
                            AND n_greek = 0 AND n_han = 0 THEN 'none'
                       WHEN n_latin >= n_cyrillic AND n_latin >= n_greek
                            AND n_latin >= n_han THEN 'latin'
                       WHEN n_cyrillic >= n_greek AND n_cyrillic >= n_han
                            THEN 'cyrillic'
                       WHEN n_greek >= n_han THEN 'greek'
                       ELSE 'han'
                   END AS main_script
            FROM counts
        """,
        # URL templates: independent host/path re-derivation with DuckDB
        # regexes (lower + www-strip, trailing-slash collapse, digits→N);
        # unparseable rows pass through as host '' / template = raw url
        "url_templates": r"""
            WITH urls AS (
                SELECT doc_id,
                       CASE WHEN doc_id % 17 = 0
                            THEN 'not a url ' || CAST(doc_id AS VARCHAR)
                            ELSE 'https://WWW.Shop'
                             || CAST(doc_id % 5 AS VARCHAR)
                             || '.Example.com'
                             || CASE WHEN doc_id % 3 = 0
                                 THEN '/p/' || CAST(doc_id AS VARCHAR) || '/x'
                                 ELSE '/cat/' || CAST(doc_id % 7 AS VARCHAR)
                                  || '/item/'
                                  || CAST(doc_id * 97 % 1000 AS VARCHAR)
                                END
                             || CASE WHEN doc_id % 2 = 0 THEN '/' ELSE '' END
                             || '?page=' || CAST(doc_id % 4 AS VARCHAR)
                             || '#frag'
                       END AS url
                FROM documents
            ), parsed AS (
                SELECT url,
                       regexp_matches(url,
                           '^[A-Za-z][A-Za-z0-9+.-]*://') AS ok,
                       regexp_replace(lower(regexp_extract(url,
                           '^[A-Za-z][A-Za-z0-9+.-]*://([^/:?#]+)', 1)),
                           '^www\.', '') AS host0,
                       regexp_extract(url,
                           '^[A-Za-z][A-Za-z0-9+.-]*://[^/:?#]+(/[^?#]*)',
                           1) AS path0
                FROM urls
            ), rows_ AS (
                SELECT CASE WHEN ok THEN host0 ELSE '' END AS host,
                       CASE WHEN ok THEN regexp_replace(
                           CASE WHEN regexp_replace(COALESCE(path0, ''),
                                    '/+$', '') = '' THEN '/'
                                ELSE regexp_replace(COALESCE(path0, ''),
                                    '/+$', '') END,
                           '[0-9]+', 'N', 'g')
                            ELSE url END AS template
                FROM parsed
            )
            SELECT host, template, CAST(count(*) AS BIGINT) AS n_pages
            FROM rows_ GROUP BY host, template
        """,
        # mention contexts: words + ordinality parallel unnest, list
        # slice with the same ±2 clamp as the kernel
        "mention_contexts": r"""
            WITH corpus AS (
                SELECT doc_id,
                       CASE WHEN doc_id % 4 = 0 THEN 'alpha leads '
                            ELSE '' END
                       || COALESCE(text, '')
                       || ' sees alpha by the old mill'
                       || CASE WHEN doc_id % 3 = 0 THEN ' beta rises'
                          ELSE '' END
                       || CASE WHEN doc_id % 5 = 0 THEN ' gamma'
                          ELSE '' END AS text
                FROM documents
            ), toks AS (
                SELECT doc_id,
                       regexp_extract_all(lower(text), '[a-z]+') AS ws
                FROM corpus
            ), ex AS (
                SELECT doc_id, ws, unnest(ws) AS term,
                       unnest(range(1, len(ws) + 1)) AS pos
                FROM toks
            )
            SELECT doc_id, CAST(pos AS BIGINT) AS pos, term,
                   array_to_string(ws[greatest(1, pos - 2):
                                      least(len(ws), pos + 2)],
                                   ' ') AS context
            FROM ex
            WHERE term IN ('alpha', 'beta', 'gamma')
        """,
        # cluster-size histogram: the components window CTE + double GROUP BY
        "component_size_hist": """
            WITH g AS (
                SELECT min(doc_id) AS component,
                       CAST(count(*) AS BIGINT) AS size
                FROM documents
                GROUP BY source, lang
                HAVING count(*) > 1
            )
            SELECT size, CAST(count(*) AS BIGINT) AS n_components
            FROM g GROUP BY size
        """,
        # dow×hour heatmap: identical integer epoch arithmetic
        "events_dow_hour": """
            SELECT ((epoch_us(ts) // 86400000000) + 4) % 7 AS dow,
                   (epoch_us(ts) // 3600000000) % 24 AS hour,
                   CAST(count(*) AS BIGINT) AS n_events
            FROM events GROUP BY 1, 2
        """,
        # recency: integer epoch-days, corpus-max anchor
        "customer_order_recency": """
            WITH d AS (
                SELECT o_custkey,
                       epoch_us(o_orderdate) // 86400000000 AS day
                FROM orders
            )
            SELECT o_custkey,
                   CAST((SELECT max(day) FROM d) - max(day) AS BIGINT)
                       AS recency_days,
                   CAST(count(*) AS BIGINT) AS n_orders
            FROM d GROUP BY o_custkey
        """,
        # streaks: the ROW_NUMBER gaps-and-islands idiom over distinct
        # (user, epoch-day) rows
        "activity_streaks": """
            WITH days AS (
                SELECT DISTINCT user_id,
                       epoch_us(ts) // 86400000000 AS day
                FROM events
            ), isl AS (
                SELECT user_id, day,
                       day - ROW_NUMBER() OVER (
                           PARTITION BY user_id ORDER BY day) AS island
                FROM days
            ), runs AS (
                SELECT user_id, island,
                       CAST(count(*) AS BIGINT) AS run
                FROM isl GROUP BY user_id, island
            )
            SELECT user_id,
                   CAST(max(run) AS BIGINT) AS longest_streak,
                   CAST(sum(run) AS BIGINT) AS n_active_days
            FROM runs GROUP BY user_id
        """,
        # gram novelty: string 3-grams (the dup_span_scrub hash↔string
        # equivalence), whole-text gram for <3-word docs, min-doc winners
        "gram_novelty": r"""
            WITH ws AS (
                SELECT doc_id,
                       regexp_split_to_array(
                           lower(trim(COALESCE(text, ''))), '\s+') AS w
                FROM documents
            ), g AS (
                SELECT doc_id, w, len(w) AS n,
                       CASE WHEN len(w) >= 3 THEN len(w) - 2
                            ELSE 1 END AS ng
                FROM ws
            ), grams AS (
                SELECT DISTINCT doc_id,
                       CASE WHEN n >= 3
                            THEN w[i] || ' ' || w[i+1] || ' ' || w[i+2]
                            ELSE array_to_string(w, ' ') END AS gram
                FROM g, UNNEST(range(1, ng + 1)) AS t(i)
            ), firstd AS (
                SELECT gram, min(doc_id) AS fd FROM grams GROUP BY gram
            )
            SELECT gr.doc_id,
                   CAST(count(*) AS BIGINT) AS n_grams,
                   CAST(count(*) FILTER (WHERE f.fd = gr.doc_id)
                        AS BIGINT) AS n_novel,
                   count(*) FILTER (WHERE f.fd = gr.doc_id)
                       / greatest(count(*), 1)::DOUBLE AS novelty
            FROM grams gr JOIN firstd f USING (gram)
            GROUP BY gr.doc_id
        """,
        # Q1 silhouette: integral-double quantities cast to BIGINT on
        # both engines; float money columns excluded by the repo rule
        "lineitem_pricing_summary": """
            SELECT l_returnflag, l_linestatus,
                   CAST(count(*) AS BIGINT) AS count_order,
                   CAST(sum(CAST(l_quantity AS BIGINT)) AS BIGINT)
                       AS sum_qty,
                   CAST(count(DISTINCT l_partkey) AS BIGINT) AS n_parts
            FROM lineitem
            GROUP BY l_returnflag, l_linestatus
        """,
        # weekly order volumes: date_trunc week + LAG delta (first week 0)
        "orders_weekly_deltas": """
            WITH w AS (
                SELECT epoch_us(date_trunc('week', o_orderdate))
                           AS week_start,
                       CAST(count(*) AS BIGINT) AS n_orders
                FROM orders GROUP BY 1
            )
            SELECT week_start, n_orders,
                   CAST(COALESCE(
                       n_orders - LAG(n_orders)
                           OVER (ORDER BY week_start), 0
                   ) AS BIGINT) AS delta
            FROM w
        """,
        # link density: same synthetic anchor corpus, counts re-derived
        # with regexp_extract_all; ratio is one IEEE int/int division
        "link_density": r"""
            WITH pages AS (
                SELECT doc_id,
                       '<html><body><p>' || COALESCE(text, '') || '</p>'
                       || '<a class="x" href="https://site'
                       || CAST(doc_id % 7 AS VARCHAR) || '.example.com/p'
                       || CAST(doc_id % 3 AS VARCHAR)
                       || '">Link One</a>'
                       || '<A HREF="HTTPS://Site'
                       || CAST((doc_id * 3 + 1) % 7 AS VARCHAR)
                       || '.Example.COM/q?a=1"> MORE here </A>'
                       || '<a href="/rel/path">rel</a>'
                       || '</body></html>' AS html
                FROM documents
            ), m AS (
                SELECT doc_id,
                       CAST(length(html) AS BIGINT) AS n_chars,
                       CAST(len(regexp_extract_all(html,
                           '<a\s[^>]*href="([^"]+)"[^>]*>([^<]*)</a>',
                           1, 'is')) AS BIGINT) AS n_links,
                       CAST(length(array_to_string(regexp_extract_all(
                           html,
                           '<a\s[^>]*href="([^"]+)"[^>]*>([^<]*)</a>',
                           2, 'is'), '')) AS BIGINT) AS anchor_chars
                FROM pages
            )
            SELECT doc_id, n_chars, n_links, anchor_chars,
                   anchor_chars / greatest(n_chars, 1)::DOUBLE
                       AS link_char_ratio
            FROM m
        """,
        # bursts: same integer cross-multiplication over window functions
        "event_bursts": """
            WITH w AS (
                SELECT user_id,
                       (epoch_us(ts) // 3600000000) * 3600000000
                           AS window_start
                FROM events
            ), c AS (
                SELECT user_id, window_start,
                       CAST(count(*) AS BIGINT) AS n_events
                FROM w GROUP BY user_id, window_start
            )
            SELECT user_id, window_start, n_events,
                   CAST(sum(n_events) OVER (PARTITION BY user_id)
                        AS BIGINT) AS user_total,
                   CAST(count(*) OVER (PARTITION BY user_id)
                        AS BIGINT) AS n_windows,
                   n_events * (count(*) OVER (PARTITION BY user_id))
                       > 2 * (sum(n_events) OVER (PARTITION BY user_id))
                       AS is_burst
            FROM c
        """,
        # exact integer OLS fractions: HUGEINT moment sums cast to BIGINT,
        # x = whole minutes since the user's first event (epoch_us // 60e6)
        "user_trend_fractions": """
            WITH e AS (
                SELECT user_id,
                       (epoch_us(ts)
                        - min(epoch_us(ts)) OVER (PARTITION BY user_id))
                       // 60000000 AS x,
                       CAST(json_extract_string(props, '$.k') AS BIGINT)
                           AS y
                FROM events
            )
            SELECT user_id,
                   CAST(count(*) AS BIGINT) AS n,
                   CAST(count(*) * sum(x * y) - sum(x) * sum(y) AS BIGINT)
                       AS slope_num,
                   CAST(count(*) * sum(x * x) - sum(x) * sum(x) AS BIGINT)
                       AS slope_den
            FROM e GROUP BY user_id
        """,
        # mixture planning: whitespace token totals per source, ceil-int
        # epochs for a 1M budget, corpus share as one int/int division
        "mixing_weights": r"""
            WITH tok AS (
                SELECT source,
                       CASE WHEN trim(COALESCE(text, '')) = '' THEN 0
                            ELSE len(regexp_split_to_array(
                                trim(text), '\s+')) END AS n_tok
                FROM documents
            ), per AS (
                SELECT source,
                       CAST(count(*) AS BIGINT) AS n_docs,
                       CAST(sum(n_tok) AS BIGINT) AS n_tokens
                FROM tok GROUP BY source
            )
            SELECT source, n_docs, n_tokens,
                   CASE WHEN n_tokens > 0
                        THEN CAST((1000000 + n_tokens - 1) // n_tokens
                                  AS BIGINT)
                        ELSE 0 END AS epochs,
                   n_tokens / (SELECT sum(n_tokens) FROM per)::DOUBLE
                       AS token_share
            FROM per
        """,
        # hubness: the knn_self_join scored CTE + GROUP BY neighbor
        "knn_hubness": """
            WITH scored AS (
                SELECT a.vec_id AS query_id, b.vec_id AS neighbor,
                       list_cosine_similarity(a.embedding, b.embedding)
                           AS cosine
                FROM embeddings a
                JOIN embeddings b ON a.vec_id <> b.vec_id
            ), topk AS (
                SELECT query_id, neighbor FROM (
                    SELECT query_id, neighbor,
                           row_number() OVER (
                               PARTITION BY query_id
                               ORDER BY cosine DESC, neighbor ASC) AS rank
                    FROM scored
                ) WHERE rank <= 5
            )
            SELECT neighbor AS vec_id,
                   CAST(count(*) AS BIGINT) AS in_degree
            FROM topk GROUP BY neighbor
        """,
        # taxonomy closure: WITH RECURSIVE over the same ternary parent
        # rule — the O(depth) re-derivation of the O(log depth) doubling
        "taxonomy_closure": r"""
            WITH RECURSIVE anc(node, ancestor, depth) AS (
                SELECT doc_id, (doc_id - 1) // 3, CAST(1 AS BIGINT)
                FROM documents WHERE doc_id > 0
                UNION ALL
                SELECT node, (ancestor - 1) // 3, depth + 1
                FROM anc WHERE ancestor > 0
            )
            SELECT node, ancestor, depth FROM anc
        """,
        # bag-of-words dedup: group by the sorted-distinct-words string
        # (the Ray side hashes the same canonical form map-side)
        "wordset_dedup": r"""
            WITH canon AS (
                SELECT doc_id,
                       array_to_string(list_sort(list_distinct(
                           regexp_split_to_array(
                               lower(trim(COALESCE(text, ''))), '\s+'))),
                           ' ') AS ws,
                       len(list_distinct(regexp_split_to_array(
                           lower(trim(COALESCE(text, ''))), '\s+')))
                           AS nw
                FROM documents
            )
            SELECT min(doc_id) AS doc_id,
                   CAST(count(*) AS BIGINT) AS n_copies,
                   CAST(min(nw) AS BIGINT) AS n_distinct_words
            FROM canon GROUP BY ws
        """,
    }
