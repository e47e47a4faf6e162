"""Distributed k-means over an embedding column (``list<float>``).

SemDeDup-style semantic clustering (Abbas et al. 2023) runs k-means over
document embeddings, then dedups / curates within clusters. The engine
primitive is Lloyd's algorithm expressed as Ray Data passes:

- **init** — the vectors of the ``k`` smallest ids, found with a per-batch
  partial top-k (never a full sort): deterministic and SQL-expressible.
- **each iteration** — centroids broadcast once (``ray.put``); one
  ``map_batches`` pass assigns every vector to its nearest centroid
  (vectorized ``|x|² - 2x·Cᵀ + |c|²`` argmin) and emits per-batch PARTIAL
  sums (≤k rows per batch: cluster, count, sum-vector blob). Partials are
  tree-reduced — ``repartition(reduce_parts)`` + per-block combine — so the
  driver only ever folds ``reduce_parts × k`` rows regardless of corpus
  size. Empty clusters keep their previous centroid.
- **final pass** — assignment only: (id, cluster).

The corpus is re-read once per pass (iters + 1 passes total); callers
looping many iterations over hot data should ``materialize()`` the
projected input first. Distances and sums are float64 end to end so the
result is reproducible against a DuckDB ``list_distance`` oracle (argmin
flips require distance gaps at the 1e-13 float-noise floor — the same
risk class as the knn_cosine oracles).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray
import ray.data

from ontocast_ray.ops.shuffle import shuffle_by
from ontocast_ray.util import vectors_2d

_PARTIAL_SCHEMA = pa.schema(
    [
        ("cluster", pa.int64()),
        ("count", pa.int64()),
        ("vec_sum", pa.binary()),
    ]
)


def _k_smallest_vectors(
    emb: "ray.data.Dataset", k: int, id_col: str, vec_col: str
) -> np.ndarray:
    """Vectors of the k smallest ids — per-batch partial top-k, then a
    driver-side merge of ≤ k rows per block (no full sort shuffle)."""

    def partial(batch: pa.Table) -> pa.Table:
        if len(batch) == 0:
            return batch.select([id_col, vec_col])
        idx = np.argsort(np.asarray(batch[id_col].to_pylist()))[:k]
        return batch.select([id_col, vec_col]).take(pa.array(idx))

    rows = emb.map_batches(partial, batch_format="pyarrow").take_all()
    rows.sort(key=lambda r: r[id_col])
    return np.asarray([r[vec_col] for r in rows[:k]], dtype=np.float64)


def _assign_ids(vecs: np.ndarray, cents: np.ndarray) -> np.ndarray:
    """Nearest-centroid ids; ties break to the lowest cluster (argmin)."""
    d2 = (
        (vecs * vecs).sum(axis=1, keepdims=True)
        - 2.0 * (vecs @ cents.T)
        + (cents * cents).sum(axis=1)[None, :]
    )
    return d2.argmin(axis=1)


def _partial_sums_factory(cents_ref, vec_col: str):
    def _partials(batch: pa.Table) -> pa.Table:
        if len(batch) == 0:
            return _PARTIAL_SCHEMA.empty_table()
        cents = ray.get(cents_ref)
        vecs = vectors_2d(batch[vec_col], dtype=np.float64)
        assign = _assign_ids(vecs, cents)
        clusters, counts, blobs = [], [], []
        for c in np.unique(assign):
            members = vecs[assign == c]
            clusters.append(int(c))
            counts.append(len(members))
            blobs.append(members.sum(axis=0).tobytes())
        return pa.table(
            {
                "cluster": pa.array(clusters, type=pa.int64()),
                "count": pa.array(counts, type=pa.int64()),
                "vec_sum": pa.array(blobs, type=pa.binary()),
            }
        )

    return _partials


def _combine_partials(batch: pa.Table) -> pa.Table:
    """Fold one block of partials down to ≤ k rows (tree-reduce step)."""
    if len(batch) == 0:
        return _PARTIAL_SCHEMA.empty_table()
    clusters = np.asarray(batch["cluster"].to_pylist())
    counts = np.asarray(batch["count"].to_pylist())
    blobs = batch["vec_sum"].to_pylist()
    out_c, out_n, out_b = [], [], []
    for c in np.unique(clusters):
        mask = clusters == c
        total = np.zeros_like(np.frombuffer(blobs[0], dtype=np.float64))
        for b in np.flatnonzero(mask):
            total = total + np.frombuffer(blobs[b], dtype=np.float64)
        out_c.append(int(c))
        out_n.append(int(counts[mask].sum()))
        out_b.append(total.tobytes())
    return pa.table(
        {
            "cluster": pa.array(out_c, type=pa.int64()),
            "count": pa.array(out_n, type=pa.int64()),
            "vec_sum": pa.array(out_b, type=pa.binary()),
        }
    )


def kmeans_fit(
    emb: "ray.data.Dataset",
    k: int = 8,
    n_iters: int = 2,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    reduce_parts: int = 16,
) -> np.ndarray:
    """Lloyd's k-means → (k, dim) float64 centroid matrix."""
    cents = _k_smallest_vectors(emb, k, id_col, vec_col)
    for _ in range(n_iters):
        cents_ref = ray.put(cents)
        partials = emb.map_batches(
            _partial_sums_factory(cents_ref, vec_col), batch_format="pyarrow"
        )
        rows = (
            partials.repartition(reduce_parts)
            .map_batches(_combine_partials, batch_format="pyarrow")
            .take_all()
        )
        nxt = cents.copy()  # empty cluster keeps its previous centroid
        sums = {}
        counts = {}
        for r in rows:
            c = r["cluster"]
            vec = np.frombuffer(r["vec_sum"], dtype=np.float64)
            sums[c] = sums.get(c, 0.0) + vec
            counts[c] = counts.get(c, 0) + r["count"]
        for c, total in sorted(sums.items()):
            nxt[c] = total / counts[c]
        cents = nxt
    return cents


def kmeans_assign(
    emb: "ray.data.Dataset",
    centroids: np.ndarray,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
) -> "ray.data.Dataset":
    """→ (id_col, cluster): nearest-centroid assignment, one pure map."""
    cents_ref = ray.put(np.asarray(centroids, dtype=np.float64))

    def _assign(batch: pa.Table) -> pa.Table:
        if len(batch) == 0:
            return pa.table(
                {id_col: batch[id_col], "cluster": pa.array([], type=pa.int64())}
            )
        vecs = vectors_2d(batch[vec_col], dtype=np.float64)
        assign = _assign_ids(vecs, ray.get(cents_ref))
        return pa.table(
            {id_col: batch[id_col], "cluster": pa.array(assign, type=pa.int64())}
        )

    return emb.map_batches(_assign, batch_format="pyarrow")


def kmeans_fit_predict(
    emb: "ray.data.Dataset",
    k: int = 8,
    n_iters: int = 2,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    reduce_parts: int = 16,
) -> "ray.data.Dataset":
    """fit + assign → (id_col, cluster)."""
    cents = kmeans_fit(emb, k, n_iters, id_col, vec_col, reduce_parts)
    return kmeans_assign(emb, cents, id_col, vec_col)


def semdedup(
    emb: "ray.data.Dataset",
    k: int = 8,
    n_iters: int = 2,
    threshold: float = 0.35,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    reduce_parts: int = 16,
    chunk: int = 512,
    max_cluster_rows: int = 100_000,
) -> "ray.data.Dataset":
    """SemDeDup (Abbas et al. 2023): k-means, then within each cluster drop
    every vector that has a LOWER-id member with cosine ≥ threshold.

    → (id_col, cluster, keep). The keep rule is order-free (a pure
    predicate on the pair set, not a sequential greedy scan) so it is
    parallelism-invariant and SQL-expressible. One shuffle moves each
    vector to its cluster's reducer; within a cluster the scan is a
    chunked matmul (peak memory ``chunk × cluster_size`` floats). Pick k
    so n/k fits one worker (the paper uses k ≈ n/10⁴).

    **Oversized-cluster guard**: a skewed k-means (one giant cluster —
    common on near-duplicate-heavy corpora) would otherwise send that
    whole cluster to one reducer. Clusters above ``max_cluster_rows`` are
    sub-sharded by a deterministic hash sub-key into S =
    ⌈size/max_cluster_rows⌉ shards, and every unordered shard pair (a,b)
    gets its OWN reducer holding ≤ 2·max(shard) rows; each cross pair is
    evaluated in exactly one pair-group, so the hit predicate — and
    therefore the output — is byte-identical to the single-reducer path
    (the guard bounds MEMORY; the O(m²) pair compute is inherent to the
    rule). Per-id hits are OR-reduced in a coarse ``hash(id) % P``
    groupby. Total shipped data for an oversized cluster is S copies of
    its vectors (= m²/max_cluster_rows), all streamed — nothing touches
    the driver but the k-row cluster-size table."""
    import pandas as pd

    from ontocast_ray.util import hash_u64

    cents = kmeans_fit(emb, k, n_iters, id_col, vec_col, reduce_parts)
    cents_ref = ray.put(cents)

    def _with_cluster(batch: pa.Table) -> pa.Table:
        if len(batch) == 0:
            return batch.append_column("cluster", pa.array([], type=pa.int64()))
        vecs = vectors_2d(batch[vec_col], dtype=np.float64)
        assign = _assign_ids(vecs, ray.get(cents_ref))
        return batch.append_column("cluster", pa.array(assign, type=pa.int64()))

    # materialize(): the assignment map is consumed by 2-3 downstream
    # passes (_sizes take_all, _route_small, _expand_pairs) — without it
    # the k-means assignment AND the upstream read re-execute per consumer
    # (CLAUDE.md lesson: materialize expensive lineage consumed by 2+ ops)
    assigned = (
        emb.map_batches(_with_cluster, batch_format="pyarrow").materialize()
    )

    def _normalized(group: pd.DataFrame) -> np.ndarray:
        vecs = np.asarray(list(group[vec_col]), dtype=np.float64)
        norms = np.linalg.norm(vecs, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        return vecs / norms

    def _cluster_keep(group: pd.DataFrame) -> pd.DataFrame:
        group = group.sort_values(id_col, kind="stable")
        nv = _normalized(group)
        n = len(nv)
        keep = np.ones(n, dtype=bool)
        for lo in range(1, n, chunk):
            hi = min(lo + chunk, n)
            # rows lo..hi vs ALL earlier rows: any lower-id near neighbor?
            sims = nv[lo:hi] @ nv[:hi].T
            tril = np.tril(sims >= threshold, k=lo - 1)
            keep[lo:hi] = ~tril.any(axis=1)
        return pd.DataFrame(
            {
                id_col: group[id_col].to_numpy(),
                "cluster": group["cluster"].to_numpy(),
                "keep": keep,
            }
        )

    # cluster sizes: map-side partial counts folded on the driver (≤ k rows
    # per block; driver state is the k-row size table, never members)
    def _sizes(batch: pa.Table) -> pa.Table:
        c = batch["cluster"].to_numpy(zero_copy_only=False)
        uniq, cnt = np.unique(c, return_counts=True)
        return pa.table(
            {"cluster": pa.array(uniq.astype(np.int64)),
             "n": pa.array(cnt.astype(np.int64))}
        )

    sizes: dict[int, int] = {}
    for r in assigned.map_batches(_sizes, batch_format="pyarrow").take_all():
        sizes[int(r["cluster"])] = sizes.get(int(r["cluster"]), 0) + int(r["n"])
    over = {
        c: -(-n // max_cluster_rows)
        for c, n in sizes.items()
        if max_cluster_rows and n > max_cluster_rows
    }

    if not over:
        return assigned.groupby("cluster").map_groups(
            _cluster_keep, batch_format="pandas"
        )

    over_ref = ray.put(over)
    max_s = max(over.values())

    def _route_small(batch: pa.Table) -> pa.Table:
        ov = ray.get(over_ref)
        c = batch["cluster"].to_numpy(zero_copy_only=False)
        return batch.filter(pa.array(~np.isin(c, list(ov))))

    small_out = (
        assigned.map_batches(_route_small, batch_format="pyarrow")
        .groupby("cluster")
        .map_groups(_cluster_keep, batch_format="pandas")
    )

    def _expand_pairs(batch: pa.Table) -> pa.Table:
        """Oversized-cluster rows → S copies each, one per shard pair-group
        (pg encodes cluster × unordered pair); vectors ride along."""
        ov = ray.get(over_ref)
        c = batch["cluster"].to_numpy(zero_copy_only=False)
        mask = np.isin(c, list(ov))
        sub = batch.filter(pa.array(mask))
        if len(sub) == 0:
            return pa.table(
                {"pg": pa.array([], type=pa.int64()),
                 "shard": pa.array([], type=pa.int64()),
                 "cluster": pa.array([], type=pa.int64()),
                 id_col: pa.array([], type=batch[id_col].type),
                 vec_col: pa.array([], type=batch[vec_col].type)}
            )
        ids = sub[id_col]
        cl = sub["cluster"].to_numpy(zero_copy_only=False)
        shard = hash_u64(ids)  # per-row raw sub-key
        take_parts, pg_parts, shard_parts = [], [], []
        for c_val, s_c in ov.items():  # vectorized per (cluster, b) — the
            idx = np.flatnonzero(cl == c_val)  # loop is O(k·S), not O(rows)
            if len(idx) == 0:
                continue
            a = (shard[idx] % np.uint64(s_c)).astype(np.int64)
            base = int(c_val) * max_s * max_s
            for b in range(s_c):
                lo = np.minimum(a, b)
                hi = np.maximum(a, b)
                take_parts.append(idx)
                pg_parts.append(base + lo * max_s + hi)
                shard_parts.append(a)
        take_idx = np.concatenate(take_parts)
        pgs = np.concatenate(pg_parts)
        shards = np.concatenate(shard_parts)
        out = sub.take(pa.array(take_idx, type=pa.int64()))
        return pa.table(
            {"pg": pa.array(pgs, type=pa.int64()),
             "shard": pa.array(shards, type=pa.int64()),
             "cluster": out["cluster"],
             id_col: out[id_col],
             vec_col: out[vec_col]}
        )

    def _pair_hits(group: pd.DataFrame) -> pd.DataFrame:
        """One shard pair of one oversized cluster → (id, cluster, hit):
        hit = this row has a lower-id neighbor within THIS pair-group's
        comparison set (same-shard pairs only in the (a,a) group; cross
        pairs only in the (a,b) group — each pair evaluated exactly once)."""
        pg = int(group["pg"].iloc[0])
        lo_s, hi_s = (pg // max_s) % max_s, pg % max_s
        if lo_s == hi_s:
            g = group.sort_values(id_col, kind="stable")
            nv = _normalized(g)
            n = len(nv)
            hit = np.zeros(n, dtype=bool)
            for lo in range(1, n, chunk):
                hi = min(lo + chunk, n)
                sims = nv[lo:hi] @ nv[:hi].T
                tril = np.tril(sims >= threshold, k=lo - 1)
                hit[lo:hi] = tril.any(axis=1)
            return pd.DataFrame(
                {id_col: g[id_col].to_numpy(),
                 "cluster": g["cluster"].to_numpy(),
                 "hit": hit}
            )
        ga = group[group["shard"] == lo_s]
        gb = group[group["shard"] == hi_s]
        if len(ga) == 0 or len(gb) == 0:  # one side empty: no cross pairs
            return pd.DataFrame(
                {id_col: group[id_col].to_numpy(),
                 "cluster": group["cluster"].to_numpy(),
                 "hit": np.zeros(len(group), dtype=bool)}
            )
        nva, nvb = _normalized(ga), _normalized(gb)
        ida = ga[id_col].to_numpy()
        idb = gb[id_col].to_numpy()
        hits_a = np.zeros(len(ga), dtype=bool)
        hits_b = np.zeros(len(gb), dtype=bool)
        for lo in range(0, len(ga), chunk):
            hi = min(lo + chunk, len(ga))
            if len(gb) == 0:
                break
            sims = nva[lo:hi] @ nvb.T
            near = sims >= threshold
            hits_a[lo:hi] = (near & (idb[None, :] < ida[lo:hi, None])).any(axis=1)
            hits_b |= (near & (ida[lo:hi, None] < idb[None, :])).any(axis=0)
        return pd.DataFrame(
            {id_col: np.concatenate([ida, idb]),
             "cluster": np.concatenate(
                 [ga["cluster"].to_numpy(), gb["cluster"].to_numpy()]
             ),
             "hit": np.concatenate([hits_a, hits_b])}
        )

    pair_hits = (
        assigned.map_batches(_expand_pairs, batch_format="pyarrow")
        .groupby("pg")
        .map_groups(_pair_hits, batch_format="pandas")
    )

    def _or_reduce(df: pd.DataFrame) -> pd.DataFrame:
        agg = df.groupby(id_col, sort=False).agg(
            cluster=("cluster", "first"), hit=("hit", "any")
        )
        return pd.DataFrame(
            {id_col: agg.index.to_numpy(),
             "cluster": agg["cluster"].to_numpy(),
             "keep": ~agg["hit"].to_numpy()}
        )

    big_out = shuffle_by(pair_hits, id_col, _or_reduce)
    return small_out.union(big_out)
