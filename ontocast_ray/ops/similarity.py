"""Similarity search over an embedding column (``list<float>``).

- ``knn_bruteforce``: exact cosine top-k. The query matrix ships with the
  map task, every batch computes a vectorized matmul against it and
  emits per-batch PARTIAL top-k rows; a single small groupby(query_id) merge
  picks the global top-k. The shuffle moves k rows per (query, batch) — not
  the corpus.
- ``knn_ivf``: the scale path — seeded k-means-lite centroids (built from a
  driver-side sample), cluster assignment per batch, search only the
  ``n_probe`` closest clusters per query.

Every per-batch stage here is a task map (a function, or an instance such
as ``_PartialTopK(...)``): its state — query matrix, centroids, codebooks,
lookup tables, candidate ids — is small and bounded by the query batch,
so it ships with the task instead of paying an actor pool's spawn.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

import ray
import ray.data

from ontocast_ray.ops.shuffle import shuffle_by
from ontocast_ray.util import vectors_2d


def _normalize(mat: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(mat, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return mat / norms


class _PartialTopK:
    def __init__(self, query_matrix, k: int, id_col: str, vec_col: str):
        self.queries = _normalize(np.asarray(query_matrix, dtype=np.float32))
        self.k = k
        self.id_col = id_col
        self.vec_col = vec_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        if len(batch) == 0:
            return pa.table({"query_id": pa.array([], type=pa.int64()),
                             self.id_col: batch[self.id_col],
                             "cosine": pa.array([], type=pa.float64())})
        ids = np.asarray(batch[self.id_col].to_pylist())
        vecs = _normalize(vectors_2d(batch[self.vec_col]))
        sims = self.queries @ vecs.T  # (n_queries, n_batch)
        k = min(self.k, sims.shape[1])
        q_out, id_out, s_out = [], [], []
        for qi in range(sims.shape[0]):
            # tie-exact partial top-k (cosine desc, id asc): a candidate
            # tied at the k boundary must survive deterministically
            for j in np.lexsort((ids, -sims[qi]))[:k]:
                q_out.append(qi)
                id_out.append(ids[j])
                s_out.append(float(sims[qi, j]))
        return pa.table(
            {
                "query_id": pa.array(q_out, type=pa.int64()),
                self.id_col: pa.array(id_out),
                "cosine": pa.array(s_out, type=pa.float64()),
            }
        )


def _merged_topk(partial, k: int, id_col: str, score: str = "cosine"):
    """Final per-query merge of partial top-k rows: per ``query_id``, the
    ``k`` best by ``score`` desc then ``id_col`` asc, with ``rank`` 1..k and
    ``score`` rounded to 6 places. Shuffled on ``query_id``; the kernel is
    one sort over its whole frame, so its cost does not grow with the
    number of queries in it (a self-join has one query per vector)."""

    def _kernel(df: pd.DataFrame) -> pd.DataFrame:
        top = df.sort_values(
            ["query_id", score, id_col], ascending=[True, False, True]
        ).groupby("query_id", sort=False).head(k)
        top = top.assign(rank=top.groupby("query_id", sort=False).cumcount() + 1)
        top[score] = top[score].round(6)
        return top[["query_id", id_col, score, "rank"]].reset_index(drop=True)

    return shuffle_by(partial, "query_id", _kernel)


def knn_bruteforce(
    embeddings: "ray.data.Dataset",
    query_matrix: np.ndarray,
    k: int = 10,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
) -> "ray.data.Dataset":
    """→ (query_id, vec_id, cosine, rank): exact top-k per query row."""
    partial = embeddings.map_batches(
        _PartialTopK(query_matrix, k, id_col, vec_col), batch_format="pyarrow"
    )
    return _merged_topk(partial, k, id_col)


def kmeans_lite(sample: np.ndarray, n_clusters: int, seed: int = 3, iters: int = 8) -> np.ndarray:
    """Seeded mini k-means on a driver-side sample (centroid table is tiny)."""
    rng = np.random.RandomState(seed)
    sample = _normalize(np.asarray(sample, dtype=np.float32))
    centroids = sample[rng.choice(len(sample), size=min(n_clusters, len(sample)), replace=False)]
    for _ in range(iters):
        sims = sample @ centroids.T
        assign = sims.argmax(axis=1)
        for c in range(len(centroids)):
            members = sample[assign == c]
            if len(members):
                centroids[c] = members.mean(axis=0)
        centroids = _normalize(centroids)
    return centroids


# --- IVF: cluster-partitioned layout + pruned reads ------------------------
#
# A real IVF is two phases:
#   build  — ONE full pass assigns every vector to its nearest centroid and
#            writes a cluster-partitioned Parquet layout
#            (index_dir/cluster=<c>/...) plus the centroid table;
#   search — reads ONLY the partitions probed by the query batch. At 100 TB
#            with n_probe/n_clusters = 4/1024, a query touches ~0.4% of the
#            bytes a full scan would.


def build_ivf_index(
    embeddings: "ray.data.Dataset",
    index_dir: str,
    n_clusters: int = 16,
    sample_size: int = 2000,
    seed: int = 3,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    min_rows_per_file: int = 50_000,
) -> np.ndarray:
    """One pass over the corpus → cluster-partitioned layout; returns centroids.

    Centroids come from a bounded driver-side sample (kmeans on the full
    corpus would be its own distributed job; a seeded sample is the standard
    IVF trade-off and keeps the table tiny enough to broadcast).
    """
    import json
    import os

    sample_rows = embeddings.limit(sample_size).take_all()
    sample = np.array([r[vec_col] for r in sample_rows], dtype=np.float32)
    centroids = kmeans_lite(sample, n_clusters, seed=seed)

    def assign_cluster(batch: pa.Table) -> pa.Table:
        if len(batch) == 0:
            out = batch.append_column("cluster", pa.array([], type=pa.int32()))
            return out.append_column("cluster_id", pa.array([], type=pa.int32()))
        vecs = _normalize(vectors_2d(batch[vec_col]))
        assign = (vecs @ centroids.T).argmax(axis=1).astype(np.int32)
        # "cluster" becomes the hive partition key (stripped from data
        # files); "cluster_id" stays physical so probed reads see it
        out = batch.append_column("cluster", pa.array(assign))
        return out.append_column("cluster_id", pa.array(assign))

    # materialize: a task map fused into a min_rows_per_file write runs on
    # input bundled up to that many rows, i.e. one task for a small corpus
    embeddings.map_batches(assign_cluster, batch_format="pyarrow").materialize().write_parquet(
        index_dir, partition_cols=["cluster"], min_rows_per_file=min_rows_per_file
    )
    np.save(os.path.join(index_dir, "centroids.npy"), centroids)
    with open(os.path.join(index_dir, "ivf_meta.json"), "w", encoding="utf-8") as fh:
        json.dump(
            {"n_clusters": int(len(centroids)), "id_col": id_col, "vec_col": vec_col},
            fh,
        )
    return centroids


def ivf_probe_paths(index_dir: str, probed: set[int]) -> tuple[list[str], int]:
    """(paths of probed partitions, total partition count) — the read prune."""
    import glob
    import os

    all_parts = sorted(glob.glob(os.path.join(index_dir, "cluster=*")))
    paths = []
    for p in all_parts:
        if int(os.path.basename(p).split("=", 1)[1]) in probed:
            paths.extend(sorted(glob.glob(os.path.join(p, "*.parquet"))))
    return paths, len(all_parts)


def knn_ivf_search(
    index_dir: str,
    query_matrix: np.ndarray,
    k: int = 10,
    n_probe: int = 4,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
) -> "ray.data.Dataset":
    """ANN top-k over a built IVF index; reads only probed partitions."""
    import os

    centroids = np.load(os.path.join(index_dir, "centroids.npy"))
    queries = _normalize(np.asarray(query_matrix, dtype=np.float32))
    probes = np.argsort(-(queries @ centroids.T), axis=1)[:, :n_probe]  # (nq, n_probe)
    probe_sets = [set(map(int, row)) for row in probes]
    union_probed = set().union(*probe_sets) if probe_sets else set()
    paths, _total = ivf_probe_paths(index_dir, union_probed)
    if not paths:
        return ray.data.from_arrow(
            pa.table({"query_id": pa.array([], type=pa.int64()),
                      id_col: pa.array([], type=pa.int64()),
                      "cosine": pa.array([], type=pa.float64()),
                      "rank": pa.array([], type=pa.int64())})
        )

    def probed_topk(batch: pa.Table) -> pa.Table:
        if len(batch) == 0:
            return pa.table({"query_id": pa.array([], type=pa.int64()),
                             id_col: batch[id_col],
                             "cosine": pa.array([], type=pa.float64())})
        ids = np.asarray(batch[id_col].to_pylist())
        vecs = _normalize(vectors_2d(batch[vec_col]))
        assign = np.asarray(batch["cluster_id"].to_pylist())
        q_out, id_out, s_out = [], [], []
        for qi, probe in enumerate(probe_sets):
            mask = np.isin(assign, list(probe))
            if not mask.any():
                continue
            sub = vecs[mask]
            sub_ids = ids[mask]
            sims = queries[qi] @ sub.T
            kk = min(k, len(sub_ids))
            for j in np.lexsort((sub_ids, -sims))[:kk]:  # tie-exact
                q_out.append(qi)
                id_out.append(sub_ids[j])
                s_out.append(float(sims[j]))
        return pa.table(
            {
                "query_id": pa.array(q_out, type=pa.int64()),
                id_col: pa.array(id_out),
                "cosine": pa.array(s_out, type=pa.float64()),
            }
        )

    partial = ray.data.read_parquet(
        paths, columns=[id_col, vec_col, "cluster_id"]
    ).map_batches(probed_topk, batch_format="pyarrow")
    return _merged_topk(partial, k, id_col)


def knn_ivf(
    embeddings: "ray.data.Dataset",
    query_matrix: np.ndarray,
    k: int = 10,
    n_clusters: int = 16,
    n_probe: int = 4,
    sample_size: int = 2000,
    seed: int = 3,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    index_dir: str | None = None,
) -> "ray.data.Dataset":
    """Build-then-search convenience: one-shot IVF ANN.

    For repeated queries call build_ivf_index once and knn_ivf_search per
    query batch — the build is the full-corpus pass, the search is pruned.
    With ``index_dir`` None the index lives in a temp dir that is removed
    before returning: the search's final ``shuffle_by`` has already read
    the probed clusters.
    """
    import shutil
    import tempfile

    tmp = None
    if index_dir is None:
        index_dir = tmp = tempfile.mkdtemp(prefix="ivf_index_")
    try:
        build_ivf_index(
            embeddings, index_dir, n_clusters=n_clusters,
            sample_size=sample_size, seed=seed, id_col=id_col, vec_col=vec_col,
        )
        return knn_ivf_search(
            index_dir, query_matrix, k=k, n_probe=n_probe,
            id_col=id_col, vec_col=vec_col,
        )
    finally:
        if tmp is not None:
            shutil.rmtree(tmp, ignore_errors=True)


# --- Product quantization (PQ): compressed codes + ADC search ---------------
#
# At 100 TB, float32 embeddings are the dominant bytes; PQ stores each
# vector as m uint8 codes (16-64x smaller), and search reads codes + one
# (m, n_codes) lookup table per query — asymmetric distance computation.


def train_pq(
    sample: np.ndarray, m: int = 8, n_codes: int = 256, seed: int = 13, iters: int = 10
) -> np.ndarray:
    """→ (m, n_codes, dsub) codebooks: per-subspace k-means on a sample."""
    sample = _normalize(np.asarray(sample, dtype=np.float32))
    n, dim = sample.shape
    if dim % m:
        raise ValueError("dim must be divisible by m")
    dsub = dim // m
    rng = np.random.RandomState(seed)
    books = np.empty((m, n_codes, dsub), dtype=np.float32)
    for j in range(m):
        sub = sample[:, j * dsub:(j + 1) * dsub]
        k = min(n_codes, len(sub))
        cents = sub[rng.choice(len(sub), size=k, replace=False)].copy()
        for _ in range(iters):
            d = ((sub[:, None, :] - cents[None, :, :]) ** 2).sum(axis=2)
            assign = d.argmin(axis=1)
            for c in range(k):
                members = sub[assign == c]
                if len(members):
                    cents[c] = members.mean(axis=0)
        if k < n_codes:  # pad duplicate centroids so codes always fit uint8
            cents = np.vstack([cents, np.repeat(cents[:1], n_codes - k, axis=0)])
        books[j] = cents
    return books


def pq_encode(vecs: np.ndarray, codebooks: np.ndarray) -> np.ndarray:
    """(n, dim) normalized vectors → (n, m) uint8 codes."""
    n = len(vecs)
    m, n_codes, dsub = codebooks.shape
    codes = np.empty((n, m), dtype=np.uint8)
    for j in range(m):
        sub = vecs[:, j * dsub:(j + 1) * dsub]
        d = ((sub[:, None, :] - codebooks[j][None, :, :]) ** 2).sum(axis=2)
        codes[:, j] = d.argmin(axis=1).astype(np.uint8)
    return codes


def build_pq_index(
    embeddings: "ray.data.Dataset",
    index_dir: str,
    m: int = 8,
    n_codes: int = 256,
    sample_size: int = 2000,
    seed: int = 13,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    min_rows_per_file: int = 100_000,
) -> np.ndarray:
    """One pass: train codebooks on a bounded sample, encode every vector to
    m uint8 codes, write the compact code table. Returns the codebooks."""
    import os

    sample_rows = embeddings.limit(sample_size).take_all()
    sample = np.array([r[vec_col] for r in sample_rows], dtype=np.float32)
    codebooks = train_pq(sample, m=m, n_codes=n_codes, seed=seed)

    def pq_encode_batch(batch: pa.Table) -> pa.Table:
        if len(batch) == 0:
            return pa.table({id_col: batch[id_col],
                             "pq_code": pa.array([], type=pa.binary())})
        vecs = _normalize(vectors_2d(batch[vec_col]))
        codes = pq_encode(vecs, codebooks)
        return pa.table(
            {id_col: batch[id_col],
             "pq_code": pa.array([c.tobytes() for c in codes], type=pa.binary())}
        )

    os.makedirs(index_dir, exist_ok=True)
    # materialized before the coalescing write, as in build_ivf_index
    embeddings.map_batches(pq_encode_batch, batch_format="pyarrow").materialize().write_parquet(
        os.path.join(index_dir, "codes"), min_rows_per_file=min_rows_per_file
    )
    np.save(os.path.join(index_dir, "pq_codebooks.npy"), codebooks)
    return codebooks


def build_ivfpq_index(
    embeddings: "ray.data.Dataset",
    index_dir: str,
    n_clusters: int = 16,
    m: int = 8,
    n_codes: int = 256,
    sample_size: int = 2000,
    seed: int = 3,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    min_rows_per_file: int = 50_000,
) -> tuple[np.ndarray, np.ndarray]:
    """IVF-PQ build: ONE pass assigns every vector to its nearest centroid,
    PQ-encodes it, and writes a cluster-partitioned layout carrying BOTH the
    uint8 codes and the float vectors as separate columns.  The ADC scan
    then reads only (id, code, cluster) columns of probed partitions —
    columnar pruning makes the candidate scan ~m bytes/vector — and the
    re-rank pass reads the float column for just the candidate ids.
    Returns (centroids, codebooks)."""
    import json
    import os

    sample_rows = embeddings.limit(sample_size).take_all()
    sample = np.array([r[vec_col] for r in sample_rows], dtype=np.float32)
    centroids = kmeans_lite(sample, n_clusters, seed=seed)
    codebooks = train_pq(sample, m=m, n_codes=n_codes, seed=seed)

    def assign_encode(batch: pa.Table) -> pa.Table:
        if len(batch) == 0:
            return pa.table(
                {id_col: batch[id_col], vec_col: batch[vec_col],
                 "pq_code": pa.array([], type=pa.binary()),
                 "cluster": pa.array([], type=pa.int32()),
                 "cluster_id": pa.array([], type=pa.int32())}
            )
        vecs = _normalize(vectors_2d(batch[vec_col]))
        assign = (vecs @ centroids.T).argmax(axis=1).astype(np.int32)
        codes = pq_encode(vecs, codebooks)
        return pa.table(
            {id_col: batch[id_col], vec_col: batch[vec_col],
             "pq_code": pa.array([c.tobytes() for c in codes], type=pa.binary()),
             "cluster": pa.array(assign), "cluster_id": pa.array(assign)}
        )

    # materialized before the coalescing write, as in build_ivf_index
    embeddings.map_batches(assign_encode, batch_format="pyarrow").materialize().write_parquet(
        index_dir, partition_cols=["cluster"], min_rows_per_file=min_rows_per_file
    )
    np.save(os.path.join(index_dir, "centroids.npy"), centroids)
    np.save(os.path.join(index_dir, "pq_codebooks.npy"), codebooks)
    with open(os.path.join(index_dir, "ivfpq_meta.json"), "w", encoding="utf-8") as fh:
        json.dump({"n_clusters": int(len(centroids)), "m": int(m),
                   "id_col": id_col, "vec_col": vec_col}, fh)
    return centroids, codebooks


def knn_ivfpq_rerank_search(
    index_dir: str,
    query_matrix: np.ndarray,
    k: int = 10,
    n_probe: int = 4,
    rerank_factor: int = 4,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
) -> "ray.data.Dataset":
    """Two-phase ANN over an IVF-PQ index:

    1. ADC candidate scan — probed partitions, code column only, top-k′
       (k′ = rerank_factor·k) per query by approximate cosine;
    2. exact re-rank — float vectors of the SAME probed partitions,
       map-side filtered to the candidate ids (a bounded nq·k′ set that
       ships with the task), exact cosine, final top-k.

    The re-rank repairs PQ quantization error: recall-vs-bruteforce is
    asserted ≥ 0.9 in tests (tests/test_ops.py)."""
    import os

    centroids = np.load(os.path.join(index_dir, "centroids.npy"))
    codebooks = np.load(os.path.join(index_dir, "pq_codebooks.npy"))
    m, n_codes, dsub = codebooks.shape
    queries = _normalize(np.asarray(query_matrix, dtype=np.float32))
    probes = np.argsort(-(queries @ centroids.T), axis=1)[:, :n_probe]
    probe_sets = [set(map(int, row)) for row in probes]
    union_probed = set().union(*probe_sets) if probe_sets else set()
    paths, _total = ivf_probe_paths(index_dir, union_probed)
    empty = pa.table({"query_id": pa.array([], type=pa.int64()),
                      id_col: pa.array([], type=pa.int64()),
                      "cosine": pa.array([], type=pa.float64()),
                      "rank": pa.array([], type=pa.int64())})
    if not paths:
        return ray.data.from_arrow(empty)

    k_prime = max(k, rerank_factor * k)
    luts = np.einsum(
        "qmd,mcd->qmc", queries.reshape(len(queries), m, dsub), codebooks
    ).astype(np.float32)

    def adc_candidates(batch: pa.Table) -> pa.Table:
        n = len(batch)
        if n == 0:
            return pa.table({"query_id": pa.array([], type=pa.int64()),
                             id_col: batch[id_col],
                             "adc": pa.array([], type=pa.float64())})
        ids = np.asarray(batch[id_col].to_pylist())
        assign = batch["cluster_id"].to_numpy(zero_copy_only=False)
        blob = b"".join(batch["pq_code"].to_pylist())
        codes = np.frombuffer(blob, dtype=np.uint8).reshape(n, m)
        cols = np.arange(m)
        q_out, id_out, s_out = [], [], []
        for qi, probe in enumerate(probe_sets):
            mask = np.isin(assign, list(probe))
            if not mask.any():
                continue
            sims = luts[qi][cols[None, :], codes[mask]].sum(axis=1)
            kk = min(k_prime, int(mask.sum()))
            sub_ids = ids[mask]
            top = np.lexsort((sub_ids, -sims))[:kk]  # tie-exact
            q_out.extend([qi] * kk)
            id_out.extend(sub_ids[top])
            s_out.extend(float(s) for s in sims[top])
        return pa.table({"query_id": pa.array(q_out, type=pa.int64()),
                         id_col: pa.array(id_out),
                         "adc": pa.array(s_out, type=pa.float64())})

    # phase 1: code-column-only scan of probed partitions
    candidates = _merged_topk(
        ray.data.read_parquet(paths, columns=[id_col, "pq_code", "cluster_id"])
        .map_batches(adc_candidates, batch_format="pyarrow"),
        k_prime, id_col, score="adc",
    ).take_all()  # bounded: nq × k′ rows — NOT corpus-sized
    cand_ids: dict[int, set] = {}
    for r in candidates:
        cand_ids.setdefault(int(r["query_id"]), set()).add(r[id_col])
    if not cand_ids:
        return ray.data.from_arrow(empty)

    def exact_rerank(batch: pa.Table) -> pa.Table:
        if len(batch) == 0:
            return pa.table({"query_id": pa.array([], type=pa.int64()),
                             id_col: batch[id_col],
                             "cosine": pa.array([], type=pa.float64())})
        ids = np.asarray(batch[id_col].to_pylist())
        vecs = _normalize(vectors_2d(batch[vec_col]))
        q_out, id_out, s_out = [], [], []
        for qi, cset in cand_ids.items():
            mask = np.isin(ids, list(cset))
            if not mask.any():
                continue
            sims = queries[qi] @ vecs[mask].T
            for i, s in zip(ids[mask], sims):
                q_out.append(qi)
                id_out.append(i)
                s_out.append(float(s))
        return pa.table({"query_id": pa.array(q_out, type=pa.int64()),
                         id_col: pa.array(id_out),
                         "cosine": pa.array(s_out, type=pa.float64())})

    # phase 2: float column of the same probed partitions, candidate-filtered
    rerank = ray.data.read_parquet(paths, columns=[id_col, vec_col]).map_batches(
        exact_rerank, batch_format="pyarrow"
    )
    return _merged_topk(rerank, k, id_col)


def knn_pq_search(
    index_dir: str,
    query_matrix: np.ndarray,
    k: int = 10,
    id_col: str = "vec_id",
) -> "ray.data.Dataset":
    """ADC search over PQ codes: one (m, n_codes) dot-product table per
    query, approximate cosine = sum of table lookups over the m codes —
    the scan reads ~m bytes per vector instead of 4·dim."""
    import os

    codebooks = np.load(os.path.join(index_dir, "pq_codebooks.npy"))
    m, n_codes, dsub = codebooks.shape
    queries = _normalize(np.asarray(query_matrix, dtype=np.float32))
    # (nq, m, n_codes): dot of each query subvector with every codeword
    luts = np.einsum(
        "qmd,mcd->qmc", queries.reshape(len(queries), m, dsub), codebooks
    ).astype(np.float32)

    def adc_topk(batch: pa.Table) -> pa.Table:
        n = len(batch)
        if n == 0:
            return pa.table({"query_id": pa.array([], type=pa.int64()),
                             id_col: batch[id_col],
                             "cosine": pa.array([], type=pa.float64())})
        ids = np.asarray(batch[id_col].to_pylist())
        blob = b"".join(batch["pq_code"].to_pylist())
        codes = np.frombuffer(blob, dtype=np.uint8).reshape(n, m)
        q_out, id_out, s_out = [], [], []
        cols = np.arange(m)
        for qi in range(len(luts)):
            sims = luts[qi][cols[None, :], codes].sum(axis=1)  # (n,)
            kk = min(k, n)
            top = np.lexsort((ids, -sims))[:kk]  # tie-exact
            q_out.extend([qi] * kk)
            id_out.extend(ids[top])
            s_out.extend(float(s) for s in sims[top])
        return pa.table(
            {"query_id": pa.array(q_out, type=pa.int64()),
             id_col: pa.array(id_out),
             "cosine": pa.array(s_out, type=pa.float64())}
        )

    partial = ray.data.read_parquet(os.path.join(index_dir, "codes")).map_batches(
        adc_topk, batch_format="pyarrow"
    )
    return _merged_topk(partial, k, id_col)


def knn_self_join(
    embeddings: "ray.data.Dataset",
    k: int = 10,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    max_rows_per_shard: int = 100_000,
    chunk: int = 1024,
) -> "ray.data.Dataset":
    """EXACT all-pairs kNN join — every vector's top-k cosine neighbors
    among ALL OTHER vectors, where BOTH sides are datasets (no broadcast
    query matrix): the primitive behind embedding-graph construction,
    kNN-LM datastore linking, and near-dup graph seeding.

    → (query_id, {id_col} as neighbor, cosine, rank). Exact (brute force),
    never materializes the corpus on one worker: rows are hash-sharded
    into S = ⌈n / max_rows_per_shard⌉ shards and every unordered shard
    pair (a,b) gets its OWN reducer holding ≤ 2·max(shard) rows — the
    same bounded pair-group scheme as the SemDeDup oversized-cluster
    guard. Each reducer emits per-row PARTIAL top-k (≤ k rows per (row,
    shard)), and the global merge is the repo's coarse ``hash(query_id) % P``
    fold. Total shipped data is S copies of the vectors (= n²/
    max_rows_per_shard rows — the inherent all-pairs cost, streamed);
    compute is the unavoidable O(n²) matmul, tiled ``chunk`` rows at a
    time. For approximate-but-cheaper joins at extreme n, cluster both
    sides with the IVF layout and run this per probed cluster pair.
    """
    from ontocast_ray.util import hash_u64

    n = embeddings.count()
    s = max(1, -(-n // max_rows_per_shard))

    def _expand(batch: pa.Table) -> pa.Table:
        m = len(batch)
        sub = batch.select([id_col, vec_col])
        if m == 0:
            return pa.table(
                {"pg": pa.array([], type=pa.int64()),
                 "shard": pa.array([], type=pa.int64()),
                 id_col: sub[id_col],
                 vec_col: sub[vec_col]}
            )
        shard = (hash_u64(batch[id_col]) % np.uint64(s)).astype(np.int64)
        idx_all = np.arange(m, dtype=np.int64)
        take, pgs, shs = [], [], []
        for b in range(s):
            lo = np.minimum(shard, b)
            hi = np.maximum(shard, b)
            take.append(idx_all)
            pgs.append(lo * s + hi)
            shs.append(shard)
        out = sub.take(pa.array(np.concatenate(take)))
        return pa.table(
            {"pg": pa.array(np.concatenate(pgs)),
             "shard": pa.array(np.concatenate(shs)),
             id_col: out[id_col],
             vec_col: out[vec_col]}
        )

    def _side_topk(nv_q, ids_q, nv_c, ids_c, same_side: bool):
        """Partial top-k of each query row against the candidate side;
        same_side excludes the identical row (by position). Tie-EXACT:
        lexsort on (cosine desc, id asc) so a candidate tied at the k
        boundary is kept deterministically (duplicate/zero vectors tie on
        cosine; argpartition would pick arbitrarily)."""
        rows_q, rows_n, rows_s = [], [], []
        for lo in range(0, len(nv_q), chunk):
            hi = min(lo + chunk, len(nv_q))
            sims = nv_q[lo:hi] @ nv_c.T
            if same_side:
                for r in range(lo, hi):
                    sims[r - lo, r] = -np.inf
            kk = min(k, sims.shape[1])
            for r in range(hi - lo):
                cand = np.lexsort((ids_c, -sims[r]))[:kk]
                cand = cand[np.isfinite(sims[r, cand])]
                rows_q.append(np.full(len(cand), ids_q[lo + r]))
                rows_n.append(ids_c[cand])
                rows_s.append(sims[r, cand])
        if not rows_q:
            return (np.zeros(0, np.int64),) * 2 + (np.zeros(0, np.float64),)
        return (
            np.concatenate(rows_q),
            np.concatenate(rows_n),
            np.concatenate(rows_s).astype(np.float64),
        )

    def _pair(group: pd.DataFrame) -> pd.DataFrame:
        pg = int(group["pg"].iloc[0])
        lo_s, hi_s = pg // s, pg % s
        def norm_of(g):
            vecs = np.asarray(list(g[vec_col]), dtype=np.float64)
            nr = np.linalg.norm(vecs, axis=1, keepdims=True)
            nr[nr == 0] = 1.0
            return vecs / nr
        if lo_s == hi_s:
            nv = norm_of(group)
            ids = group[id_col].to_numpy()
            q, nb, sc = _side_topk(nv, ids, nv, ids, same_side=True)
        else:
            ga = group[group["shard"] == lo_s]
            gb = group[group["shard"] == hi_s]
            if len(ga) == 0 or len(gb) == 0:
                return pd.DataFrame(
                    {"query_id": pd.Series([], dtype="int64"),
                     "neighbor": pd.Series([], dtype="int64"),
                     "cosine": pd.Series([], dtype="float64")}
                )
            nva, nvb = norm_of(ga), norm_of(gb)
            ida = ga[id_col].to_numpy()
            idb = gb[id_col].to_numpy()
            qa, na_, sa = _side_topk(nva, ida, nvb, idb, same_side=False)
            qb, nb_, sb = _side_topk(nvb, idb, nva, ida, same_side=False)
            q = np.concatenate([qa, qb])
            nb = np.concatenate([na_, nb_])
            sc = np.concatenate([sa, sb])
        return pd.DataFrame({"query_id": q, "neighbor": nb, "cosine": sc})

    partial = (
        embeddings.map_batches(_expand, batch_format="pyarrow")
        .groupby("pg")
        .map_groups(_pair, batch_format="pandas")
    )

    return _merged_topk(partial, k, "neighbor")


def knn_join_ivf(
    embeddings: "ray.data.Dataset",
    k: int = 10,
    n_clusters: int = 16,
    n_probe: int = 2,
    sample_size: int = 2000,
    seed: int = 3,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    chunk: int = 1024,
) -> "ray.data.Dataset":
    """IVF-bucketed approximate kNN self-join — the scale path of
    ``knn_self_join``: instead of all shard pairs (O(n²) compute), every
    vector is a CANDIDATE in its own nearest-centroid cluster and a QUERY
    in its ``n_probe`` nearest clusters, so compute drops to
    ~n²·n_probe/n_clusters and each reducer holds one cluster. Standard
    IVF semantics: neighbors outside the probed clusters are missed;
    within the probed candidate set the result is exact (the recall knob
    is n_probe/n_clusters).

    → (query_id, neighbor, cosine, rank). Deterministic end-to-end
    (seeded ``kmeans_lite`` on a bounded head sample — the
    ``build_ivf_index`` recipe — and pure argmax assignment), so the
    oracle is a pinned golden. One shuffle (cluster groupby) + the coarse
    ``hash(query_id) % P`` merge."""
    sample_rows = embeddings.limit(sample_size).take_all()
    sample = np.array([r[vec_col] for r in sample_rows], dtype=np.float32)
    centroids = kmeans_lite(sample, n_clusters, seed=seed)
    cents_ref = ray.put(centroids)

    def _expand(batch: pa.Table) -> pa.Table:
        m = len(batch)
        if m == 0:
            return pa.table(
                {"cluster": pa.array([], type=pa.int64()),
                 "role": pa.array([], type=pa.int8()),
                 id_col: batch[id_col],
                 vec_col: batch[vec_col]}
            )
        cents = ray.get(cents_ref)
        vecs = _normalize(vectors_2d(batch[vec_col]))
        sims = vecs @ cents.T
        own = sims.argmax(axis=1).astype(np.int64)
        npb = min(n_probe, sims.shape[1])
        probes = np.argpartition(-sims, kth=npb - 1, axis=1)[:, :npb].astype(
            np.int64
        )
        idx_all = np.arange(m, dtype=np.int64)
        take = [idx_all]
        clusters = [own]
        roles = [np.zeros(m, dtype=np.int8)]  # candidate in own cluster
        for j in range(npb):
            take.append(idx_all)
            clusters.append(probes[:, j])
            roles.append(np.ones(m, dtype=np.int8))  # query in probed cluster
        out = batch.select([id_col, vec_col]).take(
            pa.array(np.concatenate(take))
        )
        return pa.table(
            {"cluster": pa.array(np.concatenate(clusters)),
             "role": pa.array(np.concatenate(roles)),
             id_col: out[id_col],
             vec_col: out[vec_col]}
        )

    def _cluster_topk(group: pd.DataFrame) -> pd.DataFrame:
        cand = group[group["role"] == 0]
        qry = group[group["role"] == 1]
        if len(cand) == 0 or len(qry) == 0:
            return pd.DataFrame(
                {"query_id": pd.Series([], dtype="int64"),
                 "neighbor": pd.Series([], dtype="int64"),
                 "cosine": pd.Series([], dtype="float64")}
            )

        def norm_of(g):
            vecs = np.asarray(list(g[vec_col]), dtype=np.float64)
            nr = np.linalg.norm(vecs, axis=1, keepdims=True)
            nr[nr == 0] = 1.0
            return vecs / nr

        nv_q, nv_c = norm_of(qry), norm_of(cand)
        ids_q = qry[id_col].to_numpy()
        ids_c = cand[id_col].to_numpy()
        rows_q, rows_n, rows_s = [], [], []
        for lo in range(0, len(nv_q), chunk):
            hi = min(lo + chunk, len(nv_q))
            sims = nv_q[lo:hi] @ nv_c.T
            # self-pairs: a query probing its own cluster meets itself
            self_mask = ids_c[None, :] == ids_q[lo:hi, None]
            sims[self_mask] = -np.inf
            kk = min(k, sims.shape[1])
            for r in range(hi - lo):
                # tie-exact partial top-k (cosine desc, id asc) — see
                # _side_topk in knn_self_join
                c = np.lexsort((ids_c, -sims[r]))[:kk]
                c = c[np.isfinite(sims[r, c])]
                rows_q.append(np.full(len(c), ids_q[lo + r]))
                rows_n.append(ids_c[c])
                rows_s.append(sims[r, c])
        if not rows_q:
            return pd.DataFrame(
                {"query_id": pd.Series([], dtype="int64"),
                 "neighbor": pd.Series([], dtype="int64"),
                 "cosine": pd.Series([], dtype="float64")}
            )
        return pd.DataFrame(
            {"query_id": np.concatenate(rows_q),
             "neighbor": np.concatenate(rows_n),
             "cosine": np.concatenate(rows_s).astype(np.float64)}
        )

    partial = (
        embeddings.map_batches(_expand, batch_format="pyarrow")
        .groupby("cluster")
        .map_groups(_cluster_topk, batch_format="pandas")
    )

    return _merged_topk(partial, k, "neighbor")


def knn_recall(
    approx: "ray.data.Dataset",
    exact: "ray.data.Dataset",
    query_col: str = "query_id",
    id_col: str = "vec_id",
) -> "ray.data.Dataset":
    """→ (query_id, n_exact, n_hits, recall): per-query recall of an
    approximate kNN result against the exact one — the evaluation step
    every ANN deployment runs before trusting an index (recall@k is THE
    quality metric for IVF/PQ/LSH tuning).

    Both inputs are (query_col, id_col, ...) top-k tables, ≤ k rows per
    query, so the one ``hash(query_id) % P`` coarse shuffle moves ~2k
    rows per query regardless of corpus size; the per-part kernel is a
    single vectorized pandas merge + groupby. Ties: membership is by id,
    so two orderings of equal-distance neighbours score identically as
    long as the id SET matches.
    """
    import pandas as pd

    def tag(side: int):
        def _t(batch: pa.Table) -> pa.Table:
            q = batch[query_col].to_numpy(zero_copy_only=False)
            return pa.table(
                {
                    query_col: pa.array(q.astype(np.int64)),
                    id_col: batch[id_col].cast(pa.int64()),
                    "side": pa.array(
                        np.full(len(q), side, dtype=np.int8)
                    ),
                }
            )

        return _t

    def score(df: "pd.DataFrame") -> "pd.DataFrame":
        a = df[df["side"] == 1][[query_col, id_col]]
        e = df[df["side"] == 0][[query_col, id_col]]
        n_exact = e.groupby(query_col).size()
        hits = (
            e.merge(a, on=[query_col, id_col], how="inner")
            .groupby(query_col)
            .size()
        )
        out = pd.DataFrame({
            query_col: n_exact.index.to_numpy(),
            "n_exact": n_exact.to_numpy().astype(np.int64),
            "n_hits": hits.reindex(n_exact.index, fill_value=0)
            .to_numpy().astype(np.int64),
        })
        out["recall"] = out["n_hits"] / out["n_exact"]
        return out

    tagged = approx.map_batches(tag(1), batch_format="pyarrow").union(
        exact.map_batches(tag(0), batch_format="pyarrow")
    )
    return shuffle_by(tagged, query_col, score)


def scalar_quantize_embeddings(
    emb: "ray.data.Dataset",
    vec_col: str = "embedding",
    id_col: str = "vec_id",
    levels: int = 256,
) -> "ray.data.Dataset":
    """Scalar (int8-style) embedding quantization — the cheap compression
    pass before ANN indexing (FAISS SQ8 shape): per-DIMENSION global
    [min, max] ranges, each value mapped to ``floor((v-lo)/(hi-lo)·L)``
    clamped to [0, L-1], reconstruction at bucket centers. → (id_col,
    code_sum, max_abs_err, mean_abs_err): scalar projections of the code
    vector (driver-comparable) plus the per-vector reconstruction error
    the compression report needs.

    Scale shape: the range pass is a per-block dim-wise min/max partial —
    one 2·d-float row per block to the driver (bounded by blocks, never
    rows) — broadcast once; quantization is a pure vectorized map. All
    arithmetic is float64 (f32 inputs upcast exactly), so the SQL oracle
    reproduces bit-for-bit.
    """
    import pandas as pd  # noqa: F401

    import ray

    from ontocast_ray.util import vectors_2d

    # consumed twice (range partials + quantize map): one materialize
    # halves the table read/decode
    emb = emb.materialize()

    def ranges(batch: pa.Table) -> pa.Table:
        v = vectors_2d(batch[vec_col], dtype=np.float64)
        if not len(v):
            return pa.table({"lo": pa.array([], type=pa.list_(pa.float64())),
                             "hi": pa.array([], type=pa.list_(pa.float64()))})
        return pa.table({
            "lo": pa.array([v.min(axis=0).tolist()]),
            "hi": pa.array([v.max(axis=0).tolist()]),
        })

    parts = emb.map_batches(ranges, batch_format="pyarrow").take_all()
    lo = np.min(np.asarray([r["lo"] for r in parts], dtype=np.float64), axis=0)
    hi = np.max(np.asarray([r["hi"] for r in parts], dtype=np.float64), axis=0)
    rng_ref = ray.put((lo, hi))
    L = np.float64(levels)

    def quantize(batch: pa.Table) -> pa.Table:
        lo_, hi_ = ray.get(rng_ref)
        v = vectors_2d(batch[vec_col], dtype=np.float64)
        n = len(v)
        if not n:
            return pa.table({
                id_col: pa.array([], type=pa.int64()),
                "code_sum": pa.array([], type=pa.int64()),
                "max_abs_err": pa.array([], type=pa.float64()),
                "err_l1_fp": pa.array([], type=pa.int64()),
            })
        span = hi_ - lo_
        flat = np.zeros_like(v)
        nz = span > 0
        flat[:, nz] = (v[:, nz] - lo_[nz]) / span[nz]
        code = np.clip(np.floor(flat * L), 0, L - 1)
        recon = np.where(nz, lo_ + (code + 0.5) * (span / L), lo_)
        err = np.abs(v - recon)
        return pa.table({
            id_col: batch[id_col],
            "code_sum": pa.array(code.sum(axis=1).astype(np.int64)),
            "max_abs_err": pa.array(err.max(axis=1)),
            "err_l1_fp": pa.array(
                np.floor(err * np.float64(1 << 20)).astype(np.int64)
                .sum(axis=1)
            ),
        })

    return emb.map_batches(quantize, batch_format="pyarrow")


def knn_hubness(
    knn_pairs: "ray.data.Dataset",
    neighbor_col: str = "neighbor",
) -> "ray.data.Dataset":
    """Hubness report over a kNN graph (the standard ANN-index health
    check: in high dimensions a few 'hub' vectors appear in everyone's
    top-k and poison downstream clustering/retrieval — Radovanović et al.
    2010). Input: any (query_id, neighbor, rank) pair table (exact or
    ANN); → (vec_id, in_degree) counting how many queries list each
    vector among their neighbors.

    The exact_dedup shape: per-block ``np.unique`` combiner so the coarse
    ``hash(neighbor) % P`` shuffle carries one (vec, count) row per
    distinct neighbor per block — never the pair list.
    """
    import pandas as pd

    def partial(batch: pa.Table) -> pa.Table:
        nb = batch[neighbor_col].to_numpy(zero_copy_only=False)
        uniq, cnt = np.unique(nb, return_counts=True)
        return pa.table({
            "vec_id": pa.array(uniq.astype(np.int64)),
            "in_degree": pa.array(cnt.astype(np.int64)),
        })

    def combine(df: "pd.DataFrame") -> "pd.DataFrame":
        g = df.groupby("vec_id", as_index=False)["in_degree"].sum()
        g["in_degree"] = g["in_degree"].astype(np.int64)
        return g[["vec_id", "in_degree"]]

    return shuffle_by(
        knn_pairs.map_batches(partial, batch_format="pyarrow"), "vec_id", combine
    )
