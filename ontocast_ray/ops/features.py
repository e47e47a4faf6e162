"""Feature-engineering ops: per-group scaling and crosstab pivots.

- **group_minmax_scale**: the standard per-entity feature normalization
  ``(v - min_g) / (max_g - min_g)``. ONE coarse ``hash(key) % P`` shuffle
  colocates each group's rows; the per-partition kernel derives min/max
  with two C ``groupby().transform`` calls and scales in place — no
  group-cardinality table ever reaches the driver (at 10^9 groups a
  broadcast two-pass would not fit; colocating costs one data shuffle and
  holds at any group count). min/max are order-free, and IEEE subtraction/
  division of the same operands is deterministic, so the result is
  bit-exact against the SQL window-function oracle.

- **pivot_counts**: long → wide count crosstab (rows × a FIXED small set of
  category columns — the schema must be static, so unknown categories are
  ignored by contract). Per-batch crosstab combiner first: the shuffle
  moves one (row_key, k counts) row per batch per key, never the events.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

import ray.data

from ontocast_ray.ops.shuffle import shuffle_by


def group_minmax_scale(
    ds: "ray.data.Dataset",
    key_col: str,
    value_col: str,
    out_col: str = "scaled",
) -> "ray.data.Dataset":
    """→ input columns + ``out_col``; constant groups (max == min) scale
    to 0.0 (mirror the same CASE in the SQL oracle)."""

    def kernel(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(key_col, sort=False)[value_col]
        mn = g.transform("min").to_numpy(np.float64)
        mx = g.transform("max").to_numpy(np.float64)
        v = df[value_col].to_numpy(np.float64)
        rng = mx - mn
        scaled = np.where(rng > 0, (v - mn) / np.where(rng > 0, rng, 1.0), 0.0)
        return df.assign(**{out_col: scaled}).reset_index(drop=True)

    return shuffle_by(ds, key_col, kernel)


def pivot_counts(
    ds: "ray.data.Dataset",
    row_col: str,
    col_col: str,
    categories: list[str],
) -> "ray.data.Dataset":
    """→ (row_col, <one int64 count column per category>). Categories not
    listed are dropped (static output schema — the contract for a wide
    table)."""
    categories = list(categories)

    def partial(batch: pa.Table) -> pa.Table:
        df = pa.table({row_col: batch[row_col], col_col: batch[col_col]}).to_pandas()
        df = df[df[col_col].isin(categories)]
        if not len(df):
            cols = {row_col: pa.array([], type=batch[row_col].type)}
            cols.update({c: pa.array([], type=pa.int64()) for c in categories})
            return pa.table(cols)
        wide = (
            df.groupby([row_col, col_col], sort=False).size().unstack(fill_value=0)
        )
        for c in categories:
            if c not in wide.columns:
                wide[c] = 0
        wide = wide[categories].astype("int64").reset_index()
        return pa.Table.from_pandas(wide, preserve_index=False)

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby(row_col, sort=False)[categories].sum().reset_index()

    return shuffle_by(
        ds.map_batches(partial, batch_format="pyarrow"), row_col, merge
    )


def rollup_counts(
    ds: "ray.data.Dataset",
    cols: list[str],
    sentinel: str = "ALL",
) -> "ray.data.Dataset":
    """→ cols + ``n``: counts at every GROUP BY ROLLUP level of the
    (string) hierarchy ``cols`` — (c1..ck), (c1..ck-1), …, grand total.
    Rolled-up cells carry ``sentinel`` instead of SQL's NULL (static
    string schema; mirror with COALESCE in the oracle).

    Shape: each batch aggregates its FULL-level counts once, derives every
    coarser level from those partials (k extra tiny groupbys over
    already-aggregated rows), and ships k+1 small count tables; ONE coarse
    shuffle sums. The raw rows never fan out k+1× — the classic rollup
    combiner.
    """
    cols = list(cols)

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            out = pd.DataFrame({c: pd.Series([], dtype="object") for c in cols})
            out["n"] = pd.Series([], dtype="int64")
            return out
        base = df.groupby(cols, sort=False).size().reset_index(name="n")
        levels = [base]
        for k in range(len(cols) - 1, -1, -1):
            prefix = cols[:k]
            if prefix:
                lvl = base.groupby(prefix, sort=False)["n"].sum().reset_index()
            else:
                lvl = pd.DataFrame({"n": [int(base["n"].sum())]})
            for c in cols[k:]:
                lvl[c] = sentinel
            levels.append(lvl[cols + ["n"]])
        return pd.concat(levels, ignore_index=True)

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby(cols, sort=False)["n"].sum().reset_index()

    return shuffle_by(
        ds.map_batches(partial, batch_format="pandas"), cols, merge
    )


def json_int_field(
    ds: "ray.data.Dataset",
    col: str,
    field: str,
    out_col: str | None = None,
) -> "ray.data.Dataset":
    """→ input + ``out_col``: integer field ``field`` extracted from a
    flat-JSON string column (the event-properties parse every telemetry
    pipeline starts with). Pure map, zero shuffle. The extraction is ONE
    vectorized C regex per batch (``"field"\\s*:\\s*(-?\\d+)``) — for flat
    JSON this is semantically identical to a JSON parser and orders of
    magnitude cheaper than per-row ``json.loads``; nested/escaped payloads
    need the parser and should not use this op. Missing field → null.
    """
    import re

    out = out_col or field
    pat = re.escape(f'"{field}"') + r"\s*:\s*(-?\d+)"

    def extract(batch: pa.Table) -> pa.Table:
        s = batch[col].to_pandas()
        vals = s.str.extract(pat, expand=False).astype("Int64")
        return batch.append_column(
            out, pa.Array.from_pandas(vals, type=pa.int64())
        )

    return ds.map_batches(extract, batch_format="pyarrow")


def mad_outliers(
    ds: "ray.data.Dataset",
    key_col: str,
    value_col: str,
    k: float = 3.0,
) -> "ray.data.Dataset":
    """→ input + (med, mad, is_outlier): robust per-group outlier flag
    ``|v - median| > k · MAD`` (median absolute deviation) — the
    quality-filter shape that survives the heavy tails a mean/std z-score
    dies on. ONE coarse colocate-by-key shuffle; medians via two C
    ``groupby().transform("median")`` passes per partition. Median is
    selection plus one (a+b)/2 midpoint — the same IEEE ops as SQL
    ``median()`` — so the flags are bit-exact against the window oracle.
    """

    def kernel(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(key_col, sort=False)[value_col]
        med = g.transform("median").to_numpy(np.float64)
        dev = np.abs(df[value_col].to_numpy(np.float64) - med)
        mad = (
            df.assign(_dev=dev)
            .groupby(key_col, sort=False)["_dev"]
            .transform("median")
            .to_numpy(np.float64)
        )
        return df.assign(
            med=med, mad=mad, is_outlier=dev > k * mad
        ).reset_index(drop=True)

    return shuffle_by(ds, key_col, kernel)


def label_centroids(
    embeddings: "ray.data.Dataset",
    label_col: str = "label",
    vec_col: str = "embedding",
    scale: int = 1 << 20,
) -> "ray.data.Dataset":
    """→ (label, dim, qsum, n_vecs): per-label centroid sums of an
    embedding column, INTEGER-quantized so the result is order-free and
    exactly reproducible (the class-prototype step of contrastive /
    nearest-class-mean pipelines; centroid[dim] = qsum / (n_vecs·scale)).

    Each component is quantized ``floor(v · scale)`` BEFORE summing —
    float sums are order-dependent (Ray's block order vs SQL's scan
    order would drift in the last ulp), int64 sums are exact in any
    order; floor (unlike round) has identical semantics in numpy and
    DuckDB. Map-side ``np.add.at`` partials emit ≤ |labels|·dim rows per
    block; one coarse shuffle on ``label`` finishes. The label space is
    class-small by contract (the group-cardinality analogue of
    `pivot_counts`); dims are the vector width.
    """
    from ontocast_ray.util import vectors_2d

    def partial(batch: pa.Table) -> pa.Table:
        labels = batch[label_col].to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        vecs = vectors_2d(batch[vec_col], dtype=np.float64)
        q = np.floor(vecs * float(scale)).astype(np.int64)
        ul, inv = np.unique(labels, return_inverse=True)
        d = q.shape[1]
        sums = np.zeros((len(ul), d), dtype=np.int64)
        np.add.at(sums, inv, q)
        counts = np.bincount(inv, minlength=len(ul)).astype(np.int64)
        return pa.table(
            {
                "label": pa.array(np.repeat(ul, d)),
                "dim": pa.array(np.tile(np.arange(d, dtype=np.int64),
                                        len(ul))),
                "qsum": pa.array(sums.ravel()),
                "n_vecs": pa.array(np.repeat(counts, d)),
            }
        )

    def combine(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby(["label", "dim"], as_index=False).agg(
            qsum=("qsum", "sum"), n_vecs=("n_vecs", "sum")
        )

    return shuffle_by(
        embeddings.map_batches(partial, batch_format="pyarrow"), "label", combine
    )


def embedding_gram(
    embeddings: "ray.data.Dataset",
    vec_col: str = "embedding",
    scale: int = 1 << 8,
) -> "ray.data.Dataset":
    """→ (i, j, qsum, n_vecs): the d×d Gram matrix Σ q·qᵀ of the
    integer-quantized corpus (q = floor(v·scale)) — the input to
    covariance/PCA/whitening, computed exactly: float Gram sums are
    accumulation-order-dependent; int64 sums of quantized components are
    exact in any order, so the SQL positional-unnest mirror matches
    bit-for-bit.

    One pass: each block matmuls its own (n, d) int block (qᵀq — a
    single numpy call) and emits d² partial rows; a coarse shuffle on
    ``(i, j)`` sums. Driver never sees vectors; output is d² rows (the
    dimensionality is feature-small by contract — 64²=4096 here).
    Overflow bound: |q| ≤ scale·|v|, so n·(scale·vmax)² must fit int64 —
    at scale 2^8 and |v|≲4, ~10¹² rows fit; lower ``scale`` for more.
    """
    from ontocast_ray.util import vectors_2d

    def partial(batch: pa.Table) -> pa.Table:
        vecs = vectors_2d(batch[vec_col], dtype=np.float64)
        q = np.floor(vecs * float(scale)).astype(np.int64)
        g = q.T @ q  # (d, d) exact int64
        d = g.shape[0]
        i = np.repeat(np.arange(d, dtype=np.int64), d)
        j = np.tile(np.arange(d, dtype=np.int64), d)
        return pa.table(
            {
                "i": pa.array(i),
                "j": pa.array(j),
                "qsum": pa.array(g.ravel()),
                "n_vecs": pa.array(
                    np.full(d * d, len(q), dtype=np.int64)
                ),
            }
        )

    def combine(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby(["i", "j"], as_index=False).agg(
            qsum=("qsum", "sum"), n_vecs=("n_vecs", "sum")
        )

    return shuffle_by(
        embeddings.map_batches(partial, batch_format="pyarrow"),
        ["i", "j"],
        combine,
    )


def rademacher_project(
    embeddings: "ray.data.Dataset",
    k: int = 8,
    seed: int = 19,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    scale: int = 1 << 8,
) -> "ray.data.Dataset":
    """→ (vec_id, j, qproj): Johnson-Lindenstrauss dimensionality
    reduction with a DERIVED Rademacher (±1) matrix — s_ij = ±1 from the
    top bit of ``splitmix64(i·256 + j, seed)`` — over integer-quantized
    components (q = floor(v·scale)). No stored projection matrix, no
    float matmul: the map regenerates S from (seed, shape) anywhere,
    projections are exact int64 sums (y = q·S in one numpy matmul per
    block), and the SQL mirror re-derives every sign with the scalar
    splitmix expression — bit-identical. Pure map, zero shuffles.
    (Rademacher entries satisfy the JL lemma like Gaussians — Achlioptas
    2003 — with distance distortion ≤ ε at k = O(log n / ε²).)
    """
    from ontocast_ray.ops.interleave import splitmix64
    from ontocast_ray.util import vectors_2d

    def project(batch: pa.Table) -> pa.Table:
        vecs = vectors_2d(batch[vec_col], dtype=np.float64)
        n, d = vecs.shape
        keys = (
            np.arange(d, dtype=np.uint64)[:, None] * np.uint64(256)
            + np.arange(k, dtype=np.uint64)[None, :]
        )
        bits = (splitmix64(keys.ravel(), seed) >> np.uint64(63)).astype(
            np.int64
        )
        s = (2 * bits - 1).reshape(d, k)
        q = np.floor(vecs * float(scale)).astype(np.int64)
        proj = q @ s  # exact int64
        ids = batch[id_col].cast(pa.int64()).to_numpy(zero_copy_only=False)
        return pa.table(
            {
                id_col: pa.array(np.repeat(ids, k)),
                "j": pa.array(np.tile(np.arange(k, dtype=np.int64), n)),
                "qproj": pa.array(proj.ravel()),
            }
        )

    return embeddings.map_batches(project, batch_format="pyarrow")


def _jacobi_eigh(a: "np.ndarray", max_sweeps: int = 64,
                 tol: float = 1e-14) -> tuple["np.ndarray", "np.ndarray"]:
    """Deterministic symmetric eigendecomposition by cyclic Jacobi
    rotations — elementwise numpy only (no BLAS), fixed (p, q) sweep
    order, so the result is bit-identical regardless of thread count or
    parallelism. O(d³) per sweep; intended for feature-small d."""
    a = np.array(a, dtype=np.float64, copy=True)
    d = a.shape[0]
    v = np.eye(d, dtype=np.float64)
    scale = float(np.abs(a).max()) or 1.0
    for _ in range(max_sweeps):
        off = np.sqrt((a ** 2).sum() - (np.diag(a) ** 2).sum())
        if off <= tol * scale * d:
            break
        for p in range(d - 1):
            for q in range(p + 1, d):
                apq = a[p, q]
                if abs(apq) <= tol * scale:
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * apq)
                t = np.sign(theta) / (
                    abs(theta) + np.sqrt(theta * theta + 1.0)
                ) if theta != 0.0 else 1.0
                c = 1.0 / np.sqrt(t * t + 1.0)
                s = t * c
                rp, rq = a[p, :].copy(), a[q, :].copy()
                a[p, :] = c * rp - s * rq
                a[q, :] = s * rp + c * rq
                cp, cq = a[:, p].copy(), a[:, q].copy()
                a[:, p] = c * cp - s * cq
                a[:, q] = s * cp + c * cq
                vp, vq = v[:, p].copy(), v[:, q].copy()
                v[:, p] = c * vp - s * vq
                v[:, q] = s * vp + c * vq
    return np.diag(a).copy(), v


def pca_project(
    embeddings: "ray.data.Dataset",
    k: int = 2,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    scale: int = 1 << 8,
) -> "ray.data.Dataset":
    """Distributed PCA projection (the whitening/visualization prep step):
    exact integer second moments via `embedding_gram`'s shuffle (float
    Gram sums are accumulation-order-dependent; quantized int64 sums are
    not), covariance eigendecomposition on the driver (d×d is
    feature-small by contract), components broadcast once, projection a
    pure map. → (id_col, pc1..pck) per vector.

    Determinism: the eigenbasis is a pure function of the EXACT integer
    (Gram, sum, n) triple, so it is identical at any parallelism; sign
    is fixed by making each component's largest-|coefficient| entry
    positive (eigenvectors are sign-ambiguous). Ties in eigenvalues
    would rotate the basis — real corpora (and the synthetic table)
    have distinct spectra; golden-pinned regardless.
    """
    import ray

    from ontocast_ray.util import vectors_2d

    emb = embeddings.materialize()  # consumed by moments AND projection
    gram_rows = embedding_gram(
        emb.select_columns([vec_col]), vec_col=vec_col,
        scale=scale,
    )

    def sum_partial(batch: pa.Table) -> pa.Table:
        vecs = vectors_2d(batch[vec_col], dtype=np.float64)
        q = np.floor(vecs * float(scale)).astype(np.int64)
        s = q.sum(axis=0)
        d = len(s)
        return pa.table({
            "dim": pa.array(np.arange(d, dtype=np.int64)),
            "qs": pa.array(s),
            "n": pa.array(np.full(d, len(q), dtype=np.int64)),
        })

    # d-sized partials → driver fold (exact int64, order-free)
    d = None
    qsum_vec = None
    n_total = 0
    for b in emb.map_batches(
        sum_partial, batch_format="pyarrow"
    ).iter_batches(batch_size=None, batch_format="pyarrow"):
        dim = b["dim"].to_numpy(zero_copy_only=False)
        qs = b["qs"].to_numpy(zero_copy_only=False)
        if qsum_vec is None:
            d = int(dim.max()) + 1
            qsum_vec = np.zeros(d, dtype=np.int64)
        np.add.at(qsum_vec, dim, qs)
        # one dim==0 row per upstream block; iter_batches may coalesce
        # several partials into one batch — sum them all
        n_total += int(
            b["n"].to_numpy(zero_copy_only=False)[dim == 0].sum()
        )

    if qsum_vec is None:
        raise ValueError("pca_project: the embeddings dataset is empty")
    gram = None
    for b in gram_rows.iter_batches(batch_size=None, batch_format="pyarrow"):
        i = b["i"].to_numpy(zero_copy_only=False)
        j = b["j"].to_numpy(zero_copy_only=False)
        v = b["qsum"].to_numpy(zero_copy_only=False)
        if gram is None:
            gram = np.zeros((d, d), dtype=np.int64)
        np.add.at(gram, (i, j), v)

    n = max(n_total, 2)
    mean = qsum_vec.astype(np.float64) / n
    cov = (gram.astype(np.float64) - n * np.outer(mean, mean)) / (n - 1)
    # NOT np.linalg.eigh: LAPACK/OpenBLAS reduction order varies with the
    # session's thread count, so the last-ulp eigenbasis differed between
    # num_cpus=2 and 16 sessions (caught by the determinism probe). The
    # cyclic-Jacobi solver below uses only elementwise numpy ops in a
    # fixed order — bit-identical anywhere, and d is feature-small.
    evals, evecs = _jacobi_eigh(cov)
    order = np.argsort(evals)[::-1][:k]
    comps = evecs[:, order]  # (d, k)
    # sign convention: largest-|coefficient| entry positive per component
    for c in range(comps.shape[1]):
        m = np.argmax(np.abs(comps[:, c]))
        if comps[m, c] < 0:
            comps[:, c] = -comps[:, c]
    ref = ray.put((mean, comps))

    def project(batch: pa.Table) -> pa.Table:
        mu, v = ray.get(ref)
        vecs = vectors_2d(batch[vec_col], dtype=np.float64)
        q = np.floor(vecs * float(scale)).astype(np.int64)
        centered = q - mu
        # elementwise multiply + pairwise axis-sum, NOT a BLAS gemm —
        # gemm blocking varies with the session's thread count
        p = np.stack(
            [(centered * v[:, c]).sum(axis=1) for c in range(v.shape[1])],
            axis=1,
        )
        cols = {id_col: batch[id_col]}
        for c in range(p.shape[1]):
            cols[f"pc{c + 1}"] = pa.array(p[:, c])
        return pa.table(cols)

    return emb.map_batches(project, batch_format="pyarrow")
