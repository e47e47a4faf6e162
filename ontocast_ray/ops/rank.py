"""Per-group top-k — the 'best N documents per source/domain' selector a
curation pipeline runs before sampling.

Scale shape: every batch computes a PARTIAL top-k per group (vectorized
pandas sort + groupby.head), so the shuffle moves at most k rows per
(group, batch); the final pass groups on a coarse hash partition and loops
groups inside one kernel (the engine-wide fine-key pattern)."""

from __future__ import annotations

import pandas as pd
import pyarrow as pa

import ray.data

from ontocast_ray.ops.shuffle import shuffle_by


def global_row_number(
    ds: "ray.data.Dataset",
    order_col: str = "doc_id",
    ntile: int | None = None,
    percent_rank: bool = False,
    shard_span: int = 65_536,
) -> "ray.data.Dataset":
    """→ (order_col, rn[, tile][, pct_rank]): contiguous 1-based global row
    numbers ordered by a UNIQUE int64 column — SQL ``ROW_NUMBER() OVER
    (ORDER BY col)`` — without a global sort. ``percent_rank=True`` adds
    SQL ``PERCENT_RANK()`` = (rn-1)/(N-1): one exact IEEE division of the
    same integers on both engines, hence bit-exact.

    Scale shape (the two-phase ordered scan from ops/packing.py): per-shard
    row counts (``shard = order_col // shard_span``, a small hash
    aggregate), an exclusive scan over the tiny (shard, count) list on the
    driver — one int per shard, never corpus-sized — then broadcast base
    offsets into a per-partition kernel that sorts within shards and adds
    a cumcount. ``ntile=k`` appends SQL-exact NTILE: the first ``N % k``
    tiles get ``ceil(N/k)`` rows.
    """
    import numpy as np

    import ray

    def meta(batch: pa.Table) -> pa.Table:
        ids = batch[order_col].cast(pa.int64()).to_numpy(zero_copy_only=False)
        return pa.table(
            {order_col: pa.array(ids),
             "shard": pa.array(ids // np.int64(shard_span))}
        )

    ids_ds = ds.map_batches(meta, batch_format="pyarrow").materialize()
    counts = ids_ds.groupby("shard").count().take_all()
    base: dict[int, int] = {}
    acc = 0
    for r in sorted(counts, key=lambda r: r["shard"]):
        base[r["shard"]] = acc
        acc += int(r["count()"])
    total = acc
    base_ref = ray.put(base)
    if ntile is not None:
        if ntile <= 0:
            raise ValueError("ntile must be positive")
        q, rem = divmod(total, ntile)
        boundary = rem * (q + 1)

    def kernel(df: pd.DataFrame) -> pa.Table:
        df = df.sort_values(order_col, kind="mergesort")
        shard_base = df["shard"].map(ray.get(base_ref)).to_numpy(np.int64)
        intra = df.groupby("shard", sort=False).cumcount().to_numpy(np.int64)
        rn = shard_base + intra + 1
        cols = {order_col: pa.array(df[order_col].to_numpy(np.int64)),
                "rn": pa.array(rn)}
        if ntile is not None:
            rn0 = rn - 1
            if q == 0:
                tile = rn0 + 1
            else:
                tile = np.where(
                    rn0 < boundary,
                    rn0 // (q + 1) + 1,
                    rem + (rn0 - boundary) // q + 1,
                )
            cols["tile"] = pa.array(tile.astype(np.int64))
        if percent_rank:
            denom = float(total - 1) if total > 1 else 1.0
            cols["pct_rank"] = pa.array((rn - 1).astype(np.float64) / denom)
        return pa.table(cols)

    return shuffle_by(ids_ds, "shard", kernel)


def topk_per_group(
    ds: "ray.data.Dataset",
    group_col: str,
    order_col: str,
    k: int,
    tiebreak_col: str,
    descending: bool = True,
) -> "ray.data.Dataset":
    """→ input columns + rank (1-based within group, ordered by order_col
    desc/asc with tiebreak_col asc)."""
    by = [order_col, tiebreak_col]
    ascending = [not descending, True]

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        top = (
            df.sort_values(by, ascending=ascending)
            .groupby(group_col, sort=False)
            .head(k)
        )
        return pa.Table.from_pandas(top, preserve_index=False)

    def final(group: pd.DataFrame) -> pd.DataFrame:
        frames = []
        for _, rows in group.groupby(group_col, sort=False):
            top = rows.sort_values(by, ascending=ascending).head(k).copy()
            top["rank"] = range(1, len(top) + 1)
            frames.append(top)
        return pd.concat(frames, ignore_index=True)

    return shuffle_by(
        ds.map_batches(partial, batch_format="pyarrow"), group_col, final
    )
