"""Broadcast (map-side) joins for small dimension tables.

The scale rule: a join whose small side fits in memory must NOT shuffle the
big side — put the small side in the object store once (``ray.put``), read
it in every map task, and map keys to values inside ``map_batches``. The
classic star-schema case (customer → nation → region) is the demo: nation
and region are tiny, customer streams through untouched.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray
import ray.data

from ontocast_ray.ops.shuffle import shuffle_by


def collect_lookup(ds: "ray.data.Dataset", key_col: str, value_col: str) -> dict:
    """Materialize a small dimension table into a {key: value} dict."""
    return {r[key_col]: r[value_col] for r in ds.take_all()}


class BroadcastLookup:
    """map_batches stage: append ``out_col`` = lookup[batch[key_col]].

    Map with an instance (``map_batches(BroadcastLookup(ref, ...))``): it
    runs as a task. The instance holds only the ``ray.put`` ref, so the
    dict is not pickled into the task; each instance copy resolves it on
    its first batch and keeps it for the rest.
    """

    def __init__(self, lookup_ref, key_col: str, out_col: str):
        self.lookup_ref = lookup_ref
        self.lookup = None
        self.key_col = key_col
        self.out_col = out_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        import pandas as pd

        if self.lookup is None:
            self.lookup = ray.get(self.lookup_ref)
        # Series.map factorizes the keys once and takes from the dict's
        # value array — vectorized, no per-row Python dict.get loop
        mapped = pd.Series(batch[self.key_col].to_pandas()).map(self.lookup)
        return batch.append_column(
            self.out_col, pa.Array.from_pandas(mapped)
        )


def broadcast_join(
    big: "ray.data.Dataset",
    small: "ray.data.Dataset",
    key_col: str,
    value_col: str,
    out_col: str,
) -> "ray.data.Dataset":
    """big ⋈ small on key_col, small side broadcast (no shuffle of big)."""
    lookup_ref = ray.put(collect_lookup(small, key_col, value_col))
    return big.map_batches(
        BroadcastLookup(lookup_ref, key_col, out_col), batch_format="pyarrow"
    )


def asof_join(
    left: "ray.data.Dataset",
    right: "ray.data.Dataset",
    key_col: str,
    ts_col: str,
    left_cols: list[str],
    right_value_col: str,
    out_ts_col: str = "asof_ts",
    out_value_col: str = "asof_value",
    n_parts: int = 64,
) -> "ray.data.Dataset":
    """Backward as-of join (the trades/quotes operator Ray Data lacks):
    each left row gets the latest right row with the same key and
    ``right.ts <= left.ts``, or nulls when none exists.

    Shape: both sides tagged and unioned under one schema, ONE coarse
    hash(key) shuffle colocates each key's rows, and the per-partition
    kernel runs a vectorized ``pd.merge_asof`` across every key at once
    (``by=key``). The right side is deduped to one row per (key, ts) —
    max value wins — so tie behavior is deterministic and matches the
    SQL ``ASOF LEFT JOIN`` oracle exactly.
    """
    import numpy as np
    import pandas as pd

    schema_cols = [key_col, ts_col] + [c for c in left_cols if c not in (key_col, ts_col)]
    _lsch = left.schema()
    _ltypes = dict(zip(_lsch.names, _lsch.types))

    def tag_left(batch: pa.Table) -> pa.Table:
        out = pa.table({c: batch[c] for c in schema_cols})
        out = out.append_column("_rv", pa.array([None] * len(batch), type=pa.float64()))
        return out.append_column("_side", pa.array(np.zeros(len(batch), dtype=np.int8)))

    def tag_right(batch: pa.Table) -> pa.Table:
        cols = {key_col: batch[key_col], ts_col: batch[ts_col].cast(_ltypes[ts_col])}
        for c in schema_cols[2:]:
            # left payload columns carry their REAL types as nulls so the
            # union schema stays consistent across sides
            cols[c] = pa.nulls(len(batch), type=_ltypes[c])
        out = pa.table(cols)
        out = out.append_column(
            "_rv", batch[right_value_col].cast(pa.float64())
        )
        return out.append_column("_side", pa.array(np.ones(len(batch), dtype=np.int8)))

    # the union's typed nulls make pandas widen int columns to float inside
    # the kernel; left rows are null-free, so cast them back after the split
    _cast_map = {
        c: _ltypes[c].to_pandas_dtype()
        for c in schema_cols
        if pa.types.is_integer(_ltypes[c])
    }
    _ts_dtype = _ltypes[ts_col].to_pandas_dtype()
    # numeric ts → nullable Int64/Float64 carries the no-match nulls
    _null_ts_dtype = (
        _ts_dtype if str(_ts_dtype).startswith("datetime64")
        else ("Int64" if pa.types.is_integer(_ltypes[ts_col]) else "Float64")
    )

    def kernel(group: pd.DataFrame) -> pd.DataFrame:
        lhs = group[group["_side"] == 0].drop(columns=["_rv", "_side"])
        if _cast_map:
            lhs = lhs.astype(_cast_map)
        rhs = group[group["_side"] == 1][[key_col, ts_col, "_rv"]]
        if lhs.empty:  # a partition holding only right rows
            out = lhs.head(0).copy()  # keeps dtypes
            out[out_ts_col] = pd.Series([], dtype=_ts_dtype)
            out[out_value_col] = pd.Series([], dtype="float64")
            return out
        if rhs.empty:
            out = lhs.copy()
            # null of the ts column's own dtype (NaT only fits datetimes)
            out[out_ts_col] = pd.Series([pd.NA] * len(out), dtype=_null_ts_dtype)
            out[out_value_col] = np.nan
            return out.reset_index(drop=True)
        # deterministic ties: one right row per (key, ts), max value wins
        rhs = (
            rhs.groupby([key_col, ts_col], sort=False)["_rv"].max().reset_index()
            .rename(columns={ts_col: out_ts_col, "_rv": out_value_col})
        )
        merged = pd.merge_asof(
            lhs.sort_values(ts_col, kind="stable"),
            rhs.sort_values(out_ts_col, kind="stable"),
            left_on=ts_col,
            right_on=out_ts_col,
            by=key_col,
            direction="backward",
        )
        return merged.reset_index(drop=True)

    tagged = left.map_batches(tag_left, batch_format="pyarrow").union(
        right.map_batches(tag_right, batch_format="pyarrow")
    )
    return shuffle_by(tagged, key_col, kernel, n_parts)


def hash_join(
    left: "ray.data.Dataset",
    right: "ray.data.Dataset",
    left_on: str,
    right_on: str,
    left_cols: list[str],
    right_cols: list[str],
    how: str = "inner",
    n_parts: int = 64,
) -> "ray.data.Dataset":
    """Shuffle hash equi-join of two LARGE datasets (fact ⋈ fact).

    When neither side fits in memory a broadcast is impossible — this is
    the textbook partitioned hash join: both sides are tagged and unioned
    under one schema, ONE coarse ``hash(key) % n_parts`` shuffle colocates
    each key's rows from both sides, and the per-partition kernel runs a
    single vectorized ``pd.merge`` across all keys in the partition.
    Duplicate keys produce the full cross product per key (SQL join
    semantics). ``how`` ∈ {"inner", "left", "semi", "anti"}. Output
    columns: ``[left_on] + left_cols + right_cols`` (payload names must
    not clash — rename upstream); for semi/anti the output is left-side
    only (``right_cols`` must be empty) and matches SQL ``WHERE [NOT]
    EXISTS``. Semi/anti ship only DISTINCT right keys across the wire
    (per-batch map-side dedup — the existence check needs nothing else).
    Skewed keys: a single hot key lands in one partition; salt upstream
    if a key's rows exceed a worker's memory.
    """
    import numpy as np
    import pandas as pd

    if how not in ("inner", "left", "full", "semi", "anti"):
        raise ValueError(
            "how must be 'inner', 'left', 'full', 'semi' or 'anti'"
        )
    if how in ("semi", "anti") and right_cols:
        raise ValueError("semi/anti joins return left columns only")
    from ontocast_ray.util import to_arrow_type

    # a side with no schema is empty (e.g. a shuffle that called no
    # kernel): with no left rows only a full join has output, and the
    # empty side drops out of the union, its payload typed null
    _lsch, _rsch = left.schema(), right.schema()
    if _lsch is None and (how != "full" or _rsch is None):
        return left
    _ltypes = {n: to_arrow_type(t) for n, t in zip(_lsch.names, _lsch.types)} if _lsch else {}
    _rtypes = {n: to_arrow_type(t) for n, t in zip(_rsch.names, _rsch.types)} if _rsch else {}
    lcols = [c for c in left_cols if c != left_on]
    rcols = [c for c in right_cols if c != right_on]
    _ltypes.setdefault(left_on, _rtypes.get(right_on))
    for c in lcols:
        _ltypes.setdefault(c, pa.null())
    for c in rcols:
        _rtypes.setdefault(c, pa.null())

    def tag_left(batch: pa.Table) -> pa.Table:
        cols = {left_on: batch[left_on]}
        for c in lcols:
            cols[c] = batch[c]
        for c in rcols:
            cols[c] = pa.nulls(len(batch), type=_rtypes[c])
        out = pa.table(cols)
        return out.append_column("_side", pa.array(np.zeros(len(batch), dtype=np.int8)))

    def tag_right(batch: pa.Table) -> pa.Table:
        keys = batch[right_on].cast(_ltypes[left_on])
        if how in ("semi", "anti"):
            # existence check: distinct keys are all the wire needs
            keys = keys.combine_chunks().unique()
        cols = {left_on: keys}
        n = len(keys)
        for c in lcols:
            cols[c] = pa.nulls(n, type=_ltypes[c])
        for c in rcols:
            cols[c] = batch[c]
        out = pa.table(cols)
        return out.append_column("_side", pa.array(np.ones(n, dtype=np.int8)))

    # typed nulls in the union make pandas widen ints to float inside the
    # kernel; cast non-null sides back (left always non-null; right side
    # non-null for inner joins, nullable Int64 for left joins)
    _lcast = {c: _ltypes[c].to_pandas_dtype() for c in lcols if pa.types.is_integer(_ltypes[c])}
    _rcast = {
        c: (_rtypes[c].to_pandas_dtype() if how == "inner" else "Int64")
        for c in rcols
        if pa.types.is_integer(_rtypes[c])
    }
    # full outer: left payload is nullable too (right-only rows)
    _lcast_post = (
        {c: "Int64" for c in lcols if pa.types.is_integer(_ltypes[c])}
        if how == "full"
        else {}
    )
    _kcast = (
        {left_on: _ltypes[left_on].to_pandas_dtype()}
        if pa.types.is_integer(_ltypes[left_on])
        else {}
    )

    def kernel(group: pd.DataFrame) -> pd.DataFrame:
        lhs = group[group["_side"] == 0][[left_on, *lcols]]
        rhs = group[group["_side"] == 1][[left_on, *rcols]]
        if lhs.empty and how != "full":
            return lhs.assign(**{c: rhs[c].head(0) for c in rcols})
        if not lhs.empty:
            lhs = lhs.astype({**_kcast, **_lcast})
        if how in ("semi", "anti"):
            mask = lhs[left_on].isin(rhs[left_on])
            out = lhs[mask if how == "semi" else ~mask]
            return out.reset_index(drop=True)
        merged = pd.merge(
            lhs, rhs, on=left_on, how="outer" if how == "full" else how
        )
        if _rcast or _lcast_post:
            merged = merged.astype({**_rcast, **_lcast_post})
        return merged.reset_index(drop=True)

    sides = [
        side.map_batches(tag, batch_format="pyarrow")
        for side, sch, tag in ((left, _lsch, tag_left), (right, _rsch, tag_right))
        if sch is not None
    ]
    tagged = sides[0].union(sides[1]) if len(sides) == 2 else sides[0]
    return shuffle_by(tagged, left_on, kernel, n_parts)


def distinct_on(
    ds: "ray.data.Dataset",
    cols: list[str],
    n_parts: int = 64,
) -> "ray.data.Dataset":
    """Multi-column DISTINCT — map-side combiner + ONE coarse shuffle.

    Ray Data's native multi-key ``groupby(cols).count()`` is a sort-based
    aggregate over the full row set (measured: 80 s for a 600 k-row
    two-key distinct on this box). This is the coarse-shuffle shape the
    rest of the repo uses instead: per-batch ``drop_duplicates`` prunes
    shuffle volume before anything crosses the wire, a single
    ``hash(cols) % n_parts`` partition colocates equal rows, and one
    vectorized per-partition dedup finishes. Output columns = ``cols``.
    """
    cols = list(cols)

    def dedup(df: "pd.DataFrame") -> "pd.DataFrame":
        return df.drop_duplicates(cols)[cols].reset_index(drop=True)

    return shuffle_by(
        ds.map_batches(dedup, batch_format="pandas"), cols, dedup, n_parts
    )


def grouped_count_distinct(
    ds: "ray.data.Dataset",
    group_col: str,
    key_col: str,
    n_parts: int = 64,
) -> "ray.data.Dataset":
    """→ (group_col, n_distinct): EXACT per-group COUNT(DISTINCT key) —
    the companion to the approximate ``hll_distinct``. Composition:
    ``distinct_on`` (map-side combiner + one coarse shuffle) already
    colocates equal (group, key) rows, so the counts shuffle is a tiny
    second pass over one-row-per-distinct-pair data, also coarse-keyed.
    """
    import numpy as np
    import pandas as pd

    pairs = distinct_on(ds, [group_col, key_col], n_parts=n_parts)

    def partial(df: "pd.DataFrame") -> "pd.DataFrame":
        vc = df[group_col].value_counts()
        return pd.DataFrame(
            {group_col: vc.index.to_numpy(), "n": vc.to_numpy().astype(np.int64)}
        )

    def final(df: "pd.DataFrame") -> "pd.DataFrame":
        s = df.groupby(group_col, sort=False)["n"].sum()
        return pd.DataFrame(
            {group_col: s.index.to_numpy(), "n_distinct": s.to_numpy(np.int64)}
        )

    return shuffle_by(
        pairs.map_batches(partial, batch_format="pandas"), group_col, final, n_parts
    )


def broadcast_range_join(
    big: "ray.data.Dataset",
    intervals: list[tuple],
    value_col: str,
    out_col: str = "band",
) -> "ray.data.Dataset":
    """Inner range join against a small interval table — broadcast, no shuffle.

    ``intervals`` = sorted, non-overlapping [(lo, hi, label), ...]; each big
    row matches the interval with lo <= value < hi via one vectorized
    ``np.searchsorted`` per batch (the big side streams through untouched,
    the classic small-side interval lookup). Non-matching rows drop (inner
    join semantics, mirroring SQL ``JOIN ON v >= lo AND v < hi``).
    """
    los = np.array([iv[0] for iv in intervals], dtype=np.float64)
    his = np.array([iv[1] for iv in intervals], dtype=np.float64)
    labels = np.array([iv[2] for iv in intervals], dtype=object)
    if not (np.all(np.diff(los) > 0) and np.all(los < his)):
        raise ValueError("intervals must be sorted and well-formed")

    def range_lookup(batch: pa.Table) -> pa.Table:
        if len(batch) == 0:
            return batch.append_column(out_col, pa.array([], type=pa.string()))
        v = batch[value_col].to_numpy(zero_copy_only=False).astype(np.float64)
        idx = np.searchsorted(los, v, side="right") - 1
        valid = (idx >= 0) & (v < his[np.clip(idx, 0, len(his) - 1)])
        sub = batch.filter(pa.array(valid))
        out_labels = labels[idx[valid]]
        return sub.append_column(out_col, pa.array(out_labels, type=pa.string()))

    # the interval table is small: it ships with the task
    return big.map_batches(range_lookup, batch_format="pyarrow")


def skew_join(
    big: "ray.data.Dataset",
    small: "ray.data.Dataset",
    left_on: str,
    right_on: str,
    left_cols: list[str],
    right_cols: list[str],
    hot_threshold: int,
    n_parts: int = 64,
) -> "ray.data.Dataset":
    """Skew-aware inner equi-join (the head-key defusal the plain
    partitioned hash join documents as the caller's problem).

    A single hot key sends ALL its rows to one reducer in a hash join —
    at web scale a head entity (a viral URL, a mega-publisher id) can be
    10⁹ rows and OOM the worker. This op splits the key space by measured
    frequency, not guesswork:

    1. big-side key counts via the coarse map-side-combiner shuffle; keys
       with count > ``hot_threshold`` become the HOT set. Driver memory is
       bounded by N/threshold keys — pick the threshold so a hot key's
       rows wouldn't fit a reducer anyway.
    2. HOT path: the small side's hot rows broadcast once (``ray.put``);
       every big batch merges map-side — hot keys never shuffle at all.
    3. COLD path: the remainder takes the normal partitioned hash join
       (both sides filtered map-side, so hot rows don't cross the wire).

    Output columns: ``[left_on] + left_cols + right_cols`` (inner
    semantics, identical to ``hash_join``). Requires the small side's hot
    rows to fit the object store — the fact ⋈ dim case; for fact ⋈ fact
    hot keys, salt both sides upstream instead.
    """
    import pandas as pd

    lcols = [c for c in left_cols if c != left_on]
    rcols = [c for c in right_cols if c != right_on]

    def count_partial(batch: pa.Table) -> pa.Table:
        vc = batch[left_on].to_pandas().value_counts()
        return pa.table(
            {"key": pa.array(vc.index.to_numpy()),
             "n": pa.array(vc.to_numpy(), type=pa.int64())}
        )

    def hot_keys(df: "pd.DataFrame") -> "pd.DataFrame":
        s = df.groupby("key", sort=False)["n"].sum()
        return pd.DataFrame({"key": s.index[s > hot_threshold].to_numpy()})

    hot = set(
        r["key"]
        for r in shuffle_by(
            big.map_batches(count_partial, batch_format="pyarrow"),
            "key",
            hot_keys,
            n_parts,
        ).take_all()
    )
    hot_ref = ray.put(hot)

    # small side's hot rows → one broadcast pandas frame
    small_proj = small.map_batches(
        lambda b: pa.table({right_on: b[right_on], **{c: b[c] for c in rcols}}),
        batch_format="pyarrow",
    ).materialize()
    hot_small = (
        small_proj.map_batches(
            lambda df: df[df[right_on].isin(ray.get(hot_ref))],
            batch_format="pandas",
        ).to_pandas()
        if hot
        else None
    )
    hot_small_ref = ray.put(hot_small)

    def hot_merge(batch: pa.Table) -> "pd.DataFrame":
        # only unioned in when the hot set is non-empty, so the broadcast
        # frame always exists here; an empty merge keeps the rhs dtypes
        df = pa.table(
            {left_on: batch[left_on], **{c: batch[c] for c in lcols}}
        ).to_pandas()
        df = df[df[left_on].isin(ray.get(hot_ref))]
        rhs = ray.get(hot_small_ref)
        return df.merge(
            rhs.rename(columns={right_on: left_on}), on=left_on, how="inner"
        )

    hot_out = big.map_batches(hot_merge, batch_format="pyarrow")

    def drop_hot(df: "pd.DataFrame", col: str) -> "pd.DataFrame":
        return df[~df[col].isin(ray.get(hot_ref))]

    cold_out = hash_join(
        big.map_batches(lambda df: drop_hot(df, left_on), batch_format="pandas"),
        small_proj.map_batches(lambda df: drop_hot(df, right_on), batch_format="pandas"),
        left_on=left_on,
        right_on=right_on,
        left_cols=lcols,
        right_cols=rcols,
        how="inner",
        n_parts=n_parts,
    )
    if not hot:
        return cold_out
    return cold_out.union(hot_out)


def bucket_join(
    left_dir: str,
    right_dir: str,
    key_col: str,
    right_key_col: str,
    left_cols: list[str],
    right_cols: list[str],
    n_buckets: int,
) -> "ray.data.Dataset":
    """ZERO-shuffle inner join of two ``write_bucketed`` layouts bucketed
    the same way (same hash, same ``n_buckets``) — the classic Hive/Spark
    bucketed join. Equal keys already live in the same ``bucket=NN``
    directory pair, so the join is one task per bucket: read the pair
    (column-pruned pyarrow reads), one vectorized merge, stream out. This
    is the read-side payoff the bucketed sink exists for: the shuffle was
    paid ONCE at write time and every subsequent join of any two
    co-bucketed tables is free.

    Output columns: ``[key_col] + left_cols + right_cols``.
    """
    import os

    import pandas as pd
    import pyarrow.parquet as pq

    ids = ray.data.from_items([{"bucket": b} for b in range(n_buckets)])
    lcols = [c for c in left_cols if c != key_col]
    rcols = [c for c in right_cols if c != right_key_col]

    def join_bucket(batch: "pd.DataFrame") -> "pd.DataFrame":
        frames = []
        for b in batch["bucket"]:
            ldir = os.path.join(left_dir, f"bucket={int(b)}")
            rdir = os.path.join(right_dir, f"bucket={int(b)}")
            if not (os.path.isdir(ldir) and os.path.isdir(rdir)):
                continue  # empty bucket on either side → no matches
            lhs = pq.read_table(ldir, columns=[key_col, *lcols]).to_pandas()
            rhs = pq.read_table(rdir, columns=[right_key_col, *rcols]).to_pandas()
            frames.append(
                lhs.merge(
                    rhs.rename(columns={right_key_col: key_col}),
                    on=key_col, how="inner",
                )
            )
        if not frames:
            return pd.DataFrame(columns=[key_col, *lcols, *rcols])
        return pd.concat(frames, ignore_index=True)

    return ids.map_batches(join_bucket, batch_format="pandas", batch_size=1)


def interval_count_join(
    left: "ray.data.Dataset",
    right: "ray.data.Dataset",
    key_col: str,
    ts_col: str,
    left_id_col: str,
    window,
    out_col: str = "n_in_window",
    n_parts: int = 64,
) -> "ray.data.Dataset":
    """→ left rows + ``out_col``: for every left row, the COUNT of right
    rows with the same key and ``right.ts ∈ [left.ts - window, left.ts]``
    — the bounded interval join behind attribution counts ("clicks in the
    30 min before each purchase"). The as-of join answers *nearest one*;
    this answers *how many in the window*.

    Shape: union-tag + ONE coarse hash(key) shuffle (the asof_join
    pattern), then a per-partition kernel that never loops keys: right
    rows get a per-key running count, and TWO vectorized
    ``pd.merge_asof``-s (at ``ts`` inclusive, at ``ts - window``
    exclusive) turn the range count into a difference of two cumulative
    lookups. Output: (key, ts, left_id, out_col).
    """
    import numpy as np
    import pandas as pd

    def tag_left(batch: pa.Table) -> pa.Table:
        out = pa.table(
            {key_col: batch[key_col], ts_col: batch[ts_col],
             left_id_col: batch[left_id_col]}
        )
        return out.append_column("_side", pa.array(np.zeros(len(batch), dtype=np.int8)))

    _lid_type = None

    def tag_right(batch: pa.Table) -> pa.Table:
        out = pa.table(
            {key_col: batch[key_col], ts_col: batch[ts_col],
             left_id_col: pa.nulls(len(batch), type=_lid_type)}
        )
        return out.append_column("_side", pa.array(np.ones(len(batch), dtype=np.int8)))

    _lsch = left.schema()
    _lid_type = dict(zip(_lsch.names, _lsch.types))[left_id_col]
    w = pd.Timedelta(window) if isinstance(window, str) else window

    def kernel(group: pd.DataFrame) -> pd.DataFrame:
        # Timedelta arithmetic upcasts datetime64[us] to [ns]; normalize so
        # the two merge_asof key dtypes always agree
        if str(group[ts_col].dtype).startswith("datetime64"):
            group = group.assign(**{ts_col: group[ts_col].astype("datetime64[ns]")})
        lhs = group[group["_side"] == 0][[key_col, ts_col, left_id_col]]
        rhs = group[group["_side"] == 1][[key_col, ts_col]]
        if lhs.empty:
            out = lhs.copy()
            out[out_col] = pd.Series([], dtype="int64")
            return out
        lhs = lhs.astype({left_id_col: _lid_type.to_pandas_dtype()})
        if rhs.empty:
            return lhs.assign(**{out_col: np.int64(0)}).reset_index(drop=True)
        rhs = rhs.sort_values([key_col, ts_col], kind="mergesort")
        rhs = rhs.assign(_cc=rhs.groupby(key_col, sort=False).cumcount() + 1)
        rhs = rhs.sort_values(ts_col, kind="mergesort")[[key_col, ts_col, "_cc"]]
        lhs_s = lhs.sort_values(ts_col, kind="mergesort")
        hi = pd.merge_asof(
            lhs_s, rhs, on=ts_col, by=key_col,
            direction="backward", allow_exact_matches=True,
        )["_cc"].fillna(0).to_numpy(np.int64)
        lo_frame = lhs_s.assign(_lo=lhs_s[ts_col] - w)
        lo = pd.merge_asof(
            lo_frame.sort_values("_lo", kind="mergesort"),
            rhs.rename(columns={ts_col: "_lo"}),
            on="_lo", by=key_col,
            direction="backward", allow_exact_matches=False,
        ).sort_values(ts_col, kind="mergesort")["_cc"].fillna(0).to_numpy(np.int64)
        return lhs_s.assign(**{out_col: hi - lo}).reset_index(drop=True)

    tagged = left.map_batches(tag_left, batch_format="pyarrow").union(
        right.map_batches(tag_right, batch_format="pyarrow")
    )
    return shuffle_by(tagged, key_col, kernel, n_parts)


def broadcast_join_int(
    big: "ray.data.Dataset",
    small: "ray.data.Dataset",
    big_key: str,
    small_key: str,
    small_val: str,
    out_col: str,
    how: str = "inner",
) -> "ray.data.Dataset":
    """big ⋈ small on integer keys, small side broadcast as TWO sorted
    int64 numpy arrays probed by ``searchsorted`` — the fast path for the
    star-schema joins every analytic pipeline runs (fact table streams,
    dim table ships once via ``ray.put``). Measured ~2× faster than the
    dict-based `broadcast_join` at 600k fact rows (no per-row dict build,
    no Series.map factorize). ``how='inner'`` drops fact rows whose key
    is absent from the dim side (SQL inner-join semantics — the dict path
    keeps them with a NaN, so pick by need). Expects a UNIQUE dim key;
    with duplicates the first occurrence in the dim table wins (stable
    sort + left ``searchsorted``), unlike a dict's last write.
    """
    import pandas as pd

    sdf = small.select_columns([small_key, small_val]).to_pandas()
    k = sdf[small_key].to_numpy(dtype=np.int64)
    v = sdf[small_val].to_numpy(dtype=np.int64)
    order = np.argsort(k, kind="stable")
    ref = ray.put((k[order], v[order]))
    if how != "inner":
        raise ValueError("broadcast_join_int supports how='inner' only")

    def probe(batch: pa.Table) -> pa.Table:
        ks, vs = ray.get(ref)
        bk = batch[big_key].to_numpy(zero_copy_only=False).astype(np.int64)
        if len(ks) == 0 or len(bk) == 0:
            return batch.slice(0, 0).append_column(
                out_col, pa.array([], type=pa.int64())
            )
        pos = np.minimum(np.searchsorted(ks, bk), len(ks) - 1)
        hit = ks[pos] == bk
        kept = batch.filter(pa.array(hit))
        return kept.append_column(out_col, pa.array(vs[pos[hit]]))

    return big.map_batches(probe, batch_format="pyarrow")
