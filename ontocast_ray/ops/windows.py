"""Windowed aggregates and gap-based sessionization over event streams.

The reference has no streaming/window features (SURVEY §2.8); these are
engine-side operators a large-scale pipeline needs, built from Ray Data
primitives:

- ``tumbling_window``: window key = vectorized timestamp floor inside
  ``map_batches`` (pure map), ONE groupby((user, window)) with vectorized
  aggregates — the pre-aggregate-then-shuffle shape;
- ``sessionize``: per-user gap-based sessions. Needs per-user time order, so
  it colocates users with ``shuffle_by`` (coarse ``hash_partition(user) %
  P``, the one shuffle primitive) and runs a vectorized pandas
  sort+diff+cumsum kernel per partition. Ties broken by event_id so the
  result is deterministic and matches the SQL-window-function oracle.
"""

from __future__ import annotations

import math

import numpy as np
import pandas as pd
import pyarrow as pa

import ray.data
from ray.data.aggregate import Count, Max, Min

from ontocast_ray.ops.shuffle import resolve_n_parts, shuffle_by


def add_tumbling_window(batch: pa.Table, ts_col: str = "ts", every: str = "1h") -> pa.Table:
    ts = batch[ts_col].to_pandas()
    window = ts.dt.floor(every)
    return batch.append_column(
        "window_start", pa.Array.from_pandas(window, type=batch[ts_col].type)
    )


def tumbling_window(
    events: "ray.data.Dataset",
    key_col: str = "user_id",
    ts_col: str = "ts",
    value_col: str = "value",
    every: str = "1h",
) -> "ray.data.Dataset":
    """→ (key, window_start, n_events, min_value, max_value)."""
    windowed = events.map_batches(
        lambda b: add_tumbling_window(b, ts_col, every), batch_format="pyarrow"
    )
    return windowed.groupby([key_col, "window_start"]).aggregate(
        Count(alias_name="n_events"),
        Min(value_col, alias_name="min_value"),
        Max(value_col, alias_name="max_value"),
    )


def hopping_window(
    events: "ray.data.Dataset",
    key_col: str = "user_id",
    ts_col: str = "ts",
    value_col: str = "value",
    size_minutes: int = 60,
    hop_minutes: int = 30,
) -> "ray.data.Dataset":
    """Overlapping (hopping) windows: each event lands in size/hop windows.

    Pure map: every event emits its size/hop window starts (vectorized
    floor + offsets), then ONE groupby — the same pre-aggregate-then-shuffle
    shape as tumbling_window, with a size/hop fan-out factor on the tiny
    pre-aggregation rows rather than any extra shuffle.
    """
    if size_minutes % hop_minutes:
        raise ValueError("size must be a multiple of hop")
    fanout = size_minutes // hop_minutes
    hop = pd.Timedelta(minutes=hop_minutes)
    size = pd.Timedelta(minutes=size_minutes)

    def assign(batch: pa.Table) -> pa.Table:
        ts = batch[ts_col].to_pandas()
        base = ts.dt.floor(f"{hop_minutes}min")
        tables = []
        for k in range(fanout):
            ws = base - k * hop
            keep = (ts >= ws) & (ts < ws + size)
            sub = batch.filter(pa.array(keep.to_numpy()))
            tables.append(
                sub.append_column(
                    "window_start",
                    pa.Array.from_pandas(ws[keep.to_numpy()], type=batch[ts_col].type),
                )
            )
        return pa.concat_tables(tables)

    return (
        events.map_batches(assign, batch_format="pyarrow")
        .groupby([key_col, "window_start"])
        .aggregate(
            Count(alias_name="n_events"),
            Min(value_col, alias_name="min_value"),
            Max(value_col, alias_name="max_value"),
        )
    )


def _sessionize_partition_factory(gap_minutes: float, key_col: str, ts_col: str, id_col: str):
    gap = pd.Timedelta(minutes=gap_minutes)

    def _kernel(group: pd.DataFrame) -> pd.DataFrame:
        """All users of the partition in ONE vectorized pass: sort by
        (key, ts, id), per-key diff via groupby().diff(), session ids from a
        per-key cumsum of the gap flags — no per-user Python loop."""
        df = group.sort_values([key_col, ts_col, id_col])
        diffs = df.groupby(key_col, sort=False)[ts_col].diff()
        new_session = (diffs > gap) | diffs.isna()
        df = df.assign(
            session_id=new_session.groupby(df[key_col], sort=False)
            .cumsum()
            .astype("int64")
        )
        agg = (
            df.groupby([key_col, "session_id"], sort=True)
            .agg(
                n_events=(id_col, "count"),
                session_start=(ts_col, "min"),
                session_end=(ts_col, "max"),
            )
            .reset_index()
        )
        return agg[[key_col, "session_id", "n_events", "session_start", "session_end"]]

    return _kernel


def _lag_partition_factory(key_col: str, ts_col: str, id_col: str, value_col: str):
    def _kernel(group: pd.DataFrame) -> pd.DataFrame:
        """Per-key lag via one sort + groupby().shift() — vectorized across
        every key in the partition."""
        df = group.sort_values([key_col, ts_col, id_col])
        grouped = df.groupby(key_col, sort=False)
        df = df.assign(
            prev_ts=grouped[ts_col].shift(1),
            prev_value=grouped[value_col].shift(1),
        )
        return df[[key_col, id_col, ts_col, value_col, "prev_ts", "prev_value"]].reset_index(drop=True)

    return _kernel


def with_previous_event(
    events: "ray.data.Dataset",
    key_col: str = "user_id",
    ts_col: str = "ts",
    id_col: str = "event_id",
    value_col: str = "value",
    n_parts: int | None = None,
) -> "ray.data.Dataset":
    """Per-key lag (the as-of-previous-row family): each event annotated with
    the previous event's ts/value for the same key. Same coarse-partitioned
    sort kernel as sessionize; event_id tiebreak keeps it deterministic.
    ``n_parts=None`` → sized from the input (see resolve_n_parts)."""
    return shuffle_by(
        events,
        key_col,
        _lag_partition_factory(key_col, ts_col, id_col, value_col),
        n_parts,
    )


def event_sequences(
    events: "ray.data.Dataset",
    key_col: str = "user_id",
    ts_col: str = "ts",
    id_col: str = "event_id",
    value_col: str = "event_type",
    sep: str = ",",
    n_parts: int | None = None,
) -> "ray.data.Dataset":
    """→ (key, n_events, sequence): each key's values concatenated in
    strict (ts, id) order — the user-journey / behavioral-sequence
    primitive (SQL ``string_agg(v, sep ORDER BY ts, id)``). Same coarse
    colocate-by-key shape as sessionize; the concatenation is one pandas
    ``groupby().agg(join)`` C-string pass per partition.

    Per-key output is a single row whose size is the key's history — the
    same per-key-fits-reducer caveat as group_quantiles; cap upstream
    (e.g. a tumbling window key) when histories are unbounded.
    """
    import pandas as pd

    def kernel(group: "pd.DataFrame") -> "pd.DataFrame":
        df = group.sort_values([key_col, ts_col, id_col])
        g = df.groupby(key_col, sort=True)[value_col]
        out = g.agg(lambda s: sep.join(s.astype(str))).reset_index(name="sequence")
        out.insert(1, "n_events", g.size().to_numpy())
        return out

    return shuffle_by(events, key_col, kernel, n_parts)


def window_first_last(
    events: "ray.data.Dataset",
    every: str = "1h",
    key_col: str = "user_id",
    ts_col: str = "ts",
    id_col: str = "event_id",
    value_col: str = "value",
    n_parts: int | None = None,
) -> "ray.data.Dataset":
    """→ (key, window_start, first_value, last_value, n_events): first-
    and last-touch value per key per tumbling window, ordered by
    (ts, id) — the attribution-window primitive. Selection, not
    arithmetic, so float values are bit-exact vs the SQL row_number
    oracle. Same coarse-partitioned sort kernel as sessionize."""
    import pandas as pd

    n_parts = resolve_n_parts(events, n_parts)

    def kernel(group: "pd.DataFrame") -> "pd.DataFrame":
        df = group.sort_values([key_col, "window_start", ts_col, id_col])
        g = df.groupby([key_col, "window_start"], sort=True)
        agg = g[value_col].agg(["first", "last", "size"]).reset_index()
        return agg.rename(
            columns={"first": "first_value", "last": "last_value", "size": "n_events"}
        ).astype({"n_events": "int64"})

    windowed = events.map_batches(
        lambda b: add_tumbling_window(b, ts_col=ts_col, every=every),
        batch_format="pyarrow",
    )
    return shuffle_by(windowed, key_col, kernel, n_parts)


def _rolling_partition_factory(
    key_col: str, ts_col: str, id_col: str, value_col: str, k: int, agg: str
):
    out_col = f"rolling_{agg}"

    def _kernel(group: pd.DataFrame) -> pd.DataFrame:
        """Per-key rolling aggregate via one sort + groupby().rolling() —
        a single C pass across every key in the partition."""
        df = group.sort_values([key_col, ts_col, id_col])
        rolled = (
            df.groupby(key_col, sort=False)[value_col]
            .rolling(window=k, min_periods=1)
            .agg(agg)
            .reset_index(level=0, drop=True)
        )
        df = df.assign(**{out_col: rolled})
        return df[[key_col, id_col, ts_col, value_col, out_col]].reset_index(drop=True)

    return _kernel


def rolling_window_agg(
    events: "ray.data.Dataset",
    k: int = 3,
    agg: str = "max",
    key_col: str = "user_id",
    ts_col: str = "ts",
    id_col: str = "event_id",
    value_col: str = "value",
    n_parts: int | None = None,
) -> "ray.data.Dataset":
    """Sliding row-window aggregate per key — SQL ``agg(value) OVER
    (PARTITION BY key ORDER BY ts, id ROWS BETWEEN k-1 PRECEDING AND
    CURRENT ROW)``. Same coarse-partitioned sort kernel as sessionize/lag;
    the id tiebreak keeps ordering deterministic.

    ``agg`` ∈ {"max", "min", "count", "sum", "mean"}. max/min/count are
    exactly order-free (bit-identical to any SQL engine on floats);
    sum/mean over doubles are sequential within the window on both sides
    but can differ in the last ulp across engines — use integer values
    when cross-engine exactness matters.
    """
    if agg not in ("max", "min", "count", "sum", "mean"):
        raise ValueError(f"unsupported agg: {agg}")
    return shuffle_by(
        events,
        key_col,
        _rolling_partition_factory(key_col, ts_col, id_col, value_col, k, agg),
        n_parts,
    )


def sessionize(
    events: "ray.data.Dataset",
    gap_minutes: float = 30.0,
    key_col: str = "user_id",
    ts_col: str = "ts",
    id_col: str = "event_id",
    n_parts: int | None = None,
) -> "ray.data.Dataset":
    """→ (user_id, session_id, n_events, session_start, session_end).

    session_id restarts at 1 per user (matches the SQL cumulative-sum-over-
    lag oracle). ``n_parts=None`` → sized from the input (resolve_n_parts)."""
    return shuffle_by(
        events,
        key_col,
        _sessionize_partition_factory(gap_minutes, key_col, ts_col, id_col),
        n_parts,
    )


def group_quantiles(
    events: "ray.data.Dataset",
    key_col: str = "event_type",
    value_col: str = "value",
    quantiles: tuple = (0.5, 0.95, 0.99),
    n_parts: int | None = None,
) -> "ray.data.Dataset":
    """Exact per-group discrete quantiles (key, q50, q95, ... columns).

    Keys colocate on the coarse hash partition, the kernel sorts each key's
    values once (vectorized) and picks index max(0, ceil(p*n) - 1) — the
    discrete-quantile rule SQL ``quantile_disc`` uses, so results match the
    oracle bit-for-bit. Scale caveat (same as sessionize): one key's values
    must fit a reducer; for billions-per-key switch to a mergeable
    histogram sketch and accept approximation.
    """
    import math as _math

    import numpy as np

    cols = [f"q{round(p * 100)}" for p in quantiles]  # round, not int: 0.29*100 floats to 28.999..

    def kernel(group: pd.DataFrame) -> pd.DataFrame:
        out = {key_col: [], **{c: [] for c in cols}}
        for key, rows in group.groupby(key_col, sort=False):
            v = np.sort(rows[value_col].to_numpy())
            n = len(v)
            out[key_col].append(key)
            for p, c in zip(quantiles, cols):
                idx = max(0, _math.ceil(p * n) - 1)
                out[c].append(float(v[idx]))
        return pd.DataFrame(out)

    return shuffle_by(events, key_col, kernel, n_parts)


def tumbling_window_late_drop(
    events: "ray.data.Dataset",
    key_col: str = "user_id",
    ts_col: str = "ts",
    value_col: str = "value",
    arrival_col: str = "arrival_ts",
    every_minutes: int = 60,
    allowed_lateness_minutes: int = 10,
) -> "ray.data.Dataset":
    """Event-time tumbling aggregate with watermark semantics in batch form:
    an event is LATE — excluded from its window — iff its arrival time is
    past the window close plus the allowed lateness. The late check is a
    pure row predicate (event time vs its own window bound), so the whole
    operator stays a map + one groupby; no sequential watermark state is
    needed to replay streaming drop decisions over stored data.
    """
    every = pd.Timedelta(minutes=every_minutes)
    lateness = pd.Timedelta(minutes=allowed_lateness_minutes)

    def assign(batch: pa.Table) -> pa.Table:
        ts = batch[ts_col].to_pandas()
        arrival = batch[arrival_col].to_pandas()
        ws = ts.dt.floor(f"{every_minutes}min")
        on_time = (arrival <= ws + every + lateness).to_numpy()
        sub = batch.filter(pa.array(on_time))
        return sub.append_column(
            "window_start",
            pa.Array.from_pandas(ws[on_time], type=batch[ts_col].type),
        )

    return (
        events.map_batches(assign, batch_format="pyarrow")
        .groupby([key_col, "window_start"])
        .aggregate(
            Count(alias_name="n_events"),
            Min(value_col, alias_name="min_value"),
            Max(value_col, alias_name="max_value"),
        )
    )


def global_quantiles_exact(
    ds: "ray.data.Dataset",
    value_col: str = "value",
    quantiles: tuple = (0.5, 0.95, 0.99),
) -> "ray.data.Dataset":
    """→ (q, value): EXACT global discrete quantiles of a float64 column
    at any scale — distributed radix selection, the order-statistics
    companion to `group_quantiles` (whose per-key-fits-reducer caveat
    this op removes for the global case) and the exact counterpart of
    the DDSketch approximation.

    Doubles are mapped to their IEEE order-preserving uint64 key (sign
    bit flipped for positives, full complement for negatives), then each
    quantile's element is located by FOUR 16-bit radix rounds: every
    round is one pure map over the (materialized, 8 B/row) key column
    emitting per-quantile bucket histograms already filtered to the
    quantile's current prefix — sparse (q, bucket, count) partials
    stream to the driver, which keeps O(|Q|·2^16) ints, picks the bucket
    containing the residual rank, and extends the prefix. After round 4
    the full 64-bit key is known and inverts back to the exact double.
    Nothing row-sized ever reaches the driver, there are NO shuffles,
    and heavy duplication (a single value = billions of rows) costs
    nothing — the rank arithmetic walks straight through it. NaNs are
    excluded (SQL aggregate semantics). Index rule is ``max(0,
    ceil(p·n)-1)`` on the sorted multiset — bit-identical to DuckDB's
    ``quantile_disc``.
    """
    import math

    import numpy as np
    import ray

    def to_key(v: np.ndarray) -> np.ndarray:
        v = v.astype(np.float64, copy=False)
        v = v[~np.isnan(v)]
        b = v.view(np.uint64)
        return np.where(
            (b >> np.uint64(63)) == 1, ~b, b | np.uint64(1 << 63)
        )

    def from_key(k: int) -> float:
        k = np.uint64(k)
        b = ~k if (k >> np.uint64(63)) == 0 else k ^ np.uint64(1 << 63)
        return float(np.array([b], dtype=np.uint64).view(np.float64)[0])

    keys = ds.map_batches(
        lambda b: pa.table(
            {"k": pa.array(
                to_key(
                    b[value_col].to_numpy(zero_copy_only=False)
                ).view(np.int64)
            )}
        ),
        batch_format="pyarrow",
    ).materialize()
    n = keys.count()
    if n == 0:
        return ray.data.from_arrow(
            pa.table({"q": pa.array([], type=pa.float64()),
                      "value": pa.array([], type=pa.float64())})
        )

    nq = len(quantiles)
    ranks = [max(0, math.ceil(p * n) - 1) for p in quantiles]
    prefixes = [np.uint64(0)] * nq
    for level, shift in enumerate((48, 32, 16, 0)):
        pref = list(prefixes)  # bind for the closure

        def hist_pass(batch: pa.Table) -> pa.Table:
            k = batch["k"].to_numpy(zero_copy_only=False).view(np.uint64)
            qi_col, b_col, c_col = [], [], []
            for qi in range(nq):
                if level == 0:
                    sel = k
                else:
                    sel = k[(k >> np.uint64(shift + 16)) == pref[qi]]
                if len(sel) == 0:
                    continue
                sub = ((sel >> np.uint64(shift)) &
                       np.uint64(0xFFFF)).astype(np.int64)
                cnt = np.bincount(sub, minlength=65536)
                nz = np.nonzero(cnt)[0]
                qi_col.append(np.full(len(nz), qi, dtype=np.int64))
                b_col.append(nz.astype(np.int64))
                c_col.append(cnt[nz].astype(np.int64))
            if not qi_col:
                return pa.table({"qi": pa.array([], type=pa.int64()),
                                 "b": pa.array([], type=pa.int64()),
                                 "c": pa.array([], type=pa.int64())})
            return pa.table({"qi": pa.array(np.concatenate(qi_col)),
                             "b": pa.array(np.concatenate(b_col)),
                             "c": pa.array(np.concatenate(c_col))})

        hist = np.zeros((nq, 65536), dtype=np.int64)
        for part in keys.map_batches(
            hist_pass, batch_format="pyarrow"
        ).iter_batches(batch_format="pandas", batch_size=None):
            np.add.at(
                hist,
                (part["qi"].to_numpy(), part["b"].to_numpy()),
                part["c"].to_numpy(),
            )
        new_prefixes = []
        for qi in range(nq):
            cum = np.cumsum(hist[qi])
            b = int(np.searchsorted(cum, ranks[qi] + 1, side="left"))
            ranks[qi] -= int(cum[b - 1]) if b > 0 else 0
            new_prefixes.append(
                (prefixes[qi] << np.uint64(16)) | np.uint64(b)
            )
        prefixes = new_prefixes

    return ray.data.from_arrow(
        pa.table(
            {
                "q": pa.array(list(quantiles), type=pa.float64()),
                "value": pa.array(
                    [from_key(p) for p in prefixes], type=pa.float64()
                ),
            }
        )
    )


def global_robust_scale(
    ds: "ray.data.Dataset",
    value_col: str = "value",
    out_col: str = "robust_z",
) -> "ray.data.Dataset":
    """→ input + ``out_col`` = (v - median) / MAD: GLOBAL robust
    standardization (the outlier-insensitive z-score every feature
    pipeline wants when means/stds are poisoned by heavy tails) — the
    global companion of `ops.features.mad_outliers`' per-key rule.

    Composition of two `global_quantiles_exact` radix selections (the
    global median, then the median absolute deviation via a mapped
    |v - med| pass) plus one pure scaling map: ~9 map passes total,
    ZERO shuffles, driver state two float64 scalars. med and MAD are
    exact multiset elements, and IEEE subtract/divide of identical
    operands is deterministic — so the result is bit-exact vs the SQL
    ``quantile_disc`` mirror. MAD = 0 (constant column) yields 0.0, the
    `mad_outliers` convention.
    """
    import numpy as np

    # consumed three times (median, MAD, scale) — pin the lineage once
    ds = ds.materialize()
    med = global_quantiles_exact(
        ds, value_col=value_col, quantiles=(0.5,)
    ).take_all()[0]["value"]

    def dev(batch: pa.Table) -> pa.Table:
        v = batch[value_col].to_numpy(zero_copy_only=False).astype(
            np.float64
        )
        return pa.table({"value": pa.array(np.abs(v - med))})

    mad = global_quantiles_exact(
        ds.map_batches(dev, batch_format="pyarrow"),
        value_col="value", quantiles=(0.5,),
    ).take_all()[0]["value"]

    def scale(batch: pa.Table) -> pa.Table:
        v = batch[value_col].to_numpy(zero_copy_only=False).astype(
            np.float64
        )
        z = (v - med) / mad if mad != 0.0 else np.zeros_like(v)
        return batch.append_column(out_col, pa.array(z))

    return ds.map_batches(scale, batch_format="pyarrow")


def weekly_retention(
    events: "ray.data.Dataset",
    user_col: str = "user_id",
    ts_col: str = "ts",
    n_parts: int = 16,
) -> "ray.data.Dataset":
    """→ (week_start, n_active, n_retained, retention): classic cohort
    week-over-week retention — of the users active in ISO week w, how
    many are also active in w+1.

    Shape: `distinct_on` collapses the event stream to (user, week)
    pairs map-side (shuffle carries one row per active user-week, never
    events); ONE coarse ``hash(user) % P`` colocate lets a vectorized
    kernel flag retained weeks per user (sorted diff == 7 days — no
    per-user Python); per-partition partial counts then sum in a tiny
    week-keyed groupby (weeks are calendar-few by definition). Week
    truncation is ISO-Monday on both engines (pandas weekday arithmetic
    == DuckDB date_trunc('week')).
    """
    import numpy as np
    import pandas as pd

    from ontocast_ray.ops.joins import distinct_on
    from ray.data.aggregate import Sum

    def to_week(batch: pa.Table) -> pa.Table:
        ts = batch[ts_col].to_pandas()
        ws = (
            ts - pd.to_timedelta(ts.dt.weekday, unit="D")
        ).dt.normalize()
        return pa.table(
            {
                user_col: batch[user_col],
                "week_start": pa.Array.from_pandas(ws),
            }
        )

    uw = distinct_on(
        events.map_batches(to_week, batch_format="pyarrow"),
        [user_col, "week_start"],
        n_parts=n_parts,
    )

    week = pd.Timedelta(days=7)

    def flag(group: "pd.DataFrame") -> "pd.DataFrame":
        g = group.sort_values([user_col, "week_start"], kind="mergesort")
        nxt = g.groupby(user_col, sort=False)["week_start"].shift(-1)
        retained = (nxt - g["week_start"]) == week
        part = pd.DataFrame({
            "week_start": g["week_start"].to_numpy(),
            "n_active": np.ones(len(g), dtype=np.int64),
            "n_retained": retained.fillna(False).to_numpy().astype(np.int64),
        })
        return part.groupby("week_start", as_index=False).sum()

    counts = (
        shuffle_by(uw, user_col, flag, n_parts)
        .groupby("week_start")
        .aggregate(
            Sum("n_active", alias_name="n_active"),
            Sum("n_retained", alias_name="n_retained"),
        )
    )

    def ratio(batch: pa.Table) -> pa.Table:
        a = batch["n_active"].to_numpy(zero_copy_only=False).astype(np.int64)
        r = batch["n_retained"].to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        return pa.table(
            {
                "week_start": batch["week_start"],
                "n_active": pa.array(a),
                "n_retained": pa.array(r),
                "retention": pa.array(r / np.maximum(a, 1)),
            }
        )

    return counts.map_batches(ratio, batch_format="pyarrow")


def quantile_bucketize(
    ds: "ray.data.Dataset",
    value_col: str = "value",
    k: int = 10,
    out_col: str = "bucket",
) -> "ray.data.Dataset":
    """→ input + ``out_col`` ∈ [0, k): equal-frequency feature binning —
    each row's bucket is the number of exact global quantile boundaries
    (p = 1/k … (k-1)/k, `global_quantiles_exact`) at or below its value.
    The standard quantile-binning transform of feature pipelines, exact
    at any scale: one radix-selection pass for the k-1 boundaries (zero
    shuffles), then a pure ``searchsorted`` map. Heavy duplication makes
    buckets unequal exactly the way SQL's comparison rule does — the
    mirror is a boundary-list membership count, bit-identical.
    """
    import numpy as np

    ds = ds.materialize()  # consumed by the boundary pass and the map
    qs = tuple(i / k for i in range(1, k))
    rows = global_quantiles_exact(
        ds, value_col=value_col, quantiles=qs
    ).take_all()
    bounds = np.array(
        [r["value"] for r in sorted(rows, key=lambda r: r["q"])],
        dtype=np.float64,
    )

    def assign(batch: pa.Table) -> pa.Table:
        v = batch[value_col].to_numpy(zero_copy_only=False).astype(
            np.float64
        )
        b = np.searchsorted(bounds, v, side="right")
        return batch.append_column(
            out_col, pa.array(b.astype(np.int64))
        )

    return ds.map_batches(assign, batch_format="pyarrow")


def decayed_user_value(
    events: "ray.data.Dataset",
    ref_ts: str = "2024-02-01 00:00:00",
    half_life_days: int = 7,
    user_col: str = "user_id",
    ts_col: str = "ts",
    value_col: str = "value",
    n_parts: int = 16,
) -> "ray.data.Dataset":
    """→ (user_id, decayed_cents, n_events): recency-weighted per-user
    value — each event contributes ``floor(value·100) >> (age //
    half_life)`` (integer half-life decay, halving per period relative
    to a FIXED reference timestamp). The standard recency-scoring shape
    (engagement/LTV decay) made ORDER-FREE and engine-exact: float
    exponential decay sums drift with accumulation order; integer
    shift-decay sums are exact in any order, so the SQL mirror is
    bit-identical.

    Pure map (cents, age bucket, shift) + map-side per-user combiner +
    one coarse ``hash(user) % P`` sum — the canonical pre-aggregate
    shape; nothing event-sized shuffles.
    """
    import numpy as np
    import pandas as pd

    ref = pd.Timestamp(ref_ts)

    def partial(df: "pd.DataFrame") -> "pd.DataFrame":
        cents = np.floor(
            df[value_col].to_numpy(dtype=np.float64) * 100.0
        ).astype(np.int64)
        # integer MICROSECOND age: timestamps are timestamp[us], so the
        # diff is exact int64 on both engines (float total_seconds()
        # disagreed with SQL date_diff at second boundaries — reviewed)
        age_us = (ref - df[ts_col]).to_numpy().astype(
            "timedelta64[us]"
        ).astype(np.int64)
        k = (age_us // 86_400_000_000) // half_life_days
        k = np.clip(k, 0, 62)
        dec = cents >> k
        g = pd.DataFrame({user_col: df[user_col].to_numpy(),
                          "decayed_cents": dec,
                          "n_events": np.ones(len(df), dtype=np.int64)})
        return g.groupby(user_col, as_index=False).sum()

    def combine(g: "pd.DataFrame") -> "pd.DataFrame":
        out = g.groupby(user_col, as_index=False).agg(
            decayed_cents=("decayed_cents", "sum"),
            n_events=("n_events", "sum"),
        )
        return out

    return shuffle_by(
        events.map_batches(partial, batch_format="pandas"),
        user_col,
        combine,
        n_parts,
    )


def top_sessions_by_value(
    events: "ray.data.Dataset",
    gap_minutes: float = 30.0,
    k: int = 10,
    key_col: str = "user_id",
    ts_col: str = "ts",
    id_col: str = "event_id",
    value_col: str = "value",
    n_parts: int | None = None,
) -> "ray.data.Dataset":
    """→ top-k (user_id, session_id, n_events, value_cents): the
    highest-value sessions corpus-wide — sessionization composed with a
    value rollup and a global rank. Session values sum as INTEGER cents
    (``floor(value·100)``): float session sums would depend on
    accumulation order; cents are exact in any order, so the SQL mirror
    (the sessions CTE + a cents sum + ORDER/LIMIT) is bit-identical.

    One coarse ``hash(user) % P`` colocate (sessions are per-user by
    construction, so each partition rolls up its own sessions
    completely) + a k-row global sort — nothing event-sized leaves the
    partition except k candidates per part.
    """
    import numpy as np
    import pandas as pd

    gap = pd.Timedelta(minutes=gap_minutes)

    def kern(group: "pd.DataFrame") -> "pd.DataFrame":
        g = group.sort_values([key_col, ts_col, id_col], kind="mergesort")
        new_s = (
            g.groupby(key_col, sort=False)[ts_col].diff() > gap
        ) | g.groupby(key_col, sort=False).cumcount().eq(0)
        g = g.assign(
            session_id=new_s.astype(np.int64)
            .groupby(g[key_col], sort=False)
            .cumsum(),
            cents=np.floor(
                g[value_col].to_numpy(dtype=np.float64) * 100.0
            ).astype(np.int64),
        )
        agg = g.groupby([key_col, "session_id"], as_index=False).agg(
            n_events=("cents", "size"), value_cents=("cents", "sum")
        )
        agg["n_events"] = agg["n_events"].astype(np.int64)
        # per-partition top-k: only k candidate rows leave each part
        return agg.sort_values(
            ["value_cents", key_col, "session_id"],
            ascending=[False, True, True],
        ).head(k)

    ranked = shuffle_by(events, key_col, kern, n_parts)
    return ranked.sort(
        ["value_cents", key_col, "session_id"],
        descending=[True, False, False],
    ).limit(k)


def followed_by_counts(
    events: "ray.data.Dataset",
    window_minutes: int = 10,
    key_col: str = "user_id",
    ts_col: str = "ts",
    type_col: str = "event_type",
    id_col: str = "event_id",
    n_parts: int = 16,
) -> "ray.data.Dataset":
    """→ (type_a, type_b, n_pairs): complex-event sequence mining — for
    every ordered pair of events of the SAME user with
    ``0 < t_b - t_a ≤ window``, count the (type_a → type_b)
    transitions. The 'A followed by B within T' primitive of
    behavioral/funnel analytics, generalized to all type pairs.

    One coarse ``hash(user) % P`` colocate; the kernel walks each
    user's time-sorted events with ``searchsorted`` window ends and
    explodes pairs via ``np.repeat`` (no per-pair Python; per-user
    fan-out is bounded by events-in-window, the analytic's intrinsic
    output size). Tiny (type_a, type_b) partials then sum in one
    single-partition combine (type-pair cardinality is schema-small).
    Tie rule: simultaneous events order by (ts, id) and only strictly
    later events count (Δt > 0), so the SQL self-join mirror is exact.
    """
    import numpy as np
    import pandas as pd

    win_us = np.int64(window_minutes * 60 * 1_000_000)

    def kern(group: "pd.DataFrame") -> "pd.DataFrame":
        g = group.sort_values([key_col, ts_col, id_col], kind="mergesort")
        out = {}
        for _, sub in g.groupby(key_col, sort=False):
            ts = sub[ts_col].to_numpy().astype("datetime64[us]").astype(
                np.int64
            )
            ty = sub[type_col].to_numpy()
            n = len(ts)
            if n < 2:
                continue
            # first index with ts strictly greater (Δt > 0 rule)
            lo = np.searchsorted(ts, ts, side="right")
            hi = np.searchsorted(ts, ts + win_us, side="right")
            counts = hi - lo
            if counts.sum() == 0:
                continue
            a_idx = np.repeat(np.arange(n), counts)
            offs = np.arange(len(a_idx)) - np.repeat(
                np.cumsum(counts) - counts, counts
            )
            b_idx = np.repeat(lo, counts) + offs
            pairs = pd.DataFrame({"type_a": ty[a_idx], "type_b": ty[b_idx]})
            vc = pairs.groupby(["type_a", "type_b"]).size()
            for k, v in vc.items():
                out[k] = out.get(k, 0) + int(v)
        if not out:
            # dtype-pinned empty frame: untyped [] columns would land as
            # object/null-typed blocks and mismatch the int64 schema of
            # non-empty partitions feeding the final combine
            return pd.DataFrame({
                "type_a": pd.Series([], dtype=object),
                "type_b": pd.Series([], dtype=object),
                "n": pd.Series([], dtype="int64"),
            })
        keys = list(out)
        return pd.DataFrame({
            "type_a": [k[0] for k in keys],
            "type_b": [k[1] for k in keys],
            "n": np.array([out[k] for k in keys], dtype=np.int64),
        })

    def final(df: "pd.DataFrame") -> "pd.DataFrame":
        out = df.groupby(["type_a", "type_b"], as_index=False)["n"].sum()
        out = out.rename(columns={"n": "n_pairs"})
        out["n_pairs"] = out["n_pairs"].astype(np.int64)
        return out

    partials = shuffle_by(events, key_col, kern, n_parts)
    return shuffle_by(partials, ["type_a", "type_b"], final, n_parts=1)


def grouped_quantile_buckets(
    ds: "ray.data.Dataset",
    group_col: str,
    score_col: str,
    quantiles: tuple = (1.0 / 3, 2.0 / 3),
    labels: tuple = ("tail", "middle", "head"),
    n_parts: int | None = None,
    max_distinct: int = 1_000_000,
) -> "ray.data.Dataset":
    """CCNet-style per-group quantile bucketing: each row gets the bucket
    label of its score's position within ITS group's exact discrete
    quantiles (default terciles → head / middle / tail, the CCNet
    perplexity-bucket rule). → input columns + ``bucket``.

    Scale shape: phase 1 is a map-side (group, score) count combiner
    through one coarse ``hash % P`` shuffle — the wire carries one row per
    DISTINCT (group, score) pair per block, never per document. Phase 2
    walks each group's sorted distinct-score counts to the
    ``max(0, ceil(p·n)-1)`` order statistic (the SQL ``quantile_disc``
    rule, bit-identical to the oracle); the walk happens driver-side over
    the distinct pairs, guarded by ``max_distinct`` (the documented
    contract: scores are QUANTIZED — classifier fixed-points, integer
    signals — so distinct counts stay bounded regardless of corpus size;
    for unbounded continuous scores use `global_quantiles_exact`'s radix
    walk per group instead). Phase 3 broadcasts the tiny per-group
    boundary table once and assigns labels in a pure map — zero further
    shuffles, parallelism-invariant.
    """
    import numpy as np
    import ray

    if len(labels) != len(quantiles) + 1:
        raise ValueError("need len(quantiles)+1 labels")
    n_parts = resolve_n_parts(ds, n_parts)
    # consumed twice (count pass + assignment map): materialize so the
    # upstream lineage (e.g. a classifier scoring every document) runs once
    ds = ds.materialize()

    def _partial(df: pd.DataFrame) -> pd.DataFrame:
        g = (
            df.groupby([group_col, score_col], as_index=False)
            .size()
            .rename(columns={"size": "n"})
        )
        g["n"] = g["n"].astype(np.int64)
        return g

    def _final(df: pd.DataFrame) -> pd.DataFrame:
        out = df.groupby([group_col, score_col], as_index=False)["n"].sum()
        out["n"] = out["n"].astype(np.int64)
        return out

    counts = shuffle_by(
        ds.map_batches(_partial, batch_format="pandas"),
        [group_col, score_col],
        _final,
        n_parts,
    ).materialize()
    n_distinct = counts.count()
    if n_distinct > max_distinct:
        raise ValueError(
            f"{n_distinct} distinct (group, score) pairs exceed "
            f"max_distinct={max_distinct}; quantize the score or use the "
            "radix quantile path"
        )

    cdf = counts.to_pandas()
    bounds: dict = {}
    for gval, rows in cdf.groupby(group_col, sort=False):
        rows = rows.sort_values(score_col, kind="stable")
        cum = rows["n"].to_numpy(dtype=np.int64).cumsum()
        total = int(cum[-1])
        scores = rows[score_col].to_numpy()
        b = []
        for p in quantiles:
            idx = max(0, math.ceil(p * total) - 1)
            b.append(scores[np.searchsorted(cum, idx + 1, side="left")])
        bounds[gval] = np.asarray(b)
    bounds_ref = ray.put(bounds)

    labels_arr = np.asarray(labels, dtype=object)

    def _assign(df: pd.DataFrame) -> pd.DataFrame:
        bmap = ray.get(bounds_ref)
        out_bucket = np.empty(len(df), dtype=object)
        scores = df[score_col].to_numpy()
        for gval, idx in df.groupby(group_col, sort=False).indices.items():
            b = bmap[gval]
            pos = np.searchsorted(b, scores[idx], side="left")
            out_bucket[idx] = labels_arr[pos]
        df = df.copy()
        df["bucket"] = out_bucket
        return df

    return ds.map_batches(_assign, batch_format="pandas")


def next_event_context(
    events: "ray.data.Dataset",
    key_col: str = "user_id",
    ts_col: str = "ts",
    id_col: str = "event_id",
    type_col: str = "event_type",
    context: int = 3,
    pad: str = "<s>",
    n_parts: int | None = None,
) -> "ray.data.Dataset":
    """Next-event-prediction training pairs from an event log (the
    sequence-model dataset constructor): for every event, the previous
    ``context`` event types of the SAME user in strict (ts, id) order
    become the input features, the current type the label. Positions
    before the user's history start are the ``pad`` sentinel (cross-
    engine: NULL-vs-NaN string casts diverge, a literal never does).
    → (id_col, key_col, prev1..prevN, label).

    One coarse ``hash(key) % P`` shuffle; the kernel sorts the partition
    once and takes all lags via vectorized ``groupby().shift`` — all
    users of a partition in one pass, no per-user Python.
    """

    def kernel(group: pd.DataFrame) -> pd.DataFrame:
        df = group.sort_values([key_col, ts_col, id_col], kind="mergesort")
        out = {id_col: df[id_col].to_numpy(),
               key_col: df[key_col].to_numpy()}
        g = df.groupby(key_col, sort=False)[type_col]
        for j in range(1, context + 1):
            out[f"prev{j}"] = g.shift(j).fillna(pad).to_numpy()
        out["label"] = df[type_col].to_numpy()
        return pd.DataFrame(out)

    return shuffle_by(events, key_col, kernel, n_parts)


def user_trend_fractions(
    events: "ray.data.Dataset",
    key_col: str = "user_id",
    ts_col: str = "ts",
    y_col: str = "y",
    minutes_per_unit: int = 1,
    n_parts: int | None = None,
) -> "ray.data.Dataset":
    """Per-key OLS trend of an integer signal over time, kept EXACT as two
    integer fractions (the featurize-per-entity step of churn/LTV models —
    and the float-order trap case: a naive float slope differs run-to-run
    under Ray's nondeterministic reduce order). → (key_col, n, slope_num,
    slope_den) where slope = slope_num / slope_den, slope_num = n·Σxy −
    Σx·Σy, slope_den = n·Σx² − (Σx)², x = whole minutes since the key's
    FIRST event, y the integer signal. All arithmetic is int64; minute
    resolution keeps n·Σx² far from overflow at real per-key cardinality
    (x ≤ 5·10⁵ for a year span → n·Σx² ≈ 10¹⁷ at n=1000).

    One coarse ``hash(key) % P`` shuffle (the sessionize shape); the
    kernel computes min-ts, x, and all four moments per key in ONE
    vectorized pandas groupby pass — no per-key Python.
    """
    import pandas as pd

    n_parts = resolve_n_parts(events, n_parts)
    unit_us = np.int64(minutes_per_unit) * 60_000_000

    def prep(batch: pa.Table) -> pa.Table:
        return pa.table({
            key_col: batch[key_col],
            "_ts": batch[ts_col].cast(pa.int64()),
            y_col: batch[y_col].cast(pa.int64()),
        })

    def kern(df: "pd.DataFrame") -> "pd.DataFrame":
        ts = df["_ts"].to_numpy(dtype=np.int64)
        y = df[y_col].to_numpy(dtype=np.int64)
        g = df.groupby(key_col, sort=False)
        min_ts = g["_ts"].transform("min").to_numpy(dtype=np.int64)
        x = (ts - min_ts) // unit_us
        agg = pd.DataFrame({
            key_col: df[key_col].to_numpy(),
            "x": x, "y": y, "xy": x * y, "xx": x * x,
        }).groupby(key_col, as_index=False).agg(
            n=("x", "size"), sx=("x", "sum"), sy=("y", "sum"),
            sxy=("xy", "sum"), sxx=("xx", "sum"),
        )
        n = agg["n"].to_numpy(dtype=np.int64)
        sx = agg["sx"].to_numpy(dtype=np.int64)
        return pd.DataFrame({
            key_col: agg[key_col].to_numpy(),
            "n": n,
            "slope_num": n * agg["sxy"].to_numpy(dtype=np.int64)
            - sx * agg["sy"].to_numpy(dtype=np.int64),
            "slope_den": n * agg["sxx"].to_numpy(dtype=np.int64) - sx * sx,
        })

    return shuffle_by(
        events.map_batches(prep, batch_format="pyarrow"), key_col, kern, n_parts
    )


def event_bursts(
    events: "ray.data.Dataset",
    key_col: str = "user_id",
    ts_col: str = "ts",
    every_us: int = 3_600_000_000,
    factor_num: int = 2,
    factor_den: int = 1,
    n_parts: int | None = None,
) -> "ray.data.Dataset":
    """Burst detection — the monitoring primitive behind crawl-trap and
    abuse detection: per (key, tumbling window) event counts, flagged
    when the window's count exceeds ``factor_num/factor_den ×`` the key's
    mean count per ACTIVE window. The comparison is pure integer
    cross-multiplication (``c · n_windows · den > num · total``) so the
    flag is bit-exact across engines — no float mean. → (key_col,
    window_start [µs], n_events, user_total, n_windows, is_burst).

    One coarse ``hash(key) % P`` shuffle of map-side (key, window, count)
    partials — the raw events never cross the wire; the kernel folds all
    keys of a partition in two vectorized groupby passes.
    """
    import pandas as pd

    n_parts = resolve_n_parts(events, n_parts)
    every = np.int64(every_us)

    def prep(batch: pa.Table) -> pa.Table:
        ts = batch[ts_col].cast(pa.int64()).to_numpy(zero_copy_only=False)
        keys = batch[key_col].to_numpy(zero_copy_only=False)
        win = (ts // every) * every
        g = (
            pd.DataFrame({key_col: keys, "window_start": win})
            .groupby([key_col, "window_start"], as_index=False)
            .size()
            .rename(columns={"size": "n_events"})
        )
        g["n_events"] = g["n_events"].astype(np.int64)
        return pa.Table.from_pandas(g, preserve_index=False)

    def kern(df: "pd.DataFrame") -> "pd.DataFrame":
        g = (
            df.groupby([key_col, "window_start"], as_index=False)
            .agg(n_events=("n_events", "sum"))
        )
        per_key = g.groupby(key_col, sort=False)["n_events"]
        total = per_key.transform("sum").to_numpy(dtype=np.int64)
        nwin = per_key.transform("size").to_numpy(dtype=np.int64)
        c = g["n_events"].to_numpy(dtype=np.int64)
        return pd.DataFrame({
            key_col: g[key_col].to_numpy(),
            "window_start": g["window_start"].to_numpy(dtype=np.int64),
            "n_events": c,
            "user_total": total,
            "n_windows": nwin,
            "is_burst": c * nwin * np.int64(factor_den)
            > np.int64(factor_num) * total,
        })

    return shuffle_by(
        events.map_batches(prep, batch_format="pyarrow"), key_col, kern, n_parts
    )


def activity_streaks(
    events: "ray.data.Dataset",
    key_col: str = "user_id",
    ts_col: str = "ts",
    n_parts: int | None = None,
) -> "ray.data.Dataset":
    """Longest consecutive-day activity streak per key — the classic
    gaps-and-islands analytic (engagement/retention feature): distinct
    active days per user, islands found by the ``day − rank`` trick,
    longest island length + total active days reported. → (key_col,
    longest_streak, n_active_days). All integers; SQL mirror is the
    ROW_NUMBER gaps-and-islands idiom.

    Map-side (key, day) dedup prunes the wire to one row per active
    user-day per block; ONE coarse ``hash(key) % P`` shuffle; the kernel
    folds every key of a partition in vectorized groupby passes.
    """
    import pandas as pd

    n_parts = resolve_n_parts(events, n_parts)
    day_us = np.int64(86_400_000_000)

    def prep(batch: pa.Table) -> pa.Table:
        ts = batch[ts_col].cast(pa.int64()).to_numpy(zero_copy_only=False)
        keys = batch[key_col].to_numpy(zero_copy_only=False)
        g = (
            pd.DataFrame({key_col: keys, "day": ts // day_us})
            .drop_duplicates()
        )
        return pa.Table.from_pandas(g, preserve_index=False)

    def kern(df: "pd.DataFrame") -> "pd.DataFrame":
        df = df.drop_duplicates([key_col, "day"]).sort_values(
            [key_col, "day"], kind="mergesort"
        )
        rank = df.groupby(key_col, sort=False).cumcount().to_numpy(np.int64)
        df = df.assign(island=df["day"].to_numpy(np.int64) - rank)
        runs = (
            df.groupby([key_col, "island"], as_index=False)
            .agg(run=("day", "size"))
        )
        out = runs.groupby(key_col, as_index=False).agg(
            longest_streak=("run", "max"),
            n_active_days=("run", "sum"),
        )
        out["longest_streak"] = out["longest_streak"].astype(np.int64)
        out["n_active_days"] = out["n_active_days"].astype(np.int64)
        return out[[key_col, "longest_streak", "n_active_days"]]

    return shuffle_by(
        events.map_batches(prep, batch_format="pyarrow"), key_col, kern, n_parts
    )
