"""Mergeable cardinality and quantile sketches for corpus-scale stats.

Two classic sketches the 100 TB path needs where exact answers don't fit:

- **HyperLogLog** (``hll_distinct``): approximate COUNT DISTINCT per group.
  Each batch folds its keys into m = 2^p one-byte registers per group
  (``pd.util.hash_array`` 64-bit hashes, vectorized branchless clz); the
  shuffle moves only (group, m-byte blob) rows — one per (batch, group) —
  never the keys. Merge is an elementwise ``np.maximum`` over blobs inside
  a coarse-partitioned kernel (hash(group) % P, groups looped in-kernel per
  the repo's groupby rule). Standard bias-corrected estimator with the
  linear-counting small-range correction.

- **DDSketch-style quantiles** (``dd_quantiles``): relative-error-bounded
  quantiles over positive values (Masson et al., "DDSketch", VLDB 2019 —
  public paper). Values map to log-spaced buckets
  (``ceil(ln(v)/ln(gamma))``, gamma = (1+alpha)/(1-alpha)); a batch emits
  LONG-FORM (group, bucket, count) rows, so the merge is a plain
  C-implemented ``groupby.sum`` — no custom aggregate — and only the final
  per-group rank walk runs in a (coarse-partitioned) Python kernel.
  Guarantees |q_est - q_true| <= alpha * q_true.

Both are pure functions of the input (deterministic hash, deterministic
bucketing), hence parallelism-invariant and golden-pinnable. Neither can be
mirrored by DuckDB's own sketches (different internals), so the driver
oracle is a pinned golden + property tests against exact answers.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

import ray.data

from ontocast_ray.ops.shuffle import shuffle_by

def _hash_series(s: pd.Series) -> np.ndarray:
    """Deterministic cross-process 64-bit hash (siphash with pandas' fixed
    key) of any key dtype → uint64 array."""
    return pd.util.hash_array(np.asarray(s), categorize=False)


def _bit_length_u64(w: np.ndarray) -> np.ndarray:
    """Vectorized exact bit_length for uint64 (branchless clz by halving —
    float log2 would mis-round near powers of two above 2^53)."""
    w = w.copy()
    r = np.zeros(len(w), dtype=np.int64)
    for shift in (32, 16, 8, 4, 2, 1):
        big = w >= (np.uint64(1) << np.uint64(shift))
        r[big] += shift
        w = np.where(big, w >> np.uint64(shift), w)
    return r + (w == 1)


def _hll_registers(keys: pd.Series, p: int) -> tuple[np.ndarray, np.ndarray]:
    """keys → (register index, rho) under a 64-bit hash split."""
    h = _hash_series(keys)  # uint64
    m = np.uint64(1 << p)
    idx = (h & (m - np.uint64(1))).astype(np.int64)
    w = h >> np.uint64(p)
    rho = (64 - p) - _bit_length_u64(w) + 1  # w==0 → 64-p+1
    return idx, rho


def _hll_estimate(reg: np.ndarray) -> int:
    m = len(reg)
    alpha = 0.7213 / (1.0 + 1.079 / m)
    est = alpha * m * m / np.sum(np.ldexp(1.0, -reg.astype(np.int64)))
    zeros = int((reg == 0).sum())
    if est <= 2.5 * m and zeros > 0:
        est = m * np.log(m / zeros)  # linear counting
    return int(round(est))


def hll_distinct(
    ds: "ray.data.Dataset",
    key_col: str,
    group_col: str,
    p: int = 12,
) -> "ray.data.Dataset":
    """→ (group_col, approx_distinct): HyperLogLog distinct ``key_col`` per
    group. Shuffle volume is one 2^p-byte blob per (input block, group)."""
    m = 1 << p

    def _partial(batch: pa.Table) -> pa.Table:
        df = batch.select([group_col, key_col]).to_pandas()
        groups, blobs = [], []
        for g, sub in df.groupby(group_col, sort=False):
            idx, rho = _hll_registers(sub[key_col], p)
            reg = np.zeros(m, dtype=np.uint8)
            np.maximum.at(reg, idx, rho.astype(np.uint8))
            groups.append(g)
            blobs.append(reg.tobytes())
        return pa.table(
            {
                group_col: pa.array(groups),
                "registers": pa.array(blobs, type=pa.binary()),
            }
        )

    def _merge(df: pd.DataFrame) -> pd.DataFrame:
        out_g, out_n = [], []
        for g, sub in df.groupby(group_col, sort=False):
            stack = np.stack(
                [np.frombuffer(b, dtype=np.uint8) for b in sub["registers"]]
            )
            out_g.append(g)
            out_n.append(_hll_estimate(stack.max(axis=0)))
        return pd.DataFrame(
            {group_col: out_g, "approx_distinct": pd.array(out_n, dtype="int64")}
        )

    return shuffle_by(
        ds.map_batches(_partial, batch_format="pyarrow"), group_col, _merge
    )


_ZERO_BUCKET = np.iinfo(np.int64).min


def dd_quantiles(
    ds: "ray.data.Dataset",
    value_col: str,
    group_col: str,
    quantiles: tuple[float, ...] = (0.5, 0.95, 0.99),
    alpha: float = 0.01,
) -> "ray.data.Dataset":
    """→ (group_col, q_50, q_95, ... one column per requested quantile):
    DDSketch quantiles of the positive ``value_col`` per group, each within
    relative error ``alpha``. Values must be >= 0 (zeros tracked exactly)."""
    import math

    # libm (math.*) for the scalar constants and the final power so the
    # output matches DuckDB's ln/power bit-for-bit (numpy's SIMD kernels
    # deviate by 1 ulp); the per-value np.log only feeds a ceil, where a
    # 1-ulp difference matters only if ln(v)/ln_gamma lands within 1 ulp
    # of an integer (verified flip-free on the test corpora)
    gamma = (1.0 + alpha) / (1.0 - alpha)
    ln_gamma = math.log(gamma)

    def _buckets(batch: pa.Table) -> pa.Table:
        df = batch.select([group_col, value_col]).to_pandas()
        v = df[value_col].to_numpy(dtype=np.float64)
        if (v < 0).any():
            raise ValueError("dd_quantiles requires non-negative values")
        bucket = np.full(len(v), _ZERO_BUCKET, dtype=np.int64)
        pos = v > 0
        bucket[pos] = np.ceil(np.log(v[pos]) / ln_gamma).astype(np.int64)
        out = (
            pd.DataFrame({group_col: df[group_col], "bucket": bucket})
            .groupby([group_col, "bucket"], sort=False)
            .size()
            .reset_index(name="n")
        )
        return pa.Table.from_pandas(out, preserve_index=False)

    counts = (
        ds.map_batches(_buckets, batch_format="pyarrow")
        .groupby([group_col, "bucket"])
        .sum("n")
    )

    qcols = [f"q_{str(q).replace('0.', '')}" for q in quantiles]

    def _finalize(df: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for g, sub in df.groupby(group_col, sort=False):
            sub = sub.sort_values("bucket")
            b = sub["bucket"].to_numpy()
            n = sub["sum(n)"].to_numpy(dtype=np.int64)
            cum = np.cumsum(n)
            total = int(cum[-1])
            vals = {}
            for q, col in zip(quantiles, qcols):
                rank = q * (total - 1)  # DDSketch rank definition
                # first bucket whose cumulative count exceeds the rank
                i = int(np.searchsorted(cum, rank, side="right"))
                i = min(i, len(b) - 1)
                vals[col] = (
                    0.0
                    if b[i] == _ZERO_BUCKET
                    else 2.0 * math.pow(gamma, float(b[i])) / (gamma + 1.0)
                )
            rows.append({group_col: g, **vals})
        return pd.DataFrame(rows, columns=[group_col, *qcols])

    return shuffle_by(counts, group_col, _finalize)


def heavy_hitters(
    docs: "ray.data.Dataset",
    threshold: int,
    k: int = 4096,
    text_col: str = "text",
    batch_size: int | None = None,
) -> "ray.data.Dataset":
    """→ (term, n_count): every term occurring ≥ ``threshold`` times,
    EXACTLY — the two-pass Misra-Gries heavy-hitters pattern (Misra &
    Gries 1982; the SpaceSaving/MG family). The point at 100 TB: the full
    vocabulary (trillions of distinct n-grams) is never shuffled.

    - Pass 1 (bounded candidates): each batch counts its own terms, then
      reduces to an MG(k) summary — subtract the (k+1)-th largest count
      from all counts and keep the positive remainder (the vectorized
      equivalence of k-counter Misra-Gries decrements). The driver merges
      ≤ k entries per batch and keeps terms whose merged lower bound plus
      the total undercount could reach ``threshold``. Guarantee: the
      summed decrements are ≤ N/(k+1) (N = total tokens, counted in the
      same pass), so for threshold > N/(k+1) the candidate set has NO
      false negatives. The op raises if the guarantee doesn't hold —
      raise ``k`` (driver memory stays ≤ k × n_batches entries).
    - Pass 2 (exact re-count): candidates broadcast via ``ray.put``;
      each batch counts ONLY candidate terms (map-side combiner), one
      tiny groupby sums, a row filter applies ``HAVING n >= threshold``.

    Tokenization matches ``ops.text.term_counts`` (lower + ``[a-z]+``),
    so the SQL oracle is UNNEST + GROUP BY + HAVING.
    """
    import ray
    from ray.data.aggregate import Sum

    from ontocast_ray.ops.text import _explode_words

    def mg_summary(batch: pa.Table) -> pa.Table:
        texts = batch[text_col].to_pandas().fillna("")
        words = texts.str.lower().str.findall(r"[a-z]+")
        _, vals = _explode_words(words)
        n_tok = len(vals)
        if n_tok == 0:
            return pa.table(
                {"term": pa.array([], type=pa.string()),
                 "n": pa.array([], type=pa.int64()),
                 "n_tokens": pa.array([], type=pa.int64())}
            )
        vc = pd.Series(vals).value_counts()
        cut = int(vc.iloc[k]) if len(vc) > k else 0
        keep = (vc - cut).iloc[: k]
        keep = keep[keep > 0]
        if keep.empty:
            # flat distribution: every term decremented to zero. The batch's
            # token total must still reach the merge (it feeds the N/(k+1)
            # undercount bound), so emit one sentinel row; term "" never
            # matches the [a-z]+ tokenizer so it can't collide or become a
            # candidate (n=0 < any threshold contribution).
            return pa.table(
                {"term": pa.array([""], type=pa.string()),
                 "n": pa.array([0], type=pa.int64()),
                 "n_tokens": pa.array([n_tok], type=pa.int64())}
            )
        return pa.table(
            {"term": pa.array(keep.index.to_numpy(), type=pa.string()),
             "n": pa.array(keep.to_numpy(), type=pa.int64()),
             # token total rides along so one pass yields both N and the MG
             # summary; first row of each summary carries the batch total
             "n_tokens": pa.array(
                 [n_tok] + [0] * (len(keep) - 1), type=pa.int64()
             )}
        )

    summaries = docs.map_batches(
        mg_summary, batch_format="pyarrow", batch_size=batch_size
    ).materialize()
    # driver state: ≤ k entries per batch (bounded by corpus/batch_size ×
    # k, tiny vs vocabulary) — one vectorized groupby-sum merge
    sdf = summaries.to_pandas()
    n_total = int(sdf["n_tokens"].sum())
    merged = sdf.groupby("term", sort=False)["n"].sum()
    max_undercount = n_total // (k + 1)
    if threshold <= max_undercount:
        raise ValueError(
            f"threshold {threshold} <= N/(k+1) = {max_undercount}: "
            "no-false-negative guarantee broken; raise k"
        )
    candidates = set(merged.index[merged + max_undercount >= threshold])
    cand_ref = ray.put(candidates)

    def exact_partial(batch: pa.Table) -> pa.Table:
        texts = batch[text_col].to_pandas().fillna("")
        words = texts.str.lower().str.findall(r"[a-z]+")
        _, vals = _explode_words(words)
        cand = ray.get(cand_ref)
        if len(vals) == 0 or not cand:
            return pa.table({"term": pa.array([], type=pa.string()),
                             "n": pa.array([], type=pa.int64())})
        s = pd.Series(vals)
        s = s[s.isin(cand)]
        vc = s.value_counts()
        return pa.table(
            {"term": pa.array(vc.index.to_numpy(), type=pa.string()),
             "n": pa.array(vc.to_numpy(), type=pa.int64())}
        )

    agg = (
        docs.map_batches(exact_partial, batch_format="pyarrow", batch_size=batch_size)
        .groupby("term")
        .aggregate(Sum("n", alias_name="n_count"))
    )
    def having(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return batch.filter(pc.greater_equal(batch["n_count"], threshold))

    return agg.map_batches(having, batch_format="pyarrow").sort(
        ["n_count", "term"], descending=[True, False]
    )


# odd 64-bit mixing multipliers, one per Count-Min depth row (golden-ratio
# family; any fixed odd constants work — they are part of the sketch spec
# and re-derived verbatim in the SQL oracle)
_CMS_MULS = (
    0x9E3779B97F4A7C15,
    0xBF58476D1CE4E5B9,
    0x94D049BB133111EB,
    0xD6E8FEB86659FD93,
)


def countmin_table(
    docs: "ray.data.Dataset",
    depth: int = 4,
    width: int = 1024,
    text_col: str = "text",
) -> "np.ndarray":
    """→ (depth, width) int64 Count-Min sketch of the corpus term
    frequencies (Cormode & Muthukrishnan 2005) — the point-frequency
    companion to HLL (distinct), DDSketch (quantiles) and Misra-Gries
    (heavy hitters): ``estimate(t) = min_j T[j, h_j(t)]`` is always ≥
    the true count, with overestimate ≤ 2N/width at probability
    1-2^-depth.

    Mergeable bounded state, the sketch contract: each batch bincounts
    its own tokens into a LOCAL (depth, width) table and emits it as
    sparse (row, bucket, count) triples; the driver accumulates
    depth×width int64 (32 KB at the defaults) regardless of corpus size.
    No shuffle, one pass, vocabulary never materializes anywhere. Row
    hashes are ``(fnv1a(word) · M_j mod 2^64) >> (64-log2 width)`` —
    top bits of an odd-multiplier mix, the SQL-re-derivable universal
    family (same HUGEINT wrapping-multiply idiom as splitmix).
    Tokenization is the term-counts rule (``[a-z]+`` on lowered text).
    """
    import pandas as pd

    from ontocast_ray.ops.text import _explode_words, fnv1a_words

    if width & (width - 1):
        raise ValueError("width must be a power of two")
    if depth > len(_CMS_MULS):
        raise ValueError(f"depth ≤ {len(_CMS_MULS)}")
    shift = np.uint64(64 - int(np.log2(width)))

    def partial(batch: pa.Table) -> pa.Table:
        texts = pd.Series(batch[text_col].to_pandas()).fillna("")
        words = texts.str.lower().str.findall(r"[a-z]+")
        _, vals = _explode_words(words)
        if len(vals) == 0:
            return pa.table({"row": pa.array([], type=pa.int64()),
                             "bucket": pa.array([], type=pa.int64()),
                             "c": pa.array([], type=pa.int64())})
        uw, counts = np.unique(vals.astype(object), return_counts=True)
        h = fnv1a_words(uw)
        rows_out, buckets_out, c_out = [], [], []
        with np.errstate(over="ignore"):
            for j in range(depth):
                b = ((h * np.uint64(_CMS_MULS[j])) >> shift).astype(np.int64)
                t = np.zeros(width, dtype=np.int64)
                np.add.at(t, b, counts.astype(np.int64))
                nz = np.nonzero(t)[0]
                rows_out.append(np.full(len(nz), j, dtype=np.int64))
                buckets_out.append(nz.astype(np.int64))
                c_out.append(t[nz])
        return pa.table({"row": pa.array(np.concatenate(rows_out)),
                         "bucket": pa.array(np.concatenate(buckets_out)),
                         "c": pa.array(np.concatenate(c_out))})

    table = np.zeros((depth, width), dtype=np.int64)
    for part in docs.map_batches(
        partial, batch_format="pyarrow"
    ).iter_batches(batch_format="pandas", batch_size=None):
        np.add.at(
            table,
            (part["row"].to_numpy(), part["bucket"].to_numpy()),
            part["c"].to_numpy(),
        )
    return table


def countmin_estimate(table: "np.ndarray", terms) -> "np.ndarray":
    """Point-frequency estimates for ``terms`` from a `countmin_table`
    sketch: vectorized min over the depth rows."""
    from ontocast_ray.ops.text import fnv1a_words

    depth, width = table.shape
    shift = np.uint64(64 - int(np.log2(width)))
    h = fnv1a_words(np.asarray(list(terms), dtype=object))
    est = np.full(len(h), np.iinfo(np.int64).max, dtype=np.int64)
    with np.errstate(over="ignore"):
        for j in range(depth):
            b = ((h * np.uint64(_CMS_MULS[j])) >> shift).astype(np.int64)
            est = np.minimum(est, table[j, b])
    return est


def sliding_hll_distinct(
    events: "ray.data.Dataset",
    window_hours: int = 3,
    key_col: str = "user_id",
    ts_col: str = "ts",
    p: int = 12,
) -> "ray.data.Dataset":
    """→ (window_end, approx_distinct): distinct keys over every sliding
    ``window_hours``-hour range, computed by MERGING per-hour HLL
    sketches — the mergeability property that makes sketches the scale
    answer: the multi-hour estimate comes from 2^p-byte register blobs,
    never a rescan of the events, and equals the HLL of the union
    exactly (register max is associative/commutative/idempotent).

    Three stages, all blob-sized after stage 1: per-(block, hour)
    partial registers; one coarse hour-hash merge to a single blob per
    hour; a ``window_hours``-way fan-out of each hour blob to the
    windows it serves, merged per window. Deterministic (FNV key hash,
    no RNG) → golden-pinned.
    """
    m = 1 << p
    hour = pd.Timedelta(hours=1)

    def _partial(batch: pa.Table) -> pa.Table:
        df = batch.select([key_col, ts_col]).to_pandas()
        df["hour"] = df[ts_col].dt.floor("h")
        hours, blobs = [], []
        for h, sub in df.groupby("hour", sort=False):
            idx, rho = _hll_registers(sub[key_col], p)
            reg = np.zeros(m, dtype=np.uint8)
            np.maximum.at(reg, idx, rho.astype(np.uint8))
            hours.append(h)
            blobs.append(reg.tobytes())
        out = pd.DataFrame({"hour": hours, "registers": blobs})
        return pa.Table.from_pandas(out, preserve_index=False)

    def _merge_hour(df: pd.DataFrame) -> pd.DataFrame:
        out_h, out_b = [], []
        for h, sub in df.groupby("hour", sort=False):
            stack = np.stack(
                [np.frombuffer(b, dtype=np.uint8)
                 for b in sub["registers"]]
            )
            out_h.append(h)
            out_b.append(stack.max(axis=0).tobytes())
        return pd.DataFrame({"hour": out_h, "registers": out_b})

    def _fanout(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        rows = []
        for _, r in df.iterrows():  # ≤ one row per hour — calendar-small
            for k in range(window_hours):
                rows.append(
                    {"window_end": r["hour"] + k * hour,
                     "registers": r["registers"]}
                )
        return pa.Table.from_pandas(pd.DataFrame(rows), preserve_index=False)

    def _merge_window(df: pd.DataFrame) -> pd.DataFrame:
        out_w, out_n = [], []
        for w, sub in df.groupby("window_end", sort=False):
            stack = np.stack(
                [np.frombuffer(b, dtype=np.uint8)
                 for b in sub["registers"]]
            )
            out_w.append(w)
            out_n.append(_hll_estimate(stack.max(axis=0)))
        return pd.DataFrame({
            "window_end": out_w,
            "approx_distinct": pd.array(out_n, dtype="int64"),
        })

    hours = shuffle_by(
        events.map_batches(_partial, batch_format="pyarrow"), "hour", _merge_hour
    )
    return shuffle_by(
        hours.map_batches(_fanout, batch_format="pyarrow"),
        "window_end",
        _merge_window,
    )
