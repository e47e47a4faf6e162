"""Deterministic corpus shuffling and weighted source interleaving — the
training-data-export end of the engine.

A training run wants (a) a reproducible global shuffle of the corpus and
(b) sources mixed by sampling weight (2 parts web : 1 part code : ...),
without any stateful sampler that would break resume. Both reduce to a
PURE FUNCTION of the row: a 64-bit mix of (seed, doc_id) gives every row
a deterministic pseudo-random position; dividing each source's unit
interval by its weight makes heavier sources appear proportionally more
often in any prefix of the position order. The only distributed work is
one ``sort`` by that position — Ray Data's range-partitioned sort, the
same all-to-all any shuffle pays — and re-running with the same seed
reproduces the identical order on any cluster size.

The mix is splitmix64 (public-domain PRNG finalizer) — chosen over the
engine's siphash helper because it is exactly reproducible in ANSI SQL
(multiplication and xor-shift on UBIGINT), so the driver's DuckDB oracle
re-derives positions independently.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray.data

from ontocast_ray.ops.shuffle import shuffle_by

_SM_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_SM_M1 = np.uint64(0xBF58476D1CE4E5B9)
_SM_M2 = np.uint64(0x94D049BB133111EB)


def splitmix64(values: np.ndarray, seed: int = 0) -> np.ndarray:
    """Vectorized splitmix64 finalizer of (value + seed·γ) — uint64 in, out."""
    with np.errstate(over="ignore"):
        z = values.astype(np.uint64) + np.uint64(seed) * _SM_GAMMA + _SM_GAMMA
        z = (z ^ (z >> np.uint64(30))) * _SM_M1
        z = (z ^ (z >> np.uint64(27))) * _SM_M2
        return z ^ (z >> np.uint64(31))


def deterministic_shuffle(
    ds: "ray.data.Dataset", seed: int = 0, id_col: str = "doc_id"
) -> "ray.data.Dataset":
    """Reproducible global shuffle: position = splitmix64(seed, id), one
    range-partitioned sort. Unlike ``random_shuffle`` the order is a pure
    function of (seed, ids) — identical across runs and cluster sizes, so
    a resumed training job sees the same sample order."""

    def add_pos(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.uint64)
        return batch.append_column(
            "_shuffle_pos", pa.array(splitmix64(ids, seed).astype(np.int64))
        )

    return ds.map_batches(add_pos, batch_format="pyarrow").sort("_shuffle_pos")


def weighted_interleave(
    sources: "dict[str, ray.data.Dataset]",
    weights: dict[str, float],
    seed: int = 0,
    id_col: str = "doc_id",
) -> "ray.data.Dataset":
    """Mix sources by sampling weight into one deterministic stream.

    Each row's position is ``u / weight`` where u = splitmix64(seed, id)
    scaled to [0, 1): in any prefix of the position order, a source with
    twice the weight contributes ~twice the rows (inverse-CDF of an
    exponential race, the standard weighted-interleave trick). Output
    carries (source, position) so consumers ``sort(position)`` — or read
    the already-sorted stream — and resume is a position-range predicate.
    """
    if set(sources) != set(weights):
        raise ValueError("sources and weights must have the same keys")
    total = float(sum(weights.values()))
    if total <= 0:
        raise ValueError("weights must sum to a positive value")

    tagged = []
    for name, ds in sources.items():
        w = float(weights[name]) / total

        def add(batch: pa.Table, name=name, w=w) -> pa.Table:
            ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.uint64)
            u = splitmix64(ids, seed).astype(np.float64) / float(2**64)
            pos = u / w if w > 0 else np.full(len(batch), np.inf)
            out = batch.append_column(
                "source_name", pa.array([name] * len(batch), type=pa.string())
            )
            return out.append_column("position", pa.array(pos, type=pa.float64()))

        tagged.append(ds.map_batches(add, batch_format="pyarrow"))
    merged = tagged[0].union(*tagged[1:]) if len(tagged) > 1 else tagged[0]
    return merged.sort("position")


def negative_samples(
    docs: "ray.data.Dataset",
    k: int = 3,
    seed: int = 100,
    id_col: str = "doc_id",
    n_docs: int | None = None,
) -> "ray.data.Dataset":
    """→ (doc_id, neg_idx, neg_id): ``k`` deterministic contrastive
    negatives per document over a DENSE 0..N-1 id space — the negative-pair
    generator for contrastive/embedding training. Draw j is
    ``floor(splitmix64(seed + j, id) / 2⁶⁴ · N)``, with self-hits moved to
    ``(neg + 1) % N``. Pure map, zero shuffle, no RNG state — identical at
    any cluster size, resumable, and SQL-mirrorable (same IEEE double
    multiply + floor on both engines). Requires dense ids (use
    global_row_number first on sparse corpora).
    """
    import pyarrow as pa

    if n_docs is None:
        # parquet-backed inputs answer this from file metadata
        n_docs = docs.count()
    n = np.int64(n_docs)

    def expand(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        out_id, out_j, out_neg = [], [], []
        for j in range(k):
            u = splitmix64(ids.astype(np.uint64), seed=seed + j).astype(
                np.float64
            ) / float(2**64)
            neg = np.floor(u * float(n)).astype(np.int64)
            # draws within ~2^11 of 2^64 round to u=1.0 in float64 and
            # would yield neg == N (out of the dense 0..N-1 range); the
            # unconditional % n keeps both the range contract and the SQL
            # mirror (which applies the same mod) aligned
            neg = neg % n
            neg = np.where(neg == ids, (neg + 1) % n, neg)
            out_id.append(ids)
            out_j.append(np.full(len(ids), j, dtype=np.int64))
            out_neg.append(neg)
        return pa.table(
            {
                id_col: pa.array(np.concatenate(out_id)),
                "neg_idx": pa.array(np.concatenate(out_j)),
                "neg_id": pa.array(np.concatenate(out_neg)),
            }
        )

    return docs.map_batches(expand, batch_format="pyarrow")


def rebalance_sample(
    docs: "ray.data.Dataset",
    rate_col: str,
    rates: dict[str, float],
    default_rate: float = 1.0,
    seed: int = 21,
    id_col: str = "doc_id",
) -> "ray.data.Dataset":
    """Per-group Bernoulli downsampling at group-specific rates — the
    language/source REBALANCING step of multilingual corpus prep (e.g.
    keep 10 % of English, all of the tail languages). A row survives iff
    ``splitmix64(seed, id)/2⁶⁴ < rates[group]`` — pure map, zero shuffle,
    no RNG state: identical at any cluster size, resumable, and the
    SQL mirror is one CASE expression over the same draws.
    """
    import pandas as pd
    import pyarrow as pa

    def keep(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.uint64)
        u = splitmix64(ids, seed=seed).astype(np.float64) / float(2**64)
        r = (
            pd.Series(batch[rate_col].to_pandas())
            .map(rates)
            .fillna(default_rate)
            .to_numpy(np.float64)
        )
        return batch.filter(pa.array(u < r))

    return docs.map_batches(keep, batch_format="pyarrow")


def temperature_mix(
    docs: "ray.data.Dataset",
    group_col: str,
    k_scale: float,
    temperature: float = 0.5,
    seed: int = 33,
    id_col: str = "doc_id",
) -> "ray.data.Dataset":
    """Temperature-scaled source mixing (the XLM-R / multilingual-LLM
    rule: sampling mass ∝ count^T, so big sources are damped and tail
    sources up-weighted): each group keeps rows at rate
    ``min(1, k_scale · c^(T-1))`` — expected survivors k_scale·c^T.
    ``k_scale`` is the user's volume knob (rate hits 1.0 for groups with
    c ≤ k_scale^(1/(1-T)) — the tail is never upsampled, matching
    Bernoulli thinning semantics).

    Two passes: a map-combined count pass streams ≤ |groups| rows per
    block to the driver (groups are languages/sources — broadcast-small
    by definition), then `rebalance_sample`'s pure-map splitmix draw.
    Zero shuffles, parallelism-invariant. At T=0.5 the rate is
    ``k/sqrt(c)`` — sqrt and divide are IEEE-correctly-rounded in both
    numpy and DuckDB, so the SQL mirror is BIT-exact; other temperatures
    go through ``pow`` (same libm here, but not a rounding guarantee).
    """
    import math

    import pandas as pd
    import pyarrow as pa

    def partial_counts(batch: pa.Table) -> pa.Table:
        vc = (
            pd.Series(batch[group_col].to_pandas())
            .value_counts()
        )
        return pa.table(
            {
                group_col: pa.array(vc.index.to_numpy().astype(object)),
                "c": pa.array(vc.to_numpy().astype(np.int64)),
            }
        )

    acc: dict[str, int] = {}
    for part in docs.map_batches(
        partial_counts, batch_format="pyarrow"
    ).iter_batches(batch_format="pandas", batch_size=None):
        for g, c in zip(part[group_col], part["c"]):
            acc[g] = acc.get(g, 0) + int(c)

    rates = {}
    for g, c in acc.items():
        if temperature == 0.5:
            r = k_scale / math.sqrt(float(c))
        else:
            r = k_scale * float(c) ** (temperature - 1.0)
        rates[g] = min(1.0, r)

    return rebalance_sample(
        docs, rate_col=group_col, rates=rates, default_rate=1.0,
        seed=seed, id_col=id_col,
    )


def stratified_split(
    docs: "ray.data.Dataset",
    group_col: str,
    fracs: tuple[float, ...] = (0.8, 0.1, 0.1),
    names: tuple[str, ...] = ("train", "val", "test"),
    seed: int = 41,
    id_col: str = "doc_id",
) -> "ray.data.Dataset":
    """→ (id_col, group_col, split): EXACT per-group train/val/test
    assignment — every group contributes ⌈f·n⌉-floored cumulative
    proportions exactly (vs `split_assign`'s Bernoulli draws, whose
    per-group counts fluctuate ±√n; small groups need the exact rule or
    a 5-doc language can land entirely in test).

    Members are ranked inside their group by ``splitmix64(seed, id)``
    (ties → id), then split at cumulative boundaries
    ``floor(cum_frac·n)`` — fully deterministic, parallelism-invariant,
    and SQL-replayable (ROW_NUMBER over the same mix). ONE coarse
    ``hash(group) % P`` shuffle of (group, id, u) rows colocates each
    group; the kernel ranks all groups of the partition in one
    vectorized groupby.cumcount.
    """
    import pandas as pd

    cum = np.cumsum(np.asarray(fracs, dtype=np.float64))
    if not np.isclose(cum[-1], 1.0):
        raise ValueError("fracs must sum to 1")

    def prep(df: "pd.DataFrame") -> "pd.DataFrame":
        ids = df[id_col].to_numpy().astype(np.uint64)
        return pd.DataFrame({
            id_col: df[id_col].to_numpy(),
            group_col: df[group_col].to_numpy(),
            "_u": splitmix64(ids, seed),
        })

    def assign(group: "pd.DataFrame") -> "pd.DataFrame":
        g = group.sort_values([group_col, "_u", id_col], kind="mergesort")
        rank = g.groupby(group_col, sort=False).cumcount().to_numpy()
        n = g.groupby(group_col, sort=False)[id_col].transform(
            "size"
        ).to_numpy().astype(np.float64)
        split = np.full(len(g), names[-1], dtype=object)
        # walk boundaries high→low so earlier splits overwrite later ones
        for b, name in zip(cum[-2::-1], names[-2::-1]):
            split[rank < np.floor(b * n)] = name
        return pd.DataFrame({
            id_col: g[id_col].to_numpy(),
            group_col: g[group_col].to_numpy(),
            "split": split,
        })

    return shuffle_by(
        docs.map_batches(prep, batch_format="pandas"), group_col, assign
    )


def epoch_shuffle(
    ds: "ray.data.Dataset",
    id_col: str = "doc_id",
    seed: int = 0,
    epoch: int = 0,
    shard_size: int = 256,
) -> "ray.data.Dataset":
    """Deterministic EPOCH shuffle for training-data loading: every row's
    global sample position = exact rank of ``splitmix64(seed+epoch, id)``
    (ties broken by id) — a fresh, reproducible permutation per epoch with
    zero RNG state, identical across runs and cluster sizes. → (id_col,
    pos, train_shard = pos // shard_size, pos_in_shard).

    This replaces ``random_shuffle`` (non-reproducible, full data
    movement) for epoch resharding: only (id, mix) pairs move, bodies can
    be joined/packed afterwards by train_shard.

    Scale shape — exact global ranks WITHOUT a global sort: bucket = top
    16 bits of the mix (uniform by construction); per-block bucket
    histograms stream to the driver which keeps ≤65,536 ints and computes
    exclusive base offsets (never row-sized data); one coarse
    ``hash(bucket) % P`` shuffle colocates buckets; each kernel sorts its
    buckets locally and adds base + cumcount. One shuffle total, driver
    memory O(2^16).
    """
    import pandas as pd
    import ray

    eff = seed + epoch

    def _mix(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.uint64)
        m = splitmix64(ids, seed=eff)
        return pa.table({
            id_col: batch[id_col],
            "mix": pa.array(m),
            "bucket": pa.array((m >> np.uint64(48)).astype(np.int64)),
        })

    mixed = ds.map_batches(_mix, batch_format="pyarrow").materialize()

    def _hist(batch: pa.Table) -> pa.Table:
        b = batch["bucket"].to_numpy(zero_copy_only=False)
        uniq, cnt = np.unique(b, return_counts=True)
        return pa.table({
            "bucket": pa.array(uniq.astype(np.int64)),
            "n": pa.array(cnt.astype(np.int64)),
        })

    def _hist_sum(df: "pd.DataFrame") -> "pd.DataFrame":
        return df.groupby("bucket", as_index=False)["n"].sum()

    # combiner shuffle BEFORE the driver collection: per-block partials
    # are up to 65,536 rows EACH (blocks × 2^16 rows would reach the
    # driver at scale); after the coarse sum at most 2^16 rows total do.
    # Below the limit the partials are driver-safe as-is — fold them
    # directly and skip that whole AllToAll (one of the two shuffles).
    hist = np.zeros(1 << 16, dtype=np.int64)
    if mixed.count() <= 4_000_000:
        for b in mixed.map_batches(
            _hist, batch_format="pyarrow"
        ).iter_batches(batch_size=None, batch_format="pyarrow"):
            np.add.at(
                hist,
                b["bucket"].to_numpy(zero_copy_only=False),
                b["n"].to_numpy(zero_copy_only=False),
            )
    else:
        summed = shuffle_by(
            mixed.map_batches(_hist, batch_format="pyarrow"), "bucket", _hist_sum
        )
        for row in summed.take_all():
            hist[row["bucket"]] += row["n"]
    base = np.concatenate(([0], np.cumsum(hist)[:-1]))
    base_ref = ray.put(base)

    span = np.int64(shard_size)

    def _rank(df: pd.DataFrame) -> pa.Table:
        bases = ray.get(base_ref)
        df = df.sort_values(["mix", id_col], kind="mergesort")
        intra = df.groupby("bucket", sort=False).cumcount().to_numpy(np.int64)
        pos = bases[df["bucket"].to_numpy(np.int64)] + intra
        return pa.table({
            id_col: pa.array(df[id_col].to_numpy(np.int64)),
            "pos": pa.array(pos),
            "train_shard": pa.array(pos // span),
            "pos_in_shard": pa.array(pos % span),
        })

    return shuffle_by(mixed, "bucket", _rank)


def sample_exact_k(
    ds: "ray.data.Dataset",
    k: int,
    seed: int = 0,
    id_col: str = "doc_id",
) -> "ray.data.Dataset":
    """Exactly-k uniform sample without replacement (eval-set carving,
    debugging subsets): the k rows with the smallest ``splitmix64(seed,
    id)`` draw (ties by id) — a pure function of (seed, ids), identical
    across runs/cluster sizes, and the EXACT-size companion to the
    Bernoulli ``deterministic_sample`` (whose output size is only
    binomially близко to k·n/100). → (id_col, draw).

    Scale shape: per-block partial top-k (argpartition, no sort of the
    block) bounds the wire to k rows per block; one single-partition merge
    holds ≤ k·blocks rows — bounded and tiny for sample-sized k (the
    documented contract; for k approaching corpus size use split_assign
    instead).
    """
    import pandas as pd

    def partial(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        m = splitmix64(ids.astype(np.uint64), seed)
        if len(ids) > k:
            # k smallest by (draw, id): lexicographic argpartition via
            # stable argsort on the compound is overkill — partition on
            # draw then refine exact ties in the final merge
            sel = np.argpartition(m, k - 1)[:k]
            ids, m = ids[sel], m[sel]
        return pa.table({
            id_col: pa.array(ids),
            "draw": pa.array(m),
        })

    def merge(df: "pd.DataFrame") -> "pd.DataFrame":
        df = df.sort_values(["draw", id_col], kind="mergesort").head(k)
        return pd.DataFrame({
            id_col: df[id_col].to_numpy(),
            "draw": df["draw"].to_numpy(dtype=np.uint64),
        })

    # one partition: the merge sees every block's candidates
    return shuffle_by(
        ds.map_batches(partial, batch_format="pyarrow"), id_col, merge, n_parts=1
    )


def mixing_weights(
    docs: "ray.data.Dataset",
    token_budget_per_source: int,
    source_col: str = "source",
    text_col: str = "text",
) -> "ray.data.Dataset":
    """The data-mixture planning table every multi-source training run
    starts from (the Pile/Dolma 'epochs per source' sheet): per source,
    document and whitespace-token totals, the number of epochs needed to
    fill ``token_budget_per_source`` (ceil, integer arithmetic — never
    float), and the source's share of the corpus as a raw int/int IEEE
    division. → (source, n_docs, n_tokens, epochs, token_share).

    Map-side combiner (one row per source per block) → one tiny groupby;
    the corpus-total for the share is a second source-count-sized pass,
    both shuffles carry O(sources) rows.
    """
    import pandas as pd

    def partial(df: "pd.DataFrame") -> "pd.DataFrame":
        t = df[text_col].astype("string").fillna("")
        stripped = t.str.strip()
        n_tok = stripped.str.split(r"\s+", regex=True).str.len()
        n_tok = n_tok.where(stripped != "", 0).astype(np.int64)
        g = pd.DataFrame({
            source_col: df[source_col].to_numpy(),
            "n_docs": np.ones(len(df), dtype=np.int64),
            "n_tokens": n_tok.to_numpy(),
        }).groupby(source_col, as_index=False).sum()
        return g

    def combine(df: "pd.DataFrame") -> "pd.DataFrame":
        g = df.groupby(source_col, as_index=False).sum()
        total = np.int64(g["n_tokens"].sum())
        b = np.int64(token_budget_per_source)
        nt = g["n_tokens"].to_numpy(dtype=np.int64)
        g["epochs"] = np.where(nt > 0, (b + nt - 1) // np.maximum(nt, 1), 0)
        g["token_share"] = nt / total if total else np.zeros(len(g))
        return g[[source_col, "n_docs", "n_tokens", "epochs", "token_share"]]

    # sources are a handful — the final combine is a single tiny group
    return shuffle_by(
        docs.map_batches(partial, batch_format="pandas"), source_col, combine, n_parts=1
    )
