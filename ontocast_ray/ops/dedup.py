"""Deduplication ops: exact, MinHash+LSH, SimHash, n-gram Jaccard, embedding-cosine.

Scale shapes (the part that must survive 100 TB):

- **exact**: hash inside ``map_batches`` (never shuffle raw text), combine
  (min doc_id, count) per sha within each batch, then ONE
  ``shuffle_by(text_sha)`` that folds the partials — the classic
  hash-partition + per-group-first.
- **minhash-lsh**: signatures are numpy-vectorized per batch in a plain task
  map (the kernel's state is two num_perm-entry arrays, so no actor pool);
  each doc emits ``bands`` tiny (band_key, doc_id) rows; two ``shuffle_by``
  calls: band_key (candidate pairs per bucket), then (doc_id_a, doc_id_b)
  (distinct pairs with their band count). Bucket rows are ~16 bytes — the
  shuffle moves signatures, not documents.
- **simhash**: 64-bit signature per doc (task map), banded into 4×16-bit
  keys, same two-``shuffle_by`` shape; Hamming check per bucket.
- **ngram-jaccard**: exact verifier used inside buckets (never all-pairs).
- **embedding-cosine**: random-hyperplane LSH buckets → within-bucket matmul.

All ops return duplicate PAIRS (doc_id_a < doc_id_b) or keep-lists, both as
Datasets; keep-list = groupby-connected-components-free "first id wins within
bucket", which matches the oracle semantics used in tests.
"""

from __future__ import annotations

import hashlib
import re

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from ontocast_ray.ops.shuffle import from_blocks, map_blocks, materialized, shuffle_by
from ontocast_ray.util import to_arrow_type, vectors_2d

_WS = re.compile(r"\s+")


# ---------------------------------------------------------------------------
# exact dedup


def _sha_batch(batch: pa.Table) -> pa.Table:
    # 128-bit prefix: a 64-bit key has a real birthday-collision count at
    # 10^12 docs (~1e24/2^65); 128 bits keeps it negligible at any scale
    texts = batch["text"].to_pylist()
    hashes = [hashlib.sha256((t or "").encode()).hexdigest()[:32] for t in texts]
    return pa.table(
        {
            "doc_id": batch["doc_id"],
            "text_sha": pa.array(hashes, type=pa.string()),
        }
    )


def _sha_partial(batch: pa.Table) -> pa.Table:
    """Map-side combiner: one (text_sha, doc_id_min, n) row per distinct
    sha of the batch — the shuffle carries these, never the text."""
    g = _sha_batch(batch).group_by("text_sha").aggregate(
        [("doc_id", "min"), ("doc_id", "count", pc.CountOptions(mode="all"))]
    )
    return pa.table({"text_sha": g["text_sha"], "doc_id_min": g["doc_id_min"],
                     "n": g["doc_id_count"]})


def _sha_firsts(docs: "ray.data.Dataset", count_col: str) -> "ray.data.Dataset":
    """→ (text_sha, doc_id, count_col): per distinct text the min doc_id and
    the copy count (int64) — per-batch combiner, then ONE coarse
    ``shuffle_by(text_sha)`` whose kernel takes the min of the batch mins
    and the sum of the batch counts."""

    def final(t: pa.Table) -> pa.Table:
        g = t.group_by("text_sha").aggregate([("doc_id_min", "min"), ("n", "sum")])
        return pa.table({"text_sha": g["text_sha"], "doc_id": g["doc_id_min_min"],
                         count_col: g["n_sum"]})

    partials = docs.map_batches(_sha_partial, batch_format="pyarrow")
    return shuffle_by(partials, "text_sha", final, batch_format="pyarrow")


def exact_dedup(docs: "ray.data.Dataset") -> "ray.data.Dataset":
    """→ (doc_id, n_copies): one row per distinct text, keeping min doc_id."""
    firsts = _sha_firsts(docs, "n_copies")
    return firsts.select_columns(["doc_id", "n_copies"])


def incremental_dedup(
    new_docs: "ray.data.Dataset",
    index_docs: "ray.data.Dataset",
) -> "ray.data.Dataset":
    """→ (doc_id, n_new_copies): exact dedup of a NEW batch against an
    EXISTING corpus — the daily-crawl production shape (dedupe today's
    crawl within itself, then drop anything already indexed).

    Scale shape: sha-128 computed inside map_batches on BOTH sides (text
    never shuffles), within-new dedup is the `exact_dedup` combiner +
    shuffle, and the index side ships one 32-char sha per doc into a
    partitioned `hash_join(how="anti")` — which map-side-dedups right keys
    per batch, so neither corpus is ever broadcast or materialized. Only
    the within-new firsts (one ~50-byte row per distinct new text) are
    materialized: `hash_join` probes their schema, which on a lazy input
    would run the shuffle twice. Re-running with the same index is
    idempotent (survivors are disjoint from it).
    """
    from ontocast_ray.ops.joins import hash_join

    firsts = _sha_firsts(new_docs, "n_new_copies").materialize()
    idx_sha = index_docs.map_batches(
        _sha_batch, batch_format="pyarrow"
    ).select_columns(["text_sha"])
    out = hash_join(
        firsts,
        idx_sha,
        left_on="text_sha",
        right_on="text_sha",
        left_cols=["doc_id", "n_new_copies"],
        right_cols=[],
        how="anti",
    )
    return out.select_columns(["doc_id", "n_new_copies"])


# ---------------------------------------------------------------------------
# shingles + minhash


_FNV_OFFSET0 = np.uint64(14695981039346656037)
_FNV_PRIME0 = np.uint64(1099511628211)


def _fold_kgrams(word_hashes: np.ndarray, k: int) -> np.ndarray:
    """FNV-fold k consecutive word hashes → unique shingle hashes, vectorized.

    No shingle STRINGS are ever built: k sliding slices of the word-hash
    vector are folded with k vectorized ops — the classic rolling-k-gram
    trick that turns per-shingle string join + hash into pure numpy.
    """
    n_words = len(word_hashes)
    with np.errstate(over="ignore"):
        if n_words < k:  # one shingle covering all words (old behavior)
            h = _FNV_OFFSET0
            for j in range(n_words):
                h = (h ^ word_hashes[j]) * _FNV_PRIME0
            return np.array([h], dtype=np.uint64)
        n = n_words - k + 1
        h = np.full(n, _FNV_OFFSET0, dtype=np.uint64)
        for j in range(k):
            h = (h ^ word_hashes[j:j + n]) * _FNV_PRIME0
    return np.unique(h)


def _word_hashes_batch(texts: list[str]) -> tuple[np.ndarray, list[tuple[int, int]], np.ndarray]:
    """All words of a batch hashed in ONE pd.util.hash_array call.

    → (flat word-hash vector, per-doc (start, stop) ranges, empty-doc mask).
    """
    all_words: list[str] = []
    ranges = []
    empty = np.zeros(len(texts), dtype=bool)
    for i, t in enumerate(texts):
        words = _WS.split((t or "").strip().lower())
        if not words or words == [""]:
            empty[i] = True
            ranges.append((len(all_words), len(all_words)))
            continue
        start = len(all_words)
        all_words.extend(words)
        ranges.append((start, len(all_words)))
    if all_words:
        hashes = pd.util.hash_array(np.asarray(all_words, dtype=object), categorize=False)
    else:
        hashes = np.zeros(0, dtype=np.uint64)
    return hashes, ranges, empty


def _shingle_hashes(text: str, k: int = 5) -> np.ndarray:
    """Unique word-k-shingle hashes of one text (empty text → [0] sentinel).

    Single-doc view of the batch kernel — MinHash signatures and the exact
    Jaccard verifier share these exact values.
    """
    hashes, ranges, empty = _word_hashes_batch([text])
    if empty[0]:
        return np.zeros(1, dtype=np.uint64)
    s, e = ranges[0]
    return _fold_kgrams(hashes[s:e], k)


class MinHasher:
    """num_perm multiply-xor minhash; coefficient table built once per instance.

    Map with an INSTANCE, as a task: ``map_batches(MinHasher(...))``, which
    Ray fuses with the map after it, or called inside the ``map_blocks``
    function of ``minhash_lsh_candidates``; the two num_perm-entry arrays
    ship with the task, so an actor pool would only add its spawn cost.

    Batched: all documents' shingles concatenate into one (num_perm, N)
    hash matrix per column-chunk, per-doc minima via ``np.minimum.reduceat``
    — no per-document Python beyond the word split.
    """

    # bound the (num_perm, chunk) temporary: 64 perms × 64k shingles × 8 B ≈ 32 MB
    CHUNK_SHINGLES = 65_536

    def __init__(self, num_perm: int = 64, seed: int = 7, shingle_k: int = 5):
        rng = np.random.RandomState(seed)
        self.a = (
            rng.randint(1, (1 << 61) - 1, size=num_perm).astype(np.uint64)
            | np.uint64(1)  # odd multipliers for the multiply-xor family
        )
        self.b = rng.randint(0, (1 << 61) - 1, size=num_perm).astype(np.uint64)
        self.num_perm = num_perm
        self.shingle_k = shingle_k

    def signature(self, shingles: np.ndarray) -> np.ndarray:
        """(num_perm,) signature of one shingle set (multiply-xor, no modulo)."""
        with np.errstate(over="ignore"):
            vals = (self.a[:, None] * shingles[None, :]) ^ self.b[:, None]
        return vals.min(axis=1)

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = batch["text"].to_pylist()
        n_docs = len(texts)
        word_hashes, ranges, empty = _word_hashes_batch(texts)
        doc_shingles = []
        for i, (s, e) in enumerate(ranges):
            doc_shingles.append(
                np.zeros(1, dtype=np.uint64) if empty[i]
                else _fold_kgrams(word_hashes[s:e], self.shingle_k)
            )
        sigs = np.empty((n_docs, self.num_perm), dtype=np.uint64)
        start = 0
        while start < n_docs:
            stop = start
            total = 0
            while stop < n_docs and (total == 0 or total + len(doc_shingles[stop]) <= self.CHUNK_SHINGLES):
                total += len(doc_shingles[stop])
                stop += 1
            flat = np.concatenate(doc_shingles[start:stop])
            offsets = np.cumsum([0] + [len(d) for d in doc_shingles[start:stop]])[:-1]
            with np.errstate(over="ignore"):
                vals = (self.a[:, None] * flat[None, :]) ^ self.b[:, None]
            sigs[start:stop] = np.minimum.reduceat(vals, offsets, axis=1).T
            start = stop
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "minhash": pa.array(
                    sigs.view(np.int64).tolist(), type=pa.list_(pa.int64())
                ),
            }
        )


_FNV_OFFSET = _FNV_OFFSET0  # single source for the FNV pair (see above)
_FNV_PRIME = _FNV_PRIME0
_GOLDEN64 = np.uint64(0x9E3779B97F4A7C15)


def _band_rows(batch: pa.Table, bands: int) -> pa.Table:
    """(doc, band) → 64-bit band key, fully vectorized.

    The signature column is flattened zero-copy to an (n_docs, num_perm)
    matrix; band keys are an FNV-1a fold over each band's chunk with the
    band index mixed in (equal chunks in the same band → equal key; a
    64-bit key keeps cross-band collisions negligible at 10^12 docs,
    where 32-bit keys collide pervasively and poison LSH buckets).
    """
    n = len(batch)
    if n == 0:
        return pa.table(
            {"band_key": pa.array([], type=pa.int64()),
             "doc_id": pa.array([], type=batch["doc_id"].type)}
        )
    col = batch["minhash"].combine_chunks()
    flat = col.flatten().to_numpy(zero_copy_only=False).view(np.uint64)
    num_perm = len(flat) // n
    rpb = num_perm // bands
    chunks = flat.reshape(n, num_perm)[:, : bands * rpb].reshape(n, bands, rpb)
    with np.errstate(over="ignore"):
        h = np.full((n, bands), _FNV_OFFSET, dtype=np.uint64)
        for r in range(rpb):  # rpb is small (num_perm/bands); rows are vectorized
            h = (h ^ chunks[:, :, r]) * _FNV_PRIME
        h = (h ^ (np.arange(bands, dtype=np.uint64)[None, :] + _GOLDEN64)) * _FNV_PRIME
    keys = h.reshape(-1)
    idx = np.repeat(np.arange(n, dtype=np.int64), bands)
    return pa.table(
        {
            "band_key": pa.array(keys.view(np.int64)),
            "doc_id": batch["doc_id"].take(pa.array(idx)),
        }
    )


def _bucket_all_pairs_partition(
    group: pd.DataFrame, max_bucket: int = 256
) -> pd.DataFrame:
    """ALL within-bucket pairs (i < j), for evidence/audit outputs where
    the pair LIST itself is the product — the star form below collapses
    transitive pairs (fine for components, wrong for per-doc partner
    counts). One vectorized self-merge per partition; buckets truncated
    to ``max_bucket`` members (smallest ids) bound the quadratic blowup —
    the documented LSH hot-bucket degradation. A pair shared by several
    buckets is emitted once per bucket, as in the star form, so the pair
    count downstream is its band count."""
    df = group.drop_duplicates(["band_key", "doc_id"]).sort_values(
        ["band_key", "doc_id"], kind="stable"
    )
    df = df.groupby("band_key", sort=False).head(max_bucket)
    m = df.merge(df, on="band_key", suffixes=("_a", "_b"))
    m = m[m["doc_id_a"] < m["doc_id_b"]]
    return m[["doc_id_a", "doc_id_b"]]


def _bucket_pairs_partition(group: pd.DataFrame) -> pd.DataFrame:
    """All LSH buckets of one coarse partition in a single VECTORIZED pass:
    candidate star pairs (min-id representative → member) fall out of one
    sort + drop_duplicates + groupby().transform('first') — no per-bucket
    Python loop, and the shuffle key stays the coarse hash(band_key) % P.
    """
    df = group.drop_duplicates(["band_key", "doc_id"]).sort_values(
        ["band_key", "doc_id"], kind="stable"
    )
    rep = df.groupby("band_key", sort=False)["doc_id"].transform("first")
    mask = (df["doc_id"] != rep).to_numpy()
    return pd.DataFrame(
        {"doc_id_a": rep.to_numpy()[mask], "doc_id_b": df["doc_id"].to_numpy()[mask]}
    )


def _pair_counts(group: pd.DataFrame) -> pa.Table:
    """Distinct pairs of one coarse partition, with ``n_bands`` (int64): how
    many band buckets surfaced each pair."""
    counts = group.groupby(["doc_id_a", "doc_id_b"], sort=False).size()
    return pa.Table.from_pandas(counts.reset_index(name="n_bands"), preserve_index=False)


def _pin_pair_schema(
    pairs: "ray.data.Dataset", docs: "ray.data.Dataset", col: str
) -> "ray.data.Dataset":
    """``pairs`` materialized, unchanged when it has rows; with none, one
    typed 0-row (doc_id_a, doc_id_b, ``col`` int64) block: ``shuffle_by``
    calls no kernel on an empty input, so an empty result has no schema.
    The id type is the docs' ``doc_id`` type when the plan knows it without
    executing (a materialized ``docs`` does), else int64."""
    pairs = materialized(pairs)
    if pairs.count():
        return pairs
    sch = docs.schema(fetch_if_missing=False)
    types = dict(zip(sch.names, sch.types)) if sch is not None else {}
    t = to_arrow_type(types["doc_id"]) if "doc_id" in types else pa.int64()
    empty = pa.schema([("doc_id_a", t), ("doc_id_b", t), (col, pa.int64())]).empty_table()
    return from_blocks(empty)


def minhash_lsh_candidates(
    docs: "ray.data.Dataset",
    num_perm: int = 64,
    bands: int = 16,
    shingle_k: int = 5,
    pair_mode: str = "star",
) -> "ray.data.Dataset":
    """→ candidate near-dup pairs (doc_id_a, doc_id_b, n_bands), deduped;
    ``n_bands`` (int64) counts the band buckets that surfaced the pair.

    ``pair_mode="star"`` (default, the scale path) emits one
    (bucket-min → member) pair per bucket member — sufficient for the
    connected-components keep-list and linear in bucket size.
    ``pair_mode="all"`` emits every within-bucket pair (quadratic,
    truncated at 256 members/bucket) — required when the pair list
    itself is the product (audit/evidence reports, pairwise verify
    metrics).

    Eager: the signature and band maps are one ``map_blocks`` launch, one
    plain Ray task per doc block, so over materialized docs the call
    starts no Ray Data execution (the gathered exchanges are launches too).
    A lazy ``docs`` is materialized first: the call then holds the docs in
    the object store, where a lazy map would hold only their band rows.
    ``shuffle_by`` bounds its own input blocks (ops/shuffle.py).
    """
    if pair_mode not in ("star", "all"):
        raise ValueError(f"unknown pair_mode {pair_mode!r}")
    hasher = MinHasher(num_perm=num_perm, shingle_k=shingle_k)

    def band_rows(batch: pa.Table) -> pa.Table:
        return _band_rows(hasher(batch), bands)

    docs = materialized(docs)
    kernel = (
        _bucket_pairs_partition if pair_mode == "star"
        else _bucket_all_pairs_partition
    )
    pairs = shuffle_by(map_blocks(docs, band_rows), "band_key", kernel)
    # same pair can surface from several bands → distinct
    counted = shuffle_by(pairs, ["doc_id_a", "doc_id_b"], _pair_counts)
    return _pin_pair_schema(counted, docs, "n_bands")


# --- distributed exact-Jaccard verification -------------------------------
#
# Shape (nothing corpus-sized ever reaches the driver):
#   1. candidate pairs → fixed-size Bloom filter of needed doc_ids
#      (per-block partial bitmaps OR-ed on the driver: driver memory is
#      n_blocks × m_bits/8 bytes — BOUNDED, independent of pair count);
#   2. docs → map-side Bloom prune → shingle rows (computed only for the
#      ~needed docs), keyed by hash(doc_id) % P;
#   3. pairs → two request rows each (one per member doc), keyed the same;
#   4. union + groupby(part): shuffle join attaches each doc's shingle set
#      to its pair requests;
#   5. groupby(pair bucket): exact Jaccard per pair inside a coarse-
#      partitioned kernel.
# A doc in k pairs ships its shingle set k times (a few KB each); candidate
# pairs are rare relative to the corpus, so the shuffle moves shingles of
# candidates only — never documents, never the corpus.

_BLOOM_BITS = 1 << 23  # 1 MiB bitmap → <1% FP at ~1M needed ids
_BLOOM_K = 4


def _bloom_positions(ids, m_bits: int) -> np.ndarray:
    """(k, n) bit positions via double hashing h1 + i*h2."""
    from ontocast_ray.util import hash_u64

    h1 = hash_u64(ids)
    with np.errstate(over="ignore"):
        h2 = (h1 ^ _GOLDEN64) * _FNV_PRIME | np.uint64(1)
        pos = np.stack(
            [(h1 + np.uint64(i) * h2) % np.uint64(m_bits) for i in range(_BLOOM_K)]
        )
    return pos


def _bloom_build_cols(
    ds: "ray.data.Dataset", cols: list[str], m_bits: int = _BLOOM_BITS
) -> np.ndarray:
    """OR of per-block partial bitmaps over the ids in ``cols``; each block
    returns ONE fixed-size row, so driver memory is bounded regardless of
    how many ids feed the filter."""

    def partial(batch: pa.Table) -> pa.Table:
        bloom = np.zeros(m_bits // 8, dtype=np.uint8)
        ids = np.concatenate(
            [batch[c].to_numpy(zero_copy_only=False) for c in cols]
        )
        if len(ids):
            pos = _bloom_positions(ids, m_bits).reshape(-1)
            np.bitwise_or.at(bloom, (pos >> 3).astype(np.int64), np.uint8(1) << (pos & 7).astype(np.uint8))
        return pa.table({"bloom": pa.array([bloom.tobytes()], type=pa.binary())})

    out = np.zeros(m_bits // 8, dtype=np.uint8)
    for row in ds.map_batches(partial, batch_format="pyarrow").take_all():
        out |= np.frombuffer(row["bloom"], dtype=np.uint8)
    return out


def _bloom_build(pairs: "ray.data.Dataset", m_bits: int = _BLOOM_BITS) -> np.ndarray:
    """Bloom of every doc id referenced by a candidate pair."""
    return _bloom_build_cols(pairs, ["doc_id_a", "doc_id_b"], m_bits)


def _bloom_contains(bloom: np.ndarray, ids, m_bits: int) -> np.ndarray:
    pos = _bloom_positions(ids, m_bits)
    hits = (bloom[(pos >> 3).astype(np.int64)] >> (pos & 7).astype(np.uint8)) & 1
    return hits.all(axis=0)


def _join_schema(id_type: pa.DataType) -> pa.Schema:
    return pa.schema(
        [
            ("kind", pa.int8()),  # 0 = pair request, 1 = doc shingles
            ("doc_id", id_type),
            ("doc_id_a", id_type),
            ("doc_id_b", id_type),
            ("shingles", pa.binary()),
        ]
    )


def _verify_pairs_small(
    docs: "ray.data.Dataset",
    pair_rows: list,
    threshold: float,
    shingle_k: int,
    id_type: pa.DataType,
):
    """Small-candidate fast path: the pair list is already bounded (gated
    by ``_SMALL_PAIR_LIMIT``), so the ≤2·|pairs| member-doc shingle blobs
    fit on the driver. One pure map filters the corpus against the exact
    broadcast id set and emits blobs; the driver joins and verifies —
    zero shuffles vs two sort shuffles, identical output (same shingle
    kernel, same raw-IEEE jaccard). The distributed path's per-round
    shuffle overhead dwarfs the work at this size (same rationale as the
    union-find fallback in ops/graph_cc.py)."""
    import ray

    seen = set()
    cand_pairs = []
    for r in pair_rows:
        key = (r["doc_id_a"], r["doc_id_b"])
        if key not in seen:
            seen.add(key)
            cand_pairs.append(key)
    member_ids = {d for p in cand_pairs for d in p}
    ids_ref = ray.put(member_ids)

    def blob_rows(batch: pa.Table) -> pa.Table:
        wanted = ray.get(ids_ref)
        ids = batch["doc_id"].to_pylist()
        mask = np.fromiter((d in wanted for d in ids), dtype=bool, count=len(ids))
        sub = batch.filter(pa.array(mask))
        texts = sub["text"].to_pylist()
        word_hashes, ranges, empty_mask = _word_hashes_batch(texts)
        blobs = [
            (np.zeros(1, dtype=np.uint64) if empty_mask[i]
             else _fold_kgrams(word_hashes[s:e], shingle_k)).tobytes()
            for i, (s, e) in enumerate(ranges)
        ]
        return pa.table(
            {"doc_id": sub["doc_id"], "shingles": pa.array(blobs, type=pa.binary())}
        )

    by_doc = {r["doc_id"]: r["shingles"] for r in map_blocks(docs, blob_rows).take_all()}
    out_a, out_b, sims = [], [], []
    for a, b in cand_pairs:
        if a not in by_doc or b not in by_doc:
            continue
        sa = set(np.frombuffer(by_doc[a], dtype=np.uint64).tolist())
        sb = set(np.frombuffer(by_doc[b], dtype=np.uint64).tolist())
        if not sa or not sb:
            continue
        j = len(sa & sb) / len(sa | sb)
        if j >= threshold:
            out_a.append(a)
            out_b.append(b)
            sims.append(j)
    return from_blocks(
        pa.table(
            {
                "doc_id_a": pa.array(out_a, type=id_type),
                "doc_id_b": pa.array(out_b, type=id_type),
                "jaccard": pa.array(sims, type=pa.float64()),
            }
        )
    )


# below this many candidate pairs the two-shuffle distributed join costs
# more than the whole verification; the fast path collects ≤ 2·limit blobs.
# Read at call time; set to 0 to force the distributed join.
_SMALL_PAIR_LIMIT = 5_000


def ngram_jaccard_verify(
    docs: "ray.data.Dataset",
    pairs: "ray.data.Dataset",
    threshold: float = 0.7,
    shingle_k: int = 5,
) -> "ray.data.Dataset":
    """Exact Jaccard check of candidate pairs, fully distributed (see module
    comment above): Bloom-pruned shingle computation + doc_id shuffle join +
    per-bucket verification. No corpus- or pair-sized driver materialization
    (the ``_SMALL_PAIR_LIMIT`` fast path is bounded by construction).
    """
    import ray

    empty = pa.table(
        {
            "doc_id_a": pa.array([], type=pa.int64()),
            "doc_id_b": pa.array([], type=pa.int64()),
            "jaccard": pa.array([], type=pa.float64()),
        }
    )
    # candidates are consumed three times (bloom, requests, join); a
    # materialized pair set lives in the object store — small next to docs.
    # No projection: every consumer reads only doc_id_a/doc_id_b, and a
    # Project would cost its own execution on an already materialized input.
    pairs = materialized(pairs)
    n_pairs = pairs.count()
    if n_pairs == 0:
        return from_blocks(empty)
    _sch = pairs.schema()
    id_type = dict(zip(_sch.names, _sch.types))["doc_id_a"]
    if n_pairs <= _SMALL_PAIR_LIMIT:
        return _verify_pairs_small(
            docs, pairs.take_all(), threshold, shingle_k, id_type
        )
    schema = _join_schema(id_type)

    bloom = _bloom_build(pairs)
    bloom_ref = ray.put(bloom)

    def request_rows(batch: pa.Table) -> pa.Table:
        n = len(batch)
        return pa.Table.from_arrays(
            [
                pa.array(np.zeros(2 * n, dtype=np.int8)),
                pa.concat_arrays([batch["doc_id_a"].combine_chunks(), batch["doc_id_b"].combine_chunks()]),
                pa.concat_arrays([batch["doc_id_a"].combine_chunks()] * 2),
                pa.concat_arrays([batch["doc_id_b"].combine_chunks()] * 2),
                pa.array([b""] * (2 * n), type=pa.binary()),
            ],
            schema=schema,
        )

    def shingle_rows(batch: pa.Table) -> pa.Table:
        """Bloom-pruned shingle extraction. The 1 MiB bitmap stays behind
        its ref: ``ray.get`` of a NumPy array reads the object store
        without a copy, so the task does not carry it."""
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        if len(ids) == 0:
            return schema.empty_table()
        mask = _bloom_contains(ray.get(bloom_ref), ids, _BLOOM_BITS)
        sub = batch.filter(pa.array(mask))
        texts = sub["text"].to_pylist()
        # one hash_array call for ALL surviving docs, then per-doc folds
        word_hashes, ranges, empty = _word_hashes_batch(texts)
        blobs = [
            (np.zeros(1, dtype=np.uint64) if empty[i]
             else _fold_kgrams(word_hashes[s:e], shingle_k)).tobytes()
            for i, (s, e) in enumerate(ranges)
        ]
        sub_ids = sub["doc_id"]
        n = len(texts)
        return pa.Table.from_arrays(
            [
                pa.array(np.ones(n, dtype=np.int8)),
                sub_ids.combine_chunks(),
                sub_ids.combine_chunks(),  # unused for kind=1
                sub_ids.combine_chunks(),
                pa.array(blobs, type=pa.binary()),
            ],
            schema=schema,
        )

    requests = pairs.map_batches(request_rows, batch_format="pyarrow")
    shingles = docs.map_batches(shingle_rows, batch_format="pyarrow")

    def join_kernel(group: pd.DataFrame) -> pa.Table:
        have = group[group["kind"] == 1]
        sh = dict(zip(have["doc_id"], have["shingles"]))
        reqs = group[group["kind"] == 0]
        reqs = reqs[reqs["doc_id"].isin(sh)]
        out_sh = [sh[d] for d in reqs["doc_id"]]
        return pa.table(
            {
                "doc_id": pa.array(reqs["doc_id"].tolist(), type=id_type),
                "doc_id_a": pa.array(reqs["doc_id_a"].tolist(), type=id_type),
                "doc_id_b": pa.array(reqs["doc_id_b"].tolist(), type=id_type),
                "shingles": pa.array(out_sh, type=pa.binary()),
            }
        )

    joined = shuffle_by(requests.union(shingles), "doc_id", join_kernel)

    def verify_kernel(group: pd.DataFrame) -> pa.Table:
        out_a, out_b, sims = [], [], []
        for (a, b), rows in group.groupby(["doc_id_a", "doc_id_b"], sort=False):
            by_doc = dict(zip(rows["doc_id"], rows["shingles"]))
            if a not in by_doc or b not in by_doc:
                continue  # a member doc was missing from the corpus
            sa = set(np.frombuffer(by_doc[a], dtype=np.uint64).tolist())
            sb = set(np.frombuffer(by_doc[b], dtype=np.uint64).tolist())
            if not sa or not sb:
                continue
            j = len(sa & sb) / len(sa | sb)
            if j >= threshold:
                out_a.append(a)
                out_b.append(b)
                # raw IEEE |∩|/|∪| — bit-exact vs a SQL oracle computing the
                # same integer division (rounding would reintroduce the
                # banker's-vs-half-up mismatch documented in CLAUDE.md)
                sims.append(j)
        return pa.table(
            {
                "doc_id_a": pa.array(out_a, type=id_type),
                "doc_id_b": pa.array(out_b, type=id_type),
                "jaccard": pa.array(sims, type=pa.float64()),
            }
        )

    return shuffle_by(joined, ["doc_id_a", "doc_id_b"], verify_kernel)


# ---------------------------------------------------------------------------
# simhash


class SimHasher:
    """64-bit simhash over word unigram+bigram features.

    Vectorized: ALL features of a batch are hashed in ONE
    ``pd.util.hash_array`` call (siphash, fixed key — cross-process
    deterministic), the per-feature ±1 bit votes become an (n_feats, 64)
    unpacked-bit matrix, and per-document signatures fall out of a single
    ``np.add.reduceat`` over the document segments — no per-feature Python.
    """

    def __init__(self, seed: int = 11):
        self.seed = seed

    @classmethod
    def simhash_batch(cls, texts: list[str]) -> np.ndarray:
        """→ uint64 signatures, one per text (0 for empty texts).

        Features = word hashes + FNV-folded bigram hashes (multiplicity
        kept — simhash votes count repeats); bigram strings are never
        built. One pd.util.hash_array call per batch, per-doc bit votes
        via unpackbits + reduceat.
        """
        word_hashes, ranges, empty = _word_hashes_batch(texts)
        segs: list[np.ndarray] = []
        offsets = [0]
        n_feats = 0
        with np.errstate(over="ignore"):
            for i, (s, e) in enumerate(ranges):
                if empty[i]:
                    seg = np.zeros(1, dtype=np.uint64)  # zeroed after packbits
                else:
                    wh = word_hashes[s:e]
                    bigrams = ((wh[:-1] ^ _FNV_OFFSET0) * _FNV_PRIME0) ^ wh[1:]
                    seg = np.concatenate([wh, bigrams])
                segs.append(seg)
                n_feats += len(seg)
                offsets.append(n_feats)
        if n_feats == 0:
            return np.zeros(len(texts), dtype=np.uint64)
        hashes = np.concatenate(segs)
        bits = np.unpackbits(
            np.ascontiguousarray(hashes).view(np.uint8).reshape(-1, 8),
            axis=1, bitorder="little",
        )  # (n_feats, 64); column i == bit i of the hash
        seg_ones = np.add.reduceat(bits.astype(np.int64), offsets[:-1], axis=0)
        counts = np.diff(offsets)
        acc = 2 * seg_ones - counts[:, None]  # sum of ±1 votes per bit
        sig = np.packbits((acc > 0).astype(np.uint8), axis=1, bitorder="little")
        sig = sig.copy().view(np.uint64).reshape(-1)
        sig[empty] = 0
        return sig

    @classmethod
    def simhash64(cls, text: str) -> int:
        return int(cls.simhash_batch([text])[0])

    def __call__(self, batch: pa.Table) -> pa.Table:
        sigs = self.simhash_batch(batch["text"].to_pylist())
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "simhash": pa.array(sigs.view(np.int64)),  # two's-complement int64
            }
        )


def simhash_signatures(docs: "ray.data.Dataset") -> "ray.data.Dataset":
    """→ (doc_id, simhash int64): a plain task map (SimHasher is stateless)."""
    return docs.map_batches(SimHasher(), batch_format="pyarrow")


_POP8 = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint16)


def simhash_candidates(
    docs: "ray.data.Dataset", max_hamming: int = 3, max_bucket: int = 4096,
) -> "ray.data.Dataset":
    """Banded simhash near-dup pairs: 4×16-bit keys → coarse-partitioned
    bucket shuffle (see _bucket_pairs_partition) → Hamming check → a
    (doc_id_a, doc_id_b) shuffle keeping each pair's min ``hamming``."""
    sigs = simhash_signatures(docs)

    def bands(batch: pa.Table) -> pa.Table:
        """(doc, 16-bit band) rows, vectorized: key = band<<16 | band bits."""
        n = len(batch)
        if n == 0:
            return pa.table(
                {"band_key": pa.array([], type=pa.int64()),
                 "doc_id": pa.array([], type=batch["doc_id"].type),
                 "simhash": pa.array([], type=pa.int64())}
            )
        u = batch["simhash"].combine_chunks().to_numpy(zero_copy_only=False).view(np.uint64)
        keys = np.empty((n, 4), dtype=np.uint64)
        for b in range(4):
            keys[:, b] = ((u >> np.uint64(16 * b)) & np.uint64(0xFFFF)) | (
                np.uint64(b) << np.uint64(16)
            )
        flat = keys.reshape(-1)
        idx = np.repeat(np.arange(n, dtype=np.int64), 4)
        return pa.table(
            {
                "band_key": pa.array(flat.view(np.int64)),
                "doc_id": batch["doc_id"].take(pa.array(idx)),
                "simhash": pa.array(np.repeat(u.view(np.int64), 4)),
            }
        )

    def bucket_partition(group: pd.DataFrame) -> pd.DataFrame:
        """Vectorized Hamming check per bucket: XOR all pairs at once, LUT
        popcount on the byte view. Buckets over max_bucket (a hot 16-bit
        band pattern) degrade to O(n) star checks against the min-id
        representative — same documented trade-off as embedding dedup."""
        a_out, b_out, d_out = [], [], []
        for _, rows in group.groupby("band_key", sort=False):
            rows = rows.drop_duplicates("doc_id").sort_values("doc_id")
            n = len(rows)
            if n < 2:
                continue
            ids = rows["doc_id"].to_numpy()
            hs = np.ascontiguousarray(rows["simhash"].to_numpy()).view(np.uint64)
            if n > max_bucket:
                x = hs[1:] ^ hs[0]
                d = _POP8[x.view(np.uint8).reshape(-1, 8)].sum(axis=1).astype(np.int64)
                keep = d <= max_hamming
                a_out.extend(ids[0] for _ in range(int(keep.sum())))
                b_out.extend(ids[1:][keep])
                d_out.extend(d[keep])
                continue
            iu, ju = np.triu_indices(n, k=1)
            x = hs[iu] ^ hs[ju]
            d = _POP8[x.view(np.uint8).reshape(-1, 8)].sum(axis=1).astype(np.int64)
            keep = d <= max_hamming
            a_out.extend(ids[iu[keep]])
            b_out.extend(ids[ju[keep]])
            d_out.extend(d[keep])
        id_dtype = group["doc_id"].dtype
        return pd.DataFrame({
            "doc_id_a": np.asarray(a_out, dtype=id_dtype),
            "doc_id_b": np.asarray(b_out, dtype=id_dtype),
            "hamming": np.asarray(d_out, dtype=np.int64),
        })

    def min_hamming(group: pd.DataFrame) -> pa.Table:
        mins = group.groupby(["doc_id_a", "doc_id_b"], sort=False)["hamming"].min()
        return pa.Table.from_pandas(mins.reset_index(), preserve_index=False)

    pairs = shuffle_by(
        sigs.map_batches(bands, batch_format="pyarrow"),
        "band_key",
        bucket_partition,
    )
    counted = shuffle_by(pairs, ["doc_id_a", "doc_id_b"], min_hamming)
    return _pin_pair_schema(counted, docs, "hamming")


# ---------------------------------------------------------------------------
# embedding cosine near-dup

# incremental_embedding_dedup: new-side rows per chunked matmul (peak memory
# chunk × bucket floats). Read on the driver at call time.
_COSINE_CHUNK = 512


def _bucket_cosine_pairs(
    ids: np.ndarray,
    nv: np.ndarray,
    threshold: float,
    max_bucket: int,
    chunk: int = 512,
):
    """Threshold-cosine pairs within one bucket, memory-bounded.

    ≤ max_bucket vectors: exact all-pairs via CHUNKED matmul (peak memory
    chunk × bucket floats, never bucket²) with a vectorized
    ``np.argwhere`` upper-triangle scan — no Python double loop.

    > max_bucket (pathological all-near-identical clusters): degrade to
    star verification against the bucket's min-id representative — O(n)
    work/output instead of O(n²). For dedup keep-first semantics the star
    is sufficient (every member links to the kept representative); the
    degradation is deliberate and documented, not silent truncation.
    """
    order = np.argsort(ids, kind="stable")
    ids, nv = ids[order], nv[order]
    n = len(ids)
    a_out, b_out, s_out = [], [], []
    if n > max_bucket:
        sims = nv[1:] @ nv[0]
        hit = np.flatnonzero(sims >= threshold)
        for j in hit:
            a_out.append(ids[0])
            b_out.append(ids[j + 1])
            s_out.append(round(float(sims[j]), 6))
        return a_out, b_out, s_out
    for start in range(0, n, chunk):
        stop = min(start + chunk, n)
        sims = nv[start:stop] @ nv.T  # (chunk, n)
        # upper triangle only: global col > global row
        rows, cols = np.nonzero(sims >= threshold)
        keep = cols > (rows + start)
        for r, c in zip(rows[keep], cols[keep]):
            lo, hi = sorted((ids[r + start], ids[c]))
            a_out.append(lo)
            b_out.append(hi)
            s_out.append(round(float(sims[r, c]), 6))
    return a_out, b_out, s_out


def _pair_max_cosine(pairs: "ray.data.Dataset") -> "ray.data.Dataset":
    """Distinct (id_a, id_b) with max cosine — the coarse-combiner shape
    (per-batch groupby-max, one hash%P shuffle) instead of Ray's native
    multi-key groupby aggregate (sort-based AllToAll, the measured
    10-30× CLAUDE.md lesson). Values identical; hot-bucket LSH regimes
    with big pair sets no longer pay the sort."""

    def pair_max(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby(["id_a", "id_b"], as_index=False)["cosine"].max()

    return shuffle_by(
        pairs.map_batches(pair_max, batch_format="pandas"),
        ["id_a", "id_b"],
        pair_max,
    )


def embedding_dedup_candidates(
    embeddings: "ray.data.Dataset",
    threshold: float = 0.95,
    n_planes: int = 16,
    bands: int = 2,
    seed: int = 5,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    max_bucket: int = 4096,
) -> "ray.data.Dataset":
    """Banded random-hyperplane LSH → within-bucket cosine ≥ threshold pairs.

    The n_planes signs are split into ``bands`` sub-signatures
    (MinHash-style banding): a pair collides if ANY band matches — higher
    recall than one wide signature, and each band's bucket population is
    capped in the kernel (see _bucket_cosine_pairs). Keys and partition
    ids are vectorized (packbits), never per-row Python.
    """
    if n_planes % bands:
        raise ValueError("n_planes must be divisible by bands")
    first = embeddings.take(1)[0]
    dim = len(first[vec_col])
    rng = np.random.RandomState(seed)
    planes = rng.normal(size=(dim, n_planes)).astype(np.float32)
    ppb = n_planes // bands
    if ppb > 56:
        raise ValueError("planes per band must fit a packed uint64 with band tag")

    def bucketer(batch: pa.Table) -> pa.Table:
        n = len(batch)
        if n == 0:
            return pa.table(
                {"bucket": pa.array([], type=pa.int64()),
                 id_col: pa.array([], type=batch[id_col].type),
                 vec_col: pa.array([], type=batch[vec_col].type)}
            )
        vecs = vectors_2d(batch[vec_col])
        signs = (vecs @ planes) > 0  # (n, n_planes)
        keys = np.empty((n, bands), dtype=np.uint64)
        for b in range(bands):
            sub = signs[:, b * ppb:(b + 1) * ppb]
            packed = np.packbits(sub, axis=1, bitorder="little")  # (n, ceil(ppb/8))
            padded = np.zeros((n, 8), dtype=np.uint8)
            padded[:, : packed.shape[1]] = packed
            keys[:, b] = padded.view(np.uint64).reshape(-1) | (
                np.uint64(b) << np.uint64(56)
            )
        flat = keys.reshape(-1)
        idx = pa.array(np.repeat(np.arange(n, dtype=np.int64), bands))
        return pa.table(
            {
                "bucket": pa.array(flat.view(np.int64)),
                id_col: batch[id_col].take(idx),
                vec_col: batch[vec_col].take(idx),
            }
        )

    def bucket_pairs_partition(group: pd.DataFrame) -> pd.DataFrame:
        a_out, b_out, s_out = [], [], []
        for _, rows in group.groupby("bucket", sort=False):
            if len(rows) < 2:
                continue
            rows = rows.drop_duplicates(id_col)
            ids = rows[id_col].to_numpy()
            vecs = np.array(rows[vec_col].tolist(), dtype=np.float32)
            norms = np.linalg.norm(vecs, axis=1, keepdims=True)
            norms[norms == 0] = 1.0
            a, b, s = _bucket_cosine_pairs(ids, vecs / norms, threshold, max_bucket)
            a_out.extend(a)
            b_out.extend(b)
            s_out.extend(s)
        return pd.DataFrame({"id_a": a_out, "id_b": b_out, "cosine": s_out})

    # the (dim, n_planes) planes are small: they ship with the task
    bucketed = embeddings.map_batches(bucketer, batch_format="pyarrow")
    pairs = shuffle_by(bucketed, "bucket", bucket_pairs_partition)
    # a pair can surface from more than one band's bucket → distinct
    return _pair_max_cosine(pairs)


def dup_span_stats(
    docs: "ray.data.Dataset",
    k: int = 3,
    id_col: str = "doc_id",
    text_col: str = "text",
) -> "ray.data.Dataset":
    """→ (doc_id, n_shingles, n_shared, shared_frac): per-document
    duplicated-span signal — how much of each document's distinct k-word
    shingle set also appears in at least one OTHER document. This is the
    per-doc statistic behind substring-level dedup (Lee et al. 2021,
    "Deduplicating Training Data Makes Language Models Better"): docs with
    high ``shared_frac`` are near-copies or template spam.

    Scale shape: per-doc DISTINCT shingle hashes via the rolling FNV fold
    (no gram strings, same kernel as MinHash/decontam); ONE
    ``hash(gram) % P`` shuffle colocates every (gram, doc) pair so the
    per-partition kernel counts docs-per-gram and folds to per-doc
    partials in two C groupbys; a final doc-keyed groupby sums partials.
    Nothing vocabulary- or corpus-sized touches the driver. Counts match
    the exact string-shingle SQL oracle barring 64-bit FNV collisions.
    """
    def pairs(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        hashes, ranges, empty = _word_hashes_batch(batch[text_col].to_pylist())
        gram_parts, doc_parts = [], []
        for i, (s, e) in enumerate(ranges):
            if empty[i]:
                continue
            g = _fold_kgrams(hashes[s:e], k)  # already distinct
            gram_parts.append(g)
            doc_parts.append(np.full(len(g), ids[i], dtype=np.int64))
        if not gram_parts:
            return pa.table(
                {"gram": pa.array([], type=pa.uint64()),
                 "doc_id": pa.array([], type=pa.int64())}
            )
        return pa.table(
            {"gram": pa.array(np.concatenate(gram_parts)),
             "doc_id": pa.array(np.concatenate(doc_parts))}
        )

    def partition_partials(df: "pd.DataFrame") -> "pd.DataFrame":
        n_docs = df.groupby("gram", sort=False)["doc_id"].transform("size")
        return (
            df.assign(shared=(n_docs >= 2).astype(np.int64))
            .groupby("doc_id", sort=False)
            .agg(n=("gram", "size"), n_sh=("shared", "sum"))
            .reset_index()
        )

    # the final doc-sum is a second coarse shuffle, not Ray's native keyed
    # aggregate (a sort-based AllToAll: measured 19 s for 167 k partial rows)
    def final_sum(df: "pd.DataFrame") -> pa.Table:
        agg = df.groupby("doc_id", sort=False)[["n", "n_sh"]].sum().reset_index()
        n = agg["n"].to_numpy(np.int64)
        sh = agg["n_sh"].to_numpy(np.int64)
        return pa.table(
            {"doc_id": pa.array(agg["doc_id"].to_numpy(np.int64)),
             "n_shingles": pa.array(n),
             "n_shared": pa.array(sh),
             "shared_frac": pa.array(sh.astype(np.float64) / n.astype(np.float64))}
        )

    partials = shuffle_by(
        docs.map_batches(pairs, batch_format="pyarrow"),
        "gram",
        partition_partials,
    )
    return shuffle_by(partials, "doc_id", final_sum)


def _fold_kgrams_positional(word_hashes: np.ndarray, k: int) -> np.ndarray:
    """Positional variant of ``_fold_kgrams``: the gram hash at EVERY start
    position (no unique), aligned so index q covers words [q, q+k). Docs
    shorter than k words fold to one whole-text gram covering all words."""
    n_words = len(word_hashes)
    with np.errstate(over="ignore"):
        if n_words < k:
            h = _FNV_OFFSET0
            for j in range(n_words):
                h = (h ^ word_hashes[j]) * _FNV_PRIME0
            return np.array([h], dtype=np.uint64)
        n = n_words - k + 1
        h = np.full(n, _FNV_OFFSET0, dtype=np.uint64)
        for j in range(k):
            h = (h ^ word_hashes[j:j + n]) * _FNV_PRIME0
    return h


def remove_dup_spans(
    docs: "ray.data.Dataset",
    k: int = 5,
    id_col: str = "doc_id",
    text_col: str = "text",
    min_docs: int = 2,
) -> "ray.data.Dataset":
    """ExactSubstr-style duplicated-span REMOVAL (Lee et al. 2021; the
    DataComp step run after MinHash doc-level dedup): every word position
    covered by a k-word gram that appears in ≥ ``min_docs`` DISTINCT
    documents is cut; the surviving words are re-joined with single
    spaces. → (id_col, text_col, n_removed) where text is the scrubbed
    lower/whitespace-normalized word stream (tokenization is the corpus
    rule: lower + strip + split on ``\\s+``, ref ``_word_hashes_batch``)
    and n_removed counts cut word positions.

    The removal rule is a pure predicate on the corpus gram multiset —
    order-free, parallelism-invariant, SQL-expressible (string-gram
    oracle; hashes collide only at the 64-bit FNV floor). Scale shape,
    2 coarse shuffles, nothing corpus-sized on the driver:

    1. positional gram rows (gram, doc_id, q) — fixed-width, never text —
       shuffled on ``hash(gram) % P``; the kernel marks grams whose distinct-doc
       count ≥ min_docs and emits confirmed (doc_id, q) cut-starts;
    2. cut-starts meet the documents on ``hash(doc_id) % P``; the kernel
       rebuilds each doc with the union of [q, q+k) masks (difference-
       array + cumsum, no per-position Python). Docs shorter than k words
       have one whole-text gram masking everything when shared.
    """
    id_type = docs.schema().base_schema.field(id_col).type

    def _gram_rows(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        hashes, ranges, empty = _word_hashes_batch(batch[text_col].to_pylist())
        gs, ds, qs = [], [], []
        for i, (s, e) in enumerate(ranges):
            if empty[i]:
                continue
            g = _fold_kgrams_positional(hashes[s:e], k)
            gs.append(g)
            ds.append(np.full(len(g), ids[i], dtype=np.int64))
            qs.append(np.arange(len(g), dtype=np.int64))
        if not gs:
            return pa.table(
                {"gram": pa.array([], type=pa.uint64()),
                 id_col: pa.array([], type=pa.int64()),
                 "q": pa.array([], type=pa.int64())}
            )
        return pa.table(
            {"gram": pa.array(np.concatenate(gs)),
             id_col: pa.array(np.concatenate(ds)),
             "q": pa.array(np.concatenate(qs))}
        )

    def _confirm(df: "pd.DataFrame") -> "pd.DataFrame":
        ndocs = df.groupby("gram", sort=False)[id_col].transform("nunique")
        bad = df[ndocs >= min_docs]
        return bad[[id_col, "q"]].reset_index(drop=True)

    cut_starts = shuffle_by(
        docs.map_batches(_gram_rows, batch_format="pyarrow"), "gram", _confirm
    )

    def _doc_rows(batch: pa.Table) -> pa.Table:
        ids = batch[id_col]
        n = len(batch)
        return pa.table(
            {"src": pa.array(np.zeros(n, dtype=np.int8)),
             id_col: ids,
             text_col: batch[text_col].cast(pa.string()),
             "q": pa.array(np.full(n, -1, dtype=np.int64))}
        )

    def _cut_rows(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].cast(id_type)
        n = len(batch)
        return pa.table(
            {"src": pa.array(np.ones(n, dtype=np.int8)),
             id_col: ids,
             text_col: pa.nulls(n, type=pa.string()),
             "q": pa.array(batch["q"].cast(pa.int64()))}
        )

    joined = docs.map_batches(_doc_rows, batch_format="pyarrow").union(
        cut_starts.map_batches(_cut_rows, batch_format="pyarrow")
    )

    def _scrub(df: "pd.DataFrame") -> "pd.DataFrame":
        cuts = {
            did: np.unique(s.to_numpy(np.int64))
            for did, s in df[df["src"] == 1].groupby(id_col, sort=False)["q"]
        }
        d = df[df["src"] == 0]
        out_text, out_removed = [], []
        for doc_id, t in zip(d[id_col], d[text_col]):
            words = _WS.split((t or "").strip().lower())
            if not words or words == [""]:
                out_text.append("")
                out_removed.append(0)
                continue
            n = len(words)
            starts = cuts.get(doc_id)
            if starts is None or not len(starts):
                out_text.append(" ".join(words))
                out_removed.append(0)
                continue
            cover = n if n < k else k
            diff = np.zeros(n + 1, dtype=np.int64)
            np.add.at(diff, starts, 1)
            np.add.at(diff, np.minimum(starts + cover, n), -1)
            masked = np.cumsum(diff[:-1]) > 0
            out_text.append(
                " ".join(w for w, m in zip(words, masked) if not m)
            )
            out_removed.append(int(masked.sum()))
        return pd.DataFrame(
            {id_col: d[id_col].to_numpy(),
             text_col: out_text,
             "n_removed": np.asarray(out_removed, dtype=np.int64)}
        )

    return shuffle_by(joined, id_col, _scrub)


def incremental_minhash_candidates(
    new_docs: "ray.data.Dataset",
    index_docs: "ray.data.Dataset",
    num_perm: int = 64,
    bands: int = 16,
    shingle_k: int = 5,
    max_bucket_side: int = 256,
) -> "ray.data.Dataset":
    """→ (doc_id_a, doc_id_b): candidate near-dup pairs BETWEEN a new
    crawl batch and the existing index (a = index doc, b = new doc) that
    share ≥ 1 LSH band bucket — the incremental companion to
    `minhash_lsh_candidates`, and the MinHash analogue of
    `incremental_dedup`: the daily-crawl shape where the index is never
    re-deduped against itself, only probed.

    Scale shape: both sides' signatures are map-side (`MinHasher` task
    map, text never shuffles); band rows are 17-byte (band_key, doc_id,
    side) tuples on the SAME coarse ``hash(band_key) % P`` shuffle as the
    batch op; the per-partition kernel cross-merges the two sides per
    band_key in one vectorized ``pd.merge``. Hot buckets are truncated
    to ``max_bucket_side`` members per side (smallest doc_ids,
    deterministic) — the documented LSH degradation bound, same contract
    as `embedding_dedup_candidates.max_bucket`; pairs emerging from
    several bands are deduped by the final `distinct_on`.
    """
    from ontocast_ray.ops.joins import distinct_on

    def _rows(side: int):
        def _r(batch: pa.Table) -> pa.Table:
            t = _band_rows(batch, bands)
            return t.append_column(
                "side", pa.array(np.full(len(t), side, dtype=np.int8))
            )

        return _r

    def _sigs(ds):
        return ds.map_batches(
            MinHasher(num_perm=num_perm, shingle_k=shingle_k), batch_format="pyarrow"
        )

    rows = _sigs(index_docs).map_batches(
        _rows(0), batch_format="pyarrow"
    ).union(_sigs(new_docs).map_batches(_rows(1), batch_format="pyarrow"))

    def cross_pairs(group: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({
            "doc_id_a": pd.Series([], dtype=np.int64),
            "doc_id_b": pd.Series([], dtype=np.int64),
        })
        g = group.drop_duplicates(["band_key", "doc_id", "side"]).sort_values(
            ["band_key", "doc_id"], kind="stable"
        )
        g = g.groupby(["band_key", "side"], sort=False).head(max_bucket_side)
        idx = g[g["side"] == 0][["band_key", "doc_id"]]
        new = g[g["side"] == 1][["band_key", "doc_id"]]
        if idx.empty or new.empty:
            return empty
        m = idx.merge(new, on="band_key", suffixes=("_a", "_b"))
        return m[["doc_id_a", "doc_id_b"]].drop_duplicates()

    pairs = shuffle_by(rows, "band_key", cross_pairs)
    return distinct_on(pairs, ["doc_id_a", "doc_id_b"])


def incremental_embedding_dedup(
    new_embs: "ray.data.Dataset",
    index_embs: "ray.data.Dataset",
    threshold: float = 0.95,
    n_planes: int = 16,
    bands: int = 2,
    seed: int = 5,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    max_bucket_side: int = 2048,
) -> "ray.data.Dataset":
    """→ (id_a=index vec, id_b=new vec, cosine): cross-side embedding
    near-dups between a new batch and the existing index — the semantic
    member of the incremental family (`incremental_dedup` exact,
    `incremental_minhash_candidates` lexical). The index is probed,
    never re-deduped against itself.

    Same banded random-hyperplane LSH as `embedding_dedup_candidates`
    (identical planes for identical seed, so a vector buckets the same
    whether it arrived today or last month — the property that makes the
    index reusable); the per-bucket kernel cross-multiplies the two
    sides only (chunked (new × index) matmul, never within-side pairs),
    each side truncated at ``max_bucket_side`` (smallest ids,
    deterministic — the documented hot-bucket degradation).
    """
    import ray

    from ontocast_ray.util import vectors_2d

    if n_planes % bands:
        raise ValueError("n_planes must be divisible by bands")
    chunk = _COSINE_CHUNK
    first = index_embs.take(1) or new_embs.take(1)
    dim = len(first[0][vec_col])
    rng = np.random.RandomState(seed)
    planes = rng.normal(size=(dim, n_planes)).astype(np.float32)
    ppb = n_planes // bands
    if ppb > 56:
        raise ValueError("planes per band must fit a packed uint64")
    planes_ref = ray.put(planes)

    def bucket(side: int):
        def _b(batch: pa.Table) -> pa.Table:
            pl = ray.get(planes_ref)
            n = len(batch)
            if n == 0:
                return pa.table(
                    {"bucket": pa.array([], type=pa.int64()),
                     id_col: pa.array([], type=pa.int64()),
                     vec_col: pa.array([], type=batch[vec_col].type),
                     "side": pa.array([], type=pa.int8())}
                )
            vecs = vectors_2d(batch[vec_col])
            signs = (vecs @ pl) > 0
            keys = np.empty((n, bands), dtype=np.uint64)
            for b in range(bands):
                sub = signs[:, b * ppb:(b + 1) * ppb]
                packed = np.packbits(sub, axis=1, bitorder="little")
                padded = np.zeros((n, 8), dtype=np.uint8)
                padded[:, : packed.shape[1]] = packed
                keys[:, b] = padded.view(np.uint64).reshape(-1) | (
                    np.uint64(b) << np.uint64(56)
                )
            flat = keys.reshape(-1)
            idx = pa.array(np.repeat(np.arange(n, dtype=np.int64), bands))
            return pa.table(
                {
                    "bucket": pa.array(flat.view(np.int64)),
                    id_col: batch[id_col].cast(pa.int64()).take(idx),
                    vec_col: batch[vec_col].take(idx),
                    "side": pa.array(
                        np.full(n * bands, side, dtype=np.int8)
                    ),
                }
            )

        return _b

    def cross_pairs(group: pd.DataFrame) -> pd.DataFrame:
        a_out, b_out, s_out = [], [], []
        for _, rows in group.groupby("bucket", sort=False):
            idxs = rows[rows["side"] == 0].drop_duplicates(id_col)
            news = rows[rows["side"] == 1].drop_duplicates(id_col)
            if idxs.empty or news.empty:
                continue
            idxs = idxs.nsmallest(max_bucket_side, id_col)
            news = news.nsmallest(max_bucket_side, id_col)
            ia = idxs[id_col].to_numpy()
            ib = news[id_col].to_numpy()
            va = np.array(idxs[vec_col].tolist(), dtype=np.float32)
            vb = np.array(news[vec_col].tolist(), dtype=np.float32)
            for v in (va, vb):
                nrm = np.linalg.norm(v, axis=1, keepdims=True)
                nrm[nrm == 0] = 1.0
                v /= nrm
            for start in range(0, len(ib), chunk):
                sims = vb[start:start + chunk] @ va.T
                rs, cs = np.nonzero(sims >= threshold)
                for r, c in zip(rs, cs):
                    a_out.append(ia[c])
                    b_out.append(ib[r + start])
                    s_out.append(round(float(sims[r, c]), 6))
        return pd.DataFrame(
            {"id_a": a_out, "id_b": b_out, "cosine": s_out}
        )

    rows = index_embs.map_batches(bucket(0), batch_format="pyarrow").union(
        new_embs.map_batches(bucket(1), batch_format="pyarrow")
    )
    pairs = shuffle_by(rows, "bucket", cross_pairs)
    return _pair_max_cosine(pairs)


def cdc_chunk_dup_stats(
    docs: "ray.data.Dataset",
    text_col: str = "text",
    id_col: str = "doc_id",
    boundary_mask: int = 64,
    boundary_thresh: int = 8,
) -> "ray.data.Dataset":
    """Content-defined-chunking dedup signal (the FastCDC/storage-dedup
    shape at word granularity): token stream cut into VARIABLE-length
    chunks at content-defined boundaries — after every token whose FNV-1a
    satisfies ``hash % boundary_mask < boundary_thresh`` (mean chunk =
    mask/thresh tokens) — then each chunk deduped corpus-wide.
    → (id_col, n_chunks, n_dup_chunks, dup_chunk_frac): how much of each
    document is made of chunks appearing ≥2 times anywhere.

    Unlike the fixed-k ``dup_span_stats`` grams, CDC boundaries re-align
    after insertions/deletions, so shifted copies still match — the
    property storage dedup and ExactSubstr-style corpus scrubbing want.

    Scale shape: tokenize/boundary/chunk-hash are all map-side and
    vectorized (unique-word FNV, segmented XOR of position-mixed token
    hashes via ``np.bitwise_xor.reduceat`` — no per-chunk Python). Two
    coarse shuffles, no broadcast, no driver collection: occurrences
    (chunk_hash, doc_id) colocate by ``hash % P`` so global per-chunk
    counts finish in one partition pass, which emits per-(partition, doc)
    partial sums; a second ``hash(doc) % P`` exchange folds them per document.
    Wire = one 16-byte row per chunk occurrence, then per (part, doc).
    Chunk identity is the usual 64-bit collision-free assumption; the
    SQL oracle re-derives with exact chunk STRINGS.
    """
    import pandas as pd

    from ontocast_ray.ops.interleave import splitmix64
    from ontocast_ray.ops.text import _explode_words, fnv1a_words

    mask = np.uint64(boundary_mask)
    thresh = np.uint64(boundary_thresh)

    def occurrences(batch: pa.Table) -> pa.Table:
        texts = batch[text_col].to_pandas().fillna("")
        words = texts.str.lower().str.findall(r"[a-z]+")
        idx, vals = _explode_words(words)
        if not len(vals):
            return pa.table({
                "chunk_hash": pa.array([], type=pa.uint64()),
                id_col: pa.array([], type=pa.int64()),
            })
        ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        uniq, inv = np.unique(vals, return_inverse=True)
        h = fnv1a_words(uniq)[inv]
        bnd = (h % mask) < thresh
        # boundary at token j ENDS a chunk: chunk id = count of boundaries
        # strictly before the token, per doc (exclusive segmented cumsum)
        cs_excl = np.concatenate(([0], np.cumsum(bnd)[:-1]))
        n_tok = np.bincount(idx, minlength=len(texts)).astype(np.int64)
        doc_tok = n_tok[n_tok > 0]
        starts = np.concatenate(([0], np.cumsum(doc_tok)[:-1]))
        cid = cs_excl - np.repeat(cs_excl[starts], doc_tok)
        # chunk start indices in the global stream: new doc OR new cid
        is_start = np.ones(len(h), dtype=bool)
        is_start[1:] = (idx[1:] != idx[:-1]) | (cid[1:] != cid[:-1])
        chunk_starts = np.nonzero(is_start)[0]
        pos_in_chunk = np.arange(len(h)) - np.repeat(
            chunk_starts, np.diff(np.append(chunk_starts, len(h)))
        )
        mixed = splitmix64(h ^ splitmix64(pos_in_chunk.astype(np.uint64)))
        chash = np.bitwise_xor.reduceat(mixed, chunk_starts)
        cdoc = ids[idx[chunk_starts]]
        return pa.table({
            "chunk_hash": pa.array(chash),
            id_col: pa.array(cdoc),
        })

    def per_partition(df: pd.DataFrame) -> pd.DataFrame:
        # all occurrences of a chunk_hash are HERE (shuffled on it), so
        # the >=2 test is global; fold straight to per-doc partials
        cnt = df.groupby("chunk_hash", sort=False)["chunk_hash"].transform(
            "size"
        )
        return (
            pd.DataFrame({
                id_col: df[id_col].to_numpy(),
                "dup": (cnt >= 2).to_numpy().astype(np.int64),
                "tot": np.ones(len(df), dtype=np.int64),
            })
            .groupby(id_col, as_index=False)
            .sum()
        )

    def per_doc(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(id_col, as_index=False)[["dup", "tot"]].sum()
        tot = g["tot"].to_numpy(dtype=np.int64)
        dup = g["dup"].to_numpy(dtype=np.int64)
        return pd.DataFrame({
            id_col: g[id_col].to_numpy(),
            "n_chunks": tot,
            "n_dup_chunks": dup,
            "dup_chunk_frac": dup.astype(np.float64) / tot.astype(np.float64),
        })

    partials = shuffle_by(
        docs.map_batches(occurrences, batch_format="pyarrow"),
        "chunk_hash",
        per_partition,
    )
    return shuffle_by(partials, id_col, per_doc)


def source_similarity_matrix(
    docs: "ray.data.Dataset",
    group_col: str = "source",
    text_col: str = "text",
    shingle_k: int = 3,
) -> "pa.Table":
    """Corpus-level overlap report: EXACT pairwise Jaccard similarity
    between every two sources' word-``k``-shingle SETS — the
    which-sources-duplicate-each-other report that decides crawl-source
    retirement (the corpus-level companion of per-doc near-dup).
    → pa.Table (source_a, source_b, n_common, jaccard), pairs with at
    least one shared shingle (inner-join semantics).

    Scale shape: per-block distinct (shingle_hash, source) rows through
    one coarse ``hash % P`` shuffle; because the partition key IS the
    shingle hash, per-source distinct sizes and per-pair intersection
    counts both finish within partitions — the driver receives only
    O(P · (sources + sources²)) pre-aggregated count rows, never
    shingles. A shingle shared by g sources fans out to C(g,2) pair rows
    — bounded by sources², the op's small-cardinality contract (per-doc
    dedup is the tool for large g). Shingle identity is the usual 64-bit
    collision-free assumption (same kernel as MinHash / exact-Jaccard
    verify); the SQL oracle re-derives with exact shingle strings.
    """

    def partial(batch: pa.Table) -> pa.Table:
        texts = batch[text_col].to_pylist()
        groups = batch[group_col].to_pylist()
        hashes, ranges, empty = _word_hashes_batch(texts)
        sh_all, grp_all = [], []
        for i, (s, e) in enumerate(ranges):
            if empty[i]:
                sh = np.zeros(1, dtype=np.uint64)
            else:
                sh = np.unique(_fold_kgrams(hashes[s:e], shingle_k))
            sh_all.append(sh)
            grp_all.extend([groups[i]] * len(sh))
        if not sh_all:
            return pa.table({
                "sh": pa.array([], type=pa.uint64()),
                "grp": pa.array([], type=pa.string()),
            })
        df = pd.DataFrame({
            "sh": np.concatenate(sh_all),
            "grp": np.asarray(grp_all, dtype=object),
        }).drop_duplicates()
        return pa.table({
            "sh": pa.array(df["sh"].to_numpy(dtype=np.uint64)),
            "grp": pa.array(df["grp"].to_numpy(), type=pa.string()),
        })

    def per_partition(df: pd.DataFrame) -> pd.DataFrame:
        dd = df.drop_duplicates(["sh", "grp"])
        sizes = dd.groupby("grp", as_index=False).size()
        m = dd.merge(dd, on="sh", suffixes=("_a", "_b"))
        m = m[m["grp_a"] < m["grp_b"]]
        pairs = m.groupby(["grp_a", "grp_b"], as_index=False).size()
        return pd.DataFrame({
            "ga": pd.concat([sizes["grp"], pairs["grp_a"]],
                            ignore_index=True),
            "gb": pd.concat([pd.Series([""] * len(sizes)),
                             pairs["grp_b"]], ignore_index=True),
            "n": pd.concat([sizes["size"], pairs["size"]],
                           ignore_index=True).astype(np.int64),
        })

    rows = shuffle_by(
        docs.map_batches(partial, batch_format="pyarrow"), "sh", per_partition
    ).take_all()
    sizes: dict = {}
    inter: dict = {}
    for r in rows:
        if r["gb"] == "":
            sizes[r["ga"]] = sizes.get(r["ga"], 0) + int(r["n"])
        else:
            key = (r["ga"], r["gb"])
            inter[key] = inter.get(key, 0) + int(r["n"])
    sa, sb, nc, jac = [], [], [], []
    for (a, b), i in sorted(inter.items()):
        sa.append(a)
        sb.append(b)
        nc.append(i)
        jac.append(float(i) / float(sizes[a] + sizes[b] - i))
    return pa.table({
        "source_a": pa.array(sa, type=pa.string()),
        "source_b": pa.array(sb, type=pa.string()),
        "n_common": pa.array(np.asarray(nc, dtype=np.int64)),
        "jaccard": pa.array(np.asarray(jac, dtype=np.float64)),
    })


def containment_pairs(
    docs: "ray.data.Dataset",
    shingle_k: int = 3,
    threshold_ppm: int = 600_000,
    max_df: int = 64,
    id_col: str = "doc_id",
    text_col: str = "text",
) -> "ray.data.Dataset":
    """Exact shingle-CONTAINMENT near-dup pairs: C(A→B) = |sh(A) ∩ sh(B)|
    / |sh(A)| in fixed-point ppm — the one-sided overlap that catches
    quote-inclusion / subset duplicates symmetric Jaccard misses
    (a 100-line doc fully embedded in a 10k-line doc has Jaccard ≈ 0.01
    but containment 1.0). → (doc_id_a, doc_id_b, n_shared, n_a, n_b,
    cont_a_ppm, cont_b_ppm) for pairs with max(cont) ≥ ``threshold_ppm``.

    Scale shape — an inverted-index join, no LSH and no candidate list:
    per-block DISTINCT (shingle_hash, doc_id, n_sh) rows through ONE
    coarse ``hash(shingle) % P`` shuffle. Because the partition key IS
    the shingle, each shingle's full posting list lands in one kernel:
    document frequency is globally exact there, and postings longer than
    ``max_df`` are dropped wholesale (a shingle shared by >max_df docs is
    boilerplate — the standard df-cap that bounds the C(df,2) pair
    fan-out; the cap is part of the op's contract and the SQL oracle
    mirrors it). Pair partials then take one ``hash(pair) % P`` shuffle;
    integer ppm division keeps the threshold bit-exact across engines.
    Shingle identity is the usual 64-bit collision-free assumption
    (same kernel as MinHash/exact-Jaccard verify).
    """
    def shingle_rows(batch: pa.Table) -> pa.Table:
        texts = batch[text_col].to_pylist()
        ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        hashes, ranges, empty = _word_hashes_batch(texts)
        sh_all, id_all, nsh_all = [], [], []
        for i, (s, e) in enumerate(ranges):
            if empty[i]:
                sh = np.zeros(1, dtype=np.uint64)
            else:
                sh = _fold_kgrams(hashes[s:e], shingle_k)  # already unique
            sh_all.append(sh)
            id_all.append(np.full(len(sh), ids[i], dtype=np.int64))
            nsh_all.append(np.full(len(sh), len(sh), dtype=np.int64))
        if not sh_all:
            return pa.table({
                "sh": pa.array([], type=pa.uint64()),
                id_col: pa.array([], type=pa.int64()),
                "n_sh": pa.array([], type=pa.int64()),
            })
        return pa.table({
            "sh": pa.array(np.concatenate(sh_all)),
            id_col: pa.array(np.concatenate(id_all)),
            "n_sh": pa.array(np.concatenate(nsh_all)),
        })

    def pair_partials(df: "pd.DataFrame") -> "pd.DataFrame":
        emptyf = pd.DataFrame({
            "doc_id_a": pd.Series([], dtype="int64"),
            "doc_id_b": pd.Series([], dtype="int64"),
            "n_shared": pd.Series([], dtype="int64"),
            "n_a": pd.Series([], dtype="int64"),
            "n_b": pd.Series([], dtype="int64"),
        })
        # global df is exact here: every row of a shingle is co-located
        df = df[df.groupby("sh")["sh"].transform("size") <= max_df]
        if df.empty:
            return emptyf
        m = df.merge(df, on="sh", suffixes=("_l", "_r"))
        m = m[m[f"{id_col}_l"] < m[f"{id_col}_r"]]
        if m.empty:
            return emptyf
        g = m.groupby(
            [f"{id_col}_l", f"{id_col}_r", "n_sh_l", "n_sh_r"],
            as_index=False,
        ).size()
        return pd.DataFrame({
            "doc_id_a": g[f"{id_col}_l"].to_numpy(np.int64),
            "doc_id_b": g[f"{id_col}_r"].to_numpy(np.int64),
            "n_shared": g["size"].to_numpy(np.int64),
            "n_a": g["n_sh_l"].to_numpy(np.int64),
            "n_b": g["n_sh_r"].to_numpy(np.int64),
        })

    def finalize(df: "pd.DataFrame") -> "pd.DataFrame":
        g = df.groupby(
            ["doc_id_a", "doc_id_b", "n_a", "n_b"], as_index=False
        )["n_shared"].sum()
        i = g["n_shared"].to_numpy(np.int64)
        ca = (i * np.int64(1_000_000)) // g["n_a"].to_numpy(np.int64)
        cb = (i * np.int64(1_000_000)) // g["n_b"].to_numpy(np.int64)
        keep = np.maximum(ca, cb) >= np.int64(threshold_ppm)
        out = pd.DataFrame({
            "doc_id_a": g["doc_id_a"].to_numpy(np.int64),
            "doc_id_b": g["doc_id_b"].to_numpy(np.int64),
            "n_shared": i,
            "n_a": g["n_a"].to_numpy(np.int64),
            "n_b": g["n_b"].to_numpy(np.int64),
            "cont_a_ppm": ca,
            "cont_b_ppm": cb,
        })
        return out[keep]

    partials = shuffle_by(
        docs.map_batches(shingle_rows, batch_format="pyarrow"),
        "sh",
        pair_partials,
    )
    return shuffle_by(partials, ["doc_id_a", "doc_id_b"], finalize)


def wordset_dedup(
    docs: "ray.data.Dataset",
    id_col: str = "doc_id",
    text_col: str = "text",
) -> "ray.data.Dataset":
    """Bag-of-words exact dedup: two documents are duplicates iff their
    DISTINCT word SETS are equal (tokenization = the dedup rule: lower +
    strip + split on \\s+) — catches reordered/re-punctuated boilerplate
    byte-exact dedup misses while staying exact (no thresholds).
    → (doc_id, n_copies, n_distinct_words): the smallest doc_id per
    word-set group.

    Scale shape (the exact_dedup shape with a set fingerprint as key):
    the canonical form — sorted distinct words joined by one space — is
    hashed to u64 map-side, so the shuffle carries pre-combined
    (key, min_id, count) rows, never the text. 64-bit collision-free
    assumption, same as MinHash/exact-Jaccard; the SQL oracle groups by
    the canonical STRING itself, independently re-deriving the groups.
    """
    from ontocast_ray.util import hash_u64

    def partial(df: "pd.DataFrame") -> "pd.DataFrame":
        if df.empty:
            return pd.DataFrame({
                "key": pd.Series([], dtype="uint64"),
                id_col: pd.Series([], dtype="int64"),
                "n": pd.Series([], dtype="int64"),
                "n_words": pd.Series([], dtype="int64"),
            })
        df = df.reset_index(drop=True)
        canon, n_words = [], []
        for t in df[text_col].fillna("").tolist():
            ws = sorted(set(_WS.split(t.strip().lower())))
            canon.append(" ".join(ws))
            n_words.append(len(ws))
        d = pd.DataFrame({
            "key": hash_u64(np.asarray(canon, dtype=object)),
            id_col: df[id_col].to_numpy(np.int64),
            "n_words": np.asarray(n_words, dtype=np.int64),
        })
        g = d.groupby(["key", "n_words"], as_index=False).agg(
            **{id_col: (id_col, "min"), "n": (id_col, "size")}
        )
        g["n"] = g["n"].astype(np.int64)
        return g

    def combine(g: "pd.DataFrame") -> "pd.DataFrame":
        out = g.groupby(["key", "n_words"], as_index=False).agg(
            **{id_col: (id_col, "min"), "n": ("n", "sum")}
        )
        return pd.DataFrame({
            id_col: out[id_col].to_numpy(np.int64),
            "n_copies": out["n"].to_numpy(np.int64),
            "n_distinct_words": out["n_words"].to_numpy(np.int64),
        })

    return shuffle_by(
        docs.map_batches(partial, batch_format="pandas"), "key", combine
    )


def gram_novelty(
    docs: "ray.data.Dataset",
    k: int = 3,
    text_col: str = "text",
    id_col: str = "doc_id",
) -> "ray.data.Dataset":
    """Per-document n-gram NOVELTY — the Lee et al. (2022) dedup-analysis
    metric ("what fraction of this page's k-grams appear here first?"):
    for each doc, the count of its distinct word-k-shingles whose global
    FIRST occurrence (min doc_id) is this doc, plus the novelty ratio.
    Template/boilerplate pages score near 0; fresh content near 1.
    → (id_col, n_grams, n_novel, novelty).

    Two coarse shuffles: (shingle → min doc) with per-batch distinct
    combiners on ``hash(shingle) % P`` (hash values only — text never
    moves), then the winners flow back on ``hash(doc) % P`` to meet each
    doc's distinct-gram counts. Ratio is one IEEE int/int division.
    Empty docs carry the single whole-text sentinel shingle, same as the
    MinHash kernel.
    """
    def prep(batch: pa.Table) -> pa.Table:
        texts = batch[text_col].to_pylist()
        ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        hashes, ranges, empty = _word_hashes_batch(texts)
        out_h, out_d = [], []
        for i, (s, e) in enumerate(ranges):
            sh = (
                np.zeros(1, dtype=np.uint64)
                if empty[i] else _fold_kgrams(hashes[s:e], k)
            )
            out_h.append(sh)
            out_d.append(np.full(len(sh), ids[i], dtype=np.int64))
        h = np.concatenate(out_h) if out_h else np.zeros(0, np.uint64)
        d = np.concatenate(out_d) if out_d else np.zeros(0, np.int64)
        return pa.table({
            "gram": pa.array(h),
            id_col: pa.array(d),
        })

    grams = docs.map_batches(prep, batch_format="pyarrow").materialize()

    def min_doc(df: "pd.DataFrame") -> "pd.DataFrame":
        g = df.groupby("gram", as_index=False)[id_col].min()
        g = g.rename(columns={id_col: "first_doc"})
        return g[["gram", "first_doc"]]

    winners = shuffle_by(grams, "gram", min_doc)

    # flow winners back on the doc key: gram rows re-keyed by their doc,
    # winner rows re-keyed by the winning doc (only winners count)
    def tag_gram(batch: pa.Table) -> pa.Table:
        return pa.table({
            id_col: batch[id_col],
            "novel": pa.array(np.zeros(len(batch), dtype=np.int64)),
            "one": pa.array(np.ones(len(batch), dtype=np.int64)),
        })

    def tag_winner(batch: pa.Table) -> pa.Table:
        return pa.table({
            id_col: batch["first_doc"],
            "novel": pa.array(np.ones(len(batch), dtype=np.int64)),
            "one": pa.array(np.zeros(len(batch), dtype=np.int64)),
        })

    both = grams.map_batches(tag_gram, batch_format="pyarrow").union(
        winners.map_batches(tag_winner, batch_format="pyarrow")
    )

    def fold(df: "pd.DataFrame") -> "pd.DataFrame":
        g = df.groupby(id_col, as_index=False).agg(
            n_grams=("one", "sum"), n_novel=("novel", "sum")
        )
        ng = g["n_grams"].to_numpy(dtype=np.int64)
        nv = g["n_novel"].to_numpy(dtype=np.int64)
        return pd.DataFrame({
            id_col: g[id_col].to_numpy(),
            "n_grams": ng,
            "n_novel": nv,
            "novelty": nv / np.maximum(ng, 1),
        })

    return shuffle_by(both, id_col, fold)


def minhash_estimate_errors(
    docs: "ray.data.Dataset",
    num_perm: int = 64,
    bands: int = 16,
    shingle_k: int = 5,
) -> "ray.data.Dataset":
    """MinHash CALIBRATION report — the num_perm-tuning table every dedup
    deployment reads before fixing its threshold: for every within-bucket
    candidate pair, the signature-estimated Jaccard (matching-component
    fraction) next to the EXACT shingle Jaccard and the absolute error.
    → (doc_id_a, doc_id_b, n_matching, est_jaccard, exact_jaccard,
    abs_err).

    Shapes reused whole: signatures from the MinHasher task kernel
    (doc-count-sized, num_perm ints each → broadcast as one sorted
    matrix, the gazetteer catalog contract); candidates from
    ``pair_mode="all"`` (the pair list IS the product here); exact
    Jaccard from the Bloom-pruned distributed verifier at threshold 0.
    The estimate is an exact int/int division — bit-stable.
    """
    import ray

    docs = docs.materialize()  # consumed by signatures, LSH, verifier
    sigs = docs.map_batches(
        MinHasher(num_perm=num_perm, shingle_k=shingle_k), batch_format="pyarrow"
    )
    ids_l, sig_l = [], []
    for b in sigs.iter_batches(batch_size=None, batch_format="pyarrow"):
        ids_l.append(b["doc_id"].to_numpy(zero_copy_only=False))
        m = np.asarray(b["minhash"].to_pylist(), dtype=np.int64)
        sig_l.append(m.reshape(len(b), -1))
    ids = np.concatenate(ids_l).astype(np.int64)
    mat = np.concatenate(sig_l, axis=0)
    order = np.argsort(ids, kind="stable")
    ids, mat = ids[order], mat[order]
    sig_ref = ray.put((ids, mat))

    pairs = minhash_lsh_candidates(
        docs, num_perm=num_perm, bands=bands, shingle_k=shingle_k,
        pair_mode="all",
    )
    exact = ngram_jaccard_verify(
        docs, pairs, threshold=0.0, shingle_k=shingle_k
    )

    np_f = float(num_perm)

    def score(batch: pa.Table) -> pa.Table:
        sids, smat = ray.get(sig_ref)
        a = batch["doc_id_a"].to_numpy(zero_copy_only=False).astype(np.int64)
        b = batch["doc_id_b"].to_numpy(zero_copy_only=False).astype(np.int64)
        pa_idx = np.searchsorted(sids, a)
        pb_idx = np.searchsorted(sids, b)
        match = (smat[pa_idx] == smat[pb_idx]).sum(axis=1).astype(np.int64)
        est = match / np_f
        exact_j = batch["jaccard"].to_numpy(zero_copy_only=False)
        return pa.table({
            "doc_id_a": batch["doc_id_a"],
            "doc_id_b": batch["doc_id_b"],
            "n_matching": pa.array(match),
            "est_jaccard": pa.array(est),
            "exact_jaccard": batch["jaccard"],
            "abs_err": pa.array(np.abs(est - exact_j)),
        })

    return exact.map_batches(score, batch_format="pyarrow")
