"""Training-sequence packing: concat-and-split documents into fixed-size
context windows.

The standard GPT-style packing rule: imagine every document's tokens
concatenated in ``doc_id`` order into one global stream, then split into
bins of ``capacity`` tokens. Each document is annotated with where its
tokens land — ``global_offset`` (exclusive prefix sum of token counts),
``first_bin`` / ``last_bin`` and ``offset_in_bin`` — so a downstream
export can assemble any bin by reading exactly the documents that overlap
it. A document may span bins; nothing is padded or dropped.

Execution shape (the part that must survive 100 TB):

- The only global dependency is an ORDERED PREFIX SUM over token counts,
  computed with the classic two-phase scan: per-shard token totals
  (``shard = doc_id // shard_span``, a small C-implemented hash
  aggregate), an exclusive scan over the tiny (shard, total) list on the
  driver, then a broadcast of shard base offsets into a per-shard
  vectorized kernel. The driver holds one int per shard — ``shard_span``
  controls that (default 65 536 docs/shard → 15 M entries even at 10^12
  docs; a two-level scan drops it to O(sqrt) if ever needed).
- Token counts are computed ONCE: the (doc_id, shard, n_tokens) projection
  (24 B/doc — ~2 % of a text corpus) is materialized and reused by both
  phases, so the corpus text is tokenized in a single pass.
- The per-shard kernel partitions on the coarse key ``hash(shard) % P`` and
  loops shards via ONE pandas ``groupby(...).cumsum()`` C call per
  partition — no per-row or per-shard Python.

Tokenization matches ``ops.text.token_stats``'s whitespace rule
(strip, split on ``\\s+``), so the SQL oracle is a window-function
``SUM ... OVER (ORDER BY doc_id)`` over the same counts.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

import ray
import ray.data

from ontocast_ray.ops.shuffle import shuffle_by


def _token_meta_factory(id_col: str, text_col: str, shard_span: int,
                        tokenizer=None):
    def _meta(batch: pa.Table) -> pa.Table:
        texts = batch[text_col].to_pandas().fillna("")
        if tokenizer is None:
            n_tok = (
                texts.str.strip().str.split().str.len()
                .fillna(0).to_numpy(np.int64)
            )
        else:
            n_tok = tokenizer.count_series(texts)
        ids = batch[id_col].cast(pa.int64()).to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "doc_id": pa.array(ids),
                "shard": pa.array(ids // np.int64(shard_span)),
                "n_tokens": pa.array(n_tok, type=pa.int64()),
            }
        )

    return _meta


def pack_sequences(
    docs: "ray.data.Dataset",
    capacity: int = 2048,
    id_col: str = "doc_id",
    text_col: str = "text",
    shard_span: int = 65_536,
    n_parts: int = 64,
    tokenizer=None,
) -> "ray.data.Dataset":
    """→ (doc_id, shard, n_tokens, global_offset, first_bin, last_bin,
    offset_in_bin) under concat-and-split packing at ``capacity`` tokens.

    ``global_offset`` is the exclusive prefix sum of ``n_tokens`` in
    ``doc_id`` order; bins follow from integer division. Deterministic at
    any parallelism: every output value is a pure function of the corpus.

    ``tokenizer`` is any ``functions.tokenizer.Tokenizer`` (e.g. the
    fixture ``ByteBPETokenizer``, or a real trained one via
    ``load_hf_tokenizer``) so bin boundaries match the training stack's
    token counts; None keeps the SQL-expressible whitespace rule. The
    tokenizer object is pickled once per task and its per-word cache warms
    per worker — counting stays off the driver either way.
    """
    if capacity <= 0:
        raise ValueError("capacity must be positive")

    meta = docs.map_batches(
        _token_meta_factory(id_col, text_col, shard_span, tokenizer),
        batch_format="pyarrow",
    )
    return pack_token_meta(meta, capacity=capacity, n_parts=n_parts)


def pack_token_meta(
    meta: "ray.data.Dataset",
    capacity: int = 2048,
    n_parts: int = 64,
) -> "ray.data.Dataset":
    """Packing over a precomputed (doc_id, shard, n_tokens) meta dataset —
    the entry point for pipelines that already tokenized (e.g. curation
    flows that need the counts for filtering anyway).

    ``meta`` is materialized here because both phases consume it — without
    that, the upstream tokenize/filter pipeline would execute twice. The
    meta projection is 24 B/doc (~2 % of a text corpus), object-store
    backed and spillable.
    """
    meta = meta.materialize()
    # Phase 1: per-shard token totals (small hash aggregate), exclusive
    # scan on the driver — one int64 per shard, never corpus-sized.
    totals = meta.groupby("shard").sum("n_tokens").take_all()
    shards = sorted(r["shard"] for r in totals)
    sums = {r["shard"]: r["sum(n_tokens)"] for r in totals}
    base: dict[int, int] = {}
    acc = 0
    for s in shards:
        base[s] = acc
        acc += int(sums[s])
    base_ref = ray.put(base)

    # Phase 2: per-shard vectorized kernel over coarse partitions.
    cap = np.int64(capacity)

    def _pack_partition(df: pd.DataFrame) -> pa.Table:
        df = df.sort_values("doc_id", kind="mergesort")
        shard_base = df["shard"].map(ray.get(base_ref)).to_numpy(np.int64)
        intra = (
            df.groupby("shard", sort=False)["n_tokens"].cumsum().to_numpy(np.int64)
            - df["n_tokens"].to_numpy(np.int64)
        )
        off = shard_base + intra
        n = df["n_tokens"].to_numpy(np.int64)
        first = off // cap
        last = (off + np.maximum(n - 1, 0)) // cap
        return pa.table(
            {
                "doc_id": pa.array(df["doc_id"].to_numpy(np.int64)),
                "shard": pa.array(df["shard"].to_numpy(np.int64)),
                "n_tokens": pa.array(n),
                "global_offset": pa.array(off),
                "first_bin": pa.array(first),
                "last_bin": pa.array(last),
                "offset_in_bin": pa.array(off % cap),
            }
        )

    return shuffle_by(meta, "shard", _pack_partition, n_parts)


def sliding_token_windows(
    docs: "ray.data.Dataset",
    window: int = 32,
    stride: int = 16,
    text_col: str = "text",
    id_col: str = "doc_id",
) -> "ray.data.Dataset":
    """→ (doc_id, win_idx, start_tok, n_tokens, window_text): overlapping
    fixed-size context windows per document — the LM-eval striding rule
    (window starts at every multiple of ``stride`` while it is < the
    doc's token count; the last windows may be short, nothing padded).
    The alternative to `pack_sequences` when documents must NOT be
    concatenated across boundaries (eval sets, retrieval corpora,
    long-doc SFT).

    Pure ``map_batches`` fan-out — zero shuffles, streams at any scale;
    output size is ~``window/stride`` × the token stream, the caller's
    knob. Tokenization is the `token_stats` whitespace rule so the SQL
    mirror (``regexp_split_to_array`` + ``range(0, len, stride)`` +
    ``list_slice``) reproduces every window byte-for-byte.
    """

    def kern(batch: pa.Table) -> pa.Table:
        texts = batch[text_col].to_pandas().fillna("")
        ids = batch[id_col].cast(pa.int64()).to_numpy(zero_copy_only=False)
        out_id, out_w, out_s, out_n, out_t = [], [], [], [], []
        for i, t in enumerate(texts):
            toks = t.split()
            n = len(toks)
            for w_idx, s in enumerate(range(0, n, stride)):
                piece = toks[s:s + window]
                out_id.append(ids[i])
                out_w.append(w_idx)
                out_s.append(s)
                out_n.append(len(piece))
                out_t.append(" ".join(piece))
        return pa.table(
            {
                "doc_id": pa.array(out_id, type=pa.int64()),
                "win_idx": pa.array(out_w, type=pa.int64()),
                "start_tok": pa.array(out_s, type=pa.int64()),
                "n_tokens": pa.array(out_n, type=pa.int64()),
                "window_text": pa.array(out_t, type=pa.string()),
            }
        )

    return docs.map_batches(kern, batch_format="pyarrow")


def bpe_train(
    docs: "ray.data.Dataset",
    n_merges: int = 16,
    text_col: str = "text",
    n_parts: int = 32,
) -> "ray.data.Dataset":
    """BPE merge-table TRAINING over the corpus — the tokenizer-training
    inner loop (the GPT-2/HF algorithm, industrial shape: ONE distributed
    word-frequency pass over the corpus, then the merge loop runs over
    the weighted vocabulary — exactly how HF `tokenizers` and
    SentencePiece train; the corpus is never re-scanned per merge).
    → (rank, left, right, n): the learned merges in order, each with the
    weighted pair count that won its round. Ties break lexicographically
    on (left, right) bytes — no RNG, bit-stable across parallelism.
    `left`/`right` are latin-1-decoded byte strings (lossless for any
    byte sequence). Feed them to ``ByteBPETokenizer`` as
    ``[(l.encode('latin-1'), r.encode('latin-1')), ...]``.

    Scale shape: the corpus pass is the term_counts combiner (map-side
    word counts, one coarse ``hash(word) % P`` shuffle); the vocabulary
    (distinct whitespace tokens + counts) is catalog-sized next to a TB
    corpus — the decontaminate/gazetteer broadcast contract — and the
    merge loop is O(vocab) per round with incremental pair-count updates.
    """
    import pandas as pd

    def wc_partial(df: "pd.DataFrame") -> "pd.DataFrame":
        words = (
            df[text_col].astype("string").fillna("")
            .str.strip().str.split(r"\s+", regex=True).explode()
        )
        words = words[words.notna() & (words != "")]
        g = words.value_counts().rename_axis("word").reset_index(name="n")
        g["n"] = g["n"].astype(np.int64)
        return g

    def wc_combine(df: "pd.DataFrame") -> "pd.DataFrame":
        g = df.groupby("word", as_index=False)["n"].sum()
        g["n"] = g["n"].astype(np.int64)
        return g[["word", "n"]]

    vocab_rows = shuffle_by(
        docs.map_batches(wc_partial, batch_format="pandas"), "word", wc_combine, n_parts
    )
    words: list[str] = []
    freqs: list[int] = []
    for b in vocab_rows.iter_batches(batch_size=None, batch_format="pandas"):
        words.extend(b["word"].tolist())
        freqs.extend(b["n"].tolist())

    # ---- vocab-local merge loop (pure function of the count table) ----
    symseqs = [tuple(bytes([c]) for c in w.encode("utf-8")) for w in words]
    pair_counts: dict[tuple[bytes, bytes], int] = {}
    pair_words: dict[tuple[bytes, bytes], set[int]] = {}
    for wi, seq in enumerate(symseqs):
        f = freqs[wi]
        for a, b in zip(seq, seq[1:]):
            pair_counts[(a, b)] = pair_counts.get((a, b), 0) + f
            pair_words.setdefault((a, b), set()).add(wi)

    merges: list[tuple[bytes, bytes, int]] = []
    for _ in range(n_merges):
        if not pair_counts:
            break
        best = min(
            pair_counts.items(), key=lambda kv: (-kv[1], kv[0][0], kv[0][1])
        )
        (la, rb), cnt = best
        if cnt <= 0:
            break
        merges.append((la, rb, cnt))
        merged = la + rb
        for wi in list(pair_words.get((la, rb), ())):
            seq = symseqs[wi]
            f = freqs[wi]
            # remove this word's contribution to all its pairs
            for p in zip(seq, seq[1:]):
                pair_counts[p] -= f
                if pair_counts[p] <= 0:
                    pair_counts.pop(p, None)
                ws = pair_words.get(p)
                if ws is not None:
                    ws.discard(wi)
                    if not ws:
                        pair_words.pop(p, None)
            # apply the merge greedily left-to-right
            out = []
            i = 0
            while i < len(seq):
                if i + 1 < len(seq) and seq[i] == la and seq[i + 1] == rb:
                    out.append(merged)
                    i += 2
                else:
                    out.append(seq[i])
                    i += 1
            seq = tuple(out)
            symseqs[wi] = seq
            for p in zip(seq, seq[1:]):
                pair_counts[p] = pair_counts.get(p, 0) + f
                pair_words.setdefault(p, set()).add(wi)

    import ray.data as _rd

    return _rd.from_arrow(pa.table({
        "rank": pa.array(np.arange(len(merges), dtype=np.int64)),
        "left": pa.array(
            [m[0].decode("latin-1") for m in merges], type=pa.string()
        ),
        "right": pa.array(
            [m[1].decode("latin-1") for m in merges], type=pa.string()
        ),
        "n": pa.array(np.asarray([m[2] for m in merges], dtype=np.int64)),
    }))
