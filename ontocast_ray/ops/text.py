"""Text analysis ops for large-scale training-data pipelines.

All stages are vectorized ``map_batches`` transforms (pandas/numpy string
kernels — no per-row Python in the hot path; word-level work is one
pandas C call per batch, per-language scores fall out of explode +
isin + bincount). Each op has a ``queries()`` entry; token/quality/lang-id
also have DuckDB oracles that must match bit-for-bit — every ratio is a
raw int/int → float64 IEEE division, never rounded.
"""

from __future__ import annotations

import re

import numpy as np
import pandas as pd
import pyarrow as pa

from ontocast_ray.ops.shuffle import shuffle_by

# BPE-ish tokenizer: words / numbers / punctuation runs (GPT-2-style coarse split)
_BPEISH = re.compile(r"[A-Za-z]+|\d+|[^\sA-Za-z\d]")
_WS = re.compile(r"\s+")

_STOPWORDS = {
    "en": {"the", "and", "of", "to", "a", "in", "is", "that", "it", "for", "on", "with", "as"},
    "de": {"der", "die", "das", "und", "ist", "von", "mit", "ein", "eine", "zu", "den", "für"},
    "fr": {"le", "la", "les", "et", "de", "un", "une", "est", "pour", "dans", "que", "des"},
    "es": {"el", "la", "los", "las", "y", "de", "un", "una", "es", "por", "que", "con"},
}


def _explode_words(words: pd.Series) -> tuple[np.ndarray, np.ndarray]:
    """list-of-words Series → (row index, word) flat arrays (vectorized)."""
    ex = words.reset_index(drop=True).explode()
    valid = ex.notna().to_numpy()
    return ex.index.to_numpy()[valid].astype(np.int64), ex.to_numpy()[valid]


def _stopword_counts(idx: np.ndarray, vals: np.ndarray, stopwords, n: int) -> np.ndarray:
    if len(vals) == 0:
        return np.zeros(n, dtype=np.int64)
    mask = pd.Series(vals).isin(list(stopwords)).to_numpy()
    return np.bincount(idx[mask], minlength=n).astype(np.int64)


def token_stats(batch: pa.Table) -> pa.Table:
    """(doc_id, n_tokens_ws, n_tokens_bpeish) — whitespace + BPE-ish counts."""
    texts = batch["text"].to_pandas().fillna("")
    stripped = texts.str.strip()
    n_ws = stripped.str.split().str.len().fillna(0).astype("int64")
    n_bpe = texts.str.count(_BPEISH).astype("int64")
    return pa.table(
        {
            "doc_id": batch["doc_id"],
            "n_tokens_ws": pa.array(n_ws, type=pa.int64()),
            "n_tokens_bpeish": pa.array(n_bpe, type=pa.int64()),
        }
    )


def quality_stats(batch: pa.Table) -> pa.Table:
    """Length / punctuation / alpha / stopword-ratio quality signals."""
    texts = batch["text"].to_pandas().fillna("")
    n = len(texts)
    n_chars = texts.str.len().astype("int64")
    n_alpha = texts.str.count(r"[A-Za-z]").astype("int64")
    n_punct = texts.str.count(r"[^\w\s]").astype("int64")
    n_digit = texts.str.count(r"\d").astype("int64")
    words = texts.str.lower().str.findall(r"[a-z]+")
    n_words = words.str.len().astype("int64")
    idx, vals = _explode_words(words)
    n_stop = _stopword_counts(idx, vals, _STOPWORDS["en"], n)
    denom_c = n_chars.replace(0, 1)
    denom_w = n_words.replace(0, 1)
    # no rounding: int/int → float64 division is IEEE-identical to the SQL
    # oracle, while round() differs (banker's vs half-up) on exact ties
    alpha_ratio = n_alpha / denom_c
    punct_ratio = n_punct / denom_c
    digit_ratio = n_digit / denom_c
    stop_ratio = n_stop / denom_w.to_numpy()
    return pa.table(
        {
            "doc_id": batch["doc_id"],
            "n_chars": pa.array(n_chars, type=pa.int64()),
            "n_words": pa.array(n_words, type=pa.int64()),
            "alpha_ratio": pa.array(alpha_ratio, type=pa.float64()),
            "punct_ratio": pa.array(punct_ratio, type=pa.float64()),
            "digit_ratio": pa.array(digit_ratio, type=pa.float64()),
            "stopword_ratio": pa.array(stop_ratio, type=pa.float64()),
        }
    )


class LangId:
    """Stopword-ratio language heuristic. Map with an instance
    (``map_batches(LangId())``): the stopword profiles and the compiled
    regex ship with the task.

    Vectorized: one findall pass, one explode, one isin+bincount per
    language; strict-> argmax keeps the en,de,fr,es tie priority the DuckDB
    oracle mirrors (np.argmax returns the FIRST maximum).
    """

    LANGS = ("en", "de", "fr", "es")

    def __init__(self):
        self.profiles = {lang: _STOPWORDS[lang] for lang in self.LANGS}
        self.word_re = re.compile(r"[a-zà-ÿäöüß]+")

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = batch["text"].to_pandas().fillna("")
        n = len(texts)
        words = texts.str.lower().str.findall(self.word_re)
        counts = words.str.len().to_numpy().astype(np.int64)
        denom = np.maximum(counts, 1)
        idx, vals = _explode_words(words)
        scores = np.zeros((len(self.LANGS), n), dtype=np.float64)
        for li, lang in enumerate(self.LANGS):
            scores[li] = _stopword_counts(idx, vals, self.profiles[lang], n) / denom
        best_i = scores.argmax(axis=0)  # first max wins on ties
        best = scores[best_i, np.arange(n)]
        langs = np.where(
            best > 0.02, np.asarray(self.LANGS, dtype=object)[best_i], "unknown"
        )
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "lang_pred": pa.array(langs, type=pa.string()),
                # raw IEEE division — matches the SQL oracle bit-for-bit
                "lang_score": pa.array(best, type=pa.float64()),
            }
        )


def fingerprint(batch: pa.Table, window: int = 8) -> pa.Table:
    """Winnowing-style document fingerprint: rolling hash over word 4-grams,
    min-sampled per window, xor-folded to one stable 63-bit id.

    Word hashing is ONE ``pd.util.hash_array`` call per batch; 4-gram hashes
    are an FNV fold of sliding word-hash slices (no gram strings built)."""
    from ontocast_ray.ops.dedup import _FNV_OFFSET0, _FNV_PRIME0, _word_hashes_batch

    texts = batch["text"].to_pylist()
    word_hashes, ranges, empty = _word_hashes_batch(texts)
    out = np.empty(len(texts), dtype=np.uint64)
    with np.errstate(over="ignore"):
        for i, (s, e) in enumerate(ranges):
            if empty[i]:
                wh = np.zeros(1, dtype=np.uint64)
            else:
                wh = word_hashes[s:e]
            n_words = len(wh)
            if n_words < 4:  # one gram over all words
                h = _FNV_OFFSET0
                for j in range(n_words):
                    h = (h ^ wh[j]) * _FNV_PRIME0
                grams = np.array([h], dtype=np.uint64)
            else:
                m = n_words - 3
                grams = np.full(m, _FNV_OFFSET0, dtype=np.uint64)
                for j in range(4):
                    grams = (grams ^ wh[j:j + m]) * _FNV_PRIME0
            if len(grams) >= window:
                view = np.lib.stride_tricks.sliding_window_view(grams, window)
                mins = view.min(axis=1)
            else:
                mins = grams
            uniq = np.unique(mins)
            shifts = (np.arange(len(uniq), dtype=np.uint64) % np.uint64(32))
            out[i] = np.bitwise_xor.reduce(uniq << shifts)
    return pa.table(
        {
            "doc_id": batch["doc_id"],
            "fingerprint": pa.array(
                (out & np.uint64(0x7FFFFFFFFFFFFFFF)).view(np.int64)
            ),
        }
    )


def term_counts(docs, top_n: int = 50):
    """Global top-N term frequencies — the canonical pre-aggregate shape.

    Each batch counts its own terms FIRST (map-side combiner), so the
    groupby shuffles (term, partial_count) rows — vocabulary-sized — never
    the exploded word stream. Final top-N via sort+limit on the tiny
    aggregated table.
    """
    import pyarrow as pa
    from ray.data.aggregate import Sum

    def partial(batch: pa.Table) -> pa.Table:
        texts = batch["text"].to_pandas().fillna("")
        words = texts.str.lower().str.findall(r"[a-z]+")
        _, vals = _explode_words(words)
        if len(vals) == 0:
            return pa.table({"term": pa.array([], type=pa.string()),
                             "n": pa.array([], type=pa.int64())})
        counts = pd.Series(vals).value_counts()
        return pa.table(
            {"term": pa.array(counts.index.to_numpy(), type=pa.string()),
             "n": pa.array(counts.to_numpy(), type=pa.int64())}
        )

    agg = (
        docs.map_batches(partial, batch_format="pyarrow")
        .groupby("term")
        .aggregate(Sum("n", alias_name="n_count"))
    )
    return agg.sort(["n_count", "term"], descending=[True, False]).limit(top_n)


def deterministic_sample(docs, pct: int, id_col: str = "doc_id"):
    """Deterministic modular-hash sample: keep rows where
    (id * 2654435761) % 2^32 < pct% of 2^32 — a pure map any SQL engine can
    mirror exactly (no RNG state, resumable, cluster-size independent)."""
    import numpy as np
    import pyarrow as pa

    threshold = np.uint64((1 << 32) * pct // 100)

    def keep(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.uint64)
        with np.errstate(over="ignore"):
            h = (ids * np.uint64(2654435761)) % np.uint64(1 << 32)
        return batch.filter(pa.array(h < threshold))

    return docs.map_batches(keep, batch_format="pyarrow")


def stratified_sample(
    docs,
    group_col: str,
    n: int,
    id_col: str = "doc_id",
    seed: int = 13,
    n_parts: int = 64,
):
    """Deterministic stratified sample: the ``n`` rows per group with the
    smallest ``splitmix64(seed, id)`` — an exact per-group uniform draw
    with no RNG state, identical at any cluster size and resumable.

    Scale shape: reuses ``topk_per_group`` (per-batch partial top-n
    combiner → the shuffle moves at most n rows per (group, batch), never
    the corpus). Output = input columns + ``rank`` (1-based within group,
    by draw order); the ``u`` draw column is dropped.
    """
    import numpy as np

    from ontocast_ray.ops.interleave import splitmix64
    from ontocast_ray.ops.rank import topk_per_group

    def add_u(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.uint64)
        u = splitmix64(ids, seed=seed).astype(np.float64) / float(2**64)
        return batch.append_column("u", pa.array(u))

    ranked = topk_per_group(
        docs.map_batches(add_u, batch_format="pyarrow"),
        group_col=group_col,
        order_col="u",
        k=n,
        tiebreak_col=id_col,
        descending=False,
        n_parts=n_parts,
    )
    return ranked.drop_columns(["u"])


def repetition_stats(batch: pa.Table) -> pa.Table:
    """Gopher-style repetition signals per document (Rae et al. 2021 §A1.1,
    the standard web-corpus quality rules): duplicate-line fraction and the
    most-frequent-word-2-gram fraction. Pure-map (one batch in, one batch
    out, no shuffle); the heavy lifting is pandas explode + groupby C ops
    over the whole batch at once — no per-document Python loop.

    Columns: (doc_id, n_lines, dup_line_frac, n_bigrams, top_2gram_frac).
    Docs with no non-empty lines → n_lines 0, dup_line_frac 0.0; docs with
    < 2 words → n_bigrams 0, top_2gram_frac 0.0. Tokenization matches
    token_stats / the SQL oracle: lower, strip, split on whitespace."""
    n = len(batch)
    texts = batch["text"].to_pandas().fillna("")

    # --- duplicate-line fraction -------------------------------------------
    lines = texts.str.split("\n").explode().str.strip()
    lines = lines[lines != ""]
    if len(lines):
        grp = lines.groupby(level=0)
        n_lines_s = grp.size()
        n_distinct_s = grp.nunique()
    else:
        n_lines_s = pd.Series([], dtype="int64")
        n_distinct_s = pd.Series([], dtype="int64")
    idx = np.arange(n)
    n_lines = n_lines_s.reindex(idx, fill_value=0).to_numpy(dtype=np.int64)
    n_distinct = n_distinct_s.reindex(idx, fill_value=0).to_numpy(dtype=np.int64)
    dup_line_frac = np.zeros(n, dtype=np.float64)
    has = n_lines > 0
    dup_line_frac[has] = 1.0 - n_distinct[has] / n_lines[has]

    # --- top word-2-gram fraction ------------------------------------------
    words = texts.str.strip().str.lower().str.split()
    ex = words.explode().dropna()
    if len(ex):
        doc_idx = ex.index.to_numpy()
        nxt = ex.groupby(level=0).shift(-1)
        pair_mask = nxt.notna().to_numpy()
        # positional concat (fresh default indices) — Series `+` would align
        # on the duplicated doc index and cross-join
        left = pd.Series(ex.to_numpy()[pair_mask])
        right = pd.Series(nxt.to_numpy()[pair_mask])
        pairs = pd.DataFrame(
            {
                "doc": doc_idx[pair_mask],
                "bg": left.str.cat(right, sep=" ").to_numpy(),
            }
        )
        counts = pairs.groupby(["doc", "bg"], sort=False).size()
        per_doc = counts.groupby(level=0)
        top_s = per_doc.max()
        tot_s = per_doc.sum()
    else:
        top_s = pd.Series([], dtype="int64")
        tot_s = pd.Series([], dtype="int64")
    n_bigrams = tot_s.reindex(idx, fill_value=0).to_numpy(dtype=np.int64)
    top_c = top_s.reindex(idx, fill_value=0).to_numpy(dtype=np.int64)
    top_frac = np.zeros(n, dtype=np.float64)
    hasb = n_bigrams > 0
    top_frac[hasb] = top_c[hasb] / n_bigrams[hasb]

    return pa.table(
        {
            "doc_id": batch["doc_id"],
            "n_lines": pa.array(n_lines, type=pa.int64()),
            "dup_line_frac": pa.array(dup_line_frac, type=pa.float64()),
            "n_bigrams": pa.array(n_bigrams, type=pa.int64()),
            "top_2gram_frac": pa.array(top_frac, type=pa.float64()),
        }
    )


# PII scrubbing rules, applied IN ORDER (each pattern counts + replaces on
# the output of the previous rule).  Patterns are deliberately restricted to
# the syntax subset where Python ``re`` and DuckDB's RE2 agree (no
# backreferences / lookaround; ASCII classes only — ``\d`` differs on
# Unicode digits between the engines, so ``[0-9]`` is spelled out).
_PII_RULES: tuple[tuple[str, str, str], ...] = (
    ("email", r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z][A-Za-z]+", "<EMAIL>"),
    ("ip", r"\b[0-9]{1,3}\.[0-9]{1,3}\.[0-9]{1,3}\.[0-9]{1,3}\b", "<IP>"),
    ("phone", r"\+[0-9][0-9 \-]{7,}[0-9]", "<PHONE>"),
)


def pii_scrub(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Redact emails / IPv4 addresses / international phone numbers.

    Pure-map (no shuffle): one vectorized ``Series.str.count`` +
    ``Series.str.replace`` pass per rule per batch — no per-row Python.
    Counts are taken on the text state each rule actually sees (i.e. after
    the previous rule's replacement), which is what the chained
    ``regexp_replace`` SQL oracle computes too.

    Columns: (doc_id, n_email, n_ip, n_phone, clean_text).
    """
    texts = batch[text_col].to_pandas().fillna("")
    out: dict = {"doc_id": batch["doc_id"]}
    for name, pat, repl in _PII_RULES:
        out[f"n_{name}"] = pa.array(
            texts.str.count(pat).astype("int64"), type=pa.int64()
        )
        texts = texts.str.replace(pat, repl, regex=True)
    out["clean_text"] = pa.array(texts, type=pa.string())
    return pa.table(out)


def term_cooccurrence(
    docs,
    window: int = 5,
    min_count: int = 2,
    top_n: int = 100,
):
    """Top-N co-occurring term pairs within a token window (PMI-style
    counting, counts only — exact integers, no floats to disagree on).

    A pair is (least(wᵢ,wⱼ), greatest(wᵢ,wⱼ)) for every i<j ≤ i+window
    WITHIN a document. The batch kernel is fully vectorized across doc
    boundaries: all docs' tokens are flattened into one array with a
    parallel doc-index array, and each window offset d is a single
    shifted-compare — pairs straddling two docs are masked out by the
    doc-index inequality, never generated row by row.

    Scale shape: the kernel is a map-side COMBINER (per-batch pair
    value_counts), so the one groupby shuffles (pair, partial_count)
    rows — pair-vocabulary-sized, not the exploded pair stream.
    min_count is applied AFTER the global sum (it cannot prune partials
    without undercounting); at web scale cap the pair vocabulary
    upstream (stopword removal / doc-frequency floor) before this op.
    """
    import pyarrow as pa
    from ray.data.aggregate import Sum

    empty = pa.table(
        {
            "term_a": pa.array([], type=pa.string()),
            "term_b": pa.array([], type=pa.string()),
            "n": pa.array([], type=pa.int64()),
        }
    )

    def partial(batch: pa.Table) -> pa.Table:
        texts = batch["text"].to_pandas().fillna("")
        words = texts.str.lower().str.findall(r"[a-z]+")
        idx, vals = _explode_words(words)
        if len(vals) < 2:
            return empty
        a_all, b_all = [], []
        for d in range(1, window + 1):
            if d >= len(vals):
                break
            same_doc = idx[:-d] == idx[d:]
            a_all.append(vals[:-d][same_doc])
            b_all.append(vals[d:][same_doc])
        if not a_all:
            return empty
        x = np.concatenate(a_all)
        y = np.concatenate(b_all)
        lo = np.minimum(x, y)
        hi = np.maximum(x, y)
        counts = pd.DataFrame({"term_a": lo, "term_b": hi}).value_counts()
        ix = counts.index.to_frame(index=False)
        return pa.table(
            {
                "term_a": pa.array(ix["term_a"].to_numpy(), type=pa.string()),
                "term_b": pa.array(ix["term_b"].to_numpy(), type=pa.string()),
                "n": pa.array(counts.to_numpy(), type=pa.int64()),
            }
        )

    agg = (
        docs.map_batches(partial, batch_format="pyarrow")
        .groupby(["term_a", "term_b"])
        .aggregate(Sum("n", alias_name="n_count"))
    )
    def keep_min_count(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return b.filter(pc.greater_equal(b["n_count"], min_count))

    filtered = agg.map_batches(keep_min_count, batch_format="pyarrow")
    return filtered.sort(
        ["n_count", "term_a", "term_b"], descending=[True, False, False]
    ).limit(top_n)


def top_terms_per_group(
    docs,
    group_col: str = "source",
    k: int = 5,
    text_col: str = "text",
    n_parts: int = 64,
):
    """→ (group, term, n_count, rank): the k most frequent terms per group
    (per-domain vocabulary profile — the corpus-drift signal between
    sources). Combiner-first: each batch counts its own (group, term)
    pairs, ONE coarse hash(group⊕term) shuffle sums exact counts, then
    ``topk_per_group`` selects k per group moving at most k rows per
    (group, block). Tokenization = lower + [a-z]+ (the term_counts rule),
    rank order = (count desc, term asc)."""
    from ontocast_ray.ops.rank import topk_per_group

    def partial(batch: pa.Table) -> pa.Table:
        df = pa.table(
            {group_col: batch[group_col], text_col: batch[text_col]}
        ).to_pandas()
        words = df[text_col].fillna("").str.lower().str.findall(r"[a-z]+")
        long = df[[group_col]].join(words.rename("term")).explode("term")
        long = long.dropna(subset=["term"])
        if not len(long):
            return pa.table(
                {group_col: pa.array([], type=batch[group_col].type),
                 "term": pa.array([], type=pa.string()),
                 "n": pa.array([], type=pa.int64())}
            )
        counts = (
            long.groupby([group_col, "term"], sort=False).size().reset_index(name="n")
        )
        return pa.Table.from_pandas(counts, preserve_index=False)

    def merge(df):
        return (
            df.groupby([group_col, "term"], sort=False)["n"].sum()
            .reset_index(name="n_count")
        )

    counted = shuffle_by(
        docs.map_batches(partial, batch_format="pyarrow"),
        [group_col, "term"],
        merge,
        n_parts,
    )
    return topk_per_group(
        counted, group_col=group_col, order_col="n_count", k=k,
        tiebreak_col="term", descending=True, n_parts=n_parts,
    )


# --- hashed-feature linear quality classifier ------------------------------

_FNV64_OFFSET = np.uint64(14695981039346656037)
_FNV64_PRIME = np.uint64(1099511628211)

# Fixture model: a fastText-style linear scorer's marker vocabulary with
# INTEGER weights (fluency markers positive, spam markers negative). Integer
# weights make the per-doc dot product EXACT in int64 — no float-order
# dependence between numpy and SQL — with one identically-associated double
# divide at the end. Deterministic: no RNG, no network, no training run.
_QUALITY_MARKERS: dict[str, int] = {
    # English fluency / editorial markers
    "the": 2, "and": 2, "of": 2, "to": 2, "in": 2, "a": 1, "is": 1,
    "that": 1, "for": 1, "with": 1, "was": 1, "which": 1, "however": 3,
    "therefore": 3, "although": 3, "because": 2, "between": 2,
    "analysis": 3, "research": 3, "study": 3, "results": 2, "evidence": 3,
    # spam / boilerplate markers
    "click": -4, "free": -3, "buy": -3, "subscribe": -3, "win": -4,
    "cash": -4, "casino": -6, "viagra": -8, "lottery": -6, "prize": -4,
    "congratulations": -5, "offer": -3, "discount": -3, "cheap": -3,
    "guarantee": -3, "unsubscribe": -4, "http": -2, "www": -2, "com": -1,
}


def fnv1a_words(words: np.ndarray) -> np.ndarray:
    """FNV-1a 64 of each word's UTF-8 bytes — the feature hash. Loops
    unique words only (a batch's vocabulary, not its token stream); the
    exact same fold is re-derived in pure SQL (list_reduce over ascii
    codes with the HUGEINT wrapping multiply), so bucket collisions are
    CONSISTENT across engines."""
    out = np.empty(len(words), dtype=np.uint64)
    with np.errstate(over="ignore"):
        for i, w in enumerate(words):
            h = _FNV64_OFFSET
            for b in w.encode("utf-8"):
                h = (h ^ np.uint64(b)) * _FNV64_PRIME
            out[i] = h
    return out


def quality_weights(
    n_features: int = 1 << 20, markers: dict[str, int] | None = None
) -> np.ndarray:
    """Dense int64 weight vector via the hashing trick: each marker word's
    weight lands at ``fnv1a(word) % n_features``. Raises if two markers
    collide (fixture invariant — checked, not assumed)."""
    markers = _QUALITY_MARKERS if markers is None else markers
    w = np.zeros(n_features, dtype=np.int64)
    words = list(markers)
    buckets = fnv1a_words(np.asarray(words, dtype=object)) % np.uint64(n_features)
    if len(np.unique(buckets)) != len(words):
        raise ValueError("marker vocabulary collides in the feature space")
    for word, b in zip(words, buckets):
        w[int(b)] = markers[word]
    return w


def quality_classifier_score(
    docs: "ray.data.Dataset",
    weights: np.ndarray | None = None,
    n_features: int = 1 << 20,
    text_col: str = "text",
    id_col: str = "doc_id",
    extra_cols: tuple = (),
) -> "ray.data.Dataset":
    """→ (id_col, n_tokens, raw_score, score, keep): fastText-style linear
    quality scoring over hashed bag-of-words features — the
    classifier-gate curation step (CCNet/DataComp quality filters).

    score = Σ_tokens w[fnv1a(token) % F] / n_tokens (0 when no tokens);
    keep = raw_score > 0. The weight vector is broadcast ONCE (``ray.put``,
    read per task — 8 MiB at F=2²⁰, never reshipped per batch); scoring is
    a pure vectorized map: one findall + one explode per batch, FNV over
    the batch's UNIQUE words only, ``np.bincount`` folds the token stream.
    Zero shuffles, parallelism-invariant, exact SQL mirror (integer dot
    product + one double divide). Tokenization = lower + ``[a-z]+`` (the
    term_counts rule)."""
    import ray

    if weights is None:
        weights = quality_weights(n_features)
    n_features = len(weights)
    w_ref = ray.put(np.ascontiguousarray(weights, dtype=np.int64))

    def _score(batch: pa.Table) -> pa.Table:
        w = ray.get(w_ref)
        texts = batch[text_col].to_pandas().fillna("")
        words = texts.str.lower().str.findall(r"[a-z]+")
        idx, vals = _explode_words(words)
        n = len(batch)
        n_tok = np.bincount(idx, minlength=n).astype(np.int64) if len(idx) else np.zeros(n, np.int64)
        raw = np.zeros(n, dtype=np.int64)
        if len(vals):
            uniq, inv = np.unique(vals, return_inverse=True)
            buckets = fnv1a_words(uniq) % np.uint64(n_features)
            tok_w = w[buckets.astype(np.int64)][inv]
            np.add.at(raw, idx, tok_w)
        score = np.zeros(n, dtype=np.float64)
        nz = n_tok > 0
        score[nz] = raw[nz].astype(np.float64) / n_tok[nz].astype(np.float64)
        cols = {
            id_col: batch[id_col],
            "n_tokens": pa.array(n_tok),
            "raw_score": pa.array(raw),
            "score": pa.array(score),
            "keep": pa.array(raw > 0),
        }
        for c in extra_cols:  # pass-through (e.g. lang for bucketing)
            cols[c] = batch[c]
        return pa.table(cols)

    return docs.map_batches(_score, batch_format="pyarrow")


# --- bigram-coverage LM gate ------------------------------------------------


def bigram_coverage(
    docs: "ray.data.Dataset",
    min_count: int = 3,
    n_parts: int = 64,
    text_col: str = "text",
    id_col: str = "doc_id",
) -> "ray.data.Dataset":
    """→ (doc_id, n_bigrams, n_covered, coverage): integer-exact
    LM-coverage quality gate — the CCNet-perplexity-filter shape without
    a trained LM. A document's ``coverage`` is the fraction of its word
    bigrams (with multiplicity) whose CORPUS-WIDE occurrence count is
    ≥ ``min_count``; fluent in-distribution text scores high, gibberish
    and OCR noise score low (their bigrams are corpus-rare).

    Scale shape (100 TB audit): NO broadcast, NO driver collection — the
    frequent-bigram set never materializes anywhere. Two coarse shuffles:
    stage A partitions on ``bigram_hash % P`` so each hash's GLOBAL count
    is computable inside one part (pandas transform), flipping rows to
    per-doc partials; stage B sums partials on ``hash(doc_id) % P``. Rows
    shuffled are per-(doc, bigram) pre-combined multiplicities, never the
    token stream. All counts are int64; the single ``covered / total``
    divide is the only float op (IEEE-identical to the SQL mirror).

    Tokenization is the dedup rule (lower + whitespace split,
    `_word_hashes_batch`); a doc with < 2 words emits a zero sentinel so
    it still appears in the output with coverage 0.0.
    """
    from ontocast_ray.ops.dedup import (
        _FNV_OFFSET0,
        _FNV_PRIME0,
        _word_hashes_batch,
    )

    def bigram_rows(batch: pa.Table) -> pa.Table:
        texts = batch[text_col].to_pylist()
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        wh, ranges, _empty = _word_hashes_batch(texts)
        doc_col, bh_col, mult_col = [], [], []
        for i, (s, e) in enumerate(ranges):
            nw = e - s
            if nw < 2:
                doc_col.append(np.array([ids[i]], dtype=np.int64))
                bh_col.append(np.zeros(1, dtype=np.uint64))
                mult_col.append(np.zeros(1, dtype=np.int64))
                continue
            with np.errstate(over="ignore"):
                h = (_FNV_OFFSET0 ^ wh[s:e - 1]) * _FNV_PRIME0
                h = (h ^ wh[s + 1:e]) * _FNV_PRIME0
            ub, mult = np.unique(h, return_counts=True)
            doc_col.append(np.full(len(ub), ids[i], dtype=np.int64))
            bh_col.append(ub)
            mult_col.append(mult.astype(np.int64))
        doc = np.concatenate(doc_col) if doc_col else np.zeros(0, np.int64)
        bh = np.concatenate(bh_col) if bh_col else np.zeros(0, np.uint64)
        mult = np.concatenate(mult_col) if mult_col else np.zeros(0, np.int64)
        return pa.table(
            {
                "doc_id": pa.array(doc),
                "bh": pa.array(bh.view(np.int64)),  # bit reinterpret, sign ok
                "mult": pa.array(mult),
            }
        )

    def count_part(df):
        # all rows of a bigram hash are in this part -> transform is the
        # GLOBAL count; mult=0 sentinels never clear min_count >= 1
        tot = df.groupby("bh")["mult"].transform("sum")
        nc = np.where(tot.to_numpy() >= min_count, df["mult"].to_numpy(), 0)
        out = (
            df.assign(nc=nc)
            .groupby("doc_id", as_index=False)
            .agg(n_bigrams=("mult", "sum"), n_covered=("nc", "sum"))
        )
        return out

    partials = shuffle_by(
        docs.map_batches(bigram_rows, batch_format="pyarrow"), "bh", count_part, n_parts
    )

    def sum_doc(df):
        g = (
            df.groupby("doc_id", as_index=False)[["n_bigrams", "n_covered"]]
            .sum()
        )
        nb = g["n_bigrams"].to_numpy()
        nc = g["n_covered"].to_numpy()
        cov = np.zeros(len(g), dtype=np.float64)
        nz = nb > 0
        cov[nz] = nc[nz].astype(np.float64) / nb[nz].astype(np.float64)
        g["coverage"] = cov
        return g

    return shuffle_by(partials, "doc_id", sum_doc, n_parts)


def diversity_stats(batch: pa.Table) -> pa.Table:
    """→ (doc_id, n_tokens, n_distinct, ttr, n_trigrams,
    n_distinct_trigrams, distinct_trigram_frac): lexical-diversity
    quality signals — type-token ratio and the distinct-trigram fraction
    (the inverse of Gopher's repetition signals: LOW diversity flags
    boilerplate/spam even when no single n-gram dominates).

    Pure vectorized map (numpy unique per doc over the shared
    word-hash explode), zero shuffles. Integer counts; the two divides
    are the only float ops (IEEE-identical to the SQL
    ``list_distinct``/``list_transform`` mirror). Tokenization is the
    dedup rule (lower + whitespace split). Docs with < 3 tokens have 0
    trigrams and distinct_trigram_frac 0.0; empty docs get ttr 0.0.
    """
    from ontocast_ray.ops.dedup import (
        _FNV_OFFSET0,
        _FNV_PRIME0,
        _word_hashes_batch,
    )

    texts = batch["text"].to_pylist()
    ids = batch["doc_id"].to_numpy(zero_copy_only=False)
    n_tok = np.zeros(len(texts), dtype=np.int64)
    n_dis = np.zeros(len(texts), dtype=np.int64)
    n_tri = np.zeros(len(texts), dtype=np.int64)
    n_dtri = np.zeros(len(texts), dtype=np.int64)
    wh, ranges, _empty = _word_hashes_batch(texts)
    for i, (s, e) in enumerate(ranges):
        n = e - s
        n_tok[i] = n
        if n == 0:
            continue
        n_dis[i] = len(np.unique(wh[s:e]))
        if n >= 3:
            with np.errstate(over="ignore"):
                h = (_FNV_OFFSET0 ^ wh[s:e - 2]) * _FNV_PRIME0
                h = (h ^ wh[s + 1:e - 1]) * _FNV_PRIME0
                h = (h ^ wh[s + 2:e]) * _FNV_PRIME0
            n_tri[i] = n - 2
            n_dtri[i] = len(np.unique(h))
    ttr = np.where(n_tok > 0, n_dis / np.maximum(n_tok, 1), 0.0)
    tfrac = np.where(n_tri > 0, n_dtri / np.maximum(n_tri, 1), 0.0)
    return pa.table(
        {
            "doc_id": pa.array(ids.astype(np.int64)),
            "n_tokens": pa.array(n_tok),
            "n_distinct": pa.array(n_dis),
            "ttr": pa.array(ttr),
            "n_trigrams": pa.array(n_tri),
            "n_distinct_trigrams": pa.array(n_dtri),
            "distinct_trigram_frac": pa.array(tfrac),
        }
    )


def doc_keywords(
    docs: "ray.data.Dataset",
    k: int = 3,
    id_col: str = "doc_id",
    text_col: str = "text",
    n_parts: int = 64,
) -> "ray.data.Dataset":
    """→ (doc_id, term, tf, df, rank≤k): per-document keywords by the
    TF-IDF ORDER without TF-IDF's float log — rank terms by (tf DESC,
    df ASC, term ASC). log(N/df) is monotone-decreasing in df, so for a
    FIXED doc the ranking by (tf, -df) agrees with tf·idf whenever tf
    ties break by rarity — and it is integer-exact, so the SQL mirror
    matches bit-for-bit (a float tf·log(N/df) score would drift in the
    last ulp between libm implementations).

    Shape: per-batch (doc, term, tf) combiners (term strings shuffle
    once, pre-compressed per doc); DF = per-term distinct-doc counts on
    a term-hash shuffle of the SAME rows; one partitioned join back on
    term; final per-doc top-k inside a coarse ``hash(doc) % P`` kernel
    (sort + groupby.head — no per-doc Python). Tokenization is the
    term-counts rule (``[a-z]+`` on lowered text).
    """
    from ontocast_ray.ops.joins import hash_join

    def tf_rows(batch: pa.Table) -> pa.Table:
        texts = pd.Series(batch[text_col].to_pandas()).fillna("")
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        words = texts.str.lower().str.findall(r"[a-z]+")
        idx, vals = _explode_words(words)
        if len(vals) == 0:
            return pa.table({id_col: pa.array([], type=pa.int64()),
                             "term": pa.array([], type=pa.string()),
                             "tf": pa.array([], type=pa.int64())})
        df = pd.DataFrame({id_col: ids[idx], "term": vals})
        g = df.groupby([id_col, "term"], as_index=False).size()
        return pa.table(
            {
                id_col: pa.array(g[id_col].to_numpy().astype(np.int64)),
                "term": pa.array(g["term"].to_numpy().astype(object)),
                "tf": pa.array(g["size"].to_numpy().astype(np.int64)),
            }
        )

    tf = docs.map_batches(tf_rows, batch_format="pyarrow").materialize()

    def df_partial(df_: "pd.DataFrame") -> "pd.DataFrame":
        vc = df_["term"].value_counts()  # rows are (doc, term)-distinct
        return pd.DataFrame({"term": vc.index.to_numpy(),
                             "n": vc.to_numpy().astype(np.int64)})

    def df_final(g: "pd.DataFrame") -> "pd.DataFrame":
        out = g.groupby("term", as_index=False)["n"].sum()
        return out.rename(columns={"n": "df"})

    dfreq = shuffle_by(
        tf.map_batches(df_partial, batch_format="pandas"), "term", df_final, n_parts
    )

    joined = hash_join(
        tf, dfreq,
        left_on="term", right_on="term",
        left_cols=[id_col, "tf"], right_cols=["df"],
        n_parts=n_parts,
    )

    def topk(group: "pd.DataFrame") -> "pd.DataFrame":
        g = group.sort_values(
            [id_col, "tf", "df", "term"],
            ascending=[True, False, True, True],
            kind="mergesort",
        )
        g = g.groupby(id_col, sort=False).head(k).copy()
        g["rank"] = g.groupby(id_col, sort=False).cumcount() + 1
        return g[[id_col, "term", "tf", "df", "rank"]].astype(
            {id_col: np.int64, "tf": np.int64, "df": np.int64,
             "rank": np.int64}
        )

    return shuffle_by(joined, id_col, topk, n_parts)


# the 8-word Gopher "stop word" presence rule (Rae et al. 2021 §A1.1):
# a document must contain at least 2 of these to survive
_GOPHER_STOPS = ("the", "be", "to", "of", "and", "that", "have", "with")


def gopher_quality_filter(
    batch: pa.Table,
    min_words: int = 50,
    max_words: int = 100_000,
    min_mean_word_len: float = 3.0,
    max_mean_word_len: float = 10.0,
    max_dup_line_frac: float = 0.30,
    max_top_2gram_frac: float = 0.20,
    min_stop_hits: int = 2,
) -> pa.Table:
    """The full Gopher quality rule set (Rae et al. 2021 §A1.1) as ONE
    pure-map gate: word-count bounds, mean-word-length bounds, duplicate-
    line fraction, top-bigram fraction, and the ≥2-stopword presence rule.
    → (doc_id, n_words, mean_word_len, dup_line_frac, top_2gram_frac,
    stop_hits, kept). Repetition signals reuse ``repetition_stats``'s
    vectorized kernels; word stats are the same lower/strip/whitespace
    split the SQL oracle mirrors. All ratios are raw int/int IEEE
    divisions — bit-identical to the oracle (no round())."""
    rep = repetition_stats(batch)
    n = len(batch)
    texts = batch["text"].to_pandas().fillna("")
    words = texts.str.strip().str.lower().str.split()
    n_words = words.str.len().fillna(0).to_numpy(dtype=np.int64)
    # ''.split() → [] so empty docs are 0 both here and via the SQL guard;
    # one explode + vectorized str.len / isin over the whole batch — no
    # per-row Python
    ex = words.explode().dropna()
    idx = ex.index.to_numpy(dtype=np.int64)
    wlen = ex.str.len().to_numpy(dtype=np.int64)
    char_sum = np.bincount(idx, weights=wlen, minlength=n).astype(np.int64)
    denom = np.maximum(n_words, 1)
    mean_word_len = char_sum / denom
    stop_hits = np.bincount(
        idx[ex.isin(_GOPHER_STOPS).to_numpy()], minlength=n
    ).astype(np.int64)
    dup_line_frac = rep["dup_line_frac"].to_numpy()
    top_2gram_frac = rep["top_2gram_frac"].to_numpy()
    kept = (
        (n_words >= min_words)
        & (n_words <= max_words)
        & (mean_word_len >= min_mean_word_len)
        & (mean_word_len <= max_mean_word_len)
        & (dup_line_frac <= max_dup_line_frac)
        & (top_2gram_frac <= max_top_2gram_frac)
        & (stop_hits >= min_stop_hits)
    )
    return pa.table(
        {
            "doc_id": batch["doc_id"],
            "n_words": pa.array(n_words, type=pa.int64()),
            "mean_word_len": pa.array(mean_word_len, type=pa.float64()),
            "dup_line_frac": pa.array(dup_line_frac, type=pa.float64()),
            "top_2gram_frac": pa.array(top_2gram_frac, type=pa.float64()),
            "stop_hits": pa.array(stop_hits, type=pa.int64()),
            "kept": pa.array(kept, type=pa.bool_()),
        }
    )


def gazetteer_mentions(
    docs: "ray.data.Dataset",
    aliases: "list[tuple[int, str]]",
    text_col: str = "text",
    id_col: str = "doc_id",
    n_parts: int | None = None,
) -> "ray.data.Dataset":
    """Dictionary-based entity linking (gazetteer NER — the first stage of
    KG entity linking): count exact alias mentions (1- or 2-token, on the
    ``[a-z]+`` lower token stream) of each catalog entity across the
    corpus. → (entity_id, alias, n_mentions, n_docs).

    The gazetteer is broadcast-small by definition (entity catalogs are
    MBs against a TB corpus — the `decontaminate` contract): shipped once
    in the task closure, probed with vectorized ``Series.map`` over the
    batch's unique uni/bigrams. One coarse combiner shuffle carries
    per-block (entity, doc, count) partials — match-sized, never tokens.
    Overlaps are counted independently per n-gram occurrence (aliases are
    assumed distinct strings; a 2-token alias does not suppress a 1-token
    alias inside it — the rule the SQL oracle mirrors with two joins).
    """
    import pandas as pd

    from ontocast_ray.ops.shuffle import resolve_n_parts

    n_parts = resolve_n_parts(docs, n_parts)
    uni = {a: e for e, a in aliases if " " not in a}
    bi = {a: e for e, a in aliases if a.count(" ") == 1}
    if len(uni) + len(bi) != len(aliases):
        raise ValueError("aliases must be 1 or 2 tokens")

    def partial(batch: pa.Table) -> pa.Table:
        texts = batch[text_col].to_pandas().fillna("")
        ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        words = texts.str.lower().str.findall(r"[a-z]+")
        idx, vals = _explode_words(words)
        frames = []
        if len(vals):
            doc = ids[idx]
            if uni:
                sv = pd.Series(vals)
                ent = sv.map(uni)
                m = ent.notna().to_numpy()
                frames.append(pd.DataFrame({
                    "entity_id": ent.to_numpy()[m].astype(np.int64),
                    "alias": sv.to_numpy()[m],
                    id_col: doc[m],
                }))
            if bi and len(vals) > 1:
                same = idx[1:] == idx[:-1]
                bg = pd.Series(vals[:-1][same]) + " " + pd.Series(
                    vals[1:][same]
                )
                ent = bg.map(bi)
                m = ent.notna().to_numpy()
                frames.append(pd.DataFrame({
                    "entity_id": ent.to_numpy()[m].astype(np.int64),
                    "alias": bg.to_numpy()[m],
                    id_col: doc[:-1][same][m] if m.any() else
                            np.zeros(0, dtype=np.int64),
                }))
        if not frames:
            return pa.table({
                "entity_id": pa.array([], type=pa.int64()),
                "alias": pa.array([], type=pa.string()),
                id_col: pa.array([], type=pa.int64()),
                "n": pa.array([], type=pa.int64()),
            })
        # per-(entity, ALIAS) rows: an entity with several aliases keeps
        # one report row per alias (mention counts never conflated)
        g = (
            pd.concat(frames, ignore_index=True)
            .groupby(["entity_id", "alias", id_col], as_index=False)
            .size()
            .rename(columns={"size": "n"})
        )
        return pa.table({
            "entity_id": pa.array(g["entity_id"].to_numpy(dtype=np.int64)),
            "alias": pa.array(g["alias"].to_numpy(), type=pa.string()),
            id_col: pa.array(g[id_col].to_numpy(dtype=np.int64)),
            "n": pa.array(g["n"].to_numpy(dtype=np.int64)),
        })

    def combine(df: "pd.DataFrame") -> "pd.DataFrame":
        g = df.groupby(["entity_id", "alias"], as_index=False).agg(
            n_mentions=("n", "sum"), n_docs=(id_col, "nunique")
        )
        return g[["entity_id", "alias", "n_mentions", "n_docs"]].astype(
            {"n_mentions": np.int64, "n_docs": np.int64}
        )

    return shuffle_by(
        docs.map_batches(partial, batch_format="pyarrow"), "entity_id", combine, n_parts
    )


def entity_comention_edges(
    docs: "ray.data.Dataset",
    aliases: "list[tuple[int, str]]",
    text_col: str = "text",
    id_col: str = "doc_id",
    n_parts: int | None = None,
) -> "ray.data.Dataset":
    """Entity co-mention graph construction — the KG edge-CANDIDATE
    generator that feeds relation extraction: for every document, the
    DISTINCT set of gazetteer entities mentioned (same 1/2-token
    matching as `gazetteer_mentions`); every unordered entity pair
    co-mentioned in a document adds one to that edge.
    → (entity_a, entity_b, n_docs).

    Scale shape: matching and per-doc pair expansion are map-side (one
    vectorized self-merge per block over the distinct (doc, entity)
    rows — fan-out bounded by per-doc entity count²); one coarse
    ``hash(pair) % P`` combiner shuffle carries (pair, partial count)
    rows only. Gazetteer broadcast-small as in `gazetteer_mentions`.
    """
    import pandas as pd

    from ontocast_ray.ops.shuffle import resolve_n_parts

    n_parts = resolve_n_parts(docs, n_parts)
    uni = {a: e for e, a in aliases if " " not in a}
    bi = {a: e for e, a in aliases if a.count(" ") == 1}
    if len(uni) + len(bi) != len(aliases):
        raise ValueError("aliases must be 1 or 2 tokens")

    def partial(batch: pa.Table) -> pa.Table:
        texts = batch[text_col].to_pandas().fillna("")
        ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        words = texts.str.lower().str.findall(r"[a-z]+")
        idx, vals = _explode_words(words)
        frames = []
        if len(vals):
            doc = ids[idx]
            if uni:
                ent = pd.Series(vals).map(uni)
                m = ent.notna().to_numpy()
                frames.append(pd.DataFrame({
                    "ent": ent.to_numpy()[m].astype(np.int64),
                    id_col: doc[m],
                }))
            if bi and len(vals) > 1:
                same = idx[1:] == idx[:-1]
                bg = pd.Series(vals[:-1][same]) + " " + pd.Series(
                    vals[1:][same]
                )
                ent = bg.map(bi)
                m = ent.notna().to_numpy()
                frames.append(pd.DataFrame({
                    "ent": ent.to_numpy()[m].astype(np.int64),
                    id_col: doc[:-1][same][m] if m.any() else
                            np.zeros(0, dtype=np.int64),
                }))
        empty = pa.table({
            "entity_a": pa.array([], type=pa.int64()),
            "entity_b": pa.array([], type=pa.int64()),
            "n": pa.array([], type=pa.int64()),
        })
        if not frames:
            return empty
        de = pd.concat(frames, ignore_index=True).drop_duplicates()
        m2 = de.merge(de, on=id_col, suffixes=("_a", "_b"))
        m2 = m2[m2["ent_a"] < m2["ent_b"]]
        if not len(m2):
            return empty
        g = m2.groupby(["ent_a", "ent_b"], as_index=False).size()
        return pa.table({
            "entity_a": pa.array(g["ent_a"].to_numpy(dtype=np.int64)),
            "entity_b": pa.array(g["ent_b"].to_numpy(dtype=np.int64)),
            "n": pa.array(g["size"].to_numpy(dtype=np.int64)),
        })

    def combine(df: "pd.DataFrame") -> "pd.DataFrame":
        g = df.groupby(["entity_a", "entity_b"], as_index=False)["n"].sum()
        g = g.rename(columns={"n": "n_docs"})
        g["n_docs"] = g["n_docs"].astype(np.int64)
        return g

    return shuffle_by(
        docs.map_batches(partial, batch_format="pyarrow"),
        ["entity_a", "entity_b"],
        combine,
        n_parts,
    )


def vocab_coverage(
    docs: "ray.data.Dataset",
    ks: tuple = (100, 1_000, 10_000),
    text_col: str = "text",
    n_parts: int | None = None,
) -> pa.Table:
    """Vocabulary coverage curve — the tokenizer-design / dataset-card
    statistic: what share of the corpus token mass the k most frequent
    terms cover, for each k. → pa.Table (k, covered_tokens, total_tokens,
    coverage), rank ties broken by term (the SQL ROW_NUMBER order).

    Scale shape: per-block term value_counts (map-side combiner — the
    wire carries vocabulary-sized (term, n) partials, never tokens) →
    coarse ``hash(term) % P`` sum → one distributed sort DESC limited to
    max(ks) rows (bounded driver collection); the total token count
    folds from per-partition scalar sums. No full-vocabulary collection
    anywhere.
    """
    from ontocast_ray.ops.shuffle import resolve_n_parts

    n_parts = resolve_n_parts(docs, n_parts)

    def partial(batch: pa.Table) -> pa.Table:
        texts = batch[text_col].to_pandas().fillna("")
        words = texts.str.lower().str.findall(r"[a-z]+")
        _, vals = _explode_words(words)
        if len(vals) == 0:
            return pa.table({
                "term": pa.array([], type=pa.string()),
                "n": pa.array([], type=pa.int64()),
            })
        counts = pd.Series(vals).value_counts()
        return pa.table({
            "term": pa.array(counts.index.to_numpy(), type=pa.string()),
            "n": pa.array(counts.to_numpy(dtype=np.int64)),
        })

    def combine(df: "pd.DataFrame") -> "pd.DataFrame":
        g = df.groupby("term", as_index=False)["n"].sum()
        g["n"] = g["n"].astype(np.int64)
        return g

    vocab = shuffle_by(
        docs.map_batches(partial, batch_format="pyarrow"), "term", combine, n_parts
    ).materialize()  # consumed twice: top-k sort + total fold

    def _sums(batch: pa.Table) -> pa.Table:
        return pa.table({
            "s": pa.array(
                [batch["n"].to_numpy(zero_copy_only=False).sum()],
                type=pa.int64(),
            )
        })

    total = sum(
        r["s"] for r in vocab.map_batches(_sums, batch_format="pyarrow")
        .take_all()
    )
    kmax = max(ks)
    top = (
        vocab.sort(["n", "term"], descending=[True, False])
        .limit(kmax)
        .take_all()
    )
    top_n = np.array([r["n"] for r in top], dtype=np.int64)
    cum = np.concatenate(([0], np.cumsum(top_n)))
    rows_k, rows_cov = [], []
    for k in ks:
        rows_k.append(int(k))
        rows_cov.append(int(cum[min(k, len(top_n))]))
    return pa.table({
        "k": pa.array(np.asarray(rows_k, dtype=np.int64)),
        "covered_tokens": pa.array(np.asarray(rows_cov, dtype=np.int64)),
        "total_tokens": pa.array(
            np.full(len(ks), total, dtype=np.int64)
        ),
        "coverage": pa.array(
            np.asarray(rows_cov, dtype=np.float64) / np.float64(total)
        ),
    })


def compression_stats(batch: pa.Table, level: int = 6) -> pa.Table:
    """→ (doc_id, n_bytes, n_zlib, ratio_ppm): zlib-compressibility — the
    classic repetition/boilerplate quality signal (highly compressible
    text is template spam; near-incompressible text is often binary
    junk; both tails get filtered in Gopher-style gates).

    Pure map, zero shuffles. The per-doc ``zlib.compress`` is one C call
    dispatched from a thin loop (compression is inherently per-blob —
    there is no vectorized kernel to miss). ``ratio_ppm`` is fixed-point
    ``n_zlib·10⁶ // n_bytes`` so the value set is integer-exact;
    determinism contract: zlib output length is a pure function of
    (bytes, level) for the pinned container zlib — the golden regen
    path, not live SQL, gates it.
    """
    import zlib

    texts = batch["text"].to_pylist()
    ids = batch["doc_id"].to_numpy(zero_copy_only=False)
    raw = [(t or "").encode("utf-8") for t in texts]
    nb = np.fromiter((len(b) for b in raw), dtype=np.int64, count=len(raw))
    nz = np.fromiter(
        (len(zlib.compress(b, level)) for b in raw),
        dtype=np.int64, count=len(raw),
    )
    ratio = (nz * np.int64(1_000_000)) // np.maximum(nb, 1)
    return pa.table({
        "doc_id": pa.array(ids.astype(np.int64)),
        "n_bytes": pa.array(nb),
        "n_zlib": pa.array(nz),
        "ratio_ppm": pa.array(ratio),
    })


# Fixed codepoint ranges (inclusive) — written explicitly, NOT \p{Script},
# so the numpy kernel and the SQL RE2 oracle use the IDENTICAL table and
# cannot drift with a unicodedata version bump.
_SCRIPT_RANGES = {
    "latin": ((0x41, 0x5A), (0x61, 0x7A), (0xC0, 0x24F)),
    "cyrillic": ((0x400, 0x4FF),),
    "greek": ((0x370, 0x3FF),),
    "han": ((0x4E00, 0x9FFF),),
}
_SCRIPT_PRIORITY = ("latin", "cyrillic", "greek", "han")


def script_profile(batch: pa.Table, text_col: str = "text",
                   id_col: str = "doc_id") -> pa.Table:
    """Unicode-script character profile per document — the signal behind
    script-based language routing (CCNet buckets by script before lang-ID;
    mixed-script spam is a standard web-crawl reject). → (id_col,
    n_latin, n_cyrillic, n_greek, n_han, main_script) where counts use the
    fixed ``_SCRIPT_RANGES`` codepoint table and ``main_script`` is the
    argmax with ties broken by latin>cyrillic>greek>han priority ('none'
    when all are zero).

    Pure map, zero shuffle. Kernel: one utf-32 decode per doc, then
    vectorized range masks (one searchsorted per script over the corpus
    of codepoints in the batch) — no per-character Python.
    """
    texts = batch[text_col].to_pylist()
    n = len(texts)
    counts = {s: np.zeros(n, dtype=np.int64) for s in _SCRIPT_PRIORITY}
    # flatten the batch to ONE codepoint array + row offsets
    bufs = [(t or "").encode("utf-32-le") for t in texts]
    lens = np.fromiter((len(b) // 4 for b in bufs), dtype=np.int64, count=n)
    if lens.sum():
        cps = np.frombuffer(b"".join(bufs), dtype=np.uint32)
        row = np.repeat(np.arange(n), lens)
        for script, ranges in _SCRIPT_RANGES.items():
            mask = np.zeros(len(cps), dtype=bool)
            for lo, hi in ranges:
                mask |= (cps >= lo) & (cps <= hi)
            counts[script] = np.bincount(row[mask], minlength=n).astype(np.int64)
    mat = np.stack([counts[s] for s in _SCRIPT_PRIORITY], axis=1)
    best = mat.argmax(axis=1)  # argmax takes the FIRST max → priority order
    names = np.array(_SCRIPT_PRIORITY, dtype=object)[best]
    names[mat.max(axis=1) == 0] = "none"
    return pa.table({
        id_col: batch[id_col],
        "n_latin": pa.array(counts["latin"]),
        "n_cyrillic": pa.array(counts["cyrillic"]),
        "n_greek": pa.array(counts["greek"]),
        "n_han": pa.array(counts["han"]),
        "main_script": pa.array(names, type=pa.string()),
    })


def mention_contexts(
    docs: "ray.data.Dataset",
    terms: "list[str] | set[str]",
    window: int = 2,
    text_col: str = "text",
    id_col: str = "doc_id",
) -> "ray.data.Dataset":
    """Entity-linker training-window construction (the step after gazetteer
    matching in every EL stack — BLINK/GENRE train on exactly this shape):
    for every occurrence of a catalog term in the ``[a-z]+`` lower token
    stream, emit the ±``window``-token context. → (id_col, pos, term,
    context) with ``pos`` the 1-based token position and ``context`` the
    tokens ``[pos-window, pos+window]`` (clamped) joined by single spaces.

    Pure map, zero shuffle; the term set is broadcast in the task closure
    (entity catalogs are MBs vs TB corpora). Tokenization + matching are
    vectorized (explode + isin); only the MATCHES — sparse by definition —
    are sliced in Python, so the per-row loop is match-sized, not
    corpus-sized.
    """
    term_set = frozenset(terms)
    w = int(window)

    def kern(batch: pa.Table) -> pa.Table:
        texts = batch[text_col].to_pandas().fillna("")
        ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        words = texts.str.lower().str.findall(r"[a-z]+")
        lens = words.str.len().to_numpy().astype(np.int64)
        idx, vals = _explode_words(words)
        out = {"doc_id": [], "pos": [], "term": [], "context": []}
        if len(vals):
            starts = np.cumsum(lens) - lens  # flat offset of each row
            pos = np.arange(len(vals), dtype=np.int64) - starts[idx] + 1
            hit = pd.Series(vals).isin(term_set).to_numpy()
            wl = words.to_numpy()
            for j in np.flatnonzero(hit):
                r = idx[j]
                p = int(pos[j])
                toks = wl[r]
                ctx = toks[max(0, p - 1 - w): min(len(toks), p + w)]
                out["doc_id"].append(ids[r])
                out["pos"].append(p)
                out["term"].append(vals[j])
                out["context"].append(" ".join(ctx))
        return pa.table({
            id_col: pa.array(np.asarray(out["doc_id"], dtype=np.int64)),
            "pos": pa.array(np.asarray(out["pos"], dtype=np.int64)),
            "term": pa.array(out["term"], type=pa.string()),
            "context": pa.array(out["context"], type=pa.string()),
        })

    return docs.map_batches(kern, batch_format="pyarrow")
