"""End-to-end training-corpus curation: language filter → quality filter →
exact dedup → sequence packing, composed from the repo's individual ops so
the whole flow stays a single streaming Dataset pipeline AND a single
chained SQL oracle (every stage is SQL-expressible, so the composition is
verified end-to-end, not just per-op).

Execution shape at 100 TB:

- Stage 1 is ONE fused pure-map batch kernel (language scores, alpha
  ratio, token count, 128-bit text hash) — the corpus text is read and
  tokenized exactly once, and non-surviving rows are dropped before
  anything shuffles.
- Stage 2 (exact dedup) shuffles only (text_sha, doc_id, n_tokens) — 48
  bytes/row, never the text — through one C-implemented hash aggregate.
- Stage 3 reuses ``pack_token_meta``'s two-phase ordered prefix sum
  (driver state: one int per shard).
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa

import ray.data

from ontocast_ray.ops.packing import pack_token_meta
from ontocast_ray.ops.text import _STOPWORDS, _explode_words, _stopword_counts


class CurationFilter:
    """Fused per-batch kernel: language-ID + quality signals + token count
    + content hash, emitting only surviving rows.

    Mirrors ``ops.text.LangId`` (same profiles, same strict > 0.02
    threshold, same en,de,fr,es first-max tie rule) and
    ``ops.text.quality_stats``'s alpha_ratio — the SQL oracle re-derives
    both with the same expressions.
    """

    LANGS = ("en", "de", "fr", "es")

    def __init__(self, lang: str = "en", min_alpha_ratio: float = 0.75):
        import re

        self.lang = lang
        self.min_alpha_ratio = min_alpha_ratio
        self.word_re = re.compile(r"[a-zà-ÿäöüß]+")
        self.profiles = {lng: _STOPWORDS[lng] for lng in self.LANGS}

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = batch["text"].to_pandas().fillna("")
        n = len(texts)
        words = texts.str.lower().str.findall(self.word_re)
        denom = np.maximum(words.str.len().to_numpy().astype(np.int64), 1)
        idx, vals = _explode_words(words)
        scores = np.zeros((len(self.LANGS), n), dtype=np.float64)
        for li, lng in enumerate(self.LANGS):
            scores[li] = _stopword_counts(idx, vals, self.profiles[lng], n) / denom
        best_i = scores.argmax(axis=0)  # first max wins on ties
        best = scores[best_i, np.arange(n)]
        lang_ok = (best > 0.02) & (
            best_i == self.LANGS.index(self.lang)
        )

        n_chars = texts.str.len().to_numpy().astype(np.int64)
        n_alpha = texts.str.count(r"[A-Za-z]").to_numpy().astype(np.int64)
        alpha_ratio = n_alpha / np.maximum(n_chars, 1)
        keep = lang_ok & (alpha_ratio >= self.min_alpha_ratio)

        kept = texts[keep]
        n_tok = (
            kept.str.strip().str.split().str.len().fillna(0).astype("int64")
        )
        shas = [
            hashlib.sha256(t.encode()).hexdigest()[:32] for t in kept
        ]
        return pa.table(
            {
                "doc_id": batch["doc_id"].filter(pa.array(keep)),
                "text_sha": pa.array(shas, type=pa.string()),
                "n_tokens": pa.array(n_tok.to_numpy(), type=pa.int64()),
            }
        )


def curate_corpus(
    docs: "ray.data.Dataset",
    lang: str = "en",
    min_alpha_ratio: float = 0.75,
    capacity: int = 2048,
    shard_span: int = 65_536,
    n_parts: int = 64,
) -> "ray.data.Dataset":
    """→ packed-sequence placements (doc_id, shard, n_tokens,
    global_offset, first_bin, last_bin, offset_in_bin) of the curated
    corpus: ``lang``-predicted docs with alpha_ratio ≥ threshold, exact
    duplicates collapsed to the min doc_id, packed at ``capacity``."""
    meta = docs.map_batches(CurationFilter(lang, min_alpha_ratio), batch_format="pyarrow")

    winners = meta.groupby("text_sha").min(["doc_id", "n_tokens"])

    span = np.int64(shard_span)

    def to_meta(batch: pa.Table) -> pa.Table:
        ids = batch["min(doc_id)"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "doc_id": pa.array(ids),
                "shard": pa.array(ids // span),
                # duplicates have identical text, hence identical counts —
                # min() is just "the winner's count"
                "n_tokens": batch["min(n_tokens)"],
            }
        )

    dedup_meta = winners.map_batches(to_meta, batch_format="pyarrow")
    return pack_token_meta(dedup_meta, capacity=capacity, n_parts=n_parts)
