"""End-to-end WEB-crawl curation: URL dedup → domain blocklist →
HTML→text extraction → quality gate → exact content dedup → sequence
packing — the full RefinedWeb/CCNet front-half composed from the repo's
individual ops, kept as ONE streaming Dataset pipeline whose every stage
is SQL-expressible (so the whole chain is verified end-to-end by a single
chained oracle, not just per-op).

Execution shape at 100 TB:

- URL dedup + blocklist run BEFORE the body is parsed: the URL string is
  tiny, so the corpus shrinks before the expensive stages (the reason
  production stacks order it this way).
- The URL-dedup verdicts come back as per-row flags (`url_dedup_flags` —
  the shuffle carries URL strings only) and are applied with
  `apply_keep_list`'s Bloom path: pages that miss the dropped-ids bitmap
  pass through MAP-SIDE, so only the dropped fraction of page bodies
  ever crosses a wire — never the corpus.
- HTML extraction and the quality gate are pure maps; exact dedup is the
  coarse-combiner shape (per-block (sha, min id, tok) rows through one
  ``hash(sha) % P`` shuffle — Ray's native fine-key groupby measured
  10-30× slower here); packing reuses `pack_token_meta`'s two-phase
  ordered prefix sum.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa

import ray.data

from ontocast_ray.ops.curation import html_extract_text
from ontocast_ray.ops.graph_cc import apply_keep_list
from ontocast_ray.ops.packing import pack_token_meta
from ontocast_ray.ops.shuffle import shuffle_by
from ontocast_ray.ops.urls import filter_blocked_domains, url_dedup_flags


def curate_web_corpus(
    pages: "ray.data.Dataset",
    blocked_domains: "set[str] | frozenset[str]",
    min_alpha_ratio: float = 0.6,
    capacity: int = 2048,
    shard_span: int = 65_536,
    n_parts: int = 64,
) -> "ray.data.Dataset":
    """pages (doc_id, url, html) → packed-sequence placements (doc_id,
    shard, n_tokens, global_offset, first_bin, last_bin, offset_in_bin)
    of the curated corpus."""
    # consumed twice (flag pass reads urls, keep pass reads bodies)
    pages = pages.materialize()
    flags = url_dedup_flags(
        pages.select_columns(["doc_id", "url"]), n_parts=n_parts
    )
    kept = apply_keep_list(pages, flags, n_parts=n_parts)
    unblocked = filter_blocked_domains(kept, blocked_domains, url_col="url")
    texts = html_extract_text(
        unblocked, html_col="html", out_col="text"
    ).select_columns(["doc_id", "text"])

    def gate_meta(batch: pa.Table) -> pa.Table:
        import pandas as pd

        s = pd.Series(batch["text"].to_pandas()).fillna("")
        n_chars = s.str.len().to_numpy().astype(np.int64)
        n_alpha = s.str.count(r"[A-Za-z]").to_numpy().astype(np.int64)
        keep = (n_alpha / np.maximum(n_chars, 1)) >= min_alpha_ratio
        kept_s = s[keep]
        n_tok = (
            kept_s.str.strip().str.split().str.len().fillna(0).astype("int64")
        )
        shas = [hashlib.sha256(t.encode()).hexdigest()[:32] for t in kept_s]
        return pa.table(
            {
                "doc_id": batch["doc_id"].filter(pa.array(keep)),
                "text_sha": pa.array(shas, type=pa.string()),
                "n_tokens": pa.array(n_tok.to_numpy(), type=pa.int64()),
            }
        )

    meta = texts.map_batches(gate_meta, batch_format="pyarrow")
    span = np.int64(shard_span)

    # exact dedup, coarse-combiner shape: one (sha, min id, tok) row per
    # distinct sha per block crosses the wire, never per occurrence
    def sha_partial(df):
        return df.groupby("text_sha", as_index=False).agg(
            doc_id=("doc_id", "min"), n_tokens=("n_tokens", "min")
        )

    def sha_final(df):
        g = df.groupby("text_sha", as_index=False).agg(
            doc_id=("doc_id", "min"), n_tokens=("n_tokens", "min")
        )
        ids = g["doc_id"].to_numpy()
        return pa.table(
            {
                "doc_id": pa.array(ids),
                "shard": pa.array(ids // span),
                "n_tokens": pa.array(g["n_tokens"].to_numpy()),
            }
        )

    dedup_meta = shuffle_by(
        meta.map_batches(sha_partial, batch_format="pandas"), "text_sha", sha_final, n_parts
    )
    return pack_token_meta(dedup_meta, capacity=capacity, n_parts=n_parts)
