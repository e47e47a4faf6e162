"""Corpus n-gram language-model scoring — the CCNet/RedPajama-style
"perplexity filter" signal, in exact integer arithmetic.

Real curation stacks train a small LM on a reference corpus and keep
documents whose perplexity falls in a target band (CCNet §4.3,
RedPajama-v2 quality signals). The float log-prob is engine-dependent,
so this op scores with an integer likelihood proxy instead: each bigram
occurrence contributes ``(c(w1,w2) * scale) // c(w1)`` — the ML
conditional probability in fixed-point — and a document's score is the
sum over its bigram stream. Bit-exact across engines and re-derivable
in plain SQL (the oracle trains the same counts with UNNEST + joins).

Scale shape (no broadcast, no driver-side model):
- pass 1 extracts per-batch ``(doc_id, w1, w2, n_occ)`` partials with an
  in-kernel pandas groupby (map-side combine);
- ONE coarse ``hash(w1) % P`` shuffle co-locates every ``(w1, *)`` row,
  so the kernel derives BOTH the global bigram counts c(w1,w2) and the
  left-context totals c(w1) locally and scores in place — the trained
  model never materializes as a driver-side object (contrast with the
  broadcast-weights classifier in ops/text.py: here vocab is unbounded);
- one final coarse ``hash(doc_id) % P`` shuffle sums per-doc partials.

Self-scoring (model trained on the scored corpus itself) is the default;
to score against a reference corpus, pass ``model_docs``.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

import ray.data

from ontocast_ray.ops.shuffle import shuffle_by

__all__ = ["bigram_lm_scores"]

_TOKEN_RE = r"[a-z]+"  # the engine-wide term_counts tokenization rule


def _bigram_partials(text_col: str, id_col: str):
    def kern(df: "pd.DataFrame") -> "pd.DataFrame":
        df = df.reset_index(drop=True)
        toks = df[text_col].fillna("").str.lower().str.findall(_TOKEN_RE)
        lens = toks.str.len().to_numpy(np.int64)
        flat = toks.explode()
        flat = flat[flat.notna()]
        if len(flat) == 0:
            return _empty_partial(id_col)
        words = flat.to_numpy()
        doc_ids = df[id_col].to_numpy()[flat.index.to_numpy()]
        # bigram (i, i+1) pairs that do not cross document boundaries:
        # position j starts a bigram iff j+1 is not the first token of
        # the next doc — i.e. j is not the last token of its doc.
        ends = np.cumsum(lens[lens > 0]) - 1
        keep = np.ones(len(words), dtype=bool)
        keep[ends] = False  # doc-final tokens (incl. global last) start none
        idx = np.nonzero(keep)[0]
        if len(idx) == 0:
            return _empty_partial(id_col)
        part = pd.DataFrame({
            id_col: doc_ids[idx],
            "w1": words[idx],
            "w2": words[idx + 1],
        })
        g = part.groupby([id_col, "w1", "w2"], as_index=False).size()
        g = g.rename(columns={"size": "n_occ"})
        g["n_occ"] = g["n_occ"].astype(np.int64)
        return g

    return kern


def _empty_partial(id_col: str) -> "pd.DataFrame":
    return pd.DataFrame({
        id_col: pd.Series([], dtype="int64"),
        "w1": pd.Series([], dtype=object),
        "w2": pd.Series([], dtype=object),
        "n_occ": pd.Series([], dtype="int64"),
    })


def bigram_lm_scores(
    docs: "ray.data.Dataset",
    text_col: str = "text",
    id_col: str = "doc_id",
    scale: int = 1_000_000,
    model_docs: "ray.data.Dataset | None" = None,
) -> "ray.data.Dataset":
    """→ (doc_id, n_bigrams, lm_score, lm_avg): integer self-likelihood
    of every document under the corpus bigram model.

    ``lm_score = Σ over the doc's bigram stream of
    (c(w1,w2) * scale) // c(w1)`` with counts trained on ``model_docs``
    (default: the scored corpus itself). ``lm_avg = lm_score //
    n_bigrams``. Docs with fewer than 2 tokens are absent (no bigrams).
    High avg ⇒ repetitive/boilerplate-predictable text; low avg ⇒ novel
    text — the band-filter signal.
    """
    partials = docs.map_batches(
        _bigram_partials(text_col, id_col), batch_format="pandas"
    )
    if model_docs is not None:
        model_partials = model_docs.map_batches(
            _bigram_partials(text_col, id_col),
            batch_format="pandas",
        )
        # union-tag: model rows score nothing but contribute counts
        def tag(df: "pd.DataFrame", is_model: int) -> "pd.DataFrame":
            df = df.copy()
            df["is_model"] = np.int8(is_model)
            return df

        merged = partials.map_batches(
            lambda d: tag(d, 0), batch_format="pandas"
        ).union(
            model_partials.map_batches(
                lambda d: tag(d, 1), batch_format="pandas"
            )
        )
    else:
        merged = partials

    has_tag = model_docs is not None

    def score_kern(df: "pd.DataFrame") -> "pd.DataFrame":
        if has_tag:
            model_rows = df[df["is_model"] == 1]
            score_rows = df[df["is_model"] == 0]
        else:
            model_rows = score_rows = df
        c12 = model_rows.groupby(["w1", "w2"])["n_occ"].sum()
        c1 = model_rows.groupby("w1")["n_occ"].sum()
        sr = score_rows
        key = pd.MultiIndex.from_arrays([sr["w1"], sr["w2"]])
        n12 = c12.reindex(key).fillna(0).to_numpy(np.int64)
        n1 = c1.reindex(sr["w1"]).fillna(1).to_numpy(np.int64)
        per = (n12 * np.int64(scale)) // np.maximum(n1, 1)
        occ = sr["n_occ"].to_numpy(np.int64)
        out = pd.DataFrame({
            id_col: sr[id_col].to_numpy(),
            "contrib": per * occ,
            "n_bg": occ,
        })
        g = out.groupby(id_col, as_index=False)[["contrib", "n_bg"]].sum()
        g["contrib"] = g["contrib"].astype(np.int64)
        g["n_bg"] = g["n_bg"].astype(np.int64)
        return g

    scored = shuffle_by(merged, "w1", score_kern)

    def final_kern(df: "pd.DataFrame") -> "pd.DataFrame":
        g = df.groupby(id_col, as_index=False)[["contrib", "n_bg"]].sum()
        return pd.DataFrame({
            id_col: g[id_col],
            "n_bigrams": g["n_bg"].astype(np.int64),
            "lm_score": g["contrib"].astype(np.int64),
            "lm_avg": (
                g["contrib"].to_numpy(np.int64)
                // np.maximum(g["n_bg"].to_numpy(np.int64), 1)
            ),
        })

    return shuffle_by(scored, id_col, final_kern)


def fim_transform(
    docs: "ray.data.Dataset",
    seed: int = 7,
    text_col: str = "text",
    id_col: str = "doc_id",
    pre_tok: str = "<PRE>",
    suf_tok: str = "<SUF>",
    mid_tok: str = "<MID>",
) -> "ray.data.Dataset":
    """Fill-in-the-middle training transform (Bavarian et al. 2022, the
    code-LM pretraining op): split each document at two deterministic
    character offsets i ≤ j and emit the PSM reordering
    ``<PRE>prefix<SUF>suffix<MID>middle``. → (doc_id, n_chars, split_i,
    split_j, fim_text).

    Pure map, zero shuffles, zero RNG state: the split points are
    splitmix64(doc_id, seed) draws — parallelism- and epoch-invariant,
    re-derivable in SQL (substring + the splitmix HUGEINT mirror).
    Offsets are code-point positions (Python slicing ≡ DuckDB substring
    on non-surrogate text). The variable-position slice has no
    vectorized kernel anywhere (Arrow's utf8_slice takes scalars only);
    the per-row slice loop dispatches C string copies.
    """
    from ontocast_ray.ops.interleave import splitmix64

    def kern(df: "pd.DataFrame") -> "pd.DataFrame":
        df = df.reset_index(drop=True)
        texts = df[text_col].fillna("").tolist()
        ids = df[id_col].to_numpy(np.int64)
        lens = np.fromiter((len(t) for t in texts), dtype=np.int64,
                           count=len(texts))
        u = ids.astype(np.uint64)
        i = (splitmix64(u, seed) % (lens + 1).astype(np.uint64)).astype(
            np.int64
        )
        j = i + (
            splitmix64(u, seed + 1) % (lens - i + 1).astype(np.uint64)
        ).astype(np.int64)
        fim = [
            pre_tok + t[:a] + suf_tok + t[b:] + mid_tok + t[a:b]
            for t, a, b in zip(texts, i, j)
        ]
        return pd.DataFrame({
            id_col: ids,
            "n_chars": lens,
            "split_i": i,
            "split_j": j,
            "fim_text": fim,
        })

    return docs.map_batches(kern, batch_format="pandas")
