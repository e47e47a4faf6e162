"""Data Selection via Importance Resampling (DSIR) — hashed n-gram
importance weights, integer-exact.

Implements the published DSIR recipe (Xie et al., "Data Selection for
Language Models via Importance Resampling", NeurIPS 2023): fit hashed
bag-of-words multinomials on a TARGET corpus (the high-quality reference,
e.g. wiki-like pages) and on the RAW corpus, weight every raw document by
its log-likelihood ratio under the two models, and keep the top fraction.

Differences from the paper, chosen for cross-engine exactness (the driver
hash-compares our output against an independent DuckDB re-derivation):

- The per-bucket log-ratio is QUANTIZED TO INTEGERS via base-2 bit-length:
  ``lam_b = bitlen(1 + (t_b << SB) // T) - bitlen(1 + (r_b << SB) // R)``
  where ``t_b / r_b`` are target/raw token counts for bucket ``b``,
  ``T / R`` the corpus token totals and ``SB`` a scale shift. ``bitlen``
  is ``int.bit_length`` — DuckDB computes the identical value as
  ``length(bin(x))`` — so every per-doc weight is an exact int64 sum
  with zero float-order dependence.
- Selection is deterministic top-k by ``(weight DESC, doc_id ASC)``
  instead of Gumbel-noise resampling; the splitmix64 noise column used
  elsewhere in this repo (``ops/interleave.py``) can be added by callers
  who want the paper's sampled variant.

Scale shape (100 TB audit):

- FIT is one map-side-combined pass: each batch emits its own sparse
  (bucket, t_cnt, r_cnt) partials, ONE coarse ``hash(bucket) % P`` shuffle sums
  them, and the driver collects at most ``n_features`` rows (a constant —
  2^16 by default, ~1.5 MB — independent of corpus size). The integer
  lambda table is built with Python ints (no overflow at any corpus size)
  and broadcast once via ``ray.put``.
- SCORE is a pure vectorized map (the ``quality_classifier_score`` kernel
  shape): one findall + explode per batch, FNV-1a over the batch's UNIQUE
  words only, ``np.add.at`` folds the token stream. Zero shuffles.
- SELECT is a distributed sort + limit over (doc_id, weight, n_tokens)
  rows — 24 bytes/doc, never the text. At extreme scale, replace the
  exact sort with a DDSketch weight-threshold (``ops/sketch.py``) and a
  pure-map filter; the exact path is the verifiable contract.

No counterpart in the reference repo (genericrobot77/ontocast has no
data-selection layer); this is part of the training-data operator
surface the brief mandates.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np
import pyarrow as pa

from ontocast_ray.ops.shuffle import shuffle_by
from ontocast_ray.ops.text import _explode_words, fnv1a_words

if TYPE_CHECKING:  # pragma: no cover
    import ray


_FIT_SCHEMA = pa.schema(
    [("bucket", pa.int64()), ("t_cnt", pa.int64()), ("r_cnt", pa.int64())]
)


def _tokenize(texts) -> "pd.Series":  # noqa: F821 - pandas via caller
    return texts.str.lower().str.findall(r"[a-z]+")


def dsir_fit_lambda(
    docs: "ray.data.Dataset",
    target_source: str,
    n_features: int = 1 << 16,
    scale_bits: int = 30,
    text_col: str = "text",
    source_col: str = "source",
) -> np.ndarray:
    """Fit the integer per-bucket log-ratio table ``lam`` (len n_features).

    One distributed counting pass; the driver holds only the
    ``n_features``-bounded aggregate (constant memory at any corpus size).
    """
    F = n_features

    def partial(batch: pa.Table) -> pa.Table:
        texts = batch[text_col].to_pandas().fillna("")
        is_target = (
            batch[source_col].to_pandas().fillna("") == target_source
        ).to_numpy()
        idx, vals = _explode_words(_tokenize(texts))
        if len(vals) == 0:
            return _FIT_SCHEMA.empty_table()
        uniq, inv = np.unique(vals, return_inverse=True)
        tok_bucket = (fnv1a_words(uniq) % np.uint64(F)).astype(np.int64)[inv]
        ub, inv2 = np.unique(tok_bucket, return_inverse=True)
        t_tok = is_target[idx]
        t_cnt = np.bincount(inv2[t_tok], minlength=len(ub)).astype(np.int64)
        r_cnt = np.bincount(inv2[~t_tok], minlength=len(ub)).astype(np.int64)
        return pa.table({"bucket": pa.array(ub), "t_cnt": pa.array(t_cnt),
                         "r_cnt": pa.array(r_cnt)})

    def sum_part(df):  # pandas group kernel — one call per coarse part
        g = df.groupby("bucket", sort=False, as_index=False)[
            ["t_cnt", "r_cnt"]
        ].sum()
        return g

    agg = shuffle_by(
        docs.map_batches(partial, batch_format="pyarrow"), "bucket", sum_part
    )
    rows = agg.take_all()
    # Python-int arithmetic below: exact at any magnitude (no int64
    # overflow even if t_b << SB exceeds 2^63 on a trillion-token corpus).
    t = {int(r["bucket"]): int(r["t_cnt"]) for r in rows}
    r = {int(row["bucket"]): int(row["r_cnt"]) for row in rows}
    T = max(sum(t.values()), 1)
    R = max(sum(r.values()), 1)
    lam = np.zeros(F, dtype=np.int64)
    shift = 1 << scale_bits
    for b in set(t) | set(r):
        lam[b] = (1 + (t.get(b, 0) * shift) // T).bit_length() - (
            1 + (r.get(b, 0) * shift) // R
        ).bit_length()
    return lam


def dsir_score(
    docs: "ray.data.Dataset",
    lam: np.ndarray,
    target_source: str,
    text_col: str = "text",
    source_col: str = "source",
    id_col: str = "doc_id",
) -> "ray.data.Dataset":
    """→ (id_col, weight, n_tokens) for every RAW doc (source != target).

    Pure map: lambda table broadcast once via ``ray.put`` (512 KB at
    F=2^16), per-batch FNV over unique words only. Zero shuffles,
    parallelism-invariant.
    """
    import ray

    F = len(lam)
    lam_ref = ray.put(np.ascontiguousarray(lam, dtype=np.int64))

    def score(batch: pa.Table) -> pa.Table:
        w = ray.get(lam_ref)
        src = batch[source_col].to_pandas().fillna("")
        batch = batch.filter(pa.array((src != target_source).to_numpy()))
        n = len(batch)
        texts = batch[text_col].to_pandas().fillna("")
        idx, vals = _explode_words(_tokenize(texts))
        n_tok = (
            np.bincount(idx, minlength=n).astype(np.int64)
            if len(idx)
            else np.zeros(n, np.int64)
        )
        weight = np.zeros(n, dtype=np.int64)
        if len(vals):
            uniq, inv = np.unique(vals, return_inverse=True)
            buckets = fnv1a_words(uniq) % np.uint64(F)
            np.add.at(weight, idx, w[buckets.astype(np.int64)][inv])
        return pa.table(
            {
                id_col: batch[id_col],
                "weight": pa.array(weight),
                "n_tokens": pa.array(n_tok),
            }
        )

    return docs.map_batches(score, batch_format="pyarrow")


def dsir_select(
    docs: "ray.data.Dataset",
    target_source: str,
    keep_frac: float = 0.25,
    n_features: int = 1 << 16,
    scale_bits: int = 30,
    text_col: str = "text",
    source_col: str = "source",
    id_col: str = "doc_id",
) -> "ray.data.Dataset":
    """Full DSIR: fit on target-vs-raw, score raw docs, keep the top
    ``ceil(keep_frac * n_raw)`` by (weight DESC, id ASC).

    Returns (id_col, weight, n_tokens) of the selected documents.
    """
    lam = dsir_fit_lambda(
        docs,
        target_source,
        n_features=n_features,
        scale_bits=scale_bits,
        text_col=text_col,
        source_col=source_col,
    )
    scored = dsir_score(
        docs, lam, target_source,
        text_col=text_col, source_col=source_col, id_col=id_col,
    ).materialize()
    k = math.ceil(keep_frac * scored.count())
    if k <= 0:
        return scored.limit(0)
    return scored.sort(["weight", id_col], descending=[True, False]).limit(k)
