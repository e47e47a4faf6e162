"""Corpus-curation operators: per-source caps and benchmark decontamination.

Two standard web-corpus curation steps (C4 / RefinedWeb / Gopher lineage)
the reference lacks, built Ray-Data-first:

- **cap_per_group**: keep at most ``cap`` rows per group (per-domain /
  per-source caps against boilerplate-heavy domains dominating a corpus).
  Selection is deterministic: the ``cap`` rows with the smallest
  ``splitmix64(seed, id)`` survive — a pure function of (seed, ids), so
  results are identical across runs and cluster sizes and SQL-re-derivable
  (rank by the same mix in the oracle). Execution is combiner-first: every
  input block is pre-capped inside ``map_batches`` (≤ cap rows per group
  leave any block), then one coarse-partitioned groupby finishes — shuffle
  volume is O(cap × groups), never O(rows).

- **decontaminate**: flag training documents sharing any word-k-shingle
  with an evaluation/benchmark corpus (train/test leakage detection, the
  GPT-3 appendix-C / Gopher decontamination shape). The eval side is tiny
  by definition (benchmarks are MBs, the corpus is TBs), so its distinct
  shingle hashes are collected once on the driver, ``ray.put`` once, and
  every train task probes the broadcast sorted array via ``searchsorted``
  — a pure map over the corpus, zero shuffle. Shingle hashes are the same
  rolling FNV-over-word-hashes kernel MinHash uses (ops/dedup.py:72), so
  counts match an exact string-shingle SQL oracle barring 64-bit
  collisions.
"""

from __future__ import annotations

import re

import numpy as np
import pandas as pd
import pyarrow as pa

import ray
import ray.data

from .dedup import _fold_kgrams, _word_hashes_batch
from .interleave import splitmix64
from .shuffle import shuffle_by

# Hash-set size at or below which remove_boilerplate_lines and
# paragraph_dedup broadcast the set. Read at call time, so a test can set
# it to 0 to force the Bloom + shuffle semi-join path.
_BROADCAST_LIMIT = 1_000_000


def cap_per_group(
    ds: "ray.data.Dataset",
    group_col: str,
    cap: int,
    id_col: str = "doc_id",
    seed: int = 0,
) -> "ray.data.Dataset":
    """Keep at most ``cap`` rows per ``group_col`` value, deterministically.

    Survivors are the ``cap`` rows of each group with the smallest
    ``splitmix64(seed, id)`` (ties broken by id — the mix is a bijection,
    so ties only occur for duplicated ids). All input columns pass through.
    """

    def _precap(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        ids = df[id_col].to_numpy().astype(np.uint64)
        # keep the full-width unsigned mix as the sort key — the SQL oracle
        # orders by the same UBIGINT, so the order must be exact, not a
        # float projection
        df["_cap_u"] = splitmix64(ids, seed)
        out = (
            df.sort_values(["_cap_u", id_col], kind="mergesort")
            .groupby(group_col, sort=False)
            .head(cap)
        )
        return pa.Table.from_pandas(out, preserve_index=False)

    def _finish(df: pd.DataFrame) -> pd.DataFrame:
        out = (
            df.sort_values(["_cap_u", id_col], kind="mergesort")
            .groupby(group_col, sort=False)
            .head(cap)
        )
        return out.drop(columns=["_cap_u"])

    return shuffle_by(
        ds.map_batches(_precap, batch_format="pyarrow"), group_col, _finish
    )


def _distinct_shingles(
    ds: "ray.data.Dataset", text_col: str, k: int
) -> np.ndarray:
    """Driver-side sorted distinct shingle hashes of a SMALL dataset.

    Each block contributes one binary blob of its unique hashes (bounded
    by the block's text volume); the driver unions the blobs. Intended for
    eval/benchmark corpora — callers must not feed the training corpus in.
    """

    def _blob(batch: pa.Table) -> pa.Table:
        texts = batch[text_col].to_pylist()
        hashes, ranges, empty = _word_hashes_batch(texts)
        per_doc = [
            np.zeros(1, dtype=np.uint64) if empty[i] else _fold_kgrams(hashes[s:e], k)
            for i, (s, e) in enumerate(ranges)
        ]
        blob = np.unique(np.concatenate(per_doc)) if per_doc else np.zeros(0, np.uint64)
        return pa.table({"blob": pa.array([blob.tobytes()], type=pa.binary())})

    blobs = ds.map_batches(_blob, batch_format="pyarrow").take_all()
    if not blobs:
        return np.zeros(0, dtype=np.uint64)
    return np.unique(
        np.concatenate([np.frombuffer(b["blob"], dtype=np.uint64) for b in blobs])
    )


def _scrub_marked_positions(
    docs: "ray.data.Dataset",
    bad_rows: "ray.data.Dataset",
    *,
    id_col: str,
    text_col: str,
    idx_col: str,
) -> "ray.data.Dataset":
    """Shared tail of the bounded scale paths (`remove_boilerplate_lines`,
    `paragraph_dedup`): confirmed-bad (id, segment-index) rows meet the
    documents in ONE ``hash(id) % P`` shuffle and the kernel drops exactly
    those ``\n``-segment positions. → (id_col, text_col, n_removed)."""

    def _doc_rows(batch: pa.Table) -> pa.Table:
        ids = batch[id_col]
        n = len(batch)
        return pa.table(
            {
                "src": pa.array(np.zeros(n, dtype=np.int8)),
                id_col: ids,
                text_col: batch[text_col].cast(pa.string()),
                idx_col: pa.array(np.full(n, -1, dtype=np.int64)),
            }
        )

    def _bad_tagged(batch: pa.Table) -> pa.Table:
        ids = batch[id_col]
        n = len(batch)
        return pa.table(
            {
                "src": pa.array(np.ones(n, dtype=np.int8)),
                id_col: ids,
                text_col: pa.nulls(n, type=pa.string()),
                idx_col: batch[idx_col].cast(pa.int64()),
            }
        )

    joined = docs.map_batches(_doc_rows, batch_format="pyarrow").union(
        bad_rows.map_batches(_bad_tagged, batch_format="pyarrow")
    )

    def _scrub_group(df: pd.DataFrame) -> pd.DataFrame:
        bad_by_doc = (
            df[df["src"] == 1].groupby(id_col, sort=False)[idx_col].agg(set)
        )
        d = df[df["src"] == 0]
        out_text, out_removed = [], []
        for doc_id, t in zip(d[id_col], d[text_col]):
            segs = (t or "").split("\n")
            bad_idx = bad_by_doc.get(doc_id, ())
            out_text.append(
                "\n".join(sg for i, sg in enumerate(segs) if i not in bad_idx)
            )
            out_removed.append(len(bad_idx))
        return pd.DataFrame(
            {
                id_col: d[id_col].to_numpy(),
                text_col: out_text,
                "n_removed": np.asarray(out_removed, dtype=np.int64),
            }
        )

    return shuffle_by(joined, id_col, _scrub_group)


def remove_boilerplate_lines(
    docs: "ray.data.Dataset",
    min_count: int = 2,
    text_col: str = "text",
    id_col: str = "doc_id",
) -> "ray.data.Dataset":
    """C4-style line-level dedup: drop every line occurring ≥ ``min_count``
    times across the corpus (boilerplate headers/footers/nav), keeping the
    remaining lines of each document in order.

    → (id_col, text_col cleaned, n_removed). Count pass first: each block
    emits its local (line_hash, n) counts (map-side combiner — one row per
    distinct line per block, never per occurrence); a coarse-partitioned
    sum keeps hashes with total ≥ min_count. Then one of two EXACT scrub
    paths, chosen by the frequent-set size (a cheap ``count()``, never the
    rows):

    - **Broadcast fast path** (≤ ``_BROADCAST_LIMIT`` frequent hashes): the
      set is collected once, ``ray.put``, and a pure map drops matching
      lines — zero extra shuffles. Boilerplate is usually high-count /
      low-distinct so this is the common case.
    - **Bounded scale path** (web corpora at min_count=2, where "lines
      appearing ≥2×" is O(corpus distinct lines) — far too big to
      broadcast): driver memory stays bounded by a fixed-size Bloom bitmap
      (per-block partial bitmaps OR-ed, the ``ngram_jaccard_verify``
      pattern). Lines that MISS the bitmap are provably infrequent and
      never leave their block; bitmap HITS become candidate rows
      (line_hash, doc_id, line_idx — never text) that meet the frequent
      hashes in an exact ``hash(line_hash) % P`` shuffle semi-join, so Bloom
      false positives are filtered and the output is byte-identical to
      the broadcast path. Confirmed-bad (doc_id, line_idx) rows then meet
      the documents in one ``hash(doc_id) % P`` shuffle and the kernel
      drops exactly those line positions. 3 coarse shuffles total; no
      driver-side collection anywhere.
    """
    from ontocast_ray.ops.dedup import (
        _BLOOM_BITS,
        _bloom_build_cols,
        _bloom_contains,
    )

    def _count(batch: pa.Table) -> pa.Table:
        texts = batch[text_col].to_pylist()
        lines = [ln for t in texts for ln in (t or "").split("\n")]
        if not lines:
            return pa.table({"line_hash": pa.array([], type=pa.uint64()),
                             "n": pa.array([], type=pa.int64())})
        h = pd.util.hash_array(np.asarray(lines, dtype=object), categorize=False)
        uniq, cnt = np.unique(h, return_counts=True)
        return pa.table(
            {
                "line_hash": pa.array(uniq),
                "n": pa.array(cnt.astype(np.int64)),
            }
        )

    def _freq(df: pd.DataFrame) -> pd.DataFrame:
        agg = df.groupby("line_hash", sort=False)["n"].sum()
        agg = agg[agg >= min_count]
        return pd.DataFrame({"line_hash": agg.index.to_numpy(dtype=np.uint64)})

    frequent = shuffle_by(
        docs.map_batches(_count, batch_format="pyarrow"), "line_hash", _freq
    ).materialize()

    if frequent.count() <= _BROADCAST_LIMIT:
        freq = np.sort(
            np.array(
                [r["line_hash"] for r in frequent.take_all()], dtype=np.uint64
            )
        )
        freq_ref = ray.put(freq)

        def _scrub(batch: pa.Table) -> pa.Table:
            bad = ray.get(freq_ref)
            ids = batch[id_col]
            out_text, out_removed = [], []
            for t in batch[text_col].to_pylist():
                lines = (t or "").split("\n")
                if len(bad):
                    h = pd.util.hash_array(
                        np.asarray(lines, dtype=object), categorize=False
                    )
                    pos = np.minimum(np.searchsorted(bad, h), len(bad) - 1)
                    keep = bad[pos] != h
                else:
                    keep = np.ones(len(lines), dtype=bool)
                out_text.append("\n".join([ln for ln, k in zip(lines, keep) if k]))
                out_removed.append(int((~keep).sum()))
            return pa.table(
                {
                    id_col: ids,
                    text_col: pa.array(out_text, type=pa.string()),
                    "n_removed": pa.array(np.asarray(out_removed, dtype=np.int64)),
                }
            )

        return docs.map_batches(_scrub, batch_format="pyarrow")

    # ---- bounded scale path: Bloom prune + exact shuffle semi-join ----
    # schema().types normalizes via to_arrow_type: pandas-block lineage
    # reports numpy dtypes which pa.nulls/pa.array reject (CLAUDE.md trap)
    from ontocast_ray.util import to_arrow_type

    _sch = docs.schema()
    id_type = to_arrow_type(dict(zip(_sch.names, _sch.types))[id_col])
    bloom = _bloom_build_cols(frequent, ["line_hash"], _BLOOM_BITS)
    bloom_ref = ray.put(bloom)

    def _freq_rows(batch: pa.Table) -> pa.Table:
        n = len(batch)
        return pa.table(
            {
                "src": pa.array(np.zeros(n, dtype=np.int8)),
                "line_hash": batch["line_hash"],
                id_col: pa.nulls(n, type=id_type),
                "line_idx": pa.array(np.full(n, -1, dtype=np.int64)),
            }
        )

    def _cand_rows(batch: pa.Table) -> pa.Table:
        blm = ray.get(bloom_ref)
        ids = batch[id_col].to_pylist()
        out_h, out_id, out_idx = [], [], []
        for i, t in enumerate(batch[text_col].to_pylist()):
            lines = (t or "").split("\n")
            h = pd.util.hash_array(
                np.asarray(lines, dtype=object), categorize=False
            )
            hit = _bloom_contains(blm, h, _BLOOM_BITS)
            if hit.any():
                idx = np.nonzero(hit)[0]
                out_h.append(h[idx])
                out_id.extend([ids[i]] * len(idx))
                out_idx.append(idx.astype(np.int64))
        h_all = (
            np.concatenate(out_h) if out_h else np.zeros(0, dtype=np.uint64)
        )
        idx_all = (
            np.concatenate(out_idx) if out_idx else np.zeros(0, dtype=np.int64)
        )
        return pa.table(
            {
                "src": pa.array(np.ones(len(h_all), dtype=np.int8)),
                "line_hash": pa.array(h_all),
                id_col: pa.array(out_id, type=id_type),
                "line_idx": pa.array(idx_all),
            }
        )

    tagged = frequent.map_batches(_freq_rows, batch_format="pyarrow").union(
        docs.map_batches(_cand_rows, batch_format="pyarrow")
    )

    def _confirm(t: pa.Table) -> pa.Table:
        # arrow-native (NOT pandas): the union's null ids on frequent rows
        # would coerce an int64 id column to float64 in pandas, corrupting
        # large ids — arrow keeps the null slots typed
        import pyarrow.compute as pc

        freq_h = t.filter(pc.equal(t["src"], 0))["line_hash"].to_numpy(
            zero_copy_only=False
        ).astype(np.uint64)
        cand = t.filter(pc.equal(t["src"], 1))
        if len(cand) == 0 or len(freq_h) == 0:
            return pa.table(
                {id_col: pa.array([], type=id_type),
                 "line_idx": pa.array([], type=pa.int64())}
            )
        fs = np.sort(freq_h)
        h = cand["line_hash"].to_numpy(zero_copy_only=False).astype(np.uint64)
        pos = np.minimum(np.searchsorted(fs, h), len(fs) - 1)
        bad = cand.filter(pa.array(fs[pos] == h))
        return pa.table(
            {id_col: bad[id_col].combine_chunks()
             if isinstance(bad[id_col], pa.ChunkedArray) else bad[id_col],
             "line_idx": bad["line_idx"].cast(pa.int64())}
        )

    bad_rows = shuffle_by(tagged, "line_hash", _confirm, batch_format="pyarrow")
    return _scrub_marked_positions(
        docs, bad_rows, id_col=id_col, text_col=text_col,
        idx_col="line_idx",
    )


def decontaminate(
    train: "ray.data.Dataset",
    eval_ds: "ray.data.Dataset",
    k: int = 3,
    text_col: str = "text",
    id_col: str = "doc_id",
) -> "ray.data.Dataset":
    """→ (id_col, n_overlap): training docs sharing ≥1 word-``k``-shingle
    with the eval corpus, with the count of distinct overlapping shingles.

    Pure map over the training corpus against a broadcast sorted hash
    array; documents shorter than ``k`` words contribute one whole-text
    shingle (same fallback as the MinHash kernel / Jaccard SQL oracle).
    """
    eval_hashes = _distinct_shingles(eval_ds, text_col, k)
    eval_ref = ray.put(eval_hashes)

    def _probe(batch: pa.Table) -> pa.Table:
        ev = ray.get(eval_ref)
        texts = batch[text_col].to_pylist()
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        hashes, ranges, empty = _word_hashes_batch(texts)
        out_ids, out_n = [], []
        for i, (s, e) in enumerate(ranges):
            if not len(ev):
                break
            sh = np.zeros(1, dtype=np.uint64) if empty[i] else _fold_kgrams(hashes[s:e], k)
            pos = np.minimum(np.searchsorted(ev, sh), len(ev) - 1)
            n = int((ev[pos] == sh).sum())
            if n:
                out_ids.append(ids[i])
                out_n.append(n)
        return pa.table(
            {
                id_col: pa.array(out_ids, type=batch[id_col].type),
                "n_overlap": pa.array(np.asarray(out_n, dtype=np.int64)),
            }
        )

    return train.map_batches(_probe, batch_format="pyarrow")


def normalize_text(
    docs: "ray.data.Dataset",
    text_col: str = "text",
    out_col: str | None = None,
) -> "ray.data.Dataset":
    """Canonical text normalization (the first stage of every web-corpus
    pipeline): NFC unicode normalization → lowercase → collapse
    whitespace runs to one space → strip. Pure map, zero shuffle; one
    vectorized pandas ``.str`` chain per batch (no per-row Python).

    The whitespace class is written explicitly (``[ \\t\\n\\r\\f\\v]+``)
    so Python ``re`` and SQL RE2 agree byte-for-byte (Python's ``\\s``
    also matches unicode spaces; RE2's does not). SQL mirror:
    ``trim(regexp_replace(lower(nfc_normalize(text)), '[ \\t\\n\\r\\f\\v]+',
    ' ', 'g'))``.
    """
    out = out_col or text_col

    def _norm(batch: pa.Table) -> pa.Table:
        s = batch[text_col].to_pandas().fillna("")
        s = (
            s.str.normalize("NFC")
            .str.lower()
            .str.replace(r"[ \t\n\r\f\v]+", " ", regex=True)
            # explicit ASCII strip class: pandas .str.strip() with no arg
            # strips ALL unicode whitespace (NBSP,  , …) while the SQL
            # mirror's trim() strips only spaces — the collapse above has
            # already reduced edge whitespace to single spaces, so a
            # space-only strip keeps Python and DuckDB byte-identical
            .str.strip(" ")
        )
        arr = pa.Array.from_pandas(s, type=pa.string())
        if out in batch.column_names:
            i = batch.column_names.index(out)
            return batch.set_column(i, out, arr)
        return batch.append_column(out, arr)

    return docs.map_batches(_norm, batch_format="pyarrow")


def html_extract_text(
    docs: "ray.data.Dataset",
    html_col: str = "html",
    out_col: str = "text",
    drop_elements: tuple[str, ...] = (
        "script", "style", "nav", "header", "footer", "aside",
    ),
) -> "ray.data.Dataset":
    """→ input + ``out_col``: visible text extracted from an HTML column —
    the step BEFORE every text-curation pass on raw web crawls (CCNet /
    RefinedWeb run trafilatura/jusText here; this is the regex-core of
    that step: drop non-content elements wholesale, strip the remaining
    tags, decode the common entities, collapse whitespace).

    Pure map, zero shuffle; one compiled-regex pandas ``.str`` chain per
    batch. Every pattern is RE2-compatible (no backreferences or
    lookarounds) with explicit ASCII whitespace classes, so the DuckDB
    mirror (``regexp_replace(..., 'gis')`` chain) reproduces the output
    byte-for-byte. Full DOM-aware extraction (jusText block
    classification) would slot in behind the same signature via an
    actor-pool stage if a parser library is available.
    """
    drop_re = (
        "<(" + "|".join(drop_elements) + r")\b[^>]*>.*?</(?:"
        + "|".join(drop_elements) + ")>"
    )

    def _extract(batch: pa.Table) -> pa.Table:
        s = batch[html_col].to_pandas().fillna("")
        s = (
            s.str.replace(drop_re, " ", regex=True, flags=re.S | re.I)
            .str.replace(r"<[^>]*>", " ", regex=True)
            # entity decode order matters: '&amp;' must decode LAST or
            # escaped markup ('&amp;lt;script&amp;gt;') double-decodes
            # into live tags
            .str.replace("&nbsp;", " ", regex=False)
            .str.replace("&lt;", "<", regex=False)
            .str.replace("&gt;", ">", regex=False)
            .str.replace("&quot;", '"', regex=False)
            .str.replace("&#39;", "'", regex=False)
            .str.replace("&amp;", "&", regex=False)
            .str.replace(r"[ \t\n\r\f\v]+", " ", regex=True)
            .str.strip(" ")
        )
        arr = pa.Array.from_pandas(s, type=pa.string())
        if out_col in batch.column_names:
            i = batch.column_names.index(out_col)
            return batch.set_column(i, out_col, arr)
        return batch.append_column(out_col, arr)

    return docs.map_batches(_extract, batch_format="pyarrow")


# paragraph-position pack: occurrence order = (doc_id, idx) encoded as one
# int64 so partial mins combine with a plain min().  Bounds documented in
# paragraph_dedup; asserted in the kernels.
_PARA_MAXP = np.int64(1) << np.int64(20)


def paragraph_dedup(
    docs: "ray.data.Dataset",
    text_col: str = "text",
    id_col: str = "doc_id",
) -> "ray.data.Dataset":
    """Dolma-style cross-document paragraph dedup: every paragraph (a
    ``\\n``-split segment) that occurs more than once in the corpus keeps
    only its FIRST occurrence — globally smallest ``(doc_id, idx)`` — and
    every later occurrence is removed from its document. Whitespace-only
    paragraphs never participate (they'd collapse all blank lines corpus-
    wide). → (id_col, text_col scrubbed, n_removed).

    Differs from ``remove_boilerplate_lines`` (drop ALL occurrences of
    frequent lines) in the keep-first rule — this is the dedup pass Dolma
    runs on paragraphs, preserving one canonical copy of each.

    Shape: winner pass is a map-side combiner — each block emits one
    (para_hash, min_packed_pos, n) row per distinct paragraph, combined
    through one coarse ``hash % P`` shuffle; only hashes with corpus count
    ≥ 2 survive (the duplicated set, small by construction). Scrub is then
    either the broadcast fast path (dup set ≤ ``_BROADCAST_LIMIT``:
    ``ray.put`` once, pure map, zero extra shuffles) or the bounded scale
    path (Bloom bitmap prune → exact ``hash % P`` shuffle semi-join →
    ``hash(doc_id) % P`` scrub join — the `remove_boilerplate_lines` pattern,
    driver memory bounded by the bitmap regardless of dup count).

    Bounds: per-doc paragraph index must fit 20 bits (≤ ~1M paragraphs
    per document) and ``doc_id`` 43 bits, so packed = doc_id·2^20 + idx
    stays in int64 — asserted in the kernels.
    """
    from ontocast_ray.ops.dedup import (
        _BLOOM_BITS,
        _bloom_build_cols,
        _bloom_contains,
    )

    # consumed 2x (winner + scrub) or 3x (scale path adds the candidate
    # pass): materialize so the input lineage executes once
    docs = docs.materialize()
    _ws = " \t\r\f\v"

    def _explode(texts: list) -> tuple:
        """→ (doc_pos list, para list, idx array) of ELIGIBLE paragraphs."""
        rows_doc, rows_para, rows_idx = [], [], []
        for i, t in enumerate(texts):
            for j, p in enumerate((t or "").split("\n")):
                if p.strip(_ws) != "":
                    rows_doc.append(i)
                    rows_para.append(p)
                    rows_idx.append(j)
        return rows_doc, rows_para, np.asarray(rows_idx, dtype=np.int64)

    def _winner_partial(batch: pa.Table) -> pa.Table:
        ids = np.asarray(batch[id_col].to_pylist(), dtype=np.int64)
        doc_pos, paras, idx = _explode(batch[text_col].to_pylist())
        if not paras:
            return pa.table({
                "para_hash": pa.array([], type=pa.uint64()),
                "min_packed": pa.array([], type=pa.int64()),
                "n": pa.array([], type=pa.int64()),
            })
        assert idx.max() < _PARA_MAXP, "paragraph index exceeds 2^20"
        did = ids[np.asarray(doc_pos)]
        assert did.max() < (np.int64(1) << np.int64(43)), "doc_id exceeds 43 bits"
        h = pd.util.hash_array(np.asarray(paras, dtype=object), categorize=False)
        packed = did * _PARA_MAXP + idx
        g = (
            pd.DataFrame({"para_hash": h, "packed": packed})
            .groupby("para_hash", as_index=False)
            .agg(min_packed=("packed", "min"), n=("packed", "size"))
        )
        return pa.table({
            "para_hash": pa.array(g["para_hash"].to_numpy(dtype=np.uint64)),
            "min_packed": pa.array(g["min_packed"].to_numpy(dtype=np.int64)),
            "n": pa.array(g["n"].to_numpy(dtype=np.int64)),
        })

    def _winner_final(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("para_hash", as_index=False).agg(
            min_packed=("min_packed", "min"), n=("n", "sum")
        )
        g = g[g["n"] >= 2]
        return pd.DataFrame({
            "para_hash": g["para_hash"].to_numpy(dtype=np.uint64),
            "min_packed": g["min_packed"].to_numpy(dtype=np.int64),
        })

    dups = shuffle_by(
        docs.map_batches(_winner_partial, batch_format="pyarrow"),
        "para_hash",
        _winner_final,
    ).materialize()

    if dups.count() <= _BROADCAST_LIMIT:
        rows = dups.take_all()
        dh = np.array([r["para_hash"] for r in rows], dtype=np.uint64)
        dm = np.array([r["min_packed"] for r in rows], dtype=np.int64)
        order = np.argsort(dh)
        dh, dm = dh[order], dm[order]
        dup_ref = ray.put((dh, dm))

        def _scrub(batch: pa.Table) -> pa.Table:
            bad_h, bad_min = ray.get(dup_ref)
            ids = batch[id_col]
            idv = np.asarray(ids.to_pylist(), dtype=np.int64)
            out_text, out_removed = [], []
            for i, t in enumerate(batch[text_col].to_pylist()):
                paras = (t or "").split("\n")
                keep = np.ones(len(paras), dtype=bool)
                elig = [j for j, p in enumerate(paras) if p.strip(_ws) != ""]
                if elig and len(bad_h):
                    ej = np.asarray(elig, dtype=np.int64)
                    h = pd.util.hash_array(
                        np.asarray([paras[j] for j in elig], dtype=object),
                        categorize=False,
                    )
                    pos = np.minimum(np.searchsorted(bad_h, h), len(bad_h) - 1)
                    in_dup = bad_h[pos] == h
                    packed = idv[i] * _PARA_MAXP + ej
                    drop = in_dup & (packed != bad_min[pos])
                    keep[ej[drop]] = False
                out_text.append(
                    "\n".join(p for p, k in zip(paras, keep) if k)
                )
                out_removed.append(int((~keep).sum()))
            return pa.table({
                id_col: ids,
                text_col: pa.array(out_text, type=pa.string()),
                "n_removed": pa.array(np.asarray(out_removed, dtype=np.int64)),
            })

        return docs.map_batches(_scrub, batch_format="pyarrow")

    # ---- bounded scale path: Bloom prune + exact shuffle semi-join ----
    # schema().types normalizes via to_arrow_type: pandas-block lineage
    # reports numpy dtypes which pa.nulls/pa.array reject (CLAUDE.md trap)
    from ontocast_ray.util import to_arrow_type

    _sch = docs.schema()
    id_type = to_arrow_type(dict(zip(_sch.names, _sch.types))[id_col])
    bloom = _bloom_build_cols(dups, ["para_hash"], _BLOOM_BITS)
    bloom_ref = ray.put(bloom)

    def _dup_rows(batch: pa.Table) -> pa.Table:
        n = len(batch)
        return pa.table({
            "src": pa.array(np.zeros(n, dtype=np.int8)),
            "para_hash": batch["para_hash"],
            "min_packed": batch["min_packed"].cast(pa.int64()),
            id_col: pa.nulls(n, type=id_type),
            "para_idx": pa.array(np.full(n, -1, dtype=np.int64)),
        })

    def _cand_rows(batch: pa.Table) -> pa.Table:
        blm = ray.get(bloom_ref)
        ids = np.asarray(batch[id_col].to_pylist(), dtype=np.int64)
        doc_pos, paras, idx = _explode(batch[text_col].to_pylist())
        if not paras:
            h_all = np.zeros(0, dtype=np.uint64)
            did = np.zeros(0, dtype=np.int64)
            idx = np.zeros(0, dtype=np.int64)
        else:
            h_all = pd.util.hash_array(
                np.asarray(paras, dtype=object), categorize=False
            )
            did = ids[np.asarray(doc_pos)]
            hit = _bloom_contains(blm, h_all, _BLOOM_BITS)
            h_all, did, idx = h_all[hit], did[hit], idx[hit]
        return pa.table({
            "src": pa.array(np.ones(len(h_all), dtype=np.int8)),
            "para_hash": pa.array(h_all),
            "min_packed": pa.array(np.full(len(h_all), -1, dtype=np.int64)),
            id_col: pa.array(did, type=id_type),
            "para_idx": pa.array(idx),
        })

    tagged = dups.map_batches(_dup_rows, batch_format="pyarrow").union(
        docs.map_batches(_cand_rows, batch_format="pyarrow")
    )

    def _confirm(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        dup = t.filter(pc.equal(t["src"], 0))
        cand = t.filter(pc.equal(t["src"], 1))
        if len(cand) == 0 or len(dup) == 0:
            return pa.table({
                id_col: pa.array([], type=id_type),
                "para_idx": pa.array([], type=pa.int64()),
            })
        dh = dup["para_hash"].to_numpy(zero_copy_only=False).astype(np.uint64)
        dm = dup["min_packed"].to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.argsort(dh)
        dh, dm = dh[order], dm[order]
        h = cand["para_hash"].to_numpy(zero_copy_only=False).astype(np.uint64)
        cid = cand[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        cidx = cand["para_idx"].to_numpy(zero_copy_only=False).astype(np.int64)
        pos = np.minimum(np.searchsorted(dh, h), len(dh) - 1)
        in_dup = dh[pos] == h
        packed = cid * _PARA_MAXP + cidx
        bad = in_dup & (packed != dm[pos])
        return pa.table({
            id_col: pa.array(cid[bad], type=id_type),
            "para_idx": pa.array(cidx[bad]),
        })

    bad_rows = shuffle_by(tagged, "para_hash", _confirm, batch_format="pyarrow")
    return _scrub_marked_positions(
        docs, bad_rows, id_col=id_col, text_col=text_col,
        idx_col="para_idx",
    )


_C4_TERMINAL = ('.', '!', '?', '"', "'")


def c4_line_filter(
    docs: "ray.data.Dataset",
    min_words_per_line: int = 3,
    min_kept_lines: int = 2,
    text_col: str = "text",
    id_col: str = "doc_id",
) -> "ray.data.Dataset":
    """The C4 line-level rule set (Raffel et al. 2020 §2.2), the cleanup
    every web-text pipeline runs after HTML extraction. Line rules: keep a
    line only if (after space-strip) it ends in a terminal punctuation mark
    (``. ! ? " '``), has ≥ ``min_words_per_line`` space-separated words,
    and does not contain the word "javascript" (case-insensitive). Page
    rules: drop the whole document if the ORIGINAL text contains
    "lorem ipsum" (case-insensitive) or a ``{`` (code leakage), or if
    fewer than ``min_kept_lines`` lines survive.

    → (id_col, text=kept lines joined by \\n, n_lines, n_kept). Pure map,
    zero shuffle — the rule needs no cross-document state, so at 100 TB it
    runs embarrassingly parallel at read speed. Word count is the number
    of ``[^ ]+`` runs (exactly DuckDB's ``regexp_extract_all`` count);
    strip is space-only so Python and SQL trim() agree byte-for-byte.
    """

    def kern(batch: pa.Table) -> pa.Table:
        texts = batch[text_col].to_pylist()
        ids = batch[id_col]
        out_ids, out_txt, out_nl, out_nk, keep_idx = [], [], [], [], []
        for i, t in enumerate(texts):
            t = t or ""
            low = t.lower()
            lines = t.split("\n")
            kept = []
            for ln in lines:
                s = ln.strip(" ")
                if not s.endswith(_C4_TERMINAL):
                    continue
                # [^ ]+ run count — exactly the SQL regexp_extract_all
                # mirror (space-separated, NOT unicode-\s: a tab inside a
                # line is part of a "word" on both sides)
                if sum(1 for w in s.split(" ") if w) < min_words_per_line:
                    continue
                if "javascript" in s.lower():
                    continue
                kept.append(s)
            if "lorem ipsum" in low or "{" in t or len(kept) < min_kept_lines:
                continue
            keep_idx.append(i)
            out_txt.append("\n".join(kept))
            out_nl.append(len(lines))
            out_nk.append(len(kept))
        return pa.table({
            id_col: ids.take(pa.array(keep_idx, type=pa.int64())),
            text_col: pa.array(out_txt, type=pa.string()),
            "n_lines": pa.array(np.asarray(out_nl, dtype=np.int64)),
            "n_kept": pa.array(np.asarray(out_nk, dtype=np.int64)),
        })

    return docs.map_batches(kern, batch_format="pyarrow")
