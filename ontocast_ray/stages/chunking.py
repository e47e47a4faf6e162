"""Span-aware semantic chunking.

Ports the reference chunker math exactly (/root/reference/ontocast/tool/
chunk/chunker.py:14-71 and chunk/util.py:21-301):

- sentence split on the markdown-aware regex (chunker.py:46-48);
- buffered sentence windows (buffer_size=5; util.py:262-301 — note the
  reference joins *preceding* buffer sentences with NO separator and
  *following* ones with a single space; reproduced verbatim);
- cosine distance between consecutive window embeddings; breakpoints where
  distance exceeds the 95th percentile (util.py:58-91,133-196);
- chunks shorter than min_chunk_size (2000) are merged forward; chunks longer
  than max_chunk_size (20000) are recursively re-split until stable, with the
  trailing short chunk folded into its predecessor (chunker.py:51-68).

The embedding model is pluggable (``Embedder`` protocol). The default is a
deterministic hashed-character-ngram projector (no model download, stable
across processes); a sentence-transformers embedder can be dropped in where
available. The Ray stage is a ``map_batches`` class mapped as an instance
(a task): the embedder is built once in ``__init__``, not per batch.
"""

from __future__ import annotations

import re
import zlib
from typing import List, Protocol, Sequence

import numpy as np

from ontocast_ray.functions.hashing import render_text_hash

# ref chunker.py:46-48
SENTENCE_SPLIT_REGEX = (
    r"(?:(?:\n{2,}(?=#+))|(?:\n{2,}(?=- ))"
    r"|(?<=[a-z][.?!])\s+(?=\b[A-Z]\w{8,}\b)|(?<!#)(?=#+))"
)

DEFAULT_BUFFER_SIZE = 5  # ref chunker.py:22
DEFAULT_BREAKPOINT_PERCENTILE = 95.0  # ref chunker.py:21
DEFAULT_MIN_CHUNK_SIZE = 2000  # ref chunker.py:23
DEFAULT_MAX_CHUNK_SIZE = 20000  # ref chunker.py:24


class Embedder(Protocol):
    def embed(self, texts: Sequence[str]) -> np.ndarray: ...


class HashingEmbedder:
    """Deterministic hashed char-ngram embedding (test/bench stand-in).

    crc32-hashed character trigrams projected into ``dim`` buckets,
    l2-normalized. Deterministic across processes (no PYTHONHASHSEED
    dependence), cheap, and produces meaningful cosine distances between
    topically-different windows.
    """

    def __init__(self, dim: int = 128, ngram: int = 3):
        self.dim = dim
        self.ngram = ngram

    def embed(self, texts: Sequence[str]) -> np.ndarray:
        out = np.zeros((len(texts), self.dim), dtype=np.float64)
        n = self.ngram
        for row, text in enumerate(texts):
            t = text.lower()
            data = t.encode("utf-8", "ignore")
            for i in range(max(0, len(data) - n + 1)):
                h = zlib.crc32(data[i:i + n])
                out[row, h % self.dim] += 1.0
        norms = np.linalg.norm(out, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        return out / norms


class SemanticSplitter:
    """Port of SemanticChunker.split_text (ref chunk/util.py:133-196)."""

    def __init__(
        self,
        embedder: Embedder,
        buffer_size: int = DEFAULT_BUFFER_SIZE,
        breakpoint_percentile: float = DEFAULT_BREAKPOINT_PERCENTILE,
        min_chunk_size: int | None = DEFAULT_MIN_CHUNK_SIZE,
        sentence_split_regex: str = SENTENCE_SPLIT_REGEX,
    ):
        self.embedder = embedder
        self.buffer_size = buffer_size
        self.breakpoint_percentile = breakpoint_percentile
        self.min_chunk_size = min_chunk_size
        self.split_re = re.compile(sentence_split_regex)

    def _combine_sentences(self, sentences: List[str]) -> List[str]:
        """ref util.py:262-301 — prefix buffer joined with '', suffix with ' '."""
        combined = []
        n = len(sentences)
        b = self.buffer_size
        for i in range(n):
            parts = []
            for j in range(i - b, i):
                if j >= 0:
                    parts.append(sentences[j])
            pre = "".join(parts)
            post = "".join(
                " " + sentences[j] for j in range(i + 1, i + 1 + b) if j < n
            )
            combined.append(pre + sentences[i] + post)
        return combined

    def split_text(self, text: str) -> List[str]:
        sentences = [s.strip() for s in self.split_re.split(text) if s is not None]
        sentences = [s for s in sentences if s]
        if len(sentences) <= 1:
            return sentences

        combined = self._combine_sentences(sentences)
        embeddings = self.embedder.embed(combined)
        # consecutive cosine distances (ref util.py:230-259)
        a = embeddings[:-1]
        b = embeddings[1:]
        norms = np.linalg.norm(a, axis=1) * np.linalg.norm(b, axis=1)
        norms[norms == 0] = 1.0
        sims = np.einsum("ij,ij->i", a, b) / norms
        distances = 1.0 - sims

        threshold = np.percentile(distances, self.breakpoint_percentile)
        indices_above = [i for i, d in enumerate(distances) if d > threshold]

        chunks: List[str] = []
        start_index = 0
        for index in indices_above:
            group = sentences[start_index:index + 1]
            combined_text = " ".join(group)
            if self.min_chunk_size is not None and len(combined_text) < self.min_chunk_size:
                # merge-forward: skip emitting, keep start_index (ref util.py:181-186)
                continue
            chunks.append(combined_text)
            start_index = index + 1
        if start_index < len(sentences):
            chunks.append(" ".join(sentences[start_index:]))
        return chunks


def recursive_chunk(
    text: str,
    splitter: SemanticSplitter,
    min_chunk_size: int = DEFAULT_MIN_CHUNK_SIZE,
    max_chunk_size: int = DEFAULT_MAX_CHUNK_SIZE,
) -> List[str]:
    """ref chunker.py:51-70 — re-split oversize chunks until stable."""
    docs = [text]
    stop_flag = False
    while not (all(len(d) < max_chunk_size for d in docs) or stop_flag):
        new_docs: List[str] = []
        for d in docs:
            if len(d) > max_chunk_size:
                cdocs = splitter.split_text(d)
                if len(cdocs) >= 2 and len(cdocs[-1]) < min_chunk_size:
                    cdocs = cdocs[:-2] + [cdocs[-2] + cdocs[-1]]
                new_docs.extend(cdocs)
            else:
                new_docs.append(d)
        stop_flag = len(docs) == len(new_docs)
        docs = new_docs
    return docs


def assign_spans_to_chunks(spans: List[dict], chunk_texts: List[str]) -> List[List[dict]]:
    """Partition a doc's span sequence into contiguous per-chunk runs.

    The north-rule invariant is span-sequence equality: concatenating the
    chunk rows' span lists (in chunk order) must reproduce the document's
    span sequence exactly (kind, text, media_ref, order). Chunk texts are
    whitespace-normalized relative to the assembled text, so assignment is
    by proportional text mass: text span k goes to the chunk whose
    cumulative-length window contains k's scaled start offset; media spans
    ride with the preceding text span. The partition is contiguous by
    construction, so the invariant holds exactly.
    """
    n_chunks = len(chunk_texts)
    if n_chunks == 0:
        return []
    if n_chunks == 1:
        return [list(spans)]
    total_chunk = sum(len(c) for c in chunk_texts)
    total_span = sum(len(s["text"]) for s in spans if s["kind"] == "text")
    scale = total_chunk / total_span if total_span else 0.0

    bounds = []
    acc = 0
    for c in chunk_texts:
        acc += len(c)
        bounds.append(acc)

    out: List[List[dict]] = [[] for _ in range(n_chunks)]
    cursor = 0  # cumulative text mass consumed
    current = 0
    for span in spans:
        if span["kind"] == "text":
            scaled = cursor * scale
            while current < n_chunks - 1 and scaled >= bounds[current]:
                current += 1
            cursor += len(span["text"])
        out[current].append(span)
    return out


class ChunkDocuments:
    """map_batches stage: 1 doc row → N chunk rows.

    Map with an instance (``map_batches(ChunkDocuments(...))``): the default
    hashing embedder is cheap, so it ships with the task (the reference
    loads a sentence transformer once per ChunkerTool; a model-backed
    ``embedder_factory`` is the case for an actor pool). Input batch:
    DOCS_SCHEMA + ``text`` column (from the assemble stage); output:
    CHUNKS_SCHEMA.
    """

    def __init__(
        self,
        domain: str = "https://example.com",
        min_chunk_size: int = DEFAULT_MIN_CHUNK_SIZE,
        max_chunk_size: int = DEFAULT_MAX_CHUNK_SIZE,
        max_chunks: int | None = None,
        embedder_factory=None,
    ):
        self.domain = domain
        self.min_chunk_size = min_chunk_size
        self.max_chunk_size = max_chunk_size
        self.max_chunks = max_chunks
        embedder = embedder_factory() if embedder_factory else HashingEmbedder()
        self.splitter = SemanticSplitter(
            embedder,
            min_chunk_size=min_chunk_size,
        )

    def __call__(self, batch: dict) -> dict:
        import pyarrow as pa

        if isinstance(batch, pa.Table):
            doc_ids = batch["doc_id"].to_pylist()
            texts = batch["text"].to_pylist()
            spans_col = batch["spans"].to_pylist()
        else:  # dict of numpy arrays
            doc_ids = list(batch["doc_id"])
            texts = list(batch["text"])
            spans_col = list(batch["spans"])

        out = {
            "doc_id": [],
            "doc_hid": [],
            "doc_iri": [],
            "chunk_idx": [],
            "chunk_hid": [],
            "text": [],
            "spans": [],
        }
        for doc_id, text, spans in zip(doc_ids, texts, spans_col):
            doc_hid = render_text_hash(text)  # ref onto.py:986-993
            doc_iri = f"{self.domain}/doc/{doc_hid}"
            chunk_texts = recursive_chunk(
                text, self.splitter, self.min_chunk_size, self.max_chunk_size
            )
            if self.max_chunks is not None:
                chunk_texts = chunk_texts[: self.max_chunks]  # ref chunk_text.py:33
            spans = spans if spans is not None else []
            span_parts = assign_spans_to_chunks(list(spans), chunk_texts)
            for idx, chunk_text in enumerate(chunk_texts):
                out["doc_id"].append(doc_id)
                out["doc_hid"].append(doc_hid)
                out["doc_iri"].append(doc_iri)
                out["chunk_idx"].append(idx)
                out["chunk_hid"].append(render_text_hash(chunk_text))
                out["text"].append(chunk_text)
                out["spans"].append(span_parts[idx] if idx < len(span_parts) else [])
        from ontocast_ray.model import CHUNKS_SCHEMA

        return pa.table(
            {
                name: pa.array(out[name], type=CHUNKS_SCHEMA.field(name).type)
                for name in CHUNKS_SCHEMA.names
            }
        )
