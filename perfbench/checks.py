"""Output checks: order-independent digests, the direct (Ray-free)
reference path for the KG workloads, and the near-dup consistency checks.

A digest is the sum mod 2**64 of one 64-bit hash per row (pandas'
fixed-key SipHash over the row's columns joined), so it does not depend on
row order or on how rows are split into blocks, and a duplicated row
changes it."""

from __future__ import annotations

import multiprocessing as mp
from collections import defaultdict

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

TRIPLE_COLUMNS = [
    "subject", "predicate", "object", "object_is_literal", "object_datatype",
    "object_lang", "doc_id", "doc_iri", "chunk_hid", "chunk_idx", "graph_scope",
]
# An entity's label is the longest one seen; which of several equally long
# labels wins depends on shuffle arrival order, so the digest takes the
# label's length (see ``with_label_chars``).
ENTITY_COLUMNS = ["entity_uri", "entity_key", "label_chars", "types", "n_docs", "n_mentions",
                  "status"]
KEEP_COLUMNS = ["doc_id", "keep_id", "keep"]

RDF_TYPE = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"
RDFS_LABEL = "http://www.w3.org/2000/01/rdf-schema#label"
ENGINE_NS = "https://ontocast-ray.dev/meta#"


def _as_text(col: pa.ChunkedArray) -> pa.ChunkedArray:
    if pa.types.is_list(col.type) or pa.types.is_large_list(col.type):
        col = pc.binary_join(col, "\x1e")
    return pc.fill_null(pc.cast(col, pa.string()), "\x00")


def digest(tables, columns: list[str]) -> tuple[int, str]:
    """→ (row count, 16-hex-digit digest) of the rows of ``tables``."""
    total, n = 0, 0
    for t in tables:
        if len(t) == 0:
            continue
        keys = pc.binary_join_element_wise(*[_as_text(t[c]) for c in columns], "\x1f")
        h = pd.util.hash_array(keys.to_numpy(zero_copy_only=False), categorize=False)
        total = (total + int(h.sum(dtype=np.uint64))) % 2**64
        n += len(t)
    return n, f"{total:016x}"


def with_label_chars(table: pa.Table) -> pa.Table:
    """An entity table with the ``label_chars`` column that its digest uses."""
    return table.append_column("label_chars", pc.utf8_length(table["label"]))


def status_counts(tables) -> dict:
    """Per-chunk extraction counts read from the output's status triples."""
    chunks = attempts = forced = 0
    for t in tables:
        pred = t["predicate"]
        att = t.filter(pc.equal(pred, ENGINE_NS + "attempts"))["object"]
        chunks += len(att)
        attempts += int(pc.sum(pc.cast(att, pa.int64())).as_py() or 0)
        forced += int(pc.sum(pc.equal(pred, ENGINE_NS + "failureStage")).as_py() or 0)
    return {"chunks": chunks, "attempts": attempts, "forced": forced}


# --- direct reference path (no Ray) ----------------------------------------

def _reference_slice(docs: pa.Table, chunking: dict) -> pa.Table:
    """KGProcessDocs called directly on one slice, with the ontology seeds
    ``build_kg_pipeline`` uses by default."""
    from ontocast_ray.pipelines.kg import KGProcessDocs, default_ontology_records
    from ontocast_ray.stages.assemble import assemble_spans
    from ontocast_ray.state.ontology_hub import seed_from_records

    proc = KGProcessDocs(ontology_seeds=seed_from_records(default_ontology_records()), **chunking)
    return proc(assemble_spans(docs))


def reference_triples(doc_tables: list[pa.Table], processes: int, chunking: dict,
                      slice_rows: int = 64) -> list[list[pa.Table]]:
    """The KG kernel run directly on each table of docs, in one pool of
    spawned processes, no Ray: the reference for seeds whose digests are not
    pinned. → the triple tables of each table of docs."""
    owners, slices = [], []
    for i, docs in enumerate(doc_tables):
        for j in range(0, len(docs), slice_rows):
            owners.append(i)
            slices.append((docs.slice(j, slice_rows), chunking))
    with mp.get_context("spawn").Pool(processes) as pool:
        out = pool.starmap(_reference_slice, slices, chunksize=1)
    per_table = [[] for _ in doc_tables]
    for i, triples in zip(owners, out):
        per_table[i].append(triples)
    return per_table


def _label_merge(a: str, b: str) -> str:
    """Longest label; equal lengths break ties lexically."""
    if len(a) != len(b):
        return a if len(a) > len(b) else b
    return a if a <= b else b


def _entity_aggregate(tables) -> dict[str, list]:
    from ontocast_ray.pipelines.crossdoc import entity_key_of

    acc: dict[str, list] = {}
    for t in tables:
        cols = [t[c].to_pylist() for c in ("subject", "predicate", "object", "doc_id")]
        for s, p, o, d in zip(*cols):
            key = entity_key_of(s)
            if key is None:
                continue
            ent = acc.setdefault(key, ["", set(), set(), 0])
            ent[3] += 1
            ent[2].add(d)
            if p == RDFS_LABEL:
                ent[0] = _label_merge(ent[0], o)
            elif p == RDF_TYPE:
                ent[1].add(o)
    return acc


def reference_entities(old_triples, new_triples, domain: str = "https://example.com") -> pa.Table:
    """The updated entity table computed row by row in one process: old
    and new aggregates merged with longest-label, type union and count sums,
    status from which side holds the key."""
    old, new = _entity_aggregate(old_triples), _entity_aggregate(new_triples)
    rows = defaultdict(list)
    for key in sorted(old.keys() | new.keys()):
        sides = [side[key] for side in (old, new) if key in side]
        label = ""
        for s in sides:
            label = _label_merge(label, s[0])
        rows["entity_uri"].append(f"{domain}/entity/{key}")
        rows["entity_key"].append(key)
        rows["label"].append(label)
        rows["types"].append(sorted(set().union(*(s[1] for s in sides))))
        rows["n_docs"].append(sum(len(s[2]) for s in sides))
        rows["n_mentions"].append(sum(s[3] for s in sides))
        rows["status"].append(
            "new" if key not in old else ("unchanged" if key not in new else "updated")
        )
    return pa.table(rows)


# --- near-dup curation -------------------------------------------------------


def shingles(text: str, k: int) -> set:
    """Word k-grams of the lower-cased, whitespace-split text (a text of
    fewer than k words is one gram)."""
    words = text.strip().lower().split()
    if len(words) < k:
        return {tuple(words)}
    return {tuple(words[i:i + k]) for i in range(len(words) - k + 1)}


def components(pairs) -> dict:
    """Union-find over (a, b) pairs → node → smallest node of its component."""
    parent: dict = {}

    def find(x):
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    for a, b in pairs:
        parent.setdefault(a, a)
        parent.setdefault(b, b)
        ra, rb = find(a), find(b)
        if ra != rb:  # the smaller root wins, so each root is its component's min
            parent[max(ra, rb)] = min(ra, rb)
    return {x: find(x) for x in parent}


# LSH recall is not exact: with star candidate pairs (bucket min → member),
# two near-copies whose bucket min is a third, dissimilar doc lose their link
# when verify drops that doc's pairs, so a few injected copies stay apart.
MAX_MISSED_FRAC = 0.05


def check_neardup(texts: dict, injected, candidates: pa.Table, verified: pa.Table,
                  keep: pa.Table, threshold: float, k: int) -> list[str]:
    """Problems found in one near-dup pass (empty when it is correct):
    verified ⊆ candidates, each verified Jaccard recomputed exactly and at
    least ``threshold``, the keep list equal to the components of the
    verified pairs, and at most ``MAX_MISSED_FRAC`` of the injected copies at
    Jaccard ≥ 0.9 left unmerged."""
    problems = []
    cand = set(zip(candidates["doc_id_a"].to_pylist(), candidates["doc_id_b"].to_pylist()))
    ver = list(zip(verified["doc_id_a"].to_pylist(), verified["doc_id_b"].to_pylist(),
                   verified["jaccard"].to_pylist()))
    if not {(a, b) for a, b, _ in ver} <= cand:
        problems.append("verified pairs not a subset of candidate pairs")
    sh: dict = {}
    for a, b, j in ver:
        sa = sh.setdefault(a, shingles(texts[a], k))
        sb = sh.setdefault(b, shingles(texts[b], k))
        exact = len(sa & sb) / len(sa | sb)
        if abs(exact - j) > 1e-9 or exact < threshold:
            problems.append(f"pair ({a},{b}) jaccard {j} vs exact {exact}")
            break
    comp = components((a, b) for a, b, _ in ver)
    want = {(d, c, d == c) for d, c in comp.items()}
    got = set(zip(*(keep[c].to_pylist() for c in KEEP_COLUMNS)))
    if got != want:
        problems.append(f"keep list differs from components ({len(got)} vs {len(want)} rows)")
    near = [(a, b) for a, b in injected
            if len(shingles(texts[a], k) & shingles(texts[b], k))
            >= 0.9 * len(shingles(texts[a], k) | shingles(texts[b], k))]
    missed = [(a, b) for a, b in near if comp.get(a, a) != comp.get(b, b)]
    if len(missed) > MAX_MISSED_FRAC * len(near):
        problems.append(f"{len(missed)} of {len(near)} injected near-dups at jaccard >= 0.9 "
                        f"not merged, first {missed[0]}")
    return problems
