"""Cross-document entity merge — the scale axis (north rule: "canonicalized
via a groupby-aggregate shuffle on normalized entity keys … with explicit
salted partitioning to defuse head-entity skew at 10^12-document scale").

The reference never merges across documents (its aggregation is strictly
per-doc, ref /root/reference/ontocast/tool/aggregate.py:70-84); this stage is
engine-side design layered ON TOP of the per-doc canonical output:

1. Doc-level canonical URIs are ``{domain}/doc/{hid}/{local}`` (minted by the
   per-doc aggregator from the entity's cleaned local name). The normalized
   entity key is that local name, lowercased — so the global canonical URI
   ``{domain}/entity/{key}`` is a PURE FUNCTION of the row. Triple rewriting
   is therefore an embarrassingly-parallel map — no join, no broadcast.
2. What genuinely needs a shuffle is the merged entity metadata (best label,
   type union, mention/doc counts). A head entity ("ACME Corporation" in
   ~30% of docs) makes a naive groupby(key) skew-bound, so it runs TWO-PHASE:
   groupby((key, salt)) partial-aggregate → groupby(key) final merge of at
   most ``n_salt`` partial rows per key. Phase-1 fan-in is bounded by
   corpus_size/n_salt per reducer regardless of key skew.
"""

from __future__ import annotations

import re
import zlib

import numpy as np
import pandas as pd
import pyarrow as pa

import ray.data

from ontocast_ray.ops.shuffle import shuffle_by
from ontocast_ray.rdf.namespaces import PROV, RDF, RDFS

OWL_SAMEAS = "http://www.w3.org/2002/07/owl#sameAs"
# doc-canonical entities ({domain}/doc/{hid}/{local}) AND singleton entities
# that kept their chunk-namespace URIs ({domain}/doc/{hid}/chunk/{chid}/{local})
# — the reference leaves un-grouped entities un-minted (aggregate.py:252), so
# both shapes carry entity keys. Chunk IRIs themselves (no trailing local
# segment) never match.
_DOC_ENTITY_RE = re.compile(
    r"^(?P<domain>https?://[^/]+)/doc/(?P<hid>[0-9a-f]{12})"
    r"(?:/chunk/[0-9a-f]{12})?/(?P<local>[^/]+)$"
)


def entity_key_of(uri: str) -> str | None:
    """Doc-canonical or chunk-singleton URI → normalized entity key."""
    m = _DOC_ENTITY_RE.match(uri)
    if m is None or m.group("local") == "chunk":
        return None
    return m.group("local").lower()


def global_uri_of(uri: str) -> str | None:
    m = _DOC_ENTITY_RE.match(uri)
    if m is None or m.group("local") == "chunk":
        return None
    return f"{m.group('domain')}/entity/{m.group('local').lower()}"


def rewrite_to_global(batch: pa.Table) -> pa.Table:
    """Map stage: rewrite doc-canonical URIs to global entity URIs and emit
    owl:sameAs lineage triples (doc-canonical → global)."""
    subs = batch["subject"].to_pylist()
    objs = batch["object"].to_pylist()
    is_lit = batch["object_is_literal"].to_pylist()
    new_subs, new_objs = [], []
    sameas: dict[str, str] = {}
    for s in subs:
        g = global_uri_of(s)
        if g is not None:
            sameas[s] = g
            new_subs.append(g)
        else:
            new_subs.append(s)
    for o, lit in zip(objs, is_lit):
        if lit:
            new_objs.append(o)
            continue
        g = global_uri_of(o)
        if g is not None:
            sameas[o] = g
            new_objs.append(g)
        else:
            new_objs.append(o)
    out = batch.set_column(
        batch.schema.get_field_index("subject"), "subject", pa.array(new_subs, type=pa.string())
    )
    out = out.set_column(
        out.schema.get_field_index("object"), "object", pa.array(new_objs, type=pa.string())
    )
    if not sameas:
        return out
    n = len(sameas)
    extra = pa.table(
        {
            "subject": pa.array(list(sameas.keys()), type=pa.string()),
            "predicate": pa.array([OWL_SAMEAS] * n, type=pa.string()),
            "object": pa.array(list(sameas.values()), type=pa.string()),
            "object_is_literal": pa.array([False] * n),
            "object_datatype": pa.array([None] * n, type=pa.string()),
            "object_lang": pa.array([None] * n, type=pa.string()),
            "doc_id": pa.array([""] * n, type=pa.string()),
            "doc_iri": pa.array([""] * n, type=pa.string()),
            "chunk_hid": pa.array([""] * n, type=pa.string()),
            "chunk_idx": pa.array([-1] * n, type=pa.int32()),
            "graph_scope": pa.array(["sameas"] * n, type=pa.string()),
        }
    )
    return pa.concat_tables([out, extra], promote_options="default")


def _entity_mentions(batch: pa.Table, n_salt: int) -> pa.Table:
    """Per-batch: extract (entity_key, salt, label, type, doc_id) mention rows
    for doc-canonical subjects; pre-aggregated within the batch."""
    rdfs_label = str(RDFS.label)
    rdf_type = str(RDF.type)
    subs = batch["subject"].to_pylist()
    preds = batch["predicate"].to_pylist()
    objs = batch["object"].to_pylist()
    docs = batch["doc_id"].to_pylist()
    # within-batch combiner: key -> [best_label, {types}, {docs}, mentions]
    acc: dict[str, list] = {}
    for s, p, o, d in zip(subs, preds, objs, docs):
        key = entity_key_of(s)
        if key is None:
            continue
        ent = acc.get(key)
        if ent is None:
            ent = ["", set(), set(), 0]
            acc[key] = ent
        ent[3] += 1
        ent[2].add(d)
        if p == rdfs_label and len(o) > len(ent[0]):
            ent[0] = o
        elif p == rdf_type:
            ent[1].add(o)
    keys, salts, labels, types, docsets, mentions = [], [], [], [], [], []
    for key, (label, tset, dset, m) in acc.items():
        keys.append(key)
        salts.append(zlib.crc32(f"{key}:{sorted(dset)[0] if dset else ''}".encode()) % n_salt)
        labels.append(label)
        types.append(sorted(tset))
        docsets.append(sorted(dset))
        mentions.append(m)
    return pa.table(
        {
            "entity_key": pa.array(keys, type=pa.string()),
            "salt": pa.array(salts, type=pa.int32()),
            "label": pa.array(labels, type=pa.string()),
            "types": pa.array(types, type=pa.list_(pa.string())),
            "docs": pa.array(docsets, type=pa.list_(pa.string())),
            "n_mentions": pa.array(mentions, type=pa.int64()),
        }
    )


def _merge_rows(rows: pd.DataFrame) -> dict:
    label = max(rows["label"].tolist(), key=len) if len(rows) else ""
    types = sorted({t for ts in rows["types"] for t in ts})
    docs = sorted({d for ds in rows["docs"] for d in ds})
    return {
        "label": label,
        "types": types,
        "docs": docs,
        "n_mentions": int(rows["n_mentions"].sum()),
    }


def _phase1_partition(group: pd.DataFrame) -> pd.DataFrame:
    """Phase 1 kernel: all (key, salt) cells of one coarse partition. Each
    reducer sees at most corpus/n_salt mentions of any single hot key."""
    out = {"entity_key": [], "salt": [], "label": [], "types": [], "docs": [], "n_mentions": []}
    for (key, salt), rows in group.groupby(["entity_key", "salt"], sort=False):
        m = _merge_rows(rows)
        out["entity_key"].append(key)
        out["salt"].append(0)
        out["label"].append(m["label"])
        out["types"].append(m["types"])
        out["docs"].append(m["docs"])
        out["n_mentions"].append(m["n_mentions"])
    return pd.DataFrame(out)


def _phase2_partition_factory(domain: str):
    def _phase2(group: pd.DataFrame) -> pd.DataFrame:
        out = {"entity_uri": [], "entity_key": [], "label": [], "types": [],
               "n_docs": [], "n_mentions": []}
        for key, rows in group.groupby("entity_key", sort=False):
            m = _merge_rows(rows)
            out["entity_uri"].append(f"{domain}/entity/{key}")
            out["entity_key"].append(key)
            out["label"].append(m["label"])
            out["types"].append(m["types"])
            out["n_docs"].append(len(m["docs"]))
            out["n_mentions"].append(m["n_mentions"])
        return pd.DataFrame(out)

    return _phase2


def global_entity_table(
    triples: "ray.data.Dataset",
    domain: str = "https://example.com",
    n_salt: int = 16,
    n_parts: int = 64,
) -> "ray.data.Dataset":
    """Salted two-phase shuffle → global entity table
    (entity_uri, entity_key, label, types, n_docs, n_mentions).

    Phase 1 shuffles on (key, salt) (the kernel loops the (key, salt)
    cells); phase 2 shuffles on key over ≤ n_salt partial rows per key,
    both through ``shuffle_by``. Per-invocation overhead is amortized
    across partitions; hot-key fan-in is bounded by n_salt."""
    mentions = triples.map_batches(
        lambda b: _entity_mentions(b, n_salt), batch_format="pyarrow"
    )
    partial = shuffle_by(
        mentions, ["entity_key", "salt"], _phase1_partition, n_parts
    )
    return shuffle_by(
        partial, "entity_key", _phase2_partition_factory(domain), n_parts
    )


def merge_cross_doc(
    triples: "ray.data.Dataset",
    domain: str = "https://example.com",
    n_salt: int = 16,
) -> tuple["ray.data.Dataset", "ray.data.Dataset"]:
    """→ (rewritten triples ∪ sameAs lineage, global entity table)."""
    rewritten = triples.map_batches(rewrite_to_global, batch_format="pyarrow")
    entities = global_entity_table(triples, domain=domain, n_salt=n_salt)
    return rewritten, entities


def _merge_label(a: str, b: str) -> str:
    """Longest-label rule (the batch `_merge_rows` argmax) with a
    deterministic lexicographic tiebreak — associative + commutative, so
    incremental merging commutes with full-batch recomputation."""
    if len(a) != len(b):
        return a if len(a) > len(b) else b
    return a if a <= b else b


def incremental_global_entities(
    old_table: "ray.data.Dataset",
    new_triples: "ray.data.Dataset",
    domain: str = "https://example.com",
    n_salt: int = 16,
    n_parts: int = 64,
) -> "ray.data.Dataset":
    """Incremental cross-document entity-table update — the daily-crawl
    shape for KG construction (the reference reprocesses the corpus; at
    10¹²-doc scale only the NEW batch may be touched): aggregate the new
    batch's mentions with the same salted two-phase shuffle as
    `global_entity_table`, then merge against yesterday's table on ONE
    coarse ``hash(entity_key) % P`` shuffle. → the updated table
    (entity_uri, entity_key, label, types, n_docs, n_mentions, status)
    with status ∈ {'new', 'updated', 'unchanged'}.

    Merge rules are associative/commutative (longest-label with lexical
    tiebreak, type-set union, count sums — doc sets of distinct crawl
    days are disjoint by construction), so the incremental result equals
    the full-batch `global_entity_table` over old∪new, row for row
    (property-tested). Old rows never re-aggregate; the shuffle carries
    O(|table| + |new batch keys|) rows, never the old corpus.
    """
    new_agg = global_entity_table(
        new_triples, domain=domain, n_salt=n_salt, n_parts=n_parts
    )

    def tag(origin: int):
        def _t(batch: pa.Table) -> pa.Table:
            return batch.append_column(
                "origin",
                pa.array(np.full(len(batch), origin, dtype=np.int8)),
            )

        return _t

    both = old_table.map_batches(
        tag(0), batch_format="pyarrow"
    ).union(new_agg.map_batches(tag(1), batch_format="pyarrow"))

    def merge(group: pd.DataFrame) -> pd.DataFrame:
        out = {"entity_uri": [], "entity_key": [], "label": [],
               "types": [], "n_docs": [], "n_mentions": [], "status": []}
        for key, rows in group.groupby("entity_key", sort=False):
            origins = set(rows["origin"].tolist())
            label = ""
            for lb in rows["label"]:
                label = _merge_label(label, lb)
            types = sorted({t for ts in rows["types"] for t in ts})
            out["entity_uri"].append(f"{domain}/entity/{key}")
            out["entity_key"].append(key)
            out["label"].append(label)
            out["types"].append(types)
            out["n_docs"].append(int(rows["n_docs"].sum()))
            out["n_mentions"].append(int(rows["n_mentions"].sum()))
            out["status"].append(
                "unchanged" if origins == {0}
                else ("new" if origins == {1} else "updated")
            )
        df = pd.DataFrame(out)
        df["n_docs"] = df["n_docs"].astype("int64")
        df["n_mentions"] = df["n_mentions"].astype("int64")
        return df

    return shuffle_by(both, "entity_key", merge, n_parts)
