"""Cross-document entity merge: salted two-phase full-batch table, one-shuffle
incremental update, pure-map rewrite."""

import pyarrow as pa
import pytest

from ontocast_ray.corpus import generate_corpus
from ontocast_ray.pipelines.crossdoc import (
    entity_key_of,
    global_uri_of,
    merge_cross_doc,
    rewrite_to_global,
)
from ontocast_ray.pipelines.kg import build_kg_pipeline


def test_entity_key_and_global_uri():
    uri = "https://example.com/doc/0123456789ab/ACME_Corporation"
    assert entity_key_of(uri) == "acme_corporation"
    assert global_uri_of(uri) == "https://example.com/entity/acme_corporation"
    # non-doc URIs pass through
    assert entity_key_of("https://schema.org/Person") is None
    assert entity_key_of("https://example.com/doc/0123456789ab/chunk/abc/x") is None


def test_cross_doc_merge_end_to_end(ray_session):
    import ray.data

    corpus = generate_corpus(n_docs=20, seed=42, head_entity_fraction=0.5)
    docs = ray.data.from_arrow(corpus)
    triples = build_kg_pipeline(
        docs, min_chunk_size=200, max_chunk_size=2000,
    )
    rewritten, entities = merge_cross_doc(triples)
    ent_rows = entities.take_all()
    by_key = {r["entity_key"]: r for r in ent_rows}

    # the head entity appears across many docs and merges to ONE global row
    head = [r for r in ent_rows if r["entity_key"].startswith("acme_")]
    assert head, "head entity missing"
    assert max(r["n_docs"] for r in head) >= 3
    # longest label variant wins
    best = max(head, key=lambda r: r["n_docs"])
    assert best["label"] in ("ACME Corporation", "ACME Corp")

    rew = rewritten.take_all()
    # rewritten facts reference global entity URIs
    assert any("/entity/" in r["subject"] for r in rew if r["graph_scope"] == "facts")
    # sameAs lineage present and consistent
    sameas = [r for r in rew if r["graph_scope"] == "sameas"]
    assert sameas
    for r in sameas[:20]:
        assert global_uri_of(r["subject"]) == r["object"]


def test_salting_is_result_invariant(ray_session):
    """The salted two-phase merge must produce the same entity table as an
    unsalted single-phase one (n_salt=1) — salting redistributes work, never
    changes results. Run on an extreme-skew corpus (head entity in ~all docs)."""
    import ray.data

    from ontocast_ray.pipelines.crossdoc import global_entity_table

    corpus = generate_corpus(n_docs=16, seed=3, head_entity_fraction=1.0)
    docs = ray.data.from_arrow(corpus)
    triples = build_kg_pipeline(
        docs, min_chunk_size=200, max_chunk_size=2000,
    ).materialize()

    def table_of(n_salt):
        rows = global_entity_table(triples, n_salt=n_salt).take_all()
        return {
            r["entity_key"]: (r["label"], tuple(r["types"]), r["n_docs"], r["n_mentions"])
            for r in rows
        }

    assert table_of(1) == table_of(8)


def test_rewrite_is_pure_map():
    """The rewrite needs no shuffle: global URI is a function of the row."""
    batch = pa.table(
        {
            "subject": ["https://example.com/doc/aaaaaaaaaaaa/John_Doe"],
            "predicate": ["https://example.com/corp#worksAt"],
            "object": ["https://example.com/doc/aaaaaaaaaaaa/ACME_Corp"],
            "object_is_literal": [False],
            "object_datatype": pa.array([None], type=pa.string()),
            "object_lang": pa.array([None], type=pa.string()),
            "doc_id": ["d1"],
            "doc_iri": ["https://example.com/doc/aaaaaaaaaaaa"],
            "chunk_hid": [""],
            "chunk_idx": pa.array([-1], type=pa.int32()),
            "graph_scope": ["facts"],
        }
    )
    out = rewrite_to_global(batch)
    rows = out.to_pylist()
    fact = rows[0]
    assert fact["subject"] == "https://example.com/entity/john_doe"
    assert fact["object"] == "https://example.com/entity/acme_corp"
    sameas = [r for r in rows if r["graph_scope"] == "sameas"]
    assert len(sameas) == 2


def _kg_triples(n_docs, seed, head_entity_fraction):
    import ray.data

    corpus = generate_corpus(
        n_docs=n_docs, seed=seed, head_entity_fraction=head_entity_fraction
    )
    return build_kg_pipeline(
        ray.data.from_arrow(corpus), min_chunk_size=200, max_chunk_size=2000,
    ).materialize()


def _docs_in(triples, lo, hi):
    """Triples whose zero-padded doc-id string is in [lo, hi) (corpus ids
    sort lexically; sameas/"" rows carry no mentions either way)."""
    def keep(b):
        return b.filter(pa.array([lo <= (d or "") < hi for d in b["doc_id"].to_pylist()]))

    return triples.map_batches(keep, batch_format="pyarrow")


_TABLE_COLS = ["entity_uri", "entity_key", "label", "n_docs", "n_mentions"]


def _sorted_rows(df):
    return df[_TABLE_COLS].sort_values("entity_key").reset_index(drop=True)


@pytest.mark.parametrize(
    "seed,head_entity_fraction",
    [pytest.param(7, 0.4, id="head0.4"), pytest.param(3, 1.0, id="head1.0")],
)
def test_incremental_equals_full_batch(ray_session, seed, head_entity_fraction):
    """The associativity contract: merging a new batch into yesterday's
    table must equal full-batch recomputation over old∪new, row for row
    (modulo the status column) — the property that makes the incremental
    op safe to run daily without drift. Run at a moderate and at an
    extreme (head entity in every doc) skew."""
    from ontocast_ray.pipelines.crossdoc import (
        global_entity_table,
        incremental_global_entities,
    )

    triples = _kg_triples(24, seed, head_entity_fraction)
    old_t = _docs_in(triples, "doc-000000", "doc-000012")
    new_t = _docs_in(triples, "doc-000012", "doc-999999")

    old_table = global_entity_table(old_t)
    inc = incremental_global_entities(old_table, new_t, n_parts=4).to_pandas()
    full = global_entity_table(
        _docs_in(triples, "doc-000000", "doc-999999")
    ).to_pandas()

    a, b = _sorted_rows(inc), _sorted_rows(full)
    assert a.equals(b), (len(a), len(b))
    # status sanity: every row is labeled, and new keys are not old keys
    assert set(inc["status"]) <= {"new", "updated", "unchanged"}
    old_keys = set(old_table.to_pandas()["entity_key"])
    new_keys = set(inc.query("status == 'new'")["entity_key"])
    assert new_keys.isdisjoint(old_keys)
    # types merge is a set union
    ti = inc.set_index("entity_key")["types"]
    tf = full.set_index("entity_key")["types"]
    assert all(list(ti[k]) == list(tf[k]) for k in ti.index)


@pytest.fixture(scope="module")
def small_triples(ray_session):
    return _kg_triples(12, 5, 0.5)


def test_incremental_empty_new_batch_keeps_old_table(small_triples):
    from ontocast_ray.pipelines.crossdoc import (
        global_entity_table,
        incremental_global_entities,
    )

    old_table = global_entity_table(small_triples).materialize()
    none = _docs_in(small_triples, "x", "x")
    inc = incremental_global_entities(old_table, none, n_parts=4).to_pandas()
    assert _sorted_rows(inc).equals(_sorted_rows(old_table.to_pandas()))
    assert set(inc["status"]) == {"unchanged"}


def test_incremental_empty_old_table_equals_full_batch(small_triples):
    from ontocast_ray.pipelines.crossdoc import (
        global_entity_table,
        incremental_global_entities,
    )

    empty_old = global_entity_table(_docs_in(small_triples, "x", "x"))
    inc = incremental_global_entities(empty_old, small_triples, n_parts=4).to_pandas()
    full = global_entity_table(small_triples).to_pandas()
    assert len(full) > 0
    assert _sorted_rows(inc).equals(_sorted_rows(full))
    assert set(inc["status"]) == {"new"}


def test_incremental_both_empty(small_triples):
    from ontocast_ray.pipelines.crossdoc import (
        global_entity_table,
        incremental_global_entities,
    )

    none = _docs_in(small_triples, "x", "x")
    empty_old = global_entity_table(none)
    assert incremental_global_entities(empty_old, none, n_parts=4).count() == 0


def test_incremental_runs_one_shuffle(small_triples, monkeypatch):
    """Structural guard: the incremental merge is ONE shuffle over the new
    batch's combiner rows ∪ the old table — no salted pre-aggregation."""
    from ontocast_ray.pipelines import crossdoc

    old_table = crossdoc.global_entity_table(small_triples)
    calls = []
    real = crossdoc.shuffle_by

    def counting(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(crossdoc, "shuffle_by", counting)
    crossdoc.incremental_global_entities(old_table, small_triples, n_parts=4)
    assert calls == ["entity_key"]


def test_incremental_execution_counts(small_triples, tmp_path, executions):
    """Over a materialized old table and materialized new triples the merge
    runs as plain Ray tasks and starts no Ray Data execution, reading its
    result included; over a lazy ``read_parquet`` of the same triples it
    starts exactly one, the read's, and gives the same table."""
    import ray.data

    from ontocast_ray.pipelines.crossdoc import (
        global_entity_table,
        incremental_global_entities,
    )

    old_table = global_entity_table(_docs_in(small_triples, "", "doc-000006")).materialize()
    new = _docs_in(small_triples, "doc-000006", "doc-999999").materialize()
    path = str(tmp_path / "new")
    new.write_parquet(path)
    executions.clear()
    eager = incremental_global_entities(old_table, new).to_pandas()
    assert executions == []
    lazy = incremental_global_entities(old_table, ray.data.read_parquet(path)).to_pandas()
    assert len(executions) == 1 and "ReadParquet" in executions[0], executions
    assert len(eager) > 0 and set(eager["status"]) >= {"new", "updated"}
    assert _sorted_rows(lazy).equals(_sorted_rows(eager))


def _crawl_day(n_blocks, per_block, n_keys, seed):
    """Synthetic doc-canonical triples: ``n_blocks`` blocks of one doc
    each, ``per_block`` entities per doc drawn from ``n_keys`` keys, each
    with an rdfs:label and an rdf:type triple."""
    import numpy as np
    import ray.data

    from ontocast_ray.rdf.namespaces import RDF, RDFS

    rng = np.random.RandomState(seed)
    blocks = []
    for b in range(n_blocks):
        doc = f"doc-{seed:02d}{b:04d}"
        hid = f"{seed * 10_000 + b:012x}"
        subs, preds, objs = [], [], []
        for k in rng.choice(n_keys, size=per_block, replace=False):
            s = f"https://example.com/doc/{hid}/Entity{k}"
            subs += [s, s]
            preds += [str(RDFS.label), str(RDF.type)]
            objs += [f"Entity {k} " + "x" * int(rng.randint(8)),
                     f"https://example.com/type/T{k % 13}"]
        blocks.append(pa.table({"subject": subs, "predicate": preds,
                                "object": objs, "doc_id": [doc] * len(subs)}))
    return ray.data.from_arrow(blocks)


def test_incremental_merge_same_on_gather_and_sort(ray_session, monkeypatch, caplog):
    """A crawl-sized merge (~3.5 MiB of merge rows in 26 blocks) gathers
    under the default byte limit, and gives the same table, row for row
    and status included, as the sort path forced by a limit of 0."""
    import logging

    from ontocast_ray.ops import shuffle
    from ontocast_ray.pipelines.crossdoc import (
        global_entity_table,
        incremental_global_entities,
    )

    caplog.set_level(logging.DEBUG, logger=shuffle.__name__)
    old_table = global_entity_table(_crawl_day(8, 2_000, 24_000, 1)).materialize()
    new_t = _crawl_day(25, 1_000, 24_000, 2).materialize()

    tables, paths = [], []
    for limit in (shuffle._GATHER_BYTES, 0):
        monkeypatch.setattr(shuffle, "_GATHER_BYTES", limit)
        caplog.clear()
        df = incremental_global_entities(old_table, new_t, n_parts=8).to_pandas()
        [msg] = [r.getMessage() for r in caplog.records if r.name == shuffle.__name__]
        paths.append(msg)
        df["types"] = df["types"].map(list)
        tables.append(df.sort_values("entity_key").to_dict("records"))
    assert "path=gather" in paths[0] and "path=sort" in paths[1], paths
    mb = int(paths[0].split("bytes=")[1].split()[0]) / 2**20
    assert 2 < mb < 64, paths[0]
    assert {r["status"] for r in tables[0]} == {"new", "updated", "unchanged"}
    assert tables[0] == tables[1]


def _loop_entity_mentions(batch: pa.Table) -> pa.Table:
    """The per-row combiner that ``_entity_mentions`` replaced, verbatim:
    the oracle for its vectorized form."""
    from ontocast_ray.pipelines.crossdoc import _new_rows
    from ontocast_ray.rdf.namespaces import RDF, RDFS

    rdfs_label = str(RDFS.label)
    rdf_type = str(RDF.type)
    subs = batch["subject"].to_pylist()
    preds = batch["predicate"].to_pylist()
    objs = batch["object"].to_pylist()
    docs = batch["doc_id"].to_pylist()
    acc: dict[str, list] = {}
    for s, p, o, d in zip(subs, preds, objs, docs):
        key = entity_key_of(s)
        if key is None:
            continue
        ent = acc.get(key)
        if ent is None:
            ent = ["", set(), set(), 0, 0]
            acc[key] = ent
        ent[4] += 1
        ent[2].add(d)
        if p == rdfs_label and len(o) > len(ent[0]):
            ent[0] = o
        elif p == rdf_type:
            ent[1].add(o)
    return _new_rows(list(acc), acc.values())


def _mention_rows():
    """Label ties, keys without a label, non-ASCII labels and keys (where
    str.lower and Arrow's lowering differ), case-only key twins, chunk IRIs
    and non-entity subjects."""
    label = "http://www.w3.org/2000/01/rdf-schema#label"
    rdf_type = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"
    other = "https://example.com/onto#worksAt"
    doc = "https://example.com/doc/0123456789ab"
    chunk = f"{doc}/chunk/fedcba987654"
    return [
        (f"{doc}/Acme", label, "Acme Inc", "d2"),
        (f"{doc}/ACME", label, "ACME Co.", "d1"),  # same key, same length: first wins
        (f"{doc}/acme", rdf_type, "https://schema.org/Org", "d1"),
        (f"{doc}/Acme", rdf_type, "https://schema.org/Company", "d2"),
        (f"{doc}/Acme", rdf_type, "https://schema.org/Org", "d3"),
        (f"{chunk}/Zoë", label, "Zoëë", "d1"),  # 4 code points, 6 bytes
        (f"{chunk}/Zoë", label, "Zoeee", "d1"),  # 5 code points: longer
        (f"{chunk}/Zoë", label, "Zoëëë", "d1"),  # 5 code points: a tie
        (f"{doc}/İstanbul", other, f"{doc}/ΟΔΟΣ", "d4"),  # no label
        (f"{doc}/ΟΔΟΣ", label, "Οδός", "d4"),
        (f"{doc}/ΟΔΟΣ", label, "", "d5"),
        (chunk, rdf_type, "http://www.w3.org/ns/prov#Entity", "d1"),  # chunk IRI
        (f"{doc}/chunk", label, "not an entity", "d1"),
        ("https://schema.org/Person", label, "Person", "d1"),
        (f"{doc}/x/y", label, "too deep", "d1"),
        (f"{doc}/Only_Type", rdf_type, "https://schema.org/Thing", "d6"),
    ]


def _mention_table(rows, chunks: int = 1) -> pa.Table:
    cols = list(zip(*rows))
    names = ["subject", "predicate", "object", "doc_id"]
    t = pa.table({n: pa.array(c, pa.string()) for n, c in zip(names, cols)})
    step = max(1, -(-len(t) // chunks))
    return pa.concat_tables([t.slice(i, step) for i in range(0, len(t), step)])


@pytest.mark.parametrize("chunks", [1, 3])
def test_entity_mentions_equal_the_row_loop(chunks):
    from ontocast_ray.pipelines.crossdoc import _entity_mentions

    rows = _mention_rows()
    table = _mention_table(rows, chunks)
    got, want = _entity_mentions(table), _loop_entity_mentions(table)
    assert got.equals(want), (got.to_pylist(), want.to_pylist())
    by_key = {r["entity_key"]: r for r in got.to_pylist()}
    assert by_key["acme"]["label"] == "Acme Inc"
    assert by_key["zoë"]["label"] == "Zoeee"
    assert "İstanbul".lower() in by_key and by_key["İstanbul".lower()]["label"] == ""
    assert by_key["only_type"]["types"] == ["https://schema.org/Thing"]
    # any order of the same rows
    shuffled = rows[::-1]
    assert _entity_mentions(_mention_table(shuffled)).equals(
        _loop_entity_mentions(_mention_table(shuffled)))


def test_entity_mentions_without_entities_is_empty():
    from ontocast_ray.pipelines.crossdoc import _MERGE_SCHEMA, _entity_mentions

    table = _mention_table([("https://schema.org/Person", "p", "o", "d1")])
    assert _entity_mentions(table).equals(_loop_entity_mentions(table))
    assert _entity_mentions(table.slice(0, 0)).schema == _MERGE_SCHEMA


def test_entity_mentions_equal_the_row_loop_on_kernel_output():
    from ontocast_ray.pipelines.crossdoc import _entity_mentions
    from ontocast_ray.pipelines.kg import KGProcessDocs
    from ontocast_ray.stages.assemble import assemble_spans

    docs = generate_corpus(n_docs=48, seed=11, head_entity_fraction=0.5,
                           target_doc_chars=400)
    triples = KGProcessDocs(min_chunk_size=200, max_chunk_size=2000)(assemble_spans(docs))
    assert _entity_mentions(triples).equals(_loop_entity_mentions(triples))


# --- the merge kernels against the row loops they replaced ------------------

def _loop_merge_label(a: str, b: str) -> str:
    if len(a) != len(b):
        return a if len(a) > len(b) else b
    return a if a <= b else b


def _loop_fold(keys, rows: pa.Table) -> dict:
    """The per-row fold of the merge kernels, verbatim: the oracle for
    ``_fold_cells``."""
    from ontocast_ray.pipelines.crossdoc import _MERGE_SCHEMA

    acc: dict = {}
    cols = (rows[c].to_pylist() for c in _MERGE_SCHEMA.names[1:])
    for key, label, types, docs, n_docs, n_mentions, origin in zip(keys, *cols):
        ent = acc.get(key)
        if ent is None:
            ent = ["", set(), set(), 0, 0, set()]
            acc[key] = ent
        ent[0] = _loop_merge_label(ent[0], label)
        ent[1].update(types)
        ent[2].update(docs)
        ent[3] += n_docs
        ent[4] += n_mentions
        ent[5].add(origin)
    return acc


def _loop_merge_entities(group: pa.Table, domain: str, status: bool) -> pa.Table:
    statuses = {frozenset({0}): "unchanged", frozenset({1}): "new",
                frozenset({0, 1}): "updated"}
    acc = _loop_fold(group["entity_key"].to_pylist(), group)
    ents = acc.values()
    out = {
        "entity_uri": [f"{domain}/entity/{k}" for k in acc],
        "entity_key": list(acc),
        "label": [e[0] for e in ents],
        "types": pa.array([sorted(e[1]) for e in ents], pa.list_(pa.string())),
        "n_docs": [e[3] + len(e[2]) for e in ents],
        "n_mentions": [e[4] for e in ents],
    }
    if status:
        out["status"] = [statuses[frozenset(e[5])] for e in ents]
    return pa.table(out)


def _loop_phase1(group: pa.Table) -> pa.Table:
    from ontocast_ray.pipelines.crossdoc import _new_rows

    acc = _loop_fold(zip(group["entity_key"].to_pylist(), group["salt"].to_pylist()), group)
    return _new_rows([k for k, _ in acc], acc.values())


def _merge_rows(seed: int, n: int = 400, chunks: int = 3) -> pa.Table:
    """Merge rows with label ties (same length, different text), non-ASCII
    labels (code points ≠ bytes), empty labels and type lists, doc lists
    that overlap across rows, and origins 0 and 1, so every status shows."""
    import random

    from ontocast_ray.pipelines.crossdoc import _MERGE_SCHEMA

    rng = random.Random(seed)
    labels = ["Amara Haddad", "Maria Haddad", "Omar Haddad", "Zoë", "Zoe", "Zoëë", "中文",
              "ab", "AB", "Ab", "", "😀x", "x😀", "Acme Corporation"]
    types = ["https://schema.org/Person", "https://schema.org/Org", "https://é.org/T"]
    keys = [f"k{i}" for i in range(40)] + ["zoë", "amara_haddad"]
    rows = []
    for _ in range(n):
        origin = rng.random() < 0.3
        rows.append({
            "entity_key": rng.choice(keys), "label": rng.choice(labels),
            "types": sorted(rng.sample(types, rng.randint(0, 2))),
            "docs": [] if origin else sorted(rng.sample([f"d{i}" for i in range(30)],
                                                        rng.randint(1, 3))),
            "n_docs": rng.randint(1, 9) if origin else 0, "n_mentions": rng.randint(1, 5),
            "origin": 0 if origin else 1,
        })
    rows += [{"entity_key": "untyped", "label": label, "types": [], "docs": [doc],
              "n_docs": 0, "n_mentions": 1, "origin": 1}
             for label, doc in [("Zoë", "d1"), ("Zoe", "d2"), ("Zoëë", "d1")]]
    rows.append({"entity_key": "yesterday_only", "label": "Old", "types": types[:1],
                 "docs": [], "n_docs": 4, "n_mentions": 7, "origin": 0})
    t = pa.Table.from_pylist(rows, schema=_MERGE_SCHEMA)
    step = -(-len(t) // chunks)
    return pa.concat_tables([t.slice(i, step) for i in range(0, len(t), step)])


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("status", [False, True])
def test_merge_kernel_equals_the_row_loop(seed, status):
    from ontocast_ray.pipelines.crossdoc import _merge_entities_factory

    rows = _merge_rows(seed)
    got = _merge_entities_factory("https://example.com", status)(rows)
    want = _loop_merge_entities(rows, "https://example.com", status)
    assert got.equals(want), (got.slice(0, 3).to_pylist(), want.slice(0, 3).to_pylist())
    if status:
        assert set(got["status"].to_pylist()) == {"new", "updated", "unchanged"}
    untyped = got.filter(pa.compute.equal(got["entity_key"], "untyped")).to_pylist()
    assert [(r["label"], r["types"], r["n_docs"]) for r in untyped] == [("Zoëë", [], 2)]


def test_merge_kernel_breaks_label_ties_lexically():
    from ontocast_ray.pipelines.crossdoc import _MERGE_SCHEMA, _merge_entities_factory

    rows = pa.Table.from_pylist([
        {"entity_key": "amara_haddad", "label": label, "types": [], "docs": [doc],
         "n_docs": 0, "n_mentions": 1, "origin": 1}
        for label, doc in [("Omar Haddad", "d1"), ("Amara Haddad", "d2"),
                           ("Maria Haddad", "d1"), ("Zoë", "d3")]
    ], schema=_MERGE_SCHEMA)
    got = _merge_entities_factory("https://example.com", True)(rows).to_pylist()
    assert got == [{"entity_uri": "https://example.com/entity/amara_haddad",
                    "entity_key": "amara_haddad", "label": "Amara Haddad", "types": [],
                    "n_docs": 3, "n_mentions": 4, "status": "new"}]
    assert got == _loop_merge_entities(rows, "https://example.com", True).to_pylist()


@pytest.mark.parametrize("seed", range(4))
def test_phase1_kernel_equals_the_row_loop(seed):
    from ontocast_ray.pipelines.crossdoc import _phase1_partition

    rows = _merge_rows(seed)
    rows = rows.append_column("salt", pa.array([i % 3 for i in range(len(rows))], pa.int32()))
    got, want = _phase1_partition(rows), _loop_phase1(rows)
    assert got.equals(want), (got.slice(0, 3).to_pylist(), want.slice(0, 3).to_pylist())


def test_merge_kernels_on_empty_input():
    from ontocast_ray.pipelines.crossdoc import (
        _MERGE_SCHEMA, _merge_entities_factory, _phase1_partition,
    )

    rows = _MERGE_SCHEMA.empty_table()
    got = _merge_entities_factory("https://example.com", True)(rows)
    assert got.num_rows == 0
    assert got.schema.names == _loop_merge_entities(rows, "https://example.com", True).schema.names
    salted = rows.append_column("salt", pa.array([], pa.int32()))
    assert _phase1_partition(salted).equals(_loop_phase1(salted))
