"""Property tests for ops/curation.py: per-group caps and benchmark
decontamination (driver-oracle legs live in test_driver_contract.py)."""

import numpy as np
import pandas as pd
import pyarrow as pa

import ray.data

from ontocast_ray.ops.curation import cap_per_group, decontaminate
from ontocast_ray.ops.dedup import _shingle_hashes
from ontocast_ray.ops.interleave import splitmix64


def _skewed_frame():
    rng = np.random.default_rng(5)
    groups = np.repeat(
        [f"g{i}" for i in range(6)], [400, 200, 100, 9, 3, 1]
    )
    ids = rng.permutation(len(groups)).astype(np.int64)
    return pa.table(
        {
            "doc_id": pa.array(ids),
            "source": pa.array(groups),
            "payload": pa.array(ids * 2),
        }
    )


def _expected_cap(tbl: pa.Table, cap: int, seed: int) -> pd.DataFrame:
    df = tbl.to_pandas()
    df["_u"] = splitmix64(df["doc_id"].to_numpy().astype(np.uint64), seed)
    return (
        df.sort_values(["_u", "doc_id"])
        .groupby("source", sort=False)
        .head(cap)
        .drop(columns="_u")
        .sort_values("doc_id")
        .reset_index(drop=True)
    )


def test_cap_per_group_matches_reference(ray_session):
    tbl = _skewed_frame()
    got = (
        cap_per_group(
            ray.data.from_arrow(tbl).repartition(8),
            group_col="source", cap=10, seed=3,
        )
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    exp = _expected_cap(tbl, cap=10, seed=3)
    # groups smaller than the cap survive whole; larger are capped at 10
    sizes = got.groupby("source").size()
    assert sizes[["g0", "g1", "g2"]].eq(10).all()
    assert sizes["g3"] == 9 and sizes["g4"] == 3 and sizes["g5"] == 1
    pd.testing.assert_frame_equal(
        got[["doc_id", "source", "payload"]], exp[["doc_id", "source", "payload"]]
    )


def test_cap_per_group_parallelism_invariant(ray_session):
    tbl = _skewed_frame()
    outs = []
    for parts in (1, 16):
        outs.append(
            cap_per_group(
                ray.data.from_arrow(tbl).repartition(parts),
                group_col="source", cap=7, seed=1,
            )
            .to_pandas().sort_values("doc_id").reset_index(drop=True)
        )
    pd.testing.assert_frame_equal(outs[0], outs[1])


def test_remove_boilerplate_lines(ray_session):
    from ontocast_ray.ops.curation import remove_boilerplate_lines

    tbl = pa.table(
        {
            "doc_id": pa.array([1, 2, 3], type=pa.int64()),
            "text": pa.array(
                [
                    "HEADER\nunique one\nFOOTER",
                    "HEADER\nunique two",
                    "HEADER\nunique three\nFOOTER",
                ]
            ),
        }
    )
    out = (
        remove_boilerplate_lines(
            ray.data.from_arrow(tbl).repartition(3), min_count=2
        )
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    assert out["text"].tolist() == ["unique one", "unique two", "unique three"]
    assert out["n_removed"].tolist() == [2, 1, 2]

    # threshold above every count → nothing removed
    out2 = remove_boilerplate_lines(
        ray.data.from_arrow(tbl), min_count=10
    ).to_pandas().sort_values("doc_id")
    assert out2["n_removed"].tolist() == [0, 0, 0]
    assert out2["text"].tolist() == tbl["text"].to_pylist()


def test_remove_boilerplate_scale_path_matches_broadcast(ray_session, monkeypatch):
    """min_count=2 worst case (EVERY line duplicated → the frequent set is
    O(corpus distinct lines), the 100 TB broadcast killer): a 0 limit
    forces the Bloom-pruned shuffle-semi-join path; driver memory is bounded
    by the fixed-size bitmap and the output is byte-identical to the
    broadcast path."""
    import numpy as np

    from ontocast_ray.ops import curation
    from ontocast_ray.ops.curation import remove_boilerplate_lines

    rng = np.random.default_rng(11)
    # 120 docs; every doc repeats a pool of shared lines (all frequent at
    # min_count=2) plus one unique line — mimics nav/footer boilerplate
    pool = [f"shared line number {i}" for i in range(200)]
    docs, ids = [], []
    for d in range(120):
        picks = rng.choice(pool, size=5, replace=False).tolist()
        # duplicate each pooled line across ≥2 docs by construction (200
        # pool lines, 600 draws) and add one unique line per doc
        docs.append("\n".join(picks[:2] + [f"only in doc {d}"] + picks[2:]))
        ids.append(d)
    tbl = pa.table({"doc_id": pa.array(ids, type=pa.int64()),
                    "text": pa.array(docs)})
    ds = lambda: ray.data.from_arrow(tbl).repartition(7)  # noqa: E731

    fast = (
        remove_boilerplate_lines(ds(), min_count=2)
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    monkeypatch.setattr(curation, "_BROADCAST_LIMIT", 0)
    scale = (
        remove_boilerplate_lines(ds(), min_count=2)
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(fast, scale)
    # a pool line drawn at least twice is scrubbed; unique lines survive
    assert all(f"only in doc {d}" in t for d, t in zip(scale["doc_id"], scale["text"]))
    # sanity: boilerplate was actually removed somewhere
    assert scale["n_removed"].sum() > 0


def _docs():
    return pa.table(
        {
            "doc_id": pa.array([1, 2, 3, 4], type=pa.int64()),
            "text": pa.array(
                [
                    "alpha beta gamma delta epsilon",
                    "zeta eta theta iota",
                    "alpha beta gamma zeta",
                    "completely different words here now",
                ]
            ),
        }
    )


def test_decontaminate_exact_counts(ray_session):
    train = ray.data.from_arrow(_docs())
    # eval corpus = doc 1's text → its 3 shingles leak
    eval_ds = ray.data.from_arrow(
        pa.table({"doc_id": [99], "text": ["alpha beta gamma delta epsilon"]})
    )
    out = (
        decontaminate(train, eval_ds, k=3)
        .to_pandas().set_index("doc_id")["n_overlap"]
    )
    # doc1 shares all 3 of its shingles; doc3 shares 'alpha beta gamma'
    assert out.to_dict() == {1: 3, 3: 1}
    # cross-check against the shared hash kernel directly
    ev = set(_shingle_hashes("alpha beta gamma delta epsilon", 3).tolist())
    d3 = set(_shingle_hashes("alpha beta gamma zeta", 3).tolist())
    assert len(ev & d3) == 1


def test_decontaminate_empty_eval(ray_session):
    train = ray.data.from_arrow(_docs())
    eval_ds = ray.data.from_arrow(
        pa.table({"doc_id": pa.array([], type=pa.int64()),
                  "text": pa.array([], type=pa.string())})
    )
    assert decontaminate(train, eval_ds, k=3).count() == 0


def test_decontaminate_parallelism_invariant(ray_session):
    tbl = _docs()
    ev = pa.table({"doc_id": [99], "text": ["alpha beta gamma delta epsilon"]})
    outs = []
    for parts in (1, 4):
        outs.append(
            decontaminate(
                ray.data.from_arrow(tbl).repartition(parts),
                ray.data.from_arrow(ev), k=3,
            )
            .to_pandas().sort_values("doc_id").reset_index(drop=True)
        )
    pd.testing.assert_frame_equal(outs[0], outs[1])


def test_normalize_text_kernel(ray_session):
    """NFC + lower + explicit-class whitespace collapse + strip; NBSP is
    NOT whitespace here (matches the RE2 oracle byte-for-byte)."""
    import pyarrow as pa
    import ray.data

    from ontocast_ray.ops.curation import normalize_text

    docs = pa.table(
        {
            "doc_id": pa.array([1, 2, 3], type=pa.int64()),
            "text": pa.array(
                [
                    "  Hello\t\tWORLD \n\n foo ",
                    "Café du Parc",  # NFD e-acute; NBSP kept
                    None,
                ]
            ),
        }
    )
    out = (
        normalize_text(ray.data.from_arrow(docs), out_col="norm")
        .to_pandas().sort_values("doc_id")
    )
    assert out["norm"].tolist() == [
        "hello world foo",
        "café du parc",
        "",
    ]
    # in-place overwrite keeps the schema
    out2 = normalize_text(ray.data.from_arrow(docs)).to_pandas()
    assert list(out2.columns) == ["doc_id", "text"]
    # leading/trailing NON-ASCII whitespace survives (DuckDB trim() strips
    # only spaces; pandas' bare .str.strip() would eat NBSP too —
    # regression guard for the byte-for-byte oracle claim)
    edge = pa.table(
        {"doc_id": pa.array([1], type=pa.int64()),
         "text": pa.array([" padded with nbsp "])}
    )
    out3 = normalize_text(ray.data.from_arrow(edge), out_col="norm").to_pandas()
    assert out3["norm"].tolist() == [" padded with nbsp "]


def test_paragraph_dedup_keep_first(ray_session):
    """Keep-FIRST semantics: the globally smallest (doc_id, idx) occurrence
    of a duplicated paragraph survives, later ones are dropped; whitespace-
    only paragraphs and unique paragraphs are untouched."""
    from ontocast_ray.ops.curation import paragraph_dedup

    tbl = pa.table({
        "doc_id": pa.array([1, 2, 3], type=pa.int64()),
        "text": pa.array([
            "alpha\n\nshared para",          # first occurrence of 'shared para'
            "shared para\nbeta\nshared para",  # both dropped (doc 1 won)
            " \ngamma\nalpha",               # 'alpha' dropped (doc 1 won)
        ]),
    })
    out = (
        paragraph_dedup(ray.data.from_arrow(tbl).repartition(2))
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    assert out["text"].tolist() == ["alpha\n\nshared para", "beta", " \ngamma"]
    assert out["n_removed"].tolist() == [0, 2, 1]


def test_paragraph_dedup_scale_path_matches_broadcast(ray_session, monkeypatch):
    """A 0 broadcast limit forces the Bloom-pruned shuffle-semi-join path;
    output must be byte-identical to the broadcast fast path even when
    every paragraph is duplicated (the worst-case dup set)."""
    import numpy as np

    from ontocast_ray.ops import curation
    from ontocast_ray.ops.curation import paragraph_dedup

    rng = np.random.default_rng(17)
    pool = [f"recurring paragraph {i}" for i in range(150)]
    docs, ids = [], []
    for d in range(100):
        picks = rng.choice(pool, size=4, replace=False).tolist()
        docs.append("\n".join(picks[:2] + [f"unique to doc {d}"] + picks[2:]))
        ids.append(d)
    tbl = pa.table({"doc_id": pa.array(ids, type=pa.int64()),
                    "text": pa.array(docs)})
    ds = lambda: ray.data.from_arrow(tbl).repartition(7)  # noqa: E731

    fast = (
        paragraph_dedup(ds())
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    monkeypatch.setattr(curation, "_BROADCAST_LIMIT", 0)
    scale = (
        paragraph_dedup(ds())
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(fast, scale)
    assert all(
        f"unique to doc {d}" in t for d, t in zip(scale["doc_id"], scale["text"])
    )
    # every pooled paragraph keeps exactly ONE occurrence corpus-wide
    all_paras = [p for t in scale["text"] for p in t.split("\n")]
    from collections import Counter
    c = Counter(p for p in all_paras if p.startswith("recurring"))
    assert c and all(v == 1 for v in c.values())
    assert scale["n_removed"].sum() > 0


def test_paragraph_dedup_scale_path_pandas_block_lineage(ray_session, monkeypatch):
    """The CLAUDE.md schema trap: pandas-block lineage reports numpy
    dtypes; the scale path's null-id rows must still build typed arrow
    columns (to_arrow_type normalization) instead of crashing."""
    from ontocast_ray.ops import curation
    from ontocast_ray.ops.curation import paragraph_dedup

    monkeypatch.setattr(curation, "_BROADCAST_LIMIT", 0)
    df = pd.DataFrame({
        "doc_id": [1, 2, 3],
        "text": ["dup para\nalpha", "dup para\nbeta", "dup para\ngamma"],
    })
    out = (
        paragraph_dedup(ray.data.from_pandas(df).repartition(2))
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    assert out["text"].tolist() == ["dup para\nalpha", "beta", "gamma"]
    assert out["n_removed"].tolist() == [0, 1, 1]
