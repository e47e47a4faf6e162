"""Edge-case robustness: empty docs, media-only docs, empty batches."""

import pyarrow as pa

from ontocast_ray.model import DOCS_SCHEMA
from ontocast_ray.stages.assemble import assemble_spans
from ontocast_ray.pipelines.kg import KGProcessDocs


def _docs(rows):
    return pa.table(
        {
            "doc_id": pa.array([r[0] for r in rows], type=pa.string()),
            "spans": pa.array([r[1] for r in rows], type=DOCS_SCHEMA.field("spans").type),
        }
    )


def test_pipeline_handles_degenerate_docs():
    batch = _docs(
        [
            ("empty", []),
            ("media-only", [
                {"kind": "image", "text": "", "media_ref": "media://x/1", "offset": 0}
            ]),
            ("whitespace", [
                {"kind": "text", "text": "   \n  ", "media_ref": "", "offset": 0}
            ]),
            ("normal", [
                {"kind": "text",
                 "text": "Ann Lee is a person. Ann Lee works at Foo Labs. Foo Labs is a company.",
                 "media_ref": "", "offset": 0}
            ]),
        ]
    )
    proc = KGProcessDocs(ontology_seeds=[], min_chunk_size=10, max_chunk_size=2000)
    out = proc(assemble_spans(batch))
    # degenerate docs produce no rows but must not crash; the normal one works
    doc_ids = set(out["doc_id"].to_pylist())
    assert "normal" in doc_ids
    facts = out.filter(pa.compute.equal(out["graph_scope"], pa.scalar("facts")))
    assert facts.num_rows > 0


def test_empty_batch():
    proc = KGProcessDocs(ontology_seeds=[])
    out = proc(assemble_spans(_docs([])))
    assert out.num_rows == 0
    from ontocast_ray.model import TRIPLES_SCHEMA

    assert out.schema.equals(TRIPLES_SCHEMA)


def test_chunker_empty_text():
    from ontocast_ray.stages.chunking import ChunkDocuments

    batch = _docs([("e", [{"kind": "text", "text": "", "media_ref": "", "offset": 0}])])
    chunks = ChunkDocuments()(assemble_spans(batch))
    # one empty chunk survives — mirrors the reference's ChunkerTool, which
    # also passes an empty doc through as a single empty chunk; it then
    # yields zero facts plus a status row downstream
    assert chunks.num_rows == 1
    assert chunks["text"][0].as_py() == ""
    assert chunks["spans"][0].as_py()[0]["kind"] == "text"


def test_round3_ops_edge_cases(ray_session):
    """Degenerate inputs through the round-3 relational ops: null keys in
    distinct_on, groups smaller than the sample size, window k larger than
    any group, duplicate-only pivots."""
    import numpy as np
    import pandas as pd
    import ray.data

    from ontocast_ray.ops.features import pivot_counts
    from ontocast_ray.ops.joins import distinct_on, grouped_count_distinct
    from ontocast_ray.ops.text import stratified_sample
    from ontocast_ray.ops.windows import rolling_window_agg

    # distinct_on: null keys count as one distinct value (pandas semantics)
    t = pa.table(
        {"a": pa.array([1, 1, None, None, 2], type=pa.int64()),
         "b": pa.array(["x", "x", "y", "y", None])}
    )
    got = distinct_on(ray.data.from_arrow(t), ["a", "b"]).to_pandas()
    assert len(got) == 3

    # stratified sample: n larger than the group → whole group, ranks 1..size
    t2 = pa.table(
        {"doc_id": pa.array(np.arange(6), type=pa.int64()),
         "source": pa.array(["g1"] * 4 + ["g2"] * 2)}
    )
    s = stratified_sample(ray.data.from_arrow(t2), "source", 10).to_pandas()
    assert len(s) == 6 and s.groupby("source")["rank"].max().tolist() == [4, 2]

    # rolling window with k >> group size: min_periods=1 → full prefix aggs
    t3 = pa.table(
        {"event_id": pa.array([1, 2], type=pa.int64()),
         "user_id": pa.array([5, 5], type=pa.int64()),
         "ts": pa.array([10, 20], type=pa.int64()),
         "value": pa.array([3.0, 4.0], type=pa.float64())}
    )
    r = (
        rolling_window_agg(ray.data.from_arrow(t3), k=100, agg="sum")
        .to_pandas().sort_values("event_id")
    )
    assert r["rolling_sum"].tolist() == [3.0, 7.0]

    # grouped count-distinct where every row is a duplicate
    t4 = pa.table(
        {"g": pa.array(["a"] * 10), "k": pa.array([7] * 10, type=pa.int64())}
    )
    cd = grouped_count_distinct(ray.data.from_arrow(t4), "g", "k").to_pandas()
    assert cd["n_distinct"].tolist() == [1]

    # pivot where a requested category never occurs → zero column
    pv = (
        pivot_counts(ray.data.from_arrow(t4), "g", "k2" if False else "g",
                     categories=["a", "zz"])
        .to_pandas().set_index("g")
    )
    assert pv.loc["a", "a"] == 10 and pv.loc["a", "zz"] == 0
