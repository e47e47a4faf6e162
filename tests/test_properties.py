"""Property-based tests (hypothesis) for the engine's core invariants."""

import string

from hypothesis import given, settings
from hypothesis import strategies as st

from ontocast_ray.functions.fuzz import _lcs_length, ratio, ratio_at_least
from ontocast_ray.rdf import TripleGraph, parse_turtle, serialize_turtle
from ontocast_ray.rdf.terms import Literal, URI

text_st = st.text(alphabet=string.ascii_lowercase + " ", max_size=30)


@given(text_st, text_st)
@settings(max_examples=200, deadline=None)
def test_ratio_properties(a, b):
    r = ratio(a, b)
    assert 0.0 <= r <= 100.0
    assert ratio(a, b) == ratio(b, a)
    assert ratio(a, a) == 100.0
    # fast-path equivalence with the plain computation at several thresholds
    for thr in (50.0, 85.0, 90.0):
        assert ratio_at_least(a, b, thr) == (r >= thr)


@given(text_st, text_st, text_st)
@settings(max_examples=100, deadline=None)
def test_lcs_triangle(a, b, c):
    # LCS length bounded by min length; monotone under concatenation
    assert _lcs_length(a, b) <= min(len(a), len(b))
    assert _lcs_length(a + c, b + c) >= _lcs_length(a, b) + 0  # sanity, no crash


_local = st.text(alphabet=string.ascii_letters + string.digits + "_", min_size=1, max_size=12)
_lit_text = st.text(
    alphabet=string.ascii_letters + string.digits + " .,;:!?\"'\\\n\t()[]#@/-_",
    max_size=40,
)


@st.composite
def graphs(draw):
    g = TripleGraph()
    g.bind("ex", "http://example.org/")
    n = draw(st.integers(min_value=0, max_value=12))
    for _ in range(n):
        s = URI("http://example.org/" + draw(_local))
        p = URI("http://example.org/" + draw(_local))
        if draw(st.booleans()):
            o = URI("http://example.org/" + draw(_local))
        else:
            kind = draw(st.integers(min_value=0, max_value=2))
            if kind == 0:
                o = Literal(draw(_lit_text))
            elif kind == 1:
                o = Literal(draw(_lit_text), datatype="http://www.w3.org/2001/XMLSchema#string")
            else:
                o = Literal(draw(_lit_text), lang="en")
        g.add((s, p, o))
    return g


@given(graphs())
@settings(max_examples=100, deadline=None)
def test_turtle_roundtrip_is_lossless(g):
    reparsed = parse_turtle(serialize_turtle(g))
    assert reparsed.triples_set() == g.triples_set()


@given(graphs(), graphs())
@settings(max_examples=50, deadline=None)
def test_graph_union_semantics(a, b):
    u = a + b
    assert u.triples_set() == a.triples_set() | b.triples_set()
    # commutative as a set
    assert (b + a).triples_set() == u.triples_set()


@given(st.lists(st.tuples(st.sampled_from(["text", "image"]), st.text(max_size=15)), max_size=20),
       st.integers(min_value=1, max_value=5))
@settings(max_examples=100, deadline=None)
def test_span_assignment_partitions_sequence(span_spec, n_chunks):
    from ontocast_ray.stages.chunking import assign_spans_to_chunks

    spans = []
    for kind, txt in span_spec:
        spans.append(
            {"kind": kind, "text": txt if kind == "text" else "",
             "media_ref": "m" if kind != "text" else "", "offset": 0}
        )
    chunk_texts = ["x" * 10] * n_chunks
    parts = assign_spans_to_chunks(spans, chunk_texts)
    flat = [s for part in parts for s in part]
    assert flat == spans  # contiguous partition reproduces the sequence exactly


@given(
    st.lists(
        st.tuples(st.integers(0, 30), st.integers(0, 30)),
        min_size=1, max_size=25,
    )
)
@settings(max_examples=5, deadline=None)  # each example is a full Ray CC run
def test_connected_components_equals_union_find(ray_session, edges):
    """Star-rounds CC == classic union-find on arbitrary random graphs."""
    import pyarrow as pa
    import ray.data

    from ontocast_ray.ops.graph_cc import connected_components

    edges = [(a, b) for a, b in edges if a != b]
    if not edges:
        return
    tbl = pa.table(
        {
            "doc_id_a": pa.array([a for a, b in edges], type=pa.int64()),
            "doc_id_b": pa.array([b for a, b in edges], type=pa.int64()),
        }
    )
    # distributed star rounds (threshold 0 forces them) AND the driver
    # union-find fallback must both match the reference implementation
    got = {
        r["doc_id"]: r["component"]
        for r in connected_components(
            ray.data.from_arrow(tbl), small_graph_threshold=0
        ).take_all()
    }
    got_local = {
        r["doc_id"]: r["component"]
        for r in connected_components(ray.data.from_arrow(tbl)).take_all()
    }

    parent: dict = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    expected = {n: find(n) for n in parent}
    assert got == expected
    assert got_local == expected


@given(
    st.lists(  # left events: (user, minute-offset, event ordinal)
        st.tuples(st.integers(1, 4), st.integers(0, 500)),
        min_size=1, max_size=30,
    ),
    st.lists(  # right events
        st.tuples(st.integers(1, 4), st.integers(0, 500)),
        min_size=0, max_size=30,
    ),
)
@settings(max_examples=8, deadline=None)  # each example runs a Ray pipeline
def test_asof_join_matches_duckdb(ray_session, left_rows, right_rows):
    import duckdb
    import pandas as pd
    import pyarrow as pa
    import ray.data

    from ontocast_ray.ops.joins import asof_join

    base = pd.Timestamp("2024-01-01")
    left = pa.table({
        "user_id": pa.array([u for u, m in left_rows], type=pa.int64()),
        "ts": pa.array([base + pd.Timedelta(minutes=m) for u, m in left_rows],
                       type=pa.timestamp("us")),
        "event_id": pa.array(range(len(left_rows)), type=pa.int64()),
    })
    right = pa.table({
        "user_id": pa.array([u for u, m in right_rows], type=pa.int64()),
        "ts": pa.array([base + pd.Timedelta(minutes=m) for u, m in right_rows],
                       type=pa.timestamp("us")),
        "value": pa.array([float(i) for i in range(len(right_rows))]),
    })
    got = pd.DataFrame(asof_join(
        ray.data.from_arrow(left), ray.data.from_arrow(right),
        key_col="user_id", ts_col="ts",
        left_cols=["user_id", "ts", "event_id"], right_value_col="value",
    ).take_all())

    con = duckdb.connect()
    con.register("l", left)
    con.register("r", right)
    want = con.execute("""
        WITH rd AS (SELECT user_id, ts, max(value) AS asof_value
                    FROM r GROUP BY user_id, ts)
        SELECT l.event_id, l.user_id, l.ts,
               rd.ts AS asof_ts, rd.asof_value
        FROM l ASOF LEFT JOIN rd ON l.user_id = rd.user_id AND l.ts >= rd.ts
    """).df()
    cols = ["event_id", "user_id", "ts", "asof_ts", "asof_value"]
    g = got[cols].sort_values(cols).reset_index(drop=True)
    o = want[cols].sort_values(cols).reset_index(drop=True)
    for c in cols:
        oc, gc = o[c], g[c]
        if str(oc.dtype).startswith("datetime64"):
            oc = oc.astype("datetime64[us]")
            gc = gc.astype("datetime64[us]")
        neq = (oc != gc) & ~(oc.isna() & gc.isna())
        assert int(neq.sum()) == 0, (c, g[neq].head(), o[neq].head())


@given(
    st.lists(st.integers(0, 10_000), min_size=1, max_size=120, unique=True),
    st.integers(1, 9),
)
@settings(max_examples=5, deadline=None)  # each example runs a Ray pipeline
def test_global_row_number_matches_sorted_rank(ray_session, ids, k):
    """rn == 1-based position in sorted order; NTILE sizes follow SQL
    (first N%k tiles get ceil(N/k)) on arbitrary unique id sets."""
    import numpy as np
    import pyarrow as pa
    import ray.data

    from ontocast_ray.ops.rank import global_row_number

    arr = np.array(ids, dtype=np.int64)
    t = pa.table({"doc_id": pa.array(arr)})
    got = (
        global_row_number(
            ray.data.from_arrow(t).repartition(3),
            order_col="doc_id", ntile=k, shard_span=97,
        )
        .to_pandas().sort_values("rn")
    )
    assert got["doc_id"].tolist() == sorted(ids)
    assert got["rn"].tolist() == list(range(1, len(ids) + 1))
    n = len(ids)
    q, rem = divmod(n, k)
    sizes = got.groupby("tile").size().sort_index()
    expected_sizes = [q + 1] * rem + [q] * (k - rem) if q else [1] * n
    expected_sizes = [s for s in expected_sizes if s > 0]
    assert sizes.tolist() == expected_sizes


@given(
    st.lists(
        st.tuples(st.integers(0, 6), st.integers(0, 4)),
        min_size=1, max_size=200,
    )
)
@settings(max_examples=5, deadline=None)
def test_distinct_on_equals_pandas_property(ray_session, rows):
    """distinct_on == drop_duplicates on arbitrary two-column int frames."""
    import pandas as pd
    import pyarrow as pa
    import ray.data

    from ontocast_ray.ops.joins import distinct_on

    t = pa.table(
        {"a": pa.array([r[0] for r in rows], type=pa.int64()),
         "b": pa.array([r[1] for r in rows], type=pa.int64())}
    )
    exp = t.to_pandas().drop_duplicates().sort_values(["a", "b"]).reset_index(drop=True)
    got = (
        distinct_on(ray.data.from_arrow(t).repartition(4), ["a", "b"])
        .to_pandas().sort_values(["a", "b"]).reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got, exp, check_dtype=False)


@given(
    st.lists(
        st.text(alphabet="ab \n", max_size=24),
        min_size=1, max_size=12,
    ),
    st.integers(min_value=1, max_value=4),
)
@settings(max_examples=5, deadline=None)  # each example is a full Ray run
def test_remove_dup_spans_matches_reference(ray_session, texts, k):
    """Span scrub == a plain O(n²) single-process reference of the rule:
    cut every word position covered by a k-gram whose (lower+split)
    token sequence occurs in ≥2 distinct docs. Tiny alphabet forces
    collisions, shared grams, short docs and empty docs."""
    import numpy as np
    import pyarrow as pa
    import ray.data

    from ontocast_ray.ops.dedup import remove_dup_spans

    tbl = pa.table(
        {"doc_id": pa.array(range(len(texts)), type=pa.int64()),
         "text": pa.array(texts, type=pa.string())}
    )
    got = (
        remove_dup_spans(
            ray.data.from_arrow(tbl).repartition(3), k=k
        )
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )

    # reference: string-tuple grams, cross-doc distinct count, mask union
    def words_of(t):
        w = (t or "").strip().lower().split()
        return w

    grams = {}
    per_doc = []
    for d, t in enumerate(texts):
        w = words_of(t)
        if not w:
            per_doc.append([])
            continue
        if len(w) < k:
            gs = [(0, len(w), tuple(w))]
        else:
            gs = [(q, k, tuple(w[q:q + k])) for q in range(len(w) - k + 1)]
        per_doc.append(gs)
        for _, _, g in set((0, 0, g) for _, _, g in gs):
            grams.setdefault(g, set()).add(d)
    exp_text, exp_rm = [], []
    for d, t in enumerate(texts):
        w = words_of(t)
        masked = np.zeros(len(w), dtype=bool)
        for q, cov, g in per_doc[d]:
            if len(grams.get(g, ())) >= 2:
                masked[q:q + cov] = True
        exp_text.append(" ".join(x for x, m in zip(w, masked) if not m))
        exp_rm.append(int(masked.sum()))
    assert got["text"].tolist() == exp_text
    assert got["n_removed"].tolist() == exp_rm


@given(
    st.lists(
        st.lists(
            st.floats(min_value=-4, max_value=4,
                      allow_nan=False, allow_infinity=False, width=32),
            min_size=3, max_size=3,
        ),
        min_size=2, max_size=14,
    ),
    st.integers(min_value=1, max_value=4),
)
@settings(max_examples=5, deadline=None)
def test_knn_self_join_matches_bruteforce(ray_session, vec_rows, k):
    """Dataset-to-dataset exact kNN join == numpy brute force on arbitrary
    vectors, including duplicate vectors (cosine ties break by neighbor
    id asc) and zero vectors (norm guard)."""
    import numpy as np
    import pyarrow as pa
    import ray.data

    from ontocast_ray.ops.similarity import knn_self_join

    vecs = np.asarray(vec_rows, dtype=np.float64)
    n = len(vecs)
    tbl = pa.table(
        {"vec_id": pa.array(range(n), type=pa.int64()),
         "embedding": list(vecs)}
    )
    got = (
        knn_self_join(
            ray.data.from_arrow(tbl).repartition(2), k=k,
            max_rows_per_shard=5, chunk=3,
        )
        .to_pandas().sort_values(["query_id", "rank"])
        .reset_index(drop=True)
    )
    nr = np.linalg.norm(vecs, axis=1, keepdims=True)
    nr[nr == 0] = 1.0
    nv = vecs / nr
    sims = nv @ nv.T
    for q in range(n):
        order = sorted(
            (j for j in range(n) if j != q),
            key=lambda j: (-sims[q, j], j),
        )[:k]
        sub = got[got["query_id"] == q]
        assert sub["neighbor"].tolist() == order, (q, vec_rows)
        assert sub["rank"].tolist() == list(range(1, len(order) + 1))
