"""Tests of the benchmark's own pieces: seeded inputs, order-independent
digests, span self-time arithmetic and the near-dup consistency checks.

    python3 -m pytest perfbench/tests -q
"""

import os
import random
import sys

import pyarrow as pa
import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))))

from perfbench import checks, trace  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_depend_only_on_seed(name):
    w = WORKLOADS[name]
    a, b, c = w.make_inputs(3, 2), w.make_inputs(3, 2), w.make_inputs(4, 2)
    assert a.keys() == b.keys()
    for key in a:
        assert a[key] == b[key]
    assert any(a[key] != c[key] for key in a)


def _triples(n=200, seed=0):
    rng = random.Random(seed)
    cols = {c: [f"{c}-{rng.randrange(50)}" for _ in range(n)] for c in checks.TRIPLE_COLUMNS}
    cols["object_is_literal"] = [rng.random() < 0.5 for _ in range(n)]
    cols["object_lang"] = [None if rng.random() < 0.7 else "en" for _ in range(n)]
    cols["chunk_idx"] = pa.array([rng.randrange(-1, 5) for _ in range(n)], type=pa.int32())
    return pa.table(cols)


def test_digest_ignores_row_and_block_order():
    t = _triples()
    order = list(range(len(t)))
    random.Random(1).shuffle(order)
    shuffled = t.take(order)
    blocks = [shuffled.slice(i, 37) for i in range(0, len(t), 37)]
    assert checks.digest([t], checks.TRIPLE_COLUMNS) == checks.digest(blocks, checks.TRIPLE_COLUMNS)


def test_digest_sees_duplicates_nulls_and_values():
    t = _triples()
    base = checks.digest([t], checks.TRIPLE_COLUMNS)
    dup = checks.digest([t, t.slice(0, 1)], checks.TRIPLE_COLUMNS)
    assert dup[0] == base[0] + 1 and dup[1] != base[1]
    lang = t["object_lang"].to_pylist()
    lang[0] = "" if lang[0] is None else None  # null and "" must differ
    changed = t.set_column(t.schema.get_field_index("object_lang"), "object_lang",
                           pa.array(lang, type=pa.string()))
    assert checks.digest([changed], checks.TRIPLE_COLUMNS)[1] != base[1]


def test_digest_of_list_columns():
    a = pa.table({"k": ["x", "y"], "types": [["a", "b"], ["c"]]})
    b = pa.table({"k": ["y", "x"], "types": [["c"], ["a", "b"]]})
    c = pa.table({"k": ["x", "y"], "types": [["a"], ["b", "c"]]})
    assert checks.digest([a], ["k", "types"]) == checks.digest([b], ["k", "types"])
    assert checks.digest([a], ["k", "types"]) != checks.digest([c], ["k", "types"])


def _span(sid, start, end, parent=None, name="x", **n):
    return {"id": sid, "name": name, "start": start, "end": end, "parent": parent,
            "pid": 1, "n": n}


def test_self_time_subtracts_covered_child_intervals():
    spans = [
        _span("root", 0.0, 10.0),
        _span("a", 1.0, 3.0, "root"),
        _span("b", 2.0, 5.0, "root"),      # overlaps a: union 1..5
        _span("c", 9.0, 12.0, "root"),     # clipped to 9..10
        _span("a1", 1.5, 2.0, "a"),
    ]
    st = trace.self_times(spans)
    assert st["root"] == pytest.approx(10.0 - 4.0 - 1.0)
    assert st["a"] == pytest.approx(1.5)
    assert st["b"] == pytest.approx(3.0)
    assert st["a1"] == pytest.approx(0.5)


def test_rollup_sums_by_name_and_counts():
    spans = [
        _span("p1", 0.0, 4.0, name="kg", docs=3),
        _span("c1", 1.0, 2.0, "p1", name="chunk"),
        _span("p2", 5.0, 6.0, name="kg", docs=2),
    ]
    roll = trace.rollup(spans)
    assert roll["kg"]["calls"] == 2
    assert roll["kg"]["total_s"] == pytest.approx(5.0)
    assert roll["kg"]["self_s"] == pytest.approx(4.0)
    assert roll["kg"]["docs"] == 5
    assert [s["id"] for s in trace.in_window(spans, 0.5, 5.5)] == ["c1", "p2"]


def test_tracer_flushes_when_outermost_span_closes(tmp_path):
    tr = trace.Tracer(flush_dir=str(tmp_path))
    with tr.span("outer") as n:
        with tr.span("inner"):
            pass
        n["rows"] = 7
        assert trace.read_spans(str(tmp_path)) == []
    spans = trace.read_spans(str(tmp_path))
    assert [s["name"] for s in spans] == ["inner", "outer"]
    assert spans[0]["parent"] == spans[1]["id"] and spans[1]["n"] == {"rows": 7}


def test_components_root_is_component_min():
    comp = checks.components([(5, 3), (3, 9), (7, 8), (9, 1)])
    assert comp == {5: 1, 3: 1, 9: 1, 1: 1, 7: 7, 8: 7}


def test_check_neardup_flags_bad_outputs():
    texts = {1: "a b c d e f", 2: "a b c d e f", 3: "x y z w v u"}
    cands = pa.table({"doc_id_a": [1, 1], "doc_id_b": [2, 3]})
    ver = pa.table({"doc_id_a": [1], "doc_id_b": [2], "jaccard": [1.0]})
    keep = pa.table({"doc_id": [1, 2], "keep_id": [1, 1], "keep": [True, False]})
    assert checks.check_neardup(texts, [(1, 2)], cands, ver, keep, 0.8, 3) == []
    bad_keep = pa.table({"doc_id": [1, 2], "keep_id": [1, 2], "keep": [True, True]})
    assert checks.check_neardup(texts, [], cands, ver, bad_keep, 0.8, 3)
    stray = pa.table({"doc_id_a": [2], "doc_id_b": [3], "jaccard": [1.0]})
    assert checks.check_neardup(texts, [], cands, stray, keep, 0.8, 3)
    none = pa.table({"doc_id_a": pa.array([], pa.int64()), "doc_id_b": pa.array([], pa.int64()),
                     "jaccard": pa.array([], pa.float64())})
    empty_keep = pa.table({"doc_id": pa.array([], pa.int64()), "keep_id": pa.array([], pa.int64()),
                           "keep": pa.array([], pa.bool_())})
    assert checks.check_neardup(texts, [(1, 2)], cands, none, empty_keep, 0.8, 3)
