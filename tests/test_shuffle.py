"""Contract of the one coarse-shuffle primitive (ops/shuffle.py) and of
``map_blocks``, and the guards that keep ``map_groups`` and partition
counts (``n_parts``) from spreading outside it, in the package and in the
driver file ``__ray_entry__.py``; plus their twins, the guards that keep
actor pools to the one stage that holds mutable shared state and
``ray.remote`` to ops/shuffle.py and the hub.

Every contract case runs on both paths of ``shuffle_by`` (the
``both_paths`` fixture of conftest.py): the gather path its small inputs
take, and the sort path, forced by patching the module's byte limit to
0."""

from __future__ import annotations

import ast
import logging
import pathlib
import re
import uuid

import pandas as pd
import pytest

from ontocast_ray.ops import shuffle
from ontocast_ray.ops.shuffle import _PART, shuffle_by

# Sites where one kernel call per natural key IS the op's meaning; every
# other keyed exchange in ontocast_ray and __ray_entry__.py goes through
# shuffle_by.
ALLOWED_MAP_GROUPS = {
    ("ontocast_ray/ops/clustering.py", "cluster"): "SemDeDup keep rule runs per k-means cluster",
    ("ontocast_ray/ops/clustering.py", "pg"): "one bounded reducer per shard pair of an oversized cluster",
    ("ontocast_ray/ops/similarity.py", "cluster"): "IVF join scores one probed cluster per call",
    ("ontocast_ray/ops/similarity.py", "pg"): "one bounded reducer per shard pair of the all-pairs kNN",
}

# Defs that may take an ``n_parts`` parameter, as (file, function). The
# exchange sizes its own partitions; every op leaves the count to it.
ALLOWED_N_PARTS = {
    ("ontocast_ray/ops/shuffle.py", "shuffle_by"): "the exchange: None sizes from rows, 1 gathers",
    ("ontocast_ray/ops/shuffle.py", "_partition_ids"): "the exchange's row hash",
    ("ontocast_ray/util.py", "hash_partition"): "value hash into [0, n_parts)",
    ("ontocast_ray/sources/io.py", "_write_committed"): "the resumable sink's shard count",
    ("ontocast_ray/pipelines/crossdoc.py", "incremental_global_entities"):
        "the perfbench harness passes it",
}

# Parameters that choose how an op runs rather than what it computes. An op
# reads such a choice from a module constant, and its tests patch that;
# only these (file, function, parameter) sites keep one, for the reason given.
_EXECUTION_KNOBS = {"mode", "small_graph_threshold", "reduce_parts", "chunk",
                    "max_cluster_rows", "batch_size", "min_rows_per_file"}
ALLOWED_EXECUTION_KNOBS = {
    ("ontocast_ray/pipelines/kg.py", "build_kg_pipeline", "batch_size"):
        "the docs per KG kernel call; the KG tests pass 8",
    ("ontocast_ray/pipelines/kg.py", "_kg_blocks", "batch_size"):
        "private: build_kg_pipeline and run_resumable forward their caller's",
    ("ontocast_ray/sources/io.py", "compact_parquet", "min_rows_per_file"):
        "the output file size is what the op computes",
    ("ontocast_ray/ops/dedup.py", "_bucket_cosine_pairs", "chunk"):
        "private kernel: its unit test crosses chunk boundaries",
}

# Sites that may map with an actor pool, as (file, function, enclosing if):
# only state that is expensive or mutable and shared earns one. Every
# other stage maps as a task, with a function or an instance.
ALLOWED_ACTOR_POOLS = {
    ("ontocast_ray/pipelines/kg.py", "build_kg_pipeline", "hub_name is not None"):
        "every KG actor holds a hub snapshot and merges addenda into the hub",
}
_POOL_ARGS = {"concurrency", "fn_constructor_kwargs"}

# Files that may define a Ray task or actor with ``ray.remote``: the one
# launch of plain tasks over materialized blocks, and the one named actor.
ALLOWED_RAY_REMOTE = {
    "ontocast_ray/ops/shuffle.py": "map_blocks and the gather run _run_blocks tasks",
    "ontocast_ray/state/ontology_hub.py": "the OntologyHub named actor",
}

_REPO = pathlib.Path(__file__).resolve().parents[1]
_GROUPBY = re.compile(r"""groupby\(\s*["']([^"']+)["']\s*\)""")


def _rows(n: int = 240) -> list[dict]:
    return [
        {"s": f"k{i % 17}", "i": i % 11, "j": i % 3, "v": i}
        for i in range(n)
    ]


def _ds(n: int = 240, blocks: int = 4):
    import ray

    df = pd.DataFrame(_rows(n))
    return ray.data.from_pandas([df.iloc[b::blocks] for b in range(blocks)])


def _per_call_key_counts(keys: list[str]):
    """Kernel that reports, for each key tuple in its frame, the row count
    and an id unique to this call, plus what the frame looked like."""

    def per_call(df: pd.DataFrame) -> pd.DataFrame:
        call = uuid.uuid4().hex
        g = df.groupby(keys, as_index=False).size()
        return g.assign(
            call=call, frame_rows=len(df), saw_part=_PART in df.columns,
            n_cols=len(df.columns),
        )

    return per_call


@pytest.mark.parametrize("keys", [["s"], ["i"], ["s", "j"]])
def test_equal_keys_reach_one_call(ray_session, both_paths, keys):
    want = pd.DataFrame(_rows()).groupby(keys).size()
    for _ in both_paths():
        out = shuffle_by(_ds(), keys, _per_call_key_counts(keys), n_parts=5).to_pandas()
        # one output row per key ⇒ every key's rows arrived in a single call
        assert not out.duplicated(keys).any()
        got = out.set_index(keys)["size"].sort_index()
        assert got.to_dict() == want.sort_index().to_dict()


def test_kernel_never_sees_empty_frame_or_partition_column(ray_session, both_paths):
    # more partitions than keys: many partitions stay empty
    for _ in both_paths():
        ds = _ds(40, blocks=7)
        out = shuffle_by(ds, "j", _per_call_key_counts(["j"]), n_parts=16).to_pandas()
        assert (out["frame_rows"] > 0).all()
        assert not out["saw_part"].any()
        assert (out["n_cols"] == 4).all()  # s, i, j, v — nothing added


def test_empty_input_gives_empty_output(ray_session, both_paths):
    def never(df: pd.DataFrame) -> pd.DataFrame:
        raise AssertionError("kernel called on an empty input")

    for _ in both_paths():
        ds = _ds(10).filter(expr="v < 0")
        assert shuffle_by(ds, "s", never, n_parts=4).count() == 0


def test_empty_input_skips_the_exchange(ray_session, both_paths, caplog, executions):
    """No rows, no exchange: no Sort operator, and the result the sort
    path gave an empty input (no rows, one block, no schema), materialized:
    reading it starts no execution."""
    caplog.set_level(logging.DEBUG, logger=shuffle.__name__)

    def never(df: pd.DataFrame) -> pd.DataFrame:
        raise AssertionError("kernel called on an empty input")

    for _ in both_paths():
        caplog.clear()
        out = shuffle_by(_ds(10).filter(expr="v < 0"), "s", never, n_parts=4)
        executions.clear()
        assert out.take_all() == [] and executions == []
        assert "Sort" not in out.stats()
        assert out.count() == 0 and out.num_blocks() == 1 and out.schema() is None
        [msg] = [r.getMessage() for r in caplog.records if r.name == shuffle.__name__]
        assert "shuffle_by never: path=empty rows=0 " in msg, msg


def test_output_multiset_independent_of_n_parts(ray_session, both_paths):
    def sums(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby(["s", "j"], as_index=False)["v"].sum()

    ds = _ds().materialize()
    outs = []
    for _ in both_paths():
        for p in (1, 3, 64):
            df = shuffle_by(ds, ["s", "j"], sums, n_parts=p).to_pandas()
            outs.append(df.sort_values(["s", "j"]).reset_index(drop=True))
    assert all(outs[0].equals(o) for o in outs[1:])


def _launches(caplog, cost: bool = False) -> list[str]:
    """The DEBUG records of ``map_blocks``-style task launches; without
    ``cost``, only their counts (each record's text before " bytes_in=")."""
    msgs = [r.getMessage() for r in caplog.records if r.name == shuffle._blocks_log.name]
    return msgs if cost else [m.split(" bytes_in=")[0] for m in msgs]


def test_stats_show_kernel_name(ray_session, both_paths, caplog):
    """A run names its kernel: the gather path's task launch logs it, and
    on either path ``stats()`` show it on the operator that runs it, after
    the operators upstream of the exchange."""
    caplog.set_level(logging.DEBUG, logger=shuffle.__name__)

    def my_distinct_kernel_name(df: pd.DataFrame) -> pd.DataFrame:
        return df.drop_duplicates("s")

    for path in both_paths():
        caplog.clear()
        out = shuffle_by(_ds(30), "s", my_distinct_kernel_name, n_parts=2).materialize()
        stats = out.stats()
        if path == "gather":
            assert _launches(caplog) == [
                "map_blocks my_distinct_kernel_name: blocks=4 tasks=1 rows_in=30 rows_out=17"]
            assert "MapBlocks(my_distinct_kernel_name): 1 tasks executed" in stats, stats
        else:
            assert _launches(caplog) == []
            assert "my_distinct_kernel_name" in stats
        assert stats.index("FromPandas") < stats.index("my_distinct_kernel_name"), stats


def test_small_input_skips_sort_shuffle(ray_session, caplog):
    """Under the byte limit there is no Sort operator, and the kernel runs
    in one task that returns one block."""
    caplog.set_level(logging.DEBUG, logger=shuffle.__name__)

    def small_kernel(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby("s", as_index=False)["v"].sum()

    out = shuffle_by(_ds(blocks=6), "s", small_kernel, n_parts=5).materialize()
    assert "Sort" not in out.stats()
    assert _launches(caplog) == [
        "map_blocks small_kernel: blocks=6 tasks=1 rows_in=240 rows_out=17"]
    assert out.num_blocks() == 1 and out.count() == 17


def test_mid_size_many_block_input_gathers(ray_session, caplog):
    """A ~3 MiB input in 25 blocks, the size and grid of the crawl merge,
    is under the byte limit: one kernel task, no Sort operator."""
    import ray

    caplog.set_level(logging.DEBUG, logger=shuffle.__name__)

    def mid_kernel(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby("s", as_index=False)["v"].sum()

    n, blocks = 14_000, 25
    df = pd.DataFrame({"s": [f"k{i % 97}" for i in range(n)], "v": range(n),
                       "pad": ["x" * 100] * n})
    ds = ray.data.from_pandas([df.iloc[b::blocks] for b in range(blocks)]).materialize()
    assert 2 << 20 < ds.size_bytes() < 4 << 20 and ds.num_blocks() == blocks

    out = shuffle_by(ds, "s", mid_kernel, n_parts=8).materialize()
    [msg] = [r.getMessage() for r in caplog.records if r.name == shuffle.__name__]
    assert "path=gather" in msg and f"blocks={blocks}" in msg, msg
    assert "Sort" not in out.stats()
    assert _launches(caplog) == [
        f"map_blocks mid_kernel: blocks={blocks} tasks=1 rows_in={n} rows_out=97"]
    assert out.count() == 97 and out.sum("v") == n * (n - 1) // 2


def _mixed_blocks():
    """Three blocks, 3 rows: a pandas block, an arrow block, and the
    schema-less empty block ``shuffle_by`` returns for an empty input."""
    import pyarrow as pa
    import ray

    return ray.data.from_pandas(pd.DataFrame({"s": ["a", "b"], "v": [1, 2]})).union(
        ray.data.from_arrow(pa.table({"s": ["c"], "v": [3]})),
        ray.data.from_pandas(pd.DataFrame()),
    )


def test_map_blocks_runs_one_task_per_block(ray_session, caplog):
    """One task per input block, in block order, each ``fn`` call seeing
    its block as an arrow table (the empty one too); one DEBUG record per
    call names ``fn`` and counts blocks, tasks, rows in and out, the
    input's bytes, the tasks' summed wall seconds and the launch's own
    wall seconds on the driver."""
    import time

    import pyarrow as pa
    import ray

    caplog.set_level(logging.DEBUG, logger=shuffle.__name__)

    def per_block(t: pa.Table) -> pa.Table:
        time.sleep(0.05)
        task = ray.get_runtime_context().get_task_id()
        return pa.table({"task": [task], "rows": [t.num_rows], "arrow": [isinstance(t, pa.Table)]})

    for ds, want in ((_ds(blocks=5), [48] * 5), (_mixed_blocks(), [2, 1, 0])):
        caplog.clear()
        ds = ds.materialize()
        out = shuffle.map_blocks(ds, per_block).take_all()
        assert [r["rows"] for r in out] == want
        assert all(r["arrow"] for r in out)
        assert len({r["task"] for r in out}) == len(want)
        [msg] = _launches(caplog, cost=True)
        counts, cost = msg.split(" bytes_in=")
        assert counts == (f"map_blocks per_block: blocks={len(want)} tasks={len(want)} "
                          f"rows_in={sum(want)} rows_out={len(want)}")
        m = re.fullmatch(r"(\d+) task_s=(\d+\.\d{3}) wall_s=(\d+\.\d{3})", cost)
        assert m and int(m[1]) == ds.size_bytes() > 0, msg
        assert 0.05 * len(want) <= float(m[2]) < 0.05 * len(want) + 5, msg
        # the tasks run side by side: the launch takes at least one sleep
        assert 0.05 <= float(m[3]) < 0.05 * len(want) + 5, msg


def test_map_blocks_output_reads_without_an_execution(ray_session, executions):
    """``map_blocks`` returns a materialized dataset: reading it starts no
    Ray Data execution, nor does running it over a materialized input."""
    ds = _ds(blocks=3).materialize()
    executions.clear()
    out = shuffle.map_blocks(ds, lambda t: t)
    assert len(out.take_all()) == 240
    assert sum(len(b) for b in out.iter_batches(batch_size=None, batch_format="pyarrow")) == 240
    assert len(out.to_pandas()) == 240
    assert executions == []


def test_map_blocks_empty_input(ray_session, caplog):
    """A block with no rows still gets its call; an input with no blocks
    runs no task and gives an empty dataset."""
    import pyarrow as pa
    import ray

    caplog.set_level(logging.DEBUG, logger=shuffle.__name__)

    def count(t: pa.Table) -> pa.Table:
        return pa.table({"rows": [t.num_rows]})

    empty_blocks = _ds(10, blocks=2).filter(expr="v < 0")
    assert shuffle.map_blocks(empty_blocks, count).take_all() == [{"rows": 0}, {"rows": 0}]
    no_blocks = ray.data.range(0)
    out = shuffle.map_blocks(no_blocks, count)
    assert out.count() == 0 and out.num_blocks() == 0
    assert _launches(caplog, cost=True)[-1].startswith(
        "map_blocks count: blocks=0 tasks=0 rows_in=0 rows_out=0 bytes_in=0 task_s=0.000 wall_s=")


def test_map_blocks_keeps_the_output_block_type(ray_session):
    """A pandas function's frames stay pandas blocks and an arrow
    function's tables arrow blocks, as ``map_batches`` stores them; the
    gather path joins mixed input blocks, the schema-less empty one among
    them, into one frame."""
    import pyarrow as pa
    import ray

    def blocks(ds):
        return [ray.get(ref) for b in ds.iter_internal_ref_bundles() for ref in b.block_refs]

    as_pandas = shuffle.map_blocks(_ds(blocks=3), lambda t: t.to_pandas())
    assert all(isinstance(b, pd.DataFrame) for b in blocks(as_pandas))
    as_arrow = shuffle.map_blocks(_ds(blocks=3), lambda t: t)
    assert all(isinstance(b, pa.Table) for b in blocks(as_arrow))
    assert as_pandas.to_pandas().equals(as_arrow.to_pandas())

    def doubled(df: pd.DataFrame) -> pd.DataFrame:
        return df.assign(w=df["v"] * 2)

    out = shuffle_by(_mixed_blocks(), "s", doubled)
    [block] = blocks(out)
    assert isinstance(block, pd.DataFrame)
    assert block.to_dict("list") == {"s": ["a", "b", "c"], "v": [1, 2, 3], "w": [2, 4, 6]}


def _no_from_refs(monkeypatch):
    """Make ``from_arrow_refs`` and ``from_pandas_refs`` raise, both where
    callers reach them (``ray.data``) and where ``from_arrow`` and
    ``from_pandas`` do (``ray.data.read_api``)."""
    import ray.data
    from ray.data import read_api

    def refuse(*args, **kwargs):
        raise AssertionError("a from_*_refs call: one metadata task per block")

    for name in ("from_arrow_refs", "from_pandas_refs"):
        monkeypatch.setattr(ray.data, name, refuse)
        monkeypatch.setattr(read_api, name, refuse)


def test_launches_call_no_from_refs(ray_session, monkeypatch):
    """``map_blocks``, the gather path, ``union_blocks`` and ``from_blocks``
    build their datasets from the metadata they hold: with both
    ``from_*_refs`` made to raise, every row still arrives."""
    import pyarrow as pa

    def sums(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby("s", as_index=False)["v"].sum()

    ds = _ds(blocks=3).materialize()
    _no_from_refs(monkeypatch)
    mapped = shuffle.map_blocks(ds, lambda t: t)
    gathered = shuffle_by(mapped, "s", sums)
    driver = shuffle.from_blocks(pa.table({"s": ["z"], "v": [-1]}))
    union = shuffle.union_blocks(mapped, gathered, driver)
    assert mapped.count() == 240 and gathered.count() == 17
    assert union.num_blocks() == 3 + 1 + 1
    assert len(union.take_all()) == 240 + 17 + 1


# what a launch's function returns, one block per kind
_BLOCK_KINDS = {
    "arrow": lambda t: t,
    "pandas": lambda t: t.to_pandas(),
    "empty": lambda t: t.slice(0, 0),
    "schemaless": lambda t: pd.DataFrame(),
}


def _per_block(ds) -> list[tuple]:
    """(rows, schema) of each block, as the dataset's plan holds them."""
    return [(m.num_rows, m.schema)
            for bundle in ds._logical_plan.dag.output_data() for _, m in bundle.blocks]


def _sizes(ds) -> list[int]:
    return [m.size_bytes for bundle in ds._logical_plan.dag.output_data() for _, m in bundle.blocks]


def _schema(ds):
    sch = ds.schema()
    return None if sch is None else (sch.names, sch.types)


@pytest.mark.parametrize("kind", sorted(_BLOCK_KINDS))
def test_block_metadata_equals_from_refs(ray_session, kind):
    """Each block of a ``map_blocks`` launch, of the gather path and of
    ``from_blocks`` carries the row count, size and schema that
    ``from_*_refs`` computes for the same block refs in tasks of its own,
    and the dataset has the schema of ``from_*_refs(...).materialize()``;
    ``union_blocks`` keeps each block's metadata. The size of a pandas
    block is Ray's estimate over its object columns, which moved by 2 of
    20,148 bytes once the block was stored and read back; arrow sizes
    are exact."""
    import pyarrow as pa
    import ray

    fn = _BLOCK_KINDS[kind]
    ds = _ds(blocks=3).materialize()
    tables = [t for t in ds.iter_batches(batch_size=None, batch_format="pyarrow")]
    outs = [
        shuffle.map_blocks(ds, fn),
        shuffle_by(ds, "s", lambda df: fn(pa.Table.from_pandas(df, preserve_index=False))),
        shuffle.from_blocks(*map(fn, tables)),
    ]
    from_refs = (ray.data.from_pandas_refs if kind in ("pandas", "schemaless")
                 else ray.data.from_arrow_refs)
    for out in outs:
        refs = [ref for bundle in out.iter_internal_ref_bundles() for ref in bundle.block_refs]
        want = from_refs(refs)
        assert _per_block(out) == _per_block(want)
        if kind == "pandas":
            assert _sizes(out) == pytest.approx(_sizes(want), rel=0.01)
        else:
            assert _sizes(out) == _sizes(want)
        assert _schema(out) == _schema(want.materialize())
        union = shuffle.union_blocks(out, out)
        assert _per_block(union) == 2 * _per_block(want)
        assert _schema(union) == _schema(want.materialize())


def test_materialized_keeps_an_executed_dataset(ray_session, executions):
    """``materialized`` returns an executed dataset itself: a
    ``.materialize()``d one, a launch's output."""
    ds = _ds().materialize()
    launched = shuffle.map_blocks(ds, lambda t: t)
    executions.clear()
    assert shuffle.materialized(ds) is ds
    assert shuffle.materialized(launched) is launched
    assert executions == []


def test_materialized_runs_a_lazy_dataset_once(ray_session, executions):
    """A lazy dataset runs in one execution, and reading the result starts
    no other."""
    lazy = _ds().materialize().map_batches(lambda b: b)
    executions.clear()
    out = shuffle.materialized(lazy)
    assert len(executions) == 1
    assert len(out.take_all()) == 240 and out.count() == 240
    assert shuffle.materialized(out) is out
    assert len(executions) == 1


def test_materialized_materializes_a_from_refs_dataset(ray_session, executions):
    """A ``from_arrow_refs`` dataset is a ``MaterializedDataset`` that was
    never executed, and reading it starts an execution; ``materialized``
    returns it materialized, and reading that starts none."""
    import pyarrow as pa
    import ray

    refs = [ray.put(pa.table({"v": [1, 2]})), ray.put(pa.table({"v": [3]}))]
    executions.clear()
    assert len(ray.data.from_arrow_refs(refs).take_all()) == 3
    assert len(executions) == 1
    raw = ray.data.from_arrow_refs(refs)
    out = shuffle.materialized(raw)
    assert out is not raw
    executions.clear()
    assert [r["v"] for r in out.take_all()] == [1, 2, 3] and executions == []


def test_map_blocks_kernel_exception_propagates(ray_session, both_paths):
    """An exception raised by the function reaches the caller, through
    ``map_blocks`` and through either path of ``shuffle_by``. When it
    raises in every task of a launch, Ray reports none of the failed
    tasks' outputs as an "Unhandled error" once the caller drops them."""
    import gc
    import time

    def boom(batch):
        raise ValueError("kernel failed on purpose")

    class Unhandled(logging.Handler):
        def __init__(self):
            super().__init__(logging.ERROR)
            self.seen = []

        def emit(self, record):
            if "Unhandled error" in record.getMessage():
                self.seen.append(record.getMessage())

    unhandled, worker_log = Unhandled(), logging.getLogger("ray._private.worker")
    worker_log.addHandler(unhandled)
    try:
        with pytest.raises(ValueError, match="kernel failed on purpose"):
            shuffle.map_blocks(_ds(blocks=3), boom)
        gc.collect()  # the caught error's traceback held the launch's refs
        time.sleep(1)
    finally:
        worker_log.removeHandler(unhandled)
    assert unhandled.seen == []
    for _ in both_paths():
        with pytest.raises(Exception, match="kernel failed on purpose"):
            shuffle_by(_ds(blocks=2), "s", boom).materialize()


def test_path_is_logged(ray_session, both_paths, caplog):
    caplog.set_level(logging.DEBUG, logger=shuffle.__name__)

    def kern(df: pd.DataFrame) -> pd.DataFrame:
        return df

    for path in both_paths():
        caplog.clear()
        shuffle_by(_ds(), "s", kern, n_parts=3).materialize()
        [msg] = [r.getMessage() for r in caplog.records if r.name == shuffle.__name__]
        assert f"shuffle_by kern: path={path} rows=240 " in msg
        # sort: 4 blocks bundled into n_parts = 3
        assert msg.endswith(
            "blocks=4 map_blocks=1 n_parts=1" if path == "gather"
            else "blocks=4 map_blocks=3 n_parts=3"
        ), msg


def test_sort_path_sizes_partitions_from_rows(ray_session, monkeypatch, caplog):
    """On the sort path ``n_parts=None`` takes ceil(rows / _ROWS_PER_PART)
    partitions, clamped to [_MIN_PARTS, _MAX_PARTS], and an explicit
    ``n_parts`` wins; the DEBUG line reports the count."""
    caplog.set_level(logging.DEBUG, logger=shuffle.__name__)
    monkeypatch.setattr(shuffle, "_GATHER_BYTES", 0)
    ds = _ds(blocks=30).materialize()

    def kern(df: pd.DataFrame) -> pd.DataFrame:
        return df

    def logged(**kw) -> str:
        caplog.clear()
        out = shuffle_by(ds, "s", kern, **kw).materialize()
        assert out.count() == 240
        [msg] = [r.getMessage() for r in caplog.records if r.name == shuffle.__name__]
        assert "path=sort rows=240 " in msg, msg
        return msg.split("blocks=30 ", 1)[1]

    assert logged() == "map_blocks=8 n_parts=8"  # 240 rows: at the floor
    assert logged(n_parts=1) == "map_blocks=1 n_parts=1"
    monkeypatch.setattr(shuffle, "_ROWS_PER_PART", 100)
    assert logged() == "map_blocks=8 n_parts=8"  # ceil(2.4) = 3, raised to 8
    monkeypatch.setattr(shuffle, "_ROWS_PER_PART", 10)
    assert logged() == "map_blocks=24 n_parts=24"  # grows with the rows
    monkeypatch.setattr(shuffle, "_MAX_PARTS", 16)
    assert logged() == "map_blocks=16 n_parts=16"  # clamped at the ceiling


@pytest.mark.parametrize("blocks, fit, n_parts, k", [
    (60, None, 8, 8), (60, 3, 8, 8), (60, None, 3, 3), (6, None, 8, 6),
])
def test_sort_path_coalesces_tiny_blocks(
    ray_session, monkeypatch, caplog, blocks, fit, n_parts, k,
):
    """A sort-path input reaches the exchange in at most n_parts blocks:
    60 tiny blocks become 8 (or 3) whether the byte limit is 0 or a third
    of the input, and 6 blocks against n_parts=8 stay 6 (never a split).
    The output equals the gather path's."""
    caplog.set_level(logging.DEBUG, logger=shuffle.__name__)

    def sums(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby(["s", "j"], as_index=False)["v"].sum()

    def rows(out):
        return out.to_pandas().sort_values(["s", "j"]).reset_index(drop=True)

    ds = _ds(blocks=blocks).materialize()
    want = rows(shuffle_by(ds, ["s", "j"], sums, n_parts=n_parts))
    monkeypatch.setattr(
        shuffle, "_GATHER_BYTES", 0 if fit is None else -(-ds.size_bytes() // fit))
    caplog.clear()
    out = shuffle_by(ds, ["s", "j"], sums, n_parts=n_parts).materialize()
    [msg] = [r.getMessage() for r in caplog.records if r.name == shuffle.__name__]
    assert "path=sort rows=240 " in msg
    assert msg.endswith(f"blocks={blocks} map_blocks={k} n_parts={n_parts}"), msg
    stats = out.stats()
    m = re.search(r"MapBatches\(add_part\): (\d+) tasks executed, (\d+) blocks produced", stats)
    assert m and int(m[1]) == k and int(m[2]) <= k, stats
    assert rows(out).equals(want)


def _gate_sweep():
    import importlib.util

    spec = importlib.util.spec_from_file_location(
        "gate_sweep", _REPO / "tools" / "gate_sweep.py")
    sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sweep)
    return sweep


def test_gate_sweep_counts_executions(ray_session):
    """tools/gate_sweep.py counts the Ray Data executions a query starts:
    a lazy map's materialize is one, a ``map_blocks`` launch none."""
    sweep = _gate_sweep()
    executions = sweep._Executions()
    log = logging.getLogger(sweep._Executions.LOGGER)
    log.addHandler(executions)
    try:
        executions.query = "lazy"
        _ds().map_batches(lambda b: b).materialize()
        executions.query = "launch"
        shuffle.map_blocks(_ds().materialize(), lambda t: t).take_all()
    finally:
        log.removeHandler(executions)
    assert executions.counts == {"lazy": 1}


def test_gate_sweep_records_each_exchange(ray_session, both_paths):
    """tools/gate_sweep.py reads every call's kernel, path, bytes, blocks
    and coalesced block count from the DEBUG record, under the query that
    made it."""
    sweep = _gate_sweep()
    log = logging.getLogger(shuffle.__name__)
    exchanges, level = sweep._Exchanges(), log.level
    log.addHandler(exchanges)
    log.setLevel(logging.DEBUG)

    def kern(df: pd.DataFrame) -> pd.DataFrame:
        return df

    try:
        for path in both_paths():
            exchanges.query = path
            ds = _ds().materialize()
            shuffle_by(ds, "s", kern, n_parts=3)
            assert exchanges.calls[path] == [
                ["kern", path, ds.size_bytes(), 4, 1 if path == "gather" else 3]]
    finally:
        log.removeHandler(exchanges)
        log.setLevel(level)


def test_map_groups_lives_only_in_shuffle_by():
    """Scan ontocast_ray and the driver file __ray_entry__.py for
    ``map_groups(``: outside ops/shuffle.py each site must be an
    allow-listed (file, groupby key) natural-key grouping, and every
    allow-list entry must still be in use."""
    seen = set()
    bad = []
    paths = sorted((_REPO / "ontocast_ray").rglob("*.py"))
    for path in paths + [_REPO / "__ray_entry__.py"]:
        rel = path.relative_to(_REPO).as_posix()
        if rel == "ontocast_ray/ops/shuffle.py":
            continue
        src = path.read_text()
        for m in re.finditer(r"map_groups\(", src):
            keys = _GROUPBY.findall(src[max(0, m.start() - 300):m.start()])
            site = (rel, keys[-1] if keys else None)
            if site in ALLOWED_MAP_GROUPS:
                seen.add(site)
            else:
                line = src.count("\n", 0, m.start()) + 1
                bad.append(f"{rel}:{line} groups on {site[1]!r}")
    assert not bad, "use ops.shuffle.shuffle_by instead of map_groups: " + ", ".join(bad)
    assert seen == set(ALLOWED_MAP_GROUPS), set(ALLOWED_MAP_GROUPS) - seen


def test_n_parts_lives_only_in_the_exchange():
    """Scan ontocast_ray and __ray_entry__.py for a def with an ``n_parts``
    parameter: each must be allow-listed, and every allow-list entry must
    still be in use. Ops leave the partition count to ``shuffle_by``."""
    seen = set()
    bad = []
    paths = sorted((_REPO / "ontocast_ray").rglob("*.py"))
    for path in paths + [_REPO / "__ray_entry__.py"]:
        rel = path.relative_to(_REPO).as_posix()
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            a = node.args
            if "n_parts" not in {x.arg for x in a.posonlyargs + a.args + a.kwonlyargs}:
                continue
            site = (rel, getattr(node, "name", "<lambda>"))
            if site in ALLOWED_N_PARTS:
                seen.add(site)
            else:
                bad.append(f"{rel}:{node.lineno} {site[1]}")
    assert not bad, "let shuffle_by size its partitions: " + ", ".join(bad)
    assert seen == set(ALLOWED_N_PARTS), set(ALLOWED_N_PARTS) - seen


def test_callers_choose_what_not_how():
    """Scan ontocast_ray and __ray_entry__.py for a def with a parameter
    that picks an execution path or size (``_EXECUTION_KNOBS``): each must
    be allow-listed, and every allow-list entry must still be in use. An op
    reads such a choice from a module constant on the driver."""
    seen = set()
    bad = []
    paths = sorted((_REPO / "ontocast_ray").rglob("*.py"))
    for path in paths + [_REPO / "__ray_entry__.py"]:
        rel = path.relative_to(_REPO).as_posix()
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            a = node.args
            names = {x.arg for x in a.posonlyargs + a.args + a.kwonlyargs}
            for knob in sorted(names & _EXECUTION_KNOBS):
                site = (rel, getattr(node, "name", "<lambda>"), knob)
                if site in ALLOWED_EXECUTION_KNOBS:
                    seen.add(site)
                else:
                    bad.append(f"{rel}:{node.lineno} {site[1]}({knob})")
    assert not bad, "make it a module constant, not a parameter: " + ", ".join(bad)
    assert seen == set(ALLOWED_EXECUTION_KNOBS), set(ALLOWED_EXECUTION_KNOBS) - seen


def _actor_pool_sites(src: str):
    """(function, enclosing if-test, line) of every ``concurrency`` or
    ``fn_constructor_kwargs`` keyword, or string naming one (a kwargs dict)."""

    def visit(node, func, cond):
        if isinstance(node, ast.Call):
            for kw in node.keywords:
                if kw.arg in _POOL_ARGS:
                    yield func, cond, node.lineno
        elif isinstance(node, ast.Constant) and node.value in _POOL_ARGS:
            yield func, cond, node.lineno
        if isinstance(node, ast.If):
            yield from visit(node.test, func, cond)
            for child in node.body:
                yield from visit(child, func, ast.unparse(node.test))
            for child in node.orelse:
                yield from visit(child, func, f"not ({ast.unparse(node.test)})")
            return
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func, cond = node.name, None
        for child in ast.iter_child_nodes(node):
            yield from visit(child, func, cond)

    yield from visit(ast.parse(src), None, None)


def test_actor_pools_live_only_in_the_kg_hub_branch():
    """Scan ontocast_ray, __ray_entry__.py, bench.py and jobs for a
    ``concurrency`` or ``fn_constructor_kwargs`` argument (what makes
    ``map_batches`` start an actor pool): each site must be allow-listed,
    and every allow-list entry must still be in use."""
    seen = set()
    bad = set()
    paths = sorted((_REPO / "ontocast_ray").rglob("*.py")) + sorted((_REPO / "jobs").glob("*.py"))
    for path in paths + [_REPO / "__ray_entry__.py", _REPO / "bench.py"]:
        rel = path.relative_to(_REPO).as_posix()
        for func, cond, line in _actor_pool_sites(path.read_text()):
            site = (rel, func, cond)
            if site in ALLOWED_ACTOR_POOLS:
                seen.add(site)
            else:
                bad.add(f"{rel}:{line} in {func} (if {cond})")
    assert not bad, "map cheap-state stages as tasks, not actor pools: " + ", ".join(sorted(bad))
    assert seen == set(ALLOWED_ACTOR_POOLS), set(ALLOWED_ACTOR_POOLS) - seen


def test_ray_remote_lives_only_in_map_blocks_and_the_hub():
    """Scan ontocast_ray, __ray_entry__.py, bench.py and jobs for
    ``ray.remote`` (or ``remote`` imported from ray): each file that uses
    it must be allow-listed, and every allow-list entry must still use it.
    Tasks over materialized blocks launch in one place, ``map_blocks``."""
    seen = set()
    bad = set()
    paths = sorted((_REPO / "ontocast_ray").rglob("*.py")) + sorted((_REPO / "jobs").glob("*.py"))
    for path in paths + [_REPO / "__ray_entry__.py", _REPO / "bench.py"]:
        rel = path.relative_to(_REPO).as_posix()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute):
                hit = (node.attr == "remote" and isinstance(node.value, ast.Name)
                       and node.value.id == "ray")
            elif isinstance(node, ast.ImportFrom):
                hit = node.module == "ray" and any(a.name == "remote" for a in node.names)
            else:
                continue
            if not hit:
                continue
            if rel in ALLOWED_RAY_REMOTE:
                seen.add(rel)
            else:
                bad.add(f"{rel}:{node.lineno}")
    assert not bad, "launch tasks with ops.shuffle.map_blocks: " + ", ".join(sorted(bad))
    assert seen == set(ALLOWED_RAY_REMOTE), set(ALLOWED_RAY_REMOTE) - seen


def test_ray_data_internals_live_only_in_the_block_builder():
    """Scan ontocast_ray, __ray_entry__.py, bench.py and jobs: the engine
    imports ``ray.data._internal`` only inside ops/shuffle.py's
    ``_executed`` (so a Ray upgrade that moves it fails here, not in a
    query), and calls ``from_arrow_refs``/``from_pandas_refs`` nowhere
    (each runs one metadata task per block; the launches build their
    datasets from the metadata in hand)."""
    internal, from_refs, builder = [], [], []
    paths = sorted((_REPO / "ontocast_ray").rglob("*.py")) + sorted((_REPO / "jobs").glob("*.py"))
    for path in paths + [_REPO / "__ray_entry__.py", _REPO / "bench.py"]:
        rel = path.relative_to(_REPO).as_posix()
        tree = ast.parse(path.read_text())
        allowed = set()
        if rel == "ontocast_ray/ops/shuffle.py":
            [fn] = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "_executed"]
            allowed = set(ast.walk(fn))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                mods, names = [node.module or ""], [a.name for a in node.names]
            elif isinstance(node, ast.Import):
                mods, names = [a.name for a in node.names], []
            else:
                mods, names = [], []
            if any(m == "ray.data._internal" or m.startswith("ray.data._internal.") for m in mods):
                (builder if node in allowed else internal).append(f"{rel}:{node.lineno}")
            name = (node.attr if isinstance(node, ast.Attribute)
                    else node.id if isinstance(node, ast.Name) else None)
            if {name, *names} & {"from_arrow_refs", "from_pandas_refs"}:
                from_refs.append(f"{rel}:{node.lineno}")
    assert not internal, "import ray.data._internal only in shuffle._executed: " + ", ".join(internal)
    assert builder, "shuffle._executed no longer imports ray.data._internal"
    assert not from_refs, "build datasets with ops.shuffle.from_blocks: " + ", ".join(from_refs)
