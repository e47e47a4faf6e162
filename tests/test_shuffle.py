"""Contract of the one coarse-shuffle primitive (ops/shuffle.py) and the
guards that keep ``map_groups`` and partition counts (``n_parts``) from
spreading outside it, in the package and in the driver file
``__ray_entry__.py``; plus their twin, the guard that keeps actor pools to
the one stage that holds mutable shared state.

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
        "run_resumable forwards it; the KG tests pass 8",
    ("ontocast_ray/sources/io.py", "_write_committed", "min_rows_per_file"):
        "private: each resumable sink passes its own file size",
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


def test_empty_input_skips_the_exchange(ray_session, both_paths, caplog):
    """No rows, no exchange: no Sort operator, and the result the sort
    path gave an empty input (no rows, one block, no schema)."""
    caplog.set_level(logging.DEBUG, logger=shuffle.__name__)

    def never(df: pd.DataFrame) -> pd.DataFrame:
        raise AssertionError("kernel called on an empty input")

    for _ in both_paths():
        caplog.clear()
        out = shuffle_by(_ds(10).filter(expr="v < 0"), "s", never, n_parts=4).materialize()
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


def test_stats_show_kernel_name(ray_session, both_paths):
    def my_distinct_kernel_name(df: pd.DataFrame) -> pd.DataFrame:
        return df.drop_duplicates("s")

    for _ in both_paths():
        out = shuffle_by(_ds(30), "s", my_distinct_kernel_name, n_parts=2).materialize()
        assert "my_distinct_kernel_name" in out.stats()


def test_small_input_skips_sort_shuffle(ray_session):
    """Under the byte limit there is no Sort operator, and the kernel's
    operator runs one task that returns one block."""

    def small_kernel(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby("s", as_index=False)["v"].sum()

    out = shuffle_by(_ds(blocks=6), "s", small_kernel, n_parts=5).materialize()
    stats = out.stats()
    assert "Sort" not in stats
    assert re.search(r"MapBatches\(small_kernel\): 1 tasks executed", stats), stats
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
    stats = out.stats()
    assert "Sort" not in stats
    assert re.search(r"MapBatches\(mid_kernel\): 1 tasks executed", stats), stats
    assert out.count() == 97 and out.sum("v") == n * (n - 1) // 2


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


def test_gate_sweep_records_each_exchange(ray_session, both_paths):
    """tools/gate_sweep.py reads every call's kernel, path, bytes, blocks
    and coalesced block count from the DEBUG record, under the query that
    made it."""
    import importlib.util

    spec = importlib.util.spec_from_file_location(
        "gate_sweep", _REPO / "tools" / "gate_sweep.py")
    sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sweep)
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
