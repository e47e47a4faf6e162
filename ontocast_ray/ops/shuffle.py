"""One coarse-shuffle primitive, ``shuffle_by``, and one way to run a
function over materialized blocks, ``map_blocks`` (with ``union_blocks``
to join their outputs without a Ray Data execution).

Grouping on a fine key with ``groupby(key).map_groups`` costs one Python
call per group, and Ray's native keyed paths (sort aggregate, hash-shuffle
aggregate, ``repartition(keys=)``) measured 10-1000x slower here than the
coarse shape: hash the key into one of P partitions, sort-shuffle on that
partition id, and let the kernel loop (vectorized) over the keys of its
partition. Every op in ``ontocast_ray`` and every driver query in
``__ray_entry__.py`` that needs equal keys colocated goes through
``shuffle_by``; only ops whose meaning is one call per natural key (a
k-means ``cluster``, a bounded shard pair ``pg``) group directly.
``tests/test_shuffle.py`` fails on any other ``map_groups`` call in either.

``shuffle_by`` is adaptive and eager: it materializes its input at call
time (the sort is an all-to-all barrier that holds the whole input in the
object store anyway), then reads rows and bytes from block metadata. An
input of at most ``_GATHER_BYTES`` (64 MiB) skips the sort shuffle: every
block goes to one plain Ray task, the kernel runs once over all rows (the
``n_parts=1`` semantics), and the output is one block. A larger input
takes the sort path, so no single task holds an unbounded input. An input
with no rows takes neither: it returns one empty block. Each call logs at
DEBUG level the path it took, the input's rows, bytes and blocks, the block
count after coalescing (``map_blocks``) and the partition count
(``n_parts``).

The exchange sizes its own partitions, so no op takes a partition count.
The sort path hashes the keys into P = ceil(rows / ``_ROWS_PER_PART``)
partitions, clamped to [``_MIN_PARTS``, ``_MAX_PARTS``]: the row count
is read from the materialized input, so the upstream runs once. Callers
pass only ``n_parts=1`` (one kernel call over every row, for global
folds), and ``incremental_global_entities`` forwards its caller's value.

The exchange also owns input-block coalescing, so no caller repartitions
in front of it. Ray's sort runs one sample, one map and one reduce task
per input block, so the block count is the sort's width. The sort path
bundles its input into at most P blocks. It bundles in the map that adds
the partition id, so it adds no operator, and it never splits: an input
of at most P blocks keeps its blocks. The gather path needs no rule: its
one task reads every block.

``map_blocks`` runs a function over blocks that are already materialized
as plain ``ray.remote`` tasks, one per block, outside Ray Data's streaming
executor. That executor notices a finished task only on its 0.1 s
``ray.wait`` tick and, until the first task reports its output size,
runs that task alone: the 16 tasks of ``crawl_update``'s KG stage (about
1.2 s of kernel CPU; 4 CPUs, a 768 MiB object store, medians of 8
alternating runs) took 0.91 s of wall time through it and 0.52 s as plain
tasks, for the same 89,037 rows. The gather path is the same launch with
every block in one task. A launch returns its output materialized: a
``from_*_refs`` dataset that was never ``.materialize()``d starts an
execution when it is read (``take_all``, ``iter_batches``,
``to_pandas``), and the ``.materialize()`` call itself starts none. So a
chain of launches over materialized blocks, such as the near-dup pass
(LSH, verify, keep list) or the crawl merge (``union_blocks`` joins its two
maps' outputs, where a ``Dataset.union`` would start an execution),
starts no Ray Data execution. Each launch logs
at DEBUG level, on the child logger ``ontocast_ray.ops.shuffle.map_blocks``,
the function's name, its input blocks, its tasks, its rows in and out,
its input bytes (``bytes_in``) and the wall seconds its tasks spent, summed
(``task_s``). The module's only ``ray.remote`` is ``_run_blocks``;
``tests/test_shuffle.py`` fails on any other outside
``state/ontology_hub.py``.
"""

from __future__ import annotations

import contextlib
import functools
import logging
import math
import time

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data
from ray.data.block import BlockAccessor

from ontocast_ray.util import hash_partition, hash_u64

_PART = "__shuffle_part__"
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
# The most one task may gather: the memory bound of one kernel call, which
# holds the whole input plus its own frames. Larger inputs take the sort
# path, which spreads them over reducers. Under the limit a gather wins,
# because a sort costs what its block grid costs: every call between 2 and
# 64 MiB that bench.py makes at sf0.1 (18, up to 34 MiB) and the gate sweep
# makes at sf0.01 (13, up to 17.6 MiB) gathered 1.3-6.3x faster on 4 CPUs.
_GATHER_BYTES = 64 << 20
# The sort path's partition count, from the row count the call already
# holds: ~_ROWS_PER_PART rows per reducer frame, clamped to [_MIN_PARTS,
# _MAX_PARTS]. The floor keeps a small sort spread over the reducers; a
# larger P only widens the sort's grid (global_entity_table over 81.5 MiB
# of mentions, 4 CPUs: 14.4 s at P=8, 20.7 s at P=64).
_ROWS_PER_PART = 250_000
_MIN_PARTS = 8
_MAX_PARTS = 65_536

_log = logging.getLogger(__name__)
_blocks_log = logging.getLogger(f"{__name__}.map_blocks")


def _partition_ids(batch, keys: list[str], n_parts: int) -> np.ndarray:
    """int32 partition id in [0, n_parts) per row of a pandas/arrow batch.

    One key: ``hash_partition``. Several keys: the golden-ratio polynomial
    ``h = h*G + hash_u64(col)`` over the keys in order.
    """
    if len(keys) == 1:
        return hash_partition(batch[keys[0]], n_parts)
    h = np.zeros(len(batch), dtype=np.uint64)
    for k in keys:
        h = h * _GOLDEN + hash_u64(batch[k])
    return (h % np.uint64(n_parts)).astype(np.int32)


def shuffle_by(
    ds: "ray.data.Dataset",
    keys: "str | list[str]",
    kernel,
    n_parts: int | None = None,
    batch_format: str = "pandas",
) -> "ray.data.Dataset":
    """Colocate rows with equal ``keys`` and run ``kernel`` per partition.

    The input is materialized first, so the call runs everything upstream
    of it before it returns. An input with no rows returns one empty block
    with no schema, and ``kernel`` is never called. Otherwise one of two
    paths:

    - gather: an input of at most ``_GATHER_BYTES`` (64 MiB by block
      metadata) goes to one plain Ray task (``map_blocks``'s launch), which
      calls ``kernel`` once with a frame of every row before this call
      returns; the output is that call's one block, materialized;
    - sort: rows are hashed into ``n_parts`` partitions (sized from the
      row count when None, module docstring), the input's blocks are
      bundled into at most that many, sort-shuffled on the partition id,
      and ``kernel`` is called once per non-empty partition with a frame
      that holds every row of its keys (many keys per call). The output
      is lazy: the kernel runs when it is consumed, so a caller that needs
      the kernel's side effects (the resumable sink's write) materializes
      it.

    Either way ``kernel`` gets a ``batch_format`` frame with no partition
    column, never an empty one, and the output is the union of its
    frames. ``n_parts=1`` gathers every row into one kernel call.
    """
    keys = [keys] if isinstance(keys, str) else list(keys)
    ds = ds.materialize()
    n, size, blocks = ds.count(), ds.size_bytes(), ds.num_blocks()
    gather = size is not None and size <= _GATHER_BYTES
    if gather or n == 0:
        p = 1
    elif n_parts is None:
        p = min(_MAX_PARTS, max(_MIN_PARTS, math.ceil(n / _ROWS_PER_PART)))
    else:
        p = n_parts
    _log.debug(
        "shuffle_by %s: path=%s rows=%d bytes=%s blocks=%d map_blocks=%d n_parts=%d",
        getattr(kernel, "__name__", type(kernel).__name__),
        "empty" if n == 0 else "gather" if gather else "sort", n, size, blocks,
        min(blocks, p), p,
    )

    if n == 0:
        # what the sort path gives an empty input: one empty block, no schema
        return ray.data.from_pandas(pd.DataFrame()).materialize()
    if gather:
        return _launch(ds, kernel, batch_format, [_block_refs(ds)])

    def add_part(batch):
        part = _partition_ids(batch, keys, p)
        if isinstance(batch, pd.DataFrame):
            return batch.assign(**{_PART: part})
        return batch.append_column(_PART, pa.array(part))

    if batch_format == "pandas":
        def drop(group):
            return group.drop(columns=_PART)
    else:
        def drop(group):
            return group.drop_columns([_PART])

    @functools.wraps(kernel)
    def run(group):
        return kernel(drop(group))

    return (
        ds.map_batches(
            add_part, batch_format=None,
            batch_size=math.ceil(n / p) if blocks > p else None,
        )
        .groupby(_PART)
        .map_groups(run, batch_format=batch_format)
    )


def map_blocks(ds: "ray.data.Dataset", fn) -> "ray.data.Dataset":
    """Materialize ``ds``, then call ``fn`` once per block, each call in its
    own plain Ray task, and return the materialized dataset of the output
    blocks, in input order.

    Use it for a map whose input is already materialized: the launch and
    reads of its output start no Ray Data execution. A lazy ``ds`` is
    materialized first, in one execution of its whole upstream, so the
    call then holds ``ds`` in the object store where a lazy map would
    hold only its output; keep lazy what callers compose.

    ``fn`` gets the block as a ``pyarrow.Table``, an empty one too (where
    ``map_batches`` would skip it): the empty blocks of a sort-path
    ``shuffle_by`` output have no columns. It returns what a
    ``map_batches`` function may return; the output is
    stored as ``map_batches`` stores it. A task whose worker dies is
    retried; an exception raised by ``fn`` propagates, the first one when
    several tasks raise. An input with no blocks runs no task and gives an
    empty dataset.
    """
    ds = ds.materialize()
    return _launch(ds, fn, "pyarrow", [[ref] for ref in _block_refs(ds)])


def union_blocks(*datasets) -> "ray.data.Dataset":
    """The materialized dataset of every block of ``datasets``, in order.

    ``Dataset.union`` of materialized datasets is lazy, so reading it starts
    a Ray Data execution (21 small blocks, 4 CPUs: 0.087 s, against 0.037 s
    here); this takes the block refs instead and starts none. A lazy input
    is materialized first, in one execution of its own upstream."""
    return ray.data.from_arrow_refs(
        [ref for ds in datasets for ref in _block_refs(ds.materialize())]).materialize()


def _block_refs(ds) -> list:
    """The block refs of the materialized ``ds``, in order."""
    return [ref for bundle in ds.iter_internal_ref_bundles() for ref in bundle.block_refs]


def _launch(ds, fn, batch_format: str, groups: list[list]) -> "ray.data.Dataset":
    """One ``_run_blocks`` task per group of the materialized ``ds``'s block
    refs → the materialized dataset of their output blocks.

    When ``fn`` raises, each failed task's output ref is fetched before the
    first error is re-raised: Ray reports an error ref that no one fetched
    as an "Unhandled error", one traceback per ref."""
    fn_ref = ray.put(fn)
    tasks = [_run_blocks.remote(fn_ref, batch_format, *group) for group in groups]
    try:
        meta = ray.get([m for _, m in tasks])
    except Exception:
        for block, m in tasks:
            try:
                ray.get(m)
            except Exception:
                with contextlib.suppress(Exception):
                    ray.get(block)
        raise
    from_refs = (ray.data.from_pandas_refs if any(p for p, _ in meta)
                 else ray.data.from_arrow_refs)
    # a from_*_refs dataset that was never materialized starts a Ray Data
    # execution on take_all/iter_batches; materializing it starts none
    out = from_refs([block for block, _ in tasks]).materialize()
    _blocks_log.debug(
        "map_blocks %s: blocks=%d tasks=%d rows_in=%d rows_out=%d bytes_in=%s task_s=%.3f",
        getattr(fn, "__name__", type(fn).__name__),
        sum(map(len, groups)), len(groups), ds.count(), out.count(),
        ds.size_bytes(), sum(s for _, s in meta),
    )
    return out


# Ray Data's own task options: retry without limit when the worker dies,
# and on a RaySystemError raised in the task; a user exception propagates.
@ray.remote(num_returns=2, max_retries=-1, retry_exceptions=[ray.exceptions.RaySystemError])
def _run_blocks(fn, batch_format: str, *blocks):
    """``fn`` over the rows of ``blocks`` as one ``batch_format`` batch →
    (output block, (whether it is a pandas block, the task's wall seconds))."""
    t0 = time.perf_counter()
    out = BlockAccessor.batch_to_block(
        fn(BlockAccessor.for_block(_concat(blocks)).to_batch_format(batch_format)))
    return out, (isinstance(out, pd.DataFrame), time.perf_counter() - t0)


def _concat(blocks) -> "pa.Table | pd.DataFrame":
    """One block of every row of ``blocks``, arrow or pandas in any mix.
    Blocks without rows drop out (``shuffle_by``'s schema-less empty block
    among them) unless no block has rows; a mix is joined as pandas."""
    full = [b for b in blocks if BlockAccessor.for_block(b).num_rows()] or list(blocks[:1])
    if len(full) == 1:
        return full[0]
    if not all(isinstance(b, pa.Table) for b in full):
        full = [BlockAccessor.for_block(b).to_pandas() for b in full]
    builder = BlockAccessor.for_block(full[0]).builder()
    for b in full:
        builder.add_block(b)
    return builder.build()
