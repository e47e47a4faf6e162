"""One coarse-shuffle primitive: ``shuffle_by``.

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
block goes to one task, the kernel runs once over all rows (the
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
"""

from __future__ import annotations

import functools
import logging
import math

import numpy as np
import pandas as pd
import pyarrow as pa

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
      metadata) goes to one task, ``kernel`` is called once with a frame of
      every row, and the output is that call's one block;
    - sort: rows are hashed into ``n_parts`` partitions (sized from the
      row count when None, module docstring), the input's blocks are
      bundled into at most that many, sort-shuffled on the partition id,
      and ``kernel`` is called once per non-empty partition with a frame
      that holds every row of its keys (many keys per call).

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
        import ray.data

        # what the sort path gives an empty input: one empty block, no schema
        return ray.data.from_pandas(pd.DataFrame())
    if gather:
        return ds.map_batches(kernel, batch_size=n, batch_format=batch_format)

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
