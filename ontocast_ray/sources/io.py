"""Partitioned, resumable Parquet IO with per-partition lineage manifests.

The canonical store is partitioned Parquet (the environment has no Lance
wheel; the layout below is Lance-dataset-shaped — one directory per
partition range + a sidecar manifest — and the writer is a thin shim, so a
``write_lance`` backend can be swapped in without touching callers).

Layout (``<col>`` is ``part`` for the KG sink, ``bucket`` for
``write_bucketed``):
    out_dir/
      <col>=<N>/....parquet             # one directory per hash partition
      _manifest/<N>.json                # {"rows": n}, committed AFTER the data

One commit protocol (``_write_committed``) serves both sinks. A run purges
the directories of uncommitted partitions (orphans of a crashed run),
writes every uncommitted partition in one exchange, and only then commits
each partition's marker, with its row count read from the parquet footers.
A committed partition is never rewritten, so resume is idempotent. The
trade-off of the single exchange: a crash anywhere in it leaves every
partition of that run uncommitted, and the re-run redoes all of them.

The write is ``shuffle_by(<col>, write_parts)``: the exchange colocates
each partition's rows, and its kernel writes the partitions it receives,
one file per partition (``part-0.parquet``). ``shuffle_by`` picks the path
from the input's size: at or below its gather limit (64 MiB) one plain Ray
task writes every partition, and no Ray Data execution starts; above it
the sort path spreads the partitions over reducers, so no write task holds
the whole run. Each partition reaches exactly one kernel call, and the
kernel clears a partition's directory before writing it, so a retried
write task replaces its own files. The producer stays parallel: the KG
sink (``run_resumable``) hands over triples that ``ops.shuffle.map_blocks``
already materialized, one plain Ray task per doc block, and
``write_bucketed``'s lazy producer runs in one execution, one task per
input block, when the exchange materializes it.
"""

from __future__ import annotations

import json
import os


def is_lance_dataset(path: str) -> bool:
    """Lance dataset layout probe: a directory with a ``_versions`` (or
    ``_latest.manifest``) sidecar and ``data/*.lance`` fragments."""
    if not os.path.isdir(path):
        return False
    if os.path.isdir(os.path.join(path, "_versions")):
        return True
    import glob

    return bool(glob.glob(os.path.join(path, "data", "*.lance")))


def read_documents(path: str, columns: list | None = None):
    """The engine's contract input (north rule: Lance tables of interleaved
    documents): a Lance dataset directory streams via ``ray.data.read_lance``
    when the pylance wheel is present; everything else reads as Parquet.
    This sandbox has no lance wheel, so the Lance branch raises a clearly
    marked NotImplementedError at the exact library call — the dispatch,
    detection, and parquet fallback are real and tested."""
    import ray.data

    if is_lance_dataset(path):
        try:
            import lance  # noqa: F401  (presence gate)
        except ImportError as exc:
            raise NotImplementedError(
                "input is a Lance dataset but the pylance wheel is not "
                "installed; install `pylance` or convert to parquet"
            ) from exc
        return ray.data.read_lance(path, columns=columns)
    if path.endswith((".csv", ".csv.gz", ".tsv", ".tsv.gz")):
        import pyarrow.csv as pacsv

        parse_opts = (
            pacsv.ParseOptions(delimiter="\t")
            if path.endswith((".tsv", ".tsv.gz"))
            else None
        )
        ds = ray.data.read_csv(
            path,
            arrow_open_stream_args=(
                {"compression": "gzip"} if path.endswith(".gz") else None
            ),
            **({"parse_options": parse_opts} if parse_opts else {}),
        )
        return ds.select_columns(columns) if columns else ds
    if path.endswith((".jsonl", ".json", ".jsonl.gz", ".json.gz", ".ndjson")):
        # web corpora usually arrive as (gzipped) JSONL; Ray's JSON reader
        # streams it block-wise — project client-side (no pushdown in JSON)
        ds = ray.data.read_json(
            path,
            arrow_open_stream_args=(
                {"compression": "gzip"} if path.endswith(".gz") else None
            ),
        )
        return ds.select_columns(columns) if columns else ds
    return ray.data.read_parquet(path, columns=columns)


def write_documents(ds, path: str, fmt: str = "parquet", **kwargs):
    """Sink shim mirroring read_documents: fmt="lance" uses
    ``Dataset.write_lance`` when the wheel exists, else raises the same
    marked NotImplementedError; parquet is the canonical store here."""
    if fmt == "lance":
        try:
            import lance  # noqa: F401
        except ImportError as exc:
            raise NotImplementedError(
                "fmt='lance' requires the pylance wheel; use fmt='parquet'"
            ) from exc
        return ds.write_lance(path, **kwargs)
    if fmt == "jsonl":
        return ds.write_json(path, **kwargs)
    if fmt != "parquet":
        raise ValueError(f"unknown format {fmt!r}")
    return ds.write_parquet(path, **kwargs)


def manifest_dir(out_dir: str) -> str:
    return os.path.join(out_dir, "_manifest")


def committed_shards(out_dir: str) -> set[int]:
    mdir = manifest_dir(out_dir)
    if not os.path.isdir(mdir):
        return set()
    out = set()
    for name in os.listdir(mdir):
        if name.endswith(".json"):
            try:
                out.add(int(name[:-5]))
            except ValueError:
                continue
    return out


def commit_shard(out_dir: str, shard: int, stats: dict) -> str:
    mdir = manifest_dir(out_dir)
    os.makedirs(mdir, exist_ok=True)
    path = os.path.join(mdir, f"{shard}.json")
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump({"shard": shard, "status": "committed", **stats}, fh)
    os.replace(tmp, path)  # atomic commit marker
    return path


def _write_committed(
    ds, out_dir: str, col: str, n_parts: int, done: set[int], order_by: str | None = None
) -> tuple[dict[int, int], int]:
    """The commit protocol of both resumable sinks. ``ds`` carries an int
    ``col`` in [0, n_parts) and no rows of the ``done`` (committed) parts.
    Purges the ``<col>=N/`` directories of uncommitted parts, materializes
    ``ds`` and writes it through one ``shuffle_by(col)`` (`_part_writer`:
    one file per part, rows sorted by ``order_by`` within a part when
    given), then commits each uncommitted part with its row count read from
    the parquet footers — markers only after the whole write returned.
    → ({part: rows}, blocks): rows include ``done`` parts (and 0 for parts
    that got no rows: they are complete too); blocks is the materialized
    block count (0 when every part was already committed)."""
    import glob
    import shutil

    import pyarrow.parquet as pq

    from ontocast_ray.ops.shuffle import shuffle_by

    prefix = f"{col}="
    for name in os.listdir(out_dir) if os.path.isdir(out_dir) else []:
        part = name[len(prefix):]
        if name.startswith(prefix) and part.isdigit() and int(part) not in done:
            shutil.rmtree(os.path.join(out_dir, name), ignore_errors=True)
    rows: dict[int, int] = {}
    for p in sorted(done):
        with open(os.path.join(manifest_dir(out_dir), f"{p}.json"), encoding="utf-8") as fh:
            rows[p] = int(json.load(fh).get("rows", 0))
    todo = [p for p in range(n_parts) if p not in done]
    blocks = 0
    if todo:
        ds = ds.materialize()
        blocks = ds.num_blocks()
        # the sort path returns a lazy dataset: run it, or nothing is written
        shuffle_by(ds, col, _part_writer(out_dir, col, order_by),
                   batch_format="pyarrow").materialize()
    for p in todo:
        files = glob.glob(os.path.join(out_dir, f"{prefix}{p}", "*.parquet"))
        rows[p] = sum(pq.read_metadata(f).num_rows for f in files)
        commit_shard(out_dir, p, {"rows": rows[p]})
    return rows, blocks


def _part_writer(out_dir: str, col: str, order_by: str | None):
    """→ the ``shuffle_by(col)`` kernel of `_write_committed`: it writes the
    rows it gets as ``out_dir/<col>=N/part-0.parquet``, one file per part N
    (hive layout, without the ``col`` column), sorted by ``order_by`` within
    a part when given and otherwise in input order, and returns one
    (``col``, rows) row per part written. The exchange sends each part to
    one kernel call, and ``delete_matching`` empties a part's directory
    before the write, so a retried task replaces its own files."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.dataset as pads

    def write_parts(table: "pa.Table") -> "pa.Table":
        if order_by is not None:
            table = table.sort_by(order_by)
        # a row group per 1M rows (Arrow's row group maximum), not one per
        # input block: the KG sink's 16 blocks made 27% larger shard files
        pads.write_dataset(
            table, out_dir, format="parquet", partitioning=[col], partitioning_flavor="hive",
            basename_template="part-{i}.parquet", existing_data_behavior="delete_matching",
            use_threads=False, min_rows_per_group=1 << 20,
        )
        parts, rows = np.unique(table[col].to_numpy(), return_counts=True)
        return pa.table({col: parts, "rows": rows})

    return write_parts


def write_bucketed(
    ds,
    out_dir: str,
    key_col: str,
    n_buckets: int = 16,
) -> dict:
    """Hash-bucketed sink: ``out_dir/bucket=NN/part-0.parquet`` where every
    row of bucket NN satisfies ``hash(key) % n_buckets == NN``, sorted by key
    within the bucket. The payoff at scale: two tables bucketed the same
    way co-locate join keys per directory (a bucket join reads one
    directory pair at a time, no shuffle).

    Resume follows the module's commit protocol: rows of committed buckets
    are dropped map-side, and the one exchange on ``bucket`` sorts each
    bucket by key and writes it; uncommitted ``bucket=NN`` directories are
    purged before the write, so re-runs never duplicate rows. → {bucket:
    n_rows}, including buckets committed by earlier runs.
    """
    import numpy as np
    import pyarrow as pa

    from ontocast_ray.util import hash_partition

    done = committed_shards(out_dir)
    skip = np.array(sorted(done), dtype=np.int32)

    def add_bucket(batch: pa.Table) -> pa.Table:
        buckets = hash_partition(batch[key_col], n_buckets)
        out = batch.append_column("bucket", pa.array(buckets))
        return out.filter(pa.array(~np.isin(buckets, skip)))

    return _write_committed(ds.map_batches(add_bucket, batch_format="pyarrow"), out_dir,
                            "bucket", n_buckets, done, order_by=key_col)[0]


def read_bucket(out_dir: str, bucket: int, columns: list | None = None):
    """Read ONE bucket directory of a ``write_bucketed`` layout — the
    pruned-read half of a bucket join."""
    import ray.data

    return ray.data.read_parquet(
        os.path.join(out_dir, f"bucket={bucket}"), columns=columns
    )


def compact_parquet(
    in_path: str,
    out_dir: str,
    min_rows_per_file: int = 262_144,
    columns: list | None = None,
) -> dict:
    """Rewrite a parquet dataset with consolidated files — the tiny-files
    remedy as a standalone tool. Shuffle-heavy stages leave hundreds of
    near-empty files whose metadata alone costs ~10 s per session to
    read (measured here); running this once after such a job makes every
    later read cheap. Streaming read → streaming write, ``columns=``
    prunes at the source; returns {rows, files_in, files_out}.
    """
    import glob as _glob
    import os as _os

    import ray.data

    files_in = len(_glob.glob(_os.path.join(in_path, "**", "*.parquet"),
                              recursive=True)) or 1
    ds = ray.data.read_parquet(in_path, columns=columns)
    ds.write_parquet(out_dir, min_rows_per_file=min_rows_per_file)
    files_out = len(_glob.glob(_os.path.join(out_dir, "**", "*.parquet"),
                               recursive=True))
    return {
        "rows": ray.data.read_parquet(out_dir).count(),
        "files_in": files_in,
        "files_out": files_out,
    }
