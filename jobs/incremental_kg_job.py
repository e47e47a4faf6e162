"""Job entry point for the DAILY-CRAWL incremental KG update
(``ray job submit`` contract, like jobs/kg_job.py):

    ray job submit --working-dir . -- python jobs/incremental_kg_job.py \
        --new-docs /path/to/todays_interleaved_docs \
        --entities /state/entities_parquet_dir \
        --out /state/entities_parquet_dir_v2 --triples-out /tmp/day2_triples

Runs the flagship extraction over TODAY'S batch only, merges the new
entity aggregates into yesterday's global entity table with
``incremental_global_entities`` (merge rules are associative — the result
equals a full-batch recompute over old∪new; property-tested in
tests/test_crossdoc.py), and writes the updated table + the new batch's
triples. IDEMPOTENT: if --out already holds a committed manifest for this
input digest (every input file's path, size and mtime), the job exits 0
without recomputation (the curation_job manifest rule); overwriting an
input in place changes the digest, and the re-run replaces both outputs.
Yesterday's table is never re-aggregated from triples: its rows are
unioned with the new batch's per-batch aggregates into ONE shuffle on
entity_key, so that shuffle moves |table| + |new-batch aggregate| rows,
never the old corpus.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def input_digest(paths: list[str]) -> str:
    """Idempotency key of a run: path, size and mtime of every file under
    each input path (a file or a directory tree)."""
    entries = []
    for root in map(os.path.abspath, paths):
        files = [root] if os.path.isfile(root) else sorted(
            os.path.join(d, f) for d, _, names in os.walk(root) for f in names)
        entries.append([root, [[f, os.stat(f).st_size, os.stat(f).st_mtime_ns] for f in files]])
    return hashlib.sha256(json.dumps(entries).encode()).hexdigest()[:16]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--new-docs", required=True,
                        help="parquet dir/file of today's (doc_id, spans)")
    parser.add_argument("--entities", required=True,
                        help="yesterday's entity table (parquet dir)")
    parser.add_argument("--out", required=True,
                        help="output dir for the updated entity table")
    parser.add_argument("--triples-out", default=None,
                        help="optional output dir for today's triples")
    parser.add_argument("--min-chunk-size", type=int, default=2000)
    parser.add_argument("--max-chunk-size", type=int, default=20000)
    args = parser.parse_args(argv)

    import ray

    owns_session = not ray.is_initialized()
    if owns_session:
        ray.init(ignore_reinit_error=True, logging_level="ERROR")
    import ray.data

    from ontocast_ray.pipelines.crossdoc import incremental_global_entities
    from ontocast_ray.pipelines.kg import build_kg_pipeline
    from ontocast_ray.sources.io import read_documents

    digest = input_digest([args.new_docs, args.entities])
    manifest = os.path.join(args.out, f"_COMMITTED.{digest}.json")
    if os.path.exists(manifest):
        print(json.dumps({"skipped": True, "manifest": manifest}))
        if owns_session:
            ray.shutdown()
        return 0

    t0 = time.time()
    new_docs = read_documents(args.new_docs)
    triples = build_kg_pipeline(
        new_docs,
        min_chunk_size=args.min_chunk_size,
        max_chunk_size=args.max_chunk_size,
    ).materialize()  # consumed by the merge and (optionally) the sink
    old_table = ray.data.read_parquet(args.entities)
    updated = incremental_global_entities(old_table, triples).materialize()

    tmp = args.out + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)  # leftovers of a crashed run
    updated.write_parquet(tmp, min_rows_per_file=65_536)
    # publish: the new table (and, below, its manifest) replaces whatever
    # an earlier digest left in --out
    shutil.rmtree(args.out, ignore_errors=True)
    os.replace(tmp, args.out)
    n_triples = None
    if args.triples_out:
        shutil.rmtree(args.triples_out, ignore_errors=True)
        triples.write_parquet(args.triples_out, min_rows_per_file=65_536)
        n_triples = triples.count()

    stats = {
        "new_docs": new_docs.count(),
        "entities": updated.count(),
        "triples_written": n_triples,
        "wall_sec": round(time.time() - t0, 2),
        "manifest": manifest,
    }
    with open(manifest, "w") as fh:
        json.dump(stats, fh)
    print(json.dumps(stats))
    if owns_session:
        ray.shutdown()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
