"""Job entry point for ``ray job submit`` (north rule: the full job launched
via ray job submit on a fixed-size cluster).

    ray job submit --working-dir . -- python jobs/kg_job.py \
        --docs /path/to/interleaved_docs_parquet \
        --out /tmp/kg_out --shards 64

Reads the stored interleaved-docs table (doc_id, spans), runs the flagship
pipeline once over every uncommitted shard with committed lineage manifests
(idempotent resume), and prints a JSON summary. In this sandbox it runs
against a local session; on a cluster the same script is submitted
unchanged — `ray.init()` with no address connects to the running cluster
from inside a job.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

# `ray job submit --working-dir .` puts the repo on the path; a direct
# `python jobs/kg_job.py` run needs the parent dir added explicitly
sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--docs", required=True, help="parquet dir/file of (doc_id, spans)")
    parser.add_argument("--out", required=True)
    parser.add_argument("--shards", type=int, default=64)
    parser.add_argument("--min-chunk-size", type=int, default=2000)
    parser.add_argument("--max-chunk-size", type=int, default=20000)
    parser.add_argument("--ontology-dir", default=None)
    args = parser.parse_args(argv)

    import ray

    owns_session = not ray.is_initialized()
    if owns_session:
        ray.init(ignore_reinit_error=True, logging_level="ERROR")
    import ray.data

    from ontocast_ray.pipelines.kg import run_resumable
    from ontocast_ray.sources.io import read_documents

    # contract input: a Lance dataset dir (when the wheel exists) or parquet
    docs = read_documents(args.docs)
    t0 = time.time()
    stats = run_resumable(
        docs,
        args.out,
        n_shards=args.shards,
        ontology_dir=args.ontology_dir,
        min_chunk_size=args.min_chunk_size,
        max_chunk_size=args.max_chunk_size,
    )
    stats["wall_sec"] = round(time.time() - t0, 2)
    print(json.dumps(stats))
    if owns_session:  # don't tear down a caller-owned (test/driver) session
        ray.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
