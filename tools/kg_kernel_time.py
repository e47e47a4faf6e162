#!/usr/bin/env python
"""Time the per-doc KG kernel in-process, without Ray.

Runs ``KGProcessDocs`` (chunk → extract → canonicalize → rows) directly over
the seeded ``crawl_update`` day-2 documents of ``perfbench``, in 64-doc
slices, with the ontology seeds ``build_kg_pipeline`` uses by default. It
prints one JSON line: the CPU time (``time.process_time``) of each run and
their median, and the output's row count and order-independent digest
(``perfbench.checks.digest``). At seed 1 with all 1,024 docs the digest
must equal the ``crawl_update`` pin.

Every run is cold: the modules are imported before the first run, and
each run starts with every module-level ``lru_cache`` of ``ontocast_ray``
cleared (``derive_ontology_id``, ``char_bag``, ...), so it costs what a new
crawl day costs in a new worker.

CPU time of one process is the number to compare on a host whose CPU steal
swamps wall-clock A/Bs: run it from two checkouts and compare medians.

    PYTHONPATH=. python tools/kg_kernel_time.py [--seed 1] [--docs 1024] [--runs 3]
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, REPO)


def day2_docs(seed: int, n_docs: int):
    """The ``crawl_update`` day-2 documents of ``seed`` (first ``n_docs``),
    with their text spans assembled."""
    import pyarrow as pa

    from ontocast_ray.corpus import generate_corpus
    from ontocast_ray.stages.assemble import assemble_spans
    from perfbench.workloads import CrawlUpdate

    w = CrawlUpdate
    docs = generate_corpus(n_docs=w.n_docs, seed=2 * seed + 1, head_entity_fraction=0.3,
                           target_doc_chars=w.doc_chars).slice(0, n_docs)
    ids = pa.array([f"day2-{d}" for d in docs["doc_id"].to_pylist()], type=pa.string())
    return assemble_spans(docs.set_column(0, "doc_id", ids))


def clear_caches() -> int:
    """Clear every module-level ``functools`` cache of the loaded
    ``ontocast_ray`` modules; → how many."""
    cleared = 0
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] != "ontocast_ray" or module is None:
            continue
        for fn in {id(v): v for v in vars(module).values()}.values():
            if callable(getattr(fn, "cache_clear", None)) and hasattr(fn, "cache_info"):
                fn.cache_clear()
                cleared += 1
    return cleared


def run_kernel(docs, slice_rows: int):
    """→ the triple tables of one run over ``docs``, one per slice."""
    from ontocast_ray.pipelines.kg import KGProcessDocs, default_ontology_records
    from ontocast_ray.state.ontology_hub import seed_from_records
    from perfbench.workloads import CHUNKING

    proc = KGProcessDocs(ontology_seeds=seed_from_records(default_ontology_records()), **CHUNKING)
    return [proc(docs.slice(i, slice_rows)) for i in range(0, len(docs), slice_rows)]


def main(argv=None) -> dict:
    from perfbench.checks import TRIPLE_COLUMNS, digest
    from perfbench.workloads import BLOCK_ROWS, DEFAULT_SEED, CrawlUpdate, load_pins

    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--docs", type=int, default=CrawlUpdate.n_docs)
    ap.add_argument("--runs", type=int, default=3)
    args = ap.parse_args(argv)

    docs = day2_docs(args.seed, args.docs)
    run_kernel(docs.slice(0, 0), BLOCK_ROWS)  # imports every kernel module
    times, digests = [], set()
    for _ in range(args.runs):
        clear_caches()
        t0 = time.process_time()
        tables = run_kernel(docs, BLOCK_ROWS)
        times.append(time.process_time() - t0)
        digests.add(digest(tables, TRIPLE_COLUMNS))
    (rows, dig), = digests  # every run must emit the same rows
    out = {"seed": args.seed, "docs": len(docs), "process_time_s": [round(t, 3) for t in times],
           "median_s": round(statistics.median(times), 3), "rows": rows, "digest": dig}
    pin = load_pins()["crawl_update"].get(str(args.seed))
    if pin is not None and args.docs == CrawlUpdate.n_docs:
        out["pin_ok"] = (rows, dig) == (pin["triples"], pin["digest"])
    print(json.dumps(out))
    return out


if __name__ == "__main__":
    main()
