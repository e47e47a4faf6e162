"""KG-engine benchmark: documents per second through the engine's public
entry points on two seeded workloads, and a traced run that splits each
pass by layer.

    python3 perfbench/run.py --workload crawl_update --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all        # every workload from one process

Run it from the repository root (the directory holding ``ontocast_ray``).
Workloads are listed in ``BENCHMARK.json`` and defined in ``workloads.py``.

A run first generates its inputs from the seed. With ``--trace 0`` it then
sets up ``SETUPS`` times (Ray start, staging the inputs in the object store,
and a warm-up batch per core; the median is ``setup_s``), then repeats
timed passes until ``--seconds`` of pass time are spent, sampling the summed
RSS of the driver and its Ray processes. ``docs_per_s`` is the median over
passes. Every pass's outputs are checked against digests pinned in
``pins.json`` for the default seed, or against the direct reference path for
any other seed; a pass that raises or fails its check counts as failed.

With ``--trace 1`` a run makes the same untraced passes, then restarts Ray
with ``perfbench.trace.install_worker`` as the worker setup hook and repeats
the passes traced. It reports the per-layer metrics (``trace.py``), the
tracing overhead, and the host probes.

Each run prints one line per workload with every metric by name and unit,
``failed_frac`` (failed passes ÷ passes) among them, and as its last line
one JSON object ``{correct, attempted, failed, metrics}``; with ``all`` the
metric names carry a ``<workload>.`` prefix. It exits 1 when a pass fails,
2 when the engine cannot be imported.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import statistics
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SETUPS = 3
MIN_PASSES = 2
OBJECT_STORE_BYTES = 768 * 2**20
MAX_RAY_TMP_CHARS = 45  # Ray's socket paths under its temp dir must stay short


class Ctx:
    """What a workload's pass needs from the run: the driver tracer, the
    core count, a scratch directory per pass, and the datasets the traced
    ``build_kg_pipeline`` returned during the pass."""

    def __init__(self, work: str, cpus: int):
        from perfbench.trace import Tracer

        self.work, self.cpus = work, cpus
        self.tracer = Tracer()
        self.datasets: list = []
        self._n = itertools.count()

    def fresh_dir(self, name: str) -> str:
        path = os.path.join(self.work, "passes", f"{name}-{next(self._n)}")
        os.makedirs(path)
        return path

    def clear_passes(self) -> None:
        shutil.rmtree(os.path.join(self.work, "passes"), ignore_errors=True)


class RaySession:
    """One local Ray session sized to ``cpus``; ``stop`` waits until every
    process the session started has ended."""

    def __init__(self, work: str, cpus: int, trace_dir: str | None = None):
        import ray
        import ray.data

        from perfbench import host
        from perfbench.trace import TRACE_DIR_ENV

        self._before = host.descendants(os.getpid())
        os.environ["PYTHONPATH"] = os.pathsep.join(
            p for p in [ROOT, os.environ.get("PYTHONPATH", "")] if p)
        kwargs = dict(num_cpus=cpus, include_dashboard=False, logging_level="ERROR",
                      log_to_driver=False, object_store_memory=OBJECT_STORE_BYTES)
        ray_tmp = os.path.join(os.path.dirname(work), "ray")
        if len(ray_tmp) <= MAX_RAY_TMP_CHARS:
            kwargs["_temp_dir"] = ray_tmp
        if trace_dir is not None:
            os.environ[TRACE_DIR_ENV] = trace_dir
            kwargs["runtime_env"] = {"worker_process_setup_hook": "perfbench.trace.install_worker"}
        else:
            os.environ.pop(TRACE_DIR_ENV, None)
        ray.init(**kwargs)
        ray.data.DataContext.get_current().enable_progress_bars = False

    def stop(self) -> None:
        import ray

        from perfbench import host

        started = host.descendants(os.getpid()) - self._before
        ray.shutdown()
        host.wait_ended(started)


def _stats_uuids(datasets) -> set:
    out = set()
    for ds in datasets:
        todo = [ds._get_stats_summary()]
        while todo:
            s = todo.pop()
            out.add(s.dataset_uuid)
            todo.extend(s.parents)
    return out


def _task_wall(datasets, exclude: set) -> tuple[float, float]:
    """→ (Σ task wall seconds over the operators the datasets ran, spilled
    MB), each dataset uuid counted once and staged inputs excluded."""
    seen, wall, spilled = set(exclude), 0.0, 0
    for ds in datasets:
        target = ds._write_ds if getattr(ds, "_write_ds", None) is not None else ds
        todo = [target._get_stats_summary()]
        while todo:
            s = todo.pop()
            if s.dataset_uuid in seen:
                continue
            seen.add(s.dataset_uuid)
            wall += sum((op.wall_time or {}).get("sum", 0.0) for op in s.operators_stats)
            spilled = max(spilled, s.global_bytes_spilled or 0)
            todo.extend(s.parents)
    return wall, spilled / 2**20


def _mismatch(summary: dict, expected: dict) -> list[str]:
    problems = list(summary.get("problems", []))
    for key, want in expected.items():
        if key != "problems" and summary.get(key) != want:
            problems.append(f"{key}: got {summary.get(key)!r}, want {want!r}")
    return problems


def timed_passes(w, state: dict, ctx: Ctx, expected: dict, seconds: float,
                 traced: bool = False) -> list[dict]:
    """Repeat passes until ``seconds`` of pass time are spent (at least
    ``MIN_PASSES``). Outputs are checked after each pass, outside its time."""
    exclude = _stats_uuids(v for v in state.values() if hasattr(v, "_get_stats_summary"))
    passes, spent = [], 0.0
    while spent < seconds or len(passes) < MIN_PASSES:
        ctx.datasets.clear()
        rec = {"start": time.time()}
        t0 = time.perf_counter()
        try:
            outputs = w.run_pass(state, ctx)
            rec["wall"] = time.perf_counter() - t0
            rec["end"] = time.time()
            rec["summary"] = w.summarize(state, outputs)
            rec["problems"] = _mismatch(rec["summary"], expected)
            if traced:
                rec["counts"] = w.counts(state, outputs)
                rec["task_wall_s"], rec["spilled_mb"] = _task_wall(
                    outputs["datasets"] + ctx.datasets, exclude)
        except Exception:  # a failed pass is counted, and the run goes on
            traceback.print_exc(file=sys.stderr)
            rec.setdefault("wall", time.perf_counter() - t0)
            rec["problems"] = ["pass raised"]
        ctx.clear_passes()
        for p in rec["problems"]:
            print(f"perfbench: {w.name} pass {len(passes)}: {p}", file=sys.stderr)
        spent += rec["wall"]
        passes.append(rec)
        print(f"perfbench: {w.name}: pass {len(passes) - 1} {rec['wall']:.2f} s, checked after "
              f"{time.perf_counter() - t0:.2f} s", file=sys.stderr, flush=True)
    return passes


def docs_per_s(w, passes: list[dict]) -> float:
    ok = [p["wall"] for p in passes if not p["problems"]]
    return w.n_docs / statistics.median(ok) if ok else 0.0


def expected_outputs(w, inputs: dict, seed: int, cpus: int) -> dict:
    """Pinned outputs for the pinned seed, else the reference path's."""
    from perfbench.workloads import load_pins

    pinned = load_pins().get(w.name, {}).get(str(seed))
    return pinned if pinned is not None else w.reference(inputs, processes=cpus)


def run_untraced(w, inputs: dict, seconds: float, work: str, cpus: int, expected: dict) -> dict:
    from perfbench.host import RssSampler

    ctx = Ctx(work, cpus)
    setups = []
    for i in range(SETUPS):
        t0 = time.perf_counter()
        session = RaySession(work, cpus)
        try:
            state = w.stage(inputs, ctx)
        except BaseException:
            session.stop()
            raise
        setups.append(time.perf_counter() - t0)
        if i < SETUPS - 1:
            session.stop()
        print(f"perfbench: {w.name}: set-up {i} {setups[-1]:.2f} s, done after "
              f"{time.perf_counter() - t0:.2f} s", file=sys.stderr, flush=True)
    try:
        with RssSampler() as rss:
            passes = timed_passes(w, state, ctx, expected, seconds)
    finally:
        session.stop()
    return {"passes": passes, "metrics": {
        "docs_per_s": (docs_per_s(w, passes), "docs/s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (rss.peak_mb, "MB"),
    }}


def run_traced(w, inputs: dict, seconds: float, work: str, cpus: int, expected: dict,
               burn_s: float, eff_cores: float) -> dict:
    from perfbench import trace

    ctx = Ctx(work, cpus)
    session = RaySession(work, cpus)
    try:
        state = w.stage(inputs, ctx)
        untraced = timed_passes(w, state, ctx, expected, seconds)
    finally:
        session.stop()

    trace_dir = os.path.join(work, "spans")
    os.makedirs(trace_dir)
    restore = trace.install_driver(ctx.tracer, ctx.datasets)
    try:
        session = RaySession(work, cpus, trace_dir=trace_dir)
        try:
            state = w.stage(inputs, ctx)
            traced = timed_passes(w, state, ctx, expected, seconds, traced=True)
        finally:
            session.stop()
    finally:
        restore()
        os.environ.pop(trace.TRACE_DIR_ENV, None)
    spans = ctx.tracer.spans + trace.read_spans(trace_dir)
    metrics = layer_metrics(w, traced, spans, cpus, docs_per_s(w, untraced),
                            docs_per_s(w, traced), burn_s, eff_cores)
    return {"passes": untraced + traced, "metrics": metrics}


# per-layer metric → unit
LAYER_UNITS = {
    "host.burn_s": "s", "host.effective_cores": "count",
    "trace.untraced_docs_per_s": "docs/s", "trace.traced_docs_per_s": "docs/s",
    "trace.overhead_frac": "fraction", "pass.traced_wall_s": "s",
    "assemble.self_s": "s", "chunking.self_s": "s", "chunking.chunks_per_doc": "count",
    "extract.self_s": "s", "extract.attempts_per_chunk": "count",
    "extract.forced_success_frac": "fraction",
    "canonicalize.self_s": "s", "canonicalize.similar_s": "s", "canonicalize.entities_in": "count",
    "model.rows_self_s": "s", "model.rows_out": "count",
    "kg.self_s": "s", "kg.kernel_docs_per_core_s": "docs/s", "kg.overhead_ratio": "fraction",
    "kg.tasks": "count",
    "io.sink_s": "s", "io.input_passes": "count", "io.bytes_written": "B",
    "io.files_written": "count",
    "crossdoc.merge_s": "s", "crossdoc.mentions_in": "count", "crossdoc.entities_out": "count",
    "crossdoc.block_rows_max_over_mean": "ratio",
    "dedup.lsh_s": "s", "dedup.candidate_pairs": "count", "dedup.verify_s": "s",
    "dedup.verify_precision": "fraction", "graph_cc.keep_s": "s",
    "ray.task_busy_frac": "fraction", "ray.spilled_mb": "MB",
}


def _pass_layers(w, p: dict, spans: list[dict], cpus: int) -> dict:
    """Per-layer metrics of one traced pass (self times are core-seconds
    summed over the processes that ran the layer)."""
    from perfbench.trace import in_window, rollup

    roll = rollup(in_window(spans, p["start"], p["end"]))

    def g(name: str, key: str = "total_s") -> float:
        return roll.get(name, {}).get(key, 0.0)

    c, s = p["counts"], p["summary"]
    chunks = c.get("chunks", 0)
    kernel_s = g("pipelines.kg") + g("stages.assemble")
    cands = s.get("candidates", 0)
    return {
        "pass.traced_wall_s": p["wall"],
        "assemble.self_s": g("stages.assemble", "self_s"),
        "chunking.self_s": g("stages.chunking", "self_s"),
        "chunking.chunks_per_doc": chunks / w.n_docs,
        "extract.self_s": g("stages.extract", "self_s"),
        "extract.attempts_per_chunk": c["attempts"] / chunks if chunks else 0.0,
        "extract.forced_success_frac": c["forced"] / chunks if chunks else 0.0,
        "canonicalize.self_s": g("stages.canonicalize", "self_s"),
        "canonicalize.similar_s": g("stages.canonicalize.similar"),
        "canonicalize.entities_in": g("stages.canonicalize.similar", "entities"),
        "model.rows_self_s": g("model.rows", "self_s"),
        "model.rows_out": g("model.rows", "rows"),
        "kg.self_s": g("pipelines.kg", "self_s"),
        "kg.kernel_docs_per_core_s": g("pipelines.kg", "docs") / kernel_s if kernel_s else 0.0,
        "kg.tasks": g("pipelines.kg", "calls"),
        "io.sink_s": g("sources.io.run_resumable"),
        "io.input_passes": g("sources.io.input_pass", "calls"),
        "io.bytes_written": c.get("bytes_written", 0),
        "io.files_written": c.get("files_written", 0),
        "crossdoc.merge_s": g("pipelines.crossdoc.incremental_global_entities"),
        "crossdoc.mentions_in": c.get("mentions_in", 0),
        "crossdoc.entities_out": c.get("entities_out", 0),
        "crossdoc.block_rows_max_over_mean": c.get("block_rows_max_over_mean", 0.0),
        "dedup.lsh_s": g("ops.dedup.minhash_lsh_candidates"),
        "dedup.candidate_pairs": cands,
        "dedup.verify_s": g("ops.dedup.ngram_jaccard_verify"),
        "dedup.verify_precision": s.get("verified", 0) / cands if cands else 0.0,
        "graph_cc.keep_s": g("ops.graph_cc.dedup_keep_list"),
        "ray.task_busy_frac": p["task_wall_s"] / (p["wall"] * cpus),
        "ray.spilled_mb": p["spilled_mb"],
    }


def layer_metrics(w, traced: list[dict], spans: list[dict], cpus: int, untraced_dps: float,
                  traced_dps: float, burn_s: float, eff_cores: float) -> dict:
    """Per-layer metrics averaged over the traced passes that passed."""
    per = [_pass_layers(w, p, spans, cpus) for p in traced if not p["problems"]]
    values = {k: statistics.fmean(d[k] for d in per) for k in (per[0] if per else {})}
    rate = values.get("kg.kernel_docs_per_core_s", 0.0)
    values.update({
        "host.burn_s": burn_s,
        "host.effective_cores": eff_cores,
        "trace.untraced_docs_per_s": untraced_dps,
        "trace.traced_docs_per_s": traced_dps,
        "trace.overhead_frac": (untraced_dps - traced_dps) / untraced_dps if untraced_dps else 0.0,
        "kg.overhead_ratio": untraced_dps / (rate * eff_cores) if rate and eff_cores else 0.0,
    })
    return {k: (values.get(k, 0.0), unit) for k, unit in LAYER_UNITS.items()}


def run_workload(name: str, seed: int, seconds: float, traced: bool, work: str) -> dict:
    from perfbench import host
    from perfbench.workloads import WORKLOADS

    w = WORKLOADS[name]
    cpus = len(os.sched_getaffinity(0))
    t0 = time.perf_counter()
    burn_s, eff_cores = host.effective_cores(cpus)
    t1 = time.perf_counter()
    inputs = w.make_inputs(seed, cpus)
    expected = expected_outputs(w, inputs, seed, cpus)
    print(f"perfbench: {name}: probe {t1 - t0:.1f} s, inputs and expected outputs "
          f"{time.perf_counter() - t1:.1f} s", file=sys.stderr, flush=True)
    if traced:
        res = run_traced(w, inputs, seconds, work, cpus, expected, burn_s, eff_cores)
    else:
        res = run_untraced(w, inputs, seconds, work, cpus, expected)
    passes = res["passes"]
    res["attempted"] = len(passes)
    res["failed"] = sum(1 for p in passes if p["problems"])
    res["metrics"]["failed_frac"] = (res["failed"] / res["attempted"], "fraction")
    res["stamp"] = {"host.burn_s": burn_s, "host.effective_cores": eff_cores, "cpus": cpus}
    return res


def _line(name: str, res: dict) -> str:
    parts = [f"{k}={v:.6g} {u}" for k, (v, u) in res["metrics"].items()]
    parts.append(f"({res['failed']}/{res['attempted']} passes failed)")
    parts += [f"{k}={v:.4g}" for k, v in res["stamp"].items()]
    return f"perfbench {name}: " + "  ".join(parts)


def main(argv=None) -> int:
    if ROOT not in sys.path:
        sys.path.insert(0, ROOT)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: the seed pinned in pins.json)")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        import ontocast_ray  # noqa: F401
    except ImportError as exc:
        print(f"perfbench: cannot import the engine from {ROOT}: {exc}", file=sys.stderr)
        return 2

    from perfbench import host
    from perfbench.workloads import DEFAULT_SEED, WORKLOADS

    seed = DEFAULT_SEED if args.seed is None else args.seed
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        parser.error(f"unknown workload {unknown[0]!r}; choose from {', '.join(WORKLOADS)} or all")
    work_root = os.path.join(ROOT, ".perfbench_work")
    work = os.path.join(work_root, f"run-{os.getpid()}")
    results = {}
    try:
        for name in names:
            os.makedirs(work)
            try:
                results[name] = run_workload(name, seed, args.seconds, bool(args.trace), work)
            finally:
                shutil.rmtree(work, ignore_errors=True)
            print(_line(name, results[name]), flush=True)
    finally:
        host.stop_resource_tracker()
        shutil.rmtree(os.path.join(work_root, "ray"), ignore_errors=True)

    def key(name: str, metric: str) -> str:
        return metric if len(names) == 1 else f"{name}.{metric}"

    # a one-workload record carries failed_frac as its failed / attempted
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": failed,
        "metrics": {key(n, m): {"value": v, "unit": u}
                    for n, r in results.items() for m, (v, u) in r["metrics"].items()
                    if len(names) > 1 or m != "failed_frac"},
    }), flush=True)
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
