"""Span tracing for the benchmark's traced run.

A span is one call into a layer: ``name``, ``start``, ``end`` (``time.time``
seconds, comparable across the processes of one host), ``parent`` (the id of
the enclosing span in the same process, or None), ``id``, ``pid`` and ``n``
(counts recorded at the same boundary, e.g. rows out).

Spans are recorded from the benchmark's own files, never from the program:

- on the driver, the workload code opens ``Tracer.span`` blocks around the
  public calls it makes, and ``install_driver`` wraps the few module-level
  entry points the driver passes to Ray Data;
- in Ray workers, ``install_worker`` runs as the session's
  ``worker_process_setup_hook`` and wraps the kernel entry points of each
  layer (``WORKER_LAYERS``).

A tracer keeps its spans in memory. A worker's tracer appends them to
``<trace dir>/spans-<pid>.jsonl`` each time its outermost span closes (one
write per Ray task); the driver reads every file when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import glob
import importlib
import itertools
import json
import os
import time
from collections import defaultdict

TRACE_DIR_ENV = "PERFBENCH_TRACE_DIR"


class Tracer:
    """In-memory span recorder for one process (callers are single-threaded:
    a Ray worker runs one task at a time, the driver one pass at a time)."""

    def __init__(self, flush_dir: str | None = None):
        self.spans: list[dict] = []
        self.flush_dir = flush_dir
        self._stack: list[str] = []
        self._ids = itertools.count()

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span; the block may add counts to the yielded dict."""
        pid = os.getpid()
        rec = {
            "name": name,
            "id": f"{pid}:{next(self._ids)}",
            "parent": self._stack[-1] if self._stack else None,
            "pid": pid,
            "start": time.time(),
            "n": {},
        }
        self._stack.append(rec["id"])
        try:
            yield rec["n"]
        finally:
            self._stack.pop()
            rec["end"] = time.time()
            self.spans.append(rec)
            if not self._stack and self.flush_dir:
                self.flush()

    def wrap(self, name: str, fn, count=None):
        """``fn`` wrapped in a span; ``count(args, result)`` → dict of counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as n:
                out = fn(*args, **kwargs)
                if count is not None:
                    n.update(count(args, out))
                return out

        return traced

    def flush(self) -> None:
        """Append the buffered spans to this process's span file."""
        path = os.path.join(self.flush_dir, f"spans-{os.getpid()}.jsonl")
        with open(path, "a") as fh:
            fh.write("".join(json.dumps(s) + "\n" for s in self.spans))
        self.spans.clear()


def _rows_out(args, out) -> dict:
    return {"rows": len(out["subject"])}


def _docs_in(args, out) -> dict:
    return {"docs": len(set(args[1]["doc_id"].to_pylist()))}


def _entities_in(args, out) -> dict:
    return {"entities": len(args[1])}


# (module, class or None, attribute, span name, counter) — the kernel entry
# point of each layer that runs inside Ray workers.
WORKER_LAYERS = [
    ("ontocast_ray.pipelines.kg", "KGProcessDocs", "__call__", "pipelines.kg", _docs_in),
    ("ontocast_ray.stages.chunking", "ChunkDocuments", "__call__", "stages.chunking", None),
    ("ontocast_ray.stages.extract", "DeterministicExtractor", "process_chunk",
     "stages.extract", None),
    ("ontocast_ray.stages.canonicalize", "ChunkGraphAggregator", "aggregate_graphs",
     "stages.canonicalize", None),
    ("ontocast_ray.stages.canonicalize", "EntityDisambiguator", "find_similar_entities",
     "stages.canonicalize.similar", _entities_in),
    ("ontocast_ray.model", None, "graph_to_rows", "model.rows", _rows_out),
]


def _patch(tracer: Tracer, module: str, cls: str | None, attr: str, name: str, count) -> None:
    owner = importlib.import_module(module)
    if cls is not None:
        owner = getattr(owner, cls)
    setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), count))


def install_worker() -> None:
    """``worker_process_setup_hook``: wrap the worker-side layer entry points
    in spans flushed to the directory named by ``PERFBENCH_TRACE_DIR``."""
    tracer = _worker_tracer()
    if tracer is None:
        return
    for module, cls, attr, name, count in WORKER_LAYERS:
        _patch(tracer, module, cls, attr, name, count)


def install_driver(tracer: Tracer, datasets: list):
    """Wrap the entry points the driver hands to Ray Data:
    ``assemble_spans`` (pickled into the KG map stage, so its span is
    recorded by the worker that runs it), ``run_resumable``'s shard filter
    (one driver span per corpus re-read), and ``build_kg_pipeline`` (its
    datasets are appended to ``datasets`` for ``ds.stats()``).
    → a function that puts the originals back."""
    import ontocast_ray.pipelines.kg as kg

    names = ("assemble_spans", "_shard_filter_factory", "build_kg_pipeline")
    originals = {n: getattr(kg, n) for n in names}
    build = originals["build_kg_pipeline"]

    @functools.wraps(build)
    def build_kept(*args, **kwargs):
        ds = build(*args, **kwargs)
        datasets.append(ds)
        return ds

    kg.assemble_spans = _worker_span("stages.assemble", originals["assemble_spans"])
    kg._shard_filter_factory = tracer.wrap("sources.io.input_pass",
                                           originals["_shard_filter_factory"])
    kg.build_kg_pipeline = build_kept

    def restore() -> None:
        for n, fn in originals.items():
            setattr(kg, n, fn)

    return restore


# The worker process's tracer, keyed by trace dir: the setup hook takes no
# arguments, so the one per-process recorder lives here.
_WORKER_TRACERS: dict[str, Tracer] = {}


def _worker_tracer() -> Tracer | None:
    trace_dir = os.environ.get(TRACE_DIR_ENV)
    if not trace_dir:
        return None
    if trace_dir not in _WORKER_TRACERS:
        _WORKER_TRACERS[trace_dir] = Tracer(flush_dir=trace_dir)
    return _WORKER_TRACERS[trace_dir]


def _worker_span(name: str, fn):
    """A picklable wrapper that records ``name`` with the tracer of whichever
    worker process runs it."""
    return functools.partial(_run_in_worker_span, name, fn)


def _run_in_worker_span(name: str, fn, *args, **kwargs):
    tracer = _worker_tracer()
    if tracer is None:
        return fn(*args, **kwargs)
    with tracer.span(name):
        return fn(*args, **kwargs)


def read_spans(trace_dir: str) -> list[dict]:
    """Every span the workers flushed under ``trace_dir``."""
    spans = []
    for path in sorted(glob.glob(os.path.join(trace_dir, "spans-*.jsonl"))):
        with open(path) as fh:
            spans.extend(json.loads(line) for line in fh if line.strip())
    return spans


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[dict]) -> dict[str, float]:
    """span id → self time: its duration minus the part of its interval
    that its child spans cover."""
    children: dict[str, list] = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append((s["start"], s["end"]))
    return {
        s["id"]: (s["end"] - s["start"]) - _covered(children[s["id"]], s["start"], s["end"])
        for s in spans
    }


def rollup(spans: list[dict]) -> dict[str, dict]:
    """span name → {"calls", "total_s", "self_s", <summed counts>}."""
    selfs = self_times(spans)
    out: dict[str, dict] = defaultdict(lambda: defaultdict(float))
    for s in spans:
        r = out[s["name"]]
        r["calls"] += 1
        r["total_s"] += s["end"] - s["start"]
        r["self_s"] += selfs[s["id"]]
        for k, v in s["n"].items():
            r[k] += v
    return {k: dict(v) for k, v in out.items()}


def in_window(spans: list[dict], start: float, end: float) -> list[dict]:
    """Spans that started inside [start, end] (one timed pass)."""
    return [s for s in spans if start <= s["start"] <= end]
