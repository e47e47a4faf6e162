"""End-to-end pipeline tests: corpus → chunks → triples → canonicalized graph.

Checks the north-rule per-row invariant (span-sequence equality) and the
structural properties of the flagship pipeline output.
"""

import pyarrow as pa
import pytest

from ontocast_ray.corpus import generate_corpus
from ontocast_ray.model import DOCS_SCHEMA
from ontocast_ray.pipelines.kg import build_kg_pipeline, run_resumable
from ontocast_ray.stages.assemble import assemble_spans
from ontocast_ray.stages.chunking import ChunkDocuments


@pytest.fixture(scope="module")
def corpus() -> pa.Table:
    return generate_corpus(n_docs=30, seed=42)


def test_corpus_schema(corpus):
    assert corpus.schema.equals(DOCS_SCHEMA)
    assert corpus.num_rows == 30
    # determinism
    again = generate_corpus(n_docs=30, seed=42)
    assert corpus.equals(again)


def test_span_sequence_invariant(corpus):
    """Concatenating chunk rows' span lists reproduces each doc's span sequence
    exactly (kind, text, media_ref, order) — the north-rule invariant."""
    with_text = assemble_spans(corpus)
    chunker = ChunkDocuments(min_chunk_size=200, max_chunk_size=2000)
    chunks = chunker(with_text)

    originals = {
        d: s for d, s in zip(corpus["doc_id"].to_pylist(), corpus["spans"].to_pylist())
    }
    rebuilt: dict[str, list] = {}
    order_ok = True
    last_idx: dict[str, int] = {}
    for doc_id, cidx, spans in zip(
        chunks["doc_id"].to_pylist(),
        chunks["chunk_idx"].to_pylist(),
        chunks["spans"].to_pylist(),
    ):
        if doc_id in last_idx and cidx != last_idx[doc_id] + 1:
            order_ok = False
        last_idx[doc_id] = cidx
        rebuilt.setdefault(doc_id, []).extend(spans)
    assert order_ok
    for doc_id, spans in originals.items():
        got = rebuilt.get(doc_id, [])
        assert [(s["kind"], s["text"], s["media_ref"]) for s in got] == [
            (s["kind"], s["text"], s["media_ref"]) for s in spans
        ], f"span sequence broken for {doc_id}"


def test_assemble_text_is_text_span_concat(corpus):
    with_text = assemble_spans(corpus)
    for text, spans in zip(
        with_text["text"].to_pylist(), with_text["spans"].to_pylist()
    ):
        assert text == "".join(s["text"] for s in spans if s["kind"] == "text")


def test_kg_pipeline_end_to_end(ray_session, corpus, tmp_path):
    import ray.data

    docs = ray.data.from_arrow(corpus)
    triples = build_kg_pipeline(
        docs,
        min_chunk_size=200,
        max_chunk_size=2000,
    )
    table = triples.take_all()
    assert len(table) > 0
    scopes = {r["graph_scope"] for r in table}
    assert "facts" in scopes and "status" in scopes
    facts = [r for r in table if r["graph_scope"] == "facts"]
    # aggregated rows are doc-level (chunk_hid cleared)
    assert all(r["chunk_hid"] == "" for r in facts)
    # canonical entities live in doc namespaces
    assert any("/doc/" in r["subject"] for r in facts)
    # provenance triples present
    assert any(r["predicate"].endswith("wasGeneratedBy") for r in facts)
    assert any(r["predicate"].endswith("wasPartOf") for r in facts)
    # every doc produced a connected aggregated graph
    from collections import defaultdict

    from ontocast_ray.model import rows_to_graph
    from ontocast_ray.stages.validate import connectivity_report

    by_doc = defaultdict(list)
    for r in facts:
        by_doc[r["doc_id"]].append(r)
    assert len(by_doc) == corpus.num_rows
    some = list(by_doc.values())[0]
    g = rows_to_graph(
        [r["subject"] for r in some],
        [r["predicate"] for r in some],
        [r["object"] for r in some],
        [r["object_is_literal"] for r in some],
        [r["object_datatype"] for r in some],
        [r["object_lang"] for r in some],
    )
    assert connectivity_report(g)["num_components"] == 1


def test_resumable_writes(ray_session, corpus, tmp_path):
    import ray.data

    out = str(tmp_path / "triples")
    docs = ray.data.from_arrow(corpus)
    stats1 = run_resumable(
        docs, out, n_shards=4, min_chunk_size=200, max_chunk_size=2000,
    )
    assert stats1["shards_run"] == 4 and stats1["shards_skipped"] == 0
    # second run: everything skipped (idempotent resume)
    stats2 = run_resumable(
        docs, out, n_shards=4, min_chunk_size=200, max_chunk_size=2000,
    )
    assert stats2["shards_run"] == 0 and stats2["shards_skipped"] == 4

    # the written store round-trips: schema intact, rows readable
    import glob

    import pyarrow.parquet as pq

    from ontocast_ray.model import TRIPLES_SCHEMA

    files = glob.glob(out + "/part=*/*.parquet")
    assert files
    table = pq.read_table(files[0])
    for name in TRIPLES_SCHEMA.names:
        assert table.schema.field(name).type == TRIPLES_SCHEMA.field(name).type, name
    # readable back as a Dataset keyed by the same doc_id partitioning
    ds = ray.data.read_parquet(out + "/part=0")
    assert ds.count() >= 0
    # the sink counters: every row written is read back; a skipped run writes none
    assert stats1["rows_written"] == sum(pq.read_metadata(f).num_rows for f in files) > 0
    assert stats1["blocks"] >= 1
    assert stats2["rows_written"] == 0 and stats2["blocks"] == 0


RESUME_KW = dict(n_shards=4, min_chunk_size=200, max_chunk_size=2000)


def _triple_multiset(out_dir):
    """(shard dir, *triple columns) → count, over every committed-layout file."""
    import glob
    import os
    from collections import Counter

    import pyarrow.parquet as pq

    from ontocast_ray.model import TRIPLES_SCHEMA

    rows = Counter()
    for f in glob.glob(os.path.join(out_dir, "part=*", "*.parquet")):
        part = os.path.basename(os.path.dirname(f))
        t = pq.read_table(f, columns=TRIPLES_SCHEMA.names)
        rows.update((part, *r) for r in zip(*(t[c].to_pylist() for c in TRIPLES_SCHEMA.names)))
    return rows


def _staged(corpus, rows=8):
    """The corpus as an in-object-store dataset of ``rows``-row blocks."""
    import ray.data

    return ray.data.from_arrow(
        [corpus.slice(i, rows) for i in range(0, corpus.num_rows, rows)]
    ).materialize()


def _tasks_of(stats: str, kernel: str) -> int:
    """Tasks executed by the operator of ``ds.stats()`` that runs ``kernel``."""
    import re

    m = re.search(rf"^Operator \d+ .*MapBatches\({kernel}\).*: (\d+) tasks executed",
                  stats, re.M)
    assert m, stats
    return int(m.group(1))


@pytest.fixture(scope="module")
def clean_triples(ray_session, corpus, tmp_path_factory):
    import ray.data

    out = str(tmp_path_factory.mktemp("clean") / "triples")
    run_resumable(ray.data.from_arrow(corpus), out, **RESUME_KW)
    rows = _triple_multiset(out)
    assert rows
    return rows


def test_resume_after_crash_before_commit(ray_session, corpus, tmp_path, clean_triples):
    """A crash after a shard's data was written but before its commit
    marker: the re-run must replace that shard's files, not append to them."""
    import os

    import ray.data

    out = str(tmp_path / "triples")
    docs = ray.data.from_arrow(corpus)
    run_resumable(docs, out, **RESUME_KW)
    assert _triple_multiset(out) == clean_triples
    os.remove(os.path.join(out, "_manifest", "1.json"))
    assert os.listdir(os.path.join(out, "part=1"))
    stats = run_resumable(docs, out, **RESUME_KW)
    assert stats["shards_run"] == 1 and stats["shards_skipped"] == 3
    assert _triple_multiset(out) == clean_triples


def test_kg_job_sigkill_resume(ray_session, corpus, tmp_path, clean_triples):
    """SIGKILL the KG job (driver and its Ray processes) as soon as its first
    parquet file appears; re-running the job must give the clean triples."""
    import glob
    import importlib.util
    import os
    import signal
    import subprocess
    import sys
    import time

    import pyarrow.parquet as pq

    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    job = os.path.join(repo, "jobs", "kg_job.py")
    docs_path = str(tmp_path / "docs.parquet")
    pq.write_table(corpus, docs_path)
    out = str(tmp_path / "kg_out")
    argv = ["--docs", docs_path, "--out", out, "--shards", str(RESUME_KW["n_shards"]),
            "--min-chunk-size", "200", "--max-chunk-size", "2000"]

    # the job owns its own Ray session, in its own process group, so one
    # killpg takes down the driver and every Ray process it started
    env = {k: v for k, v in os.environ.items() if k != "RAY_ADDRESS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [repo, env.get("PYTHONPATH")]))
    with open(tmp_path / "job.log", "w") as log:
        proc = subprocess.Popen([sys.executable, job, *argv], cwd=repo, env=env,
                                stdout=log, stderr=subprocess.STDOUT, start_new_session=True)
    deadline = time.time() + 300
    while not glob.glob(os.path.join(out, "**", "*.parquet"), recursive=True):
        assert proc.poll() is None, (tmp_path / "job.log").read_text()[-3000:]
        assert time.time() < deadline, "job wrote no parquet file in 300 s"
        time.sleep(0.01)
    os.killpg(proc.pid, signal.SIGKILL)
    assert proc.wait(timeout=60) == -signal.SIGKILL
    while True:  # no writer of the killed run may outlive the kill
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            break
        assert time.time() < deadline, "killed job's processes did not exit"
        time.sleep(0.05)

    spec = importlib.util.spec_from_file_location("kg_job", job)
    kg_job = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(kg_job)
    assert kg_job.main(argv) == 0
    assert _triple_multiset(out) == clean_triples


# the vector-index builds end on a task map before a min_rows_per_file write
_INDEX_BUILDS = {
    "build_ivf_index": ("assign_cluster", {"n_clusters": 4}),
    "build_pq_index": ("pq_encode_batch", {"m": 4, "n_codes": 16}),
    "build_ivfpq_index": ("assign_encode", {"n_clusters": 4, "m": 4, "n_codes": 16}),
}


def _recording_task_ids(monkeypatch, module, factory_name: str, task_ids):
    """Wrap ``module.<factory_name>`` so each kernel it builds touches a
    file named after the id of every Ray task it runs in."""
    import ray

    factory = getattr(module, factory_name)

    def recording_factory(*args):
        kernel = factory(*args)

        def record_task(batch):
            (task_ids / ray.get_runtime_context().get_task_id()).touch()
            return kernel(batch)

        return record_task

    monkeypatch.setattr(module, factory_name, recording_factory)


@pytest.mark.parametrize("sink", ["run_resumable", "write_bucketed", *_INDEX_BUILDS])
def test_sink_keeps_producer_parallel(ray_session, corpus, tmp_path, clean_triples,
                                      monkeypatch, sink):
    """The sink's write must not collapse the stage that feeds it into one
    task. The index builds end in a coalescing Ray Data write
    (``min_rows_per_file``): fused, Ray bundles the producing stage's input
    blocks up to the row minimum, and the index-build kernel of a small run
    executes in ONE task; the dataset each writes is captured, and its
    ``stats()`` after the write must show the kernel in several tasks. The
    resumable sinks start no Ray Data write: ``run_resumable``'s KG stage
    runs as plain Ray tasks and ``write_bucketed``'s sort-and-write kernel
    runs per partition on ``shuffle_by``'s sort path, so each kernel
    records the id of every task it runs in, several must appear, and
    every part gets one file."""
    import glob
    import os

    import numpy as np
    import ray.data

    from ontocast_ray.pipelines import kg
    from ontocast_ray.sources import io

    written = []
    write_parquet = ray.data.Dataset.write_parquet

    def capture(ds, *args, **kwargs):
        written.append(ds)
        return write_parquet(ds, *args, **kwargs)

    monkeypatch.setattr(ray.data.Dataset, "write_parquet", capture)
    out = str(tmp_path / "out")
    task_ids = tmp_path / "tasks"
    task_ids.mkdir()
    if sink == "run_resumable":
        _recording_task_ids(monkeypatch, kg, "_kg_process_docs_task_factory", task_ids)
        stats = run_resumable(_staged(corpus), out, batch_size=8, **RESUME_KW)
        parts = [f"part={shard}" for shard in range(RESUME_KW["n_shards"])]
    elif sink in _INDEX_BUILDS:
        from ontocast_ray.ops import similarity

        kernel, kw = _INDEX_BUILDS[sink]
        vecs = np.random.RandomState(5).normal(size=(600, 16)).astype(np.float32)
        t = pa.table({"vec_id": pa.array(np.arange(600), type=pa.int64()),
                      "embedding": pa.array(list(vecs), type=pa.list_(pa.float32()))})
        getattr(similarity, sink)(ray.data.from_arrow(t).repartition(6), out,
                                  sample_size=200, **kw)
    else:
        # the write kernel runs per partition on shuffle_by's sort path
        # only; an input this small would take the one-task gather path
        from ontocast_ray.ops import shuffle

        monkeypatch.setattr(shuffle, "_GATHER_BYTES", 0)
        _recording_task_ids(monkeypatch, io, "_part_writer", task_ids)
        t = pa.table({"k": pa.array(np.arange(2000) % 97, type=pa.int64())})
        counts = io.write_bucketed(ray.data.from_arrow(t).repartition(6), out, "k", n_buckets=8)
        parts = [f"bucket={b}" for b in counts]
        assert sum(counts.values()) == 2000 and len(parts) > 1
    if sink in _INDEX_BUILDS:
        assert len(written) == 1
        assert _tasks_of(written[0].stats(), kernel) > 1
        return
    assert written == []
    assert len(list(task_ids.iterdir())) > 1
    for part in parts:
        assert len(glob.glob(os.path.join(out, part, "*.parquet"))) == 1
    if sink == "run_resumable":
        assert stats["blocks"] == 4
        assert _triple_multiset(out) == clean_triples


def test_run_resumable_takes_no_hub(ray_session, corpus, tmp_path):
    """The sink runs the KG stage as plain tasks, never the hub's actor
    pool: a ``hub_name`` raises TypeError before anything runs."""
    with pytest.raises(TypeError, match="hub_name"):
        run_resumable(_staged(corpus), str(tmp_path / "out"), hub_name="no_hub", **RESUME_KW)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("path", ["gather", "sort"])
def test_worker_crash_in_write_task_is_retried(ray_session, corpus, tmp_path, clean_triples,
                                              monkeypatch, path):
    """A write task whose worker dies after writing its files is retried,
    and the retry replaces those files: one file per shard and the clean
    run's multiset, on both exchange paths. The first write call kills its
    worker once per test, guarded by a marker file created with O_EXCL."""
    import glob
    import os

    from ontocast_ray.ops import shuffle
    from ontocast_ray.sources import io

    if path == "sort":
        monkeypatch.setattr(shuffle, "_GATHER_BYTES", 0)
    marker = str(tmp_path / "crashed")
    factory = io._part_writer

    def crashing_factory(*args):
        write = factory(*args)

        def crash_once(table):
            out = write(table)
            try:
                os.close(os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
            except FileExistsError:
                return out
            os._exit(1)

        return crash_once

    monkeypatch.setattr(io, "_part_writer", crashing_factory)
    out = str(tmp_path / "triples")
    run_resumable(_staged(corpus), out, batch_size=8, **RESUME_KW)
    assert os.path.exists(marker)
    for shard in range(RESUME_KW["n_shards"]):
        assert len(glob.glob(os.path.join(out, f"part={shard}", "*.parquet"))) == 1
    assert _triple_multiset(out) == clean_triples


def test_run_resumable_starts_no_execution(ray_session, corpus, tmp_path, clean_triples,
                                          executions):
    """Over staged docs the sink runs as plain Ray tasks: the KG stage
    (``map_blocks``) and the write (``shuffle_by``'s gather) start no Ray
    Data execution."""
    docs = _staged(corpus)
    executions.clear()
    out = str(tmp_path / "triples")
    run_resumable(docs, out, batch_size=8, **RESUME_KW)
    assert executions == []
    assert _triple_multiset(out) == clean_triples


def test_worker_crash_in_kg_task_is_retried(ray_session, corpus, tmp_path, clean_triples,
                                           monkeypatch):
    """A worker dying mid-batch (not an exception: Ray Data does not retry
    those) is retried by Ray, and the sink's output equals a clean run's.
    The first batch holding a seeded doc kills its worker once per test,
    guarded by a marker file created with O_EXCL."""
    import os
    import random

    from ontocast_ray.pipelines import kg

    marker = str(tmp_path / "crashed")
    victim = random.Random(7).choice(corpus["doc_id"].to_pylist())
    factory = kg._kg_process_docs_task_factory

    def crashing_factory(cfg):
        process = factory(cfg)

        def crash_once(batch):
            if victim in batch["doc_id"].to_pylist():
                try:
                    os.close(os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
                except FileExistsError:
                    pass
                else:
                    os._exit(1)
            return process(batch)

        return crash_once

    monkeypatch.setattr(kg, "_kg_process_docs_task_factory", crashing_factory)
    out = str(tmp_path / "triples")
    run_resumable(_staged(corpus), out, batch_size=8, **RESUME_KW)
    assert os.path.exists(marker)
    assert _triple_multiset(out) == clean_triples
