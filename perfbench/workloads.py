"""The two workloads. Each makes its inputs from the seed, stages them in a
Ray session (the warm-up is part of staging), runs one timed pass through
the engine's public entry points, and summarizes and checks the outputs of
a pass outside the timed region."""

from __future__ import annotations

import glob
import json
import os
import random

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from perfbench import checks

DEFAULT_SEED = 1
BLOCK_ROWS = 64  # staged block size = the KG stage's default batch size
# Chunk bounds of every KG run (``build_kg_pipeline`` keyword arguments), the
# ones ``bench.py`` and ``__ray_entry__.py`` pass: a doc is split only above
# max_chunk_size, so the ~580-char crawl docs stay one chunk.
CHUNKING = {"min_chunk_size": 200, "max_chunk_size": 2000}
PINS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "pins.json")


def load_pins() -> dict:
    with open(PINS_PATH) as fh:
        return json.load(fh)


def _staged(table: pa.Table, rows: int = BLOCK_ROWS):
    """An in-object-store dataset of ``rows``-row blocks."""
    import ray.data

    return ray.data.from_arrow(
        [table.slice(i, rows) for i in range(0, len(table), rows)]
    ).materialize()


def _warm_kg(cpus: int) -> None:
    """Warm-up: one batch of short docs per core through the KG stage
    starts every worker and builds its processor."""
    import ontocast_ray.pipelines.kg as kg
    from ontocast_ray.corpus import generate_corpus

    docs = _staged(generate_corpus(n_docs=BLOCK_ROWS * cpus, seed=0, target_doc_chars=400))
    kg.build_kg_pipeline(docs, **CHUNKING).materialize()


def _collect(ds) -> list[pa.Table]:
    import ray

    return [b for b in ray.get(ds.to_arrow_refs()) if len(b)]


class CrawlUpdate:
    """The daily-crawl job: day-2 docs through ``run_resumable`` into a
    fresh directory, then ``incremental_global_entities`` against the day-1
    entity table, written as parquet."""

    name = "crawl_update"
    n_docs, doc_chars, n_shards, n_parts = 1024, 400, 4, 8

    def make_inputs(self, seed: int, processes: int) -> dict:
        """Day-1 and day-2 docs, and the triples of both by the direct
        reference path (one pool): day 1's make the day-1 entity table
        (yesterday's output), day 2's are the reference for unpinned seeds."""
        from ontocast_ray.corpus import generate_corpus

        day1 = generate_corpus(n_docs=self.n_docs, seed=2 * seed, head_entity_fraction=0.3,
                               target_doc_chars=self.doc_chars)
        day2 = generate_corpus(n_docs=self.n_docs, seed=2 * seed + 1, head_entity_fraction=0.3,
                               target_doc_chars=self.doc_chars)
        ids = pa.array([f"day2-{d}" for d in day2["doc_id"].to_pylist()], type=pa.string())
        day2 = day2.set_column(0, "doc_id", ids)
        day1_triples, day2_triples = checks.reference_triples([day1, day2], processes, CHUNKING)
        table = checks.reference_entities(day1_triples, []).drop_columns(["status"])
        return {"day1_triples": day1_triples, "day1_table": table, "day2": day2,
                "day2_triples": day2_triples}

    def stage(self, inputs: dict, ctx) -> dict:
        _warm_kg(ctx.cpus)
        table = inputs["day1_table"]
        return {"old": _staged(table, rows=1024), "day2": _staged(inputs["day2"]),
                "old_mentions": pc.sum(table["n_mentions"]).as_py()}

    def run_pass(self, state: dict, ctx) -> dict:
        import ray.data

        from ontocast_ray.pipelines.crossdoc import incremental_global_entities
        from ontocast_ray.pipelines.kg import run_resumable

        out = ctx.fresh_dir(self.name)
        triples_dir, entities_dir = os.path.join(out, "triples"), os.path.join(out, "entities")
        with ctx.tracer.span("sources.io.run_resumable"):
            run_resumable(state["day2"], triples_dir, n_shards=self.n_shards, **CHUNKING)
        with ctx.tracer.span("pipelines.crossdoc.incremental_global_entities"):
            new_triples = ray.data.read_parquet(_parquet_files(triples_dir))
            updated = incremental_global_entities(
                state["old"], new_triples, n_parts=self.n_parts).materialize()
            updated.write_parquet(entities_dir)
        return {"dir": out, "updated": updated, "datasets": [updated]}

    def summarize(self, state: dict, outputs: dict) -> dict:
        out = outputs["dir"]
        triples = [pq.read_table(f) for f in _parquet_files(os.path.join(out, "triples"))]
        entities = [checks.with_label_chars(pq.read_table(f))
                    for f in _parquet_files(os.path.join(out, "entities"))]
        n, d = checks.digest(triples, checks.TRIPLE_COLUMNS)
        ne, de = checks.digest(entities, checks.ENTITY_COLUMNS)
        return {"triples": n, "digest": d, "entities": ne, "entity_digest": de}

    def counts(self, state: dict, outputs: dict) -> dict:
        out = outputs["dir"]
        files = [f for f in glob.glob(os.path.join(out, "**"), recursive=True) if os.path.isfile(f)]
        triples = [pq.read_table(f) for f in _parquet_files(os.path.join(out, "triples"))]
        entities = pa.concat_tables(
            [pq.read_table(f) for f in _parquet_files(os.path.join(out, "entities"))])
        blocks = [m.num_rows or 0 for b in outputs["updated"].iter_internal_ref_bundles()
                  for m in b.metadata]
        counts = checks.status_counts(triples)
        counts.update(
            files_written=len(files),
            bytes_written=sum(os.path.getsize(f) for f in files),
            entities_out=len(entities),
            mentions_in=pc.sum(entities["n_mentions"]).as_py() - state["old_mentions"],
            block_rows_max_over_mean=max(blocks) / (sum(blocks) / len(blocks)) if blocks else 0.0,
        )
        return counts

    def reference(self, inputs: dict, processes: int) -> dict:
        new = inputs["day2_triples"]
        n, d = checks.digest(new, checks.TRIPLE_COLUMNS)
        ents = checks.reference_entities(inputs["day1_triples"], new)
        ne, de = checks.digest([checks.with_label_chars(ents)], checks.ENTITY_COLUMNS)
        return {"triples": n, "digest": d, "entities": ne, "entity_digest": de}


def _parquet_files(root: str) -> list[str]:
    return sorted(glob.glob(os.path.join(root, "**", "*.parquet"), recursive=True))


class NeardupCuration:
    """``minhash_lsh_candidates`` → ``ngram_jaccard_verify`` →
    ``dedup_keep_list`` over flat docs with seeded near-copies; no KG
    kernel runs."""

    name = "neardup_curation"
    n_docs, doc_chars, dup_frac, threshold, shingle_k = 1000, 400, 0.15, 0.8, 3

    def make_inputs(self, seed: int, processes: int) -> dict:
        """Generated doc texts; a ``dup_frac`` share are copies of an earlier
        doc with one or two words replaced (the injected pairs)."""
        from ontocast_ray.corpus import generate_corpus

        rng = random.Random(seed)
        base = generate_corpus(n_docs=self.n_docs, seed=seed, target_doc_chars=self.doc_chars)
        texts, injected = [], []
        for i, spans in enumerate(base["spans"].to_pylist()):
            if i and rng.random() < self.dup_frac:
                src = rng.randrange(i)
                words = texts[src].split()
                for _ in range(rng.randint(1, 2)):
                    words[rng.randrange(len(words))] = f"w{rng.randrange(10**6)}"
                texts.append(" ".join(words))
                injected.append((src, i))
            else:
                texts.append("".join(s["text"] for s in spans if s["kind"] == "text").strip())
        docs = pa.table({"doc_id": pa.array(range(len(texts)), type=pa.int64()),
                         "text": pa.array(texts, type=pa.string())})
        return {"docs": docs, "injected": injected}

    def stage(self, inputs: dict, ctx) -> dict:
        from ontocast_ray.ops.dedup import MinHasher

        docs = _staged(inputs["docs"])
        # warm-up: the MinHash kernel as plain tasks, one block per core,
        # loads the dedup code in the task workers (each pass starts its own
        # MinHasher actors)
        docs.limit(BLOCK_ROWS * ctx.cpus).map_batches(
            MinHasher(shingle_k=self.shingle_k), batch_format="pyarrow").materialize()
        return {"docs": docs, "texts": dict(zip(inputs["docs"]["doc_id"].to_pylist(),
                                                        inputs["docs"]["text"].to_pylist())),
                "injected": inputs["injected"]}

    def run_pass(self, state: dict, ctx) -> dict:
        from ontocast_ray.ops.dedup import minhash_lsh_candidates, ngram_jaccard_verify
        from ontocast_ray.ops.graph_cc import dedup_keep_list

        docs = state["docs"]
        with ctx.tracer.span("ops.dedup.minhash_lsh_candidates"):
            cands = minhash_lsh_candidates(docs, num_perm=64, bands=16,
                                           shingle_k=self.shingle_k).materialize()
        with ctx.tracer.span("ops.dedup.ngram_jaccard_verify"):
            verified = ngram_jaccard_verify(docs, cands, threshold=self.threshold,
                                            shingle_k=self.shingle_k).materialize()
        with ctx.tracer.span("ops.graph_cc.dedup_keep_list"):
            keep = dedup_keep_list(verified).materialize()
        return {"candidates": cands, "verified": verified, "keep": keep,
                "datasets": [cands, verified, keep]}

    @staticmethod
    def _tables(outputs: dict) -> dict:
        from perfbench.checks import KEEP_COLUMNS

        empty = {"candidates": ["doc_id_a", "doc_id_b"], "verified": ["doc_id_a", "doc_id_b", "jaccard"],
                 "keep": KEEP_COLUMNS}
        out = {}
        for key, cols in empty.items():
            parts = _collect(outputs[key])
            out[key] = (pa.concat_tables(parts).select(cols) if parts
                        else pa.table({c: pa.array([], type=pa.int64()) for c in cols}))
        return out

    def summarize(self, state: dict, outputs: dict) -> dict:
        t = self._tables(outputs)
        problems = checks.check_neardup(state["texts"], state["injected"], t["candidates"],
                                        t["verified"], t["keep"], self.threshold, self.shingle_k)
        n_keep, d_keep = checks.digest([t["keep"]], checks.KEEP_COLUMNS)
        return {"candidates": len(t["candidates"]), "verified": len(t["verified"]),
                "keep_rows": n_keep, "keep_digest": d_keep, "problems": problems}

    def counts(self, state: dict, outputs: dict) -> dict:
        return {}

    def reference(self, inputs: dict, processes: int) -> dict:
        return {"problems": []}  # for an unpinned seed only the consistency checks apply


WORKLOADS = {
    w.name: w
    for w in [
        CrawlUpdate(),
        NeardupCuration(),
    ]
}
