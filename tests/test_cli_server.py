"""CLI batch mode + HTTP serve mode (reference entry-point parity)."""

import json
import threading
import urllib.request

import pytest


def test_server_process_roundtrip():
    from ontocast_ray.server import serve

    srv = serve(port=0)
    port = srv.server_address[1]
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    try:
        with urllib.request.urlopen(f"http://127.0.0.1:{port}/health") as r:
            assert json.loads(r.read())["status"] == "healthy"
        with urllib.request.urlopen(f"http://127.0.0.1:{port}/info") as r:
            info = json.loads(r.read())
            assert "/process" in info["endpoints"]

        body = json.dumps(
            {"text": "Alice Johnson is a person. Alice Johnson works at ACME Corporation. "
                     "ACME Corporation is a company. ACME Corporation employs 120 people."}
        ).encode()
        req = urllib.request.Request(
            f"http://127.0.0.1:{port}/process", data=body,
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(req) as r:
            resp = json.loads(r.read())
        # golden response shape (ref demo/ttl/response.json)
        assert resp["status"] == "success"
        assert set(resp["data"]) == {"facts", "ontology"}
        assert resp["metadata"]["chunks_processed"] >= 1
        assert resp["metadata"]["chunks_remaining"] == 0
        # the facts Turtle parses and contains the extracted entity
        from ontocast_ray.rdf import parse_turtle

        facts = parse_turtle(resp["data"]["facts"])
        assert len(facts) > 0
        labels = {str(o) for _, p, o in facts if str(p).endswith("label")}
        assert "ACME Corporation" in labels
    finally:
        srv.shutdown()


def test_cli_chunk_offline(ray_session, tmp_path):
    import glob

    from ontocast_ray.cli import main

    docs_dir = tmp_path / "docs"
    docs_dir.mkdir()
    # the reference's sentence splitter only breaks before a capitalized
    # word of 9+ chars (chunker.py:46-48) — give it some
    (docs_dir / "long.txt").write_text(
        " ".join(f"Discussion of {w} item {i} covers {w} matters."
                 for i, w in enumerate(["alpha", "bravo", "charlie"] * 40))
    )
    out_dir = tmp_path / "chunks"
    rc = main([
        "chunk", "--input-path", str(docs_dir),
        "--working-directory", str(out_dir),
        "--min-chunk-size", "100", "--max-chunk-size", "600",
    ])
    assert rc == 0
    files = glob.glob(str(out_dir / "*.chunks.json"))
    assert len(files) == 1
    data = json.load(open(files[0]))
    assert len(data["chunks"]) >= 2  # reference output shape {"chunks": [str,...]}
    assert all(isinstance(c, str) for c in data["chunks"])


def test_cli_run_end_to_end(ray_session, tmp_path):
    import glob
    import os

    from ontocast_ray.cli import main

    docs_dir = tmp_path / "docs"
    docs_dir.mkdir()
    (docs_dir / "a.txt").write_text(
        "Bob Wilson is a person. Bob Wilson works at Initech Labs. "
        "Initech Labs is a company. Initech Labs is located in Springfield."
    )
    (docs_dir / "b.json").write_text(json.dumps({
        "text": "Jane Smith is a person. Jane Smith knows Bob Wilson."
    }))
    out_dir = tmp_path / "out"
    rc = main([
        "run", "--input-path", str(docs_dir),
        "--working-directory", str(out_dir), "--ttl-export",
    ])
    assert rc == 0
    parquet = glob.glob(str(out_dir / "triples" / "*.parquet"))
    assert parquet
    import pyarrow.parquet as pq

    total = sum(pq.read_metadata(f).num_rows for f in parquet)
    assert total > 0
    # evolved ontology ttl written
    assert glob.glob(str(out_dir / "ontology_*.ttl"))
    # per-doc Turtle exports written and parseable
    ttl = glob.glob(str(out_dir / "facts_*.ttl"))
    assert ttl
    from ontocast_ray.rdf import parse_turtle

    assert len(parse_turtle(open(ttl[0]).read())) > 0


def test_cli_cmp_states(tmp_path, capsys):
    from ontocast_ray.cli import main

    ttl = "@prefix ex: <https://example.com/> .\nex:a ex:b ex:c .\nex:a ex:d ex:e .\n"
    for i in (2, 1):
        (tmp_path / f"agent_state.onto.update.{i}.json").write_text(json.dumps({
            "current_chunk": {"graph": ttl},
            "current_ontology": {"graph": ttl + "ex:x ex:y ex:z .\n"},
            "ontology_addendum": {"graph": ""},
            "success_score": 10 * i,
        }))
    rc = main(["cmp-states", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 0
    lines = [ln for ln in out.splitlines() if ln.strip()]
    assert lines[0].startswith("File")
    # sorted by trailing number: update.1 before update.2
    assert lines[1].startswith("agent_state.onto.update.1")
    assert "2" in lines[1] and "3" in lines[1] and "10" in lines[1]


def test_cli_pdfs_to_markdown_no_docling(ray_session, tmp_path, capsys):
    """Without docling the command fails per-file, reports, and exits 1."""
    from ontocast_ray.cli import main

    src = tmp_path / "src"
    out = tmp_path / "out"
    src.mkdir()
    (src / "x.pdf").write_bytes(b"%PDF-1.4 fake")
    rc = main(["pdfs-to-markdown", "--input-path", str(src), "--output-path", str(out)])
    assert rc == 1
    report = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert report["failed"] == 1 and report["files"] == 0


def test_cli_plot_graph(tmp_path):
    from ontocast_ray.cli import main

    out = tmp_path / "graph.mmd"
    md = tmp_path / "README.md"
    md.write_text("# Title\n\nIntro.\n")
    rc = main(["plot-graph", "--output", str(out), "--update-md", str(md)])
    assert rc == 0
    assert "flowchart TD" in out.read_text()
    content = md.read_text()
    assert "### Agent graph" in content and "```mermaid" in content
    # second run replaces, not duplicates
    main(["plot-graph", "--output", str(out), "--update-md", str(md)])
    assert md.read_text().count("### Agent graph") == 1


def test_curation_job_entry(ray_session, tmp_path, capsys):
    """jobs/curation_job.py main(): curate → bucketed sink with manifests,
    JSON summary on stdout; driver-owned ray session is reused (no init)."""
    import json
    import sys

    sys.path.insert(0, "/root/repo/jobs")
    import curation_job

    out = str(tmp_path / "curated")
    rc = curation_job.main(
        ["--docs", "/root/testdata/sf0.001/documents.parquet",
         "--out", out, "--buckets", "4"]
    )
    assert rc == 0
    stats = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert stats["docs_kept"] > 0 and stats["buckets"] <= 4
    from ontocast_ray.sources.io import committed_shards

    assert len(committed_shards(out)) == stats["buckets"]


def test_kg_job_entry(ray_session, tmp_path, capsys):
    """jobs/kg_job.py main(): spans parquet → resumable sharded KG run,
    JSON summary; reuses the caller-owned ray session."""
    import json
    import sys

    import pyarrow.parquet as pq

    from ontocast_ray.corpus import generate_corpus

    sys.path.insert(0, "/root/repo/jobs")
    import kg_job

    docs_path = str(tmp_path / "docs.parquet")
    pq.write_table(generate_corpus(n_docs=10, seed=3), docs_path)
    out = str(tmp_path / "kg_out")
    rc = kg_job.main(
        ["--docs", docs_path, "--out", out, "--shards", "2",
         "--min-chunk-size", "200", "--max-chunk-size", "2000"]
    )
    assert rc == 0
    stats = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert stats["shards_run"] == 2 and stats.get("triples", 1) >= 0
    import ray.data

    assert ray.data.read_parquet(out).count() > 0


def test_incremental_kg_job_entry(ray_session, tmp_path, capsys):
    """jobs/incremental_kg_job.py main(): day-1 table + day-2 docs →
    merged entity table with statuses, committed manifest, idempotent
    re-run (skips without recompute)."""
    import json
    import sys

    import pyarrow.parquet as pq

    import ray.data

    from ontocast_ray.corpus import generate_corpus
    from ontocast_ray.pipelines.crossdoc import global_entity_table
    from ontocast_ray.pipelines.kg import build_kg_pipeline

    sys.path.insert(0, "/root/repo/jobs")
    import incremental_kg_job

    # day-1 state: entity table of a 8-doc corpus
    day1 = generate_corpus(n_docs=8, seed=5)
    t1 = build_kg_pipeline(
        ray.data.from_arrow(day1), min_chunk_size=200, max_chunk_size=2000,
    )
    ent_dir = str(tmp_path / "entities_v1")
    global_entity_table(t1).write_parquet(ent_dir)

    # day-2 batch: 6 fresh docs (different seed → overlapping + new keys)
    day2 = generate_corpus(n_docs=6, seed=11)
    docs2 = str(tmp_path / "day2.parquet")
    pq.write_table(day2, docs2)

    out = str(tmp_path / "entities_v2")
    rc = incremental_kg_job.main(
        ["--new-docs", docs2, "--entities", ent_dir, "--out", out,
         "--min-chunk-size", "200", "--max-chunk-size", "2000"]
    )
    assert rc == 0
    stats = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert stats["entities"] > 0 and stats["new_docs"] == 6

    merged = ray.data.read_parquet(out).to_pandas()
    assert set(merged["status"]) <= {"new", "updated", "unchanged"}
    assert (merged["status"] == "new").any()
    assert (merged["status"] == "unchanged").any()

    # idempotent re-run: committed manifest short-circuits
    rc2 = incremental_kg_job.main(
        ["--new-docs", docs2, "--entities", ent_dir, "--out", out,
         "--min-chunk-size", "200", "--max-chunk-size", "2000"]
    )
    assert rc2 == 0
    stats2 = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert stats2.get("skipped") is True


def test_incremental_kg_job_reruns_on_overwritten_input(ray_session, tmp_path, capsys):
    """The idempotency digest covers input contents (size, mtime): after
    --new-docs is overwritten in place the job re-runs, and its output
    replaces the earlier table instead of adding to it."""
    import json
    import os
    import sys

    import pyarrow.parquet as pq

    import ray.data

    from ontocast_ray.corpus import generate_corpus
    from ontocast_ray.pipelines.crossdoc import global_entity_table
    from ontocast_ray.pipelines.kg import build_kg_pipeline

    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                    "jobs"))
    import incremental_kg_job

    t1 = build_kg_pipeline(ray.data.from_arrow(generate_corpus(n_docs=6, seed=5)),
                           min_chunk_size=200, max_chunk_size=2000)
    ent_dir = str(tmp_path / "entities_v1")
    global_entity_table(t1).write_parquet(ent_dir)
    docs2 = str(tmp_path / "day2.parquet")
    out = str(tmp_path / "entities_v2")
    argv = ["--new-docs", docs2, "--entities", ent_dir, "--out", out,
            "--min-chunk-size", "200", "--max-chunk-size", "2000"]

    runs = []
    for n_docs in (6, 3):  # the second write overwrites the same path
        pq.write_table(generate_corpus(n_docs=n_docs, seed=11), docs2)
        assert incremental_kg_job.main(argv) == 0
        runs.append(json.loads(capsys.readouterr().out.strip().splitlines()[-1]))
    assert not runs[1].get("skipped") and runs[1]["new_docs"] == 3
    assert runs[1]["manifest"] != runs[0]["manifest"]
    assert ray.data.read_parquet(out).count() == runs[1]["entities"]
    assert os.path.exists(runs[1]["manifest"]) and not os.path.exists(runs[0]["manifest"])
