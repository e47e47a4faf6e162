"""Command-line entry points — the reference's batch mode, Ray-Data-first.

Mirrors ``ontocast serve run --input-path ...`` (ref /root/reference/
ontocast/cli/serve.py:230-363): crawl a directory, convert each file to
text, run the KG pipeline, serialize facts + evolved ontologies. Differences
by design: files become a Dataset processed in parallel (the reference loops
files sequentially), facts land in partitioned Parquet with lineage
manifests (Turtle exports optional for parity), and the ontology store is
the OntologyHub actor snapshot.

Usage:
    python -m ontocast_ray.cli run --input-path DIR --working-directory OUT
        [--ontology-directory DIR] [--ttl-export] [--max-chunks N]
"""

from __future__ import annotations

import argparse
import json
import os
import sys


def _build_docs_dataset(input_path: str):
    """Files → DOCS_SCHEMA rows (one text span per doc; doc_id = file path)."""
    import pyarrow as pa

    from ontocast_ray.model import DOCS_SCHEMA
    from ontocast_ray.sources.documents import read_documents_from_files

    flat = read_documents_from_files(input_path)

    def to_spans(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_pylist()
        texts = batch["text"].to_pylist()
        statuses = batch["convert_status"].to_pylist()
        keep_ids, spans = [], []
        for i, t, s in zip(ids, texts, statuses):
            if s != "success":
                print(f"skip {i}: {s}", file=sys.stderr)  # ref serve.py:352-356
                continue
            keep_ids.append(i)
            spans.append([{"kind": "text", "text": t, "media_ref": "", "offset": 0}])
        return pa.table(
            {
                "doc_id": pa.array(keep_ids, type=pa.string()),
                "spans": pa.array(spans, type=DOCS_SCHEMA.field("spans").type),
            }
        )

    return flat.map_batches(to_spans, batch_format="pyarrow")


def cmd_run(args: argparse.Namespace) -> int:
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    from ontocast_ray.pipelines.kg import build_kg_pipeline
    from ontocast_ray.state.ontology_hub import get_or_create_hub

    docs = _build_docs_dataset(args.input_path)
    hub_name = "ontocast_cli_hub"
    triples = build_kg_pipeline(
        docs,
        ontology_dir=args.ontology_directory,
        hub_name=hub_name,
        max_chunks=args.max_chunks,
        max_visits=args.max_visits,
    )
    out_dir = args.working_directory
    os.makedirs(out_dir, exist_ok=True)
    triples.write_parquet(os.path.join(out_dir, "triples"), min_rows_per_file=200_000)

    # evolved ontologies from the hub snapshot (ref aggregate_facts.py:31)
    hub = get_or_create_hub(name=hub_name)
    snapshot = ray.get(hub.get_snapshot.remote())
    from ontocast_ray.model import rows_to_graph
    from ontocast_ray.sources.ontologies import OntologyRecord, serialize_ontology

    for oid, entry in snapshot["ontologies"].items():
        rows = entry["triples"]
        graph = rows_to_graph(
            [r[0] for r in rows], [r[1] for r in rows], [r[2] for r in rows],
            [r[3] for r in rows], [r[4] for r in rows], [r[5] for r in rows],
        )
        meta = entry["meta"]
        serialize_ontology(
            OntologyRecord(
                ontology_id=oid,
                title=meta.get("title", oid),
                description=meta.get("description", ""),
                version=meta.get("version", "1.0"),
                iri=meta.get("iri", ""),
                graph=graph,
            ),
            out_dir,
        )

    if args.ttl_export:
        _export_ttl(os.path.join(out_dir, "triples"), out_dir)

    # optional remote store push (S8/S9; selection policy ref toolbox.py:98)
    if getattr(args, "fuseki_uri", None) or getattr(args, "neo4j_uri", None):
        import functools

        import ray.data

        from ontocast_ray.sources.triple_store import write_facts_to_store

        factory = functools.partial(
            _store_factory, args.fuseki_uri, args.fuseki_auth,
            args.neo4j_uri, args.neo4j_auth,
        )
        receipts = write_facts_to_store(
            ray.data.read_parquet(os.path.join(out_dir, "triples")), factory
        ).take_all()
        n_fail = sum(1 for r in receipts if not r["ok"])
        print(json.dumps({"store_graphs": len(receipts), "store_failed": n_fail}))

    ray.kill(hub)
    ray.shutdown()
    print(json.dumps({"status": "success", "out": out_dir}))
    return 0


def _store_factory(fuseki_uri, fuseki_auth, neo4j_uri, neo4j_auth):
    from ontocast_ray.sources.triple_store import select_store_manager

    return select_store_manager(
        fuseki_uri=fuseki_uri, fuseki_auth=fuseki_auth,
        neo4j_uri=neo4j_uri, neo4j_auth=neo4j_auth,
    )


def _export_ttl(triples_dir: str, out_dir: str) -> None:
    """Per-document Turtle exports for parity/interop (S5)."""
    import glob

    import pyarrow.parquet as pq

    from ontocast_ray.model import table_to_graph
    from ontocast_ray.sources.ontologies import serialize_facts

    import pyarrow as pa

    tables = [pq.read_table(f) for f in glob.glob(triples_dir + "/*.parquet")]
    if not tables:
        return
    table = pa.concat_tables(tables)
    import pyarrow.compute as pc

    facts = table.filter(pc.equal(table["graph_scope"], pa.scalar("facts")))
    for doc_iri in pc.unique(facts["doc_iri"]).to_pylist():
        sub = facts.filter(pc.equal(facts["doc_iri"], pa.scalar(doc_iri)))
        graph = table_to_graph(sub)
        serialize_facts(graph, out_dir, spec=doc_iri + "/")


def cmd_chunk(args: argparse.Namespace) -> int:
    """Offline pre-chunking — the reference's split_chunks CLI
    (ref /root/reference/ontocast/cli/split_chunks.py:111-161): each input
    file becomes a JSON ``{"chunks": [str, ...]}`` next to the output dir."""
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    import pyarrow as pa

    from ontocast_ray.stages.chunking import ChunkDocuments

    docs = _build_docs_dataset(args.input_path)

    def to_text(batch: pa.Table) -> pa.Table:
        texts = ["".join(s["text"] for s in spans) for spans in batch["spans"].to_pylist()]
        return pa.table({"doc_id": batch["doc_id"], "text": texts,
                         "spans": batch["spans"]})

    chunks = docs.map_batches(to_text, batch_format="pyarrow").map_batches(
        ChunkDocuments(
            min_chunk_size=args.min_chunk_size, max_chunk_size=args.max_chunk_size
        ),
        batch_format="pyarrow",
    )
    by_doc: dict[str, list] = {}
    for row in chunks.sort(["doc_id", "chunk_idx"]).iter_rows():
        by_doc.setdefault(row["doc_id"], []).append(row["text"])
    os.makedirs(args.working_directory, exist_ok=True)
    for doc_id, texts in by_doc.items():
        name = os.path.splitext(os.path.basename(doc_id))[0] + ".chunks.json"
        with open(os.path.join(args.working_directory, name), "w") as fh:
            json.dump({"chunks": texts}, fh)
    ray.shutdown()
    print(json.dumps({"status": "success", "docs": len(by_doc)}))
    return 0


def cmd_pdfs_to_markdown(args: argparse.Namespace) -> int:
    """PDF dir → one {name}.json with {"text": markdown} per file
    (ref /root/reference/ontocast/cli/pdfs_to_markdown.py:14-38), run as a
    Ray Data pipeline so the docling model loads once per worker."""
    import ray

    from ontocast_ray.sources.documents import crawl_directory, read_documents_from_files

    if not ray.is_initialized():
        ray.init(address="local", include_dashboard=False,
                 ignore_reinit_error=True, logging_level="ERROR")
    paths = crawl_directory(args.input_path, suffixes=(".pdf",), prefix=args.prefix or "")
    if not paths:
        print(json.dumps({"status": "success", "files": 0}))
        return 0
    ds = read_documents_from_files(
        args.input_path, suffixes=(".pdf",), prefix=args.prefix or ""
    )
    os.makedirs(args.output_path, exist_ok=True)
    n_ok, n_fail = 0, 0
    for row in ds.iter_rows():
        if not row["doc_id"].lower().endswith(".pdf"):
            continue
        if not row["convert_status"].startswith("success"):
            n_fail += 1
            continue
        name = os.path.splitext(os.path.basename(row["doc_id"]))[0] + ".json"
        with open(os.path.join(args.output_path, name), "w", encoding="utf-8") as fh:
            json.dump({"text": row["text"]}, fh, ensure_ascii=False, indent=4)
        n_ok += 1
    ray.shutdown()
    print(json.dumps({"status": "success", "files": n_ok, "failed": n_fail}))
    return 0 if n_fail == 0 else 1


def cmd_cmp_states(args: argparse.Namespace) -> int:
    """Tabular diff of agent-state JSON files
    (ref /root/reference/ontocast/cli/cmp_states.py:20-86): per file, triple
    counts of chunk graph / current ontology / addendum + success score,
    rows sorted by the trailing number in the filename."""
    import glob as _glob

    from ontocast_ray.rdf import parse_turtle

    def graph_len(node) -> str:
        if not isinstance(node, dict):
            return ""
        ttl = node.get("graph") or ""
        try:
            return str(len(parse_turtle(ttl)))
        except Exception:
            return "?"

    files = sorted(_glob.glob(os.path.join(args.directory, args.pattern)))

    def trailing_num(path: str) -> int:
        stem = os.path.splitext(os.path.basename(path))[0]
        last = stem.split(".")[-1]
        return int(last) if last.isdigit() else 0

    rows = []
    for path in sorted(files, key=trailing_num):
        with open(path, "r", encoding="utf-8") as fh:
            state = json.load(fh)
        rows.append(
            (
                os.path.splitext(os.path.basename(path))[0],
                graph_len(state.get("current_chunk")),
                graph_len(state.get("current_ontology")),
                graph_len(state.get("ontology_addendum")),
                str(state.get("success_score", "")),
            )
        )
    headers = ("File", "Graph Facts", "Current Ontology", "Ontology Addendum", "Success Score")
    widths = [max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
              for i, h in enumerate(headers)]
    print("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    for r in rows:
        print("  ".join(c.ljust(w) for c, w in zip(r, widths)))
    return 0


_PIPELINE_MERMAID = """flowchart TD
    START([START]) --> crawl[crawl_directory / read_binary_files]
    crawl --> convert[convert_document<br/>map_batches]
    convert --> assemble[assemble_spans]
    assemble --> chunk[chunk_text<br/>semantic chunker]
    chunk --> select[select_ontology]
    select --> render[render_onto_triples]
    render --> critique_o{criticise_ontology}
    critique_o -->|retry| render
    critique_o --> facts[render_facts]
    facts --> critique_f{criticise_facts}
    critique_f -->|retry| facts
    critique_f --> sublimate[sublimate_triples]
    sublimate --> sanitize[sanitize + connect]
    sanitize --> aggregate[aggregate_graphs<br/>disambiguation]
    aggregate --> serialize[aggregate_serialize<br/>parquet / ttl / store]
    serialize --> END([END])
"""


def cmd_plot_graph(args: argparse.Namespace) -> int:
    """Emit the pipeline dataflow as mermaid (ref cli/plot_graph.py:6-33):
    writes graph.mmd and, with --update-md, replaces/appends the
    '### Agent graph' mermaid block of a markdown file."""
    with open(args.output, "w", encoding="utf-8") as fh:
        fh.write(_PIPELINE_MERMAID)
    print(f"wrote {args.output}")
    if args.update_md:
        import re as _re

        with open(args.update_md, "r", encoding="utf-8") as fh:
            content = fh.read()
        pattern = r"(### Agent graph\s+```mermaid\n)(.*?)(\n```)"
        if _re.search(pattern, content, flags=_re.DOTALL):
            content = _re.sub(
                pattern, r"\1" + _PIPELINE_MERMAID.rstrip("\n") + r"\3",
                content, flags=_re.DOTALL,
            )
            print("replaced existing mermaid block")
        else:
            content += f"\n\n### Agent graph\n\n```mermaid\n{_PIPELINE_MERMAID.rstrip()}\n```\n"
            print("appended new mermaid block")
        with open(args.update_md, "w", encoding="utf-8") as fh:
            fh.write(content)
    return 0


def cmd_test_api(args: argparse.Namespace) -> int:
    """Smoke client for the serve mode (ref cli/test_api.py): POST a text
    payload (default or --json-file) and print the response."""
    import urllib.request

    if args.json_file:
        with open(args.json_file, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    else:
        payload = {"text": "Apple Inc. reported quarterly revenue. Tim Cook is the CEO of Apple Inc."}
    req = urllib.request.Request(
        args.url,
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    print(f"POSTing to: {args.url}")
    with urllib.request.urlopen(req, timeout=args.timeout) as resp:
        body = resp.read().decode("utf-8", "replace")
        print(f"status: {resp.status}")
        print(body)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="ontocast_ray")
    sub = parser.add_subparsers(dest="cmd", required=True)
    run_p = sub.add_parser("run", help="batch-process a directory of documents")
    run_p.add_argument("--input-path", required=True)
    run_p.add_argument("--working-directory", required=True)
    run_p.add_argument("--ontology-directory", default=None)
    run_p.add_argument("--max-chunks", type=int, default=None)
    run_p.add_argument("--max-visits", type=int, default=3)
    run_p.add_argument("--ttl-export", action="store_true")
    run_p.add_argument("--fuseki-uri", default=None)
    run_p.add_argument("--fuseki-auth", default=None)
    run_p.add_argument("--neo4j-uri", default=None)
    run_p.add_argument("--neo4j-auth", default=None)
    run_p.set_defaults(fn=cmd_run)
    chunk_p = sub.add_parser("chunk", help="offline pre-chunking (split_chunks parity)")
    chunk_p.add_argument("--input-path", required=True)
    chunk_p.add_argument("--working-directory", required=True)
    chunk_p.add_argument("--min-chunk-size", type=int, default=2000)
    chunk_p.add_argument("--max-chunk-size", type=int, default=20000)
    chunk_p.set_defaults(fn=cmd_chunk)
    pdf_p = sub.add_parser("pdfs-to-markdown", help="convert PDFs to markdown JSON files")
    pdf_p.add_argument("--input-path", required=True)
    pdf_p.add_argument("--output-path", required=True)
    pdf_p.add_argument("--prefix", default=None)
    pdf_p.set_defaults(fn=cmd_pdfs_to_markdown)
    cmp_p = sub.add_parser("cmp-states", help="tabular diff of agent-state JSON files")
    cmp_p.add_argument("directory")
    cmp_p.add_argument("--pattern", default="agent_state.onto.update*.json")
    cmp_p.set_defaults(fn=cmd_cmp_states)
    plot_p = sub.add_parser("plot-graph", help="emit the pipeline dataflow as mermaid")
    plot_p.add_argument("--output", default="graph.mmd")
    plot_p.add_argument("--update-md", default=None)
    plot_p.set_defaults(fn=cmd_plot_graph)
    api_p = sub.add_parser("test-api", help="smoke client for the HTTP serve mode")
    api_p.add_argument("--url", required=True)
    api_p.add_argument("--json-file", default=None)
    api_p.add_argument("--timeout", type=float, default=60.0)
    api_p.set_defaults(fn=cmd_test_api)
    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
