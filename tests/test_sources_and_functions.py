"""Tests for document sources, json→md, Turtle sinks, retry-loop semantics."""

import json
import os

import pytest


def test_json_to_md_structure():
    from ontocast_ray.functions.json_md import json_to_md

    md = json_to_md({"title": "Report", "sections": [{"name": "A"}, {"name": "B"}],
                     "count": 3}, title="root")
    assert "## Root" in md
    assert "**Title**: Report" in md
    assert "**Count**: 3" in md
    assert "**Name**: A" in md


def test_crawl_and_convert(tmp_path):
    from ontocast_ray.sources.documents import convert_payload, crawl_directory

    (tmp_path / "a.txt").write_text("plain text")
    (tmp_path / "b.json").write_text(json.dumps({"text": "json text"}))
    (tmp_path / "c.json").write_text(json.dumps({"k": "v"}))
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "d.md").write_text("# md")
    (tmp_path / "skip.xyz").write_text("no")

    files = crawl_directory(str(tmp_path))
    assert [os.path.basename(f) for f in files] == ["a.txt", "b.json", "c.json", "d.md"]

    assert convert_payload(b"plain", "x.txt") == ("plain", "success")
    text, status = convert_payload(json.dumps({"text": "T"}).encode(), "x.json")
    assert (text, status) == ("T", "success")
    text, status = convert_payload(json.dumps({"k": 1}).encode(), "x.json")
    assert status == "success" and "**K**: 1" in text
    # pdf → converter stub path (docling absent)
    text, status = convert_payload(b"%PDF", "x.pdf")
    assert text == "" and status.startswith("failed:")
    # unknown extension → failed (ref convert_document.py:57-60)
    _, status = convert_payload(b"?", "x.xyz")
    assert status.startswith("failed:unsupported")


def test_read_documents_from_files(ray_session, tmp_path):
    from ontocast_ray.sources.documents import read_documents_from_files

    (tmp_path / "a.txt").write_text("alpha")
    (tmp_path / "b.json").write_text(json.dumps({"text": "beta"}))
    rows = read_documents_from_files(str(tmp_path)).take_all()
    by_name = {os.path.basename(r["doc_id"]): r for r in rows}
    assert by_name["a.txt"]["text"] == "alpha"
    assert by_name["b.json"]["text"] == "beta"
    assert all(r["convert_status"] == "success" for r in rows)


def test_serialize_facts_naming(tmp_path):
    from ontocast_ray.rdf import TripleGraph
    from ontocast_ray.rdf.terms import URI, Literal
    from ontocast_ray.sources.ontologies import serialize_facts

    g = TripleGraph()
    g.add((URI("http://x/s"), URI("http://x/p"), Literal("v")))
    # trailing slash: last-2 split gives ["abc123", ""] → empty dropped
    p1 = serialize_facts(g, str(tmp_path), spec="https://example.com/doc/abc123/")
    assert os.path.basename(p1) == "facts_abc123.ttl"
    p1b = serialize_facts(g, str(tmp_path), spec="domain/subdomain")
    assert os.path.basename(p1b) == "facts_domain_subdomain.ttl"
    p2 = serialize_facts(g, str(tmp_path))
    assert os.path.basename(p2) == "current.ttl"
    with pytest.raises(TypeError):
        serialize_facts(g, str(tmp_path), spec=123)  # ref raises TypeError


def test_retry_loop_forced_success():
    """L7 semantics: critic that always fails → max_visits attempts, forced
    SUCCESS with failure recorded, partial graph kept (ref stategraph/util.py:8-30)."""
    from ontocast_ray.stages.extract import DeterministicExtractor

    ex = DeterministicExtractor([], domain="https://example.com")
    # text with no extractable facts → facts critique fails every attempt
    result = ex.process_chunk(
        "nothing but lowercase noise here", "https://example.com/doc/abcdefabcdef",
        "123456789abc", max_visits=3,
    )
    assert result.attempts == 3
    assert result.status == "success"  # forced success, partials kept
    assert result.failure_stage == "FACTS_CRITIQUE"
    assert result.success_score == 0.0


def test_llm_protocol():
    from ontocast_ray.llm import EchoLLM, OpenAIChatClient

    assert EchoLLM("hi").complete("x") == "hi"
    with pytest.raises(RuntimeError):
        OpenAIChatClient(api_key="")  # no key → clean failure, no network


# --- docling converter wiring (S3) -----------------------------------------


class _FakeDoc:
    def __init__(self, payload: bytes):
        self.payload = payload

    def export_to_markdown(self) -> str:
        return f"# converted\n\n{len(self.payload)} bytes"


class _FakeResult:
    def __init__(self, payload: bytes):
        self.document = _FakeDoc(payload)


class _FakeConverter:
    """Stands in for docling.DocumentConverter: takes raw bytes (the wiring
    falls back to raw payload when docling's DocumentStream is absent)."""

    def convert(self, stream):
        payload = stream if isinstance(stream, bytes) else stream.stream.read()
        return _FakeResult(payload)


_FACTORY_CALLS = {"n": 0}


def _fake_factory():
    _FACTORY_CALLS["n"] += 1
    return _FakeConverter()


def test_convert_payload_pdf_dispatch_uses_injected_converter():
    from ontocast_ray.sources.documents import _CONVERTER_CACHE, convert_payload

    _CONVERTER_CACHE.clear()
    _FACTORY_CALLS["n"] = 0
    text, status = convert_payload(b"12345", "report.pdf", _fake_factory)
    assert status == "success" and text == "# converted\n\n5 bytes"
    text2, status2 = convert_payload(b"abc", "deck.pptx", _fake_factory)
    assert status2 == "success" and text2 == "# converted\n\n3 bytes"
    # model-load semantics: ONE converter construction for many payloads
    assert _FACTORY_CALLS["n"] == 1
    _CONVERTER_CACHE.clear()


def test_convert_payload_pdf_without_docling_fails_cleanly():
    from ontocast_ray.sources.documents import _CONVERTER_CACHE, convert_payload

    _CONVERTER_CACHE.clear()
    text, status = convert_payload(b"%PDF-1.4", "a.pdf")
    assert text == "" and status.startswith("failed:")
    assert "docling" in status


def test_read_documents_rich_conversion_end_to_end(ray_session, tmp_path):
    """Actor-pool wiring: .pdf/.pptx go through the (injected) converter,
    .txt passes through, unsupported suffixes record failure."""
    from ontocast_ray.sources.documents import read_documents_from_files

    (tmp_path / "a.pdf").write_bytes(b"fake-pdf-bytes")
    (tmp_path / "b.pptx").write_bytes(b"deck")
    (tmp_path / "c.txt").write_text("plain text")
    rows = {r["doc_id"]: r for r in
            read_documents_from_files(str(tmp_path), converter_factory=_fake_factory).take_all()}
    assert rows[str(tmp_path / "a.pdf")]["text"] == "# converted\n\n14 bytes"
    assert rows[str(tmp_path / "b.pptx")]["text"] == "# converted\n\n4 bytes"
    assert rows[str(tmp_path / "c.txt")]["text"] == "plain text"
    assert all(r["convert_status"] == "success" for r in rows.values())


def test_read_documents_lance_dispatch(ray_session, tmp_path):
    """Contract-input shim: parquet paths stream; a Lance dataset dir is
    detected and raises the marked gate when the wheel is absent."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    import pytest

    from ontocast_ray.sources.io import is_lance_dataset, read_documents, write_documents

    src = tmp_path / "docs.parquet"
    pq.write_table(pa.table({"doc_id": ["a", "b"], "text": ["x", "y"]}), str(src))
    ds = read_documents(str(src), columns=["doc_id"])
    assert sorted(r["doc_id"] for r in ds.take_all()) == ["a", "b"]

    fake_lance = tmp_path / "corpus.lance"
    (fake_lance / "_versions").mkdir(parents=True)
    assert is_lance_dataset(str(fake_lance))
    assert not is_lance_dataset(str(src))
    with pytest.raises(NotImplementedError, match="pylance"):
        read_documents(str(fake_lance))
    with pytest.raises(NotImplementedError, match="pylance"):
        write_documents(ds, str(tmp_path / "out"), fmt="lance")


def test_write_bucketed_roundtrip(ray_session, tmp_path):
    """Bucket invariant (hash(key)%B == dir), within-bucket sort, full
    roundtrip, manifests committed per bucket, pruned single-bucket read."""
    import numpy as np
    import pyarrow as pa
    import ray.data

    from ontocast_ray.sources.io import committed_shards, read_bucket, write_bucketed
    from ontocast_ray.util import hash_partition

    rng = np.random.default_rng(6)
    n = 2000
    t = pa.table(
        {"user_id": pa.array(rng.integers(0, 97, n), type=pa.int64()),
         "v": pa.array(np.arange(n), type=pa.int64())}
    )
    out = str(tmp_path / "bucketed")
    counts = write_bucketed(
        ray.data.from_arrow(t).repartition(6), out, "user_id",
        n_buckets=8,
    )
    assert sum(counts.values()) == n
    assert committed_shards(out) == set(counts)
    back = ray.data.read_parquet(out).to_pandas()
    assert len(back) == n and set(back["v"]) == set(range(n))
    one = read_bucket(out, 3).to_pandas()
    assert len(one) == counts.get(3, 0)
    assert (hash_partition(one["user_id"].to_numpy(), 8) == 3).all()
    assert one["user_id"].is_monotonic_increasing

    # idempotent resume: a full re-run skips every committed bucket and
    # writes NOTHING new (no duplicate rows), returning the same manifest
    counts2 = write_bucketed(
        ray.data.from_arrow(t).repartition(6), out, "user_id",
        n_buckets=8,
    )
    assert counts2 == counts
    assert len(ray.data.read_parquet(out).to_pandas()) == n

    # partial resume: drop one bucket's marker -> only that bucket re-runs
    import os

    os.remove(os.path.join(out, "_manifest", "3.json"))
    import shutil

    shutil.rmtree(os.path.join(out, "bucket=3"))
    counts3 = write_bucketed(
        ray.data.from_arrow(t).repartition(6), out, "user_id",
        n_buckets=8,
    )
    assert counts3 == counts
    back2 = ray.data.read_parquet(out).to_pandas()
    assert len(back2) == n and set(back2["v"]) == set(range(n))

    # crash-orphan resume: a bucket whose data was (partially) written but
    # never committed must be purged before re-write — re-running must NOT
    # duplicate its rows (file-idempotence contract)
    os.remove(os.path.join(out, "_manifest", "5.json"))
    # bucket=5 dir still holds its full data (simulates crash after
    # write_parquet, before commit_shard)
    assert os.path.isdir(os.path.join(out, "bucket=5"))
    counts4 = write_bucketed(
        ray.data.from_arrow(t).repartition(6), out, "user_id",
        n_buckets=8,
    )
    assert counts4 == counts
    back3 = ray.data.read_parquet(out).to_pandas()
    assert len(back3) == n and set(back3["v"]) == set(range(n))


@pytest.mark.parametrize("path", ["gather", "sort"])
def test_write_committed_one_file_per_part(ray_session, tmp_path, monkeypatch, path):
    """Every part gets one file when every block carries rows of every part
    (the KG sink's shape), on both exchange paths: 4 blocks of 1000 rows
    over 4 parts give one 1000-row file per part, not one per block, and
    the file holds every row of its part."""
    import glob
    import os

    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data

    from ontocast_ray.ops import shuffle
    from ontocast_ray.sources.io import _write_committed

    if path == "sort":
        monkeypatch.setattr(shuffle, "_GATHER_BYTES", 0)
    blocks = [pa.table({"part": pa.array([i % 4 for i in range(1000)], type=pa.int32()),
                        "v": pa.array(range(b * 1000, (b + 1) * 1000))}) for b in range(4)]
    out = str(tmp_path / "out")
    rows, n_blocks = _write_committed(ray.data.from_arrow(blocks), out, "part", 4, set())
    assert rows == {p: 1000 for p in range(4)} and n_blocks == 4
    for p in range(4):
        files = glob.glob(os.path.join(out, f"part={p}", "*.parquet"))
        assert len(files) == 1
        assert sorted(pq.read_table(files[0])["v"].to_pylist()) == [
            v for v in range(4000) if v % 1000 % 4 == p]


def test_read_documents_jsonl(ray_session, tmp_path):
    """JSONL (plain + gzipped) corpus inputs stream through read_documents
    with client-side column projection."""
    import gzip
    import json

    from ontocast_ray.sources.io import read_documents

    rows = [{"doc_id": i, "text": f"doc {i}", "extra": i * 2} for i in range(20)]
    plain = tmp_path / "docs.jsonl"
    plain.write_text("\n".join(json.dumps(r) for r in rows))
    gz = tmp_path / "docs.jsonl.gz"
    with gzip.open(gz, "wt") as fh:
        fh.write("\n".join(json.dumps(r) for r in rows))

    for p in (str(plain), str(gz)):
        ds = read_documents(p, columns=["doc_id", "text"])
        df = ds.to_pandas().sort_values("doc_id").reset_index(drop=True)
        assert list(df.columns) == ["doc_id", "text"]
        assert len(df) == 20 and df["text"].iloc[3] == "doc 3"


def test_read_documents_csv_tsv(ray_session, tmp_path):
    from ontocast_ray.sources.io import read_documents

    csv = tmp_path / "docs.csv"
    csv.write_text("doc_id,text\n1,alpha\n2,beta\n")
    tsv = tmp_path / "docs.tsv"
    tsv.write_text("doc_id\ttext\n1\talpha\n2\tbeta\n")
    import gzip

    tsv_gz = tmp_path / "docs.tsv.gz"
    with gzip.open(tsv_gz, "wt") as fh:
        fh.write("doc_id\ttext\n1\talpha\n2\tbeta\n")
    for p in (str(csv), str(tsv), str(tsv_gz)):
        df = read_documents(p).to_pandas().sort_values("doc_id")
        assert df["text"].tolist() == ["alpha", "beta"]


def test_write_documents_jsonl_roundtrip(ray_session, tmp_path):
    import ray.data

    from ontocast_ray.sources.io import write_documents

    import pyarrow as pa

    t = pa.table({"doc_id": pa.array([1, 2], type=pa.int64()),
                  "text": pa.array(["a", "b"])})
    out = str(tmp_path / "jsonl_out")
    write_documents(ray.data.from_arrow(t), out, fmt="jsonl")
    back = ray.data.read_json(out).to_pandas().sort_values("doc_id")
    assert back["text"].tolist() == ["a", "b"]
