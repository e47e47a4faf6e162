"""In-document ontology co-evolution: chunk i+1 must not re-define terms
chunk i already added (ref criticise_ontology.py:82-92 — the shared manager
mutates mid-document). Runs ``KGProcessDocs``'s per-chunk loop on chunk
rows given as they are, in place of the chunker's output."""

import pyarrow as pa

from ontocast_ray.pipelines.kg import KGProcessDocs

DOC_IRI = "https://example.com/doc/abcdefabcdef"


def _stage():
    stage = KGProcessDocs(ontology_seeds=[])
    stage.chunker = lambda batch: batch  # the batches below are chunk rows
    return stage


def _batch(chunks):
    return pa.table(
        {
            "doc_id": ["d1"] * len(chunks),
            "doc_iri": [DOC_IRI] * len(chunks),
            "chunk_idx": pa.array(range(len(chunks)), type=pa.int32()),
            "chunk_hid": [f"{i:012x}" for i in range(len(chunks))],
            "text": chunks,
        }
    )


def test_second_chunk_sees_first_chunks_addendum():
    stage = _stage()
    text = "Acme Corp is a company. Acme Corp employs 10 people."
    out = stage(_batch([text, text]))

    onto = out.filter(pa.compute.equal(out["graph_scope"], pa.scalar("ontology")))
    by_chunk = {}
    for hid, pred, obj in zip(
        onto["chunk_hid"].to_pylist(), onto["predicate"].to_pylist(), onto["object"].to_pylist()
    ):
        if pred.endswith("label"):
            by_chunk.setdefault(hid, set()).add(obj)
    first = by_chunk.get("000000000000", set())
    second = by_chunk.get("000000000001", set())
    # chunk 1 defines Company / employee count; chunk 2 re-uses, not re-defines
    assert "Company" in first
    assert "Company" not in second
    assert not (first & second)


def test_coevolution_is_doc_scoped():
    """A different document's chunks start from the base snapshot again."""
    stage = _stage()
    text = "Acme Corp is a company."
    b1 = _batch([text])
    b2 = pa.table(
        {
            "doc_id": ["d2"],
            "doc_iri": ["https://example.com/doc/bbbbbbbbbbbb"],
            "chunk_idx": pa.array([0], type=pa.int32()),
            "chunk_hid": ["aaaaaaaaaaaa"],
            "text": [text],
        }
    )
    out1 = stage(b1)
    out2 = stage(b2)
    for out in (out1, out2):
        onto = out.filter(pa.compute.equal(out["graph_scope"], pa.scalar("ontology")))
        labels = {o for p, o in zip(onto["predicate"].to_pylist(), onto["object"].to_pylist())
                  if p.endswith("label")}
        assert "Company" in labels  # both docs define it independently
