"""Unit tests for the scalar kernel library (URI/id/hash/fuzz rules).

Golden values derived from the reference implementations by rule inspection
(/root/reference/ontocast/util.py, onto.py:26-53, tool/aggregate.py:635-646).
"""

import hashlib

from ontocast_ray.functions import (
    clean_derived_id,
    clean_local_name,
    derive_ontology_id,
    iri2namespace,
    ratio,
    render_text_hash,
)


def test_render_text_hash():
    assert render_text_hash("hello") == hashlib.sha256(b"hello").hexdigest()[:12]
    assert len(render_text_hash("x")) == 12
    assert render_text_hash("x", digits=8) == hashlib.sha256(b"x").hexdigest()[:8]


def test_iri2namespace():
    assert iri2namespace("https://example.com/doc/abc") == "https://example.com/doc/abc/"
    assert iri2namespace("https://example.com/fsec#", ontology=True) == "https://example.com/fsec#"
    assert iri2namespace("https://example.com/fsec", ontology=True) == "https://example.com/fsec#"


def test_derive_ontology_id():
    # last path segment, cleaned + lowercased
    assert derive_ontology_id("https://example.com/doc/123/chunk/abc/person1") == "person1"
    # trailing /# stripped first
    assert derive_ontology_id("https://example.com/fsec#") == "fsec"
    # fragment IRIs: urlparse keeps the fragment out of path → last path segment
    assert derive_ontology_id("https://example.com/fsec#Security") == "fsec"
    # netloc-only IRIs: first dotted token
    assert derive_ontology_id("https://example.com") == "example"
    # extension and case stripping
    assert derive_ontology_id("https://host.org/onts/criminal.ttl") == "criminal"
    # empty → NULL id
    assert derive_ontology_id("") == "_void_ontology_name"
    assert derive_ontology_id("   ") == "_void_ontology_name"


def test_clean_derived_id():
    assert clean_derived_id("MyOnt.owl") == "myont"
    assert clean_derived_id("example.com") == "example"
    assert clean_derived_id("Weird !! Name") == "weirdname"
    assert clean_derived_id("!!!") == "_void_ontology_name"


def test_clean_local_name():
    assert clean_local_name("John Doe") == "John_Doe"
    assert clean_local_name("a  b!!c") == "a_b_c"
    assert clean_local_name("__x__") == "x"
    assert clean_local_name("!!") == "entity"
    # \w keeps unicode word chars (ref uses \w in aggregate.py:641)
    assert clean_local_name("café_owner") == "café_owner"


def test_fuzz_ratio_matches_rapidfuzz_semantics():
    # indel similarity: 100 * 2*LCS / (len1+len2)
    assert ratio("", "") == 100.0
    assert ratio("abc", "abc") == 100.0
    assert ratio("abc", "") == 0.0
    assert ratio("john doe", "john d.") == 80.0
    assert abs(ratio("this is a test", "this is a test!") - 96.5517241379) < 1e-6
    # symmetric
    assert ratio("acme corp", "acme corporation") == ratio("acme corporation", "acme corp")


def _urlparse_derive_ontology_id(iri):
    """``derive_ontology_id`` before its string-split fast path, verbatim
    but for the cache: the oracle the fast path must equal."""
    from urllib.parse import urlparse

    from ontocast_ray.functions.uris import CONVENTIONAL_MAPPINGS, ONTOLOGY_NULL_ID

    if not isinstance(iri, str) or not iri.strip():
        return ONTOLOGY_NULL_ID
    normalized_iri = iri.strip().rstrip("/#")
    if normalized_iri in CONVENTIONAL_MAPPINGS:
        return CONVENTIONAL_MAPPINGS[normalized_iri]
    parsed = urlparse(normalized_iri)
    candidate = (
        parsed.path.rsplit("/", 1)[-1]
        if parsed.path and "/" in parsed.path
        else parsed.netloc.split(".")[0]
        if parsed.netloc
        else normalized_iri
    )
    return clean_derived_id(candidate)


_IRI_EDGE_CASES = [
    "http://example.com", "https://example.com", "https://example.com/",
    "https://example.com/a;params", "https://example.com/a/b;p=1/c", "https://example.com/a?q=1",
    "https://example.com/a?q=/x/y", "https://example.com/a#frag", "https://example.com/a#f/g",
    "http://www.w3.org/XML/1998/namespace", "http://www.w3.org/XML/1998/namespace/",
    "http://[::1]/x", "http://[::1]", "https://user:pw@host.example.com:8080/x.ttl",
    "https://user@host.io", "HTTPS://EXAMPLE.COM/Upper", "Https://example.com/Mixed",
    "https://example.com/%41b", "https://example.com/trailing/", "http://", "https://",
    "http:///path/only", "https:// spaced.org/x", "https://example.com/a b",
    " https://example.com/x ",
    "https://example.com/\tx", "https://exämple.com/x", "https://example.com/ünï",
    "https://a.b.c.org", "https://example.com/onto.owl", "https://example.com/x.RDF",
    "https://example.com/doc/0123456789ab/chunk/fedcba987654/Acme_Corp.",
    "https://example.com/a//b", "https://example.com/.", "https://example.com/-x-",
    "https://example.com/(x)!$&'*+,=~@:", "ftp://example.com/x", "urn:isbn:123", "mailto:a@b.org",
    "no-scheme/path", "//example.com/x", "https:example.com/x", "https:/example.com/x",
    "https://example.com/x\\y", "https://example.com/x|y", "https://example.com/x^y",
    "http://example.com:notaport/x", "https://example.com/a/b.", "https://.",
]


def _outcome(fn, iri):
    try:
        return fn(iri)
    except ValueError as exc:  # urlparse rejects malformed IPv6 hosts
        return type(exc)


def test_derive_ontology_id_equals_urlparse_on_edge_cases():
    import random

    for iri in _IRI_EDGE_CASES:
        assert derive_ontology_id(iri) == _urlparse_derive_ontology_id(iri), iri
    rng = random.Random(7)
    alphabet = "aZ09-._~:/@!$&'()*+,=%?#;[] \t\x00é"
    for _ in range(3000):
        iri = rng.choice(["http://", "https://", "HTTP://", ""]) + "".join(
            rng.choice(alphabet) for _ in range(rng.randint(0, 24)))
        assert _outcome(derive_ontology_id, iri) == _outcome(
            _urlparse_derive_ontology_id, iri), repr(iri)


def test_derive_ontology_id_equals_urlparse_on_kernel_iris():
    """Every IRI the KG kernel emits over crawl-shaped docs at two seeds."""
    from ontocast_ray.corpus import generate_corpus
    from ontocast_ray.pipelines.kg import KGProcessDocs
    from ontocast_ray.stages.assemble import assemble_spans

    iris = set()
    for seed in (1, 2):
        docs = generate_corpus(n_docs=128, seed=seed, head_entity_fraction=0.3,
                               target_doc_chars=580)
        rows = KGProcessDocs()(assemble_spans(docs))
        for column in ("subject", "predicate", "object"):
            iris.update(rows[column].to_pylist())
    assert len(iris) > 1000
    for iri in iris:
        assert derive_ontology_id(iri) == _urlparse_derive_ontology_id(iri), iri
