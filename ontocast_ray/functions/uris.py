"""IRI / identifier kernels — byte-exact reproductions of the reference rules.

These must match the reference exactly because canonical URI minting is part
of the correctness gate:

- ``iri2namespace``      ← /root/reference/ontocast/util.py:10-21
- ``derive_ontology_id`` ← /root/reference/ontocast/onto.py:26-45
- ``clean_derived_id``   ← /root/reference/ontocast/onto.py:48-53
- ``clean_local_name``   ← /root/reference/ontocast/tool/aggregate.py:635-646

Note on ``CONVENTIONAL_MAPPINGS`` (ref util.py:24-30): the reference builds
{namespace-uri → prefix} from rdflib's default bindings, but then looks up
``iri.strip().rstrip("/#")`` — a key that has had any trailing '/' or '#'
removed. Since almost every well-known namespace URI *ends* in '/' or '#',
the only observable hit is the XML namespace (which ends in neither). We
reproduce that observable behavior with the one effective entry.
"""

from __future__ import annotations

import re
from functools import lru_cache
from urllib.parse import urlparse

ONTOLOGY_NULL_ID = "_void_ontology_name"  # ref onto.py:20
ONTOLOGY_NULL_IRI = "NULL"  # ref onto.py:21
DEFAULT_DOMAIN = "https://example.com"  # ref onto.py:23

# Effective subset of rdflib's default {uri: prefix} table after the
# reference's rstrip("/#") normalization (see module docstring).
CONVENTIONAL_MAPPINGS = {
    "http://www.w3.org/XML/1998/namespace": "xml",
}

_EXT_RE = re.compile(r"\.(owl|ttl|rdf|xml)$", re.IGNORECASE)
_TLD_RE = re.compile(r"^(.*?)\.(org|com|net|io|edu|gov|int|mil)$", re.IGNORECASE)
_NON_ID_RE = re.compile(r"[^a-zA-Z0-9_-]")
_NON_WORD_RE = re.compile(r"[^\w\-.]")
_MULTI_UNDERSCORE_RE = re.compile(r"_+")
# http(s) IRIs that ``urlparse`` splits only at '/': URL-safe ASCII without
# '?', '#', ';' or brackets (no query, fragment, params or IPv6 host), and
# no whitespace or control characters (which urlsplit strips or rejects).
_PLAIN_HTTP_RE = re.compile(r"https?://([A-Za-z0-9\-._~:/@!$&'()*+,=%]+)")


def iri2namespace(iri: str, ontology: bool = False) -> str:
    """IRI → namespace string: strip trailing '#', append '#' (ontology) or '/'."""
    iri = iri.rstrip("#")
    return f"{iri}#" if ontology else f"{iri}/"


def clean_derived_id(value: str) -> str:
    """Strip .owl/.ttl/.rdf/.xml extension and common TLD, drop non-id chars, lower."""
    value = _EXT_RE.sub("", value)
    match = _TLD_RE.match(value)
    if match:
        value = match.group(1)
    return _NON_ID_RE.sub("", value).lower() or ONTOLOGY_NULL_ID


# A segment repeats across documents where full IRIs do not.
_clean_segment = lru_cache(maxsize=65536)(clean_derived_id)


@lru_cache(maxsize=65536)
def derive_ontology_id(iri: str) -> str:
    """Derive a short id from an IRI (last path segment / first netloc token).

    lru_cached (a pure function of the IRI). A plain http(s) IRI
    (``_PLAIN_HTTP_RE``) is split at '/' by string operations, which give
    ``urlparse``'s netloc and path; every other IRI goes through
    ``urlparse``.
    """
    if not isinstance(iri, str) or not iri.strip():
        return ONTOLOGY_NULL_ID

    normalized_iri = iri.strip().rstrip("/#")

    if normalized_iri in CONVENTIONAL_MAPPINGS:
        return CONVENTIONAL_MAPPINGS[normalized_iri]

    plain = _PLAIN_HTTP_RE.fullmatch(normalized_iri)
    if plain is not None:
        rest = plain.group(1)  # netloc, then the path from its first '/'
        if "/" in rest:
            return _clean_segment(rest.rsplit("/", 1)[-1])
        return _clean_segment(rest.split(".")[0])

    parsed = urlparse(normalized_iri)

    candidate = (
        parsed.path.rsplit("/", 1)[-1]
        if parsed.path and "/" in parsed.path
        else parsed.netloc.split(".")[0]
        if parsed.netloc
        else normalized_iri
    )

    return clean_derived_id(candidate)


def clean_local_name(local_name: str) -> str:
    """Clean a local name for use in minted canonical URIs (ref aggregate.py:635-646)."""
    cleaned = _NON_WORD_RE.sub("_", local_name)
    cleaned = _MULTI_UNDERSCORE_RE.sub("_", cleaned)
    cleaned = cleaned.strip("_")
    return cleaned or "entity"
