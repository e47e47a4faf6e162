"""Well-known namespaces and the reference's COMMON_PREFIXES table.

COMMON_PREFIXES ← /root/reference/ontocast/onto.py:88-97 (auto-injected when
parsing model-emitted Turtle); PROV/SCHEMA ← onto.py:99-100. Note the
reference's SCHEMA is https://schema.org/ (used for connectivity hubs) while
COMMON_PREFIXES maps "schema" to http://schema.org/ — both are kept verbatim.
"""

from __future__ import annotations

from ontocast_ray.rdf.terms import URI


class Namespace(str):
    """A namespace base; attribute access mints URIs: ``RDF.type``.

    Each term is minted once, on its first access, and kept in the instance
    ``__dict__``: every later ``RDF.type`` is a plain attribute read that
    returns the same object, so dict and set probes with it match by
    identity instead of calling ``URI.__eq__``."""

    def __getattr__(self, name: str) -> URI:
        if name.startswith("__"):
            raise AttributeError(name)
        term = self.__dict__[name] = URI(str(self) + name)
        return term


RDF = Namespace("http://www.w3.org/1999/02/22-rdf-syntax-ns#")
RDFS = Namespace("http://www.w3.org/2000/01/rdf-schema#")
OWL = Namespace("http://www.w3.org/2002/07/owl#")
XSD = Namespace("http://www.w3.org/2001/XMLSchema#")
SKOS = Namespace("http://www.w3.org/2004/02/skos/core#")
FOAF = Namespace("http://xmlns.com/foaf/0.1/")
DCTERMS = Namespace("http://purl.org/dc/terms/")
PROV = Namespace("http://www.w3.org/ns/prov#")
SCHEMA = Namespace("https://schema.org/")

# Prefix → namespace URI (no angle brackets; the reference stores them
# bracketed for prompt text, we store clean URIs).
COMMON_PREFIXES = {
    "xsd": "http://www.w3.org/2001/XMLSchema#",
    "rdf": "http://www.w3.org/1999/02/22-rdf-syntax-ns#",
    "rdfs": "http://www.w3.org/2000/01/rdf-schema#",
    "owl": "http://www.w3.org/2002/07/owl#",
    "skos": "http://www.w3.org/2004/02/skos/core#",
    "foaf": "http://xmlns.com/foaf/0.1/",
    "schema": "http://schema.org/",
    "ex": "http://example.org/",
}
