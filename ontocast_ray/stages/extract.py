"""Triple extraction: the select→render→critique→sublimate→validate chunk loop.

Restructures the reference's LangGraph agent cycle
(/root/reference/ontocast/stategraph/create.py:82-144 — SELECT_ONTOLOGY →
TEXT_TO_ONTOLOGY → CRITICISE_ONTOLOGY → TEXT_TO_FACTS → SUBLIMATE_ONTOLOGY →
CRITICISE_FACTS, with bounded retries) into one ``process_chunk`` call per
chunk, which ``pipelines.kg.KGProcessDocs`` runs for each chunk of a doc.

The extractor backend is pluggable (``ExtractorModel`` protocol). The default
``DeterministicExtractor`` is a rule-based stand-in for the LLM (the
reference's tests require live OpenAI keys; ours must not): it selects an
ontology by token overlap on the chunk's first 1000 chars (ref
agent/select_ontology.py:57 uses the same excerpt window), extracts
entity/relation/typed-literal triples into the chunk namespace with
ontology-namespace predicates (matching the shape of the reference's
render_facts outputs, e.g. test/data/state_rendered_facts.json), and emits
class/property definition triples for novel terms (the ontology addendum).

Retry semantics reproduce L7 (ref stategraph/util.py:8-30): per-node visit
counters, at most ``max_visits`` attempts per node per chunk, and on
exhaustion the chunk is **force-completed with partial results** (status
SUCCESS, failure stage/reason recorded in the emitted status columns).

``ExtractTriples`` holds the model and the ontology views it was built
from. ``KGProcessDocs`` merges ontology deltas into the OntologyHub named
actor once per batch (commutative union — order-insensitive) and records the
snapshot version used per chunk for lineage.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional, Protocol

from ontocast_ray.functions.hashing import render_text_hash
from ontocast_ray.functions.uris import clean_local_name, iri2namespace
from ontocast_ray.rdf import RDFS, TripleGraph
from ontocast_ray.rdf.namespaces import XSD
from ontocast_ray.rdf.table import CLASS, DOMAIN, LABEL, PROPERTY, RANGE, TYPE, TermTable
from ontocast_ray.stages.sublimate import sublimate_graph
from ontocast_ray.stages.validate import validate_and_connect

ENGINE_NS = "https://ontocast-ray.dev/meta#"
_XSD_INTEGER, _XSD_DATE, _XSD_DOUBLE = (str(XSD) + t for t in ("integer", "date", "double"))

# entity phrases repeat across chunks and documents
_local_name = lru_cache(maxsize=65536)(clean_local_name)

# workflow stage names (ref onto.py:831-843) — used in status columns
STAGE_FACTS_CRITIQUE = "FACTS_CRITIQUE"
STAGE_ONTOLOGY_CRITIQUE = "ONTOLOGY_CRITIQUE"


@dataclass
class OntologyView:
    """Broadcast-side snapshot of one ontology (descriptions + term labels)."""

    ontology_id: str
    iri: str
    title: str = ""
    description: str = ""
    known_terms: set = field(default_factory=set)  # lowercased class/property labels


@dataclass
class ChunkResult:
    """``facts`` and ``ontology_addendum`` hold term objects, or ids of the
    ``TermTable`` the caller passed to ``process_chunk``."""

    facts: TripleGraph
    ontology_addendum: TripleGraph
    ontology_id: str
    ontology_iri: str
    status: str
    success_score: float
    failure_stage: Optional[str]
    attempts: int


class ExtractorModel(Protocol):
    def process_chunk(
        self, text: str, doc_iri: str, chunk_hid: str, max_visits: int
    ) -> ChunkResult: ...


_WORD_RE = re.compile(r"[a-z0-9]+")


def _tokens(text: str) -> set:
    return set(_WORD_RE.findall(text.lower()))


def _camel(label: str) -> str:
    return "".join(w.capitalize() for w in re.split(r"\W+", label) if w)


_ENT = r"[A-Z][A-Za-z0-9'&.-]*(?: [A-Z][A-Za-z0-9'&.-]*)*"


class DeterministicExtractor:
    """Rule-based extraction model (LLM stand-in; deterministic, vector-friendly).

    Patterns are compiled once per instance. Relation vocabulary mirrors the
    synthetic corpus and the reference's validation scenarios (worksAt /
    knows / locatedIn / hasSkill / employs / filedOn).
    """

    RELATIONS = [
        # (regex, predicate local, predicate label, domain local, range local)
        (re.compile(rf"(?P<a>{_ENT}) works at (?P<b>{_ENT})\."), "worksAt", "works at", "Person", "Company"),
        (re.compile(rf"(?P<a>{_ENT}) knows (?P<b>{_ENT})\."), "knows", "knows", "Person", "Person"),
        (re.compile(rf"(?P<a>{_ENT}) is located in (?P<b>{_ENT})\."), "locatedIn", "located in", "Company", None),
        (re.compile(rf"(?P<a>{_ENT}) has skill (?P<b>{_ENT})\."), "hasSkill", "has skill", "Person", None),
    ]
    TYPE_RE = re.compile(rf"(?P<a>{_ENT}) is an? (?P<t>[a-z]+)\.")
    EMPLOYS_RE = re.compile(rf"(?P<a>{_ENT}) employs (?P<n>\d+) people\.")
    FILED_RE = re.compile(r"filed on (?P<d>\d{4}-\d{2}-\d{2})\.")

    def __init__(
        self,
        ontologies: list[OntologyView],
        domain: str = "https://example.com",
        min_select_overlap: int = 3,
    ):
        self.ontologies = ontologies
        self.domain = domain
        self.min_select_overlap = min_select_overlap
        self._onto_tokens = [
            (_tokens(o.title) | _tokens(o.description), o) for o in ontologies
        ]

    # -- L1: ontology selection (token-overlap scoring over the excerpt) ----
    def select_ontology(self, text: str) -> Optional[OntologyView]:
        excerpt_tokens = _tokens(text[:1000])  # ref select_ontology.py:57
        best, best_score = None, 0
        for tokens, view in self._onto_tokens:
            score = len(tokens & excerpt_tokens)
            if score > best_score:
                best, best_score = view, score
        if best is not None and best_score >= self.min_select_overlap:
            return best
        return None  # → NULL ontology (ref select_ontology.py:78-81)

    # -- L2+L4: render semantic graph (facts + novel-term definitions) ------
    def render_graph(
        self, text: str, chunk_ns: str, onto_ns: str, known_terms: set, terms: TermTable
    ) -> TripleGraph:
        """The chunk's triples as ids of ``terms``, in extraction order."""
        out: list = []
        uri, literal = terms.uri, terms.literal

        def ent(phrase: str) -> int:
            e = uri(chunk_ns + _local_name(phrase))
            out.append((e, LABEL, literal(phrase)))
            return e

        def ensure_class(local: str, label: str) -> int:
            c = uri(onto_ns + local)
            if label.lower() not in known_terms:
                out.append((c, TYPE, CLASS))
                out.append((c, LABEL, literal(label)))
            return c

        def ensure_property(local: str, label: str, dom: Optional[str], rng: Optional[str]) -> int:
            p = uri(onto_ns + local)
            if label.lower() not in known_terms:
                out.append((p, TYPE, PROPERTY))
                out.append((p, LABEL, literal(label)))
                if dom:
                    out.append((p, DOMAIN, uri(onto_ns + dom)))
                if rng:
                    out.append((p, RANGE, uri(onto_ns + rng)))
            return p

        for m in self.TYPE_RE.finditer(text):
            e = ent(m.group("a"))
            type_word = m.group("t")
            out.append((e, TYPE, ensure_class(_camel(type_word), type_word.capitalize())))

        for rx, local, label, dom, rng in self.RELATIONS:
            pred: Optional[int] = None
            for m in rx.finditer(text):
                if pred is None:
                    pred = ensure_property(local, label, dom, rng)
                a = ent(m.group("a"))
                out.append((a, pred, ent(m.group("b"))))

        emp_pred: Optional[int] = None
        for m in self.EMPLOYS_RE.finditer(text):
            if emp_pred is None:
                emp_pred = ensure_property("employeeCount", "employee count", "Company", None)
            a = ent(m.group("a"))
            out.append((a, emp_pred, literal(m.group("n"), _XSD_INTEGER)))

        filed_pred: Optional[int] = None
        for m in self.FILED_RE.finditer(text):
            if filed_pred is None:
                filed_pred = ensure_property("filedOn", "filed on", "Document", None)
            out.append((ent("Report"), filed_pred, literal(m.group("d"), _XSD_DATE)))

        g = TripleGraph().update(out)
        g.bind("cd", chunk_ns)
        return g

    # -- L3/L5: deterministic critics ---------------------------------------
    @staticmethod
    def critique_facts(facts: TripleGraph, chunk_ns: str, terms: TermTable) -> tuple[bool, float]:
        """Pass iff at least one chunk-namespace fact triple exists."""
        for s, _, _ in facts:
            if terms.lexical(s).startswith(chunk_ns):
                return True, 0.9
        return False, 0.0

    @staticmethod
    def critique_ontology(addendum: TripleGraph) -> tuple[bool, float]:
        """Deterministic pass (definitions are well-formed by construction)."""
        return True, 0.9

    # -- the full per-chunk loop (L1→L7) ------------------------------------
    def process_chunk(
        self,
        text: str,
        doc_iri: str,
        chunk_hid: str,
        max_visits: int = 3,
        extra_known: Optional[set] = None,
        terms: Optional[TermTable] = None,
    ) -> ChunkResult:
        """``extra_known``: term labels added by EARLIER chunks of the same
        document — the reference mutates the shared ontology manager
        mid-document so chunk i+1 sees chunk i's addendum (ref
        criticise_ontology.py:82-92); the caller threads this per-doc set.

        ``terms``: the table the result's graphs index; with None, they
        hold term objects (``ExtractorModel``'s protocol)."""
        decode = terms is None
        if decode:
            terms = TermTable()
        chunk_iri = f"{doc_iri}/chunk/{chunk_hid}"
        chunk_ns = iri2namespace(chunk_iri)

        selected = self.select_ontology(text)
        if selected is not None:
            onto_iri, onto_id = selected.iri, selected.ontology_id
            known = selected.known_terms
        else:
            doc_hid = doc_iri.rsplit("/", 1)[-1]
            onto_iri = f"{self.domain}/ontology/{doc_hid}"
            onto_id = f"onto_{doc_hid}"
            known = set()
        if extra_known:
            known = known | extra_known
        onto_ns = iri2namespace(onto_iri, ontology=True)

        status, failure_stage, score = "success", None, 0.0
        attempts = 0
        facts = TripleGraph()
        addendum = TripleGraph()
        for attempt in range(1, max_visits + 1):
            attempts = attempt
            graph = self.render_graph(text, chunk_ns, onto_ns, known, terms)
            ok_onto, onto_score = self.critique_ontology(graph)
            if not ok_onto:
                failure_stage, score = STAGE_ONTOLOGY_CRITIQUE, onto_score
                continue
            addendum, facts = sublimate_graph(graph, chunk_ns, terms)
            facts = validate_and_connect(facts, chunk_iri, auto_connect=True, terms=terms)
            ok_facts, facts_score = self.critique_facts(facts, chunk_ns, terms)
            score = facts_score
            if ok_facts:
                failure_stage = None
                break
            failure_stage = STAGE_FACTS_CRITIQUE
        else:
            # max_visits exhausted: force SUCCESS, keep partials (ref util.py:25-29)
            status = "success"

        if decode:
            facts, addendum = terms.decode_graph(facts), terms.decode_graph(addendum)
        return ChunkResult(
            facts=facts,
            ontology_addendum=addendum,
            ontology_id=onto_id,
            ontology_iri=onto_iri,
            status=status,
            success_score=score,
            failure_stage=failure_stage,
            attempts=attempts,
        )


def views_from_hub_snapshot(snapshot: dict) -> list[OntologyView]:
    """Hub snapshot → OntologyView list (labels of classes/properties as known terms)."""
    rdfs_label = str(RDFS.label)
    views = []
    for oid, entry in snapshot["ontologies"].items():
        meta = entry["meta"]
        known = set()
        for row in entry["triples"]:
            s, p, o, is_lit = row[0], row[1], row[2], row[3]
            if p == rdfs_label and is_lit:
                known.add(str(o).lower())
        views.append(
            OntologyView(
                ontology_id=oid,
                iri=meta.get("iri", ""),
                title=meta.get("title", ""),
                description=meta.get("description", ""),
                known_terms=known,
            )
        )
    return views


def status_graph(
    result: ChunkResult, chunk_iri: str, hub_version: int, terms: TermTable
) -> TripleGraph:
    """Chunk-level metrics as queryable triples (scope 'status'), as ids."""
    iri, uri, literal = terms.uri(chunk_iri), terms.uri, terms.literal
    g = TripleGraph()
    g.add((iri, uri(ENGINE_NS + "status"), literal(result.status)))
    g.add((iri, uri(ENGINE_NS + "successScore"), literal(repr(result.success_score), _XSD_DOUBLE)))
    g.add((iri, uri(ENGINE_NS + "attempts"), literal(str(result.attempts), _XSD_INTEGER)))
    g.add((iri, uri(ENGINE_NS + "ontologyUsed"), literal(result.ontology_id)))
    g.add((iri, uri(ENGINE_NS + "hubVersion"), literal(str(hub_version), _XSD_INTEGER)))
    if result.failure_stage:
        g.add((iri, uri(ENGINE_NS + "failureStage"), literal(result.failure_stage)))
    return g


class ExtractTriples:
    """The extractor model plus the ontology views it was built from.

    ``KGProcessDocs`` composes one per processor and runs the per-chunk
    loop itself. With a ``hub_name``, the views come from the OntologyHub's
    snapshot (its version is recorded per chunk for lineage) and ``_hub``
    holds the actor that the processor merges addenda into; otherwise they
    come from ``ontology_seeds`` and ``_hub`` is None.
    """

    def __init__(
        self,
        ontology_seeds: Optional[list[dict]] = None,
        hub_name: Optional[str] = None,
        domain: str = "https://example.com",
        max_visits: int = 3,
        extractor_factory=None,
    ):
        """``extractor_factory``: optional callable ``(views, domain) ->
        ExtractorModel`` — e.g. an LLMExtractor builder (stages/llm_extract.py).
        Default: the deterministic rule-based model."""
        self.max_visits = max_visits
        self._hub = None
        self._snapshot_version = -1
        views: list[OntologyView] = []
        if hub_name is not None:
            import ray

            self._hub = ray.get_actor(hub_name)
            snapshot = ray.get(self._hub.get_snapshot.remote())
            self._snapshot_version = snapshot["version"]
            views = views_from_hub_snapshot(snapshot)
        elif ontology_seeds:
            views = views_from_hub_snapshot(
                {"ontologies": {s["ontology_id"]: {"meta": s, "triples": s.get("triples", [])} for s in ontology_seeds}, "version": 0}
            )
        if extractor_factory is not None:
            self.extractor = extractor_factory(views, domain)
        else:
            self.extractor = DeterministicExtractor(views, domain=domain)
