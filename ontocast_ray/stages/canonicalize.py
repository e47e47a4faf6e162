"""Entity/predicate disambiguation + canonical URI minting (the aggregation core).

Rule-for-rule port of the reference's ``ChunkRDFGraphAggregator`` /
``EntityDisambiguator`` (/root/reference/ontocast/tool/aggregate.py:44-764),
operating on our TripleGraph of term ids. The reference semantics that MUST
hold (and are gated by goldens):

- per-document scope; chunks processed in chunk order (the greedy grouping is
  insertion-order dependent — ref aggregate.py:484-559);
- namespace union with ``{prefix}_{n}`` rename on collision (:91-104);
- entity metadata: labels/comments from rdfs:label/rdfs:comment, local name
  from ``derive_ontology_id`` (:444-482); predicate metadata incl.
  domain/range/explicit-Property (:648-690), longer-value-wins merge
  (:147-172);
- greedy similarity groups: type-conflict guard, exact case-insensitive
  local-name match first, else label fuzz.ratio ≥ 90 (shared types) / 85
  (:484-559); predicates require domain/range compatibility (:692-764);
- canonical IRI = doc_namespace + clean_local_name(best member's local name),
  best = longest label (entities, :561-592) / most metadata fields
  (predicates, :594-633), with ``_{counter}`` suffix on collision (:188-222);
- canonical metadata triples: best(longest) label, union of types, merged
  predicate info — doc-namespace predicates only (:275-362);
- chunk triples re-emitted with mappings applied, skipping triples whose
  subject == chunk IRI (:246-259); provenance ``chunk a prov:Entity``,
  ``chunk prov:wasPartOf doc`` (:239-243) and ``entity prov:wasGeneratedBy
  chunk`` for doc-namespace subjects (:262-265).

The kernel runs once per document inside ``pipelines.kg.KGProcessDocs``,
which folds the doc's chunk graphs in memory in chunk order: there is no
shuffle. Merging entities across documents is ``pipelines.crossdoc``'s.

Cost: the kernel runs on term ids of the call's ``TermTable``
(``rdf.table``): the vocabulary it dispatches on has fixed ids, and each
URI's local name is derived once per call. Each chunk graph is scanned
once (``scan_graph``), and the greedy grouping runs over per-entity arrays
computed once, with candidates pruned by an exact-name index, a
label-length band and a character-bag bound on the LCS (``_Candidates``).
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ontocast_ray.functions.fuzz import char_bag, ratio_at_least
from ontocast_ray.functions.uris import clean_local_name, derive_ontology_id, iri2namespace
from ontocast_ray.rdf.graph import TripleGraph
from ontocast_ray.rdf.namespaces import PROV
from ontocast_ray.rdf.table import (
    COMMENT, DOMAIN, LABEL, PROPERTY, PROV_ENTITY, RANGE, TYPE, WAS_GENERATED_BY, WAS_PART_OF,
    TermTable,
)


@dataclass(slots=True)
class EntityMetadata:
    local_name: str
    label: Optional[str] = None
    comment: Optional[str] = None
    types: Set = field(default_factory=set)


@dataclass(slots=True)
class PredicateMetadata:
    """``domain`` and ``range`` are terms of the graph scanned: ids in the
    kernel, term objects at the term-graph edge."""

    local_name: str
    label: Optional[str] = None
    comment: Optional[str] = None
    domain: Optional[object] = None
    range: Optional[object] = None
    is_explicit_property: bool = False


@dataclass
class ChunkGraph:
    """Minimal stand-in for the reference ``Chunk`` (ref onto.py:846-886)."""

    hid: str
    doc_iri: str
    graph: TripleGraph

    @property
    def iri(self) -> str:
        return f"{self.doc_iri}/chunk/{self.hid}"

    @property
    def namespace(self) -> str:
        return iri2namespace(self.iri, ontology=False)

    def sanitize(self) -> None:
        """ref onto.py:884-886: unbind /chunk/ prefixes + dedupe prefix map."""
        self.graph = self.graph.unbind_chunk_namespaces()
        self.graph.sanitize_prefixes_namespaces()


class EntityDisambiguator:
    """ref aggregate.py:401-764."""

    def __init__(self, similarity_threshold: float = 85.0, semantic_threshold: float = 90.0):
        self.similarity_threshold = similarity_threshold
        self.semantic_threshold = semantic_threshold

    def normalize_uri(self, uri, namespaces: Dict[str, str]) -> Tuple[str, str]:
        """Expand prefixed form; local name via derive_ontology_id (ref :427-442)."""
        uri_str = str(uri)
        for prefix, namespace in namespaces.items():
            if uri_str.startswith(f"{prefix}:"):
                full_uri = uri_str.replace(f"{prefix}:", str(namespace))
                return full_uri, derive_ontology_id(full_uri)
        return uri_str, derive_ontology_id(uri_str)

    def scan_graph(
        self, graph: TripleGraph, terms: Optional[TermTable] = None
    ) -> Tuple[Dict[int, EntityMetadata], Dict[int, Set[int]], Dict[int, PredicateMetadata]]:
        """One pass over a chunk graph of ``terms`` ids → (entities, types,
        predicates). With ``terms`` None, the graph and the result hold
        term objects.

        - entities (ref :444-482): every URI subject or object, keyed by its
          normalized form. Those with an rdfs:label/comment literal come
          first, in the order of their first such triple (the last one
          wins), then the rest in order of first mention.
        - types (ref :113-172): the URI objects of each URI subject's
          rdf:type triples, keyed by the subject as written.
        - predicates (ref :648-690): every URI predicate in order of first
          use, with the label, comment, domain, range and rdf:Property
          facts stated about it anywhere in the graph (the last one wins).
        """
        if terms is None:
            terms = TermTable()
            return _decode_scan(terms, self.scan_graph(terms.encode_graph(graph), terms))
        is_uri, is_literal, value = terms.is_uri, terms.is_literal, terms.value
        # An id stands for its normalized form unless a prefixed form expands.
        namespaces = dict(graph.namespaces())
        expanded: Dict[int, int] = {}
        if namespaces:
            for i in {i for t in graph for i in t if is_uri[i]}:
                full_uri, _ = self.normalize_uri(value[i], namespaces)
                if full_uri != value[i]:
                    expanded[i] = terms.uri(full_uri)
        ref = expanded.get

        texts: Dict[int, list] = {}  # entity → [label, comment]
        mentioned: Dict[int, None] = {}
        types: Dict[int, Set[int]] = {}
        used: Dict[int, None] = {}  # predicates
        stated: list = []  # (subject, vocabulary id, object): maybe about a predicate
        for subj, pred, obj in graph:
            if is_uri[pred]:
                used[ref(pred, pred)] = None
            if is_uri[subj]:
                uri_ref = ref(subj, subj)
                mentioned[uri_ref] = None
                if pred == LABEL or pred == COMMENT:
                    if is_literal[obj]:
                        text = texts.get(uri_ref)
                        if text is None:
                            text = texts[uri_ref] = [None, None]
                        text[pred == COMMENT] = value[obj]
                        stated.append((uri_ref, pred, obj))
                elif pred == TYPE:
                    if is_uri[obj]:
                        types.setdefault(subj, set()).add(obj)
                        if obj == PROPERTY:
                            stated.append((uri_ref, pred, obj))
                elif pred == DOMAIN or pred == RANGE:
                    stated.append((uri_ref, pred, obj))
            if is_uri[obj]:
                mentioned[ref(obj, obj)] = None

        local = terms.local
        entities = {i: EntityMetadata(local(i), label, comment)
                    for i, (label, comment) in texts.items()}
        for i in mentioned:
            if i not in entities:
                entities[i] = EntityMetadata(local(i))
        predicates = {i: PredicateMetadata(local(i)) for i in used}
        for uri_ref, kind, obj in stated:
            info = predicates.get(uri_ref)
            if info is None:
                continue
            if kind == TYPE:
                info.is_explicit_property = True
            elif kind == LABEL:
                info.label = value[obj]
            elif kind == COMMENT:
                info.comment = value[obj]
            elif kind == DOMAIN:
                info.domain = obj
            else:
                info.range = obj
        return entities, types, predicates

    def extract_entity_labels(self, graph: TripleGraph) -> Dict[object, EntityMetadata]:
        """ref :444-482 — the entities of ``scan_graph`` (term objects)."""
        return self.scan_graph(graph)[0]

    def find_similar_entities(
        self,
        entities_with_labels: Dict[object, EntityMetadata],
        entity_types: Optional[Dict[object, Set[object]]] = None,
    ) -> List[list]:
        """Greedy single-pass grouping (ref :484-559).

        Each entity not yet grouped, in insertion order, takes every later
        ungrouped entity that is type-compatible (either side untyped, or a
        shared type) and either has the same local name, case-insensitively,
        or a label within fuzz.ratio of the threshold (semantic when they
        share a type, else similarity). Lowered names, lowered labels and
        type sets are computed once per entity; ``_Candidates`` only prunes
        the later entities that cannot pass."""
        if entity_types is None:
            entity_types = {}
        keys = list(entities_with_labels)
        metas = entities_with_labels.values()
        names = [m.local_name.lower() for m in metas]
        labels = [m.label.lower() if m.label else None for m in metas]
        untyped: set = set()
        types = [entity_types.get(k, untyped) for k in keys]
        candidates = _Candidates(
            names, labels, min(self.similarity_threshold, self.semantic_threshold)
        )
        grouped = [False] * len(keys)
        entity_groups: List[list] = []
        for i, name1 in enumerate(names):
            if grouped[i]:
                continue
            grouped[i] = True
            group = [i]
            types1 = types[i]
            for j in candidates.after(i):
                if grouped[j]:
                    continue
                types2 = types[j]
                if types1 and types2:
                    if types1.isdisjoint(types2):
                        continue
                    threshold = self.semantic_threshold
                else:
                    threshold = self.similarity_threshold
                if names[j] == name1 or candidates.similar(i, j, threshold):
                    group.append(j)
                    grouped[j] = True
            if len(group) > 1:
                entity_groups.append([keys[k] for k in group])
        return entity_groups

    def find_similar_predicates(
        self, predicates_with_info: Dict[object, PredicateMetadata]
    ) -> List[list]:
        """ref :692-751: the greedy grouping of ``find_similar_entities``,
        where the same local name or a label at the similarity threshold
        merges only domain/range-compatible predicates, and a same-name
        pair that is not compatible is not tried on its labels."""
        keys = list(predicates_with_info)
        infos = list(predicates_with_info.values())
        names = [p.local_name.lower() for p in infos]
        labels = [p.label.lower() if p.label is not None else None for p in infos]
        candidates = _Candidates(names, labels, self.similarity_threshold)
        grouped = [False] * len(keys)
        predicate_groups: List[list] = []
        for i, name1 in enumerate(names):
            if grouped[i]:
                continue
            grouped[i] = True
            group = [i]
            for j in candidates.after(i):
                if grouped[j]:
                    continue
                if names[j] == name1 or candidates.similar(i, j, self.similarity_threshold):
                    if self._check_domain_range_compatibility(infos[i], infos[j]):
                        group.append(j)
                        grouped[j] = True
            if len(group) > 1:
                predicate_groups.append([keys[k] for k in group])
        return predicate_groups

    def _check_domain_range_compatibility(
        self, info1: PredicateMetadata, info2: PredicateMetadata
    ) -> bool:
        """Equal-or-either-None on both domain and range (ref :753-764)."""
        domain_compatible = (
            info1.domain == info2.domain or info1.domain is None or info2.domain is None
        )
        range_compatible = (
            info1.range == info2.range or info1.range is None or info2.range is None
        )
        return domain_compatible and range_compatible

    def create_canonical_iri(
        self, similar_entities: list, doc_namespace: str,
        entity_labels: Dict[object, EntityMetadata],
    ) -> str:
        """Longest-label member wins; mint in doc namespace (ref :561-592)."""
        best = max(similar_entities, key=lambda e: len(entity_labels[e].label or ""))
        return f"{doc_namespace}{clean_local_name(entity_labels[best].local_name)}"

    def create_canonical_predicate(
        self, similar_predicates: list, doc_namespace: str,
        predicate_info: Dict[object, PredicateMetadata],
    ) -> str:
        """Most-metadata member wins (ref :594-633)."""
        def filled(p) -> int:
            info = predicate_info[p]
            return sum(v is not None for v in (info.label, info.comment, info.domain, info.range))

        best = max(similar_predicates, key=filled)
        return f"{doc_namespace}{clean_local_name(predicate_info[best].local_name)}"


def _decode_scan(terms: TermTable, scan: tuple) -> tuple:
    """``scan_graph``'s result with its ids decoded to term objects."""
    labeled, types, predicates = scan
    dec = terms.decode
    for info in predicates.values():
        if info.domain is not None:
            info.domain = dec(info.domain)
        if info.range is not None:
            info.range = dec(info.range)
    return (
        {dec(i): meta for i, meta in labeled.items()},
        {dec(i): {dec(t) for t in objs} for i, objs in types.items()},
        {dec(i): info for i, info in predicates.items()},
    )


def _merge_predicate(merged: PredicateMetadata, info: PredicateMetadata, lexical) -> None:
    """Fold ``info`` into ``merged`` (ref :147-172, :594-633): a field
    ``merged`` lacks is taken, a longer value replaces it (terms compare
    by their string form, ``lexical`` of the id), and rdf:Property sticks."""
    for key in ("label", "comment"):
        new, cur = getattr(info, key), getattr(merged, key)
        if new is not None and (cur is None or len(new) > len(cur)):
            setattr(merged, key, new)
    for key in ("domain", "range"):
        new, cur = getattr(info, key), getattr(merged, key)
        if new is not None and (cur is None or len(lexical(new)) > len(lexical(cur))):
            setattr(merged, key, new)
    if info.is_explicit_property:
        merged.is_explicit_property = True


def _length_band(length: int, threshold: float) -> Tuple[float, float]:
    """The label lengths ``m`` for which fuzz.ratio against a label of
    ``length`` can reach ``threshold``: the ratio is at most
    200·min(length, m)/(length + m), as in ``ratio_at_least``. Widened by
    one on each side, so float rounding never drops a candidate."""
    if threshold <= 0:
        return 0, float("inf")
    if threshold >= 200:
        return 1, 0
    return (
        math.floor(length * threshold / (200 - threshold)) - 1,
        math.ceil(length * (200 - threshold) / threshold) + 1,
    )


class _Candidates:
    """The later members that could join member ``i``'s greedy group: those
    with the same lowered local name (an exact index), and those whose
    lowered label length lies in ``_length_band`` (a bisect over the labels
    sorted by length; ``None`` labels take no part). A superset: the
    caller's exact tests decide, the fuzzy one through ``similar``.
    Ascending, so a group is filled in insertion order."""

    def __init__(self, names: List[str], labels: List[Optional[str]], threshold: float):
        self.names, self.labels, self.threshold = names, labels, threshold
        self.by_name: Dict[str, List[int]] = {}
        for i, name in enumerate(names):
            self.by_name.setdefault(name, []).append(i)
        by_length = sorted((len(label), i) for i, label in enumerate(labels) if label is not None)
        self.lengths = [n for n, _ in by_length]
        self.order = [i for _, i in by_length]

    def after(self, i: int) -> List[int]:
        same_name = self.by_name[self.names[i]]
        label = self.labels[i]
        if label is None:
            return [j for j in same_name if j > i]
        lo, hi = _length_band(len(label), self.threshold)
        lengths = self.lengths
        band = self.order[bisect.bisect_left(lengths, lo):bisect.bisect_right(lengths, hi)]
        return sorted({j for j in band if j > i}.union(j for j in same_name if j > i))

    def similar(self, i: int, j: int, threshold: float) -> bool:
        """Both labels are given and ``fuzz.ratio(labels[i], labels[j]) >=
        threshold``, exactly. The characters the labels share
        (``char_bag``) bound their LCS from above, so a pair that bound
        rules out skips the LCS."""
        label1, label2 = self.labels[i], self.labels[j]
        if label1 is None or label2 is None:
            return False
        total = len(label1) + len(label2)
        (code1, over1), (code2, over2) = char_bag(label1), char_bag(label2)
        shared = (code1 & code2).bit_count() + over1 + over2
        if total and 200.0 * shared / total < threshold:
            return False
        return ratio_at_least(label1, label2, threshold)


class ChunkGraphAggregator:
    """ref aggregate.py:44-398 — aggregate chunk graphs into one doc graph."""

    def __init__(self, similarity_threshold: float = 85.0, semantic_threshold: float = 90.0):
        self.disambiguator = EntityDisambiguator(similarity_threshold, semantic_threshold)

    def aggregate_graphs(
        self, chunks: List[ChunkGraph], doc_namespace: str, terms: Optional[TermTable] = None
    ) -> TripleGraph:
        """The doc graph of ``chunks``, whose graphs hold ids of ``terms``.
        With ``terms`` None they hold term objects, and so does the result."""
        decode = terms is None
        if decode:
            terms = TermTable()
            chunks = [ChunkGraph(c.hid, c.doc_iri, terms.encode_graph(c.graph)) for c in chunks]
        aggregated_graph = TripleGraph()

        if not doc_namespace.endswith(("/", "#")):
            doc_namespace = doc_namespace + "/"

        # Namespace union with collision rename {prefix}_{n} (ref :91-104)
        all_namespaces: Dict[str, str] = {}
        for chunk in chunks:
            for prefix, uri in chunk.graph.namespaces():
                if prefix not in all_namespaces:
                    all_namespaces[prefix] = uri
                elif all_namespaces[prefix] != uri:
                    new_prefix = f"{prefix}_{len(all_namespaces)}"
                    all_namespaces[new_prefix] = uri
        for prefix, uri in all_namespaces.items():
            aggregated_graph.bind(prefix, uri)
        aggregated_graph.bind("prov", str(PROV))
        aggregated_graph.bind("cd", doc_namespace)

        # First pass: collect entities/predicates/types across chunks (ref :113-172)
        all_entities_with_labels: Dict[int, EntityMetadata] = {}
        all_predicates_with_info: Dict[int, PredicateMetadata] = {}
        entity_types: Dict[int, Set[int]] = {}

        for chunk in chunks:
            entities_labels, types, predicates_info = self.disambiguator.scan_graph(
                chunk.graph, terms
            )
            all_entities_with_labels.update(entities_labels)
            for subj, objs in types.items():
                entity_types.setdefault(subj, set()).update(objs)
            for pred, info in predicates_info.items():
                existing_info = all_predicates_with_info.get(pred)
                if existing_info is None:
                    all_predicates_with_info[pred] = info
                else:
                    _merge_predicate(existing_info, info, terms.lexical)

        similar_entity_groups = self.disambiguator.find_similar_entities(
            all_entities_with_labels, entity_types
        )
        similar_predicate_groups = self.disambiguator.find_similar_predicates(
            all_predicates_with_info
        )

        # Canonical mappings with _{counter} uniqueness (ref :184-222)
        entity_mapping = self._canonical_mapping(
            similar_entity_groups, doc_namespace, terms, lambda group: (
                self.disambiguator.create_canonical_iri(
                    group, doc_namespace, all_entities_with_labels)))
        predicate_mapping = self._canonical_mapping(
            similar_predicate_groups, doc_namespace, terms, lambda group: (
                self.disambiguator.create_canonical_predicate(
                    group, doc_namespace, all_predicates_with_info)))

        self._add_canonical_metadata(
            aggregated_graph,
            doc_namespace,
            terms,
            entity_mapping,
            predicate_mapping,
            all_entities_with_labels,
            all_predicates_with_info,
            entity_types,
        )

        # Re-emit chunk triples with mappings + provenance (ref :234-265).
        # The mappings' keys are all URIs, so a literal object never maps.
        is_uri, value = terms.is_uri, terms.value
        doc_uri = terms.uri(doc_namespace.rstrip("#/"))
        for chunk in chunks:
            chunk_iri = terms.uri(chunk.iri)
            emitted = [(chunk_iri, TYPE, PROV_ENTITY), (chunk_iri, WAS_PART_OF, doc_uri)]
            for subj, pred, obj in chunk.graph:
                if subj == chunk_iri:
                    continue
                new_subj = entity_mapping.get(subj, subj)
                emitted.append(
                    (new_subj, predicate_mapping.get(pred, pred), entity_mapping.get(obj, obj)))
                if is_uri[new_subj] and value[new_subj].startswith(doc_namespace):
                    emitted.append((new_subj, WAS_GENERATED_BY, chunk_iri))
            aggregated_graph.update(emitted)

        return terms.decode_graph(aggregated_graph) if decode else aggregated_graph

    @staticmethod
    def _canonical_mapping(groups: List[list], doc_namespace: str, terms: TermTable,
                           mint) -> Dict[int, int]:
        """member → canonical id, ``mint(group)``'s IRI made unique with a
        ``_{counter}`` suffix (ref :184-222)."""
        mapping: Dict[int, int] = {}
        minted: set = set()
        for group in groups:
            canonical = base = mint(group)
            counter = 1
            while canonical in minted:
                local_name = base.split(doc_namespace)[-1]
                canonical = f"{doc_namespace}{local_name}_{counter}"
                counter += 1
            minted.add(canonical)
            canonical_id = terms.uri(canonical)
            for member in group:
                mapping[member] = canonical_id
        return mapping

    def _add_canonical_metadata(
        self,
        graph: TripleGraph,
        doc_namespace: str,
        terms: TermTable,
        entity_mapping: Dict[int, int],
        predicate_mapping: Dict[int, int],
        entity_labels: Dict[int, EntityMetadata],
        predicate_info: Dict[int, PredicateMetadata],
        entity_types: Dict[int, Set[int]],
    ) -> None:
        """ref :275-362. ``doc_namespace`` replaces the 'cd'-binding lookup.
        Types are emitted sorted by their IRI."""
        value, lexical, literal = terms.value, terms.lexical, terms.literal
        by_iri = value.__getitem__
        out: list = []

        canonical_to_originals: Dict[int, List[int]] = {}
        for original, canonical in entity_mapping.items():
            canonical_to_originals.setdefault(canonical, []).append(original)

        for canonical, originals in canonical_to_originals.items():
            best_label = self._get_best_label([entity_labels.get(o) for o in originals])
            if best_label:
                out.append((canonical, LABEL, literal(best_label)))
            all_types: Set[int] = set()
            for orig in originals:
                all_types.update(entity_types.get(orig, ()))
            out.extend((canonical, TYPE, t) for t in sorted(all_types, key=by_iri))

        # ref :309 unions two dict key-sets; preserve insertion order instead
        for entity in dict.fromkeys([*entity_labels, *entity_types]):
            if entity not in entity_mapping:
                meta = entity_labels.get(entity)
                if meta is not None and meta.label is not None:
                    out.append((entity, LABEL, literal(meta.label)))
                if entity in entity_types:
                    out.extend((entity, TYPE, t) for t in sorted(entity_types[entity], key=by_iri))

        def describe(predicate: int, info: PredicateMetadata) -> None:
            if info.label:
                out.append((predicate, LABEL, literal(info.label)))
            if info.comment:
                out.append((predicate, COMMENT, literal(info.comment)))
            if info.domain is not None and lexical(info.domain):
                out.append((predicate, DOMAIN, info.domain))
            if info.range is not None and lexical(info.range):
                out.append((predicate, RANGE, info.range))
            if info.is_explicit_property:
                out.append((predicate, TYPE, PROPERTY))

        canonical_pred_to_originals: Dict[int, List[int]] = {}
        for original, canonical in predicate_mapping.items():
            if value[canonical].startswith(doc_namespace):
                canonical_pred_to_originals.setdefault(canonical, []).append(original)

        for canonical, originals in canonical_pred_to_originals.items():
            merged = PredicateMetadata(local_name="")
            for original in originals:
                _merge_predicate(merged, predicate_info[original], lexical)
            describe(canonical, merged)

        for predicate, info in predicate_info.items():
            if value[predicate].startswith(doc_namespace) and predicate not in predicate_mapping:
                describe(predicate, info)
        graph.update(out)

    @staticmethod
    def _get_best_label(label_dicts: List[Optional[EntityMetadata]]) -> Optional[str]:
        labels = [d.label for d in label_dicts if d is not None and d.label is not None]
        if not labels:
            return None
        return max(labels, key=len)
