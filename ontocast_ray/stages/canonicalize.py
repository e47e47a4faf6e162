"""Entity/predicate disambiguation + canonical URI minting (the aggregation core).

Rule-for-rule port of the reference's ``ChunkRDFGraphAggregator`` /
``EntityDisambiguator`` (/root/reference/ontocast/tool/aggregate.py:44-764),
operating on our TripleGraph. The reference semantics that MUST hold (and are
gated by goldens):

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

Cost: each chunk graph is scanned once (``scan_graph``); the vocabulary
terms it dispatches on are interned objects (``rdf.namespaces``), so dict
probes match by identity; and the greedy grouping runs over per-entity
arrays computed once, with candidates pruned by an exact-name index, a
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
from ontocast_ray.rdf.namespaces import PROV, RDF, RDFS
from ontocast_ray.rdf.terms import Literal, URI

# The vocabulary terms the scans dispatch on: one interned object each, the
# same objects the extractor and the Turtle parser put into chunk graphs, so
# ``_VOCAB.get(pred)`` mostly matches by identity.
_LABEL, _COMMENT, _DOMAIN, _RANGE = RDFS.label, RDFS.comment, RDFS.domain, RDFS.range
_TYPE, _PROPERTY = RDF.type, RDF.Property
_VOCAB = {term: term for term in (_LABEL, _COMMENT, _DOMAIN, _RANGE, _TYPE)}
_PROV_ENTITY, _WAS_PART_OF, _WAS_GENERATED_BY = PROV.Entity, PROV.wasPartOf, PROV.wasGeneratedBy


@dataclass
class EntityMetadata:
    local_name: str
    label: Optional[str] = None
    comment: Optional[str] = None
    types: Set[URI] = field(default_factory=set)


@dataclass
class PredicateMetadata:
    local_name: str
    label: Optional[str] = None
    comment: Optional[str] = None
    domain: Optional[URI] = None
    range: Optional[URI] = None
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
        self, graph: TripleGraph
    ) -> Tuple[Dict[URI, EntityMetadata], Dict[URI, Set[URI]], Dict[URI, PredicateMetadata]]:
        """One pass over a chunk graph → (entities, types, predicates).

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
        namespaces = dict(graph.namespaces())
        memo: dict = {}

        def norm(term: URI) -> Tuple[URI, str]:
            # The term object itself stands for its normalized form unless a
            # prefixed form was expanded.
            full_uri, local_name = self.normalize_uri(term, namespaces)
            out = memo[term] = (term if full_uri == str(term) else URI(full_uri), local_name)
            return out

        labeled: Dict[URI, EntityMetadata] = {}
        mentioned: Dict[URI, str] = {}
        types: Dict[URI, Set[URI]] = {}
        predicates: Dict[URI, PredicateMetadata] = {}
        stated: list = []  # (subject, vocabulary term, object): maybe about a predicate
        for subj, pred, obj in graph:
            if isinstance(pred, URI):
                uri_ref, local_name = memo.get(pred) or norm(pred)
                if uri_ref not in predicates:
                    predicates[uri_ref] = PredicateMetadata(local_name=local_name)
            if isinstance(subj, URI):
                uri_ref, local_name = memo.get(subj) or norm(subj)
                if uri_ref not in mentioned:
                    mentioned[uri_ref] = local_name
                kind = _VOCAB.get(pred)
                if kind is _LABEL or kind is _COMMENT:
                    if isinstance(obj, Literal):
                        meta = labeled.get(uri_ref)
                        if meta is None:
                            meta = labeled[uri_ref] = EntityMetadata(local_name=local_name)
                        if kind is _LABEL:
                            meta.label = str(obj)
                        else:
                            meta.comment = str(obj)
                        stated.append((uri_ref, kind, obj))
                elif kind is _TYPE:
                    if isinstance(obj, URI):
                        types.setdefault(subj, set()).add(obj)
                        if obj == _PROPERTY:
                            stated.append((uri_ref, kind, obj))
                elif kind is not None:
                    stated.append((uri_ref, kind, obj))
            if isinstance(obj, URI):
                uri_ref, local_name = memo.get(obj) or norm(obj)
                if uri_ref not in mentioned:
                    mentioned[uri_ref] = local_name

        for uri_ref, local_name in mentioned.items():
            if uri_ref not in labeled:
                labeled[uri_ref] = EntityMetadata(local_name=local_name)
        for uri_ref, kind, obj in stated:
            info = predicates.get(uri_ref)
            if info is None:
                continue
            if kind is _TYPE:
                info.is_explicit_property = True
            elif kind is _LABEL:
                info.label = str(obj)
            elif kind is _COMMENT:
                info.comment = str(obj)
            elif kind is _DOMAIN:
                info.domain = obj
            else:
                info.range = obj
        return labeled, types, predicates

    def extract_entity_labels(self, graph: TripleGraph) -> Dict[URI, EntityMetadata]:
        """ref :444-482 — the entities of ``scan_graph``."""
        return self.scan_graph(graph)[0]

    def find_similar_entities(
        self,
        entities_with_labels: Dict[URI, EntityMetadata],
        entity_types: Optional[Dict[URI, Set[URI]]] = None,
    ) -> List[List[URI]]:
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
        untyped: Set[URI] = set()
        types = [entity_types.get(k, untyped) for k in keys]
        candidates = _Candidates(
            names, labels, min(self.similarity_threshold, self.semantic_threshold)
        )
        grouped = [False] * len(keys)
        entity_groups: List[List[URI]] = []
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
        self, predicates_with_info: Dict[URI, PredicateMetadata]
    ) -> List[List[URI]]:
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
        predicate_groups: List[List[URI]] = []
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
        self,
        similar_entities: List[URI],
        doc_namespace: str,
        entity_labels: Dict[URI, EntityMetadata],
    ) -> URI:
        """Longest-label member wins; mint in doc namespace (ref :561-592)."""
        best_entity = max(
            similar_entities,
            key=lambda e: len(entity_labels.get(e, EntityMetadata(local_name="")).label or ""),
        )
        best_info = entity_labels.get(
            best_entity, EntityMetadata(local_name=derive_ontology_id(str(best_entity)))
        )
        return URI(f"{doc_namespace}{clean_local_name(best_info.local_name)}")

    def create_canonical_predicate(
        self,
        similar_predicates: List[URI],
        doc_namespace: str,
        predicate_info: Dict[URI, PredicateMetadata],
    ) -> URI:
        """Most-metadata member wins (ref :594-633)."""
        best_pred = max(
            similar_predicates,
            key=lambda p: sum(
                1
                for v in [
                    predicate_info.get(p, PredicateMetadata(local_name="")).label,
                    predicate_info.get(p, PredicateMetadata(local_name="")).comment,
                    predicate_info.get(p, PredicateMetadata(local_name="")).domain,
                    predicate_info.get(p, PredicateMetadata(local_name="")).range,
                ]
                if v is not None
            ),
        )
        best_info = predicate_info.get(
            best_pred, PredicateMetadata(local_name=derive_ontology_id(str(best_pred)))
        )
        return URI(f"{doc_namespace}{clean_local_name(best_info.local_name)}")


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
        self.bags = [char_bag(label) if label is not None else (0, 0) for label in labels]

    def after(self, i: int) -> List[int]:
        found = {j for j in self.by_name[self.names[i]] if j > i}
        label = self.labels[i]
        if label is not None:
            lo, hi = _length_band(len(label), self.threshold)
            lengths = self.lengths
            band = self.order[bisect.bisect_left(lengths, lo):bisect.bisect_right(lengths, hi)]
            found.update(j for j in band if j > i)
        return sorted(found)

    def similar(self, i: int, j: int, threshold: float) -> bool:
        """Both labels are given and ``fuzz.ratio(labels[i], labels[j]) >=
        threshold``, exactly. The characters the labels share
        (``char_bag``) bound their LCS from above, so a pair that bound
        rules out skips the LCS."""
        label1, label2 = self.labels[i], self.labels[j]
        if label1 is None or label2 is None:
            return False
        total = len(label1) + len(label2)
        (code1, over1), (code2, over2) = self.bags[i], self.bags[j]
        shared = (code1 & code2).bit_count() + over1 + over2
        if total and 200.0 * shared / total < threshold:
            return False
        return ratio_at_least(label1, label2, threshold)


class ChunkGraphAggregator:
    """ref aggregate.py:44-398 — aggregate chunk graphs into one doc graph."""

    def __init__(self, similarity_threshold: float = 85.0, semantic_threshold: float = 90.0):
        self.disambiguator = EntityDisambiguator(similarity_threshold, semantic_threshold)

    def aggregate_graphs(self, chunks: List[ChunkGraph], doc_namespace: str) -> TripleGraph:
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
        all_entities_with_labels: Dict[URI, EntityMetadata] = {}
        all_predicates_with_info: Dict[URI, PredicateMetadata] = {}
        entity_types: Dict[URI, Set[URI]] = {}

        for chunk in chunks:
            entities_labels, types, predicates_info = self.disambiguator.scan_graph(chunk.graph)
            all_entities_with_labels.update(entities_labels)
            for subj, objs in types.items():
                entity_types.setdefault(subj, set()).update(objs)
            for pred, info in predicates_info.items():
                if pred not in all_predicates_with_info:
                    all_predicates_with_info[pred] = info
                else:
                    existing_info = all_predicates_with_info[pred]
                    for key in ("label", "comment", "domain", "range"):
                        new_val = getattr(info, key)
                        cur_val = getattr(existing_info, key)
                        if cur_val is None and new_val is not None:
                            setattr(existing_info, key, new_val)
                        elif (
                            cur_val is not None
                            and new_val is not None
                            and isinstance(new_val, str)
                            and len(str(new_val)) > len(str(cur_val))
                        ):
                            setattr(existing_info, key, new_val)
                    if info.is_explicit_property:
                        existing_info.is_explicit_property = True

        similar_entity_groups = self.disambiguator.find_similar_entities(
            all_entities_with_labels, entity_types
        )
        similar_predicate_groups = self.disambiguator.find_similar_predicates(
            all_predicates_with_info
        )

        # Canonical mappings with _{counter} uniqueness (ref :184-222)
        entity_mapping: Dict[URI, URI] = {}
        canonical_entities: set = set()
        for group in similar_entity_groups:
            canonical_uri = self.disambiguator.create_canonical_iri(
                group, doc_namespace, all_entities_with_labels
            )
            base_canonical = canonical_uri
            counter = 1
            while canonical_uri in canonical_entities:
                local_name = str(base_canonical).split(doc_namespace)[-1]
                canonical_uri = URI(f"{doc_namespace}{local_name}_{counter}")
                counter += 1
            canonical_entities.add(canonical_uri)
            for entity in group:
                entity_mapping[entity] = canonical_uri

        predicate_mapping: Dict[URI, URI] = {}
        canonical_predicates: set = set()
        for group in similar_predicate_groups:
            canonical_uri = self.disambiguator.create_canonical_predicate(
                group, doc_namespace, all_predicates_with_info
            )
            base_canonical = canonical_uri
            counter = 1
            while canonical_uri in canonical_predicates:
                local_name = str(base_canonical).split(doc_namespace)[-1]
                canonical_uri = URI(f"{doc_namespace}{local_name}_{counter}")
                counter += 1
            canonical_predicates.add(canonical_uri)
            for predicate in group:
                predicate_mapping[predicate] = canonical_uri

        self._add_canonical_metadata(
            aggregated_graph,
            doc_namespace,
            entity_mapping,
            predicate_mapping,
            all_entities_with_labels,
            all_predicates_with_info,
            entity_types,
        )

        # Re-emit chunk triples with mappings + provenance (ref :234-265)
        doc_uri = URI(doc_namespace.rstrip("#/"))
        for chunk in chunks:
            chunk_iri = URI(chunk.iri)
            # a set probe hashes natively and calls URI.__eq__ only when the
            # lexical forms match
            chunk_only = {chunk_iri}
            emitted = [(chunk_iri, _TYPE, _PROV_ENTITY), (chunk_iri, _WAS_PART_OF, doc_uri)]
            for subj, pred, obj in chunk.graph:
                if subj in chunk_only:
                    continue
                new_subj = entity_mapping.get(subj, subj)
                new_pred = predicate_mapping.get(pred, pred)
                new_obj = entity_mapping.get(obj, obj) if isinstance(obj, URI) else obj
                emitted.append((new_subj, new_pred, new_obj))
                if isinstance(new_subj, URI) and new_subj.startswith(doc_namespace):
                    emitted.append((new_subj, _WAS_GENERATED_BY, chunk_iri))
            aggregated_graph.update(emitted)

        return aggregated_graph

    def _add_canonical_metadata(
        self,
        graph: TripleGraph,
        doc_namespace: str,
        entity_mapping: Dict[URI, URI],
        predicate_mapping: Dict[URI, URI],
        entity_labels: Dict[URI, EntityMetadata],
        predicate_info: Dict[URI, PredicateMetadata],
        entity_types: Dict[URI, Set[URI]],
    ) -> None:
        """ref :275-362. ``doc_namespace`` replaces the 'cd'-binding lookup."""
        canonical_to_originals: Dict[URI, List[URI]] = {}
        for original, canonical in entity_mapping.items():
            canonical_to_originals.setdefault(canonical, []).append(original)

        for canonical, originals in canonical_to_originals.items():
            best_label = self._get_best_label([entity_labels.get(o) for o in originals])
            if best_label:
                graph.add((canonical, _LABEL, Literal(best_label)))
            all_types: Set[URI] = set()
            for orig in originals:
                all_types.update(entity_types.get(orig, set()))
            for type_uri in sorted(all_types):  # deterministic emit order
                graph.add((canonical, _TYPE, type_uri))

        processed_entities = set(entity_mapping.keys())
        # ref :309 unions two dict key-sets; preserve insertion order instead
        all_entities: Dict[URI, None] = {}
        for e in entity_labels:
            all_entities.setdefault(e, None)
        for e in entity_types:
            all_entities.setdefault(e, None)

        for entity in all_entities:
            if entity not in processed_entities:
                meta = entity_labels.get(entity)
                if meta is not None and meta.label is not None:
                    graph.add((entity, _LABEL, Literal(meta.label)))
                if entity in entity_types:
                    for type_uri in sorted(entity_types[entity]):
                        graph.add((entity, _TYPE, type_uri))

        canonical_pred_to_originals: Dict[URI, List[URI]] = {}
        for original, canonical in predicate_mapping.items():
            if str(canonical).startswith(doc_namespace):
                canonical_pred_to_originals.setdefault(canonical, []).append(original)

        for canonical, originals in canonical_pred_to_originals.items():
            merged_info = self._merge_predicate_info(
                [predicate_info.get(o) for o in originals]
            )
            if merged_info.label:
                graph.add((canonical, _LABEL, Literal(merged_info.label)))
            if merged_info.comment:
                graph.add((canonical, _COMMENT, Literal(merged_info.comment)))
            if merged_info.domain:
                graph.add((canonical, _DOMAIN, merged_info.domain))
            if merged_info.range:
                graph.add((canonical, _RANGE, merged_info.range))
            if merged_info.is_explicit_property:
                graph.add((canonical, _TYPE, _PROPERTY))

        processed_predicates = set(predicate_mapping.keys())
        for predicate, info in predicate_info.items():
            if str(predicate).startswith(doc_namespace) and predicate not in processed_predicates:
                if info.label:
                    graph.add((predicate, _LABEL, Literal(info.label)))
                if info.comment:
                    graph.add((predicate, _COMMENT, Literal(info.comment)))
                if info.domain:
                    graph.add((predicate, _DOMAIN, info.domain))
                if info.range:
                    graph.add((predicate, _RANGE, info.range))
                if info.is_explicit_property:
                    graph.add((predicate, _TYPE, _PROPERTY))

    @staticmethod
    def _get_best_label(label_dicts: List[Optional[EntityMetadata]]) -> Optional[str]:
        labels = [d.label for d in label_dicts if d is not None and d.label is not None]
        if not labels:
            return None
        return max(labels, key=len)

    @staticmethod
    def _merge_predicate_info(info_dicts: List[Optional[PredicateMetadata]]) -> PredicateMetadata:
        merged = PredicateMetadata(local_name="", is_explicit_property=False)
        for info in info_dicts:
            if info is None:
                continue
            for key in ("label", "comment", "domain", "range"):
                current_value = getattr(merged, key)
                new_value = getattr(info, key)
                if current_value is None and new_value is not None:
                    setattr(merged, key, new_value)
                elif (
                    current_value is not None
                    and new_value is not None
                    and isinstance(new_value, str)
                    and len(new_value) > len(str(current_value))
                ):
                    setattr(merged, key, new_value)
            if info.is_explicit_property:
                merged.is_explicit_property = True
        return merged
