"""OntologyHub — the single piece of cross-row mutable state, as a named actor.

The reference mutates a shared in-process ``OntologyManager`` from the
critique/sublimate agents mid-run (/root/reference/ontocast/tool/
ontology_manager.py:37-90, agent/criticise_ontology.py:82-92). In the Ray
design that becomes ONE named detached-scope actor:

- ``merge_delta(ontology_id, triple_rows)`` — commutative, idempotent graph
  union (triple-set semantics), so concurrent chunk actors can merge in any
  order and the result is deterministic **as a set**;
- ``get_snapshot()`` / ``get_descriptions()`` — versioned reads; extraction
  actors record the snapshot version they used per chunk row (lineage).

Ontologies are small (few-k triples), so snapshots ship whole as triple-row
lists — a broadcast-small-side pattern, not a shuffle. At multi-node scale
this actor is a singleton per job; reads are cached per extraction actor and
refreshed at batch granularity, so hub traffic is O(actors × batches), not
O(rows).
"""

from __future__ import annotations

from typing import Optional

import ray

from ontocast_ray.sources.ontologies import OntologyRecord


HUB_NAME = "ontocast_ontology_hub"

TripleRow = tuple  # (subject, predicate, object, is_literal, datatype, lang)


@ray.remote(num_cpus=0)
class OntologyHub:
    def __init__(self, seeds: Optional[list[dict]] = None):
        # ontology_id -> {"meta": {...}, "triples": dict[TripleRow, None]}
        self._ontologies: dict[str, dict] = {}
        self._version = 0
        for seed in seeds or []:
            self._ontologies[seed["ontology_id"]] = {
                "meta": {k: v for k, v in seed.items() if k != "triples"},
                "triples": dict.fromkeys(map(tuple, seed.get("triples", []))),
            }

    def get_version(self) -> int:
        return self._version

    def get_descriptions(self) -> list[dict]:
        return [o["meta"] for o in self._ontologies.values()]

    def get_snapshot(self) -> dict:
        """→ {version, ontologies: {id: {meta, triples(list)}}}."""
        return {
            "version": self._version,
            "ontologies": {
                oid: {"meta": o["meta"], "triples": list(o["triples"])}
                for oid, o in self._ontologies.items()
            },
        }

    def merge_delta(self, ontology_id: str, meta: Optional[dict], triple_rows: list) -> int:
        """Commutative union merge (ref ontology_manager.py:37-46). Returns version."""
        entry = self._ontologies.get(ontology_id)
        if entry is None:
            entry = {"meta": meta or {"ontology_id": ontology_id}, "triples": {}}
            self._ontologies[ontology_id] = entry
        added = False
        for row in triple_rows:
            row = tuple(row)
            if row not in entry["triples"]:
                entry["triples"][row] = None
                added = True
        if added:
            self._version += 1
        return self._version

    def triple_count(self, ontology_id: str) -> int:
        entry = self._ontologies.get(ontology_id)
        return len(entry["triples"]) if entry else 0


def seed_from_records(records: list[OntologyRecord]) -> list[dict]:
    """OntologyRecord list → plain-dict seeds for the hub actor."""
    from ontocast_ray.rdf.table import TermTable

    seeds = []
    for rec in records:
        terms = TermTable()
        triples = terms.cells(terms.encode_graph(rec.graph))
        seeds.append(
            {
                "ontology_id": rec.ontology_id,
                "iri": rec.iri,
                "title": rec.title,
                "description": rec.description,
                "version": rec.version,
                "triples": triples,
            }
        )
    return seeds


def get_or_create_hub(seeds: Optional[list[dict]] = None, name: str = HUB_NAME):
    """Get the named hub actor, creating it (with seeds) if absent.

    Detached lifetime: pipeline stages look the hub up by name from worker
    processes, possibly after the creating handle has gone out of scope — a
    non-detached named actor would already be GC'd. Callers that own the
    job's lifecycle should ``ray.kill`` it when done.
    """
    try:
        return ray.get_actor(name)
    except ValueError:
        return OntologyHub.options(
            name=name, lifetime="detached", get_if_exists=True
        ).remote(seeds)
