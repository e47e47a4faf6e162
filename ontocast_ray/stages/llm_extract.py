"""LLM-backed extraction model (implements the same ``ExtractorModel``
protocol as the deterministic extractor, so an ``ExtractTriples`` built with
an ``extractor_factory`` that returns one drops into ``KGProcessDocs`` as its
``extractor``, unchanged).

Restructures the reference's agent cycle L1→L5 with L7 retry semantics
(/root/reference/ontocast/agent/*.py, stategraph/util.py:8-30):

- select_ontology: LLM JSON report over the 1000-char excerpt
  (ref select_ontology.py:57,78-81; NULL fallback);
- render ontology addendum: LLM Turtle, parsed via the prefix-patching
  ``from_turtle_str`` (ref onto.py:250-264); parse failure → retry with
  failure feedback, stage PARSE_TEXT_TO_ONTOLOGY_TRIPLES (ref
  render_ontology_triples.py:85-114);
- criticise ontology: LLM JSON verdict (ref criticise_ontology.py:94-105);
- render facts → sublimate split → validate/auto-connect → criticise facts
  (ref render_facts.py:62-98, sublimate_ontology.py, criticise_facts.py);
- per-stage visit counters bounded by max_visits; on exhaustion the chunk is
  force-completed with partials and the failure recorded (ref util.py:25-29).

The client is any ``LLMClient`` (llm.py). Tests drive the full loop with a
scripted client; live OpenAI/Ollama use the same code path.
"""

from __future__ import annotations

import json
from typing import Optional

from ontocast_ray import prompts
from ontocast_ray.functions.uris import iri2namespace
from ontocast_ray.llm import LLMClient
from ontocast_ray.rdf import TripleGraph, serialize_turtle
from ontocast_ray.rdf.turtle import TurtleParseError, from_turtle_str
from ontocast_ray.stages.extract import ChunkResult, OntologyView
from ontocast_ray.stages.sublimate import sublimate_graph
from ontocast_ray.stages.validate import validate_and_connect

STAGE_PARSE_ONTOLOGY = "PARSE_TEXT_TO_ONTOLOGY_TRIPLES"
STAGE_PARSE_FACTS = "PARSE_TEXT_TO_FACTS_TRIPLES"
STAGE_ONTOLOGY_CRITIQUE = "ONTOLOGY_CRITIQUE"
STAGE_FACTS_CRITIQUE = "FACTS_CRITIQUE"


def _parse_json_report(raw: str) -> dict:
    """Tolerant JSON extraction (models wrap JSON in prose/fences)."""
    raw = raw.strip()
    if raw.startswith("```"):
        raw = raw.strip("`")
        if raw.startswith("json"):
            raw = raw[4:]
    start = raw.find("{")
    end = raw.rfind("}")
    if start < 0 or end <= start:
        raise ValueError(f"no JSON object in response: {raw[:80]!r}")
    return json.loads(raw[start:end + 1])


def _strip_fences(raw: str) -> str:
    raw = raw.strip()
    if raw.startswith("```"):
        lines = raw.splitlines()
        if lines and lines[0].startswith("```"):
            lines = lines[1:]
        if lines and lines[-1].strip().startswith("```"):
            lines = lines[:-1]
        raw = "\n".join(lines)
    return raw


class LLMExtractor:
    """ExtractorModel backed by an LLMClient."""

    def __init__(
        self,
        client: LLMClient,
        ontologies: list[OntologyView],
        domain: str = "https://example.com",
        ontology_graphs: Optional[dict[str, TripleGraph]] = None,
        temperature: float = 0.0,
    ):
        self.client = client
        self.ontologies = ontologies
        self.domain = domain
        self.ontology_graphs = ontology_graphs or {}
        self.temperature = temperature

    # -- L1 -----------------------------------------------------------------
    def select_ontology(self, text: str) -> Optional[OntologyView]:
        if not self.ontologies:
            return None  # ref select_ontology.py:78-81 → NULL
        desc = "\n\n".join(
            f"ontology_id: {o.ontology_id}\niri: {o.iri}\n"
            f"title: {o.title}\ndescription: {o.description}"
            for o in self.ontologies
        )
        raw = self.client.complete(
            prompts.SELECT_ONTOLOGY.format(
                ontologies_desc=desc, excerpt=text[:1000] + " ..."
            ),
            temperature=self.temperature,
        )
        try:
            report = _parse_json_report(raw)
        except ValueError:
            return None
        oid = report.get("ontology_id")
        iri = report.get("ontology_iri")
        for o in self.ontologies:  # id preferred, IRI fallback (ref J1)
            if oid and o.ontology_id == oid:
                return o
            if iri and o.iri == iri:
                return o
        return None

    def _ontology_block(self, view: Optional[OntologyView]) -> str:
        if view is None:
            return ""
        graph = self.ontology_graphs.get(view.ontology_id)
        if graph is None:
            return f"Use the domain ontology <{view.iri}> ({view.title})."
        return (
            f"Use the domain ontology <{view.iri}>:\n```ttl\n"
            + serialize_turtle(graph)
            + "\n```"
        )

    def _render_graph(self, template: str, *, failure: str, **fmt) -> TripleGraph:
        raw = self.client.complete(
            template.format(failure_instruction=failure, **fmt),
            temperature=self.temperature,
        )
        return from_turtle_str(_strip_fences(raw))

    def _critique(self, template: str, **fmt) -> tuple[bool, float, str]:
        raw = self.client.complete(template.format(**fmt), temperature=self.temperature)
        try:
            report = _parse_json_report(raw)
        except ValueError as exc:
            return True, 0.5, f"unparseable critique: {exc}"  # don't block on critic noise
        return (
            str(report.get("verdict", "pass")).lower() == "pass",
            float(report.get("score", 0.0)),
            str(report.get("comment", "")),
        )

    # -- the full chunk loop -------------------------------------------------
    def process_chunk(
        self, text: str, doc_iri: str, chunk_hid: str, max_visits: int = 3
    ) -> ChunkResult:
        chunk_iri = f"{doc_iri}/chunk/{chunk_hid}"
        chunk_ns = iri2namespace(chunk_iri)

        selected = self.select_ontology(text)
        if selected is not None:
            onto_iri, onto_id = selected.iri, selected.ontology_id
        else:
            doc_hid = doc_iri.rsplit("/", 1)[-1]
            onto_iri = f"{self.domain}/ontology/{doc_hid}"
            onto_id = f"onto_{doc_hid}"
        onto_ns = iri2namespace(onto_iri, ontology=True)
        onto_block = self._ontology_block(selected)

        status = "success"
        failure_stage: Optional[str] = None
        failure_reason = ""
        score = 0.0
        attempts = 0
        addendum = TripleGraph()
        facts = TripleGraph()

        # L2/L3: ontology render + critique loop (bounded per-node visits)
        for attempt in range(1, max_visits + 1):
            attempts = attempt
            feedback = (
                prompts.FAILURE_FEEDBACK.format(stage=failure_stage, reason=failure_reason)
                if failure_stage
                else ""
            )
            try:
                addendum = self._render_graph(
                    prompts.RENDER_ONTOLOGY,
                    failure=feedback,
                    ontology_block=onto_block,
                    ontology_namespace=onto_ns,
                    text=text,
                )
            except (TurtleParseError, ValueError) as exc:
                failure_stage, failure_reason = STAGE_PARSE_ONTOLOGY, str(exc)
                continue
            ok, score, comment = self._critique(
                prompts.CRITICISE_ONTOLOGY, addendum_ttl=serialize_turtle(addendum)
            )
            if ok:
                failure_stage, failure_reason = None, ""
                break
            failure_stage, failure_reason = STAGE_ONTOLOGY_CRITIQUE, comment

        # L4/M5/M7/L5: facts render + sublimate + connect + critique loop
        for attempt in range(1, max_visits + 1):
            attempts = attempt
            feedback = (
                prompts.FAILURE_FEEDBACK.format(stage=failure_stage, reason=failure_reason)
                if failure_stage in (STAGE_PARSE_FACTS, STAGE_FACTS_CRITIQUE)
                else ""
            )
            try:
                semantic = self._render_graph(
                    prompts.RENDER_FACTS,
                    failure=feedback,
                    ontology_block=onto_block,
                    ontology_namespace=onto_ns,
                    current_doc_namespace=chunk_ns,
                    text=text,
                )
            except (TurtleParseError, ValueError) as exc:
                failure_stage, failure_reason = STAGE_PARSE_FACTS, str(exc)
                continue
            onto_part, facts_part = sublimate_graph(semantic, chunk_ns)
            addendum += onto_part
            facts = validate_and_connect(facts_part, chunk_iri, auto_connect=True)
            ok, score, comment = self._critique(
                prompts.CRITICISE_FACTS, facts_ttl=serialize_turtle(facts), text=text
            )
            if ok:
                failure_stage, failure_reason = None, ""
                break
            failure_stage, failure_reason = STAGE_FACTS_CRITIQUE, comment
        # exhaustion → forced SUCCESS with partials kept (ref util.py:25-29)

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
