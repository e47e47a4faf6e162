"""LLM-backed extraction path driven by a scripted client — exercises the full
select → render → critique → sublimate → validate loop with retry semantics,
no network."""

import json

from ontocast_ray.stages.extract import OntologyView
from ontocast_ray.stages.llm_extract import (
    STAGE_FACTS_CRITIQUE,
    STAGE_PARSE_FACTS,
    LLMExtractor,
)

DOC_IRI = "https://example.com/doc/abcdefabcdef"
CHUNK = "0123456789ab"
CD = f"{DOC_IRI}/chunk/{CHUNK}/"

SELECT_OK = json.dumps({"ontology_id": "corp", "ontology_iri": "https://example.com/corp#", "confidence": 0.9})
ONTO_TTL = """@prefix corp: <https://example.com/corp#> .
@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
corp:Employer a rdfs:Class ; rdfs:label "Employer" .
"""
PASS = json.dumps({"verdict": "pass", "score": 0.9, "comment": "ok"})
FAIL = json.dumps({"verdict": "fail", "score": 0.3, "comment": "not atomic"})
FACTS_TTL = f"""@prefix cd: <{CD}> .
@prefix corp: <https://example.com/corp#> .
@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
cd:Alice a corp:Employer ; rdfs:label "Alice" ; corp:worksAt cd:Acme .
cd:Acme rdfs:label "Acme" .
"""


class ScriptedLLM:
    def __init__(self, responses):
        self.responses = list(responses)
        self.prompts = []

    def complete(self, prompt, temperature=0.0):
        self.prompts.append(prompt)
        return self.responses.pop(0)


def _views():
    return [OntologyView(ontology_id="corp", iri="https://example.com/corp#",
                         title="Corporate", description="people and companies")]


def test_happy_path():
    llm = ScriptedLLM([SELECT_OK, ONTO_TTL, PASS, FACTS_TTL, PASS])
    ex = LLMExtractor(llm, _views())
    result = ex.process_chunk("Alice works at Acme.", DOC_IRI, CHUNK, max_visits=3)
    assert result.ontology_id == "corp"
    assert result.status == "success" and result.failure_stage is None
    assert len(result.facts) > 0
    subjects = {str(s) for s, _, _ in result.facts}
    assert CD + "Alice" in subjects
    # ontology addendum separated from facts (sublimate)
    assert all(not str(s).startswith(CD) for s, _, _ in result.ontology_addendum)


def test_parse_failure_retries_with_feedback():
    llm = ScriptedLLM([
        SELECT_OK,
        ONTO_TTL, PASS,
        "THIS IS NOT TURTLE {{{",          # facts attempt 1 → parse error
        FACTS_TTL, PASS,                    # attempt 2 succeeds
    ])
    ex = LLMExtractor(llm, _views())
    result = ex.process_chunk("text", DOC_IRI, CHUNK, max_visits=3)
    assert result.status == "success" and result.failure_stage is None
    assert result.attempts == 2
    # the retry prompt carried the failure feedback (ref render_facts.py:62-74)
    retry_prompt = llm.prompts[-2]
    assert STAGE_PARSE_FACTS in retry_prompt


def test_critique_fail_exhausts_to_forced_success():
    llm = ScriptedLLM([
        SELECT_OK,
        ONTO_TTL, PASS,
        FACTS_TTL, FAIL,
        FACTS_TTL, FAIL,
        FACTS_TTL, FAIL,
    ])
    ex = LLMExtractor(llm, _views())
    result = ex.process_chunk("text", DOC_IRI, CHUNK, max_visits=3)
    # L7: give up, keep partials, record failure (ref stategraph/util.py:25-29)
    assert result.status == "success"
    assert result.failure_stage == STAGE_FACTS_CRITIQUE
    assert result.attempts == 3
    assert len(result.facts) > 0


def test_null_ontology_fallback():
    llm = ScriptedLLM([
        json.dumps({"ontology_id": None, "ontology_iri": None, "confidence": 0.0}),
        ONTO_TTL, PASS, FACTS_TTL, PASS,
    ])
    ex = LLMExtractor(llm, _views())
    result = ex.process_chunk("text", DOC_IRI, CHUNK, max_visits=3)
    assert result.ontology_id.startswith("onto_")  # fresh ontology (NULL path)


def test_plugs_into_extract_stage():
    """An LLM-backed ``ExtractTriples`` runs inside ``KGProcessDocs``'s
    per-chunk loop, the one production runs."""
    import pyarrow as pa

    from ontocast_ray.model import DOCS_SCHEMA
    from ontocast_ray.pipelines.kg import KGProcessDocs
    from ontocast_ray.stages.assemble import assemble_spans
    from ontocast_ray.stages.extract import ExtractTriples

    def factory(views, domain):
        return LLMExtractor(
            ScriptedLLM([SELECT_OK, ONTO_TTL, PASS, FACTS_TTL, PASS] * 4),
            _views(), domain=domain,
        )

    stage = KGProcessDocs(ontology_seeds=[])
    stage.extractor = ExtractTriples(ontology_seeds=[], extractor_factory=factory)
    batch = pa.table(
        {
            "doc_id": ["d1"],
            "spans": pa.array(
                [[{"kind": "text", "text": "Alice works at Acme.", "media_ref": "", "offset": 0}]],
                type=DOCS_SCHEMA.field("spans").type,
            ),
        }
    )
    out = stage(assemble_spans(batch))
    scopes = set(out["graph_scope"].to_pylist())
    assert "facts" in scopes and "status" in scopes and "ontology" in scopes


# --- e2e through the REAL OpenAI-compatible HTTP client ---------------------
#
# A stdlib HTTP server replays recorded chat completions, so the full
# L1→L5 loop (JSON select, Turtle render+parse, critique, retry feedback)
# runs through OpenAIChatClient's actual request/response path — headers,
# JSON envelope, and all — with zero network.


class _RecordedChatServer:
    """Serves POST /chat/completions from a queue of recorded responses."""

    def __init__(self, responses):
        import http.server
        import threading

        self.responses = list(responses)
        self.requests = []
        outer = self

        class Handler(http.server.BaseHTTPRequestHandler):
            def do_POST(self):  # noqa: N802 (stdlib naming)
                body = self.rfile.read(int(self.headers["Content-Length"]))
                outer.requests.append(
                    (self.path, dict(self.headers), json.loads(body))
                )
                content = outer.responses.pop(0)
                payload = json.dumps(
                    {
                        "id": "chatcmpl-recorded",
                        "object": "chat.completion",
                        "model": "gpt-4o-mini",
                        "choices": [
                            {
                                "index": 0,
                                "message": {"role": "assistant", "content": content},
                                "finish_reason": "stop",
                            }
                        ],
                    }
                ).encode()
                self.send_response(200)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(payload)))
                self.end_headers()
                self.wfile.write(payload)

            def log_message(self, *a):
                pass

        self.httpd = http.server.HTTPServer(("127.0.0.1", 0), Handler)
        self.base = f"http://127.0.0.1:{self.httpd.server_port}/v1"
        threading.Thread(target=self.httpd.serve_forever, daemon=True).start()

    def shutdown(self):
        self.httpd.shutdown()


def test_e2e_via_openai_compatible_http_client():
    from ontocast_ray.llm import OpenAIChatClient

    server = _RecordedChatServer([
        SELECT_OK,
        ONTO_TTL, PASS,
        "NOT TURTLE AT ALL {{{",   # facts attempt 1 → parse error → retry
        FACTS_TTL, PASS,
    ])
    try:
        client = OpenAIChatClient(
            model="gpt-4o-mini", base_url=server.base, api_key="test-key"
        )
        ex = LLMExtractor(client, _views())
        result = ex.process_chunk("Alice works at Acme.", DOC_IRI, CHUNK, max_visits=3)
    finally:
        server.shutdown()

    assert result.status == "success" and result.failure_stage is None
    assert result.attempts == 2
    subjects = {str(s) for s, _, _ in result.facts}
    assert CD + "Alice" in subjects

    # the real wire format was exercised
    assert len(server.requests) == 6
    path, headers, body = server.requests[0]
    assert path.endswith("/chat/completions")
    assert headers.get("Authorization") == "Bearer test-key"
    assert body["model"] == "gpt-4o-mini"
    assert body["messages"][0]["role"] == "user"
    # retry prompt carried the parse-failure feedback over the wire
    retry_body = server.requests[4][2]
    assert STAGE_PARSE_FACTS in retry_body["messages"][0]["content"]
    # prompt parity: the typed-literal mandate rides in the facts prompt
    # (ref render_facts.py:22-25)
    facts_prompt = server.requests[3][2]["messages"][0]["content"]
    assert "xsd:" in facts_prompt and "atomic" in facts_prompt
