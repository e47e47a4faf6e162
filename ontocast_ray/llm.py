"""LLM client protocol (L0) — the pluggable brain of the extraction actors.

The reference wires LangChain ChatOpenAI/ChatOllama into every agent
(/root/reference/ontocast/tool/llm.py:22-153). Our engine defines a minimal
protocol so extraction stages can host either:

- ``DeterministicExtractor`` (stages/extract.py) — the rule-based default
  used by tests and benches (the reference's tests require live API keys;
  ours must not);
- an OpenAI-compatible HTTP client (``OpenAIChatClient`` below) — gated
  behind an import-try, configured via env (OPENAI_API_KEY / OPENAI_BASE_URL
  / ONTOCAST_LLM_MODEL); the sandbox has no network, so this path is
  exercised only structurally.

Stages receive a *factory* (module-level callable + kwargs), never a live
client — clients are constructed inside ``__init__`` on the worker, once per
processor (the KG task path caches one processor per worker process).
"""

from __future__ import annotations

import os
from typing import Protocol


class LLMClient(Protocol):
    def complete(self, prompt: str, temperature: float = 0.0) -> str:
        """Single-turn completion → raw text (Turtle or JSON per prompt)."""
        ...


class EchoLLM:
    """Trivial client for plumbing tests: returns a canned response."""

    def __init__(self, response: str = ""):
        self.response = response

    def complete(self, prompt: str, temperature: float = 0.0) -> str:
        return self.response


class OpenAIChatClient:
    """OpenAI-compatible chat client (also serves Ollama's /v1 endpoint).

    Mirrors the reference's provider switch (llm.py:49-86: OPENAI vs OLLAMA
    by provider name + base_url). Import/network failures raise cleanly so
    pipelines fall back to the deterministic extractor.
    """

    def __init__(
        self,
        model: str | None = None,
        base_url: str | None = None,
        api_key: str | None = None,
        timeout: float = 60.0,
    ):
        self.model = model or os.environ.get("ONTOCAST_LLM_MODEL", "gpt-4o-mini")
        self.base_url = base_url or os.environ.get(
            "OPENAI_BASE_URL", "https://api.openai.com/v1"
        )
        self.api_key = api_key or os.environ.get("OPENAI_API_KEY", "")
        self.timeout = timeout
        if not self.api_key:
            raise RuntimeError("OpenAIChatClient requires OPENAI_API_KEY")

    def complete(self, prompt: str, temperature: float = 0.0) -> str:
        import json
        import urllib.request

        req = urllib.request.Request(
            f"{self.base_url}/chat/completions",
            data=json.dumps(
                {
                    "model": self.model,
                    "temperature": temperature,
                    "messages": [{"role": "user", "content": prompt}],
                }
            ).encode(),
            headers={
                "Content-Type": "application/json",
                "Authorization": f"Bearer {self.api_key}",
            },
        )
        with urllib.request.urlopen(req, timeout=self.timeout) as resp:
            data = json.loads(resp.read())
        return data["choices"][0]["message"]["content"]
