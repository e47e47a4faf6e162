"""ontocast_ray — a Ray-Data-native knowledge-graph construction engine.

A from-scratch reimplementation of the query/data-processing capabilities of
genericrobot77/ontocast (reference at /root/reference) on top of
``ray.data.Dataset``: streaming reads of interleaved text+media document
tables, span-aware semantic chunking, deterministic/LLM-pluggable triple
extraction and per-document entity/predicate canonicalization in one fused
task map (plus a cross-doc merge path), and partitioned,
resumable Parquet sinks with per-partition lineage manifests.

This is NOT a port of the reference's LangGraph engine; only its *semantics*
(URI minting, disambiguation rules, chunking math, graph hygiene) are
reproduced, each cited back to reference file:line in docstrings.
"""

__version__ = "0.1.0"
