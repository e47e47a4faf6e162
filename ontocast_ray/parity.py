"""Parity checks: triple P/R (the BASELINE gate metric) and result compares.

P/R is computed on expanded-URI triple sets (the reference also compares on
expanded URIs internally — ref /root/reference/ontocast/tool/
aggregate.py:427-442). Blank nodes are compared structurally-blind (label
ignored) by replacing bnode ids with a fixed marker — fixture graphs contain
no bnodes, so this only matters for user graphs.

``compare_results`` is the one rule a driver query's output must meet
against its DuckDB oracle; ``tools/gate_sweep.py`` and
``tests/test_driver_contract.py`` both use it.
"""

from __future__ import annotations

from ontocast_ray.rdf.graph import TripleGraph
from ontocast_ray.rdf.terms import BNode


def _norm(term):
    if isinstance(term, BNode):
        return BNode("_")
    return term


def triple_set(graph: TripleGraph) -> set:
    return {(_norm(s), _norm(p), _norm(o)) for s, p, o in graph}


def precision_recall(predicted: TripleGraph, reference: TripleGraph) -> tuple[float, float]:
    pred = triple_set(predicted)
    ref = triple_set(reference)
    if not pred and not ref:
        return 1.0, 1.0
    tp = len(pred & ref)
    precision = tp / len(pred) if pred else 0.0
    recall = tp / len(ref) if ref else 1.0
    return precision, recall


TABLES = [
    "region", "nation", "customer", "supplier", "part", "orders",
    "lineitem", "events", "documents", "embeddings",
]


def oracle_connection(sf_dir: str):
    """DuckDB connection with one view per driver table present in
    ``sf_dir`` — the namespace every oracle SQL reads."""
    import os

    import duckdb

    con = duckdb.connect()
    for t in TABLES:
        p = os.path.join(sf_dir, f"{t}.parquet")
        if os.path.exists(p):
            con.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{p}')")
    return con


def to_pandas(result) -> "pd.DataFrame":
    """A query result (pandas, arrow or Ray Dataset) as a pandas frame."""
    import pandas as pd

    return result if isinstance(result, pd.DataFrame) else result.to_pandas()


def _canon(df: "pd.DataFrame") -> "pd.DataFrame":
    """Columns sorted by name, object (incl. list) cells as strings,
    datetimes at µs, rows sorted by every column."""
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
        elif str(df[c].dtype).startswith("datetime"):
            df[c] = df[c].astype("datetime64[us]")
    return df.sort_values(list(df.columns)).reset_index(drop=True)


def _values_match(a: "pd.Series", b: "pd.Series") -> bool:
    """Exact equality with nulls aligned; floats compare with no
    tolerance, NaN equal to NaN."""
    import numpy as np

    if a.dtype.kind == "f" or b.dtype.kind == "f":
        return bool(np.array_equal(
            a.astype(float), b.astype(float), equal_nan=True
        ))
    na, nb = a.isna(), b.isna()
    if not (na == nb).all():
        return False
    return bool((a[~na].to_numpy() == b[~nb].to_numpy()).all())


def compare_results(got: "pd.DataFrame", want: "pd.DataFrame") -> str:
    """Order-insensitive compare of a query result with its oracle.

    Returns ``"OK"`` or the first failing check: ``"ROWS n vs m"``,
    ``"SCHEMA [cols] vs [cols]"`` (column names, in any order) or
    ``"VALUES [cols]"`` (the columns whose values differ).
    """
    a, b = _canon(got), _canon(want)
    if len(a) != len(b):
        return f"ROWS {len(a)} vs {len(b)}"
    if list(a.columns) != list(b.columns):
        return f"SCHEMA {list(a.columns)} vs {list(b.columns)}"
    bad = [c for c in a.columns if not _values_match(a[c], b[c])]
    return f"VALUES {bad}" if bad else "OK"


def _load_graph(path: str) -> TripleGraph:
    """Load a graph from .ttl or a triples .parquet file/dir."""
    import glob
    import os

    if path.endswith(".ttl"):
        from ontocast_ray.rdf.turtle import parse_turtle

        with open(path, "r", encoding="utf-8") as fh:
            return parse_turtle(fh.read())
    import pyarrow as pa
    import pyarrow.parquet as pq

    from ontocast_ray.model import table_to_graph

    files = [path] if os.path.isfile(path) else sorted(glob.glob(os.path.join(path, "**", "*.parquet"), recursive=True))
    return table_to_graph(pa.concat_tables([pq.read_table(f) for f in files]))


def main(argv=None) -> int:
    """CLI: triple-set P/R diff between two graphs (ttl or triples parquet).

    The engine-side analogue of the reference's cmp_states diff CLI
    (ref /root/reference/ontocast/cli/cmp_states.py:20-86), operating on
    graphs rather than AgentState dumps.
    """
    import argparse
    import json

    parser = argparse.ArgumentParser(prog="ontocast_ray.parity")
    parser.add_argument("predicted", help=".ttl file or triples parquet file/dir")
    parser.add_argument("reference", help=".ttl file or triples parquet file/dir")
    parser.add_argument("--show-diff", type=int, default=0, metavar="N",
                        help="print up to N missing/extra triples")
    args = parser.parse_args(argv)
    pred = _load_graph(args.predicted)
    ref = _load_graph(args.reference)
    p, r = precision_recall(pred, ref)
    out = {"precision": round(p, 6), "recall": round(r, 6),
           "predicted_triples": len(pred), "reference_triples": len(ref)}
    print(json.dumps(out))
    if args.show_diff:
        ps, rs = triple_set(pred), triple_set(ref)
        for t in list(rs - ps)[: args.show_diff]:
            print("MISSING", t)
        for t in list(ps - rs)[: args.show_diff]:
            print("EXTRA  ", t)
    return 0 if (p >= 0.95 and r >= 0.95) else 1


if __name__ == "__main__":
    raise SystemExit(main())
