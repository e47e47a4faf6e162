"""The correctness gate at sf0.001: every queries() entry with a live SQL
oracle, outside ``_GATE_SF_ONLY`` and in ``queries()`` order, matches its
DuckDB oracle under ``ontocast_ray.parity.compare_results``: row count,
column names, and order-insensitive exact values."""

import os

import pytest

import __ray_entry__ as entry
from ontocast_ray.parity import compare_results, oracle_connection, to_pandas

SF_DIR = "/root/testdata/sf0.001"

needs_sf = pytest.mark.skipif(
    not os.path.isdir(SF_DIR), reason="testdata not present"
)

_SQL = entry._sql_oracles()
_SQL_AT_SF0001 = [
    name for name in entry.queries()
    if name in _SQL and name not in entry._GATE_SF_ONLY
]


def test_registry_oracles_partition_queries():
    """Every query has exactly one oracle: a pinned golden or a live SQL.
    ``oracle_sql()`` lays the SQL over the goldens, so a name in both would
    silently lose its golden."""
    goldens = entry._GOLDEN_QUERIES
    assert len(set(goldens)) == len(goldens)
    assert not set(goldens) & set(_SQL)
    assert set(goldens) | set(_SQL) == set(entry.queries())


@needs_sf
@pytest.mark.parametrize("name", _SQL_AT_SF0001)
def test_query_matches_oracle(ray_session, name):
    got = to_pandas(entry.queries()[name](SF_DIR))
    want = oracle_connection(SF_DIR).execute(_SQL[name]).df()
    assert compare_results(got, want) == "OK"


@needs_sf
def test_rows_only_queries_produce_rows(ray_session):
    for name in ["kg_chunks", "simhash_signatures", "lang_id", "doc_fingerprint",
                 "media_features"]:
        result = to_pandas(entry.queries()[name](SF_DIR))
        assert len(result) > 0, name


@needs_sf
def test_entry_smoke(ray_session):
    result = entry.entry()
    df = to_pandas(result)
    assert len(df) >= 0
    assert "subject" in df.columns and "graph_scope" in df.columns
    assert (df["graph_scope"] == "facts").any()


def test_langid_stopword_lists_in_sync():
    """Drift guard for the 3 hand-written copies of the stopword-score
    CTE (lang_id / curated_packing / langid_confusion oracles): every
    copy's IN-lists must equal ops.text._STOPWORDS exactly."""
    import re

    from ontocast_ray.ops.text import _STOPWORDS

    oracles = entry.oracle_sql()
    for name in ("lang_id", "curated_packing", "langid_confusion"):
        sql = oracles[name]
        lists = re.findall(r"w IN \(([^)]*)\)", sql)
        assert len(lists) == 4, name
        for lng, lst in zip(("en", "de", "fr", "es"), lists):
            words = {w.strip().strip("'") for w in lst.split(",")}
            assert words == set(_STOPWORDS[lng]), (name, lng)


def test_bipartite_edge_ctes_in_sync():
    """Drift guard for the supplier↔customer pairs/edges CTE copies in
    the graph oracles: normalized text must be identical everywhere."""
    import re

    def normalize(sql):
        m = re.search(
            r"pairs AS \(.*?\),\s*edges AS \(.*?\)", sql, re.S
        )
        return re.sub(r"\s+", " ", m.group(0)) if m else None

    oracles = entry.oracle_sql()
    forms = {
        name: normalize(oracles[name])
        for name in ("pagerank_suppliers", "ppr_even_seeds",
                     "lpa_communities", "neighbor_feature_agg",
                     "sampled_neighbors_3")
    }
    assert all(forms.values()), forms.keys()
    assert len(set(forms.values())) == 1, forms


SF01_DIR = "/root/testdata/sf0.01"


@pytest.mark.skipif(not os.path.isdir(SF01_DIR), reason="testdata not present")
def test_keep_best_starts_only_its_read(ray_session, executions):
    """``neardup_keep_best`` at sf0.01 starts one Ray Data execution, the
    documents read: LSH, verify, components and ``dedup_keep_best``'s score
    and mark maps run as plain Ray tasks over the read's blocks. Its rows
    still match the oracle."""
    got = to_pandas(entry.queries()["neardup_keep_best"](SF01_DIR))
    assert len(executions) == 1 and "ReadParquet" in executions[0], executions
    want = oracle_connection(SF01_DIR).execute(_SQL["neardup_keep_best"]).df()
    assert compare_results(got, want) == "OK"
