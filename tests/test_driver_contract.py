"""Simulates the driver's correctness gate: each queries() entry runs at
sf0.001 and (where an oracle exists) matches its DuckDB oracle under
``ontocast_ray.parity.compare_results``: row count, column names, and
order-insensitive exact values."""

import os

import pytest

from ontocast_ray.parity import compare_results, oracle_connection, to_pandas

SF_DIR = "/root/testdata/sf0.001"

pytestmark = pytest.mark.skipif(
    not os.path.isdir(SF_DIR), reason="testdata not present"
)


@pytest.fixture(scope="module")
def contract():
    import __ray_entry__ as mod

    return mod


def test_all_queries_run(ray_session, contract):
    qs = contract.queries()
    assert len(qs) >= 12
    # keys with oracles are a subset of queries
    assert set(contract.oracle_sql()) <= set(qs)


_SQL_GATED = [
        "exact_dedup",
        "token_stats",
        "quality_stats",
        "lang_dist",
        "events_by_type",
        "docs_by_source",
        "top_docs_by_len",
        "events_by_user",
        "events_windowed",
        "events_sessions",
        "customers_by_region",
        "events_with_lag",
        "knn_cosine_top10",
        # round 2 SQL oracles
        "lang_id",
        "events_hopping",
        "top_docs_per_source",
        "term_counts_top50",
        "doc_sample_10pct",
        "events_value_bands",
        "events_asof_click",
        "doc_group_components",
        "events_quantiles",
        "events_watermark_window",
        # round 3 SQL oracles
        "repetition_stats",
        "pii_scrub",
        "pack_sequences",
        "curated_packing",
        "bm25_top20",
        "events_sketch_quantiles",
        "docs_source_cap",
        "decontam_overlap",
        "boilerplate_scrub",
        "lineitem_orders_join",
        "supplier_customer_pairs",
        "customers_with_orders",
        "customers_without_orders",
        "stratified_sample_5per_source",
        "events_rolling_max",
        "doc_row_numbers",
        "heavy_hitter_terms",
        "normalize_text",
        "dup_span_stats",
        "dup_span_scrub",
        "quality_classifier",
        "knn_self_join_top5",
        "classifier_curated_packing",
        "neardup_scrubbed_packing",
        "events_minmax_scaled",
        "docs_lang_pivot",
        "supplier_triangles",
        "lineitem_supplier_skew_join",
        "users_per_event_type",
        "events_window_first_last",
        "docs_rollup_counts",
        "orders_customer_bucket_join",
        "user_event_sequences",
        "events_json_field",
        "events_mad_outliers",
        "purchase_click_window_counts",
        "top_terms_per_source",
        "contrastive_negatives",
        "funnel_view_click_purchase",
        "hourly_distinct_users",
        "lang_rebalanced_docs",
        "split_assign",
        # heavier pipeline-level oracles (chained CTEs / iterative SQL)
        "corpus_interleave",
        "bigram_coverage",
        "dsir_selected_docs",
        "incremental_dedup_new_docs",
        "lpa_communities",
        "url_dedup",
        "token_windows",
        "html_extracted_text",
        "blocked_domain_survivors",
        "diversity_stats",
        "corpus_diff",
        "temperature_mixed_docs",
        "label_centroids",
        "incremental_neardup_pairs",
        "events_global_quantiles",
        "countmin_heavy_estimates",
        "neardup_keep_best",
        "dedup_audit_report",
        "events_global_robust_scaled",
        "web_curated_packing",
        "stratified_split_exact",
        "neighbor_feature_agg",
        "weekly_retention",
        "event_value_deciles",
        "ppr_even_seeds",
        "doc_keywords_top3",
        "langid_confusion",
        "followed_by_pairs",
        "dataset_card",
        "sampled_neighbors_3",
        "contrastive_triplets",
        "decayed_user_value",
        "linear_attribution",
        "top_sessions_by_value",
        "source_dup_rates",
        "embedding_gram",
        "jl_projection_8d",
        "kmeans_clusters",
        "neardup_filtered_docs",
        "neardup_keep_list",
        "pagerank_suppliers",
        "semdedup_keep",
        "term_cooccurrence_top100",
        # round 5
        "paragraph_dedup",
        "gopher_filtered_docs",
        "lang_quality_buckets",
        "epoch_shuffle_pos",
        "domain_quality_report",
        "span_kind_transitions",
        "cdc_dup_stats",
        "sample_exact_100",
        "embedding_sq8",
        "gazetteer_mentions",
        "supplier_k_core",
        "dolma_curated_packing",
        "source_similarity",
        "entity_comention_edges",
        "vocab_coverage",
        "next_event_context",
        "train_test_leakage",
        "user_max_gap",
        "doc_length_histogram",
        "fuzzy_name_matches",
        "events_running_total",
        "hits_scores",
        "balanced_shards",
        "nucleus_top80_docs",
        "deepwalk_walks",
        "sentence_stats",
        "char_pair_counts",
        "span_corruption_pairs",
        "events_user_cume_dist",
        "events_winsorized",
        "supplier_link_prediction",
        "events_per_minute_dense",
        "bigram_lm_scores",
        "containment_dup_pairs",
        "link_host_degrees",
        "fim_psm_docs",
        "wordset_dedup",
        "lm_band_filtered_docs",
        "length_drift_report",
        "curation_funnel_report",
        "anchor_text_top",
        "c4_filtered_docs",
        "script_profile",
        "url_templates",
        "mention_contexts",
        "taxonomy_closure",
        "user_trend_fractions",
        "mixing_weights",
        "knn_hubness",
        "event_bursts",
        "link_density",
        "orders_weekly_deltas",
        "lineitem_pricing_summary",
        "gram_novelty",
        "activity_streaks",
        "customer_order_recency",
        "events_dow_hour",
        "component_size_hist",
]


def test_every_live_sql_oracle_is_gated(contract):
    """Drift guard: every oracle that is NOT a pinned golden must appear in
    the parametrized live-SQL gate below — a new query can't silently ship
    without a test leg."""
    # minhash banding recall < 1 at sf0.001 (25 of 28 exact-Jaccard pairs);
    # the driver gates it at sf0.01 where Ray == oracle exactly
    sf001_exempt = {"minhash_dedup_pairs"}
    live = set(contract.oracle_sql()) - set(contract._GOLDEN_QUERIES)
    assert live - sf001_exempt == set(_SQL_GATED), (
        sorted(live - sf001_exempt - set(_SQL_GATED)),
        sorted(set(_SQL_GATED) - live),
    )


@pytest.mark.parametrize("name", _SQL_GATED)
def test_query_matches_oracle(ray_session, contract, name):
    got = to_pandas(contract.queries()[name](SF_DIR))
    want = oracle_connection(SF_DIR).execute(contract.oracle_sql()[name]).df()
    assert compare_results(got, want) == "OK"


def test_rows_only_queries_produce_rows(ray_session, contract):
    for name in ["kg_chunks", "simhash_signatures", "lang_id", "doc_fingerprint",
                 "media_features"]:
        result = to_pandas(contract.queries()[name](SF_DIR))
        assert len(result) > 0, name


def test_entry_smoke(ray_session, contract):
    result = contract.entry()
    df = to_pandas(result)
    assert len(df) >= 0
    assert "subject" in df.columns and "graph_scope" in df.columns
    assert (df["graph_scope"] == "facts").any()


def test_langid_stopword_lists_in_sync(contract):
    """Drift guard for the 3 hand-written copies of the stopword-score
    CTE (lang_id / curated_packing / langid_confusion oracles): every
    copy's IN-lists must equal ops.text._STOPWORDS exactly."""
    import re

    from ontocast_ray.ops.text import _STOPWORDS

    oracles = contract.oracle_sql()
    for name in ("lang_id", "curated_packing", "langid_confusion"):
        sql = oracles[name]
        lists = re.findall(r"w IN \(([^)]*)\)", sql)
        assert len(lists) == 4, name
        for lng, lst in zip(("en", "de", "fr", "es"), lists):
            words = {w.strip().strip("'") for w in lst.split(",")}
            assert words == set(_STOPWORDS[lng]), (name, lng)


def test_bipartite_edge_ctes_in_sync(contract):
    """Drift guard for the supplier↔customer pairs/edges CTE copies in
    the graph oracles: normalized text must be identical everywhere."""
    import re

    def normalize(sql):
        m = re.search(
            r"pairs AS \(.*?\),\s*edges AS \(.*?\)", sql, re.S
        )
        return re.sub(r"\s+", " ", m.group(0)) if m else None

    oracles = contract.oracle_sql()
    forms = {
        name: normalize(oracles[name])
        for name in ("pagerank_suppliers", "ppr_even_seeds",
                     "lpa_communities", "neighbor_feature_agg",
                     "sampled_neighbors_3")
    }
    assert all(forms.values()), forms.keys()
    assert len(set(forms.values())) == 1, forms
