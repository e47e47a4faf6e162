"""Property tests for the mergeable sketches (ops/sketch.py): accuracy
against exact answers, and parallelism invariance (the driver golden /
SQL-oracle legs live in test_driver_contract.py)."""

import numpy as np
import pandas as pd
import pyarrow as pa

import ray.data

from ontocast_ray.ops.sketch import dd_quantiles, hll_distinct


def _hll_frame():
    rng = np.random.default_rng(17)
    # "big" exercises the raw HLL estimator at p=12 (50k >> 2.5m=10240);
    # "small" the linear-counting branch; duplicates must not inflate
    big = np.concatenate([np.arange(50_000), rng.integers(0, 50_000, 5_000)])
    small = np.concatenate([np.arange(100), np.arange(100), np.arange(100)])
    keys = np.concatenate([big, small]).astype(np.int64)
    groups = ["big"] * len(big) + ["small"] * len(small)
    return pa.table({"g": pa.array(groups), "k": pa.array(keys)})


def test_hll_accuracy_and_dup_insensitivity(ray_session):
    ds = ray.data.from_arrow(_hll_frame()).repartition(8)
    out = (
        hll_distinct(ds, key_col="k", group_col="g", p=12)
        .to_pandas()
        .set_index("g")["approx_distinct"]
    )
    assert abs(out["big"] - 50_000) / 50_000 < 0.05
    assert abs(out["small"] - 100) / 100 < 0.05


def test_hll_parallelism_invariant(ray_session):
    tbl = _hll_frame()
    a = (
        hll_distinct(ray.data.from_arrow(tbl), "k", "g", p=12)
        .to_pandas().sort_values("g").reset_index(drop=True)
    )
    b = (
        hll_distinct(ray.data.from_arrow(tbl).repartition(16), "k", "g", p=12)
        .to_pandas().sort_values("g").reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(a, b)


def _dd_frame():
    rng = np.random.default_rng(23)
    a = rng.lognormal(mean=1.0, sigma=1.5, size=20_000)
    b = rng.lognormal(mean=3.0, sigma=0.5, size=20_000)
    vals = np.concatenate([a, b])
    groups = ["a"] * len(a) + ["b"] * len(b)
    return pa.table({"g": pa.array(groups), "v": pa.array(vals)}), a, b


def test_dd_quantiles_relative_error_bound(ray_session):
    tbl, a, b = _dd_frame()
    out = (
        dd_quantiles(
            ray.data.from_arrow(tbl).repartition(8),
            value_col="v", group_col="g",
            quantiles=(0.5, 0.95, 0.99), alpha=0.02,
        )
        .to_pandas().set_index("g")
    )
    for g, vals in (("a", a), ("b", b)):
        for q, col in ((0.5, "q_5"), (0.95, "q_95"), (0.99, "q_99")):
            exact = np.quantile(vals, q, method="lower")
            rel = abs(out.loc[g, col] - exact) / exact
            # DDSketch guarantee is alpha; 1.5x headroom for the rank
            # discretization between 'lower' and the sketch's definition
            assert rel < 1.5 * 0.02, (g, col, rel)


def test_dd_quantiles_zeros_and_invariance(ray_session):
    vals = np.concatenate([np.zeros(60), np.full(40, 5.0)])
    tbl = pa.table({"g": pa.array(["z"] * 100), "v": pa.array(vals)})
    out = dd_quantiles(
        ray.data.from_arrow(tbl), "v", "g", quantiles=(0.5, 0.99), alpha=0.01
    ).to_pandas()
    assert out.loc[0, "q_5"] == 0.0          # majority zeros → p50 exactly 0
    assert abs(out.loc[0, "q_99"] - 5.0) / 5.0 < 0.01

    a = dd_quantiles(ray.data.from_arrow(tbl), "v", "g").to_pandas()
    b = dd_quantiles(
        ray.data.from_arrow(tbl).repartition(16), "v", "g"
    ).to_pandas()
    pd.testing.assert_frame_equal(
        a.sort_values("g").reset_index(drop=True),
        b.sort_values("g").reset_index(drop=True),
    )


def test_dd_quantiles_rejects_negative(ray_session):
    import pytest

    tbl = pa.table({"g": ["x"], "v": [-1.0]})
    with pytest.raises(Exception):
        dd_quantiles(ray.data.from_arrow(tbl), "v", "g").to_pandas()


def test_heavy_hitters_exact_above_threshold(ray_session):
    """Two-pass MG heavy hitters == exact HAVING answer, with k small
    enough that pass 1 genuinely prunes (candidates < vocabulary)."""
    from collections import Counter

    from ontocast_ray.ops.sketch import heavy_hitters

    rng = np.random.default_rng(23)
    # zipf-ish corpus: ~300 distinct words, a few dominating; words must
    # be purely alphabetic (the tokenizer is lower + [a-z]+)
    vocab = np.array(
        [f"w{chr(97 + i // 26)}{chr(97 + i % 26)}" for i in range(300)],
        dtype=object,
    )
    weights = 1.0 / np.arange(1, 301)
    weights /= weights.sum()
    docs = []
    for _ in range(60):
        words = rng.choice(vocab, size=200, p=weights)
        docs.append(" ".join(words))
    exact = Counter(w for d in docs for w in d.split())
    threshold = 120  # N = 12000, k=128 -> N/(k+1) = 93 < 120: guarantee holds
    exp = sorted(
        ((w, c) for w, c in exact.items() if c >= threshold),
        key=lambda t: (-t[1], t[0]),
    )
    ds = ray.data.from_arrow(
        pa.table({"text": pa.array(docs, type=pa.string())})
    ).repartition(6)
    got = heavy_hitters(ds, threshold=threshold, k=128).to_pandas()
    assert list(zip(got["term"], got["n_count"])) == exp
    # guarantee violation raises instead of silently missing terms
    import pytest

    with pytest.raises(ValueError):
        heavy_hitters(ds, threshold=2, k=16).to_pandas()


def test_heavy_hitters_flat_batch_empty_mg_summary(ray_session, monkeypatch):
    """A batch with > k distinct terms all at equal count decrements every
    MG counter to zero — the summary is empty but the batch token total
    must still feed the N/(k+1) bound (regression: pyarrow column-length
    crash + silently lost token mass)."""
    from collections import Counter

    from ontocast_ray.ops import sketch
    from ontocast_ray.ops.sketch import heavy_hitters

    # one flat batch: 40 distinct words (> k=8), each exactly 5 times
    flat_words = [f"fl{chr(97 + i // 26)}{chr(97 + i % 26)}" for i in range(40)]
    flat_doc = " ".join(w for w in flat_words for _ in range(5))
    # one skewed batch providing genuine heavy hitters
    skew_doc = " ".join(["hot"] * 50 + ["warm"] * 30 + flat_words)
    exact = Counter((flat_doc + " " + skew_doc).split())
    # N = 200 + 120 = 320 tokens, k=8 -> N/(k+1) = 35 < threshold 40
    ds = ray.data.from_arrow(
        pa.table({"text": pa.array([flat_doc, skew_doc], type=pa.string())})
    ).repartition(2)
    monkeypatch.setattr(sketch, "_HEAVY_HITTER_BATCH_ROWS", 1)
    got = heavy_hitters(ds, threshold=40, k=8).to_pandas()
    exp = sorted(
        ((w, c) for w, c in exact.items() if c >= 40),
        key=lambda t: (-t[1], t[0]),
    )
    assert list(zip(got["term"], got["n_count"])) == exp
    assert "hot" in set(got["term"])
