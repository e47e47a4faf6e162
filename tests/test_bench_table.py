"""bench.py is a table over the query registry: every operator leg is a
``queries()`` name, and the headline legs stay the five the ``value``
has always summed. Ray-free."""

import os
import subprocess
import sys

import __ray_entry__ as entry
import bench

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_import_bench_does_not_start_ray():
    out = subprocess.run(
        [sys.executable, "-c", "import sys, bench; print('ray' in sys.modules)"],
        cwd=REPO, capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "False"


def test_extra_legs_are_distinct_registry_names():
    legs = bench.EXTRA_QUERIES
    assert len(set(legs)) == len(legs)
    assert set(legs) <= set(entry.queries())


def test_headline_legs():
    assert list(bench.HEADLINE) == [
        "kg_pipeline", "exact_dedup", "minhash_dedup", "knn_bruteforce",
        "text_stats",
    ]
