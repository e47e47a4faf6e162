"""Session-scoped Ray fixture — Ray is initialised ONCE per pytest session —
and ``both_paths``, which runs a case on both paths of ``shuffle_by``."""

from __future__ import annotations

import pytest


@pytest.fixture(scope="session")
def ray_session():
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=4,
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    yield ray
    ray.shutdown()


@pytest.fixture(scope="session", autouse=True)
def _quiet_ray_data():
    try:
        from ray.data import DataContext

        ctx = DataContext.get_current()
        ctx.enable_progress_bars = False
        ctx.execution_options.verbose_progress = False
    except Exception:
        pass
    yield


@pytest.fixture
def both_paths(monkeypatch):
    """Call to iterate the two paths of ``ops.shuffle.shuffle_by``: yields
    "gather", then "sort" with the byte limit patched to 0."""
    from ontocast_ray.ops import shuffle

    def each():
        for path, limit in (("gather", shuffle._GATHER_BYTES), ("sort", 0)):
            monkeypatch.setattr(shuffle, "_GATHER_BYTES", limit)
            yield path

    return each
