"""Session-scoped Ray fixture — Ray is initialised ONCE per pytest session —
``both_paths``, which runs a case on both paths of ``shuffle_by``, and
``executions``, which records the Ray Data executions a case starts."""

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


@pytest.fixture
def executions(monkeypatch):
    """A list that gets the DAG string of every Ray Data streaming
    execution started while the test runs (the executor's ``execute``
    is wrapped)."""
    from ray.data._internal.execution.streaming_executor import StreamingExecutor

    started, real = [], StreamingExecutor.execute

    def counting(self, dag, *args, **kwargs):
        started.append(dag.dag_str)
        return real(self, dag, *args, **kwargs)

    monkeypatch.setattr(StreamingExecutor, "execute", counting)
    return started
