"""Driver-style correctness + cost sweep of every queries() entry.

    PYTHONPATH=. python tools/gate_sweep.py [sf_dir] [num_cpus]

Runs each query at the driver's gate SF (default sf0.01), compares
against its oracle with ``ontocast_ray.parity.compare_results``, and
prints per-query wall time sorted slowest-first plus a BAD summary. Use
before every round close: the heaviest legs are the ones a driver timeout
would hit first. The JSON line also holds ``exchanges``: per query, the
``[kernel, path, bytes, blocks, map_blocks]`` of every ``shuffle_by`` call
it made, read from that op's DEBUG log (``map_blocks``: the block count
after the exchange's coalescing), and ``executions``: per query, the
number of Ray Data streaming executions it started, counted from Ray
Data's "Starting execution of Dataset" records (a run whose plan is only
input blocks logs none), with their sum in ``executions_total``.
"""

from __future__ import annotations

import json
import logging
import os
import sys
import time

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, REPO)


class _Exchanges(logging.Handler):
    """Collects ``shuffle_by``'s DEBUG records as [kernel, path, bytes,
    blocks, map_blocks] under the query that is running. The task launches
    that its child logger ``ontocast_ray.ops.shuffle.map_blocks`` records
    (the gather's among them) are not exchanges and are skipped."""

    def __init__(self):
        super().__init__(logging.DEBUG)
        self.query, self.calls = None, {}

    def emit(self, record):
        if not record.msg.startswith("shuffle_by "):
            return
        kernel, path, _rows, size, blocks, map_blocks, _p = record.args
        self.calls.setdefault(self.query, []).append(
            [kernel, path, size, blocks, map_blocks])


class _Executions(logging.Handler):
    """Counts Ray Data's "Starting execution of Dataset" records, one per
    streaming execution, under the query that is running."""

    LOGGER = "ray.data._internal.execution.streaming_executor"

    def __init__(self):
        super().__init__(logging.INFO)
        self.query, self.counts = None, {}

    def emit(self, record):
        if record.getMessage().startswith("Starting execution of Dataset"):
            self.counts[self.query] = self.counts.get(self.query, 0) + 1


def main(sf="/root/testdata/sf0.01", num_cpus=32) -> int:
    import ray

    from ontocast_ray.parity import compare_results, oracle_connection, to_pandas

    if not ray.is_initialized():
        ray.init(
            address="local", num_cpus=int(num_cpus),
            include_dashboard=False,
        )
    import __ray_entry__ as entry
    from ontocast_ray.ops import shuffle

    exchanges = _Exchanges()
    log = logging.getLogger(shuffle.__name__)
    log.addHandler(exchanges)
    log.setLevel(logging.DEBUG)
    executions = _Executions()
    logging.getLogger(_Executions.LOGGER).addHandler(executions)
    con = oracle_connection(sf)
    qs, oracles = entry.queries(), entry.oracle_sql()
    # off the sf0.01 gate, _GATE_SF_ONLY oracles are not exact
    at_gate = os.path.basename(str(sf).rstrip("/")) == "sf0.01"
    results = {}
    t_all = time.perf_counter()
    for name, fn in qs.items():
        exchanges.query = executions.query = name
        t0 = time.perf_counter()
        try:
            rdf = to_pandas(fn(sf))
            dt = time.perf_counter() - t0
            if name not in oracles:
                status = "NO_ORACLE"
            elif name in entry._GATE_SF_ONLY and not at_gate:
                status = "sf0.01-only"
            else:
                status = compare_results(
                    rdf, con.execute(oracles[name]).df()
                )
            results[name] = (round(dt, 2), len(rdf), status)
        except Exception as ex:  # noqa: BLE001 - sweep must finish
            results[name] = (
                round(time.perf_counter() - t0, 2), -1,
                f"ERROR {type(ex).__name__}: {str(ex)[:120]}",
            )
    print(json.dumps(
        {"total_s": round(time.perf_counter() - t_all, 1),
         "n": len(results), "exchanges": exchanges.calls,
         "executions": executions.counts,
         "executions_total": sum(executions.counts.values())}
    ))
    for name, (dt, n, st) in sorted(
        results.items(), key=lambda kv: -kv[1][0]
    ):
        print(f"{dt:8.2f}s {n:8d} {st:<14} {name}")
    bad = {k: v for k, v in results.items()
           if v[2] not in ("OK", "sf0.01-only")}
    print("BAD:", json.dumps(bad) if bad else "none")
    ray.shutdown()
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main(*sys.argv[1:]))
