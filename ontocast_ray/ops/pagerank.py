"""Distributed PageRank in exact integer arithmetic.

Float PageRank sums are order-dependent, so two engines (or two runs at
different parallelism) disagree in the last ulps — useless for bit-exact
verification. This op fixes the SPEC in integer floor arithmetic, where
every step is exact and order-free:

- total mass ``M`` (default 10¹²), damping ``d_num/d_den`` (default 17/20)
- ``R₀(v) = M // N``
- per iteration:
  - ``give(u) = R(u) // outdeg(u)``            (nodes with out-edges)
  - ``S(v)   = Σ_{(u,v)∈E} give(u)``            (exact integer sum)
  - ``D      = Σ_{outdeg(u)=0} R(u)``           (dangling mass)
  - ``R'(v)  = T + (d_num · (S(v) + D // N)) // d_den`` with teleport
    ``T = (M - (d_num·M) // d_den) // N``

Multi-edges contribute multiply (weighted semantics); pass a deduped edge
set for simple-graph semantics. Mass is not exactly conserved (floors
drop remainders) — the spec IS the floor arithmetic, mirrored verbatim by
the SQL oracle.

Execution shape: rank state is ``(node, r, outdeg)`` so ``give`` and the
dangling mass are pure maps over the materialized state; each iteration
costs exactly TWO coarse hash shuffles — ``edges ⋈ give`` (partitioned
hash join) and one ``groupby(node)`` that simultaneously sums the
contributions and re-attaches the static outdeg via a sentinel ``Max``
over per-node carrier rows (the ``zero_base`` dataset: one row per node,
give=0, its outdeg; contribution rows carry outdeg=-1). Nothing node- or
edge-sized ever reaches the driver — only the scalars N and D.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray
import ray.data
from ontocast_ray.ops.joins import hash_join

_STATE_SCHEMA = pa.schema(
    [("node", pa.int64()), ("r", pa.int64()), ("outdeg", pa.int64())]
)


def _project_nodes(edges: "ray.data.Dataset") -> "ray.data.Dataset":
    """Distinct node ids of src ∪ dst — one groupby, no driver set."""

    def both(batch: pa.Table) -> pa.Table:
        return pa.table(
            {"node": pa.concat_arrays(
                [batch["src"].combine_chunks(), batch["dst"].combine_chunks()]
            )}
        )

    return (
        edges.map_batches(both, batch_format="pyarrow")
        .groupby("node")
        .count()
        .select_columns(["node"])
    )


# below this many edges the per-iteration shuffle overhead (2 AllToAll
# rounds × n_iters) dwarfs the work; the driver fallback is exact-identical
# (same integer spec) and zero-shuffle — same rationale as the union-find
# fallback in ops/graph_cc.py. Read at call time; set to 0 to force the
# distributed path.
_SMALL_EDGE_LIMIT = 2_000_000


def _pagerank_driver(
    edges: "ray.data.Dataset", n_iters: int, mass: int, d_num: int,
    d_den: int, seed_mod: int | None = None, seed_rem: int = 0
) -> "ray.data.Dataset":
    """Bounded-size fast path: vectorized integer PageRank on the driver.
    With ``seed_mod`` set, teleport + dangling mass flow ONLY to nodes
    with ``node % seed_mod == seed_rem`` (personalized PageRank)."""
    # iter_batches + concat, NOT take_all: a 1M-edge take_all materializes
    # a Python dict per row (measured ~2 s at the bench's 1.17M edges);
    # the arrow path is one zero-copy numpy view per block
    srcs, dsts = [], []
    for b in edges.iter_batches(batch_size=None, batch_format="pyarrow"):
        srcs.append(b["src"].to_numpy(zero_copy_only=False))
        dsts.append(b["dst"].to_numpy(zero_copy_only=False))
    src = (np.concatenate(srcs) if srcs else np.array([], dtype=np.int64)).astype(np.int64)
    dst = (np.concatenate(dsts) if dsts else np.array([], dtype=np.int64)).astype(np.int64)
    nodes, inv = np.unique(np.concatenate([src, dst]), return_inverse=True)
    src_i, dst_i = inv[: len(src)], inv[len(src):]
    n = len(nodes)
    outdeg = np.bincount(src_i, minlength=n).astype(np.int64)
    if seed_mod is None:
        seed = np.ones(n, dtype=bool)
        n_t = n
    else:
        seed = (nodes % seed_mod) == seed_rem
        n_t = max(int(seed.sum()), 1)
    tele = np.where(seed, (mass - (d_num * mass) // d_den) // n_t, 0)
    r = np.full(n, mass // n, dtype=np.int64)
    for _ in range(n_iters):
        give = np.where(outdeg > 0, r // np.maximum(outdeg, 1), 0)
        dangling = int(r[outdeg == 0].sum())
        s = np.zeros(n, dtype=np.int64)
        np.add.at(s, dst_i, give[src_i])
        r = tele + (d_num * (s + np.where(seed, dangling // n_t, 0))) // d_den
    return ray.data.from_arrow(
        pa.table({"node": pa.array(nodes), "rank": pa.array(r)})
    )


def pagerank_int(
    edges: "ray.data.Dataset",
    n_iters: int = 3,
    mass: int = 10**12,
    d_num: int = 17,
    d_den: int = 20,
    seed_mod: int | None = None,
    seed_rem: int = 0,
) -> "ray.data.Dataset":
    """→ (node, rank): integer PageRank after ``n_iters`` exact rounds.

    ``seed_mod``/``seed_rem`` switch to PERSONALIZED PageRank: teleport
    and dangling mass flow only to seed nodes (``node % seed_mod ==
    seed_rem``), split evenly over |S| — random-walk-with-restart
    relevance to the seed set, the recommendation/similar-entities
    primitive. The seed set is a pure node PREDICATE (no broadcast set,
    SQL-replayable verbatim); initial rank stays uniform M // N (spec
    choice, mirrored)."""
    import pyarrow.compute as pc

    from ray.data.aggregate import Max, Sum

    edges = edges.select_columns(["src", "dst"]).materialize()
    if edges.count() <= _SMALL_EDGE_LIMIT:
        return _pagerank_driver(
            edges, n_iters, mass, d_num, d_den, seed_mod, seed_rem
        )
    outdeg = (
        edges.groupby("src")
        .count()
        .map_batches(
            lambda b: pa.table(
                {"node": b["src"], "outdeg": b["count()"].cast(pa.int64())}
            ),
            batch_format="pyarrow",
        )
    )
    # one-time state build: every node with its static outdeg (0 if sink)
    state = hash_join(
        _project_nodes(edges),
        outdeg,
        left_on="node",
        right_on="node",
        left_cols=[],
        right_cols=["outdeg"],
        how="left",
    ).map_batches(
        lambda b: pa.table(
            {
                "node": pa.array(np.asarray(b["node"], dtype=np.int64)),
                "outdeg": pa.array(
                    b["outdeg"].to_numpy(dtype="float64", na_value=0).astype(np.int64)
                ),
            }
        ),
        batch_format="pandas",
    ).materialize()
    n = state.count()
    if seed_mod is None:
        n_t = n
    else:
        n_t = max(
            state.map_batches(
                lambda b: pa.table({"is_seed": pa.array(
                    ((b["node"].to_numpy(zero_copy_only=False)
                      % seed_mod) == seed_rem).astype(np.int64)
                )}),
                batch_format="pyarrow",
            ).sum("is_seed") or 0,
            1,
        )
    teleport = (mass - (d_num * mass) // d_den) // n_t
    r0 = mass // n

    # static carrier rows: one per node, give=0, real outdeg — the groupby
    # below re-attaches outdeg via Max against the -1 sentinel on
    # contribution rows, replacing a second per-iteration join
    zero_base = state.map_batches(
        lambda b: pa.table(
            {"node": b["node"], "give": pa.nulls(len(b), pa.int64()).fill_null(0),
             "outdeg": b["outdeg"]}
        ),
        batch_format="pyarrow",
    ).materialize()

    ranks = state.map_batches(
        lambda b: pa.table(
            {"node": b["node"],
             "r": pa.array(np.full(len(b), r0, dtype=np.int64)),
             "outdeg": b["outdeg"]}
        ),
        batch_format="pyarrow",
    ).materialize()

    for _ in range(n_iters):
        def give_rows(batch: pa.Table) -> pa.Table:
            deg = batch["outdeg"].to_numpy(zero_copy_only=False)
            r = batch["r"].to_numpy(zero_copy_only=False)
            mask = deg > 0
            give = r[mask] // deg[mask]
            return pa.table(
                {
                    "node": pa.array(
                        batch["node"].to_numpy(zero_copy_only=False)[mask]
                    ),
                    "give": pa.array(give),
                }
            )

        def dangling_rows(batch: pa.Table) -> pa.Table:
            deg = batch["outdeg"].to_numpy(zero_copy_only=False)
            r = batch["r"].to_numpy(zero_copy_only=False)
            return pa.table({"r_dangling": pa.array(np.where(deg > 0, 0, r))})

        dangling = (
            ranks.map_batches(dangling_rows, batch_format="pyarrow")
            .aggregate(Sum("r_dangling", alias_name="d"))["d"]
            or 0
        )
        share = dangling // n_t

        contrib = hash_join(
            edges,
            ranks.map_batches(give_rows, batch_format="pyarrow"),
            left_on="src",
            right_on="node",
            left_cols=["dst"],
            right_cols=["give"],
            how="inner",
        ).map_batches(
            lambda b: pa.table(
                {
                    "node": pa.array(np.asarray(b["dst"], dtype=np.int64)),
                    "give": pa.array(np.asarray(b["give"], dtype=np.int64)),
                    "outdeg": pa.array(np.full(len(b), -1, dtype=np.int64)),
                }
            ),
            batch_format="pandas",
        )

        sums = (
            contrib.union(zero_base)
            .groupby("node")
            .aggregate(Sum("give", alias_name="s"), Max("outdeg", alias_name="outdeg"))
        )

        def update(batch: pa.Table, _share: int = share) -> pa.Table:
            s = batch["s"].to_numpy(zero_copy_only=False)
            if seed_mod is None:
                r = teleport + (d_num * (s + _share)) // d_den
            else:
                node = batch["node"].to_numpy(zero_copy_only=False)
                is_seed = (node % seed_mod) == seed_rem
                r = (
                    np.where(is_seed, teleport, 0)
                    + (d_num * (s + np.where(is_seed, _share, 0))) // d_den
                )
            return pa.table(
                {"node": batch["node"], "r": pa.array(r),
                 "outdeg": batch["outdeg"].cast(pa.int64())}
            )

        ranks = sums.map_batches(update, batch_format="pyarrow").materialize()

    return ranks.map_batches(
        lambda b: pa.table({"node": b["node"], "rank": b["r"]}),
        batch_format="pyarrow",
    )
