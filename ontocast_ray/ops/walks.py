"""Deterministic random walks over a large graph (DeepWalk/node2vec
corpus prep — the step that turns an entity/link graph into training
sequences for graph embeddings).

Determinism contract (the engine-wide RNG rule, ops/interleave.py): the
neighbor choice at (node, step) is ``splitmix64(node·4 + step, seed) %
degree(node)`` — a pure function of the graph and the seed, so the walk
corpus is identical across runs, parallelism levels and cluster sizes,
and the whole schedule is re-derivable in SQL (ROW_NUMBER-ranked
adjacency + the splitmix mirror).

Scale shape:
- adjacency is ranked ONCE: one coarse ``hash(src) % P`` shuffle, the
  kernel sorts and cumcounts every src in the partition vectorized, and
  each neighbor row gets a composite int64 key ``src·SHIFT + rank`` —
  the walk step then needs only EQUALITY joins (never a per-walk scan of
  a node's neighbor list, so hot nodes cost one row per walk, not one
  row per neighbor);
- each step = two partitioned hash joins (state ⋈ degree → pick index;
  state ⋈ adjacency on the composite key → advance), both coarse
  shuffles of walk-count-sized tables; n_steps is a small constant;
- the ranked adjacency is materialized once and reused by every step
  (multi-consumer lineage rule).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

import ray.data

__all__ = ["deterministic_walks"]

_SHIFT = np.int64(1) << np.int64(21)  # max degree bound per node
# the draw key node·4 + step is unique per (node, step) only for step < 4
_MAX_STEPS = 3


def _walks_driver(
    edges: "ray.data.Dataset", n_steps: int, seed: int,
    start_below: int | None,
) -> "ray.data.Dataset":
    """Bounded-size fast path: the identical walk spec vectorized on the
    driver (the pagerank `_SMALL_EDGE_LIMIT` rationale — below the limit
    the per-step shuffle overhead dwarfs the work by orders of
    magnitude; measured 209 s → <1 s at the sf0.01 gate)."""
    from .interleave import splitmix64

    srcs, dsts = [], []
    for b in edges.iter_batches(batch_size=None, batch_format="pyarrow"):
        srcs.append(b["src"].to_numpy(zero_copy_only=False))
        dsts.append(b["dst"].to_numpy(zero_copy_only=False))
    src = (np.concatenate(srcs) if srcs else np.array([], np.int64)).astype(np.int64)
    dst = (np.concatenate(dsts) if dsts else np.array([], np.int64)).astype(np.int64)
    # dst-ASC-ranked distinct adjacency — byte-identical to rank_kernel
    pairs = np.unique(np.stack([src, dst], axis=1), axis=0)
    src, dst = pairs[:, 0], pairs[:, 1]
    nodes, starts_idx = np.unique(src, return_index=True)
    deg = np.diff(np.append(starts_idx, len(src))).astype(np.int64)
    if len(deg) and deg.max() >= int(_SHIFT):
        raise ValueError("node degree exceeds the 2^21 composite bound")
    starts = nodes if start_below is None else nodes[nodes < start_below]
    out_start = [starts]
    out_step = [np.zeros(len(starts), dtype=np.int64)]
    out_node = [starts]
    cur = starts.copy()
    for t in range(1, n_steps + 1):
        if len(cur) == 0 or len(nodes) == 0:
            break
        pos = np.searchsorted(nodes, cur)
        pos = np.minimum(pos, max(len(nodes) - 1, 0))
        has = len(nodes) > 0
        hit = nodes[pos] == cur if has else np.zeros(len(cur), bool)
        draw = splitmix64((cur * 4 + t).astype(np.uint64), seed=seed)
        idx = (draw[hit] % deg[pos[hit]].astype(np.uint64)).astype(np.int64)
        nxt = dst[starts_idx[pos[hit]] + idx]
        keep_start = out_start[-1][hit] if t > 1 else starts[hit]
        out_start.append(keep_start)
        out_step.append(np.full(len(nxt), t, dtype=np.int64))
        out_node.append(nxt)
        cur = nxt
        starts = keep_start
    return ray.data.from_arrow(pa.table({
        "start": pa.array(np.concatenate(out_start)),
        "step": pa.array(np.concatenate(out_step)),
        "node": pa.array(np.concatenate(out_node)),
    }))


_SMALL_EDGE_LIMIT = 2_000_000  # read at call time; 0 forces the distributed joins


def deterministic_walks(
    edges: "ray.data.Dataset",
    n_steps: int = 3,
    seed: int = 41,
    start_below: int | None = None,
) -> "ray.data.Dataset":
    """→ (start, step, node): one deterministic walk of ``n_steps`` hops
    from every distinct source node (optionally only sources
    ``< start_below``), step 0 = the start itself. ``edges`` is directed
    (src, dst) rows — pass both directions for an undirected graph.
    Degrees above 2^21 violate the composite-key bound and raise, and so
    does ``n_steps > 3`` (the draw-key bound: ``node·4 + step`` collides
    across nodes from step 5 on).

    Up to ``_SMALL_EDGE_LIMIT`` edges the exact-identical driver fast
    path runs (tests set it to 0 to force the distributed joins); on the
    distributed path the node-sized degree table broadcasts onto the
    walk state (one searchsorted map per step) and only the EDGE-sized
    ranked adjacency is a partitioned join.
    """
    from .interleave import splitmix64
    from .shuffle import shuffle_by

    if n_steps > _MAX_STEPS:
        raise ValueError(
            f"n_steps={n_steps} exceeds the draw-key bound {_MAX_STEPS}: "
            "the key node*4 + step is unique per (node, step) only for step < 4"
        )
    if _SMALL_EDGE_LIMIT:
        edges = edges.materialize()
        if edges.count() <= _SMALL_EDGE_LIMIT:
            return _walks_driver(edges, n_steps, seed, start_below)

    def rank_kernel(df: "pd.DataFrame") -> "pd.DataFrame":
        g = df.drop_duplicates(["src", "dst"]).sort_values(
            ["src", "dst"], kind="mergesort"
        )
        rank = g.groupby("src", sort=False).cumcount().to_numpy(np.int64)
        deg = (
            g.groupby("src", sort=False)["dst"]
            .transform("size")
            .to_numpy(np.int64)
        )
        if len(deg) and deg.max() >= int(_SHIFT):
            raise ValueError("node degree exceeds the 2^21 composite bound")
        src = g["src"].to_numpy(np.int64)
        return pd.DataFrame({
            "src": src,
            "rank": rank,
            "dst": g["dst"].to_numpy(np.int64),
            "deg": deg,
            "akey": src * _SHIFT + rank,
        })

    # consumed by degs + every step join
    ranked = shuffle_by(edges, "src", rank_kernel).materialize()

    def only_rank0(batch: "pa.Table") -> "pa.Table":
        import pyarrow.compute as pc

        f = batch.filter(pc.equal(batch["rank"], pa.scalar(0)))
        return f.select(["src", "deg"])

    degs = ranked.map_batches(only_rank0, batch_format="pyarrow").materialize()

    def mk_start(batch: "pa.Table") -> "pa.Table":
        import pyarrow.compute as pc

        t = batch
        if start_below is not None:
            t = t.filter(pc.less(t["src"], pa.scalar(start_below)))
        s = t["src"].combine_chunks()
        return pa.table({"start": s, "cur": s})

    state = degs.map_batches(mk_start, batch_format="pyarrow").materialize()

    def emit(step: int):
        def kern(batch: "pa.Table") -> "pa.Table":
            return pa.table({
                "start": batch["start"].combine_chunks().cast(pa.int64()),
                "step": pa.array(
                    np.full(len(batch), step, dtype=np.int64)
                ),
                "node": batch["cur"].combine_chunks().cast(pa.int64()),
            })

        return kern

    from .joins import broadcast_join_int, hash_join

    out = state.map_batches(emit(0), batch_format="pyarrow")
    for t in range(1, n_steps + 1):
        # the degree table is NODE-sized (two int64 cols) → broadcast it
        # onto the walk state instead of a partitioned join per step
        with_deg = broadcast_join_int(
            state, degs, big_key="cur", small_key="src",
            small_val="deg", out_col="deg",
        )

        def pick(batch: "pa.Table", _t=t) -> "pa.Table":
            cur = batch["cur"].to_numpy(zero_copy_only=False).astype(np.int64)
            deg = batch["deg"].to_numpy(zero_copy_only=False).astype(np.uint64)
            draw = splitmix64(
                (cur * 4 + _t).astype(np.uint64), seed=seed
            )
            idx = (draw % deg).astype(np.int64)
            return pa.table({
                "skey": pa.array(cur * _SHIFT + idx),
                "start": batch["start"].combine_chunks().cast(pa.int64()),
            })

        # materialize: hash_join schema-probes its lazy inputs, which
        # re-executes this chain's groupby lineage block-by-block
        keyed = with_deg.map_batches(
            pick, batch_format="pyarrow"
        ).materialize()
        stepped = hash_join(
            keyed, ranked,
            left_on="skey", right_on="akey",
            left_cols=["start"], right_cols=["dst"],
        )

        def to_state(batch: "pa.Table") -> "pa.Table":
            return pa.table({
                "start": batch["start"].combine_chunks().cast(pa.int64()),
                "cur": batch["dst"].combine_chunks().cast(pa.int64()),
            })

        state = stepped.map_batches(
            to_state, batch_format="pyarrow"
        ).materialize()  # consumed by emit + next step's join
        out = out.union(state.map_batches(emit(t), batch_format="pyarrow"))
    return out
