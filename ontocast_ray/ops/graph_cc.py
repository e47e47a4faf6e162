"""Distributed connected components over duplicate-pair edges.

The dedup end-game: pair lists (exact / MinHash / SimHash / embedding)
become KEEP-LISTS by grouping pairs into components and keeping each
component's min doc_id. Components need transitive closure, which no
single groupby expresses — this is the alternating large-star / small-star
map-reduce algorithm (Kiveris et al., "Connected Components in MapReduce
and Beyond", SOCC'14): every round is two edge-scale groupbys, converging
in O(log n) rounds; nothing corpus-sized is touched and the driver only
sees per-round COUNTS for the convergence check.

Execution shape (the part that must survive 100 TB):

- Both star groupbys run on a COARSE key ``hash(u) % P`` — one Python
  call per partition, not per node — and the kernels are fully
  vectorized (one pandas ``groupby(...).transform("min")`` C call per
  partition handles every node in it at once).
- The per-round DISTINCT is fused into the kernels: the same (u, v) edge
  always hashes to the same partition, so a partition-local
  ``drop_duplicates`` is a global distinct.  This removes one all-to-all
  shuffle per round (the old ``groupby(["u","v"]).aggregate(Count)``),
  leaving exactly two shuffles per round — the algorithmic minimum.
- ``shuffle_by`` sizes ``P`` from its input's row count, so per-reducer
  work is bounded at any scale.

Edge rows are two int64s — at 100 TB the edge set (candidate pairs) is
orders of magnitude smaller than the corpus, so each round's shuffle is
cheap relative to a single corpus pass.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

import ray.data

from ontocast_ray.ops.interleave import splitmix64
from ontocast_ray.ops.shuffle import shuffle_by

_EDGE_SCHEMA = pa.schema([("u", pa.int64()), ("v", pa.int64())])

# Size limits at or below which an op takes its driver or broadcast fast
# path. Read at call time, so a test can set one to 0 to force the
# distributed path.
_SMALL_EDGE_LIMIT = 2_000_000  # triangle_count, label_propagation: edges
_BROADCAST_LIMIT = 2_000_000  # k_core fringe nodes, ancestor_closure jump rows
_KEEP_LIST_BROADCAST = 5_000_000  # apply_keep_list: dropped ids (≈40 MB of int64)
_KEEP_BEST_BROADCAST = 1_000_000  # dedup_keep_best: pair-graph members

# neighbor_feature_sum: blocks of the V-sized feature carrier between hops.
# A sorted shuffle_by leaves one near-empty block per partition and the next
# hop's join would double them again (tiny-blocks snowball: 65 s vs 9 s on
# the 1600-node gate graph); without the repartition the forced-sort leg
# read 4.19 s against 3.95 s.
_CARRIER_BLOCKS = 4


def _large_star_part(df: pd.DataFrame) -> pd.DataFrame:
    """Large-star over a coarse hash(u) partition.

    For each u in the partition: m = min(N(u) ∪ {u}); emit (v, m) for
    v in N(u) with v > u.  Vectorized: one ``transform("min")`` covers
    every u in the partition.  ``drop_duplicates`` here is a GLOBAL
    distinct (same (u,v) always lands in the same partition).
    """
    df = df.drop_duplicates(subset=["u", "v"])
    u = df["u"].to_numpy()
    v = df["v"].to_numpy()
    m = np.minimum(df.groupby("u", sort=False)["v"].transform("min").to_numpy(), u)
    mask = v > u
    return pa.table({"u": pa.array(v[mask], type=pa.int64()),
                     "v": pa.array(m[mask], type=pa.int64())})


def _small_star_part(df: pd.DataFrame) -> pd.DataFrame:
    """Small-star over a coarse hash(u) partition of max-min edges (v ≤ u).

    For each u: m = min(N(u) ∪ {u}) = min(N(u)) since all v ≤ u; emit
    (w, m) for w in N(u) ∪ {u}, w != m.  The ∪{u} member is added by
    concatenating one (u, u) row per distinct u; output is max-min form
    by construction (every emitted w > m).
    """
    df = df.drop_duplicates(subset=["u", "v"])
    uu = df["u"].unique()
    aug = pd.concat(
        [df[["u", "v"]], pd.DataFrame({"u": uu, "v": uu})], ignore_index=True
    ).drop_duplicates(subset=["u", "v"])
    m = aug.groupby("u", sort=False)["v"].transform("min").to_numpy()
    w = aug["v"].to_numpy()
    mask = w != m
    return pa.table({"u": pa.array(w[mask], type=pa.int64()),
                     "v": pa.array(m[mask], type=pa.int64())})


def _both_directions(batch: pa.Table) -> pa.Table:
    u = batch["u"].combine_chunks()
    v = batch["v"].combine_chunks()
    return pa.Table.from_arrays(
        [pa.concat_arrays([u, v]), pa.concat_arrays([v, u])], schema=_EDGE_SCHEMA
    )


def _as_max_min(batch: pa.Table) -> pa.Table:
    u = batch["u"].to_numpy(zero_copy_only=False)
    v = batch["v"].to_numpy(zero_copy_only=False)
    return pa.table({"u": pa.array(np.maximum(u, v)), "v": pa.array(np.minimum(u, v))})


def _local_union_find(edges: "ray.data.Dataset") -> "ray.data.Dataset":
    """Small-graph path: classic path-halving union-find on the driver.

    Each distributed star round costs ~4 small shuffles of fixed Ray
    overhead; below ``small_graph_threshold`` edges that overhead dwarfs
    the work, and the edge list (two int64 columns) fits trivially in
    driver memory — so solve exactly there and skip the rounds."""
    import pandas as pd

    df = pd.concat(
        [b.to_pandas() for b in edges.iter_batches(batch_format="pyarrow")],
        ignore_index=True,
    ) if edges.count() else None
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    if df is not None:
        for a, b in zip(df["u"].tolist(), df["v"].tolist()):
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)
    nodes = sorted(parent)
    return ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array(nodes, type=pa.int64()),
                "component": pa.array([find(n) for n in nodes], type=pa.int64()),
            }
        )
    )


def _broadcast_cc_rounds(
    edges: "ray.data.Dataset", max_rounds: int
) -> "ray.data.Dataset":
    """Min-label propagation with EDGES NEVER MOVING (the LPA broadcast
    shape transferred to connected components): labels are the O(V)
    driver-resident carrier; each round is ONE pure map over the static
    max-min edge blocks (both directions computed in-kernel) emitting
    map-combined per-node label minima that STREAM to the driver —
    zero shuffles per round, vs the star rounds' two. Converges to the
    component min in O(diameter) rounds — for dedup graphs (star-shaped
    near-dup clusters, diameter ≤ 3) that beats the O(log n) star
    alternation whose every round re-shuffles the edge multiset. Bound:
    V must fit the driver (same contract as `_broadcast_label_rounds`);
    for V beyond memory use the star rounds.
    """
    import ray

    # per-block unique BEFORE anything reaches the driver: each chunk is
    # ≤ the block's distinct endpoints, so driver transient memory is
    # O(V · blocks-per-node), not O(E)
    def block_nodes(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "node": np.unique(
                    np.concatenate(
                        [
                            batch["u"].to_numpy(zero_copy_only=False),
                            batch["v"].to_numpy(zero_copy_only=False),
                        ]
                    )
                )
            }
        )

    chunks = [
        part["node"].to_numpy()
        for part in edges.map_batches(
            block_nodes, batch_format="pyarrow"
        ).iter_batches(batch_format="pandas", batch_size=None)
    ]
    nodes = (
        np.unique(np.concatenate(chunks))
        if chunks
        else np.empty(0, dtype=np.int64)
    )
    lab = nodes.copy()
    compact_cap = max(4 * len(nodes), 262_144)

    for _ in range(max_rounds):
        ref = ray.put((nodes, lab))

        def vote(batch: pa.Table) -> pa.Table:
            ns, ls = ray.get(ref)
            u = batch["u"].to_numpy(zero_copy_only=False)
            v = batch["v"].to_numpy(zero_copy_only=False)
            m = np.minimum(ls[np.searchsorted(ns, u)],
                           ls[np.searchsorted(ns, v)])
            df = pd.DataFrame(
                {"node": np.concatenate([u, v]),
                 "m": np.concatenate([m, m])}
            )
            cnt = df.groupby("node", as_index=False)["m"].min()
            return pa.table({"node": pa.array(cnt["node"].to_numpy()),
                             "m": pa.array(cnt["m"].to_numpy())})

        acc = [pd.DataFrame({"node": pd.Series([], dtype=np.int64),
                             "m": pd.Series([], dtype=np.int64)})]
        acc_rows = 0
        for part in edges.map_batches(
            vote, batch_format="pyarrow"
        ).iter_batches(batch_format="pandas", batch_size=None):
            acc.append(part)
            acc_rows += len(part)
            if acc_rows > compact_cap:
                merged = (
                    pd.concat(acc, ignore_index=True)
                    .groupby("node", as_index=False)["m"].min()
                )
                acc, acc_rows = [merged], len(merged)
        mins = (
            pd.concat(acc, ignore_index=True)
            .groupby("node", as_index=False)["m"].min()
        )
        new = lab.copy()
        if len(mins):
            idx = np.searchsorted(nodes, mins["node"].to_numpy())
            new[idx] = np.minimum(new[idx], mins["m"].to_numpy())
        if (new == lab).all():
            break
        lab = new
    else:
        raise RuntimeError(
            f"broadcast CC did not converge in {max_rounds} rounds — "
            "graph diameter exceeds max_rounds; raise max_rounds or use "
            "the star rounds (mode='stars')"
        )
    return ray.data.from_arrow(
        pa.table({"doc_id": pa.array(nodes), "component": pa.array(lab)})
    )


def connected_components(
    pairs: "ray.data.Dataset",
    a_col: str = "doc_id_a",
    b_col: str = "doc_id_b",
    max_rounds: int = 50,
    small_graph_threshold: int = 1_000_000,
    mode: str = "auto",
) -> "ray.data.Dataset":
    """→ (doc_id, component): every node of the pair graph labeled with its
    component's min id. Alternating star rounds until the edge multiset is
    stable (checked via count + checksum aggregates — tiny driver values).

    Edge sets at or below ``small_graph_threshold`` (≈16 MB of int64
    pairs) solve exactly on the driver instead — the star rounds' fixed
    per-round shuffle overhead only pays off when edges outgrow one
    machine. Both paths are property-tested against each other.

    ``shuffle_by`` bounds its own input blocks and sizes its partitions
    from the row count (ops/shuffle.py), so per-reducer memory is bounded
    at any scale.
    """
    from ray.data.aggregate import Sum

    def to_edges(b: pa.Table) -> pa.Table:
        t = pa.table(
            {"u": b[a_col].cast(pa.int64()), "v": b[b_col].cast(pa.int64())}
        )
        # self-pairs carry no connectivity (and pure alternation would
        # silently drop their nodes) — remove them up front
        return _as_max_min(t.filter(pa.compute.not_equal(t["u"], t["v"])))

    if mode not in ("auto", "local", "broadcast", "stars"):
        raise ValueError(f"unknown mode {mode!r}")
    edges = pairs.map_batches(to_edges, batch_format="pyarrow").materialize()

    n_edges = edges.count()
    if mode == "local" or (
        mode == "auto" and n_edges <= small_graph_threshold
    ):
        return _local_union_find(edges)
    if mode == "broadcast":
        return _broadcast_cc_rounds(edges, max_rounds)

    def _signature(ds) -> tuple[int, int]:
        def _chk(batch: pa.Table) -> pa.Table:
            u = batch["u"].to_numpy(zero_copy_only=False).astype(np.uint64)
            v = batch["v"].to_numpy(zero_copy_only=False).astype(np.uint64)
            with np.errstate(over="ignore"):
                # splitmix64 per edge: the bare u·G ^ v term summed to the
                # same value for two different rounds of a 4k chain
                mix = splitmix64((u * np.uint64(0x9E3779B97F4A7C15)) ^ v)
            # small modulus: per-block values must SUM within int64 range
            return pa.table({"n": pa.array([len(u)], type=pa.int64()),
                             "chk": pa.array([int(mix.sum() % (1 << 40))], type=pa.int64())})

        agg = ds.map_batches(_chk, batch_format="pyarrow").aggregate(
            Sum("n", alias_name="n"), Sum("chk", alias_name="chk")
        )
        return (agg.get("n") or 0, agg.get("chk") or 0)

    prev = None
    for _ in range(max_rounds):
        # Pure Kiveris alternation: large-star OUTPUT replaces the edge set
        # (connectivity-preserving per the paper — no union with the old
        # edges, which would double per-round data and grow the multiset).
        # Both outputs are max-min form by construction; distinct happens
        # inside the kernels (partition-local == global).
        large = shuffle_by(
            edges.map_batches(_both_directions, batch_format="pyarrow"),
            "u",
            _large_star_part,
        )
        edges = shuffle_by(large, "u", _small_star_part).materialize()
        sig = _signature(edges)
        if sig == prev:
            break
        prev = sig

    # converged: every remaining edge is (node, component_min); add the
    # representatives themselves
    def finalize(batch: pa.Table) -> pa.Table:
        u = batch["u"].to_numpy(zero_copy_only=False)
        v = batch["v"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "doc_id": pa.array(np.concatenate([u, v])),
                "component": pa.array(np.concatenate([v, v])),
            }
        )

    def component_min(df: pd.DataFrame) -> pa.Table:
        m = df.groupby("doc_id", sort=False)["component"].min()
        return pa.table({"doc_id": pa.array(m.index.to_numpy(), type=pa.int64()),
                         "component": pa.array(m.to_numpy(), type=pa.int64())})

    # the coarse exchange, not Ray's native keyed aggregate, whose sort
    # reduce ran 1.2M nodes in one task for 165 s (4 CPUs); this took 9 s
    return shuffle_by(
        edges.map_batches(finalize, batch_format="pyarrow"), "doc_id", component_min
    )


def apply_keep_list(
    docs: "ray.data.Dataset",
    keep_list: "ray.data.Dataset",
    id_col: str = "doc_id",
) -> "ray.data.Dataset":
    """Drop non-representative duplicates from the corpus — fully
    distributed (nothing corpus-sized touches the driver).

    Fast path: a dropped-id set at or below ``_KEEP_LIST_BROADCAST`` (≈40 MB
    of int64 — tiny next to any corpus that produced it)
    is broadcast ONCE as a sorted array and every doc filters map-side
    via searchsorted — zero shuffles, exact (the k_core fringe lesson:
    broadcasting a small id set beats an anti-join exchange by the whole
    fixed AllToAll overhead). Above the limit, the scale path
    (the ``ngram_jaccard_verify`` template at dedup.py:362):

    1. dropped ids (components minus representatives) → fixed-size Bloom
       bitmap, OR-ed from per-block partials on the driver (bounded driver
       memory regardless of how many docs are dropped);
    2. docs that MISS the Bloom are definitely kept → pure map-side pass-
       through, no shuffle (the vast majority of a typical corpus);
    3. docs that HIT the Bloom (actual drops + FP rate) are shuffled by
       ``hash(id) % P`` together with the dropped ids and anti-joined
       exactly inside a coarse-partition kernel.

    Shuffled volume ≈ the dropped fraction of the corpus (web-scale dedup
    drops 30-50%) — unavoidable for an exact filter above the broadcast
    limit, and never resident in one place.
    """
    import ray

    from ontocast_ray.ops.dedup import _BLOOM_BITS, _bloom_build_cols, _bloom_contains

    dropped = keep_list.map_batches(
        lambda b: pa.table({id_col: b.filter(pa.compute.invert(b["keep"]))["doc_id"]}),
        batch_format="pyarrow",
    ).materialize()
    n_dropped = dropped.count()
    if n_dropped == 0:
        return docs

    if n_dropped <= _KEEP_LIST_BROADCAST:
        drop_sorted = np.sort(
            np.concatenate([
                b[id_col].to_numpy(zero_copy_only=False)
                for b in dropped.iter_batches(
                    batch_size=None, batch_format="pyarrow"
                )
            ])
        )
        drop_ref = ray.put(drop_sorted)

        def keep_by_broadcast(batch: pa.Table) -> pa.Table:
            """Exact map-side anti-filter against the broadcast id array
            (up to 40 MB: fetched from the object store, never pickled
            into the task)."""
            drop = ray.get(drop_ref)
            ids = batch[id_col].to_numpy(zero_copy_only=False)
            pos = np.searchsorted(drop, ids)
            pos[pos >= len(drop)] = len(drop) - 1
            hit = drop[pos] == ids
            return batch.filter(pa.array(~hit))

        return docs.map_batches(keep_by_broadcast, batch_format="pyarrow")

    from ontocast_ray.util import to_arrow_type

    bloom_ref = ray.put(_bloom_build_cols(dropped, [id_col]))
    doc_schema = docs.schema()
    doc_fields = [
        (n, to_arrow_type(t))
        for n, t in zip(doc_schema.names, doc_schema.types)
    ]
    id_type = dict(doc_fields)[id_col]

    def pass_through(batch: pa.Table) -> pa.Table:
        """Docs whose id misses the Bloom: keep, no shuffle."""
        hit = _bloom_contains(ray.get(bloom_ref), batch[id_col], _BLOOM_BITS)
        return batch.filter(pa.array(~hit))

    def maybe_dropped(batch: pa.Table) -> pa.Table:
        """Docs whose id hits the Bloom: tag with kind=0 for the join."""
        hit = _bloom_contains(ray.get(bloom_ref), batch[id_col], _BLOOM_BITS)
        b = batch.filter(pa.array(hit))
        return b.append_column("__kind", pa.array(np.zeros(len(b), dtype=np.int8)))

    def dropped_rows(batch: pa.Table) -> pa.Table:
        """Dropped ids null-padded to the doc schema + kind=1."""
        n = len(batch)
        ids = batch[id_col].cast(id_type)
        arrays = [
            ids if name == id_col else pa.nulls(n, typ) for name, typ in doc_fields
        ]
        t = pa.Table.from_arrays(arrays, names=[n for n, _ in doc_fields])
        return t.append_column("__kind", pa.array(np.ones(n, dtype=np.int8)))

    def anti_join(part: pa.Table) -> pa.Table:
        kind = part["__kind"].to_numpy(zero_copy_only=False)
        ids = part[id_col].to_numpy(zero_copy_only=False)
        keep = kind == 0
        drop_ids = ids[kind == 1]
        if len(drop_ids):
            keep &= ~pd.Series(ids).isin(drop_ids).to_numpy()
        return part.filter(pa.array(keep)).drop_columns(["__kind"])

    kept_fast = docs.map_batches(pass_through, batch_format="pyarrow")
    maybe = docs.map_batches(maybe_dropped, batch_format="pyarrow")
    verified = shuffle_by(
        maybe.union(dropped.map_batches(dropped_rows, batch_format="pyarrow")),
        id_col,
        anti_join,
        batch_format="pyarrow",
    )
    return kept_fast.union(verified)


def dedup_keep_list(
    pairs: "ray.data.Dataset",
    a_col: str = "doc_id_a",
    b_col: str = "doc_id_b",
) -> "ray.data.Dataset":
    """→ (doc_id, keep_id, keep): keep_id = component min; keep = doc IS the
    representative. Docs absent from the pair graph are implicitly kept."""
    comp = connected_components(pairs, a_col=a_col, b_col=b_col)

    def mark(batch: pa.Table) -> pa.Table:
        d = batch["doc_id"].to_numpy(zero_copy_only=False)
        c = batch["component"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "keep_id": batch["component"],
                "keep": pa.array(d == c),
            }
        )

    return comp.map_batches(mark, batch_format="pyarrow")


def _triangle_count_driver(edf: "pd.DataFrame") -> int:
    """Bounded-size fast path: the SAME degree-ordered wedge count run
    vectorized on the driver (the union-find / pagerank-fallback pattern:
    below the limit, 7 chained shuffles of overhead dwarf the work)."""
    u = edf["u"].to_numpy(np.int64)
    v = edf["v"].to_numpy(np.int64)
    assert u.max() < (1 << 31) and v.max() < (1 << 31)
    nodes, inv = np.unique(np.concatenate([u, v]), return_inverse=True)
    deg = np.bincount(inv, minlength=len(nodes)).astype(np.int64)
    du, dv = deg[inv[: len(u)]], deg[inv[len(u):]]
    u_first = (du < dv) | ((du == dv) & (u < v))
    src = np.where(u_first, u, v)
    dst = np.where(u_first, v, u)
    dd = np.where(u_first, dv, du)
    order = np.lexsort((dst, dd, src))
    src, dst = src[order], dst[order]
    edge_keys = np.sort((src << np.int64(31)) | dst)
    # per-src out-neighbor slices → triu wedge pairs
    starts = np.flatnonzero(np.r_[True, src[1:] != src[:-1]])
    ends = np.r_[starts[1:], len(src)]
    total = 0
    for s, t in zip(starts, ends):
        ns = dst[s:t]
        if len(ns) < 2:
            continue
        i, j = np.triu_indices(len(ns), k=1)
        keys = (ns[i] << np.int64(31)) | ns[j]
        pos = np.searchsorted(edge_keys, keys)
        pos = np.minimum(pos, len(edge_keys) - 1)
        total += int((edge_keys[pos] == keys).sum())
    return total


def triangle_count(
    edges: "ray.data.Dataset",
) -> "ray.data.Dataset":
    """→ one row ``(n_triangles,)``: exact triangle count of the undirected
    simple graph — the third classic distributed graph kernel next to
    connected_components and pagerank_int (community/cohesion signal over
    dedup-pair or co-occurrence graphs).

    Algorithm: degree-ordered node-iterator (the MapReduce-standard
    Suri & Vassilvitskii / Cohen shape). Every edge is oriented from its
    lower-(degree, id) endpoint to the higher one, so each node's wedge
    work is O(out-degree²) with out-degree ≤ O(√m) — the orientation is
    exactly what defuses the head-node skew a naive wedge join explodes
    on. Wedges (b, c) from each source's out-neighbors are then
    semi-joined against the oriented edge set; every match is one
    triangle, counted exactly once.

    Shuffle budget: distinct (1) + degree count (1) + two degree joins
    (2) + wedge colocate (1) + pair semi-join (1). Driver sees only the
    final scalar. Node ids must fit 31 bits (the wedge pair is packed
    into one int64 join key; assert-guarded).
    """
    import pyarrow.compute as pc

    from ontocast_ray.ops.joins import distinct_on, hash_join

    def norm(batch: pa.Table) -> pa.Table:
        u = batch["u"].to_numpy(zero_copy_only=False)
        v = batch["v"].to_numpy(zero_copy_only=False)
        lo = np.minimum(u, v)
        hi = np.maximum(u, v)
        keep = lo != hi
        return pa.table({"u": pa.array(lo[keep]), "v": pa.array(hi[keep])})

    def _zero() -> "ray.data.Dataset":
        return ray.data.from_arrow(
            pa.table({"n_triangles": pa.array([0], type=pa.int64())})
        )

    e = distinct_on(
        edges.map_batches(norm, batch_format="pyarrow"), ["u", "v"]
    ).materialize()
    n_edges = e.count()
    if n_edges == 0:  # empty graph: downstream groupbys lose the schema
        return _zero()
    if n_edges <= _SMALL_EDGE_LIMIT:  # 0 forces the distributed path
        n = _triangle_count_driver(e.to_pandas())
        return ray.data.from_arrow(
            pa.table({"n_triangles": pa.array([n], type=pa.int64())})
        )

    # degrees via the coarse pattern (never a node-sized driver object)
    def both(batch: pa.Table) -> pa.Table:
        nodes = np.concatenate(
            [batch["u"].to_numpy(zero_copy_only=False),
             batch["v"].to_numpy(zero_copy_only=False)]
        )
        return pa.table({"node": pa.array(nodes)})

    def count_nodes(df: pd.DataFrame) -> pd.DataFrame:
        vc = df["node"].value_counts()
        return pd.DataFrame(
            {"node": vc.index.to_numpy(np.int64), "deg": vc.to_numpy(np.int64)}
        )

    deg = shuffle_by(
        e.map_batches(both, batch_format="pyarrow"), "node", count_nodes
    ).materialize()
    deg_u = deg.map_batches(
        lambda b: pa.table({"node": b["node"], "du": b["deg"]}),
        batch_format="pyarrow",
    )
    deg_v = deg.map_batches(
        lambda b: pa.table({"node": b["node"], "dv": b["deg"]}),
        batch_format="pyarrow",
    )
    with_du = hash_join(
        e, deg_u, left_on="u", right_on="node",
        left_cols=["v"], right_cols=["du"],
    )
    with_both = hash_join(
        with_du, deg_v, left_on="v", right_on="node",
        left_cols=["u", "du"], right_cols=["dv"],
    )

    def orient(batch: pa.Table) -> pa.Table:
        u = batch["u"].to_numpy(zero_copy_only=False).astype(np.int64)
        v = batch["v"].to_numpy(zero_copy_only=False).astype(np.int64)
        du = batch["du"].to_numpy(zero_copy_only=False).astype(np.int64)
        dv = batch["dv"].to_numpy(zero_copy_only=False).astype(np.int64)
        # src ≺ dst by (degree, id) — unique total order
        u_first = (du < dv) | ((du == dv) & (u < v))
        src = np.where(u_first, u, v)
        dst = np.where(u_first, v, u)
        dd = np.where(u_first, dv, du)  # dst's degree, for wedge ordering
        return pa.table(
            {"src": pa.array(src), "dst": pa.array(dst), "dd": pa.array(dd)}
        )

    oriented = with_both.map_batches(orient, batch_format="pyarrow").materialize()

    def wedges(df: pd.DataFrame) -> pd.DataFrame:
        assert df["dst"].max() < (1 << 31) and df["src"].max() < (1 << 31), (
            "triangle_count packs wedge pairs into int64: ids must fit 31 bits"
        )
        out = []
        # ≺-sort once: (dd, dst) within src, then per-src upper-triangle
        df = df.sort_values(["src", "dd", "dst"], kind="mergesort")
        for _, grp in df.groupby("src", sort=False):
            ns = grp["dst"].to_numpy(np.int64)
            if len(ns) < 2:
                continue
            i, j = np.triu_indices(len(ns), k=1)
            out.append(ns[i] << np.int64(31) | ns[j])
        if not out:
            return pd.DataFrame({"pair": pd.Series([], dtype="int64")})
        return pd.DataFrame({"pair": np.concatenate(out)})

    wedge_ds = shuffle_by(oriented, "src", wedges).materialize()
    if wedge_ds.count() == 0:  # forest: no wedges, no triangles
        return _zero()

    def pack_edges(batch: pa.Table) -> pa.Table:
        src = batch["src"].to_numpy(zero_copy_only=False).astype(np.int64)
        dst = batch["dst"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({"pair": pa.array(src << np.int64(31) | dst)})

    matches = hash_join(
        wedge_ds,
        oriented.map_batches(pack_edges, batch_format="pyarrow"),
        left_on="pair",
        right_on="pair",
        left_cols=[],
        right_cols=[],
        how="semi",
    )
    n = matches.count()
    return ray.data.from_arrow(
        pa.table({"n_triangles": pa.array([n], type=pa.int64())})
    )


def _local_label_propagation(
    edges: "ray.data.Dataset", n_iters: int
) -> "ray.data.Dataset":
    """Small-graph path: vectorized pandas LPA on the driver. Same rule,
    same output; each distributed round costs ~5 small shuffles of fixed
    Ray overhead (measured 76 s for a 1 600-node graph at gate SF), and a
    two-int64-column edge list below the threshold fits trivially in
    driver memory."""
    import pandas as pd
    import ray

    df = pd.concat(
        [b.to_pandas() for b in edges.iter_batches(batch_format="pyarrow")],
        ignore_index=True,
    )
    nodes = np.unique(df["src"].to_numpy())
    lab = pd.Series(nodes, index=nodes)
    for _ in range(n_iters):
        votes = pd.DataFrame(
            {"node": df["src"].to_numpy(),
             "label": lab.reindex(df["dst"].to_numpy()).to_numpy()}
        )
        cnt = votes.groupby(["node", "label"], as_index=False).size()
        cnt = cnt.sort_values(
            ["node", "size", "label"], ascending=[True, False, True]
        )
        win = cnt.drop_duplicates("node", keep="first")
        new = pd.Series(
            win["label"].to_numpy(), index=win["node"].to_numpy()
        ).reindex(nodes)
        lab = new.fillna(lab).astype(np.int64)
    return ray.data.from_arrow(
        pa.table({"node": pa.array(nodes, type=pa.int64()),
                  "label": pa.array(lab.to_numpy(), type=pa.int64())})
    )


def _broadcast_label_rounds(
    edges: "ray.data.Dataset", n_iters: int
) -> "ray.data.Dataset":
    """LPA rounds with EDGES NEVER MOVING and ZERO per-round shuffles:
    labels are the O(V) carrier.

    Per round: labels broadcast once (``ray.put`` of two sorted int64
    arrays, read per task), a PURE MAP over the edge blocks looks up each
    dst's label by searchsorted and pre-combines (node, label) vote
    counts map-side; the combined rows (Σ_blocks distinct (src,label)
    pairs ≲ a few × V, never E) then STREAM to the driver via
    ``iter_batches`` into a compacting accumulator (groupby-sum whenever
    the buffer exceeds ~4×V rows, so driver memory stays O(V) regardless
    of block count) where one vectorized argmax picks winners. An earlier
    version pushed the combine through ``groupby("part").map_groups`` —
    Ray's sort-based AllToAll cost ~16 s/round on 1.17M edges here vs
    ~1 s for the streamed combine; the naive shape (re-shuffling the
    E-row edge list through a hash join every round) measured 465 s.
    Bound: V must fit the driver — the entity-resolution regime (E ≫ V),
    and the same contract the label broadcast already imposes; for V
    beyond memory use ``mode="shuffle"``.
    """
    import pandas as pd
    import ray

    edges = edges.materialize()

    # node discovery, same streamed shape as the rounds: per-block
    # np.unique prunes to ≤ V values per block, the driver unions —
    # zero shuffle (a distinct_on here cost 8 s vs 0.5 s at 1.17M edges)
    def block_nodes(batch: pa.Table) -> pa.Table:
        return pa.table(
            {"node": np.unique(batch["src"].to_numpy(zero_copy_only=False))}
        )

    chunks = [
        part["node"].to_numpy()
        for part in edges.map_batches(
            block_nodes, batch_format="pyarrow"
        ).iter_batches(batch_format="pandas", batch_size=None)
    ]
    nodes = np.unique(np.concatenate(chunks)) if chunks else np.empty(
        0, dtype=np.int64
    )
    lab = nodes.copy()
    compact_cap = max(4 * len(nodes), 262_144)
    for _ in range(n_iters):
        ref = ray.put((nodes, lab))

        def vote(batch: pa.Table) -> pa.Table:
            ns, ls = ray.get(ref)
            src = batch["src"].to_numpy(zero_copy_only=False)
            dst = batch["dst"].to_numpy(zero_copy_only=False)
            dlab = ls[np.searchsorted(ns, dst)]
            df = pd.DataFrame({"node": src, "label": dlab})
            cnt = df.groupby(["node", "label"], as_index=False).size()
            return pa.table(
                {
                    "node": pa.array(cnt["node"].to_numpy()),
                    "label": pa.array(cnt["label"].to_numpy()),
                    "n": pa.array(cnt["size"].to_numpy().astype(np.int64)),
                }
            )

        acc: list["pd.DataFrame"] = [
            pd.DataFrame({"node": pd.Series([], dtype=np.int64),
                          "label": pd.Series([], dtype=np.int64),
                          "n": pd.Series([], dtype=np.int64)})
        ]
        acc_rows = 0
        for part in edges.map_batches(vote, batch_format="pyarrow").iter_batches(
            batch_format="pandas", batch_size=None
        ):
            acc.append(part)
            acc_rows += len(part)
            if acc_rows > compact_cap:
                merged = (
                    pd.concat(acc, ignore_index=True)
                    .groupby(["node", "label"], as_index=False)["n"]
                    .sum()
                )
                acc, acc_rows = [merged], len(merged)
        cnt = (
            pd.concat(acc, ignore_index=True)
            .groupby(["node", "label"], as_index=False)["n"]
            .sum()
            .sort_values(["node", "n", "label"], ascending=[True, False, True])
            .drop_duplicates("node", keep="first")
        )
        new = lab.copy()
        if len(cnt):
            wn = cnt["node"].to_numpy(dtype=np.int64)
            wl = cnt["label"].to_numpy(dtype=np.int64)
            new[np.searchsorted(nodes, wn)] = wl
        lab = new
    return ray.data.from_arrow(
        pa.table({"node": pa.array(nodes), "label": pa.array(lab)})
    )


def label_propagation(
    edges: "ray.data.Dataset",
    n_iters: int = 3,
    mode: str = "auto",
) -> "ray.data.Dataset":
    """→ (node, label): deterministic synchronous Label Propagation
    communities (Raghavan et al. 2007, made order-free): every node starts
    as its own label; each round it adopts the label that is MOST FREQUENT
    among its neighbours, ties broken by SMALLEST label; isolated nodes
    keep their current label. Fixed ``n_iters`` synchronous rounds — no
    RNG, no visit order — so any engine replays it bit-for-bit (the SQL
    oracle iterates the same rule via generated CTEs, the Lloyd-k-means
    pattern).

    Distinct from `connected_components`: CC merges everything reachable;
    LPA finds densely-connected communities INSIDE a component — the
    graph-clustering step of entity-resolution at KG scale.

    Input ``edges`` must carry both directions as (src, dst). Three paths,
    picked by ``mode`` (default "auto" = by size):

    - "local" (E ≤ ``_SMALL_EDGE_LIMIT``): vectorized pandas on the driver
      — the pagerank/union-find bounded-fallback pattern.
    - "broadcast" (default at scale): edges NEVER move; labels are the
      O(V) broadcast carrier and each round is a pure map + ONE coarse
      shuffle of map-combined (node, label) vote counts (≲ few × V rows,
      never E). Requires V to fit the object store — the entity-
      resolution regime (E ≫ V). See `_broadcast_label_rounds`.
    - "shuffle": fully distributed rounds (hash_join of labels onto edges
      by dst + a vote shuffle) for V beyond memory — E-row AllToAll per
      round, measured ~45× slower than "broadcast" on a 1M-edge graph
      here, but bounded by nothing except cluster disk.

    All three implement the identical rule bit-for-bit (unit-tested
    against a pure-Python replay on every path).
    """
    import ray

    from ontocast_ray.ops.joins import distinct_on, hash_join

    if mode not in ("auto", "local", "broadcast", "shuffle"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "local" or (
        mode == "auto"
        and _SMALL_EDGE_LIMIT
        and edges.count() <= _SMALL_EDGE_LIMIT
    ):
        return _local_label_propagation(edges, n_iters)
    if mode in ("auto", "broadcast"):
        return _broadcast_label_rounds(edges, n_iters)

    labels = distinct_on(
        edges.map_batches(
            lambda b: pa.table({"node": b["src"]}), batch_format="pyarrow"
        ),
        ["node"],
    ).map_batches(
        lambda b: pa.table({"node": b["node"], "label": b["node"]}),
        batch_format="pyarrow",
    ).materialize()

    for _ in range(n_iters):
        nb = hash_join(
            edges,
            labels,
            left_on="dst",
            right_on="node",
            left_cols=["src"],
            right_cols=["label"],
        )  # (dst, src, label): one neighbour-label vote per edge

        def vote_rows(batch: pa.Table) -> pa.Table:
            return pa.table(
                {
                    "node": batch["src"],
                    "label": batch["label"],
                    "is_old": pa.array(
                        np.zeros(len(batch), dtype=np.int8)
                    ),
                }
            )

        def old_rows(batch: pa.Table) -> pa.Table:
            return pa.table(
                {
                    "node": batch["node"],
                    "label": batch["label"],
                    "is_old": pa.array(np.ones(len(batch), dtype=np.int8)),
                }
            )

        def adopt(df: pd.DataFrame) -> pd.DataFrame:
            votes = df[df["is_old"] == 0]
            cnt = votes.groupby(["node", "label"], as_index=False).size()
            cnt = cnt.sort_values(
                ["node", "size", "label"], ascending=[True, False, True]
            )
            win = cnt.drop_duplicates("node", keep="first")[["node", "label"]]
            old = df[df["is_old"] == 1][["node", "label"]]
            keep_old = old[~old["node"].isin(win["node"])]
            return pd.concat([win, keep_old], ignore_index=True)

        labels = shuffle_by(
            nb.map_batches(vote_rows, batch_format="pyarrow")
            .union(labels.map_batches(old_rows, batch_format="pyarrow")),
            "node",
            adopt,
        ).materialize()
    return labels


def dedup_keep_best(
    pairs: "ray.data.Dataset",
    scores: "ray.data.Dataset",
    score_col: str,
    id_col: str = "doc_id",
    a_col: str = "doc_id_a",
    b_col: str = "doc_id_b",
) -> "ray.data.Dataset":
    """→ (doc_id, keep_id, keep): quality-aware near-dup representative —
    within each connected component of the pair graph the member with the
    HIGHEST ``score_col`` wins (ties → smallest id), instead of
    `dedup_keep_list`'s min-id rule. This is the policy production
    curation stacks actually run (RefinedWeb keeps the longest member,
    Dolma the highest-quality): near-dup clusters usually contain one
    full page and several truncated/boilerplate-wrapped copies, and
    min-id keeps an arbitrary one.

    Shape: components from the existing star rounds; scores attach via
    one partitioned `hash_join` (component rows are pair-graph-sized —
    docs never in any pair don't appear and are implicitly kept); ONE
    coarse ``hash(component) % P`` shuffle colocates each component,
    where a vectorized sort + groupby-transform('first') marks winners —
    no per-component Python. Scores must be integer-or-exact (the
    argmax compares them for equality across engines).
    """
    import pandas as pd

    import ray

    from ontocast_ray.ops.joins import hash_join

    comp = connected_components(pairs, a_col=a_col, b_col=b_col)

    # Broadcast fast path: the member list is PAIR-GRAPH-sized (docs in at
    # least one near-dup pair), typically orders of magnitude smaller than
    # the corpus. Under the limit it is collected once, the scores stream
    # is reduced map-side to per-batch per-component (best_score, best_id)
    # partials, ONE tiny shuffle combines them (partial rows only — the
    # corpus and the scores never enter an AllToAll), and the winner map
    # is broadcast back to mark the member rows. Above the limit: the
    # partitioned hash_join + component-hash pick (both corpus-scale
    # shuffles, unavoidable there).
    comp = comp.materialize()
    n_members = comp.count()
    if n_members and n_members <= _KEEP_BEST_BROADCAST:
        mem_ids, mem_comps = [], []
        for b in comp.iter_batches(batch_size=None, batch_format="pyarrow"):
            mem_ids.append(b["doc_id"].to_numpy(zero_copy_only=False))
            mem_comps.append(b["component"].to_numpy(zero_copy_only=False))
        mem_ids = np.concatenate(mem_ids).astype(np.int64)
        mem_comps = np.concatenate(mem_comps).astype(np.int64)
        order = np.argsort(mem_ids, kind="stable")
        ids_s, comps_s = mem_ids[order], mem_comps[order]
        mem_ref = ray.put((ids_s, comps_s))

        def partial(batch: pa.Table) -> pa.Table:
            i_s, c_s = ray.get(mem_ref)
            ids = batch[id_col].to_numpy(zero_copy_only=False).astype(
                np.int64
            )
            pos = np.searchsorted(i_s, ids)
            pos[pos >= len(i_s)] = len(i_s) - 1
            hit = i_s[pos] == ids
            if not hit.any():
                return pa.table({
                    "component": pa.array([], type=pa.int64()),
                    "best_score": pa.array(
                        [], type=batch.schema.field(score_col).type
                    ),
                    "best_id": pa.array([], type=pa.int64()),
                })
            sc = batch[score_col].to_numpy(zero_copy_only=False)[hit]
            g = (
                pd.DataFrame({
                    "component": c_s[pos[hit]],
                    "s": sc,
                    "doc_id": ids[hit],
                })
                .sort_values(["component", "s", "doc_id"],
                             ascending=[True, False, True],
                             kind="mergesort")
                .drop_duplicates("component")
            )
            return pa.table({
                "component": pa.array(g["component"].to_numpy()),
                "best_score": pa.array(g["s"].to_numpy()),
                "best_id": pa.array(g["doc_id"].to_numpy()),
            })

        def combine(df: "pd.DataFrame") -> "pd.DataFrame":
            g = df.sort_values(
                ["component", "best_score", "best_id"],
                ascending=[True, False, True], kind="mergesort",
            ).drop_duplicates("component")
            return g[["component", "best_id"]]

        win_rows = shuffle_by(
            scores.map_batches(partial, batch_format="pyarrow"),
            "component",
            combine,
        ).take_all()
        # components whose every member is unscored fall back to min id
        # (the hash_join path's fillna(int64-min) + min-id tiebreak rule)
        fallback = (
            pd.DataFrame({"c": mem_comps, "d": mem_ids})
            .groupby("c")["d"].min()
        )
        win = fallback.copy()
        for r in win_rows:
            win[r["component"]] = r["best_id"]
        comp_keys = win.index.to_numpy(np.int64)  # sorted (groupby index)
        win_ids = win.to_numpy(np.int64)
        win_ref = ray.put((comp_keys, win_ids))

        def mark(batch: pa.Table) -> pa.Table:
            keys, wids = ray.get(win_ref)
            d = batch["doc_id"].to_numpy(zero_copy_only=False)
            c = batch["component"].to_numpy(zero_copy_only=False)
            keep_id = wids[np.searchsorted(keys, c)]
            return pa.table({
                "doc_id": batch["doc_id"],
                "keep_id": pa.array(keep_id),
                "keep": pa.array(d == keep_id),
            })

        return comp.map_batches(mark, batch_format="pyarrow")

    # LEFT join: a member with no score row must still appear (absence
    # would read as implicitly-kept downstream, silently disabling the
    # dedup for its component); unscored members rank lowest
    scored = hash_join(
        comp, scores,
        left_on="doc_id", right_on=id_col,
        left_cols=["component"], right_cols=[score_col],
        how="left",
    )

    def pick(group: "pd.DataFrame") -> "pd.DataFrame":
        group = group.copy()
        group[score_col] = group[score_col].fillna(
            np.iinfo(np.int64).min
        )
        g = group.sort_values(
            ["component", score_col, "doc_id"],
            ascending=[True, False, True],
            kind="mergesort",
        )
        keep_id = g.groupby("component", sort=False)["doc_id"].transform(
            "first"
        )
        return pd.DataFrame(
            {
                "doc_id": g["doc_id"].to_numpy(),
                "keep_id": keep_id.to_numpy(),
                "keep": (g["doc_id"] == keep_id).to_numpy(),
            }
        )

    return shuffle_by(scored, "component", pick)


def dedup_audit(
    verified_pairs: "ray.data.Dataset",
    keep_list: "ray.data.Dataset",
) -> "ray.data.Dataset":
    """→ (doc_id, keep_id, max_jaccard, n_partners): the accountability
    report production dedup ships alongside a keep-list — for every doc
    in a near-dup component, its strongest DIRECT evidence (max verified
    Jaccard over its pairs) and partner count, so a dropped page can be
    audited ("removed as a 0.97-Jaccard dup of keep_id") and transitive
    merges (doc has no direct pair with its representative) are visible
    as max_jaccard < threshold partners.

    Shape: pairs explode to both orientations map-side (2 rows per
    pair), ONE coarse ``hash(doc_id) % P`` shuffle groups a doc's
    evidence next to its keep-list row (union-tag join, the hash_join
    template); the kernel is two vectorized groupby reductions. Pair-
    scale data only — the corpus never moves.
    """
    import pandas as pd

    def explode(batch: pa.Table) -> pa.Table:
        a = batch["doc_id_a"].to_numpy(zero_copy_only=False)
        b = batch["doc_id_b"].to_numpy(zero_copy_only=False)
        j = batch["jaccard"].to_numpy(zero_copy_only=False)
        doc = np.concatenate([a, b])
        return pa.table(
            {
                "doc_id": pa.array(doc),
                "j": pa.array(np.concatenate([j, j])),
                "side": pa.array(np.zeros(len(doc), dtype=np.int8)),
                "keep_id": pa.array(np.zeros(len(doc), dtype=np.int64)),
            }
        )

    def tag_keep(batch: pa.Table) -> pa.Table:
        d = batch["doc_id"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "doc_id": pa.array(d),
                "j": pa.array(np.zeros(len(d), dtype=np.float64)),
                "side": pa.array(np.ones(len(d), dtype=np.int8)),
                "keep_id": batch["keep_id"].cast(pa.int64()),
            }
        )

    def kern(df: "pd.DataFrame") -> "pd.DataFrame":
        ev = df[df["side"] == 0]
        kl = df[df["side"] == 1][["doc_id", "keep_id"]]
        agg = ev.groupby("doc_id", as_index=False).agg(
            max_jaccard=("j", "max"), n_partners=("j", "size")
        )
        out = kl.merge(agg, on="doc_id", how="left")
        out["max_jaccard"] = out["max_jaccard"].fillna(0.0)
        out["n_partners"] = (
            out["n_partners"].fillna(0).astype(np.int64)
        )
        return out

    tagged = verified_pairs.map_batches(
        explode, batch_format="pyarrow"
    ).union(keep_list.map_batches(tag_keep, batch_format="pyarrow"))
    return shuffle_by(tagged, "doc_id", kern)


def neighbor_feature_sum(
    edges: "ray.data.Dataset",
    feats: "ray.data.Dataset",
    hops: int = 2,
    id_col: str = "node",
    feat_col: str = "f",
) -> "ray.data.Dataset":
    """→ (node, h_sum, n_msgs): ``hops`` rounds of GNN-style neighbor
    feature aggregation (sum message passing) over directed edges —
    h¹(v) = Σ f(u) over in-neighbors u, h²(v) = Σ h¹(u), … — the feature-
    propagation prep of graph ML (SGC/LightGCN-style precomputation) on
    INTEGER features, so every engine sums exactly in any order.

    Per hop: one partitioned `hash_join` moves the current O(V) feature
    carrier onto the edge list by src (edges re-shuffle once per hop —
    the unavoidable cost of a topology-dependent aggregate; features are
    8B/node), then a map-combined coarse ``hash(dst) % P`` sum. Nodes
    receiving no messages at the final hop appear with 0 (left join
    against the feature universe). Inner-join semantics between hops:
    a hop-k message only flows from nodes that themselves received
    hop-(k-1) messages — the matrix-power definition (A^T)^k f.
    """
    import pandas as pd

    from ontocast_ray.ops.joins import hash_join

    cur = feats
    for _ in range(hops):
        contrib = hash_join(
            edges, cur,
            left_on="src", right_on=id_col,
            left_cols=["dst"], right_cols=[feat_col],
        )

        def partial(df: "pd.DataFrame") -> "pd.DataFrame":
            return df.groupby("dst", as_index=False).agg(
                f=(feat_col, "sum"), n=(feat_col, "size")
            )

        def combine(df: "pd.DataFrame") -> "pd.DataFrame":
            g = df.groupby("dst", as_index=False).agg(
                f=("f", "sum"), n=("n", "sum")
            )
            return pd.DataFrame(
                {
                    id_col: g["dst"].to_numpy(),
                    feat_col: g["f"].to_numpy().astype(np.int64),
                    "n_msgs": g["n"].to_numpy().astype(np.int64),
                }
            )

        # consolidate the V-sized carrier between hops (_CARRIER_BLOCKS)
        cur = (
            shuffle_by(
                contrib.map_batches(partial, batch_format="pandas"),
                "dst",
                combine,
            )
            .materialize()
            .repartition(_CARRIER_BLOCKS)
        )

    final = hash_join(
        feats.select_columns([id_col]), cur,
        left_on=id_col, right_on=id_col,
        left_cols=[], right_cols=[feat_col, "n_msgs"],
        how="left",
    )

    def fill(df: "pd.DataFrame") -> "pd.DataFrame":
        return pd.DataFrame(
            {
                id_col: df[id_col].to_numpy(),
                "h_sum": df[feat_col].fillna(0).astype(np.int64).to_numpy(),
                "n_msgs": df["n_msgs"].fillna(0).astype(np.int64).to_numpy(),
            }
        )

    return final.map_batches(fill, batch_format="pandas")


def k_core(
    edges: "ray.data.Dataset",
    k: int,
    src_col: str = "src",
    dst_col: str = "dst",
    max_rounds: int = 64,
) -> "ray.data.Dataset":
    """K-core decomposition by synchronous peeling: repeatedly drop every
    node of degree < k (and its edges) until fixpoint — the standard
    graph-sparsification / community-seed step (the k-core is unique, so
    the result is order- and parallelism-independent). ``edges`` must
    carry BOTH directions of each undirected edge. → (node, degree):
    surviving nodes with their within-core degree (all ≥ k).

    Scale shape per round: degrees via the map-side count combiner (one
    (node, n) row per distinct src per block through a coarse ``hash %
    P`` shuffle), then one of two exact removal paths chosen by the
    peeled-fringe size (a scalar ``count()``, never the rows): the
    fringe is usually tiny (the boundary layer of the core), so ≤
    ``_BROADCAST_LIMIT`` nodes take the broadcast fast path — sorted
    array ``ray.put`` once, edges dropped by a pure searchsorted map,
    ZERO removal shuffles; a larger fringe falls back to two partitioned
    hash anti-joins (no driver collection, any scale — forced in tests
    by setting ``_BROADCAST_LIMIT`` to 0). The driver sees one scalar per
    round; edges re-materialize per round to keep lineage flat. Raises after
    ``max_rounds`` (a path graph peels one layer per round — k-cores of
    real graphs converge in a handful)."""
    import pandas as pd

    from ontocast_ray.ops.joins import hash_join

    def deg_partial(batch: pa.Table) -> pa.Table:
        src = batch[src_col].to_numpy(zero_copy_only=False)
        uniq, cnt = np.unique(src, return_counts=True)
        return pa.table({
            "node": pa.array(uniq.astype(np.int64)),
            "n": pa.array(cnt.astype(np.int64)),
        })

    def deg_final(df: "pd.DataFrame") -> "pd.DataFrame":
        g = df.groupby("node", as_index=False)["n"].sum()
        return pd.DataFrame({
            "node": g["node"].to_numpy(dtype=np.int64),
            "degree": g["n"].to_numpy(dtype=np.int64),
        })

    cur = edges.materialize()
    for _ in range(max_rounds):
        degrees = shuffle_by(
            cur.map_batches(deg_partial, batch_format="pyarrow"),
            "node",
            deg_final,
        ).materialize()
        low = degrees.filter(
            expr=f"degree < {int(k)}"
        ).materialize()
        n_low = low.count()
        if n_low == 0:
            return degrees
        if n_low <= _BROADCAST_LIMIT:
            import ray

            bad = np.sort(np.array(
                [r["node"] for r in low.take_all()], dtype=np.int64
            ))
            bad_ref = ray.put(bad)

            def _drop(batch: pa.Table) -> pa.Table:
                b = ray.get(bad_ref)
                s = batch[src_col].to_numpy(zero_copy_only=False)
                d = batch[dst_col].to_numpy(zero_copy_only=False)
                ps = np.minimum(np.searchsorted(b, s), len(b) - 1)
                pd_ = np.minimum(np.searchsorted(b, d), len(b) - 1)
                keep = (b[ps] != s) & (b[pd_] != d)
                return batch.filter(pa.array(keep))

            kept = cur.map_batches(_drop, batch_format="pyarrow")
        else:
            kept = hash_join(
                cur, low.select_columns(["node"]),
                left_on=src_col, right_on="node",
                left_cols=[dst_col], right_cols=[], how="anti",
            )
            kept = hash_join(
                kept, low.select_columns(["node"]),
                left_on=dst_col, right_on="node",
                left_cols=[src_col], right_cols=[], how="anti",
            )
        cur = kept.materialize()
        if cur.count() == 0:
            import ray.data as rd

            return rd.from_arrow(pa.table({
                "node": pa.array([], type=pa.int64()),
                "degree": pa.array([], type=pa.int64()),
            }))
    raise RuntimeError(f"k_core did not converge in {max_rounds} rounds")


def ancestor_closure(
    edges: "ray.data.Dataset",
    child_col: str = "child",
    parent_col: str = "parent",
    max_rounds: int = 40,
) -> "ray.data.Dataset":
    """Transitive ancestor closure of a functional forest (each node ≤ 1
    parent, no cycles) by RECURSIVE DOUBLING — the rdfs:subClassOf /
    skos:broader entailment materialization every KG pipeline runs to make
    "instance of any subclass" queries a single equi-join. → (node,
    ancestor, depth) for every proper ancestor (depth ≥ 1).

    O(log depth) rounds instead of the naive O(depth): maintain the exact
    2^k-jump table J_k and the closed set R (all depths ≤ 2^k); each round
    R ← R ∪ (R ∘ J_k) — new pairs land exactly in (2^k, 2^{k+1}], so the
    union is disjoint by construction and needs NO dedup shuffle — and
    J_{k+1} ← J_k ∘ J_k. The jump table is node-sized (two int64 columns,
    shrinking every round as paths top out at their roots) while R is the
    depth-multiplied big side: ≤ ``_BROADCAST_LIMIT`` jump rows take the
    broadcast fast path (sorted arrays ``ray.put`` once per round, R
    composed by a pure searchsorted map — ZERO shuffles for R, the k_core
    fringe lesson); a larger jump table falls back to partitioned hash
    joins (forced in tests by setting ``_BROADCAST_LIMIT`` to 0). Converges
    when the jump table empties; raises after ``max_rounds`` (2^40 depth) — a cycle
    would never top out, so the guard doubles as cycle detection.
    """
    import pandas as pd

    import ray

    from ontocast_ray.ops.joins import hash_join

    def base(batch: pa.Table) -> pa.Table:
        return pa.table({
            "node": batch[child_col].cast(pa.int64()),
            "ancestor": batch[parent_col].cast(pa.int64()),
            "depth": pa.array(
                np.ones(len(batch), dtype=np.int64)
            ),
        })

    closed = edges.map_batches(base, batch_format="pyarrow").materialize()
    jump = closed.materialize()
    stride = 1

    for _ in range(max_rounds):
        n_jump = jump.count()
        if n_jump == 0:
            return closed
        if n_jump <= _BROADCAST_LIMIT:
            jdf = jump.to_pandas()
            jn = jdf["node"].to_numpy(dtype=np.int64)
            ja = jdf["ancestor"].to_numpy(dtype=np.int64)
            order = np.argsort(jn, kind="stable")
            jn, ja = jn[order], ja[order]
            jref = ray.put((jn, ja))
            s = stride

            def compose(batch: pa.Table, _ref=jref, _s=s) -> pa.Table:
                kn, ka = ray.get(_ref)
                anc = batch["ancestor"].to_numpy(zero_copy_only=False)
                if len(kn) == 0 or len(anc) == 0:
                    return pa.table({
                        "node": pa.array([], type=pa.int64()),
                        "ancestor": pa.array([], type=pa.int64()),
                        "depth": pa.array([], type=pa.int64()),
                    })
                pos = np.minimum(np.searchsorted(kn, anc), len(kn) - 1)
                hit = kn[pos] == anc
                return pa.table({
                    "node": batch["node"].filter(pa.array(hit)),
                    "ancestor": pa.array(ja[pos[hit]]),
                    "depth": pa.array(
                        batch["depth"].to_numpy(
                            zero_copy_only=False
                        )[hit] + _s
                    ),
                })

            new = closed.map_batches(
                compose, batch_format="pyarrow"
            ).materialize()
            new_jump = jump.map_batches(
                compose, batch_format="pyarrow"
            ).materialize()
        else:
            jr = jump.map_batches(
                lambda b: pa.table({
                    "j_node": b["node"], "j_anc": b["ancestor"],
                }),
                batch_format="pyarrow",
            )

            def joined(left):
                out = hash_join(
                    left, jr, left_on="ancestor", right_on="j_node",
                    left_cols=["node", "depth"], right_cols=["j_anc"],
                )
                s = stride
                return out.map_batches(
                    lambda b, _s=s: pa.table({
                        "node": b["node"],
                        "ancestor": b["j_anc"],
                        "depth": pa.array(
                            b["depth"].to_numpy(zero_copy_only=False) + _s
                        ),
                    }),
                    batch_format="pyarrow",
                ).materialize()

            new = joined(closed)
            new_jump = joined(jump)

        if new.count() == 0:
            return closed
        closed = closed.union(new).materialize()
        # the NEW jump table is exactly the depth == 2*stride slice
        jump = new_jump.filter(
            expr=f"depth == {2 * stride}"
        ).materialize()
        stride *= 2

    raise RuntimeError(
        f"ancestor_closure did not converge in {max_rounds} rounds "
        "(cycle in the parent relation?)"
    )
