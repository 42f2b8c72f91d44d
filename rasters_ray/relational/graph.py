"""Distributed graph operators: triangle counting and integer PageRank.

Edges are plain Datasets of int64 endpoint columns — the engine treats
graphs as relations (edges shuffle, vertex state stays small), the
standard formulation for Pregel-style work on a relational substrate.

* ``triangle_counts`` — per-node triangle counts on an undirected,
  deduplicated edge set oriented ``a < b``: the compact-forward /
  node-iterator join (wedge join on the shared low endpoint + a semi
  join closing the third side; Schank & Wagner 2005).  Two distributed
  joins; every triangle (a < b < c) is found exactly once.
* ``pagerank`` — fixed-point INTEGER PageRank: ranks are int64 scaled
  by ``scale``; each iteration moves ``floor(85 * r / (100 * outdeg))``
  along every edge and restarts with ``base = floor(15 * scale / 100)``
  (damping 0.85 as an exact rational).  Deterministic and bit-equal to
  the SQL replay — no float accumulation order to pin.  Dangling-node
  mass is dropped (the common simplification; replayed identically).
  The rank vector is vertex-sized and broadcast per iteration
  (ray.put); edges never leave their blocks — the per-iteration
  shuffle carries only (dst, partial-sum) rows.

No counterpart in the reference (a raster library).  int64 bound:
``85 * r`` with r <= n_nodes * scale must stay under 2^63 — at the
default scale 1e12 that allows ~10^5 nodes x full mass concentration,
far beyond any realistic hub; raise ``scale`` down for larger graphs.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray

from ..util import fetch
from .aggregates import grouped_int_sums
from .joins import hash_join

__all__ = ["dedup_edges", "triangle_counts", "pagerank", "edge_jaccard"]


def dedup_edges(ds, src: str, dst: str, undirected: bool):
    """Distinct (src, dst) int64 edges; ``undirected`` orients a < b."""

    def norm(t: pa.Table) -> pa.Table:
        u = t.column(src).to_numpy(zero_copy_only=False).astype(np.int64)
        v = t.column(dst).to_numpy(zero_copy_only=False).astype(np.int64)
        keep = u != v
        u, v = u[keep], v[keep]
        if undirected:
            u, v = np.minimum(u, v), np.maximum(u, v)
        return pa.table({"a": pa.array(u, pa.int64()),
                         "b": pa.array(v, pa.int64())})

    dd = grouped_int_sums(ds.map_batches(norm, batch_format="pyarrow"),
                          ["a", "b"], lambda t: {}, count_col="_m")
    return dd.map_batches(lambda t: t.select(["a", "b"]),
                          batch_format="pyarrow")


def triangle_counts(edges):
    """Per-node triangle counts -> Dataset[(node, n_tri)].

    ``edges`` must be distinct and oriented (a < b) — the
    :func:`dedup_edges` output.  Nodes in no triangle are absent."""
    # wedge join: (a, b) x (a, c) on the low endpoint, keep b < c
    wedges = hash_join(edges, edges, on="a", right_suffix="_r")

    def keep_ordered(t: pa.Table) -> pa.Table:
        b = t.column("b").to_numpy(zero_copy_only=False)
        c = t.column("b_r").to_numpy(zero_copy_only=False)
        m = b < c
        return pa.table(
            {
                "wa": t.column("a").filter(pa.array(m)),
                "a": pa.array(b[m], pa.int64()),
                "b": pa.array(c[m], pa.int64()),
            }
        )

    cand = wedges.map_batches(keep_ordered, batch_format="pyarrow")
    # close the triangle: semi join (b, c) against the edge set
    tri = hash_join(cand, edges, on=["a", "b"], how="left semi")

    def explode(t: pa.Table) -> pa.Table:
        a = t.column("wa").to_numpy(zero_copy_only=False)
        b = t.column("a").to_numpy(zero_copy_only=False)
        c = t.column("b").to_numpy(zero_copy_only=False)
        return pa.table(
            {"node": pa.array(np.concatenate([a, b, c]), pa.int64())}
        )

    return grouped_int_sums(
        tri.map_batches(explode, batch_format="pyarrow"),
        ["node"], lambda t: {}, count_col="n_tri",
    )


def pagerank(edges, iters: int = 8, scale: int = 10**12):
    """Integer PageRank -> Dataset[(node, outdeg, indeg, r)] after
    ``iters`` rounds.

    ``edges`` is the DIRECTED distinct edge set (dedup_edges with
    undirected=False).  r starts at ``scale`` per node; one round is
    ``r'(i) = base + sum_{j->i} floor(85 * r(j) / (100 * outdeg(j)))``.
    """
    base = 15 * scale // 100

    # outdeg once, fused onto the edge rows; materialized: reused T times
    deg = grouped_int_sums(edges, ["a"], lambda t: {}, count_col="outdeg")
    ed = hash_join(edges, deg, on="a").materialize()

    # vertex universe (bounded: vertex table << edge table)
    def node_parts(t: pa.Table) -> pa.Table:
        u = np.unique(
            np.concatenate(
                [
                    t.column("a").to_numpy(zero_copy_only=False),
                    t.column("b").to_numpy(zero_copy_only=False),
                ]
            )
        )
        return pa.table({"node": pa.array(u, pa.int64())})

    nodes_t = grouped_int_sums(
        edges.map_batches(node_parts, batch_format="pyarrow"),
        ["node"], lambda t: {}, count_col="_m",
    ).to_pandas()
    nodes = np.sort(nodes_t["node"].to_numpy().astype(np.int64))
    n = len(nodes)
    rank = np.full(n, scale, dtype=np.int64)

    for _ in range(iters):
        ref = ray.put((nodes, rank))

        def push(t: pa.Table, _ref=ref) -> pa.Table:
            nd, rk = fetch(_ref)
            s = t.column("a").to_numpy(zero_copy_only=False)
            d = t.column("b").to_numpy(zero_copy_only=False)
            od = t.column("outdeg").to_numpy(zero_copy_only=False)
            contrib = (85 * rk[np.searchsorted(nd, s)]) // (100 * od)
            di = np.searchsorted(nd, d)
            acc = np.zeros(len(nd), np.int64)
            np.add.at(acc, di, contrib)
            nz = np.flatnonzero(acc)
            return pa.table(
                {
                    "node": pa.array(nd[nz], pa.int64()),
                    "acc": pa.array(acc[nz], pa.int64()),
                }
            )

        sums = grouped_int_sums(
            ed.map_batches(push, batch_format="pyarrow"),
            ["node"],
            lambda t: {"acc": t.column("acc").to_numpy(zero_copy_only=False)},
            count_col="_m",
        ).to_pandas()
        rank = np.full(n, base, dtype=np.int64)
        idx = np.searchsorted(nodes, sums["node"].to_numpy().astype(np.int64))
        rank[idx] += sums["acc"].to_numpy().astype(np.int64)

    outdeg = np.zeros(n, np.int64)
    indeg = np.zeros(n, np.int64)
    deg_t = deg.to_pandas()
    outdeg[np.searchsorted(nodes, deg_t["a"].to_numpy().astype(np.int64))] = (
        deg_t["outdeg"].to_numpy().astype(np.int64)
    )
    ind = grouped_int_sums(edges, ["b"], lambda t: {}, count_col="indeg"
                           ).to_pandas()
    indeg[np.searchsorted(nodes, ind["b"].to_numpy().astype(np.int64))] = (
        ind["indeg"].to_numpy().astype(np.int64)
    )
    import ray.data as rd

    return rd.from_arrow(
        pa.table(
            {
                "node": pa.array(nodes, pa.int64()),
                "outdeg": pa.array(outdeg, pa.int64()),
                "indeg": pa.array(indeg, pa.int64()),
                "r": pa.array(rank, pa.int64()),
            }
        )
    )


def edge_jaccard(edges):
    """Neighborhood Jaccard per edge -> Dataset[(a, b, common, deg_a,
    deg_b, jaccard)] — the classic link-prediction score (Liben-Nowell
    & Kleinberg 2003).

    ``edges`` is the oriented distinct set (dedup_edges undirected).
    ``common = |N(a) & N(b)|`` equals the edge's triangle support, so
    it reuses the compact-forward wedge+semi join; with N including the
    opposite endpoint, ``|N(a) | N(b)| = deg_a + deg_b - common`` and
    the score is the single float division."""
    # per-edge triangle support: explode each triangle to its 3 edges
    wedges = hash_join(edges, edges, on="a", right_suffix="_r")

    def keep_ordered(t: pa.Table) -> pa.Table:
        b = t.column("b").to_numpy(zero_copy_only=False)
        c = t.column("b_r").to_numpy(zero_copy_only=False)
        m = b < c
        return pa.table(
            {
                "wa": t.column("a").filter(pa.array(m)),
                "a": pa.array(b[m], pa.int64()),
                "b": pa.array(c[m], pa.int64()),
            }
        )

    cand = wedges.map_batches(keep_ordered, batch_format="pyarrow")
    tri = hash_join(cand, edges, on=["a", "b"], how="left semi")

    def explode_edges(t: pa.Table) -> pa.Table:
        x = t.column("wa").to_numpy(zero_copy_only=False)
        y = t.column("a").to_numpy(zero_copy_only=False)
        z = t.column("b").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "a": pa.array(np.concatenate([x, x, y]), pa.int64()),
                "b": pa.array(np.concatenate([y, z, z]), pa.int64()),
            }
        )

    support = grouped_int_sums(
        tri.map_batches(explode_edges, batch_format="pyarrow"),
        ["a", "b"], lambda t: {}, count_col="common",
    )

    # degrees over the undirected set
    def both_ends(t: pa.Table) -> pa.Table:
        u = t.column("a").to_numpy(zero_copy_only=False)
        v = t.column("b").to_numpy(zero_copy_only=False)
        return pa.table(
            {"node": pa.array(np.concatenate([u, v]), pa.int64())}
        )

    deg = grouped_int_sums(
        edges.map_batches(both_ends, batch_format="pyarrow"),
        ["node"], lambda t: {}, count_col="deg",
    )

    withsup = hash_join(edges, support, on=["a", "b"], how="left outer")
    j1 = hash_join(withsup, deg, on="a", right_on="node")
    j2 = hash_join(j1, deg, on="b", right_on="node", right_suffix="_b")

    def finish(t: pa.Table) -> pa.Table:
        a = t.column("a").to_numpy(zero_copy_only=False)
        b = t.column("b").to_numpy(zero_copy_only=False)
        com = t.column("common").to_numpy(zero_copy_only=False)
        com = np.nan_to_num(com.astype(np.float64)).astype(np.int64)
        da = t.column("deg").to_numpy(zero_copy_only=False)
        db = t.column("deg_b").to_numpy(zero_copy_only=False)
        jac = com.astype(np.float64) / (da + db - com).astype(np.float64)
        return pa.table(
            {
                "a": pa.array(a, pa.int64()),
                "b": pa.array(b, pa.int64()),
                "common": pa.array(com, pa.int64()),
                "deg_a": pa.array(da, pa.int64()),
                "deg_b": pa.array(db, pa.int64()),
                "jaccard": pa.array(jac, pa.float64()),
            }
        )

    return j2.map_batches(finish, batch_format="pyarrow")
