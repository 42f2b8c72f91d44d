"""Distributed connected components over an edge Dataset.

The dedup endgame: near-duplicate detection (minhash / simhash / pHash
/ cosine buckets) emits PAIRS, but curation needs CLUSTERS — "keep one
canonical doc per component of the similarity graph".  This is the
connected-components labeling step, implemented as the CCF iteration
(Kardes et al. 2014, "CCF: Fast and scalable connected component
computation in MapReduce" — a public algorithm): each round groups the
current pair list by node, points every member of the group at the
group minimum, and emits the shortcut pairs; labels only ever decrease,
and the fixpoint maps every non-root node to its component minimum.

Scale shape: ONE ``util.exchange`` on the node per round with a
fully vectorized per-partition kernel (lexsort + minimum.reduceat —
never a per-node Python walk); rounds converge in O(log n) for the
star/clique-shaped components dedup produces (diameter-bound in
general).  Driver state per round is three scalars (count and label
sums for the fixpoint test); pair tables stay in the object store.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from rasters_ray.util import exchange, run_starts

__all__ = ["connected_components", "cluster_sizes"]

_PACK_LIM = np.int64(1) << 31


def _dedup_pairs(a: np.ndarray, b: np.ndarray) -> tuple:
    if len(a) == 0:
        return a, b
    if a.max() < _PACK_LIM and b.max() < _PACK_LIM and a.min() >= 0 and b.min() >= 0:
        packed = np.unique((a << np.int64(32)) | b)
        return packed >> np.int64(32), packed & (_PACK_LIM * 2 - 1)
    uniq = np.unique(np.stack([a, b], axis=1), axis=0)
    return uniq[:, 0], uniq[:, 1]


def _ccf_round(group: pa.Table) -> pa.Table:
    """CCF-Iterate + CCF-Dedup on one hash partition of the pair list."""
    k = group.column("u").to_numpy(zero_copy_only=False).astype(np.int64)
    v = group.column("v").to_numpy(zero_copy_only=False).astype(np.int64)
    order = np.lexsort((v, k))
    k, v = k[order], v[order]
    starts = run_starts(k)
    counts = np.diff(np.append(starts, len(k)))
    m = np.minimum.reduceat(v, starts)
    kk = k[starts]
    gidx = np.repeat(np.arange(len(starts)), counts)
    mrow = m[gidx]
    emit_g = m < kk  # groups whose key is not already the minimum
    row_ok = emit_g[gidx] & (v != mrow)
    a = np.concatenate([kk[emit_g], v[row_ok]])
    b = np.concatenate([m[emit_g], mrow[row_ok]])
    a, b = _dedup_pairs(a, b)
    return pa.table({"u": pa.array(a, pa.int64()), "v": pa.array(b, pa.int64())})


def _orient_both(t: pa.Table) -> pa.Table:
    u = t.column("u").to_numpy(zero_copy_only=False).astype(np.int64)
    v = t.column("v").to_numpy(zero_copy_only=False).astype(np.int64)
    keep = u != v
    u, v = u[keep], v[keep]
    a = np.concatenate([u, v])
    b = np.concatenate([v, u])
    return pa.table({"u": pa.array(a, pa.int64()), "v": pa.array(b, pa.int64())})


def connected_components(edges_ds, max_iters: int = 32):
    """Edge Dataset[(u:int64, v:int64)] -> Dataset[(node, root)] mapping
    EVERY node of the edge set (roots included, root -> root) to its
    component minimum.  Self-loops are ignored; duplicate edges are
    harmless.  Raises if the fixpoint is not reached in ``max_iters``
    rounds (each round at least halves label height, so 32 covers any
    realistic graph)."""

    pairs = edges_ds.materialize()
    prev = None
    for _ in range(int(max_iters)):
        pairs = exchange(pairs.map_batches(_orient_both, batch_format="pyarrow"),
                         "u", _ccf_round).materialize()
        from ray.data.aggregate import Count, Sum

        agg = pairs.aggregate(Count(), Sum("u"), Sum("v"))  # one pass
        if agg["count()"] == 0:  # no edges at all (only self-loops)
            break
        state = (agg["count()"], agg["sum(u)"], agg["sum(v)"])
        if state == prev:
            break
        prev = state
    else:
        raise RuntimeError(f"connected_components: no fixpoint in {max_iters} rounds")

    # At the fixpoint every pair is (non-root node, component root) —
    # possibly duplicated across partitions.  One exchange on the node
    # dedups and appends the roots' self rows.
    def finalize(t: pa.Table) -> pa.Table:
        u = t.column("u").to_numpy(zero_copy_only=False)
        v = t.column("v").to_numpy(zero_copy_only=False)
        roots = np.unique(v)
        a = np.concatenate([u, roots])
        b = np.concatenate([v, roots])
        a, b = _dedup_pairs(a, b)
        return pa.table({"node": pa.array(a, pa.int64()), "root": pa.array(b, pa.int64())})

    def dedup_part(g: pa.Table) -> pa.Table:
        a = g.column("node").to_numpy(zero_copy_only=False).astype(np.int64)
        b = g.column("root").to_numpy(zero_copy_only=False).astype(np.int64)
        a, b = _dedup_pairs(a, b)
        return pa.table(
            {"node": pa.array(a, pa.int64()), "root": pa.array(b, pa.int64())}
        )

    return exchange(pairs.map_batches(finalize, batch_format="pyarrow"), "node", dedup_part)


def cluster_sizes(cc_ds):
    """(node, root) -> (node, root, csize) where csize counts the nodes
    of the component — partial counts per batch, a per-key Ray
    ``groupby("root")`` final that sums them, then ``hash_join`` (one
    ``util.exchange``) brings the (root, csize) table back onto the
    nodes."""
    from rasters_ray.relational.joins import hash_join

    def partial(t: pa.Table) -> pa.Table:
        r = t.column("root").to_numpy(zero_copy_only=False)
        ur, n = np.unique(r, return_counts=True)
        return pa.table(
            {
                "root": pa.array(ur.astype(np.int64), pa.int64()),
                "n": pa.array(n.astype(np.int64), pa.int64()),
            }
        )

    def final(g: pa.Table) -> pa.Table:
        return pa.table(
            {
                "root": g.column("root").slice(0, 1),
                "csize": pa.array(
                    [int(g.column("n").to_numpy().sum())], pa.int64()
                ),
            }
        )

    sizes = (
        cc_ds.map_batches(partial, batch_format="pyarrow")
        .groupby("root")
        .map_groups(final, batch_format="pyarrow")
    )
    return hash_join(cc_ds, sizes, on="root", how="inner")
