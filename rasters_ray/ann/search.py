"""Similarity search over an embedding column (list<float>).

- ``cosine_topk``: exact brute-force top-k — per-batch fixed-order
  scoring of the batch's embedding matrix against a broadcast query
  matrix, tie-inclusive partial top-k per batch, exact merge on the
  driver bounded to best-k-plus-boundary-ties per query (a few k rows,
  pruned as partials stream in). This is the baseline the scale path is
  checked against.
- ``lsh_topk``: the scale path — random-hyperplane LSH (Charikar 2002):
  embeddings bucketed by sign-pattern hash; queries probe their own bucket
  (+ optional multiprobe neighbors); exact rerank inside buckets only.

Both shapes stream: no stage materializes the embedding table.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np
import pyarrow as pa

from ..util import fetch


def _batch_matrix(batch: pa.Table, col: str) -> np.ndarray:
    arr = batch.column(col)
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    # list<float32> -> (n, d) without per-row python
    offsets = np.asarray(arr.offsets)
    values = np.asarray(arr.values, dtype=np.float32)
    d = offsets[1] - offsets[0]
    return values.reshape(len(arr), int(d))


def _normalize(m: np.ndarray) -> np.ndarray:
    n = np.linalg.norm(m, axis=1, keepdims=True)
    n[n == 0] = 1.0
    return m / n


def _dot64(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(n, d) x (m, d) -> (n, m) scores via FIXED-ORDER float64 einsum.

    This is the single helper every scoring site must use instead of a
    float32 BLAS matmul: BLAS picks different kernels (different
    reduction orders, last-ulp drift) for different row counts, and gemm
    pair values are not even row-permutation invariant (measured) — the
    whole round-4 golden-oracle contract (bit-equal results at any block
    layout) rests on this invariant."""
    return np.einsum("nd,md->nm", a.astype(np.float64), b.astype(np.float64))


def topk_partials(batch: pa.Table, q: np.ndarray, k: int, id_col: str, col: str) -> pa.Table:
    """Per-batch exact cosine top-k against the normalized query matrix
    ``q``; emits tie-inclusive (query_idx, vec_id, score) partials."""
    if batch.num_rows == 0:
        # the lsh/ivf filter stages routinely emit 0-row tables, and
        # map_batches can see empty blocks (same guard as elsewhere)
        return pa.table(
            {
                "query_idx": pa.array([], pa.int32()),
                "vec_id": pa.array([], pa.int64()),
                "score": pa.array([], pa.float64()),
            }
        )
    m = _normalize(_batch_matrix(batch, col).astype(np.float32))
    ids = batch.column(id_col).to_numpy(zero_copy_only=False)
    # _dot64: bit-identical per-pair scores for any batch layout,
    # which (with tie-inclusive partials below) makes the final
    # top-k deterministic — the golden-oracle gate for ANN queries
    sims = _dot64(m, q)
    k = min(k, m.shape[0])
    out_q, out_id, out_s = [], [], []
    for qi in range(q.shape[0]):
        s = sims[:, qi]
        kth = np.partition(-s, k - 1)[k - 1]
        # ties at the k-th score INCLUDED: a per-batch truncation of
        # equal scores would make the global result depend on which
        # batch a tied candidate landed in
        top = np.flatnonzero(-s <= kth)
        out_q.extend([qi] * len(top))
        out_id.extend(ids[top].tolist())
        out_s.extend(s[top].tolist())
    return pa.table(
        {
            "query_idx": pa.array(out_q, pa.int32()),
            "vec_id": pa.array(out_id),
            "score": pa.array(out_s, pa.float64()),
        }
    )


def cosine_topk(
    embeddings_ds,
    queries: np.ndarray,
    k: int = 10,
    id_col: str = "vec_id",
    col: str = "embedding",
) -> pa.Table:
    """Exact top-k: batch partials -> driver final merge (k rows/query)."""
    import ray

    qref = ray.put(_normalize(np.asarray(queries, dtype=np.float32)))
    partials = embeddings_ds.map_batches(
        lambda b: topk_partials(b, fetch(qref), k, id_col, col), batch_format="pyarrow"
    )
    # exact merge: collect the (k + ties)-sized partials, one global
    # (-score, vec_id) sort per query — arrival order cannot matter (a
    # bounded heap would drop boundary ties by arrival order). Memory is
    # bounded by pruning to best-k-plus-boundary-ties whenever a list
    # grows past 8k: pruning by (score > kth) OR (score == kth) keeps a
    # superset of the exact answer, so the result is unchanged even on
    # duplicate-heavy corpora where whole batches tie.
    def prune(h: List[Tuple[float, object]]) -> List[Tuple[float, object]]:
        kth = sorted((-s for s, _ in h))[k - 1] if len(h) >= k else None
        return h if kth is None else [t for t in h if -t[0] <= kth]

    cand: List[List[Tuple[float, object]]] = [[] for _ in range(len(queries))]
    for b in partials.iter_batches(batch_format="pyarrow"):
        qs = b.column("query_idx").to_numpy()
        ids = b.column("vec_id").to_pylist()
        ss = b.column("score").to_numpy()
        for qi, vid, s in zip(qs, ids, ss):
            h = cand[qi]
            h.append((float(s), vid))
            if len(h) > max(8 * k, 64):
                cand[qi] = prune(h)
    out_q, out_id, out_s, out_r = [], [], [], []
    for qi, h in enumerate(cand):
        for rank, (s, vid) in enumerate(
            sorted(h, key=lambda t: (-t[0], t[1]))[:k]
        ):
            out_q.append(qi)
            out_id.append(vid)
            out_s.append(s)
            out_r.append(rank + 1)
    return pa.table(
        {
            "query_idx": pa.array(out_q, pa.int32()),
            "rank": pa.array(out_r, pa.int32()),
            "vec_id": pa.array(out_id),
            "score": pa.array(out_s, pa.float64()),
        }
    )


class LSHBuckets:
    """map_batches stage: add random-hyperplane LSH bucket column(s) —
    one per hash table (``lsh_bucket``, ``lsh_bucket_1``, ...). Multiple
    independent tables are the OR-amplification lever: a true neighbor is
    missed only if it splits from the query in EVERY table."""

    def __init__(self, dim: int, n_planes: int = 12, seed: int = 42,
                 col: str = "embedding", n_tables: int = 1):
        rng = np.random.default_rng(seed)
        self.planes = [
            rng.standard_normal((dim, n_planes)).astype(np.float32)
            for _ in range(n_tables)
        ]
        self.col = col

    @staticmethod
    def table_col(t: int) -> str:
        return "lsh_bucket" if t == 0 else f"lsh_bucket_{t}"

    def hash_matrix(self, m: np.ndarray, t: int) -> np.ndarray:
        # _dot64: a float32 BLAS matmul flips sign bits for projections
        # within an ulp of 0 depending on row count, which would move
        # vectors between buckets across block layouts
        bits = _dot64(m, self.planes[t].T) > 0  # (n, p)
        bucket = np.zeros(m.shape[0], dtype=np.int64)
        for j in range(self.planes[t].shape[1]):
            bucket |= bits[:, j].astype(np.int64) << j
        return bucket

    def __call__(self, batch: pa.Table) -> pa.Table:
        m = _batch_matrix(batch, self.col)
        for t in range(len(self.planes)):
            batch = batch.append_column(
                self.table_col(t), pa.array(self.hash_matrix(m, t), pa.int64())
            )
        return batch


def _multiprobe_buckets(buckets: np.ndarray, n_planes: int, hamming: int) -> set:
    """Union of all buckets within Hamming distance <= ``hamming`` of each
    query bucket (standard multiprobe LSH: the nearest alternative buckets
    are the ones with few sign flips)."""
    from itertools import combinations

    wanted = set(int(b) for b in buckets)
    if hamming <= 0:
        return wanted
    flips: List[int] = []
    for r in range(1, hamming + 1):
        for idxs in combinations(range(n_planes), r):
            m = 0
            for j in idxs:
                m |= 1 << j
            flips.append(m)
    return {b ^ m for b in list(wanted) for m in flips} | wanted


def lsh_topk(
    embeddings_ds,
    queries: np.ndarray,
    k: int = 10,
    dim: Optional[int] = None,
    n_planes: int = 8,
    id_col: str = "vec_id",
    col: str = "embedding",
    seed: int = 42,
    multiprobe: int = 1,
    n_tables: int = 2,
) -> pa.Table:
    """Approximate top-k with two recall levers on top of single-bucket LSH:

    - ``multiprobe``: probe all buckets within Hamming distance m of the
      query bucket (sum_{r<=m} C(p, r) buckets per query per table);
    - ``n_tables``: OR across independent hash tables — a candidate is
      kept if ANY table co-buckets it with a probed bucket.

    Candidates are exact-reranked by ``cosine_topk``; recall is measured
    by ``recall_at_k`` (asserted >= 0.9 in tests, reported in bench)."""
    queries = np.asarray(queries, dtype=np.float32)
    if dim is None:
        dim = queries.shape[1]
    stage = LSHBuckets(dim, n_planes, seed, col, n_tables=n_tables)
    bucketed = embeddings_ds.map_batches(stage, batch_format="pyarrow")
    wanted_per_table = []
    for t in range(n_tables):
        qb = stage.hash_matrix(queries, t)
        wanted_per_table.append(
            pa.array(list(_multiprobe_buckets(qb, n_planes, multiprobe)), pa.int64())
        )
    import pyarrow.compute as pc

    def filt(tb: pa.Table) -> pa.Table:
        keep = pc.is_in(tb.column(LSHBuckets.table_col(0)), wanted_per_table[0])
        for t in range(1, n_tables):
            keep = pc.or_(keep, pc.is_in(tb.column(LSHBuckets.table_col(t)), wanted_per_table[t]))
        return tb.filter(keep)

    cands = bucketed.map_batches(filt, batch_format="pyarrow")
    return cosine_topk(cands, queries, k=k, id_col=id_col, col=col)


def recall_at_k(exact: pa.Table, approx: pa.Table, k: int) -> float:
    """Fraction of exact top-k ids the approximate result recovered,
    averaged over queries (both tables in cosine_topk's output schema)."""
    import collections

    def groups(t: pa.Table):
        g = collections.defaultdict(set)
        for qi, vid in zip(t.column("query_idx").to_pylist(), t.column("vec_id").to_pylist()):
            g[qi].add(vid)
        return g

    ge, ga = groups(exact), groups(approx)
    if not ge:
        return 1.0
    inter = sum(len(ge[q] & ga.get(q, set())) for q in ge)
    total = sum(len(ge[q]) for q in ge)
    return inter / total if total else 1.0


def cosine_near_dups(
    embeddings_ds,
    threshold: float = 0.95,
    dim: Optional[int] = None,
    n_planes: int = 10,
    n_tables: int = 2,
    id_col: str = "vec_id",
    col: str = "embedding",
    seed: int = 42,
    cap: int = 64,
):
    """Embedding near-duplicate pairs: (a, b, cosine >= threshold).

    Scale shape (mirrors MinHash-LSH dedup): each vector lands in one
    sign-pattern bucket per hash table; near-identical vectors share a
    bucket in SOME table with high probability, so candidates are only
    within-bucket pairs (all-pairs below ``cap`` rows, star pairs above),
    verified by exact cosine and deduped across tables by max. Never
    materializes the embedding table anywhere."""
    from ray.data.aggregate import Max

    probe_dim = dim
    stage_holder = {}

    def bucketize(t: pa.Table) -> pa.Table:
        m = _batch_matrix(t, col)
        if "stage" not in stage_holder:
            stage_holder["stage"] = LSHBuckets(
                probe_dim or m.shape[1], n_planes, seed, col, n_tables=n_tables
            )
        stage = stage_holder["stage"]
        n = m.shape[0]
        parts = []
        for tb in range(n_tables):
            bk = stage.hash_matrix(m, tb)
            parts.append(
                pa.table(
                    {
                        "table_id": pa.array(np.full(n, tb, dtype=np.int32)),
                        "bucket": pa.array(bk, pa.int64()),
                        "vec_id": t.column(id_col),
                        "embedding": t.column(col),
                    }
                )
            )
        return pa.concat_tables(parts)

    exploded = embeddings_ds.map_batches(bucketize, batch_format="pyarrow")

    def bucket_verify(group: pa.Table) -> pa.Table:
        n = group.num_rows
        empty = pa.table(
            {
                "a": pa.array([], group.schema.field("vec_id").type),
                "b": pa.array([], group.schema.field("vec_id").type),
                "cosine": pa.array([], pa.float64()),
            }
        )
        if n < 2:
            return empty
        m = _normalize(_batch_matrix(group, "embedding").astype(np.float64))
        ids = group.column("vec_id").to_pylist()
        order = np.argsort(np.asarray(ids, dtype=object), kind="stable")
        if n > cap:
            anchor = order[0]
            others = order[1:]
            # _dot64, not BLAS: gemm/gemv pair values are NOT row-order
            # invariant (verified), and Ray group row order is arbitrary
            sims = _dot64(m[others], m[anchor][None, :])[:, 0]
            keep = sims >= threshold
            return pa.table(
                {
                    "a": pa.array([ids[anchor]] * int(keep.sum())),
                    "b": pa.array([ids[int(o)] for o, k in zip(others, keep) if k]),
                    "cosine": pa.array(sims[keep], pa.float64()),
                }
            )
        sims = _dot64(m, m)
        ii, jj = np.triu_indices(n, k=1)
        keep = sims[ii, jj] >= threshold
        ii, jj = ii[keep], jj[keep]
        a_out, b_out, c_out = [], [], []
        for x, y, s in zip(ii, jj, sims[ii, jj] if len(ii) else []):
            pa_, pb_ = sorted((ids[int(x)], ids[int(y)]))
            a_out.append(pa_)
            b_out.append(pb_)
            c_out.append(float(s))
        if not a_out:
            return empty
        return pa.table(
            {
                "a": pa.array(a_out),
                "b": pa.array(b_out),
                "cosine": pa.array(c_out, pa.float64()),
            }
        )

    return (
        exploded.groupby(["table_id", "bucket"])
        .map_groups(bucket_verify, batch_format="pyarrow")
        .groupby(["a", "b"])
        .aggregate(Max("cosine", alias_name="cosine"))
    )


# ---------------------------------------------------------------------------
# IVF-Flat: k-means coarse quantizer + probed-list exact rerank
# ---------------------------------------------------------------------------


def kmeans_centroids(
    embeddings_ds,
    n_centroids: int = 32,
    iters: int = 3,
    col: str = "embedding",
    seed: int = 42,
) -> np.ndarray:
    """Spherical k-means coarse quantizer via distributed Lloyd rounds.

    Each round broadcasts the (k, d) centroid matrix and reduces
    per-batch PARTIAL (sum, count) statistics per centroid — the only
    bytes that ever reach the driver are k x (d+1) values per batch, so
    the embedding table itself never moves. Init takes the first k
    vectors (deterministic), and the centroid accumulation is
    FIXED-POINT int64 (normalized components scaled by 2^20, rounded):
    integer partials are exact and commutative, so the centroids — and
    every downstream assignment — are BIT-equal for any block layout or
    partial arrival order (same int-exact-lattice trick as ann/pq.py and
    stages/composite.py; ``kmeans_local`` is the sequential reference
    that must match bit-for-bit). Centroids are L2-normalized every
    round (spherical k-means matches cosine assignment)."""
    import ray

    first = embeddings_ds.limit(n_centroids).take_all()
    cents = _normalize(
        np.stack([np.asarray(r[col], dtype=np.float32) for r in first])
    )
    k, d = cents.shape
    for _ in range(iters):
        cref = ray.put(cents)

        def partial(t: pa.Table) -> pa.Table:
            c = fetch(cref)
            m = _normalize(_batch_matrix(t, col).astype(np.float32))
            a = _km_argmax(m, c)  # (n,) nearest centroid
            # fixed-point int64 partial: exact + commutative fold
            q = np.rint(m * _KM_FP_SCALE).astype(np.int64)
            sums = np.zeros((k, d), dtype=np.int64)
            np.add.at(sums, a, q)
            cnt = np.bincount(a, minlength=k).astype(np.int64)
            return pa.table(
                {
                    "centroid": pa.array(np.arange(k, dtype=np.int64)),
                    "vsum": pa.array(list(sums), pa.list_(pa.int64())),
                    "n": pa.array(cnt, pa.int64()),
                }
            )

        tot = np.zeros((k, d), dtype=np.int64)
        cnt = np.zeros(k, dtype=np.int64)
        for b in embeddings_ds.map_batches(partial, batch_format="pyarrow").iter_batches(
            batch_format="pyarrow"
        ):
            ci = b.column("centroid").to_numpy()
            vs_col = b.column("vsum")
            if isinstance(vs_col, pa.ChunkedArray):
                vs_col = vs_col.combine_chunks()
            vs = np.asarray(vs_col.values, dtype=np.int64).reshape(len(vs_col), d)
            # add.at, NOT tot[ci] += vs: iter_batches may coalesce several
            # partial blocks into one batch, giving DUPLICATE centroid ids,
            # and fancy-index += silently keeps only the last occurrence
            np.add.at(tot, ci, vs)
            np.add.at(cnt, ci, b.column("n").to_numpy())
        cents = _km_recenter(cents, tot, cnt)
    return cents


_KM_FP_SCALE = float(1 << 20)


def _km_argmax(m: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Nearest-centroid by cosine via ``_dot64`` — bit-stable argmax for
    any batch size (see _dot64's invariant)."""
    return np.argmax(_dot64(m, c), axis=1)


def _km_recenter(cents: np.ndarray, tot: np.ndarray, cnt: np.ndarray) -> np.ndarray:
    """Fixed-point mean -> normalized float32 centroids (shared with the
    sequential reference so both paths round identically)."""
    live = cnt > 0
    cents = cents.copy()
    cents[live] = _normalize(
        (tot[live].astype(np.float64) / _KM_FP_SCALE / cnt[live, None]).astype(
            np.float32
        )
    )
    return cents


def kmeans_local(x: np.ndarray, n_centroids: int = 32, iters: int = 3) -> np.ndarray:
    """Sequential single-process reference for ``kmeans_centroids`` —
    identical init, assignment, fixed-point accumulation and
    recentering, so the distributed trainer must match it BIT-for-bit
    at any block layout (tests assert this; the golden cluster_assign
    oracle relies on it)."""
    xf = _normalize(np.asarray(x, dtype=np.float32))
    cents = _normalize(xf[:n_centroids].copy())
    k, d = cents.shape
    for _ in range(iters):
        a = _km_argmax(xf, cents)
        q = np.rint(xf * _KM_FP_SCALE).astype(np.int64)
        tot = np.zeros((k, d), dtype=np.int64)
        np.add.at(tot, a, q)
        cnt = np.bincount(a, minlength=k).astype(np.int64)
        cents = _km_recenter(cents, tot, cnt)
    return cents


def ivf_topk(
    embeddings_ds,
    queries: np.ndarray,
    k: int = 10,
    n_centroids: int = 32,
    nprobe: int = 4,
    iters: int = 3,
    id_col: str = "vec_id",
    col: str = "embedding",
    seed: int = 42,
) -> pa.Table:
    """IVF-Flat approximate top-k — the k-means sibling of ``lsh_topk``.

    Build: spherical-k-means centroids (``kmeans_centroids``). Search:
    each query probes its ``nprobe`` nearest centroids; a streaming
    filter keeps only vectors whose nearest centroid is probed by ANY
    query (one broadcast matmul per batch), and ``cosine_topk`` exact-
    reranks the surviving inverted lists. Recall is measured by
    ``recall_at_k`` exactly like the LSH path."""
    import pyarrow.compute as pc

    import ray

    queries = np.asarray(queries, dtype=np.float32)
    cents = kmeans_centroids(
        embeddings_ds, n_centroids=n_centroids, iters=iters, col=col, seed=seed
    )
    qn = _normalize(queries)
    sims = qn @ cents.T  # (nq, k)
    npb = min(nprobe, cents.shape[0])
    probed = np.unique(
        np.argpartition(-sims, npb - 1, axis=1)[:, :npb].ravel()
    )
    cref = ray.put(cents)
    wanted = pa.array(probed.astype(np.int64), pa.int64())

    def filt(t: pa.Table) -> pa.Table:
        c = fetch(cref)
        m = _normalize(_batch_matrix(t, col).astype(np.float32))
        a = _km_argmax(m, c).astype(np.int64)
        return t.filter(pc.is_in(pa.array(a, pa.int64()), wanted))

    cands = embeddings_ds.map_batches(filt, batch_format="pyarrow")
    return cosine_topk(cands, queries, k=k, id_col=id_col, col=col)


def kmeans_assign(
    embeddings_ds,
    centroids: np.ndarray,
    id_col: str = "vec_id",
    col: str = "embedding",
):
    """Assign every vector to its nearest centroid (cosine) ->
    Dataset[(id, cluster, sim)].  Centroids are broadcast once
    (``ray.put``); assignment is one matmul per batch — embarrassingly
    parallel, nothing shuffles.  As of round 4 the centroids AND this
    assignment are bit-stable across block layouts (fixed-point Lloyd
    accumulation + fixed-order einsum scoring), which is what lets
    cluster_assign carry a golden value oracle."""
    import ray

    cents = _normalize(np.asarray(centroids, dtype=np.float32))
    cref = ray.put(cents)

    def assign(t: pa.Table) -> pa.Table:
        c = fetch(cref)
        m = _normalize(_batch_matrix(t, col).astype(np.float32))
        sims = _dot64(m, c)  # fixed-order reduction: bit-stable
        a = np.argmax(sims, axis=1)
        return pa.table(
            {
                id_col: t.column(id_col),
                "cluster": pa.array(a.astype(np.int64), pa.int64()),
                "sim": pa.array(sims[np.arange(len(a)), a].astype(np.float64),
                                pa.float64()),
            }
        )

    return embeddings_ds.map_batches(assign, batch_format="pyarrow")


def cosine_topk_local(x: np.ndarray, ids: np.ndarray, queries: np.ndarray,
                      k: int = 10, mask: np.ndarray = None) -> list:
    """Sequential reference for ``cosine_topk`` over (optionally masked)
    vectors: [(query_idx, rank, vec_id, score)] with the same normalize/
    einsum/(-score, vec_id) ordering — bit-equal to the distributed path
    at any block layout (per-pair scores are fixed-order float64, and
    the distributed partials are tie-inclusive)."""
    xf = _normalize(np.asarray(x, dtype=np.float32))
    qn = _normalize(np.asarray(queries, dtype=np.float32))
    if mask is not None:
        xf, ids = xf[mask], np.asarray(ids)[mask]
    sims = _dot64(xf, qn)
    out = []
    for qi in range(qn.shape[0]):
        order = sorted(zip(-sims[:, qi], ids), key=lambda t: (t[0], t[1]))[:k]
        for rank, (negs, vid) in enumerate(order):
            out.append((qi, rank + 1, int(vid), float(-negs)))
    return out


def lsh_topk_local(x: np.ndarray, ids: np.ndarray, queries: np.ndarray,
                   k: int = 10, n_planes: int = 8, seed: int = 42,
                   multiprobe: int = 1, n_tables: int = 2) -> list:
    """Sequential reference for ``lsh_topk`` (same LSHBuckets kernels)."""
    queries = np.asarray(queries, dtype=np.float32)
    stage = LSHBuckets(queries.shape[1], n_planes, seed, "embedding",
                       n_tables=n_tables)
    xf = np.asarray(x, dtype=np.float32)
    keep = np.zeros(len(xf), dtype=bool)
    for t in range(n_tables):
        qb = stage.hash_matrix(queries, t)
        wanted = _multiprobe_buckets(qb, n_planes, multiprobe)
        keep |= np.isin(stage.hash_matrix(xf, t), np.fromiter(wanted, np.int64))
    return cosine_topk_local(xf, ids, queries, k=k, mask=keep)


def ivf_topk_local(x: np.ndarray, ids: np.ndarray, queries: np.ndarray,
                   k: int = 10, n_centroids: int = 32, nprobe: int = 4,
                   iters: int = 3) -> list:
    """Sequential reference for ``ivf_topk`` (kmeans_local centroids are
    bit-equal to the distributed trainer; probe + filter identical)."""
    queries = np.asarray(queries, dtype=np.float32)
    cents = kmeans_local(x, n_centroids=n_centroids, iters=iters)
    qn = _normalize(queries)
    sims = qn @ cents.T
    npb = min(nprobe, cents.shape[0])
    probed = np.unique(np.argpartition(-sims, npb - 1, axis=1)[:, :npb].ravel())
    xf = _normalize(np.asarray(x, dtype=np.float32))
    a = _km_argmax(xf, cents)
    keep = np.isin(a, probed)
    return cosine_topk_local(x, ids, queries, k=k, mask=keep)


def cosine_near_dups_local(
    x: np.ndarray, ids, threshold: float = 0.95, n_planes: int = 10,
    n_tables: int = 2, seed: int = 42, cap: int = 64,
) -> list:
    """Sequential reference for ``cosine_near_dups`` — same bucket
    kernels, same sorted-anchor cap rule, same einsum pair scoring, so
    the distributed path must match bit-for-bit: [(a, b, cosine)]
    sorted."""
    from collections import defaultdict

    xf = np.asarray(x, dtype=np.float32)
    stage = LSHBuckets(xf.shape[1], n_planes, seed, "embedding",
                       n_tables=n_tables)
    m64 = _normalize(xf.astype(np.float64))
    best: dict = {}
    for t in range(n_tables):
        bk = stage.hash_matrix(xf, t)
        groups = defaultdict(list)
        for i, b in enumerate(bk):
            groups[int(b)].append(i)
        for rows in groups.values():
            if len(rows) < 2:
                continue
            order = sorted(range(len(rows)), key=lambda r: ids[rows[r]])
            g = m64[[rows[r] for r in order]]
            gids = [ids[rows[r]] for r in order]
            if len(rows) > cap:
                sims = _dot64(g[1:], g[0][None, :])[:, 0]
                for o, sv in zip(gids[1:], sims):
                    if sv >= threshold:
                        k2 = tuple(sorted((gids[0], o)))
                        best[k2] = max(best.get(k2, -2.0), float(sv))
            else:
                sims = _dot64(g, g)
                n = len(gids)
                for i in range(n):
                    for j in range(i + 1, n):
                        if sims[i, j] >= threshold:
                            k2 = tuple(sorted((gids[i], gids[j])))
                            best[k2] = max(best.get(k2, -2.0), float(sims[i, j]))
    return sorted((a, b, c) for (a, b), c in best.items())


def late_interaction_scores(doc_ids: np.ndarray, doc_tok_fn, query_toks: np.ndarray):
    """ColBERT-style late interaction (Khattab & Zaharia, SIGIR 2020):
    ``score(doc) = sum over query tokens of max over doc tokens of the
    token-level dot product`` (MaxSim).  ``doc_tok_fn(ids) ->
    (n_docs, n_tok, dim)`` integer token embeddings; ``query_toks`` is
    the broadcast (n_q, dim) integer query matrix.  All-int64 einsum,
    so scores are exact and SQL-replayable.  Returns
    ``(scores, arg_t0)`` where arg_t0 is the FIRST maximizing doc
    token for query token 0 (tie-break lowest index).

    Scale shape: the query side broadcasts once; per batch one
    (docs, n_tok, n_q) einsum — documents never shuffle."""
    ids = np.asarray(doc_ids, dtype=np.int64)
    q = np.asarray(query_toks, dtype=np.int64)
    e = np.asarray(doc_tok_fn(ids), dtype=np.int64)
    if e.ndim != 3 or q.ndim != 2 or e.shape[2] != q.shape[1]:
        raise ValueError("late_interaction needs (n, t, d) docs and (q, d) queries")
    dots = np.einsum("ntd,qd->nqt", e, q)          # int64-exact
    best = dots.max(axis=2)                        # (n, q) MaxSim
    scores = best.sum(axis=1)                      # (n,)
    arg_t0 = dots[:, 0, :].argmax(axis=1)          # first max, query tok 0
    return scores, arg_t0.astype(np.int64)
