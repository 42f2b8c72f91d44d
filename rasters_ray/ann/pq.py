"""Product quantization (Jégou et al. 2011, public algorithm) — the
compressed-vector scale path: split each d-dim embedding into M
subvectors, k-means each subspace, store M small codes per vector
(M * log2(k) bits instead of 4d bytes).

Distributed shape (one pass per Lloyd iteration covers ALL subspaces):
per batch, for every subspace assign the subvectors to the broadcast
codebooks and emit partial (sum, count) per (subspace, code) — a
M * k * (d/M + 1) partial per batch, independent of row count.
Driver folds the partials and recenters.  Initialization is the first k
vectors' subvectors (deterministic, like ann.kmeans_centroids), and the
centroid accumulation is FIXED-POINT int64 (values scaled by 2^20 and
rounded): integer partial sums are exact and commutative, so the
codebooks — and therefore the codes — are BIT-equal for any block
layout or partial arrival order (the same int-exact-lattice trick
stages/composite.py uses for float merges). A sequential single-pass
reference (``pq_train_local``) reproduces them bit-for-bit, which is
what upgrades ``pq_codes`` to a value-exact golden oracle.

Encoding is a broadcast matmul per batch; reconstruction error is the
accuracy measure (asserted against per-dataset variance in tests, the
same measured-accuracy gate the LSH/IVF paths use).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from rasters_ray.ann.search import _batch_matrix
from rasters_ray.util import fetch

__all__ = ["train_pq", "pq_train_local", "pq_encode",
           "pq_reconstruct", "pq_topk", "pq_topk_local"]

_FP_SCALE = float(1 << 20)  # fixed-point accumulation scale


def _assign(sub: np.ndarray, book: np.ndarray) -> np.ndarray:
    """Nearest-code assignment for one subspace (shared by the
    distributed partial, the encoder, and the sequential reference, so
    all three agree bit-for-bit).

    Scores via ``search._dot64`` (fixed-order float64), NOT a float32
    BLAS matmul — see _dot64's invariant."""
    from rasters_ray.ann.search import _dot64

    s64 = sub.astype(np.float64)
    b64 = book.astype(np.float64)
    d2 = (
        (s64 * s64).sum(1)[:, None]
        - 2.0 * _dot64(s64, b64)
        + (b64 * b64).sum(1)[None, :]
    )
    return np.argmin(d2, axis=1)


def train_pq(
    embeddings_ds,
    m_subspaces: int = 4,
    k: int = 16,
    iters: int = 5,
    col: str = "embedding",
):
    """-> codebooks float32[M, k, d/M]."""
    import ray

    first = embeddings_ds.limit(k).take_all()
    x0 = np.stack([np.asarray(r[col], dtype=np.float32) for r in first])
    n0, d = x0.shape
    if n0 < k:
        raise ValueError(f"need >= {k} vectors to init {k} codes")
    if d % m_subspaces:
        raise ValueError("dim must divide m_subspaces")
    ds_ = d // m_subspaces
    books = np.stack(
        [x0[:, m * ds_ : (m + 1) * ds_].copy() for m in range(m_subspaces)]
    )  # [M, k, ds]

    for _ in range(iters):
        bref = ray.put(books)

        def partial(t: pa.Table) -> pa.Table:
            if t.num_rows == 0:
                return pa.table(
                    {
                        "m": pa.array([], pa.int64()),
                        "code": pa.array([], pa.int64()),
                        "vsum": pa.array([], pa.list_(pa.int64())),
                        "n": pa.array([], pa.int64()),
                    }
                )
            b = fetch(bref)
            x = _batch_matrix(t, col).astype(np.float32)
            rows = {"m": [], "code": [], "vsum": [], "n": []}
            for m in range(b.shape[0]):
                sub = x[:, m * ds_ : (m + 1) * ds_]
                a = _assign(sub, b[m])
                # fixed-point int64 partial: exact + commutative, so the
                # fold is layout/arrival-order independent bit-for-bit
                q = np.rint(sub.astype(np.float64) * _FP_SCALE).astype(np.int64)
                sums = np.zeros((b.shape[1], ds_), np.int64)
                np.add.at(sums, a, q)
                cnt = np.bincount(a, minlength=b.shape[1]).astype(np.int64)
                rows["m"].extend([m] * b.shape[1])
                rows["code"].extend(range(b.shape[1]))
                rows["vsum"].extend(list(sums))
                rows["n"].extend(cnt.tolist())
            return pa.table(
                {
                    "m": pa.array(rows["m"], pa.int64()),
                    "code": pa.array(rows["code"], pa.int64()),
                    "vsum": pa.array(rows["vsum"], pa.list_(pa.int64())),
                    "n": pa.array(rows["n"], pa.int64()),
                }
            )

        parts = embeddings_ds.map_batches(partial, batch_format="pyarrow").to_pandas()
        # driver-small: M*k rows per block; int64 sums commute exactly
        sums = np.zeros((m_subspaces, k, ds_), np.int64)
        cnts = np.zeros((m_subspaces, k), np.int64)
        for mm, cc, vs, nn in zip(parts["m"], parts["code"], parts["vsum"], parts["n"]):
            sums[int(mm), int(cc)] += np.asarray(vs, dtype=np.int64)
            cnts[int(mm), int(cc)] += int(nn)
        books = _recenter(books, sums, cnts)
    return books


def _recenter(books: np.ndarray, sums: np.ndarray, cnts: np.ndarray) -> np.ndarray:
    """Fixed-point mean -> float32 centroids (shared with the sequential
    reference so both paths round identically)."""
    books = books.copy()
    m_subspaces, k = cnts.shape
    for m in range(m_subspaces):
        for c in range(k):
            if cnts[m, c]:
                books[m, c] = (
                    sums[m, c].astype(np.float64) / _FP_SCALE / cnts[m, c]
                ).astype(np.float32)
    return books


def pq_train_local(x: np.ndarray, m_subspaces: int = 4, k: int = 16,
                   iters: int = 5) -> np.ndarray:
    """Sequential single-process reference for ``train_pq`` — identical
    init, assignment kernel, fixed-point accumulation and recentering,
    so the distributed trainer must match it BIT-for-bit at any block
    layout (tests assert this; the golden pq_codes oracle relies on it)."""
    x = np.asarray(x)
    xf = np.stack([np.asarray(r, dtype=np.float32) for r in x]) \
        if x.dtype == object else x.astype(np.float32)
    n, d = xf.shape
    if d % m_subspaces:
        raise ValueError("dim must divide m_subspaces")
    ds_ = d // m_subspaces
    books = np.stack(
        [xf[:k, m * ds_ : (m + 1) * ds_].copy() for m in range(m_subspaces)]
    )
    for _ in range(iters):
        sums = np.zeros((m_subspaces, k, ds_), np.int64)
        cnts = np.zeros((m_subspaces, k), np.int64)
        for m in range(m_subspaces):
            sub = xf[:, m * ds_ : (m + 1) * ds_]
            a = _assign(sub, books[m])
            q = np.rint(sub.astype(np.float64) * _FP_SCALE).astype(np.int64)
            np.add.at(sums[m], a, q)
            cnts[m] = np.bincount(a, minlength=k).astype(np.int64)
        books = _recenter(books, sums, cnts)
    return books


def pq_encode(embeddings_ds, books: np.ndarray, col: str = "embedding",
              id_col: str = "vec_id"):
    """-> Dataset[(vec_id, codes: list<int64>[M])]."""
    import ray

    m_subspaces, k, ds_ = books.shape
    bref = ray.put(books)

    def encode(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table(
                {
                    id_col: t.column(id_col),
                    "codes": pa.array([], pa.list_(pa.int64())),
                }
            )
        b = fetch(bref)
        x = _batch_matrix(t, col).astype(np.float32)
        codes = np.zeros((len(x), m_subspaces), np.int64)
        for m in range(m_subspaces):
            codes[:, m] = _assign(x[:, m * ds_ : (m + 1) * ds_], b[m])
        return pa.table(
            {
                id_col: t.column(id_col),
                "codes": pa.array(list(codes), pa.list_(pa.int64())),
            }
        )

    return embeddings_ds.map_batches(encode, batch_format="pyarrow")


def pq_reconstruct(codes: np.ndarray, books: np.ndarray) -> np.ndarray:
    """codes [n, M] -> reconstructed vectors [n, d]."""
    return np.concatenate(
        [books[m][codes[:, m]] for m in range(books.shape[0])], axis=1
    )


def pq_topk(
    embeddings_ds,
    query_matrix: np.ndarray,
    k_results: int = 10,
    m_subspaces: int = 4,
    n_codes: int = 16,
    iters: int = 4,
    col: str = "embedding",
    id_col: str = "vec_id",
    shortlist: int = 8,
) -> pa.Table:
    """ADC-shortlist + exact-rerank search (the PQ deployment pattern):
    train PQ, then score vectors against the queries using only their
    CODES — distance(query, vec) ~= sum_m LUT[m][code_m], the
    query-to-codebook distance table broadcast once.  The shortlist is
    GLOBAL (round 4): pass 1 emits tie-inclusive per-batch ADC partials,
    the driver cuts the global top-(shortlist * k_results) per query by
    (adc, vec_id) — deterministic for any block layout since codes and
    LUT sums are fixed-order — and pass 2 exact-reranks ONLY shortlist
    rows (a broadcast id set of shortlist*k*nq ints).  At deployment the
    codes live in RAM, so pass 1 never touches raw vectors; only
    shortlist rows are read in full.  Shortlist recall is the measured
    accuracy (tests — the LSH/IVF accuracy-gate pattern), and the
    result is bit-equal to the sequential ``pq_topk_local``.

    Returns Table[(query_idx, rank, vec_id, dist)].
    """
    import ray

    books = train_pq(
        embeddings_ds, m_subspaces=m_subspaces, k=n_codes, iters=iters, col=col
    )
    q = np.ascontiguousarray(query_matrix, dtype=np.float32)
    lut = _adc_lut(q, books)
    nq = q.shape[0]
    S = shortlist * k_results
    bref = ray.put((books, lut))

    def adc_partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table(
                {
                    "query_idx": pa.array([], pa.int64()),
                    "vec_id": pa.array([], pa.int64()),
                    "adc": pa.array([], pa.float64()),
                }
            )
        b, lt = fetch(bref)
        x = _batch_matrix(t, col).astype(np.float32)
        ids = t.column(id_col).to_numpy(zero_copy_only=False)
        adc = _adc_scores(x, b, lt)  # (nq, n) fixed-order float64
        rows = {"query_idx": [], "vec_id": [], "adc": []}
        kk = min(S, adc.shape[1])
        for qi in range(nq):
            # batch-local top-S by the SAME (adc, vec_id) TOTAL order as
            # the global cut: any global top-S member ranks <= S within
            # its own batch under that order, so the partial is bounded
            # (<= S rows per query per batch) AND provably sufficient —
            # no unbounded tie-inclusion needed since the order is total
            a = adc[qi]
            keep = np.lexsort((ids, a))[:kk]
            rows["query_idx"].extend([qi] * len(keep))
            rows["vec_id"].extend(ids[keep].tolist())
            rows["adc"].extend(a[keep].tolist())
        return pa.table(
            {
                "query_idx": pa.array(rows["query_idx"], pa.int64()),
                "vec_id": pa.array(rows["vec_id"], pa.int64()),
                "adc": pa.array(rows["adc"], pa.float64()),
            }
        )

    parts = embeddings_ds.map_batches(adc_partial, batch_format="pyarrow").to_pandas()
    # global deterministic cut: (adc, vec_id) is a total order; ship the
    # PRECOMPUTED per-query sorted id arrays + the global union so each
    # rerank batch only filters and scans
    per_q_short = {}
    for qi, grp in parts.groupby("query_idx"):
        grp = grp.sort_values(["adc", "vec_id"], kind="mergesort").head(S)
        per_q_short[int(qi)] = np.sort(grp["vec_id"].to_numpy().astype(np.int64))
    all_short = (np.unique(np.concatenate(list(per_q_short.values())))
                 if per_q_short else np.zeros(0, np.int64))
    sref = ray.put((q, per_q_short, all_short))

    def rerank(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        empty = pa.table(
            {
                "query_idx": pa.array([], pa.int64()),
                "vec_id": pa.array([], pa.int64()),
                "dist": pa.array([], pa.float64()),
            }
        )
        if t.num_rows == 0:
            return empty
        qm, short, all_short = fetch(sref)
        t = t.filter(pc.is_in(t.column(id_col), pa.array(all_short, pa.int64())))
        if t.num_rows == 0:
            return empty
        x = _batch_matrix(t, col).astype(np.float64)
        ids = t.column(id_col).to_numpy(zero_copy_only=False)
        rows = {"query_idx": [], "vec_id": [], "dist": []}
        for qi in range(qm.shape[0]):
            sel = np.flatnonzero(np.isin(ids, short[qi]))
            if not len(sel):
                continue
            d = ((x[sel] - qm[qi].astype(np.float64)) ** 2).sum(axis=1)
            rows["query_idx"].extend([qi] * len(sel))
            rows["vec_id"].extend(ids[sel].tolist())
            rows["dist"].extend(d.tolist())
        return pa.table(
            {
                "query_idx": pa.array(rows["query_idx"], pa.int64()),
                "vec_id": pa.array(rows["vec_id"], pa.int64()),
                "dist": pa.array(rows["dist"], pa.float64()),
            }
        )

    cand = embeddings_ds.map_batches(rerank, batch_format="pyarrow").to_pandas()
    # driver-small: <= S rows per query
    out = {"query_idx": [], "rank": [], "vec_id": [], "dist": []}
    for qi, grp in cand.groupby("query_idx"):
        grp = grp.sort_values(["dist", "vec_id"], kind="mergesort").head(k_results)
        out["query_idx"].extend([int(qi)] * len(grp))
        out["rank"].extend(range(1, len(grp) + 1))
        out["vec_id"].extend(int(v) for v in grp["vec_id"])
        out["dist"].extend(float(v) for v in grp["dist"])
    return pa.table(
        {
            "query_idx": pa.array(out["query_idx"], pa.int64()),
            "rank": pa.array(out["rank"], pa.int64()),
            "vec_id": pa.array(out["vec_id"], pa.int64()),
            "dist": pa.array(out["dist"], pa.float64()),
        }
    )


def _adc_lut(q: np.ndarray, books: np.ndarray) -> np.ndarray:
    """LUT[m, qi, code] = ||q_sub - book||^2 in float64 (fixed-order)."""
    m_sub, k, ds_ = books.shape
    q64 = q.astype(np.float64)
    b64 = books.astype(np.float64)
    return np.stack(
        [
            ((q64[:, m * ds_ : (m + 1) * ds_][:, None, :] - b64[m][None, :, :]) ** 2)
            .sum(axis=2)
            for m in range(m_sub)
        ]
    )


def _adc_scores(x: np.ndarray, books: np.ndarray, lut: np.ndarray) -> np.ndarray:
    """(nq, n) ADC distances from codes — fixed subspace order, float64."""
    m_sub, k, ds_ = books.shape
    codes = np.zeros((len(x), m_sub), np.int64)
    for m in range(m_sub):
        codes[:, m] = _assign(x[:, m * ds_ : (m + 1) * ds_], books[m])
    adc = np.zeros((lut.shape[1], len(x)), np.float64)
    for m in range(m_sub):
        adc += lut[m][:, codes[:, m]]
    return adc


def pq_topk_local(x: np.ndarray, ids, queries: np.ndarray, k_results: int = 10,
                  m_subspaces: int = 4, n_codes: int = 16, iters: int = 4,
                  shortlist: int = 8) -> list:
    """Sequential reference for ``pq_topk`` (same fixed-point training,
    ADC kernels, global (adc, vec_id) shortlist cut and exact rerank):
    [(query_idx, rank, vec_id, dist)]."""
    xf = np.stack([np.asarray(r, dtype=np.float32) for r in x]) \
        if np.asarray(x).dtype == object else np.asarray(x, dtype=np.float32)
    ids = np.asarray(ids)
    books = pq_train_local(xf, m_subspaces=m_subspaces, k=n_codes, iters=iters)
    q = np.ascontiguousarray(queries, dtype=np.float32)
    lut = _adc_lut(q, books)
    adc = _adc_scores(xf, books, lut)
    S = shortlist * k_results
    idx = {int(v): i for i, v in enumerate(ids)}  # query-independent
    out = []
    for qi in range(q.shape[0]):
        order = sorted(zip(adc[qi], ids), key=lambda t: (t[0], t[1]))[:S]
        sel = np.asarray([int(v) for _, v in order])
        rows = np.asarray([idx[v] for v in sel])
        d = ((xf[rows].astype(np.float64) - q[qi].astype(np.float64)) ** 2).sum(axis=1)
        best = sorted(zip(d, sel), key=lambda t: (t[0], t[1]))[:k_results]
        for rank, (dist, vid) in enumerate(best):
            out.append((qi, rank + 1, int(vid), float(dist)))
    return out
