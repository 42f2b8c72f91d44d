"""Order-sensitive sequence analytics over event streams.

`transition_counts` builds the first-order Markov transition table of
a per-user event stream: for each user's events ordered by (ts, id),
count every adjacent (from_type -> to_type) pair.  This is the
substrate of session flow analysis / Markov chain attribution.

Scale shape: one ``util.exchange`` by user (each user's stream must
be in one partition to order it), then each partition counts all its
users' pairs in one vectorized pass (lexsort + adjacent compare +
np.unique).  Only (from, to, n) partials — at most |types|^2 rows per
partition — reach the tiny final reduce
(`grouped_int_sums(partials_ready=True)`).  The per-series statistics
exchange by series type instead.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from rasters_ray.util import exchange

__all__ = ["pair_counts_arrays", "transition_counts", "lagged_pair_stats",
           "cusum_stats", "runs_test", "dtw_pair", "trigram_counts"]


def pair_counts_arrays(u: np.ndarray, order_key: np.ndarray,
                       tie_key: np.ndarray, types: np.ndarray):
    """(from_types, to_types, counts) of adjacent same-user pairs.

    `types` is an object array of strings; ordering is (u, order_key,
    tie_key) ascending — `tie_key` must make the order total (e.g. a
    unique event id) for a deterministic table.
    """
    n = len(u)
    if n < 2:
        e = np.empty(0, object)
        return e, e, np.empty(0, np.int64)
    utypes, tcode = np.unique(types, return_inverse=True)
    order = np.lexsort((tie_key, order_key, u))
    uo = u[order]
    co = tcode[order]
    same = uo[1:] == uo[:-1]
    fr = co[:-1][same]
    to = co[1:][same]
    if not len(fr):
        e = np.empty(0, object)
        return e, e, np.empty(0, np.int64)
    packed = fr.astype(np.int64) * len(utypes) + to
    uniq, cnt = np.unique(packed, return_counts=True)
    return (
        utypes[uniq // len(utypes)],
        utypes[uniq % len(utypes)],
        cnt.astype(np.int64),
    )


def _series_values(ds, type_col: str, ts_col: str, id_col: str, values_fn):
    """``ds`` cut to the columns a per-series statistic reads: the
    series type, int64 ts, the tie id and the int64 values ``_v``."""

    def select(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                type_col: t.column(type_col),
                ts_col: t.column(ts_col).cast(pa.int64()),
                id_col: t.column(id_col),
                "_v": pa.array(np.asarray(values_fn(t), np.int64), pa.int64()),
            }
        )

    return ds.map_batches(select, batch_format="pyarrow")


def transition_counts(ds, user_col: str, ts_col: str, id_col: str,
                      type_col: str):
    """Global (from_type, to_type, n) transition table as a Dataset."""
    from rasters_ray.relational.aggregates import grouped_int_sums

    def fold(group: pa.Table) -> pa.Table:
        u = group.column(user_col).to_numpy(zero_copy_only=False).astype(np.int64)
        ts = group.column(ts_col).cast(pa.int64()).to_numpy()
        eid = group.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
        ty = np.asarray(group.column(type_col).to_pylist(), dtype=object)
        fr, to, cnt = pair_counts_arrays(u, ts, eid, ty)
        return pa.table(
            {
                "from_type": pa.array(fr, pa.string()),
                "to_type": pa.array(to, pa.string()),
                "n": pa.array(cnt, pa.int64()),
            }
        )

    return grouped_int_sums(
        exchange(ds, user_col, fold), ["from_type", "to_type"], None,
        partials_ready=True
    )


def lagged_pair_stats(ds, type_col: str, ts_col: str, id_col: str,
                      values_fn):
    """Lag-1 sufficient statistics per series -> Dataset[type, n_pairs,
    sx, sy, sxx, syy, sxy, acf].

    For each `type_col` series ordered by (ts, id), every adjacent
    value pair (x_i, x_{i+1}) contributes exact integer sums; `acf` is
    the Pearson correlation of the pairs as ONE fixed-order float
    expression over the ints (SQL replays it with hugeint casts).
    Series exchange by type so each is in one partition — same
    group-fits-partition bound as grouped_quantiles."""

    def fold(group: pa.Table) -> pa.Table:
        ty = np.asarray(group.column(type_col).to_pylist(), dtype=object)
        ts = group.column(ts_col).to_numpy(zero_copy_only=False)
        eid = group.column(id_col).to_numpy(zero_copy_only=False)
        v = group.column("_v").to_numpy(zero_copy_only=False)
        uty, tcode = np.unique(ty, return_inverse=True)
        order = np.lexsort((eid, ts, tcode))
        to, vo = tcode[order], v[order]
        same = to[1:] == to[:-1]
        x, y, code = vo[:-1][same], vo[1:][same], to[1:][same]
        k = len(uty)

        def bc(w):  # exact int64 grouped sum (bincount weights are float)
            out = np.zeros(k, np.int64)
            np.add.at(out, code, w)
            return out

        n = np.bincount(code, minlength=k).astype(np.int64)
        sx, sy = bc(x), bc(y)
        sxx, syy, sxy = bc(x * x), bc(y * y), bc(x * y)
        # Python-int products: exact beyond int64, mirrors the hugeint SQL
        acf = np.empty(k, np.float64)
        for i in range(k):  # k = types in partition, tiny
            ni = int(n[i])
            num = float(ni * int(sxy[i]) - int(sx[i]) * int(sy[i]))
            d1 = np.sqrt(float(ni * int(sxx[i]) - int(sx[i]) ** 2))
            d2 = np.sqrt(float(ni * int(syy[i]) - int(sy[i]) ** 2))
            acf[i] = num / (d1 * d2) if d1 * d2 else np.nan
        keep = n > 1
        return pa.table(
            {
                type_col: pa.array(uty[keep], pa.string()),
                "n_pairs": pa.array(n[keep], pa.int64()),
                "sx": pa.array(sx[keep], pa.int64()),
                "sy": pa.array(sy[keep], pa.int64()),
                "sxx": pa.array(sxx[keep], pa.int64()),
                "syy": pa.array(syy[keep], pa.int64()),
                "sxy": pa.array(sxy[keep], pa.int64()),
                "acf": pa.array(acf[keep], pa.float64()),
            }
        )

    return exchange(_series_values(ds, type_col, ts_col, id_col, values_fn),
                    type_col, fold)


def cusum_stats(ds, type_col: str, ts_col: str, id_col: str, values_fn):
    """CUSUM changepoint statistic per series -> Dataset[type, n, total,
    k_star, d_max].

    For the series ordered by (ts, id) with prefix sums C_k and total T,
    the mean-free cumulative deviation scaled by n is the exact integer
    ``D_k = n*C_k - k*T`` (Page 1954's CUSUM against the global mean,
    cross-multiplied to avoid the float mean).  ``d_max = max |D_k|``
    over k = 1..n-1 and ``k_star`` is the smallest attaining k — the
    most likely single changepoint.  Exactness bound: |n*C_k| < 2^63
    (n * total cents), documented like the other int64 cross products.

    Series exchange by type (group-fits-partition, the
    lagged_pair_stats bound); inside the partition everything is one
    lexsort + vectorized cumsum."""

    def fold(group: pa.Table) -> pa.Table:
        ty = np.asarray(group.column(type_col).to_pylist(), dtype=object)
        ts = group.column(ts_col).to_numpy(zero_copy_only=False)
        eid = group.column(id_col).to_numpy(zero_copy_only=False)
        v = group.column("_v").to_numpy(zero_copy_only=False)
        uty, tcode = np.unique(ty, return_inverse=True)
        order = np.lexsort((eid, ts, tcode))
        to, vo = tcode[order], v[order]
        out = {k: [] for k in (type_col, "n", "total", "k_star", "d_max")}
        for i, name in enumerate(uty):
            s = vo[to == i]
            n = len(s)
            if n < 2:
                continue
            ck = np.cumsum(s)
            total = int(ck[-1])
            k = np.arange(1, n, dtype=np.int64)
            d = np.abs(n * ck[:-1] - k * total)
            dmax = int(d.max())
            out[type_col].append(str(name))
            out["n"].append(n)
            out["total"].append(total)
            out["k_star"].append(int(k[np.flatnonzero(d == dmax)[0]]))
            out["d_max"].append(dmax)
        return pa.table(
            {
                type_col: pa.array(out[type_col], pa.string()),
                "n": pa.array(out["n"], pa.int64()),
                "total": pa.array(out["total"], pa.int64()),
                "k_star": pa.array(out["k_star"], pa.int64()),
                "d_max": pa.array(out["d_max"], pa.int64()),
            }
        )

    return exchange(_series_values(ds, type_col, ts_col, id_col, values_fn),
                    type_col, fold)


def runs_test(ds, type_col: str, ts_col: str, id_col: str, values_fn):
    """Wald-Wolfowitz runs test per series -> Dataset[type, n1, n2,
    runs, e_runs].

    Values are dichotomized at the series' lower median (percentile_disc
    rank ceil(n/2), the repo-wide median rule); values EQUAL to the
    median are discarded (the classical treatment).  ``runs`` counts
    maximal same-sign blocks in (ts, id) order after discarding; the
    one float is the expected run count ``1 + 2*n1*n2/(n1+n2)``; series
    exchange by type."""

    def fold(group: pa.Table) -> pa.Table:
        ty = np.asarray(group.column(type_col).to_pylist(), dtype=object)
        ts = group.column(ts_col).to_numpy(zero_copy_only=False)
        eid = group.column(id_col).to_numpy(zero_copy_only=False)
        v = group.column("_v").to_numpy(zero_copy_only=False)
        uty, tcode = np.unique(ty, return_inverse=True)
        order = np.lexsort((eid, ts, tcode))
        to, vo = tcode[order], v[order]
        out = {k: [] for k in (type_col, "n1", "n2", "runs", "e_runs")}
        for i, name in enumerate(uty):
            s = vo[to == i]
            n = len(s)
            if n < 2:
                continue
            med = int(np.sort(s)[(n + 1) // 2 - 1])  # lower median
            sign = s[s != med] > med
            n1 = int(sign.sum())
            n2 = int(len(sign) - n1)
            if n1 == 0 or n2 == 0:
                continue
            runs = int(1 + (sign[1:] != sign[:-1]).sum())
            out[type_col].append(str(name))
            out["n1"].append(n1)
            out["n2"].append(n2)
            out["runs"].append(runs)
            out["e_runs"].append(1.0 + float(2 * n1 * n2) / float(n1 + n2))
        return pa.table(
            {
                type_col: pa.array(out[type_col], pa.string()),
                "n1": pa.array(out["n1"], pa.int64()),
                "n2": pa.array(out["n2"], pa.int64()),
                "runs": pa.array(out["runs"], pa.int64()),
                "e_runs": pa.array(out["e_runs"], pa.float64()),
            }
        )

    return exchange(_series_values(ds, type_col, ts_col, id_col, values_fn),
                    type_col, fold)


def dtw_pair(ds, type_col: str, ts_col: str, id_col: str, values_fn,
             type_a: str, type_b: str, k: int = 48):
    """Dynamic time warping distance between the first ``k`` values of
    two series -> ONE row (n1, n2, dtw).

    Sakoe & Chiba 1978 with the L1 cost |a_i - b_j|, full window,
    exact int64 DP.  The first-k extraction is a distributed min-k
    selection (per-batch partial top-k bounds shuffle volume, the
    topk_per_group shape); the k x k DP is a driver-tiny finish, the
    same "bounded final" contract as the exact-quantile merge.  The
    SQL replay walks the DP by ANTI-DIAGONALS (cells of one diagonal
    are independent; each recursion step carries the previous diagonal
    forward once so d-2 stays reachable)."""

    def prep(t: pa.Table) -> pa.Table:
        v = np.asarray(values_fn(t), np.int64)
        ty = np.asarray(t.column(type_col).to_pylist(), dtype=object)
        keep = (ty == type_a) | (ty == type_b)
        return pa.table(
            {
                type_col: t.column(type_col).filter(pa.array(keep)),
                "_ts": t.column(ts_col).cast(pa.int64()).filter(
                    pa.array(keep)),
                id_col: t.column(id_col).filter(pa.array(keep)),
                "_v": pa.array(v[keep], pa.int64()),
            }
        )

    from .aggregates import topk_per_group

    heads = topk_per_group(
        ds.map_batches(prep, batch_format="pyarrow"),
        type_col, "_ts", k, carry_cols=["_v", id_col],
        descending=False, tie_col=id_col,
    )

    def final(t: pa.Table) -> pa.Table:
        ty = np.asarray(t.column(type_col).to_pylist(), dtype=object)
        rank = t.column("rank").to_numpy(zero_copy_only=False)
        v = t.column("_v").to_numpy(zero_copy_only=False)
        a = v[ty == type_a][np.argsort(rank[ty == type_a])]
        b = v[ty == type_b][np.argsort(rank[ty == type_b])]
        n1, n2 = len(a), len(b)
        big = np.int64(1) << 60
        dp = np.full((n1 + 1, n2 + 1), big, dtype=np.int64)
        dp[0, 0] = 0
        for i in range(1, n1 + 1):
            cost = np.abs(a[i - 1] - b)
            for j in range(1, n2 + 1):
                dp[i, j] = cost[j - 1] + min(
                    dp[i - 1, j], dp[i, j - 1], dp[i - 1, j - 1]
                )
        return pa.table(
            {
                "n1": pa.array([n1], pa.int64()),
                "n2": pa.array([n2], pa.int64()),
                "dtw": pa.array([int(dp[n1, n2])], pa.int64()),
            }
        )

    return heads.repartition(1).map_batches(final, batch_format="pyarrow")


def trigram_counts(ds, user_col: str, ts_col: str, id_col: str,
                   type_col: str):
    """Global (t1, t2, t3, n) trigram table of per-user event streams —
    the path-mining extension of :func:`transition_counts` (second-order
    Markov / top navigation paths).  Same shape: ONE ``exchange`` by
    user, vectorized per-partition triple extraction, partials bounded
    by |types|^3 per partition."""
    from rasters_ray.relational.aggregates import grouped_int_sums

    def fold(group: pa.Table) -> pa.Table:
        u = group.column(user_col).to_numpy(
            zero_copy_only=False).astype(np.int64)
        ts = group.column(ts_col).cast(pa.int64()).to_numpy()
        eid = group.column(id_col).to_numpy(
            zero_copy_only=False).astype(np.int64)
        ty = np.asarray(group.column(type_col).to_pylist(), dtype=object)
        utypes, tcode = np.unique(ty, return_inverse=True)
        k = len(utypes)
        order = np.lexsort((eid, ts, u))
        uo, co = u[order], tcode[order]
        same3 = (uo[2:] == uo[:-2]) if len(uo) >= 3 else np.zeros(0, bool)
        t1 = co[:-2][same3]
        t2 = co[1:-1][same3]
        t3 = co[2:][same3]
        if not len(t1):
            e = pa.array([], pa.string())
            return pa.table({"t1": e, "t2": e, "t3": e,
                             "n": pa.array([], pa.int64())})
        packed = (t1 * k + t2) * k + t3
        uniq, cnt = np.unique(packed, return_counts=True)
        return pa.table(
            {
                "t1": pa.array(utypes[uniq // (k * k)], pa.string()),
                "t2": pa.array(utypes[(uniq // k) % k], pa.string()),
                "t3": pa.array(utypes[uniq % k], pa.string()),
                "n": pa.array(cnt.astype(np.int64), pa.int64()),
            }
        )

    return grouped_int_sums(exchange(ds, user_col, fold), ["t1", "t2", "t3"],
                            None, partials_ready=True)
