"""Ranked / quantile / integer-exact grouped aggregates.

- ``grouped_int_sums``: the repo's integer-exact partial-aggregation
  pattern as a reusable operator — per-batch vectorized (lexsort +
  reduceat) partial sums in int64 over arbitrary derived columns, then a
  LOW-cardinality ``groupby().aggregate(Sum)`` final.  Integer partials
  make the parallel result independent of block layout (bit-equal to a
  sequential oracle), the core trick behind every oracle-exact aggregate
  in this engine (see ``stages/composite.py``).
- ``topk_per_group``: top-k rows per (high-cardinality) group.  Per-batch
  partial top-k cuts each block to <= k rows/group BEFORE the shuffle,
  then a hash-partitioned final applies the same vectorized kernel —
  never a per-group Python walk, never a global sort.
- ``exact_quantiles``: exact order statistics without a global sort:
  iterative histogram narrowing (count pass per round over a pruned
  single-column read) until the candidate interval is small, then one
  filtered collect + local selection.  O(rounds) streaming passes, no
  all-to-all — the classic distributed-selection shape.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np
import pyarrow as pa

from rasters_ray.util import exchange, run_starts


def _group_codes(t: pa.Table, keys: list[str]):
    """Dense per-batch codes for a composite key + first-row index per
    distinct key (to recover key values)."""
    arrs = [t.column(k).to_numpy(zero_copy_only=False) for k in keys]
    if len(arrs) == 1:
        uniq, first, inv = np.unique(arrs[0], return_index=True, return_inverse=True)
        return inv.astype(np.int64), first
    codes = []
    mult = np.int64(1)
    combo = np.zeros(t.num_rows, np.int64)
    for a in arrs:
        _, ci = np.unique(a, return_inverse=True)
        codes.append(ci.astype(np.int64))
    for ci in reversed(codes):
        combo = combo * np.int64(ci.max() + 1 if len(ci) else 1) + ci
    _, first, inv = np.unique(combo, return_index=True, return_inverse=True)
    return inv.astype(np.int64), first


def int_sum_partial(
    t: pa.Table,
    keys: list[str],
    values_fn: Callable[[pa.Table], dict[str, np.ndarray]],
    count_col: str = "n",
) -> pa.Table:
    """One-block partial of :func:`grouped_int_sums` — public so a join
    kernel can FUSE the reduction into its own task (the per-partition
    join result collapses to a few rows before it ever hits the object
    store, instead of shipping the full join output to a second pass)."""
    if t.num_rows == 0:
        vals = values_fn(t)  # values_fn must handle 0-row input
        cols = {k: t.column(k) for k in keys}
        for name in vals:
            cols[name] = pa.array([], pa.int64())
        cols[count_col] = pa.array([], pa.int64())
        return pa.table(cols)
    vals = values_fn(t)
    inv, first = _group_codes(t, keys)
    order = np.argsort(inv, kind="stable")
    starts = np.flatnonzero(np.r_[True, np.diff(inv[order]) > 0])
    out = {k: t.column(k).take(pa.array(first, pa.int64())) for k in keys}
    for name, arr in vals.items():
        a = np.asarray(arr, dtype=np.int64)[order]
        out[name] = pa.array(np.add.reduceat(a, starts), pa.int64())
    cnt = np.diff(np.r_[starts, len(order)])
    out[count_col] = pa.array(cnt, pa.int64())
    return pa.table(out)


def grouped_int_sums(
    ds,
    keys: list[str],
    values_fn: Callable[[pa.Table], dict[str, np.ndarray]] | None,
    count_col: str = "n",
    partials_ready: bool = False,
):
    """Integer-exact grouped sums -> Dataset[keys + sum cols + count].

    ``values_fn(batch) -> {name: int64 array}`` derives the columns to
    sum (e.g. floor-cents of a price expression).  Per batch: lexsort by
    dense key code + ``np.add.reduceat`` partials; the final reduce is a
    ``groupby(keys).map_groups`` sum over the (few) distinct keys —
    scale-safe as long as key cardinality is small (TPC-H-style
    reporting groups).  The final discovers the sum columns inside the
    kernel, NOT via ``Dataset.schema()`` on the driver — schema() on a
    post-shuffle pipeline would execute the whole upstream (e.g. a
    distributed join) once just to name the columns.

    ``partials_ready=True`` skips the partial pass: ``ds`` rows are
    already (keys + int64 sum cols + count) partials, e.g. emitted by
    :func:`int_sum_partial` fused into an upstream join kernel."""

    if partials_ready:
        parts = ds
    else:
        if values_fn is None:
            raise ValueError("values_fn is required unless partials_ready=True")
        parts = ds.map_batches(
            lambda t: int_sum_partial(t, keys, values_fn, count_col),
            batch_format="pyarrow",
        )

    def final(group: pa.Table) -> pa.Table:
        out = {k: group.column(k).slice(0, 1) for k in keys}
        for name in group.column_names:
            if name in keys:
                continue
            s = int(group.column(name).to_numpy(zero_copy_only=False).sum())
            out[name] = pa.array([s], pa.int64())
        return pa.table(out)

    return parts.groupby(keys).map_groups(final, batch_format="pyarrow")


def topk_per_group(
    ds,
    group_col: str,
    value_col: str,
    k: int,
    carry_cols: list[str] | None = None,
    descending: bool = True,
    tie_col: str | None = None,
):
    """Top-k rows per group -> Dataset[group, carry..., value, rank].

    Rank is 1-based within the group, ordered by ``value_col``
    (descending by default) with ``tie_col`` as a deterministic
    tie-break.  Per-batch partial top-k bounds shuffle volume at
    k x groups-per-block; one exchange on the group column runs the same
    lexsort+rank kernel per partition and emits ranks."""
    carry_cols = carry_cols or []
    cols = [group_col, value_col] + [c for c in carry_cols if c != value_col]
    if tie_col and tie_col not in cols:
        cols.append(tie_col)

    def cut(t: pa.Table, emit_rank: bool) -> pa.Table:
        if t.num_rows == 0:
            out = t.select(cols)
            if emit_rank:
                out = out.append_column("rank", pa.array([], pa.int64()))
            return out
        g = t.column(group_col).to_numpy(zero_copy_only=False)
        v = t.column(value_col).to_numpy(zero_copy_only=False).astype(np.float64)
        _, ginv = np.unique(g, return_inverse=True)
        gkey = ginv.astype(np.int64)
        vkey = -v if descending else v
        if tie_col is not None:
            tk = t.column(tie_col).to_numpy(zero_copy_only=False)
            order = np.lexsort((tk, vkey, gkey))
        else:
            order = np.lexsort((vkey, gkey))
        gs = gkey[order]
        starts = np.flatnonzero(np.r_[True, np.diff(gs) > 0])
        rank = np.arange(len(gs), dtype=np.int64) - np.repeat(
            starts, np.diff(np.r_[starts, len(gs)])
        )
        keep = rank < k
        idx = pa.array(order[keep], pa.int64())
        out = t.select(cols).take(idx)
        if emit_rank:
            out = out.append_column("rank", pa.array(rank[keep] + 1, pa.int64()))
        return out

    partial = ds.map_batches(lambda t: cut(t, False), batch_format="pyarrow")
    return exchange(partial, group_col, lambda part: cut(part, True))


def grouped_quantiles(
    ds,
    group_col: str,
    value_col: str,
    qs: list[float],
):
    """Exact ``percentile_disc`` per group -> Dataset[group, q, value,
    sel_rank, n] (1-based rank ``ceil(q * n_group)``).

    Groups are hash-partitioned so every value of a group lands in ONE
    partition, then a single vectorized lexsort + rank-gather per
    partition resolves all of its groups at once.  Scale assumption
    (documented): group COUNT may scale with data, but each single
    group's values must fit a partition — the per-group analog of
    :func:`exact_quantiles`' collect limit.  For a handful of global
    quantiles over an unbounded column use :func:`exact_quantiles`
    (histogram narrowing, no partition-sized groups needed)."""
    qarr = np.asarray(sorted(qs), dtype=np.float64)
    if len(qarr) == 0 or qarr[0] <= 0.0 or qarr[-1] > 1.0:
        raise ValueError("quantiles must lie in (0, 1]")

    def kernel(part: pa.Table) -> pa.Table:
        g = np.asarray(part.column(group_col).to_pylist(), dtype=object)
        v = part.column(value_col).to_numpy(zero_copy_only=False).astype(np.float64)
        ug, ginv = np.unique(g, return_inverse=True)
        order = np.lexsort((v, ginv))
        gs = ginv[order]
        starts = run_starts(gs)
        ns = np.diff(np.r_[starts, len(gs)])
        # ranks: ceil(q * n) per (group, q) — vectorized gather
        ranks = np.ceil(qarr[None, :] * ns[:, None]).astype(np.int64)  # (G, Q)
        idx = starts[:, None] + ranks - 1
        vals = v[order][idx]
        G, Q = ranks.shape
        return pa.table(
            {
                group_col: pa.array(np.repeat(ug, Q), pa.string()),
                "q": pa.array(np.tile(qarr, G), pa.float64()),
                "value": pa.array(vals.ravel(), pa.float64()),
                "sel_rank": pa.array(ranks.ravel(), pa.int64()),
                "n": pa.array(np.repeat(ns, Q), pa.int64()),
            }
        )

    sel = ds.map_batches(lambda t: t.select([group_col, value_col]), batch_format="pyarrow")
    return exchange(sel, group_col, kernel)


def _int_values(group_col: str, values_fn):
    """Map UDF: the group column and the int64 ``values_fn`` column ``_v``."""

    def rows(t: pa.Table) -> pa.Table:
        v = np.asarray(values_fn(t), np.int64)
        return pa.table({group_col: t.column(group_col), "_v": pa.array(v, pa.int64())})

    return rows


def grouped_mad(ds, group_col: str, values_fn):
    """Median absolute deviation per group -> Dataset[group, n, med,
    mad] over integer values (callers scale money to cents first).

    ``values_fn(batch) -> int64 array`` derives the value column.  Both
    medians use the percentile_disc rule (1-based rank ``ceil(n/2)``),
    so results are exact integers — no interpolation.  Same partition
    contract as :func:`grouped_quantiles`: groups hash-partition so one
    vectorized kernel resolves a partition's groups; each single
    group's values must fit the partition (documented scale bound)."""

    def kernel(part: pa.Table) -> pa.Table:
        g = np.asarray(part.column(group_col).to_pylist(), dtype=object)
        v = part.column("_v").to_numpy(zero_copy_only=False).astype(np.int64)
        ug, ginv = np.unique(g, return_inverse=True)
        order = np.lexsort((v, ginv))
        gs, vs = ginv[order], v[order]
        starts = run_starts(gs)
        ns = np.diff(np.r_[starts, len(gs)])
        rank = np.ceil(0.5 * ns).astype(np.int64)  # percentile_disc(0.5)
        med = vs[starts + rank - 1]
        d = np.abs(v - med[ginv])
        order2 = np.lexsort((d, ginv))
        mad = d[order2][starts + rank - 1]
        return pa.table(
            {
                group_col: pa.array(ug, pa.string()),
                "n": pa.array(ns.astype(np.int64), pa.int64()),
                "med": pa.array(med, pa.int64()),
                "mad": pa.array(mad, pa.int64()),
            }
        )

    return exchange(ds.map_batches(_int_values(group_col, values_fn), batch_format="pyarrow"),
                    group_col, kernel)


def grouped_gini(ds, group_col: str, values_fn):
    """Gini coefficient per group over integer values -> Dataset[group,
    n, sum, gini_num, gini_den, gini].

    Exact rank-sum form: with x_1 <= ... <= x_n, G = (2*sum(i*x_i)
    - (n+1)*sum(x)) / (n*sum(x)).  Ties contribute an order-invariant
    rank-sum (equal values times a run of consecutive ranks), so the
    integer numerator/denominator are exact regardless of tie order;
    the float `gini` is ONE division over exact ints (SQL replays it).
    Same hash-partition contract as :func:`grouped_quantiles`."""

    def kernel(part: pa.Table) -> pa.Table:
        g = np.asarray(part.column(group_col).to_pylist(), dtype=object)
        v = part.column("_v").to_numpy(zero_copy_only=False).astype(np.int64)
        ug, ginv = np.unique(g, return_inverse=True)
        order = np.lexsort((v, ginv))
        gs, vs = ginv[order], v[order]
        starts = run_starts(gs)
        ns = np.diff(np.r_[starts, len(gs)])
        i_in_group = np.arange(len(vs), dtype=np.int64) - np.repeat(starts, ns) + 1
        s1 = np.add.reduceat(vs, starts)
        s2 = np.add.reduceat(i_in_group * vs, starts)
        num = 2 * s2 - (ns + 1) * s1
        den = ns * s1
        return pa.table(
            {
                group_col: pa.array(ug, pa.string()),
                "n": pa.array(ns.astype(np.int64), pa.int64()),
                "sum_v": pa.array(s1, pa.int64()),
                "gini_num": pa.array(num, pa.int64()),
                "gini_den": pa.array(den, pa.int64()),
                "gini": pa.array(
                    num.astype(np.float64) / den.astype(np.float64), pa.float64()
                ),
            }
        )

    return exchange(ds.map_batches(_int_values(group_col, values_fn), batch_format="pyarrow"),
                    group_col, kernel)


def ks_two_sample(ds, type_col: str, values_fn, type_a: str, type_b: str):
    """Exact two-sample Kolmogorov-Smirnov over integer values -> ONE
    row: (n1, n2, d_num, d_den, at_v, d).

    D = max_v |F1(v) - F2(v)| kept exact as the cross-multiplied
    integer d_num = max |n2*C1(v) - n1*C2(v)| with d_den = n1*n2
    (C = cumulative counts <= v); `at_v` is the smallest value
    attaining the max; `d` is the one float division, replayed in SQL.

    Scale shape: per-batch (value, n_a, n_b) bincount partials fold
    through :func:`grouped_int_sums` — the shuffle moves distinct
    VALUES (bounded domain: money cents), never rows; the cumulative
    scan runs over that bounded histogram."""

    def partial_rows(t: pa.Table) -> pa.Table:
        ty = np.asarray(t.column(type_col).to_pylist(), dtype=object)
        v = np.asarray(values_fn(t), np.int64)
        ma, mb = ty == type_a, ty == type_b
        keep = ma | mb
        return pa.table(
            {
                "_v": pa.array(v[keep], pa.int64()),
                "_isa": pa.array(ma[keep].astype(np.int64), pa.int64()),
            }
        )

    hist = grouped_int_sums(
        ds.map_batches(partial_rows, batch_format="pyarrow"),
        ["_v"],
        lambda t: {
            "na": t.column("_isa").to_numpy(zero_copy_only=False),
            "nb": 1 - t.column("_isa").to_numpy(zero_copy_only=False),
        },
        count_col="_n",
    )

    def final(t: pa.Table) -> pa.Table:
        v = t.column("_v").to_numpy(zero_copy_only=False)
        na = t.column("na").to_numpy(zero_copy_only=False)
        nb = t.column("nb").to_numpy(zero_copy_only=False)
        order = np.argsort(v)
        vs, ca, cb = v[order], np.cumsum(na[order]), np.cumsum(nb[order])
        n1, n2 = int(ca[-1]), int(cb[-1])
        dn = np.abs(n2 * ca - n1 * cb)
        d_num = int(dn.max())
        at_v = int(vs[np.flatnonzero(dn == d_num)[0]])  # smallest v
        return pa.table(
            {
                "n1": pa.array([n1], pa.int64()),
                "n2": pa.array([n2], pa.int64()),
                "d_num": pa.array([d_num], pa.int64()),
                "d_den": pa.array([n1 * n2], pa.int64()),
                "at_v": pa.array([at_v], pa.int64()),
                "d": pa.array([float(d_num) / float(n1 * n2)], pa.float64()),
            }
        )

    return hist.repartition(1).map_batches(final, batch_format="pyarrow")


def pivot_counts(
    ds,
    row_col: str,
    col_col: str,
    categories: list[str],
):
    """Pivot to a wide count table -> Dataset[row_col, <one int64 column
    per category>].  ``categories`` is the EXPLICIT column domain — no
    discovery pass over the data, so the pipeline stays one streaming
    partial + one exchange on the row column (row cardinality may scale
    with data; the category list is schema-sized).  Values outside
    ``categories`` are dropped.

    Per batch: one np.unique over combined (row, category) codes emits
    long-format partial counts; the final packs each partition's rows
    into the wide layout with a single np.add.at scatter."""
    cats = list(categories)
    cat_sorted = np.array(sorted(cats), dtype=object)

    def partial(t: pa.Table) -> pa.Table:
        sel = t.select([row_col, col_col])
        if t.num_rows == 0:
            return sel.append_column("n", pa.array([], pa.int64()))
        r = np.asarray(sel.column(row_col).to_pylist(), dtype=object)
        c = np.asarray(sel.column(col_col).to_pylist(), dtype=object)
        pos = np.searchsorted(cat_sorted, c)
        pos_c = np.clip(pos, 0, len(cat_sorted) - 1)
        keep = cat_sorted[pos_c] == c
        r, pos_c = r[keep], pos_c[keep]
        ur, rinv = np.unique(r, return_inverse=True)
        combo = rinv.astype(np.int64) * np.int64(len(cat_sorted)) + pos_c
        uc, counts = np.unique(combo, return_counts=True)
        out_r = ur[(uc // np.int64(len(cat_sorted))).astype(np.int64)]
        out_c = cat_sorted[(uc % np.int64(len(cat_sorted))).astype(np.int64)]
        return pa.table(
            {
                row_col: pa.array(out_r, pa.string())
                if sel.column(row_col).type == pa.string()
                else pa.array(out_r.astype(np.int64), pa.int64()),
                col_col: pa.array(out_c, pa.string()),
                "n": pa.array(counts.astype(np.int64), pa.int64()),
            }
        )

    def widen(group: pa.Table) -> pa.Table:
        r = np.asarray(group.column(row_col).to_pylist(), dtype=object)
        c = np.asarray(group.column(col_col).to_pylist(), dtype=object)
        n = group.column("n").to_numpy(zero_copy_only=False).astype(np.int64)
        ur, rinv = np.unique(r, return_inverse=True)
        cidx = np.searchsorted(cat_sorted, c)
        mat = np.zeros((len(ur), len(cat_sorted)), np.int64)
        np.add.at(mat, (rinv, cidx), n)
        cols = {
            row_col: pa.array(ur, pa.string())
            if group.column(row_col).type == pa.string()
            else pa.array(ur.astype(np.int64), pa.int64())
        }
        for j, cat in enumerate(cat_sorted):
            cols[str(cat)] = pa.array(mat[:, j], pa.int64())
        return pa.table(cols)

    return exchange(ds.map_batches(partial, batch_format="pyarrow"), row_col, widen)


def exact_quantiles(
    ds,
    col: str,
    qs: list[float],
    n_bins: int = 2048,
    collect_limit: int = 1 << 21,
    max_rounds: int = 8,
):
    """EXACT discrete quantiles (``percentile_disc`` semantics: the
    element at 1-based rank ``ceil(q * n)``) -> pyarrow Table
    [q, value, rank, n].

    No global sort: (1) one Min/Max/Count aggregate pass; (2) iterative
    histogram rounds — each round one streaming count pass over the
    pruned single-column read, narrowing every unresolved quantile to
    the bin holding its rank — until each target interval holds <=
    ``collect_limit`` values; (3) one filtered collect of those small
    intervals + local selection.  At 100 TB with default knobs that is
    ~3 passes and a <=2M-row collect, vs. an all-to-all sort of the
    whole column."""
    from ray.data.aggregate import Count, Max, Min

    stats = ds.aggregate(Min(col), Max(col), Count())
    lo = float(stats[f"min({col})"])
    hi = float(stats[f"max({col})"])
    n = int(stats["count()"])
    if n == 0:
        return pa.table({"q": pa.array([], pa.float64()),
                         "value": pa.array([], pa.float64()),
                         "rank": pa.array([], pa.int64()),
                         "n": pa.array([], pa.int64())})
    targets = [(q, max(1, int(np.ceil(q * n)))) for q in qs]
    # state per quantile: (interval_lo, interval_hi_inclusive, rank_below)
    # rank_below = count of values strictly below interval_lo
    state = {q: [lo, hi, 0, n] for q, _ in targets}  # lo, hi, below, in_count

    for _ in range(max_rounds):
        unresolved = [q for q, st in state.items() if st[3] > collect_limit]
        if not unresolved:
            break
        specs = [(q, state[q][0], state[q][1]) for q in unresolved]

        def hist(t: pa.Table) -> pa.Table:
            x = t.column(col).to_numpy(zero_copy_only=False).astype(np.float64)
            rows_q, rows_b, rows_c = [], [], []
            for qi, (q, a, b) in enumerate(specs):
                edges = np.linspace(a, b, n_bins + 1)
                m = (x >= a) & (x <= b)
                if m.any():
                    binned = np.clip(
                        np.searchsorted(edges, x[m], side="right") - 1, 0, n_bins - 1
                    )
                    cnt = np.bincount(binned, minlength=n_bins)
                    nz = np.flatnonzero(cnt)
                    rows_q.append(np.full(len(nz), qi, np.int64))
                    rows_b.append(nz.astype(np.int64))
                    rows_c.append(cnt[nz].astype(np.int64))
            if not rows_q:
                return pa.table({"qi": pa.array([], pa.int64()),
                                 "bin": pa.array([], pa.int64()),
                                 "cnt": pa.array([], pa.int64())})
            return pa.table({"qi": pa.array(np.concatenate(rows_q)),
                             "bin": pa.array(np.concatenate(rows_b)),
                             "cnt": pa.array(np.concatenate(rows_c))})

        from ray.data.aggregate import Sum

        htab = (
            ds.map_batches(hist, batch_format="pyarrow")
            .groupby(["qi", "bin"])
            .aggregate(Sum("cnt", alias_name="cnt"))
            .to_pandas()  # <= len(specs) * n_bins rows — driver-small
        )
        for qi, (q, a, b) in enumerate(specs):
            sub = htab[htab["qi"] == qi].sort_values("bin")
            bins = sub["bin"].to_numpy()
            cnts = sub["cnt"].to_numpy()
            below0 = state[q][2]
            rank = dict(targets)[q]
            cum = np.cumsum(cnts)
            # first bin where below0 + cum >= rank
            j = int(np.searchsorted(below0 + cum, rank, side="left"))
            j = min(j, len(bins) - 1)
            edges = np.linspace(a, b, n_bins + 1)
            bidx = int(bins[j])
            new_below = below0 + (int(cum[j - 1]) if j > 0 else 0)
            new_lo = edges[bidx]
            new_hi = edges[bidx + 1] if bidx + 1 < n_bins else b
            in_cnt = int(cnts[j])
            if new_lo == new_hi or (new_lo == a and new_hi == b):
                in_cnt = min(in_cnt, collect_limit)  # cannot narrow further
            state[q] = [new_lo, new_hi, new_below, in_cnt]

    # final: collect the (small) candidate intervals and select exactly.
    specs = [(q, state[q][0], state[q][1]) for q, _ in targets]

    def collect(t: pa.Table) -> pa.Table:
        x = t.column(col).to_numpy(zero_copy_only=False).astype(np.float64)
        qs_out, vals = [], []
        for qi, (q, a, b) in enumerate(specs):
            sel = x[(x >= a) & (x <= b)]
            qs_out.append(np.full(len(sel), qi, np.int64))
            vals.append(sel)
        return pa.table({"qi": pa.array(np.concatenate(qs_out) if qs_out else []),
                         "v": pa.array(np.concatenate(vals) if vals else [])})

    cand = ds.map_batches(collect, batch_format="pyarrow").to_pandas()
    out_q, out_v, out_r = [], [], []
    for qi, (q, a, b) in enumerate(specs):
        rank = dict(targets)[q]
        below = state[q][2]
        vals = np.sort(cand[cand["qi"] == qi]["v"].to_numpy())
        local_rank = rank - below - 1  # 0-based inside the interval
        local_rank = int(np.clip(local_rank, 0, len(vals) - 1))
        out_q.append(q)
        out_v.append(float(vals[local_rank]))
        out_r.append(rank)
    return pa.table({"q": pa.array(out_q, pa.float64()),
                     "value": pa.array(out_v, pa.float64()),
                     "rank": pa.array(out_r, pa.int64()),
                     "n": pa.array([n] * len(out_q), pa.int64())})


def weighted_exact_quantiles(
    ds,
    col: str,
    weight_col: str,
    qs: list[float],
    n_bins: int = 2048,
    collect_limit: int = 1 << 21,
    max_rounds: int = 8,
):
    """EXACT weighted discrete quantiles: the smallest value v whose
    cumulative INTEGER weight (over values <= v) reaches ceil(q * W) ->
    Table[q, value, rank, total_w].  Same histogram-narrowing shape as
    :func:`exact_quantiles` with weight sums in place of counts — no
    global sort, ~3 streaming passes, small final collect.  Weights must
    be non-negative integers (e.g. quantities, floor-cents)."""
    from ray.data.aggregate import Max, Min, Sum

    def wsum(t: pa.Table) -> pa.Table:
        w = t.column(weight_col).to_numpy(zero_copy_only=False).astype(np.int64)
        if w.size and w.min() < 0:
            raise ValueError("weights must be non-negative")
        x = t.column(col).to_numpy(zero_copy_only=False).astype(np.float64)
        return pa.table({
            "w": pa.array([int(w.sum())], pa.int64()),
            "lo": pa.array([float(x.min()) if len(x) else np.inf], pa.float64()),
            "hi": pa.array([float(x.max()) if len(x) else -np.inf], pa.float64()),
        })

    agg = ds.map_batches(wsum, batch_format="pyarrow").to_pandas()
    W = int(agg["w"].sum())
    lo, hi = float(agg["lo"].min()), float(agg["hi"].max())
    if W <= 0:
        raise ValueError("total weight must be positive")
    targets = {q: max(1, int(np.ceil(q * W))) for q in qs}
    state = {q: [lo, hi, 0, W] for q in qs}  # lo, hi, weight_below, in_weight

    for _ in range(max_rounds):
        unresolved = [q for q, st in state.items() if st[3] > collect_limit]
        if not unresolved:
            break
        specs = [(q, state[q][0], state[q][1]) for q in unresolved]

        def hist(t: pa.Table) -> pa.Table:
            x = t.column(col).to_numpy(zero_copy_only=False).astype(np.float64)
            wt = t.column(weight_col).to_numpy(zero_copy_only=False).astype(np.int64)
            rows_q, rows_b, rows_c = [], [], []
            for qi, (q, a, b) in enumerate(specs):
                edges = np.linspace(a, b, n_bins + 1)
                m = (x >= a) & (x <= b)
                if m.any():
                    binned = np.clip(
                        np.searchsorted(edges, x[m], side="right") - 1, 0, n_bins - 1
                    )
                    cnt = np.zeros(n_bins, np.int64)
                    np.add.at(cnt, binned, wt[m])
                    nz = np.flatnonzero(cnt)
                    rows_q.append(np.full(len(nz), qi, np.int64))
                    rows_b.append(nz.astype(np.int64))
                    rows_c.append(cnt[nz])
            if not rows_q:
                return pa.table({"qi": pa.array([], pa.int64()),
                                 "bin": pa.array([], pa.int64()),
                                 "cnt": pa.array([], pa.int64())})
            return pa.table({"qi": pa.array(np.concatenate(rows_q)),
                             "bin": pa.array(np.concatenate(rows_b)),
                             "cnt": pa.array(np.concatenate(rows_c))})

        htab = (
            ds.map_batches(hist, batch_format="pyarrow")
            .groupby(["qi", "bin"])
            .aggregate(Sum("cnt", alias_name="cnt"))
            .to_pandas()
        )
        for qi, (q, a, b) in enumerate(specs):
            sub = htab[htab["qi"] == qi].sort_values("bin")
            bins = sub["bin"].to_numpy()
            cnts = sub["cnt"].to_numpy()
            below0 = state[q][2]
            rank = targets[q]
            cum = np.cumsum(cnts)
            j = int(np.searchsorted(below0 + cum, rank, side="left"))
            j = min(j, len(bins) - 1)
            edges = np.linspace(a, b, n_bins + 1)
            bidx = int(bins[j])
            new_below = below0 + (int(cum[j - 1]) if j > 0 else 0)
            new_lo = edges[bidx]
            new_hi = edges[bidx + 1] if bidx + 1 < n_bins else b
            in_w = int(cnts[j])
            if new_lo == new_hi or (new_lo == a and new_hi == b):
                in_w = min(in_w, collect_limit)
            state[q] = [new_lo, new_hi, new_below, in_w]

    specs = [(q, state[q][0], state[q][1]) for q in qs]

    def collect(t: pa.Table) -> pa.Table:
        x = t.column(col).to_numpy(zero_copy_only=False).astype(np.float64)
        wt = t.column(weight_col).to_numpy(zero_copy_only=False).astype(np.int64)
        qs_out, vals, wout = [], [], []
        for qi, (q, a, b) in enumerate(specs):
            m = (x >= a) & (x <= b)
            qs_out.append(np.full(int(m.sum()), qi, np.int64))
            vals.append(x[m])
            wout.append(wt[m])
        return pa.table({
            "qi": pa.array(np.concatenate(qs_out) if qs_out else []),
            "v": pa.array(np.concatenate(vals) if vals else []),
            "w": pa.array(np.concatenate(wout) if wout else []),
        })

    cand = ds.map_batches(collect, batch_format="pyarrow").to_pandas()
    out_q, out_v, out_r = [], [], []
    for qi, (q, a, b) in enumerate(specs):
        rank = targets[q]
        below = state[q][2]
        sub = cand[cand["qi"] == qi]
        # value-level cumulative weights (ties merge, deterministic)
        g = sub.groupby("v", sort=True)["w"].sum()
        cum = below + np.cumsum(g.to_numpy())
        j = int(np.searchsorted(cum, rank, side="left"))
        j = min(j, len(g) - 1)
        out_q.append(q)
        out_v.append(float(g.index.to_numpy()[j]))
        out_r.append(rank)
    return pa.table({
        "q": pa.array(out_q, pa.float64()),
        "value": pa.array(out_v, pa.float64()),
        "rank": pa.array(np.asarray(out_r, np.int64), pa.int64()),
        "total_w": pa.array([W] * len(out_q), pa.int64()),
    })


def borda_fusion(ds, id_col: str, score_cols: list):
    """Distributed rank fusion (Borda count over COMPETITION ranks —
    the deterministic cousin of reciprocal-rank fusion): each score
    column ranks as ``rank = 1 + #{rows with a strictly higher
    score}`` (ties share a rank, so no id tie-break is needed), the
    Borda score is the rank sum, and a final competition rank orders
    the fusion.

    Scale shape: THREE histogram broadcasts, ZERO heavy shuffles — a
    global ranking without a global sort.  Pass 1 bincounts every
    score column per batch and merges the tiny histograms on the
    driver (scores must be small-cardinality non-negative ints — the
    retrieval-fusion case: bounded relevance grades); pass 2 maps
    ranks via broadcast suffix-counts and bincounts the Borda values;
    pass 3 assigns the fused rank the same way.

    -> Dataset[(id_col, rank_<col>..., borda, fused_rank)]."""
    import numpy as np

    def hist_of(col: str, source):
        def partial(t: pa.Table) -> pa.Table:
            v = t.column(col).to_numpy()
            if v.size and (v.min() < 0):
                raise ValueError("borda_fusion scores must be >= 0")
            bc = np.bincount(v)
            nz = np.flatnonzero(bc)
            return pa.table({"v": pa.array(nz.astype(np.int64), pa.int64()),
                             "n": pa.array(bc[nz], pa.int64())})

        h = source.map_batches(partial, batch_format="pyarrow").to_pandas()
        size = int(h["v"].max()) + 1 if len(h) else 1
        out = np.zeros(size, dtype=np.int64)
        np.add.at(out, h["v"].to_numpy(), h["n"].to_numpy())
        return out

    # rank(v) = 1 + #{v' > v} = 1 + suffix_count(v+1)
    def rank_table(hist):
        suffix = np.concatenate([np.cumsum(hist[::-1])[::-1][1:], [0]])
        return 1 + suffix

    ranks = {c: rank_table(hist_of(c, ds)) for c in score_cols}

    def with_ranks(t: pa.Table) -> pa.Table:
        cols = {id_col: t.column(id_col)}
        borda = np.zeros(t.num_rows, dtype=np.int64)
        for c in score_cols:
            r = ranks[c][t.column(c).to_numpy()]
            borda += r
            cols[f"rank_{c}"] = pa.array(r, pa.int64())
        cols["borda"] = pa.array(borda, pa.int64())
        return pa.table(cols)

    ranked = ds.map_batches(with_ranks, batch_format="pyarrow")
    bh = hist_of("borda", ranked)
    # fused competition rank orders ASCENDING borda (lower = better):
    # rank = 1 + #{borda' < borda} = 1 + prefix_count(borda)
    prefix = np.concatenate([[0], np.cumsum(bh)[:-1]])

    def with_fused(t: pa.Table) -> pa.Table:
        b = t.column("borda").to_numpy()
        return t.append_column("fused_rank",
                               pa.array(1 + prefix[b], pa.int64()))

    return ranked.map_batches(with_fused, batch_format="pyarrow")


def crosstab_chi2(ds, row_col: str, col_col: str):
    """Chi-square independence test over a two-way crosstab ->
    Dataset[(row, col, obs, row_tot, col_tot, n, dev, cell_chi2)].

    Per cell the deviation is kept as the exact cross-multiplied
    integer ``dev = obs*N - row_tot*col_tot`` (obs - expected, scaled
    by N); ``cell_chi2 = dev^2 / (N * row_tot * col_tot)`` is the
    per-cell Pearson contribution (the usual (O-E)^2/E scaled
    consistently), each cell ONE float expression over Python-int
    products — the SQL replay uses HUGEINT.  The total chi2 is the sum
    of cells; it is left to the consumer because a float sum's order
    is not canonical.

    Scale shape: one bincount-partial groupby over the (small) category
    product; the finish runs on the tiny cell table."""
    counts = grouped_int_sums(ds, [row_col, col_col], lambda t: {},
                              count_col="obs")

    def final(t: pa.Table) -> pa.Table:
        import pandas as pd

        df = t.to_pandas()
        n = int(df["obs"].sum())
        rt = df.groupby(row_col)["obs"].transform("sum").astype(object)
        ct = df.groupby(col_col)["obs"].transform("sum").astype(object)
        obs = df["obs"].astype(object)
        dev = obs * n - rt * ct  # Python ints: exact beyond int64
        chi2 = [
            float(int(d) * int(d)) / float(n * int(r) * int(c))
            for d, r, c in zip(dev, rt, ct)
        ]
        return pa.table(
            {
                row_col: pa.array(df[row_col].astype(str)),
                col_col: pa.array(df[col_col].astype(str)),
                "obs": pa.array(df["obs"].astype(np.int64), pa.int64()),
                "row_tot": pa.array([int(x) for x in rt], pa.int64()),
                "col_tot": pa.array([int(x) for x in ct], pa.int64()),
                "n": pa.array([n] * len(df), pa.int64()),
                "dev": pa.array([int(x) for x in dev], pa.int64()),
                "cell_chi2": pa.array(chi2, pa.float64()),
            }
        )

    return counts.repartition(1).map_batches(final, batch_format="pyarrow")


def cohen_kappa(ds, a_col: str, b_col: str):
    """Cohen's kappa inter-rater agreement -> ONE row (n, po_cnt,
    pe_num, kappa).

    kappa = (po - pe) / (1 - pe) with po = diag/N and
    pe = sum(rt*ct)/N^2, cross-multiplied to the exact integers
    ``(N*po_cnt - pe_num) / (N^2 - pe_num)`` (po_cnt = agreeing pairs,
    pe_num = sum over categories of row_total*col_total).  One
    bincount-partial groupby over the category product; Python-int
    products in the tiny finish, HUGEINT in the SQL replay."""
    counts = grouped_int_sums(ds, [a_col, b_col], lambda t: {},
                              count_col="obs")

    def final(t: pa.Table) -> pa.Table:
        import pandas as pd  # tiny cell table

        df = t.to_pandas()
        n = int(df["obs"].sum())
        po_cnt = int(df.loc[df[a_col] == df[b_col], "obs"].sum())
        rt = df.groupby(a_col)["obs"].sum()
        ct = df.groupby(b_col)["obs"].sum()
        cats = set(rt.index) | set(ct.index)
        pe_num = sum(int(rt.get(k, 0)) * int(ct.get(k, 0)) for k in cats)
        kappa = float(n * po_cnt - pe_num) / float(n * n - pe_num)
        return pa.table(
            {
                "n": pa.array([n], pa.int64()),
                "po_cnt": pa.array([po_cnt], pa.int64()),
                "pe_num": pa.array([pe_num], pa.int64()),
                "kappa": pa.array([kappa], pa.float64()),
            }
        )

    return counts.repartition(1).map_batches(final, batch_format="pyarrow")


def cramers_v(ds, row_col: str, col_col: str, row_cats: list,
              col_cats: list):
    """Cramer's V association -> ONE row (n, chi2, v).

    chi2 is the LEFT-ASSOCIATIVE sum over the EXPLICIT category grid
    (row-major over ``row_cats`` x ``col_cats``, absent cells obs = 0)
    of the per-cell floats dev^2 / (N*rt*ct) with dev = obs*N - rt*ct
    exact Python ints — the fixed-order composition a SQL replay can
    parenthesize identically.  v = sqrt(chi2 / (N * min(r-1, c-1)))
    is the one further float expression."""
    counts = grouped_int_sums(ds, [row_col, col_col], lambda t: {},
                              count_col="obs")

    def final(t: pa.Table) -> pa.Table:
        import math

        df = t.to_pandas()
        obs = {
            (a, b): int(o)
            for a, b, o in zip(df[row_col], df[col_col], df["obs"])
        }
        n = sum(obs.values())
        rt = {a: sum(obs.get((a, b), 0) for b in col_cats)
              for a in row_cats}
        ct = {b: sum(obs.get((a, b), 0) for a in row_cats)
              for b in col_cats}
        chi2 = 0.0
        for a in row_cats:  # row-major, left-associative
            for b in col_cats:
                if rt[a] == 0 or ct[b] == 0:
                    continue  # empty row/col: cell contributes 0
                dev = obs.get((a, b), 0) * n - rt[a] * ct[b]
                chi2 = chi2 + float(dev) * float(dev) / float(
                    n * rt[a] * ct[b]
                )
        v = math.sqrt(
            chi2 / (float(n) * float(min(len(row_cats), len(col_cats)) - 1))
        )
        return pa.table(
            {
                "n": pa.array([n], pa.int64()),
                "chi2": pa.array([chi2], pa.float64()),
                "v": pa.array([v], pa.float64()),
            }
        )

    return counts.repartition(1).map_batches(final, batch_format="pyarrow")


def gk_lambda(ds, row_col: str, col_col: str):
    """Goodman-Kruskal lambda (predict col from row) -> ONE row
    (n, sum_row_max, col_max, lambda).

    lambda = (sum_a max_b obs(a,b) - max_b ct(b)) / (N - max_b ct(b)) —
    the proportional reduction in prediction error, ENTIRELY integer
    except the one final division.  Rides the same crosstab partials
    as chi2/kappa."""
    counts = grouped_int_sums(ds, [row_col, col_col], lambda t: {},
                              count_col="obs")

    def final(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        n = int(df["obs"].sum())
        srm = int(df.groupby(row_col)["obs"].max().sum())
        cm = int(df.groupby(col_col)["obs"].sum().max())
        lam = float(srm - cm) / float(n - cm)
        return pa.table(
            {
                "n": pa.array([n], pa.int64()),
                "sum_row_max": pa.array([srm], pa.int64()),
                "col_max": pa.array([cm], pa.int64()),
                "lam": pa.array([lam], pa.float64()),
            }
        )

    return counts.repartition(1).map_batches(final, batch_format="pyarrow")
