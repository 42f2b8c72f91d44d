"""Range partitioning by exact quantile boundaries + winsorized stats.

``range_partition_stats`` is the sampled-sort primitive every distributed
sort/range-layout needs: derive n-quantile cut points (EXACT here, via the
histogram-narrowing selection in ``aggregates.exact_quantiles`` — no
global sort), broadcast them, assign every row its range bucket with one
``searchsorted`` per batch, and reduce per-bucket stats combiner-first.
The bucket column is exactly the key a range-partitioned write or a
merge-path sort would shuffle on; the stats table is the skew report
(equal-height buckets ⇒ equal ``n`` up to ties).

``winsorized_stats`` composes the same boundary pass with a clip pass —
the standard outlier-robust aggregation (clip at [p_lo, p_hi], then
aggregate) as two streaming passes over a pruned single-column read.

Both keep additive aggregates in int64 floor-cents so results are
bit-equal to the SQL oracle regardless of block layout (the repo-wide
integer-exact aggregation pattern, see stages/composite.py).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from rasters_ray.relational.aggregates import exact_quantiles
from rasters_ray.util import exchange, run_starts

__all__ = ["range_partition_stats", "winsorized_stats", "global_ntile"]


def _final_combine(group: pa.Table) -> pa.Table:
    key = group.column("k")[0]
    return pa.table(
        {
            "k": pa.array([key.as_py()], group.schema.field("k").type),
            "n": pa.array(
                [int(np.sum(group.column("n").to_numpy(zero_copy_only=False)))],
                pa.int64(),
            ),
            "sum_cents": pa.array(
                [int(np.sum(group.column("sum_cents").to_numpy(zero_copy_only=False)))],
                pa.int64(),
            ),
            "vmin": pa.array(
                [float(np.min(group.column("vmin").to_numpy(zero_copy_only=False)))],
                pa.float64(),
            ),
            "vmax": pa.array(
                [float(np.max(group.column("vmax").to_numpy(zero_copy_only=False)))],
                pa.float64(),
            ),
        }
    )


def _partial_stats(keys: np.ndarray, vals: np.ndarray, key_type=pa.int64()) -> pa.Table:
    """Per-batch (key, n, sum_cents, min, max) partial — vectorized."""
    uniq, inv = np.unique(keys, return_inverse=True)
    n = np.bincount(inv).astype(np.int64)
    cents = np.floor(vals * 100.0).astype(np.int64)
    s = np.zeros(len(uniq), np.int64)
    np.add.at(s, inv, cents)
    vmin = np.full(len(uniq), np.inf)
    vmax = np.full(len(uniq), -np.inf)
    np.minimum.at(vmin, inv, vals)
    np.maximum.at(vmax, inv, vals)
    return pa.table(
        {
            "k": pa.array(uniq, key_type),
            "n": pa.array(n, pa.int64()),
            "sum_cents": pa.array(s, pa.int64()),
            "vmin": pa.array(vmin, pa.float64()),
            "vmax": pa.array(vmax, pa.float64()),
        }
    )


def range_partition_stats(ds, col: str, n_buckets: int = 16):
    """Equal-height range buckets of ``col`` -> Table[bucket, n,
    sum_cents, vmin, vmax].

    bucket(v) = number of cut points strictly below v, cut points =
    exact discrete quantiles at i/n_buckets (i = 1..n_buckets-1).
    """
    qs = [i / n_buckets for i in range(1, n_buckets)]
    cuts_tab = exact_quantiles(ds, col, qs)
    cuts = np.sort(
        cuts_tab.column("value").to_numpy(zero_copy_only=False).astype(np.float64)
    )

    def partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return _partial_stats(np.array([], np.int64), np.array([], np.float64))
        v = t.column(col).to_numpy(zero_copy_only=False).astype(np.float64)
        bucket = np.searchsorted(cuts, v, side="left").astype(np.int64)
        return _partial_stats(bucket, v)

    out = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("k")
        .map_groups(_final_combine, batch_format="pyarrow")
    )
    return out.map_batches(
        lambda t: t.rename_columns(["bucket", "n", "sum_cents", "vmin", "vmax"]),
        batch_format="pyarrow",
    )


def winsorized_stats(ds, col: str, group_col: str, p_lo: float, p_hi: float):
    """Clip ``col`` to its global [p_lo, p_hi] exact quantiles, then
    per-``group_col`` stats -> Table[group, n, n_lo, n_hi,
    sum_clipped_cents]; n_lo/n_hi count rows clipped at each side."""
    cuts = exact_quantiles(ds, col, [p_lo, p_hi])
    vals = cuts.column("value").to_numpy(zero_copy_only=False).astype(np.float64)
    lo, hi = float(vals.min()), float(vals.max())

    def partial(t: pa.Table) -> pa.Table:
        g = t.column(group_col).to_numpy(zero_copy_only=False)
        v = t.column(col).to_numpy(zero_copy_only=False).astype(np.float64)
        clipped = np.clip(v, lo, hi)
        uniq, inv = np.unique(g, return_inverse=True)
        n = np.bincount(inv).astype(np.int64)
        n_lo = np.bincount(inv, weights=(v < lo)).astype(np.int64)
        n_hi = np.bincount(inv, weights=(v > hi)).astype(np.int64)
        cents = np.floor(clipped * 100.0).astype(np.int64)
        s = np.zeros(len(uniq), np.int64)
        np.add.at(s, inv, cents)
        return pa.table(
            {
                "k": pa.array(uniq, t.schema.field(group_col).type),
                "n": pa.array(n, pa.int64()),
                "n_lo": pa.array(n_lo, pa.int64()),
                "n_hi": pa.array(n_hi, pa.int64()),
                "sum_clipped_cents": pa.array(s, pa.int64()),
            }
        )

    def final(group: pa.Table) -> pa.Table:
        sums = {
            c: int(np.sum(group.column(c).to_numpy(zero_copy_only=False)))
            for c in ("n", "n_lo", "n_hi", "sum_clipped_cents")
        }
        return pa.table(
            {
                "k": pa.array([group.column("k")[0].as_py()], group.schema.field("k").type),
                **{c: pa.array([v], pa.int64()) for c, v in sums.items()},
            }
        )

    out = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("k")
        .map_groups(final, batch_format="pyarrow")
    )
    return out.map_batches(
        lambda t: t.rename_columns(
            [group_col, "n", "n_lo", "n_hi", "sum_clipped_cents"]
        ),
        batch_format="pyarrow",
    )


def global_ntile(ds, key_col: str, values_fn, n_tiles: int):
    """NTILE(n) over a GLOBAL (value, key) order without a global sort.

    Two-phase exact global ranking (the engine's histogram-rank
    pattern, cf. borda fusion): (1) one streaming pass folds per-batch
    (value, count) partials into the value histogram — shuffle volume
    is distinct VALUES, not rows (the value domain is bounded: money
    cents); the cumulative histogram gives every value its base rank
    and the total N. (2) rows exchange BY VALUE; within a value
    group the unique key breaks ties (lexsort), so global_rank =
    base[value] + local_rank, and the SQL NTILE size rule
    (first N%n tiles get one extra row) is applied per row.

    ``values_fn(batch) -> int64 array`` derives the ranking value.
    Returns Dataset[key_col, value, tile] (tile 1-based).
    """
    from rasters_ray.relational.aggregates import grouped_int_sums

    def val_rows(t: pa.Table) -> pa.Table:
        v = np.asarray(values_fn(t), np.int64)
        return pa.table(
            {
                key_col: t.column(key_col),
                "_v": pa.array(v, pa.int64()),
            }
        )

    tagged = ds.map_batches(val_rows, batch_format="pyarrow")

    hist = grouped_int_sums(
        tagged.map_batches(
            lambda t: t.select(["_v"]), batch_format="pyarrow"
        ),
        ["_v"],
        lambda t: {},
        count_col="n",
    ).to_pandas()  # bounded by the distinct-value domain (documented)
    hist = hist.sort_values("_v").reset_index(drop=True)
    vals = hist["_v"].to_numpy()
    counts = hist["n"].to_numpy()
    base = np.concatenate(([0], np.cumsum(counts)[:-1]))
    n_total = int(counts.sum())
    rem, q = n_total % n_tiles, n_total // n_tiles

    def tile_of(rank: np.ndarray) -> np.ndarray:
        cut = rem * (q + 1)
        lo = rank // (q + 1) + 1
        hi = rem + (rank - cut) // max(q, 1) + 1
        return np.where(rank < cut, lo, hi).astype(np.int64)

    def assign(group: pa.Table) -> pa.Table:
        k = group.column(key_col).to_numpy(zero_copy_only=False)
        v = group.column("_v").to_numpy(zero_copy_only=False)
        order = np.lexsort((k, v))
        vo, ko = v[order], k[order]
        starts = run_starts(vo)
        ns = np.diff(np.r_[starts, len(vo)])
        local = np.arange(len(vo), dtype=np.int64) - np.repeat(starts, ns)
        b = base[np.searchsorted(vals, vo[starts])]
        rank = np.repeat(b, ns) + local
        return pa.table(
            {
                key_col: pa.array(ko, group.schema.field(key_col).type),
                "value": pa.array(vo, pa.int64()),
                "tile": pa.array(tile_of(rank), pa.int64()),
            }
        )

    # co-locate same-VALUE rows (one exchange, not one group per
    # distinct value) — assign resolves all values of a partition at once
    return exchange(tagged, "_v", assign)
