"""Distributed distinct counting — exact and sketched.

``distinct_count`` is the exact path: distinct (group, value) pairs are
reduced per batch BEFORE the shuffle (wire volume is pair-cardinality
per block, not row count), exchanged by VALUE so each partition sees
every copy of a pair exactly once, then per-group partial counts take
a second (tiny) exchange by group and a sum.  No global sort, no driver
materialization, both reduces fully vectorized.

``hll_add``/``hll_merge``/``hll_count`` are the sketch path for
cardinalities where even pair-cardinality is too much wire: classic
HyperLogLog (Flajolet et al. 2007, public algorithm) with the standard
bias correction and linear-counting small-range regime.  Registers
travel as at-most-m rows per block and merge by MAX — associative,
commutative, layout-independent.  Expected relative error is
``1.04/sqrt(m)`` (~1.6% at m=4096).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from rasters_ray.util import exchange

__all__ = ["distinct_count", "hll_register_table", "hll_count", "HLL_P"]


# ---------------------------------------------------------------------------
# exact distinct count per group
# ---------------------------------------------------------------------------


def distinct_count(ds, group_col: str, value_col: str):
    """Exact COUNT(DISTINCT value) per group -> Dataset[(group, n_distinct)].

    Stage 1 partials emit each block's distinct (group, value) pairs;
    stage 2, an exchange on the value, dedups pairs within its partition
    (every global copy of a pair lands in the same partition, so local
    distinct IS global distinct) and counts per group; stage 3 sums the per-
    partition counts per group — group cardinality may scale with data,
    so this is an exchange on the group and a vectorized reduce, not a
    per-group Python walk."""

    def pairs(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:  # keep the input schema (no drift on empty blocks)
            return t.select([group_col, value_col])
        return t.select([group_col, value_col]).group_by(
            [group_col, value_col]
        ).aggregate([])

    def count_part(group: pa.Table) -> pa.Table:
        uniq = group.select([group_col, value_col]).group_by(
            [group_col, value_col]
        ).aggregate([])
        counted = uniq.group_by([group_col]).aggregate([(value_col, "count")])
        return pa.table(
            {
                group_col: counted.column(group_col),
                "n_distinct": counted.column(f"{value_col}_count").cast(pa.int64()),
            }
        )

    def sum_group(group: pa.Table) -> pa.Table:
        summed = group.group_by([group_col]).aggregate([("n_distinct", "sum")])
        return pa.table(
            {
                group_col: summed.column(group_col),
                "n_distinct": summed.column("n_distinct_sum").cast(pa.int64()),
            }
        )

    counts = exchange(ds.map_batches(pairs, batch_format="pyarrow"), value_col, count_part)
    return exchange(counts, group_col, sum_group)


# ---------------------------------------------------------------------------
# HyperLogLog sketch
# ---------------------------------------------------------------------------

HLL_P = 12  # 4096 registers, ~1.6% expected relative error
_M = 1 << HLL_P


def _hash64(values) -> np.ndarray:
    """Deterministic vectorized u64 hash (pandas siphash, fixed key)."""
    import pandas as pd

    arr = np.asarray(values, dtype=object)
    return pd.util.hash_array(arr, categorize=False).astype(np.uint64)


def _rho(w: np.ndarray, bits: int) -> np.ndarray:
    """Position of the leftmost 1 in the top ``bits`` bits of w, 1-based;
    ``bits + 1`` when all zero.  Vectorized by halving shifts (exact —
    no float log)."""
    rho = np.full(w.shape, bits + 1, dtype=np.int64)
    lead = np.zeros(w.shape, dtype=np.int64)  # leading zeros so far
    rem = w.copy()
    shift = 32
    while shift:
        # does the top `shift` of the remaining window contain a 1?
        top = rem >> np.uint64(64 - shift)
        empty = top == 0
        lead = np.where(empty, lead + shift, lead)
        rem = np.where(empty, rem << np.uint64(shift), rem)
        shift //= 2
    nz = w != 0
    rho[nz] = np.minimum(lead[nz] + 1, bits + 1)
    return rho


def hll_register_table(values) -> pa.Table:
    """Sketch one batch of values -> at-most-m rows of (register, rho);
    merge across batches/partitions by MAX(rho) per register."""
    h = _hash64(values)
    reg = (h >> np.uint64(64 - HLL_P)).astype(np.int64)
    w = (h << np.uint64(HLL_P)).astype(np.uint64)  # wraps: low 64-p bits up top
    rho = _rho(w, 64 - HLL_P)
    maxes = np.zeros(_M, dtype=np.int64)
    np.maximum.at(maxes, reg, rho)
    keep = np.flatnonzero(maxes)
    return pa.table(
        {
            "register": pa.array(keep.astype(np.int64), pa.int64()),
            "rho": pa.array(maxes[keep], pa.int64()),
        }
    )


def hll_count(registers: pa.Table) -> float:
    """Estimate cardinality from merged (register, max rho) rows —
    standard HLL estimator with linear-counting small-range correction."""
    maxes = np.zeros(_M, dtype=np.int64)
    reg = registers.column("register").to_numpy()
    rho = registers.column("rho").to_numpy()
    np.maximum.at(maxes, reg, rho)
    alpha = 0.7213 / (1.0 + 1.079 / _M)
    est = alpha * _M * _M / np.sum(np.exp2(-maxes.astype(np.float64)))
    zeros = int((maxes == 0).sum())
    if est <= 2.5 * _M and zeros:
        return float(_M * np.log(_M / zeros))
    return float(est)


def approx_distinct(ds, group_col: str, value_col: str):
    """Approximate COUNT(DISTINCT value) per group via HyperLogLog ->
    Dataset[(group, n_approx)].  Wire volume per block is at most
    groups x m register rows regardless of row count — the scale path
    when exact pair-cardinality is itself too large to shuffle."""

    def partial(t: pa.Table) -> pa.Table:
        out_g, out_r, out_rho = [], [], []
        if t.num_rows:
            gcol = np.asarray(t.column(group_col).to_pylist(), dtype=object)
            vals = np.asarray(t.column(value_col).to_pylist(), dtype=object)
            for g in np.unique(gcol):
                regs = hll_register_table(vals[gcol == g])
                n = regs.num_rows
                out_g.extend([g] * n)
                out_r.append(regs.column("register").to_numpy())
                out_rho.append(regs.column("rho").to_numpy())
        return pa.table(
            {
                group_col: pa.array(out_g, pa.string()),
                "register": pa.array(
                    np.concatenate(out_r) if out_r else np.array([], np.int64),
                    pa.int64(),
                ),
                "rho": pa.array(
                    np.concatenate(out_rho) if out_rho else np.array([], np.int64),
                    pa.int64(),
                ),
            }
        )

    def merge(group: pa.Table) -> pa.Table:
        g = group.column(group_col)[0].as_py()
        est = hll_count(group)
        return pa.table(
            {
                group_col: pa.array([g], pa.string()),
                "n_approx": pa.array([int(round(est))], pa.int64()),
            }
        )

    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(group_col)
        .map_groups(merge, batch_format="pyarrow")
    )
