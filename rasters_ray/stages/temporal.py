"""Temporal stack analytics: per-pixel statistics across co-registered
acquisitions of the same scene (the Landsat/Sentinel time-series
pattern — median compositing and per-pixel change trend).

The reference is a single-raster library (its closest surface is
``MultiRaster.stack``, ``/root/reference/rasters/raster.py``, an
in-memory band stack); these operators are the distributed time-series
form a 100 TB archive needs.

Scale shape
-----------
Scenes sharing a ``stack_key`` are ASSUMED CO-REGISTERED (same grid,
pixel (r, c) aligns by index — the standard precondition of per-pixel
compositing).  Each scene is cut into ``tile x tile`` blocks inside
``map_batches``; blocks co-partition on ``(stack_key, tile_r, tile_c)``
in ONE ``util.exchange`` whose per-tile payload is T small tiles, never
a whole scene.  Per-group kernels emit tiny partials (value histograms or
integer trend sums) and a final low-cardinality groupby-sum combines
them — pixels cross the wire once, as packed int64 tile lists.

Determinism
-----------
* ``stack_median_histogram``: per-pixel LOWER median (element at index
  ``(T-1)//2`` of the sorted epoch values) — integer-exact, replayable
  in SQL as the ``rn = (cnt+1)//2`` row of a window sort.
* ``stack_trend_summary``: per-pixel OLS slope NUMERATOR over epoch
  index t, ``n*sum(t*v) - sum(t)*sum(v)`` — all int64, sign = direction
  of change; per stack the counts of rising/falling/flat pixels and the
  summed numerator are exact integers.
* ``stack_mann_kendall``: per-pixel Mann-Kendall S statistic
  ``sum_{i<j} sign(v_j - v_i)`` over time order (Mann 1945 / Kendall
  1975, the nonparametric trend test behind "emerging hot spot"
  space-time analyses) — pure integer in [-T(T-1)/2, +T(T-1)/2],
  reported as the per-stack histogram of S values.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from rasters_ray import codec
from rasters_ray.util import exchange

__all__ = [
    "lower_median",
    "trend_numerators",
    "mann_kendall_s",
    "theil_sen_fractions",
    "stack_median_histogram",
    "stack_trend_summary",
    "stack_mann_kendall",
    "stack_theil_sen",
]


def lower_median(stack: np.ndarray) -> np.ndarray:
    """Element at index (T-1)//2 of the per-pixel sorted epoch values —
    the deterministic integer median (no even-count averaging)."""
    a = np.asarray(stack)
    if a.ndim != 2 or a.shape[0] < 1:
        raise ValueError("lower_median expects a (T, n_pixels) stack")
    return np.sort(a, axis=0)[(a.shape[0] - 1) // 2]


def trend_numerators(stack: np.ndarray, epochs: np.ndarray) -> np.ndarray:
    """Per-pixel OLS slope numerator ``n*sum(t*v) - sum(t)*sum(v)`` over
    the epoch axis (int64-exact; sign is the change direction, the
    denominator ``n*sum(t^2) - sum(t)^2`` is a per-stack constant)."""
    a = np.asarray(stack, dtype=np.int64)
    t = np.asarray(epochs, dtype=np.int64)
    if a.ndim != 2 or t.shape != (a.shape[0],):
        raise ValueError("trend_numerators expects (T, n) stack + T epochs")
    n = np.int64(a.shape[0])
    return n * (t[:, None] * a).sum(axis=0) - t.sum() * a.sum(axis=0)


def mann_kendall_s(stack: np.ndarray) -> np.ndarray:
    """Per-pixel Mann-Kendall S over the epoch axis (rows MUST be in
    time order): ``S = sum_{i<j} sign(v_j - v_i)``, int64-exact.
    S > 0 rising, S < 0 falling; |S| near T(T-1)/2 is a monotone run."""
    a = np.asarray(stack, dtype=np.int64)
    if a.ndim != 2 or a.shape[0] < 2:
        raise ValueError("mann_kendall_s expects a (T>=2, n_pixels) stack")
    s = np.zeros(a.shape[1], dtype=np.int64)
    for i in range(a.shape[0] - 1):
        d = a[i + 1 :] - a[i]
        s += (d > 0).sum(axis=0, dtype=np.int64)
        s -= (d < 0).sum(axis=0, dtype=np.int64)
    return s


def theil_sen_fractions(stack: np.ndarray, epochs: np.ndarray):
    """Per-pixel Theil-Sen slope (Theil 1950 / Sen 1968 — the robust
    trend estimator paired with Mann-Kendall in emerging-hot-spot
    analysis) as an EXACT reduced fraction.

    The estimate is the LOWER median (sorted index (m-1)//2) of the
    m = T(T-1)/2 pairwise slopes (v_j - v_i) / (t_j - t_i), selected by
    exact cross-multiplication comparisons — no float division ever
    happens, so the result is bit-stable and SQL-replayable.  Returns
    ``(num, den)`` int64 arrays with gcd-reduced num/den, den > 0
    (flat pixels give 0/1)."""
    a = np.asarray(stack, dtype=np.int64)
    t = np.asarray(epochs, dtype=np.int64)
    if a.ndim != 2 or a.shape[0] < 2 or t.shape != (a.shape[0],):
        raise ValueError("theil_sen_fractions expects (T>=2, n) stack + epochs")
    if np.unique(t).size != t.size:
        raise ValueError("duplicate epochs")
    order = np.argsort(t)
    a, t = a[order], t[order]
    T = a.shape[0]
    pairs = [(i, j) for i in range(T) for j in range(i + 1, T)]
    dv = np.stack([a[j] - a[i] for i, j in pairs])            # (m, n)
    dt = np.array([t[j] - t[i] for i, j in pairs],
                  dtype=np.int64)[:, None]                     # (m, 1) > 0
    # cross[i, j] = dv[j]*dt[i] - dv[i]*dt[j]; slope_j < slope_i iff < 0
    cross = dv[None, :, :] * dt[:, None, :] - dv[:, None, :] * dt[None, :, :]
    lt = (cross < 0).sum(axis=1)    # (m, n): #{j : s_j <  s_i}
    le = (cross <= 0).sum(axis=1)   # (m, n): #{j : s_j <= s_i}
    kth = (len(pairs) - 1) // 2
    sel = (lt <= kth) & (le > kth)  # every True row holds the median value
    idx = sel.argmax(axis=0)
    cols = np.arange(a.shape[1])
    num = dv[idx, cols]
    den = dt[idx, 0]
    g = np.gcd(np.abs(num), den)
    return num // g, den // g


def _tile_rows(t: pa.Table, key_fn, tile: int) -> pa.Table:
    """Cut each scene into tile blocks -> rows of packed int64 pixels."""
    ks, es, trs, tcs, hs, ws, vals = [], [], [], [], [], [], []
    if t.num_rows:
        blobs = codec.BlobReader(t.column("bytes"))
        fmts = t.column("fmt").to_pylist()
        ids = t.column("image_id").to_pylist()
        for i in range(t.num_rows):
            key = key_fn(ids[i])
            if key is None:
                continue
            stack_key, epoch = key
            px = codec.decode(blobs[i], fmts[i])
            x = np.asarray(px)
            if not np.issubdtype(x.dtype, np.integer):
                if not np.all(np.isfinite(x)) or np.any(x != np.rint(x)):
                    raise ValueError("temporal stack requires integral pixels")
            x = x.astype(np.int64)
            rows, cols = x.shape
            for tr in range(0, rows, tile):
                for tc in range(0, cols, tile):
                    blk = x[tr : tr + tile, tc : tc + tile]
                    ks.append(int(stack_key))
                    es.append(int(epoch))
                    trs.append(tr // tile)
                    tcs.append(tc // tile)
                    hs.append(blk.shape[0])
                    ws.append(blk.shape[1])
                    vals.append(blk.ravel())
    flat = np.concatenate(vals) if vals else np.array([], dtype=np.int64)
    offsets = np.zeros(len(vals) + 1, dtype=np.int32)
    if vals:
        np.cumsum([v.size for v in vals], out=offsets[1:])
    return pa.table(
        {
            "stack_key": pa.array(ks, pa.int64()),
            "epoch": pa.array(es, pa.int64()),
            "tr": pa.array(trs, pa.int64()),
            "tc": pa.array(tcs, pa.int64()),
            "h": pa.array(hs, pa.int64()),
            "w": pa.array(ws, pa.int64()),
            "vals": pa.ListArray.from_arrays(pa.array(offsets), pa.array(flat, pa.int64())),
        }
    )


_TILE_KEYS = ["stack_key", "tr", "tc"]


def _per_tile(per_group, out_schema: pa.Schema):
    """Exchange kernel: ``per_group`` over each (stack_key, tr, tc) tile
    group of a partition, concatenated; an empty partition yields
    ``out_schema``'s empty table."""

    def per_part(part: pa.Table) -> pa.Table:
        if part.num_rows == 0:
            return out_schema.empty_table()
        part = part.sort_by([(k, "ascending") for k in _TILE_KEYS])
        key = np.stack([part.column(k).to_numpy() for k in _TILE_KEYS])
        cuts = np.flatnonzero(np.r_[True, (key[:, 1:] != key[:, :-1]).any(axis=0), True])
        return pa.concat_tables(
            [per_group(part.slice(a, b - a)) for a, b in zip(cuts[:-1], cuts[1:])])

    return per_part


def _group_stack(g: pa.Table):
    """Sort a (stack_key, tr, tc) group by epoch -> (epochs, (T, n) stack)."""
    eps = g.column("epoch").to_numpy()
    order = np.argsort(eps, kind="stable")
    eps = eps[order]
    if np.unique(eps).size != eps.size:
        raise ValueError("duplicate epoch in temporal stack group")
    h = g.column("h").to_numpy()
    w = g.column("w").to_numpy()
    if np.unique(h).size != 1 or np.unique(w).size != 1:
        raise ValueError("temporal stack tiles must share a shape")
    lists = g.column("vals")
    stack = np.stack([np.asarray(lists[int(i)].as_py(), dtype=np.int64) for i in order])
    return eps, stack


def stack_median_histogram(images_ds, key_fn, tile: int = 25):
    """Median composite, summarized: Dataset[(stack_key, value, n_px)] —
    the histogram of per-pixel lower-median values for every stack.
    ``key_fn(image_id) -> (stack_key, epoch) | None`` routes scenes."""
    from ray.data.aggregate import Sum

    def per_group(g: pa.Table) -> pa.Table:
        _, stack = _group_stack(g)
        med = lower_median(stack)
        bc = np.bincount(med)
        nz = np.flatnonzero(bc)
        k = int(g.column("stack_key")[0].as_py())
        return pa.table(
            {
                "stack_key": pa.array([k] * nz.size, pa.int64()),
                "value": pa.array(nz, pa.int64()),
                "pcnt": pa.array(bc[nz], pa.int64()),
            }
        )

    tiles = images_ds.map_batches(
        lambda t: _tile_rows(t, key_fn, tile), batch_format="pyarrow"
    )
    out_schema = pa.schema(
        [("stack_key", pa.int64()), ("value", pa.int64()), ("pcnt", pa.int64())]
    )
    partials = exchange(tiles, _TILE_KEYS, _per_tile(per_group, out_schema))
    return partials.groupby(["stack_key", "value"]).aggregate(
        Sum("pcnt", alias_name="n_px")
    )


def stack_mann_kendall(images_ds, key_fn, tile: int = 25):
    """Mann-Kendall trend test, summarized: Dataset[(stack_key, s, n_px)]
    — per stack, the histogram of per-pixel S statistics.  Same scale
    shape as the other stack operators: one (stack_key, tile) shuffle of
    packed tiles, tiny integer partials, one low-cardinality sum."""
    from ray.data.aggregate import Sum

    def per_group(g: pa.Table) -> pa.Table:
        _, stack = _group_stack(g)
        s = mann_kendall_s(stack)
        smax = stack.shape[0] * (stack.shape[0] - 1) // 2
        bc = np.bincount(s + smax, minlength=2 * smax + 1)
        nz = np.flatnonzero(bc)
        k = int(g.column("stack_key")[0].as_py())
        return pa.table(
            {
                "stack_key": pa.array([k] * nz.size, pa.int64()),
                "s": pa.array(nz - smax, pa.int64()),
                "pcnt": pa.array(bc[nz], pa.int64()),
            }
        )

    tiles = images_ds.map_batches(
        lambda t: _tile_rows(t, key_fn, tile), batch_format="pyarrow"
    )
    out_schema = pa.schema(
        [("stack_key", pa.int64()), ("s", pa.int64()), ("pcnt", pa.int64())]
    )
    partials = exchange(tiles, _TILE_KEYS, _per_tile(per_group, out_schema))
    return partials.groupby(["stack_key", "s"]).aggregate(
        Sum("pcnt", alias_name="n_px")
    )


def stack_theil_sen(images_ds, key_fn, tile: int = 25):
    """Theil-Sen slope, summarized: Dataset[(stack_key, num, den, n_px)]
    — per stack, the histogram of exact reduced slope fractions.  Same
    one-shuffle tile-cogroup shape as the other stack operators."""
    from ray.data.aggregate import Sum

    def per_group(g: pa.Table) -> pa.Table:
        eps, stack = _group_stack(g)
        num, den = theil_sen_fractions(stack, eps)
        key = num * np.int64(1 << 20) + den  # den <= max epoch gap << 2^20
        ub, inv = np.unique(key, return_inverse=True)
        cnt = np.bincount(inv).astype(np.int64)
        k = int(g.column("stack_key")[0].as_py())
        return pa.table(
            {
                "stack_key": pa.array([k] * ub.size, pa.int64()),
                "num": pa.array(ub >> 20, pa.int64()),
                "den": pa.array(ub & ((1 << 20) - 1), pa.int64()),
                "pcnt": pa.array(cnt, pa.int64()),
            }
        )

    tiles = images_ds.map_batches(
        lambda t: _tile_rows(t, key_fn, tile), batch_format="pyarrow"
    )
    out_schema = pa.schema(
        [("stack_key", pa.int64()), ("num", pa.int64()),
         ("den", pa.int64()), ("pcnt", pa.int64())]
    )
    partials = exchange(tiles, _TILE_KEYS, _per_tile(per_group, out_schema))
    return partials.groupby(["stack_key", "num", "den"]).aggregate(
        Sum("pcnt", alias_name="n_px")
    )


def stack_trend_summary(images_ds, key_fn, tile: int = 25):
    """Per-pixel change trend, summarized per stack:
    Dataset[(stack_key, n_px, n_up, n_down, n_flat, sum_slope_num)]
    where slope_num is the integer OLS numerator over epoch index."""
    from ray.data.aggregate import Sum

    def per_group(g: pa.Table) -> pa.Table:
        eps, stack = _group_stack(g)
        num = trend_numerators(stack, eps)
        k = int(g.column("stack_key")[0].as_py())
        return pa.table(
            {
                "stack_key": pa.array([k], pa.int64()),
                "n_px": pa.array([num.size], pa.int64()),
                "n_up": pa.array([int((num > 0).sum())], pa.int64()),
                "n_down": pa.array([int((num < 0).sum())], pa.int64()),
                "n_flat": pa.array([int((num == 0).sum())], pa.int64()),
                "sum_slope_num": pa.array([int(num.sum())], pa.int64()),
            }
        )

    tiles = images_ds.map_batches(
        lambda t: _tile_rows(t, key_fn, tile), batch_format="pyarrow"
    )
    out_schema = pa.schema(
        [
            ("stack_key", pa.int64()),
            ("n_px", pa.int64()),
            ("n_up", pa.int64()),
            ("n_down", pa.int64()),
            ("n_flat", pa.int64()),
            ("sum_slope_num", pa.int64()),
        ]
    )
    partials = exchange(tiles, _TILE_KEYS, _per_tile(per_group, out_schema))
    return (
        partials.groupby("stack_key")
        .aggregate(
            Sum("n_px", alias_name="n_px"),
            Sum("n_up", alias_name="n_up"),
            Sum("n_down", alias_name="n_down"),
            Sum("n_flat", alias_name="n_flat"),
            Sum("sum_slope_num", alias_name="sum_slope_num"),
        )
    )
