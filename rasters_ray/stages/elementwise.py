"""Elementwise raster algebra as batch UDFs.

Mirrors the reference's lifted numpy surface (raster.py:177-624 dunders,
where.py, clip.py, mask/fill, minmaxstretch/percentilecut) as per-row
vectorized transforms inside ``map_batches``. The generic ``apply_fn``
lifts ANY unary numpy function over decoded pixels — the engine analog of
the reference's ``__getattr__`` delegation (raster.py:971-978): the user
UDF surface.

``zip_apply`` aligns two image datasets on a key column (tile_id /
image_id) and applies a binary op — the engine's ``fill``/``where`` over
two rasters (raster.py:1917-1924).
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np
import pyarrow as pa

from .. import codec
from ..util import exchange


def _map_pixels(batch: pa.Table, fn: Callable[[np.ndarray], np.ndarray]) -> pa.Table:
    blobs = batch.column("bytes").to_pylist()
    fmts = batch.column("fmt").to_pylist()
    out_blobs = []
    out_fmts = []
    for b, f in zip(blobs, fmts):
        arr = codec.decode(b, f)
        if not arr.flags.writeable:
            # zero-copy decode returns READ-ONLY views over Arrow buffers;
            # user UDFs may mutate in place (a += 1), so hand them a copy
            arr = arr.copy()
        res = fn(arr)
        if res.dtype == np.float64:
            res = res.astype(np.float32)
        enc_fmt = "npy" if res.dtype not in (np.uint8, np.uint16) else f
        out_blobs.append(codec.encode(res, enc_fmt))
        out_fmts.append(enc_fmt)
    t = batch.set_column(batch.column_names.index("bytes"), "bytes", pa.array(out_blobs, pa.binary()))
    return t.set_column(t.column_names.index("fmt"), "fmt", pa.array(out_fmts, pa.string()))


def apply_fn(images_ds, fn: Callable[[np.ndarray], np.ndarray], **kw):
    """Lift a unary pixel function over a Dataset of images (UDF surface)."""
    return images_ds.map_batches(lambda t: _map_pixels(t, fn), batch_format="pyarrow", **kw)


def clip_values(images_ds, a_min: Optional[float], a_max: Optional[float], **kw):
    """Value clamp (clip.py:12-60)."""
    with np.errstate(invalid="ignore"):
        return apply_fn(images_ds, lambda a: np.clip(a, a_min, a_max), **kw)


def where_const(images_ds, pred: Callable[[np.ndarray], np.ndarray], value: float, **kw):
    """where(cond, value, pixels) lifting (where.py:11-97)."""

    def f(a: np.ndarray) -> np.ndarray:
        with np.errstate(invalid="ignore"):
            return np.where(pred(a), value, a).astype(np.float32)

    return apply_fn(images_ds, f, **kw)


def mask_nan(images_ds, pred: Callable[[np.ndarray], np.ndarray], **kw):
    """keep where mask else NaN (raster.py:1917-1918)."""

    def f(a: np.ndarray) -> np.ndarray:
        with np.errstate(invalid="ignore"):
            return np.where(pred(a), a, np.nan).astype(np.float32)

    return apply_fn(images_ds, f, **kw)


def minmaxstretch(images_ds, **kw):
    """Normalize to [0,1] by nanmin/nanmax (raster.py:2137-2145)."""

    def f(a: np.ndarray) -> np.ndarray:
        a = a.astype(np.float64)
        lo, hi = np.nanmin(a), np.nanmax(a)
        if hi == lo:
            return np.zeros_like(a, dtype=np.float32)
        return ((a - lo) / (hi - lo)).astype(np.float32)

    return apply_fn(images_ds, f, **kw)


def percentilecut(images_ds, lo: float = 2.0, hi: float = 98.0, **kw):
    """Normalize to [0,1] by the [lo, hi] percentile interval
    (raster.py:2147-2156)."""

    def f(a: np.ndarray) -> np.ndarray:
        a = a.astype(np.float64)
        plo, phi = np.nanpercentile(a, [lo, hi])
        if phi == plo:
            return np.zeros_like(a, dtype=np.float32)
        return np.clip((a - plo) / (phi - plo), 0.0, 1.0).astype(np.float32)

    return apply_fn(images_ds, f, **kw)


def image_stats(images_ds, **kw):
    """Per-image (nanmin, nanmax, nanmean, valid_px) scalar columns — the
    global-stretch statistics path (raster.py:1108-1113, 1997-2006)."""

    def f(batch: pa.Table) -> pa.Table:
        mins, maxs, means, valid = [], [], [], []
        for b, fmt in zip(batch.column("bytes").to_pylist(), batch.column("fmt").to_pylist()):
            a = codec.decode(b, fmt).astype(np.float64)
            m = np.isfinite(a)
            valid.append(int(m.sum()))
            if m.any():
                mins.append(float(a[m].min()))
                maxs.append(float(a[m].max()))
                means.append(float(a[m].mean()))
            else:
                mins.append(float("nan"))
                maxs.append(float("nan"))
                means.append(float("nan"))
        out = batch.drop_columns(["bytes"])
        out = out.append_column("px_min", pa.array(mins, pa.float64()))
        out = out.append_column("px_max", pa.array(maxs, pa.float64()))
        out = out.append_column("px_mean", pa.array(means, pa.float64()))
        out = out.append_column("valid_px", pa.array(valid, pa.int64()))
        return out

    return images_ds.map_batches(f, batch_format="pyarrow", **kw)


def zip_apply(
    a_ds,
    b_ds,
    fn: Callable[[np.ndarray, np.ndarray], np.ndarray],
    key: str = "image_id",
):
    """Align two image datasets on ``key`` and apply a binary pixel op —
    e.g. fill (isnan(a) -> b, raster.py:1920-1924) or masked difference.

    Implemented as one ``util.exchange`` co-grouping both sides on
    ``key`` (a co-shuffle hash join; no broadcast side, both sides may be
    large).  A key with exactly one row on each side gives one output row
    (A's columns, with the result's pixels); any other key drops
    (inner)."""
    import pyarrow.compute as pc

    def single(t: pa.Table) -> pa.Table:
        """The rows of ``t`` whose key no other row of ``t`` has."""
        n = t.group_by(key).aggregate([(key, "count")])
        return t.filter(pc.is_in(t.column(key), value_set=n.filter(
            pc.equal(n.column(f"{key}_count"), 1)).column(key)))

    def combine(a: pa.Table, b: pa.Table) -> pa.Table:
        if a is None or b is None:  # a side with no rows at all: no key has both
            return a.slice(0, 0) if a is not None else pa.table({})
        a, b = single(a), single(b)
        # one A row and one B row per matched key, in key order
        out = a.filter(pc.is_in(a.column(key), value_set=b.column(key))).sort_by(key)
        b = b.filter(pc.is_in(b.column(key), value_set=a.column(key))).sort_by(key)
        res = [codec.encode(fn(codec.decode(ba, fa), codec.decode(bb, fb)).astype(np.float32), "npy")
               for ba, fa, bb, fb in zip(out.column("bytes").to_pylist(), out.column("fmt").to_pylist(),
                                         b.column("bytes").to_pylist(), b.column("fmt").to_pylist())]
        out = out.set_column(out.column_names.index("bytes"), "bytes", pa.array(res, pa.binary()))
        return out.set_column(out.column_names.index("fmt"), "fmt",
                              pa.array(["npy"] * out.num_rows, pa.string()))

    return exchange([a_ds, b_ds], key, combine)


def fill_from(a_ds, b_ds, key: str = "image_id"):
    """NaN holes in A filled from B (raster.py:1920-1924)."""
    return zip_apply(
        a_ds, b_ds, lambda a, b: np.where(np.isnan(a), b, a), key=key
    )
