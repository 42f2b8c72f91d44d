"""Sampling + rendering + banding stages completing SURVEY.md §2.

- ``idw_sample``: inverse-distance-weighted point sampling over pixel
  centroids (raster.py:1494-1545) — the query points are broadcast and
  each task samples its images; float-dtype ``to_point`` dispatch uses it
  (raster.py:1295-1322: nearest for int dtype, IDW for float).
- ``render_png``/``render_jpeg``: value raster -> display uint8 PNG or
  baseline JPEG via min-max stretch (the to_geojpeg/to_geopng path,
  raster.py:1791-1865) with the PSNR>=40dB check applying to such lossy
  re-encodes.
- ``band_stack``: MultiRaster.stack analog — groupby(image group) ->
  np.stack of bands sharing a geometry (multi_raster.py:99-105).
- ``to_geometry``: the resample router (raster.py:1441-1479): grid target
  -> warp, swath target -> kNN, point target -> sample.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from .. import codec
from ..grids import GridSpec
from ..grids.swath import SwathSpec
from ..util import fetch


def idw_sample_array(
    arr: np.ndarray, grid: GridSpec, px: np.ndarray, py: np.ndarray, power: float = 2.0
) -> np.ndarray:
    """Vectorized IDW over ALL pixel centroids per point (the reference
    samples against every centroid, raster.py:1520-1538). A point exactly
    on a centroid returns that pixel value."""
    gx, gy = grid.xy()
    vals = arr.astype(np.float64).ravel()
    ok = np.isfinite(vals)
    fx = gx.ravel()[ok]
    fy = gy.ravel()[ok]
    fv = vals[ok]
    out = np.full(len(px), np.nan)
    for i in range(len(px)):
        d2 = (fx - px[i]) ** 2 + (fy - py[i]) ** 2
        hit = d2 < 1e-24
        if hit.any():
            out[i] = fv[np.argmax(hit)]
            continue
        w = 1.0 / np.power(d2, power / 2.0)
        out[i] = float((w * fv).sum() / w.sum())
    return out


def idw_sample_batch(batch: pa.Table, points, power: float) -> pa.Table:
    """Images batch x (point_ids, x, y) point arrays -> IDW value rows for
    every point inside an image's bbox."""
    pids, px, py = points
    out_pid, out_iid, out_val = [], [], []
    grids = batch.column("grid").to_pylist()
    fmts = batch.column("fmt").to_pylist()
    blobs = batch.column("bytes").to_pylist()
    ids = batch.column("image_id").to_pylist()
    for i in range(batch.num_rows):
        grid = GridSpec.from_dict(grids[i])
        xmin, ymin, xmax, ymax = grid.bbox
        sel = (px >= xmin) & (px <= xmax) & (py >= ymin) & (py <= ymax)
        if not sel.any():
            continue
        arr = codec.decode(blobs[i], fmts[i])
        vals = idw_sample_array(arr, grid, px[sel], py[sel], power)
        out_pid.extend(pids[sel].tolist())
        out_iid.extend([ids[i]] * int(sel.sum()))
        out_val.extend(vals.tolist())
    return pa.table(
        {
            "point_id": pa.array(out_pid, pa.string()),
            "image_id": pa.array(out_iid, pa.string()),
            "value": pa.array(out_val, pa.float64()),
        }
    )


def idw_sample(images_ds, points: pa.Table, power: float = 2.0):
    """Dataset[images] x (point_id, x, y) table -> Dataset[(point_id,
    image_id, value)] IDW samples; the point arrays ship once via
    ``ray.put`` and each task reads them with ``util.fetch``."""
    import ray

    ref = ray.put((
        np.asarray(points.column("point_id").to_pylist(), dtype=object),
        points.column("x").to_numpy(),
        points.column("y").to_numpy(),
    ))
    return images_ds.map_batches(
        lambda b: idw_sample_batch(b, fetch(ref), power), batch_format="pyarrow"
    )


def _stretch_u8(arr: np.ndarray) -> np.ndarray:
    """Min-max stretch any value raster to display uint8."""
    arr = arr.astype(np.float64)
    finite = np.isfinite(arr)
    img = np.zeros(arr.shape, dtype=np.uint8)
    if finite.any():
        lo, hi = arr[finite].min(), arr[finite].max()
        scale = (hi - lo) or 1.0
        img[finite] = np.clip((arr[finite] - lo) / scale * 255.0, 0, 255).astype(
            np.uint8
        )
    return img


def _render(batch: pa.Table, out_fmt: str, cmap: str = None) -> pa.Table:
    blobs = batch.column("bytes").to_pylist()
    fmts = batch.column("fmt").to_pylist()
    if cmap is not None and cmap != "gray":
        from .colormap import apply_cmap

        post = lambda u8: apply_cmap(u8, cmap)  # noqa: E731
    else:
        post = lambda u8: u8  # noqa: E731
    out = [
        codec.encode(post(_stretch_u8(codec.decode(b, f))), out_fmt)
        for b, f in zip(blobs, fmts)
    ]
    t = batch.set_column(batch.column_names.index("bytes"), "bytes", pa.array(out, pa.binary()))
    return t.set_column(
        t.column_names.index("fmt"), "fmt", pa.array([out_fmt] * t.num_rows, pa.string())
    )


def render_png(batch: pa.Table) -> pa.Table:
    """Min-max stretch to uint8 gray PNG (display render path)."""
    return _render(batch, "png")


def render_jpeg(batch: pa.Table) -> pa.Table:
    """Min-max stretch to uint8 gray baseline JPEG — the reference's
    ``to_geojpeg`` display path (raster.py:1791-1865), real as of round
    4 via the pure-numpy ``codec.jpeg_codec``."""
    return _render(batch, "jpg")


def make_render(out_fmt: str = "png", cmap: str = None):
    """Display-render stage factory: min-max stretch -> optional colormap
    (``stages.colormap``, RGB) -> png/jpg encode. The reference's
    cmap-aware to_geopng/to_geojpeg (raster.py:1791-1865, cmap kwarg)."""

    def render(batch: pa.Table) -> pa.Table:
        return _render(batch, out_fmt, cmap)

    return render


def band_stack(images_ds, group_col: str = "caption"):
    """Stack same-geometry rasters into one multi-band row per group
    (bands ordered by image_id; MultiRaster.stack semantics)."""

    def stack(g: pa.Table) -> pa.Table:
        order = np.argsort(np.asarray(g.column("image_id").to_pylist(), dtype=object))
        arrs = []
        for i in order:
            arrs.append(
                codec.decode(g.column("bytes")[int(i)].as_py(), g.column("fmt")[int(i)].as_py())
            )
        stacked = np.stack(arrs)
        first = g.slice(int(order[0]), 1)
        out = first.set_column(
            first.column_names.index("bytes"),
            "bytes",
            pa.array([codec.encode(stacked, "npy")], pa.binary()),
        )
        out = out.set_column(out.column_names.index("fmt"), "fmt", pa.array(["npy"], pa.string()))
        return out.append_column("n_bands", pa.array([len(arrs)], pa.int32()))

    return images_ds.groupby(group_col).map_groups(stack, batch_format="pyarrow")


def to_geometry(images_ds, target, **kw):
    """Router (raster.py:1441-1479): GridSpec -> warp; SwathSpec -> kNN
    resample; points table -> sample_points."""
    from .point_join import sample_points
    from .resample import KNNResampleStage, WarpStage

    if isinstance(target, GridSpec):
        target_dict = {k: v for k, v in target.to_dict().items() if k != "type"}
        stage = WarpStage(target_dict, kw.pop("method", "nearest"))
        return images_ds.map_batches(stage, batch_format="pyarrow")
    if isinstance(target, SwathSpec):
        return images_ds.map_batches(KNNResampleStage(target.to_dict()), batch_format="pyarrow")
    if isinstance(target, pa.Table):
        return sample_points(images_ds, target, **kw)
    raise TypeError(f"unsupported target: {type(target)}")
