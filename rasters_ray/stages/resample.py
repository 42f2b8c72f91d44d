"""Resampling / reprojection stages.

- ``warp_array`` / ``WarpStage``: grid->grid warp by inverse mapping
  (target cell centers -> source fractional indices via the affine-center
  rule, + CRS transform when grids differ) with the reference's method
  table semantics (raster.py:1325-1428): nearest (the reference default),
  bilinear, average (area mean for integer downscale factors), cubic
  (Catmull-Rom). Pure numpy per image, stateless map_batches.
- ``KNNResampler``: the stateful kNN stage (KDTree analog,
  kdtree.py:52-202): a neighbor index per (source, target) geometry pair
  built ONCE per resampler instance and cached; resample = vectorized
  gather with the radius_of_influence fill rule (out-of-radius -> fill_value,
  kdtree.py:298-308). radius defaults to 2.0 x max(cell_size_meters)
  (kdtree.py:27,167-179: the class-local 2.0 shadows the module constant 3).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np
import pyarrow as pa

from .. import codec
from ..grids import GridSpec
from ..grids.swath import SwathSpec
from ..proj import crs_equal, transform_xy
from ..state.gridindex import GridNNIndex

RADIUS_FACTOR = 2.0  # kdtree.py:27 (class-local shadows constants.py:5's 3)

# the reference's 13-method resampling table (constants.py:13-27), every
# method a REAL kernel (raster.py:1325-1428 dispatches to rasterio/GDAL;
# here each name maps to its own numpy implementation):
#   point kernels   : nearest
#   separable interp: bilinear ('linear' in the reference table), cubic
#                     (Catmull-Rom), cubic_spline (cubic B-spline,
#                     smoothing, as GDAL), lanczos (a=3), gauss
#                     (scale-adaptive Gaussian window)
#   footprint reductions (downscale statistics over the contributing
#   source pixels): average, sum, min, max, med, q1, q3, mode, rms
METHOD_TABLE = {
    "nearest": "nearest",
    "linear": "bilinear",  # reference name for bilinear (constants.py:15)
    "bilinear": "bilinear",
    "cubic": "cubic",
    "cubic_spline": "cubic_spline",
    "lanczos": "lanczos",
    "gauss": "gauss",
    "average": "average",
    "mode": "mode",
    "quadratic": "quadratic",  # skimage order 2 (constants.py:29-36)
    "quartic": "quartic",  # skimage order 4
    "quintic": "quintic",  # skimage order 5
    "min": "min",
    "max": "max",
    "med": "med",
    "q1": "q1",
    "q3": "q3",
    "rms": "rms",
    "sum": "sum",
}

REDUCTION_METHODS = {"average", "sum", "min", "max", "med", "q1", "q3", "mode", "rms"}


def resolve_method(name: str) -> str:
    if name not in METHOD_TABLE:
        raise ValueError(f"unknown resampling method: {name} (know {sorted(METHOD_TABLE)})")
    return METHOD_TABLE[name]


def _source_fractional_indices(
    target: GridSpec, source: GridSpec
) -> Tuple[np.ndarray, np.ndarray]:
    """Fractional (row, col) source indices of every target cell center."""
    tx, ty = target.xy()
    if not crs_equal(target.crs, source.crs):
        tx, ty = transform_xy(tx, ty, target.crs, source.crs)
    colf = (tx - source.x_origin) / source.cell_width - 0.5
    rowf = (ty - source.y_origin) / source.cell_height - 0.5
    return rowf, colf


# --- separable interpolation kernels ---------------------------------------


def _k_catmull_rom(t: np.ndarray) -> np.ndarray:
    at = np.abs(t)
    return np.where(
        at <= 1,
        1.5 * at**3 - 2.5 * at**2 + 1,
        np.where(at <= 2, -0.5 * at**3 + 2.5 * at**2 - 4 * at + 2, 0.0),
    )


def _k_bspline(t: np.ndarray) -> np.ndarray:
    # cubic B-spline (GDAL 'cubic_spline': smoothing applied to samples)
    at = np.abs(t)
    return np.where(
        at <= 1,
        (4 - 6 * at**2 + 3 * at**3) / 6.0,
        np.where(at <= 2, (2 - at) ** 3 / 6.0, 0.0),
    )


def _k_lanczos(t: np.ndarray) -> np.ndarray:
    # Lanczos a=3: sinc(t) * sinc(t/3) on |t| < 3 (np.sinc is normalized)
    return np.where(np.abs(t) < 3, np.sinc(t) * np.sinc(t / 3.0), 0.0)


def _bspline_kernel(order: int):
    """Cardinal B-spline B_n via the Cox-de Boor recursion (B_0 = unit
    box; support (n+1)/2). Applied directly to samples these are
    SMOOTHING splines — same convention as the 'cubic_spline' kernel and
    GDAL, not skimage's prefiltered interpolating splines."""

    def bn(t: np.ndarray, n: int) -> np.ndarray:
        if n == 0:
            return ((t >= -0.5) & (t < 0.5)).astype(np.float64)
        return (
            (t + (n + 1) / 2.0) * bn(t + 0.5, n - 1)
            + ((n + 1) / 2.0 - t) * bn(t - 0.5, n - 1)
        ) / n

    return lambda t: bn(np.asarray(t, dtype=np.float64), order)


_SEPARABLE = {
    "bilinear": (lambda t: np.maximum(0.0, 1.0 - np.abs(t)), 1),
    "quadratic": (_bspline_kernel(2), 2),
    "cubic": (_k_catmull_rom, 2),
    "cubic_spline": (_k_bspline, 2),
    "quartic": (_bspline_kernel(4), 3),
    "quintic": (_bspline_kernel(5), 3),
    "lanczos": (_k_lanczos, 3),
}

# the reference's skimage resize order table (constants.py:29-36): order
# int -> engine kernel name (orders 2/4/5 use the smoothing B-spline
# convention, see _bspline_kernel)
SKIMAGE_ORDERS = {
    0: "nearest",
    1: "bilinear",
    2: "quadratic",
    3: "cubic_spline",
    4: "quartic",
    5: "quintic",
}


def _warp_nearest(a3, rowf, colf, shape, fill_value):
    rows, cols = a3.shape[1:]
    r = np.rint(rowf)
    c = np.rint(colf)
    inside = (r >= 0) & (r < rows) & (c >= 0) & (c < cols) & np.isfinite(r) & np.isfinite(c)
    out = np.full((a3.shape[0],) + shape, fill_value, dtype=np.float64)
    ri = np.where(inside, r, 0).astype(np.int64)
    ci = np.where(inside, c, 0).astype(np.int64)
    vals = a3[:, ri, ci].astype(np.float64)
    out[:, inside] = vals[:, inside]
    return out


def _warp_separable(a3, rowf, colf, shape, fill_value, kfunc, radius, sy=None, sx=None):
    """Inverse-mapping separable-kernel warp, vectorized over target cells
    (the only Python loop is the (2*radius)^2 window-offset loop).
    ``sy``/``sx`` scale the kernel argument (Gaussian path)."""
    rows, cols = a3.shape[1:]
    bad = ~(np.isfinite(rowf) & np.isfinite(colf))
    r0 = np.floor(np.where(bad, 0, rowf)).astype(np.int64)
    c0 = np.floor(np.where(bad, 0, colf)).astype(np.int64)
    b = a3.shape[0]
    out = np.zeros((b,) + shape, dtype=np.float64)
    wsum = np.zeros((b,) + shape, dtype=np.float64)
    for dr in range(-radius + 1, radius + 1):
        rr = r0 + dr
        wr = kfunc((rowf - rr) / (sy or 1.0))
        rok = (rr >= 0) & (rr < rows) & ~bad
        ri = np.clip(rr, 0, rows - 1)
        for dc in range(-radius + 1, radius + 1):
            cc = c0 + dc
            ok = rok & (cc >= 0) & (cc < cols)
            ci = np.clip(cc, 0, cols - 1)
            v = a3[:, ri, ci].astype(np.float64)
            w = wr * kfunc((colf - cc) / (sx or 1.0))
            good = ok & np.isfinite(v)
            out += np.where(good, v * w, 0.0)
            wsum += np.where(good, w, 0.0)
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(np.abs(wsum) > 1e-12, out / wsum, fill_value)


def _scale_factors(rowf, colf) -> Tuple[float, float]:
    """Median source-pixels-per-target-pixel along each axis (robust to
    CRS-transformed, non-affine index fields)."""
    with np.errstate(invalid="ignore"):
        fy = float(np.nanmedian(np.abs(np.diff(rowf, axis=0)))) if rowf.shape[0] > 1 else 1.0
        fx = float(np.nanmedian(np.abs(np.diff(colf, axis=1)))) if colf.shape[1] > 1 else 1.0
    if not np.isfinite(fy) or fy <= 0:
        fy = 1.0
    if not np.isfinite(fx) or fx <= 0:
        fx = 1.0
    return fy, fx


def _grouped_reduce(cid, vv, n_cells: int, method: str) -> np.ndarray:
    """One reduction over (cell_id, value) pairs -> per-cell statistic
    (NaN where a cell has no finite contributor). Fully vectorized:
    bincount for sum-family, sort + reduceat / run-length for order stats."""
    res = np.full(n_cells, np.nan)
    if len(cid) == 0:
        return res
    if method in ("sum", "average", "rms"):
        cnt = np.bincount(cid, minlength=n_cells)
        s = np.bincount(cid, weights=vv * vv if method == "rms" else vv, minlength=n_cells)
        nz = cnt > 0
        if method == "sum":
            res[nz] = s[nz]
        elif method == "average":
            res[nz] = s[nz] / cnt[nz]
        else:
            res[nz] = np.sqrt(s[nz] / cnt[nz])
        return res
    if method in ("min", "max"):
        order = np.argsort(cid, kind="stable")
        cs, vs = cid[order], vv[order]
        starts = np.flatnonzero(np.r_[True, cs[1:] != cs[:-1]])
        red = (np.minimum if method == "min" else np.maximum).reduceat(vs, starts)
        res[cs[starts]] = red
        return res
    if method in ("med", "q1", "q3"):
        q = {"med": 0.5, "q1": 0.25, "q3": 0.75}[method]
        order = np.lexsort((vv, cid))
        cs, vs = cid[order], vv[order]
        starts = np.flatnonzero(np.r_[True, cs[1:] != cs[:-1]])
        counts = np.diff(np.r_[starts, len(cs)])
        pos = q * (counts - 1)
        lo = np.floor(pos).astype(np.int64)
        hi = np.ceil(pos).astype(np.int64)
        frac = pos - lo
        res[cs[starts]] = vs[starts + lo] * (1 - frac) + vs[starts + hi] * frac
        return res
    if method == "mode":
        order = np.lexsort((vv, cid))
        cs, vs = cid[order], vv[order]
        newrun = np.r_[True, (cs[1:] != cs[:-1]) | (vs[1:] != vs[:-1])]
        rstart = np.flatnonzero(newrun)
        rlen = np.diff(np.r_[rstart, len(cs)])
        rcell, rval = cs[rstart], vs[rstart]
        best = np.zeros(n_cells, dtype=np.int64)
        np.maximum.at(best, rcell, rlen)
        is_best = rlen == best[rcell]
        acc = np.full(n_cells, np.inf)
        np.minimum.at(acc, rcell[is_best], rval[is_best])  # tie -> smallest value
        ok = np.isfinite(acc)
        res[ok] = acc[ok]
        return res
    raise ValueError(f"unknown reduction: {method}")


def _warp_reduction(a3, source, target, method: str, fill_value, rowf, colf):
    """Footprint reduction: forward-map every SOURCE pixel center into its
    containing target cell (floor rule, epsilon-nudged against float noise
    on exactly aligned grids), then group-reduce per cell. Target cells no
    source center lands in (sub-pixel footprints / upscale) fall back to
    the nearest kernel, matching GDAL's behavior of using the single
    overlapping pixel; cells outside the source stay fill."""
    th, tw = target.shape
    b = a3.shape[0]
    sx, sy = source.xy()
    if not crs_equal(source.crs, target.crs):
        sx, sy = transform_xy(sx, sy, source.crs, target.crs)
    tc = (sx - target.x_origin) / target.cell_width
    tr = (sy - target.y_origin) / target.cell_height
    fin = np.isfinite(tc) & np.isfinite(tr)
    c = np.floor(np.where(fin, tc, -1) + 1e-9).astype(np.int64)
    r = np.floor(np.where(fin, tr, -1) + 1e-9).astype(np.int64)
    inside = fin & (r >= 0) & (r < th) & (c >= 0) & (c < tw)
    cell = (r * tw + c)[inside]
    n_cells = th * tw
    touched = np.zeros(n_cells, dtype=bool)
    touched[cell] = True
    flat = a3.reshape(b, -1)[:, inside.ravel()].astype(np.float64)
    out = np.empty((b, n_cells))
    for bi in range(b):
        v = flat[bi]
        fmask = np.isfinite(v)
        out[bi] = _grouped_reduce(cell[fmask], v[fmask], n_cells, method)
    out = out.reshape(b, th, tw)
    untouched = ~touched.reshape(th, tw)
    if untouched.any():
        nw = _warp_nearest(a3, rowf, colf, (th, tw), fill_value)
        out[:, untouched] = nw[:, untouched]
    if not (isinstance(fill_value, float) and np.isnan(fill_value)):
        out[~np.isfinite(out)] = fill_value
    return out


def warp_array(
    arr: np.ndarray,
    source: GridSpec,
    target: GridSpec,
    method: str = "nearest",
    fill_value: float = np.nan,
) -> np.ndarray:
    """Warp one 2D ``(rows, cols)`` or 3D ``(bands, rows, cols)`` array onto
    ``target`` with any of the reference's 13 methods (constants.py:13-27).
    Interpolating kernels are inverse-mapping; reductions are forward-
    mapping group-reduces (see ``_warp_reduction``). Returns float64 with
    the input's dimensionality."""
    method = resolve_method(method)
    squeeze = arr.ndim == 2
    a3 = arr[None] if squeeze else arr
    if a3.ndim != 3:
        raise ValueError(f"expected 2D or 3D array, got shape {arr.shape}")
    rowf, colf = _source_fractional_indices(target, source)

    if method == "nearest":
        out = _warp_nearest(a3, rowf, colf, target.shape, fill_value)
    elif method in _SEPARABLE:
        kfunc, radius = _SEPARABLE[method]
        out = _warp_separable(a3, rowf, colf, target.shape, fill_value, kfunc, radius)
    elif method == "gauss":
        # scale-adaptive Gaussian: sigma ~ half the downscale factor per
        # axis (>= 0.6 so upscales still smooth over the 4-neighborhood),
        # truncated at 2 sigma, window radius capped at 4
        fy, fx = _scale_factors(rowf, colf)
        sy = max(0.6, fy / 2.0)
        sx = max(0.6, fx / 2.0)
        radius = int(min(4, max(1, np.ceil(2.0 * max(sy, sx)))))
        gk = lambda t: np.exp(-0.5 * t * t)  # noqa: E731
        out = _warp_separable(
            a3, rowf, colf, target.shape, fill_value, gk, radius, sy=sy, sx=sx
        )
    elif method in REDUCTION_METHODS:
        out = _warp_reduction(a3, source, target, method, fill_value, rowf, colf)
    else:  # pragma: no cover - resolve_method already validated
        raise ValueError(f"unknown resampling method: {method}")
    return out[0] if squeeze else out


def resize_array(
    arr: np.ndarray, source: GridSpec, rows: int, cols: int, order: int = 1
) -> Tuple[np.ndarray, GridSpec]:
    """Raster.resize analog (raster.py:1262-1281): same extent, new pixel
    dimensions, skimage-order kernel table (SKIMAGE_ORDERS)."""
    if order not in SKIMAGE_ORDERS:
        raise ValueError(f"resize order must be in {sorted(SKIMAGE_ORDERS)}")
    target = GridSpec(
        crs=source.crs,
        x_origin=source.x_origin,
        y_origin=source.y_origin,
        cell_width=source.cell_width * source.cols / cols,
        cell_height=source.cell_height * source.rows / rows,
        rows=rows,
        cols=cols,
    )
    return warp_array(arr, source, target, SKIMAGE_ORDERS[order]), target


class WarpStage:
    """map_batches stage: warp every image in the batch onto a target grid
    (broadcast as a plain dict — tiny). ``method`` accepts any name from
    the reference's 13-method table (METHOD_TABLE)."""

    def __init__(self, target_dict: Dict, method: str = "nearest", fill_value: float = np.nan):
        self.target = GridSpec.from_dict(target_dict)
        self.method = resolve_method(method)
        self.fill_value = fill_value

    def __call__(self, batch: pa.Table) -> pa.Table:
        grids = batch.column("grid").to_pylist()
        fmts = batch.column("fmt").to_pylist()
        blobs = codec.BlobReader(batch.column("bytes"))  # zero-copy views
        out_blobs = []
        tgt_dict = {k: v for k, v in self.target.to_dict().items() if k != "type"}
        for i in range(batch.num_rows):
            src = GridSpec.from_dict(grids[i])
            arr = codec.decode(blobs[i], fmts[i])
            out = warp_array(arr, src, self.target, self.method, self.fill_value)
            out_blobs.append(codec.encode(out.astype(np.float32), "npy"))
        t = batch.set_column(batch.column_names.index("bytes"), "bytes", pa.array(out_blobs, pa.binary()))
        t = t.set_column(
            t.column_names.index("fmt"), "fmt", pa.array(["npy"] * t.num_rows, pa.string())
        )
        gi = t.column_names.index("grid")
        return t.set_column(gi, "grid", pa.array([tgt_dict] * t.num_rows, t.schema.field(gi).type))


# ---------------------------------------------------------------------------
# kNN resampler (swath <-> grid)
# ---------------------------------------------------------------------------


def _geometry_coords(spec) -> Tuple[np.ndarray, np.ndarray, float]:
    """(x, y, cell_size_meters) in the geometry's own CRS."""
    if isinstance(spec, GridSpec):
        x, y = spec.xy()
        return x.ravel(), y.ravel(), spec.cell_size_meters
    x, y = spec.x.ravel(), spec.y.ravel()
    cell = spec.cell_size()
    from ..proj.crs import is_geographic

    meters = cell / 180.0 * 40075017.0 if is_geographic(spec.crs) else cell
    return x, y, meters


def _spec_from_dict(d: Dict):
    return SwathSpec.from_dict(d) if d.get("type") == "swath" else GridSpec.from_dict(d)


class KNNResampler:
    """Stateful kNN nearest-neighbor resampler between two geometries.

    Index built once per (source, target) pair and cached per instance —
    the KDTree.save/load amortization of the reference (kdtree.py:227-255)
    becomes instance state, with an optional npz spill directory so a
    new worker (or a later run) reloads instead of rebuilding.
    """

    def __init__(self, radius_factor: float = RADIUS_FACTOR, spill_dir: Optional[str] = None):
        self.radius_factor = radius_factor
        self.spill_dir = spill_dir
        self._cache: Dict[tuple, tuple] = {}

    def _spill_path(self, key: tuple) -> Optional[str]:
        if not self.spill_dir:
            return None
        import hashlib
        import os

        h = hashlib.blake2b(repr(key).encode(), digest_size=12).hexdigest()
        os.makedirs(self.spill_dir, exist_ok=True)
        return os.path.join(self.spill_dir, f"knn_{h}.npz")

    def neighbor_info(self, source, target) -> Tuple[np.ndarray, np.ndarray]:
        """(flat source index per target cell, out-of-radius mask)."""
        key = (str(sorted(source.to_dict().items()))[:512], str(sorted(target.to_dict().items()))[:512])
        if key not in self._cache:
            path = self._spill_path(key)
            if path is not None:
                import os

                if os.path.exists(path):
                    z = np.load(path)
                    self._cache[key] = (z["idx"], z["oob"])
                    return self._cache[key]
            sx, sy, s_m = _geometry_coords(source)
            tx, ty, t_m = _geometry_coords(target)
            if not crs_equal(getattr(source, "crs"), getattr(target, "crs")):
                tx, ty = transform_xy(tx, ty, target.crs, source.crs)
            index = GridNNIndex(sx, sy)
            idx, dist = index.query(tx, ty)
            radius_m = self.radius_factor * max(s_m, t_m)
            # distances are in source-CRS units; convert degrees->meters with
            # the reference's equator heuristic when geographic
            from ..proj.crs import is_geographic

            if is_geographic(source.crs):
                dist_m = dist / 180.0 * 40075017.0
            else:
                dist_m = dist
            self._cache[key] = (idx, dist_m > radius_m)
            if path is not None:
                import os

                tmp = path + ".tmp.npz"  # ends in .npz so savez keeps the name
                np.savez(tmp, idx=idx, oob=self._cache[key][1])
                os.replace(tmp, path)
        return self._cache[key]

    def resample(
        self, arr: np.ndarray, source, target, fill_value: float = np.nan
    ) -> np.ndarray:
        """Gather-resample a 2D ``(rows, cols)`` or 3D ``(bands, rows,
        cols)`` array; the band loop of the reference (kdtree.py:257-313)
        is a single vectorized take over the flattened spatial axis."""
        idx, oob = self.neighbor_info(source, target)
        was_bool = arr.dtype == bool
        squeeze = arr.ndim == 2
        a3 = arr[None] if squeeze else arr
        flat = (a3.astype(np.uint16) if was_bool else a3).reshape(a3.shape[0], -1)
        out = flat[:, idx].astype(np.float64)
        out[:, oob] = fill_value
        out = out.reshape((a3.shape[0],) + tuple(target.shape))
        if was_bool:
            out = out.astype(bool)  # bool<->uint16 shim (kdtree.py:293-310)
        return out[0] if squeeze else out


def utm_target_grid(grid: GridSpec, cell_size_m: float) -> GridSpec:
    """Raster.UTM / reproject convenience (raster.py:1878-1915): derive the
    local-UTM target grid covering the source footprint at a metric cell
    size, from the footprint centroid's UTM zone (EPSG form).

    DELIBERATE divergence from the reference: Raster.UTM builds its proj4
    with local_UTM_proj4's zone = floor((lon+180)/6) — missing the +1 of
    the standard UTM zone formula (local_UTM_proj4.py), so the reference
    reprojects into the zone WEST of the correct one for every input. This
    engine uses the geodetically correct EPSG zone (local_UTM_EPSG, +1
    applied); the reference's quirk itself is still reproduced faithfully
    by ``proj.crs.local_UTM_proj4`` for parity tests of that function."""
    from ..grids import bbox as bboxmod
    from ..proj.crs import local_UTM_EPSG

    cx, cy = grid.centroid
    if not crs_equal(grid.crs, "EPSG:4326"):
        lon, lat = transform_xy([cx], [cy], grid.crs, "EPSG:4326")
        cx, cy = float(lon[0]), float(lat[0])
    utm = local_UTM_EPSG(cy, cx)
    box = bboxmod.transform(grid.bbox, grid.crs, utm)
    return GridSpec.from_bbox(box, cell_size_m, crs=utm)


def reproject(images_ds, cell_size_m: float, method: str = "nearest"):
    """Per-image reprojection onto each image's own local-UTM grid.
    Stateless map_batches (target derived per row, not broadcast)."""

    def f(batch: pa.Table) -> pa.Table:
        out_blobs, out_grids = [], []
        grids = batch.column("grid").to_pylist()
        fmts = batch.column("fmt").to_pylist()
        blobs = codec.BlobReader(batch.column("bytes"))  # zero-copy views
        m = resolve_method(method)
        for i in range(batch.num_rows):
            src = GridSpec.from_dict(grids[i])
            tgt = utm_target_grid(src, cell_size_m)
            arr = codec.decode(blobs[i], fmts[i])
            out = warp_array(arr, src, tgt, m)
            out_blobs.append(codec.encode(out.astype(np.float32), "npy"))
            out_grids.append({k: v for k, v in tgt.to_dict().items() if k != "type"})
        t = batch.set_column(
            batch.column_names.index("bytes"), "bytes", pa.array(out_blobs, pa.binary())
        )
        t = t.set_column(
            t.column_names.index("fmt"), "fmt", pa.array(["npy"] * t.num_rows, pa.string())
        )
        gi = t.column_names.index("grid")
        return t.set_column(gi, "grid", pa.array(out_grids, t.schema.field(gi).type))

    return images_ds.map_batches(f, batch_format="pyarrow")


class KNNResampleStage:
    """map_batches stage: rows carry (bytes, fmt, grid); the target
    geometry is a constructor argument."""

    def __init__(self, target_dict: Dict, fill_value: float = np.nan,
                 radius_factor: float = RADIUS_FACTOR):
        self.target = _spec_from_dict(target_dict)
        self.fill = fill_value
        self.resampler = KNNResampler(radius_factor)

    def __call__(self, batch: pa.Table) -> pa.Table:
        grids = batch.column("grid").to_pylist()
        fmts = batch.column("fmt").to_pylist()
        blobs = codec.BlobReader(batch.column("bytes"))  # zero-copy views
        out_blobs = []
        for i in range(batch.num_rows):
            src = _spec_from_dict(dict(grids[i]) | {"type": grids[i].get("type", "grid")})
            arr = codec.decode(blobs[i], fmts[i])
            out = self.resampler.resample(arr, src, self.target, self.fill)
            out_blobs.append(codec.encode(out.astype(np.float32), "npy"))
        t = batch.set_column(
            batch.column_names.index("bytes"), "bytes", pa.array(out_blobs, pa.binary())
        )
        return t.set_column(
            t.column_names.index("fmt"), "fmt", pa.array(["npy"] * t.num_rows, pa.string())
        )


def conservative_overlaps(n_src: int, src_unit: int,
                          n_tgt: int, tgt_unit: int) -> np.ndarray:
    """1-D overlap-length matrix (n_tgt, n_src), int64, between a source
    axis of ``n_src`` cells of ``src_unit`` integer units and a target
    axis of ``n_tgt`` cells of ``tgt_unit`` units sharing the origin:
    ``o[t, s] = max(0, min((s+1)u, (t+1)w) - max(su, tw))`` — the exact
    building block of first-order conservative regridding (the ESMF /
    SCRIP "conservative" method, Jones 1999)."""
    if min(n_src, src_unit, n_tgt, tgt_unit) < 1:
        raise ValueError("conservative_overlaps needs positive sizes")
    s = np.arange(n_src, dtype=np.int64)
    t = np.arange(n_tgt, dtype=np.int64)
    lo = np.maximum(s[None, :] * src_unit, t[:, None] * tgt_unit)
    hi = np.minimum((s[None, :] + 1) * src_unit, (t[:, None] + 1) * tgt_unit)
    return np.maximum(hi - lo, 0)


def conservative_regrid_mass(arr: np.ndarray, src_unit: int,
                             n_tgt_r: int, n_tgt_c: int,
                             tgt_unit: int) -> np.ndarray:
    """First-order conservative regrid, kept integral: returns the
    MASS array ``m[t] = sum_s v[s] * area_overlap(s, t)`` (int64; the
    conservative mean is ``m / tgt_unit^2``, a division the caller can
    defer).  Conservation holds exactly when the grids share the same
    extent: ``m.sum() == arr.sum() * src_unit**2``.  Two small integer
    matmuls — O(px) with the sparse band structure; at scale each tile
    needs only the source rows its target rows overlap (halo width
    < tgt_unit/src_unit + 1 cells)."""
    v = np.asarray(arr)
    if v.ndim != 2:
        raise ValueError("conservative_regrid_mass expects a 2D array")
    if not np.issubdtype(v.dtype, np.integer):
        if not np.all(np.isfinite(v)) or np.any(v != np.rint(v)):
            raise ValueError("conservative_regrid_mass requires integral "
                             "pixels (keep the mass integral)")
    v = v.astype(np.int64)
    orow = conservative_overlaps(v.shape[0], src_unit, n_tgt_r, tgt_unit)
    ocol = conservative_overlaps(v.shape[1], src_unit, n_tgt_c, tgt_unit)
    return orow @ v @ ocol.T
