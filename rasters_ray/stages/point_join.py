"""Point <-> image joins: cell assignment, point sampling, semi/anti.

Re-expresses the reference's geometry lookups as Ray Data join patterns
(SURVEY.md §2.4):

- ``assign_cells``: vectorized point -> tile-key assignment (the broadcast
  join key; RasterGrid.index_point semantics, raster_grid.py:717-735).
- ``sample_points``: the point table is bucketed by cell once on the
  driver and broadcast; stateless tasks read it with ``util.fetch`` and,
  for each image batch, find candidate points via covering cells,
  compute (row, col) via the inverse affine-center rule, decode pixels
  once per image and gather values — the engine's
  ``Raster.open(geometry=MultiPoint)`` / ``to_point``
  (raster.py:670-711, raster.py:1295-1322).
- missed points (no image contains them) become NaN rows through a
  fused anti-join shuffle — the reference's OOB->NaN semantics
  (raster.py:701-703).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from .. import codec
from ..grids import GridSpec, cellkey
from ..proj import transform_xy
from ..util import fetch, hash_parts, map_groups_typed

JOIN_SCHEMA = pa.schema(
    [
        ("point_id", pa.string()),
        ("image_id", pa.string()),
        ("row", pa.int32()),
        ("col", pa.int32()),
        ("value", pa.float64()),
        ("inside", pa.bool_()),
    ]
)


def assign_cells(batch: pa.Table, level: int, x_col: str = "x", y_col: str = "y") -> pa.Table:
    """Add a cell_key column to a point batch (reprojecting any non-WGS84
    rows to the geographic tile space first)."""
    x = batch.column(x_col).to_numpy(zero_copy_only=False).astype(np.float64)
    y = batch.column(y_col).to_numpy(zero_copy_only=False).astype(np.float64)
    if "crs" in batch.column_names:
        crs = np.asarray(batch.column("crs").to_pylist())
        for c in np.unique(crs):
            if c != "EPSG:4326":
                sel = crs == c
                lon, lat = transform_xy(x[sel], y[sel], str(c), "EPSG:4326")
                x[sel] = lon
                y[sel] = lat
    cids = cellkey.cell_ids(level, x, y)
    out = batch.append_column("cell_key", pa.array(cids, pa.int64()))
    out = out.append_column("lon", pa.array(x, pa.float64()))
    out = out.append_column("lat", pa.array(y, pa.float64()))
    return out


class PointBuckets:
    """Broadcastable point lookup: cell_key -> (point_ids, lon, lat).
    Built once on the driver from the (small) point table, ``ray.put`` and
    read by every sampling task through ``util.fetch``."""

    def __init__(self, points: pa.Table, level: int):
        pts = assign_cells(points, level)
        self.level = level
        cid = pts.column("cell_key").to_numpy()
        order = np.argsort(cid, kind="stable")
        self.cell_sorted = cid[order]
        self.ids = np.asarray(pts.column("point_id").to_pylist(), dtype=object)[order]
        self.ids_arrow = pa.array(self.ids.tolist(), pa.string())
        self.lon = pts.column("lon").to_numpy()[order]
        self.lat = pts.column("lat").to_numpy()[order]
        self.n = len(self.ids)

    def lookup(self, cells: np.ndarray) -> np.ndarray:
        """Indices of points whose cell_key is in ``cells``."""
        parts = []
        for cid in np.asarray(cells, dtype=np.int64):
            lo = np.searchsorted(self.cell_sorted, cid, side="left")
            hi = np.searchsorted(self.cell_sorted, cid, side="right")
            if hi > lo:
                parts.append(np.arange(lo, hi))
        if not parts:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(parts)


def sample_points_batch(batch: pa.Table, buckets: PointBuckets, level: int) -> pa.Table:
    """Vectorized end-to-end: per image one decode + one gather; outputs
    assembled as numpy arrays (no per-row Python in the hot path)."""
    grids = batch.column("grid").to_pylist()
    image_ids = batch.column("image_id").to_pylist()
    fmts = batch.column("fmt").to_pylist()
    blobs = codec.BlobReader(batch.column("bytes"))  # zero-copy views

    pid_parts, img_idx_parts, row_parts, col_parts, val_parts = [], [], [], [], []
    for i in range(batch.num_rows):
        grid = GridSpec.from_dict(grids[i])
        cells = cellkey.covering_cells(level, grid.bbox)
        cand = buckets.lookup(cells)
        if cand.size == 0:
            continue
        # native-CRS coordinates of candidate points
        px, py = buckets.lon[cand], buckets.lat[cand]
        if grid.crs != "EPSG:4326":
            px, py = transform_xy(px, py, "EPSG:4326", grid.crs)
        rows, cols = grid.index_points(px, py)
        inside = grid.contains_rowcol(rows, cols)
        if not inside.any():
            continue
        arr = codec.decode(blobs[i], fmts[i])
        sel = np.nonzero(inside)[0]
        r_in = rows[sel]
        c_in = cols[sel]
        pid_parts.append(cand[sel])
        img_idx_parts.append(np.full(sel.size, i, dtype=np.int32))
        row_parts.append(r_in.astype(np.int32))
        col_parts.append(c_in.astype(np.int32))
        val_parts.append(arr[r_in, c_in].astype(np.float64))
    if not pid_parts:
        return JOIN_SCHEMA.empty_table()
    cand_all = np.concatenate(pid_parts)
    img_idx = np.concatenate(img_idx_parts)
    n = cand_all.size
    # dictionary-style assembly: take from the small id arrays
    point_ids = buckets.ids_arrow.take(pa.array(cand_all))
    image_id_arr = pa.array(image_ids, pa.string()).take(pa.array(img_idx))
    return pa.Table.from_arrays(
        [
            point_ids,
            image_id_arr,
            pa.array(np.concatenate(row_parts), pa.int32()),
            pa.array(np.concatenate(col_parts), pa.int32()),
            pa.array(np.concatenate(val_parts), pa.float64()),
            pa.array(np.ones(n, dtype=bool), pa.bool_()),
        ],
        schema=JOIN_SCHEMA,
    )


def sample_points(
    images_ds,
    points: pa.Table,
    level: int = 8,
    include_misses: bool = True,
    batch_size: int = 64,
):
    """Dataset[images] x points table -> Dataset[join rows].

    The point table is the small side: bucketed once on the driver,
    ``ray.put`` once, and read by stateless tasks through ``util.fetch``
    (deserialized once per worker). Misses (points no image contains)
    are appended as NaN rows (raster.py:701-703 semantics).
    """
    import ray
    import ray.data as rd

    buckets = PointBuckets(points, level)
    ref = ray.put(buckets)

    def sample(batch: pa.Table) -> pa.Table:
        return sample_points_batch(batch, fetch(ref), level)

    matched = images_ds.map_batches(sample, batch_format="pyarrow", batch_size=batch_size)
    if not include_misses:
        return matched

    # anti-join FUSED into one shuffle: union(matched rows, one marker row
    # per point) -> groupby(hash partition of point_id). Inside each
    # partition (vectorized, no per-key Python) the matched rows pass
    # through unchanged and markers whose point_id never matched emit the
    # NaN miss row (raster.py:701-703 semantics). The sampling stage
    # executes exactly ONCE, nothing is materialized, and no id set ever
    # reaches the driver — the distributed form of a left-anti join
    # (relational/joins.py machinery, specialised so the matched stream is
    # consumed a single time).
    import pyarrow.compute as pc

    n_pts = points.num_rows
    marker = pa.Table.from_arrays(
        [
            points.column("point_id").cast(pa.string()).combine_chunks(),
            pa.nulls(n_pts, pa.string()),
            pa.nulls(n_pts, pa.int32()),
            pa.nulls(n_pts, pa.int32()),
            pa.nulls(n_pts, pa.float64()),
            pa.nulls(n_pts, pa.bool_()),  # inside NULL marks a marker row
        ],
        schema=JOIN_SCHEMA,
    )
    n_parts = 64

    def tag(t: pa.Table) -> pa.Table:
        return t.append_column(
            "_jp", pa.array(hash_parts(t.column("point_id"), n_parts), pa.int64())
        )

    union = matched.map_batches(tag, batch_format="pyarrow").union(
        rd.from_arrow(marker).map_batches(tag, batch_format="pyarrow")
    )

    def finish(part: pa.Table) -> pa.Table:
        part = part.drop_columns(["_jp"])
        valid = pc.is_valid(part.column("inside"))
        real = part.filter(valid)
        markers = part.filter(pc.invert(valid))
        if markers.num_rows == 0:
            return real
        miss_ids = markers.column("point_id")
        if real.num_rows:
            matched_ids = pc.unique(real.column("point_id"))
            miss_ids = markers.filter(
                pc.invert(pc.is_in(markers.column("point_id"), value_set=matched_ids))
            ).column("point_id")
        n_miss = len(miss_ids)
        miss_tbl = pa.Table.from_arrays(
            [
                miss_ids.combine_chunks() if isinstance(miss_ids, pa.ChunkedArray) else miss_ids,
                pa.nulls(n_miss, pa.string()),
                pa.nulls(n_miss, pa.int32()),
                pa.nulls(n_miss, pa.int32()),
                pa.array(np.full(n_miss, np.nan), pa.float64()),
                pa.array(np.zeros(n_miss, dtype=bool), pa.bool_()),
            ],
            schema=JOIN_SCHEMA,
        )
        return pa.concat_tables([real, miss_tbl])

    return map_groups_typed(union, "_jp", finish, JOIN_SCHEMA)
