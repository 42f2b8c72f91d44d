"""Point <-> image joins: cell assignment, point sampling, semi/anti.

Re-expresses the reference's geometry lookups as Ray Data join patterns
(SURVEY.md §2.4):

- ``assign_cells``: vectorized point -> tile-key assignment (the broadcast
  join key; RasterGrid.index_point semantics, raster_grid.py:717-735).
- ``sample_points``: the point table is bucketed by cell once on the
  driver (``PointBuckets``, built with Arrow and numpy) and broadcast;
  stateless tasks read it with ``util.fetch`` and join each image batch
  in one array pass (``sample_points_batch``): the covering cells of
  every image, the candidate points of every cell, the CRS transform
  once per distinct image CRS, (row, col) by the inverse affine-center
  rule and the inside mask over all candidates at once.  Python touches
  only the images with hits, to decode each once and gather its values
  — the engine's ``Raster.open(geometry=MultiPoint)`` / ``to_point``
  (raster.py:670-711, raster.py:1295-1322).
- missed points (no image contains them) become NaN rows — the
  reference's OOB->NaN semantics (raster.py:701-703).  Over images Ray
  knows to be empty (``util.known_rows``), every point is a miss row of
  one in-memory block and no plan runs.  On one cluster CPU, over images
  Ray knows to have rows, the sampling and the anti-join are ONE task:
  a gather over every image block samples zero-copy slices and emits
  the points no slice hit.  Otherwise the matched rows and the point
  ids meet in one anti-join exchange that co-groups them
  (``util.exchange``, one part per CPU).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .. import codec
from ..grids import cellkey
from ..grids.covering import covering_rows, ragged
from ..grids.windows import point_cells
from ..proj import parse_crs, transform_xy
from ..util import GATHER_ROWS, cluster_cpus, exchange, fetch, known_rows

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
    rows to the geographic tile space first, once per distinct CRS)."""
    x = batch.column(x_col).to_numpy(zero_copy_only=False).astype(np.float64)
    y = batch.column(y_col).to_numpy(zero_copy_only=False).astype(np.float64)
    if "crs" in batch.column_names:
        crs = batch.column("crs")
        for c in pc.unique(crs).to_pylist():
            if c != "EPSG:4326":
                sel = pc.equal(crs, c).to_numpy(zero_copy_only=False)
                x[sel], y[sel] = transform_xy(x[sel], y[sel], str(c), "EPSG:4326")
    cids = cellkey.cell_ids(level, x, y)
    out = batch.append_column("cell_key", pa.array(cids, pa.int64()))
    out = out.append_column("lon", pa.array(x, pa.float64()))
    out = out.append_column("lat", pa.array(y, pa.float64()))
    return out


class PointBuckets:
    """Broadcastable point lookup: cell_key -> (point_ids, lon, lat).
    Built once on the driver from the (small) point table, ``ray.put`` and
    read by every sampling task through ``util.fetch``.  Points are sorted
    by cell key (stable), so the points of one cell are one slice.

    A point id names one point: a repeated ``point_id`` raises
    ValueError, since a miss row is found by id."""

    def __init__(self, points: pa.Table, level: int):
        ids = points.column("point_id").cast(pa.string()).combine_chunks()
        if len(pc.unique(ids)) < len(ids):
            seen = set()
            for v in ids.to_pylist():
                if v in seen:
                    raise ValueError(f"point_id must be unique, {v!r} repeats")
                seen.add(v)
        pts = assign_cells(points, level)
        self.level = level
        cid = pts.column("cell_key").to_numpy()
        order = np.argsort(cid, kind="stable")
        self.cell_sorted = cid[order]
        self.ids_arrow = ids.take(pa.array(order))
        self.lon = pts.column("lon").to_numpy()[order]
        self.lat = pts.column("lat").to_numpy()[order]
        self.n = len(order)

    def slices(self, cells: np.ndarray):
        """(lo, count) of the sorted points in each of ``cells``."""
        lo = np.searchsorted(self.cell_sorted, cells, side="left")
        hi = np.searchsorted(self.cell_sorted, cells, side="right")
        return lo, hi - lo

    def lookup(self, cells: np.ndarray) -> np.ndarray:
        """Indices of points whose cell_key is in ``cells``, cell by cell
        in the order of ``cells``."""
        lo, cnt = self.slices(np.asarray(cells, dtype=np.int64))
        k, o = ragged(cnt)
        return lo[k] + o


def _boundary_bbox(x0, y0, cw, ch, rows, cols, crs: str) -> tuple:
    """EPSG:4326 (xmin, ymin, xmax, ymax) arrays of grids in ``crs``: the
    bbox of each grid's boundary pixel corners, transformed in one call.
    ``minimum``/``maximum`` keep NaN, so a corner with no geographic
    position makes its grid's bbox non-finite."""
    nx, ny = cols + 1, rows + 1
    counts = 2 * (nx + ny)
    img, k = ragged(counts)
    nx, ny, k2 = nx[img], ny[img], k - 2 * nx[img]
    # top then bottom edge (k < 2 nx), then left then right edge
    side = k2 >= 0
    j = np.where(side, np.where(k2 < ny, 0, cols[img]), k % nx)
    i = np.where(side, k2 % ny, np.where(k < nx, 0, rows[img]))
    lon, lat = transform_xy(x0[img] + cw[img] * j, y0[img] + ch[img] * i, crs, "EPSG:4326")
    starts = np.cumsum(counts) - counts
    return (np.minimum.reduceat(lon, starts), np.minimum.reduceat(lat, starts),
            np.maximum.reduceat(lon, starts), np.maximum.reduceat(lat, starts))


def sample_points_batch(batch: pa.Table, buckets: PointBuckets, level: int) -> pa.Table:
    """Join one image batch to the point buckets in one array pass.

    Per image, the bbox of cell corners (``GridSpec.bbox``) comes from the
    ``grid`` struct columns (for a projected grid, the EPSG:4326 bbox of
    its boundary's pixel corners, one transform per distinct CRS), and
    ``grids.covering.covering_rows`` expands the covering cells to (image,
    cell) rows in the iy-major, ix-fastest order of
    ``cellkey.covering_cells``.  One ``searchsorted`` pair finds
    each cell's slice of the sorted points, and a second ragged expansion
    (``grids.covering.ragged``) gives (image, candidate) rows.  The
    candidates move to each image's CRS once per distinct CRS, then one
    ``grids.windows.point_cells`` call (the inverse affine-center rule of
    ``GridSpec.index_points``) and one inside mask keep the hits.  Python
    loops only over the images with hits, decoding each once to gather
    its values.  Rows come out image by image, candidates in lookup
    order: the order of a per-image loop."""
    if batch.num_rows == 0:
        return JOIN_SCHEMA.empty_table()
    grid = batch.column("grid")

    def gf(name, dtype):
        return pc.struct_field(grid, name).to_numpy(zero_copy_only=False).astype(dtype)

    x0 = gf("x_origin", np.float64)
    y0 = gf("y_origin", np.float64)
    cw = gf("cell_width", np.float64)
    ch = gf("cell_height", np.float64)
    rows = gf("rows", np.int64)
    cols = gf("cols", np.int64)
    if (cw <= 0).any() or (ch >= 0).any():
        raise ValueError("grid cell_width must be positive and cell_height negative")

    # per-image bbox of cell corners (GridSpec.bbox)
    ex = x0 + cw * cols
    ey = y0 + ch * rows
    xmin = np.minimum(x0, ex)
    xmax = np.maximum(x0, ex)
    ymin = np.minimum(y0, ey)
    ymax = np.maximum(y0, ey)
    crs = pc.struct_field(grid, "crs")
    for code in pc.unique(crs).to_pylist():
        if parse_crs(code).kind != "geographic":
            sel = np.flatnonzero(pc.equal(crs, code).to_numpy(zero_copy_only=False))
            xmin[sel], ymin[sel], xmax[sel], ymax[sel] = _boundary_bbox(
                x0[sel], y0[sel], cw[sel], ch[sel], rows[sel], cols[sel], code)
    bad = ~np.isfinite(np.stack([xmin, ymin, xmax, ymax])).all(axis=0)
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        box = (float(xmin[i]), float(ymin[i]), float(xmax[i]), float(ymax[i]))
        raise ValueError(f"covering_cells needs a finite bbox, got {box}")

    # (image, cell) rows, then (image, candidate point) rows
    img, ix, iy = covering_rows(level, xmin, ymin, xmax, ymax)
    cid = (np.int64(level) << np.int64(56)) | (iy << np.int64(28)) | ix
    lo, cnt = buckets.slices(cid)
    cell, o = ragged(cnt)
    cand = lo[cell] + o
    cimg = img[cell]

    # candidates in each image's native CRS
    px = buckets.lon[cand]
    py = buckets.lat[cand]
    for code in pc.unique(crs).to_pylist():
        if code != "EPSG:4326":
            sel = pc.equal(crs, code).to_numpy(zero_copy_only=False)[cimg]
            if sel.any():
                px[sel], py[sel] = transform_xy(px[sel], py[sel], "EPSG:4326", code)

    r, c = point_cells(x0[cimg], y0[cimg], cw[cimg], ch[cimg], px, py)
    hit = np.flatnonzero((r >= 0) & (r < rows[cimg]) & (c >= 0) & (c < cols[cimg]))
    if hit.size == 0:
        return JOIN_SCHEMA.empty_table()
    h_img = cimg[hit]
    r = r[hit]
    c = c[hit]

    # one decode per image with hits; hits arrive image by image
    values = np.empty(hit.size, dtype=np.float64)
    blobs = codec.BlobReader(batch.column("bytes"))  # zero-copy views
    fmts = batch.column("fmt").to_pylist()
    cuts = np.flatnonzero(np.r_[True, h_img[1:] != h_img[:-1], True]).tolist()
    for s, e in zip(cuts[:-1], cuts[1:]):
        i = int(h_img[s])
        values[s:e] = codec.decode(blobs[i], fmts[i])[r[s:e], c[s:e]]

    return pa.Table.from_arrays(
        [
            buckets.ids_arrow.take(pa.array(cand[hit])),
            batch.column("image_id").take(pa.array(h_img)).combine_chunks().cast(pa.string()),
            pa.array(r.astype(np.int32), pa.int32()),
            pa.array(c.astype(np.int32), pa.int32()),
            pa.array(values, pa.float64()),
            pa.array(np.ones(hit.size, dtype=bool), pa.bool_()),
        ],
        schema=JOIN_SCHEMA,
    )


def with_misses(matched: pa.Table, ids) -> pa.Table:
    """``matched`` join rows plus one NaN miss row (raster.py:701-703
    semantics) for each point id of ``ids`` that no matched row has:
    the left-anti join of both ``sample_points`` plans, vectorized."""
    if matched.num_rows:
        ids = ids.filter(pc.invert(pc.is_in(ids, value_set=pc.unique(matched.column("point_id")))))
    if isinstance(ids, pa.ChunkedArray):
        ids = ids.combine_chunks()
    n = len(ids)
    misses = pa.Table.from_arrays(
        [
            ids,
            pa.nulls(n, pa.string()),
            pa.nulls(n, pa.int32()),
            pa.nulls(n, pa.int32()),
            pa.array(np.full(n, np.nan), pa.float64()),
            pa.array(np.zeros(n, dtype=bool), pa.bool_()),
        ],
        schema=JOIN_SCHEMA,
    )
    return pa.concat_tables([matched, misses])


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

    With misses, the plan follows what Ray knows of the images without
    executing anything (``util.known_rows``) and the cluster's CPU count
    (the figure ``util.exchange`` reads).  Images known to have no rows
    give one in-memory block of miss rows, with no task.  On one CPU,
    over images known to have rows (a parquet read or an in-memory
    table), the plan is one task after the input: that task takes every
    image block (zero-copy), samples it in ``batch_size``-image slices,
    so decoding holds no more than a batch at a time, and appends the
    misses from the broadcast point index.  Its input is every image's
    bytes, where a gather of matched rows would take only the rows; no
    byte bound caps it yet.  Over images of unknown count (a filtered
    read, a map's output), and on n > 1 CPUs, ``batch_size``-image
    tasks sample in parallel and the anti-join is one exchange on
    ``point_id``.
    """
    import ray
    import ray.data as rd

    buckets = PointBuckets(points, level)
    rows = known_rows(images_ds) if include_misses else None
    if rows == 0:
        # no image at all, and Ray knows it: every point is a miss, and
        # no plan runs
        return rd.from_blocks([with_misses(JOIN_SCHEMA.empty_table(), buckets.ids_arrow)])
    ref = ray.put(buckets)

    if rows and cluster_cpus() == 1:
        def sample_gather(images: pa.Table) -> pa.Table:
            b = fetch(ref)
            matched = [sample_points_batch(images.slice(s, batch_size), b, level)
                       for s in range(0, images.num_rows, batch_size)]
            return with_misses(pa.concat_tables([JOIN_SCHEMA.empty_table(), *matched]),
                               b.ids_arrow)

        # One gather task, like ``util.exchange``'s on one CPU; Ray
        # vouches that the images have rows, so the task runs.
        return images_ds.map_batches(
            sample_gather, batch_size=GATHER_ROWS, concurrency=1, zero_copy_batch=True,
            batch_format="pyarrow")

    def sample(batch: pa.Table) -> pa.Table:
        return sample_points_batch(batch, fetch(ref), level)

    # zero-copy batches: the kernel only reads Arrow
    matched = images_ds.map_batches(sample, batch_format="pyarrow", batch_size=batch_size,
                                    zero_copy_batch=True)
    if not include_misses:
        return matched

    # The anti-join FUSED into one exchange that co-groups the matched
    # rows and the point ids on point_id, one part per CPU (one gather
    # task on one CPU).  Inside each part (vectorized, no per-key
    # Python) the matched rows pass through unchanged and each point id
    # that never matched emits the NaN miss row; where no image matched
    # at all, the matched side is None.  The sampling stage executes
    # exactly ONCE, nothing is materialized, and no id set ever reaches
    # the driver — the distributed form of a left-anti join,
    # specialised so the matched stream is consumed a single time.
    ids = pa.table({"point_id": buckets.ids_arrow})

    def finish(matched: pa.Table, ids: pa.Table) -> pa.Table:
        return with_misses(JOIN_SCHEMA.empty_table() if matched is None else matched,
                           ids.column("point_id"))

    return exchange([matched, rd.from_blocks([ids])], "point_id", finish)
