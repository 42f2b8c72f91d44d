"""Point-in-polygon joins and rasterization.

Re-expresses the reference's ``RasterGrid.rasterize`` / ``mask``
(raster_grid.py:936-1012) and polygon lookups without rasterio/shapely:

- ``point_in_rings``: vectorized even-odd ray casting of a point batch
  against one polygon (exterior ring + holes) — the exact test behind the
  reference default ``all_touched=False`` (cell-CENTER containment,
  raster_grid.py:941).
- ``pip_join``: the north-rule join: polygons broadcast once
  (``ray.put``: ring arrays + an STR R-tree over their bboxes, read by
  each task with ``util.fetch``), point batches probe the tree for
  candidates, exact PIP only on candidates.  Inner/semi/anti outputs.
- ``rasterize_mask``: polygon set -> boolean cell mask on a GridSpec
  (geometry_mask's ``invert`` knob included, raster_grid.py:986-1012).
"""

from __future__ import annotations

from typing import List

import numpy as np
import pyarrow as pa

from ..grids import GridSpec, OutOfBoundsError
from ..sources.vectors import rings_to_numpy
from ..state.gridindex import GridNNIndex
from ..state.rtree import STRtree
from ..util import fetch

PIP_SCHEMA = pa.schema(
    [
        ("point_id", pa.string()),
        ("poly_id", pa.string()),
        ("inside", pa.bool_()),
    ]
)


def point_in_ring(px: np.ndarray, py: np.ndarray, ring: np.ndarray) -> np.ndarray:
    """Even-odd crossing count for one ring ((k,2) closed or open)."""
    x1 = ring[:-1, 0]
    y1 = ring[:-1, 1]
    x2 = ring[1:, 0]
    y2 = ring[1:, 1]
    if ring[0, 0] != ring[-1, 0] or ring[0, 1] != ring[-1, 1]:
        x1 = np.append(x1, ring[-1, 0])
        y1 = np.append(y1, ring[-1, 1])
        x2 = np.append(x2, ring[0, 0])
        y2 = np.append(y2, ring[0, 1])
    px = px[:, None]
    py = py[:, None]
    cond = (y1[None, :] > py) != (y2[None, :] > py)
    with np.errstate(invalid="ignore", divide="ignore"):
        xint = x1[None, :] + (py - y1[None, :]) * (x2 - x1)[None, :] / (y2 - y1)[None, :]
    crossing = cond & (px < xint)
    return crossing.sum(axis=1) % 2 == 1


def point_in_rings(px: np.ndarray, py: np.ndarray, rings: List[np.ndarray]) -> np.ndarray:
    """Even-odd over all rings: exterior minus holes."""
    acc = np.zeros(len(px), dtype=np.int64)
    for ring in rings:
        acc += point_in_ring(px, py, ring)
    return acc % 2 == 1


class PolygonSet:
    """Broadcastable polygon state: ring arrays + STRtree over bboxes."""

    def __init__(self, polygons: pa.Table):
        self.ids: List[str] = polygons.column("poly_id").to_pylist()
        self.rings: List[List[np.ndarray]] = [
            rings_to_numpy(v) for v in polygons.column("rings").to_pylist()
        ]
        boxes = np.array(
            [
                (
                    min(r[:, 0].min() for r in rs),
                    min(r[:, 1].min() for r in rs),
                    max(r[:, 0].max() for r in rs),
                    max(r[:, 1].max() for r in rs),
                )
                for rs in self.rings
            ]
        ).reshape(-1, 4)
        self.tree = STRtree(boxes)

    def test_points(self, px: np.ndarray, py: np.ndarray):
        """(point_idx, poly_idx) arrays of exact containment pairs."""
        qi, bi = self.tree.query_points(px, py)
        if qi.size == 0:
            return qi, bi
        keep_q, keep_b = [], []
        for poly in np.unique(bi):
            sel = bi == poly
            pts = qi[sel]
            ok = point_in_rings(px[pts], py[pts], self.rings[int(poly)])
            keep_q.append(pts[ok])
            keep_b.append(np.full(int(ok.sum()), poly, dtype=np.int64))
        return np.concatenate(keep_q), np.concatenate(keep_b)


def pip_join_batch(batch: pa.Table, polys: PolygonSet, mode: str) -> pa.Table:
    """Point batch -> (point_id, poly_id, inside) rows.  mode='inner' emits
    containment pairs; 'semi' emits each matched point once; 'anti' emits
    unmatched points (poly_id null)."""
    px = batch.column("x").to_numpy(zero_copy_only=False).astype(np.float64)
    py = batch.column("y").to_numpy(zero_copy_only=False).astype(np.float64)
    ids = np.asarray(batch.column("point_id").to_pylist(), dtype=object)
    qi, bi = polys.test_points(px, py)
    if mode == "inner":
        return pa.table(
            {
                "point_id": pa.array(ids[qi].tolist(), pa.string()),
                "poly_id": pa.array([polys.ids[int(b)] for b in bi], pa.string()),
                "inside": pa.array([True] * len(qi), pa.bool_()),
            }
        )
    matched = np.zeros(len(ids), dtype=bool)
    matched[qi] = True
    sel = matched if mode == "semi" else ~matched
    n = int(sel.sum())
    return pa.table(
        {
            "point_id": pa.array(ids[sel].tolist(), pa.string()),
            "poly_id": pa.array([None] * n, pa.string()),
            "inside": pa.array([mode == "semi"] * n, pa.bool_()),
        }
    )


def pip_join(points_ds, polygons: pa.Table, mode: str = "inner"):
    """Dataset[points] x polygon table -> Dataset[pip rows] (broadcast join)."""
    import ray

    ref = ray.put(PolygonSet(polygons))
    return points_ds.map_batches(
        lambda b: pip_join_batch(b, fetch(ref), mode), batch_format="pyarrow"
    )


def segment_cells(grid: GridSpec, x1: float, y1: float, x2: float, y2: float):
    """All (row, col) cells one segment passes through (supercover grid
    traversal): crossing parameters at every cell boundary between the
    endpoints split the segment; the cell of each sub-segment midpoint is
    touched. Vectorized per segment."""
    c1 = (x1 - grid.x_origin) / grid.cell_width
    c2 = (x2 - grid.x_origin) / grid.cell_width
    r1 = (y1 - grid.y_origin) / grid.cell_height
    r2 = (y2 - grid.y_origin) / grid.cell_height
    ts = [np.array([0.0, 1.0])]
    if c2 != c1:
        lo, hi = (c1, c2) if c1 < c2 else (c2, c1)
        ks = np.arange(np.ceil(lo), np.floor(hi) + 1)
        ts.append((ks - c1) / (c2 - c1))
    if r2 != r1:
        lo, hi = (r1, r2) if r1 < r2 else (r2, r1)
        ks = np.arange(np.ceil(lo), np.floor(hi) + 1)
        ts.append((ks - r1) / (r2 - r1))
    t = np.unique(np.clip(np.concatenate(ts), 0.0, 1.0))
    mids = (t[:-1] + t[1:]) / 2.0
    cc = np.floor(c1 + mids * (c2 - c1)).astype(np.int64)
    rr = np.floor(r1 + mids * (r2 - r1)).astype(np.int64)
    ok = (rr >= 0) & (rr < grid.rows) & (cc >= 0) & (cc < grid.cols)
    return rr[ok], cc[ok]


def rasterize_mask(
    grid: GridSpec,
    polygons: pa.Table,
    invert: bool = False,
    all_touched: bool = False,
) -> np.ndarray:
    """Polygon set -> boolean mask of grid cells.

    ``all_touched=False`` (default): cells whose CENTER is inside any
    polygon (raster_grid.py:941 / rasterio default). ``all_touched=True``:
    every cell the geometry touches — the center-inside interior UNION the
    supercover cells of every ring edge (GDAL all_touched semantics,
    raster_grid.py:936-984; hole boundaries are polygon boundary, so their
    edge cells count as touched too)."""
    polyset = PolygonSet(polygons)
    mask = np.zeros(grid.shape, dtype=bool)
    for pi, rings in enumerate(polyset.rings):
        box = polyset.tree.boxes[pi]
        try:
            win = grid.window((box[0], box[1], box[2], box[3]), buffer=1)
        except OutOfBoundsError:
            continue
        if win.width <= 0 or win.height <= 0:
            continue
        sub = grid.subset(win)
        cx, cy = sub.xy()
        inside = point_in_rings(cx.ravel(), cy.ravel(), rings)
        rs, cs = win.toslices()
        mask[rs, cs] |= inside.reshape(sub.shape)
        if all_touched:
            for ring in rings:
                xs, ys = ring[:, 0], ring[:, 1]
                if xs[0] != xs[-1] or ys[0] != ys[-1]:
                    xs = np.append(xs, xs[0])
                    ys = np.append(ys, ys[0])
                for k in range(len(xs) - 1):
                    rr, cc = segment_cells(grid, xs[k], ys[k], xs[k + 1], ys[k + 1])
                    mask[rr, cc] = True
    return ~mask if invert else mask


def rasterize_lines(grid: GridSpec, lines: pa.Table,
                    column: str = "paths") -> np.ndarray:
    """Polyline set -> boolean mask of every cell a path passes through
    (GDAL line-burn / all_touched semantics, the roads-and-rivers
    counterpart of ``rasterize_mask``; reference rasterizes any fiona
    geometry through rasterio.features, raster_grid.py:936-984).
    Consumes the engine's ``paths`` vector schema — what
    ``read_shapefile`` yields for PolyLine files — via the same
    supercover ``segment_cells`` traversal the polygon edge burn uses."""
    from ..sources.vectors import rings_to_numpy

    mask = np.zeros(grid.shape, dtype=bool)
    for paths_v in lines.column(column).to_pylist():
        for pts in rings_to_numpy(paths_v):
            for k in range(len(pts) - 1):
                rr, cc = segment_cells(grid, pts[k, 0], pts[k, 1],
                                       pts[k + 1, 0], pts[k + 1, 1])
                mask[rr, cc] = True
    return mask


# ---------------------------------------------------------------------------
# polygon-polygon intersects join
# ---------------------------------------------------------------------------

def _edges(rings: List[np.ndarray]) -> np.ndarray:
    """Ring list -> (n, 4) array of segments (x0, y0, x1, y1); the
    closing edge is implied when a ring is stored open."""
    segs = []
    for r in rings:
        p = r if np.array_equal(r[0], r[-1]) else np.vstack([r, r[:1]])
        segs.append(np.hstack([p[:-1], p[1:]]))
    return np.vstack(segs)


def _segments_intersect(a: np.ndarray, b: np.ndarray) -> bool:
    """True when ANY segment of a crosses/touches ANY segment of b —
    the classic orientation test, broadcast over all pairs at once
    (na x nb), including collinear-touch via on-segment checks."""
    a0x = a[:, None, 0]; a0y = a[:, None, 1]
    a1x = a[:, None, 2]; a1y = a[:, None, 3]
    b0x = b[None, :, 0]; b0y = b[None, :, 1]
    b1x = b[None, :, 2]; b1y = b[None, :, 3]
    d1 = (b1x - b0x) * (a0y - b0y) - (b1y - b0y) * (a0x - b0x)
    d2 = (b1x - b0x) * (a1y - b0y) - (b1y - b0y) * (a1x - b0x)
    d3 = (a1x - a0x) * (b0y - a0y) - (a1y - a0y) * (b0x - a0x)
    d4 = (a1x - a0x) * (b1y - a0y) - (a1y - a0y) * (b1x - a0x)
    proper = (((d1 > 0) & (d2 < 0)) | ((d1 < 0) & (d2 > 0))) & \
             (((d3 > 0) & (d4 < 0)) | ((d3 < 0) & (d4 > 0)))
    if proper.any():
        return True

    def on_seg(px, py, sx0, sy0, sx1, sy1):
        return ((np.minimum(sx0, sx1) <= px) & (px <= np.maximum(sx0, sx1))
                & (np.minimum(sy0, sy1) <= py) & (py <= np.maximum(sy0, sy1)))

    touch = ((d1 == 0) & on_seg(a0x, a0y, b0x, b0y, b1x, b1y)) | \
            ((d2 == 0) & on_seg(a1x, a1y, b0x, b0y, b1x, b1y)) | \
            ((d3 == 0) & on_seg(b0x, b0y, a0x, a0y, a1x, a1y)) | \
            ((d4 == 0) & on_seg(b1x, b1y, a0x, a0y, a1x, a1y))
    return bool(touch.any())


def polygons_intersect(rings_a: List[np.ndarray],
                       rings_b: List[np.ndarray]) -> bool:
    """GEOS ``intersects`` semantics for two even-odd polygons
    (touching counts; a feature fully inside the other's HOLE does
    not): vertex containment both ways, then the all-pairs edge test.
    Ring sizes in this engine are feature-scale (tens of vertices), so
    the broadcast edge matrix stays small."""
    va = np.vstack(rings_a)
    if point_in_rings(va[:, 0], va[:, 1], rings_b).any():
        return True
    vb = np.vstack(rings_b)
    if point_in_rings(vb[:, 0], vb[:, 1], rings_a).any():
        return True
    return _segments_intersect(_edges(rings_a), _edges(rings_b))


def polygon_join_batch(batch: pa.Table, polys: PolygonSet, mode: str) -> pa.Table:
    """Polygon batch x broadcast PolygonSet -> (poly_id, other_id)
    intersect pairs (the polygon flavor of ``pip_join_batch``: bbox R-tree
    candidates, exact test on candidates only). mode='inner' emits pairs;
    'semi' each matched feature once; 'anti' unmatched features."""
    ids = batch.column("poly_id").to_pylist()
    cells = [rings_to_numpy(v) for v in batch.column("rings").to_pylist()]
    boxes = np.array(
        [(min(r[:, 0].min() for r in rs), min(r[:, 1].min() for r in rs),
          max(r[:, 0].max() for r in rs), max(r[:, 1].max() for r in rs))
         for rs in cells], dtype=np.float64).reshape(-1, 4)
    qi, bi = polys.tree.query_boxes(boxes)
    pairs_q: List[int] = []
    pairs_b: List[int] = []
    for q, b in zip(qi.tolist(), bi.tolist()):
        if polygons_intersect(cells[q], polys.rings[b]):
            pairs_q.append(q)
            pairs_b.append(b)
    if mode == "inner":
        return pa.table({
            "poly_id": pa.array([ids[q] for q in pairs_q], pa.string()),
            "other_id": pa.array([polys.ids[b] for b in pairs_b], pa.string()),
        })
    matched = np.zeros(len(ids), dtype=bool)
    matched[pairs_q] = True
    sel = matched if mode == "semi" else ~matched
    keep = [i for i in range(len(ids)) if sel[i]]
    return pa.table({
        "poly_id": pa.array([ids[i] for i in keep], pa.string()),
        "other_id": pa.array([None] * len(keep), pa.string()),
    })


def polygon_join(polys_ds, polygons: pa.Table, mode: str = "inner"):
    """Dataset[polygons] x polygon table -> intersect pairs (broadcast
    join; the small side ships once via ray.put, the stream side never
    shuffles)."""
    import ray

    ref = ray.put(PolygonSet(polygons))
    return polys_ds.map_batches(
        lambda b: polygon_join_batch(b, fetch(ref), mode), batch_format="pyarrow"
    )


# ---------------------------------------------------------------------------
# nearest-feature join
# ---------------------------------------------------------------------------

# site sets up to this size use one (batch x sites) distance matrix;
# larger ones the expanding-ring GridNNIndex
_BRUTE_MAX = 256


def _nearest_sites(sites: pa.Table):
    """Broadcast form of a site table, built once on the driver:
    (site_ids, x, y, GridNNIndex or None for small sets)."""
    sx = sites.column("x").to_numpy().astype(np.float64)
    sy = sites.column("y").to_numpy().astype(np.float64)
    index = GridNNIndex(sx, sy) if len(sx) > _BRUTE_MAX else None
    return sites.column("site_id").cast(pa.string()).combine_chunks(), sx, sy, index


def nearest_join_batch(batch: pa.Table, sites) -> pa.Table:
    """Point batch -> (point_id, site_id, d2) rows joining each point to
    its nearest site (gpd.sjoin_nearest parity).  Small site sets use one
    vectorized (batch x sites) distance matrix whose argmin tie-breaks to
    the LOWEST site index — bit-deterministic and SQL-reproducible;
    larger sets use the expanding-ring GridNNIndex (state/gridindex.py).
    Distances are SQUARED planar units (exact f64 products; callers sqrt
    when they need metric distance).  ``sites`` is ``_nearest_sites(...)``."""
    site_ids, sx, sy, index = sites
    px = batch.column("x").to_numpy().astype(np.float64)
    py = batch.column("y").to_numpy().astype(np.float64)
    if index is None:
        dx = px[:, None] - sx[None, :]
        dy = py[:, None] - sy[None, :]
        d2 = dx * dx + dy * dy
        idx = np.argmin(d2, axis=1)  # first minimum = lowest index
        best = d2[np.arange(len(px)), idx]
    else:
        idx, _ = index.query(px, py)
        # recompute d2 with the canonical expression order so the
        # two paths emit bit-identical values
        dx = px - sx[idx]
        dy = py - sy[idx]
        best = dx * dx + dy * dy
    return pa.table({
        "point_id": batch.column("point_id"),
        "site_id": site_ids.take(pa.array(idx, pa.int64())),
        "d2": pa.array(best, pa.float64()),
    })


def nearest_join(points_ds, sites: pa.Table):
    """Dataset[points] x site table -> nearest-site rows (broadcast
    join: sites ship once via ray.put; the point stream never
    shuffles)."""
    import ray

    ref = ray.put(_nearest_sites(sites))
    return points_ds.map_batches(
        lambda b: nearest_join_batch(b, fetch(ref)), batch_format="pyarrow"
    )


def haversine_nearest(lon: np.ndarray, lat: np.ndarray,
                      site_lon: np.ndarray, site_lat: np.ndarray):
    """Great-circle nearest-site assignment (the geodesic counterpart
    of :func:`nearest_join` — gpd.sjoin_nearest on a sphere): for each
    point, the argmin haversine distance over a broadcast site table,
    ties to the LOWEST site index.

    Every float op happens in ONE fixed IEEE order (precomputed
    degree->radian constants, left-associated products, 2R folded into
    the literal 12742000.0 m), so an independent engine replaying the
    same formula matches bit-for-bit — the contract oracle does, in
    SQL.  Returns ``(site_idx int64, dist_m float64)``.  Scale shape:
    sites ship once (ray.put); the point stream never shuffles."""
    x = np.asarray(lon, dtype=np.float64)[:, None]
    y = np.asarray(lat, dtype=np.float64)[:, None]
    sx = np.asarray(site_lon, dtype=np.float64)[None, :]
    sy = np.asarray(site_lat, dtype=np.float64)[None, :]
    if sx.size == 0:
        raise ValueError("haversine_nearest needs at least one site")
    K = np.pi / 180.0
    KH = K * 0.5
    sa = np.sin((sy - y) * KH)
    sb = np.sin((sx - x) * KH)
    h = sa * sa + np.cos(y * K) * np.cos(sy * K) * (sb * sb)
    d = 12742000.0 * np.arcsin(np.sqrt(h))
    idx = np.argmin(d, axis=1)  # first (lowest site index) minimum
    return idx.astype(np.int64), d[np.arange(d.shape[0]), idx]
