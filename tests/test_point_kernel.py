"""The array-pass point kernel against a scalar per-image reference.

``sample_points_batch`` joins a whole image batch in one array pass and
``PointBuckets`` is built with Arrow.  The reference below is the plain
per-image loop (one covering, one bucket lookup, one CRS transform and
one decode per image) over an object-array bucket build.  Outputs are
compared with ``Table.equals``, so values, types and row order must all
match."""

from types import SimpleNamespace

import numpy as np
import pyarrow as pa
import pytest

import rasters_ray.codec as codec
from rasters_ray.grids import GridSpec, cellkey
from rasters_ray.proj import parse_crs, transform_xy
from rasters_ray.sources.images import IMAGES_SCHEMA
from rasters_ray.stages.point_join import JOIN_SCHEMA, PointBuckets, sample_points_batch

LEVEL = 8


# ---- scalar reference -------------------------------------------------------


def _reference_buckets(points: pa.Table, level: int):
    x = np.asarray(points.column("x").to_pylist(), dtype=np.float64)
    y = np.asarray(points.column("y").to_pylist(), dtype=np.float64)
    crs = np.asarray(points.column("crs").to_pylist())
    for c in np.unique(crs):
        if c != "EPSG:4326":
            sel = crs == c
            x[sel], y[sel] = transform_xy(x[sel], y[sel], str(c), "EPSG:4326")
    cid = cellkey.cell_ids(level, x, y)
    order = np.argsort(cid, kind="stable")
    ids = np.asarray(points.column("point_id").to_pylist(), dtype=object)[order]
    return SimpleNamespace(
        cell_sorted=cid[order], ids_arrow=pa.array(ids.tolist(), pa.string()),
        lon=x[order], lat=y[order],
    )


def _reference_lookup(ref, cells) -> np.ndarray:
    parts = []
    for cid in np.asarray(cells, dtype=np.int64):
        lo = np.searchsorted(ref.cell_sorted, cid, side="left")
        hi = np.searchsorted(ref.cell_sorted, cid, side="right")
        if hi > lo:
            parts.append(np.arange(lo, hi))
    return np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)


def _reference_bbox(grid: GridSpec) -> tuple:
    """A geographic grid's own bbox; for a projected grid, the EPSG:4326
    bbox of its boundary's pixel corners."""
    if parse_crs(grid.crs).kind == "geographic":
        return grid.bbox
    corners = [(j, i) for j in range(grid.cols + 1) for i in (0, grid.rows)]
    corners += [(j, i) for i in range(grid.rows + 1) for j in (0, grid.cols)]
    x = [grid.x_origin + grid.cell_width * j for j, _ in corners]
    y = [grid.y_origin + grid.cell_height * i for _, i in corners]
    lon, lat = transform_xy(np.array(x), np.array(y), grid.crs, "EPSG:4326")
    return lon.min(), lat.min(), lon.max(), lat.max()  # NaN if any corner is


def _reference_sample(batch: pa.Table, ref, level: int) -> pa.Table:
    grids = batch.column("grid").to_pylist()
    image_ids = batch.column("image_id").to_pylist()
    fmts = batch.column("fmt").to_pylist()
    blobs = batch.column("bytes").to_pylist()
    cols = {name: [] for name in ("pid", "img", "row", "col", "val")}
    for i in range(batch.num_rows):
        grid = GridSpec.from_dict(grids[i])
        cand = _reference_lookup(ref, cellkey.covering_cells(level, _reference_bbox(grid)))
        if cand.size == 0:
            continue
        px, py = ref.lon[cand], ref.lat[cand]
        if grid.crs != "EPSG:4326":
            px, py = transform_xy(px, py, "EPSG:4326", grid.crs)
        rows, cc = grid.index_points(px, py)
        sel = np.nonzero(grid.contains_rowcol(rows, cc))[0]
        if sel.size == 0:
            continue
        arr = codec.decode(blobs[i], fmts[i])
        cols["pid"].append(cand[sel])
        cols["img"].append(np.full(sel.size, i, dtype=np.int32))
        cols["row"].append(rows[sel].astype(np.int32))
        cols["col"].append(cc[sel].astype(np.int32))
        cols["val"].append(arr[rows[sel], cc[sel]].astype(np.float64))
    if not cols["pid"]:
        return JOIN_SCHEMA.empty_table()
    cat = {k: np.concatenate(v) for k, v in cols.items()}
    n = cat["pid"].size
    return pa.Table.from_arrays(
        [
            ref.ids_arrow.take(pa.array(cat["pid"])),
            pa.array(image_ids, pa.string()).take(pa.array(cat["img"])),
            pa.array(cat["row"], pa.int32()),
            pa.array(cat["col"], pa.int32()),
            pa.array(cat["val"], pa.float64()),
            pa.array(np.ones(n, dtype=bool), pa.bool_()),
        ],
        schema=JOIN_SCHEMA,
    )


# ---- fixtures ---------------------------------------------------------------

UTM = "EPSG:32610"
LONGLAT = "+proj=longlat +datum=WGS84"  # WGS84 spelled otherwise: takes the transform path


def _grid(crs, x0, y0, cell, rows, cols):
    return {"crs": crs, "x_origin": float(x0), "y_origin": float(y0), "cell_width": float(cell),
            "cell_height": -float(cell), "rows": rows, "cols": cols}


def _images(specs) -> pa.Table:
    """specs: (image_id, grid dict, fmt); pixels differ per image."""
    rows = {k: [] for k in IMAGES_SCHEMA.names}
    for k, (image_id, grid, fmt) in enumerate(specs):
        h, w = grid["rows"], grid["cols"]
        if fmt == "png":
            px = ((np.arange(h * w).reshape(h, w) * 7 + k * 31) % 256).astype(np.uint8)
        else:
            px = (np.arange(h * w, dtype=np.float32).reshape(h, w) * 0.25 + k * 1000.0)
        rows["image_id"].append(image_id)
        rows["bytes"].append(codec.encode(px, fmt))
        rows["w"].append(w)
        rows["h"].append(h)
        rows["fmt"].append(fmt)
        rows["caption"].append(image_id)
        rows["phash"].append(k)
        rows["grid"].append(grid)
    return pa.Table.from_pydict(rows, schema=IMAGES_SCHEMA)


def _points(ids, x, y, crs) -> pa.Table:
    return pa.table({
        "point_id": pa.array(ids, pa.string()),
        "x": pa.array(np.asarray(x, dtype=np.float64)),
        "y": pa.array(np.asarray(y, dtype=np.float64)),
        "crs": pa.array(crs, pa.string()),
    })


def _mixed_points() -> pa.Table:
    """Random WGS84 points over the test images, a UTM-CRS share, points
    on exact cell edges, out-of-range points and numeric-string ids."""
    rng = np.random.default_rng(11)
    n = 1500
    x = np.concatenate([rng.uniform(-124.0, -121.0, n - 300), rng.uniform(179.0, 180.0, 100),
                        rng.uniform(-180.0, -179.0, 100), rng.uniform(10.0, 12.0, 100)])
    y = np.concatenate([rng.uniform(36.0, 39.0, n - 300), rng.uniform(-1.0, 1.0, 200),
                        rng.uniform(50.0, 52.0, 100)])
    x[:20] = -123.0 + np.arange(20) * 0.01  # exact pixel edges of img_a
    y[:20] = 38.0 - np.arange(20) * 0.01
    x[20], y[20] = 400.0, 0.0  # outside the world box
    x[1250:1270] = np.linspace(180.05, 180.4, 20)  # past the antimeridian
    x[30:40] = -122.5 + np.linspace(-0.02, 0.02, 10)  # inside img_utm
    y[30:40] = 37.5 + np.linspace(0.02, -0.02, 10)
    crs = np.where(rng.random(n) < 0.2, UTM, "EPSG:4326")
    crs[:40] = "EPSG:4326"
    crs[1250:1270] = "EPSG:4326"
    utm = crs == UTM
    x[utm], y[utm] = transform_xy(x[utm], y[utm], "EPSG:4326", UTM)
    ids = [str(k) if k % 3 else f"{k:06d}" for k in range(n)]  # numeric strings
    return _points(ids, x, y, crs.tolist())


def _utm_grid():
    # a 30 m UTM zone-10 grid around (-122.5, 37.5)
    ux, uy = transform_xy(np.array([-122.5]), np.array([37.5]), "EPSG:4326", UTM)
    return _grid(UTM, round(ux[0]) - 3000.0, round(uy[0]) + 3000.0, 30.0, 200, 200)


def _batch() -> pa.Table:
    return _images([
        ("img_a", _grid("EPSG:4326", -123.0, 38.0, 0.01, 100, 100), "npy"),
        ("img_utm", _utm_grid(), "png"),
        ("img_far", _grid("EPSG:4326", 60.0, -60.0, 0.01, 10, 10), "npy"),  # no hits
        ("img_east", _grid("EPSG:4326", 179.5, 1.0, 0.01, 200, 100), "npy"),  # past 180
        ("img_west", _grid("EPSG:4326", -180.5, 1.0, 0.01, 200, 100), "png"),  # before -180
        ("img_1x1", _grid("EPSG:4326", -122.0, 37.0, 0.5, 1, 1), "npy"),
        ("img_b", _grid("EPSG:4326", 10.0, 52.0, 0.02, 100, 100), "png"),
        ("img_a2", _grid("EPSG:4326", -123.004, 38.004, 0.008, 120, 90), "npy"),  # overlaps img_a
        ("img_ll", _grid(LONGLAT, -122.3, 37.3, 0.005, 80, 80), "npy"),
        ("img_ll2", _grid(LONGLAT, -121.9, 36.9, 0.01, 40, 40), "png"),
        # the transform to LONGLAT turns longitudes past 180 into NaN misses
        ("img_ll_east", _grid(LONGLAT, 179.9, 1.0, 0.01, 200, 60), "npy"),
    ])


# ---- tests ------------------------------------------------------------------


def _assert_same(batch, points):
    ref = _reference_sample(batch, _reference_buckets(points, LEVEL), LEVEL)
    out = sample_points_batch(batch, PointBuckets(points, LEVEL), LEVEL)
    assert out.schema == JOIN_SCHEMA
    assert out.equals(ref)
    return out


def test_kernel_equals_per_image_reference():
    out = _assert_same(_batch(), _mixed_points())
    images = set(out.column("image_id").to_pylist())
    # straddlers, the 1x1 image, the overlap and the transformed grids hit
    assert {"img_a", "img_east", "img_west", "img_1x1", "img_b", "img_a2", "img_ll",
            "img_ll2", "img_ll_east", "img_utm"} <= images
    assert "img_far" not in images
    # the UTM grid covers the geographic bbox of its corners, so the 10
    # points placed inside it are found
    assert out.column("image_id").to_pylist().count("img_utm") == 10


@pytest.mark.parametrize("lo,n", [(0, 1), (1, 1), (3, 2), (5, 3), (2, 1), (8, 2)])
def test_kernel_equals_reference_on_sub_batches(lo, n):
    _assert_same(_batch().slice(lo, n), _mixed_points())


def test_kernel_no_hits_and_empty_batch():
    points = _mixed_points()
    for batch in (_batch().slice(2, 1), _batch().slice(0, 0)):
        out = _assert_same(batch, points)
        assert out.num_rows == 0
    far = _points(["x", "y"], [0.0, 1.0], [0.0, 1.0], ["EPSG:4326"] * 2)
    assert _assert_same(_batch(), far).num_rows == 0


def test_kernel_utm_points_and_numeric_string_ids():
    grid = _grid("EPSG:4326", -123.0, 38.0, 0.01, 100, 100)
    lon = np.array([-122.995, -122.505, -122.5])
    lat = np.array([37.995, 37.505, 36.5])
    ux, uy = transform_xy(lon, lat, "EPSG:4326", UTM)
    points = _points(["007", "42", "1e3"], ux, uy, [UTM] * 3)
    out = _assert_same(_images([("img_a", grid, "npy")]), points)
    assert out.column("point_id").to_pylist() == ["007", "42"]


@pytest.mark.parametrize("field,value,message", [
    ("x_origin", float("nan"), "finite bbox"),  # as covering_cells raises
    ("cell_height", 0.01, "cell_height"),  # as GridSpec raises
])
def test_kernel_bad_grid_raises_like_per_image_path(field, value, message):
    batch = _images([
        ("ok", _grid("EPSG:4326", -123.0, 38.0, 0.01, 10, 10), "npy"),
        ("bad", _grid("EPSG:4326", -123.0, 38.0, 0.01, 10, 10), "npy"),
    ])
    grid = batch.column("grid").to_pylist()
    grid[1][field] = value
    batch = batch.set_column(batch.schema.get_field_index("grid"), "grid",
                             pa.array(grid, IMAGES_SCHEMA.field("grid").type))
    points = _mixed_points()
    with pytest.raises(ValueError, match=message):
        _reference_sample(batch, _reference_buckets(points, LEVEL), LEVEL)
    with pytest.raises(ValueError, match=message):
        sample_points_batch(batch, PointBuckets(points, LEVEL), LEVEL)


def test_kernel_projected_grid_off_the_globe_raises():
    # easting 1e8 m has no geographic position: the bbox is not finite
    batch = _images([("far", _grid(UTM, 1e8, 4e6, 30.0, 10, 10), "npy")])
    points = _mixed_points()
    with pytest.raises(ValueError, match="finite bbox"):
        _reference_sample(batch, _reference_buckets(points, LEVEL), LEVEL)
    with pytest.raises(ValueError, match="finite bbox"):
        sample_points_batch(batch, PointBuckets(points, LEVEL), LEVEL)


def test_kernel_decodes_each_hit_image_once(monkeypatch):
    batch = _batch()
    blob_ids = dict(zip(batch.column("bytes").to_pylist(), batch.column("image_id").to_pylist()))
    calls = []
    real = codec.decode

    def counting(data, fmt):
        calls.append(blob_ids[bytes(data)])
        return real(data, fmt)

    monkeypatch.setattr(codec, "decode", counting)
    out = sample_points_batch(batch, PointBuckets(_mixed_points(), LEVEL), LEVEL)
    hit = set(out.column("image_id").to_pylist())
    assert sorted(calls) == sorted(hit)  # once per image with hits, never otherwise


def test_buckets_state_and_lookup_match_object_build():
    points = _mixed_points()
    ref = _reference_buckets(points, LEVEL)
    b = PointBuckets(points, LEVEL)
    assert b.level == LEVEL and b.n == points.num_rows
    np.testing.assert_array_equal(b.cell_sorted, ref.cell_sorted)
    assert b.cell_sorted.dtype == np.int64
    np.testing.assert_array_equal(b.lon, ref.lon)
    np.testing.assert_array_equal(b.lat, ref.lat)
    assert b.ids_arrow.equals(ref.ids_arrow)
    known = np.unique(ref.cell_sorted)
    cases = [
        np.empty(0, dtype=np.int64),
        known[:1],
        known[::-1],  # order of the cells is kept
        np.r_[known[:3], known[:2]],  # repeated cells repeat their points
        np.array([cellkey.cell_id(LEVEL, 60.5, -60.5)]),  # a cell with no points
        cellkey.covering_cells(LEVEL, (-123.0, 36.0, -121.0, 39.0)),
    ]
    for cells in cases:
        got, want = b.lookup(cells), _reference_lookup(ref, cells)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, want)
