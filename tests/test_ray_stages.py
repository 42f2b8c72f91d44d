"""Ray Data stage tests: point sampling join, lattice merge, composites."""

import numpy as np
import pyarrow as pa
import pytest

from rasters_ray import codec
from rasters_ray.grids import GridSpec
from rasters_ray.sources import (
    make_oracle_images,
    oracle_grid_origin,
    oracle_pixels,
)
from rasters_ray.stages import (
    composite_cells,
    merge_mean_lattice,
    sample_points,
    tile_images,
)


@pytest.fixture()
def oracle_images_ds(ray_session):
    import ray.data as rd

    return rd.from_arrow(make_oracle_images(np.arange(8)))


def test_sample_points_matches_direct_lookup(ray_session, oracle_images_ds):
    # points at known pixel centers of image 0 (grid: x0=-124, y0=44)
    x0, y0 = oracle_grid_origin(0)
    pts = pa.table(
        {
            "point_id": pa.array(["p0", "p1", "poob"], pa.string()),
            "x": pa.array([x0 + 0.5 * 0.01, x0 + 5.5 * 0.01, 100.0], pa.float64()),
            "y": pa.array([y0 - 0.5 * 0.01, y0 - 3.5 * 0.01, 0.0], pa.float64()),
            "crs": pa.array(["EPSG:4326"] * 3, pa.string()),
        }
    )
    res = sample_points(oracle_images_ds, pts, level=8).to_pandas()
    px0 = oracle_pixels(0)
    hits = res[res.inside]
    p0 = hits[hits.point_id == "p0"]
    # (row 0, col 0) of image 0
    assert ((p0.row == 0) & (p0.col == 0)).any()
    v = p0[(p0.image_id == "img00000000")].value.iloc[0]
    assert v == px0[0, 0]
    p1 = hits[(hits.point_id == "p1") & (hits.image_id == "img00000000")]
    assert p1.value.iloc[0] == px0[3, 5]
    # out-of-bounds point -> NaN miss row
    miss = res[res.point_id == "poob"]
    assert len(miss) == 1
    assert not miss.inside.iloc[0]
    assert np.isnan(miss.value.iloc[0])


def test_sample_points_overlapping_images(ray_session, oracle_images_ds):
    # oracle images overlap (1 deg footprint, 0.5 deg spacing): a point in
    # the overlap must produce one row PER containing image
    x0, y0 = oracle_grid_origin(1)  # second image
    pts = pa.table(
        {
            "point_id": pa.array(["pov"], pa.string()),
            "x": pa.array([x0 + 0.105], pa.float64()),
            "y": pa.array([y0 - 0.105], pa.float64()),
            "crs": pa.array(["EPSG:4326"], pa.string()),
        }
    )
    res = sample_points(oracle_images_ds, pts, level=8).to_pandas()
    hits = res[res.inside]
    assert len(hits) >= 2  # images 0 and 1 both contain it
    for _, r in hits.iterrows():
        d = int(r.image_id[3:])
        gx0, gy0 = oracle_grid_origin(d)
        g = GridSpec("EPSG:4326", gx0, gy0, 0.01, -0.01, 100, 100)
        rr, cc = g.index_point(float(pts["x"][0].as_py()), float(pts["y"][0].as_py()))
        assert (rr, cc) == (r.row, r.col)
        assert r.value == oracle_pixels(d)[rr, cc]


def test_merge_mean_lattice_matches_numpy(ray_session, oracle_images_ds):
    res = merge_mean_lattice(oracle_images_ds, cell_size=0.01).to_pandas()
    # brute-force oracle over the 8 images
    acc = {}
    for d in range(8):
        x0, y0 = oracle_grid_origin(d)
        gx0 = int(round((x0 + 180.0) / 0.01))
        gy0 = int(round((90.0 - y0) / 0.01))
        px = oracle_pixels(d)
        for r in range(100):
            for c in range(100):
                k = (gx0 + c, gy0 + r)
                s, n = acc.get(k, (0, 0))
                acc[k] = (s + int(px[r, c]), n + 1)
    assert len(res) == len(acc)
    got = {(r.gx, r.gy): (r.sum_value, r.n_value) for r in res.itertuples()}
    assert got == acc


def test_composite_cells_mean(ray_session, oracle_images_ds):
    tiles = tile_images(oracle_images_ds, level=9)
    comp = composite_cells(tiles, cell_size=0.01, mode="merge_mean").to_pandas()
    assert len(comp) >= 1
    # pick one composite cell and check a pixel against brute force
    row = comp.iloc[0]
    arr = codec.decode(row["bytes"], "npy")
    g = GridSpec.from_dict({"type": "grid", **row["grid"]})
    assert arr.shape == (g.rows, g.cols)
    # where n_images contributed, values are finite means within [0, 250]
    finite = np.isfinite(arr)
    if finite.any():
        assert arr[finite].min() >= 0.0
        assert arr[finite].max() <= 250.0


def test_mosaic_first_valid_wins(ray_session):
    from rasters_ray.grids import cellkey

    # two images on the same grid; first (order 0) has NaN hole filled by second
    g = {"crs": "EPSG:4326", "x_origin": -120.0, "y_origin": 40.0,
         "cell_width": 0.01, "cell_height": -0.01, "rows": 10, "cols": 10}
    a = np.full((10, 10), 1.0, dtype=np.float32)
    a[2:4, 2:4] = np.nan
    b = np.full((10, 10), 2.0, dtype=np.float32)
    # level-9 cell (~0.7 x 0.35 deg) fully contains the 0.1-deg image
    cid = int(cellkey.cell_id(9, -119.95, 39.95))
    tbl = pa.table(
        {
            "cell_key": pa.array([cid, cid], pa.int64()),
            "image_id": pa.array(["A", "B"], pa.string()),
            "order": pa.array([0, 1], pa.int64()),
            "bytes": pa.array([codec.encode(a, "npy"), codec.encode(b, "npy")], pa.binary()),
            "fmt": pa.array(["npy", "npy"], pa.string()),
            "grid": pa.array([g, g]),
        }
    )
    from rasters_ray.stages.composite import composite_group

    out = composite_group(tbl, cell_size=0.01, mode="mosaic_first", order_col="order")
    arr = codec.decode(out.column("bytes")[0].as_py(), "npy")
    og = out.column("grid")[0].as_py()
    gg = GridSpec.from_dict({"type": "grid", **og})
    # locate the image window inside the cell lattice grid
    r0 = int(round((gg.y_origin - 40.0) / 0.01))
    c0 = int(round((-120.0 - gg.x_origin) / 0.01))
    win = arr[r0 : r0 + 10, c0 : c0 + 10]
    assert (win[0, 0] == 1.0) and (win[2, 2] == 2.0)  # hole filled by B
    # reversed order: B everywhere
    tbl2 = tbl.set_column(2, "order", pa.array([1, 0], pa.int64()))
    out2 = composite_group(tbl2, cell_size=0.01, mode="mosaic_first", order_col="order")
    arr2 = codec.decode(out2.column("bytes")[0].as_py(), "npy")
    win2 = arr2[r0 : r0 + 10, c0 : c0 + 10]
    assert win2[0, 0] == 2.0


def _banded_tiles_ds(ray_session, bands=3, n=4):
    """Oracle images re-encoded as (bands, rows, cols) stacks: band b adds
    31*b mod 251 to the base pixels."""
    import ray.data as rd

    base = make_oracle_images(np.arange(n))

    def bandify(t: pa.Table) -> pa.Table:
        blobs = []
        for i in range(t.num_rows):
            arr = codec.decode(t.column("bytes")[i].as_py(), t.column("fmt")[i].as_py())
            stack = np.stack([(arr + 31.0 * b) % 251.0 for b in range(bands)])
            blobs.append(codec.encode(stack.astype(np.float32), "npy"))
        return t.set_column(t.column_names.index("bytes"), "bytes", pa.array(blobs, pa.binary()))

    return rd.from_arrow(bandify(base))


def test_composite_cells_banded(ray_session):
    from rasters_ray.stages import tile_images

    ds = _banded_tiles_ds(ray_session)
    tiles = tile_images(ds, level=9).materialize()
    comp = composite_cells(tiles, 0.01, "merge_mean").to_pandas()
    assert len(comp) >= 1
    # banded composite equals per-band 2D composite
    plain2d = {}
    for b in range(3):
        dsb = rd_from_band(ray_session, band=b)
        tb = tile_images(dsb, level=9)
        cb = composite_cells(tb, 0.01, "merge_mean").to_pandas().set_index("cell_key")
        plain2d[b] = cb
    for _, row in comp.iterrows():
        arr = codec.decode(row["bytes"], "npy")
        assert arr.ndim == 3 and arr.shape[0] == 3
        for b in range(3):
            want = codec.decode(plain2d[b].loc[row["cell_key"], "bytes"], "npy")
            np.testing.assert_allclose(arr[b], want, equal_nan=True, rtol=1e-6)


def rd_from_band(ray_session, band: int, n=4):
    import ray.data as rd

    base = make_oracle_images(np.arange(n))

    def shift(t: pa.Table) -> pa.Table:
        blobs = []
        for i in range(t.num_rows):
            arr = codec.decode(t.column("bytes")[i].as_py(), t.column("fmt")[i].as_py())
            blobs.append(codec.encode(((arr + 31.0 * band) % 251.0).astype(np.float32), "npy"))
        return t.set_column(t.column_names.index("bytes"), "bytes", pa.array(blobs, pa.binary()))

    return rd.from_arrow(shift(base))


def test_lattice_combiner_rejects_bands(ray_session):
    ds = _banded_tiles_ds(ray_session, n=2)
    with pytest.raises(Exception):
        merge_mean_lattice(ds, 0.01).to_pandas()


def test_zonal_stats_hand_computed(ray_session):
    """Two zones over one tiny image: center containment, exact int sums."""
    import ray.data as rd

    from rasters_ray import codec
    from rasters_ray.sources.images import GRID_STRUCT
    from rasters_ray.stages import zonal_stats

    arr = np.arange(16, dtype=np.float32).reshape(4, 4)  # rows x cols
    arr[3, 3] = np.nan
    grid = {"crs": "EPSG:4326", "x_origin": 0.0, "y_origin": 4.0,
            "cell_width": 1.0, "cell_height": -1.0, "rows": 4, "cols": 4}
    img = pa.table({
        "image_id": pa.array(["i0"]),
        "bytes": pa.array([codec.encode(arr, "npy")], pa.binary()),
        "fmt": pa.array(["npy"]),
        "grid": pa.array([grid], GRID_STRUCT),
    })
    # centers: x in {0.5..3.5}, y in {3.5..0.5}
    zones = pa.table({
        "zone_id": pa.array([1, 2, 3], pa.int64()),
        "xmin": pa.array([0.0, 2.2, 10.0], pa.float64()),
        "ymin": pa.array([2.2, 0.0, 10.0], pa.float64()),
        "xmax": pa.array([1.8, 3.8, 11.0], pa.float64()),
        "ymax": pa.array([4.0, 1.8, 11.0], pa.float64()),
    })
    out = zonal_stats(rd.from_arrow(img), zones).to_pandas().set_index("zone_id")
    # zone 1: cols {0.5,1.5}, rows with cy in (2.2, 4.0] -> rows 0,1 -> vals 0,1,4,5
    assert out.loc[1, "n_px"] == 4 and out.loc[1, "sum_value"] == 10
    # zone 2: cols {2.5,3.5}, cy in [0,1.8] -> rows 2? cy row2=1.5, row3=0.5 -> rows 2,3
    # vals 10,11,14,nan -> 3 finite, sum 35
    assert out.loc[2, "n_px"] == 3 and out.loc[2, "sum_value"] == 35
    # zone 3: no overlap -> absent (inner-join semantics)
    assert 3 not in out.index


def test_ray_drops_typed_empty_batches(ray_session):
    """Pins the Ray 2.49 behavior behind bench.py's log filter: a
    map_batches chain whose UDF returns a SCHEMA-TYPED empty table still
    surfaces a ZERO-COLUMN block, because the inter-stage Batcher drops
    0-row blocks (ray/data/_internal/batcher.py:83) and the all-empty
    fallback rebuilds the empty from a fresh schema-less builder
    (map_transformer.py:443-460). The engine's typed empties therefore
    cannot reach the executor, and every "new schema: ." RefBundle
    warning is the Ray artifact, not an engine stage. If a Ray upgrade
    makes this test FAIL (schema preserved), delete bench.py's
    install_sort_empty_schema_filter."""
    import ray.data as rd

    typed = pa.schema([("a", pa.int64()), ("b", pa.string())])

    def keep_none(t: pa.Table) -> pa.Table:
        return typed.empty_table()

    def passthrough(t: pa.Table) -> pa.Table:
        return t

    ds = (
        rd.from_arrow(pa.table({"a": pa.array([1, 2], pa.int64()),
                                "b": pa.array(["x", "y"], pa.string())}))
        .map_batches(keep_none, batch_format="pyarrow")
        .map_batches(passthrough, batch_format="pyarrow")
    )
    schemas = [rb.schema for rb in ds.iter_internal_ref_bundles()]
    assert schemas, "expected at least one output bundle"
    assert all(s is None or len(s.names) == 0 for s in schemas), (
        f"Ray now preserves typed empty schemas ({schemas}); "
        "bench.py's RefBundle log filter can be removed"
    )


def _cell_tiles(x=-119.95, y=39.95, n=12, bands=None, seed=5) -> pa.Table:
    """``n`` overlapping lattice-aligned 10x10 tiles inside the level-9
    cell of (x, y): integer values with NaN holes, ``(bands, 10, 10)``
    stacks when ``bands`` is set."""
    from rasters_ray.grids import cellkey
    from rasters_ray.sources.images import GRID_STRUCT

    cid = int(cellkey.cell_id(9, x, y))
    xmin, _, _, ymax = cellkey.cell_bounds(cid)
    x0, y0 = np.ceil(xmin * 100) / 100, np.floor(ymax * 100) / 100
    rng = np.random.default_rng(seed)
    shape = (10, 10) if bands is None else (bands, 10, 10)
    blobs, grids = [], []
    for k in range(n):
        px = rng.integers(0, 250, shape).astype(np.float32)
        px[..., k % 7, :3] = np.nan
        blobs.append(codec.encode(px, "npy"))
        grids.append({"crs": "EPSG:4326", "x_origin": round(x0 + 0.03 * k, 2),
                      "y_origin": round(y0 - 0.02 * k, 2), "cell_width": 0.01,
                      "cell_height": -0.01, "rows": 10, "cols": 10})
    return pa.table({
        "cell_key": pa.array([cid] * n, pa.int64()),
        "image_id": pa.array([f"{cid}-{k}" for k in range(n)], pa.string()),
        "bytes": pa.array(blobs, pa.binary()),
        "fmt": pa.array(["npy"] * n, pa.string()),
        "grid": pa.array(grids, GRID_STRUCT),
    })


@pytest.mark.parametrize("bands", [None, 3])
def test_composite_hot_cell_equals_composite_group(ray_session, bands):
    import ray.data as rd

    from rasters_ray.stages.composite import composite_group

    tiles = _cell_tiles(bands=bands)
    want = composite_group(tiles, 0.01, "merge_mean")
    # one block (one pre-combined row) and two blocks (up to two rows)
    for blocks in ([tiles], [tiles.slice(0, 5), tiles.slice(5)]):
        got = composite_cells(rd.from_arrow(blocks), 0.01, "merge_mean").to_pandas()
        assert len(got) == 1
        assert got["bytes"][0] == want.column("bytes")[0].as_py()  # bit-identical
        assert got["n_images"][0] == tiles.num_rows
        assert got["grid"][0] == want.column("grid")[0].as_py()
        arr = codec.decode(got["bytes"][0], "npy")
        assert arr.ndim == (2 if bands is None else 3)
        assert np.isfinite(arr).any()


def test_precombine_emits_one_row_per_hot_cell_per_block():
    import pyarrow.compute as pc

    from rasters_ray.stages.composite import SUM_COUNT_FMT, composite_group, precombine_block

    hot = [_cell_tiles(), _cell_tiles(-100.0, 20.0, n=6, seed=6)]
    cold = pa.concat_tables([_cell_tiles(10.0 + k, 5.0, n=1, seed=k) for k in range(30)])
    # 48 rows: a cell is hot when it holds >= 48 // 8 = 6 of them
    out = precombine_block(pa.concat_tables([hot[0], cold, hot[1]]), 0.01)
    summed = out.filter(pc.equal(out.column("fmt"), SUM_COUNT_FMT))
    assert summed.column("cell_key").to_pylist() == [h.column("cell_key")[0].as_py() for h in hot]
    assert summed.column("n_images").to_pylist() == [12, 6]
    for k, h in enumerate(hot):  # each pre-combined row re-merges to its tiles' composite
        assert composite_group(summed.slice(k, 1), 0.01).equals(composite_group(h, 0.01))
    raw = out.filter(pc.not_equal(out.column("fmt"), SUM_COUNT_FMT))
    assert raw.column("bytes").equals(cold.column("bytes"))  # cold tiles pass through raw
    # a block without a dominant cell passes through unchanged
    assert precombine_block(cold, 0.01).column("bytes").equals(cold.column("bytes"))
