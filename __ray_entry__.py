"""Driver contract for the graft builder (Ray Data target).

``entry()`` runs the flagship spatial-join + tiling pipeline at sf0.001.
``queries()`` exposes one callable per implemented operator/pipeline from
SURVEY.md §2 (+ the training-data ops); ``oracle_sql()`` gives the DuckDB
equivalent over the same parquet views where SQL can express it.

Parity rules shared by both sides (documented in SURVEY.md §1.3/7.5):
- point->cell:  col = round_half_even((x - x0)/cw - 0.5)   (np.rint == DuckDB round_even)
- window:       index UL/LR corners, end += 1, filter disjoint, clamp
- cell key:     (level << 56) | (iy << 28) | ix over the world box
- composites:   integer (sum, count) / packed-min so results are exact and
                independent of parallel execution order
- synthetic inputs derive from the driver's own tables (customer keys,
  orders keys, documents doc_id) so the SQL oracle can re-derive them.

Ray is initialised by the driver BEFORE this module is imported: nothing
here calls ray.init()/ray.shutdown().
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

import numpy as np
import pyarrow as pa

# ---------------------------------------------------------------------------
# shared constants (mirrored literally inside the SQL strings below)
# ---------------------------------------------------------------------------

QX0, QY0, QCELL, QN = -124.0, 44.0, 0.01, 800  # the broadcast query grid
SW_STEP, SW_N = 0.02, 50  # the query swath (meshgrid)
N_IMG_TILE = 128  # images for tile_assign
N_IMG_MERGE = 32  # images for merge/mosaic
TILE_LEVEL = 8
KEY_LEVEL = 12

PIP_BOXES = [
    ("B0", -123.0, 41.0, -121.0, 43.0),
    ("B1", -122.0, 38.0, -118.0, 42.0),
    ("B2", -120.5, 39.5, -119.5, 40.5),
    ("B3", -75.0, 38.0, -65.0, 45.0),  # catches the +50-shifted OOB points
]


def _grid():
    from rasters_ray.grids import GridSpec

    return GridSpec("EPSG:4326", QX0, QY0, QCELL, -QCELL, QN, QN)


def _read(sf_dir: str, table: str, columns=None, **read_kwargs):
    from rasters_ray.sources.geoparquet import read_parquet

    return read_parquet(f"{sf_dir}/{table}.parquet", columns=columns, **read_kwargs)


_TS_PER_SEC = {"s": 1, "ms": 1_000, "us": 1_000_000, "ns": 1_000_000_000}


def _ts_unit(dtype) -> int:
    """Integer ticks per second for a pandas/numpy/pyarrow timestamp dtype.

    The parquet fixtures happen to be timestamp[us], but a pandas round-trip
    produces timestamp[ns]; deriving the divisor from the dtype keeps the
    session/window math unit-agnostic (VERDICT r1 'What's wrong' #2).
    """
    unit = getattr(dtype, "unit", None)  # pyarrow TimestampType / pandas ext
    if unit is None:
        try:
            unit = np.datetime_data(dtype)[0]  # numpy datetime64 dtype
        except Exception:
            unit = "ns"
    return _TS_PER_SEC[unit]


def _points_ds(sf_dir: str):
    """Points derived from customer keys (SQL-recomputable)."""
    from rasters_ray.sources.vectors import oracle_points_from_keys

    return _read(sf_dir, "customer", ["c_custkey"]).map_batches(
        lambda t: oracle_points_from_keys(t.column("c_custkey").to_numpy()),
        batch_format="pyarrow",
    )


def _images_ds(sf_dir: str, n: int):
    """Oracle-profile images keyed by documents.doc_id < n.  The filter
    runs inside the read, so no read block comes out empty (an empty
    block through a chain of map_batches leaves a zero-column block)."""
    import pyarrow.compute as pc

    from rasters_ray.sources.images import make_oracle_images

    docs = _read(sf_dir, "documents", ["doc_id"], filter=pc.field("doc_id") < n)
    return docs.map_batches(
        lambda t: make_oracle_images(t.column("doc_id").to_numpy()),
        batch_format="pyarrow",
    )


# ---------------------------------------------------------------------------
# query implementations
# ---------------------------------------------------------------------------


def q_point_index(sf_dir: str):
    grid = _grid()

    def f(t: pa.Table) -> pa.Table:
        x = t.column("x").to_numpy()
        y = t.column("y").to_numpy()
        irow, icol = grid.index_points(x, y)
        inside = grid.contains_rowcol(irow, icol)
        return pa.table(
            {
                "point_id": t.column("point_id"),
                "irow": pa.array(irow, pa.int64()),
                "icol": pa.array(icol, pa.int64()),
                "inside": pa.array(inside, pa.bool_()),
            }
        )

    return _points_ds(sf_dir).map_batches(f, batch_format="pyarrow")


def q_point_cell_key(sf_dir: str):
    from rasters_ray.grids import cellkey

    def f(t: pa.Table) -> pa.Table:
        cid = cellkey.cell_ids(KEY_LEVEL, t.column("x").to_numpy(), t.column("y").to_numpy())
        return pa.table({"point_id": t.column("point_id"), "cell_key": pa.array(cid, pa.int64())})

    return _points_ds(sf_dir).map_batches(f, batch_format="pyarrow")


def q_window_subset(sf_dir: str):
    grid = _grid()

    def f(t: pa.Table) -> pa.Table:
        k = t.column("o_orderkey").to_numpy().astype(np.int64)
        dx = (k % 600).astype(np.float64) * 0.01
        dy = ((k // 11) % 600).astype(np.float64) * 0.01
        w = 0.05 + (k % 13).astype(np.float64) * 0.01
        h = 0.05 + (k % 17).astype(np.float64) * 0.01
        dx = np.where(k % 89 == 0, dx + 50.0, dx)  # disjoint boxes -> filtered
        xmin = QX0 + dx
        ymax = QY0 - dy
        xmax = xmin + w
        ymin = ymax - h
        ro, co, hh, ww, valid = grid.windows_for_bboxes(xmin, ymin, xmax, ymax)
        return pa.table(
            {
                "o_orderkey": pa.array(k[valid], pa.int64()),
                "row_off": pa.array(ro[valid], pa.int64()),
                "col_off": pa.array(co[valid], pa.int64()),
                "height": pa.array(hh[valid], pa.int64()),
                "width": pa.array(ww[valid], pa.int64()),
            }
        )

    return _read(sf_dir, "orders", ["o_orderkey"]).map_batches(f, batch_format="pyarrow")


def q_tile_assign(sf_dir: str):
    from rasters_ray.stages import make_tiles

    tiles = _images_ds(sf_dir, N_IMG_TILE).map_batches(
        lambda t: make_tiles(t, level=TILE_LEVEL, decode_pixels=False),
        batch_format="pyarrow",
    )
    return tiles.map_batches(
        lambda t: t.select(["image_id", "cell_key"]), batch_format="pyarrow"
    )


def q_tile_windows(sf_dir: str):
    """Flagship tiling, full window coordinates (oracle recomputes the
    covering + clip + window math in SQL)."""
    from rasters_ray.stages import make_tiles

    tiles = _images_ds(sf_dir, N_IMG_TILE).map_batches(
        lambda t: make_tiles(t, level=TILE_LEVEL, decode_pixels=False),
        batch_format="pyarrow",
    )
    return tiles.map_batches(
        lambda t: t.select(["image_id", "cell_key", "row_off", "col_off", "th", "tw"]),
        batch_format="pyarrow",
    )


def q_merge_mean(sf_dir: str):
    from rasters_ray.stages import merge_mean_lattice

    return merge_mean_lattice(_images_ds(sf_dir, N_IMG_MERGE), cell_size=QCELL)


def q_mosaic_first(sf_dir: str):
    from rasters_ray.stages.composite import mosaic_first_lattice

    imgs = _images_ds(sf_dir, N_IMG_MERGE).map_batches(
        lambda t: t.append_column(
            "order",
            pa.array(
                [int(s[3:]) for s in t.column("image_id").to_pylist()], pa.int64()
            ),
        ),
        batch_format="pyarrow",
    )
    return mosaic_first_lattice(imgs, cell_size=QCELL, order_col="order")


def q_mosaic_best(sf_dir: str):
    """Best-available-pixel (argmax-quality) composite — the third
    classic EO compositing mode: per cell, the value of the
    highest-quality covering scene (quality = (d*37) % 11, ties to the
    larger scene order).  Packed-max lattice, same two-phase shape as
    mosaic_first."""
    from rasters_ray.stages.composite import mosaic_best_lattice

    def add_cols(t: pa.Table) -> pa.Table:
        d = np.array(
            [int(s[3:]) for s in t.column("image_id").to_pylist()], np.int64
        )
        return t.append_column("order", pa.array(d, pa.int64())).append_column(
            "quality", pa.array((d * 37) % 11, pa.int64())
        )

    imgs = _images_ds(sf_dir, N_IMG_MERGE).map_batches(
        add_cols, batch_format="pyarrow"
    )
    return mosaic_best_lattice(imgs, cell_size=QCELL)


def q_resample_nearest(sf_dir: str):
    """Warp image d=0 from 0.01 deg to 0.02 deg (nearest) — exercises the
    grid->grid warp path; oracle recomputes src[2r, 2c] from the formula."""
    from rasters_ray import codec
    from rasters_ray.grids import GridSpec
    from rasters_ray.stages import WarpStage

    # target shifted by half a SOURCE cell so every target center lands
    # exactly on a source center (nearest pick unambiguous: src[2r+1, 2c+1])
    target = GridSpec("EPSG:4326", QX0 + 0.005, QY0 - 0.005, 0.02, -0.02, 50, 50)
    target_dict = {k: v for k, v in target.to_dict().items() if k != "type"}
    warped = _images_ds(sf_dir, 1).map_batches(
        WarpStage(target_dict, "nearest"), batch_format="pyarrow"
    )

    def explode(t: pa.Table) -> pa.Table:
        rows = []
        for i in range(t.num_rows):
            arr = codec.decode(t.column("bytes")[i].as_py(), t.column("fmt")[i].as_py())
            r, c = np.meshgrid(np.arange(arr.shape[0]), np.arange(arr.shape[1]), indexing="ij")
            rows.append(
                pa.table(
                    {
                        "r": pa.array(r.ravel(), pa.int64()),
                        "c": pa.array(c.ravel(), pa.int64()),
                        "value": pa.array(np.rint(arr.ravel()).astype(np.int64), pa.int64()),
                    }
                )
            )
        return pa.concat_tables(rows)

    return warped.map_batches(explode, batch_format="pyarrow")


def _explode_rc_value(warped):
    """(bytes, fmt) rows -> (r, c, value:int64) rows."""
    from rasters_ray import codec

    def explode(t: pa.Table) -> pa.Table:
        rows = []
        for i in range(t.num_rows):
            arr = codec.decode(t.column("bytes")[i].as_py(), t.column("fmt")[i].as_py())
            r, c = np.meshgrid(np.arange(arr.shape[0]), np.arange(arr.shape[1]), indexing="ij")
            rows.append(
                pa.table(
                    {
                        "r": pa.array(r.ravel(), pa.int64()),
                        "c": pa.array(c.ravel(), pa.int64()),
                        "value": pa.array(np.rint(arr.ravel()).astype(np.int64), pa.int64()),
                    }
                )
            )
        return pa.concat_tables(rows)

    return warped.map_batches(explode, batch_format="pyarrow")


def _q_resample_reduction(sf_dir: str, method: str):
    """Exactly-aligned 2x downscale of image d=0 with a footprint reduction
    kernel — each target cell reduces source block {2r,2r+1}x{2c,2c+1}, so
    DuckDB can recompute it with GROUP BY sr//2, sc//2."""
    from rasters_ray.grids import GridSpec
    from rasters_ray.stages import WarpStage

    target = GridSpec("EPSG:4326", QX0, QY0, 0.02, -0.02, 50, 50)
    target_dict = {k: v for k, v in target.to_dict().items() if k != "type"}
    warped = _images_ds(sf_dir, 1).map_batches(
        WarpStage(target_dict, method), batch_format="pyarrow"
    )
    return _explode_rc_value(warped)


def q_resample_sum(sf_dir: str):
    return _q_resample_reduction(sf_dir, "sum")


def q_resample_max(sf_dir: str):
    return _q_resample_reduction(sf_dir, "max")


def q_warp_bands(sf_dir: str):
    """3-band stack (band b pixels = (7r+13c+31b) % 251, from image 0) run
    through the banded warp with the 'sum' reduction (aligned 2x) —
    per-band block sums, exploded (band, r, c, value)."""
    from rasters_ray import codec as _codec
    from rasters_ray.grids import GridSpec
    from rasters_ray.stages.resample import warp_array

    target = GridSpec("EPSG:4326", QX0, QY0, 0.02, -0.02, 50, 50)

    def f(t: pa.Table) -> pa.Table:
        out = []
        for i in range(t.num_rows):
            arr = _codec.decode(t.column("bytes")[i].as_py(), t.column("fmt")[i].as_py())
            stack = np.stack([(arr + 31.0 * b) % 251.0 for b in range(3)])
            src = GridSpec.from_dict(t.column("grid")[i].as_py())
            warped = warp_array(stack, src, target, "sum")
            b, r, c = np.meshgrid(
                np.arange(3), np.arange(50), np.arange(50), indexing="ij"
            )
            out.append(
                pa.table(
                    {
                        "band": pa.array(b.ravel(), pa.int64()),
                        "r": pa.array(r.ravel(), pa.int64()),
                        "c": pa.array(c.ravel(), pa.int64()),
                        "value": pa.array(
                            np.rint(warped.ravel()).astype(np.int64), pa.int64()
                        ),
                    }
                )
            )
        return pa.concat_tables(out)

    return _images_ds(sf_dir, 1).map_batches(f, batch_format="pyarrow")


def q_knn_resample(sf_dir: str):
    """Same shifted 2x-downscale as resample_nearest but through the kNN
    path (GridNNIndex) — identical result, different engine."""
    from rasters_ray.grids import GridSpec
    from rasters_ray.stages import KNNResampleStage

    target = GridSpec("EPSG:4326", QX0 + 0.005, QY0 - 0.005, 0.02, -0.02, 50, 50)
    warped = _images_ds(sf_dir, 1).map_batches(
        KNNResampleStage(target.to_dict()), batch_format="pyarrow"
    )
    return _explode_rc_value(warped)


def q_window_buffer(sf_dir: str):
    """window(bbox, buffer=2): buffer applied BEFORE clamping
    (raster_grid.py:795-807)."""
    grid = _grid()

    def f(t: pa.Table) -> pa.Table:
        k = t.column("o_orderkey").to_numpy().astype(np.int64)
        dx = (k % 600).astype(np.float64) * 0.01
        dy = ((k // 11) % 600).astype(np.float64) * 0.01
        w = 0.05 + (k % 13).astype(np.float64) * 0.01
        h = 0.05 + (k % 17).astype(np.float64) * 0.01
        xmin = QX0 + dx
        ymax = QY0 - dy
        out_ro, out_co, out_h, out_w, out_k = [], [], [], [], []
        for i in range(len(k)):
            try:
                win = grid.window((xmin[i], ymax[i] - h[i], xmin[i] + w[i], ymax[i]), buffer=2)
            except Exception:
                continue
            out_k.append(int(k[i]))
            out_ro.append(win.row_off)
            out_co.append(win.col_off)
            out_h.append(win.height)
            out_w.append(win.width)
        return pa.table(
            {
                "o_orderkey": pa.array(out_k, pa.int64()),
                "row_off": pa.array(out_ro, pa.int64()),
                "col_off": pa.array(out_co, pa.int64()),
                "height": pa.array(out_h, pa.int64()),
                "width": pa.array(out_w, pa.int64()),
            }
        )

    return _read(sf_dir, "orders", ["o_orderkey"]).map_batches(f, batch_format="pyarrow")


def q_pixel_centroids(sf_dir: str):
    """Raster -> vector explode: per-cell centroid rows of image 0's grid."""
    from rasters_ray.grids import GridSpec
    from rasters_ray.grids.geomops import pixel_centroids

    def f(t: pa.Table) -> pa.Table:
        rows = []
        for g in t.column("grid").to_pylist():
            grid = GridSpec.from_dict(g)
            rr, cc, x, y = pixel_centroids(grid)
            rows.append(
                pa.table(
                    {
                        "r": pa.array(rr, pa.int64()),
                        "c": pa.array(cc, pa.int64()),
                        "x": pa.array(x, pa.float64()),
                        "y": pa.array(y, pa.float64()),
                    }
                )
            )
        return pa.concat_tables(rows) if rows else pa.table(
            {"r": pa.array([], pa.int64()), "c": pa.array([], pa.int64()),
             "x": pa.array([], pa.float64()), "y": pa.array([], pa.float64())}
        )

    return _images_ds(sf_dir, 1).map_batches(f, batch_format="pyarrow")


RASTERIZE_BOX = (-119.973, 39.437, -119.211, 39.892)  # no 0.005/0.01 alignments


def q_rasterize_box(sf_dir: str):
    """rasterize_mask over one non-aligned box on the query grid, both
    modes: center containment and true all_touched. SQL recomputes centers
    (mode='center') and cell-bbox overlap (mode='touched') — for a convex
    box, interior ∪ supercover edges == every cell the open box overlaps."""
    from rasters_ray.stages.pip import rasterize_mask

    grid = _grid()
    xmin, ymin, xmax, ymax = RASTERIZE_BOX
    ring = [
        {"x": xmin, "y": ymax},
        {"x": xmax, "y": ymax},
        {"x": xmax, "y": ymin},
        {"x": xmin, "y": ymin},
        {"x": xmin, "y": ymax},
    ]

    def f(t: pa.Table) -> pa.Table:
        from rasters_ray.sources.vectors import RING_TYPE

        ids = t.column("doc_id").to_numpy(zero_copy_only=False)
        if 0 not in ids:  # emit ONCE: from the batch holding doc 0
            return pa.table(
                {"mode": pa.array([], pa.string()), "r": pa.array([], pa.int64()),
                 "c": pa.array([], pa.int64())}
            )
        polys = pa.table({"poly_id": pa.array(["box"]), "rings": pa.array([[ring]], RING_TYPE)})
        out_mode, out_r, out_c = [], [], []
        for mode, touched in (("center", False), ("touched", True)):
            mask = rasterize_mask(grid, polys, all_touched=touched)
            rr, cc = np.nonzero(mask)
            out_mode.extend([mode] * len(rr))
            out_r.extend(rr.tolist())
            out_c.extend(cc.tolist())
        return pa.table(
            {
                "mode": pa.array(out_mode, pa.string()),
                "r": pa.array(out_r, pa.int64()),
                "c": pa.array(out_c, pa.int64()),
            }
        )

    return _read(sf_dir, "documents", ["doc_id"]).map_batches(f, batch_format="pyarrow")


N_AUDIO = 64


def _audio_params():
    """Deterministic WAV fixture parameters (pure arithmetic — reachable
    from SQL and from the synthesizer alike)."""
    i = np.arange(N_AUDIO, dtype=np.int64)
    sr = np.where(i % 2 == 0, 8000, 16000).astype(np.int64)
    n_samples = 4000 + i * 371
    return i, sr, n_samples


def _audio_fixture_path() -> str:
    """(audio_id, sr, n_samples) parquet for the DuckDB side."""
    import os

    import pyarrow.parquet as pq

    path = f"/tmp/rasters_ray_oracle/audio_fixture_{N_AUDIO}.parquet"
    if os.path.exists(path):
        return path
    os.makedirs(os.path.dirname(path), exist_ok=True)
    i, sr, n_samples = _audio_params()
    tmp = f"{path}.tmp{os.getpid()}"
    pq.write_table(
        pa.table({"audio_id": pa.array(i), "sr": pa.array(sr),
                  "n_samples": pa.array(n_samples)}),
        tmp,
    )
    os.replace(tmp, path)
    return path


def q_audio_features(sf_dir: str):
    """Real WAV -> log-mel featurizer over synthesized PCM16 fixtures;
    the oracle recomputes the frame math (n_frames, duration_ms) from
    the fixture parameter table. Feature values are pytest-checked
    (tone-frequency tracking) — FFT is not SQL territory."""
    import ray.data as rd

    from rasters_ray.multimodal import AudioFeatureStage, synth_wav

    _audio_fixture_path()

    def make(t: pa.Table) -> pa.Table:
        ids = t["id"].to_numpy()
        i, sr, n_samples = _audio_params()
        return pa.table(
            {
                "audio_id": pa.array(ids.astype(np.int64)),
                "bytes": pa.array(
                    [synth_wav(int(j), int(sr[j]), int(n_samples[j]),
                               freq=200.0 + 50.0 * int(j)) for j in ids],
                    pa.binary(),
                ),
            }
        )

    wavs = rd.range(N_AUDIO, override_num_blocks=4).map_batches(
        make, batch_format="pyarrow", batch_size=16
    )
    feats = wavs.map_batches(
        AudioFeatureStage(n_features=16), batch_format="pyarrow", batch_size=16
    )
    return feats.map_batches(
        lambda t: t.select(["audio_id", "sr", "n_frames", "duration_ms"]),
        batch_format="pyarrow",
    )


def q_zonal_stats(sf_dir: str):
    """Zonal statistics: per-zone (n_px, sum) of oracle-image pixels whose
    CENTERS fall in the zone bbox (rasterize-center ∘ aggregate). Zone
    bounds sit 0.002 deg off every pixel-center lattice point, so the
    inclusive comparisons cannot straddle float noise — DuckDB recomputes
    the join bit-for-bit from the same center/bound expressions."""
    import pyarrow.parquet as pq

    from rasters_ray.stages import zonal_stats

    keys = pq.read_table(f"{sf_dir}/orders.parquet", columns=["o_orderkey"]).column(
        "o_orderkey"
    ).to_numpy()
    k = np.sort(keys[keys % 41 == 0]).astype(np.int64)
    zxmin = -124.0 + (k % 700) * 0.01 + 0.003
    zymax = 44.0 - ((k // 11) % 700) * 0.01 - 0.003
    zxmax = zxmin + 0.05 + (k % 13) * 0.01
    zymin = zymax - 0.05 - (k % 17) * 0.01
    zones = pa.table(
        {
            "zone_id": pa.array(k, pa.int64()),
            "xmin": pa.array(zxmin, pa.float64()),
            "ymin": pa.array(zymin, pa.float64()),
            "xmax": pa.array(zxmax, pa.float64()),
            "ymax": pa.array(zymax, pa.float64()),
        }
    )
    return zonal_stats(_images_ds(sf_dir, N_IMG_MERGE), zones)


def q_zonal_majority(sf_dir: str):
    """Categorical zonal statistics (ArcGIS MAJORITY/MINORITY/VARIETY
    with smallest-code tie-break) over the same zone boxes as
    zonal_stats; per-(zone,value) bincount partials, pair-level shuffle
    only."""
    import pyarrow.parquet as pq

    from rasters_ray.stages import zonal_categorical

    keys = pq.read_table(f"{sf_dir}/orders.parquet", columns=["o_orderkey"]).column(
        "o_orderkey"
    ).to_numpy()
    k = np.sort(keys[keys % 41 == 0]).astype(np.int64)
    zxmin = -124.0 + (k % 700) * 0.01 + 0.003
    zymax = 44.0 - ((k // 11) % 700) * 0.01 - 0.003
    zxmax = zxmin + 0.05 + (k % 13) * 0.01
    zymin = zymax - 0.05 - (k % 17) * 0.01
    zones = pa.table(
        {
            "zone_id": pa.array(k, pa.int64()),
            "xmin": pa.array(zxmin, pa.float64()),
            "ymin": pa.array(zymin, pa.float64()),
            "xmax": pa.array(zxmax, pa.float64()),
            "ymax": pa.array(zymax, pa.float64()),
        }
    )
    return zonal_categorical(_images_ds(sf_dir, N_IMG_MERGE), zones)


def q_hotspots(sf_dir: str):
    """Getis-Ord Gi* hot spot analysis (spatial_stats.py::hotspot_lattice)
    on the step-7 lattice of every oracle image: integer z numerators +
    the fixed-order float z-score, replayed in SQL from the pixel
    formula with guarded 3x3 neighbor sums."""
    from rasters_ray.stages.spatial_stats import hotspot_lattice

    return hotspot_lattice(_images_ds(sf_dir, N_IMG_MERGE), step=7)


def q_lisa(sf_dir: str):
    """Local Moran LISA clusters (spatial_stats.py::lisa_lattice) on the
    step-7 lattice: integer y*R numerators, the single-ratio float I_i,
    and the HH/LL/HL/LH quadrant, replayed in SQL with guarded rook
    sums from the pixel formula."""
    from rasters_ray.stages.spatial_stats import lisa_lattice

    return lisa_lattice(_images_ds(sf_dir, N_IMG_MERGE), step=7)


def q_variogram(sf_dir: str):
    """Empirical semivariogram (spatial_stats.py::variogram_images) for
    axis lags 1..8, row+column pairs pooled: integer pair sums/counts
    and the one-ratio gamma, replayed in SQL as shifted formula
    differences."""
    from rasters_ray.stages.spatial_stats import variogram_images

    return variogram_images(_images_ds(sf_dir, N_IMG_MERGE), max_lag=8)


def q_trend(sf_dir: str):
    """First-order trend surface (spatial_stats.py::trend_images):
    centered doubled-coordinate normal equations diagonalize to three
    exact integer ratios; SQL replays the sums from the pixel formula."""
    from rasters_ray.stages.spatial_stats import trend_images

    return trend_images(_images_ds(sf_dir, N_IMG_MERGE))


def q_geomorphons(sf_dir: str):
    """Geomorphon landform classification (terrain.py::geomorphon_lattice,
    Jasiewicz & Stepinski 2013) on the step-7 lattice: 12/k-scaled
    integer line-of-sight slopes, the zenith-vs-nadir ternary pattern
    and the 10-class lookup, replayed in SQL with a guarded
    direction x distance join."""
    from rasters_ray.stages.terrain import geomorphon_lattice

    return geomorphon_lattice(_images_ds(sf_dir, N_IMG_MERGE), lookup=4, step=7)


def q_cutfill(sf_dir: str):
    """Cut-fill volumes (zonal.py::cutfill_images — ArcGIS Cut Fill
    totals) between each oracle DEM and a second deterministic surface
    (d*37 + r*11 + c*5) % 241; all-integer cut/fill/net and cell
    counts, replayed in SQL as guarded sign splits."""
    from rasters_ray.stages import cutfill_images

    def after(image_id: str, arr):
        d = int(image_id[3:])
        r = np.arange(arr.shape[0]).reshape(-1, 1)
        c = np.arange(arr.shape[1]).reshape(1, -1)
        return (d * 37 + r * 11 + c * 5) % 241

    return cutfill_images(_images_ds(sf_dir, N_IMG_MERGE), after)


def q_block_flow(sf_dir: str):
    """SAD block-matching motion field (match.py::block_flow_images)
    between each oracle scene and the cutfill second surface
    (d*37 + r*11 + c*5) % 241: per 12x12 interior block the exact
    int64 SAD argmin over [-2,2]^2 displacements, ties to the
    lexicographically smallest (dy, dx) — SQL replays with a
    displacement cross join and ORDER BY sad, dy, dx."""
    from rasters_ray.stages.match import block_flow_images

    def after(image_id: str, arr):
        d = int(image_id[3:])
        r = np.arange(arr.shape[0]).reshape(-1, 1)
        c = np.arange(arr.shape[1]).reshape(1, -1)
        return (d * 37 + r * 11 + c * 5) % 241

    return block_flow_images(_images_ds(sf_dir, N_IMG_MERGE), after,
                             block=12, radius=2)


def q_harris(sf_dir: str):
    """Harris corners (corners.py::harris_images): 25-scaled integer
    response (k=0.04=1/25 kept integral), strict 8-neighbor maxima
    above 0 — SQL replays Sobel/structure-tensor sums from the pixel
    formula and the NMS as a NOT EXISTS neighbor join."""
    from rasters_ray.stages.corners import harris_images

    return harris_images(_images_ds(sf_dir, N_IMG_MERGE), threshold=0)


def q_fast_corners(sf_dir: str):
    """FAST-9 segment-test corners (corners.py::fast9_images) at t=80
    on the decorrelated surface (px*px) % 251 (the oracle scenes are
    locally linear, so the raw surface has no 9-arcs); the 16-bit
    circular bright/dark masks and longest-run lengths replay in SQL
    with the identical doubled-mask AND-shift bit arithmetic."""
    from rasters_ray.stages.corners import fast9_images

    return fast9_images(_images_ds(sf_dir, N_IMG_MERGE), t=80,
                        transform=lambda px: (px * px) % 251)


QA_FIELDS = [("fill", 0, 1), ("cloud_conf", 1, 2), ("cloud", 3, 1),
             ("shadow", 4, 1), ("snow_conf", 5, 2), ("water", 7, 1)]


def q_aspect(sf_dir: str):
    """gdaldem aspect classified into the nine compass codes (flat + 8
    sectors with 22.5° boundaries), distributed via the radius-1 halo
    exchange and a tiny (image_id, class) groupby
    (terrain.py::aspect_histogram_tiled).  The 22.5° boundary is the
    IEEE comparison |minor| < |major| * tan22.5 with the tangent as a
    correctly-rounded double literal — bit-portable to SQL, unlike
    atan2."""
    from rasters_ray.stages.terrain import aspect_histogram_tiled

    return aspect_histogram_tiled(_images_ds(sf_dir, N_IMG_FOCAL), tile=32)


def _stack_key8(image_id: str):
    """32 scenes -> 8 co-registered stacks of 4 epochs (d%8, d//8)."""
    d = int(image_id[3:])
    return d % 8, d // 8


def q_median_composite(sf_dir: str):
    """Landsat-style median composite over co-registered time-series
    stacks (temporal.py::stack_median_histogram): scenes tile-decompose,
    tiles co-partition on (stack, tile) in one shuffle, per-pixel LOWER
    medians histogram per stack.  SQL replays the lower median as the
    rn = (cnt+1)//2 row of a per-pixel window sort."""
    from rasters_ray.stages.temporal import stack_median_histogram

    return stack_median_histogram(_images_ds(sf_dir, N_IMG_MERGE), _stack_key8, tile=25)


def q_pixel_trend(sf_dir: str):
    """Per-pixel change-trend summary across epochs
    (temporal.py::stack_trend_summary): integer OLS slope numerators
    n*sum(t*v) - sum(t)*sum(v), counted by sign per stack."""
    from rasters_ray.stages.temporal import stack_trend_summary

    return stack_trend_summary(_images_ds(sf_dir, N_IMG_MERGE), _stack_key8, tile=25)


def q_rle_profile(sf_dir: str):
    """Row-wise run-length profile (features.py::rle_row_stats — the
    storage-planning statistic behind RLE/PackBits encoders): per
    image the run count, longest run and constant-row count.  SQL
    rebuilds runs with a LAG start marker and a running-sum run id."""
    from rasters_ray.stages.features import rle_row_stats
    from rasters_ray import codec as _codec

    def run(t: pa.Table) -> pa.Table:
        ids, nr, mx, nc = [], [], [], []
        for i in range(t.num_rows):
            px = _codec.decode(t.column("bytes")[i].as_py(),
                               t.column("fmt")[i].as_py())
            n, m, c = rle_row_stats(np.rint(px).astype(np.int64))
            ids.append(t.column("image_id")[i].as_py())
            nr.append(n)
            mx.append(m)
            nc.append(c)
        return pa.table({
            "image_id": pa.array(ids, pa.string()),
            "n_runs": pa.array(nr, pa.int64()),
            "max_run": pa.array(mx, pa.int64()),
            "n_const_rows": pa.array(nc, pa.int64()),
        })

    return _images_ds(sf_dir, N_IMG_MERGE).map_batches(
        run, batch_format="pyarrow")


def q_expand(sf_dir: str):
    """ArcGIS-style categorical Expand: classes {0,2,5} of (v % 7) grow
    one queen-adjacency cell, multi-class collisions resolve to the
    smallest class; per-image class histogram after the step
    (morphology.py::expand_classes — pure order statistics, exact)."""
    from rasters_ray.stages.morphology import expand_histogram

    return expand_histogram(_images_ds(sf_dir, N_IMG_MERGE), {0, 2, 5}, 7)


def q_clark_evans(sf_dir: str):
    """Clark-Evans nearest-neighbor index (1954) of the oracle point
    cloud: exact int64 millidegree NN distances (floor-scaled sqrt
    replayed in SQL), bbox-area expectation, one R-index row.  The
    reference cloud broadcasts like nearest_join's sites; the point
    stream never shuffles (spatial_stats.py::clark_evans_stats)."""
    import pyarrow.parquet as _pq

    from rasters_ray.sources.vectors import oracle_points_from_keys
    from rasters_ray.stages.spatial_stats import clark_evans_stats

    keys = _pq.read_table(
        f"{sf_dir}/customer.parquet", columns=["c_custkey"]
    ).column("c_custkey").to_numpy()
    ref = oracle_points_from_keys(keys)  # broadcast small side
    return clark_evans_stats(_points_ds(sf_dir), ref)


def q_seam_energy(sf_dir: str):
    """Seam carving DP (Avidan-Shamir) per image: integer L1 gradient
    energy, M[r,c] = e + min(M[r-1,c-1..c+1]); min seam cost, its entry
    column (ties -> smallest) and last-row mass.  The oracle replays
    the SAME recurrence as a recursive CTE over per-row energy LISTs
    (stages/seam.py)."""
    from rasters_ray.stages.seam import seam_energy_stats

    return seam_energy_stats(_images_ds(sf_dir, N_IMG_MERGE))


def q_hypsometric(sf_dir: str):
    """Hypsometric integral + decile curve per DEM image (Strahler
    1952; terrain.py::hypsometric_stats): HI as an exact integer ratio
    (sum - n*min) / (n*(max-min)), curve via the cross-multiplied
    compare n_bins*(v-min) > k*(max-min) — no float thresholds."""
    from rasters_ray.stages.terrain import hypsometric_stats

    return hypsometric_stats(_images_ds(sf_dir, N_IMG_MERGE))


def q_mann_kendall(sf_dir: str):
    """Per-pixel Mann-Kendall trend test over co-registered epoch stacks
    (temporal.py::stack_mann_kendall): S = sum over time-ordered pairs
    of sign(v_j - v_i), pure int64; per-stack histogram of S.  SQL
    replays the pair signs as a t1 < t2 self-join on the pixel formula."""
    from rasters_ray.stages.temporal import stack_mann_kendall

    return stack_mann_kendall(_images_ds(sf_dir, N_IMG_MERGE), _stack_key8, tile=25)


def q_theil_sen(sf_dir: str):
    """Theil-Sen robust slope over epoch stacks
    (temporal.py::stack_theil_sen): the lower median of pairwise slopes
    selected by exact cross-multiplication and reported as a reduced
    fraction histogram per stack.  SQL replays the selection with the
    order-statistic characterization #{<} <= 2 < #{<=} over a
    pairs x pairs self-join and reduces with gcd."""
    from rasters_ray.stages.temporal import stack_theil_sen

    return stack_theil_sen(_images_ds(sf_dir, N_IMG_MERGE), _stack_key8, tile=25)


def q_qa_bitmask(sf_dir: str):
    """QA bitfield tabulation (radiometry.py::qa_tabulate_images — the
    Landsat QA_PIXEL decode): per image, pixel counts per (field, code)
    for six packed flag fields; SQL replays the shifts as // and %."""
    from rasters_ray.stages.radiometry import qa_tabulate_images

    return qa_tabulate_images(_images_ds(sf_dir, N_IMG_MERGE), QA_FIELDS)


def _nd_band2(px):
    """Second co-registered band derived from the decoded first:
    b = (a * 3) % 251.  a = 0 -> b = 0 exercises the undefined
    (a + b == 0) bin; pure int64, SQL-exact."""
    return (np.rint(px).astype(np.int64) * 3) % 251


def q_nd_index(sf_dir: str):
    """Normalized-difference spectral index histogram (NDVI/NDWI family,
    radiometry.py::nd_index_images): nd = (a - b)/(a + b) binned into 10
    equal-width bins on [-1, 1] per scene WITHOUT materializing the float
    ratio — bin = (10*a) // (a+b), clipped to 9, a+b == 0 reported as
    bin -1.  Bit-stable under any tiling; one map_batches, no shuffle."""
    from rasters_ray.stages.radiometry import nd_index_images

    return nd_index_images(_images_ds(sf_dir, N_IMG_MERGE), _nd_band2, k=10)


def _crosstab_classify(arr):
    """Two categorical layers from one formula raster: zone = value//51
    (5 codes), class = value % 7 (7 codes). Pure int64 — SQL-exact."""
    v = np.rint(arr).astype(np.int64)
    return v // 51, v % 7


def q_crosstab(sf_dir: str):
    """Tabulate Area (ArcGIS) / GRASS r.stats contingency table: pixel
    counts per (zone, class) pair across every oracle image, with the
    two categorical layers derived from the formula pixels. Partial
    crosstabs combine inside map_batches; only distinct pairs shuffle."""
    from rasters_ray.stages import crosstab_images

    return crosstab_images(_images_ds(sf_dir, N_IMG_MERGE), _crosstab_classify)


def q_antimeridian(sf_dir: str):
    """Antimeridian-crossing predicate over synthetic near-180 grids."""
    from rasters_ray.grids import GridSpec
    from rasters_ray.grids.geomops import crosses_antimeridian

    def f(t: pa.Table) -> pa.Table:
        d = t.column("doc_id").to_numpy()
        d = d[d < 64]
        ids, crosses = [], []
        for dd in d:
            x0 = 177.0 + float(dd % 16) * 0.25
            g = GridSpec("EPSG:4326", x0, 10.0, 0.01, -0.01, 100, 100)
            ids.append(int(dd))
            crosses.append(bool(crosses_antimeridian(g)))
        return pa.table(
            {"doc_id": pa.array(ids, pa.int64()), "crosses": pa.array(crosses, pa.bool_())}
        )

    return _read(sf_dir, "documents", ["doc_id"]).map_batches(f, batch_format="pyarrow")


def q_events_sessions(sf_dir: str):
    """Session windows (30-min gap) per user — one ``exchange`` by user
    with a fully vectorized multi-user kernel (lexsort + reduceat), not a
    per-user Python group loop (one group per user does not scale)."""
    from rasters_ray.util import exchange, run_starts

    def sessions(group: pa.Table) -> pa.Table:
        u = group.column("user_id").to_numpy(zero_copy_only=False).astype(np.int64)
        ts = group.column("ts")
        s = ts.cast(pa.int64()).to_numpy() // _ts_unit(ts.type)
        order = np.lexsort((s, u))
        us, ss = u[order], s[order]
        starts = run_starts(us)
        session_start = np.diff(ss, prepend=ss[:1]) > 1800
        session_start[starts] = True
        n_events = np.diff(np.r_[starts, len(us)])
        n_sessions = np.add.reduceat(session_start.astype(np.int64), starts)
        return pa.table(
            {
                "user_id": pa.array(us[starts], pa.int64()),
                "n_events": pa.array(n_events, pa.int64()),
                "n_sessions": pa.array(n_sessions, pa.int64()),
            }
        )

    return exchange(_read(sf_dir, "events", ["user_id", "ts"]), "user_id", sessions)


def q_image_footprint_join(sf_dir: str):
    """Semi-join of points against image footprints via the broadcast
    R-tree + PIP join (footprints as axis-aligned polygons)."""
    from ray.data.aggregate import Count

    from rasters_ray.sources.images import oracle_grid_origin
    from rasters_ray.sources.vectors import RING_TYPE
    from rasters_ray.stages import pip_join

    ids, rings = [], []
    for d in range(N_IMG_TILE):
        x0, y0 = oracle_grid_origin(d)
        ids.append(f"img{d:08d}")
        rings.append(
            [[{"x": x0, "y": y0 - 1.0}, {"x": x0 + 1.0, "y": y0 - 1.0},
              {"x": x0 + 1.0, "y": y0}, {"x": x0, "y": y0}, {"x": x0, "y": y0 - 1.0}]]
        )
    polys = pa.table(
        {
            "poly_id": pa.array(ids, pa.string()),
            "rings": pa.array(rings, RING_TYPE),
            "crs": pa.array(["EPSG:4326"] * len(ids), pa.string()),
        }
    )
    joined = pip_join(_points_ds(sf_dir), polys, mode="inner")
    res = joined.groupby("poly_id").aggregate(Count(alias_name="n_points"))
    return res.map_batches(
        lambda t: t.rename_columns(["image_id", "n_points"]), batch_format="pyarrow"
    )


def q_trim(sf_dir: str):
    """NaN-border trim: mask top d%5 rows and right d%7 cols, trim back."""
    from rasters_ray import codec
    from rasters_ray.grids import GridSpec
    from rasters_ray.grids.geomops import trim

    def f(t: pa.Table) -> pa.Table:
        out = {"image_id": [], "row_off": [], "col_off": [], "height": [], "width": []}
        for i in range(t.num_rows):
            d = int(t.column("image_id")[i].as_py()[3:])
            arr = codec.decode(t.column("bytes")[i].as_py(), t.column("fmt")[i].as_py())
            arr = arr.astype(np.float64)
            if d % 5:
                arr[: d % 5, :] = np.nan
            if d % 7:
                arr[:, -(d % 7):] = np.nan
            grid = GridSpec.from_dict(t.column("grid")[i].as_py() | {"type": "grid"})
            trimmed, sub = trim(arr, grid)
            out["image_id"].append(t.column("image_id")[i].as_py())
            out["row_off"].append(int(round((sub.y_origin - grid.y_origin) / grid.cell_height)))
            out["col_off"].append(int(round((sub.x_origin - grid.x_origin) / grid.cell_width)))
            out["height"].append(trimmed.shape[0])
            out["width"].append(trimmed.shape[1])
        return pa.table(
            {
                "image_id": pa.array(out["image_id"], pa.string()),
                "row_off": pa.array(out["row_off"], pa.int64()),
                "col_off": pa.array(out["col_off"], pa.int64()),
                "height": pa.array(out["height"], pa.int64()),
                "width": pa.array(out["width"], pa.int64()),
            }
        )

    return _images_ds(sf_dir, N_IMG_MERGE).map_batches(f, batch_format="pyarrow")


def q_merge_grids(sf_dir: str):
    """Merged-bbox covering grid derivation (BBox.merge + RasterGrid.merge):
    streaming Min/Max aggregate over per-image bboxes."""
    from ray.data.aggregate import Count, Max, Min

    from rasters_ray.grids import GridSpec

    def f(t: pa.Table) -> pa.Table:
        xs0, ys0, xs1, ys1 = [], [], [], []
        for g in t.column("grid").to_pylist():
            grid = GridSpec.from_dict({**g, "type": "grid"})
            b = grid.bbox
            xs0.append(b[0])
            ys0.append(b[1])
            xs1.append(b[2])
            ys1.append(b[3])
        return pa.table(
            {
                "xmin": pa.array(xs0, pa.float64()),
                "ymin": pa.array(ys0, pa.float64()),
                "xmax": pa.array(xs1, pa.float64()),
                "ymax": pa.array(ys1, pa.float64()),
            }
        )

    boxes = _images_ds(sf_dir, N_IMG_TILE).map_batches(f, batch_format="pyarrow")
    agg = boxes.aggregate(
        Min("xmin", alias_name="merged_xmin"),
        Min("ymin", alias_name="merged_ymin"),
        Max("xmax", alias_name="merged_xmax"),
        Max("ymax", alias_name="merged_ymax"),
        Count(alias_name="n_images"),
    )
    return pa.table({k: pa.array([v]) for k, v in agg.items()})


def q_idw_sample(sf_dir: str):
    """IDW point sampling (float-dtype to_point path). Value-exact as of
    round 4: fixed oracle inputs, per-(image, point) compute with no
    cross-row float reduction -> golden VALUES oracle."""
    from rasters_ray.stages.sampling import idw_sample

    pts = pa.table(
        {
            "point_id": pa.array([f"q{i}" for i in range(8)], pa.string()),
            "x": pa.array([-123.7 + i * 0.05 for i in range(8)], pa.float64()),
            "y": pa.array([43.7 - i * 0.03 for i in range(8)], pa.float64()),
        }
    )
    return idw_sample(_images_ds(sf_dir, 4), pts)


def q_idw_exact(sf_dir: str):
    """IDW with every query point exactly on a pixel centroid of image 0 —
    the exact-hit shortcut returns that pixel (raster.py:1520-1538
    centroid sampling), so DuckDB recomputes values from the pixel
    formula. Centroid coords use the SAME float64 expression as
    GridSpec.xy() (x0 + (c + 0.5) * cw) for d2 == 0 exactly."""
    import pyarrow.parquet as pq

    from rasters_ray.stages.sampling import idw_sample

    keys = pq.read_table(f"{sf_dir}/customer.parquet", columns=["c_custkey"]).column(
        "c_custkey"
    ).to_numpy()
    keys = np.sort(keys[keys % 7 == 0])  # order-free deterministic subset
    r = (keys // 7) % 100
    c = keys % 100
    pts = pa.table(
        {
            "point_id": pa.array([f"k{int(k)}" for k in keys], pa.string()),
            "x": pa.array(QX0 + (c + 0.5) * QCELL, pa.float64()),
            "y": pa.array(QY0 - (r + 0.5) * QCELL, pa.float64()),
        }
    )
    sampled = idw_sample(_images_ds(sf_dir, 1), pts)

    def to_int(t: pa.Table) -> pa.Table:
        v = np.rint(t.column("value").to_numpy(zero_copy_only=False)).astype(np.int64)
        key = np.asarray([int(p[1:]) for p in t.column("point_id").to_pylist()], np.int64)
        return pa.table(
            {"custkey": pa.array(key, pa.int64()), "value": pa.array(v, pa.int64())}
        )

    return sampled.map_batches(to_int, batch_format="pyarrow")


def q_lsh_ann(sf_dir: str):
    """Approximate ANN via random-hyperplane LSH buckets.  Value-exact
    golden oracle as of round 4: bucket membership is a per-row
    predicate, scores are fixed-order float64, partials tie-inclusive —
    bit-equal to lsh_topk_local at any layout (tests/test_ann.py)."""
    import pyarrow.parquet as pq

    from rasters_ray.ann import lsh_topk

    emb = pq.read_table(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    q = np.stack([np.asarray(emb.column("embedding")[i].as_py()) for i in range(4)])
    return lsh_topk(_read(sf_dir, "embeddings", ["vec_id", "embedding"]), q, k=5, n_planes=6)


def q_ivf_ann(sf_dir: str):
    """IVF-Flat ANN: distributed spherical-k-means lists + nprobe probe
    filter + exact rerank.  Value-exact golden oracle as of round 4
    (bit-deterministic centroids + per-row probe predicate + tie-safe
    rerank == ivf_topk_local); recall@10 >= 0.9 asserted in tests."""
    import pyarrow.parquet as pq

    from rasters_ray.ann import ivf_topk

    emb = pq.read_table(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    q = np.stack([np.asarray(emb.column("embedding")[i].as_py()) for i in range(4)])
    return ivf_topk(
        _read(sf_dir, "embeddings", ["vec_id", "embedding"]),
        q, k=5, n_centroids=16, nprobe=6, iters=2,
    )


def q_local_utm(sf_dir: str):
    def f(t: pa.Table) -> pa.Table:
        x = t.column("x").to_numpy()
        y = t.column("y").to_numpy()
        zone = np.clip(np.floor((x + 180.0) / 6.0).astype(np.int64), 1, 60)
        south = y < 0
        return pa.table(
            {
                "point_id": t.column("point_id"),
                "zone": pa.array(zone, pa.int64()),
                "south": pa.array(south, pa.bool_()),
            }
        )

    return _points_ds(sf_dir).map_batches(f, batch_format="pyarrow")


def q_swath_nearest(sf_dir: str):
    """kNN nearest-cell lookup against a broadcast swath (GridNNIndex)."""
    import ray

    from rasters_ray.grids import SwathSpec
    from rasters_ray.util import fetch

    swath = SwathSpec.from_vectors(
        QX0 + np.arange(SW_N) * SW_STEP, QY0 - np.arange(SW_N) * SW_STEP
    )
    swath._index()  # build once on the driver
    ref = ray.put(swath)

    def lookup(t: pa.Table) -> pa.Table:
        k = t.column("c_custkey").to_numpy().astype(np.int64)
        px = QX0 + (k % 50).astype(np.float64) * SW_STEP + 0.003
        py = QY0 - ((k // 7) % 50).astype(np.float64) * SW_STEP - 0.003
        sr, sc = fetch(ref).index_points(px, py)
        return pa.table(
            {
                "point_id": pa.array([f"pt{int(i):06d}" for i in k], pa.string()),
                "srow": pa.array(sr, pa.int64()),
                "scol": pa.array(sc, pa.int64()),
            }
        )

    return _read(sf_dir, "customer", ["c_custkey"]).map_batches(lookup, batch_format="pyarrow")


def q_pip_boxes(sf_dir: str):
    from ray.data.aggregate import Count

    from rasters_ray.sources.vectors import RING_TYPE
    from rasters_ray.stages import pip_join

    polys = pa.table(
        {
            "poly_id": pa.array([b[0] for b in PIP_BOXES], pa.string()),
            "rings": pa.array(
                [
                    [[{"x": x0, "y": y0}, {"x": x1, "y": y0}, {"x": x1, "y": y1},
                      {"x": x0, "y": y1}, {"x": x0, "y": y0}]]
                    for _, x0, y0, x1, y1 in PIP_BOXES
                ],
                RING_TYPE,
            ),
            "crs": pa.array(["EPSG:4326"] * len(PIP_BOXES), pa.string()),
        }
    )
    joined = pip_join(_points_ds(sf_dir), polys, mode="inner")
    return joined.groupby("poly_id").aggregate(Count(alias_name="n_points"))


def q_dedup_exact(sf_dir: str):
    """Exact dedup groups via the hash-partitioned vectorized reduce
    (one group per unique document is too many for a per-key aggregate)."""
    from rasters_ray.text import exact_dedup_groups

    return exact_dedup_groups(_read(sf_dir, "documents", ["doc_id", "text"]))


def q_token_stats(sf_dir: str):
    from rasters_ray.text import token_stats

    return (
        _read(sf_dir, "documents", ["doc_id", "text"])
        .map_batches(token_stats, batch_format="pyarrow")
        .map_batches(
            lambda t: t.select(["doc_id", "n_tokens", "n_chars", "n_upper", "n_stop"]),
            batch_format="pyarrow",
        )
    )


def q_ngram_jaccard(sf_dir: str):
    """Pairwise word-3-gram Jaccard over docs 0..15 — distributed
    explode/groupby shape; DuckDB recomputes the gram sets with
    string_split_regex + generate_series."""
    from rasters_ray.text import ngram_jaccard_pairs

    import pyarrow.compute as pc

    docs = _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        lambda t: t.filter(pc.less(t.column("doc_id"), 16)), batch_format="pyarrow"
    )
    return ngram_jaccard_pairs(docs, n=3)


def q_heavy_hitters(sf_dir: str):
    """Exact top-20 tokens by count via Misra-Gries sketch + recount."""
    from rasters_ray.text import heavy_hitter_tokens

    return heavy_hitter_tokens(
        _read(sf_dir, "documents", ["text"]), k=20, capacity=512
    )


def q_quality(sf_dir: str):
    """Gopher-style quality score — SQL recomputes the same indicator
    bands and float arithmetic."""
    from rasters_ray.text import quality_score

    return (
        _read(sf_dir, "documents", ["doc_id", "text"])
        .map_batches(quality_score, batch_format="pyarrow")
        .map_batches(lambda t: t.select(["doc_id", "quality"]), batch_format="pyarrow")
    )


def q_fill_from(sf_dir: str):
    """mask -> fill pipeline: image 0 with value%7==0 pixels NaN'd, holes
    filled from a shifted copy via the co-shuffle zip join
    (raster.py:1917-1924 semantics) — exploded to int rows."""
    from rasters_ray.stages.elementwise import apply_fn, fill_from, mask_nan

    a = mask_nan(_images_ds(sf_dir, 1), lambda v: v % 7 != 0)
    b = apply_fn(_images_ds(sf_dir, 1), lambda v: (v + 31) % 251)
    return _explode_rc_value(fill_from(a, b))


def q_multimodal_decode(sf_dir: str):
    """ImageDecodeStage over 8 oracle images: per-image shape + exact
    float mean (int sum / 10000) — the multimodal decode plumbing with a
    value oracle instead of pytest-only coverage."""
    from rasters_ray.multimodal import ImageDecodeStage

    return (
        _images_ds(sf_dir, 8)
        .map_batches(ImageDecodeStage(), batch_format="pyarrow")
        .map_batches(
            lambda t: t.select(["image_id", "dec_h", "dec_w", "dec_mean"]),
            batch_format="pyarrow",
        )
    )


def q_multimodal_resize(sf_dir: str):
    """ImageResizeStage (nearest, index map (r*h)//out) 100 -> 32 over
    image 0, exploded to (r, c, value) int rows for the SQL oracle."""
    from rasters_ray.multimodal import ImageResizeStage

    resized = _images_ds(sf_dir, 1).map_batches(
        ImageResizeStage(32, 32), batch_format="pyarrow"
    )
    return _explode_rc_value(resized)


def q_jpeg_render(sf_dir: str):
    """to_geojpeg display path over 6 oracle images: min-max stretch ->
    pure-numpy baseline JPEG encode (codec.jpeg_codec) -> decode back;
    per-image integer pixel stats against a GOLDEN oracle (the whole
    chain is deterministic IEEE float64 + integer quantization, computed
    once sequentially and inlined as SQL literals)."""
    from rasters_ray.codec import jpeg_codec
    from rasters_ray.stages.sampling import render_jpeg

    def stats(t: pa.Table) -> pa.Table:
        out = {"image_id": [], "h": [], "w": [], "px_sum": [], "px_min": [],
               "px_max": []}
        for i in range(t.num_rows):
            img = jpeg_codec.decode(t.column("bytes")[i].as_py())
            out["image_id"].append(t.column("image_id")[i].as_py())
            out["h"].append(img.shape[0])
            out["w"].append(img.shape[1])
            out["px_sum"].append(int(img.sum()))
            out["px_min"].append(int(img.min()))
            out["px_max"].append(int(img.max()))
        return pa.table(
            {
                "image_id": pa.array(out["image_id"], pa.string()),
                "h": pa.array(out["h"], pa.int64()),
                "w": pa.array(out["w"], pa.int64()),
                "px_sum": pa.array(out["px_sum"], pa.int64()),
                "px_min": pa.array(out["px_min"], pa.int64()),
                "px_max": pa.array(out["px_max"], pa.int64()),
            }
        )

    return (
        _images_ds(sf_dir, 6)
        .map_batches(render_jpeg, batch_format="pyarrow")
        .map_batches(stats, batch_format="pyarrow")
    )


def q_cmap_render(sf_dir: str):
    """Colormap rendering (viridis LUT, stages.colormap) to RGB PNG over
    4 oracle images; per-channel integer sums vs a golden oracle (PNG is
    lossless, the LUT gather exact)."""
    from rasters_ray import codec as _codec
    from rasters_ray.stages.sampling import make_render

    def stats(t: pa.Table) -> pa.Table:
        out = {"image_id": [], "sum_r": [], "sum_g": [], "sum_b": []}
        for i in range(t.num_rows):
            rgb = _codec.decode(t.column("bytes")[i].as_py(), "png")
            s = rgb.astype(np.int64).sum(axis=(0, 1))
            out["image_id"].append(t.column("image_id")[i].as_py())
            out["sum_r"].append(int(s[0]))
            out["sum_g"].append(int(s[1]))
            out["sum_b"].append(int(s[2]))
        return pa.table(
            {
                "image_id": pa.array(out["image_id"], pa.string()),
                "sum_r": pa.array(out["sum_r"], pa.int64()),
                "sum_g": pa.array(out["sum_g"], pa.int64()),
                "sum_b": pa.array(out["sum_b"], pa.int64()),
            }
        )

    return (
        _images_ds(sf_dir, 4)
        .map_batches(make_render("png", cmap="viridis"), batch_format="pyarrow")
        .map_batches(stats, batch_format="pyarrow")
    )


def q_cosine_near(sf_dir: str):
    """Embedding-cosine near-dup pairs over the embeddings table with 20
    planted perturbed copies (ids 100000+i, seeded noise) — the LSH-bucket
    + exact-verify dedup shape.  Value-exact golden oracle as of round 4:
    bucket membership and pair cosines are fixed-order einsum (bit-stable
    for any group row order), matching cosine_near_dups_local."""
    import ray.data as rd

    from rasters_ray.ann import cosine_near_dups

    def plant(t: pa.Table) -> pa.Table:
        ids = t.column("vec_id").to_numpy(zero_copy_only=False)
        sel = np.flatnonzero(ids < 20)
        if len(sel) == 0:
            return t.select(["vec_id", "embedding"])
        emb = t.column("embedding")
        rows = {"vec_id": [], "embedding": []}
        for i in sel:
            v = np.asarray(emb[int(i)].as_py(), dtype=np.float32)
            rng = np.random.default_rng(int(ids[i]))
            rows["vec_id"].append(int(100000 + ids[i]))
            rows["embedding"].append(
                (v + 0.01 * rng.standard_normal(len(v)).astype(np.float32)).tolist()
            )
        planted = pa.table(
            {
                "vec_id": pa.array(rows["vec_id"], pa.int64()),
                "embedding": pa.array(rows["embedding"], pa.list_(pa.float32())),
            }
        )
        base = t.select(["vec_id", "embedding"]).cast(planted.schema)
        return pa.concat_tables([base, planted])

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"]).map_batches(
        plant, batch_format="pyarrow"
    )
    return cosine_near_dups(ds, threshold=0.95)


def q_events_window(sf_dir: str):
    """Tumbling 1-hour windows per event_type (count/min/max are exact and
    order-independent; sums are not, so they stay out of the oracle).

    Window-key cardinality grows with the time span, so the reduce is one
    ``exchange`` by window: per-batch partial (count, min, max) per
    (type, window), then one lexsort + reduceat pass per partition."""
    from rasters_ray.util import exchange, run_starts

    def partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:  # map_batches can see empty blocks
            return pa.table(
                {
                    "event_type": pa.array([], pa.string()),
                    "window_start": pa.array([], pa.int64()),
                    "n": pa.array([], pa.int64()),
                    "vmin": pa.array([], pa.float64()),
                    "vmax": pa.array([], pa.float64()),
                }
            )
        per_sec = _ts_unit(t.column("ts").type)
        ts = t.column("ts").cast(pa.int64()).to_numpy()
        win = ts // (3600 * per_sec)
        et = np.asarray(t.column("event_type").to_pylist(), dtype=object)
        val = t.column("value").to_numpy(zero_copy_only=False)
        order = np.lexsort((win, et))
        ets, wins, vals = et[order], win[order], val[order]
        starts = run_starts(ets, wins)
        n = np.diff(np.r_[starts, len(wins)])
        return pa.table(
            {
                "event_type": pa.array(ets[starts].tolist(), pa.string()),
                "window_start": pa.array(wins[starts], pa.int64()),
                "n": pa.array(n, pa.int64()),
                "vmin": pa.array(np.minimum.reduceat(vals, starts), pa.float64()),
                "vmax": pa.array(np.maximum.reduceat(vals, starts), pa.float64()),
            }
        )

    def final(group: pa.Table) -> pa.Table:
        et = np.asarray(group.column("event_type").to_pylist(), dtype=object)
        win = group.column("window_start").to_numpy()
        order = np.lexsort((win, et))
        ets, wins = et[order], win[order]
        n = group.column("n").to_numpy()[order]
        vmin = group.column("vmin").to_numpy()[order]
        vmax = group.column("vmax").to_numpy()[order]
        starts = run_starts(ets, wins)
        return pa.table(
            {
                "event_type": pa.array(ets[starts].tolist(), pa.string()),
                "window_start": pa.array(wins[starts], pa.int64()),
                "n": pa.array(np.add.reduceat(n, starts), pa.int64()),
                "min_value": pa.array(np.minimum.reduceat(vmin, starts), pa.float64()),
                "max_value": pa.array(np.maximum.reduceat(vmax, starts), pa.float64()),
            }
        )

    partials = _read(sf_dir, "events", ["ts", "event_type", "value"]).map_batches(
        partial, batch_format="pyarrow"
    )
    return exchange(partials, "window_start", final)


def q_rank_fusion(sf_dir: str):
    """Borda rank fusion of two retrieval score lists
    (relational/aggregates.py::borda_fusion): competition ranks via
    broadcast histograms — a global ranking with zero heavy shuffles.
    Scores are the deterministic grades sa = (d*13 + 5) % 101,
    sb = (d*29 + 7) % 103; the oracle replays with rank() windows."""
    from rasters_ray.relational.aggregates import borda_fusion

    def scores(t: pa.Table) -> pa.Table:
        d = t.column("doc_id").to_numpy().astype(np.int64)
        return pa.table({
            "doc_id": pa.array(d, pa.int64()),
            "sa": pa.array((d * 13 + 5) % 101, pa.int64()),
            "sb": pa.array((d * 29 + 7) % 103, pa.int64()),
        })

    ds = _read(sf_dir, "documents", ["doc_id"]).map_batches(
        scores, batch_format="pyarrow")
    return borda_fusion(ds, "doc_id", ["sa", "sb"])


def q_late_interaction(sf_dir: str):
    """ColBERT MaxSim late interaction (ann/search.py::
    late_interaction_scores): per document 8 deterministic token
    embeddings e[t, i] = (doc*7 + t*13 + i*3) % 17 - 8 (dim 16) scored
    against 4 broadcast query tokens q[t, i] = (t*5 + i*11) % 17 - 8;
    score = sum over query tokens of the max token dot.  All int64;
    the oracle replays dot -> MAX -> SUM with a dims x tokens join."""
    from rasters_ray.ann.search import late_interaction_scores

    qt = (((np.arange(4)[:, None] * 5 + np.arange(16)[None, :] * 11) % 17)
          - 8).astype(np.int64)

    def tok_fn(ids):
        d = ids[:, None, None]
        t = np.arange(8)[None, :, None]
        i = np.arange(16)[None, None, :]
        return ((d * 7 + t * 13 + i * 3) % 17) - 8

    def run(t: pa.Table) -> pa.Table:
        ids = t.column("doc_id").to_numpy().astype(np.int64)
        scores, arg0 = late_interaction_scores(ids, tok_fn, qt)
        return pa.table({
            "doc_id": pa.array(ids, pa.int64()),
            "score": pa.array(scores, pa.int64()),
            "arg_t0": pa.array(arg0, pa.int64()),
        })

    return _read(sf_dir, "documents", ["doc_id"]).map_batches(
        run, batch_format="pyarrow")


def q_ann_topk(sf_dir: str):
    import pyarrow.parquet as pq

    from rasters_ray.ann import cosine_topk

    q = (
        pq.read_table(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
        .filter(pa.compute.equal(pa.compute.field("vec_id"), 0))
        .column("embedding")[0]
        .as_py()
    )
    emb = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    top = cosine_topk(emb, np.asarray([q], dtype=np.float32), k=10)
    return top.select(["rank", "vec_id"])


# ---- rows-only (non-SQL-expressible) ---------------------------------------


def q_lang_quality(sf_dir: str):
    from rasters_ray.text import lang_id, quality_score

    return (
        _read(sf_dir, "documents", ["doc_id", "text", "lang"])
        .map_batches(quality_score, batch_format="pyarrow")
        .map_batches(lang_id, batch_format="pyarrow")
        .map_batches(
            lambda t: t.select(["doc_id", "lang", "lang_pred", "quality"]),
            batch_format="pyarrow",
        )
    )


def q_fingerprint(sf_dir: str):
    from rasters_ray.text import add_fingerprints

    return (
        _read(sf_dir, "documents", ["doc_id", "text"])
        .map_batches(add_fingerprints, batch_format="pyarrow")
        .map_batches(lambda t: t.select(["doc_id", "fingerprint"]), batch_format="pyarrow")
    )


def q_simhash(sf_dir: str):
    """Charikar simhash with the md5 token-hash family (same quality as
    the blake2b default; md5 exists in DuckDB, so the oracle recomputes
    every 64-bit signature exactly)."""
    from rasters_ray.text import add_simhash

    return (
        _read(sf_dir, "documents", ["doc_id", "text"])
        .map_batches(lambda t: add_simhash(t, token_hash="md5"), batch_format="pyarrow")
        .map_batches(lambda t: t.select(["doc_id", "simhash"]), batch_format="pyarrow")
    )


def q_minhash_pairs(sf_dir: str):
    from rasters_ray.text import minhash_near_dups

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    return minhash_near_dups(docs, threshold=0.5)


def q_transform_utm(sf_dir: str):
    """Ellipsoidal UTM forward (Karney flattening series to n^6,
    proj/transverse_mercator.py) + inverse round-trip.  Emits FLOOR-CM
    int64 so the generated-SQL oracle — the identical series with literal
    alpha coefficients, hyperbolics expanded via exp/ln — matches
    value-exactly (residual is libm last-ulp noise ~1e-8 m vs the 1 cm
    floor step).  Upgraded from rows-only in round 4."""
    from rasters_ray.proj import transform_xy

    def f(t: pa.Table) -> pa.Table:
        x = t.column("x").to_numpy()
        y = t.column("y").to_numpy()
        e, n = transform_xy(x, y, "EPSG:4326", "EPSG:32610")
        lon, lat = transform_xy(e, n, "EPSG:32610", "EPSG:4326")
        return pa.table(
            {
                "point_id": t.column("point_id"),
                "easting_cm": pa.array(np.floor(e * 100.0).astype(np.int64), pa.int64()),
                "northing_cm": pa.array(np.floor(n * 100.0).astype(np.int64), pa.int64()),
                "roundtrip_ok": pa.array(
                    ((np.abs(lon - x) < 1e-8) & (np.abs(lat - y) < 1e-8))
                    | ~np.isfinite(lon),
                    pa.bool_(),
                ),
            }
        )

    return _points_ds(sf_dir).map_batches(f, batch_format="pyarrow")


MODIS_SINU_CRS = "+proj=sinu +R=6371007.181"
CONUS_LCC_CRS = "+proj=lcc +lat_1=33 +lat_2=45 +lat_0=39 +lon_0=-96"


def q_transform_sinu(sf_dir: str):
    """MODIS-grid sinusoidal forward (proj/sinusoidal.py, Snyder
    spherical form) + inverse round-trip check.  Output is FLOOR-CM int64
    so the DuckDB oracle — the same public formula with literal R,
    mirrored op-for-op including the longitude wrap — matches
    value-exactly (engine/SQL differ only by libm last-ulp noise, ~1e-9 m
    against a 1 cm floor step)."""
    from rasters_ray.proj import transform_xy

    def f(t: pa.Table) -> pa.Table:
        lon = t.column("x").to_numpy()
        lat = t.column("y").to_numpy()
        x, yv = transform_xy(lon, lat, "EPSG:4326", MODIS_SINU_CRS)
        lon2, lat2 = transform_xy(x, yv, MODIS_SINU_CRS, "EPSG:4326")
        ok = (np.abs(lon2 - lon) < 1e-7) & (np.abs(lat2 - lat) < 1e-7)
        return pa.table(
            {
                "point_id": t.column("point_id"),
                "x_cm": pa.array(np.floor(x * 100.0).astype(np.int64), pa.int64()),
                "y_cm": pa.array(np.floor(yv * 100.0).astype(np.int64), pa.int64()),
                "roundtrip_ok": pa.array(ok, pa.bool_()),
            }
        )

    return _points_ds(sf_dir).map_batches(f, batch_format="pyarrow")


def q_transform_merc(sf_dir: str):
    """Web-Mercator (EPSG:3857) forward + inverse round-trip
    (proj/mercator.py, Snyder 7-1/7-2).  Floor-cm int64 for the same
    bit-stability argument as ``transform_sinu``."""
    from rasters_ray.proj import transform_xy

    def f(t: pa.Table) -> pa.Table:
        lon = t.column("x").to_numpy()
        lat = t.column("y").to_numpy()
        x, yv = transform_xy(lon, lat, "EPSG:4326", "EPSG:3857")
        lon2, lat2 = transform_xy(x, yv, "EPSG:3857", "EPSG:4326")
        ok = (np.abs(lon2 - lon) < 1e-7) & (np.abs(lat2 - lat) < 1e-7)
        return pa.table(
            {
                "point_id": t.column("point_id"),
                "x_cm": pa.array(np.floor(x * 100.0).astype(np.int64), pa.int64()),
                "y_cm": pa.array(np.floor(yv * 100.0).astype(np.int64), pa.int64()),
                "roundtrip_ok": pa.array(ok, pa.bool_()),
            }
        )

    return _points_ds(sf_dir).map_batches(f, batch_format="pyarrow")


def q_transform_lcc(sf_dir: str):
    """Lambert conformal conic 2SP (proj/conic.py, Snyder 14-15/15-1..11)
    over a CONUS-style parameterisation, forward + inverse round-trip.
    Floor-cm int64; the oracle recomputes n, F, rho0 AND the per-point
    projection from the same public formulas entirely in SQL."""
    from rasters_ray.proj import transform_xy

    def f(t: pa.Table) -> pa.Table:
        lon = t.column("x").to_numpy()
        lat = t.column("y").to_numpy()
        x, yv = transform_xy(lon, lat, "EPSG:4326", CONUS_LCC_CRS)
        lon2, lat2 = transform_xy(x, yv, CONUS_LCC_CRS, "EPSG:4326")
        ok = (np.abs(lon2 - lon) < 1e-7) & (np.abs(lat2 - lat) < 1e-7)
        return pa.table(
            {
                "point_id": t.column("point_id"),
                "x_cm": pa.array(np.floor(x * 100.0).astype(np.int64), pa.int64()),
                "y_cm": pa.array(np.floor(yv * 100.0).astype(np.int64), pa.int64()),
                "roundtrip_ok": pa.array(ok, pa.bool_()),
            }
        )

    return _points_ds(sf_dir).map_batches(f, batch_format="pyarrow")


def q_transform_stere(sf_dir: str):
    """Polar stereographic north (proj/stereographic.py, Snyder 21-33..41)
    with the NSIDC EPSG:3413 parameterisation (lat_ts=70, lon_0=-45),
    forward + inverse round-trip.  Floor-cm int64; the oracle recomputes
    m_c, t_c and the per-point projection from the same public formulas
    in SQL."""
    from rasters_ray.proj import transform_xy

    def f(t: pa.Table) -> pa.Table:
        lon = t.column("x").to_numpy()
        lat = t.column("y").to_numpy()
        x, yv = transform_xy(lon, lat, "EPSG:4326", "EPSG:3413")
        lon2, lat2 = transform_xy(x, yv, "EPSG:3413", "EPSG:4326")
        ok = (np.abs(lon2 - lon) < 1e-7) & (np.abs(lat2 - lat) < 1e-7)
        return pa.table(
            {
                "point_id": t.column("point_id"),
                "x_cm": pa.array(np.floor(x * 100.0).astype(np.int64), pa.int64()),
                "y_cm": pa.array(np.floor(yv * 100.0).astype(np.int64), pa.int64()),
                "roundtrip_ok": pa.array(ok, pa.bool_()),
            }
        )

    return _points_ds(sf_dir).map_batches(f, batch_format="pyarrow")


def q_transform_aea(sf_dir: str):
    """Albers equal-area conic (proj/albers.py, Snyder 14-12..14) with
    the CONUS EPSG:5070 parameterisation, forward + inverse round-trip.
    Floor-cm int64; the oracle recomputes q, n, C, rho0 and the
    per-point projection from the same public formulas in SQL."""
    from rasters_ray.proj import transform_xy

    def f(t: pa.Table) -> pa.Table:
        lon = t.column("x").to_numpy()
        lat = t.column("y").to_numpy()
        x, yv = transform_xy(lon, lat, "EPSG:4326", "EPSG:5070")
        lon2, lat2 = transform_xy(x, yv, "EPSG:5070", "EPSG:4326")
        ok = (np.abs(lon2 - lon) < 1e-7) & (np.abs(lat2 - lat) < 1e-7)
        return pa.table(
            {
                "point_id": t.column("point_id"),
                "x_cm": pa.array(np.floor(x * 100.0).astype(np.int64), pa.int64()),
                "y_cm": pa.array(np.floor(yv * 100.0).astype(np.int64), pa.int64()),
                "roundtrip_ok": pa.array(ok, pa.bool_()),
            }
        )

    return _points_ds(sf_dir).map_batches(f, batch_format="pyarrow")


def q_transform_laea(sf_dir: str):
    """Lambert azimuthal equal-area (proj/equal_area.py, Snyder
    24-17..24-20 via authalic latitude 3-12) with the European
    EPSG:3035 parameterisation (lat_0=52 lon_0=10, false origin
    4321000/3210000 — the EPSG GN7-2 worked example is pinned in
    tests/test_proj.py), forward + inverse round-trip.  Floor-cm int64;
    the oracle recomputes qp, beta1, Rq, D, B and the per-point
    projection from the same public formulas in SQL."""
    from rasters_ray.proj import transform_xy

    def f(t: pa.Table) -> pa.Table:
        lon = t.column("x").to_numpy()
        lat = t.column("y").to_numpy()
        x, yv = transform_xy(lon, lat, "EPSG:4326", "EPSG:3035")
        lon2, lat2 = transform_xy(x, yv, "EPSG:3035", "EPSG:4326")
        ok = (np.abs(lon2 - lon) < 1e-7) & (np.abs(lat2 - lat) < 1e-7)
        return pa.table(
            {
                "point_id": t.column("point_id"),
                "x_cm": pa.array(np.floor(x * 100.0).astype(np.int64), pa.int64()),
                "y_cm": pa.array(np.floor(yv * 100.0).astype(np.int64), pa.int64()),
                "roundtrip_ok": pa.array(ok, pa.bool_()),
            }
        )

    return _points_ds(sf_dir).map_batches(f, batch_format="pyarrow")


_TMERC_CRS = "+proj=tmerc +lat_0=40 +lon_0=-120 +k_0=0.9999 +x_0=250000 +y_0=100000"
_GEOS_CRS = "+proj=geos +h=35786023 +lon_0=-137 +sweep=x"


def q_transform_tmerc(sf_dir: str):
    """General transverse Mercator, EPSG method 9807 (proj/
    transverse_mercator.py geographic_to_tmerc): arbitrary natural
    origin (lat_0=40), scale (k_0=0.9999) and false origin — the
    state-plane / NZTM parameterization; same Karney flattening series
    as UTM (bit-identical when parameterized as a zone, pinned in
    tests/test_proj.py). The oracle recomputes the full series in SQL —
    rectifying radius, alpha coefficients, sinh/atanh via exp/ln —
    from the same public formulas (Karney 2011). Outlier points 50 deg
    east are excluded on both sides to keep |lon - lon_0| small (the
    series' documented validity region). Floor-cm int64."""
    from rasters_ray.proj import transform_xy

    def f(t: pa.Table) -> pa.Table:
        lon = t.column("x").to_numpy()
        lat = t.column("y").to_numpy()
        keep = lon < -100.0
        lon, lat = lon[keep], lat[keep]
        x, yv = transform_xy(lon, lat, "EPSG:4326", _TMERC_CRS)
        lon2, lat2 = transform_xy(x, yv, _TMERC_CRS, "EPSG:4326")
        ok = (np.abs(lon2 - lon) < 1e-9) & (np.abs(lat2 - lat) < 1e-9)
        return pa.table(
            {
                "point_id": t.column("point_id").filter(pa.array(keep)),
                "x_cm": pa.array(np.floor(x * 100.0).astype(np.int64), pa.int64()),
                "y_cm": pa.array(np.floor(yv * 100.0).astype(np.int64), pa.int64()),
                "roundtrip_ok": pa.array(ok, pa.bool_()),
            }
        )

    return _points_ds(sf_dir).map_batches(f, batch_format="pyarrow")


def q_transform_geos(sf_dir: str):
    """Geostationary satellite view (proj/geostationary.py): the GOES-R
    ABI fixed-grid CRS (sweep=x, h=35786023, GOES-West lon_0=-137),
    implemented from the public CGMS/PROJ algorithm and pinned against
    an INDEPENDENT ECEF scan-angle construction in tests/test_proj.py.
    All oracle points lie on the visible disk (limb at ~81 deg central
    angle; the farthest point is ~75 deg). The SQL oracle recomputes
    the geocentric-latitude view geometry per point. Floor-cm int64."""
    from rasters_ray.proj import transform_xy

    def f(t: pa.Table) -> pa.Table:
        lon = t.column("x").to_numpy()
        lat = t.column("y").to_numpy()
        x, yv = transform_xy(lon, lat, "EPSG:4326", _GEOS_CRS)
        lon2, lat2 = transform_xy(x, yv, _GEOS_CRS, "EPSG:4326")
        ok = (np.abs(lon2 - lon) < 1e-9) & (np.abs(lat2 - lat) < 1e-9)
        return pa.table(
            {
                "point_id": t.column("point_id"),
                "x_cm": pa.array(np.floor(x * 100.0).astype(np.int64), pa.int64()),
                "y_cm": pa.array(np.floor(yv * 100.0).astype(np.int64), pa.int64()),
                "roundtrip_ok": pa.array(ok, pa.bool_()),
            }
        )

    return _points_ds(sf_dir).map_batches(f, batch_format="pyarrow")


def q_transform_eqc(sf_dir: str):
    """Equidistant cylindrical / Plate Carrée EPSG:4087 (proj/
    equirect.py): PROJ's spherical eqc on the WGS84 semi-major axis —
    pyproj parity, not the ellipsoidal EPSG method 1028 (PROJ forces
    es=0 for eqc). One multiply per axis; the SQL oracle is the same
    algebra. Floor-cm int64."""
    from rasters_ray.proj import transform_xy

    def f(t: pa.Table) -> pa.Table:
        lon = t.column("x").to_numpy()
        lat = t.column("y").to_numpy()
        x, yv = transform_xy(lon, lat, "EPSG:4326", "EPSG:4087")
        lon2, lat2 = transform_xy(x, yv, "EPSG:4087", "EPSG:4326")
        ok = (np.abs(lon2 - lon) < 1e-12) & (np.abs(lat2 - lat) < 1e-12)
        return pa.table(
            {
                "point_id": t.column("point_id"),
                "x_cm": pa.array(np.floor(x * 100.0).astype(np.int64), pa.int64()),
                "y_cm": pa.array(np.floor(yv * 100.0).astype(np.int64), pa.int64()),
                "roundtrip_ok": pa.array(ok, pa.bool_()),
            }
        )

    return _points_ds(sf_dir).map_batches(f, batch_format="pyarrow")


def q_transform_osgb(sf_dir: str):
    """British National Grid EPSG:27700 (proj/datum.py + proj/
    transverse_mercator.py): the FULL classical-datum pipeline — WGS84
    geodetic -> ECEF -> 7-parameter position-vector Helmert (EPSG 9606,
    the OSGB36 parameters of EPSG transformation 1314) -> fixed
    six-iteration ECEF->geodetic on Airy 1830 -> Karney transverse
    Mercator with the OSGB natural origin (49N 2W, k_0=0.9996012717).
    Pinned against the OS guide's Caister worked example in
    tests/test_proj.py. The SQL oracle re-derives EVERY step — ECEF,
    the linearized Helmert matrix, all six latitude iterations, and the
    Airy flattening series. Points are remapped into the GB window
    (lon+118, lat+8) on both sides so the series stays in its validity
    region; outliers excluded on both sides. Floor-cm int64; the
    round-trip gate is 3e-7 deg (the negated-parameter Helmert inverse
    is the EPSG reversibility convention, ~1 cm)."""
    from rasters_ray.proj import transform_xy

    def f(t: pa.Table) -> pa.Table:
        lon = t.column("x").to_numpy()
        lat = t.column("y").to_numpy()
        keep = lon < -100.0
        lon = lon[keep] + 118.0
        lat = lat[keep] + 8.0
        x, yv = transform_xy(lon, lat, "EPSG:4326", "EPSG:27700")
        lon2, lat2 = transform_xy(x, yv, "EPSG:27700", "EPSG:4326")
        ok = (np.abs(lon2 - lon) < 3e-7) & (np.abs(lat2 - lat) < 3e-7)
        return pa.table(
            {
                "point_id": t.column("point_id").filter(pa.array(keep)),
                "x_cm": pa.array(np.floor(x * 100.0).astype(np.int64), pa.int64()),
                "y_cm": pa.array(np.floor(yv * 100.0).astype(np.int64), pa.int64()),
                "roundtrip_ok": pa.array(ok, pa.bool_()),
            }
        )

    return _points_ds(sf_dir).map_batches(f, batch_format="pyarrow")


def q_transform_somerc(sf_dir: str):
    """Swiss oblique Mercator EPSG:2056 (CH1903+/LV95 — proj/swiss.py,
    the swisstopo double projection: conformal sphere at the Bern
    origin, rotated, equatorial Mercator; pinned against the swisstopo
    Rigi reference point in tests/test_proj.py): WGS84 -> ECEF -> the
    3-parameter CH1903+ geocentric translation (EPSG transformation
    1676) -> fixed six-iteration geodetic on Bessel 1841 -> somerc
    forward. Points remapped into the Swiss window (exact-double linear
    map) on both sides; outliers excluded. Floor-cm int64; the oracle
    re-derives EVERY step in SQL — ECEF, the translation, all six
    latitude iterations, the sphere constants alpha/b0/K/R and the
    per-point projection."""
    from rasters_ray.proj import transform_xy

    def f(t: pa.Table) -> pa.Table:
        lon = t.column("x").to_numpy()
        lat = t.column("y").to_numpy()
        keep = lon < -100.0
        lon = (lon[keep] + 124.0) * 0.5 + 6.0
        lat = (lat[keep] - 36.0) * 0.25 + 46.0
        x, yv = transform_xy(lon, lat, "EPSG:4326", "EPSG:2056")
        lon2, lat2 = transform_xy(x, yv, "EPSG:2056", "EPSG:4326")
        ok = (np.abs(lon2 - lon) < 3e-7) & (np.abs(lat2 - lat) < 3e-7)
        return pa.table(
            {
                "point_id": t.column("point_id").filter(pa.array(keep)),
                "x_cm": pa.array(np.floor(x * 100.0).astype(np.int64), pa.int64()),
                "y_cm": pa.array(np.floor(yv * 100.0).astype(np.int64), pa.int64()),
                "roundtrip_ok": pa.array(ok, pa.bool_()),
            }
        )

    return _points_ds(sf_dir).map_batches(f, batch_format="pyarrow")


def q_transform_krovak(sf_dir: str):
    """Krovak EPSG:5514 (S-JTSK / Krovak East North — proj/krovak.py,
    the EPSG GN7-2 method 9819 oblique conformal conic on Bessel 1841,
    pinned against the GN7-2 worked example in tests/test_proj.py):
    WGS84 -> ECEF -> the 3-parameter S-JTSK geocentric translation
    (EPSG transformation 1622) -> fixed six-iteration geodetic on
    Bessel -> conformal latitude, oblique rotation, conic. Points
    remapped into the Czech window (exact-double linear map) on both
    sides; outliers excluded. Floor-cm int64; the oracle re-derives
    EVERY step in SQL — ECEF, the translation, the six latitude
    iterations, B/A/gamma0/t0/n/r0 and the per-point projection."""
    from rasters_ray.proj import transform_xy

    def f(t: pa.Table) -> pa.Table:
        lon = t.column("x").to_numpy()
        lat = t.column("y").to_numpy()
        keep = lon < -100.0
        lon = (lon[keep] + 124.0) * 0.5 + 13.0
        lat = (lat[keep] - 36.0) * 0.25 + 48.5
        x, yv = transform_xy(lon, lat, "EPSG:4326", "EPSG:5514")
        lon2, lat2 = transform_xy(x, yv, "EPSG:5514", "EPSG:4326")
        ok = (np.abs(lon2 - lon) < 3e-7) & (np.abs(lat2 - lat) < 3e-7)
        return pa.table(
            {
                "point_id": t.column("point_id").filter(pa.array(keep)),
                "x_cm": pa.array(np.floor(x * 100.0).astype(np.int64), pa.int64()),
                "y_cm": pa.array(np.floor(yv * 100.0).astype(np.int64), pa.int64()),
                "roundtrip_ok": pa.array(ok, pa.bool_()),
            }
        )

    return _points_ds(sf_dir).map_batches(f, batch_format="pyarrow")


def q_transform_eck4(sf_dir: str):
    """World Eckert IV ESRI:54012 (proj/world.py, Snyder 32-1..32-4 on
    the WGS84-semi-major sphere; scale constants and the equal-area
    Jacobian pinned in tests/test_proj.py): the theta equation solved
    by a FIXED twelve guarded Newton iterations that the oracle replays
    one CTE per iteration. All points (outliers included) are valid
    inputs. Floor-cm int64."""
    from rasters_ray.proj import transform_xy

    def f(t: pa.Table) -> pa.Table:
        lon = t.column("x").to_numpy()
        lat = t.column("y").to_numpy()
        x, yv = transform_xy(lon, lat, "EPSG:4326", "ESRI:54012")
        lon2, lat2 = transform_xy(x, yv, "ESRI:54012", "EPSG:4326")
        ok = (np.abs(lon2 - lon) < 1e-7) & (np.abs(lat2 - lat) < 1e-7)
        return pa.table(
            {
                "point_id": t.column("point_id"),
                "x_cm": pa.array(np.floor(x * 100.0).astype(np.int64), pa.int64()),
                "y_cm": pa.array(np.floor(yv * 100.0).astype(np.int64), pa.int64()),
                "roundtrip_ok": pa.array(ok, pa.bool_()),
            }
        )

    return _points_ds(sf_dir).map_batches(f, batch_format="pyarrow")


def q_transform_eqearth(sf_dir: str):
    """Equal Earth EPSG:8857 (proj/equal_area.py, EPSG method 1078 =
    the Savric-Patterson-Jenny 2018 polynomial applied to the AUTHALIC
    latitude on the authalic-radius sphere; published aspect ratio and
    the ellipsoidal equal-area Jacobian pinned in tests/test_proj.py).
    Forward is closed-form (authalic q, beta, theta, polynomial), so
    the oracle re-derives every constant — qp, Rq, M=sqrt(3)/2, the
    A1..A4 polynomial — per point in SQL. All points are valid inputs.
    Floor-cm int64."""
    from rasters_ray.proj import transform_xy

    def f(t: pa.Table) -> pa.Table:
        lon = t.column("x").to_numpy()
        lat = t.column("y").to_numpy()
        x, yv = transform_xy(lon, lat, "EPSG:4326", "EPSG:8857")
        lon2, lat2 = transform_xy(x, yv, "EPSG:8857", "EPSG:4326")
        ok = (np.abs(lon2 - lon) < 1e-7) & (np.abs(lat2 - lat) < 1e-7)
        return pa.table(
            {
                "point_id": t.column("point_id"),
                "x_cm": pa.array(np.floor(x * 100.0).astype(np.int64), pa.int64()),
                "y_cm": pa.array(np.floor(yv * 100.0).astype(np.int64), pa.int64()),
                "roundtrip_ok": pa.array(ok, pa.bool_()),
            }
        )

    return _points_ds(sf_dir).map_batches(f, batch_format="pyarrow")


def q_transform_robin(sf_dir: str):
    """Robinson ESRI:54030 (proj/robinson.py): the published 1974
    PLEN/PDFE table with a deterministic piecewise cubic Hermite
    (central-difference knot slopes) between the 5-degree knots —
    closed-form per band, so the oracle re-derives the SAME knot
    values, slopes and Hermite basis from list literals in SQL. The
    points' latitudes (36..44 N) exercise the 35-40 and 40-45 bands.
    All points valid. Floor-cm int64."""
    from rasters_ray.proj import transform_xy

    def f(t: pa.Table) -> pa.Table:
        lon = t.column("x").to_numpy()
        lat = t.column("y").to_numpy()
        x, yv = transform_xy(lon, lat, "EPSG:4326", "ESRI:54030")
        lon2, lat2 = transform_xy(x, yv, "ESRI:54030", "EPSG:4326")
        ok = (np.abs(lon2 - lon) < 1e-7) & (np.abs(lat2 - lat) < 1e-7)
        return pa.table(
            {
                "point_id": t.column("point_id"),
                "x_cm": pa.array(np.floor(x * 100.0).astype(np.int64), pa.int64()),
                "y_cm": pa.array(np.floor(yv * 100.0).astype(np.int64), pa.int64()),
                "roundtrip_ok": pa.array(ok, pa.bool_()),
            }
        )

    return _points_ds(sf_dir).map_batches(f, batch_format="pyarrow")


def q_transform_wintri(sf_dir: str):
    """Winkel Tripel ESRI:54042 (proj/world.py, phi_1 = acos(2/pi) so
    cos phi_1 = 2/pi EXACTLY; closed-form corner values pinned in
    tests/test_proj.py): the mean of the equirectangular and Aitoff
    projections. Forward is closed-form — alpha = acos(cos phi cos
    (lambda/2)), the alpha/sin(alpha) unsinc guarded at 1e-12 — so the
    oracle re-derives it per point; the engine-side inverse (fixed
    twelve 2-D Newton iterations, central-difference Jacobian) feeds
    only roundtrip_ok. All points valid. Floor-cm int64."""
    from rasters_ray.proj import transform_xy

    def f(t: pa.Table) -> pa.Table:
        lon = t.column("x").to_numpy()
        lat = t.column("y").to_numpy()
        x, yv = transform_xy(lon, lat, "EPSG:4326", "ESRI:54042")
        lon2, lat2 = transform_xy(x, yv, "ESRI:54042", "EPSG:4326")
        ok = (np.abs(lon2 - lon) < 1e-7) & (np.abs(lat2 - lat) < 1e-7)
        return pa.table(
            {
                "point_id": t.column("point_id"),
                "x_cm": pa.array(np.floor(x * 100.0).astype(np.int64), pa.int64()),
                "y_cm": pa.array(np.floor(yv * 100.0).astype(np.int64), pa.int64()),
                "roundtrip_ok": pa.array(ok, pa.bool_()),
            }
        )

    return _points_ds(sf_dir).map_batches(f, batch_format="pyarrow")


def q_transform_hammer(sf_dir: str):
    """Hammer ESRI:54044 (proj/world.py, Snyder 24-4..24-6; the 2:1
    ellipse frame and the spherical equal-area Jacobian pinned in
    tests/test_proj.py): closed form in BOTH directions (Snyder
    24-7..24-9 inverse via the auxiliary z), so the oracle is a pure
    expression with no iteration CTEs and roundtrip_ok is exact. All
    points valid. Floor-cm int64."""
    from rasters_ray.proj import transform_xy

    def f(t: pa.Table) -> pa.Table:
        lon = t.column("x").to_numpy()
        lat = t.column("y").to_numpy()
        x, yv = transform_xy(lon, lat, "EPSG:4326", "ESRI:54044")
        lon2, lat2 = transform_xy(x, yv, "ESRI:54044", "EPSG:4326")
        ok = (np.abs(lon2 - lon) < 1e-7) & (np.abs(lat2 - lat) < 1e-7)
        return pa.table(
            {
                "point_id": t.column("point_id"),
                "x_cm": pa.array(np.floor(x * 100.0).astype(np.int64), pa.int64()),
                "y_cm": pa.array(np.floor(yv * 100.0).astype(np.int64), pa.int64()),
                "roundtrip_ok": pa.array(ok, pa.bool_()),
            }
        )

    return _points_ds(sf_dir).map_batches(f, batch_format="pyarrow")


def q_transform_natearth(sf_dir: str):
    """Natural Earth (+proj=natearth; proj/world.py, the Savric-Jenny-
    Patterson 2011 published polynomial pair, pinned to the 1.923:1
    aspect and the 0.8707 equator scale in tests/test_proj.py):
    forward is a pure polynomial, so the oracle is one expression; the
    engine-side inverse (fixed twelve guarded Newton iterations on the
    strictly monotone y polynomial) feeds only roundtrip_ok. All
    points valid. Floor-cm int64."""
    from rasters_ray.proj import transform_xy

    def f(t: pa.Table) -> pa.Table:
        lon = t.column("x").to_numpy()
        lat = t.column("y").to_numpy()
        crs = "+proj=natearth +lon_0=0 +x_0=0 +y_0=0"
        x, yv = transform_xy(lon, lat, "EPSG:4326", crs)
        lon2, lat2 = transform_xy(x, yv, crs, "EPSG:4326")
        ok = (np.abs(lon2 - lon) < 1e-7) & (np.abs(lat2 - lat) < 1e-7)
        return pa.table(
            {
                "point_id": t.column("point_id"),
                "x_cm": pa.array(np.floor(x * 100.0).astype(np.int64), pa.int64()),
                "y_cm": pa.array(np.floor(yv * 100.0).astype(np.int64), pa.int64()),
                "roundtrip_ok": pa.array(ok, pa.bool_()),
            }
        )

    return _points_ds(sf_dir).map_batches(f, batch_format="pyarrow")


def q_transform_vandg(sf_dir: str):
    """Van der Grinten I ESRI:54029 (proj/world.py, Snyder 33-1..33-13;
    world-in-circle, boundary, straight-equator and circular-arc
    invariants pinned in tests/test_proj.py): closed form in BOTH
    directions (the inverse via Snyder's exact cubic), so the oracle is
    pure expressions and roundtrip_ok is exact. The points sit strictly
    off the equator and central meridian, so the oracle mirrors the
    main branch only. All points valid. Floor-cm int64."""
    from rasters_ray.proj import transform_xy

    def f(t: pa.Table) -> pa.Table:
        lon = t.column("x").to_numpy()
        lat = t.column("y").to_numpy()
        x, yv = transform_xy(lon, lat, "EPSG:4326", "ESRI:54029")
        lon2, lat2 = transform_xy(x, yv, "ESRI:54029", "EPSG:4326")
        ok = (np.abs(lon2 - lon) < 1e-6) & (np.abs(lat2 - lat) < 1e-6)
        return pa.table(
            {
                "point_id": t.column("point_id"),
                "x_cm": pa.array(np.floor(x * 100.0).astype(np.int64), pa.int64()),
                "y_cm": pa.array(np.floor(yv * 100.0).astype(np.int64), pa.int64()),
                "roundtrip_ok": pa.array(ok, pa.bool_()),
            }
        )

    return _points_ds(sf_dir).map_batches(f, batch_format="pyarrow")


def q_transform_aitoff(sf_dir: str):
    """Aitoff ESRI:54043 (proj/world.py; the 2:1 ellipse frame and the
    exact Winkel-mean relation pinned in tests/test_proj.py): the
    Aitoff term of the Winkel Tripel machinery, closed-form forward —
    the oracle mirrors the alpha/sin(alpha) chain with a CASE guard;
    the engine-side 2-D Newton inverse feeds only roundtrip_ok. All
    points valid. Floor-cm int64."""
    from rasters_ray.proj import transform_xy

    def f(t: pa.Table) -> pa.Table:
        lon = t.column("x").to_numpy()
        lat = t.column("y").to_numpy()
        x, yv = transform_xy(lon, lat, "EPSG:4326", "ESRI:54043")
        lon2, lat2 = transform_xy(x, yv, "ESRI:54043", "EPSG:4326")
        ok = (np.abs(lon2 - lon) < 1e-7) & (np.abs(lat2 - lat) < 1e-7)
        return pa.table(
            {
                "point_id": t.column("point_id"),
                "x_cm": pa.array(np.floor(x * 100.0).astype(np.int64), pa.int64()),
                "y_cm": pa.array(np.floor(yv * 100.0).astype(np.int64), pa.int64()),
                "roundtrip_ok": pa.array(ok, pa.bool_()),
            }
        )

    return _points_ds(sf_dir).map_batches(f, batch_format="pyarrow")


def q_transform_mill(sf_dir: str):
    """Miller cylindrical ESRI:54003 (proj/world.py, Snyder 18-1..18-4;
    the finite-pole constant pinned in tests/test_proj.py): closed form
    both ways — the oracle is one expression, roundtrip_ok exact. All
    points valid. Floor-cm int64."""
    from rasters_ray.proj import transform_xy

    def f(t: pa.Table) -> pa.Table:
        lon = t.column("x").to_numpy()
        lat = t.column("y").to_numpy()
        x, yv = transform_xy(lon, lat, "EPSG:4326", "ESRI:54003")
        lon2, lat2 = transform_xy(x, yv, "ESRI:54003", "EPSG:4326")
        ok = (np.abs(lon2 - lon) < 1e-7) & (np.abs(lat2 - lat) < 1e-7)
        return pa.table(
            {
                "point_id": t.column("point_id"),
                "x_cm": pa.array(np.floor(x * 100.0).astype(np.int64), pa.int64()),
                "y_cm": pa.array(np.floor(yv * 100.0).astype(np.int64), pa.int64()),
                "roundtrip_ok": pa.array(ok, pa.bool_()),
            }
        )

    return _points_ds(sf_dir).map_batches(f, batch_format="pyarrow")


def q_transform_eck6(sf_dir: str):
    """Eckert VI ESRI:54010 (proj/world.py; pole-line, height and
    equal-area Jacobian pinned in tests/test_proj.py): theta solves
    ``theta + sin theta = (1 + pi/2) sin phi`` by a FIXED twelve
    guarded Newton iterations the oracle replays one CTE per
    iteration. All points valid. Floor-cm int64."""
    from rasters_ray.proj import transform_xy

    def f(t: pa.Table) -> pa.Table:
        lon = t.column("x").to_numpy()
        lat = t.column("y").to_numpy()
        x, yv = transform_xy(lon, lat, "EPSG:4326", "ESRI:54010")
        lon2, lat2 = transform_xy(x, yv, "ESRI:54010", "EPSG:4326")
        ok = (np.abs(lon2 - lon) < 1e-7) & (np.abs(lat2 - lat) < 1e-7)
        return pa.table(
            {
                "point_id": t.column("point_id"),
                "x_cm": pa.array(np.floor(x * 100.0).astype(np.int64), pa.int64()),
                "y_cm": pa.array(np.floor(yv * 100.0).astype(np.int64), pa.int64()),
                "roundtrip_ok": pa.array(ok, pa.bool_()),
            }
        )

    return _points_ds(sf_dir).map_batches(f, batch_format="pyarrow")


def q_transform_gnom(sf_dir: str):
    """Gnomonic +proj=gnom lat_0=40 lon_0=-95 (proj/world.py, Snyder
    22-3..22-9; the great-circle-to-straight-line property, the tan(c)
    radial scale and the far-hemisphere NaN pinned in
    tests/test_proj.py): closed form both ways, every point within
    ~35 degrees of the center so cos c > 0.8 throughout. Floor-cm
    int64."""
    from rasters_ray.proj import transform_xy

    def f(t: pa.Table) -> pa.Table:
        lon = t.column("x").to_numpy()
        lat = t.column("y").to_numpy()
        crs = "+proj=gnom +lat_0=40 +lon_0=-95"
        x, yv = transform_xy(lon, lat, "EPSG:4326", crs)
        lon2, lat2 = transform_xy(x, yv, crs, "EPSG:4326")
        ok = (np.abs(lon2 - lon) < 1e-7) & (np.abs(lat2 - lat) < 1e-7)
        return pa.table(
            {
                "point_id": t.column("point_id"),
                "x_cm": pa.array(np.floor(x * 100.0).astype(np.int64), pa.int64()),
                "y_cm": pa.array(np.floor(yv * 100.0).astype(np.int64), pa.int64()),
                "roundtrip_ok": pa.array(ok, pa.bool_()),
            }
        )

    return _points_ds(sf_dir).map_batches(f, batch_format="pyarrow")


def q_transform_poly(sf_dir: str):
    """American Polyconic +proj=poly lat_0=38 lon_0=-95
    (proj/polyconic.py, Snyder 18-12..18-15 ellipsoidal; central
    meridian, per-parallel true scale and the equator row pinned in
    tests/test_proj.py): the forward is closed form — meridian arc
    (Snyder 3-21 series), N, cot phi, the cone angle E — so the oracle
    re-derives the series coefficients and every step from the e2
    literal; the engine-side 2-D Newton inverse feeds only
    roundtrip_ok. All points valid. Floor-cm int64."""
    from rasters_ray.proj import transform_xy

    def f(t: pa.Table) -> pa.Table:
        lon = t.column("x").to_numpy()
        lat = t.column("y").to_numpy()
        crs = "+proj=poly +lat_0=38 +lon_0=-95"
        x, yv = transform_xy(lon, lat, "EPSG:4326", crs)
        lon2, lat2 = transform_xy(x, yv, crs, "EPSG:4326")
        ok = (np.abs(lon2 - lon) < 1e-7) & (np.abs(lat2 - lat) < 1e-7)
        return pa.table(
            {
                "point_id": t.column("point_id"),
                "x_cm": pa.array(np.floor(x * 100.0).astype(np.int64), pa.int64()),
                "y_cm": pa.array(np.floor(yv * 100.0).astype(np.int64), pa.int64()),
                "roundtrip_ok": pa.array(ok, pa.bool_()),
            }
        )

    return _points_ds(sf_dir).map_batches(f, batch_format="pyarrow")


def q_transform_cass(sf_dir: str):
    """Cassini-Soldner +proj=cass lat_0=40 lon_0=-95
    (proj/polyconic.py, Snyder 13-7..13-13, EPSG method 9806; central
    meridian and round-trip pinned in tests/test_proj.py): longitudes
    remapped into the series' use band (within 2 degrees of the
    central meridian, exact-double linear map); the oracle re-derives
    the meridian-arc coefficients and the A/T/C/N series per point.
    Floor-cm int64."""
    from rasters_ray.proj import transform_xy

    def f(t: pa.Table) -> pa.Table:
        lon = t.column("x").to_numpy()
        lat = t.column("y").to_numpy()
        lon = (lon + 95.0) / 15.0 - 95.0
        crs = "+proj=cass +lat_0=40 +lon_0=-95"
        x, yv = transform_xy(lon, lat, "EPSG:4326", crs)
        lon2, lat2 = transform_xy(x, yv, crs, "EPSG:4326")
        ok = (np.abs(lon2 - lon) < 1e-5) & (np.abs(lat2 - lat) < 1e-5)
        return pa.table(
            {
                "point_id": t.column("point_id"),
                "x_cm": pa.array(np.floor(x * 100.0).astype(np.int64), pa.int64()),
                "y_cm": pa.array(np.floor(yv * 100.0).astype(np.int64), pa.int64()),
                "roundtrip_ok": pa.array(ok, pa.bool_()),
            }
        )

    return _points_ds(sf_dir).map_batches(f, batch_format="pyarrow")


def q_transform_bonne(sf_dir: str):
    """Bonne ESRI:54024 (proj/polyconic.py, Snyder's ellipsoidal Bonne
    with the lat_1=60N apex; equal-area Jacobian and per-parallel true
    scale pinned in tests/test_proj.py): closed form both ways via the
    footpoint-latitude series, so roundtrip_ok is exact. The oracle
    re-derives the apex constants and the rho/E chain per point. All
    points valid. Floor-cm int64."""
    from rasters_ray.proj import transform_xy

    def f(t: pa.Table) -> pa.Table:
        lon = t.column("x").to_numpy()
        lat = t.column("y").to_numpy()
        x, yv = transform_xy(lon, lat, "EPSG:4326", "ESRI:54024")
        lon2, lat2 = transform_xy(x, yv, "ESRI:54024", "EPSG:4326")
        ok = (np.abs(lon2 - lon) < 1e-5) & (np.abs(lat2 - lat) < 1e-5)
        return pa.table(
            {
                "point_id": t.column("point_id"),
                "x_cm": pa.array(np.floor(x * 100.0).astype(np.int64), pa.int64()),
                "y_cm": pa.array(np.floor(yv * 100.0).astype(np.int64), pa.int64()),
                "roundtrip_ok": pa.array(ok, pa.bool_()),
            }
        )

    return _points_ds(sf_dir).map_batches(f, batch_format="pyarrow")


def q_transform_omerc(sf_dir: str):
    """Hotine oblique Mercator variant B, WGS84, center (40N, 95W),
    azimuth 30, k_c 0.9996 (proj/omerc.py, GN7-2 method 9815 — pinned
    to the published Timbalai/RSO Borneo worked example to the cm and
    to conformality invariants in tests/test_proj.py): the oracle
    re-derives the full aposphere constant chain (B, A, t0, D, F, H,
    G, gamma0, lambda0, u_c) and the per-point t/Q/S/T/V/U skew-axes
    path in SQL. All points valid. Floor-cm int64."""
    from rasters_ray.proj import transform_xy

    def f(t: pa.Table) -> pa.Table:
        lon = t.column("x").to_numpy()
        lat = t.column("y").to_numpy()
        crs = "+proj=omerc +lat_0=40 +lonc=-95 +alpha=30 +gamma=30 +k_0=0.9996"
        x, yv = transform_xy(lon, lat, "EPSG:4326", crs)
        lon2, lat2 = transform_xy(x, yv, crs, "EPSG:4326")
        ok = (np.abs(lon2 - lon) < 1e-7) & (np.abs(lat2 - lat) < 1e-7)
        return pa.table(
            {
                "point_id": t.column("point_id"),
                "x_cm": pa.array(np.floor(x * 100.0).astype(np.int64), pa.int64()),
                "y_cm": pa.array(np.floor(yv * 100.0).astype(np.int64), pa.int64()),
                "roundtrip_ok": pa.array(ok, pa.bool_()),
            }
        )

    return _points_ds(sf_dir).map_batches(f, batch_format="pyarrow")


def q_transform_moll(sf_dir: str):
    """World Mollweide ESRI:54009 (proj/world.py, Snyder 31-1..31-8 on
    the WGS84-semi-major sphere; pinned against Snyder's numerical
    example in tests/test_proj.py): the theta equation solved by a
    FIXED ten Newton iterations that the oracle replays one CTE per
    iteration. All points (outliers included) are valid inputs.
    Floor-cm int64."""
    from rasters_ray.proj import transform_xy

    def f(t: pa.Table) -> pa.Table:
        lon = t.column("x").to_numpy()
        lat = t.column("y").to_numpy()
        x, yv = transform_xy(lon, lat, "EPSG:4326", "ESRI:54009")
        lon2, lat2 = transform_xy(x, yv, "ESRI:54009", "EPSG:4326")
        ok = (np.abs(lon2 - lon) < 1e-7) & (np.abs(lat2 - lat) < 1e-7)
        return pa.table(
            {
                "point_id": t.column("point_id"),
                "x_cm": pa.array(np.floor(x * 100.0).astype(np.int64), pa.int64()),
                "y_cm": pa.array(np.floor(yv * 100.0).astype(np.int64), pa.int64()),
                "roundtrip_ok": pa.array(ok, pa.bool_()),
            }
        )

    return _points_ds(sf_dir).map_batches(f, batch_format="pyarrow")


def q_transform_ortho(sf_dir: str):
    """Orthographic satellite view centered on the point window (40N
    120W — proj/world.py, Snyder 20-3..20-6; pinned against Snyder's
    numerical example in tests/test_proj.py). Outliers excluded so
    every input is on the visible hemisphere; closed-form oracle.
    Floor-cm int64."""
    from rasters_ray.proj import transform_xy

    crs = "+proj=ortho +lat_0=40 +lon_0=-120"

    def f(t: pa.Table) -> pa.Table:
        lon = t.column("x").to_numpy()
        lat = t.column("y").to_numpy()
        keep = lon < -100.0
        lon, lat = lon[keep], lat[keep]
        x, yv = transform_xy(lon, lat, "EPSG:4326", crs)
        lon2, lat2 = transform_xy(x, yv, crs, "EPSG:4326")
        ok = (np.abs(lon2 - lon) < 1e-7) & (np.abs(lat2 - lat) < 1e-7)
        return pa.table(
            {
                "point_id": t.column("point_id").filter(pa.array(keep)),
                "x_cm": pa.array(np.floor(x * 100.0).astype(np.int64), pa.int64()),
                "y_cm": pa.array(np.floor(yv * 100.0).astype(np.int64), pa.int64()),
                "roundtrip_ok": pa.array(ok, pa.bool_()),
            }
        )

    return _points_ds(sf_dir).map_batches(f, batch_format="pyarrow")


def q_transform_igh(sf_dir: str):
    """Interrupted Goode homolosine (proj/world.py — the MODIS-era
    global land grid; PROJ +proj=igh): per-lobe central meridian,
    sinusoidal below Snyder's 40d44'11.8" join, shifted Mollweide
    above. Points spread across two northern lobes by an exact-double
    remap (lon+100 when lon < -120), latitudes 36..44 straddle the
    join, so the oracle's CASE covers lobe selection AND both
    component projections, replaying the ten Newton iterations.
    Floor-cm int64."""
    from rasters_ray.proj import transform_xy

    def f(t: pa.Table) -> pa.Table:
        lon = t.column("x").to_numpy()
        lat = t.column("y").to_numpy()
        keep = lon < -100.0
        lon, lat = lon[keep], lat[keep]
        lon = np.where(lon < -120.0, lon + 100.0, lon)
        x, yv = transform_xy(lon, lat, "EPSG:4326", "+proj=igh")
        lon2, lat2 = transform_xy(x, yv, "+proj=igh", "EPSG:4326")
        ok = (np.abs(lon2 - lon) < 1e-7) & (np.abs(lat2 - lat) < 1e-7)
        return pa.table(
            {
                "point_id": t.column("point_id").filter(pa.array(keep)),
                "x_cm": pa.array(np.floor(x * 100.0).astype(np.int64), pa.int64()),
                "y_cm": pa.array(np.floor(yv * 100.0).astype(np.int64), pa.int64()),
                "roundtrip_ok": pa.array(ok, pa.bool_()),
            }
        )

    return _points_ds(sf_dir).map_batches(f, batch_format="pyarrow")


_MINHASH_GOLDEN_SF_DIRS = (
    "/root/testdata/sf0.001",
    "/root/testdata/sf0.01",
    "/root/testdata/sf0.1",
)


def _golden(filename: str, types: "dict", per_dir):
    """Shared golden-oracle builder: compute-once parquet under
    /tmp/rasters_ray_oracle, one call of ``per_dir(sf_dir) -> {col:
    list} | None`` per known corpus, atomic write.  Every golden oracle
    (the sequential-reference truth tables for non-SQL-expressible ops)
    goes through here so the path/fingerprint/atomic-write conventions
    live in one place."""
    import os

    import pyarrow.parquet as pqm

    path = f"/tmp/rasters_ray_oracle/{filename}"
    if os.path.exists(path):
        return path
    os.makedirs(os.path.dirname(path), exist_ok=True)
    rows = {k: [] for k in types}
    for d in _MINHASH_GOLDEN_SF_DIRS:
        got = per_dir(d)
        if got is None:
            continue
        for k in types:
            rows[k].extend(got[k])
    tmp = f"{path}.tmp{os.getpid()}"  # pid-unique: concurrent sweeps must
    pqm.write_table(                  # not interleave into one half-written
        pa.table({k: pa.array(v, types[k]) for k, v in rows.items()}),
        tmp,
    )
    os.replace(tmp, path)
    return path


def _hll_golden_path() -> str:
    """Golden (event_type, n_approx) rows for ``approx_distinct`` from a
    SEQUENTIAL single-pass HLL reference — valid because registers are
    ORDER-INDEPENDENT (max per register), so the distributed
    partial/merge path must land on the identical integer estimate."""
    import os

    import pyarrow.parquet as pqm

    from rasters_ray.relational.distinct import hll_count, hll_register_table

    def per_dir(d):
        f = f"{d}/events.parquet"
        if not os.path.exists(f):
            return None
        tab = pqm.read_table(f, columns=["event_type", "user_id"])
        et = np.asarray(tab.column("event_type").to_pylist(), dtype=object)
        uid = np.asarray(tab.column("user_id").to_pylist(), dtype=object)
        out = {"fp": [], "event_type": [], "n_approx": []}
        for g in np.unique(et):
            out["fp"].append(tab.num_rows)
            out["event_type"].append(str(g))
            out["n_approx"].append(
                int(round(hll_count(hll_register_table(uid[et == g]))))
            )
        return out

    return _golden(
        "hll_golden_v1.parquet",
        {"fp": pa.int64(), "event_type": pa.string(), "n_approx": pa.int64()},
        per_dir,
    )

def _bpe_golden_path() -> str:
    """Golden (merge_idx, left, right, n) rows for ``bpe_merges`` from
    the sequential trainer (text/bpe.py::bpe_train_local — the same
    truth tests/test_bpe.py asserts bit-equality against); integer
    counts + deterministic (count DESC, pair ASC) tie-break make the
    merge sequence exactly reproducible."""
    import os

    import pyarrow.parquet as pqm

    from rasters_ray.text.bpe import bpe_train_local

    def per_dir(d):
        f = f"{d}/documents.parquet"
        if not os.path.exists(f):
            return None
        texts = pqm.read_table(f, columns=["text"]).column("text").to_pylist()
        fp = sum(len(x or "") for x in texts)
        out = {"fp": [], "merge_idx": [], "left": [], "right": [], "n": []}
        for i, (left, right, n) in enumerate(bpe_train_local(texts, n_merges=8)):
            out["fp"].append(fp)
            out["merge_idx"].append(i)
            out["left"].append(left)
            out["right"].append(right)
            out["n"].append(int(n))
        return out

    return _golden(
        "bpe_golden_v1.parquet",
        {"fp": pa.int64(), "merge_idx": pa.int64(), "left": pa.string(),
         "right": pa.string(), "n": pa.int64()},
        per_dir,
    )

def _minhash_golden_path() -> str:
    """Golden (a, b, jaccard) pairs for ``minhash_pairs``, computed by an
    INDEPENDENT SEQUENTIAL reference pipeline (plain dict buckets, no Ray,
    no shuffles — only the deterministic hash kernels are shared with the
    engine) for every known sf corpus, written once under /tmp.  Each
    corpus is fingerprinted by SUM(length(text)) so one static oracle SQL
    selects the right golden rows for whichever sf the driver registered.
    This upgrades minhash_pairs from rows-only to value-exact: the oracle
    pins the DISTRIBUTED plumbing (banding, bucket pairing incl. the hot-
    bucket star cap, pair dedup, semi-filtered verify) against the
    in-memory reference, bit-for-bit including the final float division."""
    import os

    import pyarrow.parquet as pqm

    from rasters_ray.text.dedup import (
        HOT_BUCKET_CAP,
        MinHasher,
        band_hashes,
        char_shingle_hashes,
        jaccard,
    )

    path = "/tmp/rasters_ray_oracle/minhash_golden_v1.parquet"
    if os.path.exists(path):
        return path
    os.makedirs(os.path.dirname(path), exist_ok=True)
    hasher = MinHasher(128)
    rows_a, rows_b, rows_j, rows_fp = [], [], [], []
    for d in _MINHASH_GOLDEN_SF_DIRS:
        f = f"{d}/documents.parquet"
        if not os.path.exists(f):
            continue
        tab = pqm.read_table(f, columns=["doc_id", "text"])
        ids = tab.column("doc_id").to_pylist()
        texts = tab.column("text").to_pylist()
        fp = sum(len(x or "") for x in texts)
        shing = {i: char_shingle_hashes(t or "", 5) for i, t in zip(ids, texts)}
        sigs = np.stack([hasher.signature(shing[i]) for i in ids])
        bh = band_hashes(sigs, 16)  # (n, 16)
        from collections import defaultdict

        buckets = defaultdict(list)
        for r, did in enumerate(ids):
            for band in range(16):
                buckets[(band, int(bh[r, band]))].append(did)
        cand = set()
        for members in buckets.values():
            u = sorted(set(members))
            if len(u) < 2:
                continue
            if len(u) <= HOT_BUCKET_CAP:
                cand.update(
                    (u[i], u[j]) for i in range(len(u)) for j in range(i + 1, len(u))
                )
            else:  # hot bucket: star pairs to the smallest id
                cand.update((u[0], x) for x in u[1:])
        sets = {i: set(shing[i].tolist()) for i in ids}
        for a, b in sorted(cand):
            jc = jaccard(sets[a], sets[b])
            if jc >= 0.5:
                rows_a.append(a)
                rows_b.append(b)
                rows_j.append(jc)
                rows_fp.append(fp)
    out = pa.table(
        {
            "a": pa.array(rows_a, pa.int64()),
            "b": pa.array(rows_b, pa.int64()),
            "jaccard": pa.array(rows_j, pa.float64()),
            "fp": pa.array(rows_fp, pa.int64()),
        }
    )
    tmp = f"{path}.tmp{os.getpid()}"
    pqm.write_table(out, tmp)
    os.replace(tmp, path)
    return path


PHASH_FIXTURE_N = 256


def _phash_fixture_path() -> str:
    """Deterministic (image_id, phash) table of the fixture images,
    written once under /tmp so DuckDB can oracle the phash queries
    (VERDICT r2 #6) — the fixture generator is pure numpy, so the same
    values are reachable from both the Ray side and the SQL side.
    Called from the queries AND from oracle_sql() so either side of the
    driver's comparison can run first."""
    import os

    import pyarrow.parquet as pq

    from rasters_ray.sources.images import make_fixture_images

    path = f"/tmp/rasters_ray_oracle/phash_fixture_{PHASH_FIXTURE_N}.parquet"
    if os.path.exists(path):
        return path
    os.makedirs(os.path.dirname(path), exist_ok=True)
    parts = [
        make_fixture_images(np.arange(i, min(i + 64, PHASH_FIXTURE_N))).select(
            ["image_id", "phash"]
        )
        for i in range(0, PHASH_FIXTURE_N, 64)
    ]
    tmp = f"{path}.tmp{os.getpid()}"
    pq.write_table(pa.concat_tables(parts), tmp)
    os.replace(tmp, path)
    return path


def q_phash_near(sf_dir: str):
    """Hamming-ball pHash near-dup join (multi-index pigeonhole bucketing
    + vectorized popcount verify) over the seeded fixture images.
    Oracle: a DuckDB bit_count self-join over the fixture phash parquet.
    ``cap`` is raised past the fixture size so hot-bucket star capping
    (a recall/scale trade, tested separately) cannot drop pairs the
    exact SQL finds."""
    from rasters_ray.sources import images_dataset
    from rasters_ray.text import hamming_near_dups

    _phash_fixture_path()
    imgs = images_dataset(PHASH_FIXTURE_N, profile="fixtures").select_columns(
        ["image_id", "phash"]
    )
    return hamming_near_dups(imgs, max_dist=6, bands=8, cap=2 * PHASH_FIXTURE_N)


def q_phash_dups(sf_dir: str):
    from ray.data.aggregate import Count

    from rasters_ray.sources import images_dataset

    _phash_fixture_path()
    imgs = images_dataset(PHASH_FIXTURE_N, profile="fixtures")
    dup = imgs.groupby("phash").aggregate(Count(alias_name="n"))
    return dup.filter(lambda r: r["n"] > 1)


# ---------------------------------------------------------------------------
# driver contract
# ---------------------------------------------------------------------------


def q_pricing_summary(sf_dir: str):
    """TPC-H Q1-style pricing summary: integer-exact (floor-cents)
    partial sums per batch -> low-cardinality groupby Sum final, so the
    parallel result is bit-equal to the sequential oracle regardless of
    block layout (the repo's composite-aggregation pattern applied to
    relational reporting)."""
    from rasters_ray.relational import grouped_int_sums

    ds = _read(
        sf_dir,
        "lineitem",
        ["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice",
         "l_discount", "l_tax"],
    )

    def vals(t: pa.Table) -> dict:
        ep = t.column("l_extendedprice").to_numpy(zero_copy_only=False)
        qd = t.column("l_quantity").to_numpy(zero_copy_only=False)
        di = t.column("l_discount").to_numpy(zero_copy_only=False)
        tx = t.column("l_tax").to_numpy(zero_copy_only=False)
        disc = ep * (1.0 - di)  # float op ORDER mirrors the SQL literally
        return {
            "sum_qty": np.floor(qd).astype(np.int64),
            "sum_base_c": np.floor(ep * 100.0).astype(np.int64),
            "sum_disc_c": np.floor(disc * 100.0).astype(np.int64),
            "sum_charge_c": np.floor((disc * (1.0 + tx)) * 100.0).astype(np.int64),
        }

    return grouped_int_sums(ds, ["l_returnflag", "l_linestatus"], vals, count_col="n")


def _fold_revenue(t: pa.Table) -> pa.Table:
    """Pre-shuffle byte fold: lineitem's (price, discount) float pair
    collapses to ONE int64 revenue-cents column before the all-to-all —
    half the value bytes on the wire, and the floor-per-row is exactly
    what the downstream int_sum_partial did anyway."""
    ep = t.column("l_extendedprice").to_numpy(zero_copy_only=False)
    di = t.column("l_discount").to_numpy(zero_copy_only=False)
    return pa.table(
        {
            "l_orderkey": t.column("l_orderkey"),
            "revenue_c": pa.array(
                np.floor((ep * (1.0 - di)) * 100.0).astype(np.int64), pa.int64()
            ),
        }
    )


def q_segment_revenue(sf_dir: str):
    """Large ⋈ large distributed hash join (lineitem ⋈ orders) stacked on
    a zero-shuffle broadcast join (orders ⋈ customer, small side
    ray.put once) -> integer-exact revenue per (mktsegment, priority)."""
    import pyarrow.parquet as pq

    from rasters_ray.relational import (
        broadcast_join,
        grouped_int_sums,
        hash_join,
        int_sum_partial,
    )

    cust = pq.read_table(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_mktsegment"]
    )
    orders = _read(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_orderpriority"])
    seg_orders = broadcast_join(
        orders, cust, on="o_custkey", right_on="c_custkey"
    ).map_batches(
        # o_custkey is spent after the broadcast hop — don't shuffle it
        lambda t: t.select(["o_orderkey", "o_orderpriority", "c_mktsegment"]),
        batch_format="pyarrow",
    )
    li = _read(
        sf_dir, "lineitem", ["l_orderkey", "l_extendedprice", "l_discount"]
    ).map_batches(_fold_revenue, batch_format="pyarrow")

    def vals(t: pa.Table) -> dict:
        return {"revenue_c": t.column("revenue_c").to_numpy(zero_copy_only=False)}

    keys = ["c_mktsegment", "o_orderpriority"]
    # the reduction FUSES into the join task (post=): each partition's
    # join output collapses to a few partial rows before it ever hits
    # the object store — no second pass over 10x-join-output rows
    joined = hash_join(
        li,
        seg_orders,
        on="l_orderkey",
        right_on="o_orderkey",
        post=lambda t: int_sum_partial(t, keys, vals),
    )
    return grouped_int_sums(joined, keys, None, partials_ready=True)


def q_region_revenue(sf_dir: str):
    """Snowflake denormalization at depth: lineitem ⋈ orders (hash) ⋈
    customer ⋈ nation ⋈ region (three broadcast hops pre-folded into ONE
    small lookup table driver-side — the dimensions are tiny, so the
    chain collapses to customer -> region_name before anything ships) —
    integer-exact revenue per region.  One all-to-all total."""
    import pyarrow.parquet as pq

    from rasters_ray.relational import (
        broadcast_join,
        grouped_int_sums,
        hash_join,
        int_sum_partial,
    )

    cust = pq.read_table(f"{sf_dir}/customer.parquet",
                         columns=["c_custkey", "c_nationkey"])
    nat = pq.read_table(f"{sf_dir}/nation.parquet",
                        columns=["n_nationkey", "n_regionkey"])
    reg = pq.read_table(f"{sf_dir}/region.parquet",
                        columns=["r_regionkey", "r_name"])
    # driver-side fold of the dimension chain (all three are KB-sized):
    # customer -> nation -> region collapses to (c_custkey, r_name)
    cn = cust.join(nat, keys=["c_nationkey"], right_keys=["n_nationkey"])
    cnr = cn.join(reg, keys=["n_regionkey"], right_keys=["r_regionkey"])
    lookup = cnr.select(["c_custkey", "r_name"])

    orders = _read(sf_dir, "orders", ["o_orderkey", "o_custkey"])
    reg_orders = broadcast_join(
        orders, lookup, on="o_custkey", right_on="c_custkey"
    ).map_batches(
        lambda t: t.select(["o_orderkey", "r_name"]), batch_format="pyarrow"
    )
    li = _read(
        sf_dir, "lineitem", ["l_orderkey", "l_extendedprice", "l_discount"]
    ).map_batches(_fold_revenue, batch_format="pyarrow")

    def vals(t: pa.Table) -> dict:
        return {"revenue_c": t.column("revenue_c").to_numpy(zero_copy_only=False)}

    joined = hash_join(
        li,
        reg_orders,
        on="l_orderkey",
        right_on="o_orderkey",
        post=lambda t: int_sum_partial(t, ["r_name"], vals),
    )
    return grouped_int_sums(joined, ["r_name"], None, partials_ready=True)


def q_events_asof(sf_dir: str):
    """Distributed as-of join (DuckDB ASOF LEFT JOIN semantics): every
    non-purchase event picks up the value of the user's latest purchase
    at or before it — one exchange of the union, composite-rank
    searchsorted kernel (rasters_ray/relational/joins.py)."""
    import pyarrow.compute as pc

    from rasters_ray.relational import asof_join

    ev = _read(sf_dir, "events", ["event_id", "user_id", "ts", "event_type", "value"])
    left = ev.map_batches(
        lambda t: t.filter(pc.not_equal(t.column("event_type"), "purchase")).select(
            ["event_id", "user_id", "ts"]
        ),
        batch_format="pyarrow",
    )
    right = ev.map_batches(
        lambda t: t.filter(pc.equal(t.column("event_type"), "purchase")).select(
            ["user_id", "ts", "value"]
        ),
        batch_format="pyarrow",
    )
    res = asof_join(left, right, by="user_id", on="ts", value_cols=["value"])
    return res.map_batches(
        lambda t: t.select(["event_id", "user_id", "value"]).rename_columns(
            ["event_id", "user_id", "last_purchase_value"]
        ),
        batch_format="pyarrow",
    )


def q_interval_events(sf_dir: str):
    """Broadcast interval (range) join: deterministic per-user weekly
    windows (SQL-recomputable from range()) matched via one searchsorted
    per batch, then integer-exact per-interval aggregation."""
    from rasters_ray.relational import grouped_int_sums, interval_join

    us = np.repeat(np.arange(150, dtype=np.int64), 4)
    ws = np.tile(np.arange(4, dtype=np.int64), 150)
    base = np.datetime64("2024-01-01T00:00:00")
    starts = base + (ws * 7 * 86400 + us * 60).astype("timedelta64[s]")
    iv = pa.table(
        {
            "user_id": pa.array(us, pa.int64()),
            "start": pa.array(starts),
            "end": pa.array(starts + np.timedelta64(2 * 86400, "s")),
            "interval_id": pa.array(us * 4 + ws, pa.int64()),
        }
    )
    ev = _read(sf_dir, "events", ["event_id", "user_id", "ts", "value"])
    joined = interval_join(ev, iv, by="user_id", on="ts")

    def vals(t: pa.Table) -> dict:
        v = t.column("value").to_numpy(zero_copy_only=False)
        return {"value_c": np.floor(v * 100.0).astype(np.int64)}

    out = grouped_int_sums(joined, ["interval_id"], vals, count_col="n_events")
    return out.map_batches(
        lambda t: t.select(["interval_id", "n_events", "value_c"]),
        batch_format="pyarrow",
    )


def q_topk_orders(sf_dir: str):
    """Top-2 orders by totalprice per customer (high-cardinality group):
    per-batch partial top-k bounds the shuffle at k rows/group/block,
    hash-partitioned vectorized final emits ranks."""
    from rasters_ray.relational import topk_per_group

    ds = _read(sf_dir, "orders", ["o_custkey", "o_orderkey", "o_totalprice"])
    return topk_per_group(
        ds,
        "o_custkey",
        "o_totalprice",
        k=2,
        carry_cols=["o_orderkey"],
        tie_col="o_orderkey",
    ).map_batches(
        lambda t: t.select(["o_custkey", "o_orderkey", "o_totalprice", "rank"])
        .rename_columns(["o_custkey", "o_orderkey", "o_totalprice", "sel_rank"]),
        batch_format="pyarrow",
    )


def q_acf_lag(sf_dir: str):
    """Lag-1 autocorrelation of event values per type (floor-cents,
    ordered by ts then event_id): exact integer pair sums, Python-int
    products beyond int64, one fixed-order float corr replayed with
    hugeint casts (relational/sequence.py::lagged_pair_stats)."""
    from rasters_ray.relational.sequence import lagged_pair_stats

    return lagged_pair_stats(
        _read(sf_dir, "events", ["event_type", "ts", "event_id", "value"]),
        "event_type",
        "ts",
        "event_id",
        lambda t: np.floor(
            t.column("value").to_numpy(zero_copy_only=False) * 100.0
        ).astype(np.int64),
    )


def q_ks_test(sf_dir: str):
    """Exact two-sample Kolmogorov-Smirnov between click and purchase
    value distributions (floor-cents): D as the cross-multiplied
    integer max |n2*C1 - n1*C2| over a bounded-domain value histogram
    — the shuffle moves distinct cents, never rows
    (relational/aggregates.py::ks_two_sample)."""
    from rasters_ray.relational import ks_two_sample

    return ks_two_sample(
        _read(sf_dir, "events", ["event_type", "value"]),
        "event_type",
        lambda t: np.floor(
            t.column("value").to_numpy(zero_copy_only=False) * 100.0
        ).astype(np.int64),
        "click",
        "purchase",
    )


def q_benford(sf_dir: str):
    """Benford first-digit audit of order totalprice cents: leading
    digit via a vectorized divide-down loop (no string/log10 float
    path), 9-bin global histogram — bincount partials per batch, tiny
    final; SQL extracts the digit from the decimal string."""
    from rasters_ray.relational import grouped_int_sums

    def digits(t: pa.Table) -> pa.Table:
        c = np.floor(
            t.column("o_totalprice").to_numpy(zero_copy_only=False) * 100.0
        ).astype(np.int64)
        d = np.abs(c)
        while True:  # <= 19 vectorized halving-free steps (int64 width)
            big = d >= 10
            if not big.any():
                break
            d[big] //= 10
        return pa.table({"digit": pa.array(d, pa.int64())})

    ds = _read(sf_dir, "orders", ["o_totalprice"]).map_batches(
        digits, batch_format="pyarrow"
    )
    return grouped_int_sums(ds, ["digit"], lambda t: {}, count_col="n")


def q_ntile(sf_dir: str):
    """NTILE(4) of customers over the global (acctbal-cents, custkey)
    order WITHOUT a global sort: value-histogram base ranks (shuffle
    moves distinct values, not rows) + value-co-located tie ranking
    (relational/rangepart.py::global_ntile)."""
    from rasters_ray.relational.rangepart import global_ntile

    out = global_ntile(
        _read(sf_dir, "customer", ["c_custkey", "c_acctbal"]),
        "c_custkey",
        lambda t: np.floor(
            t.column("c_acctbal").to_numpy(zero_copy_only=False) * 100.0
        ).astype(np.int64),
        n_tiles=4,
    )
    return out.map_batches(
        lambda t: t.rename_columns(["c_custkey", "bal_c", "tile"]),
        batch_format="pyarrow",
    )


def q_gini(sf_dir: str):
    """Gini inequality coefficient of order totalprice (floor-cents)
    per order priority: exact rank-sum integers, one float division
    replayed in SQL (relational/aggregates.py::grouped_gini)."""
    from rasters_ray.relational import grouped_gini

    out = grouped_gini(
        _read(sf_dir, "orders", ["o_orderpriority", "o_totalprice"]),
        "o_orderpriority",
        lambda t: np.floor(
            t.column("o_totalprice").to_numpy(zero_copy_only=False) * 100.0
        ).astype(np.int64),
    )
    return out.map_batches(
        lambda t: t.rename_columns(
            ["priority", "n", "sum_c", "gini_num", "gini_den", "gini"]
        ),
        batch_format="pyarrow",
    )


def q_mad(sf_dir: str):
    """Median absolute deviation of order totalprice (floor-cents,
    exact) per order priority — the robust-statistics sibling of
    grouped_quantiles, both medians percentile_disc-ranked
    (relational/aggregates.py::grouped_mad)."""
    from rasters_ray.relational import grouped_mad

    out = grouped_mad(
        _read(sf_dir, "orders", ["o_orderpriority", "o_totalprice"]),
        "o_orderpriority",
        lambda t: np.floor(
            t.column("o_totalprice").to_numpy(zero_copy_only=False) * 100.0
        ).astype(np.int64),
    )
    return out.map_batches(
        lambda t: t.rename_columns(["priority", "n", "med_c", "mad_c"]),
        batch_format="pyarrow",
    )


def q_pearson(sf_dir: str):
    """Distributed Pearson correlation of (quantity, floor-price) per
    returnflag: exact integer sufficient statistics (n, sums, squares,
    cross) fold per batch into the low-cardinality groupby; the final
    corr is ONE fixed-order float expression over exact ints, replayed
    literally in SQL (the moran/gi* replay pattern)."""
    import math

    from rasters_ray.relational import grouped_int_sums

    ds = _read(sf_dir, "lineitem", ["l_returnflag", "l_quantity",
                                    "l_extendedprice"])

    def vals(t: pa.Table) -> dict:
        q = np.rint(
            t.column("l_quantity").to_numpy(zero_copy_only=False)
        ).astype(np.int64)
        p = np.floor(
            t.column("l_extendedprice").to_numpy(zero_copy_only=False)
        ).astype(np.int64)
        return {"sx": q, "sy": p, "sxx": q * q, "syy": p * p, "sxy": q * p}

    stats = grouped_int_sums(ds, ["l_returnflag"], vals, count_col="n")

    def corr(t: pa.Table) -> pa.Table:
        rows = t.to_pylist()
        out = []
        for r in rows:  # <= |returnflag| rows: Python ints keep the
            n, sx, sy = r["n"], r["sx"], r["sy"]  # >64-bit products exact
            num = float(n * r["sxy"] - sx * sy)
            d1 = math.sqrt(float(n * r["sxx"] - sx * sx))
            d2 = math.sqrt(float(n * r["syy"] - sy * sy))
            r["corr"] = num / (d1 * d2)
            out.append(r)
        tt = pa.Table.from_pylist(out)
        return tt.select(["l_returnflag", "n", "sx", "sy", "sxx", "syy",
                          "sxy", "corr"])

    return stats.map_batches(corr, batch_format="pyarrow")


def _qty_price_xy(t: pa.Table):
    q = np.rint(
        t.column("l_quantity").to_numpy(zero_copy_only=False)
    ).astype(np.int64)
    p = np.floor(
        t.column("l_extendedprice").to_numpy(zero_copy_only=False)
    ).astype(np.int64)
    return q, p


def q_spearman(sf_dir: str):
    """Spearman rank correlation of (quantity, floor-price) per
    returnflag (relational/rankstats.py::spearman_grouped): doubled
    average tie ranks stay exact int64; the one shuffle moves distinct
    (flag, qty, dollar) cells.  SQL replays the doubled rank as
    2*RANK() + COUNT(*) OVER (tie group) - 1 and the final float
    expression with HUGEINT sufficient statistics."""
    from rasters_ray.relational.rankstats import spearman_grouped

    ds = _read(sf_dir, "lineitem", ["l_returnflag", "l_quantity",
                                    "l_extendedprice"])
    return spearman_grouped(ds, "l_returnflag", _qty_price_xy)


def q_kendall_tau(sf_dir: str):
    """Kendall tau-b of (quantity, 5000-dollar price bucket) per
    returnflag (rankstats.py::kendall_tau_grouped): concordant /
    discordant pair counts folded over the joint cell histogram with
    2-D suffix sums — the oracle replays the pair counts as a cell
    self-join with strict inequalities (each unordered pair counted
    once in the oriented join)."""
    from rasters_ray.relational.rankstats import kendall_tau_grouped

    def xy(t: pa.Table):
        q, p = _qty_price_xy(t)
        return q, p // 5000

    ds = _read(sf_dir, "lineitem", ["l_returnflag", "l_quantity",
                                    "l_extendedprice"])
    return kendall_tau_grouped(ds, "l_returnflag", xy)


def q_mann_whitney(sf_dir: str):
    """Exact Mann-Whitney U / ROC AUC between click and purchase value
    distributions (floor-cents): the doubled statistic u2_a (wins x2 +
    ties x1) over the sorted value histogram — same bounded-domain
    shuffle as ks_test; tie_term = sum t(t-1)(t+1) kept for z-scores
    (rankstats.py::mann_whitney)."""
    from rasters_ray.relational.rankstats import mann_whitney

    return mann_whitney(
        _read(sf_dir, "events", ["event_type", "value"]),
        "event_type",
        lambda t: np.floor(
            t.column("value").to_numpy(zero_copy_only=False) * 100.0
        ).astype(np.int64),
        "click",
        "purchase",
    )


def q_euler(sf_dir: str):
    """Euler characteristic of the mask v > 125 (features.py::
    euler_images): Gray 1971 quad-pattern counts over the zero-padded
    mask; e4_x4 = q1 - q3 + 2*qd and e8_x4 = q1 - q3 - 2*qd stay x4
    integers.  SQL counts the same 2x2 patterns with OOB pixels CASEd
    to zero."""
    from rasters_ray.stages.features import euler_images

    return euler_images(_images_ds(sf_dir, N_IMG_MERGE), threshold=125,
                        transform=lambda px: (px * px) % 251)


def q_adaptive_thresh(sf_dir: str):
    """Adaptive mean-C binarization (focal.py::adaptive_threshold_bands,
    radius 3, C=2): (v - C) * n_w > sum_w over edge-clamped integral-
    image windows, fired counts per 10-row band; SQL replays the window
    with a 49-offset equality join (missing rows = the clamp)."""
    from rasters_ray.stages.focal import adaptive_threshold_bands

    return adaptive_threshold_bands(
        _images_ds(sf_dir, N_IMG_MERGE), radius=3, c=2, band=10,
        transform=lambda px: (px * px) % 251)


def q_quadtree(sf_dir: str):
    """Region-quadtree leaf profile (stages/quadtree.py): min==max
    block constancy per dyadic level over the 64x64 crop of the
    bucketed surface px//64, leaf = constant block whose parent is
    not; 1-pixel leaves by area conservation.  SQL replays each level
    as a GROUP BY block join to its parent blocks."""
    from rasters_ray.stages.quadtree import quadtree_images

    return quadtree_images(_images_ds(sf_dir, N_IMG_MERGE), size=64,
                           transform=lambda px: px // 64)


def q_haar_energy(sf_dir: str):
    """Two-level unnormalized Haar subband energies on the decorrelated
    surface (stages/wavelet.py::haar_images): integer sum/difference
    lifting keeps coefficients exact; SQL rebuilds level 1 from 2x2
    pixel blocks and level 2 by conditional aggregation over the
    level-1 ll plane."""
    from rasters_ray.stages.wavelet import haar_images

    return haar_images(_images_ds(sf_dir, N_IMG_MERGE), levels=2,
                       transform=lambda px: (px * px) % 251)


CANNY_TL2, CANNY_TH2 = 150000, 400000


def q_canny(sf_dir: str):
    """Canny edges in exact integers (stages/edges.py::canny_images):
    Sobel, squared magnitude, rational 414/1000 direction bins,
    tie-broken NMS (> forward, >= backward), double threshold,
    hysteresis flood — every decision an integer
    comparison replayed in SQL; the hysteresis is a walk CTE from the
    strong set through 8-adjacent weak survivors."""
    from rasters_ray.stages.edges import canny_images

    return canny_images(_images_ds(sf_dir, N_IMG_MERGE),
                        CANNY_TL2, CANNY_TH2,
                        transform=lambda px: (px * px) % 251)


MULTI_PATTERNS = ["fast", "table", "scan", "art", "value part", "stream"]


def q_bm25(sf_dir: str):
    """BM25 relevance scores for a fixed query-term set over documents
    (text/bm25.py::bm25_scores, k1=6/5, b=3/4, ln-free odds idf): the
    whole per-(doc, term) score is ONE float division over exact
    integer products; (N, Dsum, df) fold through one tiny aggregate.
    SQL replays with str_split + list_filter token counts and HUGEINT
    products."""
    from rasters_ray.text.bm25 import BM25_DEFAULT_TERMS, bm25_scores

    return bm25_scores(_read(sf_dir, "documents", ["doc_id", "text"]),
                       BM25_DEFAULT_TERMS)


def q_multi_pattern(sf_dir: str):
    """Multi-pattern dictionary counting over documents
    (text/multipattern.py::MultiPatternStage): patterns compile once
    on the driver, matching is vectorized shifted-window byte equality over
    a NUL-guarded batch concatenation.  Patterns are border-free
    (validated) so the SQL replace-count oracle equals the overlapping
    count."""
    from rasters_ray.text.multipattern import multi_pattern_counts

    return multi_pattern_counts(
        _read(sf_dir, "documents", ["doc_id", "text"]), MULTI_PATTERNS
    )


def q_hog_cells(sf_dir: str):
    """HOG cell histograms (features.py::hog_images, Dalal-Triggs in
    integer form): central-difference gradients on the decorrelated
    (px*px)%251 surface, trig-free 45-degree octants decided by the
    exclusive integer-comparison branch list, L1-magnitude weights,
    10x10 cells.  SQL replays the octant CASE arms verbatim."""
    from rasters_ray.stages.features import hog_images

    return hog_images(_images_ds(sf_dir, N_IMG_MERGE), cell=10,
                      transform=lambda px: (px * px) % 251)


def q_dither(sf_dir: str):
    """Ordered 4x4 Bayer dithering (features.py::dither_images):
    pixel fires when v > B[r%4,c%4]*16 + 8; per-phase set counts per
    image.  SQL joins the 16 Bayer thresholds as a VALUES table."""
    from rasters_ray.stages.features import dither_images

    return dither_images(_images_ds(sf_dir, N_IMG_MERGE))


def q_geohash(sf_dir: str):
    """Geohash text codes, precision 6 (grids/cellkey.py::
    geohash_encode): 30 interleaved bits (lon on even MSB positions) on
    the floor lattice, base-32 chars; SQL rebuilds the interleave
    term-by-term and the string with substr lookups."""
    from rasters_ray.grids.cellkey import geohash_encode

    def f(t: pa.Table) -> pa.Table:
        g, strs = geohash_encode(t.column("x").to_numpy(),
                                 t.column("y").to_numpy(), 6)
        return pa.table(
            {
                "point_id": t.column("point_id"),
                "gh_int": pa.array(g, pa.int64()),
                "geohash": pa.array(list(strs), pa.string()),
            }
        )

    return _points_ds(sf_dir).map_batches(f, batch_format="pyarrow")


ORDER_PRIORITIES = ['1-URGENT', '2-HIGH', '3-MEDIUM', '4-NOT SPECIFIED',
                    '5-LOW']
ORDER_STATUSES = ['F', 'O', 'P']


def q_gk_lambda(sf_dir: str):
    """Goodman-Kruskal lambda predicting order status from priority
    (aggregates.py::gk_lambda): proportional reduction in prediction
    error, pure integers + one division; SQL replays with row-max and
    column-total aggregates."""
    from rasters_ray.relational.aggregates import gk_lambda

    return gk_lambda(
        _read(sf_dir, "orders", ["o_orderpriority", "o_orderstatus"]),
        "o_orderpriority", "o_orderstatus",
    )


def q_cramers_v(sf_dir: str):
    """Cramer's V of order priority x status (aggregates.py::
    cramers_v): chi2 as the row-major LEFT-ASSOCIATIVE chain of
    per-cell floats over exact integer dev = obs*N - rt*ct, then one
    sqrt — the SQL replay pivots the fifteen known cells and
    parenthesizes the same chain."""
    from rasters_ray.relational.aggregates import cramers_v

    return cramers_v(
        _read(sf_dir, "orders", ["o_orderpriority", "o_orderstatus"]),
        "o_orderpriority", "o_orderstatus",
        ORDER_PRIORITIES, ORDER_STATUSES,
    )


def q_kappa(sf_dir: str):
    """Cohen's kappa between the order priority class and its
    deterministic noisy copy (index + [k%7 == 0]) mod 5 — the
    inter-rater agreement statistic as exact cross-multiplied integers
    (aggregates.py::cohen_kappa); SQL replays the digit parse, the
    noise rule and the HUGEINT kappa expression."""
    from rasters_ray.relational.aggregates import cohen_kappa

    def raters(t: pa.Table) -> pa.Table:
        pr = np.asarray(
            [int(s[0]) for s in t.column("o_orderpriority").to_pylist()],
            np.int64,
        )
        k = t.column("o_orderkey").to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        b = (pr - 1 + (k % 7 == 0)) % 5 + 1
        return pa.table(
            {
                "ra": pa.array(pr, pa.int64()),
                "rb": pa.array(b, pa.int64()),
            }
        )

    ds = _read(sf_dir, "orders", ["o_orderkey", "o_orderpriority"]
               ).map_batches(raters, batch_format="pyarrow")
    return cohen_kappa(ds, "ra", "rb")


def q_dbscan(sf_dir: str):
    """Grid-bucketed distributed DBSCAN (stages/dbscan.py::
    dbscan_points, eps^2=4, min_pts=5) over deterministic customer-key
    blobs: 16 lattice blobs of 13x13 positions 100 apart plus k%31
    scatter outliers.  Core-ness is positional (same-position points
    share neighborhoods), so after the first histogram every stage is
    bounded by the distinct-position domain; clusters label by their
    MIN core custkey.  SQL replays the disk join, the walk-CTE
    components and the border min-label assignment."""
    from rasters_ray.stages.dbscan import dbscan_points

    def pts(t: pa.Table) -> pa.Table:
        k = t.column("c_custkey").to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        g = k % 16
        xi = 50 + (g % 4) * 100 + (k // 16) % 13
        yi = 50 + (g // 4) * 100 + (k // 208) % 13
        out = k % 31 == 0
        xi = np.where(out, (xi + 137) % 400, xi)
        yi = np.where(out, (yi + 211) % 400, yi)
        return pa.table(
            {
                "pid": pa.array(k, pa.int64()),
                "xi": pa.array(xi, pa.int64()),
                "yi": pa.array(yi, pa.int64()),
            }
        )

    ds = _read(sf_dir, "customer", ["c_custkey"]).map_batches(
        pts, batch_format="pyarrow"
    )
    return dbscan_points(ds, "pid", "xi", "yi", eps2=4, min_pts=5)


def _order_edges(sf_dir: str, undirected: bool):
    """Deterministic 397-node graph from order keys (SQL-recomputable:
    u = k % 397, v = (k*31 + k//397 + 7) % 397; the k//397 term breaks
    the otherwise-functional u -> v dependence so triangles exist)."""
    from rasters_ray.relational.graph import dedup_edges

    def uv(t: pa.Table) -> pa.Table:
        k = t.column("o_orderkey").to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        return pa.table(
            {
                "u": pa.array(k % 397, pa.int64()),
                "v": pa.array((k * 31 + k // 397 + 7) % 397, pa.int64()),
            }
        )

    ds = _read(sf_dir, "orders", ["o_orderkey"]).map_batches(
        uv, batch_format="pyarrow"
    )
    return dedup_edges(ds, "u", "v", undirected=undirected)


def q_trigrams(sf_dir: str):
    """Second-order path mining: per-user event-type trigram counts in
    (ts, event_id) order (sequence.py::trigram_counts) — one user-hash
    shuffle, |types|^3-bounded partials; SQL replays with LEAD(1)/
    LEAD(2) windows."""
    from rasters_ray.relational.sequence import trigram_counts

    return trigram_counts(
        _read(sf_dir, "events", ["user_id", "ts", "event_id",
                                 "event_type"]),
        "user_id", "ts", "event_id", "event_type",
    )


def q_edge_jaccard(sf_dir: str):
    """Neighborhood Jaccard link-prediction score per edge
    (graph.py::edge_jaccard): common-neighbor counts from the
    triangle-support explode, union size deg_a + deg_b - common, one
    float division; SQL replays with the 3-way join and a UNION ALL
    edge explode."""
    from rasters_ray.relational.graph import edge_jaccard

    return edge_jaccard(_order_edges(sf_dir, undirected=True))


def q_triangles(sf_dir: str):
    """Per-node triangle counts (relational/graph.py::triangle_counts):
    compact-forward wedge join on the low endpoint + a semi join closing
    the third side — every a<b<c found once; SQL replays with a 3-way
    edge self-join and an exploded node union."""
    from rasters_ray.relational.graph import triangle_counts

    return triangle_counts(_order_edges(sf_dir, undirected=True))


def q_pagerank(sf_dir: str):
    """Fixed-point integer PageRank, 8 rounds (graph.py::pagerank):
    r' = base + sum floor(85*r / (100*outdeg)) — bit-deterministic, no
    float accumulation; ranks broadcast per round, edges never move.
    SQL replays the rounds as an unrolled CTE chain with // division."""
    from rasters_ray.relational.graph import pagerank

    return pagerank(_order_edges(sf_dir, undirected=False), iters=8)


DTW_K = 48


def q_dtw(sf_dir: str):
    """Dynamic time warping between the first 48 click and purchase
    values (floor-cents, (ts, event_id) order): distributed min-k head
    extraction, exact int64 L1 DP on the driver-tiny finish
    (sequence.py::dtw_pair).  SQL replays the DP as a recursive list
    CTE using the prefix-min identity D[i][j] = S_i(j) +
    min_{{j'<=j}}(min(D[i-1][j'], D[i-1][j'-1]) - S_i(j'-1)) so each row
    is one list expression (the seam_energy idiom)."""
    from rasters_ray.relational.sequence import dtw_pair

    return dtw_pair(
        _read(sf_dir, "events", ["event_type", "ts", "event_id", "value"]),
        "event_type", "ts", "event_id", _event_cents,
        "click", "purchase", k=DTW_K,
    )


def q_kruskal(sf_dir: str):
    """Kruskal-Wallis H across the five event-type value distributions
    (floor-cents, rankstats.py::kruskal_wallis): pooled doubled tie
    ranks, exact integer rank sums, tie-corrected H as a fixed-order
    float composition whose per-group terms sum left-associatively in
    ascending type order — the SQL replay pivots the five types and
    parenthesizes the identical chain."""
    from rasters_ray.relational.rankstats import kruskal_wallis

    return kruskal_wallis(
        _read(sf_dir, "events", ["event_type", "value"]),
        "event_type",
        lambda t: np.floor(
            t.column("value").to_numpy(zero_copy_only=False) * 100.0
        ).astype(np.int64),
    )


def q_roc(sf_dir: str):
    """Full ROC curve of click vs purchase values (floor-cents,
    positive iff value >= v): exact suffix-sum tp/fp per distinct
    score over the pooled histogram (rankstats.py::roc_points), two
    float divisions per row; SQL replays with descending cumulative
    windows."""
    from rasters_ray.relational.rankstats import roc_points

    return roc_points(
        _read(sf_dir, "events", ["event_type", "value"]),
        "event_type",
        lambda t: np.floor(
            t.column("value").to_numpy(zero_copy_only=False) * 100.0
        ).astype(np.int64),
        "click",
        "purchase",
    )


def q_emd(sf_dir: str):
    """Exact 1-D Wasserstein distance between click and purchase value
    distributions (floor-cents): piecewise-constant |F1-F2| integral as
    the exact integer sum |n2*C1 - n1*C2| * gap over the sorted pooled
    histogram (rankstats.py::wasserstein_1d) — same bounded-domain
    shuffle as ks_test; one float division at the end."""
    from rasters_ray.relational.rankstats import wasserstein_1d

    return wasserstein_1d(
        _read(sf_dir, "events", ["event_type", "value"]),
        "event_type",
        lambda t: np.floor(
            t.column("value").to_numpy(zero_copy_only=False) * 100.0
        ).astype(np.int64),
        "click",
        "purchase",
    )


def q_chi_square(sf_dir: str):
    """Chi-square independence test of order priority x status
    (relational/aggregates.py::crosstab_chi2): per-cell deviation kept
    as the exact cross-multiplied integer obs*N - row_tot*col_tot;
    cell_chi2 is one float over Python-int products, HUGEINT in SQL."""
    from rasters_ray.relational.aggregates import crosstab_chi2

    return crosstab_chi2(
        _read(sf_dir, "orders", ["o_orderpriority", "o_orderstatus"]),
        "o_orderpriority",
        "o_orderstatus",
    )


def _event_cents(t: pa.Table) -> np.ndarray:
    return np.floor(
        t.column("value").to_numpy(zero_copy_only=False) * 100.0
    ).astype(np.int64)


def q_cusum(sf_dir: str):
    """CUSUM changepoint per event-type series (sequence.py::
    cusum_stats): D_k = n*C_k - k*T keeps the mean-free cumulative
    deviation an exact integer (Page 1954 cross-multiplied); d_max and
    the smallest argmax k replay in SQL with a running-sum window and
    a max join."""
    from rasters_ray.relational.sequence import cusum_stats

    return cusum_stats(
        _read(sf_dir, "events", ["event_type", "ts", "event_id", "value"]),
        "event_type", "ts", "event_id", _event_cents,
    )


def q_runs_test(sf_dir: str):
    """Wald-Wolfowitz runs test per event-type series (sequence.py::
    runs_test): dichotomize at the lower median (quantile_disc rule),
    discard exact-median values, count maximal same-sign blocks in
    (ts, event_id) order; SQL replays with LAG after the median join."""
    from rasters_ray.relational.sequence import runs_test

    return runs_test(
        _read(sf_dir, "events", ["event_type", "ts", "event_id", "value"]),
        "event_type", "ts", "event_id", _event_cents,
    )


def q_transitions(sf_dir: str):
    """First-order Markov transition table of per-user event streams:
    adjacent (from_type -> to_type) pairs ordered by (ts, event_id),
    one user-hash shuffle then |types|^2-bounded partials
    (relational/sequence.py)."""
    from rasters_ray.relational.sequence import transition_counts

    return transition_counts(
        _read(sf_dir, "events", ["user_id", "ts", "event_id", "event_type"]),
        "user_id",
        "ts",
        "event_id",
        "event_type",
    )


def q_interval_merge(sf_dir: str):
    """Gaps-and-islands interval union per user: each event opens an
    interval of floor-cents(value) x 5 s; overlapping-or-touching
    intervals chain into islands (relational/intervals.py — one
    hash-partition shuffle, vectorized segment-reset running max)."""
    from rasters_ray.relational.intervals import merged_interval_stats

    def iv(t: pa.Table) -> pa.Table:
        per_sec = _ts_unit(t.column("ts").type)
        ts = t.column("ts").cast(pa.int64()).to_numpy()
        us = ts * (1_000_000 // per_sec) if per_sec <= 1_000_000 else ts // (
            per_sec // 1_000_000
        )
        v = t.column("value").to_numpy(zero_copy_only=False)
        dur = np.floor(v * 100.0).astype(np.int64) * 5_000_000
        return pa.table(
            {
                "user_id": t.column("user_id"),
                "s": pa.array(us, pa.int64()),
                "e": pa.array(us + dur, pa.int64()),
            }
        )

    ds = _read(sf_dir, "events", ["user_id", "ts", "value"]).map_batches(
        iv, batch_format="pyarrow"
    )
    return merged_interval_stats(ds, "user_id", "s", "e")


def q_skyline(sf_dir: str):
    """2-D skyline (Pareto frontier) of parts: minimize retail price
    (floor-cents, exact), maximize size.  Distributed SFS plan: one
    vectorized local frontier per block, then frontier-of-frontiers —
    only frontier rows move (relational/skyline.py)."""
    from rasters_ray.relational.skyline import skyline_2d

    def prep(t: pa.Table) -> pa.Table:
        price = t.column("p_retailprice").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "p_partkey": t.column("p_partkey"),
                "price_c": pa.array(
                    np.floor(price * 100.0).astype(np.int64), pa.int64()
                ),
                "p_size": t.column("p_size").cast(pa.int64()),
            }
        )

    ds = _read(sf_dir, "part", ["p_partkey", "p_retailprice", "p_size"]).map_batches(
        prep, batch_format="pyarrow"
    )
    return skyline_2d(ds, "p_partkey", "price_c", "p_size")


QUANTILE_QS = [0.25, 0.5, 0.75, 0.9, 0.99]


def q_quantiles(sf_dir: str):
    """EXACT distributed quantiles of l_extendedprice without a global
    sort: histogram-narrowing selection (relational/aggregates.py)."""
    from rasters_ray.relational import exact_quantiles

    t = exact_quantiles(
        _read(sf_dir, "lineitem", ["l_extendedprice"]), "l_extendedprice", QUANTILE_QS
    )
    return t.rename_columns(["q", "value", "sel_rank", "n"])


def q_salient_terms(sf_dir: str):
    """tf-idf-style salient terms: distributed document-frequency
    (combiner before the shuffle, hash-partitioned vectorized reduce)
    broadcast back for a per-doc top-3 by (tf DESC, df ASC, term ASC) —
    integer-exact so the oracle hashes bit-equal."""
    from rasters_ray.text import salient_terms

    return salient_terms(_read(sf_dir, "documents", ["doc_id", "text"]), k=3)


N_IMG_FOCAL = 4  # images for the focal-stencil oracle


def q_pixel_histogram(sf_dir: str):
    """Corpus-wide pixel-value histogram (32 bins of width 8 over
    [0, 256)) — per-BATCH bincount combiner, so the shuffle moves bins,
    never pixels; final low-cardinality groupby."""
    from rasters_ray.stages import pixel_histogram

    return pixel_histogram(_images_ds(sf_dir, N_IMG_MERGE), n_bins=32, lo=0.0, hi=256.0)


def q_image_moments(sf_dir: str):
    """Per-image normalization stats (n, sum, sum of squares, min, max) —
    integer-exact, embarrassingly parallel, one row per image."""
    from rasters_ray.stages import image_moments

    return image_moments(_images_ds(sf_dir, N_IMG_MERGE))


def q_focal_halo(sf_dir: str):
    """Focal 3x3 sum computed the DISTRIBUTED way: each 32x32 tile ships
    radius-wide halo strips to its 8 lattice neighbors (one groupby
    exchange, O(perimeter) payload), then tiles finish independently —
    the stencil shape a planet-sized mosaic needs.  The oracle recomputes
    every sampled window from the closed-form pixel formula, so a wrong
    halo (wrong strip, wrong offset, double-count) is a value mismatch."""
    from rasters_ray.stages import focal_halo_tiled

    return focal_halo_tiled(_images_ds(sf_dir, N_IMG_FOCAL), radius=1, step=5, tile=32)


def q_morphology(sf_dir: str):
    """Binary dilate/erode of the >=200 mask on the distributed halo
    path (radius 2, so strips are 2 px wide): n_masked / n_nbr per
    sampled center plus both flags, edge-clamped.  The oracle counts
    masked in-bounds neighbors from the pixel formula."""
    from rasters_ray.stages import morphology_halo_tiled

    return morphology_halo_tiled(
        _images_ds(sf_dir, N_IMG_FOCAL), threshold=200.0, radius=2, step=5, tile=32
    )


def q_label_components(sf_dir: str):
    """Distributed raster component labeling: every 32px tile labels its
    core independently (vectorized run-min propagation over GLOBAL pixel
    ids), 1-px halo strips tie tile seams into an equivalence graph
    whose size is O(boundary), CCF rounds resolve it, and tile-partial
    stats fold onto the global roots.  The >=220 mask of the formula
    images yields 8 diagonal stripe components per image (~240 px each)
    that cross many tile seams — the oracle recomputes them per pixel
    with a recursive min-label CTE."""
    from rasters_ray.stages import label_components

    return label_components(
        _images_ds(sf_dir, N_IMG_FOCAL), threshold=220.0, tile=32
    )


def q_components(sf_dir: str):
    """Distributed connected components (CCF rounds: one exchange on the
    node per round, vectorized per-partition min-pointing) over a
    SQL-recomputable sparse graph derived from order keys, plus
    component sizes — the cluster-canonicalization step near-dup pairs
    feed at curation time.  The oracle recomputes components with a
    recursive min-label-propagation CTE."""
    from rasters_ray.relational import cluster_sizes, connected_components

    def mk_edges(t: pa.Table) -> pa.Table:
        k = t.column("o_orderkey").to_numpy()
        k = k[k < 15000].astype(np.int64)
        u = (k * 37) % 65536
        v = (k * 101 + 7) % 65536
        keep = u != v
        return pa.table(
            {
                "u": pa.array(u[keep], pa.int64()),
                "v": pa.array(v[keep], pa.int64()),
            }
        )

    edges = _read(sf_dir, "orders", ["o_orderkey"]).map_batches(
        mk_edges, batch_format="pyarrow"
    )
    return cluster_sizes(connected_components(edges))


def q_hilbert(sf_dir: str):
    """Hilbert-curve locality keys (grids/cellkey.py::hilbert_key — the
    canonical xy2d bit algorithm): per key the 64-point cloud maps to
    d in [0, 256) at bits=4; emits the per-key histogram of coarse
    key ranges (bucket = d >> 4) plus the key sum — the
    range-partitioning layout with strictly tighter shard bounding
    boxes than Morton.  The oracle unrolls the four rotate/reflect
    iterations as chained CTEs."""
    from rasters_ray.grids.cellkey import hilbert_key

    j = np.arange(64)

    def run(t: pa.Table) -> pa.Table:
        k = t.column("c_custkey").to_numpy().astype(np.int64)
        gid, bb, nn, ss = [], [], [], []
        for kk in k.tolist():
            d = hilbert_key((kk * j) % 16, (kk + 3 * j) % 16, bits=4)
            bucket = d >> 4
            ub, inv = np.unique(bucket, return_inverse=True)
            cnt = np.bincount(inv)
            dsum = np.zeros(len(ub), dtype=np.int64)
            np.add.at(dsum, inv, d)
            for u, n, s in zip(ub.tolist(), cnt.tolist(), dsum.tolist()):
                gid.append(f"g{kk:06d}")
                bb.append(u)
                nn.append(n)
                ss.append(s)
        return pa.table({
            "geom_id": pa.array(gid, pa.string()),
            "bucket": pa.array(bb, pa.int64()),
            "n_pts": pa.array(nn, pa.int64()),
            "sum_d": pa.array(ss, pa.int64()),
        })

    return _read(sf_dir, "customer", ["c_custkey"]).map_batches(
        run, batch_format="pyarrow")


def q_zorder_buckets(sf_dir: str):
    """Z-order (Morton) locality layout: points -> level-12 cell indices
    -> bit-interleaved curve key -> coarse key-range buckets with
    count/min/max — the spatially-coherent range partitioning a
    planet-scale table is clustered by.  Per-batch np.unique partials
    keep the shuffle at bucket cardinality."""
    from rasters_ray.grids import cellkey

    def partial(t: pa.Table) -> pa.Table:
        cid = cellkey.cell_ids(
            KEY_LEVEL,
            t.column("x").to_numpy(),
            t.column("y").to_numpy(),
        )
        ix = cid & ((1 << 28) - 1)
        iy = (cid >> 28) & ((1 << 28) - 1)
        z = cellkey.morton_key(ix, iy, bits=KEY_LEVEL)
        bucket = z >> 8
        ub, inv = np.unique(bucket, return_inverse=True)
        n = np.bincount(inv)
        zmin = np.full(len(ub), np.iinfo(np.int64).max)
        zmax = np.full(len(ub), np.iinfo(np.int64).min)
        np.minimum.at(zmin, inv, z)
        np.maximum.at(zmax, inv, z)
        return pa.table(
            {
                "bucket": pa.array(ub, pa.int64()),
                "n_pts": pa.array(n.astype(np.int64), pa.int64()),
                "zmin": pa.array(zmin, pa.int64()),
                "zmax": pa.array(zmax, pa.int64()),
            }
        )

    def final(g: pa.Table) -> pa.Table:
        return pa.table(
            {
                "bucket": g.column("bucket").slice(0, 1),
                "n_pts": pa.array(
                    [int(g.column("n_pts").to_numpy().sum())], pa.int64()
                ),
                "zmin": pa.array(
                    [int(g.column("zmin").to_numpy().min())], pa.int64()
                ),
                "zmax": pa.array(
                    [int(g.column("zmax").to_numpy().max())], pa.int64()
                ),
            }
        )

    return (
        _points_ds(sf_dir)
        .map_batches(partial, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(final, batch_format="pyarrow")
    )


def q_bloom_semi(sf_dir: str):
    """EXACT semi-join with a broadcast Bloom prefilter: urgent-order
    keys build a 2^17-bit filter (distributed partial bitmaps,
    OR-reduced to ONE 16 KiB broadcast value), lineitem rows that are
    definite misses drop BEFORE the shuffle, survivors go through the
    exact distributed left-semi hash join — the fact-vs-selective-
    dimension shape at 100 TB."""
    import pyarrow.compute as pc

    from rasters_ray.relational import bloom_semi_join

    urgent = _read(sf_dir, "orders", ["o_orderkey", "o_orderpriority"]).map_batches(
        lambda t: t.filter(
            pc.equal(t.column("o_orderpriority"), "1-URGENT")
        ).select(["o_orderkey"]),
        batch_format="pyarrow",
    )
    left = _read(
        sf_dir, "lineitem", ["l_orderkey", "l_linenumber", "l_quantity"]
    )
    return bloom_semi_join(
        left, "l_orderkey", urgent, "o_orderkey", m_bits=1 << 17, k=4
    )


def q_terrain(sf_dir: str):
    """Horn (1981) slope gradient, computed the DISTRIBUTED way (radius-1
    halo strips exchanged across the 32px tile lattice in one groupby
    shuffle, each tile derives its interior independently).  Integer
    numerators are exact; grad uses a fixed int64->float64 divide /
    square / add / sqrt order the oracle mirrors literally."""
    from rasters_ray.stages import terrain_halo_tiled

    return terrain_halo_tiled(_images_ds(sf_dir, N_IMG_FOCAL), step=5, tile=32)


def q_pyramid(sf_dir: str):
    """COG-style overview pyramid stats: levels 1-3 reduce 2^l x 2^l
    blocks of the base image to (n_px, integer-exact psum, mean) —
    embarrassingly parallel, no shuffle, ragged edge blocks partial.
    The oracle recomputes every block from the pixel formula with a
    GROUP BY r // 2^level."""
    from rasters_ray.stages import overview_stats

    return overview_stats(_images_ds(sf_dir, N_IMG_FOCAL), levels=(1, 2, 3))


def q_hash_split(sf_dir: str):
    """Deterministic train/val/test split by md5 bucket of doc_id —
    stable under repartitioning/appends/reruns; no shuffle, no state."""
    from rasters_ray.text import hash_split

    return hash_split(_read(sf_dir, "documents", ["doc_id"]))


def q_events_sliding(sf_dir: str):
    """SLIDING 1-hour windows hopping every 15 min (each event lands in
    exactly 4 windows).  Same partition-wise vectorized partial+final as
    the tumbling query; the explode factor W/hop is a constant 4, so wire
    volume stays 4x window-cardinality partials, not 4x events."""
    from rasters_ray.util import exchange, run_starts

    W, HOP = 3600, 900
    K = W // HOP

    def partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table(
                {
                    "event_type": pa.array([], pa.string()),
                    "window_start": pa.array([], pa.int64()),
                    "n": pa.array([], pa.int64()),
                    "vmin": pa.array([], pa.float64()),
                    "vmax": pa.array([], pa.float64()),
                }
            )
        per_sec = _ts_unit(t.column("ts").type)
        s = t.column("ts").cast(pa.int64()).to_numpy() // per_sec
        base = s // HOP
        win = ((base[None, :] - np.arange(K)[:, None]) * HOP).ravel()
        et = np.tile(np.asarray(t.column("event_type").to_pylist(), dtype=object), K)
        val = np.tile(t.column("value").to_numpy(zero_copy_only=False), K)
        order = np.lexsort((win, et))
        ets, wins, vals = et[order], win[order], val[order]
        starts = run_starts(ets, wins)
        n = np.diff(np.r_[starts, len(wins)])
        return pa.table(
            {
                "event_type": pa.array(ets[starts].tolist(), pa.string()),
                "window_start": pa.array(wins[starts], pa.int64()),
                "n": pa.array(n, pa.int64()),
                "vmin": pa.array(np.minimum.reduceat(vals, starts), pa.float64()),
                "vmax": pa.array(np.maximum.reduceat(vals, starts), pa.float64()),
            }
        )

    def final(group: pa.Table) -> pa.Table:
        et = np.asarray(group.column("event_type").to_pylist(), dtype=object)
        win = group.column("window_start").to_numpy()
        n = group.column("n").to_numpy()
        vmin = group.column("vmin").to_numpy(zero_copy_only=False)
        vmax = group.column("vmax").to_numpy(zero_copy_only=False)
        order = np.lexsort((win, et))
        ets, wins = et[order], win[order]
        starts = run_starts(ets, wins)
        return pa.table(
            {
                "event_type": pa.array(ets[starts].tolist(), pa.string()),
                "window_start": pa.array(wins[starts], pa.int64()),
                "n": pa.array(np.add.reduceat(n[order], starts), pa.int64()),
                "min_value": pa.array(
                    np.minimum.reduceat(vmin[order], starts), pa.float64()
                ),
                "max_value": pa.array(
                    np.maximum.reduceat(vmax[order], starts), pa.float64()
                ),
            }
        )

    partials = _read(sf_dir, "events", ["ts", "event_type", "value"]).map_batches(
        partial, batch_format="pyarrow"
    )
    return exchange(partials, "window_start", final)


def q_stratified_sample(sf_dir: str):
    """Deterministic stratified sample: the 20 events per type with the
    smallest md5-derived sample key — a reproducible, repartition-stable
    per-group sample (composition of the hash_split keying idea with
    topk_per_group's bounded-shuffle partial top-k; no random state)."""
    import hashlib

    from rasters_ray.relational import topk_per_group

    def add_key(t: pa.Table) -> pa.Table:
        ids = t.column("event_id").to_pylist()
        keys = np.fromiter(
            (
                int(hashlib.md5(str(i).encode()).hexdigest()[:8], 16)
                for i in ids
            ),
            dtype=np.int64,
            count=len(ids),
        )
        return t.append_column("sample_key", pa.array(keys, pa.int64()))

    ds = _read(sf_dir, "events", ["event_type", "event_id"]).map_batches(
        add_key, batch_format="pyarrow"
    )
    return topk_per_group(
        ds,
        "event_type",
        "sample_key",
        k=20,
        carry_cols=["event_id"],
        descending=False,
        tie_col="event_id",
    ).map_batches(
        lambda t: t.select(["event_type", "event_id", "sample_key", "rank"])
        .rename_columns(["event_type", "event_id", "sample_key", "sel_rank"]),
        batch_format="pyarrow",
    )


def q_grouped_quantiles(sf_dir: str):
    """Exact percentile_disc per event type (q1/median/q3/p95): groups
    hash-partitioned so each group resolves in one vectorized lexsort —
    the per-group analog of the global histogram-narrowing quantiles."""
    from rasters_ray.relational import grouped_quantiles

    return grouped_quantiles(
        _read(sf_dir, "events", ["event_type", "value"]),
        "event_type",
        "value",
        qs=[0.25, 0.5, 0.75, 0.95],
    )


def q_events_pivot(sf_dir: str):
    """Pivot to a wide hour-of-day x event-type count table.  The
    category domain is EXPLICIT (schema-sized), so there is no discovery
    pass: one streaming long-format partial + one hash-partitioned
    widen."""
    from rasters_ray.relational import pivot_counts

    def add_hour(t: pa.Table) -> pa.Table:
        per_sec = _ts_unit(t.column("ts").type)
        s = t.column("ts").cast(pa.int64()).to_numpy() // per_sec
        return t.append_column("hour", pa.array((s // 3600) % 24, pa.int64()))

    ds = _read(sf_dir, "events", ["ts", "event_type"]).map_batches(
        add_hour, batch_format="pyarrow"
    )
    return pivot_counts(
        ds, "hour", "event_type", ["click", "error", "purchase", "signup", "view"]
    )


def q_orders_anti(sf_dir: str):
    """Orders with no lineitems — the distributed hash join running in
    Acero's "left anti" mode (same one-exchange union machinery;
    semi/anti are mode flags, not separate operators)."""
    from rasters_ray.relational import hash_join

    orders = _read(sf_dir, "orders", ["o_orderkey", "o_totalprice"])
    li = _read(sf_dir, "lineitem", ["l_orderkey"])
    return hash_join(
        orders, li, on="o_orderkey", right_on="l_orderkey", how="left anti"
    )


def q_user_running(sf_dir: str):
    """Per-user running totals ordered by time (the ROWS UNBOUNDED
    PRECEDING window): one ``exchange`` by user, then ONE lexsort +
    segmented cumsum per partition resolves every user vectorized.  The
    cumulative sum is int64 floor-cents, so it is bit-exact regardless of
    block layout (a float cumsum would be order-dependent across engines)."""
    from rasters_ray.util import exchange, run_starts

    def kernel(part: pa.Table) -> pa.Table:
        u = part.column("user_id").to_numpy(zero_copy_only=False).astype(np.int64)
        per_sec = _ts_unit(part.column("ts").type)
        s = part.column("ts").cast(pa.int64()).to_numpy() // per_sec
        eid = part.column("event_id").to_numpy(zero_copy_only=False).astype(np.int64)
        val = part.column("value").to_numpy(zero_copy_only=False)
        cents = np.floor(val * 100.0).astype(np.int64)
        order = np.lexsort((eid, s, u))
        us, cs = u[order], cents[order]
        starts = run_starts(us)
        run = np.cumsum(cs)
        # segmented cumsum: subtract the prefix before each user's start
        base = np.repeat((run - cs)[starts], np.diff(np.r_[starts, len(us)]))
        run_n = (
            np.arange(len(us), dtype=np.int64)
            - np.repeat(starts, np.diff(np.r_[starts, len(us)]))
            + 1
        )
        return pa.table(
            {
                "event_id": pa.array(eid[order], pa.int64()),
                "user_id": pa.array(us, pa.int64()),
                "run_n": pa.array(run_n, pa.int64()),
                "run_cents": pa.array(run - base, pa.int64()),
            }
        )

    events = _read(sf_dir, "events", ["event_id", "user_id", "ts", "value"])
    return exchange(events, "user_id", kernel)


def q_events_rollup(sf_dir: str):
    """ROLLUP (event_type, hour) -> (type, hour) + (type) + grand total,
    sentinel-filled ('ALL' / -1).  The data is scanned ONCE at the
    finest grain (vectorized partial + one ``exchange`` by (type, hour));
    the coarser levels are derived from the finest-grain AGGREGATE, which
    is grain-sized (types x 24 rows, collected to pandas), never from the
    raw events — the aggregate-once-roll-up-later shape."""
    from rasters_ray.util import exchange, run_starts

    def partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table(
                {
                    "event_type": pa.array([], pa.string()),
                    "hour": pa.array([], pa.int64()),
                    "n": pa.array([], pa.int64()),
                    "sum_cents": pa.array([], pa.int64()),
                }
            )
        per_sec = _ts_unit(t.column("ts").type)
        s = t.column("ts").cast(pa.int64()).to_numpy() // per_sec
        hour = (s // 3600) % 24
        et = np.asarray(t.column("event_type").to_pylist(), dtype=object)
        cents = np.floor(
            t.column("value").to_numpy(zero_copy_only=False) * 100.0
        ).astype(np.int64)
        uet, einv = np.unique(et, return_inverse=True)
        combo = einv.astype(np.int64) * np.int64(24) + hour
        order = np.argsort(combo, kind="stable")
        cs = combo[order]
        starts = run_starts(cs)
        n = np.diff(np.r_[starts, len(cs)])
        return pa.table(
            {
                "event_type": pa.array(uet[(cs[starts] // 24).astype(np.int64)],
                                       pa.string()),
                "hour": pa.array(cs[starts] % 24, pa.int64()),
                "n": pa.array(n, pa.int64()),
                "sum_cents": pa.array(np.add.reduceat(cents[order], starts),
                                      pa.int64()),
            }
        )

    def final(group: pa.Table) -> pa.Table:
        et = np.asarray(group.column("event_type").to_pylist(), dtype=object)
        hour = group.column("hour").to_numpy()
        n = group.column("n").to_numpy()
        sc = group.column("sum_cents").to_numpy()
        uet, einv = np.unique(et, return_inverse=True)
        combo = einv.astype(np.int64) * np.int64(24) + hour
        order = np.argsort(combo, kind="stable")
        cs = combo[order]
        starts = run_starts(cs)
        return pa.table(
            {
                "event_type": pa.array(uet[(cs[starts] // 24).astype(np.int64)],
                                       pa.string()),
                "hour": pa.array(cs[starts] % 24, pa.int64()),
                "n": pa.array(np.add.reduceat(n[order], starts), pa.int64()),
                "sum_cents": pa.array(np.add.reduceat(sc[order], starts),
                                      pa.int64()),
            }
        )

    partials = _read(sf_dir, "events", ["ts", "event_type", "value"]).map_batches(
        partial, batch_format="pyarrow"
    )
    fine = exchange(partials, ["event_type", "hour"], final).to_pandas()
    import pandas as pd
    by_type = (
        fine.groupby("event_type", as_index=False)[["n", "sum_cents"]]
        .sum()
        .assign(hour=np.int64(-1))
    )
    total = pd.DataFrame(
        {
            "event_type": ["ALL"],
            "hour": np.array([-1], np.int64),
            "n": [fine["n"].sum()],
            "sum_cents": [fine["sum_cents"].sum()],
        }
    )
    out = pd.concat(
        [fine, by_type[["event_type", "hour", "n", "sum_cents"]], total],
        ignore_index=True,
    )
    out["n"] = out["n"].astype(np.int64)
    out["sum_cents"] = out["sum_cents"].astype(np.int64)
    return pa.Table.from_pandas(out, preserve_index=False)


def q_events_cube(sf_dir: str):
    """CUBE (event_type, hour) = the ROLLUP sets + the (hour)-only set —
    derived from the SAME single finest-grain scan (the rollup result
    still contains the grain rows, so the extra grouping set is a
    grain-sized pandas reduce; raw events are never rescanned)."""
    import pandas as pd

    roll = q_events_rollup(sf_dir).to_pandas()
    fine = roll[(roll["hour"] != -1)]
    by_hour = (
        fine.groupby("hour", as_index=False)[["n", "sum_cents"]]
        .sum()
        .assign(event_type="ALL")
    )
    out = pd.concat(
        [roll, by_hour[["event_type", "hour", "n", "sum_cents"]]],
        ignore_index=True,
    )
    out["n"] = out["n"].astype(np.int64)
    out["sum_cents"] = out["sum_cents"].astype(np.int64)
    return pa.Table.from_pandas(out, preserve_index=False)


def q_props_stats(sf_dir: str):
    """Semi-structured extraction: pull the integer field k out of the
    JSON ``props`` column with pyarrow.compute.extract_regex (vectorized
    C++ over the Arrow string array — no per-row json.loads in the hot
    path; the regex form is right for schema-stable fields, a json.loads
    task stage is the fallback for arbitrary shapes), then int-exact
    per-type stats via batch partials + a low-cardinality reduce."""
    import pyarrow.compute as pc

    def partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table(
                {
                    "event_type": pa.array([], pa.string()),
                    "n": pa.array([], pa.int64()),
                    "sum_k": pa.array([], pa.int64()),
                    "min_k": pa.array([], pa.int64()),
                    "max_k": pa.array([], pa.int64()),
                }
            )
        m = pc.extract_regex(t.column("props"), r'"k": (?P<k>\d+)')
        k = pc.struct_field(m, "k").cast(pa.int64()).to_numpy(zero_copy_only=False)
        et = np.asarray(t.column("event_type").to_pylist(), dtype=object)
        uet, einv = np.unique(et, return_inverse=True)
        order = np.argsort(einv, kind="stable")
        es = einv[order]
        ks = k[order]
        starts = np.flatnonzero(np.r_[True, np.diff(es) > 0])
        n = np.diff(np.r_[starts, len(es)])
        return pa.table(
            {
                "event_type": pa.array(uet[es[starts]], pa.string()),
                "n": pa.array(n, pa.int64()),
                "sum_k": pa.array(np.add.reduceat(ks, starts), pa.int64()),
                "min_k": pa.array(np.minimum.reduceat(ks, starts), pa.int64()),
                "max_k": pa.array(np.maximum.reduceat(ks, starts), pa.int64()),
            }
        )

    def final(group: pa.Table) -> pa.Table:
        return pa.table(
            {
                "event_type": group.column("event_type").slice(0, 1),
                "n": pa.array(
                    [int(group.column("n").to_numpy().sum())], pa.int64()
                ),
                "sum_k": pa.array(
                    [int(group.column("sum_k").to_numpy().sum())], pa.int64()
                ),
                "min_k": pa.array(
                    [int(group.column("min_k").to_numpy().min())], pa.int64()
                ),
                "max_k": pa.array(
                    [int(group.column("max_k").to_numpy().max())], pa.int64()
                ),
            }
        )

    return (
        _read(sf_dir, "events", ["event_type", "props"])
        .map_batches(partial, batch_format="pyarrow")
        .groupby("event_type")
        .map_groups(final, batch_format="pyarrow")
    )


def q_augment(sf_dir: str):
    """Image augmentation through the generic numpy-UDF lift
    (`apply_fn(np.fliplr)` / rot180) — the training-data augmentation
    stage, value-oracled: sampled pixels of the flipped images must
    equal the closed-form formula at mirrored indices, so a wrong axis,
    off-by-one, or re-encode corruption is a value mismatch."""
    from rasters_ray import codec
    from rasters_ray.stages import apply_fn

    flipped = apply_fn(_images_ds(sf_dir, N_IMG_FOCAL), np.fliplr)
    both = apply_fn(flipped, np.flipud)  # fliplr then flipud == rot180

    def sample(t: pa.Table) -> pa.Table:
        ids, rr, cc, vals = [], [], [], []
        blobs = codec.BlobReader(t.column("bytes"))
        fmts = t.column("fmt").to_pylist()
        id_col = t.column("image_id").to_pylist()
        sel = np.arange(0, 100, 7)
        gr, gc = np.meshgrid(sel, sel, indexing="ij")
        gr, gc = gr.ravel(), gc.ravel()
        for i in range(t.num_rows):
            px = codec.decode(blobs[i], fmts[i])
            ids.extend([id_col[i]] * len(gr))
            rr.append(gr)
            cc.append(gc)
            vals.append(px[gr, gc].astype(np.int64))
        return pa.table(
            {
                "image_id": pa.array(ids, pa.string()),
                "r": pa.array(np.concatenate(rr) if rr else [], pa.int64()),
                "c": pa.array(np.concatenate(cc) if cc else [], pa.int64()),
                "value": pa.array(np.concatenate(vals) if vals else [], pa.int64()),
            }
        )

    return both.map_batches(sample, batch_format="pyarrow")


def q_cluster_assign(sf_dir: str):
    """Distributed spherical k-means clustering of the embedding table:
    Lloyd rounds reduce k x (d+1) partials per batch (vectors never
    move), then a broadcast-centroid scoring assigns every vector.
    Value-exact golden oracle as of round 4: fixed-point int64 Lloyd
    accumulation + fixed-order einsum scoring make centroids and
    assignments bit-equal to the sequential kmeans_local reference at
    any block layout (tests/test_ann.py asserts it); the sequential
    assignment is the truth table (_kmeans_golden_path)."""
    from rasters_ray.ann import kmeans_assign, kmeans_centroids

    emb = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    cents = kmeans_centroids(emb, n_centroids=8, iters=3)
    out = kmeans_assign(emb, cents)
    return out.map_batches(
        lambda t: t.select(["vec_id", "cluster"]), batch_format="pyarrow"
    )


def q_normalize(sf_dir: str):
    """Text normalization for dedup hygiene: lowercase, squeeze
    whitespace, trim — all vectorized Arrow C++ kernels
    (utf8_lower / replace_substring_regex / utf8_trim_whitespace) —
    then the md5 content key OF THE NORMALIZED text (the key exact
    dedup should group on).  The md5 loop is per-row Python (no
    vectorized md5 exists); it hashes short normalized strings, not
    payloads."""
    import pyarrow.compute as pc

    from rasters_ray.text import content_key_md5

    def norm(t: pa.Table) -> pa.Table:
        s = pc.utf8_lower(t.column("text"))
        s = pc.replace_substring_regex(s, r"\s+", " ")
        s = pc.utf8_trim_whitespace(s)
        keys = pa.array(
            [content_key_md5(x if x is not None else "") for x in s.to_pylist()],
            pa.string(),
        )
        return pa.table(
            {
                "doc_id": t.column("doc_id"),
                "norm_len": pc.utf8_length(s).cast(pa.int64()),
                "norm_key": keys,
            }
        )

    return _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        norm, batch_format="pyarrow"
    )


def q_curation(sf_dir: str):
    """The capstone curation pipeline, end-to-end and oracle-checked:
    normalize -> exact-dedup on the normalized content key (keep the
    smallest doc_id) -> quality filter (>= 0.65, between attainable band
    scores so no float boundary) -> deterministic hash split -> per-split
    doc count + normalized-length sum.  One map stage computes
    normalize+quality+split per batch, ONE shuffle dedups by content
    key, and the per-split reduce is combiner-first — the whole corpus
    crosses the wire once, as keys and partials."""
    import pyarrow.compute as pc

    from rasters_ray.text import content_key_md5, hash_bucket, quality_score
    from rasters_ray.util import exchange, run_starts

    def prep(t: pa.Table) -> pa.Table:
        s = pc.utf8_lower(t.column("text"))
        s = pc.replace_substring_regex(s, r"\s+", " ")
        s = pc.utf8_trim_whitespace(s)
        keys = pa.array(
            [content_key_md5(x or "") for x in s.to_pylist()], pa.string()
        )
        q = quality_score(t).column("quality")
        ids = t.column("doc_id").to_numpy()
        buckets = np.fromiter(
            (hash_bucket(int(i)) for i in ids), dtype=np.int64, count=len(ids)
        )
        split = np.where(
            buckets < 80, "train", np.where(buckets < 90, "val", "test")
        )
        return pa.table(
            {
                "doc_id": t.column("doc_id"),
                "norm_key": keys,
                "norm_len": pc.utf8_length(s).cast(pa.int64()),
                "quality": q,
                "split": pa.array(split.astype(object), pa.string()),
            }
        )

    def dedup_part(group: pa.Table) -> pa.Table:
        # every copy of a key is in this partition: keep min doc_id per key
        keys = np.asarray(group.column("norm_key").to_pylist(), dtype=object)
        ids = group.column("doc_id").to_numpy(zero_copy_only=False)
        order = np.lexsort((ids, keys))
        ks = keys[order]
        first = order[run_starts(ks)]
        kept = group.take(pa.array(np.sort(first), pa.int64()))
        # quality gate + per-split partial (combiner before the reduce)
        qv = kept.column("quality").to_numpy(zero_copy_only=False)
        kept = kept.filter(pa.array(qv >= 0.65))
        sp = np.asarray(kept.column("split").to_pylist(), dtype=object)
        ln = kept.column("norm_len").to_numpy(zero_copy_only=False)
        usp, sinv = np.unique(sp, return_inverse=True)
        n = np.bincount(sinv, minlength=len(usp)).astype(np.int64)
        sums = np.zeros(len(usp), np.int64)
        np.add.at(sums, sinv, ln)
        return pa.table(
            {
                "split": pa.array(usp, pa.string()),
                "n_docs": pa.array(n, pa.int64()),
                "sum_len": pa.array(sums, pa.int64()),
            }
        )

    def final(part: pa.Table) -> pa.Table:
        sums = part.group_by("split").aggregate([("n_docs", "sum"), ("sum_len", "sum")])
        return pa.table(
            {
                "split": sums.column("split"),
                "n_docs": sums.column("n_docs_sum").cast(pa.int64()),
                "sum_len": sums.column("sum_len_sum").cast(pa.int64()),
            }
        )

    docs = _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(prep, batch_format="pyarrow")
    return exchange(exchange(docs, "norm_key", dedup_part), "split", final)


def q_distinct_users(sf_dir: str):
    """Exact COUNT(DISTINCT user) per event type — distinct pairs reduced
    per batch BEFORE the shuffle, hash-partitioned by user so local
    distinct is global distinct, then a second tiny partitioned sum."""
    from rasters_ray.relational import distinct_count

    return distinct_count(
        _read(sf_dir, "events", ["event_type", "user_id"]), "event_type", "user_id"
    )


def q_approx_distinct(sf_dir: str):
    """HyperLogLog per event type (m=4096, ~1.6% expected error) — the
    sketch path when even pair cardinality is too much wire.  Value-exact
    golden oracle as of round 4 (_hll_golden_path: HLL registers are
    order-independent, so the distributed merge must reproduce the
    sequential estimate bit-for-bit); the error bound vs the exact path
    is pytest-asserted."""
    from rasters_ray.relational import approx_distinct

    return approx_distinct(
        _read(sf_dir, "events", ["event_type", "user_id"]), "event_type", "user_id"
    )


def q_repetition(sf_dir: str):
    """Gopher-style word-repetition signals per document (all-int64 so
    the oracle is bit-exact): n_words / distinct / dup / top word /
    top bigram."""
    from rasters_ray.text import word_repetition

    return _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        word_repetition, batch_format="pyarrow"
    )


def entry() -> Any:
    """Flagship spatial-join + tiling at sf0.001: synthesize the image
    table, tile it, sample customer-derived points through every image —
    returns the join-row Dataset."""
    sf_dir = "/root/testdata/sf0.001"
    import pyarrow.parquet as pq

    from rasters_ray.stages import sample_points, tile_images

    images = _images_ds(sf_dir, 64)
    tiles = tile_images(images, level=TILE_LEVEL)
    n_tiles = tiles.count()  # consume the tiling leg
    pts = pq.read_table(f"{sf_dir}/customer.parquet", columns=["c_custkey"])
    from rasters_ray.sources.vectors import oracle_points_from_keys

    points = oracle_points_from_keys(pts.column("c_custkey").to_numpy()[:500])
    join = sample_points(_images_ds(sf_dir, 64), points, level=TILE_LEVEL)
    assert n_tiles > 0
    return join


def q_token_pack(sf_dir: str):
    """LLM sequence packing: global EXCLUSIVE token offset per document
    (distributed two-level prefix scan, relational/prefix.py) -> the
    fixed-length training-sample id its first token lands in
    (seq_len=256).  One all-to-all on the contiguous range-bucket key;
    the driver sees only per-bucket token totals.  Oracle: window SUM
    ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING."""
    from rasters_ray.relational.prefix import prefix_sum_scan
    from rasters_ray.text import token_stats

    docs = (
        _read(sf_dir, "documents", ["doc_id", "text"])
        .map_batches(token_stats, batch_format="pyarrow")
        .map_batches(
            lambda t: t.select(["doc_id", "n_tokens"]), batch_format="pyarrow"
        )
    )
    packed = prefix_sum_scan(
        docs, "doc_id", "n_tokens", out_col="token_offset", bucket_size=64
    )

    def seq(t: pa.Table) -> pa.Table:
        off = t.column("token_offset").to_numpy(zero_copy_only=False)
        return t.append_column("seq_id", pa.array(off // 256, pa.int64()))

    return packed.map_batches(seq, batch_format="pyarrow")


def q_forward_fill(sf_dir: str):
    """Gap filling over the global event stream: carry the latest 'click'
    value forward to every subsequent event (LOCF), -1.0 before the first
    click.  Distributed two-level prefix scan over the event_id order —
    per-bucket last observations to the driver, carry-in broadcast, one
    bucket-key shuffle.  Oracle: LAST_VALUE(... IGNORE NULLS) window."""
    from rasters_ray.relational.prefix import forward_fill_scan

    def nullify(t: pa.Table) -> pa.Table:
        et = t.column("event_type").to_numpy(zero_copy_only=False)
        v = t.column("value").to_numpy(zero_copy_only=False).astype(np.float64)
        obs = np.where(et == "click", v, np.nan)
        return pa.table(
            {
                "event_id": t.column("event_id"),
                "obs": pa.array(obs, pa.float64()),
            }
        )

    ds = _read(sf_dir, "events", ["event_id", "event_type", "value"]).map_batches(
        nullify, batch_format="pyarrow"
    )
    filled = forward_fill_scan(
        ds, "event_id", "obs", out_col="last_click_value",
        fill_start=-1.0, bucket_size=1024,
    )
    return filled.map_batches(
        lambda t: t.select(["event_id", "last_click_value"]),
        batch_format="pyarrow",
    )


def q_setjoin(sf_dir: str):
    """EXACT set-similarity self-join (word-token Jaccard >= 0.8) via the
    PPJoin prefix filter (text/setjoin.py) + the shared distributed
    verify.  Restricted to docs 0..63 because the synthetic corpus's tiny
    shared vocabulary makes most doc pairs similar (the oracle recomputes
    ALL pairs; 64 docs keeps its all-pairs join tractable) — the engine
    path itself is the full distributed pipeline."""
    import pyarrow.compute as pc

    from rasters_ray.text.setjoin import set_similarity_join

    docs = _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        lambda t: t.filter(pc.less(t.column("doc_id"), 64)),
        batch_format="pyarrow",
    )
    return set_similarity_join(docs, threshold=0.8)


def q_range_partition(sf_dir: str):
    """The sampled-sort primitive: 16 equal-height range buckets of
    l_extendedprice from EXACT quantile cuts (histogram-narrowing
    selection, no global sort), combiner-first per-bucket stats in
    int64 floor-cents."""
    from rasters_ray.relational.rangepart import range_partition_stats

    return range_partition_stats(
        _read(sf_dir, "lineitem", ["l_extendedprice"]), "l_extendedprice", 16
    )


def q_winsorize(sf_dir: str):
    """Outlier-robust aggregation: clip event values at the global
    exact [p05, p95], then per-type counts + clipped floor-cents sum —
    two streaming passes over a pruned read."""
    from rasters_ray.relational.rangepart import winsorized_stats

    return winsorized_stats(
        _read(sf_dir, "events", ["event_type", "value"]),
        "value",
        "event_type",
        0.05,
        0.95,
    )


def q_weighted_sample(sf_dir: str):
    """Deterministic weighted sampling (systematic resampling): 32 picks
    over orders weighted by o_totalprice — global cumulative weights via
    the distributed prefix scan, all-integer so the draw is bit-equal to
    the SQL oracle (ln-key schemes are not bit-portable)."""
    from rasters_ray.relational.wsample import weighted_systematic_sample

    return weighted_systematic_sample(
        _read(sf_dir, "orders", ["o_orderkey", "o_totalprice"]),
        "o_orderkey",
        "o_totalprice",
        k=32,
        bucket_size=2048,
    )


def q_pca(sf_dir: str):
    """Distributed PCA (one streaming scatter-matrix pass -> driver
    eigensolve -> broadcast projection) over the embeddings table.
    Rows-only: eigendecomposition is not SQL-expressible; correctness vs
    single-machine numpy PCA (components, eigenvalues, reconstruction)
    is pinned in tests/test_pca.py."""
    from rasters_ray.ann.pca import pca_project

    proj, _ = pca_project(
        _read(sf_dir, "embeddings", ["vec_id", "embedding"]), n_components=4
    )
    return proj


def q_hillshade(sf_dir: str):
    """Lambertian hillshade composed over the distributed halo-exchange
    gradient field (hillshade is elementwise in the Horn numerators, so
    it rides the same one-shuffle stencil; trig constants pre-folded to
    literals for bit-portability — see stages/terrain.py)."""
    from rasters_ray.stages import terrain_halo_tiled
    from rasters_ray.stages.terrain import lambertian_shade

    base = terrain_halo_tiled(_images_ds(sf_dir, N_IMG_FOCAL), step=5, tile=32)

    def shade(t: pa.Table) -> pa.Table:
        gx = t.column("gx_num").to_numpy(zero_copy_only=False)
        gy = t.column("gy_num").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "image_id": t.column("image_id"),
                "r": t.column("r"),
                "c": t.column("c"),
                "shade": pa.array(
                    lambertian_shade(gx, gy, 0.01, 0.01), pa.float64()
                ),
            }
        )

    return base.map_batches(shade, batch_format="pyarrow")


def q_funnel(sf_dir: str):
    """Ordered funnel per user (view -> click -> purchase, strictly
    increasing timestamps, each stage anchored at the FIRST qualifying
    event): one ``exchange`` by user, per-partition fully vectorized
    multi-user kernel (lexsort + minimum.reduceat cascade) — the same
    no-per-user-Python-loop shape as events_sessions."""
    from rasters_ray.util import exchange, run_starts

    INF = np.int64(1) << 62

    def funnel(group: pa.Table) -> pa.Table:
        u = group.column("user_id").to_numpy(zero_copy_only=False).astype(np.int64)
        tcol = group.column("ts")
        ts = tcol.cast(pa.int64()).to_numpy()
        et = group.column("event_type").to_numpy(zero_copy_only=False)
        order = np.lexsort((ts, u))
        us, ss, es = u[order], ts[order], et[order]
        starts = run_starts(us)
        runlen = np.diff(np.r_[starts, len(us)])

        def first_after(kind, floor_row):
            cand = np.where((es == kind) & (ss > floor_row), ss, INF)
            first = np.minimum.reduceat(cand, starts)
            return first, np.repeat(first, runlen)

        fv, fv_row = first_after("view", np.full(len(ss), -INF))
        fc, fc_row = first_after("click", fv_row)
        fp, _ = first_after("purchase", fc_row)
        depth = np.where(fp < INF, 3, np.where(fc < INF, 2, np.where(fv < INF, 1, 0)))
        return pa.table(
            {
                "user_id": pa.array(us[starts], pa.int64()),
                "depth": pa.array(depth.astype(np.int64), pa.int64()),
            }
        )

    return exchange(_read(sf_dir, "events", ["user_id", "ts", "event_type"]), "user_id", funnel)


def q_bigram_coverage(sf_dir: str):
    """LM-coverage quality signal: per-doc occurrence counts against the
    corpus's top-200 bigrams (combiner-first global counts, one shuffle,
    per-partition top-k cut, broadcast top table) — the integer-exact
    core of LM-based corpus filtering."""
    from rasters_ray.text.analysis import bigram_coverage

    return bigram_coverage(_read(sf_dir, "documents", ["doc_id", "text"]), k=200)


def q_decontaminate(sf_dir: str):
    """Benchmark decontamination (text/analysis.py::decontaminate — the
    GPT-3 appendix-C training-data hygiene pass): documents with
    doc_id % 37 == 0 form the held-out benchmark; every other document
    is scanned for shared word 5-grams against the broadcast benchmark
    gram set.  Corpus pass is shuffle-free; the benchmark side is
    driver-small by construction."""
    from rasters_ray.text.analysis import decontaminate

    return decontaminate(_read(sf_dir, "documents", ["doc_id", "text"]),
                         bench_mod=37, n=5)


def q_proximity(sf_dir: str):
    """Capped L1 distance transform (gdal_proximity analog): one
    radius-R halo exchange makes the capped transform EXACT per tile —
    no relaxation rounds (stages/proximity.py)."""
    from rasters_ray.stages.proximity import distance_transform_tiled

    return distance_transform_tiled(
        _images_ds(sf_dir, N_IMG_FOCAL), seed_mod=17, cap=12, tile=32, step=7
    )


def q_streaming_dedup(sf_dir: str):
    """The shared-mutable-index path (raw actors, the one gated escape
    hatch — state/dedupindex.py): stream md5 content keys through N
    sharded index actors, query the final key -> min(doc_id) table.
    min() makes the index arrival-order independent, so it must equal
    the groupby answer bit-for-bit — which this oracle checks."""
    from rasters_ray.state.dedupindex import build_first_seen_index
    from rasters_ray.text import content_key_md5

    def keyed(t: pa.Table) -> pa.Table:
        keys = [content_key_md5(x or "") for x in t.column("text").to_pylist()]
        return pa.table(
            {"key": pa.array(keys, pa.string()), "doc_id": t.column("doc_id")}
        )

    ds = _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        keyed, batch_format="pyarrow"
    )
    return build_first_seen_index(ds, "key", "doc_id", n_shards=8)


def q_chunk_spans(sf_dir: str):
    """LLM context-window chunking: explode each document into
    size-64/stride-48 token spans (16-token overlap) — a pure vectorized
    flat_map (np.repeat + arange per batch, rows out > rows in, no
    shuffle).  Oracle: lateral range(0, n_tokens, 48)."""
    SIZE, STRIDE = 64, 48

    def chunks(t: pa.Table) -> pa.Table:
        texts = t.column("text").to_pylist()
        ids = t.column("doc_id").to_numpy(zero_copy_only=False)
        n = np.array([len((x or "").split()) for x in texts], np.int64)
        n_chunks = (n + STRIDE - 1) // STRIDE  # = len(range(0, n, STRIDE))
        did = np.repeat(ids, n_chunks)
        total = int(n_chunks.sum())
        if total == 0:
            return pa.table(
                {
                    "doc_id": pa.array([], pa.int64()),
                    "chunk_idx": pa.array([], pa.int64()),
                    "start": pa.array([], pa.int64()),
                    "len": pa.array([], pa.int64()),
                }
            )
        # chunk_idx within each doc: global arange minus each doc's base
        base = np.repeat(np.r_[0, np.cumsum(n_chunks)[:-1]], n_chunks)
        idx = np.arange(total, dtype=np.int64) - base
        start = idx * STRIDE
        ln = np.minimum(SIZE, np.repeat(n, n_chunks) - start)
        return pa.table(
            {
                "doc_id": pa.array(did, pa.int64()),
                "chunk_idx": pa.array(idx, pa.int64()),
                "start": pa.array(start, pa.int64()),
                "len": pa.array(ln, pa.int64()),
            }
        )

    return _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        chunks, batch_format="pyarrow"
    )


def q_sketch_quantiles(sf_dir: str):
    """Approximate quantiles via the deterministic MRL mergeable sketch
    (relational/kll.py): one streaming pass, KB-sized per-block
    summaries, driver merge.  Rows-only: the sketch's collapse choices
    are not SQL-expressible; rank error (<1%) is measured against exact
    order statistics in tests/test_kll.py and reported alongside
    the exact `quantiles` query for the same column."""
    from rasters_ray.relational.kll import sketch_quantiles

    return sketch_quantiles(
        _read(sf_dir, "lineitem", ["l_extendedprice"]),
        "l_extendedprice",
        QUANTILE_QS,
        k=256,
    )


def q_set_except(sf_dir: str):
    """Relational EXCEPT (customers with no orders) as a distinct-set
    op: per-block key+side-bit combiner, ONE hash-partitioned OR-reduce
    (relational/setops.py) — wire volume is distinct keys, not rows."""
    import pyarrow.compute as pc

    from rasters_ray.relational.setops import set_op

    big = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"]).map_batches(
        lambda t: t.filter(pc.greater(t.column("o_totalprice"), 400000.0)).select(
            ["o_custkey"]
        ),
        batch_format="pyarrow",
    )
    return set_op(
        _read(sf_dir, "customer", ["c_custkey"]),
        big,
        "c_custkey",
        "except",
        key_col_b="o_custkey",
    )


def q_set_intersect(sf_dir: str):
    """Relational INTERSECT (customers that do have orders) on the same
    one-shuffle machinery."""
    from rasters_ray.relational.setops import set_op

    return set_op(
        _read(sf_dir, "customer", ["c_custkey"]),
        _read(sf_dir, "orders", ["o_custkey"]),
        "c_custkey",
        "intersect",
        key_col_b="o_custkey",
    )


N_DUPGRAM = 8  # word-n-gram width for the duplicated-span signal


def q_dup_spans(sf_dir: str):
    """Substring-level dedup signal (the distributed core of
    Lee et al. 2022 'Deduplicating Training Data Makes Language Models
    Better'): per document, how many of its word-8-gram positions occur
    >= 2 times in the whole corpus.  Composition of existing machinery:
    vectorized gram explode (object-array concat) -> combiner-first
    global gram counts -> duplicated-gram table -> DISTRIBUTED left-semi
    hash_join of positions against it -> per-doc int reduce.  No
    broadcast of the (unboundedly large) gram table."""
    from ray.data.aggregate import Sum

    from rasters_ray.relational import hash_join
    from rasters_ray.util import exchange

    N = N_DUPGRAM

    def grams_of(words: list) -> np.ndarray:
        if len(words) < N:
            return np.array([], dtype=object)
        a = np.asarray(words, dtype=object)
        g = a[: len(a) - N + 1]
        for j in range(1, N):
            g = g + " " + a[j : len(a) - N + 1 + j]
        return g

    def positions(t: pa.Table) -> pa.Table:
        out_d: list = []
        out_g: list = []
        ids = t.column("doc_id").to_numpy(zero_copy_only=False)
        for did, txt in zip(ids, t.column("text").to_pylist()):
            g = grams_of((txt or "").split())
            if len(g):
                out_g.append(g)
                out_d.append(np.full(len(g), did, np.int64))
        if not out_g:
            return pa.table(
                {"doc_id": pa.array([], pa.int64()),
                 "gram": pa.array([], pa.string())}
            )
        return pa.table(
            {
                "doc_id": pa.array(np.concatenate(out_d), pa.int64()),
                "gram": pa.array(np.concatenate(out_g), pa.string()),
            }
        )

    pos = _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        positions, batch_format="pyarrow"
    )

    def count_partial(t: pa.Table) -> pa.Table:
        g = t.column("gram").to_numpy(zero_copy_only=False)
        uniq, counts = np.unique(g, return_counts=True)
        return pa.table(
            {
                "gram": pa.array(uniq, pa.string()),
                "n": pa.array(counts.astype(np.int64), pa.int64()),
            }
        )

    def dup_only(group: pa.Table) -> pa.Table:
        g = group.column("gram").to_numpy(zero_copy_only=False)
        n = group.column("n").to_numpy(zero_copy_only=False)
        uniq, inv = np.unique(g, return_inverse=True)
        sums = np.zeros(len(uniq), np.int64)
        np.add.at(sums, inv, n)
        keep = sums >= 2
        return pa.table({"gram": pa.array(uniq[keep], pa.string())})

    dup = exchange(pos.map_batches(count_partial, batch_format="pyarrow"), "gram", dup_only)
    hits = hash_join(pos, dup, on="gram", how="left semi")

    def per_doc(t: pa.Table) -> pa.Table:
        d = t.column("doc_id").to_numpy(zero_copy_only=False)
        uniq, counts = np.unique(d, return_counts=True)
        return pa.table(
            {
                "doc_id": pa.array(uniq, pa.int64()),
                "c": pa.array(counts.astype(np.int64), pa.int64()),
            }
        )

    dup_counts = (
        hits.map_batches(per_doc, batch_format="pyarrow")
        .groupby("doc_id")
        .aggregate(Sum("c", alias_name="n_dup"))
    )

    def gram_totals(t: pa.Table) -> pa.Table:
        ids = t.column("doc_id").to_numpy(zero_copy_only=False)
        ng = np.array(
            [max(len((x or "").split()) - N + 1, 0)
             for x in t.column("text").to_pylist()],
            np.int64,
        )
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "n_grams": pa.array(ng, pa.int64()),
            }
        )

    base = _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        gram_totals, batch_format="pyarrow"
    )
    # doc-cardinality tables stay distributed: left-outer join, fill 0
    joined = hash_join(base, dup_counts, on="doc_id", how="left outer")

    def fill0(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return pa.table(
            {
                "doc_id": t.column("doc_id"),
                "n_grams": t.column("n_grams"),
                "n_dup": pc.fill_null(t.column("n_dup").cast(pa.int64()), 0),
            }
        )

    return joined.map_batches(fill0, batch_format="pyarrow")


def q_band_join(sf_dir: str):
    """Banded stream-stream self-join: for every 'error' event, count the
    same user's 'click' events in the preceding 60 s (ts in [t-60s, t)).
    ONE ``exchange`` by user; inside a partition the count is two
    searchsorted calls on a composite (user, ts) key — no per-user
    Python loop, no row pairing ever materialized."""
    from rasters_ray.util import exchange

    def band_count(group: pa.Table) -> pa.Table:
        et = group.column("event_type").to_numpy(zero_copy_only=False)
        u = group.column("user_id").to_numpy(zero_copy_only=False).astype(np.int64)
        tcol = group.column("ts")
        ts = tcol.cast(pa.int64()).to_numpy()
        unit = _ts_unit(tcol.type)
        eid = group.column("event_id").to_numpy(zero_copy_only=False)
        is_e = et == "error"
        is_c = et == "click"
        t0 = ts.min() if len(ts) else 0
        rel = ts - t0
        # stride exceeds span + window so a window's lower bound can
        # never dip into the previous user's key range
        M = np.int64(rel.max() + 60 * unit + 2) if len(rel) else np.int64(1)
        if len(u) and int(u.max()) >= (1 << 62) // int(M):
            raise OverflowError("user*span exceeds int64 — widen the key")
        key_c = np.sort(u[is_c] * M + rel[is_c])
        ke = u[is_e] * M + rel[is_e]
        lo = np.searchsorted(key_c, ke - np.int64(60 * unit))
        hi = np.searchsorted(key_c, ke)
        return pa.table(
            {
                "event_id": pa.array(eid[is_e], pa.int64()),
                "n_recent_clicks": pa.array((hi - lo).astype(np.int64), pa.int64()),
            }
        )

    events = _read(sf_dir, "events", ["event_id", "user_id", "ts", "event_type"])
    return exchange(events, "user_id", band_count)


def q_inter_arrival(sf_dir: str):
    """LAG-window inter-arrival statistics per (user, event_type):
    vectorized multi-run diff (lexsort + per-run reduceat) inside one
    ``exchange`` by user — integer microsecond gaps, bit-exact."""
    from rasters_ray.util import exchange, run_starts

    def gaps(group: pa.Table) -> pa.Table:
        u = group.column("user_id").to_numpy(zero_copy_only=False).astype(np.int64)
        et = np.asarray(group.column("event_type").to_pylist(), dtype=object)
        ts = group.column("ts").cast(pa.int64()).to_numpy()
        # _ts_unit-independent: emit gaps in MICROSECONDS to match
        # DuckDB's epoch_us regardless of the parquet timestamp unit
        per_sec = _ts_unit(group.column("ts").type)
        us = ts * (1_000_000 // per_sec) if per_sec <= 1_000_000 else ts // (
            per_sec // 1_000_000
        )
        uet, einv = np.unique(et, return_inverse=True)
        order = np.lexsort((us, einv, u))
        uo, eo, to = u[order], einv[order], us[order]
        starts = run_starts(uo, eo)
        n = np.diff(np.r_[starts, len(to)]) - 1  # gaps per run
        # each row's gap from the row before, 0 at a run's start
        g = np.diff(to, prepend=to[:1])
        g[starts] = 0
        keep = n > 0
        return pa.table(
            {
                "user_id": pa.array(uo[starts][keep], pa.int64()),
                "event_type": pa.array(uet[eo[starts][keep]], pa.string()),
                "n_gaps": pa.array(n[keep], pa.int64()),
                "sum_gap_us": pa.array((to[starts + n] - to[starts])[keep], pa.int64()),
                "max_gap_us": pa.array(np.maximum.reduceat(g, starts)[keep], pa.int64()),
            }
        )

    return exchange(_read(sf_dir, "events", ["user_id", "ts", "event_type"]), "user_id", gaps)


def q_user_fill(sf_dir: str):
    """Per-key LOCF (LAST_VALUE IGNORE NULLS PARTITION BY user): carry
    each user's latest 'purchase' value onto their subsequent events —
    the partitioned sibling of the global forward_fill scan; one
    ``exchange`` by user, vectorized in-partition fill."""
    from rasters_ray.util import exchange, run_starts

    def fill(group: pa.Table) -> pa.Table:
        u = group.column("user_id").to_numpy(zero_copy_only=False).astype(np.int64)
        eid = group.column("event_id").to_numpy(zero_copy_only=False)
        et = group.column("event_type").to_numpy(zero_copy_only=False)
        v = group.column("value").to_numpy(zero_copy_only=False).astype(np.float64)
        order = np.lexsort((eid, u))
        uo, io, eo, vo = u[order], eid[order], et[order], v[order]
        obs = eo == "purchase"
        idx = np.where(obs, np.arange(len(vo)) + 1, 0)
        # reset the carried index at each user boundary: segmented cummax
        starts = run_starts(uo)
        seg = np.repeat(np.arange(len(starts)), np.diff(np.r_[starts, len(uo)]))
        # per-segment maximum.accumulate: subtract a big per-segment base
        base = seg * (len(vo) + 1)
        np.maximum.accumulate(idx + base, out=idx)  # idx now has base added
        idx = idx - base
        # idx may still reference an observation from an earlier row of
        # the SAME segment only: base stride guarantees cross-segment
        # carries can't win the running max
        filled = np.where(idx > 0, np.r_[np.nan, vo][idx], -1.0)
        out = np.empty(len(vo), np.float64)
        out[order] = filled
        return pa.table(
            {
                "event_id": group.column("event_id"),
                "last_purchase": pa.array(out, pa.float64()),
            }
        )

    events = _read(sf_dir, "events", ["event_id", "user_id", "event_type", "value"])
    return exchange(events, "user_id", fill)


def q_hist_equalize(sf_dir: str):
    """Per-image histogram equalization LUT (integer-exact classic
    formula: eq(v) = (cdf(v) - cdf_min) * 255 // (n_px - cdf_min)) —
    embarrassingly parallel bincount+cumsum per image, output is the
    per-value mapping table, never re-exploded pixels."""
    from rasters_ray import codec

    def eq(t: pa.Table) -> pa.Table:
        ids: list = []
        vals: list = []
        ns: list = []
        eqs: list = []
        if t.num_rows:
            blobs = codec.BlobReader(t.column("bytes"))
            fmts = t.column("fmt").to_pylist()
            iids = t.column("image_id").to_pylist()
            for i in range(t.num_rows):
                px = codec.decode(blobs[i], fmts[i]).astype(np.int64).ravel()
                counts = np.bincount(px)
                present = np.flatnonzero(counts)
                cdf = np.cumsum(counts)[present]
                cdf_min = int(cdf[0])
                denom = max(int(px.size) - cdf_min, 1)
                e = (cdf - cdf_min) * 255 // denom
                ids.extend([iids[i]] * len(present))
                vals.append(present.astype(np.int64))
                ns.append(counts[present].astype(np.int64))
                eqs.append(e.astype(np.int64))
        if not vals:
            return pa.table(
                {
                    "image_id": pa.array([], pa.string()),
                    "value": pa.array([], pa.int64()),
                    "n_px": pa.array([], pa.int64()),
                    "eq": pa.array([], pa.int64()),
                }
            )
        return pa.table(
            {
                "image_id": pa.array(ids, pa.string()),
                "value": pa.array(np.concatenate(vals), pa.int64()),
                "n_px": pa.array(np.concatenate(ns), pa.int64()),
                "eq": pa.array(np.concatenate(eqs), pa.int64()),
            }
        )

    return _images_ds(sf_dir, N_IMG_FOCAL).map_batches(eq, batch_format="pyarrow")


_BPE_PATTERN = r" ?[A-Za-z]+| ?[0-9]+| ?[^A-Za-z0-9\s]+"


def q_bpe_tokens(sf_dir: str):
    """BPE-ish regex token counting (GPT-2-style word/number/punct
    pieces, lookahead-free so Python re and DuckDB RE2 agree literally):
    per-doc piece count + per-class counts, one compiled-regex
    map_batches."""
    import re

    pat = re.compile(_BPE_PATTERN)

    import string

    # classify with the SAME ASCII classes the regex uses ([A-Za-z]/[0-9]);
    # Unicode-wide str.isalpha()/isdigit() would diverge from the oracle's
    # regexp_matches on any non-ASCII text
    _ascii_alpha = set(string.ascii_letters)
    _ascii_digit = set(string.digits)

    def count(t: pa.Table) -> pa.Table:
        n_tok: list = []
        n_alpha: list = []
        n_num: list = []
        for txt in t.column("text").to_pylist():
            pieces = pat.findall(txt or "")
            n_tok.append(len(pieces))
            n_alpha.append(sum(1 for p in pieces if p.lstrip(" ")[:1] in _ascii_alpha))
            n_num.append(sum(1 for p in pieces if p.lstrip(" ")[:1] in _ascii_digit))
        return pa.table(
            {
                "doc_id": t.column("doc_id"),
                "n_pieces": pa.array(n_tok, pa.int64()),
                "n_alpha": pa.array(n_alpha, pa.int64()),
                "n_num": pa.array(n_num, pa.int64()),
            }
        )

    return _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        count, batch_format="pyarrow"
    )


def q_focal_median(sf_dir: str):
    """3x3 focal MEDIAN on the shared halo exchange — a selection
    stencil (order statistic, not additive), so unlike focal sums it
    cannot use integral images or combiners; the distributed answer is
    exact because each tile sees its full radius-1 canvas.  9 values per
    window (odd) -> middle element, integer, no interpolation.  Sampled
    on the step-5 interior lattice like `terrain`."""
    from rasters_ray.stages.focal import halo_exchange_tiled

    STEP = 5

    def tile_fn(image_id, canvas, tr0, tc0, trows, tcols) -> pa.Table:
        a = np.asarray(canvas, dtype=np.float64)
        stack = np.stack(
            [
                a[dr : dr + a.shape[0] - 2, dc : dc + a.shape[1] - 2]
                for dr in (0, 1, 2)
                for dc in (0, 1, 2)
            ]
        )
        valid = np.isfinite(stack).all(axis=0)
        med = np.sort(stack, axis=0)[4]
        rr = np.arange(trows)
        cc = np.arange(tcols)
        rsel = rr[(rr + tr0) % STEP == 0]
        csel = cc[(cc + tc0) % STEP == 0]
        if not len(rsel) or not len(csel):
            return pa.table(
                {
                    "image_id": pa.array([], pa.string()),
                    "r": pa.array([], pa.int64()),
                    "c": pa.array([], pa.int64()),
                    "med": pa.array([], pa.int64()),
                }
            )
        gr, gc = np.meshgrid(rsel, csel, indexing="ij")
        gr, gc = gr.ravel(), gc.ravel()
        ok = valid[:trows, :tcols][gr, gc]
        gr, gc = gr[ok], gc[ok]
        return pa.table(
            {
                "image_id": pa.array(
                    np.repeat(np.array([image_id], dtype=object), len(gr)),
                    pa.string(),
                ),
                "r": pa.array(gr + tr0, pa.int64()),
                "c": pa.array(gc + tc0, pa.int64()),
                "med": pa.array(
                    med[:trows, :tcols][gr, gc].astype(np.int64), pa.int64()
                ),
            }
        )

    return halo_exchange_tiled(
        _images_ds(sf_dir, N_IMG_FOCAL), radius=1, tile=32, tile_fn=tile_fn
    )


def q_priority_semi(sf_dir: str):
    """TPC-H Q4 analog: orders having at least one returned lineitem
    (EXISTS), counted per priority — distributed left-semi hash_join,
    filter pushed into the build-side read, combiner-first count."""
    import pyarrow.compute as pc

    from ray.data.aggregate import Sum

    from rasters_ray.relational import hash_join

    returned = _read(sf_dir, "lineitem", ["l_orderkey", "l_returnflag"]).map_batches(
        lambda t: t.filter(pc.equal(t.column("l_returnflag"), "R")).select(
            ["l_orderkey"]
        ),
        batch_format="pyarrow",
    )
    hits = hash_join(
        _read(sf_dir, "orders", ["o_orderkey", "o_orderpriority"]),
        returned,
        on="o_orderkey",
        right_on="l_orderkey",
        how="left semi",
    )

    def partial(t: pa.Table) -> pa.Table:
        p = np.asarray(t.column("o_orderpriority").to_pylist(), dtype=object)
        uniq, counts = np.unique(p, return_counts=True)
        return pa.table(
            {
                "o_orderpriority": pa.array(uniq, pa.string()),
                "c": pa.array(counts.astype(np.int64), pa.int64()),
            }
        )

    return (
        hits.map_batches(partial, batch_format="pyarrow")
        .groupby("o_orderpriority")
        .aggregate(Sum("c", alias_name="n_orders"))
    )


def q_data_mix(sf_dir: str):
    """Training-corpus mixing: each source contributes a per-source
    QUOTA of documents (quota = 10 * (1 + source_index % 3)), selected
    deterministically by smallest md5 sample key — reproducible corpus
    composition under any repartitioning.  topk_per_group at the max
    quota, then the per-source cut; bounded shuffle (partial top-k per
    block first)."""
    import hashlib

    from rasters_ray.relational import topk_per_group

    def add_key(t: pa.Table) -> pa.Table:
        ids = t.column("doc_id").to_pylist()
        keys = np.fromiter(
            (int(hashlib.md5(str(i).encode()).hexdigest()[:8], 16) for i in ids),
            dtype=np.int64,
            count=len(ids),
        )
        return t.append_column("sample_key", pa.array(keys, pa.int64()))

    ds = _read(sf_dir, "documents", ["doc_id", "source"]).map_batches(
        add_key, batch_format="pyarrow"
    )
    # tie_col: on a 32-bit md5-prefix collision the rank among equal keys
    # must match the oracle's ORDER BY (sample_key ASC, doc_id ASC)
    ranked = topk_per_group(
        ds, "source", "sample_key", k=30, carry_cols=["doc_id"],
        descending=False, tie_col="doc_id",
    )

    def quota_cut(t: pa.Table) -> pa.Table:
        src = np.asarray(t.column("source").to_pylist(), dtype=object)
        idx = np.array([int(s[3:]) for s in src], np.int64)
        quota = 10 * (1 + idx % 3)
        rank = t.column("rank").to_numpy(zero_copy_only=False)
        out = t.filter(pa.array(rank <= quota))
        return out.rename_columns(
            ["sel_rank" if c == "rank" else c for c in out.column_names]
        )

    return ranked.map_batches(quota_cut, batch_format="pyarrow")


def q_bpe_merges(sf_dir: str):
    """Distributed BPE merge training (text/bpe.py) — 8 rounds of
    most-frequent-pair over the documents corpus, each round one
    vocabulary-weighted streaming pass + a driver pick over one row per
    exchange partition.
    Value-exact golden oracle as of round 4 (_bpe_golden_path: integer
    counts + deterministic tie-break make the merge sequence exactly
    reproducible by the sequential reference trainer); also asserted
    bit-equal to that reference in tests/test_bpe.py."""
    from rasters_ray.text.bpe import train_bpe

    return train_bpe(_read(sf_dir, "documents", ["text"]), n_merges=8)


def q_box_overlay(sf_dir: str):
    """Vector overlay (intersection area): image footprints x query
    boxes -> per-pair clipped rectangle + area.  Broadcast small side,
    vectorized min/max per batch; per-pair float arithmetic only (no
    cross-row sums), so areas hash bit-exact against the SQL
    LEAST/GREATEST form.  The R-tree candidate filter (state/rtree.py)
    is the scale path when the box side outgrows a broadcast."""
    boxes = np.array(
        [[x0, y0, x1, y1] for _, x0, y0, x1, y1 in PIP_BOXES], np.float64
    )
    names = np.asarray([b[0] for b in PIP_BOXES], dtype=object)

    def overlay(t: pa.Table) -> pa.Table:
        grids = t.column("grid").to_pylist()
        ids = np.asarray(t.column("image_id").to_pylist(), dtype=object)
        x0 = np.array([g["x_origin"] for g in grids])
        y1 = np.array([g["y_origin"] for g in grids])  # top
        x1 = x0 + np.array([g["cell_width"] * g["cols"] for g in grids])
        y0 = y1 + np.array([g["cell_height"] * g["rows"] for g in grids])
        ixmin = np.maximum(x0[:, None], boxes[None, :, 0])
        iymin = np.maximum(y0[:, None], boxes[None, :, 1])
        ixmax = np.minimum(x1[:, None], boxes[None, :, 2])
        iymax = np.minimum(y1[:, None], boxes[None, :, 3])
        w = ixmax - ixmin
        h = iymax - iymin
        hit = (w > 0) & (h > 0)
        ii, jj = np.nonzero(hit)
        return pa.table(
            {
                "image_id": pa.array(ids[ii], pa.string()),
                "poly_id": pa.array(names[jj], pa.string()),
                "area": pa.array(w[ii, jj] * h[ii, jj], pa.float64()),
            }
        )

    return _images_ds(sf_dir, N_IMG_TILE).map_batches(
        overlay, batch_format="pyarrow"
    )


_ANALYZE_COLS = ["l_quantity", "l_extendedprice", "l_discount", "l_tax"]


def q_analyze(sf_dir: str):
    """Catalog statistics (the ANALYZE pass every planner needs): one
    streaming scan computes (n, n_null, min, max, floor-cents sum) for
    EVERY numeric column at once — per-batch partials are a few scalars
    per column, final reduce is column-count-sized."""

    def partial(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        cols: list = []
        n: list = []
        nn: list = []
        vmin: list = []
        vmax: list = []
        sc: list = []
        for c in _ANALYZE_COLS:
            col = t.column(c)
            v = col.to_numpy(zero_copy_only=False).astype(np.float64)
            nulls = int(col.null_count) + int(np.isnan(v).sum())
            ok = v[~np.isnan(v)]
            cols.append(c)
            n.append(t.num_rows)
            nn.append(nulls)
            vmin.append(float(ok.min()) if len(ok) else np.inf)
            vmax.append(float(ok.max()) if len(ok) else -np.inf)
            sc.append(int(np.floor(ok * 100.0).astype(np.int64).sum()))
        return pa.table(
            {
                "col": pa.array(cols, pa.string()),
                "n": pa.array(n, pa.int64()),
                "n_null": pa.array(nn, pa.int64()),
                "vmin": pa.array(vmin, pa.float64()),
                "vmax": pa.array(vmax, pa.float64()),
                "sum_cents": pa.array(sc, pa.int64()),
            }
        )

    def final(group: pa.Table) -> pa.Table:
        return pa.table(
            {
                "col": pa.array([group.column("col")[0].as_py()], pa.string()),
                "n": pa.array(
                    [int(group.column("n").to_numpy().sum())], pa.int64()
                ),
                "n_null": pa.array(
                    [int(group.column("n_null").to_numpy().sum())], pa.int64()
                ),
                "vmin": pa.array(
                    [float(group.column("vmin").to_numpy().min())], pa.float64()
                ),
                "vmax": pa.array(
                    [float(group.column("vmax").to_numpy().max())], pa.float64()
                ),
                "sum_cents": pa.array(
                    [int(group.column("sum_cents").to_numpy().sum())], pa.int64()
                ),
            }
        )

    return (
        _read(sf_dir, "lineitem", _ANALYZE_COLS)
        .map_batches(partial, batch_format="pyarrow")
        .groupby("col")
        .map_groups(final, batch_format="pyarrow")
    )


def q_dup_clusters(sf_dir: str):
    """Near-dup CLUSTERING end to end: pHash Hamming pairs (pigeonhole
    buckets + popcount verify) -> distributed CCF connected components ->
    (image node, cluster root) — the canonicalization step that turns a
    pair list into dedup groups.  Oracle: recursive min-label CTE over
    the SQL-recomputed pair set."""
    from rasters_ray.relational.concomp import connected_components
    from rasters_ray.sources import images_dataset
    from rasters_ray.text import hamming_near_dups

    _phash_fixture_path()
    imgs = images_dataset(PHASH_FIXTURE_N, profile="fixtures").select_columns(
        ["image_id", "phash"]
    )
    pairs = hamming_near_dups(imgs, max_dist=6, bands=8, cap=2 * PHASH_FIXTURE_N)

    def to_edges(t: pa.Table) -> pa.Table:
        a = np.array(
            [int(s[3:]) for s in t.column("a").to_pylist()], np.int64
        )
        b = np.array(
            [int(s[3:]) for s in t.column("b").to_pylist()], np.int64
        )
        return pa.table(
            {"u": pa.array(a, pa.int64()), "v": pa.array(b, pa.int64())}
        )

    return connected_components(pairs.map_batches(to_edges, batch_format="pyarrow"))


def q_pq_codes(sf_dir: str):
    """Product quantization (ann/pq.py): M=4 sub-quantizers trained in
    one distributed pass per Lloyd round, vectors encoded to 4 codes,
    exploded to (vec_id, m, code) rows.  Value-exact golden oracle as of
    round 4: the fixed-point int64 centroid accumulation makes training
    bit-equal to the sequential ``pq_train_local`` reference at any
    block layout (tests/test_pq.py asserts it), so the sequential codes
    ARE the truth table (_pq_golden_path)."""
    from rasters_ray.ann.pq import pq_encode, train_pq

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    books = train_pq(ds, m_subspaces=4, k=16, iters=4)

    def explode(t: pa.Table) -> pa.Table:
        n = t.num_rows
        m = 4
        if n == 0:
            return pa.table({"vec_id": pa.array([], pa.int64()),
                             "m": pa.array([], pa.int64()),
                             "code": pa.array([], pa.int64())})
        vid = np.repeat(t.column("vec_id").to_numpy(), m)
        codes = np.stack(
            [np.asarray(c, dtype=np.int64) for c in t.column("codes").to_pylist()]
        ).reshape(-1)
        return pa.table(
            {
                "vec_id": pa.array(vid, pa.int64()),
                "m": pa.array(np.tile(np.arange(m, dtype=np.int64), n), pa.int64()),
                "code": pa.array(codes, pa.int64()),
            }
        )

    return pq_encode(ds, books).map_batches(explode, batch_format="pyarrow")


def q_geoimage_write(sf_dir: str):
    """to_geopng file sink (sources/geoimage.py): 4 oracle images ->
    viridis RGB PNG + world-file + .crs sidecars under /tmp, written on
    workers; returns the manifest.  Each written PNG is DECODED BACK and
    its exact RGB integer sum reported, so the golden VALUES oracle pins
    the whole render chain (stretch -> LUT -> PNG round-trip) by pixel
    CONTENT, not by compressed size (which would vary with the zlib
    build).  The query also verifies the sidecars exist.  Output dir is
    pid-unique so concurrent sweeps cannot race."""
    import os

    from rasters_ray.codec import png_codec
    from rasters_ray.sources.geoimage import write_geoimages

    out_dir = f"/tmp/rasters_ray_geoimage_q_{os.getpid()}"
    manifest = write_geoimages(
        _images_ds(sf_dir, 4), out_dir, out_fmt="png", cmap="viridis"
    )

    def check(t: pa.Table) -> pa.Table:
        keep_id, keep_n = [], []
        for i in range(t.num_rows):
            p = t.column("path")[i].as_py()
            base = p[:-4]
            ok = (os.path.exists(p) and os.path.exists(base + ".pgw")
                  and os.path.exists(base + ".crs"))
            keep_id.append(t.column("image_id")[i].as_py())
            if ok:
                with open(p, "rb") as f:
                    rgb = png_codec.decode(f.read())
                keep_n.append(int(rgb.astype(np.int64).sum()))
            else:
                keep_n.append(-1)
        return pa.table(
            {
                "image_id": pa.array(keep_id, pa.string()),
                "rgb_sum": pa.array(keep_n, pa.int64()),
            }
        )

    return manifest.map_batches(check, batch_format="pyarrow")


def q_zarr_tiles(sf_dir: str):
    """Distributed Zarr v2 tile sink (sources/zarr_lite.py::
    write_zarr_tiles): image 0's quadtree tiles written as independent
    chunk files ON WORKERS, read back through read_zarr, one stats row
    per chunk.  Pixel sums are exact ints (oracle pixels are integer-
    valued), so the golden VALUES oracle pins chunk placement, padding
    and the zlib round-trip."""
    import ray

    from rasters_ray.sources.zarr_lite import (
        list_zarr_chunks,
        read_zarr_chunk,
        write_zarr_tiles,
    )
    from rasters_ray.stages import make_tiles

    out_dir = f"/tmp/rasters_ray_zarr_q_{__import__('os').getpid()}/tiles.zarr"
    tiles = _images_ds(sf_dir, 1).map_batches(
        lambda t: make_tiles(t, level=TILE_LEVEL, decode_pixels=True),
        batch_format="pyarrow",
    )
    write_zarr_tiles(tiles, out_dir, level=TILE_LEVEL, tile_size=128)
    # chunk-wise readback: the LOGICAL array is a sparse planetary
    # quadtree (32768^2 at level 8) — never materialize it
    rows = {"iy": [], "ix": [], "px_sum": []}
    for iy, ix in list_zarr_chunks(out_dir, "tiles"):
        block = read_zarr_chunk(out_dir, "tiles", (iy, ix))
        rows["iy"].append(iy)
        rows["ix"].append(ix)
        rows["px_sum"].append(int(np.rint(block.astype(np.float64)).sum()))
    tab = pa.table(
        {
            "iy": pa.array(rows["iy"], pa.int64()),
            "ix": pa.array(rows["ix"], pa.int64()),
            "px_sum": pa.array(rows["px_sum"], pa.int64()),
        }
    )
    return ray.data.from_arrow(tab)


def q_strip_tiff(sf_dir: str):
    """Real-world GeoTIFF envelope (sources/geotiff.py): each oracle
    image round-trips through STRIPPED and big-endian TIFF variants —
    strips+LZW little-endian, strips+deflate big-endian, strips+PackBits,
    tiles+uncompressed big-endian — written and read back on WORKERS via
    the ``open_raster`` magic router.  Pixel sums are exact ints and the
    grid origin survives as floor-cm, so the golden VALUES oracle pins
    the strip assembly, LZW/PackBits codecs, byte-order handling and
    GeoKey georeferencing end-to-end.  Scale shape: one independent file
    per (image, variant) on worker-local disk; nothing shuffles."""
    import os

    from rasters_ray import codec
    from rasters_ray.grids import GridSpec
    from rasters_ray.sources.geotiff import write_geotiff
    from rasters_ray.sources.open import open_raster

    variants = [
        ("strips_lzw_le", "strips", "lzw", "<"),
        ("strips_deflate_be", "strips", "deflate", ">"),
        ("strips_packbits_le", "strips", "packbits", "<"),
        ("tiles_none_be", "tiles", "none", ">"),
    ]
    out_dir = f"/tmp/rasters_ray_tiff_q_{os.getpid()}"

    def roundtrip(t: pa.Table) -> pa.Table:
        os.makedirs(out_dir, exist_ok=True)
        rows = {"image_id": [], "variant": [], "px_sum": [], "x0_cm": [],
                "y0_cm": []}
        for i in range(t.num_rows):
            iid = t.column("image_id")[i].as_py()
            px = codec.decode(t.column("bytes")[i].as_py(),
                              t.column("fmt")[i].as_py())
            g = t.column("grid")[i].as_py()
            grid = GridSpec(crs=g["crs"], x_origin=g["x_origin"],
                            y_origin=g["y_origin"], cell_width=g["cell_width"],
                            cell_height=g["cell_height"], rows=g["rows"],
                            cols=g["cols"])
            for name, layout, comp, bo in variants:
                p = os.path.join(out_dir, f"{iid}_{name}.tif")
                write_geotiff(px, grid, p, layout=layout, compression=comp,
                              byte_order=bo, rows_per_strip=17, tile=64,
                              overviews=False)
                arr, g2 = open_raster(p)
                rows["image_id"].append(iid)
                rows["variant"].append(name)
                rows["px_sum"].append(int(np.rint(arr.astype(np.float64)).sum()))
                rows["x0_cm"].append(int(np.floor(g2.x_origin * 100.0)))
                rows["y0_cm"].append(int(np.floor(g2.y_origin * 100.0)))
        return pa.table(
            {
                "image_id": pa.array(rows["image_id"], pa.string()),
                "variant": pa.array(rows["variant"], pa.string()),
                "px_sum": pa.array(rows["px_sum"], pa.int64()),
                "x0_cm": pa.array(rows["x0_cm"], pa.int64()),
                "y0_cm": pa.array(rows["y0_cm"], pa.int64()),
            }
        )

    return _images_ds(sf_dir, 2).map_batches(roundtrip, batch_format="pyarrow")


def q_rgb_tiff(sf_dir: str):
    """Multi-band GeoTIFF envelope (sources/geotiff.py chunky
    PlanarConfiguration=1): each oracle image becomes a deterministic
    3-channel RGB stack (r = px, g = 255-px, b = (3*px+7) mod 256) and
    round-trips through strips+LZW+predictor-2 little-endian and
    strips+deflate big-endian variants ON WORKERS via ``open_raster``.
    Per-channel integer sums + floor-cm origin pin the interleaved
    strip assembly, per-channel horizontal differencing and RGB
    photometric tagging; the VALUES oracle rows derive from the same
    pixel sums strip_tiff pins (g-channel = 255*10000 - px_sum). Scale
    shape: one file per (image, variant) on worker-local disk; nothing
    shuffles."""
    import os

    from rasters_ray import codec
    from rasters_ray.grids import GridSpec
    from rasters_ray.sources.geotiff import write_geotiff
    from rasters_ray.sources.open import open_raster

    variants = [
        ("strips_lzw_pred2_le", "lzw", "<", 2),
        ("strips_deflate_be", "deflate", ">", 1),
    ]
    out_dir = f"/tmp/rasters_ray_rgb_q_{os.getpid()}"

    def roundtrip(t: pa.Table) -> pa.Table:
        os.makedirs(out_dir, exist_ok=True)
        rows = {"image_id": [], "variant": [], "ch0_sum": [], "ch1_sum": [],
                "ch2_sum": [], "x0_cm": [], "y0_cm": []}
        for i in range(t.num_rows):
            iid = t.column("image_id")[i].as_py()
            px = codec.decode(t.column("bytes")[i].as_py(),
                              t.column("fmt")[i].as_py())
            g = t.column("grid")[i].as_py()
            grid = GridSpec(crs=g["crs"], x_origin=g["x_origin"],
                            y_origin=g["y_origin"], cell_width=g["cell_width"],
                            cell_height=g["cell_height"], rows=g["rows"],
                            cols=g["cols"])
            r = px.astype(np.uint8)
            rgb = np.stack(
                [r, (255 - r.astype(np.int64)).astype(np.uint8),
                 ((r.astype(np.int64) * 3 + 7) % 256).astype(np.uint8)],
                axis=-1)
            for name, comp, bo, pred in variants:
                p = os.path.join(out_dir, f"{iid}_{name}.tif")
                write_geotiff(rgb, grid, p, layout="strips", compression=comp,
                              byte_order=bo, predictor=pred, rows_per_strip=17)
                arr, g2 = open_raster(p)
                rows["image_id"].append(iid)
                rows["variant"].append(name)
                for ch in range(3):
                    rows[f"ch{ch}_sum"].append(
                        int(arr[..., ch].astype(np.int64).sum()))
                rows["x0_cm"].append(int(np.floor(g2.x_origin * 100.0)))
                rows["y0_cm"].append(int(np.floor(g2.y_origin * 100.0)))
        return pa.table(
            {
                "image_id": pa.array(rows["image_id"], pa.string()),
                "variant": pa.array(rows["variant"], pa.string()),
                "ch0_sum": pa.array(rows["ch0_sum"], pa.int64()),
                "ch1_sum": pa.array(rows["ch1_sum"], pa.int64()),
                "ch2_sum": pa.array(rows["ch2_sum"], pa.int64()),
                "x0_cm": pa.array(rows["x0_cm"], pa.int64()),
                "y0_cm": pa.array(rows["y0_cm"], pa.int64()),
            }
        )

    return _images_ds(sf_dir, 2).map_batches(roundtrip, batch_format="pyarrow")


def q_gpkg_roundtrip(sf_dir: str):
    """GeoPackage envelope (sources/geopackage.py): each oracle image
    round-trips through an OGC tile-pyramid SQLite container written
    and read back ON WORKERS — write_geopackage emits the spec tables
    (gpkg_contents / gpkg_tile_matrix_set / gpkg_tile_matrix) with the
    pixels as a PNG tile, read_geopackage reassembles the georeferenced
    array and open_raster routes the SQLite magic. Pixels ride as exact
    uint16, so the golden VALUES oracle pins the same integer sums and
    floor-cm origins strip_tiff pins. Scale shape: one file per image
    on worker-local disk; nothing shuffles."""
    import os

    from rasters_ray import codec
    from rasters_ray.grids import GridSpec
    from rasters_ray.sources.geopackage import write_geopackage
    from rasters_ray.sources.open import open_raster

    out_dir = f"/tmp/rasters_ray_gpkg_q_{os.getpid()}"

    def roundtrip(t: pa.Table) -> pa.Table:
        os.makedirs(out_dir, exist_ok=True)
        rows = {"image_id": [], "px_sum": [], "x0_cm": [], "y0_cm": []}
        for i in range(t.num_rows):
            iid = t.column("image_id")[i].as_py()
            px = codec.decode(t.column("bytes")[i].as_py(),
                              t.column("fmt")[i].as_py())
            g = t.column("grid")[i].as_py()
            grid = GridSpec(crs=g["crs"], x_origin=g["x_origin"],
                            y_origin=g["y_origin"], cell_width=g["cell_width"],
                            cell_height=g["cell_height"], rows=g["rows"],
                            cols=g["cols"])
            p = os.path.join(out_dir, f"{iid}.gpkg")
            write_geopackage(px.astype(np.uint16), grid, p)
            arr, g2 = open_raster(p)
            rows["image_id"].append(iid)
            rows["px_sum"].append(int(arr.astype(np.int64).sum()))
            rows["x0_cm"].append(int(np.floor(g2.x_origin * 100.0)))
            rows["y0_cm"].append(int(np.floor(g2.y_origin * 100.0)))
        return pa.table(
            {
                "image_id": pa.array(rows["image_id"], pa.string()),
                "px_sum": pa.array(rows["px_sum"], pa.int64()),
                "x0_cm": pa.array(rows["x0_cm"], pa.int64()),
                "y0_cm": pa.array(rows["y0_cm"], pa.int64()),
            }
        )

    return _images_ds(sf_dir, 2).map_batches(roundtrip, batch_format="pyarrow")


def q_asc_roundtrip(sf_dir: str):
    """ESRI ASCII grid envelope (sources/ascii_grid.py): each oracle
    image round-trips through the plain-text Arc/Info ASCIIGRID format
    written and read back ON WORKERS — write_ascii_grid emits the
    corner header + %.10g rows, read_ascii_grid reparses them and
    open_raster routes the ``ncols`` text sniff. Pixels ride as exact
    uint16 (integers print exactly at %.10g), so the golden VALUES
    oracle pins the same integer sums and floor-cm origins the other
    container queries pin. Scale shape: one file per image on
    worker-local disk; nothing shuffles."""
    import os

    from rasters_ray import codec
    from rasters_ray.grids import GridSpec
    from rasters_ray.sources.ascii_grid import write_ascii_grid
    from rasters_ray.sources.open import open_raster

    out_dir = f"/tmp/rasters_ray_asc_q_{os.getpid()}"

    def roundtrip(t: pa.Table) -> pa.Table:
        os.makedirs(out_dir, exist_ok=True)
        rows = {"image_id": [], "px_sum": [], "x0_cm": [], "y0_cm": []}
        for i in range(t.num_rows):
            iid = t.column("image_id")[i].as_py()
            px = codec.decode(t.column("bytes")[i].as_py(),
                              t.column("fmt")[i].as_py())
            g = t.column("grid")[i].as_py()
            grid = GridSpec(crs=g["crs"], x_origin=g["x_origin"],
                            y_origin=g["y_origin"], cell_width=g["cell_width"],
                            cell_height=g["cell_height"], rows=g["rows"],
                            cols=g["cols"])
            p = os.path.join(out_dir, f"{iid}.asc")
            write_ascii_grid(px.astype(np.uint16), grid, p)
            arr, g2 = open_raster(p)
            rows["image_id"].append(iid)
            rows["px_sum"].append(int(np.nansum(arr).astype(np.int64)))
            rows["x0_cm"].append(int(np.floor(g2.x_origin * 100.0)))
            rows["y0_cm"].append(int(np.floor(g2.y_origin * 100.0)))
        return pa.table(
            {
                "image_id": pa.array(rows["image_id"], pa.string()),
                "px_sum": pa.array(rows["px_sum"], pa.int64()),
                "x0_cm": pa.array(rows["x0_cm"], pa.int64()),
                "y0_cm": pa.array(rows["y0_cm"], pa.int64()),
            }
        )

    return _images_ds(sf_dir, 2).map_batches(roundtrip, batch_format="pyarrow")


def q_hgt_roundtrip(sf_dir: str):
    """SRTM .hgt envelope (sources/srtm.py): a 65x65 crop of each
    oracle image round-trips through the headerless big-endian-int16
    tile format ON WORKERS, georeferenced purely by the N37W105-style
    FILENAME convention (write_hgt validates the token, read_hgt
    rebuilds the GDAL SRTMHGT pixel-center grid, open_raster routes
    the extension — the format has no magic). n=65 makes the cell
    1/64 deg, DYADIC, so the half-cell edge offsets are exact in
    float64 and the floor-cm golden is bit-stable. Pixels are ints in
    [0, 250] (int16-lossless). Scale shape: one tile per image on
    worker-local disk; nothing shuffles."""
    import os

    from rasters_ray import codec
    from rasters_ray.sources.open import open_raster
    from rasters_ray.sources.srtm import write_hgt

    out_dir = f"/tmp/rasters_ray_hgt_q_{os.getpid()}"
    tiles = {"img00000000": "N37W105", "img00000001": "S09E112"}

    def roundtrip(t: pa.Table) -> pa.Table:
        os.makedirs(out_dir, exist_ok=True)
        rows = {"image_id": [], "px_sum": [], "x0_cm": [], "y0_cm": []}
        for i in range(t.num_rows):
            iid = t.column("image_id")[i].as_py()
            px = codec.decode(t.column("bytes")[i].as_py(),
                              t.column("fmt")[i].as_py())
            p = os.path.join(out_dir, f"{tiles[iid]}.hgt")
            write_hgt(px[:65, :65].astype(np.float64), p)
            arr, g2 = open_raster(p)
            rows["image_id"].append(iid)
            rows["px_sum"].append(int(np.nansum(arr).astype(np.int64)))
            rows["x0_cm"].append(int(np.floor(g2.x_origin * 100.0)))
            rows["y0_cm"].append(int(np.floor(g2.y_origin * 100.0)))
        return pa.table(
            {
                "image_id": pa.array(rows["image_id"], pa.string()),
                "px_sum": pa.array(rows["px_sum"], pa.int64()),
                "x0_cm": pa.array(rows["x0_cm"], pa.int64()),
                "y0_cm": pa.array(rows["y0_cm"], pa.int64()),
            }
        )

    return _images_ds(sf_dir, 2).map_batches(roundtrip, batch_format="pyarrow")


def q_bil_roundtrip(sf_dir: str):
    """Raw-binary + .hdr envelope (sources/rawbin.py): each oracle
    image round-trips ON WORKERS through a DIFFERENT dialect of the
    headerless-payload family — image 0 as ESRI EHdr (big-endian int16
    BIL, pixel-center ULXMAP/ULYMAP registration, the GTOPO30 layout),
    image 1 as ENVI (float32 BSQ, corner-registered map info) — and
    open_raster routes the extension. The golden VALUES pin the exact
    integer pixel sums plus the floor-cm origins AFTER the half-cell
    center<->corner fp round-trip (run-deterministic: fixed IEEE op
    order). Scale shape: one file per image on worker-local disk;
    nothing shuffles."""
    import os

    from rasters_ray import codec
    from rasters_ray.grids import GridSpec
    from rasters_ray.sources.open import open_raster
    from rasters_ray.sources.rawbin import write_rawbin

    out_dir = f"/tmp/rasters_ray_bil_q_{os.getpid()}"
    style = {"img00000000": ("esri", ">", np.int16, "bil"),
             "img00000001": ("envi", "<", np.float32, "bsq")}

    def roundtrip(t: pa.Table) -> pa.Table:
        os.makedirs(out_dir, exist_ok=True)
        rows = {"image_id": [], "px_sum": [], "x0_cm": [], "y0_cm": []}
        for i in range(t.num_rows):
            iid = t.column("image_id")[i].as_py()
            px = codec.decode(t.column("bytes")[i].as_py(),
                              t.column("fmt")[i].as_py())
            g = t.column("grid")[i].as_py()
            grid = GridSpec(crs=g["crs"], x_origin=g["x_origin"],
                            y_origin=g["y_origin"], cell_width=g["cell_width"],
                            cell_height=g["cell_height"], rows=g["rows"],
                            cols=g["cols"])
            dialect, bo, dt, il = style[iid]
            p = os.path.join(out_dir, f"{iid}.{il if il != 'bsq' else 'bsq'}")
            write_rawbin(px.astype(dt), grid, p, dialect=dialect,
                         interleave=il, byte_order=bo)
            arr, g2 = open_raster(p)
            rows["image_id"].append(iid)
            rows["px_sum"].append(int(np.nansum(arr).astype(np.int64)))
            rows["x0_cm"].append(int(np.floor(g2.x_origin * 100.0)))
            rows["y0_cm"].append(int(np.floor(g2.y_origin * 100.0)))
        return pa.table(
            {
                "image_id": pa.array(rows["image_id"], pa.string()),
                "px_sum": pa.array(rows["px_sum"], pa.int64()),
                "x0_cm": pa.array(rows["x0_cm"], pa.int64()),
                "y0_cm": pa.array(rows["y0_cm"], pa.int64()),
            }
        )

    return _images_ds(sf_dir, 2).map_batches(roundtrip, batch_format="pyarrow")


def q_shp_roundtrip(sf_dir: str):
    """ESRI Shapefile envelope (sources/shapefile.py): the oracle
    points (c_custkey < 2000) round-trip ON WORKERS through .shp +
    .shx + .dbf — geometry doubles are stored raw (bit-exact back),
    the integer attribute rides a dBase N field — and the oracle
    recomputes EVERYTHING from the customer view (_PTS_CTE formula +
    floor-cm), so this is a value-exact non-golden contract. Scale
    shape: one shapefile per input block on worker-local disk; nothing
    shuffles."""
    import os

    from rasters_ray.sources.shapefile import read_shapefile, write_shapefile
    from rasters_ray.sources.vectors import oracle_points_from_keys

    out_dir = f"/tmp/rasters_ray_shp_q_{os.getpid()}"

    def roundtrip(t: pa.Table) -> pa.Table:
        os.makedirs(out_dir, exist_ok=True)
        k = t.column("c_custkey").to_numpy()
        k = k[k < 2000]
        if len(k) == 0:
            return pa.table({"point_id": pa.array([], pa.string()),
                             "x_cm": pa.array([], pa.int64()),
                             "y_cm": pa.array([], pa.int64()),
                             "grp": pa.array([], pa.int64())})
        pts = oracle_points_from_keys(k)
        pts = pts.append_column(
            "grp", pa.array((k % 1000).astype(np.int64), pa.int64()))
        p = os.path.join(out_dir, f"blk{int(k[0])}_{os.getpid()}.shp")
        write_shapefile(pts, p)
        back = read_shapefile(p)
        x = back.column("x").to_numpy()
        y = back.column("y").to_numpy()
        return pa.table(
            {
                "point_id": back.column("point_id"),
                "x_cm": pa.array(np.floor(x * 100.0).astype(np.int64)),
                "y_cm": pa.array(np.floor(y * 100.0).astype(np.int64)),
                "grp": back.column("grp"),
            }
        )

    return _read(sf_dir, "customer", ["c_custkey"]).map_batches(
        roundtrip, batch_format="pyarrow")


def q_geoparquet_roundtrip(sf_dir: str):
    """GeoParquet envelope (sources/geoparquet.py + wkb.py): the oracle
    points (c_custkey < 2000) round-trip ON WORKERS through a WKB-
    encoded parquet file with spec 'geo' metadata — geometry doubles
    are stored raw in WKB (bit-exact back), the integer attribute rides
    a plain parquet column — and the oracle recomputes EVERYTHING from
    the customer view (_PTS_CTE formula + floor-cm), so this is a
    value-exact non-golden contract. Scale shape: one parquet shard per
    input block on worker-local disk; nothing shuffles; the read path
    is the engine's most Ray-native vector ingest (native parquet scan
    + one vectorized WKB decode)."""
    import os

    from rasters_ray.sources.geoparquet import (read_geoparquet,
                                                write_geoparquet)
    from rasters_ray.sources.vectors import oracle_points_from_keys

    out_dir = f"/tmp/rasters_ray_gpq_q_{os.getpid()}"

    def roundtrip(t: pa.Table) -> pa.Table:
        os.makedirs(out_dir, exist_ok=True)
        k = t.column("c_custkey").to_numpy()
        k = k[k < 2000]
        if len(k) == 0:
            return pa.table({"point_id": pa.array([], pa.string()),
                             "x_cm": pa.array([], pa.int64()),
                             "y_cm": pa.array([], pa.int64()),
                             "grp": pa.array([], pa.int64())})
        pts = oracle_points_from_keys(k)
        pts = pts.append_column(
            "grp", pa.array((k % 1000).astype(np.int64), pa.int64()))
        p = os.path.join(out_dir, f"blk{int(k[0])}_{os.getpid()}.parquet")
        write_geoparquet(pts, p)
        back = read_geoparquet(p)
        x = back.column("x").to_numpy()
        y = back.column("y").to_numpy()
        return pa.table(
            {
                "point_id": back.column("point_id"),
                "x_cm": pa.array(np.floor(x * 100.0).astype(np.int64)),
                "y_cm": pa.array(np.floor(y * 100.0).astype(np.int64)),
                "grp": back.column("grp"),
            }
        )

    return _read(sf_dir, "customer", ["c_custkey"]).map_batches(
        roundtrip, batch_format="pyarrow")


def q_geom_stats(sf_dir: str):
    """Vector-geometry measures (stages/geomvec.py): deterministic
    DYADIC rectangles (every coordinate an exact binary fraction, so
    shoelace area, perimeter and bounds are BIT-EXACT in f64) derived
    from c_custkey — every third feature carries a centered hole, and
    hole rings are stored in the SAME winding as the outer ring so the
    even-odd hole classifier (not winding) is what the oracle pins.
    area*16384 / perim*64 are exact integers; the area-weighted
    centroid rounds to exact /128 lattice integers (only the /6 and
    /area divisions round, error ~ulps). The oracle recomputes all
    four as pure INTEGER SQL from the key formulas. Scale shape: one
    per-feature map stage, nothing shuffles (reference parity: shapely
    .area/.length/.centroid via rasters/polygon.py:51)."""
    from rasters_ray.stages.geomvec import geometry_stats

    def build(t: pa.Table) -> pa.Table:
        k = t.column("c_custkey").to_numpy().astype(np.int64)
        m = (k % 32 + 1).astype(np.float64)
        n = ((k // 5) % 32 + 1).astype(np.float64)
        x0 = -128.0 + (k % 1024).astype(np.float64) / 32.0
        y0 = 32.0 + ((k // 7) % 512).astype(np.float64) / 64.0
        w = m / 64.0
        h = n / 64.0
        cells = []
        for i in range(len(k)):
            a, b, ww, hh = x0[i], y0[i], w[i], h[i]
            outer = [(a, b), (a + ww, b), (a + ww, b + hh), (a, b + hh),
                     (a, b)]
            rings = [[{"x": px, "y": py} for px, py in outer]]
            if k[i] % 3 == 0:
                hx, hy = a + ww / 4.0, b + hh / 4.0
                hole = [(hx, hy), (hx + ww / 2.0, hy),
                        (hx + ww / 2.0, hy + hh / 2.0),
                        (hx, hy + hh / 2.0), (hx, hy)]
                rings.append([{"x": px, "y": py} for px, py in hole])
            cells.append(rings)
        from rasters_ray.sources.vectors import RING_TYPE

        return pa.table({
            "poly_id": pa.array([f"g{int(i):06d}" for i in k], pa.string()),
            "rings": pa.array(cells, RING_TYPE),
            "crs": pa.array(["EPSG:4326"] * len(k), pa.string()),
        })

    def to_ints(t: pa.Table) -> pa.Table:
        return pa.table({
            "geom_id": t.column("poly_id"),
            "area_16384": pa.array(np.rint(
                t.column("area").to_numpy() * 16384.0).astype(np.int64)),
            "perim_64": pa.array(np.rint(
                t.column("perimeter").to_numpy() * 64.0).astype(np.int64)),
            "cx_128": pa.array(np.rint(
                t.column("centroid_x").to_numpy() * 128.0).astype(np.int64)),
            "cy_128": pa.array(np.rint(
                t.column("centroid_y").to_numpy() * 128.0).astype(np.int64)),
        })

    ds = _read(sf_dir, "customer", ["c_custkey"]).map_batches(
        build, batch_format="pyarrow")
    return geometry_stats(ds).map_batches(to_ints, batch_format="pyarrow")


def q_vec_reproject(sf_dir: str):
    """Vector reprojection (stages/geomvec.py::reproject_vectors —
    VectorGeometry.to_crs parity): the geom_stats dyadic rectangles
    reproject to Web Mercator through the VECTORIZED nested-offsets
    path (whole batch flattens through the Arrow list offsets, ONE
    transform_xy call, lists rebuilt from the same offsets). The
    oracle applies Snyder 7-1/7-2 in SQL to the two opposite corners
    each feature reports (floor-cm). The rectangle lat range is
    32..40 deg so Mercator is far from its pole singularities."""
    from rasters_ray.sources.vectors import RING_TYPE
    from rasters_ray.stages.geomvec import reproject_vectors

    def build(t: pa.Table) -> pa.Table:
        k = t.column("c_custkey").to_numpy().astype(np.int64)
        m = (k % 32 + 1).astype(np.float64)
        n = ((k // 5) % 32 + 1).astype(np.float64)
        x0 = -128.0 + (k % 1024).astype(np.float64) / 32.0
        y0 = 32.0 + ((k // 7) % 512).astype(np.float64) / 64.0
        w = m / 64.0
        h = n / 64.0
        cells = []
        for i in range(len(k)):
            a, b, ww, hh = x0[i], y0[i], w[i], h[i]
            outer = [(a, b), (a + ww, b), (a + ww, b + hh), (a, b + hh),
                     (a, b)]
            cells.append([[{"x": px, "y": py} for px, py in outer]])
        return pa.table({
            "poly_id": pa.array([f"g{int(i):06d}" for i in k], pa.string()),
            "rings": pa.array(cells, RING_TYPE),
            "crs": pa.array(["EPSG:4326"] * len(k), pa.string()),
        })

    def corners(t: pa.Table) -> pa.Table:
        ids = t.column("poly_id")
        lc = t.column("rings").combine_chunks()
        x0 = np.empty(t.num_rows)
        y0 = np.empty(t.num_rows)
        x1 = np.empty(t.num_rows)
        y1 = np.empty(t.num_rows)
        for i, cell in enumerate(lc.to_pylist()):
            ring = cell[0]
            x0[i], y0[i] = ring[0]["x"], ring[0]["y"]
            x1[i], y1[i] = ring[2]["x"], ring[2]["y"]
        return pa.table({
            "geom_id": ids,
            "x0_cm": pa.array(np.floor(x0 * 100.0).astype(np.int64)),
            "y0_cm": pa.array(np.floor(y0 * 100.0).astype(np.int64)),
            "x1_cm": pa.array(np.floor(x1 * 100.0).astype(np.int64)),
            "y1_cm": pa.array(np.floor(y1 * 100.0).astype(np.int64)),
        })

    ds = _read(sf_dir, "customer", ["c_custkey"]).map_batches(
        build, batch_format="pyarrow")
    return reproject_vectors(ds, "EPSG:3857").map_batches(
        corners, batch_format="pyarrow")


_POLY_JOIN_BOXES = [
    # (id, x0, y0, x1, y1) — every coordinate an ODD multiple of 1/128
    # while the stream rectangles live on the 1/64 lattice, so the two
    # sets can never merely touch: intersects == STRICT interval
    # overlap, which the oracle states directly in SQL
    ("b0", -127.9921875, 32.0078125, -112.0078125, 36.0078125),
    ("b1", -112.0078125, 36.0078125, -96.0078125, 40.0078125),
    ("b2", -120.0078125, 34.0078125, -104.0078125, 38.0078125),
    ("b3", -100.0078125, 33.0078125, -99.0078125, 34.0078125),
]


def q_poly_join(sf_dir: str):
    """Polygon-polygon intersects join (stages/pip.py::polygon_join —
    the broadcast R-tree north-rule shape: the small side ships ONCE
    via ray.put as ring arrays + STR tree, stream batches probe
    bboxes, the exact vertex-containment + edge-crossing test runs on
    candidates only; nothing shuffles). Stream side: the geom_stats
    dyadic rectangles. The box lattice offset (odd 1/128ths vs even
    1/64ths) removes touch cases, so the oracle is exact strict
    interval overlap in SQL."""
    from rasters_ray.sources.vectors import RING_TYPE
    from rasters_ray.stages.pip import polygon_join

    boxes = pa.table({
        "poly_id": pa.array([b[0] for b in _POLY_JOIN_BOXES], pa.string()),
        "rings": pa.array(
            [[[{"x": x0, "y": y0}, {"x": x1, "y": y0}, {"x": x1, "y": y1},
               {"x": x0, "y": y1}, {"x": x0, "y": y0}]]
             for _, x0, y0, x1, y1 in _POLY_JOIN_BOXES], RING_TYPE),
        "crs": pa.array(["EPSG:4326"] * len(_POLY_JOIN_BOXES), pa.string()),
    })

    def build(t: pa.Table) -> pa.Table:
        k = t.column("c_custkey").to_numpy().astype(np.int64)
        m = (k % 32 + 1).astype(np.float64)
        n = ((k // 5) % 32 + 1).astype(np.float64)
        x0 = -128.0 + (k % 1024).astype(np.float64) / 32.0
        y0 = 32.0 + ((k // 7) % 512).astype(np.float64) / 64.0
        w = m / 64.0
        h = n / 64.0
        cells = []
        for i in range(len(k)):
            a, b, ww, hh = x0[i], y0[i], w[i], h[i]
            cells.append([[{"x": a, "y": b}, {"x": a + ww, "y": b},
                           {"x": a + ww, "y": b + hh},
                           {"x": a, "y": b + hh}, {"x": a, "y": b}]])
        return pa.table({
            "poly_id": pa.array([f"g{int(i):06d}" for i in k], pa.string()),
            "rings": pa.array(cells, RING_TYPE),
            "crs": pa.array(["EPSG:4326"] * len(k), pa.string()),
        })

    ds = _read(sf_dir, "customer", ["c_custkey"]).map_batches(
        build, batch_format="pyarrow")
    return polygon_join(ds, boxes, mode="inner")


def q_clip_area(sf_dir: str):
    """Polygon clipping (stages/geomvec.py::clip_polygons —
    Sutherland-Hodgman per ring against an AOI box, gpd.clip parity):
    the geom_stats dyadic rectangles clip to a dyadic box, then
    geometry_stats measures the survivors. Axis-aligned SH keeps every
    intersection vertex exact (boundary coordinate copied), so the
    clipped shoelace area*4096 is an exact integer the oracle
    recomputes with pure-integer interval arithmetic (LEAST/GREATEST
    in 1/64 units); merely-touching features clip to zero area and
    drop on BOTH engines. Scale shape: one map stage, no shuffle."""
    from rasters_ray.sources.vectors import RING_TYPE
    from rasters_ray.stages.geomvec import clip_polygons, geometry_stats

    def build(t: pa.Table) -> pa.Table:
        k = t.column("c_custkey").to_numpy().astype(np.int64)
        m = (k % 32 + 1).astype(np.float64)
        n = ((k // 5) % 32 + 1).astype(np.float64)
        x0 = -128.0 + (k % 1024).astype(np.float64) / 32.0
        y0 = 32.0 + ((k // 7) % 512).astype(np.float64) / 64.0
        w = m / 64.0
        h = n / 64.0
        cells = []
        for i in range(len(k)):
            a, b, ww, hh = x0[i], y0[i], w[i], h[i]
            cells.append([[{"x": a, "y": b}, {"x": a + ww, "y": b},
                           {"x": a + ww, "y": b + hh},
                           {"x": a, "y": b + hh}, {"x": a, "y": b}]])
        return pa.table({
            "poly_id": pa.array([f"g{int(i):06d}" for i in k], pa.string()),
            "rings": pa.array(cells, RING_TYPE),
            "crs": pa.array(["EPSG:4326"] * len(k), pa.string()),
        })

    def to_ints(t: pa.Table) -> pa.Table:
        return pa.table({
            "geom_id": t.column("poly_id"),
            "area_4096": pa.array(np.rint(
                t.column("area").to_numpy() * 4096.0).astype(np.int64)),
        })

    ds = _read(sf_dir, "customer", ["c_custkey"]).map_batches(
        build, batch_format="pyarrow")
    clipped = clip_polygons(ds, (-126.0, 33.0, -110.0, 38.0))
    return geometry_stats(clipped).map_batches(
        to_ints, batch_format="pyarrow")


def q_polygonize(sf_dir: str):
    """Raster -> vector (stages/polygonize.py — gdal_polygonize
    parity, the inverse of rasterize): per key a 16x16 labeled raster
    on a dyadic grid carries one rectangle region (every third key
    with a centered hole), polygonized ON WORKERS into corner-lattice
    rings, then measured by geometry_stats. Corner coordinates are
    exact lattice points, so area*4096 and the /64 bounds are exact
    integers the oracle recomputes from the key formulas alone. The
    hole keys pin loop stitching + even-odd hole emergence; n_rings
    pins the loop count. Scale shape: per-image map, no shuffle."""
    from rasters_ray.grids import GridSpec
    from rasters_ray.stages.geomvec import polygon_measures
    from rasters_ray.stages.polygonize import polygonize

    def run(t: pa.Table) -> pa.Table:
        k = t.column("c_custkey").to_numpy().astype(np.int64)
        rows = {"geom_id": [], "area_4096": [], "n_rings": [],
                "xmin_64": [], "ymax_64": []}
        for kk in k.tolist():
            rw = 4 + kk % 8
            rh = 4 + (kk // 3) % 8
            a = np.zeros((16, 16), dtype=np.int32)
            a[2:2 + rh, 2:2 + rw] = 1
            if kk % 3 == 0:
                hw = max(1, rw - 4)
                hh = max(1, rh - 4)
                a[4:4 + hh, 4:4 + hw] = 0
            g = GridSpec(
                crs="EPSG:4326",
                x_origin=-128.0 + (kk % 1024) / 32.0,
                y_origin=40.0 + (kk % 256) / 64.0,
                cell_width=1 / 64.0, cell_height=-1 / 64.0,
                rows=16, cols=16)
            feat = polygonize(a, g)
            cell = feat.column("rings")[0].as_py()
            rings = [np.array([(p["x"], p["y"]) for p in part])
                     for part in cell]
            area, _, _, _ = polygon_measures(rings)
            allp = np.vstack(rings)
            rows["geom_id"].append(f"g{kk:06d}")
            rows["area_4096"].append(int(np.rint(area * 4096.0)))
            rows["n_rings"].append(len(rings))
            rows["xmin_64"].append(int(np.rint(allp[:, 0].min() * 64.0)))
            rows["ymax_64"].append(int(np.rint(allp[:, 1].max() * 64.0)))
        return pa.table({
            "geom_id": pa.array(rows["geom_id"], pa.string()),
            "area_4096": pa.array(rows["area_4096"], pa.int64()),
            "n_rings": pa.array(rows["n_rings"], pa.int64()),
            "xmin_64": pa.array(rows["xmin_64"], pa.int64()),
            "ymax_64": pa.array(rows["ymax_64"], pa.int64()),
        })

    return _read(sf_dir, "customer", ["c_custkey"]).map_batches(
        run, batch_format="pyarrow")


_NEAREST_SITES = [
    # 8x8 site lattice offset by 1/256 so the oracle points (the
    # _PTS_CTE formula: centi-degree lattice + 0.001) never land
    # equidistant between sites; d2 is computed with the SAME
    # (px-sx)*(px-sx)+(py-sy)*(py-sy) expression order on both engines
    (f"s{s:02d}", -126.0 + (s % 8) * 4.0 + 1.0 / 256.0,
     29.0 + (s // 8) * 2.0 + 1.0 / 256.0)
    for s in range(64)
]


def q_geodesic_near(sf_dir: str):
    """Great-circle nearest-site join (stages/pip.py::haversine_nearest):
    the oracle points against a broadcast 32-site lattice
    (lon = -124 + s%8, lat = 44 - 2*(s//8)); argmin haversine with
    ties to the lowest site, distance reported floor-cm.  The oracle
    replays the identical fixed-order formula with DuckDB doubles and
    ROW_NUMBER() ORDER BY d, s."""
    from rasters_ray.stages.pip import haversine_nearest

    s = np.arange(32)
    site_lon = -124.0 + (s % 8).astype(np.float64)
    site_lat = 44.0 - 2.0 * (s // 8).astype(np.float64)

    def run(t: pa.Table) -> pa.Table:
        idx, d = haversine_nearest(
            t.column("x").to_numpy(), t.column("y").to_numpy(),
            site_lon, site_lat)
        return pa.table({
            "point_id": t.column("point_id"),
            "site_id": pa.array(idx, pa.int64()),
            "dist_cm": pa.array(np.floor(d * 100.0).astype(np.int64),
                                pa.int64()),
        })

    return _points_ds(sf_dir).map_batches(run, batch_format="pyarrow")


def q_nearest_join(sf_dir: str):
    """Nearest-feature join (stages/pip.py::nearest_join —
    gpd.sjoin_nearest parity): the oracle points against a broadcast
    64-site lattice. Small sides take the vectorized (batch x sites)
    distance-matrix path whose argmin tie-breaks to the lowest site
    index; the oracle replays it with ROW_NUMBER() ORDER BY d2,
    site_id. d2 stays SQUARED and floors at 1e-6 precision (products
    of exact inputs in one fixed IEEE order are bit-identical across
    engines). Scale shape: sites ship once via ray.put; the point
    stream never shuffles."""
    from rasters_ray.sources.vectors import oracle_points_from_keys
    from rasters_ray.stages.pip import nearest_join

    sites = pa.table({
        "site_id": pa.array([s[0] for s in _NEAREST_SITES], pa.string()),
        "x": pa.array([s[1] for s in _NEAREST_SITES], pa.float64()),
        "y": pa.array([s[2] for s in _NEAREST_SITES], pa.float64()),
    })

    def pts(t: pa.Table) -> pa.Table:
        return oracle_points_from_keys(t.column("c_custkey").to_numpy())

    def to_ints(t: pa.Table) -> pa.Table:
        return pa.table({
            "point_id": t.column("point_id"),
            "site_id": t.column("site_id"),
            "d2_micro": pa.array(np.floor(
                t.column("d2").to_numpy() * 1e6).astype(np.int64)),
        })

    ds = _read(sf_dir, "customer", ["c_custkey"]).map_batches(
        pts, batch_format="pyarrow")
    return nearest_join(ds, sites).map_batches(
        to_ints, batch_format="pyarrow")


def q_cell_area(sf_dir: str):
    """Graticule cell areas (grids/geomops.py::cell_areas/grid_area —
    the area weights every geographic-grid statistic needs): per key a
    16x16 dyadic grid; emits row k%16's band-cell area and the
    telescoped grid total, both floored at 1e-3 m^2. The oracle
    recomputes R^2 * dlon * (sin(lat_t) - sin(lat_b)) in SQL with the
    IDENTICAL expression order (the same libm-parity contract the
    projection oracles rest on). Scale shape: per-key map, no
    shuffle."""
    from rasters_ray.grids import GridSpec
    from rasters_ray.grids.geomops import cell_areas, grid_area

    def run(t: pa.Table) -> pa.Table:
        k = t.column("c_custkey").to_numpy().astype(np.int64)
        gid, band, total = [], [], []
        for kk in k.tolist():
            g = GridSpec(
                crs="EPSG:4326",
                x_origin=-128.0 + (kk % 1024) / 32.0,
                y_origin=32.0 + (kk % 256) / 64.0,
                cell_width=1 / 64.0, cell_height=-1 / 64.0,
                rows=16, cols=16)
            a = cell_areas(g)
            gid.append(f"g{kk:06d}")
            band.append(int(np.floor(a[kk % 16] * 1000.0)))
            total.append(int(np.floor(grid_area(g) * 1000.0)))
        return pa.table({
            "geom_id": pa.array(gid, pa.string()),
            "band_mm2": pa.array(band, pa.int64()),
            "total_mm2": pa.array(total, pa.int64()),
        })

    return _read(sf_dir, "customer", ["c_custkey"]).map_batches(
        run, batch_format="pyarrow")


def q_contour(sf_dir: str):
    """Iso-contours (stages/contour.py — marching squares over pixel
    centers, gdal_contour parity): per key a 16x16 row-ramp raster on
    a dyadic grid contoured at level (k%14)+0.5 — the t=0.5 edge
    interpolation is exact, so the contour is ONE 16-point horizontal
    polyline whose y and x extremes are exact lattice integers the
    oracle recomputes from the key formulas. Pins the case table,
    segment stitching and the center-affine coordinate mapping. Scale
    shape: per-key map, no shuffle."""
    from rasters_ray.grids import GridSpec
    from rasters_ray.stages.contour import contour_lines

    ramp = np.repeat(np.arange(16.0)[:, None], 16, axis=1)

    def run(t: pa.Table) -> pa.Table:
        k = t.column("c_custkey").to_numpy().astype(np.int64)
        gid, npaths, npts, y64, xmin128, xmax128 = [], [], [], [], [], []
        for kk in k.tolist():
            g = GridSpec(
                crs="EPSG:4326",
                x_origin=-128.0 + (kk % 1024) / 32.0,
                y_origin=32.0 + (kk % 256) / 64.0,
                cell_width=1 / 64.0, cell_height=-1 / 64.0,
                rows=16, cols=16)
            lev = (kk % 14) + 0.5
            feat = contour_lines(ramp, g, [lev])
            pts = np.array(
                [(p["x"], p["y"]) for p in feat.column("paths")[0].as_py()[0]])
            gid.append(f"g{kk:06d}")
            npaths.append(feat.num_rows)
            npts.append(len(pts))
            y64.append(int(np.rint(pts[0, 1] * 64.0)))
            xmin128.append(int(np.rint(pts[:, 0].min() * 128.0)))
            xmax128.append(int(np.rint(pts[:, 0].max() * 128.0)))
        return pa.table({
            "geom_id": pa.array(gid, pa.string()),
            "n_paths": pa.array(npaths, pa.int64()),
            "n_pts": pa.array(npts, pa.int64()),
            "y_64": pa.array(y64, pa.int64()),
            "xmin_128": pa.array(xmin128, pa.int64()),
            "xmax_128": pa.array(xmax128, pa.int64()),
        })

    return _read(sf_dir, "customer", ["c_custkey"]).map_batches(
        run, batch_format="pyarrow")


def q_line_interp(sf_dir: str):
    """Line measure ops (stages/geomvec.py::line_interpolate /
    line_locate / line_substring — shapely interpolate/project/
    substring parity): per key an L-shaped path with POWER-OF-TWO
    segment lengths (so every interpolation parameter t = d/seg and
    product t*seg is IEEE-exact), probed at d = L*(k%4+1)/8, located
    from a point below the horizontal leg, and cut at [L/4, 3L/4].
    Every emitted measure is a dyadic rational the oracle recomputes
    from the key formulas with CASE arithmetic. Scale shape: per-key
    map, no shuffle."""
    from rasters_ray.stages.geomvec import (line_interpolate, line_locate,
                                            line_substring, _cumlen)

    def run(t: pa.Table) -> pa.Table:
        k = t.column("c_custkey").to_numpy().astype(np.int64)
        gid, ix128, iy128, loc64, nsub, sub64 = [], [], [], [], [], []
        for kk in k.tolist():
            x0 = -128.0 + (kk % 1024) / 32.0
            y0 = 32.0 + (kk % 256) / 64.0
            a = (0.25, 0.5, 1.0, 2.0)[kk % 4]
            b = (0.25, 0.5, 1.0)[kk % 3]
            parts = [np.array([[x0, y0], [x0 + a, y0], [x0 + a, y0 + b]])]
            L = a + b
            d = L * ((kk % 4) + 1) / 8.0
            ix, iy = line_interpolate(parts, d)
            loc = line_locate(parts, x0 + (kk % 64) / 16.0, y0 - 0.25)
            sub = line_substring(parts, L / 4.0, 3.0 * L / 4.0)
            gid.append(f"g{kk:06d}")
            ix128.append(int(np.rint(ix * 128.0)))
            iy128.append(int(np.rint(iy * 128.0)))
            loc64.append(int(np.rint(loc * 64.0)))
            nsub.append(len(sub))
            sub64.append(int(np.rint(_cumlen(sub)[-1] * 64.0)))
        return pa.table({
            "geom_id": pa.array(gid, pa.string()),
            "ix_128": pa.array(ix128, pa.int64()),
            "iy_128": pa.array(iy128, pa.int64()),
            "loc_64": pa.array(loc64, pa.int64()),
            "n_sub": pa.array(nsub, pa.int64()),
            "sub_len_64": pa.array(sub64, pa.int64()),
        })

    return _read(sf_dir, "customer", ["c_custkey"]).map_batches(
        run, batch_format="pyarrow")


def q_raster_profile(sf_dir: str):
    """Elevation-profile extraction (stages/geomvec.py::raster_profile
    — the gdallocationinfo-along-a-line recipe): per key a 16x16
    value = row*16+col raster on a dyadic grid, profiled along row
    k%16 from the col-0 center to the col-(k%14+1) center at one
    station per cell (nearest sampling lands on exact centers), plus
    one bilinear station exactly HALFWAY between the first two
    centers (t = 0.5 is IEEE-exact). Station sums and the half-cell
    value are exact integers/halves the oracle recomputes from the
    key formulas. Scale shape: per-key map, no shuffle."""
    from rasters_ray.grids import GridSpec
    from rasters_ray.stages.geomvec import raster_profile

    arr = np.arange(256, dtype=np.float64).reshape(16, 16)

    def run(t: pa.Table) -> pa.Table:
        k = t.column("c_custkey").to_numpy().astype(np.int64)
        gid, nst, vsum, bil2 = [], [], [], []
        for kk in k.tolist():
            g = GridSpec(
                crs="EPSG:4326",
                x_origin=-128.0 + (kk % 1024) / 32.0,
                y_origin=32.0 + (kk % 256) / 64.0,
                cell_width=1 / 64.0, cell_height=-1 / 64.0,
                rows=16, cols=16)
            r = kk % 16
            m = (kk % 14) + 1
            yc = g.y_origin - (r + 0.5) / 64.0
            xc0 = g.x_origin + 0.5 / 64.0
            line = [np.array([[xc0, yc], [xc0 + m / 64.0, yc]])]
            prof = raster_profile(arr, g, line, 1 / 64.0)
            # bilinear needs row+1 in bounds (tr=0 still reads it),
            # so the half-cell probe sits on row k%14 <= 13
            yb = g.y_origin - ((kk % 14) + 0.5) / 64.0
            half = raster_profile(
                arr, g, [np.array([[xc0 + 1 / 128.0, yb],
                                   [xc0 + 1 / 64.0, yb]])],
                1.0, method="bilinear")
            gid.append(f"g{kk:06d}")
            nst.append(prof.num_rows)
            vsum.append(int(np.rint(
                np.sum(prof.column("value").to_numpy()))))
            bil2.append(int(np.rint(
                half.column("value").to_numpy()[0] * 2.0)))
        return pa.table({
            "geom_id": pa.array(gid, pa.string()),
            "n_st": pa.array(nst, pa.int64()),
            "val_sum": pa.array(vsum, pa.int64()),
            "bil_2": pa.array(bil2, pa.int64()),
        })

    return _read(sf_dir, "customer", ["c_custkey"]).map_batches(
        run, batch_format="pyarrow")


def q_flow_acc(sf_dir: str):
    """D8 hydrology (stages/hydrology.py::flow_direction /
    flow_accumulation — O'Callaghan & Mark 1984 / Jenson & Domingue
    1988, the gdaldem/ArcGIS drainage kernels): per key a 16x16 ramp
    DEM oriented by k%2 (row-major or column-major), so every interior
    cell drains along one axis and the zero row/column collects the
    rest — direction histogram, pit count and the accumulation at a
    key-dependent probe are pure-INTEGER key formulas. Scale shape:
    per-key map (per-image kernel), no shuffle."""
    from rasters_ray.stages.hydrology import flow_accumulation, flow_direction

    r, c = np.indices((16, 16))
    dems = [(r * 16 + c).astype(np.float64), (c * 16 + r).astype(np.float64)]

    def run(t: pa.Table) -> pa.Table:
        k = t.column("c_custkey").to_numpy().astype(np.int64)
        gid, cmain, nmain, npit, probe, asum = [], [], [], [], [], []
        for kk in k.tolist():
            fd = flow_direction(dems[kk % 2])
            acc = flow_accumulation(fd)
            code = 64 if kk % 2 == 0 else 16
            gid.append(f"g{kk:06d}")
            cmain.append(code)
            nmain.append(int(np.sum(fd == code)))
            npit.append(int(np.sum(fd == 0)))
            probe.append(int(acc[kk % 16, (kk % 13) + 1]))
            asum.append(int(acc.sum()))
        return pa.table({
            "geom_id": pa.array(gid, pa.string()),
            "code_main": pa.array(cmain, pa.int64()),
            "n_main": pa.array(nmain, pa.int64()),
            "n_pit": pa.array(npit, pa.int64()),
            "acc_probe": pa.array(probe, pa.int64()),
            "acc_sum": pa.array(asum, pa.int64()),
        })

    return _read(sf_dir, "customer", ["c_custkey"]).map_batches(
        run, batch_format="pyarrow")


def q_cost_dist(sf_dir: str):
    """Chamfer cost-distance (stages/hydrology.py::cost_distance —
    Borgefors 1986 chamfer 2-3, the GRASS r.cost integer metric): per
    key a uniform-cost 16x16 grid with the source at (k%16, k%13);
    the accumulated cost to three fixed probes is the closed-form
    4*max + 2*min chamfer norm the oracle recomputes with GREATEST/
    LEAST. Scale shape: per-key map, no shuffle."""
    from rasters_ray.stages.hydrology import cost_distance

    ones = np.ones((16, 16), dtype=np.int64)

    def run(t: pa.Table) -> pa.Table:
        k = t.column("c_custkey").to_numpy().astype(np.int64)
        gid, d00, d77, dff = [], [], [], []
        for kk in k.tolist():
            src = np.zeros((16, 16), dtype=bool)
            src[kk % 16, kk % 13] = True
            d = cost_distance(ones, src)
            gid.append(f"g{kk:06d}")
            d00.append(int(d[0, 0]))
            d77.append(int(d[7, 8]))
            dff.append(int(d[15, 15]))
        return pa.table({
            "geom_id": pa.array(gid, pa.string()),
            "d_origin": pa.array(d00, pa.int64()),
            "d_mid": pa.array(d77, pa.int64()),
            "d_far": pa.array(dff, pa.int64()),
        })

    return _read(sf_dir, "customer", ["c_custkey"]).map_batches(
        run, batch_format="pyarrow")


def q_corridor(sf_dir: str):
    """Least-cost corridor (hydrology.py::corridor — ArcGIS Corridor):
    sum of the two chamfer-2-3 cost surfaces from sources
    A = (k%16, k%13) and B = (15 - k%16, (k+7)%13 + 3) on uniform cost;
    emits the corridor minimum (= chamfer d(A,B)), the count of cells
    within min + 8, and the whole-grid corridor sum — all replayed in
    SQL from the closed-form 4*max + 2*min chamfer norm."""
    from rasters_ray.stages.hydrology import corridor

    ones = np.ones((16, 16), dtype=np.int64)

    def run(t: pa.Table) -> pa.Table:
        k = t.column("c_custkey").to_numpy().astype(np.int64)
        gid, mn, nw, sm = [], [], [], []
        for kk in k.tolist():
            sa = np.zeros((16, 16), dtype=bool)
            sb = np.zeros((16, 16), dtype=bool)
            sa[kk % 16, kk % 13] = True
            sb[15 - kk % 16, (kk + 7) % 13 + 3] = True
            f = corridor(ones, sa, sb)
            gid.append(f"g{kk:06d}")
            mn.append(int(f.min()))
            nw.append(int((f <= f.min() + 8).sum()))
            sm.append(int(f.sum()))
        return pa.table({
            "geom_id": pa.array(gid, pa.string()),
            "min_corr": pa.array(mn, pa.int64()),
            "n_within": pa.array(nw, pa.int64()),
            "sum_corr": pa.array(sm, pa.int64()),
        })

    return _read(sf_dir, "customer", ["c_custkey"]).map_batches(
        run, batch_format="pyarrow")


def q_watershed(sf_dir: str):
    """Watershed delineation (stages/hydrology.py::watershed — basin
    labels by pointer-jumping over the D8 downstream forest, Jenson &
    Domingue 1988 §3): per key a ridge DEM ``-|c - w|`` with the ridge
    at column w = k%14+1, so every row splits into a west basin of w
    cells (pit at c=0) and an east basin of 16-w cells (pit at c=15;
    the ridge cell tie-breaks E-first) — basin count, sizes and the
    probe cell's basin label are pure-INTEGER key formulas, proven
    exhaustively over all 14 ridge positions in pytest. Scale shape:
    per-key map (per-image kernel), no shuffle."""
    from rasters_ray.stages.hydrology import flow_direction, watershed

    c = np.arange(16, dtype=np.float64)
    dems = [np.broadcast_to(-np.abs(c - w), (16, 16)).copy()
            for w in range(16)]

    def run(t: pa.Table) -> pa.Table:
        k = t.column("c_custkey").to_numpy().astype(np.int64)
        gid, nb, swest, lrg, lprobe = [], [], [], [], []
        for kk in k.tolist():
            w = kk % 14 + 1
            lab = watershed(flow_direction(dems[w]))
            _, counts = np.unique(lab, return_counts=True)
            gid.append(f"g{kk:06d}")
            nb.append(int(counts.size))
            swest.append(int(np.sum(lab == 0)))
            lrg.append(int(counts.max()))
            lprobe.append(int(lab[kk % 16, kk % 11]))
        return pa.table({
            "geom_id": pa.array(gid, pa.string()),
            "n_basins": pa.array(nb, pa.int64()),
            "size_west0": pa.array(swest, pa.int64()),
            "basin_max": pa.array(lrg, pa.int64()),
            "label_probe": pa.array(lprobe, pa.int64()),
        })

    return _read(sf_dir, "customer", ["c_custkey"]).map_batches(
        run, batch_format="pyarrow")


def q_cost_path(sf_dir: str):
    """Least-cost path backtrace (stages/hydrology.py::least_cost_path
    — the GRASS r.drain / ArcGIS Cost Path walk down the chamfer 2-3
    surface): per key a uniform-cost grid, source at (k%16, k%13),
    start at (k%7, k%11+4); on uniform cost the deterministic greedy
    backtrace takes exactly Chebyshev-many steps and its start cost is
    the 4*max+2*min chamfer norm — both closed-form in k. Scale shape:
    per-key map, no shuffle."""
    from rasters_ray.stages.hydrology import least_cost_path

    ones = np.ones((16, 16), dtype=np.int64)

    def run(t: pa.Table) -> pa.Table:
        k = t.column("c_custkey").to_numpy().astype(np.int64)
        gid, nst, pc, eidx = [], [], [], []
        for kk in k.tolist():
            src = np.zeros((16, 16), dtype=bool)
            src[kk % 16, kk % 13] = True
            path = least_cost_path(ones, src, (kk % 7, kk % 11 + 4))
            hops = sum(
                6 if (a[0] != b[0] and a[1] != b[1]) else 4
                for a, b in zip(path, path[1:]))
            gid.append(f"g{kk:06d}")
            nst.append(len(path) - 1)
            pc.append(hops)
            eidx.append(path[-1][0] * 16 + path[-1][1])
        return pa.table({
            "geom_id": pa.array(gid, pa.string()),
            "n_steps": pa.array(nst, pa.int64()),
            "path_cost": pa.array(pc, pa.int64()),
            "end_idx": pa.array(eidx, pa.int64()),
        })

    return _read(sf_dir, "customer", ["c_custkey"]).map_batches(
        run, batch_format="pyarrow")


def q_img_quality(sf_dir: str):
    """Image quality metrics (stages/quality.py::mse/ssim_global —
    Wang et al. 2004 single-window SSIM with a fixed double op order):
    per key the 0..255 ramp vs itself shifted by d = k%7.  MSE is the
    integer d*d; SSIM's sums are exact integers (sum v = 32640, sum
    v^2 = 5559680), so the oracle replays the documented double chain
    step for step and the floor(ssim * 2^20) quantization is
    bit-identical. Scale shape: per-key map, no shuffle."""
    from rasters_ray.stages.quality import mse, ssim_global

    a = np.arange(256, dtype=np.float64).reshape(16, 16)

    def run(t: pa.Table) -> pa.Table:
        k = t.column("c_custkey").to_numpy().astype(np.int64)
        gid, ms, s20 = [], [], []
        for kk in k.tolist():
            b = a + float(kk % 7)
            gid.append(f"g{kk:06d}")
            ms.append(int(np.rint(mse(a, b))))
            s20.append(int(np.floor(ssim_global(a, b) * 1048576.0)))
        return pa.table({
            "geom_id": pa.array(gid, pa.string()),
            "mse_i": pa.array(ms, pa.int64()),
            "ssim_20": pa.array(s20, pa.int64()),
        })

    return _read(sf_dir, "customer", ["c_custkey"]).map_batches(
        run, batch_format="pyarrow")


def q_reclassify(sf_dir: str):
    """Reclassify (stages/quality.py::reclassify — the ArcGIS
    Reclassify / gdal_calc bin remap, right-open bins): the 0..255
    ramp against key-dependent breakpoints (k%50+10, k%100+60, 200)
    into classes 1..4 — per-class counts and the probe cell's class
    are pure-INTEGER key formulas. Scale shape: per-key map, no
    shuffle."""
    from rasters_ray.stages.quality import reclassify

    a = np.arange(256, dtype=np.float64).reshape(16, 16)

    def run(t: pa.Table) -> pa.Table:
        k = t.column("c_custkey").to_numpy().astype(np.int64)
        gid, n1, n2, n3, n4, pc = [], [], [], [], [], []
        for kk in k.tolist():
            b0, b1 = kk % 50 + 10, kk % 100 + 60
            out = reclassify(a, bins=[b0, b1, 200.0],
                             classes=[1, 2, 3, 4])
            gid.append(f"g{kk:06d}")
            n1.append(int(np.sum(out == 1)))
            n2.append(int(np.sum(out == 2)))
            n3.append(int(np.sum(out == 3)))
            n4.append(int(np.sum(out == 4)))
            pc.append(int(out.ravel()[kk % 256]))
        return pa.table({
            "geom_id": pa.array(gid, pa.string()),
            "n_c1": pa.array(n1, pa.int64()),
            "n_c2": pa.array(n2, pa.int64()),
            "n_c3": pa.array(n3, pa.int64()),
            "n_c4": pa.array(n4, pa.int64()),
            "probe_class": pa.array(pc, pa.int64()),
        })

    return _read(sf_dir, "customer", ["c_custkey"]).map_batches(
        run, batch_format="pyarrow")


def q_glcm(sf_dir: str):
    """GLCM texture (stages/texture.py::glcm_counts/glcm_features —
    Haralick 1973 co-occurrence): per key the affine permutation
    (i*s+k)%256 (s = 2*(k%8)+1) quantized to 8 levels, offset (0,1).
    The oracle REBUILDS the co-occurrence from scratch in SQL (240
    horizontal pairs per key via range(256), grouped for the energy
    term) — unnormalized integer features match exactly. Scale shape:
    per-key map, no shuffle."""
    from rasters_ray.stages.texture import glcm_counts, glcm_features

    i = np.arange(256, dtype=np.int64)

    def run(t: pa.Table) -> pa.Table:
        k = t.column("c_custkey").to_numpy().astype(np.int64)
        gid, npair, con, ene, dia = [], [], [], [], []
        for kk in k.tolist():
            s = 2 * (kk % 8) + 1
            lv = (((i * s + kk) % 256) // 32).reshape(16, 16)
            f = glcm_features(glcm_counts(lv, 8, offset=(0, 1)))
            gid.append(f"g{kk:06d}")
            npair.append(f["n_pairs"])
            con.append(f["contrast_num"])
            ene.append(f["energy_num"])
            dia.append(f["diag_num"])
        return pa.table({
            "geom_id": pa.array(gid, pa.string()),
            "n_pairs": pa.array(npair, pa.int64()),
            "contrast_num": pa.array(con, pa.int64()),
            "energy_num": pa.array(ene, pa.int64()),
            "diag_num": pa.array(dia, pa.int64()),
        })

    return _read(sf_dir, "customer", ["c_custkey"]).map_batches(
        run, batch_format="pyarrow")


def q_edt(sf_dir: str):
    """Exact squared EDT (stages/texture.py::edt_sq — Felzenszwalb &
    Huttenlocher 2012 two-phase decomposition): per key two seeds at
    (k%16, k%13) and (k%7, k%11+3); the transform at any cell is the
    LEAST of the two squared offsets, and the oracle recomputes the
    full 256-cell sum the same way via range(256). Scale shape:
    per-key map, no shuffle."""
    from rasters_ray.stages.texture import edt_sq

    def run(t: pa.Table) -> pa.Table:
        k = t.column("c_custkey").to_numpy().astype(np.int64)
        gid, d0, dm, df, tot = [], [], [], [], []
        for kk in k.tolist():
            s = np.zeros((16, 16), dtype=bool)
            s[kk % 16, kk % 13] = True
            s[kk % 7, kk % 11 + 3] = True
            d = edt_sq(s)
            gid.append(f"g{kk:06d}")
            d0.append(int(d[0, 0]))
            dm.append(int(d[8, 7]))
            df.append(int(d[15, 15]))
            tot.append(int(d.sum()))
        return pa.table({
            "geom_id": pa.array(gid, pa.string()),
            "d2_origin": pa.array(d0, pa.int64()),
            "d2_mid": pa.array(dm, pa.int64()),
            "d2_far": pa.array(df, pa.int64()),
            "d2_sum": pa.array(tot, pa.int64()),
        })

    return _read(sf_dir, "customer", ["c_custkey"]).map_batches(
        run, batch_format="pyarrow")


def q_moran(sf_dir: str):
    """Spatial autocorrelation (stages/spatial_stats.py::moran_stats —
    Moran 1950 / Geary 1954 with rook weights): per key the affine
    permutation (i*s+k)%256 as a 16x16 raster.  The integer sufficient
    statistics (pair cross-sum assembly A = n^2*cross - n*S*psum +
    W*S^2, squared-difference sum D, B = n^2*sumsq - n*S^2) pin
    Moran's I and Geary's C exactly; the oracle rebuilds every rook
    pair from scratch via range(256). Scale shape: per-key map, no
    shuffle."""
    from rasters_ray.stages.spatial_stats import moran_stats

    i = np.arange(256, dtype=np.int64)

    def run(t: pa.Table) -> pa.Table:
        k = t.column("c_custkey").to_numpy().astype(np.int64)
        gid, ac, dd, bn, ws = [], [], [], [], []
        for kk in k.tolist():
            s = 2 * (kk % 8) + 1
            img = ((i * s + kk) % 256).reshape(16, 16)
            st = moran_stats(img)
            gid.append(f"g{kk:06d}")
            ac.append(st["a_cross"])
            dd.append(st["d_diff"])
            bn.append(st["b_num"])
            ws.append(st["w_sum"])
        return pa.table({
            "geom_id": pa.array(gid, pa.string()),
            "a_cross": pa.array(ac, pa.int64()),
            "d_diff": pa.array(dd, pa.int64()),
            "b_num": pa.array(bn, pa.int64()),
            "w_sum": pa.array(ws, pa.int64()),
        })

    return _read(sf_dir, "customer", ["c_custkey"]).map_batches(
        run, batch_format="pyarrow")


def q_hough(sf_dir: str):
    """Digital Hough lines (stages/hough.py::hough_peak — Duda & Hart
    1972 voting over the four lattice directions): per key one
    segment of length L = k%8+4 in direction k%4 anchored at
    (k%5+1, k%4+1) — the peak is that direction/bin with count L
    (L >= 4 beats every cross direction's singleton votes). Scale
    shape: per-key map, no shuffle."""
    from rasters_ray.stages.hough import hough_peak

    def run(t: pa.Table) -> pa.Table:
        k = t.column("c_custkey").to_numpy().astype(np.int64)
        gid, pd_, pb, pc = [], [], [], []
        for kk in k.tolist():
            L, d = kk % 8 + 4, kk % 4
            a, b = kk % 5 + 1, kk % 4 + 1
            m = np.zeros((16, 16), dtype=bool)
            t_ = np.arange(L)
            if d == 0:
                m[a, b:b + L] = True
            elif d == 1:
                m[a:a + L, b] = True
            elif d == 2:
                m[a + t_, b + L - 1 - t_] = True  # anti-diagonal
            else:
                m[a + t_, b + t_] = True          # main diagonal
            pk = hough_peak(m)
            gid.append(f"g{kk:06d}")
            pd_.append(pk[0])
            pb.append(pk[1])
            pc.append(pk[2])
        return pa.table({
            "geom_id": pa.array(gid, pa.string()),
            "peak_dir": pa.array(pd_, pa.int64()),
            "peak_bin": pa.array(pb, pa.int64()),
            "peak_count": pa.array(pc, pa.int64()),
        })

    return _read(sf_dir, "customer", ["c_custkey"]).map_batches(
        run, batch_format="pyarrow")


def q_features(sf_dir: str):
    """Pixel features (stages/features.py — Harris & Stephens 1988
    integer response 20*det - trace^2; Ojala 2002 LBP in D8 bit
    order): per key (1) a 5x5 bright square at (a, b) = (k%6+3,
    k%5+3) whose Harris peak lands exactly at the square corner with
    the translation-invariant response 3814400000000 (pytest proves
    all 30 positions), and (2) the affine permutation (i*s+k)%256
    whose 196 interior LBP codes the oracle rebuilds neighbor by
    neighbor in SQL. Scale shape: per-key map, no shuffle."""
    from rasters_ray.stages.features import harris_peak, lbp_codes

    i = np.arange(256, dtype=np.int64)

    def run(t: pa.Table) -> pa.Table:
        k = t.column("c_custkey").to_numpy().astype(np.int64)
        gid, pr, pc, rsp, ls, n255 = [], [], [], [], [], []
        for kk in k.tolist():
            a, b = kk % 6 + 3, kk % 5 + 3
            img = np.zeros((16, 16), dtype=np.int64)
            img[a:a + 5, b:b + 5] = 100
            r, c, resp = harris_peak(img)
            s = 2 * (kk % 8) + 1
            perm = ((i * s + kk) % 256).astype(np.float64).reshape(16, 16)
            codes = lbp_codes(perm)
            interior = codes[codes >= 0]
            gid.append(f"g{kk:06d}")
            pr.append(r)
            pc.append(c)
            rsp.append(resp)
            ls.append(int(interior.sum()))
            n255.append(int(np.sum(interior == 255)))
        return pa.table({
            "geom_id": pa.array(gid, pa.string()),
            "peak_r": pa.array(pr, pa.int64()),
            "peak_c": pa.array(pc, pa.int64()),
            "peak_resp": pa.array(rsp, pa.int64()),
            "lbp_sum": pa.array(ls, pa.int64()),
            "n_lbp255": pa.array(n255, pa.int64()),
        })

    return _read(sf_dir, "customer", ["c_custkey"]).map_batches(
        run, batch_format="pyarrow")


def q_strahler(sf_dir: str):
    """Strahler stream order (stages/hydrology.py::strahler_order —
    Strahler 1957, the r.stream.order convention): the oriented ramp
    of q_flow_acc (k%2 picks row- or column-major), where the
    collector row/column is order 2 from its first junction on and
    everything else is order 1 — counts and the probe order are
    pure-INTEGER key formulas (dendritic order-3 joins are
    pytest-proven separately). Scale shape: per-key map, no
    shuffle."""
    from rasters_ray.stages.hydrology import flow_direction, strahler_order

    r, c = np.indices((16, 16))
    dems = [(r * 16 + c).astype(np.float64), (c * 16 + r).astype(np.float64)]

    def run(t: pa.Table) -> pa.Table:
        k = t.column("c_custkey").to_numpy().astype(np.int64)
        gid, n1, n2, omax, probe = [], [], [], [], []
        for kk in k.tolist():
            o = strahler_order(flow_direction(dems[kk % 2]))
            gid.append(f"g{kk:06d}")
            n1.append(int(np.sum(o == 1)))
            n2.append(int(np.sum(o == 2)))
            omax.append(int(o.max()))
            probe.append(int(o[kk % 16, kk % 13]))
        return pa.table({
            "geom_id": pa.array(gid, pa.string()),
            "n_order1": pa.array(n1, pa.int64()),
            "n_order2": pa.array(n2, pa.int64()),
            "order_max": pa.array(omax, pa.int64()),
            "order_probe": pa.array(probe, pa.int64()),
        })

    return _read(sf_dir, "customer", ["c_custkey"]).map_batches(
        run, batch_format="pyarrow")


def q_skeleton(sf_dir: str):
    """Zhang-Suen thinning (stages/morphology.py::skeletonize — Zhang
    & Suen 1984): per key a 5-wide bar at (r0, c0) = (k%6+1, k%3+1)
    of length L = k%8+6 thins to the single centerline row r0+2,
    cols [c0+2, c0+L-4] — pixel count and centroid are pure-INTEGER
    key formulas, proven exhaustively over all 144 keyspace combos in
    pytest. Scale shape: per-key map, no shuffle."""
    from rasters_ray.stages.morphology import skeletonize

    def run(t: pa.Table) -> pa.Table:
        k = t.column("c_custkey").to_numpy().astype(np.int64)
        gid, np_, rowv, csum = [], [], [], []
        for kk in k.tolist():
            r0, c0, L = kk % 6 + 1, kk % 3 + 1, kk % 8 + 6
            m = np.zeros((16, 16), dtype=bool)
            m[r0:r0 + 5, c0:c0 + L] = True
            sk = skeletonize(m)
            rs, cs = np.nonzero(sk)
            gid.append(f"g{kk:06d}")
            np_.append(int(sk.sum()))
            rowv.append(int(rs[0]))
            csum.append(int(cs.sum()))
        return pa.table({
            "geom_id": pa.array(gid, pa.string()),
            "n_skel": pa.array(np_, pa.int64()),
            "skel_row": pa.array(rowv, pa.int64()),
            "col_sum": pa.array(csum, pa.int64()),
        })

    return _read(sf_dir, "customer", ["c_custkey"]).map_batches(
        run, batch_format="pyarrow")


def q_flow_length(sf_dir: str):
    """Flow length (stages/hydrology.py::flow_length — the ArcGIS
    Flow Length op on the chamfer 2-3 metric; downstream by weighted
    pointer doubling, upstream by Kahn max): the oriented ramp again —
    downstream length is 2r+2c in either orientation and the longest
    upstream path follows the collector formulas proven exhaustively
    in pytest. Scale shape: per-key map, no shuffle."""
    from rasters_ray.stages.hydrology import flow_direction, flow_length

    r, c = np.indices((16, 16))
    dems = [(r * 16 + c).astype(np.float64), (c * 16 + r).astype(np.float64)]

    def run(t: pa.Table) -> pa.Table:
        k = t.column("c_custkey").to_numpy().astype(np.int64)
        gid, dlp, ulp, dmax, umax = [], [], [], [], []
        for kk in k.tolist():
            fd = flow_direction(dems[kk % 2])
            dl = flow_length(fd)
            ul = flow_length(fd, upstream=True)
            gid.append(f"g{kk:06d}")
            dlp.append(int(dl[kk % 16, kk % 13]))
            ulp.append(int(ul[kk % 16, kk % 13]))
            dmax.append(int(dl.max()))
            umax.append(int(ul.max()))
        return pa.table({
            "geom_id": pa.array(gid, pa.string()),
            "down_probe": pa.array(dlp, pa.int64()),
            "up_probe": pa.array(ulp, pa.int64()),
            "down_max": pa.array(dmax, pa.int64()),
            "up_max": pa.array(umax, pa.int64()),
        })

    return _read(sf_dir, "customer", ["c_custkey"]).map_batches(
        run, batch_format="pyarrow")


def q_mode_filter(sf_dir: str):
    """Majority filter (stages/focal.py::mode_filter — the ArcGIS
    Majority Filter classifier cleanup): per key a two-class split at
    column m = k%10+3 with one speckle pixel flipped at (k%14+1, 1);
    the filter removes exactly the speckle and leaves the class
    boundary bit-stable, so the one count, changed count and probe are
    pure-INTEGER key formulas. Scale shape: per-key map, no shuffle."""
    from rasters_ray.stages.focal import mode_filter

    def run(t: pa.Table) -> pa.Table:
        k = t.column("c_custkey").to_numpy().astype(np.int64)
        gid, n1, nch, pr_ = [], [], [], []
        for kk in k.tolist():
            m = kk % 10 + 3
            lab = np.zeros((16, 16), dtype=np.int64)
            lab[:, m:] = 1
            lab[kk % 14 + 1, 1] = 1
            out = mode_filter(lab, 2)
            gid.append(f"g{kk:06d}")
            n1.append(int(out.sum()))
            nch.append(int(np.sum(out != lab)))
            pr_.append(int(out[kk % 14 + 1, 1]))
        return pa.table({
            "geom_id": pa.array(gid, pa.string()),
            "n_ones": pa.array(n1, pa.int64()),
            "n_changed": pa.array(nch, pa.int64()),
            "probe": pa.array(pr_, pa.int64()),
        })

    return _read(sf_dir, "customer", ["c_custkey"]).map_batches(
        run, batch_format="pyarrow")


def q_allocation(sf_dir: str):
    """Euclidean allocation (stages/texture.py::euclidean_allocation —
    ArcGIS Euclidean Allocation, ties to the lowest seed index): the
    q_edt seed pair again; the oracle recomputes the nearest-seed
    argmin (with the documented tie rule) cell by cell via range(256).
    Scale shape: per-key map, no shuffle."""
    from rasters_ray.stages.texture import euclidean_allocation

    def run(t: pa.Table) -> pa.Table:
        k = t.column("c_custkey").to_numpy().astype(np.int64)
        gid, nz0, a00, aff = [], [], [], []
        for kk in k.tolist():
            alloc = euclidean_allocation(
                [(kk % 16, kk % 13), (kk % 7, kk % 11 + 3)], (16, 16))
            gid.append(f"g{kk:06d}")
            nz0.append(int(np.sum(alloc == 0)))
            a00.append(int(alloc[0, 0]))
            aff.append(int(alloc[15, 15]))
        return pa.table({
            "geom_id": pa.array(gid, pa.string()),
            "n_zone0": pa.array(nz0, pa.int64()),
            "alloc_origin": pa.array(a00, pa.int64()),
            "alloc_far": pa.array(aff, pa.int64()),
        })

    return _read(sf_dir, "customer", ["c_custkey"]).map_batches(
        run, batch_format="pyarrow")


def q_zone_geom(sf_dir: str):
    """Zone geometry (stages/texture.py::zone_geometry — regionprops
    area/perimeter/bbox over a label raster): per key a h0 x w0
    rectangle of zone 1 inside zone 0; areas, 4-exposure perimeters
    and the bounding box are pure-INTEGER key formulas. Scale shape:
    per-key map, no shuffle."""
    from rasters_ray.stages.texture import zone_geometry

    def run(t: pa.Table) -> pa.Table:
        k = t.column("c_custkey").to_numpy().astype(np.int64)
        gid, ar1, pe1, pe0, rmn, cmn, rmx, cmx = ([] for _ in range(8))
        for kk in k.tolist():
            a, b = kk % 6 + 2, kk % 7 + 2
            h0, w0 = kk % 4 + 2, kk % 5 + 2
            lab = np.zeros((16, 16), dtype=np.int64)
            lab[a:a + h0, b:b + w0] = 1
            g = zone_geometry(lab, 2).to_pydict()
            i1 = g["label"].index(1)
            i0 = g["label"].index(0)
            gid.append(f"g{kk:06d}")
            ar1.append(g["area"][i1])
            pe1.append(g["perimeter"][i1])
            pe0.append(g["perimeter"][i0])
            rmn.append(g["rmin"][i1])
            cmn.append(g["cmin"][i1])
            rmx.append(g["rmax"][i1])
            cmx.append(g["cmax"][i1])
        return pa.table({
            "geom_id": pa.array(gid, pa.string()),
            "area1": pa.array(ar1, pa.int64()),
            "perim1": pa.array(pe1, pa.int64()),
            "perim0": pa.array(pe0, pa.int64()),
            "rmin": pa.array(rmn, pa.int64()),
            "cmin": pa.array(cmn, pa.int64()),
            "rmax": pa.array(rmx, pa.int64()),
            "cmax": pa.array(cmx, pa.int64()),
        })

    return _read(sf_dir, "customer", ["c_custkey"]).map_batches(
        run, batch_format="pyarrow")


def q_curvature(sf_dir: str):
    """Surface curvature (stages/terrain.py::curvature_numerators —
    Zevenbergen & Thorne 1987 quadric second derivatives, the ArcGIS
    Curvature kernel): per key the quadric al*r^2 + be*c^2 + ga*r*c
    with (al, be, ga) = (k%5-2, k%4-1, k%3-1) — the numerators are the
    constants (2be, 2al, -4ga) on every interior cell, proven over all
    parameter combos in pytest.  Emits the interior sums (196 cells).
    Scale shape: per-key map, no shuffle."""
    from rasters_ray.stages.terrain import curvature_numerators

    r, c = np.indices((16, 16))

    def run(t: pa.Table) -> pa.Table:
        k = t.column("c_custkey").to_numpy().astype(np.int64)
        gid, sx, sy, sxy = [], [], [], []
        for kk in k.tolist():
            al, be, ga = kk % 5 - 2, kk % 4 - 1, kk % 3 - 1
            z = (al * r * r + be * c * c + ga * r * c).astype(np.float64)
            d2x, d2y, dxy, valid = curvature_numerators(z)
            gid.append(f"g{kk:06d}")
            sx.append(int(d2x[valid].sum()))
            sy.append(int(d2y[valid].sum()))
            sxy.append(int(dxy[valid].sum()))
        return pa.table({
            "geom_id": pa.array(gid, pa.string()),
            "sum_d2x": pa.array(sx, pa.int64()),
            "sum_d2y": pa.array(sy, pa.int64()),
            "sum_dxy": pa.array(sxy, pa.int64()),
        })

    return _read(sf_dir, "customer", ["c_custkey"]).map_batches(
        run, batch_format="pyarrow")


def q_terrain_idx(sf_dir: str):
    """gdaldem TPI / TRI / roughness (stages/terrain.py::
    terrain_indices — Weiss TPI, Wilson and Riley TRI numerators, the
    max-min roughness): per key the quadric surface al*r^2 + be*c^2 +
    ga*r*c + a*r + b*c on a 16x16 grid; the oracle rebuilds every
    neighbor difference d(dr,dc) analytically over range(1,15)^2 x the
    8-neighbor VALUES list and re-aggregates the four integer
    sufficient statistics.  Scale shape: per-key map, no shuffle."""
    from rasters_ray.stages.terrain import terrain_indices

    r, c = np.indices((16, 16))

    def run(t: pa.Table) -> pa.Table:
        k = t.column("c_custkey").to_numpy().astype(np.int64)
        gid, o_tpi, o_tri, o_tq, o_ro = [], [], [], [], []
        for kk in k.tolist():
            al, be, ga = kk % 3 - 1, kk % 4 - 1, kk % 5 - 2
            a, b = kk % 7, kk % 11 - 5
            z = (al * r * r + be * c * c + ga * r * c
                 + a * r + b * c).astype(np.float64)
            tpi, ts, tq, ro, valid = terrain_indices(z)
            assert valid.all()
            gid.append(f"g{kk:06d}")
            o_tpi.append(int(tpi.sum()))
            o_tri.append(int(ts.sum()))
            o_tq.append(int(tq.sum()))
            o_ro.append(int(ro.sum()))
        return pa.table({
            "geom_id": pa.array(gid, pa.string()),
            "sum_tpi": pa.array(o_tpi, pa.int64()),
            "sum_tri": pa.array(o_tri, pa.int64()),
            "sum_trisq": pa.array(o_tq, pa.int64()),
            "sum_rough": pa.array(o_ro, pa.int64()),
        })

    return _read(sf_dir, "customer", ["c_custkey"]).map_batches(
        run, batch_format="pyarrow")


def q_rank_filter(sf_dir: str):
    """3x3 order-statistic filters (stages/focal.py::rank_filter —
    median / greyscale erosion / greyscale dilation): per key the
    quadric surface on a 16x16 grid; window order statistics are
    z(center) + the order statistic of the 9-point neighbor-difference
    set {0} u {d_i}, which the oracle rebuilds with quantile_disc /
    MIN / MAX over the analytic d(dr,dc) forms.  Scale shape: per-key
    map, no shuffle."""
    from rasters_ray.stages.focal import rank_filter

    r, c = np.indices((16, 16))

    def run(t: pa.Table) -> pa.Table:
        k = t.column("c_custkey").to_numpy().astype(np.int64)
        gid, o_med, o_mn, o_mx = [], [], [], []
        for kk in k.tolist():
            al, be, ga = kk % 3 - 1, kk % 4 - 1, kk % 5 - 2
            a, b = kk % 7, kk % 11 - 5
            z = (al * r * r + be * c * c + ga * r * c
                 + a * r + b * c).astype(np.float64)
            med, mn, mx, valid = rank_filter(z)
            assert valid.all()
            gid.append(f"g{kk:06d}")
            o_med.append(int(med.sum()))
            o_mn.append(int(mn.sum()))
            o_mx.append(int(mx.sum()))
        return pa.table({
            "geom_id": pa.array(gid, pa.string()),
            "sum_median": pa.array(o_med, pa.int64()),
            "sum_erode": pa.array(o_mn, pa.int64()),
            "sum_dilate": pa.array(o_mx, pa.int64()),
        })

    return _read(sf_dir, "customer", ["c_custkey"]).map_batches(
        run, batch_format="pyarrow")


def q_tophat(sf_dir: str):
    """Grayscale top-hat transforms (stages/focal.py::tophat — the
    scipy.ndimage white/black top-hat background removers): white =
    z - dilate(erode(z)), black = erode(dilate(z)) - z with the full
    3x3 element, two chained order-statistic passes (radius-2 halo in
    the distributed form).  Per key the quadric surface on 16x16;
    emits interior sums/maxima/positive counts.  The oracle replays
    both passes as chained 3x3 MIN/MAX self-joins."""
    from rasters_ray.stages.focal import tophat

    r, c = np.indices((16, 16))

    def run(t: pa.Table) -> pa.Table:
        k = t.column("c_custkey").to_numpy().astype(np.int64)
        cols = {n: [] for n in ("geom_id", "wth_sum", "wth_max", "n_wth_pos",
                                "bth_sum", "bth_max", "n_bth_pos")}
        for kk in k.tolist():
            al, be, ga = kk % 3 - 1, kk % 4 - 1, kk % 5 - 2
            a, b = kk % 7, kk % 11 - 5
            z = (al * r * r + be * c * c + ga * r * c
                 + a * r + b * c).astype(np.int64)
            white, black = tophat(z)
            cols["geom_id"].append(f"g{kk:06d}")
            cols["wth_sum"].append(int(white.sum()))
            cols["wth_max"].append(int(white.max()))
            cols["n_wth_pos"].append(int((white > 0).sum()))
            cols["bth_sum"].append(int(black.sum()))
            cols["bth_max"].append(int(black.max()))
            cols["n_bth_pos"].append(int((black > 0).sum()))
        return pa.table({
            "geom_id": pa.array(cols["geom_id"], pa.string()),
            **{n: pa.array(cols[n], pa.int64())
               for n in ("wth_sum", "wth_max", "n_wth_pos",
                         "bth_sum", "bth_max", "n_bth_pos")},
        })

    return _read(sf_dir, "customer", ["c_custkey"]).map_batches(
        run, batch_format="pyarrow")


def q_otsu(sf_dir: str):
    """Otsu global thresholding (stages/radiometry.py::otsu_threshold
    — Otsu 1979, the skimage threshold_otsu operation): per key a
    bimodal 256-pixel sample (low cluster (k+i)%64, high cluster
    128+(3k+i)%64); the squared between-class numerator is < 2^53 so
    the float64 criterion is exact and the SQL replay (histogram ->
    windowed cumulatives -> QUALIFY argmax) lands on the identical
    threshold.  Scale shape: per-key map, no shuffle."""
    from rasters_ray.stages.radiometry import otsu_threshold

    i = np.arange(256)

    def run(t: pa.Table) -> pa.Table:
        k = t.column("c_custkey").to_numpy().astype(np.int64)
        gid, ts, nb, sb = [], [], [], []
        for kk in k.tolist():
            v = np.where(i < 160, (kk + i) % 64, 128 + (3 * kk + i) % 64)
            t_star, p, s = otsu_threshold(v)
            gid.append(f"g{kk:06d}")
            ts.append(t_star)
            nb.append(p)
            sb.append(s)
        return pa.table({
            "geom_id": pa.array(gid, pa.string()),
            "t_star": pa.array(ts, pa.int64()),
            "n_below": pa.array(nb, pa.int64()),
            "sum_below": pa.array(sb, pa.int64()),
        })

    return _read(sf_dir, "customer", ["c_custkey"]).map_batches(
        run, batch_format="pyarrow")


def q_point_density(sf_dir: str):
    """Point density (stages/proximity.py::point_density — the ArcGIS
    Point Density / QGIS heatmap count-within-radius surface, exact
    squared-integer disk): per key 64 points ((k*j)%16, (k+3j)%16) on
    a 16x16 grid, radius^2 = 8; emits the density total, the peak and
    the first (row-major) argmax cell.  The oracle replays the count
    as a points x cells range join.  Scale shape: per-key map, no
    shuffle (at scale: bin-groupby then disk-stencil halo sum)."""
    from rasters_ray.stages.proximity import point_density

    j = np.arange(64)

    def run(t: pa.Table) -> pa.Table:
        k = t.column("c_custkey").to_numpy().astype(np.int64)
        gid, sd, md, ar, ac = [], [], [], [], []
        for kk in k.tolist():
            pts = np.stack([(kk * j) % 16, (kk + 3 * j) % 16], axis=1)
            d = point_density(pts, (16, 16), 8)
            am = int(np.argmax(d))
            gid.append(f"g{kk:06d}")
            sd.append(int(d.sum()))
            md.append(int(d.max()))
            ar.append(am // 16)
            ac.append(am % 16)
        return pa.table({
            "geom_id": pa.array(gid, pa.string()),
            "sum_dens": pa.array(sd, pa.int64()),
            "max_dens": pa.array(md, pa.int64()),
            "arg_r": pa.array(ar, pa.int64()),
            "arg_c": pa.array(ac, pa.int64()),
        })

    return _read(sf_dir, "customer", ["c_custkey"]).map_batches(
        run, batch_format="pyarrow")


def q_kernel_density(sf_dir: str):
    """Kernel density (stages/proximity.py::kernel_density — ArcGIS
    Kernel Density, Silverman quartic kernel kept integer-exact as the
    r^4-scaled numerator sum w * (r2 - d2)^2): per key the same 64-point
    cloud as point_density with population weights (k*7 + j) % 5 + 1,
    radius^2 = 8 on a 16x16 grid; emits total, peak and first (row-major)
    argmax cell.  The oracle replays the weighted quartic sum as a
    points x cells range join."""
    from rasters_ray.stages.proximity import kernel_density

    j = np.arange(64)

    def run(t: pa.Table) -> pa.Table:
        k = t.column("c_custkey").to_numpy().astype(np.int64)
        gid, sd, md, ar, ac = [], [], [], [], []
        for kk in k.tolist():
            pts = np.stack([(kk * j) % 16, (kk + 3 * j) % 16], axis=1)
            wts = (kk * 7 + j) % 5 + 1
            d = kernel_density(pts, (16, 16), 8, wts)
            am = int(np.argmax(d))
            gid.append(f"g{kk:06d}")
            sd.append(int(d.sum()))
            md.append(int(d.max()))
            ar.append(am // 16)
            ac.append(am % 16)
        return pa.table({
            "geom_id": pa.array(gid, pa.string()),
            "sum_dens": pa.array(sd, pa.int64()),
            "max_dens": pa.array(md, pa.int64()),
            "arg_r": pa.array(ar, pa.int64()),
            "arg_c": pa.array(ac, pa.int64()),
        })

    return _read(sf_dir, "customer", ["c_custkey"]).map_batches(
        run, batch_format="pyarrow")


def q_twi(sf_dir: str):
    """Topographic Wetness Index ln(a / tan beta) binned integer-exactly
    (hydrology.py::twi_bins): composes three REAL kernels — D8
    flow_direction -> flow_accumulation -> Horn numerators — on the
    per-key parabolic-ramp DEM z = (r + m)^2, m = k%5 + 1 (every cell
    drains due north, so the oracle's closed forms A = 16 - r and
    gy = 16(r + m) replay the comparison 16 - r >= 2t(r + m) exactly).
    Emits the per-key histogram of bins over the 14x14 Horn-valid
    interior.  Per-key map, no shuffle."""
    from rasters_ray.stages.hydrology import (
        flow_accumulation, flow_direction, twi_bins)
    from rasters_ray.stages.terrain import horn_numerators

    r, _ = np.indices((16, 16))

    def run(t: pa.Table) -> pa.Table:
        k = t.column("c_custkey").to_numpy().astype(np.int64)
        gid, bb, nn = [], [], []
        for kk in k.tolist():
            m = kk % 5 + 1
            z = ((r + m) * (r + m)).astype(np.float64)
            acc = flow_accumulation(flow_direction(z))
            canvas = np.full((18, 18), np.nan)
            canvas[1:-1, 1:-1] = z
            gx, gy, valid = horn_numerators(canvas)
            bins = twi_bins(acc, gx, gy)[valid]
            for u, n in zip(*np.unique(bins, return_counts=True)):
                gid.append(f"g{kk:06d}")
                bb.append(int(u))
                nn.append(int(n))
        return pa.table({
            "geom_id": pa.array(gid, pa.string()),
            "bin": pa.array(bb, pa.int64()),
            "n_px": pa.array(nn, pa.int64()),
        })

    return _read(sf_dir, "customer", ["c_custkey"]).map_batches(
        run, batch_format="pyarrow")


def q_hull(sf_dir: str):
    """Convex hull extreme points (geomvec.py::convex_hull, Andrew
    monotone chain, collinear dropped = GEOS convention): per key the
    16-point cloud's distinct-point count, hull vertex count and hull
    coordinate sums.  The oracle replays the DEFINITION: p is extreme
    iff it is in no triangle (Caratheodory) and on no segment of the
    other distinct points — an EXISTS anti-join, no chain walk."""
    from rasters_ray.stages.geomvec import convex_hull

    j = np.arange(16)

    def run(t: pa.Table) -> pa.Table:
        k = t.column("c_custkey").to_numpy().astype(np.int64)
        gid, npts, nh, sx, sy = [], [], [], [], []
        for kk in k.tolist():
            pts = np.stack([(kk * j) % 16, (kk + 3 * j) % 16],
                           axis=1).astype(np.float64)
            hull = convex_hull(pts)[:-1]  # drop closing vertex
            gid.append(f"g{kk:06d}")
            npts.append(len(np.unique(pts, axis=0)))
            nh.append(len(hull))
            sx.append(int(hull[:, 0].sum()))
            sy.append(int(hull[:, 1].sum()))
        return pa.table({
            "geom_id": pa.array(gid, pa.string()),
            "n_pts": pa.array(npts, pa.int64()),
            "n_hull": pa.array(nh, pa.int64()),
            "sum_hx": pa.array(sx, pa.int64()),
            "sum_hy": pa.array(sy, pa.int64()),
        })

    return _read(sf_dir, "customer", ["c_custkey"]).map_batches(
        run, batch_format="pyarrow")


def q_seg_intersect(sf_dir: str):
    """Segment-intersection counting (geomvec.py::segments_intersect —
    the CLRS 33.1 orientation predicate, proper crossings + collinear
    touches, exact integer cross products): per key two 8-segment
    families from formulas; emits total intersecting pairs, the
    busiest A segment's hit count and the count of A segments hit.
    The oracle replays d1..d4 and the bounding-box touch tests."""
    from rasters_ray.stages.geomvec import segments_intersect

    i = np.arange(8)

    def run(t: pa.Table) -> pa.Table:
        k = t.column("c_custkey").to_numpy().astype(np.int64)
        gid, np_, mx, na = [], [], [], []
        for kk in k.tolist():
            a0 = np.stack([2 * i, (kk * 3 + i * 5) % 16], axis=1)
            a1 = np.stack([2 * i + 3, (kk + 7 * i) % 16], axis=1)
            b0 = np.stack([(kk + i) % 16, 2 * i], axis=1)
            b1 = np.stack([(kk * 5 + i * 3) % 16, 2 * i + 3], axis=1)
            m = segments_intersect(a0, a1, b0, b1)
            gid.append(f"g{kk:06d}")
            np_.append(int(m.sum()))
            mx.append(int(m.sum(axis=1).max()))
            na.append(int((m.any(axis=1)).sum()))
        return pa.table({
            "geom_id": pa.array(gid, pa.string()),
            "n_pairs": pa.array(np_, pa.int64()),
            "max_hits": pa.array(mx, pa.int64()),
            "n_a_hit": pa.array(na, pa.int64()),
        })

    return _read(sf_dir, "customer", ["c_custkey"]).map_batches(
        run, batch_format="pyarrow")


def q_landscape(sf_dir: str):
    """FRAGSTATS class metrics (label.py::landscape_metrics — class
    area, total edge, depth-1 core area): per key the categorical
    raster cls = (k + 2r + 3c) % 5 on 16x16; SQL replays the shifted
    rook comparisons from the formula."""
    from rasters_ray.stages.label import landscape_metrics

    r, c = np.indices((16, 16))

    def run(t: pa.Table) -> pa.Table:
        k = t.column("c_custkey").to_numpy().astype(np.int64)
        parts = []
        for kk in k.tolist():
            cls = (kk + 2 * r + 3 * c) % 5
            tab = landscape_metrics(cls)
            gid = pa.array([f"g{kk:06d}"] * tab.num_rows, pa.string())
            parts.append(tab.add_column(0, "geom_id", gid))
        return pa.concat_tables(parts) if parts else pa.table({
            "geom_id": pa.array([], pa.string()),
            "class": pa.array([], pa.int64()),
            "n_px": pa.array([], pa.int64()),
            "edge_len": pa.array([], pa.int64()),
            "n_core": pa.array([], pa.int64()),
        })

    return _read(sf_dir, "customer", ["c_custkey"]).map_batches(
        run, batch_format="pyarrow")


def q_flow_weighted(sf_dir: str):
    """Weighted flow accumulation (hydrology.py::
    flow_accumulation_weighted — the ArcGIS weight-raster variant, the
    runoff/sediment-load accumulator): on the due-north parabolic ramp
    z = (r + m)^2 with rainfall weights w = (k + 3r + 5c) % 11, the
    upstream weighted accumulation telescopes to per-column suffix
    sums, which the oracle replays as a window SUM over r' > r.  Emits
    per-key totals and two probes."""
    from rasters_ray.stages.hydrology import (
        flow_accumulation_weighted, flow_direction)

    r, c = np.indices((16, 16))

    def run(t: pa.Table) -> pa.Table:
        k = t.column("c_custkey").to_numpy().astype(np.int64)
        gid, tot, pa_, pb = [], [], [], []
        for kk in k.tolist():
            m = kk % 5 + 1
            z = ((r + m) * (r + m)).astype(np.float64)
            w = (kk + 3 * r + 5 * c) % 11
            acc = flow_accumulation_weighted(flow_direction(z), w)
            gid.append(f"g{kk:06d}")
            tot.append(int(acc.sum()))
            pa_.append(int(acc[0, kk % 16]))
            pb.append(int(acc[kk % 13, 15]))
        return pa.table({
            "geom_id": pa.array(gid, pa.string()),
            "acc_total": pa.array(tot, pa.int64()),
            "acc_top": pa.array(pa_, pa.int64()),
            "acc_probe": pa.array(pb, pa.int64()),
        })

    return _read(sf_dir, "customer", ["c_custkey"]).map_batches(
        run, batch_format="pyarrow")


def q_std_ellipse(sf_dir: str):
    """Standard deviational ellipse / directional distribution (ArcGIS
    Measuring Geographic Distributions; spatial_stats.py::
    std_ellipse_ints): per key the 64-point cloud's mean center and
    n-scaled second moments sxx = n*sum(x^2) - sum(x)^2, syy, sxy —
    all int64 (axes and tan 2theta = 2*sxy/(sxx-syy) are pure functions
    of them).  Per-key map, no shuffle; partial sums combine exactly."""
    from rasters_ray.stages.spatial_stats import std_ellipse_ints

    j = np.arange(64)

    def run(t: pa.Table) -> pa.Table:
        k = t.column("c_custkey").to_numpy().astype(np.int64)
        rows = {n: [] for n in ("geom_id", "n", "sum_x", "sum_y",
                                "sxx", "syy", "sxy")}
        for kk in k.tolist():
            pts = np.stack([(kk * j) % 16, (kk + 3 * j) % 16], axis=1)
            n, sx, sy, sxx, syy, sxy = std_ellipse_ints(pts)
            rows["geom_id"].append(f"g{kk:06d}")
            for nm, v in zip(("n", "sum_x", "sum_y", "sxx", "syy", "sxy"),
                             (n, sx, sy, sxx, syy, sxy)):
                rows[nm].append(v)
        return pa.table({
            "geom_id": pa.array(rows["geom_id"], pa.string()),
            **{nm: pa.array(rows[nm], pa.int64())
               for nm in ("n", "sum_x", "sum_y", "sxx", "syy", "sxy")},
        })

    return _read(sf_dir, "customer", ["c_custkey"]).map_batches(
        run, batch_format="pyarrow")


def q_quadrat(sf_dir: str):
    """Quadrat analysis (spatial_stats.py::quadrat_vmr_ints — the
    classic clustered-vs-uniform point-pattern test): the 64-point
    cloud binned into 4x4 quadrats of the 16x16 domain; the
    variance-mean-ratio statistic kept integral as
    vmr_num = Q*sum(c^2) - n^2.  SQL replays the counts per cell."""
    from rasters_ray.stages.spatial_stats import quadrat_vmr_ints

    j = np.arange(64)

    def run(t: pa.Table) -> pa.Table:
        k = t.column("c_custkey").to_numpy().astype(np.int64)
        gid, ns, c2s, mxs, vs = [], [], [], [], []
        for kk in k.tolist():
            pts = np.stack([(kk * j) % 16, (kk + 3 * j) % 16], axis=1)
            n, _, c2, mx, vnum = quadrat_vmr_ints(pts, 16, 4)
            gid.append(f"g{kk:06d}")
            ns.append(n)
            c2s.append(c2)
            mxs.append(mx)
            vs.append(vnum)
        return pa.table({
            "geom_id": pa.array(gid, pa.string()),
            "n": pa.array(ns, pa.int64()),
            "sum_c2": pa.array(c2s, pa.int64()),
            "max_c": pa.array(mxs, pa.int64()),
            "vmr_num": pa.array(vs, pa.int64()),
        })

    return _read(sf_dir, "customer", ["c_custkey"]).map_batches(
        run, batch_format="pyarrow")


def q_ripley_k(sf_dir: str):
    """Ripley's K pair counts (spatial_stats.py::ripley_pair_counts,
    Ripley 1976): unordered pairs of the 64-point cloud with squared
    distance <= r2 for r2 in (2, 8, 18, 32) — the exact integer K(r)
    numerator.  SQL replays as a j1 < j2 self-join.  Per-key O(n^2)
    kernel; at scale the plan is grid-bucketed (bucket by cell, count
    in-bucket + halo-bucket pairs bounded by max r)."""
    from rasters_ray.stages.spatial_stats import ripley_pair_counts

    j = np.arange(64)
    r2s = (2, 8, 18, 32)

    def run(t: pa.Table) -> pa.Table:
        k = t.column("c_custkey").to_numpy().astype(np.int64)
        gid, rr, pc = [], [], []
        for kk in k.tolist():
            pts = np.stack([(kk * j) % 16, (kk + 3 * j) % 16], axis=1)
            for r2, n in zip(r2s, ripley_pair_counts(pts, r2s)):
                gid.append(f"g{kk:06d}")
                rr.append(r2)
                pc.append(n)
        return pa.table({
            "geom_id": pa.array(gid, pa.string()),
            "r2": pa.array(rr, pa.int64()),
            "pairs": pa.array(pc, pa.int64()),
        })

    return _read(sf_dir, "customer", ["c_custkey"]).map_batches(
        run, batch_format="pyarrow")


def q_conservative(sf_dir: str):
    """First-order conservative regridding (resample.py::
    conservative_regrid_mass — ESMF/SCRIP "conservative", Jones 1999):
    the per-key 24x24 formula raster (source cells 2 units) regrids
    onto a 16x16 target (3 units, shared extent); masses stay int64
    and conserve exactly.  Emits the conservation total and three
    probe masses; SQL replays the overlap join with GREATEST/LEAST."""
    from rasters_ray.stages.resample import conservative_regrid_mass

    r, c = np.indices((24, 24))

    def run(t: pa.Table) -> pa.Table:
        k = t.column("c_custkey").to_numpy().astype(np.int64)
        gid, tot, p0, p1, p2 = [], [], [], [], []
        for kk in k.tolist():
            v = (kk * 7 + r * 11 + c * 5) % 97
            m = conservative_regrid_mass(v, 2, 16, 16, 3)
            assert m.sum() == v.sum() * 4
            gid.append(f"g{kk:06d}")
            tot.append(int(m.sum()))
            p0.append(int(m[0, 0]))
            p1.append(int(m[7, 9]))
            p2.append(int(m[15, 15]))
        return pa.table({
            "geom_id": pa.array(gid, pa.string()),
            "total_mass": pa.array(tot, pa.int64()),
            "m00": pa.array(p0, pa.int64()),
            "m79": pa.array(p1, pa.int64()),
            "m1515": pa.array(p2, pa.int64()),
        })

    return _read(sf_dir, "customer", ["c_custkey"]).map_batches(
        run, batch_format="pyarrow")


def q_suitability(sf_dir: str):
    """Weighted-overlay site suitability (quality.py::weighted_overlay —
    the ArcGIS multi-criteria workhorse): three criterion layers from
    key formulas, each reclassified to scores 1..5 at bins
    20/40/60/80, combined 3/2/1-weighted; per-key histogram of the
    suitability surface.  SQL replays the binning as integer division
    (layers are non-negative integers < 100, so score = L//20 + 1)."""
    from rasters_ray.stages.quality import weighted_overlay

    r, c = np.indices((16, 16))
    bins = [20.0, 40.0, 60.0, 80.0]
    classes = [1, 2, 3, 4, 5]

    def run(t: pa.Table) -> pa.Table:
        k = t.column("c_custkey").to_numpy().astype(np.int64)
        gid, ss, nn = [], [], []
        for kk in k.tolist():
            l1 = (kk * 3 + r * 7 + c * 11) % 100
            l2 = (kk * 5 + r * 13 + c * 3) % 100
            l3 = (kk + r * 2 + c * 17) % 100
            w = weighted_overlay([l1, l2, l3], [bins] * 3, [classes] * 3,
                                 [3, 2, 1])
            for u, n in zip(*np.unique(w, return_counts=True)):
                gid.append(f"g{kk:06d}")
                ss.append(int(u))
                nn.append(int(n))
        return pa.table({
            "geom_id": pa.array(gid, pa.string()),
            "score": pa.array(ss, pa.int64()),
            "n_px": pa.array(nn, pa.int64()),
        })

    return _read(sf_dir, "customer", ["c_custkey"]).map_batches(
        run, batch_format="pyarrow")


def q_sun_hours(sf_dir: str):
    """Four-azimuth insolation counts (viewshed.py::sun_hours — the
    integer core of an r.sun daily pass): rays at elevation
    atan(p/q), p = k%5, q = k%3+1, travelling +c/-c/+r/-r over the
    quadric surface; per key the histogram of lit-direction counts
    and the z total of fully-lit cells.  The oracle replays each
    azimuth as a strictly-preceding window MAX in the matching
    partition/order."""
    from rasters_ray.stages.viewshed import sun_hours

    r, c = np.indices((16, 16))

    def run(t: pa.Table) -> pa.Table:
        k = t.column("c_custkey").to_numpy().astype(np.int64)
        gid, nl, nn, sz = [], [], [], []
        for kk in k.tolist():
            al, be, ga = kk % 3 - 1, kk % 4 - 1, kk % 5 - 2
            a, b = kk % 7, kk % 11 - 5
            z = (al * r * r + be * c * c + ga * r * c + a * r + b * c)
            lit = sun_hours(z, kk % 5, kk % 3 + 1)
            for u, n in zip(*np.unique(lit, return_counts=True)):
                gid.append(f"g{kk:06d}")
                nl.append(int(u))
                nn.append(int(n))
                sz.append(int(z[lit == u].sum()))
        return pa.table({
            "geom_id": pa.array(gid, pa.string()),
            "n_lit": pa.array(nl, pa.int64()),
            "n_px": pa.array(nn, pa.int64()),
            "sum_z": pa.array(sz, pa.int64()),
        })

    return _read(sf_dir, "customer", ["c_custkey"]).map_batches(
        run, batch_format="pyarrow")


def q_cast_shadows(sf_dir: str):
    """Cast shadows (stages/viewshed.py::cast_shadows — the r.sun /
    hillshade-with-shadows horizon scan, sun travelling +columns at
    slope p/q): per key the quadric surface on a 16x16 grid with
    p = k%5, q = k%3+1; the pure-integer blocking test
    max_{c'<c}(q*z + p*c') > q*z + p*c is replayed by the oracle as a
    strictly-preceding window MAX.  Emits the shadowed-cell count and
    their z total.  Scale shape: per-key map; at scale a per-row
    prefix scan with O(rows) tile exchange."""
    from rasters_ray.stages.viewshed import cast_shadows

    r, c = np.indices((16, 16))

    def run(t: pa.Table) -> pa.Table:
        k = t.column("c_custkey").to_numpy().astype(np.int64)
        gid, ns, sz = [], [], []
        for kk in k.tolist():
            al, be, ga = kk % 3 - 1, kk % 4 - 1, kk % 5 - 2
            a, b = kk % 7, kk % 11 - 5
            z = (al * r * r + be * c * c + ga * r * c + a * r + b * c)
            s = cast_shadows(z, kk % 5, kk % 3 + 1)
            gid.append(f"g{kk:06d}")
            ns.append(int(s.sum()))
            sz.append(int(z[s].sum()))
        return pa.table({
            "geom_id": pa.array(gid, pa.string()),
            "n_shadow": pa.array(ns, pa.int64()),
            "sum_z_shadow": pa.array(sz, pa.int64()),
        })

    return _read(sf_dir, "customer", ["c_custkey"]).map_batches(
        run, batch_format="pyarrow")


def q_sieve(sf_dir: str):
    """Sieve filter (stages/label.py::sieve_filter — gdal_sieve,
    remove raster regions smaller than a pixel threshold into their
    largest neighbour): per key vertical stripes c//4 on 16x16 with a
    class-9 island of 2 + k%2 cells at row k%14+1 inside stripe k%3;
    threshold 3 removes the 2-cell island (out == stripes) and keeps
    the 3-cell one, so every output is closed-form.  Scale shape:
    per-key map; at scale label_components + a broadcast merge table."""
    from rasters_ray.stages.label import sieve_filter

    stripes = np.tile(np.arange(16) // 4, (16, 1))

    def run(t: pa.Table) -> pa.Table:
        k = t.column("c_custkey").to_numpy().astype(np.int64)
        gid, nc, so, iv = [], [], [], []
        for kk in k.tolist():
            cls = stripes.copy()
            r0 = kk % 14 + 1
            s = 4 * (kk % 3) + 1
            cls[r0, s:s + 2 + kk % 2] = 9
            out, n = sieve_filter(cls, 3)
            gid.append(f"g{kk:06d}")
            nc.append(n)
            so.append(int(out.sum()))
            iv.append(int(out[r0, s]))
        return pa.table({
            "geom_id": pa.array(gid, pa.string()),
            "n_changed": pa.array(nc, pa.int64()),
            "sum_out": pa.array(so, pa.int64()),
            "island_val": pa.array(iv, pa.int64()),
        })

    return _read(sf_dir, "customer", ["c_custkey"]).map_batches(
        run, batch_format="pyarrow")


def q_cva(sf_dir: str):
    """Change vector analysis (stages/quality.py::change_vector —
    Malila 1980 two-date change magnitude + direction sector): per key
    two 2-band dates whose difference is d0 = (k%7-3)+(r-7),
    d1 = (k%11-5)+(c-7); emits the integer squared-magnitude total and
    the four sector counts, replayed closed-form by the oracle over
    range(0,16)^2.  Scale shape: per-key map, no shuffle (at scale a
    zipped two-sided map_batches over co-partitioned dates)."""
    from rasters_ray.stages.quality import change_vector

    r, c = np.indices((16, 16))

    def run(t: pa.Table) -> pa.Table:
        k = t.column("c_custkey").to_numpy().astype(np.int64)
        gid, sm, s0, s1, s2, s3 = [], [], [], [], [], []
        for kk in k.tolist():
            a = np.stack([r + kk % 5 * c, 2 * r - c])
            b = np.stack([a[0] + (kk % 7 - 3) + (r - 7),
                          a[1] + (kk % 11 - 5) + (c - 7)])
            mag2, sector = change_vector(a, b)
            gid.append(f"g{kk:06d}")
            sm.append(int(mag2.sum()))
            cnt = np.bincount(sector.ravel(), minlength=4)
            s0.append(int(cnt[0]))
            s1.append(int(cnt[1]))
            s2.append(int(cnt[2]))
            s3.append(int(cnt[3]))
        return pa.table({
            "geom_id": pa.array(gid, pa.string()),
            "sum_mag2": pa.array(sm, pa.int64()),
            "n_s0": pa.array(s0, pa.int64()),
            "n_s1": pa.array(s1, pa.int64()),
            "n_s2": pa.array(s2, pa.int64()),
            "n_s3": pa.array(s3, pa.int64()),
        })

    return _read(sf_dir, "customer", ["c_custkey"]).map_batches(
        run, batch_format="pyarrow")


def q_fill_sinks(sf_dir: str):
    """Depression filling (stages/hydrology.py::fill_sinks — Planchon
    & Darboux 2001, the r.fill.dir preprocessing step): per key a 3x3
    pit carved to -100 at (a, p) = (k%6+2, k%7+2) in the ramp r + 2c;
    the pit fills exactly to its lowest rim cell a + 2p - 3, every
    other cell is untouched, and the filled total telescopes to the
    constant 5706 — all proven exhaustively over the 42 pit positions
    in pytest. Scale shape: per-key map, no shuffle."""
    from rasters_ray.stages.hydrology import fill_sinks

    r, c = np.indices((16, 16))
    ramp = (r + 2 * c).astype(np.float64)

    def run(t: pa.Table) -> pa.Table:
        k = t.column("c_custkey").to_numpy().astype(np.int64)
        gid, spill, tot, nch = [], [], [], []
        for kk in k.tolist():
            a, p = kk % 6 + 2, kk % 7 + 2
            dem = ramp.copy()
            dem[a:a + 3, p:p + 3] = -100.0
            filled = fill_sinks(dem)
            gid.append(f"g{kk:06d}")
            spill.append(int(filled[a + 1, p + 1]))
            tot.append(int(filled.sum()))
            nch.append(int(np.sum(filled != dem)))
        return pa.table({
            "geom_id": pa.array(gid, pa.string()),
            "spill_level": pa.array(spill, pa.int64()),
            "filled_sum": pa.array(tot, pa.int64()),
            "n_filled": pa.array(nch, pa.int64()),
        })

    return _read(sf_dir, "customer", ["c_custkey"]).map_batches(
        run, batch_format="pyarrow")


def q_flow_tiled(sf_dir: str):
    """DISTRIBUTED flow accumulation (stages/hydrology.py::
    flow_accumulation_tiled — the TauDEM produce/exchange/resolve
    shape: halo-exchange local pass, iterative border-flow rounds,
    per-tile resolve): a 64x64 ramp DEM r*64+c sharded into sixteen
    16x16 tiles.  Drainage crosses up to 7 tile borders (north up the
    columns, then west along row 0), so the oracle pins the EXCHANGE
    itself: per tile the corner accumulation and tile total follow the
    closed telescoped forms acc(r>0, c) = 63-r and acc(0, c) =
    63 + 64*(63-c).  Bit-equality with the single-array kernel is
    additionally pytest-proven on random/NaN/serpentine DEMs."""
    import ray

    from rasters_ray import codec as rcodec
    from rasters_ray.stages.hydrology import flow_accumulation_tiled

    r, c = np.indices((64, 64))
    dem = (r * 64 + c).astype(np.float64)
    ds = ray.data.from_items([{
        "image_id": "dem0",
        "bytes": rcodec.encode(dem, "npy"),
        "fmt": "npy",
    }])

    def summar(t: pa.Table) -> pa.Table:
        ty, tx, corner, tot = [], [], [], []
        for i in range(t.num_rows):
            acc = rcodec.decode(t.column("bytes")[i].as_py(),
                                t.column("fmt")[i].as_py())
            ty.append(int(t.column("ty")[i].as_py()))
            tx.append(int(t.column("tx")[i].as_py()))
            corner.append(int(acc[0, 0]))
            tot.append(int(acc.sum()))
        return pa.table({
            "ty": pa.array(ty, pa.int64()),
            "tx": pa.array(tx, pa.int64()),
            "acc_corner": pa.array(corner, pa.int64()),
            "acc_sum": pa.array(tot, pa.int64()),
        })

    return flow_accumulation_tiled(ds, tile=16).map_batches(
        summar, batch_format="pyarrow")


def q_watershed_tiled(sf_dir: str):
    """DISTRIBUTED watershed (stages/hydrology.py::watershed_tiled —
    border pointer DOUBLING, Wyllie 1979 list ranking over the tile
    graph): the 64x64 ridge DEM -|c - 13| sharded into sixteen 16x16
    tiles.  Every row splits at column 13 into a west basin (pit
    (r, 0), label r*2^24) and an east basin (pit (r, 63)); east-half
    water crosses up to 3 tile borders, so the oracle pins the
    doubling rounds themselves: per tile the west-cell count, the
    distinct-label count and the corner label are closed forms.
    Bit-equality with the in-core watershed is pytest-proven on
    random/ridge/serpentine DEMs."""
    import ray

    from rasters_ray import codec as rcodec
    from rasters_ray.stages.hydrology import watershed_tiled

    c = np.arange(64, dtype=np.float64)
    dem = np.broadcast_to(-np.abs(c - 13.0), (64, 64)).copy()
    ds = ray.data.from_items([{
        "image_id": "dem0",
        "bytes": rcodec.encode(dem, "npy"),
        "fmt": "npy",
    }])

    def summar(t: pa.Table) -> pa.Table:
        ty, tx, nw, nl, corner = [], [], [], [], []
        for i in range(t.num_rows):
            lab = rcodec.decode(t.column("bytes")[i].as_py(),
                                t.column("fmt")[i].as_py())
            ty.append(int(t.column("ty")[i].as_py()))
            tx.append(int(t.column("tx")[i].as_py()))
            nw.append(int(np.sum(lab % 16777216 == 0)))
            nl.append(int(np.unique(lab).size))
            corner.append(int(lab[0, 0]))
        return pa.table({
            "ty": pa.array(ty, pa.int64()),
            "tx": pa.array(tx, pa.int64()),
            "n_west": pa.array(nw, pa.int64()),
            "n_labels": pa.array(nl, pa.int64()),
            "corner_label": pa.array(corner, pa.int64()),
        })

    return watershed_tiled(ds, tile=16).map_batches(
        summar, batch_format="pyarrow")


def q_viewshed(sf_dir: str):
    """R3 viewshed (stages/viewshed.py::viewshed — Franklin & Ray 1994
    per-ray LOS with Chebyshev-step bilinear sampling, the
    gdal_viewshed operation): per key a flat DEM with a full wall
    column at p = k%10+2 of height wh = k%5+1, observer (8, 0) at
    height 3.  Inside the dominant-column cone {|r-8| <= c} every
    pre-wall and wall column is fully visible and a post-wall column c
    is visible iff c*(3-wh) >= 3p (strict-blocking, cross-multiplied
    integers) — the cone count is a pure-INTEGER key formula, proven
    exhaustively over all 50 (p, wh) combos in pytest. Scale shape:
    per-key map (per-image kernel), no shuffle."""
    from rasters_ray.stages.viewshed import viewshed

    rr, cc = np.indices((16, 16))
    cone = (np.abs(rr - 8) <= cc) & (cc >= 1)

    def run(t: pa.Table) -> pa.Table:
        k = t.column("c_custkey").to_numpy().astype(np.int64)
        gid, nv, ncone = [], [], []
        for kk in k.tolist():
            dem = np.zeros((16, 16), dtype=np.float64)
            dem[:, kk % 10 + 2] = kk % 5 + 1
            v = viewshed(dem, (8, 0), height=3.0)
            gid.append(f"g{kk:06d}")
            nv.append(int(np.sum(v & cone)))
            ncone.append(int(cone.sum()))
        return pa.table({
            "geom_id": pa.array(gid, pa.string()),
            "n_vis_cone": pa.array(nv, pa.int64()),
            "n_cone": pa.array(ncone, pa.int64()),
        })

    return _read(sf_dir, "customer", ["c_custkey"]).map_batches(
        run, batch_format="pyarrow")


def q_gcp_affine(sf_dir: str):
    """GCP georeferencing (stages/georef.py::fit_affine_per_scene —
    the gdal_translate -gcp / GDALGCPsToGeoTransform least-squares
    affine fit): per key a 3x3 pixel grid mapped through the exact
    integer affine (a,b,c,d,e,f) = (k%5-2, k%3-1, k%7, k%4-2, k%6+1,
    -(k%8)); the per-scene groupby solve recovers it exactly (rms 0),
    so the 1/8-quantized parameters are pure-INTEGER key formulas.
    Scale shape: vectorized map_batches fan-out -> ONE
    groupby(scene_id) shuffle of kilobyte tie tables -> per-group
    9x3 solve."""
    from rasters_ray.stages.georef import fit_affine_per_scene

    gx, gy = np.meshgrid([0.0, 10.0, 20.0], [0.0, 10.0, 20.0])
    pts = np.column_stack([gx.ravel(), gy.ravel()])

    def fan(t: pa.Table) -> pa.Table:
        k = t.column("c_custkey").to_numpy().astype(np.int64)
        kk = np.repeat(k, len(pts))
        x = np.tile(pts[:, 0], len(k))
        y = np.tile(pts[:, 1], len(k))
        a, b, c = kk % 5 - 2, kk % 3 - 1, kk % 7
        d, e, f = kk % 4 - 2, kk % 6 + 1, -(kk % 8)
        return pa.table({
            "scene_id": pa.array([f"g{v:06d}" for v in kk.tolist()],
                                 pa.string()),
            "px": pa.array(x), "py": pa.array(y),
            "mx": pa.array(a * x + b * y + c),
            "my": pa.array(d * x + e * y + f),
        })

    def quant(t: pa.Table) -> pa.Table:
        out = {"geom_id": t.column("scene_id")}
        for col in ("a", "b", "c", "d", "e", "f", "rms"):
            v = np.rint(t.column(col).to_numpy() * 8.0).astype(np.int64)
            out[f"{col}8"] = pa.array(v, pa.int64())
        out["n_points"] = t.column("n_points").cast(pa.int64())
        return pa.table(out)

    ties = _read(sf_dir, "customer", ["c_custkey"]).map_batches(
        fan, batch_format="pyarrow")
    return fit_affine_per_scene(ties).map_batches(
        quant, batch_format="pyarrow")


def q_hist_match(sf_dir: str):
    """Histogram matching (stages/radiometry.py::match_histogram —
    the skimage match_histograms seam-blend normalization): per key
    the source 16x16 holds the affine permutation (i*s + k) % 256 of
    0..255 (s = 2*(k%8)+1 odd, hence coprime with 256) and the
    reference holds 3*j+7, both equally frequent — the i-th smallest
    source value maps EXACTLY to the i-th smallest reference value,
    so the matched probe is 3*v+7 and the image total is the constant
    3*32640 + 256*7. Scale shape: per-key map, no shuffle."""
    from rasters_ray.stages.radiometry import match_histogram

    ref = (np.arange(256, dtype=np.float64) * 3 + 7).reshape(16, 16)

    def run(t: pa.Table) -> pa.Table:
        k = t.column("c_custkey").to_numpy().astype(np.int64)
        gid, probe, tot = [], [], []
        i = np.arange(256, dtype=np.int64)
        for kk in k.tolist():
            s = 2 * (kk % 8) + 1
            src = ((i * s + kk) % 256).astype(np.float64).reshape(16, 16)
            out = match_histogram(src, ref)
            gid.append(f"g{kk:06d}")
            probe.append(int(np.rint(out.ravel()[kk % 256])))
            tot.append(int(np.rint(out.sum())))
        return pa.table({
            "geom_id": pa.array(gid, pa.string()),
            "matched_probe": pa.array(probe, pa.int64()),
            "matched_sum": pa.array(tot, pa.int64()),
        })

    return _read(sf_dir, "customer", ["c_custkey"]).map_batches(
        run, batch_format="pyarrow")


def q_pansharpen(sf_dir: str):
    """Brovey pansharpen (stages/radiometry.py::brovey_pansharpen —
    the gdal_pansharpen ratio fusion): per key bands (x, 2x, 3x) with
    x = flat index + 1 and pan = 4x, so the ratio is exactly 2
    everywhere and out[b] = 2*(b+1)*x — probe and grand total are
    pure-INTEGER formulas. Scale shape: per-key map, no shuffle."""
    from rasters_ray.stages.radiometry import brovey_pansharpen

    x = np.arange(1.0, 257.0).reshape(16, 16)
    bands = np.stack([x, 2 * x, 3 * x])
    pan = 4 * x

    def run(t: pa.Table) -> pa.Table:
        k = t.column("c_custkey").to_numpy().astype(np.int64)
        out = brovey_pansharpen(bands, pan)
        gid, probe, tot = [], [], []
        for kk in k.tolist():
            gid.append(f"g{kk:06d}")
            probe.append(int(np.rint(out[kk % 3].ravel()[kk % 200])))
            tot.append(int(np.rint(out.sum())))
        return pa.table({
            "geom_id": pa.array(gid, pa.string()),
            "sharp_probe": pa.array(probe, pa.int64()),
            "sharp_sum": pa.array(tot, pa.int64()),
        })

    return _read(sf_dir, "customer", ["c_custkey"]).map_batches(
        run, batch_format="pyarrow")


def q_template_match(sf_dir: str):
    """NCC template matching (stages/match.py — Lewis 1995, the
    OpenCV TM_CCOEFF_NORMED kernel): per key a 16x16 planar ramp with
    a 4x4 checkerboard stamped at (k%12, k%11); the checkerboard's
    covariance against any planar window telescopes to ZERO, so the
    stamped window is the unique NCC=1 peak — position and the 1/8-
    quantized score are exact key formulas. Scale shape: per-key map,
    no shuffle."""
    from rasters_ray.stages.match import match_template, peak_of

    r, c = np.indices((16, 16))
    base = (r * 16 + c) / 8.0
    checker = 100.0 * ((np.indices((4, 4)).sum(axis=0)) % 2).astype(float)

    def run(t: pa.Table) -> pa.Table:
        k = t.column("c_custkey").to_numpy().astype(np.int64)
        gid, prs, pcs, s8, npos = [], [], [], [], []
        for kk in k.tolist():
            img = base.copy()
            sr, sc = kk % 12, kk % 11
            img[sr : sr + 4, sc : sc + 4] = checker
            scores = match_template(img, checker)
            pr, pc, s = peak_of(scores)
            gid.append(f"g{kk:06d}")
            prs.append(pr)
            pcs.append(pc)
            s8.append(int(np.rint(s * 8.0)))
            npos.append(scores.size)
        return pa.table({
            "geom_id": pa.array(gid, pa.string()),
            "peak_r": pa.array(prs, pa.int64()),
            "peak_c": pa.array(pcs, pa.int64()),
            "score_8": pa.array(s8, pa.int64()),
            "n_pos": pa.array(npos, pa.int64()),
        })

    return _read(sf_dir, "customer", ["c_custkey"]).map_batches(
        run, batch_format="pyarrow")


def q_coregister(sf_dir: str):
    """Image co-registration (stages/match.py::estimate_shift — NCC
    tie-point shift recovery between two acquisitions of one scene):
    per key two 16x16 crops of a quadratic-texture scene offset by
    (k%5-2, k%7-3); the recovered shift equals the constructed one
    with an exact-match NCC=1 peak. test_match proves ALL 35 shift
    combos of this exact construction exhaustively. Scale shape:
    per-key map, no shuffle."""
    from rasters_ray.stages.match import estimate_shift

    r, c = np.indices((32, 32))
    scene = ((r * r * 3 + c * c * 7 + r * c) % 13).astype(np.float64)
    ref = scene[8:24, 8:24]

    def run(t: pa.Table) -> pa.Table:
        k = t.column("c_custkey").to_numpy().astype(np.int64)
        gid, drs, dcs, s8 = [], [], [], []
        for kk in k.tolist():
            dr, dc = kk % 5 - 2, kk % 7 - 3
            mov = scene[8 + dr : 24 + dr, 8 + dc : 24 + dc]
            gr, gc, s = estimate_shift(ref, mov, max_shift=4)
            gid.append(f"g{kk:06d}")
            drs.append(gr)
            dcs.append(gc)
            s8.append(int(np.rint(s * 8.0)))
        return pa.table({
            "geom_id": pa.array(gid, pa.string()),
            "dr": pa.array(drs, pa.int64()),
            "dc": pa.array(dcs, pa.int64()),
            "score_8": pa.array(s8, pa.int64()),
        })

    return _read(sf_dir, "customer", ["c_custkey"]).map_batches(
        run, batch_format="pyarrow")


def q_netcdf_chunked(sf_dir: str):
    """Real-world NetCDF-4 envelope (sources/hdf5lite.py + netcdf.py):
    each oracle image round-trips through a CHUNKED HDF5 container with
    the full netcdf-c default filter stack (shuffle + deflate +
    fletcher32) — the layout real NASA granules use — written and read
    back ON WORKERS: write_hdf5 emits the v1 B-tree chunk index + the
    three-entry filter pipeline, read_netcdf routes the \\x89HDF magic
    through hdf5lite (which verifies every chunk checksum) and extracts
    the CF grid from the lat/lon coordinate datasets. Pixel sums are exact ints and the recovered
    origin is floor-cm, so the golden VALUES oracle pins the chunk
    B-tree walk, the filter pipeline and the CF grid inference
    end-to-end. Scale shape: one file per image on worker-local disk;
    nothing shuffles."""
    import os

    from rasters_ray import codec
    from rasters_ray.sources.hdf5lite import write_hdf5
    from rasters_ray.sources.netcdf import netcdf_raster

    out_dir = f"/tmp/rasters_ray_nc_q_{os.getpid()}"

    def roundtrip(t: pa.Table) -> pa.Table:
        os.makedirs(out_dir, exist_ok=True)
        rows = {"image_id": [], "px_sum": [], "x0_cm": [], "y0_cm": []}
        for i in range(t.num_rows):
            iid = t.column("image_id")[i].as_py()
            px = codec.decode(t.column("bytes")[i].as_py(),
                              t.column("fmt")[i].as_py())
            g = t.column("grid")[i].as_py()
            lat = g["y_origin"] + g["cell_height"] * (
                np.arange(g["rows"], dtype=np.float64) + 0.5)
            lon = g["x_origin"] + g["cell_width"] * (
                np.arange(g["cols"], dtype=np.float64) + 0.5)
            p = os.path.join(out_dir, f"{iid}.nc")
            write_hdf5(p, {"lat": lat, "lon": lon,
                           "temp": px.astype(np.float32)},
                       chunks={"temp": (16, 16), "lat": (len(lat),),
                               "lon": (len(lon),)}, compression="deflate",
                       shuffle=True, fletcher32=True,
                       dims={"temp": ["lat", "lon"]})
            # the grid is SQUARE: only the DIMENSION_LIST attribute
            # (vlen object references through the global heap — what
            # real granules carry) disambiguates the axes; no coords=
            arr, g2 = netcdf_raster(p, "temp")
            rows["image_id"].append(iid)
            rows["px_sum"].append(int(np.rint(arr.astype(np.float64)).sum()))
            rows["x0_cm"].append(int(np.floor(g2.x_origin * 100.0)))
            rows["y0_cm"].append(int(np.floor(g2.y_origin * 100.0)))
        return pa.table(
            {
                "image_id": pa.array(rows["image_id"], pa.string()),
                "px_sum": pa.array(rows["px_sum"], pa.int64()),
                "x0_cm": pa.array(rows["x0_cm"], pa.int64()),
                "y0_cm": pa.array(rows["y0_cm"], pa.int64()),
            }
        )

    return _images_ds(sf_dir, 2).map_batches(roundtrip, batch_format="pyarrow")


def q_zarr_v3(sf_dir: str):
    """Zarr v3 + blosc envelope (sources/zarr_lite.py + codec/
    blosc_lite.py): each oracle image round-trips through a v3 store
    (zarr.json metadata, c/i/j chunk keys, bytes->blosc codec chain with
    byte shuffle) written and read back ON WORKERS via zarr_raster's CF
    extraction. The golden VALUES oracle pins the v3 metadata path, the
    blosc container round-trip and the grid inference. Scale shape: one
    store per image on worker-local disk; nothing shuffles."""
    import os
    import shutil

    from rasters_ray import codec
    from rasters_ray.sources.zarr_lite import write_zarr, zarr_raster

    out_dir = f"/tmp/rasters_ray_z3_q_{os.getpid()}"

    def roundtrip(t: pa.Table) -> pa.Table:
        os.makedirs(out_dir, exist_ok=True)
        rows = {"image_id": [], "px_sum": [], "x0_cm": [], "y0_cm": []}
        for i in range(t.num_rows):
            iid = t.column("image_id")[i].as_py()
            px = codec.decode(t.column("bytes")[i].as_py(),
                              t.column("fmt")[i].as_py())
            g = t.column("grid")[i].as_py()
            lat = g["y_origin"] + g["cell_height"] * (
                np.arange(g["rows"], dtype=np.float64) + 0.5)
            lon = g["x_origin"] + g["cell_width"] * (
                np.arange(g["cols"], dtype=np.float64) + 0.5)
            p = os.path.join(out_dir, f"{iid}.zarr")
            if os.path.exists(p):
                shutil.rmtree(p)
            write_zarr(p, {
                "lat": {"data": lat, "dims": ["lat"]},
                "lon": {"data": lon, "dims": ["lon"]},
                "temp": {"data": px.astype("<f4"), "dims": ["lat", "lon"]},
            }, chunks=16, zarr_format=3, compressor="blosc")
            arr, g2 = zarr_raster(p, "temp")
            rows["image_id"].append(iid)
            rows["px_sum"].append(int(np.rint(arr.astype(np.float64)).sum()))
            rows["x0_cm"].append(int(np.floor(g2.x_origin * 100.0)))
            rows["y0_cm"].append(int(np.floor(g2.y_origin * 100.0)))
        return pa.table(
            {
                "image_id": pa.array(rows["image_id"], pa.string()),
                "px_sum": pa.array(rows["px_sum"], pa.int64()),
                "x0_cm": pa.array(rows["x0_cm"], pa.int64()),
                "y0_cm": pa.array(rows["y0_cm"], pa.int64()),
            }
        )

    return _images_ds(sf_dir, 2).map_batches(roundtrip, batch_format="pyarrow")


def q_zarr_shard(sf_dir: str):
    """Zarr v3 SHARDING envelope (sources/zarr_lite.py sharding_indexed
    read+write): each oracle image round-trips through a sharded v3
    store on workers — shards=64 with 16-px inner chunks behind a
    CRC-32C'd binary index, gzip inner codec — via zarr_raster's CF
    extraction. Pins the shard index build, the checksum, the nested
    codec chain and the grid inference. Scale shape: one store per
    image on worker-local disk; nothing shuffles."""
    import os
    import shutil

    from rasters_ray import codec
    from rasters_ray.sources.zarr_lite import write_zarr, zarr_raster

    out_dir = f"/tmp/rasters_ray_zsh_q_{os.getpid()}"

    def roundtrip(t: pa.Table) -> pa.Table:
        os.makedirs(out_dir, exist_ok=True)
        rows = {"image_id": [], "px_sum": [], "x0_cm": [], "y0_cm": []}
        for i in range(t.num_rows):
            iid = t.column("image_id")[i].as_py()
            px = codec.decode(t.column("bytes")[i].as_py(),
                              t.column("fmt")[i].as_py())
            g = t.column("grid")[i].as_py()
            lat = g["y_origin"] + g["cell_height"] * (
                np.arange(g["rows"], dtype=np.float64) + 0.5)
            lon = g["x_origin"] + g["cell_width"] * (
                np.arange(g["cols"], dtype=np.float64) + 0.5)
            p = os.path.join(out_dir, f"{iid}.zarr")
            if os.path.exists(p):
                shutil.rmtree(p)
            write_zarr(p, {
                "lat": {"data": lat, "dims": ["lat"]},
                "lon": {"data": lon, "dims": ["lon"]},
                "temp": {"data": px.astype("<f4"), "dims": ["lat", "lon"]},
            }, chunks=16, shards=64, zarr_format=3)
            arr, g2 = zarr_raster(p, "temp")
            rows["image_id"].append(iid)
            rows["px_sum"].append(int(np.rint(arr.astype(np.float64)).sum()))
            rows["x0_cm"].append(int(np.floor(g2.x_origin * 100.0)))
            rows["y0_cm"].append(int(np.floor(g2.y_origin * 100.0)))
        return pa.table(
            {
                "image_id": pa.array(rows["image_id"], pa.string()),
                "px_sum": pa.array(rows["px_sum"], pa.int64()),
                "x0_cm": pa.array(rows["x0_cm"], pa.int64()),
                "y0_cm": pa.array(rows["y0_cm"], pa.int64()),
            }
        )

    return _images_ds(sf_dir, 2).map_batches(roundtrip, batch_format="pyarrow")


def q_tiff_window(sf_dir: str):
    """Windowed GeoTIFF read (sources/geotiff.py::read_geotiff(window=),
    reference Raster.open(window=...) raster.py:634-771): each oracle
    image is written as a tiled BigTIFF ON WORKERS, then ONLY the
    (30,20,40,60) window is read back — intersecting tiles are the only
    bytes decompressed (probe-asserted in tests/test_geotiff.py) and
    the returned GridSpec is shifted to the window corner. The golden
    VALUES oracle pins the window's exact pixel sum and floor-cm
    origin. Scale shape: one file per image on worker-local disk; the
    read I/O is proportional to the WINDOW, not the raster."""
    import os

    from rasters_ray import codec
    from rasters_ray.grids import GridSpec
    from rasters_ray.sources.geotiff import write_geotiff
    from rasters_ray.sources.open import open_raster

    out_dir = f"/tmp/rasters_ray_tw_q_{os.getpid()}"

    def roundtrip(t: pa.Table) -> pa.Table:
        os.makedirs(out_dir, exist_ok=True)
        rows = {"image_id": [], "px_sum": [], "x0_cm": [], "y0_cm": []}
        for i in range(t.num_rows):
            iid = t.column("image_id")[i].as_py()
            px = codec.decode(t.column("bytes")[i].as_py(),
                              t.column("fmt")[i].as_py())
            g = t.column("grid")[i].as_py()
            grid = GridSpec(crs=g["crs"], x_origin=g["x_origin"],
                            y_origin=g["y_origin"],
                            cell_width=g["cell_width"],
                            cell_height=g["cell_height"],
                            rows=g["rows"], cols=g["cols"])
            p = os.path.join(out_dir, f"{iid}.tif")
            write_geotiff(px, grid, p, layout="tiles", tile=32,
                          overviews=False, bigtiff=True)
            arr, g2 = open_raster(p, window=(30, 20, 40, 60))
            rows["image_id"].append(iid)
            rows["px_sum"].append(int(np.rint(arr.astype(np.float64)).sum()))
            rows["x0_cm"].append(int(np.floor(g2.x_origin * 100.0)))
            rows["y0_cm"].append(int(np.floor(g2.y_origin * 100.0)))
        return pa.table(
            {
                "image_id": pa.array(rows["image_id"], pa.string()),
                "px_sum": pa.array(rows["px_sum"], pa.int64()),
                "x0_cm": pa.array(rows["x0_cm"], pa.int64()),
                "y0_cm": pa.array(rows["y0_cm"], pa.int64()),
            }
        )

    return _images_ds(sf_dir, 2).map_batches(roundtrip, batch_format="pyarrow")


def q_winnow_fp(sf_dir: str):
    """Winnowing document fingerprints (text/winnow.py, Schleimer et al.
    2003): rolling k-gram hash + rightmost-window-min selection, one row
    per fingerprint. Per-document compute (nothing shuffles); value-
    exact golden oracle from the sequential reference (wrapping-uint64
    hashes are platform- and layout-independent by construction)."""
    from rasters_ray.text.winnow import winnow_fingerprints

    return winnow_fingerprints(_read(sf_dir, "documents", ["doc_id", "text"]))


def _winnow_golden_path() -> str:
    """Golden (doc_id, pos, fp) rows for ``winnow_fp`` from the
    sequential winnow_local reference, fingerprinted by SUM(length(text))."""
    import os

    import pyarrow.parquet as pqm

    from rasters_ray.text.winnow import winnow_local

    def per_dir(d):
        f = f"{d}/documents.parquet"
        if not os.path.exists(f):
            return None
        tab = pqm.read_table(f, columns=["doc_id", "text"])
        texts = tab.column("text").to_pylist()
        cfp = sum(len(x or "") for x in texts)
        out = {"corpus_fp": [], "doc_id": [], "pos": [], "fp": []}
        for did, p, fp in winnow_local(texts, tab.column("doc_id").to_pylist()):
            out["corpus_fp"].append(cfp)
            out["doc_id"].append(did)
            out["pos"].append(p)
            out["fp"].append(fp)
        return out

    return _golden(
        "winnow_golden_v1.parquet",
        {"corpus_fp": pa.int64(), "doc_id": pa.int64(), "pos": pa.int64(),
         "fp": pa.int64()},
        per_dir,
    )

def q_dup_substrings(sf_dir: str):
    """Cross-document duplicated substring SPANS with byte offsets
    (text/winnow.py::duplicate_spans — the k-gram inverted-index
    approximation of exact substring dedup; complements the word-8-gram
    counting query ``dup_spans``): two shuffles, vectorized partition
    scans, golden sequential oracle."""
    from rasters_ray.text.winnow import duplicate_spans

    return duplicate_spans(
        _read(sf_dir, "documents", ["doc_id", "text"]), k=20, min_docs=2
    )


def _dupspans_golden_path() -> str:
    """Golden (doc_id, start, end, n_grams) rows for ``dup_substrings``
    from the sequential duplicate_spans_local reference."""
    import os

    import pyarrow.parquet as pqm

    from rasters_ray.text.winnow import duplicate_spans_local

    def per_dir(d):
        f = f"{d}/documents.parquet"
        if not os.path.exists(f):
            return None
        tab = pqm.read_table(f, columns=["doc_id", "text"])
        texts = tab.column("text").to_pylist()
        cfp = sum(len(x or "") for x in texts)
        out = {"corpus_fp": [], "doc_id": [], "start": [], "end": [],
               "n_grams": []}
        for did, st, en, n in duplicate_spans_local(
            texts, tab.column("doc_id").to_pylist(), k=20, min_docs=2
        ):
            out["corpus_fp"].append(cfp)
            out["doc_id"].append(did)
            out["start"].append(st)
            out["end"].append(en)
            out["n_grams"].append(n)
        return out

    return _golden(
        "dupspans_golden_v1.parquet",
        {"corpus_fp": pa.int64(), "doc_id": pa.int64(), "start": pa.int64(),
         "end": pa.int64(), "n_grams": pa.int64()},
        per_dir,
    )

def _annapprox_golden_path() -> str:
    """Golden (algo, query_idx, rank, vec_id, score) rows for lsh_ann /
    ivf_ann from the sequential references (same bucket/probe kernels,
    same fixed-order float64 scoring; bit-equality asserted in
    tests/test_ann.py). Fingerprinted by lineitem count (embeddings
    COUNT(*) collides across sf dirs)."""
    import os

    import pyarrow.parquet as pqm

    from rasters_ray.ann.search import ivf_topk_local, lsh_topk_local

    def per_dir(d):
        got = _emb_fixture(d)
        if got is None:
            return None
        vid, x, fp = got
        q = x[:4].astype(np.float64)
        out = {"fp": [], "algo": [], "query_idx": [], "rank": [],
               "vec_id": [], "score": []}
        for algo, res in (
            ("lsh", lsh_topk_local(x, vid, q, k=5, n_planes=6)),
            ("ivf", ivf_topk_local(x, vid, q, k=5, n_centroids=16, nprobe=6,
                                   iters=2)),
        ):
            for qi, rank, v, sc in res:
                out["fp"].append(fp)
                out["algo"].append(algo)
                out["query_idx"].append(qi)
                out["rank"].append(rank)
                out["vec_id"].append(v)
                out["score"].append(sc)
        return out

    return _golden(
        "annapprox_golden_v1.parquet",
        {"fp": pa.int64(), "algo": pa.string(), "query_idx": pa.int64(),
         "rank": pa.int64(), "vec_id": pa.int64(), "score": pa.float64()},
        per_dir,
    )

def _emb_fixture(sf_dir: str):
    """(vec_id, float32 matrix, lineitem-count fingerprint) for the
    embeddings-based golden builders — embeddings COUNT(*) collides
    between sf dirs, so the fingerprint is the lineitem row count."""
    import os

    import pyarrow.parquet as pqm

    f = f"{sf_dir}/embeddings.parquet"
    if not os.path.exists(f):
        return None
    tab = pqm.read_table(f, columns=["vec_id", "embedding"])
    vid = tab.column("vec_id").to_numpy()
    x = np.stack([np.asarray(r, dtype=np.float32)
                  for r in tab.column("embedding").to_pylist()])
    fp = pqm.ParquetFile(f"{sf_dir}/lineitem.parquet").metadata.num_rows
    return vid, x, fp


def _pqann_golden_path() -> str:
    """Golden (query_idx, rank, vec_id, dist) rows for ``pq_ann`` from
    the sequential pq_topk_local reference — valid since round 4's
    GLOBAL (adc, vec_id) shortlist cut (bit-equality asserted in
    tests/test_pq.py)."""
    import os

    import pyarrow.parquet as pqm

    from rasters_ray.ann.pq import pq_topk_local

    def per_dir(d):
        got = _emb_fixture(d)
        if got is None:
            return None
        vid, x, fp = got
        res = pq_topk_local(x, vid, x[:4].astype(np.float32), k_results=10,
                            m_subspaces=4, n_codes=16, iters=4)
        out = {"fp": [], "query_idx": [], "rank": [], "vec_id": [], "dist": []}
        for qi, rank, v, dist in res:
            out["fp"].append(fp)
            out["query_idx"].append(qi)
            out["rank"].append(rank)
            out["vec_id"].append(v)
            out["dist"].append(dist)
        return out

    return _golden(
        "pqann_golden_v1.parquet",
        {"fp": pa.int64(), "query_idx": pa.int64(), "rank": pa.int64(),
         "vec_id": pa.int64(), "dist": pa.float64()},
        per_dir,
    )


def _cosnear_golden_path() -> str:
    """Golden (a, b, cosine) rows for ``cosine_near`` from the
    sequential cosine_near_dups_local reference over the SAME planted
    corpus (bucket membership and pair cosines are fixed-order einsum —
    bit-stable for any group row order)."""
    import os

    import pyarrow.parquet as pqm

    from rasters_ray.ann.search import cosine_near_dups_local

    def per_dir(d):
        got = _emb_fixture(d)
        if got is None:
            return None
        vid, x, fp = got
        ids = list(vid)
        planted = []
        for i in np.flatnonzero(vid < 20):
            rng = np.random.default_rng(int(vid[i]))
            planted.append(
                x[i] + 0.01 * rng.standard_normal(x.shape[1]).astype(np.float32)
            )
            ids.append(int(100000 + vid[i]))
        full = np.vstack([x] + [p[None] for p in planted])
        out = {"fp": [], "a": [], "b": [], "cosine": []}
        for a, b, c in cosine_near_dups_local(full, ids, threshold=0.95):
            out["fp"].append(fp)
            out["a"].append(int(a))
            out["b"].append(int(b))
            out["cosine"].append(float(c))
        return out

    return _golden(
        "cosnear_golden_v1.parquet",
        {"fp": pa.int64(), "a": pa.int64(), "b": pa.int64(),
         "cosine": pa.float64()},
        per_dir,
    )

def _kmeans_golden_path() -> str:
    """Golden (vec_id, cluster) rows for ``cluster_assign`` from the
    sequential fixed-point k-means reference (kmeans_local + the same
    normalize/_dot64-argmax assignment as kmeans_assign)."""
    import os

    import pyarrow.parquet as pqm

    from rasters_ray.ann.search import _dot64, _normalize, kmeans_local

    def per_dir(d):
        got = _emb_fixture(d)
        if got is None:
            return None
        vid, x, fp = got
        cents = _normalize(np.asarray(kmeans_local(x, 8, iters=3),
                                      dtype=np.float32))
        cluster = np.argmax(_dot64(_normalize(x.astype(np.float32)), cents),
                            axis=1)
        return {"fp": [fp] * len(vid), "vec_id": vid.tolist(),
                "cluster": cluster.tolist()}

    return _golden(
        "kmeans_golden_v1.parquet",
        {"fp": pa.int64(), "vec_id": pa.int64(), "cluster": pa.int64()},
        per_dir,
    )

def _pq_golden_path() -> str:
    """Golden (vec_id, m, code) rows for ``pq_codes`` from the
    sequential fixed-point PQ reference (pq_train_local + the shared
    ``_assign`` kernel)."""
    import os

    import pyarrow.parquet as pqm

    from rasters_ray.ann.pq import _assign, pq_train_local

    def per_dir(d):
        got = _emb_fixture(d)
        if got is None:
            return None
        vid, x, fp = got
        books = pq_train_local(x, m_subspaces=4, k=16, iters=4)
        ds_ = x.shape[1] // 4
        out = {"fp": [], "vec_id": [], "m": [], "code": []}
        for m in range(4):
            codes = _assign(x[:, m * ds_ : (m + 1) * ds_], books[m])
            out["fp"].extend([fp] * len(vid))
            out["vec_id"].extend(vid.tolist())
            out["m"].extend([m] * len(vid))
            out["code"].extend(codes.tolist())
        return out

    return _golden(
        "pq_golden_v1.parquet",
        {"fp": pa.int64(), "vec_id": pa.int64(), "m": pa.int64(),
         "code": pa.int64()},
        per_dir,
    )

def q_pq_ann(sf_dir: str):
    """PQ-ADC ANN search (ann/pq.py::pq_topk): code-only shortlist via
    broadcast lookup tables, exact rerank of the shortlist — the
    IVF-PQ deployment pattern.  Value-exact golden oracle as of round 4:
    the shortlist cut is GLOBAL by (adc, vec_id) total order (pass 1
    ships tie-inclusive per-batch ADC partials; pass 2 reranks only the
    broadcast shortlist ids), so the result is bit-equal to
    pq_topk_local at any block layout (tests/test_pq.py); shortlist
    recall is also asserted."""
    import pyarrow.parquet as pq_mod

    from rasters_ray.ann.pq import pq_topk

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    emb = pq_mod.read_table(
        f"{sf_dir}/embeddings.parquet", columns=["embedding"]
    )
    qm = np.stack(
        [np.asarray(emb.column("embedding")[i].as_py()) for i in range(4)]
    )
    # iters pinned explicitly: the golden oracle trains with iters=4, so
    # the query must not float on pq_topk's default
    return pq_topk(ds, qm, k_results=10, m_subspaces=4, n_codes=16, iters=4)


def q_knn_join(sf_dir: str):
    """kNN JOIN: every point gets its 3 nearest image centers (squared
    planar distance, ties by image id) — broadcast centers, one
    vectorized distance matrix + argpartition per batch; the k-NN
    generalization of the 1-NN swath lookup.  Oracle: cross join +
    row_number window."""
    K = 3

    def centers():
        d = np.arange(N_IMG_TILE, dtype=np.int64)
        x0 = -124.0 + (d % 16) * 0.5
        y0 = 44.0 - ((d // 16) % 16) * 0.5
        return d, x0 + 0.5, y0 - 0.5  # footprint centers (1 x 1 deg)

    cd, cx, cy = centers()

    def knn(t: pa.Table) -> pa.Table:
        px = t.column("x").to_numpy(zero_copy_only=False)
        py = t.column("y").to_numpy(zero_copy_only=False)
        pid = np.asarray(t.column("point_id").to_pylist(), dtype=object)
        dx = px[:, None] - cx[None, :]
        dy = py[:, None] - cy[None, :]
        d2 = dx * dx + dy * dy
        # rank by (d2, image d): lexsort per row via argsort over structured
        order = np.lexsort((np.broadcast_to(cd, d2.shape), d2), axis=1)[:, :K]
        n = len(px)
        rows_p = np.repeat(pid, K)
        rows_rank = np.tile(np.arange(1, K + 1, dtype=np.int64), n)
        sel = order.ravel()
        return pa.table(
            {
                "point_id": pa.array(rows_p, pa.string()),
                "rank": pa.array(rows_rank, pa.int64()),
                "image_id": pa.array(
                    [f"img{int(v):08d}" for v in cd[sel]], pa.string()
                ),
                "d2": pa.array(
                    d2[np.repeat(np.arange(n), K), sel], pa.float64()
                ),
            }
        )

    return _points_ds(sf_dir).map_batches(knn, batch_format="pyarrow")


def q_retention(sf_dir: str):
    """Cohort retention: users grouped by their FIRST-activity day,
    counted distinct per (cohort_day, age_days).  Two grouped stages —
    per-user first day (one ``exchange`` by user, vectorized min per
    partition), then distinct (user, day) activity joined to cohorts and
    reduced — all integer day arithmetic."""
    from ray.data.aggregate import Sum

    from rasters_ray.util import exchange, run_starts

    def per_user(group: pa.Table) -> pa.Table:
        u = group.column("user_id").to_numpy(zero_copy_only=False).astype(np.int64)
        ts = group.column("ts").cast(pa.int64()).to_numpy()
        day = ts // (_ts_unit(group.column("ts").type) * 86400)
        # distinct (user, day) + per-user first day in one lexsort
        order = np.lexsort((day, u))
        uo, do = u[order], day[order]
        pairs = run_starts(uo, do)
        uo, do = uo[pairs], do[pairs]
        starts = run_starts(uo)
        first = np.repeat(do[starts], np.diff(np.r_[starts, len(uo)]))
        return pa.table(
            {
                "cohort_day": pa.array(first, pa.int64()),
                "age_days": pa.array(do - first, pa.int64()),
                "n": pa.array(np.ones(len(uo), np.int64), pa.int64()),
            }
        )

    return (
        exchange(_read(sf_dir, "events", ["user_id", "ts"]), "user_id", per_user)
        .groupby(["cohort_day", "age_days"])
        .aggregate(Sum("n", alias_name="n_users"))
    )


def q_embedding_bounds(sf_dir: str):
    """Per-dimension feature-scaling bounds over the embedding column:
    one streaming pass of per-batch column-wise min/max partials (order-
    independent, so exact — float SUMS across blocks would not be), tiny
    per-dim reduce."""
    from rasters_ray.ann.search import _batch_matrix

    def partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table(
                {
                    "dim": pa.array([], pa.int64()),
                    "n": pa.array([], pa.int64()),
                    "vmin": pa.array([], pa.float64()),
                    "vmax": pa.array([], pa.float64()),
                }
            )
        m = _batch_matrix(t, "embedding").astype(np.float64)
        d = m.shape[1]
        return pa.table(
            {
                "dim": pa.array(np.arange(d, dtype=np.int64), pa.int64()),
                "n": pa.array(np.full(d, len(m), np.int64), pa.int64()),
                "vmin": pa.array(m.min(axis=0), pa.float64()),
                "vmax": pa.array(m.max(axis=0), pa.float64()),
            }
        )

    def final(group: pa.Table) -> pa.Table:
        return pa.table(
            {
                "dim": pa.array([group.column("dim")[0].as_py()], pa.int64()),
                "n": pa.array(
                    [int(group.column("n").to_numpy().sum())], pa.int64()
                ),
                "vmin": pa.array(
                    [float(group.column("vmin").to_numpy().min())], pa.float64()
                ),
                "vmax": pa.array(
                    [float(group.column("vmax").to_numpy().max())], pa.float64()
                ),
            }
        )

    return (
        _read(sf_dir, "embeddings", ["embedding"])
        .map_batches(partial, batch_format="pyarrow")
        .groupby("dim")
        .map_groups(final, batch_format="pyarrow")
    )


def q_orders_by_month(sf_dir: str):
    """Calendar reporting (the engine's date-function surface): orders
    bucketed by civil (year, month) — timestamps -> numpy datetime64
    month codes, vectorized; counts + floor-cents sums combiner-first."""
    from ray.data.aggregate import Sum

    def partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table(
                {
                    "year": pa.array([], pa.int64()),
                    "month": pa.array([], pa.int64()),
                    "n": pa.array([], pa.int64()),
                    "sum_cents": pa.array([], pa.int64()),
                }
            )
        us = t.column("o_orderdate").cast(pa.timestamp("us")).cast(pa.int64())
        m64 = us.to_numpy().astype("datetime64[us]").astype("datetime64[M]")
        months = m64.astype(np.int64)  # months since 1970-01
        cents = np.floor(
            t.column("o_totalprice").to_numpy(zero_copy_only=False) * 100.0
        ).astype(np.int64)
        uniq, inv = np.unique(months, return_inverse=True)
        n = np.bincount(inv).astype(np.int64)
        s = np.zeros(len(uniq), np.int64)
        np.add.at(s, inv, cents)
        return pa.table(
            {
                "year": pa.array(1970 + uniq // 12, pa.int64()),
                "month": pa.array(1 + uniq % 12, pa.int64()),
                "n": pa.array(n, pa.int64()),
                "sum_cents": pa.array(s, pa.int64()),
            }
        )

    return (
        _read(sf_dir, "orders", ["o_orderdate", "o_totalprice"])
        .map_batches(partial, batch_format="pyarrow")
        .groupby(["year", "month"])
        .aggregate(Sum("n", alias_name="n_orders"), Sum("sum_cents", alias_name="revenue_cents"))
    )


def q_percent_rank(sf_dir: str):
    """Rank-based feature normalization: PERCENT_RANK of value within
    each event_type — per-partition sorted arrays + two searchsorted
    calls give tie-sharing ranks for every row at once; the final ratio
    is an exact int/int divide both engines round identically."""
    from rasters_ray.util import exchange

    def pr(group: pa.Table) -> pa.Table:
        et = np.asarray(group.column("event_type").to_pylist(), dtype=object)
        v = group.column("value").to_numpy(zero_copy_only=False).astype(np.float64)
        eid = group.column("event_id").to_numpy(zero_copy_only=False)
        out = np.empty(len(v), np.float64)
        for ty in np.unique(et):
            m = et == ty
            vals = np.sort(v[m])
            n = int(m.sum())
            rank = np.searchsorted(vals, v[m], side="left") + 1
            out[m] = (rank - 1) / (n - 1) if n > 1 else 0.0
        return pa.table(
            {
                "event_id": pa.array(eid, pa.int64()),
                "pr": pa.array(out, pa.float64()),
            }
        )

    # each type wholly in one partition
    events = _read(sf_dir, "events", ["event_id", "event_type", "value"])
    return exchange(events, "event_type", pr)


def q_pushdown_scan(sf_dir: str):
    """Predicate pushdown at the SCAN: the filter is a pyarrow dataset
    expression evaluated inside the parquet fragment reader (row-group
    stats can skip whole groups before decode) — rows never enter the
    pipeline; downstream is a two-column combiner reduce."""
    import pyarrow.dataset as pds

    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "orders", ["o_orderpriority", "o_totalprice"],
               filter=(pds.field("o_totalprice") > 450000.0))

    def partial(t: pa.Table) -> pa.Table:
        p = np.asarray(t.column("o_orderpriority").to_pylist(), dtype=object)
        cents = np.floor(
            t.column("o_totalprice").to_numpy(zero_copy_only=False) * 100.0
        ).astype(np.int64)
        uniq, inv = np.unique(p, return_inverse=True)
        n = np.bincount(inv).astype(np.int64)
        s = np.zeros(len(uniq), np.int64)
        np.add.at(s, inv, cents)
        return pa.table(
            {
                "o_orderpriority": pa.array(uniq, pa.string()),
                "n": pa.array(n, pa.int64()),
                "c": pa.array(s, pa.int64()),
            }
        )

    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("o_orderpriority")
        .aggregate(Sum("n", alias_name="n_orders"),
                   Sum("c", alias_name="sum_cents"))
    )


def q_edit_near(sf_dir: str):
    """Edit-distance near-join (unit-cost Levenshtein) over docs 0..31:
    the pair list is exploded into a Dataset and each map task computes
    its pairs' distances with a row-vectorized numpy DP (O(len) numpy
    ops per DP row, never per cell in Python).  Small-subset scope for
    the all-pairs oracle — candidate generation at scale reuses the
    prefix-filter machinery (text/setjoin.py)."""
    import itertools

    import pyarrow.parquet as pqm
    import ray
    import ray.data as rd

    from rasters_ray.util import fetch

    tab = pqm.read_table(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    ).filter(pa.compute.less(pa.compute.field("doc_id"), 32))
    texts = dict(zip(tab.column("doc_id").to_pylist(), tab.column("text").to_pylist()))
    tref = ray.put(texts)
    pairs = list(itertools.combinations(sorted(texts), 2))
    pair_ds = rd.from_arrow(
        pa.table(
            {
                "a": pa.array([p[0] for p in pairs], pa.int64()),
                "b": pa.array([p[1] for p in pairs], pa.int64()),
            }
        )
    ).repartition(8)

    def lev(s: str, t: str) -> int:
        """Row-vectorized Wagner-Fischer.  The left-to-right insertion
        dependency closes with one min-accumulate:
        cur[j] = min_{k<=j}(cand[k] + (j-k)) = j + cummin(cand - idx)[j],
        where cand[j] = min(prev[j-1]+sub_cost, prev[j]+1), cand[0]=i+1."""
        if len(s) < len(t):
            s, t = t, s
        # CODE POINTS, not utf-8 bytes: DuckDB's levenshtein() is
        # character-level, and the two diverge on any non-ASCII text
        tb = np.frombuffer(t.encode("utf-32-le"), dtype=np.uint32)
        sb = np.frombuffer(s.encode("utf-32-le"), dtype=np.uint32)
        m = len(tb)
        prev = np.arange(m + 1, dtype=np.int64)
        idx = np.arange(m + 1, dtype=np.int64)
        cand = np.empty(m + 1, np.int64)
        for i, ch in enumerate(sb):
            cand[0] = i + 1
            np.minimum(prev[:-1] + (tb != ch), prev[1:] + 1, out=cand[1:])
            prev = np.minimum.accumulate(cand - idx) + idx
        return int(prev[-1])

    def compute(t: pa.Table) -> pa.Table:
        tx = fetch(tref)
        a = t.column("a").to_numpy(zero_copy_only=False)
        b = t.column("b").to_numpy(zero_copy_only=False)
        d = np.array(
            [lev(tx[int(x)] or "", tx[int(y)] or "") for x, y in zip(a, b)],
            np.int64,
        )
        keep = d <= 220
        return pa.table(
            {
                "a": pa.array(a[keep], pa.int64()),
                "b": pa.array(b[keep], pa.int64()),
                "dist": pa.array(d[keep], pa.int64()),
            }
        )

    return pair_ds.map_batches(compute, batch_format="pyarrow")


def q_session_conversion(sf_dir: str):
    """Sessionized conversion: per user, how many 30-min-gap sessions
    contain a purchase AFTER a view (strict ts order within the
    session).  One ``exchange`` by user; sessions, per-session first
    view, and the view-before-purchase test are all reduceat
    vectorized — no per-session Python loop."""
    from rasters_ray.util import exchange, run_starts

    GAP = 1800

    def conv(group: pa.Table) -> pa.Table:
        u = group.column("user_id").to_numpy(zero_copy_only=False).astype(np.int64)
        tcol = group.column("ts")
        s = tcol.cast(pa.int64()).to_numpy() // _ts_unit(tcol.type)
        et = group.column("event_type").to_numpy(zero_copy_only=False)
        order = np.lexsort((s, u))
        us, ss, es = u[order], s[order], et[order]
        # a session breaks at a new user or a gap (the gap count only rises)
        sess_starts = run_starts(us, np.cumsum(np.diff(ss, prepend=ss[:1]) > GAP))
        INF = np.int64(1) << 62
        # first view ts per session, broadcast back per row
        tv = np.where(es == "view", ss, INF)
        first_view = np.minimum.reduceat(tv, sess_starts)
        fv_row = np.repeat(first_view, np.diff(np.r_[sess_starts, len(ss)]))
        converted_row = (es == "purchase") & (ss > fv_row)
        sess_conv = np.logical_or.reduceat(converted_row, sess_starts)
        # reduce sessions per user
        sess_user = us[sess_starts]
        uu, uinv = np.unique(sess_user, return_inverse=True)
        n_per_user = np.bincount(uinv).astype(np.int64)
        n_conv = np.bincount(uinv, weights=sess_conv).astype(np.int64)
        return pa.table(
            {
                "user_id": pa.array(uu, pa.int64()),
                "n_sessions": pa.array(n_per_user, pa.int64()),
                "n_converting": pa.array(n_conv, pa.int64()),
            }
        )

    return exchange(_read(sf_dir, "events", ["user_id", "ts", "event_type"]), "user_id", conv)


def q_cooccurrence(sf_dir: str):
    """Market-basket co-occurrence: part pairs appearing in the same
    order >= 3 times.  One ``exchange`` by ORDER (each order's pairs
    generated wholly in one task, vectorized triu over order runs),
    pair counts pre-reduced per partition, one ``exchange`` by the packed
    pair key to the global count, threshold cut.  Oracle: lineitem
    self-join."""
    from rasters_ray.util import exchange, run_starts

    MIN_N = 3

    def pairs(group: pa.Table) -> pa.Table:
        o = group.column("l_orderkey").to_numpy(zero_copy_only=False).astype(np.int64)
        p = group.column("l_partkey").to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.lexsort((p, o))
        oo, pp = o[order], p[order]
        max_m = int(np.diff(np.r_[run_starts(oo), len(oo)]).max(initial=0))
        out_a: list = []
        out_b: list = []
        # shift trick: pairs at in-run distance s, one vectorized pass per
        # s (orders have <= ~7 lineitems, so <= 6 passes — never a
        # per-order Python loop)
        for s in range(1, max_m):
            same = oo[:-s] == oo[s:]
            a, b = pp[:-s][same], pp[s:][same]
            keep = a != b  # strict pa < pb (runs sorted ascending)
            out_a.append(a[keep])
            out_b.append(b[keep])
        if not out_a or not sum(len(x) for x in out_a):
            return pa.table(
                {
                    "key": pa.array([], pa.int64()),
                    "n": pa.array([], pa.int64()),
                }
            )
        a = np.concatenate(out_a)
        b = np.concatenate(out_b)
        key = a * np.int64(1 << 31) + b  # partkeys < 2^31
        uniq, counts = np.unique(key, return_counts=True)
        return pa.table(
            {
                "key": pa.array(uniq, pa.int64()),
                "n": pa.array(counts.astype(np.int64), pa.int64()),
            }
        )

    def final(group: pa.Table) -> pa.Table:
        k = group.column("key").to_numpy(zero_copy_only=False)
        n = group.column("n").to_numpy(zero_copy_only=False)
        uniq, inv = np.unique(k, return_inverse=True)
        s = np.zeros(len(uniq), np.int64)
        np.add.at(s, inv, n)
        keep = s >= MIN_N
        uniq, s = uniq[keep], s[keep]
        return pa.table(
            {
                "part_a": pa.array(uniq // (1 << 31), pa.int64()),
                "part_b": pa.array(uniq % (1 << 31), pa.int64()),
                "n": pa.array(s, pa.int64()),
            }
        )

    lineitem = _read(sf_dir, "lineitem", ["l_orderkey", "l_partkey"])
    return exchange(exchange(lineitem, "l_orderkey", pairs), "key", final)


def q_weighted_quantiles(sf_dir: str):
    """Quantity-weighted price quantiles (weighted percentile_disc: the
    smallest price whose cumulative quantity reaches ceil(q*W)) — the
    weighted sibling of `quantiles`, same no-sort histogram narrowing.
    Oracle: value-level cumulative weight window."""
    from rasters_ray.relational.aggregates import weighted_exact_quantiles

    return weighted_exact_quantiles(
        _read(sf_dir, "lineitem", ["l_extendedprice", "l_quantity"]),
        "l_extendedprice",
        "l_quantity",
        [0.25, 0.5, 0.75, 0.9],
    )


def queries() -> dict[str, Callable[[str], Any]]:
    return {
        "point_index": q_point_index,
        "point_cell_key": q_point_cell_key,
        "window_subset": q_window_subset,
        "tile_assign": q_tile_assign,
        "tile_windows": q_tile_windows,
        "merge_mean": q_merge_mean,
        "mosaic_first": q_mosaic_first,
        "mosaic_best": q_mosaic_best,
        "resample_nearest": q_resample_nearest,
        "resample_sum": q_resample_sum,
        "resample_max": q_resample_max,
        "warp_bands": q_warp_bands,
        "knn_resample": q_knn_resample,
        "window_buffer": q_window_buffer,
        "pixel_centroids": q_pixel_centroids,
        "antimeridian": q_antimeridian,
        "rasterize_box": q_rasterize_box,
        "zonal_stats": q_zonal_stats,
        "zonal_majority": q_zonal_majority,
        "hotspots": q_hotspots,
        "lisa": q_lisa,
        "variogram": q_variogram,
        "trend": q_trend,
        "geomorphons": q_geomorphons,
        "cutfill": q_cutfill,
        "block_flow": q_block_flow,
        "harris": q_harris,
        "fast_corners": q_fast_corners,
        "crosstab": q_crosstab,
        "qa_bitmask": q_qa_bitmask,
        "nd_index": q_nd_index,
        "aspect": q_aspect,
        "median_composite": q_median_composite,
        "pixel_trend": q_pixel_trend,
        "mann_kendall": q_mann_kendall,
        "theil_sen": q_theil_sen,
        "rle_profile": q_rle_profile,
        "hypsometric": q_hypsometric,
        "seam_energy": q_seam_energy,
        "clark_evans": q_clark_evans,
        "expand": q_expand,
        "audio_features": q_audio_features,
        "events_sessions": q_events_sessions,
        "image_footprint_join": q_image_footprint_join,
        "trim": q_trim,
        "merge_grids": q_merge_grids,
        "local_utm": q_local_utm,
        "swath_nearest": q_swath_nearest,
        "pip_boxes": q_pip_boxes,
        "dedup_exact": q_dedup_exact,
        "token_stats": q_token_stats,
        "ngram_jaccard": q_ngram_jaccard,
        "heavy_hitters": q_heavy_hitters,
        "quality": q_quality,
        "multimodal_decode": q_multimodal_decode,
        "multimodal_resize": q_multimodal_resize,
        "jpeg_render": q_jpeg_render,
        "cmap_render": q_cmap_render,
        "fill_from": q_fill_from,
        "events_window": q_events_window,
        "ann_topk": q_ann_topk,
        "late_interaction": q_late_interaction,
        "rank_fusion": q_rank_fusion,
        "pricing_summary": q_pricing_summary,
        "segment_revenue": q_segment_revenue,
        "region_revenue": q_region_revenue,
        "events_asof": q_events_asof,
        "interval_events": q_interval_events,
        "topk_orders": q_topk_orders,
        "skyline": q_skyline,
        "interval_merge": q_interval_merge,
        "transitions": q_transitions,
        "pearson": q_pearson,
        "spearman": q_spearman,
        "kendall_tau": q_kendall_tau,
        "mann_whitney": q_mann_whitney,
        "emd": q_emd,
        "roc": q_roc,
        "kruskal": q_kruskal,
        "dtw": q_dtw,
        "chi_square": q_chi_square,
        "hog_cells": q_hog_cells,
        "multi_pattern": q_multi_pattern,
        "bm25": q_bm25,
        "canny": q_canny,
        "haar_energy": q_haar_energy,
        "quadtree": q_quadtree,
        "adaptive_thresh": q_adaptive_thresh,
        "euler": q_euler,
        "dither": q_dither,
        "dbscan": q_dbscan,
        "kappa": q_kappa,
        "cramers_v": q_cramers_v,
        "gk_lambda": q_gk_lambda,
        "geohash": q_geohash,
        "triangles": q_triangles,
        "trigrams": q_trigrams,
        "edge_jaccard": q_edge_jaccard,
        "pagerank": q_pagerank,
        "cusum": q_cusum,
        "runs_test": q_runs_test,
        "mad": q_mad,
        "gini": q_gini,
        "ntile": q_ntile,
        "benford": q_benford,
        "ks_test": q_ks_test,
        "acf_lag": q_acf_lag,
        "quantiles": q_quantiles,
        "repetition": q_repetition,
        "salient_terms": q_salient_terms,
        "pixel_histogram": q_pixel_histogram,
        "image_moments": q_image_moments,
        "focal_halo": q_focal_halo,
        "pyramid": q_pyramid,
        "terrain": q_terrain,
        "bloom_semi": q_bloom_semi,
        "zorder_buckets": q_zorder_buckets,
        "hilbert": q_hilbert,
        "components": q_components,
        "label_components": q_label_components,
        "morphology": q_morphology,
        "hash_split": q_hash_split,
        "events_sliding": q_events_sliding,
        "distinct_users": q_distinct_users,
        "stratified_sample": q_stratified_sample,
        "grouped_quantiles": q_grouped_quantiles,
        "events_pivot": q_events_pivot,
        "orders_anti": q_orders_anti,
        "user_running": q_user_running,
        "events_rollup": q_events_rollup,
        "props_stats": q_props_stats,
        "augment": q_augment,
        "normalize": q_normalize,
        "curation": q_curation,
        "token_pack": q_token_pack,
        "forward_fill": q_forward_fill,
        "setjoin": q_setjoin,
        "range_partition": q_range_partition,
        "winsorize": q_winsorize,
        "weighted_sample": q_weighted_sample,
        "hillshade": q_hillshade,
        "funnel": q_funnel,
        "bigram_coverage": q_bigram_coverage,
        "decontaminate": q_decontaminate,
        "proximity": q_proximity,
        "streaming_dedup": q_streaming_dedup,
        "chunk_spans": q_chunk_spans,
        "set_except": q_set_except,
        "set_intersect": q_set_intersect,
        "events_cube": q_events_cube,
        "dup_spans": q_dup_spans,
        "band_join": q_band_join,
        "inter_arrival": q_inter_arrival,
        "user_fill": q_user_fill,
        "hist_equalize": q_hist_equalize,
        "bpe_tokens": q_bpe_tokens,
        "focal_median": q_focal_median,
        "priority_semi": q_priority_semi,
        "data_mix": q_data_mix,
        "box_overlay": q_box_overlay,
        "analyze": q_analyze,
        "dup_clusters": q_dup_clusters,
        "knn_join": q_knn_join,
        "retention": q_retention,
        "embedding_bounds": q_embedding_bounds,
        "orders_by_month": q_orders_by_month,
        "percent_rank": q_percent_rank,
        "pushdown_scan": q_pushdown_scan,
        "edit_near": q_edit_near,
        "session_conversion": q_session_conversion,
        "cooccurrence": q_cooccurrence,
        "weighted_quantiles": q_weighted_quantiles,
        # rows-only (no SQL equivalent)
        "approx_distinct": q_approx_distinct,
        "pca": q_pca,
        "sketch_quantiles": q_sketch_quantiles,
        "bpe_merges": q_bpe_merges,
        "pq_codes": q_pq_codes,
        "pq_ann": q_pq_ann,
        "cluster_assign": q_cluster_assign,
        "winnow_fp": q_winnow_fp,
        "geoimage_write": q_geoimage_write,
        "dup_substrings": q_dup_substrings,
        "zarr_tiles": q_zarr_tiles,
        "strip_tiff": q_strip_tiff,
        "rgb_tiff": q_rgb_tiff,
        "gpkg_roundtrip": q_gpkg_roundtrip,
        "asc_roundtrip": q_asc_roundtrip,
        "hgt_roundtrip": q_hgt_roundtrip,
        "bil_roundtrip": q_bil_roundtrip,
        "shp_roundtrip": q_shp_roundtrip,
        "geoparquet_roundtrip": q_geoparquet_roundtrip,
        "geom_stats": q_geom_stats,
        "vec_reproject": q_vec_reproject,
        "poly_join": q_poly_join,
        "clip_area": q_clip_area,
        "polygonize": q_polygonize,
        "nearest_join": q_nearest_join,
        "geodesic_near": q_geodesic_near,
        "cell_area": q_cell_area,
        "contour": q_contour,
        "line_interp": q_line_interp,
        "raster_profile": q_raster_profile,
        "flow_acc": q_flow_acc,
        "cost_dist": q_cost_dist,
        "corridor": q_corridor,
        "watershed": q_watershed,
        "cost_path": q_cost_path,
        "flow_tiled": q_flow_tiled,
        "fill_sinks": q_fill_sinks,
        "watershed_tiled": q_watershed_tiled,
        "img_quality": q_img_quality,
        "reclassify": q_reclassify,
        "glcm": q_glcm,
        "edt": q_edt,
        "moran": q_moran,
        "hough": q_hough,
        "features": q_features,
        "strahler": q_strahler,
        "skeleton": q_skeleton,
        "flow_length": q_flow_length,
        "mode_filter": q_mode_filter,
        "allocation": q_allocation,
        "zone_geom": q_zone_geom,
        "curvature": q_curvature,
        "terrain_idx": q_terrain_idx,
        "rank_filter": q_rank_filter,
        "tophat": q_tophat,
        "otsu": q_otsu,
        "point_density": q_point_density,
        "std_ellipse": q_std_ellipse,
        "twi": q_twi,
        "hull": q_hull,
        "flow_weighted": q_flow_weighted,
        "landscape": q_landscape,
        "seg_intersect": q_seg_intersect,
        "quadrat": q_quadrat,
        "ripley_k": q_ripley_k,
        "kernel_density": q_kernel_density,
        "cast_shadows": q_cast_shadows,
        "sun_hours": q_sun_hours,
        "suitability": q_suitability,
        "conservative": q_conservative,
        "sieve": q_sieve,
        "cva": q_cva,
        "viewshed": q_viewshed,
        "gcp_affine": q_gcp_affine,
        "hist_match": q_hist_match,
        "pansharpen": q_pansharpen,
        "template_match": q_template_match,
        "coregister": q_coregister,
        "netcdf_chunked": q_netcdf_chunked,
        "zarr_v3": q_zarr_v3,
        "zarr_shard": q_zarr_shard,
        "tiff_window": q_tiff_window,
        "lang_quality": q_lang_quality,
        "fingerprint": q_fingerprint,
        "simhash": q_simhash,
        "minhash_pairs": q_minhash_pairs,
        "transform_utm": q_transform_utm,
        "transform_sinu": q_transform_sinu,
        "transform_merc": q_transform_merc,
        "transform_lcc": q_transform_lcc,
        "transform_stere": q_transform_stere,
        "transform_aea": q_transform_aea,
        "transform_laea": q_transform_laea,
        "transform_tmerc": q_transform_tmerc,
        "transform_osgb": q_transform_osgb,
        "transform_somerc": q_transform_somerc,
        "transform_krovak": q_transform_krovak,
        "transform_eck4": q_transform_eck4,
        "transform_eqearth": q_transform_eqearth,
        "transform_robin": q_transform_robin,
        "transform_wintri": q_transform_wintri,
        "transform_hammer": q_transform_hammer,
        "transform_natearth": q_transform_natearth,
        "transform_vandg": q_transform_vandg,
        "transform_aitoff": q_transform_aitoff,
        "transform_mill": q_transform_mill,
        "transform_eck6": q_transform_eck6,
        "transform_gnom": q_transform_gnom,
        "transform_poly": q_transform_poly,
        "transform_cass": q_transform_cass,
        "transform_bonne": q_transform_bonne,
        "transform_omerc": q_transform_omerc,
        "transform_moll": q_transform_moll,
        "transform_ortho": q_transform_ortho,
        "transform_igh": q_transform_igh,
        "transform_geos": q_transform_geos,
        "transform_eqc": q_transform_eqc,
        "phash_dups": q_phash_dups,
        "phash_near": q_phash_near,
        "idw_sample": q_idw_sample,
        "idw_exact": q_idw_exact,
        "lsh_ann": q_lsh_ann,
        "ivf_ann": q_ivf_ann,
        "cosine_near": q_cosine_near,
    }


# ---------------------------------------------------------------------------
# DuckDB oracles (ANSI-ish SQL over the registered views)
# ---------------------------------------------------------------------------

_PTS_CTE = """
pts AS (
  SELECT printf('pt%06d', c_custkey) AS point_id,
         CASE WHEN c_custkey % 97 = 0
              THEN -124.0e0 + (c_custkey % 800) * 0.01e0 + 0.001e0 + 50.0e0
              ELSE -124.0e0 + (c_custkey % 800) * 0.01e0 + 0.001e0 END AS x,
         44.0e0 - ((c_custkey // 7) % 800) * 0.01e0 - 0.001e0 AS y
  FROM customer
)
"""

_IMGS_CTE = """
imgs AS (
  SELECT doc_id AS d,
         -124.0e0 + (doc_id % 16) * 0.5e0 AS x0,
         44.0e0 - ((doc_id // 16) % 16) * 0.5e0 AS y0
  FROM documents WHERE doc_id < {n}
)
"""

# level-8 world cells: 256 x 256, w = 1.40625e0, h = 0.703125e0 (binary-exact)
_COVER_CTE = """
cover AS (
  SELECT d, x0, y0,
         CAST(floor((x0 + 180.0e0) / 1.40625e0) AS BIGINT) AS ix0,
         CAST(floor((x0 + 1.0e0 + 180.0e0) / 1.40625e0 - 1e-12) AS BIGINT) AS ix1,
         CAST(floor((90.0e0 - y0) / 0.703125e0) AS BIGINT) AS iy0,
         CAST(floor((90.0e0 - (y0 - 1.0e0)) / 0.703125e0 - 1e-12) AS BIGINT) AS iy1
  FROM imgs
),
cells AS (
  SELECT d, x0, y0,
         GREATEST(ix0 + ox.o, ix0) AS ix,
         GREATEST(iy0 + oy.o, iy0) AS iy
  FROM cover,
       (SELECT unnest([0, 1, 2]) AS o) ox,
       (SELECT unnest([0, 1, 2, 3]) AS o) oy
  WHERE ix0 + ox.o <= ix1 AND iy0 + oy.o <= iy1
)
"""


def oracle_sql() -> dict[str, str]:
    sql: dict[str, str] = {}

    sql["point_index"] = f"""
WITH {_PTS_CTE.strip()}
SELECT point_id,
       CAST(round_even((y - 44.0e0) / (-0.01e0) - 0.5e0, 0) AS BIGINT) AS irow,
       CAST(round_even((x - (-124.0e0)) / 0.01e0 - 0.5e0, 0) AS BIGINT) AS icol,
       (CAST(round_even((y - 44.0e0) / (-0.01e0) - 0.5e0, 0) AS BIGINT) BETWEEN 0 AND 799)
       AND (CAST(round_even((x - (-124.0e0)) / 0.01e0 - 0.5e0, 0) AS BIGINT) BETWEEN 0 AND 799)
         AS inside
FROM pts
"""

    sql["point_cell_key"] = f"""
WITH {_PTS_CTE.strip()}
SELECT point_id,
       (CAST({KEY_LEVEL} AS BIGINT) << 56)
       | (LEAST(GREATEST(CAST(floor((90.0e0 - y) / 180.0e0 * 4096) AS BIGINT), 0), 4095) << 28)
       | LEAST(GREATEST(CAST(floor((x + 180.0e0) / 360.0e0 * 4096) AS BIGINT), 0), 4095)
         AS cell_key
FROM pts
"""

    sql["window_subset"] = """
WITH boxes AS (
  SELECT o_orderkey AS k,
         -124.0e0 + ((o_orderkey % 600) * 0.01e0
                   + CASE WHEN o_orderkey % 89 = 0 THEN 50.0e0 ELSE 0.0e0 END) AS xmin,
         44.0e0 - ((o_orderkey // 11) % 600) * 0.01e0 AS ymax,
         -124.0e0 + ((o_orderkey % 600) * 0.01e0
                   + CASE WHEN o_orderkey % 89 = 0 THEN 50.0e0 ELSE 0.0e0 END)
                + (0.05e0 + (o_orderkey % 13) * 0.01e0) AS xmax,
         44.0e0 - ((o_orderkey // 11) % 600) * 0.01e0 - (0.05e0 + (o_orderkey % 17) * 0.01e0) AS ymin
  FROM orders
), win AS (
  SELECT k,
         CAST(round_even((ymax - 44.0e0) / (-0.01e0) - 0.5e0, 0) AS BIGINT) AS row_start,
         CAST(round_even((xmin - (-124.0e0)) / 0.01e0 - 0.5e0, 0) AS BIGINT) AS col_start,
         CAST(round_even((ymin - 44.0e0) / (-0.01e0) - 0.5e0, 0) AS BIGINT) + 1 AS row_end,
         CAST(round_even((xmax - (-124.0e0)) / 0.01e0 - 0.5e0, 0) AS BIGINT) + 1 AS col_end
  FROM boxes
)
SELECT k AS o_orderkey,
       GREATEST(LEAST(row_start, 800), 0) AS row_off,
       GREATEST(LEAST(col_start, 800), 0) AS col_off,
       LEAST(row_end, 800) - GREATEST(LEAST(row_start, 800), 0) AS height,
       LEAST(col_end, 800) - GREATEST(LEAST(col_start, 800), 0) AS width
FROM win
WHERE NOT (row_end < 0 OR col_end < 0 OR row_start > 800 OR col_start > 800)
"""

    sql["tile_assign"] = f"""
WITH {_IMGS_CTE.format(n=N_IMG_TILE).strip()},
{_COVER_CTE.strip()}
SELECT printf('img%08d', d) AS image_id,
       (CAST({TILE_LEVEL} AS BIGINT) << 56) | (iy << 28) | ix AS cell_key
FROM cells
"""

    sql["tile_windows"] = f"""
WITH {_IMGS_CTE.format(n=N_IMG_TILE).strip()},
{_COVER_CTE.strip()},
clipped AS (
  SELECT d, x0, y0, ix, iy,
         GREATEST(-180.0e0 + ix * 1.40625e0, x0) AS cxmin,
         LEAST(-180.0e0 + (ix + 1) * 1.40625e0, x0 + 1.0e0) AS cxmax,
         GREATEST(90.0e0 - (iy + 1) * 0.703125e0, y0 - 1.0e0) AS cymin,
         LEAST(90.0e0 - iy * 0.703125e0, y0) AS cymax
  FROM cells
), win AS (
  SELECT d, ix, iy,
         CAST(round_even((cymax - y0) / (-0.01e0) - 0.5e0, 0) AS BIGINT) AS row_start,
         CAST(round_even((cxmin - x0) / 0.01e0 - 0.5e0, 0) AS BIGINT) AS col_start,
         CAST(round_even((cymin - y0) / (-0.01e0) - 0.5e0, 0) AS BIGINT) + 1 AS row_end,
         CAST(round_even((cxmax - x0) / 0.01e0 - 0.5e0, 0) AS BIGINT) + 1 AS col_end
  FROM clipped
)
SELECT printf('img%08d', d) AS image_id,
       (CAST({TILE_LEVEL} AS BIGINT) << 56) | (iy << 28) | ix AS cell_key,
       GREATEST(row_start, 0) AS row_off,
       GREATEST(col_start, 0) AS col_off,
       LEAST(row_end, 100) - GREATEST(row_start, 0) AS th,
       LEAST(col_end, 100) - GREATEST(col_start, 0) AS tw
FROM win
WHERE NOT (row_end < 0 OR col_end < 0 OR row_start > 100 OR col_start > 100)
  AND LEAST(row_end, 100) - GREATEST(row_start, 0) > 0
  AND LEAST(col_end, 100) - GREATEST(col_start, 0) > 0
"""

    sql["merge_mean"] = f"""
WITH {_IMGS_CTE.format(n=N_IMG_MERGE).strip()},
px AS (
  SELECT 5600 + (d % 16) * 50 + c.range AS gx,
         4600 + ((d // 16) % 16) * 50 + r.range AS gy,
         (d * 31 + r.range * 7 + c.range * 13) % 251 AS value
  FROM imgs, range(100) r, range(100) c
)
SELECT gx, gy, CAST(SUM(value) AS BIGINT) AS sum_value, COUNT(*) AS n_value
FROM px GROUP BY gx, gy
"""

    sql["mosaic_first"] = f"""
WITH {_IMGS_CTE.format(n=N_IMG_MERGE).strip()},
px AS (
  SELECT 5600 + (d % 16) * 50 + c.range AS gx,
         4600 + ((d // 16) % 16) * 50 + r.range AS gy,
         d * 16777216 + (d * 31 + r.range * 7 + c.range * 13) % 251 AS packed
  FROM imgs, range(100) r, range(100) c
)
SELECT gx, gy, MIN(packed) & 16777215 AS value
FROM px GROUP BY gx, gy
"""

    sql["mosaic_best"] = f"""
WITH {_IMGS_CTE.format(n=N_IMG_MERGE).strip()},
px AS (
  SELECT 5600 + (d % 16) * 50 + c.range AS gx,
         4600 + ((d // 16) % 16) * 50 + r.range AS gy,
         ((d * 37) % 11) * 17592186044416 + d * 16777216
           + (d * 31 + r.range * 7 + c.range * 13) % 251 AS packed
  FROM imgs, range(100) r, range(100) c
)
SELECT gx, gy,
       MAX(packed) & 16777215 AS value,
       (MAX(packed) // 16777216) % 1048576 AS win_order
FROM px GROUP BY gx, gy
"""

    sql["resample_nearest"] = """
SELECT r.range AS r, c.range AS c,
       ((2 * r.range + 1) * 7 + (2 * c.range + 1) * 13) % 251 AS value
FROM range(50) r, range(50) c
"""

    # aligned 2x downscale reductions over image 0 ((7r+13c)%251 pixels)
    sql["resample_sum"] = """
WITH px AS (
  SELECT r.range AS sr, c.range AS sc, (r.range * 7 + c.range * 13) % 251 AS value
  FROM range(100) r, range(100) c
)
SELECT sr // 2 AS r, sc // 2 AS c, CAST(SUM(value) AS BIGINT) AS value
FROM px GROUP BY sr // 2, sc // 2
"""

    sql["resample_max"] = """
WITH px AS (
  SELECT r.range AS sr, c.range AS sc, (r.range * 7 + c.range * 13) % 251 AS value
  FROM range(100) r, range(100) c
)
SELECT sr // 2 AS r, sc // 2 AS c, MAX(value) AS value
FROM px GROUP BY sr // 2, sc // 2
"""

    sql["warp_bands"] = """
WITH px AS (
  SELECT b.range AS band, r.range AS sr, c.range AS sc,
         (r.range * 7 + c.range * 13 + b.range * 31) % 251 AS value
  FROM range(3) b, range(100) r, range(100) c
)
SELECT band, sr // 2 AS r, sc // 2 AS c, CAST(SUM(value) AS BIGINT) AS value
FROM px GROUP BY band, sr // 2, sc // 2
"""

    # kNN path produces the identical shifted-downscale result
    sql["knn_resample"] = """
SELECT r.range AS r, c.range AS c,
       ((2 * r.range + 1) * 7 + (2 * c.range + 1) * 13) % 251 AS value
FROM range(50) r, range(50) c
"""

    sql["window_buffer"] = """
WITH boxes AS (
  SELECT o_orderkey AS k,
         -124.0e0 + (o_orderkey % 600) * 0.01e0 AS xmin,
         44.0e0 - ((o_orderkey // 11) % 600) * 0.01e0 AS ymax,
         -124.0e0 + (o_orderkey % 600) * 0.01e0 + (0.05e0 + (o_orderkey % 13) * 0.01e0) AS xmax,
         44.0e0 - ((o_orderkey // 11) % 600) * 0.01e0 - (0.05e0 + (o_orderkey % 17) * 0.01e0) AS ymin
  FROM orders
), win AS (
  SELECT k,
         CAST(round_even((ymax - 44.0e0) / (-0.01e0) - 0.5e0, 0) AS BIGINT) AS row_start,
         CAST(round_even((xmin - (-124.0e0)) / 0.01e0 - 0.5e0, 0) AS BIGINT) AS col_start,
         CAST(round_even((ymin - 44.0e0) / (-0.01e0) - 0.5e0, 0) AS BIGINT) + 1 AS row_end,
         CAST(round_even((xmax - (-124.0e0)) / 0.01e0 - 0.5e0, 0) AS BIGINT) + 1 AS col_end
  FROM boxes
)
SELECT k AS o_orderkey,
       GREATEST(LEAST(row_start - 2, 800), 0) AS row_off,
       GREATEST(LEAST(col_start - 2, 800), 0) AS col_off,
       LEAST(row_end + 2, 800) - GREATEST(LEAST(row_start - 2, 800), 0) AS height,
       LEAST(col_end + 2, 800) - GREATEST(LEAST(col_start - 2, 800), 0) AS width
FROM win
WHERE NOT (row_end < 0 OR col_end < 0 OR row_start > 800 OR col_start > 800)
"""

    # affine_center: x = 0.01*c + (x0 + 0.01*0.5); image 0 -> x0=-124, y0=44
    sql["pixel_centroids"] = """
SELECT r.range AS r, c.range AS c,
       (-124.0e0 + 0.01e0 * 0.5e0) + 0.01e0 * c.range AS x,
       (44.0e0 + (-0.01e0) * 0.5e0) + (-0.01e0) * r.range AS y
FROM range(100) r, range(100) c
"""

    sql["ngram_jaccard"] = r"""
WITH docs AS (
  SELECT doc_id,
         list_filter(string_split_regex(lower(text), '\s+'), x -> x <> '') AS w
  FROM documents WHERE doc_id < 16
),
exploded AS (
  SELECT doc_id, w, unnest(generate_series(1, greatest(len(w) - 2, 0))) AS i
  FROM docs
),
g AS (
  SELECT DISTINCT doc_id, w[i] || ' ' || w[i + 1] || ' ' || w[i + 2] AS gram
  FROM exploded
),
counts AS (SELECT doc_id, COUNT(*) AS c FROM g GROUP BY doc_id),
inter AS (
  SELECT ga.doc_id AS a, gb.doc_id AS b, COUNT(*) AS i
  FROM g ga JOIN g gb ON ga.gram = gb.gram AND ga.doc_id < gb.doc_id
  GROUP BY ga.doc_id, gb.doc_id
)
SELECT ca.doc_id AS a, cb.doc_id AS b,
       CAST(COALESCE(i.i, 0) AS DOUBLE)
         / CAST(ca.c + cb.c - COALESCE(i.i, 0) AS DOUBLE) AS jaccard
FROM counts ca
JOIN counts cb ON ca.doc_id < cb.doc_id
LEFT JOIN inter i ON i.a = ca.doc_id AND i.b = cb.doc_id
"""

    sql["heavy_hitters"] = r"""
WITH words AS (
  SELECT unnest(list_filter(string_split_regex(lower(text), '\s+'), x -> x <> '')) AS token
  FROM documents
)
SELECT token, COUNT(*) AS n FROM words GROUP BY token
ORDER BY n DESC, token LIMIT 20
"""

    sql["quality"] = r"""
WITH s AS (
  SELECT doc_id,
         CAST(len(regexp_extract_all(text, '\S+')) AS BIGINT) AS n_tok,
         CAST(length(text) AS BIGINT) AS n_chars,
         CAST(len(list_filter(regexp_extract_all(text, '\S+'),
              w -> list_contains(['the','and','of','a','to','in','is','it','that','for'],
                                 lower(w)))) AS BIGINT) AS n_stop
  FROM documents
), r AS (
  SELECT doc_id, n_tok,
         CASE WHEN n_tok > 0
              THEN CAST(n_chars - greatest(n_tok - 1, 0) AS DOUBLE)
                     / CAST(greatest(n_tok, 1) AS DOUBLE)
              ELSE 0.0e0 END AS mean_len,
         CASE WHEN n_tok > 0
              THEN CAST(n_stop AS DOUBLE) / CAST(greatest(n_tok, 1) AS DOUBLE)
              ELSE 0.0e0 END AS stop_ratio
  FROM s
)
SELECT doc_id,
       0.4e0 * (CASE WHEN n_tok >= 10 AND n_tok <= 100000 THEN 1.0e0 ELSE 0.0e0 END)
     + 0.3e0 * (CASE WHEN mean_len >= 2.0e0 AND mean_len <= 12.0e0 THEN 1.0e0 ELSE 0.0e0 END)
     + 0.3e0 * (CASE WHEN stop_ratio >= 0.01e0 THEN 1.0e0 ELSE 0.0e0 END) AS quality
FROM r
"""

    sql["idw_exact"] = """
SELECT c_custkey AS custkey,
       (((c_custkey // 7) % 100) * 7 + (c_custkey % 100) * 13) % 251 AS value
FROM customer WHERE c_custkey % 7 = 0
"""

    sql["fill_from"] = """
WITH px AS (
  SELECT r.range AS r, c.range AS c, (r.range * 7 + c.range * 13) % 251 AS base
  FROM range(100) r, range(100) c
)
SELECT r, c,
       CASE WHEN base % 7 = 0 THEN (base + 31) % 251 ELSE base END AS value
FROM px
"""

    sql["multimodal_decode"] = f"""
WITH {_IMGS_CTE.format(n=8).strip()},
px AS (
  SELECT d, (d * 31 + r.range * 7 + c.range * 13) % 251 AS value
  FROM imgs, range(100) r, range(100) c
)
SELECT printf('img%08d', d) AS image_id,
       100 AS dec_h, 100 AS dec_w,
       CAST(SUM(value) AS DOUBLE) / 10000.0e0 AS dec_mean
FROM px GROUP BY d
"""

    sql["multimodal_resize"] = """
SELECT r.range AS r, c.range AS c,
       (((r.range * 100) // 32) * 7 + ((c.range * 100) // 32) * 13) % 251 AS value
FROM range(32) r, range(32) c
"""

    # jpeg_render / cmap_render: GOLDEN oracles. The render chain
    # (min-max stretch -> jpeg_codec DCT round-trip / viridis LUT gather
    # -> integer stats) is deterministic pure-numpy; the literals below
    # were computed once by the sequential (non-Ray) reference path over
    # the same oracle images (doc_id < 6, identical at every sf).
    sql["jpeg_render"] = """
SELECT * FROM (VALUES
  ('img00000000', 100, 100, 1268773, 0, 255),
  ('img00000001', 100, 100, 1271983, 0, 255),
  ('img00000002', 100, 100, 1272097, 0, 255),
  ('img00000003', 100, 100, 1271303, 0, 255),
  ('img00000004', 100, 100, 1270601, 0, 255),
  ('img00000005', 100, 100, 1269276, 0, 255)
) AS t(image_id, h, w, px_sum, px_min, px_max)
"""

    sql["cmap_render"] = """
SELECT * FROM (VALUES
  ('img00000000', 832727, 1357243, 1103545),
  ('img00000001', 834520, 1360047, 1102580),
  ('img00000002', 835530, 1360304, 1101747),
  ('img00000003', 835677, 1359243, 1101502)
) AS t(image_id, sum_r, sum_g, sum_b)
"""

    sql["rasterize_box"] = """
WITH cells AS (
  SELECT r.range AS r, c.range AS c,
         -124.0e0 + (c.range + 0.5e0) * 0.01e0 AS cx,
         44.0e0 - (r.range + 0.5e0) * 0.01e0 AS cy
  FROM range(800) r, range(800) c
)
SELECT 'center' AS mode, r, c FROM cells
WHERE cx > -119.973e0 AND cx < -119.211e0 AND cy > 39.437e0 AND cy < 39.892e0
UNION ALL
SELECT 'touched' AS mode, r, c FROM cells
WHERE cx + 0.005e0 > -119.973e0 AND cx - 0.005e0 < -119.211e0
  AND cy + 0.005e0 > 39.437e0 AND cy - 0.005e0 < 39.892e0
"""

    sql["antimeridian"] = """
SELECT doc_id,
       (177.0e0 + (doc_id % 16) * 0.25e0 < 180.0e0
        AND 177.0e0 + (doc_id % 16) * 0.25e0 + 1.0e0 > 180.0e0) AS crosses
FROM documents WHERE doc_id < 64
"""

    sql["events_sessions"] = """
WITH d AS (
  SELECT user_id,
         epoch(ts) - lag(epoch(ts)) OVER (PARTITION BY user_id ORDER BY ts) AS gap
  FROM events
)
SELECT user_id,
       COUNT(*) AS n_events,
       CAST(SUM(CASE WHEN gap IS NULL OR gap > 1800 THEN 1 ELSE 0 END) AS BIGINT) AS n_sessions
FROM d GROUP BY user_id
"""

    sql["image_footprint_join"] = f"""
WITH {_PTS_CTE.strip()},
{_IMGS_CTE.format(n=N_IMG_TILE).strip()}
SELECT printf('img%08d', d) AS image_id, COUNT(*) AS n_points
FROM pts p, imgs i
WHERE p.x > i.x0 AND p.x < i.x0 + 1.0e0 AND p.y > i.y0 - 1.0e0 AND p.y < i.y0
GROUP BY d
"""

    _boxes_vals = ", ".join(
        f"('{n}', {x0!r}e0, {y0!r}e0, {x1!r}e0, {y1!r}e0)"
        for n, x0, y0, x1, y1 in PIP_BOXES
    )
    sql["weighted_quantiles"] = """
WITH g AS (
  SELECT l_extendedprice AS v, CAST(SUM(CAST(l_quantity AS BIGINT)) AS BIGINT) AS w
  FROM lineitem GROUP BY l_extendedprice
),
c AS (
  SELECT v, SUM(w) OVER (ORDER BY v ROWS UNBOUNDED PRECEDING) AS cum,
         SUM(w) OVER () AS tot
  FROM g
),
qq AS (SELECT unnest([0.25e0, 0.5e0, 0.75e0, 0.9e0]) AS q)
SELECT qq.q,
       MIN(c.v) AS value,
       CAST(CEIL(qq.q * c.tot) AS BIGINT) AS rank,
       CAST(c.tot AS BIGINT) AS total_w
FROM qq, c
WHERE c.cum >= CEIL(qq.q * c.tot)
GROUP BY qq.q, c.tot
"""

    sql["cooccurrence"] = """
SELECT a.l_partkey AS part_a, b.l_partkey AS part_b,
       CAST(COUNT(*) AS BIGINT) AS n
FROM lineitem a JOIN lineitem b
  ON a.l_orderkey = b.l_orderkey AND a.l_partkey < b.l_partkey
GROUP BY 1, 2 HAVING COUNT(*) >= 3
"""

    sql["session_conversion"] = """
WITH o AS (
  SELECT user_id, event_type,
         CAST(floor(epoch(ts)) AS BIGINT) AS s
  FROM events
),
m AS (
  SELECT user_id, event_type, s,
         SUM(CASE WHEN prev_s IS NULL OR s - prev_s > 1800
                  THEN 1 ELSE 0 END)
           OVER (PARTITION BY user_id ORDER BY s
                 ROWS UNBOUNDED PRECEDING) AS sid
  FROM (SELECT user_id, event_type, s,
               LAG(s) OVER (PARTITION BY user_id ORDER BY s) AS prev_s
        FROM o)
),
f AS (SELECT user_id, sid,
             MIN(CASE WHEN event_type = 'view' THEN s END) AS fv
      FROM m GROUP BY 1, 2),
c AS (SELECT m.user_id, m.sid,
             MAX(CASE WHEN m.event_type = 'purchase' AND m.s > f.fv
                      THEN 1 ELSE 0 END) AS conv
      FROM m JOIN f ON f.user_id = m.user_id AND f.sid = m.sid
      GROUP BY 1, 2)
SELECT user_id, CAST(COUNT(*) AS BIGINT) AS n_sessions,
       CAST(SUM(conv) AS BIGINT) AS n_converting
FROM c GROUP BY user_id
"""

    sql["edit_near"] = """
SELECT x.doc_id AS a, y.doc_id AS b,
       CAST(levenshtein(x.text, y.text) AS BIGINT) AS dist
FROM documents x JOIN documents y ON x.doc_id < y.doc_id
WHERE x.doc_id < 32 AND y.doc_id < 32
  AND levenshtein(x.text, y.text) <= 220
"""

    sql["pushdown_scan"] = """
SELECT o_orderpriority, CAST(COUNT(*) AS BIGINT) AS n_orders,
       CAST(SUM(CAST(floor(o_totalprice * 100) AS BIGINT)) AS BIGINT)
           AS sum_cents
FROM orders WHERE o_totalprice > 450000.0e0
GROUP BY o_orderpriority
"""

    sql["percent_rank"] = """
SELECT event_id,
       PERCENT_RANK() OVER (PARTITION BY event_type ORDER BY value) AS pr
FROM events
"""

    sql["orders_by_month"] = """
SELECT CAST(EXTRACT(year FROM o_orderdate) AS BIGINT) AS year,
       CAST(EXTRACT(month FROM o_orderdate) AS BIGINT) AS month,
       CAST(COUNT(*) AS BIGINT) AS n_orders,
       CAST(SUM(CAST(floor(o_totalprice * 100) AS BIGINT)) AS BIGINT)
           AS revenue_cents
FROM orders GROUP BY 1, 2
"""

    sql["embedding_bounds"] = """
WITH x AS (
  SELECT unnest(range(len(embedding))) AS dim, unnest(embedding) AS v
  FROM embeddings
)
SELECT CAST(dim AS BIGINT) AS dim, CAST(COUNT(*) AS BIGINT) AS n,
       CAST(MIN(v) AS DOUBLE) AS vmin, CAST(MAX(v) AS DOUBLE) AS vmax
FROM x GROUP BY dim
"""

    sql["retention"] = """
WITH a AS (
  SELECT DISTINCT user_id,
         CAST(floor(epoch(ts) / 86400) AS BIGINT) AS day
  FROM events
),
f AS (SELECT user_id, MIN(day) AS first_day FROM a GROUP BY user_id)
SELECT f.first_day AS cohort_day,
       a.day - f.first_day AS age_days,
       CAST(COUNT(*) AS BIGINT) AS n_users
FROM a JOIN f ON f.user_id = a.user_id
GROUP BY 1, 2
"""

    sql["knn_join"] = f"""
WITH {_PTS_CTE.strip()},
{_IMGS_CTE.format(n=N_IMG_TILE).strip()},
c AS (SELECT d, x0 + 0.5e0 AS cx, y0 - 0.5e0 AS cy FROM imgs),
dd AS (
  SELECT p.point_id, c.d,
         (p.x - c.cx) * (p.x - c.cx) + (p.y - c.cy) * (p.y - c.cy) AS d2
  FROM pts p, c
),
r AS (
  SELECT point_id, d, d2,
         row_number() OVER (PARTITION BY point_id ORDER BY d2, d) AS rank
  FROM dd
)
SELECT point_id, rank, printf('img%08d', d) AS image_id, d2
FROM r WHERE rank <= 3
"""

    sql["box_overlay"] = f"""
WITH {_IMGS_CTE.format(n=N_IMG_TILE).strip()},
b(poly_id, bx0, by0, bx1, by1) AS (VALUES {_boxes_vals}),
ov AS (
  SELECT printf('img%08d', i.d) AS image_id, b.poly_id,
         LEAST(i.x0 + 1.0e0, b.bx1) - GREATEST(i.x0, b.bx0) AS w,
         LEAST(i.y0, b.by1) - GREATEST(i.y0 - 1.0e0, b.by0) AS h
  FROM imgs i, b
)
SELECT image_id, poly_id, w * h AS area
FROM ov WHERE w > 0 AND h > 0
"""

    sql["trim"] = f"""
SELECT printf('img%08d', doc_id) AS image_id,
       doc_id % 5 AS row_off,
       CAST(0 AS BIGINT) AS col_off,
       100 - (doc_id % 5) AS height,
       100 - (doc_id % 7) AS width
FROM documents WHERE doc_id < {N_IMG_MERGE}
"""

    sql["merge_grids"] = f"""
WITH {_IMGS_CTE.format(n=N_IMG_TILE).strip()}
SELECT MIN(x0) AS merged_xmin, MIN(y0 - 1.0e0) AS merged_ymin,
       MAX(x0 + 1.0e0) AS merged_xmax, MAX(y0) AS merged_ymax,
       COUNT(*) AS n_images
FROM imgs
"""

    sql["local_utm"] = f"""
WITH {_PTS_CTE.strip()}
SELECT point_id,
       LEAST(GREATEST(CAST(floor((x + 180.0e0) / 6.0e0) AS BIGINT), 1), 60) AS zone,
       y < 0 AS south
FROM pts
"""

    # projection oracles: the SAME public Snyder formulas, mirrored
    # op-for-op (incl. the longitude wrap), floor-cm int64 outputs so
    # libm last-ulp noise (~1e-9 m) cannot flip a comparison
    # minhash_pairs: golden rows from the sequential reference pipeline
    # (_minhash_golden_path docstring has the independence scope); the
    # corpus fingerprint picks the right sf's rows
    sql["minhash_pairs"] = f"""
SELECT a, b, jaccard
FROM read_parquet('{_minhash_golden_path()}')
WHERE fp = (SELECT SUM(length(text)) FROM documents)
"""

    # approx_distinct: golden rows from the sequential HLL reference
    # (order-independent registers -> same integer estimate required)
    sql["approx_distinct"] = f"""
SELECT event_type, n_approx
FROM read_parquet('{_hll_golden_path()}')
WHERE fp = (SELECT COUNT(*) FROM events)
"""

    # idw_sample: golden VALUES — fixed oracle images (doc_id < 4) x 8
    # fixed query points, per-(image, point) float compute with no
    # cross-row reduction, so the sequential values (shortest-repr
    # round-trip doubles) are bit-exact at every sf and layout.
    sql["idw_sample"] = """
SELECT * FROM (VALUES
  ('q0', 'img00000000', 105.70510523319774e0),
  ('q1', 'img00000000', 149.83187978076145e0),
  ('q2', 'img00000000', 107.89550540242729e0),
  ('q3', 'img00000000', 109.56219443034576e0),
  ('q4', 'img00000000', 152.4663792341384e0),
  ('q5', 'img00000000', 91.2789131743392e0),
  ('q6', 'img00000000', 113.08283930668198e0),
  ('q7', 'img00000000', 155.39064555022168e0),
  ('q4', 'img00000001', 102.69186831623014e0),
  ('q5', 'img00000001', 141.58980043441164e0),
  ('q6', 'img00000001', 159.6575694873741e0),
  ('q7', 'img00000001', 96.83628647243769e0)
) AS t(point_id, image_id, value)
"""

    # geoimage_write: golden VALUES — exact RGB sums of the decoded
    # render (stretch -> viridis LUT -> lossless PNG round-trip); pixel
    # content, not compressed size, so any zlib build matches
    sql["geoimage_write"] = """
SELECT * FROM (VALUES
  ('img00000000', 3293515),
  ('img00000001', 3297147),
  ('img00000002', 3297581),
  ('img00000003', 3296422)
) AS t(image_id, rgb_sum)
"""

    # dup_substrings: golden spans from the sequential inverted-index ref
    sql["dup_substrings"] = f"""
SELECT doc_id, "start", "end", n_grams
FROM read_parquet('{_dupspans_golden_path()}')
WHERE corpus_fp = (SELECT SUM(length(text)) FROM documents)
"""

    # strip_tiff: golden VALUES — the round-trip is exact for every
    # variant, so each row equals the source image's integer pixel sum
    # and floor-cm grid origin (computed sequentially once)
    sql["strip_tiff"] = """
SELECT t.image_id, v.variant, t.px_sum, t.x0_cm, t.y0_cm
FROM (VALUES
  ('img00000000', 1248532, -12400, 4400),
  ('img00000001', 1251559, -12350, 4400)
) AS t(image_id, px_sum, x0_cm, y0_cm),
(VALUES ('strips_lzw_le'), ('strips_deflate_be'), ('strips_packbits_le'),
        ('tiles_none_be')) AS v(variant)
"""

    # rgb_tiff: channel sums derive from the pinned px sums above —
    # g = 255*10000 - px_sum, b = sum((3*px+7) mod 256) computed once
    sql["rgb_tiff"] = """
SELECT t.image_id, v.variant, t.ch0_sum, t.ch1_sum, t.ch2_sum,
       t.x0_cm, t.y0_cm
FROM (VALUES
  ('img00000000', 1248532, 1301468, 1269420, -12400, 4400),
  ('img00000001', 1251559, 1298441, 1270565, -12350, 4400)
) AS t(image_id, ch0_sum, ch1_sum, ch2_sum, x0_cm, y0_cm),
(VALUES ('strips_lzw_pred2_le'), ('strips_deflate_be')) AS v(variant)
"""

    # netcdf_chunked / zarr_v3: golden VALUES — the round-trips are
    # lossless, so each row equals the source image's integer pixel sum
    # and floor-cm grid origin (same truths strip_tiff pins; computed
    # sequentially once and identical across all three containers)
    sql["netcdf_chunked"] = """
SELECT * FROM (VALUES
  ('img00000000', 1248532, -12400, 4400),
  ('img00000001', 1251559, -12350, 4400)
) AS t(image_id, px_sum, x0_cm, y0_cm)
"""
    sql["gpkg_roundtrip"] = """
SELECT * FROM (VALUES
  ('img00000000', 1248532, -12400, 4400),
  ('img00000001', 1251559, -12350, 4400)
) AS t(image_id, px_sum, x0_cm, y0_cm)
"""
    sql["asc_roundtrip"] = """
SELECT * FROM (VALUES
  ('img00000000', 1248532, -12400, 4400),
  ('img00000001', 1251559, -12350, 4400)
) AS t(image_id, px_sum, x0_cm, y0_cm)
"""
    # shp_roundtrip: value-exact NON-golden — the .shp stores geometry
    # doubles raw, so the oracle recomputes the full point formula +
    # floor-cm from the customer view (same IEEE expression order)
    sql["shp_roundtrip"] = """
WITH k AS (
  SELECT c_custkey,
         CASE WHEN c_custkey % 97 = 0
              THEN -124.0e0 + (c_custkey % 800) * 0.01e0 + 0.001e0 + 50.0e0
              ELSE -124.0e0 + (c_custkey % 800) * 0.01e0 + 0.001e0 END AS x,
         44.0e0 - ((c_custkey // 7) % 800) * 0.01e0 - 0.001e0 AS y
  FROM customer WHERE c_custkey < 2000
)
SELECT printf('pt%06d', c_custkey) AS point_id,
       CAST(FLOOR(x * 100.0e0) AS BIGINT) AS x_cm,
       CAST(FLOOR(y * 100.0e0) AS BIGINT) AS y_cm,
       CAST(c_custkey % 1000 AS BIGINT) AS grp
FROM k
"""
    # geoparquet_roundtrip: value-exact NON-golden — WKB stores
    # geometry doubles raw, so the same customer-view recomputation
    # as shp_roundtrip pins the whole WKB + geo-metadata path
    sql["geoparquet_roundtrip"] = sql["shp_roundtrip"]
    # geom_stats: value-exact NON-golden, pure INTEGER oracle — the
    # dyadic rectangle construction makes shoelace area (x16384),
    # perimeter (x64) and the /128-lattice centroid exact integers
    # recomputable from the key formulas alone
    sql["geom_stats"] = """
WITH g AS (
  SELECT c_custkey AS k,
         (c_custkey % 32) + 1 AS m,
         ((c_custkey // 5) % 32) + 1 AS n,
         c_custkey % 1024 AS p,
         (c_custkey // 7) % 512 AS q
  FROM customer
)
SELECT printf('g%06d', k) AS geom_id,
       CAST(CASE WHEN k % 3 = 0 THEN 3 * m * n
                 ELSE 4 * m * n END AS BIGINT) AS area_16384,
       CAST(CASE WHEN k % 3 = 0 THEN 3 * (m + n)
                 ELSE 2 * (m + n) END AS BIGINT) AS perim_64,
       CAST(-16384 + 4 * p + m AS BIGINT) AS cx_128,
       CAST(4096 + 2 * q + n AS BIGINT) AS cy_128
FROM g
"""
    # vec_reproject: value-exact NON-golden — Snyder 7-1/7-2 applied
    # in SQL to both corners of each dyadic rectangle (same IEEE
    # expression order as proj/mercator.py), floor-cm
    sql["vec_reproject"] = """
WITH g AS (
  SELECT c_custkey AS k,
         -128.0e0 + (c_custkey % 1024) / 32.0e0 AS x0,
         32.0e0 + ((c_custkey // 7) % 512) / 64.0e0 AS y0,
         ((c_custkey % 32) + 1) / 64.0e0 AS w,
         (((c_custkey // 5) % 32) + 1) / 64.0e0 AS h
  FROM customer
)
SELECT printf('g%06d', k) AS geom_id,
       CAST(floor(6378137.0e0 * radians(x0) * 100.0e0) AS BIGINT) AS x0_cm,
       CAST(floor(6378137.0e0
            * ln(tan(0.7853981633974483e0 + radians(y0) / 2.0e0))
            * 100.0e0) AS BIGINT) AS y0_cm,
       CAST(floor(6378137.0e0 * radians(x0 + w) * 100.0e0) AS BIGINT) AS x1_cm,
       CAST(floor(6378137.0e0
            * ln(tan(0.7853981633974483e0 + radians(y0 + h) / 2.0e0))
            * 100.0e0) AS BIGINT) AS y1_cm
FROM g
"""
    # poly_join: value-exact NON-golden — the odd-1/128 box lattice vs
    # the even-1/64 rectangle lattice removes touch cases, so
    # intersects == strict interval overlap stated directly in SQL
    box_rows = ",\n  ".join(
        f"('{b}', {x0!r}e0, {y0!r}e0, {x1!r}e0, {y1!r}e0)"
        for b, x0, y0, x1, y1 in _POLY_JOIN_BOXES)
    sql["poly_join"] = f"""
WITH g AS (
  SELECT c_custkey AS k,
         -128.0e0 + (c_custkey % 1024) / 32.0e0 AS x0,
         32.0e0 + ((c_custkey // 7) % 512) / 64.0e0 AS y0,
         ((c_custkey % 32) + 1) / 64.0e0 AS w,
         (((c_custkey // 5) % 32) + 1) / 64.0e0 AS h
  FROM customer
),
b(other_id, bx0, by0, bx1, by1) AS (VALUES
  {box_rows}
)
SELECT printf('g%06d', g.k) AS poly_id, b.other_id
FROM g CROSS JOIN b
WHERE g.x0 < b.bx1 AND g.x0 + g.w > b.bx0
  AND g.y0 < b.by1 AND g.y0 + g.h > b.by0
"""
    # clip_area: value-exact NON-golden pure-INTEGER oracle — clipped
    # rectangle area in 1/64 units via LEAST/GREATEST; the clip box is
    # (-126, 33, -110, 38) = (-8064, 2112, -7040, 2432)/64
    sql["clip_area"] = """
WITH g AS (
  SELECT c_custkey AS k,
         -8192 + 2 * (c_custkey % 1024) AS x64,
         2048 + ((c_custkey // 7) % 512) AS y64,
         (c_custkey % 32) + 1 AS w64,
         ((c_custkey // 5) % 32) + 1 AS h64
  FROM customer
),
ov AS (
  SELECT k,
         LEAST(x64 + w64, -7040) - GREATEST(x64, -8064) AS ow,
         LEAST(y64 + h64, 2432) - GREATEST(y64, 2112) AS oh
  FROM g
)
SELECT printf('g%06d', k) AS geom_id,
       CAST(ow * oh AS BIGINT) AS area_4096
FROM ov
WHERE ow > 0 AND oh > 0
"""
    # polygonize: value-exact NON-golden pure-INTEGER oracle — the
    # dyadic corner lattice makes area*4096 and the /64 bounds exact
    # integers from the key formulas (hole keys: GREATEST-clamped
    # inset, ring count 2)
    sql["polygonize"] = """
WITH g AS (
  SELECT c_custkey AS k,
         4 + (c_custkey % 8) AS rw,
         4 + ((c_custkey // 3) % 8) AS rh
  FROM customer
)
SELECT printf('g%06d', k) AS geom_id,
       CAST(CASE WHEN k % 3 = 0
                 THEN rw * rh - GREATEST(1, rw - 4) * GREATEST(1, rh - 4)
                 ELSE rw * rh END AS BIGINT) AS area_4096,
       CAST(CASE WHEN k % 3 = 0 THEN 2 ELSE 1 END AS BIGINT) AS n_rings,
       CAST(-8192 + 2 * (k % 1024) + 2 AS BIGINT) AS xmin_64,
       CAST(2560 + (k % 256) - 2 AS BIGINT) AS ymax_64
FROM g
"""
    # nearest_join: value-exact NON-golden — argmin over the 64-site
    # cross join, ROW_NUMBER tie-break by site_id replays the engine's
    # lowest-index argmin; d2 uses the identical expression order
    site_rows = ",\n  ".join(
        f"('{sid}', {sx!r}e0, {sy!r}e0)" for sid, sx, sy in _NEAREST_SITES)
    # geodesic_near: the identical fixed-order haversine double chain —
    # kh = (pi()/180)*0.5, left-associated products, 2R folded into
    # 12742000e0 — then ROW_NUMBER ties to the lowest site
    sql["geodesic_near"] = """
WITH pts AS (
  SELECT printf('pt%06d', c_custkey) AS point_id,
         CASE WHEN c_custkey % 97 = 0
              THEN -124e0 + (c_custkey % 800) * 0.01e0 + 0.001e0 + 50e0
              ELSE -124e0 + (c_custkey % 800) * 0.01e0 + 0.001e0 END AS x,
         44e0 - ((c_custkey // 7) % 800) * 0.01e0 - 0.001e0 AS y
  FROM customer
),
sites AS (
  SELECT s.s AS sid,
         -124e0 + CAST(s.s % 8 AS DOUBLE) AS sx,
         44e0 - 2e0 * CAST(s.s // 8 AS DOUBLE) AS sy
  FROM range(0, 32) s(s)
),
d AS (
  SELECT point_id, sid,
         12742000e0 * asin(sqrt(
           sin((sy - y) * ((pi() / 180e0) * 0.5e0))
             * sin((sy - y) * ((pi() / 180e0) * 0.5e0))
           + cos(y * (pi() / 180e0)) * cos(sy * (pi() / 180e0))
             * (sin((sx - x) * ((pi() / 180e0) * 0.5e0))
                * sin((sx - x) * ((pi() / 180e0) * 0.5e0))))) AS dist
  FROM pts, sites
)
SELECT point_id, CAST(sid AS BIGINT) AS site_id,
       CAST(floor(dist * 100e0) AS BIGINT) AS dist_cm
FROM d
QUALIFY row_number() OVER (PARTITION BY point_id ORDER BY dist, sid) = 1
"""
    sql["nearest_join"] = f"""
WITH {_PTS_CTE.strip()},
sites(site_id, sx, sy) AS (VALUES
  {site_rows}
),
ranked AS (
  SELECT pts.point_id, sites.site_id,
         (pts.x - sites.sx) * (pts.x - sites.sx)
         + (pts.y - sites.sy) * (pts.y - sites.sy) AS d2,
         ROW_NUMBER() OVER (
           PARTITION BY pts.point_id
           ORDER BY (pts.x - sites.sx) * (pts.x - sites.sx)
                  + (pts.y - sites.sy) * (pts.y - sites.sy), sites.site_id
         ) AS rn
  FROM pts CROSS JOIN sites
)
SELECT point_id, site_id,
       CAST(floor(d2 * 1000000.0e0) AS BIGINT) AS d2_micro
FROM ranked WHERE rn = 1
"""
    # cell_area: value-exact NON-golden — the graticule band formula
    # recomputed in SQL with the engine's exact expression order
    # (R = 6371007.1809 authalic; dlon = radians(1/64))
    sql["cell_area"] = """
WITH g AS (
  SELECT c_custkey AS k,
         32.0e0 + (c_custkey % 256) / 64.0e0 AS y0,
         CAST(c_custkey % 16 AS DOUBLE) AS j
  FROM customer
)
SELECT printf('g%06d', k) AS geom_id,
       CAST(floor(
         (6371007.1809e0 * 6371007.1809e0) * radians(1.0e0 / 64.0e0)
         * (sin(radians(y0 + (-1.0e0 / 64.0e0) * j))
            - sin(radians(y0 + (-1.0e0 / 64.0e0) * (j + 1.0e0))))
         * 1000.0e0) AS BIGINT) AS band_mm2,
       CAST(floor(
         (6371007.1809e0 * 6371007.1809e0)
         * (radians(1.0e0 / 64.0e0) * 16)
         * (sin(radians(y0)) - sin(radians(y0 + (-1.0e0 / 64.0e0) * 16)))
         * 1000.0e0) AS BIGINT) AS total_mm2
FROM g
"""
    # contour: value-exact NON-golden pure-INTEGER oracle — the ramp
    # contour at (k%14)+0.5 is one horizontal 16-point line at lattice
    # row (k%14)+1, x spanning centers 0.5..15.5 (all dyadic)
    sql["contour"] = """
SELECT printf('g%06d', c_custkey) AS geom_id,
       CAST(1 AS BIGINT) AS n_paths,
       CAST(16 AS BIGINT) AS n_pts,
       CAST(2048 + (c_custkey % 256) - ((c_custkey % 14) + 1)
            AS BIGINT) AS y_64,
       CAST(-16384 + 4 * (c_custkey % 1024) + 1 AS BIGINT) AS xmin_128,
       CAST(-16384 + 4 * (c_custkey % 1024) + 31 AS BIGINT) AS xmax_128
FROM customer
"""
    # line_interp: value-exact NON-golden — power-of-two segment
    # lengths make every interpolation IEEE-exact, so the L-path
    # measures are dyadic rationals recomputable with CASE arithmetic
    sql["line_interp"] = """
WITH g AS (
  SELECT c_custkey AS k,
         -128.0e0 + (c_custkey % 1024) / 32.0e0 AS x0,
         32.0e0 + (c_custkey % 256) / 64.0e0 AS y0,
         CASE c_custkey % 4 WHEN 0 THEN 0.25e0 WHEN 1 THEN 0.5e0
              WHEN 2 THEN 1.0e0 ELSE 2.0e0 END AS a,
         CASE c_custkey % 3 WHEN 0 THEN 0.25e0 WHEN 1 THEN 0.5e0
              ELSE 1.0e0 END AS b
  FROM customer
), m AS (
  SELECT k, x0, y0, a, b, a + b AS len,
         (a + b) * ((k % 4) + 1) / 8.0e0 AS d
  FROM g
)
SELECT printf('g%06d', k) AS geom_id,
       CAST(round((CASE WHEN d <= a THEN x0 + d ELSE x0 + a END)
                  * 128.0e0) AS BIGINT) AS ix_128,
       CAST(round((CASE WHEN d <= a THEN y0 ELSE y0 + (d - a) END)
                  * 128.0e0) AS BIGINT) AS iy_128,
       CAST(round(LEAST((k % 64) / 16.0e0, a) * 64.0e0)
            AS BIGINT) AS loc_64,
       CAST(CASE WHEN a > len / 4.0e0 AND a < 3.0e0 * len / 4.0e0
                 THEN 3 ELSE 2 END AS BIGINT) AS n_sub,
       CAST(round(len * 32.0e0) AS BIGINT) AS sub_len_64
FROM m
"""
    # raster_profile: value-exact pure-INTEGER — stations land on
    # exact pixel centers of a value=row*16+col ramp, so the station
    # count, value sum and the t=0.5 bilinear half-step are integer
    # formulas of the key
    sql["raster_profile"] = """
SELECT printf('g%06d', c_custkey) AS geom_id,
       CAST((c_custkey % 14) + 2 AS BIGINT) AS n_st,
       CAST(((c_custkey % 14) + 2) * 16 * (c_custkey % 16)
            + (((c_custkey % 14) + 1) * ((c_custkey % 14) + 2)) // 2
            AS BIGINT) AS val_sum,
       CAST(32 * (c_custkey % 14) + 1 AS BIGINT) AS bil_2
FROM customer
"""
    # flow_acc: value-exact pure-INTEGER — the oriented ramp drains
    # along one axis (240 cells at the dominant code, 15 on the
    # collector row/col, one pit); the probe accumulation and grid
    # total are the closed telescoped sums
    sql["flow_acc"] = """
SELECT printf('g%06d', c_custkey) AS geom_id,
       CAST(CASE WHEN c_custkey % 2 = 0 THEN 64 ELSE 16 END
            AS BIGINT) AS code_main,
       CAST(240 AS BIGINT) AS n_main,
       CAST(1 AS BIGINT) AS n_pit,
       CAST(CASE WHEN c_custkey % 2 = 0 THEN
              CASE WHEN c_custkey % 16 = 0
                   THEN 15 + 16 * (15 - ((c_custkey % 13) + 1))
                   ELSE 15 - (c_custkey % 16) END
            ELSE 15 - ((c_custkey % 13) + 1) END AS BIGINT) AS acc_probe,
       CAST(3840 AS BIGINT) AS acc_sum
FROM customer
"""
    # cost_dist: value-exact pure-INTEGER — the chamfer 2-3 norm on a
    # uniform cost field is 4*max(|dr|,|dc|) + 2*min(|dr|,|dc|)
    sql["cost_dist"] = """
WITH s AS (
  SELECT c_custkey AS k,
         c_custkey % 16 AS sr, c_custkey % 13 AS sc
  FROM customer
)
SELECT printf('g%06d', k) AS geom_id,
       CAST(4 * GREATEST(sr, sc) + 2 * LEAST(sr, sc)
            AS BIGINT) AS d_origin,
       CAST(4 * GREATEST(abs(7 - sr), abs(8 - sc))
            + 2 * LEAST(abs(7 - sr), abs(8 - sc)) AS BIGINT) AS d_mid,
       CAST(4 * GREATEST(15 - sr, 15 - sc)
            + 2 * LEAST(15 - sr, 15 - sc) AS BIGINT) AS d_far
FROM s
"""
    # corridor: per-cell sum of the two closed-form chamfer norms over
    # the full 16x16 grid
    sql["corridor"] = """
WITH s AS (
  SELECT c_custkey AS k,
         c_custkey % 16 AS ar, c_custkey % 13 AS ac,
         15 - c_custkey % 16 AS br, (c_custkey + 7) % 13 + 3 AS bc
  FROM customer
),
f AS (
  SELECT k,
         4 * GREATEST(abs(rr.r - ar), abs(cc.c - ac))
       + 2 * LEAST(abs(rr.r - ar), abs(cc.c - ac))
       + 4 * GREATEST(abs(rr.r - br), abs(cc.c - bc))
       + 2 * LEAST(abs(rr.r - br), abs(cc.c - bc)) AS v
  FROM s, range(0, 16) rr(r), range(0, 16) cc(c)
),
m AS (SELECT k, MIN(v) AS mn, SUM(v) AS sm FROM f GROUP BY k)
SELECT printf('g%06d', m.k) AS geom_id,
       CAST(m.mn AS BIGINT) AS min_corr,
       CAST(COUNT(*) FILTER (WHERE f.v <= m.mn + 8) AS BIGINT) AS n_within,
       CAST(m.sm AS BIGINT) AS sum_corr
FROM m JOIN f ON f.k = m.k
GROUP BY m.k, m.mn, m.sm
"""
    # watershed: value-exact pure-INTEGER — the ridge DEM -|c - w|
    # splits every row at w = k%14+1 (ridge cell tie-breaks E-first);
    # all 14 ridge positions proven exhaustively in pytest
    sql["watershed"] = """
WITH s AS (
  SELECT c_custkey AS k, c_custkey % 14 + 1 AS w FROM customer
)
SELECT printf('g%06d', k) AS geom_id,
       CAST(32 AS BIGINT) AS n_basins,
       CAST(w AS BIGINT) AS size_west0,
       CAST(GREATEST(w, 16 - w) AS BIGINT) AS basin_max,
       CAST((k % 16) * 16
            + CASE WHEN k % 11 < w THEN 0 ELSE 15 END
            AS BIGINT) AS label_probe
FROM s
"""
    # cost_path: value-exact pure-INTEGER — on uniform cost the greedy
    # backtrace is Chebyshev-many steps, its hop costs sum to the
    # 4*max+2*min chamfer norm, and it terminates at the source
    sql["cost_path"] = """
WITH s AS (
  SELECT c_custkey AS k,
         abs(c_custkey % 7 - c_custkey % 16) AS dr,
         abs(c_custkey % 11 + 4 - c_custkey % 13) AS dc
  FROM customer
)
SELECT printf('g%06d', k) AS geom_id,
       CAST(GREATEST(dr, dc) AS BIGINT) AS n_steps,
       CAST(4 * GREATEST(dr, dc) + 2 * LEAST(dr, dc)
            AS BIGINT) AS path_cost,
       CAST((k % 16) * 16 + k % 13 AS BIGINT) AS end_idx
FROM s
"""
    # watershed_tiled: value-exact pure-INTEGER — per tile the ridge
    # split at column 13 gives closed counts: the tx=0 tiles hold 13
    # west cells per row (208) and both pit labels per row (32); the
    # rest are all-east (16 labels); corner labels are the row pits
    sql["watershed_tiled"] = """
SELECT CAST(tyr.v AS BIGINT) AS ty,
       CAST(txr.v AS BIGINT) AS tx,
       CAST(CASE WHEN txr.v = 0 THEN 208 ELSE 0 END AS BIGINT)
           AS n_west,
       CAST(CASE WHEN txr.v = 0 THEN 32 ELSE 16 END AS BIGINT)
           AS n_labels,
       CAST(16 * tyr.v * 16777216
            + CASE WHEN txr.v = 0 THEN 0 ELSE 63 END AS BIGINT)
           AS corner_label
FROM range(0, 4) tyr(v), range(0, 4) txr(v)
"""
    # img_quality: value-exact — mse is the integer d*d; ssim_20
    # replays quality.py::ssim_global's double chain op for op from
    # the exact integer sums (structure term is exactly (2v+c2)/(2v+c2)
    # only when cov == var, which a shift preserves — the full chain is
    # still evaluated on both sides)
    sql["img_quality"] = """
WITH s AS (
  SELECT c_custkey AS k, CAST(c_custkey % 7 AS DOUBLE) AS d
  FROM customer
),
t AS (
  SELECT k, d,
         32640e0 / 256e0 AS mu_a,
         (32640e0 + 256e0 * d) / 256e0 AS mu_b,
         (0.01e0 * 255e0) * (0.01e0 * 255e0) AS c1,
         (0.03e0 * 255e0) * (0.03e0 * 255e0) AS c2
  FROM s
),
u AS (
  SELECT k, d, mu_a, mu_b, c1, c2,
         5559680e0 / 256e0 - mu_a * mu_a AS var_a,
         (5559680e0 + 2e0 * d * 32640e0 + 256e0 * d * d) / 256e0
             - mu_b * mu_b AS var_b,
         (5559680e0 + d * 32640e0) / 256e0 - mu_a * mu_b AS cov
  FROM t
)
SELECT printf('g%06d', k) AS geom_id,
       CAST(d * d AS BIGINT) AS mse_i,
       CAST(FLOOR(((2e0 * mu_a * mu_b + c1)
                   / (mu_a * mu_a + mu_b * mu_b + c1))
                  * ((2e0 * cov + c2) / (var_a + var_b + c2))
                  * 1048576e0) AS BIGINT) AS ssim_20
FROM u
"""
    # reclassify: value-exact pure-INTEGER — right-open bins over the
    # 0..255 ramp: counts telescope to the breakpoints themselves
    sql["reclassify"] = """
WITH s AS (
  SELECT c_custkey AS k,
         c_custkey % 50 + 10 AS b0, c_custkey % 100 + 60 AS b1
  FROM customer
)
SELECT printf('g%06d', k) AS geom_id,
       CAST(b0 AS BIGINT) AS n_c1,
       CAST(b1 - b0 AS BIGINT) AS n_c2,
       CAST(200 - b1 AS BIGINT) AS n_c3,
       CAST(56 AS BIGINT) AS n_c4,
       CAST(CASE WHEN k % 256 < b0 THEN 1
                 WHEN k % 256 < b1 THEN 2
                 WHEN k % 256 < 200 THEN 3
                 ELSE 4 END AS BIGINT) AS probe_class
FROM s
"""
    # glcm: value-exact pure-INTEGER — the oracle rebuilds the
    # co-occurrence itself: 240 horizontal pairs per key (i % 16 < 15),
    # grouped by (a, b) for the energy term
    sql["glcm"] = """
WITH pairs AS (
  SELECT c.c_custkey AS k,
         ((ir.i * (2 * (c.c_custkey % 8) + 1) + c.c_custkey) % 256)
             // 32 AS a,
         (((ir.i + 1) * (2 * (c.c_custkey % 8) + 1) + c.c_custkey)
             % 256) // 32 AS b
  FROM customer c, range(0, 256) ir(i)
  WHERE ir.i % 16 < 15
),
cmat AS (
  SELECT k, a, b, COUNT(*) AS cnt FROM pairs GROUP BY k, a, b
)
SELECT printf('g%06d', k) AS geom_id,
       CAST(SUM(cnt) AS BIGINT) AS n_pairs,
       CAST(SUM(cnt * (a - b) * (a - b)) AS BIGINT) AS contrast_num,
       CAST(SUM(cnt * cnt) AS BIGINT) AS energy_num,
       CAST(SUM(CASE WHEN a = b THEN cnt ELSE 0 END) AS BIGINT)
           AS diag_num
FROM cmat
GROUP BY k
"""
    # edt: value-exact pure-INTEGER — two seeds: the transform is the
    # LEAST of two squared offsets, recomputed cell by cell in SQL
    sql["edt"] = """
WITH s AS (
  SELECT c_custkey AS k,
         c_custkey % 16 AS r1, c_custkey % 13 AS c1,
         c_custkey % 7 AS r2, c_custkey % 11 + 3 AS c2
  FROM customer
),
cells AS (
  SELECT k, r1, c1, r2, c2, ir.i // 16 AS r, ir.i % 16 AS c,
         LEAST((ir.i // 16 - r1) * (ir.i // 16 - r1)
               + (ir.i % 16 - c1) * (ir.i % 16 - c1),
               (ir.i // 16 - r2) * (ir.i // 16 - r2)
               + (ir.i % 16 - c2) * (ir.i % 16 - c2)) AS d2
  FROM s, range(0, 256) ir(i)
)
SELECT printf('g%06d', k) AS geom_id,
       CAST(MAX(CASE WHEN r = 0 AND c = 0 THEN d2 END) AS BIGINT)
           AS d2_origin,
       CAST(MAX(CASE WHEN r = 8 AND c = 7 THEN d2 END) AS BIGINT)
           AS d2_mid,
       CAST(MAX(CASE WHEN r = 15 AND c = 15 THEN d2 END) AS BIGINT)
           AS d2_far,
       CAST(SUM(d2) AS BIGINT) AS d2_sum
FROM cells
GROUP BY k
"""
    # moran: value-exact pure-INTEGER — every rook pair rebuilt in SQL
    # (horizontal i,i+1 with i%16<15; vertical i,i+16 with i<240; x2
    # for both directions); S = 32640 and sum v^2 = 5559680 are
    # permutation-invariant constants
    sql["moran"] = """
WITH s AS (
  SELECT c_custkey AS k, 2 * (c_custkey % 8) + 1 AS m FROM customer
),
pr AS (
  SELECT k,
         (ir.i * m + k) % 256 AS xi,
         CASE WHEN ir.i % 16 < 15 AND pt.p = 0
              THEN ((ir.i + 1) * m + k) % 256
              WHEN ir.i < 240 AND pt.p = 1
              THEN ((ir.i + 16) * m + k) % 256
              ELSE NULL END AS xj
  FROM s, range(0, 256) ir(i), range(0, 2) pt(p)
),
agg AS (
  SELECT k,
         2 * SUM(xi * xj) AS crossv,
         2 * SUM(xi + xj) AS psum,
         2 * SUM((xi - xj) * (xi - xj)) AS d
  FROM pr WHERE xj IS NOT NULL GROUP BY k
)
SELECT printf('g%06d', k) AS geom_id,
       CAST(256 * 256 * crossv - 256 * 32640 * psum
            + CAST(960 AS BIGINT) * 32640 * 32640 AS BIGINT) AS a_cross,
       CAST(d AS BIGINT) AS d_diff,
       CAST(CAST(256 AS BIGINT) * 256 * 5559680
            - CAST(256 AS BIGINT) * 32640 * 32640 AS BIGINT) AS b_num,
       CAST(960 AS BIGINT) AS w_sum
FROM agg
"""
    # hough: value-exact pure-INTEGER — the segment's own direction
    # holds all L votes in one bin: row a (d=0), col b (d=1),
    # r+c = a+b+L-1 (d=2, anti-diagonal), c-r+15 = b-a+15 (d=3)
    sql["hough"] = """
WITH s AS (
  SELECT c_custkey AS k, c_custkey % 8 + 4 AS L, c_custkey % 4 AS d,
         c_custkey % 5 + 1 AS a, c_custkey % 4 + 1 AS b
  FROM customer
)
SELECT printf('g%06d', k) AS geom_id,
       CAST(d AS BIGINT) AS peak_dir,
       CAST(CASE d WHEN 0 THEN a WHEN 1 THEN b
                   WHEN 2 THEN a + b + L - 1
                   ELSE b - a + 15 END AS BIGINT) AS peak_bin,
       CAST(L AS BIGINT) AS peak_count
FROM s
"""
    # features: value-exact pure-INTEGER — Harris peak = the square's
    # corner with pinned invariant response (all 30 positions in
    # pytest); the LBP codes are rebuilt neighbor-by-neighbor in SQL
    # over the 196 interior cells
    sql["features"] = """
WITH s AS (
  SELECT c_custkey AS k, 2 * (c_custkey % 8) + 1 AS m FROM customer
),
lbp AS (
  SELECT k,
         (CASE WHEN ((ir.i + 1) * m + k) % 256 >= (ir.i * m + k) % 256
               THEN 1 ELSE 0 END)
       + (CASE WHEN ((ir.i + 17) * m + k) % 256 >= (ir.i * m + k) % 256
               THEN 2 ELSE 0 END)
       + (CASE WHEN ((ir.i + 16) * m + k) % 256 >= (ir.i * m + k) % 256
               THEN 4 ELSE 0 END)
       + (CASE WHEN ((ir.i + 15) * m + k) % 256 >= (ir.i * m + k) % 256
               THEN 8 ELSE 0 END)
       + (CASE WHEN ((ir.i - 1) * m + k) % 256 >= (ir.i * m + k) % 256
               THEN 16 ELSE 0 END)
       + (CASE WHEN ((ir.i - 17) * m + k) % 256 >= (ir.i * m + k) % 256
               THEN 32 ELSE 0 END)
       + (CASE WHEN ((ir.i - 16) * m + k) % 256 >= (ir.i * m + k) % 256
               THEN 64 ELSE 0 END)
       + (CASE WHEN ((ir.i - 15) * m + k) % 256 >= (ir.i * m + k) % 256
               THEN 128 ELSE 0 END) AS code
  FROM s, range(0, 256) ir(i)
  WHERE ir.i // 16 BETWEEN 1 AND 14 AND ir.i % 16 BETWEEN 1 AND 14
)
SELECT printf('g%06d', k) AS geom_id,
       CAST(k % 6 + 3 AS BIGINT) AS peak_r,
       CAST(k % 5 + 3 AS BIGINT) AS peak_c,
       CAST(3814400000000 AS BIGINT) AS peak_resp,
       CAST(SUM(code) AS BIGINT) AS lbp_sum,
       CAST(SUM(CASE WHEN code = 255 THEN 1 ELSE 0 END) AS BIGINT)
           AS n_lbp255
FROM lbp
GROUP BY k
"""
    # strahler: value-exact pure-INTEGER — the collector row/column is
    # order 2 except at its far end (single parent); 241/15 split
    sql["strahler"] = """
SELECT printf('g%06d', c_custkey) AS geom_id,
       CAST(241 AS BIGINT) AS n_order1,
       CAST(15 AS BIGINT) AS n_order2,
       CAST(2 AS BIGINT) AS order_max,
       CAST(CASE WHEN c_custkey % 2 = 0
                 THEN CASE WHEN c_custkey % 16 = 0 THEN 2 ELSE 1 END
                 ELSE CASE WHEN c_custkey % 13 = 0
                            AND c_custkey % 16 <> 15
                           THEN 2 ELSE 1 END
            END AS BIGINT) AS order_probe
FROM customer
"""
    # skeleton: value-exact pure-INTEGER — the 5-wide bar thins to the
    # centerline run [c0+2, c0+L-4] on row r0+2 (all 144 combos
    # pytest-proven); the column sum telescopes
    sql["skeleton"] = """
WITH s AS (
  SELECT c_custkey AS k, c_custkey % 6 + 1 AS r0,
         c_custkey % 3 + 1 AS c0, c_custkey % 8 + 6 AS L
  FROM customer
)
SELECT printf('g%06d', k) AS geom_id,
       CAST(L - 5 AS BIGINT) AS n_skel,
       CAST(r0 + 2 AS BIGINT) AS skel_row,
       CAST((L - 5) * (2 * c0 + L - 2) // 2 AS BIGINT) AS col_sum
FROM s
"""
    # flow_length: value-exact pure-INTEGER — downstream 2r+2c; the
    # longest upstream path is 2*(15-axis) off the collector and
    # 30 + 2*(15-along) on it; maxima 60 (corner-to-pit) and 60
    sql["flow_length"] = """
WITH s AS (
  SELECT c_custkey AS k, c_custkey % 16 AS pr, c_custkey % 13 AS pc
  FROM customer
)
SELECT printf('g%06d', k) AS geom_id,
       CAST(2 * pr + 2 * pc AS BIGINT) AS down_probe,
       CAST(CASE WHEN k % 2 = 0
                 THEN CASE WHEN pr = 0 THEN 30 + 2 * (15 - pc)
                           ELSE 2 * (15 - pr) END
                 ELSE CASE WHEN pc = 0 THEN 30 + 2 * (15 - pr)
                           ELSE 2 * (15 - pc) END
            END AS BIGINT) AS up_probe,
       CAST(60 AS BIGINT) AS down_max,
       CAST(60 AS BIGINT) AS up_max
FROM s
"""
    # mode_filter: value-exact pure-INTEGER — the lone speckle is
    # outvoted 8:1, the half boundary survives 6:3
    sql["mode_filter"] = """
SELECT printf('g%06d', c_custkey) AS geom_id,
       CAST(16 * (16 - (c_custkey % 10 + 3)) AS BIGINT) AS n_ones,
       CAST(1 AS BIGINT) AS n_changed,
       CAST(0 AS BIGINT) AS probe
FROM customer
"""
    # allocation: value-exact pure-INTEGER — nearest-seed argmin with
    # ties to seed 0, recomputed cell by cell
    sql["allocation"] = """
WITH s AS (
  SELECT c_custkey AS k,
         c_custkey % 16 AS r1, c_custkey % 13 AS c1,
         c_custkey % 7 AS r2, c_custkey % 11 + 3 AS c2
  FROM customer
),
cells AS (
  SELECT k, ir.i // 16 AS r, ir.i % 16 AS c,
         CASE WHEN (ir.i // 16 - r1) * (ir.i // 16 - r1)
                   + (ir.i % 16 - c1) * (ir.i % 16 - c1)
                <= (ir.i // 16 - r2) * (ir.i // 16 - r2)
                   + (ir.i % 16 - c2) * (ir.i % 16 - c2)
              THEN 0 ELSE 1 END AS z
  FROM s, range(0, 256) ir(i)
)
SELECT printf('g%06d', k) AS geom_id,
       CAST(SUM(CASE WHEN z = 0 THEN 1 ELSE 0 END) AS BIGINT)
           AS n_zone0,
       CAST(MAX(CASE WHEN r = 0 AND c = 0 THEN z END) AS BIGINT)
           AS alloc_origin,
       CAST(MAX(CASE WHEN r = 15 AND c = 15 THEN z END) AS BIGINT)
           AS alloc_far
FROM cells
GROUP BY k
"""
    # zone_geom: value-exact pure-INTEGER — rectangle geometry: areas
    # h0*w0 / 256-h0*w0, perimeters 2(h0+w0) and 64+2(h0+w0)
    sql["zone_geom"] = """
WITH s AS (
  SELECT c_custkey AS k, c_custkey % 6 + 2 AS a, c_custkey % 7 + 2 AS b,
         c_custkey % 4 + 2 AS h0, c_custkey % 5 + 2 AS w0
  FROM customer
)
SELECT printf('g%06d', k) AS geom_id,
       CAST(h0 * w0 AS BIGINT) AS area1,
       CAST(2 * (h0 + w0) AS BIGINT) AS perim1,
       CAST(64 + 2 * (h0 + w0) AS BIGINT) AS perim0,
       CAST(a AS BIGINT) AS rmin,
       CAST(b AS BIGINT) AS cmin,
       CAST(a + h0 - 1 AS BIGINT) AS rmax,
       CAST(b + w0 - 1 AS BIGINT) AS cmax
FROM s
"""
    # curvature: value-exact pure-INTEGER — constant numerators over
    # the 196 interior windows: (2be, 2al, -4ga) each times 196
    sql["curvature"] = """
SELECT printf('g%06d', c_custkey) AS geom_id,
       CAST(196 * 2 * (c_custkey % 4 - 1) AS BIGINT) AS sum_d2x,
       CAST(196 * 2 * (c_custkey % 5 - 2) AS BIGINT) AS sum_d2y,
       CAST(196 * -4 * (c_custkey % 3 - 1) AS BIGINT) AS sum_dxy
FROM customer
"""
    # terrain_idx: value-exact pure-INTEGER — every neighbor
    # difference of the quadric is the linear form
    # d(dr,dc) = al(2r dr + dr^2) + be(2c dc + dc^2)
    #          + ga(r dc + c dr + dr dc) + a dr + b dc,
    # rebuilt per window over range(1,15)^2 x the 8-neighbor list
    sql["terrain_idx"] = """
WITH n(dr, dc) AS (VALUES (-1,-1),(-1,0),(-1,1),(0,-1),
                          (0,1),(1,-1),(1,0),(1,1)),
g AS (
  SELECT c_custkey AS k, rr.r AS r, cc.c AS c, n.dr, n.dc,
         ( (c_custkey % 3 - 1) * (2 * rr.r * n.dr + n.dr * n.dr)
         + (c_custkey % 4 - 1) * (2 * cc.c * n.dc + n.dc * n.dc)
         + (c_custkey % 5 - 2) * (rr.r * n.dc + cc.c * n.dr + n.dr * n.dc)
         + (c_custkey % 7) * n.dr + (c_custkey % 11 - 5) * n.dc ) AS d
  FROM customer, range(1, 15) rr(r), range(1, 15) cc(c), n
),
w AS (
  SELECT k, r, c,
         SUM(-d) AS tpi, SUM(ABS(d)) AS tri, SUM(d * d) AS trisq,
         MAX(GREATEST(d, 0)) - MIN(LEAST(d, 0)) AS rough
  FROM g GROUP BY k, r, c
)
SELECT printf('g%06d', k) AS geom_id,
       CAST(SUM(tpi) AS BIGINT) AS sum_tpi,
       CAST(SUM(tri) AS BIGINT) AS sum_tri,
       CAST(SUM(trisq) AS BIGINT) AS sum_trisq,
       CAST(SUM(rough) AS BIGINT) AS sum_rough
FROM w GROUP BY k
"""
    # cva: value-exact pure-INTEGER — the band differences are the
    # closed forms d0 = (k%7-3)+(r-7), d1 = (k%11-5)+(c-7); sector is
    # the quadrant with zero counted non-negative
    sql["cva"] = """
WITH d AS (
  SELECT c_custkey AS k,
         (c_custkey % 7 - 3) + (rr.r - 7) AS d0,
         (c_custkey % 11 - 5) + (cc.c - 7) AS d1
  FROM customer, range(0, 16) rr(r), range(0, 16) cc(c)
)
SELECT printf('g%06d', k) AS geom_id,
       CAST(SUM(d0 * d0 + d1 * d1) AS BIGINT) AS sum_mag2,
       CAST(COUNT(*) FILTER (d0 >= 0 AND d1 >= 0) AS BIGINT) AS n_s0,
       CAST(COUNT(*) FILTER (d0 >= 0 AND d1 < 0) AS BIGINT) AS n_s1,
       CAST(COUNT(*) FILTER (d0 < 0 AND d1 >= 0) AS BIGINT) AS n_s2,
       CAST(COUNT(*) FILTER (d0 < 0 AND d1 < 0) AS BIGINT) AS n_s3
FROM d GROUP BY k
"""
    # sieve: value-exact pure-INTEGER closed form — stripe sum is 384;
    # the 2-cell island (k even) merges back into stripe k%3, the
    # 3-cell island (k odd) survives and adds 3*(9 - k%3)
    sql["sieve"] = """
SELECT printf('g%06d', c_custkey) AS geom_id,
       CAST(CASE WHEN c_custkey % 2 = 0 THEN 2 ELSE 0 END AS BIGINT)
           AS n_changed,
       CAST(384 + (c_custkey % 2) * (27 - 3 * (c_custkey % 3)) AS BIGINT)
           AS sum_out,
       CAST(CASE WHEN c_custkey % 2 = 1 THEN 9
                 ELSE c_custkey % 3 END AS BIGINT) AS island_val
FROM customer
"""
    # cast_shadows: value-exact pure-INTEGER — the horizon scan is a
    # strictly-preceding window MAX of m = q*z + p*c per row; the
    # empty frame at c = 0 yields NULL which never shadows
    # conservative: the separable overlap join — per axis
    # o = GREATEST(0, LEAST(2s+2, 3t+3) - GREATEST(2s, 3t)); probes and
    # the conservation identity total = 4 * sum(v)
    sql["conservative"] = """
WITH src AS (
  SELECT c_custkey AS k, rr.r AS sr, cc.c AS sc,
         (c_custkey * 7 + rr.r * 11 + cc.c * 5) % 97 AS v
  FROM customer, range(0, 24) rr(r), range(0, 24) cc(c)
),
probes(tr, tc) AS (VALUES (0, 0), (7, 9), (15, 15)),
mass AS (
  SELECT k, p.tr, p.tc,
         SUM(v * GREATEST(0, LEAST(2 * sr + 2, 3 * p.tr + 3)
                             - GREATEST(2 * sr, 3 * p.tr))
               * GREATEST(0, LEAST(2 * sc + 2, 3 * p.tc + 3)
                             - GREATEST(2 * sc, 3 * p.tc))) AS m
  FROM src, probes p GROUP BY k, p.tr, p.tc
),
tot AS (SELECT k, 4 * SUM(v) AS total FROM src GROUP BY k)
SELECT printf('g%06d', tot.k) AS geom_id,
       CAST(tot.total AS BIGINT) AS total_mass,
       CAST(MAX(CASE WHEN tr = 0 THEN m END) AS BIGINT) AS m00,
       CAST(MAX(CASE WHEN tr = 7 THEN m END) AS BIGINT) AS m79,
       CAST(MAX(CASE WHEN tr = 15 THEN m END) AS BIGINT) AS m1515
FROM tot JOIN mass ON mass.k = tot.k
GROUP BY tot.k, tot.total
"""
    # suitability: score = L // 20 + 1 for each layer; weighted 3/2/1
    sql["suitability"] = """
WITH g AS (
  SELECT c_custkey AS k, rr.r AS r, cc.c AS c,
         3 * ((c_custkey * 3 + rr.r * 7 + cc.c * 11) % 100 // 20 + 1)
       + 2 * ((c_custkey * 5 + rr.r * 13 + cc.c * 3) % 100 // 20 + 1)
       + 1 * ((c_custkey + rr.r * 2 + cc.c * 17) % 100 // 20 + 1) AS score
  FROM customer, range(0, 16) rr(r), range(0, 16) cc(c)
)
SELECT printf('g%06d', k) AS geom_id,
       CAST(score AS BIGINT) AS score,
       CAST(COUNT(*) AS BIGINT) AS n_px
FROM g GROUP BY k, score
"""
    # sun_hours: the four azimuths are four strictly-preceding window
    # maxes over the same m = q*z + p*(coord along the ray) with the
    # matching partition/order; flips use the mirrored coordinate
    sql["sun_hours"] = """
WITH g AS (
  SELECT c_custkey AS k, rr.r AS r, cc.c AS c,
         c_custkey % 5 AS p, c_custkey % 3 + 1 AS q,
         ( (c_custkey % 3 - 1) * rr.r * rr.r
         + (c_custkey % 4 - 1) * cc.c * cc.c
         + (c_custkey % 5 - 2) * rr.r * cc.c
         + (c_custkey % 7) * rr.r + (c_custkey % 11 - 5) * cc.c ) AS z
  FROM customer, range(0, 16) rr(r), range(0, 16) cc(c)
),
s AS (
  SELECT k, r, c, z,
         (COALESCE(MAX(q * z + p * c) OVER (
            PARTITION BY k, r ORDER BY c
            ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING),
            -4611686018427387904) > q * z + p * c)::INT
       + (COALESCE(MAX(q * z + p * (15 - c)) OVER (
            PARTITION BY k, r ORDER BY c DESC
            ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING),
            -4611686018427387904) > q * z + p * (15 - c))::INT
       + (COALESCE(MAX(q * z + p * r) OVER (
            PARTITION BY k, c ORDER BY r
            ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING),
            -4611686018427387904) > q * z + p * r)::INT
       + (COALESCE(MAX(q * z + p * (15 - r)) OVER (
            PARTITION BY k, c ORDER BY r DESC
            ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING),
            -4611686018427387904) > q * z + p * (15 - r))::INT
         AS n_shadow
  FROM g
)
SELECT printf('g%06d', k) AS geom_id,
       CAST(4 - n_shadow AS BIGINT) AS n_lit,
       CAST(COUNT(*) AS BIGINT) AS n_px,
       CAST(SUM(z) AS BIGINT) AS sum_z
FROM s GROUP BY k, n_shadow
"""
    sql["cast_shadows"] = """
WITH g AS (
  SELECT c_custkey AS k, rr.r AS r, cc.c AS c,
         ( (c_custkey % 3 - 1) * rr.r * rr.r
         + (c_custkey % 4 - 1) * cc.c * cc.c
         + (c_custkey % 5 - 2) * rr.r * cc.c
         + (c_custkey % 7) * rr.r + (c_custkey % 11 - 5) * cc.c ) AS z
  FROM customer, range(0, 16) rr(r), range(0, 16) cc(c)
),
m AS (
  SELECT k, r, c, z,
         (c_custkey_q * z + c_custkey_p * c) AS mv
  FROM (SELECT *, k % 3 + 1 AS c_custkey_q, k % 5 AS c_custkey_p FROM g)
),
s AS (
  SELECT k, r, c, z,
         MAX(mv) OVER (PARTITION BY k, r ORDER BY c
                       ROWS BETWEEN UNBOUNDED PRECEDING
                       AND 1 PRECEDING) > mv AS shadowed
  FROM m
)
SELECT printf('g%06d', k) AS geom_id,
       CAST(COUNT(*) FILTER (shadowed) AS BIGINT) AS n_shadow,
       CAST(COALESCE(SUM(z) FILTER (shadowed), 0) AS BIGINT)
           AS sum_z_shadow
FROM s GROUP BY k
"""
    # point_density: value-exact pure-INTEGER — the disk count is a
    # points x cells range join; zero-density cells can't win the
    # argmax (64 points guarantee a positive peak)
    sql["point_density"] = """
WITH pts AS (
  SELECT c_custkey AS k,
         (c_custkey * j.j) % 16 AS pr,
         (c_custkey + 3 * j.j) % 16 AS pc
  FROM customer, range(0, 64) j(j)
),
d AS (
  SELECT k, rr.r AS r, cc.c AS c, COUNT(*) AS cnt
  FROM pts, range(0, 16) rr(r), range(0, 16) cc(c)
  WHERE (rr.r - pr) * (rr.r - pr) + (cc.c - pc) * (cc.c - pc) <= 8
  GROUP BY k, rr.r, cc.c
),
best AS (
  SELECT k, r, c, cnt FROM d
  QUALIFY row_number() OVER (PARTITION BY k ORDER BY cnt DESC, r, c) = 1
),
tot AS (SELECT k, SUM(cnt) AS s, MAX(cnt) AS m FROM d GROUP BY k)
SELECT printf('g%06d', tot.k) AS geom_id,
       CAST(tot.s AS BIGINT) AS sum_dens,
       CAST(tot.m AS BIGINT) AS max_dens,
       CAST(best.r AS BIGINT) AS arg_r,
       CAST(best.c AS BIGINT) AS arg_c
FROM tot JOIN best ON tot.k = best.k
"""
    # twi: on the due-north parabolic ramp the TWI comparison
    # 64*A^2 >= t^2*S2 telescopes to 16 - r >= 2t(r + m); each interior
    # row carries 14 Horn-valid columns
    sql["twi"] = """
WITH rws AS (
  SELECT c_custkey AS k, c_custkey % 5 + 1 AS m, rr.r AS r
  FROM customer, range(1, 15) rr(r)
),
b AS (
  SELECT k, r,
         SUM(CASE WHEN 16 - r >= 2 * t.t * (r + m) THEN 1 ELSE 0 END) AS bin
  FROM rws, (VALUES (1), (2), (4), (8), (16)) t(t)
  GROUP BY k, r
)
SELECT printf('g%06d', k) AS geom_id,
       CAST(bin AS BIGINT) AS bin,
       CAST(14 * COUNT(*) AS BIGINT) AS n_px
FROM b GROUP BY k, bin
"""
    # seg_intersect: d1..d4 orientation cross products + collinear
    # bounding-box touch tests, replayed per (A, B) pair
    sql["seg_intersect"] = """
WITH segs AS (
  SELECT c_custkey AS k, i.i AS i,
         2 * i.i AS ax0, (c_custkey * 3 + i.i * 5) % 16 AS ay0,
         2 * i.i + 3 AS ax1, (c_custkey + 7 * i.i) % 16 AS ay1,
         (c_custkey + i.i) % 16 AS bx0, 2 * i.i AS by0,
         (c_custkey * 5 + i.i * 3) % 16 AS bx1, 2 * i.i + 3 AS by1
  FROM customer, range(0, 8) i(i)
),
pairs AS (
  SELECT a.k, a.i AS ai,
         (a.ax0 - b.bx0) * (b.by1 - b.by0)
           - (a.ay0 - b.by0) * (b.bx1 - b.bx0) AS d1,
         (a.ax1 - b.bx0) * (b.by1 - b.by0)
           - (a.ay1 - b.by0) * (b.bx1 - b.bx0) AS d2,
         (b.bx0 - a.ax0) * (a.ay1 - a.ay0)
           - (b.by0 - a.ay0) * (a.ax1 - a.ax0) AS d3,
         (b.bx1 - a.ax0) * (a.ay1 - a.ay0)
           - (b.by1 - a.ay0) * (a.ax1 - a.ax0) AS d4,
         a.ax0, a.ay0, a.ax1, a.ay1, b.bx0, b.by0, b.bx1, b.by1
  FROM segs a JOIN segs b ON a.k = b.k
),
hit AS (
  SELECT k, ai,
         ( ((d1 > 0 AND d2 < 0) OR (d1 < 0 AND d2 > 0))
           AND ((d3 > 0 AND d4 < 0) OR (d3 < 0 AND d4 > 0)) )
         OR (d1 = 0 AND ax0 BETWEEN LEAST(bx0, bx1) AND GREATEST(bx0, bx1)
                     AND ay0 BETWEEN LEAST(by0, by1) AND GREATEST(by0, by1))
         OR (d2 = 0 AND ax1 BETWEEN LEAST(bx0, bx1) AND GREATEST(bx0, bx1)
                     AND ay1 BETWEEN LEAST(by0, by1) AND GREATEST(by0, by1))
         OR (d3 = 0 AND bx0 BETWEEN LEAST(ax0, ax1) AND GREATEST(ax0, ax1)
                     AND by0 BETWEEN LEAST(ay0, ay1) AND GREATEST(ay0, ay1))
         OR (d4 = 0 AND bx1 BETWEEN LEAST(ax0, ax1) AND GREATEST(ax0, ax1)
                     AND by1 BETWEEN LEAST(ay0, ay1) AND GREATEST(ay0, ay1))
         AS x
  FROM pairs
),
per_a AS (SELECT k, ai, SUM(CASE WHEN x THEN 1 ELSE 0 END) AS h
          FROM hit GROUP BY k, ai)
SELECT printf('g%06d', k) AS geom_id,
       CAST(SUM(h) AS BIGINT) AS n_pairs,
       CAST(MAX(h) AS BIGINT) AS max_hits,
       CAST(SUM(CASE WHEN h > 0 THEN 1 ELSE 0 END) AS BIGINT) AS n_a_hit
FROM per_a GROUP BY k
"""
    # landscape: rook adjacencies as two shifted-pair scans; core =
    # interior cells whose four rook neighbors share the class
    sql["landscape"] = """
WITH g AS (
  SELECT c_custkey AS k, rr.r AS r, cc.c AS c,
         (c_custkey + 2 * rr.r + 3 * cc.c) % 5 AS cls
  FROM customer, range(0, 16) rr(r), range(0, 16) cc(c)
),
hpairs AS (
  SELECT a.k, a.cls AS ca, b.cls AS cb
  FROM g a JOIN g b ON b.k = a.k AND b.r = a.r AND b.c = a.c + 1
  WHERE a.cls <> b.cls
),
vpairs AS (
  SELECT a.k, a.cls AS ca, b.cls AS cb
  FROM g a JOIN g b ON b.k = a.k AND b.c = a.c AND b.r = a.r + 1
  WHERE a.cls <> b.cls
),
sides AS (
  SELECT k, ca AS cls FROM hpairs UNION ALL SELECT k, cb FROM hpairs
  UNION ALL SELECT k, ca FROM vpairs UNION ALL SELECT k, cb FROM vpairs
),
edge AS (SELECT k, cls, COUNT(*) AS e FROM sides GROUP BY k, cls),
core AS (
  SELECT m.k, m.cls, COUNT(*) AS nc
  FROM g m
  JOIN g up ON up.k = m.k AND up.c = m.c AND up.r = m.r - 1
  JOIN g dn ON dn.k = m.k AND dn.c = m.c AND dn.r = m.r + 1
  JOIN g lf ON lf.k = m.k AND lf.r = m.r AND lf.c = m.c - 1
  JOIN g rt ON rt.k = m.k AND rt.r = m.r AND rt.c = m.c + 1
  WHERE up.cls = m.cls AND dn.cls = m.cls
    AND lf.cls = m.cls AND rt.cls = m.cls
  GROUP BY m.k, m.cls
)
SELECT printf('g%06d', g.k) AS geom_id,
       CAST(g.cls AS BIGINT) AS class,
       CAST(COUNT(*) AS BIGINT) AS n_px,
       CAST(COALESCE(MAX(edge.e), 0) AS BIGINT) AS edge_len,
       CAST(COALESCE(MAX(core.nc), 0) AS BIGINT) AS n_core
FROM g
LEFT JOIN edge ON edge.k = g.k AND edge.cls = g.cls
LEFT JOIN core ON core.k = g.k AND core.cls = g.cls
GROUP BY g.k, g.cls
"""
    # flow_weighted: on the due-north ramp, acc(r,c) = sum of w(r',c)
    # for r' > r — a per-column suffix window SUM
    sql["flow_weighted"] = """
WITH g AS (
  SELECT c_custkey AS k, rr.r AS r, cc.c AS c,
         (c_custkey + 3 * rr.r + 5 * cc.c) % 11 AS w
  FROM customer, range(0, 16) rr(r), range(0, 16) cc(c)
),
a AS (
  SELECT k, r, c,
         COALESCE(SUM(w) OVER (PARTITION BY k, c ORDER BY r
                  ROWS BETWEEN 1 FOLLOWING AND UNBOUNDED FOLLOWING),
                  0) AS acc
  FROM g
)
SELECT printf('g%06d', k) AS geom_id,
       CAST(SUM(acc) AS BIGINT) AS acc_total,
       CAST(MAX(CASE WHEN r = 0 AND c = k % 16 THEN acc END) AS BIGINT)
           AS acc_top,
       CAST(MAX(CASE WHEN r = k % 13 AND c = 15 THEN acc END) AS BIGINT)
           AS acc_probe
FROM a GROUP BY k
"""
    # hull: extreme-point characterization — p is NOT a hull vertex iff
    # it lies in a non-degenerate triangle of other distinct points
    # (inside-or-on via three same-sign cross products) or on a segment
    # between two of them (zero cross + non-positive dot)
    sql["hull"] = """
WITH raw AS (
  SELECT c_custkey AS k,
         (c_custkey * j.j) % 16 AS x,
         (c_custkey + 3 * j.j) % 16 AS y
  FROM customer, range(0, 16) j(j)
),
pts AS (SELECT DISTINCT k, x, y FROM raw),
ext AS (
  SELECT p.k, p.x, p.y,
         NOT EXISTS (
           SELECT 1 FROM pts a, pts b, pts c
           WHERE a.k = p.k AND b.k = p.k AND c.k = p.k
             AND (a.x, a.y) <> (p.x, p.y)
             AND (b.x, b.y) <> (p.x, p.y)
             AND (c.x, c.y) <> (p.x, p.y)
             AND (b.x - a.x) * (c.y - a.y)
               - (b.y - a.y) * (c.x - a.x) <> 0
             AND ( ( (b.x-a.x)*(p.y-a.y) - (b.y-a.y)*(p.x-a.x) >= 0
                 AND (c.x-b.x)*(p.y-b.y) - (c.y-b.y)*(p.x-b.x) >= 0
                 AND (a.x-c.x)*(p.y-c.y) - (a.y-c.y)*(p.x-c.x) >= 0 )
                OR ( (b.x-a.x)*(p.y-a.y) - (b.y-a.y)*(p.x-a.x) <= 0
                 AND (c.x-b.x)*(p.y-b.y) - (c.y-b.y)*(p.x-b.x) <= 0
                 AND (a.x-c.x)*(p.y-c.y) - (a.y-c.y)*(p.x-c.x) <= 0 ) )
         )
         AND NOT EXISTS (
           SELECT 1 FROM pts q, pts r2
           WHERE q.k = p.k AND r2.k = p.k
             AND (q.x, q.y) <> (p.x, p.y)
             AND (r2.x, r2.y) <> (p.x, p.y)
             AND (r2.x - q.x) * (p.y - q.y)
               - (r2.y - q.y) * (p.x - q.x) = 0
             AND (p.x - q.x) * (p.x - r2.x)
               + (p.y - q.y) * (p.y - r2.y) <= 0
         ) AS is_ext
  FROM pts p
)
SELECT printf('g%06d', k) AS geom_id,
       CAST(COUNT(*) AS BIGINT) AS n_pts,
       CAST(SUM(CASE WHEN is_ext THEN 1 ELSE 0 END) AS BIGINT) AS n_hull,
       CAST(SUM(CASE WHEN is_ext THEN x ELSE 0 END) AS BIGINT) AS sum_hx,
       CAST(SUM(CASE WHEN is_ext THEN y ELSE 0 END) AS BIGINT) AS sum_hy
FROM ext GROUP BY k
"""
    # std_ellipse: n-scaled central second moments of the point cloud,
    # pure integer aggregation over the generated points
    sql["std_ellipse"] = """
WITH pts AS (
  SELECT c_custkey AS k,
         (c_custkey * j.j) % 16 AS x,
         (c_custkey + 3 * j.j) % 16 AS y
  FROM customer, range(0, 64) j(j)
)
SELECT printf('g%06d', k) AS geom_id,
       CAST(COUNT(*) AS BIGINT) AS n,
       CAST(SUM(x) AS BIGINT) AS sum_x,
       CAST(SUM(y) AS BIGINT) AS sum_y,
       CAST(COUNT(*) * SUM(x * x) - SUM(x) * SUM(x) AS BIGINT) AS sxx,
       CAST(COUNT(*) * SUM(y * y) - SUM(y) * SUM(y) AS BIGINT) AS syy,
       CAST(COUNT(*) * SUM(x * y) - SUM(x) * SUM(y) AS BIGINT) AS sxy
FROM pts GROUP BY k
"""
    # quadrat: counts per 4x4 quadrat (side 4) of the 16x16 domain;
    # empty quadrats contribute 0 to sum_c2, so the nonempty GROUP BY
    # suffices; vmr_num = 16*sum(c^2) - n^2
    sql["quadrat"] = """
WITH pts AS (
  SELECT c_custkey AS k,
         (c_custkey * j.j) % 16 AS x,
         (c_custkey + 3 * j.j) % 16 AS y
  FROM customer, range(0, 64) j(j)
),
cells AS (
  SELECT k, (y // 4) * 4 + (x // 4) AS cell, COUNT(*) AS c
  FROM pts GROUP BY k, (y // 4) * 4 + (x // 4)
)
SELECT printf('g%06d', k) AS geom_id,
       CAST(SUM(c) AS BIGINT) AS n,
       CAST(SUM(c * c) AS BIGINT) AS sum_c2,
       CAST(MAX(c) AS BIGINT) AS max_c,
       CAST(16 * SUM(c * c) - SUM(c) * SUM(c) AS BIGINT) AS vmr_num
FROM cells GROUP BY k
"""
    # ripley_k: unordered pair counts within each squared radius via a
    # j1 < j2 self-join on the generated cloud
    sql["ripley_k"] = """
WITH pts AS (
  SELECT c_custkey AS k, j.j AS j,
         (c_custkey * j.j) % 16 AS x,
         (c_custkey + 3 * j.j) % 16 AS y
  FROM customer, range(0, 64) j(j)
),
r2s AS (SELECT * FROM (VALUES (2), (8), (18), (32)) t(r2))
SELECT printf('g%06d', a.k) AS geom_id,
       CAST(r2s.r2 AS BIGINT) AS r2,
       CAST(SUM(CASE WHEN (a.x - b.x) * (a.x - b.x)
                        + (a.y - b.y) * (a.y - b.y) <= r2s.r2
                     THEN 1 ELSE 0 END) AS BIGINT) AS pairs
FROM pts a JOIN pts b ON a.k = b.k AND a.j < b.j, r2s
GROUP BY a.k, r2s.r2
"""
    # kernel_density: value-exact pure-INTEGER — the quartic numerator
    # w * (8 - d2)^2 is a weighted points x cells range join; the peak
    # is positive (every point contributes 64*w to its own cell) so
    # zero cells can't win the argmax
    sql["kernel_density"] = """
WITH pts AS (
  SELECT c_custkey AS k,
         (c_custkey * j.j) % 16 AS pr,
         (c_custkey + 3 * j.j) % 16 AS pc,
         (c_custkey * 7 + j.j) % 5 + 1 AS w
  FROM customer, range(0, 64) j(j)
),
d AS (
  SELECT k, rr.r AS r, cc.c AS c,
         SUM(w * (8 - (rr.r - pr) * (rr.r - pr) - (cc.c - pc) * (cc.c - pc))
               * (8 - (rr.r - pr) * (rr.r - pr) - (cc.c - pc) * (cc.c - pc))) AS cnt
  FROM pts, range(0, 16) rr(r), range(0, 16) cc(c)
  WHERE (rr.r - pr) * (rr.r - pr) + (cc.c - pc) * (cc.c - pc) <= 8
  GROUP BY k, rr.r, cc.c
),
best AS (
  SELECT k, r, c, cnt FROM d
  QUALIFY row_number() OVER (PARTITION BY k ORDER BY cnt DESC, r, c) = 1
),
tot AS (SELECT k, SUM(cnt) AS s, MAX(cnt) AS m FROM d GROUP BY k)
SELECT printf('g%06d', tot.k) AS geom_id,
       CAST(tot.s AS BIGINT) AS sum_dens,
       CAST(tot.m AS BIGINT) AS max_dens,
       CAST(best.r AS BIGINT) AS arg_r,
       CAST(best.c AS BIGINT) AS arg_c
FROM tot JOIN best ON tot.k = best.k
"""
    # otsu: value-exact — the rational criterion num^2/den is compared
    # through the EXACT float64 (num^2 < 2^53); ties -> smallest
    # present value, largest value excluded (empty upper class)
    sql["otsu"] = """
WITH px AS (
  SELECT c_custkey AS k,
         CASE WHEN i.i < 160 THEN (c_custkey + i.i) % 64
              ELSE 128 + (3 * c_custkey + i.i) % 64 END AS v
  FROM customer, range(0, 256) i(i)
),
h AS (SELECT k, v, COUNT(*) AS n, SUM(v) AS sv FROM px GROUP BY k, v),
tk AS (SELECT k, SUM(n) AS nn, SUM(sv) AS tot FROM h GROUP BY k),
c AS (
  SELECT h.k, h.v,
         SUM(h.n) OVER (PARTITION BY h.k ORDER BY h.v) AS p,
         SUM(h.sv) OVER (PARTITION BY h.k ORDER BY h.v) AS s,
         tk.nn, tk.tot
  FROM h JOIN tk ON h.k = tk.k
),
r AS (
  SELECT k, v, p, s,
         CAST((nn * s - tot * p) * (nn * s - tot * p) AS DOUBLE)
             / (p * (nn - p)) AS crit
  FROM c WHERE p < nn
)
SELECT printf('g%06d', k) AS geom_id,
       CAST(v AS BIGINT) AS t_star,
       CAST(p AS BIGINT) AS n_below,
       CAST(s AS BIGINT) AS sum_below
FROM r
QUALIFY row_number() OVER (PARTITION BY k ORDER BY crit DESC, v ASC) = 1
"""
    # rank_filter: value-exact pure-INTEGER — window order statistic
    # = z(center) + order statistic of {0} u {d_i}; the 9-pair list
    # includes (0,0) whose analytic d is identically 0
    sql["rank_filter"] = """
WITH n(dr, dc) AS (VALUES (-1,-1),(-1,0),(-1,1),(0,-1),(0,0),
                          (0,1),(1,-1),(1,0),(1,1)),
g AS (
  SELECT c_custkey AS k, rr.r AS r, cc.c AS c,
         ( (c_custkey % 3 - 1) * rr.r * rr.r
         + (c_custkey % 4 - 1) * cc.c * cc.c
         + (c_custkey % 5 - 2) * rr.r * cc.c
         + (c_custkey % 7) * rr.r + (c_custkey % 11 - 5) * cc.c ) AS zc,
         ( (c_custkey % 3 - 1) * (2 * rr.r * n.dr + n.dr * n.dr)
         + (c_custkey % 4 - 1) * (2 * cc.c * n.dc + n.dc * n.dc)
         + (c_custkey % 5 - 2) * (rr.r * n.dc + cc.c * n.dr + n.dr * n.dc)
         + (c_custkey % 7) * n.dr + (c_custkey % 11 - 5) * n.dc ) AS d
  FROM customer, range(1, 15) rr(r), range(1, 15) cc(c), n
),
w AS (
  SELECT k, r, c, zc,
         quantile_disc(d, 0.5) AS med, MIN(d) AS mn, MAX(d) AS mx
  FROM g GROUP BY k, r, c, zc
)
SELECT printf('g%06d', k) AS geom_id,
       CAST(SUM(zc + med) AS BIGINT) AS sum_median,
       CAST(SUM(zc + mn) AS BIGINT) AS sum_erode,
       CAST(SUM(zc + mx) AS BIGINT) AS sum_dilate
FROM w GROUP BY k
"""
    # tophat: two chained 3x3 order-statistic passes as self-joins on
    # the quadric grid — e/dl on rows 1..14, opening/closing on 2..13
    sql["tophat"] = """
WITH n(dr, dc) AS (VALUES (-1,-1),(-1,0),(-1,1),(0,-1),(0,0),
                          (0,1),(1,-1),(1,0),(1,1)),
g AS (
  SELECT c_custkey AS k, rr.r AS r, cc.c AS c,
         ( (c_custkey % 3 - 1) * rr.r * rr.r
         + (c_custkey % 4 - 1) * cc.c * cc.c
         + (c_custkey % 5 - 2) * rr.r * cc.c
         + (c_custkey % 7) * rr.r + (c_custkey % 11 - 5) * cc.c ) AS z
  FROM customer, range(0, 16) rr(r), range(0, 16) cc(c)
),
e AS (
  SELECT g.k, g.r, g.c, MIN(g2.z) AS ero, MAX(g2.z) AS dil
  FROM g JOIN n ON TRUE
  JOIN g g2 ON g2.k = g.k AND g2.r = g.r + n.dr AND g2.c = g.c + n.dc
  WHERE g.r BETWEEN 1 AND 14 AND g.c BETWEEN 1 AND 14
  GROUP BY g.k, g.r, g.c
),
o AS (
  SELECT e.k, e.r, e.c, MAX(e2.ero) AS opn, MIN(e2.dil) AS cls
  FROM e JOIN n ON TRUE
  JOIN e e2 ON e2.k = e.k AND e2.r = e.r + n.dr AND e2.c = e.c + n.dc
  WHERE e.r BETWEEN 2 AND 13 AND e.c BETWEEN 2 AND 13
  GROUP BY e.k, e.r, e.c
),
th AS (
  SELECT o.k, g.z - o.opn AS wth, o.cls - g.z AS bth
  FROM o JOIN g ON g.k = o.k AND g.r = o.r AND g.c = o.c
)
SELECT printf('g%06d', k) AS geom_id,
       CAST(SUM(wth) AS BIGINT) AS wth_sum,
       CAST(MAX(wth) AS BIGINT) AS wth_max,
       CAST(SUM(CASE WHEN wth > 0 THEN 1 ELSE 0 END) AS BIGINT) AS n_wth_pos,
       CAST(SUM(bth) AS BIGINT) AS bth_sum,
       CAST(MAX(bth) AS BIGINT) AS bth_max,
       CAST(SUM(CASE WHEN bth > 0 THEN 1 ELSE 0 END) AS BIGINT) AS n_bth_pos
FROM th GROUP BY k
"""
    # fill_sinks: value-exact pure-INTEGER — the pit fills to its
    # lowest rim a+2p-3; the filled total is constant: ramp sum 5760
    # minus the carved 9 cells plus 9*spill telescopes to 5706
    sql["fill_sinks"] = """
SELECT printf('g%06d', c_custkey) AS geom_id,
       CAST(c_custkey % 6 + 2 * (c_custkey % 7) + 3 AS BIGINT)
           AS spill_level,
       CAST(5706 AS BIGINT) AS filled_sum,
       CAST(9 AS BIGINT) AS n_filled
FROM customer
"""
    # flow_tiled: value-exact pure-INTEGER — the ramp's accumulation
    # telescopes per tile: acc(r>0,c) = 63-r, acc(0,c) = 63+64*(63-c);
    # tile sums are the closed forms below (derived in q_flow_tiled's
    # docstring; bit-equality with the single-array kernel is pytest-
    # proven separately)
    sql["flow_tiled"] = """
SELECT CAST(tyr.v AS BIGINT) AS ty,
       CAST(txr.v AS BIGINT) AS tx,
       CAST(CASE WHEN tyr.v > 0 THEN 63 - 16 * tyr.v
                 ELSE 63 + 64 * (63 - 16 * txr.v) END
            AS BIGINT) AS acc_corner,
       CAST(CASE WHEN tyr.v > 0 THEN 16 * (888 - 256 * tyr.v)
                 ELSE 14208 + 64 * (888 - 256 * txr.v) END
            AS BIGINT) AS acc_sum
FROM range(0, 4) tyr(v), range(0, 4) txr(v)
"""
    # viewshed: value-exact pure-INTEGER — per post-wall column the
    # strict-blocking comparison is column-constant, so the cone count
    # telescopes: cone(c) = 2c+1 (c <= 7) else 16; pre-wall/wall
    # columns all visible; post-wall visible iff c*(3-wh) >= 3p
    sql["viewshed"] = """
WITH s AS (
  SELECT c_custkey AS k,
         c_custkey % 10 + 2 AS p, c_custkey % 5 + 1 AS wh
  FROM customer
),
cols AS (
  SELECT k, p, wh, CAST(t.col AS BIGINT) AS col,
         CASE WHEN t.col <= 7 THEN 2 * t.col + 1 ELSE 16 END AS cone
  FROM s, range(1, 16) t(col)
)
SELECT printf('g%06d', k) AS geom_id,
       CAST(SUM(CASE WHEN col <= p THEN cone
                     WHEN col * (3 - wh) >= 3 * p THEN cone
                     ELSE 0 END) AS BIGINT) AS n_vis_cone,
       CAST(SUM(cone) AS BIGINT) AS n_cone
FROM cols
GROUP BY k
"""
    # hist_match: value-exact pure-INTEGER — the affine permutation
    # keeps all 256 values present, so matching maps v -> 3*v + 7 and
    # the image total is the constant 3*sum(0..255) + 256*7 = 99712
    sql["hist_match"] = """
SELECT printf('g%06d', c_custkey) AS geom_id,
       CAST(3 * (((c_custkey % 256) * (2 * (c_custkey % 8) + 1)
                  + c_custkey) % 256) + 7 AS BIGINT) AS matched_probe,
       CAST(99712 AS BIGINT) AS matched_sum
FROM customer
"""
    # pansharpen: value-exact pure-INTEGER — ratio is exactly 2, so
    # out[b][i] = 2*(b+1)*(i+1) and the total is 12*sum(1..256)
    sql["pansharpen"] = """
SELECT printf('g%06d', c_custkey) AS geom_id,
       CAST(2 * (c_custkey % 3 + 1) * (c_custkey % 200 + 1)
            AS BIGINT) AS sharp_probe,
       CAST(394752 AS BIGINT) AS sharp_sum
FROM customer
"""
    # gcp_affine: value-exact pure-INTEGER — exact-fit tie points make
    # the least-squares recovery the constructed affine (rms 0); all
    # parameters integral so the 1/8 quantization is exact
    sql["gcp_affine"] = """
SELECT printf('g%06d', c_custkey) AS geom_id,
       CAST(8 * (c_custkey % 5 - 2) AS BIGINT) AS a8,
       CAST(8 * (c_custkey % 3 - 1) AS BIGINT) AS b8,
       CAST(8 * (c_custkey % 7) AS BIGINT) AS c8,
       CAST(8 * (c_custkey % 4 - 2) AS BIGINT) AS d8,
       CAST(8 * (c_custkey % 6 + 1) AS BIGINT) AS e8,
       CAST(-8 * (c_custkey % 8) AS BIGINT) AS f8,
       CAST(0 AS BIGINT) AS rms8,
       CAST(9 AS BIGINT) AS n_points
FROM customer
"""
    # template_match: value-exact pure-INTEGER — the stamped window is
    # the unique NCC=1 peak (checkerboard ⟂ planar ramp), so position
    # and 1/8-quantized score are key formulas
    sql["template_match"] = """
SELECT printf('g%06d', c_custkey) AS geom_id,
       CAST(c_custkey % 12 AS BIGINT) AS peak_r,
       CAST(c_custkey % 11 AS BIGINT) AS peak_c,
       CAST(8 AS BIGINT) AS score_8,
       CAST(169 AS BIGINT) AS n_pos
FROM customer
"""
    # coregister: value-exact pure-INTEGER — the recovered shift is
    # the constructed (k%5-2, k%7-3); all 35 combos proven in pytest
    sql["coregister"] = """
SELECT printf('g%06d', c_custkey) AS geom_id,
       CAST(c_custkey % 5 - 2 AS BIGINT) AS dr,
       CAST(c_custkey % 7 - 3 AS BIGINT) AS dc,
       CAST(8 AS BIGINT) AS score_8
FROM customer
"""
    # bil_roundtrip: golden VALUES — full-image sums; the half-cell
    # center<->corner fp round-trip lands back on the exact lattice
    # origins (pinned by one sequential run; fixed IEEE op order)
    sql["bil_roundtrip"] = """
SELECT * FROM (VALUES
  ('img00000000', 1248532, -12400, 4400),
  ('img00000001', 1251559, -12350, 4400)
) AS t(image_id, px_sum, x0_cm, y0_cm)
"""
    # hgt_roundtrip: golden VALUES — 65x65 crop sums plus the floor-cm
    # corners the FILENAME convention implies (N37W105 / S09E112 with a
    # dyadic 1/64-deg cell; sequential compute pinned in test_srtm)
    sql["hgt_roundtrip"] = """
SELECT * FROM (VALUES
  ('img00000000', 529336, -10501, 3800),
  ('img00000001', 530795, 11199, -800)
) AS t(image_id, px_sum, x0_cm, y0_cm)
"""
    sql["zarr_shard"] = """
SELECT * FROM (VALUES
  ('img00000000', 1248532, -12400, 4400),
  ('img00000001', 1251559, -12350, 4400)
) AS t(image_id, px_sum, x0_cm, y0_cm)
"""
    sql["zarr_v3"] = """
SELECT * FROM (VALUES
  ('img00000000', 1248532, -12400, 4400),
  ('img00000001', 1251559, -12350, 4400)
) AS t(image_id, px_sum, x0_cm, y0_cm)
"""

    # tiff_window: golden VALUES — exact pixel sum and floor-cm origin of
    # the (30,20,40,60) window of each oracle image (sequential compute)
    sql["tiff_window"] = """
SELECT * FROM (VALUES
  ('img00000000', 300732, -12380, 4370),
  ('img00000001', 299079, -12330, 4370)
) AS t(image_id, px_sum, x0_cm, y0_cm)
"""

    # zarr_tiles: golden VALUES — image 0's tiles at level 8 land in 4
    # chunks with exact integer pixel sums (computed sequentially once)
    sql["zarr_tiles"] = """
SELECT * FROM (VALUES
  (65, 39, 125943), (65, 40, 389872), (66, 39, 189164), (66, 40, 569064)
) AS t(iy, ix, px_sum)
"""

    # winnow_fp: golden fingerprints from the sequential winnowing reference
    sql["winnow_fp"] = f"""
SELECT doc_id, pos, fp
FROM read_parquet('{_winnow_golden_path()}')
WHERE corpus_fp = (SELECT SUM(length(text)) FROM documents)
"""

    # pq_ann: golden top-k from the sequential global-shortlist reference
    sql["pq_ann"] = f"""
SELECT query_idx, rank, vec_id, dist
FROM read_parquet('{_pqann_golden_path()}')
WHERE fp = (SELECT COUNT(*) FROM lineitem)
"""

    # cosine_near: golden pairs from the sequential bucket+verify reference
    sql["cosine_near"] = f"""
SELECT a, b, cosine
FROM read_parquet('{_cosnear_golden_path()}')
WHERE fp = (SELECT COUNT(*) FROM lineitem)
"""

    # lsh_ann / ivf_ann: golden top-k from the sequential references
    sql["lsh_ann"] = f"""
SELECT CAST(query_idx AS INTEGER) AS query_idx, CAST(rank AS INTEGER) AS rank,
       vec_id, score
FROM read_parquet('{_annapprox_golden_path()}')
WHERE algo = 'lsh' AND fp = (SELECT COUNT(*) FROM lineitem)
"""

    sql["ivf_ann"] = f"""
SELECT CAST(query_idx AS INTEGER) AS query_idx, CAST(rank AS INTEGER) AS rank,
       vec_id, score
FROM read_parquet('{_annapprox_golden_path()}')
WHERE algo = 'ivf' AND fp = (SELECT COUNT(*) FROM lineitem)
"""

    # cluster_assign: golden assignment from sequential fixed-point k-means
    sql["cluster_assign"] = f"""
SELECT vec_id, cluster
FROM read_parquet('{_kmeans_golden_path()}')
WHERE fp = (SELECT COUNT(*) FROM lineitem)
"""

    # pq_codes: golden codes from the sequential fixed-point PQ reference
    sql["pq_codes"] = f"""
SELECT vec_id, m, code
FROM read_parquet('{_pq_golden_path()}')
WHERE fp = (SELECT COUNT(*) FROM lineitem)
"""

    # bpe_merges: golden merge sequence from the sequential trainer
    sql["bpe_merges"] = f"""
SELECT merge_idx, "left", "right", n
FROM read_parquet('{_bpe_golden_path()}')
WHERE fp = (SELECT SUM(length(text)) FROM documents)
"""

    # transform_utm: GENERATED SQL — the engine's exact Karney n^6 series
    # (proj/transverse_mercator.py) with literal alpha coefficients;
    # hyperbolics expanded via exp/ln. Residual engine-vs-DuckDB drift is
    # libm last-ulp noise (~1e-8 m), absorbed by the floor-cm outputs.
    from rasters_ray.proj import transverse_mercator as _tmu

    def _dl(v: float) -> str:  # double literal (bare decimals parse as DECIMAL)
        return f"CAST({float(v)!r} AS DOUBLE)"

    _pi_l, _2pi_l = "3.141592653589793e0", "6.283185307179586e0"
    _es = _dl(float(_tmu._E_SQRT))
    _k0a = _dl(float(_tmu.K0 * _tmu._A_RECT))
    _eta_terms = " + ".join(
        f"{_dl(float(_tmu._ALPHA[j - 1]))} * cos({_dl(2.0 * j)} * xip)"
        f" * ((exp({_dl(2.0 * j)} * etap) - exp(-({_dl(2.0 * j)}) * etap)) / 2.0e0)"
        for j in range(1, 7)
    )
    _xi_terms = " + ".join(
        f"{_dl(float(_tmu._ALPHA[j - 1]))} * sin({_dl(2.0 * j)} * xip)"
        f" * ((exp({_dl(2.0 * j)} * etap) + exp(-({_dl(2.0 * j)}) * etap)) / 2.0e0)"
        for j in range(1, 7)
    )
    sql["transform_utm"] = f"""
WITH {_PTS_CTE.strip()},
s1 AS (
  SELECT point_id,
         sin(radians(y)) AS sphi,
         fmod(radians(x - (-123.0e0)) + {_pi_l}, {_2pi_l}) - {_pi_l} AS lam
  FROM pts
),
s2 AS (
  SELECT point_id, lam,
         0.5e0 * ln((1.0e0 + sphi) / (1.0e0 - sphi))
           - {_es} * (0.5e0 * ln((1.0e0 + {_es} * sphi) / (1.0e0 - {_es} * sphi))) AS u
  FROM s1
),
s3 AS (SELECT point_id, lam, (exp(u) - exp(-u)) / 2.0e0 AS t FROM s2),
s4 AS (
  SELECT point_id,
         atan2(t, cos(lam)) AS xip,
         0.5e0 * ln((1.0e0 + sin(lam) / sqrt(1.0e0 + t * t))
                    / (1.0e0 - sin(lam) / sqrt(1.0e0 + t * t))) AS etap
  FROM s3
),
s5 AS (
  SELECT point_id,
         etap + {_eta_terms} AS eta,
         xip + {_xi_terms} AS xi
  FROM s4
)
SELECT point_id,
       CAST(floor(({_k0a} * eta + 500000.0e0) * 100.0e0) AS BIGINT) AS easting_cm,
       CAST(floor(({_k0a} * xi) * 100.0e0) AS BIGINT) AS northing_cm,
       TRUE AS roundtrip_ok
FROM s5
"""

    sql["transform_sinu"] = f"""
WITH {_PTS_CTE.strip()}
SELECT point_id,
       CAST(floor(6371007.181e0
            * (fmod(radians(x) + 3.141592653589793e0, 6.283185307179586e0)
               - 3.141592653589793e0)
            * cos(radians(y)) * 100.0e0) AS BIGINT) AS x_cm,
       CAST(floor(6371007.181e0 * radians(y) * 100.0e0) AS BIGINT) AS y_cm,
       TRUE AS roundtrip_ok
FROM pts
"""

    sql["transform_merc"] = f"""
WITH {_PTS_CTE.strip()}
SELECT point_id,
       CAST(floor(6378137.0e0 * radians(x) * 100.0e0) AS BIGINT) AS x_cm,
       CAST(floor(6378137.0e0
            * ln(tan(0.7853981633974483e0 + radians(y) / 2.0e0))
            * 100.0e0) AS BIGINT) AS y_cm,
       TRUE AS roundtrip_ok
FROM pts
"""

    # LCC 2SP: n, F, rho0/a recomputed IN SQL from Snyder 14-15/15-8/15-10
    # with literal WGS84 e, e^2 and the CRS's parallels — fully independent
    # of the engine's lcc_constants
    sql["transform_lcc"] = f"""
WITH {_PTS_CTE.strip()},
prm AS (
  SELECT 0.08181919084262149e0 AS e, 0.0066943799901413165e0 AS e2,
         6378137.0e0 AS a,
         radians(33.0e0) AS p1, radians(45.0e0) AS p2, radians(39.0e0) AS p0
),
mt AS (
  SELECT a, e, e2,
         cos(p1) / sqrt(1.0e0 - e2 * sin(p1) * sin(p1)) AS m1,
         cos(p2) / sqrt(1.0e0 - e2 * sin(p2) * sin(p2)) AS m2,
         tan(0.7853981633974483e0 - p1 / 2.0e0)
           / pow((1.0e0 - e * sin(p1)) / (1.0e0 + e * sin(p1)), e / 2.0e0) AS t1,
         tan(0.7853981633974483e0 - p2 / 2.0e0)
           / pow((1.0e0 - e * sin(p2)) / (1.0e0 + e * sin(p2)), e / 2.0e0) AS t2,
         tan(0.7853981633974483e0 - p0 / 2.0e0)
           / pow((1.0e0 - e * sin(p0)) / (1.0e0 + e * sin(p0)), e / 2.0e0) AS t0
  FROM prm
),
kn AS (
  SELECT a, e, e2, m1, t1, t0,
         (ln(m1) - ln(m2)) / (ln(t1) - ln(t2)) AS n
  FROM mt
),
kf AS (SELECT a, e, e2, n, t0, m1 / (n * pow(t1, n)) AS f FROM kn),
kg AS (SELECT a, e, e2, n, f, f * pow(t0, n) AS rho0_a FROM kf),
pp AS (
  SELECT point_id,
         a * f * pow(
           tan(0.7853981633974483e0 - radians(y) / 2.0e0)
             / pow((1.0e0 - e * sin(radians(y))) / (1.0e0 + e * sin(radians(y))),
                   e / 2.0e0),
           n) AS rho,
         n * (fmod(radians(x - (-96.0e0)) + 3.141592653589793e0,
                   6.283185307179586e0) - 3.141592653589793e0) AS theta,
         a, n, rho0_a
  FROM pts, kg
)
SELECT point_id,
       CAST(floor(rho * sin(theta) * 100.0e0) AS BIGINT) AS x_cm,
       CAST(floor((a * rho0_a - rho * cos(theta)) * 100.0e0) AS BIGINT) AS y_cm,
       TRUE AS roundtrip_ok
FROM pp
"""

    # polar stereographic north, EPSG:3413 (Snyder 21-33..41 in SQL)
    sql["transform_stere"] = f"""
WITH {_PTS_CTE.strip()},
prm AS (
  SELECT 0.08181919084262149e0 AS e, 0.0066943799901413165e0 AS e2,
         6378137.0e0 AS a, radians(70.0e0) AS pc
),
kc AS (
  SELECT a, e, e2,
         cos(pc) / sqrt(1.0e0 - e2 * sin(pc) * sin(pc)) AS mc,
         tan(0.7853981633974483e0 - pc / 2.0e0)
           / pow((1.0e0 - e * sin(pc)) / (1.0e0 + e * sin(pc)), e / 2.0e0) AS tc
  FROM prm
),
pp AS (
  SELECT point_id,
         a * mc / tc * (
           tan(0.7853981633974483e0 - radians(y) / 2.0e0)
             / pow((1.0e0 - e * sin(radians(y))) / (1.0e0 + e * sin(radians(y))),
                   e / 2.0e0)
         ) AS rho,
         fmod(radians(x - (-45.0e0)) + 3.141592653589793e0,
              6.283185307179586e0) - 3.141592653589793e0 AS lam
  FROM pts, kc
)
SELECT point_id,
       CAST(floor(rho * sin(lam) * 100.0e0) AS BIGINT) AS x_cm,
       CAST(floor(-rho * cos(lam) * 100.0e0) AS BIGINT) AS y_cm,
       TRUE AS roundtrip_ok
FROM pp
"""

    # Albers equal-area conic, EPSG:5070 (Snyder 3-12, 14-12..14 in SQL)
    sql["transform_aea"] = f"""
WITH {_PTS_CTE.strip()},
prm AS (
  SELECT 0.08181919084262149e0 AS e, 0.0066943799901413165e0 AS e2,
         6378137.0e0 AS a,
         radians(29.5e0) AS p1, radians(45.5e0) AS p2, radians(23.0e0) AS p0
),
mq AS (
  SELECT a, e, e2,
         cos(p1) / sqrt(1.0e0 - e2 * sin(p1) * sin(p1)) AS m1,
         cos(p2) / sqrt(1.0e0 - e2 * sin(p2) * sin(p2)) AS m2,
         (1.0e0 - e2) * (sin(p1) / (1.0e0 - e2 * sin(p1) * sin(p1))
           - (1.0e0 / (2.0e0 * e))
             * ln((1.0e0 - e * sin(p1)) / (1.0e0 + e * sin(p1)))) AS q1,
         (1.0e0 - e2) * (sin(p2) / (1.0e0 - e2 * sin(p2) * sin(p2))
           - (1.0e0 / (2.0e0 * e))
             * ln((1.0e0 - e * sin(p2)) / (1.0e0 + e * sin(p2)))) AS q2,
         (1.0e0 - e2) * (sin(p0) / (1.0e0 - e2 * sin(p0) * sin(p0))
           - (1.0e0 / (2.0e0 * e))
             * ln((1.0e0 - e * sin(p0)) / (1.0e0 + e * sin(p0)))) AS q0
  FROM prm
),
kn AS (
  SELECT a, e, e2, q0,
         (m1 * m1 - m2 * m2) / (q2 - q1) AS n,
         m1 * m1 + ((m1 * m1 - m2 * m2) / (q2 - q1)) * q1 AS c
  FROM mq
),
kg AS (SELECT a, e, e2, n, c, sqrt(c - n * q0) / n AS rho0_a FROM kn),
pp AS (
  SELECT point_id,
         a * sqrt(c - n * (
           (1.0e0 - e2) * (sin(radians(y)) / (1.0e0 - e2 * sin(radians(y)) * sin(radians(y)))
             - (1.0e0 / (2.0e0 * e))
               * ln((1.0e0 - e * sin(radians(y))) / (1.0e0 + e * sin(radians(y)))))
         )) / n AS rho,
         n * (fmod(radians(x - (-96.0e0)) + 3.141592653589793e0,
                   6.283185307179586e0) - 3.141592653589793e0) AS theta,
         a, n, rho0_a
  FROM pts, kg
)
SELECT point_id,
       CAST(floor(rho * sin(theta) * 100.0e0) AS BIGINT) AS x_cm,
       CAST(floor((a * rho0_a - rho * cos(theta)) * 100.0e0) AS BIGINT) AS y_cm,
       TRUE AS roundtrip_ok
FROM pp
"""

    # transform_laea: EPSG:3035 oblique LAEA — the oracle recomputes the
    # authalic-latitude machinery (Snyder 3-12, 24-17..24-20) in SQL
    sql["transform_laea"] = f"""
WITH {_PTS_CTE.strip()},
prm AS (
  SELECT 0.08181919084262149e0 AS e, 0.0066943799901413165e0 AS e2,
         6378137.0e0 AS a, radians(52.0e0) AS p0
),
base AS (
  SELECT a, e, e2, p0,
         (1.0e0 - e2) * (1.0e0 / (1.0e0 - e2)
           - (1.0e0 / (2.0e0 * e)) * ln((1.0e0 - e) / (1.0e0 + e))) AS qp,
         (1.0e0 - e2) * (sin(p0) / (1.0e0 - e2 * sin(p0) * sin(p0))
           - (1.0e0 / (2.0e0 * e))
             * ln((1.0e0 - e * sin(p0)) / (1.0e0 + e * sin(p0)))) AS q0,
         cos(p0) / sqrt(1.0e0 - e2 * sin(p0) * sin(p0)) AS m1
  FROM prm
),
kg AS (
  SELECT a, e, e2, qp,
         asin(q0 / qp) AS b1,
         a * sqrt(qp / 2.0e0) AS rq,
         a * m1 / ((a * sqrt(qp / 2.0e0)) * cos(asin(q0 / qp))) AS d
  FROM base
),
pq AS (
  SELECT point_id,
         fmod(radians(x - 10.0e0) + 3.141592653589793e0,
              6.283185307179586e0) - 3.141592653589793e0 AS dl,
         asin(((1.0e0 - e2)
           * (sin(radians(y)) / (1.0e0 - e2 * sin(radians(y)) * sin(radians(y)))
              - (1.0e0 / (2.0e0 * e))
                * ln((1.0e0 - e * sin(radians(y)))
                     / (1.0e0 + e * sin(radians(y)))))) / qp) AS b,
         b1, rq, d
  FROM pts, kg
),
pp AS (
  SELECT point_id, dl, b, b1, d,
         rq * sqrt(2.0e0 / (1.0e0 + sin(b1) * sin(b)
                            + cos(b1) * cos(b) * cos(dl))) AS bb
  FROM pq
)
SELECT point_id,
       CAST(floor((bb * d * cos(b) * sin(dl) + 4321000.0e0) * 100.0e0)
            AS BIGINT) AS x_cm,
       CAST(floor(((bb / d) * (cos(b1) * sin(b) - sin(b1) * cos(b) * cos(dl))
                   + 3210000.0e0) * 100.0e0) AS BIGINT) AS y_cm,
       TRUE AS roundtrip_ok
FROM pp
"""

    # transform_tmerc: the oracle recomputes the full Karney flattening
    # series (alpha coefficients, rectifying radius, conformal latitude
    # via sinh/atanh expressed through exp/ln) from the same public
    # formulas — nothing golden, everything re-derived in SQL
    _sinh = "((exp({u}) - exp(-({u}))) / 2.0e0)"
    _cosh = "((exp({u}) + exp(-({u}))) / 2.0e0)"
    _tm_series = " + ".join(
        f"a{j} * sin({2 * j}.0e0 * xip) * " + _cosh.format(u=f"{2 * j}.0e0 * etap")
        for j in range(1, 7)
    )
    _tm_series_eta = " + ".join(
        f"a{j} * cos({2 * j}.0e0 * xip) * " + _sinh.format(u=f"{2 * j}.0e0 * etap")
        for j in range(1, 7)
    )
    _tm_series0 = " + ".join(
        f"a{j} * sin({2 * j}.0e0 * xip0)" for j in range(1, 7)
    )
    sql["transform_tmerc"] = f"""
WITH {_PTS_CTE.strip()},
nn AS (
  SELECT (1.0e0/298.257223563e0) / (2.0e0 - 1.0e0/298.257223563e0) AS n
),
np2 AS (
  SELECT n, n*n AS n2, n*n*n AS n3, n*n*n*n AS n4,
         n*n*n*n*n AS n5, n*n*n*n*n*n AS n6 FROM nn
),
kc AS (
  SELECT
    6378137.0e0 / (1.0e0 + n) * (1.0e0 + n2/4.0e0 + n4/64.0e0 + n6/256.0e0) AS ar,
    2.0e0 * sqrt(n) / (1.0e0 + n) AS ee,
    n/2.0e0 - 2.0e0*n2/3.0e0 + 5.0e0*n3/16.0e0 + 41.0e0*n4/180.0e0
      - 127.0e0*n5/288.0e0 + 7891.0e0*n6/37800.0e0 AS a1,
    13.0e0*n2/48.0e0 - 3.0e0*n3/5.0e0 + 557.0e0*n4/1440.0e0
      + 281.0e0*n5/630.0e0 - 1983433.0e0*n6/1935360.0e0 AS a2,
    61.0e0*n3/240.0e0 - 103.0e0*n4/140.0e0 + 15061.0e0*n5/26880.0e0
      + 167603.0e0*n6/181440.0e0 AS a3,
    49561.0e0*n4/161280.0e0 - 179.0e0*n5/168.0e0 + 6601661.0e0*n6/7257600.0e0 AS a4,
    34729.0e0*n5/80640.0e0 - 3418889.0e0*n6/1995840.0e0 AS a5,
    212378941.0e0*n6/319334400.0e0 AS a6
  FROM np2
),
org AS (  -- K0-scaled meridian arc at lat_0 = 40 (eta' = 0 on the meridian)
  SELECT kc.*,
         {_sinh.format(u="0.5e0*ln((1.0e0 + sin(radians(40.0e0)))"
                         "/(1.0e0 - sin(radians(40.0e0))))"
                         " - ee * 0.5e0*ln((1.0e0 + ee*sin(radians(40.0e0)))"
                         "/(1.0e0 - ee*sin(radians(40.0e0))))")} AS t0
  FROM kc
),
org2 AS (
  SELECT *, atan(t0) AS xip0 FROM org
),
org3 AS (
  SELECT *, 0.9996e0 * ar * (xip0 + {_tm_series0}) AS n0 FROM org2
),
pp AS (
  SELECT point_id,
         fmod(radians(x + 120.0e0) + 3.141592653589793e0,
              6.283185307179586e0) - 3.141592653589793e0 AS lam,
         sin(radians(y)) AS sphi, org3.*
  FROM pts, org3
  WHERE x < -100.0e0
),
pt AS (
  SELECT *,
         {_sinh.format(u="0.5e0*ln((1.0e0 + sphi)/(1.0e0 - sphi))"
                         " - ee * 0.5e0*ln((1.0e0 + ee*sphi)/(1.0e0 - ee*sphi))")} AS t
  FROM pp
),
pxe AS (
  SELECT *, atan2(t, cos(lam)) AS xip,
         0.5e0*ln((1.0e0 + sin(lam)/sqrt(1.0e0 + t*t))
                  /(1.0e0 - sin(lam)/sqrt(1.0e0 + t*t))) AS etap
  FROM pt
),
fin AS (
  SELECT point_id, n0,
         0.9996e0 * ar * (etap + {_tm_series_eta}) AS e_k0,
         0.9996e0 * ar * (xip + {_tm_series}) AS n_k0
  FROM pxe
)
SELECT point_id,
       CAST(floor((e_k0 * (0.9999e0/0.9996e0) + 250000.0e0) * 100.0e0) AS BIGINT) AS x_cm,
       CAST(floor(((n_k0 - n0) * (0.9999e0/0.9996e0) + 100000.0e0) * 100.0e0) AS BIGINT) AS y_cm,
       TRUE AS roundtrip_ok
FROM fin
"""

    # transform_osgb: the FULL classical-datum pipeline re-derived in
    # SQL — WGS84 ECEF, the linearized position-vector Helmert with the
    # OSGB36 parameters negated (WGS84 -> OSGB36 direction), all six
    # fixed latitude iterations of the ECEF -> geodetic inverse on Airy
    # 1830, then the same Karney series as transform_tmerc with Airy
    # constants and the OSGB natural origin. Every constant re-derived,
    # nothing golden.
    _os_iter = (
        "atan2(hz + e2a * (6377563.396e0 / sqrt(1.0e0 - e2a * sin({p}) * sin({p})))"
        " * sin({p}), pr)"
    )
    sql["transform_osgb"] = f"""
WITH {_PTS_CTE.strip()},
nn AS (
  SELECT (1.0e0/299.3249646e0) / (2.0e0 - 1.0e0/299.3249646e0) AS n,
         (1.0e0/299.3249646e0) * (2.0e0 - 1.0e0/299.3249646e0) AS e2a,
         (1.0e0/298.257223563e0) * (2.0e0 - 1.0e0/298.257223563e0) AS e2w,
         pi() / 648000.0e0 AS as2r
),
np2 AS (
  SELECT n, e2a, e2w, as2r, n*n AS n2, n*n*n AS n3, n*n*n*n AS n4,
         n*n*n*n*n AS n5, n*n*n*n*n*n AS n6 FROM nn
),
kc AS (
  SELECT e2a, e2w, as2r,
    6377563.396e0 / (1.0e0 + n) * (1.0e0 + n2/4.0e0 + n4/64.0e0 + n6/256.0e0) AS ar,
    2.0e0 * sqrt(n) / (1.0e0 + n) AS ee,
    n/2.0e0 - 2.0e0*n2/3.0e0 + 5.0e0*n3/16.0e0 + 41.0e0*n4/180.0e0
      - 127.0e0*n5/288.0e0 + 7891.0e0*n6/37800.0e0 AS a1,
    13.0e0*n2/48.0e0 - 3.0e0*n3/5.0e0 + 557.0e0*n4/1440.0e0
      + 281.0e0*n5/630.0e0 - 1983433.0e0*n6/1935360.0e0 AS a2,
    61.0e0*n3/240.0e0 - 103.0e0*n4/140.0e0 + 15061.0e0*n5/26880.0e0
      + 167603.0e0*n6/181440.0e0 AS a3,
    49561.0e0*n4/161280.0e0 - 179.0e0*n5/168.0e0 + 6601661.0e0*n6/7257600.0e0 AS a4,
    34729.0e0*n5/80640.0e0 - 3418889.0e0*n6/1995840.0e0 AS a5,
    212378941.0e0*n6/319334400.0e0 AS a6
  FROM np2
),
org AS (  -- K0-scaled meridian arc at lat_0 = 49 on Airy (eta' = 0)
  SELECT kc.*,
         {_sinh.format(u="0.5e0*ln((1.0e0 + sin(radians(49.0e0)))"
                         "/(1.0e0 - sin(radians(49.0e0))))"
                         " - ee * 0.5e0*ln((1.0e0 + ee*sin(radians(49.0e0)))"
                         "/(1.0e0 - ee*sin(radians(49.0e0))))")} AS t0
  FROM kc
),
org2 AS (
  SELECT *, atan(t0) AS xip0 FROM org
),
org3 AS (
  SELECT *, 0.9996e0 * ar * (xip0 + {_tm_series0}) AS n0 FROM org2
),
gb AS (  -- remap into the GB window; WGS84 geodetic (surface, h=0)
  SELECT point_id, radians(x + 118.0e0) AS lw, radians(y + 8.0e0) AS pw, org3.*
  FROM pts, org3
  WHERE x < -100.0e0
),
ec AS (  -- WGS84 geodetic -> ECEF
  SELECT gb.*,
         (6378137.0e0 / sqrt(1.0e0 - e2w * sin(pw) * sin(pw)))
           * cos(pw) * cos(lw) AS gx,
         (6378137.0e0 / sqrt(1.0e0 - e2w * sin(pw) * sin(pw)))
           * cos(pw) * sin(lw) AS gy,
         (6378137.0e0 / sqrt(1.0e0 - e2w * sin(pw) * sin(pw)))
           * (1.0e0 - e2w) * sin(pw) AS gz
  FROM gb
),
hm AS (  -- WGS84 -> OSGB36: negated EPSG:1314 position-vector Helmert
  SELECT ec.*,
         -446.448e0 + (1.0e0 + 20.4894e0 * 1.0e-6)
           * (gx - (-0.8421e0 * as2r) * gy + (-0.2470e0 * as2r) * gz) AS hx,
         125.157e0 + (1.0e0 + 20.4894e0 * 1.0e-6)
           * ((-0.8421e0 * as2r) * gx + gy - (-0.1502e0 * as2r) * gz) AS hy,
         -542.060e0 + (1.0e0 + 20.4894e0 * 1.0e-6)
           * (-(-0.2470e0 * as2r) * gx + (-0.1502e0 * as2r) * gy + gz) AS hz
  FROM ec
),
g0 AS (  -- ECEF -> geodetic on Airy: fixed six-iteration fixed point
  SELECT hm.*, sqrt(hx*hx + hy*hy) AS pr,
         atan2(hz, sqrt(hx*hx + hy*hy) * (1.0e0 - e2a)) AS p0
  FROM hm
),
g1 AS (SELECT *, {_os_iter.format(p='p0')} AS p1 FROM g0),
g2 AS (SELECT *, {_os_iter.format(p='p1')} AS p2 FROM g1),
g3 AS (SELECT *, {_os_iter.format(p='p2')} AS p3 FROM g2),
g4 AS (SELECT *, {_os_iter.format(p='p3')} AS p4 FROM g3),
g5 AS (SELECT *, {_os_iter.format(p='p4')} AS p5 FROM g4),
g6 AS (SELECT *, {_os_iter.format(p='p5')} AS p6 FROM g5),
geo AS (  -- mirror the engine's degrees() round-trip exactly
  SELECT g6.*,
         fmod(radians(degrees(atan2(hy, hx)) + 2.0e0)
              + 3.141592653589793e0, 6.283185307179586e0)
           - 3.141592653589793e0 AS lam,
         sin(radians(degrees(p6))) AS sphi
  FROM g6
),
pt AS (
  SELECT *,
         {_sinh.format(u="0.5e0*ln((1.0e0 + sphi)/(1.0e0 - sphi))"
                         " - ee * 0.5e0*ln((1.0e0 + ee*sphi)/(1.0e0 - ee*sphi))")} AS t
  FROM geo
),
pxe AS (
  SELECT *, atan2(t, cos(lam)) AS xip,
         0.5e0*ln((1.0e0 + sin(lam)/sqrt(1.0e0 + t*t))
                  /(1.0e0 - sin(lam)/sqrt(1.0e0 + t*t))) AS etap
  FROM pt
),
fin AS (
  SELECT point_id, n0,
         0.9996e0 * ar * (etap + {_tm_series_eta}) AS e_k0,
         0.9996e0 * ar * (xip + {_tm_series}) AS n_k0
  FROM pxe
)
SELECT point_id,
       CAST(floor((e_k0 * (0.9996012717e0/0.9996e0) + 400000.0e0) * 100.0e0) AS BIGINT) AS x_cm,
       CAST(floor(((n_k0 - n0) * (0.9996012717e0/0.9996e0) - 100000.0e0) * 100.0e0) AS BIGINT) AS y_cm,
       TRUE AS roundtrip_ok
FROM fin
"""

    # transform_somerc: the Swiss double projection re-derived in SQL —
    # WGS84 ECEF, the negated CH1903+ geocentric translation, six fixed
    # latitude iterations on Bessel 1841, then the swisstopo conformal
    # sphere (alpha, b0, K, R) and the rotated equatorial Mercator.
    # Every constant re-derived, nothing golden.
    _ch_iter = (
        "atan2(hz + e2b * (6377397.155e0 / sqrt(1.0e0 - e2b * sin({p}) * sin({p})))"
        " * sin({p}), pr)"
    )
    sql["transform_somerc"] = f"""
WITH {_PTS_CTE.strip()},
cb AS (
  SELECT (1.0e0/299.1528128e0) * (2.0e0 - 1.0e0/299.1528128e0) AS e2b,
         sqrt((1.0e0/299.1528128e0) * (2.0e0 - 1.0e0/299.1528128e0)) AS eb,
         (1.0e0/298.257223563e0) * (2.0e0 - 1.0e0/298.257223563e0) AS e2w,
         radians(46.0e0 + 57.0e0/60.0e0 + 8.66e0/3600.0e0) AS p0,
         7.0e0 + 26.0e0/60.0e0 + 22.50e0/3600.0e0 AS lon0
),
kc AS (  -- conformal-sphere constants at the Bern origin
  SELECT cb.*,
         6377397.155e0 * sqrt(1.0e0 - e2b)
           / (1.0e0 - e2b * sin(p0) * sin(p0)) AS rr,
         sqrt(1.0e0 + e2b * cos(p0)*cos(p0)*cos(p0)*cos(p0)
                      / (1.0e0 - e2b)) AS al
  FROM cb
),
kc2 AS (
  SELECT kc.*, asin(sin(p0) / al) AS b0 FROM kc
),
kc3 AS (
  SELECT kc2.*,
         ln(tan(pi()/4.0e0 + b0/2.0e0))
           - al * ln(tan(pi()/4.0e0 + p0/2.0e0))
           + al * eb / 2.0e0
             * ln((1.0e0 + eb*sin(p0)) / (1.0e0 - eb*sin(p0))) AS kk
  FROM kc2
),
ch AS (  -- remap into the Swiss window; WGS84 geodetic (surface, h=0)
  SELECT point_id,
         radians((x + 124.0e0) * 0.5e0 + 6.0e0) AS lw,
         radians((y - 36.0e0) * 0.25e0 + 46.0e0) AS pw, kc3.*
  FROM pts, kc3
  WHERE x < -100.0e0
),
ec AS (  -- WGS84 geodetic -> ECEF
  SELECT ch.*,
         (6378137.0e0 / sqrt(1.0e0 - e2w * sin(pw) * sin(pw)))
           * cos(pw) * cos(lw) AS gx,
         (6378137.0e0 / sqrt(1.0e0 - e2w * sin(pw) * sin(pw)))
           * cos(pw) * sin(lw) AS gy,
         (6378137.0e0 / sqrt(1.0e0 - e2w * sin(pw) * sin(pw)))
           * (1.0e0 - e2w) * sin(pw) AS gz
  FROM ch
),
hm AS (  -- WGS84 -> CH1903+: negated EPSG:1676 geocentric translation
  SELECT ec.*, gx - 674.374e0 AS hx, gy - 15.056e0 AS hy,
         gz - 405.346e0 AS hz
  FROM ec
),
g0 AS (  -- ECEF -> geodetic on Bessel: fixed six-iteration fixed point
  SELECT hm.*, sqrt(hx*hx + hy*hy) AS pr,
         atan2(hz, sqrt(hx*hx + hy*hy) * (1.0e0 - e2b)) AS q0
  FROM hm
),
g1 AS (SELECT *, {_ch_iter.format(p='q0')} AS q1 FROM g0),
g2 AS (SELECT *, {_ch_iter.format(p='q1')} AS q2 FROM g1),
g3 AS (SELECT *, {_ch_iter.format(p='q2')} AS q3 FROM g2),
g4 AS (SELECT *, {_ch_iter.format(p='q3')} AS q4 FROM g3),
g5 AS (SELECT *, {_ch_iter.format(p='q4')} AS q5 FROM g4),
g6 AS (SELECT *, {_ch_iter.format(p='q5')} AS q6 FROM g5),
geo AS (  -- mirror the engine's degrees() round-trip exactly
  SELECT g6.*,
         fmod(radians(degrees(atan2(hy, hx)) - lon0)
              + 3.141592653589793e0, 6.283185307179586e0)
           - 3.141592653589793e0 AS lam,
         radians(degrees(q6)) AS phi
  FROM g6
),
sb AS (  -- ellipsoid -> conformal sphere
  SELECT geo.*,
         al * ln(tan(pi()/4.0e0 + phi/2.0e0))
           - al * eb / 2.0e0
             * ln((1.0e0 + eb*sin(phi)) / (1.0e0 - eb*sin(phi))) + kk AS ss,
         al * lam AS l
  FROM geo
),
rb AS (
  SELECT sb.*, 2.0e0 * (atan(exp(ss)) - pi()/4.0e0) AS b FROM sb
),
rot AS (  -- rotate to the pseudo-equator system
  SELECT point_id, rr, b0,
         cos(b0)*sin(b) - sin(b0)*cos(b)*cos(l) AS sbar,
         atan2(cos(b)*sin(l), sin(b0)*sin(b) + cos(b0)*cos(b)*cos(l)) AS lbar
  FROM rb
)
SELECT point_id,
       CAST(floor((rr * lbar + 2600000.0e0) * 100.0e0) AS BIGINT) AS x_cm,
       CAST(floor((rr * 0.5e0 * ln((1.0e0 + sbar)/(1.0e0 - sbar))
                   + 1200000.0e0) * 100.0e0) AS BIGINT) AS y_cm,
       TRUE AS roundtrip_ok
FROM rot
"""

    # transform_krovak: the Czech S-JTSK Krovak oblique conformal conic
    # re-derived in SQL — WGS84 ECEF, the negated EPSG:1622 geocentric
    # translation, six fixed latitude iterations on Bessel 1841 (the
    # f-derived e2, as datum.py uses), then the GN7-2 method 9819
    # projection with its OWN published-literal e2 (0.006674372230614,
    # as proj/krovak.py pins) — B, A, gamma0, t0, n, r0 all re-derived.
    sql["transform_krovak"] = f"""
WITH {_PTS_CTE.strip()},
cb AS (
  SELECT (1.0e0/299.1528128e0) * (2.0e0 - 1.0e0/299.1528128e0) AS e2b,
         (1.0e0/298.257223563e0) * (2.0e0 - 1.0e0/298.257223563e0) AS e2w,
         0.006674372230614e0 AS e2k,
         sqrt(0.006674372230614e0) AS ek,
         radians(49.5e0) AS pc,
         radians(30.0e0 + 17.0e0/60.0e0 + 17.30311e0/3600.0e0) AS alc,
         radians(78.5e0) AS pp,
         24.0e0 + 50.0e0/60.0e0 AS lon0
),
kd AS (  -- GN7-2 derived constants (B, A, gamma0)
  SELECT cb.*,
         sqrt(1.0e0 + e2k * cos(pc)*cos(pc)*cos(pc)*cos(pc)
                      / (1.0e0 - e2k)) AS bb,
         6377397.155e0 * sqrt(1.0e0 - e2k)
           / (1.0e0 - e2k * sin(pc) * sin(pc)) AS abig
  FROM cb
),
kd2 AS (SELECT kd.*, asin(sin(pc) / bb) AS g0 FROM kd),
kd3 AS (  -- t0, n, r0
  SELECT kd2.*,
         tan(pi()/4.0e0 + g0/2.0e0)
           * ((1.0e0 + ek*sin(pc)) / (1.0e0 - ek*sin(pc))) ^ (ek * bb / 2.0e0)
           / tan(pi()/4.0e0 + pc/2.0e0) ^ bb AS t0k,
         sin(pp) AS nk,
         0.9999e0 * abig / tan(pp) AS r0k
  FROM kd2
),
cz AS (  -- remap into the Czech window; WGS84 geodetic (surface, h=0)
  SELECT point_id,
         radians((x + 124.0e0) * 0.5e0 + 13.0e0) AS lw,
         radians((y - 36.0e0) * 0.25e0 + 48.5e0) AS pw, kd3.*
  FROM pts, kd3
  WHERE x < -100.0e0
),
ec AS (  -- WGS84 geodetic -> ECEF
  SELECT cz.*,
         (6378137.0e0 / sqrt(1.0e0 - e2w * sin(pw) * sin(pw)))
           * cos(pw) * cos(lw) AS gx,
         (6378137.0e0 / sqrt(1.0e0 - e2w * sin(pw) * sin(pw)))
           * cos(pw) * sin(lw) AS gy,
         (6378137.0e0 / sqrt(1.0e0 - e2w * sin(pw) * sin(pw)))
           * (1.0e0 - e2w) * sin(pw) AS gz
  FROM cz
),
hm AS (  -- WGS84 -> S-JTSK: negated EPSG:1622 geocentric translation
  SELECT ec.*, gx - 589.0e0 AS hx, gy - 76.0e0 AS hy,
         gz - 480.0e0 AS hz
  FROM ec
),
g0i AS (  -- ECEF -> geodetic on Bessel: fixed six-iteration fixed point
  SELECT hm.*, sqrt(hx*hx + hy*hy) AS pr,
         atan2(hz, sqrt(hx*hx + hy*hy) * (1.0e0 - e2b)) AS q0
  FROM hm
),
g1 AS (SELECT *, {_ch_iter.format(p='q0')} AS q1 FROM g0i),
g2 AS (SELECT *, {_ch_iter.format(p='q1')} AS q2 FROM g1),
g3 AS (SELECT *, {_ch_iter.format(p='q2')} AS q3 FROM g2),
g4 AS (SELECT *, {_ch_iter.format(p='q3')} AS q4 FROM g3),
g5 AS (SELECT *, {_ch_iter.format(p='q4')} AS q5 FROM g4),
g6 AS (SELECT *, {_ch_iter.format(p='q5')} AS q6 FROM g5),
geo AS (  -- mirror the engine's degrees() round-trip exactly
  SELECT g6.*,
         radians(degrees(atan2(hy, hx))) AS lam,
         radians(degrees(q6)) AS phi
  FROM g6
),
uv AS (  -- Gaussian sphere: conformal latitude u, longitude v
  SELECT geo.*,
         2.0e0 * (atan(t0k * tan(pi()/4.0e0 + phi/2.0e0) ^ bb
                       / ((1.0e0 + ek*sin(phi)) / (1.0e0 - ek*sin(phi)))
                         ^ (ek * bb / 2.0e0)) - pi()/4.0e0) AS u,
         bb * (radians(lon0) - lam) AS v
  FROM geo
),
sd AS (  -- rotate to the oblique pole
  SELECT uv.*,
         asin(least(greatest(cos(alc)*sin(u)
                             + sin(alc)*cos(u)*cos(v), -1.0e0), 1.0e0)) AS s
  FROM uv
),
sd2 AS (
  SELECT sd.*,
         asin(least(greatest(cos(u)*sin(v)/cos(s), -1.0e0), 1.0e0)) AS d
  FROM sd
),
rt AS (  -- conformal conic on the pseudo standard parallel
  SELECT point_id, nk * d AS theta,
         r0k * tan(pi()/4.0e0 + pp/2.0e0) ^ nk
           / tan(s/2.0e0 + pi()/4.0e0) ^ nk AS r
  FROM sd2
)
SELECT point_id,
       CAST(floor(-(r * sin(theta)) * 100.0e0) AS BIGINT) AS x_cm,
       CAST(floor(-(r * cos(theta)) * 100.0e0) AS BIGINT) AS y_cm,
       TRUE AS roundtrip_ok
FROM rt
"""

    # transform_eck4: Eckert IV with the fixed twelve guarded Newton
    # iterations replayed one CTE per iteration — nothing golden
    _e4_iter = (
        "CASE WHEN abs(1.0e0 + cos(2.0e0*{t}) + 2.0e0*cos({t})) > 1.0e-12"
        " THEN {t} - ({t} + sin({t})*cos({t}) + 2.0e0*sin({t}) - rhs)"
        " / (1.0e0 + cos(2.0e0*{t}) + 2.0e0*cos({t}))"
        " ELSE {t} END"
    )
    sql["transform_eck4"] = f"""
WITH {_PTS_CTE.strip()},
k0 AS (
  SELECT point_id,
         fmod(radians(x) + 3.141592653589793e0, 6.283185307179586e0)
           - 3.141592653589793e0 AS lam,
         radians(y) AS t0,
         (2.0e0 + pi()/2.0e0) * sin(radians(y)) AS rhs
  FROM pts
),
{"".join(
    f"k{i+1} AS (SELECT point_id, lam, rhs, "
    + _e4_iter.format(t=f"t{i}") + f" AS t{i+1} FROM k{i}),"
    for i in range(12)
).rstrip(",")}
SELECT point_id,
       CAST(floor(2.0e0 / sqrt(pi() * (4.0e0 + pi())) * 6378137.0e0 * lam
                  * (1.0e0 + cos(t12)) * 100.0e0) AS BIGINT) AS x_cm,
       CAST(floor(2.0e0 * sqrt(pi() / (4.0e0 + pi())) * 6378137.0e0
                  * sin(t12) * 100.0e0) AS BIGINT) AS y_cm,
       TRUE AS roundtrip_ok
FROM k12
"""

    # transform_eqearth: EPSG method 1078 Equal Earth — authalic q/qp,
    # beta, theta = asin(M sin beta), then the Savric polynomial; every
    # constant (qp, Rq, M, A1..A4) re-derived in SQL. Forward only
    # (closed form), so no iteration CTEs are needed.
    sql["transform_eqearth"] = f"""
WITH {_PTS_CTE.strip()},
prm AS (
  SELECT 0.08181919084262149e0 AS e, 0.0066943799901413165e0 AS e2,
         6378137.0e0 AS a, sqrt(3.0e0) / 2.0e0 AS m
),
base AS (
  SELECT a, e, e2, m,
         (1.0e0 - e2) * (1.0e0 / (1.0e0 - e2)
           - (1.0e0 / (2.0e0 * e)) * ln((1.0e0 - e) / (1.0e0 + e))) AS qp
  FROM prm
),
kg AS (SELECT base.*, a * sqrt(qp / 2.0e0) AS rq FROM base),
pq AS (  -- authalic latitude beta, then theta
  SELECT point_id,
         fmod(radians(x) + 3.141592653589793e0, 6.283185307179586e0)
           - 3.141592653589793e0 AS dl,
         asin(m * sin(asin(((1.0e0 - e2)
           * (sin(radians(y)) / (1.0e0 - e2 * sin(radians(y)) * sin(radians(y)))
              - (1.0e0 / (2.0e0 * e))
                * ln((1.0e0 - e * sin(radians(y)))
                     / (1.0e0 + e * sin(radians(y)))))) / qp))) AS th,
         m, rq
  FROM pts, kg
),
pt2 AS (SELECT pq.*, th * th AS t2 FROM pq),
pt6 AS (SELECT pt2.*, t2 * t2 * t2 AS t6 FROM pt2)
SELECT point_id,
       CAST(floor(rq * dl * cos(th)
                  / (m * (1.340264e0 + 3.0e0 * -0.081106e0 * t2
                          + t6 * (7.0e0 * 0.000893e0
                                  + 9.0e0 * 0.003796e0 * t2)))
                  * 100.0e0) AS BIGINT) AS x_cm,
       CAST(floor(rq * (th * (1.340264e0 + -0.081106e0 * t2
                              + t6 * (0.000893e0 + 0.003796e0 * t2)))
                  * 100.0e0) AS BIGINT) AS y_cm,
       TRUE AS roundtrip_ok
FROM pt6
"""

    # transform_robin: Robinson — the published 1974 PLEN/PDFE knots as
    # SQL list literals, central-difference slopes and the cubic Hermite
    # basis re-derived per point (the 36..44N points hit interior bands,
    # so no one-sided end slopes are needed). Nothing golden.
    _rx = ("list_value(1.0000e0, 0.9986e0, 0.9954e0, 0.9900e0, 0.9822e0,"
           " 0.9730e0, 0.9600e0, 0.9427e0, 0.9216e0, 0.8962e0, 0.8679e0,"
           " 0.8350e0, 0.7986e0, 0.7597e0, 0.7186e0, 0.6732e0, 0.6213e0,"
           " 0.5722e0, 0.5322e0)")
    _ry = ("list_value(0.0000e0, 0.0620e0, 0.1240e0, 0.1860e0, 0.2480e0,"
           " 0.3100e0, 0.3720e0, 0.4340e0, 0.4958e0, 0.5571e0, 0.6176e0,"
           " 0.6769e0, 0.7346e0, 0.7903e0, 0.8435e0, 0.8936e0, 0.9394e0,"
           " 0.9761e0, 1.0000e0)")
    sql["transform_robin"] = f"""
WITH {_PTS_CTE.strip()},
rb AS (
  SELECT point_id,
         fmod(radians(x) + 3.141592653589793e0, 6.283185307179586e0)
           - 3.141592653589793e0 AS lam,
         least(abs(y), 90.0e0) AS alat
  FROM pts
),
ri AS (
  SELECT point_id, lam,
         CAST(least(floor(alat / 5.0e0), 17.0e0) AS BIGINT) AS i,
         alat / 5.0e0 - least(floor(alat / 5.0e0), 17.0e0) AS t
  FROM rb
),
rv AS (  -- knot values + central-difference slopes (interior bands)
  SELECT point_id, lam, t,
         {_rx}[i + 1] AS xv0, {_rx}[i + 2] AS xv1,
         ({_rx}[i + 2] - {_rx}[i]) / 2.0e0 AS xm0,
         ({_rx}[i + 3] - {_rx}[i + 1]) / 2.0e0 AS xm1,
         {_ry}[i + 1] AS yv0, {_ry}[i + 2] AS yv1,
         ({_ry}[i + 2] - {_ry}[i]) / 2.0e0 AS ym0,
         ({_ry}[i + 3] - {_ry}[i + 1]) / 2.0e0 AS ym1
  FROM ri
),
rh AS (
  SELECT rv.*, t * t AS t2, t * t * t AS t3 FROM rv
),
re2 AS (  -- cubic Hermite basis, engine association
  SELECT point_id, lam,
         (2.0e0 * t3 - 3.0e0 * t2 + 1.0e0) * xv0
           + (t3 - 2.0e0 * t2 + t) * xm0
           + (-2.0e0 * t3 + 3.0e0 * t2) * xv1 + (t3 - t2) * xm1 AS xv,
         (2.0e0 * t3 - 3.0e0 * t2 + 1.0e0) * yv0
           + (t3 - 2.0e0 * t2 + t) * ym0
           + (-2.0e0 * t3 + 3.0e0 * t2) * yv1 + (t3 - t2) * ym1 AS yv
  FROM rh
)
SELECT point_id,
       CAST(floor(0.8487e0 * 6378137.0e0 * xv * lam * 100.0e0)
            AS BIGINT) AS x_cm,
       CAST(floor(1.3523e0 * 6378137.0e0 * yv * 100.0e0)
            AS BIGINT) AS y_cm,
       TRUE AS roundtrip_ok
FROM re2
"""

    # transform_wintri: Winkel Tripel — closed-form mean of
    # equirectangular (cos phi_1 = 2/pi exactly) and Aitoff, the
    # alpha/sin(alpha) guard mirrored as a CASE. Nothing golden.
    sql["transform_wintri"] = f"""
WITH {_PTS_CTE.strip()},
w0 AS (
  SELECT point_id,
         fmod(radians(x) + 3.141592653589793e0, 6.283185307179586e0)
           - 3.141592653589793e0 AS lam,
         radians(y) AS phi
  FROM pts
),
w1 AS (
  SELECT point_id, lam, phi, 0.5e0 * lam AS lam2, cos(phi) AS cosphi
  FROM w0
),
w2 AS (
  SELECT w1.*,
         acos(least(greatest(cosphi * cos(lam2), -1.0e0), 1.0e0)) AS alpha
  FROM w1
),
w3 AS (
  SELECT w2.*,
         CASE WHEN alpha > 1.0e-12 THEN alpha / sin(alpha)
              ELSE 1.0e0 END AS sincinv
  FROM w2
)
SELECT point_id,
       CAST(floor(0.5e0 * 6378137.0e0
                  * (lam * (2.0e0 / pi())
                     + 2.0e0 * cosphi * sin(lam2) * sincinv)
                  * 100.0e0) AS BIGINT) AS x_cm,
       CAST(floor(0.5e0 * 6378137.0e0 * (phi + sin(phi) * sincinv)
                  * 100.0e0) AS BIGINT) AS y_cm,
       TRUE AS roundtrip_ok
FROM w3
"""

    # transform_poly: American Polyconic, center (38N, 95W) — the
    # Snyder 3-21 meridian-arc series coefficients re-derived from the
    # f-derived e2, then N, cot phi and the cone angle E per point.
    # Nothing golden.
    _pm = ("(c0 * {p} - c2 * sin(2.0e0 * {p}) + c4 * sin(4.0e0 * {p})"
           " - c6 * sin(6.0e0 * {p}))")
    sql["transform_poly"] = f"""
WITH {_PTS_CTE.strip()},
pc AS (
  SELECT (1.0e0/298.257223563e0) * (2.0e0 - 1.0e0/298.257223563e0) AS e2
),
pk AS (
  SELECT e2,
         1.0e0 - e2/4.0e0 - 3.0e0*e2*e2/64.0e0
           - 5.0e0*pow(e2, 3.0e0)/256.0e0 AS c0,
         3.0e0*e2/8.0e0 + 3.0e0*e2*e2/32.0e0
           + 45.0e0*pow(e2, 3.0e0)/1024.0e0 AS c2,
         15.0e0*e2*e2/256.0e0 + 45.0e0*pow(e2, 3.0e0)/1024.0e0 AS c4,
         35.0e0*pow(e2, 3.0e0)/3072.0e0 AS c6
  FROM pc
),
pm AS (SELECT pk.*, {_pm.format(p='radians(38.0e0)')} AS m0 FROM pk),
p0 AS (
  SELECT point_id,
         fmod(radians(x - -95.0e0) + 3.141592653589793e0,
              6.283185307179586e0) - 3.141592653589793e0 AS lam,
         radians(y) AS phi, pm.*
  FROM pts, pm
),
p1 AS (
  SELECT p0.*, sin(phi) AS sphi FROM p0
),
p2 AS (
  SELECT p1.*,
         1.0e0 / sqrt(1.0e0 - e2 * sphi * sphi) AS nn,
         cos(phi) / sphi AS cot,
         lam * sphi AS ee
  FROM p1
)
SELECT point_id,
       CAST(floor(nn * cot * sin(ee) * 6378137.0e0 * 100.0e0)
            AS BIGINT) AS x_cm,
       CAST(floor(({_pm.format(p='phi')} - m0
                   + nn * cot * (1.0e0 - cos(ee))) * 6378137.0e0
                  * 100.0e0) AS BIGINT) AS y_cm,
       TRUE AS roundtrip_ok
FROM p2
"""

    # transform_omerc: GN7-2 Hotine oblique Mercator variant B on
    # WGS84 — the aposphere constants and the skew-axes chain re-derived
    # per point; sign(lat_c) = +1 throughout. Nothing golden.
    sql["transform_omerc"] = f"""
WITH {_PTS_CTE.strip()},
oc AS (
  SELECT (1.0e0/298.257223563e0) * (2.0e0 - 1.0e0/298.257223563e0) AS e2,
         sqrt((1.0e0/298.257223563e0)
              * (2.0e0 - 1.0e0/298.257223563e0)) AS e,
         radians(40.0e0) AS pc, radians(30.0e0) AS ac,
         radians(30.0e0) AS gc, 0.9996e0 AS kc
),
ok1 AS (
  SELECT oc.*, sin(pc) AS sp,
         sqrt(1.0e0 + e2 * cos(pc)*cos(pc)*cos(pc)*cos(pc)
                      / (1.0e0 - e2)) AS bb
  FROM oc
),
ok2 AS (
  SELECT ok1.*,
         6378137.0e0 * bb * kc * sqrt(1.0e0 - e2)
           / (1.0e0 - e2 * sp * sp) AS aa,
         tan(pi()/4.0e0 - pc/2.0e0)
           / ((1.0e0 - e * sp) / (1.0e0 + e * sp)) ^ (e / 2.0e0) AS t0,
         bb * sqrt(1.0e0 - e2)
           / (cos(pc) * sqrt(1.0e0 - e2 * sp * sp)) AS d
  FROM ok1
),
ok3 AS (
  SELECT ok2.*, greatest(d * d, 1.0e0) AS d2 FROM ok2
),
ok4 AS (
  SELECT ok3.*, d + sqrt(d2 - 1.0e0) AS ff FROM ok3
),
ok5 AS (
  SELECT ok4.*, ff * t0 ^ bb AS hh,
         (ff - 1.0e0 / ff) / 2.0e0 AS gg,
         asin(least(greatest(sin(ac) / d, -1.0e0), 1.0e0)) AS g0
  FROM ok4
),
ok6 AS (
  SELECT ok5.*,
         radians(-95.0e0)
           - asin(least(greatest(gg * tan(g0), -1.0e0), 1.0e0)) / bb AS lam0,
         (aa / bb) * atan2(sqrt(d2 - 1.0e0), cos(ac)) AS uc
  FROM ok5
),
op AS (
  SELECT point_id, radians(y) AS phi, radians(x) AS lam, ok6.*
  FROM pts, ok6
),
o1 AS (
  SELECT op.*,
         fmod(bb * (lam - lam0) + 3.141592653589793e0,
              6.283185307179586e0) - 3.141592653589793e0 AS dl,
         sin(phi) AS sphi
  FROM op
),
o2 AS (
  SELECT o1.*,
         tan(pi()/4.0e0 - phi/2.0e0)
           / ((1.0e0 - e * sphi) / (1.0e0 + e * sphi)) ^ (e / 2.0e0) AS tt
  FROM o1
),
o3 AS (SELECT o2.*, hh / tt ^ bb AS qq FROM o2),
o4 AS (
  SELECT o3.*,
         (qq - 1.0e0 / qq) / 2.0e0 AS ss,
         (qq + 1.0e0 / qq) / 2.0e0 AS tt2,
         sin(dl) AS vv
  FROM o3
),
o5 AS (
  SELECT o4.*,
         (-vv * cos(g0) + ss * sin(g0)) / tt2 AS uu
  FROM o4
),
o6 AS (
  SELECT o5.*,
         aa * ln((1.0e0 - uu) / (1.0e0 + uu)) / (2.0e0 * bb) AS v,
         aa * atan2(ss * cos(g0) + vv * sin(g0), cos(dl)) / bb - uc AS u
  FROM o5
)
SELECT point_id,
       CAST(floor((v * cos(gc) + u * sin(gc)) * 100.0e0)
            AS BIGINT) AS x_cm,
       CAST(floor((u * cos(gc) - v * sin(gc)) * 100.0e0)
            AS BIGINT) AS y_cm,
       TRUE AS roundtrip_ok
FROM o6
"""

    # transform_cass: Cassini-Soldner, center (40N, 95W), longitudes
    # remapped into the series band — meridian-arc coefficients and the
    # A/T/C/N series re-derived per point. Nothing golden. (Reuses the
    # pk coefficient CTE shape from transform_poly above.)
    sql["transform_cass"] = f"""
WITH {_PTS_CTE.strip()},
cc AS (
  SELECT (1.0e0/298.257223563e0) * (2.0e0 - 1.0e0/298.257223563e0) AS e2
),
ck AS (
  SELECT e2,
         1.0e0 - e2/4.0e0 - 3.0e0*e2*e2/64.0e0
           - 5.0e0*pow(e2, 3.0e0)/256.0e0 AS c0,
         3.0e0*e2/8.0e0 + 3.0e0*e2*e2/32.0e0
           + 45.0e0*pow(e2, 3.0e0)/1024.0e0 AS c2,
         15.0e0*e2*e2/256.0e0 + 45.0e0*pow(e2, 3.0e0)/1024.0e0 AS c4,
         35.0e0*pow(e2, 3.0e0)/3072.0e0 AS c6
  FROM cc
),
cm AS (SELECT ck.*, {_pm.format(p='radians(40.0e0)')} AS m0 FROM ck),
q0 AS (
  SELECT point_id,
         fmod(radians(((x + 95.0e0) / 15.0e0 - 95.0e0) - -95.0e0)
              + 3.141592653589793e0, 6.283185307179586e0)
           - 3.141592653589793e0 AS lam,
         radians(y) AS phi, cm.*
  FROM pts, cm
),
q1 AS (
  SELECT q0.*,
         sin(phi) AS sphi, cos(phi) AS cphi, tan(phi) AS tphi
  FROM q0
),
q2 AS (
  SELECT q1.*,
         lam * cphi AS aa,
         tphi * tphi AS tt,
         e2 * cphi * cphi / (1.0e0 - e2) AS cv,
         1.0e0 / sqrt(1.0e0 - e2 * sphi * sphi) AS nn
  FROM q1
),
q3 AS (SELECT q2.*, aa * aa AS a2 FROM q2)
SELECT point_id,
       CAST(floor(nn * (aa - tt * aa * a2 / 6.0e0
                        - (8.0e0 - tt + 8.0e0 * cv) * tt * aa * a2 * a2
                          / 120.0e0)
                  * 6378137.0e0 * 100.0e0) AS BIGINT) AS x_cm,
       CAST(floor(({_pm.format(p='phi')} - m0
                   + nn * tphi * (a2 / 2.0e0
                                  + (5.0e0 - tt + 6.0e0 * cv) * a2 * a2
                                    / 24.0e0))
                  * 6378137.0e0 * 100.0e0) AS BIGINT) AS y_cm,
       TRUE AS roundtrip_ok
FROM q3
"""

    # transform_bonne: Snyder's ellipsoidal Bonne, lat_1 = 60N apex —
    # apex constants and the rho/E chain re-derived. Nothing golden.
    sql["transform_bonne"] = f"""
WITH {_PTS_CTE.strip()},
bc AS (
  SELECT (1.0e0/298.257223563e0) * (2.0e0 - 1.0e0/298.257223563e0) AS e2
),
bk AS (
  SELECT e2,
         1.0e0 - e2/4.0e0 - 3.0e0*e2*e2/64.0e0
           - 5.0e0*pow(e2, 3.0e0)/256.0e0 AS c0,
         3.0e0*e2/8.0e0 + 3.0e0*e2*e2/32.0e0
           + 45.0e0*pow(e2, 3.0e0)/1024.0e0 AS c2,
         15.0e0*e2*e2/256.0e0 + 45.0e0*pow(e2, 3.0e0)/1024.0e0 AS c4,
         35.0e0*pow(e2, 3.0e0)/3072.0e0 AS c6
  FROM bc
),
bm AS (
  SELECT bk.*,
         sin(radians(60.0e0)) AS s1,
         cos(radians(60.0e0))
           / sqrt(1.0e0 - e2 * sin(radians(60.0e0)) * sin(radians(60.0e0)))
           AS m1,
         {_pm.format(p='radians(60.0e0)')} AS mm1
  FROM bk
),
b0 AS (
  SELECT point_id,
         fmod(radians(x) + 3.141592653589793e0, 6.283185307179586e0)
           - 3.141592653589793e0 AS lam,
         radians(y) AS phi, bm.*
  FROM pts, bm
),
b1 AS (
  SELECT b0.*,
         cos(phi) / sqrt(1.0e0 - e2 * sin(phi) * sin(phi)) AS m,
         m1 / s1 + mm1 - {_pm.format(p='phi')} AS rho
  FROM b0
),
b2 AS (
  SELECT b1.*,
         CASE WHEN abs(rho) > 1.0e-12 THEN m * lam / rho
              ELSE 0.0e0 END AS ee
  FROM b1
)
SELECT point_id,
       CAST(floor(rho * sin(ee) * 6378137.0e0 * 100.0e0)
            AS BIGINT) AS x_cm,
       CAST(floor((m1 / s1 - rho * cos(ee)) * 6378137.0e0 * 100.0e0)
            AS BIGINT) AS y_cm,
       TRUE AS roundtrip_ok
FROM b2
"""

    # transform_gnom: Snyder's gnomonic, center (40N, 95W) — closed
    # form, the 1/cos(c) guard mirrored as a CASE. Nothing golden.
    sql["transform_gnom"] = f"""
WITH {_PTS_CTE.strip()},
g0 AS (
  SELECT point_id,
         fmod(radians(x - -95.0e0) + 3.141592653589793e0,
              6.283185307179586e0) - 3.141592653589793e0 AS lam,
         radians(y) AS phi, radians(40.0e0) AS p0
  FROM pts
),
g1 AS (
  SELECT g0.*,
         sin(p0) * sin(phi) + cos(p0) * cos(phi) * cos(lam) AS cosc
  FROM g0
),
g2 AS (
  SELECT g1.*,
         CASE WHEN cosc > 1.0e-12 THEN 1.0e0 / cosc ELSE NULL END AS kp
  FROM g1
)
SELECT point_id,
       CAST(floor(6378137.0e0 * kp * cos(phi) * sin(lam) * 100.0e0)
            AS BIGINT) AS x_cm,
       CAST(floor(6378137.0e0 * kp
                  * (cos(p0) * sin(phi) - sin(p0) * cos(phi) * cos(lam))
                  * 100.0e0) AS BIGINT) AS y_cm,
       TRUE AS roundtrip_ok
FROM g2
"""

    # transform_mill: Snyder's Miller cylindrical — one expression
    sql["transform_mill"] = f"""
WITH {_PTS_CTE.strip()}
SELECT point_id,
       CAST(floor(6378137.0e0
                  * (fmod(radians(x) + 3.141592653589793e0,
                          6.283185307179586e0) - 3.141592653589793e0)
                  * 100.0e0) AS BIGINT) AS x_cm,
       CAST(floor(6378137.0e0
                  * ln(tan(pi() / 4.0e0 + 0.4e0 * radians(y))) * 1.25e0
                  * 100.0e0) AS BIGINT) AS y_cm,
       TRUE AS roundtrip_ok
FROM pts
"""

    # transform_eck6: Eckert VI — the twelve guarded Newton iterations
    # replayed one CTE per iteration (same discipline as eck4)
    _e6_iter = (
        "CASE WHEN abs(1.0e0 + cos({t})) > 1.0e-12"
        " THEN {t} - ({t} + sin({t}) - rhs) / (1.0e0 + cos({t}))"
        " ELSE {t} END"
    )
    sql["transform_eck6"] = f"""
WITH {_PTS_CTE.strip()},
s0 AS (
  SELECT point_id,
         fmod(radians(x) + 3.141592653589793e0, 6.283185307179586e0)
           - 3.141592653589793e0 AS lam,
         radians(y) AS t0,
         (1.0e0 + pi() / 2.0e0) * sin(radians(y)) AS rhs
  FROM pts
),
{"".join(
    f"s{i+1} AS (SELECT point_id, lam, rhs, "
    + _e6_iter.format(t=f"t{i}") + f" AS t{i+1} FROM s{i}),"
    for i in range(12)
).rstrip(",")}
SELECT point_id,
       CAST(floor(6378137.0e0 * lam * (1.0e0 + cos(t12))
                  / sqrt(2.0e0 + pi()) * 100.0e0) AS BIGINT) AS x_cm,
       CAST(floor(2.0e0 * 6378137.0e0 * t12 / sqrt(2.0e0 + pi())
                  * 100.0e0) AS BIGINT) AS y_cm,
       TRUE AS roundtrip_ok
FROM s12
"""

    # transform_aitoff: the Aitoff term of the Winkel machinery —
    # x doubled, no equirectangular average. Nothing golden.
    sql["transform_aitoff"] = f"""
WITH {_PTS_CTE.strip()},
a0 AS (
  SELECT point_id,
         fmod(radians(x) + 3.141592653589793e0, 6.283185307179586e0)
           - 3.141592653589793e0 AS lam,
         radians(y) AS phi
  FROM pts
),
a1 AS (
  SELECT point_id, phi, 0.5e0 * lam AS lam2, cos(phi) AS cosphi
  FROM a0
),
a2 AS (
  SELECT a1.*,
         acos(least(greatest(cosphi * cos(lam2), -1.0e0), 1.0e0)) AS alpha
  FROM a1
),
a3 AS (
  SELECT a2.*,
         CASE WHEN alpha > 1.0e-12 THEN alpha / sin(alpha)
              ELSE 1.0e0 END AS sincinv
  FROM a2
)
SELECT point_id,
       CAST(floor(2.0e0 * 6378137.0e0 * cosphi * sin(lam2) * sincinv
                  * 100.0e0) AS BIGINT) AS x_cm,
       CAST(floor(6378137.0e0 * sin(phi) * sincinv * 100.0e0)
            AS BIGINT) AS y_cm,
       TRUE AS roundtrip_ok
FROM a3
"""

    # transform_vandg: Snyder's Van der Grinten I — the A/theta/G/P/Q
    # chain mirrored term by term (main branch; the points sit off the
    # equator and central meridian). sign(lam) = -1 and sign(phi) = +1
    # for every point in the window. Nothing golden.
    sql["transform_vandg"] = f"""
WITH {_PTS_CTE.strip()},
v0 AS (
  SELECT point_id,
         fmod(radians(x) + 3.141592653589793e0, 6.283185307179586e0)
           - 3.141592653589793e0 AS lam,
         radians(y) AS phi
  FROM pts
),
v1 AS (
  SELECT point_id, lam, phi,
         asin(least(abs(2.0e0 * phi / pi()), 1.0e0)) AS theta,
         0.5e0 * abs(pi() / lam - lam / pi()) AS biga
  FROM v0
),
v2 AS (
  SELECT v1.*,
         cos(theta) / (sin(theta) + cos(theta) - 1.0e0) AS g
  FROM v1
),
v3 AS (
  SELECT v2.*, g * (2.0e0 / sin(theta) - 1.0e0) AS p,
         biga * biga AS a2
  FROM v2
),
v4 AS (
  SELECT v3.*, p * p AS p2, a2 + g AS q FROM v3
),
v5 AS (
  SELECT v4.*, p2 + a2 AS p2a2, g - p2 AS gp FROM v4
)
SELECT point_id,
       CAST(floor(-(pi() * 6378137.0e0
                    * (biga * gp
                       + sqrt(greatest(a2 * (gp * gp)
                                       - p2a2 * (g * g - p2), 0.0e0)))
                    / p2a2) * 100.0e0) AS BIGINT) AS x_cm,
       CAST(floor(pi() * 6378137.0e0
                  * (p * q - biga * sqrt(greatest((a2 + 1.0e0) * p2a2
                                                  - q * q, 0.0e0)))
                  / p2a2 * 100.0e0) AS BIGINT) AS y_cm,
       TRUE AS roundtrip_ok
FROM v5
"""

    # transform_natearth: the published 2011 Natural Earth polynomial
    # pair, engine association mirrored term by term. Nothing golden.
    sql["transform_natearth"] = f"""
WITH {_PTS_CTE.strip()},
n0 AS (
  SELECT point_id,
         fmod(radians(x) + 3.141592653589793e0, 6.283185307179586e0)
           - 3.141592653589793e0 AS lam,
         radians(y) AS phi
  FROM pts
),
n1 AS (SELECT n0.*, phi * phi AS p2 FROM n0),
n2 AS (SELECT n1.*, p2 * p2 AS p4 FROM n1)
SELECT point_id,
       CAST(floor(6378137.0e0 * lam
                  * (0.8707e0 - 0.131979e0 * p2 - 0.013791e0 * p4
                     + p4 * p4 * (0.003971e0 * p2 - 0.001529e0 * p4))
                  * 100.0e0) AS BIGINT) AS x_cm,
       CAST(floor(6378137.0e0
                  * (phi * (1.007226e0 + 0.015085e0 * p2
                            + p4 * (-0.044475e0 * p2 + 0.028874e0 * p4
                                    - 0.005916e0 * p4 * p2)))
                  * 100.0e0) AS BIGINT) AS y_cm,
       TRUE AS roundtrip_ok
FROM n2
"""

    # transform_hammer: Snyder's Hammer — closed form, one CTE
    sql["transform_hammer"] = f"""
WITH {_PTS_CTE.strip()},
h0 AS (
  SELECT point_id,
         fmod(radians(x) + 3.141592653589793e0, 6.283185307179586e0)
           - 3.141592653589793e0 AS lam,
         radians(y) AS phi
  FROM pts
),
h1 AS (
  SELECT point_id, phi, cos(phi) AS cosphi, 0.5e0 * lam AS lam2
  FROM h0
),
h2 AS (
  SELECT h1.*, sqrt(1.0e0 + cosphi * cos(lam2)) AS d FROM h1
)
SELECT point_id,
       CAST(floor(6378137.0e0 * 2.0e0 * sqrt(2.0e0) * cosphi * sin(lam2)
                  / d * 100.0e0) AS BIGINT) AS x_cm,
       CAST(floor(6378137.0e0 * sqrt(2.0e0) * sin(phi) / d * 100.0e0)
            AS BIGINT) AS y_cm,
       TRUE AS roundtrip_ok
FROM h2
"""

    # transform_moll: Snyder's Mollweide with the fixed ten-iteration
    # Newton solve replayed one CTE per iteration — nothing golden
    _mo_iter = (
        "{t} - (2.0e0*{t} + sin(2.0e0*{t}) - rhs)"
        " / (2.0e0 + 2.0e0*cos(2.0e0*{t}))"
    )
    sql["transform_moll"] = f"""
WITH {_PTS_CTE.strip()},
m0 AS (
  SELECT point_id,
         fmod(radians(x) + 3.141592653589793e0, 6.283185307179586e0)
           - 3.141592653589793e0 AS lam,
         radians(y) AS t0, pi() * sin(radians(y)) AS rhs
  FROM pts
),
{"".join(
    f"m{i+1} AS (SELECT point_id, lam, rhs, "
    + _mo_iter.format(t=f"t{i}") + f" AS t{i+1} FROM m{i}),"
    for i in range(10)
).rstrip(",")}
SELECT point_id,
       CAST(floor((2.0e0 * sqrt(2.0e0) / pi()) * 6378137.0e0 * lam
                  * cos(t10) * 100.0e0) AS BIGINT) AS x_cm,
       CAST(floor(sqrt(2.0e0) * 6378137.0e0 * sin(t10) * 100.0e0)
            AS BIGINT) AS y_cm,
       TRUE AS roundtrip_ok
FROM m10
"""

    # transform_ortho: closed-form Snyder orthographic, center 40N 120W
    sql["transform_ortho"] = f"""
WITH {_PTS_CTE.strip()},
oo AS (
  SELECT point_id,
         fmod(radians(x - -120.0e0) + 3.141592653589793e0,
              6.283185307179586e0) - 3.141592653589793e0 AS lam,
         radians(y) AS pw, radians(40.0e0) AS p0
  FROM pts
  WHERE x < -100.0e0
)
SELECT point_id,
       CAST(floor(6378137.0e0 * cos(pw) * sin(lam) * 100.0e0)
            AS BIGINT) AS x_cm,
       CAST(floor(6378137.0e0 * (cos(p0) * sin(pw)
                                 - sin(p0) * cos(pw) * cos(lam))
                  * 100.0e0) AS BIGINT) AS y_cm,
       TRUE AS roundtrip_ok
FROM oo
"""

    # transform_igh: interrupted Goode homolosine — lobe CASE, the
    # sinusoidal/Mollweide join CASE, and the ten Newton iterations all
    # replayed in SQL. Northern hemisphere only here (lat 36..44), so
    # sign(phi) = +1 in the Mollweide y shift. Nothing golden.
    sql["transform_igh"] = f"""
WITH {_PTS_CTE.strip()},
i0 AS (
  SELECT point_id,
         fmod((CASE WHEN x < -120.0e0 THEN x + 100.0e0 ELSE x END)
              + 180.0e0, 360.0e0) - 180.0e0 AS lonw,
         radians(y) AS pw, pi() * sin(radians(y)) AS rhs, radians(y) AS t0
  FROM pts
  WHERE x < -100.0e0
),
i1 AS (
  SELECT *, CASE WHEN lonw < -40.0e0 THEN -100.0e0 ELSE 30.0e0 END AS lam0
  FROM i0
),
i2 AS (
  SELECT *, fmod(radians(lonw - lam0) + 3.141592653589793e0,
                 6.283185307179586e0) - 3.141592653589793e0 AS lam
  FROM i1
),
{"".join(
    f"n{i+1} AS (SELECT point_id, lonw, pw, rhs, lam, lam0, "
    + f"t{i} - (2.0e0*t{i} + sin(2.0e0*t{i}) - rhs)"
      f" / (2.0e0 + 2.0e0*cos(2.0e0*t{i})) AS t{i+1} FROM "
    + ("i2" if i == 0 else f"n{i}") + "),"
    for i in range(10)
).rstrip(",")}
SELECT point_id,
       CAST(floor(((CASE WHEN abs(pw) > 0.7109888814838443e0
                    THEN (2.0e0 * sqrt(2.0e0) / pi()) * 6378137.0e0
                         * lam * cos(t10)
                    ELSE 6378137.0e0 * lam * cos(pw) END)
                   + 6378137.0e0 * radians(lam0)) * 100.0e0)
            AS BIGINT) AS x_cm,
       CAST(floor((CASE WHEN abs(pw) > 0.7109888814838443e0
                   THEN 6378137.0e0 * (sqrt(2.0e0) * sin(t10)
                                       - 0.05280352736854088e0)
                   ELSE 6378137.0e0 * pw END) * 100.0e0)
            AS BIGINT) AS y_cm,
       TRUE AS roundtrip_ok
FROM n10
"""

    # transform_geos: geocentric-latitude view geometry, re-derived per
    # point (CGMS / PROJ geos, sweep=x) — GOES-West parameters
    sql["transform_geos"] = f"""
WITH {_PTS_CTE.strip()},
prm AS (
  SELECT (1.0e0/298.257223563e0) * (2.0e0 - 1.0e0/298.257223563e0) AS e2,
         35786023.0e0/6378137.0e0 AS rg1
),
prm2 AS (
  SELECT e2, rg1, 1.0e0 - e2 AS rp2, sqrt(1.0e0 - e2) AS rp,
         1.0e0 + rg1 AS rg
  FROM prm
),
pp AS (
  SELECT point_id,
         fmod(radians(x + 137.0e0) + 3.141592653589793e0,
              6.283185307179586e0) - 3.141592653589793e0 AS lam,
         atan(rp2 * tan(radians(y))) AS phic, prm2.*
  FROM pts, prm2
),
vv AS (
  SELECT point_id, rg1, rg,
         (rp / sqrt((rp*cos(phic))*(rp*cos(phic)) + sin(phic)*sin(phic)))
           * cos(lam) * cos(phic) AS vx,
         (rp / sqrt((rp*cos(phic))*(rp*cos(phic)) + sin(phic)*sin(phic)))
           * sin(lam) * cos(phic) AS vy,
         (rp / sqrt((rp*cos(phic))*(rp*cos(phic)) + sin(phic)*sin(phic)))
           * sin(phic) AS vz
  FROM pp
)
SELECT point_id,
       CAST(floor((rg1 * atan(vy / sqrt(vz*vz + (rg - vx)*(rg - vx))))
                  * 6378137.0e0 * 100.0e0) AS BIGINT) AS x_cm,
       CAST(floor((rg1 * atan(vz / (rg - vx)))
                  * 6378137.0e0 * 100.0e0) AS BIGINT) AS y_cm,
       TRUE AS roundtrip_ok
FROM vv
"""

    # transform_eqc: PROJ's spherical eqc on the WGS84 semi-major axis
    sql["transform_eqc"] = f"""
WITH {_PTS_CTE.strip()}
SELECT point_id,
       CAST(floor(6378137.0e0
                  * (fmod(radians(x) + 3.141592653589793e0,
                          6.283185307179586e0) - 3.141592653589793e0)
                  * 100.0e0) AS BIGINT) AS x_cm,
       CAST(floor(6378137.0e0 * radians(y) * 100.0e0) AS BIGINT) AS y_cm,
       TRUE AS roundtrip_ok
FROM pts
"""

    sql["swath_nearest"] = """
WITH pts AS (
  SELECT printf('pt%06d', c_custkey) AS point_id,
         -124.0e0 + (c_custkey % 50) * 0.02e0 + 0.003e0 AS px,
         44.0e0 - ((c_custkey // 7) % 50) * 0.02e0 - 0.003e0 AS py
  FROM customer
)
SELECT point_id,
       LEAST(GREATEST(CAST(round_even((44.0e0 - py) / 0.02e0, 0) AS BIGINT), 0), 49) AS srow,
       LEAST(GREATEST(CAST(round_even((px - (-124.0e0)) / 0.02e0, 0) AS BIGINT), 0), 49) AS scol
FROM pts
"""

    box_selects = " UNION ALL ".join(
        f"SELECT '{pid}' AS poly_id, CAST({x0} AS DOUBLE) AS xmin, CAST({y0} AS DOUBLE) AS ymin,"
        f" CAST({x1} AS DOUBLE) AS xmax, CAST({y1} AS DOUBLE) AS ymax"
        for pid, x0, y0, x1, y1 in PIP_BOXES
    )
    sql["pip_boxes"] = f"""
WITH {_PTS_CTE.strip()},
boxes AS ({box_selects})
SELECT b.poly_id AS poly_id, COUNT(*) AS n_points
FROM pts p, boxes b
WHERE p.x > b.xmin AND p.x < b.xmax AND p.y > b.ymin AND p.y < b.ymax
GROUP BY b.poly_id
"""

    sql["dedup_exact"] = """
SELECT md5(text) AS content_key, MIN(doc_id) AS keeper_doc_id, COUNT(*) AS n_dupes
FROM documents GROUP BY md5(text)
"""

    sql["bpe_tokens"] = f"""
WITH p AS (
  SELECT doc_id, regexp_extract_all(text, '{_BPE_PATTERN}') AS pieces
  FROM documents
)
SELECT doc_id,
       CAST(len(pieces) AS BIGINT) AS n_pieces,
       CAST(len(list_filter(pieces,
            x -> regexp_matches(ltrim(x, ' ')[1:1], '[A-Za-z]')))
            AS BIGINT) AS n_alpha,
       CAST(len(list_filter(pieces,
            x -> regexp_matches(ltrim(x, ' ')[1:1], '[0-9]')))
            AS BIGINT) AS n_num
FROM p
"""

    sql["hist_equalize"] = f"""
WITH {{imgs_cte}},
px AS (
  SELECT d, (d * 31 + r.range * 7 + c.range * 13) % 251 AS v
  FROM imgs, range(100) r, range(100) c
),
cnt AS (SELECT d, v, CAST(COUNT(*) AS BIGINT) AS n FROM px GROUP BY d, v),
c2 AS (
  SELECT d, v, n,
         SUM(n) OVER (PARTITION BY d ORDER BY v) AS cdf
  FROM cnt
),
c3 AS (
  SELECT d, v, n, cdf,
         MIN(cdf) OVER (PARTITION BY d) AS cdf_min
  FROM c2
)
SELECT printf('img%08d', d) AS image_id, v AS value, n AS n_px,
       CAST(((cdf - cdf_min) * 255) // greatest(10000 - cdf_min, 1)
            AS BIGINT) AS eq
FROM c3
""".replace("{imgs_cte}", _IMGS_CTE.format(n=N_IMG_FOCAL).strip())

    sql["inter_arrival"] = """
WITH s AS (SELECT user_id, event_type, epoch_us(ts) AS t FROM events),
d AS (SELECT user_id, event_type,
             t - LAG(t) OVER (PARTITION BY user_id, event_type ORDER BY t) AS g
      FROM s)
SELECT user_id, event_type,
       CAST(COUNT(g) AS BIGINT) AS n_gaps,
       CAST(SUM(g) AS BIGINT) AS sum_gap_us,
       CAST(MAX(g) AS BIGINT) AS max_gap_us
FROM d GROUP BY 1, 2 HAVING COUNT(g) > 0
"""

    sql["user_fill"] = """
SELECT event_id,
       COALESCE(LAST_VALUE(CASE WHEN event_type = 'purchase' THEN value END
                           IGNORE NULLS)
                OVER (PARTITION BY user_id ORDER BY event_id
                      ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW),
                -1.0e0) AS last_purchase
FROM events
"""

    sql["band_join"] = """
WITH e AS (SELECT event_id, user_id, ts FROM events WHERE event_type = 'error'),
c AS (SELECT user_id, ts FROM events WHERE event_type = 'click')
SELECT e.event_id, CAST(COUNT(c.ts) AS BIGINT) AS n_recent_clicks
FROM e LEFT JOIN c
  ON c.user_id = e.user_id
 AND c.ts >= e.ts - INTERVAL 60 SECOND
 AND c.ts < e.ts
GROUP BY e.event_id
"""

    _g8 = " || chr(32) || ".join(f"ws[i + {j}]" for j in range(8))
    sql["dup_spans"] = (
        r"""
WITH l AS (SELECT doc_id, regexp_extract_all(text, '\S+') AS ws FROM documents),
g AS (SELECT doc_id,
             unnest(list_transform(range(1, len(ws) - 6),
                                   i -> {G8})) AS gram
      FROM l),
cnt AS (SELECT gram, COUNT(*) AS n FROM g GROUP BY gram),
dup AS (SELECT gram FROM cnt WHERE n >= 2),
dc AS (SELECT g.doc_id, CAST(COUNT(*) AS BIGINT) AS c
       FROM g JOIN dup ON dup.gram = g.gram GROUP BY g.doc_id)
SELECT l.doc_id,
       CAST(greatest(len(l.ws) - 7, 0) AS BIGINT) AS n_grams,
       COALESCE(dc.c, 0) AS n_dup
FROM l LEFT JOIN dc ON dc.doc_id = l.doc_id
""".replace("{G8}", _g8.replace("ws[i + 0]", "ws[i]"))
    )

    sql["set_except"] = """
SELECT c_custkey FROM customer
EXCEPT
SELECT o_custkey FROM orders WHERE o_totalprice > 400000.0e0
"""

    sql["set_intersect"] = """
SELECT c_custkey FROM customer INTERSECT SELECT o_custkey FROM orders
"""

    sql["chunk_spans"] = r"""
WITH tok AS (
  SELECT doc_id,
         CAST(len(regexp_extract_all(text, '\S+')) AS BIGINT) AS n
  FROM documents
),
s AS (
  SELECT doc_id, n, unnest(range(0, n, 48)) AS start FROM tok
)
SELECT doc_id,
       start // 48 AS chunk_idx,
       start,
       LEAST(64, n - start) AS len
FROM s
"""

    sql["streaming_dedup"] = """
SELECT md5(text) AS key, MIN(doc_id) AS first_id
FROM documents GROUP BY md5(text)
"""

    sql["token_stats"] = """
SELECT doc_id,
       CAST(len(regexp_extract_all(text, '\\S+')) AS BIGINT) AS n_tokens,
       CAST(length(text) AS BIGINT) AS n_chars,
       CAST(len(regexp_extract_all(text, '[A-Z]')) AS BIGINT) AS n_upper,
       CAST(len(list_filter(regexp_extract_all(text, '\\S+'),
            w -> list_contains(['the','and','of','a','to','in','is','it','that','for'],
                               lower(w)))) AS BIGINT) AS n_stop
FROM documents
"""

    sql["events_window"] = """
SELECT event_type,
       CAST(floor(epoch(ts) / 3600) AS BIGINT) AS window_start,
       COUNT(*) AS n,
       MIN(value) AS min_value,
       MAX(value) AS max_value
FROM events GROUP BY event_type, CAST(floor(epoch(ts) / 3600) AS BIGINT)
"""

    # rank_fusion: competition ranks (ties share) per score column,
    # Borda sum, fused competition rank ascending
    sql["rank_fusion"] = """
WITH s AS (
  SELECT doc_id,
         (doc_id * 13 + 5) % 101 AS sa,
         (doc_id * 29 + 7) % 103 AS sb
  FROM documents
),
r AS (
  SELECT doc_id, sa, sb,
         rank() OVER (ORDER BY sa DESC) AS rank_sa,
         rank() OVER (ORDER BY sb DESC) AS rank_sb
  FROM s
)
SELECT doc_id,
       CAST(rank_sa AS BIGINT) AS rank_sa,
       CAST(rank_sb AS BIGINT) AS rank_sb,
       CAST(rank_sa + rank_sb AS BIGINT) AS borda,
       CAST(rank() OVER (ORDER BY rank_sa + rank_sb) AS BIGINT)
           AS fused_rank
FROM r
"""
    # late_interaction: dot over 16 dims -> MAX over 8 doc tokens ->
    # SUM over 4 query tokens; arg_t0 ties to the lowest doc token
    sql["late_interaction"] = """
WITH dots AS (
  SELECT d.doc_id, qt.q AS qtok, dt.t AS dtok,
         SUM(((d.doc_id * 7 + dt.t * 13 + i.i * 3) % 17 - 8)
             * ((qt.q * 5 + i.i * 11) % 17 - 8)) AS dot
  FROM documents d, range(0, 4) qt(q), range(0, 8) dt(t), range(0, 16) i(i)
  GROUP BY d.doc_id, qt.q, dt.t
),
best AS (
  SELECT doc_id, qtok, MAX(dot) AS m FROM dots GROUP BY doc_id, qtok
),
a0 AS (
  SELECT doc_id, dtok FROM dots WHERE qtok = 0
  QUALIFY row_number() OVER (PARTITION BY doc_id
                             ORDER BY dot DESC, dtok) = 1
)
SELECT best.doc_id,
       CAST(SUM(best.m) AS BIGINT) AS score,
       CAST(MAX(a0.dtok) AS BIGINT) AS arg_t0
FROM best JOIN a0 ON a0.doc_id = best.doc_id
GROUP BY best.doc_id
"""
    sql["ann_topk"] = """
WITH q AS (SELECT embedding AS qv FROM embeddings WHERE vec_id = 0)
SELECT CAST(row_number() OVER (ORDER BY list_cosine_similarity(e.embedding, q.qv) DESC, e.vec_id)
            AS INTEGER) AS rank,
       e.vec_id AS vec_id
FROM embeddings e, q
ORDER BY rank LIMIT 10
"""

    # hotspots: Gi* — every radicand is BIGINT-exact; the one float
    # expression is mul -> sqrt -> div in the same order as numpy
    sql["hotspots"] = f"""
WITH {_IMGS_CTE.format(n=N_IMG_MERGE).strip()},
g AS (
  SELECT d, SUM((d * 31 + r.range * 7 + c.range * 13) % 251) AS s,
         SUM(((d * 31 + r.range * 7 + c.range * 13) % 251)
             * ((d * 31 + r.range * 7 + c.range * 13) % 251)) AS q
  FROM imgs, range(100) r, range(100) c GROUP BY d
),
lat AS (
  SELECT d, r.range AS r, c.range AS c
  FROM imgs, range(0, 100, 7) r, range(0, 100, 7) c
),
nb AS (
  SELECT d, r, c,
         SUM((d * 31 + (r + o1.o) * 7 + (c + o2.o) * 13) % 251) AS li,
         COUNT(*) AS wi
  FROM lat,
       (SELECT unnest([-1, 0, 1]) AS o) o1,
       (SELECT unnest([-1, 0, 1]) AS o) o2
  WHERE r + o1.o BETWEEN 0 AND 99 AND c + o2.o BETWEEN 0 AND 99
  GROUP BY d, r, c
)
SELECT printf('img%08d', nb.d) AS image_id,
       nb.r AS r, nb.c AS c,
       CAST(10000 * li - wi * g.s AS BIGINT) AS z_num,
       wi AS w_cnt,
       CAST(10000 * li - wi * g.s AS DOUBLE) * sqrt(CAST(9999 AS DOUBLE))
         / sqrt(CAST((10000 * g.q - g.s * g.s) * (10000 * wi - wi * wi)
                     AS DOUBLE)) AS gi_z
FROM nb JOIN g ON nb.d = g.d
"""

    # cutfill: pure-integer sign splits of (before - after)
    sql["cutfill"] = f"""
WITH {_IMGS_CTE.format(n=N_IMG_MERGE).strip()},
dd AS (
  SELECT d,
         (d * 31 + r.range * 7 + c.range * 13) % 251
           - (d * 37 + r.range * 11 + c.range * 5) % 241 AS dz
  FROM imgs, range(100) r, range(100) c
)
SELECT printf('img%08d', d) AS image_id,
       CAST(COALESCE(SUM(CASE WHEN dz > 0 THEN dz END), 0) AS BIGINT) AS cut,
       CAST(COALESCE(-SUM(CASE WHEN dz < 0 THEN dz END), 0) AS BIGINT) AS fill,
       CAST(SUM(dz) AS BIGINT) AS net,
       COUNT(*) FILTER (dz > 0) AS n_cut,
       COUNT(*) FILTER (dz < 0) AS n_fill,
       COUNT(*) FILTER (dz = 0) AS n_same
FROM dd GROUP BY d
"""

    # block_flow: exact int64 SAD per (block, displacement) from the two
    # pixel formulas; the argmin tie rule is ORDER BY sad, dy, dx
    sql["block_flow"] = f"""
WITH {_IMGS_CTE.format(n=N_IMG_MERGE).strip()},
blocks AS (
  SELECT d, bi.range AS bi, bj.range AS bj
  FROM imgs, range(8) bi, range(8) bj
),
sads AS (
  SELECT d, bi, bj, dy.range AS dy, dx.range AS dx,
         CAST(SUM(ABS(
           (d * 31 + (2 + bi * 12 + i.range) * 7
                    + (2 + bj * 12 + j.range) * 13) % 251
           - (d * 37 + (2 + dy.range + bi * 12 + i.range) * 11
                     + (2 + dx.range + bj * 12 + j.range) * 5) % 241
         )) AS BIGINT) AS sad
  FROM blocks, range(-2, 3) dy, range(-2, 3) dx,
       range(12) i, range(12) j
  GROUP BY d, bi, bj, dy.range, dx.range
),
best AS (
  SELECT d, bi, bj, dy, dx, sad,
         row_number() OVER (PARTITION BY d, bi, bj
                            ORDER BY sad, dy, dx) AS rn
  FROM sads
)
SELECT printf('img%08d', d) AS image_id,
       bi, bj, dy, dx, sad
FROM best WHERE rn = 1
"""

    # harris: integer Sobel/structure-tensor sums from the pixel
    # formula; k=1/25 kept integral; strict NMS via a neighbor-max join
    sql["harris"] = f"""
WITH {_IMGS_CTE.format(n=N_IMG_MERGE).strip()},
sw AS (
  SELECT * FROM (VALUES (-1, -1, -1, -1), (-1, 0, 0, -2), (-1, 1, 1, -1),
                        (0, -1, -2, 0), (0, 1, 2, 0),
                        (1, -1, -1, 1), (1, 0, 0, 2), (1, 1, 1, 1))
       AS t(dr, dc, wx, wy)
),
g AS (
  SELECT d, r.range AS r, c.range AS c,
         CAST(SUM(wx * ((d * 31 + (r.range + dr) * 7
                         + (c.range + dc) * 13) % 251)) AS BIGINT) AS gx,
         CAST(SUM(wy * ((d * 31 + (r.range + dr) * 7
                         + (c.range + dc) * 13) % 251)) AS BIGINT) AS gy
  FROM imgs, range(1, 99) r, range(1, 99) c, sw
  GROUP BY d, r.range, c.range
),
o9 AS (
  SELECT o1.o AS dr, o2.o AS dc
  FROM (SELECT unnest([-1, 0, 1]) AS o) o1,
       (SELECT unnest([-1, 0, 1]) AS o) o2
),
s AS (
  SELECT g.d, g.r - o9.dr AS r, g.c - o9.dc AS c,
         CAST(SUM(g.gx * g.gx) AS BIGINT) AS sxx,
         CAST(SUM(g.gy * g.gy) AS BIGINT) AS syy,
         CAST(SUM(g.gx * g.gy) AS BIGINT) AS sxy
  FROM g, o9
  WHERE g.r - o9.dr BETWEEN 2 AND 97 AND g.c - o9.dc BETWEEN 2 AND 97
  GROUP BY g.d, g.r - o9.dr, g.c - o9.dc
),
resp AS (
  SELECT d, r, c,
         25 * (sxx * syy - sxy * sxy) - (sxx + syy) * (sxx + syy) AS resp
  FROM s
),
o8 AS (SELECT dr, dc FROM o9 WHERE dr != 0 OR dc != 0),
nmax AS (
  SELECT a.d, a.r, a.c, MAX(b.resp) AS nmax
  FROM resp a, o8, resp b
  WHERE b.d = a.d AND b.r = a.r + o8.dr AND b.c = a.c + o8.dc
  GROUP BY a.d, a.r, a.c
)
SELECT printf('img%08d', a.d) AS image_id, a.r AS r, a.c AS c,
       a.resp AS resp
FROM resp a JOIN nmax n ON n.d = a.d AND n.r = a.r AND n.c = a.c
WHERE a.resp > 0 AND a.resp > n.nmax
"""

    # fast_corners: 16-bit circular bright/dark masks as disjoint
    # power-of-two sums; longest wrap arc via the doubled-mask AND-shift
    # chain (identical bit arithmetic to the engine kernel)
    def _arc_case(col: str) -> str:
        whens = []
        for i in range(16, 0, -1):
            ands = " & ".join(f"({col} >> {j})" for j in range(i))
            whens.append(f"WHEN ({ands}) != 0 THEN {i}")
        return "CASE " + " ".join(whens) + " ELSE 0 END"

    _fast_px = "(d * 31 + ({r}) * 7 + ({c}) * 13) % 251"
    _fast_v = (f"(({_fast_px}) * ({_fast_px})) % 251")
    _vc = _fast_v.format(r="r.range", c="c.range")
    _vq = _fast_v.format(r="r.range + dr", c="c.range + dc")
    sql["fast_corners"] = f"""
WITH {_IMGS_CTE.format(n=N_IMG_MERGE).strip()},
offs AS (
  SELECT * FROM (VALUES (0, -3, 0), (1, -3, 1), (2, -2, 2), (3, -1, 3),
                        (4, 0, 3), (5, 1, 3), (6, 2, 2), (7, 3, 1),
                        (8, 3, 0), (9, 3, -1), (10, 2, -2), (11, 1, -3),
                        (12, 0, -3), (13, -1, -3), (14, -2, -2),
                        (15, -3, -1)) AS t(k, dr, dc)
),
mask AS (
  SELECT d, r.range AS r, c.range AS c,
         CAST(SUM(CASE WHEN {_vq} > {_vc} + 80
                       THEN CAST(1 AS BIGINT) << k ELSE 0 END)
              AS BIGINT) AS mb,
         CAST(SUM(CASE WHEN {_vq} < {_vc} - 80
                       THEN CAST(1 AS BIGINT) << k ELSE 0 END)
              AS BIGINT) AS md
  FROM imgs, range(3, 97) r, range(3, 97) c, offs
  GROUP BY d, r.range, c.range
),
runs AS (
  SELECT d, r, c,
         CAST({_arc_case("(mb | (mb << 16))")} AS BIGINT) AS n_bright,
         CAST({_arc_case("(md | (md << 16))")} AS BIGINT) AS n_dark
  FROM mask
)
SELECT printf('img%08d', d) AS image_id, r, c, n_bright, n_dark
FROM runs WHERE n_bright >= 9 OR n_dark >= 9
"""

    # geomorphons: atan is monotone so comparing 12/k-scaled integer
    # LOS slopes equals comparing angles; the class LUT is the engine's
    # GEOMORPHON_TABLE constant inlined as VALUES
    from rasters_ray.stages.terrain import GEOMORPHON_TABLE

    _lut_rows = ", ".join(
        f"({m}, {p}, {code})"
        for m, row in enumerate(GEOMORPHON_TABLE)
        for p, code in enumerate(row)
        if code != 0
    )
    sql["geomorphons"] = f"""
WITH {_IMGS_CTE.format(n=N_IMG_MERGE).strip()},
lat AS (
  SELECT d, r.range AS r, c.range AS c
  FROM imgs, range(0, 100, 7) r, range(0, 100, 7) c
),
dirs AS (
  SELECT * FROM (VALUES (-1, 0), (-1, 1), (0, 1), (1, 1),
                        (1, 0), (1, -1), (0, -1), (-1, -1)) AS t(dr, dc)
),
los AS (
  SELECT d, r, c, dr, dc,
         MAX((12 // k.k) * ((d * 31 + (r + dr * k.k) * 7 + (c + dc * k.k) * 13) % 251
                            - (d * 31 + r * 7 + c * 13) % 251)) AS a,
         MIN((12 // k.k) * ((d * 31 + (r + dr * k.k) * 7 + (c + dc * k.k) * 13) % 251
                            - (d * 31 + r * 7 + c * 13) % 251)) AS b
  FROM lat, dirs, range(1, 5) k(k)
  WHERE r + dr * k.k BETWEEN 0 AND 99 AND c + dc * k.k BETWEEN 0 AND 99
  GROUP BY d, r, c, dr, dc
),
tern AS (
  SELECT d, r, c,
         SUM(CASE WHEN a > -b THEN 1 ELSE 0 END) AS n_plus,
         SUM(CASE WHEN -b > a THEN 1 ELSE 0 END) AS n_minus
  FROM los GROUP BY d, r, c
),
lut AS (SELECT * FROM (VALUES {_lut_rows}) AS t(m, p, code))
SELECT printf('img%08d', d) AS image_id, r, c,
       CAST(n_plus AS BIGINT) AS n_plus,
       CAST(n_minus AS BIGINT) AS n_minus,
       CAST(lut.code AS BIGINT) AS landform
FROM tern JOIN lut ON lut.m = tern.n_minus AND lut.p = tern.n_plus
"""

    # trend: centered doubled coords (u = 2c - 99, v = 2r - 99) make
    # the normal equations diagonal; suu = svv = 100 * sum u^2
    sql["trend"] = f"""
WITH {_IMGS_CTE.format(n=N_IMG_MERGE).strip()},
t AS (
  SELECT d,
         SUM((d * 31 + r.range * 7 + c.range * 13) % 251) AS s_z,
         SUM(((d * 31 + r.range * 7 + c.range * 13) % 251)
             * (2 * c.range - 99)) AS s_uz,
         SUM(((d * 31 + r.range * 7 + c.range * 13) % 251)
             * (2 * r.range - 99)) AS s_vz
  FROM imgs, range(100) r, range(100) c GROUP BY d
),
k AS (SELECT 100 * SUM((2 * range - 99) * (2 * range - 99)) AS suu
      FROM range(100))
SELECT printf('img%08d', d) AS image_id,
       CAST(s_z AS BIGINT) AS s_z, CAST(s_uz AS BIGINT) AS s_uz,
       CAST(s_vz AS BIGINT) AS s_vz,
       CAST(s_z AS DOUBLE) / CAST(10000 AS DOUBLE) AS mean,
       CAST(s_uz AS DOUBLE) / CAST(k.suu AS DOUBLE) AS slope_u,
       CAST(s_vz AS DOUBLE) / CAST(k.suu AS DOUBLE) AS slope_v
FROM t, k
"""

    # variogram: integer pair sums over shifted formula differences,
    # pooled row+column; gamma is one exact ratio
    sql["variogram"] = f"""
WITH {_IMGS_CTE.format(n=N_IMG_MERGE).strip()},
lags AS (SELECT unnest([1, 2, 3, 4, 5, 6, 7, 8]) AS h),
colp AS (
  SELECT d, h,
         SUM(((d * 31 + r.range * 7 + c.range * 13) % 251
              - (d * 31 + r.range * 7 + (c.range + h) * 13) % 251)
             * ((d * 31 + r.range * 7 + c.range * 13) % 251
                - (d * 31 + r.range * 7 + (c.range + h) * 13) % 251)) AS s,
         COUNT(*) AS n
  FROM imgs, lags, range(100) r, range(100) c
  WHERE c.range + h <= 99 GROUP BY d, h
),
rowp AS (
  SELECT d, h,
         SUM(((d * 31 + r.range * 7 + c.range * 13) % 251
              - (d * 31 + (r.range + h) * 7 + c.range * 13) % 251)
             * ((d * 31 + r.range * 7 + c.range * 13) % 251
                - (d * 31 + (r.range + h) * 7 + c.range * 13) % 251)) AS s,
         COUNT(*) AS n
  FROM imgs, lags, range(100) r, range(100) c
  WHERE r.range + h <= 99 GROUP BY d, h
)
SELECT printf('img%08d', colp.d) AS image_id,
       colp.h AS lag,
       CAST(colp.s + rowp.s AS BIGINT) AS d2sum,
       colp.n + rowp.n AS n_pairs,
       CAST(colp.s + rowp.s AS DOUBLE)
         / CAST(2 * (colp.n + rowp.n) AS DOUBLE) AS gamma
FROM colp JOIN rowp ON colp.d = rowp.d AND colp.h = rowp.h
"""

    # lisa: local Moran — one integer ratio n*y*R / b per cell; the
    # quadrant is pure sign logic on the integer pieces
    sql["lisa"] = f"""
WITH {_IMGS_CTE.format(n=N_IMG_MERGE).strip()},
g AS (
  SELECT d, SUM((d * 31 + r.range * 7 + c.range * 13) % 251) AS s,
         SUM(((d * 31 + r.range * 7 + c.range * 13) % 251)
             * ((d * 31 + r.range * 7 + c.range * 13) % 251)) AS q
  FROM imgs, range(100) r, range(100) c GROUP BY d
),
lat AS (
  SELECT d, r.range AS r, c.range AS c
  FROM imgs, range(0, 100, 7) r, range(0, 100, 7) c
),
nb AS (
  SELECT d, r, c,
         SUM((d * 31 + (r + o1.o) * 7 + (c + o2.o) * 13) % 251) AS li,
         COUNT(*) AS ki
  FROM lat,
       (SELECT unnest([-1, 0, 1]) AS o) o1,
       (SELECT unnest([-1, 0, 1]) AS o) o2
  WHERE abs(o1.o) + abs(o2.o) = 1
    AND r + o1.o BETWEEN 0 AND 99 AND c + o2.o BETWEEN 0 AND 99
  GROUP BY d, r, c
),
z AS (
  SELECT nb.d, nb.r, nb.c, nb.ki,
         10000 * ((nb.d * 31 + nb.r * 7 + nb.c * 13) % 251) - g.s AS y,
         10000 * li - ki * g.s AS ri,
         100000000 * g.q - 10000 * g.s * g.s AS b
  FROM nb JOIN g ON nb.d = g.d
)
SELECT printf('img%08d', d) AS image_id, r, c,
       CAST(y * ri AS BIGINT) AS li_num,
       ki AS k_cnt,
       CAST(10000 * y * ri AS DOUBLE) / CAST(b AS DOUBLE) AS local_i,
       CASE WHEN y > 0 AND ri > 0 THEN 1
            WHEN y < 0 AND ri < 0 THEN 2
            WHEN y > 0 AND ri < 0 THEN 3
            WHEN y < 0 AND ri > 0 THEN 4
            ELSE 0 END AS quadrant
FROM z
"""

    sql["zonal_majority"] = f"""
WITH {_IMGS_CTE.format(n=N_IMG_MERGE).strip()},
px AS (
  SELECT x0 + (c.range + 0.5e0) * 0.01e0 AS cx,
         y0 + (r.range + 0.5e0) * (-0.01e0) AS cy,
         (d * 31 + r.range * 7 + c.range * 13) % 251 AS value
  FROM imgs, range(100) r, range(100) c
),
zones AS (
  SELECT o_orderkey AS zone_id,
         -124.0e0 + (o_orderkey % 700) * 0.01e0 + 0.003e0 AS zxmin,
         44.0e0 - ((o_orderkey // 11) % 700) * 0.01e0 - 0.003e0 AS zymax,
         -124.0e0 + (o_orderkey % 700) * 0.01e0 + 0.003e0
           + 0.05e0 + (o_orderkey % 13) * 0.01e0 AS zxmax,
         44.0e0 - ((o_orderkey // 11) % 700) * 0.01e0 - 0.003e0
           - 0.05e0 - (o_orderkey % 17) * 0.01e0 AS zymin
  FROM orders WHERE o_orderkey % 41 = 0
),
pairs AS (
  SELECT z.zone_id, p.value, COUNT(*) AS n
  FROM zones z JOIN px p
    ON p.cx >= z.zxmin AND p.cx <= z.zxmax AND p.cy >= z.zymin AND p.cy <= z.zymax
  GROUP BY z.zone_id, p.value
)
SELECT zone_id,
       COUNT(*) AS variety,
       MIN(value) AS vmin,
       MAX(value) AS vmax,
       arg_min(value, -n * 251 + value) AS majority,
       MAX(n) AS majority_n,
       arg_min(value, n * 251 + value) AS minority,
       MIN(n) AS minority_n
FROM pairs GROUP BY zone_id
"""

    sql["crosstab"] = f"""
WITH {_IMGS_CTE.format(n=N_IMG_MERGE).strip()},
px AS (
  SELECT (d * 31 + r.range * 7 + c.range * 13) % 251 AS value
  FROM imgs, range(100) r, range(100) c
)
SELECT value // 51 AS zone, value % 7 AS klass, COUNT(*) AS n_px
FROM px GROUP BY value // 51, value % 7
"""

    # temporal stacks: scenes d < 32 grouped as (d % 8 stacks, epoch d // 8);
    # lower median = the rn = (cnt+1)//2 row of the per-pixel window sort
    sql["median_composite"] = f"""
WITH {_IMGS_CTE.format(n=N_IMG_MERGE).strip()},
px AS (
  SELECT d % 8 AS k, r.range AS r, c.range AS c,
         (d * 31 + r.range * 7 + c.range * 13) % 251 AS v
  FROM imgs, range(100) r, range(100) c
),
m AS (
  SELECT k, v,
         row_number() OVER (PARTITION BY k, r, c ORDER BY v) AS rn,
         COUNT(*) OVER (PARTITION BY k, r, c) AS cnt
  FROM px
)
SELECT k AS stack_key, v AS value, CAST(COUNT(*) AS BIGINT) AS n_px
FROM m WHERE rn = (cnt + 1) // 2 GROUP BY k, v
"""

    sql["pixel_trend"] = f"""
WITH {_IMGS_CTE.format(n=N_IMG_MERGE).strip()},
px AS (
  SELECT d % 8 AS k, d // 8 AS t, r.range AS r, c.range AS c,
         (d * 31 + r.range * 7 + c.range * 13) % 251 AS v
  FROM imgs, range(100) r, range(100) c
),
s AS (
  SELECT k, r, c,
         COUNT(*) AS n, SUM(t * v) AS stv, SUM(t) AS st, SUM(v) AS sv
  FROM px GROUP BY k, r, c
),
num AS (SELECT k, n * stv - st * sv AS slope FROM s)
SELECT k AS stack_key, CAST(COUNT(*) AS BIGINT) AS n_px,
       CAST(SUM(CASE WHEN slope > 0 THEN 1 ELSE 0 END) AS BIGINT) AS n_up,
       CAST(SUM(CASE WHEN slope < 0 THEN 1 ELSE 0 END) AS BIGINT) AS n_down,
       CAST(SUM(CASE WHEN slope = 0 THEN 1 ELSE 0 END) AS BIGINT) AS n_flat,
       CAST(SUM(slope) AS BIGINT) AS sum_slope_num
FROM num GROUP BY k
"""

    # expand: queen-neighborhood min over expanding classes, else keep
    sql["expand"] = f"""
WITH {_IMGS_CTE.format(n=N_IMG_MERGE).strip()},
px AS (
  SELECT printf('img%08d', d) AS image_id, r.range AS r, c.range AS c,
         ((d * 31 + r.range * 7 + c.range * 13) % 251) % 7 AS cls
  FROM imgs, range(100) r, range(100) c
),
ex AS (
  SELECT image_id, r, c,
         CASE WHEN cls IN (0, 2, 5) THEN cls ELSE 999 END AS ce
  FROM px
),
nb AS (
  SELECT a.image_id, a.r, a.c, a.cls, MIN(b.ce) AS mn
  FROM px a JOIN ex b
    ON b.image_id = a.image_id
   AND b.r BETWEEN a.r - 1 AND a.r + 1
   AND b.c BETWEEN a.c - 1 AND a.c + 1
  GROUP BY a.image_id, a.r, a.c, a.cls
)
SELECT image_id,
       CAST(CASE WHEN mn < 999 THEN mn ELSE cls END AS BIGINT) AS cls,
       CAST(COUNT(*) AS BIGINT) AS n_px
FROM nb GROUP BY image_id, CASE WHEN mn < 999 THEN mn ELSE cls END
"""

    # clark_evans: exact millidegree self-NN + fixed-order R replay
    sql["clark_evans"] = """
WITH pts AS (
  SELECT printf('pt%06d', c_custkey) AS pid,
         CAST(ROUND((-124.0e0 + (c_custkey % 800) * 0.01e0 + 0.001e0
                     + CASE WHEN c_custkey % 97 = 0 THEN 50.0e0
                            ELSE 0.0e0 END) * 1000.0e0) AS BIGINT) AS xi,
         CAST(ROUND((44.0e0 - ((c_custkey // 7) % 800) * 0.01e0
                     - 0.001e0) * 1000.0e0) AS BIGINT) AS yi
  FROM customer),
nn AS (
  SELECT a.pid,
         MIN((a.xi - b.xi) * (a.xi - b.xi)
             + (a.yi - b.yi) * (a.yi - b.yi)) AS d2
  FROM pts a JOIN pts b ON b.pid <> a.pid
  GROUP BY a.pid),
f AS (
  SELECT pid, d2,
         CAST(FLOOR(sqrt(CAST(d2 AS DOUBLE)) * 1000.0e0) AS BIGINT) AS fd
  FROM nn),
s AS (
  SELECT CAST(COUNT(*) AS BIGINT) AS n, CAST(SUM(fd) AS BIGINT) AS sum_f,
         CAST(MIN(d2) AS BIGINT) AS min_nn_d2,
         CAST(MAX(d2) AS BIGINT) AS max_nn_d2
  FROM f),
b AS (
  SELECT CAST(MIN(xi) AS BIGINT) AS minx, CAST(MAX(xi) AS BIGINT) AS maxx,
         CAST(MIN(yi) AS BIGINT) AS miny, CAST(MAX(yi) AS BIGINT) AS maxy
  FROM pts)
SELECT n, sum_f, min_nn_d2, max_nn_d2, minx, maxx, miny, maxy,
       ((CAST(sum_f AS DOUBLE) / CAST(n AS DOUBLE)) / 1000.0e0)
         / (0.5e0 * sqrt(CAST((maxx - minx) * (maxy - miny) AS DOUBLE)
                         / CAST(n AS DOUBLE))) AS r_index
FROM s, b
"""

    # seam_energy: the DP replayed as a recursive CTE over row LISTs
    sql["seam_energy"] = f"""
WITH RECURSIVE {_IMGS_CTE.format(n=N_IMG_MERGE).strip()},
px AS (
  SELECT printf('img%08d', d) AS image_id, r.range AS r, c.range AS c,
         (d * 31 + r.range * 7 + c.range * 13) % 251 AS v
  FROM imgs, range(100) r, range(100) c
),
e AS (
  SELECT a.image_id, a.r, a.c,
         ABS(cr.v - cl.v) + ABS(rd.v - ru.v) AS e
  FROM px a
  JOIN px cl ON cl.image_id=a.image_id AND cl.r=a.r
            AND cl.c=GREATEST(a.c-1,0)
  JOIN px cr ON cr.image_id=a.image_id AND cr.r=a.r
            AND cr.c=LEAST(a.c+1,99)
  JOIN px ru ON ru.image_id=a.image_id AND ru.c=a.c
            AND ru.r=GREATEST(a.r-1,0)
  JOIN px rd ON rd.image_id=a.image_id AND rd.c=a.c
            AND rd.r=LEAST(a.r+1,99)
),
el AS (SELECT image_id, r, list(e ORDER BY c) AS es
       FROM e GROUP BY image_id, r),
dp AS (
  SELECT image_id, r, es AS ms FROM el WHERE r = 0
  UNION ALL
  SELECT el.image_id, el.r,
         list_transform(range(1, 101), i ->
           el.es[i] + LEAST(
             CASE WHEN i > 1 THEN d.ms[i-1] ELSE d.ms[i] END,
             d.ms[i],
             CASE WHEN i < 100 THEN d.ms[i+1] ELSE d.ms[i] END))
  FROM dp d JOIN el ON el.image_id = d.image_id AND el.r = d.r + 1
)
SELECT image_id,
       CAST(list_aggregate(ms, 'min') AS BIGINT) AS min_cost,
       CAST(list_position(ms, list_aggregate(ms, 'min')) - 1 AS BIGINT)
         AS argmin_col,
       CAST(list_aggregate(ms, 'sum') AS BIGINT) AS total_last
FROM dp WHERE r = 99
"""

    # hypsometric: exact integer HI ratio + cross-multiplied decile curve
    above_cols = ",\n       ".join(
        f"CAST(SUM(CASE WHEN 10 * (p.v - s.vmin) > {k} * (s.vmax - s.vmin) "
        f"THEN 1 ELSE 0 END) AS BIGINT) AS above_{k}"
        for k in range(1, 10)
    )
    sql["hypsometric"] = f"""
WITH {_IMGS_CTE.format(n=N_IMG_MERGE).strip()},
px AS (
  SELECT printf('img%08d', d) AS image_id,
         (d * 31 + r.range * 7 + c.range * 13) % 251 AS v
  FROM imgs, range(100) r, range(100) c
),
s AS (
  SELECT image_id, CAST(COUNT(*) AS BIGINT) AS n_px,
         CAST(MIN(v) AS BIGINT) AS vmin, CAST(MAX(v) AS BIGINT) AS vmax,
         CAST(SUM(v) AS BIGINT) AS sum_v
  FROM px GROUP BY image_id
)
SELECT s.image_id, s.n_px, s.vmin, s.vmax, s.sum_v,
       s.sum_v - s.n_px * s.vmin AS hi_num,
       s.n_px * (s.vmax - s.vmin) AS hi_den,
       {above_cols}
FROM px p JOIN s ON p.image_id = s.image_id
GROUP BY s.image_id, s.n_px, s.vmin, s.vmax, s.sum_v
"""

    # rle_profile: run starts via LAG, run ids via running sum, then
    # per-run lengths and per-image aggregates
    sql["rle_profile"] = f"""
WITH {_IMGS_CTE.format(n=N_IMG_MERGE).strip()},
px AS (
  SELECT printf('img%08d', d) AS image_id, r.range AS r, c.range AS c,
         (d * 31 + r.range * 7 + c.range * 13) % 251 AS v
  FROM imgs, range(100) r, range(100) c
),
st AS (
  SELECT image_id, r, c, v,
         CASE WHEN v IS DISTINCT FROM
                   LAG(v) OVER (PARTITION BY image_id, r ORDER BY c)
              THEN 1 ELSE 0 END AS s
  FROM px
),
rid AS (
  SELECT image_id, r,
         SUM(s) OVER (PARTITION BY image_id, r ORDER BY c) AS run_id
  FROM st
),
rl AS (
  SELECT image_id, r, run_id, COUNT(*) AS len
  FROM rid GROUP BY image_id, r, run_id
),
rows_ AS (
  SELECT image_id, r, COUNT(*) AS runs_in_row
  FROM rl GROUP BY image_id, r
)
SELECT rl.image_id,
       CAST(COUNT(*) AS BIGINT) AS n_runs,
       CAST(MAX(rl.len) AS BIGINT) AS max_run,
       CAST((SELECT COUNT(*) FROM rows_
             WHERE rows_.image_id = rl.image_id
               AND rows_.runs_in_row = 1) AS BIGINT) AS n_const_rows
FROM rl GROUP BY rl.image_id
"""

    # Theil-Sen: the 6 pairwise slopes per pixel; the lower median is
    # the slope s with #{s' < s} <= 2 < #{s' <= s} (exact cross-
    # multiplied comparisons, dt > 0); gcd-reduce, dedup per pixel,
    # histogram per stack
    sql["theil_sen"] = f"""
WITH {_IMGS_CTE.format(n=N_IMG_MERGE).strip()},
px AS (
  SELECT d % 8 AS k, d // 8 AS t, r.range AS r, c.range AS c,
         (d * 31 + r.range * 7 + c.range * 13) % 251 AS v
  FROM imgs, range(100) r, range(100) c
),
sl AS (
  SELECT a.k, a.r, a.c, a.t * 10 + b.t AS p,
         b.v - a.v AS dv, b.t - a.t AS dt
  FROM px a JOIN px b ON a.k = b.k AND a.r = b.r AND a.c = b.c AND a.t < b.t
),
cand AS (
  SELECT s.k, s.r, s.c, s.dv, s.dt,
         SUM(CASE WHEN o.dv * s.dt < s.dv * o.dt THEN 1 ELSE 0 END) AS lt,
         SUM(CASE WHEN o.dv * s.dt <= s.dv * o.dt THEN 1 ELSE 0 END) AS le
  FROM sl s JOIN sl o ON o.k = s.k AND o.r = s.r AND o.c = s.c
  GROUP BY s.k, s.r, s.c, s.p, s.dv, s.dt
),
med AS (
  SELECT DISTINCT k, r, c,
         dv // greatest(gcd(abs(dv), dt), 1) AS num,
         dt // greatest(gcd(abs(dv), dt), 1) AS den
  FROM cand WHERE lt <= 2 AND le > 2
)
SELECT k AS stack_key, CAST(num AS BIGINT) AS num, CAST(den AS BIGINT) AS den,
       CAST(COUNT(*) AS BIGINT) AS n_px
FROM med GROUP BY k, num, den
"""

    # Mann-Kendall S per pixel: time-ordered pair signs via a t1 < t2
    # self-join, then the per-stack histogram of S values
    sql["mann_kendall"] = f"""
WITH {_IMGS_CTE.format(n=N_IMG_MERGE).strip()},
px AS (
  SELECT d % 8 AS k, d // 8 AS t, r.range AS r, c.range AS c,
         (d * 31 + r.range * 7 + c.range * 13) % 251 AS v
  FROM imgs, range(100) r, range(100) c
),
pairs AS (
  SELECT a.k, a.r, a.c,
         CASE WHEN b.v > a.v THEN 1 WHEN b.v < a.v THEN -1 ELSE 0 END AS sgn
  FROM px a JOIN px b ON a.k = b.k AND a.r = b.r AND a.c = b.c AND a.t < b.t
),
s AS (SELECT k, r, c, SUM(sgn) AS s FROM pairs GROUP BY k, r, c)
SELECT k AS stack_key, CAST(s AS BIGINT) AS s,
       CAST(COUNT(*) AS BIGINT) AS n_px
FROM s GROUP BY k, s
"""

    # QA bitfield tabulation: replay each (shift, width) as // divisor and
    # % modulus on the closed-form pixel word (QA_FIELDS above)
    sql["qa_bitmask"] = f"""
WITH {_IMGS_CTE.format(n=N_IMG_MERGE).strip()},
px AS (
  SELECT printf('img%08d', d) AS image_id,
         (d * 31 + r.range * 7 + c.range * 13) % 251 AS v
  FROM imgs, range(100) r, range(100) c
),
fields AS (
  SELECT * FROM (VALUES ('fill', 1, 2), ('cloud_conf', 2, 4), ('cloud', 8, 2),
                        ('shadow', 16, 2), ('snow_conf', 32, 4),
                        ('water', 128, 2)) AS t(field, s, m)
)
SELECT px.image_id, f.field,
       CAST((px.v // f.s) % f.m AS BIGINT) AS code,
       CAST(COUNT(*) AS BIGINT) AS n_px
FROM px, fields f
GROUP BY px.image_id, f.field, (px.v // f.s) % f.m
"""

    # normalized-difference bins: bin(nd) = floor((nd+1)*k/2) = (k*a)//(a+b)
    # for non-negative integer bands — the float ratio never materializes
    sql["nd_index"] = f"""
WITH {_IMGS_CTE.format(n=N_IMG_MERGE).strip()},
px AS (
  SELECT printf('img%08d', d) AS image_id,
         (d * 31 + r.range * 7 + c.range * 13) % 251 AS a
  FROM imgs, range(100) r, range(100) c
),
nd AS (SELECT image_id, a, (a * 3) % 251 AS b FROM px)
SELECT image_id,
       CAST(CASE WHEN a + b = 0 THEN -1
                 ELSE LEAST((10 * a) // (a + b), 9) END AS BIGINT) AS bin,
       CAST(COUNT(*) AS BIGINT) AS n_px
FROM nd
GROUP BY image_id, CASE WHEN a + b = 0 THEN -1
                        ELSE LEAST((10 * a) // (a + b), 9) END
"""

    sql["zonal_stats"] = f"""
WITH {_IMGS_CTE.format(n=N_IMG_MERGE).strip()},
px AS (
  SELECT x0 + (c.range + 0.5e0) * 0.01e0 AS cx,
         y0 + (r.range + 0.5e0) * (-0.01e0) AS cy,
         (d * 31 + r.range * 7 + c.range * 13) % 251 AS value
  FROM imgs, range(100) r, range(100) c
),
zones AS (
  SELECT o_orderkey AS zone_id,
         -124.0e0 + (o_orderkey % 700) * 0.01e0 + 0.003e0 AS zxmin,
         44.0e0 - ((o_orderkey // 11) % 700) * 0.01e0 - 0.003e0 AS zymax,
         -124.0e0 + (o_orderkey % 700) * 0.01e0 + 0.003e0
           + 0.05e0 + (o_orderkey % 13) * 0.01e0 AS zxmax,
         44.0e0 - ((o_orderkey // 11) % 700) * 0.01e0 - 0.003e0
           - 0.05e0 - (o_orderkey % 17) * 0.01e0 AS zymin
  FROM orders WHERE o_orderkey % 41 = 0
)
SELECT z.zone_id, COUNT(*) AS n_px, CAST(SUM(p.value) AS BIGINT) AS sum_value
FROM zones z JOIN px p
  ON p.cx >= z.zxmin AND p.cx <= z.zxmax AND p.cy >= z.zymin AND p.cy <= z.zymax
GROUP BY z.zone_id
"""

    # phash oracles read the deterministic fixture parquet (pure-numpy
    # generator, written by _phash_fixture_path from whichever side runs
    # first — rasters_ray is importable wherever this module is)
    phash_path = _phash_fixture_path()

    sql["phash_dups"] = f"""
SELECT phash, COUNT(*) AS n
FROM read_parquet('{phash_path}')
GROUP BY phash HAVING COUNT(*) > 1
"""

    sql["phash_near"] = f"""
WITH t AS (SELECT image_id, phash FROM read_parquet('{phash_path}'))
SELECT x.image_id AS a, y.image_id AS b,
       CAST(bit_count(xor(x.phash, y.phash)) AS BIGINT) AS hamming
FROM t x JOIN t y ON x.image_id < y.image_id
WHERE bit_count(xor(x.phash, y.phash)) <= 6
"""

    # Rabin-Karp fingerprint (analysis.fingerprint64): h = sum(byte_i *
    # 1000003^(n-i)) mod 2^61-1, recomputed with a recursive modpow CTE in
    # HUGEINT (documents are ASCII, so ord() == utf-8 byte)
    sql["fingerprint"] = """
WITH RECURSIVE pows(j, p) AS (
  SELECT 0, CAST(1 AS HUGEINT)
  UNION ALL
  SELECT j + 1, (p * 1000003) % 2305843009213693951 FROM pows
  WHERE j < (SELECT MAX(LENGTH(text)) FROM documents)
),
expl AS (
  SELECT doc_id, LENGTH(text) AS n,
         unnest(generate_series(1, LENGTH(text))) AS i
  FROM documents
),
byt AS (
  SELECT e.doc_id, ord(substr(d.text, e.i, 1)) AS byte, e.n, e.i
  FROM expl e JOIN documents d USING (doc_id)
),
f AS (
  SELECT doc_id,
         CAST(SUM(CAST(byte AS HUGEINT) * p.p) % 2305843009213693951 AS BIGINT) AS fp
  FROM byt JOIN pows p ON p.j = byt.n - byt.i
  GROUP BY doc_id
)
SELECT d.doc_id, COALESCE(f.fp, 0) AS fingerprint
FROM documents d LEFT JOIN f USING (doc_id)
"""

    # audio frame math (multimodal.audio.n_frames_for + duration rule)
    # recomputed from the deterministic WAV fixture parameter table
    audio_path = _audio_fixture_path()
    sql["audio_features"] = f"""
SELECT audio_id,
       CAST(sr AS INTEGER) AS sr,
       CASE WHEN n_samples >= 512 THEN 1 + (n_samples - 512) // 256
            ELSE 0 END AS n_frames,
       (n_samples * 1000) // sr AS duration_ms
FROM read_parquet('{audio_path}')
"""

    # Charikar simhash, md5 token-hash family: u64 = little-endian first
    # 8 md5 bytes (rebuilt from hex digits in HUGEINT), per-bit +-1 sums,
    # sign -> bit, two's-complement fold to BIGINT (generated SQL: 64
    # mechanical bit terms)
    _hexv = lambda p: f"(instr('0123456789abcdef', substr(h, {p}, 1)) - 1)"  # noqa: E731
    _byte = lambda j: f"({_hexv(2 * j + 1)}*16 + {_hexv(2 * j + 2)})"  # noqa: E731
    _u64 = " + ".join(f"CAST({_byte(j)} AS HUGEINT) * {256 ** j}" for j in range(8))
    _accs = ",\n    ".join(
        f"SUM(CASE WHEN (u64 // {2 ** b}) % 2 = 1 THEN 1 ELSE -1 END) AS a{b}"
        for b in range(64)
    )
    _sh = " + ".join(
        f"CASE WHEN a{b} > 0 THEN CAST({2 ** b} AS HUGEINT) ELSE 0 END"
        for b in range(64)
    )
    sql["simhash"] = f"""
WITH tok AS (
  SELECT doc_id,
         unnest(list_transform(regexp_extract_all(text, '\\S+'), w -> lower(w))) AS w
  FROM documents
), th AS (
  SELECT doc_id, md5(w) AS h FROM tok
), u AS (
  SELECT doc_id, {_u64} AS u64 FROM th
), acc AS (
  SELECT doc_id,
    {_accs}
  FROM u GROUP BY doc_id
), sh AS (
  SELECT doc_id, {_sh} AS s FROM acc
)
SELECT d.doc_id,
       CAST(CASE WHEN s.s IS NULL THEN 0
                 WHEN s.s >= CAST({2 ** 63} AS HUGEINT) THEN s.s - CAST({2 ** 64} AS HUGEINT)
                 ELSE s.s END AS BIGINT) AS simhash
FROM documents d LEFT JOIN sh s USING (doc_id)
"""

    # stopword-profile language heuristic (analysis.lang_id): hits per
    # profile with multiplicity; first profile in (en, es, de, fr) order
    # wins ties (the engine's strict-> update rule); Han-ratio short
    # circuit for zh; 'und' when no profile hits
    sql["lang_quality"] = r"""
WITH tok AS (
  SELECT doc_id, lang,
         list_transform(regexp_extract_all(text, '\S+'), w -> lower(w)) AS toks,
         CAST(len(regexp_extract_all(text, '[一-鿿]')) AS BIGINT) AS han,
         CAST(length(text) AS BIGINT) AS n_chars
  FROM documents
), h AS (
  SELECT doc_id, lang, han, n_chars,
    CAST(len(toks) AS BIGINT) AS n_tok,
    len(list_filter(toks, w -> list_contains(['the','and','of','a','to','in','is','it','that','for','with','as','on','this','by'], w))) AS en_h,
    len(list_filter(toks, w -> list_contains(['el','la','de','que','y','a','en','un','ser','se','no','haber','por','con','su'], w))) AS es_h,
    len(list_filter(toks, w -> list_contains(['der','die','und','in','den','von','zu','das','mit','sich','des','auf','ist'], w))) AS de_h,
    len(list_filter(toks, w -> list_contains(['le','la','de','et','les','des','en','un','du','une','que','est','pour','qui'], w))) AS fr_h,
    len(list_filter(toks, w -> list_contains(['the','and','of','a','to','in','is','it','that','for'], w))) AS n_stop
  FROM tok
), r AS (
  SELECT doc_id,
         CASE WHEN n_tok > 0
              THEN CAST(n_chars - greatest(n_tok - 1, 0) AS DOUBLE) / CAST(greatest(n_tok, 1) AS DOUBLE)
              ELSE 0.0e0 END AS mean_len,
         CASE WHEN n_tok > 0
              THEN CAST(n_stop AS DOUBLE) / CAST(greatest(n_tok, 1) AS DOUBLE)
              ELSE 0.0e0 END AS stop_ratio,
         n_tok
  FROM h
)
SELECT h.doc_id, h.lang,
  CASE WHEN han > 0 AND han >= 0.05e0 * greatest(n_chars, 1) THEN 'zh'
       WHEN greatest(en_h, es_h, de_h, fr_h) = 0 THEN 'und'
       WHEN en_h >= es_h AND en_h >= de_h AND en_h >= fr_h THEN 'en'
       WHEN es_h >= de_h AND es_h >= fr_h THEN 'es'
       WHEN de_h >= fr_h THEN 'de'
       ELSE 'fr' END AS lang_pred,
  0.4e0 * (CASE WHEN r.n_tok >= 10 AND r.n_tok <= 100000 THEN 1.0e0 ELSE 0.0e0 END)
+ 0.3e0 * (CASE WHEN mean_len >= 2.0e0 AND mean_len <= 12.0e0 THEN 1.0e0 ELSE 0.0e0 END)
+ 0.3e0 * (CASE WHEN stop_ratio >= 0.01e0 THEN 1.0e0 ELSE 0.0e0 END) AS quality
FROM h JOIN r USING (doc_id)
"""

    # relational operators (floor-cents integer sums mirror the engine's
    # int-exact partials bit-for-bit; float expression ORDER matches the
    # numpy code literally)
    sql["pricing_summary"] = """
SELECT l_returnflag, l_linestatus,
  CAST(SUM(CAST(FLOOR(l_quantity) AS BIGINT)) AS BIGINT) AS sum_qty,
  CAST(SUM(CAST(FLOOR(l_extendedprice * 100.0e0) AS BIGINT)) AS BIGINT) AS sum_base_c,
  CAST(SUM(CAST(FLOOR((l_extendedprice * (1.0e0 - l_discount)) * 100.0e0) AS BIGINT)) AS BIGINT) AS sum_disc_c,
  CAST(SUM(CAST(FLOOR(((l_extendedprice * (1.0e0 - l_discount)) * (1.0e0 + l_tax)) * 100.0e0) AS BIGINT)) AS BIGINT) AS sum_charge_c,
  CAST(COUNT(*) AS BIGINT) AS n
FROM lineitem GROUP BY l_returnflag, l_linestatus
"""

    sql["segment_revenue"] = """
SELECT c.c_mktsegment, o.o_orderpriority,
  CAST(SUM(CAST(FLOOR((l.l_extendedprice * (1.0e0 - l.l_discount)) * 100.0e0) AS BIGINT)) AS BIGINT) AS revenue_c,
  CAST(COUNT(*) AS BIGINT) AS n
FROM lineitem l
JOIN orders o ON l.l_orderkey = o.o_orderkey
JOIN customer c ON o.o_custkey = c.c_custkey
GROUP BY c.c_mktsegment, o.o_orderpriority
"""

    sql["region_revenue"] = """
SELECT r.r_name,
  CAST(SUM(CAST(FLOOR((l.l_extendedprice * (1.0e0 - l.l_discount)) * 100.0e0) AS BIGINT)) AS BIGINT) AS revenue_c,
  CAST(COUNT(*) AS BIGINT) AS n
FROM lineitem l
JOIN orders o ON l.l_orderkey = o.o_orderkey
JOIN customer c ON o.o_custkey = c.c_custkey
JOIN nation na ON c.c_nationkey = na.n_nationkey
JOIN region r ON na.n_regionkey = r.r_regionkey
GROUP BY r.r_name
"""

    sql["events_asof"] = """
SELECT l.event_id, l.user_id, r.value AS last_purchase_value
FROM (SELECT * FROM events WHERE event_type <> 'purchase') l
ASOF LEFT JOIN (SELECT * FROM events WHERE event_type = 'purchase') r
  ON l.user_id = r.user_id AND l.ts >= r.ts
"""

    sql["interval_events"] = """
WITH iv AS (
  SELECT CAST(u * 4 + w AS BIGINT) AS interval_id,
         CAST(u AS BIGINT) AS user_id,
         TIMESTAMP '2024-01-01' + INTERVAL (w * 7 * 86400 + u * 60) SECOND AS s,
         TIMESTAMP '2024-01-01' + INTERVAL (w * 7 * 86400 + u * 60 + 172800) SECOND AS e
  FROM range(150) t(u), range(4) t2(w))
SELECT iv.interval_id,
       CAST(COUNT(*) AS BIGINT) AS n_events,
       CAST(SUM(CAST(FLOOR(ev.value * 100.0e0) AS BIGINT)) AS BIGINT) AS value_c
FROM events ev JOIN iv
  ON ev.user_id = iv.user_id AND ev.ts >= iv.s AND ev.ts < iv.e
GROUP BY iv.interval_id
"""

    sql["topk_orders"] = """
SELECT o_custkey, o_orderkey, o_totalprice, sel_rank FROM (
  SELECT o_custkey, o_orderkey, o_totalprice,
         row_number() OVER (PARTITION BY o_custkey
                            ORDER BY o_totalprice DESC, o_orderkey) AS sel_rank
  FROM orders) WHERE sel_rank <= 2
"""

    sql["acf_lag"] = """
WITH s AS (
  SELECT event_type, CAST(FLOOR(value * 100.0e0) AS BIGINT) AS x,
         LEAD(CAST(FLOOR(value * 100.0e0) AS BIGINT))
           OVER (PARTITION BY event_type ORDER BY ts, event_id) AS y
  FROM events),
p AS (SELECT event_type, x, y FROM s WHERE y IS NOT NULL),
a AS (
  SELECT event_type, CAST(COUNT(*) AS BIGINT) AS n_pairs,
         CAST(SUM(x) AS BIGINT) AS sx, CAST(SUM(y) AS BIGINT) AS sy,
         CAST(SUM(x * x) AS BIGINT) AS sxx,
         CAST(SUM(y * y) AS BIGINT) AS syy,
         CAST(SUM(x * y) AS BIGINT) AS sxy
  FROM p GROUP BY event_type)
SELECT event_type, n_pairs, sx, sy, sxx, syy, sxy,
       CAST(CAST(n_pairs AS HUGEINT) * sxy
            - CAST(sx AS HUGEINT) * sy AS DOUBLE)
       / (sqrt(CAST(CAST(n_pairs AS HUGEINT) * sxx
                    - CAST(sx AS HUGEINT) * sx AS DOUBLE))
          * sqrt(CAST(CAST(n_pairs AS HUGEINT) * syy
                      - CAST(sy AS HUGEINT) * sy AS DOUBLE))) AS acf
FROM a
"""

    sql["ks_test"] = """
WITH v AS (
  SELECT event_type AS t, CAST(FLOOR(value * 100.0e0) AS BIGINT) AS c
  FROM events WHERE event_type IN ('click', 'purchase')),
g AS (
  SELECT c,
         SUM(CASE WHEN t = 'click' THEN 1 ELSE 0 END) AS na,
         SUM(CASE WHEN t = 'purchase' THEN 1 ELSE 0 END) AS nb
  FROM v GROUP BY c),
cum AS (
  SELECT c, SUM(na) OVER (ORDER BY c) AS ca,
         SUM(nb) OVER (ORDER BY c) AS cb
  FROM g),
tot AS (SELECT CAST(SUM(na) AS BIGINT) AS n1,
               CAST(SUM(nb) AS BIGINT) AS n2 FROM g),
d AS (SELECT c, ABS(tot.n2 * cum.ca - tot.n1 * cum.cb) AS dn
      FROM cum, tot)
SELECT tot.n1, tot.n2,
       CAST((SELECT MAX(dn) FROM d) AS BIGINT) AS d_num,
       tot.n1 * tot.n2 AS d_den,
       CAST((SELECT MIN(c) FROM d WHERE dn = (SELECT MAX(dn) FROM d))
            AS BIGINT) AS at_v,
       CAST((SELECT MAX(dn) FROM d) AS DOUBLE)
         / CAST(tot.n1 * tot.n2 AS DOUBLE) AS d
FROM tot
"""

    sql["benford"] = """
SELECT CAST(SUBSTR(CAST(ABS(CAST(FLOOR(o_totalprice * 100.0e0) AS BIGINT))
                        AS VARCHAR), 1, 1) AS BIGINT) AS digit,
       CAST(COUNT(*) AS BIGINT) AS n
FROM orders GROUP BY digit
"""

    sql["ntile"] = """
WITH v AS (
  SELECT c_custkey,
         CAST(FLOOR(c_acctbal * 100.0e0) AS BIGINT) AS bal_c
  FROM customer)
SELECT c_custkey, bal_c,
       CAST(NTILE(4) OVER (ORDER BY bal_c, c_custkey) AS BIGINT) AS tile
FROM v
"""

    sql["gini"] = """
WITH v AS (
  SELECT o_orderpriority AS priority,
         CAST(FLOOR(o_totalprice * 100.0e0) AS BIGINT) AS c
  FROM orders),
r AS (
  SELECT priority, c,
         ROW_NUMBER() OVER (PARTITION BY priority ORDER BY c) AS i
  FROM v)
SELECT priority,
       CAST(COUNT(*) AS BIGINT) AS n,
       CAST(SUM(c) AS BIGINT) AS sum_c,
       CAST(2 * SUM(i * c) - (COUNT(*) + 1) * SUM(c) AS BIGINT) AS gini_num,
       CAST(COUNT(*) * SUM(c) AS BIGINT) AS gini_den,
       CAST(CAST(2 * SUM(i * c) - (COUNT(*) + 1) * SUM(c) AS BIGINT)
            AS DOUBLE)
         / CAST(CAST(COUNT(*) * SUM(c) AS BIGINT) AS DOUBLE) AS gini
FROM r GROUP BY priority
"""

    sql["mad"] = """
WITH v AS (
  SELECT o_orderpriority AS priority,
         CAST(FLOOR(o_totalprice * 100.0e0) AS BIGINT) AS c
  FROM orders),
m AS (
  SELECT priority, CAST(COUNT(*) AS BIGINT) AS n,
         quantile_disc(c, 0.5) AS med_c
  FROM v GROUP BY priority)
SELECT m.priority, m.n, m.med_c,
       quantile_disc(ABS(v.c - m.med_c), 0.5) AS mad_c
FROM v JOIN m ON v.priority = m.priority
GROUP BY m.priority, m.n, m.med_c
"""

    sql["pearson"] = """
WITH v AS (
  SELECT l_returnflag,
         CAST(l_quantity AS BIGINT) AS q,
         CAST(FLOOR(l_extendedprice) AS BIGINT) AS p
  FROM lineitem),
s AS (
  SELECT l_returnflag,
         CAST(COUNT(*) AS BIGINT) AS n,
         CAST(SUM(q) AS BIGINT) AS sx,
         CAST(SUM(p) AS BIGINT) AS sy,
         CAST(SUM(q * q) AS BIGINT) AS sxx,
         CAST(SUM(p * p) AS BIGINT) AS syy,
         CAST(SUM(q * p) AS BIGINT) AS sxy
  FROM v GROUP BY l_returnflag)
SELECT l_returnflag, n, sx, sy, sxx, syy, sxy,
       CAST(CAST(n AS HUGEINT) * sxy - CAST(sx AS HUGEINT) * sy AS DOUBLE)
       / (sqrt(CAST(CAST(n AS HUGEINT) * sxx
                    - CAST(sx AS HUGEINT) * sx AS DOUBLE))
          * sqrt(CAST(CAST(n AS HUGEINT) * syy
                      - CAST(sy AS HUGEINT) * sy AS DOUBLE))) AS corr
FROM s
"""

    # spearman: doubled average tie rank = 2*RANK() + tie-count - 1
    # (exact int64), then the pearson replay over doubled ranks
    sql["spearman"] = """
WITH v AS (
  SELECT l_returnflag,
         CAST(l_quantity AS BIGINT) AS x,
         CAST(FLOOR(l_extendedprice) AS BIGINT) AS y
  FROM lineitem),
r AS (
  SELECT l_returnflag,
         2 * RANK() OVER (PARTITION BY l_returnflag ORDER BY x)
           + COUNT(*) OVER (PARTITION BY l_returnflag, x) - 1 AS dx,
         2 * RANK() OVER (PARTITION BY l_returnflag ORDER BY y)
           + COUNT(*) OVER (PARTITION BY l_returnflag, y) - 1 AS dy
  FROM v),
s AS (
  SELECT l_returnflag,
         CAST(COUNT(*) AS BIGINT) AS n,
         CAST(SUM(dx) AS BIGINT) AS sdx,
         CAST(SUM(dy) AS BIGINT) AS sdy,
         CAST(SUM(dx * dx) AS BIGINT) AS sdxx,
         CAST(SUM(dy * dy) AS BIGINT) AS sdyy,
         CAST(SUM(dx * dy) AS BIGINT) AS sdxy
  FROM r GROUP BY l_returnflag)
SELECT l_returnflag, n, sdx, sdy, sdxx, sdyy, sdxy,
       CAST(CAST(n AS HUGEINT) * sdxy - CAST(sdx AS HUGEINT) * sdy AS DOUBLE)
       / (sqrt(CAST(CAST(n AS HUGEINT) * sdxx
                    - CAST(sdx AS HUGEINT) * sdx AS DOUBLE))
          * sqrt(CAST(CAST(n AS HUGEINT) * sdyy
                      - CAST(sdy AS HUGEINT) * sdy AS DOUBLE))) AS rho
FROM s
"""

    # kendall_tau: cell self-join with strict inequalities counts each
    # unordered pair once; tau-b ties from the marginals
    sql["kendall_tau"] = """
WITH v AS (
  SELECT l_returnflag AS g,
         CAST(l_quantity AS BIGINT) AS x,
         CAST(FLOOR(l_extendedprice) AS BIGINT) // 5000 AS y
  FROM lineitem),
cells AS (
  SELECT g, x, y, CAST(COUNT(*) AS BIGINT) AS c
  FROM v GROUP BY g, x, y),
pairs AS (
  SELECT a.g,
         CAST(SUM(CASE WHEN b.y > a.y
                       THEN CAST(a.c AS HUGEINT) * b.c ELSE 0 END)
              AS BIGINT) AS conc,
         CAST(SUM(CASE WHEN b.y < a.y
                       THEN CAST(a.c AS HUGEINT) * b.c ELSE 0 END)
              AS BIGINT) AS disc
  FROM cells a JOIN cells b ON b.g = a.g AND b.x > a.x
  GROUP BY a.g),
marg AS (
  SELECT g, CAST(SUM(c) AS BIGINT) AS n,
         CAST(SUM(CAST(c AS HUGEINT) * (c - 1) / 2) AS BIGINT) AS tx
  FROM (SELECT g, x, CAST(SUM(c) AS BIGINT) AS c FROM cells GROUP BY g, x)
  GROUP BY g),
margy AS (
  SELECT g,
         CAST(SUM(CAST(c AS HUGEINT) * (c - 1) / 2) AS BIGINT) AS ty
  FROM (SELECT g, y, CAST(SUM(c) AS BIGINT) AS c FROM cells GROUP BY g, y)
  GROUP BY g)
SELECT m.g AS l_returnflag, m.n, p.conc, p.disc, m.tx, my.ty,
       CAST(p.conc - p.disc AS DOUBLE)
       / (sqrt(CAST(CAST(m.n AS HUGEINT) * (m.n - 1) / 2 - m.tx AS DOUBLE))
          * sqrt(CAST(CAST(m.n AS HUGEINT) * (m.n - 1) / 2 - my.ty
                      AS DOUBLE))) AS tau
FROM marg m JOIN pairs p ON p.g = m.g JOIN margy my ON my.g = m.g
"""

    # euler: Gray quad-pattern counts, OOB pixels are zero
    _epx = "(d * 31 + ({r}) * 7 + ({c}) * 13) % 251"
    _ev = f"((({_epx}) * ({_epx})) % 251)"

    def _emask(r: str, c: str) -> str:
        return (f"(CASE WHEN ({r}) BETWEEN 0 AND 99 AND ({c}) "
                f"BETWEEN 0 AND 99 AND "
                f"({_ev.format(r=r, c=c)}) > 125 THEN 1 ELSE 0 END)")

    _m00 = _emask("r.range", "c.range")
    _m01 = _emask("r.range", "c.range + 1")
    _m10 = _emask("r.range + 1", "c.range")
    _m11 = _emask("r.range + 1", "c.range + 1")
    sql["euler"] = f"""
WITH {_IMGS_CTE.format(n=N_IMG_MERGE).strip()},
q AS (
  SELECT d,
         {_m00} + {_m01} + {_m10} + {_m11} AS s,
         CASE WHEN ({_m00} = 1 AND {_m11} = 1 AND {_m01} = 0
                    AND {_m10} = 0)
                OR ({_m01} = 1 AND {_m10} = 1 AND {_m00} = 0
                    AND {_m11} = 0)
              THEN 1 ELSE 0 END AS diag
  FROM imgs, range(-1, 100) r, range(-1, 100) c),
a AS (
  SELECT d,
         CAST(SUM(CASE WHEN s = 1 THEN 1 ELSE 0 END) AS BIGINT) AS q1,
         CAST(SUM(CASE WHEN s = 3 THEN 1 ELSE 0 END) AS BIGINT) AS q3,
         CAST(SUM(diag) AS BIGINT) AS qd
  FROM q GROUP BY d)
SELECT printf('img%08d', d) AS image_id, q1, q3, qd,
       q1 - q3 + 2 * qd AS e4_x4, q1 - q3 - 2 * qd AS e8_x4
FROM a
"""

    # adaptive_thresh: 49-offset window join, cross-multiplied compare
    _apx = "(d * 31 + ({r}) * 7 + ({c}) * 13) % 251"
    _av = f"((({_apx}) * ({_apx})) % 251)"
    _avc = _av.format(r="r.range", c="c.range")
    _avn = _av.format(r="r.range + o1.o", c="c.range + o2.o")
    sql["adaptive_thresh"] = f"""
WITH {_IMGS_CTE.format(n=N_IMG_MERGE).strip()},
offs AS (SELECT unnest([-3, -2, -1, 0, 1, 2, 3]) AS o),
w AS (
  SELECT d, r.range AS r, c.range AS c,
         CAST({_avc} AS BIGINT) AS v_c,
         CAST(SUM({_avn}) AS BIGINT) AS sum_w,
         CAST(COUNT(*) AS BIGINT) AS n_w
  FROM imgs, range(0, 100) r, range(0, 100) c, offs o1, offs o2
  WHERE r.range + o1.o BETWEEN 0 AND 99
    AND c.range + o2.o BETWEEN 0 AND 99
  GROUP BY d, r.range, c.range)
SELECT printf('img%08d', d) AS image_id,
       CAST(r // 10 AS BIGINT) AS band,
       CAST(SUM(CASE WHEN (v_c - 2) * n_w > sum_w
                     THEN 1 ELSE 0 END) AS BIGINT) AS n_set
FROM w GROUP BY d, r // 10
"""

    # quadtree: per-level block constancy joined to parent blocks
    sql["quadtree"] = f"""
WITH {_IMGS_CTE.format(n=N_IMG_MERGE).strip()},
px AS (
  SELECT d, r.range AS r, c.range AS c,
         ((d * 31 + r.range * 7 + c.range * 13) % 251) // 64 AS v
  FROM imgs, range(0, 64) r, range(0, 64) c),
b2 AS (
  SELECT d, r // 2 AS i, c // 2 AS j, (MIN(v) = MAX(v)) AS k
  FROM px GROUP BY d, r // 2, c // 2),
b4 AS (
  SELECT d, r // 4 AS i, c // 4 AS j, (MIN(v) = MAX(v)) AS k
  FROM px GROUP BY d, r // 4, c // 4),
b8 AS (
  SELECT d, r // 8 AS i, c // 8 AS j, (MIN(v) = MAX(v)) AS k
  FROM px GROUP BY d, r // 8, c // 8),
b16 AS (
  SELECT d, r // 16 AS i, c // 16 AS j, (MIN(v) = MAX(v)) AS k
  FROM px GROUP BY d, r // 16, c // 16),
b32 AS (
  SELECT d, r // 32 AS i, c // 32 AS j, (MIN(v) = MAX(v)) AS k
  FROM px GROUP BY d, r // 32, c // 32),
b64 AS (
  SELECT d, r // 64 AS i, c // 64 AS j, (MIN(v) = MAX(v)) AS k
  FROM px GROUP BY d, r // 64, c // 64),
lv AS (
SELECT d, CAST(64 AS BIGINT) AS leaf_size,
       CAST(SUM(CASE WHEN k THEN 1 ELSE 0 END) AS BIGINT) AS n_leaves
FROM b64 GROUP BY d
UNION ALL SELECT c.d, CAST(32 AS BIGINT) AS leaf_size,
       CAST(SUM(CASE WHEN c.k AND NOT p.k THEN 1 ELSE 0 END) AS BIGINT)
         AS n_leaves
FROM b32 c JOIN b64 p ON p.d = c.d AND p.i = c.i // 2
                         AND p.j = c.j // 2
GROUP BY c.d
UNION ALL SELECT c.d, CAST(16 AS BIGINT) AS leaf_size,
       CAST(SUM(CASE WHEN c.k AND NOT p.k THEN 1 ELSE 0 END) AS BIGINT)
         AS n_leaves
FROM b16 c JOIN b32 p ON p.d = c.d AND p.i = c.i // 2
                         AND p.j = c.j // 2
GROUP BY c.d
UNION ALL SELECT c.d, CAST(8 AS BIGINT) AS leaf_size,
       CAST(SUM(CASE WHEN c.k AND NOT p.k THEN 1 ELSE 0 END) AS BIGINT)
         AS n_leaves
FROM b8 c JOIN b16 p ON p.d = c.d AND p.i = c.i // 2
                         AND p.j = c.j // 2
GROUP BY c.d
UNION ALL SELECT c.d, CAST(4 AS BIGINT) AS leaf_size,
       CAST(SUM(CASE WHEN c.k AND NOT p.k THEN 1 ELSE 0 END) AS BIGINT)
         AS n_leaves
FROM b4 c JOIN b8 p ON p.d = c.d AND p.i = c.i // 2
                         AND p.j = c.j // 2
GROUP BY c.d
UNION ALL SELECT c.d, CAST(2 AS BIGINT) AS leaf_size,
       CAST(SUM(CASE WHEN c.k AND NOT p.k THEN 1 ELSE 0 END) AS BIGINT)
         AS n_leaves
FROM b2 c JOIN b4 p ON p.d = c.d AND p.i = c.i // 2
                         AND p.j = c.j // 2
GROUP BY c.d
)
SELECT printf('img%08d', d) AS image_id, leaf_size, n_leaves FROM lv
UNION ALL
SELECT printf('img%08d', d), CAST(1 AS BIGINT),
       CAST(4096 - SUM(leaf_size * leaf_size * n_leaves) AS BIGINT)
FROM lv GROUP BY d
"""

    # haar_energy: level 1 from 2x2 blocks, level 2 by conditional
    # aggregation over the level-1 ll plane, energies UNION ALL
    _hpx = "(d * 31 + ({r}) * 7 + ({c}) * 13) % 251"
    _hv = f"((({_hpx}) * ({_hpx})) % 251)"
    _p00 = _hv.format(r="2 * r.range", c="2 * c.range")
    _p01 = _hv.format(r="2 * r.range", c="2 * c.range + 1")
    _p10 = _hv.format(r="2 * r.range + 1", c="2 * c.range")
    _p11 = _hv.format(r="2 * r.range + 1", c="2 * c.range + 1")
    sql["haar_energy"] = f"""
WITH {_IMGS_CTE.format(n=N_IMG_MERGE).strip()},
l1 AS (
  SELECT d, r.range AS i, c.range AS j,
         CAST(({_p00}) + ({_p01}) + ({_p10}) + ({_p11}) AS BIGINT) AS ll,
         CAST((({_p00}) + ({_p10})) - (({_p01}) + ({_p11})) AS BIGINT) AS lh,
         CAST((({_p00}) + ({_p01})) - (({_p10}) + ({_p11})) AS BIGINT) AS hl,
         CAST(({_p00}) - ({_p01}) - ({_p10}) + ({_p11}) AS BIGINT) AS hh
  FROM imgs, range(0, 50) r, range(0, 50) c),
l2 AS (
  SELECT d, i // 2 AS i, j // 2 AS j,
         CAST(SUM(ll) AS BIGINT) AS ll,
         CAST(SUM(CASE WHEN j % 2 = 0 THEN ll ELSE -ll END) AS BIGINT)
           AS lh,
         CAST(SUM(CASE WHEN i % 2 = 0 THEN ll ELSE -ll END) AS BIGINT)
           AS hl,
         CAST(SUM(CASE WHEN (i + j) % 2 = 0 THEN ll ELSE -ll END)
              AS BIGINT) AS hh
  FROM l1 GROUP BY d, i // 2, j // 2)
SELECT printf('img%08d', d) AS image_id, CAST(1 AS BIGINT) AS level,
       'lh' AS subband, CAST(SUM(lh * lh) AS BIGINT) AS energy
FROM l1 GROUP BY d
UNION ALL SELECT printf('img%08d', d), 1, 'hl', CAST(SUM(hl * hl) AS BIGINT)
FROM l1 GROUP BY d
UNION ALL SELECT printf('img%08d', d), 1, 'hh', CAST(SUM(hh * hh) AS BIGINT)
FROM l1 GROUP BY d
UNION ALL SELECT printf('img%08d', d), 2, 'lh', CAST(SUM(lh * lh) AS BIGINT)
FROM l2 GROUP BY d
UNION ALL SELECT printf('img%08d', d), 2, 'hl', CAST(SUM(hl * hl) AS BIGINT)
FROM l2 GROUP BY d
UNION ALL SELECT printf('img%08d', d), 2, 'hh', CAST(SUM(hh * hh) AS BIGINT)
FROM l2 GROUP BY d
UNION ALL SELECT printf('img%08d', d), 2, 'll', CAST(SUM(ll * ll) AS BIGINT)
FROM l2 GROUP BY d
"""

    # canny: Sobel on the decorrelated surface, rational direction
    # bins, NMS via LEFT-JOINed directional neighbors, walk-CTE
    # hysteresis from the strong set through 8-adjacent weak survivors
    _cpx = "(d * 31 + ({r}) * 7 + ({c}) * 13) % 251"
    _cv = f"((({_cpx}) * ({_cpx})) % 251)"
    _cvq = _cv.format(r="r.range + dr", c="c.range + dc")
    sql["canny"] = f"""
WITH RECURSIVE {_IMGS_CTE.format(n=N_IMG_MERGE).strip()},
sw AS (
  SELECT * FROM (VALUES (-1, -1, -1, -1), (-1, 0, 0, -2), (-1, 1, 1, -1),
                        (0, -1, -2, 0), (0, 1, 2, 0),
                        (1, -1, -1, 1), (1, 0, 0, 2), (1, 1, 1, 1))
       AS t(dr, dc, wx, wy)
),
g AS (
  SELECT d, r.range AS r, c.range AS c,
         CAST(SUM(wx * ({_cvq})) AS BIGINT) AS gx,
         CAST(SUM(wy * ({_cvq})) AS BIGINT) AS gy
  FROM imgs, range(1, 99) r, range(1, 99) c, sw
  GROUP BY d, r.range, c.range
),
m AS (
  SELECT d, r, c, gx * gx + gy * gy AS m2,
         CASE WHEN 1000 * ABS(gy) <= 414 * ABS(gx) THEN 0
              WHEN 1000 * ABS(gx) <= 414 * ABS(gy) THEN 2
              WHEN gx * gy > 0 THEN 1 ELSE 3 END AS bin
  FROM g),
offs4 AS (SELECT * FROM (VALUES (0, 0, 1), (1, 1, 1), (2, 1, 0),
                                (3, 1, -1)) AS t(bin, dr, dc)),
nms AS (
  SELECT m.d, m.r, m.c, m.m2
  FROM m JOIN offs4 o ON o.bin = m.bin
  LEFT JOIN m n1 ON n1.d = m.d AND n1.r = m.r + o.dr
                    AND n1.c = m.c + o.dc
  LEFT JOIN m n2 ON n2.d = m.d AND n2.r = m.r - o.dr
                    AND n2.c = m.c - o.dc
  WHERE m.m2 > COALESCE(n1.m2, -1) AND m.m2 >= COALESCE(n2.m2, -1)
),
surv AS (
  SELECT d, r, c, m2,
         CASE WHEN m2 >= {CANNY_TH2} THEN 1 ELSE 0 END AS strong
  FROM nms WHERE m2 >= {CANNY_TL2}),
walk(d, r, c) AS (
  SELECT d, r, c FROM surv WHERE strong = 1
  UNION
  SELECT s.d, s.r, s.c
  FROM surv s JOIN walk w
    ON w.d = s.d AND s.r BETWEEN w.r - 1 AND w.r + 1
       AND s.c BETWEEN w.c - 1 AND w.c + 1
)
SELECT printf('img%08d', s.d) AS image_id, s.r AS r, s.c AS c,
       CAST(s.m2 AS BIGINT) AS mag2, CAST(s.strong AS BIGINT) AS strong
FROM surv s JOIN walk w ON w.d = s.d AND w.r = s.r AND w.c = s.c
"""

    # bm25: str_split tokens, HUGEINT rational score, one division
    _bm_terms = ", ".join(f"('{t}')" for t in
                          ["fast", "table", "scan", "stream", "vector"])
    sql["bm25"] = f"""
WITH tok AS (SELECT doc_id, str_split(text, ' ') AS xs FROM documents),
g AS (SELECT CAST(COUNT(*) AS BIGINT) AS n,
             CAST(SUM(len(xs)) AS BIGINT) AS dsum FROM tok),
terms AS (SELECT * FROM (VALUES {_bm_terms}) AS t(term)),
tf AS (
  SELECT t.doc_id, p.term,
         CAST(len(list_filter(t.xs, x -> x = p.term)) AS BIGINT) AS tf,
         CAST(len(t.xs) AS BIGINT) AS dl
  FROM tok t, terms p),
dfr AS (SELECT term, CAST(SUM(CASE WHEN tf > 0 THEN 1 ELSE 0 END)
                          AS BIGINT) AS df
        FROM tf GROUP BY term)
SELECT CAST(f.doc_id AS BIGINT) AS doc_id, f.term, f.tf, f.dl,
       CAST(CAST(2 * g.n - 2 * d.df + 1 AS HUGEINT) * 22 * f.tf * g.dsum
            AS DOUBLE)
       / CAST(CAST(2 * d.df + 1 AS HUGEINT)
              * (10 * f.tf * g.dsum + 3 * g.dsum + 9 * f.dl * g.n)
              AS DOUBLE) AS score
FROM tf f JOIN dfr d USING (term), g WHERE f.tf > 0
"""

    # multi_pattern: replace-count per border-free dictionary pattern
    _pat_vals = ", ".join(f"('{p}')" for p in MULTI_PATTERNS)
    sql["multi_pattern"] = f"""
WITH p AS (SELECT * FROM (VALUES {_pat_vals}) AS t(pattern))
SELECT CAST(d.doc_id AS BIGINT) AS doc_id, p.pattern,
       CAST((length(d.text) - length(replace(d.text, p.pattern, '')))
            // length(p.pattern) AS BIGINT) AS n
FROM documents d, p
WHERE length(d.text) != length(replace(d.text, p.pattern, ''))
"""

    # hog_cells: central-difference gradients on the decorrelated
    # surface, the eight octant CASE arms verbatim from the engine
    _hog_px = "(d * 31 + ({r}) * 7 + ({c}) * 13) % 251"
    _hog_v = f"((({_hog_px}) * ({_hog_px})) % 251)"
    _vE = _hog_v.format(r="r.range", c="c.range + 1")
    _vW = _hog_v.format(r="r.range", c="c.range - 1")
    _vS = _hog_v.format(r="r.range + 1", c="c.range")
    _vN = _hog_v.format(r="r.range - 1", c="c.range")
    sql["hog_cells"] = f"""
WITH {_IMGS_CTE.format(n=N_IMG_MERGE).strip()},
g AS (
  SELECT d, r.range AS r, c.range AS c,
         CAST(({_vE}) - ({_vW}) AS BIGINT) AS gx,
         CAST(({_vS}) - ({_vN}) AS BIGINT) AS gy
  FROM imgs, range(1, 99) r, range(1, 99) c),
o AS (
  SELECT d, r, c, gx, gy,
         CASE WHEN gx > 0 AND gy >= 0 AND gy < gx THEN 0
              WHEN gy > 0 AND gx > 0 AND gy >= gx THEN 1
              WHEN gy > 0 AND gx <= 0 AND -gx < gy THEN 2
              WHEN gy > 0 AND gx < 0 AND -gx >= gy THEN 3
              WHEN gy <= 0 AND gx < 0 AND -gy < -gx THEN 4
              WHEN gy < 0 AND gx < 0 AND -gy >= -gx THEN 5
              WHEN gy < 0 AND gx >= 0 AND gx < -gy THEN 6
              WHEN gy < 0 AND gx > 0 AND gx >= -gy THEN 7
              ELSE -1 END AS sector
  FROM g)
SELECT printf('img%08d', d) AS image_id,
       CAST(r // 10 AS BIGINT) AS cy, CAST(c // 10 AS BIGINT) AS cx,
       CAST(sector AS BIGINT) AS sector,
       CAST(SUM(ABS(gx) + ABS(gy)) AS BIGINT) AS w,
       CAST(COUNT(*) AS BIGINT) AS n
FROM o WHERE sector >= 0
GROUP BY d, r // 10, c // 10, sector
"""

    # dither: Bayer 4x4 thresholds as a VALUES join
    sql["dither"] = f"""
WITH {_IMGS_CTE.format(n=N_IMG_MERGE).strip()},
b AS (
  SELECT * FROM (VALUES (0, 0, 0), (0, 1, 8), (0, 2, 2), (0, 3, 10),
                        (1, 0, 12), (1, 1, 4), (1, 2, 14), (1, 3, 6),
                        (2, 0, 3), (2, 1, 11), (2, 2, 1), (2, 3, 9),
                        (3, 0, 15), (3, 1, 7), (3, 2, 13), (3, 3, 5))
       AS t(pr, pc, bv))
SELECT printf('img%08d', d) AS image_id,
       CAST(b.pr AS BIGINT) AS pr, CAST(b.pc AS BIGINT) AS pc,
       CAST(SUM(CASE WHEN (d * 31 + r.range * 7 + c.range * 13) % 251
                          > b.bv * 16 + 8 THEN 1 ELSE 0 END) AS BIGINT)
         AS n_set,
       CAST(COUNT(*) AS BIGINT) AS n_px
FROM imgs, range(0, 100) r, range(0, 100) c
JOIN b ON b.pr = r.range % 4 AND b.pc = c.range % 4
GROUP BY d, b.pr, b.pc
"""

    # geohash: floor lattice, term-by-term interleave, substr base32
    sql["geohash"] = """
WITH p AS (
  SELECT printf('pt%06d', c_custkey) AS point_id,
         (-124.0e0 + (c_custkey % 800) * 0.01e0 + 0.001e0
          + CASE WHEN c_custkey % 97 = 0 THEN 50.0e0 ELSE 0.0e0 END) AS x,
         (44.0e0 - ((c_custkey // 7) % 800) * 0.01e0 - 0.001e0) AS y
  FROM customer),
i AS (
  SELECT point_id,
         LEAST(GREATEST(CAST(FLOOR((x + 180.0e0) / 360.0e0 * 32768)
                             AS BIGINT), 0), 32767) AS ix,
         LEAST(GREATEST(CAST(FLOOR((y + 90.0e0) / 180.0e0 * 32768)
                             AS BIGINT), 0), 32767) AS iy
  FROM p),
g AS (
  SELECT point_id,
         (((ix >> 14) & 1) << 29) + (((ix >> 13) & 1) << 27) + (((ix >> 12) & 1) << 25) + (((ix >> 11) & 1) << 23) + (((ix >> 10) & 1) << 21) + (((ix >> 9) & 1) << 19) + (((ix >> 8) & 1) << 17) + (((ix >> 7) & 1) << 15) + (((ix >> 6) & 1) << 13) + (((ix >> 5) & 1) << 11) + (((ix >> 4) & 1) << 9) + (((ix >> 3) & 1) << 7) + (((ix >> 2) & 1) << 5) + (((ix >> 1) & 1) << 3) + (((ix >> 0) & 1) << 1)
         + (((iy >> 14) & 1) << 28) + (((iy >> 13) & 1) << 26) + (((iy >> 12) & 1) << 24) + (((iy >> 11) & 1) << 22) + (((iy >> 10) & 1) << 20) + (((iy >> 9) & 1) << 18) + (((iy >> 8) & 1) << 16) + (((iy >> 7) & 1) << 14) + (((iy >> 6) & 1) << 12) + (((iy >> 5) & 1) << 10) + (((iy >> 4) & 1) << 8) + (((iy >> 3) & 1) << 6) + (((iy >> 2) & 1) << 4) + (((iy >> 1) & 1) << 2) + (((iy >> 0) & 1) << 0) AS g
  FROM i)
SELECT point_id, CAST(g AS BIGINT) AS gh_int,
       substr('0123456789bcdefghjkmnpqrstuvwxyz', CAST((g >> 25) & 31 AS INTEGER) + 1, 1) || substr('0123456789bcdefghjkmnpqrstuvwxyz', CAST((g >> 20) & 31 AS INTEGER) + 1, 1) || substr('0123456789bcdefghjkmnpqrstuvwxyz', CAST((g >> 15) & 31 AS INTEGER) + 1, 1) || substr('0123456789bcdefghjkmnpqrstuvwxyz', CAST((g >> 10) & 31 AS INTEGER) + 1, 1) || substr('0123456789bcdefghjkmnpqrstuvwxyz', CAST((g >> 5) & 31 AS INTEGER) + 1, 1) || substr('0123456789bcdefghjkmnpqrstuvwxyz', CAST((g >> 0) & 31 AS INTEGER) + 1, 1) AS geohash
FROM g
"""

    # gk_lambda: row maxima vs the modal column total
    sql["gk_lambda"] = """
WITH c AS (
  SELECT o_orderpriority, o_orderstatus, CAST(COUNT(*) AS BIGINT) AS obs
  FROM orders GROUP BY o_orderpriority, o_orderstatus),
rm AS (SELECT CAST(SUM(mx) AS BIGINT) AS srm
       FROM (SELECT MAX(obs) AS mx FROM c GROUP BY o_orderpriority)),
cm AS (SELECT CAST(MAX(tot) AS BIGINT) AS cmx
       FROM (SELECT SUM(obs) AS tot FROM c GROUP BY o_orderstatus)),
t AS (SELECT CAST(SUM(obs) AS BIGINT) AS n FROM c)
SELECT t.n, rm.srm AS sum_row_max, cm.cmx AS col_max,
       CAST(rm.srm - cm.cmx AS DOUBLE) / CAST(t.n - cm.cmx AS DOUBLE)
         AS lam
FROM t, rm, cm
"""

    # cramers_v: fifteen pivoted cells, left-associative chi2 chain
    sql["cramers_v"] = """
WITH c AS (
  SELECT o_orderpriority, o_orderstatus, CAST(COUNT(*) AS BIGINT) AS obs
  FROM orders GROUP BY o_orderpriority, o_orderstatus),
rr AS (SELECT o_orderpriority, CAST(SUM(obs) AS BIGINT) AS rt
       FROM c GROUP BY o_orderpriority),
kk AS (SELECT o_orderstatus, CAST(SUM(obs) AS BIGINT) AS ct
       FROM c GROUP BY o_orderstatus),
piv AS (SELECT
   (SELECT CAST(SUM(obs) AS BIGINT) FROM c) AS n,
   COALESCE(MAX(CASE WHEN o_orderpriority = '1-URGENT' AND o_orderstatus = 'F' THEN obs END), 0) AS o0_0,
   COALESCE(MAX(CASE WHEN o_orderpriority = '1-URGENT' AND o_orderstatus = 'O' THEN obs END), 0) AS o0_1,
   COALESCE(MAX(CASE WHEN o_orderpriority = '1-URGENT' AND o_orderstatus = 'P' THEN obs END), 0) AS o0_2,
   COALESCE(MAX(CASE WHEN o_orderpriority = '2-HIGH' AND o_orderstatus = 'F' THEN obs END), 0) AS o1_0,
   COALESCE(MAX(CASE WHEN o_orderpriority = '2-HIGH' AND o_orderstatus = 'O' THEN obs END), 0) AS o1_1,
   COALESCE(MAX(CASE WHEN o_orderpriority = '2-HIGH' AND o_orderstatus = 'P' THEN obs END), 0) AS o1_2,
   COALESCE(MAX(CASE WHEN o_orderpriority = '3-MEDIUM' AND o_orderstatus = 'F' THEN obs END), 0) AS o2_0,
   COALESCE(MAX(CASE WHEN o_orderpriority = '3-MEDIUM' AND o_orderstatus = 'O' THEN obs END), 0) AS o2_1,
   COALESCE(MAX(CASE WHEN o_orderpriority = '3-MEDIUM' AND o_orderstatus = 'P' THEN obs END), 0) AS o2_2,
   COALESCE(MAX(CASE WHEN o_orderpriority = '4-NOT SPECIFIED' AND o_orderstatus = 'F' THEN obs END), 0) AS o3_0,
   COALESCE(MAX(CASE WHEN o_orderpriority = '4-NOT SPECIFIED' AND o_orderstatus = 'O' THEN obs END), 0) AS o3_1,
   COALESCE(MAX(CASE WHEN o_orderpriority = '4-NOT SPECIFIED' AND o_orderstatus = 'P' THEN obs END), 0) AS o3_2,
   COALESCE(MAX(CASE WHEN o_orderpriority = '5-LOW' AND o_orderstatus = 'F' THEN obs END), 0) AS o4_0,
   COALESCE(MAX(CASE WHEN o_orderpriority = '5-LOW' AND o_orderstatus = 'O' THEN obs END), 0) AS o4_1,
   COALESCE(MAX(CASE WHEN o_orderpriority = '5-LOW' AND o_orderstatus = 'P' THEN obs END), 0) AS o4_2,
   COALESCE(MAX(CASE WHEN o_orderpriority = '1-URGENT' THEN rt END), 0) AS r0,
   COALESCE(MAX(CASE WHEN o_orderpriority = '2-HIGH' THEN rt END), 0) AS r1,
   COALESCE(MAX(CASE WHEN o_orderpriority = '3-MEDIUM' THEN rt END), 0) AS r2,
   COALESCE(MAX(CASE WHEN o_orderpriority = '4-NOT SPECIFIED' THEN rt END), 0) AS r3,
   COALESCE(MAX(CASE WHEN o_orderpriority = '5-LOW' THEN rt END), 0) AS r4,
   COALESCE(MAX(CASE WHEN o_orderstatus = 'F' THEN ct END), 0) AS k0,
   COALESCE(MAX(CASE WHEN o_orderstatus = 'O' THEN ct END), 0) AS k1,
   COALESCE(MAX(CASE WHEN o_orderstatus = 'P' THEN ct END), 0) AS k2
   FROM c FULL JOIN rr USING (o_orderpriority)
          FULL JOIN kk USING (o_orderstatus)),
chi AS (SELECT n,
   (((((((((((((((CASE WHEN r0 * k0 = 0 THEN 0.0e0 ELSE CAST((CAST(o0_0 AS HUGEINT) * n - CAST(r0 AS HUGEINT) * k0) AS DOUBLE) * CAST((CAST(o0_0 AS HUGEINT) * n - CAST(r0 AS HUGEINT) * k0) AS DOUBLE) / CAST(CAST(n AS HUGEINT) * r0 * k0 AS DOUBLE) END)
 + (CASE WHEN r0 * k1 = 0 THEN 0.0e0 ELSE CAST((CAST(o0_1 AS HUGEINT) * n - CAST(r0 AS HUGEINT) * k1) AS DOUBLE) * CAST((CAST(o0_1 AS HUGEINT) * n - CAST(r0 AS HUGEINT) * k1) AS DOUBLE) / CAST(CAST(n AS HUGEINT) * r0 * k1 AS DOUBLE) END))
 + (CASE WHEN r0 * k2 = 0 THEN 0.0e0 ELSE CAST((CAST(o0_2 AS HUGEINT) * n - CAST(r0 AS HUGEINT) * k2) AS DOUBLE) * CAST((CAST(o0_2 AS HUGEINT) * n - CAST(r0 AS HUGEINT) * k2) AS DOUBLE) / CAST(CAST(n AS HUGEINT) * r0 * k2 AS DOUBLE) END))
 + (CASE WHEN r1 * k0 = 0 THEN 0.0e0 ELSE CAST((CAST(o1_0 AS HUGEINT) * n - CAST(r1 AS HUGEINT) * k0) AS DOUBLE) * CAST((CAST(o1_0 AS HUGEINT) * n - CAST(r1 AS HUGEINT) * k0) AS DOUBLE) / CAST(CAST(n AS HUGEINT) * r1 * k0 AS DOUBLE) END))
 + (CASE WHEN r1 * k1 = 0 THEN 0.0e0 ELSE CAST((CAST(o1_1 AS HUGEINT) * n - CAST(r1 AS HUGEINT) * k1) AS DOUBLE) * CAST((CAST(o1_1 AS HUGEINT) * n - CAST(r1 AS HUGEINT) * k1) AS DOUBLE) / CAST(CAST(n AS HUGEINT) * r1 * k1 AS DOUBLE) END))
 + (CASE WHEN r1 * k2 = 0 THEN 0.0e0 ELSE CAST((CAST(o1_2 AS HUGEINT) * n - CAST(r1 AS HUGEINT) * k2) AS DOUBLE) * CAST((CAST(o1_2 AS HUGEINT) * n - CAST(r1 AS HUGEINT) * k2) AS DOUBLE) / CAST(CAST(n AS HUGEINT) * r1 * k2 AS DOUBLE) END))
 + (CASE WHEN r2 * k0 = 0 THEN 0.0e0 ELSE CAST((CAST(o2_0 AS HUGEINT) * n - CAST(r2 AS HUGEINT) * k0) AS DOUBLE) * CAST((CAST(o2_0 AS HUGEINT) * n - CAST(r2 AS HUGEINT) * k0) AS DOUBLE) / CAST(CAST(n AS HUGEINT) * r2 * k0 AS DOUBLE) END))
 + (CASE WHEN r2 * k1 = 0 THEN 0.0e0 ELSE CAST((CAST(o2_1 AS HUGEINT) * n - CAST(r2 AS HUGEINT) * k1) AS DOUBLE) * CAST((CAST(o2_1 AS HUGEINT) * n - CAST(r2 AS HUGEINT) * k1) AS DOUBLE) / CAST(CAST(n AS HUGEINT) * r2 * k1 AS DOUBLE) END))
 + (CASE WHEN r2 * k2 = 0 THEN 0.0e0 ELSE CAST((CAST(o2_2 AS HUGEINT) * n - CAST(r2 AS HUGEINT) * k2) AS DOUBLE) * CAST((CAST(o2_2 AS HUGEINT) * n - CAST(r2 AS HUGEINT) * k2) AS DOUBLE) / CAST(CAST(n AS HUGEINT) * r2 * k2 AS DOUBLE) END))
 + (CASE WHEN r3 * k0 = 0 THEN 0.0e0 ELSE CAST((CAST(o3_0 AS HUGEINT) * n - CAST(r3 AS HUGEINT) * k0) AS DOUBLE) * CAST((CAST(o3_0 AS HUGEINT) * n - CAST(r3 AS HUGEINT) * k0) AS DOUBLE) / CAST(CAST(n AS HUGEINT) * r3 * k0 AS DOUBLE) END))
 + (CASE WHEN r3 * k1 = 0 THEN 0.0e0 ELSE CAST((CAST(o3_1 AS HUGEINT) * n - CAST(r3 AS HUGEINT) * k1) AS DOUBLE) * CAST((CAST(o3_1 AS HUGEINT) * n - CAST(r3 AS HUGEINT) * k1) AS DOUBLE) / CAST(CAST(n AS HUGEINT) * r3 * k1 AS DOUBLE) END))
 + (CASE WHEN r3 * k2 = 0 THEN 0.0e0 ELSE CAST((CAST(o3_2 AS HUGEINT) * n - CAST(r3 AS HUGEINT) * k2) AS DOUBLE) * CAST((CAST(o3_2 AS HUGEINT) * n - CAST(r3 AS HUGEINT) * k2) AS DOUBLE) / CAST(CAST(n AS HUGEINT) * r3 * k2 AS DOUBLE) END))
 + (CASE WHEN r4 * k0 = 0 THEN 0.0e0 ELSE CAST((CAST(o4_0 AS HUGEINT) * n - CAST(r4 AS HUGEINT) * k0) AS DOUBLE) * CAST((CAST(o4_0 AS HUGEINT) * n - CAST(r4 AS HUGEINT) * k0) AS DOUBLE) / CAST(CAST(n AS HUGEINT) * r4 * k0 AS DOUBLE) END))
 + (CASE WHEN r4 * k1 = 0 THEN 0.0e0 ELSE CAST((CAST(o4_1 AS HUGEINT) * n - CAST(r4 AS HUGEINT) * k1) AS DOUBLE) * CAST((CAST(o4_1 AS HUGEINT) * n - CAST(r4 AS HUGEINT) * k1) AS DOUBLE) / CAST(CAST(n AS HUGEINT) * r4 * k1 AS DOUBLE) END))
 + (CASE WHEN r4 * k2 = 0 THEN 0.0e0 ELSE CAST((CAST(o4_2 AS HUGEINT) * n - CAST(r4 AS HUGEINT) * k2) AS DOUBLE) * CAST((CAST(o4_2 AS HUGEINT) * n - CAST(r4 AS HUGEINT) * k2) AS DOUBLE) / CAST(CAST(n AS HUGEINT) * r4 * k2 AS DOUBLE) END)) AS chi2
   FROM piv)
SELECT n, chi2, sqrt(chi2 / (CAST(n AS DOUBLE) * 2.0e0)) AS v FROM chi
"""

    # kappa: cross-multiplied agreement over the paired-label crosstab
    sql["kappa"] = """
WITH v AS (
  SELECT CAST(left(o_orderpriority, 1) AS BIGINT) AS ra,
         (CAST(left(o_orderpriority, 1) AS BIGINT) - 1
          + CASE WHEN o_orderkey % 7 = 0 THEN 1 ELSE 0 END) % 5 + 1 AS rb
  FROM orders),
c AS (SELECT ra, rb, CAST(COUNT(*) AS BIGINT) AS obs FROM v GROUP BY ra, rb),
t AS (SELECT CAST(SUM(obs) AS BIGINT) AS n,
             CAST(SUM(CASE WHEN ra = rb THEN obs ELSE 0 END) AS BIGINT)
               AS po_cnt
      FROM c),
m AS (
  SELECT CAST(SUM(rt * ct) AS BIGINT) AS pe_num
  FROM (SELECT ra AS k, SUM(obs) AS rt FROM c GROUP BY ra) r
  JOIN (SELECT rb AS k, SUM(obs) AS ct FROM c GROUP BY rb) cc
       USING (k))
SELECT t.n, t.po_cnt, m.pe_num,
       CAST(CAST(t.n AS HUGEINT) * t.po_cnt - m.pe_num AS DOUBLE)
         / CAST(CAST(t.n AS HUGEINT) * t.n - m.pe_num AS DOUBLE) AS kappa
FROM t, m
"""

    # dbscan: disk join for neighbor counts, walk-CTE components over
    # core positions, min-core-custkey labels, border min assignment
    sql["dbscan"] = """
WITH RECURSIVE pts AS (
  SELECT CAST(c_custkey AS BIGINT) AS pid,
         CASE WHEN c_custkey % 31 = 0
              THEN (50 + ((c_custkey % 16) % 4) * 100
                    + (c_custkey // 16) % 13 + 137) % 400
              ELSE 50 + ((c_custkey % 16) % 4) * 100
                   + (c_custkey // 16) % 13 END AS xi,
         CASE WHEN c_custkey % 31 = 0
              THEN (50 + ((c_custkey % 16) // 4) * 100
                    + (c_custkey // 208) % 13 + 211) % 400
              ELSE 50 + ((c_custkey % 16) // 4) * 100
                   + (c_custkey // 208) % 13 END AS yi
  FROM customer),
cells AS (SELECT xi, yi, CAST(COUNT(*) AS BIGINT) AS cnt
          FROM pts GROUP BY xi, yi),
offs AS (
  SELECT * FROM (VALUES (0, 0), (1, 0), (-1, 0), (0, 1), (0, -1),
                        (1, 1), (1, -1), (-1, 1), (-1, -1),
                        (2, 0), (-2, 0), (0, 2), (0, -2)) AS t(dx, dy)),
core AS (
  SELECT a.xi, a.yi
  FROM cells a, offs o
  JOIN cells b ON b.xi = a.xi + o.dx AND b.yi = a.yi + o.dy
  GROUP BY a.xi, a.yi HAVING SUM(b.cnt) >= 5),
cpos AS (SELECT xi * 2097152 + yi AS pos, xi, yi FROM core),
edges AS (
  SELECT a.pos AS u, b.pos AS v
  FROM cpos a, offs o
  JOIN cpos b ON b.xi = a.xi + o.dx AND b.yi = a.yi + o.dy),
walk(node, lbl) AS (
  SELECT pos, pos FROM cpos
  UNION
  SELECT e.u, w.lbl FROM edges e JOIN walk w ON w.node = e.v),
roots AS (SELECT node, MIN(lbl) AS root FROM walk GROUP BY node),
corepts AS (
  SELECT p.pid, r.root
  FROM pts p JOIN cpos c ON c.xi = p.xi AND c.yi = p.yi
       JOIN roots r ON r.node = c.pos),
lbls AS (SELECT root, CAST(MIN(pid) AS BIGINT) AS lbl
         FROM corepts GROUP BY root),
corelbl AS (
  SELECT c.xi, c.yi, l.lbl
  FROM cpos c JOIN roots r ON r.node = c.pos JOIN lbls l
       ON l.root = r.root),
noncore AS (
  SELECT a.xi, a.yi FROM cells a
  LEFT JOIN core k ON k.xi = a.xi AND k.yi = a.yi
  WHERE k.xi IS NULL),
borderlbl AS (
  SELECT a.xi, a.yi, MIN(cl.lbl) AS lbl
  FROM noncore a, offs o
  JOIN corelbl cl ON cl.xi = a.xi + o.dx AND cl.yi = a.yi + o.dy
  GROUP BY a.xi, a.yi)
SELECT p.pid, p.xi, p.yi,
       CASE WHEN cl.lbl IS NOT NULL THEN 'core'
            WHEN bl.lbl IS NOT NULL THEN 'border'
            ELSE 'noise' END AS status,
       COALESCE(cl.lbl, bl.lbl, -1) AS cluster
FROM pts p
LEFT JOIN corelbl cl ON cl.xi = p.xi AND cl.yi = p.yi
LEFT JOIN borderlbl bl ON bl.xi = p.xi AND bl.yi = p.yi
"""

    # triangles: 3-way self-join over the oriented distinct edge set
    _EDGE_CTE = """v0 AS (
  SELECT o_orderkey % 397 AS u,
         (o_orderkey * 31 + o_orderkey // 397 + 7) % 397 AS v
  FROM orders)"""
    sql["triangles"] = f"""
WITH {_EDGE_CTE},
e AS (SELECT DISTINCT LEAST(u, v) AS a, GREATEST(u, v) AS b
      FROM v0 WHERE u != v),
tri AS (
  SELECT e1.a AS x, e1.b AS y, e2.b AS z
  FROM e e1
  JOIN e e2 ON e2.a = e1.a AND e2.b > e1.b
  JOIN e e3 ON e3.a = e1.b AND e3.b = e2.b),
n AS (SELECT x AS node FROM tri
      UNION ALL SELECT y FROM tri
      UNION ALL SELECT z FROM tri)
SELECT CAST(node AS BIGINT) AS node, CAST(COUNT(*) AS BIGINT) AS n_tri
FROM n GROUP BY node
"""

    # trigrams: LEAD windows per user stream
    sql["trigrams"] = """
WITH s AS (
  SELECT event_type AS t1,
         LEAD(event_type, 1) OVER w AS t2,
         LEAD(event_type, 2) OVER w AS t3
  FROM events WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id))
SELECT t1, t2, t3, CAST(COUNT(*) AS BIGINT) AS n
FROM s WHERE t3 IS NOT NULL GROUP BY t1, t2, t3
"""

    # edge_jaccard: triangle support per edge + degree join
    sql["edge_jaccard"] = f"""
WITH {_EDGE_CTE},
e AS (SELECT DISTINCT LEAST(u, v) AS a, GREATEST(u, v) AS b
      FROM v0 WHERE u != v),
deg AS (
  SELECT node, CAST(COUNT(*) AS BIGINT) AS deg
  FROM (SELECT a AS node FROM e UNION ALL SELECT b FROM e)
  GROUP BY node),
tri AS (
  SELECT e1.a AS x, e1.b AS y, e2.b AS z
  FROM e e1
  JOIN e e2 ON e2.a = e1.a AND e2.b > e1.b
  JOIN e e3 ON e3.a = e1.b AND e3.b = e2.b),
sup AS (
  SELECT a, b, CAST(COUNT(*) AS BIGINT) AS common
  FROM (SELECT x AS a, y AS b FROM tri
        UNION ALL SELECT x, z FROM tri
        UNION ALL SELECT y, z FROM tri)
  GROUP BY a, b)
SELECT CAST(e.a AS BIGINT) AS a, CAST(e.b AS BIGINT) AS b,
       COALESCE(s.common, 0) AS common,
       da.deg AS deg_a, db.deg AS deg_b,
       CAST(COALESCE(s.common, 0) AS DOUBLE)
         / CAST(da.deg + db.deg - COALESCE(s.common, 0) AS DOUBLE)
         AS jaccard
FROM e
LEFT JOIN sup s ON s.a = e.a AND s.b = e.b
JOIN deg da ON da.node = e.a
JOIN deg db ON db.node = e.b
"""

    # pagerank: 8 unrolled integer rounds, // is DuckDB floor division
    _pr_round = """
pr{b} AS (
  SELECT n.node,
         CAST(150000000000 + COALESCE(SUM((85 * p.r) // (100 * d.outdeg)),
                                      0) AS BIGINT) AS r
  FROM nodes n
  LEFT JOIN e ON e.b = n.node
  LEFT JOIN pr{a} p ON p.node = e.a
  LEFT JOIN deg d ON d.a = e.a
  GROUP BY n.node)"""
    _pr_chain = ",".join(_pr_round.format(a=i, b=i + 1) for i in range(8))
    sql["pagerank"] = f"""
WITH {_EDGE_CTE},
e AS (SELECT DISTINCT u AS a, v AS b FROM v0 WHERE u != v),
deg AS (SELECT a, CAST(COUNT(*) AS BIGINT) AS outdeg FROM e GROUP BY a),
ind AS (SELECT b, CAST(COUNT(*) AS BIGINT) AS indeg FROM e GROUP BY b),
nodes AS (SELECT a AS node FROM e UNION SELECT b FROM e),
pr0 AS (SELECT node, CAST(1000000000000 AS BIGINT) AS r FROM nodes),
{_pr_chain}
SELECT CAST(n.node AS BIGINT) AS node,
       COALESCE(d.outdeg, 0) AS outdeg,
       COALESCE(i.indeg, 0) AS indeg,
       p.r AS r
FROM nodes n
LEFT JOIN deg d ON d.a = n.node
LEFT JOIN ind i ON i.b = n.node
JOIN pr8 p ON p.node = n.node
"""

    # dtw: recursive list-DP by rows with the prefix-min identity
    sql["dtw"] = f"""
WITH RECURSIVE
a AS (SELECT i, v FROM (
        SELECT ROW_NUMBER() OVER (ORDER BY ts, event_id) AS i,
               CAST(FLOOR(value * 100.0e0) AS BIGINT) AS v
        FROM events WHERE event_type = 'click') WHERE i <= {DTW_K}),
b AS (SELECT j, v FROM (
        SELECT ROW_NUMBER() OVER (ORDER BY ts, event_id) AS j,
               CAST(FLOOR(value * 100.0e0) AS BIGINT) AS v
        FROM events WHERE event_type = 'purchase') WHERE j <= {DTW_K}),
cl AS (SELECT a.i, list(ABS(a.v - b.v) ORDER BY b.j) AS cs
       FROM a, b GROUP BY a.i),
n2t AS (SELECT CAST(COUNT(*) AS BIGINT) AS n2 FROM b),
dp AS (
  SELECT 0 AS i,
         list_prepend(CAST(0 AS BIGINT),
           list_transform(range(1, CAST(n2 AS INTEGER) + 1),
                          j -> CAST({{BIG}} AS BIGINT))) AS ms
  FROM n2t
  UNION ALL
  SELECT cl.i,
         list_prepend(CAST({{BIG}} AS BIGINT),
           list_transform(range(1, len(cl.cs) + 1), j ->
             COALESCE(list_sum(cl.cs[1:j]), 0)
             + list_min(list_transform(range(1, j + 1), jp ->
                 LEAST(d.ms[jp + 1], d.ms[jp])
                 - COALESCE(list_sum(cl.cs[1:jp - 1]), 0)))))
  FROM dp d JOIN cl ON cl.i = d.i + 1
)
SELECT (SELECT CAST(COUNT(*) AS BIGINT) FROM a) AS n1,
       (SELECT n2 FROM n2t) AS n2,
       CAST(ms[CAST((SELECT n2 FROM n2t) AS INTEGER) + 1] AS BIGINT) AS dtw
FROM dp WHERE i = (SELECT COUNT(*) FROM a)
"""
    sql["dtw"] = sql["dtw"].replace("{BIG}", "1152921504606846976")

    # kruskal: pooled doubled ranks, pivoted left-associative H chain
    sql["kruskal"] = """
WITH v AS (
  SELECT event_type, CAST(FLOOR(value * 100.0e0) AS BIGINT) AS c
  FROM events),
h0 AS (SELECT event_type, c, CAST(COUNT(*) AS BIGINT) AS cnt
       FROM v GROUP BY event_type, c),
pool AS (SELECT c, CAST(SUM(cnt) AS BIGINT) AS t FROM h0 GROUP BY c),
rk AS (
  SELECT c, t,
         2 * COALESCE(SUM(t) OVER (ORDER BY c
                                   ROWS BETWEEN UNBOUNDED PRECEDING
                                   AND 1 PRECEDING), 0) + t + 1 AS dx
  FROM pool),
grp AS (
  SELECT h0.event_type, CAST(SUM(h0.cnt) AS BIGINT) AS n_i,
         CAST(SUM(h0.cnt * rk.dx) AS BIGINT) AS r2
  FROM h0 JOIN rk ON rk.c = h0.c GROUP BY h0.event_type),
gl AS (SELECT CAST(SUM(t) AS BIGINT) AS n,
                CAST(SUM(t * (t - 1) * (t + 1)) AS BIGINT) AS ties
         FROM pool),
piv AS (SELECT
   MAX(CASE WHEN event_type = 'click' THEN (CAST(r2 AS DOUBLE) * CAST(r2 AS DOUBLE)) / CAST(4 * n_i AS DOUBLE) END) AS t0,
   MAX(CASE WHEN event_type = 'error' THEN (CAST(r2 AS DOUBLE) * CAST(r2 AS DOUBLE)) / CAST(4 * n_i AS DOUBLE) END) AS t1,
   MAX(CASE WHEN event_type = 'purchase' THEN (CAST(r2 AS DOUBLE) * CAST(r2 AS DOUBLE)) / CAST(4 * n_i AS DOUBLE) END) AS t2,
   MAX(CASE WHEN event_type = 'signup' THEN (CAST(r2 AS DOUBLE) * CAST(r2 AS DOUBLE)) / CAST(4 * n_i AS DOUBLE) END) AS t3,
   MAX(CASE WHEN event_type = 'view' THEN (CAST(r2 AS DOUBLE) * CAST(r2 AS DOUBLE)) / CAST(4 * n_i AS DOUBLE) END) AS t4
   FROM grp)
SELECT g.event_type, g.n_i, g.r2, gl.n, gl.ties,
       (12.0e0 * ((((t0 + t1) + t2) + t3) + t4)
        / (CAST(gl.n AS DOUBLE) * CAST(gl.n + 1 AS DOUBLE))
        - 3.0e0 * CAST(gl.n + 1 AS DOUBLE))
       / (1.0e0 - CAST(gl.ties AS DOUBLE)
                  / CAST(gl.n * gl.n * gl.n - gl.n AS DOUBLE))
         AS h
FROM grp g, gl, piv
"""

    # roc: suffix sums over the pooled histogram
    sql["roc"] = """
WITH v AS (
  SELECT CAST(FLOOR(value * 100.0e0) AS BIGINT) AS _v,
         CASE WHEN event_type = 'click' THEN 1 ELSE 0 END AS isa
  FROM events WHERE event_type IN ('click', 'purchase')),
h AS (
  SELECT _v, CAST(SUM(isa) AS BIGINT) AS na,
         CAST(SUM(1 - isa) AS BIGINT) AS nb
  FROM v GROUP BY _v),
t AS (SELECT CAST(SUM(na) AS BIGINT) AS n1, CAST(SUM(nb) AS BIGINT) AS n2
      FROM h),
c AS (
  SELECT _v,
         SUM(na) OVER (ORDER BY _v DESC
                       ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW)
           AS tp,
         SUM(nb) OVER (ORDER BY _v DESC
                       ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW)
           AS fp
  FROM h)
SELECT c._v AS v, CAST(c.tp AS BIGINT) AS tp, CAST(c.fp AS BIGINT) AS fp,
       CAST(t.n1 - c.tp AS BIGINT) AS fn, CAST(t.n2 - c.fp AS BIGINT) AS tn,
       CAST(c.tp AS DOUBLE) / CAST(t.n1 AS DOUBLE) AS tpr,
       CAST(c.fp AS DOUBLE) / CAST(t.n2 AS DOUBLE) AS fpr
FROM c, t
"""

    # emd: cross-multiplied CDF gap integral over the pooled histogram
    sql["emd"] = """
WITH v AS (
  SELECT CAST(FLOOR(value * 100.0e0) AS BIGINT) AS _v,
         CASE WHEN event_type = 'click' THEN 1 ELSE 0 END AS isa
  FROM events WHERE event_type IN ('click', 'purchase')),
h AS (
  SELECT _v, CAST(SUM(isa) AS BIGINT) AS na,
         CAST(SUM(1 - isa) AS BIGINT) AS nb
  FROM v GROUP BY _v),
c AS (
  SELECT _v, na, nb,
         SUM(na) OVER (ORDER BY _v) AS ca,
         SUM(nb) OVER (ORDER BY _v) AS cb,
         LEAD(_v) OVER (ORDER BY _v) AS nxt
  FROM h),
t AS (SELECT CAST(SUM(na) AS BIGINT) AS n1, CAST(SUM(nb) AS BIGINT) AS n2
      FROM h),
s AS (
  SELECT t.n1, t.n2,
         CAST(SUM(ABS(t.n2 * c.ca - t.n1 * c.cb) * (c.nxt - c._v))
              AS BIGINT) AS emd_num
  FROM c, t WHERE c.nxt IS NOT NULL GROUP BY t.n1, t.n2)
SELECT n1, n2, emd_num, n1 * n2 AS emd_den,
       CAST(emd_num AS DOUBLE) / CAST(n1 * n2 AS DOUBLE) AS emd
FROM s
"""

    # chi_square: dev = obs*N - rt*ct exact; one float per cell
    sql["chi_square"] = """
WITH c AS (
  SELECT o_orderpriority, o_orderstatus, CAST(COUNT(*) AS BIGINT) AS obs
  FROM orders GROUP BY o_orderpriority, o_orderstatus),
t AS (SELECT CAST(SUM(obs) AS BIGINT) AS n FROM c),
r AS (SELECT o_orderpriority, CAST(SUM(obs) AS BIGINT) AS rt
      FROM c GROUP BY o_orderpriority),
k AS (SELECT o_orderstatus, CAST(SUM(obs) AS BIGINT) AS ct
      FROM c GROUP BY o_orderstatus),
d AS (
  SELECT c.o_orderpriority, c.o_orderstatus, c.obs, r.rt, k.ct, t.n,
         CAST(c.obs AS HUGEINT) * t.n - CAST(r.rt AS HUGEINT) * k.ct AS dev
  FROM c JOIN r USING (o_orderpriority) JOIN k USING (o_orderstatus), t)
SELECT o_orderpriority, o_orderstatus, obs, rt AS row_tot, ct AS col_tot,
       n, CAST(dev AS BIGINT) AS dev,
       CAST(dev * dev AS DOUBLE)
         / CAST(CAST(n AS HUGEINT) * rt * ct AS DOUBLE) AS cell_chi2
FROM d
"""

    # cusum: running-sum window, exact D_k = n*C_k - k*T, smallest argmax
    sql["cusum"] = """
WITH v AS (
  SELECT event_type, ts, event_id,
         CAST(FLOOR(value * 100.0e0) AS BIGINT) AS c
  FROM events),
o AS (
  SELECT event_type,
         ROW_NUMBER() OVER (PARTITION BY event_type
                            ORDER BY ts, event_id) AS k,
         SUM(c) OVER (PARTITION BY event_type ORDER BY ts, event_id
                      ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW)
           AS ck
  FROM v),
t AS (
  SELECT event_type, CAST(COUNT(*) AS BIGINT) AS n,
         CAST(SUM(c) AS BIGINT) AS total
  FROM v GROUP BY event_type),
d AS (
  SELECT o.event_type, o.k, t.n, t.total,
         ABS(CAST(t.n AS HUGEINT) * o.ck
             - CAST(o.k AS HUGEINT) * t.total) AS ad
  FROM o JOIN t USING (event_type) WHERE o.k < t.n),
m AS (SELECT event_type, MAX(ad) AS dm FROM d GROUP BY event_type)
SELECT d.event_type, d.n, d.total, CAST(MIN(d.k) AS BIGINT) AS k_star,
       CAST(m.dm AS BIGINT) AS d_max
FROM d JOIN m ON m.event_type = d.event_type AND d.ad = m.dm
GROUP BY d.event_type, d.n, d.total, m.dm
"""

    # runs_test: median split (quantile_disc), LAG run boundaries
    sql["runs_test"] = """
WITH v AS (
  SELECT event_type, ts, event_id,
         CAST(FLOOR(value * 100.0e0) AS BIGINT) AS c
  FROM events),
med AS (SELECT event_type, quantile_disc(c, 0.5) AS m
        FROM v GROUP BY event_type),
f AS (
  SELECT v.event_type, v.ts, v.event_id, (v.c > med.m) AS s
  FROM v JOIN med USING (event_type) WHERE v.c != med.m),
r AS (
  SELECT event_type, s,
         LAG(s) OVER (PARTITION BY event_type ORDER BY ts, event_id) AS ps
  FROM f),
a AS (
  SELECT event_type,
         CAST(SUM(CASE WHEN s THEN 1 ELSE 0 END) AS BIGINT) AS n1,
         CAST(SUM(CASE WHEN s THEN 0 ELSE 1 END) AS BIGINT) AS n2,
         CAST(1 + SUM(CASE WHEN ps IS NOT NULL AND s != ps
                           THEN 1 ELSE 0 END) AS BIGINT) AS runs
  FROM r GROUP BY event_type)
SELECT event_type, n1, n2, runs,
       1.0e0 + CAST(2 * n1 * n2 AS DOUBLE) / CAST(n1 + n2 AS DOUBLE)
         AS e_runs
FROM a WHERE n1 > 0 AND n2 > 0
"""

    # mann_whitney: doubled U over the cumulative value histogram
    sql["mann_whitney"] = """
WITH v AS (
  SELECT CAST(FLOOR(value * 100.0e0) AS BIGINT) AS _v,
         CASE WHEN event_type = 'click' THEN 1 ELSE 0 END AS isa
  FROM events WHERE event_type IN ('click', 'purchase')),
h AS (
  SELECT _v, CAST(SUM(isa) AS BIGINT) AS na,
         CAST(SUM(1 - isa) AS BIGINT) AS nb
  FROM v GROUP BY _v),
c AS (
  SELECT _v, na, nb,
         COALESCE(SUM(nb) OVER (ORDER BY _v
                                ROWS BETWEEN UNBOUNDED PRECEDING
                                AND 1 PRECEDING), 0) AS cumb
  FROM h),
s AS (
  SELECT CAST(SUM(na) AS BIGINT) AS n1,
         CAST(SUM(nb) AS BIGINT) AS n2,
         CAST(SUM(na * (2 * cumb + nb)) AS BIGINT) AS u2_a,
         CAST(SUM((na + nb) * (na + nb - 1) * (na + nb + 1)) AS BIGINT)
           AS tie_term
  FROM c)
SELECT n1, n2, u2_a, 2 * n1 * n2 - u2_a AS u2_b, tie_term,
       CAST(u2_a AS DOUBLE) / CAST(2 * n1 * n2 AS DOUBLE) AS auc
FROM s
"""

    sql["transitions"] = """
WITH s AS (
  SELECT user_id, event_type,
         LEAD(event_type) OVER (PARTITION BY user_id
                                ORDER BY ts, event_id) AS nxt
  FROM events)
SELECT event_type AS from_type, nxt AS to_type,
       CAST(COUNT(*) AS BIGINT) AS n
FROM s WHERE nxt IS NOT NULL
GROUP BY event_type, nxt
"""

    sql["interval_merge"] = """
WITH iv AS (
  SELECT user_id, epoch_us(ts) AS s,
         epoch_us(ts)
           + CAST(FLOOR(value * 100.0e0) AS BIGINT) * 5000000 AS e
  FROM events),
m AS (
  SELECT user_id, s, e,
         MAX(e) OVER (PARTITION BY user_id ORDER BY s, e
                      ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING)
           AS pm
  FROM iv),
isl AS (
  SELECT user_id, s, e,
         SUM(CASE WHEN pm IS NULL OR s > pm THEN 1 ELSE 0 END)
           OVER (PARTITION BY user_id ORDER BY s, e
                 ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW) AS iid
  FROM m),
g AS (
  SELECT user_id, iid, MIN(s) AS st, MAX(e) AS en
  FROM isl GROUP BY user_id, iid)
SELECT user_id, CAST(COUNT(*) AS BIGINT) AS n_islands,
       CAST(SUM(en - st) AS BIGINT) AS covered_us,
       CAST(MAX(en - st) AS BIGINT) AS max_island_us
FROM g GROUP BY user_id
"""

    sql["skyline"] = """
WITH pt AS (
  SELECT p_partkey,
         CAST(FLOOR(p_retailprice * 100.0e0) AS BIGINT) AS price_c,
         CAST(p_size AS BIGINT) AS p_size
  FROM part)
SELECT p_partkey, price_c, p_size FROM pt a
WHERE NOT EXISTS (
  SELECT 1 FROM pt b
  WHERE b.price_c <= a.price_c AND b.p_size >= a.p_size
    AND (b.price_c < a.price_c OR b.p_size > a.p_size))
"""

    sql["quantiles"] = """
WITH n AS (SELECT CAST(COUNT(*) AS BIGINT) AS n FROM lineitem),
v AS (SELECT quantile_disc(l_extendedprice,
        [0.25e0, 0.5e0, 0.75e0, 0.9e0, 0.99e0]) AS vals FROM lineitem),
q AS (SELECT unnest([0.25e0, 0.5e0, 0.75e0, 0.9e0, 0.99e0]) AS q,
             unnest([1, 2, 3, 4, 5]) AS i)
SELECT q.q, v.vals[q.i] AS value,
       CAST(CEIL(q.q * n.n) AS BIGINT) AS sel_rank, n.n AS n
FROM q, v, n
"""

    sql["repetition"] = r"""
WITH l AS (SELECT doc_id, regexp_extract_all(text, '\S+') AS ws FROM documents),
w AS (SELECT doc_id, unnest(ws) AS item FROM l),
b AS (SELECT doc_id,
             unnest(list_transform(range(1, len(ws)),
                                   i -> ws[i] || chr(32) || ws[i + 1])) AS item
      FROM l),
gw AS (SELECT doc_id, item, COUNT(*) c FROM w GROUP BY doc_id, item),
gb AS (SELECT doc_id, item, COUNT(*) c FROM b GROUP BY doc_id, item),
sw AS (SELECT doc_id, CAST(SUM(c) AS BIGINT) n_words,
              CAST(COUNT(*) AS BIGINT) n_distinct_words,
              CAST(MAX(c) AS BIGINT) top_word_count
       FROM gw GROUP BY doc_id),
sb AS (SELECT doc_id, CAST(MAX(c) AS BIGINT) top_bigram_count FROM gb GROUP BY doc_id)
SELECT d.doc_id,
  COALESCE(sw.n_words, 0) AS n_words,
  COALESCE(sw.n_distinct_words, 0) AS n_distinct_words,
  COALESCE(sw.n_words - sw.n_distinct_words, 0) AS dup_words,
  COALESCE(sw.top_word_count, 0) AS top_word_count,
  COALESCE(sb.top_bigram_count, 0) AS top_bigram_count
FROM documents d
LEFT JOIN sw ON d.doc_id = sw.doc_id
LEFT JOIN sb ON d.doc_id = sb.doc_id
"""

    sql["salient_terms"] = r"""
WITH w AS (SELECT doc_id, unnest(regexp_extract_all(text, '\S+')) AS term
           FROM documents),
tf AS (SELECT doc_id, term, CAST(COUNT(*) AS BIGINT) tf FROM w GROUP BY doc_id, term),
df AS (SELECT term, CAST(COUNT(DISTINCT doc_id) AS BIGINT) df FROM w GROUP BY term),
r AS (SELECT tf.doc_id, tf.term, tf.tf, df.df,
             row_number() OVER (PARTITION BY tf.doc_id
                                ORDER BY tf.tf DESC, df.df ASC, tf.term ASC)
               AS sel_rank
      FROM tf JOIN df ON tf.term = df.term)
SELECT doc_id, term, tf, df, sel_rank FROM r WHERE sel_rank <= 3
"""

    sql["pixel_histogram"] = f"""
WITH {_IMGS_CTE.format(n=N_IMG_MERGE).strip()}
SELECT ((d * 31 + r.range * 7 + c.range * 13) % 251) // 8 AS bin,
       CAST(COUNT(*) AS BIGINT) AS n_px
FROM imgs, range(100) r, range(100) c
GROUP BY 1
"""

    sql["image_moments"] = f"""
WITH {_IMGS_CTE.format(n=N_IMG_MERGE).strip()},
px AS (
  SELECT d, (d * 31 + r.range * 7 + c.range * 13) % 251 AS value
  FROM imgs, range(100) r, range(100) c
)
SELECT printf('img%08d', d) AS image_id,
       CAST(COUNT(*) AS BIGINT) AS n_px,
       CAST(SUM(value) AS BIGINT) AS sum_value,
       CAST(SUM(value * value) AS BIGINT) AS sum_sq,
       CAST(MIN(value) AS BIGINT) AS vmin,
       CAST(MAX(value) AS BIGINT) AS vmax
FROM px GROUP BY d
"""

    # focal 3x3 sum at sampled centers, rebuilt from the closed-form
    # pixel formula (no self-join: neighbors are generated by offset and
    # bounds-filtered, which IS the edge-clamp rule)
    sql["focal_halo"] = f"""
WITH {_IMGS_CTE.format(n=N_IMG_FOCAL).strip()},
centers AS (
  SELECT d, r.range AS r, c.range AS c
  FROM imgs, range(0, 100, 5) r, range(0, 100, 5) c
),
nbr AS (
  SELECT d, r, c, r + dr.range AS nr, c + dc.range AS nc
  FROM centers, range(-1, 2) dr, range(-1, 2) dc
)
SELECT printf('img%08d', d) AS image_id, r, c,
       CAST(COUNT(*) AS BIGINT) AS n_nbr,
       CAST(SUM((d * 31 + nr * 7 + nc * 13) % 251) AS BIGINT) AS fsum
FROM nbr
WHERE nr BETWEEN 0 AND 99 AND nc BETWEEN 0 AND 99
GROUP BY d, r, c
"""

    # morphology: masked-neighbor counts over the (2R+1)^2 window with
    # bounds filtering == the engine's edge clamp
    sql["morphology"] = f"""
WITH {_IMGS_CTE.format(n=N_IMG_FOCAL).strip()},
centers AS (
  SELECT d, r.range AS r, c.range AS c
  FROM imgs, range(0, 100, 5) r, range(0, 100, 5) c
),
nbr AS (
  SELECT d, r, c, r + dr.range AS nr, c + dc.range AS nc
  FROM centers, range(-2, 3) dr, range(-2, 3) dc
),
agg AS (
  SELECT d, r, c,
         CAST(SUM(CASE WHEN (d * 31 + nr * 7 + nc * 13) % 251 >= 200
                       THEN 1 ELSE 0 END) AS BIGINT) AS n_masked,
         CAST(COUNT(*) AS BIGINT) AS n_nbr
  FROM nbr
  WHERE nr BETWEEN 0 AND 99 AND nc BETWEEN 0 AND 99
  GROUP BY d, r, c
)
SELECT printf('img%08d', d) AS image_id, r, c, n_masked, n_nbr,
       CAST(CASE WHEN n_masked > 0 THEN 1 ELSE 0 END AS BIGINT) AS dilated,
       CAST(CASE WHEN n_masked = n_nbr THEN 1 ELSE 0 END AS BIGINT) AS eroded
FROM agg
"""

    # raster component labeling: pixel-level recursive min-label CTE
    # over the 4-adjacency of the >=220 mask; component anchor = the
    # (row, col) of the minimum pixel id, exactly the engine's packing
    sql["label_components"] = f"""
WITH RECURSIVE {_IMGS_CTE.format(n=N_IMG_FOCAL).strip()},
px AS (
  SELECT d, r.range AS r, c.range AS c,
         d * 4294967296 + r.range * 65536 + c.range AS node
  FROM imgs, range(100) r, range(100) c
  WHERE (d * 31 + r.range * 7 + c.range * 13) % 251 >= 220
),
e0 AS (
  SELECT a.node AS u, b.node AS v
  FROM px a JOIN px b
    ON a.d = b.d
   AND ((b.r = a.r AND b.c = a.c + 1) OR (b.r = a.r + 1 AND b.c = a.c))
),
edges AS (SELECT u, v FROM e0 UNION SELECT v AS u, u AS v FROM e0),
walk(node, lbl) AS (
  SELECT node, node FROM px
  UNION
  SELECT e.u, w.lbl FROM edges e JOIN walk w ON w.node = e.v
),
cc AS (SELECT node, MIN(lbl) AS root FROM walk GROUP BY node)
SELECT printf('img%08d', p.d) AS image_id,
       (root // 65536) % 65536 AS comp_r,
       root % 65536 AS comp_c,
       CAST(COUNT(*) AS BIGINT) AS n_px,
       MIN(p.r) AS rmin, MAX(p.r) AS rmax,
       MIN(p.c) AS cmin, MAX(p.c) AS cmax
FROM px p JOIN cc ON cc.node = p.node
GROUP BY p.d, root
"""

    # connected components: recursive min-label propagation over the
    # same synthetic sparse edge set (bidirectional reachability -> the
    # component minimum); csize windows over the converged mapping
    sql["components"] = """
WITH RECURSIVE e0 AS (
  SELECT (o_orderkey * 37) % 65536 AS u, (o_orderkey * 101 + 7) % 65536 AS v
  FROM orders WHERE o_orderkey < 15000
),
e1 AS (SELECT u, v FROM e0 WHERE u <> v),
edges AS (SELECT u, v FROM e1 UNION SELECT v AS u, u AS v FROM e1),
nodes AS (SELECT DISTINCT u AS node FROM edges),
walk(node, lbl) AS (
  SELECT node, node FROM nodes
  UNION
  SELECT e.u, w.lbl FROM edges e JOIN walk w ON w.node = e.v
),
cc AS (SELECT node, MIN(lbl) AS root FROM walk GROUP BY node)
SELECT node, root, COUNT(*) OVER (PARTITION BY root) AS csize FROM cc
"""

    sql["dup_clusters"] = f"""
WITH RECURSIVE t AS (
  SELECT CAST(image_id[4:] AS BIGINT) AS iid, phash
  FROM read_parquet('{phash_path}')
),
p AS (
  SELECT x.iid AS u, y.iid AS v
  FROM t x JOIN t y ON x.iid < y.iid
  WHERE bit_count(xor(x.phash, y.phash)) <= 6
),
edges AS (SELECT u, v FROM p UNION SELECT v AS u, u AS v FROM p),
nodes AS (SELECT DISTINCT u AS node FROM edges),
walk(node, lbl) AS (
  SELECT node, node FROM nodes
  UNION
  SELECT e.u, w.lbl FROM edges e JOIN walk w ON w.node = e.v
)
SELECT node, MIN(lbl) AS root FROM walk GROUP BY node
"""

    # Morton key: SQL bit interleave term-by-term over the 12 index bits
    _ix12 = "LEAST(GREATEST(CAST(floor((x + 180.0e0) / 360.0e0 * 4096) AS BIGINT), 0), 4095)"
    _iy12 = "LEAST(GREATEST(CAST(floor((90.0e0 - y) / 180.0e0 * 4096) AS BIGINT), 0), 4095)"
    _zterms = " + ".join(
        f"(((ix >> {b}) & 1) << {2 * b}) + (((iy >> {b}) & 1) << {2 * b + 1})"
        for b in range(12)
    )
    # hilbert: the xy2d loop unrolled for bits=4 — four rotate/reflect
    # CTE steps (s = 8, 4, 2, 1), reflections through the full-grid
    # complement 15, d increments s*s*xor(3*rx, ry)
    _hstep = """
h{o} AS (
  SELECT k,
         d{i} + {s} * {s} * xor(3 * (CASE WHEN x{i} & {s} > 0 THEN 1 ELSE 0 END),
                                (CASE WHEN y{i} & {s} > 0 THEN 1 ELSE 0 END)) AS d{o},
         CASE WHEN y{i} & {s} = 0 THEN
              CASE WHEN x{i} & {s} > 0 THEN 15 - y{i} ELSE y{i} END
              ELSE x{i} END AS x{o},
         CASE WHEN y{i} & {s} = 0 THEN
              CASE WHEN x{i} & {s} > 0 THEN 15 - x{i} ELSE x{i} END
              ELSE y{i} END AS y{o}
  FROM h{i})"""
    sql["hilbert"] = ("""
WITH h0 AS (
  SELECT c_custkey AS k,
         (c_custkey * j.j) % 16 AS x0,
         (c_custkey + 3 * j.j) % 16 AS y0,
         0 AS d0
  FROM customer, range(0, 64) j(j)
),"""
        + ",".join(_hstep.format(i=i, o=i + 1, s=s)
                   for i, s in enumerate((8, 4, 2, 1)))
        + """
SELECT printf('g%06d', k) AS geom_id,
       CAST(d4 // 16 AS BIGINT) AS bucket,
       CAST(COUNT(*) AS BIGINT) AS n_pts,
       CAST(SUM(d4) AS BIGINT) AS sum_d
FROM h4 GROUP BY k, d4 // 16
""")
    sql["zorder_buckets"] = f"""
WITH {_PTS_CTE.strip()},
idx AS (SELECT {_ix12} AS ix, {_iy12} AS iy FROM pts),
z AS (SELECT CAST({_zterms} AS BIGINT) AS zkey FROM idx)
SELECT zkey >> 8 AS bucket,
       CAST(COUNT(*) AS BIGINT) AS n_pts,
       MIN(zkey) AS zmin,
       MAX(zkey) AS zmax
FROM z GROUP BY 1
"""

    # bloom prefilter + exact semi join == plain EXISTS semi join
    sql["bloom_semi"] = """
SELECT l_orderkey, l_linenumber, l_quantity
FROM lineitem l
WHERE EXISTS (
  SELECT 1 FROM orders o
  WHERE o.o_orderkey = l.l_orderkey AND o.o_orderpriority = '1-URGENT'
)
"""

    # Horn gradient at sampled interior centers from the pixel formula;
    # numerators integral, grad mirrors the engine's float op order
    _V = lambda dr, dc: (  # noqa: E731
        f"((d * 31 + (r + ({dr})) * 7 + (c + ({dc})) * 13) % 251)"
    )
    _gxn = (
        f"({_V(-1, 1)} + 2 * {_V(0, 1)} + {_V(1, 1)})"
        f" - ({_V(-1, -1)} + 2 * {_V(0, -1)} + {_V(1, -1)})"
    )
    _gyn = (
        f"({_V(1, -1)} + 2 * {_V(1, 0)} + {_V(1, 1)})"
        f" - ({_V(-1, -1)} + 2 * {_V(-1, 0)} + {_V(-1, 1)})"
    )
    _dhx = lambda p: (  # noqa: E731
        f"(instr('0123456789abcdef', substr(md5(CAST(doc_id AS VARCHAR)), {p}, 1)) - 1)"
    )
    _dkey = "(" + " + ".join(f"{_dhx(p)} * {16 ** (8 - p)}" for p in range(1, 9)) + ")"
    sql["data_mix"] = f"""
WITH s AS (
  SELECT source, doc_id, CAST({_dkey} AS BIGINT) AS sample_key
  FROM documents
),
r AS (
  SELECT source, doc_id, sample_key,
         row_number() OVER (PARTITION BY source
                            ORDER BY sample_key ASC, doc_id ASC) AS sel_rank
  FROM s
)
SELECT source, doc_id, sample_key, sel_rank FROM r
WHERE sel_rank <= 10 * (1 + CAST(source[4:] AS BIGINT) % 3)
"""

    _an = " UNION ALL ".join(
        f"""SELECT '{c}' AS col, CAST(COUNT(*) AS BIGINT) AS n,
       CAST(COUNT(*) - COUNT({c}) AS BIGINT) AS n_null,
       MIN({c}) AS vmin, MAX({c}) AS vmax,
       CAST(SUM(CAST(floor({c} * 100) AS BIGINT)) AS BIGINT) AS sum_cents
FROM lineitem"""
        for c in _ANALYZE_COLS
    )
    sql["analyze"] = _an

    sql["priority_semi"] = """
SELECT o.o_orderpriority, CAST(COUNT(*) AS BIGINT) AS n_orders
FROM orders o
WHERE EXISTS (SELECT 1 FROM lineitem l
              WHERE l.l_orderkey = o.o_orderkey AND l.l_returnflag = 'R')
GROUP BY o.o_orderpriority
"""

    _v9 = ", ".join(_V(dr, dc) for dr in (-1, 0, 1) for dc in (-1, 0, 1))
    sql["focal_median"] = f"""
WITH {{imgs_cte}},
g AS (
  SELECT d, r.range AS r, c.range AS c
  FROM imgs, range(0, 100, 5) r, range(0, 100, 5) c
  WHERE r.range BETWEEN 1 AND 98 AND c.range BETWEEN 1 AND 98
)
SELECT printf('img%08d', d) AS image_id, r, c,
       CAST(list_sort([{_v9}])[5] AS BIGINT) AS med
FROM g
""".replace("{imgs_cte}", _IMGS_CTE.format(n=N_IMG_FOCAL).strip())

    sql["terrain"] = f"""
WITH {_IMGS_CTE.format(n=N_IMG_FOCAL).strip()},
g AS (
  SELECT d, r.range AS r, c.range AS c
  FROM imgs, range(0, 100, 5) r, range(0, 100, 5) c
  WHERE r.range BETWEEN 1 AND 98 AND c.range BETWEEN 1 AND 98
),
num AS (
  SELECT d, r, c,
         CAST({_gxn} AS BIGINT) AS gx_num,
         CAST({_gyn} AS BIGINT) AS gy_num
  FROM g
)
SELECT printf('img%08d', d) AS image_id, r, c, gx_num, gy_num,
       sqrt((CAST(gx_num AS DOUBLE) / (8 * 0.01e0)) * (CAST(gx_num AS DOUBLE) / (8 * 0.01e0))
          + (CAST(gy_num AS DOUBLE) / (8 * 0.01e0)) * (CAST(gy_num AS DOUBLE) / (8 * 0.01e0)))
         AS grad
FROM num
"""

    # aspect sectors: descent (de, dn) = (-gx, +gy); 22.5° boundaries as
    # IEEE |minor| < |major| * tan22.5 with the correctly-rounded double
    # literal (terrain.py::ASPECT_TAN_22_5) — full interior, no sampling
    sql["aspect"] = f"""
WITH {_IMGS_CTE.format(n=N_IMG_FOCAL).strip()},
g AS (
  SELECT d, r.range AS r, c.range AS c
  FROM imgs, range(100) r, range(100) c
  WHERE r.range BETWEEN 1 AND 98 AND c.range BETWEEN 1 AND 98
),
num AS (
  SELECT d, -CAST({_gxn} AS BIGINT) AS de, CAST({_gyn} AS BIGINT) AS dn
  FROM g
),
cls AS (
  SELECT d,
    CASE WHEN de = 0 AND dn = 0 THEN 0
         WHEN CAST(abs(de) AS DOUBLE)
              < CAST(abs(dn) AS DOUBLE) * 0.41421356237309503e0
           THEN CASE WHEN dn > 0 THEN 1 ELSE 5 END
         WHEN CAST(abs(dn) AS DOUBLE)
              < CAST(abs(de) AS DOUBLE) * 0.41421356237309503e0
           THEN CASE WHEN de > 0 THEN 3 ELSE 7 END
         WHEN de > 0 AND dn > 0 THEN 2
         WHEN de > 0 THEN 4
         WHEN dn < 0 THEN 6
         ELSE 8 END AS aspect_class
  FROM num
)
SELECT printf('img%08d', d) AS image_id, aspect_class,
       CAST(COUNT(*) AS BIGINT) AS n_px
FROM cls GROUP BY d, aspect_class
"""

    sql["proximity"] = f"""
WITH {{imgs_cte}},
g AS (
  SELECT d, r.range AS r, c.range AS c
  FROM imgs, range(0, 100, 7) r, range(0, 100, 7) c
),
seeds AS (
  SELECT d, r.range AS sr, c.range AS sc
  FROM imgs, range(100) r, range(100) c
  WHERE ((d * 31 + r.range * 7 + c.range * 13) % 251) % 17 = 0
),
m AS (
  SELECT g.d, g.r, g.c, MIN(abs(g.r - s.sr) + abs(g.c - s.sc)) AS md
  FROM g LEFT JOIN seeds s ON s.d = g.d
  GROUP BY 1, 2, 3
)
SELECT printf('img%08d', d) AS image_id, r, c,
       CAST(LEAST(COALESCE(md, 9223372036854775807), 13) AS BIGINT) AS dist
FROM m
""".replace("{imgs_cte}", _IMGS_CTE.format(n=N_IMG_FOCAL).strip())

    sql["hillshade"] = f"""
WITH {{imgs_cte}},
g AS (
  SELECT d, r.range AS r, c.range AS c
  FROM imgs, range(0, 100, 5) r, range(0, 100, 5) c
  WHERE r.range BETWEEN 1 AND 98 AND c.range BETWEEN 1 AND 98
),
num AS (
  SELECT d, r, c,
         CAST({_gxn} AS BIGINT) AS gx_num,
         CAST({_gyn} AS BIGINT) AS gy_num
  FROM g
),
pq AS (
  SELECT d, r, c,
         CAST(gx_num AS DOUBLE) / (8 * 0.01e0) AS p,
         CAST(gy_num AS DOUBLE) / (8 * 0.01e0) AS q
  FROM num
)
SELECT printf('img%08d', d) AS image_id, r, c,
       255.0e0 * greatest(0.0e0,
         (0.5e0 * p - 0.5e0 * q + 0.7071067811865476e0)
         / sqrt(1.0e0 + p * p + q * q)) AS shade
FROM pq
""".replace("{imgs_cte}", _IMGS_CTE.format(n=N_IMG_FOCAL).strip())

    # overview pyramid: block stats per level from the pixel formula;
    # mean mirrors the engine's int64 psum -> float64 divide exactly
    sql["pyramid"] = f"""
WITH {_IMGS_CTE.format(n=N_IMG_FOCAL).strip()},
px AS (
  SELECT d, r.range AS r, c.range AS c,
         (d * 31 + r.range * 7 + c.range * 13) % 251 AS v
  FROM imgs, range(100) r, range(100) c
),
lv AS (SELECT unnest([1, 2, 3]) AS level)
SELECT printf('img%08d', d) AS image_id,
       CAST(level AS BIGINT) AS level,
       r // (1 << level) AS by,
       c // (1 << level) AS bx,
       CAST(COUNT(*) AS BIGINT) AS n_px,
       CAST(SUM(v) AS BIGINT) AS psum,
       CAST(CAST(SUM(v) AS BIGINT) AS DOUBLE) / CAST(COUNT(*) AS BIGINT) AS mean
FROM px, lv
GROUP BY d, level, by, bx
"""

    # md5 bucket: integer value of the first 8 hex digits of
    # md5(CAST(doc_id AS VARCHAR)) mod 100 (bit-parity with
    # int(md5(str(id)).hexdigest()[:8], 16) % 100)
    _hx = lambda p: (  # noqa: E731
        f"(instr('0123456789abcdef', substr(md5(CAST(doc_id AS VARCHAR)), {p}, 1)) - 1)"
    )
    _bucket = (
        "(" + " + ".join(f"{_hx(p)} * {16 ** (8 - p)}" for p in range(1, 9)) + ") % 100"
    )
    sql["hash_split"] = f"""
SELECT doc_id,
       CAST({_bucket} AS BIGINT) AS bucket,
       CASE WHEN {_bucket} < 80 THEN 'train'
            WHEN {_bucket} < 90 THEN 'val'
            ELSE 'test' END AS split
FROM documents
"""

    # md5-derived sample key (same hex-digit rebuild as hash_split, on
    # event_id), then a plain row_number window — deterministic sample
    _ehx = lambda p: (  # noqa: E731
        f"(instr('0123456789abcdef', substr(md5(CAST(event_id AS VARCHAR)), {p}, 1)) - 1)"
    )
    _skey = "(" + " + ".join(f"{_ehx(p)} * {16 ** (8 - p)}" for p in range(1, 9)) + ")"
    sql["stratified_sample"] = f"""
WITH s AS (
  SELECT event_type, event_id, CAST({_skey} AS BIGINT) AS sample_key
  FROM events
),
r AS (
  SELECT event_type, event_id, sample_key,
         row_number() OVER (PARTITION BY event_type
                            ORDER BY sample_key ASC, event_id ASC) AS sel_rank
  FROM s
)
SELECT event_type, event_id, sample_key, sel_rank FROM r WHERE sel_rank <= 20
"""

    sql["grouped_quantiles"] = """
WITH g AS (
  SELECT event_type,
         quantile_disc(value, [0.25e0, 0.5e0, 0.75e0, 0.95e0]) AS vals,
         CAST(COUNT(*) AS BIGINT) AS n
  FROM events GROUP BY event_type
)
SELECT event_type,
       unnest([0.25e0, 0.5e0, 0.75e0, 0.95e0]) AS q,
       unnest(vals) AS value,
       CAST(ceil(unnest([0.25e0, 0.5e0, 0.75e0, 0.95e0]) * n) AS BIGINT) AS sel_rank,
       n
FROM g
"""

    sql["events_pivot"] = """
SELECT CAST((floor(epoch(ts) / 3600)) % 24 AS BIGINT) AS hour,
       CAST(SUM(CASE WHEN event_type = 'click' THEN 1 ELSE 0 END) AS BIGINT) AS "click",
       CAST(SUM(CASE WHEN event_type = 'error' THEN 1 ELSE 0 END) AS BIGINT) AS "error",
       CAST(SUM(CASE WHEN event_type = 'purchase' THEN 1 ELSE 0 END) AS BIGINT) AS "purchase",
       CAST(SUM(CASE WHEN event_type = 'signup' THEN 1 ELSE 0 END) AS BIGINT) AS "signup",
       CAST(SUM(CASE WHEN event_type = 'view' THEN 1 ELSE 0 END) AS BIGINT) AS "view"
FROM events GROUP BY 1
"""

    sql["orders_anti"] = """
SELECT o_orderkey, o_totalprice FROM orders o
WHERE NOT EXISTS (SELECT 1 FROM lineitem l WHERE l.l_orderkey = o.o_orderkey)
"""

    sql["user_running"] = """
SELECT event_id, user_id,
       CAST(row_number() OVER w AS BIGINT) AS run_n,
       CAST(SUM(CAST(floor(value * 100e0) AS BIGINT)) OVER w AS BIGINT) AS run_cents
FROM events
WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id
             ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW)
"""

    sql["events_rollup"] = """
SELECT CASE WHEN GROUPING(event_type) = 1 THEN 'ALL' ELSE event_type END
         AS event_type,
       CAST(CASE WHEN GROUPING(h) = 1 THEN -1 ELSE h END AS BIGINT) AS hour,
       CAST(COUNT(*) AS BIGINT) AS n,
       CAST(SUM(CAST(floor(value * 100e0) AS BIGINT)) AS BIGINT) AS sum_cents
FROM (SELECT event_type, (CAST(floor(epoch(ts) / 3600) AS BIGINT)) % 24 AS h,
             value
      FROM events)
GROUP BY ROLLUP (event_type, h)
"""

    sql["events_cube"] = """
SELECT CASE WHEN GROUPING(event_type) = 1 THEN 'ALL' ELSE event_type END
         AS event_type,
       CAST(CASE WHEN GROUPING(h) = 1 THEN -1 ELSE h END AS BIGINT) AS hour,
       CAST(COUNT(*) AS BIGINT) AS n,
       CAST(SUM(CAST(floor(value * 100e0) AS BIGINT)) AS BIGINT) AS sum_cents
FROM (SELECT event_type, (CAST(floor(epoch(ts) / 3600) AS BIGINT)) % 24 AS h,
             value
      FROM events)
GROUP BY CUBE (event_type, h)
"""

    sql["props_stats"] = """
SELECT event_type,
       CAST(COUNT(*) AS BIGINT) AS n,
       CAST(SUM(CAST(json_extract(props, '$.k') AS BIGINT)) AS BIGINT) AS sum_k,
       CAST(MIN(CAST(json_extract(props, '$.k') AS BIGINT)) AS BIGINT) AS min_k,
       CAST(MAX(CAST(json_extract(props, '$.k') AS BIGINT)) AS BIGINT) AS max_k
FROM events GROUP BY event_type
"""

    sql["augment"] = f"""
WITH {{imgs}}
SELECT printf('img%08d', d) AS image_id,
       r.range AS r, c.range AS c,
       CAST((d * 31 + (99 - r.range) * 7 + (99 - c.range) * 13) % 251 AS BIGINT)
         AS value
FROM imgs, range(0, 100, 7) r, range(0, 100, 7) c
""".format(imgs=_IMGS_CTE.format(n=N_IMG_FOCAL).strip())

    sql["normalize"] = """
SELECT doc_id,
       CAST(LENGTH(trim(regexp_replace(lower(text), '\\s+', ' ', 'g')))
            AS BIGINT) AS norm_len,
       md5(trim(regexp_replace(lower(text), '\\s+', ' ', 'g'))) AS norm_key
FROM documents
"""

    sql["curation"] = r"""
WITH nt AS (
  SELECT doc_id, text,
         trim(regexp_replace(lower(text), '\s+', ' ', 'g')) AS n_text
  FROM documents
),
d AS (
  SELECT doc_id, text, CAST(LENGTH(n_text) AS BIGINT) AS norm_len,
         row_number() OVER (PARTITION BY md5(n_text) ORDER BY doc_id) AS rn
  FROM nt
),
kept AS (SELECT doc_id, text, norm_len FROM d WHERE rn = 1),
st AS (
  SELECT doc_id, norm_len,
         CAST(len(regexp_extract_all(text, '\S+')) AS BIGINT) AS n_tok,
         CAST(length(text) AS BIGINT) AS n_chars,
         CAST(len(list_filter(regexp_extract_all(text, '\S+'),
              w -> list_contains(['the','and','of','a','to','in','is','it','that','for'],
                                 lower(w)))) AS BIGINT) AS n_stop
  FROM kept
),
r AS (
  SELECT doc_id, norm_len, n_tok,
         CASE WHEN n_tok > 0
              THEN CAST(n_chars - greatest(n_tok - 1, 0) AS DOUBLE)
                     / CAST(greatest(n_tok, 1) AS DOUBLE)
              ELSE 0.0e0 END AS mean_len,
         CASE WHEN n_tok > 0
              THEN CAST(n_stop AS DOUBLE) / CAST(greatest(n_tok, 1) AS DOUBLE)
              ELSE 0.0e0 END AS stop_ratio
  FROM st
),
q AS (
  SELECT doc_id, norm_len,
         0.4e0 * (CASE WHEN n_tok >= 10 AND n_tok <= 100000 THEN 1.0e0 ELSE 0.0e0 END)
       + 0.3e0 * (CASE WHEN mean_len >= 2.0e0 AND mean_len <= 12.0e0 THEN 1.0e0 ELSE 0.0e0 END)
       + 0.3e0 * (CASE WHEN stop_ratio >= 0.01e0 THEN 1.0e0 ELSE 0.0e0 END) AS quality
  FROM r
),
f AS (SELECT doc_id, norm_len FROM q WHERE quality >= 0.65e0),
sp AS (
  SELECT norm_len,
         CASE WHEN {bucket} < 80 THEN 'train'
              WHEN {bucket} < 90 THEN 'val'
              ELSE 'test' END AS split
  FROM f
)
SELECT split, CAST(COUNT(*) AS BIGINT) AS n_docs,
       CAST(SUM(norm_len) AS BIGINT) AS sum_len
FROM sp GROUP BY split
""".replace("{bucket}", _bucket)

    sql["distinct_users"] = """
SELECT event_type, CAST(COUNT(DISTINCT user_id) AS BIGINT) AS n_distinct
FROM events GROUP BY event_type
"""

    sql["events_sliding"] = """
WITH e AS (
  SELECT event_type, CAST(floor(epoch(ts) / 900) AS BIGINT) AS base, value
  FROM events
)
SELECT event_type,
       (base - j.range) * 900 AS window_start,
       CAST(COUNT(*) AS BIGINT) AS n,
       MIN(value) AS min_value,
       MAX(value) AS max_value
FROM e, range(4) j
GROUP BY event_type, (base - j.range) * 900
"""

    sql["token_pack"] = r"""
WITH tok AS (
  SELECT doc_id,
         CAST(len(regexp_extract_all(text, '\S+')) AS BIGINT) AS n_tokens
  FROM documents
),
o AS (
  SELECT doc_id, n_tokens,
         COALESCE(SUM(n_tokens) OVER (ORDER BY doc_id
             ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0) AS token_offset
  FROM tok
)
SELECT doc_id, n_tokens, CAST(token_offset AS BIGINT) AS token_offset,
       CAST(token_offset // 256 AS BIGINT) AS seq_id
FROM o
"""

    sql["setjoin"] = r"""
WITH d AS (SELECT doc_id, text FROM documents WHERE doc_id < 64),
tok AS (SELECT DISTINCT doc_id, unnest(regexp_extract_all(text, '\S+')) AS w
        FROM d),
sz AS (SELECT doc_id, CAST(COUNT(*) AS BIGINT) AS c FROM tok GROUP BY doc_id),
ix AS (SELECT ta.doc_id AS a, tb.doc_id AS b, CAST(COUNT(*) AS BIGINT) AS i
       FROM tok ta JOIN tok tb ON ta.w = tb.w AND ta.doc_id < tb.doc_id
       GROUP BY 1, 2)
SELECT ix.a, ix.b,
       CAST(ix.i AS DOUBLE) / CAST(ca.c + cb.c - ix.i AS DOUBLE) AS jaccard
FROM ix JOIN sz ca ON ca.doc_id = ix.a JOIN sz cb ON cb.doc_id = ix.b
WHERE CAST(ix.i AS DOUBLE) / CAST(ca.c + cb.c - ix.i AS DOUBLE) >= 0.8e0
"""

    _cuts16 = ", ".join(f"{i / 16!r}e0" for i in range(1, 16))
    sql["range_partition"] = f"""
WITH bl AS (SELECT quantile_disc(l_extendedprice, [{_cuts16}]) AS cuts
            FROM lineitem)
SELECT CAST(len(list_filter(bl.cuts, c -> c < l.l_extendedprice)) AS BIGINT)
           AS bucket,
       CAST(COUNT(*) AS BIGINT) AS n,
       CAST(SUM(CAST(floor(l.l_extendedprice * 100) AS BIGINT)) AS BIGINT)
           AS sum_cents,
       MIN(l.l_extendedprice) AS vmin,
       MAX(l.l_extendedprice) AS vmax
FROM lineitem l, bl
GROUP BY 1
"""

    sql["winsorize"] = """
WITH b AS (SELECT quantile_disc(value, [0.05e0, 0.95e0]) AS c FROM events)
SELECT event_type,
       CAST(COUNT(*) AS BIGINT) AS n,
       CAST(SUM(CASE WHEN value < b.c[1] THEN 1 ELSE 0 END) AS BIGINT) AS n_lo,
       CAST(SUM(CASE WHEN value > b.c[2] THEN 1 ELSE 0 END) AS BIGINT) AS n_hi,
       CAST(SUM(CAST(floor(least(greatest(value, b.c[1]), b.c[2]) * 100)
                AS BIGINT)) AS BIGINT) AS sum_clipped_cents
FROM events, b
GROUP BY event_type
"""

    sql["bigram_coverage"] = r"""
WITH l AS (SELECT doc_id, regexp_extract_all(text, '\S+') AS ws FROM documents),
b AS (SELECT doc_id,
             unnest(list_transform(range(1, len(ws)),
                                   i -> ws[i] || chr(32) || ws[i + 1])) AS bg
      FROM l),
cnt AS (SELECT bg, COUNT(*) AS n FROM b GROUP BY bg),
top AS (SELECT bg FROM cnt ORDER BY n DESC, bg ASC LIMIT 200),
kc AS (SELECT b.doc_id, CAST(COUNT(*) AS BIGINT) AS c
       FROM b JOIN top ON top.bg = b.bg GROUP BY b.doc_id)
SELECT l.doc_id,
       CAST(greatest(len(l.ws) - 1, 0) AS BIGINT) AS n_bigrams,
       COALESCE(kc.c, 0) AS n_known
FROM l LEFT JOIN kc ON kc.doc_id = l.doc_id
"""

    # decontaminate: 5-grams via list_transform; benchmark = doc_id%37=0
    sql["decontaminate"] = r"""
WITH l AS (SELECT doc_id, regexp_extract_all(text, '\S+') AS ws FROM documents),
g AS (SELECT doc_id,
             unnest(list_transform(range(1, len(ws) - 3),
                    i -> ws[i] || chr(32) || ws[i + 1] || chr(32) || ws[i + 2]
                         || chr(32) || ws[i + 3] || chr(32) || ws[i + 4])) AS gm
      FROM l),
bench AS (SELECT DISTINCT gm FROM g WHERE doc_id % 37 = 0),
hits AS (SELECT g.doc_id, COUNT(*) AS h, COUNT(DISTINCT g.gm) AS dh
         FROM g JOIN bench ON bench.gm = g.gm
         WHERE g.doc_id % 37 <> 0 GROUP BY g.doc_id)
SELECT l.doc_id,
       CAST(greatest(len(ws) - 4, 0) AS BIGINT) AS n_grams,
       CAST(COALESCE(hits.h, 0) AS BIGINT) AS n_hits,
       CAST(COALESCE(hits.dh, 0) AS BIGINT) AS n_distinct_hits
FROM l LEFT JOIN hits USING (doc_id)
WHERE l.doc_id % 37 <> 0
"""

    sql["funnel"] = """
WITH v AS (SELECT user_id, MIN(ts) AS t FROM events
           WHERE event_type = 'view' GROUP BY 1),
c AS (SELECT e.user_id, MIN(e.ts) AS t FROM events e
      JOIN v ON v.user_id = e.user_id AND e.ts > v.t
      WHERE e.event_type = 'click' GROUP BY 1),
p AS (SELECT e.user_id, MIN(e.ts) AS t FROM events e
      JOIN c ON c.user_id = e.user_id AND e.ts > c.t
      WHERE e.event_type = 'purchase' GROUP BY 1)
SELECT u.user_id,
       CAST(CASE WHEN p.user_id IS NOT NULL THEN 3
                 WHEN c.user_id IS NOT NULL THEN 2
                 WHEN v.user_id IS NOT NULL THEN 1
                 ELSE 0 END AS BIGINT) AS depth
FROM (SELECT DISTINCT user_id FROM events) u
LEFT JOIN v ON v.user_id = u.user_id
LEFT JOIN c ON c.user_id = u.user_id
LEFT JOIN p ON p.user_id = u.user_id
"""

    sql["weighted_sample"] = """
WITH w AS (
  SELECT o_orderkey, CAST(floor(o_totalprice * 100) AS BIGINT) AS wc
  FROM orders
),
c AS (
  SELECT o_orderkey, wc,
         COALESCE(SUM(wc) OVER (ORDER BY o_orderkey
             ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0) AS c0
  FROM w
),
tot AS (SELECT CAST(SUM(wc) AS BIGINT) AS W FROM w),
pts AS (SELECT ((2 * j.range + 1) * tot.W) // 64 AS p FROM range(32) j, tot)
SELECT c.o_orderkey, c.wc AS w_cents, CAST(COUNT(*) AS BIGINT) AS n_hits
FROM c JOIN pts ON pts.p >= c.c0 AND pts.p < c.c0 + c.wc
GROUP BY 1, 2
"""

    sql["forward_fill"] = """
SELECT event_id,
       COALESCE(LAST_VALUE(CASE WHEN event_type = 'click' THEN value END
                           IGNORE NULLS)
                OVER (ORDER BY event_id
                      ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW),
                -1.0e0) AS last_click_value
FROM events
"""

    return sql
