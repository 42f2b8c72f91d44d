"""Compositing — merge (mean-of-valid) and mosaic (first-valid-wins).

Reference semantics (SURVEY.md §2.5):
- float merge: per-cell mean of valid contributions via running
  (sum, count) composites (raster.py:804-814);
- int merge: last-valid-wins overlay (raster.py:816-820);
- mosaic: FIRST-valid-wins in an explicit precedence order
  (mosaic.py:53-64) — Ray Data execution order is nondeterministic, so
  precedence is an explicit ``order`` column, never arrival order.

Ray Data shapes:
- ``partial_lattice_sums`` + ``merge_mean_lattice``: the scalar two-phase
  aggregation — per-batch partial (sum, count) per global-lattice pixel
  (combiner), then one hash exchange (``util.exchange``) whose partitions
  combine vectorized — the canonical partial+final pattern that keeps
  the all-to-all exchange to unique keys instead of raw pixels. The
  first- and best-valid mosaics share this shape. Sums stay int64-exact
  so results are order-independent (float summation order varies
  across parallel runs).
- ``composite_cells``: raster-out composite: tiles grouped by cell_key,
  per-group numpy accumulation onto the cell's lattice grid, with optional
  SALTING for hot cells (two-phase groupby: (cell_key, salt) partial ->
  cell_key final), per the north rule's skew handling.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np
import pyarrow as pa

from .. import codec
from ..grids import GridSpec, cellkey
from ..util import exchange

LATTICE_PARTIAL_SCHEMA = pa.schema(
    [
        ("gx", pa.int64()),
        ("gy", pa.int64()),
        ("psum", pa.int64()),
        ("pcnt", pa.int64()),
    ]
)


def lattice_indices(grid: GridSpec, cell_size: float) -> tuple:
    """Integer global-lattice indices of a grid's pixel centers.

    The global lattice has origin (-180, 90) and square cells of
    ``cell_size`` degrees; gx increases east, gy increases south. For
    lattice-aligned grids this is exact (origins snap by rint)."""
    gx0 = int(np.rint((grid.x_origin + 180.0) / cell_size))
    gy0 = int(np.rint((90.0 - grid.y_origin) / cell_size))
    # downstream packs the key as (gy << 32) | gx, which is only bijective
    # for non-negative indices < 2^32 — guard grids west of -180 / north
    # of 90 (e.g. un-normalized antimeridian shifts) instead of silently
    # corrupting lattice keys
    if gx0 < 0 or gy0 < 0 or gx0 + grid.cols > (1 << 32) or gy0 + grid.rows > (1 << 32):
        raise ValueError(
            f"grid origin ({grid.x_origin}, {grid.y_origin}) falls outside the "
            f"global lattice at cell_size={cell_size}; normalize the grid "
            "(wrap longitudes into [-180, 180)) before compositing"
        )
    gx = gx0 + np.arange(grid.cols, dtype=np.int64)
    gy = gy0 + np.arange(grid.rows, dtype=np.int64)
    return gx, gy


def partial_lattice_sums(batch: pa.Table, cell_size: float) -> pa.Table:
    """Per-batch combiner: decode each image, accumulate integer
    (sum, count) per global-lattice pixel across the whole batch."""
    acc: Dict[int, np.ndarray] = {}
    sums: Dict = {}
    grids = batch.column("grid").to_pylist()
    fmts = batch.column("fmt").to_pylist()
    blobs = codec.BlobReader(batch.column("bytes"))  # zero-copy views

    keys_parts = []
    vals_parts = []
    for i in range(batch.num_rows):
        grid = GridSpec.from_dict(grids[i])
        arr = codec.decode(blobs[i], fmts[i]).astype(np.float64)
        if arr.ndim != 2:
            raise ValueError(
                "lattice merge combiners are per-band: route band stacks "
                "through composite_cells or split bands first"
            )
        gx, gy = lattice_indices(grid, cell_size)
        gxm, gym = np.meshgrid(gx, gy)
        valid = np.isfinite(arr)
        # single int64 key: gy * 2^32 + gx (lattice indices are < 2^26)
        key = (gym.astype(np.int64) << 32) | gxm.astype(np.int64)
        keys_parts.append(key[valid].ravel())
        vals_parts.append(np.rint(arr[valid]).astype(np.int64).ravel())
    if not keys_parts:
        return LATTICE_PARTIAL_SCHEMA.empty_table()
    keys = np.concatenate(keys_parts)
    vals = np.concatenate(vals_parts)
    uniq, inv = np.unique(keys, return_inverse=True)
    psum = np.zeros(uniq.size, dtype=np.int64)
    pcnt = np.zeros(uniq.size, dtype=np.int64)
    np.add.at(psum, inv, vals)
    np.add.at(pcnt, inv, 1)
    return pa.table(
        {
            "gx": pa.array(uniq & 0xFFFFFFFF, pa.int64()),
            "gy": pa.array(uniq >> 32, pa.int64()),
            "psum": pa.array(psum, pa.int64()),
            "pcnt": pa.array(pcnt, pa.int64()),
        }
    )


def merge_mean_lattice(images_ds, cell_size: float, batch_size: int = 32):
    """Two-phase merge: map_batches partial (combiner) -> one hash
    exchange on (gx, gy) (``util.exchange``) -> vectorized final combine.
    Returns Dataset[(gx, gy, sum_value, n_value)] with exact int64 sums;
    mean = sum/n downstream (kept integral for order-independence).

    The final combine runs once per exchange PARTITION, not per key:
    Ray's groupby().aggregate() walks groups in Python, which at lattice
    cardinality (one group per pixel) costs ~200 us/group; one np.unique
    + np.add.at per partition combines the same rows at memory
    bandwidth."""
    partials = images_ds.map_batches(
        lambda t: partial_lattice_sums(t, cell_size),
        batch_format="pyarrow",
        batch_size=batch_size,
    )

    def combine(group: pa.Table) -> pa.Table:
        gx = group.column("gx").to_numpy()
        gy = group.column("gy").to_numpy()
        key = (gy << 32) | gx
        uniq, inv = np.unique(key, return_inverse=True)
        s = np.zeros(uniq.size, dtype=np.int64)
        c = np.zeros(uniq.size, dtype=np.int64)
        np.add.at(s, inv, group.column("psum").to_numpy())
        np.add.at(c, inv, group.column("pcnt").to_numpy())
        return pa.table(
            {
                "gx": pa.array(uniq & 0xFFFFFFFF, pa.int64()),
                "gy": pa.array(uniq >> 32, pa.int64()),
                "sum_value": pa.array(s, pa.int64()),
                "n_value": pa.array(c, pa.int64()),
            }
        )

    out_schema = pa.schema(
        [("gx", pa.int64()), ("gy", pa.int64()),
         ("sum_value", pa.int64()), ("n_value", pa.int64())]
    )
    return exchange(partials, ["gx", "gy"], combine, out_schema)


def partial_lattice_first(batch: pa.Table, cell_size: float, order_col: str = "order") -> pa.Table:
    """Per-batch combiner for FIRST-valid-wins: per lattice pixel keep the
    packed int64 ``order << 24 | value`` minimum — min over packed == value
    of the smallest order (values must fit 24 bits; orders < 2^39).
    Order-independent and exact, so it re-merges across batches."""
    grids = batch.column("grid").to_pylist()
    fmts = batch.column("fmt").to_pylist()
    blobs = codec.BlobReader(batch.column("bytes"))  # zero-copy views
    orders = batch.column(order_col).to_pylist()
    keys_parts, packed_parts = [], []
    for i in range(batch.num_rows):
        grid = GridSpec.from_dict(grids[i])
        from .. import codec as _codec

        arr = _codec.decode(blobs[i], fmts[i]).astype(np.float64)
        if arr.ndim != 2:
            raise ValueError(
                "lattice mosaic combiner is per-band: route band stacks "
                "through composite_cells or split bands first"
            )
        gx, gy = lattice_indices(grid, cell_size)
        gxm, gym = np.meshgrid(gx, gy)
        valid = np.isfinite(arr)
        key = (gym.astype(np.int64) << 32) | gxm.astype(np.int64)
        vals = np.rint(arr[valid]).astype(np.int64)
        if vals.size and (vals.min() < 0 or vals.max() >= (1 << 24)):
            raise ValueError("first-valid packing needs values in [0, 2^24)")
        keys_parts.append(key[valid].ravel())
        packed_parts.append((np.int64(orders[i]) << 24) | vals.ravel())
    if not keys_parts:
        return pa.schema(
            [("gx", pa.int64()), ("gy", pa.int64()), ("packed", pa.int64())]
        ).empty_table()
    keys = np.concatenate(keys_parts)
    packed = np.concatenate(packed_parts)
    uniq, inv = np.unique(keys, return_inverse=True)
    best = np.full(uniq.size, np.iinfo(np.int64).max, dtype=np.int64)
    np.minimum.at(best, inv, packed)
    return pa.table(
        {
            "gx": pa.array(uniq & 0xFFFFFFFF, pa.int64()),
            "gy": pa.array(uniq >> 32, pa.int64()),
            "packed": pa.array(best, pa.int64()),
        }
    )


def mosaic_first_lattice(images_ds, cell_size: float, order_col: str = "order",
                         batch_size: int = 32):
    """Two-phase mosaic: partial packed-min per batch -> one hash exchange
    on (gx, gy) -> vectorized min combine per partition -> unpack value.
    Returns Dataset[(gx, gy, value)] (int64). (Same partition-wise final
    as merge_mean_lattice — per-pixel groupby().aggregate() is
    Python-loop bound.)"""
    partials = images_ds.map_batches(
        lambda t: partial_lattice_first(t, cell_size, order_col),
        batch_format="pyarrow",
        batch_size=batch_size,
    )

    def combine(group: pa.Table) -> pa.Table:
        gx = group.column("gx").to_numpy()
        gy = group.column("gy").to_numpy()
        key = (gy << 32) | gx
        uniq, inv = np.unique(key, return_inverse=True)
        best = np.full(uniq.size, np.iinfo(np.int64).max, dtype=np.int64)
        np.minimum.at(best, inv, group.column("packed").to_numpy())
        return pa.table(
            {
                "gx": pa.array(uniq & 0xFFFFFFFF, pa.int64()),
                "gy": pa.array(uniq >> 32, pa.int64()),
                "value": pa.array(best & 0xFFFFFF, pa.int64()),
            }
        )

    out_schema = pa.schema(
        [("gx", pa.int64()), ("gy", pa.int64()), ("value", pa.int64())]
    )
    return exchange(partials, ["gx", "gy"], combine, out_schema)


# ---------------------------------------------------------------------------
# raster-out composites over tiles, grouped by cell key
# ---------------------------------------------------------------------------

COMPOSITE_SCHEMA = pa.schema(
    [
        ("cell_key", pa.int64()),
        ("bytes", pa.binary()),
        ("fmt", pa.string()),
        ("n_images", pa.int32()),
        ("grid", pa.struct(
            [
                ("crs", pa.string()),
                ("x_origin", pa.float64()),
                ("y_origin", pa.float64()),
                ("cell_width", pa.float64()),
                ("cell_height", pa.float64()),
                ("rows", pa.int32()),
                ("cols", pa.int32()),
            ]
        )),
    ]
)


def _cell_lattice_grid(cid: int, cell_size: float) -> GridSpec:
    """Lattice-aligned grid covering one cell-key footprint."""
    xmin, ymin, xmax, ymax = cellkey.cell_bounds(int(cid))
    gx0 = int(np.floor((xmin + 180.0) / cell_size))
    gy0 = int(np.floor((90.0 - ymax) / cell_size))
    gx1 = int(np.ceil((xmax + 180.0) / cell_size))
    gy1 = int(np.ceil((90.0 - ymin) / cell_size))
    n_px = (gy1 - gy0) * (gx1 - gx0)
    if n_px > 200_000_000:
        raise ValueError(
            f"cell {cid} at cell_size={cell_size} needs {n_px} lattice pixels; "
            "composite cells must be keyed at a level fine enough to fit memory"
        )
    return GridSpec(
        crs="EPSG:4326",
        x_origin=-180.0 + gx0 * cell_size,
        y_origin=90.0 - gy0 * cell_size,
        cell_width=cell_size,
        cell_height=-cell_size,
        rows=gy1 - gy0,
        cols=gx1 - gx0,
    )


def _accumulate_group(
    group: pa.Table, cell_size: float, mode: str, order_col: Optional[str]
) -> tuple:
    """Shared accumulation: returns (cid, target_grid, sum, cnt, overlay,
    squeeze). Tiles may be 2D ``(rows, cols)`` or 3D ``(bands, rows,
    cols)`` stacks (multi_raster.py:21-105); band counts must agree within
    a cell. Accumulators are (bands, rows, cols); ``squeeze`` says the
    inputs were 2D so the composite should stay 2D."""
    cid = int(group.column("cell_key")[0].as_py())
    target = _cell_lattice_grid(cid, cell_size)
    ssum = cnt = overlay = None
    squeeze = True

    idx = np.arange(group.num_rows)
    if order_col is not None and order_col in group.column_names:
        order_vals = np.asarray(group.column(order_col).to_pylist())
        idx = idx[np.argsort(order_vals, kind="stable")]

    grids = group.column("grid").to_pylist()
    fmts = group.column("fmt").to_pylist()
    blobs = codec.BlobReader(group.column("bytes"))  # zero-copy views
    for i in idx:
        g = GridSpec.from_dict(grids[i])
        arr = codec.decode(blobs[i], fmts[i]).astype(np.float64)
        if arr.ndim == 2:
            arr = arr[None]
        else:
            squeeze = False
        if ssum is None:
            bands = arr.shape[0]
            ssum = np.zeros((bands,) + tuple(target.shape), dtype=np.float64)
            cnt = np.zeros((bands,) + tuple(target.shape), dtype=np.int64)
            overlay = np.full((bands,) + tuple(target.shape), np.nan)
        elif arr.shape[0] != ssum.shape[0]:
            raise ValueError(
                f"band-count mismatch in cell {cid}: {arr.shape[0]} vs {ssum.shape[0]}"
            )
        # offsets of this tile on the cell lattice
        c0 = int(np.rint((g.x_origin - target.x_origin) / cell_size))
        r0 = int(np.rint((target.y_origin - g.y_origin) / cell_size))
        r1 = min(r0 + g.rows, target.rows)
        c1 = min(c0 + g.cols, target.cols)
        rr0, cc0 = max(r0, 0), max(c0, 0)
        if rr0 >= r1 or cc0 >= c1:
            continue
        sub = arr[:, rr0 - r0 : r1 - r0, cc0 - c0 : c1 - c0]
        valid = np.isfinite(sub)
        tgt = (slice(None), slice(rr0, r1), slice(cc0, c1))
        ssum[tgt][valid] += sub[valid]
        cnt[tgt][valid] += 1
        if mode == "mosaic_first":
            hole = np.isnan(overlay[tgt]) & valid
            overlay[tgt][hole] = sub[hole]
        elif mode == "merge_last":
            overlay[tgt][valid] = sub[valid]
    if ssum is None:
        ssum = np.zeros((1,) + tuple(target.shape), dtype=np.float64)
        cnt = np.zeros((1,) + tuple(target.shape), dtype=np.int64)
        overlay = np.full((1,) + tuple(target.shape), np.nan)
    return cid, target, ssum, cnt, overlay, squeeze


def composite_group(
    group: pa.Table, cell_size: float, mode: str = "merge_mean", order_col: Optional[str] = None
) -> pa.Table:
    """Per-cell composite: mode in {merge_mean, merge_last, mosaic_first}."""
    cid, target, ssum, cnt, overlay, squeeze = _accumulate_group(
        group, cell_size, mode, order_col
    )
    if mode == "merge_mean":
        with np.errstate(invalid="ignore", divide="ignore"):
            out = np.where(cnt > 0, ssum / np.maximum(cnt, 1), np.nan)
    else:
        out = overlay
    if squeeze:
        out = out[0]
    return pa.Table.from_pydict(
        {
            "cell_key": pa.array([cid], pa.int64()),
            "bytes": pa.array([codec.encode(out.astype(np.float32), "npy")], pa.binary()),
            "fmt": pa.array(["npy"], pa.string()),
            "n_images": pa.array([group.num_rows], pa.int32()),
            "grid": pa.array(
                [{k: v for k, v in target.to_dict().items() if k != "type"}],
                COMPOSITE_SCHEMA.field("grid").type,
            ),
        }
    )



def _partial_group(g: pa.Table, cell_size: float) -> pa.Table:
    """(cell_key[, salt]) group -> one (sum, count) partial-array row."""
    cid, target, ssum, cnt, _, squeeze = _accumulate_group(g, cell_size, "merge_mean", None)
    if squeeze:
        ssum, cnt = ssum[0], cnt[0]
    return pa.table(
        {
            "cell_key": pa.array([cid], pa.int64()),
            "psum": pa.array([codec.encode(ssum, "npy")], pa.binary()),
            "pcnt": pa.array([codec.encode(cnt, "npy")], pa.binary()),
            "grid": pa.array(
                [{k: v for k, v in target.to_dict().items() if k != "type"}],
                COMPOSITE_SCHEMA.field("grid").type,
            ),
            "n_images": pa.array([g.num_rows], pa.int32()),
        }
    )


def _final_group(g: pa.Table, cell_size: float) -> pa.Table:
    """Merge a cell's partial (sum, count) arrays -> mean composite row."""
    cid = int(g.column("cell_key")[0].as_py())
    target = _cell_lattice_grid(cid, cell_size)
    ssum = cnt = None  # shape follows the partials (2D or banded 3D)
    n = 0
    for i in range(g.num_rows):
        ps = codec.decode(g.column("psum")[i].as_py(), "npy")
        pc_ = codec.decode(g.column("pcnt")[i].as_py(), "npy")
        if ssum is None:
            ssum = np.zeros_like(ps, dtype=np.float64)
            cnt = np.zeros_like(pc_, dtype=np.int64)
        ssum += ps
        cnt += pc_
        n += int(g.column("n_images")[i].as_py())
    if ssum is None:
        ssum = np.zeros(target.shape, dtype=np.float64)
        cnt = np.zeros(target.shape, dtype=np.int64)
    with np.errstate(invalid="ignore", divide="ignore"):
        out = np.where(cnt > 0, ssum / np.maximum(cnt, 1), np.nan)
    return pa.Table.from_pydict(
        {
            "cell_key": pa.array([cid], pa.int64()),
            "bytes": pa.array([codec.encode(out.astype(np.float32), "npy")], pa.binary()),
            "fmt": pa.array(["npy"], pa.string()),
            "n_images": pa.array([n], pa.int32()),
            "grid": pa.array(
                [{k: v for k, v in target.to_dict().items() if k != "type"}],
                COMPOSITE_SCHEMA.field("grid").type,
            ),
        }
    )


def composite_cells(
    tiles_ds,
    cell_size: float,
    mode: str = "merge_mean",
    order_col: Optional[str] = None,
    salt=0,
    hot_threshold: Optional[int] = None,
):
    """groupby(cell_key).map_groups composite with explicit skew handling.

    salt=0: one groupby (fast when no group exceeds ~10^4 tiles).
    salt=N: two-phase (cell_key, salt) -> cell_key for EVERY cell — pays a
      full-cell partial array per salt bucket, so only worth it when most
      cells are huge.
    salt="auto": SINGLE streaming pass, zero driver participation. Each
      block tags its own rows: a cell holding a large share of the block
      (see ``hot_threshold``) gets a deterministic hash salt (16 buckets),
      the cold majority gets salt 0, and everything flows through the
      two-phase (cell_key, salt) -> cell_key lattice. Block-LOCAL
      detection is sound because the skew regime this targets is
      orders-of-magnitude (a cell with 10^5+ tiles dominates every block
      it appears in — the same argument as ``skew_join``), and because
      the (sum, count) partials re-merge exactly, the salt choice can
      only affect performance, never the result. Cold cells pay one
      extra tiny (sum,count) hop; there is no count pre-pass, no
      ``materialize()``, and the upstream pipeline executes ONCE.

    Salting is only valid for modes whose partials merge associatively —
    merge_mean re-merges (sum, count) arrays exactly."""
    if salt == "auto" and mode == "merge_mean":
        from ..util import hash_u64

        thr = hot_threshold or 50_000

        def tag_salt(t: pa.Table) -> pa.Table:
            n = t.num_rows
            salts = np.zeros(n, dtype=np.int64)
            if n:
                ck = t.column("cell_key").to_numpy()
                uniq, inv, counts = np.unique(ck, return_inverse=True, return_counts=True)
                # block-local hot rule: an explicit small hot_threshold
                # (tests) applies directly; otherwise a cell is hot when
                # it holds >=12.5% of a non-trivial block — the scale-free
                # signature of orders-of-magnitude global skew
                local_thr = min(thr, max(2, n // 8))
                hot_mask = (counts >= local_thr)[inv]
                if hot_mask.any():
                    hv = (hash_u64(t.column("image_id")) % np.uint64(16)).astype(np.int64)
                    salts[hot_mask] = hv[hot_mask]
            return t.append_column("salt", pa.array(salts, pa.int64()))

        return (
            tiles_ds.map_batches(tag_salt, batch_format="pyarrow")
            .groupby(["cell_key", "salt"])
            .map_groups(lambda g: _partial_group(g, cell_size), batch_format="pyarrow")
            .groupby("cell_key")
            .map_groups(lambda g: _final_group(g, cell_size), batch_format="pyarrow")
        )

    if not isinstance(salt, int) or salt <= 0 or mode != "merge_mean":
        return tiles_ds.groupby("cell_key").map_groups(
            lambda g: composite_group(g, cell_size, mode, order_col),
            batch_format="pyarrow",
        )

    # phase 1: salted partial composites emit (sum, count) arrays.
    # salt hash must be deterministic ACROSS worker processes (Python's
    # str hash is per-process salted) -> crc32.
    import zlib

    def salted(t: pa.Table) -> pa.Table:
        hv = np.array(
            [zlib.crc32(v.encode()) % salt for v in t.column("image_id").to_pylist()],
            dtype=np.int64,
        )
        return t.append_column("salt", pa.array(hv, pa.int64()))

    return (
        tiles_ds.map_batches(salted, batch_format="pyarrow")
        .groupby(["cell_key", "salt"])
        .map_groups(lambda g: _partial_group(g, cell_size), batch_format="pyarrow")
        .groupby("cell_key")
        .map_groups(lambda g: _final_group(g, cell_size), batch_format="pyarrow")
    )


def partial_lattice_best(batch: pa.Table, cell_size: float,
                         order_col: str = "order",
                         quality_col: str = "quality") -> pa.Table:
    """Per-batch combiner for BEST-available-pixel (argmax-quality)
    compositing — the third classic EO compositing mode beside mean
    (merge) and first-valid (mosaic): per lattice pixel keep the packed
    int64 ``quality << 44 | order << 24 | value`` MAXIMUM, i.e. the value
    of the highest-quality covering scene, ties broken by the larger
    order.  Same order-independent re-mergeable shape as
    :func:`partial_lattice_first` (values < 2^24, orders < 2^20,
    qualities < 2^19)."""
    grids = batch.column("grid").to_pylist()
    fmts = batch.column("fmt").to_pylist()
    blobs = codec.BlobReader(batch.column("bytes"))
    orders = batch.column(order_col).to_pylist()
    quals = batch.column(quality_col).to_pylist()
    keys_parts, packed_parts = [], []
    for i in range(batch.num_rows):
        grid = GridSpec.from_dict(grids[i])
        arr = codec.decode(blobs[i], fmts[i]).astype(np.float64)
        if arr.ndim != 2:
            raise ValueError("best-pixel combiner is per-band")
        q, o = int(quals[i]), int(orders[i])
        if not (0 <= q < (1 << 19) and 0 <= o < (1 << 20)):
            raise ValueError("quality must fit 19 bits, order 20 bits")
        gx, gy = lattice_indices(grid, cell_size)
        gxm, gym = np.meshgrid(gx, gy)
        valid = np.isfinite(arr)
        key = (gym.astype(np.int64) << 32) | gxm.astype(np.int64)
        vals = np.rint(arr[valid]).astype(np.int64)
        if vals.size and (vals.min() < 0 or vals.max() >= (1 << 24)):
            raise ValueError("best-pixel packing needs values in [0, 2^24)")
        keys_parts.append(key[valid].ravel())
        packed_parts.append(
            (np.int64(q) << 44) | (np.int64(o) << 24) | vals.ravel()
        )
    if not keys_parts:
        return pa.schema(
            [("gx", pa.int64()), ("gy", pa.int64()), ("packed", pa.int64())]
        ).empty_table()
    keys = np.concatenate(keys_parts)
    packed = np.concatenate(packed_parts)
    uniq, inv = np.unique(keys, return_inverse=True)
    best = np.full(uniq.size, -1, dtype=np.int64)
    np.maximum.at(best, inv, packed)
    return pa.table(
        {
            "gx": pa.array(uniq & 0xFFFFFFFF, pa.int64()),
            "gy": pa.array(uniq >> 32, pa.int64()),
            "packed": pa.array(best, pa.int64()),
        }
    )


def mosaic_best_lattice(images_ds, cell_size: float, order_col: str = "order",
                        quality_col: str = "quality",
                        batch_size: int = 32):
    """Two-phase argmax-quality composite -> Dataset[(gx, gy, value,
    win_order)] — partial packed-max per batch, one hash exchange on
    (gx, gy), vectorized max combine per partition, unpack."""
    partials = images_ds.map_batches(
        lambda t: partial_lattice_best(t, cell_size, order_col, quality_col),
        batch_format="pyarrow",
        batch_size=batch_size,
    )

    def combine(group: pa.Table) -> pa.Table:
        gx = group.column("gx").to_numpy()
        gy = group.column("gy").to_numpy()
        key = (gy << 32) | gx
        uniq, inv = np.unique(key, return_inverse=True)
        best = np.full(uniq.size, -1, dtype=np.int64)
        np.maximum.at(best, inv, group.column("packed").to_numpy())
        return pa.table(
            {
                "gx": pa.array(uniq & 0xFFFFFFFF, pa.int64()),
                "gy": pa.array(uniq >> 32, pa.int64()),
                "value": pa.array(best & 0xFFFFFF, pa.int64()),
                "win_order": pa.array((best >> 24) & 0xFFFFF, pa.int64()),
            }
        )

    out_schema = pa.schema(
        [("gx", pa.int64()), ("gy", pa.int64()),
         ("value", pa.int64()), ("win_order", pa.int64())]
    )
    return exchange(partials, ["gx", "gy"], combine, out_schema)
