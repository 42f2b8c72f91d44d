"""Compositing — merge (mean-of-valid) and mosaic (first-valid-wins).

Reference semantics (SURVEY.md §2.5):
- float merge: per-cell mean of valid contributions via running
  (sum, count) composites (raster.py:804-814);
- int merge: last-valid-wins overlay (raster.py:816-820);
- mosaic: FIRST-valid-wins in an explicit precedence order
  (mosaic.py:53-64) — Ray Data execution order is nondeterministic, so
  precedence is an explicit ``order`` column, never arrival order.

Ray Data shapes, each one hash exchange (``util.exchange``):
- ``merge_mean_lattice``, ``mosaic_first_lattice``, ``mosaic_best_lattice``:
  per-pixel composites on the global lattice.  One kernel decodes a batch
  into (lattice key, int value) pairs of its valid pixels and reduces
  them with ``np.unique`` + ``ufunc.at`` (``add`` for (sum, count),
  ``minimum`` for packed first, ``maximum`` for packed best); the same
  reduction runs per batch, before the exchange, and per partition after
  it, so only unique keys cross the exchange.  Values stay int64-exact,
  so results are order-independent (float summation order varies across
  parallel runs).
- ``composite_cells``: raster-out composite of tiles by ``cell_key``.
  Each partition sorts its rows by cell and composites each cell onto the
  cell's lattice grid.  Skew (the north rule) is handled in the same pass
  by a map-side pre-combine: in each tile block, the ``merge_mean`` tiles
  of a cell holding at least ``max(2, n // 8)`` of the block's ``n`` rows
  become one (sum, count) row over the window they cover, so a hot
  cell's final group holds at most one such row per block.  Cold tiles
  cross the exchange raw: pre-combining every cell into dense partials
  would move more bytes than the tiles themselves.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
import pyarrow as pa

from .. import codec
from ..grids import GridSpec, cellkey
from ..util import exchange


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


# ---------------------------------------------------------------------------
# per-pixel composites on the global lattice
# ---------------------------------------------------------------------------


def _lattice_pixels(batch: pa.Table, cell_size: float, max_value: Optional[int]) -> tuple:
    """Decode a batch into ``(key, value, image)`` arrays over its valid
    pixels: the lattice key ``gy << 32 | gx``, the pixel value rounded to
    int64 and the batch row of its image.  ``max_value`` (or None) bounds
    the values a packed reduction can hold."""
    grids = batch.column("grid").to_pylist()
    fmts = batch.column("fmt").to_pylist()
    blobs = codec.BlobReader(batch.column("bytes"))  # zero-copy views
    keys, vals, rows = [], [], []
    for i in range(batch.num_rows):
        arr = codec.decode(blobs[i], fmts[i]).astype(np.float64)
        if arr.ndim != 2:
            raise ValueError(
                "lattice combiners are per-band: route band stacks "
                "through composite_cells or split bands first"
            )
        gx, gy = lattice_indices(GridSpec.from_dict(grids[i]), cell_size)
        valid = np.isfinite(arr)
        keys.append(((gy[:, None] << 32) | gx[None, :])[valid])
        vals.append(np.rint(arr[valid]).astype(np.int64))
        rows.append(np.full(vals[-1].size, i, dtype=np.int64))
    if not keys:
        return (np.empty(0, np.int64),) * 3
    key, val, row = (np.concatenate(p) for p in (keys, vals, rows))
    if max_value is not None and val.size and (val.min() < 0 or val.max() >= max_value):
        raise ValueError(f"packed lattice composites need values in [0, {max_value})")
    return key, val, row


def _reduce(key: np.ndarray, values: list, ufunc, identity: int) -> tuple:
    """``ufunc``-reduce each of ``values`` by ``key``: (unique keys, [acc])."""
    uniq, inv = np.unique(key, return_inverse=True)
    accs = []
    for v in values:
        acc = np.full(uniq.size, identity, dtype=np.int64)
        ufunc.at(acc, inv, v)
        accs.append(acc)
    return uniq, accs


def _lattice_composite(images_ds, batch_size: int, pixels, ufunc, identity: int, finish,
                       out_schema: pa.Schema):
    """Per-batch partial -> one hash exchange on the lattice key -> the same
    reduction per partition -> gx, gy and the ``finish(accs)`` columns.

    The final combine runs once per exchange PARTITION, not per key:
    Ray's groupby().aggregate() walks groups in Python, which at lattice
    cardinality (one group per pixel) costs ~200 us/group."""

    def partial(batch: pa.Table) -> pa.Table:
        key, values = pixels(batch)
        uniq, accs = _reduce(key, values, ufunc, identity)
        return pa.table([uniq] + accs, names=["key"] + [f"v{j}" for j in range(len(accs))])

    def combine(part: pa.Table) -> pa.Table:
        cols = [part.column(c).to_numpy() for c in part.column_names[1:]]
        uniq, accs = _reduce(part.column("key").to_numpy(), cols, ufunc, identity)
        cols = {"gx": uniq & 0xFFFFFFFF, "gy": uniq >> 32, **finish(accs)}
        return pa.table({f.name: pa.array(cols[f.name], f.type) for f in out_schema})

    partials = images_ds.map_batches(partial, batch_format="pyarrow", batch_size=batch_size)
    return exchange(partials, ["key"], combine, out_schema)


def _int64_schema(*names) -> pa.Schema:
    return pa.schema([(n, pa.int64()) for n in ("gx", "gy") + names])


def merge_mean_lattice(images_ds, cell_size: float, batch_size: int = 32):
    """Exact two-phase merge -> Dataset[(gx, gy, sum_value, n_value)]:
    int64 (sum, count) of the valid pixels per lattice pixel; mean =
    sum/n downstream (kept integral for order-independence)."""

    def pixels(batch):
        key, val, _ = _lattice_pixels(batch, cell_size, None)
        return key, [val, np.ones_like(val)]

    return _lattice_composite(
        images_ds, batch_size, pixels, np.add, 0,
        lambda a: {"sum_value": a[0], "n_value": a[1]},
        _int64_schema("sum_value", "n_value"),
    )


def mosaic_first_lattice(images_ds, cell_size: float, order_col: str = "order",
                         batch_size: int = 32):
    """FIRST-valid-wins mosaic -> Dataset[(gx, gy, value)] (int64).  Per
    lattice pixel the minimum of the packed ``order << 24 | value`` is the
    value of the smallest order (values must fit 24 bits; orders < 2^39),
    exact and order-independent."""

    def pixels(batch):
        key, val, row = _lattice_pixels(batch, cell_size, 1 << 24)
        order = batch.column(order_col).to_numpy(zero_copy_only=False).astype(np.int64)
        return key, [(order[row] << 24) | val]

    return _lattice_composite(
        images_ds, batch_size, pixels, np.minimum, np.iinfo(np.int64).max,
        lambda a: {"value": a[0] & 0xFFFFFF},
        _int64_schema("value"),
    )


def mosaic_best_lattice(images_ds, cell_size: float, order_col: str = "order",
                        quality_col: str = "quality",
                        batch_size: int = 32):
    """BEST-available-pixel (argmax-quality) composite -> Dataset[(gx, gy,
    value, win_order)] — the third classic EO compositing mode beside mean
    (merge) and first-valid (mosaic).  Per lattice pixel the maximum of the
    packed ``quality << 44 | order << 24 | value`` is the value of the
    highest-quality covering scene, ties broken by the larger order
    (values < 2^24, orders < 2^20, qualities < 2^19)."""

    def pixels(batch):
        quality = batch.column(quality_col).to_numpy(zero_copy_only=False).astype(np.int64)
        order = batch.column(order_col).to_numpy(zero_copy_only=False).astype(np.int64)
        if ((quality < 0) | (quality >= 1 << 19) | (order < 0) | (order >= 1 << 20)).any():
            raise ValueError("quality must fit 19 bits, order 20 bits")
        key, val, row = _lattice_pixels(batch, cell_size, 1 << 24)
        return key, [(quality[row] << 44) | (order[row] << 24) | val]

    return _lattice_composite(
        images_ds, batch_size, pixels, np.maximum, -1,
        lambda a: {"value": a[0] & 0xFFFFFF, "win_order": (a[0] >> 24) & 0xFFFFF},
        _int64_schema("value", "win_order"),
    )


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

# ``fmt`` of a pre-combined row: its ``bytes`` are an npy float64 stack
# of (sum, count) over the row's ``grid``, and its ``n_images`` counts
# the tiles folded into it.
SUM_COUNT_FMT = "npy-sum-count"


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


def _offset(g: GridSpec, target: GridSpec, cell_size: float) -> tuple:
    """(row, col) of ``g``'s top-left pixel on ``target``'s lattice."""
    return (int(np.rint((target.y_origin - g.y_origin) / cell_size)),
            int(np.rint((g.x_origin - target.x_origin) / cell_size)))


def _accumulate(rows: pa.Table, target: GridSpec, cell_size: float, mode: str,
                order_col: Optional[str]) -> tuple:
    """Composite ``rows`` onto ``target``: returns (sum, count, overlay,
    squeeze).  A tile row adds (value, isfinite) per pixel; a
    ``SUM_COUNT_FMT`` row adds its (sum, count).  Tiles may be 2D ``(rows,
    cols)`` or 3D ``(bands, rows, cols)`` stacks (multi_raster.py:21-105);
    band counts must agree.  Accumulators are (bands, rows, cols);
    ``squeeze`` says the inputs were 2D so the composite should stay 2D."""
    ssum = cnt = overlay = None
    squeeze = True

    idx = np.arange(rows.num_rows)
    if order_col is not None and order_col in rows.column_names:
        order_vals = np.asarray(rows.column(order_col).to_pylist())
        idx = idx[np.argsort(order_vals, kind="stable")]

    grids = rows.column("grid").to_pylist()
    fmts = rows.column("fmt").to_pylist()
    blobs = codec.BlobReader(rows.column("bytes"))  # zero-copy views
    for i in idx:
        g = GridSpec.from_dict(grids[i])
        summed = fmts[i] == SUM_COUNT_FMT
        arr = codec.decode(blobs[i], "npy" if summed else fmts[i]).astype(np.float64)
        if arr.ndim == 2 + summed:
            arr = arr[:, None] if summed else arr[None]
        else:
            squeeze = False
        bands = arr.shape[-3]
        if ssum is None:
            ssum = np.zeros((bands,) + tuple(target.shape), dtype=np.float64)
            cnt = np.zeros((bands,) + tuple(target.shape), dtype=np.int64)
            overlay = np.full((bands,) + tuple(target.shape), np.nan)
        elif bands != ssum.shape[0]:
            raise ValueError(f"band-count mismatch: {bands} vs {ssum.shape[0]}")
        r0, c0 = _offset(g, target, cell_size)
        r1 = min(r0 + g.rows, target.rows)
        c1 = min(c0 + g.cols, target.cols)
        rr0, cc0 = max(r0, 0), max(c0, 0)
        if rr0 >= r1 or cc0 >= c1:
            continue
        sub = arr[..., rr0 - r0 : r1 - r0, cc0 - c0 : c1 - c0]
        tgt = (slice(None), slice(rr0, r1), slice(cc0, c1))
        if summed:
            ssum[tgt] += sub[0]
            cnt[tgt] += sub[1].astype(np.int64)
            continue
        valid = np.isfinite(sub)
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
    return ssum, cnt, overlay, squeeze


def composite_group(
    group: pa.Table, cell_size: float, mode: str = "merge_mean", order_col: Optional[str] = None
) -> pa.Table:
    """Per-cell composite: mode in {merge_mean, merge_last, mosaic_first}."""
    cid = int(group.column("cell_key")[0].as_py())
    target = _cell_lattice_grid(cid, cell_size)
    ssum, cnt, overlay, squeeze = _accumulate(group, target, cell_size, mode, order_col)
    if mode == "merge_mean":
        with np.errstate(invalid="ignore", divide="ignore"):
            out = np.where(cnt > 0, ssum / np.maximum(cnt, 1), np.nan)
    else:
        out = overlay
    if squeeze:
        out = out[0]
    # a pre-combined row counts the tiles folded into it
    n_images = (int(group.column("n_images").to_numpy().sum())
                if "n_images" in group.column_names else group.num_rows)
    return pa.Table.from_pydict(
        {
            "cell_key": pa.array([cid], pa.int64()),
            "bytes": pa.array([codec.encode(out.astype(np.float32), "npy")], pa.binary()),
            "fmt": pa.array(["npy"], pa.string()),
            "n_images": pa.array([n_images], pa.int32()),
            "grid": pa.array(
                [{k: v for k, v in target.to_dict().items() if k != "type"}],
                COMPOSITE_SCHEMA.field("grid").type,
            ),
        }
    )


def _cell_groups(t: pa.Table):
    """Slices of ``t`` sorted by cell_key, one per cell."""
    t = t.sort_by("cell_key")
    ck = t.column("cell_key").to_numpy()
    cuts = np.flatnonzero(np.r_[True, ck[1:] != ck[:-1], True])
    return [t.slice(int(a), int(b - a)) for a, b in zip(cuts[:-1], cuts[1:])]


def precombine_block(t: pa.Table, cell_size: float) -> pa.Table:
    """Map-side skew step of a ``merge_mean`` composite: the tiles of each
    cell holding at least ``max(2, n // 8)`` of the block's ``n`` rows
    become one ``SUM_COUNT_FMT`` row over the lattice window they cover;
    the other tiles pass through.  Keeps the columns the exchange needs."""
    out = t.select(["cell_key", "bytes", "fmt", "grid"]).append_column(
        "n_images", pa.array(np.ones(t.num_rows, np.int32)))
    _, inv, counts = np.unique(out.column("cell_key").to_numpy(), return_inverse=True,
                               return_counts=True)
    hot = (counts >= max(2, t.num_rows // 8))[inv]
    if not hot.any():
        return out
    rows = [out.filter(pa.array(~hot))]
    for g in _cell_groups(out.filter(pa.array(hot))):
        cid = g.column("cell_key")[0].as_py()
        target = _cell_lattice_grid(cid, cell_size)
        spans = []
        for d in g.column("grid").to_pylist():
            tile = GridSpec.from_dict(d)
            r0, c0 = _offset(tile, target, cell_size)
            spans.append((r0, c0, r0 + tile.rows, c0 + tile.cols))
        r0, c0 = np.min(spans, axis=0)[:2]
        r1, c1 = np.max(spans, axis=0)[2:]
        window = GridSpec(crs="EPSG:4326", x_origin=target.x_origin + c0 * cell_size,
                          y_origin=target.y_origin - r0 * cell_size, cell_width=cell_size,
                          cell_height=-cell_size, rows=int(r1 - r0), cols=int(c1 - c0))
        ssum, cnt, _, squeeze = _accumulate(g, window, cell_size, "merge_mean", None)
        stack = np.stack([ssum, cnt.astype(np.float64)])
        rows.append(pa.Table.from_pydict({
            "cell_key": [cid],
            "bytes": [codec.encode(stack[:, 0] if squeeze else stack, "npy")],
            "fmt": [SUM_COUNT_FMT],
            "grid": [{k: v for k, v in window.to_dict().items() if k != "type"}],
            "n_images": [g.num_rows],
        }, schema=out.schema))
    return pa.concat_tables(rows)


def composite_cells(
    tiles_ds,
    cell_size: float,
    mode: str = "merge_mean",
    order_col: Optional[str] = None,
    salt=None,
):
    """Dataset[tiles] -> Dataset[COMPOSITE_SCHEMA], one row per cell_key,
    through one hash exchange on cell_key (``util.exchange``): each
    partition sorts its rows by cell and runs ``composite_group`` per cell.
    ``order_col`` sets the precedence of ``mosaic_first``.  ``merge_mean``
    first pre-combines hot cells block by block (``precombine_block``); a
    (sum, count) row adds like the tiles it replaces, so this changes how
    many rows cross the exchange, not the composite (float sums follow
    arrival order either way).
    ``salt`` is accepted and ignored: perfbench's composite workload still
    passes ``salt="auto"``."""
    if mode == "merge_mean":
        tiles_ds = tiles_ds.map_batches(lambda t: precombine_block(t, cell_size),
                                        batch_format="pyarrow")

    def combine(part: pa.Table) -> pa.Table:
        return pa.concat_tables(
            [composite_group(g, cell_size, mode, order_col) for g in _cell_groups(part)])

    return exchange(tiles_ds, ["cell_key"], combine, COMPOSITE_SCHEMA)
