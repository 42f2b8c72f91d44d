"""Tiling — the flagship operator: images -> covering-cell tiles.

Re-expresses the reference's geometry->window subsetting
(raster_grid.py:737-833, the spatial clip primitive) as a streaming Ray
Data stage: each image row is assigned the compact covering cells of its
footprint at a tile level (the H3/S2-style tile key of the north rule),
and for every covering cell the pixel window intersecting that cell is
sliced out, re-encoded and emitted as a tile row.

The stage is a stateless ``map_batches`` flat transform (more output rows
than input rows): pure vectorized numpy per image, Arrow in / Arrow out.
A task's bundle of images (``tile_images``' ``batch_size``) sets the task
count; it is tiled in zero-copy chunks of ``TILE_CHUNK`` images, which
set the kernel's working set.
Captions, image_id and phash ride along byte-identical (the input_hint
invariant).

Output schema (SURVEY.md §1.4 `tiles`):
    tile_id:string, cell_key:int64, image_id:string, row_off:int32,
    col_off:int32, th:int32, tw:int32, bytes:binary, fmt:string,
    caption:string, phash:int64, grid:struct<...>  (the SUBSET grid)
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np
import pyarrow as pa

from .. import codec
from ..grids import cellkey
from ..grids.covering import cell_boxes, covering_rows
from ..grids.windows import box_windows
from ..sources.images import GRID_STRUCT

TILES_SCHEMA = pa.schema(
    [
        ("tile_id", pa.string()),
        ("cell_key", pa.int64()),
        ("image_id", pa.string()),
        ("row_off", pa.int32()),
        ("col_off", pa.int32()),
        ("th", pa.int32()),
        ("tw", pa.int32()),
        ("bytes", pa.binary()),
        ("fmt", pa.string()),
        ("caption", pa.string()),
        ("phash", pa.int64()),
        ("grid", GRID_STRUCT),
    ]
)


# Images ``make_tiles`` takes at a time inside a ``tile_images`` task,
# whatever the task's bundle.
TILE_CHUNK = 32


def _empty_tiles() -> pa.Table:
    return TILES_SCHEMA.empty_table()


def make_tiles(batch: pa.Table, level: int, decode_pixels: bool = True) -> pa.Table:
    """One input image row -> one tile row per covering cell at ``level``.

    With decode_pixels=False only tile METADATA is emitted (bytes stays
    empty) — the metadata-only path for joins that never need pixels
    (mirrors RasterGrid.open reading georeferencing only,
    raster_grid.py:151-202).

    Assembly is fully array-at-a-time ACROSS images: the covering rule
    (grids.covering.covering_rows), the cell bounds
    (grids.covering.cell_boxes) and the window rule
    (grids.windows.box_windows) are the same array functions the scalar
    paths call; the sub-grid origin shift (GridSpec.subset) is a per-tile
    numpy expression over ragged-expanded arrays whose float64 op
    ordering matches the scalar path bit for bit. The antimeridian SPLIT branch of covering_cells is
    unreachable here: GridSpec.bbox always returns xmin <= xmax
    (straddlers clip at the world edge exactly as the per-image path
    did). Python touches only blob slicing (per-tile encode) and the
    cell-token format (memoized per distinct cell)."""
    import pyarrow.compute as pc

    n_img = batch.num_rows
    if n_img == 0:
        return _empty_tiles()
    grid_in = batch.column("grid")

    def gf(name, dtype):
        return pc.struct_field(grid_in, name).to_numpy(zero_copy_only=False).astype(dtype)

    x0 = gf("x_origin", np.float64)
    y0 = gf("y_origin", np.float64)
    cw = gf("cell_width", np.float64)
    ch = gf("cell_height", np.float64)
    rows = gf("rows", np.int64)
    cols = gf("cols", np.int64)

    # per-image bbox of cell corners (GridSpec.bbox)
    ex = x0 + cw * cols
    ey = y0 + ch * rows
    xmin = np.minimum(x0, ex)
    xmax = np.maximum(x0, ex)
    ymin = np.minimum(y0, ey)
    ymax = np.maximum(y0, ey)

    # one row per (image, covering cell), in covering_cells' order
    img, ix, iy = covering_rows(level, xmin, ymin, xmax, ymax)
    if img.size == 0:
        return _empty_tiles()
    cid = (np.int64(level) << np.int64(56)) | (iy << np.int64(28)) | ix

    # cell bounds clipped to the image bbox
    cxmin, cymin, cxmax, cymax = cell_boxes(level, ix, iy)
    bx0 = np.maximum(cxmin, xmin[img])
    by0 = np.maximum(cymin, ymin[img])
    bx1 = np.minimum(cxmax, xmax[img])
    by1 = np.minimum(cymax, ymax[img])

    # window rule with per-tile grid params
    row_start, col_start, hh, ww, valid = box_windows(
        x0[img], y0[img], cw[img], ch[img], rows[img], cols[img], bx0, by0, bx1, by1
    )
    keep = valid & (ww > 0) & (hh > 0)
    if not keep.any():
        return _empty_tiles()

    img_k = img[keep]
    cid = cid[keep]
    roc = row_start[keep]
    coc = col_start[keep]
    hhc = hh[keep]
    wwc = ww[keep]
    n_tiles = len(cid)
    # sub-grid origins: same float64 expressions as GridSpec.subset
    sx = x0[img_k] + coc * cw[img_k]
    sy = y0[img_k] + roc * ch[img_k]

    blobs_out: List = []
    if decode_pixels:
        blob_col = codec.BlobReader(batch.column("bytes"))  # zero-copy views
        fmts = batch.column("fmt").to_pylist()
        whole = (roc == 0) & (coc == 0) & (hhc == rows[img_k]) & (wwc == cols[img_k])
        cur = -1
        raw = None
        arr = None
        for k in range(n_tiles):  # tiles arrive image-sorted
            i = int(img_k[k])
            if i != cur:
                cur, raw, arr = i, blob_col[i], None
            if whole[k]:
                # the tile IS the image: pass the encoded blob through
                # unchanged — no decode, no re-encode, no extra
                # object-store bytes (the dominant tiling cost for
                # single-cell scenes)
                blobs_out.append(raw)
            else:
                if arr is None:
                    arr = codec.decode(raw, fmts[i])  # decoded lazily
                tile_px = arr[
                    ..., roc[k] : roc[k] + hhc[k], coc[k] : coc[k] + wwc[k]
                ]  # 2D or (bands, rows, cols)
                blobs_out.append(codec.encode(tile_px, fmts[i]))

    idx = pa.array(img_k)

    ids_col = batch.column("image_id").take(idx).combine_chunks()
    fmt_col = batch.column("fmt").take(idx).combine_chunks()

    # tile_id = "<cell token>/<image_id>": tokens memoized per distinct cell
    tok_memo: Dict[int, str] = {}
    toks = pa.array(
        [tok_memo.get(c) or tok_memo.setdefault(c, cellkey.token(int(c)))
         for c in cid.tolist()],
        pa.string(),
    )
    tile_ids = pc.binary_join_element_wise(toks, ids_col.cast(pa.string()), "/")

    if decode_pixels:
        bytes_col = pa.array(blobs_out, pa.binary())
    else:  # replicate one empty blob; no per-tile Python objects
        bytes_col = pa.array([b""], pa.binary()).take(
            pa.array(np.zeros(n_tiles, dtype=np.int64))
        )

    grid_struct = pa.StructArray.from_arrays(
        [
            pc.struct_field(grid_in, "crs").take(idx).combine_chunks(),
            pa.array(sx, pa.float64()),
            pa.array(sy, pa.float64()),
            pc.struct_field(grid_in, "cell_width").take(idx).combine_chunks(),
            pc.struct_field(grid_in, "cell_height").take(idx).combine_chunks(),
            pa.array(hhc.astype(np.int32), pa.int32()),
            pa.array(wwc.astype(np.int32), pa.int32()),
        ],
        fields=list(GRID_STRUCT),
    )
    return pa.Table.from_arrays(
        [
            tile_ids,
            pa.array(cid, pa.int64()),
            ids_col,
            pa.array(roc.astype(np.int32), pa.int32()),
            pa.array(coc.astype(np.int32), pa.int32()),
            pa.array(hhc.astype(np.int32), pa.int32()),
            pa.array(wwc.astype(np.int32), pa.int32()),
            bytes_col,
            fmt_col,
            batch.column("caption").take(idx).combine_chunks(),
            batch.column("phash").take(idx).combine_chunks(),
            grid_struct,
        ],
        schema=TILES_SCHEMA,
    )


def tile_images(images_ds, level: int, decode_pixels: bool = True, batch_size: int = TILE_CHUNK):
    """Dataset[images] -> Dataset[tiles]; stateless map_batches.

    ``batch_size`` is the BUNDLE: the images one task takes, which sets
    the task count.  The task hands its bundle to ``make_tiles`` in
    zero-copy slices of ``TILE_CHUNK`` images, and yields each chunk's
    tiles as one table.  The bundle is a view of its input blocks
    (``zero_copy_batch``; ``make_tiles`` only reads Arrow), not a copy.
    A task still holds its whole bundle's input blocks and, because
    Ray's map output buffer joins the yielded tables into one block,
    its whole bundle's tiles; the chunks bound only ``make_tiles``'
    decode working set.  The default bundle is one chunk."""

    def tile(bundle: pa.Table):
        for start in range(0, bundle.num_rows, TILE_CHUNK):
            yield make_tiles(bundle.slice(start, TILE_CHUNK), level=level,
                             decode_pixels=decode_pixels)

    return images_ds.map_batches(tile, batch_format="pyarrow", batch_size=batch_size,
                                 zero_copy_batch=True)
