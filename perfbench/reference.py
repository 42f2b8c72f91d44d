"""Independent references and order-free digests for every workload.

Nothing here calls the engine path being timed.  Pixels are decoded with
this file's own decoders (``numpy.load`` for NPY, a small PNG reader),
tile windows follow the reference library's scalar rules one image and
one cell at a time, the point join is a brute force over every
(point, image) pair, and the relational sums are exact int64 numpy.  The
only engine code used is ``rasters_ray.proj.transform_xy`` to bring the
UTM points to longitude/latitude, so that both sides start from the same
coordinates.

A digest is the SHA-256 of the sorted ``repr`` of an output's rows, where
pixel payloads are replaced by the digest of their decoded pixels: it
depends neither on row order nor on how the pixels were encoded.
"""

from __future__ import annotations

import hashlib
import io
import math
import struct
import zlib
from collections import defaultdict

import numpy as np
import pyarrow as pa

VERSION = 2  # bump when a digest's row layout changes: it names cached references

# ---------------------------------------------------------------------------
# decoding
# ---------------------------------------------------------------------------


def _unfilter_row(ftype: int, line: np.ndarray, prev: np.ndarray, bpp: int) -> np.ndarray:
    if ftype == 0:
        return line
    if ftype == 2:
        return (line.astype(np.uint16) + prev).astype(np.uint8)
    out = line.astype(np.int32)
    up = prev.astype(np.int32)
    for i in range(len(out)):
        a = out[i - bpp] if i >= bpp else 0
        b = up[i]
        c = up[i - bpp] if i >= bpp else 0
        if ftype == 1:
            pred = a
        elif ftype == 3:
            pred = (a + b) // 2
        elif ftype == 4:
            p = a + b - c
            pa_, pb, pc = abs(p - a), abs(p - b), abs(p - c)
            pred = a if pa_ <= pb and pa_ <= pc else (b if pb <= pc else c)
        else:
            raise ValueError(f"bad PNG filter {ftype}")
        out[i] = (out[i] + pred) & 0xFF
    return out.astype(np.uint8)


def decode_png(data) -> np.ndarray:
    """Grayscale, non-interlaced PNG (8 or 16 bit) -> 2-D array."""
    data = bytes(data)
    if data[:8] != b"\x89PNG\r\n\x1a\n":
        raise ValueError("not a PNG")
    pos, idat, ihdr = 8, [], None
    while pos < len(data):
        (length,) = struct.unpack(">I", data[pos : pos + 4])
        tag = data[pos + 4 : pos + 8]
        body = data[pos + 8 : pos + 8 + length]
        pos += 12 + length
        if tag == b"IHDR":
            ihdr = struct.unpack(">IIBBBBB", body)
        elif tag == b"IDAT":
            idat.append(body)
        elif tag == b"IEND":
            break
    width, height, depth, color, _, _, interlace = ihdr
    if color != 0 or interlace != 0 or depth not in (8, 16):
        raise ValueError(f"unsupported PNG: color {color}, depth {depth}, interlace {interlace}")
    bpp = depth // 8
    stride = width * bpp
    raw = np.frombuffer(zlib.decompress(b"".join(idat)), dtype=np.uint8)
    raw = raw[: height * (stride + 1)].reshape(height, stride + 1)
    rows = np.empty((height, stride), dtype=np.uint8)
    prev = np.zeros(stride, dtype=np.uint8)
    for r in range(height):
        prev = rows[r] = _unfilter_row(int(raw[r, 0]), raw[r, 1:], prev, bpp)
    if depth == 8:
        return rows
    return rows.view(">u2").astype(np.uint16).reshape(height, width)


def decode(blob, fmt: str) -> np.ndarray:
    if fmt == "npy":
        return np.load(io.BytesIO(bytes(blob)), allow_pickle=False)
    if fmt == "png":
        return decode_png(blob)
    raise ValueError(f"no reference decoder for fmt {fmt!r}")


def pixel_digest(arr: np.ndarray) -> str:
    a = np.ascontiguousarray(arr)
    h = hashlib.sha1()
    h.update(a.dtype.str.encode())
    h.update(repr(a.shape).encode())
    if a.dtype.kind == "f":
        nan = np.isnan(a)
        h.update(nan.tobytes())
        a = np.where(nan, 0, a)
    h.update(a.tobytes())
    return h.hexdigest()


def rows_digest(rows) -> str:
    h = hashlib.sha256()
    for line in sorted(repr(r) for r in rows):
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


def _grid_tuple(g: dict) -> tuple:
    return (
        g["crs"], float(g["x_origin"]), float(g["y_origin"]), float(g["cell_width"]),
        float(g["cell_height"]), int(g["rows"]), int(g["cols"]),
    )


# ---------------------------------------------------------------------------
# tiling
# ---------------------------------------------------------------------------


def cell_token(level: int, ix: int, iy: int) -> str:
    return f"L{level:02d}_{ix:08x}_{iy:08x}"


def tile_windows(g: dict, level: int):
    """Yield (cell_key, ix, iy, row_off, col_off, rows, cols) for every
    covering cell of the grid's footprint whose pixel window is not empty
    (reference rules: covering cells of the corner bbox; window of the
    cell/bbox intersection by the pixel-centre rule, +1 ends, clamped)."""
    x0, y0 = float(g["x_origin"]), float(g["y_origin"])
    cw, ch = float(g["cell_width"]), float(g["cell_height"])
    rows, cols = int(g["rows"]), int(g["cols"])
    ex, ey = x0 + cw * cols, y0 + ch * rows
    xmin, xmax, ymin, ymax = min(x0, ex), max(x0, ex), min(y0, ey), max(y0, ey)
    n = 1 << level
    w, h = 360.0 / n, 180.0 / n
    ix0 = max(0, math.floor((xmin + 180.0) / w))
    ix1 = max(ix0, min(n - 1, math.floor((xmax + 180.0) / w - 1e-12)))
    iy0 = max(0, math.floor((90.0 - ymax) / h))
    iy1 = max(iy0, min(n - 1, math.floor((90.0 - ymin) / h - 1e-12)))
    for iy in range(iy0, iy1 + 1):
        for ix in range(ix0, ix1 + 1):
            cxmin, cymax = -180.0 + ix * w, 90.0 - iy * h
            bx0, by0 = max(cxmin, xmin), max(cymax - h, ymin)
            bx1, by1 = min(cxmin + w, xmax), min(cymax, ymax)
            r0 = round((by1 - y0) / ch - 0.5)
            c0 = round((bx0 - x0) / cw - 0.5)
            r1 = round((by0 - y0) / ch - 0.5) + 1
            c1 = round((bx1 - x0) / cw - 0.5) + 1
            if r1 < 0 or c1 < 0 or r0 > rows or c0 > cols:
                continue
            r0, c0 = min(max(r0, 0), rows), min(max(c0, 0), cols)
            r1, c1 = min(max(r1, 0), rows), min(max(c1, 0), cols)
            if r1 > r0 and c1 > c0:
                cid = (level << 56) | (iy << 28) | ix
                yield cid, ix, iy, r0, c0, r1 - r0, c1 - c0


def _image_rows(images: pa.Table):
    cols = {c: images.column(c).to_pylist() for c in ("image_id", "fmt", "caption", "phash", "grid")}
    blobs = images.column("bytes")
    for i in range(images.num_rows):
        yield (
            cols["image_id"][i], cols["fmt"][i], cols["caption"][i], cols["phash"][i],
            cols["grid"][i], blobs[i].as_buffer(),
        )


def reference_tiles(images: pa.Table, level: int):
    """Per tile: (row tuple, sub-array) over every image, in input order."""
    for image_id, fmt, caption, phash, g, blob in _image_rows(images):
        arr = decode(blob, fmt)
        for cid, ix, iy, r0, c0, hh, ww in tile_windows(g, level):
            sub = arr[r0 : r0 + hh, c0 : c0 + ww]
            grid = (
                g["crs"], g["x_origin"] + c0 * g["cell_width"], g["y_origin"] + r0 * g["cell_height"],
                float(g["cell_width"]), float(g["cell_height"]), hh, ww,
            )
            row = (
                f"{cell_token(level, ix, iy)}/{image_id}", cid, image_id, r0, c0, hh, ww,
                caption, phash, grid,
            )
            yield row, sub


def tiles_reference_digest(images: pa.Table, level: int) -> dict:
    rows = [row + (pixel_digest(sub),) for row, sub in reference_tiles(images, level)]
    return {"rows": len(rows), "digest": rows_digest(rows)}


def tiles_digest(tiles: pa.Table) -> dict:
    """Digest of an engine tiles table (any row order, any codec)."""
    names = ("tile_id", "cell_key", "image_id", "row_off", "col_off", "th", "tw", "caption", "phash")
    cols = [tiles.column(c).to_pylist() for c in names]
    grids = tiles.column("grid").to_pylist()
    fmts = tiles.column("fmt").to_pylist()
    blobs = tiles.column("bytes")
    rows = []
    for i in range(tiles.num_rows):
        px = pixel_digest(decode(blobs[i].as_buffer(), fmts[i]))
        rows.append(tuple(c[i] for c in cols) + (_grid_tuple(grids[i]), px))
    return {"rows": len(rows), "digest": rows_digest(rows)}


# ---------------------------------------------------------------------------
# point sampling
# ---------------------------------------------------------------------------


def points_lonlat(points: pa.Table):
    from rasters_ray.proj import transform_xy

    x = points.column("x").to_numpy().astype(np.float64)
    y = points.column("y").to_numpy().astype(np.float64)
    crs = np.asarray(points.column("crs").to_pylist())
    for c in np.unique(crs):
        if c != "EPSG:4326":
            sel = crs == c
            x[sel], y[sel] = transform_xy(x[sel], y[sel], str(c), "EPSG:4326")
    return x, y


def point_sample_reference(images: pa.Table, points: pa.Table) -> dict:
    """Brute force: every point against every image by the pixel-centre
    rule (round half to even), misses as (point, None, None, None, NaN,
    False)."""
    lon, lat = points_lonlat(points)
    pids = points.column("point_id").to_pylist()
    hit = np.zeros(len(pids), dtype=bool)
    rows = []
    for image_id, fmt, _, _, g, blob in _image_rows(images):
        if g["crs"] != "EPSG:4326":
            raise ValueError("reference covers EPSG:4326 images only")
        colf = (lon - g["x_origin"]) / g["cell_width"] - 0.5
        rowf = (lat - g["y_origin"]) / g["cell_height"] - 0.5
        ok = np.isfinite(colf) & np.isfinite(rowf)
        c = np.where(ok, np.rint(colf), -1).astype(np.int64)
        r = np.where(ok, np.rint(rowf), -1).astype(np.int64)
        inside = ok & (r >= 0) & (r < g["rows"]) & (c >= 0) & (c < g["cols"])
        sel = np.flatnonzero(inside)
        if sel.size == 0:
            continue
        arr = decode(blob, fmt)
        hit[sel] = True
        vals = arr[r[sel], c[sel]].astype(np.float64)
        rows.extend(
            (pids[k], image_id, int(r[k]), int(c[k]), float(v), True) for k, v in zip(sel, vals)
        )
    rows.extend((pids[k], None, None, None, float("nan"), False) for k in np.flatnonzero(~hit))
    return {"rows": len(rows), "digest": rows_digest(rows)}


def point_sample_digest(out: pa.Table) -> dict:
    cols = [out.column(c).to_pylist() for c in ("point_id", "image_id", "row", "col", "value", "inside")]
    rows = list(zip(*cols))
    return {"rows": len(rows), "digest": rows_digest(rows)}


# ---------------------------------------------------------------------------
# composite
# ---------------------------------------------------------------------------


def _cell_lattice(cid: int, cs: float) -> tuple:
    level, iy, ix = cid >> 56, (cid >> 28) & ((1 << 28) - 1), cid & ((1 << 28) - 1)
    n = float(1 << level)
    w, h = 360.0 / n, 180.0 / n
    xmin, ymax = -180.0 + ix * w, 90.0 - iy * h
    ymin, xmax = ymax - h, xmin + w
    gx0, gy0 = math.floor((xmin + 180.0) / cs), math.floor((90.0 - ymax) / cs)
    gx1, gy1 = math.ceil((xmax + 180.0) / cs), math.ceil((90.0 - ymin) / cs)
    return -180.0 + gx0 * cs, 90.0 - gy0 * cs, gy1 - gy0, gx1 - gx0


def composite_reference(images: pa.Table, level: int, cell_size: float) -> dict:
    """Mean of valid tile pixels per cell lattice (float64 sums of the
    integer pixels, so the order of accumulation cannot matter)."""
    acc = {}
    n_tiles = defaultdict(int)
    for row, sub in reference_tiles(images, level):
        cid, grid = row[1], row[9]
        n_tiles[cid] += 1
        tx0, ty0, trows, tcols = _cell_lattice(cid, cell_size)
        if cid not in acc:
            acc[cid] = (np.zeros((trows, tcols)), np.zeros((trows, tcols), dtype=np.int64))
        ssum, cnt = acc[cid]
        c0 = round((grid[1] - tx0) / cell_size)
        r0 = round((ty0 - grid[2]) / cell_size)
        r1, c1 = min(r0 + grid[5], trows), min(c0 + grid[6], tcols)
        rr0, cc0 = max(r0, 0), max(c0, 0)
        if rr0 >= r1 or cc0 >= c1:
            continue
        part = sub[rr0 - r0 : r1 - r0, cc0 - c0 : c1 - c0].astype(np.float64)
        valid = np.isfinite(part)
        ssum[rr0:r1, cc0:c1][valid] += part[valid]
        cnt[rr0:r1, cc0:c1][valid] += 1
    rows = []
    for cid, (ssum, cnt) in acc.items():
        tx0, ty0, trows, tcols = _cell_lattice(cid, cell_size)
        with np.errstate(invalid="ignore", divide="ignore"):
            out = np.where(cnt > 0, ssum / np.maximum(cnt, 1), np.nan).astype(np.float32)
        grid = ("EPSG:4326", tx0, ty0, cell_size, -cell_size, trows, tcols)
        rows.append((cid, n_tiles[cid], grid, pixel_digest(out)))
    return {"rows": len(rows), "digest": rows_digest(rows)}


def composite_digest(out: pa.Table) -> dict:
    cids = out.column("cell_key").to_pylist()
    ns = out.column("n_images").to_pylist()
    grids = out.column("grid").to_pylist()
    fmts = out.column("fmt").to_pylist()
    blobs = out.column("bytes")
    rows = [
        (cids[i], ns[i], _grid_tuple(grids[i]), pixel_digest(decode(blobs[i].as_buffer(), fmts[i])))
        for i in range(out.num_rows)
    ]
    return {"rows": len(rows), "digest": rows_digest(rows)}


# ---------------------------------------------------------------------------
# relational
# ---------------------------------------------------------------------------


def revenue_cents(price: np.ndarray, discount: np.ndarray) -> np.ndarray:
    """The query's per-row value: floor(price * (1 - discount) * 100)."""
    return np.floor((price * (1.0 - discount)) * 100.0).astype(np.int64)


def relational_reference(lineitem: pa.Table, orders: pa.Table, customer: pa.Table) -> dict:
    """Σ revenue and row count per (segment, priority), exact int64."""
    okey = orders.column("o_orderkey").to_numpy()
    ckey = customer.column("c_custkey").to_numpy()
    seg_of = dict(zip(ckey.tolist(), customer.column("c_mktsegment").to_pylist()))
    seg_names = sorted(set(seg_of.values()))
    prio = orders.column("o_orderpriority").to_pylist()
    prio_names = sorted(set(prio))
    # order key -> group code (-1: no such order or customer)
    o_seg = np.array([seg_names.index(seg_of[c]) if c in seg_of else -1
                      for c in orders.column("o_custkey").to_pylist()])
    o_prio = np.array([prio_names.index(p) for p in prio])
    code_by_key = np.full(int(okey.max()) + 1 if len(okey) else 0, -1, dtype=np.int64)
    code_by_key[okey] = np.where(o_seg >= 0, o_seg * len(prio_names) + o_prio, -1)
    lk = lineitem.column("l_orderkey").to_numpy()
    known = (lk >= 0) & (lk < len(code_by_key))
    code = np.full(len(lk), -1, dtype=np.int64)
    code[known] = code_by_key[lk[known]]
    rev = revenue_cents(
        lineitem.column("l_extendedprice").to_numpy(), lineitem.column("l_discount").to_numpy()
    )
    keep = code >= 0
    n_groups = len(seg_names) * len(prio_names)
    sums = np.zeros(n_groups, dtype=np.int64)
    counts = np.zeros(n_groups, dtype=np.int64)
    np.add.at(sums, code[keep], rev[keep])
    np.add.at(counts, code[keep], 1)
    rows = [
        (seg_names[g // len(prio_names)], prio_names[g % len(prio_names)], int(sums[g]), int(counts[g]))
        for g in range(n_groups)
        if counts[g]
    ]
    return {"rows": len(rows), "digest": rows_digest(rows)}


def relational_digest(out: pa.Table) -> dict:
    cols = [out.column(c).to_pylist() for c in ("c_mktsegment", "o_orderpriority", "revenue_c", "n")]
    rows = list(zip(*cols))
    return {"rows": len(rows), "digest": rows_digest(rows)}
