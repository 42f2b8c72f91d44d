"""Seeded benchmark inputs, generated once per (seed, size) and cached on
disk under ``.perfbench/cache``.

- images: the engine's fixture profile (FIXTURES.md §1-2) at 256x256 —
  smooth synthetic scenes, PNG for every third image and NPY otherwise,
  half of them on the 0.01-degree composite lattice, a 30% skew cluster
  in one 1-degree cell, antimeridian straddlers, 1% phash duplicates and
  a degenerate 1x1 image — in parquet files of ``IMAGES_PER_FILE``.
  Unlike ``make_fixture_images``, footprints, formats and scene
  frequencies follow a fixed layout (``_layout``), so every seed's jobs do
  the same work; the seed draws the scene phases and the pixel noise.
  The bytes are written by this file's own NPY and PNG
  writers, so a change to the engine's encoders cannot change the inputs.
- points: ``fixture_points`` (5% out of bounds, exact cell-edge points,
  10% in UTM zone 10).
- relational: lineitem / orders / customer with the sf0.1 row counts and
  key domains, drawn with numpy from the seed.

The engine only ever receives these generated files and tables.
"""

from __future__ import annotations

import glob
import io
import os
import shutil
import struct
import zlib

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

IMAGE_SIZE = 256
IMAGES_PER_FILE = 50
ALIGNED_CELL = 0.01  # the composite lattice: aligned images use this cell size
OTHER_CELL = 0.005

PRIORITIES = ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"]
SEGMENTS = ["AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD", "MACHINERY"]
LINEITEM_FILES = 4


def _cached(cache: str, name: str, build) -> str:
    """``cache/name`` built by ``build(tmp_dir)`` unless already complete."""
    path = os.path.join(cache, name)
    if os.path.exists(os.path.join(path, "_SUCCESS")):
        os.utime(path)
        return path
    tmp = path + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    build(tmp)
    open(os.path.join(tmp, "_SUCCESS"), "w").close()
    shutil.rmtree(path, ignore_errors=True)
    os.replace(tmp, path)
    return path


LAYOUT_SEED = 20261017  # footprints, formats and scene frequencies: the same for every --seed


def _scene(rng: np.random.Generator, h: int, w: int, fx: float, fy: float) -> np.ndarray:
    """Gradient + two sinusoids + mild noise, quantized to uint8."""
    yy = np.linspace(0, 1, h)[:, None]
    xx = np.linspace(0, 1, w)[None, :]
    p1, p2 = rng.uniform(0, 2 * np.pi, 2)
    base = (60.0 * yy + 50.0 * np.sin(2 * np.pi * fx * xx + p1)
            + 50.0 * np.cos(2 * np.pi * fy * yy + p2) + rng.normal(0, 3.0, (h, w)))
    return np.clip(base + 128.0, 0, 255).astype(np.uint8)


def _layout(first_id: int, m: int) -> list:
    """The slots of one file: format, footprint and scene frequencies.

    Independent of the seed, so every seed's jobs have the same shape and
    do the same work; the seed draws the scene phases and the pixel noise.
    Exact shares within the file: half of the slots on the composite
    lattice, 30% of each half in the skew cluster, every 37th a
    straddler, every third PNG."""
    rng = np.random.default_rng([LAYOUT_SEED, first_id])
    aligned = np.zeros(m, dtype=bool)
    aligned[rng.permutation(m)[: m // 2]] = True
    skew = np.zeros(m, dtype=bool)
    for group in (np.flatnonzero(aligned), np.flatnonzero(~aligned)):
        skew[rng.permutation(group)[: round(0.3 * len(group))]] = True
    slots = []
    for j in range(m):
        cell = ALIGNED_CELL if aligned[j] else OTHER_CELL
        if (first_id + j) % 37 == 36:  # antimeridian straddler
            x0, y0 = 179.9, 10.0
        elif skew[j]:  # one shared 1-degree cell
            x0 = -118.0 + rng.random() * (1.0 - cell * IMAGE_SIZE)
            y0 = 35.0 - rng.random() * 0.01
        else:
            x0 = -125.0 + rng.integers(0, 31) * 0.5
            y0 = 45.0 - rng.integers(0, 31) * 0.5
        fx, fy = rng.uniform(1, 6, 2)
        fmt = "png" if (first_id + j) % 3 == 0 else "npy"
        slots.append((fmt, cell, float(x0), float(y0), fx, fy))
    return slots


def encode_npy(px: np.ndarray) -> bytes:
    buf = io.BytesIO()
    np.save(buf, px, allow_pickle=False)
    return buf.getvalue()


def _png_chunk(tag: bytes, payload: bytes) -> bytes:
    return (struct.pack(">I", len(payload)) + tag + payload
            + struct.pack(">I", zlib.crc32(tag + payload) & 0xFFFFFFFF))


def encode_png(px: np.ndarray) -> bytes:
    """8-bit grayscale PNG, filter 0 on every scanline."""
    h, w = px.shape
    lines = np.zeros((h, w + 1), dtype=np.uint8)
    lines[:, 1:] = px
    return (b"\x89PNG\r\n\x1a\n"
            + _png_chunk(b"IHDR", struct.pack(">IIBBBBB", w, h, 8, 0, 0, 0, 0))
            + _png_chunk(b"IDAT", zlib.compress(lines.tobytes(), 6))
            + _png_chunk(b"IEND", b""))


def average_hash(px: np.ndarray) -> int:
    """64-bit average hash (block means on an 8x8 grid above their mean),
    the fixture profile's phash, as a signed int64."""
    a = px.astype(np.float64)
    h, w = a.shape
    r0 = np.minimum(np.arange(8) * h // 8, h - 1)
    c0 = np.minimum(np.arange(8) * w // 8, w - 1)
    r1 = np.maximum(np.append(r0[1:], h), r0 + 1)
    c1 = np.maximum(np.append(c0[1:], w), c0 + 1)
    small = np.array([[a[r0[i]:r1[i], c0[j]:c1[j]].mean() for j in range(8)] for i in range(8)])
    val = 0
    for bit in (small > small.mean()).ravel():
        val = (val << 1) | int(bit)
    return val - (1 << 64) if val >= 1 << 63 else val


def _image_file(rng: np.random.Generator, ids: np.ndarray) -> pa.Table:
    from rasters_ray.sources.images import IMAGES_SCHEMA

    slots = _layout(int(ids[0]), len(ids))
    rows = {k: [] for k in IMAGES_SCHEMA.names}
    prev = None
    for i, (fmt, cell, x0, y0, fx, fy) in zip(ids.tolist(), slots):
        h = w = 1 if i == 0 else IMAGE_SIZE
        dup = i % 100 == 99 and prev is not None and prev.shape == (h, w)  # 1% phash duplicates
        px = prev if dup else _scene(rng, h, w, fx, fy)
        prev = px
        rows["image_id"].append(f"img{i:08d}")
        rows["bytes"].append(encode_png(px) if fmt == "png" else encode_npy(px))
        rows["w"].append(w)
        rows["h"].append(h)
        rows["fmt"].append(fmt)
        rows["caption"].append(f"synthetic scene {i} at ({x0:.2f},{y0:.2f})")
        rows["phash"].append(average_hash(px))
        rows["grid"].append({"crs": "EPSG:4326", "x_origin": x0, "y_origin": y0,
                             "cell_width": cell, "cell_height": -cell, "rows": h, "cols": w})
    return pa.Table.from_pydict(rows, schema=IMAGES_SCHEMA)


def images_key(seed: int, n: int) -> str:
    """Cache name of an image table; derived results reuse it."""
    return f"images-v6-s{seed}-n{n}-px{IMAGE_SIZE}"


def images(cache: str, seed: int, n: int) -> str:
    """Directory of image parquet files (``<dir>/data``)."""

    def build(tmp):
        data = os.path.join(tmp, "data")
        os.makedirs(data)
        rng = np.random.default_rng(seed)
        for f, lo in enumerate(range(0, n, IMAGES_PER_FILE)):
            table = _image_file(rng, np.arange(lo, min(lo + IMAGES_PER_FILE, n)))
            pq.write_table(table, os.path.join(data, f"part-{f:04d}.parquet"))

    return os.path.join(_cached(cache, images_key(seed, n), build), "data")


def points(cache: str, seed: int, n: int) -> pa.Table:
    from rasters_ray.sources.vectors import fixture_points

    def build(tmp):
        pq.write_table(fixture_points(n, seed=seed), os.path.join(tmp, "points.parquet"))

    return pq.read_table(os.path.join(_cached(cache, f"points-s{seed}-n{n}", build), "points.parquet"))


def relational(cache: str, seed: int, n_lineitem: int, n_orders: int, n_customer: int) -> dict:
    """{'lineitem': dir, 'orders': file, 'customer': file}."""

    def build(tmp):
        rng = np.random.default_rng(seed)
        cust = pa.table(
            {
                "c_custkey": pa.array(np.arange(n_customer, dtype=np.int64)),
                "c_mktsegment": pa.array(
                    [SEGMENTS[i] for i in rng.integers(0, len(SEGMENTS), n_customer)], pa.string()
                ),
            }
        )
        orders = pa.table(
            {
                "o_orderkey": pa.array(np.arange(n_orders, dtype=np.int64)),
                "o_custkey": pa.array(rng.integers(0, n_customer, n_orders, dtype=np.int64)),
                "o_orderpriority": pa.array(
                    [PRIORITIES[i] for i in rng.integers(0, len(PRIORITIES), n_orders)], pa.string()
                ),
            }
        )
        lineitem = pa.table(
            {
                "l_orderkey": pa.array(rng.integers(0, n_orders, n_lineitem, dtype=np.int64)),
                "l_extendedprice": pa.array(rng.integers(90068, 10499992, n_lineitem) / 100.0),
                "l_discount": pa.array(rng.integers(0, 11, n_lineitem) / 100.0),
            }
        )
        pq.write_table(cust, os.path.join(tmp, "customer.parquet"))
        pq.write_table(orders, os.path.join(tmp, "orders.parquet"))
        os.makedirs(os.path.join(tmp, "lineitem"))
        step = -(-n_lineitem // LINEITEM_FILES)
        for f in range(LINEITEM_FILES):
            part = lineitem.slice(f * step, step)
            pq.write_table(part, os.path.join(tmp, "lineitem", f"part-{f:04d}.parquet"))

    name = f"relational-s{seed}-l{n_lineitem}-o{n_orders}-c{n_customer}"
    path = _cached(cache, name, build)
    return {
        "lineitem": os.path.join(path, "lineitem"),
        "orders": os.path.join(path, "orders.parquet"),
        "customer": os.path.join(path, "customer.parquet"),
    }


def prune(cache: str, keep: int = 24) -> None:
    """Drop all but the ``keep`` most recently used cache entries."""
    entries = sorted((os.path.join(cache, e) for e in os.listdir(cache)),
                     key=os.path.getmtime, reverse=True)
    for path in entries[keep:]:
        if os.path.isdir(path):
            shutil.rmtree(path, ignore_errors=True)
        else:
            os.remove(path)


def read_dir(path: str) -> pa.Table:
    """All parquet files of a directory, in file order, as one table."""
    files = sorted(glob.glob(os.path.join(path, "*.parquet")))
    return pa.concat_tables([pq.read_table(f) for f in files])
