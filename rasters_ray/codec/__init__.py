"""Image byte codecs: `fmt` column dispatch + PSNR.

Formats (FIXTURES.md §1; no PIL/rasterio in this environment):
- ``npy`` — raw numpy, lossless, any dtype (the allclose-exact path);
- ``png`` — stdlib-zlib PNG (gray, gray+alpha, RGB, RGBA), lossless,
  uint8/uint16, every scanline Up-filtered, deflated with ``Z_RLE``;
- ``jpg``/``jpeg`` — baseline sequential JPEG, pure numpy
  (``jpeg_codec``; lossy, uint8 gray or RGB);
- ``qnt`` — the engine's "lossy" path: float32 linearly quantized to
  uint16 (+ zlib) — re-encodes must hold PSNR >= 40 dB per the
  BASELINE.json input_hint invariant.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

from . import jpeg_codec, npy_codec, png_codec

_QNT_MAGIC = b"QNT1"


class BlobReader:
    """Zero-copy accessor over an Arrow Binary column: ``reader[i]`` is a
    memoryview sliced straight out of the Arrow data buffer — no per-blob
    ``as_py()``/``to_pylist()`` copy of MB payloads into Python bytes.
    A chunked (or sliced) column is read in place, chunk by chunk: no
    ``combine_chunks`` copy of the batch.  All decoders here accept
    anything with the buffer protocol."""

    def __init__(self, col):
        import pyarrow as pa
        import pyarrow.types as pt

        chunks = col.chunks if isinstance(col, pa.ChunkedArray) else [col]
        chunks = [c for c in chunks if len(c)]
        dt = np.int64 if pt.is_large_binary(col.type) else np.int32
        self._chunks = []  # per chunk: value offsets, data buffer, slice offset
        for c in chunks:
            _, offs, data = c.buffers()
            self._chunks.append((np.frombuffer(offs, dtype=dt),
                                 memoryview(data if data is not None else b""), c.offset))
        self._starts = np.cumsum([0] + [len(c) for c in chunks[:-1]])

    def __getitem__(self, i: int) -> memoryview:
        c = int(np.searchsorted(self._starts, i, side="right")) - 1
        offs, data, base = self._chunks[c]
        j = base + i - int(self._starts[c])
        return data[offs[j]:offs[j + 1]]


def encode(arr: np.ndarray, fmt: str) -> bytes:
    if fmt == "npy":
        return npy_codec.encode(arr)
    if fmt == "png":
        return png_codec.encode(arr)
    if fmt in ("jpg", "jpeg"):
        return jpeg_codec.encode(arr)
    if fmt == "qnt":
        a = np.asarray(arr, dtype=np.float32)
        finite = np.isfinite(a)
        vmin = float(a[finite].min()) if finite.any() else 0.0
        vmax = float(a[finite].max()) if finite.any() else 1.0
        scale = (vmax - vmin) or 1.0
        q = np.zeros(a.shape, dtype=np.uint16)
        # 1..65535 encode values; 0 encodes NaN/nodata
        q[finite] = np.clip(
            np.rint((a[finite] - vmin) / scale * 65534.0) + 1.0, 1, 65535
        ).astype(np.uint16)
        header = _QNT_MAGIC + struct.pack(">ffII", vmin, vmax, *a.shape)
        return header + zlib.compress(q, 6)
    raise ValueError(f"unknown fmt: {fmt}")


def decode(data: bytes, fmt: str) -> np.ndarray:
    if fmt == "npy":
        return npy_codec.decode(data)
    if fmt == "png":
        return png_codec.decode(data)
    if fmt in ("jpg", "jpeg"):
        return jpeg_codec.decode(data)
    if fmt == "qnt":
        data = memoryview(data)
        if bytes(data[:4]) != _QNT_MAGIC:
            raise ValueError("bad QNT header")
        vmin, vmax, rows, cols = struct.unpack(">ffII", data[4:20])
        q = np.frombuffer(zlib.decompress(data[20:]), dtype=np.uint16).reshape(rows, cols)
        scale = (vmax - vmin) or 1.0
        out = (q.astype(np.float32) - 1.0) / 65534.0 * scale + vmin
        out[q == 0] = np.nan
        return out
    raise ValueError(f"unknown fmt: {fmt}")


def psnr(a: np.ndarray, b: np.ndarray, peak: float = None) -> float:
    """Peak signal-to-noise ratio in dB over finite pixels."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    mask = np.isfinite(a) & np.isfinite(b)
    if not mask.any():
        return float("inf")
    err = a[mask] - b[mask]
    mse = float(np.mean(err * err))
    if mse == 0:
        return float("inf")
    if peak is None:
        peak = float(np.max(np.abs(a[mask]))) or 1.0
    return 10.0 * np.log10(peak * peak / mse)
