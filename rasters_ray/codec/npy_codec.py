"""Raw numpy codec — the lossless image byte format (`fmt='npy'`).

Replaces the reference's rasterio GeoTIFF IO (raster.py:634-771,
1612-1713) in an environment without rasterio/PIL: pixels round-trip
exactly (allclose is equality), satisfying the per-row invariant
"decoded-pixel allclose" of BASELINE.json input_hint.
"""

from __future__ import annotations

import ast
import functools
import struct

import numpy as np

_MAGIC = b"\x93NUMPY"


def encode(arr: np.ndarray) -> bytes:
    """Write npy format 1.0 directly (magic + padded header dict + raw
    bytes) — same layout np.save produces, without the BytesIO/np.save
    call overhead that dominated the tile-encode profile."""
    a = np.ascontiguousarray(arr)
    header = (
        "{'descr': %r, 'fortran_order': False, 'shape': %r, }"
        % (np.lib.format.dtype_to_descr(a.dtype), a.shape)
    ).encode("latin1")
    # pad so magic(6)+version(2)+hlen(2)+header is a multiple of 64
    pad = 64 - ((10 + len(header) + 1) % 64)
    header += b" " * pad + b"\n"
    return b"".join(
        (_MAGIC, b"\x01\x00", struct.pack("<H", len(header)), header, a.tobytes())
    )


def decode(data) -> np.ndarray:
    """Zero-copy decode: parse the npy header by hand and return a
    READ-ONLY ``np.frombuffer`` view over the payload — accepts bytes,
    memoryview or an Arrow buffer (anything with the buffer protocol), so
    blobs never round-trip through BytesIO copies. Callers that mutate
    must copy (numpy raises on write otherwise)."""
    mv = memoryview(data)
    if bytes(mv[:6]) != _MAGIC:
        raise ValueError("not an npy payload")
    major = mv[6]
    if major == 1:
        (hlen,) = struct.unpack("<H", bytes(mv[8:10]))
        off = 10 + hlen
        header = bytes(mv[10:off])
    else:
        (hlen,) = struct.unpack("<I", bytes(mv[8:12]))
        off = 12 + hlen
        header = bytes(mv[12:off])
    dtype, shape, order = _parse_header(header)
    return np.frombuffer(mv[off:], dtype=dtype).reshape(shape, order=order)


@functools.lru_cache(maxsize=256)
def _parse_header(header: bytes):
    """npy header dict bytes -> (dtype, shape, order).  Memoized: images
    of one layout share a header, and ``literal_eval`` is most of a
    decode's cost.  A malformed header raises on every call."""
    meta = ast.literal_eval(header.decode("latin1"))
    dtype = np.dtype(meta["descr"])
    shape = meta["shape"]
    order = "F" if meta["fortran_order"] else "C"
    return dtype, shape, order
