"""Stdlib-zlib PNG codec — a from-scratch implementation of the public
PNG spec (RFC 2083 / W3C PNG 2nd ed).

Encode: grayscale (h,w), gray+alpha (h,w,2), RGB (h,w,3), RGBA (h,w,4)
in uint8/uint16, every scanline filter 2 (Up), deflated with zlib's
Z_RLE strategy, non-interlaced. Stands in for the reference's rendered
JPEG/PNG outputs (raster.py:1791-1865) — the lossless compressed
`fmt='png'` path of FIXTURES.md §1.

Decode: the full baseline envelope a real-world file hits —

- color types 0 (gray), 2 (RGB), 3 (palette), 4 (gray+alpha), 6 (RGBA);
- bit depths 1/2/4/8/16 (sub-byte for gray and palette, per spec);
- all five scanline filters, vectorized: Sub is a per-byte-lane
  modular prefix sum, Up a row add (an all-Up image one column-wise
  prefix sum); Average/Paeth run one numpy op per PIXEL column (not
  per byte) since they are inherently sequential in x;
- Adam7 interlace (seven sub-images scattered on the pass lattices);
- palette expansion through PLTE (+ tRNS alpha when present, the
  common web-transparency case). Gray/RGB tRNS color keys are ignored
  (they mark ONE transparent value; raster ingest treats nodata via
  masks instead).

Sub-byte gray/palette samples are returned as their raw values
(0..2^depth-1) in uint8 — no 255/(2^d-1) display scaling.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

_SIG = b"\x89PNG\r\n\x1a\n"

# Adam7 pass lattices: (x0, dx, y0, dy)
_ADAM7 = (
    (0, 8, 0, 8), (4, 8, 0, 8), (0, 4, 4, 8), (2, 4, 0, 4),
    (0, 2, 2, 4), (1, 2, 0, 2), (0, 1, 1, 2),
)

_NCH = {0: 1, 2: 3, 3: 1, 4: 2, 6: 4}


def _chunk(tag: bytes, payload) -> tuple:
    """The four parts of one chunk, for the file's one join: the CRC
    runs over tag then payload without copying them together."""
    crc = zlib.crc32(payload, zlib.crc32(tag))
    return struct.pack(">I", len(payload)), tag, payload, struct.pack(">I", crc)


def encode(arr: np.ndarray) -> bytes:
    """(h,w[,2|3|4]) uint8/uint16 -> PNG (gray / gray+alpha / RGB / RGBA)."""
    arr = np.asarray(arr)
    nch = 1 if arr.ndim == 2 else (arr.shape[2] if arr.ndim == 3 else 0)
    color = {1: 0, 2: 4, 3: 2, 4: 6}.get(nch)
    if color is None:
        raise ValueError(
            f"PNG codec takes (h,w) or (h,w,2|3|4) arrays, got {arr.shape}"
        )
    if arr.dtype == np.uint8:
        depth = 8
        raw = arr
    elif arr.dtype == np.uint16:
        depth = 16
        raw = arr.astype(">u2")
    else:
        raise ValueError(f"PNG codec supports uint8/uint16, got {arr.dtype}")
    h, w = arr.shape[:2]
    ihdr = struct.pack(">IIBBBBB", w, h, depth, color, 0, 0, 0)
    stride = w * (depth // 8) * nch
    body = np.ascontiguousarray(raw).view(np.uint8).reshape(h, stride)
    # vectorized scanline assembly: filter byte column (2 = Up) + each
    # row minus the row above (the first row's "above" is zeros)
    lines = np.empty((h, 1 + stride), dtype=np.uint8)
    lines[:, 0] = 2
    lines[:1, 1:] = body[:1]
    np.subtract(body[1:], body[:-1], out=lines[1:, 1:])
    # Z_RLE: the zlib strategy for filtered image data
    z = zlib.compressobj(6, zlib.DEFLATED, 15, 8, zlib.Z_RLE)
    idat = z.compress(lines) + z.flush()
    return b"".join((_SIG, *_chunk(b"IHDR", ihdr), *_chunk(b"IDAT", idat), *_chunk(b"IEND", b"")))


def _unfilter(raw: bytes, height: int, stride: int, bpp: int) -> np.ndarray:
    """Undo the five PNG scanline filters -> (height, stride) uint8."""
    need = height * (1 + stride)
    if len(raw) < need:
        raise ValueError(
            f"PNG pixel stream truncated: {len(raw)} < {need} bytes"
        )
    grid = np.frombuffer(raw, dtype=np.uint8, count=need).reshape(
        height, 1 + stride
    )
    ftypes = grid[:, 0]
    if not ftypes.any():
        # fast path: every scanline filter 0 (None)
        return grid[:, 1:].copy()
    if (ftypes == 2).all():
        # fast path: every scanline Up (what this encoder writes) — a
        # modular prefix sum down each column, in log2(height) whole-array
        # adds (numpy buffers the overlapping operands; ~3x np.cumsum's
        # axis-0 loop on a 256-row tile)
        out = grid[:, 1:].copy()
        k = 1
        while k < height:
            out[k:] += out[:-k]
            k *= 2
        return out
    if ftypes.max() > 4:
        raise ValueError(f"bad PNG filter {int(ftypes.max())}")
    out = np.empty((height, stride), dtype=np.uint8)
    prev = np.zeros(stride, dtype=np.uint8)
    npix = stride // bpp  # stride is a whole number of bpp lanes
    for r in range(height):
        ftype = ftypes[r]
        line = grid[r, 1:].copy()
        if ftype == 1:  # Sub: per-lane modular prefix sum
            lanes = line.reshape(npix, bpp)
            line = (np.cumsum(lanes.astype(np.int64), axis=0) % 256).astype(
                np.uint8
            ).reshape(stride)
        elif ftype == 2:  # Up
            line += prev
        elif ftype == 3:  # Average — sequential in x, vector per lane
            lanes = line.reshape(npix, bpp).astype(np.int16)
            pl = prev.reshape(npix, bpp).astype(np.int16)
            a = np.zeros(bpp, dtype=np.int16)
            for i in range(npix):
                a = (lanes[i] + ((a + pl[i]) >> 1)) & 0xFF
                lanes[i] = a
            line = lanes.astype(np.uint8).reshape(stride)
        elif ftype == 4:  # Paeth — sequential in x, vector per lane
            lanes = line.reshape(npix, bpp).astype(np.int16)
            pl = prev.reshape(npix, bpp).astype(np.int16)
            a = np.zeros(bpp, dtype=np.int16)
            c = np.zeros(bpp, dtype=np.int16)
            for i in range(npix):
                b = pl[i]
                p = a + b - c
                pa = np.abs(p - a)
                pb = np.abs(p - b)
                pc = np.abs(p - c)
                pred = np.where(
                    (pa <= pb) & (pa <= pc), a, np.where(pb <= pc, b, c)
                )
                a = (lanes[i] + pred) & 0xFF
                lanes[i] = a
                c = b
            line = lanes.astype(np.uint8).reshape(stride)
        out[r] = line
        prev = out[r]
    return out


def _samples(rows: np.ndarray, width: int, nch: int, depth: int) -> np.ndarray:
    """(h, stride) filtered-undone bytes -> (h, width, nch) samples
    (uint8 for depth<=8, uint16 for 16)."""
    height = rows.shape[0]
    if depth == 16:
        u = rows.reshape(height, -1, 2).astype(np.uint16)
        px = (u[:, :, 0] * 256 + u[:, :, 1])[:, : width * nch]
        return px.reshape(height, width, nch)
    if depth == 8:
        return rows[:, : width * nch].reshape(height, width, nch)
    # sub-byte: MSB-first packing (gray / palette only, nch == 1)
    per = 8 // depth
    shifts = np.arange(per - 1, -1, -1, dtype=np.uint8) * depth
    mask = (1 << depth) - 1
    bits = (rows[:, :, None] >> shifts[None, None, :]) & mask
    return bits.reshape(height, -1)[:, :width].reshape(height, width, 1)


def decode(data) -> np.ndarray:
    """Accepts bytes or anything with the buffer protocol (memoryview /
    Arrow buffer slice) — no upfront copy of the blob."""
    data = memoryview(data)
    if bytes(data[:8]) != _SIG:
        raise ValueError("not a PNG")
    pos = 8
    width = height = depth = color = interlace = None
    plte = trns = None
    idat = bytearray()
    while pos < len(data):
        (length,) = struct.unpack_from(">I", data, pos)
        tag = bytes(data[pos + 4 : pos + 8])
        payload = data[pos + 8 : pos + 8 + length]
        pos += 12 + length
        if tag == b"IHDR":
            width, height, depth, color, comp, filt, interlace = struct.unpack(
                ">IIBBBBB", payload
            )
            if color not in _NCH:
                raise ValueError(f"unknown PNG color type {color}")
            if comp != 0 or filt != 0 or interlace not in (0, 1):
                raise ValueError("non-standard PNG compression/filter/interlace")
        elif tag == b"PLTE":
            plte = np.frombuffer(payload, dtype=np.uint8).reshape(-1, 3)
        elif tag == b"tRNS":
            trns = bytes(payload)
        elif tag == b"IDAT":
            idat += payload
        elif tag == b"IEND":
            break
    if width is None:
        raise ValueError("missing IHDR")
    nch = _NCH[color]
    if depth not in (1, 2, 4, 8, 16) or (depth < 8 and color not in (0, 3)):
        raise ValueError(f"unsupported PNG depth {depth} for color type {color}")
    raw = zlib.decompress(idat)
    bpp = max(1, depth // 8 * nch)

    def _stride(w: int) -> int:
        return (w * nch * depth + 7) // 8

    if interlace == 0:
        px = _samples(_unfilter(raw, height, _stride(width), bpp), width, nch, depth)
    else:  # Adam7: seven passes, each an independent filtered sub-image
        px = np.zeros(
            (height, width, nch), dtype=np.uint16 if depth == 16 else np.uint8
        )
        off = 0
        for x0, dx, y0, dy in _ADAM7:
            pw = (width - x0 + dx - 1) // dx
            ph = (height - y0 + dy - 1) // dy
            if pw <= 0 or ph <= 0:
                continue
            st = _stride(pw)
            rows = _unfilter(raw[off:], ph, st, bpp)
            off += ph * (1 + st)
            px[y0::dy, x0::dx] = _samples(rows, pw, nch, depth)

    if color == 3:
        if plte is None:
            raise ValueError("palette PNG without PLTE chunk")
        idx = px[:, :, 0]
        if trns is not None:
            alpha = np.full(len(plte), 255, dtype=np.uint8)
            alpha[: len(trns)] = np.frombuffer(trns, dtype=np.uint8)
            rgba = np.concatenate([plte, alpha[:, None]], axis=1)
            return rgba[idx]
        return plte[idx]
    return px[:, :, 0].copy() if nch == 1 else px
