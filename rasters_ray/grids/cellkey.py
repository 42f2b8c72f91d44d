"""Hierarchical global cell keys — the engine's H3/S2-style tile key.

The north rule calls for "a vectorized H3/S2 cell encoder (compact covering
cells as the tile key)". Neither h3 nor s2 bindings exist in this
environment, so this is a from-scratch hierarchical quadtree over the
geographic world box [-180, 180] x [-90, 90]:

- level L splits the world into 2^L x 2^L cells (x width 360/2^L deg,
  y height 180/2^L deg);
- a cell id is one int64: ``(level << 56) | (iy << 28) | ix`` (level <= 26);
- parent/child moves are bit shifts, so coverings can be compacted
  hierarchically exactly like S2 cell unions.

Everything is vectorized numpy; ids are stable across processes/nodes and
usable directly as Ray Data groupby/partition keys.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from .covering import cell_boxes, cell_ranges, cell_size

MAX_LEVEL = 26
_LEVEL_SHIFT = 56
_Y_SHIFT = 28
_XY_MASK = (1 << 28) - 1

WORLD = (-180.0, -90.0, 180.0, 90.0)


def cell_ids(level: int, x, y) -> np.ndarray:
    """Vectorized point -> cell id at a level. Points outside the world box
    are clamped (matching the reference's coordinate clipping,
    raster_geolocation.py:60-66). NaN -> id -1."""
    if not 0 <= level <= MAX_LEVEL:
        raise ValueError(f"level out of range: {level}")
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n = 1 << level
    bad = ~(np.isfinite(x) & np.isfinite(y))
    xs = np.where(bad, 0.0, x)
    ys = np.where(bad, 0.0, y)
    ix = np.floor((xs + 180.0) / 360.0 * n).astype(np.int64)
    iy = np.floor((90.0 - ys) / 180.0 * n).astype(np.int64)
    ix = np.clip(ix, 0, n - 1)
    iy = np.clip(iy, 0, n - 1)
    cid = (np.int64(level) << _LEVEL_SHIFT) | (iy << _Y_SHIFT) | ix
    return np.where(bad, np.int64(-1), cid)


def cell_id(level: int, x: float, y: float) -> int:
    return int(cell_ids(level, [x], [y])[0])


def decode(cid) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """cell id(s) -> (level, ix, iy)."""
    cid = np.asarray(cid, dtype=np.int64)
    level = (cid >> _LEVEL_SHIFT).astype(np.int64)
    iy = (cid >> _Y_SHIFT) & _XY_MASK
    ix = cid & _XY_MASK
    return level, ix, iy


def cell_bounds(cid) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """cell id(s) -> (xmin, ymin, xmax, ymax)."""
    return cell_boxes(*decode(cid))


def parent(cid, levels_up: int = 1) -> np.ndarray:
    level, ix, iy = decode(cid)
    new_level = level - levels_up
    if np.any(new_level < 0):
        raise ValueError("cannot go above level 0")
    return (new_level << _LEVEL_SHIFT) | ((iy >> levels_up) << _Y_SHIFT) | (ix >> levels_up)


def covering_cells(
    level: int, bbox: Tuple[float, float, float, float]
) -> np.ndarray:
    """All cell ids at ``level`` intersecting the bbox (xmin, ymin, xmax, ymax).

    Handles antimeridian-crossing boxes (xmin > xmax) by splitting into two
    ranges (the sign-split of raster_geometry.py:512-521); such a box
    must start at or west of 180 and end at or east of -180."""
    if not np.isfinite(bbox).all():
        raise ValueError(f"covering_cells needs a finite bbox, got {bbox}")
    xmin, ymin, xmax, ymax = bbox
    if xmin > xmax:  # crosses the antimeridian
        if xmin > 180.0 or xmax < -180.0:
            raise ValueError(f"antimeridian-crossing bbox out of range: {bbox}")
        left = covering_cells(level, (xmin, ymin, 180.0, ymax))
        right = covering_cells(level, (-180.0, ymin, xmax, ymax))
        return np.unique(np.concatenate([left, right]))
    ix0, ix1, iy0, iy1 = cell_ranges(level, xmin, ymin, xmax, ymax)
    ixs = np.arange(ix0, ix1 + 1, dtype=np.int64)
    iys = np.arange(iy0, iy1 + 1, dtype=np.int64)
    gx, gy = np.meshgrid(ixs, iys)
    return (
        (np.int64(level) << _LEVEL_SHIFT) | (gy.ravel() << _Y_SHIFT) | gx.ravel()
    )


def compact_covering(
    bbox: Tuple[float, float, float, float],
    max_cells: int = 16,
    max_level: int = MAX_LEVEL,
) -> Tuple[int, np.ndarray]:
    """Finest single-level covering of the bbox with <= max_cells cells —
    the compact covering set the north rule's tile assignment uses.
    Returns (level, ids). Single-level keys keep the shuffle key space flat;
    hierarchical compaction is available via parent() when mixed levels are
    wanted."""
    best_level, best = 0, covering_cells(0, bbox)
    for level in range(1, max_level + 1):
        cells = covering_cells(level, bbox)
        if len(cells) > max_cells:
            break
        best_level, best = level, cells
    return best_level, best


def token(cid: int) -> str:
    """Stable filesystem-safe token for a cell id (partition dir names)."""
    level, ix, iy = decode(int(cid))
    return f"L{int(level):02d}_{int(ix):08x}_{int(iy):08x}"


def level_for_cell_size(cell_deg: float) -> int:
    """Coarsest level whose cell height <= cell_deg (for picking a tile
    level matched to image footprints)."""
    for level in range(MAX_LEVEL + 1):
        if cell_size(level)[1] <= cell_deg:
            return level
    return MAX_LEVEL


def cells_to_ranges(ids: np.ndarray) -> List[Tuple[int, int]]:
    """Sorted ids -> contiguous [lo, hi] ranges (for pruning parquet reads
    by tile-key predicates)."""
    ids = np.sort(np.asarray(ids, dtype=np.int64))
    if ids.size == 0:
        return []
    breaks = np.where(np.diff(ids) != 1)[0]
    starts = np.concatenate([[0], breaks + 1])
    ends = np.concatenate([breaks, [ids.size - 1]])
    return [(int(ids[s]), int(ids[e])) for s, e in zip(starts, ends)]


# ---------------------------------------------------------------------------
# Z-order (Morton) locality keys
# ---------------------------------------------------------------------------

_SPREAD_MASKS = (
    (np.uint64(16), np.uint64(0x0000FFFF0000FFFF)),
    (np.uint64(8), np.uint64(0x00FF00FF00FF00FF)),
    (np.uint64(4), np.uint64(0x0F0F0F0F0F0F0F0F)),
    (np.uint64(2), np.uint64(0x3333333333333333)),
    (np.uint64(1), np.uint64(0x5555555555555555)),
)


def _spread_bits(v: np.ndarray) -> np.ndarray:
    """Insert a zero between consecutive bits of each value (<= 32 bits)."""
    v = v.astype(np.uint64)
    for shift, mask in _SPREAD_MASKS:
        v = (v | (v << shift)) & mask
    return v


def morton_key(ix, iy, bits: int = 28) -> np.ndarray:
    """Vectorized Z-order key: interleave the low ``bits`` of (ix, iy)
    with ix on the even bit positions — the space-filling-curve sort /
    partition key (Morton 1966; the locality layout S2/geohash/Delta-
    style table clustering all build on).  Two points close on the
    curve are close on the grid, so range-partitioning the key gives
    spatially coherent shards."""
    if not 1 <= bits <= 28:
        raise ValueError("bits must be in [1, 28]")
    ix = np.asarray(ix, dtype=np.int64)
    iy = np.asarray(iy, dtype=np.int64)
    lim = np.int64(1) << bits
    if (ix < 0).any() or (iy < 0).any() or (ix >= lim).any() or (iy >= lim).any():
        raise ValueError(f"indices out of [0, 2^{bits})")
    return (_spread_bits(ix.astype(np.uint64)) | (_spread_bits(iy.astype(np.uint64)) << np.uint64(1))).astype(np.int64)


def morton_decode(zkey, bits: int = 28) -> Tuple[np.ndarray, np.ndarray]:
    """Inverse of :func:`morton_key`."""
    z = np.asarray(zkey, dtype=np.int64).astype(np.uint64)
    ix = np.zeros(z.shape, dtype=np.int64)
    iy = np.zeros(z.shape, dtype=np.int64)
    for b in range(int(bits)):
        ix |= ((z >> np.uint64(2 * b)) & np.uint64(1)).astype(np.int64) << b
        iy |= ((z >> np.uint64(2 * b + 1)) & np.uint64(1)).astype(np.int64) << b
    return ix, iy


def hilbert_key(ix, iy, bits: int = 14) -> np.ndarray:
    """Vectorized Hilbert-curve index (the classic xy2d bit algorithm,
    Hilbert 1891; public-domain formulation as on the Wikipedia
    "Hilbert curve" page): maps low-``bits`` (ix, iy) to d in
    [0, 4^bits).  Hilbert keys preserve locality strictly better than
    Morton — every curve step is a unit grid step, so range-partitioning
    the key yields shards with tighter bounding boxes (fewer partitions
    touched per spatial range scan) than ``morton_key``."""
    if not 1 <= bits <= 31:
        raise ValueError("bits must be in [1, 31]")
    x = np.asarray(ix, dtype=np.int64).copy()
    y = np.asarray(iy, dtype=np.int64).copy()
    n = np.int64(1) << bits
    if (x < 0).any() or (y < 0).any() or (x >= n).any() or (y >= n).any():
        raise ValueError(f"indices out of [0, 2^{bits})")
    d = np.zeros(np.broadcast(x, y).shape, dtype=np.int64)
    s = n >> 1
    while s > 0:
        rx = ((x & s) > 0).astype(np.int64)
        ry = ((y & s) > 0).astype(np.int64)
        d += s * s * ((3 * rx) ^ ry)
        # rotate/reflect the quadrant frame (ry == 0: swap, rx == 1:
        # reflect through the FULL grid complement n-1 — the canonical
        # xy2d convention)
        swap = ry == 0
        xr = np.where(rx == 1, n - 1 - x, x)
        yr = np.where(rx == 1, n - 1 - y, y)
        x, y = np.where(swap, yr, x), np.where(swap, xr, y)
        s >>= 1
    return d


def hilbert_decode(d, bits: int = 14):
    """Inverse of :func:`hilbert_key` (d2xy; rotations use the CURRENT
    sub-square size, per the canonical pair)."""
    t = np.asarray(d, dtype=np.int64).copy()
    x = np.zeros(t.shape, dtype=np.int64)
    y = np.zeros(t.shape, dtype=np.int64)
    s = np.int64(1)
    n = np.int64(1) << bits
    while s < n:
        rx = 1 & (t >> 1)
        ry = 1 & (t ^ rx)
        swap = ry == 0
        xr = np.where(rx == 1, s - 1 - x, x)
        yr = np.where(rx == 1, s - 1 - y, y)
        x, y = np.where(swap, yr, x), np.where(swap, xr, y)
        x += s * rx
        y += s * ry
        t >>= 2
        s <<= 1
    return x, y


GEOHASH32 = "0123456789bcdefghjkmnpqrstuvwxyz"


def geohash_encode(lon, lat, precision: int = 6):
    """Vectorized geohash (Niemeyer 2008): ``precision`` base-32 chars
    = 5*precision interleaved bits with LONGITUDE on the even positions
    counted from the MSB.  Returns ``(codes int64, strings)`` where
    ``codes`` is the raw interleaved integer (the sort/partition key)
    and ``strings`` the classic text hash.

    The integer lattice is ``floor((lon+180)/360 * 2^nbits_lon)``
    (clamped), matching the bisection definition exactly for points not
    on cell boundaries; the driver fixtures keep points off boundaries
    (the +0.001 offset, vectors.py)."""
    if not 1 <= precision <= 12:
        raise ValueError("precision must be in [1, 12]")
    nbits = 5 * precision
    nlon = (nbits + 1) // 2
    nlat = nbits // 2
    lon = np.asarray(lon, dtype=np.float64)
    lat = np.asarray(lat, dtype=np.float64)
    ix = np.clip(np.floor((lon + 180.0) / 360.0 * (1 << nlon)),
                 0, (1 << nlon) - 1).astype(np.int64)
    iy = np.clip(np.floor((lat + 90.0) / 180.0 * (1 << nlat)),
                 0, (1 << nlat) - 1).astype(np.int64)
    g = np.zeros(ix.shape, dtype=np.int64)
    for k in range(nlon):
        g |= ((ix >> (nlon - 1 - k)) & 1) << (nbits - 1 - 2 * k)
    for k in range(nlat):
        g |= ((iy >> (nlat - 1 - k)) & 1) << (nbits - 2 - 2 * k)
    chars = np.empty((len(np.atleast_1d(g)), precision), dtype="<U1")
    flat = np.atleast_1d(g)
    lut = np.asarray(list(GEOHASH32))
    for i in range(precision):
        chars[:, i] = lut[(flat >> (5 * (precision - 1 - i))) & 31]
    strings = np.array(["".join(row) for row in chars], dtype=object)
    return g, strings
