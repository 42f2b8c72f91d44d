"""The covering rule: which cells of a level a box touches, and where
those cells lie.

One set of array functions behind ``cellkey.covering_cells`` and
``cellkey.cell_bounds`` (one box or id list), ``stages.tiling.make_tiles``
and ``stages.point_join.sample_points_batch`` (every image of a batch at
once), so the cell geometry is written down once and the paths cannot
drift apart.
"""

from __future__ import annotations

import numpy as np


def cell_size(level):
    """(width, height) in degrees of the cells at ``level`` (an int or an
    int64 array)."""
    n = (np.int64(1) << np.asarray(level, dtype=np.int64)).astype(np.float64)
    return 360.0 / n, 180.0 / n


def cell_boxes(level, ix, iy):
    """(xmin, ymin, xmax, ymax) of the cells (level, ix, iy)."""
    w, h = cell_size(level)
    xmin = -180.0 + ix * w
    ymax = 90.0 - iy * h
    return xmin, ymax - h, xmin + w, ymax


def cell_ranges(level: int, xmin, ymin, xmax, ymax):
    """Inclusive index ranges (ix0, ix1, iy0, iy1) of the cells at
    ``level`` that intersect boxes with ``xmin <= xmax`` (int64 arrays, or
    numpy scalars for scalar input).  A box edge that falls exactly on a
    cell boundary does not reach into the next cell."""
    n = 1 << level
    w, h = cell_size(level)
    ix0 = np.maximum(0, np.floor((xmin + 180.0) / w).astype(np.int64))
    ix1 = np.minimum(n - 1, np.floor((xmax + 180.0) / w - 1e-12).astype(np.int64))
    ix1 = np.maximum(ix1, ix0)
    iy0 = np.maximum(0, np.floor((90.0 - ymax) / h).astype(np.int64))
    iy1 = np.minimum(n - 1, np.floor((90.0 - ymin) / h - 1e-12).astype(np.int64))
    iy1 = np.maximum(iy1, iy0)
    return ix0, ix1, iy0, iy1


def ragged(counts):
    """(owner, offset) of a ragged expansion: owner k appears counts[k]
    times in a row, and offset runs 0..counts[k]-1 within each run."""
    owner = np.repeat(np.arange(counts.size, dtype=np.int64), counts)
    starts = np.cumsum(counts) - counts
    return owner, np.arange(owner.size, dtype=np.int64) - starts[owner]


def covering_rows(level: int, xmin, ymin, xmax, ymax):
    """Every (box, cell) pair of the coverings of boxes with
    ``xmin <= xmax``: (box, ix, iy) int64 arrays, box by box, and within a
    box iy-major with ix fastest — the order in which
    ``cellkey.covering_cells`` lists one box's cells."""
    ix0, ix1, iy0, iy1 = cell_ranges(level, xmin, ymin, xmax, ymax)
    nx = ix1 - ix0 + 1
    box, o = ragged(nx * (iy1 - iy0 + 1))
    return box, ix0[box] + o % nx[box], iy0[box] + o // nx[box]
