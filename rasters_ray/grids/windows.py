"""The window rule: which pixels of a grid a box covers.

One array function behind ``GridSpec.index_points`` / ``window`` /
``windows_for_bboxes`` (one grid) and ``stages.tiling.make_tiles`` (one
grid per tile), so they cannot drift apart.  Grid parameters broadcast
against the point or box arrays.
"""

from __future__ import annotations

import numpy as np


def point_cells(x_origin, y_origin, cell_width, cell_height, x, y):
    """Point -> (row, col) int64 arrays by the reference rule
    ``col, row = ~affine_center * (x, y)`` then ``int(round(.))``
    (raster_grid.py:717-735); np.rint is half-to-even like Python round.
    Non-finite inputs give np.iinfo(int64).min."""
    colf = (x - x_origin) / cell_width - 0.5
    rowf = (y - y_origin) / cell_height - 0.5
    finite = np.isfinite(colf) & np.isfinite(rowf)
    col = np.where(finite, np.rint(colf), np.iinfo(np.int64).min).astype(np.int64)
    row = np.where(finite, np.rint(rowf), np.iinfo(np.int64).min).astype(np.int64)
    return row, col


def box_windows(x_origin, y_origin, cell_width, cell_height, rows, cols,
                xmin, ymin, xmax, ymax, buffer: int = 0):
    """Boxes -> (row_off, col_off, height, width, valid) int64/bool arrays.

    The window runs from the cell of the upper-left corner to the cell of
    the lower-right corner (+1 ends), is widened by ``buffer`` pixels and
    clamped to the grid; valid=False marks boxes disjoint from the grid
    (raster_grid.py:737-815)."""
    row_start, col_start = point_cells(x_origin, y_origin, cell_width, cell_height, xmin, ymax)
    row_end, col_end = point_cells(x_origin, y_origin, cell_width, cell_height, xmax, ymin)
    row_end = row_end + 1
    col_end = col_end + 1
    valid = ~((row_end < 0) | (col_end < 0) | (row_start > rows) | (col_start > cols))
    row_start = np.clip(row_start - buffer, 0, rows)
    col_start = np.clip(col_start - buffer, 0, cols)
    row_end = np.clip(row_end + buffer, 0, rows)
    col_end = np.clip(col_end + buffer, 0, cols)
    return row_start, col_start, row_end - row_start, col_end - col_start, valid
