"""Affine north-oriented grid georeferencing — the engine's ``RasterGrid``.

Reimplements (from public behavior, not code) the semantics of the
reference's ``rasters/raster_grid.py``:

- ``affine`` maps (col, row) -> top-left CORNER of the cell;
  ``affine_center`` maps to cell centroids (raster_grid.py:369-387).
- Point->cell rule: ``col, row = ~affine_center * (x, y)`` then
  ``int(round(.))`` — nearest-center with banker's rounding
  (raster_grid.py:717-735). Vectorized here with ``np.rint`` (also
  half-to-even).
- Geometry->window rule: index the UL corner (xmin, ymax) and LR corner
  (xmax, ymin), ``row_end += 1; col_end += 1``, raise ``OutOfBoundsError``
  if disjoint, clamp to the grid (raster_grid.py:737-815).
- Subset: window -> slices -> new grid with shifted origin
  (raster_grid.py:817-833).
- ``to_dict`` schema: {type:'grid', crs, cell_width, cell_height,
  x_origin, y_origin, rows, cols} (raster_grid.py:1044-1072).

All functions are scalar-or-ndarray vectorized; nothing here touches Ray.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Tuple

import numpy as np

from .affine import Affine
from .windows import box_windows, point_cells


class OutOfBoundsError(Exception):
    """Target geometry does not intersect the source grid
    (reference ``rasters/out_of_bounds_error.py``)."""


@dataclass(frozen=True)
class Window:
    """Read window in (col_off, row_off, width, height) form — the shape of
    ``rasterio.windows.Window`` the reference exposes (raster_grid.py:806-815)."""

    col_off: int
    row_off: int
    width: int
    height: int

    def toslices(self) -> Tuple[slice, slice]:
        return (
            slice(self.row_off, self.row_off + self.height),
            slice(self.col_off, self.col_off + self.width),
        )


@dataclass(frozen=True)
class GridSpec:
    """North-oriented affine grid: CRS + origin + cell size + shape."""

    crs: str
    x_origin: float
    y_origin: float
    cell_width: float
    cell_height: float  # must be negative (north-up), raster_geometry.py:1019-1022
    rows: int
    cols: int

    def __post_init__(self):
        if self.cell_width <= 0:
            raise ValueError(f"cell_width must be positive: {self.cell_width}")
        if self.cell_height >= 0:
            raise ValueError(f"cell_height must be negative: {self.cell_height}")

    # ---- affine -----------------------------------------------------------

    @property
    def affine(self) -> Affine:
        """(col, row) -> top-left corner of cell."""
        return Affine(self.cell_width, 0.0, self.x_origin, 0.0, self.cell_height, self.y_origin)

    @property
    def affine_center(self) -> Affine:
        """(col, row) -> cell centroid."""
        return self.affine.translation(0.5, 0.5)

    @property
    def shape(self) -> Tuple[int, int]:
        return (self.rows, self.cols)

    # ---- coordinates ------------------------------------------------------

    @property
    def x(self) -> np.ndarray:
        """Vector of column-center x coordinates (length cols)."""
        return self.x_origin + self.cell_width * (np.arange(self.cols) + 0.5)

    @property
    def y(self) -> np.ndarray:
        """Vector of row-center y coordinates (length rows)."""
        return self.y_origin + self.cell_height * (np.arange(self.rows) + 0.5)

    def xy(self) -> Tuple[np.ndarray, np.ndarray]:
        """Full (rows, cols) center-coordinate meshes (raster_grid.py:707-715)."""
        cc, rr = np.meshgrid(np.arange(self.cols), np.arange(self.rows))
        return self.affine_center * (cc, rr)

    @property
    def bbox(self) -> Tuple[float, float, float, float]:
        """(xmin, ymin, xmax, ymax) of cell CORNERS (grid extent)."""
        x0 = self.x_origin
        x1 = self.x_origin + self.cell_width * self.cols
        y0 = self.y_origin
        y1 = self.y_origin + self.cell_height * self.rows
        return (min(x0, x1), min(y0, y1), max(x0, x1), max(y0, y1))

    @property
    def centroid(self) -> Tuple[float, float]:
        xmin, ymin, xmax, ymax = self.bbox
        return ((xmin + xmax) / 2.0, (ymin + ymax) / 2.0)

    # ---- point -> cell (the join primitive) --------------------------------

    def index_points(self, x, y) -> Tuple[np.ndarray, np.ndarray]:
        """Vectorized point->cell: (row, col) int64 arrays.

        Exactly the reference rule ``col, row = ~affine_center * (x, y)``
        then ``int(round(.))`` (raster_grid.py:717-735); np.rint is
        half-to-even like Python round. NaN inputs produce row/col of
        np.iinfo(int64).min (callers must mask with the returned validity).
        """
        return point_cells(
            self.x_origin, self.y_origin, self.cell_width, self.cell_height,
            np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64),
        )

    def index_point(self, x: float, y: float) -> Tuple[int, int]:
        """Scalar point->cell as (row, col) — matches int(round(.))."""
        row, col = self.index_points(x, y)
        return int(row), int(col)

    def contains_rowcol(self, row, col) -> np.ndarray:
        row = np.asarray(row)
        col = np.asarray(col)
        return (row >= 0) & (row < self.rows) & (col >= 0) & (col < self.cols)

    # ---- geometry -> window -------------------------------------------------

    def index(self, bbox: Tuple[float, float, float, float]) -> Tuple[slice, slice]:
        """bbox (native CRS) -> (row_slice, col_slice), +1 ends, clamped;
        OutOfBoundsError if disjoint (raster_grid.py:737-768)."""
        win = self.window(bbox)
        return win.toslices()

    def window(
        self, bbox: Tuple[float, float, float, float], buffer: Optional[int] = None
    ) -> Window:
        """bbox (native CRS) -> Window, with optional pixel buffer applied
        BEFORE clamping (raster_grid.py:770-815)."""
        ro, co, hh, ww, valid = box_windows(
            self.x_origin, self.y_origin, self.cell_width, self.cell_height, self.rows, self.cols,
            *(np.array([v], dtype=np.float64) for v in bbox), buffer=buffer or 0,
        )
        if not valid[0]:
            raise OutOfBoundsError(
                f"target geometry {tuple(bbox)} is not within source geometry "
                f"rows: {self.rows} cols: {self.cols}"
            )
        return Window(col_off=int(co[0]), row_off=int(ro[0]), width=int(ww[0]), height=int(hh[0]))

    def windows_for_bboxes(self, xmin, ymin, xmax, ymax):
        """Vectorized window rule over bbox arrays.

        Returns (row_off, col_off, height, width, valid) int64/bool arrays;
        valid=False marks disjoint boxes (the scalar path raises
        OutOfBoundsError instead, raster_grid.py:757-760)."""
        return box_windows(
            self.x_origin, self.y_origin, self.cell_width, self.cell_height,
            self.rows, self.cols,
            *(np.asarray(v, dtype=np.float64) for v in (xmin, ymin, xmax, ymax)),
        )

    def subset(self, window: Window) -> "GridSpec":
        """Window -> new grid with shifted origin (raster_grid.py:817-833)."""
        return GridSpec(
            crs=self.crs,
            x_origin=self.x_origin + window.col_off * self.cell_width,
            y_origin=self.y_origin + window.row_off * self.cell_height,
            cell_width=self.cell_width,
            cell_height=self.cell_height,
            rows=window.height,
            cols=window.width,
        )

    def __getitem__(self, slices: Tuple[slice, slice]) -> "GridSpec":
        rs, cs = slices
        r0, r1, _ = rs.indices(self.rows)
        c0, c1, _ = cs.indices(self.cols)
        return self.subset(Window(col_off=c0, row_off=r0, width=c1 - c0, height=r1 - r0))

    # ---- derivation / merge -------------------------------------------------

    @classmethod
    def from_bbox(
        cls,
        bbox: Tuple[float, float, float, float],
        cell_size: float,
        crs: str = "EPSG:4326",
    ) -> "GridSpec":
        """Covering grid for a bbox at a cell size (raster_grid.py:324-348 analog)."""
        xmin, ymin, xmax, ymax = bbox
        cols = max(1, int(np.ceil((xmax - xmin) / cell_size)))
        rows = max(1, int(np.ceil((ymax - ymin) / cell_size)))
        return cls(
            crs=crs,
            x_origin=xmin,
            y_origin=ymax,
            cell_width=cell_size,
            cell_height=-cell_size,
            rows=rows,
            cols=cols,
        )

    @classmethod
    def merge(cls, grids: Iterable["GridSpec"]) -> "GridSpec":
        """Merged bbox + min cell size -> one covering grid
        (raster_grid.py:324-348 + bbox.py:81-108). All grids must share a CRS."""
        grids = list(grids)
        if not grids:
            raise ValueError("no grids to merge")
        crs = grids[0].crs
        if any(g.crs != crs for g in grids):
            raise ValueError("merge requires a common CRS")
        boxes = np.array([g.bbox for g in grids])
        xmin, ymin = boxes[:, 0].min(), boxes[:, 1].min()
        xmax, ymax = boxes[:, 2].max(), boxes[:, 3].max()
        cell = min(min(g.cell_width, -g.cell_height) for g in grids)
        return cls.from_bbox((xmin, ymin, xmax, ymax), cell, crs)

    # ---- scalar geometry fns -------------------------------------------------

    def buffer(self, pixels: int) -> "GridSpec":
        """Grow the grid by N pixels on every side (raster_grid.py:576-…)."""
        return GridSpec(
            crs=self.crs,
            x_origin=self.x_origin - pixels * self.cell_width,
            y_origin=self.y_origin - pixels * self.cell_height,
            cell_width=self.cell_width,
            cell_height=self.cell_height,
            rows=self.rows + 2 * pixels,
            cols=self.cols + 2 * pixels,
        )

    def shift_xy(self, x_shift: float, y_shift: float) -> "GridSpec":
        return GridSpec(
            crs=self.crs,
            x_origin=self.x_origin + x_shift,
            y_origin=self.y_origin + y_shift,
            cell_width=self.cell_width,
            cell_height=self.cell_height,
            rows=self.rows,
            cols=self.cols,
        )

    def rescale(self, cell_size: float) -> "GridSpec":
        """New cell size over the same extent (raster_geometry.py:399-406 analog)."""
        xmin, ymin, xmax, ymax = self.bbox
        return GridSpec.from_bbox((xmin, ymin, xmax, ymax), cell_size, self.crs)

    def resolution(self, cell_size) -> "GridSpec":
        """New (width, height) cell size from the same origin
        (raster_grid.py:576-600; the reference's scalar branch calls
        len() on a float and so only ever worked for 1/2-tuples — here a
        scalar means square cells, which is the documented intent)."""
        if np.isscalar(cell_size):
            cw, ch = float(cell_size), -float(cell_size)
        elif len(cell_size) == 1:
            cw, ch = float(cell_size[0]), -float(cell_size[0])
        elif len(cell_size) == 2:
            cw, ch = float(cell_size[0]), float(cell_size[1])
        else:
            raise ValueError(f"invalid cell size: {cell_size}")
        height = abs(self.cell_height) * self.rows
        width = self.cell_width * self.cols
        return GridSpec(
            crs=self.crs,
            x_origin=self.x_origin,
            y_origin=self.y_origin,
            cell_width=cw,
            cell_height=ch,
            rows=int(height / abs(ch)),
            cols=int(width / cw),
        )

    def shift_distance(self, distance: float, direction: float) -> "GridSpec":
        """Shift by a distance along a compass-math direction in degrees
        (raster_grid.py:851-866: x += d*cos(dir), y += d*sin(dir))."""
        return self.shift_xy(
            distance * float(np.cos(np.radians(direction))),
            distance * float(np.sin(np.radians(direction))),
        )

    @property
    def coverage(self) -> Dict:
        """CoverageJSON-style domain metadata (raster_grid.py:1014-1042):
        cell-center start/stop per axis + counts."""
        ymin = self.y_origin + self.cell_height * self.rows
        return {
            "type": "Coverage",
            "domain": {
                "type": "Domain",
                "domainType": "Grid",
                "axes": {
                    "x": {
                        "start": self.x_origin + self.cell_width / 2,
                        "stop": self.x_origin + self.cell_width * self.cols
                        - self.cell_width / 2,
                        "num": self.cols,
                    },
                    "y": {
                        # reference expresses y in terms of a positive
                        # cell_height step from the bottom edge
                        "start": ymin - self.cell_height / 2,
                        "stop": self.y_origin + self.cell_height / 2,
                        "num": self.rows,
                    },
                },
            },
            "referencing": [{"crs": self.crs}],
        }

    @property
    def cell_size_meters(self) -> float:
        """Geographic CRS heuristic: cell_size / 180 * 40075017.0
        (raster_geometry.py:682-693). Projected CRS: cell size is meters."""
        cell = max(self.cell_width, -self.cell_height)
        if _is_geographic(self.crs):
            return cell / 180.0 * 40075017.0
        return cell

    # ---- (de)serialization ---------------------------------------------------

    def to_dict(self) -> Dict:
        """The reference's grid dict schema (raster_grid.py:1044-1072)."""
        return {
            "type": "grid",
            "crs": self.crs,
            "cell_width": float(self.cell_width),
            "cell_height": float(self.cell_height),
            "x_origin": float(self.x_origin),
            "y_origin": float(self.y_origin),
            "rows": int(self.rows),
            "cols": int(self.cols),
        }

    @classmethod
    def from_dict(cls, d: Dict) -> "GridSpec":
        if d.get("type", "grid") != "grid":
            raise ValueError(f"not a grid dict: {d.get('type')}")
        return cls(
            crs=str(d["crs"]),
            x_origin=float(d["x_origin"]),
            y_origin=float(d["y_origin"]),
            cell_width=float(d["cell_width"]),
            cell_height=float(d["cell_height"]),
            rows=int(d["rows"]),
            cols=int(d["cols"]),
        )


def _is_geographic(crs: str) -> bool:
    from ..proj.crs import is_geographic

    return is_geographic(crs)
