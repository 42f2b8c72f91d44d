"""Swath (per-pixel coordinate array) georeferencing — the engine's
``RasterGeolocation``.

Semantics mirrored from the reference ``rasters/raster_geolocation.py``:

- explicit 2D ``x[rows, cols]`` / ``y[rows, cols]`` arrays; NaN coordinates
  rejected; geographic coords clipped to [-180, 179.9999] x [-90, 90]
  (raster_geolocation.py:34-71).
- ``index_point``: nearest neighbor over raveled (x, y) then unravel
  (raster_geolocation.py:130-143). The reference builds a cKDTree per call;
  here the index is a reusable uniform-bucket grid (built once, cached,
  and shipped with the swath when it is broadcast).
- ``index(bbox)``: boolean mask with INCLUSIVE bounds
  (raster_geolocation.py:145-172).
- ``window(bbox, buffer)``: min/max extents of true cells, +1 inclusive
  size; buffer applied then clamped; raises ValueError("No points found
  within the target geometry.") when empty (raster_geolocation.py:374-409).
- ``subset(window)``: plain array slices (raster_geolocation.py:411-427).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from .gridspec import Window


class SwathSpec:
    def __init__(self, x: np.ndarray, y: np.ndarray, crs: str = "EPSG:4326"):
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if x.ndim != 2 or y.ndim != 2 or x.shape != y.shape:
            raise ValueError(f"x/y must be matching 2D arrays: {x.shape} vs {y.shape}")
        if np.isnan(x).any() or np.isnan(y).any():
            raise ValueError("swath coordinates must not contain NaN")
        from ..proj.crs import is_geographic

        if is_geographic(crs):
            # reference clip: [-180, 179.9999] x [-90, 90] (raster_geolocation.py:60-66)
            x = np.clip(x, -180.0, 179.9999)
            y = np.clip(y, -90.0, 90.0)
        self.x = x
        self.y = y
        self.crs = crs
        self._nn_index = None

    @property
    def rows(self) -> int:
        return self.x.shape[0]

    @property
    def cols(self) -> int:
        return self.x.shape[1]

    @property
    def shape(self) -> Tuple[int, int]:
        return self.x.shape

    @property
    def bbox(self) -> Tuple[float, float, float, float]:
        return (
            float(self.x.min()),
            float(self.y.min()),
            float(self.x.max()),
            float(self.y.max()),
        )

    # ---- nearest-cell lookup -------------------------------------------------

    def _index(self):
        if self._nn_index is None:
            from ..state.gridindex import GridNNIndex

            self._nn_index = GridNNIndex(self.x.ravel(), self.y.ravel())
        return self._nn_index

    def index_points(self, px, py) -> Tuple[np.ndarray, np.ndarray]:
        """Vectorized nearest-cell lookup: (row, col) of the nearest swath
        cell for each query point (amortized index vs the reference's
        per-call cKDTree, raster_geolocation.py:130-143)."""
        flat, _dist = self._index().query(np.asarray(px, float), np.asarray(py, float))
        row, col = np.unravel_index(flat, self.shape)
        return row.astype(np.int64), col.astype(np.int64)

    def index_point(self, px: float, py: float) -> Tuple[int, int]:
        row, col = self.index_points([px], [py])
        return int(row[0]), int(col[0])

    # ---- bbox mask / window ----------------------------------------------------

    def index(self, bbox: Tuple[float, float, float, float]) -> np.ndarray:
        """Inclusive-bounds boolean mask (raster_geolocation.py:145-172)."""
        xmin, ymin, xmax, ymax = bbox
        return (self.x >= xmin) & (self.x <= xmax) & (self.y >= ymin) & (self.y <= ymax)

    def window(
        self, bbox: Tuple[float, float, float, float], buffer: Optional[int] = None
    ) -> Window:
        mask = self.index(bbox)
        rows, cols = np.where(mask)
        if rows.size == 0 or cols.size == 0:
            raise ValueError("No points found within the target geometry.")
        row_off = int(rows.min())
        col_off = int(cols.min())
        height = int(rows.max() - rows.min() + 1)
        width = int(cols.max() - cols.min() + 1)
        if buffer is not None and buffer > 0:
            row_off = max(0, row_off - buffer)
            col_off = max(0, col_off - buffer)
            height = min(self.rows - row_off, height + 2 * buffer)
            width = min(self.cols - col_off, width + 2 * buffer)
        return Window(col_off=col_off, row_off=row_off, width=width, height=height)

    def subset(self, window: Window) -> "SwathSpec":
        rs, cs = window.toslices()
        return SwathSpec(self.x[rs, cs], self.y[rs, cs], crs=self.crs)

    # ---- (de)serialization ---------------------------------------------------

    def to_dict(self) -> Dict:
        """The reference's swath dict schema (raster_geolocation.py:345-372):
        flattened x/y + rows/cols."""
        return {
            "type": "swath",
            "crs": self.crs,
            "x": self.x.ravel().tolist(),
            "y": self.y.ravel().tolist(),
            "rows": int(self.rows),
            "cols": int(self.cols),
        }

    @classmethod
    def from_dict(cls, d: Dict) -> "SwathSpec":
        if d.get("type") != "swath":
            raise ValueError(f"not a swath dict: {d.get('type')}")
        rows, cols = int(d["rows"]), int(d["cols"])
        x = np.asarray(d["x"], dtype=np.float64).reshape(rows, cols)
        y = np.asarray(d["y"], dtype=np.float64).reshape(rows, cols)
        return cls(x, y, crs=str(d["crs"]))

    @classmethod
    def from_vectors(cls, x_vector, y_vector, crs: str = "EPSG:4326") -> "SwathSpec":
        x, y = np.meshgrid(np.asarray(x_vector, float), np.asarray(y_vector, float))
        return cls(x, y, crs=crs)

    def resize(self, rows: int, cols: int) -> "SwathSpec":
        """Bilinear zoom of the coordinate arrays to a new shape, with the
        antimeridian +360 shift before interpolation
        (raster_geolocation.py:294-333: the reference uses spline zoom;
        bilinear is exact for the affine-like coordinate fields swaths
        carry and avoids ringing)."""
        from ..grids.geomops import crosses_antimeridian

        x = self.x
        if crosses_antimeridian(self):
            x = np.where(x < 0, x + 360.0, x)

        def zoom(a: np.ndarray) -> np.ndarray:
            r = np.linspace(0, a.shape[0] - 1, rows)
            c = np.linspace(0, a.shape[1] - 1, cols)
            r0 = np.floor(r).astype(int)
            c0 = np.floor(c).astype(int)
            r1 = np.minimum(r0 + 1, a.shape[0] - 1)
            c1 = np.minimum(c0 + 1, a.shape[1] - 1)
            fr = (r - r0)[:, None]
            fc = (c - c0)[None, :]
            return (
                a[np.ix_(r0, c0)] * (1 - fr) * (1 - fc)
                + a[np.ix_(r1, c0)] * fr * (1 - fc)
                + a[np.ix_(r0, c1)] * (1 - fr) * fc
                + a[np.ix_(r1, c1)] * fr * fc
            )

        zx = zoom(x)
        zx = np.where(zx > 180.0, zx - 360.0, zx)
        return SwathSpec(zx, zoom(self.y), crs=self.crs)

    def cell_size(self) -> float:
        """Median neighbor distance (raster_geometry.py:647-668 analog)."""
        dx = np.abs(np.diff(self.x, axis=1))
        dy = np.abs(np.diff(self.y, axis=0))
        return float(np.median(np.concatenate([dx.ravel(), dy.ravel()])))
