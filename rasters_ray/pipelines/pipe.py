"""``pipe``: the user-extension veneer over Ray Data (SURVEY.md §2.10).

The reference exposes its UDF surface through numpy-protocol hooks and
``__getattr__`` delegation (raster.py:147-175, 971-978): any ndarray
function works on a Raster. The engine equivalent is compositional:

- ``pipe(ds, *stages, **map_kw)`` chains batch-UDF stages, each either a
  plain callable or a class (built once on the driver, called per
  batch); every stage runs as stateless ``map_batches`` tasks;
- ``pixel_udf(fn)`` turns a unary ndarray function into such a stage
  (decode -> fn -> re-encode), mirroring the lifted-numpy surface;
- geometry codecs (GridSpec/SwathSpec from_dict/to_dict) are the plugin
  point for custom geometry types.
"""

from __future__ import annotations

import inspect
from typing import Callable

import numpy as np

from ..stages.elementwise import _map_pixels


def pixel_udf(fn: Callable[[np.ndarray], np.ndarray]) -> Callable:
    """Batch stage applying a unary ndarray UDF to each image's pixels."""

    def stage(batch):
        return _map_pixels(batch, fn)

    stage.__name__ = f"pixel_udf({getattr(fn, '__name__', 'fn')})"
    return stage


def pipe(ds, *stages, **map_kw):
    """Chain batch-UDF stages over a Dataset: ``pipe(ds, f, g, Cls)`` ==
    ``ds.map_batches(f).map_batches(g).map_batches(Cls())``.  A class is
    instantiated once on the driver; every stage runs as stateless tasks,
    so no CPU is reserved for an actor pool. ``map_kw`` applies to every
    stage (batch_format defaults to pyarrow)."""
    map_kw.setdefault("batch_format", "pyarrow")
    for stage in stages:
        ds = ds.map_batches(stage() if inspect.isclass(stage) else stage, **map_kw)
    return ds
