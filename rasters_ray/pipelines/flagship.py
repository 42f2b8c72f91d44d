"""Flagship pipeline: spatial-join + tiling over the image+caption table.

End-to-end, all streaming (the north-star job the bench measures):

    read images (parquet / synthesized)
      -> tile_images            # covering-cell assignment + window slicing
      -> write tiles partitioned by cell-key prefix   (resumable, §checkpoint)
    read images
      -> sample_points          # broadcast point buckets, stateless tasks
    tiles -> composite_cells    # groupby(cell_key) merge composite

``run_flagship_partitioned`` wraps the tiling leg in the per-partition
checkpoint manifest (resume skips completed partitions).
"""

from __future__ import annotations

import os
from typing import Optional

import pyarrow as pa

from .. import checkpoint
from ..stages import sample_points, tile_images


def flagship_tiles(images_ds, level: int = 8):
    return tile_images(images_ds, level=level)


def flagship_join(images_ds, points: pa.Table, level: int = 8, **kw):
    return sample_points(images_ds, points, level=level, **kw)


def run_flagship_partitioned(
    make_images_ds,
    root: str,
    n_partitions: int,
    level: int = 8,
    resume: bool = True,
):
    """Resumable tiling job: the image id space is split into n_partitions
    contiguous ranges; each partition runs the tiling pipeline over its
    range and writes one parquet directory + manifest row.

    make_images_ds(lo, hi) -> Dataset of images for id range [lo, hi).
    """

    def run_one(part: dict, out_dir: str) -> int:
        lo, hi = part["inputs"][0]["lo"], part["inputs"][0]["hi"]
        ds = make_images_ds(lo, hi)
        tiles = tile_images(ds, level=level)
        tiles.write_parquet(out_dir)
        import pyarrow.dataset as pads

        return sum(f.count_rows() for f in pads.dataset(out_dir).get_fragments())

    # equal id ranges as partitions (lineage = the range)
    total = getattr(make_images_ds, "total", None)
    if total is None:
        raise ValueError("make_images_ds must carry .total (number of images)")
    step = max(1, total // n_partitions)
    parts = []
    lo = 0
    i = 0
    while lo < total:
        hi = min(lo + step, total)
        parts.append({"partition_id": f"part-{i:05d}", "inputs": [{"lo": lo, "hi": hi}]})
        lo = hi
        i += 1
    return checkpoint.run_partitioned(root, parts, run_one, resume=resume)
