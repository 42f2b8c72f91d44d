"""Flagship pipeline: spatial-join + tiling over the image+caption table.

End-to-end, all streaming (the north-star job the bench measures):

    read images (parquet / synthesized)
      -> tile_images            # covering-cell assignment + window slicing
      -> write tiles partitioned by image-id hash   (resumable, §checkpoint)
    read images
      -> sample_points          # broadcast point buckets, stateless tasks
    tiles -> composite_cells    # one cell_key exchange, merge composite

``run_flagship_partitioned`` runs the tiling leg as one resumable job:
the input is read once, in one streaming execution whose sink routes
each tile to partition ``hash_parts(image_id, n_partitions)``; the
driver then commits every pending partition with the checkpoint
module's protocol.  A job killed mid-execution redoes all of its
pending partitions on resume; a job killed between commits keeps the
committed ones.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
from ray.data import Datasink
from ray.data.block import BlockAccessor

from .. import checkpoint
from ..stages import sample_points, tile_images
from ..util import hash_parts


def flagship_tiles(images_ds, level: int = 8):
    return tile_images(images_ds, level=level)


def flagship_join(images_ds, points: pa.Table, level: int = 8, **kw):
    return sample_points(images_ds, points, level=level, **kw)


def _partition_id(k: int) -> str:
    return f"part-{k:05d}"


class PartitionSink(Datasink):
    """Writes each block's rows into the tmp dir of partition
    ``hash_parts(image_id, n_partitions)``: one parquet file per (write
    task, partition), named by the task index, so a retried task
    overwrites its own file instead of adding a second one.

    ``write`` returns ``{(partition, task_idx): (partition, rows, bytes)}``;
    ``on_write_complete`` sums them per partition into ``totals``
    (partition -> [rows, bytes]) on the driver."""

    def __init__(self, root: str, n_partitions: int):
        self.root = root
        self.n_partitions = n_partitions
        self.totals = {}

    def write(self, blocks, ctx):
        pieces = {}
        for block in blocks:
            t = BlockAccessor.for_block(block).to_arrow()
            if t.num_rows == 0:
                continue
            parts = hash_parts(t.column("image_id"), self.n_partitions)
            for k in np.unique(parts):
                pieces.setdefault(int(k), []).append(t.filter(parts == k))
        written = {}
        for k, tables in pieces.items():
            tmp = checkpoint.tmp_dir(self.root, _partition_id(k))
            path = os.path.join(tmp, f"task-{ctx.task_idx:06d}.parquet")
            table = pa.concat_tables(tables)
            pq.write_table(table, path)
            written[(k, ctx.task_idx)] = (k, table.num_rows, os.path.getsize(path))
        return written

    def on_write_complete(self, write_result):
        files = {}
        for ret in write_result.write_returns:
            files.update(ret)
        for k, rows, nbytes in files.values():
            tot = self.totals.setdefault(k, [0, 0])
            tot[0] += rows
            tot[1] += nbytes


def run_flagship_partitioned(
    make_images_ds,
    root: str,
    n_partitions: int,
    level: int = 8,
    resume: bool = True,
):
    """Resumable tiling job over ``n_partitions`` image-id hash buckets
    (lineage ``{"hash": "image_id", "part": k, "of": n_partitions}``).

    make_images_ds(lo, hi) -> Dataset of images for id range [lo, hi);
    it is called once, for [0, make_images_ds.total).  Rows of completed
    partitions are dropped, the rest are tiled and written in one
    streaming execution, then each pending partition — an empty one too —
    gets its directory and manifest row.  A crash during the execution
    leaves only tmp dirs, so the rerun redoes every pending partition.
    """
    total = getattr(make_images_ds, "total", None)
    if total is None:
        raise ValueError("make_images_ds must carry .total (number of images)")
    parts = [
        {
            "partition_id": _partition_id(k),
            "inputs": [{"hash": "image_id", "part": k, "of": n_partitions}],
        }
        for k in range(n_partitions)
    ]
    rows, pending = checkpoint.pending_partitions(root, parts, resume=resume)
    if pending:
        keep = np.array([p["inputs"][0]["part"] for p in pending], np.int64)

        def keep_pending(t: pa.Table) -> pa.Table:
            return t.filter(np.isin(hash_parts(t.column("image_id"), n_partitions), keep))

        images = make_images_ds(0, total).map_batches(keep_pending, batch_format="pyarrow")
        sink = PartitionSink(root, n_partitions)
        t0 = time.perf_counter()
        tile_images(images, level=level).write_datasink(sink)
        wall_ms = (time.perf_counter() - t0) * 1000.0
        for part in pending:
            n_rows, nbytes = sink.totals.get(part["inputs"][0]["part"], (0, 0))
            rows[part["partition_id"]] = checkpoint.commit_partition(
                root, part, n_rows, wall_ms, nbytes=nbytes
            )
    return [rows[p["partition_id"]] for p in parts]
