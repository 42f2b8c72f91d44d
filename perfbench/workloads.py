"""The four workloads: job, correctness check, yardstick, one-process
floor and per-layer measurements.

Each job is one closed-loop request: the Ray driver process submits it,
waits for the complete result and only then submits the next.  The three image
workloads share one seeded image table.

- ``tile_job``: the resumable tiling job, ``run_flagship_partitioned``
  into a fresh output root, partitions fed the way
  ``scripts/job_entry.py --input`` feeds them (each partition reads the
  whole input and keeps its id range).
- ``point_sample``: ``sample_points(include_misses=True)`` of the seeded
  points through the images.
- ``composite``: ``tile_images`` of the lattice-aligned images, then
  ``composite_cells(merge_mean, salt="auto")``.
- ``relational_join``: lineitem ⋈ orders ⋈ customer grouped integer sum
  (``broadcast_join`` + ``hash_join`` + ``grouped_int_sums``).
"""

from __future__ import annotations

import glob
import json
import os
import shutil
import time
from contextlib import contextmanager

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from . import inputs, reference

LEVEL = 8
CELL_SIZE = inputs.ALIGNED_CELL
REL_KEYS = ["c_mktsegment", "o_orderpriority"]

SCALES = {
    "bench": {"images": 200, "points": 15000, "partitions": 4,
              "lineitem": 600_000, "orders": 150_000, "customer": 15_000},
    "smoke": {"images": 24, "points": 600, "partitions": 2,
              "lineitem": 4000, "orders": 1000, "customer": 100},
}


def _batches(table: pa.Table, size: int):
    for lo in range(0, table.num_rows, size):
        yield table.slice(lo, size)


def _concat(tables, schema) -> pa.Table:
    tables = [t for t in tables if t.num_rows]
    return pa.concat_tables(tables) if tables else schema.empty_table()


def _result(ds, capture):
    """Execute a dataset and return its rows as one Arrow table."""
    import ray

    done = ds.materialize()
    if capture is not None:
        capture.append(done)
    refs = done.to_arrow_refs()
    tables = [t for t in ray.get(refs) if t.num_columns]
    return pa.concat_tables(tables) if tables else None


def _cached_json(cache: str, name: str, build) -> dict:
    path = os.path.join(cache, f"{name}-v{reference.VERSION}.json")
    if os.path.exists(path):
        os.utime(path)
        with open(path) as f:
            return json.load(f)
    value = build()
    with open(path + ".tmp", "w") as f:
        json.dump(value, f)
    os.replace(path + ".tmp", path)
    return value


def aligned_only(t: pa.Table) -> pa.Table:
    """Images already on the composite lattice."""
    return t.filter(pc.equal(pc.struct_field(t.column("grid"), "cell_width"), CELL_SIZE))


def job_entry_feed(input_path: str):
    """``make_images_ds`` exactly as ``scripts/job_entry.py --input``
    builds it: every partition reads the whole input, then keeps its
    contiguous ``imgNNNNNNNN`` id range."""
    import pyarrow.dataset as pads
    import ray.data as rd

    total = pads.dataset(input_path).count_rows()

    def make_images_ds(lo: int, hi: int):
        def cut(t):
            ids = pc.utf8_slice_codeunits(t.column("image_id"), 3, 11)
            num = pc.cast(ids, "int64")
            keep = pc.and_(pc.greater_equal(num, lo), pc.less(num, hi))
            return t.filter(keep)

        return rd.read_parquet(input_path).map_batches(cut, batch_format="pyarrow")

    make_images_ds.total = total
    return make_images_ds


def fold_revenue(t: pa.Table) -> pa.Table:
    """lineitem -> (l_orderkey, revenue_c): one int64 per row before the
    exchange."""
    return pa.table({
        "l_orderkey": t.column("l_orderkey"),
        "revenue_c": pa.array(reference.revenue_cents(
            t.column("l_extendedprice").to_numpy(zero_copy_only=False),
            t.column("l_discount").to_numpy(zero_copy_only=False)), pa.int64()),
    })


def revenue_values(t: pa.Table) -> dict:
    return {"revenue_c": t.column("revenue_c").to_numpy(zero_copy_only=False)}


def drop_custkey(t: pa.Table) -> pa.Table:
    return t.select(["o_orderkey", "o_orderpriority", "c_mktsegment"])


def sum_partial(t: pa.Table) -> pa.Table:
    from rasters_ray.relational import int_sum_partial

    return int_sum_partial(t, REL_KEYS, revenue_values)


def _image_means(t: pa.Table) -> pa.Table:
    """The yardstick's work: one mean pixel value per image, decoded by
    the benchmark's own decoders."""
    means = [float(reference.decode(b.as_buffer(), f).mean())
             for b, f in zip(t.column("bytes"), t.column("fmt").to_pylist())]
    return pa.table({"image_id": t.column("image_id"), "mean": pa.array(means, pa.float64())})


def _with_means(t: pa.Table) -> pa.Table:
    return t.append_column("mean", _image_means(t).column("mean"))


@contextmanager
def _capture_tiles(capture):
    """While tracing, keep each tiles dataset the checkpointed job builds
    so its executed operator table can be read afterwards."""
    if capture is None:
        yield
        return
    from rasters_ray.pipelines import flagship

    original = flagship.tile_images

    def tile_images(ds, **kw):
        out = original(ds, **kw)
        capture.append(out)
        return out

    flagship.tile_images = tile_images
    try:
        yield
    finally:
        flagship.tile_images = original


class Workload:
    name = ""

    def __init__(self, cache: str, work: str, seed: int, scale: str):
        self.cache, self.work, self.seed = cache, work, seed
        self.size = SCALES[scale]
        os.makedirs(cache, exist_ok=True)
        os.makedirs(work, exist_ok=True)

    def items(self) -> int:
        raise NotImplementedError

    def prepare(self) -> None:
        raise NotImplementedError

    def job(self, i: int, capture=None):
        raise NotImplementedError

    def check(self, out) -> bool:
        raise NotImplementedError

    def floor(self):
        raise NotImplementedError

    def prepare_yardstick(self) -> None:
        self.yardstick_dir = inputs.images(self.cache, self.seed, self.size["images"])

    def yardstick(self) -> float:
        """Wall time of a fixed Ray Data pipeline that calls no engine code:
        read the seed's image table, decode every image with the
        benchmark's own decoders, sort the per-image means.  Timed next to
        the jobs, it slows with them when the host does."""
        import ray.data as rd

        t0 = time.perf_counter()
        rd.read_parquet(self.yardstick_dir).map_batches(_image_means, batch_format="pyarrow") \
            .sort("mean").materialize()
        return time.perf_counter() - t0

    # --- inputs of each layer on this workload (empty where the layer is
    # not on the workload's path) ------------------------------------------

    def input_bytes(self) -> int:
        """In-memory size of the inputs the job reads through Ray."""
        raise NotImplementedError

    def tiling_images(self) -> pa.Table:
        from rasters_ray.sources.images import IMAGES_SCHEMA

        return IMAGES_SCHEMA.empty_table()

    def point_images(self) -> pa.Table:
        from rasters_ray.sources.images import IMAGES_SCHEMA

        return IMAGES_SCHEMA.empty_table()

    def layer_points(self) -> pa.Table:
        from rasters_ray.sources.vectors import POINTS_SCHEMA

        return POINTS_SCHEMA.empty_table()

    def composites(self) -> bool:
        return False

    def composite_images(self) -> pa.Table:
        """Images the composite layer is measured on when the workload's
        path does not composite."""
        from rasters_ray.sources.images import IMAGES_SCHEMA

        return IMAGES_SCHEMA.empty_table()

    def relational_tables(self):
        """The seed's sf0.1 relational tables.  Every traced run measures
        the one-process relational layer on them, so the layer is measured
        even on workloads whose path does not run it."""
        s = self.size
        self.paths = inputs.relational(self.cache, self.seed, s["lineitem"], s["orders"], s["customer"])
        return (inputs.read_dir(self.paths["lineitem"]), pq.read_table(self.paths["orders"]),
                pq.read_table(self.paths["customer"]))

    def layer_metrics(self, tr) -> dict:
        """One-process calls into each layer on this workload's inputs."""
        from rasters_ray import codec
        from rasters_ray.grids import GridSpec, cellkey
        from rasters_ray.stages import TILES_SCHEMA, make_tiles
        from rasters_ray.stages.composite import composite_group
        from rasters_ray.stages.point_join import JOIN_SCHEMA, PointBuckets, sample_points_batch

        m = {}
        imgs = self.tiling_images()
        with tr.span("tiling.cover"):
            meta = _concat([make_tiles(b, LEVEL, decode_pixels=False) for b in _batches(imgs, 32)],
                           TILES_SCHEMA)
        with tr.span("tiling.make_tiles"):
            tiles = _concat([make_tiles(b, LEVEL) for b in _batches(imgs, 32)], TILES_SCHEMA)
        img_rows = dict(zip(imgs.column("image_id").to_pylist(),
                            pc.struct_field(imgs.column("grid"), "rows").to_pylist()))
        img_cols = dict(zip(imgs.column("image_id").to_pylist(),
                            pc.struct_field(imgs.column("grid"), "cols").to_pylist()))
        ids = meta.column("image_id").to_pylist()
        roc, coc = meta.column("row_off").to_pylist(), meta.column("col_off").to_pylist()
        th, tw = meta.column("th").to_pylist(), meta.column("tw").to_pylist()
        whole = [roc[k] == 0 and coc[k] == 0 and th[k] == img_rows[ids[k]] and tw[k] == img_cols[ids[k]]
                 for k in range(len(ids))]
        m["tiling.tiles_out"] = tiles.num_rows
        m["tiling.passthrough_ratio"] = sum(whole) / len(whole) if whole else 0.0

        # point join
        pts = self.layer_points()
        pimgs = self.point_images()
        with tr.span("point_join.buckets"):
            buckets = PointBuckets(pts, LEVEL)
        with tr.span("point_join.sample"):
            matched = _concat([sample_points_batch(b, buckets, LEVEL) for b in _batches(pimgs, 64)],
                              JOIN_SCHEMA)
        with tr.span("point_join.antijoin"):
            misses = anti_join(pts, matched)
        candidates = sum(
            len(buckets.lookup(cellkey.covering_cells(LEVEL, GridSpec.from_dict(g).bbox)))
            for g in pimgs.column("grid").to_pylist()
        )
        m["point_join.candidates"] = candidates
        m["point_join.hits"] = matched.num_rows
        m["point_join.hit_ratio"] = matched.num_rows / candidates if candidates else 0.0
        m["point_join.misses"] = misses.num_rows

        # composite: on the workload's own tiles, or else on the tiles of
        # the lattice-aligned part of its images (empty if it has none)
        if self.composites():
            cimgs, ctiles = imgs, tiles
        else:
            cimgs = self.composite_images()
            ctiles = _concat([make_tiles(b, LEVEL) for b in _batches(cimgs, 32)], TILES_SCHEMA)
        groups, hot = [], set()
        if ctiles.num_rows:
            ordered = ctiles.sort_by("cell_key")
            ck = ordered.column("cell_key").to_numpy()
            cuts = np.flatnonzero(np.r_[True, ck[1:] != ck[:-1], True])
            groups = [ordered.slice(int(a), int(b - a)) for a, b in zip(cuts[:-1], cuts[1:])]
            for block in _batches(cimgs, 32):  # the salting rule is block-local
                keys = make_tiles(block, LEVEL, decode_pixels=False).column("cell_key").to_numpy()
                cells, counts = np.unique(keys, return_counts=True)
                hot.update(cells[counts >= max(2, len(keys) // 8)].tolist())
        with tr.span("composite.group"):
            cells = [composite_group(g, CELL_SIZE, "merge_mean") for g in groups]
        sizes = np.array([g.num_rows for g in groups])
        m["composite.cells_out"] = len(cells)
        m["composite.hot_cells"] = len(hot)
        m["composite.cell_skew"] = float(sizes.max() / sizes.mean()) if len(sizes) else 0.0

        # codec: what the workload's path decodes and encodes
        by_id = {i: k for k, i in enumerate(imgs.column("image_id").to_pylist())}
        cut_ids = sorted({by_id[ids[k]] for k in range(len(ids)) if not whole[k]})
        decode_set = [(imgs.column("bytes")[k].as_buffer(), imgs.column("fmt")[k].as_py()) for k in cut_ids]
        hit_ids = set(matched.column("image_id").to_pylist())
        decode_set += [(pimgs.column("bytes")[k].as_buffer(), pimgs.column("fmt")[k].as_py())
                       for k, i in enumerate(pimgs.column("image_id").to_pylist()) if i in hit_ids]
        if self.composites():
            decode_set += [(tiles.column("bytes")[k].as_buffer(), tiles.column("fmt")[k].as_py())
                           for k in range(tiles.num_rows)]
        with tr.span("codec.decode"):
            decoded = {k: codec.decode(blob, fmt) for k, (blob, fmt) in enumerate(decode_set)}
        fmts = imgs.column("fmt").to_pylist()
        pos = {k: n for n, k in enumerate(cut_ids)}
        encode_set = [
            (decoded[pos[by_id[ids[k]]]][roc[k]:roc[k] + th[k], coc[k]:coc[k] + tw[k]], fmts[by_id[ids[k]]])
            for k in range(len(ids)) if not whole[k]
        ]
        if self.composites():
            encode_set += [(reference.decode(c.column("bytes")[0].as_buffer(), "npy"), "npy") for c in cells]
        with tr.span("codec.encode"):
            for arr, fmt in encode_set:
                codec.encode(arr, fmt)
        m["codec.decode_n"] = len(decode_set)
        m["codec.encode_n"] = len(encode_set)

        lineitem, orders, customer = self.relational_tables()
        with tr.span("relational.floor"):
            relational_floor(lineitem, orders, customer)
        m["relational.rows_in"] = lineitem.num_rows

        for name in ("tiling.cover", "tiling.make_tiles", "point_join.buckets", "point_join.sample",
                     "point_join.antijoin", "composite.group", "codec.decode", "codec.encode",
                     "relational.floor"):
            m[name + "_s"] = tr.total(name)
        return m


def anti_join(points: pa.Table, matched: pa.Table) -> pa.Table:
    """Miss rows (NaN, inside=False) for points no image contains."""
    from rasters_ray.stages.point_join import JOIN_SCHEMA

    ids = points.column("point_id").cast(pa.string())
    miss = ids.filter(pc.invert(pc.is_in(ids, value_set=pc.unique(matched.column("point_id")))))
    n = len(miss)
    return pa.Table.from_arrays(
        [miss.combine_chunks() if isinstance(miss, pa.ChunkedArray) else miss,
         pa.nulls(n, pa.string()), pa.nulls(n, pa.int32()), pa.nulls(n, pa.int32()),
         pa.array(np.full(n, np.nan), pa.float64()), pa.array(np.zeros(n, dtype=bool))],
        schema=JOIN_SCHEMA,
    )


def relational_floor(lineitem: pa.Table, orders: pa.Table, customer: pa.Table) -> pa.Table:
    """The relational query in one process: pyarrow joins + group_by."""
    seg = orders.join(customer, keys="o_custkey", right_keys="c_custkey")
    li = fold_revenue(lineitem)
    joined = li.join(seg.select(["o_orderkey", "o_orderpriority", "c_mktsegment"]),
                     keys="l_orderkey", right_keys="o_orderkey")
    out = joined.group_by(REL_KEYS).aggregate([("revenue_c", "sum"), ("revenue_c", "count")])
    return pa.table({"c_mktsegment": out.column("c_mktsegment"),
                     "o_orderpriority": out.column("o_orderpriority"),
                     "revenue_c": out.column("revenue_c_sum"), "n": out.column("revenue_c_count")})


class TileJob(Workload):
    name = "tile_job"

    def items(self):
        return self.size["images"]

    def prepare(self):
        n = self.size["images"]
        self.images_dir = inputs.images(self.cache, self.seed, n)
        self.ref = _cached_json(
            self.cache, f"ref-tiles-{inputs.images_key(self.seed, n)}-L{LEVEL}",
            lambda: reference.tiles_reference_digest(inputs.read_dir(self.images_dir), LEVEL))

    def input_bytes(self):
        return inputs.read_dir(self.images_dir).nbytes

    def tiling_images(self):
        return inputs.read_dir(self.images_dir)

    def composite_images(self):
        return aligned_only(inputs.read_dir(self.images_dir))

    def job(self, i, capture=None):
        from rasters_ray.pipelines import run_flagship_partitioned

        root = os.path.join(self.work, f"tile_job-{i}")
        shutil.rmtree(root, ignore_errors=True)
        with _capture_tiles(capture):
            manifest = run_flagship_partitioned(
                job_entry_feed(self.images_dir), root, n_partitions=self.size["partitions"], level=LEVEL)
        return {"root": root, "manifest": manifest}

    def yardstick(self):
        """The job's shape without engine code: per partition, read the
        whole input, keep the partition's id range, decode every image
        with the benchmark's own decoders and write the rows with their
        mean pixel value."""
        feed = job_entry_feed(self.yardstick_dir)
        root = os.path.join(self.work, "yardstick")
        shutil.rmtree(root, ignore_errors=True)
        parts = self.size["partitions"]
        step = -(-feed.total // parts)
        t0 = time.perf_counter()
        for p in range(parts):
            ds = feed(p * step, (p + 1) * step).map_batches(_with_means, batch_format="pyarrow")
            ds.write_parquet(os.path.join(root, f"part-{p:05d}"))
        dt = time.perf_counter() - t0
        shutil.rmtree(root, ignore_errors=True)
        return dt

    def check(self, out):
        files = sorted(glob.glob(os.path.join(out["root"], "part-*", "*.parquet")))
        tiles = pa.concat_tables([pq.read_table(f) for f in files]) if files else None
        shutil.rmtree(out["root"], ignore_errors=True)
        if tiles is None:
            return False
        rows = sum(r["row_count"] for r in out["manifest"])
        return reference.tiles_digest(tiles) == self.ref and rows == self.ref["rows"]

    def floor(self):
        from rasters_ray.stages import make_tiles

        root = os.path.join(self.work, "tile_job-floor")
        shutil.rmtree(root, ignore_errors=True)
        t0 = time.perf_counter()
        table = inputs.read_dir(self.images_dir)
        num = pc.cast(pc.utf8_slice_codeunits(table.column("image_id"), 3, 11), "int64")
        step = max(1, table.num_rows // self.size["partitions"])
        manifest = []
        for p, lo in enumerate(range(0, table.num_rows, step)):
            part = table.filter(pc.and_(pc.greater_equal(num, lo), pc.less(num, lo + step)))
            tiles = pa.concat_tables([make_tiles(b, LEVEL) for b in _batches(part, 32)])
            os.makedirs(os.path.join(root, f"part-{p:05d}"))
            pq.write_table(tiles, os.path.join(root, f"part-{p:05d}", "tiles.parquet"))
            manifest.append({"row_count": tiles.num_rows})
        return time.perf_counter() - t0, {"root": root, "manifest": manifest}

    def checkpoint_metrics(self, out) -> dict:
        man = out["manifest"]
        return {"checkpoint.partitions": len(man),
                "checkpoint.bytes_written": sum(r.get("bytes", 0) for r in man)}


class PointSample(Workload):
    name = "point_sample"

    def items(self):
        return self.size["images"]

    def prepare(self):
        n, npts = self.size["images"], self.size["points"]
        self.images_dir = inputs.images(self.cache, self.seed, n)
        self.points = inputs.points(self.cache, self.seed, npts)
        self.ref = _cached_json(
            self.cache, f"ref-points-{inputs.images_key(self.seed, n)}-p{npts}",
            lambda: reference.point_sample_reference(inputs.read_dir(self.images_dir), self.points))

    def input_bytes(self):
        return inputs.read_dir(self.images_dir).nbytes

    def point_images(self):
        return inputs.read_dir(self.images_dir)

    def layer_points(self):
        return self.points

    def job(self, i, capture=None):
        import ray.data as rd

        from rasters_ray.stages import sample_points

        ds = sample_points(rd.read_parquet(self.images_dir), self.points, level=LEVEL, include_misses=True)
        return _result(ds, capture)

    def check(self, out):
        return out is not None and reference.point_sample_digest(out) == self.ref

    def floor(self):
        from rasters_ray.stages.point_join import JOIN_SCHEMA, PointBuckets, sample_points_batch

        t0 = time.perf_counter()
        images = inputs.read_dir(self.images_dir)
        buckets = PointBuckets(self.points, LEVEL)
        matched = _concat([sample_points_batch(b, buckets, LEVEL) for b in _batches(images, 64)],
                          JOIN_SCHEMA)
        out = pa.concat_tables([matched, anti_join(self.points, matched)])
        return time.perf_counter() - t0, out


class Composite(Workload):
    name = "composite"

    def items(self):
        return self.n_aligned

    def prepare(self):
        n = self.size["images"]
        self.images_dir = inputs.images(self.cache, self.seed, n)
        self.n_aligned = aligned_only(inputs.read_dir(self.images_dir)).num_rows
        self.ref = _cached_json(
            self.cache, f"ref-composite-{inputs.images_key(self.seed, n)}-L{LEVEL}",
            lambda: reference.composite_reference(
                aligned_only(inputs.read_dir(self.images_dir)), LEVEL, CELL_SIZE))

    def input_bytes(self):
        return inputs.read_dir(self.images_dir).nbytes

    def tiling_images(self):
        return aligned_only(inputs.read_dir(self.images_dir))

    def composites(self):
        return True

    def job(self, i, capture=None):
        import ray.data as rd

        from rasters_ray.stages import composite_cells, tile_images

        aligned = rd.read_parquet(self.images_dir).map_batches(aligned_only, batch_format="pyarrow")
        out = composite_cells(tile_images(aligned, level=LEVEL), cell_size=CELL_SIZE,
                              mode="merge_mean", salt="auto")
        return _result(out, capture)

    def check(self, out):
        return out is not None and reference.composite_digest(out) == self.ref

    def floor(self):
        from rasters_ray.stages import make_tiles
        from rasters_ray.stages.composite import composite_group

        t0 = time.perf_counter()
        images = aligned_only(inputs.read_dir(self.images_dir))
        tiles = pa.concat_tables([make_tiles(b, LEVEL) for b in _batches(images, 32)]).sort_by("cell_key")
        ck = tiles.column("cell_key").to_numpy()
        cuts = np.flatnonzero(np.r_[True, ck[1:] != ck[:-1], True])
        out = pa.concat_tables([composite_group(tiles.slice(int(a), int(b - a)), CELL_SIZE, "merge_mean")
                                for a, b in zip(cuts[:-1], cuts[1:])])
        return time.perf_counter() - t0, out


class RelationalJoin(Workload):
    name = "relational_join"

    def items(self):
        return self.size["lineitem"]

    def prepare(self):
        s = self.size
        tables = self.relational_tables()
        self.ref = _cached_json(
            self.cache, f"ref-relational-s{self.seed}-l{s['lineitem']}-o{s['orders']}-c{s['customer']}",
            lambda: reference.relational_reference(*tables))

    def input_bytes(self):
        return (inputs.read_dir(self.paths["lineitem"]).nbytes
                + pq.read_table(self.paths["orders"], columns=["o_orderkey", "o_custkey", "o_orderpriority"]).nbytes)

    def job(self, i, capture=None):
        import ray.data as rd

        from rasters_ray.relational import broadcast_join, grouped_int_sums, hash_join

        cust = pq.read_table(self.paths["customer"], columns=["c_custkey", "c_mktsegment"])
        orders = rd.read_parquet(self.paths["orders"],
                                 columns=["o_orderkey", "o_custkey", "o_orderpriority"])
        seg = broadcast_join(orders, cust, on="o_custkey", right_on="c_custkey").map_batches(
            drop_custkey, batch_format="pyarrow")
        li = rd.read_parquet(self.paths["lineitem"],
                             columns=["l_orderkey", "l_extendedprice", "l_discount"]).map_batches(
            fold_revenue, batch_format="pyarrow")
        joined = hash_join(li, seg, on="l_orderkey", right_on="o_orderkey", post=sum_partial)
        return _result(grouped_int_sums(joined, REL_KEYS, None, partials_ready=True), capture)

    def check(self, out):
        return out is not None and reference.relational_digest(out) == self.ref

    def floor(self):
        t0 = time.perf_counter()
        out = relational_floor(*self.relational_tables())
        return time.perf_counter() - t0, out


WORKLOADS = {w.name: w for w in (TileJob, PointSample, Composite, RelationalJoin)}
