"""``util.exchange`` and the steps routed through it, under both plans.

The Tier-1 session has 4 CPUs, so ``exchange`` runs its n-part plan
(hash tag + known-boundary sort) there.  The 1-part plan (one gather
task: a ``concurrency=1`` map whose batch holds every row, no tag, no
sort, no repartition) runs in a ``num_cpus=1`` session in a subprocess,
which computes every case once and records the operators some of them
executed (``one_cpu_results``).  Both plans must equal the same
single-process reference.  On one CPU the point anti-join over images
Ray knows to have rows is no exchange at all: it samples and emits its
misses in one task, and over images Ray knows to be empty it runs no
task.  ``__ray_entry__.entry()``'s join, whose
images are a map's output, keeps the exchange there; it must give the
same rows at 1 and at 4 CPUs.
The checkpointed tiling job runs no exchange but sizes its tile
bundles by the same CPU count, so it runs in both sessions too.

``exchange`` itself, over one input and over a co-group of two inputs
of different schemas, is checked by a property test against a pyarrow
``group_by`` reference, and the relational, text and temporal operators
built on it, and the contract queries whose shuffle is an exchange, must
give the same rows under both plans."""

import hashlib
import json
import os
import subprocess
import sys
import tempfile

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rasters_ray import codec
from rasters_ray.sources import make_oracle_images, oracle_grid_origin
from rasters_ray.stages import (
    composite_cells,
    crosstab_images,
    make_tiles,
    merge_mean_lattice,
    sample_points,
)
from rasters_ray.stages.composite import (
    composite_group,
    mosaic_best_lattice,
    mosaic_first_lattice,
)
from rasters_ray.stages.point_join import JOIN_SCHEMA, PointBuckets, sample_points_batch

LEVEL = 8
ANTI_JOIN_CASES = ["none_matched", "all_matched", "no_images", "split_blocks", "empty_read",
                   "filtered_empty_read", "parquet_read", "extra_columns"]
LATTICES = ["merge_mean", "mosaic_first", "mosaic_best"]
COMPOSITES = ["merge_mean", "merge_mean_banded", "mosaic_first"]
FLAGSHIP_IMAGES = 160
FLAGSHIP_PARTS = 4


def _points(ids, xy) -> pa.Table:
    return pa.table({
        "point_id": pa.array(ids, pa.string()),
        "x": pa.array([p[0] for p in xy], pa.float64()),
        "y": pa.array([p[1] for p in xy], pa.float64()),
        "crs": pa.array(["EPSG:4326"] * len(ids), pa.string()),
    })


def _center(d: int, r: int, c: int) -> tuple:
    x0, y0 = oracle_grid_origin(d)
    return x0 + (c + 0.5) * 0.01, y0 - (r + 0.5) * 0.01


def anti_join_case(name: str):
    """(image blocks, points, sample_points batch_size) of one case."""
    if name == "none_matched":
        return ([make_oracle_images(np.arange(4))],
                _points(["a", "b", "c"], [(100.0, 0.0), (101.0, 1.0), (-50.0, -50.0)]), 64)
    if name in ("all_matched", "parquet_read"):
        return ([make_oracle_images(np.arange(4))],
                _points(["a", "b", "c"], [_center(0, 0, 0), _center(0, 3, 5), _center(1, 60, 70)]), 64)
    if name in ("no_images", "empty_read", "filtered_empty_read"):
        return ([make_oracle_images(np.arange(0))],
                _points(["a", "b"], [_center(0, 0, 0), (100.0, 0.0)]), 64)
    if name == "extra_columns":
        # a column the kernel does not read, in two blocks
        imgs = make_oracle_images(np.arange(3))
        imgs = imgs.append_column("order", pa.array(np.arange(3)))
        return ([imgs.slice(0, 1), imgs.slice(1)],
                _points(["a", "b", "c"], [_center(0, 0, 0), _center(2, 1, 1), (100.0, 0.0)]), 64)
    # Three image blocks sampled two images per batch.  The numeric ids
    # fall only in images 3-4, so their matched rows arrive in batches of
    # all-numeric ids, while every marker arrives in one block of mixed
    # ids: the hash must depend on the column type, not on its values.
    ids = ["p0", "zz"] + [str(100 + k) for k in range(8)]
    xy = [_center(0, 0, 0), (100.0, 0.0)] + [_center(4, 10 * k, 5 + k) for k in range(8)]
    return [make_oracle_images(np.arange(lo, lo + 2)) for lo in (0, 2, 4)], _points(ids, xy), 2


def _rows(t: pa.Table) -> list:
    """Join rows as sorted lists, NaN as None (row-order free)."""
    cols = [t.column(c).to_pylist() for c in JOIN_SCHEMA.names]
    rows = [[None if isinstance(v, float) and np.isnan(v) else v for v in r] for r in zip(*cols)]
    return sorted(rows, key=lambda r: [(v is None, v) for v in r])


def anti_join_reference(images: pa.Table, points: pa.Table) -> list:
    """Single-process sample plus a pyarrow left-anti join of the points."""
    matched = (sample_points_batch(images, PointBuckets(points, LEVEL), LEVEL)
               if images.num_rows else JOIN_SCHEMA.empty_table())
    ids = points.column("point_id").cast(pa.string())
    miss = ids.filter(pc.invert(pc.is_in(ids, value_set=pc.unique(matched.column("point_id")))))
    n = len(miss)
    misses = pa.Table.from_arrays(
        [miss, pa.nulls(n, pa.string()), pa.nulls(n, pa.int32()), pa.nulls(n, pa.int32()),
         pa.array(np.full(n, np.nan), pa.float64()), pa.array(np.zeros(n, dtype=bool))],
        schema=JOIN_SCHEMA,
    )
    return _rows(pa.concat_tables([matched, misses]))


def _blocks(ds) -> list:
    import ray

    return ray.get(ds.materialize().to_arrow_refs())


def _table(ds) -> pa.Table:
    return pa.concat_tables(_blocks(ds))


def _operators(summary) -> list:
    """[operator name, tasks] of each operator in a stats summary,
    upstream first."""
    out = []

    def walk(summary):
        for parent in summary.parents:
            walk(parent)
        for op in summary.operators_stats:
            out.append([op.operator_name, int((op.task_rows or {}).get("count", 0))])

    walk(summary)
    return out


def executed_operators(ds) -> list:
    """[operator name, tasks] of each operator ``ds`` executes, upstream
    first, from its stats after one execution."""
    return _operators(ds.materialize()._get_stats_summary())


def anti_join_input(name: str, root: str = None):
    """(image dataset, points, batch_size) of one case.  The read cases
    write their images as parquet under ``root``, which must outlive
    the dataset's execution."""
    import pyarrow.parquet as pq
    import ray.data as rd

    blocks, points, batch_size = anti_join_case(name)
    if name == "empty_read":
        # no rows, and Ray knows it (a limit passes its count on)
        ds = rd.from_arrow(make_oracle_images(np.arange(2))).limit(0)
    elif name in ("filtered_empty_read", "parquet_read"):
        path = os.path.join(root, name)
        os.makedirs(path)
        pq.write_table(make_oracle_images(np.arange(4)), os.path.join(path, "images.parquet"))
        # a filter that keeps no row: the plan knows the schema but no count
        keep = pc.field("image_id") == "none" if name == "filtered_empty_read" else None
        ds = rd.read_parquet(path, filter=keep)
    else:
        ds = rd.from_arrow(blocks)
    return ds, points, batch_size


def anti_join_ds(name: str, root: str = None):
    ds, points, batch_size = anti_join_input(name, root)
    return sample_points(ds, points, level=LEVEL, include_misses=True, batch_size=batch_size)


def run_anti_join(name: str) -> list:
    with tempfile.TemporaryDirectory() as root:
        return _rows(_table(anti_join_ds(name, root)))


def one_cpu_plans(root: str) -> dict:
    """Executed operators of the one-CPU plan steps the tests check."""
    return {"anti_join": executed_operators(anti_join_ds("split_blocks")),
            "anti_join_read": executed_operators(anti_join_ds("parquet_read", root)),
            "anti_join_empty": executed_operators(anti_join_ds("empty_read")),
            "anti_join_filtered_empty": executed_operators(
                anti_join_ds("filtered_empty_read", root)),
            "lattice": executed_operators(lattice_ds("merge_mean"))}


def run_entry() -> str:
    """Row-order-free digest of ``__ray_entry__.entry()``'s join (sf0.001;
    its ``sample_points`` keeps the misses)."""
    import __ray_entry__ as entry

    return _sorted_digest(_blocks(entry.entry()))


def lattice_ds(name: str):
    """One lattice combine over 8 oracle images in two blocks."""
    import ray.data as rd

    imgs = make_oracle_images(np.arange(8))
    d = np.arange(8, dtype=np.int64)
    imgs = imgs.append_column("order", pa.array(d)).append_column("quality", pa.array((d * 37) % 11))
    ds = rd.from_arrow([imgs.slice(0, 3), imgs.slice(3)])
    if name == "merge_mean":
        return merge_mean_lattice(ds, 0.01)
    if name == "mosaic_first":
        return mosaic_first_lattice(ds, 0.01, order_col="order")
    return mosaic_best_lattice(ds, 0.01)


def run_lattice(name: str) -> str:
    """Digest of one lattice combine, sorted by (gx, gy)."""
    return _digest(_table(lattice_ds(name)).sort_by([("gx", "ascending"), ("gy", "ascending")]))


def run_empty_crosstab() -> tuple:
    """``crosstab_images`` over zero images: [rows, columns] of each
    output block, and the row count of its pandas form."""
    import ray
    import ray.data as rd

    def classify(arr: np.ndarray) -> tuple:  # nested: workers unpickle it by value
        a = np.rint(arr).astype(np.int64)
        return a % 3, a % 2

    ds = crosstab_images(rd.from_arrow(make_oracle_images(np.arange(0))), classify).materialize()
    blocks = ray.get(ds.to_arrow_refs())
    return [[b.num_rows, b.column_names] for b in blocks], len(ds.to_pandas())


def _digest(t: pa.Table) -> str:
    h = hashlib.sha256(repr(t.schema).encode())
    for c in t.column_names:
        h.update(repr(t.column(c).to_pylist()).encode())
    return f"{t.num_rows}:{h.hexdigest()}"


def composite_case(name: str):
    """(tile blocks, mode, order_col) of one case: the level-9 tiles of
    8 oracle images in three blocks (``order`` decreasing with the tile),
    then a block of the fullest cell's tiles repeated past 12 rows, which
    the ``merge_mean`` pre-combine folds into one row."""
    imgs = make_oracle_images(np.arange(8))
    if name == "merge_mean_banded":
        base = [codec.decode(v.as_py(), f.as_py())
                for v, f in zip(imgs.column("bytes"), imgs.column("fmt"))]
        stacks = [codec.encode(np.stack([(a + 31.0 * b) % 251.0 for b in range(3)]).astype(np.float32),
                               "npy") for a in base]
        imgs = imgs.set_column(imgs.column_names.index("bytes"), "bytes", pa.array(stacks))
    tiles = make_tiles(imgs, 9)
    n = tiles.num_rows
    tiles = tiles.append_column("order", pa.array(np.arange(n, 0, -1), pa.int64()))
    ck = tiles.column("cell_key").to_numpy()
    cells, counts = np.unique(ck, return_counts=True)
    hot = tiles.filter(pa.array(ck == cells[counts.argmax()]))
    blocks = [tiles.slice(0, n // 3), tiles.slice(n // 3, n // 3), tiles.slice(2 * (n // 3))]
    blocks.append(pa.concat_tables([hot] * (12 // hot.num_rows + 1)))
    if name == "mosaic_first":
        return blocks, "mosaic_first", "order"
    return blocks, "merge_mean", None


def run_composite(name: str) -> str:
    """Digest of ``composite_cells`` over one case, sorted by cell_key."""
    import ray.data as rd

    blocks, mode, order_col = composite_case(name)
    out = composite_cells(rd.from_arrow(blocks), 0.01, mode, order_col)
    return _digest(_table(out).sort_by("cell_key"))


def composite_reference(name: str) -> str:
    """Single-process ``composite_group`` over each cell's raw tiles."""
    blocks, mode, order_col = composite_case(name)
    tiles = pa.concat_tables(blocks).sort_by("cell_key")
    ck = tiles.column("cell_key").to_numpy()
    cuts = np.flatnonzero(np.r_[True, ck[1:] != ck[:-1], True])
    return _digest(pa.concat_tables(
        [composite_group(tiles.slice(a, b - a), 0.01, mode, order_col)
         for a, b in zip(cuts[:-1], cuts[1:])]))


def flagship_feed():
    """``make_images_ds`` over FLAGSHIP_IMAGES oracle images in blocks
    of 4, so a tiling task's bundle spans several whole blocks at 1 and
    at 4 CPUs."""
    import ray.data as rd

    imgs = make_oracle_images(np.arange(FLAGSHIP_IMAGES))

    def make_images_ds(lo, hi):
        return rd.from_arrow([imgs.slice(i, 4) for i in range(lo, hi, 4)])

    make_images_ds.total = FLAGSHIP_IMAGES
    return make_images_ds


def run_flagship(root: str) -> dict:
    """One checkpointed tiling job: the digest of its tiles (sorted by
    tile_id), its manifest row counts, its tile bundle, the operators
    of its tile/write execution and each partition's files."""
    import pyarrow.parquet as pq

    from rasters_ray.pipelines import flagship

    captured = []
    original = flagship.tile_images

    def capture(ds, **kw):
        captured.append(original(ds, **kw))
        return captured[-1]

    flagship.tile_images = capture
    try:
        rows = flagship.run_flagship_partitioned(flagship_feed(), root, FLAGSHIP_PARTS, level=9)
    finally:
        flagship.tile_images = original
    files = {r["partition_id"]: sorted(os.listdir(os.path.join(root, r["partition_id"])))
             for r in rows}
    tiles = pa.concat_tables([pq.read_table(os.path.join(root, pid, f))
                              for pid, names in files.items() for f in names])
    return {"digest": _digest(tiles.sort_by("tile_id")),
            "rows": [r["row_count"] for r in rows],
            "bundle": flagship.tile_bundle(FLAGSHIP_IMAGES),
            "ops": _operators(captured[0]._write_ds._get_stats_summary()),
            "files": files}


def flagship_reference() -> dict:
    """One-process ``make_tiles`` over the same images: the tile digest
    and the rows of each ``hash_parts(image_id)`` partition."""
    from rasters_ray.util import hash_parts

    tiles = make_tiles(make_oracle_images(np.arange(FLAGSHIP_IMAGES)), 9)
    parts = hash_parts(tiles.column("image_id"), FLAGSHIP_PARTS)
    return {"digest": _digest(tiles.sort_by("tile_id")),
            "rows": np.bincount(parts, minlength=FLAGSHIP_PARTS).tolist()}


# -- util.exchange against a pyarrow group_by reference -----------------

KEY_KINDS = ["int64", "string", "numeric_string", "dictionary", "null", "two_columns"]


def _key_columns(kind: str, codes: list) -> dict:
    """The key columns of ``kind`` for small integer ``codes``: equal
    codes make equal keys, so keys repeat within and across blocks."""
    c = np.asarray(codes, dtype=np.int64)
    if kind == "int64":
        return {"k": pa.array(c * 7 - 10, pa.int64())}
    if kind == "string":
        return {"k": pa.array([f"k{v}" for v in codes], pa.string())}
    if kind == "numeric_string":
        # codes below 4 look numeric, so a block may hold only those
        return {"k": pa.array([str(v) if v < 4 else f"x{v}" for v in codes], pa.string())}
    if kind == "dictionary":
        return {"k": pa.array([f"k{v}" for v in codes], pa.string()).dictionary_encode()}
    if kind == "null":
        return {"k": pa.array([None if v == 5 else v for v in codes], pa.int64())}
    return {"k": pa.array(c % 3, pa.int64()),
            "k2": pa.array([f"s{v // 3}" for v in codes], pa.string())}


def _exchange_keys(kind: str) -> list:
    return ["k", "k2"] if kind == "two_columns" else ["k"]


def exchange_blocks(kind: str, block_codes: list) -> list:
    """One input block per entry of ``block_codes`` (empty ones too):
    its key columns and a never-null row id ``rid``."""
    blocks, rid = [], 0
    for codes in block_codes:
        cols = _key_columns(kind, codes)
        cols["rid"] = pa.array(np.arange(rid, rid + len(codes)), pa.int64())
        blocks.append(pa.table(cols))
        rid += len(codes)
    return blocks


def _group_rows(t: pa.Table, keys: list) -> list:
    """(keys..., rows, sum of rid) per key of ``t``, sorted; dictionary
    keys compare as their values."""
    t = t.select(keys + ["rid"])
    t = t.cast(pa.schema([pa.field(f.name, f.type.value_type)
                          if pa.types.is_dictionary(f.type) else f for f in t.schema]))
    g = t.group_by(keys).aggregate([("rid", "count"), ("rid", "sum")])
    return _sort_rows([list(r) for r in zip(*[g.column(c).to_pylist()
                                              for c in keys + ["rid_count", "rid_sum"]])])


def _sort_rows(rows: list) -> list:
    return sorted(rows, key=lambda r: [(v is None, str(v)) for v in r])


def _renamed(t: pa.Table) -> pa.Table:
    """``t`` as the second input of a co-group: its key columns renamed
    (``k`` -> ``kb``) and one extra column."""
    names = [c.replace("k", "kb") if c.startswith("k") else c for c in t.column_names]
    return t.rename_columns(names).append_column("extra", pa.nulls(t.num_rows, pa.float64()))


def run_exchange_case(kind: str, block_codes: list) -> dict:
    """One ``exchange`` whose ``fn`` returns one row per call: the rows
    it saw, the pad rows among them (null ``rid``), whether each table
    it got has its own input's schema, and its rows (the second
    input's under the first one's key names) as Arrow IPC bytes.  An
    even number of blocks goes in as a list of two inputs that differ
    in schema: the first block, and the others renamed by ``_renamed``,
    co-grouped on per-input keys.  Returns the call counts and the
    per-key summary of every call's rows."""
    import ray.data as rd

    from rasters_ray.util import exchange

    blocks = exchange_blocks(kind, block_codes)
    keys = _exchange_keys(kind)
    renamed_keys = [k.replace("k", "kb") for k in keys]
    if len(blocks) % 2 == 0:
        inputs = [blocks[:1], [_renamed(b) for b in blocks[1:]]]
        keys_in = (keys, renamed_keys)
    else:
        inputs, keys_in = [blocks], keys
    schemas = [bs[0].schema for bs in inputs]

    def summarize(*parts: pa.Table) -> pa.Table:  # nested: workers unpickle it by value
        typed = all(p is not None and p.schema == s for p, s in zip(parts, schemas))
        rows = pa.concat_tables([p.select(ks + ["rid"]).rename_columns(keys + ["rid"])
                                 for p, ks in zip(parts, [keys, renamed_keys])
                                 if p is not None])
        real = rows.filter(pc.is_valid(rows.column("rid")))
        sink = pa.BufferOutputStream()
        with pa.ipc.new_stream(sink, real.schema) as writer:
            writer.write_table(real)
        return pa.table({
            "rows": pa.array([rows.num_rows], pa.int64()),
            "pads": pa.array([rows.num_rows - real.num_rows], pa.int64()),
            "typed": pa.array([typed]),
            "real": pa.array([sink.getvalue().to_pybytes()], pa.binary()),
        })

    ds = [rd.from_arrow(bs) for bs in inputs] if len(inputs) > 1 else rd.from_arrow(blocks)
    out = [b for b in _blocks(exchange(ds, keys_in, summarize)) if b.num_rows]
    calls = pa.concat_tables(out).to_pydict() if out else {"rows": [], "pads": [], "typed": [], "real": []}
    groups = [r for ipc in calls["real"]
              for r in _group_rows(pa.ipc.open_stream(ipc).read_all(), keys)]
    return {"calls": len(calls["rows"]), "rows": sum(calls["rows"]), "pads": sum(calls["pads"]),
            "typed": all(calls["typed"]), "groups": _sort_rows(groups)}


def check_exchange_case(kind: str, block_codes: list, got: dict, n_parts: int):
    """Every key's rows, of every input, reach ``fn`` together (one
    summary row per key, equal to the reference), no pad row reaches it,
    and each of the ``n_parts`` partitions calls it once with each
    input's own schema, a partition with no row of its own with zero
    rows."""
    blocks = exchange_blocks(kind, block_codes)
    total = sum(len(c) for c in block_codes)
    assert got["groups"] == _group_rows(pa.concat_tables(blocks), _exchange_keys(kind))
    assert got["pads"] == 0
    assert got["typed"]
    assert got["rows"] == total
    # Ray calls no map UDF on an empty block, so an input of empty
    # blocks alone makes no call at all
    assert got["calls"] == (n_parts if total else 0)


# Keys repeat within and across blocks; "2" and "3" appear in an
# all-numeric block and in a mixed one, so a value-dependent hash
# splits them.  One row over several parts leaves pad-only parts.
@settings(max_examples=12, deadline=None, derandomize=True)
@example(kind="numeric_string", block_codes=[[0, 1, 2, 3], [0, 1, 2, 3, 4], []])
@example(kind="int64", block_codes=[[3]])
@example(kind="two_columns", block_codes=[[], [0, 5, 4], [], [3, 3]])
@example(kind="dictionary", block_codes=[[], []])
@given(kind=st.sampled_from(KEY_KINDS),
       block_codes=st.lists(st.lists(st.integers(0, 5), max_size=6), min_size=1, max_size=5))
def test_exchange_matches_group_by_reference(ray_session, kind, block_codes):
    from rasters_ray.util import cluster_cpus

    check_exchange_case(kind, block_codes, run_exchange_case(kind, block_codes), cluster_cpus())


def exchange_property_result() -> str:
    """"ok", or how the property test failed in this session."""
    try:
        test_exchange_matches_group_by_reference(None)
    except Exception as exc:  # reported back to the session's test
        return f"{type(exc).__name__}: {exc}"[:4000]
    return "ok"


# -- the operators built on exchange, under both plans -------------------

OPERATORS = ["hash_join_inner", "hash_join_anti", "hash_join_post", "asof_join",
             "topk_per_group", "distinct_count", "connected_components", "set_op",
             "exact_dedup_groups", "stack_median_histogram"]


def _rel_ds(table: pa.Table, n_blocks: int):
    import ray.data as rd

    step = -(-table.num_rows // n_blocks)
    return rd.from_arrow([table.slice(i, step) for i in range(0, table.num_rows, step)])


def _join_sides():
    k = np.arange(40, dtype=np.int64)
    left = pa.table({"k": pa.array(k % 13), "g": pa.array([f"g{v}" for v in k % 3]),
                     "v": pa.array(k * 3)})
    right = pa.table({"rk": pa.array(np.arange(0, 20, 2, dtype=np.int64)),
                      "w": pa.array(np.arange(10, dtype=np.int64) * 100)})
    return _rel_ds(left, 3), _rel_ds(right, 2)


def operator_ds(name: str):
    """One operator over small in-memory tables."""
    from rasters_ray.relational import (
        asof_join,
        connected_components,
        distinct_count,
        grouped_int_sums,
        hash_join,
        int_sum_partial,
        topk_per_group,
    )
    from rasters_ray.relational.setops import set_op
    from rasters_ray.stages.temporal import stack_median_histogram
    from rasters_ray.text import exact_dedup_groups

    if name.startswith("hash_join"):
        left, right = _join_sides()
        if name == "hash_join_anti":
            return hash_join(left, right, on="k", right_on="rk", how="left anti")
        if name == "hash_join_inner":
            return hash_join(left, right, on="k", right_on="rk")

        def partial(t: pa.Table) -> pa.Table:
            return int_sum_partial(t, ["g"], lambda b: {"w": b.column("w").to_numpy()})

        joined = hash_join(left, right, on="k", right_on="rk", post=partial)
        return grouped_int_sums(joined, ["g"], None, partials_ready=True)
    if name == "asof_join":
        ts = np.arange(30, dtype=np.int64)
        left = pa.table({"u": pa.array(ts % 4), "t": pa.array(ts * 5)})
        right = pa.table({"u": pa.array(ts % 3), "t": pa.array(ts * 7 - 4), "x": pa.array(ts)})
        return asof_join(_rel_ds(left, 2), _rel_ds(right, 3), by="u", on="t")
    if name in ("topk_per_group", "distinct_count"):
        i = np.arange(60, dtype=np.int64)
        t = pa.table({"g": pa.array([f"g{v}" for v in i % 7]), "v": pa.array((i * 37) % 11),
                      "id": pa.array(i)})
        if name == "distinct_count":
            return distinct_count(_rel_ds(t, 3), "g", "v")
        return topk_per_group(_rel_ds(t, 3), "g", "v", k=2, carry_cols=["id"], tie_col="id")
    if name == "connected_components":
        u = np.array([1, 2, 3, 10, 11, 20, 21, 22, 23, 30], dtype=np.int64)
        v = np.array([2, 3, 1, 11, 12, 21, 22, 23, 20, 30], dtype=np.int64)
        return connected_components(_rel_ds(pa.table({"u": u, "v": v}), 2))
    if name == "set_op":
        a = pa.table({"k": pa.array([f"{v}" for v in range(12)] + ["x", None])})
        b = pa.table({"k": pa.array([f"{v}" for v in range(6, 20)])})
        return set_op(_rel_ds(a, 2), _rel_ds(b, 3), "k", "except")
    if name == "exact_dedup_groups":
        texts = ["aaa", "bbb", "aaa", "ccc", "bbb", "aaa", "ddd", "eee"]
        docs = pa.table({"doc_id": pa.array(np.arange(10, 18, dtype=np.int64)),
                         "text": pa.array(texts)})
        return exact_dedup_groups(_rel_ds(docs, 3))
    imgs = make_oracle_images(np.arange(8))
    return stack_median_histogram(
        _rel_ds(imgs, 3), lambda image_id: (int(image_id[3:]) % 2, int(image_id[3:]) // 2), tile=32)


def _sorted_digest(blocks: list) -> str:
    """Row-order-free digest of ``blocks``.  A per-key Ray ``groupby``
    final (``grouped_int_sums``) emits a zero-column block for each empty
    partition; those are dropped, typed ones are kept."""
    t = pa.concat_tables([b for b in blocks if b.num_columns])
    return _digest(t.sort_by([(c, "ascending") for c in t.column_names]))


def run_operator(name: str) -> str:
    """Row-order-free digest of one operator's output."""
    return _sorted_digest(_blocks(operator_ds(name)))


def test_co_grouped_operators_never_fetch_a_schema(ray_session, monkeypatch):
    """``Dataset.schema()`` on an unexecuted ``map_batches`` pipeline
    runs it under ``limit=1`` and cancels the tasks still in flight.
    Each input of a co-grouped exchange crosses in its own schema, so no
    operator on one asks its inputs for theirs; nor does
    ``winsorized_stats``."""
    import ray.data as rd

    from rasters_ray.relational import asof_join, hash_join
    from rasters_ray.relational.rangepart import winsorized_stats
    from rasters_ray.relational.setops import set_op
    from rasters_ray.stages.elementwise import zip_apply
    from rasters_ray.text.dedup import exact_verify_pairs

    fetched, schema = [], rd.Dataset.schema

    def recording_schema(self, fetch_if_missing=True):
        if fetch_if_missing:
            fetched.append(self)
        return schema(self, fetch_if_missing)

    def same(t: pa.Table) -> pa.Table:
        return t

    def mapped(t: pa.Table):  # Ray knows neither its row count nor its schema
        return _rel_ds(t, 2).map_batches(same, batch_format="pyarrow")

    left, right = (_table(d) for d in _join_sides())
    ts = np.arange(30, dtype=np.int64)
    events = pa.table({"u": pa.array(ts % 4), "t": pa.array(ts * 5), "x": pa.array(ts)})
    keys = pa.table({"k": pa.array([f"{v}" for v in range(12)])})
    images = make_oracle_images(np.arange(4))
    docs = pa.table({"doc_id": pa.array(np.arange(4, dtype=np.int64)),
                     "text": pa.array(["same text here"] * 3 + ["other"])})
    pairs = pa.table({"a": pa.array([0, 0, 1], pa.int64()), "b": pa.array([1, 2, 2], pa.int64())})
    monkeypatch.setattr(rd.Dataset, "schema", recording_schema)
    built = {
        "hash_join": hash_join(mapped(left), mapped(right), on="k", right_on="rk"),
        "asof_join": asof_join(mapped(events.select(["u", "t"])), mapped(events),
                               by="u", on="t"),
        "set_op": set_op(mapped(keys), mapped(keys.slice(4)), "k", "intersect"),
        "zip_apply": zip_apply(mapped(images), mapped(images), np.add),
        "exact_verify_pairs": exact_verify_pairs(mapped(pairs), mapped(docs)),
        "winsorized_stats": winsorized_stats(mapped(events), "x", "u", 0.1, 0.9),
    }
    assert fetched == []
    monkeypatch.undo()
    assert {name: _table(ds).num_rows for name, ds in built.items()} == {
        "hash_join": 22, "asof_join": 30, "set_op": 8, "zip_apply": 4,
        "exact_verify_pairs": 3, "winsorized_stats": 4}


# -- the contract queries built on exchange, under both plans ------------

# Every per-user, per-window and per-series query whose shuffle is an
# ``exchange`` on its key columns (``cooccurrence`` chains two).
EXCHANGE_QUERIES = ["events_sessions", "events_window", "events_sliding", "user_running",
                    "events_rollup", "events_cube", "funnel", "dup_spans", "band_join",
                    "inter_arrival", "user_fill", "retention", "percent_rank",
                    "session_conversion", "cooccurrence", "transitions", "acf_lag", "cusum",
                    "runs_test", "trigrams"]


def query_result(name: str):
    """One contract query over the sf0.001 tables: a Dataset, or an Arrow
    table for the queries that finish in pandas."""
    import __ray_entry__ as entry
    from test_contract_smoke import SF_DIR

    return entry.queries()[name](SF_DIR)


def run_query(name: str) -> list:
    """[row-order-free digest, executed operators] of one contract query."""
    import ray

    res = query_result(name)
    if isinstance(res, pa.Table):
        return [_sorted_digest([res]), []]
    ds = res.materialize()
    return [_sorted_digest(ray.get(ds.to_arrow_refs())), _operators(ds._get_stats_summary())]


_ONE_CPU = """
import json, sys, tempfile
import ray, ray.data as rd
sys.path.insert(0, "tests")
ray.init(address="local", num_cpus=1, include_dashboard=False, logging_level="ERROR")
rd.DataContext.get_current().enable_progress_bars = False
import test_exchange as t
out = {"anti_join": {c: t.run_anti_join(c) for c in t.ANTI_JOIN_CASES},
       "lattice": {c: t.run_lattice(c) for c in t.LATTICES},
       "composite": {c: t.run_composite(c) for c in t.COMPOSITES},
       "entry": t.run_entry(),
       "empty_crosstab": t.run_empty_crosstab(),
       "operators": {name: t.run_operator(name) for name in t.OPERATORS},
       "queries": {name: t.run_query(name) for name in t.EXCHANGE_QUERIES},
       "exchange_property": t.exchange_property_result()}
with tempfile.TemporaryDirectory() as root:
    out["plan"] = t.one_cpu_plans(root)
with tempfile.TemporaryDirectory() as root:
    out["flagship"] = t.run_flagship(root)
print(json.dumps(out))
ray.shutdown()
"""


@pytest.fixture(scope="module")
def one_cpu_results():
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=repo)
    env.pop("RAY_ADDRESS", None)
    proc = subprocess.run([sys.executable, "-c", _ONE_CPU], cwd=repo, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _reference(name: str) -> list:
    blocks, points, _ = anti_join_case(name)
    return anti_join_reference(pa.concat_tables(blocks), points)


@pytest.mark.parametrize("name", ANTI_JOIN_CASES)
def test_anti_join_n_part_plan_matches_reference(ray_session, name):
    import ray

    assert ray.cluster_resources()["CPU"] > 1
    assert run_anti_join(name) == _reference(name)


@pytest.mark.parametrize("name", ANTI_JOIN_CASES)
def test_anti_join_one_part_plan_matches_reference(one_cpu_results, name):
    got = [list(r) for r in one_cpu_results["anti_join"][name]]
    assert got == _reference(name)


@pytest.mark.parametrize("step,upstream", [("lattice", "MapBatches(partial)")])
def test_one_part_plan_is_one_unfused_gather_task(one_cpu_results, step, upstream):
    ops = one_cpu_results["plan"][step]
    names = [name for name, _ in ops]
    assert not [name for name in names if name.startswith("Repartition")], names
    assert ops[-1] == ["MapBatches(apply_block)", 1], ops
    # the gather runs as its own operator: upstream maps still stream
    assert upstream in names, names


@pytest.mark.parametrize("step", ["anti_join", "anti_join_read", "anti_join_empty",
                                  "anti_join_filtered_empty"])
def test_one_part_point_sample_is_one_map_task(one_cpu_results, step):
    """On one CPU the sampling and the anti-join run in one task after
    the input: no separate sampling map, no gather, no repartition.
    Over images Ray knows have rows (an in-memory table, a parquet
    read), that task runs straight on them, with no pad row and no
    union.  Over a filtered read, whose row count Ray does not know, the
    sampling map feeds the co-grouped anti-join exchange, whose one
    gather task runs on the marker ids even when no image row arrives.
    Over images Ray knows to be empty no task runs at all."""
    ops = one_cpu_results["plan"][step]
    names = [name for name, _ in ops]
    maps = [op for op in ops if op[0].startswith("MapBatches")]
    assert not [name for name in names if name.startswith("Repartition")], names
    if step == "anti_join_empty":
        assert not maps and all(tasks == 0 for _, tasks in ops), ops
        return
    if step == "anti_join_filtered_empty":
        assert "MapBatches(sample)->MapBatches(pack)" in names, names
        assert ops[-1] == ["MapBatches(apply_block)", 1], ops
        return
    assert maps == [["MapBatches(sample_gather)", 1]] and ops[-1] == maps[0], ops
    assert not [name for name in names if name.startswith("Union")], names


def test_known_rows_never_executes(ray_session, tmp_path):
    import pyarrow.parquet as pq
    import ray.data as rd

    from rasters_ray.util import known_rows

    def boom(batch):
        raise AssertionError("known_rows executed a map")

    imgs = make_oracle_images(np.arange(3))
    pq.write_table(imgs, str(tmp_path / "images.parquet"))
    assert known_rows(rd.read_parquet(str(tmp_path))) == 3
    assert known_rows(rd.from_arrow(imgs)) == 3
    assert known_rows(rd.from_arrow(imgs).limit(0)) == 0
    assert known_rows(rd.from_arrow(imgs).map_batches(boom, batch_format="pyarrow")) is None
    filtered = rd.read_parquet(str(tmp_path), filter=pc.field("image_id") == "none")
    assert known_rows(filtered) is None


def test_entry_digest_agrees_across_plans(ray_session, one_cpu_results):
    got = run_entry()
    assert int(got.split(":")[0]) > 0
    assert got == one_cpu_results["entry"]


def test_duplicate_point_ids_are_rejected_before_execution(ray_session):
    # Misses are found by id, so a repeated id would lose its miss row:
    # here the second "a" (at (100, 0), in no image) would get no row.
    import ray.data as rd

    points = _points(["a", "a", "b"], [_center(0, 0, 0), (100.0, 0.0), (100.5, 0.0)])
    ds = rd.from_arrow(make_oracle_images(np.arange(2)))
    with pytest.raises(ValueError, match="'a' repeats"):
        sample_points(ds, points, level=LEVEL, include_misses=True)
    with pytest.raises(ValueError, match="'a' repeats"):
        PointBuckets(points, LEVEL)


def test_exchange_over_empty_blocks_yields_no_rows_under_both_plans(ray_session, one_cpu_results):
    # Ray calls no map UDF on an empty block, so the gather never runs
    # ``fn`` here; it must still finish with zero rows, as the
    # ``repartition(1)`` it replaced did (the ``no_images`` anti-join
    # case emits its misses, so it is not empty).
    for blocks, n_pandas in (run_empty_crosstab(), one_cpu_results["empty_crosstab"]):
        assert sum(rows for rows, _ in blocks) == 0 and n_pandas == 0
        assert all(cols in ([], ["zone", "klass", "n_px"]) for _, cols in blocks), blocks


def test_anti_join_cases_cover_hits_and_misses():
    none = _reference("none_matched")
    assert none and all(r[5] is False for r in none)
    every = _reference("all_matched")
    assert every and all(r[5] is True for r in every)
    assert all(r[5] is False for r in _reference("no_images"))
    split = _reference("split_blocks")
    hit_ids = {r[0] for r in split if r[5]}
    assert {str(100 + k) for k in range(8)} | {"p0"} <= hit_ids
    assert [r[0] for r in split if not r[5]] == ["zz"]


@pytest.mark.parametrize("name", LATTICES)
def test_lattice_combines_agree_across_plans(ray_session, one_cpu_results, name):
    assert run_lattice(name) == one_cpu_results["lattice"][name]


@pytest.mark.parametrize("name", COMPOSITES)
def test_composite_cells_agree_across_plans(ray_session, one_cpu_results, name):
    want = composite_reference(name)
    assert run_composite(name) == want
    assert one_cpu_results["composite"][name] == want


def test_n_part_exchange_with_more_parts_than_rows_yields_typed_blocks(ray_session):
    import ray
    import ray.data as rd

    from rasters_ray.util import exchange

    schema = pa.schema([("k", pa.int64()), ("n", pa.int64())])

    def count(part: pa.Table) -> pa.Table:
        return pa.table([part.column("k"), pa.array(np.full(part.num_rows, part.num_rows))],
                        schema=schema)

    n = int(ray.cluster_resources()["CPU"])
    assert n > 2
    ds = exchange(rd.from_arrow(pa.table({"k": pa.array([1, 2], pa.int64())})), "k", count)
    blocks = ray.get(ds.materialize().to_arrow_refs())
    assert len(blocks) == n
    assert all(b.schema == schema for b in blocks)
    assert sum(b.num_rows for b in blocks) == 2
    # the pad rows that keep every partition non-empty never reach ``fn``
    assert all(set(b.column("n").to_pylist()) <= {b.num_rows} for b in blocks)


def test_exchange_matches_group_by_reference_under_one_part_plan(one_cpu_results):
    assert one_cpu_results["exchange_property"] == "ok"


@pytest.mark.parametrize("name", OPERATORS)
def test_operators_agree_across_plans(ray_session, one_cpu_results, name):
    got = run_operator(name)
    assert int(got.split(":")[0]) > 0
    assert got == one_cpu_results["operators"][name]


@pytest.mark.parametrize("name", EXCHANGE_QUERIES)
def test_exchange_queries_agree_across_plans(ray_session, one_cpu_results, name):
    digest, _ = run_query(name)
    assert int(digest.split(":")[0]) > 0
    assert digest == one_cpu_results["queries"][name][0]


@pytest.mark.parametrize("name", ["percent_rank", "user_running", "cooccurrence"])
def test_one_part_query_plan_has_no_ray_sort(one_cpu_results, name):
    ops = one_cpu_results["queries"][name][1]
    names = [op for op, _ in ops]
    assert not [op for op in names if "Sort" in op or "AllToAll" in op], names
    # one gather task (``cooccurrence``'s two gathers fuse into it)
    assert set(ops[-1][0].split("->")) == {"MapBatches(apply_block)"} and ops[-1][1] == 1, ops


@pytest.mark.parametrize("name", ["percent_rank", "cusum"])
def test_n_part_query_yields_typed_blocks(ray_session, name):
    """The query keys on five event types, so a part may get none: each
    part still yields a block with the query's schema, not a zero-column
    one."""
    blocks = _blocks(query_result(name))
    assert len(blocks) > 1 and blocks[0].num_columns
    assert all(b.schema == blocks[0].schema for b in blocks)
    # a part got pad rows alone, so its kernel ran on zero rows
    assert any(b.num_rows == 0 for b in blocks), [b.num_rows for b in blocks]


@pytest.mark.parametrize("name", EXCHANGE_QUERIES)
def test_exchange_query_kernels_take_a_zero_row_part(ray_session, monkeypatch, name):
    """Every ``fn`` the query hands to ``exchange`` takes a zero-row part
    (what a part of pad rows alone gets) and returns its own typed empty
    table, with the schema it returns on the query's real input."""
    import rasters_ray.util as util
    from rasters_ray.relational import sequence

    real, calls = util.exchange, []

    def capture(ds, keys, fn):
        calls.append((ds, fn))
        return real(ds, keys, fn)

    monkeypatch.setattr(util, "exchange", capture)
    monkeypatch.setattr(sequence, "exchange", capture)
    query_result(name)
    assert calls
    for ds, fn in calls:
        inputs = ds if isinstance(ds, (list, tuple)) else [ds]
        full = pa.concat_tables([b for d in inputs for b in _blocks(d)])
        assert full.num_rows
        want = fn(full).schema
        got = fn(full.slice(0, 0))
        assert got.num_rows == 0 and got.schema == want, (got.schema, want)


def test_user_running_over_one_user_fills_one_part(ray_session, tmp_path):
    """One user reaches one of the n parts; the others get pad rows
    alone, and the query still returns that user's rows in typed
    blocks."""
    import ray
    import pyarrow.parquet as pq

    import __ray_entry__ as entry
    from test_contract_smoke import SF_DIR

    events = pq.read_table(f"{SF_DIR}/events.parquet")
    one = pc.equal(events.column("user_id"), events.column("user_id")[0])
    pq.write_table(events.filter(one), str(tmp_path / "events.parquet"))
    blocks = _blocks(entry.queries()["user_running"](str(tmp_path)))
    assert len(blocks) == int(ray.cluster_resources()["CPU"]) > 2
    assert [b.num_rows > 0 for b in blocks].count(True) == 1, [b.num_rows for b in blocks]
    assert all(b.schema == blocks[0].schema for b in blocks)
    full = _table(query_result("user_running"))
    mine = full.filter(pc.equal(full.column("user_id"), events.column("user_id")[0]))
    assert mine.num_rows > 1
    assert _sorted_digest(blocks) == _sorted_digest([mine])


@pytest.fixture(scope="module")
def four_cpu_flagship(ray_session, tmp_path_factory):
    return run_flagship(str(tmp_path_factory.mktemp("flagship")))


def test_flagship_job_equals_one_process_reference_under_both_plans(
        four_cpu_flagship, one_cpu_results):
    want = flagship_reference()
    for got in (four_cpu_flagship, one_cpu_results["flagship"]):
        assert got["rows"] == want["rows"]
        assert got["digest"] == want["digest"]


@pytest.mark.parametrize("cpus", [1, 4])
def test_flagship_runs_at_most_one_tile_task_per_chunk(four_cpu_flagship, one_cpu_results, cpus):
    """A job over N images runs ceil(N / bundle) tile/write tasks: two
    per CPU at 1 CPU, one per TILE_CHUNK images at 4 CPUs (a bundle is
    never smaller than a chunk), and each task writes at most one file
    per partition although its bundle spans several input blocks."""
    from rasters_ray.stages.tiling import TILE_CHUNK

    got = one_cpu_results["flagship"] if cpus == 1 else four_cpu_flagship
    assert got["bundle"] == max(TILE_CHUNK, -(-FLAGSHIP_IMAGES // (2 * cpus)))
    n_tasks = -(-FLAGSHIP_IMAGES // got["bundle"])
    assert n_tasks == {1: 2, 4: -(-FLAGSHIP_IMAGES // TILE_CHUNK)}[cpus]
    name, tasks = got["ops"][-1]
    assert name.endswith("->Write") and tasks == n_tasks, got["ops"]
    for names in got["files"].values():
        assert len(names) <= n_tasks, names
