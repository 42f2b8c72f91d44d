"""``util.exchange`` and the steps routed through it, under both plans.

The Tier-1 session has 4 CPUs, so ``exchange`` runs its n-part plan
(hash tag + known-boundary sort) there.  The 1-part plan (one
``repartition(1)`` block, no tag, no sort) runs in a ``num_cpus=1``
session in a subprocess, which computes every case once
(``one_cpu_results``).  Both must equal the same single-process
reference."""

import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pytest

from rasters_ray import codec
from rasters_ray.sources import make_oracle_images, oracle_grid_origin
from rasters_ray.stages import composite_cells, make_tiles, merge_mean_lattice, sample_points
from rasters_ray.stages.composite import (
    composite_group,
    mosaic_best_lattice,
    mosaic_first_lattice,
)
from rasters_ray.stages.point_join import JOIN_SCHEMA, PointBuckets, sample_points_batch

LEVEL = 8
ANTI_JOIN_CASES = ["none_matched", "all_matched", "no_images", "split_blocks"]
LATTICES = ["merge_mean", "mosaic_first", "mosaic_best"]
COMPOSITES = ["merge_mean", "merge_mean_banded", "mosaic_first"]


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
    if name == "all_matched":
        return ([make_oracle_images(np.arange(4))],
                _points(["a", "b", "c"], [_center(0, 0, 0), _center(0, 3, 5), _center(1, 60, 70)]), 64)
    if name == "no_images":
        return ([make_oracle_images(np.arange(0))],
                _points(["a", "b"], [_center(0, 0, 0), (100.0, 0.0)]), 64)
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


def _table(ds) -> pa.Table:
    import ray

    return pa.concat_tables(ray.get(ds.materialize().to_arrow_refs()))


def run_anti_join(name: str) -> list:
    import ray.data as rd

    blocks, points, batch_size = anti_join_case(name)
    ds = sample_points(rd.from_arrow(blocks), points, level=LEVEL, include_misses=True,
                       batch_size=batch_size)
    return _rows(_table(ds))


def run_lattice(name: str) -> str:
    """Digest of one lattice combine over 8 oracle images, sorted by (gx, gy)."""
    import ray.data as rd

    imgs = make_oracle_images(np.arange(8))
    d = np.arange(8, dtype=np.int64)
    imgs = imgs.append_column("order", pa.array(d)).append_column("quality", pa.array((d * 37) % 11))
    ds = rd.from_arrow([imgs.slice(0, 3), imgs.slice(3)])
    if name == "merge_mean":
        out = merge_mean_lattice(ds, 0.01)
    elif name == "mosaic_first":
        out = mosaic_first_lattice(ds, 0.01, order_col="order")
    else:
        out = mosaic_best_lattice(ds, 0.01)
    return _digest(_table(out).sort_by([("gx", "ascending"), ("gy", "ascending")]))


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


_ONE_CPU = """
import json, sys
import ray, ray.data as rd
sys.path.insert(0, "tests")
ray.init(address="local", num_cpus=1, include_dashboard=False, logging_level="ERROR")
rd.DataContext.get_current().enable_progress_bars = False
import test_exchange as t
out = {"anti_join": {c: t.run_anti_join(c) for c in t.ANTI_JOIN_CASES},
       "lattice": {c: t.run_lattice(c) for c in t.LATTICES},
       "composite": {c: t.run_composite(c) for c in t.COMPOSITES}}
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
    ds = exchange(rd.from_arrow(pa.table({"k": pa.array([1, 2], pa.int64())})), "k", count, schema)
    blocks = ray.get(ds.materialize().to_arrow_refs())
    assert len(blocks) == n
    assert all(b.schema == schema for b in blocks)
    assert sum(b.num_rows for b in blocks) == 2
    # the pad rows that keep every partition non-empty never reach ``fn``
    assert all(set(b.column("n").to_pylist()) <= {b.num_rows} for b in blocks)
