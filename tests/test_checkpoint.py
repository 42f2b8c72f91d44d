"""Per-partition checkpoint manifest: resume skips completed partitions and
reruns produce identical remaining output (FIXTURES.md §6.5)."""

import json
import os
import shutil

import pytest

from rasters_ray import checkpoint


def _parts(n):
    return [{"partition_id": f"part-{i:03d}", "inputs": [{"lo": i, "hi": i + 1}]} for i in range(n)]


def test_run_partitioned_writes_manifest(tmp_path):
    root = str(tmp_path / "out")
    calls = []

    def run_one(part, out_dir):
        calls.append(part["partition_id"])
        with open(os.path.join(out_dir, "data.txt"), "w") as f:
            f.write(part["partition_id"])
        return 7

    rows = checkpoint.run_partitioned(root, _parts(3), run_one)
    assert len(rows) == 3
    assert len(calls) == 3
    for r in rows:
        assert r["row_count"] == 7
        assert r["bytes"] > 0
        assert r["wall_ms"] >= 0
        assert r["inputs"]
    done = checkpoint.completed_partitions(root)
    assert set(done) == {"part-000", "part-001", "part-002"}


def test_resume_skips_completed(tmp_path):
    root = str(tmp_path / "out")
    calls = []

    def run_one(part, out_dir):
        calls.append(part["partition_id"])
        with open(os.path.join(out_dir, "data.txt"), "w") as f:
            f.write(part["partition_id"])
        return 1

    checkpoint.run_partitioned(root, _parts(2), run_one)
    calls.clear()
    rows = checkpoint.run_partitioned(root, _parts(4), run_one)
    assert calls == ["part-002", "part-003"]  # first two skipped
    assert len(rows) == 4


def test_torn_partition_is_redone(tmp_path):
    root = str(tmp_path / "out")

    def run_one(part, out_dir):
        with open(os.path.join(out_dir, "data.txt"), "w") as f:
            f.write("x")
        return 1

    checkpoint.run_partitioned(root, _parts(2), run_one)
    # simulate a torn write: output dir present but manifest row removed
    os.remove(os.path.join(root, "_manifest", "part-001.json"))
    calls = []

    def run_two(part, out_dir):
        calls.append(part["partition_id"])
        with open(os.path.join(out_dir, "data.txt"), "w") as f:
            f.write("y")
        return 1

    checkpoint.run_partitioned(root, _parts(2), run_two)
    assert calls == ["part-001"]
    with open(os.path.join(root, "part-001", "data.txt")) as f:
        assert f.read() == "y"


def test_crash_mid_partition_then_resume(tmp_path):
    root = str(tmp_path / "out")

    class Boom(Exception):
        pass

    def run_crash(part, out_dir):
        with open(os.path.join(out_dir, "data.txt"), "w") as f:
            f.write("partial")
        if part["partition_id"] == "part-001":
            raise Boom()
        return 1

    with pytest.raises(Boom):
        checkpoint.run_partitioned(root, _parts(3), run_crash)
    done = checkpoint.completed_partitions(root)
    assert set(done) == {"part-000"}

    def run_ok(part, out_dir):
        with open(os.path.join(out_dir, "data.txt"), "w") as f:
            f.write("ok")
        return 1

    rows = checkpoint.run_partitioned(root, _parts(3), run_ok)
    assert len(rows) == 3
    assert set(checkpoint.completed_partitions(root)) == {"part-000", "part-001", "part-002"}


def test_flagship_partitioned_resume(tmp_path, ray_session):
    from rasters_ray.pipelines.flagship import run_flagship_partitioned
    from rasters_ray.sources import make_oracle_images

    def make_images_ds(lo, hi):
        import numpy as np
        import ray.data as rd

        return rd.from_arrow(make_oracle_images(np.arange(lo, hi)))

    make_images_ds.total = 8
    root = str(tmp_path / "tiles")
    rows = run_flagship_partitioned(make_images_ds, root, n_partitions=4, level=9)
    assert len(rows) == 4
    assert all(r["row_count"] > 0 for r in rows)
    # resume: nothing re-runs (manifest rows identical objects)
    rows2 = run_flagship_partitioned(make_images_ds, root, n_partitions=4, level=9)
    assert [r["finished_at"] for r in rows] == [r["finished_at"] for r in rows2]
    # output readable per partition directory
    import pyarrow.dataset as pads

    total_rows = sum(
        pads.dataset(os.path.join(root, d)).count_rows()
        for d in os.listdir(root)
        if d.startswith("part-")
    )
    assert total_rows == sum(r["row_count"] for r in rows)


def _oracle_feed(total, bad_id=None):
    """``make_images_ds`` over the oracle images; ``bad_id``'s bytes do
    not decode, so tiling that image raises."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from rasters_ray.sources import make_oracle_images

    def make_images_ds(lo, hi):
        t = make_oracle_images(np.arange(lo, hi))
        if bad_id is not None:
            blobs = t.column("bytes").to_pylist()
            blobs[bad_id - lo] = b"not an image"
            t = t.set_column(t.column_names.index("bytes"), "bytes", pa.array(blobs, pa.binary()))
        return rd.from_arrow(t)

    make_images_ds.total = total
    return make_images_ds


def _partition_tables(root):
    """partition_id -> its tiles, order-free (sorted by tile_id); an
    empty partition's directory holds no file."""
    import pyarrow.dataset as pads

    out = {}
    for d in sorted(os.listdir(root)):
        if d.startswith("part-"):
            t = pads.dataset(os.path.join(root, d)).to_table()
            out[d] = t.sort_by("tile_id") if t.num_rows else t
    return out


def test_flagship_hash_partitions_count_exactly(tmp_path, ray_session):
    """n_partitions manifest rows whatever the input size; together they
    hold every tile of a plain tile_images run."""
    from rasters_ray.pipelines.flagship import run_flagship_partitioned
    from rasters_ray.stages import tile_images

    feed = _oracle_feed(10)
    rows = run_flagship_partitioned(feed, str(tmp_path / "t"), n_partitions=4, level=9)
    assert [r["partition_id"] for r in rows] == [f"part-{k:05d}" for k in range(4)]
    assert [r["inputs"] for r in rows] == [
        [{"hash": "image_id", "part": k, "of": 4}] for k in range(4)
    ]
    assert sum(r["row_count"] for r in rows) == tile_images(feed(0, 10), level=9).count()
    # more partitions than images: empty buckets still get a directory and a row
    rows = run_flagship_partitioned(_oracle_feed(3), str(tmp_path / "s"), n_partitions=4, level=9)
    assert len(rows) == 4 and sorted(r["row_count"] for r in rows)[0] == 0
    assert len(_partition_tables(str(tmp_path / "s"))) == 4


def test_flagship_resume_rejects_other_partition_count(tmp_path, ray_session):
    from rasters_ray.pipelines.flagship import run_flagship_partitioned

    root = str(tmp_path / "tiles")
    feed = _oracle_feed(8)
    rows = run_flagship_partitioned(feed, root, n_partitions=4, level=9)
    before = sum(t.num_rows for t in _partition_tables(root).values())
    assert before == sum(r["row_count"] for r in rows)
    with pytest.raises(ValueError, match="part-00000.*'of': 4.*'of': 8"):
        run_flagship_partitioned(feed, root, n_partitions=8, level=9)
    assert sum(t.num_rows for t in _partition_tables(root).values()) == before


def test_flagship_resume_redoes_only_lost_partitions(tmp_path, ray_session):
    from rasters_ray.pipelines.flagship import run_flagship_partitioned

    feed = _oracle_feed(8)
    clean = str(tmp_path / "clean")
    run_flagship_partitioned(feed, clean, n_partitions=4, level=9)
    root = str(tmp_path / "tiles")
    rows = run_flagship_partitioned(feed, root, n_partitions=4, level=9)
    lost = {"part-00001", "part-00002"}
    for pid in lost:
        os.remove(os.path.join(root, "_manifest", f"{pid}.json"))
        shutil.rmtree(os.path.join(root, pid))
    rows2 = run_flagship_partitioned(feed, root, n_partitions=4, level=9)
    for r, r2 in zip(rows, rows2):
        assert (r["finished_at"] != r2["finished_at"]) == (r["partition_id"] in lost)
        assert r["row_count"] == r2["row_count"]
    assert _partition_tables(root) == _partition_tables(clean)


def test_flagship_failed_execution_commits_nothing(tmp_path, ray_session):
    from rasters_ray.pipelines.flagship import run_flagship_partitioned

    root = str(tmp_path / "tiles")
    with pytest.raises(Exception):
        run_flagship_partitioned(_oracle_feed(8, bad_id=5), root, n_partitions=4, level=9)
    assert checkpoint.completed_partitions(root) == {}
    assert not [d for d in os.listdir(root) if d.startswith("part-")]
    clean = str(tmp_path / "clean")
    run_flagship_partitioned(_oracle_feed(8), clean, n_partitions=4, level=9)
    run_flagship_partitioned(_oracle_feed(8), root, n_partitions=4, level=9)
    assert _partition_tables(root) == _partition_tables(clean)


def test_partition_sink_retried_task_does_not_duplicate(tmp_path):
    """A write task that is retried after writing its files rewrites the
    same files; the committed row counts match the data on disk once."""
    import numpy as np
    from ray.data._internal.execution.interfaces import TaskContext
    from ray.data.datasource.datasink import WriteResult

    from rasters_ray.pipelines.flagship import PartitionSink
    from rasters_ray.sources import make_oracle_images
    from rasters_ray.stages import make_tiles

    tiles = make_tiles(make_oracle_images(np.arange(8)), level=9)
    root = str(tmp_path / "tiles")
    parts = [{"partition_id": f"part-{k:05d}"} for k in range(4)]
    _, pending = checkpoint.pending_partitions(root, parts)
    sink = PartitionSink(root, 4)
    ctx = TaskContext(task_idx=3, op_name="Write")
    first = sink.write([tiles.slice(0, 40), tiles.slice(40)], ctx)
    retry = sink.write([tiles.slice(0, 40), tiles.slice(40)], ctx)
    assert first.keys() == retry.keys()
    sink.on_write_complete(WriteResult(0, 0, [first, retry]))
    rows = [
        checkpoint.commit_partition(root, p, sink.totals.get(k, (0, 0))[0], 1.0)
        for k, p in enumerate(pending)
    ]
    assert sum(r["row_count"] for r in rows) == tiles.num_rows
    on_disk = _partition_tables(root)
    assert sum(t.num_rows for t in on_disk.values()) == tiles.num_rows
    for r in rows:
        assert r["row_count"] == on_disk[r["partition_id"]].num_rows


def test_partition_sink_writes_a_multi_block_task_into_one_file_per_partition(tmp_path):
    """A write task that takes several blocks writes one file per
    partition, holding that partition's rows of every block."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq
    from ray.data._internal.execution.interfaces import TaskContext

    from rasters_ray.pipelines.flagship import PartitionSink
    from rasters_ray.sources import make_oracle_images
    from rasters_ray.stages import make_tiles
    from rasters_ray.util import hash_parts

    tiles = make_tiles(make_oracle_images(np.arange(8)), level=9)
    root = str(tmp_path / "tiles")
    checkpoint.pending_partitions(root, [{"partition_id": f"part-{k:05d}"} for k in range(4)])
    blocks = [tiles.slice(s, 7) for s in range(0, tiles.num_rows, 7)]
    blocks.insert(1, tiles.slice(0, 0))
    assert len(blocks) > 4
    written = PartitionSink(root, 4).write(blocks, TaskContext(task_idx=5, op_name="Write"))
    parts = hash_parts(tiles.column("image_id"), 4)
    assert sorted(written) == [(k, 5) for k in sorted(set(parts.tolist()))]
    for (k, _), (_, n_rows, nbytes) in written.items():
        tmp = checkpoint.tmp_dir(root, f"part-{k:05d}")
        assert os.listdir(tmp) == ["task-000005.parquet"]
        path = os.path.join(tmp, "task-000005.parquet")
        assert nbytes == os.path.getsize(path)
        want = tiles.filter(pa.array(parts == k))
        assert n_rows == want.num_rows
        assert pq.read_table(path).sort_by("tile_id").equals(want.sort_by("tile_id"))


@pytest.mark.parametrize("cpus,total,bundle", [
    (1, 200, 100),    # two tasks per CPU
    (1, 10, 32),      # never below one chunk
    (4, 160, 32),     # so never more tasks than chunks
    (32, 8000, 125),
    (1, 8000, 128),   # never above MAX_BUNDLE
])
def test_tile_bundle_stays_between_one_chunk_and_the_cap(monkeypatch, cpus, total, bundle):
    from rasters_ray.pipelines import flagship

    monkeypatch.setattr(flagship, "cluster_cpus", lambda: cpus)
    assert flagship.tile_bundle(total) == bundle


def test_zone_map_pruning(ray_session, tmp_path):
    """Partition stats in the manifest skip non-overlapping partitions at
    read time; the pruned read equals the filtered full scan."""
    import os

    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from rasters_ray.checkpoint import (
        prune_partitions,
        read_pruned,
        run_partitioned,
    )

    root = str(tmp_path / "zoned")
    rng = np.random.default_rng(3)
    vals = np.sort(rng.uniform(0, 100, 4000))
    chunks = np.array_split(vals, 8)  # contiguous ranges -> tight zone maps

    def run_one(part, out_dir):
        i = int(part["partition_id"].split("_")[1])
        v = chunks[i]
        pq.write_table(
            pa.table({"x": v}), os.path.join(out_dir, "part.parquet")
        )
        return len(v), {"x": [float(v.min()), float(v.max())]}

    parts = [{"partition_id": f"p_{i:02d}"} for i in range(8)]
    rows = run_partitioned(root, parts, run_one)
    assert all("stats" in r for r in rows)

    lo, hi = 30.0, 45.0
    kept = prune_partitions(root, "x", lo, hi)
    assert 0 < len(kept) < 8  # pruning actually skipped partitions
    got = read_pruned(root, "x", lo, hi).to_pandas()["x"].to_numpy()
    inside = vals[(vals >= lo) & (vals <= hi)]
    assert set(np.round(inside, 9)).issubset(set(np.round(got, 9)))
    # every kept partition overlaps; every skipped one doesn't
    for i in range(8):
        pid = f"p_{i:02d}"
        overlaps = chunks[i].min() <= hi and chunks[i].max() >= lo
        assert (pid in kept) == overlaps

    # resume keeps the stats row intact
    rows2 = run_partitioned(root, parts, run_one)
    assert all("stats" in r for r in rows2)
