"""Self-tests of the benchmark.

    python3 -m pytest perfbench/tests -q

- every workload runs once at smoke scale from a foreign working
  directory, passes its correctness check and leaves no Ray process;
- a traced run prints every per-layer metric, reads the operator table
  of the checkpointed job and fails when that table is lost;
- Ray's CPU count equals ``nproc``;
- a corrupted output is reported as a failure, while the same pixels
  under another codec still pass.
"""

from __future__ import annotations

import glob
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from perfbench import run, session
from perfbench.workloads import WORKLOADS

RUN = os.path.join(session.ROOT, "perfbench", "run.py")


def _bench(tmp_path, workload, trace=0):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", "3", "--seconds", "0",
         "--trace", str(trace), "--scale", "smoke"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _ray_processes():
    """Processes whose command line names this checkout's Ray sessions."""
    mark = os.path.join(session.ROOT, ".rt")
    return [p for p in os.listdir("/proc") if p.isdigit() and mark in session._cmdline(int(p))]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run_is_correct_and_cleans_up(tmp_path, workload):
    result = _bench(tmp_path, workload)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 4
    assert set(result["metrics"]) == set(run.END_TO_END_UNITS)
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert _ray_processes() == []


def test_traced_run_prints_every_layer_metric(tmp_path):
    result = _bench(tmp_path, "composite", trace=1)
    assert result["correct"]
    assert set(result["metrics"]) == set(run.PER_LAYER_UNITS)
    assert result["metrics"]["composite.cells_out"]["value"] > 0
    assert result["metrics"]["tiling.tiles_out"]["value"] > 0


def test_traced_tile_job_reads_the_checkpointed_operator_table(tmp_path):
    m = {k: v["value"] for k, v in _bench(tmp_path, "tile_job", trace=1)["metrics"].items()}
    assert m["ray.tasks"] > 0 and m["sources.bytes_read"] > 0 and m["sources.read_s"] > 0
    # every partition reads the whole input, as job_entry --input feeds them
    assert m["checkpoint.input_read_factor"] >= m["checkpoint.partitions"] - 0.5


def test_lost_operator_table_fails_the_run():
    from perfbench.trace import TraceLost, operator_table

    with pytest.raises(TraceLost):
        operator_table([])


def test_ray_cpus_equal_nproc():
    nproc = int(subprocess.run(["nproc"], capture_output=True, text=True, check=True).stdout)
    assert session.nproc() == nproc
    info = session.start_session()
    try:
        assert info["cluster_cpus"] == nproc
    finally:
        session.stop_session(info)
    assert _ray_processes() == []


@pytest.fixture
def smoke(tmp_path):
    """Workload objects at smoke scale with their one-process outputs."""

    def make(name):
        wl = WORKLOADS[name](str(tmp_path / "cache"), str(tmp_path / "work"), 5, "smoke")
        wl.prepare()
        return wl

    return make


def _replace_column(table: pa.Table, name: str, values) -> pa.Table:
    i = table.column_names.index(name)
    return table.set_column(i, name, pa.array(values, table.schema.field(name).type))


def test_corrupted_tiles_fail_and_recoded_tiles_pass(smoke):
    from rasters_ray import codec

    wl = smoke("tile_job")
    _, out = wl.floor()
    files = sorted(glob.glob(os.path.join(out["root"], "part-*", "*.parquet")))
    tiles = pq.read_table(files[0])
    k = next(i for i, f in enumerate(tiles.column("fmt").to_pylist()) if f == "png")
    px = codec.decode(tiles.column("bytes")[k].as_py(), "png")

    # the same pixels as NPY: a codec change that keeps pixels passes
    blobs = tiles.column("bytes").to_pylist()
    fmts = tiles.column("fmt").to_pylist()
    blobs[k], fmts[k] = codec.encode(px, "npy"), "npy"
    recoded = _replace_column(_replace_column(tiles, "bytes", blobs), "fmt", fmts)
    pq.write_table(recoded, files[0])
    saved = os.path.join(os.path.dirname(out["root"]), "saved")
    shutil.copytree(out["root"], saved)
    assert wl.check(out)

    # one pixel changed: reported as a failure
    shutil.copytree(saved, out["root"])
    bad = px.copy()
    bad[0, 0] ^= 1
    blobs[k] = codec.encode(bad, "npy")
    pq.write_table(_replace_column(recoded, "bytes", blobs), files[0])
    assert not wl.check(out)


def test_corrupted_point_sample_fails(smoke):
    wl = smoke("point_sample")
    _, out = wl.floor()
    assert wl.check(out)
    assert wl.check(out.take(np.random.default_rng(0).permutation(out.num_rows)))  # row order is free
    values = out.column("value").to_pylist()
    k = next(i for i, v in enumerate(values) if v == v)
    values[k] += 1.0
    assert not wl.check(_replace_column(out, "value", values))


def test_corrupted_composite_fails(smoke):
    from rasters_ray import codec

    wl = smoke("composite")
    _, out = wl.floor()
    assert wl.check(out)
    blobs = out.column("bytes").to_pylist()
    arr = np.array(codec.decode(blobs[0], "npy"))
    arr.flat[np.flatnonzero(np.isfinite(arr))[0]] += 0.5
    blobs[0] = codec.encode(arr, "npy")
    assert not wl.check(_replace_column(out, "bytes", blobs))


def test_corrupted_integer_sum_fails(smoke):
    wl = smoke("relational_join")
    _, out = wl.floor()
    assert wl.check(out)
    sums = out.column("revenue_c").to_pylist()
    sums[0] += 1
    assert not wl.check(_replace_column(out, "revenue_c", sums))
