"""Per-partition checkpoint manifests — the north rule's resumability:
"resumable from per-partition checkpoints with lineage + row-count /
throughput metrics emitted per partition".

Layout under an output root:

    <root>/
      _manifest/<partition_id>.json   # one row per COMPLETED partition
      <partition_id>/...parquet       # the partition's output files

One commit protocol serves every job: ``pending_partitions`` checks the
completed rows' lineage against the plan, clears each pending
partition's torn directories and makes its empty ``<root>/.tmp.<id>``;
the job writes there; ``commit_partition`` then ``os.replace``s the tmp
dir onto ``<root>/<id>`` and only after that writes the manifest row
atomically.  A partially-written tmp dir, or an output dir without a
manifest row, is torn and is discarded by the next run.

``run_partitioned`` runs one ``run_one`` per pending partition and
commits each as it finishes.  The flagship tiling job
(``pipelines.flagship``) instead reads its input once and writes every
pending partition in ONE streaming execution, then commits them all;
a crash mid-execution leaves only tmp dirs, so the rerun redoes all of
that run's pending partitions (coarser crash granularity, one read).

Manifest row fields: partition_id, inputs (lineage: the input fragments /
row ranges / hash bucket that produced it), row_count, bytes, wall_ms,
rows_per_sec, finished_at (wall-clock ISO, driver side), optional stats.
"""

from __future__ import annotations

import json
import os
import shutil
import time
from datetime import datetime, timezone
from typing import Callable, Dict, List, Optional, Sequence, Tuple


def _manifest_dir(root: str) -> str:
    return os.path.join(root, "_manifest")


def completed_partitions(root: str) -> Dict[str, dict]:
    """partition_id -> manifest row for every completed partition."""
    mdir = _manifest_dir(root)
    out: Dict[str, dict] = {}
    if not os.path.isdir(mdir):
        return out
    for name in os.listdir(mdir):
        if not name.endswith(".json"):
            continue
        try:
            with open(os.path.join(mdir, name)) as f:
                row = json.load(f)
            out[row["partition_id"]] = row
        except (json.JSONDecodeError, KeyError, OSError):
            continue  # torn manifest row = not completed
    return out


def write_manifest_row(root: str, row: dict) -> None:
    mdir = _manifest_dir(root)
    os.makedirs(mdir, exist_ok=True)
    path = os.path.join(mdir, f"{row['partition_id']}.json")
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(row, f)
    os.replace(tmp, path)


def tmp_dir(root: str, partition_id: str) -> str:
    """Where a pending partition's output is written before its commit."""
    return os.path.join(root, f".tmp.{partition_id}")


def pending_partitions(
    root: str, partitions: Sequence[dict], resume: bool = True
) -> Tuple[Dict[str, dict], List[dict]]:
    """Split ``partitions`` into (completed manifest rows by id, pending).

    A completed row whose ``inputs`` differ from the planned lineage
    raises ValueError: resuming under another partitioning would skip
    some inputs' output by id and write others twice.  Each pending
    partition's torn directories are removed and an empty tmp dir
    (:func:`tmp_dir`) is made for its output."""
    os.makedirs(root, exist_ok=True)
    done = completed_partitions(root) if resume else {}
    completed: Dict[str, dict] = {}
    pending: List[dict] = []
    for part in partitions:
        pid = part["partition_id"]
        row = done.get(pid)
        if row is None:
            pending.append(part)
            continue
        planned = json.loads(json.dumps(part.get("inputs", [])))  # as a manifest row reads back
        if row.get("inputs", []) != planned:
            raise ValueError(
                f"{pid} under {root} was completed with inputs {row.get('inputs')}, "
                f"but this run plans {planned}; use a new root or resume=False"
            )
        completed[pid] = row
    for part in pending:
        pid = part["partition_id"]
        for d in (tmp_dir(root, pid), os.path.join(root, pid)):
            if os.path.isdir(d):
                shutil.rmtree(d)  # torn previous attempt / output without manifest row
        os.makedirs(tmp_dir(root, pid))
    return completed, pending


def commit_partition(
    root: str,
    part: dict,
    row_count: int,
    wall_ms: float,
    nbytes: Optional[int] = None,
    stats: Optional[dict] = None,
) -> dict:
    """Commit a pending partition whose output is complete in its tmp
    dir: ``os.replace`` it onto ``<root>/<partition_id>``, then write the
    manifest row atomically.  ``nbytes`` defaults to the files' sizes on
    disk; ``stats`` (a zone map ``{col: [min, max]}``) lands in the same
    atomic write as the completion row."""
    pid = part["partition_id"]
    out_dir = os.path.join(root, pid)
    os.replace(tmp_dir(root, pid), out_dir)
    if nbytes is None:
        nbytes = sum(
            os.path.getsize(os.path.join(dp, f)) for dp, _, fs in os.walk(out_dir) for f in fs
        )
    row = {
        "partition_id": pid,
        "inputs": part.get("inputs", []),
        "row_count": int(row_count),
        "bytes": int(nbytes),
        "wall_ms": round(wall_ms, 3),
        "rows_per_sec": round(row_count / (wall_ms / 1000.0), 3) if wall_ms > 0 else None,
        "finished_at": datetime.now(timezone.utc).isoformat(),
    }
    if stats is not None:
        row["stats"] = stats
    write_manifest_row(root, row)
    return row


def run_partitioned(
    root: str,
    partitions: Sequence[dict],
    run_one: Callable[[dict, str], int],
    resume: bool = True,
) -> List[dict]:
    """Drive a partitioned, resumable job, one ``run_one`` per pending
    partition, each committed as soon as it returns.

    partitions: [{"partition_id": str, "inputs": [...], ...}, ...]
    run_one(partition, out_dir) -> row_count, or ``(row_count, stats)``
    where stats is a per-column zone map ``{col: [min, max]}``; writes its
    output under out_dir (Ray parallelism lives INSIDE run_one — e.g. a
    Dataset pipeline consuming that partition's fragments with
    write_parquet).

    Returns the manifest rows of all partitions (completed + just-run).
    """
    rows, pending = pending_partitions(root, partitions, resume)
    for part in pending:
        t0 = time.perf_counter()
        res = run_one(part, tmp_dir(root, part["partition_id"]))
        row_count, stats = res if isinstance(res, tuple) else (res, None)
        wall_ms = (time.perf_counter() - t0) * 1000.0
        rows[part["partition_id"]] = commit_partition(root, part, row_count, wall_ms, stats=stats)
    return [rows[p["partition_id"]] for p in partitions]


def prune_partitions(root: str, col: str, lo, hi) -> List[str]:
    """Partition ids whose manifest zone map ``stats[col] = [min, max]``
    OVERLAPS [lo, hi] — partitions without stats are conservatively
    kept.  This is the 100-TB read lever: a predicate touching 1% of the
    key range opens 1% of the partitions, driven purely by manifest
    metadata (no file opened to decide)."""
    keep = []
    for pid, row in sorted(completed_partitions(root).items()):
        st = (row.get("stats") or {}).get(col)
        if st is None or (st[0] <= hi and st[1] >= lo):
            keep.append(pid)
    return keep


def read_pruned(root: str, col: str, lo, hi):
    """ray.data Dataset over only the partitions overlapping [lo, hi]."""
    import glob

    import ray.data as rd

    files = [
        f
        for pid in prune_partitions(root, col, lo, hi)
        for f in sorted(glob.glob(os.path.join(root, pid, "*.parquet")))
    ]
    if not files:
        raise ValueError("no partition overlaps the requested range")
    return rd.read_parquet(files)
