"""In-memory spans and Ray Data operator statistics.

A span is (name, start, end, parent) tagged with the workload and run;
spans stay in a list and are written once, as JSON lines, when the run
ends.  ``ray_metrics`` folds the operator table behind
``Dataset.stats()`` (its structured form, ``_get_stats_summary()``) into
the ``ray.*`` per-layer metrics.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Dict, List, Optional


class Tracer:
    def __init__(self, workload: str, run: str):
        self.workload = workload
        self.run = run
        self.spans: List[dict] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self.spans[self._stack[-1]]["name"] if self._stack else None
        rec = {"name": name, "start": time.perf_counter(), "end": None, "parent": parent,
               "parent_id": self._stack[-1] if self._stack else None, "id": idx,
               "workload": self.workload, "run": self.run}
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def total(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)

    def write(self, path: str) -> None:
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps(s) + "\n")


def _operators(summary, seen=None) -> list:
    """Every operator summary of a dataset and its parents, once each."""
    seen = set() if seen is None else seen
    out = []
    for op in summary.operators_stats:
        if id(op) not in seen:
            seen.add(id(op))
            out.append(op)
    for parent in summary.parents:
        out.extend(_operators(parent, seen))
    return out


def _sum(d: Optional[Dict], key: str = "sum") -> float:
    return float(d.get(key, 0.0)) if d else 0.0


class TraceLost(RuntimeError):
    """A traced job's operator table is missing; its per-layer figures
    would read 0, so the run fails instead."""


def operator_table(datasets) -> list:
    """Flat operator list over the executed datasets of one job.  Every
    workload reads its input through ``ReadParquet``: a table without it
    means the capture no longer sees the job's datasets."""
    ops = []
    for ds in datasets:
        write_ds = getattr(ds, "_write_ds", None)
        summary = (write_ds or ds)._get_stats_summary()
        ops.extend(_operators(summary))
    if not any(op.operator_name.startswith("ReadParquet") for op in ops):
        raise TraceLost(f"no ReadParquet operator among {len(datasets)} captured datasets "
                        f"({[op.operator_name for op in ops]})")
    return ops


def ray_metrics(ops: list) -> dict:
    """ray.tasks, ray.udf_s, ray.cpu_s, ray.bytes_out, ray.shuffle_bytes,
    ray.partition_skew, ray.peak_heap_mb and sources.read_s /
    sources.bytes_read from an operator list.

    Exchanges are the map/reduce sub-operators of all-to-all operators
    (``SortMap``/``SortReduce``, ``ShuffleMap``/``ShuffleReduce`` ...):
    shuffle bytes are the map side's output, partition skew is max/mean
    rows per block on the reduce side (on the busiest operator's output
    when the job has no exchange)."""
    tasks = sum(int(op.task_rows.get("count", 0)) for op in ops if op.task_rows)
    exch_map = [op for op in ops if op.is_sub_operator and op.operator_name.endswith("Map")]
    exch_red = [op for op in ops if op.is_sub_operator and op.operator_name.endswith("Reduce")]
    reads = [op for op in ops if op.operator_name.startswith("ReadParquet")]

    def skew(op) -> float:
        rows = op.output_num_rows
        return float(rows["max"]) / float(rows["mean"]) if rows and rows.get("mean") else 1.0

    if exch_red:
        part_skew = max(skew(op) for op in exch_red)
    else:
        busiest = max(ops, key=lambda op: _sum(op.output_num_rows), default=None)
        part_skew = skew(busiest) if busiest is not None else 1.0
    return {
        "ray.tasks": tasks,
        "ray.udf_s": sum(_sum(op.udf_time) for op in ops),
        "ray.cpu_s": sum(_sum(op.cpu_time) for op in ops),
        "ray.bytes_out": sum(_sum(op.output_size_bytes) for op in ops),
        "ray.shuffle_bytes": sum(_sum(op.output_size_bytes) for op in exch_map),
        "ray.partition_skew": part_skew,
        "ray.peak_heap_mb": max((_sum(op.memory, "max") for op in ops), default=0.0),
        "sources.read_s": sum(_sum(op.wall_time) for op in reads),
        "sources.bytes_read": sum(_sum(op.output_size_bytes) for op in reads),
    }
