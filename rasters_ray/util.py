"""Small shared helpers."""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Optional

import numpy as np

_FIB_MIX = np.uint64(0x9E3779B97F4A7C15)  # 2^64 / golden ratio


def hash_parts(values, n_parts: int) -> np.ndarray:
    """Hash partition (0..n_parts) of an id array (``hash_u64`` mod
    ``n_parts``).  Two callers: the checkpointed tiling job's output
    partitions (``pipelines/flagship.py``) and the dedup index's shards
    (``state/dedupindex.py``).  A shuffle goes through ``exchange``."""
    return (hash_u64(values) % np.uint64(n_parts)).astype(np.int64)


def hash_u64(values) -> np.ndarray:
    """Full-width deterministic u64 hash of a column — vectorized
    Fibonacci mix for numeric ids, pandas C-siphash (FIXED default key,
    stable across worker processes — unlike builtin ``hash()`` under
    per-process PYTHONHASHSEED) for strings, per-value crc32 fallback.

    The rule follows the column's TYPE, never its values: a string id
    hashes the same way in every block, whether or not the block's ids
    all happen to parse as integers."""
    import zlib

    import pyarrow as pa

    t = values.type
    if not (pa.types.is_string(t) or pa.types.is_large_string(t)
            or pa.types.is_binary(t) or pa.types.is_large_binary(t)
            or pa.types.is_dictionary(t)):
        try:
            v = np.asarray(values.to_numpy(zero_copy_only=False), dtype=np.int64).astype(
                np.uint64
            )
            return (v * _FIB_MIX) >> np.uint64(32)  # wraps mod 2^64
        except (TypeError, ValueError, pa.ArrowInvalid):
            pass
    try:
        import pandas as pd

        obj = np.asarray(values.to_numpy(zero_copy_only=False), dtype=object)
        return pd.util.hash_array(obj, categorize=True).astype(np.uint64)
    except Exception:
        return np.array(
            [zlib.crc32(str(x).encode()) for x in values.to_pylist()],
            dtype=np.uint64,
        )


_FNV_PRIME = np.uint64(1099511628211)


def hash_cols(table, cols) -> np.ndarray:
    """Full-width u64 hash of a COMPOSITE key (several columns): the
    per-column ``hash_u64`` values folded FNV-style, so equal keys hash
    equally on both sides of a join whatever their column names."""
    h = np.zeros(table.num_rows, dtype=np.uint64)
    for c in cols:
        h = h * _FNV_PRIME ^ hash_u64(table.column(c))
    return h


def cluster_cpus() -> int:
    """The cluster's CPU count (at least 1), read when a plan is built:
    the one figure that sizes exchanges and tile bundles."""
    import ray

    return max(1, int(ray.cluster_resources().get("CPU", 1)))


def known_rows(ds) -> Optional[int]:
    """The row count of ``ds`` when Ray knows it without executing
    anything, else None.  Ray 2.49.2's ``Dataset._meta_count`` (what
    ``Dataset.count`` consults first) never executes: it is exact for
    a parquet read, an in-memory table and ``limit(0)``, and None for a
    map's output, ``select_columns`` or a ``read_parquet(filter=...)``."""
    return ds._meta_count()


def run_starts(*cols) -> np.ndarray:
    """Start index of each run of equal rows in the sorted arrays
    ``cols`` (one or more, of one length, any dtype ``!=`` compares):
    a run breaks where any column changes.  Empty arrays have no runs —
    ``exchange`` calls its ``fn`` on zero-row parts, so every kernel
    finds its runs here."""
    change = np.zeros(len(cols[0]), bool)
    change[:1] = True
    for c in cols:
        change[1:] |= c[1:] != c[:-1]
    return np.flatnonzero(change)


# A ``map_batches`` batch size no dataset reaches: the map's bundler
# then waits for every input block and hands one task all the rows.
# Two users: ``exchange``'s one-part gather and the one-CPU plan of
# ``stages.point_join.sample_points``.
GATHER_ROWS = 1 << 62


def exchange(ds, keys, fn):
    """The engine's one hash shuffle: ``fn(part)`` runs once per
    partition and sees every row of each key in that partition, in no
    particular order, with the input's columns.  ``ds`` is one dataset
    or a list of datasets with one schema (e.g. the two tagged sides of
    a join), whose union is shuffled: pass the list rather than a
    ``union`` of it, so each input's tag map fuses into its own last map
    instead of copying the whole union once more.

    The part count ``n`` is the cluster's CPU count, read when the
    dataset is built.  Two plans:

    - ``n == 1``: one gather task — a ``map_batches`` whose batch holds
      every row (``GATHER_ROWS``) runs ``fn`` once over the whole
      dataset, with no repartition, hash tag, sort or boundary
      sampling; the batch is a zero-copy view of the input blocks, not
      a copy of every row (``fn`` only reads Arrow).  Its
      ``concurrency=1`` task pool keeps Ray from fusing it into the
      upstream map, so upstream stages still stream, one task per
      batch, instead of one task holding every input;
    - ``n > 1``: each row is tagged with its part, the hash of its key
      columns (``hash_cols``) mod ``n``, and sorted on the tag with the
      known boundaries, so Ray skips its sampling pass and returns
      exactly ``n`` blocks.  Every tagging task also appends one
      all-null PAD row per part, so no partition reaches the final map
      empty: Ray skips its UDF on an empty block and emits a
      zero-column one instead.  The one int16 column ``_part`` holds
      ``2 * part`` for a row and ``2 * part + 1`` for a pad, so a row
      pays two bytes to cross; the pads are dropped before ``fn``.

    So a partition of pads alone calls ``fn`` on a ZERO-ROW table that
    keeps the input's schema (the pads carry it), and ``fn`` returns
    its own typed empty result: no caller names its output schema up
    front.  An input of empty blocks alone calls no ``fn`` under either
    plan, and yields no rows."""
    import pyarrow as pa
    import pyarrow.compute as pc

    keys_l = [keys] if isinstance(keys, str) else list(keys)
    inputs = list(ds) if isinstance(ds, (list, tuple)) else [ds]

    def union(parts: list):
        return parts[0].union(*parts[1:]) if len(parts) > 1 else parts[0]

    n = cluster_cpus()
    if n == 1:
        def apply_block(block: pa.Table) -> pa.Table:  # one operator name for every caller
            return fn(block)

        return union(inputs).map_batches(apply_block, batch_size=GATHER_ROWS, concurrency=1,
                                         zero_copy_batch=True, batch_format="pyarrow")

    def tag(t: pa.Table) -> pa.Table:
        pads = pa.Table.from_arrays([pa.nulls(n, f.type) for f in t.schema], schema=t.schema)
        part = (hash_cols(t, keys_l) % np.uint64(n)).astype(np.int16)
        tags = np.concatenate([2 * part, 2 * np.arange(n, dtype=np.int16) + 1])
        return pa.concat_tables([t, pads]).append_column("_part", pa.array(tags, pa.int16()))

    def run(part: pa.Table) -> pa.Table:
        real = pc.equal(pc.bit_wise_and(part.column("_part"), 1), 0)
        return fn(part.filter(real).drop_columns(["_part"]))

    return (
        union([d.map_batches(tag, batch_format="pyarrow") for d in inputs])
        .sort("_part", boundaries=list(range(2, 2 * n, 2)))
        .map_batches(run, batch_size=None, batch_format="pyarrow")
    )


# Broadcasts each worker process keeps deserialized: the most one
# pipeline reads at once (``ivf_topk``: the probe centroids and
# ``cosine_topk``'s query matrix).
FETCH_CACHE_SIZE = 2
_FETCHED: OrderedDict = OrderedDict()
_FETCH_LOCK = threading.Lock()  # threaded actors may share one worker


def fetch(ref):
    """The value behind a broadcast ``ref`` (a ``ray.put`` of the small
    side), deserialized once per worker process and kept in an LRU of
    ``FETCH_CACHE_SIZE`` entries.  The one place a worker turns a
    broadcast ref into a value; the value is shared, never mutate it."""
    key = ref.hex()
    with _FETCH_LOCK:
        if key in _FETCHED:
            _FETCHED.move_to_end(key)
            return _FETCHED[key]
    import ray

    value = ray.get(ref)
    with _FETCH_LOCK:
        value = _FETCHED.setdefault(key, value)
        _FETCHED.move_to_end(key)
        while len(_FETCHED) > FETCH_CACHE_SIZE:
            _FETCHED.popitem(last=False)
    return value
