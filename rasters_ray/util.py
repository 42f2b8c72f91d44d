"""Small shared helpers."""

from __future__ import annotations

import threading
from collections import OrderedDict

import numpy as np

_FIB_MIX = np.uint64(0x9E3779B97F4A7C15)  # 2^64 / golden ratio


def hash_parts(values, n_parts: int) -> np.ndarray:
    """Hash partition (0..n_parts) of an id array (``hash_u64`` mod
    ``n_parts``).

    Shared by every union+groupby shuffle in the repo (dedup joins,
    relational joins) so co-partitioning keys across stages is guaranteed
    to agree."""
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


def hash_parts_cols(table, cols, n_parts: int) -> np.ndarray:
    """Hash partition of a COMPOSITE key (several columns) — per-column
    full-width hashes mixed with an FNV-style fold, so multi-key joins
    co-partition consistently on both sides."""
    h = np.zeros(table.num_rows, dtype=np.uint64)
    for c in cols:
        h = h * _FNV_PRIME ^ hash_u64(table.column(c))
    return (h % np.uint64(n_parts)).astype(np.int64)


def _typed_blocks(fn, out_schema):
    """Whole-block UDF for ``map_batches(batch_size=None)``: an empty
    block yields ``out_schema.empty_table()``, any other block yields
    the tables of ``fn(block)``, so every block of the stage stays
    typed.  (Ray 2.49 never hands a map UDF an empty block — it emits a
    zero-column one instead — so the guard fires on blocks that the
    caller empties itself, such as an exchange part of pads alone.)"""

    def apply_block(block):
        if block.num_rows == 0:
            yield out_schema.empty_table()
            return
        yield from fn(block)

    return apply_block


def map_groups_typed(ds, keys, fn, out_schema):
    """``ds.groupby(keys).map_groups(fn)`` with SCHEMA-TYPED empty outputs.

    Runs the IDENTICAL plan Ray would (sort by keys, then a whole-block
    map that applies ``fn`` per group; equal keys are co-located because
    the sort range-partitions by key value), but empty partitions yield
    ``out_schema.empty_table()`` (``_typed_blocks``)."""
    keys_l = [keys] if isinstance(keys, str) else list(keys)

    def per_group(block):
        n = block.num_rows
        change = np.zeros(n, dtype=bool)
        change[0] = True
        for k in keys_l:
            col = block.column(k)
            try:
                v = col.to_numpy(zero_copy_only=False)
                change[1:] |= v[1:] != v[:-1]
            except Exception:  # non-numpy-convertible key types
                import pyarrow.compute as pc

                neq = pc.not_equal(col.slice(1), col.slice(0, n - 1))
                change[1:] |= neq.to_numpy(zero_copy_only=False).astype(bool)
        bounds = np.append(np.flatnonzero(change), n)
        for s, e in zip(bounds[:-1], bounds[1:]):
            yield fn(block.slice(int(s), int(e - s)))

    return ds.sort(keys_l).map_batches(
        _typed_blocks(per_group, out_schema), batch_size=None, batch_format="pyarrow"
    )


def cluster_cpus() -> int:
    """The cluster's CPU count (at least 1), read when a plan is built:
    the one figure that sizes exchanges and tile bundles."""
    import ray

    return max(1, int(ray.cluster_resources().get("CPU", 1)))


# A ``map_batches`` batch size no dataset reaches: the map's bundler
# then waits for every input block and hands one task all the rows.
GATHER_ROWS = 1 << 62


def exchange(ds, keys, fn, out_schema):
    """One hash exchange: ``fn(part)`` runs once per partition and sees
    every row of each key in that partition, in no particular order.

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
    - ``n > 1``: each row is tagged with ``hash_parts_cols(keys, n)``
      and sorted on the tag with the known boundaries ``1 .. n-1``, so
      Ray skips its sampling pass and returns exactly ``n`` blocks.
      Every tagging task also appends one all-null PAD row per part, so
      no partition reaches the final map empty: Ray skips its UDF on an
      empty block and emits a zero-column one instead.  The pads are
      dropped before ``fn``, and a partition of pads alone yields
      ``out_schema.empty_table()`` (``_typed_blocks``).

    ``fn`` must return a table of ``out_schema``."""
    import pyarrow as pa
    import pyarrow.compute as pc

    keys_l = [keys] if isinstance(keys, str) else list(keys)
    n = cluster_cpus()
    apply = _typed_blocks(lambda part: [fn(part)], out_schema)
    if n == 1:
        return ds.map_batches(apply, batch_size=GATHER_ROWS, concurrency=1, zero_copy_batch=True,
                              batch_format="pyarrow")

    def tag(t: pa.Table) -> pa.Table:
        pads = pa.Table.from_arrays([pa.nulls(n, f.type) for f in t.schema], schema=t.schema)
        part = np.concatenate([hash_parts_cols(t, keys_l, n), np.arange(n)])
        pad = np.arange(t.num_rows + n) >= t.num_rows
        return (pa.concat_tables([t, pads]).append_column("_part", pa.array(part, pa.int64()))
                .append_column("_pad", pa.array(pad, pa.bool_())))

    def run(part: pa.Table):
        yield from apply(part.filter(pc.invert(part.column("_pad"))).drop_columns(["_part", "_pad"]))

    return (
        ds.map_batches(tag, batch_format="pyarrow")
        .sort("_part", boundaries=list(range(1, n)))
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
