"""Small shared helpers."""

from __future__ import annotations

import threading
from collections import OrderedDict

import numpy as np

_FIB_MIX = np.uint64(0x9E3779B97F4A7C15)  # 2^64 / golden ratio


def hash_parts(values, n_parts: int) -> np.ndarray:
    """Hash partition (0..n_parts) of an id array — vectorized Fibonacci
    mix for integer ids, per-value crc32 fallback for strings/other.

    Shared by every union+groupby shuffle in the repo (dedup joins,
    relational joins) so co-partitioning keys across stages is guaranteed
    to agree."""
    import zlib

    import pyarrow as pa

    return (hash_u64(values) % np.uint64(n_parts)).astype(np.int64)


def hash_u64(values) -> np.ndarray:
    """Full-width deterministic u64 hash of a column — vectorized
    Fibonacci mix for integer ids, pandas C-siphash (FIXED default key,
    stable across worker processes — unlike builtin ``hash()`` under
    per-process PYTHONHASHSEED) for strings, per-value crc32 fallback."""
    import zlib

    import pyarrow as pa

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


def map_groups_typed(ds, keys, fn, out_schema):
    """``ds.groupby(keys).map_groups(fn)`` with SCHEMA-TYPED empty outputs.

    Ray's own ``map_groups`` yields NOTHING for an empty sort partition
    (grouped_data.py::_apply_udf_to_groups iterates zero groups), so the
    operator emits zero-column RefBundles — the executor's "different
    schema" warnings — which can poison downstream ``schema()`` calls.
    This helper runs the IDENTICAL plan Ray would (sort by keys, then a
    whole-block map that applies ``fn`` per group; equal keys are
    co-located because the sort range-partitions by key value), but
    yields ``out_schema.empty_table()`` for empty partitions so every
    block of the stage stays typed."""
    import pyarrow as pa

    keys_l = [keys] if isinstance(keys, str) else list(keys)

    def apply_block(block: pa.Table):
        n = block.num_rows
        if n == 0:
            yield out_schema.empty_table()
            return
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
        apply_block, batch_size=None, batch_format="pyarrow"
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
