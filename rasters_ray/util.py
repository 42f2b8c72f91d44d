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
    """The engine's one hash shuffle: ``fn`` runs once per partition and
    sees every row of each key in that partition, in no particular
    order.  ``ds`` is one dataset, whose rows ``fn(part)`` gets with the
    input's columns, or a list of datasets that are CO-GROUPED:
    ``fn(*parts)`` gets one table per input, each in its own input's
    schema, so the inputs may differ in schema and in the names of their
    keys.  ``keys`` is one key spec (a column name or a list of them)
    for every input, or a tuple with one spec per input; equal keys land
    in one partition whatever their names (``hash_cols``).

    The part count ``n`` is the cluster's CPU count, read when the
    dataset is built.  Two plans:

    - ``n == 1``: one gather task — a ``map_batches`` whose batch holds
      every row (``GATHER_ROWS``) runs ``fn`` once over the whole input,
      with no repartition, hash tag, sort or boundary sampling.  Its
      ``concurrency=1`` task pool keeps Ray from fusing it into the
      upstream map, so upstream stages still stream;
    - ``n > 1``: rows go to the part of the hash of their key columns
      mod ``n`` and are sorted on the int16 part column ``_part`` with
      the known boundaries, so Ray skips its sampling pass and returns
      exactly ``n`` blocks.

    A single input crosses as rows (on one CPU, as a zero-copy view of
    its blocks).  Ray calls no map UDF on an empty block, so every
    tagging task also appends one all-null PAD row per part (``_part``
    is ``2 * part`` for a row, ``2 * part + 1`` for a pad, dropped
    before ``fn``).  Each block of a co-grouped input crosses as ``n``
    packed rows, one per part: ``_part``, the input's index ``_src``
    (int8) and an Arrow IPC stream of the block's rows of that part
    (``_payload``, the ``n`` streams written into one buffer), unpacked
    with no copy.  The packing map fuses into each input's last map, and
    emits every part, so it needs no pad.

    So every partition calls ``fn``, one with no row of its own on
    ZERO-ROW tables that keep the inputs' schemas, and ``fn`` returns
    its own typed empty result: no caller names its output schema up
    front.  ``fn`` gets None for an input none of whose rows reached the
    exchange, unless Ray knew before running that it had none
    (``known_rows``: an in-memory table or a read), which gives a
    zero-row table of its schema.  Inputs of empty blocks alone call no
    ``fn`` under either plan, and yield no rows."""
    import pyarrow as pa
    import pyarrow.compute as pc

    n = cluster_cpus()
    if isinstance(ds, (list, tuple)):
        staged, apply, bounds = _cogroup(list(ds), keys, fn, n)
    elif n == 1:
        staged, apply = ds, fn
    else:
        keys_l = [keys] if isinstance(keys, str) else list(keys)

        def tag(t: pa.Table) -> pa.Table:
            pads = pa.Table.from_arrays([pa.nulls(n, f.type) for f in t.schema], schema=t.schema)
            part = (hash_cols(t, keys_l) % np.uint64(n)).astype(np.int16)
            tags = np.concatenate([2 * part, 2 * np.arange(n, dtype=np.int16) + 1])
            return pa.concat_tables([t, pads]).append_column("_part", pa.array(tags, pa.int16()))

        def apply(part: pa.Table) -> pa.Table:
            real = pc.equal(pc.bit_wise_and(part.column("_part"), 1), 0)
            return fn(part.filter(real).drop_columns(["_part"]))

        staged, bounds = ds.map_batches(tag, batch_format="pyarrow"), list(range(2, 2 * n, 2))

    if n == 1:
        def apply_block(block: pa.Table) -> pa.Table:  # one operator name for every caller
            return apply(block)

        return staged.map_batches(apply_block, batch_size=GATHER_ROWS, concurrency=1,
                                  zero_copy_batch=True, batch_format="pyarrow")

    def run(part: pa.Table) -> pa.Table:
        return apply(part)

    return staged.sort("_part", boundaries=bounds).map_batches(run, batch_size=None,
                                                               batch_format="pyarrow")


def _cogroup(inputs: list, keys, fn, n: int):
    """``exchange``'s list form: (the union of the packed inputs, the
    function that unpacks a partition and calls ``fn``, the ``_part``
    boundaries)."""
    import pyarrow as pa

    specs = keys if isinstance(keys, tuple) else (keys,) * len(inputs)
    specs = [[k] if isinstance(k, str) else list(k) for k in specs]
    # what ``fn`` gets for an input no packed row of which reaches it
    absent = [d.schema().base_schema.empty_table() if known_rows(d) == 0 else None
              for d in inputs]

    def packer(src: int, key_cols: list):
        def pack(t: pa.Table) -> pa.Table:
            starts = np.zeros(n + 1, np.int64)
            if n > 1:
                part = (hash_cols(t, key_cols) % np.uint64(n)).astype(np.int16)
                t = t.take(np.argsort(part, kind="stable"))
                starts[1:] = np.cumsum(np.bincount(part, minlength=n))
            else:
                starts[1] = t.num_rows
            sink, offsets = pa.BufferOutputStream(), [0]
            for p in range(n):
                with pa.ipc.new_stream(sink, t.schema) as writer:
                    writer.write_table(t.slice(starts[p], starts[p + 1] - starts[p]))
                offsets.append(sink.tell())
            payload = pa.Array.from_buffers(
                pa.large_binary(), n,
                [None, pa.py_buffer(np.array(offsets, np.int64)), sink.getvalue()])
            return pa.table({"_part": pa.array(np.arange(n, dtype=np.int16)),
                             "_src": pa.array(np.full(n, src, np.int8)),
                             "_payload": payload})

        return pack

    def unpack(part: pa.Table) -> pa.Table:
        tables = [[] for _ in inputs]
        src = iter(part.column("_src").to_numpy())
        for chunk in part.column("_payload").chunks:
            if not len(chunk):
                continue
            offsets = np.frombuffer(chunk.buffers()[1], np.int64)[chunk.offset:]
            data = chunk.buffers()[2]
            for lo, hi in zip(offsets[:len(chunk)], offsets[1:len(chunk) + 1]):
                tables[next(src)].append(pa.ipc.open_stream(data.slice(lo, hi - lo)).read_all())
        return fn(*[pa.concat_tables(t, promote_options="default") if t else a
                    for t, a in zip(tables, absent)])

    packed = [d.map_batches(packer(i, k), batch_format="pyarrow")
              for i, (d, k) in enumerate(zip(inputs, specs))]
    staged = packed[0].union(*packed[1:]) if len(packed) > 1 else packed[0]
    return staged, unpack, list(range(1, n))


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
