"""Sharded mutable dedup index — the raw-actor escape hatch, gated.

Everything else in this engine is a Dataset pipeline; this module is the
one place that drops to raw ``@ray.remote`` actors, for the semantics the
Dataset API genuinely cannot express: a SHARED MUTABLE INDEX that absorbs
a stream and can be queried mid-ingest (e.g. "have we seen this content
key before?" while ingest is still running).  A groupby gives the same
FINAL answer (see ``text/analysis.dedup_exact``) but only after the full
shuffle completes; the index answers incrementally and keeps only
distinct keys in memory.

Design:
  * N ``IndexShard`` actors, each owning a disjoint hash slice of key
    space (`rasters_ray.util.hash_parts`, the full-width ``hash_u64``
    mod the shard count; shuffles go through ``util.exchange``, which
    hashes with ``hash_cols`` mod the CPU count instead).
  * Ingest is a Dataset pass: ``map_batches`` splits each batch by shard
    and ships (key, order) pairs via ``observe.remote`` — payload is keys
    only, never documents.  The per-batch ``ray.get`` on the acks is the
    backpressure (at most one in-flight round per task).
  * Each shard keeps ``key -> min(order)``; min is order-independent, so
    the final index is DETERMINISTIC (equal to the groupby answer)
    regardless of arrival interleaving — which is what makes this
    oracle-checkable.
  * **Spill**: with ``spill_threshold`` set, a shard whose in-memory dict
    reaches the threshold flushes it as an immutable sorted RUN to local
    disk (LSM-style) and starts an empty dict — resident memory is
    bounded by the threshold regardless of distinct-key count.  min() is
    associative, so a key re-observed after a spill simply lands in a
    newer run and the run merge at ``dump()`` resolves to the true
    minimum.  ``contains`` consults the dict, then the runs.

Partitioning assumption (documented per the north rule): keys hash-route,
so shard load follows key-frequency skew; shards hold at most
``spill_threshold`` keys resident, spilling the rest as sorted runs
(~O(distinct/N) on that shard's local disk).  ``build_first_seen_index``
tears its shard actors down in a ``finally`` (ray.kill) so repeated
builds in a long-lived session do not accumulate idle actors.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from rasters_ray.util import hash_parts

__all__ = ["build_first_seen_index", "IndexShard"]


def _shard_cls():
    import ray

    # num_cpus=0: the shards must ALWAYS be schedulable — ingest map
    # tasks block on shard acks while holding their own CPUs, so a
    # CPU-reserving shard could deadlock against a saturated task pool.
    # The shards are dict mutators (microseconds per call); they share
    # cores safely.
    @ray.remote(num_cpus=0)
    class IndexShard:
        """Owns one hash slice: key -> smallest order value seen."""

        def __init__(self, spill_threshold: int | None = None,
                     spill_dir: str | None = None):
            self.first: dict = {}
            self.spill_threshold = spill_threshold
            self.spill_dir = spill_dir
            self.runs: list = []  # immutable spilled run files
            self.blooms: list = []  # per-run bloom bit arrays (~2 B/key)
            self.run_keys: dict = {}  # lazy per-run sorted key arrays
            self.high_water = 0  # max resident dict size ever observed

        _BLOOM_BITS_PER_KEY = 16  # 2 hashes -> ~0.1% false-positive rate

        @staticmethod
        def _bloom_hashes(keys, nbits: int):
            import pandas as pd

            h = pd.util.hash_array(
                np.asarray(keys, dtype=object), categorize=False
            ).astype(np.uint64)
            nb = np.uint64(nbits)
            return h % nb, (h >> np.uint64(32) | (h << np.uint64(32))) % nb

        def _bloom_build(self, keys) -> tuple:
            nbits = max(64, len(keys) * self._BLOOM_BITS_PER_KEY)
            bits = np.zeros((nbits + 7) // 8, dtype=np.uint8)
            for idx in self._bloom_hashes(keys, nbits):
                np.bitwise_or.at(bits, idx // 8, (1 << (idx % 8)).astype(np.uint8))
            return bits, nbits

        def _bloom_maybe(self, bloom, keys) -> np.ndarray:
            bits, nbits = bloom
            out = np.ones(len(keys), dtype=bool)
            for idx in self._bloom_hashes(keys, nbits):
                out &= ((bits[idx // 8] >> (idx % 8)) & 1).astype(bool)
            return out

        def _dict_table(self) -> pa.Table:
            if not self.first:
                return pa.table(
                    {"key": pa.array([], pa.string()),
                     "first_id": pa.array([], pa.int64())}
                )
            ks = list(self.first.keys())
            vs = np.asarray([self.first[k] for k in ks], np.int64)
            return pa.table(
                {"key": pa.array(ks), "first_id": pa.array(vs, pa.int64())}
            )

        def _spill(self):
            import os

            import pyarrow.parquet as pq

            os.makedirs(self.spill_dir, exist_ok=True)
            path = os.path.join(self.spill_dir, f"run{len(self.runs)}.parquet")
            t = self._dict_table().sort_by("key")
            pq.write_table(t, path)
            self.runs.append(path)
            self.blooms.append(self._bloom_build(list(self.first.keys())))
            self.first = {}

        def observe(self, keys: list, orders: list) -> int:
            f = self.first
            thr = self.spill_threshold if self.spill_dir is not None else None
            for k, o in zip(keys, orders):
                prev = f.get(k)
                if prev is None or o < prev:
                    f[k] = o
                # spill MID-batch so the resident bound holds even when a
                # single observe() carries more keys than the threshold
                if thr is not None and len(f) >= thr:
                    self.high_water = max(self.high_water, len(f))
                    self._spill()
                    f = self.first
            self.high_water = max(self.high_water, len(f))
            return len(f)

        def contains(self, keys: list) -> list:
            """Exact membership. Spilled runs are consulted through a
            two-tier path: a per-run BLOOM filter (built at spill time,
            ~2 B/key resident) rules out almost every probe without I/O;
            only bloom-positive runs load their sorted key array — once
            per shard lifetime (cached) — and answer by searchsorted.
            The old path re-read every run file in full and rebuilt a
            Python set on EVERY call with a resident-dict miss."""
            f = self.first
            hits = np.array([k in f for k in keys], dtype=bool)
            if self.runs and not hits.all():
                import pyarrow.parquet as pq

                pending = np.flatnonzero(~hits)
                pkeys = [keys[i] for i in pending]
                for ri, path in enumerate(self.runs):
                    maybe = self._bloom_maybe(self.blooms[ri], pkeys)
                    if not maybe.any():
                        continue
                    if path not in self.run_keys:
                        rk = pq.read_table(path, columns=["key"]).column("key")
                        self.run_keys[path] = np.asarray(
                            rk.to_pylist(), dtype=object
                        )  # already key-sorted by _spill
                    arr = self.run_keys[path]
                    cand = np.flatnonzero(maybe)
                    cvals = np.asarray([pkeys[i] for i in cand], dtype=object)
                    pos = np.searchsorted(arr, cvals)
                    found = (pos < len(arr)) & (arr[np.minimum(pos, len(arr) - 1)]
                                                == cvals)
                    hits[pending[cand[found]]] = True
                    pending = np.flatnonzero(~hits)
                    pkeys = [keys[i] for i in pending]
                    if not len(pending):
                        break
            return hits.tolist()

        def stats(self) -> dict:
            return {
                "resident": len(self.first),
                "high_water": self.high_water,
                "n_runs": len(self.runs),
            }

        def dump(self, key_type_str: str = "string"):
            kt = pa.string() if key_type_str == "string" else getattr(
                pa, key_type_str
            )()
            tabs = [self._dict_table()]
            if self.runs:
                import pyarrow.parquet as pq

                tabs += [pq.read_table(p) for p in self.runs]
            tabs = [
                t.set_column(0, "key", t.column("key").cast(kt))
                for t in tabs
                if t.num_rows
            ]
            if not tabs:
                return pa.table(
                    {"key": pa.array([], kt),
                     "first_id": pa.array([], pa.int64())}
                )
            merged = pa.concat_tables(tabs)
            # min(first_id) per key across dict + runs (associative, so
            # the run layout cannot change the answer)
            keys = np.asarray(merged.column("key").to_pylist(), dtype=object)
            ids = merged.column("first_id").to_numpy(zero_copy_only=False)
            order = np.lexsort((ids, keys))
            ks, vs = keys[order], ids[order]
            firsts = np.flatnonzero(np.r_[True, ks[1:] != ks[:-1]])
            return pa.table(
                {
                    "key": pa.array(ks[firsts].tolist(), kt),
                    "first_id": pa.array(vs[firsts].astype(np.int64), pa.int64()),
                }
            )

    return IndexShard


class IndexShard:  # re-exported for docs/tests; real class is ray.remote
    pass


def build_first_seen_index(
    ds,
    key_col: str,
    order_col: str,
    n_shards: int = 8,
    spill_threshold: int | None = None,
    return_stats: bool = False,
):
    """Stream ``ds`` through a sharded mutable index -> Table[(key,
    first_id)] with ``first_id = min(order_col)`` per distinct key.

    Deterministic (min is arrival-order independent); equals the
    groupby-first answer bit-for-bit, which the contract oracle checks.

    ``spill_threshold``: bound each shard's RESIDENT key count — above
    it the shard flushes its dict to a sorted on-disk run (see module
    docstring).  Shard actors are torn down (``ray.kill``) and spill
    files removed before returning, success or failure.
    """
    import shutil
    import tempfile

    import ray

    cls = _shard_cls()
    spill_base = None
    if spill_threshold is not None:
        spill_base = tempfile.mkdtemp(prefix="rr_dedupidx_")
    shards = [
        cls.remote(
            spill_threshold,
            None if spill_base is None else f"{spill_base}/shard{i}",
        )
        for i in range(n_shards)
    ]
    try:
        kt = ds.schema().base_schema.field(key_col).type
        key_type_str = "string" if pa.types.is_string(kt) else str(kt)

        def ingest(t: pa.Table) -> pa.Table:
            keys = t.column(key_col)
            orders = t.column(order_col).to_numpy(zero_copy_only=False).astype(np.int64)
            part = hash_parts(keys, n_shards)
            klist = np.asarray(keys.to_pylist(), dtype=object)
            acks = []
            for s in range(n_shards):
                m = part == s
                if m.any():
                    acks.append(
                        shards[s].observe.remote(
                            klist[m].tolist(), orders[m].tolist()
                        )
                    )
            ray.get(acks)  # backpressure: one in-flight round per task
            return pa.table({"n": pa.array([t.num_rows], pa.int64())})

        total = ds.map_batches(ingest, batch_format="pyarrow").to_pandas()["n"].sum()
        parts = ray.get([s.dump.remote(key_type_str) for s in shards])
        stats = ray.get([s.stats.remote() for s in shards]) if return_stats else None
        out = pa.concat_tables(parts)
        assert total >= out.num_rows
        return (out, stats) if return_stats else out
    finally:
        for s in shards:
            ray.kill(s)  # do not accumulate idle shard actors per build
        if spill_base is not None:
            shutil.rmtree(spill_base, ignore_errors=True)
