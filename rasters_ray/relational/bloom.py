"""Bloom-filter semi-join: broadcastable prefilter + exact verify.

At 100 TB the classic way to semi-join a huge fact table against a
selective dimension is NOT to shuffle the fact table: build a Bloom
filter of the dimension keys (fixed ``m_bits/8`` bytes regardless of
row count), broadcast it, drop every fact row whose key is definitely
absent (no false negatives), and only shuffle the survivors through the
exact join.  With a selective dimension the prefilter removes most of
the all-to-all volume; the result is still EXACT because the second
stage re-checks the maybes (Bloom 1970, CACM 13(7) — public algorithm).

Pipeline shape::

    right keys --map_batches--> per-block partial bitmaps (m/8 bytes)
               --OR-reduce----> one bitmap, ray.put (driver holds m/8
                                bytes, CONSTANT in data size)
    left  ------map_batches--> bloom prefilter (definite-miss rows drop)
               --hash_join----> exact left-semi on the survivors

The engine's ``hash_u64`` provides the key hash, the same one
``util.exchange`` partitions by.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from rasters_ray.util import fetch, hash_u64

__all__ = ["BloomFilter", "build_bloom", "bloom_filter_ds", "bloom_semi_join"]

_H2_PRIME = np.uint64(0xFF51AFD7ED558CCD)  # splitmix64 finalizer constant


class BloomFilter:
    """Immutable bitmap + the double-hash probe (Kirsch-Mitzenmacher:
    k indices from two hashes, idx_i = h1 + i*h2 mod m)."""

    def __init__(self, words: np.ndarray, m_bits: int, k: int):
        if m_bits & (m_bits - 1):
            raise ValueError("m_bits must be a power of two")
        self.words = np.ascontiguousarray(words, dtype=np.uint64)
        self.m_bits = int(m_bits)
        self.k = int(k)

    @staticmethod
    def _h12(col) -> tuple:
        h1 = hash_u64(col)
        # independent second hash: multiply-shift over the full width
        h2 = ((h1 * _H2_PRIME) >> np.uint64(17)) | np.uint64(1)
        return h1, h2

    def _indices(self, h1: np.ndarray, h2: np.ndarray, i: int) -> np.ndarray:
        return (h1 + np.uint64(i) * h2) & np.uint64(self.m_bits - 1)

    def add(self, col) -> None:
        h1, h2 = self._h12(col)
        for i in range(self.k):
            idx = self._indices(h1, h2, i)
            np.bitwise_or.at(
                self.words,
                (idx >> np.uint64(6)).astype(np.int64),
                np.uint64(1) << (idx & np.uint64(63)),
            )

    def contains(self, col) -> np.ndarray:
        """Vectorized membership mask (True = maybe present)."""
        h1, h2 = self._h12(col)
        ok = np.ones(len(h1), dtype=bool)
        for i in range(self.k):
            idx = self._indices(h1, h2, i)
            bit = (
                self.words[(idx >> np.uint64(6)).astype(np.int64)]
                >> (idx & np.uint64(63))
            ) & np.uint64(1)
            ok &= bit.astype(bool)
        return ok

    def fill_ratio(self) -> float:
        return float(np.unpackbits(self.words.view(np.uint8)).sum()) / self.m_bits


def build_bloom(ds, key: str, m_bits: int = 1 << 20, k: int = 4) -> BloomFilter:
    """Distributed Bloom build: per-block partial bitmaps OR-reduced.

    The map side emits ONE ``m_bits/8``-byte row per block; the driver
    streams those rows and ORs them — bounded at m/8 bytes of state no
    matter how many rows the key side has (this is the broadcast value
    being constructed, so driver residency is the point, not a leak)."""
    words = m_bits // 64

    def partial(t: pa.Table) -> pa.Table:
        f = BloomFilter(np.zeros(words, np.uint64), m_bits, k)
        if t.num_rows:
            f.add(t.column(key))
        return pa.table({"bloom": pa.array([f.words.tobytes()], pa.binary())})

    acc = np.zeros(words, dtype=np.uint64)
    parts = ds.select_columns([key]).map_batches(partial, batch_format="pyarrow")
    for batch in parts.iter_batches(batch_format="pyarrow"):
        for blob in batch.column("bloom"):
            acc |= np.frombuffer(blob.as_py(), dtype=np.uint64)
    return BloomFilter(acc, m_bits, k)


def bloom_filter_ds(left_ds, on: str, bloom: BloomFilter):
    """Keep only rows whose key MAY be in the filter (zero false
    negatives).  The bitmap ships via ray.put once, not per batch."""
    import ray

    ref = ray.put(bloom)

    def filt(t: pa.Table) -> pa.Table:
        if not t.num_rows:
            return t
        return t.filter(pa.array(fetch(ref).contains(t.column(on))))

    return left_ds.map_batches(filt, batch_format="pyarrow")


def bloom_semi_join(
    left_ds,
    on: str,
    right_ds,
    right_on: str | None = None,
    m_bits: int = 1 << 20,
    k: int = 4,
):
    """EXACT left-semi join with a Bloom prefilter: definite misses drop
    before the shuffle; survivors go through the exact distributed
    ``hash_join(..., "left semi")``.  Output = left columns of matching
    rows (Acero semi layout)."""
    from rasters_ray.relational.joins import hash_join

    right_on = right_on or on
    bloom = build_bloom(right_ds, right_on, m_bits=m_bits, k=k)
    pref = bloom_filter_ds(left_ds, on, bloom)
    return hash_join(
        pref,
        right_ds.select_columns([right_on]),
        on,
        right_on=right_on,
        how="left semi",
    )
