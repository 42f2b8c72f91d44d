"""Distributed set operations — UNION / INTERSECT / EXCEPT (distinct).

The reference has no table set operators (SURVEY §2.7: its set ops are
pixel-mask booleans, ``/root/reference/rasters/raster.py:410-468``); a
complete engine needs the relational trio.  All three are ONE shuffle:

  * tag each side's rows with a side bit, pre-reduce per (block, key) to
    (key, seen_a, seen_b) — the combiner collapses duplicate keys before
    anything crosses the wire;
  * exchange on the key (`rasters_ray.util.exchange`, the engine's one
    shuffle) and OR the seen bits per key;
  * emit keys where the predicate holds: a|b (union), a&b (intersect),
    a&~b (except).

Wire volume is distinct-keys-per-block, independent of row counts —
the same shape as ``relational/distinct.py``.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from rasters_ray.util import exchange

__all__ = ["set_op"]

_PREDICATES = {
    "union": lambda a, b: a | b,
    "intersect": lambda a, b: a & b,
    "except": lambda a, b: a & ~b,
}


def set_op(
    ds_a,
    ds_b,
    key_col_a: str,
    op: str,
    key_col_b: str | None = None,
    out_col: str | None = None,
):
    """Distinct-set operation over one key column of each side ->
    Dataset[(out_col,)] of distinct keys satisfying ``op``."""
    if op not in _PREDICATES:
        raise ValueError(f"op must be one of {sorted(_PREDICATES)}")
    key_col_b = key_col_b or key_col_a
    out_col = out_col or key_col_a

    def tagger(col: str, is_a: bool):
        def tag(t: pa.Table) -> pa.Table:
            keys = t.column(col)
            if keys.null_count:
                # null keys are EXCLUDED (np.unique cannot order None;
                # SQL set ops would treat NULL as one regular member —
                # COALESCE to a sentinel upstream to keep them)
                keys = keys.drop_null()
            v = keys.to_numpy(zero_copy_only=False)
            uniq = np.unique(v)
            # explicit type so EMPTY blocks don't degrade to null arrays
            # (string keys -> object dtype -> pa.array([]) would be null)
            arr = pa.array(uniq, type=keys.type)
            return pa.table(
                {
                    "k": arr,
                    "a": pa.array(np.full(len(uniq), is_a), pa.bool_()),
                    "b": pa.array(np.full(len(uniq), not is_a), pa.bool_()),
                }
            )

        return tag

    pred = _PREDICATES[op]

    def reduce_part(group: pa.Table) -> pa.Table:
        k = group.column("k").to_numpy(zero_copy_only=False)
        a = group.column("a").to_numpy(zero_copy_only=False)
        b = group.column("b").to_numpy(zero_copy_only=False)
        uniq, inv = np.unique(k, return_inverse=True)
        seen_a = np.zeros(len(uniq), bool)
        seen_b = np.zeros(len(uniq), bool)
        np.logical_or.at(seen_a, inv, a)
        np.logical_or.at(seen_b, inv, b)
        keep = pred(seen_a, seen_b)
        return pa.table({out_col: pa.array(uniq[keep], group.schema.field("k").type)})

    tagged = [ds_a.map_batches(tagger(key_col_a, True), batch_format="pyarrow"),
              ds_b.map_batches(tagger(key_col_b, False), batch_format="pyarrow")]
    return exchange(tagged, "k", reduce_part)
