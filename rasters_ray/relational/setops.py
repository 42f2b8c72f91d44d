"""Distributed set operations — UNION / INTERSECT / EXCEPT (distinct).

The reference has no table set operators (SURVEY §2.7: its set ops are
pixel-mask booleans, ``/root/reference/rasters/raster.py:410-468``); a
complete engine needs the relational trio.  All three are ONE shuffle:

  * pre-reduce each side's blocks to their distinct keys — the combiner
    collapses duplicate keys before anything crosses the wire;
  * co-group both sides on the key (`rasters_ray.util.exchange`, the
    engine's one shuffle), so each partition sees which of its keys
    each side holds;
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

    def distinct(col: str):
        def keys(t: pa.Table) -> pa.Table:
            k = t.column(col)
            if k.null_count:
                # null keys are EXCLUDED (np.unique cannot order None;
                # SQL set ops would treat NULL as one regular member —
                # COALESCE to a sentinel upstream to keep them)
                k = k.drop_null()
            # explicit type so EMPTY blocks don't degrade to null arrays
            # (string keys -> object dtype -> pa.array([]) would be null)
            return pa.table({"k": pa.array(np.unique(k.to_numpy(zero_copy_only=False)), k.type)})

        return keys

    pred = _PREDICATES[op]

    def reduce_part(a, b) -> pa.Table:
        # a side with no rows at all holds no key
        ka, kb = (np.unique(t.column("k").to_numpy(zero_copy_only=False)) if t is not None
                  else np.empty(0) for t in (a, b))
        uniq = np.union1d(ka, kb)
        keep = pred(np.isin(uniq, ka), np.isin(uniq, kb))
        ty = (a if a is not None else b).schema.field("k").type
        return pa.table({out_col: pa.array(uniq[keep], ty)})

    sides = [ds_a.map_batches(distinct(key_col_a), batch_format="pyarrow"),
             ds_b.map_batches(distinct(key_col_b), batch_format="pyarrow")]
    return exchange(sides, "k", reduce_part)
