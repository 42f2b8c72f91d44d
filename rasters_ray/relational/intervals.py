"""Merged-interval coverage (gaps-and-islands) per key, distributed.

The classic interval-union problem: given per-user intervals
[start, end), chain overlapping-or-touching intervals into islands
and report per-user island count, total covered time and longest
island.  The reference has no relational layer (SURVEY §2.7); this is
the engine's sweep-line union operator, the time-domain sibling of
`BBox.merge` (reference `rasters/bbox.py:81-108`).

Scale shape: one ``util.exchange`` on the user, each
partition resolves ALL its users in one vectorized pass — lexsort,
segment-reset running max (the island rule: a new island starts where
start > max(end) over earlier same-user rows), reduceat aggregation.
No Python loop over rows or users; only per-user aggregate rows leave
the stage.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from rasters_ray.util import exchange

__all__ = ["island_stats_arrays", "merged_interval_stats"]


def island_stats_arrays(u: np.ndarray, s: np.ndarray, e: np.ndarray):
    """Island aggregates for (user, start, end) int64 arrays.

    Returns (users, n_islands, covered, max_island) — one entry per
    distinct user, users ascending.  Touching intervals (start ==
    running max end) merge, matching the SQL rule `start > prev_max`
    starting a NEW island only on strict exceedance.
    """
    n = len(u)
    if n == 0:
        z = np.empty(0, np.int64)
        return z, z, z, z
    order = np.lexsort((e, s, u))
    uo, so, eo = u[order], s[order], e[order]
    new_user = np.concatenate(([True], uo[1:] != uo[:-1]))
    seg = np.cumsum(new_user) - 1
    # segment-reset running max of end: offset each user's ends into a
    # disjoint ascending band so one global cummax resets per segment
    base = eo.min()
    en = eo - base
    off = int(en.max()) + 1
    n_seg = int(seg[-1]) + 1
    if off and n_seg > (2**62) // off:  # pragma: no cover - astronomical
        raise OverflowError("interval span x partition users exceeds int64")
    adj = en + seg * off
    cm = np.maximum.accumulate(adj)
    prev_end = np.empty(n, np.int64)
    prev_end[0] = 0
    prev_end[1:] = cm[:-1] - seg[1:] * off + base  # same-seg prev running max
    new_island = new_user | (so > prev_end)
    isl = np.cumsum(new_island) - 1
    starts = np.flatnonzero(new_island)
    isl_start = so[starts]  # sorted by s within user -> first is min
    isl_end = np.maximum.reduceat(eo, starts)
    isl_len = isl_end - isl_start
    isl_user = uo[starts]
    ustarts = np.flatnonzero(np.concatenate(([True], isl_user[1:] != isl_user[:-1])))
    users = isl_user[ustarts]
    counts = np.diff(np.append(ustarts, len(isl_user)))
    covered = np.add.reduceat(isl_len, ustarts)
    longest = np.maximum.reduceat(isl_len, ustarts)
    return users, counts.astype(np.int64), covered, longest


def merged_interval_stats(ds, user_col: str, start_col: str, end_col: str):
    """Distributed island stats; start/end columns are int64 (e.g. us):
    one exchange on the user, then ``island_stats_arrays`` per part."""

    def fold(group: pa.Table) -> pa.Table:
        u = group.column(user_col).to_numpy(zero_copy_only=False).astype(np.int64)
        s = group.column(start_col).to_numpy(zero_copy_only=False).astype(np.int64)
        e = group.column(end_col).to_numpy(zero_copy_only=False).astype(np.int64)
        users, cnt, cov, mx = island_stats_arrays(u, s, e)
        return pa.table(
            {
                user_col: pa.array(users, pa.int64()),
                "n_islands": pa.array(cnt, pa.int64()),
                "covered_us": pa.array(cov, pa.int64()),
                "max_island_us": pa.array(mx, pa.int64()),
            }
        )

    return exchange(ds, user_col, fold)
