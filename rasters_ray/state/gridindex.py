"""Uniform-bucket nearest-neighbor index — the engine's replacement for the
reference's cKDTree / pyresample neighbor index (kdtree.py:182-202,
raster_geolocation.py:130-143).

Build once (O(n) bucketing, CSR layout) and query vectorized over whole
point batches with expanding-ring search.  A broadcast small side builds
it on the driver and ships it in the same ``ray.put``; tasks read it
with ``util.fetch``.

Correctness bound: after searching all buckets within Chebyshev ring r of a
query's bucket, every unsearched point is at Euclidean distance >= r*cell,
so a query whose current best distance <= r*cell is final.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np


class GridNNIndex:
    def __init__(self, x: np.ndarray, y: np.ndarray, points_per_bucket: float = 2.0):
        x = np.ascontiguousarray(np.asarray(x, dtype=np.float64).ravel())
        y = np.ascontiguousarray(np.asarray(y, dtype=np.float64).ravel())
        if x.size == 0:
            raise ValueError("empty point set")
        self.px = x
        self.py = y
        self.xmin = float(x.min())
        self.xmax = float(x.max())
        self.ymin = float(y.min())
        self.ymax = float(y.max())

        n = x.size
        span_x = max(self.xmax - self.xmin, 1e-300)
        span_y = max(self.ymax - self.ymin, 1e-300)
        target_buckets = max(1, int(n / points_per_bucket))
        aspect = span_x / span_y
        self.ny = max(1, int(np.sqrt(target_buckets / max(aspect, 1e-12))))
        self.nx = max(1, target_buckets // self.ny)
        self.cell_x = span_x / self.nx
        self.cell_y = span_y / self.ny
        # ring bound uses the larger bucket dimension
        self.cell = max(self.cell_x, self.cell_y)

        bi = np.clip(((x - self.xmin) / self.cell_x).astype(np.int64), 0, self.nx - 1)
        bj = np.clip(((y - self.ymin) / self.cell_y).astype(np.int64), 0, self.ny - 1)
        bucket = bj * self.nx + bi
        self.order = np.argsort(bucket, kind="stable")
        sorted_bucket = bucket[self.order]
        nb = self.nx * self.ny
        self.starts = np.searchsorted(sorted_bucket, np.arange(nb + 1))
        self.max_ring = max(self.nx, self.ny)

    def _bucket_of(self, qx: np.ndarray, qy: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        # clip in float space first: degenerate point sets make cell_x/cell_y
        # tiny and the raw quotient can overflow an int64 cast
        bi = np.clip((qx - self.xmin) / self.cell_x, 0, self.nx - 1).astype(np.int64)
        bj = np.clip((qy - self.ymin) / self.cell_y, 0, self.ny - 1).astype(np.int64)
        return bi, bj

    def _gather_ring(
        self, bi: np.ndarray, bj: np.ndarray, r: int
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Candidate point indices for each query's Chebyshev ring r.
        Returns (query_idx_per_candidate, point_idx_per_candidate, counts)."""
        if r == 0:
            offsets = [(0, 0)]
        else:
            offsets = []
            for d in range(-r, r + 1):
                offsets.append((d, -r))
                offsets.append((d, r))
            for d in range(-r + 1, r):
                offsets.append((-r, d))
                offsets.append((r, d))

        q_idx_parts = []
        p_idx_parts = []
        nq = bi.size
        for di, dj in offsets:
            ci = bi + di
            cj = bj + dj
            ok = (ci >= 0) & (ci < self.nx) & (cj >= 0) & (cj < self.ny)
            if not ok.any():
                continue
            qsel = np.nonzero(ok)[0]
            b = cj[qsel] * self.nx + ci[qsel]
            s = self.starts[b]
            e = self.starts[b + 1]
            lens = e - s
            nz = lens > 0
            if not nz.any():
                continue
            qsel = qsel[nz]
            s = s[nz]
            lens = lens[nz]
            # flat gather: for each selected query, indices s..s+len
            reps = np.repeat(np.arange(qsel.size), lens)
            pos = np.arange(reps.size) - np.repeat(np.cumsum(lens) - lens, lens)
            p_idx_parts.append(self.order[s[reps] + pos])
            q_idx_parts.append(qsel[reps])
        if not q_idx_parts:
            return (
                np.empty(0, dtype=np.int64),
                np.empty(0, dtype=np.int64),
                np.zeros(nq, dtype=np.int64),
            )
        q_idx = np.concatenate(q_idx_parts)
        p_idx = np.concatenate(p_idx_parts)
        counts = np.bincount(q_idx, minlength=nq)
        return q_idx, p_idx, counts

    def query(self, qx: np.ndarray, qy: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Nearest point index + Euclidean distance for each query.
        NaN queries return index 0 with distance inf."""
        qx = np.asarray(qx, dtype=np.float64).ravel()
        qy = np.asarray(qy, dtype=np.float64).ravel()
        nq = qx.size
        best_idx = np.zeros(nq, dtype=np.int64)
        best_d2 = np.full(nq, np.inf)

        finite = np.isfinite(qx) & np.isfinite(qy)
        active = np.nonzero(finite)[0]
        if active.size == 0:
            return best_idx, np.sqrt(best_d2)

        bi, bj = self._bucket_of(qx[active], qy[active])

        r = 0
        while active.size > 0 and r <= self.max_ring:
            q_rel, p_idx, _ = self._gather_ring(bi, bj, r)
            if q_rel.size:
                dx = self.px[p_idx] - qx[active][q_rel]
                dy = self.py[p_idx] - qy[active][q_rel]
                d2 = dx * dx + dy * dy
                # per-query min over candidates
                cur = np.full(active.size, np.inf)
                np.minimum.at(cur, q_rel, d2)
                upd = cur < best_d2[active]
                if upd.any():
                    # recover argmin: mask to winning distance
                    win_q = np.nonzero(upd)[0]
                    # build map from q_rel to candidate argmin
                    # (second pass: among candidates of winning queries pick the index)
                    sel = np.isin(q_rel, win_q)
                    qr = q_rel[sel]
                    pi = p_idx[sel]
                    dd = d2[sel]
                    order = np.lexsort((dd, qr))
                    qr_s = qr[order]
                    first = np.concatenate([[True], qr_s[1:] != qr_s[:-1]])
                    best_idx[active[qr_s[first]]] = pi[order][first]
                    best_d2[active[qr_s[first]]] = dd[order][first]
            # a query is final when best distance <= r * cell
            done = best_d2[active] <= (r * self.cell) ** 2
            keep = ~done
            active = active[keep]
            bi = bi[keep]
            bj = bj[keep]
            r += 1

        return best_idx, np.sqrt(best_d2)
