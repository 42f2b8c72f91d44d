"""STR-packed R-tree over bounding boxes — the broadcast spatial index of
the north rule (points and polygon geometries are joined with a broadcast
R-tree + batched PIP test).

The reference has no R-tree; its nearest analog is a bbox prefilter +
exact test (raster_geometry.py:610-622, raster_geolocation.py:158-172).
This is a standard Sort-Tile-Recursive bulk load (Leutenegger et al. 1997,
public algorithm): sort by x-center into vertical slabs, sort each slab by
y-center, pack leaves of capacity M, repeat upward.

Queries are vectorized over whole batches (frontier expansion per level,
all numpy) and return candidate (query_idx, box_idx) pairs for an exact
test downstream. The whole structure is a handful of numpy arrays —
cheaply ``ray.put`` once and read by every PIP task with ``util.fetch``.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np


def _chunk_bboxes(boxes: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    out = np.empty((starts.size, 4))
    for i in range(starts.size):
        b = boxes[starts[i] : ends[i]]
        out[i, 0] = b[:, 0].min()
        out[i, 1] = b[:, 1].min()
        out[i, 2] = b[:, 2].max()
        out[i, 3] = b[:, 3].max()
    return out


class STRtree:
    def __init__(self, boxes: np.ndarray, node_capacity: int = 16):
        """boxes: (n, 4) array of (xmin, ymin, xmax, ymax) item boxes."""
        boxes = np.asarray(boxes, dtype=np.float64).reshape(-1, 4)
        self.boxes = boxes
        self.n = boxes.shape[0]
        self.M = node_capacity
        # self.levels: root-first list of (node_boxes, child_start, child_end).
        # Children of the LAST level index self.item_order; children of level
        # k index level k+1's nodes.
        self.levels: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        self.item_order = np.empty(0, dtype=np.int64)
        if self.n == 0:
            return

        M = self.M
        cx = (boxes[:, 0] + boxes[:, 2]) / 2
        cy = (boxes[:, 1] + boxes[:, 3]) / 2
        n_leaves = int(np.ceil(self.n / M))
        n_slabs = max(1, int(np.ceil(np.sqrt(n_leaves))))
        slab_size = int(np.ceil(self.n / n_slabs))
        by_x = np.argsort(cx, kind="stable")
        parts = []
        for s in range(0, self.n, slab_size):
            slab = by_x[s : s + slab_size]
            parts.append(slab[np.argsort(cy[slab], kind="stable")])
        self.item_order = np.concatenate(parts).astype(np.int64)

        # leaf level
        starts = np.arange(0, self.n, M, dtype=np.int64)
        ends = np.minimum(starts + M, self.n)
        leaf_boxes = _chunk_bboxes(boxes[self.item_order], starts, ends)
        levels = [(leaf_boxes, starts, ends)]

        # internal levels (children = previous level's nodes, already in
        # spatial order from STR)
        cur = leaf_boxes
        while cur.shape[0] > M:
            s = np.arange(0, cur.shape[0], M, dtype=np.int64)
            e = np.minimum(s + M, cur.shape[0])
            par = _chunk_bboxes(cur, s, e)
            levels.append((par, s, e))
            cur = par

        levels.reverse()  # root-first
        self.levels = levels

    def query_points(self, qx, qy) -> Tuple[np.ndarray, np.ndarray]:
        """Candidate (query_idx, item_idx) pairs where the item bbox contains
        the point (exact PIP is the caller's job)."""
        qx = np.asarray(qx, dtype=np.float64).ravel()
        qy = np.asarray(qy, dtype=np.float64).ravel()
        return self.query_boxes(np.stack([qx, qy, qx, qy], axis=1))

    def query_boxes(self, qboxes: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Candidate (query_idx, item_idx) pairs with intersecting bboxes."""
        qboxes = np.asarray(qboxes, dtype=np.float64).reshape(-1, 4)
        nq = qboxes.shape[0]
        if self.n == 0 or nq == 0:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)

        def _filter(fq: np.ndarray, fn: np.ndarray, node_boxes: np.ndarray):
            b = node_boxes[fn]
            q = qboxes[fq]
            ok = (
                (q[:, 0] <= b[:, 2])
                & (b[:, 0] <= q[:, 2])
                & (q[:, 1] <= b[:, 3])
                & (b[:, 1] <= q[:, 3])
            )
            return fq[ok], fn[ok]

        def _expand(fq: np.ndarray, fn: np.ndarray, starts: np.ndarray, ends: np.ndarray):
            s = starts[fn]
            lens = ends[fn] - s
            reps = np.repeat(np.arange(fn.size), lens)
            pos = np.arange(reps.size) - np.repeat(np.cumsum(lens) - lens, lens)
            return fq[reps], s[reps] + pos

        # frontier = all root-level nodes x all queries
        root_boxes = self.levels[0][0]
        nn = root_boxes.shape[0]
        fq = np.repeat(np.arange(nq, dtype=np.int64), nn)
        fn = np.tile(np.arange(nn, dtype=np.int64), nq)
        fq, fn = _filter(fq, fn, root_boxes)

        for k, (node_boxes, starts, ends) in enumerate(self.levels):
            if k > 0:
                fq, fn = _filter(fq, fn, node_boxes)
            fq, fn = _expand(fq, fn, starts, ends)
            # fn now indexes level k+1 nodes (or item_order for the last level)

        item_idx = self.item_order[fn]
        b = self.boxes[item_idx]
        q = qboxes[fq]
        ok = (
            (q[:, 0] <= b[:, 2])
            & (b[:, 0] <= q[:, 2])
            & (q[:, 1] <= b[:, 3])
            & (b[:, 1] <= q[:, 3])
        )
        return fq[ok], item_idx[ok]
