"""Distributed connected-component labeling of raster masks.

Image segmentation's bottom layer: threshold a raster, label its
4-connected components, and report per-component stats — at planet
scale no single task can hold the raster, so labeling must be
tile-local with a global merge.  The classic two-phase distributed CC
(tile-local labels + boundary equivalences resolved globally) composed
from pieces the engine already has:

1. ``halo_exchange_tiled`` ships each tile's 1-px edge strips to its 8
   lattice neighbors (ONE groupby shuffle, O(perimeter) payload);
2. every tile labels its core independently (vectorized run-min
   propagation — labels are GLOBAL pixel ids ``(img_no << 32) |
   (row << 16) | col``, so the local minimum is already a globally
   meaningful candidate root);
3. tiles emit (a) per-local-component partial stats, (b) equivalence
   edges: boundary pixel <-> its local component, and boundary pixel
   <-> adjacent masked halo pixel (the neighbor tile's side of the same
   seam — no neighbor LABELS are needed, the shared boundary pixels tie
   the two sides' components together);
4. :func:`rasters_ray.relational.connected_components` (CCF rounds)
   resolves the equivalence graph — whose size is O(boundary pixels),
   NOT O(raster) — and a hash join + one exchange on the root fold the
   tile-partial stats onto the global roots.

The contract oracle recomputes components per pixel with a recursive
min-label CTE, so a wrong seam (missed equivalence, off-by-one strip)
is a value mismatch, not just a row-count drift.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from rasters_ray.stages.focal import halo_exchange_tiled
from rasters_ray.util import exchange

__all__ = ["label_runs_min", "local_label", "label_components", "sieve_filter",
           "landscape_metrics"]

_MAXI = np.iinfo(np.int64).max


def label_runs_min(lab: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """One horizontal smoothing pass: within every row-run of masked
    pixels, every pixel takes the run minimum.  Vectorized (guard
    column + reduceat); composing row and column passes to a fixpoint
    labels 4-connected components."""
    rows, cols = mask.shape
    m = np.concatenate([mask, np.zeros((rows, 1), bool)], axis=1).ravel()
    l = np.concatenate([lab, np.full((rows, 1), _MAXI)], axis=1).ravel()
    prev = np.concatenate([[False], m[:-1]])
    start_flags = m & ~prev
    starts = np.flatnonzero(start_flags)
    if not len(starts):
        return lab
    sel = np.flatnonzero(m)
    run_of = np.cumsum(start_flags)[sel] - 1
    # masked elements are in flatten order, runs contiguous within sel
    run_starts_in_sel = np.searchsorted(sel, starts)
    seg_min = np.minimum.reduceat(l[sel], run_starts_in_sel)
    l[sel] = seg_min[run_of]
    return l.reshape(rows, cols + 1)[:, :cols]


def local_label(mask: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Label 4-connected components of ``mask``: each masked pixel gets
    the MINIMUM of ``ids`` over its component (unmasked pixels -1).
    Alternating row/column run-min passes to a fixpoint — convergence in
    run-graph-diameter iterations, every pass fully vectorized."""
    if mask.shape != ids.shape:
        raise ValueError("mask/ids shape mismatch")
    lab = np.where(mask, ids, _MAXI)
    while True:
        prev = lab
        lab = label_runs_min(lab, mask)
        lab = label_runs_min(lab.T, mask.T).T
        if np.array_equal(lab, prev):
            break
    return np.where(mask, lab, np.int64(-1))


def _default_image_no(image_id: str) -> int:
    digits = "".join(ch for ch in image_id if ch.isdigit())
    if digits:
        return int(digits)
    import zlib

    return zlib.crc32(image_id.encode())


_OUT_EMPTY = {
    "image_id": pa.string(),
    "comp_r": pa.int64(),
    "comp_c": pa.int64(),
    "n_px": pa.int64(),
    "rmin": pa.int64(),
    "rmax": pa.int64(),
    "cmin": pa.int64(),
    "cmax": pa.int64(),
}


def label_components(
    images_ds,
    threshold: float,
    tile: int = 32,
    image_no=_default_image_no,
):
    """Label >= ``threshold`` masks across a tile lattice ->
    Dataset[(image_id, comp_r, comp_c, n_px, rmin, rmax, cmin, cmax)]
    with one row per GLOBAL component, anchored at its minimum pixel
    (comp_r, comp_c).  Rows/cols must fit 16 bits; image numbers 31."""
    from rasters_ray.relational import connected_components, hash_join

    def tile_fn(image_id, canvas, tr0, tc0, trows, tcols) -> pa.Table:
        d = np.int64(image_no(image_id))
        mask = np.where(np.isfinite(canvas), canvas, -np.inf) >= threshold
        core = mask[1 : 1 + trows, 1 : 1 + tcols]
        rr = (np.arange(trows) + tr0)[:, None]
        cc = (np.arange(tcols) + tc0)[None, :]
        ids = (d << np.int64(32)) | (rr.astype(np.int64) << np.int64(16)) | cc
        lab = local_label(core, ids)

        eu, ev = [], []
        # seam edges: my boundary pixel <-> adjacent masked halo pixel
        sides = (
            (core[0, :], mask[0, 1 : 1 + tcols], ids[0, :] - (1 << 16)),
            (core[-1, :], mask[1 + trows, 1 : 1 + tcols], ids[-1, :] + (1 << 16)),
            (core[:, 0], mask[1 : 1 + trows, 0], ids[:, 0] - 1),
            (core[:, -1], mask[1 : 1 + trows, 1 + tcols], ids[:, -1] + 1),
        )
        bidx = [
            (np.zeros(tcols, np.int64), np.arange(tcols)),
            (np.full(tcols, trows - 1), np.arange(tcols)),
            (np.arange(trows), np.zeros(trows, np.int64)),
            (np.arange(trows), np.full(trows, tcols - 1)),
        ]
        for (cm, hm, hid), (bi, bj) in zip(sides, bidx):
            both = cm & hm
            if both.any():
                my = ids[bi[both], bj[both]]
                eu.append(my)
                ev.append(hid[both])
            # boundary pixel <-> its local component root
            on = cm.copy()
            if on.any():
                my = ids[bi[on], bj[on]]
                root = lab[bi[on], bj[on]]
                ne = my != root
                eu.append(my[ne])
                ev.append(root[ne])

        # per-local-component partial stats
        sel = lab >= 0
        labs = lab[sel]
        ur, inv = np.unique(labs, return_inverse=True)
        n = np.bincount(inv).astype(np.int64)
        ri = np.broadcast_to(rr, core.shape)[sel]
        ci = np.broadcast_to(cc, core.shape)[sel]
        rmin = np.full(len(ur), _MAXI)
        rmax = np.full(len(ur), -1, dtype=np.int64)
        cmin = np.full(len(ur), _MAXI)
        cmax = np.full(len(ur), -1, dtype=np.int64)
        np.minimum.at(rmin, inv, ri)
        np.maximum.at(rmax, inv, ri)
        np.minimum.at(cmin, inv, ci)
        np.maximum.at(cmax, inv, ci)

        u = np.concatenate(eu) if eu else np.array([], np.int64)
        v = np.concatenate(ev) if ev else np.array([], np.int64)
        k_e, k_s = len(u), len(ur)
        return pa.table(
            {
                "kind": pa.array(
                    np.concatenate(
                        [np.zeros(k_e, np.int8), np.ones(k_s, np.int8)]
                    ),
                    pa.int8(),
                ),
                "u": pa.array(np.concatenate([u, ur]), pa.int64()),
                "v": pa.array(
                    np.concatenate([v, np.zeros(k_s, np.int64)]), pa.int64()
                ),
                "image_id": pa.array(
                    [""] * k_e + [image_id] * k_s, pa.string()
                ),
                "n_px": pa.array(
                    np.concatenate([np.zeros(k_e, np.int64), n]), pa.int64()
                ),
                "rmin": pa.array(
                    np.concatenate([np.zeros(k_e, np.int64), rmin]), pa.int64()
                ),
                "rmax": pa.array(
                    np.concatenate([np.zeros(k_e, np.int64), rmax]), pa.int64()
                ),
                "cmin": pa.array(
                    np.concatenate([np.zeros(k_e, np.int64), cmin]), pa.int64()
                ),
                "cmax": pa.array(
                    np.concatenate([np.zeros(k_e, np.int64), cmax]), pa.int64()
                ),
            }
        )

    tiled = halo_exchange_tiled(images_ds, radius=1, tile=tile, tile_fn=tile_fn)
    tiled = tiled.materialize()  # edges AND stats both read from it

    import pyarrow.compute as pc

    edges = tiled.map_batches(
        lambda t: t.filter(pc.equal(t.column("kind"), 0)).select(["u", "v"]),
        batch_format="pyarrow",
    )
    stats = tiled.map_batches(
        lambda t: t.filter(pc.equal(t.column("kind"), 1)).select(
            ["u", "image_id", "n_px", "rmin", "rmax", "cmin", "cmax"]
        ),
        batch_format="pyarrow",
    )
    cc_map = connected_components(edges)
    # components fully interior to one tile never hit the seam graph:
    # left-outer join, missing root := the local label itself
    joined = hash_join(stats, cc_map, on="u", right_on="node", how="left outer")

    def fill_root(t: pa.Table) -> pa.Table:
        root = pc.coalesce(t.column("root"), t.column("u"))
        return t.drop_columns(["root"]).append_column("root", root)

    def combine(g: pa.Table) -> pa.Table:
        root = g.column("root").to_numpy(zero_copy_only=False)
        ur, inv = np.unique(root, return_inverse=True)
        k = len(ur)
        n = np.zeros(k, np.int64)
        np.add.at(n, inv, g.column("n_px").to_numpy(zero_copy_only=False))
        agg = {}
        for col, fn, init in (
            ("rmin", np.minimum, _MAXI),
            ("cmin", np.minimum, _MAXI),
            ("rmax", np.maximum, -1),
            ("cmax", np.maximum, -1),
        ):
            a = np.full(k, init, dtype=np.int64)
            fn.at(a, inv, g.column(col).to_numpy(zero_copy_only=False))
            agg[col] = a
        first = np.zeros(k, dtype=np.int64)
        first[inv[::-1]] = np.arange(len(inv))[::-1]
        img = g.column("image_id").take(pa.array(first))
        return pa.table(
            {
                "image_id": img,
                "comp_r": pa.array((ur >> 16) & 0xFFFF, pa.int64()),
                "comp_c": pa.array(ur & 0xFFFF, pa.int64()),
                "n_px": pa.array(n, pa.int64()),
                "rmin": pa.array(agg["rmin"], pa.int64()),
                "rmax": pa.array(agg["rmax"], pa.int64()),
                "cmin": pa.array(agg["cmin"], pa.int64()),
                "cmax": pa.array(agg["cmax"], pa.int64()),
            }
        )

    return exchange(joined.map_batches(fill_root, batch_format="pyarrow"), "root", combine)


def sieve_filter(classes: np.ndarray, threshold: int) -> tuple:
    """gdal_sieve one-pass semantics: every 4-connected region of
    equal-valued cells SMALLER than ``threshold`` pixels takes the
    value of its largest neighbouring region (original sizes and
    values; size ties -> the neighbour whose minimum (r, c) anchor is
    smallest; regions with no neighbour stay).  Returns ``(out,
    n_changed)``.

    One deterministic pass — unlike GDAL's iterate-to-fixpoint this
    never cascades, so the result is independent of visit order (the
    documented engine semantics; the fixpoint form is the kernel
    applied repeatedly).  Labeling reuses :func:`local_label` per
    distinct value (vectorized run-min passes)."""
    cls = np.asarray(classes)
    if cls.ndim != 2:
        raise ValueError("sieve_filter expects a 2D class raster")
    h, w = cls.shape
    ids = ((np.arange(h, dtype=np.int64)[:, None] << np.int64(16))
           | np.arange(w, dtype=np.int64)[None, :])
    lab = np.full((h, w), -1, dtype=np.int64)
    for v in np.unique(cls):
        m = cls == v
        lv = local_label(m, ids)
        lab[m] = lv[m]
    uniq, inv, sizes = np.unique(lab, return_inverse=True,
                                 return_counts=True)
    size_of = dict(zip(uniq.tolist(), sizes.tolist()))
    # adjacency edges between differing labels (both orientations)
    pairs = set()
    for a, b in ((lab[:, :-1], lab[:, 1:]), (lab[:-1, :], lab[1:, :])):
        d = a != b
        pairs.update(zip(a[d].tolist(), b[d].tolist()))
        pairs.update(zip(b[d].tolist(), a[d].tolist()))
    nbrs: dict = {}
    for u, v2 in pairs:
        nbrs.setdefault(u, []).append(v2)
    first_val = {}
    flat_cls = cls.ravel()
    flat_lab = lab.ravel()
    order = np.argsort(flat_lab, kind="stable")
    seen_at = np.searchsorted(flat_lab[order], uniq)
    for u, pos in zip(uniq.tolist(), seen_at.tolist()):
        first_val[u] = flat_cls[order[pos]]
    out = cls.copy()
    n_changed = 0
    for u in uniq.tolist():
        if size_of[u] >= threshold or u not in nbrs:
            continue
        best = min(nbrs[u], key=lambda x: (-size_of[x], x))
        out[lab == u] = first_val[best]
        n_changed += size_of[u]
    return out, n_changed


def landscape_metrics(classes: np.ndarray) -> "pa.Table":
    """FRAGSTATS-style class metrics (McGarigal & Marks 1995) for one
    categorical raster: per class value,

    * ``n_px``   — class area (CA) in cells;
    * ``edge_len`` — total edge (TE): rook adjacencies between a cell
      of this class and a DIFFERENT class (grid border excluded, the
      FRAGSTATS "no boundary" convention); each class-x/class-y edge
      counts once for x and once for y;
    * ``n_core`` — core-area cells (all four rook neighbors exist and
      share the class — CORE with edge depth 1).

    Pure shifted comparisons, int64-exact; per-image map, no shuffle
    (the tiled form adds a 1-cell halo exchange)."""
    import pyarrow as pa

    cls = np.asarray(classes)
    if cls.ndim != 2:
        raise ValueError("landscape_metrics expects a 2D class raster")
    if not np.issubdtype(cls.dtype, np.integer):
        raise ValueError("landscape_metrics requires integer classes")
    cls = cls.astype(np.int64)
    kmax = int(cls.max()) + 1 if cls.size else 0
    n_px = np.bincount(cls.ravel(), minlength=kmax)
    edge = np.zeros(kmax, dtype=np.int64)
    # horizontal and vertical adjacent pairs with differing classes
    for a, b in ((cls[:, :-1], cls[:, 1:]), (cls[:-1, :], cls[1:, :])):
        diff = a != b
        edge += np.bincount(a[diff], minlength=kmax)
        edge += np.bincount(b[diff], minlength=kmax)
    core = np.zeros(kmax, dtype=np.int64)
    if cls.shape[0] >= 3 and cls.shape[1] >= 3:
        mid = cls[1:-1, 1:-1]
        same = ((mid == cls[:-2, 1:-1]) & (mid == cls[2:, 1:-1])
                & (mid == cls[1:-1, :-2]) & (mid == cls[1:-1, 2:]))
        core = np.bincount(mid[same], minlength=kmax)
    present = np.flatnonzero(n_px)
    return pa.table({
        "class": pa.array(present.astype(np.int64), pa.int64()),
        "n_px": pa.array(n_px[present], pa.int64()),
        "edge_len": pa.array(edge[present], pa.int64()),
        "n_core": pa.array(core[present], pa.int64()),
    })
