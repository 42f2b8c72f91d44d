"""Zonal statistics — per-zone aggregates of pixel values.

The rasterize ∘ aggregate composition (reference: ``Raster.mask`` +
numpy stats per geometry, raster.py mask/statistics paths) as a
streaming Ray pipeline: the zone table is TINY (``ray.put`` once, read
by each task through ``util.fetch``), each image batch accumulates
integer (sum, count) partials per zone with one boolean-mask slice per
(image, zone), and a
low-cardinality ``groupby(zone_id).aggregate(Sum)`` finishes. Zone
cardinality is the number of polygons/boxes a user asks about — small
by construction — so the per-key groupby is appropriate here (the
lattice composites handle per-PIXEL cardinality).

Containment is CENTER containment (``rasterize_mask(all_touched=False)``
semantics): a pixel belongs to a zone iff its center coordinate lies in
the zone's bbox, inclusive on both edges. Sums are int64 over rounded
values so results are exact and order-independent (the DuckDB oracle
recomputes them bit-for-bit).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from .. import codec
from ..grids import GridSpec
from ..util import exchange, fetch

ZONES_SCHEMA = pa.schema(
    [
        ("zone_id", pa.int64()),
        ("xmin", pa.float64()),
        ("ymin", pa.float64()),
        ("xmax", pa.float64()),
        ("ymax", pa.float64()),
    ]
)


def _zone_arrays(zones: pa.Table):
    """Broadcast form of a zone table, built once on the driver:
    (zone_id, xmin, ymin, xmax, ymax) numpy arrays."""
    zid = zones.column("zone_id").to_numpy(zero_copy_only=False).astype(np.int64)
    return (zid,) + tuple(
        zones.column(c).to_numpy(zero_copy_only=False) for c in ("xmin", "ymin", "xmax", "ymax")
    )


def _zone_slices(batch: pa.Table, zones, codes: bool = False):
    """Yields (zone_id, finite, vals) for every (image, zone) pair of an
    image batch whose zone box holds at least one pixel center: the
    boolean finite mask and the rounded int64 values (0 where not finite)
    of the pixels whose centers lie in the zone.  ``codes=True`` requires
    non-negative values (categorical rasters)."""
    zid, xmin, ymin, xmax, ymax = zones
    grids = batch.column("grid").to_pylist()
    fmts = batch.column("fmt").to_pylist()
    blobs = codec.BlobReader(batch.column("bytes"))
    for i in range(batch.num_rows):
        grid = GridSpec.from_dict(grids[i])
        arr = codec.decode(blobs[i], fmts[i])
        if arr.ndim != 2:
            raise ValueError("zonal stats are per-band: split band stacks first")
        finite = np.isfinite(arr)
        vals = np.where(finite, np.rint(arr), 0).astype(np.int64)
        if codes and (vals < 0).any():
            raise ValueError("categorical zonal stats expect non-negative codes")
        cx = grid.x_origin + (np.arange(grid.cols) + 0.5) * grid.cell_width
        cy = grid.y_origin + (np.arange(grid.rows) + 0.5) * grid.cell_height
        gx0, gx1 = cx.min(), cx.max()
        gy0, gy1 = cy.min(), cy.max()
        hit = np.flatnonzero((xmin <= gx1) & (xmax >= gx0) & (ymin <= gy1) & (ymax >= gy0))
        for z in hit:
            mx = (cx >= xmin[z]) & (cx <= xmax[z])
            my = (cy >= ymin[z]) & (cy <= ymax[z])
            if mx.any() and my.any():
                sub = np.ix_(my, mx)
                yield int(zid[z]), finite[sub], vals[sub]


def zonal_partials(batch: pa.Table, zones) -> pa.Table:
    """Per-batch (zone_id, psum, pcnt) integer partials of finite pixels."""
    acc: dict = {}
    for zid, finite, vals in _zone_slices(batch, zones):
        n = int(finite.sum())
        if n:
            s, c = acc.get(zid, (0, 0))
            acc[zid] = (s + int(vals.sum()), c + n)
    zids = sorted(acc)
    return pa.table(
        {
            "zone_id": pa.array(zids, pa.int64()),
            "psum": pa.array([acc[z][0] for z in zids], pa.int64()),
            "pcnt": pa.array([acc[z][1] for z in zids], pa.int64()),
        }
    )


def zonal_stats(images_ds, zones: pa.Table):
    """Dataset[(zone_id, n_px, sum_value)] — only zones with >= 1 finite
    pixel appear (inner-join semantics, matching the SQL oracle)."""
    import ray
    from ray.data.aggregate import Sum

    zref = ray.put(_zone_arrays(zones))
    partials = images_ds.map_batches(
        lambda b: zonal_partials(b, fetch(zref)), batch_format="pyarrow"
    )
    return partials.groupby("zone_id").aggregate(
        Sum("pcnt", alias_name="n_px"), Sum("psum", alias_name="sum_value")
    )


def zonal_categorical_partials(batch: pa.Table, zones) -> pa.Table:
    """Per-batch (zone_id, value, pcnt) partials of categorical zonal
    statistics: one bincount per (image, zone) slice of finite pixels."""
    acc: dict = {}
    for zid, finite, vals in _zone_slices(batch, zones, codes=True):
        fin = finite.ravel()
        if not fin.any():
            continue
        counts = np.bincount(vals.ravel()[fin])
        prev = acc.get(zid)
        if prev is None:
            acc[zid] = counts
        elif prev.size >= counts.size:
            prev[: counts.size] += counts
        else:
            counts[: prev.size] += prev
            acc[zid] = counts
    zc, vc, nc = [], [], []
    for zid in sorted(acc):
        nz = np.flatnonzero(acc[zid])
        zc.extend([zid] * nz.size)
        vc.extend(nz.tolist())
        nc.extend(acc[zid][nz].tolist())
    return pa.table(
        {
            "zone_id": pa.array(zc, pa.int64()),
            "value": pa.array(vc, pa.int64()),
            "pcnt": pa.array(nc, pa.int64()),
        }
    )


def zonal_categorical(images_ds, zones: pa.Table):
    """ArcGIS ZonalStatistics MAJORITY / MINORITY / VARIETY (plus MIN /
    MAX) over integer-coded rasters: Dataset[(zone_id, variety, vmin,
    vmax, majority, majority_n, minority, minority_n)].

    Ties break to the SMALLEST value code (the ArcGIS rule).  Pixels
    never shuffle: per-batch bincount partials combine through a
    (zone_id, value) groupby whose payload is distinct pairs, then a
    per-zone map_groups finishes the argmax/argmin."""
    import ray
    from ray.data.aggregate import Sum

    zref = ray.put(_zone_arrays(zones))
    partials = images_ds.map_batches(
        lambda b: zonal_categorical_partials(b, fetch(zref)), batch_format="pyarrow"
    )
    pairs = partials.groupby(["zone_id", "value"]).aggregate(
        Sum("pcnt", alias_name="n")
    )

    def finish(df):
        import pandas as pd

        v = df["value"].to_numpy(np.int64)
        n = df["n"].to_numpy(np.int64)
        # lexicographic (-n, value) / (n, value) keys: value < 2**20
        maj = np.lexsort((v, -n))[0]
        mino = np.lexsort((v, n))[0]
        return pd.DataFrame(
            {
                "zone_id": [int(df["zone_id"].iloc[0])],
                "variety": [int(len(v))],
                "vmin": [int(v.min())],
                "vmax": [int(v.max())],
                "majority": [int(v[maj])],
                "majority_n": [int(n[maj])],
                "minority": [int(v[mino])],
                "minority_n": [int(n[mino])],
            }
        )

    return pairs.groupby("zone_id").map_groups(finish, batch_format="pandas")


CROSSTAB_SCHEMA = pa.schema(
    [("zone", pa.int64()), ("klass", pa.int64()), ("n_px", pa.int64())]
)


def _sum_crosstabs(part: pa.Table) -> pa.Table:
    """Sum the counts of each (zone, klass) pair in a table of crosstab
    rows: one np.unique over the packed pair, one np.add.at."""
    z = part.column("zone").to_numpy()
    k = part.column("klass").to_numpy()
    width = int(k.max()) + 1 if k.size else 1
    uniq, inv = np.unique(z * width + k, return_inverse=True)
    n = np.zeros(uniq.size, dtype=np.int64)
    np.add.at(n, inv, part.column("n_px").to_numpy())
    return pa.table(
        [pa.array(uniq // width, pa.int64()), pa.array(uniq % width, pa.int64()),
         pa.array(n, pa.int64())],
        schema=CROSSTAB_SCHEMA,
    )


class CrosstabStage:
    """map_batches combiner for the distributed crosstab: each batch of
    encoded rasters is decoded, ``classify(arr) -> (zones, classes)``
    derives the two co-registered categorical layers, and the per-image
    contingency tables are summed into one partial per batch.  The
    partial payload is distinct (zone, klass) pairs — never pixels — so
    the finishing exchange is tiny regardless of raster size (same
    partial-aggregate shape as zonal_stats)."""

    def __init__(self, classify):
        self.classify = classify

    def __call__(self, batch: pa.Table) -> pa.Table:
        fmts = batch.column("fmt").to_pylist()
        blobs = codec.BlobReader(batch.column("bytes"))
        parts = [crosstab(*self.classify(codec.decode(blobs[i], fmts[i])))
                 for i in range(batch.num_rows)]
        return _sum_crosstabs(pa.concat_tables(parts) if parts else CROSSTAB_SCHEMA.empty_table())


def crosstab_images(images_ds, classify):
    """Distributed Tabulate Area: Dataset[(zone, klass, n_px)] over every
    raster in ``images_ds``.  ``classify`` maps a decoded 2-D array to the
    (zone_codes, class_codes) integer layers; partial contingency tables
    combine inside map_batches and one hash exchange on (zone, klass)
    (``util.exchange``) finishes with a vectorized sum per partition —
    pixels never cross the exchange.  The stage runs as stateless tasks,
    so it needs no CPU reserved for an actor pool."""
    partials = images_ds.map_batches(CrosstabStage(classify), batch_format="pyarrow")
    return exchange(partials, ["zone", "klass"], _sum_crosstabs)


def crosstab(zones: np.ndarray, classes: np.ndarray) -> pa.Table:
    """Tabulate Area (ArcGIS) / GRASS r.stats: the contingency table
    of two co-registered categorical rasters — one row per present
    (zone, class) pair with its pixel count, sorted by (zone, class).

    Vectorized as a single bincount over the packed pair code; exact
    integers.  At scale this is a per-tile partial crosstab (map_batches
    emits the local pairs) followed by one exchange that sums them
    (``crosstab_images``); its payload is distinct pairs, never pixels —
    the same partial-aggregate shape as pixel_histogram."""
    z = np.asarray(zones, dtype=np.int64)
    c = np.asarray(classes, dtype=np.int64)
    if z.shape != c.shape:
        raise ValueError("crosstab rasters must share a shape")
    if (z < 0).any() or (c < 0).any():
        raise ValueError("crosstab expects non-negative category codes")
    zf, cf = z.ravel(), c.ravel()
    width = int(cf.max()) + 1 if cf.size else 1
    packed = zf * width + cf
    counts = np.bincount(packed)
    present = np.flatnonzero(counts)
    return pa.table({
        "zone": pa.array(present // width, pa.int64()),
        "klass": pa.array(present % width, pa.int64()),
        "n_px": pa.array(counts[present], pa.int64()),
    })


def cut_fill(z_before: np.ndarray, z_after: np.ndarray) -> dict:
    """Cut-fill volumes between two co-registered integral DEMs (the
    ArcGIS Cut Fill / QGIS raster-volume operation, per-scene totals):
    cut = sum of positive (before - after), fill = sum of positive
    (after - before), net = cut - fill, plus the cell counts.  All
    INTEGER sufficient statistics (multiply by cell area for volume
    units on a regular grid)."""
    a = np.asarray(z_before)
    b = np.asarray(z_after)
    if a.shape != b.shape or a.ndim != 2:
        raise ValueError("cut_fill needs two co-registered 2D rasters")
    for x in (a, b):
        if not np.issubdtype(x.dtype, np.integer):
            if not np.all(np.isfinite(x)) or np.any(x != np.rint(x)):
                raise ValueError("cut_fill requires integral pixel values")
    d = a.astype(np.int64) - b.astype(np.int64)
    return {
        "cut": int(d[d > 0].sum()),
        "fill": int(-d[d < 0].sum()),
        "net": int(d.sum()),
        "n_cut": int((d > 0).sum()),
        "n_fill": int((d < 0).sum()),
        "n_same": int((d == 0).sum()),
    }


def cutfill_images(images_ds, after_fn):
    """Per-image cut-fill totals against a derived 'after' surface:
    Dataset[(image_id, cut, fill, net, n_cut, n_fill, n_same)].
    ``after_fn(image_id, arr) -> np.ndarray`` builds the second DEM
    (a reference surface, a design grade, or another acquisition
    loaded by id).  One map_batches, nothing shuffles; at scale the
    two-acquisition variant is a co-partitioned zip join on tile key."""

    def run(t: pa.Table) -> pa.Table:
        cols = {k: [] for k in ("image_id", "cut", "fill", "net",
                                "n_cut", "n_fill", "n_same")}
        for i in range(t.num_rows):
            iid = t.column("image_id")[i].as_py()
            px = codec.decode(t.column("bytes")[i].as_py(),
                              t.column("fmt")[i].as_py())
            st = cut_fill(px, after_fn(iid, px))
            cols["image_id"].append(iid)
            for k in ("cut", "fill", "net", "n_cut", "n_fill", "n_same"):
                cols[k].append(st[k])
        out = {"image_id": pa.array(cols["image_id"], pa.string())}
        for k in ("cut", "fill", "net", "n_cut", "n_fill", "n_same"):
            out[k] = pa.array(cols[k], pa.int64())
        return pa.table(out)

    return images_ds.map_batches(run, batch_format="pyarrow")
