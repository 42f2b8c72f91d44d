"""Hierarchical cell key encoder: encode/decode, covering, compaction."""

import numpy as np
import pytest

from rasters_ray.grids import cellkey, covering


def test_encode_decode_round_trip():
    rng = np.random.default_rng(0)
    x = rng.uniform(-180, 180, 1000)
    y = rng.uniform(-90, 90, 1000)
    for level in (0, 5, 12, 26):
        ids = cellkey.cell_ids(level, x, y)
        lv, ix, iy = cellkey.decode(ids)
        assert np.all(lv == level)
        xmin, ymin, xmax, ymax = cellkey.cell_bounds(ids)
        assert np.all((x >= xmin) & (x <= xmax))
        assert np.all((y >= ymin) & (y <= ymax))


def test_parent_contains_child():
    cid = cellkey.cell_id(10, -119.3, 39.7)
    p = int(cellkey.parent(cid))
    xmin, ymin, xmax, ymax = cellkey.cell_bounds(p)
    cx0, cy0, cx1, cy1 = cellkey.cell_bounds(cid)
    assert xmin <= cx0 and xmax >= cx1 and ymin <= cy0 and ymax >= cy1


def test_covering_contains_all_inside_points():
    box = (-120.0, 39.0, -119.0, 40.0)
    ids = set(cellkey.covering_cells(9, box).tolist())
    rng = np.random.default_rng(1)
    x = rng.uniform(*box[::2], 500)
    y = rng.uniform(box[1], box[3], 500)
    pts = cellkey.cell_ids(9, x, y)
    assert set(pts.tolist()) <= ids


def test_covering_antimeridian():
    ids = cellkey.covering_cells(8, (179.5, 10.0, -179.5, 11.0))
    assert len(ids) >= 2
    a = cellkey.cell_id(8, 179.9, 10.5)
    b = cellkey.cell_id(8, -179.9, 10.5)
    assert a in ids and b in ids


def test_covering_rejects_boxes_it_cannot_cover():
    for box in [
        (np.inf, 10.0, 179.0, 11.0),
        (-179.0, 10.0, -np.inf, 11.0),
        (0.0, np.nan, 1.0, 11.0),
        (180.5, 10.0, 179.0, 11.0),  # crosses the antimeridian from east of 180
        (179.0, 10.0, -180.5, 11.0),  # ... and to west of -180
    ]:
        with pytest.raises(ValueError):
            cellkey.covering_cells(8, box)


def test_cell_bounds_match_covering_geometry():
    ids = cellkey.covering_cells(7, (-10.3, -5.2, 12.9, 4.4))
    xmin, ymin, xmax, ymax = cellkey.cell_bounds(ids)
    w, h = covering.cell_size(7)
    assert np.allclose(xmax - xmin, w) and np.allclose(ymax - ymin, h)
    assert cellkey.level_for_cell_size(h) == 7


def test_compact_covering_cell_budget():
    level, ids = cellkey.compact_covering((-120.0, 39.0, -119.0, 40.0), max_cells=16)
    assert 1 <= len(ids) <= 16
    finer = cellkey.covering_cells(level + 1, (-120.0, 39.0, -119.0, 40.0))
    assert len(finer) > 16  # the chosen level is the finest within budget


def test_nan_is_minus_one():
    ids = cellkey.cell_ids(8, [np.nan], [1.0])
    assert ids[0] == -1


def test_token_stable():
    cid = cellkey.cell_id(8, -119.3, 39.7)
    assert cellkey.token(cid) == cellkey.token(cid)
    assert cellkey.token(cid).startswith("L08_")


def test_cells_to_ranges():
    ids = np.array([5, 6, 7, 10, 11, 20])
    assert cellkey.cells_to_ranges(ids) == [(5, 7), (10, 11), (20, 20)]


# ---------------------------------------------------------------------------
# Z-order (Morton) keys
# ---------------------------------------------------------------------------


def test_morton_roundtrip_and_bruteforce():
    import numpy as np

    from rasters_ray.grids.cellkey import morton_decode, morton_key

    rng = np.random.default_rng(1)
    ix = rng.integers(0, 1 << 14, 2000).astype(np.int64)
    iy = rng.integers(0, 1 << 14, 2000).astype(np.int64)
    z = morton_key(ix, iy, bits=14)
    want = np.zeros_like(z)
    for b in range(14):
        want |= ((ix >> b) & 1) << (2 * b)
        want |= ((iy >> b) & 1) << (2 * b + 1)
    assert (z == want).all()
    dx, dy = morton_decode(z, bits=14)
    assert (dx == ix).all() and (dy == iy).all()


def test_morton_validation():
    import numpy as np
    import pytest

    from rasters_ray.grids.cellkey import morton_key

    with pytest.raises(ValueError):
        morton_key(np.array([1 << 10]), np.array([0]), bits=10)
    with pytest.raises(ValueError):
        morton_key(np.array([-1]), np.array([0]), bits=10)


def test_morton_locality_beats_row_major():
    """Sorting a 2D sample by the curve key keeps consecutive rows
    spatially closer than sorting by (ix) alone — the property range
    partitioning relies on."""
    import numpy as np

    from rasters_ray.grids.cellkey import morton_key

    rng = np.random.default_rng(2)
    ix = rng.integers(0, 256, 5000).astype(np.int64)
    iy = rng.integers(0, 256, 5000).astype(np.int64)

    def mean_step(order):
        return float(
            np.abs(np.diff(ix[order])).mean() + np.abs(np.diff(iy[order])).mean()
        )

    z_order = np.argsort(morton_key(ix, iy, bits=8), kind="stable")
    x_order = np.lexsort((iy, ix))
    assert mean_step(z_order) < mean_step(x_order)


def test_hilbert_key_bijection_and_locality():
    from rasters_ray.grids.cellkey import hilbert_decode, hilbert_key, morton_key

    for bits in (1, 2, 4, 6):
        n = 1 << bits
        xx, yy = np.meshgrid(np.arange(n), np.arange(n))
        d = hilbert_key(xx.ravel(), yy.ravel(), bits=bits)
        assert sorted(d.tolist()) == list(range(n * n))  # bijection
        rx, ry = hilbert_decode(d, bits=bits)
        assert (rx == xx.ravel()).all() and (ry == yy.ravel()).all()
        # the defining property Morton lacks: every consecutive curve
        # step is a UNIT grid step
        order = np.argsort(d)
        px, py = xx.ravel()[order], yy.ravel()[order]
        assert (np.abs(np.diff(px)) + np.abs(np.diff(py)) == 1).all()
    # 2x2 canonical orientation
    assert hilbert_key(np.array([0, 0, 1, 1]), np.array([0, 1, 1, 0]),
                       bits=1).tolist() == [0, 1, 2, 3]
    # Morton violates unit-step (jump at quadrant crossings)
    xx, yy = np.meshgrid(np.arange(4), np.arange(4))
    z = morton_key(xx.ravel(), yy.ravel(), bits=2)
    order = np.argsort(z)
    steps = (np.abs(np.diff(xx.ravel()[order]))
             + np.abs(np.diff(yy.ravel()[order])))
    assert steps.max() > 1
    with pytest.raises(ValueError):
        hilbert_key(np.array([4]), np.array([0]), bits=2)
    with pytest.raises(ValueError):
        hilbert_key(np.array([0]), np.array([0]), bits=0)
