"""Polygon-polygon intersects join (GEOS ``intersects`` parity — the
reference reaches it through shapely via VectorGeometry/gpd overlay;
here: broadcast STR R-tree candidates + exact vertex-containment /
edge-crossing tests, stages/pip.py)."""

import numpy as np
import pyarrow as pa
import pytest

from rasters_ray.sources.vectors import RING_TYPE
from rasters_ray.stages.pip import (PolygonSet, polygon_join,
                                    polygons_intersect)


def _rect(x0, y0, w, h):
    return np.array([[x0, y0], [x0 + w, y0], [x0 + w, y0 + h],
                     [x0, y0 + h], [x0, y0]], dtype=np.float64)


def _ptable(items):
    return pa.table({
        "poly_id": pa.array([i for i, _ in items], pa.string()),
        "rings": pa.array(
            [[[{"x": float(x), "y": float(y)} for x, y in ring]
              for ring in rings] for _, rings in items], RING_TYPE),
        "crs": pa.array(["EPSG:4326"] * len(items), pa.string()),
    })


def test_intersects_predicate_matrix():
    A = [_rect(0, 0, 4, 4)]
    assert polygons_intersect(A, [_rect(2, 2, 4, 4)])       # overlap
    assert polygons_intersect(A, [_rect(1, 1, 1, 1)])       # B inside A
    assert polygons_intersect([_rect(1, 1, 1, 1)], A)       # A inside B
    assert polygons_intersect(A, [_rect(4, 0, 2, 2)])       # edge touch
    assert polygons_intersect(A, [_rect(4, 4, 1, 1)])       # corner touch
    assert not polygons_intersect(A, [_rect(5, 5, 1, 1)])   # disjoint
    # crossing with no vertex containment (plus-sign overlap)
    assert polygons_intersect([_rect(-1, 1, 6, 2)], [_rect(1, -1, 2, 6)])


def test_hole_semantics():
    donut = [_rect(0, 0, 10, 10), _rect(3, 3, 4, 4)]
    inside_hole = [_rect(4, 4, 2, 2)]
    assert not polygons_intersect(donut, inside_hole)  # fully in the hole
    assert not polygons_intersect(inside_hole, donut)
    spanning = [_rect(4, 4, 8, 2)]  # exits the donut through the ring
    assert polygons_intersect(donut, spanning)
    in_ring = [_rect(1, 1, 1, 1)]  # in the solid part of the donut
    assert polygons_intersect(donut, in_ring)


def test_polygon_join_modes(ray_session):
    import ray.data as rd

    small = _ptable([("B0", [_rect(0, 0, 4, 4)]),
                     ("B1", [_rect(10, 10, 2, 2)])])
    stream = _ptable([("s0", [_rect(2, 2, 4, 4)]),    # hits B0
                      ("s1", [_rect(11, 11, 4, 4)]),  # hits B1
                      ("s2", [_rect(3, 3, 9, 9)]),    # hits both
                      ("s3", [_rect(100, 100, 1, 1)])])  # none
    inner = polygon_join(rd.from_arrow(stream), small, mode="inner").take_all()
    pairs = sorted((r["poly_id"], r["other_id"]) for r in inner)
    assert pairs == [("s0", "B0"), ("s1", "B1"), ("s2", "B0"), ("s2", "B1")]
    semi = polygon_join(rd.from_arrow(stream), small, mode="semi").take_all()
    assert sorted(r["poly_id"] for r in semi) == ["s0", "s1", "s2"]
    anti = polygon_join(rd.from_arrow(stream), small, mode="anti").take_all()
    assert [r["poly_id"] for r in anti] == ["s3"]


def test_nearest_join_brute_and_index_agree(ray_session):
    import ray.data as rd
    from rasters_ray.stages.pip import nearest_join

    rng = np.random.default_rng(17)
    ns = 400  # above brute_max -> GridNNIndex path
    sites_big = pa.table({
        "site_id": pa.array([f"s{i:04d}" for i in range(ns)], pa.string()),
        "x": pa.array(rng.uniform(0, 100, ns)),
        "y": pa.array(rng.uniform(0, 100, ns)),
    })
    pts = pa.table({
        "point_id": pa.array([f"p{i:04d}" for i in range(300)], pa.string()),
        "x": pa.array(rng.uniform(-5, 105, 300)),
        "y": pa.array(rng.uniform(-5, 105, 300)),
        "crs": pa.array(["EPSG:32610"] * 300),
    })
    got = {r["point_id"]: r for r in
           nearest_join(rd.from_arrow(pts), sites_big).take_all()}
    # brute-force reference
    sx = sites_big.column("x").to_numpy()
    sy = sites_big.column("y").to_numpy()
    px = pts.column("x").to_numpy()
    py = pts.column("y").to_numpy()
    d2 = (px[:, None] - sx[None, :]) ** 2 + (py[:, None] - sy[None, :]) ** 2
    idx = np.argmin(d2, axis=1)
    for i in range(300):
        r = got[f"p{i:04d}"]
        assert r["site_id"] == f"s{idx[i]:04d}"
        dx = px[i] - sx[idx[i]]
        dy = py[i] - sy[idx[i]]
        assert r["d2"] == dx * dx + dy * dy
    # small-side path: argmin tie-breaks to lowest site index
    sites_small = pa.table({
        "site_id": pa.array(["a", "b"], pa.string()),
        "x": pa.array([0.0, 2.0]), "y": pa.array([0.0, 0.0]),
    })
    tie = pa.table({"point_id": pa.array(["t"], pa.string()),
                    "x": pa.array([1.0]), "y": pa.array([5.0]),
                    "crs": pa.array(["EPSG:32610"])})
    r = nearest_join(rd.from_arrow(tie), sites_small).take_all()[0]
    assert r["site_id"] == "a"
