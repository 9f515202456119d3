"""Geometry measure kernels (georay.measures) — closed-form pins for
area/length/centroid/hull, hole and degenerate semantics, and the buffer
family (exact convex Minkowski vs closed form; capsule-union general path
vs Monte Carlo)."""

import numpy as np
import pytest

from georay.geom import box_ring, wkb_polygon
from georay.measures import (
    buffer_areas, buffer_rings, convex_hull, feature_areas,
    feature_centroids, feature_lengths, hull_areas_npoints, measures_batch,
    pack_rings,
)


def _pack(*ring_groups):
    return pack_rings([wkb_polygon(g) for g in ring_groups])


def test_rect_measures_closed_form():
    p = _pack([box_ring(2.0, 3.0, 7.0, 11.0)])
    assert feature_areas(p) == pytest.approx([5.0 * 8.0], abs=1e-12)
    assert feature_lengths(p) == pytest.approx([2 * (5.0 + 8.0)], abs=1e-12)
    cx, cy = feature_centroids(p)
    assert cx[0] == pytest.approx(4.5, abs=1e-12)
    assert cy[0] == pytest.approx(7.0, abs=1e-12)
    ha, hp = hull_areas_npoints(p)
    assert ha[0] == pytest.approx(40.0, abs=1e-12)
    assert hp[0] == 4


def test_hexagon_measures_closed_form():
    r = 2.5
    ang = np.pi / 3.0 * np.arange(6)
    ring = np.stack([10 + r * np.cos(ang), -4 + r * np.sin(ang)], axis=1)
    p = _pack([ring])
    assert feature_areas(p) == pytest.approx(
        [3.0 * np.sin(np.pi / 3.0) * r * r], rel=1e-12)
    assert feature_lengths(p) == pytest.approx([6.0 * r], rel=1e-12)
    cx, cy = feature_centroids(p)
    assert (cx[0], cy[0]) == pytest.approx((10.0, -4.0), abs=1e-12)
    ha, hp = hull_areas_npoints(p)
    assert hp[0] == 6


def test_hole_semantics():
    # concentric hole: area subtracts, perimeter adds, centroid unmoved,
    # hull ignores the hole (positional convention, ogr/ogrpolygon.cpp)
    p = _pack([box_ring(0, 0, 10, 10), box_ring(4, 4, 6, 6)])
    assert feature_areas(p) == pytest.approx([100.0 - 4.0], abs=1e-12)
    assert feature_lengths(p) == pytest.approx([40.0 + 8.0], abs=1e-12)
    cx, cy = feature_centroids(p)
    assert (cx[0], cy[0]) == pytest.approx((5.0, 5.0), abs=1e-12)
    ha, hp = hull_areas_npoints(p)
    assert ha[0] == pytest.approx(100.0, abs=1e-12)
    assert hp[0] == 4
    # hole winding must not matter (area is orientation-independent)
    p2 = _pack([box_ring(0, 0, 10, 10), box_ring(4, 4, 6, 6)[::-1]])
    assert feature_areas(p2) == pytest.approx([96.0], abs=1e-12)


def test_bowtie_and_degenerate_centroid():
    # symmetric bowtie: signed shoelace cancels to 0 (same as OGR without
    # MakeValid); centroid falls back to the vertex mean
    bow = np.array([[-1, -1], [1, 1], [1, -1], [-1, 1]], dtype=float)
    p = _pack([bow])
    assert feature_areas(p) == pytest.approx([0.0], abs=1e-12)
    cx, cy = feature_centroids(p)
    assert (cx[0], cy[0]) == pytest.approx((0.0, 0.0), abs=1e-12)


def test_multipolygon_and_null_rows():
    from georay.geom import wkb_multipolygon
    wkbs = [wkb_polygon([box_ring(0, 0, 1, 1)]), None,
            wkb_multipolygon([[box_ring(0, 0, 1, 1)],
                              [box_ring(5, 0, 6, 2)]])]
    p = pack_rings(wkbs)
    a = feature_areas(p)
    assert a == pytest.approx([1.0, 0.0, 3.0], abs=1e-12)


def test_translation_stability():
    # ring-local kernels: measures at lon/lat-magnitude offsets keep ~1e-12
    # absolute parity with the origin-frame values (the property the
    # geom_measures round(6) oracle depends on)
    ring0 = np.array([[0, 0], [3, 0.5], [2.5, 2], [1, 3], [-0.5, 1.5]])
    for dx, dy in [(179.0, -84.0), (-179.9, 84.9), (123.456, -67.89)]:
        pa_, pb = _pack([ring0]), _pack([ring0 + [dx, dy]])
        assert feature_areas(pb)[0] == pytest.approx(
            feature_areas(pa_)[0], abs=1e-12)
        assert feature_lengths(pb)[0] == pytest.approx(
            feature_lengths(pa_)[0], abs=1e-12)
        cx, cy = feature_centroids(pb)
        cx0, cy0 = feature_centroids(pa_)
        assert cx[0] - dx == pytest.approx(cx0[0], abs=1e-11)
        assert cy[0] - dy == pytest.approx(cy0[0], abs=1e-11)
        assert buffer_areas(pb, 0.25)[0] == pytest.approx(
            buffer_areas(pa_, 0.25)[0], abs=1e-10)


def test_convex_hull_chain():
    rng = np.random.default_rng(7)
    pts = rng.normal(size=(500, 2))
    h = convex_hull(pts)
    # every input point inside or on the hull (cross-product test)
    nxt = np.roll(h, -1, axis=0)
    e = nxt - h
    for q in pts[rng.integers(0, 500, 50)]:
        cr = e[:, 0] * (q[1] - h[:, 1]) - e[:, 1] * (q[0] - h[:, 0])
        assert (cr >= -1e-9).all()
    # hull of a square + interior points is the square
    sq = np.vstack([box_ring(0, 0, 1, 1)[:-1], rng.uniform(.2, .8, (20, 2))])
    assert len(convex_hull(sq)) == 4


def test_buffer_convex_minkowski_exact():
    # rect buffer: A + 2d(w+h) + k-gon area (32-gon support = d on axis
    # normals); hexagon: A + r·d·(2 + 4cos(pi/48)) + k-gon area
    d = 0.5
    kgon = 16.0 * d * d * np.sin(np.pi / 16.0)
    p = _pack([box_ring(1, 1, 4, 3)])
    assert buffer_areas(p, d)[0] == pytest.approx(
        6.0 + 2 * d * 5.0 + kgon, rel=1e-12)
    r = 1.25
    ang = np.pi / 3.0 * np.arange(6)
    hexr = np.stack([r * np.cos(ang), r * np.sin(ang)], axis=1)
    p = _pack([hexr])
    expect = (3.0 * np.sin(np.pi / 3.0) * r * r
              + r * d * (2.0 + 4.0 * np.cos(np.pi / 48.0))
              + kgon)
    assert buffer_areas(p, d)[0] == pytest.approx(expect, rel=1e-12)


def test_buffer_concave_monte_carlo():
    # L-shape through the capsule-union general path vs a dense point grid
    L = np.array([[0, 0], [4, 0], [4, 1], [1, 1], [1, 4], [0, 4]],
                 dtype=float)
    d = 0.4
    rings = buffer_rings([L], d, quadseg=8)
    assert rings, "general buffer path returned nothing"
    area = 0.0
    for rr in rings:
        x, y = rr[:, 0], rr[:, 1]
        area += 0.5 * (np.dot(x, np.roll(y, -1)) - np.dot(np.roll(x, -1), y))
    # true buffered area: L area + d*perimeter - concave-corner deficit
    # (one reflex corner removes (1 - pi/4) d^2) + 5 convex quarter circles
    exact = 7.0 + d * 16.0 - d * d + (5.0 / 4.0) * np.pi * d * d
    # k-gon circle approximation under-covers arcs; allow 1% band
    assert area == pytest.approx(exact, rel=0.01)
    # Monte Carlo containment check on the even-odd region
    gx, gy = np.meshgrid(np.linspace(-1, 5, 121), np.linspace(-1, 5, 121))
    pts = np.stack([gx.ravel(), gy.ravel()], axis=1)

    def inside_rings(q):
        cnt = 0
        for rr in rings:
            x, y = rr[:, 0], rr[:, 1]
            x2, y2 = np.roll(x, -1), np.roll(y, -1)
            m = (y > q[1]) != (y2 > q[1])
            xs = x[m] + (q[1] - y[m]) * (x2[m] - x[m]) / (y2[m] - y[m])
            cnt += int((xs > q[0]).sum())
        return cnt % 2 == 1

    # true membership: distance to L-polygon <= d
    def dist_to_L(q):
        best = np.inf
        P = np.vstack([L, L[:1]])
        for i in range(len(L)):
            a, b = P[i], P[i + 1]
            ab = b - a
            t = np.clip(np.dot(q - a, ab) / np.dot(ab, ab), 0, 1)
            best = min(best, np.hypot(*(q - (a + t * ab))))
        # inside the polygon itself → distance 0
        x, y = L[:, 0], L[:, 1]
        x2, y2 = np.roll(x, -1), np.roll(y, -1)
        m = (y > q[1]) != (y2 > q[1])
        xs = x[m] + (q[1] - y[m]) * (x2[m] - x[m]) / (y2[m] - y[m])
        if (xs > q[0]).sum() % 2 == 1:
            return 0.0
        return best

    rng = np.random.default_rng(3)
    mism = 0
    for q in pts[rng.integers(0, len(pts), 400)]:
        truth = dist_to_L(q) <= d
        got = inside_rings(q)
        if truth != got:
            # tolerate points within the k-gon chord sagitta of the boundary
            if abs(dist_to_L(q) - d) > d * (1 - np.cos(np.pi / 32)) + 1e-9:
                mism += 1
    assert mism == 0


def test_measures_batch_roundtrip():
    import pyarrow as pa
    t = pa.table({
        "id": pa.array([0, 1]),
        "wkb": pa.array([wkb_polygon([box_ring(0, 0, 2, 2)]),
                         wkb_polygon([box_ring(-1, -1, 1, 3)])],
                        pa.binary()),
    })
    out = measures_batch(t, "wkb", buffer_dist=0.5, round_to=6)
    assert out["st_area"].to_pylist() == [4.0, 8.0]
    assert out["st_length"].to_pylist() == [8.0, 12.0]
    assert out["hull_npoints"].to_pylist() == [4, 4]
    kgon = 16.0 * 0.25 * np.sin(np.pi / 16.0)
    assert out["buf_area"].to_pylist() == pytest.approx(
        [4.0 + 4.0 + kgon, 8.0 + 6.0 + kgon], abs=1e-6)


def test_empty_and_batch_edge_cases():
    import pyarrow as pa
    empty = pa.table({"id": pa.array([], pa.int64()),
                      "wkb": pa.array([], pa.binary())})
    out = measures_batch(empty, "wkb")
    assert out.num_rows == 0 and "st_area" in out.schema.names
    nulls = pa.table({"id": pa.array([7]),
                      "wkb": pa.array([None], pa.binary())})
    out = measures_batch(nulls, "wkb")
    assert out["st_area"].to_pylist() == [0.0]
    assert np.isnan(out["st_cx"].to_pylist()[0])


# ---------------------------------------------------------------------------
# Linear referencing (apps/ogrlineref.cpp op_create/get_pos/get_coord/
# get_subline)
# ---------------------------------------------------------------------------

def test_lineref_measures_and_coords():
    from georay.lineref import line_measures, point_at_measure
    # L-shaped line: 3 right + 4 up = length 7
    xy = np.array([[0, 0], [3, 0], [3, 4]], dtype=float)
    np.testing.assert_allclose(line_measures(xy), [0, 3, 7])
    pts = point_at_measure(xy, [0.0, 1.5, 3.0, 5.0, 7.0, 99.0])
    np.testing.assert_allclose(pts, [[0, 0], [1.5, 0], [3, 0],
                                     [3, 2], [3, 4], [3, 4]])


def test_lineref_mileposts():
    from georay.lineref import create_mileposts
    xy = np.array([[0, 0], [3, 0], [3, 4]], dtype=float)
    mp = create_mileposts(xy, 2.0)
    np.testing.assert_allclose(mp[:, 2], [0, 2, 4, 6])
    np.testing.assert_allclose(mp[:, :2], [[0, 0], [2, 0], [3, 1], [3, 3]])


def test_lineref_locate_points():
    from georay.lineref import locate_points
    xy = np.array([[0, 0], [3, 0], [3, 4]], dtype=float)
    m, off = locate_points(xy, [1.0, 3.5, -1.0], [1.0, 2.0, 0.0])
    np.testing.assert_allclose(m, [1.0, 5.0, 0.0])
    np.testing.assert_allclose(off, [1.0, 0.5, 1.0])


def test_lineref_subline():
    from georay.lineref import subline, line_measures
    xy = np.array([[0, 0], [3, 0], [3, 4]], dtype=float)
    s = subline(xy, 1.0, 5.0)
    np.testing.assert_allclose(s, [[1, 0], [3, 0], [3, 2]])
    # full-range subline reproduces the line
    np.testing.assert_allclose(subline(xy, 0, 7), xy)
    # measures of the subline are contiguous
    np.testing.assert_allclose(line_measures(s)[-1], 4.0)


def test_lineref_batch_stage():
    import pyarrow as pa
    from georay.lineref import mileposts_batch
    t = pa.table({
        "line_id": pa.array([1, 2], pa.int64()),
        "line_xy": pa.array([[0.0, 0.0, 3.0, 0.0, 3.0, 4.0],
                             [0.0, 0.0, 10.0, 0.0]],
                            pa.list_(pa.float64())),
    })
    out = mileposts_batch(t, 5.0)
    df = out.to_pandas()
    assert df[df.line_id == 1].measure.tolist() == [0.0, 5.0]
    assert df[df.line_id == 2].measure.tolist() == [0.0, 5.0, 10.0]


def test_areas_any_wkb_mixed_column():
    # per-row type-word dispatch: polygon + curve + None in one column
    from georay.curves import wkb_circularstring, wkb_curvepolygon
    from georay.geom import box_ring, wkb_polygon
    from georay.measures import areas_any_wkb
    import struct

    from georay.geom import wkb_point
    circle = wkb_curvepolygon([wkb_circularstring(
        np.array([[-2.0, 0.0], [2.0, 0.0], [-2.0, 0.0]]))])
    square = wkb_polygon([box_ring(0.0, 0.0, 2.0, 3.0)])
    point = wkb_point(1.0, 2.0)
    multipoint = (struct.pack("<BII", 1, 4, 2) + wkb_point(0.0, 0.0)
                  + wkb_point(3.0, 4.0))
    out = areas_any_wkb([square, None, circle, point, multipoint])
    assert abs(out[0] - 6.0) < 1e-12
    assert out[1] == 0.0
    assert abs(out[2] - np.pi * 4.0) < 1e-12
    # non-surface rows measure 0, as OGR_G_Area does
    assert out[3] == 0.0 and out[4] == 0.0
