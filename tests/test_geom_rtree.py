"""WKB / point-in-polygon / R-tree / haversine tests."""

import warnings

import numpy as np
from hypothesis import given, settings, strategies as st

from georay import geom as G
from georay.rtree import PackedRTree, hilbert_sort_order, hilbert_xy2d


def test_wkb_roundtrip_polygon():
    ring = G.box_ring(0, 0, 10, 5)
    buf = G.wkb_polygon([ring])
    kind, rings = G.parse_wkb(buf)
    assert kind == "polygon"
    assert np.allclose(rings[0], ring)
    assert G.wkb_envelope(buf) == (0, 0, 10, 5)


def test_wkb_multipolygon_and_point():
    buf = G.wkb_multipolygon([[G.box_ring(0, 0, 1, 1)],
                              [G.box_ring(5, 5, 6, 6)]])
    kind, rings = G.parse_wkb(buf)
    assert kind == "polygon" and len(rings) == 2
    kind, (x, y) = G.parse_wkb(G.wkb_point(3.5, -7.25))
    assert kind == "point" and (x, y) == (3.5, -7.25)


def test_pip_square_and_hole():
    outer = G.box_ring(0, 0, 10, 10)
    hole = G.box_ring(4, 4, 6, 6)
    pp = G.PackedPolygons.from_wkb([G.wkb_polygon([outer, hole])])
    px = np.array([2.0, 5.0, 11.0, 4.5])
    py = np.array([2.0, 5.0, 5.0, 3.0])
    m = pp.contains_pairs(px, py, np.arange(4),
                          np.zeros(4, dtype=np.int64))
    # inside, in-hole, outside, inside (below the hole)
    assert m.tolist() == [True, False, False, True]


def test_pip_concave():
    # L-shape
    ring = np.array([[0, 0], [4, 0], [4, 1], [1, 1], [1, 4], [0, 4], [0, 0]],
                    dtype=np.float64)
    pp = G.PackedPolygons.from_wkb([G.wkb_polygon([ring])])
    px = np.array([0.5, 3.0, 3.0])
    py = np.array([3.0, 0.5, 3.0])
    m = pp.contains_pairs(px, py, np.arange(3), np.zeros(3, dtype=np.int64))
    assert m.tolist() == [True, True, False]


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**16 - 1), st.integers(0, 2**16 - 1))
def test_hilbert_locality_adjacent(x, y):
    """Adjacent grid points differ by exactly 1 in Hilbert distance when
    stepping along the curve — at minimum the function is injective on a
    small neighborhood and inverse-free sanity holds."""
    d = int(hilbert_xy2d(16, np.array([x]), np.array([y]))[0])
    assert 0 <= d < 2**32
    if x + 1 < 2**16:
        d2 = int(hilbert_xy2d(16, np.array([x + 1]), np.array([y]))[0])
        assert d2 != d


def test_rtree_matches_brute_force():
    rng = np.random.default_rng(42)
    lo = rng.uniform(0, 100, (800, 2))
    bbox = np.hstack([lo, lo + rng.uniform(0.5, 8, (800, 2))])
    tree = PackedRTree.build(bbox)
    qx = rng.uniform(0, 100, 200)
    qy = rng.uniform(0, 100, 200)
    qi, ii = tree.query_points(qx, qy)
    got = set(zip(qi.tolist(), ii.tolist()))
    expect = set()
    for q in range(200):
        hits = np.nonzero((bbox[:, 0] <= qx[q]) & (bbox[:, 2] >= qx[q])
                          & (bbox[:, 1] <= qy[q]) & (bbox[:, 3] >= qy[q]))[0]
        expect.update((q, int(h)) for h in hits)
    assert got == expect and len(expect) > 100


def test_rtree_box_query_matches_brute():
    rng = np.random.default_rng(7)
    lo = rng.uniform(0, 50, (300, 2))
    bbox = np.hstack([lo, lo + rng.uniform(0.1, 2, (300, 2))])
    tree = PackedRTree.build(bbox, node_size=8)
    qi, ii = tree.query_boxes([10.0, 40.0], [10.0, 5.0], [20.0, 45.0], [20.0, 10.0])
    for q, (minx, miny, maxx, maxy) in enumerate([(10, 10, 20, 20), (40, 5, 45, 10)]):
        hits = set(ii[qi == q].tolist())
        expect = set(np.nonzero((bbox[:, 0] <= maxx) & (bbox[:, 2] >= minx)
                                & (bbox[:, 1] <= maxy) & (bbox[:, 3] >= miny))[0].tolist())
        assert hits == expect


def test_contains_brute_matches_pairs_path():
    from georay import fixtures as fx
    polys = fx.polygons_table(60)
    pp = G.PackedPolygons.from_wkb(polys["wkb"].to_pylist())
    pts = fx.points_table(300)
    lon = pts["lon"].to_numpy()
    lat = pts["lat"].to_numpy()
    pt_i, pg_i = pp.contains_brute(lon, lat)
    # candidate pairs via rtree + contains_pairs must give the same set
    tree = PackedRTree.build(pp.bbox)
    qi, ii = tree.query_points(lon, lat)
    mask = pp.contains_pairs(lon, lat, qi, ii)
    got = set(zip(qi[mask].tolist(), ii[mask].tolist()))
    assert got == set(zip(pt_i.tolist(), pg_i.tolist()))
    assert len(got) > 0


_BAD_BBOXES = ([np.nan, 0.0, 1.0, 1.0], [np.inf, 0.0, np.inf, 1.0],
               [np.inf, np.inf, -np.inf, -np.inf])


def _fixture_bboxes():
    from georay import fixtures as fx
    t = fx.polygons_table(500)
    return np.stack([t[c].to_numpy() for c in ("minx", "miny", "maxx",
                                                "maxy")], axis=1)


def test_hilbert_sort_puts_non_finite_centers_last():
    """A NaN or infinite bbox center neither warns nor moves any finite
    item: the finite items keep the order they have without it."""
    bbox = _fixture_bboxes()
    clean = hilbert_sort_order(bbox)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for bad in _BAD_BBOXES:
            for at in (0, len(bbox)):
                order = hilbert_sort_order(np.insert(bbox, at, bad, axis=0))
                assert order[-1] == at
                finite = order[:-1]
                assert np.array_equal(finite - (finite > at), clean)


def test_bad_polygon_leaves_join_pairs_unchanged():
    """The 500-polygon fixture joined with 20,000 fixture points, plus one
    NaN, infinite or zero-ring polygon at either end: no warning, and the
    same (point, polygon) pairs."""
    import pyarrow as pa

    from georay import fixtures as fx
    from georay.join import PolygonIndex
    polys = fx.polygons_table(500).select(["polygon_id", "wkb"])
    pts = fx.points_table(20000)
    lon, lat = pts["lon"].to_numpy(), pts["lat"].to_numpy()

    def pairs(t):
        qi, ii = PolygonIndex.build(t).match_points(lon, lat)
        ids = t["polygon_id"].to_numpy(zero_copy_only=False)
        return set(zip(qi.tolist(), ids[ii].tolist()))

    clean = pairs(polys)
    assert len(clean) == 121_021
    inf = np.inf
    bad = [G.wkb_polygon([np.array([[np.nan, 0], [1, 0], [1, 1],
                                    [np.nan, 0]])]),
           G.wkb_polygon([np.array([[inf, 0], [inf, 1], [inf, 2],
                                    [inf, 0]])]),
           G.wkb_polygon([])]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for wkb in bad:
            row = pa.table({"polygon_id": ["bad"],
                            "wkb": pa.array([wkb], pa.binary())})
            for t in ([row, polys], [polys, row]):
                assert pairs(pa.concat_tables(t)) == clean


def test_haversine_known():
    # Paris -> London ~343.5 km
    d = float(G.haversine_m(48.8566, 2.3522, 51.5074, -0.1278))
    assert 340_000 < d < 348_000
    assert float(G.haversine_m(10, 20, 10, 20)) == 0.0


def test_segmentize_and_simplify():
    from georay.geom import segmentize, simplify_dp
    ring = np.array([[0.0, 0.0], [10.0, 0.0], [10.0, 10.0]])
    dens = segmentize(ring, 1.0)
    seg = dens[1:] - dens[:-1]
    assert np.hypot(seg[:, 0], seg[:, 1]).max() <= 1.0 + 1e-9
    assert np.allclose(dens[0], ring[0]) and np.allclose(dens[-1], ring[-1])
    # simplify recovers the corner from a densified L
    simp = simplify_dp(dens, 0.01)
    assert len(simp) == 3
    assert np.allclose(simp, ring)
    # noisy line within tolerance collapses to endpoints
    x = np.linspace(0, 10, 50)
    wig = np.stack([x, 0.05 * np.sin(x * 3)], axis=1)
    s2 = simplify_dp(wig, 0.1)
    assert len(s2) == 2
    # beyond tolerance keeps detail
    wig2 = np.stack([x, 0.5 * np.sin(x * 3)], axis=1)
    assert len(simplify_dp(wig2, 0.1)) > 5


def test_wkb_zm_variants_parse():
    """ISO (+1000/2000/3000) and EWKB (flag-bit) Z/M/ZM polygons parse
    with extra ordinates dropped (ogr_core.h:409-519 variant space)."""
    import struct
    import numpy as np
    from georay.geom import parse_wkb, parse_wkb_multi

    def poly_wkb(ring_xy, geom_type, dims, srid=None):
        out = [struct.pack("<B", 1)]
        t = geom_type
        if srid is not None:
            t |= 0x20000000
        out.append(struct.pack("<I", t))
        if srid is not None:
            out.append(struct.pack("<I", srid))
        out.append(struct.pack("<I", 1))  # one ring
        out.append(struct.pack("<I", len(ring_xy)))
        for (x, y) in ring_xy:
            vals = [x, y] + [9.9] * (dims - 2)
            out.append(struct.pack(f"<{dims}d", *vals))
        return b"".join(out)

    ring = [(0, 0), (4, 0), (4, 3), (0, 3), (0, 0)]
    cases = [
        (1003, 3),                 # ISO Z
        (2003, 3),                 # ISO M
        (3003, 4),                 # ISO ZM
        (3 | 0x80000000, 3),       # EWKB Z
        (3 | 0x40000000, 3),       # EWKB M
        (3 | 0x80000000 | 0x40000000, 4),  # EWKB ZM
    ]
    for gt, dims in cases:
        buf = poly_wkb(ring, gt, dims)
        kind, rings = parse_wkb(buf)
        assert kind == "polygon" and len(rings) == 1
        np.testing.assert_array_equal(rings[0], np.array(ring, float))
        assert len(parse_wkb_multi(buf)[0]) == 1
    # EWKB with SRID
    buf = poly_wkb(ring, 3 | 0x80000000, 3, srid=4326)
    kind, rings = parse_wkb(buf)
    assert kind == "polygon"
    np.testing.assert_array_equal(rings[0], np.array(ring, float))


def test_wrapdateline_set_precision_force_multi():
    import numpy as np
    from georay.geom import (force_to_multipolygon, parse_wkb_multi,
                             set_precision, wkb_polygon,
                             wrapdateline_rings)
    # polygon spanning the antimeridian: lon 175..-175 (10 deg wide)
    ring = np.array([[175.0, -5.0], [-175.0, -5.0], [-175.0, 5.0],
                     [175.0, 5.0], [175.0, -5.0]])
    parts = wrapdateline_rings([ring])
    assert len(parts) == 2
    areas = []
    for p in parts:
        r = p[0]
        assert (r[:, 0] <= 180.0 + 1e-9).all()
        assert (r[:, 0] >= -180.0 - 1e-9).all()
        x, y = r[:, 0], r[:, 1]
        areas.append(abs(0.5 * float(
            np.dot(x, np.roll(y, -1)) - np.dot(np.roll(x, -1), y))))
    assert abs(sum(areas) - 100.0) < 1e-6  # 10 x 10 deg split exactly
    # non-crossing polygon passes through unchanged
    simple = np.array([[0, 0], [1, 0], [1, 1], [0, 1], [0, 0]], float)
    assert len(wrapdateline_rings([simple])) == 1
    # SetPrecision snaps + dedups
    snapped = set_precision(np.array([[0.12, 0.18], [0.14, 0.21],
                                      [0.55, 0.61]]), 0.1)
    assert snapped.shape == (2, 2)
    np.testing.assert_allclose(snapped[0], [0.1, 0.2])
    # forceTo(MultiPolygon)
    buf = wkb_polygon([simple])
    multi = force_to_multipolygon(buf)
    assert multi[1:5] == (6).to_bytes(4, "little")
    assert len(parse_wkb_multi(multi)) == 1


def test_composite_broadcast_equi_join(ray_session):
    """Composite-key broadcast join (per-column dictionary codes packed
    into one int64): equals pandas merge with duplicate keys and NULL
    key components (SQL: NULL never matches), inner and left_outer."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray

    from georay.join import equi_join
    rng = np.random.RandomState(0)
    L = pa.table({"a": rng.randint(0, 20, 2000),
                  "b": pa.array([None if i % 37 == 0 else int(v)
                                 for i, v in enumerate(
                                     rng.randint(0, 5, 2000))],
                                pa.int64()),
                  "x": np.arange(2000)})
    R = pa.table({"a2": rng.randint(0, 20, 300),
                  "b2": rng.randint(0, 5, 300), "y": np.arange(300)})
    lds, rds = ray.data.from_arrow(L), ray.data.from_arrow(R)
    k = ["a", "b", "x", "y"]
    for how, jt in (("inner", "inner"), ("left", "left_outer")):
        got = equi_join(lds, rds, left_on=["a", "b"],
                        right_on=["a2", "b2"], join_type=jt,
                        broadcast=True).to_pandas()
        want = L.to_pandas().merge(
            R.to_pandas(), left_on=["a", "b"],
            right_on=["a2", "b2"], how=how).drop(columns=["a2", "b2"])
        g = got[k].sort_values(k).reset_index(drop=True)
        w = want[k].sort_values(k).reset_index(drop=True)
        pd.testing.assert_frame_equal(g, w, check_dtype=False)
        # broadcast plan must equal the pinned shuffle plan
        gs = equi_join(lds, rds, left_on=["a", "b"],
                       right_on=["a2", "b2"], join_type=jt,
                       broadcast=False).to_pandas()
        gs = gs[k].sort_values(k).reset_index(drop=True)
        pd.testing.assert_frame_equal(gs, w, check_dtype=False)
