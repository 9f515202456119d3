"""Shapefile driver (georay/shapefile.py): .shp/.shx/.dbf roundtrips
against the public ESRI spec — geometry classes, ring winding
normalization, hole assignment, dBase attribute types, engine WKB
interop."""

import os
import struct

import numpy as np
import pyarrow as pa
import pytest

from georay.geojson import geometry_to_wkb, wkb_to_geometry
from georay.shapefile import read_shapefile, write_shapefile


def _sq(x0, y0, s):
    return [[x0, y0], [x0 + s, y0], [x0 + s, y0 + s], [x0, y0 + s],
            [x0, y0]]


def _area(g):
    tot = 0.0
    polys = ([g["coordinates"]] if g["type"] == "Polygon"
             else g["coordinates"])
    for p in polys:
        for ring in p:
            r = np.asarray(ring, dtype=np.float64)
            x, y = r[:, 0], r[:, 1]
            tot += 0.5 * (np.dot(x, np.roll(y, -1))
                          - np.dot(np.roll(x, -1), y))
    return tot


def test_polygon_roundtrip_with_hole_and_attrs(tmp_path):
    g1 = {"type": "Polygon",
          "coordinates": [_sq(0, 0, 10), _sq(2, 2, 2)[::-1]]}
    g2 = {"type": "MultiPolygon",
          "coordinates": [[_sq(20, 0, 5)], [_sq(30, 0, 3)]]}
    t = pa.table({
        "wkb": pa.array([geometry_to_wkb(g1), geometry_to_wkb(g2)],
                        pa.binary()),
        "name": ["alpha", None], "v": [1.5, -2.25],
        "n": [7, 42], "flag": [True, None]})
    base = str(tmp_path / "poly")
    write_shapefile(t, base)
    for ext in (".shp", ".shx", ".dbf"):
        assert os.path.exists(base + ext)
    r = read_shapefile(base).table
    assert r.num_rows == 2
    gg1 = wkb_to_geometry(r["wkb"][0].as_py())
    gg2 = wkb_to_geometry(r["wkb"][1].as_py())
    assert gg1["type"] == "Polygon" and len(gg1["coordinates"]) == 2
    assert gg2["type"] == "MultiPolygon" and len(gg2["coordinates"]) == 2
    # net areas preserved (hole subtracted), ring winding normalized:
    # outer CCW (positive), hole CW (negative) in the WKB convention
    assert abs(_area(gg1) - 96.0) < 1e-9
    assert abs(_area(gg2) - 34.0) < 1e-9
    rings = [np.asarray(ring) for ring in gg1["coordinates"]]
    signs = [np.sign(_area({"type": "Polygon", "coordinates": [ring]}))
             for ring in gg1["coordinates"]]
    assert signs == [1.0, -1.0]
    assert r["name"].to_pylist() == ["alpha", None]
    assert r["v"].to_pylist() == [1.5, -2.25]
    assert r["n"].to_pylist() == [7, 42]
    assert r["flag"].to_pylist() == [True, None]


def test_winding_normalized_on_write(tmp_path):
    """A WKB polygon stored with the WRONG winding (outer CW) must still
    produce a spec-conformant file: the .shp record's ring is clockwise
    (negative shoelace in the raw record bytes)."""
    g = {"type": "Polygon", "coordinates": [_sq(0, 0, 4)[::-1]]}
    base = str(tmp_path / "wind")
    write_shapefile(pa.table({"wkb": pa.array([geometry_to_wkb(g)],
                                              pa.binary())}), base)
    with open(base + ".shp", "rb") as f:
        data = f.read()
    npts = struct.unpack_from("<i", data, 100 + 8 + 40)[0]
    pts = np.frombuffer(data, "<f8", 2 * npts,
                        100 + 8 + 44 + 4).reshape(npts, 2)
    x, y = pts[:, 0], pts[:, 1]
    assert (np.dot(x, np.roll(y, -1)) - np.dot(np.roll(x, -1), y)) < 0


def test_point_line_multipoint_roundtrip(tmp_path):
    cases = [
        {"type": "Point", "coordinates": [1.5, 2.5]},
        {"type": "MultiPoint", "coordinates": [[0, 0], [3, 4]]},
        {"type": "LineString", "coordinates": [[0, 0], [5, 5], [10, 0]]},
        {"type": "MultiLineString",
         "coordinates": [[[0, 0], [5, 5]], [[1, 1], [2, 2], [3, 1]]]},
    ]
    for i, g in enumerate(cases):
        base = str(tmp_path / f"g{i}")
        write_shapefile(pa.table({
            "wkb": pa.array([geometry_to_wkb(g)], pa.binary()),
            "id": [i]}), base)
        gg = wkb_to_geometry(read_shapefile(base).table["wkb"][0].as_py())
        assert gg["type"] == g["type"]
        if g["type"] == "MultiLineString":
            assert len(gg["coordinates"]) == len(g["coordinates"])
            for got, want in zip(gg["coordinates"], g["coordinates"]):
                assert np.allclose(got, want)
        else:
            assert np.allclose(gg["coordinates"], g["coordinates"])


def test_mixed_shape_types_rejected(tmp_path):
    t = pa.table({"wkb": pa.array([
        geometry_to_wkb({"type": "Point", "coordinates": [0, 0]}),
        geometry_to_wkb({"type": "LineString",
                         "coordinates": [[0, 0], [1, 1]]})], pa.binary())})
    with pytest.raises(ValueError, match="mixed shape types"):
        write_shapefile(t, str(tmp_path / "mixed"))


def test_engine_wkb_interop(tmp_path):
    """Roundtripped WKB feeds the engine's PIP machinery unchanged."""
    from georay.geom import PackedPolygons
    g = {"type": "Polygon", "coordinates": [_sq(0, 0, 10),
                                            _sq(4, 4, 2)[::-1]]}
    base = str(tmp_path / "pip")
    write_shapefile(pa.table({"wkb": pa.array([geometry_to_wkb(g)],
                                              pa.binary())}), base)
    wkbs = [w.as_py() for w in read_shapefile(base).table["wkb"]]
    pp = PackedPolygons.from_wkb(wkbs)
    px = np.array([1.0, 5.0, 11.0])   # inside, in-hole, outside
    py = np.array([1.0, 5.0, 11.0])
    pi, gi = pp.contains_brute(px, py)
    assert list(pi) == [0]


def test_header_and_shx_layout(tmp_path):
    """File code 9994, version 1000, byte lengths recorded in 16-bit
    words, one 8-byte .shx entry per record with correct offsets."""
    t = pa.table({"wkb": pa.array(
        [geometry_to_wkb({"type": "Point", "coordinates": [i, i]})
         for i in range(3)], pa.binary())})
    base = str(tmp_path / "hdr")
    write_shapefile(t, base)
    shp = open(base + ".shp", "rb").read()
    shx = open(base + ".shx", "rb").read()
    assert struct.unpack_from(">i", shp, 0)[0] == 9994
    assert struct.unpack_from("<i", shp, 28)[0] == 1000
    assert struct.unpack_from(">i", shp, 24)[0] * 2 == len(shp)
    assert struct.unpack_from(">i", shx, 24)[0] * 2 == len(shx)
    # point record: 8-byte header + 4 type + 16 coords = 28 bytes
    off0, clen0 = struct.unpack_from(">ii", shx, 100)
    assert off0 * 2 == 100 and clen0 * 2 == 20
    off1, _ = struct.unpack_from(">ii", shx, 108)
    assert off1 * 2 == 128


def test_every_dbf_cut_raises_truncated(tmp_path):
    """A ``.dbf`` cut at k/25 raises ``ValueError("truncated dbf at byte
    N")`` instead of reading its missing records as NULLs."""
    from georay import fixtures

    base = str(tmp_path / "p")
    write_shapefile(fixtures.polygons_table(20), base)
    data = open(base + ".dbf", "rb").read()
    assert read_shapefile(base).table["polygon_id"].null_count == 0
    for k in range(1, 25):
        cut = data[:len(data) * k // 25]
        with open(base + ".dbf", "wb") as f:
            f.write(cut)
        with pytest.raises(ValueError,
                           match=f"truncated dbf at byte {len(cut)}$"):
            read_shapefile(base)
