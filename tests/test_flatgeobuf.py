"""FlatGeobuf codec tests: wire-format pins, geometry roundtrips, packed
Hilbert R-tree layout, bbox pushdown, and the partitioned Ray sink/source.

Reference surfaces: ogr/ogrsf_frmts/flatgeobuf/ (magic bytes
ogrflatgeobufdataset.cpp:44-48, index layout packedrtree.cpp:214-260,
descending Hilbert sort packedrtree.h:86-105)."""

import struct

import numpy as np
import pyarrow as pa
import pytest

import georay.flatgeobuf as F


def _sq(x0, y0, s=1.0, hole=False):
    def ring(pts):
        b = struct.pack("<I", len(pts))
        for x, y in pts:
            b += struct.pack("<dd", x, y)
        return b

    outer = [(x0, y0), (x0 + s, y0), (x0 + s, y0 + s), (x0, y0 + s),
             (x0, y0)]
    rings = [outer]
    if hole:
        q = s / 4
        rings.append([(x0 + q, y0 + q), (x0 + q, y0 + 2 * q),
                      (x0 + 2 * q, y0 + 2 * q), (x0 + 2 * q, y0 + q),
                      (x0 + q, y0 + q)])
    return (struct.pack("<BII", 1, 3, len(rings))
            + b"".join(ring(r) for r in rings))


def _table(n=50, seed=0):
    rng = np.random.default_rng(seed)
    wkbs = [_sq(float(x), float(y)) for x, y in rng.uniform(0, 100, (n, 2))]
    return pa.table({
        "wkb": pa.array(wkbs, pa.binary()),
        "name": pa.array([f"f{i}" for i in range(n)]),
        "val": pa.array(rng.uniform(size=n)),
        "cnt": pa.array(np.arange(n, dtype=np.int64)),
        "flag": pa.array((np.arange(n) % 2 == 0)),
    })


def _roundtrip_sorted(t, data):
    back = F.read_fgb(data)
    a = t.to_pandas().sort_values("cnt").reset_index(drop=True)
    b = (back.to_pandas().sort_values("cnt").reset_index(drop=True)
         [list(a.columns)])
    return a, b


def test_magic_and_header_fields():
    t = _table(10)
    data = F.write_fgb(t, name="zones", crs_code=3857)
    assert data[:8] == b"fgb\x03fgb\x00"
    h = F.read_fgb_header(data)
    assert h["name"] == "zones"
    assert h["features_count"] == 10
    assert h["geometry_type"] == F.GT_POLYGON
    assert h["crs_code"] == 3857
    assert h["columns"] == [("name", F.CT_STRING), ("val", F.CT_DOUBLE),
                            ("cnt", F.CT_LONG), ("flag", F.CT_BOOL)]
    assert h["index_node_size"] == 16


def test_roundtrip_attrs_and_geometry():
    t = _table(50)
    a, b = _roundtrip_sorted(t, F.write_fgb(t))
    assert a.equals(b)


def test_truncated_file_raises():
    """A cut anywhere — header, index, mid-feature or at a feature
    boundary (caught by the header's ``features_count``) — raises."""
    data = F.write_fgb(_table(50))
    for k in range(1, 25):
        with pytest.raises(ValueError, match="truncated fgb at byte"):
            F.read_fgb(data[:len(data) * k // 25])


def test_roundtrip_without_index():
    t = _table(20)
    data = F.write_fgb(t, write_index=False)
    assert F.read_fgb_header(data)["index_node_size"] == 0
    a, b = _roundtrip_sorted(t, data)
    assert a.equals(b)
    # without an index the rows keep input order
    assert F.read_fgb(data)["cnt"].to_pylist() == list(range(20))


@pytest.mark.parametrize("wkb,gt", [
    (struct.pack("<BIdd", 1, 1, 3.5, -7.25), F.GT_POINT),
    (struct.pack("<BII", 1, 2, 3) + struct.pack("<6d", 0, 0, 1, 1, 2, 0),
     F.GT_LINESTRING),
    (_sq(2, 3, hole=True), F.GT_POLYGON),
    (struct.pack("<BII", 1, 4, 2)
     + struct.pack("<BIdd", 1, 1, 0, 0) + struct.pack("<BIdd", 1, 1, 5, 5),
     F.GT_MULTIPOINT),
    (struct.pack("<BII", 1, 5, 2)
     + struct.pack("<BII", 1, 2, 2) + struct.pack("<4d", 0, 0, 1, 1)
     + struct.pack("<BII", 1, 2, 3) + struct.pack("<6d", 2, 2, 3, 3, 4, 2),
     F.GT_MULTILINESTRING),
    (struct.pack("<BII", 1, 6, 2) + _sq(0, 0) + _sq(10, 10, hole=True),
     F.GT_MULTIPOLYGON),
])
def test_geometry_type_roundtrip(wkb, gt):
    t = pa.table({"wkb": pa.array([wkb], pa.binary()),
                  "cnt": pa.array([0], pa.int64())})
    data = F.write_fgb(t)
    assert F.read_fgb_header(data)["geometry_type"] == gt
    assert F.read_fgb(data)["wkb"].to_pylist() == [wkb]


def test_null_attributes_roundtrip():
    t = pa.table({"wkb": pa.array([_sq(0, 0), _sq(5, 5)], pa.binary()),
                  "name": pa.array(["a", None]),
                  "cnt": pa.array([0, 1], pa.int64())})
    back = F.read_fgb(F.write_fgb(t)).to_pandas().sort_values("cnt")
    assert back["name"].tolist()[0] == "a"
    assert back["name"].isna().tolist()[1]


def test_hilbert_descending_order():
    """Features are stored by DESCENDING flatbush Hilbert value of their
    bbox center (packedrtree.h:86-105 comparator is ``ha > hb``)."""
    t = _table(200, seed=3)
    data = F.write_fgb(t)
    back = F.read_fgb(data)
    # recompute expected order from the original table
    bbox = np.array([F._wkb_bbox(w) for w in t["wkb"].to_pylist()])
    order = F._hilbert_order_desc(bbox)
    assert back["cnt"].to_pylist() == list(np.asarray(
        t["cnt"].to_numpy())[order])
    # and the stored Hilbert values really are non-increasing
    bb2 = np.array([F._wkb_bbox(w) for w in back["wkb"].to_pylist()])
    cx = (bb2[:, 0] + bb2[:, 2]) / 2
    cy = (bb2[:, 1] + bb2[:, 3]) / 2
    ex0, ey0 = bb2[:, 0].min(), bb2[:, 1].min()
    w = bb2[:, 2].max() - ex0 or 1.0
    h = bb2[:, 3].max() - ey0 or 1.0
    hv = F.hilbert_flatbush(
        np.floor(65535 * (cx - ex0) / w).astype(np.uint32),
        np.floor(65535 * (cy - ey0) / h).astype(np.uint32))
    assert (np.diff(hv.astype(np.int64)) <= 0).all()


def test_index_layout_formula():
    """Node counts/levels must follow packedrtree.cpp::generateLevelBounds;
    the index byte length in the file is num_nodes * 40."""
    bounds, num_nodes = F._level_bounds(1000, 16)
    # 1000 leaves -> 63 -> 4 -> 1
    assert [hi - lo for lo, hi in bounds] == [1000, 63, 4, 1]
    assert num_nodes == 1068
    assert bounds[-1] == (0, 1)          # root first
    assert bounds[0] == (68, 1068)       # leaves last
    t = _table(100, seed=1)
    data = F.write_fgb(t)
    h = F.read_fgb_header(data)
    expected = F._index_size(100, 16)
    # features begin exactly index-size bytes after the header
    first_feat = h["_features_pos"] + expected
    ln = struct.unpack_from("<I", data, first_feat)[0]
    assert 0 < ln < len(data)


def test_bbox_pushdown_matches_full_scan():
    t = _table(300, seed=7)
    data = F.write_fgb(t)
    bbox = (10.0, 10.0, 40.0, 35.0)
    sel = set(F.read_fgb(data, bbox=bbox)["cnt"].to_pylist())
    bb = np.array([F._wkb_bbox(w) for w in t["wkb"].to_pylist()])
    expect = {int(i) for i in range(300)
              if bb[i, 0] <= bbox[2] and bb[i, 2] >= bbox[0]
              and bb[i, 1] <= bbox[3] and bb[i, 3] >= bbox[1]}
    assert sel == expect
    # offsets-only probe decodes nothing but still finds the same count
    offs = F.fgb_bbox_offsets(data, bbox)
    assert len(offs) == len(expect)


def test_minimal_flatbuffer_hand_pin():
    """Wire-format pin: one table {slot0: u16 = 7} built by FBBuilder must
    be readable by hand-walking the spec (root uoffset -> soffset ->
    vtable) without FBTable."""
    fb = F.FBBuilder()
    buf = fb.finish(fb.table([(0, "u16", 7)]))
    root = struct.unpack_from("<I", buf, 0)[0]
    soff = struct.unpack_from("<i", buf, root)[0]
    vt = root - soff
    vt_len, tbl_len = struct.unpack_from("<HH", buf, vt)
    assert vt_len == 6 and tbl_len >= 6
    rel = struct.unpack_from("<H", buf, vt + 4)[0]
    assert struct.unpack_from("<H", buf, root + rel)[0] == 7


def test_ray_partitioned_sink_and_source(ray_session, tmp_path):
    import ray

    t = _table(120, seed=11)
    part = pa.array((np.arange(120) % 3).astype(np.int64))
    ds = ray.data.from_arrow(t.append_column("zone", part))
    man = F.write_fgb_partitioned(ds, str(tmp_path), "zone").to_pandas()
    assert sorted(man["part"]) == ["0", "1", "2"]
    assert man["rows"].sum() == 120
    back = F.read_fgb_dataset(sorted(man["path"])).to_pandas()
    assert len(back) == 120
    assert set(back["cnt"]) == set(range(120))
    # bbox pushdown through the Dataset source
    some = F.read_fgb_dataset(sorted(man["path"]),
                              bbox=(0, 0, 30, 30)).to_pandas()
    bb = np.array([F._wkb_bbox(w) for w in t["wkb"].to_pylist()])
    expect = ((bb[:, 0] <= 30) & (bb[:, 2] >= 0)
              & (bb[:, 1] <= 30) & (bb[:, 3] >= 0)).sum()
    assert len(some) == expect


from hypothesis import given, settings
from hypothesis import strategies as hst


@settings(max_examples=25, deadline=None)
@given(hst.lists(
    hst.tuples(hst.floats(-180, 179, allow_nan=False, width=32),
               hst.floats(-85, 84, allow_nan=False, width=32),
               hst.integers(-2**40, 2**40),
               hst.text(max_size=12)),
    min_size=1, max_size=40))
def test_fgb_property_roundtrip(rows):
    """Any polygon table (random origins, int64/string attrs incl. empty
    and unicode strings) survives write->read exactly."""
    wkbs = [_sq(x, y, 0.5) for x, y, _, _ in rows]
    t = pa.table({
        "wkb": pa.array(wkbs, pa.binary()),
        "n": pa.array([r[2] for r in rows], pa.int64()),
        "s": pa.array([r[3] for r in rows], pa.string()),
        "i": pa.array(range(len(rows)), pa.int64()),
    })
    back = F.read_fgb(F.write_fgb(t)).to_pandas().sort_values("i")
    orig = t.to_pandas().sort_values("i")
    assert back["wkb"].tolist() == orig["wkb"].tolist()
    assert back["n"].tolist() == orig["n"].tolist()
    assert back["s"].tolist() == orig["s"].tolist()


def test_datetime_column_roundtrip():
    """DateTime property columns: ISO-8601 length-prefixed per spec."""
    from datetime import datetime

    ts = [datetime(2024, 5, 1, 12, 30, 45, 123456),
          datetime(1999, 12, 31, 23, 59, 59), None]
    t = pa.table({"wkb": pa.array([_sq(i, i) for i in range(3)],
                                  pa.binary()),
                  "when": pa.array(ts, pa.timestamp("us")),
                  "cnt": pa.array([0, 1, 2], pa.int64())})
    data = F.write_fgb(t)
    h = F.read_fgb_header(data)
    assert ("when", F.CT_DATETIME) in h["columns"]
    back = F.read_fgb(data).to_pandas().sort_values("cnt")
    got = list(back["when"])
    assert got[0] == ts[0] and got[1] == ts[1]
    import pandas as pd
    assert pd.isna(got[2])


def test_fgb_bbox_without_index_filters():
    """bbox on an index-less file envelope-filters instead of silently
    returning every feature (advisor r3)."""
    import numpy as np
    import georay.flatgeobuf as F
    from georay.geom import wkb_point

    rng = np.random.default_rng(5)
    xs = rng.uniform(-100, 100, 300)
    ys = rng.uniform(-50, 50, 300)
    t = pa.table({
        "wkb": pa.array([wkb_point(float(x), float(y))
                         for x, y in zip(xs, ys)], pa.binary()),
        "i": pa.array(np.arange(300), pa.int64()),
    })
    data = F.write_fgb(t, write_index=False)
    bbox = (-30.0, -20.0, 40.0, 25.0)
    got = set(F.read_fgb(data, bbox=bbox)["i"].to_pylist())
    expect = {int(i) for i, (x, y) in enumerate(zip(xs, ys))
              if -30 <= x <= 40 and -20 <= y <= 25}
    assert got == expect and 0 < len(expect) < 300
    # indexed file: same result set
    data_ix = F.write_fgb(t)
    got_ix = set(F.read_fgb(data_ix, bbox=bbox)["i"].to_pylist())
    assert got_ix == expect
