"""GeoPackage / from-scratch SQLite reader tests.

Fixtures are REAL SQLite databases written by the stdlib ``sqlite3``
module (the one component in this container that can produce canonical
SQLite bytes); ``georay.gpkg`` must parse the file format independently
— b-tree pages, varints, records, overflow chains — and agree with what
sqlite3 itself reports."""

import sqlite3
import struct

import numpy as np
import pyarrow as pa

from georay.gpkg import (SQLiteFile, gpkg_layers, parse_gpkg_geom,
                         read_gpkg, read_gpkg_dataset)


def _point_wkb(x, y):
    return struct.pack("<BIdd", 1, 1, x, y)


def _gp_blob(wkb, srs=4326, envelope=False):
    flags = 0x01 | (0x02 if envelope else 0)  # little-endian + env bits
    head = b"GP" + bytes([0, flags]) + struct.pack("<i", srs)
    if envelope:
        x, y = struct.unpack_from("<dd", wkb, 5)
        head += struct.pack("<4d", x, x, y, y)
    return head + wkb


def _make_gpkg(path, n=1200, text_blowup=3000):
    con = sqlite3.connect(path)
    con.executescript("""
        CREATE TABLE gpkg_contents (
            table_name TEXT PRIMARY KEY, data_type TEXT, identifier TEXT,
            srs_id INTEGER);
        CREATE TABLE gpkg_geometry_columns (
            table_name TEXT, column_name TEXT, geometry_type_name TEXT,
            srs_id INTEGER, z TINYINT, m TINYINT);
        CREATE TABLE pts (
            fid INTEGER PRIMARY KEY, geom BLOB, name TEXT, val REAL,
            cnt INTEGER, note TEXT);
    """)
    con.execute("INSERT INTO gpkg_contents VALUES "
                "('pts','features','points',4326)")
    con.execute("INSERT INTO gpkg_geometry_columns VALUES "
                "('pts','geom','POINT',4326,0,0)")
    rng = np.random.default_rng(0)
    rows = []
    for i in range(n):
        wkb = _point_wkb(float(rng.uniform(-180, 180)),
                         float(rng.uniform(-85, 85)))
        note = ("L" * text_blowup) if i == 7 else f"n{i}"  # overflow row
        rows.append((i + 1, _gp_blob(wkb, envelope=(i % 2 == 0)),
                     None if i % 97 == 0 else f"name{i}",
                     float(rng.normal()), int(i - n // 2), note))
    con.executemany("INSERT INTO pts VALUES (?,?,?,?,?,?)", rows)
    con.commit()
    con.close()
    return rows


def test_sqlite_reader_matches_sqlite3(tmp_path):
    p = str(tmp_path / "a.gpkg")
    _make_gpkg(p, n=1200)
    data = open(p, "rb").read()
    db = SQLiteFile(data)
    assert set(db.tables) >= {"gpkg_contents", "gpkg_geometry_columns",
                              "pts"}
    cols, rows = db.read_table("pts")
    assert cols == ["fid", "geom", "name", "val", "cnt", "note"]
    con = sqlite3.connect(p)
    want = con.execute(
        "SELECT fid, geom, name, val, cnt, note FROM pts "
        "ORDER BY fid").fetchall()
    assert len(rows) == len(want) == 1200
    for got, exp in zip(rows, want):
        assert got == tuple(exp)
    # multi-page tree: the root must be interior with several children
    assert len(db.subtree_roots("pts")) > 1
    # overflow row decoded exactly (3000-char text >> one 4096 page)
    assert rows[7][5] == "L" * 3000


def test_subtree_splits_cover_everything(tmp_path):
    p = str(tmp_path / "b.gpkg")
    _make_gpkg(p, n=2000)
    data = open(p, "rb").read()
    db = SQLiteFile(data)
    fids = []
    for r in db.subtree_roots("pts"):
        _, rows = db.read_table("pts", root_override=r)
        fids.extend(x[0] for x in rows)
    assert sorted(fids) == list(range(1, 2001))


def test_read_gpkg_layer(tmp_path):
    p = str(tmp_path / "c.gpkg")
    rows = _make_gpkg(p, n=300)
    data = open(p, "rb").read()
    assert gpkg_layers(data) == [("pts", "geom", 4326)]
    t = read_gpkg(data)
    assert t.schema.names == ["fid", "wkb", "name", "val", "cnt", "note"]
    assert t.num_rows == 300
    # geometry header stripped: plain WKB out, envelope or not
    for i in (0, 1, 5):
        assert t["wkb"][i].as_py() == rows[i][1][-21:]
        gt = struct.unpack_from("<I", t["wkb"][i].as_py(), 1)[0]
        assert gt == 1
    # NULL attribute survives
    assert t["name"][0].as_py() is None
    # empty-flag blob → null geometry
    wkb = _point_wkb(1, 2)
    empty = b"GP" + bytes([0, 0x11]) + struct.pack("<i", 4326) + wkb
    assert parse_gpkg_geom(empty) is None


def test_read_gpkg_dataset_ray(ray_session, tmp_path):
    paths = []
    for k in range(3):
        p = str(tmp_path / f"d{k}.gpkg")
        _make_gpkg(p, n=100)
        paths.append(p)
    df = read_gpkg_dataset(paths).to_pandas()
    assert len(df) == 300
    assert set(df["fid"]) == set(range(1, 101))


def test_mbtiles_reader(tmp_path):
    """MBTiles (frmts/mbtiles/): metadata KV + tiles with the TMS→XYZ
    row flip, parsed by the from-scratch SQLite reader."""
    from georay.gpkg import mbtiles_metadata, read_mbtiles

    p = str(tmp_path / "t.mbtiles")
    con = sqlite3.connect(p)
    con.executescript("""
        CREATE TABLE metadata (name TEXT, value TEXT);
        CREATE TABLE tiles (zoom_level INTEGER, tile_column INTEGER,
                            tile_row INTEGER, tile_data BLOB);
    """)
    con.execute("INSERT INTO metadata VALUES ('name','demo')")
    con.execute("INSERT INTO metadata VALUES ('format','png')")
    rows = [(z, x, y, bytes([z, x, y]))
            for z in (1, 2) for x in range(2 ** z) for y in range(2 ** z)]
    con.executemany("INSERT INTO tiles VALUES (?,?,?,?)", rows)
    con.commit()
    con.close()
    data = open(p, "rb").read()
    assert mbtiles_metadata(data) == {"name": "demo", "format": "png"}
    t = read_mbtiles(data).to_pandas()
    assert len(t) == 4 + 16
    # XYZ flip: TMS row 0 at z=1 becomes XYZ y=1
    r = t[(t.z == 1) & (t.tile_x == 0) & (t.tile_y == 1)]
    assert r["data"].iloc[0] == bytes([1, 0, 0])
    # TMS passthrough keeps the raw rows
    raw = read_mbtiles(data, xyz_rows=False).to_pandas()
    assert set(map(tuple, raw[raw.z == 1][["tile_x", "tile_y"]].values)) \
        == {(0, 0), (0, 1), (1, 0), (1, 1)}


from hypothesis import given, settings
from hypothesis import strategies as hst

_cell = hst.one_of(
    hst.none(),
    hst.integers(-2**62, 2**62),
    hst.floats(allow_nan=False, allow_infinity=False, width=64),
    hst.text(max_size=300),
    hst.binary(max_size=300),
    hst.sampled_from([0, 1, -1, 2**31, -2**31, 2**47, ""]),
)


@settings(max_examples=20, deadline=None)
@given(hst.lists(hst.tuples(_cell, _cell, _cell), min_size=0,
                 max_size=120))
def test_sqlite_reader_property_fuzz(tmp_path_factory, rows):
    """Random (int/float/text/blob/null, incl. 1/3/6-byte int serials and
    boundary magnitudes) tables written by sqlite3 must decode
    byte-identically through the from-scratch page reader."""
    p = str(tmp_path_factory.mktemp("fz") / "f.db")
    con = sqlite3.connect(p)
    con.execute("CREATE TABLE t (a, b, c)")
    con.executemany("INSERT INTO t VALUES (?,?,?)", rows)
    con.commit()
    want = con.execute("SELECT rowid, a, b, c FROM t ORDER BY rowid") \
        .fetchall()
    con.close()
    db = SQLiteFile(open(p, "rb").read())
    cols, got = db.read_table("t")
    assert cols == ["a", "b", "c"]
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g == tuple(w[1:])


def test_mbtiles_roundtrip_through_sink(ray_session, tmp_path):
    """write_mbtiles (stdlib sqlite3 sink) -> read_mbtiles (from-scratch
    reader): exact tile roundtrip incl. the XYZ/TMS flip both ways."""
    import ray

    from georay.gpkg import read_mbtiles, mbtiles_metadata, write_mbtiles

    rows = [{"z": z, "tile_x": x, "tile_y": y,
             "data": bytes([z, x, y, 0xAB])}
            for z in (2, 3) for x in range(2 ** z) for y in range(2 ** z)]
    ds = ray.data.from_items(rows)
    p = str(tmp_path / "o.mbtiles")
    n = write_mbtiles(ds, p, metadata={"name": "x", "format": "png"})
    assert n == len(rows)
    data = open(p, "rb").read()
    assert mbtiles_metadata(data)["name"] == "x"
    back = read_mbtiles(data).to_pandas()
    assert len(back) == len(rows)
    got = {(r.z, r.tile_x, r.tile_y): r.data for r in back.itertuples()}
    for r in rows:
        assert got[(r["z"], r["tile_x"], r["tile_y"])] == r["data"]


def test_write_gpkg_roundtrip_and_partitioned(ray_session, tmp_path):
    """write_gpkg (sqlite3 sink) -> from-scratch reader roundtrip, plus
    the partitioned Ray sink (one .gpkg per key)."""
    import ray

    from georay.gpkg import read_gpkg, write_gpkg, write_gpkg_partitioned

    n = 40
    rng = np.random.default_rng(2)
    t = pa.table({
        "wkb": pa.array([_point_wkb(float(a), float(b))
                         for a, b in rng.uniform(-50, 50, (n, 2))],
                        pa.binary()),
        "name": pa.array([f"p{i}" for i in range(n)]),
        "v": pa.array(rng.normal(size=n)),
        "k": pa.array(np.arange(n, dtype=np.int64)),
    })
    p = str(tmp_path / "w.gpkg")
    assert write_gpkg(t, p, layer="pts") == n
    back = read_gpkg(open(p, "rb").read(), table="pts")
    assert back.num_rows == n
    assert back["wkb"].to_pylist() == t["wkb"].to_pylist()
    assert back["name"].to_pylist() == t["name"].to_pylist()
    np.testing.assert_allclose(back["v"].to_numpy(), t["v"].to_numpy())
    # partitioned sink
    ds = ray.data.from_arrow(t.append_column(
        "zone", pa.array((np.arange(n) % 2).astype(np.int64))))
    man = write_gpkg_partitioned(ds, str(tmp_path / "parts"),
                                 "zone").to_pandas()
    assert sorted(man["part"]) == ["0", "1"] and man["rows"].sum() == n
    total = 0
    for path in man["path"]:
        total += read_gpkg(open(path, "rb").read()).num_rows
    assert total == n


def test_write_gpkg_fid_column_is_the_primary_key(tmp_path):
    """A (wkb, fid) table round-trips: its integer ``fid`` column supplies
    the INTEGER PRIMARY KEY values (0 and gaps included), as GDAL's GPKG
    driver takes its FID column; a non-integer ``fid`` raises."""
    import pytest

    from georay.gpkg import write_gpkg

    fids = [0, 7, 3, 100]
    t = pa.table({"wkb": pa.array([_point_wkb(float(i), -1.0) for i in fids],
                                  pa.binary()),
                  "fid": pa.array(fids, pa.int32())})
    p = str(tmp_path / "f.gpkg")
    assert write_gpkg(t, p) == 4
    back = read_gpkg(open(p, "rb").read())
    assert back.column_names == ["fid", "wkb"]
    assert sorted(zip(back["fid"].to_pylist(), back["wkb"].to_pylist())) \
        == sorted(zip(fids, t["wkb"].to_pylist()))
    con = sqlite3.connect(p)
    assert [r[0] for r in con.execute('SELECT rowid FROM "layer" '
                                      "ORDER BY rowid")] == sorted(fids)
    con.close()
    with pytest.raises(ValueError, match="fid"):
        write_gpkg(t.set_column(1, "fid", pa.array(["a", "b", "c", "d"])),
                   str(tmp_path / "g.gpkg"))


def test_gpkg_rtree_pushdown_and_rowid_lookup(tmp_path):
    """gpkg_rtree_index extension: the R*Tree shadow-node blobs are
    parsed directly (public rtree.c node format) and bbox reads fetch
    only matching rowids via targeted b-tree descents."""
    from georay.gpkg import (SQLiteFile, read_gpkg, rtree_query,
                             sqlite_lookup_rowid)

    p = str(tmp_path / "r.gpkg")
    rows = _make_gpkg(p, n=500, text_blowup=10)
    # add the spatial index the way GPKG does (rtree virtual table named
    # rtree_<table>_<geomcol> over the feature envelopes)
    con = sqlite3.connect(p)
    con.execute("CREATE VIRTUAL TABLE rtree_pts_geom USING rtree("
                "id, minx, maxx, miny, maxy)")
    ent = []
    for fid, blob, *_ in rows:
        x, y = struct.unpack_from("<dd", blob[-21:], 5)
        ent.append((fid, x, x, y, y))
    con.executemany("INSERT INTO rtree_pts_geom VALUES (?,?,?,?,?)", ent)
    con.commit()
    con.close()
    data = open(p, "rb").read()
    db = SQLiteFile(data)
    bbox = (-60.0, -30.0, 20.0, 40.0)
    got = set(rtree_query(db, "rtree_pts_geom", bbox).tolist())
    expect = {fid for fid, x0, _, y0, _ in ent
              if -60 <= x0 <= 20 and -30 <= y0 <= 40}
    assert got == expect and len(got) > 5
    # targeted rowid fetch == sqlite3's own row
    con = sqlite3.connect(p)
    for rid in (1, 250, 500):
        want = con.execute("SELECT fid, geom, name, val, cnt, note "
                           "FROM pts WHERE fid = ?", (rid,)).fetchone()
        assert sqlite_lookup_rowid(db, "pts", rid) == tuple(want)
    assert sqlite_lookup_rowid(db, "pts", 99999) is None
    con.close()
    # end-to-end: bbox read returns exactly the indexed subset
    t = read_gpkg(data, table="pts", bbox=bbox)
    assert set(t["fid"].to_pylist()) == expect


def test_rtree_query_deep_tree(tmp_path):
    """Depth >= 2 R*Tree: only node 1 stores the tree depth (rtree.c);
    non-root nodes leave the header bytes zero, so descent must track the
    level explicitly.  40k entries forces internal nodes whose children
    are themselves internal — the regression the advisor found."""
    from georay.gpkg import SQLiteFile, rtree_query
    import struct as _s

    p = str(tmp_path / "deep.db")
    con = sqlite3.connect(p)
    con.execute("CREATE VIRTUAL TABLE rtree_d_g USING rtree("
                "id, minx, maxx, miny, maxy)")
    rng = np.random.default_rng(3)
    xs = rng.uniform(-180, 180, 40000)
    ys = rng.uniform(-85, 85, 40000)
    con.executemany(
        "INSERT INTO rtree_d_g VALUES (?,?,?,?,?)",
        [(i + 1, float(x), float(x), float(y), float(y))
         for i, (x, y) in enumerate(zip(xs, ys))])
    con.commit()
    data = open(p, "rb").read()
    db = SQLiteFile(data)
    root_blob = dict(db.read_table("rtree_d_g_node")[1])[1]
    depth = _s.unpack_from(">H", root_blob, 0)[0]
    assert depth >= 2  # the fixture really is a deep tree
    bbox = (-20.0, -10.0, 25.0, 30.0)
    got = set(rtree_query(db, "rtree_d_g", bbox).tolist())
    expect = {i + 1 for i, (x, y) in enumerate(zip(xs, ys))
              if -20 <= x <= 25 and -10 <= y <= 30}
    truth = {r[0] for r in con.execute(
        "SELECT id FROM rtree_d_g WHERE maxx >= -20 AND minx <= 25 "
        "AND maxy >= -10 AND miny <= 30")}
    con.close()
    assert got == truth and truth == expect and len(got) > 1000


def test_read_gpkg_bbox_without_index(tmp_path):
    """bbox without a spatial index falls back to an envelope scan —
    same result set as the indexed path, never a silent full read."""
    from georay.gpkg import read_gpkg

    p = str(tmp_path / "noidx.gpkg")
    rows = _make_gpkg(p, n=400, text_blowup=10)
    data = open(p, "rb").read()
    bbox = (-60.0, -30.0, 20.0, 40.0)
    t = read_gpkg(data, table="pts", bbox=bbox)
    expect = set()
    for fid, blob, *_ in rows:
        x, y = struct.unpack_from("<dd", blob[-21:], 5)
        if -60 <= x <= 20 and -30 <= y <= 40:
            expect.add(fid)
    assert set(t["fid"].to_pylist()) == expect and 0 < len(expect) < 400
