"""open_vector driver identification across formats."""
import struct

import numpy as np
import pyarrow as pa
import pytest

from georay.geojson import geometry_to_wkb
from georay.vectoropen import open_vector


def _pts(n=25):
    ids = np.arange(n, dtype=np.int64)
    wkbs = [geometry_to_wkb({"type": "Point",
                             "coordinates": [float(i), float(i % 7)]})
            for i in ids]
    return pa.table({"wkb": pa.array(wkbs, pa.binary()),
                     "fid": pa.array(ids)})


def test_open_vector_formats(tmp_path, ray_session):
    import ray
    t = _pts()

    from georay.shapefile import write_shapefile
    write_shapefile(t, str(tmp_path / "pts"))
    assert open_vector(str(tmp_path / "pts.shp")).count() == 25

    from georay.flatgeobuf import write_fgb
    p = str(tmp_path / "pts.fgb")
    with open(p, "wb") as f:
        f.write(write_fgb(t))
    assert open_vector(p).count() == 25

    from georay.geojson import write_geojson, write_geojsonseq
    p = str(tmp_path / "pts.geojson")
    write_geojson(t, p)
    assert open_vector(p).count() == 25
    p = str(tmp_path / "pts.geojsonl")
    write_geojsonseq(t, p)
    assert open_vector(p).count() == 25

    from georay.arrowipc import write_arrow_ipc
    p = str(tmp_path / "pts.arrow")
    write_arrow_ipc(t, p)
    assert open_vector(p).count() == 25

    import pyarrow.parquet as pq
    p = str(tmp_path / "pts.parquet")
    pq.write_table(t, p)
    assert open_vector(p).count() == 25

    from georay.lancefmt import write_lance
    root = str(tmp_path / "pts.lance")
    write_lance(t, root)
    assert open_vector(root).count() == 25

    import pytest
    bad = str(tmp_path / "x.unknown")
    with open(bad, "wb") as f:
        f.write(b"zzzz")
    with pytest.raises(ValueError):
        open_vector(bad)


def _write_fgb(t, p):
    from georay.flatgeobuf import write_fgb
    with open(p, "wb") as f:
        f.write(write_fgb(t))


def _write_mbtiles(t, p):
    import ray

    from georay.gpkg import write_mbtiles
    write_mbtiles(ray.data.from_arrow(pa.table({
        "z": pa.array([1, 1, 2], pa.int64()),
        "tile_x": pa.array([0, 1, 3], pa.int64()),
        "tile_y": pa.array([1, 0, 2], pa.int64()),
        "data": pa.array([b"a", b"b", b"c"], pa.binary())})), p)


def _bytes_reader(read):
    def read_path(p):
        with open(p, "rb") as f:
            return read(f.read())
    return read_path


def _single_file_drivers():
    """extension → (writer(table, path), the format's own table reader)."""
    from georay.csvdriver import read_csv_vector, write_csv_vector
    from georay.dxf import read_dxf, write_dxf
    from georay.flatgeobuf import read_fgb
    from georay.gpkg import read_gpkg, read_mbtiles, write_gpkg
    from georay.mif import read_mif, write_mif
    from georay.xmldrivers import (read_gml, read_gpx, read_kml, write_gml,
                                   write_gpx, write_kml)
    return {
        "csv": (write_csv_vector, read_csv_vector),
        "gpx": (lambda t, p: write_gpx(p, waypoints=t),
                lambda p: read_gpx(p)["waypoints"]),
        "kml": (write_kml, read_kml),
        "gml": (write_gml, read_gml),
        "dxf": (write_dxf, read_dxf),
        "mif": (write_mif, read_mif),
        "fgb": (_write_fgb, _bytes_reader(read_fgb)),
        "gpkg": (write_gpkg, _bytes_reader(read_gpkg)),
        "mbtiles": (_write_mbtiles, _bytes_reader(read_mbtiles)),
    }


@pytest.mark.parametrize("ext", ["csv", "gpx", "kml", "gml", "dxf", "mif",
                                 "fgb", "gpkg", "mbtiles"])
def test_open_vector_single_file_matches_table_reader(ext, tmp_path,
                                                      ray_session):
    """Every single-file branch of open_vector returns a Dataset whose
    rows are exactly the format's own table reader's rows."""
    write, read = _single_file_drivers()[ext]
    p = str(tmp_path / f"pts.{ext}")
    # GeoPackage reserves the name ``fid`` for its primary key
    write(_pts(6).rename_columns(["wkb", "n"]), p)
    want = read(p)
    assert want.num_rows > 0
    got = open_vector(p)
    assert [dict(r) for r in got.take_all()] == want.to_pylist()


def test_geoparquet_types_name_z_not_m():
    """GeoParquet's ``geometry_types`` has no M suffix: an ISO M point is
    a ``Point``; ISO ZM and EWKB Z points are ``Point Z``."""
    import json

    from georay.geom import wkb_point
    from georay.vectoropen import attach_geoparquet_metadata

    def types(*wkbs):
        t = attach_geoparquet_metadata(pa.table({"wkb": pa.array(
            list(wkbs), pa.binary())}))
        return json.loads(t.schema.metadata[b"geo"])["columns"]["wkb"][
            "geometry_types"]

    iso_m = struct.pack("<BI3d", 1, 2001, 1.0, 2.0, 7.0)
    iso_zm = struct.pack("<BI4d", 1, 3001, 1.0, 2.0, 3.0, 7.0)
    ewkb_z = struct.pack("<BI3d", 1, 0x80000001, 1.0, 2.0, 3.0)
    assert types(iso_m) == ["Point"]
    assert types(iso_zm) == ["Point Z"]
    assert types(ewkb_z) == ["Point Z"]
    assert types(iso_m, wkb_point(0.0, 0.0)) == ["Point"]


def test_geoparquet_metadata_roundtrip(tmp_path):
    """write_vector(.parquet) stamps the GeoParquet 1.1 'geo' key
    (ogrparquetlayer.cpp:87 reads kv_metadata['geo'] the same way)."""
    import pyarrow.parquet as pq

    from georay.geom import wkb_point, wkb_polygon
    from georay.vectoropen import geoparquet_metadata, write_vector

    t = pa.table({"name": ["a", "b", "c"],
                  "wkb": pa.array(
                      [wkb_point(2.0, 3.0),
                       wkb_polygon([[(0, 0), (1, 0), (1, 1), (0, 1)]]),
                       None], pa.binary())})
    p = str(tmp_path / "geo.parquet")
    write_vector(t, p)
    m = geoparquet_metadata(p)
    assert m["version"] == "1.1.0"
    assert m["primary_column"] == "wkb"
    col = m["columns"]["wkb"]
    assert col["encoding"] == "WKB"
    assert col["bbox"] == [0.0, 0.0, 2.0, 3.0]
    assert col["geometry_types"] == ["Point", "Polygon"]
    # data unchanged by the metadata stamp
    assert pq.read_table(p)["name"].to_pylist() == ["a", "b", "c"]
    # plain (non-geo) parquet reports None
    pq.write_table(pa.table({"x": [1]}), str(tmp_path / "plain.parquet"))
    assert geoparquet_metadata(str(tmp_path / "plain.parquet")) is None


def test_geoparquet_covering_pushdown(tmp_path, ray_session):
    """GeoParquet 1.1 covering bbox column: write stamps the covering
    pointer; read_geoparquet(bbox=...) returns exactly the window rows
    and the row-group statistics make most groups prunable."""
    import pyarrow.parquet as pq

    from georay.geom import wkb_point
    from georay.vectoropen import (geoparquet_metadata, read_geoparquet,
                                   write_geoparquet)

    rng = np.random.default_rng(1)
    xs = np.sort(rng.uniform(-180, 180, 8000))   # spatially coherent
    ys = rng.uniform(-80, 80, 8000)
    t = pa.table({"fid": pa.array(np.arange(8000)),
                  "wkb": pa.array([wkb_point(float(x), float(y))
                                   for x, y in zip(xs, ys)], pa.binary())})
    p = str(tmp_path / "cov.parquet")
    write_geoparquet(t, p, row_group_size=1024)
    m = geoparquet_metadata(p)
    assert m["columns"]["wkb"]["covering"]["bbox"]["xmin"] == \
        ["bbox", "xmin"]
    got = read_geoparquet(p, bbox=(0, -90, 10, 90)).to_pandas()
    exp = ((xs >= 0) & (xs <= 10)).sum()
    assert len(got) == exp
    # pruning evidence: most row groups' bbox.xmin stats miss the window
    pf = pq.ParquetFile(p)
    overlapping = 0
    for i in range(pf.num_row_groups):
        st = pf.metadata.row_group(i).column(2).statistics
        if st.min <= 10 and st.max >= 0:
            overlapping += 1
    assert overlapping <= max(2, pf.num_row_groups // 3)
    # no-bbox read returns everything
    assert read_geoparquet(p).count() == 8000


def test_geoparquet_bbox_covers_every_type(tmp_path, ray_session):
    """The covering bbox and the ``geo`` bbox cover line rows too: a
    window inside a LineString's envelope returns the line row."""
    import pyarrow.parquet as pq

    from georay.geom import wkb_point, wkb_polygon
    from georay.vectoropen import (attach_geoparquet_metadata,
                                   geoparquet_metadata, read_geoparquet,
                                   write_geoparquet)

    line = geometry_to_wkb({"type": "LineString",
                            "coordinates": [[10, 20], [30, 40]]})
    poly = wkb_polygon([[(14, 24), (16, 24), (16, 26), (14, 26)]])
    p = str(tmp_path / "lines.parquet")
    write_geoparquet(pa.table({"fid": [0, 1], "wkb": pa.array(
        [line, poly], pa.binary())}), p)
    got = read_geoparquet(p, bbox=(15, 25, 20, 30)).to_pandas()
    assert sorted(got["fid"]) == [0, 1]

    t = attach_geoparquet_metadata(pa.table({"wkb": pa.array(
        [wkb_point(0, 0), line, None], pa.binary())}))
    pq.write_table(t, str(tmp_path / "meta.parquet"))
    col = geoparquet_metadata(str(tmp_path / "meta.parquet"))["columns"]
    assert col["wkb"]["bbox"] == [0, 0, 30, 40]
    assert col["wkb"]["geometry_types"] == ["LineString", "Point"]
