"""GeoJSONSeq byte-range splits + Arrow IPC batch-parallel driver."""
import json
import os

import numpy as np
import pyarrow as pa
import pytest

from georay.arrowipc import (read_arrow_ipc, read_arrow_ipc_table,
                             write_arrow_ipc)
from georay.geojson import (geometry_to_wkb, read_geojsonseq,
                            write_geojsonseq)


def _pts_table(n=50, start=0):
    ids = np.arange(start, start + n, dtype=np.int64)
    wkbs = [geometry_to_wkb({"type": "Point",
                             "coordinates": [float(i % 360 - 180),
                                             float(i % 120 - 60)]})
            for i in ids]
    return pa.table({"wkb": pa.array(wkbs, pa.binary()),
                     "fid": pa.array(ids)})


def test_geojsonseq_single_file_roundtrip(tmp_path, ray_session):
    t = _pts_table(40)
    p = str(tmp_path / "pts.geojsonl")
    write_geojsonseq(t, p)
    back = read_geojsonseq(p).to_pandas().sort_values("fid")
    assert list(back["fid"]) == list(range(40))
    assert list(back.columns) == ["wkb", "fid"]


def test_geojsonseq_byte_range_split_exact(tmp_path, ray_session):
    """Every line lands in exactly one range, no matter where the cuts
    fall (the peek-at-a-minus-1 contract)."""
    t = _pts_table(200)
    p = str(tmp_path / "pts.geojsonl")
    write_geojsonseq(t, p)
    size = os.path.getsize(p)
    # brutal: 13-byte ranges — far smaller than one line
    for tb in (13, 97, size // 3, size * 2):
        back = read_geojsonseq(p, target_bytes=tb).to_pandas()
        assert sorted(back["fid"]) == list(range(200)), tb


def test_geojsonseq_dataset_sink_parallel(tmp_path, ray_session):
    import ray
    t = _pts_table(120)
    out = str(tmp_path / "seqdir")
    write_geojsonseq(ray.data.from_arrow(t).repartition(4), out)
    files = [f for f in os.listdir(out) if f.endswith(".geojsonl")]
    assert len(files) == 4
    back = read_geojsonseq(out).to_pandas()
    assert sorted(back["fid"]) == list(range(120))


def test_arrow_ipc_roundtrip_and_projection(tmp_path, ray_session):
    import ray
    t = _pts_table(300)
    d = str(tmp_path / "ipcdir")
    write_arrow_ipc(ray.data.from_arrow(t).repartition(3), d)
    assert len([f for f in os.listdir(d) if f.endswith(".arrow")]) == 3
    back = read_arrow_ipc(d).to_pandas()
    assert sorted(back["fid"]) == list(range(300))
    proj = read_arrow_ipc(d, columns=["fid"]).to_pandas()
    assert list(proj.columns) == ["fid"]
    tb = read_arrow_ipc_table(d, columns=["fid"])
    assert tb.num_rows == 300


def test_arrow_ipc_batch_ranges(tmp_path, ray_session):
    # one file, many record batches → multiple scan units
    t = _pts_table(1000)
    p = str(tmp_path / "one.arrow")
    import pyarrow.ipc as pipc
    with pipc.new_file(p, t.schema) as w:
        for i in range(0, 1000, 50):        # 20 record batches
            w.write_table(t.slice(i, 50))
    back = read_arrow_ipc(p, batches_per_task=3).to_pandas()
    assert sorted(back["fid"]) == list(range(1000))


def test_contour_polygons_pixel_exact(ray_session):
    """Band membership is exact per pixel and areas partition the
    raster; 4-tile split == unsplit through the tiled path."""
    import ray

    from georay.polygonize import (contour_polygons,
                                   contour_polygons_tiled,
                                   split_image_tiles)

    ys, xs = np.mgrid[0:40, 0:48]
    band = (50 + 30 * np.sin(xs / 7.0) + 0.8 * ys).astype(np.uint8)
    levels = [25.0, 50.0, 75.0]
    polys = contour_polygons(band, levels)
    # pixel counts partition the raster and match the classification
    idx = np.digitize(band.astype(np.float64), np.asarray(levels))
    assert sum(p[4] for p in polys) == band.size
    for b in range(4):
        assert (sum(p[4] for p in polys if p[0] == b)
                == int((idx == b).sum()))
    lv_arr = np.asarray(levels)
    for p in polys:
        assert p[1] == (-np.inf if p[0] == 0 else lv_arr[p[0] - 1])
        assert p[2] == (np.inf if p[0] == len(levels) else lv_arr[p[0]])

    # tiled == unsplit (per (band, pixel_count) multiset of features)
    rows = []
    for (ox, oy, tile) in split_image_tiles(band, 16):
        rows.append({"source_id": "img0", "ox": ox, "oy": oy,
                     "h": tile.shape[0], "w": tile.shape[1],
                     "band": tile.tobytes()})
    ds = ray.data.from_items(rows, override_num_blocks=len(rows))
    got = contour_polygons_tiled(ds, levels).to_pandas()
    a = sorted(zip(got["value"], got["pixel_count"]))
    b_ = sorted((p[0], p[4]) for p in polys)
    assert a == b_
    lv = np.asarray(levels)
    for _, r in got.iterrows():
        v = int(r["value"])
        assert r["level_min"] == (-np.inf if v == 0 else lv[v - 1])
        assert r["level_max"] == (np.inf if v == 3 else lv[v])


def test_layer_info_and_raster_info(ray_session):
    import ray

    from georay.geojson import geometry_to_wkb
    from georay.info import layer_info, raster_info

    t = _pts_table(60)
    # one polygon + one null geometry for the type histogram
    poly = geometry_to_wkb({"type": "Polygon", "coordinates": [
        [[0, 0], [4, 0], [4, 4], [0, 4], [0, 0]]]})
    t2 = pa.table({
        "wkb": pa.array(list(t["wkb"].to_pylist()) + [poly, None],
                        pa.binary()),
        "fid": pa.array(list(range(62)), pa.int64()),
    })
    info = layer_info(t2)
    assert info["feature_count"] == 62
    assert info["geometry_types"]["POINT"] == 60
    assert info["geometry_types"]["POLYGON"] == 1
    assert info["geometry_types"]["NULL"] == 1
    assert info["fields"] == {"fid": "int64"}
    minx, miny, maxx, maxy = info["extent"]
    assert minx <= -180 + 1e-9 and maxx >= 4
    # distributed == driver-side
    dinfo = layer_info(ray.data.from_arrow(t2).repartition(4))
    assert dinfo == info

    arr = np.arange(48, dtype=np.uint8).reshape(6, 8)
    ri = raster_info(arr, gt=(100.0, 0.5, 0.0, 200.0, 0.0, -0.5),
                     nodata=0)
    assert ri["size"] == (8, 6) and ri["bands"] == 1
    assert ri["corners"]["upper_left"] == (100.0, 200.0)
    assert ri["corners"]["lower_right"] == (104.0, 197.0)
    assert ri["band_stats"][0]["min"] == 1.0   # nodata=0 masked
    assert ri["band_stats"][0]["max"] == 47.0


def test_layer_info_line_and_zm_types():
    """ogrinfo over a LineString, an EWKB Z polygon and an ISO ZM point:
    every row is named by its base type and counts in the extent."""
    import struct

    from georay.info import layer_info

    line = struct.pack("<BII4d", 1, 2, 2, 10, 20, 30, 40)
    ewkb_z = struct.pack("<BIII", 1, 0x80000003, 1, 4) + struct.pack(
        "<12d", -5, -6, 1, -4, -6, 1, -4, -5, 1, -5, -6, 1)
    iso_zm = struct.pack("<BI4d", 1, 3001, 50, 60, 7, 8)
    info = layer_info(pa.table({"wkb": pa.array([line, ewkb_z, iso_zm],
                                                pa.binary())}))
    assert info["geometry_types"] == {"LINESTRING": 1, "POLYGON": 1,
                                      "POINT": 1}
    assert info["extent"] == (-5.0, -6.0, 50.0, 60.0)


def test_parquet_bbox_rowgroup_pushdown(tmp_path, ray_session):
    """Hilbert-sorted parquet + bbox read: row groups prune AND the
    result equals the exact full-scan filter."""
    import pyarrow.parquet as pq
    import ray

    from georay.ogr import VectorPipeline, read_parquet_bbox

    rng = np.random.RandomState(3)
    n = 4000
    t = pa.table({
        "fid": pa.array(np.arange(n, dtype=np.int64)),
        "lon": pa.array(rng.uniform(-180, 180, n)),
        "lat": pa.array(rng.uniform(-85, 85, n)),
    })
    srt = VectorPipeline(ray.data.from_arrow(t)).spatial_sort().ds
    ordered = pa.concat_tables(list(srt.iter_batches(
        batch_size=65536, batch_format="pyarrow"))).drop_columns(
        ["hilbert_key"])
    p = str(tmp_path / "pts.parquet")
    pq.write_table(ordered, p, row_group_size=250)

    bbox = (10.0, 10.0, 40.0, 40.0)
    ds, plan = read_parquet_bbox(p, bbox)
    got = ds.to_pandas().sort_values("fid").reset_index(drop=True)
    lon = t["lon"].to_numpy()
    lat = t["lat"].to_numpy()
    m = (lon >= 10) & (lon <= 40) & (lat >= 10) & (lat <= 40)
    want = t.filter(pa.array(m)).to_pandas() \
        .sort_values("fid").reset_index(drop=True)
    import pandas as pd
    pd.testing.assert_frame_equal(got, want)
    assert plan["read_row_groups"] < plan["total_row_groups"] * 0.6, plan
