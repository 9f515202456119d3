"""VectorPipeline (ogr2ogr analog), window operators, tile PNG writer."""

import os

import numpy as np
import pyarrow as pa
import pytest

from georay import fixtures as fx


@pytest.fixture(scope="module")
def points_parquet(tmp_path_factory):
    import pyarrow.parquet as pq
    p = tmp_path_factory.mktemp("pts") / "points.parquet"
    t = fx.points_table(400)
    t = t.append_column("pop", pa.array(
        (np.arange(400) * 37 % 5000).astype(np.int64)))
    pq.write_table(t, str(p))
    return str(p)


def test_vector_pipeline_chain(ray_session, points_parquet):
    from georay.ogr import VectorPipeline
    out = (VectorPipeline.read_parquet(points_parquet)
           .where("pop > 1000")
           .clip_bbox(-90, -60, 90, 60)
           .reproject_to_mercator()
           .select(["point_id", "lon", "lat", "x_3857", "y_3857", "pop"])
           .to_table())
    assert out.num_rows > 0
    assert set(out.schema.names) == {"point_id", "lon", "lat",
                                     "x_3857", "y_3857", "pop"}
    lon = out["lon"].to_numpy()
    lat = out["lat"].to_numpy()
    pop = out["pop"].to_numpy()
    assert (pop > 1000).all()
    assert (np.abs(lon) <= 90).all() and (np.abs(lat) <= 60).all()
    # reprojection is the closed-form transform
    from georay.mercator import latlon_to_meters
    mx, my = latlon_to_meters(lat, lon)
    assert np.allclose(out["x_3857"].to_numpy(), mx)
    assert np.allclose(out["y_3857"].to_numpy(), my)


def test_vector_pipeline_rename_and_spatial_sort(ray_session, points_parquet):
    from georay.ogr import VectorPipeline
    out = (VectorPipeline.read_parquet(points_parquet)
           .select({"point_id": "pid", "lon": "lon", "lat": "lat"})
           .spatial_sort()
           .limit(50)
           .to_table())
    assert out.num_rows == 50
    assert "pid" in out.schema.names
    keys = out["hilbert_key"].to_numpy()
    assert (np.diff(keys) >= 0).all()  # sorted


def test_vector_pipeline_clip_polygons(ray_session, points_parquet):
    from georay.ogr import VectorPipeline
    polys = fx.polygons_table(60)
    out = (VectorPipeline.read_parquet(points_parquet)
           .clip_polygons(polys)
           .to_table())
    # semi-join: subset of input, each inside >= 1 polygon
    from georay.geom import PackedPolygons
    pp = PackedPolygons.from_wkb(polys["wkb"].to_pylist())
    pt_i, _ = pp.contains_brute(out["lon"].to_numpy(), out["lat"].to_numpy())
    assert len(np.unique(pt_i)) == out.num_rows


def test_sliding_window_counts(ray_session, sf_dir):
    import ray
    from georay.windows import sliding_window_counts
    ds = ray.data.read_parquet(f"{sf_dir}/events.parquet",
                               columns=["event_type", "ts"])
    out = sliding_window_counts(ds).to_pandas()
    n_events = ray.data.read_parquet(f"{sf_dir}/events.parquet").count()
    # size/step = 2 -> every event counted exactly twice
    assert out["n"].sum() == 2 * n_events


def test_session_windows_semantics(ray_session):
    import pandas as pd
    import ray
    from georay.windows import session_windows
    ts = pd.to_datetime([
        "2024-01-01 10:00:00", "2024-01-01 10:10:00",  # session 1
        "2024-01-01 11:30:00",                          # gap > 30min
        "2024-01-01 11:50:00",
    ])
    df = pd.DataFrame({"user_id": [1, 1, 1, 1], "ts": ts,
                       "value": [1.0, 2.0, 3.0, 4.0]})
    out = session_windows(ray.data.from_pandas(df)).to_pandas()
    out = out.sort_values("session_start").reset_index(drop=True)
    assert len(out) == 2
    assert out["n_events"].tolist() == [2, 2]
    assert out["sum_value"].tolist() == [3.0, 7.0]


def test_session_windows_null_key_is_one_key(ray_session):
    """A NULL user key sessionizes like any other key, beside string keys
    in the same partition."""
    import pandas as pd
    import pyarrow as pa
    import ray
    from georay.windows import session_windows
    ts = pd.to_datetime(["2024-01-01 10:00:00", "2024-01-01 10:10:00",
                         "2024-01-01 11:30:00", "2024-01-01 10:05:00"])
    t = pa.table({"user_id": pa.array([None, None, None, "a"], pa.string()),
                  "ts": ts, "value": [1.0, 2.0, 3.0, 4.0]})
    out = session_windows(ray.data.from_arrow(t)).to_pandas()
    got = sorted(zip(out["user_id"].fillna("<null>"), out["n_events"],
                     out["sum_value"]))
    assert got == [("<null>", 1, 3.0), ("<null>", 2, 3.0), ("a", 1, 4.0)]


def test_write_tiles_png_resume(ray_session, tmp_path):
    from georay.codecs import png_decode
    from georay.pipelines import tile_pipeline
    from georay.tiles import write_tiles_png
    p = fx.write_images_parquet(str(tmp_path / "imgs"), 24, rows_per_file=12)
    base = tile_pipeline(p, zoom=12)[12]
    out_dir = str(tmp_path / "tiles")
    status = write_tiles_png(base, out_dir).take_all()
    written = [r for r in status if r["status"] == "written"]
    assert len(written) == len(status) > 0
    # files exist and decode to 256x256 RGBA
    r = written[0]
    path = os.path.join(out_dir, str(r["z"]), str(r["tile_x"]),
                        f"{r['tile_y']}.png")
    arr = png_decode(open(path, "rb").read())
    assert arr.shape == (256, 256, 4)
    # resume: second run skips everything
    base2 = tile_pipeline(p, zoom=12)[12]
    status2 = write_tiles_png(base2, out_dir).take_all()
    assert all(r["status"] == "skipped" for r in status2)


def test_pipeline_linearize_and_measure(ray_session):
    import numpy as np
    import pyarrow as pa
    import ray
    from georay.curves import wkb_circularstring, wkb_curvepolygon
    from georay.ogr import VectorPipeline
    circ = wkb_curvepolygon([wkb_circularstring(
        [[2, 0], [0, 2], [-2, 0], [0, -2], [2, 0]])])
    ds = ray.data.from_arrow(pa.table(
        {"id": [1], "wkb": pa.array([circ], pa.binary())}))
    out = (VectorPipeline.from_dataset(ds)
           .linearize(max_step_deg=1.0)
           .measure(round_to=6)
           .to_table())
    assert out["st_area"][0].as_py() == pytest.approx(np.pi * 4.0, rel=1e-4)
    assert out["st_length"][0].as_py() == pytest.approx(4 * np.pi, rel=1e-4)


def test_interval_join_matches_bruteforce(ray_session):
    """Bucketed interval join == brute-force BETWEEN over every pair,
    including intervals spanning multiple buckets and empty buckets."""
    import numpy as np
    import pyarrow as pa
    import ray
    from georay.windows import interval_join
    rng = np.random.default_rng(12)
    n_p, n_i = 3000, 200
    ts = rng.integers(0, 10 * 86400, n_p) * 1_000_000
    lo = rng.integers(0, 10 * 86400 - 20000, n_i) * 1_000_000
    hi = lo + rng.integers(1, 20000, n_i) * 1_000_000   # up to ~5.5 h
    pts = ray.data.from_arrow(pa.table({
        "event_id": pa.array(np.arange(n_p)), "ts": pa.array(ts)}))
    ivs = ray.data.from_arrow(pa.table({
        "iv_id": pa.array(np.arange(n_i)), "lo": pa.array(lo),
        "hi": pa.array(hi)}))
    out = interval_join(pts, ivs, ts_col="ts", lo_col="lo", hi_col="hi",
                        bucket_s=3600).to_pandas()
    m = (ts[:, None] >= lo[None, :]) & (ts[:, None] <= hi[None, :])
    a, b = np.nonzero(m)
    want = set(zip(a.tolist(), b.tolist()))
    got = set(zip(out["event_id"].tolist(), out["iv_id"].tolist()))
    assert got == want


def test_write_tiles_cog_georeferenced(ray_session, tmp_path):
    """COG tile sink: z/x/y.tif decode back to the PNG canvas pixels and
    carry the exact EPSG:3857 tile-bounds geotransform; resume skips."""
    import numpy as np
    from georay.gtiff import tiff_decode
    from georay.mercator import tile_bounds_meters
    from georay.pipelines import tile_pipeline
    from georay.tiles import write_tiles_cog
    p = fx.write_images_parquet(str(tmp_path / "imgs"), 24,
                                rows_per_file=12)
    base = tile_pipeline(p, zoom=12)[12]
    out_dir = str(tmp_path / "cogtiles")
    status = write_tiles_cog(base, out_dir).take_all()
    written = [r for r in status if r["status"] == "written"]
    assert len(written) == len(status) > 0
    r = written[0]
    path = os.path.join(out_dir, str(r["z"]), str(r["tile_x"]),
                        f"{r['tile_y']}.tif")
    arr, meta = tiff_decode(open(path, "rb").read())
    assert arr.shape == (256, 256, 4)
    minx, miny, maxx, maxy = tile_bounds_meters(
        r["tile_x"], r["tile_y"], r["z"], 256)
    res = (maxx - minx) / 256
    assert np.allclose(meta["geotransform"],
                       (minx, res, 0.0, maxy, 0.0, -res))
    assert meta["crs"] == "EPSG:3857"
    base2 = tile_pipeline(p, zoom=12)[12]
    status2 = write_tiles_cog(base2, out_dir).take_all()
    assert all(s["status"] == "skipped" for s in status2)


def test_compare_images_and_info(ray_session):
    """gdalcompare/gdalinfo/ogrinfo analogs: injected pixel diff,
    one-side-only rows, per-format census, geometry census + extent."""
    import numpy as np
    import pyarrow as pa
    import ray
    from georay.codecs import encode_image
    from georay.compare import compare_images, info_images, info_vector
    from georay.geojson import geometry_to_wkb
    rng = np.random.default_rng(0)
    rows = []
    for i in range(12):
        arr = rng.integers(0, 255, (16, 20, 3), dtype=np.uint8)
        rows.append((i, encode_image(arr, "png"), arr))

    def tbl(rws):
        return pa.table({
            "image_id": pa.array([r[0] for r in rws]),
            "bytes": pa.array([r[1] for r in rws], pa.binary()),
            "w": pa.array([20] * len(rws)),
            "h": pa.array([16] * len(rws)),
            "fmt": pa.array(["png"] * len(rws))})

    g = ray.data.from_arrow(tbl(rows))
    rows2 = [r for r in rows if r[0] != 7]
    a3 = rows2[3][2].copy()
    a3[0, 0, 0] ^= 255
    rows2[3] = (rows2[3][0], encode_image(a3, "png"), a3)
    rows2.append((99, rows[0][1], rows[0][2]))
    n = ray.data.from_arrow(tbl(rows2))
    diff = compare_images(g, n).to_pandas().sort_values("image_id")
    assert diff.to_dict("records") == [
        {"image_id": 3, "issue": "pixels"},
        {"image_id": 7, "issue": "only_golden"},
        {"image_id": 99, "issue": "only_new"}]
    assert compare_images(g, g).to_pandas().empty
    info = info_images(g)
    assert info.to_dict("records")[0]["n"] == 12
    wkbs = [geometry_to_wkb({"type": "Point", "coordinates": [i, -i]})
            for i in range(5)]
    wkbs.append(geometry_to_wkb({
        "type": "Polygon",
        "coordinates": [[[0, 0], [4, 0], [4, 4], [0, 4], [0, 0]]]}))
    vds = ray.data.from_arrow(pa.table({
        "wkb": pa.array(wkbs, pa.binary())}))
    vinfo = info_vector(vds).sort_values("geom_type")
    recs = vinfo.to_dict("records")
    assert recs[0]["geom_type"] == "POINT" and recs[0]["n"] == 5
    assert recs[1]["geom_type"] == "POLYGON"
    assert recs[1]["maxx"] == 4.0 and recs[0]["miny"] == -4.0


def test_vector_pipeline_general_reproject(ray_session):
    """VectorPipeline.reproject: any named CRS to any other, routed
    through the warp path's dispatch — 4326 -> UTM 31N roundtrips and
    matches the direct kernels."""
    import numpy as np
    import pyarrow as pa
    import ray

    from georay.mercator import utm_forward
    from georay.ogr import VectorPipeline

    rng = np.random.default_rng(3)
    lon = rng.uniform(0, 6, 200)
    lat = rng.uniform(40, 55, 200)
    ds = ray.data.from_arrow(pa.table({"lon": pa.array(lon),
                                       "lat": pa.array(lat)}))
    out = (VectorPipeline.from_dataset(ds)
           .reproject("EPSG:4326", "EPSG:32631",
                      out_x="E", out_y="N")
           .ds.to_pandas())
    E, N = utm_forward(lat, lon, 31, north=True)
    np.testing.assert_allclose(np.sort(out["E"]), np.sort(E), atol=1e-6)
    np.testing.assert_allclose(np.sort(out["N"]), np.sort(N), atol=1e-6)
    # and back: UTM -> 4326 recovers the inputs
    ds2 = ray.data.from_arrow(pa.table({"E": pa.array(E), "N": pa.array(N)}))
    back = (VectorPipeline.from_dataset(ds2)
            .reproject("EPSG:32631", "EPSG:4326", x_col="E", y_col="N",
                       out_x="lon", out_y="lat").ds.to_pandas())
    np.testing.assert_allclose(np.sort(back["lon"]), np.sort(lon),
                               atol=1e-9)
    np.testing.assert_allclose(np.sort(back["lat"]), np.sort(lat),
                               atol=1e-9)


def test_asof_join_vectorized_parity(ray_session):
    """asof_join (hash-partitioned composite-searchsorted shape) matches
    a brute-force per-row reference on string keys, preserves integer
    dtypes, and applies the documented (key, ts) tie reduction."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray

    from georay.windows import asof_join

    rng = np.random.default_rng(11)
    nl, nr = 4000, 2500
    keys = [f"u{int(i):03d}" for i in range(40)]
    lk = rng.choice(keys, nl)
    lt = rng.integers(0, 100000, nl) * 1_000_000
    rk = rng.choice(keys, nr)
    rt = rng.integers(0, 100000, nr) * 1_000_000
    rid = rng.permutation(nr).astype(np.int64)
    left = pa.table({
        "user_id": pa.array(lk),
        "ts": pa.array(lt.astype("datetime64[us]")),
        "click_id": pa.array(np.arange(nl), pa.int64()),
    })
    right = pa.table({
        "user_id": pa.array(rk),
        "ts": pa.array(rt.astype("datetime64[us]")),
        "event_id": pa.array(rid, pa.int64()),
    })
    out = asof_join(ray.data.from_arrow(left), ray.data.from_arrow(right),
                    key_col="user_id", ts_col="ts",
                    right_cols=("event_id",)).to_pandas()
    assert out["event_id_right"].dtype == np.int64       # dtype preserved
    assert out["click_id"].dtype == np.int64
    # brute-force reference with the same tie rule (max event_id per
    # (key, ts) wins)
    rdf = pd.DataFrame({"k": rk, "t": rt, "id": rid})
    rdf = (rdf.sort_values(["k", "t", "id"])
           .drop_duplicates(["k", "t"], keep="last"))
    want = {}
    by_key = {k: g.sort_values("t") for k, g in rdf.groupby("k")}
    for i in range(nl):
        g = by_key.get(lk[i])
        if g is None:
            continue
        m = g[g["t"].to_numpy() <= lt[i]]
        if len(m):
            want[i] = int(m["id"].iloc[-1])
    got = dict(zip(out["click_id"], out["event_id_right"]))
    assert got == want and len(got) > 1000
