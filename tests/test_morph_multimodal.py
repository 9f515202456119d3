"""Sieve / proximity / fill-nodata kernels and their tiled operators."""

import numpy as np
import pytest

from georay import morph as M


def test_sieve_filter():
    band = np.zeros((12, 12), dtype=np.uint8)
    band[2:8, 2:8] = 5       # big region (36 px)
    band[4, 4] = 9           # 1-px speck inside it
    band[10, 10] = 7         # 1-px speck in background
    out = M.sieve_filter(band, threshold=4)
    assert out[4, 4] == 5    # speck merged into surrounding region
    assert out[10, 10] == 0  # speck merged into background
    assert (out[2:8, 2:8] == 5).all()
    # threshold larger than the mid region removes it too
    out2 = M.sieve_filter(band, threshold=40)
    assert (out2 == 0).all()


def test_proximity_exact_euclidean():
    mask = np.zeros((16, 16), dtype=bool)
    mask[4, 4] = True
    mask[12, 10] = True
    d = M.proximity(mask)
    yy, xx = np.meshgrid(np.arange(16), np.arange(16), indexing="ij")
    expect = np.minimum(np.hypot(yy - 4, xx - 4), np.hypot(yy - 12, xx - 10))
    assert np.allclose(d, expect)
    # max_dist clip + cellsize scale
    d2 = M.proximity(mask, cellsize=2.0, max_dist=5.0)
    assert d2.max() == 5.0
    assert d2[4, 6] == pytest.approx(4.0)


def test_fill_nodata():
    band = np.full((10, 10), 100.0)
    band[3:6, 3:6] = 0
    mask = np.zeros((10, 10), dtype=bool)
    mask[3:6, 3:6] = True
    out = M.fill_nodata(band, mask)
    assert np.allclose(out[mask], 100.0, atol=1e-9)  # flat field fills flat
    assert np.array_equal(out[~mask], band[~mask])
    # gradient field fills between the sides
    grad = np.tile(np.arange(10, dtype=np.float64), (10, 1)) * 10
    g2 = grad.copy(); g2[4, 4] = -1
    m2 = np.zeros((10, 10), bool); m2[4, 4] = True
    filled = M.fill_nodata(g2, m2)
    assert 20 < filled[4, 4] < 60


def test_proximity_tiles_matches_unsplit():
    """Cross-tile proximity (border-seed relax with nearest-site coords)
    equals the unsplit exact EDT — including tiles with NO local targets
    that depend entirely on multi-hop propagation."""
    import numpy as np
    from georay.morph import proximity, proximity_tiles
    from georay.polygonize import split_image_tiles
    # all targets concentrated in the top-left tile of a 3x3 grid
    mask = np.zeros((96, 96), dtype=bool)
    mask[5, 7] = mask[20, 12] = True
    ref = proximity(mask)
    tiles = {(ox, oy): t for ox, oy, t in split_image_tiles(mask, 32)}
    got = proximity_tiles(tiles)
    for (ox, oy), d in got.items():
        assert np.allclose(d, ref[oy:oy + 32, ox:ox + 32]), (ox, oy)
    # random scatter
    rng = np.random.default_rng(5)
    mask = rng.random((64, 48)) < 0.02
    ref = proximity(mask)
    tiles = {(ox, oy): t for ox, oy, t in split_image_tiles(mask, 16)}
    got = proximity_tiles(tiles)
    for (ox, oy), d in got.items():
        h, w = d.shape
        assert np.allclose(d, ref[oy:oy + h, ox:ox + w]), (ox, oy)


def test_sieve_tiles_matches_unsplit():
    import numpy as np
    from georay.morph import sieve_filter, sieve_tiles
    from georay.polygonize import split_image_tiles
    rng = np.random.default_rng(7)
    band = (rng.random((40, 56)) * 3).astype(np.uint8)
    ref = sieve_filter(band, 15)
    tiles = {(ox, oy): t for ox, oy, t in split_image_tiles(band, 20)}
    got = sieve_tiles(tiles, 15)
    for (ox, oy), t in got.items():
        h, w = t.shape
        assert np.array_equal(t, ref[oy:oy + h, ox:ox + w])


def _tiles_dataset(band, tile, dtype=None):
    import pyarrow as pa
    import ray
    from georay.polygonize import split_image_tiles
    rows = {"source_id": [], "ox": [], "oy": [], "h": [], "w": [],
            "band": []}
    for ox, oy, t in split_image_tiles(band, tile):
        rows["source_id"].append("img0")
        rows["ox"].append(ox); rows["oy"].append(oy)
        rows["h"].append(t.shape[0]); rows["w"].append(t.shape[1])
        rows["band"].append(np.ascontiguousarray(t).tobytes())
    return ray.data.from_arrow(pa.table({
        "source_id": pa.array(rows["source_id"], pa.string()),
        "ox": pa.array(rows["ox"], pa.int64()),
        "oy": pa.array(rows["oy"], pa.int64()),
        "h": pa.array(rows["h"], pa.int64()),
        "w": pa.array(rows["w"], pa.int64()),
        "band": pa.array(rows["band"], pa.binary()),
    }))


def _reassemble(df, col, dtype, shape):
    out = np.zeros(shape, dtype=dtype)
    for _, r in df.iterrows():
        t = np.frombuffer(r[col], dtype=dtype).reshape(r["h"], r["w"])
        out[r["oy"]:r["oy"] + r["h"], r["ox"]:r["ox"] + r["w"]] = t
    return out


def test_proximity_tiled_operator_matches_unsplit(ray_session):
    from georay.morph import proximity, proximity_tiled
    rng = np.random.default_rng(4)
    mask = (rng.random((48, 48)) < 0.01)
    mask[5, 7] = True  # ensure at least one site
    ds = _tiles_dataset(mask.astype(np.uint8), 24)
    out = proximity_tiled(ds).to_pandas()
    got = _reassemble(out, "dist", np.float64, mask.shape)
    want = proximity(mask)
    assert np.allclose(got, want)


def test_sieve_tiled_operator_matches_unsplit(ray_session):
    from georay.morph import sieve_filter, sieve_tiled
    rng = np.random.default_rng(5)
    band = (rng.random((48, 48)) < 0.4).astype(np.uint8) * 3
    ds = _tiles_dataset(band, 24)
    out = sieve_tiled(ds, 15).to_pandas()
    got = _reassemble(out, "band", np.uint8, band.shape)
    want = sieve_filter(band, 15)
    assert (got == want).all()


def test_sieve_tiled_pyramid_fallback(ray_session):
    # max_pixels below the band size forces the approximate pyramid path;
    # it must still run and return the full tile set
    from georay.morph import sieve_tiled
    rng = np.random.default_rng(6)
    band = (rng.random((48, 48)) < 0.4).astype(np.uint8) * 3
    ds = _tiles_dataset(band, 24)
    out = sieve_tiled(ds, 15, max_pixels=500).to_pandas()
    got = _reassemble(out, "band", np.uint8, band.shape)
    assert got.shape == band.shape
    assert set(np.unique(got)) <= {0, 3}


def test_fillnodata_tiled_matches_unsplit(ray_session):
    from georay.morph import fill_nodata, fillnodata_tiled
    rng = np.random.default_rng(7)
    band = rng.random((48, 48)) * 100.0 + 1.0  # valid values > 0
    holes = rng.random((48, 48)) < 0.1
    band[holes] = 0.0
    ds = _tiles_dataset(band, 24)
    out = fillnodata_tiled(ds, tile_size=24, max_search=6,
                           nodata=0.0).to_pandas()
    got = _reassemble(out, "band", np.float64, band.shape)
    want = fill_nodata(band, band == 0.0, max_search=6)
    assert np.allclose(got, want)


def test_dem_tiled_matches_unsplit(ray_session):
    """Distributed gdaldem: 4-tile halo path == unsplit kernel, exact,
    for every derivative mode (incl. the global-edge replicate rows)."""
    from georay.raster import _DEM_FUNCS, dem_tiled
    rng = np.random.default_rng(11)
    dem = np.cumsum(rng.standard_normal((48, 48)), axis=0) * 5.0 + 100.0
    for mode, kwargs in [("hillshade", {"xres": 2.0, "yres": 2.0}),
                         ("slope", {"xres": 2.0, "yres": 2.0}),
                         ("aspect", {}), ("tri", {}), ("tpi", {}),
                         ("roughness", {})]:
        ds = _tiles_dataset(dem, 24)
        out = dem_tiled(ds, mode, tile_size=24, **kwargs).to_pandas()
        dt = np.uint8 if mode == "hillshade" else np.float64
        got = _reassemble(out, "band", dt, dem.shape)
        want = _DEM_FUNCS[mode](dem, **kwargs)
        if mode == "hillshade":
            assert np.array_equal(got, want), mode
        else:
            assert np.allclose(got, want), mode


