"""Ray Data stage tests: decode, spatial join (broadcast +
partitioned + salted), kNN, tiling, checkpoint/resume.

Oracles are brute-force pure-numpy implementations (FIXTURES.md golden
oracles #2/#5/#6)."""

import numpy as np
import pyarrow as pa
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from georay import codecs, fixtures as fx
from georay.geom import PackedPolygons, haversine_m


@pytest.fixture(scope="module")
def images_path(tmp_path_factory):
    p = tmp_path_factory.mktemp("imgs")
    return fx.write_images_parquet(str(p / "images"), 120, rows_per_file=40)


@pytest.fixture(scope="module")
def polygons():
    return fx.polygons_table(120)


def test_decode_stage(ray_session, images_path):
    from georay.pipelines import georeferenced_images
    ds = georeferenced_images(images_path, decode=True)
    batch = next(iter(ds.iter_batches(batch_size=16, batch_format="pyarrow")))
    names = batch.schema.names
    for col in ("pixels", "lat", "lon", "hexcell", "s2cell", "ulx", "psize"):
        assert col in names
    # decoded pixels match the deterministic pattern (PNG rows exact)
    for row in range(batch.num_rows):
        i = int(batch["image_id"][row].as_py()[3:])
        w = batch["w"][row].as_py()
        h = batch["h"][row].as_py()
        arr = np.frombuffer(batch["pixels"][row].as_buffer(),
                            dtype=np.uint8).reshape(h, w, 3)
        src = fx.pattern(0 if i % 97 == 0 else i, w, h)
        if batch["fmt"][row].as_py() == "png":
            assert np.array_equal(arr, src)
        else:
            assert codecs.psnr(src, arr) >= 40.0


def _brute_join_pairs(images_path, polygons):
    import pyarrow.parquet as pq
    t = pq.read_table(images_path)
    idx = fx.parse_image_idx(t["image_id"].to_numpy(zero_copy_only=False))
    g = fx.georef(idx, t["w"].to_numpy(), t["h"].to_numpy())
    pp = PackedPolygons.from_wkb(polygons["wkb"].to_pylist())
    pt_i, pg_i = pp.contains_brute(g["lon"], g["lat"])
    ids = t["image_id"].to_numpy(zero_copy_only=False)
    pids = polygons["polygon_id"].to_numpy(zero_copy_only=False)
    return set(zip(ids[pt_i].tolist(), pids[pg_i].tolist()))


def test_broadcast_join_matches_brute_force(ray_session, images_path, polygons):
    from georay.pipelines import flagship_join
    out = flagship_join(images_path, polygons, zoom=12).take_all()
    got = {(r["image_id"], r["polygon_id"]) for r in out}
    assert got == _brute_join_pairs(images_path, polygons)
    assert len(got) > 0
    # joined rows carry polygon attrs + tile assignment
    r = out[0]
    for colname in ("category", "tile_x", "tile_y", "hexcell", "s2cell"):
        assert colname in r


@pytest.mark.parametrize("kw", [dict(cut=True), dict(verify=True)])
def test_flagship_stage_cut_and_verify_need_decode(polygons, kw):
    from georay.join import PolygonIndex
    from georay.pipelines import FlagshipStage
    with pytest.raises(ValueError, match="decode"):
        FlagshipStage(PolygonIndex.build(polygons), decode=False, **kw)


@pytest.mark.parametrize("zoom", [10, 12, 15])
def test_fused_checksums_match_cuttiles_fragments(polygons, zoom):
    """The fused stage and cut_tiles share one window planner: each fused
    (image, tile) checksum equals the prime-LUT checksum of cut_tiles' RGBA
    fragment for the same image and tile.  Zoom 10 has downsampled, 1:1
    and upsampled windows, zoom 12 upsampled and 1:1, zoom 15 upsampled
    only."""
    from georay.decode import add_georef, decode_images
    from georay.join import PolygonIndex
    from georay.pipelines import FlagshipStage
    from georay.stats import CHECKSUM_PRIMES
    from georay.tiles import cut_tiles
    t = fx.images_table(32)
    out = FlagshipStage(PolygonIndex.build(polygons), zoom=zoom,
                        decode=True, cut=True)(t)
    out = out.filter(out["frag_checksum"].is_valid())
    fused = {(r["image_id"], r["tile_x"], r["tile_y"]): r["frag_checksum"]
             for r in out.select(["image_id", "tile_x", "tile_y",
                                  "frag_checksum"]).to_pylist()}
    frags = cut_tiles(add_georef(decode_images(t)), zoom=zoom)
    lut = CHECKSUM_PRIMES[np.arange(256 * 256) % 11].reshape(256, 256)
    cut = {}
    for r in frags.to_pylist():
        rgba = np.frombuffer(r["frag"], np.uint8).reshape(256, 256, 4)
        cs = sum(int((rgba[:, :, c] % lut).sum()) for c in range(3))
        cut[(r["image_id"], r["tile_x"], r["tile_y"])] = cs & 0xFFFF
    assert len(fused) == out.num_rows >= t.num_rows
    assert fused == cut


@settings(max_examples=300, deadline=None)
@example(h=20, w=20, oh=256, ow=256, wy=0, wx=0, seed=0)
@example(h=64, w=1, oh=65, ow=255, wy=191, wx=1, seed=1)
@example(h=37, w=53, oh=37, ow=53, wy=219, wx=3, seed=2)
@example(h=64, w=64, oh=25, ow=64, wy=0, wx=192, seed=3)
@given(h=st.integers(1, 64), w=st.integers(1, 64), oh=st.integers(1, 256),
       ow=st.integers(1, 256), wy=st.integers(0, 255), wx=st.integers(0, 255),
       seed=st.integers(0, 2**32 - 1))
def test_fragment_checksum_closed_form_matches_materialized(h, w, oh, ow, wy,
                                                             wx, seed):
    """The compiled fragment checksum (``tiles.fragment_sums``, summed
    straight from the source window) equals the checksum of the
    materialized ``resample_average`` fragment against the prime LUT, for
    any window and destination size and offset: upsampled (nearest, e.g.
    20 → 256), 1:1 and downsampled."""
    from georay.stats import CHECKSUM_PRIMES
    from georay.tiles import fragment_sums, resample_average
    oh, ow = min(oh, 256 - wy), min(ow, 256 - wx)
    win = np.random.default_rng(seed).integers(0, 256, (h, w, 3), np.uint8)
    lut = CHECKSUM_PRIMES[np.arange(256 * 256) % 11].reshape(256, 256)
    scaled = resample_average(win, oh, ow)
    want = int((scaled % lut[wy:wy + oh, wx:wx + ow, None]).sum()) & 0xFFFF
    plan = np.array([[0, 0, 0, 0, 0, w, h, wx, wy, ow, oh]])
    assert fragment_sums(win, plan).tolist() == [want]


def _plan_by_loop(w, h, ulx, uly, ps, z, ts=256):
    """The reference planner: gdal2tiles' per-tile loop, one
    ``tile_bounds_meters`` + ``geo_query`` per tile."""
    from georay.mercator import (geo_query, tile_bounds_meters,
                                 tile_range_for_extent, tms_to_xyz_y)
    rows = []
    for i in range(len(w)):
        gt = (ulx[i], ps[i], 0.0, uly[i], 0.0, -ps[i])
        tminx, tminy, tmaxx, tmaxy = tile_range_for_extent(
            ulx[i], uly[i] - h[i] * ps[i], ulx[i] + w[i] * ps[i], uly[i],
            z, ts)
        for ty in range(tminy, tmaxy + 1):
            for tx in range(tminx, tmaxx + 1):
                b = tile_bounds_meters(tx, ty, z, ts)
                (rx, ry, rxs, rys), (wx, wy, wxs, wys) = geo_query(
                    gt, w[i], h[i], b[0], b[3], b[2], b[1], querysize=ts)
                if min(rxs, rys, wxs, wys) > 0:
                    rows.append([i, tx, int(tms_to_xyz_y(ty, z)), rx, ry,
                                 rxs, rys, wx, wy, wxs, wys])
    return rows


@st.composite
def _georef_images(draw):
    """A zoom and 1-3 images: sizes from 1 px, pixel sizes from 1/8 to 8
    zoom pixels (exactly 1 included), each edge either free or a whole
    number of pixels off a tile edge (exactly on one included), and
    positions up to past the world's edges."""
    from georay.mercator import ORIGIN_SHIFT, resolution, tile_bounds_meters
    z = draw(st.integers(0, 20))
    res = float(resolution(z))
    n = 1 << z
    imgs = []
    for _ in range(draw(st.integers(1, 3))):
        w, h = draw(st.integers(1, 300)), draw(st.integers(1, 300))
        ps = res * draw(st.sampled_from([1.0, 0.5, 2.0, 0.125, 8.0])
                        | st.floats(0.125, 8.0))
        # keep the reference loop small: at most ~40 tiles per axis
        assume(max(w, h) * ps <= 40 * 256 * res)
        edges = []
        for axis in (0, 1):
            t = draw(st.integers(-2, n + 1))
            edge = float(tile_bounds_meters(t, t, z)[3 * axis])
            off = draw(st.integers(-3, 3))
            free = draw(st.floats(-1.02 * ORIGIN_SHIFT, 1.02 * ORIGIN_SHIFT))
            edges.append(draw(st.sampled_from([edge + off * ps, free])))
        imgs.append((w, h, edges[0], edges[1], ps))
    return z, imgs


@settings(max_examples=400, deadline=None)
@given(case=_georef_images())
def test_plan_tiles_matches_per_tile_geo_query(case):
    """The batch planner gives gdal2tiles' per-tile loop row for row:
    same tiles, order and windows, ``geo_query``'s ``+0.001``/``+0.5``
    rounding, negative read offsets, over-raster clamps and zero-coverage
    skips included, at zoom 0-20 and at the world's edges."""
    from georay.tiles import plan_tiles
    z, imgs = case
    w, h, ulx, uly, ps = (list(c) for c in zip(*imgs))
    got = plan_tiles(np.array(w, np.int32), np.array(h, np.int32),
                     np.array(ulx), np.array(uly), np.array(ps), z)
    assert got.dtype == np.int64 and got.shape[1] == 11
    assert got.tolist() == _plan_by_loop(w, h, ulx, uly, ps, z)


def test_fused_cut_follows_pixels_that_disagree_with_metadata(polygons):
    """A row whose ``w``/``h`` columns disagree with its decoded pixels is
    planned from the columns and cut as slicing the decoded image gives:
    each window clipped to the pixels and an empty one dropped, so the
    bounds-checked compiled pass never reads outside the image."""
    from georay.decode import add_georef, decoded_rows
    from georay.join import PolygonIndex
    from georay.pipelines import FlagshipStage
    from georay.stats import CHECKSUM_PRIMES
    from georay.tiles import resample_average
    t = fx.images_table(8)
    w, h = t["w"].to_numpy().copy(), t["h"].to_numpy().copy()
    w[1] += 40
    h[1] += 40
    h[3] += 300
    w[5] = max(1, w[5] - 3)
    for name, vals in (("w", w), ("h", h)):
        t = t.set_column(t.schema.get_field_index(name), name,
                         pa.array(vals, t.schema.field(name).type))
    out = FlagshipStage(PolygonIndex.build(polygons), zoom=12, decode=True,
                        cut=True)(t)
    out = out.filter(out["frag_checksum"].is_valid())
    got = {(r["image_id"], r["tile_x"], r["tile_y"]): r["frag_checksum"]
           for r in out.to_pylist()}
    g = add_georef(t)
    lut = CHECKSUM_PRIMES[np.arange(256 * 256) % 11].reshape(256, 256)
    want = {}
    for i, (arr, _) in enumerate(decoded_rows(t)):
        for _, tx, ty, rx, ry, rxs, rys, wx, wy, ow, oh in _plan_by_loop(
                [int(w[i])], [int(h[i])], [g["ulx"][i].as_py()],
                [g["uly"][i].as_py()], [g["psize"][i].as_py()], 12):
            win = arr[ry:ry + rys, rx:rx + rxs]
            if win.size:
                frag = resample_average(win, oh, ow)
                want[(g["image_id"][i].as_py(), tx, ty)] = int(
                    (frag % lut[wy:wy + oh, wx:wx + ow, None]).sum()) \
                    & 0xFFFF
    assert got == want


def _box_means_four_calls(integ, oh, ow):
    """The fractional box means of ``resample_average`` and
    ``resample_rms`` as they were: the bilinear integral-image sample
    taken four times, once per shifted edge grid."""
    h, w = integ.shape[0] - 1, integ.shape[1] - 1

    def at(yy, xx):
        yi = np.clip(np.floor(yy).astype(np.int64), 0, h - 1)
        xi = np.clip(np.floor(xx).astype(np.int64), 0, w - 1)
        fy = (yy - yi)[:, None, None]
        fx = (xx - xi)[None, :, None]
        return (integ[yi][:, xi] * (1 - fy) * (1 - fx)
                + integ[yi][:, xi + 1] * (1 - fy) * fx
                + integ[yi + 1][:, xi] * fy * (1 - fx)
                + integ[yi + 1][:, xi + 1] * fy * fx)

    ye = np.linspace(0, h, oh + 1)
    xe = np.linspace(0, w, ow + 1)
    sums = (at(ye[1:], xe[1:]) - at(ye[:-1], xe[1:])
            - at(ye[1:], xe[:-1]) + at(ye[:-1], xe[:-1]))
    area = ((ye[1:] - ye[:-1])[:, None]
            * (xe[1:] - xe[:-1])[None, :])[:, :, None]
    return sums / area


@settings(max_examples=300, deadline=None)
@example(h=256, w=256, oh=100, ow=37, bands=3, seed=0)
@given(h=st.integers(1, 96), w=st.integers(1, 96), oh=st.integers(1, 96),
       ow=st.integers(1, 96), bands=st.sampled_from([0, 1, 3]),
       seed=st.integers(0, 2**32 - 1))
def test_resample_average_matches_four_corner_form(h, w, oh, ow, bands,
                                                   seed):
    """``resample_average`` and ``resample_rms`` sample the integral image
    once on the full edge grid; their outputs are bit-identical to the
    four-call form, on gray, 1-band and RGB sources and any fractional
    downsampling."""
    from georay.tiles import resample_average, resample_rms
    oh, ow = min(oh, h), min(ow, w)
    assume(h % oh or w % ow)
    shape = (h, w) if bands == 0 else (h, w, bands)
    src = np.random.default_rng(seed).integers(0, 256, shape, np.uint8)
    a = src if src.ndim == 3 else src[:, :, None]
    # resample_average's integral image is int32 at these sizes
    integ = np.zeros((h + 1, w + 1, a.shape[2]), np.int32)
    integ[1:, 1:] = a.cumsum(axis=0, dtype=np.int32).cumsum(axis=1)
    sq = a.astype(np.float64) ** 2
    integ_sq = np.zeros((h + 1, w + 1, a.shape[2]))
    integ_sq[1:, 1:] = sq.cumsum(axis=0).cumsum(axis=1)
    for got, means in (
            (resample_average(src, oh, ow),
             _box_means_four_calls(integ, oh, ow)),
            (resample_rms(src, oh, ow),
             np.sqrt(_box_means_four_calls(integ_sq, oh, ow)))):
        want = np.clip(np.rint(means), 0, 255).astype(np.uint8)
        assert np.array_equal(got, want if src.ndim == 3 else want[:, :, 0])


def test_decode_images_names_the_bad_row(polygons):
    """``decode_images`` raises ValueError naming a truncated row's
    ``image_id`` and ``fmt`` (a truncated JPEG and a truncated PNG), while
    the fused stage's decode over the same batch flags exactly those two
    rows."""
    import re

    from georay.decode import add_georef, decode_images
    from georay.join import PolygonIndex
    from georay.pipelines import FlagshipStage
    t = fx.images_table(32)
    rows = t.to_pylist()
    bad = {fmt: next(i for i, r in enumerate(rows) if r["fmt"] == fmt)
           for fmt in ("jpeg", "png")}
    data = t["bytes"].to_pylist()
    for i in bad.values():
        data[i] = data[i][:len(data[i]) // 2]
    broken = t.set_column(t.schema.get_field_index("bytes"), "bytes",
                          pa.array(data, t.schema.field("bytes").type))
    for fmt, i in bad.items():
        name = re.escape(f"{rows[i]['image_id']!r} ({fmt})")
        with pytest.raises(ValueError, match=name):
            decode_images(broken.slice(i, 1))
    first = min(bad.values())
    with pytest.raises(ValueError,
                       match=re.escape(repr(rows[first]["image_id"]))):
        decode_images(broken)
    stage = FlagshipStage(PolygonIndex.build(polygons), decode=True,
                          cut=True, verify=True)
    decode_ok, phash_ok, (frag_rows, _, _, _) = stage._decode_rows(
        add_georef(broken))
    assert set(np.flatnonzero(~decode_ok)) == set(bad.values())
    assert set(np.flatnonzero(~phash_ok)) == set(bad.values())
    assert not set(frag_rows) & set(bad.values())


def test_wide_and_alpha_pngs_are_flagged(polygons):
    """A 16-bit RGB PNG row and an RGBA PNG row decode, but not to uint8
    gray or RGB: ``decode_images`` raises naming the first one's
    ``image_id``, the fused stage flags exactly those two rows, and every
    other row's phash check and fragments are those of the intact batch."""
    import re
    import struct
    import zlib

    from georay.codecs import _PNG_SIG, _chunk, png_encode
    from georay.decode import add_georef, decode_images
    from georay.join import PolygonIndex
    from georay.pipelines import FlagshipStage
    t = fx.images_table(32)
    rows = t.to_pylist()
    wide, alpha = [i for i, r in enumerate(rows) if r["fmt"] == "png"][:2]
    rng = np.random.default_rng(5)
    h, w = rows[wide]["h"], rows[wide]["w"]
    a16 = rng.integers(0, 65536, (h, w, 3)).astype(">u2")
    raw16 = np.zeros((h, 1 + 6 * w), np.uint8)
    raw16[:, 1:] = a16.reshape(h, -1).view(np.uint8)
    data = t["bytes"].to_pylist()
    data[wide] = (_PNG_SIG + _chunk(b"IHDR", struct.pack(
        ">IIBBBBB", w, h, 16, 2, 0, 0, 0))
        + _chunk(b"IDAT", zlib.compress(raw16.tobytes()))
        + _chunk(b"IEND", b""))
    data[alpha] = png_encode(rng.integers(
        0, 256, (rows[alpha]["h"], rows[alpha]["w"], 4), dtype=np.uint8))
    broken = t.set_column(t.schema.get_field_index("bytes"), "bytes",
                          pa.array(data, t.schema.field("bytes").type))
    with pytest.raises(ValueError, match=re.escape(
            f"{rows[wide]['image_id']!r} (png)") + ".*uint16"):
        decode_images(broken)
    stage = FlagshipStage(PolygonIndex.build(polygons), decode=True,
                          cut=True, verify=True)
    decode_ok, phash_ok, frags = stage._decode_rows(add_georef(broken))
    ref_ok, ref_phash, ref_frags = stage._decode_rows(add_georef(t))
    bad = [wide, alpha]
    assert set(np.flatnonzero(~decode_ok)) == set(bad)
    assert set(np.flatnonzero(~phash_ok)) == set(bad)
    assert ref_ok.all()
    others = np.delete(np.arange(len(rows)), bad)
    assert np.array_equal(phash_ok[others], ref_phash[others])
    keep = ~np.isin(ref_frags[0], bad)
    assert not np.isin(frags[0], bad).any()
    for got, want in zip(frags, ref_frags):
        assert np.array_equal(got, want[keep])


def test_flagship_bad_rows_are_flagged_not_fatal(ray_session, polygons,
                                                 tmp_path):
    """A truncated JPEG row and a truncated PNG row get decode_ok=False,
    phash_ok=False and no fragment rows, keep their join rows, and leave
    every other row's output as it is without them."""
    import pyarrow.compute as pc
    import pyarrow.parquet as pq
    from georay.pipelines import flagship_join

    def run(table, name, **kw):
        path = str(tmp_path / f"{name}.parquet")
        pq.write_table(table, path)
        return pa.Table.from_pandas(
            flagship_join(path, polygons, zoom=12, **kw).to_pandas(),
            preserve_index=False)

    t = fx.images_table(120)
    joined = set(run(t, "meta")["image_id"].to_pylist())
    rows = t.to_pylist()
    bad = {fmt: next(i for i, r in enumerate(rows)
                     if r["fmt"] == fmt and r["image_id"] in joined)
           for fmt in ("jpeg", "png")}
    bad_ids = {rows[i]["image_id"] for i in bad.values()}
    data = t["bytes"].to_pylist()
    for i in bad.values():
        data[i] = data[i][:len(data[i]) // 2]
    broken = t.set_column(t.schema.get_field_index("bytes"), "bytes",
                          pa.array(data, t.schema.field("bytes").type))
    keep = pa.array([r["image_id"] not in bad_ids for r in rows])
    full = dict(decode=True, cut=True, verify=True)
    got = run(broken, "broken", **full)
    ref = run(t.filter(keep), "ref", **full)
    is_bad = pc.is_in(got["image_id"], pa.array(sorted(bad_ids)))
    mine = got.filter(is_bad)
    assert set(mine["image_id"].to_pylist()) == bad_ids
    assert not any(mine["decode_ok"].to_pylist())
    assert not any(mine["phash_ok"].to_pylist())
    assert mine["frag_checksum"].null_count == mine.num_rows
    meta = run(broken, "broken_meta")
    want = meta.filter(pc.is_in(meta["image_id"], pa.array(sorted(bad_ids))))
    key = ["image_id", "polygon_id", "tile_x", "tile_y"]
    assert (sorted(map(tuple, mine.select(key).to_pylist()))
            == sorted(map(tuple, want.select(key).to_pylist())))
    rest = got.filter(pc.invert(is_bad)).to_pandas()
    ref = ref.to_pandas()
    assert rest["decode_ok"].all() and rest["phash_ok"].all()
    cols = sorted(ref.columns)
    import pandas as pd
    pd.testing.assert_frame_equal(
        rest[cols].sort_values(cols, na_position="first")
        .reset_index(drop=True),
        ref[cols].sort_values(cols, na_position="first")
        .reset_index(drop=True))


def test_partitioned_join_matches_broadcast(ray_session, images_path, polygons):
    from georay.join import spatial_join_partitioned
    from georay.pipelines import georeferenced_images
    ds = georeferenced_images(images_path, decode=False)
    out = spatial_join_partitioned(
        ds, polygons, res=5,
        keep_cols=["image_id", "lat", "lon"]).take_all()
    got = {(r["image_id"], r["polygon_id"]) for r in out}
    assert got == _brute_join_pairs(images_path, polygons)


def test_partitioned_join_salted_same_result(ray_session, images_path, polygons):
    from georay.join import spatial_join_partitioned
    from georay.pipelines import georeferenced_images
    ds = georeferenced_images(images_path, decode=False)
    out = spatial_join_partitioned(
        ds, polygons, res=5, salt_threshold=10,
        keep_cols=["image_id", "lat", "lon"]).take_all()
    got = {(r["image_id"], r["polygon_id"]) for r in out}
    assert got == _brute_join_pairs(images_path, polygons)


def _census_blocks():
    """Four overlapping slices of one hotspot point table: every block
    holds cells the others hold too, so the combine really sums."""
    pts = fx.points_table(600)
    return [pts.slice(0, 400), pts.slice(200, 400), pts.slice(100, 300), pts]


def test_cell_census_counts(ray_session, images_path):
    # one test id over both grids (a parametrize would rename the id)
    import ray
    from georay.join import _grid_cell_fn, cell_census
    from georay.pipelines import georeferenced_images
    ds = georeferenced_images(images_path, decode=False)
    rows = cell_census(ds, res=5).take_all()
    assert sum(r["n"] for r in rows) == 120
    blocks = _census_blocks()
    lat = np.concatenate([b["lat"].to_numpy() for b in blocks])
    lon = np.concatenate([b["lon"].to_numpy() for b in blocks])
    for grid in ("hex", "icosa"):
        cell_fn = _grid_cell_fn(grid)
        shared = set(np.unique(cell_fn(blocks[0]["lat"].to_numpy(),
                                       blocks[0]["lon"].to_numpy(), 5)))
        for b in blocks[1:]:
            shared &= set(np.unique(cell_fn(b["lat"].to_numpy(),
                                            b["lon"].to_numpy(), 5)))
        assert shared, grid
        want_cells, want_n = np.unique(cell_fn(lat, lon, 5),
                                       return_counts=True)
        census = cell_census(ray.data.from_arrow(blocks), res=5, grid=grid)
        got = pa.concat_tables(
            [t for t in ray.get(census.to_arrow_refs()) if t.num_rows])
        assert got.schema.field("n").type == pa.int64(), grid
        np.testing.assert_array_equal(got["hexcell"].to_numpy(), want_cells)
        np.testing.assert_array_equal(got["n"].to_numpy(), want_n)
        empty = ray.data.from_arrow(blocks[0].slice(0, 0))
        assert cell_census(empty, res=5, grid=grid).take_all() == [], grid


def test_cell_census_runs_without_shuffle(ray_session):
    """The census sums per-block partials in one combine task: its plan
    holds no Sort, Aggregate or hash-shuffle operator."""
    import ray
    from georay.join import cell_census
    census = cell_census(ray.data.from_arrow(_census_blocks()),
                         res=5).materialize()
    stats = census.stats()
    for op in ("Sort", "Aggregate", "Shuffle"):
        assert op not in stats, op
    assert "MapBatches(combine)" in stats


def test_polygon_cell_cover_matches_per_polygon_sweep(polygons):
    """The one-sweep cover equals a per-polygon ``np.arange`` sweep,
    array for array, on the fixture polygons and on boxes that straddle
    the origin and the antimeridian."""
    from georay.cells import hex_cell_from_meters, hex_circumradius
    from georay.join import _polygon_cell_cover
    from georay.mercator import latlon_to_meters

    def per_polygon(t, res):
        R = float(hex_circumradius(res))
        pidx, cover = [], []
        for i in range(t.num_rows):
            x0, y0 = latlon_to_meters(t["miny"][i].as_py(),
                                      t["minx"][i].as_py())
            x1, y1 = latlon_to_meters(t["maxy"][i].as_py(),
                                      t["maxx"][i].as_py())
            xs = np.arange(float(x0) - 2 * R, float(x1) + 2 * R, R)
            ys = np.arange(float(y0) - 2 * R, float(y1) + 2 * R, R)
            gx, gy = np.meshgrid(xs, ys)
            cells = np.unique(hex_cell_from_meters(gx.ravel(), gy.ravel(),
                                                   res))
            cover.append(cells)
            pidx.append(np.full(cells.shape, i, dtype=np.int64))
        return np.concatenate(pidx), np.concatenate(cover)

    boxes = pa.table({"minx": [-0.3, 179.2, -180.0, 10.0],
                      "miny": [-0.2, -5.0, -80.0, 60.0],
                      "maxx": [0.4, 180.0, -170.5, 10.0],
                      "maxy": [0.1, 5.0, -60.0, 60.0]})
    for t, res in ((polygons, 6), (polygons, 9), (boxes, 3), (boxes, 7)):
        want = per_polygon(t, res)
        got = _polygon_cell_cover(t, res)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype
            np.testing.assert_array_equal(g, w)


def test_salt_fanout_matches_dict_lookup():
    from georay.join import _salt_fanout, salt_map
    rng = np.random.default_rng(3)
    cells = rng.integers(-50, 50, 2000).astype(np.int64) * 1_000_003
    uniq, n = np.unique(cells, return_counts=True)
    for threshold in (10, 25, 10_000):
        salts = salt_map(pa.table({"hexcell": uniq, "n": n}), threshold)
        hot = np.array(sorted(salts), dtype=np.int64)
        fan = np.array([salts[c] for c in hot], dtype=np.int64)
        want = np.array([salts.get(int(c), 1) for c in cells])
        np.testing.assert_array_equal(_salt_fanout(cells, hot, fan), want)
        assert (threshold == 10_000) == (not salts)


def test_knn_matches_brute_force(ray_session):
    import ray
    from georay.knn import knn_points
    qt = fx.points_table(150)
    nbr = fx.points_table(400)  # same generator, different slice is fine
    neighbors = pa.table({
        "nid": pa.array([f"n{i:05d}" for i in range(400)]),
        "lat": nbr["lat"], "lon": nbr["lon"]})
    qds = ray.data.from_arrow(qt)
    out = knn_points(qds, neighbors, k=5, id_col="nid",
                     keep_cols=["point_id"], res=8,
                     neighbor_id_name="nid").take_all()
    got = {}
    for r in out:
        got.setdefault(r["point_id"], []).append((r["rank"], r["nid"]))
    # brute force oracle
    qlat, qlon = qt["lat"].to_numpy(), qt["lon"].to_numpy()
    nlat, nlon = neighbors["lat"].to_numpy(), neighbors["lon"].to_numpy()
    nid = neighbors["nid"].to_numpy(zero_copy_only=False)
    for qi in range(150):
        d = haversine_m(qlat[qi], qlon[qi], nlat, nlon)
        order = np.lexsort((nid, d))[:5]
        expect = [(rk, nid[j]) for rk, j in enumerate(order)]
        pid = qt["point_id"][qi].as_py()
        assert sorted(got[pid]) == expect, pid
    assert len(got) == 150


@pytest.fixture(scope="module")
def small_images_path(tmp_path_factory):
    p = tmp_path_factory.mktemp("imgs_small")
    return fx.write_images_parquet(str(p / "images"), 40, rows_per_file=20)


def test_tile_pipeline_and_pyramid(ray_session, small_images_path):
    images_path = small_images_path
    from georay.mercator import latlon_to_tile_xyz
    from georay.pipelines import tile_pipeline
    import pyarrow.parquet as pq
    levels = tile_pipeline(images_path, zoom=12, tminz=10)
    base = levels[12].take_all()
    assert len(base) > 0
    # every image's center tile must exist among base tiles
    t = pq.read_table(images_path)
    idx = fx.parse_image_idx(t["image_id"].to_numpy(zero_copy_only=False))
    g = fx.georef(idx, t["w"].to_numpy(), t["h"].to_numpy())
    tx, ty = latlon_to_tile_xyz(g["lat"], g["lon"], 12)
    have = {(r["tile_x"], r["tile_y"]) for r in base}
    for i in range(len(idx)):
        assert (int(tx[i]), int(ty[i])) in have
    # tiles are 256x256 RGBA with sane checksums
    r0 = base[0]
    assert len(r0["tile"]) == 256 * 256 * 4
    assert 0 <= r0["checksum_r"] <= 0xFFFF
    # overview levels shrink and stay aligned
    lvl11 = levels[11].take_all()
    lvl10 = levels[10].take_all()
    assert 0 < len(lvl10) <= len(lvl11) <= len(base)
    keys11 = {(r["tile_x"], r["tile_y"]) for r in lvl11}
    assert {(r["tile_x"] >> 1, r["tile_y"] >> 1) for r in base} == keys11
    assert all(r["z"] == 11 for r in lvl11)
    # checksum oracle (golden oracle #4: GDAL checksum formula)
    from georay.stats import gdal_checksum
    r0 = base[0]
    canvas = np.frombuffer(r0["tile"], dtype=np.uint8).reshape(256, 256, 4)
    assert r0["checksum_r"] == gdal_checksum(canvas[:, :, 0])
    assert r0["checksum_b"] == gdal_checksum(canvas[:, :, 2])


def test_partial_composite_equals_direct():
    """Two-level composite (within-block combiner + merge) must equal the
    single map_groups composite bit-for-bit, including overlap order."""
    import pyarrow as pa
    from georay.tiles import (composite_tile_group, merge_composite_group,
                              partial_composite_batch)
    rng = np.random.default_rng(9)
    ts = 256
    frags, ids = [], []
    for k in range(5):
        frag = np.zeros((ts, ts, 4), dtype=np.uint8)
        x0, y0 = rng.integers(0, 128, 2)
        w, h = rng.integers(64, 128, 2)
        frag[y0:y0 + h, x0:x0 + w, :3] = rng.integers(1, 255, (h, w, 3))
        frag[y0:y0 + h, x0:x0 + w, 3] = 255
        frags.append(frag.tobytes())
        ids.append(f"img_{rng.integers(0, 10**6):06d}_{k}")
    t = pa.table({
        "z": pa.array([12] * 5, pa.int64()),
        "tile_x": pa.array([100] * 5, pa.int64()),
        "tile_y": pa.array([200] * 5, pa.int64()),
        "image_id": pa.array(ids, pa.string()),
        "frag": pa.array(frags, pa.binary()),
    })
    direct = composite_tile_group(t)
    # split into two "blocks" in an order that differs from id order
    parts = pa.concat_tables([partial_composite_batch(t.slice(0, 2)),
                              partial_composite_batch(t.slice(2, 3))])
    merged = merge_composite_group(parts)
    assert merged["tile"][0].as_py() == direct["tile"][0].as_py()
    assert merged["n_frags"][0].as_py() == direct["n_frags"][0].as_py()
    for c in ("checksum_r", "checksum_g", "checksum_b"):
        assert merged[c][0].as_py() == direct[c][0].as_py()


def test_checkpoint_resume(ray_session, images_path, tmp_path):
    import ray
    from georay.checkpoint import (committed_keys, load_manifest,
                                   resume_filter, write_partitioned)
    from georay.pipelines import georeferenced_images
    out_dir = str(tmp_path / "out")
    ds = georeferenced_images(images_path, decode=False)
    ds = ds.map_batches(
        lambda b: b.append_column(
            "part", pa.array((fx.parse_image_idx(
                b["image_id"].to_numpy(zero_copy_only=False)) % 7))),
        batch_format="pyarrow").select_columns(["image_id", "part", "lat"])
    status = write_partitioned(ds, out_dir, ["part"],
                               lineage_cols=["image_id"]).take_all()
    assert sum(r["rows"] for r in status) == 120
    assert committed_keys(out_dir) == {str(i) for i in range(7)}
    man = load_manifest(out_dir)
    assert man["3"]["row_count"] > 0 and "image_id" in man["3"]["key_ranges"]
    # simulate a partial run: delete some manifests, resume must redo ONLY those
    import os
    for k in ("0", "1"):
        os.remove(os.path.join(out_dir, "_manifest", f"{k}.json"))
    remaining = resume_filter(ds, out_dir, ["part"])
    status2 = write_partitioned(remaining, out_dir, ["part"]).take_all()
    assert {r["partition_key"] for r in status2} == {"0", "1"}
    assert all(r["status"] == "written" for r in status2)
    # total output rows across partitions unchanged (no dup partitions)
    import pyarrow.parquet as pq
    total = sum(pq.read_table(os.path.join(out_dir, f))
                .num_rows for f in os.listdir(out_dir)
                if f.endswith(".parquet"))
    assert total == 120


def test_flagship_checkpointed_resume(ray_session, images_path, tmp_path):
    import os
    import pyarrow.parquet as pq
    from georay.checkpoint import committed_keys, load_manifest
    from georay.pipelines import flagship_checkpointed
    out_dir = str(tmp_path / "ckpt")
    status = flagship_checkpointed(images_path, out_dir, zoom=12).take_all()
    total = sum(r["rows"] for r in status)
    keys = committed_keys(out_dir)
    assert total > 0 and len(keys) == len(status)
    man = load_manifest(out_dir)
    any_rec = next(iter(man.values()))
    assert "image_id" in any_rec["key_ranges"]  # lineage recorded
    # simulate a kill: drop half the manifests, rerun → only those redo
    victims = sorted(keys)[: len(keys) // 2]
    for k in victims:
        os.remove(os.path.join(out_dir, "_manifest", f"{k}.json"))
    status2 = flagship_checkpointed(images_path, out_dir, zoom=12).take_all()
    assert {r["partition_key"] for r in status2} == set(victims)
    assert all(r["status"] == "written" for r in status2)
    # final output complete, no duplicated partitions
    files = [f for f in os.listdir(out_dir) if f.endswith(".parquet")]
    assert len(files) == len(keys)
    rows = sum(pq.read_table(os.path.join(out_dir, f)).num_rows
               for f in files)
    assert rows == total


def test_raster_pipeline_step_api(ray_session, images_path):
    """RasterPipeline (the `gdal raster pipeline` analog) composes the
    vetted stages: read ! where ! decode ! translate ! dem ! write."""
    import numpy as np

    from georay.rasterpipe import RasterPipeline

    base = RasterPipeline.read_parquet(images_path).dataset()
    pipe = (RasterPipeline.from_dataset(base)
            .where("w >= 64")
            .decode()
            .translate(outsize=(64, 64), resampling="bilinear")
            .dem("hillshade"))
    df = pipe.dataset().to_pandas()
    assert len(df) > 0
    assert (df["w"] == 64).all()
    # stats terminal: Welford reduction over band 0
    st = (RasterPipeline.from_dataset(base).decode().stats())
    assert st.count > 0
    assert 0 <= st.min <= st.max <= 255
    # calc step emits the reduction column
    got = (RasterPipeline.from_dataset(base).decode()
           .calc("A * 2", out_col="dbl").dataset().to_pandas())
    assert "dbl" in got.columns
    assert (got["dbl"] >= 0).all()


def test_raster_attribute_table(ray_session, images_path):
    """RAT build (distributed per-value census, bincount partials) +
    apply (LUT classify) — gcore/gdal_rat.h analog."""
    import numpy as np
    import pyarrow as pa

    from georay.rasterpipe import RasterPipeline
    from georay.rat import apply_rat, rat_from_images, rat_lut

    ds = RasterPipeline.read_parquet(images_path).decode().dataset()
    rat = rat_from_images(ds)
    # census sums to total band-0 pixels and only lists occurring values
    df = ds.to_pandas()
    total_px = int((df["w"].astype(np.int64) * df["h"]).sum())
    assert int(rat["pixel_count"].to_numpy().sum()) == total_px
    assert (rat["pixel_count"].to_numpy() > 0).all()
    # exact parity with a direct numpy census
    counts = np.zeros(256, np.int64)
    for _, r in df.iterrows():
        band = np.frombuffer(r["pixels"], np.uint8).reshape(
            r["h"], r["w"], -1)[:, :, 0]
        counts += np.bincount(band.ravel(), minlength=256)
    nz = np.flatnonzero(counts)
    assert rat["value"].to_pylist() == nz.tolist()
    assert rat["pixel_count"].to_pylist() == counts[nz].tolist()
    # apply: threshold attribute classifies every pixel through the LUT
    rat2 = rat.append_column(
        "cls", pa.array((rat["value"].to_numpy() >= 128).astype(np.uint8)))
    out = apply_rat(ds, rat2, "cls").to_pandas().iloc[0]
    band = np.frombuffer(out["pixels"], np.uint8).reshape(
        out["h"], out["w"], -1)[:, :, 0]
    cls = np.frombuffer(out["class_pixels"], np.uint8).reshape(band.shape)
    assert ((band >= 128).astype(np.uint8) == cls).all()
    # LUT shape contract
    assert rat_lut(rat2, "cls").shape == (256,)


def test_broadcast_equi_join_matches_shuffle(ray_session):
    """Size-adaptive broadcast equi-join == the hash-shuffle plan on the
    same inputs, inner and left_outer, with duplicate right keys."""
    import numpy as np
    import pyarrow as pa
    import ray

    from georay.join import equi_join

    rng = np.random.default_rng(0)
    left = pa.table({"k": pa.array(rng.integers(0, 50, 500)),
                     "lv": pa.array(np.arange(500, dtype=np.int64))})
    # duplicate keys on the right + keys missing from the right
    right = pa.table({"rk": pa.array(np.repeat(np.arange(0, 40), 2)),
                      "rv": pa.array(np.arange(80, dtype=np.int64))})
    lds = ray.data.from_arrow(left)
    for jt in ("inner", "left_outer"):
        a = equi_join(lds, ray.data.from_arrow(right), left_on="k",
                      right_on="rk", join_type=jt,
                      broadcast=True).to_pandas()
        b = equi_join(lds, ray.data.from_arrow(right), left_on="k",
                      right_on="rk", join_type=jt, broadcast=False,
                      num_partitions=8).to_pandas()
        assert sorted(a.columns) == sorted(b.columns) == ["k", "lv", "rv"]
        key = ["k", "lv", "rv"]
        a2 = a.sort_values(key).reset_index(drop=True)
        b2 = b[a.columns].sort_values(key).reset_index(drop=True)
        assert len(a2) == len(b2), jt
        import pandas as pd
        pd.testing.assert_frame_equal(a2, b2, check_dtype=False)


def test_pyramid_kernel_dispatch(ray_session):
    """Overview kernel dispatch (VERDICT r3 next-8): for every kernel,
    the 4-tile Ray pyramid reduce equals the kernel applied directly to
    the unsplit 512x512 composite."""
    import numpy as np
    import pyarrow as pa
    import ray

    from georay.tiles import _KERNELS, _parent_key, build_pyramid

    ts = 256
    rng = np.random.default_rng(23)
    children = {}
    rows = {"z": [], "tile_x": [], "tile_y": [], "tile": []}
    for qx in range(2):
        for qy in range(2):
            tile = rng.integers(0, 256, (ts, ts, 4)).astype(np.uint8)
            tile[:, :, 3] = 255
            children[(qx, qy)] = tile
            rows["z"].append(5)
            rows["tile_x"].append(10 + qx)
            rows["tile_y"].append(6 + qy)
            rows["tile"].append(tile.tobytes())
    base = pa.table({
        "z": pa.array(rows["z"], pa.int64()),
        "tile_x": pa.array(rows["tile_x"], pa.int64()),
        "tile_y": pa.array(rows["tile_y"], pa.int64()),
        "tile": pa.array(rows["tile"], pa.binary()),
    })
    canvas = np.zeros((2 * ts, 2 * ts, 4), np.uint8)
    for (qx, qy), tile in children.items():
        canvas[qy * ts:(qy + 1) * ts, qx * ts:(qx + 1) * ts] = tile
    for kernel in ("average", "near", "bilinear", "rms", "mode",
                   "gauss", "cubic", "cubicspline", "lanczos"):
        ds = ray.data.from_arrow(base)
        levels = build_pyramid(ds, 4, 5, kernel=kernel)
        out = levels[4].to_pandas()
        assert len(out) == 1
        got = np.frombuffer(out["tile"].iloc[0], np.uint8).reshape(
            ts, ts, 4)
        want = _KERNELS[kernel](canvas, ts, ts)
        assert np.array_equal(got, want), kernel
        assert (int(out["z"].iloc[0]), int(out["tile_x"].iloc[0]),
                int(out["tile_y"].iloc[0])) == (4, 5, 3)


def test_overview_kernel_semantics():
    """Pure-kernel pins: MODE majority + GDAL first-max tie rule, GAUSS
    [1,2,1] weights with edge renormalization, convolution kernels
    preserve constants and reproduce a hand-computed stretched tap."""
    import numpy as np

    from georay.tiles import (_conv_kernel, resample_conv, resample_gauss,
                              resample_mode)

    # MODE: clear majority
    src = np.array([[5, 5], [5, 9]], np.uint8)
    assert resample_mode(src, 1, 1)[0, 0] == 5
    # tie 2-2: first value to peak in scan order (a=7 at index 0) wins
    src = np.array([[7, 3], [3, 7]], np.uint8)
    assert resample_mode(src, 1, 1)[0, 0] == 7
    src = np.array([[3, 7], [7, 3]], np.uint8)
    assert resample_mode(src, 1, 1)[0, 0] == 3
    # 4x4 -> 2x2 blocks independent
    src = np.array([[1, 1, 2, 3],
                    [1, 4, 3, 3],
                    [8, 8, 6, 5],
                    [9, 8, 5, 6]], np.uint8)
    out = resample_mode(src, 2, 2)
    assert out.tolist() == [[1, 3], [8, 6]]

    # GAUSS: interior window [1,2,1]x[1,2,1]/16 on rows 2o..2o+2
    src = np.zeros((4, 4), np.uint8)
    src[1, 1] = 16
    out = resample_gauss(src, 2, 2)
    assert out[0, 0] == 4          # center weight 4/16 of 16
    # constant image stays constant (weights renormalize at edges)
    const = np.full((6, 6), 200, np.uint8)
    assert (resample_gauss(const, 3, 3) == 200).all()

    # convolution kernels: constants preserved under any ratio
    const = np.full((64, 48), 123, np.uint8)
    for k in ("cubic", "cubicspline", "lanczos"):
        assert (resample_conv(const, 16, 12, k) == 123).all()
    # stretched-tap spot check: 2x lanczos taps match direct evaluation
    h = 8
    src = np.zeros((h, 1), np.float64)
    src[3, 0] = 255.0
    centers = (np.arange(4) + 0.5) * 2 - 0.5
    taps = np.arange(h)
    want = []
    for c in centers:
        w = _conv_kernel("lanczos", (taps - c) / 2.0)
        m = np.abs(taps - c) < 6
        w = np.where(m, w, 0.0)
        w /= w.sum()
        want.append((w * src[:, 0]).sum())
    got = resample_conv(src.astype(np.uint8), 4, 1, "lanczos")[:, 0]
    want = np.clip(np.rint(want), 0, 255)
    assert np.array_equal(got.astype(np.int64), want.astype(np.int64))


def test_knn_partitioned_matches_brute_force(ray_session):
    # co-shuffled k-ring join (neither side broadcast) — exact vs brute
    # force, including k > per-cell density and deterministic ties
    import ray
    from georay.knn import knn_points_partitioned
    qt = fx.points_table(120)
    nbr = fx.points_table(350)
    qds = ray.data.from_arrow(pa.table({
        "qid": pa.array(np.arange(120, dtype=np.int64)),
        "lat": qt["lat"], "lon": qt["lon"]}))
    nds = ray.data.from_arrow(pa.table({
        "nid": pa.array(np.arange(350, dtype=np.int64)),
        "lat": nbr["lat"], "lon": nbr["lon"]}))
    out = knn_points_partitioned(qds, nds, k=4, qid_col="qid",
                                 nid_col="nid", res=7).take_all()
    got = {}
    for r in out:
        got.setdefault(r["qid"], []).append(
            (r["rank"], r["nid"], r["dist_m"]))
    qlat, qlon = qt["lat"].to_numpy(), qt["lon"].to_numpy()
    nlat, nlon = nbr["lat"].to_numpy(), nbr["lon"].to_numpy()
    nid = np.arange(350, dtype=np.int64)
    for qi in range(120):
        d = haversine_m(qlat[qi], qlon[qi], nlat, nlon)
        order = np.lexsort((nid, d))[:4]
        expect = [(rk, int(nid[j])) for rk, j in enumerate(order)]
        assert [(rk, n) for rk, n, _ in sorted(got[qi])] == expect, qi
    assert len(got) == 120


def test_knn_partitioned_dateline_and_small_k_eff(ray_session):
    import ray
    from georay.knn import knn_points_partitioned
    rng = np.random.RandomState(3)
    # queries hug +179.9, nearest neighbors sit across at -179.9
    qlat = rng.uniform(-50, 50, 25)
    qlon = np.full(25, 179.9)
    nlat = np.concatenate([qlat + 0.01, rng.uniform(-50, 50, 40)])
    nlon = np.concatenate([np.full(25, -179.95), rng.uniform(-170, 170, 40)])
    qds = ray.data.from_arrow(pa.table({
        "qid": pa.array(np.arange(25, dtype=np.int64)),
        "lat": pa.array(qlat), "lon": pa.array(qlon)}))
    nds = ray.data.from_arrow(pa.table({
        "nid": pa.array(np.arange(65, dtype=np.int64)),
        "lat": pa.array(nlat), "lon": pa.array(nlon)}))
    out = knn_points_partitioned(qds, nds, k=3, qid_col="qid",
                                 nid_col="nid", res=6).take_all()
    nid = np.arange(65, dtype=np.int64)
    got = {}
    for r in out:
        got.setdefault(r["qid"], []).append((r["rank"], r["nid"]))
    for qi in range(25):
        d = haversine_m(qlat[qi], qlon[qi], nlat, nlon)
        order = np.lexsort((nid, d))[:3]
        assert [n for _, n in sorted(got[qi])] == [int(nid[j])
                                                   for j in order], qi
    # k >= total neighbors: returns every neighbor, exact
    nds2 = ray.data.from_arrow(pa.table({
        "nid": pa.array(np.arange(2, dtype=np.int64)),
        "lat": pa.array(nlat[:2]), "lon": pa.array(nlon[:2])}))
    out2 = knn_points_partitioned(qds, nds2, k=5, qid_col="qid",
                                  nid_col="nid", res=6).take_all()
    assert len(out2) == 25 * 2


def test_knn_partitioned_kernels_randomized_pure():
    # Drive the partitioned-kNN kernels through the round loop WITHOUT
    # Ray (pandas groupby stands in for the shuffles) on randomized
    # configs including polar and dateline clusters — exact vs brute
    # force every time.  Catches safe-radius / coverage / coarsening
    # regressions cheaply.
    import pandas as pd
    from georay.cells import hex_cell
    from georay.knn import _cell_candidates, _disk_replicas, _merge_topk

    def run_rounds(qlat, qlon, nlat, nlon, k, res, max_ring=64):
        nq, nn = len(qlat), len(nlat)
        k_eff = nn
        active = pa.table({
            "qid": pa.array(np.arange(nq, dtype=np.int64)),
            "lat": pa.array(qlat), "lon": pa.array(qlon),
            "r": pa.array(np.full(nq, 2, np.int64))})
        res_cur = res
        got = {}
        for _ in range(14):
            reps = _disk_replicas(active, res_cur, "qid")
            nc = np.asarray(hex_cell(nlat, nlon, res_cur))
            nt = pa.table({
                "cell": pa.array(nc),
                "side": pa.array(np.ones(nn, np.int8)),
                "id": pa.array(np.arange(nn, dtype=np.int64)),
                "lat": pa.array(nlat), "lon": pa.array(nlon),
                "r": pa.array(np.zeros(nn, np.int64)),
                "home": pa.array(np.zeros(nn, np.int8))})
            un = pa.concat_tables([reps, nt]).to_pandas()
            # one bucket == one vectorized kernel call (cell bucketing
            # only splits work; a single call is the same math)
            cands = _cell_candidates(
                pa.Table.from_pandas(un, preserve_index=False), k)
            merged = []
            for _qb, g in cands.to_pandas().groupby(
                    cands.to_pandas()["qid"] % 4):
                merged.append(_merge_topk(
                    pa.Table.from_pandas(g, preserve_index=False),
                    k, k_eff, res_cur))
            mt = pa.concat_tables(merged).to_pandas()
            done = mt[mt["done"] & (mt["rank"] >= 0)]
            for qid, g in done.groupby("qid"):
                got[qid] = [int(n) for _, n in sorted(
                    zip(g["rank"], g["nid"]))]
            pend = mt[(~mt["done"]) & (mt["rank"] <= 0)]
            if not len(pend):
                break
            mx = int(pend["r_next"].max())
            if mx > 64 and res_cur > 0:
                step = min(max(1, int(np.ceil(np.log2(mx / 32)))), res_cur)
                res_cur -= step
                rn = np.ceil(pend["r_next"].to_numpy() / (1 << step)) + 2
                active = pa.table({
                    "qid": pa.array(pend["qid"].to_numpy()),
                    "lat": pa.array(pend["lat"].to_numpy()),
                    "lon": pa.array(pend["lon"].to_numpy()),
                    "r": pa.array(rn.astype(np.int64))})
            else:
                active = pa.table({
                    "qid": pa.array(pend["qid"].to_numpy()),
                    "lat": pa.array(pend["lat"].to_numpy()),
                    "lon": pa.array(pend["lon"].to_numpy()),
                    "r": pa.array(pend["r_next"].to_numpy()
                                  .astype(np.int64))})
        else:
            raise AssertionError("did not converge")
        return got

    for seed in range(6):
        rng = np.random.RandomState(seed)
        nq, nn, k = 40, 120, 3
        qlat = rng.uniform(-85, 85, nq)
        qlon = rng.uniform(-180, 180, nq)
        nlat = rng.uniform(-85, 85, nn)
        nlon = rng.uniform(-180, 180, nn)
        if seed % 3 == 0:       # polar cluster
            qlat[:8] = rng.uniform(87.0, 89.5, 8)
            nlat[:5] = rng.uniform(86.0, 89.8, 5)
        if seed % 3 == 1:       # dateline cluster
            qlon[:8] = 179.95
            nlon[:8] = -179.95
            nlat[:8] = qlat[:8] + 0.01
        got = run_rounds(qlat, qlon, nlat, nlon, k, res=6)
        assert len(got) == nq, f"seed {seed}: lost queries"
        nid = np.arange(nn, dtype=np.int64)
        for qi in range(nq):
            d = haversine_m(qlat[qi], qlon[qi], nlat, nlon)
            order = np.lexsort((nid, d))[:k]
            assert got[qi] == [int(j) for j in order], (seed, qi)
