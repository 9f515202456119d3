"""GDAL .vrt XML dataset driver (georay.vrtfile) — the real on-disk
element vocabulary (frmts/vrt/vrtdataset.cpp, apps/gdalbuildvrt_lib.cpp)."""

import os
import textwrap

import numpy as np
import pytest

from georay.gtiff import tiff_encode
from georay.vrtfile import (vrt_build, vrt_parse, vrt_read, vrt_tile_plan,
                            read_vrt_tiles)


def _write_tile(path, arr, origin, res=1.0):
    gt = (origin[0], res, 0.0, origin[1], 0.0, -res)
    with open(path, "wb") as f:
        f.write(tiff_encode(arr, geotransform=gt))
    return gt


@pytest.fixture()
def mosaic_dir(tmp_path):
    """2×2 tile grid with the SE tile missing (nodata hole)."""
    rng = np.random.default_rng(7)
    tiles = {}
    for name, origin in (("nw", (0.0, 20.0)), ("ne", (10.0, 20.0)),
                         ("sw", (0.0, 10.0))):
        arr = rng.integers(1, 255, (10, 10), dtype=np.uint8)
        _write_tile(str(tmp_path / f"{name}.tif"), arr, origin)
        tiles[name] = arr
    return tmp_path, tiles


def test_buildvrt_mosaic_roundtrip(mosaic_dir):
    d, tiles = mosaic_dir
    paths = [str(d / f"{n}.tif") for n in ("nw", "ne", "sw")]
    out = str(d / "mosaic.vrt")
    xml = vrt_build(paths, out, nodata=0.0)
    meta = vrt_parse(xml)
    assert (meta["xsize"], meta["ysize"]) == (20, 20)
    assert meta["geotransform"] == (0.0, 1.0, 0.0, 20.0, 0.0, -1.0)
    arr, gt, nodata = vrt_read(out)
    assert gt == (0.0, 1.0, 0.0, 20.0, 0.0, -1.0) and nodata == 0.0
    exp = np.zeros((20, 20), np.uint8)
    exp[:10, :10], exp[:10, 10:], exp[10:, :10] = (
        tiles["nw"], tiles["ne"], tiles["sw"])
    np.testing.assert_array_equal(arr, exp)
    # relative paths written when the source sits beside the .vrt
    assert 'relativeToVRT="1"' in xml and "nw.tif" in xml


def test_open_raster_dispatches_vrt(mosaic_dir):
    from georay.simpleformats import open_raster
    d, _ = mosaic_dir
    vrt_build([str(d / "nw.tif")], str(d / "one.vrt"))
    arr, gt, _ = open_raster(str(d / "one.vrt"))
    assert arr.shape == (10, 10) and gt[0] == 0.0


def test_complex_source_scale_and_nodata(tmp_path):
    arr = np.arange(16, dtype=np.uint8).reshape(4, 4)
    _write_tile(str(tmp_path / "s.tif"), arr, (0.0, 4.0))
    xml = textwrap.dedent("""\
        <VRTDataset rasterXSize="4" rasterYSize="4">
          <VRTRasterBand dataType="Float64" band="1">
            <NoDataValue>-1</NoDataValue>
            <ComplexSource>
              <SourceFilename relativeToVRT="1">s.tif</SourceFilename>
              <SourceBand>1</SourceBand>
              <SrcRect xOff="0" yOff="0" xSize="4" ySize="4"/>
              <DstRect xOff="0" yOff="0" xSize="4" ySize="4"/>
              <ScaleRatio>2</ScaleRatio>
              <ScaleOffset>10</ScaleOffset>
              <NODATA>0</NODATA>
            </ComplexSource>
          </VRTRasterBand>
        </VRTDataset>""")
    p = tmp_path / "c.vrt"
    p.write_text(xml)
    out, _, nodata = vrt_read(str(p))
    exp = arr.astype(np.float64) * 2 + 10
    exp[0, 0] = -1                      # src pixel 0 == NODATA -> skipped
    np.testing.assert_array_equal(out, exp)
    assert nodata == -1


def test_derived_band_pixel_function(tmp_path):
    a = np.full((3, 3), 5, np.uint8)
    b = np.arange(9, dtype=np.uint8).reshape(3, 3)
    _write_tile(str(tmp_path / "a.tif"), a, (0.0, 3.0))
    _write_tile(str(tmp_path / "b.tif"), b, (0.0, 3.0))
    xml = textwrap.dedent("""\
        <VRTDataset rasterXSize="3" rasterYSize="3">
          <VRTRasterBand dataType="Float64" band="1"
                         subClass="VRTDerivedRasterBand">
            <PixelFunctionType>sum</PixelFunctionType>
            <PixelFunctionArguments k="100"/>
            <SimpleSource>
              <SourceFilename relativeToVRT="1">a.tif</SourceFilename>
              <SourceBand>1</SourceBand>
            </SimpleSource>
            <SimpleSource>
              <SourceFilename relativeToVRT="1">b.tif</SourceFilename>
              <SourceBand>1</SourceBand>
            </SimpleSource>
          </VRTRasterBand>
        </VRTDataset>""")
    p = tmp_path / "d.vrt"
    p.write_text(xml)
    out, _, _ = vrt_read(str(p))
    np.testing.assert_array_equal(out, a + b + 100.0)


def test_dst_rect_resampling_nearest(tmp_path):
    arr = np.array([[1, 2], [3, 4]], np.uint8)
    _write_tile(str(tmp_path / "s.tif"), arr, (0.0, 2.0))
    xml = textwrap.dedent("""\
        <VRTDataset rasterXSize="4" rasterYSize="4">
          <VRTRasterBand dataType="Byte" band="1">
            <SimpleSource>
              <SourceFilename relativeToVRT="1">s.tif</SourceFilename>
              <SourceBand>1</SourceBand>
              <SrcRect xOff="0" yOff="0" xSize="2" ySize="2"/>
              <DstRect xOff="0" yOff="0" xSize="4" ySize="4"/>
            </SimpleSource>
          </VRTRasterBand>
        </VRTDataset>""")
    p = tmp_path / "r.vrt"
    p.write_text(xml)
    out, _, _ = vrt_read(str(p))
    np.testing.assert_array_equal(out, np.repeat(np.repeat(arr, 2, 0), 2, 1))


def test_tile_plan_skips_empty_and_matches_full(mosaic_dir, ray_session):
    d, _ = mosaic_dir
    out = str(d / "m.vrt")
    vrt_build([str(d / f"{n}.tif") for n in ("nw", "ne", "sw")], out,
              nodata=0.0)
    plan = vrt_tile_plan(out, tile=10)
    # SE quarter has no intersecting source -> only 3 planned tiles
    assert len(plan) == 3
    assert {(r["tile_x"], r["tile_y"]) for r in plan} == {
        (0, 0), (1, 0), (0, 1)}
    full, _, _ = vrt_read(out)
    got = read_vrt_tiles(out, tile=10).to_pandas()
    assert float(got["pixel_sum"].sum()) == float(
        full.astype(np.float64).sum())
    # each tile payload is a decodable GeoTIFF of the right shape
    from georay.gtiff import tiff_decode
    arr0, _ = tiff_decode(got["bytes"].iloc[0])
    assert np.asarray(arr0).shape == (10, 10)
    # tile content matches the full-extent assembly
    for _, row in got.iterrows():
        a, _ = tiff_decode(row["bytes"])
        y0, x0 = row["yoff"], row["xoff"]
        np.testing.assert_array_equal(
            np.asarray(a), full[y0:y0 + row["ysize"], x0:x0 + row["xsize"]])
