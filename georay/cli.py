"""GDAL command-line app surface (apps/ — gdal_translate_lib.cpp,
ogr2ogr_lib.cpp, gdalwarp_lib.cpp, gdaldem_lib.cpp, gdalbuildvrt_lib.cpp,
gdal2tiles.py, gdalinfo_lib.cpp, ogrinfo_lib.cpp) re-expressed over this
engine: ``python -m georay <app> [options] …`` with the reference's
argument order and the most-used option subset of each tool.

Single-FILE sources run driver-side on the opened array/table (these
CLIs are one-dataset tools in the reference too); the equivalent
Dataset-scale pipelines (RasterPipeline / VectorPipeline /
tile_pipeline / write_*_partitioned) remain the 100-TB path — each app
below names the library call it fronts.
"""

from __future__ import annotations

import json
import os
import sys

import numpy as np

__all__ = ["main"]


def _pop_opt(args: list, flag: str, n: int = 1, default=None):
    """Remove ``flag v1..vn`` from args; returns the value (list if n>1)."""
    if flag not in args:
        return default
    i = args.index(flag)
    vals = args[i + 1:i + 1 + n]
    if len(vals) < n:
        raise SystemExit(f"{flag} expects {n} value(s)")
    del args[i:i + 1 + n]
    return vals if n > 1 else vals[0]


def _pop_flag(args: list, flag: str) -> bool:
    if flag in args:
        args.remove(flag)
        return True
    return False


# ---------------------------------------------------------------------------
# raster output dispatch (shared by translate / warp / dem)
# ---------------------------------------------------------------------------

def _write_raster(arr: np.ndarray, gt, dst: str, *, nodata=None):
    low = dst.lower()
    if low.endswith((".tif", ".tiff")):
        from .gtiff import tiff_encode
        blob = tiff_encode(np.ascontiguousarray(arr), geotransform=gt)
        with open(dst, "wb") as f:
            f.write(blob)
    elif low.endswith(".asc"):
        from .simpleformats import aaigrid_write
        aaigrid_write(dst, arr, geotransform=gt,
                      nodata=nodata if nodata is not None else -9999)
    else:
        ext = low.rsplit(".", 1)[-1]
        fmt = {"jpg": "jpeg", "pgm": "pnm", "ppm": "pnm"}.get(ext, ext)
        from .codecs import encode_image
        with open(dst, "wb") as f:
            f.write(encode_image(arr, fmt))
    return dst


# ---------------------------------------------------------------------------
# gdal_translate (apps/gdal_translate_lib.cpp; library: RasterPipeline)
# ---------------------------------------------------------------------------

def gdal_translate(args: list) -> str:
    """gdal_translate [-srcwin x y w h] [-outsize w h] [-r kernel]
    [-scale [smin smax dmin dmax]] [-ot Type] [-b N]... [-a_nodata v]
    src dst"""
    from .simpleformats import open_raster
    srcwin = _pop_opt(args, "-srcwin", 4)
    outsize = _pop_opt(args, "-outsize", 2)
    kernel = _pop_opt(args, "-r", default="near")
    ot = _pop_opt(args, "-ot")
    a_nodata = _pop_opt(args, "-a_nodata")
    bands = []
    while "-b" in args:
        bands.append(int(_pop_opt(args, "-b")))
    do_scale = False
    scale_v = None
    if "-scale" in args:
        i = args.index("-scale")
        rest = args[i + 1:i + 5]
        if len(rest) == 4 and all(_is_num(v) for v in rest):
            scale_v = [float(v) for v in rest]
            del args[i:i + 5]
        else:
            del args[i]
        do_scale = True
    _pop_opt(args, "-of")                        # ext decides the driver
    src, dst = args
    arr, gt, nodata = open_raster(src)
    arr = np.asarray(arr)
    if bands:
        if arr.ndim == 2:
            if bands != [1]:
                raise SystemExit("-b: single-band source")
        else:
            sel = [b - 1 for b in bands]
            arr = arr[:, :, sel[0]] if len(sel) == 1 else arr[:, :, sel]
    if srcwin:
        x, y, w, h = (int(v) for v in srcwin)
        from .raster import translate_window
        arr = translate_window(arr, x, y, w, h)
        if gt:
            gt = (gt[0] + x * gt[1], gt[1], gt[2],
                  gt[3] + y * gt[5], gt[4], gt[5])
    if outsize:
        ow, oh = int(outsize[0]), int(outsize[1])
        from .tiles import _scale_to
        ih, iw = arr.shape[:2]
        if arr.ndim == 2:
            arr = _scale_to(arr.astype(np.float64), oh, ow, kernel)
        else:
            arr = np.stack([_scale_to(arr[:, :, c].astype(np.float64),
                                      oh, ow, kernel)
                            for c in range(arr.shape[2])], axis=-1)
        arr = np.clip(np.rint(arr), 0, 255).astype(np.uint8) \
            if ot is None else arr
        if gt:
            gt = (gt[0], gt[1] * iw / ow, gt[2],
                  gt[3], gt[4], gt[5] * ih / oh)
    if do_scale:
        from .raster import translate_scale
        arr = translate_scale(arr, *(scale_v or (None, None, 0.0, 255.0)))
    if ot:
        arr = arr.astype({"Byte": np.uint8, "UInt16": np.uint16,
                          "Int16": np.int16, "Int32": np.int32,
                          "UInt32": np.uint32, "Float32": np.float32,
                          "Float64": np.float64}[ot])
    if a_nodata is not None:
        nodata = float(a_nodata)
    return _write_raster(arr, gt, dst, nodata=nodata)


def _is_num(v: str) -> bool:
    try:
        float(v)
        return True
    except ValueError:
        return False


# ---------------------------------------------------------------------------
# ogr2ogr (apps/ogr2ogr_lib.cpp; library: VectorPipeline + write_vector)
# ---------------------------------------------------------------------------

def ogr2ogr(args: list) -> str:
    """ogr2ogr [-f fmt] [-where expr] [-select c1,c2] [-s_srs A]
    [-t_srs B] [-clipsrc xmin ymin xmax ymax] [-limit N] [-nln name]
    [-nlt PROMOTE_TO_MULTI] [-sql STATEMENT] dst src
    (GDAL's dst-first order; -sql replaces the source rows with the
    statement's result, apps/ogr2ogr_lib.cpp -sql path)"""
    import pyarrow as pa

    from .ogr import VectorPipeline
    from .vectoropen import open_vector, write_vector

    sql = _pop_opt(args, "-sql")
    where = _pop_opt(args, "-where")
    select = _pop_opt(args, "-select")
    s_srs = _pop_opt(args, "-s_srs", default="EPSG:4326")
    t_srs = _pop_opt(args, "-t_srs")
    clipsrc = _pop_opt(args, "-clipsrc", 4)
    limit = _pop_opt(args, "-limit")
    nln = _pop_opt(args, "-nln", default="layer")
    nlt = _pop_opt(args, "-nlt")
    _pop_opt(args, "-f")                         # ext decides the driver
    dst, src = args

    ds = open_vector(src)
    if sql:
        from .sql import _as_dataset, execute_sql
        name = os.path.splitext(os.path.basename(src))[0]
        ds = _as_dataset(execute_sql(sql, {name: ds, "layer": ds}))
    pipe = VectorPipeline.from_dataset(ds)
    if where:
        pipe = pipe.where(where)
    if clipsrc:
        pipe = pipe.clip_bbox(*(float(v) for v in clipsrc))
    if t_srs and t_srs != s_srs:
        from .raster import _crs_to_latlon, _latlon_to_crs

        def reproject(batch: pa.Table) -> pa.Table:
            from .geom import transform_wkb
            if "wkb" not in batch.column_names:
                return batch

            def fn(xs, ys):
                lat, lon = _crs_to_latlon(s_srs, xs, ys)
                return _latlon_to_crs(t_srs, lat, lon)

            wkbs = [w.as_py() for w in batch["wkb"]]
            return batch.set_column(
                batch.column_names.index("wkb"), "wkb",
                pa.array(transform_wkb(wkbs, fn), pa.binary()))

        pipe = VectorPipeline(pipe.ds.map_batches(
            reproject, batch_format="pyarrow"))
    if nlt == "PROMOTE_TO_MULTI":
        from .geom import force_to_multipolygon

        def promote(batch: pa.Table) -> pa.Table:
            if "wkb" not in batch.column_names:
                return batch
            vals = [force_to_multipolygon(w.as_py()) for w in batch["wkb"]]
            return batch.set_column(batch.column_names.index("wkb"),
                                    "wkb", pa.array(vals, pa.binary()))

        pipe = VectorPipeline(pipe.ds.map_batches(
            promote, batch_format="pyarrow"))
    if limit:
        pipe = pipe.limit(int(limit))
    t = pipe.to_table()
    if select:
        keep = [c.strip() for c in select.split(",")]
        if "wkb" in t.schema.names and "wkb" not in keep:
            keep.append("wkb")
        t = t.select([c for c in keep if c in t.schema.names])
    return write_vector(t, dst, layer=nln)


# ---------------------------------------------------------------------------
# gdalwarp (apps/gdalwarp_lib.cpp; library: raster.warp_affine_mercator)
# ---------------------------------------------------------------------------

def gdalwarp(args: list) -> str:
    """gdalwarp [-s_srs A] [-t_srs B] [-r kernel] [-ts w h]
    [-te xmin ymin xmax ymax] [-dstnodata v] src dst"""
    from .raster import _crs_to_latlon, _latlon_to_crs, \
        warp_affine_mercator
    from .simpleformats import open_raster
    s_srs = _pop_opt(args, "-s_srs", default="EPSG:4326")
    t_srs = _pop_opt(args, "-t_srs", default="EPSG:3857")
    kernel = _pop_opt(args, "-r", default="bilinear")
    ts = _pop_opt(args, "-ts", 2)
    te = _pop_opt(args, "-te", 4)
    dstnodata = float(_pop_opt(args, "-dstnodata", default="0"))
    src, dst = args
    arr, gt, _ = open_raster(src)
    out, dst_gt = _warp_core(np.asarray(arr), gt, s_srs=s_srs, t_srs=t_srs,
                             kernel=kernel, ts=ts, te=te,
                             dstnodata=dstnodata)
    return _write_raster(out, dst_gt, dst, nodata=dstnodata)


def _warp_core(arr, gt, *, s_srs, t_srs, kernel="bilinear", ts=None,
               te=None, dstnodata=0.0):
    """Shared warp body for gdalwarp and ``gdal raster reproject`` /
    pipeline steps: SuggestedWarpOutput-analog dst grid + kernel warp."""
    from .raster import _crs_to_latlon, _latlon_to_crs, \
        warp_affine_mercator
    h, w = arr.shape[:2]
    if gt is None:
        raise SystemExit("warp: source has no geotransform")
    if te:
        xmin, ymin, xmax, ymax = (float(v) for v in te)
    else:
        # SuggestedWarpOutput analog: transform a border sample of the
        # source grid into the target CRS and take its bbox
        xs = np.linspace(gt[0], gt[0] + gt[1] * w, 21)
        ys = np.linspace(gt[3], gt[3] + gt[5] * h, 21)
        bx = np.concatenate([xs, xs, np.full(21, xs[0]),
                             np.full(21, xs[-1])])
        by = np.concatenate([np.full(21, ys[0]), np.full(21, ys[-1]),
                             ys, ys])
        lat, lon = _crs_to_latlon(s_srs, bx, by)
        X, Y = _latlon_to_crs(t_srs, lat, lon)
        xmin, xmax = float(X.min()), float(X.max())
        ymin, ymax = float(Y.min()), float(Y.max())
    ow, oh = (int(ts[0]), int(ts[1])) if ts else (w, h)
    dst_gt = (xmin, (xmax - xmin) / ow, 0.0, ymax, 0.0,
              -(ymax - ymin) / oh)
    out = warp_affine_mercator(arr, gt, dst_gt, (oh, ow), src_crs=s_srs,
                               dst_crs=t_srs, kernel=kernel,
                               nodata=dstnodata)
    if arr.dtype == np.uint8:
        out = np.clip(np.rint(out), 0, 255).astype(np.uint8)
    return out, dst_gt


# ---------------------------------------------------------------------------
# gdaldem (apps/gdaldem_lib.cpp; library: raster.* + dem_derivatives)
# ---------------------------------------------------------------------------

def gdaldem(args: list) -> str:
    """gdaldem <hillshade|slope|aspect|TRI|TPI|roughness|color-relief>
    src [ramp.txt] dst [-z f] [-az a] [-alt b] [-p]"""
    from . import raster as R
    from .simpleformats import open_raster
    mode = args.pop(0)
    z = float(_pop_opt(args, "-z", default="1"))
    az = float(_pop_opt(args, "-az", default="315"))
    alt = float(_pop_opt(args, "-alt", default="45"))
    percent = _pop_flag(args, "-p")
    if mode == "color-relief":
        src, ramp_path, dst = args
    else:
        src, dst = args
        ramp_path = None
    arr, gt, nodata = open_raster(src)
    dem = np.asarray(arr, np.float64)
    xres = abs(gt[1]) if gt else 1.0
    yres = abs(gt[5]) if gt else 1.0
    if mode == "hillshade":
        out = R.hillshade(dem, xres, yres, azimuth=az, altitude=alt,
                          z_factor=z)
    elif mode == "slope":
        out = R.slope(dem, xres, yres, percent=percent)
    elif mode == "aspect":
        out = R.aspect(dem, xres, yres)
    elif mode == "TRI":
        out = R.tri(dem)
    elif mode == "TPI":
        out = R.tpi(dem)
    elif mode == "roughness":
        out = R.roughness(dem)
    elif mode == "color-relief":
        ramp = []
        with open(ramp_path) as f:
            for line in f:
                parts = line.split()
                if len(parts) >= 4:
                    ramp.append((float(parts[0]), int(parts[1]),
                                 int(parts[2]), int(parts[3])))
        out = R.color_relief(dem, ramp)
    else:
        raise SystemExit(f"gdaldem: unknown mode {mode!r}")
    if out.dtype.kind == "f" and dst.lower().endswith(
            (".png", ".jpg", ".jpeg", ".gif", ".bmp")):
        out = np.clip(np.rint(out), 0, 255).astype(np.uint8)
    return _write_raster(out, gt, dst, nodata=nodata)


# ---------------------------------------------------------------------------
# gdalbuildvrt (apps/gdalbuildvrt_lib.cpp; library: vrtfile.vrt_build)
# ---------------------------------------------------------------------------

def gdalbuildvrt(args: list) -> str:
    """gdalbuildvrt [-resolution highest|lowest|first] [-vrtnodata v]
    out.vrt src1 src2 …"""
    from .vrtfile import vrt_build
    resolution = _pop_opt(args, "-resolution", default="highest")
    nodata = _pop_opt(args, "-vrtnodata")
    out, *paths = args
    vrt_build(paths, out, resolution=resolution,
              nodata=float(nodata) if nodata is not None else None)
    return out


# ---------------------------------------------------------------------------
# gdal2tiles (gdal2tiles.py; library: pipelines.tile_pipeline)
# ---------------------------------------------------------------------------

def gdal2tiles(args: list) -> str:
    """gdal2tiles [-z minz-maxz] [-r kernel] src outdir — source must be
    georeferenced in EPSG:3857 (web-mercator meters) or EPSG:4326
    (warped to 3857 first), 3-band uint8."""
    import pyarrow as pa
    import ray.data

    from .decode import with_pixels
    from .tiles import build_pyramid, composite_tiles, cut_tiles, \
        write_tiles_png
    zspec = _pop_opt(args, "-z", default="0-3")
    kernel = _pop_opt(args, "-r", default="average")
    src, outdir = args
    from .simpleformats import open_raster
    arr, gt, _ = open_raster(src)
    arr = np.asarray(arr)
    if arr.ndim == 2:
        arr = np.repeat(arr[:, :, None], 3, axis=2)
    if gt is None:
        raise SystemExit("gdal2tiles: source has no geotransform")
    if abs(gt[0]) <= 360 and abs(gt[3]) <= 90:   # degrees → mercator
        from .mercator import latlon_to_meters
        h, w = arr.shape[:2]
        x0, y0 = latlon_to_meters(np.array([gt[3]]), np.array([gt[0]]))
        x1, y1 = latlon_to_meters(np.array([gt[3] + gt[5] * h]),
                                  np.array([gt[0] + gt[1] * w]))
        from .raster import warp_affine_mercator
        dst_gt = (float(x0[0]), (float(x1[0]) - float(x0[0])) / w, 0.0,
                  float(y0[0]), 0.0, (float(y1[0]) - float(y0[0])) / h)
        arr = warp_affine_mercator(arr, gt, dst_gt, (h, w),
                                   src_crs="EPSG:4326",
                                   dst_crs="EPSG:3857", kernel="bilinear")
        arr = np.clip(np.rint(arr), 0, 255).astype(np.uint8)
        gt = dst_gt
    if abs(abs(gt[1]) - abs(gt[5])) > 1e-6 * abs(gt[1]):
        raise SystemExit("gdal2tiles: needs square pixels")
    minz, maxz = (int(v) for v in zspec.split("-")) \
        if "-" in zspec else (int(zspec), int(zspec))
    row = with_pixels(pa.table({
        "image_id": pa.array(["cli"]),
        "ulx": pa.array([gt[0]], pa.float64()),
        "uly": pa.array([gt[3]], pa.float64()),
        "psize": pa.array([abs(gt[1])], pa.float64())}), [arr])
    ds = ray.data.from_arrow(row)
    frags = ds.map_batches(cut_tiles, batch_format="pyarrow",
                           fn_kwargs=dict(zoom=maxz, resampling=kernel))
    levels = build_pyramid(composite_tiles(frags), minz, maxz,
                           kernel=kernel) if minz < maxz else \
        {maxz: composite_tiles(frags)}
    n = 0
    for _z, tiles in sorted(levels.items()):
        n += write_tiles_png(tiles, outdir).count()
    print(f"gdal2tiles: wrote {n} tiles to {outdir}")
    return outdir


# ---------------------------------------------------------------------------
# info tools
# ---------------------------------------------------------------------------

def gdalinfo(args: list) -> str:
    from .info import raster_info
    from .simpleformats import open_raster
    _pop_flag(args, "-stats")
    (src,) = args
    arr, gt, nodata = open_raster(src)
    out = raster_info(np.asarray(arr), gt, nodata=nodata)
    s = json.dumps(out, indent=2, default=str)
    print(s)
    return s


def ogrinfo(args: list) -> str:
    """ogrinfo [-so|-al] [-sql STATEMENT] src — layer summary, or the
    result rows of an -sql statement run by the engine's SQL dialect
    over the opened layer (registered as both its basename and
    ``layer`` — apps/ogrinfo_lib.cpp -sql path)."""
    from .info import layer_info
    from .vectoropen import open_vector
    _pop_flag(args, "-so")
    _pop_flag(args, "-al")
    sql = _pop_opt(args, "-sql")
    (src,) = args
    ds = open_vector(src)
    if sql:
        from .sql import _collect, execute_sql
        name = os.path.splitext(os.path.basename(src))[0]
        t = _collect(execute_sql(sql, {name: ds, "layer": ds}))
        out = t.to_pylist()
    else:
        out = layer_info(ds)
    s = json.dumps(out, indent=2, default=str)
    print(s)
    return s


# ---------------------------------------------------------------------------
# gdal_contour (apps/gdal_contour_bin.cpp; library: polygonize.contour_*)
# ---------------------------------------------------------------------------

def gdal_contour(args: list) -> str:
    """gdal_contour -i interval [-off offset] [-p] src dst — iso-lines
    (or -p iso-polygons) as a vector file; attribute ``level``."""
    import pyarrow as pa

    from .polygonize import contour_lines, contour_polygons
    from .simpleformats import open_raster
    from .vectoropen import write_vector
    interval = float(_pop_opt(args, "-i", default="10"))
    offset = float(_pop_opt(args, "-off", default="0"))
    as_poly = _pop_flag(args, "-p")
    src, dst = args
    arr, gt, _ = open_raster(src)
    band = np.asarray(arr, np.float64)
    band = band[:, :, 0] if band.ndim == 3 else band
    lo = np.floor((band.min() - offset) / interval) * interval + offset
    levels = [lo + i * interval for i in
              range(1, int((band.max() - lo) / interval) + 1)]
    gt = gt or (0.0, 1.0, 0.0, band.shape[0], 0.0, -1.0)
    lvl_col, wkbs = [], []
    if as_poly:
        for _b, lo_lv, _hi, wkb, _n in contour_polygons(band, levels, gt):
            lvl_col.append(float(lo_lv) if np.isfinite(lo_lv) else
                           float(band.min()))
            wkbs.append(wkb)
    else:
        from .curves import wkb_linestring
        for level, lines in contour_lines(band, levels, gt).items():
            for ln in lines:
                lvl_col.append(float(level))
                wkbs.append(wkb_linestring(ln))
    t = pa.table({"level": pa.array(lvl_col, pa.float64()),
                  "wkb": pa.array(wkbs, pa.binary())})
    return write_vector(t, dst)


# ---------------------------------------------------------------------------
# gdal_rasterize (apps/gdal_rasterize_lib.cpp; library: rasterize_polygons)
# ---------------------------------------------------------------------------

def gdal_rasterize(args: list) -> str:
    """gdal_rasterize [-burn v | -a attr] [-ts w h]
    [-te xmin ymin xmax ymax] [-at] [-add] src dst"""
    from .geom import PackedPolygons, wkb_envelope
    from .rasterize import rasterize_polygons
    from .vectoropen import open_vector
    burn = _pop_opt(args, "-burn")
    attr = _pop_opt(args, "-a")
    ts = _pop_opt(args, "-ts", 2, default=["256", "256"])
    te = _pop_opt(args, "-te", 4)
    all_touched = _pop_flag(args, "-at")
    merge = "add" if _pop_flag(args, "-add") else "replace"
    src, dst = args
    import pyarrow as pa
    t = open_vector(src)
    if not isinstance(t, pa.Table):
        t = pa.concat_tables(list(
            t.iter_batches(batch_size=65536, batch_format="pyarrow")))
    wkbs = [w.as_py() for w in t["wkb"]]
    if te:
        xmin, ymin, xmax, ymax = (float(v) for v in te)
    else:
        envs = np.array([wkb_envelope(w) for w in wkbs])
        xmin, ymin = envs[:, 0].min(), envs[:, 1].min()
        xmax, ymax = envs[:, 2].max(), envs[:, 3].max()
    w_px, h_px = int(ts[0]), int(ts[1])
    gt = (xmin, (xmax - xmin) / w_px, 0.0, ymax, 0.0,
          -(ymax - ymin) / h_px)
    polys = PackedPolygons.from_wkb(wkbs)
    if attr:
        burn_values = np.asarray(t[attr].to_pylist(), np.float64)
    else:
        burn_values = np.full(len(wkbs), float(burn or 1.0))
    out = rasterize_polygons(polys, gt, (h_px, w_px),
                             burn_values=burn_values,
                             all_touched=all_touched, merge_alg=merge)
    return _write_raster(out.astype(np.float32), gt, dst)


# ---------------------------------------------------------------------------
# gdal_polygonize (apps/gdal_polygonize_bin + alg/polygonize.cpp)
# ---------------------------------------------------------------------------

def gdal_polygonize(args: list) -> str:
    """gdal_polygonize [-8] [-nomask] src dst — connected equal-value
    regions → polygons with a ``DN`` attribute (GDAL's field name)."""
    import pyarrow as pa

    from .polygonize import polygonize
    from .simpleformats import open_raster
    from .vectoropen import write_vector
    connect8 = _pop_flag(args, "-8")
    _pop_flag(args, "-nomask")
    src, dst = args
    arr, gt, nodata = open_raster(src)
    band = np.asarray(arr)
    band = band[:, :, 0] if band.ndim == 3 else band
    rows = polygonize(band, gt, connect8=connect8, exclude_value=nodata)
    t = pa.table({"DN": pa.array([float(v) for v, _, _ in rows],
                                 pa.float64()),
                  "pixel_count": pa.array([int(n) for _, _, n in rows],
                                          pa.int64()),
                  "wkb": pa.array([w for _, w, _ in rows], pa.binary())})
    return write_vector(t, dst)


# ---------------------------------------------------------------------------
# gdallocationinfo / gdaltransform / gdal_calc / gdal_merge / ogrmerge
# ---------------------------------------------------------------------------

def gdallocationinfo(args: list) -> str:
    """gdallocationinfo [-geoloc] [-r near|bilinear] src x y [x y …]"""
    from .rasterize import sample_at_points
    from .simpleformats import open_raster
    _pop_flag(args, "-geoloc")
    method = _pop_opt(args, "-r", default="near")
    src, *coords = args
    arr, gt, _ = open_raster(src)
    gt = gt or (0.0, 1.0, 0.0, 0.0, 0.0, 1.0)
    px = np.array([float(v) for v in coords[0::2]])
    py = np.array([float(v) for v in coords[1::2]])
    vals = sample_at_points(np.asarray(arr), gt, px, py, method=method)
    s = "\n".join(f"{x} {y} -> {v}" for x, y, v in zip(px, py, vals))
    print(s)
    return s


def gdaltransform(args: list) -> str:
    """gdaltransform -s_srs A -t_srs B  (coordinate pairs on stdin,
    ``x y`` per line — the reference's filter-style tool)."""
    from .raster import _crs_to_latlon, _latlon_to_crs
    s_srs = _pop_opt(args, "-s_srs", default="EPSG:4326")
    t_srs = _pop_opt(args, "-t_srs", default="EPSG:3857")
    pts = [line.split() for line in sys.stdin if line.strip()]
    xs = np.array([float(p[0]) for p in pts])
    ys = np.array([float(p[1]) for p in pts])
    lat, lon = _crs_to_latlon(s_srs, xs, ys)
    X, Y = _latlon_to_crs(t_srs, lat, lon)
    out = "\n".join(f"{x!r} {y!r}" for x, y in zip(X, Y))
    print(out)
    return out


def gdal_calc(args: list) -> str:
    """gdal_calc -A a.tif [-B b.tif …] --calc "A*2+B" --outfile out.tif
    [--NoDataValue v] — restricted-namespace numpy expression
    (gdal-utils gdal_calc.py; library: raster.pixel_calc)."""
    from .raster import pixel_calc
    from .simpleformats import open_raster
    expr = _pop_opt(args, "--calc")
    outfile = _pop_opt(args, "--outfile")
    nodata = _pop_opt(args, "--NoDataValue")
    bands = {}
    gt = None
    for name in "ABCDEFGH":
        p = _pop_opt(args, f"-{name}")
        if p is None:
            continue
        arr, g, _ = open_raster(p)
        a = np.asarray(arr, np.float64)
        bands[name] = a[:, :, 0] if a.ndim == 3 else a
        gt = gt or g
    if not expr or not outfile or not bands:
        raise SystemExit("gdal_calc needs -A …, --calc and --outfile")
    out = pixel_calc(expr, **bands)
    return _write_raster(out.astype(np.float32), gt, outfile,
                         nodata=float(nodata) if nodata else None)


def gdal_merge(args: list) -> str:
    """gdal_merge -o out.tif src1 src2 … [-n nodata] — mosaic through
    the VRT machinery (union extent, later files over earlier)."""
    import os
    import tempfile

    from .vrtfile import vrt_build, vrt_read
    out = _pop_opt(args, "-o")
    nodata = _pop_opt(args, "-n")
    paths = args
    with tempfile.TemporaryDirectory() as td:
        v = os.path.join(td, "m.vrt")
        vrt_build(paths, v,
                  nodata=float(nodata) if nodata is not None else None)
        arr, gt, _ = vrt_read(v)
    return _write_raster(arr, gt, out,
                         nodata=float(nodata) if nodata else None)


def ogrmerge(args: list) -> str:
    """ogrmerge -o out src1 src2 … [-single] — append layers into one
    output (gdal-utils ogrmerge.py; single-layer union semantics)."""
    import pyarrow as pa

    from .vectoropen import open_vector, write_vector
    out = _pop_opt(args, "-o")
    _pop_flag(args, "-single")
    tables = []
    for src in args:
        t = open_vector(src)
        if not isinstance(t, pa.Table):
            t = pa.concat_tables(list(
                t.iter_batches(batch_size=65536, batch_format="pyarrow")))
        tables.append(t)
    merged = pa.concat_tables(tables, promote_options="default")
    return write_vector(merged, out)


# ---------------------------------------------------------------------------
# analysis apps (apps/gdal_grid.cpp, gdal_viewshed.cpp,
# gdal_footprint_lib.cpp, nearblack_lib.cpp; gdal-utils gdal_proximity.py,
# gdal_sieve.py, gdal_fillnodata.py, gdal_pansharpen.py, gdal2xyz.py)
# ---------------------------------------------------------------------------

def _vector_points(src: str):
    """(x, y, table) arrays from any vector source's point wkb column."""
    import pyarrow as pa

    from .geom import parse_wkb
    from .vectoropen import open_vector
    t = open_vector(src)
    if not isinstance(t, pa.Table):
        t = pa.concat_tables(list(
            t.iter_batches(batch_size=65536, batch_format="pyarrow")))
    xy = np.array([parse_wkb(w.as_py())[1] for w in t["wkb"]], np.float64)
    return xy[:, 0], xy[:, 1], t


def gdal_grid(args: list) -> str:
    """gdal_grid -a alg[:k=v:…] [-zfield f] -txe xmin xmax
    -tye ymax ymin -outsize w h src dst  (alg/gdalgrid.cpp; library:
    rasterize.grid_invdist/nearest/average/metrics)"""
    from .rasterize import (grid_average, grid_invdist, grid_linear,
                            grid_metrics, grid_nearest)
    spec = _pop_opt(args, "-a", default="invdist")
    zfield = _pop_opt(args, "-zfield", default="z")
    txe = _pop_opt(args, "-txe", 2)
    tye = _pop_opt(args, "-tye", 2)
    outsize = _pop_opt(args, "-outsize", 2, default=["256", "256"])
    src, dst = args
    px, py, t = _vector_points(src)
    pv = (np.asarray(t[zfield].to_numpy(zero_copy_only=False), np.float64)
          if zfield in t.column_names else np.ones(len(px)))
    alg, _, rest = spec.partition(":")
    kw = dict(kv.split("=", 1) for kv in rest.split(":") if "=" in kv)
    if txe:
        xmin, xmax = float(txe[0]), float(txe[1])
    else:
        xmin, xmax = float(px.min()), float(px.max())
    if tye:
        ymax, ymin = float(tye[0]), float(tye[1])
        if ymax < ymin:
            ymax, ymin = ymin, ymax
    else:
        ymin, ymax = float(py.min()), float(py.max())
    w_px, h_px = int(outsize[0]), int(outsize[1])
    gt = (xmin, (xmax - xmin) / w_px, 0.0, ymax, 0.0,
          -(ymax - ymin) / h_px)
    shape = (h_px, w_px)
    radius = float(kw.get("radius", kw.get("radius1", 0.0)))
    nodata = float(kw.get("nodata", 0.0))
    if alg == "invdist":
        out = grid_invdist(px, py, pv, gt, shape,
                           power=float(kw.get("power", 2.0)),
                           smoothing=float(kw.get("smoothing", 0.0)),
                           radius=radius, nodata=nodata)
    elif alg == "nearest":
        out = grid_nearest(px, py, pv, gt, shape)
    elif alg == "linear":
        out = grid_linear(px, py, pv, gt, shape,
                          radius=float(kw.get("radius", -1.0)),
                          nodata=nodata)
    elif alg == "average":
        out = grid_average(px, py, pv, gt, shape,
                           radius=radius or 1.0, nodata=nodata)
    else:                                        # minimum/maximum/range/…
        out = grid_metrics(px, py, pv, gt, shape, radius=radius or 1.0,
                           metric=alg, nodata=nodata)
    return _write_raster(out.astype(np.float32), gt, dst)


def gdal_viewshed(args: list) -> str:
    """gdal_viewshed -ox X -oy Y [-oz h] [-tz h] src dst — observer at
    GEOREFERENCED (X, Y) like the reference (apps/gdal_viewshed.cpp;
    library: raster.viewshed)."""
    from .raster import viewshed
    from .simpleformats import open_raster
    ox = float(_pop_opt(args, "-ox"))
    oy = float(_pop_opt(args, "-oy"))
    oz = float(_pop_opt(args, "-oz", default="2"))
    tz = float(_pop_opt(args, "-tz", default="0"))
    _pop_opt(args, "-b")
    src, dst = args
    arr, gt, _ = open_raster(src)
    band = np.asarray(arr, np.float64)
    band = band[:, :, 0] if band.ndim == 3 else band
    gt = gt or (0.0, 1.0, 0.0, 0.0, 0.0, 1.0)
    col = int((ox - gt[0]) / gt[1])
    row = int((oy - gt[3]) / gt[5])
    vis = viewshed(band, col, row, observer_height=oz, target_height=tz,
                   cellsize=abs(gt[1]))
    return _write_raster((vis * 255).astype(np.uint8), gt, dst)


def gdal_footprint(args: list) -> str:
    """gdal_footprint [-srcnodata v] src dst — valid-data mask polygon
    (apps/gdal_footprint_lib.cpp; library: polygonize.footprint)."""
    import pyarrow as pa

    from .polygonize import footprint
    from .simpleformats import open_raster
    from .vectoropen import write_vector
    srcnodata = _pop_opt(args, "-srcnodata")
    src, dst = args
    arr, gt, nodata = open_raster(src)
    band = np.asarray(arr)
    band = band[:, :, 0] if band.ndim == 3 else band
    nd = float(srcnodata) if srcnodata is not None else (
        nodata if nodata is not None else 0)
    wkb, n_valid = footprint(band, gt=gt, nodata=nd)
    rows = ([] if wkb is None
            else [(wkb, n_valid)])
    t = pa.table({"wkb": pa.array([r[0] for r in rows], pa.binary()),
                  "n_valid": pa.array([r[1] for r in rows], pa.int64())})
    return write_vector(t, dst)


def gdal_proximity(args: list) -> str:
    """gdal_proximity src dst [-values v[,v…]] [-maxdist d]
    [-distunits PIXEL|GEO]  (gdal-utils gdal_proximity.py; library:
    morph.proximity — exact EDT)."""
    from .morph import proximity
    from .simpleformats import open_raster
    values = _pop_opt(args, "-values")
    maxdist = _pop_opt(args, "-maxdist")
    units = _pop_opt(args, "-distunits", default="PIXEL").upper()
    _pop_opt(args, "-ot")
    src, dst = args
    arr, gt, _ = open_raster(src)
    band = np.asarray(arr)
    band = band[:, :, 0] if band.ndim == 3 else band
    if values:
        targets = np.isin(band, [float(v) for v in values.split(",")])
    else:
        targets = band != 0
    cs = abs(gt[1]) if (gt and units == "GEO") else 1.0
    out = proximity(targets, cellsize=cs,
                    max_dist=float(maxdist) if maxdist else None)
    return _write_raster(out.astype(np.float32),
                         gt or (0, 1, 0, band.shape[0], 0, -1), dst)


def gdal_sieve(args: list) -> str:
    """gdal_sieve -st threshold [-8] src dst (gdal-utils gdal_sieve.py;
    library: morph.sieve_filter)."""
    from .morph import sieve_filter
    from .simpleformats import open_raster
    st = int(_pop_opt(args, "-st", default="2"))
    connect8 = _pop_flag(args, "-8")
    _pop_flag(args, "-4")
    src, dst = args
    arr, gt, _ = open_raster(src)
    band = np.asarray(arr)
    band = band[:, :, 0] if band.ndim == 3 else band
    out = sieve_filter(band, st, connect8=connect8)
    return _write_raster(out.astype(band.dtype),
                         gt or (0, 1, 0, band.shape[0], 0, -1), dst)


def gdal_fillnodata(args: list) -> str:
    """gdal_fillnodata -md max_search [-nodata v] [-si n] src dst
    (gdal-utils gdal_fillnodata.py; library: morph.fill_nodata)."""
    from .morph import fill_nodata
    from .simpleformats import open_raster
    md = int(_pop_opt(args, "-md", default="16"))
    si = int(_pop_opt(args, "-si", default="0"))
    nd_opt = _pop_opt(args, "-nodata")
    src, dst = args
    arr, gt, nodata = open_raster(src)
    band = np.asarray(arr, np.float64)
    band = band[:, :, 0] if band.ndim == 3 else band
    nd = float(nd_opt) if nd_opt is not None else (
        nodata if nodata is not None else 0.0)
    out = fill_nodata(band, band == nd, max_search=md,
                      smoothing_iterations=si)
    return _write_raster(out.astype(np.float32),
                         gt or (0, 1, 0, band.shape[0], 0, -1), dst)


def gdal_pansharpen(args: list) -> str:
    """gdal_pansharpen pan ms dst [-w w1 -w w2 …] — weighted Brovey
    (gdal-utils gdal_pansharpen.py; library: raster.pansharpen_brovey).
    The multispectral input is bilinearly upsampled to pan resolution."""
    from .raster import pansharpen_brovey
    from .simpleformats import open_raster
    from .tiles import _scale_to
    weights = []
    while "-w" in args:
        weights.append(float(_pop_opt(args, "-w")))
    pan_p, ms_p, dst = args
    pan, gt, _ = open_raster(pan_p)
    pan = np.asarray(pan)
    pan = pan[:, :, 0] if pan.ndim == 3 else pan
    ms, _, _ = open_raster(ms_p)
    ms = np.asarray(ms)
    if ms.ndim == 2:
        ms = ms[:, :, None]
    ph, pw = pan.shape
    if ms.shape[:2] != (ph, pw):
        ms = np.stack([_scale_to(ms[:, :, b].astype(np.float64), ph, pw,
                                 "bilinear")
                       for b in range(ms.shape[2])], axis=2)
    out = pansharpen_brovey(pan, ms, weights=weights or None)
    return _write_raster(out, gt, dst)


def nearblack_app(args: list) -> str:
    """nearblack [-near n] [-white] [-o dst] src
    (apps/nearblack_lib.cpp; library: raster.nearblack)."""
    from .raster import nearblack
    from .simpleformats import open_raster
    near = int(_pop_opt(args, "-near", default="15"))
    white = _pop_flag(args, "-white")
    dst = _pop_opt(args, "-o")
    (src,) = args
    dst = dst or src
    arr, gt, _ = open_raster(src)
    out = nearblack(np.asarray(arr), near=near, white=white)
    return _write_raster(out, gt, dst)


def gdal2xyz(args: list) -> str:
    """gdal2xyz [-skip n] [-skipnodata] [-band b] src dst — one
    ``x y value`` line per pixel center (gdal-utils gdal2xyz.py;
    library: raster.raster_to_xyz is the Dataset-scale path)."""
    from .simpleformats import open_raster
    skip = int(_pop_opt(args, "-skip", default="1"))
    skipnodata = _pop_flag(args, "-skipnodata")
    band_n = int(_pop_opt(args, "-band", default="1"))
    src, dst = args
    arr, gt, nodata = open_raster(src)
    band = np.asarray(arr, np.float64)
    band = band[:, :, band_n - 1] if band.ndim == 3 else band
    gt = gt or (0.0, 1.0, 0.0, 0.0, 0.0, 1.0)
    h, w = band.shape
    ys, xs = np.mgrid[0:h:skip, 0:w:skip]
    gx = gt[0] + (xs + 0.5) * gt[1] + (ys + 0.5) * gt[2]
    gy = gt[3] + (xs + 0.5) * gt[4] + (ys + 0.5) * gt[5]
    v = band[ys, xs]
    if skipnodata and nodata is not None:
        keep = v != nodata
        gx, gy, v = gx[keep], gy[keep], v[keep]
    with open(dst, "w") as f:
        for x, y, z in zip(gx.ravel(), gy.ravel(), v.ravel()):
            f.write(f"{x} {y} {z}\n")
    return dst


# ---------------------------------------------------------------------------
# management / pyramid / index apps (apps/gdaladdo.cpp, gdalmanage.cpp,
# gdaltindex_lib.cpp, ogrtindex.cpp, gdal_create.cpp; gdal-utils
# gdal_edit.py, gdalmove.py, gdal_retile.py)
# ---------------------------------------------------------------------------

def gdaladdo(args: list) -> str:
    """gdaladdo [-r average] src 2 4 8 — rebuild ``src`` as a tiled COG
    whose overview pyramid has exactly len(levels) reduced-resolution
    IFDs (apps/gdaladdo.cpp; library: gtiff.cog_encode)."""
    from .gtiff import cog_encode, tiff_decode
    _pop_opt(args, "-r")                       # pyramid kernel: average
    src, *levels = args
    n = max(1, len(levels))
    arr, meta = tiff_decode(open(src, "rb").read())
    m = max(np.asarray(arr).shape[:2])
    blob = cog_encode(np.asarray(arr), geotransform=meta.get("geotransform"),
                      min_overview=max(2, m >> (n - 1)))
    with open(src, "wb") as f:
        f.write(blob)
    return src


def gdal_create(args: list) -> str:
    """gdal_create -outsize w h [-bands n] [-burn v] [-a_ullr ulx uly
    lrx lry] dst (apps/gdal_create.cpp)."""
    outsize = _pop_opt(args, "-outsize", 2)
    bands = int(_pop_opt(args, "-bands", default="1"))
    burn = float(_pop_opt(args, "-burn", default="0"))
    ullr = _pop_opt(args, "-a_ullr", 4)
    _pop_opt(args, "-ot")
    (dst,) = args
    w, h = int(outsize[0]), int(outsize[1])
    arr = np.full((h, w) if bands == 1 else (h, w, bands), burn,
                  np.float32 if burn != int(burn) else np.uint8)
    gt = None
    if ullr:
        ulx, uly, lrx, lry = (float(v) for v in ullr)
        gt = (ulx, (lrx - ulx) / w, 0.0, uly, 0.0, (lry - uly) / h)
    return _write_raster(arr, gt, dst)


def gdal_edit(args: list) -> str:
    """gdal_edit [-a_ullr ulx uly lrx lry] [-a_nodata v] [-a_srs crs]
    src — in-place georeferencing edit; pixels are rewritten untouched
    (gdal-utils gdal_edit.py)."""
    from .gtiff import tiff_decode, tiff_encode
    ullr = _pop_opt(args, "-a_ullr", 4)
    _pop_opt(args, "-a_nodata")
    srs = _pop_opt(args, "-a_srs")
    (src,) = args
    arr, meta = tiff_decode(open(src, "rb").read())
    gt = meta.get("geotransform")
    if ullr:
        h, w = np.asarray(arr).shape[:2]
        ulx, uly, lrx, lry = (float(v) for v in ullr)
        gt = (ulx, (lrx - ulx) / w, 0.0, uly, 0.0, (lry - uly) / h)
    with open(src, "wb") as f:
        f.write(tiff_encode(np.asarray(arr), geotransform=gt,
                            crs=srs or meta.get("crs")))
    return src


def gdalmove(args: list) -> str:
    """gdalmove -shift dx dy src — translate the geotransform origin
    (gdal-utils gdalmove.py's affine update, pixel data untouched)."""
    from .gtiff import tiff_decode, tiff_encode
    shift = _pop_opt(args, "-shift", 2, default=["0", "0"])
    (src,) = args
    arr, meta = tiff_decode(open(src, "rb").read())
    gt = meta.get("geotransform") or (0, 1, 0, 0, 0, 1)
    gt = (gt[0] + float(shift[0]), gt[1], gt[2],
          gt[3] + float(shift[1]), gt[4], gt[5])
    with open(src, "wb") as f:
        f.write(tiff_encode(np.asarray(arr), geotransform=gt,
                            crs=meta.get("crs")))
    return src


def gdal_retile(args: list) -> str:
    """gdal_retile -ps w h -targetDir dir src — cut into
    ``<stem>_<row>_<col>.tif`` tiles with shifted geotransforms
    (gdal-utils gdal_retile.py; library: tiles.* is the Dataset path)."""
    import os

    from .simpleformats import open_raster
    ps = _pop_opt(args, "-ps", 2, default=["256", "256"])
    tdir = _pop_opt(args, "-targetDir", default=".")
    (src,) = args
    arr, gt, _ = open_raster(src)
    arr = np.asarray(arr)
    tw, th = int(ps[0]), int(ps[1])
    gt = gt or (0.0, 1.0, 0.0, 0.0, 0.0, -1.0)
    stem = os.path.splitext(os.path.basename(src))[0]
    os.makedirs(tdir, exist_ok=True)
    outs = []
    h, w = arr.shape[:2]
    for r, y in enumerate(range(0, h, th)):
        for c, x in enumerate(range(0, w, tw)):
            sub = arr[y:y + th, x:x + tw]
            sub_gt = (gt[0] + x * gt[1], gt[1], gt[2],
                      gt[3] + y * gt[5], gt[4], gt[5])
            p = os.path.join(tdir, f"{stem}_{r + 1}_{c + 1}.tif")
            _write_raster(sub, sub_gt, p)
            outs.append(p)
    return "\n".join(outs)


def gdaltindex(args: list) -> str:
    """gdaltindex out.x src1 src2 … — one polygon per raster extent with
    a ``location`` attribute (apps/gdaltindex_lib.cpp)."""
    import pyarrow as pa

    from .geom import box_ring, wkb_polygon
    from .simpleformats import open_raster
    from .vectoropen import write_vector
    _pop_opt(args, "-f")
    out, *srcs = args
    locs, wkbs = [], []
    for p in srcs:
        arr, gt, _ = open_raster(p)
        h, w = np.asarray(arr).shape[:2]
        gt = gt or (0.0, 1.0, 0.0, float(h), 0.0, -1.0)
        xs = (gt[0], gt[0] + w * gt[1])
        ys = (gt[3], gt[3] + h * gt[5])
        locs.append(p)
        wkbs.append(wkb_polygon([box_ring(min(xs), min(ys),
                                          max(xs), max(ys))]))
    t = pa.table({"location": pa.array(locs, pa.string()),
                  "wkb": pa.array(wkbs, pa.binary())})
    return write_vector(t, out)


def ogrtindex(args: list) -> str:
    """ogrtindex out.x src1 src2 … — one polygon per vector layer extent
    (apps/ogrtindex.cpp)."""
    import pyarrow as pa

    from .geom import box_ring, wkb_envelope, wkb_polygon
    from .vectoropen import open_vector, write_vector
    out, *srcs = args
    locs, wkbs = [], []
    for p in srcs:
        t = open_vector(p)
        if not isinstance(t, pa.Table):
            t = pa.concat_tables(list(
                t.iter_batches(batch_size=65536, batch_format="pyarrow")))
        envs = np.array([wkb_envelope(w.as_py()) for w in t["wkb"]])
        locs.append(p)
        wkbs.append(wkb_polygon([box_ring(envs[:, 0].min(),
                                          envs[:, 1].min(),
                                          envs[:, 2].max(),
                                          envs[:, 3].max())]))
    tt = pa.table({"location": pa.array(locs, pa.string()),
                   "wkb": pa.array(wkbs, pa.binary())})
    return write_vector(tt, out)


def gdalmanage(args: list) -> str:
    """gdalmanage identify|copy|rename|delete path [dst]
    (apps/gdalmanage.cpp; identify = the open_raster driver sniff)."""
    import os
    import shutil
    mode, *rest = args
    if mode == "identify":
        magic_map = [(b"II*\x00", "GTiff"), (b"MM\x00*", "GTiff"),
                     (b"II+\x00", "GTiff/BigTIFF"),
                     (b"\x89PNG", "PNG"), (b"\xff\xd8\xff", "JPEG"),
                     (b"RIFF", "WEBP"), (b"GIF8", "GIF"),
                     (b"BM", "BMP"), (b"NITF", "NITF"),
                     (b"UHL", "DTED")]
        for p in rest:
            if os.path.isdir(p):
                name = "Zarr" if os.path.exists(
                    os.path.join(p, ".zarray")) else "unknown"
            else:
                head = open(p, "rb").read(8)
                name = next((n for m, n in magic_map
                             if head.startswith(m)), None)
                if name is None:
                    name = {"asc": "AAIGrid", "xyz": "XYZ",
                            "hgt": "SRTMHGT", "vrt": "VRT",
                            "pgm": "PNM", "ppm": "PNM",
                            "dt0": "DTED", "dt1": "DTED"}.get(
                        p.lower().rsplit(".", 1)[-1], "unknown")
            print(f"{p}: {name}")
        return "identified"
    if mode == "copy":
        shutil.copyfile(rest[0], rest[1])
    elif mode == "rename":
        os.replace(rest[0], rest[1])
    elif mode == "delete":
        for p in rest:
            os.remove(p)
    else:
        raise SystemExit(f"gdalmanage: unknown mode {mode!r}")
    return mode


# ---------------------------------------------------------------------------
# color-table / enhancement / compare / srs apps (gdal-utils rgb2pct.py,
# pct2rgb.py, gdalattachpct.py, gdalcompare.py; apps/gdalenhance.cpp,
# gdalsrsinfo.cpp)
# ---------------------------------------------------------------------------

def rgb2pct(args: list) -> str:
    """rgb2pct [-n colors] src dst — median-cut palette + Floyd–Steinberg
    dither (gdal-utils rgb2pct.py; library: raster.median_cut_palette).
    A ``.gif`` destination stores the palette natively."""
    from .raster import dither_floyd_steinberg, median_cut_palette
    from .simpleformats import open_raster
    n = int(_pop_opt(args, "-n", default="256"))
    src, dst = args
    arr, gt, _ = open_raster(src)
    rgb = np.asarray(arr)
    pal = median_cut_palette(rgb, n)
    out = dither_floyd_steinberg(rgb, pal)
    return _write_raster(out, gt, dst)


def pct2rgb(args: list) -> str:
    """pct2rgb src dst — palette formats already decode to RGB here;
    this re-encodes as a plain RGB raster (gdal-utils pct2rgb.py)."""
    from .simpleformats import open_raster
    src, dst = args
    arr, gt, _ = open_raster(src)
    return _write_raster(np.asarray(arr), gt, dst)


def gdalattachpct(args: list) -> str:
    """gdalattachpct palette_src src dst — apply the palette file's color
    table to a single-band raster of palette indices
    (gdal-utils gdalattachpct.py)."""
    from .simpleformats import open_raster
    pal_p, src, dst = args
    pal_arr, _, _ = open_raster(pal_p)
    pal_arr = np.asarray(pal_arr).reshape(-1, 3)
    pal, idx = np.unique(pal_arr, axis=0, return_index=True)
    pal = pal[np.argsort(idx)][:256]              # first-appearance order
    arr, gt, _ = open_raster(src)
    band = np.asarray(arr)
    band = band[:, :, 0] if band.ndim == 3 else band
    out = pal[np.clip(band.astype(np.int64), 0, len(pal) - 1)]
    return _write_raster(out.astype(np.uint8), gt, dst)


def gdalenhance(args: list) -> str:
    """gdalenhance -equalize src dst — per-band histogram equalization
    LUT (apps/gdalenhance.cpp)."""
    from .simpleformats import open_raster
    _pop_flag(args, "-equalize")
    src, dst = args
    arr, gt, _ = open_raster(src)
    img = np.asarray(arr)
    flat = img.reshape(img.shape[0], img.shape[1], -1)
    out = np.empty_like(flat)
    for b in range(flat.shape[2]):
        band = flat[:, :, b]
        hist = np.bincount(band.ravel().astype(np.int64), minlength=256)
        cdf = hist.cumsum()
        nz = cdf[cdf > 0]
        if len(nz) == 0:
            out[:, :, b] = band
            continue
        lut = np.rint((cdf - nz[0]) / max(cdf[-1] - nz[0], 1)
                      * 255).astype(np.uint8)
        out[:, :, b] = lut[band.astype(np.int64)]
    return _write_raster(out.reshape(img.shape), gt, dst)


def gdalcompare(args: list) -> str:
    """gdalcompare golden new — difference count to stdout, like
    gdal-utils gdalcompare.py's findfile/compare_image (library:
    compare.compare_images is the Dataset-scale path)."""
    from .simpleformats import open_raster
    golden_p, new_p = args
    g, ggt, _ = open_raster(golden_p)
    n, ngt, _ = open_raster(new_p)
    g, n = np.asarray(g), np.asarray(n)
    diffs = 0
    if g.shape != n.shape:
        print(f"Difference: dimensions {g.shape} vs {n.shape}")
        diffs += 1
    elif not np.array_equal(g, n):
        print(f"Difference: pixels differ "
              f"(maxdiff={np.abs(g.astype(np.float64) - n).max()})")
        diffs += 1
    if (ggt or None) != (ngt or None):
        print(f"Difference: geotransform {ggt} vs {ngt}")
        diffs += 1
    print(f"Differences Found: {diffs}")
    return str(diffs)


def gdalsrsinfo(args: list) -> str:
    """gdalsrsinfo EPSG:code — the engine's resolved projection family +
    parameters (apps/gdalsrsinfo.cpp; library: mercator.resolve_crs)."""
    from .mercator import resolve_crs
    (crs,) = args
    kind, params = resolve_crs(crs)
    s = json.dumps({"crs": crs, "projection": kind,
                    "parameters": {k: v for k, v in params.items()
                                   if isinstance(v, (int, float, str,
                                                     bool))}})
    print(s)
    return s


# ---------------------------------------------------------------------------
# mdim / lineref / layer algebra apps (apps/gdalmdiminfo_lib.cpp,
# gdalmdimtranslate_lib.cpp, ogrlineref.cpp; gdal-utils ogr_layer_algebra.py)
# ---------------------------------------------------------------------------

def gdalmdiminfo(args: list) -> str:
    """gdalmdiminfo store — JSON description of a Zarr array
    (apps/gdalmdiminfo_lib.cpp; library: mdim.MDArray)."""
    from .zarrstore import zarr_meta
    (path,) = args
    meta = zarr_meta(path)
    s = json.dumps({"shape": list(meta["shape"]),
                    "chunks": list(meta["chunks"]),
                    "dtype": str(np.dtype(meta["dtype"])),
                    "fill_value": meta.get("fill_value")})
    print(s)
    return s


def gdalmdimtranslate(args: list) -> str:
    """gdalmdimtranslate [-window o0 n0 o1 n1 …] [-chunks c0 c1 …]
    src dst — window + re-chunk between Zarr stores
    (apps/gdalmdimtranslate_lib.cpp; library: mdim.mdim_translate)."""
    from .mdim import mdim_translate
    window = _pop_opt(args, "-window", 4)
    chunks = _pop_opt(args, "-chunks", 2)
    src, dst = args
    win = None
    if window:
        v = [int(x) for x in window]
        win = (slice(v[0], v[0] + v[1]), slice(v[2], v[2] + v[3]))
    mdim_translate(src, dst, window=win,
                   chunks=tuple(int(c) for c in chunks) if chunks
                   else None)
    return dst


def ogrlineref(args: list) -> str:
    """ogrlineref -create -l line -s step -o out | -get_coord -l line -m M
    | -get_pos -l line -x X -y Y | -get_subline -l line -mb m1 -me m2 -o out
    (apps/ogrlineref.cpp; library: georay.lineref)."""
    import pyarrow as pa

    from .curves import linearize_wkb, wkb_linestring
    from .lineref import (create_mileposts, locate_points,
                          point_at_measure, subline)
    from .geom import wkb_point
    from .vectoropen import open_vector, write_vector
    line_p = _pop_opt(args, "-l")
    t = open_vector(line_p)
    if not isinstance(t, pa.Table):
        t = pa.concat_tables(list(
            t.iter_batches(batch_size=65536, batch_format="pyarrow")))
    kind, curves = linearize_wkb(t["wkb"][0].as_py())
    xy = np.asarray(curves[0], np.float64)
    if _pop_flag(args, "-create"):
        step = float(_pop_opt(args, "-s", default="1"))
        out = _pop_opt(args, "-o")
        mp = create_mileposts(xy, step)
        tt = pa.table({
            "measure": pa.array(mp[:, 2], pa.float64()),
            "wkb": pa.array([wkb_point(float(x), float(y))
                             for x, y in mp[:, :2]], pa.binary())})
        return write_vector(tt, out)
    if _pop_flag(args, "-get_coord"):
        m = float(_pop_opt(args, "-m", default="0"))
        x, y = point_at_measure(xy, m)[0]
        s = f"{float(x)} {float(y)}"
        print(s)
        return s
    if _pop_flag(args, "-get_pos"):
        x = float(_pop_opt(args, "-x"))
        y = float(_pop_opt(args, "-y"))
        m = locate_points(xy, np.array([x]), np.array([y]))[0][0]
        s = f"{float(m)}"
        print(s)
        return s
    if _pop_flag(args, "-get_subline"):
        m1 = float(_pop_opt(args, "-mb", default="0"))
        m2 = float(_pop_opt(args, "-me", default="0"))
        out = _pop_opt(args, "-o")
        sub = subline(xy, m1, m2)
        tt = pa.table({"wkb": pa.array([wkb_linestring(sub)],
                                       pa.binary())})
        return write_vector(tt, out)
    raise SystemExit("ogrlineref: need -create | -get_coord | -get_pos "
                     "| -get_subline")


def ogr_layer_algebra(args: list) -> str:
    """ogr_layer_algebra Union|Intersection|Difference|SymDifference|
    Identity|Update|Clip|Erase -input_ds a -method_ds b -output_ds out
    (gdal-utils ogr_layer_algebra.py; library: overlay.*_layers)."""
    import pyarrow as pa

    from . import overlay
    from .vectoropen import open_vector, write_vector
    op = args.pop(0).lower()
    a_p = _pop_opt(args, "-input_ds")
    b_p = _pop_opt(args, "-method_ds")
    out = _pop_opt(args, "-output_ds")

    def load(p):
        t = open_vector(p)
        if not isinstance(t, pa.Table):
            t = pa.concat_tables(list(
                t.iter_batches(batch_size=65536, batch_format="pyarrow")))
        return t

    a, b = load(a_p), load(b_p)
    if "polygon_id" not in b.column_names:
        b = b.append_column(
            "polygon_id", pa.array([str(i) for i in range(len(b))],
                                   pa.string()))
    import ray.data
    ds = ray.data.from_arrow(a)
    if op == "identity":
        res = overlay.identity_layers(ds, b)
    elif op == "update":
        res = overlay.update_layers(ds, b)
    else:
        op = {"clip": "intersection", "erase": "difference"}.get(op, op)
        res = overlay.overlay_layers(ds, b, op=op)
    return write_vector(res, out)


_APPS = {"gdal_translate": gdal_translate, "ogr2ogr": ogr2ogr,
         "gdalwarp": gdalwarp, "gdaldem": gdaldem,
         "gdalbuildvrt": gdalbuildvrt, "gdal2tiles": gdal2tiles,
         "gdalinfo": gdalinfo, "ogrinfo": ogrinfo,
         "gdal_contour": gdal_contour, "gdal_rasterize": gdal_rasterize,
         "gdal_polygonize": gdal_polygonize,
         "gdallocationinfo": gdallocationinfo,
         "gdaltransform": gdaltransform, "gdal_calc": gdal_calc,
         "gdal_merge": gdal_merge, "ogrmerge": ogrmerge,
         "gdal_grid": gdal_grid, "gdal_viewshed": gdal_viewshed,
         "gdal_footprint": gdal_footprint,
         "gdal_proximity": gdal_proximity, "gdal_sieve": gdal_sieve,
         "gdal_fillnodata": gdal_fillnodata,
         "gdal_pansharpen": gdal_pansharpen, "nearblack": nearblack_app,
         "gdal2xyz": gdal2xyz,
         "gdaladdo": gdaladdo, "gdal_create": gdal_create,
         "gdal_edit": gdal_edit, "gdalmove": gdalmove,
         "gdal_retile": gdal_retile, "gdaltindex": gdaltindex,
         "ogrtindex": ogrtindex, "gdalmanage": gdalmanage,
         "rgb2pct": rgb2pct, "pct2rgb": pct2rgb,
         "gdalattachpct": gdalattachpct, "gdalenhance": gdalenhance,
         "gdalcompare": gdalcompare, "gdalsrsinfo": gdalsrsinfo,
         "gdalmdiminfo": gdalmdiminfo,
         "gdalmdimtranslate": gdalmdimtranslate,
         "ogrlineref": ogrlineref,
         "ogr_layer_algebra": ogr_layer_algebra}


def _gdal_unified(args):
    from .gdalcli import gdal
    return gdal(args)


# unified `gdal` command (GDAL 3.11 apps/gdalalg_main.cpp)
_APPS["gdal"] = _gdal_unified


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] in ("-h", "--help"):
        print("usage: python -m georay <app> [options] ...\napps: "
              + " ".join(sorted(_APPS)))
        return 0
    app = argv.pop(0)
    fn = _APPS.get(app)
    if fn is None:
        raise SystemExit(f"unknown app {app!r} (have: "
                         f"{', '.join(sorted(_APPS))})")
    fn(argv)
    return 0
