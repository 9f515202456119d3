"""Raster compute operators over decoded image rows — the gdal_translate /
gdal_calc / gdaldem / gdalwarp per-pixel families (SURVEY.md §2.2, §2.7),
as pure-numpy kernels + ``map_batches`` wrappers.

All kernels take/return numpy arrays; the batch wrappers operate on rows
holding a ``pixels`` buffer (uint8 RGB) or a single-band float array, and
are stateless → plain-task ``map_batches``.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from .decode import pixel_arrays, with_pixels

__all__ = [
    "pixel_calc", "translate_window", "translate_scale",
    "expand_palette", "translate_unscale",
    "hillshade", "slope", "aspect", "tri", "tpi", "roughness",
    "warp_affine_mercator", "translate_images", "dem_derivatives",
    "pansharpen_brovey", "median_cut_palette", "dither_floyd_steinberg",
    "color_relief", "pixel_function",
    "viewshed", "edit_metadata", "nearblack", "dem_tiled",
]


# ---------------------------------------------------------------------------
# gdal_calc / VRT pixel functions (frmts/vrt/pixelfunctions.cpp:1618-1690;
# osgeo_utils/gdal_calc.py:69-135)
# ---------------------------------------------------------------------------

_CALC_NAMESPACE = {
    "sqrt": np.sqrt, "log10": np.log10, "log": np.log, "exp": np.exp,
    "abs": np.abs, "minimum": np.minimum, "maximum": np.maximum,
    "where": np.where, "sin": np.sin, "cos": np.cos, "tan": np.tan,
    "power": np.power, "real": np.real, "imag": np.imag,
    "conj": np.conjugate, "angle": np.angle, "pi": np.pi, "e": np.e,
}


def pixel_calc(expr: str, **bands) -> np.ndarray:
    """Evaluate a gdal_calc-style numpy expression over named band arrays:
    ``pixel_calc("(A + B) / 2", A=a, B=b)``.  The namespace is restricted
    to numpy ufuncs (no builtins) — the engine's VRT derived-band /
    gdal_calc surface."""
    ns = dict(_CALC_NAMESPACE)
    ns.update(bands)
    return eval(expr, {"__builtins__": {}}, ns)  # noqa: S307 — restricted ns


# Named VRT pixel functions (frmts/vrt/pixelfunctions.cpp:1618-1690
# registry).  Each takes the source band list (float64 arrays) + keyword
# args and returns one band — ``pixel_function(name, bands, **kw)``.
_VRT_PIXEL_FUNCS = {
    "real": lambda b: np.real(b[0]),
    "imag": lambda b: np.imag(b[0]),
    "complex": lambda b: b[0] + 1j * b[1],
    "polar": lambda b, amplitude_type="AMPLITUDE": (
        (b[0] if amplitude_type == "AMPLITUDE" else
         np.sqrt(np.maximum(b[0], 0)) if amplitude_type == "INTENSITY"
         else 10.0 ** (b[0] / 20.0)) * np.exp(1j * b[1])),
    "mod": lambda b: np.abs(b[0]),
    "phase": lambda b: np.angle(b[0]),
    "conj": lambda b: np.conjugate(b[0]),
    "sum": lambda b, k=0.0: sum(b) + k,
    "diff": lambda b: b[0] - b[1],
    "mul": lambda b, k=1.0: np.prod(np.stack(b), axis=0) * k,
    "div": lambda b: np.divide(b[0], b[1],
                               out=np.full_like(np.asarray(b[0], float),
                                                np.nan),
                               where=np.asarray(b[1]) != 0),
    "cmul": lambda b: b[0] * np.conjugate(b[1]),
    "inv": lambda b, k=1.0: np.divide(
        k, b[0], out=np.full_like(np.asarray(b[0], float), np.nan),
        where=np.asarray(b[0]) != 0),
    "intensity": lambda b: (b[0] * np.conjugate(b[0])).real,
    "sqrt": lambda b: np.sqrt(b[0]),
    "log10": lambda b: np.log10(b[0]),
    "dB": lambda b, fact=20.0: fact * np.log10(np.abs(b[0])),
    "exp": lambda b, base=np.e, fact=1.0: base ** (fact * b[0]),
    "dB2amp": lambda b: 10.0 ** (b[0] / 20.0),
    "dB2pow": lambda b: 10.0 ** (b[0] / 10.0),
    "pow": lambda b, power=1.0: b[0] ** power,
    "interpolate_linear": lambda b, t0=0.0, dt=1.0, t=0.0: (
        b[0] + (b[1] - b[0]) * ((t - t0) / dt if dt else 0.0)),
    "interpolate_exp": lambda b, t0=0.0, dt=1.0, t=0.0: (
        b[0] * np.exp(np.log(np.maximum(b[1], 1e-300)
                             / np.maximum(b[0], 1e-300))
                      * ((t - t0) / dt if dt else 0.0))),
    "scale": lambda b, offset=0.0, scale=1.0: b[0] * scale + offset,
    "nan": lambda b, to_nan=0.0: np.where(b[0] == to_nan, np.nan, b[0]),
    "min": lambda b: np.minimum.reduce(list(b)),
    "max": lambda b: np.maximum.reduce(list(b)),
    "norm_diff": lambda b: np.divide(
        b[0] - b[1], b[0] + b[1],
        out=np.full_like(np.asarray(b[0], float), np.nan),
        where=(np.asarray(b[0]) + np.asarray(b[1])) != 0),
}


def pixel_function(name: str, bands, **kwargs) -> np.ndarray:
    """Apply a named VRT pixel function (the reference's built-in registry,
    pixelfunctions.cpp) to a list of band arrays.  Custom functions can be
    registered by inserting into ``_VRT_PIXEL_FUNCS`` — the
    GDALAddDerivedBandPixelFunc extension point."""
    fn = _VRT_PIXEL_FUNCS.get(name)
    if fn is None:
        raise KeyError(f"unknown VRT pixel function {name!r}")
    bands = [np.asarray(b) for b in bands]
    return fn(bands, **kwargs) if kwargs else fn(bands)


# ---------------------------------------------------------------------------
# gdal_translate window / resize / scale (apps/gdal_translate_lib.cpp:112-276)
# ---------------------------------------------------------------------------

def translate_window(arr: np.ndarray, xoff: int, yoff: int,
                     xsize: int, ysize: int) -> np.ndarray:
    """-srcwin crop (clamped to the raster, like gdal_translate)."""
    h, w = arr.shape[:2]
    x0, y0 = max(0, xoff), max(0, yoff)
    x1, y1 = min(w, xoff + xsize), min(h, yoff + ysize)
    return arr[y0:y1, x0:x1]


def translate_scale(arr: np.ndarray, src_min=None, src_max=None,
                    dst_min=0.0, dst_max=255.0, exponent: float = 1.0):
    """-scale [src_min src_max dst_min dst_max] linear (or -exponent
    power-law) rescale, gdal_translate semantics (clip + round for byte)."""
    a = arr.astype(np.float64)
    if src_min is None:
        src_min = float(a.min())
    if src_max is None:
        src_max = float(a.max())
    rng = src_max - src_min or 1.0
    t = np.clip((a - src_min) / rng, 0.0, 1.0)
    if exponent != 1.0:
        t = t ** exponent
    out = dst_min + t * (dst_max - dst_min)
    return np.clip(np.rint(out), min(dst_min, dst_max),
                   max(dst_min, dst_max)).astype(np.uint8)


def expand_palette(indices: np.ndarray, palette: np.ndarray,
                   alpha: bool = False) -> np.ndarray:
    """gdal_translate ``-expand rgb|rgba`` (apps/gdal_translate_lib.cpp
    nRGBExpand): palette-indexed band → RGB(A) via table gather."""
    pal = np.asarray(palette, dtype=np.uint8)
    if pal.ndim != 2 or pal.shape[1] not in (3, 4):
        raise ValueError("palette must be (n, 3) or (n, 4)")
    if alpha and pal.shape[1] == 3:
        pal = np.concatenate(
            [pal, np.full((len(pal), 1), 255, np.uint8)], axis=1)
    out = pal[np.asarray(indices, dtype=np.int64)]
    return out if alpha or pal.shape[1] == 3 else out[..., :3]


def translate_unscale(arr: np.ndarray, scale: float = 1.0,
                      offset: float = 0.0) -> np.ndarray:
    """gdal_translate ``-unscale``: apply the band's scale/offset metadata
    to produce physical values (value*scale + offset, float64)."""
    return np.asarray(arr, dtype=np.float64) * scale + offset


def nearblack(img: np.ndarray, *, near: int = 15, white: bool = False,
              colors=None, set_alpha: bool = False):
    """``nearblack`` (apps/nearblack_lib.cpp): trim the near-black (or
    near-white / near-``colors``) collar that lossy compression leaves
    around mosaicked imagery, replacing it with the exact target color.

    A pixel is trimmed iff every channel is within ``near`` of one
    target color AND it is 4-connected to the image border through such
    pixels — the exact edge-connected set that the reference's two-pass
    scanline algorithm approximates (its top-down + bottom-up sweeps
    can under-trim spiral collars; this closed form cannot).  Interior
    near-black regions are never touched, matching the tool's intent.

    ``img``: (h, w) or (h, w, bands) uint8.  Returns the trimmed image,
    or (image, alpha) when ``set_alpha`` (alpha 0 on trimmed pixels —
    the ``-setalpha`` flag)."""
    from .polygonize import label_components
    a3 = img[..., None] if img.ndim == 2 else img
    if colors is None:
        colors = [(255,) * a3.shape[2]] if white else [(0,) * a3.shape[2]]
    near_mask = np.zeros(a3.shape[:2], dtype=bool)
    nearest = np.zeros(a3.shape[:2], dtype=np.int32)
    for ci, col in enumerate(colors):
        m = np.ones(a3.shape[:2], dtype=bool)
        for b in range(a3.shape[2]):
            m &= np.abs(a3[:, :, b].astype(np.int32) - col[b]) <= near
        nearest = np.where(m & ~near_mask, ci, nearest)
        near_mask |= m
    lab = label_components(near_mask.astype(np.uint8))
    border = np.zeros_like(near_mask)
    border[0, :] = border[-1, :] = border[:, 0] = border[:, -1] = True
    edge_labels = np.unique(lab[border & near_mask])
    trim = near_mask & np.isin(lab, edge_labels)
    out = a3.copy()
    cols = np.asarray(list(colors), dtype=np.uint8)
    out[trim] = cols[nearest[trim]]
    out = out[..., 0] if img.ndim == 2 else out
    if set_alpha:
        alpha = np.where(trim, 0, 255).astype(np.uint8)
        return out, alpha
    return out


def translate_images(batch: pa.Table, *, srcwin=None, outsize=None,
                     scale=False, resampling: str = "near") -> pa.Table:
    """map_batches stage: -srcwin / -outsize / -scale over the decoded
    ``pixels`` column (gdal_translate as a batch transform)."""
    from .tiles import _scale_to

    def translated():
        for arr in pixel_arrays(batch):
            if srcwin:
                arr = translate_window(arr, *srcwin)
            if outsize:
                ow, oh = outsize
                arr = _scale_to(arr, oh, ow, resampling)
            if scale:
                arr = translate_scale(arr)
            yield arr

    return with_pixels(batch, translated())


# ---------------------------------------------------------------------------
# DEM derivatives (apps/gdaldem_lib.cpp; 3×3 windows, Horn formulas)
# ---------------------------------------------------------------------------

def raster_to_xyz(batch, band: int = 0, skip: int = 1,
                  nodata=None):
    """gdal2xyz analog (gdal-utils osgeo_utils/gdal2xyz.py): tile rows
    (image_id, pixels, w, h, ulx, uly, psize) → (image_id, x, y, v)
    point rows at pixel CENTERS with stride ``skip``; ``nodata`` values
    are dropped like ``-skipnodata``.  One vectorized meshgrid per tile
    — use inside ``map_batches`` so the explode streams."""
    ids, xs, ys, vs = [], [], [], []
    ulx = batch["ulx"].to_numpy()
    uly = batch["uly"].to_numpy()
    ps = batch["psize"].to_numpy()
    for i, (pid, rgb) in enumerate(zip(batch["image_id"].to_pylist(),
                                       pixel_arrays(batch))):
        h, w = rgb.shape[:2]
        arr = rgb[::skip, ::skip, band]
        py, px = np.mgrid[0:h:skip, 0:w:skip]
        x = ulx[i] + (px.ravel() + 0.5) * ps[i]
        y = uly[i] - (py.ravel() + 0.5) * ps[i]
        v = arr.ravel().astype(np.int64)
        if nodata is not None:
            keep = v != nodata
            x, y, v = x[keep], y[keep], v[keep]
        ids.append(np.repeat(pid, len(v)))
        xs.append(x)
        ys.append(y)
        vs.append(v)
    return pa.table({
        "image_id": pa.array(
            np.concatenate(ids).tolist() if ids else [], pa.string()),
        "x": pa.array(np.concatenate(xs) if xs else [],
                      pa.float64()),
        "y": pa.array(np.concatenate(ys) if ys else [],
                      pa.float64()),
        "v": pa.array(np.concatenate(vs) if vs else [], pa.int64()),
    })


def _neighbors(dem: np.ndarray):
    """3×3 window views with edge replication (GDAL computes edges with
    the INTERPOLATED border; we use replicate-pad — documented difference,
    interior pixels match)."""
    p = np.pad(dem.astype(np.float64), 1, mode="edge")
    return (p[:-2, :-2], p[:-2, 1:-1], p[:-2, 2:],
            p[1:-1, :-2], p[1:-1, 1:-1], p[1:-1, 2:],
            p[2:, :-2], p[2:, 1:-1], p[2:, 2:])


def _gradients(dem, xres, yres, z_factor=1.0, scale=1.0):
    a, b, c, d, e, f, g, h, i = _neighbors(dem)
    dzdx = ((c + 2 * f + i) - (a + 2 * d + g)) / (8.0 * xres * scale)
    dzdy = ((g + 2 * h + i) - (a + 2 * b + c)) / (8.0 * yres * scale)
    return dzdx * z_factor, dzdy * z_factor


def hillshade(dem, xres=1.0, yres=1.0, azimuth=315.0, altitude=45.0,
              z_factor=1.0, scale=1.0):
    """Horn hillshade, 1-255 byte output (gdaldem hillshade semantics)."""
    dzdx, dzdy = _gradients(dem, xres, yres, z_factor, scale)
    slope_r = np.arctan(np.hypot(dzdx, dzdy))
    aspect_r = np.arctan2(dzdy, -dzdx)
    az = np.radians(360.0 - azimuth + 90.0)
    alt = np.radians(altitude)
    shaded = (np.sin(alt) * np.cos(slope_r)
              + np.cos(alt) * np.sin(slope_r) * np.cos(az - aspect_r))
    return np.clip(np.rint(1.0 + 254.0 * np.clip(shaded, 0, 1)),
                   1, 255).astype(np.uint8)


def slope(dem, xres=1.0, yres=1.0, percent=False):
    """Slope in degrees (or percent) — gdaldem slope."""
    dzdx, dzdy = _gradients(dem, xres, yres)
    m = np.hypot(dzdx, dzdy)
    return m * 100.0 if percent else np.degrees(np.arctan(m))


def aspect(dem, xres=1.0, yres=1.0, trigonometric=False):
    """Aspect in azimuth degrees (gdaldem aspect; flat = -9999)."""
    dzdx, dzdy = _gradients(dem, xres, yres)
    asp = np.degrees(np.arctan2(dzdy, -dzdx))
    if trigonometric:
        out = np.where(asp < 0, asp + 360.0, asp)
    else:
        out = 90.0 - asp
        out = np.where(out < 0, out + 360.0, out)
        out = np.where(out >= 360.0, out - 360.0, out)
    flat = (dzdx == 0) & (dzdy == 0)
    return np.where(flat, -9999.0, out)


def tri(dem):
    """Terrain ruggedness index, Riley: mean |center - neighbor| over the
    8 neighbors (apps/gdaldem_lib.cpp:2446-2495)."""
    a, b, c, d, e, f, g, h, i = _neighbors(dem)
    total = sum(np.abs(x - e) for x in (a, b, c, d, f, g, h, i))
    return total / 8.0


def tpi(dem):
    """Topographic position index: center − mean(8 neighbors)."""
    a, b, c, d, e, f, g, h, i = _neighbors(dem)
    return e - (a + b + c + d + f + g + h + i) / 8.0


def roughness(dem):
    """max − min of the 3×3 window."""
    n = _neighbors(dem)
    return np.max(np.stack(n), axis=0) - np.min(np.stack(n), axis=0)


def color_relief(dem: np.ndarray, ramp, mode: str = "interpolate"):
    """gdaldem color-relief (apps/gdaldem_lib.cpp ColorAssociation):
    elevation → RGB via a color ramp [(elev, r, g, b), ...].  Modes:
    ``interpolate`` (default linear blend between entries, clamped at the
    ends), ``nearest`` (-nearest_color_entry), ``exact``
    (-exact_color_entry: unmatched elevations → 0,0,0)."""
    ramp = sorted(ramp, key=lambda t: t[0])
    elev = np.asarray([t[0] for t in ramp], dtype=np.float64)
    cols = np.asarray([t[1:4] for t in ramp], dtype=np.float64)
    d = np.asarray(dem, dtype=np.float64)
    out = np.empty(d.shape + (3,), dtype=np.uint8)
    if mode == "interpolate":
        for c in range(3):
            out[..., c] = np.clip(
                np.rint(np.interp(d, elev, cols[:, c])), 0, 255)
        return out
    if mode == "nearest":
        idx = np.clip(np.searchsorted(elev, d), 0, len(elev) - 1)
        lo = np.maximum(idx - 1, 0)
        use_lo = np.abs(d - elev[lo]) <= np.abs(elev[idx] - d)
        idx = np.where(use_lo, lo, idx)
        return np.clip(np.rint(cols[idx]), 0, 255).astype(np.uint8)
    if mode == "exact":
        out[:] = 0
        for e, col in zip(elev, cols):
            out[d == e] = np.clip(np.rint(col), 0, 255)
        return out
    raise ValueError(f"unknown color-relief mode {mode!r}")


_DEM_FUNCS = {"hillshade": hillshade, "slope": slope, "aspect": aspect,
              "tri": tri, "tpi": tpi, "roughness": roughness}


def dem_tiled(tiles_ds, mode: str = "hillshade", *,
              source_col: str = "source_id", tile_size: int = 256,
              **kwargs):
    """Distributed gdaldem over a tiled raster (apps/gdaldem_lib.cpp) —
    EXACT across tile borders via the generic one-round 1-px halo
    exchange (every derivative here is a 3×3 window): each tile fetches
    its neighbors' single border rows/columns, so interior borders see
    true neighbor values while global raster edges keep the replicate-pad
    the unsplit kernels use.  4-tile == unsplit pinned in tests.

    Input rows: ``(source_id, ox, oy, h, w, band)`` with ``band`` float64
    DEM bytes on a regular ``tile_size`` grid.  Output: same schema;
    ``band`` is uint8 for hillshade, float64 otherwise.  ``kwargs`` pass
    through to the kernel (xres/yres/azimuth/altitude/...)."""
    from .morph import halo_map_tiled
    f = _DEM_FUNCS[mode]

    def derive(canvas, known):
        # the kernels replicate-pad internally; only windows fully inside
        # the canvas survive the [m:-m] crop, so that pad never leaks in
        return f(canvas, **kwargs)

    return halo_map_tiled(
        tiles_ds, derive, margin=1, source_col=source_col,
        tile_size=tile_size,
        out_dtype=np.uint8 if mode == "hillshade" else np.float64)


def dem_derivatives(batch: pa.Table, *, mode: str = "hillshade",
                    **kwargs) -> pa.Table:
    """map_batches stage: treat band 0 of ``pixels`` as a DEM and emit the
    requested derivative (+ its GDAL checksum) per row — the gdaldem
    pipeline, one tile per row, embarrassingly parallel.  For tiled
    multi-row rasters use ``dem_tiled`` (exact cross-tile 1-px halo)."""
    from .stats import gdal_checksum
    fn = _DEM_FUNCS[mode]
    outs, checks = [], []
    for rgb in pixel_arrays(batch):
        out = fn(rgb[:, :, 0], **kwargs)
        outs.append(np.ascontiguousarray(out).tobytes())
        q = (out if out.dtype == np.uint8
             else np.clip(np.rint(out), 0, 255).astype(np.uint8))
        checks.append(gdal_checksum(q))
    batch = batch.append_column(mode, pa.array(outs, pa.binary()))
    return batch.append_column(f"{mode}_checksum",
                               pa.array(checks, pa.int64()))


# ---------------------------------------------------------------------------
# gdalwarp: EPSG:4326 ↔ 3857 raster warp (alg/gdalwarpkernel.cpp semantics,
# closed-form transforms instead of PROJ — SURVEY.md §2.7 "Transformers")
# ---------------------------------------------------------------------------

def _crs_to_latlon(crs: str, x, y):
    """Projected coords → (lat, lon) via the general CRS registry
    (georay.mercator.resolve_crs): EPSG codes — UTM zone families
    326xx/327xx/258xx/269xx/283xx, the named conic/tmerc rows, OSGB36 /
    ED50 datum codes — plus proj-strings for every implemented family."""
    from .mercator import crs_inverse
    return crs_inverse(crs, x, y)


def _latlon_to_crs(crs: str, lat, lon):
    from .mercator import crs_forward
    return crs_forward(crs, lat, lon)


def warp_affine_mercator(src: np.ndarray, src_gt, dst_gt, dst_shape,
                         src_crs: str = "EPSG:4326",
                         dst_crs: str = "EPSG:3857",
                         kernel: str = "bilinear", nodata=0,
                         cutline_rings=None, src_transformer=None,
                         approx_error: float | None = None):
    """Inverse-mapping warp: for every destination pixel center, transform
    dst georef → src georef → src pixel, then sample with
    near/bilinear/cubic/lanczos (alg/gdalwarper.h:37-69 kernel family).
    CRS: EPSG:4326, EPSG:3857 (closed form) and UTM EPSG:326xx/327xx
    (Krüger series — covers the reference's own EPSG:32631→4326 warp
    bench, autotest/benchmark/test_gdalwarp.py:26).  Fully vectorized; the
    approx-transformer subdivision (gdaltransformer.cpp:3702) is
    unnecessary because the transforms are exact.

    ``cutline_rings``: optional polygon rings in DST georef coords
    (alg/gdalcutline.cpp semantics, center rule): destination pixels whose
    centers fall outside get ``nodata``.

    ``src_transformer``: optional GCP-based transformer
    (georay.transformers: polynomial / TPS / RPC) replacing the SOURCE
    affine geotransform — src pixel coords come from its
    ``geo_to_pixel`` over src-CRS coordinates (for RPC use
    ``src_crs="EPSG:4326"``: x, y are lon, lat), exactly where
    alg/gdaltransformer.cpp chains GCP/TPS/RPC transforms instead of the
    geotransform."""
    oh, ow = dst_shape
    cols = np.arange(ow) + 0.5
    rows = np.arange(oh) + 0.5
    dx = dst_gt[0] + cols[None, :] * dst_gt[1]
    dy = dst_gt[3] + rows[:, None] * dst_gt[5]
    dx, dy = np.broadcast_arrays(dx, dy)
    if src_crs == dst_crs:
        sx, sy = dx, dy
    else:
        lat, lon = _crs_to_latlon(dst_crs, dx, dy)
        sx, sy = _latlon_to_crs(src_crs, lat, lon)
    # src georef -> fractional src pixel (north-up affine, or a GCP-based
    # transformer's geo→pixel fit)
    if src_transformer is not None:
        if approx_error is not None:
            # scanline approximation of the EXPENSIVE transformer
            # (gdaltransformer.cpp:3839 GDALCreateApproxTransformer):
            # per output row, exact evaluation only at adaptive interval
            # endpoints/midpoints, linear interpolation within
            # ``approx_error`` source pixels — the composed dst→src
            # curve is approximated along the row exactly as GDAL does
            from .transformers import approx_indexed
            px = np.empty_like(sx)
            py = np.empty_like(sy)
            for r in range(oh):
                sxr, syr = sx[r], sy[r]
                px[r], py[r] = approx_indexed(
                    lambda idx, _sxr=sxr, _syr=syr:
                        src_transformer.geo_to_pixel(_sxr[idx], _syr[idx]),
                    ow, approx_error)
        else:
            px, py = src_transformer.geo_to_pixel(sx, sy)
    else:
        px = (sx - src_gt[0]) / src_gt[1]
        py = (sy - src_gt[3]) / src_gt[5]
    h, w = src.shape[:2]
    if kernel in ("average", "rms"):
        # GRA_Average / GRA_RMS: mean (or root-mean-square) of the source
        # pixels under each destination pixel's FOOTPRINT — dst cell
        # corners transform to src space, the footprint's bounding box
        # integrates over a summed-area table (exact fractional box sums
        # via bilinear sampling of the integral image, same identity
        # resample_average uses; RMS integrates squares and roots the mean)
        ecols = np.arange(ow + 1.0)
        erows = np.arange(oh + 1.0)
        edx = dst_gt[0] + ecols[None, :] * dst_gt[1]
        edy = dst_gt[3] + erows[:, None] * dst_gt[5]
        edx, edy = np.broadcast_arrays(edx, edy)
        if src_crs == dst_crs:
            esx, esy = edx, edy
        else:
            elat, elon = _crs_to_latlon(dst_crs, edx, edy)
            esx, esy = _latlon_to_crs(src_crs, elat, elon)
        if src_transformer is not None:
            epx, epy = src_transformer.geo_to_pixel(esx, esy)
        else:
            epx = (esx - src_gt[0]) / src_gt[1]
            epy = (esy - src_gt[3]) / src_gt[5]
        x0 = np.minimum.reduce([epx[:-1, :-1], epx[:-1, 1:],
                                epx[1:, :-1], epx[1:, 1:]])
        x1 = np.maximum.reduce([epx[:-1, :-1], epx[:-1, 1:],
                                epx[1:, :-1], epx[1:, 1:]])
        y0 = np.minimum.reduce([epy[:-1, :-1], epy[:-1, 1:],
                                epy[1:, :-1], epy[1:, 1:]])
        y1 = np.maximum.reduce([epy[:-1, :-1], epy[:-1, 1:],
                                epy[1:, :-1], epy[1:, 1:]])
        valid = (x1 > 0) & (x0 < w) & (y1 > 0) & (y0 < h)
        x0c = np.clip(x0, 0, w); x1c = np.clip(x1, 0, w)
        y0c = np.clip(y0, 0, h); y1c = np.clip(y1, 0, h)
        a = src.astype(np.float64)
        if kernel == "rms":
            a = a * a
        if a.ndim == 2:
            a = a[:, :, None]
        integ = np.zeros((h + 1, w + 1, a.shape[2]))
        integ[1:, 1:] = a.cumsum(axis=0).cumsum(axis=1)

        def at(yy, xx):
            yi = np.clip(np.floor(yy).astype(np.int64), 0, h - 1)
            xi = np.clip(np.floor(xx).astype(np.int64), 0, w - 1)
            fy = (yy - yi)[..., None]
            fx = (xx - xi)[..., None]
            return (integ[yi, xi] * (1 - fy) * (1 - fx)
                    + integ[yi, xi + 1] * (1 - fy) * fx
                    + integ[yi + 1, xi] * fy * (1 - fx)
                    + integ[yi + 1, xi + 1] * fy * fx)

        sums = at(y1c, x1c) - at(y0c, x1c) - at(y1c, x0c) + at(y0c, x0c)
        area = np.maximum((y1c - y0c) * (x1c - x0c), 1e-12)[..., None]
        vals = sums / area
        if kernel == "rms":
            vals = np.sqrt(np.maximum(vals, 0.0))
        out = np.clip(np.rint(vals), 0, 255).astype(src.dtype)
        if src.ndim == 2:
            out = out[:, :, 0]
    elif kernel in ("mode", "med", "q1", "q3", "min", "max"):
        # GRA_Mode/Med/Q1/Q3/Min/Max (alg/gdalwarper.h:37-69): order
        # statistics over the source pixels whose CENTERS fall inside the
        # destination pixel's footprint box.  uint8 sources → exact
        # per-pixel 256-bin histograms (row-chunked to bound memory);
        # quantiles interpolate like np.quantile/GWKGetQuantile; mode
        # ties break to the smallest value (deterministic).
        ecols = np.arange(ow + 1.0)
        erows = np.arange(oh + 1.0)
        edx = dst_gt[0] + ecols[None, :] * dst_gt[1]
        edy = dst_gt[3] + erows[:, None] * dst_gt[5]
        edx, edy = np.broadcast_arrays(edx, edy)
        if src_crs == dst_crs:
            esx, esy = edx, edy
        else:
            elat, elon = _crs_to_latlon(dst_crs, edx, edy)
            esx, esy = _latlon_to_crs(src_crs, elat, elon)
        if src_transformer is not None:
            epx, epy = src_transformer.geo_to_pixel(esx, esy)
        else:
            epx = (esx - src_gt[0]) / src_gt[1]
            epy = (esy - src_gt[3]) / src_gt[5]
        bx0 = np.minimum.reduce([epx[:-1, :-1], epx[:-1, 1:],
                                 epx[1:, :-1], epx[1:, 1:]])
        bx1 = np.maximum.reduce([epx[:-1, :-1], epx[:-1, 1:],
                                 epx[1:, :-1], epx[1:, 1:]])
        by0 = np.minimum.reduce([epy[:-1, :-1], epy[:-1, 1:],
                                 epy[1:, :-1], epy[1:, 1:]])
        by1 = np.maximum.reduce([epy[:-1, :-1], epy[:-1, 1:],
                                 epy[1:, :-1], epy[1:, 1:]])
        valid = (bx1 > 0) & (bx0 < w) & (by1 > 0) & (by0 < h)
        # integer ranges of source pixels with centers in the box; a
        # footprint narrower than one pixel keeps its nearest center
        ix0 = np.ceil(bx0 - 0.5).astype(np.int64)
        ix1 = np.floor(bx1 - 0.5).astype(np.int64)
        iy0 = np.ceil(by0 - 0.5).astype(np.int64)
        iy1 = np.floor(by1 - 0.5).astype(np.int64)
        cx = np.clip(np.floor(px).astype(np.int64), 0, w - 1)
        cy = np.clip(np.floor(py).astype(np.int64), 0, h - 1)
        deg = ix1 < ix0
        ix0[deg] = cx[deg]; ix1[deg] = cx[deg]
        deg = iy1 < iy0
        iy0[deg] = cy[deg]; iy1[deg] = cy[deg]
        ix0 = np.clip(ix0, 0, w - 1); ix1 = np.clip(ix1, 0, w - 1)
        iy0 = np.clip(iy0, 0, h - 1); iy1 = np.clip(iy1, 0, h - 1)
        a = src if src.ndim == 3 else src[:, :, None]
        if a.dtype != np.uint8:
            raise ValueError(f"{kernel} warp kernel requires uint8 source")
        nb = a.shape[2]
        out = np.zeros((oh, ow, nb), dtype=np.uint8)
        rows_chunk = max(1, int(64_000_000 // max(ow * 256 * 4, 1)))
        for r0 in range(0, oh, rows_chunk):
            r1 = min(oh, r0 + rows_chunk)
            cix0, cix1 = ix0[r0:r1], ix1[r0:r1]
            ciy0, ciy1 = iy0[r0:r1], iy1[r0:r1]
            npx = (r1 - r0) * ow
            flat = np.arange(npx).reshape(r1 - r0, ow)
            khm = int((ciy1 - ciy0).max()) + 1
            kwm = int((cix1 - cix0).max()) + 1
            for b in range(nb):
                hist = np.zeros((npx, 256), dtype=np.uint32)
                for jy in range(khm):
                    yy = np.minimum(ciy0 + jy, ciy1)
                    okY = ciy0 + jy <= ciy1
                    for jx in range(kwm):
                        xx = np.minimum(cix0 + jx, cix1)
                        ok = okY & (cix0 + jx <= cix1)
                        vals = a[yy, xx, b]
                        np.add.at(hist, (flat[ok], vals[ok]), 1)
                count = hist.sum(axis=1)
                count = np.maximum(count, 1)
                if kernel == "mode":
                    res = hist.argmax(axis=1)
                elif kernel == "min":
                    res = (hist > 0).argmax(axis=1)
                elif kernel == "max":
                    res = 255 - (hist[:, ::-1] > 0).argmax(axis=1)
                else:
                    q = {"med": 0.5, "q1": 0.25, "q3": 0.75}[kernel]
                    cum = hist.cumsum(axis=1)
                    tgt = q * (count - 1)
                    lo = np.floor(tgt).astype(np.int64)
                    frac = tgt - lo
                    v_lo = (cum > lo[:, None]).argmax(axis=1)
                    v_hi = (cum > np.minimum(lo + 1, count - 1)[:, None])\
                        .argmax(axis=1)
                    res = np.rint(v_lo + frac * (v_hi - v_lo))
                out[r0:r1, :, b] = res.reshape(r1 - r0, ow)\
                    .astype(np.uint8)
        if src.ndim == 2:
            out = out[:, :, 0]
    elif kernel in ("cubic", "lanczos"):
        from .tiles import _conv_kernel
        fx = px - 0.5
        fy = py - 0.5
        x0 = np.floor(fx).astype(np.int64)
        y0 = np.floor(fy).astype(np.int64)
        valid = (fx >= -0.5) & (fx <= w - 0.5) & (fy >= -0.5) \
            & (fy <= h - 0.5)
        taps = (-1, 0, 1, 2) if kernel == "cubic" else (-2, -1, 0, 1, 2, 3)
        a = src.astype(np.float64)
        acc = np.zeros(dx.shape + a.shape[2:], dtype=np.float64)
        wsum = np.zeros(dx.shape, dtype=np.float64)
        for jy in taps:
            wy = _conv_kernel(kernel, fy - (y0 + jy))
            yc = np.clip(y0 + jy, 0, h - 1)
            for jx in taps:
                wx = _conv_kernel(kernel, fx - (x0 + jx))
                xc = np.clip(x0 + jx, 0, w - 1)
                wgt = wy * wx
                if a.ndim == 3:
                    acc += a[yc, xc] * wgt[..., None]
                else:
                    acc += a[yc, xc] * wgt
                wsum += wgt
        wsum = np.maximum(wsum, 1e-12)
        out = acc / (wsum[..., None] if a.ndim == 3 else wsum)
        out = np.clip(np.rint(out), 0, 255).astype(src.dtype)
    elif kernel == "near":
        xi = np.floor(px).astype(np.int64)
        yi = np.floor(py).astype(np.int64)
        valid = (xi >= 0) & (xi < w) & (yi >= 0) & (yi < h)
        xi = np.clip(xi, 0, w - 1)
        yi = np.clip(yi, 0, h - 1)
        out = src[yi, xi]
    elif kernel == "bilinear":
        fx = px - 0.5
        fy = py - 0.5
        x0 = np.floor(fx).astype(np.int64)
        y0 = np.floor(fy).astype(np.int64)
        tx = fx - x0
        ty = fy - y0
        valid = (fx >= -0.5) & (fx <= w - 0.5) & (fy >= -0.5) & (fy <= h - 0.5)
        x0c = np.clip(x0, 0, w - 1); x1c = np.clip(x0 + 1, 0, w - 1)
        y0c = np.clip(y0, 0, h - 1); y1c = np.clip(y0 + 1, 0, h - 1)
        a = src.astype(np.float64)
        if a.ndim == 3:
            tx = tx[..., None]; ty = ty[..., None]
        out = (a[y0c, x0c] * (1 - tx) * (1 - ty) + a[y0c, x1c] * tx * (1 - ty)
               + a[y1c, x0c] * (1 - tx) * ty + a[y1c, x1c] * tx * ty)
        out = np.clip(np.rint(out), 0, 255).astype(src.dtype)
    else:
        raise ValueError(f"unsupported kernel {kernel!r}")
    if cutline_rings is not None:
        from .geom import PackedPolygons, wkb_polygon
        pp = PackedPolygons.from_wkb([wkb_polygon(cutline_rings)])
        fx_ = dx.ravel()
        fy_ = dy.ravel()
        idx = np.arange(fx_.size, dtype=np.int64)
        inside = pp.contains_pairs(fx_, fy_, idx,
                                   np.zeros(fx_.size, dtype=np.int64))
        valid = valid & inside.reshape(dx.shape)
    if out.ndim == 3:
        out[~valid] = nodata
    else:
        out = np.where(valid, out, nodata)
    return out


# ---------------------------------------------------------------------------
# Pansharpen (alg/gdalpansharpen.cpp — weighted Brovey) and color
# quantization (alg/gdalmediancut.cpp + gdaldither.cpp)
# ---------------------------------------------------------------------------

def pansharpen_brovey(pan: np.ndarray, ms: np.ndarray,
                      weights=None) -> np.ndarray:
    """Weighted Brovey fusion: out_b = ms_b * pan / pseudo_pan where
    pseudo_pan = Σ w_b · ms_b (GDALPansharpenOperation semantics).  ``ms``
    is (h, w, bands) at pan resolution (upsample first if needed)."""
    ms = ms.astype(np.float64)
    nb = ms.shape[2]
    w = (np.full(nb, 1.0 / nb) if weights is None
         else np.asarray(weights, dtype=np.float64))
    pseudo = (ms * w[None, None, :]).sum(axis=2)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(pseudo > 0, pan.astype(np.float64) / pseudo, 0.0)
    out = ms * ratio[:, :, None]
    return np.clip(np.rint(out), 0, 255).astype(np.uint8)


def median_cut_palette(rgb: np.ndarray, n_colors: int = 16) -> np.ndarray:
    """Median-cut color quantization palette (GDALComputeMedianCutPCT):
    recursively split the occupied color box along its widest channel at
    the median.  Returns (n, 3) uint8 palette."""
    pixels = rgb.reshape(-1, 3).astype(np.int32)
    boxes = [pixels]
    while len(boxes) < n_colors:
        # split the box with the largest channel range
        widths = [(b.max(axis=0) - b.min(axis=0)).max() if len(b) > 1 else -1
                  for b in boxes]
        i = int(np.argmax(widths))
        if widths[i] <= 0:
            break
        b = boxes.pop(i)
        ch = int(np.argmax(b.max(axis=0) - b.min(axis=0)))
        order = np.argsort(b[:, ch], kind="stable")
        half = len(b) // 2
        boxes.extend([b[order[:half]], b[order[half:]]])
    return np.array([np.rint(b.mean(axis=0)) for b in boxes if len(b)],
                    dtype=np.uint8)


def dither_floyd_steinberg(rgb: np.ndarray, palette: np.ndarray) -> np.ndarray:
    """Floyd-Steinberg error-diffusion to a palette (GDALDitherRGB2PCT).
    Error diffusion is inherently row-sequential (per tile) — the loop is
    over rows with vectorized nearest-palette per pixel."""
    pal = palette.astype(np.float64)
    img = rgb.astype(np.float64).copy()
    h, w = img.shape[:2]
    out = np.empty((h, w), dtype=np.uint8)
    for y in range(h):
        for x in range(w):
            px = img[y, x]
            idx = int(np.argmin(((pal - px) ** 2).sum(axis=1)))
            out[y, x] = idx
            err = px - pal[idx]
            if x + 1 < w:
                img[y, x + 1] += err * (7 / 16)
            if y + 1 < h:
                if x > 0:
                    img[y + 1, x - 1] += err * (3 / 16)
                img[y + 1, x] += err * (5 / 16)
                if x + 1 < w:
                    img[y + 1, x + 1] += err * (1 / 16)
    return out


# ---------------------------------------------------------------------------
# Viewshed (alg/viewshed/viewshed.cpp analog — R3 algorithm: exact per-pixel
# line of sight with bilinear DEM sampling along the ray to the observer).
# Cumulative mode = fan observers out as rows in map_batches and
# `groupby(tile).sum` the boolean rasters (SURVEY.md §2.7).
# ---------------------------------------------------------------------------

def viewshed(dem: np.ndarray, ox: int, oy: int,
             observer_height: float = 2.0, target_height: float = 0.0,
             cellsize: float = 1.0) -> np.ndarray:
    """Boolean visibility raster from observer pixel (ox, oy).

    R3: for every pixel, the elevation angle of every intermediate sample
    (1-px spacing, bilinear-interpolated DEM) must not exceed the target's
    angle.  Vectorized as a loop over step index k with all pixels updated
    at once (k ≤ raster diagonal).
    """
    a = dem.astype(np.float64)
    h, w = a.shape
    oz = a[oy, ox] + observer_height
    yy, xx = np.meshgrid(np.arange(h, dtype=np.float64),
                         np.arange(w, dtype=np.float64), indexing="ij")
    dx = xx - ox
    dy = yy - oy
    dist = np.hypot(dx, dy)
    with np.errstate(divide="ignore", invalid="ignore"):
        tgt_angle = (a + target_height - oz) / np.maximum(dist, 1e-12)
    max_angle = np.full((h, w), -np.inf)
    k_max = int(np.ceil(dist.max()))

    def sample(py, px):
        x0 = np.clip(np.floor(px).astype(np.int64), 0, w - 1)
        y0 = np.clip(np.floor(py).astype(np.int64), 0, h - 1)
        x1 = np.minimum(x0 + 1, w - 1)
        y1 = np.minimum(y0 + 1, h - 1)
        tx = np.clip(px - x0, 0, 1)
        ty = np.clip(py - y0, 0, 1)
        return (a[y0, x0] * (1 - tx) * (1 - ty) + a[y0, x1] * tx * (1 - ty)
                + a[y1, x0] * (1 - tx) * ty + a[y1, x1] * tx * ty)

    for k in range(1, k_max):
        m = dist > k  # pixels whose ray has an intermediate sample at k
        if not m.any():
            break
        t = k / dist[m]
        sy = oy + dy[m] * t
        sx = ox + dx[m] * t
        z = sample(sy, sx)
        ang = (z - oz) / k
        max_angle[m] = np.maximum(max_angle[m], ang)
    visible = tgt_angle >= max_angle - 1e-12
    visible[oy, ox] = True
    return visible


def edit_metadata(ds, *, assign: dict | None = None,
                  metadata: dict | None = None, rename: dict | None = None,
                  drop=None):
    """gdal_edit analog (osgeo_utils/gdal_edit.py): in-place dataset
    metadata rewrite — here, column-level edits on the image/raster table:
    ``assign`` sets/overwrites scalar columns (geotransform fields, nodata
    value, SRS tag …) broadcast to every row; ``metadata`` adds
    ``meta_<key>`` string columns (the multi-domain metadata analog);
    ``rename``/``drop`` reshape the schema.  Pure map_batches — no
    pixel bytes are touched or copied."""
    import pyarrow as pa

    def edit(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        if drop:
            batch = batch.drop_columns([c for c in drop
                                        if c in batch.schema.names])
        if rename:
            batch = batch.rename_columns(
                [rename.get(c, c) for c in batch.schema.names])
        for col, val in (assign or {}).items():
            arr = pa.array([val] * n)
            if col in batch.schema.names:
                batch = batch.set_column(
                    batch.schema.get_field_index(col), col, arr)
            else:
                batch = batch.append_column(col, arr)
        for key, val in (metadata or {}).items():
            batch = batch.append_column(
                f"meta_{key}", pa.array([str(val)] * n, pa.string()))
        return batch

    return ds.map_batches(edit, batch_format="pyarrow")
