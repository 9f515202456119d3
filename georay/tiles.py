"""Web-Mercator XYZ tile cutting + overview pyramid — the gdal2tiles
pipeline re-expressed Ray-Data-first (reference: osgeo_utils/gdal2tiles.py;
plan §3.3 of SURVEY.md):

* base tiles: each georeferenced image row fans out to the tiles its
  extent overlaps at ``zoom`` (tile ranges per gdal2tiles.py:2460-2467,
  zero-coverage tiles excluded per :2950-2953); per tile the source read /
  destination write windows come from the exact ``geo_query`` port
  (gdal2tiles.py:2995-3037) and the window is resampled into a 256×256
  RGBA fragment (``scale_query_to_tile`` analog, gdal2tiles.py:856-918).
* fragments composite per tile key with ``groupby((z,x,y)).map_groups``
  (deterministic image_id order, alpha-over) — replacing the
  ``Pool.imap_unordered`` worker pool (gdal2tiles.py:4593-4596).
* overview levels: per-zoom ``groupby(parent).map_groups`` 4→1 reduce:
  children placed on a 2× canvas by XYZ quadrant and box-downsampled —
  ``create_overview_tile`` semantics (gdal2tiles.py:1515-1560), with the
  per-zoom barrier expressed as one groupby per level.

Tile y is stored in **XYZ** (slippy) convention; the TMS row is flipped at
assignment time (gdal2tiles.py:4431-4443 ``getYTile``).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from .mercator import (TILE_SIZE, geo_query, latlon_to_tile_xyz,
                       tile_bounds_meters, tile_range_for_extent,
                       tms_to_xyz_y)
from .stats import CHECKSUM_PRIMES

__all__ = [
    "resample_average", "resample_nearest", "resample_bilinear",
    "assign_center_tile", "cut_windows", "fragment_checksum", "cut_tiles",
    "composite_tile_group",
    "partial_composite_batch", "merge_composite_group", "composite_tiles",
    "build_pyramid", "write_tiles_png", "write_tiles_cog",
]


# ---------------------------------------------------------------------------
# Resampling kernels (gdalwarper.h:37-69 kernel semantics; numpy)
# ---------------------------------------------------------------------------

def resample_nearest(src: np.ndarray, oh: int, ow: int) -> np.ndarray:
    h, w = src.shape[:2]
    ys = np.minimum(((np.arange(oh) + 0.5) * h / oh).astype(np.int64), h - 1)
    xs = np.minimum(((np.arange(ow) + 0.5) * w / ow).astype(np.int64), w - 1)
    return src[ys[:, None], xs[None, :]]


def resample_average(src: np.ndarray, oh: int, ow: int) -> np.ndarray:
    """Weighted box filter incl. partial edge pixels — the AVERAGE kernel of
    GDALRegenerateOverviews (gcore/overview.cpp), generalized to fractional
    ratios via x/y prefix sums (integral image).

    Semantics: average is a DOWNSCALING kernel — when the output is finer
    than the source in either axis this falls back to nearest, which is
    what gdal2tiles effectively does (geo_query reads at querysize via
    GDAL ReadRaster whose default upsampling is nearest; the average path,
    scale_query_to_tile → RegenerateOverview, only ever shrinks —
    gdal2tiles.py:856-918, 2995-3037).  Integer decimation ratios reduce
    to a reshape-mean (the 2× pyramid-reduce fast path)."""
    h, w = src.shape[:2]
    if oh > h or ow > w:  # upscale → ReadRaster-nearest parity
        return resample_nearest(src, oh, ow)
    if h % oh == 0 and w % ow == 0:
        fy, fx = h // oh, w // ow
        if src.ndim == 3:
            out = src.reshape(oh, fy, ow, fx, src.shape[2]).mean(axis=(1, 3))
        else:
            out = src.reshape(oh, fy, ow, fx).mean(axis=(1, 3))
        return np.clip(np.rint(out), 0, 255).astype(src.dtype)
    a = src if src.ndim == 3 else src[:, :, None]
    # integral image with zero row/col; the double integral of a
    # piecewise-constant image is piecewise-BILINEAR, so bilinear sampling
    # of it at fractional coords yields EXACT fractional box sums.
    # Integer cumsum (int32 when it fits): bit-identical to the float64
    # path (both are exact integer arithmetic at these magnitudes) at
    # half/quarter the memory traffic — this runs per tile fragment in
    # the headline stage, where the bus, not the ALU, is the bottleneck.
    idt = np.int32 if h * w < (1 << 23) else np.int64
    integ = np.zeros((h + 1, w + 1, a.shape[2]), dtype=idt)
    np.cumsum(a, axis=0, dtype=idt, out=integ[1:, 1:])
    np.cumsum(integ[1:, 1:], axis=1, out=integ[1:, 1:])

    def box_sum(y0, y1, x0, x1):
        # fractional box sums via bilinear sampling of the integral image
        def at(yy, xx):
            yi = np.floor(yy).astype(np.int64)
            xi = np.floor(xx).astype(np.int64)
            yi = np.clip(yi, 0, h - 1); xi = np.clip(xi, 0, w - 1)
            fy = (yy - yi)[:, None, None]
            fx = (xx - xi)[None, :, None]
            c00 = integ[yi][:, xi]
            c01 = integ[yi][:, xi + 1]
            c10 = integ[yi + 1][:, xi]
            c11 = integ[yi + 1][:, xi + 1]
            return (c00 * (1 - fy) * (1 - fx) + c01 * (1 - fy) * fx
                    + c10 * fy * (1 - fx) + c11 * fy * fx)
        return at(y1, x1) - at(y0, x1) - at(y1, x0) + at(y0, x0)

    ye = np.linspace(0, h, oh + 1)
    xe = np.linspace(0, w, ow + 1)
    sums = box_sum(ye[:-1], ye[1:], xe[:-1], xe[1:])
    area = ((ye[1:] - ye[:-1])[:, None] * (xe[1:] - xe[:-1])[None, :])[:, :, None]
    out = sums / area
    out = np.clip(np.rint(out), 0, 255).astype(src.dtype)
    return out[:, :, 0] if src.ndim == 2 else out


def resample_bilinear(src: np.ndarray, oh: int, ow: int) -> np.ndarray:
    h, w = src.shape[:2]
    ys = (np.arange(oh) + 0.5) * h / oh - 0.5
    xs = (np.arange(ow) + 0.5) * w / ow - 0.5
    y0 = np.clip(np.floor(ys).astype(np.int64), 0, h - 1)
    x0 = np.clip(np.floor(xs).astype(np.int64), 0, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    fy = np.clip(ys - y0, 0, 1)[:, None]
    fx = np.clip(xs - x0, 0, 1)[None, :]
    if src.ndim == 3:
        fy = fy[:, :, None]; fx = fx[:, :, None]
    a = src.astype(np.float64)
    out = (a[y0[:, None], x0[None, :]] * (1 - fy) * (1 - fx)
           + a[y0[:, None], x1[None, :]] * (1 - fy) * fx
           + a[y1[:, None], x0[None, :]] * fy * (1 - fx)
           + a[y1[:, None], x1[None, :]] * fy * fx)
    return np.clip(np.rint(out), 0, 255).astype(src.dtype)


def resample_rms(src: np.ndarray, oh: int, ow: int) -> np.ndarray:
    """GDAL RMS kernel (gcore/overview.cpp RMS dispatch, alg/gdalwarper.h
    GRA_RMS): square root of the footprint mean of squared values —
    the radiometrically-correct reduce for magnitude-like bands."""
    h, w = src.shape[:2]
    if oh > h or ow > w:
        return resample_nearest(src, oh, ow)
    a = src.astype(np.float64)
    a = a * a
    if h % oh == 0 and w % ow == 0:
        fy, fx = h // oh, w // ow
        if src.ndim == 3:
            out = a.reshape(oh, fy, ow, fx, src.shape[2]).mean(axis=(1, 3))
        else:
            out = a.reshape(oh, fy, ow, fx).mean(axis=(1, 3))
        return np.clip(np.rint(np.sqrt(out)), 0, 255).astype(src.dtype)
    aa = a if a.ndim == 3 else a[:, :, None]
    integ = np.zeros((h + 1, w + 1, aa.shape[2]))
    integ[1:, 1:] = aa.cumsum(axis=0).cumsum(axis=1)

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
    out = np.clip(np.rint(np.sqrt(sums / area)), 0, 255).astype(src.dtype)
    return out[:, :, 0] if src.ndim == 2 else out


def resample_mode(src: np.ndarray, oh: int, ow: int) -> np.ndarray:
    """GDAL MODE overview kernel (gcore/overview.cpp:4171 dispatch): each
    output pixel takes the most frequent value of its source footprint;
    ties resolve to the value whose count peaks FIRST in window scan
    order — GDAL's ``count > maxCount`` update rule.  Integer-factor
    footprints only (the 4→1 overview path); other ratios fall back to
    nearest."""
    h, w = src.shape[:2]
    if oh > h or ow > w or h % oh or w % ow:
        return resample_nearest(src, oh, ow)
    fy, fx = h // oh, w // ow
    a = src if src.ndim == 3 else src[:, :, None]
    v = (a.reshape(oh, fy, ow, fx, a.shape[2])
         .transpose(0, 2, 1, 3, 4)
         .reshape(oh, ow, fy * fx, a.shape[2]))
    # counts[k] = how many window pixels equal pixel k; argmax returns
    # the first max in scan order — the GDAL tie rule
    eq = v[:, :, :, None, :] == v[:, :, None, :, :]
    counts = eq.sum(axis=3)
    k = counts.argmax(axis=2)
    out = np.take_along_axis(v, k[:, :, None, :], axis=2)[:, :, 0, :]
    return out if src.ndim == 3 else out[:, :, 0]


def resample_gauss(src: np.ndarray, oh: int, ow: int) -> np.ndarray:
    """GDAL GAUSS overview kernel (gcore/overview.cpp Gauss dispatch):
    for the 2× reduce, a separable [1,2,1] Gaussian over the 3×3 window
    anchored at the block's top-left (rows 2o..2o+2), truncated at the
    image edge with weight renormalization.  Non-2× ratios fall back to
    average."""
    h, w = src.shape[:2]
    if h != 2 * oh or w != 2 * ow:
        return resample_average(src, oh, ow)
    a = (src if src.ndim == 3 else src[:, :, None]).astype(np.float64)
    k = np.array([1.0, 2.0, 1.0])

    def axis_pass(vals, ones, n_out):
        # windows start at even indices; taps at +0,+1,+2 (edge-truncated)
        idx = 2 * np.arange(n_out)
        num = np.zeros((n_out,) + vals.shape[1:])
        den = np.zeros((n_out,) + ones.shape[1:])
        for t in range(3):
            sel = idx + t
            ok = sel < vals.shape[0]
            num[ok] += k[t] * vals[sel[ok]]
            den[ok] += k[t] * ones[sel[ok]]
        return num, den

    ones = np.ones((h, w, 1))
    num, den = axis_pass(a, ones, oh)
    num = np.moveaxis(num, 1, 0)
    den = np.moveaxis(den, 1, 0)
    num, den = axis_pass(num, den, ow)
    out = np.moveaxis(num, 1, 0) / np.moveaxis(den, 1, 0)
    out = np.clip(np.rint(out), 0, 255).astype(src.dtype)
    return out if src.ndim == 3 else out[:, :, 0]


def _conv_kernel(kernel: str, t: np.ndarray) -> np.ndarray:
    at = np.abs(t)
    if kernel == "cubic":            # Catmull-Rom a=-0.5 (GRA_Cubic)
        a = -0.5
        return np.where(
            at <= 1, (a + 2) * at**3 - (a + 3) * at**2 + 1,
            np.where(at < 2,
                     a * at**3 - 5 * a * at**2 + 8 * a * at - 4 * a, 0.0))
    if kernel == "cubicspline":      # cubic B-spline (GRA_CubicSpline)
        return np.where(
            at < 1, (4 - 6 * at**2 + 3 * at**3) / 6.0,
            np.where(at < 2, (2 - at) ** 3 / 6.0, 0.0))
    if kernel == "lanczos":          # a=3 (GRA_Lanczos)
        return np.where(at < 3, np.sinc(t) * np.sinc(t / 3.0), 0.0)
    raise ValueError(kernel)


_CONV_RADIUS = {"cubic": 2.0, "cubicspline": 2.0, "lanczos": 3.0}


def resample_conv(src: np.ndarray, oh: int, ow: int,
                  kernel: str = "lanczos") -> np.ndarray:
    """Separable convolution downsample with the RATIO-STRETCHED kernel —
    GDALResampleChunk_Convolution semantics (gcore/overview.cpp:4156-4225
    kernel dispatch): for a reduce by factor f the kernel is evaluated at
    K(dx / f) over radius·f source taps and edge-renormalized."""
    h, w = src.shape[:2]
    rad = _CONV_RADIUS[kernel]

    def weight_matrix(n_in, n_out):
        f = max(n_in / n_out, 1.0)
        centers = (np.arange(n_out) + 0.5) * (n_in / n_out) - 0.5
        lo = np.floor(centers - rad * f + 1).astype(np.int64)
        hi = np.floor(centers + rad * f).astype(np.int64)
        W = np.zeros((n_out, n_in))
        for o in range(n_out):
            taps = np.arange(max(lo[o], 0), min(hi[o], n_in - 1) + 1)
            wts = _conv_kernel(kernel, (taps - centers[o]) / f)
            s = wts.sum()
            if s != 0:
                W[o, taps] = wts / s
        return W

    Wy = weight_matrix(h, oh)
    Wx = weight_matrix(w, ow)
    a = (src if src.ndim == 3 else src[:, :, None]).astype(np.float64)
    tmp = np.tensordot(Wy, a, axes=(1, 0))          # (oh, w, b)
    out = np.tensordot(tmp, Wx, axes=(1, 1))        # (oh, b, ow)
    out = np.transpose(out, (0, 2, 1))
    out = np.clip(np.rint(out), 0, 255).astype(src.dtype)
    return out if src.ndim == 3 else out[:, :, 0]


def _resample_lanczos(src, oh, ow):
    return resample_conv(src, oh, ow, "lanczos")


def _resample_cubic(src, oh, ow):
    return resample_conv(src, oh, ow, "cubic")


def _resample_cubicspline(src, oh, ow):
    return resample_conv(src, oh, ow, "cubicspline")


_KERNELS = {"average": resample_average, "near": resample_nearest,
            "bilinear": resample_bilinear, "rms": resample_rms,
            "mode": resample_mode, "gauss": resample_gauss,
            "lanczos": _resample_lanczos, "cubic": _resample_cubic,
            "cubicspline": _resample_cubicspline}


def _scale_to(src: np.ndarray, oh: int, ow: int, kernel: str) -> np.ndarray:
    if src.shape[0] == oh and src.shape[1] == ow:
        return src
    return _KERNELS[kernel](src, oh, ow)


def cut_windows(src: np.ndarray, w: int, h: int, ulx: float, uly: float,
                ps: float, z: int, ts: int = TILE_SIZE):
    """The one tile-window planner: for each zoom-``z`` tile that the
    ``w``×``h`` image ``src`` (upper-left ``ulx, uly``, pixel size ``ps``,
    EPSG:3857) covers, yield ``(tile_x, tile_y_xyz, wx, wy, window, wys,
    wxs)`` — the source window, to be resampled to ``wys``×``wxs`` and
    placed at ``(wx, wy)`` in the tile.  Tile ranges per
    gdal2tiles.py:2460-2467, windows per ``geo_query``
    (gdal2tiles.py:2995-3037); zero-coverage tiles are skipped
    (gdal2tiles.py:2950-2953)."""
    gt = (ulx, ps, 0.0, uly, 0.0, -ps)
    tminx, tminy, tmaxx, tmaxy = tile_range_for_extent(
        ulx, uly - h * ps, ulx + w * ps, uly, z, ts)
    for ty_tms in range(tminy, tmaxy + 1):
        ty = int(tms_to_xyz_y(ty_tms, z))
        for tx in range(tminx, tmaxx + 1):
            b = tile_bounds_meters(tx, ty_tms, z, ts)
            (rx, ry, rxs, rys), (wx, wy, wxs, wys) = geo_query(
                gt, w, h, b[0], b[3], b[2], b[1], querysize=ts)
            if rxs <= 0 or rys <= 0 or wxs <= 0 or wys <= 0:
                continue
            window = src[ry:ry + rys, rx:rx + rxs]
            if window.size == 0:
                continue
            yield tx, ty, wx, wy, window, wys, wxs


# The fragment checksum's positional prime LUT: entry (row, col) is
# CHECKSUM_PRIMES[(256·row + col) % 11], and 256 ≡ 3 (mod 11), so the LUT
# class of tile row r is (3·r) % 11, of tile column c is c % 11, and of
# pixel (r, c) the sum of the two, mod 11.
_ROW_CLASS = (3 * np.arange(256)) % 11
_COL_CLASS = np.arange(256) % 11
# the LUT as uint8 with each column repeated per RGB band, so a window's
# ``pixel % LUT`` is one non-broadcast pass over its (h, 3·w) view (primes
# <= 43, so uint8 % uint8 stays uint8)
_LUT3 = np.repeat(CHECKSUM_PRIMES[(_ROW_CLASS[:, None] + _COL_CLASS) % 11],
                  3, axis=1).astype(np.uint8)
# _MOD[m, v] = v % CHECKSUM_PRIMES[m], float64 for BLAS
_MOD = (np.arange(256) % CHECKSUM_PRIMES[:, None]).astype(np.float64)
# [m, b] -> (m - b) % 11: the row class that meets column class b in m
_ROW_FOR = (np.arange(11)[:, None] - np.arange(11)) % 11
_ODD = 2 * np.arange(256) + 1


def fragment_checksum(window: np.ndarray, oh: int, ow: int, wy: int,
                      wx: int) -> int:
    """Prime-LUT checksum of a tile fragment: the RGB ``window`` resampled
    (``average``, as :func:`cut_tiles` does by default) to ``oh``×``ow``
    and placed at ``(wy, wx)`` of an otherwise-zero tile — the sum over
    its first 3 bands of ``pixel % LUT``, masked to 16 bits.

    An upsampled window is nearest-resampled, so each source pixel lands
    on whole destination rows and columns, and the checksum comes from the
    source pixels alone: with ``R[y, a]`` the number of destination rows
    of LUT class ``a`` that read source row ``y``, ``C[x, b]`` likewise for
    columns and ``V[m] = Σ_band src % P[m]``, it is ``Σ_{a,b} (Rᵀ V[(a+b)
    % 11] C)[a, b]`` — an exact integer sum, equal to the materialized
    window's."""
    window = window[:, :, :3]
    h, w = window.shape[:2]
    if oh > h or ow > w:
        # resample_nearest's source index ⌊(r + ½)·h / oh⌋, in exact
        # integers (the float form rounds to the same index)
        R = np.bincount((_ODD[:oh] * h // (2 * oh)) * 11
                        + _ROW_CLASS[wy:wy + oh], minlength=h * 11)
        C = np.bincount((_ODD[:ow] * w // (2 * ow)) * 11
                        + _COL_CLASS[wx:wx + ow], minlength=w * 11)
        # Y[m, y, b] = Σ_{x, band} (src % P[m]) · C[x, b]
        Y = np.take(_MOD, window.reshape(h, 3 * w), axis=1)\
            .reshape(11 * h, 3 * w) @ np.repeat(C.reshape(w, 11), 3, axis=0)
        # Σ_{m, y, b} Y[m, y, b] · R[y, (m - b) % 11]
        total = np.einsum("myb,mby->", Y.reshape(11, h, 11),
                          R.reshape(h, 11).T[_ROW_FOR])
        return int(total) & 0xFFFF
    if oh != h or ow != w:
        window = resample_average(window, oh, ow)
    return int(np.add.reduce(
        np.mod(window.reshape(oh, 3 * ow),
               _LUT3[wy:wy + oh, 3 * wx:3 * (wx + ow)]),
        axis=None, dtype=np.uint32)) & 0xFFFF


# ---------------------------------------------------------------------------
# Stage 1: center-tile assignment (stateless `mb`)
# ---------------------------------------------------------------------------

def assign_center_tile(batch: pa.Table, zoom: int,
                       lat_col="lat", lon_col="lon") -> pa.Table:
    """Add (z, tile_x, tile_y) of each row's center point — XYZ convention."""
    tx, ty = latlon_to_tile_xyz(batch[lat_col].to_numpy(),
                                batch[lon_col].to_numpy(), zoom)
    batch = batch.append_column("z", pa.array(
        np.full(len(tx), zoom, dtype=np.int64)))
    batch = batch.append_column("tile_x", pa.array(tx))
    batch = batch.append_column("tile_y", pa.array(ty))
    return batch


# ---------------------------------------------------------------------------
# Stage 2: base-tile cutting (generate_base_tiles analog)
# ---------------------------------------------------------------------------

def cut_tiles(batch: pa.Table, *, zoom: int, tile_size: int = TILE_SIZE,
              resampling: str = "average") -> pa.Table:
    """map_batches stage: decoded image rows → per-tile RGBA fragments.

    Input columns: ``image_id, pixels, w, h, ulx, uly, psize``.
    Output rows: ``z, tile_x, tile_y (XYZ), image_id, frag`` (256·256·4
    raw bytes), one per (image, overlapping tile) — TileDetail analog
    (gdal2tiles.py:2126).
    """
    ts = tile_size
    out_x, out_y, out_id, out_frag = [], [], [], []
    w_arr = batch["w"].to_numpy()
    h_arr = batch["h"].to_numpy()
    ulx_arr = batch["ulx"].to_numpy()
    uly_arr = batch["uly"].to_numpy()
    ps_arr = batch["psize"].to_numpy()
    ids = batch["image_id"].to_pylist()
    pix_col = batch["pixels"]
    for i in range(batch.num_rows):
        w, h = int(w_arr[i]), int(h_arr[i])
        src = np.frombuffer(pix_col[i].as_buffer(), dtype=np.uint8)\
            .reshape(h, w, 3)
        for tx, ty, wx, wy, window, sh, sw in cut_windows(
                src, w, h, float(ulx_arr[i]), float(uly_arr[i]),
                float(ps_arr[i]), zoom, ts):
            scaled = _scale_to(window, sh, sw, resampling)
            frag = np.zeros((ts, ts, 4), dtype=np.uint8)
            frag[wy:wy + sh, wx:wx + sw, :3] = scaled
            frag[wy:wy + sh, wx:wx + sw, 3] = 255
            out_x.append(tx)
            out_y.append(ty)
            out_id.append(ids[i])
            out_frag.append(frag.tobytes())
    return pa.table({
        "z": pa.array(np.full(len(out_x), zoom, dtype=np.int64)),
        "tile_x": pa.array(out_x, pa.int64()),
        "tile_y": pa.array(out_y, pa.int64()),
        "image_id": pa.array(out_id, pa.string()),
        "frag": pa.array(out_frag, pa.binary()),
    })


# ---------------------------------------------------------------------------
# Stage 3: per-tile composite (groupby(z,x,y).map_groups)
# ---------------------------------------------------------------------------

def composite_tile_group(group: pa.Table, tile_size: int = TILE_SIZE) -> pa.Table:
    """Alpha-over merge of a tile's fragments in image_id order → one tile
    row with raw RGBA + per-band GDAL checksums."""
    from .stats import gdal_checksum
    ts = tile_size
    order = np.argsort(np.asarray(group["image_id"].to_pylist(), dtype=object))
    canvas = np.zeros((ts, ts, 4), dtype=np.uint8)
    for i in order:
        frag = np.frombuffer(group["frag"][int(i)].as_buffer(),
                             dtype=np.uint8).reshape(ts, ts, 4)
        m = frag[:, :, 3] > 0
        canvas[m] = frag[m]  # later image_id wins (deterministic)
    checks = [int(gdal_checksum(canvas[:, :, b])) for b in range(3)]
    return pa.table({
        "z": group["z"][:1], "tile_x": group["tile_x"][:1],
        "tile_y": group["tile_y"][:1],
        "tile": pa.array([canvas.tobytes()], pa.binary()),
        "n_frags": pa.array([group.num_rows], pa.int64()),
        "checksum_r": pa.array([checks[0]], pa.int64()),
        "checksum_g": pa.array([checks[1]], pa.int64()),
        "checksum_b": pa.array([checks[2]], pa.int64()),
    })


def partial_composite_batch(batch: pa.Table,
                            tile_size: int = TILE_SIZE) -> pa.Table:
    """WITHIN-BLOCK pre-combine of tile fragments (the combiner half of the
    composite): fragments of the same tile inside one block merge into a
    single partial canvas before the shuffle, so the ``groupby((z,x,y))``
    moves ~1 row per (tile, block) instead of every fragment.

    "Later image_id wins" compositing is per-pixel ``argmax`` over
    lexicographic image_id — associative — so each partial carries, next
    to its RGBA canvas, an int32 per-pixel code into its sorted local id
    list; :func:`merge_composite_group` resolves codes globally.  Exactly
    equal to :func:`composite_tile_group` (pinned by test)."""
    ts = tile_size
    if batch.num_rows == 0:
        return pa.table({
            "z": pa.array([], pa.int64()),
            "tile_x": pa.array([], pa.int64()),
            "tile_y": pa.array([], pa.int64()),
            "tile": pa.array([], pa.binary()),
            "idmap": pa.array([], pa.binary()),
            "ids": pa.array([], pa.list_(pa.string())),
            "n_frags": pa.array([], pa.int64()),
        })
    z = batch["z"].to_numpy()
    tx = batch["tile_x"].to_numpy()
    ty = batch["tile_y"].to_numpy()
    ids = np.asarray(batch["image_id"].to_pylist(), dtype=object)
    if z.size and int(z.max()) > 29:
        raise ValueError(
            f"tile composite key packs (z,tx,ty) into 64 bits — supports "
            f"z ≤ 29, got z={int(z.max())}")
    key = (z.astype(np.uint64) << np.uint64(58)) \
        | (tx.astype(np.uint64) << np.uint64(29)) | ty.astype(np.uint64)
    order = np.lexsort((ids, key))
    out = {"z": [], "tile_x": [], "tile_y": [], "tile": [], "idmap": [],
           "ids": [], "n_frags": []}
    i = 0
    n = batch.num_rows
    frag_col = batch["frag"]
    while i < n:
        j = i
        while j < n and key[order[j]] == key[order[i]]:
            j += 1
        rows = order[i:j]
        local_ids = [str(ids[r]) for r in rows]  # ascending (lexsort)
        canvas = np.zeros((ts, ts, 4), dtype=np.uint8)
        code = np.full((ts, ts), -1, dtype=np.int32)
        for c, r in enumerate(rows):
            frag = np.frombuffer(frag_col[int(r)].as_buffer(),
                                 dtype=np.uint8).reshape(ts, ts, 4)
            m = frag[:, :, 3] > 0
            canvas[m] = frag[m]
            code[m] = c
        out["z"].append(int(z[rows[0]]))
        out["tile_x"].append(int(tx[rows[0]]))
        out["tile_y"].append(int(ty[rows[0]]))
        out["tile"].append(canvas.tobytes())
        out["idmap"].append(code.tobytes())
        out["ids"].append(local_ids)
        out["n_frags"].append(len(rows))
        i = j
    return pa.table({
        "z": pa.array(out["z"], pa.int64()),
        "tile_x": pa.array(out["tile_x"], pa.int64()),
        "tile_y": pa.array(out["tile_y"], pa.int64()),
        "tile": pa.array(out["tile"], pa.binary()),
        "idmap": pa.array(out["idmap"], pa.binary()),
        "ids": pa.array(out["ids"], pa.list_(pa.string())),
        "n_frags": pa.array(out["n_frags"], pa.int64()),
    })


def merge_composite_group(group: pa.Table,
                          tile_size: int = TILE_SIZE) -> pa.Table:
    """Merge a tile's PARTIAL canvases (from :func:`partial_composite_batch`)
    into the final tile row — per-pixel argmax over globally-ranked
    image_id codes; output schema identical to
    :func:`composite_tile_group`."""
    from .stats import gdal_checksum
    ts = tile_size
    p = group.num_rows
    id_lists = group["ids"].to_pylist()
    if p == 1:
        canvas = np.frombuffer(group["tile"][0].as_buffer(),
                               dtype=np.uint8).reshape(ts, ts, 4)
    else:
        global_ids = sorted({s for lst in id_lists for s in lst})
        rank = {s: k for k, s in enumerate(global_ids)}
        codes = np.empty((p, ts * ts), dtype=np.int32)
        canvases = np.empty((p, ts * ts, 4), dtype=np.uint8)
        for r in range(p):
            local = np.frombuffer(group["idmap"][r].as_buffer(),
                                  dtype=np.int32).reshape(-1)
            remap = np.array([rank[s] for s in id_lists[r]], dtype=np.int32)
            codes[r] = np.where(local >= 0, remap[np.maximum(local, 0)], -1)
            canvases[r] = np.frombuffer(group["tile"][r].as_buffer(),
                                        dtype=np.uint8).reshape(ts * ts, 4)
        win = np.argmax(codes, axis=0)
        canvas = canvases[win, np.arange(ts * ts)].reshape(ts, ts, 4)
    checks = [int(gdal_checksum(canvas[:, :, b])) for b in range(3)]
    return pa.table({
        "z": group["z"][:1], "tile_x": group["tile_x"][:1],
        "tile_y": group["tile_y"][:1],
        "tile": pa.array([canvas.tobytes()], pa.binary()),
        "n_frags": pa.array([int(np.sum(group["n_frags"].to_numpy()))],
                            pa.int64()),
        "checksum_r": pa.array([checks[0]], pa.int64()),
        "checksum_g": pa.array([checks[1]], pa.int64()),
        "checksum_b": pa.array([checks[2]], pa.int64()),
    })


def composite_tiles(frags_ds):
    """Fragments Dataset → composited tiles: within-block pre-combine
    (combiner) + ``groupby((z,x,y))`` merge — the two-level reduce that
    replaces one ``map_groups`` invocation per tile (VERDICT r1 wrong-6:
    at 10⁹ tiles per-group overhead dominates without the combiner)."""
    return (frags_ds
            .map_batches(partial_composite_batch, batch_format="pyarrow")
            .groupby(["z", "tile_x", "tile_y"])
            .map_groups(merge_composite_group, batch_format="pyarrow"))


# ---------------------------------------------------------------------------
# Stage 4: overview pyramid (per-zoom groupby(parent) 4→1 reduce)
# ---------------------------------------------------------------------------

def _parent_key(batch: pa.Table) -> pa.Table:
    z = batch["z"].to_numpy()
    batch = batch.append_column("pz", pa.array(z - 1))
    batch = batch.append_column("px", pa.array(batch["tile_x"].to_numpy() >> 1))
    batch = batch.append_column("py", pa.array(batch["tile_y"].to_numpy() >> 1))
    return batch


def _write_tiles(tiles_ds, out_dir: str, ext: str, encode):
    """``out_dir/z/x/y.<ext>`` tiles with a per-tile lineage manifest — the
    gdal2tiles output layout with ``--resume`` generalized
    (gdal2tiles.py:2880-2883: skip-existing; here the manifest is the
    committed-set, written AFTER the atomic tile rename).  ``encode(canvas,
    z, x, y)`` gives the file bytes of one RGBA tile.

    Returns the small per-tile status Dataset (consume it to run)."""
    import json
    import os

    from .util import staged

    def atomic_write(path: str, data: bytes) -> None:
        with staged(path) as tmp, open(tmp, "wb") as fh:
            fh.write(data)

    def write_batch(batch: pa.Table) -> pa.Table:
        ts = TILE_SIZE
        statuses = []
        mdir = os.path.join(out_dir, "_manifest")
        os.makedirs(mdir, exist_ok=True)
        for i in range(batch.num_rows):
            z = int(batch["z"][i].as_py())
            x = int(batch["tile_x"][i].as_py())
            y = int(batch["tile_y"][i].as_py())
            mpath = os.path.join(mdir, f"{z}-{x}-{y}.json")
            if os.path.exists(mpath):
                statuses.append("skipped")
                continue
            canvas = np.frombuffer(batch["tile"][i].as_buffer(),
                                   dtype=np.uint8).reshape(ts, ts, 4)
            d = os.path.join(out_dir, str(z), str(x))
            os.makedirs(d, exist_ok=True)
            atomic_write(os.path.join(d, f"{y}.{ext}"),
                         encode(canvas, z, x, y))
            atomic_write(mpath, json.dumps({
                "tile": [z, x, y],
                "n_frags": int(batch["n_frags"][i].as_py()),
                "checksum_r": int(batch["checksum_r"][i].as_py())}).encode())
            statuses.append("written")
        return pa.table({"z": batch["z"], "tile_x": batch["tile_x"],
                         "tile_y": batch["tile_y"],
                         "status": pa.array(statuses, pa.string())})

    return tiles_ds.map_batches(write_batch, batch_format="pyarrow")


def write_tiles_png(tiles_ds, out_dir: str):
    """Write composited tiles as ``out_dir/z/x/y.png`` with the resumable
    manifest of :func:`_write_tiles`.  Returns the per-tile status
    Dataset (consume it to run)."""
    from .codecs import png_encode
    return _write_tiles(tiles_ds, out_dir, "png",
                        lambda canvas, z, x, y: png_encode(canvas))


def partial_overview_batch(batch: pa.Table,
                           tile_size: int = TILE_SIZE) -> pa.Table:
    """WITHIN-BLOCK combiner for the overview reduce: a block's children
    of the same parent pack into ONE row carrying their (quadrant, tile)
    pairs — the ``groupby(parent)`` moves ~1 row per (parent, block)
    instead of up to 4 child rows, with no byte inflation (quadrants
    never overlap, so merging is pure placement)."""
    if batch.num_rows == 0:
        return pa.table({
            "pz": pa.array([], pa.int64()),
            "px": pa.array([], pa.int64()),
            "py": pa.array([], pa.int64()),
            "quads": pa.array([], pa.list_(pa.int64())),
            "tiles": pa.array([], pa.list_(pa.binary())),
            "n_children": pa.array([], pa.int64()),
        })
    batch = _parent_key(batch)
    pz = batch["pz"].to_numpy()
    px = batch["px"].to_numpy()
    py = batch["py"].to_numpy()
    xs = batch["tile_x"].to_numpy()
    ys = batch["tile_y"].to_numpy()
    key = (pz.astype(np.int64) << 48) ^ (px.astype(np.int64) << 24) \
        ^ py.astype(np.int64)
    order = np.argsort(key, kind="stable")
    out = {"pz": [], "px": [], "py": [], "quads": [], "tiles": [],
           "n_children": []}
    i = 0
    n = batch.num_rows
    tile_col = batch["tile"]
    while i < n:
        j = i
        while j < n and key[order[j]] == key[order[i]]:
            j += 1
        rows = order[i:j]
        out["pz"].append(int(pz[rows[0]]))
        out["px"].append(int(px[rows[0]]))
        out["py"].append(int(py[rows[0]]))
        out["quads"].append([int((ys[r] & 1) * 2 + (xs[r] & 1))
                             for r in rows])
        out["tiles"].append([tile_col[int(r)].as_py() for r in rows])
        out["n_children"].append(len(rows))
        i = j
    return pa.table({
        "pz": pa.array(out["pz"], pa.int64()),
        "px": pa.array(out["px"], pa.int64()),
        "py": pa.array(out["py"], pa.int64()),
        "quads": pa.array(out["quads"], pa.list_(pa.int64())),
        "tiles": pa.array(out["tiles"], pa.list_(pa.binary())),
        "n_children": pa.array(out["n_children"], pa.int64()),
    })


def merge_overview_group(group: pa.Table,
                         tile_size: int = TILE_SIZE,
                         kernel: str = "average") -> pa.Table:
    """Place the partials' (quadrant, tile) pairs on the 2× canvas and
    downsample with ``kernel`` (create_overview_tile,
    gdal2tiles.py:1515-1560) — one composited tile row per parent."""
    from .stats import gdal_checksum
    ts = tile_size
    canvas = np.zeros((2 * ts, 2 * ts, 4), dtype=np.uint8)
    for r in range(group.num_rows):
        quads = group["quads"][r].as_py()
        tiles = group["tiles"][r]
        for k, q in enumerate(quads):
            qy, qx = divmod(int(q), 2)
            child = np.frombuffer(tiles[k].as_buffer(),
                                  dtype=np.uint8).reshape(ts, ts, 4)
            canvas[qy * ts:(qy + 1) * ts, qx * ts:(qx + 1) * ts] = child
    shrunk = _KERNELS[kernel](canvas, ts, ts)
    checks = [int(gdal_checksum(shrunk[:, :, b])) for b in range(3)]
    return pa.table({
        "z": group["pz"][:1], "tile_x": group["px"][:1],
        "tile_y": group["py"][:1],
        "tile": pa.array([shrunk.tobytes()], pa.binary()),
        "n_frags": pa.array([int(np.sum(group["n_children"].to_numpy()))],
                            pa.int64()),
        "checksum_r": pa.array([checks[0]], pa.int64()),
        "checksum_g": pa.array([checks[1]], pa.int64()),
        "checksum_b": pa.array([checks[2]], pa.int64()),
    })


def build_pyramid(base_tiles_ds, tminz: int, tmaxz: int,
                  kernel: str = "average"):
    """tmaxz-1 … tminz overview levels; returns {z: Dataset}.  One
    groupby per level = gdal2tiles' per-zoom barrier (gdal2tiles.py:1708
    group_overview_base_tiles), each with the within-block combiner so
    the shuffle moves ~1 partial per (parent, block), not every child.
    ``kernel`` picks the 4→1 reduce (gcore/overview.cpp:4156-4225
    dispatch: average/near/bilinear/rms/mode/gauss/cubic/cubicspline/
    lanczos)."""
    import functools
    levels = {tmaxz: base_tiles_ds}
    cur = base_tiles_ds
    merge = functools.partial(merge_overview_group, kernel=kernel)
    for z in range(tmaxz - 1, tminz - 1, -1):
        cur = (cur.map_batches(partial_overview_batch,
                               batch_format="pyarrow")
                  .groupby(["pz", "px", "py"])
                  .map_groups(merge, batch_format="pyarrow"))
        levels[z] = cur
    return levels


def _geotiff_tile(canvas: np.ndarray, z: int, x: int, y: int) -> bytes:
    """One RGBA tile as a GeoTIFF carrying its EPSG:3857 geotransform (from
    the exact tile bounds) and the PixelIsArea GeoKeys."""
    from .gtiff import tiff_encode
    minx, _, maxx, maxy = tile_bounds_meters(x, y, z, TILE_SIZE)
    res = (maxx - minx) / TILE_SIZE
    return tiff_encode(canvas, compression="deflate", predictor=2,
                       geotransform=(minx, res, 0.0, maxy, 0.0, -res),
                       crs="EPSG:3857")


def write_tiles_cog(tiles_ds, out_dir: str):
    """Write composited tiles as georeferenced ``out_dir/z/x/y.tif``
    GeoTIFFs (the gdal2tiles ``--tiledriver=GTiff`` analog, through the
    from-scratch TIFF codec), so any GDAL reader opens the pyramid
    georeferenced.  Same atomic rename + manifest resume protocol as
    ``write_tiles_png``.

    Returns the small per-tile status Dataset (consume it to run)."""
    return _write_tiles(tiles_ds, out_dir, "tif", _geotiff_tile)
