"""Web-Mercator XYZ tile cutting + overview pyramid — the gdal2tiles
pipeline re-expressed Ray-Data-first (reference: osgeo_utils/gdal2tiles.py;
plan §3.3 of SURVEY.md):

* base tiles: one batch planner, :func:`plan_tiles`, turns a batch's
  metadata columns (``w, h, ulx, uly, psize``, known before any decode)
  into one int64 row per (image, tile its extent overlaps at ``zoom``)
  holding the source read and destination write windows, in one numpy
  pass (tile ranges per gdal2tiles.py:2460-2467, windows per the exact
  ``geo_query`` port, gdal2tiles.py:2995-3037, zero-coverage tiles
  excluded per :2950-2953).  :func:`cut_tiles` resamples each row's
  window into a 256×256 RGBA fragment (``scale_query_to_tile`` analog,
  gdal2tiles.py:856-918); the fused flagship stage instead checksums every
  fragment of an image in one compiled pass (:func:`fragment_sums`).
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

import ctypes

import numpy as np
import pyarrow as pa

from .decode import pixel_arrays
from .mercator import (TILE_SIZE, latlon_to_tile_xyz, meters_to_tile,
                       tile_bounds_meters, tms_to_xyz_y)
from .stats import CHECKSUM_PRIMES
from .util import compiled

__all__ = [
    "resample_average", "resample_nearest", "resample_bilinear",
    "assign_center_tile", "plan_tiles", "fragment_sums", "cut_tiles",
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
    # Integer cumsum (int32 when it fits): bit-identical to the float64
    # path (both are exact integer arithmetic at these magnitudes) at
    # half/quarter the memory traffic.
    idt = np.int32 if h * w < (1 << 23) else np.int64
    integ = np.zeros((h + 1, w + 1, a.shape[2]), dtype=idt)
    integ[1:, 1:] = a
    # in place over the whole array: contiguous passes, twice as fast as
    # accumulating into the strided [1:, 1:] view
    np.cumsum(integ, axis=0, out=integ)
    np.cumsum(integ, axis=1, out=integ)
    out = np.clip(np.rint(_box_means(integ, oh, ow)), 0, 255)\
        .astype(src.dtype)
    return out[:, :, 0] if src.ndim == 2 else out


def _box_means(integ: np.ndarray, oh: int, ow: int) -> np.ndarray:
    """Mean of each of the ``oh``×``ow`` equal fractional boxes that tile
    an image, from its ``(h+1, w+1, bands)`` integral image ``integ``
    (zero first row and column).  The double integral of a piecewise-
    constant image is piecewise-BILINEAR, so bilinear sampling of it at
    fractional coordinates yields EXACT fractional box sums; it is
    sampled once, on the full ``(oh+1)×(ow+1)`` grid of box edges, and
    each box sum is four corners of that grid."""
    h, w = integ.shape[0] - 1, integ.shape[1] - 1
    ye = np.linspace(0, h, oh + 1)
    xe = np.linspace(0, w, ow + 1)
    yi = np.clip(np.floor(ye).astype(np.int64), 0, h - 1)
    xi = np.clip(np.floor(xe).astype(np.int64), 0, w - 1)
    fy = (ye - yi)[:, None, None]
    fx = (xe - xi)[None, :, None]
    gy, gx = 1 - fy, 1 - fx
    top, bottom = integ[yi], integ[yi + 1]
    g = (top[:, xi] * gy * gx + top[:, xi + 1] * gy * fx
         + bottom[:, xi] * fy * gx + bottom[:, xi + 1] * fy * fx)
    sums = g[1:, 1:] - g[:-1, 1:] - g[1:, :-1] + g[:-1, :-1]
    area = ((ye[1:] - ye[:-1])[:, None]
            * (xe[1:] - xe[:-1])[None, :])[:, :, None]
    return sums / area


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
    out = np.clip(np.rint(np.sqrt(_box_means(integ, oh, ow))), 0, 255)\
        .astype(src.dtype)
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


def _axis_windows(t0, t1, origin, step, size, ts: int):
    """``geo_query`` (gdal2tiles.py:2995-3037) along one axis, vectorized:
    the read offset and size and the write offset and size of the tile
    span ``t0 → t1`` in a raster of ``size`` pixels whose first edge is at
    ``origin``, ``step`` per pixel, with its ``+0.001``/``+0.5`` rounding
    (``int`` truncates toward zero, as ``astype`` does) and the clamps
    that shift the write window."""
    r = ((t0 - origin) / step + 0.001).astype(np.int64)
    rs = np.maximum(1, ((t1 - t0) / step + 0.5).astype(np.int64))
    wo = np.zeros_like(r)
    ws = np.full_like(r, ts)
    neg = r < 0
    frac = -r[neg] / rs[neg]
    wo[neg] = (ws[neg] * frac).astype(np.int64)
    ws[neg] -= wo[neg]
    rs[neg] -= (rs[neg] * frac).astype(np.int64)
    r[neg] = 0
    over = r + rs > size
    ws[over] = (ws[over] * ((size[over] - r[over]) / rs[over])).astype(
        np.int64)
    rs[over] = size[over] - r[over]
    return r, rs, wo, ws


def plan_tiles(w, h, ulx, uly, ps, z: int, ts: int = TILE_SIZE) -> np.ndarray:
    """The one tile-window planner: for images ``w``×``h`` (upper-left
    ``ulx, uly``, pixel size ``ps``, EPSG:3857; one array entry per
    image), one int64 row per (image, zoom-``z`` tile it covers) with the
    11 columns ``img, tile_x, tile_y, rx, ry, rxs, rys, wx, wy, wxs,
    wys``: the image index, the tile (``tile_y`` in XYZ), the source
    window ``(rx, ry, rxs, rys)`` and the destination window ``(wx, wy,
    wxs, wys)`` it is resampled to.  Rows are ordered by image, then TMS
    tile row, then tile column — gdal2tiles' loop order.

    Tile ranges per gdal2tiles.py:2460-2467, windows per ``geo_query``
    (gdal2tiles.py:2995-3037), zero-coverage tiles skipped
    (gdal2tiles.py:2950-2953).  A window's x part depends only on its
    tile column and its y part only on its tile row, so each is computed
    once per (image, column) and (image, row), then crossed."""
    w = np.asarray(w, np.int64)
    h = np.asarray(h, np.int64)
    ulx = np.asarray(ulx, np.float64)
    uly = np.asarray(uly, np.float64)
    ps = np.asarray(ps, np.float64)
    n = len(w)
    # tile_range_for_extent, per image
    tminx, tminy = meters_to_tile(ulx, uly - h * ps, z, ts)
    tmaxx, tmaxy = meters_to_tile(ulx + w * ps, uly, z, ts)
    top = (1 << z) - 1
    tminx, tminy, tmaxx, tmaxy = (np.clip(t, 0, top) for t in
                                  (tminx, tminy, tmaxx, tmaxy))
    nx = tmaxx - tminx + 1
    ny = tmaxy - tminy + 1
    x0 = np.cumsum(nx) - nx               # first (image, column) of each
    y0 = np.cumsum(ny) - ny
    xi = np.repeat(np.arange(n), nx)      # image of each (image, column)
    yi = np.repeat(np.arange(n), ny)
    tx = tminx[xi] + np.arange(len(xi)) - x0[xi]
    ty = tminy[yi] + np.arange(len(yi)) - y0[yi]
    bx0, _, bx1, _ = tile_bounds_meters(tx, 0, z, ts)
    _, by0, _, by1 = tile_bounds_meters(0, ty, z, ts)
    rx, rxs, wx, wxs = _axis_windows(bx0, bx1, ulx[xi], ps[xi], w[xi], ts)
    ry, rys, wy, wys = _axis_windows(by1, by0, uly[yi], -ps[yi], h[yi], ts)
    # the (image, row, column) cross, TMS row outer
    cnt = nx * ny
    img = np.repeat(np.arange(n), cnt)
    j = np.arange(len(img)) - np.repeat(np.cumsum(cnt) - cnt, cnt)
    cx = x0[img] + j % nx[img]
    cy = y0[img] + j // nx[img]
    keep = ((rxs > 0) & (wxs > 0))[cx] & ((rys > 0) & (wys > 0))[cy]
    cx, cy, img = cx[keep], cy[keep], img[keep]
    return np.stack([img, tx[cx], tms_to_xyz_y(ty[cy], z), rx[cx], ry[cy],
                     rxs[cx], rys[cy], wx[cx], wy[cy], wxs[cx], wys[cy]],
                    axis=1)


# _PRIME_MOD[m, v] = v % CHECKSUM_PRIMES[m]: the checksum's LUT as seen by
# the compiled pass
_PRIME_MOD = (np.arange(256) % CHECKSUM_PRIMES[:, None]).astype(np.uint8)


def fragment_sums(src: np.ndarray, plan: np.ndarray) -> np.ndarray:
    """Prime-LUT checksum of each tile fragment that the :func:`plan_tiles`
    rows ``plan`` cut from the uint8 RGB image ``src``: its window
    resampled (``average``, as :func:`cut_tiles` does by default) to the
    destination size and placed at the destination offset of an
    otherwise-zero 256×256 tile — the sum over its first 3 bands of
    ``pixel % LUT`` (the LUT of :func:`georay.stats.gdal_checksum`),
    masked to 16 bits.

    Upsampled (nearest) and 1:1 windows are summed straight from
    ``src`` by one compiled pass (``_tilesum.c``) over all of them; a
    downsampled window is first resampled by :func:`resample_average` and
    then summed as a 1:1 fragment by the same pass."""
    if src.dtype != np.uint8 or src.ndim != 3 or src.shape[2] < 3:
        raise ValueError(f"fragment_sums needs uint8 h×w×3 pixels, got "
                         f"{src.dtype} {src.shape}")
    plan = np.ascontiguousarray(plan, dtype=np.int64)
    if plan.ndim != 2 or plan.shape[1] != 11:
        raise ValueError(f"fragment_sums needs plan_tiles rows, got shape "
                         f"{plan.shape}")
    out = np.empty(len(plan), dtype=np.int64)
    _run_sums(np.ascontiguousarray(src), plan, out)
    rxs, rys, wxs, wys = plan[:, 5], plan[:, 6], plan[:, 9], plan[:, 10]
    down = (wys <= rys) & (wxs <= rxs) & ((wys < rys) | (wxs < rxs))
    for k in np.flatnonzero(down):
        _, _, _, rx, ry, sw, sh, wx, wy, ow, oh = plan[k].tolist()
        small = resample_average(src[ry:ry + sh, rx:rx + sw, :3], oh, ow)
        row = np.array([[0, 0, 0, 0, 0, ow, oh, wx, wy, ow, oh]], np.int64)
        _run_sums(small, row, out[k:k + 1])
    return out


def _run_sums(src: np.ndarray, plan: np.ndarray, out: np.ndarray) -> None:
    """One call of the compiled pass (``_tilesum.c``'s ``frag_sums``) over
    C-contiguous ``src`` and ``plan``, writing ``out``."""
    fn = compiled("_tilesum.c", "frag_sums",
                  [ctypes.c_void_p] + [ctypes.c_int64] * 4
                  + [ctypes.c_void_p, ctypes.c_int64, ctypes.c_void_p,
                     ctypes.c_void_p], ctypes.c_int)
    if fn(src.ctypes.data, src.shape[0], src.shape[1], src.strides[0],
          src.strides[1], plan.ctypes.data, len(plan),
          _PRIME_MOD.ctypes.data, out.ctypes.data):
        raise ValueError("fragment_sums: a plan row's window leaves the "
                         "image or the 256×256 tile")


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
    plan = plan_tiles(batch["w"].to_numpy(), batch["h"].to_numpy(),
                      batch["ulx"].to_numpy(), batch["uly"].to_numpy(),
                      batch["psize"].to_numpy(), zoom, ts)
    srcs = list(pixel_arrays(batch))
    ids = batch["image_id"].to_pylist()
    out_frag = []
    for i, _, _, rx, ry, rxs, rys, wx, wy, sw, sh in plan.tolist():
        scaled = _scale_to(srcs[i][ry:ry + rys, rx:rx + rxs], sh, sw,
                           resampling)
        frag = np.zeros((ts, ts, 4), dtype=np.uint8)
        frag[wy:wy + sh, wx:wx + sw, :3] = scaled
        frag[wy:wy + sh, wx:wx + sw, 3] = 255
        out_frag.append(frag.tobytes())
    return pa.table({
        "z": pa.array(np.full(len(plan), zoom, dtype=np.int64)),
        "tile_x": pa.array(plan[:, 1]),
        "tile_y": pa.array(plan[:, 2]),
        "image_id": pa.array([ids[i] for i in plan[:, 0].tolist()],
                             pa.string()),
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
