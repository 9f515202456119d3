"""Image codecs for the ``bytes`` column — pure numpy + stdlib zlib.

The container has no imaging libraries (no PIL/libjpeg/OpenCV), so:

* **PNG** is implemented for real — decoder covers the full static
  spec: color types 0/2/3/4/6 (gray / RGB / palette / gray+alpha /
  RGBA), bit depths 1/2/4/8/16, all five row filters, Adam7
  interlacing, PLTE + tRNS palette alpha; encoder emits 8-bit
  gray/RGB/RGBA (filter 0, optional Adam7) — losslessly exact, the
  "exact for PNG" half of the BASELINE fidelity gate.
* **JPEG** is real and from scratch (``georay.jpeg``): baseline SOF0
  AND progressive SOF2, both directions.

GDAL analog: the raster driver decode path (frmts/…); we only need codec
decode of the ``bytes`` column, not a driver framework (SURVEY.md §2.1).
"""

from __future__ import annotations

import ctypes
import struct
import zlib

import numpy as np

from .util import compiled

__all__ = [
    "png_encode", "png_decode", "encode_image", "decode_image", "psnr",
    "phash64",
]

_PNG_SIG = b"\x89PNG\r\n\x1a\n"
_COLOR_TYPE = {1: 0, 3: 2, 4: 6}  # channels -> PNG color type
_CHANNELS = {0: 1, 2: 3, 6: 4}


def _chunk(tag: bytes, payload: bytes) -> bytes:
    return (struct.pack(">I", len(payload)) + tag + payload
            + struct.pack(">I", zlib.crc32(tag + payload) & 0xFFFFFFFF))


def png_encode(arr: np.ndarray, compress_level: int = 6,
               interlace: bool = False) -> bytes:
    """Encode HxW (gray), HxWx3 (RGB) or HxWx4 (RGBA) uint8 → PNG bytes.

    Row filter 0 (None) throughout — simple, deterministic, exact.
    ``interlace=True`` emits Adam7 (seven filter-independent passes)."""
    arr = np.asarray(arr, dtype=np.uint8)
    if arr.ndim == 2:
        arr = arr[:, :, None]
    h, w, ch = arr.shape
    if ch not in _COLOR_TYPE:
        raise ValueError(f"unsupported channel count {ch}")
    ihdr = struct.pack(">IIBBBBB", w, h, 8, _COLOR_TYPE[ch], 0, 0,
                       1 if interlace else 0)
    if interlace:
        parts = []
        for x0, y0, dx, dy in _ADAM7:
            sub = arr[y0::dy, x0::dx]
            ph, pw = sub.shape[:2]
            if ph == 0 or pw == 0:
                continue
            raw = np.empty((ph, 1 + pw * ch), dtype=np.uint8)
            raw[:, 0] = 0
            raw[:, 1:] = sub.reshape(ph, pw * ch)
            parts.append(raw.tobytes())
        idat = zlib.compress(b"".join(parts), compress_level)
    else:
        # prepend filter byte 0 to every row
        raw = np.empty((h, 1 + w * ch), dtype=np.uint8)
        raw[:, 0] = 0
        raw[:, 1:] = arr.reshape(h, w * ch)
        idat = zlib.compress(raw.tobytes(), compress_level)
    return (_PNG_SIG + _chunk(b"IHDR", ihdr) + _chunk(b"IDAT", idat)
            + _chunk(b"IEND", b""))


def _paeth(a, b, c):
    p = a.astype(np.int32) + b.astype(np.int32) - c.astype(np.int32)
    pa, pb, pc = np.abs(p - a), np.abs(p - b), np.abs(p - c)
    out = np.where((pa <= pb) & (pa <= pc), a, np.where(pb <= pc, b, c))
    return out.astype(np.uint8)


# channels per color type: 0 gray, 2 RGB, 3 palette idx, 4 gray+alpha,
# 6 RGBA
_CT_CHANNELS = {0: 1, 2: 3, 3: 1, 4: 2, 6: 4}

# Adam7 pass grid: (x0, y0, dx, dy) — PNG spec 8.2
_ADAM7 = ((0, 0, 8, 8), (4, 0, 8, 8), (0, 4, 4, 8), (2, 0, 4, 4),
          (0, 2, 2, 4), (1, 0, 2, 2), (0, 1, 1, 2))


def _unfilter_rows(raw: np.ndarray, h: int, rowbytes: int,
                   bpp: int) -> np.ndarray:
    """PNG filter reconstruction over one (sub-)image: ``raw`` is
    h·(1+rowbytes) filter-prefixed bytes; returns (h, rowbytes) uint8."""
    rows = raw.reshape(h, 1 + rowbytes)
    filters = rows[:, 0]
    out = np.zeros((h, rowbytes), dtype=np.uint8)
    if not filters.any():
        out[:] = rows[:, 1:]        # fast path: all filter 0 (our encoder)
        return out
    for y in range(h):
        f = filters[y]
        cur = rows[y, 1:].astype(np.uint8).copy()
        prev = out[y - 1] if y > 0 else np.zeros(rowbytes, dtype=np.uint8)
        if f == 0:
            out[y] = cur
        elif f == 2:  # Up
            out[y] = cur + prev
        elif f in (1, 3, 4):  # Sub / Average / Paeth: left-dependent scan
            line = np.zeros(rowbytes, dtype=np.uint8)
            for x in range(rowbytes):
                a = int(line[x - bpp]) if x >= bpp else 0
                b = int(prev[x])
                if f == 1:
                    line[x] = (int(cur[x]) + a) & 0xFF
                elif f == 3:
                    line[x] = (int(cur[x]) + (a + b) // 2) & 0xFF
                else:
                    c = int(prev[x - bpp]) if x >= bpp else 0
                    pred = int(_paeth(np.asarray(a), np.asarray(b),
                                      np.asarray(c)))
                    line[x] = (int(cur[x]) + pred) & 0xFF
            out[y] = line
        else:
            raise ValueError(f"bad PNG filter {f}")
    return out


def _rows_to_samples(rows: np.ndarray, w: int, ch: int, depth: int,
                     scale_sub8: bool) -> np.ndarray:
    """(h, rowbytes) unfiltered bytes → (h, w, ch) samples (uint8, or
    uint16 for depth 16).  Sub-8-bit samples unpack MSB-first; gray
    scales to full 8-bit range (spec sample depth scaling), palette
    indices do NOT scale."""
    h = rows.shape[0]
    if depth == 8:
        return rows[:, :w * ch].reshape(h, w, ch)
    if depth == 16:
        u16 = rows[:, :w * ch * 2].reshape(h, w * ch, 2).astype(np.uint16)
        return ((u16[:, :, 0] << 8) | u16[:, :, 1]).reshape(h, w, ch)
    # 1/2/4-bit (single channel only: gray or palette indices)
    bits = np.unpackbits(rows, axis=1)[:, :w * depth]
    vals = np.zeros((h, w), dtype=np.uint8)
    for b in range(depth):
        vals = (vals << 1) | bits[:, b::depth]
    if scale_sub8:
        vals = (vals.astype(np.uint16) * 255 // ((1 << depth) - 1))\
            .astype(np.uint8)
    return vals.reshape(h, w, 1)


def png_decode(data: bytes) -> np.ndarray:
    """Decode a PNG → numpy array: gray (h,w), gray+alpha (h,w,2),
    RGB (h,w,3) or RGBA (h,w,4); uint8, or uint16 for 16-bit depth.

    Full static-image spec coverage: color types 0/2/3/4/6, bit depths
    1/2/4/8/16, all five row filters, Adam7 interlacing (each pass a
    filter-independent sub-image), PLTE palette expansion and tRNS
    palette alpha (→ RGBA when present)."""
    if bytes(data[:8]) != _PNG_SIG:
        raise ValueError("not a PNG")
    pos, w = 8, None
    idat = []
    plte = trns = None
    data = memoryview(data)
    while pos < len(data):
        (length,) = struct.unpack_from(">I", data, pos)
        tag = bytes(data[pos + 4:pos + 8])
        payload = data[pos + 8:pos + 8 + length]
        pos += 12 + length
        if pos > len(data):
            raise ValueError(f"truncated PNG {tag!r} chunk")
        if tag == b"IHDR":
            w, h, depth, color_type, comp, filt, interlace = \
                struct.unpack(">IIBBBBB", payload)
            if color_type not in _CT_CHANNELS:
                raise ValueError(f"bad PNG color type {color_type}")
            if depth not in (1, 2, 4, 8, 16) \
                    or (depth < 8 and color_type not in (0, 3)) \
                    or (depth == 16 and color_type == 3):
                raise ValueError("illegal PNG depth/color combination")
            ch = _CT_CHANNELS[color_type]
        elif tag == b"PLTE":
            plte = np.frombuffer(payload, dtype=np.uint8)\
                .reshape(-1, 3).copy()
        elif tag == b"tRNS" and len(payload):
            trns = np.frombuffer(payload, dtype=np.uint8).copy()
        elif tag == b"IDAT":
            idat.append(bytes(payload))
        elif tag == b"IEND":
            break
    raw = np.frombuffer(zlib.decompress(b"".join(idat)), dtype=np.uint8)
    bpp = max(1, ch * depth // 8)
    scale = color_type == 0          # gray scales, palette indices don't

    def rowbytes(width):
        return (width * ch * depth + 7) // 8

    if interlace == 0:
        rows = _unfilter_rows(raw, h, rowbytes(w), bpp)
        img = _rows_to_samples(rows, w, ch, depth, scale)
    elif interlace == 1:
        img = np.zeros((h, w, ch),
                       dtype=np.uint16 if depth == 16 else np.uint8)
        off = 0
        for x0, y0, dx, dy in _ADAM7:
            pw = (w - x0 + dx - 1) // dx
            ph = (h - y0 + dy - 1) // dy
            if pw == 0 or ph == 0:
                continue
            nb = ph * (1 + rowbytes(pw))
            rows = _unfilter_rows(raw[off:off + nb], ph, rowbytes(pw),
                                  bpp)
            off += nb
            img[y0::dy, x0::dx] = _rows_to_samples(rows, pw, ch, depth,
                                                   scale)
    else:
        raise ValueError(f"bad PNG interlace method {interlace}")

    if color_type == 3:
        if plte is None:
            raise ValueError("palette PNG without PLTE")
        idx = img[:, :, 0]
        rgb = plte[idx]
        if trns is not None:
            alpha = np.full(len(plte), 255, dtype=np.uint8)
            alpha[:len(trns)] = trns
            return np.concatenate([rgb, alpha[idx][:, :, None]], axis=2)
        return rgb
    return img[:, :, 0] if ch == 1 else img


_JPEG_QUALITY = 95  # fixture default: worst-case PSNR ≈ 41.6 dB ≥ 40 gate


def encode_image(arr: np.ndarray, fmt: str) -> bytes:
    """``fmt="jpeg"`` emits REAL baseline JFIF (georay.jpeg — from-scratch
    ITU T.81 codec)."""
    if fmt == "png":
        return png_encode(arr)
    if fmt == "jpeg":
        from .jpeg import jpeg_encode
        return jpeg_encode(arr, quality=_JPEG_QUALITY)
    if fmt == "tiff":
        from .gtiff import tiff_encode
        return tiff_encode(arr, predictor=2 if arr.dtype.kind in "ui"
                           else 1)
    if fmt == "webp":
        from .webp import webp_encode
        return webp_encode(arr)
    if fmt in ("jp2", "j2k"):
        from .jp2 import j2k_encode, jp2_encode
        return (jp2_encode if fmt == "jp2" else j2k_encode)(arr)
    if fmt == "gif":
        from .gifbmp import gif_encode
        return gif_encode(arr)
    if fmt == "bmp":
        from .gifbmp import bmp_encode
        return bmp_encode(arr)
    if fmt in ("pnm", "pgm", "ppm"):
        from .gifbmp import pnm_encode
        return pnm_encode(arr)
    raise ValueError(f"unsupported fmt {fmt!r}")


def decode_image(data: bytes, fmt: str) -> np.ndarray:
    """Decode one ``bytes`` payload.  PNG → exact; "jpeg" → the from-scratch
    baseline JPEG decoder (georay.jpeg).

    Truncated or corrupt input raises ``ValueError`` whatever the codec
    trips over (a read past a short buffer, a bad zlib stream), so one
    ``except ValueError`` marks a bad row."""
    try:
        return _decode_image(data, fmt)
    except (IndexError, KeyError, EOFError, OverflowError, struct.error,
            zlib.error) as e:
        raise ValueError(f"corrupt {fmt} payload: "
                         f"{type(e).__name__}: {e}") from e


def _decode_image(data: bytes, fmt: str) -> np.ndarray:
    if fmt == "png":
        return png_decode(data)
    if fmt == "jpeg":
        if bytes(data[:2]) != b"\xff\xd8":
            raise ValueError("unrecognized jpeg payload")
        from .jpeg import jpeg_decode
        return jpeg_decode(data)
    if fmt == "tiff":
        from .gtiff import tiff_decode
        return tiff_decode(data)[0]
    if fmt == "webp":
        # lossless VP8L (georay.webp, from scratch); grayscale inputs
        # come back expanded to 3 identical channels (ARGB data model)
        from .webp import webp_decode
        return webp_decode(data)
    if fmt in ("jp2", "j2k"):
        # lossless Part-1 JPEG 2000 (georay.jp2, from scratch)
        from .jp2 import jp2_decode
        return jp2_decode(data)
    if fmt == "gif":
        from .gifbmp import gif_decode
        return gif_decode(data)
    if fmt == "bmp":
        from .gifbmp import bmp_decode
        return bmp_decode(data)
    if fmt in ("pnm", "pgm", "ppm"):
        from .gifbmp import pnm_decode
        return pnm_decode(data)
    raise ValueError(f"unsupported fmt {fmt!r}")


def psnr(a: np.ndarray, b: np.ndarray) -> float:
    """Peak signal-to-noise ratio in dB (peak=255); inf for identical."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    mse = np.mean((a - b) ** 2)
    if mse == 0:
        return float("inf")
    return float(10.0 * np.log10(255.0 ** 2 / mse))


# ---------------------------------------------------------------------------
# 64-bit perceptual hash (classic DCT pHash)
# ---------------------------------------------------------------------------

def _dct_matrix(n: int) -> np.ndarray:
    k = np.arange(n)
    mat = np.cos(np.pi / n * (k[:, None] + 0.5) * k[None, :])
    return mat  # DCT-II basis (unnormalized is fine for thresholding)


_DCT32 = _dct_matrix(32)


# bit weights of the 63 AC terms, MSB-first below the (zero) DC bit
_POW2 = np.left_shift(np.int64(1), np.arange(62, -1, -1, dtype=np.int64))


def _phash_bins():
    """The compiled box resize, ``_phash.c``'s ``phash_bins``
    (:func:`georay.util.compiled`)."""
    return compiled("_phash.c", "phash_bins",
                    [ctypes.c_void_p] + [ctypes.c_int64] * 6
                    + [ctypes.c_void_p], None)


def phash64(arr: np.ndarray) -> np.int64:
    """Classic pHash of a uint8 ``(h, w)`` gray or ``(h, w, b)`` image:
    gray → 32×32 box resize → 2-D DCT-II → top-left 8×8 (skip DC) →
    median threshold → 64 bits (packed MSB-first, int64).  Any other
    dtype, rank or an empty image raises ``ValueError``.

    The gray conversion and box resize are fused in integer space: the
    block mean of (r+g+b)/3 equals blockmean(r+g+b)/3, so one compiled
    pass (``_phash.c``) reads the image once, through its strides, into
    exact band-summed 32×32 bin sums and pixel counts — no
    full-resolution gray array is ever materialized.  A multi-band image
    sums all its bands and divides by 3."""
    arr = np.asarray(arr)
    if arr.dtype != np.uint8:
        raise ValueError(f"phash64 needs uint8 pixels, got {arr.dtype}")
    if arr.ndim not in (2, 3) or 0 in arr.shape:
        raise ValueError(f"phash64 needs a non-empty (h, w) or (h, w, b) "
                         f"image, got shape {arr.shape}")
    b, band_stride = (arr.shape[2], arr.strides[2]) if arr.ndim == 3 \
        else (1, 1)
    bins = np.empty((2, 32, 32), dtype=np.int64)
    _phash_bins()(arr.ctypes.data, arr.shape[0], arr.shape[1], b,
                  arr.strides[0], arr.strides[1], band_stride,
                  bins.ctypes.data)
    sums, cnt = bins
    divisor = 3.0 if arr.ndim == 3 else 1.0
    small = sums.astype(np.float64) / np.maximum(cnt, 1.0) / divisor
    d = _DCT32.T @ small @ _DCT32
    vals = d[:8, :8].ravel()[1:]  # drop DC
    # quantize: synthetic/flat images produce coefficient clusters within
    # ~1e-13 of each other, where float summation order would flip bits —
    # the hash must be stable across vectorization strategies
    vals = np.round(vals, 6)
    med = np.partition(vals, 31)[31]  # the median of the 63 values
    # bit 63 (the DC slot) is 0, so the hash is (vals > med) weighted
    return (vals > med) @ _POW2
