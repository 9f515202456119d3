"""GIF / BMP / PNM raster codecs — from scratch against the public
specs (reference scope: frmts/gif/gifdataset.cpp which wraps giflib,
frmts/bmp/bmpdataset.cpp, frmts/pnm — all pure-Python here, no native
libs).

* GIF (GIF87a/GIF89a): logical screen + global/local color tables,
  variable-width LZW (3-12 bit codes, LSB-first packing, CLEAR/EOI,
  deferred-clear tolerant), Adam-style 4-pass interlace, GCE
  transparency → alpha.  Decoder returns the FIRST image (GDAL's GIF
  driver likewise exposes one dataset; animation frames are
  subdatasets there).  Encoder quantizes >256-color inputs via
  median-cut (documented lossy path), exact otherwise, and emits real
  LZW with table reset at 4096.
* BMP: BITMAPFILEHEADER + BITMAPINFOHEADER, 1/4/8-bit palette and
  24/32-bit BGR(A), bottom-up and top-down rows, 4-byte row padding,
  RLE8 decompression.  Encoder writes 8-bit-palette gray or 24-bit.
* PNM: P2/P3 (ASCII) and P5/P6 (binary) gray/RGB, maxval ≤ 65535
  (16-bit samples big-endian per the spec).  Encoder emits P5/P6.

Scale shape: these run inside the decode stage (decode.py) like
every other format — one ``bytes`` payload per row, decoded per batch
in ``map_batches``; the sequential LZW inner loop touches only one
image at a time and is bounded by the format's own 12-bit code space.
"""

from __future__ import annotations

import struct

import numpy as np

__all__ = ["gif_decode", "gif_encode", "bmp_decode", "bmp_encode",
           "pnm_decode", "pnm_encode"]


# ---------------------------------------------------------------------------
# GIF
# ---------------------------------------------------------------------------

def _lzw_decode(data: bytes, mcs: int, npix: int) -> np.ndarray:
    """GIF variable-width LZW → index array (one byte per pixel)."""
    clear, eoi = 1 << mcs, (1 << mcs) + 1
    base = [bytes([i]) for i in range(1 << mcs)] + [b"", b""]
    table = list(base)
    width = mcs + 1
    out = bytearray()
    buf = bit = 0
    prev: bytes | None = None
    bits_avail = len(data) * 8
    pos = 0                                      # bit cursor
    by = memoryview(data)
    while pos + width <= bits_avail and len(out) < npix:
        # pull `width` bits LSB-first starting at bit `pos`
        byte0, off = divmod(pos, 8)
        chunk = int.from_bytes(by[byte0:byte0 + 3], "little")
        code = (chunk >> off) & ((1 << width) - 1)
        pos += width
        if code == clear:
            table = list(base)
            width = mcs + 1
            prev = None
            continue
        if code == eoi:
            break
        if prev is None:
            entry = table[code]
        elif code < len(table):
            entry = table[code]
            if len(table) < 4096:
                table.append(prev + entry[:1])
        elif code == len(table):                 # KwKwK case
            entry = prev + prev[:1]
            table.append(entry)
        else:
            raise ValueError("corrupt GIF LZW stream")
        out += entry
        prev = entry
        # late-change compensation: the decoder's table lags the
        # encoder's by one entry, so bump at 2^w - 1 (giflib parity)
        if len(table) == (1 << width) - 1 and width < 12:
            width += 1
    return np.frombuffer(bytes(out[:npix]), np.uint8)


def _deinterlace(idx: np.ndarray) -> np.ndarray:
    h = idx.shape[0]
    order = np.concatenate([np.arange(0, h, 8), np.arange(4, h, 8),
                            np.arange(2, h, 4), np.arange(1, h, 2)])
    out = np.empty_like(idx)
    out[order] = idx
    return out


def _gif_need(data: bytes, end: int) -> None:
    if end > len(data):
        raise ValueError(f"truncated gif at byte {len(data)}")


def _gif_sub_blocks(data: bytes, pos: int):
    """The payload of the data sub-blocks at ``pos`` and the position
    after their terminator."""
    parts = []
    while True:
        _gif_need(data, pos + 1)
        n = data[pos]
        if not n:
            return b"".join(parts), pos + 1
        _gif_need(data, pos + 1 + n)
        parts.append(data[pos + 1:pos + 1 + n])
        pos += n + 1


def gif_decode(data: bytes) -> np.ndarray:
    """First image of a GIF → uint8 (h, w, 3) RGB, or (h, w, 4) with a
    transparent color.  Input that ends before the first image is
    complete raises ``ValueError("truncated gif at byte N")``."""
    if data[:6] not in (b"GIF87a", b"GIF89a"):
        raise ValueError("not a GIF")
    _gif_need(data, 13)
    sw, sh, packed, _bg, _ar = struct.unpack_from("<HHBBB", data, 6)
    pos = 13
    gct = None
    if packed & 0x80:
        n = 2 << (packed & 7)
        _gif_need(data, pos + 3 * n)
        gct = np.frombuffer(data, np.uint8, 3 * n, pos).reshape(n, 3)
        pos += 3 * n
    transparent = None
    while True:
        _gif_need(data, pos + 1)
        b = data[pos]
        if b == 0x3B:                            # trailer
            raise ValueError("GIF contains no image block")
        if b == 0x21:                            # extension
            _gif_need(data, pos + 2)
            label = data[pos + 1]
            pos += 2
            if label == 0xF9:                    # graphic control
                _gif_need(data, pos + 5)
                size = data[pos]
                flags = data[pos + 1]
                if flags & 1:
                    transparent = data[pos + 4]
                pos += size + 1
            _, pos = _gif_sub_blocks(data, pos)
            continue
        if b != 0x2C:
            raise ValueError(f"unexpected GIF block 0x{b:02x}")
        _gif_need(data, pos + 10)
        _l, _t, w, h, ipacked = struct.unpack_from("<HHHHB", data, pos + 1)
        pos += 10
        ct = gct
        if ipacked & 0x80:
            n = 2 << (ipacked & 7)
            _gif_need(data, pos + 3 * n)
            ct = np.frombuffer(data, np.uint8, 3 * n, pos).reshape(n, 3)
            pos += 3 * n
        _gif_need(data, pos + 1)
        mcs = data[pos]
        codes, pos = _gif_sub_blocks(data, pos + 1)
        idx = _lzw_decode(codes, mcs, w * h)
        if idx.size < w * h:
            idx = np.pad(idx, (0, w * h - idx.size))
        idx = idx.reshape(h, w)
        if ipacked & 0x40:
            idx = _deinterlace(idx)
        if ct is None:
            raise ValueError("GIF image without a color table")
        rgb = ct[np.minimum(idx, len(ct) - 1)]
        if transparent is not None:
            alpha = np.where(idx == transparent, 0, 255).astype(np.uint8)
            return np.dstack([rgb, alpha])
        return rgb


class _BitPacker:
    """LSB-first variable-width code packer → 255-byte sub-blocks."""

    def __init__(self):
        self.buf = 0
        self.nbits = 0
        self.bytes = bytearray()

    def put(self, code: int, width: int):
        self.buf |= code << self.nbits
        self.nbits += width
        while self.nbits >= 8:
            self.bytes.append(self.buf & 0xFF)
            self.buf >>= 8
            self.nbits -= 8

    def finish(self) -> bytes:
        if self.nbits:
            self.bytes.append(self.buf & 0xFF)
        out = bytearray()
        for i in range(0, len(self.bytes), 255):
            part = self.bytes[i:i + 255]
            out.append(len(part))
            out += part
        out.append(0)
        return bytes(out)


def _lzw_encode(idx: np.ndarray, mcs: int) -> bytes:
    clear, eoi = 1 << mcs, (1 << mcs) + 1
    pk = _BitPacker()
    width = mcs + 1
    table: dict = {}
    next_code = eoi + 1

    def emit(code):
        # giflib EGifCompressOutput: width grows BEFORE writing, when
        # the next assignable code no longer fits (late change)
        nonlocal width
        if next_code >= (1 << width) and width < 12:
            width += 1
        pk.put(code, width)

    emit(clear)
    it = iter(idx.tolist())
    prev = next(it)
    for sym in it:
        key = (prev, sym)
        got = table.get(key)
        if got is not None:
            prev = got
            continue
        emit(prev)
        if next_code < 4096:
            table[key] = next_code
            next_code += 1
        else:                                    # table full → reset
            emit(clear)
            table.clear()
            width = mcs + 1
            next_code = eoi + 1
        prev = sym
    emit(prev)
    emit(eoi)
    return pk.finish()


def gif_encode(arr: np.ndarray) -> bytes:
    arr = np.asarray(arr)
    if arr.ndim == 2:                            # gray → 256-entry ramp
        palette = np.repeat(np.arange(256, dtype=np.uint8)[:, None], 3, 1)
        idx = arr.astype(np.uint8)
    else:
        rgb = arr[:, :, :3].astype(np.uint8)
        flat = rgb.reshape(-1, 3)
        colors, inv = np.unique(flat, axis=0, return_inverse=True)
        if len(colors) <= 256:
            palette, idx = colors, inv.astype(np.uint16).reshape(
                rgb.shape[:2])
        else:                                    # median-cut quantize
            from .raster import median_cut_palette
            palette = median_cut_palette(rgb, 256)
            d = ((flat[:, None, :].astype(np.int32)
                  - palette[None, :, :].astype(np.int32)) ** 2).sum(2)
            idx = d.argmin(1).astype(np.uint16).reshape(rgb.shape[:2])
    n = max(2, int(np.ceil(np.log2(max(len(palette), 2)))))
    table = np.zeros((1 << n, 3), np.uint8)
    table[:len(palette)] = palette
    h, w = idx.shape
    mcs = max(2, n)
    head = (b"GIF89a" + struct.pack("<HHBBB", w, h, 0x80 | (n - 1), 0, 0)
            + table.tobytes()
            + b"\x2C" + struct.pack("<HHHHB", 0, 0, w, h, 0)
            + bytes([mcs]))
    return head + _lzw_encode(idx.ravel(), mcs) + b"\x3B"


# ---------------------------------------------------------------------------
# BMP
# ---------------------------------------------------------------------------

def _rle8_decode(data: bytes, w: int, h: int) -> np.ndarray:
    out = np.zeros((h, w), np.uint8)
    x = y = i = 0
    while i + 1 < len(data):
        n, v = data[i], data[i + 1]
        i += 2
        if n:                                    # run
            out[y, x:x + n] = v
            x += n
        elif v == 0:                             # end of line
            x, y = 0, y + 1
        elif v == 1:                             # end of bitmap
            break
        elif v == 2:                             # delta
            x += data[i]
            y += data[i + 1]
            i += 2
        else:                                    # absolute mode
            out[y, x:x + v] = np.frombuffer(data, np.uint8, v, i)
            x += v
            i += v + (v & 1)                     # word-aligned
    return out


def bmp_decode(data: bytes) -> np.ndarray:
    if data[:2] != b"BM":
        raise ValueError("not a BMP")
    off_bits, = struct.unpack_from("<I", data, 10)
    hsize, w, h, _planes, bpp, comp = struct.unpack_from("<IiihHI", data, 14)
    topdown = h < 0
    h = abs(h)
    ncolors = 0
    if bpp <= 8:
        ncolors, = struct.unpack_from("<I", data, 46)
        ncolors = ncolors or (1 << bpp)
        pal = np.frombuffer(data, np.uint8, 4 * ncolors,
                            14 + hsize).reshape(ncolors, 4)[:, [2, 1, 0]]
    if comp == 1:                                # RLE8 (always bottom-up)
        idx = _rle8_decode(data[off_bits:], w, h)[::-1]
        return pal[idx]
    if comp != 0:
        raise ValueError(f"BMP compression {comp} unsupported")
    stride = ((w * bpp + 31) // 32) * 4
    rows = np.frombuffer(data, np.uint8, stride * h,
                         off_bits).reshape(h, stride)
    if not topdown:
        rows = rows[::-1]
    if bpp == 24:
        return rows[:, :w * 3].reshape(h, w, 3)[:, :, ::-1].copy()
    if bpp == 32:
        px = rows[:, :w * 4].reshape(h, w, 4)
        return px[:, :, [2, 1, 0, 3]].copy()
    if bpp == 8:
        return pal[rows[:, :w]]
    if bpp == 4:
        nib = np.empty((h, stride * 2), np.uint8)
        nib[:, 0::2] = rows >> 4
        nib[:, 1::2] = rows & 0xF
        return pal[nib[:, :w]]
    if bpp == 1:
        bits = np.unpackbits(rows, axis=1)
        return pal[bits[:, :w]]
    raise ValueError(f"BMP bpp {bpp} unsupported")


def bmp_encode(arr: np.ndarray) -> bytes:
    arr = np.asarray(arr)
    h, w = arr.shape[:2]
    if arr.ndim == 2:                            # 8-bit gray palette
        stride = (w + 3) & ~3
        rows = np.zeros((h, stride), np.uint8)
        rows[:, :w] = arr
        pal = np.zeros((256, 4), np.uint8)
        pal[:, 0] = pal[:, 1] = pal[:, 2] = np.arange(256)
        body = pal.tobytes() + rows[::-1].tobytes()
        info = struct.pack("<IiihHIIiiII", 40, w, h, 1, 8, 0,
                           stride * h, 2835, 2835, 256, 0)
    else:
        rgb = arr[:, :, :3].astype(np.uint8)
        stride = (w * 3 + 3) & ~3
        rows = np.zeros((h, stride), np.uint8)
        rows[:, :w * 3] = rgb[:, :, ::-1].reshape(h, w * 3)
        body = rows[::-1].tobytes()
        info = struct.pack("<IiihHIIiiII", 40, w, h, 1, 24, 0,
                           stride * h, 2835, 2835, 0, 0)
    off = 14 + len(info) + (1024 if arr.ndim == 2 else 0)
    head = b"BM" + struct.pack("<IHHI", off + (stride * h), 0, 0, off)
    return head + info + body


# ---------------------------------------------------------------------------
# PNM
# ---------------------------------------------------------------------------

def _pnm_tokens(data: bytes):
    i = 0
    while True:
        while i < len(data) and data[i:i + 1].isspace():
            i += 1
        if i >= len(data):
            return
        if data[i:i + 1] == b"#":
            while i < len(data) and data[i] != 0x0A:
                i += 1
            continue
        j = i
        while j < len(data) and not data[j:j + 1].isspace():
            j += 1
        yield data[i:j], j
        i = j


def pnm_decode(data: bytes) -> np.ndarray:
    it = _pnm_tokens(data)
    magic, _ = next(it)
    if magic not in (b"P2", b"P3", b"P5", b"P6"):
        raise ValueError(f"unsupported PNM magic {magic!r}")
    (wt, _), (ht, _), (mt, end) = next(it), next(it), next(it)
    w, h, maxval = int(wt), int(ht), int(mt)
    ch = 3 if magic in (b"P3", b"P6") else 1
    n = w * h * ch
    if magic in (b"P5", b"P6"):                  # binary: ONE ws after maxval
        raw = data[end + 1:]
        dt = np.dtype(">u2") if maxval > 255 else np.uint8
        arr = np.frombuffer(raw, dt, n).astype(
            np.uint16 if maxval > 255 else np.uint8)
    else:
        vals = np.array([int(v) for v, _ in zip(
            (t for t, _ in it), range(n))],
            np.uint16 if maxval > 255 else np.uint8)
        arr = vals
    arr = arr.reshape(h, w, ch)
    return arr[:, :, 0] if ch == 1 else arr


def pnm_encode(arr: np.ndarray) -> bytes:
    arr = np.asarray(arr)
    maxval = 65535 if arr.dtype.itemsize > 1 else 255
    if arr.ndim == 2:
        head = f"P5\n{arr.shape[1]} {arr.shape[0]}\n{maxval}\n"
        body = (arr.astype(">u2") if maxval > 255
                else arr.astype(np.uint8)).tobytes()
    else:
        head = f"P6\n{arr.shape[1]} {arr.shape[0]}\n{maxval}\n"
        body = (arr[:, :, :3].astype(">u2") if maxval > 255
                else arr[:, :, :3].astype(np.uint8)).tobytes()
    return head.encode() + body
