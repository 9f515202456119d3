"""Baseline JPEG (ITU-T T.81) encoder/decoder — numpy + Python, plus one
C kernel file for the decode; no libjpeg.

This is the engine's ``fmt="jpeg"`` path: fixtures emit real JFIF bytes
and :func:`georay.codecs.decode_image` decodes them.  Scope is the
baseline sequential DCT process (the overwhelmingly common JPEG variant;
reference semantics: frmts/jpeg/jpgdataset.cpp wrapping libjpeg):

* 8-bit samples, Huffman entropy coding, SOF0 frames;
* 1 (grayscale) or 3 (YCbCr) components; sampling factors 1×1 (4:4:4)
  or 2×2 luma (4:2:0) — both emitted and decoded;
* restart markers (DRI/RSTn) honored on decode;
* PROGRESSIVE (SOF2, T.81 Annex G): both directions — spectral
  selection + successive approximation scans (DC first/refine, AC bands
  with EOB-run aggregation, AC refinement with embedded correction
  bits), coefficient-exact vs the baseline path (see the Annex G
  section at the end of this module);
* arithmetic / lossless / hierarchical / 12-bit variants raise.

Encoder: batched matrix FDCT over all blocks at once, per-symbol Huffman
in a tight Python bit-writer (the encoder runs only in fixture
generation, cached on disk).  Decoder is the hot path (the decode
stage), compiled in ``_jpeg.c`` (built with gcc at first use and loaded
with ctypes, see :func:`_kernel`): per restart interval, one entropy
pass reads every DC and AC symbol through the 16-bit window LUTs of
:func:`_huff_lut` and writes the quantized coefficients straight into
one int32 store; then one pass per component dequantizes, inverse-
transforms (any scale) and level-shifts into its plane, and one pass
upsamples the planes and rounds (gray) or converts YCbCr → RGB.  Every
float32 step is one rounded operation in a fixed order, so the pixels do
not depend on the machine.  The progressive path's scans stay pure
Python + numpy and share the compiled back end.

All tables (quantization, Huffman) are carried IN the file (DQT/DHT),
so output is valid JPEG for any conformant reader regardless of the
default tables chosen here (ITU T.81 Annex K).
"""

from __future__ import annotations

import ctypes
import re
import struct

import numpy as np

from .util import compiled

__all__ = ["jpeg_encode", "jpeg_decode"]


# ---------------------------------------------------------------------------
# Tables
# ---------------------------------------------------------------------------

def _zigzag() -> np.ndarray:
    idx = []
    for s in range(15):
        rng = range(max(0, s - 7), min(s, 7) + 1)
        order = reversed(list(rng)) if s % 2 == 0 else rng
        for y in order:
            idx.append(y * 8 + (s - y))
    return np.asarray(idx, dtype=np.int64)


_ZZ = _zigzag()                       # zigzag position -> raster index
_UNZZ = np.argsort(_ZZ)               # raster index -> zigzag position

_Q_LUMA = np.array([
    16, 11, 10, 16, 24, 40, 51, 61,
    12, 12, 14, 19, 26, 58, 60, 55,
    14, 13, 16, 24, 40, 57, 69, 56,
    14, 17, 22, 29, 51, 87, 80, 62,
    18, 22, 37, 56, 68, 109, 103, 77,
    24, 35, 55, 64, 81, 104, 113, 92,
    49, 64, 78, 87, 103, 121, 120, 101,
    72, 92, 95, 98, 112, 100, 103, 99], dtype=np.int32)

_Q_CHROMA = np.array([
    17, 18, 24, 47, 99, 99, 99, 99,
    18, 21, 26, 66, 99, 99, 99, 99,
    24, 26, 56, 99, 99, 99, 99, 99,
    47, 66, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99], dtype=np.int32)

# Standard Huffman tables (T.81 Annex K): (bits[1..16], huffval)
_DC_LUMA_BITS = [0, 1, 5, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0]
_DC_LUMA_VALS = list(range(12))
_DC_CHROMA_BITS = [0, 3, 1, 1, 1, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0]
_DC_CHROMA_VALS = list(range(12))

_AC_LUMA_BITS = [0, 2, 1, 3, 3, 2, 4, 3, 5, 5, 4, 4, 0, 0, 1, 0x7D]
_AC_LUMA_VALS = [
    0x01, 0x02, 0x03, 0x00, 0x04, 0x11, 0x05, 0x12, 0x21, 0x31, 0x41,
    0x06, 0x13, 0x51, 0x61, 0x07, 0x22, 0x71, 0x14, 0x32, 0x81, 0x91,
    0xA1, 0x08, 0x23, 0x42, 0xB1, 0xC1, 0x15, 0x52, 0xD1, 0xF0, 0x24,
    0x33, 0x62, 0x72, 0x82, 0x09, 0x0A, 0x16, 0x17, 0x18, 0x19, 0x1A,
    0x25, 0x26, 0x27, 0x28, 0x29, 0x2A, 0x34, 0x35, 0x36, 0x37, 0x38,
    0x39, 0x3A, 0x43, 0x44, 0x45, 0x46, 0x47, 0x48, 0x49, 0x4A, 0x53,
    0x54, 0x55, 0x56, 0x57, 0x58, 0x59, 0x5A, 0x63, 0x64, 0x65, 0x66,
    0x67, 0x68, 0x69, 0x6A, 0x73, 0x74, 0x75, 0x76, 0x77, 0x78, 0x79,
    0x7A, 0x83, 0x84, 0x85, 0x86, 0x87, 0x88, 0x89, 0x8A, 0x92, 0x93,
    0x94, 0x95, 0x96, 0x97, 0x98, 0x99, 0x9A, 0xA2, 0xA3, 0xA4, 0xA5,
    0xA6, 0xA7, 0xA8, 0xA9, 0xAA, 0xB2, 0xB3, 0xB4, 0xB5, 0xB6, 0xB7,
    0xB8, 0xB9, 0xBA, 0xC2, 0xC3, 0xC4, 0xC5, 0xC6, 0xC7, 0xC8, 0xC9,
    0xCA, 0xD2, 0xD3, 0xD4, 0xD5, 0xD6, 0xD7, 0xD8, 0xD9, 0xDA, 0xE1,
    0xE2, 0xE3, 0xE4, 0xE5, 0xE6, 0xE7, 0xE8, 0xE9, 0xEA, 0xF1, 0xF2,
    0xF3, 0xF4, 0xF5, 0xF6, 0xF7, 0xF8, 0xF9, 0xFA]

_AC_CHROMA_BITS = [0, 2, 1, 2, 4, 4, 3, 4, 7, 5, 4, 4, 0, 1, 2, 0x77]
_AC_CHROMA_VALS = [
    0x00, 0x01, 0x02, 0x03, 0x11, 0x04, 0x05, 0x21, 0x31, 0x06, 0x12,
    0x41, 0x51, 0x07, 0x61, 0x71, 0x13, 0x22, 0x32, 0x81, 0x08, 0x14,
    0x42, 0x91, 0xA1, 0xB1, 0xC1, 0x09, 0x23, 0x33, 0x52, 0xF0, 0x15,
    0x62, 0x72, 0xD1, 0x0A, 0x16, 0x24, 0x34, 0xE1, 0x25, 0xF1, 0x17,
    0x18, 0x19, 0x1A, 0x26, 0x27, 0x28, 0x29, 0x2A, 0x35, 0x36, 0x37,
    0x38, 0x39, 0x3A, 0x43, 0x44, 0x45, 0x46, 0x47, 0x48, 0x49, 0x4A,
    0x53, 0x54, 0x55, 0x56, 0x57, 0x58, 0x59, 0x5A, 0x63, 0x64, 0x65,
    0x66, 0x67, 0x68, 0x69, 0x6A, 0x73, 0x74, 0x75, 0x76, 0x77, 0x78,
    0x79, 0x7A, 0x82, 0x83, 0x84, 0x85, 0x86, 0x87, 0x88, 0x89, 0x8A,
    0x92, 0x93, 0x94, 0x95, 0x96, 0x97, 0x98, 0x99, 0x9A, 0xA2, 0xA3,
    0xA4, 0xA5, 0xA6, 0xA7, 0xA8, 0xA9, 0xAA, 0xB2, 0xB3, 0xB4, 0xB5,
    0xB6, 0xB7, 0xB8, 0xB9, 0xBA, 0xC2, 0xC3, 0xC4, 0xC5, 0xC6, 0xC7,
    0xC8, 0xC9, 0xCA, 0xD2, 0xD3, 0xD4, 0xD5, 0xD6, 0xD7, 0xD8, 0xD9,
    0xDA, 0xE2, 0xE3, 0xE4, 0xE5, 0xE6, 0xE7, 0xE8, 0xE9, 0xEA, 0xF2,
    0xF3, 0xF4, 0xF5, 0xF6, 0xF7, 0xF8, 0xF9, 0xFA]


def _dct_matrix() -> np.ndarray:
    """Orthonormal 8-point DCT-II matrix C: F = C @ x @ C.T."""
    k = np.arange(8)
    c = np.cos((2 * k[None, :] + 1) * k[:, None] * np.pi / 16)
    c *= np.sqrt(2.0 / 8.0)
    c[0] *= 1.0 / np.sqrt(2.0)
    return c


_C = _dct_matrix()


def _scale_qtable(base: np.ndarray, quality: int) -> np.ndarray:
    """libjpeg-convention quality scaling (public knowledge)."""
    quality = min(max(int(quality), 1), 100)
    scale = 5000 // quality if quality < 50 else 200 - 2 * quality
    return np.clip((base * scale + 50) // 100, 1, 255).astype(np.int32)


def _build_codes(bits, vals):
    """Canonical Huffman assignment (T.81 C.2): {symbol: (code, length)}."""
    codes = {}
    code = 0
    k = 0
    for length in range(1, 17):
        for _ in range(bits[length - 1]):
            codes[vals[k]] = (code, length)
            code += 1
            k += 1
        code <<= 1
    return codes


# ---------------------------------------------------------------------------
# Encoder
# ---------------------------------------------------------------------------

def _rgb_to_ycbcr(arr: np.ndarray):
    a = arr.astype(np.float64)
    r, g, b = a[:, :, 0], a[:, :, 1], a[:, :, 2]
    y = 0.299 * r + 0.587 * g + 0.114 * b
    cb = -0.168735892 * r - 0.331264108 * g + 0.5 * b + 128.0
    cr = 0.5 * r - 0.418687589 * g - 0.081312411 * b + 128.0
    return y, cb, cr


def _plane_blocks(plane: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Pad to 8 | quantized zigzag coefficients (n_blocks, 64) in raster
    block order — batched matrix FDCT."""
    h, w = plane.shape
    ph, pw = -h % 8, -w % 8
    if ph or pw:
        plane = np.pad(plane, ((0, ph), (0, pw)), mode="edge")
    hh, ww = plane.shape
    blocks = plane.reshape(hh // 8, 8, ww // 8, 8).transpose(0, 2, 1, 3)\
        .reshape(-1, 8, 8) - 128.0
    f = _C[None] @ blocks @ _C.T[None]
    qf = np.round(f / q.reshape(8, 8)[None]).astype(np.int32)
    return qf.reshape(-1, 64)[:, _ZZ]


class _BitWriter:
    __slots__ = ("out", "acc", "nacc")

    def __init__(self):
        self.out = bytearray()
        self.acc = 0
        self.nacc = 0

    def put(self, v: int, n: int):
        if n == 0:
            return
        self.acc = ((self.acc << n) | (v & ((1 << n) - 1)))
        self.nacc += n
        while self.nacc >= 8:
            self.nacc -= 8
            b = (self.acc >> self.nacc) & 0xFF
            self.out.append(b)
            if b == 0xFF:           # byte stuffing
                self.out.append(0)
        self.acc &= (1 << self.nacc) - 1

    def flush(self):
        if self.nacc:
            pad = 8 - self.nacc
            self.put((1 << pad) - 1, pad)


def _encode_block(bw: _BitWriter, zz: np.ndarray, pred: int,
                  dc_codes, ac_codes) -> int:
    dc = int(zz[0])
    diff = dc - pred
    if diff == 0:
        c, L = dc_codes[0]
        bw.put(c, L)
    else:
        size = int(abs(diff)).bit_length()
        c, L = dc_codes[size]
        bw.put(c, L)
        v = diff if diff > 0 else diff + (1 << size) - 1
        bw.put(v, size)
    nz = np.nonzero(zz[1:])[0] + 1
    prev = 0
    for k in nz:
        run = int(k) - prev - 1
        while run >= 16:
            c, L = ac_codes[0xF0]       # ZRL
            bw.put(c, L)
            run -= 16
        val = int(zz[k])
        size = int(abs(val)).bit_length()
        c, L = ac_codes[(run << 4) | size]
        bw.put(c, L)
        v = val if val > 0 else val + (1 << size) - 1
        bw.put(v, size)
        prev = int(k)
    if prev != 63:
        c, L = ac_codes[0x00]           # EOB
        bw.put(c, L)
    return dc


def _dht_segment(tclass: int, tid: int, bits, vals) -> bytes:
    payload = bytes([(tclass << 4) | tid]) + bytes(bits) + bytes(vals)
    return b"\xff\xc4" + struct.pack(">H", len(payload) + 2) + payload


def _dqt_segment(tid: int, q: np.ndarray) -> bytes:
    payload = bytes([tid]) + bytes(int(v) for v in q[_ZZ])
    return b"\xff\xdb" + struct.pack(">H", len(payload) + 2) + payload


def jpeg_encode(arr: np.ndarray, quality: int = 92,
                subsample: bool = False,
                progressive: bool = False) -> bytes:
    """Encode a (h, w) gray or (h, w, 3) RGB uint8 array to baseline JFIF.

    ``subsample=True`` uses 4:2:0 chroma (2×2 luma sampling); default is
    4:4:4 — full chroma resolution, needed to keep PSNR ≥ 40 dB on
    synthetic patterns with pixel-scale chroma edges.

    ``progressive=True`` emits an SOF2 progressive stream (ITU-T T.81
    Annex G) with both spectral selection AND successive approximation:
    DC Al=1 + DC refinement, per-component AC bands 1-5 / 6-63 at Al=2,
    then two AC refinement passes (Al=1, Al=0) — decoding to EXACTLY the
    same coefficients as the baseline stream for the same input."""
    arr = np.asarray(arr, dtype=np.uint8)
    gray = arr.ndim == 2
    h, w = arr.shape[:2]
    ql = _scale_qtable(_Q_LUMA, quality)
    qc = _scale_qtable(_Q_CHROMA, quality)
    dc_l = _build_codes(_DC_LUMA_BITS, _DC_LUMA_VALS)
    ac_l = _build_codes(_AC_LUMA_BITS, _AC_LUMA_VALS)
    dc_c = _build_codes(_DC_CHROMA_BITS, _DC_CHROMA_VALS)
    ac_c = _build_codes(_AC_CHROMA_BITS, _AC_CHROMA_VALS)

    # NOTE: chroma components use the LUMA AC table (legal — the SOS
    # declares it).  One shared AC table means the decoder's per-position
    # step lookup runs ONCE instead of twice: decode is the hot path,
    # a slightly longer chroma bitstream is not.
    if gray:
        comps = [(arr.astype(np.float64), ql, dc_l, ac_l, 1, 1, 0)]
    else:
        y, cb, cr = _rgb_to_ycbcr(arr)
        if subsample:
            # pad to even then 2×2 mean
            ph, pw = -h % 2, -w % 2
            if ph or pw:
                cb = np.pad(cb, ((0, ph), (0, pw)), mode="edge")
                cr = np.pad(cr, ((0, ph), (0, pw)), mode="edge")
            hh, ww = cb.shape
            cb = cb.reshape(hh // 2, 2, ww // 2, 2).mean(axis=(1, 3))
            cr = cr.reshape(hh // 2, 2, ww // 2, 2).mean(axis=(1, 3))
            comps = [(y, ql, dc_l, ac_l, 2, 2, 0),
                     (cb, qc, dc_c, ac_l, 1, 1, 1),
                     (cr, qc, dc_c, ac_l, 1, 1, 1)]
        else:
            comps = [(y, ql, dc_l, ac_l, 1, 1, 0),
                     (cb, qc, dc_c, ac_l, 1, 1, 1),
                     (cr, qc, dc_c, ac_l, 1, 1, 1)]

    hmax = max(c[4] for c in comps)
    vmax = max(c[5] for c in comps)
    mcux = -(-w // (8 * hmax))
    mcuy = -(-h // (8 * vmax))

    # per-comp zigzag blocks on the padded MCU grid
    comp_zz, comp_bw_blocks = [], []
    for plane, q, _, _, hi, vi, _ in comps:
        cw = -(-w * hi // hmax)
        ch = -(-h * vi // vmax)
        plane = plane[:ch, :cw] if plane.shape != (ch, cw) else plane
        # pad plane to the full MCU block grid
        tw, th = mcux * hi * 8, mcuy * vi * 8
        plane = np.pad(plane, ((0, th - plane.shape[0]),
                               (0, tw - plane.shape[1])), mode="edge")
        comp_zz.append(_plane_blocks(plane, q))
        comp_bw_blocks.append(tw // 8)

    if progressive:
        return _encode_progressive(
            gray, comps, comp_zz, comp_bw_blocks, h, w, hmax, vmax,
            mcux, mcuy, ql, qc)

    bw = _BitWriter()
    preds = [0] * len(comps)
    for my in range(mcuy):
        for mx in range(mcux):
            for ci, (plane, q, dcc, acc_t, hi, vi, _) in enumerate(comps):
                bwb = comp_bw_blocks[ci]
                for by in range(vi):
                    for bx in range(hi):
                        bi = (my * vi + by) * bwb + (mx * hi + bx)
                        preds[ci] = _encode_block(
                            bw, comp_zz[ci][bi], preds[ci], dcc, acc_t)
    bw.flush()

    out = [b"\xff\xd8",
           b"\xff\xe0" + struct.pack(">H", 16) + b"JFIF\x00"
           + bytes([1, 1, 0]) + struct.pack(">HH", 1, 1) + bytes([0, 0]),
           _dqt_segment(0, ql)]
    if not gray:
        out.append(_dqt_segment(1, qc))
    nc = len(comps)
    sof = bytes([8]) + struct.pack(">HH", h, w) + bytes([nc])
    for i, (_, _, _, _, hi, vi, qid) in enumerate(comps):
        sof += bytes([i + 1, (hi << 4) | vi, qid])
    out.append(b"\xff\xc0" + struct.pack(">H", len(sof) + 2) + sof)
    out.append(_dht_segment(0, 0, _DC_LUMA_BITS, _DC_LUMA_VALS))
    out.append(_dht_segment(1, 0, _AC_LUMA_BITS, _AC_LUMA_VALS))
    if not gray:
        out.append(_dht_segment(0, 1, _DC_CHROMA_BITS, _DC_CHROMA_VALS))
    sos = bytes([nc])
    for i in range(nc):
        dc_tid = 0 if i == 0 else 1
        sos += bytes([i + 1, (dc_tid << 4) | 0])  # all comps share AC 0
    sos += bytes([0, 63, 0])
    out.append(b"\xff\xda" + struct.pack(">H", len(sos) + 2) + sos)
    out.append(bytes(bw.out))
    out.append(b"\xff\xd9")
    return b"".join(out)


# ---------------------------------------------------------------------------
# Decoder
# ---------------------------------------------------------------------------

_LUT_CACHE: dict = {}

# the end of an entropy-coded segment: the first marker that is neither a
# stuffed 0xFF00 nor a restart marker
_SEG_END = re.compile(rb"\xff[^\x00\xd0-\xd7]")
_RST = re.compile(rb"\xff[\xd0-\xd7]")


def _entropy_segments(d: bytes, pos: int):
    """The entropy-coded data of the scan that starts at ``pos``: returns
    ``(end, segments)`` — the offset of the marker that ends it (else the
    last byte, ``len(d) - 1``) and its restart intervals with the stuffed
    zero bytes removed.  All three passes run in C (``re``, ``bytes``)."""
    m = _SEG_END.search(d, pos)
    end = m.start() if m else max(pos, len(d) - 1)
    return end, [s.replace(b"\xff\x00", b"\xff")
                 for s in _RST.split(d[pos:end])]


def _huff_lut(bits, vals):
    """(sym[65536] int16, len[65536] int8) numpy LUTs over a 16-bit
    left-aligned window; cached per table content (NUMPY, not lists —
    converting a cached 65k list per decode costs ~1 ms per table)."""
    key = (bytes(bits), bytes(vals))
    hit = _LUT_CACHE.get(key)
    if hit is not None:
        return hit
    sym = np.zeros(1 << 16, dtype=np.int16)
    ln = np.zeros(1 << 16, dtype=np.int8)
    code = 0
    k = 0
    for length in range(1, 17):
        for _ in range(bits[length - 1]):
            start = code << (16 - length)
            span = 1 << (16 - length)
            sym[start:start + span] = vals[k]
            ln[start:start + span] = length
            code += 1
            k += 1
        code <<= 1
    out = (sym, ln)
    _LUT_CACHE[key] = out
    return out


_SIGNATURES = {
    "huff_interval": ([ctypes.c_char_p, ctypes.c_int64, ctypes.c_void_p,
                       ctypes.c_void_p, ctypes.c_void_p, ctypes.c_int64,
                       ctypes.c_int64, ctypes.c_int64, ctypes.c_int64,
                       ctypes.c_void_p], ctypes.c_int),
    "idct_plane": ([ctypes.c_void_p, ctypes.c_int64, ctypes.c_int64,
                    ctypes.c_void_p, ctypes.c_void_p, ctypes.c_int64,
                    ctypes.c_void_p], None),
    "color_pass": ([ctypes.c_int64, ctypes.c_void_p, ctypes.c_void_p,
                    ctypes.c_void_p, ctypes.c_void_p, ctypes.c_int64,
                    ctypes.c_int64, ctypes.c_void_p, ctypes.c_void_p],
                   ctypes.c_int),
}


def _kernel(name: str):
    """Function ``name`` of the compiled decode kernels, ``_jpeg.c``
    (:func:`georay.util.compiled`)."""
    return compiled("_jpeg.c", name, *_SIGNATURES[name])


_IDCT_MATRIX: dict = {}


def _idct_matrix(N: int) -> np.ndarray:
    """The orthonormal N-point DCT-II matrix in float32 (N = 8 is
    :data:`_C`); N = 1 is exactly [[1]]."""
    m = _IDCT_MATRIX.get(N)
    if m is None:
        k = np.arange(N)
        c = np.cos((2 * k[None, :] + 1) * k[:, None] * np.pi / (2 * N))
        c *= np.sqrt(2.0 / N)
        c[0] *= 1.0 / np.sqrt(2.0)
        m = _IDCT_MATRIX[N] = np.ascontiguousarray(c, dtype=np.float32)
    return m


def _idct_plane(zz: np.ndarray, q: np.ndarray, bw: int, bh: int,
                N: int) -> np.ndarray:
    """One component's quantized zigzag blocks ``zz`` ((bw·bh, 64) int32,
    raster block order) and raster quantization table ``q`` → its
    (bh·N, bw·N) float32 plane of spatial samples (+128), N = 8/scale
    samples per block side.  N < 8 inverse-transforms the top-left N×N
    coefficients with the orthonormal N-point DCT, rescaled by N/8 —
    libjpeg's reduced-size IDCT (jidctred.c), the mechanism behind GDAL's
    JPEG overview levels; N = 1 is exactly the block mean."""
    zz = np.ascontiguousarray(zz, dtype=np.int32)
    if zz.shape != (bw * bh, 64):
        raise ValueError(f"corrupt jpeg: {zz.shape} coefficient store "
                         f"for {bw}x{bh} blocks")
    q = np.ascontiguousarray(q, dtype=np.int32)
    plane = np.empty((bh * N, bw * N), dtype=np.float32)
    _kernel("idct_plane")(zz.ctypes.data, bw, bh, q.ctypes.data,
                          _idct_matrix(N).ctypes.data, N, plane.ctypes.data)
    return plane


class _MCUPlan:
    """The baseline scan's block layout for the compiled entropy pass:
    per block slot of an MCU, its DC and AC table offsets into one
    concatenated (sym, len) LUT, its component, and its store row as an
    offset plus a step per MCU row and per MCU column."""

    def __init__(self, mcu, scomps, scan, hufftabs, mcux):
        self.mcux = mcux
        self.nblk = len(mcu)
        dc = [(0, scan[ci][1]) for ci, _ in mcu]
        ac = [(1, scan[ci][2]) for ci, _ in mcu]
        # one symbol/length LUT per distinct table, concatenated: entry
        # t * 65536 + window is table t's decode of that window
        keys = list(dict.fromkeys(dc + ac))
        tabs = tuple((bytes(b), bytes(v))
                     for b, v in (hufftabs[k] for k in keys))
        hit = _LUT_CACHE.get(tabs)
        if hit is None:
            luts = [_huff_lut(*t) for t in tabs]
            hit = (np.concatenate([lt[0] for lt in luts]),
                   np.concatenate([lt[1] for lt in luts]))
            _LUT_CACHE[tabs] = hit
        self.sym, self.len = hit
        self.slots = np.array(
            [[keys.index(d) << 16, keys.index(a) << 16, ci, off,
              scomps[ci]["v"] * scomps[ci]["bw"], scomps[ci]["h"]]
             for (ci, off), d, a in zip(mcu, dc, ac)], dtype=np.int64)

    def decode(self, seg: bytes, m0: int, m1: int, store: np.ndarray):
        """Decode MCUs ``[m0, m1)`` from one restart interval's unstuffed
        bytes into ``store`` (C-contiguous int32).  A symbol that starts
        past the interval's end plus 4 zero bytes raises ``ValueError``."""
        fn = _kernel("huff_interval")
        if fn(seg + bytes(8), len(seg) + 4, self.sym.ctypes.data,
              self.len.ctypes.data, self.slots.ctypes.data, self.nblk,
              self.mcux, m0, m1, store.ctypes.data):
            raise ValueError(f"corrupt jpeg: entropy data of MCUs "
                             f"[{m0}, {m1}) ends early")


def _frame_header(seg: bytes):
    """``(h, w, comps)`` of a SOF segment, one dict per component.
    Raises ``ValueError`` for a segment shorter than its component list,
    no component, a repeated component id, a sampling factor outside
    1..4 (T.81 B.2.2) or a zero dimension (a DNL marker, which would
    give the height later, is not supported)."""
    if len(seg) < 6 or len(seg) < 6 + 3 * seg[5]:
        raise ValueError("corrupt jpeg: SOF shorter than its components")
    if seg[0] != 8:
        raise NotImplementedError("only 8-bit JPEG")
    h, w = struct.unpack_from(">HH", seg, 1)
    comps = []
    for i in range(seg[5]):
        cid, hv, tq = seg[6 + 3 * i:9 + 3 * i]
        comps.append({"id": cid, "h": hv >> 4, "v": hv & 15, "tq": tq})
    if not comps or len({c["id"] for c in comps}) < len(comps):
        raise ValueError("corrupt jpeg: no or repeated component ids")
    if not all(1 <= c["h"] <= 4 and 1 <= c["v"] <= 4 for c in comps):
        raise ValueError("corrupt jpeg: sampling factor outside 1..4")
    if not h or not w:
        raise ValueError(f"corrupt jpeg: {w}x{h} frame")
    return h, w, comps


def _scan_components(seg: bytes, comps):
    """The ``[(component id, DC table, AC table)]`` of a SOS segment.
    Raises ``ValueError`` for a segment shorter than its list or a
    component that is not in the frame."""
    ns = seg[0] if seg else 0
    if len(seg) < 4 + 2 * ns:
        raise ValueError("corrupt jpeg: SOS shorter than its components")
    scan = [(cs, tt >> 4, tt & 15)
            for cs, tt in zip(seg[1:1 + 2 * ns:2], seg[2:2 + 2 * ns:2])]
    ids = {c["id"] for c in comps}
    if not scan or any(cs not in ids for cs, _, _ in scan):
        raise ValueError("corrupt jpeg: scan component not in the frame")
    return scan


def jpeg_decode(data, scale: int = 1) -> np.ndarray:
    """Decode baseline JFIF/JPEG bytes → uint8 (h, w) gray or (h, w, 3)
    RGB.  ``scale`` ∈ {1, 2, 4, 8} decodes at 1/scale resolution
    directly from the low-frequency coefficients (reduced-size IDCT —
    the JPEG overview fast path; output dims are ceil(dim/scale))."""
    d = bytes(data)
    if d[:2] != b"\xff\xd8":
        raise ValueError("not a JPEG (missing SOI)")
    pos = 2
    qtables: dict = {}
    hufftabs: dict = {}     # (class, id) -> (bits, vals)
    comps = None            # list of dicts
    h = w = None
    restart_interval = 0
    scan = None
    n = len(d)
    while pos < n:
        if d[pos] != 0xFF:
            pos += 1
            continue
        marker = d[pos + 1]
        if marker in (0xD8, 0x01) or 0xD0 <= marker <= 0xD7:
            pos += 2
            continue
        if marker == 0xD9:
            break
        (seglen,) = struct.unpack_from(">H", d, pos + 2)
        seg = d[pos + 4:pos + 2 + seglen]
        pos += 2 + seglen
        if marker == 0xDB:   # DQT (may hold several tables)
            o = 0
            while o < len(seg):
                pq, tq = seg[o] >> 4, seg[o] & 15
                if pq != 0:
                    raise NotImplementedError("16-bit quant tables")
                tbl = np.frombuffer(seg[o + 1:o + 65], dtype=np.uint8)\
                    .astype(np.int32)
                raster = np.empty(64, dtype=np.int32)
                raster[_ZZ] = tbl
                qtables[tq] = raster
                o += 65
        elif marker == 0xC4:  # DHT
            o = 0
            while o < len(seg):
                tc, th_ = seg[o] >> 4, seg[o] & 15
                bits = list(seg[o + 1:o + 17])
                nv = sum(bits)
                vals = list(seg[o + 17:o + 17 + nv])
                hufftabs[(tc, th_)] = (bits, vals)
                o += 17 + nv
        elif marker == 0xC0 or marker == 0xC1:  # SOF0/1 (baseline/ext seq)
            h, w, comps = _frame_header(seg)
        elif marker == 0xC2:  # SOF2 — progressive: dedicated multi-scan path
            return _jpeg_decode_progressive(d, scale)
        elif marker in (0xC3, 0xC5, 0xC6, 0xC7, 0xC9, 0xCA, 0xCB,
                        0xCD, 0xCE, 0xCF):
            raise NotImplementedError(
                f"non-baseline JPEG (SOF marker 0x{marker:02x})")
        elif marker == 0xDD:  # DRI
            (restart_interval,) = struct.unpack_from(">H", seg, 0)
        elif marker == 0xDA:  # SOS
            if comps is None:
                raise ValueError("corrupt jpeg: SOS before SOF")
            scan = _scan_components(seg, comps)
            _, segments = _entropy_segments(d, pos)
            break
        # else: APPn/COM — skipped
    if comps is None or scan is None:
        raise ValueError("truncated JPEG (no SOF/SOS)")

    hmax = max(c["h"] for c in comps)
    vmax = max(c["v"] for c in comps)
    mcux = -(-w // (8 * hmax))
    mcuy = -(-h // (8 * vmax))
    by_id = {c["id"]: c for c in comps}
    scomps = []
    for cs, tdc, tac in scan:
        c = by_id[cs]
        c["bw"] = mcux * c["h"]
        c["bh"] = mcuy * c["v"]
        scomps.append(c)

    # one coefficient store for every scan component (coef[ci] are views);
    # the MCU's blocks in emission order, each with its component and its
    # store row relative to the MCU's first block
    base = np.cumsum([0] + [c["bw"] * c["bh"] for c in scomps])
    store = np.zeros((int(base[-1]), 64), dtype=np.int32)
    coef = [store[base[ci]:base[ci + 1]] for ci in range(len(scomps))]
    mcu = [(ci, int(base[ci]) + by * c["bw"] + bx)
           for ci, c in enumerate(scomps)
           for by in range(c["v"]) for bx in range(c["h"])]
    plan = _MCUPlan(mcu, scomps, scan, hufftabs, mcux)
    mcu_total = mcux * mcuy
    per_seg = restart_interval if restart_interval else mcu_total
    for si, m0 in enumerate(range(0, mcu_total, per_seg)):
        seg = segments[si] if si < len(segments) else b""
        plan.decode(seg, m0, min(m0 + per_seg, mcu_total), store)
    return _coef_to_image(coef, scomps, qtables, h, w, hmax, vmax,
                          scale=scale)


def _coef_to_image(coef, comps, qtables, h, w, hmax, vmax,
                   scale: int = 1) -> np.ndarray:
    """Quantized zigzag coefficient stores (one (bw·bh, 64) array per
    component on the padded MCU block grid) → decoded image: one compiled
    IDCT pass per component into its plane (:func:`_idct_plane`), then
    one compiled pass that upsamples every plane by its own integer
    factors and rounds (gray) or converts YCbCr → RGB.  Shared by the
    baseline and progressive decoders.  ``scale`` > 1 decodes at
    1/scale: N = 8/scale output samples per block side."""
    if scale not in (1, 2, 4, 8):
        raise ValueError("scale must be 1, 2, 4 or 8")
    if len(comps) not in (1, 3):
        raise ValueError(f"corrupt jpeg: {len(comps)} components, "
                         f"not 1 or 3")
    N = 8 // scale
    planes, geom = [], []
    for ci, c in enumerate(comps):
        q = qtables.get(c["tq"])
        if q is None:
            raise ValueError(f"corrupt jpeg: no quantization table "
                             f"{c['tq']}")
        plane = _idct_plane(coef[ci], q, c["bw"], c["bh"], N)
        # the samples of the component's own size, before upsampling
        ch = -(-(-(-h * c["v"] // vmax)) // scale)
        cw = -(-(-(-w * c["h"] // hmax)) // scale)
        geom += [plane.shape[1], plane.shape[0], ch, cw,
                 vmax // c["v"], hmax // c["h"]]
        planes.append(plane)
    h = -(-h // scale)
    w = -(-w // scale)
    out = np.empty((h, w) if len(planes) == 1 else (h, w, 3), np.uint8)
    ptrs = [p.ctypes.data for p in planes] + [None] * (3 - len(planes))
    # named, so that both buffers outlive the call
    geom = np.array(geom, np.int64)
    buf = np.empty(3 * w, np.float32)
    if _kernel("color_pass")(len(planes), *ptrs, geom.ctypes.data, h, w,
                             buf.ctypes.data, out.ctypes.data):
        raise ValueError("corrupt jpeg: sampling factors do not tile the "
                         "image")
    return out


# ---------------------------------------------------------------------------
# Progressive JPEG (SOF2) — ITU-T T.81 Annex G
#
# The reference decodes progressive JPEG through libjpeg
# (frmts/jpeg/jpgdataset.cpp); here both directions are from scratch.
# Scans refine a shared per-component coefficient store: DC first /
# refinement (successive approximation), AC spectral-selection bands
# with EOB-run aggregation, and AC refinement with embedded correction
# bits.  This is a coverage/correctness path — multi-scan streams decode
# with a plain scalar bit reader, NOT the baseline decoder's per-bit
# step tables (single-scan, flagship hot loop).  Parity is pinned
# by tests: progressive and baseline encodes of the same input decode to
# IDENTICAL pixels (same quantized coefficients).
# ---------------------------------------------------------------------------


class _BitReader:
    """MSB-first bit reader over an UNSTUFFED entropy segment (reads past
    the end yield zero bits, as the padded tail of a scan requires)."""

    __slots__ = ("d", "pos", "acc", "n")

    def __init__(self, data: bytes):
        self.d = data
        self.pos = 0
        self.acc = 0
        self.n = 0

    def _fill(self, need: int):
        while self.n < need:
            b = self.d[self.pos] if self.pos < len(self.d) else 0
            self.pos += 1
            self.acc = (self.acc << 8) | b
            self.n += 8

    def bits(self, k: int) -> int:
        if k == 0:
            return 0
        self._fill(k)
        self.n -= k
        v = (self.acc >> self.n) & ((1 << k) - 1)
        self.acc &= (1 << self.n) - 1
        return v

    def sym(self, lut) -> int:
        """One Huffman symbol via a 16-bit peek LUT (sym list, len list)."""
        self._fill(16)
        idx = (self.acc >> (self.n - 16)) & 0xFFFF
        L = lut[1][idx]
        self.n -= L
        self.acc &= (1 << self.n) - 1
        return lut[0][idx]


def _extend(v: int, s: int) -> int:
    return v if v >= (1 << (s - 1)) else v - (1 << s) + 1


class _ScanState:
    __slots__ = ("eobrun",)

    def __init__(self):
        self.eobrun = 0


def _prog_ac_first(br, row, actab, Ss, Se, Al, st):
    if st.eobrun > 0:
        st.eobrun -= 1
        return
    k = Ss
    while k <= Se:
        rs = br.sym(actab)
        r, s = rs >> 4, rs & 15
        if s == 0:
            if r == 15:
                k += 16
                continue
            st.eobrun = (1 << r) - 1
            if r:
                st.eobrun += br.bits(r)
            return
        k += r
        row[k] = _extend(br.bits(s), s) << Al
        k += 1


def _prog_ac_refine(br, row, actab, Ss, Se, Al, st):
    """T.81 G.2 AC successive-approximation refinement: newly-significant
    coefficients arrive as ±1<<Al; every already-nonzero coefficient
    passed (or remaining, in an EOB run) carries one correction bit."""
    p1 = 1 << Al
    k = Ss
    if st.eobrun == 0:
        while k <= Se:
            rs = br.sym(actab)
            r, s = rs >> 4, rs & 15
            if s:
                v = p1 if br.bits(1) else -p1
            else:
                if r != 15:
                    st.eobrun = 1 << r
                    if r:
                        st.eobrun += br.bits(r)
                    break
                v = 0
            while k <= Se:
                c = int(row[k])
                if c != 0:
                    if br.bits(1) and (c & p1) == 0:
                        row[k] = c + (p1 if c >= 0 else -p1)
                else:
                    if r == 0:
                        break
                    r -= 1
                k += 1
            if v and k <= Se:
                row[k] = v
            k += 1
    if st.eobrun > 0:
        while k <= Se:
            c = int(row[k])
            if c != 0 and br.bits(1) and (c & p1) == 0:
                row[k] = c + (p1 if c >= 0 else -p1)
            k += 1
        st.eobrun -= 1


def _jpeg_decode_progressive(d: bytes, scale: int = 1) -> np.ndarray:
    pos = 2
    qtables: dict = {}
    hufftabs: dict = {}
    comps = None
    coef = {}
    h = w = None
    hmax = vmax = mcux = mcuy = None
    restart_interval = 0
    n = len(d)
    lut_cache: dict = {}

    def lut(key):
        if key not in lut_cache:
            sym_np, len_np = _huff_lut(*hufftabs[key])
            lut_cache[key] = (sym_np.tolist(), len_np.tolist())
        return lut_cache[key]

    while pos < n - 1:
        if d[pos] != 0xFF:
            pos += 1
            continue
        marker = d[pos + 1]
        if marker in (0xD8, 0x01) or 0xD0 <= marker <= 0xD7:
            pos += 2
            continue
        if marker == 0xD9:
            break
        (seglen,) = struct.unpack_from(">H", d, pos + 2)
        seg = d[pos + 4:pos + 2 + seglen]
        pos += 2 + seglen
        if marker == 0xDB:
            o = 0
            while o < len(seg):
                pq, tq = seg[o] >> 4, seg[o] & 15
                if pq != 0:
                    raise NotImplementedError("16-bit quant tables")
                tbl = np.frombuffer(seg[o + 1:o + 65], dtype=np.uint8)\
                    .astype(np.int32)
                raster = np.empty(64, dtype=np.int32)
                raster[_ZZ] = tbl
                qtables[tq] = raster
                o += 65
        elif marker == 0xC4:
            o = 0
            while o < len(seg):
                tc, th_ = seg[o] >> 4, seg[o] & 15
                bits = list(seg[o + 1:o + 17])
                nv = sum(bits)
                vals = list(seg[o + 17:o + 17 + nv])
                hufftabs[(tc, th_)] = (bits, vals)
                lut_cache.pop((tc, th_), None)
                o += 17 + nv
        elif marker == 0xC2:
            h, w, comps = _frame_header(seg)
            hmax = max(c["h"] for c in comps)
            vmax = max(c["v"] for c in comps)
            mcux = -(-w // (8 * hmax))
            mcuy = -(-h // (8 * vmax))
            for c in comps:
                c["bw"] = mcux * c["h"]
                c["bh"] = mcuy * c["v"]
                coef[c["id"]] = np.zeros((c["bw"] * c["bh"], 64),
                                         dtype=np.int32)
        elif marker in (0xC0, 0xC1, 0xC3, 0xC5, 0xC6, 0xC7, 0xC9, 0xCA,
                        0xCB, 0xCD, 0xCE, 0xCF):
            raise ValueError("mixed frame types in progressive stream")
        elif marker == 0xDD:
            (restart_interval,) = struct.unpack_from(">H", seg, 0)
        elif marker == 0xDA:
            if comps is None:
                raise ValueError("SOS before SOF2")
            sc = _scan_components(seg, comps)
            ns = len(sc)
            Ss, Se = seg[1 + 2 * ns], seg[2 + 2 * ns]
            Ah, Al = seg[3 + 2 * ns] >> 4, seg[3 + 2 * ns] & 15
            pos, segments = _entropy_segments(d, pos)
            by_id = {c["id"]: c for c in comps}

            if Ss == 0:                       # DC scan
                if Se != 0:
                    raise ValueError("DC scan must have Se=0")
                # interleaved MCU walk (or single-component block walk)
                units = []                    # (cid, block index)
                if ns > 1 or (len(comps) == 1):
                    for mi in range(mcux * mcuy):
                        my, mx = divmod(mi, mcux)
                        for cs, _, _ in sc:
                            c = by_id[cs]
                            for by in range(c["v"]):
                                for bx in range(c["h"]):
                                    units.append(
                                        (cs, (my * c["v"] + by) * c["bw"]
                                         + mx * c["h"] + bx))
                    per_seg = (restart_interval or (mcux * mcuy)) \
                        * sum(by_id[cs]["h"] * by_id[cs]["v"]
                              for cs, _, _ in sc)
                else:
                    # our encoder (and every common one) interleaves DC
                    raise NotImplementedError(
                        "non-interleaved DC scan in a multi-component "
                        "frame")
                dtabs = {cs: lut((0, td)) for cs, td, _ in sc}
                ui = 0
                si = 0
                while ui < len(units):
                    br = _BitReader(segments[si] if si < len(segments)
                                    else b"")
                    si += 1
                    preds = {cs: 0 for cs, _, _ in sc}
                    end = min(ui + per_seg, len(units))
                    for cs, bi in units[ui:end]:
                        row = coef[cs][bi]
                        if Ah == 0:
                            s = br.sym(dtabs[cs])
                            diff = _extend(br.bits(s), s) if s else 0
                            preds[cs] += diff
                            row[0] = preds[cs] << Al
                        else:
                            if br.bits(1):
                                row[0] = int(row[0]) | (1 << Al)
                    ui = end
            else:                             # AC scan: single component
                if ns != 1:
                    raise ValueError("AC scan must be non-interleaved")
                cs, _, ta = sc[0]
                c = by_id[cs]
                cw = -(-w * c["h"] // hmax)
                ch = -(-h * c["v"] // vmax)
                wb, hb = -(-cw // 8), -(-ch // 8)
                actab = lut((1, ta))
                rows = coef[cs]
                per_seg = restart_interval or (wb * hb)
                fn = _prog_ac_first if Ah == 0 else _prog_ac_refine
                ui = 0
                si = 0
                order = [by * c["bw"] + bx
                         for by in range(hb) for bx in range(wb)]
                while ui < len(order):
                    br = _BitReader(segments[si] if si < len(segments)
                                    else b"")
                    si += 1
                    st = _ScanState()
                    end = min(ui + per_seg, len(order))
                    for bi in order[ui:end]:
                        fn(br, rows[bi], actab, Ss, Se, Al, st)
                    ui = end
        # else: APPn / COM — skipped

    if comps is None:
        raise ValueError("truncated progressive JPEG (no SOF2)")
    return _coef_to_image([coef[c["id"]] for c in comps], comps,
                          qtables, h, w, hmax, vmax, scale=scale)


# --------------------------------------------------------------- encoder

def _uniform_dht(symbols):
    """A legal single-length canonical table over ``symbols``: every code
    is L = ceil(log2(n+1)) bits (the +1 keeps the all-ones codeword —
    reserved by T.81 — unused).  Simpler than an optimal Huffman build
    and within ~15% of it on these scan streams; the decoder cost is
    identical (same 16-bit LUT)."""
    syms = sorted(symbols)
    n = len(syms)
    L = max(1, (n + 1 - 1).bit_length())
    if (1 << L) - 1 < n:
        L += 1
    bits = [0] * 16
    bits[L - 1] = n
    return bits, syms


def _ops_to_entropy(ops, codes) -> bytes:
    bw = _BitWriter()
    for op in ops:
        if op[0] == "s":
            _, rs, extra, nb = op
            c, L = codes[rs]
            bw.put(c, L)
            if nb:
                bw.put(extra, nb)
        else:
            bw.put(op[1], op[2])
    bw.flush()
    return bytes(bw.out)


def _ac_first_ops(zzs, order, Ss, Se, Al):
    """Spectral-selection first-scan symbol stream (T.81 G.1.2.2) with
    EOB-run aggregation; AC point transform = sign·(|v|>>Al)."""
    ops = []
    eobrun = 0

    def flush():
        nonlocal eobrun
        if eobrun:
            r = eobrun.bit_length() - 1
            ops.append(("s", r << 4, eobrun - (1 << r), r))
            eobrun = 0

    nb = Se - Ss + 1
    for bi in order:
        band = zzs[bi][Ss:Se + 1]
        t = np.abs(band) >> Al
        nz = np.nonzero(t)[0]
        if len(nz) == 0:
            eobrun += 1
            if eobrun == 0x7FFF:
                flush()
            continue
        flush()
        prev = -1
        for i in nz.tolist():
            run = i - prev - 1
            while run > 15:
                ops.append(("s", 0xF0, 0, 0))
                run -= 16
            v = int(t[i]) if band[i] >= 0 else -int(t[i])
            s = int(t[i]).bit_length()
            ops.append(("s", (run << 4) | s,
                        v if v > 0 else v + (1 << s) - 1, s))
            prev = i
        if nz[-1] != nb - 1:
            eobrun = 1
    flush()
    return ops


def _ac_refine_ops(zzs, order, Ss, Se, Al):
    """AC successive-approximation refinement symbol stream (T.81
    G.1.2.3, the encode_mcu_AC_refine shape): newly-significant
    coefficients (|v|>>Al == 1) code as (run<<4)|1 + sign bit; every
    already-significant coefficient passed contributes one buffered
    correction bit, flushed after the next emitted symbol (or attached
    to the pending EOB run)."""
    ops = []
    eobrun = 0
    pending = []          # correction bits belonging to the EOB run

    def flush():
        nonlocal eobrun
        if eobrun == 0:
            return
        r = eobrun.bit_length() - 1
        ops.append(("s", r << 4, eobrun - (1 << r), r))
        for b in pending:
            ops.append(("b", b, 1))
        pending.clear()
        eobrun = 0

    for bi in order:
        band = zzs[bi][Ss:Se + 1]
        absv = (np.abs(band) >> Al).tolist()
        eobpos = -1
        for i, t in enumerate(absv):
            if t == 1:
                eobpos = i
        r = 0
        br_bits = []
        for i, t in enumerate(absv):
            if t == 0:
                r += 1
                continue
            while r > 15 and i <= eobpos:
                flush()
                ops.append(("s", 0xF0, 0, 0))
                r -= 16
                for b in br_bits:
                    ops.append(("b", b, 1))
                br_bits = []
            if t > 1:
                br_bits.append(t & 1)
                continue
            flush()
            ops.append(("s", (r << 4) | 1, 0, 0))
            ops.append(("b", 1 if band[i] > 0 else 0, 1))
            r = 0
            for b in br_bits:
                ops.append(("b", b, 1))
            br_bits = []
        if r > 0 or br_bits:
            eobrun += 1
            pending.extend(br_bits)
            if eobrun == 0x7FFF:
                flush()
    flush()
    return ops


def _sos_segment(scan_comps, Ss, Se, Ah, Al) -> bytes:
    sos = bytes([len(scan_comps)])
    for cid, td, ta in scan_comps:
        sos += bytes([cid, (td << 4) | ta])
    sos += bytes([Ss, Se, (Ah << 4) | Al])
    return b"\xff\xda" + struct.pack(">H", len(sos) + 2) + sos


def _encode_progressive(gray, comps, comp_zz, comp_bw_blocks, h, w,
                        hmax, vmax, mcux, mcuy, ql, qc) -> bytes:
    """SOF2 progressive stream: DC Al=1 (std DC tables) + DC refinement
    (raw bits), per-component AC bands 1-5 / 6-63 at Al=2, then AC
    refinements Al=1 and Al=0.  Each AC scan carries its own DHT
    (class 1, id 0, redefined between scans) built from the symbols the
    scan actually emits."""
    nc = len(comps)
    dc_l = _build_codes(_DC_LUMA_BITS, _DC_LUMA_VALS)
    dc_c = _build_codes(_DC_CHROMA_BITS, _DC_CHROMA_VALS)

    out = [b"\xff\xd8",
           b"\xff\xe0" + struct.pack(">H", 16) + b"JFIF\x00"
           + bytes([1, 1, 0]) + struct.pack(">HH", 1, 1) + bytes([0, 0]),
           _dqt_segment(0, ql)]
    if not gray:
        out.append(_dqt_segment(1, qc))
    sof = bytes([8]) + struct.pack(">HH", h, w) + bytes([nc])
    for i, (_, _, _, _, hi, vi, qid) in enumerate(comps):
        sof += bytes([i + 1, (hi << 4) | vi, qid])
    out.append(b"\xff\xc2" + struct.pack(">H", len(sof) + 2) + sof)
    out.append(_dht_segment(0, 0, _DC_LUMA_BITS, _DC_LUMA_VALS))
    if not gray:
        out.append(_dht_segment(0, 1, _DC_CHROMA_BITS, _DC_CHROMA_VALS))

    # MCU-ordered (component, block) walk shared by both DC scans
    dc_units = []
    for my in range(mcuy):
        for mx in range(mcux):
            for ci, (_, _, _, _, hi, vi, _) in enumerate(comps):
                bwb = comp_bw_blocks[ci]
                for by in range(vi):
                    for bx in range(hi):
                        dc_units.append(
                            (ci, (my * vi + by) * bwb + mx * hi + bx))

    # scan 1: DC first, Al=1, interleaved, standard DC tables
    bw = _BitWriter()
    preds = [0] * nc
    for ci, bi in dc_units:
        dc = int(comp_zz[ci][bi][0]) >> 1            # point transform
        diff = dc - preds[ci]
        preds[ci] = dc
        codes = dc_l if ci == 0 else dc_c
        s = abs(diff).bit_length()
        c, L = codes[s]
        bw.put(c, L)
        if s:
            bw.put(diff if diff > 0 else diff + (1 << s) - 1, s)
    bw.flush()
    out.append(_sos_segment(
        [(ci + 1, 0 if ci == 0 else 1, 0) for ci in range(nc)],
        0, 0, 0, 1))
    out.append(bytes(bw.out))

    # per-component AC block order (non-interleaved data-unit grid)
    ac_orders = []
    for ci, (_, _, _, _, hi, vi, _) in enumerate(comps):
        cw = -(-w * hi // hmax)
        ch = -(-h * vi // vmax)
        wb, hb = -(-cw // 8), -(-ch // 8)
        bwb = comp_bw_blocks[ci]
        ac_orders.append([by * bwb + bx
                          for by in range(hb) for bx in range(wb)])

    def ac_scan(ci, Ss, Se, Ah, Al):
        if Ah == 0:
            ops = _ac_first_ops(comp_zz[ci], ac_orders[ci], Ss, Se, Al)
        else:
            ops = _ac_refine_ops(comp_zz[ci], ac_orders[ci], Ss, Se, Al)
        syms = {op[1] for op in ops if op[0] == "s"} or {0x00}
        bits, vals = _uniform_dht(syms)
        codes = _build_codes(bits, vals)
        out.append(_dht_segment(1, 0, bits, vals))
        out.append(_sos_segment([(ci + 1, 0, 0)], Ss, Se, Ah, Al))
        out.append(_ops_to_entropy(ops, codes))

    for ci in range(nc):
        ac_scan(ci, 1, 5, 0, 2)
    for ci in range(nc):
        ac_scan(ci, 6, 63, 0, 2)
    for ci in range(nc):
        ac_scan(ci, 1, 63, 2, 1)
    for ci in range(nc):
        ac_scan(ci, 1, 63, 1, 0)

    # DC refinement: one raw bit per block, Ah=1 Al=0
    bw = _BitWriter()
    for ci, bi in dc_units:
        bw.put(int(comp_zz[ci][bi][0]) & 1, 1)
    bw.flush()
    out.append(_sos_segment(
        [(ci + 1, 0, 0) for ci in range(nc)], 0, 0, 1, 0))
    out.append(bytes(bw.out))

    out.append(b"\xff\xd9")
    return b"".join(out)
