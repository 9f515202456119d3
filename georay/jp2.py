"""JPEG 2000 Part 1 (ITU-T T.800 / ISO-IEC 15444-1) lossless codec,
from scratch — the engine's analog of the reference's JP2 raster
drivers (frmts/jpeg2000, frmts/openjpeg wrap Jasper/OpenJPEG; this
container has neither native lib, so the reversible Part-1 path is
implemented directly from the public spec).

Scope (a strict, documented subset — every bitstream field written is
spec-shaped, so the files are valid Part-1 codestreams):

* single tile at the canvas origin, single quality layer, one precinct
  per resolution (default PPx=PPy=15), LRCP progression;
* reversible 5/3 wavelet (Annex F lifting, whole-sample symmetric
  extension) + reversible color transform (RCT) for 3-band input;
* EBCOT tier-1 bit-plane coder (Annex D: significance propagation /
  magnitude refinement / cleanup passes, run-length + UNIFORM modes)
  over the MQ arithmetic coder (Annex C state table, BYTEOUT/BYTEIN
  stuffing, FLUSH) — default mode (no bypass/reset/termall/causal);
* tier-2 packet headers (Annex B.10: inclusion + zero-bitplane tag
  trees, pass-count codewords, Lblock length signalling, 0xFF bit
  stuffing), JP2 box container (signature/ftyp/jp2h(ihdr,colr)/jp2c).

Correctness is pinned by lossless round-trip over adversarial arrays
(all sizes/edges, extreme values, random noise) plus unit pins for the
DWT lifting, tag-tree bit sequences and MQ coder round-trips.  No
external JP2 codec exists in this container, so cross-codec interop is
untested; the claim is "valid-shaped Part-1 lossless round-trip", which
is exactly what the transcode pipeline needs (PSNR = inf).

Scale shape: one (image) = one row; encode/decode run inside actor-pool
``map_batches`` stages (georay.queries.q_jp2_images) so the per-image
cost parallelizes across the cluster and nothing but the compressed
bytes crosses the object store.
"""

from __future__ import annotations

import struct

import numpy as np

__all__ = ["j2k_encode", "j2k_decode", "jp2_encode", "jp2_decode"]


# ---------------------------------------------------------------------------
# MQ arithmetic coder — T.800 Annex C (same coder as JBIG2 / T.88).
# (qe, nmps, nlps, switch) per state; contexts hold (index, mps).

_MQ = [
    (0x5601, 1, 1, 1), (0x3401, 2, 6, 0), (0x1801, 3, 9, 0),
    (0x0AC1, 4, 12, 0), (0x0521, 5, 29, 0), (0x0221, 38, 33, 0),
    (0x5601, 7, 6, 1), (0x5401, 8, 14, 0), (0x4801, 9, 14, 0),
    (0x3801, 10, 14, 0), (0x3001, 11, 17, 0), (0x2401, 12, 18, 0),
    (0x1C01, 13, 20, 0), (0x1601, 29, 21, 0), (0x5601, 15, 14, 1),
    (0x5401, 16, 14, 0), (0x5101, 17, 15, 0), (0x4801, 18, 16, 0),
    (0x3801, 19, 17, 0), (0x3401, 20, 18, 0), (0x3001, 21, 19, 0),
    (0x2801, 22, 19, 0), (0x2401, 23, 20, 0), (0x2201, 24, 21, 0),
    (0x1C01, 25, 22, 0), (0x1801, 26, 23, 0), (0x1601, 27, 24, 0),
    (0x1401, 28, 25, 0), (0x1201, 29, 26, 0), (0x1101, 30, 27, 0),
    (0x0AC1, 31, 28, 0), (0x09C1, 32, 29, 0), (0x08A1, 33, 30, 0),
    (0x0521, 34, 31, 0), (0x0441, 35, 32, 0), (0x02A1, 36, 33, 0),
    (0x0221, 37, 34, 0), (0x0141, 38, 35, 0), (0x0111, 39, 36, 0),
    (0x0085, 40, 37, 0), (0x0049, 41, 38, 0), (0x0025, 42, 39, 0),
    (0x0015, 43, 40, 0), (0x0009, 44, 41, 0), (0x0005, 45, 42, 0),
    (0x0001, 45, 43, 0), (0x5601, 46, 46, 0),
]

# T1 context initial states (Annex D.5): all contexts start at index 0
# except the zero context (4), run-length (3) and UNIFORM (46).
_N_CX = 19
_CX_RL, _CX_UNI = 17, 18


def _init_cx():
    idx = [0] * _N_CX
    idx[0] = 4
    idx[_CX_RL] = 3
    idx[_CX_UNI] = 46
    return idx, [0] * _N_CX


class MQEncoder:
    """Annex C.2 encoder (INITENC/ENCODE/RENORME/BYTEOUT/FLUSH)."""

    def __init__(self):
        # leading 0x00 sentinel absorbs a first-byte carry (dropped at
        # get() when untouched) — the standalone-segment convention.
        self.out = bytearray([0])
        self.a = 0x8000
        self.c = 0
        self.ct = 12
        self.icx, self.mps = _init_cx()

    def encode(self, cx: int, d: int):
        i = self.icx[cx]
        qe, nmps, nlps, sw = _MQ[i]
        a = self.a - qe
        if d == self.mps[cx]:
            if a & 0x8000:
                self.a = a
                self.c += qe
                return
            if a < qe:
                self.a = qe
            else:
                self.a = a
                self.c += qe
            self.icx[cx] = nmps
        else:
            if a < qe:
                self.a = a
                self.c += qe
            else:
                self.a = qe
            if sw:
                self.mps[cx] ^= 1
            self.icx[cx] = nlps
        # RENORME
        a, c, ct = self.a, self.c, self.ct
        while True:
            a <<= 1
            c <<= 1
            ct -= 1
            if ct == 0:
                self.c = c
                self._byteout()
                c, ct = self.c, self.ct
            if a & 0x8000:
                break
        self.a, self.c, self.ct = a, c, ct

    def _byteout(self):
        out = self.out
        if out[-1] == 0xFF:
            out.append(self.c >> 20)
            self.c &= 0xFFFFF
            self.ct = 7
        else:
            if self.c > 0x7FFFFFF:
                out[-1] += 1
                if out[-1] == 0xFF:
                    self.c &= 0x7FFFFFF
                    out.append(self.c >> 20)
                    self.c &= 0xFFFFF
                    self.ct = 7
                    return
            out.append((self.c >> 19) & 0xFF)
            self.c &= 0x7FFFF
            self.ct = 8

    def get(self) -> bytes:
        """FLUSH (C.2.9) and return the codeword segment bytes."""
        # SETBITS
        tempc = self.c + self.a
        self.c |= 0xFFFF
        if self.c >= tempc:
            self.c -= 0x8000
        self.c <<= self.ct
        self._byteout()
        self.c <<= self.ct
        self._byteout()
        data = self.out
        # drop the untouched sentinel (a carried-into sentinel is real data)
        if data[0] == 0:
            data = data[1:]
        # a terminal 0xFF is never needed (decoder feeds 1s past the end)
        while data and data[-1] == 0xFF:
            data = data[:-1]
        return bytes(data)


class MQDecoder:
    """Annex C.3 decoder (software conventions: INITDEC/DECODE/BYTEIN)."""

    def __init__(self, data: bytes):
        self.data = data
        self.n = len(data)
        self.bp = 0
        b0 = data[0] if self.n else 0xFF
        self.c = b0 << 16
        self._bytein()
        self.c <<= 7
        self.ct -= 7
        self.a = 0x8000
        self.icx, self.mps = _init_cx()

    def _bytein(self):
        data, bp, n = self.data, self.bp, self.n
        cur = data[bp] if bp < n else 0xFF
        if cur == 0xFF:
            nxt = data[bp + 1] if bp + 1 < n else 0xFF
            if nxt > 0x8F:
                self.c += 0xFF00
                self.ct = 8
            else:
                self.bp = bp + 1
                self.c += nxt << 9
                self.ct = 7
        else:
            self.bp = bp + 1
            nxt = data[bp + 1] if bp + 1 < n else 0xFF
            self.c += nxt << 8
            self.ct = 8

    def decode(self, cx: int) -> int:
        i = self.icx[cx]
        qe, nmps, nlps, sw = _MQ[i]
        self.a -= qe
        if ((self.c >> 16) & 0xFFFF) < qe:
            # LPS exchange path
            if self.a < qe:
                d = self.mps[cx]
                self.icx[cx] = nmps
            else:
                d = 1 - self.mps[cx]
                if sw:
                    self.mps[cx] ^= 1
                self.icx[cx] = nlps
            self.a = qe
        else:
            self.c -= qe << 16
            if self.a & 0x8000:
                return self.mps[cx]
            # MPS exchange path
            if self.a < qe:
                d = 1 - self.mps[cx]
                if sw:
                    self.mps[cx] ^= 1
                self.icx[cx] = nlps
            else:
                d = self.mps[cx]
                self.icx[cx] = nmps
        # RENORMD
        a, c, ct = self.a, self.c, self.ct
        while True:
            if ct == 0:
                self.c, self.ct = c, ct
                self._bytein()
                c, ct = self.c, self.ct
            a <<= 1
            c = (c << 1) & 0xFFFFFFFF
            ct -= 1
            if a & 0x8000:
                break
        self.a, self.c, self.ct = a, c, ct
        return d


# ---------------------------------------------------------------------------
# Packet-header bit I/O — B.10.1 (a 0xFF byte is followed by a 7-bit byte).


class BioWriter:
    def __init__(self):
        self.out = bytearray()
        self.buf = 0
        self.nbits = 0
        self.cap = 8

    def write(self, v: int, n: int):
        for i in range(n - 1, -1, -1):
            self.buf = (self.buf << 1) | ((v >> i) & 1)
            self.nbits += 1
            if self.nbits == self.cap:
                self.out.append(self.buf)
                self.cap = 7 if self.buf == 0xFF else 8
                self.buf = 0
                self.nbits = 0

    def flush(self) -> bytes:
        if self.nbits:
            self.out.append(self.buf << (self.cap - self.nbits))
            self.buf = 0
            self.nbits = 0
            self.cap = 8
        return bytes(self.out)


class BioReader:
    def __init__(self, data: bytes, pos: int = 0):
        self.data = data
        self.pos = pos
        self.buf = 0
        self.nbits = 0
        self.cap = 8

    def read(self, n: int) -> int:
        v = 0
        for _ in range(n):
            if self.nbits == 0:
                prev_ff = self.cap == 7
                self.buf = self.data[self.pos]
                self.pos += 1
                self.nbits = 7 if prev_ff else 8
                self.cap = 7 if self.buf == 0xFF else 8
            self.nbits -= 1
            v = (v << 1) | ((self.buf >> self.nbits) & 1)
        return v

    def align(self) -> int:
        """Byte-align (end of packet header) and return the position."""
        self.nbits = 0
        self.cap = 8
        return self.pos


# ---------------------------------------------------------------------------
# Tag trees — B.10.2.  Quadtree of minima; encoder/decoder keep per-node
# (value, low, known) state across calls within one packet sequence.


class TagTree:
    def __init__(self, w: int, h: int):
        self.dims = []
        self.parent = []  # node index -> parent index (-1 at root)
        sizes = []
        while True:
            sizes.append((w, h))
            if w <= 1 and h <= 1:
                break
            w = (w + 1) // 2
            h = (h + 1) // 2
        offs = []
        total = 0
        for (lw, lh) in sizes:
            offs.append(total)
            total += lw * lh
        self.nn = total
        par = [-1] * total
        for lev in range(len(sizes) - 1):
            lw, lh = sizes[lev]
            pw, _ = sizes[lev + 1]
            for y in range(lh):
                for x in range(lw):
                    par[offs[lev] + y * lw + x] = (
                        offs[lev + 1] + (y // 2) * pw + (x // 2))
        self.par = par
        self.value = [0] * total
        self.low = [0] * total
        self.known = [0] * total

    def set_values(self, leaf_values):
        """Set all leaf values at once and build internal minima."""
        nl = len(leaf_values)
        self.value[:nl] = list(leaf_values)
        big = 1 << 30
        for i in range(nl, self.nn):
            self.value[i] = big
        for i in range(self.nn):
            p = self.par[i]
            if p >= 0 and self.value[i] < self.value[p]:
                self.value[p] = self.value[i]
        self.low = [0] * self.nn
        self.known = [0] * self.nn

    def _path(self, leaf: int):
        path = [leaf]
        while self.par[path[-1]] >= 0:
            path.append(self.par[path[-1]])
        path.reverse()
        return path

    def encode(self, bio: BioWriter, leaf: int, threshold: int):
        low = 0
        for n in self._path(leaf):
            if low > self.low[n]:
                self.low[n] = low
            else:
                low = self.low[n]
            while low < threshold:
                if low >= self.value[n]:
                    if not self.known[n]:
                        bio.write(1, 1)
                        self.known[n] = 1
                    break
                bio.write(0, 1)
                low += 1
            self.low[n] = low

    def decode(self, bio: BioReader, leaf: int, threshold: int) -> bool:
        """Consume bits up to ``threshold``; True iff value < threshold."""
        low = 0
        n = leaf
        for n in self._path(leaf):
            if low > self.low[n]:
                self.low[n] = low
            else:
                low = self.low[n]
            while low < threshold and low < self.value[n]:
                if bio.read(1):
                    self.value[n] = low
                else:
                    low += 1
            self.low[n] = low
        return self.value[n] < threshold


class _DecTagTree(TagTree):
    """Decoder-side tree: values unknown (initialized to a sentinel)."""

    def __init__(self, w, h):
        super().__init__(w, h)
        self.value = [1 << 30] * self.nn


# ---------------------------------------------------------------------------
# Reversible 5/3 DWT — Annex F lifting with whole-sample symmetric
# extension, vectorized along the transform axis (last axis).


def _fwd53_1d(x: np.ndarray):
    n = x.shape[-1]
    if n == 1:
        return x.astype(np.int32, copy=True), x[..., :0].astype(np.int32)
    ev = x[..., 0::2].astype(np.int64)
    od = x[..., 1::2].astype(np.int64)
    ne, no = ev.shape[-1], od.shape[-1]
    if ne == no:  # even length: right neighbor of the last odd reflects
        evr = np.concatenate([ev[..., 1:], ev[..., -1:]], axis=-1)
    else:
        evr = ev[..., 1:]
    d = od - (ev[..., :no] + evr) // 2
    dl = np.concatenate([d[..., :1], d[..., :ne - 1]], axis=-1)
    if no >= ne:
        dr = d[..., :ne]
    else:  # odd length: last even reflects the last detail
        dr = np.concatenate([d, d[..., -1:]], axis=-1)
    s = ev + (dl + dr + 2) // 4
    return s.astype(np.int32), d.astype(np.int32)


def _inv53_1d(s: np.ndarray, d: np.ndarray) -> np.ndarray:
    ne, no = s.shape[-1], d.shape[-1]
    n = ne + no
    if n == 1:
        return s.astype(np.int32, copy=True)
    s = s.astype(np.int64)
    d = d.astype(np.int64)
    dl = np.concatenate([d[..., :1], d[..., :ne - 1]], axis=-1)
    dr = d[..., :ne] if no >= ne else np.concatenate([d, d[..., -1:]],
                                                     axis=-1)
    ev = s - (dl + dr + 2) // 4
    if ne == no:
        evr = np.concatenate([ev[..., 1:], ev[..., -1:]], axis=-1)
    else:
        evr = ev[..., 1:]
    od = d + (ev[..., :no] + evr) // 2
    out = np.empty(s.shape[:-1] + (n,), np.int32)
    out[..., 0::2] = ev
    out[..., 1::2] = od
    return out


def _fwd53_2d(a: np.ndarray):
    """One decomposition stage → (LL, HL, LH, HH).  Rows first, then
    columns (the inverse mirrors in reverse order, so the nonlinear
    floor-lifting round-trips exactly)."""
    lo, hi = _fwd53_1d(a)                      # horizontal
    ll, lh = _fwd53_1d(np.swapaxes(lo, -1, -2))  # vertical on lowpass
    hl, hh = _fwd53_1d(np.swapaxes(hi, -1, -2))
    return (np.swapaxes(ll, -1, -2), np.swapaxes(hl, -1, -2),
            np.swapaxes(lh, -1, -2), np.swapaxes(hh, -1, -2))


def _inv53_2d(ll, hl, lh, hh):
    lo = np.swapaxes(_inv53_1d(np.swapaxes(ll, -1, -2),
                               np.swapaxes(lh, -1, -2)), -1, -2)
    hi = np.swapaxes(_inv53_1d(np.swapaxes(hl, -1, -2),
                               np.swapaxes(hh, -1, -2)), -1, -2)
    return _inv53_1d(lo, hi)


def dwt53_forward(a: np.ndarray, levels: int):
    """L-stage 2-D decomposition → (LL_L, [(HL,LH,HH) stage 1..L])."""
    ll = a.astype(np.int32)
    details = []
    for _ in range(levels):
        ll, hl, lh, hh = _fwd53_2d(ll)
        details.append((hl, lh, hh))
    return ll, details


def dwt53_inverse(ll: np.ndarray, details) -> np.ndarray:
    for (hl, lh, hh) in reversed(details):
        ll = _inv53_2d(ll, hl, lh, hh)
    return ll


# ---------------------------------------------------------------------------
# Irreversible 9/7 DWT — Annex F.4.8 lifting (CDF 9/7), float64, same
# whole-sample symmetric extension as the 5/3 path.  Scaling chosen so
# the analysis lowpass has DC gain 1 and the highpass Nyquist gain 2
# (verified numerically at build time: unnormalized lifting gives DC
# gain K and Nyquist 2/K), matching the R_b = depth + gain convention
# the quantizer signalling (Annex E) assumes.

_A97 = -1.586134342059924
_B97 = -0.052980118572961
_G97 = 0.882911075530934
_D97 = 0.443506852043971
_K97 = 1.230174104914001


def _nbr_odd(ev, no):
    """ev[i] + ev[i+1] per odd slot (right edge reflects)."""
    ne = ev.shape[-1]
    er = (np.concatenate([ev[..., 1:], ev[..., -1:]], axis=-1)
          if ne == no else ev[..., 1:])
    return ev[..., :no] + er


def _nbr_even(d, ne):
    """d[i-1] + d[i] per even slot (left edge reflects)."""
    no = d.shape[-1]
    dl = np.concatenate([d[..., :1], d[..., :ne - 1]], axis=-1)
    dr = d[..., :ne] if no >= ne else np.concatenate([d, d[..., -1:]],
                                                     axis=-1)
    return dl + dr


def _fwd97_1d(x: np.ndarray):
    n = x.shape[-1]
    if n == 1:
        return x.astype(np.float64, copy=True), \
            x[..., :0].astype(np.float64)
    ev = x[..., 0::2].astype(np.float64)
    od = x[..., 1::2].astype(np.float64)
    ne, no = ev.shape[-1], od.shape[-1]
    od = od + _A97 * _nbr_odd(ev, no)
    ev = ev + _B97 * _nbr_even(od, ne)
    od = od + _G97 * _nbr_odd(ev, no)
    ev = ev + _D97 * _nbr_even(od, ne)
    return ev * (1.0 / _K97), od * _K97


def _inv97_1d(s: np.ndarray, d: np.ndarray) -> np.ndarray:
    ne, no = s.shape[-1], d.shape[-1]
    n = ne + no
    if n == 1:
        return s.astype(np.float64, copy=True)
    ev = s.astype(np.float64) * _K97
    od = d.astype(np.float64) * (1.0 / _K97)
    ev = ev - _D97 * _nbr_even(od, ne)
    od = od - _G97 * _nbr_odd(ev, no)
    ev = ev - _B97 * _nbr_even(od, ne)
    od = od - _A97 * _nbr_odd(ev, no)
    out = np.empty(s.shape[:-1] + (n,), np.float64)
    out[..., 0::2] = ev
    out[..., 1::2] = od
    return out


def _fwd97_2d(a: np.ndarray):
    lo, hi = _fwd97_1d(a)
    ll, lh = _fwd97_1d(np.swapaxes(lo, -1, -2))
    hl, hh = _fwd97_1d(np.swapaxes(hi, -1, -2))
    return (np.swapaxes(ll, -1, -2), np.swapaxes(hl, -1, -2),
            np.swapaxes(lh, -1, -2), np.swapaxes(hh, -1, -2))


def _inv97_2d(ll, hl, lh, hh):
    lo = np.swapaxes(_inv97_1d(np.swapaxes(ll, -1, -2),
                               np.swapaxes(lh, -1, -2)), -1, -2)
    hi = np.swapaxes(_inv97_1d(np.swapaxes(hl, -1, -2),
                               np.swapaxes(hh, -1, -2)), -1, -2)
    return _inv97_1d(lo, hi)


def dwt97_forward(a: np.ndarray, levels: int):
    ll = a.astype(np.float64)
    details = []
    for _ in range(levels):
        ll, hl, lh, hh = _fwd97_2d(ll)
        details.append((hl, lh, hh))
    return ll, details


def dwt97_inverse(ll: np.ndarray, details) -> np.ndarray:
    ll = ll.astype(np.float64)
    for (hl, lh, hh) in reversed(details):
        ll = _inv97_2d(ll, hl, lh, hh)
    return ll


# Irreversible color transform — G.3 (floating YCbCr).


def ict_forward(r, g, b):
    r = r.astype(np.float64)
    g = g.astype(np.float64)
    b = b.astype(np.float64)
    y = 0.299 * r + 0.587 * g + 0.114 * b
    cb = -0.168736 * r - 0.331264 * g + 0.5 * b
    cr = 0.5 * r - 0.418688 * g - 0.081312 * b
    return y, cb, cr


def ict_inverse(y, cb, cr):
    y = y.astype(np.float64)
    cb = cb.astype(np.float64)
    cr = cr.astype(np.float64)
    r = y + 1.402 * cr
    g = y - 0.344136 * cb - 0.714136 * cr
    b = y + 1.772 * cb
    return r, g, b


# Scalar-expounded quantization — Annex E: step for subband b is
# delta_b = 2^(R_b - eps) * (1 + mu / 2^11) with R_b = depth + gain
# (gain 0/1/1/2 for LL/HL/LH/HH).  The encoder picks one absolute step
# and signals the nearest representable (eps, mu) per subband.

_BAND_GAIN = {"LL": 0, "HL": 1, "LH": 1, "HH": 2}


def _quant_params(delta: float, r_b: int):
    """absolute step -> (eps, mu, representable step)."""
    e2 = int(np.floor(np.log2(delta)))
    eps = max(0, min(31, r_b - e2))
    mant = delta / (2.0 ** (r_b - eps)) - 1.0
    mu = max(0, min(2047, int(round(mant * 2048.0))))
    return eps, mu, (2.0 ** (r_b - eps)) * (1.0 + mu / 2048.0)


# ---------------------------------------------------------------------------
# Reversible color transform — G.2 (exact integer, inverse is lossless).


def rct_forward(r, g, b):
    r = r.astype(np.int32)
    g = g.astype(np.int32)
    b = b.astype(np.int32)
    y = (r + 2 * g + b) >> 2
    return y, b - g, r - g


def rct_inverse(y, u, v):
    g = y - ((u + v) >> 2)
    return v + g, g, u + g


# ---------------------------------------------------------------------------
# EBCOT tier-1 — Annex D.  Context tables built once at import.


def _build_zc_tables():
    # LL/LH table (Table D.1 col 1); HL swaps h<->v; HH is diag-major.
    ll = [0] * 45
    hh = [0] * 45
    for h in range(3):
        for v in range(3):
            for d in range(5):
                if h == 2:
                    c = 8
                elif h == 1:
                    c = 7 if v >= 1 else (6 if d >= 1 else 5)
                else:
                    if v == 2:
                        c = 4
                    elif v == 1:
                        c = 3
                    else:
                        c = 2 if d >= 2 else (1 if d == 1 else 0)
                ll[h * 15 + v * 5 + d] = c
                hv = h + v
                if d >= 3:
                    c2 = 8
                elif d == 2:
                    c2 = 7 if hv >= 1 else 6
                elif d == 1:
                    c2 = 5 if hv >= 2 else (4 if hv == 1 else 3)
                else:
                    c2 = 2 if hv >= 2 else (1 if hv == 1 else 0)
                hh[h * 15 + v * 5 + d] = c2
    return ll, hh


_ZC_LL, _ZC_HH = _build_zc_tables()

# sign contexts (Table D.2): (hc+1)*3 + (vc+1) -> (context, xor bit)
_SC = {}
for _hc in (-1, 0, 1):
    for _vc in (-1, 0, 1):
        if _hc == 1:
            _ctx, _xr = (13, 0) if _vc == 1 else ((12, 0) if _vc == 0
                                                  else (11, 0))
        elif _hc == 0:
            _ctx, _xr = (10, 0) if _vc == 1 else ((9, 0) if _vc == 0
                                                  else (10, 1))
        else:
            _ctx, _xr = (11, 1) if _vc == 1 else ((12, 1) if _vc == 0
                                                  else (13, 1))
        _SC[(_hc + 1) * 3 + _vc + 1] = (_ctx, _xr)
_SC = [_SC[i] for i in range(9)]


def _zc_table(band: str):
    if band == "HH":
        return _ZC_HH, False
    return _ZC_LL, band == "HL"  # HL: transpose (swap h and v sums)


def t1_encode_block(co: np.ndarray, band: str):
    """Encode one code-block → (bytes, npasses, nbps).  ``co`` is the
    signed int32 coefficient block; ``band`` in {LL, HL, LH, HH}."""
    h, w = co.shape
    mag2 = np.abs(co)
    nbps = int(mag2.max()).bit_length()
    if nbps == 0:
        return b"", 0, 0
    W = w + 2
    size = (h + 2) * W
    mag = [0] * size
    sgn = bytearray(size)
    sig = bytearray(size)
    vis = bytearray(size)
    ref = bytearray(size)
    neg = (co < 0)
    for y in range(h):
        base = (y + 1) * W + 1
        row = mag2[y]
        nrow = neg[y]
        for x in range(w):
            mag[base + x] = int(row[x])
            sgn[base + x] = 1 if nrow[x] else 0
    zc, swap = _zc_table(band)
    enc = MQEncoder()
    encode = enc.encode
    sc = _SC

    def code_sign(p):
        l_, r_ = p - 1, p + 1
        u_, d_ = p - W, p + W
        hc = (sig[l_] * (1 - 2 * sgn[l_])) + (sig[r_] * (1 - 2 * sgn[r_]))
        vc = (sig[u_] * (1 - 2 * sgn[u_])) + (sig[d_] * (1 - 2 * sgn[d_]))
        if hc > 1:
            hc = 1
        elif hc < -1:
            hc = -1
        if vc > 1:
            vc = 1
        elif vc < -1:
            vc = -1
        ctx, xr = sc[(hc + 1) * 3 + vc + 1]
        encode(ctx, sgn[p] ^ xr)

    def zctx(p):
        hs = sig[p - 1] + sig[p + 1]
        vs = sig[p - W] + sig[p + W]
        ds = (sig[p - W - 1] + sig[p - W + 1]
              + sig[p + W - 1] + sig[p + W + 1])
        if ds > 4:
            ds = 4
        if swap:
            hs, vs = vs, hs
        return zc[hs * 15 + vs * 5 + ds]

    npasses = 0
    for plane in range(nbps - 1, -1, -1):
        if plane != nbps - 1:
            # --- significance propagation pass (D.3.1)
            for y0 in range(0, h, 4):
                ylim = min(y0 + 4, h)
                for x in range(w):
                    for y in range(y0, ylim):
                        p = (y + 1) * W + x + 1
                        if sig[p]:
                            continue
                        if not (sig[p - 1] or sig[p + 1] or sig[p - W]
                                or sig[p + W] or sig[p - W - 1]
                                or sig[p - W + 1] or sig[p + W - 1]
                                or sig[p + W + 1]):
                            continue
                        bit = (mag[p] >> plane) & 1
                        encode(zctx(p), bit)
                        vis[p] = 1
                        if bit:
                            sig[p] = 1
                            code_sign(p)
            npasses += 1
            # --- magnitude refinement pass (D.3.3)
            for y0 in range(0, h, 4):
                ylim = min(y0 + 4, h)
                for x in range(w):
                    for y in range(y0, ylim):
                        p = (y + 1) * W + x + 1
                        if not sig[p] or vis[p]:
                            continue
                        if ref[p]:
                            ctx = 16
                        elif (sig[p - 1] or sig[p + 1] or sig[p - W]
                              or sig[p + W] or sig[p - W - 1]
                              or sig[p - W + 1] or sig[p + W - 1]
                              or sig[p + W + 1]):
                            ctx = 15
                        else:
                            ctx = 14
                        encode(ctx, (mag[p] >> plane) & 1)
                        ref[p] = 1
            npasses += 1
        # --- cleanup pass (D.3.4) with run-length mode
        for y0 in range(0, h, 4):
            ylim = min(y0 + 4, h)
            full = (ylim - y0) == 4
            for x in range(w):
                ystart = y0
                if full:
                    ps = [(y + 1) * W + x + 1 for y in range(y0, y0 + 4)]
                    run = True
                    for p in ps:
                        if sig[p] or vis[p] or (
                                sig[p - 1] or sig[p + 1] or sig[p - W]
                                or sig[p + W] or sig[p - W - 1]
                                or sig[p - W + 1] or sig[p + W - 1]
                                or sig[p + W + 1]):
                            run = False
                            break
                    if run:
                        bits = [(mag[p] >> plane) & 1 for p in ps]
                        if 1 not in bits:
                            encode(_CX_RL, 0)
                            continue
                        encode(_CX_RL, 1)
                        r = bits.index(1)
                        encode(_CX_UNI, r >> 1)
                        encode(_CX_UNI, r & 1)
                        p = ps[r]
                        sig[p] = 1
                        code_sign(p)
                        ystart = y0 + r + 1
                for y in range(ystart, ylim):
                    p = (y + 1) * W + x + 1
                    if sig[p] or vis[p]:
                        continue
                    bit = (mag[p] >> plane) & 1
                    encode(zctx(p), bit)
                    if bit:
                        sig[p] = 1
                        code_sign(p)
        npasses += 1
        if plane:
            for i in range(size):
                vis[i] = 0
    return enc.get(), npasses, nbps


def t1_decode_block(data: bytes, w: int, h: int, npasses: int,
                    nbps: int, band: str) -> np.ndarray:
    """Inverse of :func:`t1_encode_block`."""
    out = np.zeros((h, w), np.int32)
    if npasses == 0 or nbps == 0:
        return out
    W = w + 2
    size = (h + 2) * W
    mag = [0] * size
    sgn = bytearray(size)
    sig = bytearray(size)
    vis = bytearray(size)
    ref = bytearray(size)
    zc, swap = _zc_table(band)
    dec = MQDecoder(data)
    decode = dec.decode
    sc = _SC

    def dec_sign(p):
        l_, r_ = p - 1, p + 1
        u_, d_ = p - W, p + W
        hc = (sig[l_] * (1 - 2 * sgn[l_])) + (sig[r_] * (1 - 2 * sgn[r_]))
        vc = (sig[u_] * (1 - 2 * sgn[u_])) + (sig[d_] * (1 - 2 * sgn[d_]))
        if hc > 1:
            hc = 1
        elif hc < -1:
            hc = -1
        if vc > 1:
            vc = 1
        elif vc < -1:
            vc = -1
        ctx, xr = sc[(hc + 1) * 3 + vc + 1]
        sgn[p] = decode(ctx) ^ xr

    def zctx(p):
        hs = sig[p - 1] + sig[p + 1]
        vs = sig[p - W] + sig[p + W]
        ds = (sig[p - W - 1] + sig[p - W + 1]
              + sig[p + W - 1] + sig[p + W + 1])
        if ds > 4:
            ds = 4
        if swap:
            hs, vs = vs, hs
        return zc[hs * 15 + vs * 5 + ds]

    done = 0
    for plane in range(nbps - 1, -1, -1):
        if plane != nbps - 1:
            if done >= npasses:
                break
            for y0 in range(0, h, 4):            # significance propagation
                ylim = min(y0 + 4, h)
                for x in range(w):
                    for y in range(y0, ylim):
                        p = (y + 1) * W + x + 1
                        if sig[p]:
                            continue
                        if not (sig[p - 1] or sig[p + 1] or sig[p - W]
                                or sig[p + W] or sig[p - W - 1]
                                or sig[p - W + 1] or sig[p + W - 1]
                                or sig[p + W + 1]):
                            continue
                        vis[p] = 1
                        if decode(zctx(p)):
                            sig[p] = 1
                            mag[p] |= 1 << plane
                            dec_sign(p)
            done += 1
            if done >= npasses:
                break
            for y0 in range(0, h, 4):            # magnitude refinement
                ylim = min(y0 + 4, h)
                for x in range(w):
                    for y in range(y0, ylim):
                        p = (y + 1) * W + x + 1
                        if not sig[p] or vis[p]:
                            continue
                        if ref[p]:
                            ctx = 16
                        elif (sig[p - 1] or sig[p + 1] or sig[p - W]
                              or sig[p + W] or sig[p - W - 1]
                              or sig[p - W + 1] or sig[p + W - 1]
                              or sig[p + W + 1]):
                            ctx = 15
                        else:
                            ctx = 14
                        if decode(ctx):
                            mag[p] |= 1 << plane
                        ref[p] = 1
            done += 1
        if done >= npasses:
            break
        for y0 in range(0, h, 4):                # cleanup
            ylim = min(y0 + 4, h)
            full = (ylim - y0) == 4
            for x in range(w):
                ystart = y0
                if full:
                    ps = [(y + 1) * W + x + 1 for y in range(y0, y0 + 4)]
                    run = True
                    for p in ps:
                        if sig[p] or vis[p] or (
                                sig[p - 1] or sig[p + 1] or sig[p - W]
                                or sig[p + W] or sig[p - W - 1]
                                or sig[p - W + 1] or sig[p + W - 1]
                                or sig[p + W + 1]):
                            run = False
                            break
                    if run:
                        if not decode(_CX_RL):
                            continue
                        r = (decode(_CX_UNI) << 1) | decode(_CX_UNI)
                        p = ps[r]
                        sig[p] = 1
                        mag[p] |= 1 << plane
                        dec_sign(p)
                        ystart = y0 + r + 1
                for y in range(ystart, ylim):
                    p = (y + 1) * W + x + 1
                    if sig[p] or vis[p]:
                        continue
                    if decode(zctx(p)):
                        sig[p] = 1
                        mag[p] |= 1 << plane
                        dec_sign(p)
        done += 1
        if plane:
            for i in range(size):
                vis[i] = 0
    for y in range(h):
        base = (y + 1) * W + 1
        row = out[y]
        for x in range(w):
            m = mag[base + x]
            if m:
                row[x] = -m if sgn[base + x] else m
    return out


# ---------------------------------------------------------------------------
# Geometry: single tile at origin → per-resolution subband sizes.


def _band_geometry(h: int, w: int, levels: int):
    """[(res, [(band, bh, bw), ...])] for res 0..levels, plus the stage
    size chain used by the DWT (identical on both sides by construction)."""
    sizes = [(h, w)]
    for _ in range(levels):
        ph, pw = sizes[-1]
        sizes.append(((ph + 1) // 2, (pw + 1) // 2))
    res = [(0, [("LL", sizes[levels][0], sizes[levels][1])])]
    for r in range(1, levels + 1):
        s = levels - r  # stage index s+1 operates on sizes[s]
        ph, pw = sizes[s]
        ch, cw = sizes[s + 1]
        res.append((r, [("HL", ch, pw - cw), ("LH", ph - ch, cw),
                        ("HH", ph - ch, pw - cw)]))
    return res


def _blocks_of(bh: int, bw: int, cb: int):
    """Code-block rectangles (y0, x0, h, w) in raster order + grid dims."""
    if bh == 0 or bw == 0:
        return [], 0, 0
    ncbx = (bw + cb - 1) // cb
    ncby = (bh + cb - 1) // cb
    rects = []
    for by in range(ncby):
        for bx in range(ncbx):
            y0, x0 = by * cb, bx * cb
            rects.append((y0, x0, min(cb, bh - y0), min(cb, bw - x0)))
    return rects, ncbx, ncby


def _npasses_codeword(bio: BioWriter, n: int):
    if n == 1:
        bio.write(0, 1)
    elif n == 2:
        bio.write(2, 2)  # '10'
    elif n <= 5:
        bio.write(3, 2)
        bio.write(n - 3, 2)
    elif n <= 36:
        bio.write(0xF, 4)
        bio.write(n - 6, 5)
    else:
        bio.write(0x1FF, 9)
        bio.write(n - 37, 7)


def _read_npasses(bio: BioReader) -> int:
    if bio.read(1) == 0:
        return 1
    if bio.read(1) == 0:
        return 2
    v = bio.read(2)
    if v < 3:
        return 3 + v
    v = bio.read(5)
    if v < 31:
        return 6 + v
    return 37 + bio.read(7)


# ---------------------------------------------------------------------------
# Codestream encode.


def _encode_component(comp: np.ndarray, levels: int):
    """→ per-resolution list of per-band coefficient arrays."""
    ll, details = dwt53_forward(comp, levels)
    res = [[("LL", ll)]]
    for r in range(1, levels + 1):
        hl, lh, hh = details[levels - r]
        res.append([("HL", hl), ("LH", lh), ("HH", hh)])
    return res


def j2k_encode(arr: np.ndarray, levels: int | None = None,
               cb: int = 64, reversible: bool = True,
               step: float = 1.0) -> bytes:
    """Encode a (h, w) or (h, w, 3) uint8/uint16 array as a Part-1
    codestream (single tile/layer/precinct, LRCP).  ``reversible=True``
    = 5/3 + RCT lossless; ``reversible=False`` = the 9/7 irreversible
    transform + ICT with scalar-expounded quantization at absolute base
    step ``step`` (sample units; 1.0 ~ visually lossless for 8-bit,
    PSNR drops ~6 dB per doubling) — frmts/openjpeg/ parity surface."""
    if not reversible and not step > 0:
        raise ValueError("step must be > 0")
    if arr.ndim == 2:
        arr = arr[..., None]
    if arr.ndim != 3 or arr.shape[2] not in (1, 3):
        raise ValueError("expect (h, w), (h, w, 1) or (h, w, 3)")
    if arr.dtype == np.uint8:
        depth = 8
    elif arr.dtype == np.uint16:
        depth = 16
    else:
        raise ValueError("expect uint8 or uint16 samples")
    if cb not in (4, 8, 16, 32, 64):
        raise ValueError("code-block size must be a power of 2 in 4..64")
    h, w, nc = arr.shape
    if levels is None:
        levels = max(0, min(5, min(h, w).bit_length() - 3))
    # DC level shift + color transform (RCT exact / ICT float)
    use_mct = nc == 3
    geometry = _band_geometry(h, w, levels)
    n_sb = 3 * levels + 1
    if reversible:
        shifted = arr.astype(np.int32) - (1 << (depth - 1))
        if use_mct:
            y, u, v = rct_forward(shifted[..., 0], shifted[..., 1],
                                  shifted[..., 2])
            comps = [y, u, v]
        else:
            comps = [shifted[..., 0]]
        per_comp = [_encode_component(c, levels) for c in comps]

        # exact per-subband exponents (max over components), guard = 2
        guard = 2
        eps = [1] * n_sb
        sbno = 0
        for r, bands in geometry:
            for bi, (_bname, _bh, _bw) in enumerate(bands):
                mx = 0
                for pc in per_comp:
                    a = pc[r][bi][1]
                    if a.size:
                        mx = max(mx, int(np.abs(a).max()))
                eps[sbno] = max(1, min(31, mx.bit_length()))
                sbno += 1
        mb = [guard + e - 1 for e in eps]
        mus = None
    else:
        shifted = arr.astype(np.float64) - (1 << (depth - 1))
        if use_mct:
            comps = list(ict_forward(shifted[..., 0], shifted[..., 1],
                                     shifted[..., 2]))
        else:
            comps = [shifted[..., 0]]
        per_f = []
        for c in comps:
            ll, details = dwt97_forward(c, levels)
            res = [[("LL", ll)]]
            for r in range(1, levels + 1):
                hl, lh, hh = details[levels - r]
                res.append([("HL", hl), ("LH", lh), ("HH", hh)])
            per_f.append(res)
        guard = 3                    # extra headroom: 9/7 overshoots
        eps = [0] * n_sb
        mus = [0] * n_sb
        deltas = [1.0] * n_sb
        sbno = 0
        for r, bands in geometry:
            for bi, (bname, _bh, _bw) in enumerate(bands):
                r_b = depth + _BAND_GAIN[bname]
                e, mu, dq = _quant_params(step, r_b)
                eps[sbno], mus[sbno], deltas[sbno] = e, mu, dq
                sbno += 1
        mb = [guard + e - 1 for e in eps]
        # quantize to int32 (sign-magnitude deadzone, saturate to Mb)
        per_comp = []
        for pf in per_f:
            by_res = []
            sbno = 0
            for r, bands in geometry:
                row = []
                for bi, (bname, _bh, _bw) in enumerate(bands):
                    a = pf[r][bi][1]
                    q = np.sign(a) * np.minimum(
                        np.floor(np.abs(a) / deltas[sbno]),
                        (1 << mb[sbno]) - 1)
                    row.append((bname, q.astype(np.int32)))
                    sbno += 1
                by_res.append(row)
            per_comp.append(by_res)

    # tier-1 encode every code-block
    # coded[c][r] = list over bands of list over blocks of
    #   (data, npasses, P) with P = Mb - nbps
    coded = []
    for pc in per_comp:
        by_res = []
        sbno = 0
        for r, bands in geometry:
            band_list = []
            for bi, (bname, bh, bw) in enumerate(bands):
                a = pc[r][bi][1]
                rects, ncbx, ncby = _blocks_of(bh, bw, cb)
                blocks = []
                for (y0, x0, rh, rw) in rects:
                    data, np_, nbps = t1_encode_block(
                        a[y0:y0 + rh, x0:x0 + rw], bname)
                    blocks.append((data, np_, mb[sbno] - nbps))
                band_list.append((blocks, ncbx, ncby))
                sbno += 1
            by_res.append(band_list)
        coded.append(by_res)

    # tier-2: LRCP packets (1 layer): r-major, then component
    packets = bytearray()
    for r in range(levels + 1):
        for c in range(len(comps)):
            bands = coded[c][r]
            incl_any = any(np_ > 0 for (blocks, _x, _y) in bands
                           for (_d, np_, _p) in blocks)
            bio = BioWriter()
            if not incl_any:
                bio.write(0, 1)
                packets += bio.flush()
                continue
            bio.write(1, 1)
            body = bytearray()
            for (blocks, ncbx, ncby) in bands:
                if not blocks:
                    continue
                itree = TagTree(ncbx, ncby)
                ztree = TagTree(ncbx, ncby)
                itree.set_values([0 if np_ > 0 else 1
                                  for (_d, np_, _p) in blocks])
                ztree.set_values([p if np_ > 0 else 0
                                  for (_d, np_, p) in blocks])
                lblock = [3] * len(blocks)
                for i, (data, np_, p) in enumerate(blocks):
                    itree.encode(bio, i, 1)
                    if np_ == 0:
                        continue
                    ztree.encode(bio, i, 1 << 20)  # fully resolve P
                    _npasses_codeword(bio, np_)
                    fl2 = np_.bit_length() - 1
                    need = max(1, len(data).bit_length())
                    inc = max(0, need - (lblock[i] + fl2))
                    bio.write((1 << inc) - 1, inc)  # inc ones
                    bio.write(0, 1)
                    lblock[i] += inc
                    bio.write(len(data), lblock[i] + fl2)
                    body += data
            packets += bio.flush()
            packets += body

    # markers
    out = bytearray()
    out += b"\xff\x4f"  # SOC
    siz = struct.pack(">HHIIIIIIIIH", 38 + 3 * len(comps), 0, w, h, 0, 0,
                      w, h, 0, 0, len(comps))
    for _ in comps:
        siz += struct.pack(">BBB", depth - 1, 1, 1)
    out += b"\xff\x51" + siz
    cod = struct.pack(">HBBHBBBBBB", 12, 0, 0, 1, 1 if use_mct else 0,
                      levels, cb.bit_length() - 3, cb.bit_length() - 3,
                      0, 1 if reversible else 0)
    out += b"\xff\x52" + cod
    if reversible:
        qcd = struct.pack(">HB", 3 + n_sb, (guard << 5) | 0)
        for e in eps:
            qcd += struct.pack(">B", e << 3)
    else:                            # scalar expounded (Sqcd = 2)
        qcd = struct.pack(">HB", 3 + 2 * n_sb, (guard << 5) | 2)
        for e, mu in zip(eps, mus):
            qcd += struct.pack(">H", (e << 11) | mu)
    out += b"\xff\x5c" + qcd
    psot = 12 + 2 + len(packets)
    out += b"\xff\x90" + struct.pack(">HHIBB", 10, 0, psot, 0, 1)
    out += b"\xff\x93" + packets
    out += b"\xff\xd9"  # EOC
    return bytes(out)


# ---------------------------------------------------------------------------
# Codestream decode.


def j2k_decode(data: bytes) -> np.ndarray:
    if data[:2] != b"\xff\x4f":
        raise ValueError("not a JPEG 2000 codestream (no SOC)")
    pos = 2
    w = h = nc = depth = None
    levels = cb = None
    use_mct = False
    reversible = True
    guard, eps, mus = 2, [], None
    while True:
        marker = data[pos:pos + 2]
        pos += 2
        if marker == b"\xff\x93":  # SOD
            break
        ln = struct.unpack_from(">H", data, pos)[0]
        seg = data[pos + 2: pos + ln]
        if marker == b"\xff\x51":  # SIZ
            (_r, w, h, _xo, _yo, _tw, _th, _txo, _tyo,
             nc) = struct.unpack_from(">HIIIIIIIIH", seg, 0)
            depth = (seg[36] & 0x7F) + 1
        elif marker == b"\xff\x52":  # COD
            scod = seg[0]
            if scod & 1:
                raise NotImplementedError("explicit precincts unsupported")
            _prog, _nl, mct = struct.unpack_from(">BHB", seg, 1)
            use_mct = mct == 1
            levels = seg[5]
            cb = 1 << (seg[6] + 2)
            if seg[9] not in (0, 1):
                raise NotImplementedError("unknown wavelet transform")
            reversible = seg[9] == 1
        elif marker == b"\xff\x5c":  # QCD
            sqcd = seg[0]
            guard = sqcd >> 5
            qstyle = sqcd & 0x1F
            if qstyle == 0:          # no quantization (reversible)
                eps = [b >> 3 for b in seg[1:]]
                mus = None
            elif qstyle == 2:        # scalar expounded (irreversible)
                vals = struct.unpack(f">{(len(seg) - 1) // 2}H", seg[1:])
                eps = [v >> 11 for v in vals]
                mus = [v & 0x7FF for v in vals]
            else:
                raise NotImplementedError("scalar-derived QCD")
        pos += ln
    geometry = _band_geometry(h, w, levels)
    mb = [guard + e - 1 for e in eps]

    comps = [dict() for _ in range(nc)]  # (r, band) -> coefficient array
    # packets in LRCP order
    for r in range(levels + 1):
        bands_geom = geometry[r][1]
        for c in range(nc):
            bio = BioReader(data, pos)
            if bio.read(1) == 0:
                pos = bio.align()
                for bi, (bname, bh, bw) in enumerate(bands_geom):
                    comps[c][(r, bname)] = np.zeros((bh, bw), np.int32)
                continue
            sb_base = 0 if r == 0 else 1 + 3 * (r - 1)
            todo = []  # (band index, block rect, npasses, nbps, length)
            for bi, (bname, bh, bw) in enumerate(bands_geom):
                rects, ncbx, ncby = _blocks_of(bh, bw, cb)
                if not rects:
                    continue
                itree = _DecTagTree(ncbx, ncby)
                ztree = _DecTagTree(ncbx, ncby)
                lblock = [3] * len(rects)
                for i, rect in enumerate(rects):
                    if not itree.decode(bio, i, 1):
                        todo.append((bi, rect, 0, 0, 0))
                        continue
                    p = 1
                    while not ztree.decode(bio, i, p):
                        p += 1
                    p -= 1
                    np_ = _read_npasses(bio)
                    inc = 0
                    while bio.read(1):
                        inc += 1
                    lblock[i] += inc
                    fl2 = np_.bit_length() - 1
                    ln = bio.read(lblock[i] + fl2)
                    nbps = mb[sb_base + bi] - p
                    todo.append((bi, rect, np_, nbps, ln))
            pos = bio.align()
            for bi, (bname, bh, bw) in enumerate(bands_geom):
                if (r, bname) not in comps[c]:
                    comps[c][(r, bname)] = np.zeros((bh, bw), np.int32)
            for (bi, (y0, x0, rh, rw), np_, nbps, ln) in todo:
                bname = bands_geom[bi][0]
                arr = comps[c][(r, bname)]
                if np_ > 0:
                    blk = t1_decode_block(data[pos:pos + ln], rw, rh,
                                          np_, nbps, bname)
                    arr[y0:y0 + rh, x0:x0 + rw] = blk
                pos += ln

    # dequantize (irreversible) + inverse DWT per component
    if not reversible:
        geometry_flat = []
        for r, bands in geometry:
            for (bname, _bh, _bw) in bands:
                geometry_flat.append((r, bname))
        deltas = {}
        for sbno, (r, bname) in enumerate(geometry_flat):
            r_b = depth + _BAND_GAIN[bname]
            deltas[(r, bname)] = (2.0 ** (r_b - eps[sbno])
                                  * (1.0 + (mus[sbno] if mus else 0)
                                     / 2048.0))
        for c in range(nc):
            for key, q in comps[c].items():
                d = deltas[key]
                comps[c][key] = np.where(
                    q == 0, 0.0,
                    np.sign(q) * (np.abs(q) + 0.5) * d)
    planes = []
    for c in range(nc):
        ll = comps[c][(0, "LL")]
        details = []
        for r in range(1, levels + 1):
            details.append((comps[c][(r, "HL")], comps[c][(r, "LH")],
                            comps[c][(r, "HH")]))
        details.reverse()  # stage 1 (finest) first, as forward emits
        planes.append(dwt53_inverse(ll, details) if reversible
                      else dwt97_inverse(ll, details))
    if use_mct and nc == 3:
        if reversible:
            r_, g_, b_ = rct_inverse(planes[0], planes[1], planes[2])
        else:
            r_, g_, b_ = ict_inverse(planes[0], planes[1], planes[2])
        planes = [r_, g_, b_]
    shift = 1 << (depth - 1)
    dt = np.uint8 if depth <= 8 else np.uint16
    lim = (1 << depth) - 1
    if reversible:
        out = np.stack([(p + shift).astype(dt) for p in planes], axis=-1)
    else:
        out = np.stack([np.clip(np.round(p + shift), 0, lim).astype(dt)
                        for p in planes], axis=-1)
    return out[..., 0] if nc == 1 else out


# ---------------------------------------------------------------------------
# JP2 container — I.4/I.5 boxes around the codestream.


def _box(btype: bytes, payload: bytes) -> bytes:
    return struct.pack(">I", 8 + len(payload)) + btype + payload


_JP2_SIG = bytes([0, 0, 0, 12]) + b"jP  " + bytes([0x0D, 0x0A, 0x87, 0x0A])


def jp2_encode(arr: np.ndarray, levels: int | None = None,
               cb: int = 64, reversible: bool = True,
               step: float = 1.0) -> bytes:
    code = j2k_encode(arr, levels=levels, cb=cb, reversible=reversible,
                      step=step)
    nc = 1 if arr.ndim == 2 else arr.shape[2]
    depth = 8 if arr.dtype == np.uint8 else 16
    h, w = arr.shape[:2]
    ihdr = struct.pack(">IIHBBBB", h, w, nc, depth - 1, 7, 0, 0)
    colr = struct.pack(">BBBI", 1, 0, 0, 16 if nc == 3 else 17)
    jp2h = _box(b"ihdr", ihdr) + _box(b"colr", colr)
    return (_JP2_SIG + _box(b"ftyp", b"jp2 " + b"\0\0\0\0" + b"jp2 ")
            + _box(b"jp2h", jp2h) + _box(b"jp2c", code))


def jp2_decode(data: bytes) -> np.ndarray:
    if data[:2] == b"\xff\x4f":
        return j2k_decode(data)
    if data[:12] != _JP2_SIG:
        raise ValueError("not a JP2 file")
    pos = 12
    while pos < len(data):
        ln, btype = struct.unpack_from(">I4s", data, pos)
        if btype == b"jp2c":
            end = len(data) if ln == 0 else pos + ln
            return j2k_decode(data[pos + 8:end])
        if ln == 1:  # XLbox
            ln = struct.unpack_from(">Q", data, pos + 8)[0]
        pos += ln if ln else len(data)
    raise ValueError("no jp2c codestream box found")
