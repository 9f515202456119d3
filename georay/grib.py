"""GRIB2 raster driver (WMO FM 92 GRIB Edition 2), from scratch.

Reference scope: the reference engine reads GRIB via frmts/grib/
(degrib + g2clib wrappers); this module implements the on-wire format
directly from the public WMO specification for the subset a
data-processing engine needs:

  * Section 0  Indicator ("GRIB", discipline, edition 2, total length)
  * Section 1  Identification (centre, reference time, ...)
  * Section 3  Grid definition template 3.0 — regular latitude/
               longitude grid (Ni×Nj, first/last points and increments
               in microdegrees, scanning mode)
  * Section 4  Product definition template 4.0 — analysis/forecast at
               a horizontal level (parameter category/number, forecast
               time, fixed surface)
  * Section 5  Data representation template 5.0 — SIMPLE PACKING:
               Y = (R + X·2^E) / 10^D with X an nbits-wide unsigned
               integer, R an IEEE float32 reference, E/D
               sign-and-magnitude int16
  * Section 6  Bitmap (indicator 255 = none, or an explicit bitmap for
               missing values)
  * Section 7  packed big-endian bit stream
  * Section 8  "7777" trailer

One FIELD per message (the band = message model); a file is a
concatenation of messages.  Multi-field messages (repeated sections
3-7) are honestly gated with NotImplementedError; complex/JPEG2000
packing (templates 5.2/5.40) likewise — template 5.40 needs a JPEG2000
codec per message, available via georay.jp2 but out of scope here.

Bit packing is fully vectorized: np.unpackbits → (N, nbits) reshape →
powers-of-two dot product on read; the mirror packbits on write.
Negative integers in GRIB are SIGN-AND-MAGNITUDE (MSB = sign), not
two's-complement — `_s16`/`_u16s` handle the conversion.

Scale shape: `scan_grib(path)` walks Section-0 lengths driver-side
(bytes proportional to message COUNT); `read_grib_dataset` decodes each
message in its own Ray task (worker-local range read).  Exactness: with
D decimal digits and E=0 the packing is exact for values that are
multiples of 10^-D within the bit width — integer grids roundtrip
bit-exactly, which the SQL-oracle query relies on.
"""
from __future__ import annotations

import os
import struct

import numpy as np
import pyarrow as pa

from .util import read_units, staged

__all__ = [
    "write_grib", "scan_grib", "read_grib_message", "read_grib",
    "read_grib_dataset",
]

_EARTH_RADIUS = 6371229.0      # shape of earth 6 (spherical, meters)


def _s_mag(v: int, nbytes: int) -> bytes:
    """Signed int → GRIB sign-and-magnitude big-endian (MSB = sign)."""
    m = abs(int(v))
    if m >> (nbytes * 8 - 1):
        raise ValueError(f"magnitude {m} overflows {nbytes} bytes")
    out = m.to_bytes(nbytes, "big")
    return bytes([out[0] | (0x80 if v < 0 else 0)]) + out[1:]


def _from_s_mag(b: bytes) -> int:
    sign = -1 if b[0] & 0x80 else 1
    m = int.from_bytes(bytes([b[0] & 0x7F]) + b[1:], "big")
    return sign * m


def _pack_bits(x: np.ndarray, nbits: int) -> bytes:
    """Unsigned ints (any dtype) → big-endian nbits-wide bit stream."""
    if nbits == 0:
        return b""
    x = x.astype(np.uint64, copy=False).ravel()
    shifts = np.arange(nbits - 1, -1, -1, dtype=np.uint64)
    bits = ((x[:, None] >> shifts[None, :]) & np.uint64(1)).astype(
        np.uint8)
    return np.packbits(bits.ravel()).tobytes()


def _unpack_bits(buf: bytes, n: int, nbits: int) -> np.ndarray:
    if nbits == 0:
        return np.zeros(n, np.int64)
    bits = np.unpackbits(np.frombuffer(buf, np.uint8),
                         count=n * nbits).reshape(n, nbits)
    w = (1 << np.arange(nbits - 1, -1, -1, dtype=np.int64))
    return bits.astype(np.int64) @ w

# --------------------------------------------------------------- write


def _sec(number: int, body: bytes) -> bytes:
    return struct.pack(">IB", 4 + 1 + len(body), number) + body


def write_grib(path: str, fields, *, lat0: float, lon0: float,
               dlat: float, dlon: float, decimal_scale: int = 0,
               discipline: int = 0, category: int = 3, parameter: int = 5,
               ref_time=(2000, 1, 1, 0, 0, 0)) -> dict:
    """Write 2-D float/int arrays as one GRIB2 message each.

    ``fields``: iterable of 2-D arrays (or one 3-D array — first axis =
    message).  Grid: regular lat/lon, first point (lat0, lon0) at the
    NORTH-WEST corner, scanning +i west→east / -j north→south (mode 0),
    increments ``dlat``/``dlon`` in degrees.  Simple packing with
    ``decimal_scale`` digits (D), E=0, minimal bit width; NaNs become a
    Section-6 bitmap."""
    if isinstance(fields, np.ndarray) and fields.ndim == 3:
        fields = list(fields)
    msgs = []
    y, mo, d, h, mi, s = ref_time
    for arr in fields:
        a = np.asarray(arr, dtype=np.float64)
        if a.ndim != 2:
            raise ValueError("each GRIB field must be 2-D")
        nj, ni = a.shape
        npts = ni * nj
        mask = np.isnan(a)
        has_bitmap = bool(mask.any())
        vals = a[~mask] if has_bitmap else a.ravel()
        # simple packing: X = round(v·10^D) - R0, R = R0 (E = 0)
        scaled = np.round(vals * (10.0 ** decimal_scale))
        # R is stored as float32 in Section 5 ('>f'): quantize the
        # reference through float32 BEFORE computing offsets, else every
        # decoded value shifts by r0 - float32(r0) when |min| >= 2^24.
        # If float32 rounding lands ABOVE the true minimum, step down to
        # the next representable float32 so X stays non-negative.
        if scaled.size:
            true_min = float(scaled.min())
            r0 = float(np.float32(true_min))
            if r0 > true_min:
                r0 = float(np.nextafter(np.float32(r0), np.float32("-inf")))
        else:
            r0 = 0.0
        x = np.round(scaled - r0).astype(np.uint64) if scaled.size else \
            np.zeros(0, np.uint64)
        span = int(x.max()) if x.size else 0
        nbits = max(span.bit_length(), 1) if span else 0
        sec1 = _sec(1, struct.pack(">HHBBBHBBBBBBB",
                                   255, 255, 2, 1, 0,
                                   y, mo, d, h, mi, s, 0, 1))
        tmpl3 = (bytes([6]) + b"\x00" * 5 + b"\xff" + b"\xff" * 4
                 + b"\xff" + b"\xff" * 4
                 + struct.pack(">II", ni, nj)
                 + b"\x00" * 8
                 + _s_mag(round(lat0 * 1e6), 4)
                 + _s_mag(round(lon0 * 1e6) % 360_000_000, 4)
                 + bytes([0x30])
                 + _s_mag(round((lat0 - dlat * (nj - 1)) * 1e6), 4)
                 + _s_mag(round((lon0 + dlon * (ni - 1)) * 1e6)
                          % 360_000_000, 4)
                 + struct.pack(">II", round(dlon * 1e6),
                               round(dlat * 1e6))
                 + bytes([0x00]))     # scanning mode 0: +i, -j
        sec3 = _sec(3, struct.pack(">BIBBH", 0, npts, 0, 0, 0) + tmpl3)
        tmpl4 = (bytes([category, parameter, 0, 255, 255])
                 + struct.pack(">H", 0) + bytes([255, 1])
                 + struct.pack(">I", 0)
                 + bytes([1, 0]) + struct.pack(">I", 0)
                 + bytes([255, 255]) + b"\xff\xff\xff\xff")
        sec4 = _sec(4, struct.pack(">HH", 0, 0) + tmpl4)
        sec5 = _sec(5, struct.pack(">IH", len(vals), 0)
                    + struct.pack(">f", r0)
                    + _s_mag(0, 2)
                    + _s_mag(decimal_scale, 2)
                    + bytes([nbits, 0]))
        if has_bitmap:
            bm = np.packbits(~mask.ravel()).tobytes()
            sec6 = _sec(6, bytes([0]) + bm)
        else:
            sec6 = _sec(6, bytes([255]))
        sec7 = _sec(7, _pack_bits(x, nbits))
        body = sec1 + sec3 + sec4 + sec5 + sec6 + sec7
        total = 16 + len(body) + 4
        sec0 = (b"GRIB" + b"\x00\x00" + bytes([discipline, 2])
                + struct.pack(">Q", total))
        msgs.append(sec0 + body + b"7777")
    with staged(path) as tmp, open(tmp, "wb") as f:
        for m in msgs:
            f.write(m)
    return {"messages": len(msgs), "bytes": sum(len(m) for m in msgs)}

# ---------------------------------------------------------------- read


def scan_grib(path: str) -> list[dict]:
    """Driver-side index: [(offset, length, discipline)] per message —
    reads only the 16-byte Section 0 headers."""
    out = []
    size = os.path.getsize(path)
    with open(path, "rb") as f:
        off = 0
        while off < size:
            f.seek(off)
            head = f.read(16)
            if len(head) < 16 or head[:4] != b"GRIB":
                raise ValueError(f"bad GRIB indicator at offset {off}")
            if head[7] != 2:
                raise NotImplementedError(
                    f"GRIB edition {head[7]} (only 2)")
            total = struct.unpack(">Q", head[8:16])[0]
            out.append({"offset": off, "length": total,
                        "discipline": head[6]})
            off += total
    return out


def read_grib_message(path: str, offset: int = 0):
    """One message → (2-D float64 array [NaN where bitmapped-out],
    meta dict with lat0/lon0/dlat/dlon/ni/nj/category/parameter)."""
    with open(path, "rb") as f:
        f.seek(offset)
        head = f.read(16)
        if head[:4] != b"GRIB" or head[7] != 2:
            raise ValueError("not a GRIB2 message")
        total = struct.unpack(">Q", head[8:16])[0]
        buf = head + f.read(total - 16)
    i = 16
    secs = {}
    while i < total - 4:
        ln, num = struct.unpack(">IB", buf[i:i + 5])
        if num in secs and num >= 3:
            raise NotImplementedError(
                "multi-field GRIB message (repeated sections)")
        secs[num] = buf[i + 5:i + ln]
        i += ln
    if buf[total - 4:total] != b"7777":
        raise ValueError("missing 7777 trailer")
    # --- grid (section 3, template 3.0) ---
    s3 = secs[3]
    tmpl_no = struct.unpack(">H", s3[7:9])[0]
    if tmpl_no != 0:
        raise NotImplementedError(f"grid template 3.{tmpl_no} "
                                  "(only 3.0 lat/lon)")
    t = s3[9:]
    ni, nj = struct.unpack(">II", t[16:24])
    la1 = _from_s_mag(t[32:36]) / 1e6
    lo1 = _from_s_mag(t[36:40]) / 1e6
    if lo1 > 180.0:            # GRIB stores 0..360 east; normalize
        lo1 -= 360.0
    di = struct.unpack(">I", t[49:53])[0] / 1e6
    dj = struct.unpack(">I", t[53:57])[0] / 1e6
    scan = t[57]
    if scan & 0x20:
        raise NotImplementedError("j-consecutive scanning")
    # --- product (section 4) ---
    s4 = secs[4]
    category, parameter = s4[4], s4[5]
    # --- representation (section 5, template 5.0) ---
    s5 = secs[5]
    ndata = struct.unpack(">I", s5[0:4])[0]
    rep_no = struct.unpack(">H", s5[4:6])[0]
    if rep_no != 0:
        raise NotImplementedError(f"data template 5.{rep_no} "
                                  "(only 5.0 simple packing)")
    r0 = struct.unpack(">f", s5[6:10])[0]
    e = _from_s_mag(s5[10:12])
    d = _from_s_mag(s5[12:14])
    nbits = s5[14]
    # --- bitmap (section 6) ---
    s6 = secs[6]
    bitmap = None
    if s6[0] == 0:
        bitmap = np.unpackbits(np.frombuffer(s6[1:], np.uint8),
                               count=ni * nj).astype(bool)
    elif s6[0] != 255:
        raise NotImplementedError(f"bitmap indicator {s6[0]}")
    # --- data (section 7) ---
    x = _unpack_bits(secs[7], ndata, nbits)
    vals = (r0 + x * (2.0 ** e)) / (10.0 ** d)
    if bitmap is not None:
        full = np.full(ni * nj, np.nan)
        full[bitmap] = vals
        vals = full
    a = vals.reshape(nj, ni)
    jpos = bool(scan & 0x40)
    if jpos:                   # south→north rows: normalize to north-up
        a = a[::-1]
        la1 = la1 + dj * (nj - 1)
    meta = {"lat0": la1, "lon0": lo1, "dlat": dj, "dlon": di,
            "ni": ni, "nj": nj, "category": category,
            "parameter": parameter}
    return a, meta


def read_grib(path: str):
    """All messages of a file → [(array, meta)] (driver-side)."""
    return [read_grib_message(path, m["offset"]) for m in scan_grib(path)]


def _grib_message(unit: dict) -> pa.Table:
    """One decoded message as one row."""
    a, meta = read_grib_message(unit["path"], unit["offset"])
    return pa.table({
        "message": pa.array([unit["message"]], pa.int32()),
        "lat0": [meta["lat0"]], "lon0": [meta["lon0"]],
        "dlat": [meta["dlat"]], "dlon": [meta["dlon"]],
        "ni": pa.array([meta["ni"]], pa.int32()),
        "nj": pa.array([meta["nj"]], pa.int32()),
        "data": pa.array([a.ravel().tolist()], pa.list_(pa.float64())),
    })


def read_grib_dataset(path: str):
    """GRIB file → ray.data.Dataset, one decode task per message; rows
    (message, row0, lat0, lon0, dlat, dlon, data=list<float64> flat,
    ni, nj) — the raster-pipeline tile unit shape."""
    return read_units([{"path": path, "message": k, "offset": m["offset"]}
                       for k, m in enumerate(scan_grib(path))],
                      _grib_message)
