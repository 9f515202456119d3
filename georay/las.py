"""ASPRS LAS point-cloud driver (LAS 1.2), from scratch.

The lidar modality of the engine's geospatial surface (reference
ecosystem: PDAL/libLAS sit beside GDAL; OGR has no LAS driver — this
fills that gap on the Ray side).  Implemented directly from the public
ASPRS LAS 1.2 specification:

  * 227-byte public header block ("LASF" signature, version, header
    size, offset to point data, point format id + record length, point
    count, per-axis scale + offset, min/max extents);
  * point record formats 0-3 as numpy STRUCTURED DTYPES —
      0: x,y,z (scaled int32) + intensity + flag byte +
         classification + scan angle + user data + point source id
      1: format 0 + float64 GPS time
      2: format 0 + uint16 r,g,b
      3: format 1 + uint16 r,g,b
  * coordinates quantize as  int32 = round((value - offset) / scale)
    and reconstruct exactly when written with the same scale/offset.

Fixed-size records make the file PERFECTLY range-splittable: the Ray
source plans (start_point, n_points) units driver-side from the header
alone and each task seeks straight to ``offset + start*reclen`` — the
same scan-unit shape as the lance row-range reader.  Decode is one
``np.frombuffer`` with a structured dtype (zero Python per point).

VLRs (variable-length records, e.g. GeoTIFF CRS keys) are preserved as
an opaque byte region on read and omitted on write (documented; CRS
handling in this engine is the georay.mercator registry).  LAZ
compression needs an arithmetic coder per chunk — honestly out of
scope like opus/h264.
"""
from __future__ import annotations

import struct

import numpy as np
import pyarrow as pa

from .util import read_units, staged

__all__ = ["write_las", "read_las", "read_las_dataset", "las_header"]

_SIG = b"LASF"
_HDR_LEN = 227

_BASE = [("xi", "<i4"), ("yi", "<i4"), ("zi", "<i4"),
         ("intensity", "<u2"), ("flags", "u1"),
         ("classification", "u1"), ("scan_angle", "i1"),
         ("user_data", "u1"), ("point_source_id", "<u2")]
_GPS = [("gps_time", "<f8")]
_RGB = [("red", "<u2"), ("green", "<u2"), ("blue", "<u2")]

_FORMATS = {0: _BASE, 1: _BASE + _GPS, 2: _BASE + _RGB,
            3: _BASE + _GPS + _RGB}
_REC_LEN = {0: 20, 1: 28, 2: 26, 3: 34}


def _dtype(fmt: int) -> np.dtype:
    return np.dtype(_FORMATS[fmt])


def las_header(path: str) -> dict:
    with open(path, "rb") as f:
        raw = f.read(_HDR_LEN)
    if raw[:4] != _SIG[:len(raw)]:
        raise ValueError("not a LAS file (bad signature)")
    if len(raw) < _HDR_LEN:
        raise ValueError(f"truncated las at byte {len(raw)}")
    ver_major, ver_minor = raw[24], raw[25]
    hdr_size, data_off = struct.unpack_from("<HI", raw, 94)
    n_vlr = struct.unpack_from("<I", raw, 100)[0]
    fmt = raw[104]
    reclen = struct.unpack_from("<H", raw, 105)[0]
    n_points = struct.unpack_from("<I", raw, 107)[0]
    sx, sy, sz, ox, oy, oz = struct.unpack_from("<6d", raw, 131)
    maxx, minx, maxy, miny, maxz, minz = struct.unpack_from(
        "<6d", raw, 179)
    if fmt not in _FORMATS:
        raise NotImplementedError(f"LAS point format {fmt} (0-3 only)")
    if reclen != _REC_LEN[fmt]:
        raise NotImplementedError(
            f"extra per-point bytes (reclen {reclen} != {_REC_LEN[fmt]})")
    return {"version": (ver_major, ver_minor), "format": fmt,
            "reclen": reclen, "n_points": n_points,
            "data_offset": data_off, "n_vlr": n_vlr,
            "scale": (sx, sy, sz), "offset": (ox, oy, oz),
            "min": (minx, miny, minz), "max": (maxx, maxy, maxz)}


def _decode(raw: bytes, hdr: dict) -> pa.Table:
    pts = np.frombuffer(raw, _dtype(hdr["format"]))
    sx, sy, sz = hdr["scale"]
    ox, oy, oz = hdr["offset"]
    cols = {
        "x": pa.array(pts["xi"] * sx + ox),
        "y": pa.array(pts["yi"] * sy + oy),
        "z": pa.array(pts["zi"] * sz + oz),
        "intensity": pa.array(pts["intensity"].astype(np.int32)),
        "classification": pa.array(
            pts["classification"].astype(np.int32)),
    }
    if hdr["format"] in (1, 3):
        cols["gps_time"] = pa.array(pts["gps_time"])
    if hdr["format"] in (2, 3):
        for c in ("red", "green", "blue"):
            cols[c] = pa.array(pts[c].astype(np.int32))
    return pa.table(cols)


def read_las(path: str, *, start: int = 0,
             n_points: int | None = None) -> pa.Table:
    """Driver-side read of a point range (default: all points) →
    columns x/y/z (float64, de-quantized) + intensity/classification
    (+ gps_time, r/g/b per the format)."""
    hdr = las_header(path)
    n = hdr["n_points"] - start if n_points is None else n_points
    n = max(0, min(n, hdr["n_points"] - start))
    with open(path, "rb") as f:
        f.seek(hdr["data_offset"] + start * hdr["reclen"])
        raw = f.read(n * hdr["reclen"])
        if len(raw) < n * hdr["reclen"]:
            raise ValueError(f"truncated las at byte {f.tell()}")
    return _decode(raw, hdr)


def _las_points(unit: dict) -> pa.Table:
    """One (start, n) point range."""
    return read_las(unit["path"], start=unit["start"], n_points=unit["n"])


def read_las_dataset(path: str, *, target_points: int = 1 << 20):
    """LAS file → ray.data.Dataset: (start, n) point-range units planned
    from the 227-byte header only; one seek + one structured-dtype
    frombuffer per task."""
    total = las_header(path)["n_points"]
    return read_units([{"path": path, "start": s,
                        "n": min(target_points, total - s)}
                       for s in range(0, total, target_points)], _las_points)


def write_las(table, path: str, *, point_format: int = 0,
              scale=(0.001, 0.001, 0.001), offset=None) -> dict:
    """pa.Table | Ray Dataset (columns x, y, z [+ intensity,
    classification, gps_time, red/green/blue]) → one LAS 1.2 file.
    Coordinates quantize to int32 with ``scale``/``offset`` (offset
    defaults to the per-axis minimum, so 32-bit range covers the
    extent).  A Ray Dataset is drained through iter_batches — LAS is a
    single sequential file by construction; use one file per partition
    for parallel output (the partitioned-sink pattern)."""
    if point_format not in _FORMATS:
        raise NotImplementedError(f"point format {point_format}")
    if not isinstance(table, pa.Table):
        table = pa.concat_tables(list(table.iter_batches(
            batch_size=1 << 20, batch_format="pyarrow")))
    x = table["x"].to_numpy(zero_copy_only=False).astype(np.float64)
    y = table["y"].to_numpy(zero_copy_only=False).astype(np.float64)
    z = table["z"].to_numpy(zero_copy_only=False).astype(np.float64)
    n = len(x)
    sx, sy, sz = scale
    if offset is None:
        offset = (float(x.min()) if n else 0.0,
                  float(y.min()) if n else 0.0,
                  float(z.min()) if n else 0.0)
    ox, oy, oz = offset

    def q(v, s, o):
        iv = np.round((v - o) / s)
        if n and (iv.max() > 2**31 - 1 or iv.min() < -(2**31)):
            raise ValueError("extent overflows int32 at this scale")
        return iv.astype(np.int32)

    pts = np.zeros(n, _dtype(point_format))
    pts["xi"], pts["yi"], pts["zi"] = q(x, sx, ox), q(y, sy, oy), \
        q(z, sz, oz)

    def opt(name, dt):
        if name in table.column_names:
            pts[name] = table[name].to_numpy(
                zero_copy_only=False).astype(dt)

    opt("intensity", np.uint16)
    opt("classification", np.uint8)
    if point_format in (1, 3):
        opt("gps_time", np.float64)
    if point_format in (2, 3):
        for c in ("red", "green", "blue"):
            opt(c, np.uint16)

    hdr = bytearray(_HDR_LEN)
    hdr[0:4] = _SIG
    hdr[24], hdr[25] = 1, 2                      # version 1.2
    struct.pack_into("<HI", hdr, 94, _HDR_LEN, _HDR_LEN)
    struct.pack_into("<I", hdr, 100, 0)          # no VLRs
    hdr[104] = point_format
    struct.pack_into("<H", hdr, 105, _REC_LEN[point_format])
    struct.pack_into("<I", hdr, 107, n)
    # points-by-return[5]: all first-return (legacy field)
    struct.pack_into("<I", hdr, 111, n)
    struct.pack_into("<6d", hdr, 131, sx, sy, sz, ox, oy, oz)
    struct.pack_into("<6d", hdr, 179,
                     float(x.max()) if n else 0.0,
                     float(x.min()) if n else 0.0,
                     float(y.max()) if n else 0.0,
                     float(y.min()) if n else 0.0,
                     float(z.max()) if n else 0.0,
                     float(z.min()) if n else 0.0)
    with staged(path) as tmp, open(tmp, "wb") as f:
        f.write(bytes(hdr))
        f.write(pts.tobytes())
    return {"n_points": n, "format": point_format,
            "bytes": _HDR_LEN + n * _REC_LEN[point_format]}
