"""WKT ⇄ WKB conversion — the ``OGRGeometry::importFromWkt`` /
``exportToWkt`` surface (ogr/ogrgeometry.cpp; format per OGC 06-103r4)
for the geometry types the engine models: POINT, LINESTRING, POLYGON,
MULTIPOINT, MULTILINESTRING, MULTIPOLYGON, CIRCULARSTRING,
GEOMETRYCOLLECTION, and EMPTY variants.

Numbers format with ``repr(float)`` shortest-roundtrip (WKT→WKB→WKT is
value-exact); parsing accepts arbitrary whitespace and nested-paren
forms.  Batch helpers convert whole Arrow columns for ``map_batches``
use (``wkt_column_to_wkb`` / ``wkb_column_to_wkt``).
"""

from __future__ import annotations

import re
import struct

import numpy as np

from .geom import read_wkb

__all__ = ["wkt_to_wkb", "wkb_to_wkt", "wkt_column_to_wkb",
           "wkb_column_to_wkt"]

_TYPES = {"POINT": 1, "LINESTRING": 2, "POLYGON": 3, "MULTIPOINT": 4,
          "MULTILINESTRING": 5, "MULTIPOLYGON": 6,
          "GEOMETRYCOLLECTION": 7, "CIRCULARSTRING": 8}
_NAMES = {v: k for k, v in _TYPES.items()}

_TOKEN = re.compile(r"\s*([A-Za-z]+|\(|\)|,|[-+0-9.eE]+)")


def _tokens(s: str):
    pos, out = 0, []
    while pos < len(s):
        m = _TOKEN.match(s, pos)
        if not m:
            if s[pos:].strip():
                raise ValueError(f"bad WKT at {s[pos:pos+20]!r}")
            break
        out.append(m.group(1))
        pos = m.end()
    return out


class _P:
    def __init__(self, toks):
        self.t = toks
        self.i = 0

    def peek(self):
        return self.t[self.i] if self.i < len(self.t) else None

    def next(self):
        v = self.peek()
        if v is None:
            raise ValueError("unexpected end of WKT")
        self.i += 1
        return v

    def expect(self, v):
        got = self.next()
        if got != v:
            raise ValueError(f"expected {v!r}, got {got!r}")


def _coords(p: _P) -> np.ndarray:
    """'( x y, x y, ... )' → (n,2); extra ordinates (Z/M) dropped."""
    p.expect("(")
    pts = []
    while True:
        nums = []
        while p.peek() not in (",", ")"):
            nums.append(float(p.next()))
        if len(nums) < 2:
            raise ValueError("WKT coordinate needs at least x y")
        pts.append(nums[:2])
        if p.next() == ")":
            break
    return np.asarray(pts, dtype=np.float64)


def _ring_list(p: _P):
    p.expect("(")
    rings = []
    while True:
        rings.append(_coords(p))
        if p.next() == ")":
            break
    return rings


def _parse_geom(p: _P) -> bytes:
    name = p.next().upper()
    zm = ""
    while p.peek() and p.peek().upper() in ("Z", "M", "ZM", "EMPTY"):
        zm = p.next().upper()
        if zm != "EMPTY":
            raise ValueError("WKT Z/M variants are not supported "
                             "(engine geometry model is 2-D)")
        break
    t = _TYPES.get(name)
    if t is None:
        raise ValueError(f"unknown WKT type {name!r}")
    if zm == "EMPTY":
        if t == 1:   # POINT EMPTY → NaN NaN per OGR convention
            return struct.pack("<BIdd", 1, 1, float("nan"), float("nan"))
        return struct.pack("<BII", 1, t, 0)
    if t == 1:
        pts = _coords(p)
        return struct.pack("<BIdd", 1, 1, pts[0, 0], pts[0, 1])
    if t in (2, 8):
        pts = _coords(p)
        return (struct.pack("<BII", 1, t, len(pts))
                + pts.astype("<f8").tobytes())
    if t == 3:
        rings = _ring_list(p)
        out = [struct.pack("<BII", 1, 3, len(rings))]
        for r in rings:
            out.append(struct.pack("<I", len(r)))
            out.append(r.astype("<f8").tobytes())
        return b"".join(out)
    if t == 4:      # MULTIPOINT (x y, x y) or ((x y), (x y))
        p.expect("(")
        parts = []
        while True:
            if p.peek() == "(":
                pts = _coords(p)
                parts.append(struct.pack("<BIdd", 1, 1,
                                         pts[0, 0], pts[0, 1]))
                nxt = p.next()
            else:
                nums = []
                while p.peek() not in (",", ")"):
                    nums.append(float(p.next()))
                parts.append(struct.pack("<BIdd", 1, 1, nums[0], nums[1]))
                nxt = p.next()
            if nxt == ")":
                break
        return (struct.pack("<BII", 1, 4, len(parts)) + b"".join(parts))
    if t == 5:
        lines = _ring_list(p)
        parts = [struct.pack("<BII", 1, 2, len(ln))
                 + ln.astype("<f8").tobytes() for ln in lines]
        return struct.pack("<BII", 1, 5, len(parts)) + b"".join(parts)
    if t == 6:
        p.expect("(")
        polys = []
        while True:
            rings = _ring_list(p)
            out = [struct.pack("<BII", 1, 3, len(rings))]
            for r in rings:
                out.append(struct.pack("<I", len(r)))
                out.append(r.astype("<f8").tobytes())
            polys.append(b"".join(out))
            if p.next() == ")":
                break
        return struct.pack("<BII", 1, 6, len(polys)) + b"".join(polys)
    if t == 7:
        p.expect("(")
        parts = []
        while True:
            parts.append(_parse_geom(p))
            if p.next() == ")":
                break
        return struct.pack("<BII", 1, 7, len(parts)) + b"".join(parts)
    raise ValueError(name)


def wkt_to_wkb(wkt: str) -> bytes:
    """Parse a WKT string to little-endian WKB."""
    p = _P(_tokens(wkt))
    out = _parse_geom(p)
    if p.peek() is not None:
        raise ValueError(f"trailing WKT tokens: {p.peek()!r}")
    return out


def _fmt(v: float) -> str:
    if v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return repr(v)


def _fmt_pts(pts) -> str:
    return ", ".join(f"{_fmt(x)} {_fmt(y)}" for x, y in pts)


def _emit(node) -> str:
    t, dims, data = node
    if dims != 2:
        raise ValueError("WKT export supports 2-D geometries")
    name = _NAMES.get(t)
    if name is None:
        raise ValueError(f"unsupported WKB type {t}")
    if t == 1:
        x, y = data[0].tolist()
        if np.isnan(x) and np.isnan(y):
            return "POINT EMPTY"
        return f"POINT ({_fmt(x)} {_fmt(y)})"
    if len(data) == 0:
        return f"{name} EMPTY"
    if t in (2, 8):
        return f"{name} ({_fmt_pts(data.tolist())})"
    if t == 3:
        rings = ", ".join(f"({_fmt_pts(r.tolist())})" for r in data)
        return f"POLYGON ({rings})"
    parts = [_emit(m) for m in data]
    if t in (4, 5, 6):                       # strip member type names
        parts = [p.split(" ", 1)[1] for p in parts]
    return f"{name} ({', '.join(parts)})"


def wkb_to_wkt(buf: bytes) -> str:
    """Format WKB as a WKT string (OGR exportToWkt layout: one space
    after the type name, ', ' between members)."""
    return _emit(read_wkb(buf))


def wkt_column_to_wkb(batch, wkt_col: str, wkb_col: str = "wkb"):
    """Arrow batch helper: append a WKB column parsed from a WKT column."""
    import pyarrow as pa
    vals = [None if v is None else wkt_to_wkb(v)
            for v in batch.column(wkt_col).to_pylist()]
    return batch.append_column(wkb_col, pa.array(vals, pa.binary()))


def wkb_column_to_wkt(batch, wkb_col: str = "wkb", wkt_col: str = "wkt"):
    import pyarrow as pa
    vals = [None if v is None else wkb_to_wkt(bytes(v))
            for v in batch.column(wkb_col).to_pylist()]
    return batch.append_column(wkt_col, pa.array(vals, pa.string()))
