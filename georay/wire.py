"""LEB128 varints and the protobuf wire format, for every format that
uses them: the Lance-layout manifests and FileMeta (lancefmt), Mapbox
Vector Tiles (mvt), OSM PBF (osmpbf), PMTiles directories (pmtiles) and
Avro longs (avrofmt, icebergfmt).  No other module encodes or decodes a
varint; GDAL likewise reads both its OSM and MVT drivers through one
shared protobuf reader (ogr/ogrsf_frmts/osm/gpb.h).

* Encoders: :func:`varint` (one value, masked to 64 bits as protobuf
  int64 is, so a negative value ends in ten bytes), :func:`varints` (a
  uint64 array, vectorized), :func:`zigzag` / :func:`unzigzag` (a Python
  int or an int64/uint64 array), :func:`svarint` (a zigzag varint), and
  :func:`tag`, :func:`varint_field`, :func:`len_field` for message fields.
* Decoders: :func:`read_varint` and :func:`read_svarint` (one value,
  plain or zigzag), :func:`packed_varints` (a packed run, vectorized
  with one ``reduceat``), :func:`fields` (one message scan over wire
  types 0, 1, 2 and 5), and :func:`take` (a bounds-checked slice).  Length-delimited and fixed values are slices
  of the input, so a memoryview stays zero-copy and bytes stay bytes.

Every decoder raises ``ValueError("truncated <fmt> at byte N")`` when a
varint runs past the buffer or past ten bytes, or a length or fixed
field runs past the end; ``fmt`` names the caller's format.  An unknown
wire type raises ``ValueError`` too.
"""

from __future__ import annotations

import numpy as np

__all__ = ["varint", "varints", "zigzag", "unzigzag", "svarint", "tag",
           "varint_field", "len_field", "read_varint", "read_svarint",
           "packed_varints", "fields", "take"]

_MASK64 = (1 << 64) - 1
_MAX_LEN = 10                    # bytes in the longest 64-bit varint


def _truncated(fmt: str, pos: int) -> ValueError:
    return ValueError(f"truncated {fmt} at byte {pos}")


# ---------------------------------------------------------------------------
# encoders
# ---------------------------------------------------------------------------

def varint(v: int) -> bytes:
    """One value → LEB128 bytes, masked to 64 bits."""
    v &= _MASK64
    out = bytearray()
    while v > 0x7F:
        out.append((v & 0x7F) | 0x80)
        v >>= 7
    out.append(v)
    return bytes(out)


def varints(vals) -> bytes:
    """uint64 array → concatenated LEB128 varints, no Python loop."""
    v = np.asarray(vals, np.uint64)
    if v.size == 0:
        return b""
    nb = np.ones(v.shape, np.int64)
    tmp = v >> np.uint64(7)
    while tmp.any():
        nb += tmp > 0
        tmp >>= np.uint64(7)
    ends = np.cumsum(nb)
    starts = ends - nb
    total = int(ends[-1])
    pos = np.arange(total, dtype=np.int64) - np.repeat(starts, nb)
    vv = np.repeat(v, nb)
    limb = ((vv >> (np.uint64(7) * pos.astype(np.uint64)))
            & np.uint64(0x7F)).astype(np.uint8)
    limb[: total - 1] |= 0x80          # set continuation bits …
    limb[ends[:-1] - 1] &= 0x7F        # … then clear at value ends
    return limb.tobytes()


def zigzag(v):
    """Signed → zigzag unsigned (0, -1, 1, -2 … → 0, 1, 2, 3 …): a Python
    int gives an int in [0, 2**64), an integer array a uint64 array."""
    if isinstance(v, np.ndarray):
        s = v.astype(np.int64)
        return ((s << np.int64(1)) ^ (s >> np.int64(63))).astype(np.uint64)
    return ((v << 1) ^ (v >> 63)) & _MASK64


def unzigzag(u):
    """Zigzag unsigned → signed: a Python int gives an int, a uint64
    array an int64 array."""
    if isinstance(u, np.ndarray):
        w = u.astype(np.uint64)
        return ((w >> np.uint64(1)) ^ (np.uint64(0) - (w & np.uint64(1)))
                ).astype(np.int64)
    return (u >> 1) ^ -(u & 1)


def svarint(v: int) -> bytes:
    """A signed value as its zigzag varint (protobuf sint64, Avro long)."""
    return varint(zigzag(v))


def tag(field: int, wire: int) -> bytes:
    """A field's key: its number and wire type."""
    return varint((field << 3) | wire)


def varint_field(field: int, value: int) -> bytes:
    """A whole wire-type-0 field."""
    return tag(field, 0) + varint(value)


def len_field(field: int, payload: bytes) -> bytes:
    """A whole length-delimited (wire type 2) field."""
    return tag(field, 2) + varint(len(payload)) + payload


# ---------------------------------------------------------------------------
# decoders
# ---------------------------------------------------------------------------

def read_varint(buf, pos: int, fmt: str) -> tuple[int, int]:
    """One varint at ``buf[pos]`` → ``(value, next_pos)``."""
    n = len(buf)
    if pos < n:
        b = buf[pos]
        if b < 0x80:
            return b, pos + 1
    v = shift = 0
    end = min(n, pos + _MAX_LEN)
    while pos < end:
        b = buf[pos]
        pos += 1
        v |= (b & 0x7F) << shift
        if b < 0x80:
            return v & _MASK64, pos
        shift += 7
    raise _truncated(fmt, pos)


def read_svarint(buf, pos: int, fmt: str) -> tuple[int, int]:
    """One zigzag varint at ``buf[pos]`` → ``(signed value, next_pos)``."""
    u, pos = read_varint(buf, pos, fmt)
    return unzigzag(u), pos


def packed_varints(buf, fmt: str) -> np.ndarray:
    """A packed varint payload → uint64, vectorized: group the 7-bit limbs
    at continuation-bit boundaries and fold each group with one
    ``reduceat`` (no Python loop over values)."""
    a = np.frombuffer(buf, dtype=np.uint8)
    if a.size == 0:
        return np.zeros(0, np.uint64)
    if a[-1] >= 0x80:
        raise _truncated(fmt, a.size)
    ends = np.flatnonzero(a < 0x80)
    starts = np.empty(len(ends), np.int64)
    starts[0] = 0
    starts[1:] = ends[:-1] + 1
    nb = ends + 1 - starts
    if nb.max() > _MAX_LEN:
        raise _truncated(fmt, int(starts[np.argmax(nb > _MAX_LEN)])
                         + _MAX_LEN)
    pos = np.arange(len(a), dtype=np.int64) - np.repeat(starts, nb)
    limbs = (a & np.uint8(0x7F)).astype(np.uint64) << (
        np.uint64(7) * pos.astype(np.uint64))
    return np.add.reduceat(limbs, starts)


def take(buf, pos: int, n: int, fmt: str):
    """``(buf[pos:pos + n], pos + n)``, or raise when the span does not
    lie inside ``buf``."""
    end = pos + n
    if n < 0 or pos < 0 or end > len(buf):
        raise _truncated(fmt, len(buf))
    return buf[pos:end], end


def fields(buf, fmt: str) -> list[tuple[int, int, object]]:
    """One protobuf message → ``[(field, wire_type, value)]`` in order:
    an int for a varint, a slice of ``buf`` for a length-delimited field
    or a fixed 32/64-bit one."""
    out = []
    pos, n = 0, len(buf)
    while pos < n:
        key, pos = read_varint(buf, pos, fmt)
        wt = key & 7
        if wt == 0:
            v, pos = read_varint(buf, pos, fmt)
        elif wt == 2:
            ln, pos = read_varint(buf, pos, fmt)
            v, pos = take(buf, pos, ln, fmt)
        elif wt == 5:
            v, pos = take(buf, pos, 4, fmt)
        elif wt == 1:
            v, pos = take(buf, pos, 8, fmt)
        else:
            raise ValueError(f"unknown wire type {wt} in {fmt} at byte "
                             f"{pos}")
        out.append((key >> 3, wt, v))
    return out
