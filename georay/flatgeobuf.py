"""FlatGeobuf (.fgb) codec — the reference fork's signature vector format,
re-implemented from scratch against the public spec.

The reference (ogr/ogrsf_frmts/flatgeobuf/) reads/writes FlatGeobuf 3:
8 magic bytes ``fgb\\x03fgb\\x00/01`` (ogrflatgeobufdataset.cpp:44-48), a
size-prefixed FlatBuffers ``Header`` table, an optional packed Hilbert
R-tree index (packedrtree.h/cpp — node items of 4 doubles + uint64 offset,
levels stored root-first, leaf offsets = feature byte offsets, built over
features sorted by DESCENDING flatbush Hilbert value of their bbox center,
packedrtree.h:86-105), then size-prefixed FlatBuffers ``Feature`` records.

Nothing here is ported: the FlatBuffers wire format (a public spec:
root uoffset → table with soffset32 to a vtable of uint16 field offsets;
strings/vectors as uint32-length-prefixed payloads) is implemented as a
minimal builder/reader pair below, and the fgb schema constants (vtable
slots, enum values, property encoding) come from the published .fbs files
(pinned against header_generated.h:522-534 / feature_generated.h:32-39,
221-223 in tests only by structural round-trips — no generated code is
used or copied).

Ray-side shape: one ``.fgb`` file is a bounded artifact (header + index
must be finalized after all features are known), so the distributed form
is a PARTITIONED sink — one fgb per partition key, written inside
``map_groups`` — and a source that exposes the packed index for
bbox-pushdown reads (only matching features are decoded), mirroring the
format's "binary-searchable over HTTP" design goal.
"""

from __future__ import annotations

import struct

import numpy as np
import pyarrow as pa

from .geom import read_wkb, wkb_envelope

__all__ = [
    "write_fgb", "read_fgb", "read_fgb_header", "fgb_bbox_offsets",
    "hilbert_flatbush", "write_fgb_partitioned", "read_fgb_dataset",
]

MAGIC = b"fgb\x03fgb\x00"
NODE_ITEM = struct.Struct("<ddddQ")  # minx miny maxx maxy offset
_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")
_I32 = struct.Struct("<i")

# GeometryType enum (header.fbs)
GT_UNKNOWN, GT_POINT, GT_LINESTRING, GT_POLYGON = 0, 1, 2, 3
GT_MULTIPOINT, GT_MULTILINESTRING, GT_MULTIPOLYGON = 4, 5, 6

# ColumnType enum (header.fbs)
CT_BOOL, CT_INT, CT_LONG, CT_DOUBLE, CT_STRING = 2, 5, 7, 10, 11
CT_DATETIME, CT_BINARY = 13, 14

_ARROW_TO_CT = [
    (pa.types.is_boolean, CT_BOOL),
    (pa.types.is_int32, CT_INT),
    (pa.types.is_int64, CT_LONG),
    (pa.types.is_floating, CT_DOUBLE),
    (pa.types.is_timestamp, CT_DATETIME),
    (pa.types.is_string, CT_STRING),
    (pa.types.is_binary, CT_BINARY),
]
_CT_TO_ARROW = {CT_BOOL: pa.bool_(), CT_INT: pa.int32(), CT_LONG: pa.int64(),
                CT_DOUBLE: pa.float64(), CT_STRING: pa.string(),
                CT_DATETIME: pa.timestamp("us"), CT_BINARY: pa.binary()}


# ---------------------------------------------------------------------------
# Minimal FlatBuffers wire format
# ---------------------------------------------------------------------------

class FBBuilder:
    """Tiny FlatBuffers builder (prepend model, offsets measured from the
    buffer END as in the spec).  Supports exactly what fgb needs: strings,
    scalar vectors, offset vectors, and tables with scalar/offset fields."""

    def __init__(self):
        self._buf = bytearray()
        self._minalign = 4
        self._slots = None

    def _offset(self) -> int:
        return len(self._buf)

    def _pad_for(self, payload_len: int, align: int):
        self._minalign = max(self._minalign, align)
        pad = (-(len(self._buf) + payload_len)) % align
        if pad:
            self._buf[:0] = b"\x00" * pad

    def string(self, s) -> int:
        b = s.encode("utf-8") if isinstance(s, str) else bytes(s)
        self._pad_for(len(b) + 1 + 4, 4)  # pad lands AFTER the nul byte
        self._buf[:0] = b + b"\x00"
        self._buf[:0] = _U32.pack(len(b))
        return self._offset()

    def scalar_vector(self, arr: np.ndarray) -> int:
        arr = np.ascontiguousarray(arr)
        if arr.dtype.byteorder == ">":
            arr = arr.astype(arr.dtype.newbyteorder("<"))
        data = arr.tobytes()
        # element data must be itemsize-aligned; the u32 length that
        # precedes it is then 4-aligned automatically (itemsize >= 4)
        self._pad_for(len(data), max(4, arr.itemsize))
        self._buf[:0] = data
        self._buf[:0] = _U32.pack(len(arr))
        return self._offset()

    def offset_vector(self, offsets) -> int:
        n = len(offsets)
        self._pad_for(4 + 4 * n, 4)
        o_data = self._offset() + 4 * n
        body = b"".join(_U32.pack((o_data - 4 * i) - offsets[i])
                        for i in range(n))
        self._buf[:0] = body
        self._buf[:0] = _U32.pack(n)
        return self._offset()

    def table(self, fields) -> int:
        """``fields``: list of (slot, kind, value) with kind one of
        'u8' 'u16' 'i32' 'u64' 'f64' 'bool' (inline scalars) or 'off'
        (uoffset to an already-built object).  Absent/default fields are
        simply not passed."""
        kinds = {"u8": (1, "<B"), "bool": (1, "<B"), "u16": (2, "<H"),
                 "i32": (4, "<i"), "u32": (4, "<I"), "u64": (8, "<Q"),
                 "f64": (8, "<d"), "off": (4, "<I")}
        fields = sorted(fields, key=lambda f: f[0])
        max_slot = max((f[0] for f in fields), default=-1)
        max_align = max([4] + [kinds[f[1]][0] for f in fields])
        # assign relative offsets inside the table (soffset32 occupies 0..4)
        rel = {}
        pos = 4
        # place large-aligned fields first to avoid padding holes
        for slot, kind, _ in sorted(fields, key=lambda f: -kinds[f[1]][0]):
            size = kinds[kind][0]
            pos = (pos + size - 1) // size * size
            rel[slot] = pos
            pos += size
        table_size = pos
        # inline block (placeholder soffset patched after vtable lands)
        self._pad_for(table_size, max_align)
        block = bytearray(table_size)
        o_table = self._offset() + table_size
        for slot, kind, value in fields:
            size, fmt = kinds[kind]
            r = rel[slot]
            if kind == "off":
                field_end_off = o_table - r
                struct.pack_into(fmt, block, r, field_end_off - value)
            else:
                struct.pack_into(fmt, block, r,
                                 int(value) if kind != "f64" else value)
        self._buf[:0] = bytes(block)
        # vtable
        vt_len = 4 + 2 * (max_slot + 1)
        self._pad_for(vt_len, 2)
        vt = bytearray(vt_len)
        struct.pack_into("<H", vt, 0, vt_len)
        struct.pack_into("<H", vt, 2, table_size)
        for slot, _, _ in fields:
            struct.pack_into("<H", vt, 4 + 2 * slot, rel[slot])
        self._buf[:0] = bytes(vt)
        o_vt = self._offset()
        # patch soffset at table start: stored = o_vt - o_table (end-space)
        tpos = len(self._buf) - o_table
        self._buf[tpos:tpos + 4] = _I32.pack(o_vt - o_table)
        return o_table

    def finish(self, root: int) -> bytes:
        self._pad_for(4, self._minalign)
        self._buf[:0] = _U32.pack(self._offset() + 4 - root)
        return bytes(self._buf)


class FBTable:
    """Reader for one FlatBuffers table inside ``buf`` at ``pos``."""

    __slots__ = ("buf", "pos", "_vt", "_nslots")

    def __init__(self, buf, pos: int):
        self.buf = buf
        self.pos = pos
        soff = _I32.unpack_from(buf, pos)[0]
        self._vt = pos - soff
        self._nslots = (_U16.unpack_from(buf, self._vt)[0] - 4) // 2

    @classmethod
    def root(cls, buf, base: int = 0) -> "FBTable":
        return cls(buf, base + _U32.unpack_from(buf, base)[0])

    def _field(self, slot: int):
        if slot >= self._nslots:
            return None
        r = _U16.unpack_from(self.buf, self._vt + 4 + 2 * slot)[0]
        return self.pos + r if r else None

    def scalar(self, slot: int, fmt: str, default):
        p = self._field(slot)
        return default if p is None else struct.unpack_from(fmt, self.buf, p)[0]

    def _indirect(self, slot: int):
        p = self._field(slot)
        if p is None:
            return None
        return p + _U32.unpack_from(self.buf, p)[0]

    def string(self, slot: int):
        p = self._indirect(slot)
        if p is None:
            return None
        n = _U32.unpack_from(self.buf, p)[0]
        return bytes(self.buf[p + 4:p + 4 + n]).decode("utf-8")

    def vector(self, slot: int, dtype) -> np.ndarray | None:
        p = self._indirect(slot)
        if p is None:
            return None
        n = _U32.unpack_from(self.buf, p)[0]
        return np.frombuffer(self.buf, dtype=dtype, count=n, offset=p + 4)

    def table_vector(self, slot: int):
        p = self._indirect(slot)
        if p is None:
            return []
        n = _U32.unpack_from(self.buf, p)[0]
        out = []
        for i in range(n):
            ep = p + 4 + 4 * i
            out.append(FBTable(self.buf, ep + _U32.unpack_from(self.buf, ep)[0]))
        return out

    def table(self, slot: int):
        p = self._indirect(slot)
        return None if p is None else FBTable(self.buf, p)


# ---------------------------------------------------------------------------
# Flatbush Hilbert curve (packedrtree.cpp — public flatbush algorithm)
# ---------------------------------------------------------------------------

def hilbert_flatbush(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Vectorized flatbush 16-bit Hilbert index (the exact curve fgb sorts
    by; distinct from the rotate/flip curve in georay.rtree)."""
    x = np.asarray(x, dtype=np.uint32)
    y = np.asarray(y, dtype=np.uint32)
    M = np.uint32(0xFFFF)
    a = x ^ y
    b = M ^ a
    c = M ^ (x | y)
    d = x & (y ^ M)
    A = a | (b >> 1)
    B = (a >> 1) ^ a
    C = ((c >> 1) ^ (b & (d >> 1))) ^ c
    D = ((a & (c >> 1)) ^ (d >> 1)) ^ d
    a, b, c, d = A, B, C, D
    A = (a & (a >> 2)) ^ (b & (b >> 2))
    B = (a & (b >> 2)) ^ (b & ((a ^ b) >> 2))
    C = c ^ ((a & (c >> 2)) ^ (b & (d >> 2)))
    D = d ^ ((b & (c >> 2)) ^ ((a ^ b) & (d >> 2)))
    a, b, c, d = A, B, C, D
    A = (a & (a >> 4)) ^ (b & (b >> 4))
    B = (a & (b >> 4)) ^ (b & ((a ^ b) >> 4))
    C = c ^ ((a & (c >> 4)) ^ (b & (d >> 4)))
    D = d ^ ((b & (c >> 4)) ^ ((a ^ b) & (d >> 4)))
    a, b, c, d = A, B, C, D
    C ^= (a & (c >> 8)) ^ (b & (d >> 8))
    D ^= (b & (c >> 8)) ^ ((a ^ b) & (d >> 8))
    a = C ^ (C >> 1)
    b = D ^ (D >> 1)
    i0 = x ^ y
    i1 = b | (M ^ (i0 | a))
    for sh, m in ((8, 0x00FF00FF), (4, 0x0F0F0F0F),
                  (2, 0x33333333), (1, 0x55555555)):
        i0 = (i0 | (i0 << np.uint32(sh))) & np.uint32(m)
        i1 = (i1 | (i1 << np.uint32(sh))) & np.uint32(m)
    return (i1 << np.uint32(1)) | i0


def _hilbert_order_desc(bbox: np.ndarray) -> np.ndarray:
    """fgb sort permutation: DESCENDING Hilbert value of bbox centers
    quantized to the extent (packedrtree.h:86-105 sorts with ``ha > hb``)."""
    cx = (bbox[:, 0] + bbox[:, 2]) * 0.5
    cy = (bbox[:, 1] + bbox[:, 3]) * 0.5
    ex0, ey0 = bbox[:, 0].min(), bbox[:, 1].min()
    w = bbox[:, 2].max() - ex0
    h = bbox[:, 3].max() - ey0
    hmax = (1 << 16) - 1
    qx = np.floor(hmax * (cx - ex0) / w).astype(np.uint32) if w != 0 \
        else np.zeros(len(bbox), np.uint32)
    qy = np.floor(hmax * (cy - ey0) / h).astype(np.uint32) if h != 0 \
        else np.zeros(len(bbox), np.uint32)
    hv = hilbert_flatbush(qx, qy)
    return np.argsort(-hv.astype(np.int64), kind="stable")


# ---------------------------------------------------------------------------
# Packed R-tree (spec layout: root-first levels, 40-byte node items)
# ---------------------------------------------------------------------------

def _level_bounds(num_items: int, node_size: int):
    """(start, end) node-index bounds per level, bottom-up order —
    exact formula of packedrtree.cpp::generateLevelBounds."""
    level_num = [num_items]
    n = num_items
    num_nodes = n
    while n != 1:
        n = (n + node_size - 1) // node_size
        num_nodes += n
        level_num.append(n)
    bounds = []
    acc = num_nodes
    for size in level_num:
        acc -= size
        bounds.append((acc, acc + size))
    return bounds, num_nodes


def _build_index(bbox_sorted: np.ndarray, feat_offsets: np.ndarray,
                 node_size: int) -> bytes:
    """Packed R-tree bytes: all nodes root-first; leaf node offsets are
    feature byte offsets; internal node offsets are first-child indices."""
    num_items = len(bbox_sorted)
    bounds, num_nodes = _level_bounds(num_items, node_size)
    boxes = np.empty((num_nodes, 4), dtype=np.float64)
    offs = np.zeros(num_nodes, dtype=np.uint64)
    lo, hi = bounds[0]
    boxes[lo:hi] = bbox_sorted
    offs[lo:hi] = feat_offsets
    for lev in range(len(bounds) - 1):
        clo, chi = bounds[lev]
        plo, phi = bounds[lev + 1]
        n_child = chi - clo
        n_parent = phi - plo
        pad = n_parent * node_size - n_child
        child = boxes[clo:chi]
        if pad:
            child = np.vstack([child, np.repeat(
                [[np.inf, np.inf, -np.inf, -np.inf]], pad, axis=0)])
        g = child.reshape(n_parent, node_size, 4)
        boxes[plo:phi, 0] = g[:, :, 0].min(axis=1)
        boxes[plo:phi, 1] = g[:, :, 1].min(axis=1)
        boxes[plo:phi, 2] = g[:, :, 2].max(axis=1)
        boxes[plo:phi, 3] = g[:, :, 3].max(axis=1)
        offs[plo:phi] = clo + np.arange(n_parent, dtype=np.uint64) * node_size
    rec = np.empty(num_nodes,
                   dtype=np.dtype([("b", "<f8", 4), ("o", "<u8")]))
    rec["b"] = boxes
    rec["o"] = offs
    return rec.tobytes()


def _index_size(num_items: int, node_size: int) -> int:
    if num_items == 0:
        return 0
    _, num_nodes = _level_bounds(num_items, node_size)
    return num_nodes * NODE_ITEM.size


def _search_index(data: memoryview, idx_pos: int, num_items: int,
                  node_size: int, bbox) -> np.ndarray:
    """Feature byte offsets whose leaf boxes intersect ``bbox`` — the
    spec's streaming search, vectorized level-by-level."""
    bounds, num_nodes = _level_bounds(num_items, node_size)
    leaf_lo = bounds[0][0]
    rec = np.frombuffer(data, dtype=np.dtype([("b", "<f8", 4), ("o", "<u8")]),
                        count=num_nodes, offset=idx_pos)
    boxes, offs = rec["b"], rec["o"]
    qx0, qy0, qx1, qy1 = bbox
    frontier = np.array([0], dtype=np.int64)
    hits = []
    while frontier.size:
        bb = boxes[frontier]
        keep = ((qx0 <= bb[:, 2]) & (qx1 >= bb[:, 0])
                & (qy0 <= bb[:, 3]) & (qy1 >= bb[:, 1]))
        live = frontier[keep]
        is_leaf = live >= leaf_lo
        hits.append(offs[live[is_leaf]])
        internal = live[~is_leaf]
        if internal.size == 0:
            break
        first = offs[internal].astype(np.int64)
        # children of node i span [first, min(first+node_size, level_end))
        ends = np.empty_like(first)
        for lo, hi in bounds:
            m = (first >= lo) & (first < hi)
            ends[m] = np.minimum(first[m] + node_size, hi)
        cnt = ends - first
        rep = np.repeat(first, cnt)
        inner = np.arange(cnt.sum(), dtype=np.int64) - np.repeat(
            np.concatenate([[0], np.cumsum(cnt)[:-1]]), cnt)
        frontier = rep + inner
    return np.sort(np.concatenate(hits)) if hits else np.empty(0, np.uint64)


# ---------------------------------------------------------------------------
# WKB ↔ fgb Geometry
# ---------------------------------------------------------------------------

def _fgb_geometry(wkb: bytes):
    """WKB → (geom_type, xy, ends, parts) in fgb conventions (XY only) —
    ends are cumulative POINT counts; single-ring polygons omit ends;
    MultiPolygon → list of per-polygon (xy, ends) parts."""
    t, _, data = read_wkb(wkb)
    if t in (4, 5, 6) and any(m[0] != t - 3 for m in data):
        raise ValueError(f"bad member type in WKB geometry type {t}")

    def flat(runs):
        xy = [r[:, :2].astype("<f8").ravel() for r in runs]
        ends = np.cumsum([len(r) for r in runs]).tolist()
        return (np.concatenate(xy) if xy else np.empty(0)), ends

    if t in (1, 2):                     # GT_POINT / GT_LINESTRING
        return t, flat([data])[0], [], None
    if t == 3:
        xy, ends = flat(data)
        return GT_POLYGON, xy, (ends if len(data) > 1 else []), None
    if t == 4:
        return GT_MULTIPOINT, flat([m[2] for m in data])[0], [], None
    if t == 5:
        xy, ends = flat([m[2] for m in data])
        return GT_MULTILINESTRING, xy, ends, None
    if t == 6:
        parts = []
        for m in data:
            xy, ends = flat(m[2])
            parts.append((xy, ends if len(m[2]) > 1 else []))
        return GT_MULTIPOLYGON, None, [], parts
    raise ValueError(f"unsupported WKB geometry type {t}")


def _wkb_from_geometry(geom: FBTable, geom_type: int) -> bytes:
    gt = geom.scalar(6, "<B", 0) or geom_type
    if gt == GT_MULTIPOLYGON:
        parts = geom.table_vector(7)
        out = [struct.pack("<BII", 1, 6, len(parts))]
        for p in parts:
            out.append(_poly_wkb(p.vector(1, "<f8"), p.vector(0, "<u4")))
        return b"".join(out)
    xy = geom.vector(1, "<f8")
    ends = geom.vector(0, "<u4")
    if xy is None:
        xy = np.empty(0, np.float64)
    if gt == GT_POINT:
        return struct.pack("<BI", 1, 1) + xy[:2].astype("<f8").tobytes()
    if gt == GT_LINESTRING:
        return (struct.pack("<BII", 1, 2, len(xy) // 2)
                + xy.astype("<f8").tobytes())
    if gt == GT_POLYGON:
        return _poly_wkb(xy, ends)
    if gt == GT_MULTIPOINT:
        n = len(xy) // 2
        return struct.pack("<BII", 1, 4, n) + b"".join(
            struct.pack("<BI", 1, 1) + xy[2 * i:2 * i + 2].tobytes()
            for i in range(n))
    if gt == GT_MULTILINESTRING:
        ends_l = list(ends) if ends is not None else [len(xy) // 2]
        out = [struct.pack("<BII", 1, 5, len(ends_l))]
        s = 0
        for e in ends_l:
            out.append(struct.pack("<BII", 1, 2, int(e) - s))
            out.append(xy[2 * s:2 * int(e)].astype("<f8").tobytes())
            s = int(e)
        return b"".join(out)
    raise ValueError(f"unsupported fgb geometry type {gt}")


def _poly_wkb(xy, ends) -> bytes:
    ends_l = list(ends) if ends is not None and len(ends) else [len(xy) // 2]
    out = [struct.pack("<BII", 1, 3, len(ends_l))]
    s = 0
    for e in ends_l:
        out.append(struct.pack("<I", int(e) - s))
        out.append(xy[2 * s:2 * int(e)].astype("<f8").tobytes())
        s = int(e)
    return b"".join(out)


def _geometry_table(fb: FBBuilder, gt, xy, ends, parts) -> int:
    if parts is not None:
        poffs = []
        for pxy, pends in parts:
            f = []
            if pends:
                f.append((0, "off", fb.scalar_vector(
                    np.asarray(pends, dtype=np.uint32))))
            f.append((1, "off", fb.scalar_vector(
                np.asarray(pxy, dtype=np.float64))))
            f.append((6, "u8", GT_POLYGON))
            poffs.append(fb.table(f))
        return fb.table([(6, "u8", gt), (7, "off", fb.offset_vector(poffs))])
    f = []
    if ends:
        f.append((0, "off",
                  fb.scalar_vector(np.asarray(ends, dtype=np.uint32))))
    f.append((1, "off", fb.scalar_vector(np.asarray(xy, dtype=np.float64))))
    if gt:
        f.append((6, "u8", gt))
    return fb.table(f)


# ---------------------------------------------------------------------------
# Properties blob
# ---------------------------------------------------------------------------

def _encode_props(cols, row: int) -> bytes:
    out = []
    for ci, (name, ct, arr) in enumerate(cols):
        v = arr[row]
        if v is None:
            continue
        out.append(_U16.pack(ci))
        if ct == CT_BOOL:
            out.append(struct.pack("<B", bool(v)))
        elif ct == CT_INT:
            out.append(struct.pack("<i", v))
        elif ct == CT_LONG:
            out.append(struct.pack("<q", v))
        elif ct == CT_DOUBLE:
            out.append(struct.pack("<d", v))
        elif ct == CT_DATETIME:
            # spec: ISO-8601 text, u32-length-prefixed
            b = v.isoformat().encode("utf-8")
            out.append(_U32.pack(len(b)) + b)
        elif ct in (CT_STRING, CT_BINARY):
            b = v.encode("utf-8") if isinstance(v, str) else bytes(v)
            out.append(_U32.pack(len(b)) + b)
    return b"".join(out)


def _decode_props(blob: bytes, col_specs):
    vals = {i: None for i in range(len(col_specs))}
    pos = 0
    n = len(blob)
    while pos + 2 <= n:
        ci = _U16.unpack_from(blob, pos)[0]
        pos += 2
        ct = col_specs[ci][1]
        if ct == CT_BOOL:
            vals[ci] = bool(blob[pos]); pos += 1
        elif ct == CT_INT:
            vals[ci] = struct.unpack_from("<i", blob, pos)[0]; pos += 4
        elif ct == CT_LONG:
            vals[ci] = struct.unpack_from("<q", blob, pos)[0]; pos += 8
        elif ct == CT_DOUBLE:
            vals[ci] = struct.unpack_from("<d", blob, pos)[0]; pos += 8
        elif ct in (CT_STRING, CT_BINARY, CT_DATETIME):
            ln = _U32.unpack_from(blob, pos)[0]; pos += 4
            raw = blob[pos:pos + ln]; pos += ln
            if ct == CT_BINARY:
                vals[ci] = raw
            elif ct == CT_DATETIME:
                from datetime import datetime
                vals[ci] = datetime.fromisoformat(raw.decode("utf-8"))
            else:
                vals[ci] = raw.decode("utf-8")
        else:
            raise ValueError(f"unsupported fgb column type {ct}")
    return vals


# ---------------------------------------------------------------------------
# Write
# ---------------------------------------------------------------------------

def write_fgb(table: pa.Table, geom_col: str = "wkb", *, name: str = "layer",
              geometry_type: int | None = None, node_size: int = 16,
              crs_code: int = 4326, write_index: bool = True) -> bytes:
    """Arrow table (WKB geometry column + scalar attribute columns) →
    FlatGeobuf bytes.  Features are Hilbert-sorted (spec descending order)
    and a packed R-tree index is emitted unless ``write_index=False``."""
    n = table.num_rows
    wkbs = table[geom_col].to_pylist()
    cols = []
    for fname in table.schema.names:
        if fname == geom_col:
            continue
        typ = table.schema.field(fname).type
        ct = next((c for pred, c in _ARROW_TO_CT if pred(typ)), None)
        if ct is None:
            raise TypeError(f"fgb: unsupported attribute type {typ} "
                            f"for column {fname!r}")
        cols.append((fname, ct, table[fname].to_pylist()))

    gts = set()
    bbox = np.zeros((n, 4), dtype=np.float64)
    parsed = []
    for i, w in enumerate(wkbs):
        g = _fgb_geometry(w)
        parsed.append(g)
        gts.add(g[0])
        bbox[i] = wkb_envelope(w)
    bbox[np.isnan(bbox)] = 0.0          # empty geometries index at 0
    if geometry_type is None:
        geometry_type = gts.pop() if len(gts) == 1 else GT_UNKNOWN

    order = _hilbert_order_desc(bbox) if (write_index and n) \
        else np.arange(n)

    feats = []
    for i in order:
        gt, xy, ends, parts = parsed[i]
        fb = FBBuilder()
        props = _encode_props(cols, int(i))
        fields = [(0, "off", _geometry_table(fb, gt, xy, ends, parts))]
        if props:
            fields.append((1, "off", fb.scalar_vector(
                np.frombuffer(props, dtype=np.uint8))))
        body = fb.finish(fb.table(fields))
        feats.append(_U32.pack(len(body)) + body)
    sizes = np.array([len(f) for f in feats], dtype=np.uint64)
    feat_offsets = np.concatenate([[0], np.cumsum(sizes)[:-1]]) \
        if n else np.empty(0, np.uint64)

    # header
    hb = FBBuilder()
    col_offs = []
    for fname, ct, _ in cols:
        col_offs.append(hb.table([(0, "off", hb.string(fname)),
                                  (1, "u8", ct)]))
    crs_off = hb.table([(0, "off", hb.string("EPSG")), (1, "i32", crs_code)])
    env = (np.array([bbox[:, 0].min(), bbox[:, 1].min(),
                     bbox[:, 2].max(), bbox[:, 3].max()])
           if n else np.zeros(4))
    hfields = [(0, "off", hb.string(name)),
               (1, "off", hb.scalar_vector(env.astype(np.float64))),
               (8, "u64", n),
               (9, "u16", node_size if (write_index and n) else 0),
               (10, "off", crs_off)]
    if geometry_type:
        hfields.append((2, "u8", geometry_type))
    if col_offs:
        hfields.append((7, "off", hb.offset_vector(col_offs)))
    header = hb.finish(hb.table(hfields))

    out = [MAGIC, _U32.pack(len(header)), header]
    if write_index and n:
        out.append(_build_index(bbox[order], feat_offsets, node_size))
    out.extend(feats)
    return b"".join(out)


# ---------------------------------------------------------------------------
# Read
# ---------------------------------------------------------------------------

def read_fgb_header(data) -> dict:
    data = memoryview(data)
    if bytes(data[:4]) != b"fgb\x03":
        raise ValueError("not a FlatGeobuf v3 file")
    try:
        hlen = _U32.unpack_from(data, 8)[0]
        if 12 + hlen > len(data):
            raise struct.error
        h = FBTable.root(data, 12)
        cols = [(c.string(0), c.scalar(1, "<B", 0))
                for c in h.table_vector(7)]
        crs = h.table(10)
    except struct.error:
        raise ValueError(f"truncated fgb at byte {len(data)}") from None
    return {
        "name": h.string(0),
        "envelope": (h.vector(1, "<f8").tolist()
                     if h.vector(1, "<f8") is not None else None),
        "geometry_type": h.scalar(2, "<B", 0),
        "columns": cols,
        "features_count": h.scalar(8, "<Q", 0),
        "index_node_size": h.scalar(9, "<H", 16),
        "crs_code": crs.scalar(1, "<i", 0) if crs else 0,
        "_features_pos": 12 + hlen,
    }


def fgb_bbox_offsets(data, bbox) -> np.ndarray:
    """Feature byte offsets intersecting ``bbox`` via the packed index —
    decodes NOTHING else (the format's HTTP-range-read property)."""
    data = memoryview(data)
    hdr = read_fgb_header(data)
    ns, n = hdr["index_node_size"], hdr["features_count"]
    if ns == 0 or n == 0:
        raise ValueError("file has no spatial index")
    return _search_index(data, hdr["_features_pos"], n, ns, bbox)


def read_fgb(data, *, bbox=None, geom_col: str = "wkb") -> pa.Table:
    """FlatGeobuf bytes → Arrow table (WKB + attributes).  With ``bbox``,
    only features whose index boxes intersect are decoded; files WITHOUT
    an index fall back to an envelope filter over the decoded geometries
    (same result set — bbox semantics never depend on index presence)."""
    data = memoryview(data)
    hdr = read_fgb_header(data)
    n = hdr["features_count"]
    ns = hdr["index_node_size"]
    idx_len = _index_size(n, ns) if ns else 0
    feat_base = hdr["_features_pos"] + idx_len
    col_specs = hdr["columns"]
    total = len(data)

    def feature_end(pos: int) -> int:
        """The byte after the length-prefixed feature at ``pos``."""
        if pos + 4 <= total:
            end = pos + 4 + _U32.unpack_from(data, pos)[0]
            if end <= total:
                return end
        raise ValueError(f"truncated fgb at byte {pos}")

    if feat_base > total:
        raise ValueError(f"truncated fgb at byte {total}")
    if bbox is not None and idx_len:
        offsets = _search_index(data, hdr["_features_pos"], n, ns, bbox)
        positions = [feat_base + int(o) for o in offsets]
    else:
        positions = []
        pos = feat_base
        while pos < total:
            positions.append(pos)
            pos = feature_end(pos)
        if n and len(positions) != n:  # features_count 0 means unknown
            raise ValueError(f"truncated fgb at byte {total}: "
                             f"{len(positions)} features, header declares {n}")

    wkbs = []
    attr_vals = {i: [] for i in range(len(col_specs))}
    for pos in positions:
        feature_end(pos)  # index offsets may point past a cut
        feat = FBTable.root(data, pos + 4)
        geom = feat.table(0)
        wkbs.append(_wkb_from_geometry(geom, hdr["geometry_type"])
                    if geom else None)
        props = feat.vector(1, "<u1")
        vals = _decode_props(props.tobytes() if props is not None else b"",
                             col_specs)
        for i in range(len(col_specs)):
            attr_vals[i].append(vals[i])
    out = {geom_col: pa.array(wkbs, pa.binary())}
    for i, (cname, ct) in enumerate(col_specs):
        out[cname] = pa.array(attr_vals[i], _CT_TO_ARROW[ct])
    t = pa.table(out)
    if bbox is not None and not idx_len:
        qx0, qy0, qx1, qy1 = (float(v) for v in bbox)
        keep = []
        for w in wkbs:
            if w is None:
                keep.append(False)
                continue
            x0, y0, x1, y1 = wkb_envelope(w)
            keep.append(x0 <= qx1 and x1 >= qx0
                        and y0 <= qy1 and y1 >= qy0)
        t = t.filter(pa.array(keep))
    return t


# ---------------------------------------------------------------------------
# Ray integration
# ---------------------------------------------------------------------------

def write_fgb_partitioned(ds, out_dir: str, part_col: str,
                          geom_col: str = "wkb", **kw):
    """Distributed fgb sink: one ``<part>.fgb`` per partition-key group
    (fgb needs its header/index finalized over all of a file's features,
    so the file — not the row — is the unit of parallelism; same shape as
    the z/x/y tile sink).  Returns a manifest Dataset (part, path, rows)."""
    from .util import write_groups

    def encode(g: pa.Table, path: str, part: str) -> None:
        with open(path, "wb") as f:
            f.write(write_fgb(g, geom_col=geom_col, name=part, **kw))

    return write_groups(ds, out_dir, part_col, "fgb", encode)


def read_fgb_dataset(paths, *, bbox=None, geom_col: str = "wkb"):
    """fgb source → Ray Dataset: one read task per file (files are the
    natural parallel unit; bbox pushdown uses each file's packed index)."""
    import ray

    if isinstance(paths, str):
        paths = [paths]

    def load(batch: pa.Table) -> pa.Table:
        out = []
        for p in batch["path"].to_pylist():
            with open(p, "rb") as f:
                data = f.read()
            t = read_fgb(data, bbox=bbox, geom_col=geom_col)
            out.append(t)
        return pa.concat_tables(out) if out else pa.table({})

    files = ray.data.from_arrow(pa.table({"path": pa.array(paths)}))
    return files.map_batches(load, batch_format="pyarrow", batch_size=1)
