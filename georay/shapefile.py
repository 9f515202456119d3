"""ESRI Shapefile vector driver (.shp/.shx/.dbf) — the reference's most
classic vector format (ogr/ogrsf_frmts/shape, which wraps shapelib),
re-implemented from scratch against the public ESRI Shapefile Technical
Description (1998) and the dBase III file layout, for the engine's
WKB-column table model.

* ``write_shapefile``: Arrow table / Dataset with a ``wkb`` binary
  column + scalar attribute columns → ``base.shp`` + ``base.shx`` +
  ``base.dbf``.  Ring winding is normalized to the shapefile convention
  (outer rings clockwise, holes counter-clockwise); attributes map to
  dBase C/N/F/L fields with OGR's default widths.
* ``read_shapefile``: the inverse — records → WKB + attribute columns,
  holes re-assigned to the enclosing outer ring by point-in-ring test
  (the small, deterministic core of OGR's organizePolygons()).

Like the GeoJSON driver this is the SMALL-side format: one .shp parses
driver-side into one Arrow table (``read_shapefile(...).to_dataset()``
hands it to Ray); parquet remains the 100 TB source.  The .shx index
would allow record-range sharding for a distributed read — documented,
not needed at the sizes shapefiles legally reach (4 GB offset limit).
"""

from __future__ import annotations

import struct

import numpy as np
import pyarrow as pa

__all__ = ["write_shapefile", "read_shapefile", "wkb_to_shp_records",
           "shp_records_to_wkb"]

_SHP_NULL, _SHP_POINT, _SHP_POLYLINE, _SHP_POLYGON, _SHP_MULTIPOINT = \
    0, 1, 3, 5, 8


def _ring_area2(pts: np.ndarray) -> float:
    """Twice the signed area (shoelace); shapefile outer rings are
    CLOCKWISE = negative in the usual Y-up convention."""
    x, y = pts[:, 0], pts[:, 1]
    return float(np.dot(x, np.roll(y, -1)) - np.dot(np.roll(x, -1), y))


def _close(pts: np.ndarray) -> np.ndarray:
    if len(pts) and not np.array_equal(pts[0], pts[-1]):
        pts = np.vstack([pts, pts[:1]])
    return pts


def _point_in_ring(pt, ring: np.ndarray) -> bool:
    x, y = pt
    x1, y1 = ring[:-1, 0], ring[:-1, 1]
    x2, y2 = ring[1:, 0], ring[1:, 1]
    straddle = (y1 > y) != (y2 > y)
    with np.errstate(divide="ignore", invalid="ignore"):
        xint = x1 + (y - y1) * (x2 - x1) / (y2 - y1)
    return bool(np.count_nonzero(straddle & (x < xint)) & 1)


# ---------------------------------------------------------------------------
# WKB ⇄ shapefile record geometry
# ---------------------------------------------------------------------------

def wkb_to_shp_records(wkb: bytes):
    """One WKB geometry → (shape_type, parts) where parts is a list of
    (n,2) float64 arrays (rings/lines) or a single point array."""
    from .geojson import wkb_to_geometry
    g = wkb_to_geometry(wkb)
    t = g["type"]
    if t == "Point":
        return _SHP_POINT, np.asarray(g["coordinates"],
                                      dtype=np.float64)[None, :2]
    if t == "MultiPoint":
        return _SHP_MULTIPOINT, np.asarray(g["coordinates"],
                                           dtype=np.float64)[:, :2]
    if t == "LineString":
        return _SHP_POLYLINE, [np.asarray(g["coordinates"],
                                          dtype=np.float64)[:, :2]]
    if t == "MultiLineString":
        return _SHP_POLYLINE, [np.asarray(c, dtype=np.float64)[:, :2]
                               for c in g["coordinates"]]
    if t in ("Polygon", "MultiPolygon"):
        polys = ([g["coordinates"]] if t == "Polygon"
                 else g["coordinates"])
        rings = []
        for poly in polys:
            for k, ring in enumerate(poly):
                r = _close(np.asarray(ring, dtype=np.float64)[:, :2])
                a2 = _ring_area2(r)
                # outer CW (a2<0), holes CCW (a2>0) — flip as needed
                if (k == 0) == (a2 > 0):
                    r = r[::-1]
                rings.append(r)
        return _SHP_POLYGON, rings
    raise ValueError(f"shapefile cannot store geometry type {t}")


def shp_records_to_wkb(shape_type: int, parts) -> bytes:
    """Shapefile record geometry → WKB, organizing polygon rings:
    clockwise rings are outers, each counter-clockwise ring becomes a
    hole of the outer ring containing its first vertex."""
    from .geojson import geometry_to_wkb
    if shape_type == _SHP_POINT:
        return geometry_to_wkb({"type": "Point",
                                "coordinates": list(parts[0])})
    if shape_type == _SHP_MULTIPOINT:
        return geometry_to_wkb({"type": "MultiPoint",
                                "coordinates": parts.tolist()})
    if shape_type == _SHP_POLYLINE:
        if len(parts) == 1:
            return geometry_to_wkb({"type": "LineString",
                                    "coordinates": parts[0].tolist()})
        return geometry_to_wkb({"type": "MultiLineString",
                                "coordinates": [p.tolist() for p in parts]})
    if shape_type == _SHP_POLYGON:
        outers, holes = [], []
        for r in parts:
            (outers if _ring_area2(r) < 0 else holes).append(r)
        if not outers:          # malformed: treat every ring as an outer
            outers, holes = list(parts), []
        polys = [[o[::-1]] for o in outers]   # WKB/GeoJSON: outer CCW
        for hole in holes:
            for i, o in enumerate(outers):
                if _point_in_ring(hole[0], o):
                    polys[i].append(hole[::-1])
                    break
            else:
                polys.append([hole])          # orphan hole → own polygon
        coords = [[r.tolist() for r in p] for p in polys]
        if len(coords) == 1:
            return geometry_to_wkb({"type": "Polygon",
                                    "coordinates": coords[0]})
        return geometry_to_wkb({"type": "MultiPolygon",
                                "coordinates": coords})
    raise ValueError(f"unsupported shape type {shape_type}")


def _encode_record(shape_type: int, parts) -> bytes:
    if shape_type == _SHP_POINT:
        return struct.pack("<idd", _SHP_POINT, parts[0, 0], parts[0, 1])
    if shape_type == _SHP_MULTIPOINT:
        pts = np.ascontiguousarray(parts, dtype=np.float64)
        return (struct.pack("<i4di", _SHP_MULTIPOINT,
                            pts[:, 0].min(), pts[:, 1].min(),
                            pts[:, 0].max(), pts[:, 1].max(), len(pts))
                + pts.tobytes())
    all_pts = np.vstack(parts)
    starts, n = [], 0
    for p in parts:
        starts.append(n)
        n += len(p)
    return (struct.pack("<i4dii", shape_type,
                        all_pts[:, 0].min(), all_pts[:, 1].min(),
                        all_pts[:, 0].max(), all_pts[:, 1].max(),
                        len(parts), n)
            + np.asarray(starts, dtype="<i4").tobytes()
            + np.ascontiguousarray(all_pts, dtype="<f8").tobytes())


def _decode_record(buf: memoryview):
    st = struct.unpack_from("<i", buf, 0)[0]
    if st == _SHP_NULL:
        return st, None
    if st == _SHP_POINT:
        return st, np.array(struct.unpack_from("<2d", buf, 4))[None, :]
    if st == _SHP_MULTIPOINT:
        n = struct.unpack_from("<i", buf, 36)[0]
        return st, np.frombuffer(buf, "<f8", 2 * n, 40).reshape(n, 2)
    if st in (_SHP_POLYLINE, _SHP_POLYGON):
        np_, n = struct.unpack_from("<ii", buf, 36)
        starts = np.frombuffer(buf, "<i4", np_, 44)
        pts = np.frombuffer(buf, "<f8", 2 * n, 44 + 4 * np_).reshape(n, 2)
        bounds = np.append(starts, n)
        return st, [pts[bounds[i]:bounds[i + 1]].copy()
                    for i in range(np_)]
    raise ValueError(f"unsupported shape type {st} "
                     "(Z/M variants: engine is 2-D)")


# ---------------------------------------------------------------------------
# dBase III attribute file
# ---------------------------------------------------------------------------

def _dbf_fields(table: pa.Table, wkb_col: str):
    fields = []
    for name, typ in zip(table.schema.names, table.schema.types):
        if name == wkb_col:
            continue
        if pa.types.is_string(typ) or pa.types.is_large_string(typ):
            col = table[name].to_pylist()
            width = min(254, max([len(str(v)) for v in col
                                  if v is not None] or [1]))
            fields.append((name, b"C", width, 0))
        elif pa.types.is_integer(typ):
            fields.append((name, b"N", 18, 0))
        elif pa.types.is_floating(typ):
            fields.append((name, b"N", 24, 15))
        elif pa.types.is_boolean(typ):
            fields.append((name, b"L", 1, 0))
        else:
            raise ValueError(
                f"dBase cannot store column {name!r} of type {typ}")
    return fields


def _dbf_write(path: str, table: pa.Table, wkb_col: str):
    fields = _dbf_fields(table, wkb_col)
    rec_size = 1 + sum(f[2] for f in fields)
    hdr_size = 32 + 32 * len(fields) + 1
    with open(path, "wb") as f:
        f.write(struct.pack("<B3BIHH20x", 0x03, 95, 1, 1,
                            table.num_rows, hdr_size, rec_size))
        for name, typ, width, dec in fields:
            f.write(struct.pack("<11s c 4x B B 14x",
                                name.encode("ascii")[:10], typ, width,
                                dec))
        f.write(b"\x0d")
        cols = [(table[n].to_pylist(), t, w, d) for n, t, w, d in fields]
        for i in range(table.num_rows):
            f.write(b" ")
            for vals, typ, width, dec in cols:
                v = vals[i]
                if typ == b"C":
                    s = ("" if v is None else str(v))[:width]
                    f.write(s.encode("utf-8", "replace")[:width]
                            .ljust(width))
                elif typ == b"N":
                    s = ("" if v is None
                         else (f"{v:.{dec}f}" if dec else str(int(v))))
                    f.write(s[:width].rjust(width).encode("ascii"))
                else:   # L
                    f.write(b"?" if v is None else (b"T" if v else b"F"))
        f.write(b"\x1a")


def _dbf_read(path: str) -> pa.Table:
    with open(path, "rb") as f:
        data = f.read()
    cut = ValueError(f"truncated dbf at byte {len(data)}")
    if len(data) < 32:
        raise cut
    nrec, hdr_size, rec_size = struct.unpack_from("<IHH", data, 4)
    if hdr_size + nrec * rec_size > len(data):
        raise cut
    fields, off = [], 32
    while data[off] != 0x0D:
        name = data[off:off + 11].split(b"\x00")[0].decode("ascii")
        typ = data[off + 11:off + 12]
        width = data[off + 16]
        dec = data[off + 17]
        fields.append((name, typ, width, dec))
        off += 32
    cols = {name: [] for name, _, _, _ in fields}
    pos = hdr_size
    for _ in range(nrec):
        rec = data[pos:pos + rec_size]
        pos += rec_size
        if rec[:1] == b"*":     # deleted record
            continue
        o = 1
        for name, typ, width, dec in fields:
            raw = rec[o:o + width]
            o += width
            if typ == b"C":
                cols[name].append(raw.decode("utf-8", "replace").rstrip()
                                  or None)
            elif typ in (b"N", b"F"):
                s = raw.strip()
                if not s:
                    cols[name].append(None)
                elif dec or b"." in s:
                    cols[name].append(float(s))
                else:
                    cols[name].append(int(s))
            elif typ == b"L":
                cols[name].append(None if raw in b"?  " else
                                  raw in b"TtYy")
            else:
                cols[name].append(raw.decode("ascii", "replace"))
    return pa.table(cols) if fields else pa.table({})


# ---------------------------------------------------------------------------
# .shp / .shx writer + reader
# ---------------------------------------------------------------------------

def write_shapefile(ds_or_table, base: str, wkb_col: str = "wkb") -> str:
    """Dataset/table → ``base``.shp/.shx/.dbf.  All geometries must map
    to ONE shapefile type class (point / multipoint / polyline /
    polygon) — the format stores a single shape type per file."""
    t = ds_or_table
    if not isinstance(t, pa.Table):
        t = pa.concat_tables(list(
            t.iter_batches(batch_size=65536, batch_format="pyarrow")))
    recs = [wkb_to_shp_records(w.as_py() if hasattr(w, "as_py") else w)
            for w in t[wkb_col]]
    types = {st for st, _ in recs}
    if len(types) > 1:
        raise ValueError(f"mixed shape types {sorted(types)} — "
                         "a shapefile stores exactly one")
    shape_type = recs[0][0] if recs else _SHP_NULL
    payloads = [_encode_record(st, parts) for st, parts in recs]
    all_xy = [parts if st in (_SHP_POINT, _SHP_MULTIPOINT)
              else np.vstack(parts) for st, parts in recs]
    bbox = (np.vstack(all_xy) if all_xy
            else np.zeros((1, 2)))
    header = struct.pack(">i20x", 9994)     # + per-file length at 24
    tail = struct.pack("<ii4d4d", 1000, shape_type,
                       bbox[:, 0].min(), bbox[:, 1].min(),
                       bbox[:, 0].max(), bbox[:, 1].max(),
                       0.0, 0.0, 0.0, 0.0)
    shp_len = 100 + sum(8 + len(p) for p in payloads)
    shx_len = 100 + 8 * len(payloads)
    with open(base + ".shp", "wb") as fshp, \
            open(base + ".shx", "wb") as fshx:
        fshp.write(header + struct.pack(">i", shp_len // 2) + tail)
        fshx.write(header + struct.pack(">i", shx_len // 2) + tail)
        off = 100
        for i, p in enumerate(payloads):
            fshp.write(struct.pack(">ii", i + 1, len(p) // 2) + p)
            fshx.write(struct.pack(">ii", off // 2, len(p) // 2))
            off += 8 + len(p)
    _dbf_write(base + ".dbf", t, wkb_col)
    return base


class _ShapefileResult:
    """Parsed shapefile as an Arrow table, with a Dataset hand-off."""

    def __init__(self, table: pa.Table):
        self.table = table

    def to_dataset(self):
        import ray
        return ray.data.from_arrow(self.table)


def read_shapefile(base: str, wkb_col: str = "wkb") -> _ShapefileResult:
    """``base``.shp (+.dbf if present) → Arrow table with ``wkb`` +
    attribute columns.  Null-shape records yield null wkb."""
    import os
    with open(base + ".shp", "rb") as f:
        data = memoryview(f.read())
    file_len = struct.unpack_from(">i", data, 24)[0] * 2
    wkbs, pos = [], 100
    while pos < file_len:
        _, clen = struct.unpack_from(">ii", data, pos)
        st, parts = _decode_record(data[pos + 8:pos + 8 + clen * 2])
        wkbs.append(None if parts is None
                    else shp_records_to_wkb(st, parts))
        pos += 8 + clen * 2
    out = pa.table({wkb_col: pa.array(wkbs, pa.binary())})
    if os.path.exists(base + ".dbf"):
        attrs = _dbf_read(base + ".dbf")
        for name in attrs.schema.names:
            if attrs.num_rows == out.num_rows:
                out = out.append_column(name, attrs[name])
    return _ShapefileResult(out)
