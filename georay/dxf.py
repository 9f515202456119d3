"""AutoCAD DXF driver — minimal ASCII (R12-flavored) profile of the
reference's ogr/ogrsf_frmts/dxf driver, from scratch against the
public DXF group-code reference.  A DXF file is a stream of
(group-code, value) line pairs; this driver reads the ENTITIES
section and writes a header-less R12 file (``SECTION``/``ENTITIES``/
``ENDSEC``/``EOF``), which every DXF consumer accepts.

Scope (honest subset, mirroring what the engine's pipelines need):

- READ: POINT (10/20), LINE (10/20 → 11/21), LWPOLYLINE (70 bit 1 =
  closed → Polygon, else LineString), legacy POLYLINE/VERTEX/SEQEND,
  CIRCLE (40 = radius, linearized at 96 segments — the reference
  linearizes arcs similarly, OGR_ARC_STEPSIZE), layer (code 8)
  carried as a string column.  Unknown entities are skipped.
- WRITE: Point / LineString / Polygon (each ring a closed LWPOLYLINE;
  holes carry the parent layer) / Multi* exploded, shortest-roundtrip
  float serialization (repr) so coordinates survive bit-exact.

The FILE is the parallel unit: ``read_dxf_files`` runs one Ray task per
file, like the other text drivers (xmldrivers.py)."""
from __future__ import annotations

import numpy as np
import pyarrow as pa

from .util import read_units

__all__ = ["write_dxf", "read_dxf", "read_dxf_files"]


def _f(v: float) -> str:
    return repr(float(v))


# ---------------------------------------------------------------------------
# write
# ---------------------------------------------------------------------------

def _emit_point(out, x, y, layer):
    out += ["0", "POINT", "8", layer, "10", _f(x), "20", _f(y)]


def _emit_lwpolyline(out, coords, closed, layer):
    out += ["0", "LWPOLYLINE", "8", layer,
            "90", str(len(coords)), "70", "1" if closed else "0"]
    for x, y in coords:
        out += ["10", _f(x), "20", _f(y)]


def _emit_geometry(out, g: dict, layer: str):
    t = g["type"]
    c = g["coordinates"]
    if t == "Point":
        _emit_point(out, c[0], c[1], layer)
    elif t == "LineString":
        _emit_lwpolyline(out, [(p[0], p[1]) for p in c], False, layer)
    elif t == "Polygon":
        for ring in c:
            pts = [(p[0], p[1]) for p in ring]
            if len(pts) > 1 and pts[0] == pts[-1]:
                pts = pts[:-1]          # closed flag carries the closure
            _emit_lwpolyline(out, pts, True, layer)
    elif t in ("MultiPoint", "MultiLineString", "MultiPolygon"):
        sub = {"MultiPoint": "Point", "MultiLineString": "LineString",
               "MultiPolygon": "Polygon"}[t]
        for part in c:
            _emit_geometry(out, {"type": sub, "coordinates": part}, layer)
    else:
        raise ValueError(f"DXF writer: unsupported geometry {t!r}")


def write_dxf(table: pa.Table, path: str, wkb_col: str = "wkb",
              layer_col: str | None = None) -> str:
    """Feature table → DXF file.  ``layer_col`` (string column) becomes
    the entity layer (code 8) — the one attribute DXF carries natively;
    default layer ``0``."""
    from .geojson import wkb_to_geometry
    layers = (table[layer_col].to_pylist() if layer_col
              else ["0"] * table.num_rows)
    out = ["0", "SECTION", "2", "ENTITIES"]
    for w, layer in zip(table[wkb_col].to_pylist(), layers):
        _emit_geometry(out, wkb_to_geometry(w), str(layer))
    out += ["0", "ENDSEC", "0", "EOF", ""]
    with open(path, "w", encoding="ascii") as f:
        f.write("\n".join(out))
    return path


# ---------------------------------------------------------------------------
# read
# ---------------------------------------------------------------------------

def _entity_chunks(text: str):
    """ENTITIES section → [(name, fields)] where fields maps
    group code → list of values in order (codes repeat: LWPOLYLINE
    vertices)."""
    lines = text.splitlines()
    pairs = []
    for i in range(0, len(lines) - 1, 2):
        try:
            code = int(lines[i].strip())
        except ValueError:
            continue
        pairs.append((code, lines[i + 1].strip()))
    chunks = []
    in_entities = False
    name, fields = None, None
    prev = None
    for code, value in pairs:
        if code == 0:
            if name is not None:
                chunks.append((name, fields))
                name, fields = None, None
            v = value.upper()
            if v == "ENDSEC":
                in_entities = False
            elif v == "EOF":
                break
            elif in_entities:
                name, fields = v, {}
            prev = v
            continue
        if code == 2 and prev == "SECTION":
            in_entities = value.upper() == "ENTITIES"
            prev = None
            continue
        if fields is not None:
            fields.setdefault(code, []).append(value)
    if name is not None:
        chunks.append((name, fields))
    return chunks


def _circle_coords(cx, cy, r, segments=96):
    th = np.linspace(0.0, 2.0 * np.pi, segments, endpoint=False)
    return [[float(cx + r * np.cos(a)), float(cy + r * np.sin(a))]
            for a in th]


def _fv(fields, code, idx=0, default=None):
    vals = fields.get(code)
    if not vals or idx >= len(vals):
        return default
    return float(vals[idx])


def read_dxf(path: str) -> pa.Table:
    """DXF file → table (wkb, layer, entity) over the supported
    entity set; rings close into Polygons when the 70 flag says so."""
    from .geojson import geometry_to_wkb
    with open(path, "r", encoding="ascii", errors="replace") as f:
        text = f.read()
    chunks = _entity_chunks(text)
    rows = []                     # (geometry, layer, etype)

    def ring_or_line(pts, closed, layer, etype):
        if closed and len(pts) >= 3:
            rows.append(({"type": "Polygon",
                          "coordinates": [pts + [pts[0]]]},
                         layer, etype))
        elif len(pts) >= 2:
            rows.append(({"type": "LineString", "coordinates": pts},
                         layer, etype))

    i = 0
    while i < len(chunks):
        name, fl = chunks[i]
        layer = fl.get(8, ["0"])[0]
        if name == "POINT" and 10 in fl:
            rows.append(({"type": "Point",
                          "coordinates": [_fv(fl, 10), _fv(fl, 20)]},
                         layer, name))
        elif name == "LINE" and 10 in fl and 11 in fl:
            rows.append(({"type": "LineString",
                          "coordinates": [[_fv(fl, 10), _fv(fl, 20)],
                                          [_fv(fl, 11), _fv(fl, 21)]]},
                         layer, name))
        elif name == "LWPOLYLINE" and 10 in fl:
            pts = [[float(x), float(y)]
                   for x, y in zip(fl[10], fl.get(20, []))]
            closed = int(float(fl.get(70, ["0"])[0])) & 1
            ring_or_line(pts, closed, layer, name)
        elif name == "CIRCLE" and 10 in fl and 40 in fl:
            ring = _circle_coords(_fv(fl, 10), _fv(fl, 20), _fv(fl, 40))
            rows.append(({"type": "Polygon",
                          "coordinates": [ring + [ring[0]]]},
                         layer, name))
        elif name == "POLYLINE":
            closed = int(float(fl.get(70, ["0"])[0])) & 1
            pts = []
            j = i + 1
            while j < len(chunks) and chunks[j][0] == "VERTEX":
                vf = chunks[j][1]
                if 10 in vf:
                    pts.append([_fv(vf, 10), _fv(vf, 20)])
                j += 1
            if j < len(chunks) and chunks[j][0] == "SEQEND":
                j += 1
            ring_or_line(pts, closed, layer, name)
            i = j
            continue
        # unknown entities skipped
        i += 1

    return pa.table({
        "wkb": pa.array([geometry_to_wkb(g) for g, _, _ in rows],
                        pa.binary()),
        "layer": pa.array([la for _, la, _ in rows], pa.string()),
        "entity": pa.array([e for _, _, e in rows], pa.string()),
    })


def _dxf_file(unit: dict) -> pa.Table:
    return read_dxf(unit["path"])


def read_dxf_files(paths: list[str]):
    """Many DXF files → one Dataset, one Ray task per file."""
    return read_units([{"path": p} for p in paths], _dxf_file)
