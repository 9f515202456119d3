"""MapInfo MIF/MID interchange driver — minimal profile of the
reference's ogr/ogrsf_frmts/mitab MIF support, from scratch against
the public MapInfo Interchange Format description.  A dataset is a
``.mif`` file (header: Version/Delimiter/Columns, then ``Data`` and
one geometry record per feature) plus a ``.mid`` sidecar carrying the
delimited attribute rows in the same order.

Scope (honest subset): POINT, LINE (2-point), PLINE [MULTIPLE],
REGION (multi-ring; first ring exterior — rings are implicitly
closed), NONE; attribute types Integer, Float, Char(n).  Styling
clauses (Pen/Brush/Symbol) are skipped on read, omitted on write.
Floats serialize with repr (shortest roundtrip) — coordinates and
Float attributes survive bit-exact.

The FILE PAIR is the parallel unit: ``read_mif_files`` runs one Ray
task per pair, like the other text drivers (xmldrivers.py, dxf.py)."""
from __future__ import annotations

import os

import pyarrow as pa

from .util import read_units

__all__ = ["write_mif", "read_mif", "read_mif_files"]


def _f(v: float) -> str:
    return repr(float(v))


# ---------------------------------------------------------------------------
# write
# ---------------------------------------------------------------------------

def _col_decl(name: str, typ: pa.DataType) -> str:
    if pa.types.is_integer(typ):
        return f"  {name} Integer"
    if pa.types.is_floating(typ):
        return f"  {name} Float"
    return f"  {name} Char(254)"


def _emit_geom(out, g: dict):
    t, c = g["type"], g["coordinates"]
    if t == "Point":
        out.append(f"Point {_f(c[0])} {_f(c[1])}")
    elif t == "LineString":
        if len(c) == 2:
            out.append(f"Line {_f(c[0][0])} {_f(c[0][1])} "
                       f"{_f(c[1][0])} {_f(c[1][1])}")
        else:
            out.append(f"Pline {len(c)}")
            out += [f"{_f(x)} {_f(y)}" for x, y in
                    ((p[0], p[1]) for p in c)]
    elif t == "MultiLineString":
        out.append(f"Pline Multiple {len(c)}")
        for part in c:
            out.append(str(len(part)))
            out += [f"{_f(p[0])} {_f(p[1])}" for p in part]
    elif t == "Polygon" or t == "MultiPolygon":
        rings = list(c) if t == "Polygon" else [r for poly in c
                                                for r in poly]
        out.append(f"Region {len(rings)}")
        for ring in rings:
            pts = [(p[0], p[1]) for p in ring]
            if len(pts) > 1 and pts[0] == pts[-1]:
                pts = pts[:-1]          # MIF regions implicitly close
            out.append(str(len(pts)))
            out += [f"{_f(x)} {_f(y)}" for x, y in pts]
    elif t == "MultiPoint":
        # MIF has no native multipoint in this profile — explode is the
        # caller's job; a single feature keeps its first point
        raise ValueError("MIF writer: explode MultiPoint first")
    else:
        raise ValueError(f"MIF writer: unsupported geometry {t!r}")


def write_mif(table: pa.Table, path: str, wkb_col: str = "wkb") -> str:
    """Feature table → ``path``(.mif) + matching ``.mid``.  Every
    non-geometry column becomes a MID attribute (Integer/Float/Char)."""
    from .geojson import wkb_to_geometry
    base = path[:-4] if path.lower().endswith(".mif") else path
    attr_cols = [n for n in table.column_names if n != wkb_col]
    mif = ["Version 300", 'Charset "Neutral"', 'Delimiter ","',
           f"Columns {len(attr_cols)}"]
    mif += [_col_decl(n, table.schema.field(n).type) for n in attr_cols]
    mif.append("Data")
    mif.append("")
    for w in table[wkb_col].to_pylist():
        _emit_geom(mif, wkb_to_geometry(w))
    mid = []
    cols = [table[n].to_pylist() for n in attr_cols]
    for i in range(table.num_rows):
        parts = []
        for n, vals in zip(attr_cols, cols):
            v = vals[i]
            typ = table.schema.field(n).type
            if pa.types.is_floating(typ):
                parts.append(_f(v))
            elif pa.types.is_integer(typ):
                parts.append(str(v))
            else:
                parts.append('"%s"' % str(v).replace('"', '""'))
        mid.append(",".join(parts))
    with open(base + ".mif", "w", encoding="ascii") as f:
        f.write("\n".join(mif) + "\n")
    with open(base + ".mid", "w", encoding="ascii") as f:
        f.write("\n".join(mid) + "\n")
    return base + ".mif"


# ---------------------------------------------------------------------------
# read
# ---------------------------------------------------------------------------

_STYLE_WORDS = ("PEN", "BRUSH", "SYMBOL", "SMOOTH", "CENTER")


def _split_mid(line: str, delim: str) -> list[str]:
    out, cur, inq = [], [], False
    i = 0
    while i < len(line):
        ch = line[i]
        if inq:
            if ch == '"':
                if i + 1 < len(line) and line[i + 1] == '"':
                    cur.append('"')
                    i += 2
                    continue
                inq = False
            else:
                cur.append(ch)
        elif ch == '"':
            inq = True
        elif ch == delim:
            out.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
        i += 1
    out.append("".join(cur))
    return out


def read_mif(path: str) -> pa.Table:
    """MIF/MID pair → table (wkb + typed attribute columns)."""
    from .geojson import geometry_to_wkb
    base = path[:-4] if path.lower().endswith(".mif") else path
    with open(base + ".mif", "r", encoding="ascii",
              errors="replace") as f:
        lines = [ln.rstrip("\n") for ln in f]
    delim = ","
    columns = []                    # (name, kind)  kind: int|float|str
    i = 0
    while i < len(lines):
        s = lines[i].strip()
        u = s.upper()
        if u.startswith("DELIMITER"):
            q = s.split('"')
            if len(q) >= 2 and q[1]:
                delim = q[1][0]
        elif u.startswith("COLUMNS"):
            n = int(s.split()[1])
            for k in range(n):
                i += 1
                name, typ = lines[i].strip().split(None, 1)
                tu = typ.upper()
                kind = ("int" if tu.startswith(("INTEGER", "SMALLINT"))
                        else "float" if tu.startswith(("FLOAT",
                                                       "DECIMAL"))
                        else "str")
                columns.append((name, kind))
        elif u == "DATA":
            i += 1
            break
        i += 1

    geoms = []
    while i < len(lines):
        s = lines[i].strip()
        if not s:
            i += 1
            continue
        w = s.split()
        kw = w[0].upper()
        if kw == "POINT":
            geoms.append({"type": "Point",
                          "coordinates": [float(w[1]), float(w[2])]})
        elif kw == "LINE":
            geoms.append({"type": "LineString",
                          "coordinates": [[float(w[1]), float(w[2])],
                                          [float(w[3]), float(w[4])]]})
        elif kw == "PLINE":
            if len(w) > 1 and w[1].upper() == "MULTIPLE":
                nparts = int(w[2])
                parts = []
                for _ in range(nparts):
                    i += 1
                    npt = int(lines[i].strip())
                    pts = []
                    for _ in range(npt):
                        i += 1
                        x, y = lines[i].split()
                        pts.append([float(x), float(y)])
                    parts.append(pts)
                geoms.append({"type": "MultiLineString",
                              "coordinates": parts})
            else:
                npt = int(w[1])
                pts = []
                for _ in range(npt):
                    i += 1
                    x, y = lines[i].split()
                    pts.append([float(x), float(y)])
                geoms.append({"type": "LineString", "coordinates": pts})
        elif kw == "REGION":
            nrings = int(w[1])
            rings = []
            for _ in range(nrings):
                i += 1
                npt = int(lines[i].strip())
                pts = []
                for _ in range(npt):
                    i += 1
                    x, y = lines[i].split()
                    pts.append([float(x), float(y)])
                if pts and pts[0] != pts[-1]:
                    pts.append(list(pts[0]))
                rings.append(pts)
            geoms.append({"type": "Polygon", "coordinates": rings})
        elif kw == "NONE":
            geoms.append(None)
        elif kw in _STYLE_WORDS:
            pass                     # styling clause — skip
        i += 1

    # attributes
    names = [n for n, _ in columns]
    kinds = {n: k for n, k in columns}
    rows = []
    mid_path = base + ".mid"
    if columns and os.path.exists(mid_path):
        with open(mid_path, "r", encoding="ascii",
                  errors="replace") as f:
            for ln in f:
                ln = ln.rstrip("\n")
                if ln:
                    rows.append(_split_mid(ln, delim))
    data = {"wkb": pa.array(
        [geometry_to_wkb(g) if g else None for g in geoms],
        pa.binary())}
    for j, n in enumerate(names):
        vals = [r[j] if j < len(r) else None for r in rows]
        vals += [None] * (len(geoms) - len(vals))
        if kinds[n] == "int":
            data[n] = pa.array([int(v) if v not in (None, "") else None
                                for v in vals], pa.int64())
        elif kinds[n] == "float":
            data[n] = pa.array([float(v) if v not in (None, "") else None
                                for v in vals], pa.float64())
        else:
            data[n] = pa.array(vals, pa.string())
    return pa.table(data)


def _mif_file(unit: dict) -> pa.Table:
    return read_mif(unit["path"])


def read_mif_files(paths: list[str]):
    """Many MIF/MID pairs → one Dataset, one Ray task per pair."""
    return read_units([{"path": p} for p in paths], _mif_file)
