"""GPX and KML vector drivers — the reference's ogr/ogrsf_frmts/gpx and
/kml drivers (Topografix GPX 1.1, OGC KML 2.2) re-expressed for the
engine's WKB-column table model on stdlib ElementTree.

GPX: waypoints (``<wpt lat lon>`` + name/ele/desc), tracks (``<trk>`` →
one LineString per ``<trkseg>``), routes (``<rte>`` → LineString) — the
same layer split OGR's GPX driver exposes.  KML: ``<Placemark>`` with
Point/LineString/Polygon/MultiGeometry, ``<name>`` and
``<ExtendedData><Data name=…><value>`` attribute fields.

Scale shape: single XML documents are not block-splittable, so each
FILE is the parallel unit — ``read_gpx_files`` / ``read_kml_files`` /
``read_gml_files`` run one Ray task per file of their path list, the
same per-file model the reference uses.  Coordinates serialize via
``repr(float)`` (shortest roundtrip form), so geometry survives
bit-exact — unlike the quantized OSM/MVT grids.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET

import numpy as np
import pyarrow as pa

from .geojson import geometry_to_wkb, wkb_to_geometry
from .util import read_units

__all__ = ["write_gpx", "read_gpx", "read_gpx_files",
           "write_kml", "read_kml", "read_kml_files",
           "write_gml", "read_gml", "read_gml_files"]

_GPX_NS = "http://www.topografix.com/GPX/1/1"
_KML_NS = "http://www.opengis.net/kml/2.2"
_GML_NS = "http://www.opengis.net/gml/3.2"


def _f(v: float) -> str:
    return repr(float(v))


# ---------------------------------------------------------------------------
# GPX
# ---------------------------------------------------------------------------

def write_gpx(path: str, waypoints: pa.Table | None = None,
              tracks: pa.Table | None = None) -> int:
    """``waypoints``: (wkb POINT [, name, ele, desc]); ``tracks``:
    (wkb LINESTRING [, name]).  Returns features written."""
    root = ET.Element("gpx", {"version": "1.1", "creator": "georay",
                              "xmlns": _GPX_NS})
    n = 0
    if waypoints is not None:
        extra = [c for c in waypoints.column_names if c != "wkb"]
        for i in range(waypoints.num_rows):
            g = wkb_to_geometry(waypoints["wkb"][i].as_py())
            if g["type"] != "Point":
                raise ValueError("waypoints must be POINT wkb")
            x, y = g["coordinates"]
            wpt = ET.SubElement(root, "wpt",
                                {"lat": _f(y), "lon": _f(x)})
            for c in extra:
                v = waypoints[c][i].as_py()
                if v is not None:
                    ET.SubElement(wpt, c).text = str(v)
            n += 1
    if tracks is not None:
        extra = [c for c in tracks.column_names if c != "wkb"]
        for i in range(tracks.num_rows):
            g = wkb_to_geometry(tracks["wkb"][i].as_py())
            if g["type"] != "LineString":
                raise ValueError("tracks must be LINESTRING wkb")
            trk = ET.SubElement(root, "trk")
            for c in extra:
                v = tracks[c][i].as_py()
                if v is not None:
                    ET.SubElement(trk, c).text = str(v)
            seg = ET.SubElement(trk, "trkseg")
            for x, y in g["coordinates"]:
                ET.SubElement(seg, "trkpt", {"lat": _f(y), "lon": _f(x)})
            n += 1
    ET.ElementTree(root).write(path, encoding="unicode",
                               xml_declaration=True)
    return n


def _strip(tag: str) -> str:
    return tag.rsplit("}", 1)[-1]


def read_gpx(path: str) -> dict[str, pa.Table]:
    """GPX file → {"waypoints": table, "tracks": table} (each geometry
    as WKB + the text child fields as string columns)."""
    root = ET.parse(path).getroot()
    wpts, wcols = [], []
    trks = []
    for el in root:
        tag = _strip(el.tag)
        if tag == "wpt":
            row = {"wkb": geometry_to_wkb(
                {"type": "Point",
                 "coordinates": [float(el.get("lon")),
                                 float(el.get("lat"))]})}
            for ch in el:
                row[_strip(ch.tag)] = ch.text
                if _strip(ch.tag) not in wcols:
                    wcols.append(_strip(ch.tag))
            wpts.append(row)
        elif tag == "trk":
            name = None
            for ch in el:
                ctag = _strip(ch.tag)
                if ctag == "trkseg":
                    pts = [[float(p.get("lon")), float(p.get("lat"))]
                           for p in ch if _strip(p.tag) == "trkpt"]
                    trks.append({"wkb": geometry_to_wkb(
                        {"type": "LineString", "coordinates": pts}),
                        "name": name})
                elif ctag == "name":
                    name = ch.text
    out = {}
    if wpts:
        cols = {"wkb": pa.array([r["wkb"] for r in wpts], pa.binary())}
        for c in wcols:
            cols[c] = pa.array([r.get(c) for r in wpts], pa.string())
        out["waypoints"] = pa.table(cols)
    if trks:
        out["tracks"] = pa.table({
            "wkb": pa.array([r["wkb"] for r in trks], pa.binary()),
            "name": pa.array([r["name"] for r in trks], pa.string())})
    return out


# ---------------------------------------------------------------------------
# KML
# ---------------------------------------------------------------------------

def _kml_coords(text: str) -> list:
    pts = []
    for tok in (text or "").split():
        parts = tok.split(",")
        pts.append([float(parts[0]), float(parts[1])])
    return pts


def _kml_geometry(el) -> dict | None:
    tag = _strip(el.tag)
    if tag == "Point":
        for ch in el:
            if _strip(ch.tag) == "coordinates":
                return {"type": "Point",
                        "coordinates": _kml_coords(ch.text)[0]}
    elif tag == "LineString":
        for ch in el:
            if _strip(ch.tag) == "coordinates":
                return {"type": "LineString",
                        "coordinates": _kml_coords(ch.text)}
    elif tag == "Polygon":
        outer, inners = None, []
        for ch in el:
            ctag = _strip(ch.tag)
            ring = None
            for lr in ch.iter():
                if _strip(lr.tag) == "coordinates":
                    ring = _kml_coords(lr.text)
            if ring is None:
                continue
            if ctag == "outerBoundaryIs":
                outer = ring
            elif ctag == "innerBoundaryIs":
                inners.append(ring)
        if outer is not None:
            return {"type": "Polygon", "coordinates": [outer] + inners}
    elif tag == "MultiGeometry":
        geoms = [g for g in (_kml_geometry(ch) for ch in el)
                 if g is not None]
        if geoms:
            return {"type": "GeometryCollection", "geometries": geoms}
    return None


def _geom_to_kml(parent, g: dict):
    t = g["type"]
    if t == "Point":
        el = ET.SubElement(parent, "Point")
        ET.SubElement(el, "coordinates").text = \
            f"{_f(g['coordinates'][0])},{_f(g['coordinates'][1])}"
    elif t == "LineString":
        el = ET.SubElement(parent, "LineString")
        ET.SubElement(el, "coordinates").text = " ".join(
            f"{_f(x)},{_f(y)}" for x, y in g["coordinates"])
    elif t == "Polygon":
        el = ET.SubElement(parent, "Polygon")
        for j, ring in enumerate(g["coordinates"]):
            b = ET.SubElement(el, "outerBoundaryIs" if j == 0
                              else "innerBoundaryIs")
            lr = ET.SubElement(b, "LinearRing")
            ET.SubElement(lr, "coordinates").text = " ".join(
                f"{_f(x)},{_f(y)}" for x, y in ring)
    elif t in ("MultiPoint", "MultiLineString", "MultiPolygon"):
        el = ET.SubElement(parent, "MultiGeometry")
        part = t.removeprefix("Multi")
        for c in g["coordinates"]:
            _geom_to_kml(el, {"type": part, "coordinates": c})
    elif t == "GeometryCollection":
        el = ET.SubElement(parent, "MultiGeometry")
        for sub in g["geometries"]:
            _geom_to_kml(el, sub)
    else:
        raise ValueError(f"unsupported geometry {t!r}")


def write_kml(table: pa.Table, path: str, wkb_col: str = "wkb",
              name_col: str | None = None) -> int:
    """Table → KML Document of Placemarks; non-geometry columns become
    ExtendedData fields (``name_col`` maps to ``<name>``)."""
    root = ET.Element("kml", {"xmlns": _KML_NS})
    doc = ET.SubElement(root, "Document")
    extra = [c for c in table.column_names
             if c not in (wkb_col, name_col)]
    for i in range(table.num_rows):
        pm = ET.SubElement(doc, "Placemark")
        if name_col is not None:
            v = table[name_col][i].as_py()
            if v is not None:
                ET.SubElement(pm, "name").text = str(v)
        if extra:
            ed = ET.SubElement(pm, "ExtendedData")
            for c in extra:
                v = table[c][i].as_py()
                if v is None:
                    continue
                d = ET.SubElement(ed, "Data", {"name": c})
                ET.SubElement(d, "value").text = str(v)
        _geom_to_kml(pm, wkb_to_geometry(table[wkb_col][i].as_py()))
    ET.ElementTree(root).write(path, encoding="unicode",
                               xml_declaration=True)
    return table.num_rows


def read_kml(path: str) -> pa.Table:
    """KML file → table (wkb + name + ExtendedData string columns)."""
    root = ET.parse(path).getroot()
    rows, cols = [], []
    for pm in root.iter():
        if _strip(pm.tag) != "Placemark":
            continue
        row = {"wkb": None, "name": None}
        for ch in pm:
            tag = _strip(ch.tag)
            if tag == "name":
                row["name"] = ch.text
            elif tag == "ExtendedData":
                for d in ch:
                    key = d.get("name")
                    val = None
                    for vv in d:
                        if _strip(vv.tag) == "value":
                            val = vv.text
                    row[key] = val
                    if key not in cols:
                        cols.append(key)
            else:
                g = _kml_geometry(ch)
                if g is not None:
                    row["wkb"] = geometry_to_wkb(g)
        rows.append(row)
    out = {"wkb": pa.array([r["wkb"] for r in rows], pa.binary()),
           "name": pa.array([r["name"] for r in rows], pa.string())}
    for c in cols:
        out[c] = pa.array([r.get(c) for r in rows], pa.string())
    return pa.table(out)


# ---------------------------------------------------------------------------
# GML (3.2 simple features; reference scope ogr/ogrsf_frmts/gml —
# GDAL's largest XML driver surface, here the SF-0 core: Point /
# LineString(posList) / Polygon(exterior+interior LinearRings) /
# Multi* members, x-y axis order with srsDimension=2)
# ---------------------------------------------------------------------------

def _gml_pos_list(coords) -> str:
    return " ".join(f"{_f(x)} {_f(y)}" for x, y in coords)


def _geom_to_gml(parent, g: dict):
    t = g["type"]
    if t == "Point":
        el = ET.SubElement(parent, "gml:Point")
        ET.SubElement(el, "gml:pos").text = \
            f"{_f(g['coordinates'][0])} {_f(g['coordinates'][1])}"
    elif t == "LineString":
        el = ET.SubElement(parent, "gml:LineString")
        ET.SubElement(el, "gml:posList",
                      {"srsDimension": "2"}).text = \
            _gml_pos_list(g["coordinates"])
    elif t == "Polygon":
        el = ET.SubElement(parent, "gml:Polygon")
        for j, ring in enumerate(g["coordinates"]):
            b = ET.SubElement(el, "gml:exterior" if j == 0
                              else "gml:interior")
            lr = ET.SubElement(b, "gml:LinearRing")
            ET.SubElement(lr, "gml:posList",
                          {"srsDimension": "2"}).text = \
                _gml_pos_list(ring)
    elif t in ("MultiPoint", "MultiLineString", "MultiPolygon"):
        tag, member, part = {
            "MultiPoint": ("gml:MultiPoint", "gml:pointMember", "Point"),
            "MultiLineString": ("gml:MultiCurve", "gml:curveMember",
                                "LineString"),
            "MultiPolygon": ("gml:MultiSurface", "gml:surfaceMember",
                             "Polygon"),
        }[t]
        el = ET.SubElement(parent, tag)
        for c in g["coordinates"]:
            m = ET.SubElement(el, member)
            _geom_to_gml(m, {"type": part, "coordinates": c})
    else:
        raise ValueError(f"unsupported geometry {t!r}")


def _gml_parse_geom(el) -> dict | None:
    tag = _strip(el.tag)
    if tag == "Point":
        for ch in el.iter():
            if _strip(ch.tag) in ("pos", "coordinates"):
                toks = ch.text.replace(",", " ").split()
                return {"type": "Point",
                        "coordinates": [float(toks[0]), float(toks[1])]}
    elif tag in ("LineString", "Curve"):
        for ch in el.iter():
            if _strip(ch.tag) == "posList":
                v = [float(t) for t in ch.text.split()]
                return {"type": "LineString",
                        "coordinates": [v[i:i + 2]
                                        for i in range(0, len(v), 2)]}
    elif tag == "Polygon":
        outer, inners = None, []
        for ch in el:
            ctag = _strip(ch.tag)
            if ctag not in ("exterior", "interior", "outerBoundaryIs",
                            "innerBoundaryIs"):
                continue
            ring = None
            for pl in ch.iter():
                if _strip(pl.tag) == "posList":
                    v = [float(t) for t in pl.text.split()]
                    ring = [v[i:i + 2] for i in range(0, len(v), 2)]
            if ring is None:
                continue
            if ctag in ("exterior", "outerBoundaryIs"):
                outer = ring
            else:
                inners.append(ring)
        if outer is not None:
            return {"type": "Polygon", "coordinates": [outer] + inners}
    elif tag in ("MultiPoint", "MultiCurve", "MultiSurface",
                 "MultiGeometry"):
        kinds = {"MultiPoint": "MultiPoint",
                 "MultiCurve": "MultiLineString",
                 "MultiSurface": "MultiPolygon"}
        parts = []
        for m in el:
            for sub in m:
                g = _gml_parse_geom(sub)
                if g is not None:
                    parts.append(g)
        if not parts:
            return None
        if tag == "MultiGeometry":
            return {"type": "GeometryCollection", "geometries": parts}
        return {"type": kinds[tag],
                "coordinates": [p["coordinates"] for p in parts]}
    return None


_GML_GEOM_TAGS = {"Point", "LineString", "Curve", "Polygon",
                  "MultiPoint", "MultiCurve", "MultiSurface",
                  "MultiGeometry"}


def write_gml(table: pa.Table, path: str, layer: str = "feature",
              wkb_col: str = "wkb") -> int:
    """Table → GML 3.2 FeatureCollection; non-geometry columns become
    property elements of each feature."""
    root = ET.Element("gml:FeatureCollection",
                      {"xmlns:gml": _GML_NS, "xmlns:geo": "urn:georay"})
    extra = [c for c in table.column_names if c != wkb_col]
    for i in range(table.num_rows):
        fm = ET.SubElement(root, "gml:featureMember")
        fe = ET.SubElement(fm, f"geo:{layer}",
                           {"gml:id": f"{layer}.{i}"})
        for c in extra:
            v = table[c][i].as_py()
            if v is not None:
                ET.SubElement(fe, f"geo:{c}").text = str(v)
        geom = ET.SubElement(fe, "geo:geometry")
        _geom_to_gml(geom, wkb_to_geometry(table[wkb_col][i].as_py()))
    ET.ElementTree(root).write(path, encoding="unicode",
                               xml_declaration=True)
    return table.num_rows


def read_gml(path: str) -> pa.Table:
    """GML FeatureCollection → table (wkb + property string columns).
    Feature elements are found under featureMember/member wrappers;
    the geometry is whichever child subtree carries a GML geometry."""
    root = ET.parse(path).getroot()
    rows, cols = [], []
    for fm in root.iter():
        if _strip(fm.tag) not in ("featureMember", "member"):
            continue
        for fe in fm:
            row = {"wkb": None}
            for ch in fe:
                tag = _strip(ch.tag)
                geom = None
                if tag in _GML_GEOM_TAGS:
                    geom = _gml_parse_geom(ch)
                else:
                    for sub in ch:
                        if _strip(sub.tag) in _GML_GEOM_TAGS:
                            geom = _gml_parse_geom(sub)
                            break
                if geom is not None:
                    row["wkb"] = geometry_to_wkb(geom)
                elif len(ch) == 0:
                    row[tag] = ch.text
                    if tag not in cols:
                        cols.append(tag)
            rows.append(row)
    out = {"wkb": pa.array([r["wkb"] for r in rows], pa.binary())}
    for c in cols:
        out[c] = pa.array([r.get(c) for r in rows], pa.string())
    return pa.table(out)


def _gml_file(unit: dict) -> pa.Table:
    return read_gml(unit["path"])


def read_gml_files(paths: list[str]):
    """Many GML files → one Dataset, one Ray task per file."""
    return read_units([{"path": p} for p in paths], _gml_file)


# ---------------------------------------------------------------------------
# multi-file Ray sources (the per-file parallel unit)
# ---------------------------------------------------------------------------

def _gpx_file(unit: dict, *, layer: str) -> pa.Table:
    return read_gpx(unit["path"])[layer]


def read_gpx_files(paths: list[str], layer: str = "waypoints"):
    """Many GPX files → one Dataset, one Ray task per file."""
    return read_units([{"path": p} for p in paths], _gpx_file, layer=layer)


def _kml_file(unit: dict) -> pa.Table:
    return read_kml(unit["path"])


def read_kml_files(paths: list[str]):
    """Many KML files → one Dataset, one Ray task per file."""
    return read_units([{"path": p} for p in paths], _kml_file)
