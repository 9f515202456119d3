"""Curve geometry types — CircularString / CompoundCurve / CurvePolygon /
MultiCurve / MultiSurface (ISO WKB types 8-12, ogr/ogr_core.h:409-519)
parsed and linearized to the engine's ring/line model, mirroring
``OGRGeometry::getLinearGeometry`` (ogr/ogrgeometryfactory.cpp
curveToLineString; OGR's arc stepping is OGR_ARC_STEPSIZE, default 4°).

Arcs are defined by point triples (start, intermediate, end).  The
linearizer emits vertices every ≤ ``max_step_deg`` of arc sweep (end
points exact), and collinear triples degrade to straight segments —
both OGR behaviors.  Lengths of circular segments are computed EXACTLY
(radius × sweep), matching ``OGRCurve::get_Length`` on non-linearized
curves, while linearized output is what the rest of the engine (PIP,
overlay, measures) consumes.
"""

from __future__ import annotations

import struct

import numpy as np

from .geom import read_wkb

__all__ = [
    "arc_center", "linearize_arc", "arc_length",
    "parse_curve_wkb", "linearize_wkb", "curve_lengths",
    "wkb_circularstring", "wkb_compoundcurve", "wkb_curvepolygon",
    "wkb_linestring", "linearize_batch",
]

_LINESTRING = 2
_POLYGON = 3
_MULTILINESTRING = 5
_MULTIPOLYGON = 6
_CIRCULARSTRING = 8
_COMPOUNDCURVE = 9
_CURVEPOLYGON = 10
_MULTICURVE = 11
_MULTISURFACE = 12
_POLYHEDRALSURFACE = 15
_TIN = 16
_TRIANGLE = 17


# ------------------------------------------------------------------ arcs

def arc_center(p0, p1, p2):
    """Circle through three points → (center (2,), radius) or ``None``
    when (near-)collinear (the straight-segment degenerate, same test
    OGR applies before emitting a line)."""
    ax, ay = p0
    bx, by = p1
    cx, cy = p2
    d = 2.0 * (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by))
    # relative collinearity test: |cross| vs the span scale
    span = max(abs(bx - ax), abs(by - ay), abs(cx - ax), abs(cy - ay), 1e-300)
    if abs(d) < 1e-11 * span * span:
        return None
    a2 = ax * ax + ay * ay
    b2 = bx * bx + by * by
    c2 = cx * cx + cy * cy
    ux = (a2 * (by - cy) + b2 * (cy - ay) + c2 * (ay - by)) / d
    uy = (a2 * (cx - bx) + b2 * (ax - cx) + c2 * (bx - ax)) / d
    return np.array([ux, uy]), float(np.hypot(ax - ux, ay - uy))


def _arc_sweep(p0, p1, p2, ctr):
    """Signed sweep (radians) from p0 to p2 passing through p1 (CCW
    positive); |sweep| in (0, 2π)."""
    a0 = np.arctan2(p0[1] - ctr[1], p0[0] - ctr[0])
    a1 = np.arctan2(p1[1] - ctr[1], p1[0] - ctr[0])
    a2 = np.arctan2(p2[1] - ctr[1], p2[0] - ctr[0])
    ccw1 = (a1 - a0) % (2.0 * np.pi)
    ccw2 = (a2 - a0) % (2.0 * np.pi)
    if ccw1 <= ccw2:           # travelling CCW passes p1 before p2
        return ccw2 if ccw2 > 0 else 2.0 * np.pi
    return ccw2 - 2.0 * np.pi  # travelling CW


def linearize_arc(p0, p1, p2, max_step_deg: float = 4.0):
    """Arc p0→p1→p2 as an (n, 2) polyline INCLUDING both endpoints."""
    p0 = np.asarray(p0, float)
    p1 = np.asarray(p1, float)
    p2 = np.asarray(p2, float)
    cr = arc_center(p0, p1, p2)
    if cr is None:
        return np.vstack([p0, p2])
    ctr, r = cr
    sweep = _arc_sweep(p0, p1, p2, ctr)
    n = max(2, int(np.ceil(abs(sweep) / np.radians(max_step_deg))) + 1)
    a0 = np.arctan2(p0[1] - ctr[1], p0[0] - ctr[0])
    ang = a0 + np.linspace(0.0, sweep, n)
    pts = np.stack([ctr[0] + r * np.cos(ang), ctr[1] + r * np.sin(ang)],
                   axis=1)
    pts[0] = p0
    pts[-1] = p2               # endpoints bit-exact (ring closure relies on it)
    return pts


def arc_length(p0, p1, p2) -> float:
    """EXACT circular-arc length (radius × |sweep|); chord length for the
    collinear degenerate."""
    p0 = np.asarray(p0, float)
    p1 = np.asarray(p1, float)
    p2 = np.asarray(p2, float)
    cr = arc_center(p0, p1, p2)
    if cr is None:
        return float(np.hypot(*(p2 - p0)))
    ctr, r = cr
    return float(r * abs(_arc_sweep(p0, p1, p2, ctr)))


# ----------------------------------------------------------------- parse

def _curve(node):
    """One curve node → ('line'|'arcs'|'compound', data): 'line' data =
    (n,2) vertices; 'arcs' data = (n,2) control points (odd n, triples
    chained); 'compound' = list of either."""
    t, _, data = node
    if t == _LINESTRING:
        return "line", data[:, :2].astype(np.float64)
    if t == _CIRCULARSTRING:
        return "arcs", data[:, :2].astype(np.float64)
    if t == _COMPOUNDCURVE:
        return "compound", [_curve(seg) for seg in data]
    raise ValueError(f"not a curve WKB type: {t}")


def _surface(node):
    """One Polygon / Triangle / CurvePolygon node → list of curve rings."""
    t, _, data = node
    if t in (_POLYGON, _TRIANGLE):
        return [("line", r[:, :2].astype(np.float64)) for r in data]
    if t == _CURVEPOLYGON:
        return [_curve(ring) for ring in data]
    raise ValueError(f"bad member type {t} in multisurface")


def parse_curve_wkb(buf: bytes):
    """Parse any curve/surface WKB → ``(kind, payload)``:

    * ``("lines", [curve, ...])`` for LineString / CircularString /
      CompoundCurve / MultiLineString / MultiCurve
    * ``("polygons", [[curve-ring, ...], ...])`` for Polygon /
      CurvePolygon / Triangle / MultiPolygon / MultiSurface /
      PolyhedralSurface / TIN

    where each *curve* is the ('line'|'arcs'|'compound', data) form."""
    node = read_wkb(buf)
    t, _, data = node
    if t in (_LINESTRING, _CIRCULARSTRING, _COMPOUNDCURVE):
        return "lines", [_curve(node)]
    if t in (_MULTILINESTRING, _MULTICURVE):
        return "lines", [_curve(c) for c in data]
    if t in (_POLYGON, _CURVEPOLYGON, _TRIANGLE):
        return "polygons", [_surface(node)]
    if t in (_MULTIPOLYGON, _MULTISURFACE, _POLYHEDRALSURFACE, _TIN):
        return "polygons", [_surface(m) for m in data]
    raise ValueError(f"unsupported curve WKB type {t}")


# ------------------------------------------------------------- linearize

def _linearize_curve(curve, max_step_deg):
    kind, data = curve
    if kind == "line":
        return np.asarray(data, float)
    if kind == "arcs":
        pts = np.asarray(data, float)
        if len(pts) < 3:
            return pts
        parts = [pts[:1]]
        for i in range(0, len(pts) - 2, 2):
            seg = linearize_arc(pts[i], pts[i + 1], pts[i + 2], max_step_deg)
            parts.append(seg[1:])
        return np.vstack(parts)
    # compound: concatenate segments, dropping duplicated joints
    parts = []
    for i, seg in enumerate(data):
        lin = _linearize_curve(seg, max_step_deg)
        parts.append(lin if i == 0 else lin[1:])
    return np.vstack(parts)


def _curve_len(curve) -> float:
    kind, data = curve
    if kind == "line":
        pts = np.asarray(data, float)
        return float(np.hypot(*(np.diff(pts, axis=0).T)).sum()) \
            if len(pts) > 1 else 0.0
    if kind == "arcs":
        pts = np.asarray(data, float)
        return sum(arc_length(pts[i], pts[i + 1], pts[i + 2])
                   for i in range(0, len(pts) - 2, 2))
    return sum(_curve_len(seg) for seg in data)


def linearize_wkb(buf: bytes, max_step_deg: float = 4.0):
    """Curve WKB → ``("lines", [(n,2) arrays])`` or
    ``("polygons", [[(n,2) rings], ...])`` with all arcs stroked."""
    kind, payload = parse_curve_wkb(buf)
    if kind == "lines":
        return kind, [_linearize_curve(c, max_step_deg) for c in payload]
    return kind, [[_linearize_curve(r, max_step_deg) for r in rings]
                  for rings in payload]


def curve_lengths(wkb_list) -> np.ndarray:
    """Exact curve length per feature (arc segments analytic, linear
    segments Euclidean) — ``OGRCurve::get_Length`` over curve types."""
    out = np.zeros(len(wkb_list))
    for i, b in enumerate(wkb_list):
        if b is None:
            continue
        kind, payload = parse_curve_wkb(bytes(b))
        if kind == "lines":
            out[i] = sum(_curve_len(c) for c in payload)
        else:
            out[i] = sum(_curve_len(r) for rings in payload for r in rings)
    return out


# --------------------------------------------------------------- writers

def wkb_linestring(pts) -> bytes:
    pts = np.asarray(pts, float)
    return (struct.pack("<BII", 1, _LINESTRING, len(pts))
            + pts.astype("<f8").tobytes())


def wkb_circularstring(pts) -> bytes:
    pts = np.asarray(pts, float)
    if len(pts) % 2 == 0 or len(pts) < 3:
        raise ValueError("CircularString needs an odd point count >= 3")
    return (struct.pack("<BII", 1, _CIRCULARSTRING, len(pts))
            + pts.astype("<f8").tobytes())


def wkb_compoundcurve(segment_wkbs) -> bytes:
    return (struct.pack("<BII", 1, _COMPOUNDCURVE, len(segment_wkbs))
            + b"".join(segment_wkbs))


def wkb_curvepolygon(ring_wkbs) -> bytes:
    return (struct.pack("<BII", 1, _CURVEPOLYGON, len(ring_wkbs))
            + b"".join(ring_wkbs))


# ------------------------------------------------------------- Ray stage

def linearize_batch(batch, wkb_col: str = "wkb",
                    max_step_deg: float = 4.0):
    """Replace curve WKB with linearized Polygon/LineString WKB so every
    downstream operator (PIP, overlay, measures, rasterize) consumes it —
    the ``ogr2ogr -nlt CONVERT_TO_LINEAR`` stage as a batch transform."""
    import pyarrow as pa

    from .geom import wkb_polygon
    out = []
    for b in batch.column(wkb_col).to_pylist():
        if b is None:
            out.append(None)
            continue
        kind, parts = linearize_wkb(bytes(b), max_step_deg)
        if kind == "polygons":
            if len(parts) == 1:
                out.append(wkb_polygon(parts[0]))
            else:
                from .geom import wkb_multipolygon
                out.append(wkb_multipolygon(parts))
        else:
            out.append(wkb_linestring(parts[0]) if len(parts) == 1 else
                       _wkb_multilinestring(parts))
    i = batch.schema.get_field_index(wkb_col)
    return batch.set_column(i, wkb_col, pa.array(out, pa.binary()))


def _wkb_multilinestring(lines) -> bytes:
    return (struct.pack("<BII", 1, _MULTILINESTRING, len(lines))
            + b"".join(wkb_linestring(ln) for ln in lines))


# ---------------------------------------------------------- exact areas
# OGR's curve-native area ladder (mirrored branch-for-branch so results
# match the reference, including its quirks):
#   CircularString ring (ogrcircularstring.cpp:846 get_Area):
#     full circle -> pi R^2; CONVEX (ogrcurve.cpp:311 IsConvex — note:
#     all cross-products <= 0, i.e. CLOCKWISE convex; CCW convex rings
#     take the linearized path, faithfully reproduced here) ->
#     |shoelace over control points| (get_LinearArea,
#     ogrlinestring.cpp:2979) + circular-segment areas
#     (get_AreaOfCurveSegments, ogrcircularstring.cpp:808:
#     0.5 R^2 |d01 - sin d01 + d12 - sin d12| per arc triple);
#     otherwise CurveToLine at the default 4 deg step.
#   CompoundCurve: same ladder (ogrcompoundcurve.cpp:874).
#   CurvePolygon: exterior − sum(interiors) (ogrcurvepolygon.cpp:716).


def _curve_params(x0, y0, x1, y1, x2, y2):
    """OGRGeometryFactory::GetCurveParameters analog →
    (R, cx, cy, a0, a1, a2) or None (collinear / degenerate)."""
    if any(map(np.isnan, (x0, y0, x1, y1, x2, y2))):
        return None
    if x0 == x2 and y0 == y2:
        if x0 != x1 or y0 != y1:           # full circle via 1 arc
            cx, cy = (x0 + x1) / 2.0, (y0 + y1) / 2.0
            R = float(np.hypot(x0 - cx, y0 - cy))
            a0 = float(np.arctan2(y0 - cy, x0 - cx))
            return R, cx, cy, a0, a0 + np.pi, a0 + 2.0 * np.pi
        return None
    dx01, dy01 = x1 - x0, y1 - y0
    dx12, dy12 = x2 - x1, y2 - y1
    scale = max(abs(dx01), abs(dy01), abs(dx12), abs(dy12))
    if scale == 0:
        return None
    inv = 1.0 / scale
    dx01 *= inv; dy01 *= inv; dx12 *= inv; dy12 *= inv
    det = dx01 * dy12 - dx12 * dy01
    if abs(det) < 1.0e-8 or np.isnan(det):
        return None
    x01m, x12m = (x0 + x1) * inv, (x1 + x2) * inv
    y01m, y12m = (y0 + y1) * inv, (y1 + y2) * inv
    c01 = dx01 * x01m + dy01 * y01m
    c12 = dx12 * x12m + dy12 * y12m
    cx = 0.5 * scale * (c01 * dy12 - c12 * dy01) / det
    cy = 0.5 * scale * (-c01 * dx12 + c12 * dx01) / det
    a0 = float(np.arctan2((y0 - cy) * inv, (x0 - cx) * inv))
    a1 = float(np.arctan2((y1 - cy) * inv, (x1 - cx) * inv))
    a2 = float(np.arctan2((y2 - cy) * inv, (x2 - cx) * inv))
    R = float(np.hypot(cx - x0, cy - y0))
    if det < 0:
        if a1 > a0:
            a1 -= 2.0 * np.pi
        if a2 > a1:
            a2 -= 2.0 * np.pi
    else:
        if a1 < a0:
            a1 += 2.0 * np.pi
        if a2 < a1:
            a2 += 2.0 * np.pi
    return R, cx, cy, a0, a1, a2


def _segments_area(curve) -> float:
    """get_AreaOfCurveSegments: circular-segment areas of all arcs."""
    kind, data = curve
    if kind == "line":
        return 0.0
    if kind == "compound":
        return sum(_segments_area(seg) for seg in data)
    pts = np.asarray(data, float)
    area = 0.0
    for i in range(0, len(pts) - 2, 2):
        prm = _curve_params(pts[i, 0], pts[i, 1], pts[i + 1, 0],
                            pts[i + 1, 1], pts[i + 2, 0], pts[i + 2, 1])
        if prm is None:
            continue
        R, _, _, a0, a1, a2 = prm
        d01, d12 = a1 - a0, a2 - a1
        area += 0.5 * R * R * abs(d01 - np.sin(d01) + d12 - np.sin(d12))
    return area


def _all_points(curve) -> np.ndarray:
    """Raw control-point sequence (OGRPointIterator order)."""
    kind, data = curve
    if kind in ("line", "arcs"):
        return np.asarray(data, float)
    parts = []
    for i, seg in enumerate(data):
        p = _all_points(seg)
        parts.append(p if i == 0 else p[1:])
    return np.vstack(parts) if parts else np.empty((0, 2))


def _linear_area_abs(pts) -> float:
    """|shoelace| / 2 over the raw points (get_LinearArea)."""
    if len(pts) < 3:
        return 0.0
    x, y = pts[:, 0], pts[:, 1]
    return 0.5 * abs(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))


def _is_convex(pts) -> bool:
    """OGRCurve::IsConvex: every consecutive cross-product <= 0."""
    if len(pts) < 3:
        return True
    d = np.diff(pts, axis=0)
    cross = d[:-1, 0] * d[1:, 1] - d[:-1, 1] * d[1:, 0]
    return bool((cross <= 0).all())


def _ring_area(curve, max_step_deg: float = 4.0) -> float:
    """OGRCurve::get_Area of one (closed) ring — the reference ladder."""
    kind, data = curve
    pts = _all_points(curve)
    if len(pts) < 2 or not (pts[0] == pts[-1]).all():
        return 0.0
    if kind == "line":
        return _linear_area_abs(pts)
    if kind == "arcs":
        n = len(pts)
        if n == 3:                          # full circle via 1 arc
            cx, cy = (pts[0] + pts[1]) / 2.0
            return float(np.pi * ((pts[1, 0] - cx) ** 2
                                  + (pts[1, 1] - cy) ** 2))
        if n == 5:                          # full circle via 2 arcs
            p1 = _curve_params(*pts[0], *pts[1], *pts[2])
            p2 = _curve_params(*pts[2], *pts[3], *pts[4])
            if (p1 is not None and p2 is not None
                    and abs(p1[0] - p2[0]) < 1e-10
                    and abs(p1[1] - p2[1]) < 1e-10
                    and abs(p1[2] - p2[2]) < 1e-10
                    and (p1[5] - p1[3]) * (p2[5] - p2[3]) > 0):
                return float(np.pi * p1[0] * p1[0])
    if _is_convex(pts):
        return _linear_area_abs(pts) + _segments_area(curve)
    lin = _linearize_curve(curve, max_step_deg)
    return _linear_area_abs(lin)


def curve_areas(wkb_list, max_step_deg: float = 4.0) -> np.ndarray:
    """Exact curve-native area per feature — ``OGRCurvePolygon::
    get_Area`` over curve/surface WKB (exterior − interiors, summed over
    multi-surfaces; closed standalone curves measure like rings)."""
    out = np.zeros(len(wkb_list))
    for i, b in enumerate(wkb_list):
        if b is None:
            continue
        kind, payload = parse_curve_wkb(bytes(b))
        if kind == "lines":
            out[i] = sum(_ring_area(c, max_step_deg) for c in payload)
        else:
            tot = 0.0
            for rings in payload:
                if not rings:
                    continue
                a = _ring_area(rings[0], max_step_deg)
                for r in rings[1:]:
                    a -= _ring_area(r, max_step_deg)
                tot += a
            out[i] = tot
    return out
