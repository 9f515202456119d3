"""Geometry measures + constructive ops — the OGRGeometry measure surface
(``OGRGeometry::get_Area`` ogr/ogrsurface.cpp, ``get_Length``
ogr/ogrcurve.cpp, ``Centroid`` ogr/ogrgeometry.cpp:3024, ``ConvexHull``
ogr/ogrgeometry.cpp:3933, ``Buffer`` ogr/ogrgeometry.cpp:3853 — the last
three delegate to GEOS in the reference) re-expressed as vectorized numpy
kernels over a packed-ring batch layout.

Layout (:func:`pack_rings`): one WKB parse pass per batch produces flat
``coords (N,2)`` + ``ring_starts`` + per-ring feature ids / hole flags.
Every measure then runs as ``np.add.reduceat`` over rings — no per-ring
Python.  Per-feature Python survives only where the algorithm is
inherently per-feature and output-bounded (convex hull chain, buffer ring
construction), matching the reference's own per-geometry GEOS calls.

Semantics notes:

* Area is orientation-independent: ``|outer| − Σ|holes|`` per polygon
  (ogr/ogrlinearring.cpp get_Area takes the absolute shoelace; holes are
  identified positionally, not by winding).  A degenerate self-crossing
  "bowtie" ring therefore reports its |signed| shoelace area (0 for the
  symmetric bowtie) — same as OGR without MakeValid.
* Centroid is the signed-area-weighted Green's-theorem centroid; for
  |area| < 1e-12 (degenerate rings) it falls back to the vertex mean,
  mirroring GEOS's fallback chain for zero-area inputs.
* Buffer uses the exact convex Minkowski edge-merge when every ring is
  convex (buffered boundary = sorted merge of polygon edges and k-gon
  circle edges), else the identity ``buffer(P, d) = P ∪ ⋃ edge-capsules``
  folded through :func:`georay.overlay.polygon_boolean` union — correct
  for any simple polygon, cost O(E) boolean ops (documented; concave
  buffers are feature-sized, never batch-sized).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from .geom import parse_wkb_multi, wkb_header_type, wkb_polygon, wkb_type
from .overlay import polygon_boolean

__all__ = [
    "pack_rings",
    "areas_any_wkb",
    "ring_signed_areas",
    "feature_areas",
    "feature_lengths",
    "feature_centroids",
    "convex_hull",
    "hull_areas_npoints",
    "buffer_rings",
    "buffer_areas",
    "measures_batch",
]


def pack_rings(wkb_list):
    """Parse a batch of polygon/multipolygon WKB into a packed layout.

    Returns ``(coords, ring_starts, ring_feat, ring_hole, n_feat)``:
    ``coords (N,2)`` float64 with CLOSING vertices dropped (shoelace and
    length kernels wrap explicitly), ``ring_starts (R+1,)`` int64 offsets
    into coords, ``ring_feat (R,)`` feature index per ring, ``ring_hole
    (R,)`` bool (ring index > 0 within its polygon — positional hole
    convention, ogr/ogrpolygon.cpp).
    """
    chunks, starts, feats, holes = [], [0], [], []
    total = 0
    for fi, buf in enumerate(wkb_list):
        if buf is None:
            continue
        for rings in parse_wkb_multi(bytes(buf)):
            for ri, ring in enumerate(rings):
                r = np.asarray(ring, dtype=np.float64)
                if len(r) >= 2 and r[0, 0] == r[-1, 0] and r[0, 1] == r[-1, 1]:
                    r = r[:-1]
                if len(r) < 3:
                    continue
                chunks.append(r)
                total += len(r)
                starts.append(total)
                feats.append(fi)
                holes.append(ri > 0)
    if not chunks:
        return (np.empty((0, 2)), np.array([0], np.int64),
                np.empty(0, np.int64), np.empty(0, bool), len(wkb_list))
    coords = np.vstack(chunks)
    return (coords, np.asarray(starts, np.int64),
            np.asarray(feats, np.int64), np.asarray(holes, bool),
            len(wkb_list))


def _wrap_next(n: int, ring_starts: np.ndarray) -> np.ndarray:
    """Index of the next vertex within the same ring (wrapping)."""
    nxt = np.arange(1, n + 1, dtype=np.int64)
    nxt[ring_starts[1:] - 1] = ring_starts[:-1]
    return nxt


def _ring_local(coords, ring_starts):
    """Coords shifted to each ring's first vertex (translation-invariant
    measures computed ring-locally keep shoelace cancellation at the
    feature scale, not the coordinate scale: at lon/lat magnitudes ~1e2 a
    global-frame Green's centroid loses ~8 digits, which breaks the
    round(6) cross-engine parity discipline of NOTES.md)."""
    sizes = np.diff(ring_starts)
    off = np.repeat(coords[ring_starts[:-1]], sizes, axis=0)
    return coords - off


def ring_signed_areas(coords, ring_starts):
    """Signed shoelace area per ring (+CCW), via one reduceat."""
    n = len(coords)
    if n == 0:
        return np.empty(0, np.float64)
    nxt = _wrap_next(n, ring_starts)
    loc = _ring_local(coords, ring_starts)
    x, y = loc[:, 0], loc[:, 1]
    cross = x * y[nxt] - x[nxt] * y
    return 0.5 * np.add.reduceat(cross, ring_starts[:-1])


def _per_feature(vals, ring_feat, n_feat):
    """Sum per-ring values into per-feature slots (rings of a feature are
    contiguous but features may have zero rings → bincount, not reduceat)."""
    return np.bincount(ring_feat, weights=vals, minlength=n_feat)


def feature_areas(packed):
    """|outer| − Σ|holes| area per feature (see module docstring)."""
    coords, rs, rf, rh, n_feat = packed
    a = np.abs(ring_signed_areas(coords, rs))
    a[rh] *= -1.0
    return _per_feature(a, rf, n_feat)


def feature_lengths(packed):
    """Total ring perimeter per feature (holes count — OGR get_Length
    sums every ring of a polygon, ogr/ogrcurvepolygon.cpp)."""
    coords, rs, rf, rh, n_feat = packed
    n = len(coords)
    if n == 0:
        return np.zeros(n_feat)
    nxt = _wrap_next(n, rs)
    seg = np.hypot(coords[nxt, 0] - coords[:, 0],
                   coords[nxt, 1] - coords[:, 1])
    per_ring = np.add.reduceat(seg, rs[:-1])
    return _per_feature(per_ring, rf, n_feat)


def feature_centroids(packed):
    """Green's-theorem centroid per feature; vertex-mean fallback for
    |area| < 1e-12.  Returns (cx, cy) float64 arrays (NaN for empty)."""
    coords, rs, rf, rh, n_feat = packed
    cx = np.full(n_feat, np.nan)
    cy = np.full(n_feat, np.nan)
    n = len(coords)
    if n == 0:
        return cx, cy
    nxt = _wrap_next(n, rs)
    # ring-local frame (see _ring_local) — first moments transfer back via
    # S_global = S_local + origin·A (∫x dA = ∫x_local dA + ox·A, exact)
    loc = _ring_local(coords, rs)
    x, y = loc[:, 0], loc[:, 1]
    ox, oy = coords[rs[:-1], 0], coords[rs[:-1], 1]
    cross = x * y[nxt] - x[nxt] * y
    sa = 0.5 * np.add.reduceat(cross, rs[:-1])          # signed per ring
    sx = np.add.reduceat((x + x[nxt]) * cross, rs[:-1]) / 6.0 + ox * sa
    sy = np.add.reduceat((y + y[nxt]) * cross, rs[:-1]) / 6.0 + oy * sa
    # orientation-normalize so outers add, holes subtract regardless of
    # stored winding: factor f makes f*sa = +|sa| (outer) / −|sa| (hole)
    f = np.where(sa >= 0, 1.0, -1.0)
    f[rh] *= -1.0
    A = _per_feature(f * sa, rf, n_feat)
    Sx = _per_feature(f * sx, rf, n_feat)
    Sy = _per_feature(f * sy, rf, n_feat)
    ok = np.abs(A) >= 1e-12
    cx[ok] = Sx[ok] / A[ok]
    cy[ok] = Sy[ok] / A[ok]
    # degenerate: vertex mean over all ring vertices of the feature
    if not ok.all():
        vx = _per_feature(np.add.reduceat(coords[:, 0], rs[:-1]), rf, n_feat)
        vy = _per_feature(np.add.reduceat(coords[:, 1], rs[:-1]), rf, n_feat)
        cnt = _per_feature((rs[1:] - rs[:-1]).astype(np.float64),
                           rf, n_feat)
        bad = ~ok & (cnt > 0)
        cx[bad] = vx[bad] / cnt[bad]
        cy[bad] = vy[bad] / cnt[bad]
    return cx, cy


def convex_hull(pts: np.ndarray) -> np.ndarray:
    """Andrew's monotone chain (public-domain textbook algorithm).
    ``pts (N,2)`` → hull vertices (H,2) CCW, no closing duplicate."""
    pts = np.unique(pts, axis=0)                 # lexsort + dedup
    if len(pts) <= 2:
        return pts
    def half(points):
        out = []
        for p in points:
            while len(out) >= 2:
                o, a = out[-2], out[-1]
                if (a[0]-o[0])*(p[1]-o[1]) - (a[1]-o[1])*(p[0]-o[0]) <= 0:
                    out.pop()
                else:
                    break
            out.append(p)
        return out
    lower = half(pts)
    upper = half(pts[::-1])
    return np.asarray(lower[:-1] + upper[:-1])


def hull_areas_npoints(packed):
    """Convex-hull area + vertex count per feature (the measurable face
    of OGRGeometry::ConvexHull for oracle checks)."""
    coords, rs, rf, rh, n_feat = packed
    areas = np.zeros(n_feat)
    npts = np.zeros(n_feat, np.int64)
    for fi in range(n_feat):
        mask = rf == fi
        if not mask.any():
            continue
        sel = np.concatenate([np.arange(rs[r], rs[r + 1])
                              for r in np.flatnonzero(mask)])
        h = convex_hull(coords[sel])
        npts[fi] = len(h)
        if len(h) >= 3:
            h = h - h[0]                       # local frame (precision)
            x, y = h[:, 0], h[:, 1]
            areas[fi] = 0.5 * abs(np.dot(x, np.roll(y, -1))
                                  - np.dot(np.roll(x, -1), y))
    return areas, npts


# ---------------------------------------------------------------- buffer

def _circle_ring(cx, cy, d, k):
    ang = np.arange(k) * (2.0 * np.pi / k)
    return np.stack([cx + d * np.cos(ang), cy + d * np.sin(ang)], axis=1)


def _ring_ccw(ring):
    x, y = ring[:, 0], ring[:, 1]
    s = np.dot(x, np.roll(y, -1)) - np.dot(np.roll(x, -1), y)
    return ring if s >= 0 else ring[::-1]


def _is_convex_ring(ring):
    r = _ring_ccw(ring)
    a = np.roll(r, -1, axis=0) - r
    b = np.roll(a, -1, axis=0)
    cr = a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0]
    return bool((cr >= -1e-12).all())


def _minkowski_convex(ring, d, quadseg):
    """Exact Minkowski sum of a CONVEX CCW ring with a regular k-gon of
    circumradius d: merge both edge-vector sequences by angle (classic
    convex Minkowski-sum construction)."""
    r = _ring_ccw(ring)
    k = max(4, 4 * quadseg)
    disk = _circle_ring(0.0, 0.0, d, k)
    e1 = np.roll(r, -1, axis=0) - r
    e2 = np.roll(disk, -1, axis=0) - disk
    edges = np.vstack([e1, e2])
    # traversal from the bottom-most point proceeds by edge direction
    # sorted in [0, 2π) — raw atan2 order would put (π, 2π) edges first
    ang = np.mod(np.arctan2(edges[:, 1], edges[:, 0]), 2.0 * np.pi)
    order = np.argsort(ang, kind="stable")
    # start point: bottom-most point of each summand added together
    s1 = r[np.lexsort((r[:, 0], r[:, 1]))[0]]
    s2 = disk[np.lexsort((disk[:, 0], disk[:, 1]))[0]]
    start = s1 + s2
    pts = start + np.cumsum(edges[order], axis=0)
    return np.vstack([start[None, :], pts[:-1]])


def _capsule(p, q, d, quadseg, phase: float = 0.0):
    """Stadium polygon around segment p→q as the convex hull of two
    phase-offset k-gons (one per endpoint).  ``phase`` (radians) rotates
    the sampling so adjacent edges' capsules — which share an endpoint
    circle — never emit exactly-coincident vertices, the degenerate input
    the boolean stitcher's midpoint-nudge convention cannot resolve."""
    k = max(8, 4 * quadseg)
    ang = phase + np.arange(k) * (2.0 * np.pi / k)
    ca, sa = d * np.cos(ang), d * np.sin(ang)
    pts = np.vstack([
        np.stack([p[0] + ca, p[1] + sa], axis=1),
        np.stack([q[0] + ca, q[1] + sa], axis=1),
    ])
    return convex_hull(pts)


def buffer_rings(rings, d: float, quadseg: int = 8):
    """Positive buffer of one feature (ring-group list, holes ignored for
    d>0 widening of fixture-scale shapes — documented limitation; GDAL
    delegates the general case to GEOS).  Returns list of result rings."""
    if d <= 0:
        raise ValueError("only positive buffer distances are supported")
    outers = [np.asarray(r, np.float64) for r in rings]
    outers = [r[:-1] if (len(r) > 1 and (r[0] == r[-1]).all()) else r
              for r in outers]
    outers = [r for r in outers if len(r) >= 3]
    if not outers:
        return []
    if all(_is_convex_ring(r) for r in outers) and len(outers) == 1:
        return [_minkowski_convex(outers[0], d, quadseg)]
    # general simple polygon: P ∪ ⋃ edge-capsules
    acc = _regroup([_ring_ccw(r) for r in outers])
    ei = 0
    for ring in outers:
        nxt = np.roll(ring, -1, axis=0)
        for p, q in zip(ring, nxt):
            ei += 1
            phase = (ei * 0.6180339887498949) % 1.0 * (np.pi / (4 * quadseg))
            cap = [[_ring_ccw(_capsule(p, q, d, quadseg, phase))]]
            acc = _regroup(polygon_boolean(acc, cap, "union"))
    return [r for g in acc for r in g]


def _regroup(rings):
    """Flat CCW-outer/CW-hole ring list (polygon_boolean output) back into
    the ring-group input format, preserving orientations (group position
    only drives orientation normalization; region parity is even-odd, so
    hole attachment is arbitrary as long as winding survives)."""
    ccw, cw = [], []
    for r in rings:
        r = np.asarray(r, np.float64)
        x, y = r[:, 0], r[:, 1]
        s = np.dot(x, np.roll(y, -1)) - np.dot(np.roll(x, -1), y)
        (ccw if s >= 0 else cw).append(r)
    if not ccw:
        return [[r] for r in rings]
    groups = [[ccw[0]] + cw] + [[c] for c in ccw[1:]]
    return groups


def buffer_areas(packed, d: float, quadseg: int = 8):
    """Buffered-polygon area per feature."""
    coords, rs, rf, rh, n_feat = packed
    out = np.zeros(n_feat)
    for fi in range(n_feat):
        ring_ids = np.flatnonzero((rf == fi) & ~rh)
        if len(ring_ids) == 0:
            continue
        # feature-local frame: buffer area is translation-invariant and the
        # Minkowski cumsum + shoelace then run at feature scale (precision)
        org = coords[rs[ring_ids[0]]]
        rings = [coords[rs[r]:rs[r + 1]] - org for r in ring_ids]
        res = buffer_rings(rings, d, quadseg)
        for r in res:
            x, y = r[:, 0], r[:, 1]
            s = 0.5 * (np.dot(x, np.roll(y, -1)) - np.dot(np.roll(x, -1), y))
            out[fi] += s                       # holes come out CW → negative
    return out


# ------------------------------------------------------------- Ray stage

def lengths_any_wkb(wkb_list) -> np.ndarray:
    """``get_Length`` across geometry families: polygons/multipolygons go
    through the packed-ring perimeter kernel; linestring and curve types
    (WKB 2/5/8/9/11) through the analytic curve-length path (exact arc
    lengths, ogr/ogrcurve.cpp).  Mixed-type columns dispatch per row on
    the WKB header's type word; the measuring pass reads each geometry
    once."""
    poly_idx, curve_idx = [], []
    for i, b in enumerate(wkb_list):
        if b is None:
            continue
        base, _ = wkb_header_type(b)
        (poly_idx if base in (3, 6) else curve_idx).append(i)
    out = np.zeros(len(wkb_list))
    if poly_idx:
        packed = pack_rings([wkb_list[i] for i in poly_idx])
        out[np.asarray(poly_idx)] = feature_lengths(packed)
    if curve_idx:
        from .curves import curve_lengths
        out[np.asarray(curve_idx)] = curve_lengths(
            [wkb_list[i] for i in curve_idx])
    return out


def areas_any_wkb(wkb_list) -> np.ndarray:
    """``get_Area`` across geometry families: linear polygon types
    (WKB 3/6) through the packed-ring shoelace kernel; curve/surface
    types (10/12/15/16/17 and closed curves 8/9) through the arc-exact
    OGR ladder (curves.curve_areas — full-circle / convex chord+segment
    / linearize fallback, ogrcircularstring.cpp:846); Point and
    MultiPoint measure 0.  Mixed-type columns dispatch per row on the WKB
    header's type word; the measuring pass reads each geometry once."""
    poly_idx, curve_idx = [], []
    for i, b in enumerate(wkb_list):
        if b is None:
            continue
        base, _ = wkb_header_type(b)
        if base in (1, 4):
            wkb_type(b)    # points: area 0 as in OGR_G_Area, once read
            continue
        (poly_idx if base in (3, 6) else curve_idx).append(i)
    out = np.zeros(len(wkb_list))
    if poly_idx:
        packed = pack_rings([wkb_list[i] for i in poly_idx])
        out[np.asarray(poly_idx)] = feature_areas(packed)
    if curve_idx:
        from .curves import curve_areas
        out[np.asarray(curve_idx)] = curve_areas(
            [wkb_list[i] for i in curve_idx])
    return out


def measures_batch(batch: pa.Table, wkb_col: str = "wkb",
                   buffer_dist: float | None = None,
                   round_to: int | None = None) -> pa.Table:
    """Append st_area / st_length / st_cx / st_cy / hull_area /
    hull_npoints (+ buf_area when ``buffer_dist``) to a batch.  Pure
    function — pass directly to ``map_batches`` (no per-worker state)."""
    packed = pack_rings(batch.column(wkb_col).to_pylist())
    area = feature_areas(packed)
    length = feature_lengths(packed)
    cx, cy = feature_centroids(packed)
    ha, hp = hull_areas_npoints(packed)
    def rnd(a):
        return np.round(a, round_to) if round_to is not None else a
    cols = {
        "st_area": rnd(area), "st_length": rnd(length),
        "st_cx": rnd(cx), "st_cy": rnd(cy),
        "hull_area": rnd(ha), "hull_npoints": hp,
    }
    if buffer_dist is not None:
        cols["buf_area"] = rnd(buffer_areas(packed, buffer_dist))
    out = batch
    for k, v in cols.items():
        out = out.append_column(k, pa.array(v))
    return out
