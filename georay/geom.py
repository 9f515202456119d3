"""Geometry kernel: WKB (de)serialization, vectorized point-in-polygon,
envelopes, haversine distance.

The data model follows OGR's Arrow bridge: geometry travels as a WKB
``binary`` column tagged ``ogc.wkb`` (reference: ogr/ogrsf_frmts/generic/
ogrlayerarrow.cpp:682, 2562).  WKB parse/encode here covers the subset the
engine materializes (Point, Polygon, MultiPolygon, little-endian, 2-D) —
the same subset GDAL's layer-algebra join actually exercises for PIP joins
(ogr/ogrsf_frmts/generic/ogrlayer.cpp:2633-2850).

Point-in-polygon uses the even-odd (ray casting) rule so holes "just work"
when all rings contribute edges — matching GEOS ``Intersects`` semantics for
point×polygon.  The hot path is :meth:`PackedPolygons.contains_pairs`, a
fully vectorized candidate-pair evaluator designed to run inside
``map_batches`` after an R-tree bbox pretest (the pretest mirrors
ogrlayer.cpp:2714-2733's envelope pretest).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "wkb_point",
    "wkb_polygon",
    "wkb_multipolygon",
    "parse_wkb",
    "parse_wkb_multi",
    "wkb_envelope",
    "PackedPolygons",
    "haversine_m",
    "box_ring",
    "segmentize",
    "simplify_dp",
    "set_precision",
    "wrapdateline_rings",
    "force_to_multipolygon",
]

_WKB_POINT = 1
_WKB_POLYGON = 3
_WKB_MULTIPOLYGON = 6


def wkb_point(x: float, y: float) -> bytes:
    """Little-endian WKB Point (ogr/ogrgeometry.cpp exportToWkb semantics)."""
    return struct.pack("<BIdd", 1, _WKB_POINT, x, y)


def wkb_polygon(rings) -> bytes:
    """WKB Polygon from a list of rings; each ring is an (N, 2) array-like.

    Rings need not be explicitly closed — a closing vertex is appended when
    missing (OGR closes rings on import, ogr/ogrcurve.cpp).
    """
    out = [struct.pack("<BII", 1, _WKB_POLYGON, len(rings))]
    for ring in rings:
        r = np.asarray(ring, dtype=np.float64).reshape(-1, 2)
        if not np.array_equal(r[0], r[-1]):
            r = np.vstack([r, r[:1]])
        out.append(struct.pack("<I", r.shape[0]))
        out.append(r.astype("<f8").tobytes())
    return b"".join(out)


def wkb_multipolygon(polys) -> bytes:
    """WKB MultiPolygon; ``polys`` = list of ring-lists."""
    out = [struct.pack("<BII", 1, _WKB_MULTIPOLYGON, len(polys))]
    for rings in polys:
        out.append(wkb_polygon(rings))
    return b"".join(out)


def _parse_rings(buf: memoryview, off: int, dims: int = 2):
    """Ring list at ``off``; ``dims`` = coords per vertex (2 / 3 Z or M /
    4 ZM).  Output rings are always (n, 2) XY — extra dims are dropped
    (OGR's flatten/forceTo-2D convention for the PIP/overlay paths)."""
    (n_rings,) = struct.unpack_from("<I", buf, off)
    off += 4
    rings = []
    for _ in range(n_rings):
        (n_pts,) = struct.unpack_from("<I", buf, off)
        off += 4
        arr = np.frombuffer(buf, dtype="<f8", count=n_pts * dims, offset=off)
        rings.append(arr.reshape(n_pts, dims)[:, :2].astype(np.float64))
        off += n_pts * 8 * dims
    return rings, off


def _wkb_type_dims(raw_type: int):
    """Decode a WKB geometry type into (base_type, dims) across the ISO
    (+1000 Z, +2000 M, +3000 ZM) and EWKB (0x80000000 Z, 0x40000000 M)
    conventions (ogr/ogr_core.h:409-519 wkb variants)."""
    dims = 2
    t = raw_type
    if t & 0x80000000:
        dims += 1
        t &= ~0x80000000
    if t & 0x40000000:
        dims += 1
        t &= ~0x40000000
    t &= ~0x20000000          # EWKB SRID flag (SRID handled by caller)
    if 1000 <= t < 2000:
        dims = 3
        t -= 1000
    elif 2000 <= t < 3000:
        dims = 3
        t -= 2000
    elif 3000 <= t < 4000:
        dims = 4
        t -= 3000
    return t, dims


def _wkb_header(buf: memoryview, off: int = 0):
    """Parse one geometry header → (base_type, dims, payload offset)."""
    byte_order, raw_type = struct.unpack_from("<BI", buf, off)
    if byte_order != 1:
        raise ValueError("only little-endian WKB supported")
    t, dims = _wkb_type_dims(raw_type)
    off += 5
    if raw_type & 0x20000000:   # EWKB embedded SRID
        off += 4
    return t, dims, off


def parse_wkb_multi(buf: bytes) -> list:
    """Parse polygon/multipolygon WKB preserving per-polygon ring grouping:
    returns ``[[outer, hole, ...], ...]`` — one ring list per polygon.
    Z/M/ZM variants (ISO +1000/2000/3000 and EWKB flag bits) parse with
    the extra ordinates dropped.  Needed wherever outer-vs-hole roles
    matter (area, clip); :func:`parse_wkb` flattens rings (fine for
    even-odd PIP only)."""
    buf = memoryview(buf)
    t, dims, off = _wkb_header(buf)
    if t == _WKB_POLYGON:
        rings, _ = _parse_rings(buf, off, dims)
        return [rings]
    if t == _WKB_MULTIPOLYGON:
        (n_polys,) = struct.unpack_from("<I", buf, off)
        off += 4
        out = []
        for _ in range(n_polys):
            st, sdims, off = _wkb_header(buf, off)
            if st != _WKB_POLYGON:
                raise ValueError("MultiPolygon member is not a Polygon")
            sub_rings, off = _parse_rings(buf, off, sdims)
            out.append(sub_rings)
        return out
    raise ValueError(f"unsupported WKB geometry type {t}")


def parse_wkb(buf: bytes):
    """Parse little-endian WKB → ``("point", (x, y))`` or
    ``("polygon", [rings])`` (MultiPolygon flattens to one ring list —
    sufficient for even-odd PIP; use :func:`parse_wkb_multi` when
    outer/hole grouping matters).  Z/M/ZM variants parse with extra
    ordinates dropped."""
    buf = memoryview(buf)
    t, dims, off = _wkb_header(buf)
    if t == _WKB_POINT:
        vals = struct.unpack_from(f"<{dims}d", buf, off)
        return "point", (vals[0], vals[1])
    if t == _WKB_POLYGON:
        rings, _ = _parse_rings(buf, off, dims)
        return "polygon", rings
    if t == _WKB_MULTIPOLYGON:
        (n_polys,) = struct.unpack_from("<I", buf, off)
        off += 4
        rings = []
        for _ in range(n_polys):
            st, sdims, off = _wkb_header(buf, off)
            if st != _WKB_POLYGON:
                raise ValueError("MultiPolygon member is not a Polygon")
            sub_rings, off = _parse_rings(buf, off, sdims)
            rings.extend(sub_rings)
        return "polygon", rings
    raise ValueError(f"unsupported WKB geometry type {t}")


def wkb_envelope(buf: bytes):
    """(minx, miny, maxx, maxy) of a WKB geometry — OGR ``getEnvelope``."""
    kind, data = parse_wkb(buf)
    if kind == "point":
        x, y = data
        return x, y, x, y
    pts = np.vstack(data)
    return (float(pts[:, 0].min()), float(pts[:, 1].min()),
            float(pts[:, 0].max()), float(pts[:, 1].max()))


def box_ring(minx, miny, maxx, maxy):
    """CCW rectangle ring (closed)."""
    return np.array(
        [[minx, miny], [maxx, miny], [maxx, maxy], [minx, maxy], [minx, miny]],
        dtype=np.float64,
    )


@dataclass
class PackedPolygons:
    """A polygon set packed into flat numpy arrays for vectorized PIP.

    This is the broadcast side of the spatial join: built once on the
    driver, ``ray.put()`` once, deserialized once per worker (SURVEY.md
    §2.3) — the Ray analog of GDAL holding GEOS prepared geometries per
    outer feature (ogrlayer.cpp:2757-2766).

    Layout: every ring of every polygon contributes its edges to four flat
    arrays (x1, y1, x2, y2); ``edge_starts[i]:edge_starts[i+1]`` slices the
    edges of polygon *i*; ``bbox`` is the per-polygon envelope used for the
    pretest (ogrlayer.cpp:2714-2733).
    """

    x1: np.ndarray
    y1: np.ndarray
    x2: np.ndarray
    y2: np.ndarray
    edge_starts: np.ndarray  # int64, len = n_polys + 1
    bbox: np.ndarray  # (n_polys, 4) minx, miny, maxx, maxy
    ids: np.ndarray | None = None  # optional caller payload per polygon

    @classmethod
    def from_wkb(cls, wkbs, ids=None) -> "PackedPolygons":
        xs1, ys1, xs2, ys2 = [], [], [], []
        starts = [0]
        bboxes = np.empty((len(wkbs), 4), dtype=np.float64)
        n_edges = 0
        for i, buf in enumerate(wkbs):
            kind, rings = parse_wkb(bytes(buf))
            if kind != "polygon":
                raise ValueError("PackedPolygons requires polygon WKB")
            minx = miny = np.inf
            maxx = maxy = -np.inf
            for r in rings:
                if r.shape[0] < 2:
                    continue
                xs1.append(r[:-1, 0]); ys1.append(r[:-1, 1])
                xs2.append(r[1:, 0]); ys2.append(r[1:, 1])
                n_edges += r.shape[0] - 1
                minx = min(minx, r[:, 0].min()); maxx = max(maxx, r[:, 0].max())
                miny = min(miny, r[:, 1].min()); maxy = max(maxy, r[:, 1].max())
            starts.append(n_edges)
            bboxes[i] = (minx, miny, maxx, maxy)
        cat = (lambda parts: np.concatenate(parts) if parts
               else np.empty(0, dtype=np.float64))
        return cls(
            x1=cat(xs1), y1=cat(ys1), x2=cat(xs2), y2=cat(ys2),
            edge_starts=np.asarray(starts, dtype=np.int64),
            bbox=bboxes,
            ids=None if ids is None else np.asarray(ids),
        )

    @property
    def n_polys(self) -> int:
        return len(self.edge_starts) - 1

    def edge_counts(self) -> np.ndarray:
        return np.diff(self.edge_starts)

    def contains_pairs(self, px, py, point_idx, poly_idx) -> np.ndarray:
        """Evaluate candidate (point, polygon) pairs; returns a bool mask.

        ``point_idx[i]`` indexes into ``px``/``py``; ``poly_idx[i]`` into this
        set.  Fully vectorized: pairs are expanded to (pair, edge) rows via
        ``np.repeat`` on per-polygon edge counts, edge crossings are computed
        in one shot, and crossing parity is reduced per pair with
        ``np.add.reduceat``.  Even-odd rule; a point exactly on a horizontal
        boundary follows the half-open ``(y1 > py) != (y2 > py)`` convention.
        """
        point_idx = np.asarray(point_idx, dtype=np.int64)
        poly_idx = np.asarray(poly_idx, dtype=np.int64)
        if point_idx.size == 0:
            return np.zeros(0, dtype=bool)
        counts = self.edge_counts()[poly_idx]
        pair_offsets = np.concatenate([[0], np.cumsum(counts)])
        total = int(pair_offsets[-1])
        if total == 0:
            return np.zeros(point_idx.shape[0], dtype=bool)
        # edge index per (pair, edge) row
        rep_pair = np.repeat(np.arange(poly_idx.shape[0]), counts)
        base = np.repeat(self.edge_starts[poly_idx], counts)
        within = np.arange(total) - np.repeat(pair_offsets[:-1], counts)
        e = base + within
        ppx = np.asarray(px, dtype=np.float64)[point_idx][rep_pair]
        ppy = np.asarray(py, dtype=np.float64)[point_idx][rep_pair]
        y1, y2 = self.y1[e], self.y2[e]
        x1, x2 = self.x1[e], self.x2[e]
        straddle = (y1 > ppy) != (y2 > ppy)
        with np.errstate(divide="ignore", invalid="ignore"):
            xint = (x2 - x1) * (ppy - y1) / (y2 - y1) + x1
        crossing = straddle & (ppx < xint)
        # parity per pair; clip trailing zero-count offsets so reduceat
        # never indexes past the edge array (counts==0 rows are zeroed
        # right after, so the clipped value is discarded)
        idx = np.minimum(pair_offsets[:-1], total - 1)
        crossings = np.add.reduceat(crossing.astype(np.int64), idx)
        crossings[counts == 0] = 0
        return (crossings % 2) == 1

    def contains_brute(self, px, py) -> tuple[np.ndarray, np.ndarray]:
        """All (point_idx, poly_idx) hits by brute force with bbox pretest.

        Test oracle (FIXTURES.md golden oracle #2) — O(points × polys);
        only for fixtures-sized inputs.
        """
        px = np.asarray(px, dtype=np.float64)
        py = np.asarray(py, dtype=np.float64)
        out_pt, out_pg = [], []
        for j in range(self.n_polys):
            minx, miny, maxx, maxy = self.bbox[j]
            cand = np.nonzero((px >= minx) & (px <= maxx)
                              & (py >= miny) & (py <= maxy))[0]
            if cand.size == 0:
                continue
            mask = self.contains_pairs(px, py, cand,
                                       np.full(cand.shape, j, dtype=np.int64))
            hit = cand[mask]
            out_pt.append(hit)
            out_pg.append(np.full(hit.shape, j, dtype=np.int64))
        if not out_pt:
            z = np.empty(0, dtype=np.int64)
            return z, z
        return np.concatenate(out_pt), np.concatenate(out_pg)


def haversine_m(lat1, lon1, lat2, lon2, radius: float = 6371008.8):
    """Great-circle distance in meters (mean earth radius 6371008.8 m).

    Vectorized; used by the kNN refinement stage (SURVEY.md §2.4: H3 k-ring
    expansion + haversine refinement).
    """
    lat1 = np.radians(np.asarray(lat1, dtype=np.float64))
    lat2 = np.radians(np.asarray(lat2, dtype=np.float64))
    dlat = lat2 - lat1
    dlon = np.radians(np.asarray(lon2, dtype=np.float64)
                      - np.asarray(lon1, dtype=np.float64))
    a = (np.sin(dlat / 2.0) ** 2
         + np.cos(lat1) * np.cos(lat2) * np.sin(dlon / 2.0) ** 2)
    return 2.0 * radius * np.arcsin(np.sqrt(np.clip(a, 0.0, 1.0)))


def segmentize(ring: np.ndarray, max_len: float) -> np.ndarray:
    """Insert vertices so no segment exceeds ``max_len`` — OGR
    ``segmentize`` (the pre-reprojection densify step of ogr2ogr's
    geometry chain, apps/ogr2ogr_lib.cpp:6736).  Vectorized: per-segment
    subdivision counts → linear interpolation."""
    r = np.asarray(ring, dtype=np.float64)
    seg = r[1:] - r[:-1]
    lengths = np.hypot(seg[:, 0], seg[:, 1])
    n_sub = np.maximum(np.ceil(lengths / max_len).astype(np.int64), 1)
    out = []
    for i in range(len(seg)):
        ts = np.arange(n_sub[i]) / n_sub[i]
        out.append(r[i] + ts[:, None] * seg[i])
    out.append(r[-1:])
    return np.vstack(out)


def simplify_dp(ring: np.ndarray, tol: float) -> np.ndarray:
    """Douglas–Peucker simplification (OGR ``SimplifyPreserveTopology``'s
    per-ring core; topology preservation across rings is the caller's
    concern).  Iterative stack implementation; keeps endpoints."""
    r = np.asarray(ring, dtype=np.float64)
    n = len(r)
    if n < 3:
        return r.copy()
    keep = np.zeros(n, dtype=bool)
    keep[0] = keep[-1] = True
    stack = [(0, n - 1)]
    while stack:
        a, b = stack.pop()
        if b - a < 2:
            continue
        seg = r[b] - r[a]
        L = np.hypot(*seg)
        pts = r[a + 1:b]
        if L == 0:
            d = np.hypot(pts[:, 0] - r[a, 0], pts[:, 1] - r[a, 1])
        else:
            d = np.abs(seg[0] * (r[a, 1] - pts[:, 1])
                       - seg[1] * (r[a, 0] - pts[:, 0])) / L
        imax = int(np.argmax(d))
        if d[imax] > tol:
            m = a + 1 + imax
            keep[m] = True
            stack.append((a, m))
            stack.append((m, b))
    return r[keep]


def set_precision(ring: np.ndarray, grid: float) -> np.ndarray:
    """OGR SetPrecision (ogr2ogr geometry chain, apps/ogr2ogr_lib.cpp:
    6850-7040): snap every coordinate to a ``grid`` increment, then drop
    consecutive duplicate vertices the snapping produced."""
    r = np.asarray(ring, dtype=np.float64)
    snapped = np.round(r / grid) * grid
    keep = np.ones(len(snapped), dtype=bool)
    keep[1:] = (snapped[1:] != snapped[:-1]).any(axis=1)
    return snapped[keep]


def wrapdateline_rings(rings, split_lon: float = 180.0):
    """ogr2ogr ``-wrapdateline``: split polygon rings that span the
    antimeridian into a west part (lon ≤ 180) and an east part wrapped to
    lon ≥ −180.  Detection: the ring's longitudes occupy both ends of the
    [−180, 180] range with a gap > 180° when read unshifted — the classic
    dateline-crossing signature.  Returns a list of ring LISTS (one per
    output polygon); non-crossing input comes back unchanged."""
    from .overlay import clip_ring_convex
    out = []
    for ring in rings:
        r = np.asarray(ring, dtype=np.float64)
        lons = r[:, 0]
        # detection: an EDGE jumping more than 180° in longitude (incl.
        # the closing edge) — the classic dateline-crossing signature.  A
        # wide-but-legitimate polygon (e.g. lon −100…100) has a large
        # SPAN but no single edge jump > 180°, so it passes through
        # unchanged (ADVICE r2: span-only detection wrongly split it).
        edge_jump = np.abs(np.diff(lons))
        closing = abs(float(lons[-1]) - float(lons[0]))
        if not (np.any(edge_jump > split_lon) or closing > split_lon):
            out.append([r])
            continue
        # unwrap: shift western hemisphere +360 so the ring is contiguous
        shifted = r.copy()
        shifted[:, 0] = np.where(lons < 0, lons + 360.0, lons)
        lat_lo = r[:, 1].min() - 1.0
        lat_hi = r[:, 1].max() + 1.0
        east = clip_ring_convex(shifted, box_ring(0.0, lat_lo, 180.0,
                                                  lat_hi))
        west = clip_ring_convex(shifted, box_ring(180.0, lat_lo, 360.0,
                                                  lat_hi))
        parts = []
        if len(east) >= 3:
            parts.append([east])
        if len(west) >= 3:
            w = west.copy()
            w[:, 0] -= 360.0
            parts.append([w])
        out.extend(parts if parts else [[r]])
    return out


def force_to_multipolygon(buf: bytes) -> bytes:
    """OGR forceTo(wkbMultiPolygon) (ogr2ogr -nlt PROMOTE_TO_MULTI):
    Polygon WKB → MultiPolygon WKB; MultiPolygon passes through."""
    polys = parse_wkb_multi(bytes(buf))
    return wkb_multipolygon(polys)


def _coord_spans(buf: memoryview, off: int, spans: list) -> int:
    """Walk ONE WKB geometry collecting ``(byte_off, n_points, dims)``
    coordinate runs; returns the offset past the geometry.  Handles
    Point/LineString/Polygon/Multi*/GeometryCollection, Z/M/ZM."""
    t, dims, off = _wkb_header(buf, off)
    step = 8 * dims
    if t == 1:                                   # Point
        spans.append((off, 1, dims))
        return off + step
    if t == 2:                                   # LineString
        (n,) = struct.unpack_from("<I", buf, off)
        spans.append((off + 4, n, dims))
        return off + 4 + step * n
    if t == 3:                                   # Polygon
        (nr,) = struct.unpack_from("<I", buf, off)
        off += 4
        for _ in range(nr):
            (n,) = struct.unpack_from("<I", buf, off)
            spans.append((off + 4, n, dims))
            off += 4 + step * n
        return off
    if t in (4, 5, 6, 7):                        # Multi* / Collection
        (n,) = struct.unpack_from("<I", buf, off)
        off += 4
        for _ in range(n):
            off = _coord_spans(buf, off, spans)
        return off
    raise ValueError(f"unsupported WKB geometry type {t}")


def transform_wkb(wkbs, fn):
    """Coordinate surgery over a BATCH of WKB geometries: every (x, y)
    across the batch is gathered into two flat arrays, ``fn(xs, ys) →
    (Xs, Ys)`` runs ONCE (vectorized CRS transform), and results scatter
    back in place — geometry structure (type, rings, Z/M ordinates) is
    preserved byte-for-byte.  The ogr2ogr -t_srs reprojection shape
    (apps/ogr2ogr_lib.cpp:6795 per-feature chain, here batched)."""
    bufs, views = [], []
    xs_parts, ys_parts = [], []
    for b in wkbs:
        ba = bytearray(b)
        spans: list = []
        _coord_spans(memoryview(ba), 0, spans)
        bufs.append(ba)
        for off, n, dims in spans:
            if n == 0:
                continue
            a = np.frombuffer(ba, np.float64, n * dims, off).reshape(n,
                                                                     dims)
            views.append(a)
            xs_parts.append(a[:, 0].copy())
            ys_parts.append(a[:, 1].copy())
    if not views:
        return [bytes(b) for b in bufs]
    X, Y = fn(np.concatenate(xs_parts), np.concatenate(ys_parts))
    pos = 0
    for a in views:
        n = a.shape[0]
        a[:, 0] = X[pos:pos + n]
        a[:, 1] = Y[pos:pos + n]
        pos += n
    return [bytes(b) for b in bufs]
