"""Geometry kernel: WKB (de)serialization, vectorized point-in-polygon,
envelopes, haversine distance.

The data model follows OGR's Arrow bridge: geometry travels as a WKB
``binary`` column tagged ``ogc.wkb`` (reference: ogr/ogrsf_frmts/generic/
ogrlayerarrow.cpp:682, 2562).

This module holds the engine's one WKB reader, :func:`read_wkb` (the
role of ``OGRGeometryFactory::createFromWkb``, which every OGR driver
calls): both byte orders, ISO and EWKB Z/M/ZM, every OGC type 1-17, and
zero-copy coordinate views, with every count and length checked against
the buffer.  Every module that reads WKB — the GeoJSON, WKT, FlatGeobuf
and curve converters, measures, geodesics, GeoParquet metadata and
ogrinfo — goes through it or through the views built on it here
(:func:`parse_wkb`, :func:`parse_wkb_multi`, :func:`wkb_envelope`,
:func:`wkb_type`, :func:`transform_wkb`).  The encoders (``wkb_point``,
``wkb_polygon``, ``wkb_multipolygon``) write little-endian 2-D.

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
    "read_wkb",
    "wkb_type",
    "WKB_TYPE_NAMES",
    "wkb_envelope",
    "transform_wkb",
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


# OGC geometry type names by base WKB type (ogr/ogr_core.h:409-519)
WKB_TYPE_NAMES = {1: "Point", 2: "LineString", 3: "Polygon",
                  4: "MultiPoint", 5: "MultiLineString", 6: "MultiPolygon",
                  7: "GeometryCollection", 8: "CircularString",
                  9: "CompoundCurve", 10: "CurvePolygon", 11: "MultiCurve",
                  12: "MultiSurface", 13: "Curve", 14: "Surface",
                  15: "PolyhedralSurface", 16: "TIN", 17: "Triangle"}

_WKB_MAX_DEPTH = 32   # OGR's limit (ogrgeometrycollection.cpp importFromWkb)
_U32 = (struct.Struct(">I").unpack_from, struct.Struct("<I").unpack_from)
_F8 = (np.dtype(">f8"), np.dtype("<f8"))   # indexed by the byte-order flag


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
    t &= ~0x20000000          # EWKB SRID flag (skipped by _wkb_header)
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


def _wkb_truncated(buf) -> ValueError:
    return ValueError(f"truncated wkb at byte {len(buf)}")


def _wkb_header(buf, off: int):
    """Geometry header at ``off`` → (base_type, dims, byte order,
    payload offset); an EWKB SRID is skipped."""
    if off + 5 > len(buf):
        raise _wkb_truncated(buf)
    order = buf[off]
    if order > 1:
        raise ValueError(f"bad wkb byte order {order} at byte {off}")
    (raw,) = _U32[order](buf, off + 1)
    base, dims = (raw, 2) if raw < 18 else _wkb_type_dims(raw)
    if base not in WKB_TYPE_NAMES:
        raise ValueError(f"unsupported WKB geometry type {base}")
    return base, dims, order, off + (9 if raw & 0x20000000 else 5)


def _wkb_walk(buf, off: int, depth: int):
    """The one WKB walker: the geometry at ``off`` → ((base, dims, data),
    offset past it).  ``data`` follows the type's shape: a Point is a
    (1, dims) coordinate view; LineString and CircularString an (n, dims)
    view; Polygon and Triangle a list of ring views; every other type a
    list of member nodes.  Views are zero-copy over ``buf`` (writable
    when it is a bytearray).  A count or length that runs past the end
    raises ``ValueError("truncated wkb at byte N")``; a collection
    nested ``_WKB_MAX_DEPTH`` deep raises ``ValueError`` too, so hostile
    input cannot exhaust the Python stack."""
    base, dims, order, off = _wkb_header(buf, off)
    size = len(buf)
    step = 8 * dims
    if base == 1:
        if off + step > size:
            raise _wkb_truncated(buf)
        data = np.frombuffer(buf, _F8[order], dims, off).reshape(1, dims)
        return (base, dims, data), off + step
    if off + 4 > size:
        raise _wkb_truncated(buf)
    u32 = _U32[order]
    (n,) = u32(buf, off)
    off += 4
    if base in (2, 8):
        if off + step * n > size:
            raise _wkb_truncated(buf)
        data = np.frombuffer(buf, _F8[order], dims * n, off).reshape(n, dims)
        return (base, dims, data), off + step * n
    data = []
    if base in (3, 17):
        for _ in range(n):
            if off + 4 > size:
                raise _wkb_truncated(buf)
            (m,) = u32(buf, off)
            end = off + 4 + step * m
            if end > size:
                raise _wkb_truncated(buf)
            data.append(np.frombuffer(buf, _F8[order], dims * m,
                                      off + 4).reshape(m, dims))
            off = end
        return (base, dims, data), off
    if depth == _WKB_MAX_DEPTH:
        raise ValueError(f"wkb nested deeper than {_WKB_MAX_DEPTH} "
                         f"collections at byte {off}")
    for _ in range(n):
        part, off = _wkb_walk(buf, off, depth + 1)
        data.append(part)
    return (base, dims, data), off


def read_wkb(buf):
    """Read one WKB geometry of any OGC type 1-17, in either byte order,
    2-D or ISO/EWKB Z, M and ZM (an EWKB SRID is skipped), into the
    ``(base_type, dims, data)`` tree of :func:`_wkb_walk`.  Coordinates
    keep all ``dims`` ordinates; readers that model XY slice
    ``[:, :2]``."""
    if not isinstance(buf, (bytes, bytearray)):
        buf = bytes(buf)
    return _wkb_walk(buf, 0, 0)[0]


def wkb_type(buf):
    """(base_type, dims) of a WKB geometry, after a full bounds-checked
    read (a cut blob raises like any other reader)."""
    base, dims, _ = read_wkb(buf)
    return base, dims


def _coord_views(node):
    """Every coordinate view of a :func:`read_wkb` tree, in order."""
    base, _, data = node
    if base in (1, 2, 8):
        yield data
    elif base in (3, 17):
        yield from data
    else:
        for part in data:
            yield from _coord_views(part)


def _polygon_rings(node) -> list:
    """Polygon / MultiPolygon tree → one list of float64 (n, 2) XY rings
    per polygon."""
    base, _, data = node
    if base == _WKB_POLYGON:
        polys = [data]
    elif base == _WKB_MULTIPOLYGON:
        if any(part[0] != _WKB_POLYGON for part in data):
            raise ValueError("MultiPolygon member is not a Polygon")
        polys = [part[2] for part in data]
    else:
        raise ValueError(f"unsupported WKB geometry type {base}")
    return [[r[:, :2].astype(np.float64) for r in rings] for rings in polys]


def parse_wkb_multi(buf: bytes) -> list:
    """Parse polygon/multipolygon WKB preserving per-polygon ring grouping:
    returns ``[[outer, hole, ...], ...]`` — one ring list per polygon.
    Z/M/ZM variants (ISO +1000/2000/3000 and EWKB flag bits) parse with
    the extra ordinates dropped.  Needed wherever outer-vs-hole roles
    matter (area, clip); :func:`parse_wkb` flattens rings (fine for
    even-odd PIP only)."""
    return _polygon_rings(read_wkb(buf))


def parse_wkb(buf: bytes):
    """Parse WKB → ``("point", (x, y))`` or ``("polygon", [rings])``
    (MultiPolygon flattens to one ring list — sufficient for even-odd
    PIP; use :func:`parse_wkb_multi` when outer/hole grouping matters).
    Z/M/ZM variants parse with extra ordinates dropped."""
    node = read_wkb(buf)
    base, _, data = node
    if base == _WKB_POINT:
        return "point", (float(data[0, 0]), float(data[0, 1]))
    if base == _WKB_POLYGON:
        return "polygon", [r[:, :2].astype(np.float64) for r in data]
    return "polygon", [r for rings in _polygon_rings(node) for r in rings]


def wkb_envelope(buf: bytes):
    """(minx, miny, maxx, maxy) of a WKB geometry of any type — OGR
    ``getEnvelope``; all NaN for a geometry without coordinates."""
    views = [v[:, :2] for v in _coord_views(read_wkb(buf)) if len(v)]
    if not views:
        return (np.nan,) * 4
    xy = views[0] if len(views) == 1 else np.concatenate(views)
    lo, hi = xy.min(axis=0), xy.max(axis=0)
    return float(lo[0]), float(lo[1]), float(hi[0]), float(hi[1])


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


def transform_wkb(wkbs, fn):
    """Coordinate surgery over a BATCH of WKB geometries: every (x, y)
    across the batch is gathered into two flat arrays, ``fn(xs, ys) →
    (Xs, Ys)`` runs ONCE (vectorized CRS transform), and results scatter
    back in place — geometry structure (type, rings, Z/M ordinates) is
    preserved byte-for-byte.  The ogr2ogr -t_srs reprojection shape
    (apps/ogr2ogr_lib.cpp:6795 per-feature chain, here batched)."""
    bufs = [bytearray(b) for b in wkbs]
    views = [a for ba in bufs for a in _coord_views(read_wkb(ba)) if len(a)]
    if not views:
        return [bytes(b) for b in bufs]
    X, Y = fn(np.concatenate([a[:, 0] for a in views], dtype=np.float64),
              np.concatenate([a[:, 1] for a in views], dtype=np.float64))
    pos = 0
    for a in views:
        n = a.shape[0]
        a[:, 0] = X[pos:pos + n]
        a[:, 1] = Y[pos:pos + n]
        pos += n
    return [bytes(b) for b in bufs]
