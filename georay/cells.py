"""Discrete global grid cell indexers: S2 cell ids and an H3-style hex grid.

The engine's partitioning keys (SURVEY.md §7.3) are cells: every image /
point / polygon footprint is assigned a cell, `groupby(cell)` co-locates
spatially-near rows, skewed cells are salted (BASELINE north rule).

* :func:`s2_cell_id` — the real S2 cell id (public algorithm from the
  s2geometry library docs: cube-face projection, quadratic s↔u transform,
  Hilbert-curve position via 4-bit lookup tables), vectorized over numpy
  arrays.  Used as the spatial clustering / partition key.
* ``hex_*`` — an aperture-4 hexagonal grid in Web-Mercator meters with an
  exact ``k_ring`` (axial coordinates), standing in for H3's k-ring
  expansion in the kNN operator (SURVEY.md §2.4).  H3 proper (icosahedral
  aperture-7) is not reimplemented; the k-ring/parent/compact *semantics*
  the engine relies on are identical.

Everything is stateless pure math → callable inside ``map_batches`` bodies.
"""

from __future__ import annotations

import numpy as np

from .mercator import ORIGIN_SHIFT, latlon_to_meters, meters_to_latlon

__all__ = [
    "s2_cell_id", "s2_parent", "s2_level",
    "hex_cell", "hex_cell_from_meters", "hex_center_meters", "hex_k_ring",
    "hex_parent", "hex_res", "hex_decode", "hex_encode", "HEX_MAX_RES",
    "hex_circumradius", "hex_polyfill", "hex_compact",
]

# ---------------------------------------------------------------------------
# S2 (public algorithm; constants per s2geometry docs)
# ---------------------------------------------------------------------------

_SWAP = 1
_INVERT = 2
_LOOKUP_BITS = 4
_MAX_LEVEL = 30

_POS_TO_IJ = np.array([
    [0, 1, 3, 2],
    [0, 2, 3, 1],
    [3, 2, 0, 1],
    [3, 1, 0, 2],
], dtype=np.int64)
_POS_TO_ORIENT = np.array([_SWAP, 0, 0, _INVERT | _SWAP], dtype=np.int64)

_LOOKUP_POS = np.zeros(1 << (2 * _LOOKUP_BITS + 2), dtype=np.uint64)
_LOOKUP_IJ = np.zeros(1 << (2 * _LOOKUP_BITS + 2), dtype=np.uint64)


def _init_lookup(level, i, j, orig_orient, pos, orient):
    if level == _LOOKUP_BITS:
        ij = (i << _LOOKUP_BITS) + j
        _LOOKUP_POS[(ij << 2) + orig_orient] = (pos << 2) + (orient & 3)
        _LOOKUP_IJ[(pos << 2) + orig_orient] = (ij << 2) + (orient & 3)
        return
    r = _POS_TO_IJ[orient & 3]
    for sub in range(4):
        _init_lookup(level + 1,
                     i * 2 + (int(r[sub]) >> 1),
                     j * 2 + (int(r[sub]) & 1),
                     orig_orient,
                     pos * 4 + sub,
                     (orient ^ int(_POS_TO_ORIENT[sub])))


for _o in range(4):
    _init_lookup(0, 0, 0, _o, 0, _o)


def _xyz_to_face_uv(x, y, z):
    ax, ay, az = np.abs(x), np.abs(y), np.abs(z)
    face = np.where(ax >= ay,
                    np.where(ax >= az, 0, 2),
                    np.where(ay >= az, 1, 2)).astype(np.int64)
    comp = np.choose(face, [x, y, z])
    face = np.where(comp < 0, face + 3, face)
    # standard S2 face→(u,v) table
    u = np.empty_like(x)
    v = np.empty_like(x)
    with np.errstate(divide="ignore", invalid="ignore"):
        for f, (uf, vf) in enumerate([
            (lambda: y / x, lambda: z / x),      # face 0 (+x)
            (lambda: -x / y, lambda: z / y),     # face 1 (+y)
            (lambda: -x / z, lambda: -y / z),    # face 2 (+z)
            (lambda: z / x, lambda: y / x),      # face 3 (-x)
            (lambda: z / y, lambda: -x / y),     # face 4 (-y)
            (lambda: -y / z, lambda: -x / z),    # face 5 (-z)
        ]):
            m = face == f
            if m.any():
                u[m] = uf()[m]
                v[m] = vf()[m]
    return face, u, v


def _uv_to_st(u):
    # quadratic transform (S2_QUADRATIC_PROJECTION); clamp the dead branch
    # so np.where doesn't evaluate sqrt of a negative
    return np.where(u >= 0.0,
                    0.5 * np.sqrt(1.0 + 3.0 * np.maximum(u, 0.0)),
                    1.0 - 0.5 * np.sqrt(1.0 - 3.0 * np.minimum(u, 0.0)))


def _st_to_ij(s):
    limit = (1 << _MAX_LEVEL) - 1
    return np.clip(np.floor(s * (1 << _MAX_LEVEL)), 0, limit).astype(np.uint64)


def s2_cell_id(lat, lon, level: int = _MAX_LEVEL):
    """Vectorized S2 cell id (uint64) at ``level`` for lat/lon degrees."""
    lat = np.atleast_1d(np.asarray(lat, dtype=np.float64))
    lon = np.atleast_1d(np.asarray(lon, dtype=np.float64))
    phi, theta = np.radians(lat), np.radians(lon)
    cos_phi = np.cos(phi)
    x = cos_phi * np.cos(theta)
    y = cos_phi * np.sin(theta)
    z = np.sin(phi)
    face, u, v = _xyz_to_face_uv(x, y, z)
    i = _st_to_ij(_uv_to_st(u))
    j = _st_to_ij(_uv_to_st(v))

    face = face.astype(np.uint64)
    n = face << np.uint64(60)
    bits = face & np.uint64(_SWAP)
    mask = np.uint64((1 << _LOOKUP_BITS) - 1)
    for k in range(7, -1, -1):
        kk = np.uint64(k * _LOOKUP_BITS)
        bits += ((i >> kk) & mask) << np.uint64(_LOOKUP_BITS + 2)
        bits += ((j >> kk) & mask) << np.uint64(2)
        bits = _LOOKUP_POS[bits]
        n |= (bits >> np.uint64(2)) << np.uint64(k * 2 * _LOOKUP_BITS)
        bits &= np.uint64(_SWAP | _INVERT)
    leaf = n * np.uint64(2) + np.uint64(1)
    if level >= _MAX_LEVEL:
        return leaf
    return s2_parent(leaf, level)


def s2_parent(cell_id, level: int):
    """Ancestor at ``level``: ``(id & -lsb) | lsb`` with
    ``lsb = 1 << (2*(30-level))`` (standard S2 parent formula)."""
    cell_id = np.asarray(cell_id, dtype=np.uint64)
    lsb = np.uint64(1) << np.uint64(2 * (_MAX_LEVEL - level))
    neg = (~(lsb - np.uint64(1))) & np.uint64(0xFFFFFFFFFFFFFFFF)
    return (cell_id & neg) | lsb


def s2_level(cell_id):
    """Level of an S2 cell id = 30 - trailing_zeros/2."""
    cell_id = np.asarray(cell_id, dtype=np.uint64)
    tz = np.zeros(cell_id.shape, dtype=np.int64)
    c = cell_id.copy()
    for _ in range(64):
        m = (c & np.uint64(1)) == 0
        if not m.any():
            break
        tz[m] += 1
        c = np.where(m, c >> np.uint64(1), c)
    return _MAX_LEVEL - (tz >> 1)


# ---------------------------------------------------------------------------
# Hex grid (H3-style k-ring semantics, aperture 4, Web-Mercator plane)
# ---------------------------------------------------------------------------

HEX_MAX_RES = 15
_HEX_OFF = np.int64(1) << np.int64(27)
_SQRT3 = np.sqrt(3.0)


def hex_circumradius(res) -> np.ndarray:
    """Circumradius (meters, EPSG:3857) at ``res``; halves every level
    (aperture 4): res 0 ≈ 20,037 km … res 15 ≈ 611 m."""
    return ORIGIN_SHIFT / (2.0 ** np.asarray(res, dtype=np.float64))


def hex_encode(res, q, r):
    """Pack (res, axial q, axial r) into an int64 cell id."""
    res = np.asarray(res, dtype=np.int64)
    q = np.asarray(q, dtype=np.int64) + _HEX_OFF
    r = np.asarray(r, dtype=np.int64) + _HEX_OFF
    return (res << np.int64(58)) | (q << np.int64(29)) | r


def hex_decode(cell):
    cell = np.asarray(cell, dtype=np.int64)
    res = cell >> np.int64(58)
    q = ((cell >> np.int64(29)) & np.int64((1 << 29) - 1)) - _HEX_OFF
    r = (cell & np.int64((1 << 29) - 1)) - _HEX_OFF
    return res, q, r


def hex_res(cell):
    return hex_decode(cell)[0]


def hex_cell_from_meters(mx, my, res: int):
    """Axial hex cell (pointy-top) containing EPSG:3857 point, via fractional
    axial coords + cube rounding (standard hex-grid math)."""
    R = float(hex_circumradius(res))
    mx = np.atleast_1d(np.asarray(mx, dtype=np.float64))
    my = np.atleast_1d(np.asarray(my, dtype=np.float64))
    qf = (_SQRT3 / 3.0 * mx - my / 3.0) / R
    rf = (2.0 / 3.0 * my) / R
    # cube rounding
    xf, zf = qf, rf
    yf = -xf - zf
    rx, ry, rz = np.round(xf), np.round(yf), np.round(zf)
    dx, dy, dz = np.abs(rx - xf), np.abs(ry - yf), np.abs(rz - zf)
    fix_x = (dx > dy) & (dx > dz)
    fix_z = ~fix_x & (dz > dy)
    rx = np.where(fix_x, -ry - rz, rx)
    rz = np.where(fix_z, -rx - ry, rz)
    return hex_encode(np.full(mx.shape, res, dtype=np.int64),
                      rx.astype(np.int64), rz.astype(np.int64))


def hex_cell(lat, lon, res: int):
    """lat/lon degrees → hex cell id at ``res`` (via Web-Mercator)."""
    mx, my = latlon_to_meters(lat, lon)
    return hex_cell_from_meters(mx, my, res)


def hex_center_meters(cell):
    """EPSG:3857 center of a hex cell."""
    res, q, r = hex_decode(cell)
    R = hex_circumradius(res)
    mx = R * _SQRT3 * (q.astype(np.float64) + r.astype(np.float64) / 2.0)
    my = R * 1.5 * r.astype(np.float64)
    return mx, my


def _ring_offsets(k: int):
    """All axial offsets with hex distance <= k: 3k(k+1)+1 cells."""
    dq = np.arange(-k, k + 1)
    dq, dr = np.meshgrid(dq, dq, indexing="ij")
    dq, dr = dq.ravel(), dr.ravel()
    dist = (np.abs(dq) + np.abs(dr) + np.abs(dq + dr)) // 2
    m = dist <= k
    return dq[m], dr[m]


def hex_k_ring(cell, k: int):
    """All cells within hex-grid distance ``k`` of each input cell —
    H3 ``grid_disk`` semantics.  Returns shape ``(n, 3k(k+1)+1)``."""
    res, q, r = hex_decode(np.atleast_1d(cell))
    dq, dr = _ring_offsets(k)
    return hex_encode(res[:, None],
                      q[:, None] + dq[None, :],
                      r[:, None] + dr[None, :])


def hex_ring(cell, k: int):
    """Only the cells at exactly distance ``k`` (H3 ``grid_ring``)."""
    res, q, r = hex_decode(np.atleast_1d(cell))
    if k == 0:
        return np.atleast_1d(np.asarray(cell, dtype=np.int64))[:, None]
    dq, dr = _ring_offsets(k)
    dist = (np.abs(dq) + np.abs(dr) + np.abs(dq + dr)) // 2
    m = dist == k
    dq, dr = dq[m], dr[m]
    return hex_encode(res[:, None], q[:, None] + dq[None, :],
                      r[:, None] + dr[None, :])


def hex_parent(cell, parent_res: int):
    """Containing cell at a coarser resolution (recompute from center —
    aperture-4 grids don't nest exactly, same caveat as H3 aperture 7)."""
    mx, my = hex_center_meters(cell)
    return hex_cell_from_meters(mx, my, parent_res)


def hex_polyfill(rings, res: int):
    """All cells at ``res`` whose CENTER lies inside the polygon (H3
    ``polygon_to_cells`` semantics).  ``rings`` = list of (N,2) lon/lat
    rings (outer + holes).  Vectorized: candidate centers from the bbox
    grid, then even-odd PIP."""
    from .geom import PackedPolygons, wkb_polygon
    pts = np.vstack(rings)
    minx, maxx = pts[:, 0].min(), pts[:, 0].max()
    miny, maxy = pts[:, 1].min(), pts[:, 1].max()
    R = float(hex_circumradius(res))
    x0, y0 = latlon_to_meters(miny, minx)
    x1, y1 = latlon_to_meters(maxy, maxx)
    xs = np.arange(float(x0) - 2 * R, float(x1) + 2 * R, R * 0.8)
    ys = np.arange(float(y0) - 2 * R, float(y1) + 2 * R, R * 0.8)
    gx, gy = np.meshgrid(xs, ys)
    cand = np.unique(hex_cell_from_meters(gx.ravel(), gy.ravel(), res))
    cx, cy = hex_center_meters(cand)
    clat, clon = meters_to_latlon(cx, cy)
    pp = PackedPolygons.from_wkb([wkb_polygon(rings)])
    idx = np.arange(len(cand), dtype=np.int64)
    inside = pp.contains_pairs(clon, clat, idx,
                               np.zeros(len(cand), dtype=np.int64))
    return cand[inside]


def hex_compact(cells):
    """Replace complete aperture-4 sibling sets by their parent, repeatedly
    (H3 ``compact_cells`` semantics under this grid's parent rule: a parent
    is emitted when ≥4 of its children at res r are present — aperture-4
    hex grids don't nest exactly, so "complete" is defined by child count,
    documented approximation)."""
    cells = np.unique(np.asarray(cells, dtype=np.int64))
    out = []
    cur = cells
    while len(cur):
        res = int(hex_res(cur[:1])[0])
        if res == 0:
            out.append(cur)
            break
        parents = hex_parent(cur, res - 1)
        uniq, counts = np.unique(parents, return_counts=True)
        full = set(uniq[counts >= 4].tolist())
        keep = np.array([int(p) not in full for p in parents])
        out.append(cur[keep])
        cur = np.array(sorted(full), dtype=np.int64)
        if not len(full):
            break
    return np.concatenate(out) if out else cells


def hex_distance(cell_a, cell_b):
    """Hex-grid distance between same-res cells (axial metric)."""
    ra, qa, aa = hex_decode(cell_a)
    rb, qb, ab = hex_decode(cell_b)
    dq = qa - qb
    dr = aa - ab
    return (np.abs(dq) + np.abs(dr) + np.abs(dq + dr)) // 2
