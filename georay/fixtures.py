"""Deterministic synthetic fixtures (seed-free: everything is a pure
function of the row index) — FIXTURES.md T1/T2/T3.

* :func:`images_table` — the mandated input table (BASELINE.json
  input_hint): ``image_id:string, bytes:binary, w:int32, h:int32,
  fmt:string, caption:string, phash:int64``.  PNG rows are exact; "jpeg"
  rows are real baseline JFIF (see georay.codecs / georay.jpeg).
  Every 97th row is an exact duplicate of row 0's pixels (dedup test).
* :func:`georef` — derived (not stored) georeferencing: center lat/lon from
  a hash of the row index with a 30/70 uniform/hotspot-cluster mix
  (Zipfian skew over 5 "urban" hotspots — the skew-salting test), plus a
  north-up affine geotransform sized so an image spans ~1 tile at z≈12
  (analog of a GDAL dataset's GetGeoTransform, gcore/gdaldataset.cpp:1380).
* :func:`polygons_table` — join polygon side: per-hotspot grids of convex
  quads + hexagons, a few large polygons spanning many cells, ~1% bowtie
  (invalid) rings; WKB in lon/lat degree space + envelope columns
  (pretest, ogrlayer.cpp:2714-2733).
* :func:`points_table` — kNN query side incl. antimeridian/pole edge cases.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from . import codecs
from .geom import box_ring, wkb_polygon
from .mercator import latlon_to_meters, resolution

__all__ = [
    "IMAGE_SCHEMA", "HOTSPOTS", "pattern", "images_table", "georef",
    "parse_image_idx", "polygons_table", "points_table", "write_images_parquet",
]

IMAGE_SCHEMA = pa.schema([
    ("image_id", pa.string()),
    ("bytes", pa.binary()),
    ("w", pa.int32()),
    ("h", pa.int32()),
    ("fmt", pa.string()),
    ("caption", pa.string()),
    ("phash", pa.int64()),
])

# (lat, lon) of the 5 synthetic "urban" hotspots (Zipf-weighted)
HOTSPOTS = np.array([
    (40.71, -74.00),   # NYC-ish
    (51.51, -0.13),    # London-ish
    (35.68, 139.69),   # Tokyo-ish
    (-23.55, -46.63),  # São Paulo-ish
    (19.08, 72.88),    # Mumbai-ish
], dtype=np.float64)

_SIZES = np.array([16, 20, 64, 256], dtype=np.int32)
_VOCAB = ("city harbor street park rooftop market bridge river tower plaza "
          "night dawn aerial oblique winter summer crowd empty rain sun").split()

_KNUTH = np.uint64(2654435761)
_M2 = np.uint64(0x9E3779B97F4A7C15)
_MOD32 = np.float64(2 ** 32)


def _hash_u01(i: np.ndarray, salt: int) -> np.ndarray:
    """Deterministic uniform(0,1) stream ``salt`` from row indices."""
    salted = np.uint64((salt * 0x9E3779B97F4A7C15) % (1 << 64))
    x = (np.asarray(i, dtype=np.uint64) + salted) * _KNUTH
    x ^= x >> np.uint64(16)
    x *= _M2
    return ((x >> np.uint64(32)).astype(np.float64)) / _MOD32


def parse_image_idx(image_id_arr) -> np.ndarray:
    """'img%08d' → int64 row index (vectorized via fixed-width view)."""
    a = np.asarray(image_id_arr, dtype="U12")
    # view the fixed-width digits as a char matrix and fold base-10
    digits = a.view(np.uint32).reshape(a.shape[0], -1)[:, 3:11] - ord("0")
    return (digits.astype(np.int64)
            * (10 ** np.arange(7, -1, -1, dtype=np.int64))).sum(axis=1)


def pattern(i: int, w: int, h: int) -> np.ndarray:
    """Procedural RGB gradient+checker test pattern, pure fn of (i, w, h)."""
    x = np.arange(w, dtype=np.int64)[None, :]
    y = np.arange(h, dtype=np.int64)[:, None]
    r = (x * 255 // max(w - 1, 1) + i * 7) % 256
    g = (y * 255 // max(h - 1, 1) + i * 13) % 256
    b = (((x // 4) ^ (y // 4)) * 31 + i) % 256
    return np.stack(np.broadcast_arrays(r, g, b), axis=2).astype(np.uint8)


def _row(i: int):
    if i % 97 == 0:  # exact duplicate group (FIXTURES.md T1 phash rule)
        w = h = 16
        arr = pattern(0, 16, 16)
        fmt = "png"  # identical bytes across the whole dup group
    else:
        w = int(_SIZES[i % 4])
        h = int(_SIZES[(i // 4) % 4])
        arr = pattern(i, w, h)
        fmt = "png" if i % 2 == 0 else "jpeg"
    data = codecs.encode_image(arr, fmt)
    words = " ".join(_VOCAB[(i // (k + 1) + k * 7) % len(_VOCAB)]
                     for k in range(4))
    caption = f"caption of img{i:08d}: {words}"
    return (f"img{i:08d}", data, w, h, fmt, caption,
            int(codecs.phash64(codecs.decode_image(data, fmt))))


def images_table(n: int, start: int = 0) -> pa.Table:
    """Rows [start, start+n) of the deterministic image table."""
    cols = list(zip(*(_row(i) for i in range(start, start + n))))
    arrays = [
        pa.array(cols[0], pa.string()),
        pa.array(cols[1], pa.binary()),
        pa.array(cols[2], pa.int32()),
        pa.array(cols[3], pa.int32()),
        pa.array(cols[4], pa.string()),
        pa.array(cols[5], pa.string()),
        pa.array(cols[6], pa.int64()),
    ]
    return pa.Table.from_arrays(arrays, schema=IMAGE_SCHEMA)


def georef(idx: np.ndarray, w: np.ndarray, h: np.ndarray):
    """Derived georeferencing for image rows.

    Returns a dict of numpy arrays: ``lat, lon`` (image center),
    ``cx, cy`` (EPSG:3857 center), ``ulx, uly, psize`` (north-up affine
    geotransform ``[ulx, psize, 0, uly, 0, -psize]``).

    30% of rows scatter uniformly over lat ∈ [-85, 85]; 70% cluster around
    the 5 hotspots with Zipf(rank) weights and ~0.5° gaussian spread.
    """
    idx = np.asarray(idx, dtype=np.int64)
    w = np.asarray(w, dtype=np.float64)
    u_mode = _hash_u01(idx, 1)
    u1 = _hash_u01(idx, 2)
    u2 = _hash_u01(idx, 3)
    u3 = _hash_u01(idx, 4)
    u4 = np.clip(_hash_u01(idx, 5), 1e-12, 1 - 1e-12)
    u5 = _hash_u01(idx, 6)

    # uniform branch
    lon_u = u1 * 360.0 - 180.0
    lat_u = u2 * 170.0 - 85.0

    # Zipf hotspot choice: weights 1/(rank+1), ranks 0..4
    wts = 1.0 / (np.arange(len(HOTSPOTS)) + 1.0)
    cdf = np.cumsum(wts) / wts.sum()
    spot = np.searchsorted(cdf, u3, side="right").clip(0, len(HOTSPOTS) - 1)
    # Box-Muller gaussian offset, sigma 0.5 deg
    rad = 0.5 * np.sqrt(-2.0 * np.log(u4))
    ang = 2.0 * np.pi * u5
    lat_c = HOTSPOTS[spot, 0] + rad * np.cos(ang)
    lon_c = HOTSPOTS[spot, 1] + rad * np.sin(ang)

    uniform = u_mode < 0.30
    lat = np.clip(np.where(uniform, lat_u, lat_c), -85.0, 85.0)
    lon = np.where(uniform, lon_u, lon_c)
    lon = ((lon + 180.0) % 360.0) - 180.0

    cx, cy = latlon_to_meters(lat, lon)
    # pixel size: the image's longer axis spans one tile-width at z=12
    # (FIXTURES.md: "an image spans ~1 tile at z≈12")
    h = np.asarray(h, dtype=np.float64)
    psize = (float(resolution(12)) * 256.0) / np.maximum(w, h)
    ulx = cx - w * psize / 2.0
    uly = cy + h * psize / 2.0
    return {"lat": lat, "lon": lon, "cx": cx, "cy": cy,
            "ulx": ulx, "uly": uly, "psize": psize}


def _hexagon_ring(clat, clon, rdeg):
    ang = np.linspace(0, 2 * np.pi, 7)
    return np.stack([clon + rdeg * np.cos(ang), clat + rdeg * np.sin(ang)],
                    axis=1)


def polygons_table(n: int = 500) -> pa.Table:
    """Join polygon side in lon/lat degree space (see module docstring).

    Mix per row i: grids of rects (60%), hexagons (30%), large multi-cell
    rects (9%), bowtie self-intersections (~1%, the MakeValid test).
    """
    ids, wkbs, envs, cats = [], [], [], []
    cat_cycle = ("urban", "water", "park")
    for i in range(n):
        u1 = float(_hash_u01(np.array([i]), 11)[0])
        u2 = float(_hash_u01(np.array([i]), 12)[0])
        u3 = float(_hash_u01(np.array([i]), 13)[0])
        spot = HOTSPOTS[i % len(HOTSPOTS)]
        clat = float(spot[0] + (u1 - 0.5) * 3.0)
        clon = float(spot[1] + (u2 - 0.5) * 3.0)
        kind = i % 100
        if kind < 60:  # axis-aligned rect
            dw = 0.05 + u3 * 0.25
            dh = 0.05 + (1 - u3) * 0.25
            rings = [box_ring(clon - dw, clat - dh, clon + dw, clat + dh)]
        elif kind < 90:  # hexagon
            rings = [_hexagon_ring(clat, clon, 0.05 + u3 * 0.2)]
        elif kind < 99:  # large rect spanning many cells
            rings = [box_ring(clon - 2.0, clat - 1.5, clon + 2.0, clat + 1.5)]
        else:  # bowtie (self-intersecting)
            rings = [np.array([[clon - .2, clat - .2], [clon + .2, clat + .2],
                               [clon + .2, clat - .2], [clon - .2, clat + .2],
                               [clon - .2, clat - .2]])]
        buf = wkb_polygon(rings)
        pts = np.vstack(rings)
        ids.append(f"poly{i:05d}")
        wkbs.append(buf)
        envs.append((pts[:, 0].min(), pts[:, 1].min(),
                     pts[:, 0].max(), pts[:, 1].max()))
        cats.append(cat_cycle[i % 3])
    env = np.asarray(envs, dtype=np.float64)
    return pa.table({
        "polygon_id": pa.array(ids, pa.string()),
        "wkb": pa.array(wkbs, pa.binary()),
        "minx": env[:, 0], "miny": env[:, 1],
        "maxx": env[:, 2], "maxy": env[:, 3],
        "category": pa.array(cats, pa.string()),
    })


def points_table(n: int = 1000) -> pa.Table:
    """kNN query points: hotspot-clustered + uniform + edge cases near the
    antimeridian and high latitudes."""
    i = np.arange(n, dtype=np.int64)
    g = georef(i, np.full(n, 256.0), np.full(n, 256.0))
    lat, lon = g["lat"].copy(), g["lon"].copy()
    lat[n - n // 50:] = 84.5          # near-pole band
    lon[n - n // 25:n - n // 50] = 179.9  # antimeridian band
    return pa.table({
        "point_id": pa.array([f"pt{k:06d}" for k in range(n)], pa.string()),
        "lon": lon, "lat": lat,
        "k": pa.array(np.full(n, 5, dtype=np.int32)),
    })


def write_images_parquet(path: str, n: int, rows_per_file: int = 2048,
                         unique: int | None = None,
                         row_group_size: int | None = None) -> str:
    """Write the deterministic images table as a partitioned parquet dir
    (multiple files → Ray read parallelism); idempotent cache.

    ``unique``: generate only that many distinct rows and cycle their
    payloads (image_id stays per-row unique) — for large THROUGHPUT
    fixtures where encoding n distinct images would dominate setup time.
    Correctness fixtures must leave it None (content = pure fn of row id).
    """
    import os
    import pyarrow.parquet as pq
    # the marker version bumps whenever cached bytes change meaning, so
    # a stale cache is rebuilt
    marker = os.path.join(path, f".complete-v3-{n}-{unique or 0}")
    if os.path.exists(marker):
        return path
    os.makedirs(path, exist_ok=True)
    base = images_table(unique) if unique else None
    part = 0
    for start in range(0, n, rows_per_file):
        cnt = min(rows_per_file, n - start)
        if base is None:
            tbl = images_table(cnt, start=start)
        else:
            idx = pa.array(np.arange(start, start + cnt) % unique)
            tbl = base.take(idx).set_column(
                0, "image_id",
                pa.array([f"img{i:08d}" for i in range(start, start + cnt)]))
        pq.write_table(tbl, os.path.join(path, f"part-{part:05d}.parquet"),
                       row_group_size=row_group_size or rows_per_file)
        part += 1
    with open(marker, "w") as f:
        f.write("ok")
    return path
