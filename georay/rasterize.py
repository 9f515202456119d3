"""Vector↔raster operators: rasterize (burn), zonal statistics, point
sampling, scattered-point gridding — SURVEY.md §2.7 (alg/gdalrasterize.cpp,
alg/gdalgrid.cpp, gcore/gdal_interpolateatpoint.cpp analogs).

All kernels are pure numpy; the batch wrapper :func:`zonal_stats` is a
task-based ``map_batches`` stage whose broadcast polygons are cached per
worker process.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from .decode import pixel_arrays
from .geom import PackedPolygons
from .util import worker_get

__all__ = [
    "rasterize_polygons", "zonal_stats_image", "zonal_stats",
    "sample_at_points", "grid_invdist", "grid_nearest", "grid_average",
    "grid_metrics", "grid_linear", "delaunay_triangulate",
]


def rasterize_polygons(polys: PackedPolygons, gt, shape, burn_values=None,
                       all_touched: bool = False,
                       merge_alg: str = "replace") -> np.ndarray:
    """Scanline polygon rasterization (alg/gdalrasterize.cpp:743-817 +
    llrasterize.cpp semantics): a pixel is burned when its CENTER is inside
    the polygon (default), or when touched at all (``all_touched`` — here
    approximated by also testing the 4 pixel corners).

    ``gt``: north-up affine; ``shape``: (h, w).  ``merge_alg``:
    ``replace`` (later polygon wins, GDAL default) or ``add`` (sum —
    MERGE_ALG=ADD).  Returns float64 grid (0 background).
    """
    h, w = shape
    burn = (np.ones(polys.n_polys) if burn_values is None
            else np.asarray(burn_values, dtype=np.float64))
    out = np.zeros((h, w), dtype=np.float64)
    # pixel centers in georef space
    xs = gt[0] + (np.arange(w) + 0.5) * gt[1]
    ys = gt[3] + (np.arange(h) + 0.5) * gt[5]
    gx, gy = np.meshgrid(xs, ys)
    fx, fy = gx.ravel(), gy.ravel()
    for j in range(polys.n_polys):  # polygons burn in order (REPLACE wins)
        minx, miny, maxx, maxy = polys.bbox[j]
        cand = np.nonzero((fx >= minx) & (fx <= maxx)
                          & (fy >= miny) & (fy <= maxy))[0]
        if cand.size == 0 and not all_touched:
            continue
        inside = polys.contains_pairs(
            fx, fy, cand, np.full(cand.shape, j, dtype=np.int64))
        hit = cand[inside]
        if all_touched:
            # corner test: any of the 4 pixel corners inside also burns
            corners = []
            for ddx in (-0.5, 0.5):
                for ddy in (-0.5, 0.5):
                    cx = fx + ddx * gt[1]
                    cy = fy + ddy * gt[5]
                    cc = np.nonzero((cx >= minx) & (cx <= maxx)
                                    & (cy >= miny) & (cy <= maxy))[0]
                    m = polys.contains_pairs(
                        cx, cy, cc, np.full(cc.shape, j, dtype=np.int64))
                    corners.append(cc[m])
            hit = np.unique(np.concatenate([hit] + corners))
        if hit.size == 0:
            continue
        yy, xx = np.unravel_index(hit, (h, w))
        if merge_alg == "add":
            np.add.at(out, (yy, xx), burn[j])
        else:
            out[yy, xx] = burn[j]
    return out


def zonal_stats_image(arr: np.ndarray, gt, polys: PackedPolygons):
    """Per-polygon pixel statistics of one raster (the rasterize-then-
    aggregate zonal idiom, SURVEY.md §2.4 'Raster-vector join').

    Returns list of dicts (one per polygon intersecting the raster):
    ``poly_idx, count, sum, mean, min, max``.
    """
    h, w = arr.shape[:2]
    band = arr[:, :, 0] if arr.ndim == 3 else arr
    xs = gt[0] + (np.arange(w) + 0.5) * gt[1]
    ys = gt[3] + (np.arange(h) + 0.5) * gt[5]
    gx, gy = np.meshgrid(xs, ys)
    fx, fy = gx.ravel(), gy.ravel()
    vals = band.ravel().astype(np.float64)
    out = []
    for j in range(polys.n_polys):
        minx, miny, maxx, maxy = polys.bbox[j]
        cand = np.nonzero((fx >= minx) & (fx <= maxx)
                          & (fy >= miny) & (fy <= maxy))[0]
        if cand.size == 0:
            continue
        inside = polys.contains_pairs(
            fx, fy, cand, np.full(cand.shape, j, dtype=np.int64))
        hit = cand[inside]
        if hit.size == 0:
            continue
        v = vals[hit]
        out.append({"poly_idx": j, "count": int(v.size),
                    "sum": float(v.sum()), "mean": float(v.mean()),
                    "min": float(v.min()), "max": float(v.max())})
    return out


def zonal_stats(batch: pa.Table, *, index_ref,
                payload=("polygon_id",)) -> pa.Table:
    """map_batches stage: decoded image rows × broadcast polygon set → one
    row per (image, polygon) with pixel stats.  ``index_ref`` is a
    ``ray.put`` ref (or the value) of ``(PackedPolygons, payload table)``;
    polygons are in the SAME georeferenced space as the image
    geotransform."""
    polys, payload_tbl = worker_get(index_ref)
    rows = {"image_id": [], "poly_idx": [], "count": [], "sum": [],
            "mean": [], "min": [], "max": []}
    for i, arr in enumerate(pixel_arrays(batch)):
        gt = (float(batch["ulx"][i].as_py()),
              float(batch["psize"][i].as_py()), 0.0,
              float(batch["uly"][i].as_py()), 0.0,
              -float(batch["psize"][i].as_py()))
        for st in zonal_stats_image(arr, gt, polys):
            rows["image_id"].append(batch["image_id"][i].as_py())
            for k in ("poly_idx", "count", "sum", "mean", "min", "max"):
                rows[k].append(st[k])
    out = pa.table({
        "image_id": pa.array(rows["image_id"], pa.string()),
        "poly_idx": pa.array(rows["poly_idx"], pa.int64()),
        "count": pa.array(rows["count"], pa.int64()),
        "sum": pa.array(rows["sum"], pa.float64()),
        "mean": pa.array(rows["mean"], pa.float64()),
        "min": pa.array(rows["min"], pa.float64()),
        "max": pa.array(rows["max"], pa.float64()),
    })
    for name in payload:
        if name in payload_tbl.schema.names:
            out = out.append_column(name,
                                    payload_tbl[name].take(out["poly_idx"]))
    return out


def sample_at_points(arr: np.ndarray, gt, px, py, method: str = "near"):
    """Sample a raster at georeferenced points (gdallocationinfo /
    GDALInterpolateAtPoint): nearest or bilinear; NaN outside."""
    band = (arr[:, :, 0] if arr.ndim == 3 else arr).astype(np.float64)
    h, w = band.shape
    fx = (np.asarray(px, dtype=np.float64) - gt[0]) / gt[1]
    fy = (np.asarray(py, dtype=np.float64) - gt[3]) / gt[5]
    if method == "near":
        xi = np.floor(fx).astype(np.int64)
        yi = np.floor(fy).astype(np.int64)
        valid = (xi >= 0) & (xi < w) & (yi >= 0) & (yi < h)
        out = np.full(fx.shape, np.nan)
        out[valid] = band[yi[valid], xi[valid]]
        return out
    if method == "bilinear":
        cx = fx - 0.5
        cy = fy - 0.5
        x0 = np.floor(cx).astype(np.int64)
        y0 = np.floor(cy).astype(np.int64)
        tx = cx - x0
        ty = cy - y0
        valid = (cx >= 0) & (cx <= w - 1) & (cy >= 0) & (cy <= h - 1)
        x0c = np.clip(x0, 0, w - 1); x1 = np.clip(x0 + 1, 0, w - 1)
        y0c = np.clip(y0, 0, h - 1); y1 = np.clip(y0 + 1, 0, h - 1)
        v = (band[y0c, x0c] * (1 - tx) * (1 - ty)
             + band[y0c, x1] * tx * (1 - ty)
             + band[y1, x0c] * (1 - tx) * ty
             + band[y1, x1] * tx * ty)
        return np.where(valid, v, np.nan)
    if method == "cubic":
        # 4×4 cubic-convolution (Keys a=-0.5 — the GRA_Cubic kernel,
        # gcore/gdal_interpolateatpoint.cpp CubicKernel), edge-clamped
        def k(t):
            at = np.abs(t)
            return np.where(
                at <= 1.0, (1.5 * at - 2.5) * at * at + 1.0,
                np.where(at < 2.0,
                         ((-0.5 * at + 2.5) * at - 4.0) * at + 2.0, 0.0))
        cx = fx - 0.5
        cy = fy - 0.5
        x0 = np.floor(cx).astype(np.int64)
        y0 = np.floor(cy).astype(np.int64)
        tx = cx - x0
        ty = cy - y0
        valid = (cx >= 0) & (cx <= w - 1) & (cy >= 0) & (cy <= h - 1)
        v = np.zeros_like(cx)
        for dy in range(-1, 3):
            wy = k(ty - dy)
            yc = np.clip(y0 + dy, 0, h - 1)
            row = np.zeros_like(cx)
            for dx in range(-1, 3):
                wx = k(tx - dx)
                xc = np.clip(x0 + dx, 0, w - 1)
                row += band[yc, xc] * wx
            v += row * wy
        return np.where(valid, v, np.nan)
    raise ValueError(method)


# ---------------------------------------------------------------------------
# GDALGridCreate (alg/gdalgrid.cpp): scattered points → regular grid.
# The point set is the broadcast side (quadtree in GDAL → cell buckets /
# full arrays here, ray.put once); output tiles fan out in map_batches.
# ---------------------------------------------------------------------------

def _grid_coords(gt, shape):
    h, w = shape
    xs = gt[0] + (np.arange(w) + 0.5) * gt[1]
    ys = gt[3] + (np.arange(h) + 0.5) * gt[5]
    return np.meshgrid(xs, ys)


class PointBucketIndex:
    """Planar cell-bucket index over the scattered points — the gridding
    quadtree of the reference (alg/gdalgrid.cpp builds a point search tree
    per GDALGridContext; SURVEY §2.3 "grid interpolation quadtree").

    Cell size == search radius, CSR layout: a radius query touches at most
    the 3×3 cell neighborhood, turning the dense (pixels × points) block
    into (pixels × local density) — the 100 TB scale path for
    radius-limited gridding."""

    def __init__(self, px: np.ndarray, py: np.ndarray, cell: float):
        self.px = np.asarray(px, np.float64)
        self.py = np.asarray(py, np.float64)
        self.cell = float(cell)
        self.x0 = self.px.min() if len(self.px) else 0.0
        self.y0 = self.py.min() if len(self.py) else 0.0
        ci = ((self.px - self.x0) / self.cell).astype(np.int64)
        ri = ((self.py - self.y0) / self.cell).astype(np.int64)
        self.nx = int(ci.max()) + 1 if len(ci) else 1
        self.ny = int(ri.max()) + 1 if len(ri) else 1
        flat = ri * self.nx + ci
        self.order = np.argsort(flat, kind="stable")
        cnt = np.bincount(flat, minlength=self.nx * self.ny)
        self.offsets = np.concatenate([[0], np.cumsum(cnt)])

    def radius_pairs(self, fx: np.ndarray, fy: np.ndarray, radius: float):
        """All (query_idx, point_idx, d2) pairs with d2 ≤ radius², sorted
        by (query, point) — ready for ``reduceat`` aggregation."""
        fx = np.asarray(fx, np.float64)
        fy = np.asarray(fy, np.float64)
        qc = np.floor((fx - self.x0) / self.cell).astype(np.int64)
        qr = np.floor((fy - self.y0) / self.cell).astype(np.int64)
        qi_all, pj_all = [], []
        for dy in (-1, 0, 1):
            for dx in (-1, 0, 1):
                cc = qc + dx
                rr = qr + dy
                ok = (cc >= 0) & (cc < self.nx) & (rr >= 0) & (rr < self.ny)
                if not ok.any():
                    continue
                cells = rr[ok] * self.nx + cc[ok]
                lo = self.offsets[cells]
                n = self.offsets[cells + 1] - lo
                tot = int(n.sum())
                if tot == 0:
                    continue
                qs = np.flatnonzero(ok)
                qi = np.repeat(qs, n)
                inner = (np.arange(tot, dtype=np.int64)
                         - np.repeat(np.concatenate([[0],
                                                     np.cumsum(n)[:-1]]), n))
                pj = self.order[np.repeat(lo, n) + inner]
                qi_all.append(qi)
                pj_all.append(pj)
        if not qi_all:
            z = np.empty(0, np.int64)
            return z, z, np.empty(0, np.float64)
        qi = np.concatenate(qi_all)
        pj = np.concatenate(pj_all)
        d2 = ((fx[qi] - self.px[pj]) ** 2 + (fy[qi] - self.py[pj]) ** 2)
        keep = d2 <= radius * radius
        qi, pj, d2 = qi[keep], pj[keep], d2[keep]
        o = np.lexsort((pj, qi))
        return qi[o], pj[o], d2[o]


def _use_index(use_index, radius, n_points, n_pixels) -> bool:
    if radius <= 0 or n_points == 0:
        return False
    if use_index is not None:
        return bool(use_index)
    return n_points * n_pixels > 4_000_000


def grid_invdist(px, py, pv, gt, shape, power: float = 2.0,
                 smoothing: float = 0.0, radius: float = 0.0,
                 nodata: float = 0.0, use_index=None) -> np.ndarray:
    """Inverse-distance-weighted gridding (GGA_InverseDistanceToAPower,
    alg/gdalgrid.cpp).  ``radius=0`` = all points; else circular search.
    Vectorized as (pixels × points) blocks; with a search radius the
    bucketed :class:`PointBucketIndex` path (auto above ~4e6 pair budget;
    equal up to float summation order, ≤4e-15 observed) gathers only the
    3×3-cell candidates."""
    if _use_index(use_index, radius, len(np.atleast_1d(px)),
                  int(np.prod(shape))):
        return _grid_invdist_indexed(px, py, pv, gt, shape, power,
                                     smoothing, radius, nodata)
    gx, gy = _grid_coords(gt, shape)
    fx, fy = gx.ravel(), gy.ravel()
    px = np.asarray(px, dtype=np.float64)
    py = np.asarray(py, dtype=np.float64)
    pv = np.asarray(pv, dtype=np.float64)
    out = np.empty(fx.shape, dtype=np.float64)
    block = max(1, 2_000_000 // max(len(px), 1))
    for s in range(0, len(fx), block):
        dx = fx[s:s + block, None] - px[None, :]
        dy = fy[s:s + block, None] - py[None, :]
        d2 = dx * dx + dy * dy + smoothing * smoothing
        if radius > 0:
            d2 = np.where(d2 <= radius * radius, d2, np.inf)
        exact = d2 <= 1e-18
        with np.errstate(divide="ignore", invalid="ignore"):
            wgt = 1.0 / np.power(np.sqrt(d2), power)
        wgt[~np.isfinite(wgt)] = 0.0
        denom = wgt.sum(axis=1)
        val = (wgt * pv[None, :]).sum(axis=1) / np.where(denom > 0, denom, 1)
        val = np.where(denom > 0, val, nodata)
        # exact hits take the point value
        any_exact = exact.any(axis=1)
        if any_exact.any():
            first = np.argmax(exact, axis=1)
            val = np.where(any_exact, pv[first], val)
        out[s:s + block] = val
    return out.reshape(shape)


def grid_nearest(px, py, pv, gt, shape) -> np.ndarray:
    """Nearest-neighbor gridding (GGA_NearestNeighbor)."""
    gx, gy = _grid_coords(gt, shape)
    fx, fy = gx.ravel(), gy.ravel()
    px = np.asarray(px, dtype=np.float64)
    py = np.asarray(py, dtype=np.float64)
    pv = np.asarray(pv, dtype=np.float64)
    out = np.empty(fx.shape, dtype=np.float64)
    block = max(1, 2_000_000 // max(len(px), 1))
    for s in range(0, len(fx), block):
        dx = fx[s:s + block, None] - px[None, :]
        dy = fy[s:s + block, None] - py[None, :]
        out[s:s + block] = pv[np.argmin(dx * dx + dy * dy, axis=1)]
    return out.reshape(shape)


def _grid_invdist_indexed(px, py, pv, gt, shape, power, smoothing,
                          radius, nodata) -> np.ndarray:
    gx, gy = _grid_coords(gt, shape)
    fx, fy = gx.ravel(), gy.ravel()
    px = np.asarray(px, np.float64)
    py = np.asarray(py, np.float64)
    pv = np.asarray(pv, np.float64)
    idx = PointBucketIndex(px, py, radius)
    qi, pj, d2r = idx.radius_pairs(fx, fy, radius)
    n = len(fx)
    d2 = d2r + smoothing * smoothing
    with np.errstate(divide="ignore", invalid="ignore"):
        wgt = 1.0 / np.power(np.sqrt(d2), power)
    wgt[~np.isfinite(wgt)] = 0.0
    den = np.bincount(qi, weights=wgt, minlength=n)
    num = np.bincount(qi, weights=wgt * pv[pj], minlength=n)
    val = np.where(den > 0, num / np.where(den > 0, den, 1), nodata)
    exact = d2 <= 1e-18
    if exact.any():
        # first exact point per pixel in point order (pairs are
        # (qi, pj)-sorted) — matches the dense path's argmax choice
        eq, first = np.unique(qi[exact], return_index=True)
        val[eq] = pv[pj[exact][first]]
    return val.reshape(shape)


def grid_average(px, py, pv, gt, shape, radius: float,
                 nodata: float = 0.0, use_index=None) -> np.ndarray:
    """Moving-average gridding within a circular radius (GGA_MovingAverage).
    Indexed path (see :class:`PointBucketIndex`) above the pair budget."""
    if _use_index(use_index, radius, len(np.atleast_1d(px)),
                  int(np.prod(shape))):
        gx, gy = _grid_coords(gt, shape)
        fx, fy = gx.ravel(), gy.ravel()
        pxa = np.asarray(px, np.float64)
        pya = np.asarray(py, np.float64)
        pva = np.asarray(pv, np.float64)
        qi, pj, _ = PointBucketIndex(pxa, pya, radius).radius_pairs(
            fx, fy, radius)
        n = len(fx)
        cnt = np.bincount(qi, minlength=n)
        tot = np.bincount(qi, weights=pva[pj], minlength=n)
        return np.where(cnt > 0, tot / np.maximum(cnt, 1),
                        nodata).reshape(shape)
    gx, gy = _grid_coords(gt, shape)
    fx, fy = gx.ravel(), gy.ravel()
    px = np.asarray(px, dtype=np.float64)
    py = np.asarray(py, dtype=np.float64)
    pv = np.asarray(pv, dtype=np.float64)
    out = np.empty(fx.shape, dtype=np.float64)
    block = max(1, 2_000_000 // max(len(px), 1))
    for s in range(0, len(fx), block):
        dx = fx[s:s + block, None] - px[None, :]
        dy = fy[s:s + block, None] - py[None, :]
        m = (dx * dx + dy * dy) <= radius * radius
        cnt = m.sum(axis=1)
        tot = (m * pv[None, :]).sum(axis=1)
        out[s:s + block] = np.where(cnt > 0, tot / np.maximum(cnt, 1), nodata)
    return out.reshape(shape)


def grid_metrics(px, py, pv, gt, shape, radius: float, metric: str,
                 nodata: float = 0.0, use_index=None) -> np.ndarray:
    """Data-metrics gridding (GGA_MetricMinimum/Maximum/Range/Count/
    AverageDistance/AverageDistancePts, alg/gdalgrid.h:65-87): per grid
    node, the statistic over the points inside the circular search radius.
    ``metric`` ∈ minimum|maximum|range|count|average_distance (node→point
    distances) | average_distance_pts (pairwise point distances).
    Indexed path for all but the pairwise metric (whose work is inherently
    per-node quadratic either way)."""
    if metric != "average_distance_pts" and _use_index(
            use_index, radius, len(np.atleast_1d(px)),
            int(np.prod(shape))):
        return _grid_metrics_indexed(px, py, pv, gt, shape, radius,
                                     metric, nodata)
    gx, gy = _grid_coords(gt, shape)
    fx, fy = gx.ravel(), gy.ravel()
    px = np.asarray(px, dtype=np.float64)
    py = np.asarray(py, dtype=np.float64)
    pv = np.asarray(pv, dtype=np.float64)
    out = np.empty(fx.shape, dtype=np.float64)
    block = max(1, 2_000_000 // max(len(px), 1))
    for s in range(0, len(fx), block):
        dx = fx[s:s + block, None] - px[None, :]
        dy = fy[s:s + block, None] - py[None, :]
        d2 = dx * dx + dy * dy
        m = d2 <= radius * radius
        cnt = m.sum(axis=1)
        ok = cnt > 0
        if metric == "count":
            out[s:s + block] = cnt.astype(np.float64)
            continue
        if metric == "minimum":
            v = np.where(m, pv[None, :], np.inf).min(axis=1)
        elif metric == "maximum":
            v = np.where(m, pv[None, :], -np.inf).max(axis=1)
        elif metric == "range":
            v = (np.where(m, pv[None, :], -np.inf).max(axis=1)
                 - np.where(m, pv[None, :], np.inf).min(axis=1))
        elif metric == "average_distance":
            v = np.where(m, np.sqrt(d2), 0.0).sum(axis=1) \
                / np.maximum(cnt, 1)
        elif metric == "average_distance_pts":
            # mean pairwise distance among the in-radius points
            v = np.empty(len(cnt))
            for j in range(len(cnt)):
                sel = np.flatnonzero(m[j])
                if len(sel) < 2:
                    v[j] = 0.0 if len(sel) else np.nan
                    continue
                qx, qy = px[sel], py[sel]
                dd = np.hypot(qx[:, None] - qx[None, :],
                              qy[:, None] - qy[None, :])
                iu = np.triu_indices(len(sel), 1)
                v[j] = dd[iu].mean()
        else:
            raise ValueError(f"unknown grid metric {metric!r}")
        out[s:s + block] = np.where(ok, v, nodata)
    return out.reshape(shape)


def _grid_metrics_indexed(px, py, pv, gt, shape, radius, metric,
                          nodata) -> np.ndarray:
    gx, gy = _grid_coords(gt, shape)
    fx, fy = gx.ravel(), gy.ravel()
    pxa = np.asarray(px, np.float64)
    pya = np.asarray(py, np.float64)
    pva = np.asarray(pv, np.float64)
    qi, pj, d2 = PointBucketIndex(pxa, pya, radius).radius_pairs(
        fx, fy, radius)
    n = len(fx)
    cnt = np.bincount(qi, minlength=n)
    if metric == "count":
        return cnt.astype(np.float64).reshape(shape)
    ok = cnt > 0
    out = np.full(n, nodata, np.float64)
    if not ok.any():
        return out.reshape(shape)
    starts = np.concatenate([[0], np.cumsum(cnt[ok])[:-1]])
    vals = pva[pj]
    if metric == "minimum":
        out[ok] = np.minimum.reduceat(vals, starts)
    elif metric == "maximum":
        out[ok] = np.maximum.reduceat(vals, starts)
    elif metric == "range":
        out[ok] = (np.maximum.reduceat(vals, starts)
                   - np.minimum.reduceat(vals, starts))
    elif metric == "average_distance":
        out[ok] = (np.add.reduceat(np.sqrt(d2), starts) / cnt[ok])
    else:
        raise ValueError(f"unknown grid metric {metric!r}")
    return out.reshape(shape)


# ---------------------------------------------------------------------------
# gdal_grid 'linear' (GDALGridLinear, alg/gdalgrid.cpp:2459): Delaunay
# triangulation + barycentric interpolation; outside the convex hull the
# value comes from the nearest point (radius != 0; radius < 0 =
# unlimited search, radius > 0 = capped) or nodata (radius == 0) —
# exactly the reference's fallback ladder.  The triangulation is a
# from-scratch Bowyer-Watson (no scipy in this environment); insertion
# is a Python loop but every circumcircle test / cavity walk inside it
# is vectorized, and the per-task point count is bounded by the grid
# partitioning (each Ray task grids one tile against its local points).
# ---------------------------------------------------------------------------


def delaunay_triangulate(px, py):
    """Bowyer-Watson Delaunay over 2-D points → (m, 3) int32 vertex
    index triangles (CCW).  Duplicate points are collapsed; collinear
    input yields zero triangles."""
    px = np.asarray(px, dtype=np.float64)
    py = np.asarray(py, dtype=np.float64)
    n = len(px)
    if n < 3:
        return np.empty((0, 3), np.int32)
    # collapse exact duplicates (keep first)
    _, keep = np.unique(px + 1j * py, return_index=True)
    keep = np.sort(keep)
    idx_map = keep
    x, y = px[keep], py[keep]
    m = len(x)
    if m < 3:
        return np.empty((0, 3), np.int32)
    # condition: center + scale into ~[-1, 1]
    cx, cy = x.mean(), y.mean()
    scale = max(x.max() - x.min(), y.max() - y.min(), 1e-300)
    xs = (x - cx) / scale
    ys = (y - cy) / scale
    # super-triangle far outside the unit box
    sx = np.array([0.0, -100.0, 100.0])
    sy = np.array([200.0, -100.0, -100.0])
    X = np.concatenate([xs, sx])
    Y = np.concatenate([ys, sy])
    s0, s1, s2 = m, m + 1, m + 2

    # triangle store as parallel numpy arrays (grown geometrically)
    cap = 4 * m + 16
    tv = np.empty((cap, 3), np.int64)      # vertex ids
    ccx = np.empty(cap)                    # circumcenter x
    ccy = np.empty(cap)
    cr2 = np.empty(cap)                    # circumradius^2 (eps-padded)
    alive = np.zeros(cap, bool)
    ntri = 0

    def circum(a, b, c):
        ax, ay = X[a], Y[a]
        bx, by = X[b] - ax, Y[b] - ay
        cx2, cy2 = X[c] - ax, Y[c] - ay
        d = 2.0 * (bx * cy2 - by * cx2)
        if abs(d) < 1e-30:
            return ax, ay, np.inf
        b2 = bx * bx + by * by
        c2 = cx2 * cx2 + cy2 * cy2
        ux = (cy2 * b2 - by * c2) / d
        uy = (bx * c2 - cx2 * b2) / d
        return ax + ux, ay + uy, ux * ux + uy * uy

    def add_tri(a, b, c):
        nonlocal ntri, cap, tv, ccx, ccy, cr2, alive
        if ntri == cap:
            cap *= 2
            tv = np.resize(tv, (cap, 3))
            ccx = np.resize(ccx, cap)
            ccy = np.resize(ccy, cap)
            cr2 = np.resize(cr2, cap)
            alive = np.resize(alive, cap)
        # orient CCW
        if ((X[b] - X[a]) * (Y[c] - Y[a])
                - (Y[b] - Y[a]) * (X[c] - X[a])) < 0:
            b, c = c, b
        tv[ntri] = (a, b, c)
        ux, uy, r2 = circum(a, b, c)
        ccx[ntri], ccy[ntri] = ux, uy
        cr2[ntri] = r2 * (1.0 + 1e-12) + 1e-24
        alive[ntri] = True
        ntri += 1

    add_tri(s0, s1, s2)
    # insert points in a spatially-coherent order (Hilbert-ish by
    # interleaved bits) so cavities stay local
    order = np.argsort(np.round((xs + 1.5) * 1024).astype(np.int64)
                       ^ (np.round((ys + 1.5) * 1024).astype(np.int64)
                          << 20))
    for p in order:
        pxs, pys = X[p], Y[p]
        a = alive[:ntri]
        dx = ccx[:ntri] - pxs
        dy = ccy[:ntri] - pys
        bad = a & (dx * dx + dy * dy <= cr2[:ntri])
        bad_idx = np.nonzero(bad)[0]
        if bad_idx.size == 0:
            continue                        # duplicate / degenerate
        # cavity boundary = edges of bad triangles that appear once
        tris = tv[bad_idx]
        e = np.concatenate([tris[:, [0, 1]], tris[:, [1, 2]],
                            tris[:, [2, 0]]])
        ekey = np.minimum(e[:, 0], e[:, 1]) * (m + 3) \
            + np.maximum(e[:, 0], e[:, 1])
        srt = np.argsort(ekey, kind="stable")
        ek = ekey[srt]
        uniq_mask = np.ones(len(ek), bool)
        dup = ek[1:] == ek[:-1]
        uniq_mask[1:][dup] = False
        uniq_mask[:-1][dup] = False
        boundary = e[srt][uniq_mask]
        alive[bad_idx] = False
        for be in boundary:
            add_tri(p, be[0], be[1])
    fin = tv[:ntri][alive[:ntri]]
    fin = fin[(fin < m).all(axis=1)]
    return idx_map[fin].astype(np.int32)


def grid_linear(px, py, pv, gt, shape, radius: float = -1.0,
                nodata: float = 0.0, tris=None) -> np.ndarray:
    """gdal_grid 'linear': Delaunay barycentric interpolation with the
    reference's outside-hull fallback (nearest within ``radius``;
    ``radius < 0`` unlimited, ``radius == 0`` nodata).  Pass ``tris``
    (from :func:`delaunay_triangulate`) to reuse one triangulation
    across many tiles — the distributed shape: triangulate ONCE,
    broadcast (points, values, triangles), interpolate per tile."""
    px = np.asarray(px, dtype=np.float64)
    py = np.asarray(py, dtype=np.float64)
    pv = np.asarray(pv, dtype=np.float64)
    gx, gy = _grid_coords(gt, shape)
    fx, fy = gx.ravel(), gy.ravel()
    out = np.full(fx.shape, np.nan)
    if tris is None:
        tris = delaunay_triangulate(px, py)
    # per-triangle: candidate pixels from the bbox, barycentric test
    if tris.size:
        x0g, y0g = gt[0], gt[3]
        dxg, dyg = gt[1], gt[5]
        H, W = shape
        for t in tris:
            tx, ty = px[t], py[t]
            # pixel index ranges covering the triangle bbox
            cmin = int(np.floor((tx.min() - x0g) / dxg - 0.5))
            cmax = int(np.ceil((tx.max() - x0g) / dxg - 0.5))
            rr = (np.array([ty.min(), ty.max()]) - y0g) / dyg - 0.5
            rmin, rmax = int(np.floor(rr.min())), int(np.ceil(rr.max()))
            cmin, cmax = max(cmin, 0), min(cmax, W - 1)
            rmin, rmax = max(rmin, 0), min(rmax, H - 1)
            if cmin > cmax or rmin > rmax:
                continue
            sub = (slice(rmin, rmax + 1), slice(cmin, cmax + 1))
            gxx = gx[sub].ravel()
            gyy = gy[sub].ravel()
            d = ((ty[1] - ty[2]) * (tx[0] - tx[2])
                 + (tx[2] - tx[1]) * (ty[0] - ty[2]))
            if d == 0:
                continue
            l1 = ((ty[1] - ty[2]) * (gxx - tx[2])
                  + (tx[2] - tx[1]) * (gyy - ty[2])) / d
            l2 = ((ty[2] - ty[0]) * (gxx - tx[2])
                  + (tx[0] - tx[2]) * (gyy - ty[2])) / d
            l3 = 1.0 - l1 - l2
            eps = -1e-10
            inside = (l1 >= eps) & (l2 >= eps) & (l3 >= eps)
            if not inside.any():
                continue
            val = l1 * pv[t[0]] + l2 * pv[t[1]] + l3 * pv[t[2]]
            flat = (np.arange(rmin, rmax + 1)[:, None] * W
                    + np.arange(cmin, cmax + 1)[None, :]).ravel()
            tgt = flat[inside]
            # only fill not-yet-assigned pixels (edge-shared pixels get
            # the same value either way — interpolant is continuous)
            fill = np.isnan(out[tgt])
            out[tgt[fill]] = val[inside][fill]
    miss = np.isnan(out)
    if miss.any():
        if radius == 0.0 or len(px) == 0:
            out[miss] = nodata
        else:
            mx, my = fx[miss], fy[miss]
            block = max(1, 2_000_000 // max(len(px), 1))
            vals = np.empty(mx.shape)
            for s in range(0, len(mx), block):
                dx = mx[s:s + block, None] - px[None, :]
                dy = my[s:s + block, None] - py[None, :]
                d2 = dx * dx + dy * dy
                j = np.argmin(d2, axis=1)
                v = pv[j]
                if radius > 0:
                    v = np.where(d2[np.arange(len(j)), j]
                                 <= radius * radius, v, nodata)
                vals[s:s + block] = v
            out[miss] = vals
    return out.reshape(shape)
