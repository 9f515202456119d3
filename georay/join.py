"""Spatial join (point-in-polygon) — OGR layer-algebra ``Intersection``
semantics for the point×polygon case (ogr/ogrsf_frmts/generic/
ogrlayer.cpp:2633-2850: envelope pretest 2714-2733 → prepared-geometry
containment 2757-2808; attributes concatenated from both sides), built
Ray-Data-first:

* **Broadcast path** (default; polygon side ≪ point side): the packed
  R-tree + edge arrays are built ONCE on the driver, ``ray.put`` ONCE, and
  every worker process running a join task deserializes them once
  (:func:`georay.util.worker_get`) — never re-shipped per batch.
  Candidate pairs come from a vectorized batched R-tree descent; the PIP
  test is one vectorized parity reduction.
* **Partitioned path** (both sides large): polygons are exploded to the
  hex cells their envelope covers, points keyed by their cell, both sides
  co-shuffled with ``groupby(cell)`` and joined cell-locally in
  ``map_groups``.  A point belongs to exactly one cell, so no cross-cell
  duplicate pairs arise (SURVEY.md §7.4 border-dedup rule).
* **Skew** (BASELINE north rule): :func:`cell_census` pre-aggregates row
  counts per cell inside ``map_batches`` (one partial row per cell per
  block) before a tiny ``groupby().sum``; :func:`salt_map` derives per-cell
  salt fan-outs for cells above threshold; the partitioned join salts hot
  cells into ``cell#s`` sub-keys and replicates the polygon side to every
  sub-key.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .cells import hex_cell, hex_cell_from_meters, hex_circumradius
from .geom import PackedPolygons
from .mercator import latlon_to_meters
from .rtree import PackedRTree
from .util import worker_get

__all__ = [
    "PolygonIndex", "spatial_join_batch", "spatial_join_points",
    "cell_census", "salt_map", "spatial_join_partitioned", "equi_join",
]


def _broadcast_equi_join(left_ds, right_table: pa.Table, *, left_on,
                         right_on, join_type: str):
    """Small-side broadcast equi-join: the right table ships ONCE via
    ``ray.put`` (key-sorted) and every left batch resolves matches with
    two ``searchsorted`` calls + a ranges-trick gather — duplicates on
    the right expand correctly, ``left_outer`` nulls the right columns.
    No shuffle; the left side streams.

    COMPOSITE keys (list ``left_on``/``right_on``) pack into one exact
    int64 via per-column DICTIONARY codes built from the right side
    (code = index_in(col, right uniques); probe misses and NULL
    components become a sentinel that never matches — SQL NULL-key
    semantics) — works for any key type, no struct kernels needed."""
    import pyarrow.compute as pc
    import ray

    multi = isinstance(right_on, (list, tuple))
    rons = list(right_on) if multi else [right_on]
    lons = list(left_on) if multi else [left_on]
    if multi:
        dicts, codes, stride, rmiss = [], None, 1, None
        for c in rons:
            col = right_table[c].combine_chunks() if right_table.num_rows \
                else pa.array([], right_table.schema.field(c).type)
            d = col.unique().drop_null()
            dicts.append(d)
            idx = pc.index_in(col, value_set=d).cast(pa.int64())
            m = pc.is_null(idx).to_numpy(zero_copy_only=False)
            kc = pc.fill_null(idx, 0) \
                .to_numpy(zero_copy_only=False).astype(np.int64)
            card = len(d) + 1
            if stride * card > (1 << 62):
                raise ValueError("composite key space too large for "
                                 "the broadcast plan")
            stride *= card
            rmiss = m if rmiss is None else rmiss | m
            codes = kc if codes is None else codes * card + kc
        # right rows with a NULL key component never match (SQL)
        if right_table.num_rows:
            valid = ~rmiss
            rkeys = codes[valid]
            if not valid.all():
                right_table = right_table.filter(pa.array(valid))
        else:
            rkeys = np.empty(0, np.int64)
    else:
        dicts = None
        rkeys = right_table[rons[0]].to_numpy(zero_copy_only=False)
    order = np.argsort(rkeys, kind="stable")
    # Ray's native join emits left columns + right NON-KEY columns (the
    # right key merges into the left one) — match that schema exactly
    right_sorted = right_table.take(pa.array(order)) \
        .drop_columns(rons).combine_chunks()
    ref = ray.put((rkeys[order], right_sorted, dicts))
    rnames = right_sorted.schema.names

    def joiner(batch: pa.Table) -> pa.Table:
        rk, rt, dcs = ray.get(ref)
        if multi:
            lk, miss = None, None
            for c, d in zip(lons, dcs):
                pcd = pc.index_in(batch[c], value_set=d) \
                    .cast(pa.int64())
                m = pc.is_null(pcd).to_numpy(zero_copy_only=False)
                arr = pc.fill_null(pcd, 0) \
                    .to_numpy(zero_copy_only=False).astype(np.int64)
                card = len(d) + 1
                miss = m if miss is None else miss | m
                lk = arr if lk is None else lk * card + arr
            lk = np.where(miss, np.int64(-1), lk)  # never matches (rk≥0)
        else:
            lk = batch[lons[0]].to_numpy(zero_copy_only=False)
        lo = np.searchsorted(rk, lk, "left")
        hi = np.searchsorted(rk, lk, "right")
        cnt = hi - lo
        if join_type == "inner":
            out_cnt = cnt
        elif join_type == "left_outer":
            out_cnt = np.maximum(cnt, 1)
        else:
            raise ValueError(f"broadcast join: unsupported {join_type}")
        take_l = np.repeat(np.arange(len(lk), dtype=np.int64), out_cnt)
        tot = int(out_cnt.sum())
        inner = (np.arange(tot, dtype=np.int64)
                 - np.repeat(np.cumsum(out_cnt) - out_cnt, out_cnt))
        take_r = np.repeat(lo, out_cnt) + inner
        matched = np.repeat(cnt, out_cnt) > 0
        take_r_safe = np.where(matched, take_r, 0)
        out = batch.take(pa.array(take_l))
        tr = pa.array(take_r_safe)
        for name in rnames:
            col = rt[name].take(tr)
            if not matched.all():
                col = pc.if_else(pa.array(matched), col,
                                 pa.scalar(None, rt.schema.field(name).type))
            out = out.append_column(name, col)
        return out

    return left_ds.map_batches(joiner, batch_format="pyarrow")


def equi_join(left_ds, right_ds, *, left_on: str, right_on: str,
              join_type: str = "inner", num_partitions: int | None = None,
              broadcast: bool | None = None,
              broadcast_bytes_cap: int = 32 << 20):
    """Generic LARGE×LARGE equi-join — the OGR SQL ``JOIN``
    (ogr/ogrsf_frmts/generic/ogr_gensql.cpp:1510-1531, an index-nested-loop
    there) re-expressed as Ray Data's native hash-shuffle join: both sides
    hash-partition by key, each partition joins independently.

    Use THIS path when both sides are big; when one side fits in memory
    use the broadcast patterns instead (positional lookup as in
    ``q_revenue_by_nation``, or the R-tree broadcast for spatial keys) —
    a broadcast join ships the small side once and shuffles nothing.

    ``num_partitions`` sizes to the DATA (≈ one partition per 128 MB of
    input, floor 8, cap 4×CPUs), not the CPU count: each partition is a
    shuffle aggregator with fixed overhead, and measured wall time on a
    small input rose 5× going 8 → 32 partitions while at 100 TB the
    byte-based rule yields the thousands of partitions needed for worker
    heaps to hold both sides of each partition.

    ``broadcast=None`` (auto) switches to the SMALL-SIDE BROADCAST plan
    when the right side reports ≤ ``broadcast_bytes_cap`` stored bytes
    (32 MB default — conservative vs in-memory expansion of compressed
    parquet): the right table ships once via ``ray.put`` and the left
    side streams with zero shuffle — the size-adaptive choice a 100 TB
    plan needs (dimension tables broadcast, fact×fact shuffles).
    ``broadcast=False`` pins the hash-shuffle path."""
    import ray
    if isinstance(left_on, (list, tuple)):
        # composite keys: size-adaptive like the single-key path — a
        # small right side broadcasts via per-column dictionary codes
        # packed into one int64 (the TPC-H Q9 partsupp hop: a 2.5 MB
        # table costed ~4 s as a hash shuffle, streams free broadcast)
        if broadcast is None:
            try:
                rsz = right_ds.size_bytes() or 0
            except Exception:
                rsz = 0
            broadcast = 0 < rsz <= broadcast_bytes_cap \
                and join_type in ("inner", "left_outer")
        if broadcast:
            tbls = [t for t in ray.get(right_ds.to_arrow_refs())
                    if t.num_columns]
            right_tbl = pa.concat_tables(tbls).combine_chunks() if tbls \
                else pa.table({})
            return _broadcast_equi_join(
                left_ds, right_tbl, left_on=list(left_on),
                right_on=list(right_on), join_type=join_type)
        if num_partitions is None:
            cpus = int(ray.cluster_resources().get("CPU", 8))
            try:
                sz = (left_ds.size_bytes() or 0) \
                    + (right_ds.size_bytes() or 0)
            except Exception:
                sz = 0
            num_partitions = int(min(max(8, sz // (128 << 20)),
                                     4 * cpus))
        return left_ds.join(right_ds, join_type, num_partitions,
                            on=tuple(left_on), right_on=tuple(right_on))
    if broadcast is None:
        try:
            rsz = right_ds.size_bytes() or 0
        except Exception:
            rsz = 0
        broadcast = 0 < rsz <= broadcast_bytes_cap \
            and join_type in ("inner", "left_outer")
    if broadcast:
        # drop schema-less empty blocks (Ray's Aggregate op can emit a
        # zero-column empty block alongside the real ones, which would
        # fail the concat)
        tbls = [t for t in ray.get(right_ds.to_arrow_refs())
                if t.num_columns]
        right_tbl = pa.concat_tables(tbls).combine_chunks() if tbls \
            else pa.table({})
        return _broadcast_equi_join(left_ds, right_tbl, left_on=left_on,
                                    right_on=right_on, join_type=join_type)
    if num_partitions is None:
        cpus = int(ray.cluster_resources().get("CPU", 8))
        try:
            sz = (left_ds.size_bytes() or 0) + (right_ds.size_bytes() or 0)
        except Exception:
            sz = 0
        num_partitions = int(min(max(8, sz // (128 << 20)), 4 * cpus))
    return left_ds.join(right_ds, join_type, num_partitions,
                        on=(left_on,), right_on=(right_on,))


@dataclass
class PolygonIndex:
    """Broadcastable polygon-side index: packed edges + packed R-tree +
    payload columns carried to the join output."""

    polys: PackedPolygons
    tree: PackedRTree
    payload: dict  # column name -> numpy array (len = n_polys)

    @classmethod
    def build(cls, polygons: pa.Table, wkb_col: str = "wkb",
              payload_cols=("polygon_id", "category")) -> "PolygonIndex":
        polys = PackedPolygons.from_wkb(polygons[wkb_col].to_pylist())
        tree = PackedRTree.build(polys.bbox)
        payload = {c: polygons[c].to_numpy(zero_copy_only=False)
                   for c in payload_cols if c in polygons.schema.names}
        return cls(polys=polys, tree=tree, payload=payload)

    def match_points(self, lon: np.ndarray, lat: np.ndarray):
        """(point_idx, poly_idx) exact PIP matches for a batch of points."""
        qi, ii = self.tree.query_points(lon, lat)
        if qi.size == 0:
            return qi, ii
        mask = self.polys.contains_pairs(lon, lat, qi, ii)
        return qi[mask], ii[mask]


def spatial_join_batch(batch: pa.Table, *, index_ref, lon_col: str = "lon",
                       lat_col: str = "lat", keep_cols=None) -> pa.Table:
    """Join stage: one output row per (point, polygon) match.

    ``index_ref`` is a ``ray.ObjectRef`` to a :class:`PolygonIndex`
    (``ray.put`` once on the driver; a plain index works too).  Passing the
    ref — not the index — keeps the broadcast out of the task closure so
    it ships through the object store once per node.
    """
    index: PolygonIndex = worker_get(index_ref)
    qi, ii = index.match_points(batch[lon_col].to_numpy(),
                                batch[lat_col].to_numpy())
    keep = keep_cols or [c for c in batch.schema.names
                         if c not in ("bytes", "pixels")]
    taken = batch.select(keep).take(pa.array(qi))
    for name, arr in index.payload.items():
        taken = taken.append_column(name, pa.array(arr[ii]))
    return taken


def spatial_join_points(points_ds, polygons: pa.Table, *,
                        lon_col="lon", lat_col="lat", keep_cols=None,
                        payload_cols=("polygon_id", "category")):
    """Broadcast spatial join: ``points_ds`` (Dataset with lon/lat cols) ×
    ``polygons`` (small pyarrow table with WKB) → matched pairs Dataset."""
    import ray
    index_ref = ray.put(PolygonIndex.build(polygons, payload_cols=payload_cols))
    return points_ds.map_batches(
        spatial_join_batch, batch_format="pyarrow", batch_size=8192,
        fn_kwargs=dict(index_ref=index_ref, lon_col=lon_col,
                       lat_col=lat_col, keep_cols=keep_cols))


# ---------------------------------------------------------------------------
# Skew census + salting (BASELINE north rule)
# ---------------------------------------------------------------------------

def _grid_cell_fn(grid: str):
    """Cell assignment for a named grid family: the planar aperture-4 hex
    grid ("hex") or the icosahedral aperture-7 grid ("icosa",
    georay.icosa — the H3-analog adopted as a partition key per VERDICT
    r2 next-7)."""
    if grid == "hex":
        return lambda lat, lon, res: np.asarray(hex_cell(lat, lon, res))
    if grid == "icosa":
        from .icosa import icosa_cell
        return lambda lat, lon, res: np.asarray(icosa_cell(lat, lon, res))
    raise ValueError(f"unknown grid {grid!r}")


def cell_census(ds, res: int = 7, lat_col="lat", lon_col="lon",
                grid: str = "hex"):
    """Row count per cell, computed as per-block partials (one row per
    cell per block emitted from ``map_batches``) + a small ``groupby.sum``
    — the pre-aggregation pattern that avoids shuffling every row."""
    from ray.data.aggregate import Sum
    cell_fn = _grid_cell_fn(grid)

    def partial(batch: pa.Table) -> pa.Table:
        cells = cell_fn(batch[lat_col].to_numpy(),
                        batch[lon_col].to_numpy(), res)
        uniq, counts = np.unique(cells, return_counts=True)
        return pa.table({"hexcell": uniq, "partial_count": counts})

    return (ds.map_batches(partial, batch_format="pyarrow")
              .groupby("hexcell")
              .aggregate(Sum("partial_count", alias_name="n")))


def salt_map(census_table: pa.Table, threshold: int, max_salt: int = 32) -> dict:
    """cells above ``threshold`` rows → number of salt sub-keys
    (``ceil(n/threshold)`` capped)."""
    cells = census_table["hexcell"].to_numpy()
    counts = census_table["n"].to_numpy()
    hot = counts > threshold
    return {int(c): int(min(max_salt, -(-int(n) // threshold)))
            for c, n in zip(cells[hot], counts[hot])}


def _polygon_cell_cover(polygons: pa.Table, res: int) -> tuple:
    """Explode each polygon to every hex cell its envelope overlaps
    (driver-side; polygon side assumed enumerable).  Envelope cover is a
    superset of the true cover → correct (extra cells just test no points
    or fail PIP)."""
    minx = polygons["minx"].to_numpy()
    miny = polygons["miny"].to_numpy()
    maxx = polygons["maxx"].to_numpy()
    maxy = polygons["maxy"].to_numpy()
    poly_idx, cover = [], []
    R = float(hex_circumradius(res))
    for i in range(len(minx)):
        x0, y0 = latlon_to_meters(miny[i], minx[i])
        x1, y1 = latlon_to_meters(maxy[i], maxx[i])
        # walk cell centers over the bbox with one-cell margin
        xs = np.arange(float(x0) - 2 * R, float(x1) + 2 * R, R)
        ys = np.arange(float(y0) - 2 * R, float(y1) + 2 * R, R)
        gx, gy = np.meshgrid(xs, ys)
        cells = np.unique(hex_cell_from_meters(gx.ravel(), gy.ravel(), res))
        cover.append(cells)
        poly_idx.append(np.full(cells.shape, i, dtype=np.int64))
    return np.concatenate(poly_idx), np.concatenate(cover)


def _icosa_polygon_cell_cover(polygons: pa.Table, res: int) -> tuple:
    """Icosa-grid envelope cover: sweep cell-center candidates over each
    polygon's bbox plus a 3-cell margin at half-cell spacing (lon spacing
    widened by 1/cos lat) — every icosa cell overlapping the polygon has
    its center inside the swept region, so the cover is a superset
    (extra cells just join nothing)."""
    from .icosa import icosa_cell, icosa_res_radius
    minx = polygons["minx"].to_numpy()
    miny = polygons["miny"].to_numpy()
    maxx = polygons["maxx"].to_numpy()
    maxy = polygons["maxy"].to_numpy()
    rad_deg = float(np.degrees(float(icosa_res_radius(res))))
    poly_idx, cover = [], []
    for i in range(len(minx)):
        lat_mid = 0.5 * (miny[i] + maxy[i])
        step_lat = max(rad_deg * 0.4, 1e-4)
        step_lon = step_lat / max(np.cos(np.radians(lat_mid)), 0.2)
        m = 3.0 * rad_deg
        xs = np.arange(minx[i] - m, maxx[i] + m, step_lon)
        ys = np.arange(miny[i] - m, maxy[i] + m, step_lat)
        gx, gy = np.meshgrid(xs, ys)
        cells = np.unique(icosa_cell(np.clip(gy.ravel(), -89.9, 89.9),
                                     gx.ravel(), res))
        cover.append(cells)
        poly_idx.append(np.full(cells.shape, i, dtype=np.int64))
    return np.concatenate(poly_idx), np.concatenate(cover)


def spatial_join_partitioned(points_ds, polygons: pa.Table, *, res: int = 6,
                             lon_col="lon", lat_col="lat",
                             salt_threshold: int | None = None,
                             payload_cols=("polygon_id", "category"),
                             keep_cols=None, grid: str = "hex",
                             n_buckets: int = 64):
    """Cell-partitioned spatial join: shuffle-based path for a large
    polygon side.  Both sides are keyed by hex cell (polygons replicated to
    their envelope cover), co-grouped with ``groupby(cell)`` and joined
    cell-locally.  With ``salt_threshold``, hot cells (from a census of the
    point side) are split into sub-keys and the polygon side replicated to
    each — the census→salt→repartition loop of the north rule.
    """
    import ray

    if grid == "icosa":
        pidx, pcells = _icosa_polygon_cell_cover(polygons, res)
    else:
        pidx, pcells = _polygon_cell_cover(polygons, res)
    cell_fn = _grid_cell_fn(grid)
    wkbs = polygons["wkb"].to_numpy(zero_copy_only=False)
    payload_cols = [c for c in payload_cols if c in polygons.schema.names]

    salts: dict = {}
    if salt_threshold:
        census = cell_census(points_ds, res, lat_col, lon_col,
                             grid=grid).take_all()
        census_t = pa.table({
            "hexcell": [r["hexcell"] for r in census],
            "n": [r["n"] for r in census]})
        salts = salt_map(census_t, salt_threshold)
    # unified row layout so the two sides union cleanly:
    #   point cols (nulls on the polygon side) + wkb/payload (nulls on the
    #   point side) + hexcell + salt + side
    pt_schema = points_ds.schema()
    point_cols = [(n, t) for n, t in zip(pt_schema.names, pt_schema.types)
                  if n not in ("bytes", "pixels")
                  and (keep_cols is None or n in keep_cols
                       or n in (lon_col, lat_col))]
    poly_payload_types = {c: polygons.schema.field(c).type for c in payload_cols}

    # polygon side rows — replicated to every salt sub-key of hot cells
    n_salt_per = np.array([salts.get(int(c), 1) for c in pcells], dtype=np.int64)
    rep_idx = np.repeat(pidx, n_salt_per)
    rep_cells = np.repeat(pcells, n_salt_per)
    rep_salt = (np.arange(len(rep_idx), dtype=np.int64)
                - np.repeat(np.cumsum(n_salt_per) - n_salt_per, n_salt_per))
    poly_cols = {}
    n_rep = len(rep_idx)
    for n, t in point_cols:
        poly_cols[n] = pa.nulls(n_rep, t)
    poly_cols["wkb"] = pa.array(wkbs[rep_idx], pa.binary())
    for c in payload_cols:
        poly_cols[c] = polygons[c].take(pa.array(rep_idx))
    poly_cols["hexcell"] = pa.array(rep_cells, pa.int64())
    poly_cols["salt"] = pa.array(rep_salt, pa.int64())
    poly_cols["side"] = pa.array(np.ones(n_rep, dtype=np.int8))
    poly_ds = ray.data.from_arrow(pa.table(poly_cols))

    def key_points(batch: pa.Table) -> pa.Table:
        salts_l = salts
        cells = cell_fn(batch[lat_col].to_numpy(),
                        batch[lon_col].to_numpy(), res)
        n = len(cells)
        cols = {nm: batch[nm] for nm, _ in point_cols}
        cols["wkb"] = pa.nulls(n, pa.binary())
        for c in payload_cols:
            cols[c] = pa.nulls(n, poly_payload_types[c])
        cols["hexcell"] = pa.array(cells, pa.int64())
        n_s = np.array([salts_l.get(int(c), 1) for c in cells], dtype=np.int64)
        cols["salt"] = pa.array(
            np.where(n_s > 1, np.arange(n, dtype=np.int64) % n_s, 0))
        cols["side"] = pa.array(np.zeros(n, dtype=np.int8))
        return pa.table(cols)

    def add_bucket(batch: pa.Table) -> pa.Table:
        # splitmix-style mix of (hexcell, salt) → one of n_buckets shuffle
        # keys.  groupby(hexcell, salt) directly would pay ~0.1-1 ms of
        # Python-call overhead PER CELL (NOTES.md rule; tens of thousands
        # of cells at icosa res 5) — buckets amortize it to n_buckets
        # calls, and cells stay resolvable vectorized inside each bucket.
        k = (batch["hexcell"].to_numpy().astype(np.uint64)
             * np.uint64(0x9E3779B97F4A7C15)
             + batch["salt"].to_numpy().astype(np.uint64)
             * np.uint64(0xBF58476D1CE4E5B9))
        k ^= k >> np.uint64(31)
        return batch.append_column(
            "bucket", pa.array((k % np.uint64(n_buckets)).astype(np.int64)))

    pts = points_ds.map_batches(key_points, batch_format="pyarrow")
    both = pts.union(poly_ds).map_batches(add_bucket, batch_format="pyarrow")
    out_names = [nm for nm, _ in point_cols] + payload_cols

    def join_bucket(group: pa.Table) -> pa.Table:
        """All (cell, salt) groups of one bucket in ONE call: merge-join
        the two sides over sorted composite keys, nested-join each run."""
        is_poly = pc.equal(group["side"], pa.scalar(1, pa.int8()))
        pol_t = group.filter(is_poly)
        pts_t = group.filter(pc.invert(is_poly))
        empty = pa.table(
            {nm: pa.nulls(0, t) for nm, t in point_cols}
            | {c: pa.nulls(0, poly_payload_types[c]) for c in payload_cols}
        ).select(out_names)
        if not (pts_t.num_rows and pol_t.num_rows):
            return empty
        pcell = pol_t["hexcell"].to_numpy()
        psalt = pol_t["salt"].to_numpy()
        tcell = pts_t["hexcell"].to_numpy()
        tsalt = pts_t["salt"].to_numpy()
        po = np.lexsort((psalt, pcell))
        to = np.lexsort((tsalt, tcell))
        lon_all = pts_t[lon_col].to_numpy()
        lat_all = pts_t[lat_col].to_numpy()
        wkb_np = pol_t["wkb"].to_numpy(zero_copy_only=False)
        # run boundaries per side over the sorted (cell, salt) keys
        def runs(cells, salt, order):
            c, s = cells[order], salt[order]
            b = np.flatnonzero((c[1:] != c[:-1]) | (s[1:] != s[:-1])) + 1
            starts = np.concatenate(([0], b))
            ends = np.concatenate((b, [len(order)]))
            return c[starts], s[starts], starts, ends
        pc_k, ps_k, p_s, p_e = runs(pcell, psalt, po)
        tc_k, ts_k, t_s, t_e = runs(tcell, tsalt, to)
        qi_parts, ii_parts = [], []
        pi = ti = 0
        while pi < len(pc_k) and ti < len(tc_k):
            ka = (pc_k[pi], ps_k[pi])
            kb = (tc_k[ti], ts_k[ti])
            if ka < kb:
                pi += 1
                continue
            if kb < ka:
                ti += 1
                continue
            pidx_run = po[p_s[pi]:p_e[pi]]
            tidx_run = to[t_s[ti]:t_e[ti]]
            pp = PackedPolygons.from_wkb([wkb_np[j] for j in pidx_run])
            lon = lon_all[tidx_run]
            lat = lat_all[tidx_run]
            qi, ii = PackedRTree.build(pp.bbox).query_points(lon, lat)
            if qi.size:
                m = pp.contains_pairs(lon, lat, qi, ii)
                qi, ii = qi[m], ii[m]
            if qi.size:
                qi_parts.append(tidx_run[qi])
                ii_parts.append(pidx_run[ii])
            pi += 1
            ti += 1
        if not qi_parts:
            return empty
        qi = pa.array(np.concatenate(qi_parts))
        ii = pa.array(np.concatenate(ii_parts))
        out = {nm: pts_t[nm].take(qi) for nm, _ in point_cols}
        for c in payload_cols:
            out[c] = pol_t[c].take(ii)
        return pa.table(out).select(out_names)

    return both.groupby("bucket").map_groups(
        join_bucket, batch_format="pyarrow")
