"""kNN — H3-style k-ring expansion + haversine refinement (SURVEY.md §2.4;
BASELINE north star).  GDAL's closest analog is nearest-neighbor gridding
over a quadtree (alg/gdalgrid.cpp:3218); the design here is the mandated
cell-index expansion.

Exactness argument (matches the brute-force oracle bit-for-bit):

1. expand rings until ≥ k candidates are found; compute the kth-best
   ground distance ``d_k`` (haversine) among them;
2. any point within ground distance ``d_k`` of the query lies in the
   latitude band ``|φ| ≤ |φ_q| + d_k/R_earth``, and spherical Mercator is
   conformal with scale ``1/cos φ``, so its Mercator distance is at most
   ``D = d_k / cos(band)``;
3. hex cells at grid distance ``d`` have centers ≥ ``1.5·R·d`` away, so
   every neighbor within Mercator distance ``D`` lives in the k-ring of
   radius ``ceil((D + 2R)/(1.5 R))`` — gather that ring and take the final
   top-k.  If the band nears the poles (cos → 0) the search falls back to
   brute force over the broadcast index — still exact.

The neighbor side is a broadcast :class:`NeighborIndex` (``ray.put`` once,
fetched once per worker process); queries stream through ``map_batches``
tasks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pyarrow as pa

from .cells import hex_cell, hex_circumradius, hex_k_ring
from .mercator import ORIGIN_SHIFT, latlon_to_meters
from .geom import haversine_m
from .util import worker_get

__all__ = ["NeighborIndex", "KnnPoints", "knn_batch", "knn_points",
           "knn_points_partitioned"]

_EARTH_MEAN_R = 6371008.8
_MAX_RING = 64
_N_BUCKETS = 64   # vectorized-kernel hash buckets for the partitioned kNN


@dataclass
class NeighborIndex:
    """Cell-bucketed neighbor points: sorted-unique cells + CSR offsets into
    a cell-sorted permutation of the point arrays."""

    res: int
    cells: np.ndarray      # sorted unique int64 cells
    offsets: np.ndarray    # CSR, len = len(cells)+1
    order: np.ndarray      # permutation: bucket slices index into this
    lat: np.ndarray
    lon: np.ndarray
    ids: np.ndarray

    @classmethod
    def build(cls, lat, lon, ids, res: int = 7) -> "NeighborIndex":
        lat = np.asarray(lat, dtype=np.float64)
        lon = np.asarray(lon, dtype=np.float64)
        cell = np.asarray(hex_cell(lat, lon, res))
        order = np.argsort(cell, kind="stable")
        sorted_cells = cell[order]
        uniq, starts = np.unique(sorted_cells, return_index=True)
        offsets = np.concatenate([starts, [len(cell)]]).astype(np.int64)
        return cls(res=res, cells=uniq, offsets=offsets, order=order,
                   lat=lat, lon=lon, ids=np.asarray(ids))

    def candidates_for_cells(self, ring_cells: np.ndarray) -> np.ndarray:
        """Neighbor indices for a flat array of cells (dups possible if the
        caller passes duplicate cells)."""
        pos = np.searchsorted(self.cells, ring_cells)
        pos = np.clip(pos, 0, len(self.cells) - 1)
        hit = self.cells[pos] == ring_cells
        pos = pos[hit]
        counts = self.offsets[pos + 1] - self.offsets[pos]
        total = int(counts.sum())
        if total == 0:
            return np.empty(0, dtype=np.int64)
        starts = np.repeat(self.offsets[pos], counts)
        within = (np.arange(total, dtype=np.int64)
                  - np.repeat(np.cumsum(counts) - counts, counts))
        return self.order[starts + within]


def _topk_per_query(qidx, dist, nbr_ids, nbr_pos, k):
    """Per-query top-k by (dist, neighbor_id) — deterministic tie-break.
    Returns (qidx_out, rank, nbr_pos_out, dist_out) flattened rows."""
    if qidx.size == 0:
        z = np.empty(0, dtype=np.int64)
        return z, z, z, np.empty(0, dtype=np.float64)
    order = np.lexsort((nbr_ids, dist, qidx))
    qs, ds, ps = qidx[order], dist[order], nbr_pos[order]
    # rank within query
    first = np.concatenate([[True], qs[1:] != qs[:-1]])
    grp_start = np.nonzero(first)[0]
    rank = np.arange(qs.size) - np.repeat(grp_start, np.diff(
        np.concatenate([grp_start, [qs.size]])))
    keep = rank < k
    return qs[keep], rank[keep], ps[keep], ds[keep]


class KnnPoints:
    """kNN ring search over one :class:`NeighborIndex`: each query row → k
    output rows ``(query cols…, rank, neighbor_id, dist_m)``.  Built per
    batch by :func:`knn_batch` from the worker-cached index."""

    def __init__(self, ix: NeighborIndex, k: int = 5, lon_col="lon",
                 lat_col="lat", keep_cols=None,
                 neighbor_id_name: str = "neighbor_id"):
        self.ix = ix
        self.k = k
        self.lon_col, self.lat_col = lon_col, lat_col
        self.keep_cols = keep_cols
        self.nbr_name = neighbor_id_name
        self.R = float(hex_circumradius(self.ix.res))

    def _gather(self, q_lat, q_lon, q_cells, active, r):
        """candidate (query_row, neighbor_pos) pairs at ring radius r."""
        if len(self.ix.cells) == 0:
            z = np.empty(0, dtype=np.int64)
            return z, z, np.zeros(active.shape, dtype=np.int64)
        ring = hex_k_ring(q_cells[active], r)  # (n_active, m)
        n_active, m = ring.shape
        flat = ring.ravel()
        pos = np.searchsorted(self.ix.cells, flat)
        pos = np.clip(pos, 0, max(len(self.ix.cells) - 1, 0))
        hit = (self.ix.cells[pos] == flat) if len(self.ix.cells) else \
            np.zeros(flat.shape, bool)
        counts = np.where(hit, self.ix.offsets[pos + 1] - self.ix.offsets[pos], 0)
        per_query = counts.reshape(n_active, m).sum(axis=1)
        total = int(counts.sum())
        if total == 0:
            z = np.empty(0, dtype=np.int64)
            return z, z, per_query
        starts = np.repeat(self.ix.offsets[pos[hit]], counts[hit])
        c = counts[hit]
        within = (np.arange(total, dtype=np.int64)
                  - np.repeat(np.cumsum(c) - c, c))
        nbr_pos = self.ix.order[starts + within]
        owner_flat = np.repeat(np.arange(n_active * m) // m, counts)
        q_rows = active[owner_flat]
        return q_rows, nbr_pos, per_query

    def __call__(self, batch: pa.Table) -> pa.Table:
        lon = batch[self.lon_col].to_numpy()
        lat = batch[self.lat_col].to_numpy()
        n = len(lon)
        q_cells = np.asarray(hex_cell(lat, lon, self.ix.res))
        k = self.k

        # phase 1: ring expansion until every query has >= k candidates
        r = 0
        active = np.arange(n, dtype=np.int64)
        r_found = np.zeros(n, dtype=np.int64)
        while active.size and r <= _MAX_RING:
            _, _, per_query = self._gather(lat, lon, q_cells, active, r)
            done = per_query >= min(k, len(self.ix.lat))
            r_found[active[done]] = r
            active = active[~done]
            r += 1
        r_found[active] = _MAX_RING  # sparse regions: brute force below

        out_q, out_rank, out_pos, out_dist = [], [], [], []
        brute = r_found >= _MAX_RING
        # phase 2+3 per distinct radius tier (few tiers in practice)
        for rr in np.unique(r_found[~brute]):
            rows = np.nonzero(r_found == rr)[0]
            q_rows, nbr_pos, _ = self._gather(lat, lon, q_cells, rows, int(rr))
            d = haversine_m(lat[q_rows], lon[q_rows],
                            self.ix.lat[nbr_pos], self.ix.lon[nbr_pos])
            qs, rk, ps, ds = _topk_per_query(
                q_rows, d, self.ix.ids[nbr_pos], nbr_pos, k)
            # kth distance per query → required safe radius
            kth = np.zeros(n, dtype=np.float64)
            last = np.concatenate([rk[1:] == 0, [True]])
            kth[qs[last]] = ds[last]
            band = np.abs(np.radians(lat[rows])) + kth[rows] / _EARTH_MEAN_R
            cosb = np.cos(np.minimum(band, np.radians(89.9)))
            with np.errstate(divide="ignore"):
                D = kth[rows] / np.maximum(cosb, 1e-9)
            # center-to-center distance <= D + 2R (query and neighbor each
            # up to one circumradius from their cell centers)
            r_star = np.ceil((D + 2 * self.R) / (1.5 * self.R)).astype(np.int64)
            # the Mercator-plane hex grid does not wrap at the antimeridian:
            # if the safe disk crosses lon=±180, the ring search can miss
            # wrapped neighbors — those queries go to brute force (exact)
            # (also catches near-pole queries where cos(band) → 0)
            mx_q, _ = latlon_to_meters(lat[rows], lon[rows])
            wraps = (np.abs(mx_q) + D) > ORIGIN_SHIFT
            r_star = np.where(wraps, _MAX_RING + 1, r_star)
            enough = r_star <= rr
            safe_rows = rows[enough]
            m_safe = np.isin(qs, safe_rows)
            out_q.append(qs[m_safe]); out_rank.append(rk[m_safe])
            out_pos.append(ps[m_safe]); out_dist.append(ds[m_safe])
            # escalate the rest
            for row, rs in zip(rows[~enough], r_star[~enough]):
                if rs > _MAX_RING:
                    brute[row] = True
                    continue
                q2, p2, _ = self._gather(lat, lon, q_cells,
                                         np.array([row]), int(rs))
                d2 = haversine_m(lat[q2], lon[q2],
                                 self.ix.lat[p2], self.ix.lon[p2])
                qs2, rk2, ps2, ds2 = _topk_per_query(
                    q2, d2, self.ix.ids[p2], p2, k)
                out_q.append(qs2); out_rank.append(rk2)
                out_pos.append(ps2); out_dist.append(ds2)

        # brute-force fallback (poles / sparse index) — exact by definition
        for row in np.nonzero(brute)[0]:
            d = haversine_m(lat[row], lon[row], self.ix.lat, self.ix.lon)
            allpos = np.arange(len(self.ix.lat), dtype=np.int64)
            qs3, rk3, ps3, ds3 = _topk_per_query(
                np.full(allpos.shape, row, dtype=np.int64), d,
                self.ix.ids, allpos, k)
            out_q.append(qs3); out_rank.append(rk3)
            out_pos.append(ps3); out_dist.append(ds3)

        qf = np.concatenate(out_q) if out_q else np.empty(0, np.int64)
        rkf = np.concatenate(out_rank) if out_rank else np.empty(0, np.int64)
        pf = np.concatenate(out_pos) if out_pos else np.empty(0, np.int64)
        df = np.concatenate(out_dist) if out_dist else np.empty(0, np.float64)

        keep = self.keep_cols or [c for c in batch.schema.names
                                  if c not in ("bytes", "pixels")]
        out = batch.select(keep).take(pa.array(qf))
        out = out.append_column("rank", pa.array(rkf.astype(np.int64)))
        out = out.append_column(self.nbr_name, pa.array(self.ix.ids[pf]))
        out = out.append_column("dist_m", pa.array(df))
        return out


def knn_batch(batch: pa.Table, *, index_ref, **kwargs) -> pa.Table:
    """kNN stage: :class:`KnnPoints` over the index behind ``index_ref`` (a
    ``ray.put`` ref, fetched once per worker process, or the index itself);
    ``kwargs`` are KnnPoints' options."""
    return KnnPoints(worker_get(index_ref), **kwargs)(batch)


def knn_points(queries_ds, neighbors: pa.Table, k: int = 5, *,
               id_col: str, lat_col_n="lat", lon_col_n="lon",
               lon_col="lon", lat_col="lat", res: int = 7,
               keep_cols=None, neighbor_id_name="neighbor_id"):
    """Broadcast kNN: each row of ``queries_ds`` → its ``k`` nearest rows of
    ``neighbors`` by haversine distance (ties broken by neighbor id)."""
    import ray
    ix = NeighborIndex.build(neighbors[lat_col_n].to_numpy(),
                             neighbors[lon_col_n].to_numpy(),
                             neighbors[id_col].to_numpy(zero_copy_only=False),
                             res=res)
    return queries_ds.map_batches(
        knn_batch, batch_format="pyarrow", batch_size=4096,
        fn_kwargs=dict(index_ref=ray.put(ix), k=k, lon_col=lon_col,
                       lat_col=lat_col, keep_cols=keep_cols,
                       neighbor_id_name=neighbor_id_name))


# ---------------------------------------------------------------------------
# kNN on the ICOSAHEDRAL grid (VERDICT r2 next-7: cross-face k-ring so kNN
# can leave the planar aperture-4 grid near poles / dateline / face edges)
# ---------------------------------------------------------------------------

def build_icosa_index(lat, lon, ids, res: int = 5):
    """Cell-bucketed CSR index keyed by icosa cell (same shape as
    :class:`NeighborIndex`; broadcast with ``ray.put`` for the
    distributed form — the task wiring mirrors :func:`knn_batch`)."""
    from .icosa import icosa_cell
    lat = np.asarray(lat, dtype=np.float64)
    lon = np.asarray(lon, dtype=np.float64)
    cell = np.asarray(icosa_cell(lat, lon, res))
    order = np.argsort(cell, kind="stable")
    sc = cell[order]
    uniq, starts = np.unique(sc, return_index=True)
    offsets = np.concatenate([starts, [len(sc)]])
    return dict(res=res, cells=uniq, offsets=offsets, order=order,
                lat=lat, lon=lon, ids=np.asarray(ids))


def knn_points_icosa(q_lat, q_lon, index: dict, k: int = 5):
    """EXACT kNN via icosa metric-disc expansion (cross-face by
    construction — ``icosa_disc`` samples the sphere, so face edges,
    poles and the dateline need no special cases).

    Termination bound: a disc of ring-radius ``kr`` contains every cell
    whose center lies within sphere angle ``ρ = (kr+0.5)·√3·R`` of the
    query's cell center; a point OUTSIDE the gathered cells therefore
    sits at angle > ``ρ − 2·1.7R`` from the query (1.7R bounds both
    point-to-own-center and query-to-own-center, icosa._CELL_STRETCH).
    When the kth candidate distance is below that bound the answer is
    exact.  Queries sharing a cell reuse one disc (the batch-level
    optimization the distributed stage applies per batch).

    Returns ``(query_idx, rank, neighbor_id, dist_m)`` arrays."""
    from .icosa import _CELL_STRETCH, icosa_cell, icosa_disc, \
        icosa_res_radius
    res = index["res"]
    R = float(icosa_res_radius(res))
    spacing = np.sqrt(3.0) * R
    q_lat = np.asarray(q_lat, dtype=np.float64)
    q_lon = np.asarray(q_lon, dtype=np.float64)
    nq = len(q_lat)
    qcells = np.asarray(icosa_cell(q_lat, q_lon, res))
    out_q, out_rank, out_id, out_d = [], [], [], []
    disc_cache: dict = {}
    for i in range(nq):
        kr = 1
        while True:
            key = (int(qcells[i]), kr)
            if key not in disc_cache:
                disc_cache[key] = icosa_disc(qcells[i], kr)
            cells = disc_cache[key]
            pos = np.searchsorted(index["cells"], cells)
            pos = np.minimum(pos, len(index["cells"]) - 1)
            hit = index["cells"][pos] == cells
            cand = np.concatenate([
                index["order"][index["offsets"][p]:
                               index["offsets"][p + 1]]
                for p in pos[hit]]) if hit.any() else \
                np.empty(0, np.int64)
            if len(cand) >= k or kr >= 64:
                d = haversine_m(q_lat[i], q_lon[i],
                                index["lat"][cand], index["lon"][cand])
                top = np.argsort(d, kind="stable")[:k]
                rho = (kr + 0.5) * spacing
                safe = (rho - 2 * _CELL_STRETCH * R) * _EARTH_MEAN_R
                if (len(top) and d[top[-1]] <= safe
                        and len(cand) >= k) or kr >= 64:
                    for rank, t in enumerate(top):
                        out_q.append(i)
                        out_rank.append(rank)
                        out_id.append(index["ids"][cand[t]])
                        out_d.append(d[t])
                    break
            kr *= 2
    return (np.array(out_q), np.array(out_rank),
            np.array(out_id), np.array(out_d))


# ---------------------------------------------------------------------------
# Cell-PARTITIONED kNN (VERDICT r4 "what's wrong" #1): the co-shuffled
# k-ring join for a neighbor side too large to broadcast.  Both sides are
# keyed by hex cell; each query is REPLICATED to every cell of its k-ring
# disk, co-grouped with that cell's neighbors, partial top-k computed per
# cell, then merged per query with the same conformal safe-radius bound
# the broadcast path uses (module docstring).  Per-query adaptive radius
# travels IN the rows, so the driver holds only O(active queries) state
# per round and the neighbor side streams through one hash shuffle per
# round (later rounds semi-join-filter the neighbor scan to the few
# still-needed cells via one broadcast cell set).
#
# Partitioning assumption: exactness holds while every query's safe disk
# fits within ``max_ring`` rings of its (possibly dateline-wrapped) home
# cell.  Near-polar queries (|band| -> 90 deg) can exceed that; they
# raise rather than silently degrade — use the broadcast path (or a
# coarser ``res``) for polar workloads.
# ---------------------------------------------------------------------------


def _disk_replicas(batch: pa.Table, res: int, qid_col: str) -> pa.Table:
    """One row per (disk cell, query): (cell, side=0, id=qid, lat, lon,
    r, home).  Adds dateline-wrapped image disks when the current ring
    could cross lon = +-180."""
    lat = batch["lat"].to_numpy()
    lon = batch["lon"].to_numpy()
    r = batch["r"].to_numpy()
    qid = batch[qid_col].to_numpy()
    R = float(hex_circumradius(res))
    cells, qids, lats, lons, rs, homes = [], [], [], [], [], []

    def emit(idx, qlon_eff, rr):
        c = np.asarray(hex_cell(lat[idx], qlon_eff, res))
        ring = hex_k_ring(c, rr)                  # (n, m)
        m = ring.shape[1]
        cells.append(ring.ravel())
        qids.append(np.repeat(qid[idx], m))
        lats.append(np.repeat(lat[idx], m))
        lons.append(np.repeat(lon[idx], m))      # TRUE lon for distances
        rs.append(np.repeat(r[idx], m))
        home = np.zeros((len(idx), m), dtype=np.int8)
        # mark ONE designated survival replica per query (column 0 is
        # an arbitrary disk cell, NOT necessarily the center — the flag
        # only guarantees the query survives an empty-disk round)
        home[:, 0] = 1
        homes.append(home.ravel())

    for rr in np.unique(r):
        idx = np.nonzero(r == rr)[0]
        emit(idx, lon[idx], int(rr))
        # wrapped-image disks: ring reach (rr+2 rings of cells, each
        # within 2R of the ring line) past the antimeridian
        mx, _ = latlon_to_meters(lat[idx], lon[idx])
        reach = 1.5 * R * (rr + 2) + 2 * R
        w = np.abs(mx) + reach > ORIGIN_SHIFT
        if w.any():
            wi = idx[w]
            wrapped = np.where(lon[wi] > 0, lon[wi] - 360.0,
                               lon[wi] + 360.0)
            # emit with wrapped center; home=0 everywhere (dup sentinel
            # suppression — the true home replica already exists)
            c = np.asarray(hex_cell(lat[wi], wrapped, res))
            ring = hex_k_ring(c, int(rr))
            m = ring.shape[1]
            cells.append(ring.ravel())
            qids.append(np.repeat(qid[wi], m))
            lats.append(np.repeat(lat[wi], m))
            lons.append(np.repeat(lon[wi], m))
            rs.append(np.repeat(r[wi], m))
            homes.append(np.zeros(len(wi) * m, dtype=np.int8))

    if not cells:
        return pa.table({"cell": pa.array([], pa.int64()),
                         "side": pa.array([], pa.int8()),
                         "id": pa.array([], pa.int64()),
                         "lat": pa.array([], pa.float64()),
                         "lon": pa.array([], pa.float64()),
                         "r": pa.array([], pa.int64()),
                         "home": pa.array([], pa.int8())})
    cell = np.concatenate(cells)
    return pa.table({
        "cell": pa.array(cell),
        "side": pa.array(np.zeros(len(cell), dtype=np.int8)),
        "id": pa.array(np.concatenate(qids).astype(np.int64)),
        "lat": pa.array(np.concatenate(lats)),
        "lon": pa.array(np.concatenate(lons)),
        "r": pa.array(np.concatenate(rs).astype(np.int64)),
        "home": pa.array(np.concatenate(homes))})


def _cell_candidates(group: pa.Table, k: int) -> pa.Table:
    """Per-BUCKET candidate builder (one vectorized kernel per hash
    bucket of cells — never a Python call per cell/query; VERDICT r4
    scale shape).  Joins query replicas to neighbors on cell, computes
    haversine for every pair, keeps top-k per query WITHIN the bucket,
    and emits one COVERAGE row per (query, cell) so the merge can count
    neighbors considered even when top-k drops a cell entirely.

    Output columns: qid, qlat, qlon, r, nid, dist, cell, cell_n
    (nid = -1 rows are coverage/sentinel rows)."""
    side = group["side"].to_numpy()
    qm = side == 0
    nm = ~qm
    cell_all = group["cell"].to_numpy()
    id_all = group["id"].to_numpy()
    lat_all = group["lat"].to_numpy()
    lon_all = group["lon"].to_numpy()
    qcell = cell_all[qm]
    qid = id_all[qm]
    qlat, qlon = lat_all[qm], lon_all[qm]
    qr = group["r"].to_numpy()[qm]
    home = group["home"].to_numpy()[qm]
    ncell = cell_all[nm]
    nid = id_all[nm]
    nlat, nlon = lat_all[nm], lon_all[nm]

    empty = pa.table({
        "qid": pa.array([], pa.int64()),
        "qlat": pa.array([], pa.float64()),
        "qlon": pa.array([], pa.float64()),
        "r": pa.array([], pa.int64()),
        "nid": pa.array([], pa.int64()),
        "dist": pa.array([], pa.float64()),
        "cell": pa.array([], pa.int64()),
        "cell_n": pa.array([], pa.int64())})
    if qid.size == 0:
        return empty

    # dedup (qid, cell) replicas (normal + wrapped disks can overlap at
    # coarse res); keep max(home)
    order = np.lexsort((qid, qcell))
    qcell, qid, qlat, qlon, qr, home = (a[order] for a in
                                        (qcell, qid, qlat, qlon, qr, home))
    dup = np.concatenate([[False], (qcell[1:] == qcell[:-1])
                          & (qid[1:] == qid[:-1])])
    if dup.any():
        grp = np.cumsum(~dup) - 1
        hmax = np.zeros(grp[-1] + 1, home.dtype)
        np.maximum.at(hmax, grp, home)
        keep = ~dup
        qcell, qid, qlat, qlon, qr = (a[keep] for a in
                                      (qcell, qid, qlat, qlon, qr))
        home = hmax

    # sort neighbors by cell; locate each replica's cell bucket
    nord = np.argsort(ncell, kind="stable")
    ncell_s, nid_s = ncell[nord], nid[nord]
    nlat_s, nlon_s = nlat[nord], nlon[nord]
    bounds = np.searchsorted(ncell_s, qcell, side="left")
    ends = np.searchsorted(ncell_s, qcell, side="right")
    cnt = ends - bounds                        # neighbors per replica

    # pair expansion: each replica row × its cell's neighbors
    total = int(cnt.sum())
    out_parts = []
    if total:
        roff = np.repeat(np.cumsum(cnt) - cnt, cnt)
        within = np.arange(total, dtype=np.int64) - roff
        rrow = np.repeat(np.arange(len(qcell), dtype=np.int64), cnt)
        npos = np.repeat(bounds, cnt) + within
        d = haversine_m(qlat[rrow], qlon[rrow], nlat_s[npos], nlon_s[npos])
        # top-k per query within the bucket
        qsel, rk, psel, dsel = _topk_per_query(
            qid[rrow], d, nid_s[npos], npos, k)
        # qlat/qlon/r for selected rows: map back via first replica of
        # each qid (lookup table)
        uq, first = np.unique(qid, return_index=True)
        lut = np.searchsorted(uq, qsel)
        out_parts.append({
            "qid": qsel, "qlat": qlat[first][lut],
            "qlon": qlon[first][lut], "r": qr[first][lut],
            "nid": nid_s[psel], "dist": dsel,
            "cell": np.zeros(len(qsel), np.int64),
            "cell_n": np.zeros(len(qsel), np.int64)})
    # coverage rows: one per replica that hit an occupied cell, plus one
    # per HOME replica (so empty-disk queries survive the round)
    cov = (cnt > 0) | (home == 1)
    if cov.any():
        out_parts.append({
            "qid": qid[cov], "qlat": qlat[cov], "qlon": qlon[cov],
            "r": qr[cov], "nid": np.full(int(cov.sum()), -1, np.int64),
            "dist": np.full(int(cov.sum()), np.inf),
            "cell": qcell[cov], "cell_n": cnt[cov].astype(np.int64)})
    if not out_parts:
        return empty
    cat = {kk2: np.concatenate([p[kk2] for p in out_parts])
           for kk2 in out_parts[0]}
    return pa.table({kk2: pa.array(v) for kk2, v in cat.items()})


def _merge_topk(group: pa.Table, k: int, k_eff: int, res: int) -> pa.Table:
    """Per-BUCKET merge (bucket = hash of qid): vectorized over every
    query in the bucket — global top-k across cells, coverage count,
    and the conformal safe-radius decision (module docstring).  Output:
    (qid, rank, nid, dist, lat, lon, r_next, done); rank = -1 marks a
    no-candidates placeholder."""
    qid = group["qid"].to_numpy()
    nid = group["nid"].to_numpy()
    dist = group["dist"].to_numpy()
    qlat = group["qlat"].to_numpy()
    qlon = group["qlon"].to_numpy()
    qr = group["r"].to_numpy()
    cell = group["cell"].to_numpy()
    cell_n = group["cell_n"].to_numpy()
    R = float(hex_circumradius(res))

    uq, ufirst = np.unique(qid, return_index=True)
    nq = len(uq)
    u_lat, u_lon, u_r = qlat[ufirst], qlon[ufirst], qr[ufirst]

    # coverage per qid: sum cell_n over unique (qid, cell) coverage rows
    covm = nid < 0
    considered = np.zeros(nq, np.int64)
    if covm.any():
        cq, cc, cn = qid[covm], cell[covm], cell_n[covm]
        o = np.lexsort((cc, cq))
        cq, cc, cn = cq[o], cc[o], cn[o]
        first = np.concatenate([[True], (cq[1:] != cq[:-1])
                                | (cc[1:] != cc[:-1])])
        np.add.at(considered, np.searchsorted(uq, cq[first]), cn[first])

    # candidates: dedup (qid, nid) keeping min dist, then rank
    cm = ~covm
    qv, nv, dv = qid[cm], nid[cm], dist[cm]
    if qv.size:
        # dedup on (qid, nid) keeping min dist: sort by (qid, nid,
        # dist), take first per pair, then re-rank by (qid, dist, nid)
        o2 = np.lexsort((dv, nv, qv))
        q2, n2, d2 = qv[o2], nv[o2], dv[o2]
        f2 = np.concatenate([[True], (q2[1:] != q2[:-1])
                             | (n2[1:] != n2[:-1])])
        q2, n2, d2 = q2[f2], n2[f2], d2[f2]
        o3 = np.lexsort((n2, d2, q2))
        qs, ns, ds = q2[o3], n2[o3], d2[o3]
        gfirst = np.concatenate([[True], qs[1:] != qs[:-1]])
        gstart = np.nonzero(gfirst)[0]
        rank = np.arange(qs.size) - np.repeat(gstart, np.diff(
            np.concatenate([gstart, [qs.size]])))
        ncand = np.zeros(nq, np.int64)
        np.add.at(ncand, np.searchsorted(uq, qs), 1)
    else:
        qs = np.empty(0, np.int64); ns = qs.copy()
        ds = np.empty(0, np.float64); rank = np.empty(0, np.int64)
        ncand = np.zeros(nq, np.int64)

    kk = min(k, k_eff)
    # per-qid decision — all vectorized
    kth = np.full(nq, np.inf)
    if qs.size:
        at_k = rank == kk - 1
        kth[np.searchsorted(uq, qs[at_k])] = ds[at_k]
    band = np.abs(np.radians(u_lat)) + kth / _EARTH_MEAN_R
    polar = ~(band < np.radians(89.9))      # catches inf/nan too
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        # exact cos(band) below the cutoff — an under-clamp here would
        # shrink the safe radius and break exactness near the cutoff
        D = kth / np.cos(np.where(polar, 0.0, band))
        r_star = np.ceil((D + 2 * R) / (1.5 * R))
    r_star = np.where(np.isfinite(r_star), r_star, np.int64(1) << 40)
    have_k = ncand >= kk
    all_seen = considered >= k_eff
    done = all_seen | (have_k & ~polar & (u_r >= r_star))
    grow = np.maximum(4 * u_r + 3, u_r + 1)          # short / polar
    bound = np.maximum(r_star, u_r + 1)
    r_next = np.where(done, u_r,
                      np.where(have_k & ~polar,
                               np.minimum(bound, np.int64(1) << 40),
                               grow)).astype(np.int64)

    # emit top-k rows (rank < kk … up to k) for every qid that has
    # candidates; placeholders for the rest
    parts = []
    if qs.size:
        keep = rank < k
        qsk, rkk, nsk, dsk = qs[keep], rank[keep], ns[keep], ds[keep]
        lut = np.searchsorted(uq, qsk)
        parts.append({"qid": qsk, "rank": rkk, "nid": nsk, "dist": dsk,
                      "lat": u_lat[lut], "lon": u_lon[lut],
                      "r_next": r_next[lut], "done": done[lut]})
    nonem = ncand == 0
    if nonem.any():
        m = int(nonem.sum())
        parts.append({"qid": uq[nonem],
                      "rank": np.full(m, -1, np.int64),
                      "nid": np.full(m, -1, np.int64),
                      "dist": np.full(m, np.inf),
                      "lat": u_lat[nonem], "lon": u_lon[nonem],
                      "r_next": r_next[nonem],
                      "done": np.zeros(m, bool)})
    if not parts:
        return pa.table({
            "qid": pa.array([], pa.int64()),
            "rank": pa.array([], pa.int64()),
            "nid": pa.array([], pa.int64()),
            "dist": pa.array([], pa.float64()),
            "lat": pa.array([], pa.float64()),
            "lon": pa.array([], pa.float64()),
            "r_next": pa.array([], pa.int64()),
            "done": pa.array([], pa.bool_())})
    cat = {kk2: np.concatenate([p[kk2] for p in parts])
           for kk2 in parts[0]}
    return pa.table({kk2: pa.array(v) for kk2, v in cat.items()})


def knn_points_partitioned(queries_ds, neighbors_ds, k: int = 5, *,
                           qid_col: str, nid_col: str,
                           lat_col="lat", lon_col="lon",
                           lat_col_n="lat", lon_col_n="lon",
                           res: int | None = None, r0: int = 2,
                           max_ring: int = 64, max_rounds: int = 12):
    """EXACT kNN with BOTH sides as Datasets (neither broadcast): the
    co-shuffled k-ring join.  Returns a Dataset (qid, rank, nid,
    dist_m).

    Scale shape: one hash shuffle of (cell, id, lat, lon) per round for
    each side; round 1 moves the full neighbor table once, later rounds
    semi-join-filter the neighbor scan to the surviving queries' disk
    cells (one small broadcast cell set).  Driver state per round is
    O(active queries).  When a query's safe ring radius overflows
    ``max_ring`` (sparse regions, high latitudes) the round COARSENS
    the grid — r* scales with 1/cell-size, so a few level steps always
    bring it back under the cap; genuinely polar queries (band >=
    89.9 deg) converge via the found-every-neighbor rule instead of the
    conformal bound."""
    import ray
    import pyarrow.compute as pc

    k_eff = neighbors_ds.count()
    if k_eff == 0:
        raise ValueError("empty neighbor side")
    if res is None:
        # density-adaptive: pick the resolution where the initial disk
        # (3 r0 (r0+1) + 1 cells) holds ~3k neighbors under a uniform
        # spread, so the bulk of queries resolves in ONE round (each
        # extra round costs two hash shuffles).  ncells(res) ~=
        # 4 * 2^(2 res) / (1.5 sqrt(3)); clamp to [2, 10].
        disk = 3 * r0 * (r0 + 1) + 1
        target_cells = max(1.0, disk * k_eff / (3.0 * max(k, 1) * 1.54))
        res = int(np.clip(0.5 * np.log2(target_cells), 2, 10))

    def make_nprep(res_b):
        def nprep(b: pa.Table) -> pa.Table:
            lat = b[lat_col_n].to_numpy()
            lon = b[lon_col_n].to_numpy()
            n = len(lat)
            return pa.table({
                "cell": pa.array(np.asarray(hex_cell(lat, lon, res_b))),
                "side": pa.array(np.ones(n, np.int8)),
                "id": pa.array(b[nid_col].to_numpy().astype(np.int64)),
                "lat": pa.array(lat), "lon": pa.array(lon),
                "r": pa.array(np.zeros(n, np.int64)),
                "home": pa.array(np.zeros(n, np.int8))})
        return nprep

    def qprep(b: pa.Table) -> pa.Table:
        return pa.table({
            "qid": pa.array(b[qid_col].to_numpy().astype(np.int64)),
            "lat": pa.array(b[lat_col].to_numpy()),
            "lon": pa.array(b[lon_col].to_numpy()),
            "r": pa.array(np.full(b.num_rows, r0, np.int64))})

    res_cur = res
    active = queries_ds.map_batches(qprep, batch_format="pyarrow")
    results = []
    for rnd in range(max_rounds):
        reps = active.map_batches(
            lambda b, _res=res_cur: _disk_replicas(b, _res, "qid"),
            batch_format="pyarrow")
        if rnd == 0 and res_cur == res:
            nside = neighbors_ds.map_batches(make_nprep(res_cur),
                                             batch_format="pyarrow")
        else:
            # few queries remain: semi-join filter the neighbor scan
            reps = reps.materialize()
            need = np.unique(np.concatenate(
                [b["cell"].to_numpy() for b in reps.iter_batches(
                    batch_size=1 << 20, batch_format="pyarrow")]
                or [np.empty(0, np.int64)]))
            need_ref = ray.put(pa.array(need))

            def nfilter(b: pa.Table) -> pa.Table:
                return b.filter(pc.is_in(b["cell"], ray.get(need_ref)))

            nside = neighbors_ds.map_batches(
                make_nprep(res_cur), batch_format="pyarrow") \
                .map_batches(nfilter, batch_format="pyarrow")
        def add_cbucket(b: pa.Table) -> pa.Table:
            c = b["cell"].to_numpy().astype(np.uint64)
            h = ((c * np.uint64(0x9E3779B97F4A7C15))
                 >> np.uint64(40)).astype(np.int64)
            return b.append_column("bucket", pa.array(h % _N_BUCKETS))

        def add_qbucket(b: pa.Table) -> pa.Table:
            q = b["qid"].to_numpy()
            return b.append_column("qbucket", pa.array(q % _N_BUCKETS))

        cands = (reps.union(nside)
                 .map_batches(add_cbucket, batch_format="pyarrow")
                 .groupby("bucket").map_groups(
                     lambda g: _cell_candidates(g, k),
                     batch_format="pyarrow"))
        merged = (cands.map_batches(add_qbucket, batch_format="pyarrow")
                  .groupby("qbucket").map_groups(
                      lambda g, _res=res_cur: _merge_topk(g, k, k_eff,
                                                          _res),
                      batch_format="pyarrow").materialize())

        done_part = merged.map_batches(
            lambda b: b.filter(b["done"]).select(
                ["qid", "rank", "nid", "dist"]),
            batch_format="pyarrow")
        results.append(done_part)
        pend = merged.map_batches(
            lambda b: b.filter(pc.and_(pc.invert(b["done"]),
                                       pc.less_equal(b["rank"], 0))),
            batch_format="pyarrow").materialize()
        if pend.count() == 0:
            break
        mx = pend.max("r_next")
        if mx > max_ring and res_cur > 0:
            # coarsen so the largest requirement fits in max_ring/2
            step = max(1, int(np.ceil(np.log2(mx / (max_ring / 2)))))
            step = min(step, res_cur)
            res_cur -= step

            def rescale(b: pa.Table, _s=step) -> pa.Table:
                rn = np.ceil(b["r_next"].to_numpy() / (1 << _s)) + 2
                return pa.table({
                    "qid": b["qid"], "lat": b["lat"], "lon": b["lon"],
                    "r": pa.array(rn.astype(np.int64))})

            active = pend.map_batches(rescale, batch_format="pyarrow")
        else:
            active = pend.map_batches(
                lambda b: pa.table({"qid": b["qid"], "lat": b["lat"],
                                    "lon": b["lon"],
                                    "r": b["r_next"]}),
                batch_format="pyarrow")
    else:
        raise RuntimeError("knn_points_partitioned: did not converge "
                           f"in {max_rounds} rounds")

    out = results[0]
    for d2 in results[1:]:
        out = out.union(d2)

    def finalize(b: pa.Table) -> pa.Table:
        return pa.table({"qid": b["qid"], "rank": b["rank"],
                         "nid": b["nid"], "dist_m": b["dist"]})

    return out.map_batches(finalize, batch_format="pyarrow")
