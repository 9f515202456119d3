"""Worker-kill recovery of the broadcast stages.

Every stateful ``map_batches`` stage runs as a plain Ray Data task (retried
when its worker dies) that fetches its broadcast index once per worker
process.  Here the worker running one task of ``spatial_join_points`` or
``knn_points`` is killed while the stage is partway through: 4 input
blocks, one batch each, and the kill on the second.  The kill comes from a
test-only UDF chained right after the stage, which Ray fuses into the same
task; an ``O_EXCL`` marker file makes it fire once and proves it fired.
The stage's output must still be exact."""

import os

import numpy as np
import pyarrow as pa

from georay import fixtures as fx
from georay.geom import haversine_m

N_BLOCKS = 4


def _blocks(table: pa.Table, rows: int):
    """``N_BLOCKS`` input blocks of ``rows`` rows each (a block of one
    stage batch, so each block is one task)."""
    import ray
    return ray.data.from_arrow([table.slice(b * rows, rows)
                                for b in range(N_BLOCKS)])


def _kill_on_second_batch(marker: str, id_col: str, rows: int):
    """A UDF that kills its worker process on the batch made from the
    second input block, once: the ``O_EXCL`` create of ``marker`` only
    succeeds for the first attempt, so the retried task passes through."""

    def kill_second_batch(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        second = [int(i[2:]) // rows == 1 for i in ids]
        if any(second):
            try:
                os.close(os.open(marker, os.O_CREAT | os.O_EXCL))
            except FileExistsError:
                return batch
            os._exit(1)
        return batch

    return kill_second_batch


def _fused(ds, stage: str) -> bool:
    """The stage and the kill UDF ran in one fused operator (one task)."""
    return f"MapBatches({stage})->MapBatches(kill_second_batch)" \
        in ds.stats()


def test_join_survives_worker_kill(ray_session, tmp_path):
    from georay.join import PolygonIndex, spatial_join_points
    rows = 8192                      # the join's batch size
    pts = fx.points_table(N_BLOCKS * rows)
    polys = fx.polygons_table(200)
    marker = str(tmp_path / "killed")
    out = spatial_join_points(_blocks(pts, rows), polys,
                              keep_cols=["point_id"])
    out = out.map_batches(_kill_on_second_batch(marker, "point_id", rows),
                          batch_format="pyarrow").materialize()
    assert os.path.exists(marker)
    assert _fused(out, "spatial_join_batch")
    got = out.to_pandas()
    pairs = set(zip(got["point_id"], got["polygon_id"]))
    assert len(pairs) == len(got)
    qi, ii = PolygonIndex.build(polys).match_points(
        pts["lon"].to_numpy(), pts["lat"].to_numpy())
    pids = pts["point_id"].to_numpy(zero_copy_only=False)
    poly_ids = polys["polygon_id"].to_numpy(zero_copy_only=False)
    assert pairs == set(zip(pids[qi].tolist(), poly_ids[ii].tolist()))


def test_knn_survives_worker_kill(ray_session, tmp_path):
    from georay.knn import knn_points
    rows, k = 4096, 5                # the kNN batch size
    qt = fx.points_table(N_BLOCKS * rows)
    g = fx.georef(np.arange(10**6, 10**6 + 1000), np.full(1000, 256.0),
                  np.full(1000, 256.0))
    neighbors = pa.table({"nid": [f"n{i:05d}" for i in range(1000)],
                          "lat": g["lat"], "lon": g["lon"]})
    marker = str(tmp_path / "killed")
    out = knn_points(_blocks(qt, rows), neighbors, k=k, id_col="nid",
                     keep_cols=["point_id"], neighbor_id_name="nid")
    out = out.map_batches(_kill_on_second_batch(marker, "point_id", rows),
                          batch_format="pyarrow").materialize()
    assert os.path.exists(marker)
    assert _fused(out, "knn_batch")
    got = out.to_pandas()
    assert len(got) == N_BLOCKS * rows * k
    got_rows = set(zip(got["point_id"], got["rank"], got["nid"]))
    assert len(got_rows) == len(got)
    # brute force: every query against every neighbor, ties by id
    nlat, nlon = neighbors["lat"].to_numpy(), neighbors["lon"].to_numpy()
    nid = np.asarray(neighbors["nid"].to_pylist())
    qlat, qlon = qt["lat"].to_numpy(), qt["lon"].to_numpy()
    pids = qt["point_id"].to_pylist()
    expect = set()
    for q in range(qt.num_rows):
        d = haversine_m(qlat[q], qlon[q], nlat, nlon)
        for rank, j in enumerate(np.lexsort((nid, d))[:k]):
            expect.add((pids[q], rank, nid[j]))
    assert got_rows == expect
