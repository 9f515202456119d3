"""Worker-kill recovery of the broadcast stages and of every file sink.

Every stateful ``map_batches`` stage runs as a plain Ray Data task (retried
when its worker dies) that fetches its broadcast index once per worker
process.  Here the worker running one task of ``spatial_join_points`` or
``knn_points`` is killed while the stage is partway through: 4 input
blocks, one batch each, and the kill on the second.  The kill comes from a
test-only UDF chained right after the stage, which Ray fuses into the same
task; an ``O_EXCL`` marker file makes it fire once and proves it fired.
The stage's output must still be exact.

The sinks are killed the same way, once, right after a part file has been
committed, and what reads back must be exactly the rows written: a retried
task rewrites its own files and never adds one."""

import collections
import contextlib
import os
import struct

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

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


# ---------------------------------------------------------------------------
# sinks

N_ROWS = 400
YIELD_ROWS = 25          # rows per block the killing source emits


def _features(n: int) -> pa.Table:
    fid = np.arange(n, dtype=np.int64)
    lon = (fid % 360 - 180) + 0.5
    lat = (fid % 120 - 60) + 0.25
    wkb = [struct.pack("<BIdd", 1, 1, x, y) for x, y in zip(lon, lat)]
    return pa.table({"fid": fid, "lon": lon, "lat": lat,
                     "wkb": pa.array(wkb, pa.binary()),
                     "part": pa.array([f"p{i % 4}" for i in fid])})


def _killer(out_dir: str, suffix: str, marker: str):
    """A check that kills its worker process once a file ending in
    ``suffix`` is committed under ``out_dir``, once: the ``O_EXCL``
    create of ``marker`` only succeeds for the first attempt."""

    def kill_once_committed() -> None:
        if not any(f.endswith(suffix) for _, _, fs in os.walk(out_dir)
                   for f in fs):
            return
        try:
            os.close(os.open(marker, os.O_CREAT | os.O_EXCL))
        except FileExistsError:
            return
        os._exit(1)

    return kill_once_committed


@contextlib.contextmanager
def _small_blocks():
    """1 KiB blocks, so one task's source emits several blocks."""
    from ray.data import DataContext
    ctx = DataContext.get_current()
    old = ctx.target_max_block_size
    ctx.target_max_block_size = 1024
    try:
        yield
    finally:
        ctx.target_max_block_size = old


def _per_block(write, suffix):
    """A per-block sink fed by a generator UDF that Ray fuses into the
    write task: between two emitted blocks it kills the worker once, as
    soon as a part file is committed."""
    def run(t, out, marker):
        import ray
        kill = _killer(out, suffix, marker)

        def kill_between_blocks(batch: pa.Table):
            for a in range(0, batch.num_rows, YIELD_ROWS):
                kill()
                yield batch.slice(a, YIELD_ROWS)

        with _small_blocks():
            write(ray.data.from_arrow(t).map_batches(
                kill_between_blocks, batch_format="pyarrow",
                batch_size=None), out)
        assert sum(f.endswith(suffix) for f in os.listdir(out)) > 1
    return run


def _lazy_status(write, suffix):
    """A sink that returns a lazy status Dataset: the kill UDF is chained
    after it and fires once a part file is committed."""
    def run(t, out, marker):
        import ray
        kill = _killer(out, suffix, marker)

        def kill_after_commit(batch: pa.Table) -> pa.Table:
            kill()
            return batch

        q = t.num_rows // 4
        src = ray.data.from_arrow([t.slice(a, q)
                                   for a in range(0, t.num_rows, q)])
        write(src, out).map_batches(kill_after_commit,
                                    batch_format="pyarrow").materialize()
    return run


def _files(out: str, suffix: str) -> list:
    return sorted(os.path.join(d, f) for d, _, fs in os.walk(out)
                  for f in fs if f.endswith(suffix))


def _read_bytes(path: str) -> bytes:
    with open(path, "rb") as f:
        return f.read()


def _arrow():
    from georay.arrowipc import read_arrow_ipc_table, write_arrow_ipc
    return (_per_block(write_arrow_ipc, ".arrow"),
            lambda out: read_arrow_ipc_table(out)["fid"].to_pylist())


def _avro():
    from georay.avrofmt import read_avro_table, write_avro
    return (_per_block(write_avro, ".avro"),
            lambda out: read_avro_table(out)["fid"].to_pylist())


def _geojsonseq():
    from georay.geojson import read_geojsonseq, write_geojsonseq
    return (_per_block(write_geojsonseq, ".geojsonl"),
            lambda out: read_geojsonseq(out).to_pandas()["fid"].tolist())


def _fgb():
    from georay.flatgeobuf import read_fgb, write_fgb_partitioned
    return (_lazy_status(lambda ds, out: write_fgb_partitioned(
                ds, out, "part"), ".fgb"),
            lambda out: [i for p in _files(out, ".fgb") for i in
                         read_fgb(_read_bytes(p))["fid"].to_pylist()])


def _gpkg():
    """GPKG keeps its own ``fid`` primary key: the input's goes as ``key``."""
    from georay.gpkg import read_gpkg, write_gpkg_partitioned
    return (_lazy_status(lambda ds, out: write_gpkg_partitioned(
                ds.rename_columns({"fid": "key"}), out, "part"), ".gpkg"),
            lambda out: [i for p in _files(out, ".gpkg") for i in
                         read_gpkg(_read_bytes(p))["key"].to_pylist()])


def _osmpbf():
    from georay.osmpbf import read_osm_pbf_table, write_osm_pbf_partitioned

    def write(ds, out):
        nodes = ds.select_columns(["fid", "lat", "lon", "part"]) \
            .rename_columns({"fid": "id"})
        return write_osm_pbf_partitioned(nodes, out, "part")
    return (_lazy_status(write, ".osm.pbf"),
            lambda out: [i for p in _files(out, ".osm.pbf")
                         for i in read_osm_pbf_table(p)["id"].to_pylist()])


def _partitioned():
    from georay.checkpoint import write_partitioned
    return (_lazy_status(lambda ds, out: write_partitioned(
                ds, out, ["part"]), ".parquet"),
            lambda out: [i for p in _files(out, ".parquet")
                         for i in pq.read_table(p)["fid"].to_pylist()])


def _png_tiles():
    """Each input row becomes one 256² tile whose pixels all hold its
    ``fid``; a tile reads back as that value, keyed by its path."""
    from georay.codecs import png_decode
    from georay.tiles import write_tiles_png

    def write(ds, out):
        def to_tiles(batch: pa.Table) -> pa.Table:
            fid = batch["fid"].to_numpy()
            return pa.table({
                "z": pa.array(np.full(len(fid), 9)),
                "tile_x": pa.array(fid // 32), "tile_y": pa.array(fid % 32),
                "tile": pa.array([np.full(256 * 256 * 4, i, np.uint8)
                                  .tobytes() for i in fid], pa.binary()),
                "n_frags": pa.array(np.ones(len(fid), np.int64)),
                "checksum_r": pa.array(np.zeros(len(fid), np.int64))})
        return write_tiles_png(ds.map_batches(to_tiles,
                                              batch_format="pyarrow"), out)

    def read(out):
        got = []
        for p in _files(out, ".png"):
            x, y = int(p.split(os.sep)[-2]), int(p.split(os.sep)[-1][:-4])
            px = np.unique(png_decode(_read_bytes(p)))
            assert len(px) == 1
            assert int(px[0]) == x * 32 + y
            got.append(x * 32 + y)
        return got
    return _lazy_status(write, ".png"), read


# kind -> (sink factory, input rows); a PNG tile holds 256 KiB of RGBA,
# so that kind writes 48 tiles
SINKS = {"arrow_ipc": (_arrow, N_ROWS), "avro": (_avro, N_ROWS),
         "geojsonseq": (_geojsonseq, N_ROWS), "fgb": (_fgb, N_ROWS),
         "gpkg": (_gpkg, N_ROWS), "osmpbf": (_osmpbf, N_ROWS),
         "png_tiles": (_png_tiles, 48),
         "write_partitioned": (_partitioned, N_ROWS)}


@pytest.mark.parametrize("kind", sorted(SINKS))
def test_sink_survives_worker_kill(ray_session, tmp_path, kind):
    factory, n = SINKS[kind]
    run, read = factory()
    t = _features(n)
    out, marker = str(tmp_path / "out"), str(tmp_path / "killed")
    run(t, out, marker)
    assert os.path.exists(marker)
    assert collections.Counter(read(out)) == \
        collections.Counter(t["fid"].to_pylist())
