"""OSM PBF driver: wire-level roundtrips, vectorized varint decode,
block-parallel Ray source (reference scope: ogr/ogrsf_frmts/osm)."""

import numpy as np
import pyarrow as pa
import pytest

from georay.osmpbf import (decode_block, read_osm_pbf, read_osm_pbf_table,
                           scan_osm_pbf, write_osm_pbf)


def _mk_nodes(n, seed=7, tagged=True):
    rng = np.random.default_rng(seed)
    ids = np.sort(rng.choice(10**12, n, replace=False)).astype(np.int64)
    t = {"id": pa.array(ids),
         "lat": pa.array(rng.uniform(-85, 85, n)),
         "lon": pa.array(rng.uniform(-180, 180, n))}
    if tagged:
        segs = rng.choice(["alpha", "beta", "gamma"], n)
        t["tag_keys"] = pa.array([["seg"]] * n, pa.list_(pa.string()))
        t["tag_vals"] = pa.array([[s] for s in segs],
                                 pa.list_(pa.string()))
    return pa.table(t)


def test_node_roundtrip_multiblock(tmp_path):
    nodes = _mk_nodes(9000)
    path = str(tmp_path / "n.osm.pbf")
    assert write_osm_pbf(path, nodes=nodes, block_rows=2000) == 9000
    assert len(scan_osm_pbf(path)) == 5        # ceil(9000/2000) blocks
    back = read_osm_pbf_table(path, "nodes")
    assert back["id"].to_pylist() == nodes["id"].to_pylist()
    # spec 100-nanodegree grid: |error| <= half a grid step
    for c in ("lat", "lon"):
        err = np.abs(back[c].to_numpy() - nodes[c].to_numpy()).max()
        assert err <= 5.01e-8
    assert back["tag_vals"].to_pylist() == nodes["tag_vals"].to_pylist()


def test_mixed_tagged_untagged_nodes(tmp_path):
    nodes = pa.table({
        "id": pa.array([5, 9, 12], pa.int64()),
        "lat": pa.array([1.0, -2.5, 3.25]),
        "lon": pa.array([4.0, 5.5, -6.75]),
        "tag_keys": pa.array([["a"], [], ["b", "c"]],
                             pa.list_(pa.string())),
        "tag_vals": pa.array([["x"], [], ["y", "z"]],
                             pa.list_(pa.string())),
    })
    path = str(tmp_path / "m.osm.pbf")
    write_osm_pbf(path, nodes=nodes)
    back = read_osm_pbf_table(path)
    assert back["tag_keys"].to_pylist() == [["a"], [], ["b", "c"]]
    assert back["tag_vals"].to_pylist() == [["x"], [], ["y", "z"]]


def test_way_roundtrip(tmp_path):
    ways = pa.table({
        "id": pa.array([10, 11], pa.int64()),
        "refs": pa.array([[100, 250, 90], [7]], pa.list_(pa.int64())),
        "tag_keys": pa.array([["highway"], []], pa.list_(pa.string())),
        "tag_vals": pa.array([["primary"], []], pa.list_(pa.string())),
    })
    path = str(tmp_path / "w.osm.pbf")
    write_osm_pbf(path, ways=ways)
    back = read_osm_pbf_table(path, "ways")
    assert back["refs"].to_pylist() == [[100, 250, 90], [7]]
    assert back["tag_vals"].to_pylist() == [["primary"], []]


def test_ray_block_parallel_source(ray_session, tmp_path):
    nodes = _mk_nodes(6000, seed=3)
    path = str(tmp_path / "r.osm.pbf")
    write_osm_pbf(path, nodes=nodes, block_rows=1500)
    ds = read_osm_pbf(path, "nodes")
    got = ds.to_pandas().sort_values("id").reset_index(drop=True)
    assert got["id"].tolist() == nodes["id"].to_pylist()


def test_corrupt_blob_raises_value_error(tmp_path):
    """zlib data that does not inflate raises ``ValueError``, as a cut
    file does (tests/test_wire.py sweep)."""
    path = tmp_path / "z.osm.pbf"
    write_osm_pbf(str(path), nodes=_mk_nodes(50))
    ext = scan_osm_pbf(str(path))[0]
    data = bytearray(path.read_bytes())
    mid = ext["offset"] + ext["size"] // 2
    data[mid:mid + 8] = b"\xff" * 8
    path.write_bytes(bytes(data))
    with pytest.raises(ValueError, match="osmpbf blob"):
        read_osm_pbf_table(str(path))


def test_untagged_block_has_no_keys_vals_field(tmp_path):
    """A block where no node carries tags must omit field 10 entirely
    (the spec makes keys_vals optional), and decode to empty lists."""
    nodes = _mk_nodes(50, tagged=False)
    path = str(tmp_path / "u.osm.pbf")
    write_osm_pbf(path, nodes=nodes)
    back = read_osm_pbf_table(path)
    assert back["tag_keys"].to_pylist() == [[]] * 50


def test_partitioned_sink(ray_session, tmp_path):
    import ray

    from georay.osmpbf import write_osm_pbf_partitioned

    nodes = _mk_nodes(300, seed=11, tagged=False)
    part = pa.array((np.arange(300) % 3).astype(np.int64))
    ds = ray.data.from_arrow(nodes.append_column("part", part))
    out = str(tmp_path / "osm")
    manifest = write_osm_pbf_partitioned(ds, out, "part").to_pandas()
    assert sorted(manifest["part"]) == ["0", "1", "2"]
    assert manifest["rows"].sum() == 300
    total = sum(read_osm_pbf_table(p).num_rows
                for p in manifest["path"])
    assert total == 300
