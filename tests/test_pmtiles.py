"""PMTiles v3 (georay/pmtiles.py vs the public spec; the reference's
driver is ogr/ogrsf_frmts/pmtiles/ on the same spec)."""
import gzip
import struct

import numpy as np
import pyarrow as pa
import pytest

from georay import pmtiles as pmt
from georay import wire


# ---------------------------------------------------------------------------
# tile IDs
# ---------------------------------------------------------------------------

def test_tileid_spec_pins():
    # spec examples: z0 is id 0; z1 Hilbert order (0,0) (0,1) (1,1) (1,0)
    assert pmt.zxy_to_tileid(0, 0, 0) == 0
    assert pmt.zxy_to_tileid(1, 0, 0) == 1
    assert pmt.zxy_to_tileid(1, 0, 1) == 2
    assert pmt.zxy_to_tileid(1, 1, 1) == 3
    assert pmt.zxy_to_tileid(1, 1, 0) == 4
    assert pmt.zxy_to_tileid(2, 0, 0) == 5
    # first id of each zoom is the cumulative pyramid size (4^z-1)/3
    for z in range(8):
        assert pmt.zxy_to_tileid(z, 0, 0) >= (4 ** z - 1) // 3
        assert pmt.tileid_to_zxy((4 ** z - 1) // 3)[0] == z


def test_tileid_roundtrip_vectorized():
    rng = np.random.RandomState(7)
    z = rng.randint(0, 15, 4000)
    x = (rng.rand(4000) * (1 << z)).astype(np.int64)
    y = (rng.rand(4000) * (1 << z)).astype(np.int64)
    tid = pmt.zxy_to_tileid(z, x, y)
    z2, x2, y2 = pmt.tileid_to_zxy(tid)
    np.testing.assert_array_equal(z2, z)
    np.testing.assert_array_equal(x2, x)
    np.testing.assert_array_equal(y2, y)
    # Hilbert order within one zoom is a bijection onto [acc, acc+4^z)
    ids9 = pmt.zxy_to_tileid(np.full(64, 3), np.repeat(np.arange(8), 8),
                             np.tile(np.arange(8), 8))
    assert sorted(ids9) == list(range((4 ** 3 - 1) // 3,
                                      (4 ** 3 - 1) // 3 + 64))


def test_tileid_bounds_checks():
    with pytest.raises(ValueError):
        pmt.zxy_to_tileid(2, 4, 0)
    with pytest.raises(ValueError):
        pmt.zxy_to_tileid(32, 0, 0)


# ---------------------------------------------------------------------------
# directories
# ---------------------------------------------------------------------------

def test_directory_roundtrip_with_chaining_and_runs():
    tid = np.array([0, 1, 5, 100], np.uint64)
    off = np.array([0, 10, 30, 25], np.uint64)   # entry 4 breaks the chain
    ln = np.array([10, 20, 7, 5], np.uint64)
    rl = np.array([1, 3, 1, 0], np.uint64)
    buf = pmt.serialize_directory(tid, off, ln, rl)
    t2, o2, l2, r2 = pmt.deserialize_directory(buf)
    np.testing.assert_array_equal(t2, tid)
    np.testing.assert_array_equal(o2, off)
    np.testing.assert_array_equal(l2, ln)
    np.testing.assert_array_equal(r2, rl)
    # chained entries serialize their offset field as 0 (spec)
    vals = wire.packed_varints(buf, "pmtiles")
    assert list(vals[-4:]) == [1, 0, 0, 26]      # off+1, chains, off+1


def test_directory_rejects_unsorted():
    with pytest.raises(ValueError):
        pmt.serialize_directory([3, 3], [0, 1], [1, 1], [1, 1])


# ---------------------------------------------------------------------------
# archive roundtrip
# ---------------------------------------------------------------------------

def _tile_table(n=40, z=5, dup_every=0):
    rng = np.random.RandomState(3)
    xy = rng.choice((1 << z) * (1 << z), size=n, replace=False)
    x, y = xy // (1 << z), xy % (1 << z)
    data = [bytes([i % 7]) * (20 + i % 13) for i in range(n)]
    if dup_every:
        data = [data[i - i % dup_every] for i in range(n)]
    return pa.table({"z": pa.array(np.full(n, z)),
                     "tile_x": pa.array(x.astype(np.int64)),
                     "tile_y": pa.array(y.astype(np.int64)),
                     "data": pa.array(data, pa.binary())})


def _sorted_rows(t: pa.Table):
    return sorted(zip(t["z"].to_pylist(), t["tile_x"].to_pylist(),
                      t["tile_y"].to_pylist(), t["data"].to_pylist()))


def test_write_read_roundtrip(tmp_path):
    t = _tile_table()
    p = str(tmp_path / "a.pmtiles")
    n = pmt.write_pmtiles(t, p, metadata={"name": "demo"})
    assert n == t.num_rows
    data = open(p, "rb").read()
    h = pmt.pmtiles_header(data)
    assert h["addressed_tiles_count"] == t.num_rows
    assert h["min_zoom"] == h["max_zoom"] == 5
    assert h["clustered"] and h["leaf_dirs_bytes"] == 0
    assert pmt.pmtiles_metadata(data) == {"name": "demo"}
    assert -180.1 < h["min_lon"] < h["max_lon"] < 180.1
    back = pmt.read_pmtiles(data)
    assert _sorted_rows(back) == _sorted_rows(t)


def test_content_dedup_and_runs(tmp_path):
    # every tile identical ⇒ one stored blob; adjacent ids coalesce
    z = 3
    n = 1 << z
    x, y = np.meshgrid(np.arange(n), np.arange(n))
    t = pa.table({"z": pa.array(np.full(n * n, z)),
                  "tile_x": pa.array(x.ravel().astype(np.int64)),
                  "tile_y": pa.array(y.ravel().astype(np.int64)),
                  "data": pa.array([b"same-bytes"] * (n * n), pa.binary())})
    p = str(tmp_path / "runs.pmtiles")
    pmt.write_pmtiles(t, p)
    data = open(p, "rb").read()
    h = pmt.pmtiles_header(data)
    assert h["addressed_tiles_count"] == n * n
    assert h["tile_contents_count"] == 1
    assert h["tile_entries_count"] == 1          # full pyramid level = 1 run
    back = pmt.read_pmtiles(data)
    assert _sorted_rows(back) == _sorted_rows(t)
    assert pmt.get_tile(data, z, 5, 2) == b"same-bytes"


def test_leaf_directories(tmp_path):
    t = _tile_table(n=300, z=6)
    p = str(tmp_path / "leaf.pmtiles")
    # force the root over a tiny budget so entries spill into leaves
    pmt.write_pmtiles(t, p, root_max=128)
    data = open(p, "rb").read()
    h = pmt.pmtiles_header(data)
    assert h["leaf_dirs_bytes"] > 0
    back = pmt.read_pmtiles(data)
    assert _sorted_rows(back) == _sorted_rows(t)
    # point lookups resolve through the leaf indirection
    rows = _sorted_rows(t)
    for zz, xx, yy, payload in rows[::37]:
        assert pmt.get_tile(data, zz, xx, yy) == payload
    assert pmt.get_tile(data, 6, 63, 63) in (None, dict(
        (r[:3], r[3]) for r in rows).get((6, 63, 63)))


def test_get_tile_miss_and_magic(tmp_path):
    t = _tile_table(n=10)
    p = str(tmp_path / "m.pmtiles")
    pmt.write_pmtiles(t, p)
    data = open(p, "rb").read()
    present = {(r[0], r[1], r[2]) for r in _sorted_rows(t)}
    miss = next((5, xx, yy) for xx in range(32) for yy in range(32)
                if (5, xx, yy) not in present)
    assert pmt.get_tile(data, *miss) is None
    with pytest.raises(ValueError):
        pmt.pmtiles_header(b"NotTiles" + data[8:])
    with pytest.raises(ValueError):
        pmt.pmtiles_header(data[:7] + b"\x02" + data[8:])


def test_corrupt_gzip_span_raises_value_error(tmp_path):
    """A gzip directory or metadata span that does not inflate raises
    ``ValueError``, as a cut one does (tests/test_wire.py sweep)."""
    p = str(tmp_path / "g.pmtiles")
    pmt.write_pmtiles(_tile_table(n=10), p, metadata={"k": "v"})
    data = bytearray(open(p, "rb").read())
    h = pmt.pmtiles_header(bytes(data))
    for off, n, read in [
            (h["root_dir_offset"], h["root_dir_bytes"], pmt.read_pmtiles),
            (h["json_metadata_offset"], h["json_metadata_bytes"],
             pmt.pmtiles_metadata)]:
        bad = data.copy()
        bad[off + 10:off + n] = b"\xff" * (n - 10)
        with pytest.raises(ValueError, match="does not inflate"):
            read(bytes(bad))


def test_mvt_payload_gzip_and_png_detection(tmp_path):
    # MVT-typed payloads default to gzip tile compression
    t = pa.table({"z": pa.array([2, 2]), "tile_x": pa.array([0, 1]),
                  "tile_y": pa.array([0, 3]),
                  "data": pa.array([b"\x1a\x05proto" * 40,
                                    b"\x1a\x02xx"], pa.binary())})
    p = str(tmp_path / "v.pmtiles")
    pmt.write_pmtiles(t, p)
    data = open(p, "rb").read()
    h = pmt.pmtiles_header(data)
    assert h["tile_type"] == pmt.TILETYPE_MVT
    assert h["tile_compression"] == pmt.COMPRESSION_GZIP
    # stored bytes are gzip members; reader transparently decompresses
    o = h["tile_data_offset"]
    assert data[o:o + 2] == b"\x1f\x8b"
    assert _sorted_rows(pmt.read_pmtiles(data)) == _sorted_rows(t)
    # PNG magic keeps tiles uncompressed
    t2 = pa.table({"z": pa.array([1]), "tile_x": pa.array([0]),
                   "tile_y": pa.array([0]),
                   "data": pa.array([b"\x89PNG\r\n\x1a\nrest"],
                                    pa.binary())})
    p2 = str(tmp_path / "p.pmtiles")
    pmt.write_pmtiles(t2, p2)
    h2 = pmt.pmtiles_header(open(p2, "rb").read())
    assert h2["tile_type"] == pmt.TILETYPE_PNG
    assert h2["tile_compression"] == pmt.COMPRESSION_NONE


def test_header_is_127_bytes_and_exact_layout(tmp_path):
    t = _tile_table(n=4, z=2)
    p = str(tmp_path / "h.pmtiles")
    pmt.write_pmtiles(t, p)
    data = open(p, "rb").read()
    assert data[:8] == b"PMTiles\x03"
    # root dir starts right after the fixed 127-byte header
    (root_off,) = struct.unpack_from("<Q", data, 8)
    assert root_off == 127
    # internal compression is gzip: root dir decompresses
    (root_len,) = struct.unpack_from("<Q", data, 16)
    gzip.decompress(data[127:127 + root_len])


def test_ray_dataset_reader(tmp_path, ray_session):
    import ray

    t = _tile_table(n=120, z=6, dup_every=5)
    p = str(tmp_path / "r.pmtiles")
    pmt.write_pmtiles(t, p, root_max=256)        # exercise leaves too
    ds = pmt.read_pmtiles_dataset(p, unit_entries=16)
    back = pa.concat_tables(
        ray.get(ds.to_arrow_refs()), promote_options="default")
    assert _sorted_rows(back) == _sorted_rows(t)
