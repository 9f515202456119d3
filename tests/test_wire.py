"""georay.wire, the one home of LEB128 varints and the protobuf wire
format: spec pins, a seeded scalar/vector property test, the frozen
bytes of every writer built on it, and one truncation sweep over every
reader that parses it."""

import hashlib
import struct

import numpy as np
import pyarrow as pa
import pytest

from georay import (avrofmt, icebergfmt, lancefmt, mvt, osmpbf, pmtiles,
                    wire)


# ---------------------------------------------------------------------------
# spec pins
# ---------------------------------------------------------------------------

def test_zigzag_varint_spec_pins():
    # Avro spec §"Binary encoding" examples
    assert wire.svarint(0) == b"\x00"
    assert wire.svarint(-1) == b"\x01"
    assert wire.svarint(1) == b"\x02"
    assert wire.svarint(-2) == b"\x03"
    assert wire.svarint(2) == b"\x04"
    assert wire.svarint(-64) == b"\x7f"
    assert wire.svarint(64) == b"\x80\x01"
    for v in (0, 1, -1, 63, -64, 64, 2**40, -2**40, 2**62, -2**63):
        got, pos = wire.read_svarint(wire.svarint(v), 0, "avro")
        assert got == v and pos == len(wire.svarint(v))


def test_packed_varint_vectorized_matches_scalar():
    rng = np.random.default_rng(1)
    vals = rng.integers(0, 2**63, 5000, dtype=np.int64)
    buf = b"".join(wire.svarint(int(v)) for v in vals)
    got = wire.unzigzag(wire.packed_varints(buf, "osmpbf"))
    assert got.tolist() == vals.tolist()


def test_encode_varints_matches_manual():
    vals = [0, 1, 127, 128, 300, 2 ** 32, 2 ** 63]
    enc = wire.varints(vals)

    def manual(v):
        out = b""
        while v >= 0x80:
            out += bytes([(v & 0x7F) | 0x80])
            v >>= 7
        return out + bytes([v])
    assert enc == b"".join(manual(v) for v in vals)
    assert list(wire.packed_varints(enc, "pmtiles")) == vals


def _read_all(buf, read):
    out, pos = [], 0
    while pos < len(buf):
        v, pos = read(buf, pos, "test")
        out.append(v)
    return out


def test_scalar_and_vector_codecs_agree():
    """Seeded: the scalar and the vectorized encoder give the same bytes,
    and both decoders give the values back, over the varint length edges
    up to 2**64 - 1 and, through zigzag, over the int64 extremes."""
    rng = np.random.default_rng(23)
    edges = [0, 1, 127, 128, 255, 16383, 16384, 2**32, 2**63 - 1, 2**63,
             2**64 - 1]
    vals = edges + [1 << int(b) for b in rng.integers(0, 64, 200)] + [
        int(v) for v in rng.integers(0, 2**64 - 1, 2000, dtype=np.uint64,
                                     endpoint=True)]
    enc = b"".join(wire.varint(v) for v in vals)
    assert wire.varints(np.array(vals, np.uint64)) == enc
    assert wire.packed_varints(enc, "test").tolist() == vals
    assert _read_all(enc, wire.read_varint) == vals

    signed = [0, -1, 1, -64, 64, 2**63 - 1, -2**63] + rng.integers(
        -2**63, 2**63 - 1, 2000, dtype=np.int64, endpoint=True).tolist()
    arr = np.array(signed, np.int64)
    zz = [wire.zigzag(v) for v in signed]
    assert wire.zigzag(arr).tolist() == zz
    assert [wire.unzigzag(u) for u in zz] == signed
    assert wire.unzigzag(np.array(zz, np.uint64)).tolist() == signed
    senc = b"".join(wire.svarint(v) for v in signed)
    assert wire.varints(wire.zigzag(arr)) == senc
    assert wire.unzigzag(wire.packed_varints(senc, "test")).tolist() == signed
    assert _read_all(senc, wire.read_svarint) == signed
    # a negative int is masked to 64 bits, as protobuf int64 is
    assert wire.varint(-1) == wire.varint(2**64 - 1) == b"\xff" * 9 + b"\x01"


def test_decoders_reject_truncated_and_overlong():
    overlong = b"\x80" * 10 + b"\x01"
    for call, at in [
            (lambda: wire.read_varint(b"\x05\x80\x80", 1, "t"), 3),
            (lambda: wire.read_varint(overlong, 0, "t"), 10),
            (lambda: wire.packed_varints(bytes([1, 2, 0x81]), "t"), 3),
            (lambda: wire.packed_varints(b"\x01" + overlong, "t"), 11),
            (lambda: wire.fields(b"\x0a\x05abc", "t"), 5),
            (lambda: wire.fields(b"\x0d\x01\x02", "t"), 3),
            (lambda: wire.fields(b"\x09" + b"\x00" * 7, "t"), 8),
            (lambda: wire.take(b"abc", 1, 5, "t"), 3),
            (lambda: wire.take(b"abc", 1, -1, "t"), 3)]:
        with pytest.raises(ValueError, match=f"^truncated t at byte {at}$"):
            call()
    with pytest.raises(ValueError, match="unknown wire type 3"):
        wire.fields(b"\x0b", "t")


def test_fields_slices_keep_the_buffer_type():
    msg = (wire.varint_field(1, 300) + wire.len_field(2, b"xyz")
           + wire.tag(3, 5) + struct.pack("<f", 1.5)
           + wire.tag(4, 1) + struct.pack("<d", -2.0))
    got = wire.fields(msg, "t")
    assert [(f, w) for f, w, _ in got] == [(1, 0), (2, 2), (3, 5), (4, 1)]
    assert got[0][2] == 300 and got[1][2] == b"xyz"
    assert struct.unpack("<f", got[2][2]) == (1.5,)
    assert struct.unpack("<d", got[3][2]) == (-2.0,)
    assert all(type(v) is bytes for _, w, v in got if w)
    mv = wire.fields(memoryview(msg), "t")
    assert all(type(v) is memoryview for _, w, v in mv if w)


# ---------------------------------------------------------------------------
# fixed inputs for the writers
# ---------------------------------------------------------------------------

def _lance_table():
    return pa.table({
        "i": pa.array([1, -2, None, 2**40], pa.int64()),
        "s": pa.array(["a", None, "ccc", "β"]),
        "f": pa.array([0.5, 1.5, -2.0, None], pa.float32()),
        "b": pa.array([True, None, False, True]),
        "bin": pa.array([b"\x00", b"", None, b"xyz"]),
        "v": pa.FixedSizeListArray.from_arrays(
            pa.array(np.arange(8, dtype=np.float64)), 2),
    })


_LANCE_FRAGS = [{"filename": "frag-a.lancef", "num_rows": 4},
                {"filename": "frag-b.lancef", "num_rows": 300,
                 "del_file": "del-c.bin"}]

_MVT_LAYERS = {
    "roads": [
        {"geom": {"type": "LineString",
                  "coordinates": [[0, 0], [10, 20], [30, 5]]},
         "attrs": {"name": "a", "lanes": 2, "w": 1.5, "ok": True}, "id": 1},
        {"geom": {"type": "Point", "coordinates": [100, 200]},
         "attrs": {"lanes": -3}, "id": 2}],
    "zones": [
        {"geom": {"type": "Polygon", "coordinates": [
            [[0, 0], [0, 50], [50, 50], [50, 0], [0, 0]],
            [[10, 10], [20, 10], [20, 20], [10, 20], [10, 10]]]},
         "attrs": {"name": "z", "big": 2**40}}]}


def _osm_tables():
    n = 50
    nodes = pa.table({
        "id": pa.array(np.arange(n, dtype=np.int64) * 7919 + 10**9),
        "lat": pa.array(np.linspace(-60.0, 70.0, n)),
        "lon": pa.array(np.linspace(170.0, -170.0, n)),
        "tag_keys": pa.array([["k"] if i % 3 else [] for i in range(n)],
                             pa.list_(pa.string())),
        "tag_vals": pa.array([[f"v{i % 4}"] if i % 3 else []
                              for i in range(n)], pa.list_(pa.string())),
    })
    ways = pa.table({
        "id": pa.array([5, 6, 7], pa.int64()),
        "refs": pa.array([[10**9, 10**9 + 7919], [10**9 + 3 * 7919], []],
                         pa.list_(pa.int64())),
        "tag_keys": pa.array([["highway"], [], ["a", "b"]],
                             pa.list_(pa.string())),
        "tag_vals": pa.array([["primary"], [], ["x", "y"]],
                             pa.list_(pa.string())),
    })
    return nodes, ways


def _tiles():
    z, x, y, data = [], [], [], []
    for tx in range(8):
        for ty in range(8):
            z.append(3)
            x.append(tx)
            y.append(ty)
            data.append(b"\x89PNG" + bytes([(tx * 3 + ty) % 5]) * 20)
    return pa.table({"z": z, "tile_x": x, "tile_y": y,
                     "data": pa.array(data, pa.binary())})


def _avro_table():
    return pa.table({
        "id": pa.array([1, 2, 3, None, -2**63], pa.int64()),
        "name": pa.array(["a", "β", None, "d", ""], pa.string()),
        "x": pa.array([1.5, -2.25, 3.0, None, 0.0], pa.float64()),
        "ok": pa.array([True, False, None, True, False], pa.bool_()),
        "raw": pa.array([b"\xff\x00", b"", None, b"Obj\x01", b"z"],
                        pa.binary()),
        "tags": pa.array([[1, 2], [], None, [7], [2**62]],
                         pa.list_(pa.int64())),
        "f32": pa.array([0.5, None, 1.25, 2.0, -1.0], pa.float32()),
        "i32": pa.array([7, -8, None, 2**31 - 1, -2**31], pa.int32()),
    })


def _iceberg_entries():
    return [{"status": 1, "snapshot_id": 2**40 + i,
             "data_file": {"content": 0,
                           "file_path": f"data/part-{i:05d}.parquet",
                           "file_format": "PARQUET", "record_count": 1000 + i,
                           "file_size_in_bytes": 65536 * (i + 1),
                           "lower_bounds": [{"key": 1,
                                             "value": struct.pack("<q", i)}],
                           "upper_bounds": None if i % 2 else [
                               {"key": 1, "value": struct.pack("<q", 9 * i)}]}}
            for i in range(6)]


def _writer_bytes(tmp_path, monkeypatch) -> dict:
    """Each writer's bytes over the fixed inputs above."""
    out = {}
    p = tmp_path / "frag.lancef"
    lancefmt.write_fragment(_lance_table(), str(p))
    out["lance_fragment"] = p.read_bytes()
    root = tmp_path / "lance"
    lancefmt._write_manifest(str(root), 3, _lance_table().schema,
                             _LANCE_FRAGS)
    out["lance_manifest"] = (root / "_latest.manifest").read_bytes()
    out["mvt"] = mvt.encode_mvt(_MVT_LAYERS)
    nodes, ways = _osm_tables()
    p = tmp_path / "x.osm.pbf"
    osmpbf.write_osm_pbf(str(p), nodes=nodes, ways=ways, block_rows=30)
    out["osm_pbf"] = p.read_bytes()
    for name, kw in (("pmtiles", {}), ("pmtiles_leaves", {"root_max": 40})):
        p = tmp_path / f"{name}.pmtiles"
        pmtiles.write_pmtiles(_tiles(), str(p), metadata={"name": "t"}, **kw)
        out[name] = p.read_bytes()
    for codec in ("null", "deflate"):
        p = tmp_path / f"{codec}.avro"
        avrofmt.write_avro(_avro_table(), str(p), codec=codec)
        out[f"avro_{codec}"] = p.read_bytes()
    # the manifest's sync marker derives from its path: write a fixed one
    monkeypatch.chdir(tmp_path)
    icebergfmt.write_ocf_records("manifest.avro",
                                 icebergfmt._manifest_schema(),
                                 _iceberg_entries())
    out["iceberg_manifest"] = (tmp_path / "manifest.avro").read_bytes()
    return out


# sha256 of each writer's bytes, recorded before these formats moved onto
# georay.wire: the move must not change one byte
_PINS = {
    "lance_fragment":
        "ff8808394d02e26751f726afc472d303f3849c805dc984030aa49f329714fab5",
    "lance_manifest":
        "4d7fb1126679ae248e21f51e94dbaf438a54f89cb58813865fb1c8f15dbf81e8",
    "mvt":
        "70addb264d9e54d8f8c0f2d8fbaaec73b2d2d38c8c154053cf0661572ec63f84",
    "osm_pbf":
        "4a90acb7f4f18464c80726e699664b9ae7db3864883b35b0e4383b738749bc49",
    "pmtiles":
        "4bddb2bae6990b0fed6c0d4c03a7033ea56aca830a7549e6630f0cdbd756524a",
    "pmtiles_leaves":
        "c2aa458c2bf62b4d7bf44e60a75d26f9ab115e479d4e8975c392ff6cbaa809a6",
    "avro_null":
        "1542ac495fa45400685d7160ec85960d71e12ad24524b069e0ec6c1f72967e51",
    "avro_deflate":
        "eef4f509a7dcabb570d3ff10ec17ed1ac5fc5b7e7cdc29c8221f1f8b7e5b946e",
    "iceberg_manifest":
        "36855e4b34d8452beec7ca829dbbe3fe710164db1843de8c7e3f4e622902d058",
}


def test_writer_bytes_are_frozen(tmp_path, monkeypatch):
    got = {k: hashlib.sha256(v).hexdigest()
           for k, v in _writer_bytes(tmp_path, monkeypatch).items()}
    assert got == _PINS


# ---------------------------------------------------------------------------
# truncation sweep
# ---------------------------------------------------------------------------

def _same(a, b) -> bool:
    if isinstance(a, pa.Table):
        return isinstance(b, pa.Table) and a.equals(b)
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and np.array_equal(a, b)
    if isinstance(a, dict):
        return (isinstance(b, dict) and a.keys() == b.keys()
                and all(_same(a[k], b[k]) for k in a))
    if isinstance(a, (list, tuple)):
        return (type(a) is type(b) and len(a) == len(b)
                and all(_same(x, y) for x, y in zip(a, b)))
    return a == b


def _on_disk(tmp_path, name, read):
    """A parser of file bytes: write them to one file, read it back."""
    path = tmp_path / name

    def parse(b):
        path.write_bytes(b)
        return read(str(path))
    return parse


def _lance_manifest(tmp_path, monkeypatch):
    raw = _writer_bytes(tmp_path, monkeypatch)["lance_manifest"]
    (tmp_path / "cut").mkdir()
    return raw, _on_disk(tmp_path, "cut/_latest.manifest", lambda p:
                         lancefmt.lance_manifest(str(tmp_path / "cut"))), ()


def _lance_filemeta(tmp_path, monkeypatch):
    """The FileMeta cut, under a footer that names the cut length."""
    data = _writer_bytes(tmp_path, monkeypatch)["lance_fragment"]
    meta_off, meta_len = struct.unpack_from("<QQ", data, len(data) - 24)
    schema = _lance_table().schema
    disk = _on_disk(tmp_path, "cut.lancef",
                    lambda p: lancefmt.read_fragment(p, schema))
    return data[meta_off:meta_off + meta_len], lambda b: disk(
        data[:meta_off] + b + struct.pack("<QQ", meta_off, len(b))
        + data[-8:]), ()


def _mvt(tmp_path, monkeypatch):
    return mvt.encode_mvt(_MVT_LAYERS), mvt.decode_mvt, ()


def _osm_file(tmp_path, monkeypatch):
    """The file has no block count or footer, so a cut between two
    fileblocks leaves a valid, shorter file: those cuts are ``ends``."""
    raw = _writer_bytes(tmp_path, monkeypatch)["osm_pbf"]
    path = tmp_path / "x.osm.pbf"
    ends = {e["offset"] + e["size"] for e in osmpbf.scan_osm_pbf(str(path))}
    return raw, _on_disk(tmp_path, "cut.osm.pbf", lambda p: [
        osmpbf.read_osm_pbf_table(p, kind) for kind in ("nodes", "ways")]
    ), ends


def _osm_block(tmp_path, monkeypatch):
    nodes, ways = _osm_tables()
    path = str(tmp_path / "x.osm.pbf")
    osmpbf.write_osm_pbf(path, nodes=nodes, ways=ways, block_rows=30)
    ext = osmpbf.scan_osm_pbf(path)[0]
    with open(path, "rb") as f:
        f.seek(ext["offset"])
        blob = f.read(ext["size"])
    return osmpbf._blob_payload(blob), osmpbf.decode_block, ()


def _pmtiles_directory(tmp_path, monkeypatch):
    tid = np.array([0, 1, 5, 100, 2**40], np.uint64)
    off = np.array([0, 10, 30, 25, 300], np.uint64)
    ln = np.array([10, 20, 7, 5, 70000], np.uint64)
    rl = np.array([1, 3, 1, 0, 200], np.uint64)
    return (pmtiles.serialize_directory(tid, off, ln, rl),
            pmtiles.deserialize_directory, ())


def _pmtiles_archive(tmp_path, monkeypatch):
    return (_writer_bytes(tmp_path, monkeypatch)["pmtiles"],
            pmtiles.read_pmtiles, ())


def _avro_ocf(tmp_path, monkeypatch):
    return (_writer_bytes(tmp_path, monkeypatch)["avro_deflate"],
            _on_disk(tmp_path, "cut.avro", avrofmt.read_avro_table), ())


def _iceberg_manifest(tmp_path, monkeypatch):
    return (_writer_bytes(tmp_path, monkeypatch)["iceberg_manifest"],
            _on_disk(tmp_path, "cut-manifest.avro",
                     icebergfmt.read_ocf_records), ())


_SWEEP = {f.__name__.lstrip("_"): f for f in (
    _lance_manifest, _lance_filemeta, _mvt, _osm_file, _osm_block,
    _pmtiles_directory, _pmtiles_archive, _avro_ocf, _iceberg_manifest)}


@pytest.mark.parametrize("case", sorted(_SWEEP))
def test_truncation_raises_or_returns_intact(case, tmp_path, monkeypatch):
    """Every cut at k/25 of the bytes (every cut of the Lance manifest)
    raises ``ValueError`` or returns exactly the intact result; a cut at
    one of the case's record ``ends`` returns a row prefix of it."""
    raw, parse, ends = _SWEEP[case](tmp_path, monkeypatch)
    want = parse(raw)
    n = len(raw)
    cuts = (range(1, n) if case == "lance_manifest"
            else sorted({n * k // 25 for k in range(1, 25)}))
    for cut in cuts:
        try:
            got = parse(raw[:cut])
        except ValueError:
            continue
        if cut in ends:
            want_cut = [w.slice(0, g.num_rows) for g, w in zip(got, want)]
        else:
            want_cut = want
        assert _same(got, want_cut), f"{case}: a cut at {cut} of {n} " \
            "bytes returned a different result"
