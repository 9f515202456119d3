"""OSM PBF reader/writer — the reference's OSM driver
(ogr/ogrsf_frmts/osm, which parses osmformat.proto/fileformat.proto with
a custom protobuf decoder) re-implemented from scratch against the
public PBF format spec (wiki.openstreetmap.org/wiki/PBF_Format):

* file framing: ``[u32be len][BlobHeader][Blob]`` repeating; BlobHeader
  ``{1: type, 3: datasize}``; Blob ``{1: raw | 3: zlib_data, 2: raw_size}``.
* first block type ``OSMHeader`` (HeaderBlock with required_features),
  then ``OSMData`` blocks: PrimitiveBlock ``{1: stringtable,
  2: primitivegroup*, 17: granularity=100, 19: lat_offset,
  20: lon_offset}``.
* nodes are DenseNodes ``{1: ids (packed sint64 deltas), 8/9: lat/lon
  (packed sint64 deltas of 1e-9·granularity degrees), 10: keys_vals
  (packed int32 stringtable indices, 0-terminated per node)}``; ways
  carry ``{1: id, 2/3: keys/vals, 8: refs (packed sint64 deltas)}``.

Ray-Data-first read path: OSMData fileblocks are INDEPENDENT by design
(each re-deltas from zero and carries its own string table), so the
driver side only scans the cheap BlobHeader chain for (offset, size)
extents and the per-block decode fans out to Ray tasks (4 blocks each) —
at 100 TB each worker reads only its own byte ranges.  The packed
varint streams decode VECTORIZED: one ``np.add.reduceat`` over 7-bit
limbs per packed field, never a Python loop per value.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np
import pyarrow as pa

from .mvt import _field, _len_field, _read_varint, _varint, _zigzag
from .util import read_units

__all__ = ["write_osm_pbf", "scan_osm_pbf", "decode_block",
           "read_osm_pbf", "read_osm_pbf_table",
           "write_osm_pbf_partitioned"]

_GRAN = 100          # nanodegree granularity (spec default)
_NANO = 1e-9


# ---------------------------------------------------------------------------
# vectorized packed-varint decode
# ---------------------------------------------------------------------------

def _packed_varints(buf) -> np.ndarray:
    """Decode a packed varint payload to uint64, vectorized: group the
    7-bit limbs at continuation-bit boundaries and fold each group with
    one ``reduceat`` (no Python loop over values)."""
    a = np.frombuffer(buf, dtype=np.uint8)
    if a.size == 0:
        return np.zeros(0, np.uint64)
    ends = np.flatnonzero(a < 0x80)
    starts = np.empty(len(ends), np.int64)
    starts[0] = 0
    starts[1:] = ends[:-1] + 1
    pos = np.arange(len(a), dtype=np.int64) - np.repeat(
        starts, np.diff(np.append(starts, len(a))))
    limbs = (a & np.uint8(0x7F)).astype(np.uint64) << (
        np.uint64(7) * pos.astype(np.uint64))
    return np.add.reduceat(limbs, starts)


def _unzigzag64(u: np.ndarray) -> np.ndarray:
    return ((u >> np.uint64(1)) ^ (-(u & np.uint64(1)).astype(np.int64))
            .astype(np.uint64)).astype(np.int64)


def _pack_sint_deltas(vals: np.ndarray) -> bytes:
    d = np.diff(np.concatenate(([np.int64(0)], vals.astype(np.int64))))
    return b"".join(_varint(_zigzag(int(v))) for v in d)


def _pack_uints(vals) -> bytes:
    return b"".join(_varint(int(v)) for v in vals)


# ---------------------------------------------------------------------------
# writer
# ---------------------------------------------------------------------------

def _blob(type_: str, payload: bytes) -> bytes:
    blob = (_len_field(3, zlib.compress(payload, 6))
            + _field(2, 0) + _varint(len(payload)))
    header = (_len_field(1, type_.encode())
              + _field(3, 0) + _varint(len(blob)))
    return struct.pack(">I", len(header)) + header + blob


def _string_table(strings: list[bytes]) -> bytes:
    return b"".join(_len_field(1, s) for s in strings)


def write_osm_pbf(path: str, nodes: pa.Table | None = None,
                  ways: pa.Table | None = None,
                  block_rows: int = 8000) -> int:
    """Write an .osm.pbf.  ``nodes``: (id:int64, lat:f64, lon:f64
    [, tag_keys:list<str>, tag_vals:list<str>]) → DenseNodes blocks;
    ``ways``: (id:int64, refs:list<int64> [, tag_keys, tag_vals]).
    Coordinates quantize to the spec default 100-nanodegree grid
    (|roundtrip error| ≤ 5e-8 deg).  Returns entities written."""
    n_out = 0
    with open(path, "wb") as f:
        f.write(_blob("OSMHeader", _len_field(4, b"OsmSchema-V0.6")
                      + _len_field(4, b"DenseNodes")))
        if nodes is not None:
            for lo in range(0, nodes.num_rows, block_rows):
                g = nodes.slice(lo, block_rows).combine_chunks()
                f.write(_blob("OSMData", _dense_block(g)))
                n_out += g.num_rows
        if ways is not None:
            for lo in range(0, ways.num_rows, block_rows):
                g = ways.slice(lo, block_rows).combine_chunks()
                f.write(_blob("OSMData", _way_block(g)))
                n_out += g.num_rows
    return n_out


def _tag_indices(g: pa.Table, strings: list[bytes], index: dict):
    """Resolve per-row tag key/val lists to string-table indices."""
    def sid(s: str) -> int:
        b = s.encode()
        i = index.get(b)
        if i is None:
            i = index[b] = len(strings)
            strings.append(b)
        return i

    n = g.num_rows
    if "tag_keys" not in g.column_names:
        return [[] for _ in range(n)], sid
    keys = g["tag_keys"].to_pylist()
    vals = g["tag_vals"].to_pylist()
    out = []
    for i in range(n):
        pairs = []
        for k, v in zip(keys[i] or [], vals[i] or []):
            pairs.append(sid(k))
            pairs.append(sid(v))
        out.append(pairs)
    return out, sid


def _dense_block(g: pa.Table) -> bytes:
    strings: list[bytes] = [b""]          # index 0 reserved
    index: dict = {}
    kv, _ = _tag_indices(g, strings, index)
    ids = g["id"].to_numpy().astype(np.int64)
    lat = np.rint(g["lat"].to_numpy() / (_NANO * _GRAN)).astype(np.int64)
    lon = np.rint(g["lon"].to_numpy() / (_NANO * _GRAN)).astype(np.int64)
    keys_vals = b"".join(
        _pack_uints(p + [0]) for p in kv) if any(kv) else b""
    dense = (_len_field(1, _pack_sint_deltas(ids))
             + _len_field(8, _pack_sint_deltas(lat))
             + _len_field(9, _pack_sint_deltas(lon)))
    if keys_vals:
        dense += _len_field(10, keys_vals)
    group = _len_field(2, dense)
    return (_len_field(1, _string_table(strings))
            + _len_field(2, group)
            + _field(17, 0) + _varint(_GRAN))


def _way_block(g: pa.Table) -> bytes:
    strings: list[bytes] = [b""]
    index: dict = {}
    kv, _ = _tag_indices(g, strings, index)
    ids = g["id"].to_numpy().astype(np.int64)
    refs = g["refs"].to_pylist()
    ways = []
    for i in range(g.num_rows):
        w = _field(1, 0) + _varint(int(ids[i]))
        if kv[i]:
            w += _len_field(2, _pack_uints(kv[i][0::2]))
            w += _len_field(3, _pack_uints(kv[i][1::2]))
        w += _len_field(8, _pack_sint_deltas(
            np.asarray(refs[i] or [], np.int64)))
        ways.append(_len_field(3, w))
    group = b"".join(ways)
    return (_len_field(1, _string_table(strings))
            + _len_field(2, group)
            + _field(17, 0) + _varint(_GRAN))


# ---------------------------------------------------------------------------
# reader
# ---------------------------------------------------------------------------

def _fields(buf) -> list[tuple[int, int, object]]:
    """Flat protobuf message scan → [(field_no, wire_type, value)];
    length-delimited values are memoryview slices (zero-copy)."""
    mv = memoryview(buf)
    out = []
    pos = 0
    n = len(mv)
    while pos < n:
        tag, pos = _read_varint(mv, pos)
        fno, wt = tag >> 3, tag & 7
        if wt == 0:
            v, pos = _read_varint(mv, pos)
        elif wt == 2:
            ln, pos = _read_varint(mv, pos)
            v = mv[pos:pos + ln]
            pos += ln
        elif wt == 5:
            v = struct.unpack_from("<I", mv, pos)[0]
            pos += 4
        elif wt == 1:
            v = struct.unpack_from("<Q", mv, pos)[0]
            pos += 8
        else:
            raise ValueError(f"bad wire type {wt}")
        out.append((fno, wt, v))
    return out


def scan_osm_pbf(path: str) -> list[dict]:
    """Driver-side index pass: walk only the BlobHeader chain and return
    one extent record per OSMData fileblock (offset/size of the Blob) —
    the payload bytes are NOT read here."""
    out = []
    with open(path, "rb") as f:
        while True:
            raw = f.read(4)
            if len(raw) < 4:
                break
            hlen = struct.unpack(">I", raw)[0]
            header = _fields(f.read(hlen))
            btype = bytes([v for n, _, v in header if n == 1][0]).decode()
            dsize = [v for n, _, v in header if n == 3][0]
            off = f.tell()
            f.seek(dsize, 1)
            if btype == "OSMData":
                out.append({"path": path, "offset": off, "size": dsize})
    return out


def _blob_payload(blob: bytes) -> bytes:
    raw = zdata = None
    for n, _, v in _fields(blob):
        if n == 1:
            raw = bytes(v)
        elif n == 3:
            zdata = bytes(v)
    if raw is not None:
        return raw
    if zdata is not None:
        return zlib.decompress(zdata)
    raise ValueError("Blob carries no raw/zlib data "
                     "(lzma/zstd not supported)")


def decode_block(payload: bytes) -> dict:
    """PrimitiveBlock bytes → {"nodes": pa.Table, "ways": pa.Table}."""
    gran, lat_off, lon_off = _GRAN, 0, 0
    strings: list[str] = []
    groups = []
    for n, _, v in _fields(payload):
        if n == 1:
            strings = [bytes(s).decode("utf-8", "replace")
                       for f, _, s in _fields(v) if f == 1]
        elif n == 2:
            groups.append(v)
        elif n == 17:
            gran = v
        elif n == 19:
            lat_off = v
        elif n == 20:
            lon_off = v
    nodes, ways = [], []
    for grp in groups:
        for n, _, v in _fields(grp):
            if n == 2:
                nodes.append(_decode_dense(v, strings, gran,
                                           lat_off, lon_off))
            elif n == 3:
                ways.append(_decode_way(v, strings))
    out = {}
    if nodes:
        out["nodes"] = pa.concat_tables(nodes)
    if ways:
        out["ways"] = pa.Table.from_pylist(ways, schema=_SCHEMAS["ways"])
    return out


_SCHEMAS = {
    "nodes": pa.schema([("id", pa.int64()), ("lat", pa.float64()),
                        ("lon", pa.float64()),
                        ("tag_keys", pa.list_(pa.string())),
                        ("tag_vals", pa.list_(pa.string()))]),
    "ways": pa.schema([("id", pa.int64()),
                       ("refs", pa.list_(pa.int64())),
                       ("tag_keys", pa.list_(pa.string())),
                       ("tag_vals", pa.list_(pa.string()))]),
}


def _decode_dense(buf, strings, gran, lat_off, lon_off) -> pa.Table:
    ids = lat = lon = kv = None
    for n, _, v in _fields(buf):
        if n == 1:
            ids = np.cumsum(_unzigzag64(_packed_varints(v)))
        elif n == 8:
            lat = np.cumsum(_unzigzag64(_packed_varints(v)))
        elif n == 9:
            lon = np.cumsum(_unzigzag64(_packed_varints(v)))
        elif n == 10:
            kv = _packed_varints(v).astype(np.int64)
    n_nodes = len(ids)
    cols = {
        "id": pa.array(ids, pa.int64()),
        "lat": pa.array(_NANO * (lat_off + np.int64(gran) * lat)),
        "lon": pa.array(_NANO * (lon_off + np.int64(gran) * lon)),
    }
    # keys_vals: 0-terminated (k,v) index runs, one run per node —
    # vectorized split at the zero markers
    tk = [[] for _ in range(n_nodes)]
    tv = [[] for _ in range(n_nodes)]
    if kv is not None and len(kv):
        zero = np.flatnonzero(kv == 0)
        node_of = np.zeros(len(kv), np.int64)
        node_of[zero[:-1] + 1] = 1
        node_of = np.cumsum(node_of)
        keep = kv != 0
        for j, sid in zip(node_of[keep][0::2], kv[keep][0::2]):
            tk[j].append(strings[sid])
        for j, sid in zip(node_of[keep][1::2], kv[keep][1::2]):
            tv[j].append(strings[sid])
    cols["tag_keys"] = pa.array(tk, pa.list_(pa.string()))
    cols["tag_vals"] = pa.array(tv, pa.list_(pa.string()))
    return pa.table(cols)


def _decode_way(buf, strings) -> dict:
    out = {"id": 0, "refs": [], "tag_keys": [], "tag_vals": []}
    for n, _, v in _fields(buf):
        if n == 1:
            out["id"] = v
        elif n == 2:
            out["tag_keys"] = [strings[i]
                               for i in _packed_varints(v)]
        elif n == 3:
            out["tag_vals"] = [strings[i]
                               for i in _packed_varints(v)]
        elif n == 8:
            out["refs"] = np.cumsum(
                _unzigzag64(_packed_varints(v))).tolist()
    return out


def _osm_units(path: str) -> list[dict]:
    """The file's OSMData blocks, 4 to a unit."""
    extents = scan_osm_pbf(path)
    return [{"blobs": extents[i:i + 4]} for i in range(0, len(extents), 4)]


def _osm_blobs(unit: dict, *, kind: str) -> pa.Table:
    """The ``kind`` rows of one unit's blocks, each read at its extent."""
    tabs = []
    for ext in unit["blobs"]:
        with open(ext["path"], "rb") as f:
            f.seek(ext["offset"])
            got = decode_block(_blob_payload(f.read(ext["size"])))
        if kind in got:
            tabs.append(got[kind])
    if not tabs:
        return pa.Table.from_pylist([], schema=_SCHEMAS[kind])
    return pa.concat_tables(tabs)


def read_osm_pbf(path: str, kind: str = "nodes"):
    """Block-parallel Ray source: one task per 4 OSMData fileblocks (each
    block is self-contained); workers read only their own byte extents."""
    units = _osm_units(path)
    if not units:
        raise ValueError(f"{path}: no OSMData blocks")
    return read_units(units, _osm_blobs, kind=kind)


def write_osm_pbf_partitioned(ds, out_dir: str, part_col: str):
    """Distributed OSM PBF sink: one ``<part>.osm.pbf`` of DenseNodes
    per partition-key group (same shape as the fgb/gpkg sinks).  Node
    tables must carry (id, lat, lon[, tag_keys, tag_vals]).  Returns the
    manifest Dataset."""
    from .util import write_groups
    return write_groups(ds, out_dir, part_col, "osm.pbf",
                        lambda g, path, part: write_osm_pbf(path, nodes=g))


def read_osm_pbf_table(path: str, kind: str = "nodes") -> pa.Table:
    """Driver-side convenience read (tests / small files)."""
    tabs = [_osm_blobs(u, kind=kind) for u in _osm_units(path)]
    return pa.concat_tables(tabs) if tabs else pa.Table.from_pylist(
        [], schema=_SCHEMAS[kind])
