"""Lance-layout columnar dataset: versioned manifests + immutable
column-chunked fragments, as a Ray Data source/sink.

The north rule's input is "a Lance table of image + caption pairs"
(BASELINE.json input_hint).  This module implements the *structural*
Lance dataset model from the public format description
(lancedb/lance docs: `data/*.lance` fragment files, `_versions/N
.manifest` protobuf manifests, append = new fragments + a new manifest,
readers pin a version, partially-written fragments are invisible until
a manifest commits them):

    <root>/
      data/frag-<hex>.lancef      immutable column-chunked fragments
      _versions/<N>.manifest      protobuf manifest, one per version
      _latest.manifest            atomic-rename copy of the newest

HONESTY (same framing as georay/icosa.py): byte-level parity with
lancedb/lance is UNVERIFIABLE in this offline container — no `lance`
wheel exists here to produce reference files, and the v2 encoding
protos are not vendorable offline.  The wire layout below is therefore
SELF-CANONICAL (field numbers documented in-module, pinned by
roundtrip + structural tests), while the *dataset semantics* the
engine relies on are the real Lance ones:

  * fragment-parallel reads — one Ray task per fragment;
  * column projection pushdown — only the requested columns' byte
    ranges are read from disk (footer + metadata are two small reads);
  * zone-map pruning — per-column min/max/null_count in the fragment
    metadata lets `read_lance(..., prune=(col, lo, hi))` skip whole
    fragments without opening them;
  * MVCC commits — a fragment file not named by a committed manifest
    does not exist; `write_lance` writes all fragments first and
    commits the manifest LAST via atomic rename, so a killed write
    leaves the previous version intact (the resume/lineage story the
    north rule asks for);
  * time travel — `read_lance(root, version=N)` reads any committed
    version; appends never rewrite old fragments.

Reference scope: the reference engine (GDAL) reads/writes datasets via
per-format drivers under ogr/ogrsf_frmts/ (e.g. parquet driver
ogr/ogrsf_frmts/parquet/ogrparquetdriver.cpp); this driver plays that
role for the Lance layout on the Ray side.

Fragment file layout (`.lancef`), one page per column:

    [column buffers ...][FileMeta protobuf][footer:
        u64 meta_off | u64 meta_len | u16 major | u16 minor | b"LANC"]

Protobuf wire (shared heritage with georay/mvt.py, georay/osmpbf.py):

  Manifest:   1 repeated Field schema; 2 repeated Fragment; 3 version;
              4 total_rows
  Field:      1 name; 2 type_code; 3 nullable; 4 list_size;
              5 value_type_code (fixed_size_list only)
  Fragment:   1 id; 2 filename; 3 num_rows
  FileMeta:   1 num_rows; 2 repeated ColumnMeta
  ColumnMeta: 1 name; 2 repeated Buffer; 3 null_count;
              4 min_bytes; 5 max_bytes
  Buffer:     1 role (1=validity, 2=offsets, 3=data); 2 offset; 3 length

Type codes: 1 int32 · 2 int64 · 3 float32 · 4 float64 · 5 string ·
6 binary · 7 bool · 8 fixed_size_list · 9 date32 · 10 timestamp[us] ·
11 int16 · 12 uint64.  large_string/large_binary are narrowed to
string/binary on write (documented loss: none below 2 GiB per column
chunk, which the fragment writer enforces).
"""
from __future__ import annotations

import os
import struct
import uuid

import numpy as np
import pyarrow as pa

from .util import read_units, staged

__all__ = [
    "write_lance", "read_lance", "read_lance_table", "lance_manifest",
    "write_fragment", "read_fragment", "fragment_stats", "compact_lance",
    "delete_lance",
]

_MAGIC = b"LANC"
_MAJOR, _MINOR = 0, 2

# ---------------------------------------------------------------- wire

def _uvarint(n: int) -> bytes:
    out = bytearray()
    while True:
        b = n & 0x7F
        n >>= 7
        if n:
            out.append(b | 0x80)
        else:
            out.append(b)
            return bytes(out)


def _tag(field: int, wire: int) -> bytes:
    return _uvarint((field << 3) | wire)


def _len_field(field: int, payload: bytes) -> bytes:
    return _tag(field, 2) + _uvarint(len(payload)) + payload


def _varint_field(field: int, value: int) -> bytes:
    return _tag(field, 0) + _uvarint(value)


def _fields(buf: bytes):
    """Decode a protobuf message into [(field, wire, value)] — value is
    int for varint, bytes for length-delimited."""
    out, i, n = [], 0, len(buf)
    while i < n:
        key = 0
        shift = 0
        while True:
            b = buf[i]; i += 1
            key |= (b & 0x7F) << shift
            if not b & 0x80:
                break
            shift += 7
        field, wire = key >> 3, key & 7
        if wire == 0:
            v = 0
            shift = 0
            while True:
                b = buf[i]; i += 1
                v |= (b & 0x7F) << shift
                if not b & 0x80:
                    break
                shift += 7
            out.append((field, 0, v))
        elif wire == 2:
            ln = 0
            shift = 0
            while True:
                b = buf[i]; i += 1
                ln |= (b & 0x7F) << shift
                if not b & 0x80:
                    break
                shift += 7
            out.append((field, 2, buf[i:i + ln]))
            i += ln
        else:  # pragma: no cover - we never write wire types 1/5
            raise ValueError(f"unsupported wire type {wire}")
    return out

# ------------------------------------------------------------- types

_FIXED = {1: ("i4", pa.int32()), 2: ("i8", pa.int64()),
          3: ("f4", pa.float32()), 4: ("f8", pa.float64()),
          9: ("i4", pa.date32()), 10: ("i8", pa.timestamp("us")),
          11: ("i2", pa.int16()), 12: ("u8", pa.uint64())}


def _type_code(t: pa.DataType) -> tuple[int, int, int]:
    """(code, list_size, value_code) for a supported arrow type."""
    if pa.types.is_int32(t):
        return 1, 0, 0
    if pa.types.is_int64(t):
        return 2, 0, 0
    if pa.types.is_float32(t):
        return 3, 0, 0
    if pa.types.is_float64(t):
        return 4, 0, 0
    if pa.types.is_string(t) or pa.types.is_large_string(t):
        return 5, 0, 0
    if pa.types.is_binary(t) or pa.types.is_large_binary(t):
        return 6, 0, 0
    if pa.types.is_boolean(t):
        return 7, 0, 0
    if pa.types.is_fixed_size_list(t):
        vc, _, _ = _type_code(t.value_type)
        if vc not in _FIXED:
            raise TypeError(f"fixed_size_list of {t.value_type} unsupported")
        return 8, t.list_size, vc
    if pa.types.is_date32(t):
        return 9, 0, 0
    if pa.types.is_timestamp(t):
        if t.unit != "us":
            raise TypeError(f"timestamp unit {t.unit} unsupported (us only)")
        return 10, 0, 0
    if pa.types.is_int16(t):
        return 11, 0, 0
    if pa.types.is_uint64(t):
        return 12, 0, 0
    raise TypeError(f"lance-layout: unsupported arrow type {t}")


def _arrow_type(code: int, list_size: int, value_code: int) -> pa.DataType:
    if code in _FIXED:
        return _FIXED[code][1]
    if code == 5:
        return pa.string()
    if code == 6:
        return pa.binary()
    if code == 7:
        return pa.bool_()
    if code == 8:
        return pa.list_(_FIXED[value_code][1], list_size)
    raise TypeError(f"unknown type code {code}")

# --------------------------------------------------------- fragments

def _pack_bits(mask: np.ndarray) -> bytes:
    return np.packbits(mask, bitorder="little").tobytes()


def _unpack_bits(buf: bytes, n: int) -> np.ndarray:
    return np.unpackbits(np.frombuffer(buf, np.uint8),
                         count=n, bitorder="little").astype(bool)


def _col_stats(col: pa.ChunkedArray | pa.Array, t: pa.DataType):
    """(min_bytes, max_bytes) — typed LE for fixed-width, 16-byte utf-8
    prefix for string; empty for binary/bool/list (no pruning there)."""
    import pyarrow.compute as pc
    if col.null_count == len(col):
        return b"", b""
    code, _, _ = _type_code(t)
    if code in _FIXED:
        np_t = _FIXED[code][0]
        storage = {"i2": pa.int16(), "i4": pa.int32(), "i8": pa.int64(),
                   "u8": pa.uint64(), "f4": pa.float32(),
                   "f8": pa.float64()}[np_t]
        mm = pc.min_max(col.cast(storage))
        fmt = "<" + {"i2": "h", "i4": "i", "i8": "q", "u8": "Q",
                     "f4": "f", "f8": "d"}[np_t]
        return (struct.pack(fmt, mm["min"].as_py()),
                struct.pack(fmt, mm["max"].as_py()))
    if code == 5:
        mm = pc.min_max(col)
        return (mm["min"].as_py().encode()[:16],
                mm["max"].as_py().encode()[:16])
    return b"", b""


def _encode_column(arr: pa.Array, t: pa.DataType):
    """→ list[(role, bytes)] buffers for one column chunk."""
    code, list_size, value_code = _type_code(t)
    bufs = []
    n = len(arr)
    if arr.null_count:
        bufs.append((1, _pack_bits(~np.asarray(arr.is_null()))))
    if code in _FIXED:
        np_t = _FIXED[code][0]
        vals = arr.cast(_FIXED[code][1]) if arr.type != _FIXED[code][1] else arr
        data = np.asarray(vals.fill_null(0) if arr.null_count else vals)
        bufs.append((3, data.astype(np_t, copy=False).tobytes()))
    elif code in (5, 6):
        base = pa.string() if code == 5 else pa.binary()
        a = arr.cast(base) if arr.type != base else arr
        if arr.null_count:
            a = a.fill_null("" if code == 5 else b"")
        a = a.combine_chunks() if isinstance(a, pa.ChunkedArray) else a
        off = np.frombuffer(a.buffers()[1], np.int32)[
            a.offset:a.offset + n + 1].astype(np.int64)
        datab = a.buffers()[2]
        data = (np.frombuffer(datab, np.uint8)[off[0]:off[-1]].tobytes()
                if datab is not None and n else b"")
        bufs.append((2, (off - off[0]).tobytes()))
        bufs.append((3, data))
    elif code == 7:
        vals = np.asarray(arr.fill_null(False) if arr.null_count else arr)
        bufs.append((3, _pack_bits(vals)))
    elif code == 8:
        flat = arr.flatten()  # null lists → ragged; forbid for simplicity
        if arr.null_count:
            raise TypeError("null fixed_size_list rows unsupported")
        np_t = _FIXED[value_code][0]
        bufs.append((3, np.asarray(flat).astype(np_t, copy=False).tobytes()))
    return bufs


def _decode_column(raw: dict, t: pa.DataType, n: int,
                   null_count: int) -> pa.Array:
    code, list_size, value_code = _type_code(t)
    mask = None
    if 1 in raw:
        mask = ~_unpack_bits(raw[1], n)  # True = null
    if code in _FIXED:
        data = np.frombuffer(raw[3], _FIXED[code][0])
        return pa.array(data, mask=mask).cast(_FIXED[code][1])
    if code in (5, 6):
        off = pa.py_buffer(raw[2])
        # stored int64 offsets → large type, then narrow
        big = pa.Array.from_buffers(
            pa.large_string() if code == 5 else pa.large_binary(), n,
            [None, off, pa.py_buffer(raw[3])])
        out = big.cast(pa.string() if code == 5 else pa.binary())
        if mask is not None:
            import pyarrow.compute as pc
            out = pc.if_else(pa.array(mask), pa.nulls(n, out.type), out)
        return out
    if code == 7:
        vals = _unpack_bits(raw[3], n)
        return pa.array(vals, mask=mask)
    if code == 8:
        flat = np.frombuffer(raw[3], _FIXED[value_code][0])
        return pa.FixedSizeListArray.from_arrays(
            pa.array(flat).cast(_FIXED[value_code][1]), list_size)
    raise TypeError(code)


def write_fragment(table: pa.Table, path: str) -> dict:
    """Write one immutable fragment file; returns {filename, num_rows}.
    Written to a temp name then renamed — a crash leaves no torn file."""
    table = table.combine_chunks()
    pos = 0
    col_metas = []
    chunks = []
    for name in table.column_names:
        col = table[name]
        arr = col.chunk(0) if col.num_chunks else pa.array([], col.type)
        if len(arr.buffers()) and arr.type != table.schema.field(name).type:
            arr = arr.cast(table.schema.field(name).type)
        bufs = _encode_column(arr, table.schema.field(name).type)
        if sum(len(b) for _, b in bufs) > (1 << 31) - 1:
            raise ValueError(f"column chunk {name} exceeds 2 GiB; "
                             "split the block")
        bmeta = b""
        for role, data in bufs:
            bmeta += _len_field(2, _varint_field(1, role)
                                + _varint_field(2, pos)
                                + _varint_field(3, len(data)))
            chunks.append(data)
            pos += len(data)
        mn, mx = _col_stats(col, table.schema.field(name).type)
        meta = (_len_field(1, name.encode()) + bmeta
                + _varint_field(3, arr.null_count))
        if mn:
            meta += _len_field(4, mn) + _len_field(5, mx)
        col_metas.append(_len_field(2, meta))
    filemeta = _varint_field(1, table.num_rows) + b"".join(col_metas)
    with staged(path) as tmp, open(tmp, "wb") as f:
        for c in chunks:
            f.write(c)
        f.write(filemeta)
        f.write(struct.pack("<QQHH", pos, len(filemeta), _MAJOR, _MINOR))
        f.write(_MAGIC)
    return {"filename": os.path.basename(path), "num_rows": table.num_rows}


def _read_filemeta(path: str):
    """(num_rows, [per-column meta dict]) from footer + one small read."""
    with open(path, "rb") as f:
        f.seek(-24, os.SEEK_END)
        meta_off, meta_len, major, minor = struct.unpack("<QQHH", f.read(20))
        if f.read(4) != _MAGIC:
            raise ValueError(f"{path}: not a lance-layout fragment")
        f.seek(meta_off)
        raw = f.read(meta_len)
    num_rows = 0
    cols = []
    for field, wire, val in _fields(raw):
        if field == 1:
            num_rows = val
        elif field == 2:
            cm = {"buffers": [], "null_count": 0, "min": b"", "max": b""}
            for f2, w2, v2 in _fields(val):
                if f2 == 1:
                    cm["name"] = v2.decode()
                elif f2 == 2:
                    b = dict(role=0, offset=0, length=0)
                    for f3, _, v3 in _fields(v2):
                        b[("role", "offset", "length")[f3 - 1]] = v3
                    cm["buffers"].append(b)
                elif f2 == 3:
                    cm["null_count"] = v2
                elif f2 == 4:
                    cm["min"] = v2
                elif f2 == 5:
                    cm["max"] = v2
            cols.append(cm)
    return num_rows, cols


def read_fragment(path: str, schema: pa.Schema,
                  columns: list[str] | None = None,
                  row_range: tuple[int, int] | None = None) -> pa.Table:
    """Projection + ROW-RANGE pushdown fragment read: only the requested
    columns' byte ranges for rows [a, b) leave disk (offsets narrow the
    variable-width data reads; bitmaps read their covering bytes).  This
    is the scan unit for sub-fragment parallelism — a wide fragment
    serves many tasks without any task reading the whole thing."""
    num_rows, cols = _read_filemeta(path)
    a, b = (0, num_rows) if row_range is None else row_range
    b = min(b, num_rows)
    n = max(b - a, 0)
    want = list(columns) if columns is not None else [
        c["name"] for c in cols]
    by_name = {c["name"]: c for c in cols}
    arrays, names = [], []
    with open(path, "rb") as f:

        def _read(off, ln):
            f.seek(off)
            return f.read(ln)

        for name in want:
            cm = by_name[name]
            bufs = {bb["role"]: bb for bb in cm["buffers"]}
            t = schema.field(name).type
            code, list_size, value_code = _type_code(t)
            raw = {}
            mask = None
            if 1 in bufs:       # validity bitmap: covering byte range
                v = bufs[1]
                raw_bits = _read(v["offset"] + a // 8,
                                 (b + 7) // 8 - a // 8)
                bits = np.unpackbits(
                    np.frombuffer(raw_bits, np.uint8),
                    bitorder="little")[a % 8:a % 8 + n]
                mask = ~bits.astype(bool)
                if not mask.any():
                    mask = None
            if code in _FIXED or code == 8:
                it = np.dtype(_FIXED[code if code in _FIXED
                                     else value_code][0]).itemsize
                k = list_size if code == 8 else 1
                raw[3] = _read(bufs[3]["offset"] + a * it * k,
                               n * it * k)
            elif code in (5, 6):
                offs = np.frombuffer(
                    _read(bufs[2]["offset"] + a * 8, (n + 1) * 8),
                    np.int64) if n else np.zeros(1, np.int64)
                raw[2] = (offs - offs[0]).tobytes()
                raw[3] = _read(bufs[3]["offset"] + int(offs[0]),
                               int(offs[-1] - offs[0]))
            elif code == 7:
                raw_bits = _read(bufs[3]["offset"] + a // 8,
                                 (b + 7) // 8 - a // 8)
                bits = np.unpackbits(
                    np.frombuffer(raw_bits, np.uint8),
                    bitorder="little")[a % 8:a % 8 + n]
                arrays.append(pa.array(bits.astype(bool), mask=mask))
                names.append(name)
                continue
            if mask is not None:
                raw[1] = np.packbits(~mask, bitorder="little").tobytes()
            arr = _decode_column(raw, t, n,
                                 int(mask.sum()) if mask is not None
                                 else 0)
            arrays.append(arr)
            names.append(name)
    return pa.table(dict(zip(names, arrays))) if names else \
        pa.table({}).slice(0, 0)


def fragment_stats(path: str) -> dict:
    """{col: (min_bytes, max_bytes, null_count)} without reading data."""
    _, cols = _read_filemeta(path)
    return {c["name"]: (c["min"], c["max"], c["null_count"]) for c in cols}

# --------------------------------------------------------- manifests

def _schema_proto(schema: pa.Schema) -> bytes:
    out = b""
    for f in schema:
        code, list_size, value_code = _type_code(f.type)
        body = (_len_field(1, f.name.encode()) + _varint_field(2, code)
                + _varint_field(3, 1 if f.nullable else 0))
        if code == 8:
            body += _varint_field(4, list_size) + _varint_field(5, value_code)
        out += _len_field(1, body)
    return out


def _write_manifest(root: str, version: int, schema: pa.Schema,
                    fragments: list[dict]):
    body = _schema_proto(schema)
    for i, fr in enumerate(fragments):
        frag = (_varint_field(1, i)
                + _len_field(2, fr["filename"].encode())
                + _varint_field(3, fr["num_rows"]))
        if fr.get("del_file"):
            frag += _len_field(4, fr["del_file"].encode())
        body += _len_field(2, frag)
    body += _varint_field(3, version)
    body += _varint_field(4, sum(fr["num_rows"] for fr in fragments))
    vdir = os.path.join(root, "_versions")
    os.makedirs(vdir, exist_ok=True)
    # manifest commit IS the transaction: both renames are atomic, and
    # the version file lands before _latest so a crash between the two
    # still leaves a readable, listed version
    for final in (os.path.join(vdir, f"{version}.manifest"),
                  os.path.join(root, "_latest.manifest")):
        with staged(final) as tmp, open(tmp, "wb") as f:
            f.write(body)


def lance_manifest(root: str, version: int | None = None) -> dict:
    """{schema, fragments, version, total_rows} for a committed version
    (default: latest)."""
    if version is None:
        path = os.path.join(root, "_latest.manifest")
        if not os.path.exists(path):  # fall back to the highest version
            vdir = os.path.join(root, "_versions")
            vs = sorted(int(p.split(".")[0]) for p in os.listdir(vdir)
                        if p.endswith(".manifest"))
            path = os.path.join(vdir, f"{vs[-1]}.manifest")
    else:
        path = os.path.join(root, "_versions", f"{version}.manifest")
    with open(path, "rb") as f:
        raw = f.read()
    fields, frags, ver, total = [], [], 0, 0
    for field, wire, val in _fields(raw):
        if field == 1:
            d = {"nullable": True, "list_size": 0, "value_code": 0}
            for f2, _, v2 in _fields(val):
                if f2 == 1:
                    d["name"] = v2.decode()
                elif f2 == 2:
                    d["code"] = v2
                elif f2 == 3:
                    d["nullable"] = bool(v2)
                elif f2 == 4:
                    d["list_size"] = v2
                elif f2 == 5:
                    d["value_code"] = v2
            fields.append(d)
        elif field == 2:
            fr = {}
            for f2, _, v2 in _fields(val):
                if f2 == 1:
                    fr["id"] = v2
                elif f2 == 2:
                    fr["filename"] = v2.decode()
                elif f2 == 3:
                    fr["num_rows"] = v2
                elif f2 == 4:
                    fr["del_file"] = v2.decode()
            frags.append(fr)
        elif field == 3:
            ver = val
        elif field == 4:
            total = val
    schema = pa.schema([
        pa.field(d["name"],
                 _arrow_type(d["code"], d["list_size"], d["value_code"]),
                 nullable=d["nullable"]) for d in fields])
    return {"schema": schema, "fragments": frags, "version": ver,
            "total_rows": total}

# -------------------------------------------------------- Ray source

def _narrow_schema(schema: pa.Schema) -> pa.Schema:
    out = []
    for f in schema:
        t = f.type
        if pa.types.is_large_string(t):
            t = pa.string()
        elif pa.types.is_large_binary(t):
            t = pa.binary()
        out.append(pa.field(f.name, t, nullable=f.nullable))
    return pa.schema(out)


def write_lance(ds, root: str, *, mode: str = "create",
                schema: pa.Schema | None = None) -> dict:
    """Ray Dataset | pa.Table → lance-layout dataset.  One fragment per
    input block (task-parallel); the manifest commits LAST, so a killed
    run is invisible and re-runnable (MVCC).  mode="append" adds
    fragments and a new version without touching old ones."""
    data_dir = os.path.join(root, "data")
    os.makedirs(data_dir, exist_ok=True)

    if isinstance(ds, pa.Table):
        t = pa.table({n: ds[n].cast(_narrow_schema(ds.schema)[i].type)
                      for i, n in enumerate(ds.column_names)})
        infos = [write_fragment(
            t, os.path.join(data_dir, f"frag-{uuid.uuid4().hex}.lancef"))]
        out_schema = t.schema
    else:
        if schema is None:
            s = ds.schema()
            schema = getattr(s, "base_schema", s)  # ray Schema → pyarrow
        out_schema = _narrow_schema(schema)
        schema_ser = out_schema.serialize().to_pybytes()

        def sink(batch: pa.Table) -> pa.Table:
            if batch.num_rows == 0:
                return pa.table({"filename": pa.array([], pa.string()),
                                 "num_rows": pa.array([], pa.int64())})
            # row-based upstream ops (filter/map) rebuild blocks with
            # widened types (fixed_size_list → list, f32 → f64); cast
            # every batch back to the committed schema
            tgt = pa.ipc.read_schema(pa.py_buffer(schema_ser))
            batch = pa.table({f.name: batch[f.name].cast(f.type)
                              for f in tgt})
            info = write_fragment(batch, os.path.join(
                data_dir, f"frag-{uuid.uuid4().hex}.lancef"))
            return pa.table({"filename": pa.array([info["filename"]]),
                             "num_rows": pa.array([info["num_rows"]],
                                                  pa.int64())})

        # only (filename, num_rows) rows reach the driver — the data
        # itself streams straight to disk inside the map tasks
        it = ds.map_batches(sink, batch_format="pyarrow",
                            batch_size=None).take_all()
        infos = [{"filename": r["filename"], "num_rows": int(r["num_rows"])}
                 for r in it]

    if mode == "append" and os.path.exists(
            os.path.join(root, "_latest.manifest")):
        prev = lance_manifest(root)
        if prev["schema"].names != out_schema.names:
            raise ValueError("append schema mismatch")
        infos = [{k: fr[k] for k in ("filename", "num_rows", "del_file")
                  if k in fr} for fr in prev["fragments"]] + infos
        version = prev["version"] + 1
    else:
        version = 1
    _write_manifest(root, version, out_schema, infos)
    return {"version": version, "num_fragments": len(infos),
            "total_rows": sum(i["num_rows"] for i in infos)}


def _prune_keep(root: str, frags: list[dict], schema: pa.Schema,
                prune) -> list[dict]:
    """Zone-map pruning: keep fragments whose [min,max] for `col`
    intersects [lo,hi]; fragments without stats are kept (safe)."""
    col, lo, hi = prune
    t = schema.field(col).type
    code, _, _ = _type_code(t)
    keep = []
    for fr in frags:
        st = fragment_stats(os.path.join(root, "data", fr["filename"]))
        mn, mx, _ = st.get(col, (b"", b"", 0))
        if not mn:
            keep.append(fr)
            continue
        if code in _FIXED:
            fmt = "<" + {"i2": "h", "i4": "i", "i8": "q", "u8": "Q",
                         "f4": "f", "f8": "d"}[_FIXED[code][0]]
            fmn, fmx = struct.unpack(fmt, mn)[0], struct.unpack(fmt, mx)[0]
        else:
            fmn, fmx = mn.decode(), mx.decode()
            # string stats are 16-byte PREFIXES: max prefix can sort
            # below the true max, so pad the upper bound conservatively
            fmx = fmx + "￿"
        if not (fmx < lo or fmn > hi):
            keep.append(fr)
    return keep


def _lance_units(frags: list[dict]) -> list[dict]:
    """One unit per fragment: its data file name and tombstone file."""
    return [{"filename": fr["filename"],
             "del_file": fr.get("del_file", "")} for fr in frags]


def _lance_plan(root: str, columns, version, prune):
    """The manifest's fragments after zone-map pruning, as units, and the
    per-fragment decode arguments."""
    man = lance_manifest(root, version)
    frags = man["fragments"]
    if prune is not None:
        frags = _prune_keep(root, frags, man["schema"], prune)
    return _lance_units(frags), dict(root=root, schema=man["schema"],
                                     columns=columns)


def _lance_fragment(unit: dict, *, root, schema, columns=None) -> pa.Table:
    """One fragment's live rows: the data file minus its tombstones."""
    return _apply_deletes(
        read_fragment(os.path.join(root, "data", unit["filename"]), schema,
                      columns), _read_deletes(root, unit))


def read_lance(root: str, *, columns: list[str] | None = None,
               version: int | None = None, prune=None):
    """lance-layout dataset → ray.data.Dataset, one read task per
    fragment (the fragment count is the parallelism, exactly Lance's
    own scan unit).  `prune=(col, lo, hi)` skips fragments by zone
    map before any task is scheduled."""
    import ray

    units, kw = _lance_plan(root, columns, version, prune)
    if not units:
        return ray.data.from_arrow(kw["schema"].empty_table().select(
            columns or kw["schema"].names))
    return read_units(units, _lance_fragment, **kw)


def read_lance_table(root: str, *, columns=None, version=None,
                     prune=None) -> pa.Table:
    """Driver-side read of a (small) lance-layout dataset."""
    units, kw = _lance_plan(root, columns, version, prune)
    if not units:
        return kw["schema"].empty_table().select(
            columns or kw["schema"].names)
    return pa.concat_tables([_lance_fragment(u, **kw) for u in units])


def _read_deletes(root: str, fr: dict) -> np.ndarray:
    """Sorted physical row indices deleted from a fragment (empty when
    no tombstone file).  Tombstones are raw little-endian uint64 —
    self-canonical like the rest of the wire (real lance uses arrow /
    roaring containers; the SEMANTICS — data files immutable, deletes
    as per-fragment sidecars named by the manifest — are the same)."""
    name = fr.get("del_file")
    if not name:
        return np.empty(0, np.uint64)
    with open(os.path.join(root, "data", name), "rb") as f:
        return np.frombuffer(f.read(), "<u8")


def _apply_deletes(t: pa.Table, dels: np.ndarray,
                   row_range=None) -> pa.Table:
    if dels.size == 0:
        return t
    if row_range is not None:
        a, b = row_range
        dels = dels[(dels >= a) & (dels < b)] - a
        if dels.size == 0:
            return t
    keep = np.ones(t.num_rows, dtype=bool)
    keep[dels.astype(np.int64)] = False
    return t.filter(pa.array(keep))


def _lance_delete_fragment(unit: dict, *, root, schema, predicate,
                           columns) -> pa.Table:
    """One fragment's part of a delete: evaluate ``predicate``, merge the
    old tombstones, and write a new tombstone file when rows were added
    (one row: filename, del_file, n_deleted)."""
    data_dir = os.path.join(root, "data")
    t = read_fragment(os.path.join(data_dir, unit["filename"]), schema,
                      columns=columns)
    mask = np.asarray(predicate(t), dtype=bool)
    prev = _read_deletes(root, unit)
    mask[prev.astype(np.int64)] = True             # merge old tombstones
    idx = np.flatnonzero(mask).astype(np.uint64)
    dname = unit["del_file"]
    if idx.size != prev.size:
        dname = f"del-{uuid.uuid4().hex}.bin"
        with staged(os.path.join(data_dir, dname)) as tmp, \
                open(tmp, "wb") as f:
            f.write(idx.astype("<u8").tobytes())
    return pa.table({"filename": [unit["filename"]], "del_file": [dname],
                     "n_deleted": [int(idx.size)]})


def delete_lance(root: str, predicate, *, columns=None) -> dict:
    """Delete rows matching ``predicate`` (callable pa.Table → bool
    numpy mask) WITHOUT rewriting data: each fragment evaluates the
    predicate in its own Ray task and writes/merges a tombstone sidecar
    of physical row indices; a new manifest version names the sidecars.
    Old versions still read the undeleted data (time travel); data
    files never change.  ``columns`` limits what the predicate reads."""
    man = lance_manifest(root)
    rows = read_units(_lance_units(man["fragments"]), _lance_delete_fragment,
                      root=root, schema=man["schema"], predicate=predicate,
                      columns=columns).take_all()
    by_name = {r["filename"]: r for r in rows}
    infos = []
    deleted = 0
    for fr in man["fragments"]:
        r = by_name[fr["filename"]]
        info = {"filename": fr["filename"], "num_rows": fr["num_rows"]}
        if r["del_file"]:
            info["del_file"] = r["del_file"]
            deleted += int(r["n_deleted"])
        infos.append(info)
    _write_manifest(root, man["version"] + 1, man["schema"], infos)
    return {"version": man["version"] + 1, "deleted_rows": deleted}


def _lance_compact_bin(unit: dict, *, root, schema) -> pa.Table:
    """One bin of small fragments → one new fragment (one row: its
    filename and row count)."""
    t = pa.concat_tables([_lance_fragment(fr, root=root, schema=schema)
                          for fr in unit["frags"]])
    info = write_fragment(t, os.path.join(
        root, "data", f"frag-{uuid.uuid4().hex}.lancef"))
    return pa.table({"filename": [info["filename"]],
                     "num_rows": pa.array([info["num_rows"]], pa.int64())})


def compact_lance(root: str, *, target_rows: int = 65536) -> dict:
    """Lance ``optimize/compact_files`` analog: bin-pack fragments
    smaller than ``target_rows`` into new ~target_rows fragments and
    commit a NEW version whose manifest lists the rewritten fragments
    (old versions still read the old files — time travel is preserved;
    nothing is deleted).

    Scale shape: the bin-packing PLAN is driver-side over fragment
    metadata only; each output fragment is rewritten by one Ray task
    that reads only its input fragments.  Fragments already at or above
    ``target_rows`` are carried over untouched."""
    man = lance_manifest(root)
    schema = man["schema"]
    keep, small = [], []
    for fr in man["fragments"]:
        (keep if fr["num_rows"] >= target_rows else small).append(fr)
    if len(small) <= 1:
        return {"version": man["version"], "compacted": 0,
                "num_fragments": len(man["fragments"])}
    bins, cur, cur_rows = [], [], 0
    for fr in small:
        cur.append(fr)
        cur_rows += fr["num_rows"]
        if cur_rows >= target_rows:
            bins.append({"frags": _lance_units(cur)})
            cur, cur_rows = [], 0
    if cur:
        bins.append({"frags": _lance_units(cur)})
    new_infos = [{"filename": r["filename"],
                  "num_rows": int(r["num_rows"])}
                 for r in read_units(bins, _lance_compact_bin, root=root,
                                     schema=schema).take_all()]
    infos = [{k: fr[k] for k in ("filename", "num_rows", "del_file")
              if k in fr} for fr in keep] + new_infos
    _write_manifest(root, man["version"] + 1, schema, infos)
    return {"version": man["version"] + 1,
            "compacted": len(small),
            "num_fragments": len(infos)}
