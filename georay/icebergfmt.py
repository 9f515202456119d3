"""Apache-Iceberg-layout table: parquet data files + Avro manifests +
JSON table metadata, as a Ray Data source/sink.

Completes the engine's open-table-format trio (georay/lancefmt.py =
column-chunked fragments + binary manifests; georay/deltafmt.py = JSON
action log): Iceberg tracks files through a METADATA TREE —

    <root>/
      data/part-<uuid>.parquet            plain parquet data files
      metadata/
        v1.metadata.json                  table metadata, one per commit
        v2.metadata.json ...
        version-hint.text                 latest version number
        snap-<id>.avro                    manifest LIST (one per snapshot)
        manifest-<uuid>.avro              manifest (data-file entries)

Structures per the public Iceberg table spec (format-version 2):

  * table metadata JSON: schemas (struct fields with ids), partition
    specs (identity transforms supported), snapshots (each naming a
    manifest-list file), current-snapshot-id, snapshot-log;
  * manifest list: Avro OCF of manifest_file records (path, length,
    added_snapshot_id, added_files_count, added_rows_count);
  * manifest: Avro OCF of manifest_entry records (status,
    snapshot_id, data_file record: content, file_path, file_format,
    record_count, file_size_in_bytes, lower_bounds/upper_bounds as
    arrays of {key: field id, value: single-value Avro encoding});
  * commit = write vN.metadata.json PUT-IF-ABSENT (hard-link), then
    point version-hint.text at it (the Hadoop-catalog protocol) — a
    killed write leaves the previous version current;
  * append = new snapshot whose manifest list carries the previous
    manifests plus one new one; old snapshots stay readable
    (time travel by snapshot-id);
  * unlike Delta/Hive, identity-partitioned Iceberg tables KEEP the
    partition columns in the data files, so every read path is plain
    `ray.data.read_parquet` over the live file list.

Manifest Avro uses a generic OBJECT-level codec (nested records,
["null", T] unions, arrays of records, maps) built on the varint/OCF
primitives of georay/avrofmt.py — manifests are metadata-sized (rows ∝
file count), so a per-record Python walk is the honest tool there,
while data stays on the vectorized parquet path.

HONESTY (lancefmt/deltafmt framing): no `pyiceberg`/Spark wheel exists
in this offline container, so cross-implementation reads are
untestable HERE; every structure this module emits is named in the
published spec, and reader/writer are pinned against each other plus
structural assertions (field ids, required names) in tests.
Row-level delete files (v2 content 1/2) are honestly gated: manifests
carrying them raise NotImplementedError.

Reference scope: the reference engine reads tabular datasets via
per-format OGR drivers (ogr/ogrsf_frmts/); this driver plays that role
for Iceberg-layout tables on the Ray side.
"""
from __future__ import annotations

import json
import os
import struct
import time
import uuid

import pyarrow as pa
import pyarrow.parquet as pq

from . import wire
from .avrofmt import (_block_body, _block_index, _ocf_block, _ocf_head,
                      _r_bytes, _r_prim, _w_bytes, _w_prim)
from .util import staged

__all__ = [
    "write_iceberg", "read_iceberg", "read_iceberg_table",
    "iceberg_metadata", "iceberg_files", "write_ocf_records",
    "read_ocf_records",
]

# ----------------------------------------------- generic object codec


def _enc_value(out: bytearray, typ, v):
    if isinstance(typ, list):                 # union
        if v is None:
            if "null" not in typ:
                raise ValueError("null for non-nullable union")
            out += wire.svarint(typ.index("null"))
            return
        idx, t = next((i, t) for i, t in enumerate(typ) if t != "null")
        out += wire.svarint(idx)
        _enc_value(out, t, v)
        return
    if isinstance(typ, dict):
        tt = typ["type"]
        if tt == "record":
            for f in typ["fields"]:
                _enc_value(out, f["type"], v.get(f["name"])
                           if v is not None else None)
            return
        if tt == "array":
            if v:
                out += wire.svarint(len(v))
                for x in v:
                    _enc_value(out, typ["items"], x)
            out += wire.svarint(0)
            return
        if tt == "map":
            if v:
                out += wire.svarint(len(v))
                for k, x in v.items():
                    _w_bytes(out, str(k).encode())
                    _enc_value(out, typ["values"], x)
            out += wire.svarint(0)
            return
        typ = tt                              # {"type": "long", ...}
    _w_prim(out, typ, v)


def _dec_value(buf: bytes, pos: int, typ):
    if isinstance(typ, list):
        idx, pos = wire.read_svarint(buf, pos, "avro")
        t = typ[idx]
        if t == "null":
            return None, pos
        return _dec_value(buf, pos, t)
    if isinstance(typ, dict):
        tt = typ["type"]
        if tt == "record":
            rec = {}
            for f in typ["fields"]:
                rec[f["name"]], pos = _dec_value(buf, pos, f["type"])
            return rec, pos
        if tt == "array":
            out = []
            while True:
                cnt, pos = wire.read_svarint(buf, pos, "avro")
                if cnt == 0:
                    break
                if cnt < 0:
                    _sz, pos = wire.read_svarint(buf, pos, "avro")
                    cnt = -cnt
                for _ in range(cnt):
                    v, pos = _dec_value(buf, pos, typ["items"])
                    out.append(v)
            return out, pos
        if tt == "map":
            out = {}
            while True:
                cnt, pos = wire.read_svarint(buf, pos, "avro")
                if cnt == 0:
                    break
                if cnt < 0:
                    _sz, pos = wire.read_svarint(buf, pos, "avro")
                    cnt = -cnt
                for _ in range(cnt):
                    k, pos = _r_bytes(buf, pos)
                    out[k.decode()], pos = _dec_value(buf, pos,
                                                      typ["values"])
            return out, pos
        typ = tt
    return _r_prim(buf, pos, typ)


def write_ocf_records(path: str, schema: dict, records: list[dict],
                      codec: str = "deflate"):
    """Dict records → one Avro OCF against an arbitrary record schema
    (nested records / unions / arrays / maps)."""
    body = bytearray()
    for r in records:
        _enc_value(body, schema, r)
    sync = uuid.uuid5(uuid.NAMESPACE_OID, path).bytes
    with staged(path) as tmp, open(tmp, "wb") as f:
        f.write(_ocf_head(json.dumps(schema), codec, sync))
        if records:
            f.write(_ocf_block(len(records), bytes(body), codec, sync))


def read_ocf_records(path: str) -> list[dict]:
    """Avro OCF → list of dict records (object-level, nested ok)."""
    blocks, schema, codec = _block_index(path)
    out = []
    with open(path, "rb") as f:
        for off, size, nrec in blocks:
            body = _block_body(f, off, size, codec)
            bpos = 0
            for _ in range(nrec):
                rec, bpos = _dec_value(body, bpos, schema)
                out.append(rec)
    return out

# --------------------------------------------------- iceberg schemas

_ICE_FROM_ARROW = [
    (pa.types.is_int64, "long"), (pa.types.is_int32, "int"),
    (pa.types.is_float64, "double"), (pa.types.is_float32, "float"),
    (pa.types.is_string, "string"), (pa.types.is_large_string, "string"),
    (pa.types.is_binary, "binary"), (pa.types.is_large_binary, "binary"),
    (pa.types.is_boolean, "boolean"), (pa.types.is_date32, "date"),
]

_ICE_TO_ARROW = {
    "long": pa.int64(), "int": pa.int32(), "double": pa.float64(),
    "float": pa.float32(), "string": pa.string(), "binary": pa.binary(),
    "boolean": pa.bool_(), "date": pa.date32(),
    "timestamp": pa.timestamp("us"), "timestamptz":
        pa.timestamp("us", "UTC"),
}


def _ice_type(t: pa.DataType) -> str:
    for pred, name in _ICE_FROM_ARROW:
        if pred(t):
            return name
    if pa.types.is_timestamp(t):
        return "timestamptz" if t.tz else "timestamp"
    raise NotImplementedError(f"no iceberg type for arrow {t}")


def _ice_schema(schema: pa.Schema) -> dict:
    return {"type": "struct", "schema-id": 0, "fields": [
        {"id": i + 1, "name": f.name, "required": not f.nullable,
         "type": _ice_type(f.type)} for i, f in enumerate(schema)]}


def _arrow_schema(ice: dict) -> pa.Schema:
    return pa.schema([
        pa.field(f["name"], _ICE_TO_ARROW[f["type"]],
                 not f.get("required", False))
        for f in ice["fields"]])


# manifest_entry Avro schema (spec subset; field-id props included so
# the wire matches the spec's self-describing style)
def _manifest_schema() -> dict:
    data_file = {
        "type": "record", "name": "r2", "fields": [
            {"name": "content", "type": "int", "field-id": 134},
            {"name": "file_path", "type": "string", "field-id": 100},
            {"name": "file_format", "type": "string", "field-id": 101},
            {"name": "record_count", "type": "long", "field-id": 103},
            {"name": "file_size_in_bytes", "type": "long",
             "field-id": 104},
            {"name": "lower_bounds", "type": ["null", {
                "type": "array", "items": {
                    "type": "record", "name": "k126_v127", "fields": [
                        {"name": "key", "type": "int", "field-id": 126},
                        {"name": "value", "type": "bytes",
                         "field-id": 127}]},
                "logicalType": "map"}], "field-id": 125},
            {"name": "upper_bounds", "type": ["null", {
                "type": "array", "items": {
                    "type": "record", "name": "k129_v130", "fields": [
                        {"name": "key", "type": "int", "field-id": 129},
                        {"name": "value", "type": "bytes",
                         "field-id": 130}]},
                "logicalType": "map"}], "field-id": 128},
        ]}
    return {"type": "record", "name": "manifest_entry", "fields": [
        {"name": "status", "type": "int", "field-id": 0},
        {"name": "snapshot_id", "type": ["null", "long"], "field-id": 1},
        {"name": "data_file", "type": data_file, "field-id": 2}]}


def _manifest_list_schema() -> dict:
    return {"type": "record", "name": "manifest_file", "fields": [
        {"name": "manifest_path", "type": "string", "field-id": 500},
        {"name": "manifest_length", "type": "long", "field-id": 501},
        {"name": "partition_spec_id", "type": "int", "field-id": 502},
        {"name": "content", "type": "int", "field-id": 517},
        {"name": "added_snapshot_id", "type": "long", "field-id": 503},
        {"name": "added_files_count", "type": "int", "field-id": 504},
        {"name": "added_rows_count", "type": "long", "field-id": 512}]}

# -------------------------------------------------------------- bounds


def _single_value(v, ice_type: str) -> bytes:
    """Iceberg single-value serialization (spec Appendix D): little-
    endian fixed-width numerics, UTF-8 strings."""
    if ice_type == "long":
        return struct.pack("<q", int(v))
    if ice_type == "int":
        return struct.pack("<i", int(v))
    if ice_type == "double":
        return struct.pack("<d", float(v))
    if ice_type == "float":
        return struct.pack("<f", float(v))
    if ice_type == "string":
        return str(v).encode()
    return b""


def _single_value_back(b: bytes, ice_type: str):
    if ice_type == "long":
        return struct.unpack("<q", b)[0]
    if ice_type == "int":
        return struct.unpack("<i", b)[0]
    if ice_type == "double":
        return struct.unpack("<d", b)[0]
    if ice_type == "float":
        return struct.unpack("<f", b)[0]
    if ice_type == "string":
        return b.decode()
    return None

# --------------------------------------------------------------- write


def _meta_dir(root: str) -> str:
    return os.path.join(root, "metadata")


def _commit_metadata(root: str, version: int, meta: dict):
    mdir = _meta_dir(root)
    os.makedirs(mdir, exist_ok=True)
    tmp = os.path.join(mdir, f".v{version}.tmp-{uuid.uuid4().hex[:8]}")
    with open(tmp, "w") as f:
        json.dump(meta, f)
    final = os.path.join(mdir, f"v{version}.metadata.json")
    try:
        os.link(tmp, final)
    except FileExistsError:
        os.unlink(tmp)
        raise RuntimeError(
            f"concurrent commit: metadata v{version} exists")
    os.unlink(tmp)
    hint = os.path.join(mdir, "version-hint.text")
    with staged(hint) as tmp, open(tmp, "w") as f:
        f.write(str(version))


def _write_data_files(ds, root: str, schema_ser: bytes | None):
    """Ray Dataset | pa.Table → data/part-*.parquet inside map tasks;
    returns [(rel_path, rows, size, mins, maxs)] driver-side."""
    ddir = os.path.join(root, "data")
    os.makedirs(ddir, exist_ok=True)

    def one(t: pa.Table) -> dict:
        import pyarrow.compute as pc
        rel = f"data/part-{uuid.uuid4().hex}.parquet"
        pq.write_table(t, os.path.join(root, rel), compression="snappy")
        mins, maxs = {}, {}
        for i, f in enumerate(t.schema):
            if (pa.types.is_integer(f.type) or pa.types.is_floating(
                    f.type) or pa.types.is_string(f.type)) \
                    and t.num_rows > t[f.name].null_count:
                mins[i + 1] = pc.min(t[f.name]).as_py()
                maxs[i + 1] = pc.max(t[f.name]).as_py()
        return {"path": rel, "rows": t.num_rows,
                "size": os.path.getsize(os.path.join(root, rel)),
                "mins": json.dumps(mins, default=str),
                "maxs": json.dumps(maxs, default=str)}

    if isinstance(ds, pa.Table):
        return [one(ds)]

    def sink(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table({"path": pa.array([], pa.string()),
                             "rows": pa.array([], pa.int64()),
                             "size": pa.array([], pa.int64()),
                             "mins": pa.array([], pa.string()),
                             "maxs": pa.array([], pa.string())})
        tgt = pa.ipc.read_schema(pa.py_buffer(schema_ser))
        batch = pa.table({f.name: batch[f.name].cast(f.type)
                          for f in tgt})
        info = one(batch)
        return pa.table({k: pa.array([v]) for k, v in info.items()})

    rows = ds.map_batches(sink, batch_format="pyarrow",
                          batch_size=None).take_all()
    return rows


def write_iceberg(ds, root: str, *, mode: str = "create",
                  schema: pa.Schema | None = None) -> dict:
    """Ray Dataset | pa.Table → Iceberg-layout table (format-version 2,
    unpartitioned spec).  One parquet data file per input block written
    inside the map tasks; Avro manifest + manifest list + the JSON
    metadata commit land LAST (metadata put-if-absent, then
    version-hint), so a killed run leaves the previous version current.

    mode: "create" | "append" | "overwrite" (new snapshot referencing
    no previous manifests)."""
    os.makedirs(root, exist_ok=True)
    hint = os.path.join(_meta_dir(root), "version-hint.text")
    exists = os.path.exists(hint)
    if mode == "create" and exists:
        raise ValueError(f"iceberg table already exists at {root}")
    if mode in ("append", "overwrite") and not exists:
        mode = "create"

    if isinstance(ds, pa.Table):
        out_schema = ds.schema
        files = _write_data_files(ds, root, None)
    else:
        if schema is None:
            s = ds.schema()
            schema = getattr(s, "base_schema", s)
        out_schema = schema
        files = _write_data_files(
            ds, root, schema.serialize().to_pybytes())

    ice_schema = _ice_schema(out_schema)
    ftypes = {i + 1: f["type"]
              for i, f in enumerate(ice_schema["fields"])}
    snapshot_id = int(uuid.uuid4().int % (1 << 62))
    now_ms = int(time.time() * 1000)

    entries = []
    total_rows = 0
    for f in files:
        mins = json.loads(f["mins"])
        maxs = json.loads(f["maxs"])
        lb = [{"key": int(k), "value": _single_value(v, ftypes[int(k)])}
              for k, v in mins.items()]
        ub = [{"key": int(k), "value": _single_value(v, ftypes[int(k)])}
              for k, v in maxs.items()]
        total_rows += int(f["rows"])
        entries.append({
            "status": 1, "snapshot_id": snapshot_id,
            "data_file": {
                "content": 0, "file_path": f["path"],
                "file_format": "PARQUET",
                "record_count": int(f["rows"]),
                "file_size_in_bytes": int(f["size"]),
                "lower_bounds": lb or None,
                "upper_bounds": ub or None}})
    mdir = _meta_dir(root)
    os.makedirs(mdir, exist_ok=True)
    man_rel = f"metadata/manifest-{uuid.uuid4().hex}.avro"
    write_ocf_records(os.path.join(root, man_rel), _manifest_schema(),
                      entries)
    man_len = os.path.getsize(os.path.join(root, man_rel))

    manifests = [{"manifest_path": man_rel, "manifest_length": man_len,
                  "partition_spec_id": 0, "content": 0,
                  "added_snapshot_id": snapshot_id,
                  "added_files_count": len(entries),
                  "added_rows_count": total_rows}]
    if mode == "create":
        version = 1
        meta = {
            "format-version": 2, "table-uuid": str(uuid.uuid4()),
            "location": root, "last-sequence-number": 1,
            "last-updated-ms": now_ms,
            "last-column-id": len(ice_schema["fields"]),
            "schemas": [ice_schema], "current-schema-id": 0,
            "partition-specs": [{"spec-id": 0, "fields": []}],
            "default-spec-id": 0, "last-partition-id": 999,
            "sort-orders": [{"order-id": 0, "fields": []}],
            "default-sort-order-id": 0,
            "snapshots": [], "snapshot-log": [],
        }
    else:
        prev = iceberg_metadata(root)
        meta = prev["meta"]
        version = prev["version"] + 1
        if _arrow_schema(meta["schemas"][0]).names != \
                list(out_schema.names):
            raise ValueError("append schema mismatch")
        meta["last-sequence-number"] += 1
        meta["last-updated-ms"] = now_ms
        if mode == "append":
            cur = next((s for s in meta["snapshots"]
                        if s["snapshot-id"]
                        == meta.get("current-snapshot-id")), None)
            if cur is not None:
                manifests = read_ocf_records(
                    os.path.join(root, cur["manifest-list"])) + manifests
    ml_rel = f"metadata/snap-{snapshot_id}.avro"
    write_ocf_records(os.path.join(root, ml_rel),
                      _manifest_list_schema(), manifests)
    snap = {"snapshot-id": snapshot_id,
            "sequence-number": meta["last-sequence-number"],
            "timestamp-ms": now_ms, "manifest-list": ml_rel,
            "summary": {"operation":
                        "append" if mode != "overwrite" else "overwrite"}}
    meta["snapshots"] = meta.get("snapshots", []) + [snap]
    meta["current-snapshot-id"] = snapshot_id
    meta["snapshot-log"] = meta.get("snapshot-log", []) + [
        {"timestamp-ms": now_ms, "snapshot-id": snapshot_id}]
    _commit_metadata(root, version, meta)
    return {"version": version, "snapshot_id": snapshot_id,
            "num_files": len(entries), "total_rows": total_rows}

# ---------------------------------------------------------------- read


def iceberg_metadata(root: str, version: int | None = None) -> dict:
    mdir = _meta_dir(root)
    if version is None:
        with open(os.path.join(mdir, "version-hint.text")) as f:
            version = int(f.read().strip())
    with open(os.path.join(mdir, f"v{version}.metadata.json")) as f:
        return {"version": version, "meta": json.load(f)}


def iceberg_files(root: str, *, snapshot_id: int | None = None,
                  prune=None) -> dict:
    """Snapshot → {schema, files: [data_file dicts]} by walking the
    manifest-list + manifest Avro (metadata-sized).  ``prune=(col, lo,
    hi)`` drops files whose [lower, upper] bounds miss the range."""
    md = iceberg_metadata(root)["meta"]
    sid = snapshot_id if snapshot_id is not None \
        else md.get("current-snapshot-id")
    snap = next((s for s in md.get("snapshots", [])
                 if s["snapshot-id"] == sid), None)
    _csid = md.get("current-schema-id", 0)
    ice = next((s for s in md["schemas"]
                if s.get("schema-id") == _csid), None)
    if ice is None:
        raise ValueError(
            f"iceberg metadata inconsistent: current-schema-id {_csid} "
            "matches no entry in 'schemas'")
    schema = _arrow_schema(ice)
    if snap is None:
        return {"schema": schema, "files": []}
    files = []
    for mf in read_ocf_records(os.path.join(root, snap["manifest-list"])):
        if mf.get("content", 0) != 0:
            raise NotImplementedError(
                "iceberg delete manifests (v2 row-level deletes)")
        for e in read_ocf_records(
                os.path.join(root, mf["manifest_path"])):
            if e["status"] == 2:     # deleted entry
                continue
            df = e["data_file"]
            if df.get("content", 0) != 0:
                raise NotImplementedError("iceberg delete files")
            files.append(df)
    if prune is not None:
        col, lo, hi = prune
        fid = next(i + 1 for i, f in enumerate(ice["fields"])
                   if f["name"] == col)
        ftype = ice["fields"][fid - 1]["type"]

        def keep(df):
            lbs = {d["key"]: d["value"]
                   for d in (df.get("lower_bounds") or [])}
            ubs = {d["key"]: d["value"]
                   for d in (df.get("upper_bounds") or [])}
            if fid not in lbs or fid not in ubs:
                return True
            mn = _single_value_back(lbs[fid], ftype)
            mx = _single_value_back(ubs[fid], ftype)
            return not (mx < lo or mn > hi)

        files = [f for f in files if keep(f)]
    return {"schema": schema, "files": files}


def _iceberg_plan(root: str, columns, snapshot_id, prune):
    """The snapshot's live data file paths and the typed empty table of
    the columns read."""
    snap = iceberg_files(root, snapshot_id=snapshot_id, prune=prune)
    schema = snap["schema"]
    return ([os.path.join(root, f["file_path"]) for f in snap["files"]],
            schema.empty_table().select(columns or schema.names))


def read_iceberg(root: str, *, columns=None, snapshot_id=None,
                 prune=None):
    """Iceberg-layout table → ray.data.Dataset via native read_parquet
    over the snapshot's live file list (identity-partitioned tables
    keep partition columns IN the data files, so no re-injection
    path is needed — the spec's design)."""
    import ray

    paths, empty = _iceberg_plan(root, columns, snapshot_id, prune)
    if not paths:
        return ray.data.from_arrow(empty)
    kwargs = {}
    if columns is not None:
        kwargs["columns"] = columns
    return ray.data.read_parquet(paths, **kwargs)


def read_iceberg_table(root: str, *, columns=None, snapshot_id=None,
                       prune=None) -> pa.Table:
    """Driver-side read of a (small) Iceberg-layout table."""
    paths, empty = _iceberg_plan(root, columns, snapshot_id, prune)
    if not paths:
        return empty
    return pa.concat_tables([pq.read_table(p, columns=columns)
                             for p in paths])
