"""NetCDF-3 classic reader/writer — from scratch off the public CDF
format spec (the reference reads netCDF through libnetcdf in
frmts/netcdf/; that library is unavailable here, but the CLASSIC
on-disk format — CDF-1 magic ``CDF\\x01`` and the 64-bit-offset CDF-2
``CDF\\x02`` — is a simple self-describing big-endian layout:
header(dim_list, gatt_list, var_list) + data, record variables
interleaved per record).

Engine integration: :func:`netcdf_to_zarr` converts one variable into
the Zarr chunk store DISTRIBUTED (header parsed once driver-side; Ray
tasks read only their record ranges worker-locally and write chunks),
after which the full MDArray surface (views, strided slicing,
distributed statistics, mdim_translate) applies.  NetCDF-4/HDF5 files
are rejected loudly (need libhdf5)."""

from __future__ import annotations

import struct

import numpy as np
import pyarrow as pa

from .util import read_units

__all__ = ["nc_meta", "nc_read_var", "nc_write", "netcdf_to_zarr",
           "read_netcdf_dataset"]

_NC_TYPES = {1: ("|i1", 1), 2: ("S1", 1), 3: (">i2", 2),
             4: (">i4", 4), 5: (">f4", 4), 6: (">f8", 8),
             # CDF-5 additions (64-bit data format)
             7: ("|u1", 1), 8: (">u2", 2), 9: (">u4", 4),
             10: (">i8", 8), 11: (">u8", 8)}
_DTYPE_TO_NC = {"int8": 1, "S1": 2, "int16": 3, "int32": 4,
                "float32": 5, "float64": 6,
                # CDF-5-only types
                "uint8": 7, "uint16": 8, "uint32": 9,
                "int64": 10, "uint64": 11}

_ABSENT = (0, 0)
_NC_DIMENSION, _NC_VARIABLE, _NC_ATTRIBUTE = 0x0A, 0x0B, 0x0C


def _pad4(n: int) -> int:
    return (n + 3) & ~3


class _Reader:
    def __init__(self, buf, version: int = 1):
        self.buf = memoryview(buf)
        self.pos = 0
        # CDF-5: every NON_NEG widens to INT64 (tags/nc_type stay i4)
        self.nn = self.i8 if version == 5 else self.i4

    def i4(self) -> int:
        v = struct.unpack_from(">i", self.buf, self.pos)[0]
        self.pos += 4
        return v

    def i8(self) -> int:
        v = struct.unpack_from(">q", self.buf, self.pos)[0]
        self.pos += 8
        return v

    def name(self) -> str:
        n = self.nn()
        s = bytes(self.buf[self.pos:self.pos + n]).decode()
        self.pos += _pad4(n)
        return s

    def values(self, nc_type: int, n: int):
        dt, size = _NC_TYPES[nc_type]
        raw = bytes(self.buf[self.pos:self.pos + n * size])
        self.pos += _pad4(n * size)
        if nc_type == 2:
            return raw.decode(errors="replace")
        return np.frombuffer(raw, dtype=dt).copy()

    def att_list(self) -> dict:
        tag, cnt = self.i4(), self.nn()
        if (tag, cnt) == _ABSENT:
            return {}
        if tag != _NC_ATTRIBUTE:
            raise ValueError("bad attribute list tag")
        out = {}
        for _ in range(cnt):
            nm = self.name()
            t = self.i4()
            n = self.nn()
            out[nm] = self.values(t, n)
        return out


def nc_meta(data: bytes) -> dict:
    """Parse the classic header → dims / global attrs / variables."""
    if data[:3] != b"CDF":
        if data[:8] == b"\x89HDF\r\n\x1a\n" or data[:4] == b"\x0e\x03\x13\x01":
            raise NotImplementedError(
                "NetCDF-4 (HDF5-based) needs libhdf5 — classic CDF-1/2 "
                "only")
        raise ValueError("not a NetCDF classic file")
    version = data[3]
    if version not in (1, 2, 5):
        raise NotImplementedError(f"CDF version {version} unsupported "
                                  "(classic CDF-1/2 and CDF-5 covered)")
    r = _Reader(data, version)
    r.pos = 4
    numrecs = r.nn()
    dims = []
    tag, cnt = r.i4(), r.nn()
    if (tag, cnt) != _ABSENT:
        if tag != _NC_DIMENSION:
            raise ValueError("bad dim list tag")
        for _ in range(cnt):
            nm = r.name()
            dims.append((nm, r.nn()))
    gatts = r.att_list()
    variables = {}
    tag, cnt = r.i4(), r.nn()
    if (tag, cnt) != _ABSENT:
        if tag != _NC_VARIABLE:
            raise ValueError("bad var list tag")
        for _ in range(cnt):
            nm = r.name()
            nd = r.nn()
            dimids = [r.nn() for _ in range(nd)]
            atts = r.att_list()
            nc_type = r.i4()
            vsize = r.nn()
            begin = r.i4() if version == 1 else r.i8()
            is_record = bool(dimids) and dims[dimids[0]][1] == 0
            shape = tuple(dims[d][1] for d in dimids)
            variables[nm] = dict(dimids=dimids, atts=atts,
                                 nc_type=nc_type, vsize=vsize,
                                 begin=begin, shape=shape,
                                 record=is_record)
    rec_vars = [v for v in variables.values() if v["record"]]
    recsize = sum(v["vsize"] for v in rec_vars)
    if len(rec_vars) == 1:
        # special case: a single record var packs records WITHOUT padding
        v = rec_vars[0]
        dt, size = _NC_TYPES[v["nc_type"]]
        per_rec = size * int(np.prod([d for d in v["shape"][1:]],
                                     dtype=np.int64) or 1)
        recsize = per_rec
    return dict(version=version, numrecs=numrecs, dims=dims,
                gatts=gatts, vars=variables, recsize=recsize)


def nc_read_var(data: bytes, name: str, *, meta: dict | None = None,
                rec0: int = 0, rec1: int | None = None) -> np.ndarray:
    """One variable → numpy array (native byte order).  For record
    variables ``rec0:rec1`` selects a record range (the distributed
    read unit)."""
    meta = meta or nc_meta(data)
    v = meta["vars"][name]
    dt, size = _NC_TYPES[v["nc_type"]]
    if not v["record"]:
        n = int(np.prod(v["shape"], dtype=np.int64)) if v["shape"] else 1
        arr = np.frombuffer(data, dtype=dt, count=n, offset=v["begin"])
        out = arr.reshape(v["shape"]) if v["shape"] else arr[0]
        return np.ascontiguousarray(out).astype(arr.dtype.newbyteorder("="))
    nrec = meta["numrecs"]
    rec1 = nrec if rec1 is None else min(rec1, nrec)
    per_rec_shape = v["shape"][1:]
    per_rec_n = int(np.prod(per_rec_shape, dtype=np.int64)) \
        if per_rec_shape else 1
    out = np.empty((rec1 - rec0, per_rec_n), dtype=np.dtype(dt))
    for k, rec in enumerate(range(rec0, rec1)):
        off = v["begin"] + rec * meta["recsize"]
        out[k] = np.frombuffer(data, dtype=dt, count=per_rec_n,
                               offset=off)
    out = out.reshape((rec1 - rec0,) + per_rec_shape)
    return out.astype(out.dtype.newbyteorder("="))


# ---------------------------------------------------------------------------
# Writer (classic CDF-1): enough to produce spec-conformant fixtures and
# round-trip engine outputs; one record dim supported like the format.
# ---------------------------------------------------------------------------

def _nn_fmt(version: int) -> str:
    return ">q" if version == 5 else ">i"


def _wname(parts: list, s: str, version: int = 1):
    b = s.encode()
    parts.append(struct.pack(_nn_fmt(version), len(b)))
    parts.append(b + b"\x00" * (_pad4(len(b)) - len(b)))


def _watts(parts: list, atts: dict, version: int = 1):
    nn = _nn_fmt(version)
    if not atts:
        parts.append(struct.pack(">i", 0))
        parts.append(struct.pack(nn, 0))
        return
    parts.append(struct.pack(">i", _NC_ATTRIBUTE))
    parts.append(struct.pack(nn, len(atts)))
    for k, v in atts.items():
        _wname(parts, k, version)
        if isinstance(v, str):
            b = v.encode()
            parts.append(struct.pack(">i", 2))
            parts.append(struct.pack(nn, len(b)))
            parts.append(b + b"\x00" * (_pad4(len(b)) - len(b)))
        else:
            arr = np.asarray(v)
            nc_type = _DTYPE_TO_NC[arr.dtype.name]
            dt, size = _NC_TYPES[nc_type]
            raw = arr.astype(dt).tobytes()
            parts.append(struct.pack(">i", nc_type))
            parts.append(struct.pack(nn, arr.size))
            parts.append(raw + b"\x00" * (_pad4(len(raw)) - len(raw)))


def nc_write(dims: list, variables: dict, gatts: dict | None = None,
             version: int = 1) -> bytes:
    """``dims``: [(name, length)] with length 0 = the record dimension;
    ``variables``: {name: (dim_names, np.ndarray)} — record vars carry
    the record dim first and their array's axis-0 length sets numrecs.
    ``version`` 1 → classic CDF-1; 5 → CDF-5 (every NON_NEG widens to
    INT64 and the 64-bit integer/unsigned types become writable; no
    independent producer offline, so CDF-5 byte parity is pinned by the
    spec tables + roundtrips — the lance/icosa honesty framing)."""
    dim_index = {n: i for i, (n, _) in enumerate(dims)}
    numrecs = 0
    for name, (dnames, arr) in variables.items():
        if dnames and dims[dim_index[dnames[0]]][1] == 0:
            numrecs = max(numrecs, arr.shape[0])

    if version not in (1, 5):
        raise NotImplementedError("nc_write emits CDF-1 or CDF-5")
    nn = _nn_fmt(version)

    # header
    parts = [b"CDF" + bytes([version]), struct.pack(nn, numrecs)]
    if dims:
        parts.append(struct.pack(">i", _NC_DIMENSION))
        parts.append(struct.pack(nn, len(dims)))
        for n, ln in dims:
            _wname(parts, n, version)
            parts.append(struct.pack(nn, ln))
    else:
        parts.append(struct.pack(">i", 0))
        parts.append(struct.pack(nn, 0))
    _watts(parts, gatts or {}, version)

    # variable metadata (begin backpatched after sizing)
    order = list(variables.items())
    metas = []
    if order:
        parts.append(struct.pack(">i", _NC_VARIABLE))
        parts.append(struct.pack(nn, len(order)))
    else:
        parts.append(struct.pack(">i", 0))
        parts.append(struct.pack(nn, 0))
    for name, (dnames, arr) in order:
        _wname(parts, name, version)
        dimids = [dim_index[d] for d in dnames]
        parts.append(struct.pack(nn, len(dimids)))
        for d in dimids:
            parts.append(struct.pack(nn, d))
        _watts(parts, {}, version)
        nc_type = _DTYPE_TO_NC[arr.dtype.name if arr.dtype.kind != "S"
                               else "S1"]
        if nc_type >= 7 and version != 5:
            raise ValueError(f"{arr.dtype} needs CDF-5 (version=5)")
        dt, size = _NC_TYPES[nc_type]
        record = bool(dimids) and dims[dimids[0]][1] == 0
        per = int(np.prod(arr.shape[1:] if record else arr.shape,
                          dtype=np.int64) or 1)
        vsize = _pad4(per * size)
        parts.append(struct.pack(">i", nc_type))
        parts.append(struct.pack(nn, vsize))
        metas.append(dict(name=name, arr=arr, nc_type=nc_type,
                          record=record, per=per, size=size,
                          vsize=vsize, begin_at=len(parts)))
        parts.append(struct.pack(nn, 0))  # begin placeholder

    header_len = sum(len(p) for p in parts)
    # data layout: fixed vars first, then the record block
    begin = header_len
    for m in metas:
        if m["record"]:
            continue
        m["begin"] = begin
        begin += m["vsize"]
    rec_metas = [m for m in metas if m["record"]]
    recsize = sum(m["vsize"] for m in rec_metas)
    if len(rec_metas) == 1:
        recsize = rec_metas[0]["per"] * rec_metas[0]["size"]
    for m in rec_metas:
        m["begin"] = begin
        begin += m["vsize"] if len(rec_metas) > 1 else recsize
    for m in metas:
        parts[m["begin_at"]] = struct.pack(nn, m["begin"])

    # data
    body = bytearray()
    for m in metas:
        if m["record"]:
            continue
        raw = np.ascontiguousarray(
            m["arr"]).astype(_NC_TYPES[m["nc_type"]][0]).tobytes()
        body += raw + b"\x00" * (m["vsize"] - len(raw))
    for rec in range(numrecs):
        for m in rec_metas:
            raw = np.ascontiguousarray(
                m["arr"][rec]).astype(_NC_TYPES[m["nc_type"]][0]).tobytes()
            pad = (m["vsize"] if len(rec_metas) > 1
                   else m["per"] * m["size"]) - len(raw)
            body += raw + b"\x00" * pad
    return b"".join(parts) + bytes(body)


# ---------------------------------------------------------------------------
# Ray integration
# ---------------------------------------------------------------------------

def _nc_slab(unit: dict, *, var: str) -> pa.Table:
    """One unit's slab of ``var`` (its record range, or the whole fixed
    variable when ``rec0`` < 0) as one row."""
    with open(unit["path"], "rb") as f:
        data = f.read()
    r0 = unit["rec0"]
    if r0 < 0:
        arr, r0 = nc_read_var(data, var), 0
    else:
        arr = nc_read_var(data, var, rec0=r0, rec1=unit["rec1"])
    return pa.table({
        "path": pa.array([unit["path"]], pa.string()),
        "rec0": pa.array([r0], pa.int64()),
        "shape": pa.array([list(arr.shape)], pa.list_(pa.int64())),
        "data": pa.array([np.ascontiguousarray(arr).tobytes()], pa.binary()),
    })


def read_netcdf_dataset(paths, var: str):
    """Ray source: one task per (file, record range) unit — a record
    variable splits into about ``os.cpu_count()`` ranges of the driver,
    a fixed variable is one unit per file — each reading its slab
    locally and emitting one row ``(path, rec0, shape, data)``."""
    import os

    if isinstance(paths, str):
        paths = [paths]
    units = []
    for p in paths:
        with open(p, "rb") as f:
            head = f.read(64 * 1024)
        meta = nc_meta(head)
        if meta["vars"][var]["record"]:
            n = meta["numrecs"]
            step = max(1, n // max(1, os.cpu_count() or 8))
            units += [{"path": p, "rec0": r0, "rec1": min(n, r0 + step)}
                      for r0 in range(0, n, step)]
        else:
            units.append({"path": p, "rec0": -1, "rec1": -1})
    return read_units(units, _nc_slab, var=var)


def netcdf_to_zarr(nc_path: str, zarr_path: str, var: str,
                   chunks=None) -> str:
    """Distributed netCDF → Zarr conversion of one variable: the header
    parses once driver-side; Ray tasks read record slabs worker-locally
    and write record-aligned chunks — after which the whole MDArray
    surface (strided views, distributed stats, mdim_translate) applies."""
    from .zarrstore import zarr_create, zarr_write_chunk

    with open(nc_path, "rb") as f:
        head = f.read(64 * 1024)
    meta = nc_meta(head)
    v = meta["vars"][var]
    shape = ((meta["numrecs"],) + v["shape"][1:]) if v["record"] \
        else v["shape"]
    dt = np.dtype(_NC_TYPES[v["nc_type"]][0]).newbyteorder("=")
    if chunks is None:
        chunks = (max(1, min(shape[0], 64)),) + tuple(shape[1:])
    zmeta = zarr_create(zarr_path, shape, chunks, dt.str)
    if tuple(chunks[1:]) != tuple(shape[1:]):
        raise NotImplementedError(
            "chunking within non-record dims: convert record-aligned "
            "first, then mdim_translate re-chunks distributed")

    n0 = shape[0]
    c0 = chunks[0]
    nc_dt, nc_size = _NC_TYPES[v["nc_type"]]
    per_rec = int(np.prod(shape[1:], dtype=np.int64) or 1)
    rec_bytes = per_rec * nc_size
    is_rec = v["record"]
    begin, recsize = v["begin"], meta["recsize"]

    def chunk_to_zarr(unit: dict) -> pa.Table:
        # targeted byte-range reads — a task touches ONLY its slab
        c = unit["c"]
        r0 = c * c0
        r1 = min(n0, r0 + c0)
        with open(nc_path, "rb") as f:
            if is_rec and recsize != rec_bytes:
                # interleaved record block: one seek per record
                bufs = []
                for rec in range(r0, r1):
                    f.seek(begin + rec * recsize)
                    bufs.append(f.read(rec_bytes))
                raw = b"".join(bufs)
            else:
                # single record var / fixed var: rows are contiguous
                f.seek(begin + r0 * rec_bytes)
                raw = f.read((r1 - r0) * rec_bytes)
        arr = np.frombuffer(raw, dtype=nc_dt).reshape(
            (r1 - r0,) + tuple(shape[1:]))
        zarr_write_chunk(zarr_path, (c,) + (0,) * (len(shape) - 1),
                         arr.astype(dt), zmeta)
        return pa.table({"c": pa.array([c], pa.int64())})

    read_units([{"c": c} for c in range((n0 + c0 - 1) // c0)],
               chunk_to_zarr).materialize()
    return zarr_path
