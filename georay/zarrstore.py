"""Zarr v2 array store — the chunked-N-D-array driver family of the
reference (frmts/zarr/, and the GDAL multidim model gcore/gdalmultidim.cpp
it feeds), from the public Zarr v2 spec.

Layout (spec): an array is a directory with a ``.zarray`` JSON document
(shape, chunks, dtype in numpy typestr form, compressor, fill_value,
C order) + one file per chunk named ``i.j.k`` (C-order chunk indices
joined by '.').  Chunks are ALWAYS the full chunk shape; edge chunks are
padded with ``fill_value``.  Compressors supported here: ``zlib``, raw
(null), and ``blosc`` with zlib or lz4 inner streams + byte shuffle —
the Blosc1 container and the LZ4 block codec are implemented from
scratch off their public specs in :mod:`georay.blosc` (bit-shuffle and
blosclz/zstd/snappy inner codecs raise loudly).

Ray mapping: a chunk is the natural unit of parallelism — the source
emits one row per chunk (indices + bytes, decoded in one task each),
the sink writes one chunk file per row with atomic rename (same
resumable-sink contract as the z/x/y tile writer), so a 100 TB array
streams chunk-by-chunk through the object store with no full-array
materialization anywhere.
"""

from __future__ import annotations

import json
import os
import zlib

import numpy as np
import pyarrow as pa

from .util import read_units, staged

__all__ = ["zarr_create", "zarr_write_chunk", "zarr_read_chunk",
           "zarr_read_window", "zarr_read", "zarr_meta",
           "zarr_chunk_grid", "dataset_to_zarr", "zarr_to_dataset"]


def _compressor_meta(compressor, level: int):
    """Normalize the compressor argument into .zarray metadata: None,
    ``"zlib"``, ``"blosc"`` (zlib inner, byte shuffle — the fast
    default), or a full numcodecs-style dict."""
    if compressor is None:
        return None
    if isinstance(compressor, dict):
        return dict(compressor)
    if compressor == "zlib":
        return {"id": "zlib", "level": int(level)}
    if compressor == "blosc":
        return {"id": "blosc", "cname": "zlib", "clevel": int(level),
                "shuffle": 1, "blocksize": 0}
    raise ValueError(f"unknown compressor {compressor!r}")


def zarr_create(path: str, shape, chunks, dtype, *, compressor="zlib",
                level: int = 1, fill_value=0, attrs: dict | None = None):
    """Write the ``.zarray`` metadata document (spec v2)."""
    os.makedirs(path, exist_ok=True)
    dt = np.dtype(dtype)
    meta = {
        "zarr_format": 2,
        "shape": [int(s) for s in shape],
        "chunks": [int(c) for c in chunks],
        "dtype": dt.str,
        "compressor": _compressor_meta(compressor, level),
        "fill_value": (fill_value if not isinstance(fill_value, np.generic)
                       else fill_value.item()),
        "order": "C",
        "filters": None,
    }
    with open(os.path.join(path, ".zarray"), "w") as f:
        json.dump(meta, f)
    if attrs:
        with open(os.path.join(path, ".zattrs"), "w") as f:
            json.dump(attrs, f)
    return meta


def zarr_meta(path: str) -> dict:
    with open(os.path.join(path, ".zarray")) as f:
        meta = json.load(f)
    if meta.get("zarr_format") != 2:
        raise ValueError("not a Zarr v2 array")
    if meta.get("order", "C") != "C":
        raise NotImplementedError("only C order supported")
    comp = meta.get("compressor")
    if comp is not None and comp.get("id") not in ("zlib", "blosc"):
        raise NotImplementedError(f"compressor {comp.get('id')!r} "
                                  "not available (no native libs)")
    return meta


def _chunk_name(idx) -> str:
    return ".".join(str(int(i)) for i in idx)


def _encode(arr: np.ndarray, meta: dict) -> bytes:
    raw = np.ascontiguousarray(arr).tobytes()
    comp = meta["compressor"]
    if comp is None:
        return raw
    if comp["id"] == "zlib":
        return zlib.compress(raw, comp.get("level", 1))
    from . import blosc
    return blosc.blosc_encode(
        raw, np.dtype(meta["dtype"]).itemsize,
        cname=comp.get("cname", "zlib"), clevel=comp.get("clevel", 5),
        shuffle=comp.get("shuffle", 1),
        blocksize=comp.get("blocksize", 0) or 0)


def _decode(buf: bytes, meta: dict) -> np.ndarray:
    comp = meta["compressor"]
    if comp is not None:
        if comp["id"] == "zlib":
            buf = zlib.decompress(buf)
        else:
            from . import blosc
            buf = blosc.blosc_decode(buf)
    return np.frombuffer(buf, dtype=np.dtype(meta["dtype"])).reshape(
        meta["chunks"]).copy()


def zarr_write_chunk(path: str, idx, arr: np.ndarray,
                     meta: dict | None = None):
    """Write one chunk (padded to full chunk shape with fill_value) —
    atomic rename so a re-run can skip complete chunks."""
    meta = meta or zarr_meta(path)
    cs = meta["chunks"]
    arr = np.asarray(arr, dtype=np.dtype(meta["dtype"]))
    if list(arr.shape) != cs:
        full = np.full(cs, meta["fill_value"], dtype=arr.dtype)
        full[tuple(slice(0, s) for s in arr.shape)] = arr
        arr = full
    name = os.path.join(path, _chunk_name(idx))
    with staged(name) as tmp, open(tmp, "wb") as f:
        f.write(_encode(arr, meta))


def zarr_read_chunk(path: str, idx, meta: dict | None = None) -> np.ndarray:
    """One chunk, full chunk shape (missing chunk → fill_value, as the
    spec prescribes for unwritten chunks)."""
    meta = meta or zarr_meta(path)
    name = os.path.join(path, _chunk_name(idx))
    if not os.path.exists(name):
        return np.full(meta["chunks"], meta["fill_value"],
                       dtype=np.dtype(meta["dtype"]))
    with open(name, "rb") as f:
        return _decode(f.read(), meta)


def zarr_chunk_grid(meta: dict) -> list:
    """All chunk indices of the array (C order)."""
    counts = [(s + c - 1) // c for s, c in zip(meta["shape"],
                                               meta["chunks"])]
    grid = np.indices(counts).reshape(len(counts), -1).T
    return [tuple(int(v) for v in row) for row in grid]


def zarr_read_window(path: str, slices) -> np.ndarray:
    """Windowed read (the RasterIO analog): assembles ONLY the chunks the
    window touches."""
    meta = zarr_meta(path)
    shape = meta["shape"]
    cs = meta["chunks"]
    lo = [s.start or 0 for s in slices]
    hi = [s.stop if s.stop is not None else shape[d]
          for d, s in enumerate(slices)]
    out = np.empty([h - l for l, h in zip(lo, hi)],
                   dtype=np.dtype(meta["dtype"]))
    c_lo = [l // c for l, c in zip(lo, cs)]
    c_hi = [(h - 1) // c + 1 for h, c in zip(hi, cs)]
    ranges = [range(a, b) for a, b in zip(c_lo, c_hi)]
    idxs = np.stack(np.meshgrid(*ranges, indexing="ij"),
                    axis=-1).reshape(-1, len(cs))
    for idx in idxs:
        chunk = zarr_read_chunk(path, idx, meta)
        src, dst = [], []
        for d in range(len(cs)):
            a = idx[d] * cs[d]
            s0 = max(lo[d], a)
            s1 = min(hi[d], a + cs[d], shape[d])
            src.append(slice(s0 - a, s1 - a))
            dst.append(slice(s0 - lo[d], s1 - lo[d]))
        out[tuple(dst)] = chunk[tuple(src)]
    return out


def zarr_read(path: str) -> np.ndarray:
    meta = zarr_meta(path)
    return zarr_read_window(path, tuple(slice(0, s) for s in meta["shape"]))


# ---------------------------------------------------------------------------
# Ray source / sink
# ---------------------------------------------------------------------------

def _zarr_chunk_row(unit: dict, *, path: str, flatten_2d: bool) -> pa.Table:
    """One chunk as one row, trimmed of its edge padding."""
    m = zarr_meta(path)
    cs, shape = m["chunks"], m["shape"]
    idx = unit["idx"]
    chunk = zarr_read_chunk(path, idx, m)[tuple(
        slice(0, min(c, s - i * c)) for i, c, s in zip(idx, cs, shape))]
    out = {f"c{d}": pa.array([i], pa.int64()) for d, i in enumerate(idx)}
    if flatten_2d and len(idx) == 2:
        out["h"] = pa.array([chunk.shape[0]], pa.int32())
        out["w"] = pa.array([chunk.shape[1]], pa.int32())
    out["data"] = pa.array([np.ascontiguousarray(chunk).tobytes()],
                           pa.binary())
    return pa.table(out)


def zarr_to_dataset(path: str, *, flatten_2d: bool = True):
    """Ray source: one task and one row per chunk — ``(chunk indices…, h,
    w, data)`` with data as raw little-endian bytes of the (trimmed)
    chunk.  Chunk files decode inside the tasks; the driver only lists
    names."""
    return read_units([{"idx": list(g)}
                       for g in zarr_chunk_grid(zarr_meta(path))],
                      _zarr_chunk_row, path=path, flatten_2d=flatten_2d)


def dataset_to_zarr(ds, path: str, shape, chunks, dtype, *,
                    compressor="zlib", fill_value=0, resume: bool = True):
    """Ray sink for a 2-D array: rows ``(c0, c1, h, w, data)`` → chunk
    files, one write per row inside map_batches (atomic rename; with
    ``resume`` complete chunks are skipped — the checkpoint contract).
    Returns the manifest Dataset (c0, c1, path, written)."""
    meta = zarr_create(path, shape, chunks, dtype, compressor=compressor,
                       fill_value=fill_value)

    def write(batch: pa.Table) -> pa.Table:
        c0 = batch["c0"].to_numpy()
        c1 = batch["c1"].to_numpy()
        hs = batch["h"].to_numpy()
        ws = batch["w"].to_numpy()
        datas = batch["data"].to_pylist()
        out_p, out_w = [], []
        dt = np.dtype(meta["dtype"])
        for i in range(batch.num_rows):
            name = os.path.join(path, _chunk_name((c0[i], c1[i])))
            if resume and os.path.exists(name):
                out_p.append(name)
                out_w.append(False)
                continue
            arr = np.frombuffer(datas[i], dtype=dt).reshape(
                int(hs[i]), int(ws[i]))
            zarr_write_chunk(path, (c0[i], c1[i]), arr, meta)
            out_p.append(name)
            out_w.append(True)
        return pa.table({"c0": batch["c0"], "c1": batch["c1"],
                         "path": pa.array(out_p),
                         "written": pa.array(out_w)})

    return ds.map_batches(write, batch_format="pyarrow")
