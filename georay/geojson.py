"""GeoJSON vector driver — the ogr/ogrsf_frmts/geojson surface (RFC 7946)
re-expressed for the engine's WKB-column table model.

* ``geometry_to_wkb`` / ``wkb_to_geometry``: GeoJSON geometry object ⇄
  WKB (Point/LineString/Polygon/Multi*/GeometryCollection; read through
  ``geom.read_wkb``, written little-endian; extra ordinates dropped to
  2-D like the rest of the engine).
* ``feature_collection_to_table``: FeatureCollection → Arrow table with a
  ``wkb`` binary column + one column per property (union of keys, nulls
  where absent) — OGR's field-schema unification.
* ``read_geojson``: path → ``ray.data.Dataset`` (driver-side parse; a
  GeoJSON file is one JSON document so it cannot be split — the small
  polygon-side format.  Parquet remains the scale source).
* ``table_to_feature_collection`` / ``write_geojson``: the writer.
"""

from __future__ import annotations

import json
import struct

import numpy as np
import pyarrow as pa

from .geom import read_wkb
from .util import list_parts, write_parts

__all__ = [
    "geometry_to_wkb", "wkb_to_geometry", "feature_collection_to_table",
    "table_to_feature_collection", "read_geojson", "write_geojson",
]

_GJ_TYPES = {"Point": 1, "LineString": 2, "Polygon": 3, "MultiPoint": 4,
             "MultiLineString": 5, "MultiPolygon": 6,
             "GeometryCollection": 7}
_GJ_NAMES = {v: k for k, v in _GJ_TYPES.items()}


def _pts(coords) -> np.ndarray:
    a = np.asarray(coords, dtype=np.float64)
    if a.ndim == 1:
        a = a[None, :]
    return a[:, :2]


def geometry_to_wkb(geom: dict) -> bytes:
    t = _GJ_TYPES.get(geom.get("type"))
    if t is None:
        raise ValueError(f"unsupported GeoJSON type {geom.get('type')!r}")
    if t == 7:
        parts = [geometry_to_wkb(g) for g in geom["geometries"]]
        return struct.pack("<BII", 1, 7, len(parts)) + b"".join(parts)
    c = geom["coordinates"]
    if t == 1:
        p = _pts(c)[0]
        return struct.pack("<BIdd", 1, 1, p[0], p[1])
    if t == 2:
        p = _pts(c)
        return struct.pack("<BII", 1, 2, len(p)) + p.astype("<f8").tobytes()
    if t == 3:
        out = [struct.pack("<BII", 1, 3, len(c))]
        for ring in c:
            r = _pts(ring)
            out.append(struct.pack("<I", len(r)))
            out.append(r.astype("<f8").tobytes())
        return b"".join(out)
    if t == 4:
        parts = [struct.pack("<BIdd", 1, 1, *(_pts(p)[0])) for p in c]
    elif t == 5:
        parts = []
        for line in c:
            p = _pts(line)
            parts.append(struct.pack("<BII", 1, 2, len(p))
                         + p.astype("<f8").tobytes())
    else:  # t == 6
        parts = []
        for poly in c:
            out = [struct.pack("<BII", 1, 3, len(poly))]
            for ring in poly:
                r = _pts(ring)
                out.append(struct.pack("<I", len(r)))
                out.append(r.astype("<f8").tobytes())
            parts.append(b"".join(out))
    return struct.pack("<BII", 1, t, len(parts)) + b"".join(parts)


def _geometry(node) -> dict:
    t, _, data = node
    if t == 1:
        return {"type": "Point", "coordinates": data[0, :2].tolist()}
    if t in (2, 8):
        return {"type": "LineString", "coordinates": data[:, :2].tolist()}
    if t == 3:
        return {"type": "Polygon",
                "coordinates": [r[:, :2].tolist() for r in data]}
    if t not in _GJ_NAMES:
        raise ValueError(f"unsupported WKB type {t}")
    members = [_geometry(m) for m in data]
    if t == 7:
        return {"type": "GeometryCollection", "geometries": members}
    return {"type": _GJ_NAMES[t],
            "coordinates": [m["coordinates"] for m in members]}


def wkb_to_geometry(buf: bytes) -> dict:
    return _geometry(read_wkb(buf))


def feature_collection_to_table(fc: dict) -> pa.Table:
    """FeatureCollection → Arrow table (wkb + unified property columns)."""
    feats = fc["features"] if isinstance(fc, dict) \
        and fc.get("type") == "FeatureCollection" else fc
    keys: list = []
    for f in feats:
        for k in (f.get("properties") or {}):
            if k not in keys:
                keys.append(k)
    cols = {"wkb": [None if f.get("geometry") is None
                    else geometry_to_wkb(f["geometry"]) for f in feats]}
    for k in keys:
        cols[k] = [(f.get("properties") or {}).get(k) for f in feats]
    return pa.table({"wkb": pa.array(cols["wkb"], pa.binary()),
                     **{k: pa.array(cols[k]) for k in keys}})


def table_to_feature_collection(t: pa.Table,
                                wkb_col: str = "wkb") -> dict:
    props = [c for c in t.schema.names if c != wkb_col]
    feats = []
    for i in range(t.num_rows):
        w = t[wkb_col][i].as_py()
        feats.append({
            "type": "Feature",
            "geometry": None if w is None else wkb_to_geometry(w),
            "properties": {k: t[k][i].as_py() for k in props},
        })
    return {"type": "FeatureCollection", "features": feats}


def read_geojson(path: str):
    """GeoJSON file → ``ray.data.Dataset`` (one JSON document: parsed
    driver-side, then ``from_arrow`` — suitable for broadcast-side
    layers; use parquet for the large side)."""
    import ray
    with open(path) as f:
        fc = json.load(f)
    return ray.data.from_arrow(feature_collection_to_table(fc))


def write_geojson(ds_or_table, path: str, wkb_col: str = "wkb") -> str:
    """Dataset/table → GeoJSON FeatureCollection file (single document —
    collected; meant for small outputs like dissolved/aggregated layers)."""
    t = ds_or_table
    if not isinstance(t, pa.Table):
        t = pa.concat_tables(list(
            t.iter_batches(batch_size=65536, batch_format="pyarrow")))
    with open(path, "w") as f:
        json.dump(table_to_feature_collection(t, wkb_col), f)
    return path


# ---------------------------------------------------------------- seq

def _features_to_lines(t: pa.Table, wkb_col: str) -> str:
    props = [c for c in t.schema.names if c != wkb_col]
    out = []
    for i in range(t.num_rows):
        w = t[wkb_col][i].as_py()
        out.append(json.dumps({
            "type": "Feature",
            "geometry": None if w is None else wkb_to_geometry(w),
            "properties": {k: t[k][i].as_py() for k in props},
        }, separators=(",", ":")))
    return "\n".join(out) + ("\n" if out else "")


def write_geojsonseq(ds_or_table, path: str, wkb_col: str = "wkb") -> str:
    """Newline-delimited GeoJSON (GeoJSONSeq / .geojsonl — reference
    driver ogr/ogrsf_frmts/geojson/ogrgeojsonseqdriver.cpp).  A Dataset
    appends ONE FILE PER BLOCK under ``path``/part-*.geojsonl
    (task-parallel, atomic rename; a retried task rewrites its own files
    — see ``util.write_parts``); a table writes a single file at
    ``path``."""
    def encode(t: pa.Table, p: str) -> None:
        with open(p, "w") as f:
            f.write(_features_to_lines(t, wkb_col))

    return write_parts(ds_or_table, path, "geojsonl", encode)


def _parse_lines(raw: bytes) -> pa.Table:
    feats = [json.loads(ln) for ln in raw.split(b"\n") if ln.strip()]
    return feature_collection_to_table(feats)


def read_geojsonseq(path: str, *, target_bytes: int = 64 << 20):
    """GeoJSONSeq → ``ray.data.Dataset``.  A directory reads one task
    per file; a single file is split into ~``target_bytes`` byte ranges
    ALIGNED AT NEWLINES inside each task (read [start, stop+overrun),
    drop everything before the first newline unless at 0 — the standard
    distributed text-split contract), so one huge .geojsonl still scans
    in parallel."""
    import os

    import ray

    if os.path.isdir(path):
        files = list_parts(path, (".geojsonl", ".geojson", ".jsonl"))
        src = ray.data.from_items(
            [{"path": p, "start": -1, "stop": -1} for p in files],
            override_num_blocks=max(1, len(files)))
    else:
        size = os.path.getsize(path)
        cuts = list(range(0, max(size, 1), target_bytes)) + [size]
        src = ray.data.from_items(
            [{"path": path, "start": a, "stop": b}
             for a, b in zip(cuts[:-1], cuts[1:]) if b > a],
            override_num_blocks=max(1, len(cuts) - 1))

    def load(batch: pa.Table) -> pa.Table:
        outs = []
        for i in range(batch.num_rows):
            p = batch["path"][i].as_py()
            a = int(batch["start"][i].as_py())
            b = int(batch["stop"][i].as_py())
            with open(p, "rb") as f:
                if a < 0:                       # whole file
                    raw = f.read()
                elif a == 0:
                    raw = f.read(b)
                    if raw and not raw.endswith(b"\n"):
                        raw += f.readline()
                else:
                    # a line belongs to this range iff it STARTS in
                    # [a, b): peek at byte a-1 — if it is a newline the
                    # line at ``a`` is complete and ours; otherwise we
                    # are mid-line and skip to the first newline
                    f.seek(a - 1)
                    raw = f.read(b - a + 1)
                    prev, raw = raw[:1], raw[1:]
                    if prev != b"\n":
                        cut = raw.find(b"\n")
                        raw = b"" if cut < 0 else raw[cut + 1:]
                    # the line spanning ``b`` is ours too (it started
                    # inside) — extend to its newline
                    if raw and not raw.endswith(b"\n"):
                        raw += f.readline()
            if raw.strip():
                outs.append(_parse_lines(raw))
        if not outs:
            return pa.table({"wkb": pa.array([], pa.binary())})
        return pa.concat_tables(outs, promote_options="default")

    return src.map_batches(load, batch_format="pyarrow", batch_size=1)
