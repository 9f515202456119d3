"""ogrinfo / gdalinfo summaries (apps/ogrinfo_lib.cpp,
apps/gdalinfo_lib.cpp): layer/raster metadata reports as plain dicts.

Distributed where it matters: ``layer_info`` over a Ray Dataset
computes feature count, per-geometry-type counts and the layer extent
with ONE map_batches partial per block (a 5-number bbox + type
histogram row) and a driver-side fold — the 100 TB shape; nothing but
the partials ever leaves the workers."""
from __future__ import annotations

import numpy as np
import pyarrow as pa

__all__ = ["layer_info", "raster_info"]

def _batch_partial(batch: pa.Table, wkb_col: str) -> pa.Table:
    from .geom import WKB_TYPE_NAMES, wkb_envelope, wkb_type
    n = batch.num_rows
    ext = [np.inf, np.inf, -np.inf, -np.inf]
    counts: dict[str, int] = {}
    col = batch[wkb_col] if wkb_col in batch.column_names else None
    if col is not None:
        for i in range(n):
            b = col[i].as_py()
            if b is None:
                counts["NULL"] = counts.get("NULL", 0) + 1
                continue
            name = WKB_TYPE_NAMES[wkb_type(b)[0]].upper()
            counts[name] = counts.get(name, 0) + 1
            x0, y0, x1, y1 = wkb_envelope(b)
            ext[0] = min(ext[0], x0)
            ext[1] = min(ext[1], y0)
            ext[2] = max(ext[2], x1)
            ext[3] = max(ext[3], y1)
    import json
    return pa.table({
        "n": pa.array([n], pa.int64()),
        "ext": pa.array([ext], pa.list_(pa.float64(), 4)),
        "types": pa.array([json.dumps(counts)]),
    })


def layer_info(ds_or_table, wkb_col: str = "wkb") -> dict:
    """ogrinfo -so analog: {feature_count, fields: {name: type},
    extent: (minx, miny, maxx, maxy) | None, geometry_types: {name: n}}."""
    import json

    if isinstance(ds_or_table, pa.Table):
        schema = ds_or_table.schema
        rows = _batch_partial(ds_or_table, wkb_col).to_pylist()
    else:
        s = ds_or_table.schema()
        schema = getattr(s, "base_schema", s)
        rows = ds_or_table.map_batches(
            lambda b: _batch_partial(b, wkb_col),
            batch_format="pyarrow", batch_size=None).take_all()
    count = sum(r["n"] for r in rows)
    ext = [np.inf, np.inf, -np.inf, -np.inf]
    types: dict[str, int] = {}
    for r in rows:
        e = r["ext"]
        ext = [min(ext[0], e[0]), min(ext[1], e[1]),
               max(ext[2], e[2]), max(ext[3], e[3])]
        for k, v in json.loads(r["types"]).items():
            types[k] = types.get(k, 0) + v
    has_ext = ext[0] <= ext[2]
    return {
        "feature_count": int(count),
        "fields": {f.name: str(f.type) for f in schema
                   if f.name != wkb_col},
        "extent": tuple(float(v) for v in ext) if has_ext else None,
        "geometry_types": types,
    }


def raster_info(arr: np.ndarray, gt=None, *, nodata=None) -> dict:
    """gdalinfo analog over an in-memory band stack: size, band count,
    dtype, geotransform + corner coordinates, per-band
    min/max/mean/std (nodata-masked)."""
    a = arr if arr.ndim == 3 else arr[:, :, None]
    h, w, nb = a.shape
    out = {
        "size": (w, h),
        "bands": nb,
        "dtype": str(a.dtype),
        "geotransform": tuple(float(v) for v in gt) if gt else None,
    }
    if gt is not None:
        def corner(px, py):
            return (gt[0] + px * gt[1] + py * gt[2],
                    gt[3] + px * gt[4] + py * gt[5])
        out["corners"] = {
            "upper_left": corner(0, 0), "lower_left": corner(0, h),
            "upper_right": corner(w, 0), "lower_right": corner(w, h),
            "center": corner(w / 2, h / 2),
        }
    stats = []
    for b in range(nb):
        band = a[:, :, b].astype(np.float64)
        if nodata is not None:
            band = band[a[:, :, b] != nodata]
        if band.size == 0:
            stats.append(None)
            continue
        stats.append({"min": float(band.min()), "max": float(band.max()),
                      "mean": float(band.mean()),
                      "std": float(band.std())})
    out["band_stats"] = stats
    if nodata is not None:
        out["nodata"] = nodata
    return out
