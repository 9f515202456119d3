"""OGROpen analog: identify the vector driver from extension + magic
sniff and return a ``ray.data.Dataset`` (ogr/ogrsf_frmts/generic/
ogrsfdriverregistrar.cpp Open dispatch).

Formats: Shapefile, FlatGeobuf, GeoPackage, MBTiles, GeoJSON,
GeoJSONSeq, OGR CSV, GPX, KML, GML, OSM PBF, Arrow IPC/Feather,
Parquet, lance-layout datasets."""
from __future__ import annotations

import os

from .util import staged

__all__ = ["open_vector", "write_vector", "attach_geoparquet_metadata",
           "geoparquet_metadata"]


def open_vector(path: str, **kw):
    """→ ray.data.Dataset of features (wkb + attribute columns, or the
    format's native rows).  ``kw`` passes through to the driver
    (e.g. ``bbox=`` for fgb/gpkg, ``table=`` for gpkg,
    ``kind=`` for osm.pbf)."""
    import ray

    low = path.lower()
    if os.path.isdir(path):
        if os.path.exists(os.path.join(path, "_latest.manifest")):
            from .lancefmt import read_lance
            return read_lance(path, **kw)
        if any(p.endswith(".parquet") for p in os.listdir(path)):
            return ray.data.read_parquet(path, **kw)
        if any(p.endswith((".geojsonl", ".jsonl"))
               for p in os.listdir(path)):
            from .geojson import read_geojsonseq
            return read_geojsonseq(path, **kw)
        if any(p.endswith((".arrow", ".feather"))
               for p in os.listdir(path)):
            from .arrowipc import read_arrow_ipc
            return read_arrow_ipc(path, **kw)
        raise ValueError(f"open_vector: no driver identifies dir {path!r}")
    if low.endswith(".shp"):
        from .shapefile import read_shapefile
        return read_shapefile(path[:-4], **kw).to_dataset()
    if low.endswith(".osm.pbf"):
        from .osmpbf import read_osm_pbf
        return read_osm_pbf(path, **kw)
    if low.endswith((".geojsonl", ".jsonl", ".ndjson")):
        from .geojson import read_geojsonseq
        return read_geojsonseq(path, **kw)
    if low.endswith((".geojson", ".json")):
        from .geojson import read_geojson
        return read_geojson(path, **kw)
    if low.endswith(".csv"):
        from .csvdriver import read_csv_vector
        return ray.data.from_arrow(read_csv_vector(path, **kw))
    if low.endswith(".gpx"):
        from .xmldrivers import read_gpx_files
        return read_gpx_files([path], **kw)
    if low.endswith(".kml"):
        from .xmldrivers import read_kml
        return ray.data.from_arrow(read_kml(path, **kw))
    if low.endswith(".gml"):
        from .xmldrivers import read_gml
        return ray.data.from_arrow(read_gml(path, **kw))
    if low.endswith(".dxf"):
        from .dxf import read_dxf
        return ray.data.from_arrow(read_dxf(path, **kw))
    if low.endswith(".mif"):
        from .mif import read_mif
        return ray.data.from_arrow(read_mif(path, **kw))
    if low.endswith(".parquet"):
        return ray.data.read_parquet(path, **kw)
    if low.endswith((".arrow", ".feather", ".ipc")):
        from .arrowipc import read_arrow_ipc
        return read_arrow_ipc(path, **kw)
    # magic sniffs for extensionless/unusual names
    with open(path, "rb") as f:
        head = f.read(16)
    if head[:8] == b"fgb\x03fgb\x00":
        from .flatgeobuf import read_fgb
        with open(path, "rb") as f:
            return ray.data.from_arrow(read_fgb(f.read(), **kw))
    if head[:16] == b"SQLite format 3\x00":
        with open(path, "rb") as f:
            data = f.read()
        from .gpkg import read_gpkg, read_mbtiles
        if low.endswith(".mbtiles"):
            return ray.data.from_arrow(read_mbtiles(data, **kw))
        return ray.data.from_arrow(read_gpkg(data, **kw))
    if low.endswith(".fgb"):
        from .flatgeobuf import read_fgb
        with open(path, "rb") as f:
            return ray.data.from_arrow(read_fgb(f.read(), **kw))
    raise ValueError(f"open_vector: no driver identifies {path!r}")


def write_vector(ds_or_table, path: str, *, layer: str = "layer",
                 wkb_col: str = "wkb"):
    """OGR-style sink dispatch by destination extension — the ogr2ogr
    ``-f``/output half of GDALOpen/OGROpen: Parquet, GeoJSON(+Seq),
    Shapefile, GeoPackage, FlatGeobuf, CSV, DXF, MIF, KML, Arrow IPC.
    Accepts a pyarrow Table or a Dataset (collected — single-FILE
    formats are one-writer units; the partitioned sinks
    write_*_partitioned remain the scale path)."""
    import pyarrow as pa

    t = ds_or_table
    if not isinstance(t, pa.Table):
        t = pa.concat_tables(list(
            t.iter_batches(batch_size=65536, batch_format="pyarrow")))
    low = path.lower()
    if low.endswith(".parquet"):
        import pyarrow.parquet as pq
        if wkb_col in t.schema.names:
            t = attach_geoparquet_metadata(t, wkb_col)
        pq.write_table(t, path)
    elif low.endswith((".geojsonl", ".ndjson", ".jsonl")):
        from .geojson import write_geojsonseq
        write_geojsonseq(t, path, wkb_col)
    elif low.endswith((".geojson", ".json")):
        from .geojson import write_geojson
        write_geojson(t, path, wkb_col)
    elif low.endswith(".shp"):
        from .shapefile import write_shapefile
        write_shapefile(t, path[:-4], wkb_col)
    elif low.endswith(".gpkg"):
        from .gpkg import write_gpkg
        write_gpkg(t, path, layer=layer, geom_col=wkb_col)
    elif low.endswith(".fgb"):
        from .flatgeobuf import write_fgb
        with staged(path) as tmp, open(tmp, "wb") as f:
            f.write(write_fgb(t, wkb_col, name=layer))
    elif low.endswith(".csv"):
        from .csvdriver import write_csv_vector
        write_csv_vector(t, path, geom_col=wkb_col)
    elif low.endswith(".dxf"):
        from .dxf import write_dxf
        write_dxf(t, path, wkb_col)
    elif low.endswith(".mif"):
        from .mif import write_mif
        write_mif(t, path, wkb_col)
    elif low.endswith(".kml"):
        from .xmldrivers import write_kml
        write_kml(t, path, wkb_col)
    elif low.endswith((".arrow", ".feather", ".ipc")):
        import pyarrow.feather as feather
        feather.write_feather(t, path)
    else:
        raise ValueError(f"write_vector: no driver for {path!r}")
    return path


# ------------------------------------------------------------ GeoParquet

def attach_geoparquet_metadata(t, wkb_col: str = "wkb"):
    """Stamp the GeoParquet 1.1 ``geo`` key onto a table's schema
    metadata (version / primary_column / per-column encoding +
    geometry_types + bbox) — what the reference's Parquet driver writes
    and looks for on open (ogr/ogrsf_frmts/parquet/ogrparquetlayer.cpp:87
    reads kv_metadata["geo"]).  CRS omitted = OGC:CRS84 per spec."""
    import json

    from .geom import (WKB_TYPE_NAMES, wkb_envelope, wkb_has_z,
                       wkb_header_type)

    types = set()
    bbox = [float("inf"), float("inf"), float("-inf"), float("-inf")]
    any_geom = False
    for buf in t.column(wkb_col).to_pylist():
        if buf is None:
            continue
        # GeoParquet names Z only: an M ordinate is dropped from the name
        types.add(WKB_TYPE_NAMES[wkb_header_type(buf)[0]]
                  + (" Z" if wkb_has_z(buf) else ""))
        x0, y0, x1, y1 = wkb_envelope(buf)
        if x0 != x0:                       # empty geometry: no extent
            continue
        any_geom = True
        bbox = [min(bbox[0], x0), min(bbox[1], y0),
                max(bbox[2], x1), max(bbox[3], y1)]
    col_meta = {"encoding": "WKB",
                "geometry_types": sorted(types)}
    if any_geom:
        col_meta["bbox"] = bbox
    geo = {"version": "1.1.0", "primary_column": wkb_col,
           "columns": {wkb_col: col_meta}}
    md = dict(t.schema.metadata or {})
    md[b"geo"] = json.dumps(geo).encode()
    return t.replace_schema_metadata(md)


def geoparquet_metadata(path: str):
    """Read back the ``geo`` schema metadata of a (Geo)Parquet file →
    dict, or None when absent (plain parquet)."""
    import json

    import pyarrow.parquet as pq

    md = pq.read_schema(path).metadata or {}
    raw = md.get(b"geo")
    return json.loads(raw.decode()) if raw else None


def add_bbox_covering(batch, wkb_col: str = "wkb"):
    """Append the GeoParquet 1.1 *covering* struct column ``bbox``
    (xmin/ymin/xmax/ymax float64 per row).  Written next to WKB, the
    parquet column statistics of its leaf fields give readers ROW-GROUP
    pruning for spatial windows — the format's scale-read design
    (GeoParquet spec §covering; the reference reads it in
    ogr/ogrsf_frmts/parquet).  Pure function for ``map_batches``."""
    import pyarrow as pa

    from .geom import wkb_envelope

    n = batch.num_rows
    import numpy as np
    x0 = np.full(n, np.nan)
    y0 = np.full(n, np.nan)
    x1 = np.full(n, np.nan)
    y1 = np.full(n, np.nan)
    for i, w in enumerate(batch.column(wkb_col).to_pylist()):
        if w is not None:
            x0[i], y0[i], x1[i], y1[i] = wkb_envelope(w)
    bbox = pa.StructArray.from_arrays(
        [pa.array(x0), pa.array(y0), pa.array(x1), pa.array(y1)],
        names=["xmin", "ymin", "xmax", "ymax"])
    return batch.append_column("bbox", bbox)


def write_geoparquet(t, path: str, wkb_col: str = "wkb",
                     row_group_size: int = 4096):
    """Table → GeoParquet with the covering bbox column + full ``geo``
    metadata (covering pointer included).  Sort spatially (e.g. the
    engine's Hilbert order, queries.hilbert_sort) BEFORE writing so
    row groups are spatially coherent and the bbox statistics actually
    prune."""
    import json

    import pyarrow.parquet as pq

    if "bbox" not in t.schema.names:
        t = add_bbox_covering(t, wkb_col)
    t = attach_geoparquet_metadata(t, wkb_col)
    md = dict(t.schema.metadata)
    geo = json.loads(md[b"geo"])
    geo["columns"][wkb_col]["covering"] = {
        "bbox": {"xmin": ["bbox", "xmin"], "ymin": ["bbox", "ymin"],
                 "xmax": ["bbox", "xmax"], "ymax": ["bbox", "ymax"]}}
    md[b"geo"] = json.dumps(geo).encode()
    t = t.replace_schema_metadata(md)
    pq.write_table(t, path, row_group_size=row_group_size)
    return path


def read_geoparquet(path, bbox=None, columns=None, **kw):
    """Ray source for (Geo)Parquet with spatial-window pushdown: a
    ``bbox=(xmin, ymin, xmax, ymax)`` becomes a pyarrow dataset filter
    on the covering struct's leaf fields, so parquet ROW GROUPS whose
    bbox statistics miss the window never leave storage (prune at the
    read — the 100 TB rule).  Exact: the row-group filter is also the
    per-row predicate (envelope-intersects)."""
    import pyarrow.compute as pc
    import ray

    if bbox is None:
        return ray.data.read_parquet(path, columns=columns, **kw)
    x0, y0, x1, y1 = (float(v) for v in bbox)
    expr = ((pc.field("bbox", "xmin") <= x1)
            & (pc.field("bbox", "xmax") >= x0)
            & (pc.field("bbox", "ymin") <= y1)
            & (pc.field("bbox", "ymax") >= y0))
    return ray.data.read_parquet(path, columns=columns, filter=expr, **kw)
