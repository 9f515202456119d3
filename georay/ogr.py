"""Vector-translate pipeline — the ogr2ogr / `gdal vector pipeline
read ! step ! write` surface (apps/ogr2ogr_lib.cpp §3.2;
apps/gdalalg_vector_pipeline.cpp:104-155 RunStep) as composable Ray Data
steps.

Each step appends a lazy transform to the Dataset; running the pipeline is
just consuming it.  Step order follows ogr2ogr's geometry-op chain
(ogr2ogr_lib.cpp:65-67): filter → select/rename → spatial filter →
reproject → write.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from .util import read_units

__all__ = ["VectorPipeline"]


class VectorPipeline:
    """Composable ogr2ogr-style pipeline over a lon/lat point table.

    >>> (VectorPipeline.read_parquet(path)
    ...    .where("pop > 1000")
    ...    .select({"name": "city", "pop": "population"})
    ...    .clip_bbox(-10, 35, 30, 60)
    ...    .reproject_to_mercator()
    ...    .write_parquet(out))
    """

    def __init__(self, ds):
        self.ds = ds

    @classmethod
    def read_parquet(cls, path: str, columns=None) -> "VectorPipeline":
        import ray
        return cls(ray.data.read_parquet(path, columns=columns))

    @classmethod
    def from_dataset(cls, ds) -> "VectorPipeline":
        return cls(ds)

    def where(self, clause: str) -> "VectorPipeline":
        """SetAttributeFilter analog (SWQ WHERE → vectorized)."""
        from .expr import attribute_filter
        return VectorPipeline(attribute_filter(self.ds, clause))

    def select(self, mapping) -> "VectorPipeline":
        """-select / -fieldmap: subset + rename.  ``mapping`` = list of
        column names or {src: dst} rename dict."""
        if isinstance(mapping, dict):
            def proj(batch: pa.Table) -> pa.Table:
                return pa.table({dst: batch[src]
                                 for src, dst in mapping.items()})
            return VectorPipeline(
                self.ds.map_batches(proj, batch_format="pyarrow"))
        return VectorPipeline(self.ds.select_columns(list(mapping)))

    def clip_bbox(self, minx, miny, maxx, maxy,
                  lon_col="lon", lat_col="lat") -> "VectorPipeline":
        """-clipsrc rectangle (spatial filter pushdown)."""
        import pyarrow.compute as pc

        def clip(batch: pa.Table) -> pa.Table:
            lon = batch[lon_col]
            lat = batch[lat_col]
            m = pc.and_(
                pc.and_(pc.greater_equal(lon, pa.scalar(float(minx))),
                        pc.less_equal(lon, pa.scalar(float(maxx)))),
                pc.and_(pc.greater_equal(lat, pa.scalar(float(miny))),
                        pc.less_equal(lat, pa.scalar(float(maxy)))))
            return batch.filter(m)
        return VectorPipeline(self.ds.map_batches(clip, batch_format="pyarrow"))

    def clip_polygons(self, polygons: pa.Table,
                      lon_col="lon", lat_col="lat") -> "VectorPipeline":
        """Keep rows inside any polygon (semi-join via broadcast R-tree)."""
        import ray
        from .join import PolygonIndex

        ref = ray.put(PolygonIndex.build(polygons, payload_cols=()))

        def clip(batch: pa.Table) -> pa.Table:
            idx = ray.get(ref)
            lon = batch[lon_col].to_numpy()
            lat = batch[lat_col].to_numpy()
            qi, _ = idx.match_points(lon, lat)
            keep = np.zeros(batch.num_rows, dtype=bool)
            keep[np.unique(qi)] = True
            return batch.filter(pa.array(keep))
        return VectorPipeline(self.ds.map_batches(clip, batch_format="pyarrow"))

    def reproject_to_mercator(self, lon_col="lon", lat_col="lat") -> "VectorPipeline":
        """EPSG:4326 → EPSG:3857 coordinate transform (vectorized, the
        TranslateArrow reprojection analog, ogr2ogr_lib.cpp:6009)."""
        from .mercator import latlon_to_meters

        def reproject(batch: pa.Table) -> pa.Table:
            mx, my = latlon_to_meters(batch[lat_col].to_numpy(),
                                      batch[lon_col].to_numpy())
            batch = batch.append_column("x_3857", pa.array(mx))
            return batch.append_column("y_3857", pa.array(my))
        return VectorPipeline(self.ds.map_batches(reproject,
                                                  batch_format="pyarrow"))

    def reproject(self, src_crs: str, dst_crs: str, x_col="lon",
                  y_col="lat", out_x="x", out_y="y") -> "VectorPipeline":
        """General coordinate transform between any two named CRS the
        engine knows (4326/3857, UTM 326xx/327xx, the conic/polar/
        equal-area registry, OSGB/ED50 datum CRS) — the gdaltransform /
        ogr2ogr -t_srs surface, routed source→lon/lat→target through the
        same dispatch the warp path uses (raster._crs_to_latlon)."""
        from .raster import _crs_to_latlon, _latlon_to_crs

        def step(batch: pa.Table) -> pa.Table:
            lat, lon = _crs_to_latlon(src_crs,
                                      batch[x_col].to_numpy(),
                                      batch[y_col].to_numpy())
            X, Y = _latlon_to_crs(dst_crs, lat, lon)
            batch = batch.append_column(out_x, pa.array(X))
            return batch.append_column(out_y, pa.array(Y))

        return VectorPipeline(self.ds.map_batches(step,
                                                  batch_format="pyarrow"))

    def spatial_sort(self, lon_col="lon", lat_col="lat") -> "VectorPipeline":
        """Hilbert spatial clustering order (SORT_BY_BBOX analog)."""
        from .rtree import hilbert_xy2d

        def key(batch: pa.Table) -> pa.Table:
            lon = batch[lon_col].to_numpy()
            lat = batch[lat_col].to_numpy()
            qx = np.clip((lon + 180.0) / 360.0 * 65535, 0, 65535).astype(np.uint64)
            qy = np.clip((lat + 90.0) / 180.0 * 65535, 0, 65535).astype(np.uint64)
            return batch.append_column(
                "hilbert_key", pa.array(hilbert_xy2d(16, qx, qy).astype(np.int64)))
        return VectorPipeline(
            self.ds.map_batches(key, batch_format="pyarrow").sort("hilbert_key"))

    def linearize(self, wkb_col: str = "wkb",
                  max_step_deg: float = 4.0) -> "VectorPipeline":
        """Stroke curve geometries (CircularString/CompoundCurve/
        CurvePolygon/TIN) to linear WKB — ``ogr2ogr -nlt CONVERT_TO_LINEAR``
        as a pipeline step."""
        from .curves import linearize_batch
        return VectorPipeline(self.ds.map_batches(
            lambda b: linearize_batch(b, wkb_col, max_step_deg),
            batch_format="pyarrow"))

    def measure(self, wkb_col: str = "wkb", buffer_dist=None,
                round_to=None) -> "VectorPipeline":
        """Append st_area/st_length/st_cx/st_cy/hull_area/hull_npoints
        (+ buf_area) measure columns — the OGRGeometry measure surface as
        a pipeline step."""
        from .measures import measures_batch
        return VectorPipeline(self.ds.map_batches(
            lambda b: measures_batch(b, wkb_col, buffer_dist, round_to),
            batch_format="pyarrow"))

    def limit(self, n: int) -> "VectorPipeline":
        return VectorPipeline(self.ds.limit(n))

    def write_parquet(self, path: str):
        self.ds.write_parquet(path)
        return path

    def to_table(self) -> pa.Table:
        import pyarrow as pa
        return pa.concat_tables(
            list(self.ds.iter_batches(batch_size=65536,
                                      batch_format="pyarrow")))


def split_list_fields(ds, max_elements: int | None = None):
    """Explode list-typed fields into scalar subfields ``name_1..name_N``
    — OGRSplitListFieldLayer (apps/ogr2ogr_lib.cpp:738).

    ``N`` per field = the dataset-wide max list length (computed with a
    tiny aggregate pass when not given, exactly how the reference's
    first pass scans the layer).  Missing elements are null."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc
    from ray.data.aggregate import Max

    schema = ds.schema()
    list_cols = [n for n, t in zip(schema.names, schema.types)
                 if pa.types.is_list(t) or pa.types.is_large_list(t)
                 or pa.types.is_fixed_size_list(t)]
    if not list_cols:
        return ds
    if max_elements is None:
        def lens(batch: pa.Table) -> pa.Table:
            return pa.table({
                c: pa.array([int(pc.max(pc.list_value_length(
                    batch[c])).as_py() or 0)])
                for c in list_cols})
        agg = ds.map_batches(lens, batch_format="pyarrow")
        maxes = {c: 0 for c in list_cols}
        for b in agg.iter_batches(batch_format="pyarrow"):
            for c in list_cols:
                maxes[c] = max(maxes[c], int(pc.max(b[c]).as_py() or 0))
    else:
        maxes = {c: max_elements for c in list_cols}

    def explode(batch: pa.Table) -> pa.Table:
        cols = {}
        for name in batch.schema.names:
            if name not in list_cols:
                cols[name] = batch[name]
                continue
            col = batch[name].combine_chunks() \
                if isinstance(batch[name], pa.ChunkedArray) else batch[name]
            item_t = col.type.value_type
            n = len(col)
            for k in range(maxes[name]):
                vals = [col[i][k].as_py()
                        if col[i].is_valid and len(col[i]) > k else None
                        for i in range(n)]
                cols[f"{name}_{k + 1}"] = pa.array(vals, item_t)
        return pa.table(cols)

    return ds.map_batches(explode, batch_format="pyarrow")


def read_parquet_bbox(path, bbox, *, lon_col: str = "lon",
                      lat_col: str = "lat", columns=None):
    """Spatial-filtered parquet read with ROW-GROUP pushdown — the READ
    side of the GeoParquet SORT_BY_BBOX story (the reference prunes via
    the bbox covering + parquet row-group statistics,
    ogr/ogrsf_frmts/parquet/ogrparquetlayer.cpp bbox filtering): the
    driver inspects per-row-group min/max stats for the coordinate
    columns and plans ONLY intersecting groups; each Ray task reads its
    groups and applies the EXACT bbox filter (correct even without
    stats).  On Hilbert-sorted files (``spatial_sort``) the stats are
    tight and most groups prune.

    Returns (dataset, plan) where plan = {"total_row_groups",
    "read_row_groups"} so callers/tests can see the pruning rate."""
    import os

    import pyarrow.parquet as pq_mod

    minx, miny, maxx, maxy = bbox
    files = ([os.path.join(path, f) for f in sorted(os.listdir(path))
              if f.endswith(".parquet")] if os.path.isdir(path)
             else [path])
    units = []
    total = 0
    for f in files:
        md = pq_mod.ParquetFile(f).metadata
        names = {md.schema.column(i).name: i
                 for i in range(md.num_columns)}
        keep = []
        for rg in range(md.num_row_groups):
            total += 1
            ok = True
            for col, lo, hi in ((lon_col, minx, maxx),
                                (lat_col, miny, maxy)):
                if col not in names:
                    continue
                st = md.row_group(rg).column(names[col]).statistics
                if st is None or st.min is None:
                    continue        # no stats → cannot prune, keep
                if st.max < lo or st.min > hi:
                    ok = False
                    break
            if ok:
                keep.append(rg)
        if keep:
            units.append({"path": f, "row_groups": keep})
    plan = {"total_row_groups": total,
            "read_row_groups": sum(len(u["row_groups"]) for u in units)}

    return read_units(units, _bbox_row_groups, bbox=bbox, lon_col=lon_col,
                      lat_col=lat_col, columns=columns), plan


def _bbox_row_groups(unit: dict, *, bbox, lon_col, lat_col,
                     columns) -> pa.Table:
    """One file's planned row groups, filtered exactly to ``bbox``."""
    import pyarrow.parquet as pq_mod
    minx, miny, maxx, maxy = bbox
    t = pq_mod.ParquetFile(unit["path"]).read_row_groups(
        unit["row_groups"], columns=columns)
    lon = t[lon_col].to_numpy()
    lat = t[lat_col].to_numpy()
    return t.filter(pa.array((lon >= minx) & (lon <= maxx)
                             & (lat >= miny) & (lat <= maxy)))
