"""georay — a from-scratch Ray-Data-native spatial join + tiling engine with
GDAL's query/data-processing capabilities (reference analyzed in SURVEY.md).

Layers:

* pure-math kernels (no Ray): :mod:`georay.mercator`, :mod:`georay.cells`,
  :mod:`georay.icosa`, :mod:`georay.geom`, :mod:`georay.measures`,
  :mod:`georay.curves`, :mod:`georay.rtree`, :mod:`georay.transformers`,
  :mod:`georay.codecs`, :mod:`georay.jpeg`, :mod:`georay.gtiff`,
  :mod:`georay.shapefile`, :mod:`georay.geojson`, :mod:`georay.mvt`,
  :mod:`georay.flatgeobuf`, :mod:`georay.gpkg` (from-scratch SQLite
  reader: GeoPackage + MBTiles), :mod:`georay.wkt`, :mod:`georay.datum`,
  :mod:`georay.lineref`
* chunked-array / multidim: :mod:`georay.zarrstore`, :mod:`georay.mdim`
* pipeline-step APIs: :mod:`georay.ogr` (VectorPipeline),
  :mod:`georay.rasterpipe` (RasterPipeline), :mod:`georay.csvdriver`,
  :mod:`georay.rat`, :mod:`georay.sample` (hash sampling, per-key
  top-k), :mod:`georay.sketch` (HLL distinct, KLL quantiles)
* fixtures: :mod:`georay.fixtures` (deterministic image/polygon/point tables)
* Ray Data stages & pipelines: :mod:`georay.decode`, :mod:`georay.join`,
  :mod:`georay.knn`, :mod:`georay.tiles`, :mod:`georay.stats`,
  :mod:`georay.dedup` (exact dedup), :mod:`georay.morph`,
  :mod:`georay.checkpoint`, :mod:`georay.pipelines`

None of these call ``ray.init()`` — the session is owned by the caller
(driver / tests / bench.py).
"""

__version__ = "0.1.0"
