"""`gdal raster pipeline` analog — the raster twin of
:class:`georay.ogr.VectorPipeline` (SURVEY §2.9 pipeline-step API;
reference surface: the `gdal raster pipeline read ! step ! … ! write`
CLI of apps/gdalalg_raster_*.cpp).

Steps compose over the engine's image-table row schema
(``image_id, bytes|pixels, w, h, fmt[, ulx, uly, psize]``); each step is
one of the existing vetted ``map_batches`` stages, so the pipeline adds
zero new kernel code — only the composition surface.  Everything stays a
lazy Ray Dataset until a ``write_*`` / ``stats`` terminal.

>>> (RasterPipeline.read_parquet(path)
...    .decode()
...    .translate(outsize=(128, 128), resampling="bilinear")
...    .dem("hillshade")
...    .write_parquet(out))
"""

from __future__ import annotations

import pyarrow as pa

__all__ = ["RasterPipeline"]


class RasterPipeline:
    def __init__(self, ds):
        self.ds = ds

    # -- sources ----------------------------------------------------------
    @classmethod
    def read_parquet(cls, path: str, columns=None) -> "RasterPipeline":
        """The image table through the engine's one reader
        (:func:`georay.pipelines.read_images`)."""
        from .pipelines import read_images
        return cls(read_images(path, columns=columns))

    @classmethod
    def from_dataset(cls, ds) -> "RasterPipeline":
        return cls(ds)

    # -- steps (each = one existing vetted stage) --------------------------
    def where(self, clause: str) -> "RasterPipeline":
        """Attribute filter over the image table (same SWQ WHERE surface
        as the vector pipeline — e.g. ``"fmt = 'png' AND w >= 256"``)."""
        from .expr import attribute_filter
        return RasterPipeline(attribute_filter(self.ds, clause))

    def decode(self, *, keep_bytes: bool = False,
               with_checksum: bool = False) -> "RasterPipeline":
        """bytes+fmt → pixels via the codec stage."""
        from .decode import decode_images
        return RasterPipeline(self.ds.map_batches(
            decode_images, batch_format="pyarrow",
            fn_kwargs=dict(keep_bytes=keep_bytes,
                           with_checksum=with_checksum)))

    def translate(self, *, srcwin=None, outsize=None, scale=False,
                  resampling: str = "near") -> "RasterPipeline":
        """gdal_translate -srcwin/-outsize/-scale."""
        from .raster import translate_images
        return RasterPipeline(self.ds.map_batches(
            translate_images, batch_format="pyarrow",
            fn_kwargs=dict(srcwin=srcwin, outsize=outsize, scale=scale,
                           resampling=resampling)))

    def calc(self, expr: str, out_col: str = "calc") -> "RasterPipeline":
        """gdal_calc over band 0 of ``pixels`` (expression gets ``A``);
        emits a float64 summary column (mean of the result per image) —
        the reduction form; use pixel_calc directly for full rasters."""
        from .decode import pixel_arrays
        from .raster import pixel_calc

        def step(batch: pa.Table) -> pa.Table:
            vals = [float(pixel_calc(expr, A=rgb[:, :, 0]).mean())
                    for rgb in pixel_arrays(batch)]
            return batch.append_column(out_col,
                                       pa.array(vals, pa.float64()))

        return RasterPipeline(self.ds.map_batches(
            step, batch_format="pyarrow"))

    def dem(self, mode: str = "hillshade", **kwargs) -> "RasterPipeline":
        """gdaldem derivative per row (band 0 as the DEM)."""
        from .raster import dem_derivatives
        return RasterPipeline(self.ds.map_batches(
            dem_derivatives, batch_format="pyarrow",
            fn_kwargs=dict(mode=mode, **kwargs)))

    def cut_tiles(self, zoom: int, resampling: str = "average"
                  ) -> "RasterPipeline":
        """gdal2tiles base-tile cut (rows → per-tile RGBA fragments)."""
        from .tiles import cut_tiles
        return RasterPipeline(self.ds.map_batches(
            cut_tiles, batch_format="pyarrow",
            fn_kwargs=dict(zoom=zoom, resampling=resampling)))

    def map(self, fn) -> "RasterPipeline":
        """Custom step (the UDF hook): any pa.Table → pa.Table callable."""
        return RasterPipeline(self.ds.map_batches(
            fn, batch_format="pyarrow"))

    # -- terminals ----------------------------------------------------------
    def write_parquet(self, path: str):
        return self.ds.write_parquet(path)

    def dataset(self):
        return self.ds

    def stats(self):
        """Welford band statistics over band 0: mergeable per-batch
        partials (stats.band_stats_partial) reduced driver-side — the
        ComputeStatistics reduction (small scalar result)."""
        from .decode import pixel_arrays
        from .stats import BandStats, band_stats_combine, band_stats_partial

        def partial(batch: pa.Table) -> pa.Table:
            parts = BandStats()
            for rgb in pixel_arrays(batch):
                parts = parts.merge(band_stats_partial(rgb[:, :, 0]))
            return pa.table({"count": pa.array([parts.count], pa.int64()),
                             "mean": pa.array([parts.mean]),
                             "m2": pa.array([parts.m2]),
                             "min": pa.array([parts.min]),
                             "max": pa.array([parts.max])})

        rows = self.ds.map_batches(partial,
                                   batch_format="pyarrow").take_all()
        return band_stats_combine(
            BandStats(r["count"], r["mean"], r["m2"], r["min"], r["max"])
            for r in rows)
