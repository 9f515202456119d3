"""Raster attribute tables — GDAL's RAT surface (gcore/gdal_rat.h:
``GDALRasterAttributeTable``, rows keyed by pixel value with
usage-tagged columns: GFU_MinMax value, GFU_PixelCount, GFU_Name,
generic attributes) re-expressed over the image table.

Two halves:

* :func:`rat_from_images` — BUILD: the per-value pixel census over a
  whole image Dataset.  One ``bincount`` partial per batch (a 256-long
  row, never per-pixel rows) + a driver-side vector sum — the
  pre-aggregation shape, no shuffle of pixel data.
* :func:`apply_rat` / :func:`classify_batch` — APPLY: map band-0 values
  through a RAT attribute column via one ``np.take`` LUT per batch (the
  classified-raster read path; gdal_rat.h GetValueOfRow analogs).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from .decode import pixel_arrays

__all__ = ["rat_from_images", "apply_rat", "classify_batch", "rat_lut"]


def _census_partial(batch: pa.Table) -> pa.Table:
    counts = np.zeros(256, dtype=np.int64)
    for rgb in pixel_arrays(batch):
        counts += np.bincount(rgb[:, :, 0].ravel(), minlength=256)
    return pa.table({"value": pa.array(np.arange(256, dtype=np.int64)),
                     "pixel_count": pa.array(counts)})


def rat_from_images(ds) -> pa.Table:
    """Distributed per-value census of band 0 → RAT rows
    ``(value, pixel_count)`` for every value that occurs.  Partials are
    256-long vectors per batch; the combine is one driver-side sum of a
    tiny table (blocks × 256 rows) — pixels never shuffle."""
    parts = ds.map_batches(_census_partial, batch_format="pyarrow") \
        .to_pandas()
    total = np.zeros(256, dtype=np.int64)
    np.add.at(total, parts["value"].to_numpy(), parts["pixel_count"])
    nz = np.flatnonzero(total)
    return pa.table({"value": pa.array(nz.astype(np.int64)),
                     "pixel_count": pa.array(total[nz])})


def rat_lut(rat: pa.Table, attr_col: str, default=0) -> np.ndarray:
    """Dense 256-entry lookup array for a RAT attribute column (numeric
    attrs only — the APPLY fast path)."""
    vals = rat["value"].to_numpy()
    attr = rat[attr_col].to_numpy(zero_copy_only=False)
    lut = np.full(256, default, dtype=np.asarray(attr).dtype)
    lut[vals] = attr
    return lut


def classify_batch(batch: pa.Table, lut: np.ndarray,
                   out_col: str = "class_pixels") -> pa.Table:
    """Map band 0 of every image through the LUT (one ``np.take`` per
    image, no per-pixel Python) — classified raster bytes out."""
    lut8 = lut.astype(np.uint8) if lut.dtype != np.uint8 else lut
    out = [np.take(lut8, rgb[:, :, 0]).tobytes()
           for rgb in pixel_arrays(batch)]
    return batch.append_column(out_col, pa.array(out, pa.binary()))


def apply_rat(ds, rat: pa.Table, attr_col: str,
              out_col: str = "class_pixels"):
    """Dataset-level APPLY: broadcast the (tiny) LUT in the closure and
    classify every image in ``map_batches``."""
    lut = rat_lut(rat, attr_col)
    return ds.map_batches(
        lambda b: classify_batch(b, lut, out_col),
        batch_format="pyarrow")
