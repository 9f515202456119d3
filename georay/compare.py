"""Dataset comparison + info utilities — the osgeo_utils/gdalcompare.py
and gdalinfo/ogrinfo surfaces re-expressed for the engine's table model.

* ``compare_images(golden_ds, new_ds)``: row-aligned comparison of two
  image tables on a key column — size, format, decoded-pixel equality
  (exact for lossless formats, PSNR floor for lossy), GDAL checksum —
  returning one issue row per difference (empty == identical), the
  ``gdalcompare.py`` "number of differences" contract distributed as a
  co-shuffled join + vectorized per-row checks.
* ``info_images(ds)`` / ``info_vector(ds)``: one-row summaries (counts,
  dimension ranges, byte totals / geometry type census, extent) — the
  gdalinfo / ogrinfo -so shape as small aggregate pipelines.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

__all__ = ["compare_images", "info_images", "info_vector"]


def compare_images(golden_ds, new_ds, *, key: str = "image_id",
                   psnr_floor: float = 40.0):
    """Compare two image tables (``image_id, bytes, w, h, fmt`` at
    least) row-by-row on ``key``.  Returns a Dataset of issue rows
    ``(key, issue)``; consume ``.count()`` for the gdalcompare "number
    of differences".  Rows present on only one side are reported as
    ``only_golden`` / ``only_new``."""
    from .codecs import decode_image, psnr

    def tag(side):
        def fn(batch: pa.Table) -> pa.Table:
            return pa.table({
                key: batch[key],
                "bytes__": batch["bytes"],
                "w__": batch["w"], "h__": batch["h"],
                "fmt__": batch["fmt"],
                "side__": pa.array(
                    np.full(batch.num_rows, side, np.int8))})
        return fn

    both = (golden_ds.map_batches(tag(0), batch_format="pyarrow")
            .union(new_ds.map_batches(tag(1), batch_format="pyarrow")))

    def per_partition(g: pa.Table) -> pa.Table:
        """ALL keys of one hash partition in a single call — never one
        Python call per image id (the NOTES.md per-group-overhead rule:
        at 1e9 ids the groupby(key) shape pays ~0.1-1 ms of dispatch per
        id, comparable to the per-image compare work itself)."""
        g = g.combine_chunks()
        keys = g[key].to_numpy(zero_copy_only=False)
        side = g["side__"].to_numpy(zero_copy_only=False)
        order = np.lexsort((side, keys))
        ks = keys[order]
        new = np.ones(len(ks), dtype=bool)
        new[1:] = ks[1:] != ks[:-1]
        starts = np.flatnonzero(new)
        ends = np.r_[starts[1:], len(ks)]
        out_k, out_issue = [], []
        key_type = g.schema.field(key).type
        for s, e in zip(starts, ends):
            rows = order[s:e]
            sd = side[rows]
            issues = []
            if (sd == 0).sum() == 0:
                issues.append("only_new")
            elif (sd == 1).sum() == 0:
                issues.append("only_golden")
            else:
                a = int(rows[np.nonzero(sd == 0)[0][0]])
                b = int(rows[np.nonzero(sd == 1)[0][0]])
                if (g["w__"][a].as_py() != g["w__"][b].as_py()
                        or g["h__"][a].as_py() != g["h__"][b].as_py()):
                    issues.append("size")
                fa, fb = g["fmt__"][a].as_py(), g["fmt__"][b].as_py()
                if fa != fb:
                    issues.append("format")
                if not issues:
                    pa_ = decode_image(g["bytes__"][a].as_py(), fa)
                    pb_ = decode_image(g["bytes__"][b].as_py(), fb)
                    if pa_.shape != pb_.shape:
                        issues.append("pixel_shape")
                    elif fa == "jpeg":
                        if psnr(pa_, pb_) < psnr_floor:
                            issues.append("pixels_psnr")
                    elif not np.array_equal(pa_, pb_):
                        issues.append("pixels")
            out_k.extend([ks[s]] * len(issues))
            out_issue.extend(issues)
        return pa.table({key: pa.array(out_k, key_type),
                         "issue": pa.array(out_issue, pa.string())})

    from .util import hash_strings, shuffle_partitions
    P = shuffle_partitions()

    def add_part(batch: pa.Table) -> pa.Table:
        col = batch[key]
        if pa.types.is_string(col.type) or pa.types.is_binary(col.type):
            h = hash_strings(col)
        else:
            h = batch[key].to_numpy().astype(np.uint64)
        part = (((h * np.uint64(0x9E3779B97F4A7C15)) >> np.uint64(40))
                % np.uint64(P)).astype(np.int64)
        return batch.append_column("part__", pa.array(part))

    return (both.map_batches(add_part, batch_format="pyarrow")
            .groupby("part__").map_groups(per_partition,
                                          batch_format="pyarrow"))


def info_images(ds) -> pa.Table:
    """gdalinfo -so over the images table: per-format count, dimension
    ranges, encoded byte total (small driver-side result)."""
    from ray.data.aggregate import Count, Max, Min, Sum

    def prep(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        return pa.table({
            "fmt": batch["fmt"], "w": batch["w"], "h": batch["h"],
            "nbytes": pc.binary_length(batch["bytes"]).cast(pa.int64())})

    return (ds.map_batches(prep, batch_format="pyarrow")
            .groupby("fmt")
            .aggregate(Count(alias_name="n"),
                       Min("w", alias_name="min_w"),
                       Max("w", alias_name="max_w"),
                       Min("h", alias_name="min_h"),
                       Max("h", alias_name="max_h"),
                       Sum("nbytes", alias_name="total_bytes"))
            .to_pandas())


def info_vector(ds, wkb_col: str = "wkb"):
    """ogrinfo -so over a WKB table: geometry-type census + layer
    extent (small driver-side result)."""
    from .geom import WKB_TYPE_NAMES, wkb_envelope, wkb_header_type

    def prep(batch: pa.Table) -> pa.Table:
        types, minx, miny, maxx, maxy = [], [], [], [], []
        for i in range(batch.num_rows):
            w = batch[wkb_col][i].as_py()
            if w is None:
                types.append("NULL")
                minx.append(None); miny.append(None)
                maxx.append(None); maxy.append(None)
                continue
            types.append(WKB_TYPE_NAMES[wkb_header_type(w)[0]].upper())
            e = [None if v != v else v for v in wkb_envelope(w)]
            minx.append(e[0]); miny.append(e[1])
            maxx.append(e[2]); maxy.append(e[3])
        return pa.table({"geom_type": pa.array(types, pa.string()),
                         "minx": pa.array(minx, pa.float64()),
                         "miny": pa.array(miny, pa.float64()),
                         "maxx": pa.array(maxx, pa.float64()),
                         "maxy": pa.array(maxy, pa.float64())})

    from ray.data.aggregate import Count, Max, Min
    return (ds.map_batches(prep, batch_format="pyarrow")
            .groupby("geom_type")
            .aggregate(Count(alias_name="n"),
                       Min("minx", alias_name="minx"),
                       Min("miny", alias_name="miny"),
                       Max("maxx", alias_name="maxx"),
                       Max("maxy", alias_name="maxy"))
            .to_pandas())
