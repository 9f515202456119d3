"""End-to-end pipeline compositions (the gdalwarp / ogr2ogr / gdal2tiles
replacements, SURVEY.md §3).  All functions take an already-initialised Ray
session (they never call ``ray.init``) and return lazy Datasets.

The image table has one reader: the driver plans work units
(:func:`flagship_work_units` — parquet row-group bundles or lance fragment
row ranges, the warp chunk-list analog) and one Ray task per unit reads its
own rows straight from storage (:func:`_read_unit`).  The flagship
(:func:`flagship_join`) runs the fused :class:`FlagshipStage` in that same
task; every other image pipeline reads through :func:`read_images`, which
emits the units' rows.  Decoding and the ``pixels`` layout live in
:mod:`georay.decode`.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa

from . import codecs, fixtures
from .decode import add_cells, add_georef, decode_images, decoded_rows
from .tiles import assign_center_tile, build_pyramid, composite_tiles, \
    cut_tiles, fragment_sums, plan_tiles
from .util import read_units, worker_cached, worker_get

__all__ = ["read_images", "georeferenced_images", "flagship_join",
           "flagship_checkpointed", "tile_pipeline"]

# the columns a flagship unit reads when it does not decode: the multi-KB
# ``bytes`` column never leaves storage
_META_COLS = ["image_id", "w", "h", "caption", "phash"]
_JOIN_COLS = ["image_id", "caption", "phash", "lat", "lon", "hexcell",
              "s2cell"]


def read_images(images_path: str, *, columns=None):
    """The image table (a parquet file or directory, or a lance-layout
    root) as a Dataset: one task per work unit of
    :func:`flagship_work_units` reads that unit's rows, pruned to
    ``columns``."""
    return read_units(flagship_work_units(images_path), _image_rows,
                      columns=columns)


def georeferenced_images(images_path: str, *, decode: bool = True):
    """images table → Dataset with georef + cell columns (+ decoded
    pixels): the shared front of the map-chain image pipelines."""
    # prune at the read: without decode the multi-KB `bytes` column never
    # leaves storage
    ds = read_images(images_path, columns=None if decode else _META_COLS)
    ds = ds.map_batches(add_georef, batch_format="pyarrow")
    ds = ds.map_batches(add_cells, batch_format="pyarrow")
    if decode:
        ds = ds.map_batches(decode_images, batch_format="pyarrow",
                            batch_size=64)
    return ds


class FlagshipStage:
    """Fused flagship stage: georef → H3/S2 cells (→ tile plan, then
    decode, phash verify and tile cut one image at a time) → broadcast
    R-tree PIP join → center-tile assignment, one batch pass.

    With ``cut``, every tile window of the batch is planned first, in one
    vectorized pass over the metadata columns (:func:`georay.tiles.
    plan_tiles`); then each image is decoded once into a local array that
    is verified and checksummed right away — one compiled pass over its
    plan rows (:func:`georay.tiles.fragment_sums`) — and dropped before
    the next image is decoded.  So no pixels column is ever materialized
    or re-shipped through the object store, and no image's pixels outlive
    it — the same reason gdal2tiles does read+warp+encode in one worker
    (gdal2tiles.py:4593).  The polygon index arrives as a ``ray.put`` ref,
    deserialized once per worker process
    (:func:`georay.util.worker_get`).

    Output: one join row per (image, matching polygon); with ``decode`` a
    ``decode_ok`` column (bytes that fail to decode are flagged, not
    fatal), with ``verify`` a ``phash_ok`` column, and with ``cut`` one
    extra row per (image, covering tile) whose ``frag_checksum`` is the
    prime-LUT checksum of the tile fragment (null on join rows).
    """

    def __init__(self, index_ref, zoom: int = 12, decode: bool = True,
                 cut: bool = False, verify: bool = False):
        if (cut or verify) and not decode:
            raise ValueError("FlagshipStage: cut and verify need decode=True")
        self.index = worker_get(index_ref)
        self.zoom = zoom
        self.decode = decode
        self.cut = cut
        self.verify = verify

    def __call__(self, batch: pa.Table) -> pa.Table:
        batch = add_georef(batch)
        batch = add_cells(batch)
        if self.decode:
            decode_ok, phash_ok, frags = self._decode_rows(batch)
        qi, ii = self.index.match_points(batch["lon"].to_numpy(),
                                         batch["lat"].to_numpy())
        out = batch.select(_JOIN_COLS).take(pa.array(qi))
        if self.verify:
            out = out.append_column("phash_ok", pa.array(phash_ok[qi]))
        if self.decode:
            out = out.append_column("decode_ok", pa.array(decode_ok[qi]))
        for name, arr in self.index.payload.items():
            out = out.append_column(name, pa.array(arr[ii]))
        out = assign_center_tile(out, self.zoom)
        if not self.cut:
            return out
        out = out.append_column("frag_checksum",
                                pa.nulls(out.num_rows, pa.int64()))
        # fragment rows, aligned to the join-row schema
        rows, tx, ty, sums = frags
        idx = pa.array(rows)
        cols = {name: batch[name].take(idx) for name in
                ("image_id", "phash", "lat", "lon", "hexcell", "s2cell")}
        if self.verify:
            cols["phash_ok"] = pa.array(phash_ok[rows])
        cols["decode_ok"] = pa.array(np.ones(len(rows), dtype=bool))
        cols["z"] = pa.array(np.full(len(rows), self.zoom, dtype=np.int64))
        cols["tile_x"] = pa.array(tx)
        cols["tile_y"] = pa.array(ty)
        cols["frag_checksum"] = pa.array(sums)
        frag_t = pa.table([cols[f.name] if f.name in cols
                           else pa.nulls(len(rows), f.type)
                           for f in out.schema], schema=out.schema)
        return pa.concat_tables([out, frag_t])

    def _decode_rows(self, batch: pa.Table):
        """Plan the batch's tile windows (with ``cut``), then decode each
        image once, verify its phash and checksum its plan rows; returns
        ``(decode_ok, phash_ok, (rows, tile_x, tile_y, checksums))``.  A
        row whose bytes do not decode gets ``decode_ok = phash_ok =
        False`` and no fragments."""
        n = batch.num_rows
        decode_ok = np.ones(n, dtype=bool)
        phash_ok = np.ones(n, dtype=bool)
        stored_phash = batch["phash"].to_numpy()
        w_arr = batch["w"].to_numpy()
        h_arr = batch["h"].to_numpy()
        plan = np.empty((0, 11), dtype=np.int64)
        if self.cut:
            plan = plan_tiles(w_arr, h_arr, batch["ulx"].to_numpy(),
                              batch["uly"].to_numpy(),
                              batch["psize"].to_numpy(), self.zoom)
        bounds = np.searchsorted(plan[:, 0], np.arange(n + 1))
        kept, sums = [plan[:0]], [np.empty(0, dtype=np.int64)]
        for i, (arr, err) in enumerate(decoded_rows(batch)):
            if err is not None:
                decode_ok[i] = phash_ok[i] = False
                continue
            if self.verify:
                phash_ok[i] = int(codecs.phash64(arr)) == int(stored_phash[i])
            rows = plan[bounds[i]:bounds[i + 1]]
            if not len(rows):
                continue
            if arr.shape[:2] != (h_arr[i], w_arr[i]):
                # pixels that disagree with the metadata: each window is
                # what slicing the decoded image gives, and an empty one
                # is no fragment
                rows = rows.copy()
                rows[:, 5] = np.minimum(rows[:, 5], arr.shape[1] - rows[:, 3])
                rows[:, 6] = np.minimum(rows[:, 6], arr.shape[0] - rows[:, 4])
                rows = rows[(rows[:, 5] > 0) & (rows[:, 6] > 0)]
            kept.append(rows)
            sums.append(fragment_sums(arr, rows))
        kept = np.concatenate(kept)
        return decode_ok, phash_ok, (kept[:, 0], kept[:, 1], kept[:, 2],
                                     np.concatenate(sums))


def _read_unit(unit: dict, columns) -> pa.Table:
    """Read one work unit's rows: parquet row groups, or a lance fragment
    row range with the fragment's delete file applied."""
    if "row_groups" in unit:
        import pyarrow.parquet as pq
        return pq.ParquetFile(unit["path"]).read_row_groups(
            unit["row_groups"], columns=columns)
    from .lancefmt import _apply_deletes, lance_manifest, read_fragment
    # a committed lance version never changes, so its schema is cached
    schema = worker_cached(
        ("lance_schema", unit["root"], unit["version"]),
        lambda: lance_manifest(unit["root"], unit["version"])["schema"])
    rng = (unit["start"], unit["stop"])
    tbl = read_fragment(unit["path"], schema, columns=columns, row_range=rng)
    if unit["del_file"]:
        with open(os.path.join(unit["root"], "data", unit["del_file"]),
                  "rb") as f:
            dels = np.frombuffer(f.read(), "<u8")
        tbl = _apply_deletes(tbl, dels, row_range=rng)
    return tbl


def _image_rows(unit: dict, *, columns) -> pa.Table:
    """:func:`read_images`' task: its work unit's rows."""
    return _read_unit(unit, columns)


def _flagship_unit_fn(unit: dict, *, index_ref, zoom, decode, cut,
                      verify) -> pa.Table:
    """One task per work unit: read the unit's rows worker-locally (the way
    a 100 TB deployment reads its shard straight from object storage — the
    encoded payloads never enter the object store, only the small output
    rows do) and run the fused stage on them."""
    stage = FlagshipStage(index_ref, zoom=zoom, decode=decode, cut=cut,
                          verify=verify)
    return stage(_read_unit(unit, None if decode else _META_COLS))


def flagship_work_units(images_path: str, groups_per_task: int = 2):
    """Driver-side plan: one row per (file, row-group bundle) of a parquet
    file or directory, or per 512-row range of a lance fragment — the warp
    chunk list analog (alg/gdalwarpoperation.cpp:846 CollectChunkList).

    These units are the only way the image table is read (the flagship's
    tasks and :func:`read_images` both run :func:`_read_unit` on them),
    and each one runs as exactly one Ray task at any unit count
    (:func:`georay.util.read_units`).

    Unit size: 2 row groups, so the image count follows the writer's row
    group size.  The bench fixture writes 256-row groups (~512 images,
    ~2.8 s of fused work per unit), which keeps it at ≥12 waves on 32 CPUs
    so the last-wave straggler tail stays <7% (measured: 4 groups/unit = 6
    waves lost 17% throughput at 32 CPUs; 1 group/unit paid task overhead
    at 8 CPUs).  ``fixtures.write_images_parquet``'s default 2,048-row
    groups give 4,096-image units.  At production scale units outnumber
    workers by orders of magnitude and any value here is tail-free — the
    floor only matters when input ≈ cluster size."""
    import pyarrow.parquet as pq
    if os.path.exists(os.path.join(images_path, "_latest.manifest")):
        # lance root: sub-fragment row ranges are the unit (the
        # read_fragment row-range pushdown makes this a true partial read)
        from .lancefmt import lance_manifest
        rows_per_unit = 512
        man = lance_manifest(images_path)
        return [{"root": images_path, "version": man["version"],
                 "path": os.path.join(images_path, "data", fr["filename"]),
                 "start": a, "stop": min(a + rows_per_unit, fr["num_rows"]),
                 "del_file": fr.get("del_file", "")}
                for fr in man["fragments"]
                for a in range(0, fr["num_rows"], rows_per_unit)]
    files = ([images_path] if os.path.isfile(images_path) else
             [os.path.join(images_path, f)
              for f in sorted(os.listdir(images_path))
              if f.endswith(".parquet")])
    units = []
    for path in files:
        n_rg = pq.ParquetFile(path).metadata.num_row_groups
        for start in range(0, n_rg, groups_per_task):
            units.append({"path": path, "row_groups": list(
                range(start, min(start + groups_per_task, n_rg)))})
    return units


def flagship_join(images_path: str, polygons: pa.Table | None = None, *,
                  zoom: int = 12, n_polygons: int = 500,
                  decode: bool = False, cut: bool = False,
                  verify: bool = False, source: str = "direct"):
    """Images georeferenced → H3/S2 cells (→ decode, phash verify) →
    broadcast R-tree spatial join with polygons → center-tile assignment
    (→ tile cut + fragment checksums when ``cut``).  The BASELINE headline
    op, executed as ONE fused stage: one task per work unit of
    :func:`flagship_work_units`, which reads its own rows (only
    ``image_id, w, h, caption, phash`` when not decoding) and runs
    :class:`FlagshipStage` on them.  ``source`` names that read path;
    ``"direct"`` is its only value."""
    import ray
    from .join import PolygonIndex
    if source != "direct":
        raise ValueError(f"flagship_join: unknown source {source!r}; "
                         "the only read path is 'direct'")
    if polygons is None:
        polygons = fixtures.polygons_table(n_polygons)
    index_ref = ray.put(PolygonIndex.build(polygons))
    return read_units(flagship_work_units(images_path), _flagship_unit_fn,
                      index_ref=index_ref, zoom=zoom, decode=decode,
                      cut=cut, verify=verify)


def tile_pipeline(images_path: str, *, zoom: int = 12, tminz: int | None = None,
                  resampling: str = "average"):
    """gdal2tiles replacement: decode → cut base tiles → composite per tile
    → overview pyramid.  Returns ``{z: Dataset}`` of composited tiles."""
    frags = georeferenced_images(images_path, decode=True).map_batches(
        cut_tiles, batch_format="pyarrow", batch_size=64,
        fn_kwargs=dict(zoom=zoom, resampling=resampling))
    # two-level composite: within-block combiner + per-tile merge
    base = composite_tiles(frags)
    if tminz is None or tminz >= zoom:
        return {zoom: base}
    return build_pyramid(base, tminz, zoom)


def flagship_checkpointed(images_path: str, out_dir: str, *,
                          zoom: int = 12, n_polygons: int = 500,
                          part_shift: int = 4, **kwargs):
    """Flagship join written as resumable partitioned output with per-
    partition lineage (north rule: a killed run resumes from the last
    committed partition).

    Partition key = coarse tile ``(tile_x >> part_shift, tile_y >>
    part_shift)``; rows whose partition is already committed are dropped
    BEFORE the write shuffle (anti-join against the manifest).  Returns
    the small per-partition status Dataset — consume it to run."""
    from .checkpoint import resume_filter, write_partitioned
    out = flagship_join(images_path, zoom=zoom, n_polygons=n_polygons,
                        **kwargs)

    def keyed(batch: pa.Table) -> pa.Table:
        px = batch["tile_x"].to_numpy() >> part_shift
        py = batch["tile_y"].to_numpy() >> part_shift
        return batch.append_column(
            "part", pa.array(px * 100000 + py))

    keyed_ds = out.map_batches(keyed, batch_format="pyarrow")
    keyed_ds = resume_filter(keyed_ds, out_dir, ["part"])
    return write_partitioned(keyed_ds, out_dir, ["part"],
                             lineage_cols=["image_id", "tile_x", "tile_y"])
