"""The image table's one decode loop and one owner of the pixel layout,
plus the georeference / cell stages for ``map_batches``.

Every stage here is a stateless batch function, run as a plain Ray task
with its options passed through ``fn_kwargs``; ``add_georef`` and
``add_cells`` are pure math.  Batches stay ``pyarrow`` end-to-end.

* :func:`decoded_rows` is the one decode loop: the fused flagship stage
  flags the rows it reports bad, and :func:`decode_images` raises on
  them.
* Decoded pixels travel as a raw ``binary`` column, ``pixels`` = uint8 RGB,
  C-order h×w×3, next to its ``w``/``h`` shape columns: zero-copy in and
  out of the object store, no Python object columns.  This module alone
  reads that layout (:func:`pixel_arrays`) and writes it
  (:func:`with_pixels`).

The image table itself is read through ``pipelines.read_images`` only.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from . import codecs
from .cells import hex_cell, s2_cell_id
from .fixtures import georef, parse_image_idx

__all__ = ["decoded_rows", "pixel_arrays", "with_pixels", "decode_images",
           "add_georef", "add_cells"]


def decoded_rows(batch: pa.Table):
    """The decode loop: for each row's ``bytes`` + ``fmt``, in order, yield
    ``(rgb, None)`` (uint8 h×w×3, gray turned into RGB) or ``(None,
    error)`` for a row that does not decode, or that decodes to anything
    but uint8 gray or RGB (a 16-bit PNG, a PNG with alpha).  Rows are
    decoded one at a time as the caller asks for them; nothing is
    collected."""
    for data, fmt in zip(batch["bytes"], batch["fmt"].to_pylist()):
        try:
            arr = codecs.decode_image(data.as_buffer(), fmt)
        except ValueError as err:
            yield None, err
            continue
        gray_or_rgb = arr.ndim == 2 or (arr.ndim == 3 and arr.shape[2] == 3)
        if arr.dtype != np.uint8 or not gray_or_rgb:
            yield None, ValueError(f"decodes to {arr.dtype} {arr.shape}, "
                                   "not uint8 gray or RGB")
            continue
        yield (np.stack([arr] * 3, axis=2) if arr.ndim == 2 else arr), None


def pixel_arrays(batch: pa.Table):
    """The one reader of the ``pixels`` layout: each row's read-only
    uint8 h×w×3 RGB view, in row order."""
    for buf, h, w in zip(batch["pixels"], batch["h"].to_numpy(),
                         batch["w"].to_numpy()):
        yield np.frombuffer(buf.as_buffer(), np.uint8).reshape(
            int(h), int(w), 3)


def with_pixels(table: pa.Table, images) -> pa.Table:
    """The one writer of the ``pixels`` layout: ``table`` with its
    ``pixels`` column (re)made last from ``images``, one uint8 h×w×3 RGB
    array per row, consumed one at a time.  Existing ``w``/``h`` columns
    are set in place to the images' shapes and keep their type; missing
    ones are added as int32."""
    bufs, hs, ws = [], [], []
    for arr in images:
        if arr.dtype != np.uint8 or arr.ndim != 3 or arr.shape[2] != 3:
            raise ValueError("pixels must be uint8 h×w×3 RGB, got "
                             f"{arr.dtype} {arr.shape}")
        bufs.append(arr.tobytes())
        hs.append(arr.shape[0])
        ws.append(arr.shape[1])
    if "pixels" in table.schema.names:
        table = table.drop_columns(["pixels"])
    for name, vals in (("w", ws), ("h", hs)):
        i = table.schema.get_field_index(name)
        if i < 0:
            table = table.append_column(name, pa.array(vals, pa.int32()))
        else:
            table = table.set_column(i, name, pa.array(
                vals, table.schema.field(i).type))
    return table.append_column("pixels", pa.array(bufs, pa.binary()))


def decode_images(batch: pa.Table, *, keep_bytes: bool = False,
                  with_checksum: bool = False) -> pa.Table:
    """Decode stage: ``bytes`` + ``fmt`` → ``pixels``; the encoded payload
    is dropped unless ``keep_bytes`` (halves block size), and
    ``with_checksum`` adds the GDAL band checksums (conformance columns).
    A row that does not decode raises ``ValueError`` naming its
    ``image_id`` and ``fmt``."""
    from .stats import gdal_checksum
    ids = batch["image_id"].to_pylist()
    fmts = batch["fmt"].to_pylist()
    checks = []

    def images():
        for i, (arr, err) in enumerate(decoded_rows(batch)):
            if err is not None:
                raise ValueError(f"image {ids[i]!r} ({fmts[i]}) does not "
                                 f"decode: {err}") from err
            if with_checksum:
                checks.append([int(gdal_checksum(arr[:, :, b]))
                               for b in range(3)])
            yield arr

    out = batch if keep_bytes else batch.drop_columns(["bytes"])
    out = with_pixels(out, images())
    if with_checksum:
        arr = np.asarray(checks, dtype=np.int64).reshape(-1, 3)
        for b, name in enumerate(("checksum_r", "checksum_g", "checksum_b")):
            out = out.append_column(name, pa.array(arr[:, b]))
    return out


def add_georef(batch: pa.Table) -> pa.Table:
    """Stateless: derive center lat/lon + geotransform columns from
    ``image_id`` (the fixture georeferencing rule — the analog of reading a
    dataset's geotransform, gcore/gdaldataset.cpp:1380)."""
    idx = parse_image_idx(batch["image_id"].to_numpy(zero_copy_only=False))
    g = georef(idx, batch["w"].to_numpy(), batch["h"].to_numpy())
    for name in ("lat", "lon", "cx", "cy", "ulx", "uly", "psize"):
        batch = batch.append_column(name, pa.array(np.asarray(g[name], dtype=np.float64)))
    return batch


def add_cells(batch: pa.Table, hex_res: int = 9, s2_level: int = 12,
              lat_col: str = "lat", lon_col: str = "lon") -> pa.Table:
    """Stateless: H3-style hex cell + S2 cell id columns (SURVEY.md §7.1
    step 4 — vectorized encoders, `mb` stage)."""
    lat = batch[lat_col].to_numpy()
    lon = batch[lon_col].to_numpy()
    batch = batch.append_column("hexcell",
                                pa.array(hex_cell(lat, lon, hex_res)))
    s2 = s2_cell_id(lat, lon, s2_level).view(np.int64)  # int64 for Arrow
    batch = batch.append_column("s2cell", pa.array(s2))
    return batch
