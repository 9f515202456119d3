"""Image decode / georeference stages for ``map_batches``.

All three are stateless batch functions, run as plain Ray tasks with
their options passed through ``fn_kwargs``; ``add_georef`` and
``add_cells`` are pure math.  Batches stay ``pyarrow`` end-to-end; decoded
pixels travel as a raw ``binary`` column (``pixels`` = uint8 RGB buffer,
C-order h×w×3) next to their shape columns — zero-copy in/out of the
object store, no Python object columns.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from . import codecs
from .cells import hex_cell, s2_cell_id
from .fixtures import georef, parse_image_idx

__all__ = ["decode_images", "add_georef", "add_cells", "decoded_pixels"]


def decode_images(batch: pa.Table, *, keep_bytes: bool = False,
                  with_checksum: bool = False) -> pa.Table:
    """Decode stage: ``bytes`` + ``fmt`` → ``pixels``; the encoded payload
    is dropped unless ``keep_bytes`` (halves block size), and
    ``with_checksum`` adds the GDAL band checksums (conformance columns)."""
    from .stats import gdal_checksum
    pixels, checks = [], []
    for data, fmt in zip(batch["bytes"].to_pylist(),
                         batch["fmt"].to_pylist()):
        arr = codecs.decode_image(data, fmt)
        if arr.ndim == 2:
            arr = np.stack([arr] * 3, axis=2)
        pixels.append(arr.tobytes())
        if with_checksum:
            checks.append([int(gdal_checksum(arr[:, :, b]))
                           for b in range(3)])
    out = batch if keep_bytes else batch.drop_columns(["bytes"])
    out = out.append_column("pixels", pa.array(pixels, pa.binary()))
    if with_checksum:
        arr = np.asarray(checks, dtype=np.int64).reshape(-1, 3)
        for b, name in enumerate(("checksum_r", "checksum_g", "checksum_b")):
            out = out.append_column(name, pa.array(arr[:, b]))
    return out


def decoded_pixels(batch: pa.Table, row: int) -> np.ndarray:
    """View one row's ``pixels`` buffer as an (h, w, 3) uint8 array."""
    h = batch["h"][row].as_py()
    w = batch["w"][row].as_py()
    buf = batch["pixels"][row].as_buffer()
    return np.frombuffer(buf, dtype=np.uint8).reshape(h, w, 3)


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
