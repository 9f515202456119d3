"""GDAL VRT dataset format — the .vrt XML virtual mosaic itself
(frmts/vrt/vrtdataset.cpp, vrtsources.cpp, vrtderivedrasterband.cpp;
writer = apps/gdalbuildvrt_lib.cpp).  :mod:`georay.vrt` serializes this
ENGINE's pipeline plans; THIS module reads/writes GDAL's actual on-disk
element vocabulary, so simple real-world .vrt files (SimpleSource /
ComplexSource windows, derived-band pixel functions) open directly:

* ``<VRTDataset rasterXSize rasterYSize>`` + ``<GeoTransform>`` (6
  comma-separated doubles) + optional ``<SRS>``.
* ``<VRTRasterBand dataType band [subClass="VRTDerivedRasterBand"]>``
  with ``<NoDataValue>`` and source elements.
* ``<SimpleSource>`` / ``<ComplexSource>`` / ``<AveragedSource>``:
  ``<SourceFilename relativeToVRT>``, ``<SourceBand>``,
  ``<SrcRect xOff yOff xSize ySize>``, ``<DstRect …>``; ComplexSource
  adds ``<ScaleOffset>``, ``<ScaleRatio>``, ``<NODATA>``.  A
  ``resampling`` attribute on the source selects the kernel (GDAL
  defaults SimpleSource to nearest; AveragedSource averages).
* derived bands: ``<PixelFunctionType>`` +
  ``<PixelFunctionArguments k="v"/>`` dispatched to the engine's
  ``_VRT_PIXEL_FUNCS`` registry (pixelfunctions.cpp analog) — each
  source is assembled to the full VRT grid and passed as one input.

Scale shape: ``vrt_tile_plan`` plans (tile × intersecting-sources)
driver-side from the RECTS ONLY (no pixel reads), and
:func:`render_vrt_tiles` assembles 8 planned tiles per Ray task —
one task touches only the source windows that overlap its tiles, the
block-based IRasterIO shape GDAL itself uses over VRTs.  Later sources
paint over earlier ones (vrtsources.cpp composition order).
"""

from __future__ import annotations

import os
import xml.etree.ElementTree as ET

import numpy as np

from .util import read_units, staged, worker_cached, worker_get

__all__ = ["vrt_parse", "vrt_read", "vrt_build", "vrt_tile_plan",
           "render_vrt_tiles", "read_vrt_tiles"]

_DT = {"Byte": np.uint8, "UInt16": np.uint16, "Int16": np.int16,
       "UInt32": np.uint32, "Int32": np.int32,
       "Float32": np.float32, "Float64": np.float64}
_DT_NAME = {np.dtype(v).name: k for k, v in _DT.items()}


def _rect(el) -> tuple[int, int, int, int]:
    # GDAL serializes these as doubles; windows are integral in practice
    return tuple(int(round(float(el.get(k))))
                 for k in ("xOff", "yOff", "xSize", "ySize"))


def vrt_parse(text: str) -> dict:
    """.vrt XML → plain-dict description (no pixels touched)."""
    root = ET.fromstring(text)
    if root.tag != "VRTDataset":
        raise ValueError("not a VRTDataset document")
    out = {"xsize": int(root.get("rasterXSize")),
           "ysize": int(root.get("rasterYSize")),
           "geotransform": None, "srs": None, "bands": []}
    gt = root.find("GeoTransform")
    if gt is not None:
        out["geotransform"] = tuple(float(v) for v in gt.text.split(","))
    srs = root.find("SRS")
    if srs is not None and srs.text:
        out["srs"] = srs.text.strip()
    for bel in root.findall("VRTRasterBand"):
        band = {"dtype": _DT[bel.get("dataType", "Byte")],
                "band": int(bel.get("band", len(out["bands"]) + 1)),
                "derived": bel.get("subClass") == "VRTDerivedRasterBand",
                "nodata": None, "pixel_function": None,
                "pixel_function_args": {}, "sources": []}
        nd = bel.find("NoDataValue")
        if nd is not None and nd.text:
            band["nodata"] = float(nd.text)
        pf = bel.find("PixelFunctionType")
        if pf is not None and pf.text:
            band["pixel_function"] = pf.text.strip()
        pfa = bel.find("PixelFunctionArguments")
        if pfa is not None:
            band["pixel_function_args"] = {
                k: _auto_num(v) for k, v in pfa.attrib.items()}
        for sel in bel:
            if sel.tag not in ("SimpleSource", "ComplexSource",
                               "AveragedSource"):
                continue
            fn = sel.find("SourceFilename")
            src = {"kind": sel.tag,
                   "path": fn.text.strip(),
                   "relative": fn.get("relativeToVRT", "0") == "1",
                   "band": int(getattr(sel.find("SourceBand"), "text",
                                       None) or 1),
                   "resampling": sel.get("resampling"),
                   "scale_ratio": 1.0, "scale_offset": 0.0, "nodata": None}
            sr, dr = sel.find("SrcRect"), sel.find("DstRect")
            src["src_rect"] = _rect(sr) if sr is not None else None
            src["dst_rect"] = _rect(dr) if dr is not None else None
            for tag, key in (("ScaleOffset", "scale_offset"),
                             ("ScaleRatio", "scale_ratio"),
                             ("NODATA", "nodata")):
                e = sel.find(tag)
                if e is not None and e.text:
                    src[key] = float(e.text)
            band["sources"].append(src)
        out["bands"].append(band)
    return out


def _auto_num(v: str):
    try:
        return int(v)
    except ValueError:
        try:
            return float(v)
        except ValueError:
            return v


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------

def _resolve(src: dict, base_dir: str) -> str:
    p = src["path"]
    return os.path.join(base_dir, p) if src["relative"] and not \
        os.path.isabs(p) else p


def _load_band(path: str, band: int, cache: dict) -> np.ndarray:
    arr = cache.get(path)
    if arr is None:
        from .simpleformats import open_raster
        arr = np.asarray(open_raster(path)[0])
        cache[path] = arr
    if arr.ndim == 2:
        if band != 1:
            raise ValueError(f"{path}: band {band} of single-band source")
        return arr
    return arr[:, :, band - 1]


def _paste_source(canvas: np.ndarray, src: dict, base_dir: str,
                  cache: dict, window=(0, 0, None, None)) -> None:
    """Render one source into ``canvas`` (vrtsources.cpp RasterIO).
    ``window`` = (xoff, yoff, xsize, ysize) of the canvas within the
    full VRT grid (the tile-read case); rect math stays in full-grid
    coordinates and clips to the window."""
    arr = _load_band(_resolve(src, base_dir), src["band"], cache)
    sx, sy, sw, sh = src["src_rect"] or (0, 0, arr.shape[1], arr.shape[0])
    dx, dy, dw, dh = src["dst_rect"] or (0, 0, sw, sh)
    piece = arr[sy:sy + sh, sx:sx + sw]
    if (dw, dh) != (sw, sh):
        from .tiles import _scale_to
        kern = src["resampling"] or (
            "average" if src["kind"] == "AveragedSource" else "near")
        piece = _scale_to(piece.astype(np.float64), dh, dw, kern)
    # ComplexSource NODATA masks RAW source values (before ScaleRatio)
    valid = piece != src["nodata"] if src["nodata"] is not None else None
    if src["scale_ratio"] != 1.0 or src["scale_offset"] != 0.0:
        piece = piece * src["scale_ratio"] + src["scale_offset"]
    wx, wy, ww, wh = window
    ww = canvas.shape[1] if ww is None else ww
    wh = canvas.shape[0] if wh is None else wh
    # clip the dst rect to the canvas window
    x0, y0 = max(dx, wx), max(dy, wy)
    x1, y1 = min(dx + dw, wx + ww), min(dy + dh, wy + wh)
    if x1 <= x0 or y1 <= y0:
        return
    sub = piece[y0 - dy:y1 - dy, x0 - dx:x1 - dx]
    if valid is not None:                        # ComplexSource NODATA
        mask = valid[y0 - dy:y1 - dy, x0 - dx:x1 - dx]
        tgt = canvas[y0 - wy:y1 - wy, x0 - wx:x1 - wx]
        tgt[mask] = sub.astype(canvas.dtype, copy=False)[mask]
    else:
        canvas[y0 - wy:y1 - wy, x0 - wx:x1 - wx] = \
            sub.astype(canvas.dtype, copy=False)


def _render_band(band: dict, base_dir: str, w: int, h: int,
                 cache: dict, window=(0, 0, None, None)) -> np.ndarray:
    wx, wy, ww, wh = window
    ww, wh = (w if ww is None else ww), (h if wh is None else wh)
    if band["derived"]:
        # each source renders to its own full-window input array
        inputs = []
        for src in band["sources"]:
            c = np.zeros((wh, ww), dtype=np.float64)
            _paste_source(c, src, base_dir, cache, (wx, wy, ww, wh))
            inputs.append(c)
        from .raster import pixel_function
        out = pixel_function(band["pixel_function"], inputs,
                             **band["pixel_function_args"])
        return np.asarray(out).astype(band["dtype"], copy=False)
    canvas = np.full((wh, ww),
                     band["nodata"] if band["nodata"] is not None else 0,
                     dtype=band["dtype"])
    for src in band["sources"]:
        _paste_source(canvas, src, base_dir, cache, (wx, wy, ww, wh))
    return canvas


def _parse_file(path: str) -> tuple[dict, str]:
    """``(vrt_parse of the file, its directory)`` — relative sources
    resolve against that directory."""
    with open(path, "r", encoding="utf-8") as f:
        return vrt_parse(f.read()), os.path.dirname(os.path.abspath(path))


def vrt_read(path: str):
    """Open + assemble a .vrt → ``(array, geotransform, nodata)``
    (GDALOpen-on-VRT analog; full-extent single read)."""
    meta, base = _parse_file(path)
    cache: dict = {}
    w, h = meta["xsize"], meta["ysize"]
    planes = [_render_band(b, base, w, h, cache) for b in meta["bands"]]
    arr = planes[0] if len(planes) == 1 else np.stack(planes, axis=-1)
    nodata = meta["bands"][0]["nodata"] if meta["bands"] else None
    return arr, meta["geotransform"], nodata


# ---------------------------------------------------------------------------
# gdalbuildvrt (apps/gdalbuildvrt_lib.cpp)
# ---------------------------------------------------------------------------

def vrt_build(paths: list[str], out_path: str | None = None, *,
              resolution: str = "highest", nodata: float | None = None,
              srs: str | None = None) -> str:
    """Union mosaic .vrt over north-up georeferenced rasters — extent is
    the bounding union, resolution per the gdalbuildvrt -resolution
    rule (highest|lowest|first = min|max|first pixel size), one
    SimpleSource per (band, input) placed by its geotransform."""
    from .simpleformats import open_raster
    infos = []
    for p in paths:
        arr, gt, nd = open_raster(p)
        arr = np.asarray(arr)
        if gt is None or gt[2] != 0 or gt[4] != 0:
            raise ValueError(f"{p}: gdalbuildvrt needs a north-up "
                             "geotransform")
        infos.append((p, arr.shape[1], arr.shape[0],
                      arr.shape[2] if arr.ndim == 3 else 1,
                      np.asarray(arr).dtype, gt, nd))
    xres_all = [abs(i[5][1]) for i in infos]
    yres_all = [abs(i[5][5]) for i in infos]
    if resolution == "highest":
        xres, yres = min(xres_all), min(yres_all)
    elif resolution == "lowest":
        xres, yres = max(xres_all), max(yres_all)
    else:
        xres, yres = xres_all[0], yres_all[0]
    xmin = min(i[5][0] for i in infos)
    ymax = max(i[5][3] for i in infos)
    xmax = max(i[5][0] + i[5][1] * i[1] for i in infos)
    ymin = min(i[5][3] + i[5][5] * i[2] for i in infos)
    w = int(round((xmax - xmin) / xres))
    h = int(round((ymax - ymin) / yres))
    nbands = max(i[3] for i in infos)
    dtype = infos[0][4]

    root = ET.Element("VRTDataset", rasterXSize=str(w), rasterYSize=str(h))
    if srs:
        ET.SubElement(root, "SRS").text = srs
    ET.SubElement(root, "GeoTransform").text = (
        f"{xmin!r}, {xres!r}, 0.0, {ymax!r}, 0.0, {-yres!r}")
    base = os.path.dirname(os.path.abspath(out_path)) if out_path else None
    for b in range(1, nbands + 1):
        bel = ET.SubElement(root, "VRTRasterBand",
                            dataType=_DT_NAME[np.dtype(dtype).name],
                            band=str(b))
        if nodata is not None:
            ET.SubElement(bel, "NoDataValue").text = repr(nodata)
        for (p, sw, sh, sb, _dt, gt, _nd) in infos:
            if b > sb:
                continue
            sel = ET.SubElement(bel, "SimpleSource")
            relpath = os.path.relpath(os.path.abspath(p), base) \
                if base is not None else ".."
            rel = not relpath.startswith("..")   # gdalbuildvrt -relative
            fe = ET.SubElement(sel, "SourceFilename",
                               relativeToVRT="1" if rel else "0")
            fe.text = relpath if rel else os.path.abspath(p)
            ET.SubElement(sel, "SourceBand").text = str(b)
            ET.SubElement(sel, "SrcRect", xOff="0", yOff="0",
                          xSize=str(sw), ySize=str(sh))
            dx = int(round((gt[0] - xmin) / xres))
            dy = int(round((ymax - gt[3]) / yres))
            dw = int(round(sw * abs(gt[1]) / xres))
            dh = int(round(sh * abs(gt[5]) / yres))
            ET.SubElement(sel, "DstRect", xOff=str(dx), yOff=str(dy),
                          xSize=str(dw), ySize=str(dh))
    ET.indent(root)
    text = ET.tostring(root, encoding="unicode")
    if out_path:
        with staged(out_path) as tmp, open(tmp, "w", encoding="utf-8") as f:
            f.write(text)
    return text


# ---------------------------------------------------------------------------
# Ray-parallel tiled read
# ---------------------------------------------------------------------------

def vrt_tile_plan(path: str, tile: int = 512) -> list[dict]:
    """Driver-side plan: one row per output tile listing ONLY the source
    indices whose DstRect intersects it (rect math, no pixel reads) —
    empty tiles are skipped entirely.  Feed to :func:`render_vrt_tiles`."""
    meta, _ = _parse_file(path)
    w, h = meta["xsize"], meta["ysize"]
    rows = []
    for ty in range(0, h, tile):
        for tx in range(0, w, tile):
            tw, th = min(tile, w - tx), min(tile, h - ty)
            hit = False
            for band in meta["bands"]:
                for src in band["sources"]:
                    dx, dy, dw, dh = src["dst_rect"] or (0, 0, w, h)
                    if dx < tx + tw and dx + dw > tx and \
                            dy < ty + th and dy + dh > ty:
                        hit = True
                        break
                if hit:
                    break
            if hit:
                rows.append({"vrt_path": os.path.abspath(path),
                             "tile_x": tx // tile, "tile_y": ty // tile,
                             "xoff": tx, "yoff": ty,
                             "xsize": tw, "ysize": th})
    return rows


def render_vrt_tiles(batch, *, vrt_ref):
    """Assemble a table of planned tiles of one VRT.  ``vrt_ref`` is
    a ``ray.put`` ref of its :func:`_parse_file` result, fetched once per
    worker process; the decoded sources are cached per worker under the
    same ref, so each source decodes once per worker, shared across that
    worker's tiles."""
    import pyarrow as pa
    from .gtiff import tiff_encode
    meta, base = worker_get(vrt_ref)
    sources = worker_cached(("vrt_sources", vrt_ref.hex()), dict)
    out_bytes, out_sum = [], []
    for row in batch.to_pylist():
        win = (row["xoff"], row["yoff"], row["xsize"], row["ysize"])
        planes = [_render_band(b, base, meta["xsize"], meta["ysize"],
                               sources, win)
                  for b in meta["bands"]]
        arr = planes[0] if len(planes) == 1 else np.stack(planes, -1)
        out_bytes.append(tiff_encode(arr))
        out_sum.append(float(np.asarray(arr, np.float64).sum()))
    return batch.append_column(
        "bytes", pa.array(out_bytes, pa.binary())).append_column(
        "pixel_sum", pa.array(out_sum, pa.float64()))


def _vrt_tile_group(unit: dict, *, vrt_ref):
    """One unit of planned tiles, assembled by :func:`render_vrt_tiles`."""
    import pyarrow as pa
    return render_vrt_tiles(pa.Table.from_pylist(unit["tiles"]),
                            vrt_ref=vrt_ref)


def read_vrt_tiles(path: str, tile: int = 512):
    """Ray source over a .vrt: tile plan → task-based assembly, 8 planned
    tiles per task.  Each task reads only the source windows overlapping
    its tiles; output is one GeoTIFF-encoded tile per row (compose/write
    with tiles.py)."""
    import ray
    plan = vrt_tile_plan(path, tile)
    return read_units([{"tiles": plan[i:i + 8]}
                       for i in range(0, len(plan), 8)], _vrt_tile_group,
                      vrt_ref=ray.put(_parse_file(path)))
