"""Mapbox Vector Tile writer/reader — the reference's MVT driver
(ogr/ogrsf_frmts/mvt, which serializes vector_tile.proto via its own
protobuf runtime), re-implemented from scratch against the public MVT
2.1 specification: the protobuf wire format of georay/wire.py,
command-integer geometry streams, and the layer key/value dictionaries.

* ``encode_mvt({layer_name: [feature, ...]})`` → tile bytes.  A feature
  is ``{"geom": wkb, "attrs": {...}, "id": int?}`` with geometry in
  TILE coordinates (0..extent, y down) — use ``wkb_to_tile_coords`` to
  get there from EPSG:3857 meters for a given (z, x, y_tms) tile.
* ``decode_mvt(bytes)`` → the same structure back (tests + debugging).

Ring winding follows spec v2: exterior rings clockwise in y-down tile
space (positive surveyor's area per the spec formula), interiors
counter-clockwise; the encoder normalizes whatever the WKB carried.
"""

from __future__ import annotations

import struct

import numpy as np

from . import wire

__all__ = ["encode_mvt", "decode_mvt", "wkb_to_tile_coords"]

_MOVETO, _LINETO, _CLOSEPATH = 1, 2, 7


# ---------------------------------------------------------------------------
# geometry → command stream
# ---------------------------------------------------------------------------

def _ring_area2_screen(r: np.ndarray) -> float:
    """Surveyor's formula in y-DOWN tile space (the spec's convention:
    exterior rings have positive area here)."""
    x, y = r[:, 0], r[:, 1]
    return float(np.dot(x, np.roll(y, -1)) - np.dot(np.roll(x, -1), y)) \
        * -1.0


def _emit_path(cmds: list, pts: np.ndarray, cursor, close: bool):
    cx, cy = cursor
    n = len(pts) - (1 if close and len(pts) > 1
                    and (pts[0] == pts[-1]).all() else 0)
    pts = pts[:n]
    cmds.append((_MOVETO, 1))
    dx, dy = int(pts[0, 0]) - cx, int(pts[0, 1]) - cy
    cmds.append((dx, dy))
    cx, cy = int(pts[0, 0]), int(pts[0, 1])
    if len(pts) > 1:
        cmds.append((_LINETO, len(pts) - 1))
        for px, py in pts[1:]:
            cmds.append((int(px) - cx, int(py) - cy))
            cx, cy = int(px), int(py)
    if close:
        cmds.append((_CLOSEPATH, 1))
    return cx, cy


def _geom_commands(geom: dict):
    """GeoJSON-style geometry dict (tile coords) → (mvt_type,
    command-integer list)."""
    t = geom["type"]
    cmds = []
    cursor = (0, 0)
    if t in ("Point", "MultiPoint"):
        pts = np.asarray(geom["coordinates"] if t == "MultiPoint"
                         else [geom["coordinates"]], dtype=np.int64)
        out = [(_MOVETO, len(pts))]
        cx = cy = 0
        for px, py in pts:
            out.append((int(px) - cx, int(py) - cy))
            cx, cy = int(px), int(py)
        return 1, out
    if t in ("LineString", "MultiLineString"):
        parts = (geom["coordinates"] if t == "MultiLineString"
                 else [geom["coordinates"]])
        for p in parts:
            cursor = _emit_path(cmds, np.asarray(p, dtype=np.int64),
                                cursor, close=False)
        return 2, cmds
    if t in ("Polygon", "MultiPolygon"):
        polys = (geom["coordinates"] if t == "MultiPolygon"
                 else [geom["coordinates"]])
        for poly in polys:
            for k, ring in enumerate(poly):
                r = np.asarray(ring, dtype=np.int64)
                a2 = _ring_area2_screen(r)
                if (k == 0) != (a2 > 0):     # ext +, int − (spec v2)
                    r = r[::-1]
                cursor = _emit_path(cmds, r, cursor, close=True)
        return 3, cmds
    raise ValueError(f"MVT cannot store {t}")


def _pack_commands(pairs) -> list:
    """(cmd,count)/(dx,dy) pair stream → command integers."""
    out = []
    expect_params = 0
    for a, b in pairs:
        if expect_params == 0:
            out.append((b << 3) | a)
            if a != _CLOSEPATH:
                expect_params = b
        else:
            out.append(wire.zigzag(a))
            out.append(wire.zigzag(b))
            expect_params -= 1
    return out


def _encode_value(v) -> bytes:
    if isinstance(v, bool):
        return wire.varint_field(7, 1 if v else 0)
    if isinstance(v, int):
        return wire.varint_field(6, wire.zigzag(v))
    if isinstance(v, float):
        return wire.tag(3, 1) + struct.pack("<d", v)
    return wire.len_field(1, str(v).encode("utf-8"))


def _decode_value(payload: memoryview):
    """A Value message's first field."""
    got = wire.fields(payload, "mvt")
    if not got:
        raise ValueError("empty MVT Value")
    num, _, v = got[0]
    if num == 1:
        return bytes(v).decode("utf-8")
    if num == 3:
        return struct.unpack("<d", v)[0]
    if num == 2:
        return struct.unpack("<f", v)[0]
    if num == 6:
        return wire.unzigzag(v)
    if num in (4, 5):
        return v
    if num == 7:
        return bool(v)
    raise ValueError(f"unknown Value field {num}")


def encode_mvt(layers: dict, extent: int = 4096) -> bytes:
    """{layer_name: [{"geom": geojson-dict in tile coords,
    "attrs": {...}, "id": int?}, ...]} → MVT tile bytes."""
    from .geojson import wkb_to_geometry
    out = bytearray()
    for name, features in layers.items():
        keys, key_idx = [], {}
        vals, val_idx = [], {}
        fbufs = []
        for f in features:
            g = f["geom"]
            if isinstance(g, (bytes, bytearray, memoryview)):
                g = wkb_to_geometry(bytes(g))
            mvt_type, pairs = _geom_commands(g)
            ints = _pack_commands(pairs)
            tags = []
            for k, v in (f.get("attrs") or {}).items():
                if v is None:
                    continue
                if k not in key_idx:
                    key_idx[k] = len(keys)
                    keys.append(k)
                vk = (type(v).__name__, v)
                if vk not in val_idx:
                    val_idx[vk] = len(vals)
                    vals.append(v)
                tags += [key_idx[k], val_idx[vk]]
            fb = bytearray()
            if "id" in f and f["id"] is not None:
                fb += wire.varint_field(1, int(f["id"]))
            if tags:
                fb += wire.len_field(2, wire.varints(tags))
            fb += wire.varint_field(3, mvt_type)
            fb += wire.len_field(4, wire.varints(ints))
            fbufs.append(bytes(fb))
        lb = bytearray()
        lb += wire.varint_field(15, 2)            # version
        lb += wire.len_field(1, name.encode("utf-8"))
        for fb in fbufs:
            lb += wire.len_field(2, fb)
        for k in keys:
            lb += wire.len_field(3, k.encode("utf-8"))
        for v in vals:
            lb += wire.len_field(4, _encode_value(v))
        lb += wire.varint_field(5, extent)
        out += wire.len_field(3, bytes(lb))
    return bytes(out)


# ---------------------------------------------------------------------------
# decoder (tests / debugging)
# ---------------------------------------------------------------------------

def _decode_geometry(ints, mvt_type):
    pts, part, pos = [], [], 0
    cx = cy = 0
    i = 0
    while i < len(ints):
        cmd = ints[i]
        cid, cnt = cmd & 7, cmd >> 3
        i += 1
        if cid == _CLOSEPATH:
            if part:
                part.append(part[0])
                pts.append(part)
                part = []
            continue
        for _ in range(cnt):
            cx += wire.unzigzag(ints[i])
            cy += wire.unzigzag(ints[i + 1])
            i += 2
            if cid == _MOVETO and part:
                pts.append(part)
                part = []
            part.append([cx, cy])
    if part:
        pts.append(part)
    if mvt_type == 1:
        flat = [p for pp in pts for p in pp]
        return ({"type": "Point", "coordinates": flat[0]} if len(flat) == 1
                else {"type": "MultiPoint", "coordinates": flat})
    if mvt_type == 2:
        return ({"type": "LineString", "coordinates": pts[0]}
                if len(pts) == 1
                else {"type": "MultiLineString", "coordinates": pts})
    polys = []
    for ring in pts:
        r = np.asarray(ring, dtype=np.int64)
        if _ring_area2_screen(r) > 0:
            polys.append([ring])
        elif polys:
            polys[-1].append(ring)
        else:
            polys.append([ring])
    return ({"type": "Polygon", "coordinates": polys[0]}
            if len(polys) == 1
            else {"type": "MultiPolygon", "coordinates": polys})


def decode_mvt(data: bytes) -> dict:
    layers = {}
    for key, _, payload in wire.fields(memoryview(data), "mvt"):
        if key != 3:
            continue
        name, extent = "", 4096
        feats_raw, keys, vals = [], [], []
        for num, _, v in wire.fields(payload, "mvt"):
            if num == 1:
                name = bytes(v).decode("utf-8")
            elif num == 2:
                feats_raw.append(v)
            elif num == 3:
                keys.append(bytes(v).decode("utf-8"))
            elif num == 4:
                vals.append(_decode_value(v))
            elif num == 5:
                extent = v
        feats = []
        for fr in feats_raw:
            fid, tags, mvt_type, ints = None, [], 0, []
            for num, wt, v in wire.fields(fr, "mvt"):
                if wt == 2:
                    (tags if num == 2 else ints).extend(
                        wire.packed_varints(v, "mvt").tolist())
                elif num == 1:
                    fid = v
                elif num == 3:
                    mvt_type = v
            attrs = {keys[tags[k]]: vals[tags[k + 1]]
                     for k in range(0, len(tags), 2)}
            feats.append({"id": fid, "attrs": attrs,
                          "geom": _decode_geometry(ints, mvt_type)})
        layers[name] = {"extent": extent, "features": feats}
    return layers


def wkb_to_tile_coords(wkb: bytes, tx: int, ty_tms: int, zoom: int,
                       extent: int = 4096) -> dict:
    """WKB in EPSG:3857 meters → GeoJSON-style dict in integer tile
    coordinates (0..extent, y DOWN) of TMS tile (tx, ty, z) — ready for
    ``encode_mvt``.  No clipping: callers clip to the buffered tile
    first (overlay machinery) as the reference driver does."""
    from .geojson import wkb_to_geometry
    from .mercator import tile_bounds_meters
    minx, miny, maxx, maxy = tile_bounds_meters(tx, ty_tms, zoom)
    sx = extent / (maxx - minx)
    sy = extent / (maxy - miny)

    def conv(coords, depth):
        if depth == 0:
            x, y = coords[0], coords[1]
            return [int(round((x - minx) * sx)),
                    int(round((maxy - y) * sy))]
        return [conv(c, depth - 1) for c in coords]

    g = wkb_to_geometry(wkb)
    depth = {"Point": 0, "MultiPoint": 1, "LineString": 1,
             "MultiLineString": 2, "Polygon": 2, "MultiPolygon": 3}
    return {"type": g["type"],
            "coordinates": conv(g["coordinates"], depth[g["type"]])}
