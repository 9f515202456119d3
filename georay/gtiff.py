"""GeoTIFF raster driver — the reference's flagship format
(frmts/gtiff, which wraps libtiff/libgeotiff), re-implemented from
scratch against the public TIFF 6.0 specification and the OGC GeoTIFF
1.1 standard.

* ``tiff_decode``: bytes → (array, meta).  Both byte orders; striped
  and tiled layouts; compression none / Deflate / PackBits / LZW (the
  TIFF variant with early code-size change) / new-style JPEG (code 7,
  abbreviated streams + shared tag-347 JPEGTables, decoded by the
  from-scratch codec in georay/jpeg.py — frmts/gtiff COMPRESS=JPEG);
  horizontal-differencing predictor; uint8/uint16/uint32/float32/
  float64 chunky samples.
  ``meta`` carries ``geotransform`` (GDAL 6-tuple) and ``crs``
  ("EPSG:xxxx") recovered from ModelPixelScale/ModelTiepoint and the
  GeoKey directory, plus decoded overview levels.
* ``tiff_encode``: array → striped TIFF (Deflate by default) with
  GeoTIFF tags.
* ``cog_encode``: array → Cloud-Optimized GeoTIFF layout: 256×256
  Deflate tiles, 2× average overviews as reduced-resolution IFDs
  (NewSubfileType=1), ALL IFDs at the head of the file before pixel
  data — the property that makes range-request reads cheap, which is
  exactly what a remote-first engine wants from its sink.

Arrays are (h, w) single-band or (h, w, s) chunky multi-band, matching
the engine's decoded-pixels convention (codecs.py).
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

__all__ = ["tiff_decode", "tiff_encode", "cog_encode",
           "packbits_encode", "packbits_decode",
           "lzw_encode", "lzw_decode"]

_T_BYTE, _T_ASCII, _T_SHORT, _T_LONG, _T_RATIONAL = 1, 2, 3, 4, 5
_T_SBYTE, _T_UNDEF, _T_SSHORT, _T_SLONG = 6, 7, 8, 9
_T_FLOAT, _T_DOUBLE = 11, 12
_TYPE_SIZE = {1: 1, 2: 1, 3: 2, 4: 4, 5: 8, 6: 1, 7: 1, 8: 2, 9: 4,
              10: 8, 11: 4, 12: 8, 16: 8, 17: 8, 18: 8}
_TYPE_FMT = {3: "H", 4: "I", 8: "h", 9: "i", 11: "f", 12: "d",
             16: "Q", 17: "q", 18: "Q"}


# ---------------------------------------------------------------------------
# PackBits (TIFF 6.0 §9) and TIFF-LZW (TIFF 6.0 §13, early change)
# ---------------------------------------------------------------------------

def packbits_decode(data: bytes, expected: int) -> bytes:
    out = bytearray()
    i, n = 0, len(data)
    while i < n and len(out) < expected:
        h = data[i]
        i += 1
        if h < 128:                      # literal run of h+1 bytes
            out += data[i:i + h + 1]
            i += h + 1
        elif h > 128:                    # repeat next byte 257-h times
            out += data[i:i + 1] * (257 - h)
            i += 1
        # h == 128: no-op
    return bytes(out)


def packbits_encode(data: bytes) -> bytes:
    out = bytearray()
    i, n = 0, len(data)
    while i < n:
        # find a repeat run
        j = i
        while j + 1 < n and data[j + 1] == data[j] and j - i < 127:
            j += 1
        if j > i:                        # run of j-i+1 identical bytes
            out.append(257 - (j - i + 1))
            out.append(data[i])
            i = j + 1
        else:                            # literal run until next repeat
            j = i
            while (j + 1 < n and j - i < 127
                   and not (j + 2 < n and data[j + 1] == data[j + 2])):
                j += 1
            out.append(j - i)
            out += data[i:j + 1]
            i = j + 1
    return bytes(out)


_LZW_CLEAR, _LZW_EOI = 256, 257


def lzw_decode(data: bytes, expected: int) -> bytes:
    """TIFF-variant LZW: MSB-first codes, 9→12 bits with EARLY change
    (width grows one code before the table strictly requires it)."""
    out = bytearray()
    table = []
    width = 9
    acc = bits = 0
    prev = None
    pos = 0
    n = len(data)
    while pos < n or bits >= width:
        while bits < width and pos < n:
            acc = (acc << 8) | data[pos]
            pos += 1
            bits += 8
        if bits < width:
            break
        code = (acc >> (bits - width)) & ((1 << width) - 1)
        bits -= width
        if code == _LZW_CLEAR:
            table = [bytes([i]) for i in range(256)] + [b"", b""]
            width = 9
            prev = None
            continue
        if code == _LZW_EOI:
            break
        if prev is None:
            entry = table[code]
        elif code < len(table):
            entry = table[code]
            table.append(prev + entry[:1])
        else:                            # KwKwK case
            entry = prev + prev[:1]
            table.append(entry)
        out += entry
        prev = entry
        # early change, one entry EARLIER than the encoder because the
        # decoder's table lags the encoder's by exactly one entry
        if len(table) + 2 >= (1 << width) and width < 12:
            width += 1
        if len(out) >= expected:
            break
    return bytes(out[:expected])


def lzw_encode(data: bytes) -> bytes:
    out = bytearray()
    acc = bits = 0

    def put(code, width):
        nonlocal acc, bits
        acc = (acc << width) | code
        bits += width
        while bits >= 8:
            out.append((acc >> (bits - 8)) & 0xFF)
            bits -= 8

    table = {bytes([i]): i for i in range(256)}
    next_code = 258
    width = 9
    put(_LZW_CLEAR, width)
    w = b""
    for b in data:
        wc = w + bytes([b])
        if wc in table:
            w = wc
            continue
        put(table[w], width)
        table[wc] = next_code
        next_code += 1
        if next_code == (1 << width) - 1 and width < 12:
            width += 1                   # early change, mirror of decode
        elif next_code == 4094:          # table full: clear
            put(_LZW_CLEAR, width)
            table = {bytes([i]): i for i in range(256)}
            next_code = 258
            width = 9
        w = bytes([b])
    if w:
        put(table[w], width)
    put(_LZW_EOI, width)
    if bits:
        out.append((acc << (8 - bits)) & 0xFF)
    return bytes(out)


# ---------------------------------------------------------------------------
# Reader
# ---------------------------------------------------------------------------

def _read_ifd(data: memoryview, off: int, e: str, big: bool = False):
    """One IFD → (tags, next_off).  ``big`` = BigTIFF IFD8 layout
    (u64 entry count, 20-byte entries, u64 value slots, u64 next)."""
    if big:
        n = struct.unpack_from(e + "Q", data, off)[0]
        head, esz, vsz, vfmt = 8, 20, 8, "Q"
    else:
        n = struct.unpack_from(e + "H", data, off)[0]
        head, esz, vsz, vfmt = 2, 12, 4, "I"
    tags = {}
    for i in range(n):
        ent = off + head + esz * i
        if big:
            tag, typ = struct.unpack_from(e + "HH", data, ent)
            cnt = struct.unpack_from(e + "Q", data, ent + 4)[0]
        else:
            tag, typ, cnt = struct.unpack_from(e + "HHI", data, ent)
        size = _TYPE_SIZE.get(typ, 1) * cnt
        voff = ent + (12 if big else 8)
        if size > vsz:
            voff = struct.unpack_from(e + vfmt, data, voff)[0]
        if typ in _TYPE_FMT:
            vals = struct.unpack_from(e + str(cnt) + _TYPE_FMT[typ],
                                      data, voff)
        elif typ == _T_RATIONAL:
            raw = struct.unpack_from(e + str(2 * cnt) + "I", data, voff)
            vals = tuple(raw[2 * k] / max(raw[2 * k + 1], 1)
                         for k in range(cnt))
        elif typ == _T_ASCII:
            vals = (bytes(data[voff:voff + cnt]).split(b"\0")[0]
                    .decode("ascii", "replace"),)
        else:
            vals = (bytes(data[voff:voff + cnt]),)
        tags[tag] = vals
    nxt = struct.unpack_from(e + ("Q" if big else "I"), data,
                             off + head + esz * n)[0]
    return tags, nxt


def _dtype_of(tags, e: str):
    bps = tags.get(258, (8,))[0]
    fmt = tags.get(339, (1,))[0]
    kind = {1: "u", 2: "i", 3: "f"}[fmt]
    return np.dtype(e.replace("<", "<").replace(">", ">")
                    + kind + str(bps // 8)) if False else \
        np.dtype((e if e != "=" else "<") + kind + str(bps // 8))


def _decompress(chunk: bytes, comp: int, expected: int) -> bytes:
    if comp == 1:
        return chunk
    if comp in (8, 32946):
        return zlib.decompress(chunk)
    if comp == 32773:
        return packbits_decode(chunk, expected)
    if comp == 5:
        return lzw_decode(chunk, expected)
    raise ValueError(f"unsupported TIFF compression {comp}")


# -- JPEG-in-TIFF (compression 7, "new-style"; frmts/gtiff COMPRESS=JPEG) --

def _jpeg_split_tables(jfif: bytes):
    """Full JFIF → (tables_stream, abbreviated_stream): DQT/DHT segments
    move to a JPEGTables (tag 347) stream ``SOI tables EOI``; the
    abbreviated per-block stream keeps everything else (TIFF 6.0 TechNote
    2 / TIFF-EP layout libtiff's JPEG codec writes)."""
    tables, rest = [], []
    n = len(jfif)
    off = 2                                  # past SOI
    while off + 4 <= n:
        if jfif[off] != 0xFF:
            break
        marker = jfif[off + 1]
        if marker == 0xDA:                   # SOS: entropy data to EOI
            rest.append(jfif[off:])
            break
        (seglen,) = struct.unpack_from(">H", jfif, off + 2)
        seg = jfif[off:off + 2 + seglen]
        (tables if marker in (0xDB, 0xC4) else rest).append(seg)
        off += 2 + seglen
    return (b"\xFF\xD8" + b"".join(tables) + b"\xFF\xD9",
            b"\xFF\xD8" + b"".join(rest))


def _jpeg_block_decode(chunk: bytes, tables: bytes | None) -> np.ndarray:
    """One strip/tile stream (+ optional shared JPEGTables) → pixels."""
    from .jpeg import jpeg_decode
    if tables is not None and len(tables) > 4:
        chunk = chunk[:2] + tables[2:-2] + chunk[2:]
    a = np.asarray(jpeg_decode(bytes(chunk)))
    return a if a.ndim == 3 else a[:, :, None]


def _undo_predictor(arr: np.ndarray) -> np.ndarray:
    return np.cumsum(arr, axis=1, dtype=arr.dtype)


def _decode_one(data: memoryview, tags, e: str):
    ends = [o + c for o, c in zip(tags.get(324, tags.get(273, ())),
                                  tags.get(325, tags.get(279, ())))]
    if max(ends, default=0) > len(data):
        raise ValueError(f"truncated tiff at byte {len(data)}")
    w = int(tags[256][0])
    h = int(tags[257][0])
    spp = int(tags.get(277, (1,))[0])
    comp = int(tags.get(259, (1,))[0])
    pred = int(tags.get(317, (1,))[0])
    dt = _dtype_of(tags, e)
    jtables = bytes(tags[347][0]) if comp == 7 and 347 in tags else None
    if 322 in tags:                      # tiled
        tw, th = int(tags[322][0]), int(tags[323][0])
        offs, cnts = tags[324], tags[325]
        across = -(-w // tw)
        out = np.zeros((h, w, spp), dtype=dt)
        nbytes = tw * th * spp * dt.itemsize
        for k, (o, c) in enumerate(zip(offs, cnts)):
            if comp == 7:
                tile = _jpeg_block_decode(bytes(data[o:o + c]), jtables)
            else:
                raw = _decompress(bytes(data[o:o + c]), comp, nbytes)
                tile = np.frombuffer(
                    raw, dtype=dt,
                    count=tw * th * spp).reshape(th, tw, spp)
                if pred == 2:
                    tile = _undo_predictor(tile)
            ty, tx = divmod(k, across)
            y0, x0 = ty * th, tx * tw
            out[y0:y0 + th, x0:x0 + tw] = \
                tile[:min(th, h - y0), :min(tw, w - x0)]
        return out[..., 0] if spp == 1 else out
    rps = int(tags.get(278, (h,))[0])
    offs, cnts = tags[273], tags[279]
    rows = []
    for k, (o, c) in enumerate(zip(offs, cnts)):
        nrows = min(rps, h - k * rps)
        if comp == 7:
            strip = _jpeg_block_decode(bytes(data[o:o + c]), jtables)
        else:
            nbytes = nrows * w * spp * dt.itemsize
            raw = _decompress(bytes(data[o:o + c]), comp, nbytes)
            strip = np.frombuffer(
                raw, dtype=dt,
                count=nrows * w * spp).reshape(nrows, w, spp)
            if pred == 2:
                strip = _undo_predictor(strip)
        rows.append(strip)
    out = np.vstack(rows)
    return out[..., 0] if spp == 1 else out


def _geo_meta(tags):
    meta = {}
    if 33550 in tags and 33922 in tags:
        sx, sy = tags[33550][0], tags[33550][1]
        i, j, _, x, y, _ = tags[33922][:6]
        meta["geotransform"] = (x - i * sx, sx, 0.0, y + j * sy, 0.0, -sy)
    if 34735 in tags:
        keys = tags[34735]
        for k in range(4, len(keys), 4):
            kid, loc, cnt, val = keys[k:k + 4]
            if kid in (3072, 2048) and loc == 0:     # PCS / GCS code
                meta["crs"] = f"EPSG:{val}"
    return meta


def tiff_decode(data: bytes, overview: int | None = None):
    """TIFF/GeoTIFF bytes → (array, meta).  ``overview=k`` selects the
    k-th reduced-resolution IFD (0 = full resolution); meta lists all
    levels as ``meta['levels'] = [(h, w), ...]``."""
    data = memoryview(data)
    bom = bytes(data[:2])
    e = {"II": "<", "MM": ">"}.get(bom.decode("ascii", "replace"))
    magic = None if e is None else struct.unpack_from(e + "H", data, 2)[0]
    if e is None or magic not in (42, 43):
        raise ValueError("not a TIFF file")
    big = magic == 43
    if big:
        osz, pad = struct.unpack_from(e + "HH", data, 4)
        if osz != 8 or pad != 0:
            raise ValueError("malformed BigTIFF header")
        off = struct.unpack_from(e + "Q", data, 8)[0]
    else:
        off = struct.unpack_from(e + "I", data, 4)[0]
    ifds = []
    try:
        while off:
            tags, off = _read_ifd(data, off, e, big)
            ifds.append(tags)
    except struct.error:
        raise ValueError(f"truncated tiff at byte {len(data)}") from None
    levels = [(int(t[257][0]), int(t[256][0])) for t in ifds]
    pick = ifds[overview or 0]
    arr = _decode_one(data, pick, e)
    meta = _geo_meta(ifds[0])
    meta["levels"] = levels
    return arr, meta


# ---------------------------------------------------------------------------
# Writer
# ---------------------------------------------------------------------------

_COMP_CODE = {"none": 1, "deflate": 8, "packbits": 32773, "lzw": 5,
              "jpeg": 7}


def _jpeg_encode_blocks(parts, quality: int):
    """Pixel blocks → (abbreviated streams, shared JPEGTables bytes).
    All blocks share one quality → identical DQT/DHT, so the tables of
    the first block ARE the shared tag-347 stream (libtiff writes the
    same layout for COMPRESS=JPEG)."""
    from .jpeg import jpeg_encode
    streams, tables = [], None
    for part in parts:
        a = part[..., 0] if part.ndim == 3 and part.shape[2] == 1 else part
        if a.dtype != np.uint8:
            raise ValueError("JPEG-in-TIFF needs uint8 samples")
        full = jpeg_encode(a, quality=quality)
        t, abbrev = _jpeg_split_tables(full)
        if tables is None:
            tables = t
        streams.append(abbrev)
    return streams, tables or b"\xFF\xD8\xFF\xD9"


def _compress(raw: bytes, comp: str) -> bytes:
    if comp == "none":
        return raw
    if comp == "deflate":
        return zlib.compress(raw, 6)
    if comp == "packbits":
        return packbits_encode(raw)
    if comp == "lzw":
        return lzw_encode(raw)
    raise ValueError(comp)


def _sample_format(dt: np.dtype) -> int:
    return {"u": 1, "i": 2, "f": 3}[dt.kind]


def _geo_tags(geotransform, crs):
    tags = []
    if geotransform is not None:
        gt = geotransform
        if gt[2] or gt[4]:
            raise ValueError("rotated geotransforms need ModelTransform "
                             "— not supported")
        tags.append((33550, _T_DOUBLE, (gt[1], -gt[5], 0.0)))
        tags.append((33922, _T_DOUBLE, (0.0, 0.0, 0.0,
                                        gt[0], gt[3], 0.0)))
    if crs is not None:
        code = int(str(crs).split(":")[1])
        geographic = code == 4326 or 4000 <= code < 5000
        key = 2048 if geographic else 3072
        model = 2 if geographic else 1
        tags.append((34735, _T_SHORT,
                     (1, 1, 0, 3,
                      1024, 0, 1, model,       # GTModelType
                      1025, 0, 1, 1,           # GTRasterType = PixelIsArea
                      key, 0, 1, code)))
    return tags


def _pack_ifds(ifd_specs, data_blocks, big: bool = False):
    """Assemble header + all IFDs (up front, COG-style) + value arrays +
    pixel data; patch chunk-offset tags once positions are known.
    ``big`` = BigTIFF (magic 43, 16-byte header, IFD8 20-byte entries,
    u64 counts/offsets/value slots; chunk-offset tags widen to LONG8 so
    files address past 4 GiB — frmts/gtiff BIGTIFF=YES)."""
    # layout: header | IFDs | oversize tag values | pixel data
    head_sz = 16 if big else 8
    ehead, esz, vsz = (8, 20, 8) if big else (2, 12, 4)
    if big:
        ifd_specs = [([(tag, (16 if tag == chunk_tag and typ == 4
                              else typ), vals)
                       for tag, typ, vals in tags], chunk_tag)
                     for tags, chunk_tag in ifd_specs]
    ifd_sizes = [ehead + esz * len(tags) + vsz for tags, _ in ifd_specs]
    pos_ifd = [head_sz]
    for s in ifd_sizes[:-1]:
        pos_ifd.append(pos_ifd[-1] + s)
    val_pos = pos_ifd[-1] + ifd_sizes[-1]
    # first pass: compute oversize-value area size
    def vbytes(typ, vals):
        if typ == _T_ASCII:
            return len(vals[0]) + 1
        if typ in (1, 7) and vals and isinstance(vals[0], (bytes,
                                                           bytearray)):
            return len(vals[0])              # raw BYTE/UNDEFINED payload
        return _TYPE_SIZE[typ] * len(vals)
    val_area = 0
    for tags, _ in ifd_specs:
        for tag, typ, vals in tags:
            b = vbytes(typ, vals)
            if b > vsz:
                val_area += b + (b & 1)
    data_pos = val_pos + val_area
    # assign chunk offsets
    chunk_offsets = []
    p = data_pos
    for blocks in data_blocks:
        offs = []
        for b in blocks:
            offs.append(p)
            p += len(b) + (len(b) & 1)
        chunk_offsets.append(offs)
    if big:
        out = bytearray(struct.pack("<2sHHHQ", b"II", 43, 8, 0, 16))
    else:
        out = bytearray(struct.pack("<2sHI", b"II", 42, 8))
    vcursor = val_pos
    vbuf = bytearray()
    cnt_fmt = "Q" if big else "I"
    for idx, (tags, chunk_tag) in enumerate(ifd_specs):
        full = []
        for tag, typ, vals in tags:
            if tag == chunk_tag:
                vals = tuple(chunk_offsets[idx])
            full.append((tag, typ, vals))
        full.sort()
        out += struct.pack("<" + ("Q" if big else "H"), len(full))
        for tag, typ, vals in full:
            if typ == _T_ASCII:
                payload = vals[0].encode("ascii") + b"\0"
                cnt = len(payload)
            elif typ in (1, 7) and vals and isinstance(
                    vals[0], (bytes, bytearray)):
                payload = bytes(vals[0])     # raw BYTE/UNDEFINED payload
                cnt = len(payload)
            else:
                payload = struct.pack("<" + str(len(vals))
                                      + _TYPE_FMT[typ], *vals)
                cnt = len(vals)
            if len(payload) <= vsz:
                out += struct.pack("<HH" + cnt_fmt, tag, typ, cnt)
                out += payload.ljust(vsz, b"\0")
            else:
                out += struct.pack("<HH" + cnt_fmt + cnt_fmt,
                                   tag, typ, cnt, vcursor)
                vbuf += payload
                if len(payload) & 1:
                    vbuf += b"\0"
                vcursor += len(payload) + (len(payload) & 1)
        nxt = pos_ifd[idx + 1] if idx + 1 < len(ifd_specs) else 0
        out += struct.pack("<" + cnt_fmt, nxt)
    out += vbuf
    for blocks in data_blocks:
        for b in blocks:
            out += b
            if len(b) & 1:
                out += b"\0"
    return bytes(out)


def _base_tags(arr: np.ndarray, comp: str, predictor: int):
    h, w = arr.shape[:2]
    spp = 1 if arr.ndim == 2 else arr.shape[2]
    dt = arr.dtype
    if predictor == 2 and dt.kind not in "ui":
        raise ValueError("predictor 2 (horizontal differencing) is "
                         "integer-only in TIFF 6.0; floats use "
                         "predictor 3")
    if comp == "jpeg":
        if predictor != 1:
            raise ValueError("JPEG-in-TIFF takes no predictor")
        if spp not in (1, 3):
            raise ValueError("JPEG-in-TIFF needs 1 or 3 samples")
    # COMPRESS=JPEG stores YCbCr for RGB (photometric 6) like the
    # reference's GTiff driver; our streams are 4:4:4 (tag 530 = 1,1)
    photometric = 6 if (comp == "jpeg" and spp >= 3) \
        else (2 if spp >= 3 else 1)
    tags = [
        (256, _T_LONG, (w,)), (257, _T_LONG, (h,)),
        (258, _T_SHORT, (dt.itemsize * 8,) * spp),
        (259, _T_SHORT, (_COMP_CODE[comp],)),
        (262, _T_SHORT, (photometric,)),
        (277, _T_SHORT, (spp,)),
        (284, _T_SHORT, (1,)),
        (339, _T_SHORT, (_sample_format(dt),) * spp),
    ]
    if comp == "jpeg" and spp >= 3:
        tags.append((530, _T_SHORT, (1, 1)))
    if predictor == 2:
        tags.append((317, _T_SHORT, (2,)))
    return tags, spp


def _apply_predictor(a: np.ndarray) -> np.ndarray:
    d = a.copy()
    d[:, 1:] = a[:, 1:] - a[:, :-1]
    return d


def tiff_encode(arr: np.ndarray, *, compression: str = "deflate",
                predictor: int = 1, geotransform=None, crs=None,
                rows_per_strip: int | None = None,
                bigtiff: bool = False, quality: int = 92) -> bytes:
    """Array → striped (Geo)TIFF bytes, little-endian, chunky.
    ``bigtiff`` writes the magic-43 IFD8 layout (u64 offsets — the
    >4 GiB format, frmts/gtiff BIGTIFF=YES).  ``compression="jpeg"``
    writes new-style JPEG (code 7) with shared tag-347 JPEGTables
    (frmts/gtiff COMPRESS=JPEG, through the from-scratch codec)."""
    arr = np.ascontiguousarray(arr)
    if arr.dtype.byteorder == ">":
        arr = arr.astype(arr.dtype.newbyteorder("<"))
    h, w = arr.shape[:2]
    tags, spp = _base_tags(arr, compression, predictor)
    a3 = arr.reshape(h, w, spp)
    row_bytes = w * spp * arr.dtype.itemsize
    rps = rows_per_strip or max(1, 65536 // max(row_bytes, 1))
    if compression == "jpeg":
        rps = max(8, rps - rps % 8)        # MCU-aligned strip heights
        parts = [a3[y:y + rps] for y in range(0, h, rps)]
        strips, jtables = _jpeg_encode_blocks(parts, quality)
        tags.append((347, 7, (jtables,)))  # type 7 = UNDEFINED bytes
    else:
        strips = []
        for y in range(0, h, rps):
            part = a3[y:y + rps]
            if predictor == 2:
                part = _apply_predictor(part)
            strips.append(_compress(part.tobytes(), compression))
    tags += [(273, _T_LONG, (0,) * len(strips)),
             (278, _T_LONG, (rps,)),
             (279, _T_LONG, tuple(len(s) for s in strips))]
    tags += _geo_tags(geotransform, crs)
    return _pack_ifds([(tags, 273)], [strips], big=bigtiff)


def _tile_blocks(a3: np.ndarray, tile: int, comp: str, predictor: int,
                 quality: int = 92):
    h, w, spp = a3.shape
    parts = []
    for y0 in range(0, h, tile):
        for x0 in range(0, w, tile):
            t = np.zeros((tile, tile, spp), dtype=a3.dtype)
            part = a3[y0:y0 + tile, x0:x0 + tile]
            t[:part.shape[0], :part.shape[1]] = part
            parts.append(t)
    if comp == "jpeg":
        return _jpeg_encode_blocks(parts, quality)
    blocks = []
    for t in parts:
        if predictor == 2:
            t = _apply_predictor(t)
        blocks.append(_compress(t.tobytes(), comp))
    return blocks, None


def cog_encode(arr: np.ndarray, *, tile: int = 256, bigtiff: bool = False,
               compression: str = "deflate", predictor: int = 1,
               geotransform=None, crs=None, min_overview: int = 512
               ) -> bytes:
    """Array → Cloud-Optimized GeoTIFF: tiled IFD pyramid (full res +
    2× AVERAGE overviews until max(h, w) < ``min_overview``), every IFD
    at the head of the file before any pixel data (the COG read
    pattern: one header fetch tells a remote reader where every tile
    of every level lives — frmts/gtiff/cogdriver.cpp's layout)."""
    arr = np.ascontiguousarray(arr)
    h, w = arr.shape[:2]
    spp = 1 if arr.ndim == 2 else arr.shape[2]
    levels = [arr.reshape(h, w, spp)]
    while max(levels[-1].shape[0], levels[-1].shape[1]) >= min_overview:
        prev = levels[-1]
        ph, pw = prev.shape[0] & ~1, prev.shape[1] & ~1
        nxt = prev[:ph, :pw].reshape(
            ph // 2, 2, pw // 2, 2, spp).astype(np.float64) \
            .mean(axis=(1, 3))
        levels.append(np.rint(nxt).astype(arr.dtype)
                      if arr.dtype.kind in "ui" else
                      nxt.astype(arr.dtype))
    specs, data = [], []
    for li, lv in enumerate(levels):
        tags, _ = _base_tags(lv if spp > 1 else lv[..., 0],
                             compression, predictor)
        blocks, jtables = _tile_blocks(lv, tile, compression, predictor)
        if jtables is not None:
            tags.append((347, 7, (jtables,)))
        tags += [(322, _T_LONG, (tile,)), (323, _T_LONG, (tile,)),
                 (324, _T_LONG, (0,) * len(blocks)),
                 (325, _T_LONG, tuple(len(b) for b in blocks))]
        if li == 0:
            tags += _geo_tags(geotransform, crs)
            tags.append((254, _T_LONG, (0,)))
        else:
            tags.append((254, _T_LONG, (1,)))    # reduced-res subfile
        specs.append((tags, 324))
        data.append(blocks)
    return _pack_ifds(specs, data, big=bigtiff)
