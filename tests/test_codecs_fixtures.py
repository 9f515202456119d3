"""Codec + fixture determinism tests (FIXTURES.md golden oracles #3)."""

import numpy as np
import pytest

from georay import codecs as cd, fixtures as fx


def test_png_roundtrip_exact():
    for shape in [(16, 16, 3), (20, 64, 3), (7, 5, 4), (9, 9)]:
        arr = (np.arange(np.prod(shape), dtype=np.int64) % 251).astype(np.uint8).reshape(shape)
        assert np.array_equal(cd.png_decode(cd.png_encode(arr)), arr)


def test_png_filtered_rows_decode():
    """Decoder must handle filters 1/2 (other encoders emit them)."""
    import struct
    import zlib
    arr = fx.pattern(3, 8, 4)
    h, w, ch = arr.shape
    rows = []
    flat = arr.reshape(h, w * ch).astype(np.int16)
    rows.append(b"\x00" + flat[0].astype(np.uint8).tobytes())
    rows.append(b"\x02" + ((flat[1] - flat[0]) % 256).astype(np.uint8).tobytes())  # Up
    sub = flat[2].copy()
    sub[ch:] = (flat[2][ch:] - flat[2][:-ch]) % 256
    rows.append(b"\x01" + sub.astype(np.uint8).tobytes())  # Sub
    rows.append(b"\x00" + flat[3].astype(np.uint8).tobytes())
    ihdr = struct.pack(">IIBBBBB", w, h, 8, 2, 0, 0, 0)

    def chunk(tag, payload):
        return (struct.pack(">I", len(payload)) + tag + payload
                + struct.pack(">I", zlib.crc32(tag + payload) & 0xFFFFFFFF))

    data = (b"\x89PNG\r\n\x1a\n" + chunk(b"IHDR", ihdr)
            + chunk(b"IDAT", zlib.compress(b"".join(rows)))
            + chunk(b"IEND", b""))
    assert np.array_equal(cd.png_decode(data), arr)


@pytest.mark.parametrize("keep", [2, 4])
def test_truncated_payload_raises_value_error(keep):
    """Every fixture (fmt, w, h) class, cut to 1/2 and 1/4 of its bytes,
    fails with ValueError — the one error a per-row decode guard catches."""
    t = fx.images_table(16)
    classes = set()
    for row in t.to_pylist():
        classes.add((row["fmt"], row["w"], row["h"]))
        data = row["bytes"]
        with pytest.raises(ValueError):
            cd.decode_image(data[:len(data) // keep], row["fmt"])
    assert len(classes) == 16


def test_psnr_identical_inf():
    a = fx.pattern(1, 16, 16)
    assert cd.psnr(a, a) == float("inf")


def test_phash_properties():
    from georay.jpeg import jpeg_encode
    # a smooth, non-separable image: fx.pattern is a gradient + 4-px
    # checker (separable), which leaves most low-frequency DCT terms near
    # the median, where any coding noise flips their bits
    y, x = np.mgrid[0:64, 0:64]
    g = (128 + 100 * np.sin(np.hypot(x - 20, y - 30) / 6)).round()
    a = np.dstack([g.astype(np.uint8)] * 3)
    assert cd.phash64(a) == cd.phash64(a)
    # a real q95 JPEG round trip is lossy but moves few phash bits
    lossy = cd.decode_image(jpeg_encode(a, quality=95), "jpeg")
    assert not np.array_equal(lossy, a)
    ha, hb = int(cd.phash64(a)), int(cd.phash64(lossy))
    ham = bin((ha ^ hb) & ((1 << 64) - 1)).count("1")
    assert ham <= 4
    # different pattern differs a lot
    hc = int(cd.phash64(fx.pattern(123, 64, 64)))
    assert bin((ha ^ hc) & ((1 << 64) - 1)).count("1") > 8


def _phash_reference(arr):
    """The earlier numpy formulation of ``phash64``: ``np.add.reduceat``
    bin sums over index bins (row ``y`` in bin ``y·32 // h``, likewise
    columns; empty bins sum to 0), then the median threshold packed by
    ``np.packbits``."""
    h, w = arr.shape[:2]
    ys = np.arange(h) * 32 // h
    xs = np.arange(w) * 32 // w
    row_cnt = np.bincount(ys, minlength=32)
    col_cnt = np.bincount(xs, minlength=32)
    row_starts = np.minimum(np.searchsorted(ys, np.arange(32), "left"), h - 1)
    col_starts = np.minimum(np.searchsorted(xs, np.arange(32), "left"), w - 1)
    a = np.add.reduceat(arr, row_starts, axis=0, dtype=np.int64)
    a[row_cnt == 0] = 0
    a = np.add.reduceat(a, col_starts, axis=1)
    a[:, col_cnt == 0] = 0
    cnt = row_cnt[:, None] * col_cnt[None, :]
    divisor = 1.0
    if arr.ndim == 3:
        a = a.sum(axis=2)
        divisor = 3.0
    small = a.astype(np.float64) / np.maximum(cnt, 1.0) / divisor
    d = cd._DCT32.T @ small @ cd._DCT32
    vals = np.round(np.delete(d[:8, :8].copy().ravel(), 0), 6)
    bits = np.concatenate([[False], vals > np.median(vals)])
    return np.packbits(bits).view(">i8")[0].astype(np.int64)


def _phash_cases(rng, n):
    """``n`` seeded uint8 images: h, w in [1, 300] (every fourth case with
    a side under 32), gray, 3-band and the 3-band strided view of a 4-band
    array, each random or flat."""
    for k in range(n):
        lo, hi = (1, 32) if k % 4 == 0 else (1, 301)
        h, w = (int(v) for v in rng.integers(lo, hi, 2))
        band = k % 3
        flat = k % 5 == 0
        shape = (h, w) if band == 0 else (h, w, 3 if band == 1 else 4)
        if flat:
            arr = np.full(shape, int(rng.integers(0, 256)), np.uint8)
        else:
            arr = rng.integers(0, 256, shape, dtype=np.uint8)
        yield arr[:, :, :3] if band == 2 else arr


def test_phash_matches_reference_formulation():
    """``phash64`` equals the earlier formulation bit for bit, over seeded
    random and flat images of every shape class, and over strided views
    (a 4-band array's first 3 bands; every other row, reversed)."""
    rng = np.random.default_rng(2022)
    n = 0
    for arr in _phash_cases(rng, 400):
        assert arr.dtype == np.uint8
        for view in (arr, arr[::-2]):
            got = cd.phash64(view)
            assert type(got) is np.int64
            assert int(got) == int(_phash_reference(view)), view.shape
            n += 1
    assert n == 800


# sha256 of the little-endian int64 phashes of fixtures.images_table(256)'s
# decoded rows, in row order
_FIXTURE_PHASH_SHA256 = ("5e73c53414b7076a283a49b6dbaf2859"
                         "5f5a8108f3bbe562d71f5935eafa4f25")


def test_phash_of_fixture_rows_frozen():
    """Every decoded fixture row hashes to its stored ``phash``, and the
    hashes of the first 256 rows are pinned."""
    import hashlib
    t = fx.images_table(256)
    got = [int(cd.phash64(cd.decode_image(b, f)))
           for b, f in zip(t["bytes"].to_pylist(), t["fmt"].to_pylist())]
    assert got == t["phash"].to_pylist()
    digest = hashlib.sha256(np.array(got, dtype="<i8").tobytes()).hexdigest()
    assert digest == _FIXTURE_PHASH_SHA256


@pytest.mark.parametrize("dtype", [np.uint16, np.int64, np.float64, bool])
def test_phash_rejects_non_uint8(dtype):
    with pytest.raises(ValueError, match=np.dtype(dtype).name):
        cd.phash64(np.zeros((8, 8, 3), dtype=dtype))


def test_images_table_deterministic_and_dup_group():
    t1 = fx.images_table(5)
    t2 = fx.images_table(5)
    assert t1.equals(t2)
    assert t1.schema.equals(fx.IMAGE_SCHEMA)
    row0 = fx.images_table(1, start=0)
    row97 = fx.images_table(1, start=97)
    assert row0["bytes"][0].as_py() == row97["bytes"][0].as_py()
    assert row0["phash"][0].as_py() == row97["phash"][0].as_py()


def test_image_decode_fidelity_gate():
    t = fx.images_table(8)
    for i in range(8):
        fmt = t["fmt"][i].as_py()
        data = t["bytes"][i].as_py()
        w, h = t["w"][i].as_py(), t["h"][i].as_py()
        dec = cd.decode_image(data, fmt)
        assert dec.shape == (h, w, 3)
        src_idx = 0 if i % 97 == 0 else i
        src = fx.pattern(src_idx, w, h)
        if fmt == "png":
            assert np.array_equal(dec, src)
        else:
            assert cd.psnr(src, dec) >= 40.0


def test_jpeg_roundtrip_psnr():
    """Real baseline JPEG (georay.jpeg): encode → decode stays ≥ 40 dB on
    the worst-case synthetic pattern, is genuinely lossy, and handles
    non-multiple-of-8 sizes, grayscale and 4:2:0 subsampling."""
    from georay.jpeg import jpeg_decode, jpeg_encode
    for i, (w, h) in [(0, (16, 16)), (7, (64, 64)), (9, (256, 256)),
                      (11, (17, 23))]:
        arr = fx.pattern(i, w, h)
        data = jpeg_encode(arr, quality=95)
        assert data[:2] == b"\xff\xd8" and data[-2:] == b"\xff\xd9"
        dec = jpeg_decode(data)
        assert dec.shape == arr.shape
        assert cd.psnr(arr, dec) >= 40.0
        assert not np.array_equal(dec, arr)  # genuinely lossy
    gray = fx.pattern(3, 40, 24)[:, :, 0]
    dg = jpeg_decode(jpeg_encode(gray, quality=95))
    assert dg.shape == gray.shape and cd.psnr(gray, dg) >= 45.0
    # 4:2:0 on a smooth gradient stays high-fidelity
    xx, yy = np.meshgrid(np.arange(64), np.arange(48))
    smooth = np.stack([(xx * 3) % 256, (yy * 4) % 256, (xx + yy) % 256],
                      axis=2).astype(np.uint8)
    ds = jpeg_decode(jpeg_encode(smooth, quality=95, subsample=True))
    assert cd.psnr(smooth, ds) >= 40.0


def test_png_full_spec_decode():
    """PNG decode beyond the encoder's own subset: Adam7 interlace
    (every pass shape, odd dims), palette with and without tRNS alpha,
    1/2/4-bit packing, 16-bit samples, gray+alpha."""
    import struct
    import zlib

    from georay.codecs import _PNG_SIG, _chunk, png_decode, png_encode
    rng = np.random.default_rng(3)
    for shape in [(1, 1), (3, 2), (7, 9), (16, 16), (33, 47), (8, 1),
                  (1, 8)]:
        for ch in (None, 3, 4):
            a = rng.integers(0, 256, shape if ch is None
                             else (*shape, ch), dtype=np.uint8)
            assert np.array_equal(a, png_decode(png_encode(
                a, interlace=True)))
    pal = np.array([[255, 0, 0], [0, 255, 0], [0, 0, 255],
                    [10, 20, 30]], np.uint8)
    idx = rng.integers(0, 4, (5, 7)).astype(np.uint8)
    ihdr = struct.pack(">IIBBBBB", 7, 5, 8, 3, 0, 0, 0)
    raw = np.empty((5, 8), np.uint8)
    raw[:, 0] = 0
    raw[:, 1:] = idx
    base = _PNG_SIG + _chunk(b"IHDR", ihdr) \
        + _chunk(b"PLTE", pal.tobytes())
    tail = _chunk(b"IDAT", zlib.compress(raw.tobytes())) \
        + _chunk(b"IEND", b"")
    assert np.array_equal(png_decode(base + tail), pal[idx])
    d2 = png_decode(base + _chunk(b"tRNS", bytes([255, 128])) + tail)
    assert d2.shape == (5, 7, 4)
    assert np.array_equal(d2[:, :, :3], pal[idx])
    assert np.array_equal(
        d2[:, :, 3], np.array([255, 128, 255, 255], np.uint8)[idx])
    # 2-bit palette rows (MSB-first packing)
    idx2 = rng.integers(0, 4, (4, 5)).astype(np.uint8)
    rows = []
    for y in range(4):
        bits = np.zeros(16, np.uint8)
        for x in range(5):
            bits[2 * x] = (idx2[y, x] >> 1) & 1
            bits[2 * x + 1] = idx2[y, x] & 1
        rows.append(bytes([0]) + np.packbits(bits).tobytes())
    p2 = _PNG_SIG \
        + _chunk(b"IHDR", struct.pack(">IIBBBBB", 5, 4, 2, 3, 0, 0, 0)) \
        + _chunk(b"PLTE", pal.tobytes()) \
        + _chunk(b"IDAT", zlib.compress(b"".join(rows))) \
        + _chunk(b"IEND", b"")
    assert np.array_equal(png_decode(p2), pal[idx2])
    # 1-bit gray scales to 0/255
    g1 = rng.integers(0, 2, (6, 10)).astype(np.uint8)
    rows = [bytes([0]) + np.packbits(g1[y]).tobytes() for y in range(6)]
    p1 = _PNG_SIG \
        + _chunk(b"IHDR", struct.pack(">IIBBBBB", 10, 6, 1, 0, 0, 0, 0)) \
        + _chunk(b"IDAT", zlib.compress(b"".join(rows))) \
        + _chunk(b"IEND", b"")
    assert np.array_equal(png_decode(p1), g1 * 255)
    # 16-bit RGB returns uint16, big-endian samples
    a16 = rng.integers(0, 65536, (4, 6, 3)).astype(np.uint16)
    raw16 = np.empty((4, 1 + 36), np.uint8)
    raw16[:, 0] = 0
    raw16[:, 1:] = a16.astype(">u2").reshape(4, -1).view(np.uint8)
    p16 = _PNG_SIG \
        + _chunk(b"IHDR", struct.pack(">IIBBBBB", 6, 4, 16, 2, 0, 0, 0)) \
        + _chunk(b"IDAT", zlib.compress(raw16.tobytes())) \
        + _chunk(b"IEND", b"")
    d16 = png_decode(p16)
    assert d16.dtype == np.uint16 and np.array_equal(d16, a16)
    # gray+alpha
    ga = rng.integers(0, 256, (5, 4, 2), dtype=np.uint8)
    rawga = np.empty((5, 9), np.uint8)
    rawga[:, 0] = 0
    rawga[:, 1:] = ga.reshape(5, -1)
    pga = _PNG_SIG \
        + _chunk(b"IHDR", struct.pack(">IIBBBBB", 4, 5, 8, 4, 0, 0, 0)) \
        + _chunk(b"IDAT", zlib.compress(rawga.tobytes())) \
        + _chunk(b"IEND", b"")
    assert np.array_equal(png_decode(pga), ga)


def test_jpeg_fixture_rows_are_real_jfif():
    t = fx.images_table(4)
    for i in range(4):
        if t["fmt"][i].as_py() == "jpeg":
            assert t["bytes"][i].as_py()[:2] == b"\xff\xd8"


def test_jpeg_decoder_rejects_non_baseline():
    from georay.jpeg import jpeg_decode
    with pytest.raises(ValueError):
        jpeg_decode(b"not a jpeg")
    # lossless SOF3 → explicit NotImplementedError (SOF2 progressive is
    # implemented; see test_jpeg_progressive_*)
    import struct
    seg = bytes([8]) + struct.pack(">HH", 8, 8) + bytes([1, 1, 0x11, 0])
    data = (b"\xff\xd8" + b"\xff\xc3"
            + struct.pack(">H", len(seg) + 2) + seg + b"\xff\xd9")
    with pytest.raises(NotImplementedError):
        jpeg_decode(data)


def test_jpeg_progressive_matches_baseline_exactly():
    """SOF2 progressive (spectral selection + successive approximation,
    T.81 Annex G): same input, same quant tables → the multi-scan
    refinement must reassemble EXACTLY the baseline coefficients, so the
    decoded pixels are identical bit for bit."""
    from georay.jpeg import jpeg_decode, jpeg_encode
    rng = np.random.default_rng(7)
    cases = [
        ((np.arange(64)[:, None] + np.arange(96)[None, :])
         .astype(np.uint8), {}),                          # smooth gray
        (rng.integers(0, 256, (37, 51), dtype=np.uint8), {}),   # odd gray
        (rng.integers(0, 256, (40, 56, 3), dtype=np.uint8), {}),  # rgb
        (rng.integers(0, 256, (33, 47, 3), dtype=np.uint8),
         {"subsample": True}),                            # 4:2:0 odd dims
        (np.full((48, 48), 128, np.uint8), {}),   # flat → EOBRUN > 1
    ]
    for img, kw in cases:
        for q in (92, 50):
            base = jpeg_decode(jpeg_encode(img, quality=q, **kw))
            prog_bytes = jpeg_encode(img, quality=q, progressive=True,
                                     **kw)
            # really progressive: SOF2 marker present, several SOS scans
            assert b"\xff\xc2" in prog_bytes
            assert prog_bytes.count(b"\xff\xda") >= 4
            prog = jpeg_decode(prog_bytes)
            assert np.array_equal(base, prog)


def test_jpeg_scaled_decode():
    """Reduced-size IDCT decode (scale 2/4/8 — libjpeg jidctred.c, the
    mechanism behind GDAL's JPEG overview levels): output dims are
    ceil(dim/scale); scale=8 is exactly the 8×8 block mean; scaled
    output tracks box means of the full decode on smooth data; a
    progressive stream decodes to the same scaled pixels as a baseline
    stream of the same input (same coefficients)."""
    from georay.jpeg import jpeg_decode, jpeg_encode
    g = (64 + (np.arange(64)[:, None] * 0.8
               + np.arange(96)[None, :] * 0.7)).astype(np.uint8)
    b = jpeg_encode(g, quality=92)
    full = jpeg_decode(b).astype(np.float64)
    for s in (2, 4, 8):
        d = jpeg_decode(b, scale=s)
        assert d.shape == (-(-64 // s), -(-96 // s))
        box = full.reshape(64 // s, s, 96 // s, s).mean((1, 3))
        assert np.abs(d.astype(np.float64) - box).max() <= 1.0
    rng = np.random.default_rng(11)
    img = rng.integers(0, 256, (37, 51, 3), dtype=np.uint8)
    bsub = jpeg_encode(img, quality=90, subsample=True)
    for s in (1, 2, 4, 8):
        d = jpeg_decode(bsub, scale=s)
        assert d.shape == (-(-37 // s), -(-51 // s), 3)
    bp = jpeg_encode(img, quality=90, progressive=True)
    for s in (2, 4):
        assert np.array_equal(
            jpeg_decode(bp, scale=s),
            jpeg_decode(jpeg_encode(img, quality=90), scale=s))
    with pytest.raises(ValueError):
        jpeg_decode(b, scale=3)


def test_jpeg_progressive_fidelity_gate():
    """The progressive stream passes the same PSNR gate as baseline on
    the engine's synthetic patterns."""
    from georay import codecs as cd
    from georay.jpeg import jpeg_decode, jpeg_encode
    for i, (w, h) in enumerate([(64, 48), (57, 33)]):
        arr = fx.pattern(i, w, h)
        dec = jpeg_decode(jpeg_encode(arr, quality=95, progressive=True))
        assert dec.shape == arr.shape
        assert cd.psnr(arr, dec) >= 40.0


def test_georef_deterministic_and_skewed():
    idx = np.arange(5000)
    g = fx.georef(idx, np.full(5000, 256.0), np.full(5000, 256.0))
    g2 = fx.georef(idx, np.full(5000, 256.0), np.full(5000, 256.0))
    assert np.array_equal(g["lat"], g2["lat"])
    assert (np.abs(g["lat"]) <= 85).all()
    assert (np.abs(g["lon"]) <= 180).all()
    # skew: the densest 1-degree lon/lat box holds far more than uniform share
    from georay.cells import hex_cell
    cells = hex_cell(g["lat"], g["lon"], 5)
    _, counts = np.unique(cells, return_counts=True)
    assert counts.max() > 5000 * 0.03  # hotspot cells are hot


def test_parse_image_idx():
    ids = np.array(["img00000000", "img00000042", "img12345678"])
    assert fx.parse_image_idx(ids).tolist() == [0, 42, 12345678]


def test_write_images_parquet_idempotent(tmp_path):
    import pyarrow.parquet as pq
    p = str(tmp_path / "imgs")
    fx.write_images_parquet(p, 10, rows_per_file=4)
    fx.write_images_parquet(p, 10, rows_per_file=4)  # no-op second time
    tbl = pq.read_table(p)
    assert tbl.num_rows == 10


def test_webp_info_structural():
    # container metadata for lossless AND lossy flavors without decode
    import struct
    from georay.webp import webp_encode, webp_info
    img = (np.arange(24 * 24 * 3).reshape(24, 24, 3) % 255).astype(np.uint8)
    info = webp_info(webp_encode(img))
    assert info["codec"] == "VP8L" and (info["w"], info["h"]) == (24, 24)
    # hand-built lossy VP8 key-frame header (RFC 6386 9.1 layout)
    part = b"\x00" * 10
    tagv = (1 << 1) | (1 << 4) | (len(part) << 5)
    vp8 = bytes([tagv & 0xFF, (tagv >> 8) & 0xFF, (tagv >> 16) & 0xFF])
    vp8 += b"\x9d\x01\x2a" + struct.pack("<HH", 320 | (1 << 14), 240)
    vp8 += part
    chunk = b"VP8 " + struct.pack("<I", len(vp8)) + vp8
    riff = b"RIFF" + struct.pack("<I", 4 + len(chunk)) + b"WEBP" + chunk
    info = webp_info(riff)
    assert info["codec"] == "VP8" and info["key_frame"]
    assert (info["w"], info["h"]) == (320, 240)
    assert info["first_partition_bytes"] == 10
    # VP8X extended container
    vp8x = bytes([0x10, 0, 0, 0]) + bytes([99, 0, 0]) + bytes([49, 0, 0])
    chunk2 = b"VP8X" + struct.pack("<I", len(vp8x)) + vp8x
    riff2 = b"RIFF" + struct.pack("<I", 4 + len(chunk2)) + b"WEBP" + chunk2
    info2 = webp_info(riff2)
    assert info2["has_alpha"] and (info2["w"], info2["h"]) == (100, 50)


def test_webp_info_truncated_raises_valueerror():
    import struct
    import pytest
    from georay.webp import webp_info
    # VP8 chunk declaring 3 bytes but file ends after 1
    chunk = b"VP8 " + struct.pack("<I", 3) + b"\x00"
    riff = b"RIFF" + struct.pack("<I", 4 + len(chunk)) + b"WEBP" + chunk
    with pytest.raises(ValueError):
        webp_info(riff)
    # empty VP8X body
    chunk2 = b"VP8X" + struct.pack("<I", 0)
    riff2 = b"RIFF" + struct.pack("<I", 4 + len(chunk2)) + b"WEBP" + chunk2
    with pytest.raises(ValueError):
        webp_info(riff2)


@pytest.mark.parametrize("tail", [b"E", b"EXIF", b"EXIF\x00\x00\x00"])
def test_webp_info_truncated_trailing_chunk_header_raises(tail):
    from georay.webp import webp_encode, webp_info
    data = webp_encode(fx.pattern(2, 8, 8))
    webp_info(data)  # the intact file parses
    with pytest.raises(ValueError, match="truncated WebP chunk header"):
        webp_info(data + tail)
