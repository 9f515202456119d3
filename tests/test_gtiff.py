"""GeoTIFF codec (georay/gtiff.py) vs the public TIFF 6.0 spec and the
COG layout: roundtrips over dtype × compression × predictor, GeoKey
recovery, the spec's own PackBits worked example, a hand-crafted
big-endian file, and the IFDs-before-pixel-data COG property."""

import signal
import struct

import numpy as np
import pytest

from georay.gtiff import (cog_encode, lzw_decode, lzw_encode,
                          packbits_decode, packbits_encode, tiff_decode,
                          tiff_encode)

_GT = (500000.0, 30.0, 0.0, 4100000.0, 0.0, -30.0)


def test_roundtrip_matrix():
    rng = np.random.default_rng(0)
    arrays = [rng.integers(0, 255, (37, 53), dtype=np.uint8),
              rng.integers(0, 65535, (20, 31, 3)).astype(np.uint16),
              rng.standard_normal((16, 17)).astype(np.float32),
              rng.standard_normal((9, 9)).astype(np.float64)]
    for arr in arrays:
        preds = (1, 2) if arr.dtype.kind in "ui" else (1,)
        for comp in ("none", "deflate", "packbits", "lzw"):
            for pred in preds:
                out, _ = tiff_decode(tiff_encode(
                    arr, compression=comp, predictor=pred))
                assert out.dtype == arr.dtype
                assert np.array_equal(out, arr), (comp, pred, arr.dtype)


def test_predictor2_rejected_for_float():
    with pytest.raises(ValueError, match="integer-only"):
        tiff_encode(np.zeros((4, 4), np.float32), predictor=2)


def test_geotiff_keys_roundtrip():
    a = np.arange(100, dtype=np.uint8).reshape(10, 10)
    for crs, key in [("EPSG:32631", 3072), ("EPSG:4326", 2048)]:
        b = tiff_encode(a, geotransform=_GT, crs=crs)
        _, meta = tiff_decode(b)
        assert np.allclose(meta["geotransform"], _GT)
        assert meta["crs"] == crs


def test_packbits_spec_worked_example():
    """The exact worked example from TIFF 6.0 §9."""
    packed = bytes.fromhex("FEAA02 80002A FDAA03 80002A22 F7AA"
                           .replace(" ", ""))
    unpacked = bytes.fromhex(
        "AAAAAA 80002A AAAAAAAA 80002A22 AAAAAAAAAAAAAAAAAAAA"
        .replace(" ", ""))
    assert packbits_decode(packed, len(unpacked)) == unpacked
    # our own packing must round-trip through our decoder too
    assert packbits_decode(packbits_encode(unpacked),
                           len(unpacked)) == unpacked


def test_lzw_long_stream_with_clears():
    rng = np.random.default_rng(1)
    data = bytes(rng.integers(0, 8, 200000, dtype=np.uint8))
    assert lzw_decode(lzw_encode(data), len(data)) == data


def test_big_endian_read():
    """Hand-crafted MM (big-endian) uncompressed 2×3 grayscale."""
    pix = bytes([10, 20, 30, 40, 50, 60])
    n = 8
    entries = [(256, 3, 1, 3 << 16), (257, 3, 1, 2 << 16),
               (258, 3, 1, 8 << 16), (259, 3, 1, 1 << 16),
               (262, 3, 1, 1 << 16),
               (273, 4, 1, 8 + 2 + 12 * n + 4),
               (277, 3, 1, 1 << 16), (279, 4, 1, 6)]
    buf = struct.pack(">2sHI", b"MM", 42, 8) + struct.pack(">H", n)
    for tag, typ, cnt, val in entries:
        buf += struct.pack(">HHII", tag, typ, cnt, val)
    buf += struct.pack(">I", 0) + pix
    out, _ = tiff_decode(buf)
    assert out.shape == (2, 3)
    assert np.array_equal(out.ravel(), np.frombuffer(pix, np.uint8))


def test_cog_layout_and_overviews():
    rng = np.random.default_rng(2)
    big = rng.integers(0, 255, (700, 900, 3), dtype=np.uint8)
    b = cog_encode(big, geotransform=_GT, crs="EPSG:32631", predictor=2)
    full, meta = tiff_decode(b)
    assert np.array_equal(full, big)
    assert meta["levels"] == [(700, 900), (350, 450)]
    # overview is the exact 2×2 AVERAGE reduction
    ov1, _ = tiff_decode(b, overview=1)
    want = big.reshape(350, 2, 450, 2, 3).astype(np.float64).mean((1, 3))
    assert np.array_equal(ov1, np.rint(want).astype(np.uint8))
    # COG property: every IFD and tag value precedes every tile byte —
    # walk the IFD chain, record max structural offset and min tile
    # offset from the raw bytes
    data = memoryview(b)
    off = struct.unpack_from("<I", data, 4)[0]
    max_struct, min_tile = 0, 1 << 62
    while off:
        cnt = struct.unpack_from("<H", data, off)[0]
        max_struct = max(max_struct, off + 2 + 12 * cnt + 4)
        for i in range(cnt):
            tag, typ, c, v = struct.unpack_from("<HHII", data,
                                                off + 2 + 12 * i)
            if tag == 324:
                voff = v if c > 1 else off + 2 + 12 * i + 8
                tile0 = struct.unpack_from("<I", data, voff)[0]
                min_tile = min(min_tile, tile0)
        off = struct.unpack_from("<I", data, off + 2 + 12 * cnt)[0]
    assert max_struct < min_tile


def test_tiled_non_multiple_dims():
    rng = np.random.default_rng(3)
    a = rng.integers(0, 65535, (300, 277)).astype(np.uint16)
    out, _ = tiff_decode(cog_encode(a, tile=128, min_overview=10_000))
    assert np.array_equal(out, a)


def test_codec_dispatch():
    from georay.codecs import decode_image, encode_image
    rng = np.random.default_rng(4)
    a = rng.integers(0, 255, (32, 48, 3), dtype=np.uint8)
    assert np.array_equal(decode_image(encode_image(a, "tiff"), "tiff"),
                          a)


import georay.gtiff as G


def test_bigtiff_roundtrip_strips_and_cog():
    """BigTIFF (magic 43, IFD8, u64 offsets): striped + COG encodes
    decode to identical pixels/geo as the classic layout."""
    rng = np.random.RandomState(9)
    arr = (rng.rand(70, 90, 3) * 255).astype(np.uint8)
    gt = (500000.0, 10.0, 0.0, 4600000.0, 0.0, -10.0)
    for comp in ("deflate", "none", "lzw"):
        big = G.tiff_encode(arr, compression=comp, geotransform=gt,
                            crs="EPSG:32631", bigtiff=True)
        assert big[2:4] == b"\x2b\x00"           # magic 43
        a, meta = G.tiff_decode(big)
        classic, meta2 = G.tiff_decode(
            G.tiff_encode(arr, compression=comp, geotransform=gt,
                          crs="EPSG:32631"))
        assert np.array_equal(a, classic)
        assert meta["geotransform"] == meta2["geotransform"]
    big_arr = (rng.rand(300, 420, 3) * 255).astype(np.uint8)
    cogb = G.cog_encode(big_arr, tile=64, geotransform=gt,
                        crs="EPSG:32631", bigtiff=True,
                        min_overview=128)
    a, meta = G.tiff_decode(cogb)
    classic = G.cog_encode(big_arr, tile=64, geotransform=gt,
                           crs="EPSG:32631", min_overview=128)
    ac, metac = G.tiff_decode(classic)
    assert np.array_equal(np.asarray(a), np.asarray(ac))
    assert meta["levels"] == metac["levels"] and len(meta["levels"]) >= 2
    ov, _ = G.tiff_decode(cogb, overview=1)
    ovc, _ = G.tiff_decode(classic, overview=1)
    assert np.array_equal(np.asarray(ov), np.asarray(ovc))


def _psnr(a, b):
    mse = np.mean((np.asarray(a, np.float64) - np.asarray(b, np.float64))
                  ** 2)
    return 10 * np.log10(255.0**2 / mse) if mse else np.inf


def test_jpeg_in_tiff_strips_and_cog():
    """COMPRESS=JPEG (code 7) with shared tag-347 JPEGTables: strips,
    grayscale, and tiled COG pyramid all decode at >=40 dB through the
    from-scratch JPEG codec (frmts/gtiff JPEG path parity)."""
    y, x = np.mgrid[0:100, 0:150]
    arr = np.stack([(x * 1.7 + y * 0.4) % 256, (x * 0.3 + y * 2.1) % 256,
                    ((x + y) * 1.1) % 256], axis=2).astype(np.uint8)
    buf = tiff_encode(arr, compression="jpeg",
                      geotransform=(0, 1, 0, 0, 0, -1))
    out, meta = tiff_decode(buf)
    assert np.asarray(out).shape == arr.shape
    assert _psnr(arr, out) >= 40.0
    assert meta["geotransform"][1] == 1.0
    # shared-tables layout actually written (tag 347 + photometric 6)
    import struct as _s
    (off,) = _s.unpack_from("<I", buf, 4)
    from georay.gtiff import _read_ifd
    tags, _ = _read_ifd(memoryview(buf), off, "<")
    assert 347 in tags and tags[259] == (7,) and tags[262] == (6,)
    # every strip is ABBREVIATED: tables live only in tag 347
    assert all(c < 1000 for c in tags[279][1:])
    # grayscale
    g = ((x * 3 + y * 5) % 256).astype(np.uint8)
    assert _psnr(g, tiff_decode(tiff_encode(g, compression="jpeg"))[0]) \
        >= 40.0
    # tiled COG pyramid with JPEG tiles
    cog = cog_encode(arr, tile=64, compression="jpeg", min_overview=80)
    assert _psnr(arr, tiff_decode(cog)[0]) >= 40.0
    ov, _ = tiff_decode(cog, overview=1)
    assert np.asarray(ov).shape == (50, 75, 3)


def test_jpeg_in_tiff_rejects_bad_inputs():
    with pytest.raises(ValueError):
        tiff_encode(np.zeros((8, 8), np.uint16), compression="jpeg")
    with pytest.raises(ValueError):
        tiff_encode(np.zeros((8, 8, 4), np.uint8), compression="jpeg")
    with pytest.raises(ValueError):
        tiff_encode(np.zeros((8, 8), np.uint8), compression="jpeg",
                    predictor=2)


def _on_alarm(signum, frame):
    raise TimeoutError("a decode ran past its 5 s alarm")


def _cuts_raise(decode, data: bytes, fmt: str) -> None:
    """``decode`` of ``data`` cut at k/25 of its length (k = 1..24)
    raises ``ValueError("truncated <fmt> at byte <cut>")``, each cut
    under a 5 s alarm."""
    old = signal.signal(signal.SIGALRM, _on_alarm)
    try:
        for k in range(1, 25):
            n = len(data) * k // 25
            signal.alarm(5)
            try:
                with pytest.raises(ValueError,
                                   match=f"^truncated {fmt} at byte {n}$"):
                    decode(data[:n])
            finally:
                signal.alarm(0)
    finally:
        signal.signal(signal.SIGALRM, old)


def test_truncated_tiff_raises():
    """A 37×53 RGB TIFF cut anywhere raises ValueError naming the byte it
    ends at, never zlib.error (a cut strip) or struct.error (a cut
    IFD)."""
    img = np.random.default_rng(0).integers(0, 256, (53, 37, 3), np.uint8)
    data = tiff_encode(img)
    assert tiff_decode(data)[0].shape == (53, 37, 3)
    _cuts_raise(tiff_decode, data, "tiff")
