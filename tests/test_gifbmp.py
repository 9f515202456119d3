"""GIF / BMP / PNM codecs (georay.gifbmp) — from-scratch spec pins and
roundtrips (reference scope: frmts/gif via giflib, frmts/bmp, frmts/pnm)."""

import signal
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from georay.gifbmp import (bmp_decode, bmp_encode, gif_decode, gif_encode,
                           pnm_decode, pnm_encode, _lzw_decode, _lzw_encode)


# --------------------------------------------------------------------- GIF

def test_lzw_roundtrip_simple():
    idx = np.array([0, 1, 1, 0, 0, 1, 2, 3, 3, 2, 1, 0] * 10, np.uint8)
    blob = _lzw_encode(idx, 2)
    # strip the sub-block framing for the raw decoder
    raw, i = b"", 0
    while blob[i]:
        raw += blob[i + 1:i + 1 + blob[i]]
        i += blob[i] + 1
    out = _lzw_decode(raw, 2, idx.size)
    np.testing.assert_array_equal(out, idx)


def test_lzw_width_growth_and_table_reset():
    # enough distinct pairs to push past several width bumps and the
    # 4096-entry reset (random 8-bit noise is incompressible)
    rng = np.random.default_rng(3)
    idx = rng.integers(0, 256, 40_000, dtype=np.uint8)
    blob = _lzw_encode(idx, 8)
    raw, i = b"", 0
    while blob[i]:
        raw += blob[i + 1:i + 1 + blob[i]]
        i += blob[i] + 1
    np.testing.assert_array_equal(_lzw_decode(raw, 8, idx.size), idx)


def test_gif_roundtrip_gray_and_rgb():
    rng = np.random.default_rng(5)
    gray = rng.integers(0, 256, (33, 47), dtype=np.uint8)
    out = gif_decode(gif_encode(gray))
    # gray encodes through a 256-gray palette -> RGB expansion
    assert out.shape == (33, 47, 3)
    np.testing.assert_array_equal(out[:, :, 0], gray)
    np.testing.assert_array_equal(out[:, :, 1], gray)

    rgb = rng.integers(0, 4, (20, 20, 3), dtype=np.uint8) * 80
    np.testing.assert_array_equal(gif_decode(gif_encode(rgb)), rgb)


def test_gif_quantizes_beyond_256_colors():
    rng = np.random.default_rng(11)
    rgb = rng.integers(0, 256, (40, 40, 3), dtype=np.uint8)
    out = gif_decode(gif_encode(rgb))
    assert out.shape == rgb.shape
    # median-cut quantization: bounded error, and at most 256 colors
    assert len(np.unique(out.reshape(-1, 3), axis=0)) <= 256
    err = np.abs(out.astype(int) - rgb.astype(int)).mean()
    assert err < 48


def test_gif_transparency_and_interlace_decode():
    # hand-build an interlaced GIF with a GCE transparent index
    pal = np.array([[0, 0, 0], [255, 0, 0], [0, 255, 0], [0, 0, 255]],
                   np.uint8)
    idx = np.arange(16, dtype=np.uint8).reshape(4, 4) % 4
    # interlace row order for h=4: pass1 row0, pass3 row2, pass4 rows 1,3
    rows = np.vstack([idx[0], idx[2], idx[1], idx[3]])
    blob = _lzw_encode(rows.ravel(), 2)
    data = (b"GIF89a" + struct.pack("<HHBBB", 4, 4, 0x81, 0, 0)
            + pal.tobytes()
            + b"\x21\xf9\x04\x01\x00\x00\x02\x00"       # GCE: transp idx 2
            + b"\x2C" + struct.pack("<HHHHB", 0, 0, 4, 4, 0x40)
            + bytes([2]) + blob + b"\x3B")
    out = gif_decode(data)
    assert out.shape == (4, 4, 4)
    np.testing.assert_array_equal(out[:, :, :3], pal[idx])
    np.testing.assert_array_equal(out[:, :, 3], np.where(idx == 2, 0, 255))


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 40), st.integers(1, 40), st.integers(0, 2 ** 31 - 1))
def test_gif_roundtrip_property(w, h, seed):
    rng = np.random.default_rng(seed)
    img = rng.integers(0, 3, (h, w, 3), dtype=np.uint8) * 85  # ≤27 colors
    np.testing.assert_array_equal(gif_decode(gif_encode(img)), img)


# --------------------------------------------------------------------- BMP

def test_bmp_roundtrip_rgb_and_gray():
    rng = np.random.default_rng(9)
    rgb = rng.integers(0, 256, (21, 13, 3), dtype=np.uint8)
    np.testing.assert_array_equal(bmp_decode(bmp_encode(rgb)), rgb)
    gray = rng.integers(0, 256, (7, 9), dtype=np.uint8)
    out = bmp_decode(bmp_encode(gray))
    np.testing.assert_array_equal(out[:, :, 0], gray)


def test_bmp_1bit_4bit_topdown():
    # hand-built 1-bit 8x2 top-down image: palette black/white
    pal = struct.pack("<II", 0x00000000, 0x00FFFFFF)
    stride = 4
    rows = bytes([0b10110000, 0, 0, 0, 0b01000000, 0, 0, 0])
    info = struct.pack("<IiihHIIiiII", 40, 8, -2, 1, 1, 0, stride * 2,
                       0, 0, 2, 0)
    head = b"BM" + struct.pack("<IHHI", 14 + 40 + 8 + len(rows), 0, 0,
                               14 + 40 + 8)
    out = bmp_decode(head + info + pal + rows)
    exp0 = [255, 0, 255, 255, 0, 0, 0, 0]
    assert [px[0] for px in out[0]] == exp0
    assert out[1, 1, 0] == 255 and out[1, 0, 0] == 0


def test_bmp_rle8():
    # RLE8: run of 5 x value 7, absolute block, EOL, next row, EOB
    pal = b"".join(struct.pack("<I", v * 0x010101) for v in range(256))
    rle = bytes([5, 7,                       # run
                 0, 3, 1, 2, 3, 0,           # absolute 3 (padded to word)
                 0, 0,                       # end of line
                 8, 9,                       # second row run
                 0, 1])                      # end of bitmap
    info = struct.pack("<IiihHIIiiII", 40, 8, 2, 1, 8, 1, len(rle),
                       0, 0, 256, 0)
    head = b"BM" + struct.pack("<IHHI", 14 + 40 + 1024 + len(rle), 0, 0,
                               14 + 40 + 1024)
    out = bmp_decode(head + info + pal + rle)
    # bottom-up: first decoded row is the BOTTOM row
    np.testing.assert_array_equal(out[1, :, 0],
                                  [7, 7, 7, 7, 7, 1, 2, 3])
    np.testing.assert_array_equal(out[0, :, 0], [9] * 8)


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 32), st.integers(1, 32), st.integers(0, 2 ** 31 - 1))
def test_bmp_roundtrip_property(w, h, seed):
    rng = np.random.default_rng(seed)
    img = rng.integers(0, 256, (h, w, 3), dtype=np.uint8)
    np.testing.assert_array_equal(bmp_decode(bmp_encode(img)), img)


# --------------------------------------------------------------------- PNM

def test_pnm_binary_roundtrip_8_and_16_bit():
    rng = np.random.default_rng(2)
    g8 = rng.integers(0, 256, (5, 11), dtype=np.uint8)
    np.testing.assert_array_equal(pnm_decode(pnm_encode(g8)), g8)
    g16 = rng.integers(0, 65536, (4, 6)).astype(np.uint16)
    np.testing.assert_array_equal(pnm_decode(pnm_encode(g16)), g16)
    rgb = rng.integers(0, 256, (3, 5, 3), dtype=np.uint8)
    np.testing.assert_array_equal(pnm_decode(pnm_encode(rgb)), rgb)


def test_pnm_ascii_with_comments():
    text = b"P2\n# a comment\n3 2\n# another\n255\n0 10 20\n30 40 50\n"
    out = pnm_decode(text)
    np.testing.assert_array_equal(out, [[0, 10, 20], [30, 40, 50]])
    text3 = b"P3 2 1 255  1 2 3  4 5 6"
    np.testing.assert_array_equal(pnm_decode(text3), [[[1, 2, 3],
                                                       [4, 5, 6]]])


def test_open_raster_sniffs_gif_bmp_pnm(tmp_path):
    from georay.simpleformats import open_raster
    rng = np.random.default_rng(4)
    img = rng.integers(0, 5, (9, 9, 3), dtype=np.uint8) * 50
    for name, enc in (("x.gif", gif_encode), ("x.bmp", bmp_encode),
                      ("x.ppm", pnm_encode)):
        p = tmp_path / name
        p.write_bytes(enc(img))
        arr, gt, _ = open_raster(str(p))
        np.testing.assert_array_equal(arr, img)


def test_decode_image_dispatch():
    from georay.codecs import decode_image, encode_image
    img = (np.arange(64, dtype=np.uint8).reshape(8, 8) * 4)
    for fmt in ("gif", "bmp", "pnm"):
        out = decode_image(encode_image(img, fmt), fmt)
        got = out[:, :, 0] if out.ndim == 3 else out
        np.testing.assert_array_equal(got, img)


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


def test_truncated_gif_raises():
    """A 37×53 RGB GIF cut anywhere raises ValueError naming the byte it
    ends at, never IndexError (a read past the end)."""
    img = np.random.default_rng(0).integers(0, 256, (53, 37, 3), np.uint8)
    data = gif_encode(img)
    assert gif_decode(data).shape == (53, 37, 3)
    _cuts_raise(gif_decode, data, "gif")
