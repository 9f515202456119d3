"""JPEG 2000 Part-1 lossless codec (georay.jp2) — MQ coder, tag trees,
5/3 DWT, EBCOT tier-1, tier-2 packets, full codestream + JP2 boxes.

No external JP2 codec exists in this container, so the pins are
(a) exhaustive lossless round-trips over adversarial shapes/values,
(b) hand-computed component pins (DWT lifting on a ramp, tag-tree bit
counts, marker layout), (c) MQ coder fuzz round-trips."""

import numpy as np
import pytest

from georay import jp2

from georay.jp2 import (BioReader, BioWriter, MQDecoder, MQEncoder,
                        TagTree, _DecTagTree, _band_geometry, _fwd53_1d,
                        _inv53_1d, dwt53_forward, dwt53_inverse,
                        j2k_decode, j2k_encode, jp2_decode, jp2_encode,
                        rct_forward, rct_inverse, t1_decode_block,
                        t1_encode_block)


def test_mq_roundtrip_fuzz():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(1, 3000))
        bits = rng.integers(0, 2, n).tolist()
        ctxs = rng.integers(0, 19, n).tolist()
        enc = MQEncoder()
        for c, b in zip(ctxs, bits):
            enc.encode(int(c), int(b))
        dec = MQDecoder(enc.get())
        assert [dec.decode(int(c)) for c in ctxs] == bits


def test_mq_skewed_stream_compresses():
    # 4096 zeros in one context must code far below 4096 bits
    enc = MQEncoder()
    for _ in range(4096):
        enc.encode(0, 0)
    data = enc.get()
    assert len(data) < 64
    dec = MQDecoder(data)
    assert all(dec.decode(0) == 0 for _ in range(4096))


def test_dwt53_ramp_pin():
    # linear ramp → zero detail coefficients (5/3 kills 1st-order trends)
    s, d = _fwd53_1d(np.arange(0, 10, 2, dtype=np.int32)[None, :] // 1)
    assert d.tolist() == [[0, 0]]
    x = np.arange(5, dtype=np.int32)[None, :]
    s, d = _fwd53_1d(x)
    assert s.tolist() == [[0, 2, 4]] and d.tolist() == [[0, 0]]


def test_dwt53_roundtrip_shapes():
    rng = np.random.default_rng(3)
    for n in [1, 2, 3, 4, 5, 8, 17, 64]:
        x = rng.integers(-1000, 1000, (2, n)).astype(np.int32)
        s, d = _fwd53_1d(x)
        assert s.shape[-1] == (n + 1) // 2 and d.shape[-1] == n // 2
        assert np.array_equal(_inv53_1d(s, d), x)
    for shape in [(1, 1), (1, 7), (5, 1), (3, 3), (17, 33), (64, 64)]:
        a = rng.integers(-500, 500, shape).astype(np.int32)
        for lv in range(4):
            ll, det = dwt53_forward(a, lv)
            assert np.array_equal(dwt53_inverse(ll, det), a)


def test_rct_exact():
    rng = np.random.default_rng(5)
    r, g, b = (rng.integers(-128, 128, (13, 11)).astype(np.int32)
               for _ in range(3))
    assert all(np.array_equal(x, y) for x, y in
               zip((r, g, b), rct_inverse(*rct_forward(r, g, b))))


def test_tagtree_full_resolve_and_inclusion():
    rng = np.random.default_rng(9)
    for _ in range(25):
        w, h = int(rng.integers(1, 8)), int(rng.integers(1, 8))
        vals = rng.integers(0, 7, w * h).tolist()
        te = TagTree(w, h)
        te.set_values(vals)
        bio = BioWriter()
        for i in range(w * h):
            te.encode(bio, i, 1 << 20)
        br = BioReader(bio.flush(), 0)
        td = _DecTagTree(w, h)
        got = []
        for i in range(w * h):
            p = 1
            while not td.decode(br, i, p):
                p += 1
            got.append(p - 1)
        assert got == vals


def test_tagtree_single_leaf_bit_pin():
    # 1x1 tree, value v → exactly v zeros then a one
    for v in (0, 1, 4):
        tt = TagTree(1, 1)
        tt.set_values([v])
        bio = BioWriter()
        tt.encode(bio, 0, 1 << 20)
        out = bio.flush()
        bits = "".join(f"{b:08b}" for b in out)[:v + 1]
        assert bits == "0" * v + "1"


def test_bio_ff_stuffing():
    bio = BioWriter()
    bio.write(0xFF, 8)          # a full 0xFF byte
    bio.write(0x7F, 7)          # next byte carries only 7 bits
    data = bio.flush()
    assert data == b"\xff\x7f"
    br = BioReader(data, 0)
    assert br.read(8) == 0xFF and br.read(7) == 0x7F


@pytest.mark.parametrize("band", ["LL", "HL", "LH", "HH"])
def test_t1_block_roundtrip(band):
    rng = np.random.default_rng(11)
    for shape in [(1, 1), (4, 4), (3, 5), (7, 2), (16, 16), (13, 64)]:
        co = rng.integers(-2000, 2000, shape).astype(np.int32)
        data, npass, nbps = t1_encode_block(co, band)
        got = t1_decode_block(data, shape[1], shape[0], npass, nbps, band)
        assert np.array_equal(got, co)
    co = np.zeros((32, 32), np.int32)
    co[5, 7], co[30, 1] = -3, 100
    data, npass, nbps = t1_encode_block(co, band)
    assert np.array_equal(
        t1_decode_block(data, 32, 32, npass, nbps, band), co)
    data, npass, nbps = t1_encode_block(np.zeros((8, 8), np.int32), band)
    assert (data, npass, nbps) == (b"", 0, 0)


def test_t1_npasses_formula():
    co = np.full((6, 6), 5, np.int32)  # nbps=3 → 3*3-2 = 7 passes
    _, npass, nbps = t1_encode_block(co, "LL")
    assert nbps == 3 and npass == 7


def test_band_geometry_sizes():
    geo = _band_geometry(13, 21, 2)
    assert geo[0] == (0, [("LL", 4, 6)])
    assert geo[1] == (1, [("HL", 4, 5), ("LH", 3, 6), ("HH", 3, 5)])
    assert geo[2] == (2, [("HL", 7, 10), ("LH", 6, 11), ("HH", 6, 10)])
    # sizes telescope back to the full image
    assert 4 + 3 + 6 == 13 and 6 + 5 + 10 == 21


def test_j2k_roundtrip_gray():
    rng = np.random.default_rng(13)
    for shape in [(1, 1), (1, 9), (9, 1), (3, 3), (16, 16), (33, 17),
                  (64, 64), (65, 70)]:
        a = rng.integers(0, 256, shape).astype(np.uint8)
        assert np.array_equal(j2k_decode(j2k_encode(a)), a)


def test_jp2_roundtrip_rgb():
    rng = np.random.default_rng(17)
    for shape in [(1, 1, 3), (5, 8, 3), (32, 32, 3), (61, 47, 3)]:
        a = rng.integers(0, 256, shape).astype(np.uint8)
        assert np.array_equal(jp2_decode(jp2_encode(a)), a)


def test_jp2_uint16_and_extremes():
    rng = np.random.default_rng(19)
    a = rng.integers(0, 65536, (20, 31)).astype(np.uint16)
    assert np.array_equal(j2k_decode(j2k_encode(a)), a)
    for v in (0, 255):
        a = np.full((40, 40, 3), v, np.uint8)
        assert np.array_equal(jp2_decode(jp2_encode(a)), a)


def test_jp2_small_codeblocks():
    rng = np.random.default_rng(23)
    a = rng.integers(0, 256, (50, 50, 3)).astype(np.uint8)
    assert np.array_equal(jp2_decode(jp2_encode(a, cb=16)), a)


def test_smooth_image_compresses():
    x = np.arange(64)
    g = ((x[None, :] * 3 + x[:, None] * 5) % 256).astype(np.uint8)
    a = np.stack([g, g // 2, 255 - g], -1)
    data = jp2_encode(a)
    assert len(data) < a.size // 4  # EBCOT contexts must actually model
    assert np.array_equal(jp2_decode(data), a)


def test_codestream_marker_layout():
    a = np.zeros((8, 8), np.uint8)
    code = j2k_encode(a)
    assert code[:2] == b"\xff\x4f"            # SOC
    assert code[2:4] == b"\xff\x51"           # SIZ
    assert code[-2:] == b"\xff\xd9"           # EOC
    assert b"\xff\x52" in code and b"\xff\x5c" in code
    assert b"\xff\x90" in code and b"\xff\x93" in code
    jp2 = jp2_encode(a)
    assert jp2[:4] == b"\x00\x00\x00\x0c" and jp2[4:8] == b"jP  "
    assert b"ftyp" in jp2 and b"ihdr" in jp2 and b"jp2c" in jp2


def test_codecs_dispatch():
    from georay.codecs import decode_image, encode_image
    rng = np.random.default_rng(29)
    a = rng.integers(0, 256, (24, 17, 3)).astype(np.uint8)
    for fmt in ("jp2", "j2k"):
        assert np.array_equal(decode_image(encode_image(a, fmt), fmt), a)


def test_irreversible_97_psnr_gate():
    # 9/7 + ICT + scalar-expounded quantization (Annex F.4.8 / E / G.3):
    # PSNR >= 40 dB at the default step, monotone rate-distortion
    rng = np.random.RandomState(7)
    x = np.linspace(0, 1, 96)
    img = (np.outer(np.sin(x * 6), np.cos(x * 5)) * 100 + 120)
    rgb = np.stack([img, img / 2 + 30, 255 - img],
                   axis=-1).astype(np.uint8)
    sizes, psnrs = [], []
    for step in (0.25, 1.0, 4.0):
        code = jp2.j2k_encode(rgb, reversible=False, step=step)
        back = jp2.j2k_decode(code)
        mse = np.mean((back.astype(float) - rgb.astype(float)) ** 2)
        sizes.append(len(code))
        psnrs.append(10 * np.log10(255 ** 2 / mse))
    assert psnrs[1] >= 40.0
    assert psnrs[0] > psnrs[1] > psnrs[2]
    assert sizes[0] > sizes[1] > sizes[2]
    # lossy beats lossless on size at moderate quality
    assert sizes[1] < len(jp2.j2k_encode(rgb, reversible=True))


def test_irreversible_marker_fields():
    g = (np.add.outer(np.arange(32), np.arange(32)) % 256).astype(np.uint8)
    code = jp2.j2k_encode(g, reversible=False, step=1.0)
    # COD transform byte = 0 (9/7), QCD Sqcd style = 2 (expounded)
    pos = 2
    seen = {}
    while pos < len(code) - 2:
        marker = code[pos:pos + 2]
        pos += 2
        if marker == b"\xff\x93":
            break
        ln = int.from_bytes(code[pos:pos + 2], "big")
        seen[marker] = code[pos + 2:pos + ln]
        pos += ln
    assert seen[b"\xff\x52"][9] == 0
    assert seen[b"\xff\x5c"][0] & 0x1F == 2
    back = jp2.j2k_decode(code)
    assert back.shape == g.shape


@pytest.mark.parametrize("step", [0.0, -1.0])
def test_irreversible_rejects_nonpositive_step(step):
    g = np.zeros((8, 8), np.uint8)
    with pytest.raises(ValueError, match="step must be > 0"):
        jp2.j2k_encode(g, reversible=False, step=step)


def test_irreversible_gray_odd_and_uint16():
    g = (np.add.outer(np.arange(61), np.arange(47)) % 251).astype(np.uint8)
    back = jp2.j2k_decode(jp2.j2k_encode(g, reversible=False, step=0.5))
    assert back.shape == g.shape
    mse = np.mean((back.astype(float) - g.astype(float)) ** 2)
    assert 10 * np.log10(255 ** 2 / max(mse, 1e-12)) >= 40
    rng = np.random.RandomState(2)
    u16 = (rng.rand(40, 40) * 60000).astype(np.uint16)
    back = jp2.j2k_decode(jp2.j2k_encode(u16, reversible=False, step=2.0))
    mse = np.mean((back.astype(float) - u16.astype(float)) ** 2)
    assert 10 * np.log10(65535 ** 2 / mse) >= 40


def test_dwt97_perfect_reconstruction():
    rng = np.random.RandomState(0)
    for shape, lv in [((64, 64), 3), ((37, 53), 3), ((33, 32), 2)]:
        a = rng.rand(*shape) * 255
        ll, det = jp2.dwt97_forward(a, lv)
        back = jp2.dwt97_inverse(ll, det)
        assert np.abs(back - a).max() < 1e-9
