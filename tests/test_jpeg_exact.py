"""Bit-exactness pins for the JPEG decoders.

* The sha256 of the decoded pixels of a fixed corpus is pinned: every
  fixture JPEG (w, h) class, 4:2:0 with odd dimensions, gray, 8×8, a
  reduced-size decode and progressive streams.  The digests were taken
  from the decoder before its Huffman chase was rewritten; any change to
  a decoded pixel fails here.
* Restart intervals (DRI/RSTn): streams built block by block from known
  quantized coefficients, with RST markers and predictor resets every 1
  and every 3 MCUs, decode to the same pixels as the same coefficients
  without restarts — and both equal the coefficients' own inverse
  transform by a numpy oracle in this module, so the chase is checked
  against ground truth.
* Back end: the compiled dequantize/IDCT/upsample/color pass equals the
  numpy oracle bit for bit, on its float32 planes and on its pixels, for
  seeded random coefficient stores (4:4:4, 4:2:0, 4:2:2 and gray, at
  scales 1/2/4/8) with extreme values: ±32767 at quantizer 255 and
  int32-range coefficients, as a malformed DHT can produce.  The oracle
  spells each matrix product out as its sequential float32 sum over k:
  numpy's ``@`` goes to the CPU's BLAS kernel, which may fuse products
  and sums, and the pinned digests above were taken with plain sums.
* Damaged streams: every non-progressive stream above, cut at k/25 of
  its length and with seeded single-byte flips in its entropy-coded
  data, either raises ``ValueError`` through ``codecs.decode_image`` or
  decodes to a uint8 array of the intact stream's shape; a cut of more
  than 4 bytes into the entropy-coded data raises.  Damaged frame
  headers (dimensions, sampling factors that do not tile the image,
  other than 1 or 3 components) raise or decode to the shape the header
  gives, and the back end refuses every frame it cannot cover.  These
  run in a child process, so a memory fault in the compiled pass fails
  the test.
  The loader of the compiled pass is tested with every kernel's, in
  tests/test_compiled.py.
"""

import hashlib
import json
import os
import signal
import struct
import subprocess
import sys

import numpy as np
import pytest

from georay import fixtures as fx
from georay import jpeg as J


def _fixture_jpegs():
    t = fx.images_table(16)
    return {f"fixture_{r['w']}x{r['h']}": r["bytes"]
            for r in t.to_pylist() if r["fmt"] == "jpeg"}


def _corpus():
    rng = np.random.default_rng(5)
    rgb = rng.integers(0, 256, (33, 47, 3), dtype=np.uint8)
    smooth = fx.pattern(4, 40, 24)
    gray = (np.arange(37)[:, None] * 3 + np.arange(29)[None, :] * 5) \
        .astype(np.uint8)
    c = _fixture_jpegs()
    c["sub420_33x47"] = J.jpeg_encode(rgb, quality=90, subsample=True)
    c["sub420_smooth_24x40"] = J.jpeg_encode(smooth, quality=75,
                                             subsample=True)
    c["gray_37x29"] = J.jpeg_encode(gray, quality=85)
    c["rgb_8x8"] = J.jpeg_encode(fx.pattern(9, 8, 8), quality=92)
    c["gray_8x8"] = J.jpeg_encode(gray[:8, :8], quality=50)
    c["progressive_33x47"] = J.jpeg_encode(rgb, quality=90,
                                           progressive=True)
    c["progressive_420_33x47"] = J.jpeg_encode(rgb, quality=80,
                                               subsample=True,
                                               progressive=True)
    return c


_PINNED = {
    "fixture_20x16":
        "7eab6c401690438ce7162b7be49edd2cf6fb2adb26b5783fe61f6e2419a40251",
    "fixture_20x20":
        "6f431ef6dcf9a31be02443cc956ed6482f6670040d3df4228db9c787909cdeaf",
    "fixture_20x256":
        "a857023b724633b9b5bad89ae0ee593d214caf22d125bd367949edefbc39410c",
    "fixture_20x64":
        "74555be331326d5a871efa84b1cee09314656ada3e569a763535836c60553da6",
    "fixture_256x16":
        "f8e78389f66f3e8de4a3dad9ccd516df90679f2c331e967af3d5b9469ffa71e9",
    "fixture_256x20":
        "ab4f5772c00d6d3a72614eecbf7867ab1efcb6f4ee3d58bf05f4fab0d19b973a",
    "fixture_256x256":
        "e2ef6e5260c8066e8002ec96930198d4a360748c7469fbf3a02ad43fb3a83801",
    "fixture_256x64":
        "422d84bd63470cb99132ec6b2e77bca8fa052d9aa7806f00e56cfb084e2d1f53",
    "gray_37x29":
        "12dc76dd89218cf5eeaa3d68dcc63c9a1a89df2b49db4116661f7ab302c0d794",
    "gray_8x8":
        "ce28ade149909f99dcdfde401ce6b705febfe6a2ac3093885d9e882dd5b5e057",
    "progressive_33x47":
        "4551b4ad5c624272692fcabba88a897dd11c8ab8c87aaa0312a2c0898167a961",
    "progressive_420_33x47":
        "f572f97427f20c3e8f35fb615745986ea4aa5a7a6647e79becb1d23572b1ad5a",
    "rgb_8x8":
        "72d9de4c252ef9fb368f6fc85164ceea173bbc006a7d188c22e4f2367ade5d5d",
    "sub420_33x47":
        "6f2d5981599e1b4a9b2dc3849901ca4a148478eaf364e5518d0a58734eaa19ee",
    "sub420_smooth_24x40":
        "2ec943f17c1bce76182fc0391b9c7de99b8b24324a7e2bc78b97d50ffe0c031f",
}
_PINNED_SCALED = (
    "1d87d45ae76eb66ef083e033d9cc341d6b308d577d0f03c5a3a3c2184210f389")


@pytest.fixture(scope="module")
def corpus():
    return _corpus()


def test_corpus_covers_every_fixture_jpeg_class(corpus):
    assert sum(k.startswith("fixture_") for k in corpus) == 8
    assert set(corpus) == set(_PINNED)


@pytest.mark.parametrize("name", sorted(_PINNED))
def test_decoded_pixels_are_pinned(corpus, name):
    dec = J.jpeg_decode(corpus[name])
    got = hashlib.sha256(f"{dec.shape}".encode() + dec.tobytes()).hexdigest()
    assert got == _PINNED[name]


def test_reduced_size_decode_is_pinned(corpus):
    dec = J.jpeg_decode(corpus["sub420_33x47"], scale=2)
    got = hashlib.sha256(f"{dec.shape}".encode() + dec.tobytes()).hexdigest()
    assert got == _PINNED_SCALED


# ---------------------------------------------------------------------------
# Numpy oracle of the back end
# ---------------------------------------------------------------------------

def _matmul_seq(a, b):
    """a @ b for stacks of n×n float32 matrices, each output the
    sequential sum over k of rounded products (no fused multiply-add)."""
    n = a.shape[-1]
    acc = np.zeros(np.broadcast_shapes(a.shape, b.shape), np.float32)
    for k in range(n):
        acc = acc + a[..., :, k:k + 1] * b[..., k:k + 1, :]
    return acc


def _oracle_blocks(zz, q, N):
    """(n, 64) zigzag ints → (n, N, N) float32 samples (+128): dequantize
    in float32, keep the top-left N×N coefficients times N/8, and
    inverse-transform with the orthonormal N-point DCT."""
    deq = zz.astype(np.float32)
    deq *= q[J._ZZ].astype(np.float32)[None, :]
    rast = np.empty_like(deq)
    rast[:, J._ZZ] = deq
    f = rast.reshape(-1, 8, 8)[:, :N, :N]
    if N < 8:
        f = f * np.float32(N / 8.0)
    k = np.arange(N)
    cn = np.cos((2 * k[None, :] + 1) * k[:, None] * np.pi / (2 * N))
    cn *= np.sqrt(2.0 / N)
    cn[0] *= 1.0 / np.sqrt(2.0)
    cn = cn.astype(np.float32)
    out = f if N == 1 else _matmul_seq(_matmul_seq(cn.T[None], f), cn[None])
    return out + np.float32(128.0)


def _oracle_plane(zz, q, c, N):
    bh, bw = c["bh"], c["bw"]
    return _oracle_blocks(zz, q, N).reshape(bh, bw, N, N)\
        .transpose(0, 2, 1, 3).reshape(bh * N, bw * N)


def _oracle_image(coef, comps, qtables, h, w, hmax, vmax, scale=1):
    """The former numpy back end: IDCT, de-pad, upsample, color."""
    N = 8 // scale
    planes = []
    for ci, c in enumerate(comps):
        plane = _oracle_plane(coef[ci], qtables[c["tq"]], c, N)
        cw = -(-(-(-w * c["h"] // hmax)) // scale)
        ch = -(-(-(-h * c["v"] // vmax)) // scale)
        plane = plane[:ch, :cw]
        plane = np.repeat(np.repeat(plane, vmax // c["v"], axis=0),
                          hmax // c["h"], axis=1)
        planes.append(plane)
    h, w = -(-h // scale), -(-w // scale)
    planes = [p[:h, :w] for p in planes]
    if len(planes) == 1:
        return np.clip(np.rint(planes[0]), 0, 255).astype(np.uint8)
    y, cb, cr = planes
    cb = cb - np.float32(128.0)
    cr = cr - np.float32(128.0)
    r = cr * np.float32(1.402) + y
    g = (cb * np.float32(-0.344136286) + cr * np.float32(-0.714136286)) + y
    b = cb * np.float32(1.772) + y
    return np.stack([np.clip(np.rint(t), 0, 255) for t in (r, g, b)],
                    axis=-1).astype(np.uint8)


_LAYOUTS = {"444": [(1, 1), (1, 1), (1, 1)], "420": [(2, 2), (1, 1), (1, 1)],
            "422": [(2, 1), (1, 1), (1, 1)], "gray": [(1, 1)]}


@pytest.mark.parametrize("scale", [1, 2, 4, 8])
@pytest.mark.parametrize("layout", sorted(_LAYOUTS))
def test_back_end_equals_numpy_oracle(layout, scale):
    rng = np.random.default_rng(31 + scale)
    h, w = 37, 45
    sampling = _LAYOUTS[layout]
    hmax = max(s[0] for s in sampling)
    vmax = max(s[1] for s in sampling)
    mcux, mcuy = -(-w // (8 * hmax)), -(-h // (8 * vmax))
    comps = [{"h": hi, "v": vi, "tq": min(i, 1), "bw": mcux * hi,
              "bh": mcuy * vi} for i, (hi, vi) in enumerate(sampling)]
    qt = {0: J._scale_qtable(J._Q_LUMA, 75),
          1: np.full(64, 255, np.int32)}
    coef = []
    for c in comps:
        n = c["bw"] * c["bh"]
        zz = rng.integers(-60, 60, (n, 64)).astype(np.int32)
        zz[rng.random((n, 64)) < 0.6] = 0
        zz[n // 3] = rng.choice([-32767, 32767], 64)
        zz[n // 2] = rng.integers(-2**31, 2**31, 64)
        coef.append(zz)
    N = 8 // scale
    for ci, c in enumerate(comps):
        got = J._idct_plane(coef[ci], qt[c["tq"]], c["bw"], c["bh"], N)
        want = _oracle_plane(coef[ci], qt[c["tq"]], c, N)
        assert got.view(np.uint32).tobytes() == want.view(np.uint32).tobytes()
    args = (coef, comps, qt, h, w, hmax, vmax, scale)
    got = J._coef_to_image(*args)
    assert got.dtype == np.uint8
    assert np.array_equal(got, _oracle_image(*args))


# ---------------------------------------------------------------------------
# Restart intervals
# ---------------------------------------------------------------------------

_QUALITY = 92


def _random_coefs(rng, nblocks):
    """Quantized zigzag blocks with long zero runs (ZRL), blocks that end
    at k = 63 (no EOB), all-zero blocks and large DC swings."""
    zz = np.zeros((nblocks, 64), dtype=np.int32)
    zz[:, 0] = rng.integers(-250, 250, nblocks)
    for b in range(nblocks):
        kind = b % 4
        if kind == 0:
            ks = rng.choice(np.arange(1, 64), rng.integers(1, 12),
                            replace=False)
        elif kind == 1:
            ks = np.array([int(rng.integers(17, 40)), 63])
        elif kind == 2:
            ks = np.arange(1, 64, int(rng.integers(1, 4)))
        else:
            ks = np.array([], dtype=np.int64)
        vals = rng.integers(1, 90, len(ks)) * rng.choice([-1, 1], len(ks))
        zz[b, ks] = vals
    return zz


def _stream(h, w, subsample, coefs, restart):
    """A baseline stream of the given quantized coefficients (one
    ``(bw·bh, 64)`` array per component on the MCU block grid), with a
    DRI of ``restart`` MCUs (0: none): RSTn markers between intervals and
    the DC predictors reset at each."""
    head = J.jpeg_encode(np.zeros((h, w, 3), np.uint8), quality=_QUALITY,
                         subsample=subsample)
    sos = head.index(b"\xff\xda")
    sos_end = sos + 2 + struct.unpack_from(">H", head, sos + 2)[0]
    dri = (b"\xff\xdd\x00\x04" + struct.pack(">H", restart)
           if restart else b"")
    dc_l = J._build_codes(J._DC_LUMA_BITS, J._DC_LUMA_VALS)
    dc_c = J._build_codes(J._DC_CHROMA_BITS, J._DC_CHROMA_VALS)
    ac = J._build_codes(J._AC_LUMA_BITS, J._AC_LUMA_VALS)
    f = 2 if subsample else 1
    mcux, mcuy = -(-w // (8 * f)), -(-h // (8 * f))
    sampling = [(f, f), (1, 1), (1, 1)]
    out = [head[:sos], dri, head[sos:sos_end]]
    bw = J._BitWriter()
    preds = [0, 0, 0]
    for mi in range(mcux * mcuy):
        if restart and mi and mi % restart == 0:
            bw.flush()
            out += [bytes(bw.out), bytes([0xFF, 0xD0 + (mi // restart - 1)
                                          % 8])]
            bw = J._BitWriter()
            preds = [0, 0, 0]
        my, mx = divmod(mi, mcux)
        for ci, (hi, vi) in enumerate(sampling):
            for by in range(vi):
                for bx in range(hi):
                    bi = (my * vi + by) * mcux * hi + mx * hi + bx
                    preds[ci] = J._encode_block(
                        bw, coefs[ci][bi], preds[ci],
                        dc_l if ci == 0 else dc_c, ac)
    bw.flush()
    out += [bytes(bw.out), b"\xff\xd9"]
    return b"".join(out)


@pytest.mark.parametrize("subsample", [False, True])
def test_restart_intervals_decode_equal(subsample):
    h, w = (37, 51) if subsample else (29, 43)
    f = 2 if subsample else 1
    mcux, mcuy = -(-w // (8 * f)), -(-h // (8 * f))
    rng = np.random.default_rng(17 + subsample)
    comps = [{"h": f, "v": f, "tq": 0}, {"h": 1, "v": 1, "tq": 1},
             {"h": 1, "v": 1, "tq": 1}]
    for c in comps:
        c["bw"], c["bh"] = mcux * c["h"], mcuy * c["v"]
    coefs = [_random_coefs(rng, c["bw"] * c["bh"]) for c in comps]
    qt = {0: J._scale_qtable(J._Q_LUMA, _QUALITY),
          1: J._scale_qtable(J._Q_CHROMA, _QUALITY)}
    truth = _oracle_image(coefs, comps, qt, h, w, f, f)
    plain = _stream(h, w, subsample, coefs, 0)
    assert np.array_equal(J.jpeg_decode(plain), truth)
    for restart in (1, 3):
        data = _stream(h, w, subsample, coefs, restart)
        scan = data[data.index(b"\xff\xda"):]
        n_rst = sum(scan.count(bytes([0xFF, m])) for m in range(0xD0, 0xD8))
        assert n_rst == -(-mcux * mcuy // restart) - 1
        assert np.array_equal(J.jpeg_decode(data), truth)


# ---------------------------------------------------------------------------
# Damaged input to the compiled entropy pass
# ---------------------------------------------------------------------------

def _restart_streams():
    """The DRI streams of the test above, every 1 and 3 MCUs, at 4:4:4
    and 4:2:0."""
    out = {}
    for subsample in (False, True):
        h, w = (37, 51) if subsample else (29, 43)
        f = 2 if subsample else 1
        nblk = -(-w // (8 * f)) * -(-h // (8 * f))
        rng = np.random.default_rng(17 + subsample)
        coefs = [_random_coefs(rng, nblk * f * f), _random_coefs(rng, nblk),
                 _random_coefs(rng, nblk)]
        for restart in (1, 3):
            out[f"restart{restart}_{subsample}"] = _stream(
                h, w, subsample, coefs, restart)
    return out


def _on_alarm(signum, frame):
    raise TimeoutError("decode ran over 5 s")


def _outcome(b, shape):
    """``"ValueError"`` if ``codecs.decode_image`` raises it on ``b``
    within 5 s, ``"ok"`` if it returns a uint8 array of ``shape``, else a
    description of what went wrong."""
    from georay import codecs
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(5)
    try:
        a = codecs.decode_image(b, "jpeg")
    except ValueError:
        return "ValueError"
    except Exception as e:         # reported by the test, not hidden
        return f"{type(e).__name__}: {e}"
    finally:
        signal.alarm(0)
    ok = a.dtype == np.uint8 and a.shape == shape
    return "ok" if ok else f"array {a.dtype} {a.shape}"


def _fuzz_outcomes():
    """Every non-progressive corpus stream and restart stream, cut at k/25
    of its length (k = 1..24) and with 8 seeded single-byte flips in its
    entropy-coded data, through ``codecs.decode_image``, each under a 5 s
    alarm.  Returns ``[(case, scan_bytes_cut, outcome)]`` with the
    outcome of :func:`_outcome` for the intact stream's shape."""
    outcome = _outcome
    streams = {k: v for k, v in _corpus().items()
               if not k.startswith("progressive")}
    streams.update(_restart_streams())
    rng = np.random.default_rng(23)
    res = []
    for name, d in sorted(streams.items()):
        shape = J.jpeg_decode(d).shape
        sos = d.index(b"\xff\xda")
        e0 = sos + 2 + struct.unpack_from(">H", d, sos + 2)[0]
        e1 = d.rindex(b"\xff\xd9")
        for k in range(1, 25):
            n = len(d) * k // 25
            res.append((f"{name}/cut{k}", e1 - n, outcome(d[:n], shape)))
        for j in range(8):
            x = bytearray(d)
            x[int(rng.integers(e0, e1))] ^= int(rng.integers(1, 256))
            res.append((f"{name}/flip{j}", 0, outcome(bytes(x), shape)))
    return res


def _segment(d, markers):
    """``(start, end)`` of the first header segment whose marker is in
    ``markers``; the segments before the first SOS are walked by their
    lengths, so a marker-like pair inside a table is never taken."""
    pos = 2
    while d[pos + 1] not in markers:
        pos += 2 + struct.unpack_from(">H", d, pos + 2)[0]
    return pos, pos + 2 + struct.unpack_from(">H", d, pos + 2)[0]


def _resegment(d, markers, edit):
    """``d`` with the payload of its first ``markers`` segment replaced by
    ``edit(payload)`` and the segment length fixed."""
    i, e = _segment(d, markers)
    body = bytes(edit(bytearray(d[i + 4:e])))
    return d[:i + 2] + struct.pack(">H", len(body) + 2) + body + d[e:]


def _sof_cases(d):
    """Damaged frame headers of stream ``d``: ``[(case, stream, shape,
    allowed outcomes)]``.  A frame that cannot be decoded must raise;
    one that can must raise or decode to the shape its header gives;
    dimensions past the coded MCUs must raise in a baseline stream,
    whose decoder reads no more than 4 zero bytes past the data, and
    may decode in a progressive one, which reads zero bits past it."""
    sof = (0xC0, 0xC2)
    i, _ = _segment(d, sof)
    prog = d[i + 1] == 0xC2
    h, w = struct.unpack_from(">HH", d, i + 5)
    nc = d[i + 9]
    vmax = max(d[i + 11 + 3 * j] & 15 for j in range(nc))
    RAISE, EITHER = {"ValueError"}, {"ValueError", "ok"}
    PAST = EITHER if prog else RAISE

    def shape(hh, ww, k=nc):
        return (hh, ww, 3) if k == 3 else (hh, ww)

    def sof_edit(fn):
        def edit(b):
            fn(b)
            return b
        return _resegment(d, sof, edit)

    def dims(hh, ww):
        return sof_edit(lambda b: b.__setitem__(slice(1, 5),
                                                struct.pack(">HH", hh, ww)))

    def factors(*hv):
        def fn(b):
            for j, x in enumerate(hv):
                b[7 + 3 * j] = x
        return sof_edit(fn)

    def components(k):
        """The frame and its first scan with ``k`` components: the last
        ones dropped, or copies of the last one under new ids added."""
        def sof_fn(b):
            cs = [b[6 + 3 * j:9 + 3 * j] for j in range(nc)]
            cs = cs[:k] + [bytearray([200 + j]) + cs[-1][1:]
                           for j in range(k - nc)]
            return b[:5] + bytes([k]) + b"".join(cs)

        def sos_fn(b):
            ns = b[0]
            cs = [b[1 + 2 * j:3 + 2 * j] for j in range(ns)]
            cs = cs[:k] + [bytearray([200 + j]) + cs[-1][1:]
                           for j in range(k - ns)]
            return bytes([len(cs)]) + b"".join(cs) + b[1 + 2 * ns:]
        return _resegment(_resegment(d, sof, sof_fn), (0xDA,), sos_fn)

    mcu_h = 8 * vmax
    cases = [
        ("h0", dims(0, w), None, RAISE),
        ("w0", dims(h, 0), None, RAISE),
        ("h8x", dims(8 * h, w), shape(8 * h, w), PAST),
        ("w8x", dims(h, 8 * w), shape(h, 8 * w), PAST),
        ("mcu_row_more", dims(h + mcu_h, w), shape(h + mcu_h, w), PAST),
        ("rows_to_mcu", dims(-(-h // mcu_h) * mcu_h, w),
         shape(-(-h // mcu_h) * mcu_h, w), EITHER),
        ("factor_0", factors(0x01), None, RAISE),
        ("factor_5", factors(0x15), None, RAISE),
        ("nc_0", sof_edit(lambda b: b.__setitem__(5, 0)), None, RAISE),
        ("nc_plus_1", sof_edit(lambda b: b.__setitem__(5, nc + 1)), None,
         RAISE),
        ("frame_2", components(2), None, RAISE),
        ("frame_4", components(4), None, RAISE),
    ]
    if nc == 3:
        cases += [
            ("nc_minus_1", sof_edit(lambda b: b.__setitem__(5, 2)), None,
             RAISE),
            ("repeated_id", sof_edit(lambda b: b.__setitem__(9, b[6])),
             None, RAISE),
            ("luma3x1_chroma2x1", factors(0x31, 0x21, 0x21), None, RAISE),
            ("luma1x3_chroma1x2", factors(0x13, 0x12, 0x12), None, RAISE),
            ("chroma_over_luma", factors(0x11, 0x22, 0x22), shape(h, w),
             EITHER),
            ("luma4x4", factors(0x44, 0x11, 0x11), shape(h, w), EITHER),
        ]
    return cases


def _sof_outcomes():
    """:func:`_sof_cases` of a 4:4:4, a 4:2:0, a gray, a restart-interval
    and a progressive 4:2:0 stream: ``[(case, allowed, outcome)]``."""
    c = _corpus()
    streams = {k: c[k] for k in ("fixture_20x16", "sub420_33x47",
                                 "gray_37x29", "progressive_420_33x47")}
    streams["restart3_True"] = _restart_streams()["restart3_True"]
    return [(f"{name}/{case}", sorted(allowed), _outcome(b, shape))
            for name, d in sorted(streams.items())
            for case, b, shape, allowed in _sof_cases(d)]


def _back_end_outcomes():
    """``J._coef_to_image`` at scales 1, 2 and 8 on frames that it must
    refuse: sampling factors whose upsampled planes do not cover the
    image, across and down; 2 and 4 components; a missing quantization
    table.  Returns ``[(case, outcome)]``."""
    qt = {0: J._scale_qtable(J._Q_LUMA, _QUALITY),
          1: J._scale_qtable(J._Q_CHROMA, _QUALITY)}
    cases = {
        "luma3x1_chroma2x1": (16, 48, [(3, 1), (2, 1), (2, 1)], (0, 1, 1)),
        "luma1x3_chroma1x2": (48, 16, [(1, 3), (1, 2), (1, 2)], (0, 1, 1)),
        "two_components": (16, 16, [(1, 1)] * 2, (0, 1)),
        "four_components": (16, 16, [(1, 1)] * 4, (0, 1, 1, 1)),
        "no_quant_table": (16, 16, [(1, 1)] * 3, (0, 1, 7)),
    }
    res = []
    for name, (h, w, sampling, tqs) in sorted(cases.items()):
        hmax = max(a for a, _ in sampling)
        vmax = max(b for _, b in sampling)
        mcux, mcuy = -(-w // (8 * hmax)), -(-h // (8 * vmax))
        comps = [{"h": a, "v": b, "tq": t, "bw": mcux * a, "bh": mcuy * b}
                 for (a, b), t in zip(sampling, tqs)]
        coef = [np.ones((c["bw"] * c["bh"], 64), np.int32) for c in comps]
        for scale in (1, 2, 8):
            try:
                J._coef_to_image(coef, comps, qt, h, w, hmax, vmax,
                                 scale=scale)
                o = "decoded"
            except ValueError:
                o = "ValueError"
            except Exception as e:
                o = f"{type(e).__name__}: {e}"
            res.append((f"{name}/scale{scale}", o))
    return res


def _run(code):
    """``python -c code`` with georay and this module importable."""
    tests = os.path.dirname(os.path.abspath(__file__))
    e = dict(os.environ, PYTHONPATH=f"{os.path.dirname(tests)}:{tests}")
    p = subprocess.run([sys.executable, "-c", code], env=e, text=True,
                       capture_output=True, timeout=300)
    return p.stdout, p.stderr, p.returncode


def test_damaged_streams_raise_value_error_or_decode():
    """Run in a child process, so that a memory fault in the compiled pass
    fails this test instead of killing the session."""
    out, err, rc = _run("import json, test_jpeg_exact as t; "
                        "print(json.dumps(t._fuzz_outcomes()))")
    assert rc == 0, err[-2000:]
    res = json.loads(out)
    assert len(res) == 17 * 32
    bad = [(case, o) for case, _, o in res if o not in ("ok", "ValueError")]
    assert not bad
    # past the 4 zero bytes the decoder may read, a cut must be caught
    early = [case for case, cut, o in res if cut > 4 and o != "ValueError"]
    assert not early


def test_damaged_frame_headers_raise_value_error_or_decode():
    """Frame-header damage, in a child process for the same reason."""
    out, err, rc = _run("import json, test_jpeg_exact as t; "
                        "print(json.dumps(t._sof_outcomes()))")
    assert rc == 0, err[-2000:]
    res = json.loads(out)
    assert len(res) == 5 * 12 + 4 * 6
    bad = [(case, o) for case, allowed, o in res if o not in allowed]
    assert not bad


def test_back_end_refuses_frames_it_cannot_cover():
    """The compiled back end raises ``ValueError`` for every frame it
    cannot decode, in a child process, so that a read outside a plane
    that faults fails this test."""
    out, err, rc = _run("import json, test_jpeg_exact as t; "
                        "print(json.dumps(t._back_end_outcomes()))")
    assert rc == 0, err[-2000:]
    res = json.loads(out)
    assert len(res) == 5 * 3
    assert all(o == "ValueError" for _, o in res), res
