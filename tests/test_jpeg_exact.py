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
  transform, so the chase is checked against ground truth.
* Damaged streams: every non-progressive stream above, cut at k/25 of
  its length and with seeded single-byte flips in its entropy-coded
  data, either raises ``ValueError`` through ``codecs.decode_image`` or
  decodes to a uint8 array of the intact stream's shape; a cut of more
  than 4 bytes into the entropy-coded data raises.  The sweep runs in a
  child process, so a memory fault in the compiled pass fails the test.
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
    truth = J._coef_to_image([z.copy() for z in coefs], comps, qt, h, w,
                             f, f)
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


def _fuzz_outcomes():
    """Every non-progressive corpus stream and restart stream, cut at k/25
    of its length (k = 1..24) and with 8 seeded single-byte flips in its
    entropy-coded data, through ``codecs.decode_image``, each under a 5 s
    alarm.  Returns ``[(case, scan_bytes_cut, outcome)]``: the outcome is
    ``"ValueError"``, ``"ok"`` for a uint8 array of the intact stream's
    shape, else a description of what went wrong."""
    from georay import codecs

    def outcome(b, shape):
        signal.alarm(5)
        try:
            a = codecs.decode_image(b, "jpeg")
        except ValueError:
            return "ValueError"
        except Exception as e:     # reported by the test, not hidden
            return f"{type(e).__name__}: {e}"
        finally:
            signal.alarm(0)
        ok = a.dtype == np.uint8 and a.shape == shape
        return "ok" if ok else f"array {a.dtype} {a.shape}"

    signal.signal(signal.SIGALRM, _on_alarm)
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
