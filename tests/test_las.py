"""LAS 1.2 point-cloud driver: spec header pin, quantized roundtrips,
range splits, Ray source."""
import struct

import numpy as np
import pyarrow as pa
import pytest

from georay import las


def _cloud(n=1000, seed=3, rgb=False, gps=False):
    rng = np.random.RandomState(seed)
    cols = {
        "x": pa.array(rng.uniform(-120.0, -119.0, n)),
        "y": pa.array(rng.uniform(35.0, 36.0, n)),
        "z": pa.array(rng.uniform(0.0, 4000.0, n)),
        "intensity": pa.array(rng.randint(0, 65536, n, dtype=np.int64)
                              .astype(np.int32)),
        "classification": pa.array(rng.randint(0, 20, n)
                                   .astype(np.int32)),
    }
    if gps:
        cols["gps_time"] = pa.array(rng.uniform(0, 1e6, n))
    if rgb:
        for c in ("red", "green", "blue"):
            cols[c] = pa.array(rng.randint(0, 65536, n, dtype=np.int64)
                               .astype(np.int32))
    return pa.table(cols)


def test_header_fields_pinned(tmp_path):
    """Header bytes checked field-by-field against the ASPRS spec
    offsets, independently of the module's reader."""
    t = _cloud(5)
    p = str(tmp_path / "a.las")
    las.write_las(t, p, scale=(0.01, 0.01, 0.01))
    raw = open(p, "rb").read()
    assert raw[:4] == b"LASF"
    assert (raw[24], raw[25]) == (1, 2)
    hdr_size, data_off = struct.unpack_from("<HI", raw, 94)
    assert hdr_size == 227 and data_off == 227
    assert raw[104] == 0                                # format 0
    assert struct.unpack_from("<H", raw, 105)[0] == 20  # reclen
    assert struct.unpack_from("<I", raw, 107)[0] == 5   # count
    sx, sy, sz, ox, oy, oz = struct.unpack_from("<6d", raw, 131)
    assert (sx, sy, sz) == (0.01, 0.01, 0.01)
    assert len(raw) == 227 + 5 * 20


@pytest.mark.parametrize("fmt,rgb,gps", [(0, False, False),
                                         (1, False, True),
                                         (2, True, False),
                                         (3, True, True)])
def test_roundtrip_formats(tmp_path, fmt, rgb, gps):
    t = _cloud(257, rgb=rgb, gps=gps)
    p = str(tmp_path / "a.las")
    info = las.write_las(t, p, point_format=fmt)
    assert info["n_points"] == 257
    back = las.read_las(p)
    # quantized coords agree within scale/2
    for c, s in (("x", 0.001), ("y", 0.001), ("z", 0.001)):
        d = np.abs(np.asarray(back[c]) - np.asarray(t[c]))
        assert d.max() <= s / 2 + 1e-12
    assert back["intensity"].equals(t["intensity"])
    assert back["classification"].equals(t["classification"])
    if gps:
        np.testing.assert_array_equal(np.asarray(back["gps_time"]),
                                      np.asarray(t["gps_time"]))
    if rgb:
        assert back["red"].equals(t["red"])


def test_exact_roundtrip_on_grid(tmp_path):
    """Coordinates that are exact multiples of the scale reconstruct
    EXACTLY (int32 quantization is lossless on the grid)."""
    xs = np.arange(100) * 0.001 - 120.0
    t = pa.table({"x": pa.array(xs), "y": pa.array(xs + 50),
                  "z": pa.array(np.zeros(100))})
    p = str(tmp_path / "g.las")
    las.write_las(t, p)
    back = las.read_las(p)
    np.testing.assert_allclose(np.asarray(back["x"]), xs, atol=5e-13)


def test_point_range_reads(tmp_path):
    t = _cloud(1000)
    p = str(tmp_path / "a.las")
    las.write_las(t, p)
    full = las.read_las(p)
    a = las.read_las(p, start=0, n_points=300)
    b = las.read_las(p, start=300, n_points=300)
    c = las.read_las(p, start=600)
    assert pa.concat_tables([a, b, c]).equals(full)
    # over-read clamps
    assert las.read_las(p, start=990, n_points=100).num_rows == 10


def test_ray_source_splits(tmp_path, ray_session):
    t = _cloud(2500)
    p = str(tmp_path / "a.las")
    las.write_las(t, p)
    ds = las.read_las_dataset(p, target_points=600)
    back = pa.concat_tables(list(ds.iter_batches(
        batch_size=1 << 20, batch_format="pyarrow")))
    assert back.num_rows == 2500
    assert sorted(np.asarray(back["intensity"]).tolist()) == \
        sorted(np.asarray(t["intensity"]).tolist())


def test_unsupported_gates(tmp_path):
    t = _cloud(4)
    p = str(tmp_path / "a.las")
    las.write_las(t, p)
    raw = bytearray(open(p, "rb").read())
    raw[104] = 6                                 # point format 6
    open(p, "wb").write(bytes(raw))
    with pytest.raises(NotImplementedError, match="format 6"):
        las.las_header(p)
    with pytest.raises(NotImplementedError):
        las.write_las(t, str(tmp_path / "b.las"), point_format=7)


def test_every_las_cut_raises_truncated(tmp_path):
    """A ``.las`` cut at k/25 raises ``ValueError("truncated las at byte
    N")`` instead of returning the points that survived the cut."""
    p = str(tmp_path / "p.las")
    las.write_las(_cloud(200), p)
    data = open(p, "rb").read()
    assert las.read_las(p).num_rows == 200
    for k in range(1, 25):
        cut = data[:len(data) * k // 25]
        with open(p, "wb") as f:
            f.write(cut)
        with pytest.raises(ValueError,
                           match=f"truncated las at byte {len(cut)}$"):
            las.read_las(p)
