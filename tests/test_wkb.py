"""The one WKB reader (``georay.geom.read_wkb``) seen through every module
that reads WKB.

* Every WKB-consuming writer gives the same output for ISO Z / M / ZM,
  EWKB Z and big-endian twins of a geometry as for its little-endian XY
  original (the engine keeps XY).
* Every byte cut of a WKB of each type an entry point accepts raises
  ``ValueError("truncated wkb at byte N")``, and a 5,000-deep
  GeometryCollection raises ``ValueError``, each under a 5 s alarm.
"""
import os
import signal
import struct

import numpy as np
import pyarrow as pa
import pytest

_FLAVOURS = {"xy": (0, 0), "iso_z": (1, 1000), "iso_m": (1, 2000),
             "iso_zm": (2, 3000), "ewkb_z": (1, 0x80000000)}


def _wkb(t, c, flavour="xy", order="<"):
    """WKB of OGC type ``t``: ``c`` is an XY coordinate (Point), a list
    of them (LineString, CircularString), a list of rings (Polygon,
    Triangle) or a list of ``(type, c)`` members.  ``flavour`` adds
    ordinates (all 99.5) and says so in the type word the ISO or EWKB
    way; ``order`` is ``"<"`` or ``">"``."""
    extra, code = _FLAVOURS[flavour]
    head = struct.pack(order + "BI", order == "<", t + code)
    count = struct.Struct(order + "I").pack

    def pts(p):
        a = np.asarray(p, np.float64).reshape(-1, 2)
        a = np.hstack([a, np.full((len(a), extra), 99.5)])
        return a.astype(order + "f8").tobytes()

    if t == 1:
        return head + pts(c)
    if t in (2, 8):
        return head + count(len(c)) + pts(c)
    if t in (3, 17):
        return head + count(len(c)) + b"".join(count(len(r)) + pts(r)
                                               for r in c)
    return head + count(len(c)) + b"".join(_wkb(mt, mc, flavour, order)
                                           for mt, mc in c)


_SQUARE = [[0, 0], [10, 0], [10, 10], [0, 10], [0, 0]]
_HOLE = [[2, 2], [4, 2], [4, 4], [2, 4], [2, 2]]
_FAR = [[20, 20], [23.5, 20], [23.5, 21.25], [20, 20]]
_LINE = [[1.5, 2.5], [3.25, 4.75], [6, 1]]
_ARC = [[1, 0], [0, 1], [-1, 0]]
_CLOSE = [[-1, 0], [1, 0]]
_TRI = [[0, 0], [1, 0], [0, 1], [0, 0]]
_COMPOUND = [(8, _ARC), (2, _CLOSE)]
GEOMS = {
    1: [1.25, -2.5],
    2: _LINE,
    3: [_SQUARE, _HOLE],
    4: [(1, [0, 0]), (1, [1.5, 2.5])],
    5: [(2, _LINE), (2, _CLOSE)],
    6: [(3, [_SQUARE, _HOLE]), (3, [_FAR])],
    7: [(1, [5, 5]), (2, _LINE), (3, [_FAR])],
    8: _ARC,
    9: _COMPOUND,
    10: [(9, _COMPOUND)],
    11: [(8, _ARC), (2, _LINE)],
    12: [(10, [(9, _COMPOUND)]), (3, [_FAR])],
    13: [(2, _LINE)],
    14: [(3, [_FAR])],
    15: [(3, [_SQUARE]), (3, [_FAR])],
    16: [(17, [_TRI]), (17, [[[1, 0], [1, 1], [0, 1], [1, 0]]])],
    17: [_TRI],
}


def _twins(t):
    """Every non-XY-little-endian encoding of the sample of type ``t``."""
    return {f"{f}_{'le' if o == '<' else 'be'}": _wkb(t, GEOMS[t], f, o)
            for f in _FLAVOURS for o in "<>" if (f, o) != ("xy", "<")}


# ------------------------------------------------------------- writers

def _files(d):
    return {n: open(os.path.join(d, n), "rb").read()
            for n in sorted(os.listdir(d))}


def _write_layer(fn):
    def run(wkbs, d):
        fn(pa.table({"wkb": pa.array(list(wkbs.values()), pa.binary()),
                     "fid": pa.array(np.arange(len(wkbs)))}), d)
    return run


def _geojson(t, d):
    from georay.geojson import write_geojson
    write_geojson(t, os.path.join(d, "out.geojson"))


def _geojsonseq(t, d):
    from georay.geojson import write_geojsonseq
    write_geojsonseq(t, os.path.join(d, "out.geojsonl"))


def _kml(t, d):
    from georay.xmldrivers import write_kml
    write_kml(t, os.path.join(d, "out.kml"))


def _gml(t, d):
    from georay.xmldrivers import write_gml
    write_gml(t, os.path.join(d, "out.gml"))


def _dxf(t, d):
    from georay.dxf import write_dxf
    write_dxf(t, os.path.join(d, "out.dxf"))


def _mif(t, d):
    from georay.mif import write_mif
    write_mif(t, os.path.join(d, "out.mif"))


def _topojson(t, d):
    from georay.topojson import write_topojson
    write_topojson(t, os.path.join(d, "out.topojson"))


def _mvt(t, d):
    from georay.mvt import encode_mvt
    feats = [{"geom": w, "attrs": {"fid": int(f)}}
             for w, f in zip(t["wkb"].to_pylist(), t["fid"].to_pylist())]
    with open(os.path.join(d, "out.mvt"), "wb") as f:
        f.write(encode_mvt({"layer": feats}))


def _fgb(t, d):
    from georay.flatgeobuf import write_fgb
    with open(os.path.join(d, "out.fgb"), "wb") as f:
        f.write(write_fgb(t))


def _shapefile(wkbs, d):
    from georay.shapefile import write_shapefile
    for t, w in wkbs.items():               # one shape type per file
        write_shapefile(pa.table({"wkb": pa.array([w], pa.binary())}),
                        os.path.join(d, f"out{t}"))


def _gpx(wkbs, d):
    from georay.xmldrivers import write_gpx
    write_gpx(os.path.join(d, "out.gpx"),
              waypoints=pa.table({"wkb": pa.array([wkbs[1]], pa.binary())}),
              tracks=pa.table({"wkb": pa.array([wkbs[2]], pa.binary())}))


# writer → (write(wkbs_by_type, out_dir), the geometry types it is fed)
WRITERS = {
    "geojson": (_write_layer(_geojson), (3, 2)),
    "geojsonseq": (_write_layer(_geojsonseq), (3, 2)),
    "kml": (_write_layer(_kml), (3, 2)),
    "gml": (_write_layer(_gml), (3, 2)),
    "gpx": (_gpx, (1, 2)),
    "dxf": (_write_layer(_dxf), (3, 2)),
    "mif": (_write_layer(_mif), (3, 2)),
    "shapefile": (_shapefile, (3, 2)),
    "topojson": (_write_layer(_topojson), (3, 2)),
    "mvt": (_write_layer(_mvt), (3, 2)),
    "fgb": (_write_layer(_fgb), (3, 2)),
}


@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_writers_read_zm_and_big_endian(writer, tmp_path):
    """ISO Z/M/ZM, EWKB Z and big-endian twins of each geometry a writer
    takes give byte-identical output to the little-endian XY original."""
    write, types = WRITERS[writer]
    (tmp_path / "xy").mkdir()
    write({t: _wkb(t, GEOMS[t]) for t in types}, str(tmp_path / "xy"))
    want = _files(str(tmp_path / "xy"))
    assert want and all(want.values())
    twins = {t: _twins(t) for t in types}
    for name in twins[types[0]]:
        (tmp_path / name).mkdir()
        try:
            write({t: twins[t][name] for t in types}, str(tmp_path / name))
        except Exception as e:
            pytest.fail(f"{name}: {type(e).__name__}: {e}")
        assert _files(str(tmp_path / name)) == want, name


# ----------------------------------------------------- robustness sweep

def _entries():
    from georay import geom as G
    from georay.curves import parse_curve_wkb
    from georay.flatgeobuf import write_fgb
    from georay.geodesic import geodesic_areas_wkb, geodesic_lengths_wkb
    from georay.geojson import wkb_to_geometry
    from georay.join import PolygonIndex
    from georay.measures import areas_any_wkb, lengths_any_wkb
    from georay.wkt import wkb_to_wkt

    def table(w):
        return pa.table({"wkb": pa.array([w], pa.binary())})

    curves = (2, 3, 5, 6, 8, 9, 10, 11, 12, 15, 16, 17)
    every = tuple(range(1, 18))
    measures = {"areas_any_wkb": (areas_any_wkb, (1, 4) + curves),
                "lengths_any_wkb": (lengths_any_wkb, curves),
                "geodesic_areas_wkb": (geodesic_areas_wkb, every),
                "geodesic_lengths_wkb": (geodesic_lengths_wkb, curves)}
    # entry → (call on one WKB, the types it accepts, 2-D only?, the
    # batch function when the entry is a per-row measure)
    out = {
        "parse_wkb": (G.parse_wkb, (1, 3, 6), False, None),
        "parse_wkb_multi": (G.parse_wkb_multi, (3, 6), False, None),
        "wkb_envelope": (G.wkb_envelope, every, False, None),
        "wkb_type": (G.wkb_type, every, False, None),
        "transform_wkb": (lambda w: G.transform_wkb(
            [w], lambda x, y: (x + 1, y)), every, False, None),
        "wkb_to_geometry": (wkb_to_geometry, every[:8], False, None),
        "wkb_to_wkt": (wkb_to_wkt, every[:8], True, None),
        "parse_curve_wkb": (parse_curve_wkb, curves, False, None),
        "write_fgb": (lambda w: write_fgb(table(w)), every[:6], False,
                      None),
        "PolygonIndex.build": (lambda w: PolygonIndex.build(table(w)),
                               (3, 6), False, None),
    }
    for name, (fn, types) in measures.items():
        out[name] = ((lambda f: lambda w: f([w]))(fn), types, False, fn)
    return out


ENTRIES = ("PolygonIndex.build", "areas_any_wkb", "geodesic_areas_wkb",
           "geodesic_lengths_wkb", "lengths_any_wkb", "parse_curve_wkb",
           "parse_wkb", "parse_wkb_multi", "transform_wkb", "wkb_envelope",
           "wkb_to_geometry", "wkb_to_wkt", "wkb_type", "write_fgb")


def _on_alarm(signum, frame):
    raise TimeoutError("WKB read took over 5 s")


def _timed(fn, w):
    signal.alarm(5)
    try:
        return fn(w)
    finally:
        signal.alarm(0)


@pytest.mark.parametrize("entry", ENTRIES)
def test_every_wkb_cut_raises_truncated(entry):
    """Every strict prefix of a WKB of each type (2-D and Z) the entry
    point accepts raises ``ValueError("truncated wkb at byte N")``; the
    intact WKB reads; a 5,000-deep GeometryCollection raises
    ``ValueError`` (not ``RecursionError``); a null row measures 0."""
    entries = _entries()
    assert sorted(entries) == list(ENTRIES)
    fn, types, flat_only, batch_fn = entries[entry]
    old = signal.signal(signal.SIGALRM, _on_alarm)
    try:
        for t in types:
            for flavour in ("xy",) if flat_only else ("xy", "iso_z"):
                w = _wkb(t, GEOMS[t], flavour)
                _timed(fn, w)
                for k in range(len(w)):
                    with pytest.raises(ValueError,
                                       match="truncated wkb at byte"):
                        _timed(fn, w[:k])
        deep = (b"\x01\x07\x00\x00\x00\x01\x00\x00\x00" * 4999
                + b"\x01\x07\x00\x00\x00\x00\x00\x00\x00")
        with pytest.raises(ValueError):
            _timed(fn, deep)
    finally:
        signal.signal(signal.SIGALRM, old)
    if batch_fn is not None:
        assert batch_fn([None]).tolist() == [0.0]
