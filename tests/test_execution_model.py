"""The execution model: every ``map_batches`` stage in ``georay/`` runs as a
task.  A stage with broadcast state gets it from ``georay.util.worker_get``
(once per worker process), so no stage is an actor pool: no class (or
instance of one) is handed to ``map_batches``, no pool is sized with
``concurrency=`` or built with ``fn_constructor_kwargs=``, and the
pool-sizing helper ``default_concurrency`` stays gone.

Every writer commits its files through ``georay.util.staged``, so
``os.replace`` is called in exactly two places: inside ``staged`` and in
the ``gdalmanage rename`` command, whose job is the rename itself.

The image table has one reader and its ``pixels`` column one owner:
``georay.pipelines`` reads through its work units, never through
``ray.data.read_parquet`` or ``read_lance``, and only ``georay.decode``
unpacks ``pixels`` with ``np.frombuffer``.

WKB has one reader: only ``georay.geom`` uses its header, type-word and
walker helpers; every other module reads WKB through ``geom``'s views.

The package's C kernels have one loader, ``georay.util.compiled``: it is
the only code that uses ``subprocess`` (to run the compiler) or loads a
built library with ``ctypes.CDLL``; the one other ``CDLL`` call loads
libc for ``util.tune_malloc``.

Every reader has one Ray source, ``georay.util.read_units``: the only
``ray.data.from_items`` call, and each planned unit runs as exactly one
task (read from ``Dataset.stats()``)."""

import ast
import pathlib
import re

import numpy as np
import pyarrow as pa
import pytest

PKG = pathlib.Path(__file__).resolve().parents[1] / "georay"
_POOL_KEYWORDS = {"concurrency", "compute", "fn_constructor_args",
                  "fn_constructor_kwargs"}


def _trees():
    return {p.name: ast.parse(p.read_text(encoding="utf-8"))
            for p in sorted(PKG.glob("*.py"))}


def _name(node) -> str:
    """The callable's name: ``f``, ``mod.f``, or the class of ``C(...)``."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else ""


def test_every_map_batches_stage_is_a_task():
    trees = _trees()
    assert "pipelines.py" in trees
    classes = {n.name for t in trees.values() for n in ast.walk(t)
               if isinstance(n, ast.ClassDef)}
    bad = []
    for fname, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and \
                    node.name == "default_concurrency":
                bad.append(f"{fname}:{node.lineno} defines "
                           "default_concurrency")
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "map_batches"):
                continue
            fns = node.args[:1] + [k.value for k in node.keywords
                                   if k.arg == "fn"]
            for fn in fns:
                name = _name(fn)
                if name in classes or name[:1].isupper():
                    bad.append(f"{fname}:{node.lineno} passes class "
                               f"{name}")
            for k in node.keywords:
                if k.arg in _POOL_KEYWORDS:
                    bad.append(f"{fname}:{node.lineno} passes {k.arg}=")
    assert not bad, "actor-pool stages:\n" + "\n".join(bad)


def test_os_replace_only_in_staged():
    """(module, function) of every ``os.replace``/``os.rename`` call; a
    call in a nested function also names each enclosing function."""
    found = set()
    for fname, tree in _trees().items():
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef) and any(
                    isinstance(n, ast.Call)
                    and isinstance(n.func, ast.Attribute)
                    and n.func.attr in ("replace", "rename")
                    and _name(n.func.value) == "os"
                    for n in ast.walk(fn)):
                found.add((fname, fn.name))
    assert found == {("util.py", "staged"), ("cli.py", "gdalmanage")}


def _mentions(node, names) -> bool:
    """``node`` names the ``pixels`` column, or a variable in ``names``."""
    return any((isinstance(n, ast.Constant) and n.value == "pixels")
               or (isinstance(n, ast.Name) and n.id in names)
               for n in ast.walk(node))


def test_pixels_unpacked_only_in_decode():
    """(module, function) of every ``frombuffer`` call over the
    ``pixels`` column, directly or through a variable bound from it; a
    call in a nested function also names each enclosing function."""
    found = set()
    for fname, tree in _trees().items():
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            bound = set()
            for n in ast.walk(fn):
                src = getattr(n, "value", None) if isinstance(
                    n, ast.Assign) else getattr(n, "iter", None)
                if src is not None and _mentions(src, ()):
                    targets = n.targets if isinstance(n, ast.Assign) \
                        else [n.target]
                    bound |= {t.id for tg in targets for t in ast.walk(tg)
                              if isinstance(t, ast.Name)}
            if any(isinstance(n, ast.Call) and _name(n) == "frombuffer"
                   and any(_mentions(a, bound) for a in n.args)
                   for n in ast.walk(fn)):
                found.add((fname, fn.name))
    assert found == {("decode.py", "pixel_arrays")}



def test_wkb_read_only_in_geom():
    """Module of every reference to the WKB header, type-word and walker
    helpers: the WKB format is decided in ``georay.geom`` alone."""
    helpers = {"_wkb_header", "_wkb_type_dims", "_wkb_walk"}

    def refs(n):
        if isinstance(n, ast.Name):
            return {n.id}
        if isinstance(n, ast.Attribute):
            return {n.attr}
        if isinstance(n, ast.ImportFrom):
            return {a.name for a in n.names}
        return set()

    found = {fname for fname, tree in _trees().items()
             for n in ast.walk(tree) if refs(n) & helpers}
    assert found == {"geom.py"}


def test_varints_only_in_wire():
    """(module, name) of every definition or import of a per-format wire
    helper that ``georay.wire`` replaced, and of every function outside
    ``wire`` that reads or writes varints: named ``*varint*`` /
    ``*zigzag*``, or working in 7-bit limbs (uses 0x7F, 0x80 and 7).  The
    protobuf / LEB128 wire format is decided in ``georay.wire`` alone;
    what is left are other encodings: SQLite's big-endian varint
    (``gpkg._varint``), the JPEG DCT scan order (``jpeg._zigzag``) and a
    FlatBuffers table's field lookup (``flatgeobuf`` ``_field``)."""
    replaced = {"_uvarint", "_tag", "_len_field", "_varint_field",
                "_fields", "_varint", "_zigzag", "_unzigzag", "_field",
                "_read_varint", "_packed_varints", "_unzigzag64",
                "_pack_sint_deltas", "_pack_uints", "_encode_varints",
                "_w_long", "_r_long"}

    def consts(fn):
        out = set()
        for n in ast.walk(fn):
            if isinstance(n, ast.Call) and len(n.args) == 1:
                n = n.args[0]                    # np.uint64(7)
            if isinstance(n, ast.Constant) and type(n.value) is int:
                out.add(n.value)
        return out

    found = set()
    for fname, tree in _trees().items():
        if fname == "wire.py":
            continue
        for n in ast.walk(tree):
            if isinstance(n, ast.ImportFrom):
                found |= {(fname, a.name) for a in n.names
                          if a.name in replaced}
            elif isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef)) and (
                    n.name in replaced
                    or re.search("varint|zigzag", n.name, re.I)
                    or {0x7F, 0x80, 7} <= consts(n)):
                found.add((fname, n.name))
    assert found == {("gpkg.py", "_varint"), ("jpeg.py", "_zigzag"),
                     ("flatgeobuf.py", "_field")}


def test_pipelines_read_images_through_work_units():
    tree = _trees()["pipelines.py"]
    calls = {_name(n) for n in ast.walk(tree) if isinstance(n, ast.Call)}
    assert "_read_unit" in calls
    assert not calls & {"read_parquet", "read_lance"}


def test_c_kernels_load_only_through_compiled():
    """(module, function, what) of every ``subprocess`` import or use and
    every ``ctypes.CDLL`` call; ``function`` is None at module level, and
    a use in a nested function also names each enclosing function."""
    def uses(node):
        if isinstance(node, ast.Import) and any(
                a.name.split(".")[0] == "subprocess" for a in node.names):
            return "subprocess"
        if isinstance(node, ast.ImportFrom) and \
                (node.module or "").split(".")[0] == "subprocess":
            return "subprocess"
        if isinstance(node, ast.Name) and node.id == "subprocess":
            return "subprocess"
        if isinstance(node, ast.Call) and _name(node) == "CDLL":
            arg = node.args[0] if node.args else None
            return "CDLL " + (arg.value if isinstance(arg, ast.Constant)
                              else "<built library>")
        return None

    found = set()
    for fname, tree in _trees().items():
        in_fn = set()
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for n in ast.walk(fn):
                    if uses(n):
                        found.add((fname, fn.name, uses(n)))
                        in_fn.add(id(n))
        found |= {(fname, None, uses(n)) for n in ast.walk(tree)
                  if uses(n) and id(n) not in in_fn}
    assert found == {("util.py", "compiled", "subprocess"),
                     ("util.py", "compiled", "CDLL <built library>"),
                     ("util.py", "tune_malloc", "CDLL libc.so.6")}


def test_from_items_only_in_read_units():
    """(module, function) of every ``from_items`` call, and every call
    outside util that sizes blocks or tasks itself (``concurrency=`` or
    ``override_num_blocks=``, as a keyword or a ``**`` dict key)."""
    knobs = {"concurrency", "override_num_blocks"}
    found, bad = set(), []
    for fname, tree in _trees().items():
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef) and any(
                    isinstance(n, ast.Call) and _name(n) == "from_items"
                    for n in ast.walk(fn)):
                found.add((fname, fn.name))
        if fname == "util.py":
            continue
        for n in ast.walk(tree):
            keys = ([k.arg for k in n.keywords] if isinstance(n, ast.Call)
                    else [k.value for k in n.keys
                          if isinstance(k, ast.Constant)]
                    if isinstance(n, ast.Dict) else [])
            bad += [f"{fname}:{n.lineno} passes {k}=" for k in keys
                    if k in knobs]
    assert found == {("util.py", "read_units")}
    assert not bad, "\n".join(bad)


def test_sql_has_one_aggregation_engine():
    """What ``georay.sql`` and ``georay.windows`` do with keys: the SQL
    front-end never imports ``ray.data.aggregate``, calls ``aggregate``
    (Ray's or arrow's — arrow's hash ``group_by`` runs through
    ``util.key_group_by``), hashes rows with pandas or sizes a shuffle
    from ``os.cpu_count``; neither module defines its own key hash
    (touches ``hash_strings`` or the splitmix constants): every keyed
    operator partitions through ``util.key_partition``."""
    mix = {0xBF58476D1CE4E5B9, 0x9E3779B97F4A7C15}
    found = set()
    for fname in ("sql.py", "windows.py"):
        tree = _trees()[fname]
        for n in ast.walk(tree):
            if fname == "sql.py" and isinstance(n, ast.ImportFrom) \
                    and n.module == "ray.data.aggregate":
                found.add((fname, "import ray.data.aggregate"))
            if fname == "sql.py" and isinstance(n, ast.Call) and _name(n) \
                    in {"aggregate", "group_by", "hash_pandas_object",
                        "cpu_count"}:
                found.add((fname, _name(n)))
            if (isinstance(n, ast.Name) and n.id == "hash_strings") or (
                    isinstance(n, ast.Constant) and n.value in mix):
                found.add((fname, "key hash"))
    assert found == set()


# ---------------------------------------------------------------------------
# task layout: one Ray task per planned unit

def _points(n: int) -> pa.Table:
    from georay.geom import wkb_point
    return pa.table({"wkb": pa.array([wkb_point(float(i), float(i % 5))
                                      for i in range(n)], pa.binary()),
                     "name": pa.array([f"p{i}" for i in range(n)])})


def _file_list(ext: str, write, read, tmp_path):
    paths = []
    for k in range(3):
        p = str(tmp_path / f"f{k}.{ext}")
        write(_points(4), p)
        paths.append(p)
    return read(paths), 3


def _kml(tmp_path, monkeypatch):
    from georay.xmldrivers import read_kml_files, write_kml
    return _file_list("kml", write_kml, read_kml_files, tmp_path)


def _dxf(tmp_path, monkeypatch):
    from georay.dxf import read_dxf_files, write_dxf
    return _file_list("dxf", write_dxf, read_dxf_files, tmp_path)


def _fgb(tmp_path, monkeypatch):
    from georay.flatgeobuf import read_fgb_dataset, write_fgb

    def write(t, p):
        with open(p, "wb") as f:
            f.write(write_fgb(t))
    return _file_list("fgb", write, read_fgb_dataset, tmp_path)


def _gpkg(tmp_path, monkeypatch):
    from georay.gpkg import read_gpkg_dataset, write_gpkg
    return _file_list("gpkg", write_gpkg, read_gpkg_dataset, tmp_path)


def _zarr(tmp_path, monkeypatch):
    from georay.zarrstore import (zarr_create, zarr_to_dataset,
                                  zarr_write_chunk)
    p = str(tmp_path / "a.zarr")
    meta = zarr_create(p, (30, 8), (10, 8), "|u1")
    for c in range(3):
        zarr_write_chunk(p, (c, 0), np.full((10, 8), c, np.uint8), meta)
    return zarr_to_dataset(p), 3


def _netcdf(tmp_path, monkeypatch):
    from georay import netcdf as nc
    p = str(tmp_path / "d.nc")
    # 6 records of half the unit byte budget: 2 records per unit
    x = nc._UNIT_BYTES // 2 // 4
    with open(p, "wb") as f:
        f.write(nc.nc_write(
            dims=[("time", 0), ("x", x)],
            variables={"v": (["time", "x"],
                             np.arange(6 * x, dtype=np.int32).reshape(6, x))}))
    return nc.read_netcdf_dataset(p, "v"), 3


def _osm(tmp_path, monkeypatch):
    from georay.osmpbf import read_osm_pbf, scan_osm_pbf, write_osm_pbf
    p = str(tmp_path / "n.osm.pbf")
    rng = np.random.default_rng(3)
    write_osm_pbf(p, nodes=pa.table({
        "id": pa.array(np.arange(1, 121, dtype=np.int64)),
        "lat": pa.array(rng.uniform(-80, 80, 120)),
        "lon": pa.array(rng.uniform(-170, 170, 120))}), block_rows=10)
    assert len(scan_osm_pbf(p)) == 12          # 4 blocks per unit
    return read_osm_pbf(p), 3


def _lance(tmp_path, monkeypatch):
    from georay.lancefmt import read_lance, write_lance
    root = str(tmp_path / "t.lance")
    for k, mode in enumerate(("create", "append", "append")):
        write_lance(_points(4 + k).drop_columns(["wkb"]), root, mode=mode)
    return read_lance(root), 3


def _read_units_201(tmp_path, monkeypatch):
    from georay.util import read_units

    def unit_id(unit: dict) -> pa.Table:    # nested: pickled by value
        return pa.table({"i": [unit["i"]]})
    return read_units([{"i": i} for i in range(201)], unit_id), 201


_LAYOUTS = {"kml": _kml, "dxf": _dxf, "fgb": _fgb, "gpkg": _gpkg,
            "zarr": _zarr, "netcdf": _netcdf, "osm_pbf": _osm,
            "lance": _lance, "read_units_201": _read_units_201}


@pytest.mark.parametrize("case", list(_LAYOUTS))
def test_each_planned_unit_runs_as_one_task(case, tmp_path, monkeypatch,
                                            ray_session):
    ds, k = _LAYOUTS[case](tmp_path, monkeypatch)
    assert k >= 3
    stats = ds.materialize().stats()
    tasks = re.findall(r"Operator \d+ MapBatches\([^:\n]*: (\d+) tasks "
                       r"executed", stats)
    assert [int(t) for t in tasks] == [k], stats
