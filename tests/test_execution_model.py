"""The execution model: every ``map_batches`` stage in ``georay/`` runs as a
task.  A stage with broadcast state gets it from ``georay.util.worker_get``
(once per worker process), so no stage is an actor pool: no class (or
instance of one) is handed to ``map_batches``, no pool is sized with
``concurrency=`` or built with ``fn_constructor_kwargs=``, and the
pool-sizing helper ``default_concurrency`` stays gone.

Every writer commits its files through ``georay.util.staged``, so
``os.replace`` is called in exactly two places: inside ``staged`` and in
the ``gdalmanage rename`` command, whose job is the rename itself."""

import ast
import pathlib

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
