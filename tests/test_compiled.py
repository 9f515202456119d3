"""The loader of the package's C kernels, ``georay.util.compiled``, over
every ``georay/_*.c``.

Each load runs in a child process with its own cache directory, and
loads the kernel's exported functions (found in its source) without
calling them: a second process reuses the built library with no
compiler on ``PATH``; two processes loading the kernel at once leave one
library and no temp file; with no compiler and an empty cache the load
raises ``RuntimeError`` naming ``gcc`` and the kernel's source file.
What each kernel computes is tested with its module.
"""

import glob
import os
import re
import subprocess
import sys

import pytest

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_KERNELS = sorted(os.path.basename(p)
                  for p in glob.glob(os.path.join(_ROOT, "georay", "_*.c")))


def test_every_kernel_is_found():
    assert {"_jpeg.c", "_phash.c", "_tilesum.c"} <= set(_KERNELS)


def _load_code(source):
    """Child code that loads every non-static function of ``source``."""
    with open(os.path.join(_ROOT, "georay", source)) as f:
        names = re.findall(r"^(?!static)\w[\w ]*?\**\b(\w+)\(", f.read(),
                           re.M)
    assert names, source
    return (f"from georay.util import compiled\n"
            f"for name in {names!r}:\n"
            f"    compiled({source!r}, name, [], None)\n"
            f"print('loaded', len({names!r}))")


def _spawn(code, env):
    e = dict(os.environ, PYTHONPATH=_ROOT, **env)
    return subprocess.Popen([sys.executable, "-c", code], env=e, text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)


def _run(code, env):
    p = _spawn(code, env)
    out, err = p.communicate(timeout=300)
    return out, err, p.returncode


def _cache_env(tmp_path):
    return {"HOME": str(tmp_path), "XDG_CACHE_HOME": str(tmp_path / "c")}


@pytest.mark.parametrize("source", _KERNELS)
def test_loader_reuses_built_library_without_compiler(source, tmp_path):
    env = _cache_env(tmp_path)
    code = _load_code(source)
    out, err, rc = _run(code, env)
    assert rc == 0, err
    assert out.startswith("loaded")
    [lib] = (tmp_path / "c" / "georay").glob(f"{source[:-2]}-*.so")
    stamp = lib.stat().st_mtime_ns, lib.stat().st_ino
    # no compiler is reachable: a second build would raise
    out2, err, rc = _run(code, dict(env, PATH=""))
    assert rc == 0, err
    assert out2 == out
    assert (lib.stat().st_mtime_ns, lib.stat().st_ino) == stamp


@pytest.mark.parametrize("source", _KERNELS)
def test_concurrent_first_loads_build_one_library(source, tmp_path):
    env = _cache_env(tmp_path)
    procs = [_spawn(_load_code(source), env) for _ in range(2)]
    for p in procs:
        out, err = p.communicate(timeout=300)
        assert p.returncode == 0, err
        assert out.startswith("loaded")
    files = [f.name for f in (tmp_path / "c" / "georay").iterdir()]
    assert len(files) == 1, files
    assert files[0].startswith(f"{source[:-2]}-") \
        and files[0].endswith(".so"), files


@pytest.mark.parametrize("source", _KERNELS)
def test_loader_without_compiler_names_it(source, tmp_path):
    out, err, rc = _run(_load_code(source),
                        dict(_cache_env(tmp_path), PATH=""))
    assert rc != 0 and out == ""
    assert "RuntimeError" in err and "gcc" in err
    assert f"georay/{source}" in err
