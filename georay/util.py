"""Small shared helpers: the per-worker stage cache, process tuning,
vectorized string hashing, the one loader of the package's C kernels
(:func:`compiled`), and the one file-commit protocol every writer uses
(:func:`staged`, :func:`write_parts`, :func:`write_groups`)."""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import os
import uuid

import numpy as np

__all__ = ["worker_cached", "worker_get", "tune_malloc", "hash_strings",
           "compiled", "staged", "write_parts", "write_groups", "list_parts"]


_HASH_P = np.uint64(1099511628211)  # FNV prime as the polynomial base


def hash_strings(col) -> np.ndarray:
    """Vectorized 64-bit content hash of a pyarrow string/binary column.

    Polynomial hash ``h = Σ byte_i · P^(L-1-i) (mod 2^64)`` computed
    directly over the Arrow values buffer (no per-row Python): per-byte
    exponents come from the offsets buffer, powers are precomputed, and
    per-string sums are one ``np.add.reduceat``."""
    import pyarrow as pa
    import pyarrow.compute as pc
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    if pa.types.is_string(col.type) or pa.types.is_large_string(col.type):
        col = pc.cast(col, pa.large_binary())
    elif pa.types.is_binary(col.type):
        col = pc.cast(col, pa.large_binary())
    n = len(col)
    if n == 0:
        return np.empty(0, dtype=np.uint64)
    # offsets/values straight from the Arrow buffers (zero-copy)
    buffers = col.buffers()
    offs = np.frombuffer(buffers[1], dtype=np.int64, count=n + 1,
                         offset=col.offset * 8)
    data = np.frombuffer(buffers[2], dtype=np.uint8)
    starts = offs[:-1]
    lengths = (offs[1:] - starts).astype(np.int64)
    total = int(offs[-1] - offs[0])
    if np.any(lengths < 0) or total != int(lengths.sum()):
        # NON-CANONICAL layout (out-of-order / gapped offsets — e.g.
        # arrow group_by key outputs reference the input buffer in
        # group order): the positional exponent math below requires
        # dense in-order values, so rebuild via take (one C-level
        # copy).  Hashing such an array unrebuilt silently corrupted
        # the content hash (found via a duplicated ROLLUP group).
        col = col.take(pa.array(np.arange(n, dtype=np.int64)))
        buffers = col.buffers()
        offs = np.frombuffer(buffers[1], dtype=np.int64, count=n + 1,
                             offset=col.offset * 8)
        data = np.frombuffer(buffers[2], dtype=np.uint8)
        starts = offs[:-1]
        lengths = (offs[1:] - starts).astype(np.int64)
        total = int(offs[-1] - offs[0])
    if total == 0:
        return np.full(n, np.uint64(0xCBF29CE484222325), dtype=np.uint64)
    seg = data[offs[0]:offs[-1]].astype(np.uint64)
    rel_starts = (starts - offs[0]).astype(np.int64)
    # exponent per byte = (end-of-string - 1) - global_position
    ends = np.repeat(rel_starts + lengths, lengths)
    exp = ends - 1 - np.arange(total, dtype=np.int64)
    maxlen = int(lengths.max())
    powers = np.empty(maxlen, dtype=np.uint64)
    powers[0] = 1
    np.multiply.accumulate(np.full(maxlen, _HASH_P, dtype=np.uint64),
                           out=powers[:])
    powers = np.concatenate([[np.uint64(1)], powers[:-1]])
    terms = seg * powers[exp]
    # reduceat ONLY over non-empty strings: an empty string's start
    # equals its neighbor's, and clamping it to total-1 (the old code)
    # moved the previous string's segment boundary, silently dropping
    # that string's last byte(s) — found via a duplicated ROLLUP group
    # whose "" fillers truncated the final real key in the buffer.
    nz = lengths > 0
    sums = np.full(n, np.uint64(0xCBF29CE484222325), dtype=np.uint64)
    if nz.any():
        sums[nz] = np.add.reduceat(terms, rel_starts[nz])
    return sums


def tune_malloc(threshold: int = 1 << 30) -> None:
    """Stop glibc from mmap()ing/munmap()ing large allocations.

    On VMs with slow first-touch page faults (encrypted/ballooned memory),
    every numpy/Arrow buffer above glibc's mmap threshold (128 KiB) costs a
    fresh mmap + page-fault storm and is unmapped on free — measured here
    at ~10 MB/s vs ~13 GB/s for arena-reused pages.  Raising
    M_MMAP_THRESHOLD/M_TRIM_THRESHOLD keeps big buffers in the arena so
    pages are faulted once and reused.

    Applies to the CURRENT process via mallopt(3) and to future CHILD
    processes (Ray raylet → workers) via the glibc env tunables — call
    BEFORE ``ray.init``.
    """
    import os
    os.environ.setdefault("MALLOC_MMAP_THRESHOLD_", str(threshold))
    os.environ.setdefault("MALLOC_TRIM_THRESHOLD_", str(threshold))
    try:
        libc = ctypes.CDLL("libc.so.6", use_errno=True)
        M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
        libc.mallopt(M_MMAP_THRESHOLD, threshold)
        libc.mallopt(M_TRIM_THRESHOLD, threshold)
    except Exception:
        pass  # non-glibc platform: env vars alone


# the most entries one worker process keeps: a long-lived worker holds the
# broadcast state of the last few datasets, not of every one it served
_WORKER_CACHE_ENTRIES = 4
_worker_cache: dict = {}


def worker_cached(key, build):
    """``build()`` once per ``key`` per worker process.  Every stateful
    ``map_batches`` stage is a plain task that keeps its broadcast state
    here, so warm workers hold actor-like state without an actor pool (and
    a killed worker's task simply retries elsewhere).  The oldest entry
    goes first once ``_WORKER_CACHE_ENTRIES`` are held."""
    if key in _worker_cache:
        return _worker_cache[key]
    value = build()
    if len(_worker_cache) >= _WORKER_CACHE_ENTRIES:
        del _worker_cache[next(iter(_worker_cache))]
    _worker_cache[key] = value
    return value


def worker_get(obj):
    """The object behind a ``ray.put`` ref, fetched once per worker process
    and cached under the ref's hex id (the ref itself is never stored); any
    other object is returned unchanged."""
    import ray
    if not isinstance(obj, ray.ObjectRef):
        return obj
    return worker_cached(obj.hex(), lambda: ray.get(obj))


_LOADED: dict = {}


def compiled(source: str, name: str, argtypes, restype):
    """Function ``name`` of the C file ``georay/<source>``, loaded with
    ctypes once per process.  The library is built with ``gcc -O2`` once
    per source hash into the user cache directory, under an exclusive lock
    on that directory, so concurrent workers build it once; a process that
    finds it built needs no compiler.  There is no Python fallback."""
    key = (source, name)
    if key in _LOADED:
        return _LOADED[key]
    path = os.path.join(os.path.dirname(__file__), source)
    with open(path, "rb") as f:
        src = f.read()
    cache = os.path.join(os.environ.get("XDG_CACHE_HOME")
                         or os.path.expanduser("~/.cache"), "georay")
    stem = os.path.splitext(source)[0]
    lib = os.path.join(
        cache, f"{stem}-{hashlib.sha256(src).hexdigest()[:16]}.so")
    if not os.path.exists(lib):
        import fcntl
        import shutil
        import subprocess
        gcc = shutil.which("gcc")
        if gcc is None:
            raise RuntimeError(f"georay needs the C compiler gcc on PATH "
                               f"to build georay/{source}")
        os.makedirs(cache, exist_ok=True)
        fd = os.open(cache, os.O_RDONLY)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX)
            if not os.path.exists(lib):
                with staged(lib) as tmp:
                    subprocess.run([gcc, "-O2", "-shared", "-fPIC", "-x", "c",
                                    "-", "-o", tmp], input=src, check=True,
                                   capture_output=True)
        finally:
            os.close(fd)
    fn = getattr(ctypes.CDLL(lib), name)
    fn.argtypes = argtypes
    fn.restype = restype
    _LOADED[key] = fn
    return fn


@contextlib.contextmanager
def staged(path: str):
    """Commit one file at ``path`` all at once: yields a temp path unique
    to the writing process, renamed onto ``path`` (atomic) on a clean exit
    and removed on an exception.  The temp name ends in ``.tmp-<pid>``, a
    suffix no reader lists, so nothing ever reads a half-written file."""
    tmp = f"{path}.tmp-{os.getpid()}"
    try:
        yield tmp
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise
    os.replace(tmp, path)


def write_parts(ds_or_table, path: str, ext: str, encode) -> str:
    """Table → one file at ``path``; Dataset → one file per non-empty
    block, ``path/part-<write_id>-<task:06d>-<block:06d>.<ext>``.
    ``encode(table, file_path)`` writes one file; every file is committed
    through :func:`staged`.

    ``write_id`` is drawn once per call on the driver, and Ray retries a
    dead task with the same task index, so a retried task rewrites its
    own files and never adds one: each call appends exactly one file per
    block to ``path``."""
    import pyarrow as pa
    if isinstance(ds_or_table, pa.Table):
        with staged(path) as tmp:
            encode(ds_or_table, tmp)
        return path
    from ray.data import Datasink
    from ray.data.block import BlockAccessor

    class PartSink(Datasink):
        def __init__(self):
            self.write_id = uuid.uuid4().hex

        def write(self, blocks, ctx):
            for i, block in enumerate(blocks):
                t = BlockAccessor.for_block(block).to_arrow()
                if t.num_rows:
                    name = f"part-{self.write_id}-{ctx.task_idx:06d}-{i:06d}"
                    with staged(os.path.join(path, f"{name}.{ext}")) as tmp:
                        encode(t, tmp)

    os.makedirs(path, exist_ok=True)
    ds_or_table.write_datasink(PartSink())
    return path


def write_groups(ds, out_dir: str, part_col: str, ext: str, encode):
    """One ``out_dir/<part>.<ext>`` per ``part_col`` group (the file, not
    the row, is the unit of parallelism: formats whose header or index
    covers every feature of a file).  ``encode(group, file_path, part)``
    writes one file, committed through :func:`staged`; a retried group
    rewrites the same name.  Returns the lazy manifest Dataset (part,
    path, rows): consume it to run the write."""
    import pyarrow as pa
    os.makedirs(out_dir, exist_ok=True)

    def write_group(g: pa.Table) -> pa.Table:
        part = str(g[part_col][0].as_py())
        path = os.path.join(out_dir, f"{part}.{ext}")
        with staged(path) as tmp:
            encode(g.drop_columns([part_col]), tmp, part)
        return pa.table({"part": pa.array([part]), "path": pa.array([path]),
                         "rows": pa.array([g.num_rows], pa.int64())})

    return ds.groupby(part_col).map_groups(write_group,
                                           batch_format="pyarrow")


def list_parts(path: str, exts) -> list[str]:
    """The files a reader scans: every file under directory ``path`` whose
    name ends in one of ``exts`` (sorted), or ``[path]`` for a file."""
    if os.path.isdir(path):
        return sorted(os.path.join(path, p) for p in os.listdir(path)
                      if p.endswith(tuple(exts)))
    return [path]
