"""Small shared helpers: stage sizing, process tuning, vectorized string
hashing."""

from __future__ import annotations

import numpy as np

__all__ = ["default_concurrency", "tune_malloc", "hash_strings"]


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
        import ctypes
        libc = ctypes.CDLL("libc.so.6", use_errno=True)
        M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
        libc.mallopt(M_MMAP_THRESHOLD, threshold)
        libc.mallopt(M_TRIM_THRESHOLD, threshold)
    except Exception:
        pass  # non-glibc platform: env vars alone


def default_concurrency(cap: int | None = None) -> tuple:
    """Autoscaling actor-pool size ``(1, n_cpus)`` derived from the current
    Ray cluster (works identically in local mode and on a real cluster —
    the pool scales to the CPUs actually present).  ``cap`` bounds the max.
    """
    import ray
    n = int(ray.cluster_resources().get("CPU", 4)) if ray.is_initialized() else 4
    hi = max(2, n)
    if cap is not None:
        hi = min(hi, cap)
    return (1, hi)
