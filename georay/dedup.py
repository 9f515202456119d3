"""Exact deduplication: keep the first row per key group (SURVEY.md §2.6).

GDAL itself has no generic dedup (FID uniqueness + SQL DISTINCT only);
this is the Ray-Data-native form: the key is hash-partitioned, and each
partition keeps its first row per key in one vectorized pass.  Image
tables dedup by ``phash`` / ``image_id`` (queries ``image_dedup``).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

__all__ = ["exact_dedup"]

_H1 = np.uint64(0x9E3779B97F4A7C15)
_MASK = np.uint64(0xFFFFFFFFFFFFFFFF)


def exact_dedup(ds, key_col: str, order_col: str,
                num_partitions: int | None = None):
    """Keep the first row (min ``order_col``) per ``key_col`` group.

    Hash-PARTITIONED (``groupby(hash(key) % P)``, P ≈ 4×CPUs), one
    vectorized lexsort + first-of-run pass per partition — never one
    Python call per distinct key (when most keys are unique,
    ``groupby(key)`` directly would pay per-group dispatch for EVERY
    surviving row; NOTES.md per-group-overhead rule)."""
    P = num_partitions or _num_partitions()

    def add_part(batch: pa.Table) -> pa.Table:
        k = batch[key_col].to_numpy(zero_copy_only=False)
        return batch.append_column(
            "part__", pa.array((_mix64(np.asarray(k))
                                % np.uint64(P)).astype(np.int64)))

    def first_per_key(g: pa.Table) -> pa.Table:
        g = g.combine_chunks().drop_columns(["part__"])
        k = g[key_col].to_numpy(zero_copy_only=False)
        o = g[order_col].to_numpy(zero_copy_only=False)
        order = np.lexsort((o, k))
        ks = k[order]
        new = np.ones(len(ks), dtype=bool)
        new[1:] = ks[1:] != ks[:-1]
        return g.take(pa.array(np.sort(order[new])))

    return (ds.map_batches(add_part, batch_format="pyarrow")
            .groupby("part__").map_groups(first_per_key,
                                          batch_format="pyarrow"))


def _num_partitions(mult: int = 4) -> int:
    """Hash-partition count for the dedup shuffle: ~mult×cluster CPUs —
    enough groups for parallelism, few enough that per-group Python-call
    overhead (NOTES.md: ~0.1–1 ms/group) is negligible."""
    import ray
    n = int(ray.cluster_resources().get("CPU", 8)) \
        if ray.is_initialized() else 8
    return mult * max(2, n)


def _mix64(x: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer — decorrelates sequential ids before ``% P``."""
    z = (x.view(np.uint64) if x.dtype == np.int64
         else x.astype(np.uint64)).copy()
    z = (z + _H1) & _MASK
    z = ((z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)) & _MASK
    z = ((z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)) & _MASK
    return z ^ (z >> np.uint64(31))
