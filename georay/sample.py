"""Deterministic sampling and per-key top-k (SURVEY.md §2.6): the same
row lands in the same sample on every run, on any cluster size, with no
coordination (pure function of the key), unlike ``ds.random_sample``.

The hash is Knuth's multiplicative scheme on the key column —
``(key * 2654435761) mod 2^32`` — chosen because it is expressible in
ANSI SQL verbatim, so every sampling decision has a DuckDB oracle.
Text keys go through the 64-bit ``util.hash_strings`` first.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from .util import hash_strings

__all__ = ["hash_bucket", "hash_sample", "sample_sql",
           "hash_topk_per_key", "topk_per_key_sql"]

_KNUTH = 2654435761
_MOD = 1 << 32


def hash_bucket(keys: np.ndarray, buckets: int = _MOD) -> np.ndarray:
    """Vectorized ``(key * 2654435761) mod 2^32 mod buckets`` (uint64
    arithmetic — exact for |key| < 2^32, the SQL-parity envelope)."""
    k = keys.astype(np.uint64) * np.uint64(_KNUTH)
    return ((k % np.uint64(_MOD)) % np.uint64(buckets)).astype(np.int64)


def hash_sample(ds, key_col: str, fraction: float):
    """Deterministic Bernoulli-by-hash sample: keep rows whose hash
    bucket falls below ``fraction`` of the 2^32 range.  Reproducible,
    coordination-free, and nested: the 5% sample is row-for-row a
    subset of the 50% sample, so growing a sample never churns rows
    already drawn.  (Fractions are absolute, not relative — applying
    the filter twice keeps ``min(f1, f2)``, not ``f1*f2``.)"""
    cut = int(round(fraction * _MOD))

    def keep(batch: pa.Table) -> pa.Table:
        k = batch[key_col].to_numpy(zero_copy_only=False)
        return batch.filter(pa.array(hash_bucket(k) < cut))

    return ds.map_batches(keep, batch_format="pyarrow")


def sample_sql(key_expr: str, fraction: float) -> str:
    """The WHERE clause computing the identical sample in ANSI SQL."""
    cut = int(round(fraction * _MOD))
    return (f"(({key_expr} * {_KNUTH}) % {_MOD}) < {cut}")


def hash_topk_per_key(ds, key_col: str, order_col: str, k: int):
    """Deterministic k rows per key — "k examples per group" (dedup
    canonicalization, per-domain caps, eval-set drawing) without a
    global sort: rows are ranked inside each key by the Knuth hash of
    ``order_col`` (ties broken by the column itself, so the pick is a
    pure function of the data).

    Scale shape: a per-BLOCK partial (each block keeps at most k rows
    per key it sees — output bounded at k×keys-per-block) feeds a
    hash-PARTITIONED final pass (groupby on ``hash(key) % P``, one
    vectorized lexsort+run-detect per partition — never one Python call
    per key).  Oracle: ROW_NUMBER() OVER (PARTITION BY key ORDER BY
    hash, order) <= k."""
    from .util import shuffle_partitions
    P = shuffle_partitions()

    def _keep_k(batch: pa.Table, with_part: bool) -> pa.Table:
        kcol = batch[key_col]
        ktype = kcol.type if not isinstance(kcol, pa.ChunkedArray) \
            else kcol.type
        if (pa.types.is_string(ktype) or pa.types.is_large_string(ktype)
                or pa.types.is_binary(ktype)):
            # string/binary keys: hash to uint64 first (same route as
            # compare.add_part)
            key = hash_strings(kcol)
        else:
            key = kcol.to_numpy(zero_copy_only=False)
        o = batch[order_col].to_numpy(zero_copy_only=False)
        h = hash_bucket(o)
        order = np.lexsort((o, h, key))
        ks = key[order]
        new = np.ones(len(ks), dtype=bool)
        new[1:] = ks[1:] != ks[:-1]
        # rank within key = position - start of the key's run
        run_id = np.cumsum(new) - 1
        starts = np.flatnonzero(new)
        rank = np.arange(len(ks)) - starts[run_id]
        take = np.sort(order[rank < k])
        out = batch.take(pa.array(take))
        if with_part:
            kk = key[take].astype(np.uint64) * np.uint64(_KNUTH)
            out = out.append_column(
                "part__", pa.array(((kk >> np.uint64(7))
                                    % np.uint64(P)).astype(np.int64)))
        return out

    partial = ds.map_batches(lambda b: _keep_k(b, True),
                             batch_format="pyarrow")

    def final(g: pa.Table) -> pa.Table:
        return _keep_k(g.combine_chunks().drop_columns(["part__"]), False)

    return partial.groupby("part__").map_groups(
        final, batch_format="pyarrow")


def topk_per_key_sql(key: str, order: str, k: int) -> str:
    """ORDER BY clause fragment matching :func:`hash_topk_per_key`."""
    return (f"ROW_NUMBER() OVER (PARTITION BY {key} ORDER BY "
            f"({order} * {_KNUTH}) % {_MOD}, {order}) <= {k}")
