"""Distributed EXACT quantiles / medians — never a full sort.

Reference surface: the reference's SQL dialect gets MEDIAN / percentile
aggregates from sqlite3 itself (ogr/ogrsf_frmts/sqlite/
ogrsqliteexecutesql.cpp routes the statement to libsqlite3), and the
raster side computes statistics through bucketed histograms
(gcore/rasterband.cpp GetHistogram / ComputeRasterHistogram).  Both
shapes reappear here, re-expressed Ray-Data-first:

- ``grouped_quantiles`` — the (key, value)-CENSUS plan.  Each block
  pre-shrinks with one arrow ``group_by`` (a combiner: at most
  |distinct (key, value)| rows leave a block), census rows
  hash-partition on the key ALONE (``util.key_partition``: NULL and
  −0.0 keys as SQL groups them), and each bucket merges its census with
  one more arrow ``group_by`` and resolves EVERY key's quantiles in one
  vectorized lexsort + cumsum + searchsorted pass — no per-key Python
  dispatch (NOTES.md per-group rule).  Exact for any input; shuffle
  volume is bounded by distinct (key, value) pairs per block — the same
  boundedness the reference's integral-band histograms rely on.  Other
  census-derivable aggregates (count/sum/avg/min/max) come for free.

- ``global_quantiles`` — iterative HISTOGRAM REFINEMENT for continuous
  columns of unbounded cardinality: pass 1 aggregates (count, min, max);
  each round histograms candidate intervals into ``bins`` buckets inside
  ``map_batches`` (≤ bins·intervals census rows reach the driver),
  locates the buckets holding the needed order statistics, and either
  recurses into them or — once their population fits ``collect_limit``
  — collects exactly those values and selects/interpolates.  Worst case
  O(log_bins n) streaming passes; the dataset is never sorted and never
  materialized.

Interpolation matches SQL ``quantile_cont`` / ``median``:
``h = (n-1)·q``, ``v = v⌊h⌋ + (h-⌊h⌋)·(v⌈h⌉ - v⌊h⌋)`` (NULLs ignored).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

__all__ = ["grouped_quantiles", "global_quantiles"]

# census-derivable companions of a quantile (all exact from (value, cnt))
_CENSUS_AGGS = ("count_star", "count", "sum", "avg", "min", "max")


def grouped_quantiles(ds, group_cols, value_col, qs,
                      q_names=None, extras=None):
    """Exact per-key quantiles of ``value_col`` grouped by ``group_cols``.

    ``qs``: quantile fractions (0..1); ``q_names``: output column per q
    (default ``q{100·q:g}``).  ``extras``: optional ``{name: kind}`` with
    kind in count_star/count/sum/avg/min/max — census-derived, exact,
    no extra pass.  Returns a Ray Dataset with one row per key.

    Scale note: shuffle volume is the census (distinct (key, value)
    pairs per block).  For continuous high-cardinality value columns the
    census degenerates to the input size — use ``global_quantiles`` per
    key-partition or bucketize first; this is documented, not silent.
    """
    from .util import key_codes, key_group_by, key_partition, \
        shuffle_partitions

    group_cols = list(group_cols)
    if not group_cols:
        raise ValueError("grouped_quantiles needs ≥1 group column; use "
                         "global_quantiles for the global form")
    qs = [float(q) for q in qs]
    if any(q < 0.0 or q > 1.0 for q in qs):
        raise ValueError("quantile fractions must be in [0, 1]")
    if q_names is None:
        q_names = [f"q{100.0 * q:g}" for q in qs]
    extras = dict(extras or {})
    for kind in extras.values():
        if kind not in _CENSUS_AGGS:
            raise ValueError(f"unknown census aggregate {kind!r}")
    P = shuffle_partitions()

    census_keys = group_cols + ["v__"]

    def census(batch: pa.Table) -> pa.Table:
        # one row per (key, value) of the block, NULL values included
        # (their count feeds COUNT(*)); hash-partitioned on the key alone
        t = batch.select(group_cols).append_column(
            "v__", pc.cast(batch[value_col], pa.float64()))
        return key_partition(
            key_group_by(t, census_keys, [([], "count_all")]),
            group_cols, P)

    qs_arr = np.asarray(qs, dtype=np.float64)

    def resolve(g: pa.Table) -> pa.Table:
        g = key_group_by(g.drop_columns(["part__"]).combine_chunks(),
                         census_keys, [("count_all", "sum")])
        m = g.num_rows
        if m == 0:
            cols = {c: g[c] for c in group_cols}
            for nm in list(q_names) + list(extras):
                cols[nm] = pa.array([], pa.float64())
            return pa.table(cols)
        _, codes = key_codes(g, group_cols)
        isnull = g["v__"].is_null().to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        v = g["v__"].fill_null(0.0).to_numpy()
        cnt = g["count_all_sum"].to_numpy()
        # group-major, NULL census rows last inside each group, values
        # ascending — ONE lexsort covers every key in the bucket
        order = np.lexsort((v, isnull, codes))
        codes, isnull, v, cnt = (codes[order], isnull[order],
                                 v[order], cnt[order])
        new = np.ones(m, dtype=bool)
        new[1:] = codes[1:] != codes[:-1]
        starts = np.nonzero(new)[0]
        cnt_val = np.where(isnull == 0, cnt, 0)
        cum = np.cumsum(cnt_val)
        base = np.where(starts > 0, cum[starts - 1], 0)
        n_val = np.add.reduceat(cnt_val, starts)

        out = {c: g[c].take(pa.array(order[starts]))
               for c in group_cols}
        empty = n_val == 0
        for q, nm in zip(qs_arr, q_names):
            h = (n_val - 1) * q
            j_lo = np.floor(h).astype(np.int64)
            j_hi = np.ceil(h).astype(np.int64)
            j_lo[empty] = 0
            j_hi[empty] = 0
            r_lo = np.searchsorted(cum, base + j_lo, side="right")
            r_hi = np.searchsorted(cum, base + j_hi, side="right")
            res = v[np.minimum(r_lo, m - 1)] + (h - j_lo) * (
                v[np.minimum(r_hi, m - 1)] - v[np.minimum(r_lo, m - 1)])
            out[nm] = pa.array(np.where(empty, np.nan, res),
                               pa.float64(), mask=empty)
        for nm, kind in extras.items():
            if kind == "count_star":
                out[nm] = pa.array(np.add.reduceat(cnt, starts),
                                   pa.int64())
            elif kind == "count":
                out[nm] = pa.array(n_val.astype(np.int64))
            else:
                sums = np.add.reduceat(cnt_val * v, starts)
                if kind == "sum":
                    res = np.where(empty, np.nan, sums)
                elif kind == "avg":
                    res = np.where(empty, np.nan,
                                   sums / np.maximum(n_val, 1))
                elif kind == "min":
                    res = v[starts]          # values ascend in-group
                    res = np.where(empty, np.nan, res)
                else:                        # max: last non-null row
                    last = np.searchsorted(cum, base + n_val - 1,
                                           side="right")
                    res = np.where(empty, np.nan,
                                   v[np.minimum(last, m - 1)])
                out[nm] = pa.array(res, pa.float64(), mask=empty)
        return pa.table(out)

    return (ds.map_batches(census, batch_format="pyarrow")
              .groupby("part__")
              .map_groups(resolve, batch_format="pyarrow"))


def _bin_census(ds, value_col, intervals, bins):
    """One streaming pass: per (interval, bin) counts.  ``intervals`` is
    a list of (lo, hi) float pairs; bin edges are linspace(lo, hi,
    bins+1), membership via searchsorted so collection filters later
    compare against the SAME concrete edge floats."""
    from ray.data.aggregate import Sum

    edges_all = [np.linspace(lo, hi, bins + 1) for lo, hi in intervals]

    def part(batch: pa.Table) -> pa.Table:
        v = batch[value_col].drop_null().to_numpy()
        iv, bn, ct = [], [], []
        for i, ((lo, hi), edges) in enumerate(zip(intervals, edges_all)):
            x = v[(v >= lo) & (v <= hi)]
            if len(x) == 0:
                continue
            b = np.clip(np.searchsorted(edges, x, side="right") - 1,
                        0, bins - 1)
            counts = np.bincount(b, minlength=bins)
            nz = np.nonzero(counts)[0]
            iv.append(np.full(len(nz), i, np.int64))
            bn.append(nz.astype(np.int64))
            ct.append(counts[nz])
        if not iv:
            return pa.table({"iv__": pa.array([], pa.int64()),
                             "bin__": pa.array([], pa.int64()),
                             "cnt__": pa.array([], pa.int64())})
        return pa.table({"iv__": pa.array(np.concatenate(iv)),
                         "bin__": pa.array(np.concatenate(bn)),
                         "cnt__": pa.array(np.concatenate(ct))})

    t = (ds.map_batches(part, batch_format="pyarrow")
           .groupby(["iv__", "bin__"])
           .aggregate(Sum("cnt__", alias_name="cnt__"))
           .take_all())  # bounded: ≤ bins × |intervals| rows
    out = [np.zeros(bins, dtype=np.int64) for _ in intervals]
    for row in t:
        out[row["iv__"]][row["bin__"]] = row["cnt__"]
    return out, edges_all


def global_quantiles(ds, value_col, qs, q_names=None,
                     bins: int = 4096, collect_limit: int = 4_000_000,
                     max_rounds: int = 8) -> pa.Table:
    """Exact global quantiles of a numeric column → one-row table.

    Histogram-refinement selection (module docstring): works for
    continuous columns of any cardinality, O(log_bins n) streaming
    passes, collects at most ``collect_limit`` values once.
    """
    from ray.data.aggregate import Count, Max, Min

    qs = [float(q) for q in qs]
    if q_names is None:
        q_names = [f"q{100.0 * q:g}" for q in qs]
    agg = ds.aggregate(Count(value_col, ignore_nulls=True,
                             alias_name="n__"),
                       Min(value_col, alias_name="lo__"),
                       Max(value_col, alias_name="hi__"))
    n = int(agg["n__"] or 0)
    if n == 0:
        return pa.table({nm: pa.array([None], pa.float64())
                         for nm in q_names})
    lo, hi = float(agg["lo__"]), float(agg["hi__"])

    # order statistics needed (0-based), deduplicated
    want: dict[int, float | None] = {}
    for q in qs:
        h = (n - 1) * q
        want.setdefault(int(np.floor(h)), None)
        want.setdefault(int(np.ceil(h)), None)

    # pending[j] = (lo, hi, rank_offset): the j-th order stat lies in
    # [lo, hi] and rank_offset values sit strictly below lo
    pending = {j: (lo, hi, 0) for j in want}
    for _ in range(max_rounds):
        if not pending:
            break
        # resolve degenerate intervals (all remaining values equal
        # to float resolution)
        for j in list(pending):
            ilo, ihi, _ = pending[j]
            if ilo == ihi or np.nextafter(ilo, ihi) >= ihi:
                want[j] = ilo
                del pending[j]
        if not pending:
            break
        intervals = sorted({(p[0], p[1]) for p in pending.values()})
        counts, edges_all = _bin_census(ds, value_col, intervals, bins)
        collect: list[tuple[float, float, bool, int]] = []
        nxt = {}
        for j, (ilo, ihi, off) in pending.items():
            i = intervals.index((ilo, ihi))
            cum = np.cumsum(counts[i])
            b = int(np.searchsorted(cum, j - off, side="right"))
            b = min(b, bins - 1)
            below = off + (int(cum[b - 1]) if b > 0 else 0)
            in_bin = int(counts[i][b])
            blo = float(edges_all[i][b])
            bhi = float(edges_all[i][b + 1])
            last = b == bins - 1
            if in_bin <= collect_limit:
                collect.append((blo, bhi, last, j))
                nxt[j] = ("collect", blo, bhi, last, below)
            else:
                nxt[j] = ("recurse", blo, bhi, last, below)
        # final collection pass: gather every still-needed bin at once
        need = [(v[1], v[2], v[3]) for v in nxt.values()
                if v[0] == "collect"]
        if need:
            need = sorted(set(need))

            def grab(batch: pa.Table) -> pa.Table:
                v = batch[value_col].drop_null().to_numpy() \
                    .astype(np.float64)
                keep = np.zeros(len(v), dtype=bool)
                for blo, bhi, last in need:
                    m = (v >= blo) & ((v < bhi) | (last & (v <= bhi)))
                    keep |= m
                return pa.table({"v__": pa.array(v[keep])})

            vals = np.sort(np.concatenate(
                [b["v__"].to_numpy() for b in
                 ds.map_batches(grab, batch_format="pyarrow")
                   .iter_batches(batch_format="pyarrow")] or
                [np.empty(0)]))
            for j, st in list(nxt.items()):
                if st[0] != "collect":
                    continue
                _, blo, bhi, last, below = st
                sel = vals[(vals >= blo) &
                           ((vals < bhi) | (last & (vals <= bhi)))]
                want[j] = float(np.sort(sel)[j - below])
                del nxt[j]
        pending = {j: (st[1], st[2], st[4]) for j, st in nxt.items()}
    if pending:
        raise RuntimeError("quantile refinement did not converge "
                           f"in {max_rounds} rounds")

    out = {}
    for q, nm in zip(qs, q_names):
        h = (n - 1) * q
        j_lo, j_hi = int(np.floor(h)), int(np.ceil(h))
        v_lo, v_hi = want[j_lo], want[j_hi]
        out[nm] = pa.array([v_lo + (h - j_lo) * (v_hi - v_lo)],
                           pa.float64())
    return pa.table(out)
