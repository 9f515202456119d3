"""HyperLogLog approximate-distinct sketch (Flajolet et al. 2007) and the
KLL quantile sketch (below).

HLL gives the ``approx_distinct`` column of ``validate.column_profile``
(query ``data_profile``).  It is the classic cardinality sketch for
100-TB pipelines: each block folds into a fixed 2^p-byte register array
inside ``map_batches`` (one partial row per block, never a value
shuffle), partials merge by elementwise max (associative +
commutative — any combine tree is exact), and the estimate applies
the published bias corrections (harmonic mean with alpha_m, linear
counting in the small range).  Standard error is
``1.04/sqrt(2^p)`` — 0.81 % at the default p=14 (16 KiB per sketch).

Reference analog: the reference's SQL dialect reaches exact
COUNT(DISTINCT) through sqlite3; this is the approximate counterpart a
distinct-count over 10^12 rows actually needs (exact stays available —
georay/queries.py q_count_distinct_custkeys).  Merge-tree shape mirrors the
engine's Welford partials (georay/stats.py).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

__all__ = ["hll_partial", "hll_merge", "hll_estimate", "KLL",
           "approx_quantiles"]


def _bitlen(x: np.ndarray) -> np.ndarray:
    """Vectorized bit length of uint32-ranged values (exact: a uint32
    converts to float64 losslessly and log2 of an exact power of two is
    exact, so the floor never straddles a boundary)."""
    f = x.astype(np.float64)
    return np.where(x > 0,
                    np.floor(np.log2(np.maximum(f, 1.0))) + 1.0,
                    0.0)


def _clz64(w: np.ndarray) -> np.ndarray:
    hi = (w >> np.uint64(32)).astype(np.uint64)
    lo = (w & np.uint64(0xFFFFFFFF)).astype(np.uint64)
    bl = np.where(hi > 0, _bitlen(hi) + 32.0, _bitlen(lo))
    return (64.0 - bl).astype(np.int64)


def _hash64(col) -> np.ndarray:
    """64-bit splitmix finalizer over ints/floats/timestamps; string and
    binary columns route through util.hash_strings."""
    from .util import hash_strings
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    if pa.types.is_string(col.type) or pa.types.is_large_string(col.type) \
            or pa.types.is_binary(col.type):
        h = hash_strings(col)
    else:
        v = col.to_numpy(zero_copy_only=False)
        if v.dtype.kind == "M":
            v = v.astype("datetime64[us]").astype(np.int64)
        if v.dtype.kind == "f":
            h = v.astype(np.float64).view(np.uint64)
        else:
            h = v.astype(np.int64).view(np.uint64)
    h = h.copy()
    h ^= h >> np.uint64(30)
    h *= np.uint64(0xBF58476D1CE4E5B9)
    h ^= h >> np.uint64(27)
    h *= np.uint64(0x94D049BB133111EB)
    h ^= h >> np.uint64(31)
    return h


def hll_partial(col, p: int = 14) -> np.ndarray:
    """Fold one column chunk into a fresh 2^p uint8 register array."""
    m = 1 << p
    reg = np.zeros(m, dtype=np.uint8)
    h = _hash64(col)
    if len(h) == 0:
        return reg
    idx = (h >> np.uint64(64 - p)).astype(np.int64)
    w = (h << np.uint64(p)) & np.uint64(0xFFFFFFFFFFFFFFFF)
    rho = np.where(w == 0, 64 - p + 1,
                   np.minimum(_clz64(w) + 1, 64 - p + 1)).astype(np.uint8)
    np.maximum.at(reg, idx, rho)
    return reg


def hll_merge(*regs: np.ndarray) -> np.ndarray:
    return np.maximum.reduce(list(regs))


def hll_estimate(reg: np.ndarray) -> float:
    m = float(len(reg))
    alpha = 0.7213 / (1.0 + 1.079 / m)
    e = alpha * m * m / np.sum(np.exp2(-reg.astype(np.float64)))
    zeros = int(np.count_nonzero(reg == 0))
    if e <= 2.5 * m and zeros > 0:
        return float(m * np.log(m / zeros))     # linear counting
    return float(e)


# ---------------------------------------------------------------------------
# KLL quantile sketch (Karnin-Lang-Liberty 2016, arXiv:1603.05346) — the
# ONE-PASS mergeable quantile summary.  The exact plans in
# georay/quantiles.py need O(log n) refinement passes over the data; at
# 100 TB a single streaming pass with per-block partials + a salted
# combine tree is the right default when ~1% rank error is acceptable.
# Compaction coin flips come from a splitmix64 counter chain, so a given
# merge order is fully deterministic (no shared RNG); different block
# partitionings may yield different — equally valid — summaries, which is
# why the driver query self-gates on rank error vs the exact quantile.
# ---------------------------------------------------------------------------

def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return (z ^ (z >> 31)) & 0xFFFFFFFFFFFFFFFF


class KLL:
    """Mergeable quantile sketch.  ``levels[i]`` holds float64 items of
    weight ``2**i``; level capacities decay geometrically (ratio 2/3)
    from ``k`` at the top, floor 8 — the classic KLL schedule."""

    __slots__ = ("k", "levels", "n", "_coin")

    def __init__(self, k: int = 512):
        self.k = int(k)
        self.levels: list[np.ndarray] = [np.empty(0, np.float64)]
        self.n = 0
        self._coin = 0x5DEECE66D

    def _cap(self, lvl: int) -> int:
        h = len(self.levels)
        return max(8, int(np.ceil(self.k * (2.0 / 3.0) ** (h - 1 - lvl))))

    def add_array(self, vals: np.ndarray) -> "KLL":
        v = np.asarray(vals, np.float64)
        v = v[~np.isnan(v)]
        if len(v):
            self.levels[0] = np.concatenate([self.levels[0], v])
            self.n += len(v)
            self._compress()
        return self

    def _compress(self) -> None:
        while True:
            total = sum(len(a) for a in self.levels)
            budget = sum(self._cap(i) for i in range(len(self.levels)))
            if total <= budget:
                return
            for i, arr in enumerate(self.levels):
                if len(arr) > self._cap(i):
                    if i + 1 == len(self.levels):
                        self.levels.append(np.empty(0, np.float64))
                    s = np.sort(arr)
                    self._coin = _splitmix64(self._coin)
                    off = self._coin & 1
                    self.levels[i + 1] = np.concatenate(
                        [self.levels[i + 1], s[off::2]])
                    self.levels[i] = np.empty(0, np.float64)
                    break
            else:
                return

    def merge(self, other: "KLL") -> "KLL":
        for i, arr in enumerate(other.levels):
            while len(self.levels) <= i:
                self.levels.append(np.empty(0, np.float64))
            self.levels[i] = np.concatenate([self.levels[i], arr])
        self.n += other.n
        self._coin = _splitmix64(self._coin ^ other._coin)
        self._compress()
        return self

    def quantile(self, q: float) -> float:
        vals = np.concatenate(self.levels)
        wts = np.concatenate(
            [np.full(len(a), 1 << i, np.int64)
             for i, a in enumerate(self.levels)])
        order = np.argsort(vals, kind="stable")
        vals, wts = vals[order], wts[order]
        cum = np.cumsum(wts)
        tgt = q * cum[-1]
        return float(vals[min(np.searchsorted(cum, tgt),
                              len(vals) - 1)])

    def serialize(self) -> bytes:
        import struct
        head = struct.pack("<qqq", self.n, self._coin & (2**63 - 1),
                           len(self.levels))
        lens = struct.pack(f"<{len(self.levels)}q",
                           *[len(a) for a in self.levels])
        return head + lens + b"".join(
            np.ascontiguousarray(a).tobytes() for a in self.levels)

    @classmethod
    def deserialize(cls, buf: bytes, k: int = 512) -> "KLL":
        import struct
        n, coin, nl = struct.unpack_from("<qqq", buf, 0)
        lens = struct.unpack_from(f"<{nl}q", buf, 24)
        sk = cls(k)
        sk.n, sk._coin = n, coin
        off = 24 + 8 * nl
        sk.levels = []
        for ln in lens:
            sk.levels.append(np.frombuffer(buf, np.float64, ln, off)
                             .copy())
            off += 8 * ln
        return sk


def approx_quantiles(ds, col: str, qs, k: int = 512,
                     fanin: int = 64) -> dict[float, float]:
    """One-pass approximate quantiles of ``ds[col]`` via per-block KLL
    partials → ``fanin`` salted combine groups → driver merge of ≤fanin
    sketches (the caller folds ``fanin`` rows, never one per block)."""

    def partial(batch: pa.Table) -> pa.Table:
        v = batch[col].to_numpy(zero_copy_only=False).astype(np.float64)
        sk = KLL(k).add_array(v)
        salt = _splitmix64(len(v) ^ (int(abs(v.sum())) & 0xFFFF
                                     if len(v) else 0)) % fanin
        return pa.table({"salt__": pa.array([salt], pa.int64()),
                         "sk__": pa.array([sk.serialize()], pa.binary())})

    def combine(g: pa.Table) -> pa.Table:
        sks = [KLL.deserialize(b.as_py(), k) for b in g["sk__"]]
        out = sks[0]
        for s in sks[1:]:
            out.merge(s)
        return pa.table({"sk__": pa.array([out.serialize()],
                                          pa.binary())})

    rows = (ds.map_batches(partial, batch_format="pyarrow")
              .groupby("salt__")
              .map_groups(combine, batch_format="pyarrow")
              .take_all())
    if not rows:
        return {q: float("nan") for q in qs}
    merged = KLL.deserialize(rows[0]["sk__"], k)
    for r in rows[1:]:
        merged.merge(KLL.deserialize(r["sk__"], k))
    return {q: merged.quantile(q) for q in qs}

