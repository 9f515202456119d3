"""Multidim array surface — a GDALMDArray-lite over the Zarr chunk store
(gcore/gdalmultidim.cpp's model: named dimensions, windowed views,
statistics — SURVEY §1.1 noted the multidim model as design context; this
is the minimal engine-side analog now that a chunked N-D store exists).

An :class:`MDArray` wraps a Zarr v2 array directory.  Reads are windowed
(only touched chunks decode — gdalmultidim's IRead with chunk
granularity); statistics and reductions run DISTRIBUTED over the chunk
grid: one Ray task per chunk, mergeable partials combined in chunk order
on the driver, no full-array materialization anywhere (the 100 TB
shape).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from .util import read_units
from .zarrstore import (zarr_chunk_grid, zarr_meta, zarr_read_chunk,
                        zarr_read_window)

__all__ = ["MDArray", "mdim_translate"]


class MDArray:
    """Read surface over one Zarr array: ``shape``, ``dims``, windowed
    ``read``, lazy ``view`` slicing, and distributed ``statistics`` /
    ``reduce`` over chunks."""

    def __init__(self, path: str, dim_names=None, _window=None):
        self.path = path
        self.meta = zarr_meta(path)
        nd = len(self.meta["shape"])
        self.dims = list(dim_names) if dim_names else [
            f"dim{i}" for i in range(nd)]
        if len(self.dims) != nd:
            raise ValueError("dim_names length != array rank")
        # the view window is one ``range`` per dimension (start/stop/
        # STEP — strided GetView slicing, gdalmultidim.cpp GetView)
        if _window is None:
            self._window = tuple(range(0, s) for s in self.meta["shape"])
        else:
            self._window = tuple(
                r if isinstance(r, range)
                else range(r.start or 0,
                           r.stop if r.stop is not None
                           else self.meta["shape"][d],
                           r.step or 1)
                for d, r in enumerate(_window))

    @property
    def shape(self):
        return tuple(len(r) for r in self._window)

    @property
    def dtype(self):
        return np.dtype(self.meta["dtype"])

    def view(self, *slices) -> "MDArray":
        """GetView analog: compose a sub-window (slices are relative to
        the current view).  Strided slices compose exactly — a Python
        ``range`` sliced by a slice IS the composed index set (negative
        steps are rejected; reverse with numpy after read)."""
        if len(slices) != len(self._window):
            raise ValueError("view needs one slice per dimension")
        new = []
        for outer, s in zip(self._window, slices):
            if s.step is not None and s.step < 1:
                raise ValueError("view steps must be >= 1")
            new.append(outer[s])
        return MDArray(self.path, self.dims, tuple(new))

    def _dim_indices(self):
        """Per-dimension absolute index arrays of this view."""
        return [np.arange(r.start, r.stop, r.step, dtype=np.int64)
                for r in self._window]

    def read(self) -> np.ndarray:
        """Materialize THIS VIEW (windowed assembly, strided-aware; use
        only on driver-sized windows — whole-array reductions go through
        :meth:`reduce`/:meth:`statistics`).  Contiguous views take the
        plain chunk-window path; strided views gather with one fancy-
        index per touched chunk (only touched chunks decode)."""
        if all(r.step == 1 for r in self._window):
            return zarr_read_window(
                self.path, tuple(slice(r.start, r.stop)
                                 for r in self._window))
        from itertools import product

        cs = self.meta["chunks"]
        idx_lists = self._dim_indices()
        out = np.empty([len(a) for a in idx_lists], dtype=self.dtype)
        per_dim = []
        for d, ids in enumerate(idx_lists):
            cids = ids // cs[d]
            per_dim.append({int(c): np.flatnonzero(cids == c)
                            for c in np.unique(cids)})
        for combo in product(*(sorted(p) for p in per_dim)):
            chunk = zarr_read_chunk(self.path, combo, self.meta)
            sel_out = [per_dim[d][combo[d]]
                       for d in range(len(cs))]
            sel_src = [idx_lists[d][sel_out[d]] - combo[d] * cs[d]
                       for d in range(len(cs))]
            out[np.ix_(*sel_out)] = chunk[np.ix_(*sel_src)]
        return out

    # -- distributed reductions -------------------------------------------
    def _chunks_in_window(self):
        cs = self.meta["chunks"]
        sets = []
        for d, r in enumerate(self._window):
            if len(r) == 0:
                return []
            last = r.start + (len(r) - 1) * r.step
            touched = set()
            for c in range(r.start // cs[d], last // cs[d] + 1):
                a = c * cs[d]
                # first view index >= a (arithmetic, no materialization —
                # dims can be 10^9 at scale)
                first = r.start if r.start >= a else \
                    r.start + (-(-(a - r.start) // r.step)) * r.step
                if first < min(r.stop, a + cs[d]):
                    touched.add(c)
            sets.append(touched)
        out = []
        for idx in zarr_chunk_grid(self.meta):
            if all(idx[d] in sets[d] for d in range(len(cs))):
                out.append(idx)
        return out

    def _chunk_partials(self, partial) -> list:
        """One task per chunk in the window: the rows of ``partial(a)`` over
        each trimmed chunk ``a``, in chunk order (so a combine reads them
        in the same order on every run)."""
        path, window = self.path, self._window

        def chunk_partial(unit: dict) -> pa.Table:
            a = MDArray(path, _window=window)._trimmed(tuple(unit["idx"]))
            return partial(a).append_column("i", pa.array([unit["i"]]))

        units = [{"i": i, "idx": list(idx)}
                 for i, idx in enumerate(self._chunks_in_window())]
        return sorted(read_units(units, chunk_partial).take_all(),
                      key=lambda r: r["i"])

    def _trimmed(self, idx) -> np.ndarray:
        """One chunk restricted to the view's index set (strided-aware)."""
        cs = self.meta["chunks"]
        chunk = zarr_read_chunk(self.path, idx, self.meta)
        sel = []
        for d, r in enumerate(self._window):
            a = idx[d] * cs[d]
            # first view index >= a, stepping by r.step
            if r.start >= a:
                first = r.start
            else:
                k = -(-(a - r.start) // r.step)  # ceil
                first = r.start + k * r.step
            ids = np.arange(first, min(r.stop, a + cs[d],
                                       self.meta["shape"][d]),
                            r.step, dtype=np.int64)
            sel.append(ids - a)
        return chunk[np.ix_(*sel)]

    def reduce(self, op: str):
        """Whole-view scalar reduction (sum/min/max/count) — one partial
        per chunk task, tiny combine driver-side."""
        if op not in ("sum", "min", "max", "count"):
            raise ValueError(op)

        def partial(a: np.ndarray) -> pa.Table:
            if op == "sum":
                v = a.sum(dtype=np.float64)
            elif op == "min":
                v = a.min() if a.size else np.inf
            elif op == "max":
                v = a.max() if a.size else -np.inf
            else:
                v = a.size
            return pa.table({"v": [float(v)]})

        parts = np.array([r["v"] for r in self._chunk_partials(partial)],
                         np.float64)
        if op == "sum" or op == "count":
            return float(parts.sum())
        return float(parts.min() if op == "min" else parts.max())

    def statistics(self):
        """GDALMDArray::GetStatistics analog: distributed Welford partials
        per chunk → exact (count, mean, std, min, max)."""
        from .stats import BandStats, band_stats_combine, band_stats_partial

        def partial(a: np.ndarray) -> pa.Table:
            st = band_stats_partial(a)
            return pa.table({"count": pa.array([st.count], pa.int64()),
                             "mean": pa.array([st.mean]),
                             "m2": pa.array([st.m2]),
                             "min": pa.array([st.min]),
                             "max": pa.array([st.max])})

        return band_stats_combine(
            BandStats(r["count"], r["mean"], r["m2"], r["min"], r["max"])
            for r in self._chunk_partials(partial))


def mdim_translate(src_path: str, dst_path: str, *, window=None,
                   chunks=None, dtype=None, compressor="zlib"):
    """gdalmdimtranslate analog for N-D arrays: window-slice + RE-CHUNK
    a Zarr array into a new one, distributed (VERDICT r3 next-7 lifted
    the old 2-D restriction).

    The interesting distributed op is the chunk-grid change: every
    source chunk EXPLODES into its overlaps with destination chunks
    (one task per source chunk, one row per (src chunk x dst chunk) overlap
    carrying only the overlap bytes), a ``groupby(dst flat key)``
    co-locates the pieces, and each group assembles + writes one
    destination chunk file directly (atomic rename; existing chunks are
    skipped — the resume contract) — the same partial→combine shape as
    the tile compositor, so neither array is ever materialized whole."""
    import os
    from itertools import product

    from .zarrstore import (zarr_chunk_grid, zarr_create, zarr_meta,
                            zarr_read_chunk, zarr_write_chunk,
                            _chunk_name)

    smeta = zarr_meta(src_path)
    nd = len(smeta["shape"])
    if window is None:
        window = tuple(slice(0, s) for s in smeta["shape"])
    w0 = tuple(w.start or 0 for w in window)
    w1 = tuple(w.stop if w.stop is not None else smeta["shape"][d]
               for d, w in enumerate(window))
    out_shape = tuple(b - a for a, b in zip(w0, w1))
    chunks = tuple(chunks) if chunks else tuple(smeta["chunks"])
    if len(chunks) != nd:
        raise ValueError("chunks rank != array rank")
    dtype = dtype or smeta["dtype"]
    src_cs = smeta["chunks"]
    dst_counts = tuple((s + c - 1) // c for s, c in zip(out_shape,
                                                        chunks))
    dmeta = zarr_create(dst_path, out_shape, chunks, dtype,
                        compressor=compressor)

    def explode(unit: dict) -> pa.Table:
        m = zarr_meta(src_path)
        idx = tuple(unit["idx"])
        keys, offs, shps, datas = [], [], [], []
        # source-chunk extent clipped to the window (absolute coords)
        lo = [max(idx[d] * src_cs[d], w0[d]) for d in range(nd)]
        hi = [min((idx[d] + 1) * src_cs[d], w1[d],
                  m["shape"][d]) for d in range(nd)]
        if all(h > l for l, h in zip(lo, hi)):
            arr = zarr_read_chunk(src_path, idx, m)
            # overlapped destination chunks (dst coords window-relative)
            dranges = [range((lo[d] - w0[d]) // chunks[d],
                             (hi[d] - w0[d] - 1) // chunks[d] + 1)
                       for d in range(nd)]
            for dc in product(*dranges):
                plo = [max(lo[d], dc[d] * chunks[d] + w0[d])
                       for d in range(nd)]
                phi = [min(hi[d], (dc[d] + 1) * chunks[d] + w0[d])
                       for d in range(nd)]
                piece = arr[tuple(
                    slice(plo[d] - idx[d] * src_cs[d],
                          phi[d] - idx[d] * src_cs[d])
                    for d in range(nd))]
                flat = 0
                for d in range(nd):
                    flat = flat * dst_counts[d] + dc[d]
                keys.append(flat)
                offs.append([plo[d] - w0[d] - dc[d] * chunks[d]
                             for d in range(nd)])
                shps.append(list(piece.shape))
                datas.append(np.ascontiguousarray(piece).tobytes())
        out = {"k": pa.array(keys, pa.int64())}
        for d in range(nd):
            out[f"o{d}"] = pa.array([o[d] for o in offs], pa.int64())
            out[f"s{d}"] = pa.array([sh[d] for sh in shps], pa.int64())
        out["data"] = pa.array(datas, pa.binary())
        return pa.table(out)

    def assemble(g: pa.Table) -> pa.Table:
        flat = int(g["k"][0].as_py())
        dc = []
        for d in reversed(range(nd)):
            dc.append(flat % dst_counts[d])
            flat //= dst_counts[d]
        dc = tuple(reversed(dc))
        name = os.path.join(dst_path, _chunk_name(dc))
        if os.path.exists(name):
            return pa.table({"k": g["k"].slice(0, 1),
                             "written": pa.array([False])})
        tshape = tuple(min(chunks[d], out_shape[d] - dc[d] * chunks[d])
                       for d in range(nd))
        tile = np.zeros(tshape, dtype=np.dtype(dtype))
        sdt = np.dtype(smeta["dtype"])
        ocols = [g[f"o{d}"].to_numpy() for d in range(nd)]
        scols = [g[f"s{d}"].to_numpy() for d in range(nd)]
        for i in range(g.num_rows):
            shp = tuple(int(scols[d][i]) for d in range(nd))
            piece = np.frombuffer(g["data"][i].as_buffer(),
                                  dtype=sdt).reshape(shp)
            tile[tuple(slice(int(ocols[d][i]),
                             int(ocols[d][i]) + shp[d])
                       for d in range(nd))] = piece
        zarr_write_chunk(dst_path, dc, tile, dmeta)
        return pa.table({"k": g["k"].slice(0, 1),
                         "written": pa.array([True])})

    (read_units([{"idx": list(g)} for g in zarr_chunk_grid(smeta)], explode)
     .groupby("k")
     .map_groups(assemble, batch_format="pyarrow")
     .materialize())
    return dst_path
