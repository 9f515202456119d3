"""Static packed R-tree over bounding boxes — the broadcast join index.

Semantics follow FlatGeobuf's packed Hilbert R-tree (reference:
ogr/ogrsf_frmts/flatgeobuf/packedrtree.h:71-105 — items are sorted by the
Hilbert value of their bbox center quantized to the tree extent, then nodes
are packed bottom-up with a fixed branching factor).  The implementation is
brand-new numpy: flat per-level bbox arrays, and a *batched* query that
descends all query boxes level-by-level as one vectorized frontier, so a
whole ``map_batches`` batch of points/boxes is answered with a handful of
numpy ops instead of a per-row tree walk.

Built once on the driver, ``ray.put()`` once, reused by every join task
(SURVEY.md §2.3 "Spatial index for join pretest").
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["hilbert_xy2d", "hilbert_sort_order", "PackedRTree"]

_HILBERT_ORDER = 16  # packedrtree.h uses 16-bit quantization


def hilbert_xy2d(order: int, x, y):
    """Hilbert curve distance of integer (x, y) — vectorized classic
    rotate/flip iteration (public-domain algorithm; same curve as
    flatgeobuf/packedrtree.cpp's HilbertXYToIndex)."""
    x = np.asarray(x, dtype=np.uint64).copy()
    y = np.asarray(y, dtype=np.uint64).copy()
    d = np.zeros(x.shape, dtype=np.uint64)
    s = np.uint64(1) << np.uint64(order - 1)
    one = np.uint64(1)
    while s > 0:
        rx = ((x & s) > 0).astype(np.uint64)
        ry = ((y & s) > 0).astype(np.uint64)
        d += s * s * ((np.uint64(3) * rx) ^ ry)
        # rotate quadrant
        swap = ry == 0
        flip = swap & (rx == one)
        x_f = np.where(flip, s - one - x, x)
        y_f = np.where(flip, s - one - y, y)
        x, y = np.where(swap, y_f, x_f), np.where(swap, x_f, y_f)
        s >>= one
    return d


def hilbert_sort_order(bbox: np.ndarray) -> np.ndarray:
    """Sort permutation of items by Hilbert value of their bbox centers,
    quantized to the overall extent (packedrtree.h:86-105)."""
    bbox = np.asarray(bbox, dtype=np.float64)
    cx = (bbox[:, 0] + bbox[:, 2]) * 0.5
    cy = (bbox[:, 1] + bbox[:, 3]) * 0.5
    minx, miny = cx.min(), cy.min()
    w = max(cx.max() - minx, 1e-300)
    h = max(cy.max() - miny, 1e-300)
    scale = (1 << _HILBERT_ORDER) - 1
    qx = np.clip(((cx - minx) / w * scale), 0, scale).astype(np.uint64)
    qy = np.clip(((cy - miny) / h * scale), 0, scale).astype(np.uint64)
    return np.argsort(hilbert_xy2d(_HILBERT_ORDER, qx, qy), kind="stable")


@dataclass
class PackedRTree:
    """Immutable bottom-up-packed R-tree.

    ``levels[0]`` = item bboxes in Hilbert order; ``levels[k]`` = parent
    bboxes (each covering ``node_size`` consecutive children).  ``perm``
    maps Hilbert-order position → original item index.
    """

    levels: list  # list[np.ndarray (n_k, 4)]
    perm: np.ndarray
    node_size: int

    @classmethod
    def build(cls, bbox: np.ndarray, node_size: int = 16) -> "PackedRTree":
        bbox = np.asarray(bbox, dtype=np.float64).reshape(-1, 4)
        perm = hilbert_sort_order(bbox)
        levels = [bbox[perm]]
        while levels[-1].shape[0] > node_size:
            child = levels[-1]
            n_parent = (child.shape[0] + node_size - 1) // node_size
            pad = n_parent * node_size - child.shape[0]
            padded = np.vstack([
                child,
                np.repeat([[np.inf, np.inf, -np.inf, -np.inf]], pad, axis=0),
            ]) if pad else child
            grouped = padded.reshape(n_parent, node_size, 4)
            parent = np.empty((n_parent, 4), dtype=np.float64)
            parent[:, 0] = grouped[:, :, 0].min(axis=1)
            parent[:, 1] = grouped[:, :, 1].min(axis=1)
            parent[:, 2] = grouped[:, :, 2].max(axis=1)
            parent[:, 3] = grouped[:, :, 3].max(axis=1)
            levels.append(parent)
        return cls(levels=levels, perm=perm, node_size=node_size)

    @property
    def n_items(self) -> int:
        return self.levels[0].shape[0]

    def query_boxes(self, qminx, qminy, qmaxx, qmaxy):
        """Batched bbox-intersection query.

        Returns ``(query_idx, item_idx)`` int64 arrays: every (query, item)
        pair whose boxes intersect.  All M queries descend together — the
        frontier at each level is a flat (query, node) pair array expanded
        and filtered with vectorized numpy.
        """
        qminx = np.atleast_1d(np.asarray(qminx, dtype=np.float64))
        qminy = np.atleast_1d(np.asarray(qminy, dtype=np.float64))
        qmaxx = np.atleast_1d(np.asarray(qmaxx, dtype=np.float64))
        qmaxy = np.atleast_1d(np.asarray(qmaxy, dtype=np.float64))
        m = qminx.shape[0]
        if m == 0 or self.n_items == 0:
            z = np.empty(0, dtype=np.int64)
            return z, z

        top = self.levels[-1]
        n_top = top.shape[0]
        # full cross of queries × top nodes (top level is <= node_size^2 tiny)
        qi = np.repeat(np.arange(m, dtype=np.int64), n_top)
        ni = np.tile(np.arange(n_top, dtype=np.int64), m)
        keep = self._intersects(qminx, qminy, qmaxx, qmaxy, qi, top, ni)
        qi, ni = qi[keep], ni[keep]

        for level in range(len(self.levels) - 2, -1, -1):
            if qi.size == 0:
                z = np.empty(0, dtype=np.int64)
                return z, z
            child_bb = self.levels[level]
            n_child = child_bb.shape[0]
            # expand each surviving node into its children
            first = ni * self.node_size
            cnt = np.minimum(first + self.node_size, n_child) - first
            qi = np.repeat(qi, cnt)
            offs = np.arange(cnt.sum(), dtype=np.int64) - np.repeat(
                np.concatenate([[0], np.cumsum(cnt)[:-1]]), cnt)
            ci = np.repeat(first, cnt) + offs
            keep = self._intersects(qminx, qminy, qmaxx, qmaxy, qi, child_bb, ci)
            qi, ni = qi[keep], ci[keep]

        return qi, self.perm[ni]

    @staticmethod
    def _intersects(qminx, qminy, qmaxx, qmaxy, qi, bb, bi):
        return ((qminx[qi] <= bb[bi, 2]) & (qmaxx[qi] >= bb[bi, 0])
                & (qminy[qi] <= bb[bi, 3]) & (qmaxy[qi] >= bb[bi, 1]))

    def query_points(self, px, py):
        """Batched point query: (point_idx, item_idx) candidate pairs whose
        item bbox contains the point — the envelope pretest of the spatial
        join (ogrlayer.cpp:2714-2733)."""
        px = np.atleast_1d(np.asarray(px, dtype=np.float64))
        py = np.atleast_1d(np.asarray(py, dtype=np.float64))
        return self.query_boxes(px, py, px, py)
