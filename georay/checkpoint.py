"""Per-partition lineage + resumable output (BASELINE north rule; the
generalization of gdal2tiles ``--resume``'s skip-existing-file check,
osgeo_utils/gdal2tiles.py:2880-2883, 1537-1540).

Layout::

    out_dir/
      part-<key>.parquet          one file per partition key (atomic rename)
      _manifest/<key>.json        lineage record, committed AFTER the data

A partition is "committed" iff its manifest record exists — the data file
is written to a temp name and renamed first, so a crash between the two
leaves a re-doable partition, never a half-read one.  Resume = anti-join
planned partition keys against :func:`committed_keys` (drop finished work
before the expensive stages run).
"""

from __future__ import annotations

import json
import os
import time

import pyarrow as pa
import pyarrow.parquet as pq

from .util import staged

__all__ = ["PartitionedWriter", "committed_keys", "load_manifest",
           "write_partitioned", "resume_filter"]


def _manifest_dir(out_dir: str) -> str:
    return os.path.join(out_dir, "_manifest")


def committed_keys(out_dir: str) -> set:
    mdir = _manifest_dir(out_dir)
    if not os.path.isdir(mdir):
        return set()
    return {f[:-5] for f in os.listdir(mdir) if f.endswith(".json")}


def load_manifest(out_dir: str) -> dict:
    """key → lineage record."""
    out = {}
    mdir = _manifest_dir(out_dir)
    if not os.path.isdir(mdir):
        return out
    for f in os.listdir(mdir):
        if f.endswith(".json"):
            with open(os.path.join(mdir, f)) as fh:
                out[f[:-5]] = json.load(fh)
    return out


class PartitionedWriter:
    """``map_groups`` callable: writes one partition atomically and emits
    its lineage record (partition key, row count, byte size, input fragment
    ids if a ``fragment`` column exists, and key ranges for lineage
    columns).  Skips partitions already committed (resume)."""

    def __init__(self, out_dir: str, key_cols, lineage_cols=()):
        self.out_dir = out_dir
        self.key_cols = list(key_cols)
        self.lineage_cols = list(lineage_cols)
        os.makedirs(_manifest_dir(out_dir), exist_ok=True)

    def _key(self, group: pa.Table) -> str:
        return "_".join(str(group[c][0].as_py()) for c in self.key_cols)

    def __call__(self, group: pa.Table) -> pa.Table:
        key = self._key(group)
        mpath = os.path.join(_manifest_dir(self.out_dir), f"{key}.json")
        status = "skipped"
        if not os.path.exists(mpath):
            data_path = os.path.join(self.out_dir, f"part-{key}.parquet")
            with staged(data_path) as tmp:
                pq.write_table(group, tmp)
            record = {
                "partition_key": key,
                "row_count": group.num_rows,
                "bytes": os.path.getsize(data_path),
                "committed_at": time.time(),
                "key_ranges": {
                    c: [str(min(group[c].to_pylist())),
                        str(max(group[c].to_pylist()))]
                    for c in self.lineage_cols if c in group.schema.names},
            }
            with staged(mpath) as tmp, open(tmp, "w") as fh:
                json.dump(record, fh)
            status = "written"
        return pa.table({
            "partition_key": pa.array([key], pa.string()),
            "rows": pa.array([group.num_rows], pa.int64()),
            "status": pa.array([status], pa.string()),
        })


def write_partitioned(ds, out_dir: str, key_cols, lineage_cols=()):
    """Shuffle rows to their partition and write each atomically with a
    lineage record.  Returns the small per-partition status Dataset (consume
    it to drive the write)."""
    writer = PartitionedWriter(out_dir, key_cols, lineage_cols)

    def write_group(group: pa.Table) -> pa.Table:  # map_groups needs __name__
        return writer(group)

    return ds.groupby(list(key_cols)).map_groups(write_group,
                                                 batch_format="pyarrow")


def resume_filter(ds, out_dir: str, key_cols):
    """Drop rows whose partition is already committed — the anti-join of
    planned vs committed partitions, pushed down as a vectorized
    ``map_batches`` filter (broadcast of the committed key set)."""
    done = committed_keys(out_dir)
    if not done:
        return ds
    key_cols = list(key_cols)

    def drop_done(batch: pa.Table) -> pa.Table:
        import numpy as np
        cols = [batch[c].to_pylist() for c in key_cols]
        keys = ["_".join(str(v) for v in row) for row in zip(*cols)]
        mask = np.array([k not in done for k in keys])
        return batch.filter(pa.array(mask))

    return ds.map_batches(drop_done, batch_format="pyarrow")
