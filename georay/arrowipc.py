"""Arrow IPC (Feather v2) vector driver: record-batch-parallel source +
one-file-per-block sink.

Reference scope: ogr/ogrsf_frmts/arrow/ (the reference reads/writes
Arrow IPC streams and files as first-class OGR layers); on the Ray side
the format is native, so the driver's job is purely the PARALLELISM
contract: the IPC *file* format has a footer with per-batch offsets, so
reads fan out one task per (file, batch range) with random access —
no full-file scan per task — and writes land one ``.arrow`` file per
block (task-parallel, atomic rename through ``util.write_parts``: each
call appends one file per block, and a retried task rewrites its own
files).
"""
from __future__ import annotations

import pyarrow as pa
import pyarrow.ipc as pipc

from .util import list_parts, write_parts

__all__ = ["write_arrow_ipc", "read_arrow_ipc", "read_arrow_ipc_table"]

_EXTS = (".arrow", ".feather", ".ipc")


def _encode(table: pa.Table, path: str) -> None:
    with pipc.new_file(path, table.schema) as w:
        w.write_table(table)


def write_arrow_ipc(ds_or_table, path: str) -> str:
    """Dataset → ``path``/part-*.arrow (one per block); table → one
    file at ``path``."""
    return write_parts(ds_or_table, path, "arrow", _encode)


def read_arrow_ipc(path: str, *, columns=None,
                   batches_per_task: int = 16):
    """Arrow IPC file(s) → ``ray.data.Dataset``: the footer's batch
    index makes (file, batch range) the scan unit — each task memory-
    maps its file and materializes ONLY its batch range (+ projected
    columns), so a single large file still reads wide."""
    import ray

    units = []
    for p in list_parts(path, _EXTS):
        with pa.memory_map(p) as mm:
            n = pipc.RecordBatchFileReader(mm).num_record_batches
        for a in range(0, max(n, 1), batches_per_task):
            units.append({"path": p, "start": a,
                          "stop": min(a + batches_per_task, n)})
    src = ray.data.from_items(units, override_num_blocks=max(1, len(units)))

    def load(batch: pa.Table) -> pa.Table:
        outs = []
        for i in range(batch.num_rows):
            p = batch["path"][i].as_py()
            a = int(batch["start"][i].as_py())
            b = int(batch["stop"][i].as_py())
            with pa.memory_map(p) as mm:
                r = pipc.RecordBatchFileReader(mm)
                tabs = [pa.Table.from_batches([r.get_batch(j)])
                        for j in range(a, min(b, r.num_record_batches))]
            if tabs:
                t = pa.concat_tables(tabs)
                outs.append(t.select(columns) if columns else t)
        if not outs:
            return pa.table({})
        return pa.concat_tables(outs)

    return src.map_batches(load, batch_format="pyarrow", batch_size=1)


def read_arrow_ipc_table(path: str, *, columns=None) -> pa.Table:
    """Driver-side read (small layers)."""
    tabs = []
    for p in list_parts(path, _EXTS):
        with pa.memory_map(p) as mm:
            t = pipc.RecordBatchFileReader(mm).read_all()
        tabs.append(t.select(columns) if columns else t)
    return pa.concat_tables(tabs)
