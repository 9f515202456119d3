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

from .util import list_parts, read_units, write_parts

__all__ = ["write_arrow_ipc", "read_arrow_ipc", "read_arrow_ipc_table"]

_EXTS = (".arrow", ".feather", ".ipc")


def _encode(table: pa.Table, path: str) -> None:
    with pipc.new_file(path, table.schema) as w:
        w.write_table(table)


def write_arrow_ipc(ds_or_table, path: str) -> str:
    """Dataset → ``path``/part-*.arrow (one per block); table → one
    file at ``path``."""
    return write_parts(ds_or_table, path, "arrow", _encode)


def _ipc_units(path: str, batches_per_task: int) -> list[dict]:
    """One unit per (file, batch range), planned from the footers."""
    units = []
    for p in list_parts(path, _EXTS):
        with pa.memory_map(p) as mm:
            n = pipc.RecordBatchFileReader(mm).num_record_batches
        units += [{"path": p, "start": a,
                   "stop": min(a + batches_per_task, n)}
                  for a in range(0, max(n, 1), batches_per_task)]
    return units


def _ipc_batches(unit: dict, columns=None) -> pa.Table:
    """One unit's batch range, memory-mapped (an empty range keeps the
    file's schema)."""
    with pa.memory_map(unit["path"]) as mm:
        r = pipc.RecordBatchFileReader(mm)
        t = pa.Table.from_batches(
            [r.get_batch(j) for j in range(
                unit["start"], min(unit["stop"], r.num_record_batches))],
            schema=r.schema)
    return t.select(columns) if columns else t


def read_arrow_ipc(path: str, *, columns=None,
                   batches_per_task: int = 16):
    """Arrow IPC file(s) → ``ray.data.Dataset``: the footer's batch
    index makes (file, batch range) the scan unit — each task memory-
    maps its file and materializes ONLY its batch range (+ projected
    columns), so a single large file still reads wide."""
    return read_units(_ipc_units(path, batches_per_task), _ipc_batches,
                      columns=columns)


def read_arrow_ipc_table(path: str, *, columns=None) -> pa.Table:
    """Driver-side read (small layers)."""
    return pa.concat_tables([_ipc_batches(u, columns)
                             for u in _ipc_units(path, 16)])
