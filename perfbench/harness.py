"""Shared machinery of the benchmark: the Ray session, process isolation,
memory accounting, output digests, Dataset.stats() readout and the
in-process layer tracer.

Nothing here changes georay: the tracer times calls into georay's public
functions by swapping module/class attributes for timing wrappers while a
replay runs, and restores them afterwards.
"""

from __future__ import annotations

import hashlib
import os
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# AF_UNIX socket paths are capped at 107 bytes; Ray puts
# "<temp>/session_<date>_<pid>/sockets/plasma_store" under its temp dir,
# which leaves about 40 bytes for the temp dir itself.
_MAX_RAY_TMP = 40


def nproc() -> int:
    """What coreutils ``nproc`` prints: the CPUs this process may run on,
    overridden by OMP_NUM_THREADS and capped by OMP_THREAD_LIMIT."""
    n = len(os.sched_getaffinity(0))
    for var, cap in (("OMP_NUM_THREADS", False), ("OMP_THREAD_LIMIT", True)):
        first = os.environ.get(var, "").split(",")[0].strip()
        if first.isdigit() and int(first) > 0:
            n = min(n, int(first)) if cap else int(first)
    return n


def ray_tmp_dir(work: str) -> str | None:
    """Ray's session dir inside the checkout when its socket paths fit;
    otherwise None (Ray's own default temp dir)."""
    path = os.path.join(work, "ray")
    return path if len(path) <= _MAX_RAY_TMP else None


def ray_start(work: str, num_cpus: int) -> None:
    """Start a fresh local Ray session with ``num_cpus`` CPUs."""
    import logging

    import ray

    from georay.util import tune_malloc
    # as scripts/run_flagship.py does: keep large buffers in malloc's arena
    # (fresh mmap pages fault slowly on VMs); the env part reaches workers
    tune_malloc()
    env_path = os.environ.get("PYTHONPATH", "")
    if ROOT not in env_path.split(os.pathsep):
        # workers are spawned by the raylet and import georay by name
        os.environ["PYTHONPATH"] = os.pathsep.join(
            p for p in (ROOT, env_path) if p)
    kwargs = dict(address="local", num_cpus=num_cpus,
                  object_store_memory=512 << 20, include_dashboard=False,
                  logging_level="ERROR", log_to_driver=False)
    tmp = ray_tmp_dir(work)
    if tmp:
        os.makedirs(tmp, exist_ok=True)
        kwargs["_temp_dir"] = tmp
    ray.init(**kwargs)
    from ray.data import DataContext
    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.print_on_execution_start = False
    logging.getLogger("ray.data").setLevel(logging.ERROR)


def ray_stop() -> None:
    import ray
    if ray.is_initialized():
        ray.shutdown()


def wait_cpus_free(num_cpus: int, timeout_s: float = 30.0) -> bool:
    """Block until every CPU of the session is free again (an actor pool
    left behind by an earlier Dataset can hold one).  False on timeout."""
    import ray
    deadline = time.monotonic() + timeout_s
    while True:
        if ray.available_resources().get("CPU", 0.0) >= num_cpus:
            return True
        if time.monotonic() > deadline:
            return False
        time.sleep(0.05)


def cpu_times() -> tuple:
    """(busy, steal) seconds summed over the VM's CPUs, from /proc/stat:
    busy = user + nice + system + irq + softirq; steal = time the
    hypervisor ran another guest while a CPU of this VM had work."""
    with open("/proc/stat") as f:
        v = [int(x) for x in f.readline().split()[1:9]]
    hz = os.sysconf("SC_CLK_TCK")
    return (v[0] + v[1] + v[2] + v[5] + v[6]) / hz, v[7] / hz


def unstolen_share(before: tuple, after: tuple) -> float:
    """Share of the interval between two :func:`cpu_times` readings in
    which the VM's busy CPUs really ran: busy / (busy + steal).  Wall time
    times this share is the wall time without the hypervisor's steal,
    which comes from other guests on a shared host, not from the program;
    1.0 where the kernel reports no steal."""
    busy, steal = after[0] - before[0], after[1] - before[1]
    return busy / (busy + steal) if busy > 0 and steal > 0 else 1.0


def _children() -> dict:
    kids: dict = {}
    for pid in os.listdir("/proc"):
        if not pid.isdigit():
            continue
        try:
            with open(f"/proc/{pid}/stat", "rb") as f:
                stat = f.read()
        except OSError:
            continue
        # the comm field may hold spaces; ppid is the 2nd field after ")"
        ppid = int(stat[stat.rindex(b")") + 2:].split()[1])
        kids.setdefault(ppid, []).append(int(pid))
    return kids


def _vm_hwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _is_worker(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as f:
            cmd = f.read()
    except OSError:
        return False
    return cmd.startswith(b"ray::") or b"default_worker.py" in cmd


def peak_rss_mb() -> float:
    """Summed peak RSS (VmHWM) of this driver and the Ray workers it
    spawned (descendants only, so other sessions on the host are not
    counted; Ray's own daemons are not workers and are left out)."""
    kids = _children()
    total = _vm_hwm_kb(os.getpid())
    stack = list(kids.get(os.getpid(), []))
    while stack:
        pid = stack.pop()
        stack.extend(kids.get(pid, []))
        if _is_worker(pid):
            total += _vm_hwm_kb(pid)
    return total / 1024.0


def digest_rows(table, cols) -> str:
    """Order-insensitive digest of ``table``'s rows over ``cols``: sha256
    of the columns after sorting the rows, with each null marked apart
    from its value."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc
    t = table.select(list(cols))
    t = t.take(pc.sort_indices(t, [(c, "ascending") for c in cols]))
    h = hashlib.sha256()
    for c in cols:
        col = t[c].combine_chunks()
        h.update(col.is_null().to_numpy(zero_copy_only=False).tobytes())
        if pa.types.is_string(col.type) or pa.types.is_large_string(col.type):
            h.update("\0".join(col.fill_null("").to_pylist()).encode())
        else:
            kind = np.int64 if pa.types.is_integer(col.type) else np.float64
            h.update(np.asarray(col.fill_null(0).to_numpy(),
                                dtype=kind).tobytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Dataset.stats() readout
# ---------------------------------------------------------------------------

OP_CATEGORIES = ("read", "map", "shuffle", "write")


def _category(name: str) -> str:
    low = name.lower()
    if "write" in low:
        return "write"
    if any(s in low for s in ("sort", "aggregate", "shuffle", "repartition",
                              "union", "zip")):
        return "shuffle"
    if any(s in low for s in ("read", "fromarrow", "fromitems", "input")):
        return "read"
    return "map"


def dataset_ops(ds) -> list:
    """One dict per executed operator of ``ds`` and its parents:
    name, remote seconds (sum of per-block wall time), rows and bytes
    out, and rows received."""
    out = []
    seen = set()

    def walk(s):
        for p in s.parents:
            walk(p)
        if id(s) in seen:
            return
        seen.add(id(s))
        rows_in = (s.extra_metrics or {}).get("num_row_inputs_received", 0)
        for op in s.operators_stats:
            out.append({
                "name": op.operator_name,
                "remote_s": float((op.wall_time or {}).get("sum", 0.0)),
                "rows_out": int((op.output_num_rows or {}).get("sum", 0)),
                "bytes_out": int((op.output_size_bytes or {}).get("sum", 0)),
                "rows_in": int(rows_in or 0),
            })

    walk(ds._get_stats_summary())
    return out


class RayOps:
    """Accumulates operator stats over several executions."""

    def __init__(self, num_cpus: int):
        self.num_cpus = num_cpus
        self.ops: list = []
        self.wall_s = 0.0

    def add(self, ds, wall_s: float) -> list:
        ops = dataset_ops(ds)
        self.ops.extend(ops)
        self.wall_s += wall_s
        return ops

    def metrics(self) -> dict:
        m = {}
        for cat in OP_CATEGORIES:
            sel = [o for o in self.ops if _category(o["name"]) == cat]
            m[f"ray.op.{cat}.remote_s"] = sum(o["remote_s"] for o in sel)
            m[f"ray.op.{cat}.rows_out"] = sum(o["rows_out"] for o in sel)
            m[f"ray.op.{cat}.bytes_out"] = sum(o["bytes_out"] for o in sel)
        busy = sum(o["remote_s"] for o in self.ops)
        m["ray.idle_frac"] = (1.0 - busy / (self.wall_s * self.num_cpus)
                              if self.wall_s else 0.0)
        return m


# ---------------------------------------------------------------------------
# In-process layer tracer
# ---------------------------------------------------------------------------

class Span:
    __slots__ = ("calls", "ns", "units")

    def __init__(self):
        self.calls = 0
        self.ns = 0
        self.units = 0

    @property
    def ms(self) -> float:
        return self.ns / 1e6


class Tracer:
    """Times calls into georay functions during an in-process replay.

    ``patch(owner, attr, name, units)`` replaces ``owner.attr`` with a
    wrapper that adds the call's wall time to span ``name``; ``units``
    maps ``(args, result)`` to a work count (images, points, rows).
    ``key`` optionally derives a sub-span name from ``(args, result)``;
    ``counts`` maps ``(args, result)`` to extra ``{span: count}`` tallies.
    Originals are restored by :meth:`close` (use the tracer as a context
    manager)."""

    def __init__(self):
        self.spans: dict = {}
        self._undo: list = []

    def span(self, name: str) -> Span:
        s = self.spans.get(name)
        if s is None:
            s = self.spans[name] = Span()
        return s

    def patch(self, owner, attr: str, name: str, units=None, key=None,
              counts=None):
        orig = getattr(owner, attr)
        tracer = self

        def timed(*args, **kwargs):
            t0 = time.perf_counter_ns()
            res = orig(*args, **kwargs)
            dt = time.perf_counter_ns() - t0
            n = units(args, res) if units else 1
            for nm in ((name, f"{name}.{key(args, res)}") if key
                       else (name,)):
                s = tracer.span(nm)
                s.calls += 1
                s.ns += dt
                s.units += n
            if counts:
                for nm, c in counts(args, res).items():
                    tracer.span(nm).units += int(c)
            return res

        self._undo.append((owner, attr, orig))
        setattr(owner, attr, timed)

    def close(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
