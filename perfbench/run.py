"""Benchmark entry point: one workload per process, one Ray session.

    python3 perfbench/run.py --workload flagship_lance --seed 1 \\
        --seconds 15 --trace 0

With ``--trace 0`` the workload runs as a closed loop (one client, one job
at a time) for ``--seconds`` and reports the end-to-end metrics; with
``--trace 1`` it runs one job with Dataset.stats() readout plus a traced
in-process replay, and reports the per-layer metrics.  Human-readable lines
go first; the last stdout line is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}``.
Timed figures leave out the CPU time the hypervisor gave to other guests
(``harness.unstolen_share``); plain wall figures are printed next to them.
See perfbench/README.md for the workloads and the layer -> end-to-end map.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(1, os.path.dirname(HERE))

SETUP_REPS = 3           # set-up runs per process; setup_s is their median
CPU_WAIT_S = 30.0        # bounded wait for every CPU to be free

# (name, unit): printed by every --trace 0 run
END_TO_END = (
    ("setup_s", "s"),
    ("items_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)

# workload -> (name, unit) of its own metrics; printed as human-readable
# lines next to END_TO_END (over all of the run's jobs)
NAMED = {
    "flagship_lance": (("images_per_s", "images/s"),),
    "job_parquet_resume": (("images_per_s", "images/s"),
                           ("resume_s", "s")),
    "vector_skewed": (("join_points_per_s", "points/s"),),
}
# the same, for metrics that only the trace run measures
TRACE_NAMED = {"vector_skewed": (("knn_queries_per_s", "queries/s"),)}


def _layers():
    """(name, unit, end-to-end metric it should move) for every per-layer
    metric; printed by every --trace 1 run (0 where a workload does not
    reach the layer)."""
    from workloads import DECODE_CLASSES
    flag = "flagship_lance.items_per_s"
    job = "job_parquet_resume.items_per_s"
    vec = "vector_skewed.items_per_s"
    rows = [
        ("lancefmt.read_fragment.ms_per_unit", "ms", flag),
        ("lancefmt.bytes_per_img", "B", flag),
        ("codecs.decode_image.calls", "count",
         flag + " (0 on job_parquet_resume)"),
        ("codecs.decode_image.ms_per_img", "ms", flag),
    ]
    rows += [(f"codecs.decode_image.ms_per_img.{c}", "ms", flag)
             for c in DECODE_CLASSES]
    rows += [
        ("codecs.phash64.ms_per_img", "ms", flag),
        ("pipelines.FlagshipStage.ms_per_img", "ms", flag),
        ("pipelines.cut.ms_per_img", "ms",
         flag + " (stage minus its timed parts)"),
        ("pipelines.frags_per_img", "count", flag),
        ("flagship.share.decode", "frac", flag),
        ("flagship.share.cut", "frac", flag),
        ("flagship.share.phash", "frac", flag),
        ("flagship.share.georef_cells_join", "frac", flag),
        ("decode.add_georef.us_per_img", "us", job),
        ("decode.add_cells.us_per_img", "us", job),
        ("join.match_points.us_per_point", "us", job),
        ("rtree.candidates_per_point", "count", job + ", " + vec),
        ("join.pip_hit_ratio", "frac", job + ", " + vec),
        ("tiles.assign_center_tile.us_per_row", "us", job),
        ("checkpoint.writer.ms_per_partition", "ms", job),
        ("checkpoint.bytes_written_per_row", "B", job),
        ("checkpoint.partitions_written", "count", job),
        ("checkpoint.resume_filter_s", "s",
         "job_parquet_resume.items_per_s (resume pass)"),
        ("checkpoint.resume_redo_frac", "frac",
         "job_parquet_resume.items_per_s (resume pass)"),
        ("join.cell_census_s", "s", vec),
        ("join.census_cells", "count", vec),
        ("join.salt_fanout", "ratio", vec),
        ("join.bucket_skew", "ratio", vec),
    ]
    for cat in ("read", "map", "shuffle", "write"):
        rows += [(f"ray.op.{cat}.remote_s", "s", "every items_per_s"),
                 (f"ray.op.{cat}.rows_out", "count", "every items_per_s"),
                 (f"ray.op.{cat}.bytes_out", "B", "every items_per_s")]
    rows += [("ray.idle_frac", "frac", "every items_per_s"),
             ("trace.overhead_frac", "frac", "none (measurement cost)")]
    return rows


def _closed_loop(wl, seconds: float, num_cpus: int):
    """Run jobs back to back for ``seconds``; a job that raises, fails its
    output check or cannot get every CPU counts as failed."""
    from harness import cpu_times, unstolen_share, wait_cpus_free
    times, rates, shares, extras, errors = [], [], [], [], []
    attempted = failed = 0
    t_end = time.perf_counter() + seconds
    while True:
        attempted += 1
        if not wait_cpus_free(num_cpus, CPU_WAIT_S):
            bad = ["CPUs still held by an earlier job"]
        else:
            try:
                c0 = cpu_times()
                dt, rate, bad, extra = wl.job()
                share = unstolen_share(c0, cpu_times())
            except Exception:
                traceback.print_exc()
                bad = ["job raised"]
            else:
                times.append(dt)
                rates.append(rate)
                shares.append(share)
                extras.append(extra)
        failed += bool(bad)
        errors.extend(bad)
        if time.perf_counter() >= t_end:
            break
    return attempted, failed, times, rates, shares, extras, errors


def run(args, work: str) -> tuple:
    from harness import (RayOps, cpu_times, nproc, peak_rss_mb, ray_start,
                         ray_stop, unstolen_share)
    from workloads import WORKLOADS
    num_cpus = nproc()
    wl = WORKLOADS[args.workload](args.seed, work, tiny=args.tiny)
    setup, setup_shares = [], []
    for rep in range(SETUP_REPS):
        ray_stop()
        c0 = cpu_times()
        t0 = time.perf_counter()
        ray_start(work, num_cpus)
        wl.setup(rep)
        setup.append(time.perf_counter() - t0)
        setup_shares.append(unstolen_share(c0, cpu_times()))
    wl.reference()
    lines = [f"workload {args.workload} seed {args.seed} "
             f"fixture_offset {wl.start} num_cpus {num_cpus} "
             f"nproc {nproc()}",
             f"inputs_digest {wl.inputs_digest()}"]
    if args.trace:
        from harness import wait_cpus_free
        ops = RayOps(num_cpus)
        errors = [] if wait_cpus_free(num_cpus, CPU_WAIT_S) else [
            "CPUs still held by an earlier job"]
        try:
            layer, bad = wl.trace(ops)
        except Exception:
            traceback.print_exc()
            layer, bad = {}, ["trace run raised"]
        errors += bad
        layer.update(ops.metrics())
        metrics = {}
        for name, unit in TRACE_NAMED.get(args.workload, ()):
            lines.append(f"metric {name} {layer.get(name, 0.0):.6g} {unit}")
        for name, unit, moves in _layers():
            value = float(layer.get(name, 0.0))
            metrics[name] = {"value": value, "unit": unit}
            lines.append(f"layer {name} {value:.6g} {unit} -> {moves}")
        # the operators behind the ray.op.<category> sums, by Ray's names
        for o in ops.ops:
            lines.append(f"op {o['name']} remote_s {o['remote_s']:.4f} "
                         f"rows_out {o['rows_out']} "
                         f"bytes_out {o['bytes_out']}")
        attempted, failed = 1, int(bool(errors))
    else:
        (attempted, failed, times, rates, shares, extras,
         errors) = _closed_loop(wl, args.seconds, num_cpus)
        peak_mb = peak_rss_mb()          # of the closed loop's jobs
        # times are wall times without the hypervisor's steal (see
        # harness.unstolen_share); the plain wall figures are printed too.
        # Every job does the same work, so the harmonic mean of the job
        # rates is the run's items done / their seconds.
        values = {
            "setup_s": statistics.median(
                t * u for t, u in zip(setup, setup_shares)),
            "items_per_s": statistics.harmonic_mean(
                [r / u for r, u in zip(rates, shares)]) if rates else 0.0,
            "peak_rss_mb": peak_mb,
        }
        metrics = {n: {"value": values[n], "unit": u} for n, u in END_TO_END}
        for name, unit in END_TO_END:
            lines.append(f"metric {name} {values[name]:.6g} {unit}")
        for name, unit in NAMED[args.workload]:
            # without steal and over the whole run, as items_per_s
            if unit == "s":
                got = [e[name] * u for e, u in zip(extras, shares)]
                value = statistics.mean(got) if got else None
            else:
                got = [e[name] / u for e, u in zip(extras, shares)]
                value = statistics.harmonic_mean(got) if got else None
            if value is not None:
                lines.append(f"metric {name} {value:.6g} {unit}")
        lines.append(f"metric error_rate {failed / attempted:.6g} "
                     f"failed/attempted ({failed}/{attempted}, "
                     f"{len(times)} jobs timed)")
        if rates:
            lines.append(f"metric items_per_wall_s "
                         f"{statistics.harmonic_mean(rates):.6g} 1/s "
                         f"(steal kept)")
        lines.append("setup_runs_s " + " ".join(f"{t:.3f}" for t in setup))
        lines.append("setup_unstolen_share " + " ".join(
            f"{u:.3f}" for u in setup_shares))
        lines.append("job_runs_s " + " ".join(f"{t:.3f}" for t in times))
        lines.append("job_unstolen_share " + " ".join(
            f"{u:.3f}" for u in shares))
    for e in errors:
        lines.append(f"check_failed {e}")
    lines.append(f"correctness {'pass' if not errors else 'FAIL'}")
    return lines, {"correct": not errors, "attempted": attempted,
                   "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=tuple(NAMED))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="tiny inputs (the self-test's size)")
    args = ap.parse_args(argv)
    # set-up restarts Ray in this process; a Ray Data prefetch thread left
    # over from the previous session must not auto-start a session of its
    # own (read when ray is first imported)
    os.environ["RAY_ENABLE_AUTO_CONNECT"] = "0"
    try:
        import georay  # noqa: F401  (the program under test)
    except ImportError as e:
        print(f"cannot import georay: {e}", file=sys.stderr)
        return 2
    # SIGTERM unwinds like an exception, so the finally below still stops
    # Ray and removes the working files
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    from harness import ROOT, ray_stop
    work = os.path.join(ROOT, ".pbw", str(os.getpid()))
    os.makedirs(work, exist_ok=True)
    try:
        lines, result = run(args, work)
    finally:
        ray_stop()
        shutil.rmtree(work, ignore_errors=True)
    for line in lines:
        print(line)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
