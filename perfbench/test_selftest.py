"""Self-test of the benchmark: every workload at a tiny size with two seeds.

    python3 -m pytest perfbench/test_selftest.py -q

Each run is its own process (as the benchmark is meant to be run), so this
takes a few minutes on one CPU.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from run import NAMED, TRACE_NAMED  # noqa: E402

WORKLOADS = ("flagship_lance", "job_parquet_resume", "vector_skewed")


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def _run(workload: str, seed: int, trace: int, cwd: str = ROOT):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace), "--tiny"],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=600)


def _result(proc):
    assert proc.returncode == 0, proc.stderr[-3000:]
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_tiny_two_seeds(workload):
    spec = _spec()
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    digests = []
    for seed in (1, 2):
        lines, res = _result(_run(workload, seed, 0))
        assert set(res) == {"correct", "attempted", "failed", "metrics"}
        assert res["correct"] is True and res["failed"] == 0
        assert res["attempted"] >= 1
        assert {k: v["unit"] for k, v in res["metrics"].items()} == e2e
        assert all(v["value"] > 0 for v in res["metrics"].values())
        assert "correctness pass" in lines
        printed = {ln.split()[1]: ln.split()[3] for ln in lines
                   if ln.startswith("metric ")}
        for name, unit in list(e2e.items()) + list(NAMED[workload]):
            assert printed.get(name) == unit.split()[0], name
        assert "error_rate" in printed
        digests += [ln for ln in lines if ln.startswith("inputs_digest")]
    # the seed changes the inputs, not the metric names
    assert len(digests) == 2 and digests[0] != digests[1]

    lines, res = _result(_run(workload, 3, 1))
    assert res["correct"] is True and res["failed"] == 0
    assert {k: v["unit"] for k, v in res["metrics"].items()} == layers
    printed = {ln.split()[1]: ln.split()[3] for ln in lines
               if ln.startswith("metric ")}
    for name, unit in TRACE_NAMED.get(workload, ()):
        assert printed.get(name) == unit, name


def test_fails_without_the_program(tmp_path):
    """Without georay next to it the benchmark exits non-zero and prints no
    result."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for p in _spec()["paths"]:
        shutil.copytree(os.path.join(ROOT, p), tmp_path / p,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("flagship_lance", 1, 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_unstolen_share():
    from harness import cpu_times, unstolen_share
    busy, steal = cpu_times()
    assert busy > 0 and steal >= 0
    # 3 s busy and 1 s stolen: the busy CPUs ran 3/4 of the time
    assert unstolen_share((10.0, 5.0), (13.0, 6.0)) == 0.75
    # no steal reported (or nothing ran): plain wall time
    assert unstolen_share((10.0, 5.0), (13.0, 5.0)) == 1.0
    assert unstolen_share((10.0, 5.0), (10.0, 5.0)) == 1.0
