"""Tests of the benchmark itself: every workload at smoke size, in both trace
modes, against the contract in BENCHMARK.json.

Run from the repository root:  python3 -m pytest -q bench
"""

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

from tracing import Tracer, latency_summary, tail_percentile

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(cwd, workload, trace, seconds="0.5"):
    cmd = [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", "3",
           "--seconds", seconds, "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def test_smoke_runs_meet_the_contract():
    for workload in WORKLOADS:
        for trace, spec_key in ((0, "end_to_end"), (1, "per_layer")):
            proc = run_bench(ROOT, workload, trace)
            assert proc.returncode == 0, proc.stderr
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
            assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
            units = {m["name"]: m["unit"] for m in SPEC[spec_key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == units, (workload, trace)
            environment = json.loads(lines[-2])["detail"]["environment"]
            assert environment["seed"] == 3 and environment["blas_threads"] in (1, None)


def test_fails_without_the_library(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_tracer_nests_spans_and_restores():
    class Owner:
        pass

    def inner(x):
        time.sleep(0.01)
        return x > 0

    def outer(x):
        time.sleep(0.01)
        return Owner.inner(x)

    Owner.inner, Owner.outer = staticmethod(inner), staticmethod(outer)
    tracer = Tracer()
    with tracer:
        tracer.patch(Owner, "inner", "inner", flag=bool)
        tracer.patch(Owner, "outer", "outer")
        Owner.outer(1)
        Owner.outer(-1)
        with pytest.raises(TypeError):
            Owner.outer(None)
    assert Owner.__dict__["inner"].__func__ is inner
    names = [s.name for s in tracer.spans]
    assert names == ["outer", "inner", "outer", "inner", "outer", "inner"]
    first_outer, first_inner = tracer.spans[0], tracer.spans[1]
    assert first_inner.parent == 0 and first_inner.trace_id == first_outer.trace_id == 0
    assert tracer.spans[3].trace_id == 2
    assert first_outer.self_s == pytest.approx(first_outer.duration - first_inner.duration)
    assert [tracer.spans[i].flag for i in (1, 3)] == [True, False]


def test_tail_percentile_keeps_ten_samples_beyond():
    assert tail_percentile(19) is None
    assert tail_percentile(20) == 50.0
    assert tail_percentile(60) == 75.0
    assert tail_percentile(1000) == 99.0
    summary = latency_summary([0.001] * 60)
    assert summary["samples"] == 60 and summary["tail_pct"] == 75.0
    assert summary["p50"] == pytest.approx(1.0)
