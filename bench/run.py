"""Benchmark of astra_nav: closed-loop navigation, planner learning and map building.

Run from the root of a checkout:

    python3 bench/run.py --workload nav-oracle --seed 1 --seconds 10 --trace 0

Workloads: nav-oracle, nav-model, learn, mapgen (see workloads.py). Each run
sets the workload up several times and reports the median as ``setup_s``,
then repeats rounds of the workload for at least ``--seconds``: as many as
that takes at the first round's time.

``--trace 0`` prints the end-to-end metrics, measured with tracing off:
``setup_s``, ``ops_per_s``, ``task_success_rate`` and ``peak_rss_mb``, the
same names on every workload. ``--trace 1`` traces one set-up, runs
untraced rounds for half the time, then traces one round; it prints the
per-layer metrics of the traced round and set-up, the workload's stage rates
and task outcomes from its untraced rounds, and the tracing overhead.
``--smoke`` runs the workload at a tiny size, for the benchmark's own tests.

Standard output holds a detail line ``{"detail": {...}}`` with the
environment, the per-round records and the ungated task detail, and, as
the last line, the result ``{"correct", "attempted", "failed", "metrics"}``.
A failed output check still prints the result, with ``correct`` false, and
exits 1. The library is imported from ``src/`` of the checkout; without it
the benchmark exits with an error before measuring anything.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import math
import os
import platform
import resource
import statistics
import sys
import time

from tracing import Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
# One caller in a closed loop: BLAS gets one thread, which also keeps the
# floating-point summation order, and so the task metrics, fixed.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny sizes, for the benchmark's tests")
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return p, args


def load_workloads():
    """Import the benchmark's workloads against the checkout's own library."""
    if not os.path.isfile(os.path.join(SRC, "astra_nav", "__init__.py")):
        sys.exit(f"bench: no library at {SRC}; run from a full checkout")
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, SRC)
    import astra_nav
    import workloads

    if os.path.dirname(os.path.dirname(os.path.abspath(astra_nav.__file__))) != SRC:
        sys.exit(f"bench: imported astra_nav from {astra_nav.__file__}, not from {SRC}")
    return workloads


def _blas_threads():
    """Threads the loaded OpenBLAS reports, or None where it cannot be asked."""
    import numpy as np

    pattern = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(pattern):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _commit() -> str:
    """The checkout's commit, read from .git without running git; 'unknown'
    in a tree that is not a git repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (KeyError, TypeError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "platform": platform.platform(),
        "commit": _commit(),
        "seed": seed,
    }


def peak_rss_mb() -> float:
    """The process's peak resident set size so far, in 10^6 bytes."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
    return kib * 1024 / 1e6


def run_rounds(workload, state, seconds: float, clock) -> list:
    """Enough rounds to fill ``seconds`` at the first round's time."""
    rounds = [settle(workload.run_round(state), clock)]
    count = math.ceil(seconds / clock.wall(*rounds[0].wall))
    while len(rounds) < count:
        rounds.append(settle(workload.run_round(state), clock))
    return rounds


def settle(r, clock):
    """Fill a round's times in reference seconds from its recorded intervals."""
    r.seconds = clock.reference_seconds(*r.wall)
    r.timings = {k: [clock.reference_seconds(*iv) for iv in v] for k, v in r.intervals.items()}
    return r


def _round_record(r, clock) -> dict:
    return {
        "seconds": r.seconds,
        "wall_seconds": clock.wall(*r.wall),
        "timings": r.timings,
        "attempted": r.attempted,
        "failed": r.failed,
        "output": r.output,
    }


def measure_end_to_end(wl, workload, sizes, seed: int, seconds: float, clock):
    setups, digests = [], set()
    for _ in range(sizes.setup_repeats):
        t0 = time.perf_counter()
        state = workload.setup(sizes, seed)
        setups.append((t0, time.perf_counter()))
        digests.add(workload.setup_digest(state))
    rounds = run_rounds(workload, state, seconds, clock)
    setup_s = [clock.reference_seconds(*iv) for iv in setups]
    problems = [p for r in rounds for p in r.problems]
    if len(digests) != 1:
        problems.append(f"{len(digests)} different set-ups from {sizes.setup_repeats} repeats")
    if len({r.output for r in rounds}) != 1:
        problems.append("rounds of one run computed different outputs")
    values = {"setup_s": statistics.median(setup_s)}
    detail = {
        "setup_seconds": setup_s,
        "setup_wall_seconds": [clock.wall(*iv) for iv in setups],
        "rounds": [_round_record(r, clock) for r in rounds],
        "task": workload.detail(state, rounds),
    }
    if not any(r.failed for r in rounds):
        values.update(wl.end_to_end(workload, rounds))
        detail["stages"] = workload.stages(state, rounds)
    values["peak_rss_mb"] = peak_rss_mb()
    return rounds, problems, {k: (v, wl.END_TO_END[k]) for k, v in values.items()}, detail


def measure_layers(wl, workload, sizes, seed: int, seconds: float, clock):
    tracer = Tracer()
    with wl.patch_layers(tracer):
        state = workload.setup(sizes, seed)
    round_start = len(tracer.spans)
    untraced = run_rounds(workload, state, seconds / 2, clock)
    with wl.patch_layers(tracer):
        traced = settle(workload.run_round(state), clock)
    rounds = untraced + [traced]
    problems = [p for r in rounds for p in r.problems]
    if len({r.output for r in rounds}) != 1:
        problems.append("traced and untraced rounds computed different outputs")
    metrics = wl.layer_metrics(tracer.spans, round_start, clock)
    stages = workload.stages(state, untraced) if not any(r.failed for r in rounds) else {}
    metrics.update({name: (stages.get(name, 0.0), unit) for name, unit in wl.STAGES.items()})
    base = statistics.median(r.seconds for r in untraced)
    metrics["trace.overhead_pct"] = ((traced.seconds / base - 1.0) * 100.0, "%")
    detail = {
        "rounds": [_round_record(r, clock) for r in untraced],
        "traced_round": _round_record(traced, clock),
        "spans": len(tracer.spans),
        "task": workload.detail(state, rounds),
    }
    if not any(r.failed for r in rounds):
        off = {**wl.end_to_end(workload, untraced), **stages}
        on = {**wl.end_to_end(workload, [traced]), **workload.stages(state, [traced])}
        detail["trace_overhead"] = {
            name: {"untraced": off[name], "traced": on[name], "difference": on[name] - off[name]}
            for name in off
        }
    return rounds, problems, metrics, detail


def main(argv=None) -> int:
    parser, args = parse_args(argv)
    wl = load_workloads()
    from clock import SpeedClock  # imports numpy, so after the BLAS thread pin

    if args.workload not in wl.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(wl.WORKLOADS)}")
    workload = wl.WORKLOADS[args.workload]
    sizes = wl.SMOKE if args.smoke else wl.FULL
    measure = measure_layers if args.trace else measure_end_to_end
    with SpeedClock() as clock:
        rounds, problems, metrics, detail = measure(wl, workload, sizes, args.seed, args.seconds, clock)
    correct = not problems and not any(r.failed for r in rounds)
    detail = {
        "workload": args.workload,
        "trace": args.trace,
        "smoke": args.smoke,
        "environment": environment(args.seed),
        "problems": problems,
        **detail,
    }
    print(json.dumps({"detail": detail}))
    result = {
        "correct": correct,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    for problem in problems:
        print(f"bench: check failed: {problem}", file=sys.stderr)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
