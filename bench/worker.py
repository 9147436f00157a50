"""Run one workload in a fresh interpreter and print one JSON line.

Started by run.py, which also times its set-up.  The loop is closed with a
single client: one op at a time, the next only after the previous one
returns.  Passes over the workload's ops repeat until the time is up; the
last pass always completes.  In traced mode passes alternate untraced and
traced, so the tracing overhead is measured within the run.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
import uuid
from collections import Counter, defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _blas_threads():
    """Threads the OpenBLAS bundled with numpy will use, if it says."""
    import numpy

    libdir = Path(numpy.__file__).parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libdir / "*openblas*"))):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return fn()
    return None


def _environment(args, ops) -> dict:
    import numpy
    import scipy

    specs = "\n".join(op.spec for op in ops).encode()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": _blas_threads(),
        "workload": args.workload,
        "seed": args.seed,
        "tiny": args.tiny,
        "inputs_sha256": hashlib.sha256(specs).hexdigest(),
    }


def _run_op(op, tracer, check_failed):
    start = time.perf_counter()
    status, error = "ok", None
    with tracer.span("op." + op.name):
        try:
            op.run(tracer)
        except check_failed as exc:
            status, error = "wrong", f"CheckFailed: {exc}"
        except Exception as exc:  # one op's failure must not end the run
            error = type(exc).__name__
            if op.known_defect is not None and isinstance(exc, op.known_defect):
                status = "known_defect"
            else:
                status = "error"
                traceback.print_exc(file=sys.stderr)
    return time.perf_counter() - start, status, error


def _p99(values):
    return statistics.quantiles(values, n=100, method="inclusive")[98]


def _layers(tracer, traced_walls, untraced_walls, cli_commands) -> dict:
    n = len(traced_walls)
    out: dict[str, float] = {}
    for name, (calls, busy) in tracer.self_times().items():
        out[name + ".calls"] = calls / n
        out[name + ".busy_s"] = busy / n
    for name, value in tracer.counters.items():
        out[name] = value / n
    out.update(tracer.maxima)
    if out.get("scalars.calls"):
        out["scalars.terms_out_mean"] = (
            out.get("scalars.terms_out", 0.0) / out["scalars.calls"])
    for cmd in cli_commands:
        durations = tracer.durations("cli." + cmd)
        if durations:
            out[f"cli.{cmd}_s"] = statistics.median(durations)
    out["trace.overhead_frac"] = (
        statistics.median(traced_walls) / statistics.median(untraced_walls) - 1.0)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    # set-up: everything from here to `ready` is what setup_s measures
    import qdeform  # the import is part of set-up
    import workloads

    if HERE.parent / "src" not in Path(qdeform.__file__).resolve().parents:
        print(f"qdeform imported from {qdeform.__file__}, not ./src", file=sys.stderr)
        return 2
    from tracing import Tracer

    ops, rng = workloads.build(args.workload, args.seed, args.tiny)
    ready = _now()
    if args.setup_only:
        print(json.dumps({"ready_at": ready}))
        return 0

    env = _environment(args, ops)
    tracer = Tracer(uuid.uuid4().hex)
    # a traced run needs one pass of each kind; cli-tour compares every
    # command's output with its first call
    min_passes = 2 if args.trace or args.workload == "cli-tour" else 1
    deadline = _now() + args.seconds
    walls = {False: [], True: []}       # pass wall times, by traced flag
    pass_ops: list[list[float]] = []    # op latencies, untraced passes only
    by_name = defaultdict(list)
    group_pass = defaultdict(list)
    status_count: Counter = Counter()
    failures: dict[str, Counter] = defaultdict(Counter)
    passes = 0
    while passes < min_passes or _now() < deadline:
        traced = bool(args.trace) and passes % 2 == 1
        tracer.enabled = traced
        order = list(ops)
        if args.workload in workloads.SHUFFLED:
            rng.shuffle(order)
        per_group = defaultdict(float)
        latencies = []
        start = _now()
        for op in order:
            seconds, status, error = _run_op(op, tracer, workloads.CheckFailed)
            status_count[status] += 1
            if error is not None:
                failures[op.name][error] += 1
            if not traced:
                latencies.append(seconds)
                by_name[op.name].append(seconds)
                per_group[op.group] += seconds
        walls[traced].append(_now() - start)
        if not traced:
            pass_ops.append(latencies)
            for group, seconds in per_group.items():
                group_pass[group].append(seconds)
        passes += 1
    tracer.enabled = False

    untraced = walls[False]
    attempted = sum(status_count.values())
    rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                 resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    values = {
        "wall_s": statistics.fmean(untraced),
        "ok_frac": status_count["ok"] / attempted,
        "peak_rss_mb": rss_kb / 1024.0,
        "ops_per_s": sum(map(len, pass_ops)) / sum(untraced),
        # latency quantiles are taken per pass, then the median over passes:
        # a workload with few ops per pass would otherwise report a value
        # that jumps between two ops, or one slow outlier
        "op_p50_ms": 1e3 * statistics.median(map(statistics.median, pass_ops)),
        "op_p99_ms": 1e3 * statistics.median(map(_p99, pass_ops)),
    }
    result = {
        "ready_at": ready,
        "env": env,
        "attempted": attempted,
        "failed": attempted - status_count["ok"],
        "correct": status_count["wrong"] == 0 and status_count["error"] == 0,
        "statuses": dict(status_count),
        "failures": {name: dict(c) for name, c in sorted(failures.items())},
        "passes": {"untraced": len(untraced), "traced": len(walls[True])},
        "pass_walls_s": walls[False],
        "op_samples": sum(map(len, pass_ops)),
        "values": values,
        "groups_s": {g: statistics.median(v) for g, v in sorted(group_pass.items())},
        "ops_s": {n: statistics.median(v) for n, v in sorted(by_name.items())},
    }
    if args.trace:
        result["layers"] = _layers(tracer, walls[True], untraced,
                                   workloads.CLI_COMMANDS)
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        span_file = out_dir / f"spans-{args.workload}-seed{args.seed}.json"
        tracer.write(span_file)
        result["span_file"] = str(span_file.relative_to(HERE.parent))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
