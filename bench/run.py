"""qdeform benchmark: time to certified verdicts, end to end and by layer.

Run from the repository root:

    python3 bench/run.py --workload exact-stream --seed 1 --seconds 20 --trace 0

Workloads: cli-tour, exact-bulk, exact-stream, float-certs (see
bench/README.md for why each exists).  The workload runs in a fresh
interpreter (bench/worker.py) against the sources in ./src.  Set-up, from
interpreter start to the first op, is timed on SETUP_SAMPLES fresh
interpreters and reported as their median.

The last line of standard output is the result,
{"correct", "attempted", "failed", "metrics"}, holding every end-to-end
metric of BENCHMARK.json with --trace 0 and every per-layer metric with
--trace 1.  The line before it is a detail record: run environment,
per-op and per-group medians, sample counts and the exception type of
every failed op.  A per-layer metric of a layer the workload never calls
is 0.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SETUP_SAMPLES = 4          # three set-up-only interpreters plus the worker's own
IMPORT_SAMPLES = 3
TIME_LIMIT_S = 170.0
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(RuntimeError):
    pass


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def child_env() -> dict:
    """Environment of every child: the checkout's sources, a fixed hash
    seed, and no more BLAS threads than this process may use."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    threads = str(len(os.sched_getaffinity(0)))
    for var in BLAS_VARS:
        env[var] = threads
    return env


def _run_json(cmd, env, deadline) -> tuple[float, dict]:
    """Run a child to completion; return its start time and last JSON line."""
    started = _now()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          timeout=max(1.0, deadline - started))
    if proc.returncode != 0:
        raise BenchError(f"{cmd[1]} exited with code {proc.returncode}")
    lines = proc.stdout.decode().strip().splitlines()
    if not lines:
        raise BenchError("worker printed nothing")
    return started, json.loads(lines[-1])


def _timed(cmd, env, deadline) -> float:
    started = _now()
    subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL, check=True,
                   timeout=max(1.0, deadline - started))
    return _now() - started


def run(args, spec) -> tuple[dict, dict]:
    if not (ROOT / "src" / "qdeform" / "__init__.py").is_file():
        raise BenchError(f"no qdeform sources under {ROOT / 'src'}")
    deadline = _now() + TIME_LIMIT_S
    env = child_env()
    base = [sys.executable, str(WORKER), "--workload", args.workload,
            "--seed", str(args.seed)] + (["--tiny"] if args.tiny else [])

    setup = []
    for _ in range(SETUP_SAMPLES - 1):
        started, probe = _run_json(base + ["--setup-only"], env, deadline)
        setup.append(probe["ready_at"] - started)
    started, res = _run_json(
        base + ["--seconds", str(args.seconds), "--trace", str(args.trace)],
        env, deadline)
    setup.append(res["ready_at"] - started)

    if args.trace:
        imports = [_timed([sys.executable, "-c", "import qdeform"], env, deadline)
                   for _ in range(IMPORT_SAMPLES)]
        values = dict(res["layers"])
        values["cli.import_s"] = statistics.median(imports)
        wanted = spec["per_layer"]
    else:
        values = dict(res["values"])
        values["setup_s"] = statistics.median(setup)
        wanted = spec["end_to_end"]

    metrics = {}
    for m in wanted:
        value = values.get(m["name"])
        if value is None:
            if args.trace:
                value = 0.0  # the workload never calls this layer
            else:
                raise BenchError(f"end-to-end metric {m['name']} not measured")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}

    detail = {k: res[k] for k in ("env", "statuses", "failures", "passes",
                                  "pass_walls_s", "op_samples", "groups_s",
                                  "ops_s")}
    detail["setup_samples_s"] = setup
    if "span_file" in res:
        detail["span_file"] = res["span_file"]
    result = {"correct": res["correct"], "attempted": res["attempted"],
              "failed": res["failed"], "metrics": metrics}
    return detail, result


def main(argv=None) -> int:
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        print(f"benchmark failed: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 1
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smallest sizes, for the smoke test")
    args = parser.parse_args(argv)
    try:
        detail, result = run(args, spec)
    except (BenchError, OSError, ValueError, KeyError,
            subprocess.SubprocessError) as exc:
        print(f"benchmark failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
