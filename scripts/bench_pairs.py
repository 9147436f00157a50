#!/usr/bin/env python3
"""Run alternating parent/change pairs of bench/run.py and summarise them.

    python3 scripts/bench_pairs.py --parent REV [--first-seed 1] \\
        [--out BENCH_topic.json]

The parent is unpacked from `git archive REV` and the change is the working
tree's files that `git add -A` would commit, each into a temporary
directory, so nothing is written under .git.  Every workload of
BENCHMARK.json runs 10 pairs of its run_seconds each: pair i uses seed
first_seed + i on both trees, the parent first when i is even and the
change first when i is odd.

For every end-to-end metric of BENCHMARK.json the output holds each side's
median and quartiles over its runs that did not error
(statistics.quantiles, inclusive method), the pairs the change won (ties,
and pairs where either side errored, count for neither), the relative
change of the medians, and a verdict:

- "unresolved": the parent's interquartile range, relative to its median,
  exceeds the metric's bound, and not every change run reads better than
  every parent run;
- "gain": the change won at least 9 of the 10 pairs, the medians differ
  by more than the parent's interquartile range, and the change's
  operations fail no more often than the parent's (no more errored runs,
  ok_frac median not lower);
- "within bound": the change's median is not worse than the parent's by
  more than the bound, taken relative to the parent's median;
- "regression": otherwise.

Every run's values are kept under "runs", with the per-op medians of its
detail line (the line before the result) under "ops_s".  Those give a
summary per op under "ops": each side's median and quartiles over its runs
that did not error, the relative change of the medians, and a verdict,
"unresolved" when either side's interquartile range exceeds the change of
the medians and "resolved" otherwise.  They show which ops an end-to-end
change comes from, with the spread of ten runs per side.

Each workload then runs 2 more pairs with --trace 1, alternating which
side runs first as above, and their per-layer metrics are kept under
"layers": each side's median and the relative change of the medians, for
every layer that either side used (a layer a workload never calls reads 0
on both).  They point to the layer in which a change of the end-to-end
metrics arises; with one traced run per order the run-order bias cancels
in the medians.  They carry no verdict: two traced runs per side cannot
tell a layer's change from run-to-run noise, so the per-op verdicts of
the ten untraced runs per side under "ops" decide.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10
TRACE_PAIRS = 2
GAIN_WIN_SHARE = 0.9


def export(rev: str, dest: Path) -> Path:
    """Unpack `git archive rev` into dest and return it."""
    data = subprocess.run(["git", "archive", rev], cwd=ROOT, capture_output=True,
                          check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        tar.extractall(dest, filter="data")
    return dest


def export_worktree(dest: Path) -> Path:
    """Copy the tracked and unignored files of the working tree to dest."""
    listed = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        cwd=ROOT, capture_output=True, check=True).stdout
    for name in filter(None, listed.split(b"\0")):
        src = ROOT / os.fsdecode(name)
        if src.is_file():  # a tracked file deleted in the working tree is skipped
            target = dest / os.fsdecode(name)
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, target)
    return dest


def bench_once(tree: Path, workload: str, seed: int, seconds: float,
               trace: int = 0) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        return {"error": proc.stderr.strip()[-500:]}
    detail, result = map(json.loads, proc.stdout.strip().splitlines()[-2:])
    values = {name: m["value"] for name, m in result["metrics"].items()}
    if not trace:
        values["ops_s"] = detail["detail"]["ops_s"]
    return values


def quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3}


def fails_more(parent_runs: list[dict], change_runs: list[dict]) -> bool:
    """Whether the change's operations fail more often than the parent's:
    more errored runs, or a lower ok_frac median over the runs that ended."""
    def errors(runs):
        return sum("error" in r for r in runs)

    def ok_frac(runs):
        ended = [r["ok_frac"] for r in runs if "error" not in r]
        return statistics.median(ended) if ended else 0.0

    return (errors(change_runs) > errors(parent_runs)
            or ok_frac(change_runs) < ok_frac(parent_runs))


def summarise(metric: dict, parent: list, change: list, more_failures: bool) -> dict:
    """Verdict on one metric; parent[i] and change[i] are its values in
    pair i, None where that side's run errored.  Each side needs at least
    one value."""
    lower = metric["better"] == "lower"

    def better(x, y):
        return x < y if lower else x > y

    p_vals = [x for x in parent if x is not None]
    c_vals = [y for y in change if y is not None]
    p, c = quartiles(p_vals), quartiles(c_vals)
    wins = sum(x is not None and y is not None and better(y, x)
               for x, y in zip(parent, change))
    iqr = p["q3"] - p["q1"]
    base = p["median"]
    worse = (c["median"] - base if lower else base - c["median"]) / base if base else 0.0
    if base and iqr / abs(base) > metric["bound"] and not all(
            better(y, x) for x in p_vals for y in c_vals):
        verdict = "unresolved"
    elif (wins >= GAIN_WIN_SHARE * len(parent) and abs(c["median"] - base) > iqr
          and better(c["median"], base) and not more_failures):
        verdict = "gain"
    elif worse <= metric["bound"]:
        verdict = "within bound"
    else:
        verdict = "regression"
    return {"unit": metric["unit"], "better": metric["better"],
            "bound": metric["bound"], "parent": p, "change": c,
            "parent_iqr": iqr, "change_wins": wins, "pairs": len(parent),
            "relative_change": (c["median"] - base) / base if base else None,
            "verdict": verdict}


def layer_summary(parent: list[dict], change: list[dict]) -> dict:
    """Per-layer medians of each side's traced runs and their relative
    change, for the layers either side used."""
    out = {}
    for name in parent[0]:
        if not all(name in run for run in parent + change):
            continue
        sides = [[run[name] for run in runs] for runs in (parent, change)]
        before, after = (statistics.median(values) for values in sides)
        if before == after == 0:
            continue
        out[name] = {"parent": before, "change": after,
                     "relative_change": (after - before) / before if before else None}
    return out


def ops_summary(parent: list[dict], change: list[dict]) -> dict:
    """Per-op medians and quartiles of each side's untraced runs that did
    not error, the relative change of the medians and whether the runs'
    spread resolves it, for the ops that every such run timed."""
    sides = [[run["ops_s"] for run in runs if "error" not in run]
             for runs in (parent, change)]
    out = {}
    for name in sorted(set.intersection(*(set(ops) for ops in sides[0] + sides[1]))):
        before, after = (quartiles([ops[name] for ops in runs]) for runs in sides)
        iqrs = [side["q3"] - side["q1"] for side in (before, after)]
        moved = after["median"] - before["median"]
        out[name] = {"parent": before, "change": after,
                     "parent_iqr": iqrs[0], "change_iqr": iqrs[1],
                     "relative_change": moved / before["median"] if before["median"] else None,
                     "verdict": "unresolved" if max(iqrs) > abs(moved) else "resolved"}
    return out


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="parent revision")
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args()

    def short(rev):
        return subprocess.run(["git", "rev-parse", "--short", rev], cwd=ROOT,
                              capture_output=True, text=True, check=True).stdout.strip()

    revs = {"parent": short(args.parent), "change": f"working tree on {short('HEAD')}"}
    report = {
        "revisions": revs,
        "settings": {"pairs": PAIRS, "first_seed": args.first_seed,
                     "seconds": seconds, "trace": 0, "traced_pairs": TRACE_PAIRS,
                     "order": "parent first on even pair index"},
        "env": {"python": platform.python_version(), "machine": platform.machine(),
                "processor": platform.processor() or None,
                "cpus_usable": len(os.sched_getaffinity(0))},
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        trees = {"parent": export(revs["parent"], Path(tmp) / "parent"),
                 "change": export_worktree(Path(tmp) / "change")}

        def ordered(i):
            return ("parent", "change") if i % 2 == 0 else ("change", "parent")

        for workload in (w["name"] for w in spec["workloads"]):
            runs = {"parent": [], "change": []}
            for i in range(PAIRS):
                seed = args.first_seed + i
                for side in ordered(i):
                    values = bench_once(trees[side], workload, seed, seconds)
                    runs[side].append(dict(values, seed=seed))
                    print(f"{workload} seed {seed} {side}: {values}", file=sys.stderr)
            metrics, ops = {}, {}
            if all(any("error" not in r for r in side) for side in runs.values()):
                more_failures = fails_more(runs["parent"], runs["change"])
                for m in spec["end_to_end"]:
                    name = m["name"]
                    metrics[name] = summarise(m, [r.get(name) for r in runs["parent"]],
                                              [r.get(name) for r in runs["change"]],
                                              more_failures)
                ops = ops_summary(runs["parent"], runs["change"])
            report["workloads"][workload] = {"metrics": metrics, "ops": ops, "runs": runs}
            traced = {"parent": [], "change": []}
            for i in range(TRACE_PAIRS):
                seed = args.first_seed + i
                for side in ordered(i):
                    values = bench_once(trees[side], workload, seed, seconds, trace=1)
                    traced[side].append(values)
                    print(f"{workload} traced seed {seed} {side}: {values}", file=sys.stderr)
            report["workloads"][workload]["layers"] = (
                traced if any("error" in r for side in traced.values() for r in side)
                else layer_summary(traced["parent"], traced["change"]))

    text = json.dumps(report, indent=1)
    if args.out:
        args.out.write_text(text + "\n")
    else:
        print(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
