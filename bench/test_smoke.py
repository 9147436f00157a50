"""Smoke test of the benchmark: every workload once, at its smallest size.

    python -m pytest bench/test_smoke.py -q

It checks that a run prints every metric of BENCHMARK.json with its unit,
that a traced run reports work on every layer its workload exercises,
that no op fails beyond the two known defects, and that the run records
its environment.  It takes about two minutes, so it sits outside the
tier-1 suite (pytest collects only tests/ by default).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# op name -> the exception it raises until the defect is fixed
KNOWN_DEFECTS = {
    "flatness_q_dependent_d3": "QExactError",
    "x_eigensystem_N200": "SpectrumWindowError",
}


# workload -> the per-layer metrics it exercises, after bench/README.md; a
# traced run must report each of them above 0, so a span that stops firing
# cannot pass for an improvement
_STREAM_LAYERS = ["scalars.calls", "scalars.busy_s", "scalars.terms_out_mean",
                  "parsing.calls", "parsing.busy_s",
                  "ncalg.normal_form.calls", "ncalg.normal_form.busy_s",
                  "ncalg.normal_form.terms_out", "ncalg.all_normal_forms.calls",
                  "ncalg.all_normal_forms.busy_s",
                  "ncalg.derivative_apply.busy_s", "exactmat.busy_s"]
WORKLOAD_LAYERS = {
    "cli-tour": [m["name"] for m in SPEC["per_layer"]
                 if m["name"].startswith("cli.")],
    "exact-bulk": ["parsing.calls", "ncalg.normal_form.calls",
                   "ncalg.normal_form.busy_s", "ncalg.normal_form.terms_out",
                   "ncalg.diverged.count", "ncalg.flatness_scan.calls",
                   "ncalg.flatness_scan.busy_s", "ncalg.flatness_scan.words",
                   "ncalg.flatness_scan.relations"],
    "exact-stream": _STREAM_LAYERS,
    "float-certs": [m["name"] for m in SPEC["per_layer"]
                    if m["name"].split(".")[0] in ("qphase", "suq2", "classical")],
}


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=175,
    )


def _tiny(workload, trace, seed=7):
    proc = _bench("--workload", workload, "--seed", str(seed), "--seconds", "1",
                  "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    *_, detail, result = proc.stdout.strip().splitlines()
    return json.loads(detail)["detail"], json.loads(result)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_with_its_unit(workload, trace):
    detail, result = _tiny(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())

    for name, types in detail["failures"].items():
        assert types.keys() == {KNOWN_DEFECTS.get(name)}, (name, types)
    assert result["failed"] == sum(
        n for types in detail["failures"].values() for n in types.values())
    if not trace:
        assert result["metrics"]["ok_frac"]["value"] == pytest.approx(
            1.0 - result["failed"] / result["attempted"])

    if trace:
        idle = [name for name in WORKLOAD_LAYERS[workload]
                if not result["metrics"][name]["value"] > 0]
        assert not idle, f"layers that report 0 on {workload}: {idle}"

    env = detail["env"]
    assert env["seed"] == 7 and env["workload"] == workload
    assert {"python", "numpy", "scipy", "nproc", "blas_threads",
            "inputs_sha256"} <= env.keys()
    assert 1 <= env["blas_threads"] <= env["nproc"]


def test_seed_fixes_the_inputs():
    hashes = [_tiny("exact-stream", 0, seed)[0]["env"]["inputs_sha256"]
              for seed in (3, 3, 4)]
    assert hashes[0] == hashes[1] != hashes[2]


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench("--workload", "exact-stream", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
