"""Smoke test of the benchmark: one short pass of each workload.

Run from the root of the repository:

    python3 -m pytest benchmark/test_smoke.py -q

Each workload runs once timed (``--seconds 1`` stops after one pass) and
once traced.  Every metric named in BENCHMARK.json must come out with its
unit, no job may fail at the default seed, both runs must have generated
the same inputs, and the layers a workload bypasses must read 0 calls.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)

# (workload, metric whose value must be 0 there)
BYPASSED = {
    "spectral_factor": "evaluate.evaluate.calls",
    "sample_certify": "factorization.spectral_outer.calls",
}


def bench(workload, trace, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, *SPEC["command"][1:]),
         "--workload", workload, "--seed", "0", "--seconds", "1",
         "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)
    return proc


def parse(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["run_info"], json.loads(lines[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_emits_every_metric(workload):
    info0, timed = parse(bench(workload, 0))
    info1, traced = parse(bench(workload, 1))
    for result, names in ((timed, SPEC["end_to_end"]),
                          (traced, SPEC["per_layer"])):
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["failed"] == 0 and result["attempted"] >= 1
        assert list(result["metrics"]) == [m["name"] for m in names]
        for m in names:
            got = result["metrics"][m["name"]]
            assert got["unit"] == m["unit"]
            assert isinstance(got["value"], (int, float))
    assert timed["metrics"]["pass_ratio"]["value"] == 1.0
    assert info0["input_digest"] == info1["input_digest"]
    if workload in BYPASSED:
        assert traced["metrics"][BYPASSED[workload]]["value"] == 0


def test_refuses_without_the_package():
    bare = os.path.join(ROOT, ".bench_out", "bare-checkout")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for path in SPEC["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(SPEC["workloads"][0]["name"], 0, cwd=bare)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
