"""Smoke check of the benchmark itself (about a minute):

    python3 -m pytest perfbench/test_smoke.py

Runs each workload briefly, untraced once and traced twice with one seed.
Checks that every metric named in ``BENCHMARK.json`` is printed with its
unit, that no job fails, that the traced work counts repeat exactly, that the
bypass readings hold, and that the benchmark refuses to run without sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(workload, trace, seed=3, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def result(workload, trace):
    proc = bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    doc, summary = json.loads("\n".join(lines[:-1])), json.loads(lines[-1])
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert summary["correct"], doc["failures"]
    assert summary["failed"] == 0 and summary["attempted"] >= 1
    return doc, summary


def assert_metrics(summary, spec):
    assert sorted(summary["metrics"]) == sorted(m["name"] for m in spec)
    for m in spec:
        assert summary["metrics"][m["name"]]["unit"] == m["unit"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end(workload):
    doc, summary = result(workload, 0)
    assert_metrics(summary, SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in summary["metrics"].values())
    assert doc["metrics"]["failed_frac"] == {"value": 0.0, "unit": "ratio"}
    assert doc["samples"]["job_p90_s"] >= 100
    assert doc["samples"]["beyond_job_p90_s"] >= 10


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat(workload):
    runs = [result(workload, 1)[1] for _ in range(2)]
    for summary in runs:
        assert_metrics(summary, SPEC["per_layer"])
    counts = [{k: m["value"] for k, m in s["metrics"].items()
               if m["unit"] != "s"} for s in runs]
    assert counts[0] == counts[1]
    if workload == "expansions":
        assert counts[0]["exact_linalg.calls"] == 0
    else:
        assert counts[0]["exact_arith.padic_ops"] == 0


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
