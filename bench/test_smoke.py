"""Smoke test of the benchmark itself, at the reduced ("smoke") graph sizes.

    python3 -m pytest bench/test_smoke.py -q

It runs every workload untraced and traced, checks that a corrupted
reference value is caught by the correctness checks, and checks that the
benchmark refuses to run without the program's sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from tracer import METRICS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", ["search", "ingest", "apex"])
def test_workload_completes(workload, trace):
    result, record = run.run_workload(workload, seed=11, seconds=0,
                                      trace=trace, size="smoke")
    assert record["failures"] == []
    assert result["correct"] and result["failed"] == 0
    assert record["passes"] == (2 if trace else 1)
    assert result["attempted"] == \
        record["passes"] * record["meta"]["commands_per_pass"]
    expected = METRICS if trace else run.END_TO_END
    assert set(result["metrics"]) == set(expected)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == (expected[name][0] if trace
                                  else expected[name])
        assert isinstance(metric["value"], float | int)


def test_traced_search_times_the_area_search():
    result, _ = run.run_workload("search", seed=5, seconds=0, trace=True,
                                 size="smoke")
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert m["certify.grid_evals"] > 0 and m["certify.refine_evals"] > 0
    assert m["cone.area_calls"] >= m["certify.grid_evals"]
    assert 0 < m["cone.area_incl_s"] and m["cone.develop_s"] == 0


def test_corrupted_reference_fails():
    def corrupt(manifest):
        for command in manifest["commands"]:
            if "tc" in command["expect"]:
                command["expect"]["tc"] += 1e-3

    result, record = run.run_workload("apex", seed=11, seconds=0, trace=False,
                                      size="smoke", corrupt=corrupt)
    assert not result["correct"]
    assert result["failed"] == 4  # three circles and the cube
    assert record["fail_frac"] == result["failed"] / result["attempted"]


def test_corrupted_verdict_fails():
    def corrupt(manifest):
        manifest["commands"][0]["expect"]["verdicts"] = ["NoCertificate"]

    result, _ = run.run_workload("search", seed=11, seconds=0, trace=False,
                                 size="smoke", corrupt=corrupt)
    assert result["failed"] == 1


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "apex", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_metric_names_match_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} \
        == METRICS
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
