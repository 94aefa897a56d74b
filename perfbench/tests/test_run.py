import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from perfbench.layertrace import metric_units
from perfbench.run import END_TO_END, run_workload, spans_path
from perfbench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]

SMOKE_SIZES = {
    "meta-wide": 30,
    "active-pool": 1,
    "continual-stream": 1,
    "riemann-fields": 5,
}


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tiny_run_of_each_workload(name):
    run = run_workload(WORKLOADS[name], seed=0, seconds=0, trace=False, size=SMOKE_SIZES[name])
    result = run["result"]
    assert result["correct"], [c.check.problem for c in run["children"]]
    assert result["failed"] == 0 and result["attempted"] > 0
    assert list(result["metrics"]) == list(END_TO_END)
    for metric in result["metrics"].values():
        assert metric["value"] > 0
    assert run["environment"]["blas_thread_vars_in_child"] == {
        "OPENBLAS_NUM_THREADS": None, "OMP_NUM_THREADS": None, "MKL_NUM_THREADS": None,
    }


def test_traced_run_wraps_every_binding_and_keeps_the_output():
    run = run_workload(WORKLOADS["meta-wide"], seed=0, seconds=0, trace=True, size=30)
    assert run["result"]["correct"]
    assert list(run["result"]["metrics"]) == list(metric_units())
    traced = [c for c in run["children"] if c.mode == "traced"]
    bindings = traced[0].record["bindings"]
    # the defining module, the package, and every module importing it by name
    assert bindings["methods.fit_statistics"] == 4  # methods, bench, active, continual
    assert bindings["heads.class_scores"] == 2  # heads, package
    assert bindings["heads.ClassStatistics.from_moments"] == 1
    assert len({c.check.sha256 for c in run["children"]}) == 1
    spans = json.loads(spans_path(WORKLOADS["meta-wide"]).read_text())["spans"]
    assert [s[0] for s in spans].count("cli.cli_main") == 1
    assert all(start <= end for _, start, end, _ in spans)


def test_benchmark_json_matches_the_code():
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in contract["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in contract["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in contract["per_layer"]} == metric_units()


# Call counts at seed 0 and the sizes cProfile counted them at.
CPROFILE_COUNTS = [
    ("meta-wide", ("--classes", "60"), 40,
     {"spd.quad_form.calls": 10142, "refine.weighted_class_statistics.calls": 290}),
    ("active-pool", (), 20, {"active.select_next.calls": 1200}),
    ("continual-stream", (), 20,
     {"heads.ClassStatistics.from_moments.calls": 7800, "spd.ensure_pd.calls": 55200}),
    ("riemann-fields", (), 2000, {"riemann.path_energy.calls": 4000}),
]


@pytest.mark.parametrize("name, overrides, size, counts", CPROFILE_COUNTS)
def test_traced_call_counts_match_cprofile(name, overrides, size, counts):
    workload = WORKLOADS[name]
    workload = replace(workload, argv=(*workload.argv, *overrides))
    run = run_workload(workload, seed=0, seconds=0, trace=True, size=size)
    assert run["result"]["correct"]
    metrics = run["result"]["metrics"]
    assert {key: metrics[key]["value"] for key in counts} == counts
    assert "trace.overhead_s" in metrics


def test_fails_without_printing_a_result_when_the_program_is_absent(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    if (ROOT / "BENCHMARK.json").exists():
        shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "riemann-fields", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0
    assert "correct" not in out.stdout
    assert "no program to measure" in out.stderr
    for line in out.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)
