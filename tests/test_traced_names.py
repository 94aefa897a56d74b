"""The per-layer tracer's contract with the package.

``perfbench.layertrace.TRACED`` names the functions the benchmark's traced
run wraps; a name that no longer resolves makes every traced run fail.
These checks keep that contract inside the tier-1 suite.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mahabench
from perfbench import layertrace

ROOT = Path(__file__).resolve().parents[1]

BENCH_ARGV = ["bench", "--mode", "metadataset", "--dims", "8", "--classes", "10",
              "--method", "simple,transductive,gmm-em", "--tasks", "30"]


@pytest.mark.parametrize("name", layertrace.TRACED)
def test_every_traced_name_resolves(name):
    owner, attr, function = layertrace._resolve("mahabench", name)
    assert vars(owner)[attr] is function


@pytest.mark.parametrize("name", ["refine", "gmm"])
def test_package_attributes_are_the_submodules(name):
    # a function exported under a submodule's name would shadow the module
    module = getattr(mahabench, name)
    assert module.__file__.endswith(f"{name}.py")
    assert importlib.import_module(f"mahabench.{name}") is module


def _one_cpu():
    # spans are recorded only in the traced process, so its units must not
    # run in forked workers
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def test_a_serial_traced_bench_child_calls_the_fit_path(tmp_path):
    result, spans = tmp_path / "result.json", tmp_path / "spans.json"
    argv = [sys.executable, "-m", "perfbench.child", "traced", str(ROOT / "src"),
            str(result), str(spans), "--", *BENCH_ARGV]
    out = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=300,
                         preexec_fn=_one_cpu)
    assert out.returncode == 0, out.stderr
    record = json.loads(result.read_text())
    assert record["exit_code"] == 0
    layers = record["layers"]
    for name in ("refine.run_refinement", "refine.weighted_class_statistics", "methods.predict"):
        assert layers[f"{name}.calls"] > 0, name
