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
# 3 sessions, all 3 strategies, 4 acquisitions each
ACTIVE_ARGV = ["active", "--sessions", "3", "--budget", "4", "--classes", "4",
               "--pool-per-class", "3", "--test-per-class", "2", "--method", "transductive"]


@pytest.mark.parametrize("name", layertrace.TRACED)
def test_every_traced_name_resolves(name):
    owner, attr, function = layertrace._resolve("mahabench", name)
    assert vars(owner)[attr] is function


# The modules whose namespaces bind a traced function, as the benchmark's
# traced run counts and pins them: the defining module, every module that
# imports the function by name, and the package ("" here).
PINNED_BINDINGS = {
    "methods.fit_statistics": {"methods", "bench", "active", "continual"},
    "heads.class_scores": {"heads", ""},
}


@pytest.mark.parametrize("name", sorted(PINNED_BINDINGS))
def test_the_pinned_binding_counts_hold(name):
    importlib.import_module("mahabench.cli")  # the traced run loads every module
    function = layertrace._resolve("mahabench", name)[2]
    bound = {key.partition(".")[2] for key, module in list(sys.modules.items())
             if key.split(".")[0] == "mahabench" and module is not None
             and any(value is function for value in vars(module).values())}
    assert bound == PINNED_BINDINGS[name]


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


def _traced_child_layers(tmp_path, argv) -> dict:
    """The per-layer metrics of one traced benchmark child run on one CPU."""
    result, spans = tmp_path / "result.json", tmp_path / "spans.json"
    command = [sys.executable, "-m", "perfbench.child", "traced", str(ROOT / "src"),
               str(result), str(spans), "--", *argv]
    out = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=300,
                         preexec_fn=_one_cpu)
    assert out.returncode == 0, out.stderr
    record = json.loads(result.read_text())
    assert record["exit_code"] == 0
    return record["layers"]


def test_a_serial_traced_bench_child_calls_the_fit_path(tmp_path):
    layers = _traced_child_layers(tmp_path, BENCH_ARGV)
    for name in ("refine.run_refinement", "refine.weighted_class_statistics", "methods.predict"):
        assert layers[f"{name}.calls"] > 0, name


def test_a_serial_traced_riemann_child_calls_each_riemann_layer(tmp_path):
    # the fields run a block at a time, but every block still goes through
    # the three traced functions
    layers = _traced_child_layers(tmp_path, ["riemann", "--fields", "40", "--dims", "3"])
    for name in ("make_two_centroid_field", "energy_gap_check", "path_energy"):
        assert layers[f"riemann.{name}.calls"] > 0, name


def test_a_serial_traced_active_child_refines_and_acquires_once_per_fit(tmp_path):
    # sessions run in lockstep blocks, but the refinement is still seen and
    # every (session, strategy) pair still makes one acquisition per step
    layers = _traced_child_layers(tmp_path, ACTIVE_ARGV)
    assert layers["refine.run_refinement.calls"] > 0
    assert layers["active.run_active_session.calls"] > 0
    assert layers["active.select_next.calls"] == 3 * 3 * 4
