import argparse
import ctypes
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mahabench import bench, cli, parallel
from mahabench.cli import _median, build_parser, cli_main
from mahabench.worlds import write_tasks
from perfbench.workloads import WORKLOADS, expected_rows


def read_csv(path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# ")
    return json.loads(lines[0][2:]), lines[1], lines[2:]


def run_python(*args):
    """``python *args`` in a fresh interpreter with this checkout's package importable."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, timeout=120, env={**os.environ, "PYTHONPATH": path})


SMALL_ACTIVE = ["active", "--sessions", "1", "--budget", "2", "--classes", "3",
                "--pool-per-class", "2", "--test-per-class", "2", "--strategy", "entropy"]
SMALL_CONTINUAL = ["continual", "--streams", "1", "--length", "2", "--shot", "3",
                   "--query", "2", "--strategy", "moving", "--head-mode", "single"]

# argvs whose last flag holds a size or a step limit that a config would
# also reject under its own field name; the error names the flag
SIZE_FLAG_ERRORS = [
    *(["continual", flag, "0"]
      for flag in ("--length", "--classes-per-task", "--shot", "--query")),
    ["bench", "--tasks", "30", "--query", "0"],
    ["bench", "--tasks", "30", "--mode", "metadataset", "--query", "0"],
    ["bench", "--tasks", "30", "--way", "0"],
    *(["gen-tasks", "--tasks", "2", "--out", "tasks.jsonl", flag, "0"]
      for flag in ("--way", "--shot", "--query")),
    ["recall", "--tasks", "2", "--query", "0"],
    *([command, "--min-steps", "0"] for command in ("bench", "recall", "active", "continual")),
    ["bench", "--tasks", "30", "--method", "transductive", "--max-steps", "1"],
    ["continual", "--max-steps", "1"],
]

# argvs whose last flag holds a value the library rejects under a field name
# or with a message that names no flag; the error names the flag
WORLD_FLAG_ERRORS = [
    ["bench", "--tasks", "5"],
    ["bench", "--tasks", "30", "--beta", "-1"],
    ["active", "--beta", "-1"],
    ["bench", "--tasks", "30", "--method", ","],
    *(["bench", "--tasks", "30", "--method", name]
      for name in ("gmm:euclidean", "gmm-em:l1", "gmm:", "simple:", "nope")),
    ["continual", "--drift", "-1"],
    ["bench", "--tasks", "30", "--dims", "1"],
    ["bench", "--tasks", "30", "--classes", "1"],
    ["gen-tasks", "--tasks", "2", "--out", "tasks.jsonl", "--anisotropy", "0.5"],
    ["active", "--pool-per-class", "0"],
    ["active", "--budget", "500"],
    ["riemann", "--dims", "0"],
    ["riemann", "--fields", "1", "--quadrature", "1"],
    # settings the field's partition checks would reject, checked from the flags
    ["riemann", "--fields", "1", "--flatness", "5"],
    ["riemann", "--fields", "1", "--flatness", "-0.5"],
    ["riemann", "--fields", "1", "--support-scale", "0"],
    ["riemann", "--fields", "1", "--support-scale", "2"],
    ["riemann", "--fields", "1", "--separation", "0"],
    ["riemann", "--weak-scale", "0"],
    ["bench", "--tasks", "30", "--way", "8", "--classes", "6"],
    ["gen-tasks", "--tasks", "2", "--out", "tasks.jsonl", "--way", "8", "--classes", "6"],
    ["recall", "--tasks", "3", "--classes", "4"],
]

# argvs a configuration check rejects before the run echoes its configuration;
# tests/test_reachable.py traces them too, so that these checks are reached
CONFIG_ERRORS = [
    ["bench", "--method", "nope"],
    ["bench", "--method", "simple:nope"],
    ["bench", "--tasks", "5"],
    ["recall", "--scale-spread", "0.5"],
    ["gen-tasks"],
    ["continual", "--min-steps", "0"],
    ["active", "--budget", "100", "--classes", "3", "--pool-per-class", "2"],
    ["active", "--sessions", "0"],
    ["active", "--test-per-class", "0"],
    ["continual", "--streams", "0"],
    ["riemann", "--fields", "0"],
    ["riemann", "--points-per-field", "0"],
    ["recall", "--tasks", "0"],
    ["bench", "--tasks", "30", "--beta", "nan"],
    ["bench", "--tasks", "30", "--beta", "inf"],
    ["bench", "--tasks", "30", "--method", "transductive", "--beta", "nan"],
    ["bench", "--tasks", "30", "--mean-radius", "nan"],
    ["continual", "--drift", "nan"],
    ["riemann", "--separation", "inf"],
    ["riemann", "--dims", "0"],
    ["bench", "--tasks", "30", "--mode", "metadataset", "--way", "7"],
    ["bench", "--tasks", "30", "--mode", "metadataset", "--shot", "9"],
    # no method refines, so the step limits would be ignored
    [*SMALL_ACTIVE, "--min-steps", "5", "--max-steps", "9"],
    [*SMALL_ACTIVE, "--min-steps", "1"],
    [*SMALL_CONTINUAL, "--max-steps", "9"],
    ["bench", "--tasks", "30", "--method", "simple,gmm", "--min-steps", "1"],
    ["recall", "--tasks", "2", "--method", "simple:euclidean,gmm", "--max-steps", "6"],
    ["bench", "--tasks", "30", "--way", "-1"],
    ["bench", "--tasks", "30", "--shot", "-2"],
    ["gen-tasks", "--tasks", "2", "--way", "-1", "--out", "tasks.jsonl"],
    ["gen-tasks", "--tasks", "0", "--out", "tasks.jsonl"],
    ["gen-tasks", "--tasks", "-5", "--out", "tasks.jsonl"],
    [*SMALL_ACTIVE, "--strategy", ","],
    [*SMALL_CONTINUAL, "--strategy", ","],
    # checks the library makes, run before the echo
    ["bench", "--tasks", "30", "--way", "50", "--classes", "12"],
    ["active", "--sessions", "1", "--budget", "-1", "--classes", "3"],
    ["bench", "--tasks", "30", "--dims", "0"],
    # a name repeated in a comma list would write its rows once per mention
    ["active", "--strategy", "entropy,entropy"],
    ["continual", "--strategy", "first,first", "--head-mode", "single,single"],
    ["continual", "--head-mode", "single,single"],
    ["bench", "--method", "simple,simple"],
    ["recall", "--tasks", "2", "--method", "transductive,simple,transductive"],
    # one head under two spellings would write the same rows twice
    ["bench", "--tasks", "30", "--method", "simple,simple:mahalanobis"],
    ["bench", "--tasks", "30", "--method", "gmm,simple:gmm"],
    *SIZE_FLAG_ERRORS,
    *WORLD_FLAG_ERRORS,
]


RUN_FLAGS = {"--seed", "--out", "--dims", "--classes", "--anisotropy", "--mean-radius",
             "--scale-spread", "--domain-id"}
HEAD_FLAGS = {"--method", "--min-steps", "--max-steps", "--beta"}
SAMPLER_FLAGS = {"--mode", "--way", "--shot", "--query"}


def parser_flags() -> dict:
    """Each subcommand's flags, as ``build_parser`` defines them."""
    parser = build_parser()
    [sub] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return {
        command: [a.option_strings[-1] for a in p._actions if a.option_strings != ["-h", "--help"]]
        for command, p in sub.choices.items()
    }


class TestCliMain:
    def test_bench_writes_one_row_per_task_and_method(self, tmp_path):
        out = tmp_path / "bench.csv"
        argv = ["bench", "--tasks", "30", "--method", "simple,gmm", "--out", str(out)]
        assert cli_main(argv) == 0
        echo, header, rows = read_csv(out)
        assert echo["command"] == "bench"
        assert header == "domain_id,method,task_index,task_seed,accuracy"
        assert len(rows) == 60

    def test_same_seed_gives_identical_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert cli_main([*SMALL_CONTINUAL, "--seed", "3", "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("argv", [SMALL_ACTIVE, SMALL_CONTINUAL])
    def test_single_method_commands_default_to_simple(self, tmp_path, argv):
        out = tmp_path / "out.csv"
        assert cli_main([*argv, "--out", str(out)]) == 0
        echo, _, rows = read_csv(out)
        assert echo["method"] == "simple"
        assert rows

    @pytest.mark.parametrize("argv", [SMALL_ACTIVE, SMALL_CONTINUAL])
    def test_single_method_commands_reject_a_list(self, tmp_path, argv, capsys):
        out = tmp_path / "out.csv"
        assert cli_main([*argv, "--method", "simple,transductive", "--out", str(out)]) == 2
        assert "one method" in capsys.readouterr().err
        assert not out.exists()

    def test_each_subcommand_takes_the_flags_its_run_reads(self):
        assert {command: set(flags) for command, flags in parser_flags().items()} == {
            "bench": RUN_FLAGS | HEAD_FLAGS | SAMPLER_FLAGS | {"--tasks", "--tasks-file"},
            "gen-tasks": RUN_FLAGS | SAMPLER_FLAGS | {"--tasks"},
            "recall": RUN_FLAGS | HEAD_FLAGS | {"--tasks", "--query"},
            "active": RUN_FLAGS | HEAD_FLAGS | {"--sessions", "--budget", "--pool-per-class",
                                                "--test-per-class", "--strategy"},
            "continual": RUN_FLAGS | HEAD_FLAGS | {"--streams", "--length", "--classes-per-task",
                                                   "--shot", "--query", "--drift", "--strategy",
                                                   "--head-mode"},
            "riemann": {"--seed", "--out", "--dims", "--fields", "--points-per-field",
                        "--separation", "--support-scale", "--flatness", "--weak-scale",
                        "--quadrature"},
        }
        assert sum(len(flags) for flags in parser_flags().values()) == 92

    @pytest.mark.parametrize("argv", [
        ["bench", "--metric", "mahalanobis"],
        *(["gen-tasks", "--tasks", "1", flag, "1"]
          for flag in ("--method", "--min-steps", "--max-steps", "--beta")),
        ["active", "--sessions", "1", "--budget", "1", "--classes", "3", "--tasks", "-3"],
        ["continual", "--streams", "1", "--tasks", "3"],
        ["riemann", "--fields", "1", "--method", "bogus"],
        ["riemann", "--fields", "1", "--beta", "-5"],
        ["riemann", "--fields", "1", "--tasks", "-3"],
        ["riemann", "--fields", "1", "--min-steps", "0"],
        *(["riemann", "--fields", "1", flag, "1"]
          for flag in ("--max-steps", "--classes", "--anisotropy", "--mean-radius",
                       "--scale-spread", "--domain-id")),
    ], ids=lambda argv: f"{argv[0]} {argv[-2]}")
    def test_metric_flag_is_gone(self, argv, capsys):
        # a flag the subcommand's run does not read is a usage error
        assert cli_main(argv) == 2
        assert argv[-2] in capsys.readouterr().err

    @pytest.mark.parametrize("argv", CONFIG_ERRORS)
    def test_config_errors_exit_two(self, argv, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)  # where a run that wrongly passed would write
        assert cli_main(argv) == 2
        out, err = capsys.readouterr()
        assert "config error" in err
        assert out == ""  # a rejected run prints no configuration
        if argv in SIZE_FLAG_ERRORS or argv in WORLD_FLAG_ERRORS:
            assert argv[-2] in err

    def test_a_budget_past_the_pool_names_the_pool(self, capsys):
        assert cli_main([*SMALL_ACTIVE, "--budget", "7"]) == 2
        assert capsys.readouterr().err == (
            "config error: --budget must lie in [0, 6], the pool of --classes 3"
            " x --pool-per-class 2\n")

    @pytest.mark.parametrize("argv, need", [
        (WORLD_FLAG_ERRORS[-3], "--way 8"),
        (WORLD_FLAG_ERRORS[-1], "5, the fewest classes a metadataset task draws"),
    ], ids=["bench", "recall"])
    def test_too_few_classes_names_what_needs_more(self, argv, need, capsys):
        assert cli_main(argv) == 2
        err = capsys.readouterr().err
        assert err == f"config error: --classes {argv[-1]} is fewer than {need}\n"

    @pytest.mark.parametrize("argv", [
        ["bench", "--tasks", "30", "--mean-radius", "nan"],
        ["bench", "--tasks", "30", "--beta", "inf"],
        ["continual", "--drift", "nan"],
        ["riemann", "--weak-scale", "nan"],
    ], ids=lambda argv: f"{argv[0]} {argv[-2]}")
    def test_a_non_finite_flag_is_named(self, argv, capsys):
        assert cli_main(argv) == 2
        assert capsys.readouterr().err == f"config error: {argv[-2]} must be finite\n"

    @pytest.mark.parametrize("argv", [
        ["bench", "--tasks", "30", "--mean-radius", "1e200"],
        ["continual", "--length", "2", "--streams", "1", "--drift", "1e300"],
        ["active", "--sessions", "1", "--budget", "2", "--mean-radius", "1e300"],
    ], ids=lambda argv: argv[0])
    def test_features_whose_moments_overflow_exit_one(self, argv, capsys):
        # finite flags, but features whose squares pass float64's range
        assert cli_main(argv) == 1
        assert capsys.readouterr().err == (
            "error: support features' second moments overflow float64\n")

    @pytest.mark.parametrize("flag", [
        ["--dims", "9"], ["--classes", "9"], ["--anisotropy", "2"], ["--mean-radius", "2"],
        ["--scale-spread", "2"], ["--domain-id", "other"], ["--tasks", "7"],
        ["--mode", "metadataset"], ["--way", "3"], ["--shot", "3"], ["--query", "3"],
        ["--seed", "3"],
    ], ids=lambda flag: flag[0])
    def test_a_tasks_file_run_rejects_sampling_flags(self, tmp_path, capsys, flag):
        # the file fixes the world and the tasks: these flags would be ignored
        tasks, out = tmp_path / "tasks.jsonl", tmp_path / "out.csv"
        assert cli_main(["gen-tasks", "--tasks", "1", "--out", str(tasks)]) == 0
        capsys.readouterr()
        assert cli_main(["bench", "--tasks-file", str(tasks), *flag, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and flag[0] in err
        assert not out.exists()

    def test_empty_tasks_file_exits_two(self, tmp_path, capsys):
        tasks, out = tmp_path / "tasks.jsonl", tmp_path / "out.csv"
        write_tasks(tasks, [])  # gen-tasks rejects --tasks 0
        assert cli_main(["bench", "--tasks-file", str(tasks), "--out", str(out)]) == 2
        assert "holds no tasks" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_label_in_tasks_file_exits_one_with_line(self, tmp_path, capsys):
        tasks = tmp_path / "tasks.jsonl"
        assert cli_main(["gen-tasks", "--tasks", "30", "--out", str(tasks)]) == 0
        lines = tasks.read_text().splitlines()
        rec = json.loads(lines[2])
        rec["support"][0]["label"] = -1
        lines[2] = json.dumps(rec)
        tasks.write_text("\n".join(lines) + "\n")
        argv = ["bench", "--tasks-file", str(tasks), "--method", "transductive"]
        assert cli_main([*argv, "--out", str(tmp_path / "out.csv")]) == 1
        assert "line 3" in capsys.readouterr().err

    def test_tasks_file_run_is_described_by_the_file(self, tmp_path, capsys):
        # same bench flags, two different files: the echo, the CSV header
        # and the config hash follow the file, not the sampler flags
        runs = {}
        for name, gen_flags in (("a", ["--tasks", "40", "--mode", "metadataset"]),
                                ("b", ["--tasks", "35", "--mode", "fixed", "--seed", "3"])):
            tasks = tmp_path / f"{name}.jsonl"
            assert cli_main(["gen-tasks", *gen_flags, "--out", str(tasks)]) == 0
            capsys.readouterr()
            argv = ["bench", "--tasks-file", str(tasks), "--method", "simple"]
            assert cli_main([*argv, "--out", str(tmp_path / f"{name}.json")]) == 0
            echo = json.loads(capsys.readouterr().out.splitlines()[0])
            assert cli_main([*argv, "--out", str(tmp_path / f"{name}.csv")]) == 0
            capsys.readouterr()
            header, _, _ = read_csv(tmp_path / f"{name}.csv")
            report = json.loads((tmp_path / f"{name}.json").read_text())
            assert header == echo == report["config"]
            assert "sampler" not in echo and "domains" not in echo
            runs[name] = echo, report["metadata"]
        (echo_a, meta_a), (echo_b, meta_b) = runs["a"], runs["b"]
        assert echo_a["n_tasks"] == meta_a["n_tasks"] == 40
        assert echo_b["n_tasks"] == meta_b["n_tasks"] == 35
        assert echo_a["tasks_sha256"] != echo_b["tasks_sha256"]
        assert meta_a["config_hash"] != meta_b["config_hash"]

    @pytest.mark.parametrize("flag", [
        ["--support-scale", "1"], ["--flatness", "0"], ["--separation", "-6"],
    ], ids=lambda flag: flag[0])
    def test_riemann_takes_the_edge_settings(self, flag, capsys):
        assert cli_main(["riemann", "--fields", "3", "--dims", "2", *flag]) == 0
        assert "config error" not in capsys.readouterr().err

    def test_riemann_runs(self, tmp_path):
        out = tmp_path / "riemann.csv"
        assert cli_main(["riemann", "--fields", "2", "--dims", "2", "--out", str(out)]) == 0
        _, header, rows = read_csv(out)
        assert header == "field_seed,pair,delta_energy,half_gap,rel_error"
        assert len(rows) == 2


# a tiny run per subcommand, and one value per flag that differs from the
# flag's default in every subcommand and from the value in these runs
HEADER_BASES = {
    "bench": ["bench", "--tasks", "30", "--method", "simple"],
    "gen-tasks": ["gen-tasks", "--tasks", "2"],
    "recall": ["recall", "--tasks", "2", "--method", "simple"],
    "active": SMALL_ACTIVE,
    "continual": SMALL_CONTINUAL,
    "riemann": ["riemann", "--fields", "1", "--dims", "2"],
}
ALTERNATIVES = {
    "--seed": "3", "--dims": "3", "--classes": "6", "--anisotropy": "2",
    "--mean-radius": "2", "--scale-spread": "2", "--domain-id": "other",
    "--method": "transductive", "--min-steps": "1", "--max-steps": "6", "--beta": "0.5",
    "--tasks": "31", "--mode": "metadataset", "--way": "3", "--shot": "4", "--query": "4",
    "--sessions": "2", "--budget": "1", "--pool-per-class": "3", "--test-per-class": "3",
    # the two subcommands name their strategies differently
    "--strategy": {"active": "random", "continual": "first"},
    "--streams": "2", "--length": "3", "--classes-per-task": "3", "--drift": "0.5",
    "--head-mode": "multi",
    "--fields": "2", "--points-per-field": "2", "--separation": "4", "--support-scale": "0.2",
    "--flatness": "0.25", "--weak-scale": "100", "--quadrature": "32",
}


@pytest.mark.parametrize("command, flag", [
    (command, flag)
    for command, flags in parser_flags().items()
    for flag in flags
    if flag not in ("--out", "--tasks-file")
], ids=lambda v: v)
def test_every_flag_is_in_the_header(tmp_path, monkeypatch, capsys, command, flag):
    # a setting the run reads must show in the CSV's # line (gen-tasks: the
    # stdout echo), so that two different runs never share a header
    monkeypatch.setattr(parallel, "_worker_count", lambda count: 1)
    value = ALTERNATIVES[flag]
    if isinstance(value, dict):
        value = value[command]
    base = HEADER_BASES[command]
    if flag in ("--min-steps", "--max-steps"):
        base = [*base, "--method", "transductive"]  # only a refining head reads them
    out = tmp_path / "out"
    headers = []
    for extra in ([], [flag, value]):
        assert cli_main([*base, *extra, "--out", str(out)]) == 0
        echo = capsys.readouterr().out.splitlines()[0]
        headers.append(echo if command == "gen-tasks" else out.read_text().splitlines()[0])
    assert headers[0] != headers[1]
    hashes = [json.loads(header.removeprefix("# "))["config_hash"] for header in headers]
    assert hashes[0] != hashes[1]


def config_hash(echo: dict) -> str:
    """The sha256 prefix of an echo without its ``config_hash``."""
    rest = {k: v for k, v in echo.items() if k != "config_hash"}
    return hashlib.sha256(json.dumps(rest, sort_keys=True).encode("utf-8")).hexdigest()[:12]


WORLD = {"seed", "dims", "classes", "anisotropy", "mean_radius", "scale_spread", "domain_id"}
STEP_LIMITS = {"min_steps", "max_steps"}


@pytest.mark.parametrize("argv, absent", [
    # --tasks-file: the file fixes the world, the seed and the tasks
    (["bench", "--tasks-file", "tasks.jsonl", "--method", "simple"],
     WORLD | STEP_LIMITS | {"tasks", "mode", "way", "shot", "query", "tasks_file"}),
    (["bench", "--tasks", "30", "--mode", "metadataset", "--method", "transductive"],
     {"way", "shot", "tasks_file"}),
    (["gen-tasks", "--tasks", "2", "--mode", "metadataset"], {"way", "shot"}),
    (["recall", "--tasks", "2", "--method", "simple"], STEP_LIMITS),
    (SMALL_ACTIVE, STEP_LIMITS | {"domain"}),
    (SMALL_CONTINUAL, STEP_LIMITS | {"domain"}),
    (["riemann", "--fields", "1", "--dims", "2"], set()),
], ids=["bench-tasks-file", "bench-metadataset", "gen-tasks", "recall", "active",
        "continual", "riemann"])
def test_every_output_carries_the_one_echo(tmp_path, monkeypatch, capsys, argv, absent):
    # the stdout echo, the CSV # line and bench's JSON config are one dict,
    # hashed over itself, without paths or flags the run leaves unread
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(parallel, "_worker_count", lambda count: 1)
    assert cli_main(["gen-tasks", "--tasks", "2", "--out", "tasks.jsonl"]) == 0
    capsys.readouterr()
    outs = ["tasks.jsonl"] if argv[0] == "gen-tasks" else ["out.csv"]
    outs += ["out.json"] if argv[0] == "bench" else []
    for out in outs:
        assert cli_main([*argv, "--out", out]) == 0
        echo = json.loads(capsys.readouterr().out.splitlines()[0])
        assert echo["command"] == argv[0] and echo["config_hash"] == config_hash(echo)
        assert not (absent | {"out"}) & set(echo)
        if out == "out.csv":
            assert read_csv(tmp_path / out)[0] == echo
        elif out == "out.json":
            report = json.loads((tmp_path / out).read_text())
            assert report["config"] == echo
            assert report["metadata"]["config_hash"] == echo["config_hash"]


def test_a_call_builds_the_parser_once(monkeypatch):
    # the parser is built once, at import; a call, its unread-flag check's
    # defaults included, reads that parser and builds none
    calls = []
    monkeypatch.setattr(cli, "build_parser", lambda: calls.append(1) or build_parser())
    monkeypatch.setattr(parallel, "_worker_count", lambda count: 1)
    assert cli_main([*SMALL_CONTINUAL, "--method", "simple"]) == 0
    assert calls == []


# each benchmark workload's argv at a size that runs in well under a second
WORKLOAD_SIZES = {"meta-wide": 30, "active-pool": 1, "continual-stream": 1, "riemann-fields": 10}


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_benchmark_workload_runs(tmp_path, capsys, name):
    # the benchmark passes these flags; a flag it needs going away must fail
    # here, not only in the benchmark run
    out = tmp_path / "out.csv"
    argv = WORKLOADS[name].cli_argv(0, str(out), WORKLOAD_SIZES[name])
    assert cli_main(argv) == 0
    capsys.readouterr()
    assert len(read_csv(out)[2]) == expected_rows(argv)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(min_value=0.0), min_size=1, max_size=9)
       | st.lists(st.sampled_from([0.0, 0.5, 1.0, math.inf, math.nan]), min_size=1, max_size=9))
def test_the_riemann_median_is_numpys(values):
    # relative errors are >= 0: inf where the energy difference is 0, nan where it is nan
    with np.errstate(over="ignore"):  # two middle values near the float max
        median, ours = np.median(values), _median(values)
    assert np.array_equal(ours, median, equal_nan=True)
    assert f"{ours:.4f}" == f"{median:.4f}"


class TestModuleEntryPoints:
    @pytest.mark.parametrize("module", ["mahabench", "mahabench.cli"])
    def test_runs_the_command_line(self, tmp_path, module):
        out = tmp_path / "riemann.csv"
        argv = ["riemann", "--fields", "2", "--dims", "2", "--out", str(out)]
        done = run_python("-m", module, *argv)
        assert done.returncode == 0, done.stderr
        assert "median rel error" in done.stdout
        _, header, rows = read_csv(out)
        assert header == "field_seed,pair,delta_energy,half_gap,rel_error"
        assert len(rows) == 2

    @pytest.mark.parametrize("module", ["mahabench", "mahabench.cli"])
    def test_config_error_exits_two(self, module):
        done = run_python("-m", module, "recall", "--scale-spread", "0.5")
        assert done.returncode == 2
        assert "config error" in done.stderr

    def test_importing_the_cli_skips_scipy_and_loads_the_pool(self):
        # scipy.linalg's package init is over half of every call's start-up,
        # a pool import left for the call would be timed with the run, and
        # the stdlib pools cost resident memory for one fork-and-collect map
        probe = ("import json, sys, mahabench.cli; "
                 "maps = open('/proc/self/maps').read().split() if sys.platform == 'linux' else []; "
                 "print(json.dumps([sorted(sys.modules), sorted({m for m in maps if 'openblas' in m})]))")
        done = run_python("-c", probe)
        assert done.returncode == 0, done.stderr
        modules, openblas = json.loads(done.stdout)
        loaded = set(modules)
        assert {"mahabench.spd", "mahabench.parallel"} <= loaded
        assert not {m for m in loaded if m == "_flapack" or m.split(".")[0] == "scipy"}
        assert not {m for m in loaded if m.split(".")[0] in ("concurrent", "multiprocessing")}
        if sys.platform == "linux":  # numpy's bundled OpenBLAS, and no second one
            assert len(openblas) == 1 and "numpy.libs" in openblas[0]

    def test_importing_the_cli_loads_no_library_a_run_leaves_unused(self):
        # each is resident memory of every run: OpenSSL (hashlib's _hashlib)
        # 3.6 MiB for two digests, numpy.polynomial 1.5 MiB for one table,
        # scipy's package inits where spd needs only its LAPACK wrappers
        done = run_python("-c", "import sys, mahabench.cli; print(*sorted(sys.modules))")
        assert done.returncode == 0, done.stderr
        loaded = set(done.stdout.split())
        assert "_hashlib" not in loaded
        assert not {m for m in loaded if m == "numpy.polynomial"
                    or m.startswith("numpy.polynomial.") or m.split(".")[0] == "scipy"}

    @pytest.mark.parametrize("data", [
        json.dumps({"command": "riemann", "seed": 7, "schema": "riemann/v1"},
                   sort_keys=True).encode("utf-8"),
        np.random.default_rng(0).bytes(5 << 20),
    ], ids=["echo", "5MiB"])
    def test_the_digest_is_hashlibs(self, data):
        assert cli.sha256(data).hexdigest() == hashlib.sha256(data).hexdigest()

    def test_a_workload_call_imports_only_pool_internals(self, tmp_path):
        # a module first imported inside cli_main is timed with every run
        argvs = [WORKLOADS[name].cli_argv(0, str(tmp_path / f"{name}.csv"), size)
                 for name, size in WORKLOAD_SIZES.items()]
        done = run_python("-c", "import json, sys, mahabench.cli as cli; before = set(sys.modules); "
                                f"codes = [cli.cli_main(argv) for argv in {argvs!r}]; "
                                "print(json.dumps([codes, sorted(set(sys.modules) - before)]))")
        assert done.returncode == 0, done.stderr
        codes, imported = json.loads(done.stdout.splitlines()[-1])
        assert codes == [0] * len(argvs)
        assert imported == []


@pytest.mark.parametrize("flags, keep", [
    (["--head-mode", "single"], lambda row: row[2] == "single"),
    (["--head-mode", "multi"], lambda row: row[2] == "multi"),
    (["--strategy", "first"], lambda row: row[1] == "first"),
], ids=["single", "multi", "first"])
def test_a_continual_selection_writes_the_full_runs_rows(tmp_path, capsys, flags, keep):
    # every stream computes all strategies and both head modes; the flags
    # only choose which of its rows are written
    argv = ["continual", "--streams", "2", "--length", "3", "--shot", "3", "--query", "3",
            "--seed", "4"]
    full, part = tmp_path / "full.csv", tmp_path / "part.csv"
    assert cli_main([*argv, "--out", str(full)]) == 0
    assert cli_main([*argv, *flags, "--out", str(part)]) == 0
    capsys.readouterr()
    _, header, full_rows = read_csv(full)
    _, part_header, part_rows = read_csv(part)
    assert part_header == header
    expected = [line for line in full_rows if keep(line.split(","))]
    assert part_rows == expected and len(expected) < len(full_rows)


class TestParallelUnits:
    @pytest.mark.parametrize("argv", [
        ["bench", "--tasks", "30", "--mode", "metadataset",
         "--method", "simple,transductive,gmm-em"],
        ["recall", "--tasks", "6", "--method", "simple,transductive"],
        [*SMALL_ACTIVE, "--sessions", "3", "--strategy", "all"],
        [*SMALL_CONTINUAL, "--streams", "2", "--strategy", "all", "--head-mode", "both"],
        ["riemann", "--fields", "5", "--dims", "3", "--points-per-field", "3"],
    ], ids=lambda argv: argv[0])
    def test_serial_and_parallel_write_identical_bytes(self, tmp_path, monkeypatch, argv):
        outputs = []
        for workers in (1, 2):
            monkeypatch.setattr(parallel, "_worker_count", lambda count, w=workers: min(w, count))
            out = tmp_path / f"{workers}.csv"
            assert cli_main([*argv, "--seed", "5", "--out", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_dead_worker_exits_one_with_an_error_line(self, monkeypatch, capsys):
        monkeypatch.setattr(parallel, "_worker_count", lambda count: min(2, count))
        monkeypatch.setattr(bench, "evaluate_task", lambda fits, task: os._exit(1))
        assert cli_main(["bench", "--tasks", "30", "--method", "simple"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


# one call in a fresh interpreter, serial; stderr gets its exit code and the
# minor page faults the process took during the call
FAULTS_PROBE = """
import resource, sys
from mahabench import cli, parallel
parallel._worker_count = lambda count: 1
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
code = cli.cli_main(sys.argv[1:])
print(code, resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before, file=sys.stderr)
"""


def has_mallopt() -> bool:
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except (OSError, TypeError):
        return False


@pytest.mark.skipif(not has_mallopt(), reason="the C library has no mallopt")
def test_a_run_keeps_its_heap_mapped_between_tasks():
    # with glibc's default thresholds each task's freed statistics and query
    # moments go back to the OS and are faulted in again by the next task:
    # about 10k minor faults for this call, against about 1.1k with the CLI's
    # thresholds
    out = run_python("-c", FAULTS_PROBE, "bench", "--mode", "metadataset", "--dims", "32",
                     "--classes", "20", "--tasks", "30",
                     "--method", "simple,transductive,gmm-em")
    code, faults = map(int, out.stderr.split())
    assert code == 0
    assert faults < 3000
