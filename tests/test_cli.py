import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from mahabench import bench, parallel
from mahabench.cli import cli_main


def read_csv(path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# ")
    return json.loads(lines[0][2:]), lines[1], lines[2:]


def run_module(module, argv):
    """``python -m module *argv`` with this checkout's package importable."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", module, *argv], capture_output=True,
                          text=True, timeout=120, env={**os.environ, "PYTHONPATH": path})


SMALL_ACTIVE = ["active", "--sessions", "1", "--budget", "2", "--classes", "3",
                "--pool-per-class", "2", "--test-per-class", "2", "--strategy", "entropy"]
SMALL_CONTINUAL = ["continual", "--streams", "1", "--length", "2", "--shot", "3",
                   "--query", "2", "--strategy", "moving", "--head-mode", "single"]


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

    def test_metric_flag_is_gone(self, capsys):
        assert cli_main(["bench", "--metric", "mahalanobis"]) == 2
        assert "--metric" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["bench", "--method", "nope"],
        ["bench", "--method", "simple:nope"],
        ["bench", "--tasks", "5"],
        ["recall", "--scale-spread", "0.5"],
        ["gen-tasks"],
        ["continual", "--min-steps", "0"],
        ["bench", "--tasks", "30", "--beta", "-1"],
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
    ])
    def test_config_errors_exit_two(self, argv, capsys):
        assert cli_main(argv) == 2
        assert "config error" in capsys.readouterr().err

    def test_empty_tasks_file_exits_two(self, tmp_path, capsys):
        tasks, out = tmp_path / "tasks.jsonl", tmp_path / "out.csv"
        assert cli_main(["gen-tasks", "--tasks", "0", "--out", str(tasks)]) == 0
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

    def test_riemann_runs(self, tmp_path):
        out = tmp_path / "riemann.csv"
        assert cli_main(["riemann", "--fields", "2", "--dims", "2", "--out", str(out)]) == 0
        _, header, rows = read_csv(out)
        assert header == "field_seed,pair,delta_energy,half_gap,rel_error"
        assert len(rows) == 2


class TestModuleEntryPoints:
    @pytest.mark.parametrize("module", ["mahabench", "mahabench.cli"])
    def test_runs_the_command_line(self, tmp_path, module):
        out = tmp_path / "riemann.csv"
        argv = ["riemann", "--fields", "2", "--dims", "2", "--out", str(out)]
        done = run_module(module, argv)
        assert done.returncode == 0, done.stderr
        assert "median rel error" in done.stdout
        _, header, rows = read_csv(out)
        assert header == "field_seed,pair,delta_energy,half_gap,rel_error"
        assert len(rows) == 2

    @pytest.mark.parametrize("module", ["mahabench", "mahabench.cli"])
    def test_config_error_exits_two(self, module):
        done = run_module(module, ["recall", "--scale-spread", "0.5"])
        assert done.returncode == 2
        assert "config error" in done.stderr


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
        monkeypatch.setattr(bench, "evaluate_task", lambda head, task: os._exit(1))
        assert cli_main(["bench", "--tasks", "30", "--method", "simple"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
