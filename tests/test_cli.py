import json

import pytest

from mahabench.cli import cli_main


def read_csv(path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# ")
    return json.loads(lines[0][2:]), lines[1], lines[2:]


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
    ])
    def test_config_errors_exit_two(self, argv, capsys):
        assert cli_main(argv) == 2
        assert "config error" in capsys.readouterr().err

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
