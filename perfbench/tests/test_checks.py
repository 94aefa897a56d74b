import pytest

from perfbench.checks import check_csv
from perfbench.workloads import WORKLOADS, expected_rows

BENCH_CSV = (
    '# {"command": "bench"}\n'
    "domain_id,method,task_index,task_seed,accuracy\n"
    "world,simple,0,11,0.5\n"
    "world,simple,1,12,0.75\n"
    "world,simple,2,13,1.0\n"
    "world,simple,3,14,0.25\n"
)


def _write(tmp_path, text):
    path = tmp_path / "out.csv"
    path.write_text(text, encoding="utf-8")
    return path


def test_complete_csv_passes(tmp_path):
    check = check_csv(_write(tmp_path, BENCH_CSV), "bench", 4)
    assert (check.found, check.failed, check.problem) == (4, 0, None)
    assert check.failed / check.expected == 0.0
    assert check.mean_accuracy == pytest.approx(0.625)
    assert len(check.sha256) == 64


def test_truncated_csv_counts_missing_rows(tmp_path):
    truncated = BENCH_CSV[: BENCH_CSV.index("world,simple,2")]
    check = check_csv(_write(tmp_path, truncated), "bench", 4)
    assert check.found == 2
    assert check.failed / check.expected == 0.5
    assert check.mean_accuracy == pytest.approx(0.625)
    assert "2 rows, expected 4" in check.problem


def test_nan_and_out_of_range_rows_are_invalid(tmp_path):
    bad = BENCH_CSV.replace(",0.75\n", ",nan\n").replace(",0.25\n", ",1.5\n")
    check = check_csv(_write(tmp_path, bad), "bench", 4)
    assert check.found == 4
    assert check.failed / check.expected == 0.5
    assert check.mean_accuracy == pytest.approx(0.75)


def test_missing_file_fails_every_row(tmp_path):
    check = check_csv(tmp_path / "absent.csv", "bench", 4)
    assert check.failed / check.expected == 1.0
    assert check.sha256 is None


def test_riemann_accuracy_is_share_below_five_percent(tmp_path):
    text = (
        '# {"command": "riemann"}\n'
        "field_seed,pair,delta_energy,half_gap,rel_error\n"
        "1,0-1,2.0,2.01,0.005\n"
        "2,0-1,2.0,2.5,0.25\n"
        "3,0-1,2.0,inf,inf\n"
    )
    check = check_csv(_write(tmp_path, text), "riemann", 3)
    assert check.failed == 1
    assert check.mean_accuracy == pytest.approx(0.5)


@pytest.mark.parametrize(
    "name, size, rows",
    [
        ("meta-wide", 40, 120),
        ("active-pool", 20, 1260),
        ("continual-stream", 20, 6600),
        ("riemann-fields", 2000, 2000),
    ],
)
def test_expected_rows_follow_the_argv(name, size, rows):
    assert expected_rows(WORKLOADS[name].cli_argv(0, "out.csv", size)) == rows
