"""Seed-0 CSV bytes of one small run per subcommand.

A change that means to keep every output (a refactor, a speed-up) must
keep these hashes; a change that moves rows on purpose re-pins them and
says which rows moved and why.  Floating-point results depend on the
numerical stack: the hashes were taken with numpy 2.4.6, scipy 1.17.1 and
scipy-openblas 0.3.31 (OpenBLAS, Haswell kernels), both serially and on
two worker processes.
"""

import hashlib

import pytest

from mahabench.cli import cli_main

PINNED = {
    "bench": (
        ["bench", "--mode", "metadataset", "--dims", "8", "--classes", "10",
         "--method", "simple,transductive,gmm-em", "--tasks", "30"],
        "7724465c3107316ebfc4f0f466e85e2d7983a787c711466f2cbff3bd02749daf",
    ),
    "recall": (
        ["recall", "--tasks", "8", "--method", "simple,transductive,gmm-em"],
        "02f59205cc2db9a2d2f8268f47cbda06b3d30c1056471b3502378c9276f1115c",
    ),
    "active": (
        # classes close together, so that the curves do not sit at accuracy 1
        ["active", "--sessions", "2", "--budget", "6", "--classes", "5", "--mean-radius", "1.5",
         "--pool-per-class", "3", "--test-per-class", "4", "--method", "transductive"],
        "d4dd653690a26c2bd73834f4bb359ec5a076111617afa171c03cb59e143e3c33",
    ),
    "continual": (
        ["continual", "--streams", "2", "--length", "3", "--shot", "3", "--query", "3"],
        "4f2a350252de738959e321ea65b80a186ecb8d50636e9155b853d1ce05545362",
    ),
    "riemann": (
        ["riemann", "--fields", "6", "--dims", "3", "--points-per-field", "2"],
        "a0e767d378474996346e6faffd6085aa8dd5c2d11d12a398ab80c8e40a6c70ca",
    ),
}


@pytest.mark.parametrize("name", list(PINNED))
def test_seed_zero_csv_is_unchanged(name, tmp_path, capsys):
    argv, digest = PINNED[name]
    out = tmp_path / f"{name}.csv"
    assert cli_main([*argv, "--seed", "0", "--out", str(out)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
