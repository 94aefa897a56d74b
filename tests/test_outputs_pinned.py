"""Seed-0 CSV bytes of one small run per subcommand.

A change that means to keep every output (a refactor, a speed-up) must
keep these hashes; a change that moves rows on purpose re-pins them and
says which rows moved and why.  Floating-point results depend on the
numerical stack: the hashes were taken with numpy 2.4.6 and scipy 1.17.1,
both serially and on two worker processes.  Two OpenBLAS builds do the
arithmetic: numpy's scipy-openblas64 0.3.31 does every matmul and einsum,
and scipy's own scipy-openblas 0.3.30 (the library ``ldd`` shows
``scipy/linalg/_flapack*.so`` linked to) does every ``dpotrf``, ``dtrtri``
and ``dpotrs``.  Both are DYNAMIC_ARCH builds, which pick their kernels for
the CPU at run time (SkylakeX on the Xeon the hashes were last checked on).
"""

import hashlib

import pytest

from mahabench.cli import cli_main

PINNED = {
    "bench": (
        ["bench", "--mode", "metadataset", "--dims", "8", "--classes", "10",
         "--method", "simple,transductive,gmm-em", "--tasks", "30"],
        "cf3762a20798969a891850f1fdf8cf714051c855f6d8542e91141373d64d3b2d",
    ),
    "recall": (
        ["recall", "--tasks", "8", "--method", "simple,transductive,gmm-em"],
        "b917e63a97921b439ba223b4f290400771705e26fcaf313859734f884786b10c",
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
