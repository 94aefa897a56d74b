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
        "0239740690f0a9c5e30c2c2c19480114e2670b1a25b6f65941a9173e0e90ec18",
    ),
    "bench-wide": (
        # d = 32, up to 20 classes and 30 queries a class: the estimator's
        # moments and the one-GEMM scoring at full size; the hash was taken
        # when every estimate was computed from centered differences
        ["bench", "--mode", "metadataset", "--dims", "32", "--classes", "20",
         "--query", "30", "--tasks", "30"],
        "9e3d6dfa0e43fce8ac810a58b21920fe986beb0c79129854357b1fec640eff32",
    ),
    "recall": (
        ["recall", "--tasks", "8", "--method", "simple,transductive,gmm-em"],
        "6d023f3e9afc1d163f15da31e5729e105cdf05e0449ac58f3051fefe175a1f83",
    ),
    "active": (
        # classes close together, so that the curves do not sit at accuracy 1
        ["active", "--sessions", "2", "--budget", "6", "--classes", "5", "--mean-radius", "1.5",
         "--pool-per-class", "3", "--test-per-class", "4", "--method", "transductive"],
        "374c99ce62a84a5bed81a11114fce31a058dca3f3841c5ea54dd8ae104d87455",
    ),
    # the small active argv under heads and strategies the workload does not
    # run; hashes taken when each (session, strategy) pair ran on its own
    "active-gmm-em": (
        ["active", "--sessions", "2", "--budget", "6", "--classes", "5", "--mean-radius", "1.5",
         "--pool-per-class", "3", "--test-per-class", "4", "--method", "gmm-em"],
        "4ae86731edf306593ac80c4d4607c41581408df44b73c0d7f1ab16727d813e0b",
    ),
    "active-euclidean": (
        ["active", "--sessions", "2", "--budget", "6", "--classes", "5", "--mean-radius", "1.5",
         "--pool-per-class", "3", "--test-per-class", "4", "--method", "simple:euclidean"],
        "f101937ecf13a340489bb4dffcb0b4d1994cd03f8d373f52c6476354b4419d62",
    ),
    "active-two-strategies": (
        ["active", "--sessions", "2", "--budget", "6", "--classes", "5", "--mean-radius", "1.5",
         "--pool-per-class", "3", "--test-per-class", "4", "--method", "transductive",
         "--strategy", "random,entropy"],
        "556b95f755e03f125ffea9ff245b2203cf9be5e4263e1f60a7197f37b7301493",
    ),
    "continual": (
        ["continual", "--streams", "2", "--length", "3", "--shot", "3", "--query", "3"],
        "63f7848297fb6e49a564b69a2a2167b0b13eda7f6be6b603b876b25bebb1eece",
    ),
    "continual-gmm": (
        # multi-head GMM scores carry a log(1/K) prior over every seen class;
        # a prior over the task's group alone gives these same bytes
        ["continual", "--streams", "4", "--length", "5", "--method", "gmm-em"],
        "a23367f8136230744b88e5708e843d256419d9190159c86e9de3ce289653df8c",
    ),
    "riemann": (
        ["riemann", "--fields", "6", "--dims", "3", "--points-per-field", "2"],
        "0107d4aeeee01f021b003cc997ad23d3d8263b07beebd450fa2f318479745f88",
    ),
    "riemann-blocks": (
        # computed in two blocks, of 61 and 9 fields; the hash was taken when
        # riemann computed one field at a time
        ["riemann", "--fields", "70", "--dims", "5", "--points-per-field", "2",
         "--quadrature", "40"],
        "dff14d835d3c31c755637621dc4d423002b2d5a9c946ae073cc7bd073c5c2d84",
    ),
}


@pytest.mark.parametrize("name", list(PINNED))
def test_seed_zero_csv_is_unchanged(name, tmp_path, capsys):
    argv, digest = PINNED[name]
    out = tmp_path / f"{name}.csv"
    assert cli_main([*argv, "--seed", "0", "--out", str(out)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
