"""Seed-0 CSV bytes of one small run per subcommand.

A change that means to keep every output (a refactor, a speed-up) must
keep these hashes; a change that moves rows on purpose re-pins them and
says which rows moved and why.  Floating-point results depend on the
numerical stack: the hashes were taken with numpy 2.4.6 and scipy 1.17.1,
both serially and on two worker processes.  One OpenBLAS build does the
arithmetic: numpy's scipy-openblas64 0.3.31 does every matmul and einsum,
every factorization and, through ``spd``'s ctypes binding, every
``dtrtri``.  Until the package dropped scipy, scipy's own scipy-openblas
0.3.30 did every ``dtrtri`` and every ``dpotrf`` outside
``np.linalg.cholesky``; every pin held across that change, because the two
``dtrtri`` agree bit for bit and no pinned run repairs a covariance.  It is
a DYNAMIC_ARCH build, which picks its kernels for the CPU at run time
(SkylakeX on the Xeon the hashes were last checked on).  The classifier pins also hold under the
Haswell kernels; the riemann pins do not, because riemann writes raw float
energies and its QR, covariance products and factorizations round as the
kernel does.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from scipy.linalg import cho_solve, cholesky

from mahabench import riemann
from mahabench.cli import build_parser, cli_main
from mahabench.riemann import MetricField
from mahabench.rng import Rng, derive_seed

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
    "continual-two-blocks": (
        # a block of 5 streams and a block of 2, under averaging frames and a
        # refining head; hash taken when every stream drew from its own Rng
        # and every fit applied its own working frame
        ["continual", "--streams", "7", "--length", "4", "--shot", "3", "--query", "3",
         "--dims", "3", "--drift", "1.5", "--method", "transductive",
         "--strategy", "averaging,moving", "--head-mode", "multi"],
        "a13c83e0754b22d1da0013c673c035dfa54b64b95346a1da76faf34efa65bcd7",
    ),
    # both riemann hashes were taken when a block's precisions, path
    # energies and Mahalanobis terms became array expressions; against the
    # per-field formulas before them every row moved by roundoff alone
    # (test_the_riemann_pins_are_the_old_formulas_up_to_roundoff)
    "riemann": (
        ["riemann", "--fields", "6", "--dims", "3", "--points-per-field", "2"],
        "c2f68bffe1ca9af7d319f630ee55f1305c9568dbd11f42f8d734d56ca1933a8e",
    ),
    "riemann-blocks": (
        # computed in two blocks, of 61 and 9 fields
        ["riemann", "--fields", "70", "--dims", "5", "--points-per-field", "2",
         "--quadrature", "40"],
        "8424adace48dc500f6b5d63d7dd0ef97964cc9c3ab80c2385ad45e1260358157",
    ),
}
CLASSIFIER_PINS = [name for name in PINNED if not name.startswith("riemann")]


@pytest.mark.parametrize("name", list(PINNED))
def test_seed_zero_csv_is_unchanged(name, tmp_path, capsys):
    argv, digest = PINNED[name]
    out = tmp_path / f"{name}.csv"
    assert cli_main([*argv, "--seed", "0", "--out", str(out)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def has_avx2() -> bool:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            return any(line.startswith("flags") and " avx2" in line for line in fh)
    except OSError:
        return False


@pytest.mark.skipif(not has_avx2(), reason="the Haswell kernels need AVX2")
def test_the_classifier_pins_hold_under_the_haswell_kernels(tmp_path):
    # OPENBLAS_CORETYPE overrides the kernels both OpenBLAS builds pick as
    # they load, so it takes a fresh interpreter; one runs every classifier argv
    outs = {name: str(tmp_path / f"{name}.csv") for name in CLASSIFIER_PINS}
    argvs = {name: [*PINNED[name][0], "--seed", "0", "--out", out] for name, out in outs.items()}
    script = ("import contextlib, hashlib, io, json, sys; from mahabench.cli import cli_main\n"
              f"argvs, outs = {argvs!r}, {outs!r}\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              "    codes = {name: cli_main(argv) for name, argv in argvs.items()}\n"
              "print(json.dumps([codes, {name: hashlib.sha256(open(out, 'rb').read()).hexdigest()"
              " for name, out in outs.items()}]))")
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=300, env={**os.environ, "PYTHONPATH": path,
                                            "OPENBLAS_CORETYPE": "Haswell"})
    assert done.returncode == 0, done.stderr
    codes, digests = json.loads(done.stdout.splitlines()[-1])
    assert codes == dict.fromkeys(CLASSIFIER_PINS, 0)
    assert digests == {name: PINNED[name][1] for name in CLASSIFIER_PINS}


def csv_rows(path) -> list:
    """The data rows of a CSV the CLI wrote, without its config line and header."""
    return path.read_text(encoding="utf-8").splitlines()[2:]


def test_a_riemann_row_does_not_depend_on_its_block(tmp_path, capsys):
    # 70 fields run in blocks of 61 and 9, 30 fields in one block of 30
    argv = PINNED["riemann-blocks"][0]
    assert riemann.block_size(5, 40, 2) == 61
    rows = {}
    for fields in ("70", "30"):
        out = tmp_path / f"{fields}.csv"
        assert cli_main([*argv, "--fields", fields, "--seed", "0", "--out", str(out)]) == 0
        rows[fields] = csv_rows(out)
    capsys.readouterr()
    assert len(rows["30"]) == 60 and rows["70"][:60] == rows["30"]


def old_path_energy(field: MetricField, x, y, quadrature_points) -> float:
    """One path's energy by riemann's per-path formulas before its block
    expressions: q_k = delta^T P_k delta by one einsum, then one (nodes, K)
    @ (K,) mix and one weights @ values sum."""
    delta = y - x
    if not delta.any():
        return 0.0
    offset = x - field.centroids
    a, b, c = delta @ delta, offset @ delta, np.einsum("kd,kd->k", offset, offset)
    part = field.partition
    nodes, weights, _offsets = riemann._quadrature_grid(quadrature_points, *riemann._crossings(
        part.plateau_radius[None], part.support_radius[None], a[None], b[None], c[None]))
    dist = np.sqrt(np.maximum((a * nodes[:, None] + 2.0 * b) * nodes[:, None] + c, 0.0))
    q = np.einsum("kde,d,e->k", field.precisions, delta, delta)
    mixed = riemann._column_weights(dist.T, part.plateau_radius[:, None],
                                    part.support_radius[:, None]).T
    return weights @ (mixed @ q)


@pytest.mark.parametrize("name", ["riemann", "riemann-blocks"])
def test_the_riemann_pins_are_the_old_formulas_up_to_roundoff(name, tmp_path, capsys,
                                                              monkeypatch):
    argv = PINNED[name][0]
    out = tmp_path / "rows.csv"
    assert cli_main([*argv, "--seed", "0", "--out", str(out)]) == 0
    capsys.readouterr()
    rows = [line.split(",") for line in csv_rows(out)]
    args = build_parser().parse_args(argv)
    # each field's covariances, for its precisions by the old Cholesky solve
    covariances = []
    build = MetricField.from_covariances.__func__
    monkeypatch.setattr(MetricField, "from_covariances", classmethod(
        lambda cls, cents, covs, *rest: covariances.append(covs) or build(cls, cents, covs, *rest)))
    expected = []
    for fid in range(args.fields):
        seed = derive_seed(0, "riemann", fid)
        field = riemann.make_two_centroid_field(seed, dims=args.dims)
        precisions = np.stack([cho_solve((cholesky(cov, lower=True), True), np.eye(args.dims))
                               for cov in covariances[-1]])
        field = MetricField(field.centroids, precisions, field.partition)
        rng = Rng(derive_seed(seed, "points"))
        for _p in range(args.points_per_field):
            x = riemann.sample_plateau_point(field, 0, rng)
            energy = [old_path_energy(field, x, mu, args.quadrature) for mu in field.centroids]
            maha = [(x - mu) @ p @ (x - mu) for mu, p in zip(field.centroids, precisions)]
            expected.append((seed, energy[0] - energy[1], 0.5 * (maha[0] - maha[1])))
    assert [int(row[0]) for row in rows] == [seed for seed, _e, _h in expected]
    new = np.array([[float(row[2]), float(row[3])] for row in rows])
    old = np.array([[e, h] for _s, e, h in expected])
    assert np.all(np.abs(new - old) <= 1e-12 * np.abs(old))
