"""The benchmark's workloads: one CLI argv each, plus the rows it must write.

Every workload is one ``mahabench`` subcommand at the benchmark seed.  The
size flag sets how long one CLI call runs; ``expected_rows`` derives the
CSV row count from the argv alone, independently of the program.  Why each
workload was chosen is recorded in BENCHMARK.json and the README.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple  # subcommand and flags, without --seed, --out and the size flag
    size_flag: str
    size: int

    def cli_argv(self, seed: int, out: str, size: int | None = None) -> list:
        """The full argv of one CLI call; ``size`` overrides the run length."""
        n = self.size if size is None else size
        return [*self.argv, self.size_flag, str(n), "--seed", str(seed), "--out", out]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "meta-wide",
            ("bench", "--mode", "metadataset", "--dims", "32", "--classes", "20",
             "--method", "simple,transductive,gmm-em"),
            "--tasks", 160,
        ),
        Workload(
            "active-pool",
            ("active", "--budget", "20", "--pool-per-class", "10", "--method", "transductive"),
            "--sessions", 20,
        ),
        Workload(
            "continual-stream",
            ("continual", "--length", "10", "--dims", "16"),
            "--streams", 20,
        ),
        Workload(
            "riemann-fields",
            ("riemann", "--dims", "16"),
            "--fields", 2000,
        ),
    )
}

# CSV columns that must hold finite numbers, per subcommand
VALUE_COLUMNS = {
    "bench": ("accuracy",),
    "active": ("accuracy",),
    "continual": ("accuracy",),
    "riemann": ("delta_energy", "half_gap", "rel_error"),
}

# a riemann check counts as accurate below this relative error, as the CLI prints
RIEMANN_ACCURATE_BELOW = 0.05

_ACTIVE_STRATEGIES = 3  # random, entropy, variation-ratios
_CONTINUAL_STRATEGIES = 3  # moving, first, averaging
_CONTINUAL_HEAD_MODES = 2  # multi, single


def _flag(argv, name, default):
    """Value of the last ``name`` flag in argv, or ``default``."""
    value = default
    for i, token in enumerate(argv[:-1]):
        if token == name:
            value = argv[i + 1]
    return value


def _count_list(value: str, everything: int) -> int:
    if value in ("all", "both"):
        return everything
    return len([v for v in value.split(",") if v.strip()])


def expected_rows(argv) -> int:
    """CSV data rows a successful CLI call with this argv writes."""
    command = argv[0]
    if command == "bench":
        methods = _flag(argv, "--method", "simple,transductive")
        return int(_flag(argv, "--tasks", 100)) * _count_list(methods, 0)
    if command == "active":
        strategies = _count_list(_flag(argv, "--strategy", "all"), _ACTIVE_STRATEGIES)
        steps = int(_flag(argv, "--budget", 20)) + 1
        return int(_flag(argv, "--sessions", 50)) * strategies * steps
    if command == "continual":
        strategies = _count_list(_flag(argv, "--strategy", "all"), _CONTINUAL_STRATEGIES)
        modes = _count_list(_flag(argv, "--head-mode", "both"), _CONTINUAL_HEAD_MODES)
        length = int(_flag(argv, "--length", 5))
        cells = length * (length + 1) // 2
        return int(_flag(argv, "--streams", 20)) * strategies * modes * cells
    if command == "riemann":
        return int(_flag(argv, "--fields", 100)) * int(_flag(argv, "--points-per-field", 1))
    raise ValueError(f"no row count known for subcommand {command!r}")
