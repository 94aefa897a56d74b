"""Run benchmark workloads through the mahabench CLI and print their metrics.

    python3 perfbench/run.py --workload meta-wide --seed 3 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seconds 10

Each run first starts import-only children (one warm-up that records the
environment, then ``PROBES`` timed ones), then starts one child at a time,
each making one ``cli_main`` call with the workload's argv, until
``--seconds`` are used up.  With ``--trace 1`` untraced and traced children
alternate and the per-layer metrics are printed instead of the end-to-end
ones.  Every child's CSV is checked; the last stdout line is the JSON result.
Exit code 2 means nothing could be measured (for example, no ``src/mahabench``).
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.checks import CsvCheck, all_failed, check_csv  # noqa: E402
from perfbench.child import BLAS_THREAD_VARS  # noqa: E402
from perfbench.layertrace import metric_units  # noqa: E402
from perfbench.workloads import WORKLOADS, Workload, expected_rows  # noqa: E402

SRC = ROOT / "src"
WORK = ROOT / "perfbench" / ".work"
PROBES = 3  # timed import-only children per run, besides the warm-up
RUN_LIMIT_S = 150.0  # no child may still run this long after the run started

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "items_per_s": "1/s",
    "peak_rss_mb": "MiB",
    "mean_accuracy": "fraction",
    "rows_valid_frac": "fraction",
}


class SetupError(RuntimeError):
    """The program could not be measured at all."""


@dataclass
class ChildRun:
    mode: str
    exit_code: int | None  # of the child process; None if it was killed
    record: dict | None  # the child's JSON record
    elapsed_s: float  # process lifetime as the parent saw it
    check: CsvCheck | None = None
    log_tail: str = ""


def _child_env() -> dict:
    """The caller's environment without BLAS thread settings, so the
    library default applies as it does for users."""
    return {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}


def _run_child(workdir: Path, mode: str, cli_argv: list, deadline: float,
               spans: Path | None = None) -> ChildRun:
    result = workdir / "result.json"
    log = workdir / "child.log"
    result.unlink(missing_ok=True)
    extra = [str(spans)] if spans is not None else []
    cmd = [sys.executable, "-m", "perfbench.child", mode, str(SRC), str(result), *extra,
           "--", *cli_argv]
    started = time.perf_counter()
    with open(log, "w", encoding="utf-8") as fh:
        try:
            code = subprocess.run(
                cmd, cwd=ROOT, env=_child_env(), stdout=fh, stderr=subprocess.STDOUT,
                timeout=max(1.0, deadline - started),
            ).returncode
        except subprocess.TimeoutExpired:
            code = None
    elapsed = time.perf_counter() - started
    record = json.loads(result.read_text()) if code == 0 and result.exists() else None
    tail = log.read_text(encoding="utf-8", errors="replace").strip().splitlines()[-3:]
    return ChildRun(mode, code, record, elapsed, log_tail=" | ".join(tail))


def spans_path(workload: Workload) -> Path:
    """Where the last traced child of a workload leaves its raw spans."""
    return WORK / f"spans-{workload.name}.json"


def _git_rev() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired) as exc:
        return f"unknown ({exc})"
    return out.stdout.strip() or f"unknown ({out.stderr.strip()})"


def _check_child(child: ChildRun, command: str, expected: int, csv_path: Path) -> CsvCheck:
    if child.record is None:
        reason = "killed at the run limit" if child.exit_code is None else (
            f"child exited with {child.exit_code}")
        return all_failed(expected, f"{reason}: {child.log_tail}")
    if child.record["exit_code"] != 0:
        return all_failed(expected, f"CLI exit code {child.record['exit_code']}: {child.log_tail}")
    return check_csv(csv_path, command, expected)


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool,
                 size: int | None = None) -> dict:
    """Measure one workload; returns the result and the run's details.

    ``size`` overrides the workload's size flag (the tests' smoke runs).
    Traced children write their spans to ``spans_path(workload)``.
    """
    if not (SRC / "mahabench" / "cli.py").is_file():
        raise SetupError(f"no program to measure: {SRC / 'mahabench' / 'cli.py'} is missing")
    run_start = time.perf_counter()
    deadline = run_start + RUN_LIMIT_S
    WORK.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK))
    try:
        csv_path = workdir / "out.csv"
        argv = workload.cli_argv(seed, str(csv_path), size)
        expected = expected_rows(argv)

        probes = []
        for _ in range(1 + PROBES):
            probe = _run_child(workdir, "probe", [], deadline)
            if probe.record is None:
                raise SetupError(f"the program could not be imported: {probe.log_tail}")
            probes.append(probe.record)
        setup = [p["setup_s"] for p in probes[1:]]  # the first one warms caches

        modes = ("plain", "traced") if trace else ("plain",)
        children = []
        measure_end = time.perf_counter() + seconds
        while True:
            mode = modes[len(children) % len(modes)]
            previous = [c.elapsed_s for c in children if c.mode == mode]
            now = time.perf_counter()
            if len(children) >= len(modes) and now + previous[-1] > min(measure_end, deadline):
                break
            child = _run_child(workdir, mode, argv, deadline,
                               spans_path(workload) if mode == "traced" else None)
            child.check = _check_child(child, argv[0], expected, csv_path)
            csv_path.unlink(missing_ok=True)
            children.append(child)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    shas = Counter(c.check.sha256 for c in children if c.check.sha256 is not None)
    reference = shas.most_common(1)[0][0] if shas else None
    for child in children:
        if child.check.sha256 is not None and child.check.sha256 != reference:
            child.check = all_failed(expected, f"output sha256 {child.check.sha256} differs "
                                     f"from {reference}", child.check.sha256)

    plain = [c for c in children if c.mode == "plain" and c.record is not None]
    if not plain:
        raise SetupError(f"no CLI call completed: {children[0].check.problem}")
    setup.extend(c.record["setup_s"] for c in children if c.record is not None)
    attempted = sum(c.check.expected for c in children)
    failed = sum(c.check.failed for c in children)
    metrics = {
        "setup_s": median(setup),
        "wall_s": median(c.record["wall_s"] for c in plain),
        "items_per_s": median(c.check.found / c.record["wall_s"] for c in plain),
        "peak_rss_mb": median(c.record["peak_rss_mb"] for c in plain),
        "mean_accuracy": median(c.check.mean_accuracy for c in plain),
        "rows_valid_frac": 1.0 - failed / attempted,
    }
    units = dict(END_TO_END)
    if trace:
        traced = [c for c in children if c.mode == "traced" and c.record is not None]
        units = metric_units()
        layers = {
            name: median(c.record["layers"][name] for c in traced) if traced else 0.0
            for name in units if name != "trace.overhead_s"
        }
        layers["trace.overhead_s"] = (
            median(c.record["wall_s"] for c in traced) - metrics["wall_s"] if traced else 0.0
        )
        metrics = layers
    return {
        "workload": workload.name,
        "argv": argv,
        "environment": {**probes[0]["environment"], "git_rev": _git_rev(),
                        "blas_thread_vars_of_caller":
                            {v: os.environ.get(v) for v in BLAS_THREAD_VARS}},
        "children": children,
        "output_sha256": reference,
        "result": {
            "correct": failed == 0 and len(shas) == 1,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
        },
    }


def _print_details(run: dict) -> None:
    print(f"workload {run['workload']}: mahabench {' '.join(run['argv'])}")
    print("environment " + json.dumps(run["environment"], sort_keys=True))
    for i, child in enumerate(run["children"], 1):
        rec = child.record or {}
        print(
            f"  child {i} {child.mode}: exit {child.exit_code}, "
            f"setup {rec.get('setup_s', float('nan')):.4f} s, "
            f"wall {rec.get('wall_s', float('nan')):.4f} s, "
            f"rss {rec.get('peak_rss_mb', float('nan')):.1f} MiB, "
            f"rows {child.check.found}/{child.check.expected}, failed {child.check.failed}, "
            f"sha256 {child.check.sha256}"
            + (f", bindings {sum(rec['bindings'].values())}" if "bindings" in rec else "")
            + (f"; {child.check.problem}" if child.check.problem else "")
        )
    result = run["result"]
    print(f"output_sha256 {run['output_sha256']}")
    for name, metric in result["metrics"].items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    error_rate = result["failed"] / result["attempted"]
    verdict = "correct" if result["correct"] else "INCORRECT"
    print(f"{verdict}: {result['failed']} of {result['attempted']} expected rows "
          f"missing or invalid (error_rate {error_rate:.6g})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            run = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
            _print_details(run)
            results[name] = run["result"]
    except SetupError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    if len(names) > 1:
        print("summary")
        for name, result in results.items():
            shown = ", ".join(f"{m} {v['value']:.4g} {v['unit']}"
                              for m, v in result["metrics"].items()
                              if args.trace == 0 or m.endswith(".self_s"))
            print(f"  {name}: {'correct' if result['correct'] else 'INCORRECT'}; {shown}")
        print(json.dumps(results))
    else:
        print(json.dumps(results[names[0]]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
