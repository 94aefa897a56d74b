"""Command-line benchmark runner.

Subcommands: bench, recall, active, continual, riemann, gen-tasks.  Each
takes only the flags its run reads; any other flag exits 2.  The run flags
(``--seed --out`` and the world: ``--dims --classes --anisotropy
--mean-radius --scale-spread --domain-id``) go to every subcommand but
riemann, which takes ``--seed --out --dims`` and its own; the head flags
(``--method --min-steps --max-steps --beta``) to bench, recall, active and
continual, where the step limits may move from their defaults only when
some method refines (``transductive``, ``gmm-em``); ``--tasks`` to bench,
gen-tasks and recall; the sampler flags (``--mode --way --shot --query``)
to bench and gen-tasks.  Exit codes: 0 success, 2 configuration/usage error,
1 runtime error.

Every run prints its configuration to stdout as one JSON line before it
runs, and a CSV written to --out starts with the same line after ``# ``
(bench's JSON report holds it as ``config``).  The line holds the command,
the value of every flag the run reads, ``schema``, the facts the run derives
from its flags (active and continual ``strategies``, continual
``head_modes`` and its effective ``classes``, a tasks file's ``n_tasks`` and
``tasks_sha256``), and ``config_hash``: the first 12 hex digits of the
sha256 of the sorted JSON of all the rest.  It holds no paths (``--out``,
``--tasks-file``), and no flag the run leaves unread: such a flag set away
from its default exits 2.  Checks on flag values run before the echo.
Identical seeds produce byte-identical outputs.  Both digests come from
CPython's builtin SHA-256 module (``_sha2``, or ``_sha256`` before 3.12),
the bytes of ``hashlib.sha256``, which would also load OpenSSL: 3.6 MiB of
every run's resident memory for two short hashes.

bench and recall tasks, and blocks of active sessions, continual streams
(``LOCKSTEP_BLOCK`` each) and riemann fields, run in forked worker
processes, one per CPU of the process's affinity mask.  One runner,
``_by_block``, seeds unit i ``derive_seeds(--seed, tag, i)`` and runs the
blocks, so the rows come out in the same order and bytes as a serial run,
whatever the block size.  A comma list that names a method, strategy or
head mode twice, or one head under two names, exits 2.  ``taskset -c 0
mahabench ...`` runs serially, which is also how to take a per-layer trace.
Without ``fork`` (or ``sched_getaffinity``) every run is serial.  ``python
-m mahabench`` and ``python -m mahabench.cli`` run the same command line as
the ``mahabench`` script.

``cli_main`` raises glibc's malloc trim threshold to 256 MiB and its mmap
threshold to 32 MiB (``mallopt``) for its process, and so for the workers
it forks.  With glibc's defaults, the statistics a fit returns and a
task's query moments are freed at the end of almost every task, the heap
top goes back to the OS, and the next task page-faults it in again.  On a
2-vCPU Xeon under ``taskset -c 0``, a seed-0 ``bench --mode metadataset
--dims 32 --classes 20 --tasks 160`` call took 64.5k minor faults and
0.14-0.19 s of system time that way, against 1.2k and under 0.01 s with
these thresholds, for the same bytes.  The library sets no allocator
parameter, so a program that imports it keeps its own; a C library
without ``mallopt`` is left as it is.
"""

import argparse
import csv
import ctypes
import json
import math
import sys
from dataclasses import replace
from itertools import repeat

import numpy as np

try:  # not hashlib, which loads OpenSSL (see the module docstring)
    from _sha2 import sha256  # Python 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:  # an interpreter built without either module
        from hashlib import sha256

from . import bench as bench_mod
from . import riemann as riemann_mod
from .active import AcquisitionStrategy, run_active_session
from .continual import (
    EncodingStrategy,
    HeadMode,
    StreamConfig,
    run_continual_session,
)
from .errors import InvalidConfig, MahabenchError, check_sizes
from .methods import parse_method
from .parallel import ordered_map
from .refine import RefineConfig
from .rng import Rng, derive_seeds
from .worlds import (
    SamplerConfig,
    SamplerMode,
    read_tasks,
    write_tasks,
)

CSV_SCHEMA_VERSION = "v1"

# sessions of an active run, or streams of a continual run, per unit, stepped
# in lockstep under every strategy; no output bit depends on it.  Blocks of 5
# and 10 streams ran equally fast on two CPUs; one block of all 20 would
# leave a worker idle.
LOCKSTEP_BLOCK = 5

# mallopt's parameter numbers in glibc's <malloc.h>
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3
# glibc hands a freed heap top back to the OS once it passes 128 KiB, which
# a fit's statistics and a task's query moments do at the end of almost
# every task, and the next task faults the pages in again; keep up to this
# much mapped instead
TRIM_THRESHOLD_BYTES = 256 << 20
# blocks above this come from a fresh mapping, faulted in page by page on
# every allocation; setting the trim threshold alone would freeze glibc's
# adaptive mmap threshold at its 128 KiB default, below a large task's
# query moments
MMAP_THRESHOLD_BYTES = 32 << 20


def _run_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.add_argument("--dims", type=int, default=6)
    p.add_argument("--classes", type=int, default=12)
    p.add_argument("--anisotropy", type=float, default=8.0)
    p.add_argument("--mean-radius", type=float, default=3.0)
    p.add_argument("--scale-spread", type=float, default=1.0,
                   help="ratio hi/lo of per-class covariance scales (1 = shared)")
    p.add_argument("--domain-id", default="world")


def _head_flags(p: argparse.ArgumentParser, method: str) -> None:
    p.add_argument("--method", default=method,
                   help="comma list (one name for active and continual) of "
                        "<simple|transductive>[:<score>], gmm or gmm-em")
    p.add_argument("--min-steps", type=int, default=2)
    p.add_argument("--max-steps", type=int, default=4)
    p.add_argument("--beta", type=float, default=1.0)


def _sampler_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tasks", type=int, default=100)
    p.add_argument("--mode", choices=["metadataset", "fixed"], default="fixed")
    p.add_argument("--way", type=int, default=5)
    p.add_argument("--shot", type=int, default=5)
    p.add_argument("--query", type=int, default=10)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mahabench", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_bench = sub.add_parser("bench", help="paired-method benchmark report")
    _run_flags(p_bench)
    _head_flags(p_bench, "simple,transductive")
    _sampler_flags(p_bench)
    p_bench.add_argument("--tasks-file", default=None,
                         help="evaluate tasks from a JSONL file instead of sampling")

    p_gen = sub.add_parser("gen-tasks", help="write sampled tasks to a JSONL file")
    _run_flags(p_gen)
    _sampler_flags(p_gen)

    p_recall = sub.add_parser("recall", help="class recall bucketed by shot")
    _run_flags(p_recall)
    _head_flags(p_recall, "simple,transductive")
    p_recall.add_argument("--tasks", type=int, default=100)
    p_recall.add_argument("--query", type=int, default=10)

    p_active = sub.add_parser("active", help="active-learning accuracy curves")
    _run_flags(p_active)
    _head_flags(p_active, "simple")
    p_active.add_argument("--sessions", type=int, default=50)
    p_active.add_argument("--budget", type=int, default=20)
    p_active.add_argument("--pool-per-class", type=int, default=10)
    p_active.add_argument("--test-per-class", type=int, default=10)
    p_active.add_argument("--strategy", default="all",
                          help="comma list of random,entropy,variation-ratios or all; every "
                               "named strategy runs on the same sessions in one pass")

    p_cont = sub.add_parser("continual", help="continual-learning accuracy matrices")
    _run_flags(p_cont)
    _head_flags(p_cont, "simple")
    p_cont.add_argument("--streams", type=int, default=20)
    p_cont.add_argument("--length", type=int, default=5)
    p_cont.add_argument("--classes-per-task", type=int, default=2)
    p_cont.add_argument("--shot", type=int, default=10)
    p_cont.add_argument("--query", type=int, default=10)
    p_cont.add_argument("--drift", type=float, default=1.0)
    p_cont.add_argument("--strategy", default="all",
                        help="comma list of moving,first,averaging or all")
    p_cont.add_argument("--head-mode", default="both",
                        help="single, multi, or both: the matrices to write (a stream "
                             "computes both modes from one scoring)")

    p_riem = sub.add_parser("riemann", help="energy-gap approximation checks")
    p_riem.add_argument("--seed", type=int, default=0)
    p_riem.add_argument("--out", default=None)
    p_riem.add_argument("--dims", type=int, default=6)
    p_riem.add_argument("--fields", type=int, default=100)
    p_riem.add_argument("--points-per-field", type=int, default=1)
    p_riem.add_argument("--separation", type=float, default=6.0)
    p_riem.add_argument("--support-scale", type=float, default=0.1)
    p_riem.add_argument("--flatness", type=float, default=0.5)
    p_riem.add_argument("--weak-scale", type=float, default=150.0)
    p_riem.add_argument("--quadrature", type=int, default=256)
    return parser


# built once, at import: argparse's first message lookup imports ``locale``,
# which each call would otherwise import inside its timed run
_PARSER = build_parser()


def _write_csv(path, config: dict, header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("# " + json.dumps(config, sort_keys=True) + "\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _echo(args, *unread: str, **facts) -> dict:
    """Print the run's configuration as one JSON line and return it.

    It holds ``args``' values bar the paths and the flags named in
    ``unread``, the command's schema, the ``facts`` the run derives from its
    flags, and ``config_hash`` over all of these.
    """
    config = {k: v for k, v in vars(args).items() if k not in ("out", "tasks_file", *unread)}
    config.update(schema=f"{args.command}/{CSV_SCHEMA_VERSION}", **facts)
    blob = json.dumps(config, sort_keys=True).encode("utf-8")
    config["config_hash"] = sha256(blob).hexdigest()[:12]
    print(json.dumps(config, sort_keys=True))
    return config


def _unread(args, defaults, why: str, *names: str) -> tuple:
    """``names``, flags the run leaves unread; setting one away from its default
    (its value in ``defaults``) is a config error that says ``why``."""
    if changed := [f"--{n.replace('_', '-')}" for n in names
                   if getattr(args, n) != getattr(defaults, n)]:
        raise InvalidConfig(f"{why}, so {', '.join(changed)} cannot be set")
    return names


def _require_positive(args, *names: str) -> None:
    """Reject a size flag below 1, naming the flag; a config built from it
    would name its own field instead."""
    check_sizes(**{f"--{name.replace('_', '-')}": getattr(args, name) for name in names})


def _distinct(named, flag: str) -> None:
    """Reject a comma list that names one thing twice, under one spelling or
    two: its rows would be written once per mention.  ``named`` holds
    ``(spelling, thing)`` pairs."""
    seen = {}
    for spelling, thing in named:
        if thing in seen:
            first = seen[thing]
            if first == spelling:
                raise InvalidConfig(f"{flag} names {spelling!r} more than once")
            raise InvalidConfig(f"{flag} names one head twice, as {first!r} and {spelling!r}")
        seen[thing] = spelling


def _choices(enum, text: str, everything: str, flag: str) -> list:
    """The members of ``enum`` whose values the comma list ``text`` names, or
    all of them if ``text`` is ``everything``; naming none, or one twice, is
    a config error."""
    if text == everything:
        return list(enum)
    try:
        members = [enum(s.strip()) for s in text.split(",") if s.strip()]
    except ValueError as exc:
        raise InvalidConfig(str(exc)) from None
    if not members:
        raise InvalidConfig(f"{text!r} names no {enum.__name__}")
    _distinct([(m.value, m) for m in members], flag)
    return members


def _domain_from_args(args, min_classes: int = 0, sampler=None) -> bench_mod.DomainSpec:
    """The world of the run flags; ``min_classes`` raises its class count,
    which must cover every class a task of ``sampler`` draws."""
    class_count = max(args.classes, min_classes)
    if args.dims < 2:
        raise InvalidConfig("--dims must be at least 2")
    if class_count < 2:
        raise InvalidConfig("--classes must be at least 2")
    if sampler is not None and class_count < sampler.min_way:
        least = (f"--way {sampler.min_way}" if sampler.mode is SamplerMode.FIXED_WAY_SHOT
                 else f"{sampler.min_way}, the fewest classes a metadataset task draws")
        raise InvalidConfig(f"--classes {class_count} is fewer than {least}")
    if args.anisotropy < 1.0:
        raise InvalidConfig("--anisotropy must be >= 1")
    spread = args.scale_spread
    if spread < 1.0:
        raise InvalidConfig("--scale-spread must be >= 1")
    lo = 1.0 / np.sqrt(spread)
    return bench_mod.DomainSpec(
        domain_id=args.domain_id,
        dims=args.dims,
        class_count=class_count,
        anisotropy=args.anisotropy,
        mean_radius=args.mean_radius,
        scale_range=(lo, lo * spread),
    )


def _sampler_from_args(args, defaults) -> tuple:
    """The sampler of the ``--mode`` flags, and the flags it leaves unread."""
    _require_positive(args, "query")
    if args.mode == "metadataset":
        unread = _unread(args, defaults, "--mode metadataset draws way and shot", "way", "shot")
        return SamplerConfig(mode=SamplerMode.META_DATASET_LIKE,
                             query_per_class=args.query), unread
    _require_positive(args, "way", "shot")
    return SamplerConfig(
        mode=SamplerMode.FIXED_WAY_SHOT,
        fixed_way=args.way,
        fixed_shot=args.shot,
        query_per_class=args.query,
    ), ()


def _methods(args, defaults) -> tuple:
    """The ``--method`` heads as ``(name, HeadConfig)`` pairs, the one parse
    of the flags a run makes, and the step-limit flags if no method reads
    them."""
    names = tuple(m.strip() for m in args.method.split(",") if m.strip())
    if not names:
        raise InvalidConfig(f"--method {args.method!r} names no method")
    _require_positive(args, "min_steps")
    if args.max_steps < args.min_steps:
        raise InvalidConfig("--max-steps must be >= --min-steps")
    if args.beta < 0:  # finite, as cli_main checks every float flag
        raise InvalidConfig("--beta must be nonnegative")
    refine_cfg = RefineConfig(min_steps=args.min_steps, max_steps=args.max_steps)
    try:
        heads = tuple((name, parse_method(name, refine_cfg, args.beta)) for name in names)
    except InvalidConfig as exc:
        raise InvalidConfig(f"--method: {exc}") from None
    _distinct(heads, "--method")
    # only a refining head reads the step limits
    unread = () if any(h.refine is not None for _, h in heads) else _unread(
        args, defaults, "no method in --method refines", "min_steps", "max_steps")
    return heads, unread


def _bench_config(args, defaults, sampler) -> tuple:
    """The run's ``BenchConfig``, and the head flags it leaves unread."""
    methods, unread = _methods(args, defaults)
    return bench_mod.BenchConfig(
        domains=(_domain_from_args(args, sampler=sampler),),
        methods=methods,
        n_tasks=args.tasks,
        seed=args.seed,
        sampler=sampler,
    ), unread


def _cmd_bench(args, defaults) -> int:
    # a setting the run would not read is an error, not a silent no-op
    file_unread = _unread(
        args, defaults, "--tasks-file fixes the tasks", "seed", "dims", "classes",
        "anisotropy", "mean_radius", "scale_spread", "domain_id", "tasks", "mode", "way",
        "shot", "query") if args.tasks_file else ()
    if not args.tasks_file and args.tasks < 30:
        raise InvalidConfig("--tasks must be at least 30 for CI sanity")
    sampler, sampler_unread = _sampler_from_args(args, defaults)
    cfg, head_unread = _bench_config(args, defaults, sampler)
    facts, tasks_by_domain = {}, None
    if args.tasks_file:
        tasks = read_tasks(args.tasks_file)
        if not tasks:
            raise InvalidConfig(f"{args.tasks_file} holds no tasks")
        tasks_by_domain = {}
        for task in tasks:
            tasks_by_domain.setdefault(task.domain_id, []).append(task)
        with open(args.tasks_file, "rb") as fh:
            facts = {"n_tasks": len(tasks), "tasks_sha256": sha256(fh.read()).hexdigest()}
        cfg = replace(cfg, n_tasks=len(tasks))
    bench_mod.check_benchmark(cfg, tasks_by_domain)
    echo = _echo(args, *file_unread, *sampler_unread, *head_unread, **facts)
    report = bench_mod.run_benchmark(cfg, tasks_by_domain=tasks_by_domain)
    report.metadata["config_hash"] = echo["config_hash"]
    if args.out:
        if args.out.endswith(".json"):
            payload = report.to_json_dict()
            payload["config"] = echo
            with open(args.out, "w", encoding="utf-8") as fh:
                json.dump(payload, fh, sort_keys=True, indent=1)
                fh.write("\n")
        else:
            rows = [(r.domain_id, r.method, r.task_index, r.task_seed, repr(r.accuracy))
                    for r in report.rows]
            _write_csv(args.out, echo,
                       ["domain_id", "method", "task_index", "task_seed", "accuracy"], rows)
    for (domain, method), stats in sorted(report.summary.items()):
        print(f"{domain} {method}: acc {stats['mean']:.4f} "
              f"+/- {stats['ci95']:.4f} over {stats['n_tasks']} tasks")
    for method, rank in sorted(report.ranks.items()):
        print(f"rank {method}: {rank:.2f}")
    return 0


def _cmd_gen_tasks(args, defaults) -> int:
    if not args.out:
        raise InvalidConfig("gen-tasks requires --out")
    _require_positive(args, "tasks")
    sampler, unread = _sampler_from_args(args, defaults)
    cfg = bench_mod.BenchConfig((_domain_from_args(args, sampler=sampler),), (), args.tasks,
                                args.seed, sampler)
    _echo(args, *unread)
    tasks = bench_mod.generate_tasks(cfg, cfg.domains[0])
    write_tasks(args.out, tasks)
    print(f"wrote {len(tasks)} tasks to {args.out}")
    return 0


def _cmd_recall(args, defaults) -> int:
    _require_positive(args, "tasks", "query")
    sampler = SamplerConfig(mode=SamplerMode.META_DATASET_LIKE, query_per_class=args.query)
    cfg, unread = _bench_config(args, defaults, sampler)
    echo = _echo(args, *unread)
    curves = bench_mod.recall_vs_shot(cfg)
    rows = []
    for method, _ in cfg.methods:
        for label, entry in curves[method].items():
            rows.append((method, label, repr(entry["recall"]), entry["classes"]))
    if args.out:
        _write_csv(args.out, echo, ["method", "bucket", "mean_recall", "classes"], rows)
    for method, label, recall, classes in rows:
        print(f"{method} shot {label}: recall {float(recall):.4f} ({classes} classes)")
    return 0


def _by_block(seed: int, tag: str, count: int, size: int, run) -> list:
    """``run``'s results for units 0..count-1, concatenated in unit order:
    block b, units ``[b * size, min(count, (b + 1) * size))``, is one
    ``ordered_map`` unit, and ``run`` gets unit i's seed as ``derive_seeds(seed,
    tag, i)``."""
    def block(b: int):
        return run(derive_seeds(seed, tag, np.arange(b * size, min(count, (b + 1) * size))))

    return [result for results in ordered_map(block, -(-count // size)) for result in results]


def _one_head(args, defaults) -> tuple:
    """The head of ``--method`` for commands that run a single method, and the
    head flags it leaves unread."""
    if "," in args.method or not args.method.strip():
        raise InvalidConfig(f"{args.command} runs one method, got --method {args.method!r}")
    ((_, head),), unread = _methods(args, defaults)
    return head, unread


def _cmd_active(args, defaults) -> int:
    _require_positive(args, "sessions", "pool_per_class", "test_per_class")
    strategies = _choices(AcquisitionStrategy, args.strategy, "all", "--strategy")
    head, unread = _one_head(args, defaults)
    world = _domain_from_args(args).build(args.seed)
    pool = world.class_count * args.pool_per_class
    if not 0 <= args.budget <= pool:
        raise InvalidConfig(f"--budget must lie in [0, {pool}], the pool of --classes "
                            f"{world.class_count} x --pool-per-class {args.pool_per_class}")
    echo = _echo(args, *unread, strategies=[s.value for s in strategies])

    sessions = _by_block(
        args.seed, "active", args.sessions, LOCKSTEP_BLOCK,
        lambda seeds: run_active_session(world, args.pool_per_class, args.test_per_class,
                                         args.budget, seeds, strategies, head))
    rows = [
        (sid, strategy.value, step, repr(float(acc)))
        for sid, session in enumerate(sessions)
        for strategy, accs in zip(strategies, session)
        for step, acc in enumerate(accs)
    ]
    if args.out:
        _write_csv(args.out, echo, ["session_id", "strategy", "step", "accuracy"], rows)
    finals = {}
    for sid, name, step, acc in rows:
        if step == args.budget:
            finals.setdefault(name, []).append(float(acc))
    for strategy in strategies:
        mean, half = bench_mod.mean_ci(finals[strategy.value])
        print(f"{strategy.value}: final acc {mean:.4f} +/- {half:.4f} "
              f"over {args.sessions} sessions")
    return 0


def _cmd_continual(args, defaults) -> int:
    _require_positive(args, "streams", "length", "classes_per_task", "shot", "query")
    if args.drift < 0:
        raise InvalidConfig("--drift must be nonnegative")
    strategies = _choices(EncodingStrategy, args.strategy, "all", "--strategy")
    modes = _choices(HeadMode, args.head_mode, "both", "--head-mode")
    head, unread = _one_head(args, defaults)
    stream = StreamConfig(
        num_tasks=args.length,
        classes_per_task=args.classes_per_task,
        shot=args.shot,
        query_per_class=args.query,
        drift=args.drift,
    )
    domain = _domain_from_args(args, min_classes=args.length * args.classes_per_task)
    echo = _echo(args, *unread, strategies=[s.value for s in strategies],
                 head_modes=[m.value for m in modes], classes=domain.class_count)
    world = domain.build(args.seed)

    sessions = _by_block(
        args.seed, "continual", args.streams, LOCKSTEP_BLOCK,
        lambda seeds: run_continual_session(world, stream, seeds, strategies, head))
    lower = np.tril_indices(args.length)  # (step, task), row-major
    if args.out:
        # csv writes a float as its repr, which round-trips it
        steps, tasks = (index.tolist() for index in lower)
        rows = []
        for sid, session in enumerate(sessions):
            for strategy in strategies:
                for mode in modes:
                    rows += zip(repeat(sid), repeat(strategy.value), repeat(mode.value), steps,
                                tasks, session[strategy, mode][lower].tolist())
        _write_csv(args.out, echo,
                   ["session_id", "strategy", "head_mode", "step", "task", "accuracy"], rows)
    # the rows' values in the rows' order
    for strategy in strategies:
        for mode in modes:
            values = np.concatenate([session[strategy, mode][lower] for session in sessions])
            mean, half = bench_mod.mean_ci(values)
            print(f"{strategy.value}/{mode.value}: mean acc {mean:.4f} +/- {half:.4f}")
    return 0


def _median(values) -> float:
    """``np.median`` of a non-empty list of values >= 0, bit for bit.

    ``np.median`` imports ``numpy.ma`` on first use (about 15 ms) to check
    for NaN; sorting puts a NaN last, so that check is one comparison here.
    """
    ordered = np.sort(values)
    n = len(ordered)
    if np.isnan(ordered[-1]):
        return float(ordered[-1])
    return float(np.mean(ordered[(n - 1) // 2:n // 2 + 1]))


def _cmd_riemann(args, defaults) -> int:
    _require_positive(args, "fields", "points_per_field")
    settings = {"dims": args.dims, "separation": args.separation, "flatness": args.flatness,
                "support_scale": args.support_scale, "weak_side_scale": args.weak_scale,
                "quadrature_points": args.quadrature}
    flags = {"weak_side_scale": "--weak-scale", "quadrature_points": "--quadrature"}
    for name, value in settings.items():
        try:  # one setting per call, so that the error names its flag
            riemann_mod.check_settings(**{name: value})
        except InvalidConfig as exc:
            flag = flags.get(name, "--" + name.replace("_", "-"))
            raise InvalidConfig(f"{flag}: {exc}") from None
    del settings["quadrature_points"]
    echo = _echo(args)

    def field_rows(seeds) -> list:
        field = riemann_mod.make_two_centroid_field(seeds, **settings)
        rng = Rng(derive_seeds(seeds, "points"))
        checks = []  # per point, the check's three columns as lists of reprs
        for _p in range(args.points_per_field):
            x = riemann_mod.sample_plateau_point(field, 0, rng)
            check = riemann_mod.energy_gap_check(field, x, 0, 1, args.quadrature)
            checks.append([list(map(repr, column.tolist())) for column in check])
        return [(seed, "0-1", *(c[f] for c in point)) for f, seed in enumerate(seeds.tolist())
                for point in checks]

    size = riemann_mod.block_size(args.dims, args.quadrature, args.points_per_field)
    rows = _by_block(args.seed, "riemann", args.fields, size, field_rows)
    if args.out:
        _write_csv(args.out, echo,
                   ["field_seed", "pair", "delta_energy", "half_gap", "rel_error"], rows)
    rels = [float(r[4]) for r in rows]
    frac = float(np.mean(np.array(rels) < 0.05))
    print(f"median rel error {_median(rels):.4f}; {frac:.1%} below 5%")
    return 0


_COMMANDS = {
    "bench": _cmd_bench,
    "gen-tasks": _cmd_gen_tasks,
    "recall": _cmd_recall,
    "active": _cmd_active,
    "continual": _cmd_continual,
    "riemann": _cmd_riemann,
}


def _set_allocator_thresholds() -> None:
    """Raise glibc's trim and mmap thresholds for this process and the
    workers it forks; a C library without ``mallopt`` is left as it is."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # no mallopt, or no C library to load
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD_BYTES)
    mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD_BYTES)


def cli_main(argv=None) -> int:
    """Parse arguments and dispatch; returns the process exit code."""
    _set_allocator_thresholds()
    parser = _PARSER
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse prints usage itself
        return int(exc.code or 0)
    try:
        for name, value in vars(args).items():
            if isinstance(value, float) and not math.isfinite(value):
                raise InvalidConfig(f"--{name.replace('_', '-')} must be finite")
        defaults = parser.parse_args([args.command])  # the subcommand's flag defaults
        return _COMMANDS[args.command](args, defaults)
    except InvalidConfig as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except MahabenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    raise SystemExit(cli_main())


if __name__ == "__main__":
    main()
