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
to bench and gen-tasks.  Every run prints its resolved configuration
(including the seed) to stdout and writes CSV or JSON to --out.  CSV files
start with a ``#`` comment line echoing the configuration as JSON;
identical seeds produce byte-identical outputs.  Exit codes: 0 success, 2 configuration/usage error, 1 runtime
error.

bench and recall tasks, active sessions, continual streams and riemann
fields run in forked worker processes, one per CPU of the process's
affinity mask; the rows come out in the same order and the same bytes as a
serial run.  ``taskset -c 0 mahabench ...`` runs serially, which is also
how to take a per-layer trace.  Without ``fork`` (or ``sched_getaffinity``)
every run is serial.  ``python -m mahabench`` and ``python -m
mahabench.cli`` run the same command line as the ``mahabench`` script.
"""

import argparse
import csv
import hashlib
import json
import math
import sys
from dataclasses import replace

import numpy as np

from . import bench as bench_mod
from . import riemann as riemann_mod
from .active import AcquisitionStrategy, ActiveSession, run_active_session
from .continual import (
    EncodingStrategy,
    HeadMode,
    StreamConfig,
    run_continual_session,
)
from .errors import InvalidConfig, MahabenchError
from .methods import parse_method
from .parallel import ordered_map
from .refine import RefineConfig
from .rng import Rng, derive_seed
from .worlds import (
    SamplerConfig,
    SamplerMode,
    draw_class_examples,
    read_tasks,
    write_tasks,
)

CSV_SCHEMA_VERSION = "v1"


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
                   help="comma list (one name for active and continual); "
                        "metric ablations as simple:<metric>")
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
                          help="comma list of random,entropy,variation-ratios or all")

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
                        help="single, multi, or both")

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


def _write_csv(path, config: dict, header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("# " + json.dumps(config, sort_keys=True) + "\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow(row)


def _echo(config: dict) -> None:
    print(json.dumps(config, sort_keys=True))


def _flag_values(args, *skip: str) -> dict:
    """The command and each of its flags' values by name, bar --out and ``skip``."""
    return {k: v for k, v in vars(args).items() if k not in ("out", *skip)}


def _changed(args, *names: str) -> list[str]:
    """The flags among ``names`` that ``args`` sets away from their defaults."""
    defaults = vars(build_parser().parse_args([args.command]))
    return [f"--{n.replace('_', '-')}" for n in names if getattr(args, n) != defaults[n]]


def _require_positive(args, *names: str) -> None:
    """Reject a run size below 1: it would aggregate nothing."""
    for name in names:
        if getattr(args, name) < 1:
            raise InvalidConfig(f"--{name.replace('_', '-')} must be at least 1")


def _domain_from_args(args) -> bench_mod.DomainSpec:
    spread = args.scale_spread
    if spread < 1.0:
        raise InvalidConfig("--scale-spread must be >= 1")
    lo = 1.0 / np.sqrt(spread)
    return bench_mod.DomainSpec(
        domain_id=args.domain_id,
        dims=args.dims,
        class_count=args.classes,
        anisotropy=args.anisotropy,
        mean_radius=args.mean_radius,
        scale_range=(lo, lo * spread),
    )


def _sampler_from_args(args) -> SamplerConfig:
    if args.mode == "metadataset":
        return SamplerConfig(mode=SamplerMode.META_DATASET_LIKE,
                             query_per_class=args.query)
    return SamplerConfig(
        mode=SamplerMode.FIXED_WAY_SHOT,
        fixed_way=args.way,
        fixed_shot=args.shot,
        query_per_class=args.query,
    )


def _methods(args) -> tuple:
    """The ``--method`` names, each checked to resolve, and their step limits."""
    methods = tuple(m.strip() for m in args.method.split(",") if m.strip())
    refine_cfg = RefineConfig(min_steps=args.min_steps, max_steps=args.max_steps)
    heads = [parse_method(name, refine_cfg, args.beta) for name in methods]
    # only a refining head reads the step limits
    if all(h.refine is None for h in heads) and (
            unread := _changed(args, "min_steps", "max_steps")):
        raise InvalidConfig(f"no method in --method refines, so {', '.join(unread)} "
                            f"cannot be set")
    return methods, refine_cfg


def _bench_config(args, sampler) -> bench_mod.BenchConfig:
    methods, refine_cfg = _methods(args)
    return bench_mod.BenchConfig(
        domains=(_domain_from_args(args),),
        methods=methods,
        n_tasks=args.tasks,
        seed=args.seed,
        sampler=sampler,
        refine=refine_cfg,
        beta=args.beta,
    )


def _cmd_bench(args) -> int:
    # a setting the run would not read is an error, not a silent no-op
    if args.tasks_file and (unread := _changed(
            args, "seed", "dims", "classes", "anisotropy", "mean_radius", "scale_spread",
            "domain_id", "tasks", "mode", "way", "shot", "query")):
        raise InvalidConfig(f"--tasks-file fixes the tasks, so {', '.join(unread)} cannot be set")
    if args.mode == "metadataset" and (unread := _changed(args, "way", "shot")):
        raise InvalidConfig(f"--mode metadataset draws way and shot, "
                            f"so {', '.join(unread)} cannot be set")
    cfg = _bench_config(args, _sampler_from_args(args))
    config = cfg.resolved()
    tasks_by_domain = None
    if args.tasks_file:
        tasks = read_tasks(args.tasks_file)
        if not tasks:
            raise InvalidConfig(f"{args.tasks_file} holds no tasks")
        tasks_by_domain = {}
        for task in tasks:
            tasks_by_domain.setdefault(task.domain_id, []).append(task)
        with open(args.tasks_file, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        # the file, not the domain and sampler flags, says which tasks run
        del config["domains"], config["sampler"]
        config.update(n_tasks=len(tasks), tasks_sha256=digest)
    echo = {"command": "bench", "schema": f"bench/{CSV_SCHEMA_VERSION}", **config}
    if args.tasks_file:
        echo["tasks_file"] = args.tasks_file
    _echo(echo)
    report = bench_mod.run_benchmark(cfg, tasks_by_domain=tasks_by_domain)
    # the report's metadata describes the run as the echo does
    report.metadata.update(n_tasks=config["n_tasks"], config_hash=bench_mod.config_hash(config))
    if args.out:
        if args.out.endswith(".json"):
            payload = report.to_json_dict()
            payload["config"] = echo
            with open(args.out, "w", encoding="utf-8") as fh:
                json.dump(payload, fh, sort_keys=True, indent=1)
                fh.write("\n")
        else:
            _write_csv(
                args.out,
                echo,
                ["domain_id", "method", "task_index", "task_seed", "accuracy"],
                [
                    (r.domain_id, r.method, r.task_index, r.task_seed, repr(r.accuracy))
                    for r in report.rows
                ],
            )
    for (domain, method), stats in sorted(report.summary.items()):
        print(
            f"{domain} {method}: acc {stats['mean']:.4f} "
            f"+/- {stats['ci95']:.4f} over {stats['n_tasks']} tasks"
        )
    for method, rank in sorted(report.ranks.items()):
        print(f"rank {method}: {rank:.2f}")
    return 0


def _cmd_gen_tasks(args) -> int:
    if not args.out:
        raise InvalidConfig("gen-tasks requires --out")
    cfg = bench_mod.BenchConfig((_domain_from_args(args),), (), args.tasks, args.seed,
                                _sampler_from_args(args))
    config = cfg.resolved()
    del config["methods"], config["refine"], config["beta"]  # no head runs
    _echo({"command": "gen-tasks", **config, "out": args.out})
    tasks = bench_mod.generate_tasks(cfg, cfg.domains[0])
    write_tasks(args.out, tasks)
    print(f"wrote {len(tasks)} tasks to {args.out}")
    return 0


def _cmd_recall(args) -> int:
    _require_positive(args, "tasks")
    sampler = SamplerConfig(mode=SamplerMode.META_DATASET_LIKE, query_per_class=args.query)
    cfg = _bench_config(args, sampler=sampler)
    echo = {"command": "recall", "schema": f"recall/{CSV_SCHEMA_VERSION}", **cfg.resolved()}
    _echo(echo)
    curves, _records = bench_mod.recall_vs_shot(cfg)
    rows = []
    for method in cfg.methods:
        for label, entry in curves[method].buckets.items():
            rows.append((method, label, repr(entry["recall"]), entry["classes"]))
    if args.out:
        _write_csv(args.out, echo, ["method", "bucket", "mean_recall", "classes"], rows)
    for method, label, recall, classes in rows:
        print(f"{method} shot {label}: recall {float(recall):.4f} ({classes} classes)")
    return 0


_STRATEGY_NAMES = {
    "random": AcquisitionStrategy.RANDOM,
    "entropy": AcquisitionStrategy.PREDICTIVE_ENTROPY,
    "variation-ratios": AcquisitionStrategy.VARIATION_RATIOS,
}


def build_active_session(world, strategy, pool_per_class, test_per_class, budget, seed):
    """Deterministic session over all world classes: one seed-support
    example per class, then a pool and a held-out test set."""
    rng = Rng(seed)
    ids = list(range(world.class_count))
    seed_x = np.vstack(draw_class_examples(world, ids, [1] * len(ids), rng))
    seed_y = np.arange(world.class_count, dtype=np.int64)
    pool_x = np.vstack(draw_class_examples(world, ids, [pool_per_class] * len(ids), rng))
    pool_y = np.repeat(seed_y, pool_per_class)
    test_x = np.vstack(draw_class_examples(world, ids, [test_per_class] * len(ids), rng))
    test_y = np.repeat(seed_y, test_per_class)
    return ActiveSession(
        pool_x=pool_x, pool_y=pool_y, seed_x=seed_x, seed_y=seed_y,
        test_x=test_x, test_y=test_y, budget=budget,
        strategy=strategy, seed=derive_seed(seed, "selection"),
    )


def _one_head(args):
    """The head of ``--method`` for commands that run a single method."""
    if "," in args.method:
        raise InvalidConfig(f"{args.command} runs one method, got {args.method!r}")
    _, refine_cfg = _methods(args)
    return parse_method(args.method, refine_cfg, args.beta)


def _cmd_active(args) -> int:
    _require_positive(args, "sessions", "test_per_class")
    names = list(_STRATEGY_NAMES) if args.strategy == "all" else [
        s.strip() for s in args.strategy.split(",") if s.strip()
    ]
    for name in names:
        if name not in _STRATEGY_NAMES:
            raise InvalidConfig(f"unknown strategy {name!r}")
    head = _one_head(args)
    domain = _domain_from_args(args)
    echo = {
        **_flag_values(args, "domain_id", "strategy"), "schema": f"active/{CSV_SCHEMA_VERSION}",
        "strategies": names, "domain": domain.domain_id,
    }
    _echo(echo)
    world = domain.build(args.seed)
    units = [(sid, name) for sid in range(args.sessions) for name in names]

    def curve(u: int):
        sid, name = units[u]
        session = build_active_session(
            world, _STRATEGY_NAMES[name], args.pool_per_class,
            args.test_per_class, args.budget, derive_seed(args.seed, "active", sid),
        )
        return run_active_session(session, head)

    rows = [
        (sid, name, step, repr(float(acc)))
        for (sid, name), accs in zip(units, ordered_map(curve, len(units)))
        for step, acc in enumerate(accs)
    ]
    if args.out:
        _write_csv(args.out, echo, ["session_id", "strategy", "step", "accuracy"], rows)
    finals = {}
    for sid, name, step, acc in rows:
        if step == args.budget:
            finals.setdefault(name, []).append(float(acc))
    for name in names:
        mean, half = bench_mod.mean_ci(finals[name])
        print(f"{name}: final acc {mean:.4f} +/- {half:.4f} over {args.sessions} sessions")
    return 0


def _cmd_continual(args) -> int:
    _require_positive(args, "streams")
    try:
        strategies = list(EncodingStrategy) if args.strategy == "all" else [
            EncodingStrategy(s.strip()) for s in args.strategy.split(",") if s.strip()
        ]
        modes = list(HeadMode) if args.head_mode == "both" else [HeadMode(args.head_mode)]
    except ValueError as exc:
        raise InvalidConfig(str(exc)) from None
    head = _one_head(args)
    stream = StreamConfig(
        num_tasks=args.length,
        classes_per_task=args.classes_per_task,
        shot=args.shot,
        query_per_class=args.query,
        drift=args.drift,
    )
    needed = args.length * args.classes_per_task
    domain = _domain_from_args(args)
    if domain.class_count < needed:
        domain = replace(domain, class_count=needed)
    echo = {
        **_flag_values(args, "domain_id", "strategy", "head_mode"),
        "schema": f"continual/{CSV_SCHEMA_VERSION}",
        "strategies": [s.value for s in strategies],
        "head_modes": [m.value for m in modes],
        "domain": domain.domain_id, "classes": domain.class_count,
    }
    _echo(echo)
    world = domain.build(args.seed)
    units = [(sid, strategy, mode) for sid in range(args.streams)
             for strategy in strategies for mode in modes]

    def matrix(u: int):
        sid, strategy, mode = units[u]
        return run_continual_session(world, stream, strategy, mode, head,
                                     seed=derive_seed(args.seed, "continual", sid))

    rows = [
        (sid, strategy.value, mode.value, step, task, repr(float(accs[step, task])))
        for (sid, strategy, mode), accs in zip(units, ordered_map(matrix, len(units)))
        for step in range(args.length)
        for task in range(step + 1)
    ]
    if args.out:
        _write_csv(
            args.out, echo,
            ["session_id", "strategy", "head_mode", "step", "task", "accuracy"],
            rows,
        )
    for strategy in strategies:
        for mode in modes:
            vals = [float(r[5]) for r in rows if r[1] == strategy.value and r[2] == mode.value]
            mean, half = bench_mod.mean_ci(vals)
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


def _cmd_riemann(args) -> int:
    _require_positive(args, "fields", "points_per_field")
    echo = {**_flag_values(args), "schema": f"riemann/{CSV_SCHEMA_VERSION}"}
    _echo(echo)

    def field_rows(fid: int) -> list:
        field_seed = derive_seed(args.seed, "riemann", fid)
        field = riemann_mod.make_two_centroid_field(
            field_seed, dims=args.dims, separation=args.separation,
            support_scale=args.support_scale, flatness=args.flatness,
            weak_side_scale=args.weak_scale,
        )
        rng = Rng(derive_seed(field_seed, "points"))
        rows = []
        for _p in range(args.points_per_field):
            x = riemann_mod.sample_plateau_point(field, 0, rng)
            check = riemann_mod.energy_gap_check(field, x, 0, 1, args.quadrature)
            rows.append(
                (field_seed, "0-1", repr(check.delta_energy),
                 repr(check.half_maha_gap), repr(check.relative_error))
            )
        return rows

    rows = [row for rows in ordered_map(field_rows, args.fields) for row in rows]
    if args.out:
        _write_csv(
            args.out, echo,
            ["field_seed", "pair", "delta_energy", "half_gap", "rel_error"],
            rows,
        )
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


def cli_main(argv=None) -> int:
    """Parse arguments and dispatch; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse prints usage itself
        return int(exc.code or 0)
    try:
        for name, value in vars(args).items():
            if isinstance(value, float) and not math.isfinite(value):
                raise InvalidConfig(f"--{name.replace('_', '-')} must be finite")
        return _COMMANDS[args.command](args)
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
