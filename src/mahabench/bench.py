"""Benchmark orchestration: paired-task evaluation, CIs, ranks, recall curves.

Every method in a run sees bit-identical tasks (task seeds are derived from
the run seed, never from the method), which makes method comparisons
paired.  A sampled task's features are its world's latent draws
(``worlds.sample_task``); only a continual stream gives each task its own
encoding.  ``run_benchmark`` and ``recall_vs_shot`` share one unit per task,
``methods.fit_statistics`` then ``methods.evaluate_task``, and aggregate the
task's ``TaskRecord`` alone.  Accuracy is per-task query accuracy averaged
over tasks; intervals are 95% normal intervals ``1.96 * std / sqrt(n)``
over task accuracies.  Recall is per-class query recall averaged over the
(task, class) pairs of a shot bucket.
"""

from dataclasses import asdict, dataclass

import numpy as np

from .errors import InvalidConfig
from .methods import TaskRecord, evaluate_task, fit_statistics
from .parallel import ordered_map
from .rng import derive_seed
from .worlds import (
    ClusterWorld,
    EpisodicTask,
    SamplerConfig,
    check_world_shape,
    make_cluster_world,
    sample_task,
)

# class-shot buckets for recall curves: singles at the low end, then ranges
SHOT_BUCKETS = ((1, 1), (2, 4), (5, 9), (10, 24), (25, None))


def bucket_label(lo: int, hi: int | None) -> str:
    if lo == hi:
        return str(lo)
    if hi is None:
        return f"{lo}+"
    return f"{lo}-{hi}"


def shot_bucket(shot: int) -> str:
    for lo, hi in SHOT_BUCKETS:
        if shot >= lo and (hi is None or shot <= hi):
            return bucket_label(lo, hi)
    raise ValueError(f"shot {shot} fits no bucket")


def mean_ci(values) -> tuple[float, float]:
    """Mean and 95% half-width (1.96 * population std / sqrt(n))."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        raise ValueError("no values to aggregate")
    half = 1.96 * arr.std(ddof=0) / np.sqrt(arr.size)
    return float(arr.mean()), float(half)


def average_ranks(per_domain_means: dict) -> dict:
    """Average rank per method over domains (rank 1 = best, ties averaged)."""
    methods = sorted({m for domain in per_domain_means.values() for m in domain})
    totals = {m: 0.0 for m in methods}
    for domain_means in per_domain_means.values():
        accs = np.array([domain_means[m] for m in methods])
        # 1 + the methods strictly better + half the other methods tied
        better = (accs[None, :] > accs[:, None]).sum(axis=1)
        tied = (accs[None, :] == accs[:, None]).sum(axis=1) - 1
        ranks = 1.0 + better + tied / 2.0
        for m, r in zip(methods, ranks):
            totals[m] += r
    n = len(per_domain_means)
    return {m: totals[m] / n for m in methods}


@dataclass(frozen=True)
class DomainSpec:
    """World parameters for one benchmark domain."""

    domain_id: str
    dims: int = 6
    class_count: int = 12
    anisotropy: float = 8.0
    mean_radius: float = 3.0
    scale_range: tuple[float, float] = (1.0, 1.0)
    center_norm: float = 0.0

    def __post_init__(self):
        check_world_shape(self.dims, self.class_count, self.anisotropy, self.scale_range)

    def build(self, run_seed: int) -> ClusterWorld:
        world_seed = derive_seed(run_seed, "world", self.domain_id)
        return make_cluster_world(
            dims=self.dims,
            class_count=self.class_count,
            anisotropy=self.anisotropy,
            rng_seed=world_seed,
            mean_radius=self.mean_radius,
            scale_range=self.scale_range,
            center_norm=self.center_norm,
            domain_id=self.domain_id,
        )


@dataclass(frozen=True)
class BenchConfig:
    domains: tuple
    methods: tuple  # (name, HeadConfig) pairs, in report order (methods.parse_method)
    n_tasks: int
    seed: int
    sampler: SamplerConfig = SamplerConfig()

    def __post_init__(self):
        need = self.sampler.min_way
        if short := [d.class_count for d in self.domains if d.class_count < need]:
            raise InvalidConfig(f"world has {short[0]} classes, need {need}")


@dataclass(frozen=True)
class TaskRow:
    domain_id: str
    method: str
    task_index: int
    task_seed: int
    accuracy: float


@dataclass(frozen=True)
class BenchmarkReport:
    rows: tuple  # TaskRow, ordered by (domain, method, task_index)
    summary: dict  # (domain_id, method) -> {mean, ci95, n_tasks}
    ranks: dict  # method -> average rank over domains
    metadata: dict

    def to_json_dict(self) -> dict:
        return {
            "metadata": self.metadata,
            "summary": {
                f"{d}/{m}": stats for (d, m), stats in sorted(self.summary.items())
            },
            "ranks": dict(sorted(self.ranks.items())),
            "rows": [asdict(r) for r in self.rows],
        }


def _task_sampler(cfg: BenchConfig, domain: DomainSpec):
    """Task ``i`` of one domain's sequence, as a function of ``i`` alone."""
    world = domain.build(cfg.seed)

    def task(i: int) -> EpisodicTask:
        task_seed = derive_seed(cfg.seed, "task", domain.domain_id, i)
        return sample_task(world, cfg.sampler, task_seed)

    return task


def generate_tasks(cfg: BenchConfig, domain: DomainSpec) -> list[EpisodicTask]:
    """The task sequence a run evaluates for one domain; methods share it."""
    task = _task_sampler(cfg, domain)
    return [task(i) for i in range(cfg.n_tasks)]


def _task_records(cfg: BenchConfig, tasks_by_domain: dict | None) -> tuple:
    """``(units, records)``: one ``(domain_id, task_index)`` per task, ordered
    by domain and index, and each task's ``methods.TaskRecord`` under every
    configured head.  Each unit takes its task, or samples it if none was
    supplied, fits every head with one ``fit_statistics`` call and records
    the fits."""
    if tasks_by_domain is None:
        task_of = {d.domain_id: _task_sampler(cfg, d) for d in cfg.domains}
        counts = dict.fromkeys(task_of, cfg.n_tasks)
    else:
        task_of = {d: tasks.__getitem__ for d, tasks in tasks_by_domain.items()}
        counts = {d: len(tasks) for d, tasks in tasks_by_domain.items()}
    units = [(d, i) for d in sorted(counts) for i in range(counts[d])]
    configs = [head for _, head in cfg.methods]

    def record(u: int) -> TaskRecord:
        domain_id, index = units[u]
        task = task_of[domain_id](index)
        fits = fit_statistics(configs, task.support_x, task.support_y, task.query_x)
        return evaluate_task(fits, task)

    return units, ordered_map(record, len(units))


def check_benchmark(cfg: BenchConfig, tasks_by_domain: dict | None = None) -> None:
    """Raise ``InvalidConfig`` for a run that ``run_benchmark`` would refuse."""
    if cfg.n_tasks < 30 and tasks_by_domain is None:
        raise InvalidConfig("n_tasks must be at least 30 for CI sanity")
    if not cfg.methods:
        raise InvalidConfig("no methods configured")


def run_benchmark(cfg: BenchConfig, tasks_by_domain: dict | None = None) -> BenchmarkReport:
    """Evaluate every method on every domain's shared task sequence.

    ``tasks_by_domain`` lets callers supply pre-generated or file-loaded
    tasks keyed by domain id; by default tasks are sampled from the
    configured domains.  ``check_benchmark`` says which runs it refuses.
    """
    check_benchmark(cfg, tasks_by_domain)
    units, records = _task_records(cfg, tasks_by_domain)

    rows = []
    summary = {}
    per_domain_means: dict[str, dict[str, float]] = {}
    for domain_id in dict.fromkeys(d for d, _ in units):
        done = [(idx, rec) for (d, idx), rec in zip(units, records) if d == domain_id]
        per_domain_means[domain_id] = {}
        for m, (method, _) in enumerate(cfg.methods):
            method_rows = [
                TaskRow(domain_id=domain_id, method=method, task_index=idx, task_seed=rec.seed,
                        accuracy=float(rec.hits[m].sum() / rec.queries.sum()))
                for idx, rec in done
            ]
            rows.extend(method_rows)
            mean, half = mean_ci([r.accuracy for r in method_rows])
            summary[(domain_id, method)] = {
                "mean": mean,
                "ci95": half,
                "n_tasks": len(method_rows),
            }
            per_domain_means[domain_id][method] = mean
    report = BenchmarkReport(
        rows=tuple(rows),
        summary=summary,
        ranks=average_ranks(per_domain_means),
        metadata={"seed": cfg.seed, "n_tasks": cfg.n_tasks},
    )
    return report


def recall_vs_shot(cfg: BenchConfig, tasks_by_domain: dict | None = None) -> dict:
    """Mean class recall bucketed by class shot, per method.

    Returns ``{method: {bucket: {"recall", "classes"}}}``, buckets in
    ``SHOT_BUCKETS`` order.  Each (task, class) pair with a query row counts
    once in its shot's bucket, under every method; buckets with no classes
    are omitted.
    """
    _, records = _task_records(cfg, tasks_by_domain)
    curves = {}
    for m, (method, _) in enumerate(cfg.methods):
        recalls = {bucket_label(lo, hi): [] for lo, hi in SHOT_BUCKETS}
        for rec in records:
            for k in np.flatnonzero(rec.queries):
                recalls[shot_bucket(rec.shots[k])].append(rec.hits[m, k] / rec.queries[k])
        curves[method] = {label: {"recall": float(np.mean(vals)), "classes": len(vals)}
                          for label, vals in recalls.items() if vals}
    return curves
