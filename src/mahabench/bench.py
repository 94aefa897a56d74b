"""Benchmark orchestration: paired-task evaluation, CIs, ranks, recall curves.

Every method in a run sees bit-identical tasks (task seeds are derived from
the run seed, never from the method), which makes method comparisons
paired.  Accuracy is per-task query accuracy averaged over tasks; intervals
are 95% normal intervals ``1.96 * std / sqrt(n)`` over task accuracies.
"""

import hashlib
import json
from dataclasses import asdict, dataclass

import numpy as np

from .errors import InvalidConfig
from .methods import HeadConfig, evaluate_task, fit_statistics, parse_method, support_fits
from .parallel import ordered_map
from .refine import RefineConfig
from .rng import derive_seed
from .worlds import (
    ClusterWorld,
    EncodingTransform,
    EpisodicTask,
    SamplerConfig,
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
        order = np.argsort(-accs, kind="stable")
        ranks = np.empty(len(methods))
        pos = 0
        while pos < len(methods):
            end = pos
            while end + 1 < len(methods) and accs[order[end + 1]] == accs[order[pos]]:
                end += 1
            ranks[order[pos : end + 1]] = (pos + end) / 2.0 + 1.0
            pos = end + 1
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
    methods: tuple
    n_tasks: int
    seed: int
    sampler: SamplerConfig = SamplerConfig()
    refine: RefineConfig = RefineConfig()
    beta: float = 1.0

    def resolved(self) -> dict:
        cfg = {
            "domains": [asdict(d) for d in self.domains],
            "methods": list(self.methods),
            "n_tasks": self.n_tasks,
            "seed": self.seed,
            "sampler": {
                "mode": self.sampler.mode.value,
                "way_range": list(self.sampler.way_range),
                "shot_range": list(self.sampler.shot_range),
                "support_cap": self.sampler.support_cap,
                "query_per_class": self.sampler.query_per_class,
                "fixed_way": self.sampler.fixed_way,
                "fixed_shot": self.sampler.fixed_shot,
            },
            "refine": asdict(self.refine, dict_factory=_enum_safe_dict),
            "beta": self.beta,
        }
        return cfg

    def config_hash(self) -> str:
        return config_hash(self.resolved())


def config_hash(config: dict) -> str:
    """The first 12 hex digits of the sha256 of a resolved configuration."""
    blob = json.dumps(config, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:12]


def _enum_safe_dict(items):
    return {k: (v.value if hasattr(v, "value") else v) for k, v in items}


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
    encoding = EncodingTransform.identity(domain.dims)

    def task(i: int) -> EpisodicTask:
        task_seed = derive_seed(cfg.seed, "task", domain.domain_id, i)
        return sample_task(world, cfg.sampler, encoding, task_seed)

    return task


def generate_tasks(cfg: BenchConfig, domain: DomainSpec) -> list[EpisodicTask]:
    """The task sequence a run evaluates for one domain; methods share it."""
    task = _task_sampler(cfg, domain)
    return [task(i) for i in range(cfg.n_tasks)]


def _task_units(cfg: BenchConfig, tasks_by_domain: dict | None):
    """``(units, task)``: one ``(domain_id, task_index)`` per task, ordered by
    domain and index, and ``task(domain_id, task_index)`` returning that
    task.  Tasks that were not supplied are sampled inside ``task``, so each
    unit samples its own."""
    if tasks_by_domain is None:
        samplers = {d.domain_id: _task_sampler(cfg, d) for d in cfg.domains}
        units = [(d, i) for d in sorted(samplers) for i in range(cfg.n_tasks)]
        return units, lambda d, i: samplers[d](i)
    units = [(d, i) for d in sorted(tasks_by_domain) for i in range(len(tasks_by_domain[d]))]
    return units, lambda d, i: tasks_by_domain[d][i]


def _resolve_heads(cfg: BenchConfig) -> dict:
    return {
        name: parse_method(name, refine_defaults=cfg.refine, beta=cfg.beta)
        for name in cfg.methods
    }


def run_benchmark(cfg: BenchConfig, tasks_by_domain: dict | None = None) -> BenchmarkReport:
    """Evaluate every method on every domain's shared task sequence.

    ``tasks_by_domain`` lets callers supply pre-generated or file-loaded
    tasks keyed by domain id; by default tasks are sampled from the
    configured domains.
    """
    if cfg.n_tasks < 30 and tasks_by_domain is None:
        raise InvalidConfig("n_tasks must be at least 30 for CI sanity")
    if not cfg.methods:
        raise InvalidConfig("no methods configured")
    heads = _resolve_heads(cfg)
    configs = [heads[method] for method in cfg.methods]
    units, task_of = _task_units(cfg, tasks_by_domain)

    def evaluate(u: int):
        task = task_of(*units[u])
        return task.seed, evaluate_task(configs, task)

    results = ordered_map(evaluate, len(units))

    rows = []
    summary = {}
    per_domain_means: dict[str, dict[str, float]] = {}
    for domain_id in dict.fromkeys(d for d, _ in units):
        done = [(idx, res) for (d, idx), res in zip(units, results) if d == domain_id]
        per_domain_means[domain_id] = {}
        for m, method in enumerate(cfg.methods):
            method_rows = [
                TaskRow(domain_id=domain_id, method=method, task_index=idx,
                        task_seed=task_seed, accuracy=accs[m])
                for idx, (task_seed, accs) in done
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
        metadata={
            "seed": cfg.seed,
            "n_tasks": cfg.n_tasks,
            "config_hash": cfg.config_hash(),
        },
    )
    return report


@dataclass(frozen=True)
class RecallCurve:
    """Mean class recall per shot bucket for one method."""

    method: str
    buckets: dict  # bucket label -> {"recall": float, "classes": int}


@dataclass(frozen=True)
class RecallRecord:
    """Recall of a single (task, class) pair under every method."""

    domain_id: str
    task_index: int
    shot: int
    bucket: str
    recalls: dict  # method -> recall


def recall_vs_shot(cfg: BenchConfig, tasks_by_domain: dict | None = None):
    """Class recall bucketed by class shot, per method.

    Returns ``(curves, records)``: aggregated curves keyed by method, plus
    the per-(task, class) records that produced them, which carry all
    methods' recalls for paired comparisons.  Buckets with no classes are
    omitted.
    """
    heads = _resolve_heads(cfg)
    units, task_of = _task_units(cfg, tasks_by_domain)

    def class_records(u: int) -> list:
        domain_id, idx = units[u]
        task = task_of(domain_id, idx)
        x, y, query = task.support_x, task.support_y, task.query_x
        starts = support_fits(heads.values(), x, y, query)
        preds = {
            method: fit_statistics(head, x, y, query, start=start).query_labels
            for (method, head), start in zip(heads.items(), starts)
        }
        records = []
        for k in range(task.way):
            mask = task.query_y == k
            if not np.any(mask):
                continue
            shot = int(task.shots[k])
            records.append(
                RecallRecord(
                    domain_id=domain_id,
                    task_index=idx,
                    shot=shot,
                    bucket=shot_bucket(shot),
                    recalls={m: float(np.mean(preds[m][mask] == k)) for m in heads},
                )
            )
        return records

    records = [r for task_records in ordered_map(class_records, len(units))
               for r in task_records]

    curves = {}
    for method in heads:
        buckets = {}
        for lo, hi in SHOT_BUCKETS:
            label = bucket_label(lo, hi)
            vals = [r.recalls[method] for r in records if r.bucket == label]
            if vals:
                buckets[label] = {
                    "recall": float(np.mean(vals)),
                    "classes": len(vals),
                }
        curves[method] = RecallCurve(method=method, buckets=buckets)
    return curves, records
