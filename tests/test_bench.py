from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import rankdata

from mahabench import bench, parallel
from mahabench.bench import (
    BenchConfig,
    DomainSpec,
    average_ranks,
    generate_tasks,
    mean_ci,
    recall_vs_shot,
    run_benchmark,
    shot_bucket,
)
from mahabench.errors import InvalidConfig
from mahabench.methods import fit_statistics, parse_method
from mahabench.worlds import SamplerConfig, SamplerMode

from episodes import tasks_equal

FIXED_55 = SamplerConfig(
    mode=SamplerMode.FIXED_WAY_SHOT, fixed_way=5, fixed_shot=5, query_per_class=10
)


def named_heads(*names):
    """``BenchConfig.methods`` for the method ``names``."""
    return tuple((name, parse_method(name)) for name in names)


def small_config(methods=("simple",), n_tasks=30, seed=1, **domain_kw):
    domain_kw.setdefault("dims", 4)
    domain_kw.setdefault("class_count", 8)
    domain_kw.setdefault("anisotropy", 4.0)
    domain_kw.setdefault("mean_radius", 2.0)
    return BenchConfig(
        domains=(DomainSpec(domain_id="t", **domain_kw),),
        methods=named_heads(*methods),
        n_tasks=n_tasks,
        seed=seed,
        sampler=FIXED_55,
    )


class TestAggregation:
    def test_mean_ci_hand_example(self):
        # accuracies 0.5 and 1.0: mean 0.75, half-width 1.96 * 0.25 / sqrt(2)
        mean, half = mean_ci([0.5, 1.0])
        assert mean == pytest.approx(0.75)
        assert half == pytest.approx(1.96 * 0.25 / np.sqrt(2), abs=1e-12)

    def test_mean_ci_matches_formula_on_random_values(self):
        vals = np.array([0.2, 0.4, 0.9, 0.7, 0.5])
        mean, half = mean_ci(vals)
        assert mean == pytest.approx(vals.mean(), abs=1e-12)
        assert half == pytest.approx(1.96 * vals.std() / np.sqrt(5), abs=1e-12)

    def test_single_method_rank_is_one(self):
        ranks = average_ranks({"a": {"m": 0.5}, "b": {"m": 0.9}})
        assert ranks == {"m": 1.0}

    def test_rank_averaging_with_ties(self):
        per_domain = {
            "d1": {"x": 0.9, "y": 0.8, "z": 0.7},
            "d2": {"x": 0.5, "y": 0.5, "z": 0.9},
        }
        ranks = average_ranks(per_domain)
        assert ranks["x"] == pytest.approx((1 + 2.5) / 2)
        assert ranks["y"] == pytest.approx((2 + 2.5) / 2)
        assert ranks["z"] == pytest.approx((3 + 1) / 2)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 6).flatmap(lambda methods: st.lists(
        st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0]), min_size=methods, max_size=methods),
        min_size=1, max_size=4)))
    def test_ranks_are_scipys_tie_averaged_ranks(self, per_domain):
        # accuracies from four values, so that most domains hold ties; ranks
        # are halves, so their means are exact
        methods = [f"m{i}" for i in range(len(per_domain[0]))]
        ranks = average_ranks({f"d{j}": dict(zip(methods, accs))
                               for j, accs in enumerate(per_domain)})
        expected = np.mean([rankdata(-np.array(accs), method="average") for accs in per_domain],
                           axis=0)
        assert [ranks[m] for m in methods] == expected.tolist()

    def test_shot_buckets(self):
        assert shot_bucket(1) == "1"
        assert shot_bucket(3) == "2-4"
        assert shot_bucket(7) == "5-9"
        assert shot_bucket(15) == "10-24"
        assert shot_bucket(80) == "25+"


class TestRunBenchmark:
    def test_requires_thirty_tasks(self):
        with pytest.raises(InvalidConfig):
            run_benchmark(small_config(n_tasks=5))

    def test_methods_share_bit_identical_tasks(self):
        cfg = small_config()
        tasks_a = generate_tasks(cfg, cfg.domains[0])
        tasks_b = generate_tasks(cfg, cfg.domains[0])
        assert all(tasks_equal(a, b) for a, b in zip(tasks_a, tasks_b))

    def test_report_is_deterministic(self):
        cfg = small_config(methods=("simple", "gmm"))
        a = run_benchmark(cfg)
        b = run_benchmark(cfg)
        assert a.rows == b.rows
        assert a.summary == b.summary

    def test_summary_matches_row_recount(self):
        cfg = small_config(methods=("simple", "transductive"))
        report = run_benchmark(cfg)
        for (domain, method), stats in report.summary.items():
            rows = [
                r.accuracy
                for r in report.rows
                if r.domain_id == domain and r.method == method
            ]
            assert stats["n_tasks"] == len(rows)
            assert stats["mean"] == pytest.approx(np.mean(rows), abs=1e-12)

    def test_unknown_method_rejected(self):
        with pytest.raises(InvalidConfig):
            run_benchmark(small_config(methods=("nope",)))

    def test_spherical_world_euclidean_matches_mahalanobis_within_ci(self):
        # every true covariance is I, so the Euclidean head is the right
        # metric and the Mahalanobis head pays for estimating each Q_k from
        # the shots: a variance cost that shrinks as the shots grow.  Tasks
        # are shared between heads, so compare paired per-task differences.
        def run(shot):
            cfg = BenchConfig(
                domains=(
                    DomainSpec(
                        domain_id="iso",
                        dims=4,
                        class_count=8,
                        anisotropy=1.0,
                        mean_radius=1.5,
                    ),
                ),
                methods=named_heads("simple", "simple:euclidean"),
                n_tasks=1000,
                seed=7,
                sampler=SamplerConfig(
                    mode=SamplerMode.FIXED_WAY_SHOT,
                    fixed_way=5,
                    fixed_shot=shot,
                    query_per_class=10,
                ),
            )
            report = run_benchmark(cfg)
            acc = {
                m: np.array([r.accuracy for r in report.rows if r.method == m])
                for m, _ in cfg.methods
            }
            return report, mean_ci(acc["simple"] - acc["simple:euclidean"])

        _, (gap_5, half_5) = run(5)
        report, (gap_50, half_50) = run(50)
        # the 5-shot deficit is real, and the 50-shot one lies strictly
        # closer to zero with no overlap
        assert gap_5 + half_5 < 0.0
        assert gap_5 + half_5 < gap_50 - half_50
        assert abs(gap_50) < abs(gap_5)
        # with sharp class covariances the heads are indistinguishable
        maha = report.summary[("iso", "simple")]
        eucl = report.summary[("iso", "simple:euclidean")]
        lo_m, hi_m = maha["mean"] - maha["ci95"], maha["mean"] + maha["ci95"]
        lo_e, hi_e = eucl["mean"] - eucl["ci95"], eucl["mean"] + eucl["ci95"]
        assert lo_m <= hi_e and lo_e <= hi_m  # intervals overlap


class TestRecallVsShot:
    def test_perfect_classifier_gets_recall_one_everywhere(self):
        cfg = BenchConfig(
            domains=(
                DomainSpec(
                    domain_id="far",
                    dims=4,
                    class_count=8,
                    anisotropy=1.0,
                    mean_radius=15.0,
                ),
            ),
            methods=named_heads("simple"),
            n_tasks=40,
            seed=3,
            sampler=FIXED_55,
        )
        curves = recall_vs_shot(cfg)
        for entry in curves["simple"].values():
            assert entry["recall"] == 1.0

    def test_fixed_shot_run_has_single_bucket(self):
        cfg = small_config(n_tasks=30)
        curves = recall_vs_shot(cfg)
        assert list(curves["simple"]) == ["5-9"]


@pytest.mark.parametrize("run", [run_benchmark, recall_vs_shot])
def test_a_run_fits_each_task_once(run, monkeypatch):
    # serial, so that the calls are made in this process
    monkeypatch.setattr(parallel, "_worker_count", lambda count: 1)
    calls = []
    fit = bench.fit_statistics
    monkeypatch.setattr(bench, "fit_statistics", lambda *a: calls.append(1) or fit(*a))
    records = []
    evaluate = bench.evaluate_task
    monkeypatch.setattr(bench, "evaluate_task", lambda *a: records.append(1) or evaluate(*a))
    run(small_config(methods=("simple", "transductive", "gmm-em"), n_tasks=30))
    assert len(calls) == len(records) == 30


def test_a_class_with_no_query_row_counts_in_no_recall():
    cfg = small_config(methods=("simple", "transductive"))
    task = generate_tasks(cfg, cfg.domains[0])[0]
    kept = task.query_y != 2  # class 2 keeps its support rows and loses its queries
    gap = replace(task, query_x=task.query_x[kept], query_y=task.query_y[kept])
    curves = recall_vs_shot(cfg, {"t": [gap]})
    report = run_benchmark(cfg, {"t": [gap]})
    fits = fit_statistics([head for _, head in cfg.methods], gap.support_x, gap.support_y,
                          gap.query_x)
    for (method, _), fit in zip(cfg.methods, fits):
        recalls = [np.mean(fit.query_labels[gap.query_y == k] == k)
                   for k in range(task.way) if k != 2]
        assert curves[method] == {"5-9": {"recall": float(np.mean(recalls)),
                                          "classes": task.way - 1}}
        [row] = [r for r in report.rows if r.method == method]
        assert row.accuracy == float(np.mean(fit.query_labels == gap.query_y))
