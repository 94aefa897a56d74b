from dataclasses import fields
from types import SimpleNamespace

import numpy as np
import pytest

from mahabench import heads, methods
from mahabench.errors import DimensionMismatch, EmptyClass, LabelOutOfRange, NonFiniteInput
from mahabench.gmm import gmm_log_scores
from mahabench.heads import (
    MetricKind,
    SupportLayout,
    class_scores,
    estimate_class_statistics,
    softmax,
)
from mahabench.methods import (
    HeadConfig,
    evaluate_task,
    fit_statistics,
    parse_method,
    predict,
    predict_labels,
)
from mahabench.refine import RefineConfig
from mahabench.rng import Rng


HEADS = [HeadConfig(metric=metric) for metric in MetricKind] + [HeadConfig(gmm=True)]


@pytest.mark.parametrize("head", HEADS, ids=lambda h: "gmm" if h.gmm else h.metric.value)
def test_predictions_are_the_bits_of_the_head_classifier(head):
    rng = Rng(3)
    first, second = rng.normal((6, 4)), rng.normal((6, 4)) + 2.0
    # classes 0 and 2 share their examples, so every row ties between them
    support = np.vstack([first, second, first])
    stats = estimate_class_statistics(SupportLayout.build(support, np.repeat(np.arange(3), 6)))
    queries = np.vstack([3.0 * rng.normal((40, 4)), stats.means])
    if head.gmm:
        scores = gmm_log_scores(queries, stats)
    else:
        scores = class_scores(queries, stats, head.metric)
    probs, labels = predict(head, stats, queries)
    assert probs.tobytes() == softmax(scores).tobytes()
    assert labels.tobytes() == np.argmax(scores, axis=1).tobytes()
    assert not np.any(labels == 2)  # ties break toward the lowest class index
    got = predict_labels(head, stats, queries)
    assert got.dtype == labels.dtype
    assert got.tobytes() == labels.tobytes()


def toy_task(seed, way=4, shot=3, query_per_class=5, dims=3):
    rng = Rng(seed)
    centers = 2.0 * rng.normal((way, dims))
    support_y = np.repeat(np.arange(way), shot)
    query_y = np.repeat(np.arange(way), query_per_class)
    return SimpleNamespace(
        support_x=centers[support_y] + rng.normal((way * shot, dims)),
        support_y=support_y,
        query_x=centers[query_y] + rng.normal((way * query_per_class, dims)),
        query_y=query_y,
    )


METHODS = [
    parse_method(name, RefineConfig(min_steps=1, max_steps=3), beta)
    for beta in (1.0, 0.25)
    for name in ("simple", "transductive", "gmm", "gmm-em", "simple:euclidean",
                 "transductive:euclidean")
]


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def same_fit(fit, alone) -> bool:
    """Every field of ``fit`` has the bits of ``alone``'s."""
    if fit.head != alone.head or (fit.refresh is None) != (alone.refresh is None):
        return False
    return (all(same_bits(getattr(fit.statistics, f.name), getattr(alone.statistics, f.name))
                for f in fields(fit.statistics))
            and same_bits(fit.queries.rows, alone.queries.rows)
            and same_bits(fit.query_probs, alone.query_probs)
            and same_bits(fit.query_labels, alone.query_labels))


@pytest.mark.parametrize("seed", range(4))
def test_shared_fits_give_the_bits_of_one_fit_per_head(seed):
    task = toy_task(seed)
    x, y, query = task.support_x, task.support_y, task.query_x
    # two betas, in several orders, and one head named twice (single-pass
    # for seeds 0 and 2, refining for 1 and 3)
    shuffled = [METHODS[i] for i in Rng(seed).permutation(len(METHODS))]
    for configs in (METHODS, METHODS[::-1], shuffled + [METHODS[seed]]):
        got = evaluate_task(configs, task)
        fits = fit_statistics(configs, x, y, query)
        for head, accuracy, fit in zip(configs, got, fits):
            alone = fit_statistics([head], x, y, query)[0]
            assert fit.head == head and same_fit(fit, alone)
            # each head's query set scored again after its fit
            labels = predict_labels(head, alone.statistics, query)
            assert accuracy == float(np.mean(labels == task.query_y))
            assert alone.query_labels.tobytes() == labels.tobytes()
            probs, _ = predict(head, alone.statistics, query)
            assert alone.query_probs.tobytes() == probs.tobytes()


def test_one_call_estimates_once_per_beta_and_shares_equal_scorers(monkeypatch):
    task = toy_task(0)
    estimates = []
    estimate = methods.estimate_class_statistics
    monkeypatch.setattr(methods, "estimate_class_statistics",
                        lambda *a, **k: estimates.append(k["beta"]) or estimate(*a, **k))
    fits = fit_statistics(METHODS, task.support_x, task.support_y, task.query_x)
    assert estimates == [1.0, 0.25]
    assert len({id(fit.queries) for fit in fits}) == 1
    single = [fit for head, fit in zip(METHODS, fits) if head.refine is None]
    assert len({id(f) for f in single}) == 6  # 3 scorers at each of 2 betas
    by_beta = {}
    for head, fit in zip(METHODS, fits):
        if head.refine is None:
            assert by_beta.setdefault(head.beta, fit.statistics) is fit.statistics
    repeated = fit_statistics([METHODS[0], METHODS[2], METHODS[0]], task.support_x,
                              task.support_y, task.query_x)
    assert repeated[0] is repeated[2]


def test_the_refinement_starts_from_the_shared_scoring(monkeypatch):
    task = toy_task(1, query_per_class=7)
    calls = []
    scorer = heads.class_scores
    monkeypatch.setattr(heads, "class_scores", lambda *a: calls.append(1) or scorer(*a))
    outcomes = []
    loop = methods.run_refinement
    monkeypatch.setattr(
        methods, "run_refinement", lambda *a: outcomes.append(loop(*a)) or outcomes[-1]
    )
    simple, transductive = parse_method("simple"), parse_method("transductive")
    evaluate_task([simple, transductive], task)
    scorings = len(calls)
    [outcome] = outcomes
    assert outcome.iterations_run == 3
    # the simple head's scoring is the first refresh: one scoring per iteration
    assert scorings == outcome.iterations_run


def test_a_single_pass_fit_scores_nothing_until_read(monkeypatch):
    task = toy_task(2)
    calls = []
    scorer = heads.class_scores
    monkeypatch.setattr(heads, "class_scores", lambda *a: calls.append(1) or scorer(*a))
    fit = fit_statistics([HeadConfig()], task.support_x, task.support_y, task.query_x)[0]
    assert calls == []
    fit.query_probs, fit.query_labels, fit.query_labels
    assert calls == [1]


@pytest.mark.parametrize("seed", range(3))
def test_a_task_builds_one_support_layout_for_every_head(monkeypatch, seed):
    # two betas, refining and GMM heads: one layout, handed to every fit
    builds = []
    build = SupportLayout.build.__func__
    monkeypatch.setattr(
        SupportLayout, "build", classmethod(lambda cls, *a: builds.append(1) or build(cls, *a))
    )
    evaluate_task(METHODS, toy_task(seed))
    assert len(builds) == 1


def fit_error(head, support_x, support_y, query_x):
    """The typed error fitting ``head`` raises, or None."""
    try:
        fit = fit_statistics([head], support_x, support_y, query_x)[0]
        fit.query_labels
    except (DimensionMismatch, EmptyClass, LabelOutOfRange, NonFiniteInput) as exc:
        return type(exc)
    return None


@pytest.mark.parametrize(
    "head", METHODS[:6],
    ids=lambda h: ("gmm" if h.gmm else h.metric.value) + ("-refining" if h.refine else ""),
)
def test_bad_input_raises_a_typed_error_through_fit_statistics(head):
    task = toy_task(4, way=3, shot=2, query_per_class=2, dims=2)
    x, y, query = task.support_x, task.support_y, task.query_x
    gap = np.where(y == 1, 2, y)  # class 1 has no support row
    negative = y.copy()
    negative[0] = -1
    nan_support, nan_query = x.copy(), query.copy()
    nan_support[1, 0] = np.nan
    nan_query[1, 0] = np.inf
    assert fit_error(head, x, y, query) is None
    assert fit_error(head, np.empty((0, 2)), np.empty(0, dtype=np.int64), query) is EmptyClass
    assert fit_error(head, x, gap, query) is EmptyClass
    assert fit_error(head, x, negative, query) is LabelOutOfRange
    for width in (1, 3):
        assert fit_error(head, x, y, np.ones((4, width))) is DimensionMismatch
    if head.refine is not None:  # a single-pass head scores one vector as one query
        assert fit_error(head, x, y, np.ones(2)) is DimensionMismatch
    assert fit_error(head, nan_support, y, query) is NonFiniteInput
    assert fit_error(head, x, y, nan_query) is NonFiniteInput
