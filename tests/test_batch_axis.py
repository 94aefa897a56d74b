"""The fit path's batch axis: a stack of B fits of the same shape gives, in
every slice, the bits of the unbatched call on that slice alone.

Each property builds B random tasks with a common class count, support
size and query count, runs the stacked call once and the unbatched call
per slice, and compares every result array by its bytes.
"""

from dataclasses import fields

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mahabench import spd
from mahabench.continual import merge_class_statistics
from mahabench.heads import (
    ClassStatistics,
    MetricKind,
    QuerySet,
    SupportLayout,
    class_scores,
    class_statistics,
    estimate_class_statistics,
    softmax,
)
from mahabench.methods import HeadConfig, fit_statistics, predict
from mahabench.refine import RefineConfig, run_refinement
from mahabench.rng import Rng


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def same_fields(stacked, slices) -> bool:
    """Every array field of ``stacked`` holds, in slice b, ``slices[b]``'s."""
    return all(same_bits(getattr(stacked, f.name)[b], getattr(one, f.name))
               for f in fields(stacked) if f.init for b, one in enumerate(slices))


def task_stack(seed, batch, classes, dims, extra, queries, spread=2.0):
    """``(features, labels, query_rows)`` of ``batch`` tasks: each support set
    holds every class once plus ``extra`` rows, and each query set
    ``queries`` rows."""
    rng = Rng(seed)
    centers = spread * rng.normal((classes, dims))
    labels = np.concatenate(
        [np.tile(np.arange(classes), (batch, 1)),
         rng.integers(0, classes - 1, batch * extra).reshape(batch, extra)], axis=1)
    features = centers[labels] + rng.normal(labels.shape + (dims,))
    query_labels = rng.integers(0, classes - 1, batch * queries).reshape(batch, queries)
    query_rows = centers[query_labels] + rng.normal((batch, queries, dims))
    return features, labels, query_rows


tasks = st.fixed_dictionaries({
    "seed": st.integers(0, 2**32 - 1),
    "batch": st.integers(1, 4),
    "classes": st.integers(2, 5),
    "dims": st.integers(1, 4),
    "extra": st.integers(0, 6),
    "queries": st.integers(0, 8),
})


@settings(max_examples=60, deadline=None)
@given(task=tasks, beta=st.sampled_from([0.5, 1.0]), weights_seed=st.integers(0, 1000))
def test_layouts_query_moments_and_statistics_match_each_slice(task, beta, weights_seed):
    features, labels, query_rows = task_stack(**task)
    k = task["classes"]
    layout = SupportLayout.build(features, labels)
    slices = [SupportLayout.build(features[b], labels[b]) for b in range(task["batch"])]
    assert layout.batch_shape == (task["batch"],)
    assert same_fields(layout, slices)

    queries = QuerySet.build(query_rows, task["dims"])
    shifted, products = queries.moments_about(layout.center)
    for b, one in enumerate(slices):
        one_shifted, one_products = QuerySet.build(query_rows[b], task["dims"]).moments_about(
            one.center)
        assert same_bits(shifted[b], one_shifted) and same_bits(products[b], one_products)

    weights = softmax(Rng(weights_seed).normal(query_rows.shape[:2] + (k,)))
    stats = class_statistics(layout, queries, weights, beta)
    assert same_fields(stats, [class_statistics(one, query_rows[b], weights[b], beta)
                               for b, one in enumerate(slices)])


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), classes=st.integers(1, 4), dims=st.integers(1, 6),
       heavy=st.lists(st.integers(0, 8), min_size=2, max_size=5), unused=st.integers(0, 2))
def test_layouts_of_slices_padded_to_different_lengths_match_each_slice(
        seed, classes, dims, heavy, unused):
    # slice b gives class 0 heavy[b] of its extra rows and the others to
    # random classes, so the slices' largest classes, and with them the
    # padded blocks whose Gram matrices are the class moments, differ in
    # length; the first ``unused`` classes hold no row of any slice
    rng = Rng(seed)
    extra = max(heavy)
    labels = unused + np.stack([
        np.concatenate([np.arange(classes), np.zeros(h, dtype=np.int64),
                        rng.integers(0, classes - 1, extra - h)])[rng.permutation(classes + extra)]
        for h in heavy])
    features = rng.normal(labels.shape + (dims,))
    layout = SupportLayout.build(features, labels)
    slices = [SupportLayout.build(features[b], labels[b]) for b in range(len(heavy))]
    assert same_fields(layout, slices)
    assume(len(set(layout.class_sizes.max(axis=1).tolist())) > 1)


@settings(max_examples=60, deadline=None)
@given(task=tasks, metric=st.sampled_from(list(MetricKind)))
def test_every_scorer_matches_each_slice(task, metric):
    features, labels, query_rows = task_stack(**task)
    k = task["classes"]
    stats = class_statistics(SupportLayout.build(features, labels), query_rows,
                             np.zeros(query_rows.shape[:2] + (k,)), 1.0)
    singles = [stats.take(b) for b in range(task["batch"])]
    scores = class_scores(query_rows, stats, metric)
    forms = spd.inverse_quad_form(stats.inverse_factors, query_rows, stats.means)
    probs = softmax(scores)
    for b, one in enumerate(singles):
        assert same_bits(scores[b], class_scores(query_rows[b], one, metric))
        assert same_bits(forms[b], spd.inverse_quad_form(one.inverse_factors, query_rows[b],
                                                         one.means))
        assert same_bits(probs[b], softmax(scores[b]))


HEADS = [
    HeadConfig(),
    HeadConfig(metric=MetricKind.SQUARED_EUCLIDEAN),
    HeadConfig(metric=MetricKind.GMM_LOG_POSTERIOR),
    HeadConfig(refine=RefineConfig()),
    HeadConfig(refine=RefineConfig(min_steps=1, max_steps=6)),
    HeadConfig(metric=MetricKind.COSINE_SIMILARITY, refine=RefineConfig(2, 5)),
    HeadConfig(metric=MetricKind.GMM_LOG_POSTERIOR, refine=RefineConfig(1, 5)),
]


def refine_alone(head, features, labels, query_rows):
    """The refinement ``fit_statistics`` runs for ``head`` on a task, from
    the task's support-only estimate."""
    layout = SupportLayout.build(features, labels)
    return run_refinement(layout, estimate_class_statistics(layout, head.beta), query_rows,
                          head.refine, lambda stats, x: predict(head, stats, x), head.beta)


def fit_matches_each_slice(head, features, labels, query_rows, test_rows):
    """Fit ``head`` to the stack and to each slice; check that every slice's
    statistics, query predictions and test predictions have the bits of its
    own fit, and return the slices' refinement iteration counts."""
    [fit] = fit_statistics([head], features, labels, query_rows)
    probs, pred = predict(head, fit.statistics, test_rows)
    iterations = []
    for b in range(features.shape[0]):
        if head.refine is not None:
            iterations.append(refine_alone(head, features[b], labels[b], query_rows[b])
                              .iterations_run)
        [one] = fit_statistics([head], features[b], labels[b], query_rows[b])
        assert same_fields(fit.statistics.take([b]), [one.statistics])
        assert same_bits(fit.query_probs[b], one.query_probs)
        assert same_bits(fit.query_labels[b], one.query_labels)
        one_probs, one_pred = predict(head, one.statistics, test_rows[b])
        assert same_bits(probs[b], one_probs) and same_bits(pred[b], one_pred)
    return iterations


@settings(max_examples=40, deadline=None)
@given(task=tasks, head=st.sampled_from(HEADS), spread=st.sampled_from([0.3, 1.0, 3.0]))
def test_fits_and_predictions_match_each_slice(task, head, spread):
    task = {**task, "spread": spread}
    features, labels, query_rows = task_stack(**task)
    test_rows = task_stack(**{**task, "seed": task["seed"] ^ 1})[2]
    fit_matches_each_slice(head, features, labels, query_rows, test_rows)


def test_refinement_stops_each_fit_at_its_own_iteration():
    # overlapping classes, so that the fits of a stack need different
    # numbers of refinement iterations
    cfg = RefineConfig(min_steps=1, max_steps=8)
    head = HeadConfig(refine=cfg)
    for seed in range(200):
        features, labels, query_rows = task_stack(seed, 4, 3, 2, 3, 12, spread=0.8)
        test_rows = task_stack(seed + 1000, 4, 3, 2, 3, 5)[2]
        iterations = fit_matches_each_slice(head, features, labels, query_rows, test_rows)
        if len(set(iterations)) >= 3:
            break
    else:
        pytest.fail("no stack of fits stopped at three different iterations")
    outcome = refine_alone(head, features, labels, query_rows)
    assert outcome.iterations_run == max(iterations)
    assert isinstance(outcome.iterations_run, int)
    assert isinstance(outcome.converged_early, bool)


def test_a_repair_in_one_slice_leaves_its_neighbours_exact():
    # at beta = 0, slice 1's last feature is 0 on every row, so its
    # covariances are singular and need ensure_pd's jitter; the others do not
    features, labels, query_rows = task_stack(5, 3, 3, 3, 9, 4)
    features[1, :, -1] = 0.0
    query_rows[1, :, -1] = 0.0
    for head in (HeadConfig(beta=0.0), HeadConfig(beta=0.0, refine=RefineConfig())):
        fit_matches_each_slice(head, features, labels, query_rows, query_rows)
    stats = fit_statistics([HeadConfig(beta=0.0)], features, labels, query_rows)[0].statistics
    assert np.all(stats.jitter[1] > 0)
    assert np.all(stats.jitter[[0, 2]] == 0)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), batch=st.integers(1, 4), k=st.integers(1, 4),
       d=st.integers(1, 4), broken=st.integers(0, 3))
def test_factor_stack_matches_each_slice(seed, batch, k, d, broken):
    rng = Rng(seed)
    a = rng.normal((batch, k, d + 2, d))
    covs = a.swapaxes(-1, -2) @ a + 0.1 * np.eye(d)
    if broken < batch:  # one matrix that needs a repair
        covs[broken, 0] = 0.0
    stacked = spd.factor_stack(covs)
    for b in range(batch):
        for whole, part in zip(stacked, spd.factor_stack(covs[b])):
            assert same_bits(whole[b], part)
    assert (stacked[3] > 0).sum() == (1 if broken < batch else 0)


def test_statistics_concatenate_and_take_along_the_batch():
    features, labels, query_rows = task_stack(3, 4, 3, 2, 2, 3)
    stats = fit_statistics([HeadConfig()], features, labels, query_rows)[0].statistics
    order = np.array([2, 0, 3, 1])
    joined = ClassStatistics.concatenate([stats.take(order[:1]), stats.take(order[1:])])
    assert same_fields(joined, [stats.take(b) for b in order])


@settings(max_examples=40, deadline=None)
@given(task=tasks, picks=st.data())
def test_merge_matches_each_slice(task, picks):
    # continual merges the revisited classes of a block of fits, picked from
    # its memory along the class axis; each slice merges as that fit alone
    features, labels, query_rows = task_stack(**task)
    k = task["classes"]
    layout = SupportLayout.build(features, labels)
    old = class_statistics(layout, query_rows, np.zeros(query_rows.shape[:2] + (k,)), 1.0)
    weights = softmax(Rng(task["seed"] ^ 7).normal(query_rows.shape[:2] + (k,)))
    new = class_statistics(layout, query_rows, weights, 0.5)
    ids = np.array(picks.draw(st.lists(st.integers(0, k - 1), min_size=1, max_size=k,
                                       unique=True)))
    pick = [ClassStatistics(*(getattr(stats, f.name)[:, ids] for f in fields(stats)))
            for stats in (old, new)]
    merged = merge_class_statistics(*pick)
    assert same_fields(merged, [merge_class_statistics(old.take(b).take(ids),
                                                       new.take(b).take(ids))
                                for b in range(task["batch"])])


def test_factor_stack_does_not_depend_on_the_layout():
    # a stack picked along its class axis is laid out class-major; its
    # factors and inverses are still those of the same stack in C order
    rng = Rng(11)
    a = rng.normal((3, 4, 5, 3))
    covs = (a.swapaxes(-1, -2) @ a + 0.1 * np.eye(3))[:, [2, 0, 3]]
    assert not covs.flags.c_contiguous
    for whole, part in zip(spd.factor_stack(covs), spd.factor_stack(covs.copy())):
        assert same_bits(whole, part)
