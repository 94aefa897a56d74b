"""The paper's invariances as properties of the fitted heads.

At beta = 0 every class covariance transforms as ``A Q_k A^T`` under
x -> Ax + b, so every squared Mahalanobis distance, and with it every label
of ``simple``, ``transductive``, ``gmm`` and ``gmm-em``, stays the same
(the GMM scores shift by one constant for every class).  Relabelling the
classes permutes the probability columns of every head, and permuting the
query rows permutes every head's query labels, at any beta: the transductive
heads weigh the query rows by their soft labels, whatever their order.  The
same holds slice by slice for a stack of same-shape tasks fitted in one
call.

Summation order moves the last bits, so these compare labels, not bits.
Each property assumes that every scoring of the reference fit, the
refinement's refreshes included, puts the top class ahead of the second
by ``MARGIN * (1 + |top score|)``: a closer call may flip on a roundoff,
which would make the refinement stop at another iteration, and no test of
exact labels can hold for it.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mahabench import heads
from mahabench.methods import fit_statistics, parse_method
from mahabench.rng import Rng

MARGIN = 1e-6

NAMES = ("simple", "transductive", "gmm", "gmm-em")
HEADS = [parse_method(name, beta=0.0) for name in NAMES]

tasks = st.fixed_dictionaries({
    "seed": st.integers(0, 2**32 - 1),
    "classes": st.integers(2, 4),
    "dims": st.integers(1, 4),
    "shot": st.integers(3, 5),  # more support rows than dims + 1: no jitter at beta 0
    "queries": st.integers(1, 10),
    "spread": st.sampled_from([0.5, 1.5, 3.0]),
})


def draw_task(seed, classes, dims, shot, queries, spread):
    """``(support_x, support_y, query_x)`` of one Gaussian-cluster task."""
    rng = Rng(seed)
    centers = spread * rng.normal((classes, dims))
    support_y = np.repeat(np.arange(classes), shot)
    query_y = rng.integers(0, classes - 1, queries)
    return (centers[support_y] + rng.normal((support_y.size, dims)), support_y,
            centers[query_y] + rng.normal((queries, dims)))


def draw_stack(task, batch):
    """``(support_x, support_y, query_x)`` of ``batch`` same-shape tasks,
    slice b drawn from seed ``task["seed"] + b``, as ``(B, ...)`` stacks."""
    slices = [draw_task(**{**task, "seed": (task["seed"] + b) % 2**32}) for b in range(batch)]
    return tuple(np.stack(arrays) for arrays in zip(*slices))


def fit_with_margin(head, support_x, support_y, query_x):
    """``head`` fitted to the task, and the smallest relative top-two score
    margin of any scoring the fit made."""
    margins = []
    score = heads.class_scores

    def recording(rows, stats, metric):
        values = score(rows, stats, metric)
        top = np.sort(values, axis=-1)[..., -2:]
        margins.append(np.min((top[..., 1] - top[..., 0]) / (1.0 + np.abs(top[..., 1]))))
        return values

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(heads, "class_scores", recording)
        [fit] = fit_statistics([head], support_x, support_y, query_x)
        fit.query_labels  # a single-pass fit scores when first read
    return fit, min(margins)


@settings(max_examples=60, deadline=None)
@given(task=tasks, head=st.sampled_from(HEADS), map_seed=st.integers(0, 2**32 - 1))
def test_labels_at_beta_zero_do_not_change_under_an_affine_map(task, head, map_seed):
    support_x, support_y, query_x = draw_task(**task)
    rng = Rng(map_seed)
    d = task["dims"]
    a = np.eye(d) + 2.0 * rng.normal((d, d))
    b = 5.0 * rng.normal(d)
    assume(np.linalg.cond(a) < 1e3)
    fit, margin = fit_with_margin(head, support_x, support_y, query_x)
    assume(margin > MARGIN)
    moved, _ = fit_with_margin(head, support_x @ a.T + b, support_y, query_x @ a.T + b)
    assert not fit.statistics.jitter.any() and not moved.statistics.jitter.any()
    assert np.array_equal(moved.query_labels, fit.query_labels)


@settings(max_examples=60, deadline=None)
@given(task=tasks, head=st.sampled_from(HEADS), perm_seed=st.integers(0, 2**32 - 1))
def test_relabelling_the_classes_permutes_the_probability_columns(task, head, perm_seed):
    support_x, support_y, query_x = draw_task(**task)
    perm = Rng(perm_seed).permutation(task["classes"])
    fit, margin = fit_with_margin(head, support_x, support_y, query_x)
    assume(margin > MARGIN)
    relabelled, _ = fit_with_margin(head, support_x, perm[support_y], query_x)
    assert np.array_equal(relabelled.query_labels, perm[fit.query_labels])
    # column perm[k] of the relabelled fit is class k's
    assert np.allclose(relabelled.query_probs[:, perm], fit.query_probs, rtol=0.0, atol=1e-9)


@settings(max_examples=60, deadline=None)
@given(task=tasks, head=st.sampled_from([*HEADS, *(parse_method(name) for name in NAMES)]),
       perm_seed=st.integers(0, 2**32 - 1))
def test_permuting_the_queries_permutes_the_labels(task, head, perm_seed):
    support_x, support_y, query_x = draw_task(**task)
    perm = Rng(perm_seed).permutation(task["queries"])
    fit, margin = fit_with_margin(head, support_x, support_y, query_x)
    assume(margin > MARGIN)
    shuffled, _ = fit_with_margin(head, support_x, support_y, query_x[perm])
    assert np.array_equal(shuffled.query_labels, fit.query_labels[perm])


@settings(max_examples=60, deadline=None)
@given(task=tasks, batch=st.integers(1, 3),
       head=st.sampled_from([*HEADS, *(parse_method(name) for name in NAMES)]),
       perm_seed=st.integers(0, 2**32 - 1))
def test_permuting_each_slices_queries_permutes_its_labels(task, batch, head, perm_seed):
    # the stacked form: B same-shape tasks fitted in one call, each slice's
    # query rows shuffled by a permutation of its own
    support_x, support_y, query_x = draw_stack(task, batch)
    rng = Rng(perm_seed)
    perms = np.stack([rng.permutation(task["queries"]) for _ in range(batch)])
    fit, margin = fit_with_margin(head, support_x, support_y, query_x)
    assume(margin > MARGIN)
    shuffled, _ = fit_with_margin(head, support_x, support_y,
                                  np.take_along_axis(query_x, perms[..., None], axis=1))
    assert fit.query_labels.shape == (batch, task["queries"])
    assert np.array_equal(shuffled.query_labels,
                          np.take_along_axis(fit.query_labels, perms, axis=1))


@settings(max_examples=60, deadline=None)
@given(task=tasks, batch=st.integers(1, 3), head=st.sampled_from(HEADS),
       map_seed=st.integers(0, 2**32 - 1))
def test_each_slices_labels_at_beta_zero_do_not_change_under_its_affine_map(task, batch, head,
                                                                            map_seed):
    # the stacked form: slice b of one call moved by a map x -> A_b x + b_b of its own
    support_x, support_y, query_x = draw_stack(task, batch)
    rng = Rng(map_seed)
    d = task["dims"]
    a = np.eye(d) + 2.0 * rng.normal((batch, d, d))
    b = 5.0 * rng.normal((batch, 1, d))
    assume(np.all(np.linalg.cond(a) < 1e3))
    fit, margin = fit_with_margin(head, support_x, support_y, query_x)
    assume(margin > MARGIN)
    a_t = a.swapaxes(-1, -2)
    moved, _ = fit_with_margin(head, support_x @ a_t + b, support_y, query_x @ a_t + b)
    assert not fit.statistics.jitter.any() and not moved.statistics.jitter.any()
    assert moved.query_labels.shape == (batch, task["queries"])
    assert np.array_equal(moved.query_labels, fit.query_labels)


@settings(max_examples=60, deadline=None)
@given(task=tasks, batch=st.integers(1, 3), head=st.sampled_from(HEADS),
       perm_seed=st.integers(0, 2**32 - 1))
def test_relabelling_each_slices_classes_permutes_its_probability_columns(task, batch, head,
                                                                          perm_seed):
    # the stacked form: slice b's classes relabelled by a permutation of its own
    support_x, support_y, query_x = draw_stack(task, batch)
    rng = Rng(perm_seed)
    perms = np.stack([rng.permutation(task["classes"]) for _ in range(batch)])
    fit, margin = fit_with_margin(head, support_x, support_y, query_x)
    assume(margin > MARGIN)
    relabelled, _ = fit_with_margin(head, support_x, np.take_along_axis(perms, support_y, axis=1),
                                    query_x)
    assert np.array_equal(relabelled.query_labels,
                          np.take_along_axis(perms, fit.query_labels, axis=1))
    # column perms[b, k] of slice b of the relabelled fit is class k's
    assert np.allclose(np.take_along_axis(relabelled.query_probs, perms[:, None, :], axis=2),
                       fit.query_probs, rtol=0.0, atol=1e-9)
