"""Streaming tasks with statistics merging and encoding strategies.

Each task in a stream carries its own true affine encoding of the latent
feature space.  The head tracks a working encoding per strategy: the most
recent task's (moving), the first task's (first), or a running average
(averaging).  Features are always realized in the current working frame,
while saved class statistics keep the frame they were estimated in; a
drifting working frame therefore invalidates old statistics, which is the
forgetting mechanism under the moving strategy.
"""

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import spd
from .errors import DimensionMismatch, InvalidConfig, NotEnoughClasses
from .heads import ClassStatistics
from .methods import HeadConfig, fit_statistics, predict_labels
from .rng import Rng
from .worlds import ClusterWorld, EncodingTransform, draw_class_examples


class EncodingStrategy(Enum):
    MOVING = "moving"
    FIRST = "first"
    AVERAGING = "averaging"


class HeadMode(Enum):
    MULTI_HEAD = "multi"
    SINGLE_HEAD = "single"


@dataclass
class ClassRecord:
    """Merged statistics of one class; the covariance is factored once.

    Without a ``factor`` the covariance is repaired and factored on
    creation, and the factor's inverse and the jitter it needed are kept
    beside it, so evaluations reuse both instead of re-factoring or
    re-inverting.  A record given a ``factor`` must be given its
    ``inverse_factor`` too.
    """

    mean: np.ndarray
    covariance: np.ndarray
    count: float
    factor: np.ndarray | None = None
    inverse_factor: np.ndarray | None = None
    jitter: float = 0.0

    def __post_init__(self):
        if self.factor is None:
            covs, factors, inverses, jitter = spd.factor_stack([self.covariance])
            self.covariance, self.factor, self.inverse_factor = covs[0], factors[0], inverses[0]
            self.jitter = float(jitter[0])
        elif self.inverse_factor is None:
            raise ValueError("a record with a factor needs its inverse factor")


@dataclass
class ContinualState:
    """Mutable per-session state: merged class records and encoding memory."""

    strategy: EncodingStrategy
    tasks_seen: int = 0
    classes: dict = field(default_factory=dict)  # global class id -> ClassRecord
    first_encoding: EncodingTransform | None = None
    average_encoding: EncodingTransform | None = None


def merge_class_statistics(old: ClassRecord, new: ClassRecord) -> ClassRecord:
    """Count-weighted convex combination of means and covariances."""
    if old.mean.shape != new.mean.shape:
        raise DimensionMismatch("merged means disagree on dimension")
    if old.count <= 0 or new.count <= 0:
        raise ValueError("merge needs positive counts on both sides")
    total = old.count + new.count
    w_new = new.count / total
    w_old = old.count / total
    return ClassRecord(
        mean=w_new * new.mean + w_old * old.mean,
        covariance=w_new * new.covariance + w_old * old.covariance,
        count=total,
    )


def update_encoding(state: ContinualState, new_encoding: EncodingTransform) -> EncodingTransform:
    """Advance the state by one task and return the working encoding.

    Averaging combines the affine parameters and the encoding vector
    elementwise with weights (1/t, (t-1)/t); the averaged transform must
    stay invertible (checked at construction).
    """
    state.tasks_seen += 1
    t = state.tasks_seen
    if state.first_encoding is None:
        state.first_encoding = new_encoding
    if state.strategy is EncodingStrategy.MOVING:
        return new_encoding
    if state.strategy is EncodingStrategy.FIRST:
        return state.first_encoding
    if t == 1 or state.average_encoding is None:
        state.average_encoding = new_encoding
    else:
        prev = state.average_encoding
        w_new, w_old = 1.0 / t, (t - 1.0) / t
        state.average_encoding = EncodingTransform(
            linear=w_new * new_encoding.linear + w_old * prev.linear,
            offset=w_new * new_encoding.offset + w_old * prev.offset,
            encoding_vector=w_new * new_encoding.encoding_vector
            + w_old * prev.encoding_vector,
        )
    return state.average_encoding


@dataclass(frozen=True)
class StreamConfig:
    """Shape of a continual task stream over a world's classes."""

    num_tasks: int
    classes_per_task: int
    shot: int
    query_per_class: int = 10
    drift: float = 1.0  # magnitude of per-task true-encoding drift

    def __post_init__(self):
        if min(self.num_tasks, self.classes_per_task, self.shot, self.query_per_class) < 1:
            raise InvalidConfig("stream settings must be positive")
        if self.drift < 0:
            raise InvalidConfig("drift must be nonnegative")


def make_task_encodings(dims: int, num_tasks: int, drift: float, rng: Rng) -> list[EncodingTransform]:
    """Per-task true encodings: identity-anchored affine maps with the given
    drift magnitude.  Zero drift makes every task's encoding the identity."""
    encodings = []
    for _ in range(num_tasks):
        for _attempt in range(64):
            linear = np.eye(dims) + drift * rng.normal((dims, dims)) / np.sqrt(dims)
            if abs(np.linalg.det(linear)) > 1e-9:
                break
        else:
            raise InvalidConfig("could not draw an invertible task encoding")
        offset = drift * rng.normal(dims)
        code = drift * rng.normal(dims)
        encodings.append(EncodingTransform(linear, offset, code))
    return encodings


def _stats_from_records(records: list[ClassRecord]) -> ClassStatistics:
    """Stack the records' moments, cached factors and inverse factors."""
    means, covs, counts, factors, inverses, jitter = zip(
        *(
            (r.mean, r.covariance, r.count, r.factor, r.inverse_factor, r.jitter)
            for r in records
        )
    )
    return ClassStatistics(
        means=np.stack(means),
        covariances=np.stack(covs),
        counts=np.array(counts),
        factors=np.stack(factors),
        inverse_factors=np.stack(inverses),
        jitter=np.array(jitter),
    )


def _cached_stack(stacks: dict, records: dict, ids: tuple) -> ClassStatistics:
    """The stack of ``ids``' current records, built on its first request."""
    stats = stacks.get(ids)
    if stats is None:
        stats = stacks[ids] = _stats_from_records([records[c] for c in ids])
    return stats


def run_continual_session(
    world: ClusterWorld,
    stream: StreamConfig,
    strategy: EncodingStrategy,
    head_mode: HeadMode,
    head: HeadConfig = HeadConfig(),
    seed: int = 0,
    class_groups: list | None = None,
) -> np.ndarray:
    """Lower-triangular accuracy matrix of one continual stream.

    Entry (i, j) for j <= i is accuracy on task j's query set after the
    head has seen tasks 0..i; entries above the diagonal are NaN.  Class
    groups default to disjoint consecutive blocks of the world's classes.
    Merging weights use the per-task support counts even when statistics
    come from transductive refinement, so class counts always total the
    support examples shown.

    Stacked class statistics are cached per tuple of class ids for the
    whole session.  After step t merges its classes, every cached stack
    that holds one of them is dropped, and the evaluations rebuild a stack
    only on its first request.  With the default disjoint groups, each
    multi-head group is stacked once per session, and one single-head stack
    per step serves every earlier task; overlapping groups stay correct
    because invalidation is per class id.
    """
    t_count = stream.num_tasks
    if class_groups is None:
        needed = t_count * stream.classes_per_task
        if world.class_count < needed:
            raise NotEnoughClasses(f"world has {world.class_count} classes, need {needed}")
        class_groups = [
            list(range(t * stream.classes_per_task, (t + 1) * stream.classes_per_task))
            for t in range(t_count)
        ]

    rng = Rng(seed)
    true_encodings = make_task_encodings(world.dims, t_count, stream.drift, rng)

    # latent draws are fixed up front; frames are applied per evaluation step
    raw_support, raw_query = [], []
    for group in class_groups:
        sup = draw_class_examples(world, group, [stream.shot] * len(group), rng)
        qry = draw_class_examples(world, group, [stream.query_per_class] * len(group), rng)
        raw_support.append(np.vstack(sup))
        raw_query.append(np.vstack(qry))

    state = ContinualState(strategy=strategy)
    stacks: dict[tuple, ClassStatistics] = {}
    matrix = np.full((t_count, t_count), np.nan)
    for t in range(t_count):
        group = class_groups[t]
        working = update_encoding(state, true_encodings[t])
        local_y = np.repeat(np.arange(len(group), dtype=np.int64), stream.shot)
        support_feat = working.apply(raw_support[t])
        query_feat = working.apply(raw_query[t])
        stats = fit_statistics(head, support_feat, local_y, query_feat)
        for slot, cid in enumerate(group):
            new_rec = ClassRecord(
                mean=stats.means[slot],
                covariance=stats.covariances[slot],
                count=float(stream.shot),
                factor=stats.factors[slot],
                inverse_factor=stats.inverse_factors[slot],
                jitter=float(stats.jitter[slot]),
            )
            if cid in state.classes:
                state.classes[cid] = merge_class_statistics(state.classes[cid], new_rec)
            else:
                state.classes[cid] = new_rec
        merged = set(group)
        for ids in [ids for ids in stacks if not merged.isdisjoint(ids)]:
            del stacks[ids]

        seen_ids = tuple(sorted(state.classes))
        for j in range(t + 1):
            if head_mode is HeadMode.MULTI_HEAD:
                ids = tuple(sorted(class_groups[j]))
            else:
                ids = seen_ids
            stats_j = _cached_stack(stacks, state.classes, ids)
            truth = np.repeat(
                [ids.index(c) for c in class_groups[j]], stream.query_per_class
            )
            feats = working.apply(raw_query[j])
            pred = predict_labels(head, stats_j, feats)
            matrix[t, j] = float(np.mean(pred == truth))
    return matrix
