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
from .methods import HeadConfig, fit_statistics, predict
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
    creation, so evaluations reuse the factor instead of re-factoring.
    """

    mean: np.ndarray
    covariance: np.ndarray
    count: float
    factor: np.ndarray | None = None

    def __post_init__(self):
        if self.factor is None:
            self.covariance, self.factor = spd.ensure_pd(self.covariance)


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
    """Stack the records' moments and cached factors."""
    means, covs, counts, factors = zip(
        *((r.mean, r.covariance, r.count, r.factor) for r in records)
    )
    return ClassStatistics(
        means=np.stack(means),
        covariances=np.stack(covs),
        counts=np.array(counts),
        factors=np.stack(factors),
    )


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
            )
            if cid in state.classes:
                state.classes[cid] = merge_class_statistics(state.classes[cid], new_rec)
            else:
                state.classes[cid] = new_rec

        seen_ids = sorted(state.classes)
        for j in range(t + 1):
            if head_mode is HeadMode.MULTI_HEAD:
                ids = sorted(class_groups[j])
            else:
                ids = seen_ids
            stats_j = _stats_from_records([state.classes[c] for c in ids])
            truth = np.repeat(
                [ids.index(c) for c in class_groups[j]], stream.query_per_class
            )
            feats = working.apply(raw_query[j])
            _, pred = predict(head, stats_j, feats)
            matrix[t, j] = float(np.mean(pred == truth))
    return matrix
