"""Streaming tasks with statistics merging and encoding strategies.

Each task in a stream carries its own true affine encoding of the latent
feature space.  The head tracks a working encoding per strategy: the most
recent task's (moving), the first task's (first), or a running average
(averaging).  Features are always realized in the current working frame,
while saved class statistics keep the frame they were estimated in; a
drifting working frame therefore invalidates old statistics, which is the
forgetting mechanism under the moving strategy.

A session draws one stream and runs every strategy on it.  Each strategy
keeps its merged class memory as one ``heads.ClassStatistics`` with a row
per world class: a class's row holds its statistics as first fitted, and
``merge_class_statistics`` combines old and new rows, weighted by their
support counts, when a later task shows the class again.  Each step scores
all queries seen so far once; both head modes are argmaxes of that one
scoring.
"""

from dataclasses import dataclass, fields, replace
from enum import Enum

import numpy as np

from .errors import DimensionMismatch, EmptyClass, InvalidConfig, NotEnoughClasses
from .heads import ClassStatistics
from .methods import HeadConfig, fit_statistics, scores, support_fits
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
class ContinualState:
    """Mutable per-session encoding memory."""

    strategy: EncodingStrategy
    tasks_seen: int = 0
    first_encoding: EncodingTransform | None = None
    average_encoding: EncodingTransform | None = None


def merge_class_statistics(old: ClassStatistics, new: ClassStatistics) -> ClassStatistics:
    """Row-by-row count-weighted convex combination of two equal-size stacks.

    Row k of the result merges row k of ``old`` and of ``new``: its mean
    and covariance are the count-weighted averages and its count the sum.
    The merged covariances are factored together in one ``from_moments``
    call.

    Raises
    ------
    DimensionMismatch
        If the stacks differ in class count or dimension.
    EmptyClass
        If a row's count is not positive on either side.
    """
    if old.means.shape != new.means.shape:
        raise DimensionMismatch("merged stacks disagree on class count or dimension")
    empty = (old.counts <= 0) | (new.counts <= 0)
    if np.any(empty):
        raise EmptyClass(int(np.argmax(empty)), "merge needs positive counts on both sides")
    total = old.counts + new.counts
    w_new, w_old = new.counts / total, old.counts / total
    return ClassStatistics.from_moments(
        w_new[:, None] * new.means + w_old[:, None] * old.means,
        w_new[:, None, None] * new.covariances + w_old[:, None, None] * old.covariances,
        total,
    )


def update_encoding(state: ContinualState, new_encoding: EncodingTransform) -> EncodingTransform:
    """Advance the state by one task and return the working encoding.

    Averaging combines the affine parameters elementwise with weights
    (1/t, (t-1)/t); the averaged transform must stay invertible (checked at
    construction).
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
        rng.normal(dims)  # a draw kept so that every stream's later draws stay put
        encodings.append(EncodingTransform(linear, offset))
    return encodings


def _store(memory: ClassStatistics, rows, stats: ClassStatistics) -> None:
    """Write ``stats``' rows into ``memory``'s ``rows``, in place."""
    for f in fields(ClassStatistics):
        getattr(memory, f.name)[rows] = getattr(stats, f.name)


def run_continual_session(
    world: ClusterWorld,
    stream: StreamConfig,
    strategies,
    head: HeadConfig = HeadConfig(),
    seed: int = 0,
    class_groups: list | None = None,
) -> dict:
    """Lower-triangular accuracy matrices of one continual stream, keyed by
    ``(strategy, head_mode)`` for every strategy in ``strategies`` and both
    ``HeadMode``s.

    Entry (i, j) for j <= i is accuracy on task j's query set after the
    head has seen tasks 0..i; entries above the diagonal are NaN.  Class
    groups default to disjoint consecutive blocks of the world's classes;
    given groups, one per task, must each name distinct world class ids.
    Merging weights use the per-task support counts even when statistics
    come from transductive refinement, so class counts always total the
    support examples shown.

    The stream (task encodings, support and query rows) is drawn once for
    every strategy.  Each strategy keeps a merged class memory: one
    ``ClassStatistics`` with a row per world class, whose count stays 0
    until the class is first seen.  Step t fits its group once, merges it
    into the memory in place, and scores the stacked queries of tasks 0..t
    once against a copy of every seen class.  Single-head labels are the
    argmax over all columns, multi-head labels for task j the argmax over
    group j's columns; both break ties toward the lowest class id.  A GMM
    head's log(1/K) prior counts every seen class in both modes.

    Raises
    ------
    InvalidConfig
        If ``class_groups`` does not hold one group per task, or a group
        names a class twice or an id outside [0, world.class_count).
    NotEnoughClasses
        If the default groups need more classes than the world has.
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
    if len(class_groups) != t_count:
        raise InvalidConfig(f"{len(class_groups)} class groups for {t_count} tasks")
    for group in class_groups:
        if not group or len(set(group)) != len(group):
            raise InvalidConfig(f"class group {group} must name distinct classes")
        if min(group) < 0 or max(group) >= world.class_count:
            raise InvalidConfig(f"class group {group} leaves [0, {world.class_count})")

    rng = Rng(seed)
    true_encodings = make_task_encodings(world.dims, t_count, stream.drift, rng)

    # latent draws are fixed up front; frames are applied per step
    raw_support, raw_query = [], []
    for group in class_groups:
        for raw, count in ((raw_support, stream.shot), (raw_query, stream.query_per_class)):
            raw.append(np.vstack(draw_class_examples(world, group, [count] * len(group), rng)))
    # task j's queries are rows starts[j]:ends[j]; in_group[i, c]: c is in row i's group
    k, d = world.class_count, world.dims
    queries = np.vstack(raw_query)
    truth = np.repeat(np.concatenate(class_groups), stream.query_per_class)
    sizes = np.array([len(q) for q in raw_query])
    ends = np.cumsum(sizes)
    starts = ends - sizes
    in_group = np.repeat([np.isin(np.arange(k), group) for group in class_groups], sizes, axis=0)

    matrices = {}
    for strategy in strategies:
        state = ContinualState(strategy=strategy)
        # a row per world class; a count of 0 marks a class not seen yet
        memory = ClassStatistics(np.zeros((k, d)), np.zeros((k, d, d)), np.zeros(k),
                                 np.zeros((k, d, d)), np.zeros((k, d, d)), np.zeros(k))
        single = matrices[strategy, HeadMode.SINGLE_HEAD] = np.full((t_count, t_count), np.nan)
        multi = matrices[strategy, HeadMode.MULTI_HEAD] = np.full((t_count, t_count), np.nan)
        for t in range(t_count):
            rows = np.array(class_groups[t])
            working = update_encoding(state, true_encodings[t])
            feats = working.apply(queries[:ends[t]])
            local_y = np.repeat(np.arange(len(rows), dtype=np.int64), stream.shot)
            start = support_fits([head], working.apply(raw_support[t]), local_y,
                                 feats[starts[t]:])[0]
            new = replace(fit_statistics(head, start).statistics,
                          counts=np.full(len(rows), float(stream.shot)))
            seen = memory.counts[rows] > 0
            if seen.any():
                merged = merge_class_statistics(memory.take(rows[seen]), new.take(seen))
                _store(memory, rows[seen], merged)
            _store(memory, rows[~seen], new.take(~seen))

            seen_ids = np.flatnonzero(memory.counts > 0)
            values = scores(head, memory.take(seen_ids), feats)
            # multi-head: -inf outside each row's group (exact unless all of it is -inf)
            own = np.where(in_group[:ends[t], seen_ids], values, -np.inf)
            for matrix, labels in ((single, np.argmax(values, axis=1)),
                                   (multi, np.argmax(own, axis=1))):
                hits = np.add.reduceat(seen_ids[labels] == truth[:ends[t]], starts[:t + 1],
                                       dtype=np.intp)
                matrix[t, :t + 1] = hits / sizes[:t + 1]
    return matrices
