"""Streaming tasks with statistics merging and encoding strategies.

Each task in a stream carries its own true affine encoding of the latent
feature space, a ``(linear, offset)`` pair of arrays ``(A, b)`` that maps
a feature row ``x`` to ``x @ A.T + b``.  The head tracks a working
encoding per strategy: the most recent task's (moving), the first task's
(first), or a running average (averaging).  Features are always realized
in the current working frame, while saved class statistics keep the frame
they were estimated in; a drifting working frame therefore invalidates old
statistics, which is the forgetting mechanism under the moving strategy.

``run_continual_session`` steps a block of streams, under every strategy,
in lockstep.  The block's streams are drawn together, once, from one
``Rng`` over their seeds, and each is run under every strategy; each
(stream, strategy) fit keeps its merged class memory
as rows of one batched ``heads.ClassStatistics``, a row per world class:
a class's row holds its statistics as first fitted, and
``merge_class_statistics`` combines old and new rows, weighted by their
support counts, when a later task shows the class again.  At step t every
fit of the block fits a task of the same shape, so one stacked fit
(``methods.fit_statistics``), one merge and one stacked scoring of all
queries seen so far serve them all; both head modes are argmaxes of that
one scoring.  Each strategy's working frames are one stack, a frame per
stream, updated by one ``update_encoding`` call per step, and the fits'
frames map their rows in stacked products.  Every fit
has the bits it would have on its own (the batch axis of ``heads``, and
a stream's draws are those of its seed alone), so a matrix does not
depend on which block, or how large a block, its stream ran in.
"""

from dataclasses import dataclass, fields, replace
from enum import Enum

import numpy as np

from . import heads
from .errors import DimensionMismatch, EmptyClass, InvalidConfig, NotEnoughClasses, check_sizes
from .heads import ClassStatistics
from .methods import HeadConfig, fit_statistics
from .rng import MASK64, Rng
from .worlds import ClusterWorld, draw_class_examples, singular


class EncodingStrategy(Enum):
    MOVING = "moving"
    FIRST = "first"
    AVERAGING = "averaging"


class HeadMode(Enum):
    MULTI_HEAD = "multi"
    SINGLE_HEAD = "single"


def merge_class_statistics(old: ClassStatistics, new: ClassStatistics) -> ClassStatistics:
    """Row-by-row count-weighted convex combination of two equal-size stacks.

    Row k of the result merges row k of ``old`` and of ``new``: its mean
    and covariance are the count-weighted averages and its count the sum.
    The merged covariances are factored together in one ``from_moments``
    call.  Stacks with a leading batch axis merge fit by fit, and slice b
    has the bits of merging slice b alone.

    Raises
    ------
    DimensionMismatch
        If the stacks differ in batch, class count or dimension.
    EmptyClass
        If a row's count is not positive on either side.
    """
    if old.means.shape != new.means.shape:
        raise DimensionMismatch("merged stacks disagree on class count or dimension")
    empty = (old.counts <= 0) | (new.counts <= 0)
    if np.any(empty):
        raise EmptyClass(int(np.argmax(empty)) % empty.shape[-1],
                         "merge needs positive counts on both sides")
    total = old.counts + new.counts
    w_new, w_old = (new.counts / total)[..., None], (old.counts / total)[..., None]
    return ClassStatistics.from_moments(
        w_new * new.means + w_old * old.means,
        w_new[..., None] * new.covariances + w_old[..., None] * old.covariances,
        total,
    )


def update_encoding(strategy: EncodingStrategy, step: int, new: tuple, working: tuple | None
                    ) -> tuple:
    """One strategy's working frames after task ``step`` (0-based), as a
    ``(linear, offset)`` pair of arrays shaped like ``new``.

    ``new`` holds task ``step``'s true encodings and ``working`` the frames
    this call returned at ``step - 1`` (unread at step 0), each with any
    leading axes, such as one per stream of a block.  Averaging combines the
    affine parameters elementwise with weights (1/t, (t-1)/t) at the t-th
    task, so every frame has the bits of its own call.

    Raises
    ------
    InvalidConfig
        If an averaged linear map is numerically singular
        (``worlds.singular``).
    """
    if step == 0 or strategy is EncodingStrategy.MOVING:
        return new
    if strategy is EncodingStrategy.FIRST:
        return working
    t = step + 1
    w_new, w_old = 1.0 / t, (t - 1.0) / t
    linear = w_new * new[0] + w_old * working[0]
    if singular(linear).any():
        raise InvalidConfig("encoding transform is numerically singular")
    return linear, w_new * new[1] + w_old * working[1]


@dataclass(frozen=True)
class StreamConfig:
    """Shape of a continual task stream over a world's classes."""

    num_tasks: int
    classes_per_task: int
    shot: int
    query_per_class: int = 10
    drift: float = 1.0  # magnitude of per-task true-encoding drift

    def __post_init__(self):
        check_sizes(num_tasks=self.num_tasks, classes_per_task=self.classes_per_task,
                    shot=self.shot, query_per_class=self.query_per_class)
        if self.drift < 0:
            raise InvalidConfig("drift must be nonnegative")


def make_task_encodings(dims: int, num_tasks: int, drift: float, rng: Rng) -> tuple:
    """Per-task true encodings: identity-anchored affine maps with the given
    drift magnitude, as a ``(linear, offset)`` pair of arrays shaped
    ``(*S, num_tasks, dims, dims)`` and ``(*S, num_tasks, dims)``, S the
    shape of ``rng``'s seeds.  Zero drift makes every task's encoding the
    identity.

    A task's linear map is redrawn, up to 64 draws in all, while it is
    singular (``worlds.singular``).  From an ``Rng`` over a 1-D stack of
    seeds, every stream's maps are drawn at once, and row s is what
    ``Rng(seeds[s])`` alone gives, because a redraw draws for the streams
    whose map failed, and advances their counters, alone.

    Raises
    ------
    InvalidConfig
        If a task's map is still singular after 64 draws.
    """
    eye, root = np.eye(dims), np.sqrt(dims)

    def draw(rows=None):
        return eye + drift * rng.normal((dims, dims), rows) / root

    linears, offsets = [], []
    for _ in range(num_tasks):
        linear = draw()
        for attempt in range(64):
            failed = singular(linear)
            if not failed.any():
                break
            if attempt == 63:
                raise InvalidConfig("could not draw an invertible task encoding")
            if linear.ndim > 2:  # a stack of streams
                linear[failed] = draw(failed)  # for the failed streams alone
            else:
                linear = draw()
        linears.append(linear)
        offsets.append(drift * rng.normal(dims))
        rng.normal(dims)  # a draw kept so that every stream's later draws stay put
    return np.stack(linears, axis=-3), np.stack(offsets, axis=-2)


def _classes(memory: ClassStatistics, ids) -> ClassStatistics:
    """Classes ``ids`` of every fit of a stack, as fresh C-ordered arrays:
    the layout ``take`` gives one fit's classes."""
    return ClassStatistics(*(np.take(getattr(memory, f.name), ids, axis=1)
                             for f in fields(ClassStatistics)))


def _store(memory: ClassStatistics, ids, stats: ClassStatistics) -> None:
    """Write ``stats``' classes into classes ``ids`` of every fit of
    ``memory``, in place."""
    for f in fields(ClassStatistics):
        getattr(memory, f.name)[:, ids] = getattr(stats, f.name)


def run_continual_session(
    world: ClusterWorld,
    stream: StreamConfig,
    seeds,
    strategies,
    head: HeadConfig = HeadConfig(),
    class_groups: list | None = None,
) -> list:
    """Lower-triangular accuracy matrices of a block of continual streams:
    one dict per seed in ``seeds``, in order, keyed by ``(strategy,
    head_mode)`` for every strategy in ``strategies`` and both
    ``HeadMode``s.

    Entry (i, j) for j <= i is accuracy on task j's query set after the
    head has seen tasks 0..i; entries above the diagonal are NaN.  Class
    groups default to disjoint consecutive blocks of the world's classes;
    given groups, one per task, must each name distinct world class ids,
    and every stream of the block uses them.  Merging weights use the
    per-task support counts even when statistics come from transductive
    refinement, so class counts always total the support examples shown.

    The block draws its task encodings, then its support and query rows,
    once for every strategy, from one ``Rng`` over ``seeds``: one draw per
    task or class gives every stream its rows, and stream s gets the bits
    ``Rng(seeds[s])`` alone gives it, a redrawn singular encoding
    included (``make_task_encodings``).  Fit f is stream ``f //
    len(strategies)`` under strategy ``f % len(strategies)``.  Each
    strategy's working frames are one ``(S, d, d)`` and ``(S, d)`` pair,
    advanced by one ``update_encoding`` call per step.  The block's merged
    class memory is one
    ``ClassStatistics`` of shape ``(F, k, ...)``: a row per fit and world
    class, whose count stays 0 until the class is first seen.  At step t
    every fit has the same shape (the same class group, shot and query
    count; only its working frame differs), so the step makes one stacked
    fit of the ``(F, n, d)`` support rows with the ``(F, m_t, d)`` task
    queries, one merge of every fit's revisited classes, and one stacked
    scoring of the queries of tasks 0..t against a copy of every seen
    class.  The seen classes are the same for every fit, because the fits
    share the class groups.  The fits' working frames map the queries in
    one stacked product and the support rows in another, each making one
    BLAS call per fit with the shape of ``x @ A.T + b`` on that fit's rows
    alone.  Single-head labels are the argmax over all columns, multi-head
    labels for task j the argmax
    over group j's columns; both break ties toward the lowest class id.  A
    GMM head's log(1/K) prior counts every seen class in both modes.

    Each slice of the stacked fit, merge and scoring has the bits of the
    same call on that fit alone (the batch axis of ``heads``), so a
    stream's matrices do not depend on which block, or how large a block,
    it ran in, or where in the block it sat.

    Raises
    ------
    InvalidConfig
        If there is no seed or no strategy, ``class_groups`` does not hold
        one group per task, a group names a class twice or an id outside
        [0, world.class_count), or an averaged frame is singular
        (``update_encoding``).
    NotEnoughClasses
        If the default groups need more classes than the world has.
    """
    seeds, strategies = list(seeds), list(strategies)
    if not seeds or not strategies:
        raise InvalidConfig("a block needs at least one stream and one strategy")
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

    # latent draws are fixed up front, for every stream at once from one
    # Rng over the block's seeds: (S, n, d) support rows per task and
    # (S, M, d) query rows of all tasks
    rng = Rng(np.array([seed & MASK64 for seed in seeds], dtype=np.uint64))
    true_linear, true_offset = make_task_encodings(world.dims, t_count, stream.drift, rng)
    draws = [np.concatenate(draw_class_examples(world, group, [count] * len(group), rng), axis=-2)
             for group in class_groups for count in (stream.shot, stream.query_per_class)]
    raw_support, queries = draws[0::2], np.concatenate(draws[1::2], axis=-2)
    # task j's queries are rows starts[j]:ends[j]; in_group[i, c]: c is in row i's group
    k, d = world.class_count, world.dims
    truth = np.repeat(np.concatenate(class_groups), stream.query_per_class)
    sizes = np.array([len(group) * stream.query_per_class for group in class_groups])
    ends = np.cumsum(sizes)
    starts = ends - sizes
    in_group = np.repeat([np.isin(np.arange(k), group) for group in class_groups], sizes, axis=0)

    # fit f is stream owner[f] under strategy f % len(strategies)
    owner = np.repeat(np.arange(len(seeds)), len(strategies))
    fits = owner.size
    queries = queries[owner]  # (F, M, d): fit f's copy of its stream's queries
    frames = [None] * len(strategies)  # each strategy's (S, d, d) and (S, d) working frames
    # a row per fit and world class; a count of 0 marks a class not seen yet
    memory = ClassStatistics(np.zeros((fits, k, d)), np.zeros((fits, k, d, d)),
                             np.zeros((fits, k)), np.zeros((fits, k, d, d)),
                             np.zeros((fits, k, d, d)), np.zeros((fits, k)))
    single, multi = np.full((2, fits, t_count, t_count), np.nan)
    for t, group in enumerate(class_groups):
        rows = np.array(group)
        frames = [update_encoding(strategy, t, (true_linear[:, t], true_offset[:, t]), frame)
                  for strategy, frame in zip(strategies, frames)]
        # every fit's working frame x -> x A^T + b, applied as one stacked
        # product: a BLAS call per fit with the shape of its own rows alone
        linear_t = np.stack([a for a, _ in frames], axis=1).reshape(fits, d, d).swapaxes(-1, -2)
        offset = np.stack([b for _, b in frames], axis=1).reshape(fits, 1, d)
        feats = queries[:, :ends[t]] @ linear_t + offset
        support = raw_support[t][owner] @ linear_t + offset
        local_y = np.repeat(np.arange(len(rows), dtype=np.int64), stream.shot)
        [fit] = fit_statistics([head], support, np.broadcast_to(local_y, support.shape[:2]),
                               feats[:, starts[t]:])
        new = replace(fit.statistics, counts=np.full((fits, len(rows)), float(stream.shot)))
        # the group's positions seen before, and not: the same for every fit
        seen = memory.counts[0, rows] > 0
        again, first = np.flatnonzero(seen), np.flatnonzero(~seen)
        if again.size:
            merged = merge_class_statistics(_classes(memory, rows[again]), _classes(new, again))
            _store(memory, rows[again], merged)
        _store(memory, rows[first], _classes(new, first))

        seen_ids = np.flatnonzero(memory.counts[0] > 0)
        values = heads.class_scores(feats, _classes(memory, seen_ids), head.metric)
        # multi-head: -inf outside each row's group (exact unless all of it is -inf)
        own = np.where(in_group[:ends[t], seen_ids], values, -np.inf)
        for matrix, labels in ((single, np.argmax(values, axis=-1)),
                               (multi, np.argmax(own, axis=-1))):
            hits = np.add.reduceat(seen_ids[labels] == truth[:ends[t]], starts[:t + 1],
                                   axis=-1, dtype=np.intp)
            matrix[:, t, :t + 1] = hits / sizes[:t + 1]
    by_mode = {HeadMode.SINGLE_HEAD: single, HeadMode.MULTI_HEAD: multi}
    return [
        {(strategy, mode): matrix[s * len(strategies) + a]
         for a, strategy in enumerate(strategies) for mode, matrix in by_mode.items()}
        for s in range(len(seeds))
    ]
