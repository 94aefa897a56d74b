"""Synthetic cluster worlds and episodic task sampling.

A world is a set of Gaussian classes standing in for an adapted feature
space: means on a shell, covariances with a controlled condition number.
Tasks are sampled from a world either with variable way/shot (way uniform
on ``WAY_RANGE``, per-class shots uniform on ``SHOT_RANGE`` then rescaled to
``SUPPORT_CAP`` support rows) or with fixed way/shot, and every draw is a
pure function of a 64-bit seed.  A task's features are the world's latent
draws themselves; a continual stream maps them through its own
per-task encodings (``continual.make_task_encodings``).

Task files are JSON Lines: a header record, then one record per task.
Floats are serialized with Python's shortest round-trip repr, so reading a
file back reproduces the exact bit patterns that were written.
"""

import json
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from .errors import FormatError, InvalidConfig, NotEnoughClasses, check_sizes
from .rng import Rng

TASK_FILE_VERSION = "v1"

# variable-way tasks: way and per-class shots are uniform on [lo, hi], both
# ends included, and shots shrink to fit the support cap
WAY_RANGE = (5, 50)
SHOT_RANGE = (1, 100)
SUPPORT_CAP = 500

# an encoding's linear map counts as singular at or below this |det|
SINGULAR_DET = 1e-9


def singular(linear: np.ndarray) -> np.ndarray:
    """Whether each ``(..., d, d)`` linear map's determinant is at most
    ``SINGULAR_DET`` in magnitude; a determinant past float64's range is
    infinite, and far from singular."""
    with np.errstate(over="ignore"):
        return np.abs(np.linalg.det(linear)) <= SINGULAR_DET


@dataclass(frozen=True)
class ClusterWorld:
    """Generative description of one synthetic domain, built by
    ``make_cluster_world`` or by hand from its means and covariances."""

    domain_id: str
    dims: int
    class_count: int
    true_means: np.ndarray  # (C, d)
    true_covariances: np.ndarray  # (C, d, d)
    anisotropy: float
    seed: int

    @cached_property
    def sampling_factors(self) -> np.ndarray:
        """``(C, d, d)`` lower Cholesky factors of the true covariances,
        factored in one stacked call the first time a draw needs them."""
        return np.linalg.cholesky(self.true_covariances)


@dataclass(frozen=True, eq=False)
class EpisodicTask:
    """One sampled (support, query) classification problem.

    Query labels ship with the task; heads never see them, scorers do.
    """

    domain_id: str
    seed: int
    way: int
    dims: int
    support_x: np.ndarray  # (n, d)
    support_y: np.ndarray  # (n,)
    query_x: np.ndarray  # (m, d)
    query_y: np.ndarray  # (m,)

    @property
    def shots(self) -> np.ndarray:
        return np.bincount(self.support_y, minlength=self.way)


class SamplerMode(Enum):
    META_DATASET_LIKE = "metadataset"
    FIXED_WAY_SHOT = "fixed"


@dataclass(frozen=True)
class SamplerConfig:
    """Way/shot distribution settings for task sampling."""

    mode: SamplerMode = SamplerMode.META_DATASET_LIKE
    query_per_class: int = 10
    fixed_way: int | None = None
    fixed_shot: int | None = None

    def __post_init__(self):
        check_sizes(query_per_class=self.query_per_class)
        if self.mode is SamplerMode.FIXED_WAY_SHOT:
            check_sizes(fixed_way=self.fixed_way or 0, fixed_shot=self.fixed_shot or 0)

    @property
    def min_way(self) -> int:
        """The fewest classes a task draws, so the fewest a world must have."""
        return self.fixed_way if self.mode is SamplerMode.FIXED_WAY_SHOT else WAY_RANGE[0]


def check_world_shape(dims: int, class_count: int, anisotropy: float, scale_range) -> None:
    """Raise ``InvalidConfig`` unless ``make_cluster_world`` takes this shape."""
    if dims < 2 or class_count < 2:
        raise InvalidConfig("need dims >= 2 and class_count >= 2")
    if anisotropy < 1.0:
        raise InvalidConfig("anisotropy must be >= 1")
    if scale_range[0] > scale_range[1] or scale_range[0] <= 0:
        raise InvalidConfig("scale_range must be ordered and positive")


def make_cluster_world(
    dims: int,
    class_count: int,
    anisotropy: float,
    rng_seed: int,
    mean_radius: float = 3.0,
    scale_range: tuple[float, float] = (1.0, 1.0),
    center_norm: float = 0.0,
    domain_id: str = "world",
) -> ClusterWorld:
    """Build a world with shell means and rotated log-uniform covariances.

    Class means sit on a shell of radius ``mean_radius`` around the point
    ``center_norm * (1, ..., 1)/sqrt(d)``; a nonzero center models the
    uncentered feature spaces that deep extractors produce.  Each
    covariance is R diag(e) R^T with a seeded random rotation and
    eigenvalues spanning exactly the anisotropy ratio: the extreme
    eigenvalues are pinned to ``s`` and ``s / anisotropy`` (``s`` drawn
    log-uniformly from ``scale_range``) and interior ones are log-uniform
    in between, so every condition number equals the anisotropy bound.
    """
    check_world_shape(dims, class_count, anisotropy, scale_range)
    rng = Rng(rng_seed)
    directions = rng.normal((class_count, dims))
    norms = np.linalg.norm(directions, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    center = center_norm * np.ones(dims) / np.sqrt(dims)
    means = center + mean_radius * directions / norms

    covs = np.empty((class_count, dims, dims))
    log_scale_lo, log_scale_hi = np.log(scale_range[0]), np.log(scale_range[1])
    for c in range(class_count):
        gauss = rng.normal((dims, dims))
        q, r = np.linalg.qr(gauss)
        q = q * np.where(np.diag(r) >= 0, 1.0, -1.0)  # fix the sign convention
        s = np.exp(log_scale_lo + (log_scale_hi - log_scale_lo) * float(rng.uniform(1)[0]))
        eigs = np.empty(dims)
        eigs[0] = s
        eigs[1] = s / anisotropy
        if dims > 2:
            u = rng.uniform(dims - 2)
            eigs[2:] = s * np.exp(-u * np.log(anisotropy))
        covs[c] = (q * eigs) @ q.T
    return ClusterWorld(
        domain_id=domain_id,
        dims=dims,
        class_count=class_count,
        true_means=means,
        true_covariances=covs,
        anisotropy=float(anisotropy),
        seed=rng_seed,
    )


def _rescale_shots(shots: np.ndarray, cap: int) -> np.ndarray:
    """Proportionally shrink shots so the total fits the cap, keeping >= 1."""
    total = int(shots.sum())
    if total <= cap:
        return shots
    scaled = np.maximum(1, (shots * cap) // total)
    # integer floors plus the >=1 clamp can leave a small overshoot;
    # trim it from the largest classes deterministically
    while scaled.sum() > cap:
        candidates = np.where(scaled > 1)[0]
        scaled[candidates[np.argmax(scaled[candidates])]] -= 1
    return scaled


def draw_class_examples(
    world: ClusterWorld, class_ids, counts, rng: Rng
) -> list[np.ndarray]:
    """Per-class Gaussian draws in latent space, one ``(count, d)`` block
    per class id.

    From an ``Rng`` over a stack of S seeds each block is ``(S, count, d)``,
    and row s has the bits of the block ``Rng(seeds[s])`` alone draws: every
    stacked product makes one BLAS call per row, with that row's shape.
    """
    blocks = []
    factors = world.sampling_factors
    for cid, count in zip(class_ids, counts):
        raw = rng.normal((int(count), world.dims))
        blocks.append(world.true_means[cid] + raw @ factors[cid].T)
    return blocks


def sample_task(world: ClusterWorld, cfg: SamplerConfig, rng_seed: int) -> EpisodicTask:
    """Sample one episodic task from a world, deterministically in the seed.

    Draw order is fixed: way (variable mode only), class permutation,
    per-class shots, then per task-class support rows followed by query
    rows.  Features are the latent Gaussian draws.
    """
    if world.class_count < cfg.min_way:
        raise NotEnoughClasses(f"world has {world.class_count} classes, need {cfg.min_way}")
    rng = Rng(rng_seed)
    if cfg.mode is SamplerMode.META_DATASET_LIKE:
        way = int(rng.integers(WAY_RANGE[0], WAY_RANGE[1], 1)[0])
        way = min(way, world.class_count)
        chosen = rng.permutation(world.class_count)[:way]
        shots = rng.integers(SHOT_RANGE[0], SHOT_RANGE[1], way)
        shots = _rescale_shots(shots, SUPPORT_CAP)
    else:
        way = int(cfg.fixed_way)
        chosen = rng.permutation(world.class_count)[:way]
        shots = np.full(way, int(cfg.fixed_shot), dtype=np.int64)

    blocks = draw_class_examples(world, chosen, shots + cfg.query_per_class, rng)
    support_x = np.vstack([block[:shot] for block, shot in zip(blocks, shots)])
    query_x = np.vstack([block[shot:] for block, shot in zip(blocks, shots)])
    support_y = np.repeat(np.arange(way, dtype=np.int64), shots)
    query_y = np.repeat(np.arange(way, dtype=np.int64), cfg.query_per_class)
    return EpisodicTask(
        domain_id=world.domain_id,
        seed=rng_seed & ((1 << 64) - 1),
        way=way,
        dims=world.dims,
        support_x=support_x,
        support_y=support_y,
        query_x=query_x,
        query_y=query_y,
    )


def _task_record(task: EpisodicTask) -> dict:
    return {
        "domain_id": task.domain_id,
        "seed": task.seed,
        "way": task.way,
        "dims": task.dims,
        "support": [
            {"label": int(y), "features": [float(v) for v in x]}
            for x, y in zip(task.support_x, task.support_y)
        ],
        "query": [
            {"label": int(y), "features": [float(v) for v in x]}
            for x, y in zip(task.query_x, task.query_y)
        ],
    }


def write_tasks(path, tasks) -> None:
    """Write tasks as JSON Lines with a version header record."""
    tasks = list(tasks)
    with open(path, "w", encoding="utf-8") as fh:
        header = {"format": "tasks", "version": TASK_FILE_VERSION, "count": len(tasks)}
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for task in tasks:
            fh.write(json.dumps(_task_record(task), sort_keys=True) + "\n")


def _integer(rec: dict, key: str, lo: int, hi: int | None, line_no: int) -> int:
    """``rec[key]``, which must be a JSON integer in ``[lo, hi)``: ``int()``
    would read 2.5 as 2 and true as 1."""
    value = rec[key]
    if (isinstance(value, bool) or not isinstance(value, int) or value < lo
            or (hi is not None and value >= hi)):
        bounds = f"in [{lo}, {hi})" if hi is not None else f">= {lo}"
        raise FormatError(line_no, f"{key} {json.dumps(value)} is not an integer {bounds}")
    return value


def _parse_examples(rows, dims, line_no):
    # widths first: ``dims`` comes from the file, and the array is sized by it
    for row in rows:
        if len(row["features"]) != dims:
            raise FormatError(line_no, f"expected {dims} features, got {len(row['features'])}")
    feats = np.empty((len(rows), dims))
    labels = np.empty(len(rows), dtype=np.int64)
    for i, row in enumerate(rows):
        feats[i] = row["features"]
        label = row["label"]
        # int64 assignment would truncate 0.7 to 0 and read true as 1
        if isinstance(label, bool) or not isinstance(label, int):
            raise FormatError(line_no, f"label {json.dumps(label)} is not an integer")
        labels[i] = label
    # json reads NaN and Infinity; the estimator would reject them much later
    if not np.all(np.isfinite(feats)):
        raise FormatError(line_no, "non-finite feature value")
    return feats, labels


def _check_labels(way: int, support_y: np.ndarray, query_y: np.ndarray, line_no: int) -> None:
    """Reject a task no head can score: an empty support or query set, a
    label outside ``[0, way)``, or a class without a support row."""
    if support_y.size == 0:
        raise FormatError(line_no, "support set is empty")
    if query_y.size == 0:
        raise FormatError(line_no, "query set is empty")
    for what, labels in (("support", support_y), ("query", query_y)):
        bad = labels[(labels < 0) | (labels >= way)]
        if bad.size:
            raise FormatError(line_no, f"{what} label {int(bad[0])} outside [0, {way})")
    # no minlength: ``way`` comes from the file and may be huge
    shown = np.bincount(support_y)
    missing = np.flatnonzero(shown == 0)
    if missing.size or shown.size < way:
        k = int(missing[0]) if missing.size else shown.size
        raise FormatError(line_no, f"class {k} has no support row")


def read_tasks(path) -> list:
    """Read tasks written by :func:`write_tasks`; lossless round trip.

    Raises
    ------
    FormatError
        With the 1-based line of the first bad record: malformed JSON or
        fields, a ``dims`` or ``way`` that is not an integer >= 1, a
        ``seed`` that is not an integer in ``[0, 2**64)``, a ``domain_id``
        that is not a string, a non-finite feature, an empty support or
        query set, a label outside ``[0, way)``, or a class with no support
        row.
    """
    tasks = []
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise FormatError(1, "missing header record")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise FormatError(1, f"bad header: {exc.msg}") from exc
    if not isinstance(header, dict) or header.get("version") != TASK_FILE_VERSION:
        raise FormatError(1, "unsupported or missing task file version")
    for line_no, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
            dims = _integer(rec, "dims", 1, None, line_no)
            support_x, support_y = _parse_examples(rec["support"], dims, line_no)
            query_x, query_y = _parse_examples(rec["query"], dims, line_no)
            way = _integer(rec, "way", 1, None, line_no)
            _check_labels(way, support_y, query_y, line_no)
            # bench sorts domain ids, and a None beside a string cannot sort
            if not isinstance(rec["domain_id"], str):
                raise FormatError(line_no, f"domain_id {json.dumps(rec['domain_id'])} "
                                           "is not a string")
            tasks.append(
                EpisodicTask(
                    domain_id=rec["domain_id"],
                    seed=_integer(rec, "seed", 0, 1 << 64, line_no),
                    way=way,
                    dims=dims,
                    support_x=support_x,
                    support_y=support_y,
                    query_x=query_x,
                    query_y=query_y,
                )
            )
        except FormatError:
            raise
        except (json.JSONDecodeError, KeyError, TypeError, ValueError, OverflowError) as exc:
            raise FormatError(line_no, f"bad task record: {exc}") from exc
    if header.get("count") is not None and header["count"] != len(tasks):
        raise FormatError(1, f"header count {header['count']} != {len(tasks)} records")
    return tasks

