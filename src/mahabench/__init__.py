"""Episodic few-shot classification with class-covariance metrics.

Closed-form Mahalanobis classification heads, transductive soft k-means
refinement, GMM ablation heads, synthetic Gaussian cluster worlds with
episodic task samplers, active and continual learning loops, a Riemannian
metric-field verification, and a deterministic benchmark harness.

Every head is fitted and queried along one path in ``mahabench.methods``:
``support_fits`` checks a task's support set and estimates its
support-only statistics, ``fit_statistics`` turns that start into a head's
fit (running ``refine.run_refinement`` for a transductive or GMM-EM head),
and ``predict`` / ``predict_labels`` score queries under it.
"""

from .active import (
    AcquisitionStrategy,
    ActiveSession,
    acquisition_scores,
    run_active_session,
    select_next,
)
from .bench import (
    BenchConfig,
    BenchmarkReport,
    DomainSpec,
    RecallCurve,
    mean_ci,
    recall_vs_shot,
    run_benchmark,
)
from .continual import (
    ClassRecord,
    ContinualState,
    EncodingStrategy,
    HeadMode,
    StreamConfig,
    merge_class_statistics,
    run_continual_session,
    update_encoding,
)
from .errors import (
    DimensionMismatch,
    EmptyClass,
    FormatError,
    InvalidConfig,
    LabelOutOfRange,
    MahabenchError,
    NonFiniteInput,
    NotEnoughClasses,
    NotPositiveDefinite,
    NotRepairable,
    PoolExhausted,
    StrategyHasNoScore,
    WorkerFailed,
)
from .gmm import ClassPrior, gmm_log_scores
from .heads import (
    ClassStatistics,
    MetricKind,
    SupportLayout,
    bregman_divergence,
    class_scores,
    estimate_class_statistics,
)
from .methods import HeadConfig, parse_method
from .refine import RefineConfig, RefineOutcome, weighted_class_statistics
from .riemann import (
    MetricField,
    PartitionOfUnity,
    energy_gap_check,
    metric_at,
    path_energy,
)
from .rng import Rng, derive_seed
from .spd import (
    cholesky,
    ensure_pd,
    factor_stack,
    logdet,
    solve_spd,
)
from .worlds import (
    ClusterWorld,
    EncodingTransform,
    EpisodicTask,
    SamplerConfig,
    SamplerMode,
    make_cluster_world,
    read_tasks,
    sample_task,
    tasks_equal,
    write_tasks,
)

__version__ = "0.1.0"
