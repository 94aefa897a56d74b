"""Episodic few-shot classification with class-covariance metrics.

Closed-form Mahalanobis classification heads, transductive soft k-means
refinement, GMM ablation heads, synthetic Gaussian cluster worlds with
episodic task samplers, active and continual learning loops, a Riemannian
metric-field verification, and a deterministic benchmark harness.

Every head is fitted and queried along one path in ``mahabench.methods``:
one ``fit_statistics`` call fits all of a task's heads (estimating the
support-only statistics once per beta, and running
``refine.run_refinement`` from them for a transductive or GMM-EM head),
and ``predict`` scores queries under a fit.  A head's score is one of
``MetricKind``'s, GMM included, and ``heads.class_scores`` computes them all.

numpy's BLAS runs on one thread unless the caller says otherwise.  While
this package imports numpy, ``OPENBLAS_NUM_THREADS`` and
``OMP_NUM_THREADS`` default to 1 (a value the caller set is kept); the
OpenBLAS numpy bundles reads them as it loads, and the caller's
environment is put back afterwards, so nothing the host program starts
later inherits them.  That library is the only BLAS and LAPACK the package
loads: ``spd`` calls its ``dpotrf`` and ``dtrtri`` too.  ``parallel`` runs
one worker process per CPU, and a BLAS thread pool in each of them would
oversubscribe the cores; see ``parallel`` for the measured cost.  The
default takes effect only when numpy is not loaded yet.
"""

import os

# OpenBLAS reads its thread count as it loads, which importing numpy does
_unset = [v for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS") if v not in os.environ]
os.environ.update(dict.fromkeys(_unset, "1"))
try:
    import numpy  # noqa: F401
finally:
    for _var in _unset:
        os.environ.pop(_var, None)
del _unset, numpy

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
    mean_ci,
    recall_vs_shot,
    run_benchmark,
)
from .continual import (
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
from .gmm import gmm_log_scores
from .heads import (
    ClassStatistics,
    MetricKind,
    QuerySet,
    SupportLayout,
    class_scores,
    estimate_class_statistics,
)
from .methods import HeadConfig, TaskRecord, parse_method
from .refine import RefineConfig, RefineOutcome, weighted_class_statistics
from .riemann import (
    MetricField,
    PartitionOfUnity,
    energy_gap_check,
    path_energy,
)
from .rng import Rng, derive_seed
from .spd import (
    cholesky,
    ensure_pd,
    factor_stack,
    logdet,
)
from .worlds import (
    ClusterWorld,
    EpisodicTask,
    SamplerConfig,
    SamplerMode,
    make_cluster_world,
    read_tasks,
    sample_task,
    write_tasks,
)

__version__ = "0.1.0"
