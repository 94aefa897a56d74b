"""Run independent, seeded units of work on every CPU the process may use.

``ordered_map(fn, count)`` returns ``[fn(0), ..., fn(count - 1)]``.  Each
unit must depend only on its index and on state that exists before the
call (a world, a task list, a head), which is how the benchmark, active and
continual loops seed their tasks, sessions and streams.  An active or a
continual unit is a block of whole sessions or streams
(``cli.LOCKSTEP_BLOCK`` of them), stepped in lockstep under every strategy;
a session's curves and a stream's matrices do not depend on the block they
ran in.  The result is then the same list, in the same order, whether the
units run in this process or in workers.

Workers are forked, one per CPU in the process's affinity mask and never
more than there are units, so they inherit ``fn`` and everything it closes
over; only indices and results are pickled.  (``spawn`` would re-import
the package in every worker and need every closure to pickle.)  A worker
that dies raises ``WorkerFailed``; it never leaves the caller waiting,
which is why this uses ``concurrent.futures`` and not
``multiprocessing.Pool``.

Indices go to the workers in contiguous blocks, about four per worker
(``count // (4 * workers)`` units each), and every block comes back as one
list.  One index per round trip would cost about as much inter-process
traffic as a millisecond-sized unit takes to compute (``riemann`` makes
its units blocks of fields, a few milliseconds of array work each, for
the same reason); several blocks per worker, rather than one, keep a
worker that drew slow units (large meta-dataset tasks) from holding up the
others.
Blocks are returned in order and a block stops at its first exception, so
the first failing index still wins.

There is no setting.  With one usable CPU (``taskset -c 0 mahabench ...``),
on a platform without ``fork`` or ``sched_getaffinity``, or inside a
worker, the units run in a plain in-process loop.  Run under
``taskset -c 0`` to trace per-layer spans, because a tracer in this process
does not see the workers' calls.

numpy's BLAS runs on one thread in the caller and in every worker: the
package's ``__init__`` loads numpy and scipy's LAPACK with
``OPENBLAS_NUM_THREADS`` and ``OMP_NUM_THREADS`` defaulted to 1, unless the
caller set them, and a forked worker inherits the loaded BLAS's setting.
Each worker already has a CPU of its own.  A GEMM above OpenBLAS's
threading cut-off (about 2.6e5 for M*N*K, which the one-GEMM scoring of a
20-class task passes) would otherwise start a BLAS thread per CPU inside
every worker, and the pools would oversubscribe the cores.  On a 2-vCPU
Xeon, ``bench --mode metadataset --dims 32 --classes 20 --tasks 60
--query 30`` took 3.6 to 8.4 s that way, against 1.4 s on one BLAS thread,
for the same bytes.

Forked workers also inherit the malloc thresholds ``cli.cli_main`` sets,
so they keep their heap mapped between units as the caller does.  On a
2-vCPU Xeon, the workers of the seed-0 benchmark's meta-wide call took
5.6k minor faults with them and 68.6k without, and those of its
riemann-fields call 3.5k and 41.2k.

The pool imports stay at module level, not inside ``ordered_map``.  They
pull in ``logging``, ``subprocess``, ``socket`` and more, about 25 ms,
which belongs in the import every CLI call pays once and not in the timed
run of each multi-CPU call.
"""

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

from .errors import WorkerFailed

_unit = None  # set in each worker by its initializer, never in the caller;
# a call made while it is set runs in the worker's own process


def _worker_count(count: int) -> int:
    if not hasattr(os, "sched_getaffinity") or not hasattr(os, "fork"):
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), count))


def _become_worker(fn) -> None:
    global _unit
    _unit = fn


def _run_unit(index: int):
    return _unit(index)


def ordered_map(fn, count: int) -> list:
    """``[fn(i) for i in range(count)]``, computed on every usable CPU.

    An exception raised by a unit reaches the caller with its own type; the
    first failing index in order wins.  A worker that dies raises
    ``WorkerFailed`` instead of leaving the caller waiting.
    """
    workers = 1 if _unit is not None else _worker_count(count)
    if workers == 1:
        return [fn(i) for i in range(count)]
    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                               initializer=_become_worker, initargs=(fn,))
    try:
        chunk = max(1, count // (4 * workers))
        return list(pool.map(_run_unit, range(count), chunksize=chunk))
    except BrokenProcessPool as exc:
        raise WorkerFailed(str(exc)) from exc
    finally:
        pool.shutdown(cancel_futures=True)
