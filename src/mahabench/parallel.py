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

Workers are forked with ``os.fork``, one per CPU in the process's affinity
mask and never more than there are units, so they inherit ``fn`` and
everything it closes over; only index ranges and results are pickled.
(``spawn`` would re-import the package in every worker and need every
closure to pickle.)  Each worker has a task pipe and a result pipe of its
own, and every message is a pickle behind its 8-byte length.  A worker that
dies closes its result pipe, so the caller reads end-of-file where a result
was due and raises ``WorkerFailed``; it never leaves the caller waiting.
Every worker is reaped before ``ordered_map`` returns or raises: an idle
worker exits when its task pipe closes, and after a failure a worker still
running a block nobody will read is killed.

Indices go to the workers in contiguous blocks, about four per worker
(``count // (4 * workers)`` units each), dealt to whichever worker asks
next, and every block comes back as one list.  One index per round trip
would cost about as much inter-process traffic as a millisecond-sized unit
takes to compute (``riemann`` makes its units blocks of fields, a few
milliseconds of array work each, for the same reason); several blocks per
worker, rather than one, keep a worker that drew slow units (large
meta-dataset tasks) from holding up the others.  A block stops at its
first exception, and the caller waits for every earlier block before it
raises, so the first failing index wins.

There is no setting.  With one usable CPU (``taskset -c 0 mahabench ...``),
on a platform without ``fork`` or ``sched_getaffinity``, or inside a
worker, the units run in a plain in-process loop.  Run under
``taskset -c 0`` to trace per-layer spans, because a tracer in this process
does not see the workers' calls.

numpy's BLAS runs on one thread in the caller and in every worker: the
package's ``__init__`` loads numpy, and with it the one OpenBLAS the
package uses, with ``OPENBLAS_NUM_THREADS`` and ``OMP_NUM_THREADS``
defaulted to 1, unless the caller set them, and a forked worker inherits
the loaded BLAS's setting.  Each worker already has a CPU of its own.  A
GEMM above OpenBLAS's threading cut-off (about 2.6e5 for M*N*K, which the
one-GEMM scoring of a 20-class task passes) would otherwise start a BLAS
thread per CPU inside every worker, and the workers would oversubscribe
the cores.  On a 2-vCPU Xeon, ``bench --mode metadataset --dims 32
--classes 20 --tasks 60 --query 30`` took 3.6 to 8.4 s that way, against
1.4 s on one BLAS thread, for the same bytes.

Forked workers also inherit the malloc thresholds ``cli.cli_main`` sets,
so they keep their heap mapped between units as the caller does.  On a
2-vCPU Xeon, the workers of the seed-0 benchmark's meta-wide call took
5.6k minor faults with them and 68.6k without, and those of its
riemann-fields call 3.5k and 41.2k.

Nothing here imports ``concurrent.futures`` or ``multiprocessing``.  For
one fork-and-collect map they pulled in ``logging``, ``subprocess``,
``socket`` and more: about 2 MiB of every CLI call's resident memory and
10 ms of its import.  The modules used here (``pickle``, ``select``,
``signal``) are loaded at import, so a workload call imports none.
"""

import os
import pickle
import select
import signal
import sys

from .errors import WorkerFailed

_in_worker = False  # set in each worker after the fork, never in the caller;
# a call made while it is set runs in the worker's own process


def _worker_count(count: int) -> int:
    if not hasattr(os, "sched_getaffinity") or not hasattr(os, "fork"):
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), count))


def _write(fd: int, data: bytes) -> None:
    """``data`` on ``fd``, behind its length."""
    for view in (memoryview(len(data).to_bytes(8, "little")), memoryview(data)):
        while view:
            view = view[os.write(fd, view):]


def _read_exactly(fd: int, size: int):
    """``size`` bytes from ``fd``, or ``None`` if the writer closed it first."""
    buffer = bytearray(size)
    view, got = memoryview(buffer), 0
    while got < size:
        n = os.readv(fd, [view[got:]])
        if n == 0:
            return None
        got += n
    return buffer


def _receive(fd: int):
    """The next pickled message on ``fd``, or ``None`` if its writer is gone."""
    header = _read_exactly(fd, 8)
    body = None if header is None else _read_exactly(fd, int.from_bytes(header, "little"))
    return None if body is None else pickle.loads(body)


def _serve(fn, tasks: int, results: int) -> None:
    """In a worker: run each ``(start, stop)`` block that arrives on ``tasks``
    and send ``(True, values)`` or ``(False, exception)`` on ``results``,
    until the task pipe closes."""
    while (block := _receive(tasks)) is not None:
        try:
            outcome = True, [fn(i) for i in range(*block)]
        except Exception as exc:  # the caller raises it, with its own type
            outcome = False, exc
        try:
            data = pickle.dumps(outcome)
        except Exception as exc:
            data = pickle.dumps((False, WorkerFailed(
                f"units {block[0]} to {block[1] - 1}: outcome does not pickle: {exc!r}")))
        _write(results, data)


def _fork_worker(fn, inherited: list) -> tuple:
    """Fork a worker serving ``fn``: ``(pid, tasks, results)``, the pid and
    the caller's ends of its two pipes.  ``inherited`` are the caller's ends
    of the earlier workers' pipes, which the new worker closes: a worker
    holding another's task pipe open would keep it from seeing the end."""
    global _in_worker
    task_read, task_write = os.pipe()
    result_read, result_write = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        for fd in (task_read, task_write, result_read, result_write):
            os.close(fd)
        raise
    if pid == 0:
        code = 1
        try:
            _in_worker = True
            for fd in (task_write, result_read, *inherited):
                os.close(fd)
            _serve(fn, task_read, result_write)
            code = 0
        finally:
            os._exit(code)  # never back into the caller's stack
    os.close(task_read)
    os.close(result_write)
    return pid, task_write, result_read


def _ordered_map_forked(fn, count: int, worker_count: int) -> list:
    size = max(1, count // (4 * worker_count))
    blocks = [(start, min(start + size, count)) for start in range(0, count, size)]
    outputs = [None] * len(blocks)  # per block, its list of values
    workers = []
    finished = False
    # output a worker would flush is written once, by the caller
    for stream in (sys.stdout, sys.stderr):
        if stream is not None:
            stream.flush()
    try:
        for _ in range(worker_count):
            workers.append(_fork_worker(fn, [fd for _, *fds in workers for fd in fds]))
        idle, running, dealt = list(workers), {}, 0  # running: result fd -> (worker, block)
        poller = select.poll()
        failed = None  # (block, exception) of the first failing block so far
        while True:
            while idle and failed is None and dealt < len(blocks):
                pid, tasks, results = worker = idle.pop()
                try:
                    _write(tasks, pickle.dumps(blocks[dealt]))
                except BrokenPipeError:
                    raise WorkerFailed(f"worker {pid} died between blocks") from None
                running[results] = worker, dealt
                poller.register(results, select.POLLIN)
                dealt += 1
            if not running or (failed and all(b > failed[0] for _, b in running.values())):
                break
            for fd, _event in poller.poll():
                worker, block = running.pop(fd)
                poller.unregister(fd)
                outcome = _receive(fd)
                if outcome is None:
                    start, stop = blocks[block]
                    raise WorkerFailed(f"worker {worker[0]} died running units {start} to {stop - 1}")
                ok, value = outcome
                if ok:
                    outputs[block] = value
                elif failed is None or block < failed[0]:
                    failed = block, value
                idle.append(worker)
        if failed:
            raise failed[1]
        finished = True
        return [value for values in outputs for value in values]
    finally:
        for pid, tasks, results in workers:
            os.close(tasks)  # an idle worker reads the end and exits
            os.close(results)
            if not finished:
                os.kill(pid, signal.SIGKILL)
        for pid, _, _ in workers:
            os.waitpid(pid, 0)


def ordered_map(fn, count: int) -> list:
    """``[fn(i) for i in range(count)]``, computed on every usable CPU.

    An exception raised by a unit reaches the caller with its own type; the
    first failing index in order wins.  A worker that dies raises
    ``WorkerFailed`` instead of leaving the caller waiting.  No worker
    outlives the call.
    """
    workers = 1 if _in_worker else _worker_count(count)
    if workers == 1:
        return [fn(i) for i in range(count)]
    return _ordered_map_forked(fn, count, workers)
