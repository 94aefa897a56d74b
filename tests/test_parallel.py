import json
import os
import pickle
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from mahabench import errors, parallel
from mahabench.errors import EmptyClass, FormatError, MahabenchError, WorkerFailed
from mahabench.parallel import ordered_map

LIMIT_S = 60.0


def within_limit(fn):
    """``fn()`` on a helper thread; a call still running after LIMIT_S fails
    the test instead of hanging it."""
    box = {}

    def target():
        try:
            box["value"] = fn()
        except BaseException as exc:  # handed to the test thread below
            box["error"] = exc

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(LIMIT_S)
    assert not thread.is_alive(), f"no result after {LIMIT_S} s"
    if "error" in box:
        raise box["error"]
    return box["value"]


@pytest.fixture
def two_workers(monkeypatch):
    monkeypatch.setattr(parallel, "_worker_count", lambda count: min(2, count))


def all_error_types(cls=MahabenchError):
    found = [cls]
    for sub in cls.__subclasses__():
        found.extend(all_error_types(sub))
    return found


# constructor arguments of the errors that take more than a message
ERROR_ARGS = {
    errors.NotPositiveDefinite: [(2,), (2, "leading minor 3 is negative")],
    errors.EmptyClass: [(3,), (3, "class 3 lost its last example")],
    errors.FormatError: [(7, "bad")],
}


def error_cases():
    for cls in all_error_types():
        for args in ERROR_ARGS.get(cls, [("something went wrong",)]):
            yield pytest.param(cls, args, id=f"{cls.__name__}{args}")


class TestErrorsCrossProcesses:
    @pytest.mark.parametrize("cls, args", error_cases())
    def test_pickle_keeps_type_message_and_fields(self, cls, args):
        exc = cls(*args)
        back = pickle.loads(pickle.dumps(exc))
        assert type(back) is cls
        assert str(back) == str(exc)
        assert vars(back) == vars(exc)

    @pytest.mark.parametrize("exc", [EmptyClass(3), FormatError(7, "bad")], ids=repr)
    def test_unit_error_reaches_the_caller(self, two_workers, exc):
        def unit(i):
            if i == 1:
                raise exc
            return i

        with pytest.raises(type(exc)) as info:
            within_limit(lambda: ordered_map(unit, 4))
        assert str(info.value) == str(exc)
        assert vars(info.value) == vars(exc)

    def test_dead_worker_raises(self, two_workers):
        def unit(i):
            if i == 2:
                os._exit(1)
            return i

        with pytest.raises(WorkerFailed):
            within_limit(lambda: ordered_map(unit, 4))

    def test_first_failing_index_wins_across_blocks(self, two_workers):
        # 40 units on 2 workers go out in blocks of 5: unit 7 is in the
        # second block, unit 31 in the seventh, and unit 7 sleeps so that
        # unit 31 fails first in time
        def unit(i):
            if i == 7:
                time.sleep(0.5)
                raise FormatError(i, "first in order")
            if i == 31:
                raise FormatError(i, "first in time")
            return i

        with pytest.raises(FormatError) as info:
            within_limit(lambda: ordered_map(unit, 40))
        assert info.value.line == 7

    def test_dead_worker_in_the_middle_of_a_block_raises(self, two_workers):
        def unit(i):
            if i == 12:  # third of the five units in its block
                os._exit(1)
            return i

        with pytest.raises(WorkerFailed):
            within_limit(lambda: ordered_map(unit, 40))


class TestOrderedMap:
    def test_keeps_index_order_when_units_take_uneven_time(self, two_workers):
        def unit(i):
            time.sleep(0.02 * (i % 3))
            return i * i, os.getpid()

        results = within_limit(lambda: ordered_map(unit, 9))
        assert [value for value, _ in results] == [i * i for i in range(9)]
        assert os.getpid() not in {pid for _, pid in results}

    @pytest.mark.parametrize("count", [1, 7, 33, 2000])
    def test_blocks_keep_index_order(self, two_workers, count):
        results = within_limit(lambda: ordered_map(lambda i: (i, os.getpid()), count))
        assert [i for i, _ in results] == list(range(count))
        # each block runs in one worker, so the worker changes only between
        # blocks: about four blocks per worker, at least one unit each
        blocks = -(-count // max(1, count // 8))
        switches = sum(a[1] != b[1] for a, b in zip(results, results[1:]))
        assert switches < blocks

    def test_one_worker_runs_in_process(self, monkeypatch):
        monkeypatch.setattr(parallel, "_worker_count", lambda count: 1)
        assert ordered_map(lambda i: (i, os.getpid()), 3) == [(i, os.getpid()) for i in range(3)]

    def test_a_call_inside_a_worker_runs_in_that_worker(self, two_workers):
        def unit(i):
            return os.getpid(), ordered_map(lambda j: os.getpid(), 3)

        for worker, inner in within_limit(lambda: ordered_map(unit, 2)):
            assert inner == [worker] * 3

    def test_no_units(self):
        assert ordered_map(lambda i: i, 0) == []

    def test_a_result_larger_than_a_pipe_buffer_comes_back_intact(self, two_workers):
        # a few MiB a unit, far past the 64 KiB a pipe holds
        def unit(i):
            return np.random.default_rng(i).bytes(3 << 20)

        results = within_limit(lambda: ordered_map(unit, 3))
        assert results == [np.random.default_rng(i).bytes(3 << 20) for i in range(3)]


def no_children_left() -> bool:
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def raises_in_unit_1(i):
    if i == 1:
        raise FormatError(i, "bad")
    return i


def exits_in_unit_2(i):
    if i == 2:
        os._exit(1)
    time.sleep(0.2)  # the other worker is still busy when the failure comes
    return i


class TestNoWorkerOutlivesTheCall:
    # the benchmark refuses a run that leaves a process running

    def test_after_a_normal_call(self, two_workers):
        assert within_limit(lambda: ordered_map(lambda i: i, 40)) == list(range(40))
        assert no_children_left()

    def test_after_a_unit_that_raises(self, two_workers):
        with pytest.raises(FormatError):
            within_limit(lambda: ordered_map(raises_in_unit_1, 40))
        assert no_children_left()

    def test_after_a_worker_that_exits(self, two_workers):
        with pytest.raises(WorkerFailed):
            within_limit(lambda: ordered_map(exits_in_unit_2, 8))
        assert no_children_left()


BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")

# run in a fresh interpreter: the thread count the OpenBLAS numpy bundles,
# the only BLAS the package loads, reports after importing the package, and
# the BLAS thread variables left in its environment
PROBE = """
import ctypes, glob, importlib.util, json, os, sys
import mahabench
threads = []
root = importlib.util.find_spec("numpy").submodule_search_locations[0]
for path in sorted(glob.glob(os.path.join(root + ".libs", "*openblas*"))):
    lib = ctypes.CDLL(path)
    threads += [getattr(lib, name)() for name in (
        "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
        "openblas_get_num_threads64_", "openblas_get_num_threads") if hasattr(lib, name)][:1]
print(json.dumps({"threads": threads, "env": [os.environ.get(v) for v in sys.argv[1:]]}))
"""


def after_import(**preset) -> dict:
    """What a fresh interpreter reports after importing the package, with
    only ``preset`` of the BLAS thread variables set beforehand."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREADS}
    env.update(preset)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    out = subprocess.run([sys.executable, "-c", PROBE, *BLAS_THREADS], env=env,
                         capture_output=True, text=True, timeout=120, check=True)
    return json.loads(out.stdout)


def test_importing_the_package_runs_blas_on_one_thread():
    # every worker is a process of its own, so a BLAS thread pool in each
    # would oversubscribe the CPUs; the caller's environment is left as it
    # was, so the host program's own children do not inherit the default
    report = after_import()
    if not report["threads"]:
        pytest.skip("no bundled OpenBLAS to ask")
    assert report["threads"] == [1] * len(report["threads"])
    assert report["env"] == [None, None]


def test_a_blas_thread_count_the_caller_set_is_kept():
    assert after_import(OPENBLAS_NUM_THREADS="3")["env"] == ["3", None]
    assert after_import(OMP_NUM_THREADS="2")["env"] == [None, "2"]
