"""One benchmark child process: import the CLI, then make one CLI call.

Usage (from the repository root)::

    python3 -m perfbench.child MODE SRC RESULT [SPANS] -- CLI_ARGV...

MODE is ``probe`` (import only, and record the environment), ``plain`` or
``traced``.  SRC is the directory holding the ``mahabench`` package.  The
child writes a JSON record to RESULT; when traced, the record holds the
per-layer metrics and the raw spans are written to SPANS.
Only the standard library is imported before the timed import of
``mahabench.cli``, so ``setup_s`` is what every CLI call pays.
"""

import os
import sys
import time

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _environment() -> dict:
    import platform

    import numpy
    import scipy

    blas = {}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, ValueError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "nproc": len(os.sched_getaffinity(0)),
        "blas_thread_vars_in_child": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
    }


def main(argv) -> int:
    split = argv.index("--")
    mode, src, result_path, *rest = argv[:split]
    cli_argv = argv[split + 1:]
    sys.path.insert(0, src)

    start = time.perf_counter()
    import mahabench.cli as cli
    setup_s = time.perf_counter() - start

    import json
    import resource

    record = {"setup_s": setup_s}
    src_dir = os.path.realpath(src) + os.sep
    if not os.path.realpath(cli.__file__).startswith(src_dir):
        print(f"mahabench was imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 3
    if mode == "probe":
        record["environment"] = _environment()
    else:
        tracer = None
        if mode == "traced":
            from .layertrace import Tracer, layer_metrics

            tracer = Tracer()
            record["bindings"] = tracer.install()
        start = time.perf_counter()
        record["exit_code"] = cli.cli_main(cli_argv)
        record["wall_s"] = time.perf_counter() - start
        record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            record["layers"] = layer_metrics(tracer.spans, tracer.observations)
            with open(rest[0], "w", encoding="utf-8") as fh:
                json.dump({"spans": tracer.spans, "observations": tracer.observations}, fh)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
