"""Every line of the package that some command line reaches.

``tests/test_imports.py`` finds definitions that nothing references; this
finds the lines that no run needs.  One fresh interpreter, pinned to one
CPU of its mask so that ``parallel.ordered_map`` runs every unit in that
process, installs ``sys.settrace`` before it imports ``mahabench`` and runs
every argv of ``argvs`` through ``cli.cli_main``.  A line of
``src/mahabench`` is executable when some code object compiled from its
file maps an instruction to it (``co_lines()``).  The test fails on every
executable line that no argv ran, except the lines of a ``raise``
statement or an ``except`` handler, which are safety code, and the lines
``ALLOWED`` names.  It also fails on an ``ALLOWED`` entry, or a line it
names, with no unrun line left, so the list can only shrink.

Mend a finding by deleting the code or by reaching it from the command
line, not by widening the list.  ``python tests/test_reachable.py`` prints
every unrun line outside the safety code, by function, allowlisted or not,
and exits 0.
"""

import ast
import json
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

TESTS = Path(__file__).resolve().parent
ROOT = TESTS.parent
PACKAGE = ROOT / "src" / "mahabench"

FORKED = "a traced run is serial; tests/test_parallel.py runs the forked pool"
TRACED_SHIM = "exists only because perfbench's TRACED names it (ROADMAP item A)"
MERGE = "no CLI stream revisits a class (ROADMAP item 14)"
PICKLED = "runs only when a forked worker sends the error back"
ENTRY_POINT = "python -m runs it; TestModuleEntryPoints covers it"

# qualified function name -> (why no CLI run reaches it, and the stripped
# source text of the lines it covers, or None for a function no line of
# which runs)
ALLOWED = {
    **{f"parallel.{name}": (FORKED, None) for name in (
        "_write", "_read_exactly", "_receive", "_serve", "_fork_worker",
        "_ordered_map_forked")},
    "parallel.ordered_map": (FORKED, ["return _ordered_map_forked(fn, count, workers)"]),
    "spd.quad_form": (TRACED_SHIM, None),
    "gmm.gmm_log_scores": (TRACED_SHIM, None),
    "continual.merge_class_statistics": (MERGE, None),
    "continual.run_continual_session": (MERGE, [
        "merged = merge_class_statistics(_classes(memory, rows[again]), _classes(new, again))",
        "_store(memory, rows[again], merged)"]),
    "continual.make_task_encodings": (
        "a drawn map is singular with probability 0; test_continual forces the redraw", [
        "if attempt == 63:", "if linear.ndim > 2:  # a stack of streams",
        "linear[failed] = draw(failed)  # for the failed streams alone", "linear = draw()"]),
    "riemann.MetricField.from_covariances": (
        "a CLI field has two centroids and covariances positive definite by construction",
        ["spd.cholesky(covariances.reshape(-1, d, d)[np.flatnonzero(jitter)[0]])",
         "radius = np.ones(centroids.shape[:-1])"]),
    "spd._lower_inverses": ("dtrtri fails only on a singular factor, and every factor "
                            "is a Cholesky factor that succeeded", ["if info.value < 0:"]),
    "parallel._worker_count": ("a platform without fork or sched_getaffinity runs serially",
                               ["return 1"]),
    "cli._median": ("no riemann check writes a NaN relative error",
                    ["return float(ordered[-1])"]),
    "worlds._rescale_shots": (
        "no sampled task overshoots the cap after the floors; test_worlds covers the trim",
        ["candidates = np.where(scaled > 1)[0]",
         "scaled[candidates[np.argmax(scaled[candidates])]] -= 1"]),
    **{f"errors.{name}.__reduce__": (PICKLED, None) for name in (
        "NotPositiveDefinite", "EmptyClass", "FormatError")},
    "errors.EmptyClass.__init__": ("no CLI task leaves a class without support mass", None),
    "__main__.<module>": (ENTRY_POINT, None),
    "cli.<module>": (ENTRY_POINT, ["main()"]),
}

# a bench over every head: six scores under the simple head, and two
# refining heads; no ridge, so covariances need repair
NINE_METHODS = ("simple,simple:root-riemannian,simple:euclidean,simple:l1,simple:cosine,"
                "simple:dot,gmm,transductive,gmm-em")
WORKLOAD_SIZES = {"meta-wide": 30, "active-pool": 2, "continual-stream": 2,
                  "riemann-fields": 30}

# a tasks file with one 2-way task, and the records that replace it in the
# malformed files
GOOD_TASK = {"domain_id": "file", "seed": 0, "way": 2, "dims": 2,
             "support": [{"label": 0, "features": [0.0, 0.0]},
                         {"label": 0, "features": [0.0, 1.0]},
                         {"label": 1, "features": [3.0, 3.0]},
                         {"label": 1, "features": [3.0, 4.0]}],
             "query": [{"label": 0, "features": [0.0, 0.5]},
                       {"label": 1, "features": [3.0, 3.5]}]}
BAD_TASKS = {"bad-dims": {"dims": 0}, "bad-seed": {"seed": -1}, "class-missing": {"way": 3}}


def _tasks_text(record, blank: bool = False) -> str:
    header = json.dumps({"count": 1, "format": "tasks", "version": "v1"})
    return header + "\n" + "\n" * blank + json.dumps(record) + "\n"


def argvs(workdir: Path) -> list:
    """``(argv, exit code)`` of each traced run, in run order; writes the
    tasks files they read into ``workdir``, where they run."""
    from perfbench.workloads import WORKLOADS
    from test_cli import CONFIG_ERRORS
    from test_outputs_pinned import PINNED

    (workdir / "blank.jsonl").write_text(_tasks_text(GOOD_TASK, blank=True))
    for name, change in BAD_TASKS.items():
        (workdir / f"{name}.jsonl").write_text(_tasks_text({**GOOD_TASK, **change}))
    return [
        *(([*argv, "--seed", "0", "--out", f"{name}.csv"], 0)
          for name, (argv, _) in PINNED.items()),
        *((WORKLOADS[name].cli_argv(0, f"{name}.csv", size), 0)
          for name, size in WORKLOAD_SIZES.items()),
        (["gen-tasks", "--tasks", "30", "--out", "tasks.jsonl"], 0),
        (["bench", "--tasks-file", "tasks.jsonl", "--out", "from-file.csv"], 0),
        (["bench", "--tasks-file", "blank.jsonl", "--method", "simple"], 0),
        *((["bench", "--tasks-file", f"{name}.jsonl"], 1) for name in BAD_TASKS),
        (["bench", "--tasks", "30", "--beta", "0", "--method", NINE_METHODS,
          "--out", "nine.json"], 0),
        (["bench", "--tasks", "30", "--beta", "0", "--dims", "8", "--mode", "fixed", "--way", "5",
          "--shot", "1", "--query", "2", "--method", "simple,transductive,gmm-em"], 0),
        *((argv, 2) for argv in CONFIG_ERRORS),
    ]


def _run_traced() -> None:
    """In the child: run the argvs on stdin, a JSON list, with every line of
    the package traced, and write ``{"codes": [...], "ran": {file: [line,
    ...]}}`` to stdout."""
    commands = json.load(sys.stdin)
    prefix = str(PACKAGE) + os.sep
    ran = {}

    def on_call(frame, event, arg):
        if not frame.f_code.co_filename.startswith(prefix):
            return None
        lines = ran.setdefault(frame.f_code.co_filename, set())

        def on_line(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return on_line
        return on_line

    sys.settrace(on_call)
    from mahabench.cli import cli_main

    with open(os.devnull, "w") as sink, redirect_stdout(sink), redirect_stderr(sink):
        codes = [cli_main(argv) for argv in commands]
    sys.settrace(None)
    json.dump({"codes": codes, "ran": {f: sorted(lines) for f, lines in ran.items()}},
              sys.stdout)


def _one_cpu():
    # a forked worker's lines would never reach the tracer
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def trace(workdir: Path) -> tuple:
    """``(expected exit codes, exit codes, {package file: lines run})`` of one
    traced child over ``argvs``."""
    commands = argvs(workdir)
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), str(TESTS),
                                         os.environ.get("PYTHONPATH")]))
    child = subprocess.run(
        [sys.executable, "-c", "import test_reachable; test_reachable._run_traced()"],
        input=json.dumps([argv for argv, _ in commands]), cwd=workdir, capture_output=True,
        text=True, timeout=300, env={**os.environ, "PYTHONPATH": path}, preexec_fn=_one_cpu)
    assert child.returncode == 0, child.stderr
    result = json.loads(child.stdout)
    return [code for _, code in commands], result["codes"], result["ran"]


def executable_lines(path: Path) -> dict:
    """Each line of ``path`` that a code object compiled from it maps an
    instruction to, and the qualified name of the outermost function, class
    or module whose code maps it: a ``def`` line belongs to the code that
    runs it, and a comprehension or lambda to the function around it."""
    found = {}
    stack = [(compile(path.read_text(encoding="utf-8"), str(path), "exec"), "<module>")]
    while stack:  # a code object is read before the ones nested in it
        code, name = stack.pop()
        for _, _, line in code.co_lines():
            if line:
                found.setdefault(line, name)
        stack.extend((inner, name if inner.co_name.startswith("<")
                      else inner.co_name if name == "<module>" else f"{name}.{inner.co_name}")
                     for inner in code.co_consts if isinstance(inner, type(code)))
    return found


def safety_lines(path: Path) -> set:
    """The lines of every ``raise`` statement and ``except`` handler in ``path``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {line for node in ast.walk(tree) if isinstance(node, (ast.Raise, ast.ExceptHandler))
            for line in range(node.lineno, node.end_lineno + 1)}


def unrun(ran: dict) -> tuple:
    """``(missed, reached)``: ``{qualified name: [(line, stripped text),
    ...]}`` of the executable lines outside the safety code that no traced
    argv ran, and the names of the functions some argv ran a line of."""
    missed, reached = {}, set()
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8").splitlines()
        done, safe = set(ran.get(str(path), ())), safety_lines(path)
        for line, qualname in sorted(executable_lines(path).items()):
            name = f"{path.stem}.{qualname}"
            if line in done:
                reached.add(name)
            elif line not in safe:
                missed.setdefault(name, []).append((line, source[line - 1].strip()))
    return missed, reached


def allowed(name: str, text: str) -> bool:
    entry = ALLOWED.get(name)
    return entry is not None and (entry[1] is None or text in entry[1])


def judge(missed: dict, reached: set) -> tuple:
    """``(unreached, stale)``: the unrun lines ``ALLOWED`` does not cover, as
    ``name:line: text``, and the entries that cover more than is unrun: one
    with no unrun line left, a named line that runs, or a whole function
    some line of which runs."""
    unreached = [f"{name}:{line}: {text}" for name, lines in missed.items()
                 for line, text in lines if not allowed(name, text)]
    stale = []
    for name, (_, texts) in ALLOWED.items():
        left = {text for _, text in missed.get(name, ())}
        if not left or (texts is None and name in reached):
            stale.append(name)
        stale += [f"{name}: {text}" for text in texts or () if left and text not in left]
    return unreached, stale


def test_every_package_line_is_reached_from_the_command_line(tmp_path):
    assert all(reason for reason, _ in ALLOWED.values())
    expected, codes, ran = trace(tmp_path)
    assert codes == expected
    unreached, stale = judge(*unrun(ran))
    assert not unreached, "lines no argv runs:\n" + "\n".join(unreached)
    assert not stale, "allowlist entries whose lines all run:\n" + "\n".join(stale)


if __name__ == "__main__":
    sys.path[1:1] = [str(ROOT), str(ROOT / "src")]  # perfbench and the package
    with tempfile.TemporaryDirectory() as workdir:
        missed, _ = unrun(trace(Path(workdir))[2])
    for name, lines in missed.items():
        print(name)
        for line, text in lines:
            print(f"  {line:4d} {'allowed  ' if allowed(name, text) else 'UNREACHED'} {text}")
    sys.exit(0)
