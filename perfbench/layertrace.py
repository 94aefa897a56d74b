"""Span tracing of mahabench's public functions, installed from outside.

``install`` replaces every listed function with a wrapper at each binding
a caller can look it up through: the defining module, every mahabench
module that imported it by name, and the package namespace.
``ClassStatistics.from_moments`` is re-wrapped as a classmethod on the
class.  Each call appends one span ``[name, start, end, parent]`` to an
in-memory list; ``layer_metrics`` turns the spans into per-function
calls, total and self time, plus the derived layer counters.
"""

import functools
import importlib
import sys
import time
from statistics import fmean

# Traced functions as "<module>.<qualname>"; the metric prefix is the same.
TRACED = (
    "cli.cli_main",
    "bench.run_benchmark",
    "worlds.make_cluster_world",
    "worlds.sample_task",
    "worlds.draw_class_examples",
    "methods.fit_statistics",
    "methods.predict",
    "methods.evaluate_task",
    "heads.estimate_class_statistics",
    "heads.ClassStatistics.from_moments",
    "heads.class_scores",
    "refine.run_refinement",
    "refine.weighted_class_statistics",
    "gmm.gmm_log_scores",
    "spd.ensure_pd",
    "spd.cholesky",
    "spd.quad_form",
    "spd.logdet",
    "active.run_active_session",
    "active.select_next",
    "continual.run_continual_session",
    "continual.merge_class_statistics",
    "continual.update_encoding",
    "riemann.make_two_centroid_field",
    "riemann.energy_gap_check",
    "riemann.path_energy",
)

COUNTERS = (
    ("refine.iterations_per_call", "iter/call"),
    ("refine.max_steps_hit_frac", "fraction"),
    ("spd.cholesky_per_ensure_pd", "attempts/call"),
    ("spd.ensure_pd.repaired", "count"),
    ("spd.quad_form.rows", "rows"),
    ("trace.overhead_s", "s"),
)


class MissingFunction(LookupError):
    """A traced function does not exist in the program under test."""


def metric_units() -> dict:
    """Every per-layer metric name mapped to its unit, in report order."""
    units = {}
    for name in TRACED:
        units[f"{name}.calls"] = "count"
        units[f"{name}.total_s"] = "s"
        units[f"{name}.self_s"] = "s"
    units.update(COUNTERS)
    return units


def _refine_observation(args, kwargs, result):
    cfg = kwargs["cfg"] if "cfg" in kwargs else args[3]
    capped = result.iterations_run == cfg.max_steps and not result.converged_early
    return (result.iterations_run, capped)


def _quad_form_observation(args, kwargs, result):
    diffs = kwargs["diffs"] if "diffs" in kwargs else args[1]
    shape = getattr(diffs, "shape", None)
    return 1 if not shape or len(shape) == 1 else int(shape[0])


# Per-function hooks that record a small value from the call with its span.
OBSERVERS = {
    "refine.run_refinement": _refine_observation,
    "spd.quad_form": _quad_form_observation,
}


class Tracer:
    """Collects spans in memory; one instance per traced process."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []  # [name, start, end, parent index or -1]
        self.observations = {name: [] for name in OBSERVERS}
        self._stack = []

    def wrap(self, name, func):
        spans = self.spans
        stack = self._stack
        clock = self.clock
        observe = OBSERVERS.get(name)
        observed = self.observations.get(name)

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), None, stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = func(*args, **kwargs)
            finally:
                spans[index][2] = clock()
                stack.pop()
            if observe is not None:
                observed.append(observe(args, kwargs, result))
            return result

        return functools.update_wrapper(traced, func)

    def install(self, package: str = "mahabench") -> dict:
        """Wrap every function in ``TRACED``; returns name -> binding count.

        Raises ``MissingFunction``, before wrapping anything, if a listed
        function is absent, so a renamed or deleted layer never reads as
        zero calls.
        """
        targets = [(name, *_resolve(package, name)) for name in TRACED]
        modules = [
            m for key, m in sorted(sys.modules.items())
            if m is not None and (key == package or key.startswith(package + "."))
        ]
        bindings = {}
        for name, owner, attr, original in targets:
            if isinstance(owner, type):
                # a method is wrapped on its class, inside the same descriptor
                descriptor = type(original)
                if descriptor in (classmethod, staticmethod):
                    original = descriptor(self.wrap(name, original.__func__))
                else:
                    original = self.wrap(name, original)
                setattr(owner, attr, original)
                bindings[name] = 1
                continue
            wrapper = self.wrap(name, original)
            count = 0
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        count += 1
            bindings[name] = count
        return bindings


def _resolve(package: str, name: str):
    """(owner, attribute, function) of ``<module>.<qualname>`` in the package."""
    module_name, _, qualname = name.partition(".")
    try:
        owner = importlib.import_module(f"{package}.{module_name}")
    except ImportError as exc:
        raise MissingFunction(f"{package}.{module_name} cannot be imported: {exc}") from None
    *outer, attr = qualname.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
    raw = vars(owner).get(attr) if owner is not None else None
    if not (callable(raw) or isinstance(raw, classmethod)):
        raise MissingFunction(f"{package}.{name} does not exist")
    return owner, attr, raw


def layer_metrics(spans, observations) -> dict:
    """Per-layer metrics (without ``trace.overhead_s``) from one run's spans.

    A span's self time is its duration minus the durations of its direct
    children; spans of one thread nest, so the children never overlap.
    """
    calls = {name: 0 for name in TRACED}
    total = {name: 0.0 for name in TRACED}
    covered = [0.0] * len(spans)
    cholesky_children = [0] * len(spans)
    for name, start, end, parent in spans:
        duration = end - start
        calls[name] += 1
        total[name] += duration
        if parent >= 0:
            covered[parent] += duration
            if name == "spd.cholesky":
                cholesky_children[parent] += 1
    self_time = {name: 0.0 for name in TRACED}
    attempts = 0
    repaired = 0
    for index, (name, start, end, _parent) in enumerate(spans):
        self_time[name] += (end - start) - covered[index]
        if name == "spd.ensure_pd":
            attempts += cholesky_children[index]
            repaired += cholesky_children[index] > 1

    metrics = {}
    for name in TRACED:
        metrics[f"{name}.calls"] = calls[name]
        metrics[f"{name}.total_s"] = total[name]
        metrics[f"{name}.self_s"] = self_time[name]
    refinements = observations.get("refine.run_refinement", [])
    # a ratio over zero calls is reported as 0: the layer did no work
    metrics["refine.iterations_per_call"] = (
        fmean(it for it, _ in refinements) if refinements else 0.0
    )
    metrics["refine.max_steps_hit_frac"] = (
        sum(capped for _, capped in refinements) / len(refinements) if refinements else 0.0
    )
    ensure_calls = calls["spd.ensure_pd"]
    metrics["spd.cholesky_per_ensure_pd"] = attempts / ensure_calls if ensure_calls else 0.0
    metrics["spd.ensure_pd.repaired"] = repaired
    metrics["spd.quad_form.rows"] = sum(observations.get("spd.quad_form", []))
    return metrics
