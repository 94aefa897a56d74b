import sys
from pathlib import Path

import pytest

from perfbench.layertrace import (
    TRACED,
    MissingFunction,
    Tracer,
    layer_metrics,
    metric_units,
)

SRC = Path(__file__).resolve().parents[2] / "src"


class _Ticks:
    """A clock that advances by the given steps, one per reading."""

    def __init__(self, *steps):
        self.now = 0.0
        self.steps = list(steps)

    def __call__(self):
        self.now += self.steps.pop(0)
        return self.now


def test_self_time_subtracts_direct_children_only():
    # clock readings: cli_main [0, 10] calls ensure_pd [1, 4], which calls
    # cholesky [2, 3], and then a second ensure_pd [5, 6]
    clock = _Ticks(0, 1, 1, 1, 1, 1, 1, 4)
    tracer = Tracer(clock=clock)

    def leaf():
        return None

    traced_leaf = tracer.wrap("spd.cholesky", leaf)
    traced_mid = tracer.wrap("spd.ensure_pd", lambda: traced_leaf())
    traced_mid2 = tracer.wrap("spd.ensure_pd", lambda: None)

    def outer():
        traced_mid()
        traced_mid2()

    tracer.wrap("cli.cli_main", outer)()
    m = layer_metrics(tracer.spans, tracer.observations)
    assert m["cli.cli_main.calls"] == 1
    assert m["cli.cli_main.total_s"] == pytest.approx(10.0)
    assert m["cli.cli_main.self_s"] == pytest.approx(10.0 - 3.0 - 1.0)
    assert m["spd.ensure_pd.calls"] == 2
    assert m["spd.ensure_pd.total_s"] == pytest.approx(4.0)
    assert m["spd.ensure_pd.self_s"] == pytest.approx(3.0)
    assert m["spd.cholesky.self_s"] == pytest.approx(1.0)
    assert m["spd.cholesky_per_ensure_pd"] == pytest.approx(0.5)
    assert m["spd.ensure_pd.repaired"] == 0


def test_failed_attempts_count_as_repairs():
    tracer = Tracer()

    def cholesky(ok):
        if not ok:
            raise ArithmeticError("not positive definite")

    traced_cholesky = tracer.wrap("spd.cholesky", cholesky)

    def ensure_pd():
        try:
            traced_cholesky(False)
        except ArithmeticError:
            traced_cholesky(True)

    tracer.wrap("spd.ensure_pd", ensure_pd)()
    m = layer_metrics(tracer.spans, tracer.observations)
    assert m["spd.cholesky.calls"] == 2
    assert m["spd.cholesky_per_ensure_pd"] == 2.0
    assert m["spd.ensure_pd.repaired"] == 1


def test_every_metric_has_a_unit_and_a_value():
    m = layer_metrics([], {})
    assert set(m) | {"trace.overhead_s"} == set(metric_units())
    assert len(metric_units()) == 3 * len(TRACED) + 6


def test_missing_function_is_an_error_and_nothing_is_wrapped(monkeypatch):
    monkeypatch.syspath_prepend(str(SRC))
    import mahabench.methods
    import mahabench.riemann

    original = mahabench.methods.fit_statistics
    monkeypatch.delattr(mahabench.riemann, "path_energy")
    with pytest.raises(MissingFunction, match="riemann.path_energy"):
        Tracer().install()
    assert mahabench.methods.fit_statistics is original
    assert sys.modules["mahabench.active"].fit_statistics is original
