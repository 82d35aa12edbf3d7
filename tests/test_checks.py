"""The check registry fails a check when any number behind its verdict is NaN."""

from types import SimpleNamespace

import numpy as np
import pytest

from semitick import checks
from semitick.hazards import STATES, MarkLayout
from semitick.market_maker import BacktestReport, BacktestRow
from semitick.mc import DynkinResult, McEstimate
from semitick.solver import GridSpec

NAN = float("nan")
CASES = [([0.1, 0.2], True), ([0.1, NAN], False), ([NAN, 0.1], False)]


class _Field:
    """A value field whose ``eval`` returns the given values in call order."""

    def __init__(self, values):
        self._values = iter(values)

    def eval(self, t, p, i, s):
        return next(self._values)


@pytest.mark.parametrize("values, passed", CASES)
def test_price_mc_fails_on_a_nan_point(monkeypatch, values, passed):
    estimate = McEstimate(mean=0.1, se=0.1, n_paths=10, seed=0)
    monkeypatch.setattr(checks.mc, "estimate_terminal_value", lambda *args: estimate)
    points = [(0.0, 1.0, 1, 0.0), (0.5, 1.0, 2, 0.0)]
    assert checks.price_mc(None, _Field(values), points, 1.0, 10, 0).passed is passed


@pytest.mark.parametrize("values, passed", CASES)
def test_dynkin_battery_fails_on_a_nan_z(monkeypatch, values, passed):
    results = [DynkinResult(f"f{k}", z, 0.0, 1.0, 10) for k, z in enumerate(values)]
    monkeypatch.setattr(checks.mc, "dynkin_battery", lambda *args, **kwargs: results)
    market = SimpleNamespace(price=1.0)
    assert checks.dynkin_uncontrolled(None, market, 1.0, 10, 0).passed is passed


@pytest.mark.parametrize("values, passed", CASES)
def test_value_bound_fails_on_a_nan_mean(values, passed):
    rows = [BacktestRow(f"p{k}", mean, 0.01, 10) for k, mean in enumerate(values)]
    report = BacktestReport(rows, upper_bound=1.0, horizon=1.0, seed=0, risk_aversion=0.0)
    assert checks.value_bound(report).passed is passed


@pytest.mark.parametrize("values, passed", CASES)
def test_contraction_fails_on_a_nan_ratio(symmetric_kernel, values, passed):
    field = SimpleNamespace(ratios=[v * 1e-3 for v in values], iterations=3)
    grid = GridSpec(n_t=10, s_max=2.0)
    assert checks.contraction(field, symmetric_kernel, 1.0, grid).passed is passed


@pytest.mark.parametrize("bad_state, passed", [(None, True), (STATES[0], False), (STATES[-1], False)])
def test_transition_sum_fails_on_a_nan_state(bad_state, passed):
    kernel = SimpleNamespace(
        transition_prob=lambda i, j, ages: np.full_like(ages, NAN if i == bad_state else 0.5)
    )
    assert checks.transition_sum(kernel, np.linspace(0.0, 1.0, 5)).passed is passed


@pytest.mark.parametrize("bad_age, passed", [(None, True), (0.0, False), (1.0, False)])
def test_mark_partition_fails_on_a_nan_age(monkeypatch, symmetric_layout, bad_age, passed):
    real = MarkLayout.boundaries
    monkeypatch.setattr(
        MarkLayout, "boundaries", lambda self, s: real(self, s) * (NAN if s == bad_age else 1.0)
    )
    assert checks.mark_partition(symmetric_layout, [0.0, 0.5, 1.0]).passed is passed
