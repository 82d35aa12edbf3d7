from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np
import pytest

from semitick import (
    NO_EVENT,
    BigJump,
    ConstantIntensity,
    MarkLayout,
    MarketMakingSpec,
    MarketState,
    SaturatingIntensity,
    SemiMarkovKernel,
    SmallOrder,
)
from semitick.simulate import _right_limit, renewal_segments, thinning_segments


@pytest.fixture(scope="session")
def symmetric_kernel():
    return SemiMarkovKernel(ConstantIntensity(0.5), ConstantIntensity(0.5), 0.01)


@pytest.fixture(scope="session")
def asymmetric_kernel():
    return SemiMarkovKernel(ConstantIntensity(0.8), ConstantIntensity(0.4), 0.01)


@pytest.fixture(scope="session")
def saturating_kernel():
    return SemiMarkovKernel(
        SaturatingIntensity(base=0.2, gain=1.0, rate=2.0),
        SaturatingIntensity(base=0.3, gain=0.5, rate=1.0),
        0.01,
    )


@pytest.fixture(scope="session")
def symmetric_layout(symmetric_kernel):
    return MarkLayout(
        symmetric_kernel,
        ConstantIntensity(1.0),
        ConstantIntensity(1.0),
        (0.1, 0.5, 0.3, 0.1),
        (0.1, 0.5, 0.3, 0.1),
    )


@pytest.fixture(scope="session")
def asymmetric_layout(asymmetric_kernel):
    return MarkLayout(
        asymmetric_kernel,
        ConstantIntensity(1.5),
        ConstantIntensity(1.0),
        (0.2, 0.5, 0.3),
        (0.1, 0.6, 0.3),
    )


@pytest.fixture(scope="session")
def saturating_layout(saturating_kernel):
    return MarkLayout(
        saturating_kernel,
        SaturatingIntensity(base=0.5, gain=0.8, rate=1.5),
        ConstantIntensity(0.9),
        (0.25, 0.5, 0.25),
        (0.25, 0.5, 0.25),
    )


@pytest.fixture(scope="session")
def start_state():
    return MarketState(price=1.0, state=2, age=0.0)


# -- the event-object path the segment folds replaced, kept as the reference --


@dataclass(frozen=True)
class _JumpEvent:
    time: float
    kind: object  # BigJump or SmallOrder
    market_before: MarketState
    market_after: MarketState


@dataclass
class _Path:
    initial_market: MarketState
    horizon: float
    events: list = field(default_factory=list)
    terminal_market: MarketState = None
    seed: object = None
    method: str = "renewal"

    def big_jumps(self):
        return [e for e in self.events if isinstance(e.kind, BigJump)]

    def small_orders(self):
        return [e for e in self.events if isinstance(e.kind, SmallOrder)]

    @property
    def jump_count(self):
        return len(self.big_jumps())

    def holding_times(self):
        times = [e.time for e in self.big_jumps()]
        out = [times[0]] if self.initial_market.age == 0.0 and times else []
        out.extend(np.diff(times).tolist())
        return out

    def summary(self):
        term = self.terminal_market
        return {
            "horizon": self.horizon,
            "method": self.method,
            "seed": str(self.seed),
            "n_events": len(self.events),
            "n_big_jumps": self.jump_count,
            "n_small_orders": len(self.small_orders()),
            "terminal_price": term.price if term else None,
            "terminal_state": term.state if term else None,
            "terminal_age": term.age if term else None,
        }


def _market_event(t, p, i, s, mark, delta):
    after = MarketState(*_right_limit(p, i, s, mark, delta))
    return _JumpEvent(t, mark, MarketState(p, i, s), after)


def _renewal_path(kernel, initial, horizon, rng):
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    path = _Path(initial_market=initial, horizon=horizon, seed=rng, method="renewal")
    start = (0.0, initial.price, initial.state, initial.age)
    for _, t1, p, i, _, s1, j in renewal_segments(kernel, start, horizon, rng):
        if j is not None:
            path.events.append(_market_event(t1, p, i, s1, BigJump(j), kernel.delta))
    path.terminal_market = MarketState(p, i, s1)
    return path


def _thinning_path(kernel, layout, initial, horizon, rng):
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    path = _Path(initial_market=initial, horizon=horizon, seed=rng, method="thinning")
    start = (0.0, initial.price, initial.state, initial.age)
    for _, t1, p, i, _, s1, mark in thinning_segments(kernel, layout, start, horizon, rng):
        if mark is not None and mark is not NO_EVENT:
            path.events.append(_market_event(t1, p, i, s1, mark, kernel.delta))
    path.terminal_market = MarketState(p, i, s1)
    return path


@pytest.fixture(scope="session")
def reference_paths():
    """Event-object paths as first built: ``renewal(kernel, initial, horizon,
    rng)`` and ``thinning(kernel, layout, initial, horizon, rng)`` return a
    path with ``events`` (time, kind, market state before and after),
    ``terminal_market``, ``summary()`` and ``holding_times()``."""
    return SimpleNamespace(renewal=_renewal_path, thinning=_thinning_path)
