import math
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np
import pytest

from semitick import (
    NO_EVENT,
    STATES,
    BigJump,
    ConstantIntensity,
    MarkLayout,
    MarketMakingSpec,
    MarketState,
    SaturatingIntensity,
    SemiMarkovKernel,
    SmallOrder,
    alpha,
    direction_index,
    equivalent,
    extension_slice,
    successors,
)
from semitick.simulate import renewal_blocks, renewal_segments, thinning_segments


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


def _right_limit(p, i, s, mark, delta):
    """(price, state, age) right after ``mark`` at the left limit ``(p, i, s)``."""
    if isinstance(mark, BigJump):
        return p * (1.0 + delta * alpha(mark.target)), mark.target, 0.0
    return p, i, s


def _market_event(t, p, i, s, mark, delta):
    after = MarketState(*_right_limit(p, i, s, mark, delta))
    return _JumpEvent(t, mark, MarketState(p, i, s), after)


def _renewal_path(kernel, initial, horizon, rng):
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    start = (0.0, initial.price, initial.state, initial.age)
    segments = renewal_segments(kernel, start, horizon, rng)
    return _renewal_path_from(kernel, initial, horizon, segments, rng)


def _renewal_path_from(kernel, initial, horizon, segments, seed=None):
    path = _Path(initial_market=initial, horizon=horizon, seed=seed, method="renewal")
    for _, t1, p, i, _, s1, j in segments:
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
    ``terminal_market``, ``summary()`` and ``holding_times()``;
    ``renewal_from(kernel, initial, horizon, segments)`` builds the renewal
    path from segment tuples drawn elsewhere."""
    return SimpleNamespace(
        renewal=_renewal_path, renewal_from=_renewal_path_from, thinning=_thinning_path
    )


def _engine_paths(kernel, start, horizon, n_paths, seed):
    paths = [[] for _ in range(n_paths)]
    for lo, path, _, columns in renewal_blocks(kernel, start, horizon, n_paths, seed):
        for k, row in zip(path.tolist(), zip(*(c.tolist() for c in columns))):
            paths[lo + k].append(row)
    return [rows[:-1] + [rows[-1][:-1] + (None,)] for rows in paths]


@pytest.fixture(scope="session")
def engine_paths():
    """``engine_paths(kernel, start, horizon, n_paths, seed)``: each path's
    segment tuples from the block engine ``renewal_blocks``, the last one
    marked None as ``renewal_segments`` marks it.  Replaying single paths
    through ``renewal_segments`` (a block of one) costs numpy call overhead
    at every segment."""
    return _engine_paths


# -- the scalar renewal loop the block engine replaced, kept as the reference --


def _scalar_holding(kernel, s0, u):
    target = -math.log1p(-u)
    if kernel.is_memoryless:
        return target / kernel.total_intensity(0.0)
    lo, hi = 0.0, math.inf
    w = target / kernel.total_intensity(s0)
    for _ in range(100):
        gap = kernel.integrated_increment(s0, w) - target
        if gap < 0.0:
            lo = w
        else:
            hi = w
        if math.nextafter(lo, math.inf) == hi:
            break
        step = w - gap / kernel.total_intensity(s0 + w)
        if step == w:
            step = math.nextafter(w, math.inf if gap < 0.0 else 0.0)
        w = step if lo < step < hi else 0.5 * (lo + hi)
    return hi


def _scalar_segments(kernel, start, horizon, rng):
    t, p, i, s = start
    while True:
        u = rng.random()
        while u == 0.0:
            u = rng.random()
        w = _scalar_holding(kernel, s, u)
        if t + w > horizon:
            yield t, horizon, p, i, s, s + (horizon - t), None
            return
        succ, weights = kernel.transition_weights(i, s + w)
        j = succ[0] if rng.random() < weights[0] else succ[1]
        yield t, t + w, p, i, s, s + w, j
        t, p, i, s = t + w, p * (1.0 + kernel.delta * alpha(j)), j, 0.0


@pytest.fixture(scope="session")
def scalar_renewal():
    """The renewal construction as first built, one scalar draw at a time:
    ``holding(kernel, s0, u)`` inverts one uniform by the safeguarded Newton
    iteration and ``segments(kernel, start, horizon, rng)`` yields one path's
    segment tuples, drawing ``rng.random()`` in the draw-order contract."""
    return SimpleNamespace(holding=_scalar_holding, segments=_scalar_segments)


# -- the two-uniform thinning contract, one scalar draw at a time --


def _scalar_mark(layout, i, s, z):
    """The mark at coordinate ``z``: the interval ends at age ``s`` from
    numpy's functions on a 0-d age, as on arrays of ages, then a bisection."""
    s = np.asarray(s)
    lam_a, lam_b = layout.ask_flow.value(s), layout.bid_flow.value(s)
    lengths = [layout.kernel.continuation.value(s), layout.kernel.reversal.value(s)]
    lengths += [lam_a * q for q in layout.ask_sizes] + [lam_b * q for q in layout.bid_sizes]
    k = int(np.searchsorted(np.cumsum(lengths), z, side="right"))
    cont, rev = sorted(successors(i), key=lambda j: alpha(j) != alpha(i))
    n_sizes = len(layout.ask_sizes)
    marks = [BigJump(cont), BigJump(rev)] + [SmallOrder(+1, u) for u in range(n_sizes)]
    marks += [SmallOrder(-1, u) for u in range(n_sizes)] + [NO_EVENT]
    return marks[k]


def _scalar_thinning(kernel, layout, start, horizon, rng):
    t, p, i, s = start
    width = layout.mark_domain
    while True:
        u = rng.random()
        while u == 0.0:
            u = rng.random()
        gap = float(-np.log1p(-u) / width)
        if t + gap > horizon:
            yield t, horizon, p, i, s, s + (horizon - t), None
            return
        s1 = s + gap
        mark = _scalar_mark(layout, i, s1, width * rng.random())
        yield t, t + gap, p, i, s, s1, mark
        t += gap
        p, i, s = _right_limit(p, i, s1, mark, kernel.delta)


@pytest.fixture(scope="session")
def scalar_thinning():
    """The thinning construction's two-uniform contract, one scalar draw at a
    time: ``segments(kernel, layout, start, horizon, rng)`` yields one path's
    segment tuples with mark objects, drawing ``rng.random()`` for an open
    gap uniform (a zero is skipped), gap ``-np.log1p(-u1) / width``, and then,
    unless the horizon cuts the gap, ``rng.random()`` for the mark
    coordinate ``width * u2``; ``mark(layout, i, s, z)`` resolves one mark."""
    return SimpleNamespace(segments=_scalar_thinning, mark=_scalar_mark)


# -- the transition-keyed gain rates the slot forms replaced, kept as the reference --


def _rate_point(source, t, p, i, s, j):
    t, p, s = (np.asarray(x, dtype=float) for x in (t, p, s))
    i, j = np.asarray(i), np.asarray(j)
    same_class = equivalent(i, j)
    if np.any(same_class):
        i, j, same_class = np.broadcast_arrays(i, j, same_class)
        q = np.argmax(same_class)
        raise ValueError(
            f"invalid transition {i.flat[q]} -> {j.flat[q]}: states are equivalent"
        )
    d = alpha(j)
    slot = np.asarray(d > 0, dtype=int)  # SLOT_MOVES[slot] == d
    node = source.lattice.locate(p)
    pi_here = source.field.read(t, node, i, s)
    img_idx, img_scale = source._img_idx[slot, node], source._img_scale[slot, node]
    pi_img = source.field.read(t, img_idx, j, 0.0) * img_scale
    edge = source._edge(p)
    layout, kernel = source.layout, source.kernel
    flow = np.where(
        d > 0,
        layout.ask_flow.value(s) * layout.mean_size(+1),
        layout.bid_flow.value(s) * layout.mean_size(-1),
    )
    h_dir = np.where(d == alpha(i), kernel.continuation.value(s), kernel.reversal.value(s))
    small = flow * (d * (p - pi_here) + edge)
    large = h_dir * source.mmspec.big_size * (d * (p - pi_img) + edge)
    return (small + large)[()]


def _gain_rates_at_age(source, age):
    fld, lattice, kernel, layout = source.field, source.lattice, source.kernel, source.layout
    pi = fld.core if fld.age_invariant or age == 0.0 else extension_slice(fld, age)
    # the four-state (time, node, state) forms of the expected price
    pi, core = (np.moveaxis(x[direction_index(np.array(STATES))], 0, -1) for x in (pi, fld.core))
    prices = lattice.prices[None, :]
    edge = source._edge(prices)
    rates = {}
    for ii, i in enumerate(STATES):
        for j in successors(i):
            d = alpha(j)
            idx, scale = lattice.image_maps(d)
            big_edge = d * (prices - core[:, idx, STATES.index(j)] * scale[None, :]) + edge
            flow = layout.side_flow(d).value(age) * layout.mean_size(d)
            h_dir = (kernel.continuation if alpha(i) == d else kernel.reversal).value(age)
            rate = (prices - pi[:, :, ii]) if d > 0 else (pi[:, :, ii] - prices)
            rates[i, j] = (rate + edge) * flow + big_edge * (h_dir * source.mmspec.big_size)
    return rates


@pytest.fixture(scope="session")
def reference_rates():
    """Gain rates of a ``QuoteGainSource`` keyed by transition, as first
    built: ``rate_point(source, t, p, i, s, j)`` is the rate of quoting
    toward the successor ``j`` of ``i`` (refusing an equivalent ``j``), and
    ``gain_rates_at_age(source, age)`` a dict of (time, node) arrays keyed by
    every transition ``(i, j)``, from the four-state form of the field."""
    return SimpleNamespace(rate_point=_rate_point, gain_rates_at_age=_gain_rates_at_age)
