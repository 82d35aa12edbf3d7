"""Monte-Carlo oracles: the expectation representation of terminal-value
solutions, and generator (Dynkin) consistency checks for the uncontrolled and
controlled processes.

Between jumps the price and direction are constant and the age grows at unit
slope, so running-cost integrals are computed segment by segment with the same
Simpson rule the solver uses, with the age argument varying along the segment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional, Sequence

import numpy as np

from .hazards import NO_EVENT, MarkLayout, SemiMarkovKernel, alpha, successors
from .simulate import (
    big_order_fill,
    order_fill,
    path_rng,
    renewal_segments,
    small_order_fill,
    thinning_segments,
)

__all__ = [
    "McEstimate",
    "estimate_terminal_value",
    "z_score",
    "TestFunction",
    "ControlledTestFunction",
    "battery_uncontrolled",
    "battery_controlled",
    "DynkinResult",
    "dynkin_battery",
    "dynkin_check",
]


@dataclass(frozen=True)
class McEstimate:
    """Sample mean with its standard error."""

    mean: float
    se: float
    n_paths: int
    seed: int

    @classmethod
    def from_values(cls, values: np.ndarray, seed: int) -> "McEstimate":
        n = len(values)
        if n < 1:
            raise ValueError("need at least one path")
        # huge values overflow to inf without a warning; callers refuse
        # non-finite estimates by name
        with np.errstate(over="ignore"):
            mean = float(np.sum(values) / n)
            se = float(np.std(values, ddof=1) / math.sqrt(n)) if n > 1 else 0.0
        return cls(mean=mean, se=se, n_paths=n, seed=seed)


def z_score(solver_value: float, estimate: McEstimate) -> float:
    """Standardised gap between a solver value and its Monte-Carlo estimate.

    A zero standard error is only acceptable when the values agree exactly.
    """
    if estimate.se == 0.0:
        if solver_value == estimate.mean:
            return 0.0
        raise ValueError(
            f"estimate has zero standard error but differs from the solver "
            f"value ({solver_value!r} vs {estimate.mean!r})"
        )
    return (solver_value - estimate.mean) / estimate.se


def _simpson_nodes(subdiv: int) -> np.ndarray:
    w = np.ones(subdiv + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w


def _simpson_segment(fn: Callable, a: float, b: float, subdiv: int) -> float:
    """Composite Simpson of a vectorised integrand over [a, b]."""
    if b <= a:
        return 0.0
    vals = np.asarray(fn(np.linspace(a, b, subdiv + 1)), dtype=float)
    return float(np.dot(_simpson_nodes(subdiv), vals) * (b - a) / (3.0 * subdiv))


def estimate_terminal_value(
    kernel: SemiMarkovKernel,
    g: Callable,
    w: Optional[Callable],
    start: tuple,
    horizon: float,
    n_paths: int,
    seed: int,
    segment_subdiv: int = 8,
) -> McEstimate:
    """Monte-Carlo estimate of E[g(P_T) + integral of w along the path].

    ``start`` is (t, price, state, age); paths run from that time to the
    horizon.  ``w(t, p, i, s)`` must broadcast over arrays of ``t`` and ``s``
    with scalar price and state: it is evaluated at left limits, which on
    each inter-jump segment means constant price/state and linearly growing
    age.
    """
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    if segment_subdiv % 2 or segment_subdiv < 2:
        raise ValueError("segment_subdiv must be a positive even integer")
    if not 0.0 <= start[0] <= horizon:
        raise ValueError("start time must lie in [0, horizon]")
    values = np.empty(n_paths)
    for idx in range(n_paths):
        acc = 0.0
        rng = path_rng(seed, idx)
        for t0, t1, p, i, s0, _, _ in renewal_segments(kernel, start, horizon, rng):
            if w is not None and t1 > t0:
                acc += _simpson_segment(
                    lambda v: w(v, p, i, s0 + (v - t0)), t0, t1, segment_subdiv
                )
        values[idx] = float(g(p)) + acc
    return McEstimate.from_values(values, seed)


# -- generator checks --------------------------------------------------------


def _bump(s, center: float, width: float):
    """Smooth compactly-supported bump on (center - width, center + width)."""
    if isinstance(s, (float, int)):
        u = (s - center) / width
        return math.exp(1.0 - 1.0 / (1.0 - u * u)) if abs(u) < 1.0 else 0.0
    s = np.asarray(s, dtype=float)
    u2 = ((s - center) / width) ** 2
    safe = np.where(u2 < 1.0, u2, 0.0)
    out = np.where(u2 < 1.0, np.exp(1.0 - 1.0 / (1.0 - safe)), 0.0)
    return out if out.ndim else float(out)


def _bump_ds(s, center: float, width: float):
    if isinstance(s, (float, int)):
        u = (s - center) / width
        if abs(u) >= 1.0:
            return 0.0
        return math.exp(1.0 - 1.0 / (1.0 - u * u)) * (-2.0 * u / (1.0 - u * u) ** 2) / width
    s = np.asarray(s, dtype=float)
    u = (s - center) / width
    u2 = u * u
    mask = u2 < 1.0
    safe = np.where(mask, u2, 0.0)
    om = 1.0 - safe
    out = np.where(
        mask, np.exp(1.0 - 1.0 / om) * (-2.0 * u / (om * om)) / width, 0.0
    )
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class TestFunction:
    """Smooth, age-compactly-supported test function with analytic age slope.

    ``state_part`` and ``age_bump`` expose the product structure
    psi(p, i, s) = state_part(p, i) * bump(s; center, width) when the
    function has one; the battery checks exploit it to share the age-factor
    quadratures across functions.
    """

    __test__ = False  # not a pytest class despite the name

    name: str
    psi: Callable
    dpsi_ds: Callable
    state_part: Optional[Callable] = None
    age_bump: Optional[tuple[float, float]] = None


@dataclass(frozen=True)
class ControlledTestFunction:
    """Test function on the controlled state (p, i, s, x, y)."""

    name: str
    psi: Callable
    dpsi_ds: Callable
    state_part: Optional[Callable] = None
    age_bump: Optional[tuple[float, float]] = None


def _product_tf(name: str, g: Callable, center: float, width: float) -> TestFunction:
    return TestFunction(
        name,
        psi=lambda p, i, s: g(p, i) * _bump(s, center, width),
        dpsi_ds=lambda p, i, s: g(p, i) * _bump_ds(s, center, width),
        state_part=g,
        age_bump=(center, width),
    )


def _product_ctf(name: str, g: Callable, center: float, width: float) -> ControlledTestFunction:
    return ControlledTestFunction(
        name,
        psi=lambda p, i, s, x, y: g(p, i, x, y) * _bump(s, center, width),
        dpsi_ds=lambda p, i, s, x, y: g(p, i, x, y) * _bump_ds(s, center, width),
        state_part=g,
        age_bump=(center, width),
    )


def battery_uncontrolled(horizon: float, p_scale: float = 1.0) -> list[TestFunction]:
    """Fixed battery mixing bounded price factors, state indicators, and bumps."""
    w1, w2, w3 = 1.6 * horizon, 1.1 * horizon, 2.2 * horizon
    return [
        _product_tf("age_bump", lambda p, i: 1.0, 0.0, w1),
        _product_tf(
            "price_ratio_bump", lambda p, i: p / (1.0 + p), 0.4 * horizon, w2
        ),
        _product_tf(
            "class_indicator", lambda p, i: 1.0 if i <= 2 else 0.0, 0.0, w2
        ),
        _product_tf(
            "signed_price",
            lambda p, i: alpha(i) * p / (1.0 + p),
            0.2 * horizon,
            w1,
        ),
        _product_tf(
            "price_wave", lambda p, i: math.cos(p / p_scale), 0.0, w3
        ),
    ]


def battery_controlled(horizon: float, p_scale: float = 1.0) -> list[ControlledTestFunction]:
    w1, w2 = 1.6 * horizon, 2.0 * horizon
    # the inventory bell is even in y, so symmetric order flow cannot cancel
    # its generator terms: the right pick for the ablation negative control
    return [
        _product_ctf(
            "inventory_bell",
            lambda p, i, x, y: np.exp(-((y / 3.0) ** 2)),
            0.0,
            w1,
        ),
        _product_ctf(
            "inventory_tanh", lambda p, i, x, y: np.tanh(y / 3.0), 0.0, w1
        ),
        _product_ctf(
            "cash_tanh",
            lambda p, i, x, y: np.tanh(x / (5.0 * p_scale)),
            0.0,
            w2,
        ),
        _product_ctf(
            "joint",
            lambda p, i, x, y: alpha(i) * np.tanh(y / 2.0) * p / (1.0 + p),
            0.3 * horizon,
            w1,
        ),
        _product_ctf(
            "wealth_mark",
            lambda p, i, x, y: np.tanh((x + y * p) / (4.0 * p_scale)),
            0.0,
            w2,
        ),
    ]


def _segment_defects_unc(kernel, tfs, p, i, s0, a, b, weights, acc):
    """Add each test function's generator integral over one segment to acc."""
    if b <= a:
        return
    subdiv = len(weights) - 1
    vs = np.linspace(a, b, subdiv + 1)
    ages = s0 + (vs - a)
    scale = (b - a) / (3.0 * subdiv)
    rates = {}
    for j in successors(i):
        spec = kernel.continuation if alpha(j) == alpha(i) else kernel.reversal
        rates[j] = spec.value(ages)
    for q, tf in enumerate(tfs):
        psi_here = np.asarray(tf.psi(p, i, ages), dtype=float)
        integrand = np.asarray(tf.dpsi_ds(p, i, ages), dtype=float)
        for j in successors(i):
            pj = p * (1.0 + kernel.delta * alpha(j))
            integrand = integrand + rates[j] * (float(tf.psi(pj, j, 0.0)) - psi_here)
        acc[q] += float(np.dot(weights, integrand)) * scale


def _segment_defects_ctl(
    kernel, layout, cost, tfs, p, i, s0, x, y, a, b, control, include_small, weights, acc
):
    if b <= a:
        return
    subdiv = len(weights) - 1
    vs = np.linspace(a, b, subdiv + 1)
    ages = s0 + (vs - a)
    scale = (b - a) / (3.0 * subdiv)
    big = layout.max_units
    rates = {}
    fills_small = {}
    for j in successors(i):
        d = alpha(j)
        spec = kernel.continuation if alpha(j) == alpha(i) else kernel.reversal
        rates[j] = spec.value(ages)
        if include_small:
            bit = control[0] if d > 0 else control[1]
            probs = np.asarray(layout.side_sizes(d))
            dxs = np.empty(len(probs))
            dys = np.empty(len(probs), dtype=int)
            for k in range(len(probs)):
                dxs[k], dys[k], _ = small_order_fill(d, k, p, kernel.delta, cost, bit)
            live = (probs > 0) & ((dxs != 0) | (dys != 0))
            fills_small[d] = (
                layout.side_flow(d).value(ages),
                probs[live],
                dxs[live],
                dys[live],
            )
    for q, tf in enumerate(tfs):
        psi_here = np.asarray(tf.psi(p, i, ages, x, y), dtype=float)
        integrand = np.asarray(tf.dpsi_ds(p, i, ages, x, y), dtype=float)
        for j in successors(i):
            d = alpha(j)
            bit = control[0] if d > 0 else control[1]
            if include_small and len(fills_small[d][1]):
                lam, probs, dxs, dys = fills_small[d]
                shifted = np.asarray(
                    tf.psi(p, i, ages[None, :], x + dxs[:, None], y + dys[:, None]),
                    dtype=float,
                )
                integrand = integrand + lam * (
                    probs @ shifted - probs.sum() * psi_here
                )
            dxb, dyb, _ = big_order_fill(j, big, p, kernel.delta, cost, bit)
            pj = p * (1.0 + kernel.delta * d)
            integrand = integrand + rates[j] * (
                float(tf.psi(pj, j, 0.0, x + dxb, y + dyb)) - psi_here
            )
        acc[q] += float(np.dot(weights, integrand)) * scale


@dataclass(frozen=True)
class DynkinResult:
    """Standardised martingale defect of one test function."""

    name: str
    z: float
    mean: float
    se: float
    n_paths: int

    def __float__(self):
        return self.z


def _segment_separable_unc(kernel, tfs, p, i, s0, a, b, weights, acc, frac, b0_map):
    """Separable-product fast path: shared age-factor quadratures per segment."""
    if b <= a:
        return
    subdiv = len(weights) - 1
    ages = s0 + (b - a) * frac
    scale = (b - a) / (3.0 * subdiv)
    hc = np.asarray(kernel.continuation.value(ages))
    hr = np.asarray(kernel.reversal.value(ages))
    i_hc = float(np.dot(weights, hc)) * scale
    i_hr = float(np.dot(weights, hr)) * scale
    cache = {}
    for key, b0 in b0_map.items():
        bump = _bump(ages, *key)
        cache[key] = (
            float(np.dot(weights, _bump_ds(ages, *key))) * scale,
            float(np.dot(weights, hc * bump)) * scale,
            float(np.dot(weights, hr * bump)) * scale,
            b0,
        )
    delta = kernel.delta
    for q, tf in enumerate(tfs):
        i_bp, i_hcb, i_hrb, b0 = cache[tf.age_bump]
        g = tf.state_part
        g_here = g(p, i)
        total = g_here * i_bp
        for j in successors(i):
            cont = alpha(j) == alpha(i)
            i_h, i_hb = (i_hc, i_hcb) if cont else (i_hr, i_hrb)
            total += g(p * (1.0 + delta * alpha(j)), j) * b0 * i_h - g_here * i_hb
        acc[q] += total


def _segment_separable_ctl(
    kernel, layout, cost, tfs, p, i, s0, x, y, a, b, control, include_small, weights,
    acc, frac, b0_map
):
    if b <= a:
        return
    subdiv = len(weights) - 1
    ages = s0 + (b - a) * frac
    scale = (b - a) / (3.0 * subdiv)
    hc = np.asarray(kernel.continuation.value(ages))
    hr = np.asarray(kernel.reversal.value(ages))
    i_hc = float(np.dot(weights, hc)) * scale
    i_hr = float(np.dot(weights, hr)) * scale
    lam = {
        +1: np.asarray(layout.ask_flow.value(ages)),
        -1: np.asarray(layout.bid_flow.value(ages)),
    }
    cache = {}
    for key, b0 in b0_map.items():
        bump = _bump(ages, *key)
        cache[key] = (
            float(np.dot(weights, _bump_ds(ages, *key))) * scale,
            float(np.dot(weights, hc * bump)) * scale,
            float(np.dot(weights, hr * bump)) * scale,
            float(np.dot(weights, lam[+1] * bump)) * scale,
            float(np.dot(weights, lam[-1] * bump)) * scale,
            b0,
        )
    delta = kernel.delta
    big = layout.max_units
    fills = {}
    for j in successors(i):
        d = alpha(j)
        bit = control[0] if d > 0 else control[1]
        small = []
        if include_small and bit:
            for k, prob in enumerate(layout.side_sizes(d)):
                if prob == 0.0 or k == 0:
                    continue
                dx, dy, _ = small_order_fill(d, k, p, delta, cost, bit)
                small.append((prob, dx, dy))
        fills[j] = (small, big_order_fill(j, big, p, delta, cost, bit))
    for q, tf in enumerate(tfs):
        i_bp, i_hcb, i_hrb, i_lab, i_lbb, b0 = cache[tf.age_bump]
        g = tf.state_part
        g_here = g(p, i, x, y)
        total = g_here * i_bp
        for j in successors(i):
            d = alpha(j)
            cont = alpha(j) == alpha(i)
            i_h, i_hb = (i_hc, i_hcb) if cont else (i_hr, i_hrb)
            small, (dxb, dyb, _) = fills[j]
            if small:
                shift_sum = sum(
                    prob * (g(p, i, x + dx, y + dy) - g_here)
                    for prob, dx, dy in small
                )
                total += (i_lab if d > 0 else i_lbb) * shift_sum
            total += (
                g(p * (1.0 + delta * d), j, x + dxb, y + dyb) * b0 * i_h
                - g_here * i_hb
            )
        acc[q] += total


def dynkin_battery(
    kernel: SemiMarkovKernel,
    tfs: Sequence,
    start,
    t: float,
    n_paths: int,
    seed: int,
    layout: Optional[MarkLayout] = None,
    control: Optional[tuple[int, int]] = None,
    transaction_cost: float = 0.0,
    include_small_orders: bool = True,
    segment_subdiv: int = 4,
) -> list[DynkinResult]:
    """Run the Dynkin identity check for several test functions on shared paths.

    Each path is simulated once; every function's martingale defect is
    accumulated against it segment by segment.
    """
    if t <= 0:
        raise ValueError("the check horizon must be positive")
    if control is not None and layout is None:
        raise ValueError("controlled checks need the mark layout")
    values = np.empty((len(tfs), n_paths))
    weights = _simpson_nodes(segment_subdiv)
    separable = all(tf.state_part is not None and tf.age_bump is not None for tf in tfs)
    if separable:
        shared = dict(
            frac=np.linspace(0.0, 1.0, segment_subdiv + 1),
            b0_map={key: _bump(0.0, *key) for key in {tf.age_bump for tf in tfs}},
        )
        seg_unc = partial(_segment_separable_unc, **shared)
        seg_ctl = partial(_segment_separable_ctl, **shared)
    else:
        seg_unc, seg_ctl = _segment_defects_unc, _segment_defects_ctl
    if control is None:
        start_seg = (0.0, start.price, start.state, start.age)
        psi0 = [float(tf.psi(start.price, start.state, start.age)) for tf in tfs]
        for idx in range(n_paths):
            acc = [0.0] * len(tfs)
            rng = path_rng(seed, idx)
            for t0, t1, p, i, s0, s1, _ in renewal_segments(kernel, start_seg, t, rng):
                seg_unc(kernel, tfs, p, i, s0, t0, t1, weights, acc)
            for q, tf in enumerate(tfs):
                values[q, idx] = float(tf.psi(p, i, s1)) - psi0[q] - acc[q]
    else:
        market, agent = start
        start_seg = (0.0, market.price, market.state, market.age)
        psi0 = [
            float(
                tf.psi(market.price, market.state, market.age, agent.cash, agent.inventory)
            )
            for tf in tfs
        ]
        for idx in range(n_paths):
            x, y = agent.cash, agent.inventory
            acc = [0.0] * len(tfs)
            rng = path_rng(seed, idx)
            for t0, t1, p, i, s0, s1, mark in thinning_segments(kernel, layout, start_seg, t, rng):
                seg_ctl(
                    kernel, layout, transaction_cost, tfs, p, i, s0, x, y,
                    t0, t1, control, include_small_orders, weights, acc,
                )
                if mark is not None and mark is not NO_EVENT:
                    _, dx, dy, _, _ = order_fill(
                        mark, control, layout.max_units, p, kernel.delta, transaction_cost
                    )
                    x, y = x + dx, y + dy
            for q, tf in enumerate(tfs):
                values[q, idx] = float(tf.psi(p, i, s1, x, y)) - psi0[q] - acc[q]
    results = []
    for q, tf in enumerate(tfs):
        est = McEstimate.from_values(values[q], seed)
        if est.se == 0.0:
            z = 0.0 if est.mean == 0.0 else math.inf
        else:
            z = est.mean / est.se
        results.append(
            DynkinResult(name=tf.name, z=float(z), mean=est.mean, se=est.se, n_paths=n_paths)
        )
    return results


def dynkin_check(
    kernel: SemiMarkovKernel,
    tf,
    start,
    t: float,
    n_paths: int,
    seed: int,
    layout: Optional[MarkLayout] = None,
    control: Optional[tuple[int, int]] = None,
    transaction_cost: float = 0.0,
    include_small_orders: bool = True,
    segment_subdiv: int = 4,
) -> DynkinResult:
    """Check E[psi(Z_t)] - psi(z_0) - E[integral of the generator] = 0.

    Without a ``control`` the uncontrolled triple is simulated by renewal
    sampling.  With a constant control (and a layout) the controlled state
    including cash and inventory is simulated by thinning, and the generator
    gains the small-order terms; ``include_small_orders=False`` deliberately
    drops them, which must break the identity for inventory-sensitive
    functions (negative control).
    """
    return dynkin_battery(
        kernel,
        [tf],
        start,
        t,
        n_paths,
        seed,
        layout=layout,
        control=control,
        transaction_cost=transaction_cost,
        include_small_orders=include_small_orders,
        segment_subdiv=segment_subdiv,
    )[0]
