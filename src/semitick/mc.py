"""Monte-Carlo oracles: the expectation representation of terminal-value
solutions, and generator (Dynkin) consistency checks for the uncontrolled and
controlled processes.

Every path draws from its own stream ``path_rng(seed, index)``, so the
draws do not depend on how paths are grouped.  Paths come in blocks of
segment columns, 1,024 paths at a time or fewer, from the block engine of
``simulate``: ``renewal_blocks`` or ``thinning_blocks``.  On a segment the
price and direction are constant and the age grows at unit slope, so
running-cost integrals use the composite Simpson rule the solver uses, with
the age varying along the segment.  All nodes of all segments of a block in
one direction state are evaluated in one call, and the segment integrals are
summed back to their paths, in segment order, with ``np.bincount``.  Under a
control, each segment's cash and inventory are per-path ``np.cumsum``s of the
earlier fills, starting from the initial agent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional, Sequence

import numpy as np

from .hazards import (
    BIG,
    BigJump,
    MarkLayout,
    SemiMarkovKernel,
    SmallOrder,
    alpha,
    equivalent,
    successors,
)
from .simulate import order_fill, renewal_blocks, thinning_blocks
from .solver import _simpson_weights

__all__ = [
    "McEstimate",
    "estimate_terminal_value",
    "z_score",
    "TestFunction",
    "battery_uncontrolled",
    "battery_controlled",
    "DynkinResult",
    "dynkin_battery",
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


def _check_run(horizon: float, n_paths: int, segment_subdiv: int) -> None:
    """Argument checks shared by both oracles."""
    if not math.isfinite(horizon):
        raise ValueError(f"the horizon must be finite, got {horizon!r}")
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    even = isinstance(segment_subdiv, (int, np.integer)) and segment_subdiv % 2 == 0
    if not even or segment_subdiv < 2:
        raise ValueError(f"segment_subdiv must be a positive even integer, got {segment_subdiv!r}")


def _integrate(node_values: np.ndarray, t0: np.ndarray, t1: np.ndarray, weights) -> np.ndarray:
    """Composite Simpson integrals over segments ``[t0, t1)`` from the values
    at their nodes, laid out as (..., segment, node)."""
    return (node_values @ weights) * (t1 - t0) / (3.0 * (len(weights) - 1))


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

    ``start`` is (t, price, state, age); renewal paths run from that time to
    the finite horizon.  ``g`` maps an array of terminal prices to values.
    ``w(t, p, i, s)`` has the contract of ``solver.ProblemSpec``: it
    broadcasts over arrays of ``t``, ``p`` and ``s`` with a scalar state
    ``i``.  It is evaluated at left limits, where on each inter-jump segment
    the price and state are constant and the age grows linearly; each block
    of paths calls it once per state present, on every Simpson node of every
    segment in that state.
    """
    _check_run(horizon, n_paths, segment_subdiv)
    if not 0.0 <= start[0] <= horizon:
        raise ValueError("start time must lie in [0, horizon]")
    weights = _simpson_weights(segment_subdiv, 3.0)
    values = np.empty(n_paths)
    for lo, path, last, (t0, t1, p, i, s0, _, _) in renewal_blocks(
        kernel, start, horizon, n_paths, seed
    ):
        end_p = p[last]
        total = np.broadcast_to(np.asarray(g(end_p), dtype=float), end_p.shape)
        if w is not None:
            ts = np.linspace(t0, t1, segment_subdiv + 1, axis=-1)
            ages = s0[:, None] + (ts - t0[:, None])
            node_w = np.empty(ts.shape)
            for state in np.unique(i).tolist():
                rows = i == state
                node_w[rows] = w(ts[rows], p[rows, None], int(state), ages[rows])
            total = total + np.bincount(path, weights=_integrate(node_w, t0, t1, weights))
        values[lo : lo + len(total)] = total
    return McEstimate.from_values(values, seed)


# -- generator checks --------------------------------------------------------


def _bump(s, center: float, width: float):
    """Smooth compactly-supported bump on (center - width, center + width)."""
    u2 = ((np.asarray(s, dtype=float) - center) / width) ** 2
    inside = u2 < 1.0
    return np.where(inside, np.exp(1.0 - 1.0 / (1.0 - np.where(inside, u2, 0.0))), 0.0)


def _bump_ds(s, center: float, width: float):
    u = (np.asarray(s, dtype=float) - center) / width
    inside = u * u < 1.0
    om = 1.0 - np.where(inside, u * u, 0.0)
    return np.where(inside, np.exp(1.0 - 1.0 / om) * (-2.0 * u / (om * om)) / width, 0.0)


@dataclass(frozen=True)
class TestFunction:
    """Smooth, age-compactly-supported test function with analytic age slope.

    ``psi`` and ``dpsi_ds`` take ``(p, i, s)`` on the uncontrolled state and
    ``(p, i, s, x, y)``, with cash ``x`` and inventory ``y``, on the
    controlled one; both must broadcast over arrays of every argument.
    """

    __test__ = False  # not a pytest class despite the name

    name: str
    psi: Callable
    dpsi_ds: Callable


def _product(name: str, g: Callable, center: float, width: float) -> TestFunction:
    """psi = g(p, i, *xy) * bump(s), with ``xy`` empty or (cash, inventory)."""
    return TestFunction(
        name,
        psi=lambda p, i, s, *xy: g(p, i, *xy) * _bump(s, center, width),
        dpsi_ds=lambda p, i, s, *xy: g(p, i, *xy) * _bump_ds(s, center, width),
    )


def battery_uncontrolled(horizon: float, p_scale: float = 1.0) -> list[TestFunction]:
    """Fixed battery mixing bounded price factors, state indicators, and bumps."""
    w1, w2, w3 = 1.6 * horizon, 1.1 * horizon, 2.2 * horizon
    return [
        _product("age_bump", lambda p, i: 1.0, 0.0, w1),
        _product("price_ratio_bump", lambda p, i: p / (1.0 + p), 0.4 * horizon, w2),
        _product("class_indicator", lambda p, i: np.where(equivalent(i, 1), 1.0, 0.0), 0.0, w2),
        _product(
            "signed_price", lambda p, i: alpha(i) * p / (1.0 + p), 0.2 * horizon, w1
        ),
        _product("price_wave", lambda p, i: np.cos(p / p_scale), 0.0, w3),
    ]


def battery_controlled(horizon: float, p_scale: float = 1.0) -> list[TestFunction]:
    w1, w2 = 1.6 * horizon, 2.0 * horizon
    # the inventory bell is even in y, so symmetric order flow cannot cancel
    # its generator terms: the right pick for the ablation negative control
    return [
        _product("inventory_bell", lambda p, i, x, y: np.exp(-((y / 3.0) ** 2)), 0.0, w1),
        _product("inventory_tanh", lambda p, i, x, y: np.tanh(y / 3.0), 0.0, w1),
        _product("cash_tanh", lambda p, i, x, y: np.tanh(x / (5.0 * p_scale)), 0.0, w2),
        _product(
            "joint",
            lambda p, i, x, y: alpha(i) * np.tanh(y / 2.0) * p / (1.0 + p),
            0.3 * horizon,
            w1,
        ),
        _product(
            "wealth_mark", lambda p, i, x, y: np.tanh((x + y * p) / (4.0 * p_scale)), 0.0, w2
        ),
    ]


def _events_unc(kernel, p, i, ages):
    """Big jumps out of state ``i``: (intensity at the nodes, state after)."""
    return [
        (kernel.directed_intensity(i, j, ages), (p * (1.0 + kernel.delta * alpha(j)), j, 0.0))
        for j in successors(i)
    ]


def _events_ctl(kernel, layout, cost, control, include_small, p, i, ages, x, y):
    """Big jumps out of state ``i`` and, on quoted sides unless excluded,
    small orders, with the agent's fills: (intensity at the nodes, state after)."""
    events = []
    for j in successors(i):
        d = alpha(j)
        if include_small and (control[0] if d > 0 else control[1]):
            flow = layout.side_flow(d).value(ages)
            for units, prob in enumerate(layout.side_sizes(d)):
                if units and prob:
                    _, dx, dy, _ = order_fill(
                        SmallOrder(d, units), control, layout.max_units, p, kernel.delta, cost
                    )
                    events.append((prob * flow, (p, i, ages, x + dx, y + dy)))
        _, dx, dy, _ = order_fill(BigJump(j), control, layout.max_units, p, kernel.delta, cost)
        events.append((
            kernel.directed_intensity(i, j, ages),
            (p * (1.0 + kernel.delta * d), j, 0.0, x + dx, y + dy),
        ))
    return events


def _running(path, last, rows, d, init) -> np.ndarray:
    """The holdings on every row of a block, (row, holding): ``init`` plus
    the rows of ``d`` added at the rows ``rows`` (a mask or indices) of its
    path before it, as a per-path ``np.cumsum``, so bit for bit a replay's
    running sums."""
    first = np.flatnonzero(np.append(True, last[:-1]))
    pos = np.arange(len(path)) - first[path]
    acc = np.zeros((len(first), int(pos.max()) + 2, len(init)))
    acc[:, 0] = init
    acc[path[rows], pos[rows] + 1] = d
    return np.cumsum(acc, axis=1)[path, pos]


def _controlled_blocks(kernel, layout, start, t, n_paths, seed, agent, control, cost):
    """Thinning blocks with columns (t0, t1, p, i, s0, cash, inventory) under
    a constant control, each fill settled at its event."""
    for lo, path, last, (t0, t1, p, i, s0, _, code) in thinning_blocks(
        kernel, layout, start, t, n_paths, seed
    ):
        fill = code >= BIG
        _, dx, dy, _ = order_fill(code[fill], control, layout.max_units, p[fill], kernel.delta,
                                  cost)
        x, y = _running(path, last, fill, np.stack([dx, dy], 1), (agent.cash, agent.inventory)).T
        yield lo, path, last, (t0, t1, p, i, s0, x, y)


@dataclass(frozen=True)
class DynkinResult:
    """Standardised martingale defect of one test function."""

    name: str
    z: float
    mean: float
    se: float
    n_paths: int


def dynkin_battery(
    kernel: SemiMarkovKernel,
    tfs: Sequence[TestFunction],
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
    """Check E[psi(Z_t)] - psi(z_0) - E[integral of the generator] = 0 for
    several test functions on shared paths.

    Each path is simulated once to the finite time ``t``.  On every block of
    paths, each function's generator (its age slope plus, per event, the
    event's intensity times the jump in psi) is evaluated at every Simpson
    node of every segment, one call per direction state present, and
    integrated per path.  The test functions must broadcast over arrays of
    all their arguments.

    Without a ``control`` the uncontrolled triple is simulated by renewal
    sampling.  With a constant control (and a layout) the controlled state
    including cash and inventory is simulated by thinning, and the generator
    gains the small-order terms; ``include_small_orders=False`` deliberately
    drops them, which must break the identity for inventory-sensitive
    functions (negative control).
    """
    _check_run(t, n_paths, segment_subdiv)
    if t <= 0:
        raise ValueError("the check horizon must be positive")
    if control is not None and layout is None:
        raise ValueError("controlled checks need the mark layout")
    market, agent = (start, None) if control is None else start
    start_seg = (0.0, market.price, market.state, market.age)
    if control is None:
        agent_xy = ()
        blocks = (
            (lo, path, last, columns[:5])
            for lo, path, last, columns in renewal_blocks(kernel, start_seg, t, n_paths, seed)
        )
        events = partial(_events_unc, kernel)
    else:
        agent_xy = (agent.cash, agent.inventory)
        blocks = _controlled_blocks(
            kernel, layout, start_seg, t, n_paths, seed, agent, control, transaction_cost
        )
        events = partial(_events_ctl, kernel, layout, transaction_cost, control,
                         include_small_orders)

    weights = _simpson_weights(segment_subdiv, 3.0)
    frac = np.linspace(0.0, 1.0, segment_subdiv + 1)
    psi0 = [tf.psi(market.price, market.state, market.age, *agent_xy) for tf in tfs]
    values = np.empty((len(tfs), n_paths))
    for lo, path, last, (t0, t1, p, i, s0, *xy) in blocks:
        ages = s0[:, None] + (t1 - t0)[:, None] * frac
        generator = np.empty((len(tfs),) + ages.shape)
        for state in np.unique(i).tolist():
            rows = i == state
            here = (p[rows, None], state, ages[rows], *(c[rows, None] for c in xy))
            moves = events(*here)
            for q, tf in enumerate(tfs):
                psi_here = tf.psi(*here)
                generator[q, rows] = tf.dpsi_ds(*here) + sum(
                    rate * (tf.psi(*after) - psi_here) for rate, after in moves
                )
        acc = _integrate(generator, t0, t1, weights)
        end = (p[last], i[last], (s0 + (t1 - t0))[last], *(c[last] for c in xy))
        for q, tf in enumerate(tfs):
            values[q, lo : lo + len(end[0])] = (
                tf.psi(*end) - psi0[q] - np.bincount(path, weights=acc[q])
            )
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
