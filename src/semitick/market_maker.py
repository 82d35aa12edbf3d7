"""Risk-neutral market-making layer: per-side quote gain rates, the greedy
optimal policy, the quoting-premium value solve, closed-form portfolio values,
the a-priori utility bound, and policy backtesting.

The marginal gain rate of quoting the side toward successor ``j`` combines the
small-order flow earning the half-spread against the expected terminal price
with the big-order term earning the post-jump edge.  The published form prices
the half-spread as ``delta - cost`` per unit; the portfolio accounting of the
simulator implies ``price*delta - cost`` instead, and both variants are
available behind ``MarketMakingSpec.portfolio_consistent`` (default off, the
published form).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .hazards import STATES, MarkLayout, SemiMarkovKernel, alpha, successors
from .mc import McEstimate
from .simulate import (
    NO_EVENT,
    AgentState,
    AlwaysQuotePolicy,
    AskOnlyPolicy,
    BidOnlyPolicy,
    HoldPolicy,
    MarketState,
    RandomQuotePolicy,
    order_fill,
    path_rng,
    thinning_segments,
)
from .solver import (
    GridSpec,
    ProblemSpec,
    ValueField,
    _interp_time,
    _write_rows,
    characteristic_slices,
    extension_slice,
    solve_fixed_point,
)

__all__ = [
    "MarketMakingSpec",
    "UnsupportedRiskAversion",
    "QuoteGainSource",
    "quote_gain_rate",
    "OptimalQuotePolicy",
    "optimal_policy",
    "solve_quote_value",
    "total_value",
    "holding_value",
    "value_upper_bound",
    "default_baselines",
    "BacktestRow",
    "BacktestReport",
    "backtest",
    "export_policy_csv",
]

_STATE_INDEX = {s: k for k, s in enumerate(STATES)}
# policy.csv tails "quote_ask,quote_bid" indexed by 2 * ask bit + bid bit
_QUOTE_BITS = ("0,0", "0,1", "1,0", "1,1")
# paths simulated before each policy is called once on all of their events
_BACKTEST_BLOCK = 256


class UnsupportedRiskAversion(ValueError):
    """Only the risk-neutral case has a closed policy; positive aversion is refused."""


@dataclass(frozen=True)
class MarketMakingSpec:
    """Agent parameters: big execution size, fixed per-trade cost, aversion.

    ``portfolio_consistent`` switches the quote gain rate from the published
    per-unit edge ``delta - cost`` to the accounting-consistent
    ``price*delta - cost``.
    """

    big_size: int
    transaction_cost: float
    risk_aversion: float = 0.0
    portfolio_consistent: bool = False

    def __post_init__(self):
        if self.big_size < 1 or int(self.big_size) != self.big_size:
            raise ValueError("big order size must be a positive integer")
        if self.transaction_cost < 0:
            raise ValueError("transaction cost must be >= 0")
        if self.risk_aversion < 0:
            raise ValueError("risk aversion must be >= 0")

    def require_risk_neutral(self, what: str) -> None:
        if self.risk_aversion != 0.0:
            raise UnsupportedRiskAversion(
                f"{what} is only available for zero risk aversion; "
                f"got {self.risk_aversion}"
            )


class QuoteGainSource:
    """Per-side quote gain rates and the running source sum(max(rate, 0)).

    Serves two callers: grid slabs for the quoting-premium solve (streamed
    from one characteristic sweep of the expected-price field, or one
    age-free source when everything is flat) and pointwise evaluation along
    simulated paths, which broadcasts over arrays of points.
    """

    def __init__(
        self,
        kernel: SemiMarkovKernel,
        layout: MarkLayout,
        mmspec: MarketMakingSpec,
        price_field: ValueField,
    ):
        if layout.max_units != mmspec.big_size:
            raise ValueError(
                f"layout trades up to {layout.max_units} units but the agent "
                f"spec says big size {mmspec.big_size}"
            )
        self.kernel = kernel
        self.layout = layout
        self.mmspec = mmspec
        self.field = price_field
        self.lattice = price_field.lattice
        self._locate_cache: dict[float, int] = {}
        self._img = {
            +1: self.lattice.image_maps(+1),
            -1: self.lattice.image_maps(-1),
        }
        # age-zero expected price at the jump image, per (direction, target state)
        self._img_core = {}
        for i in STATES:
            for j in successors(i):
                d = alpha(j)
                key = (d, j)
                if key not in self._img_core:
                    idx, scale = self._img[d]
                    self._img_core[key] = price_field.core[:, idx, _STATE_INDEX[j]] * scale[None, :]
        self._age_free = price_field.age_invariant and layout.is_memoryless

    def _price_slice(self, age: float) -> np.ndarray:
        """Expected-price values on the (time, node, state) grid at one age."""
        if self.field.age_invariant or age == 0.0:
            return self.field.core
        return extension_slice(self.field, age)

    def _edge(self, prices: np.ndarray):
        if self.mmspec.portfolio_consistent:
            return prices * self.kernel.delta - self.mmspec.transaction_cost
        return self.kernel.delta - self.mmspec.transaction_cost

    def gain_rates_at_age(self, age: float) -> dict:
        """Gain-rate arrays (time, node) for every transition (i, j) at one age."""
        return dict(self._gain_rates(age, self._price_slice(age)))

    def _gain_rates(self, age: float, pi_rows: np.ndarray, first: int = 0):
        """Yield ((i, j), rates on time nodes >= first) one transition at a
        time, from the expected price ``pi_rows`` at ``age`` on those nodes,
        so a caller that folds them holds one array, not all eight."""
        prices = self.lattice.prices[None, :]
        edge = self._edge(prices)
        big = self.mmspec.big_size
        for i in STATES:
            ii = _STATE_INDEX[i]
            for j in successors(i):
                d = alpha(j)
                flow = self.layout.side_flow(d).value(age) * self.layout.mean_size(d)
                h_dir = (
                    self.kernel.continuation.value(age)
                    if alpha(i) == d
                    else self.kernel.reversal.value(age)
                )
                small = flow * (d * (prices - pi_rows[:, :, ii]) + edge)
                large = h_dir * big * (d * (prices - self._img_core[(d, j)][first:]) + edge)
                yield (i, j), small + large

    def slab(self, d: int, pi_rows: np.ndarray) -> np.ndarray:
        """Source values at age ``d*h`` on every (time node >= d, lattice node,
        state), from the expected price ``pi_rows`` at that age on those nodes."""
        if self._age_free:
            # one source serves every age: slab d is its tail from time node d on
            return self._age_free_source[d:]
        h = self.field.t_grid[1] - self.field.t_grid[0]
        return self._source_rows(self._gain_rates(d * h, pi_rows, d), d)

    def slabs(self):
        """Yield ``(d, slab(d))`` for every age node, for the quoting-premium solve."""
        core = self.field.core
        if self.field.age_invariant:
            for d in range(len(self.field.t_grid)):
                yield d, self.slab(d, core[d:])
            return
        for d, pi_rows in characteristic_slices(self.field):
            # age zero reads the iterated core, as _price_slice does
            yield d, self.slab(d, core if d == 0 else pi_rows)

    def _source_rows(self, rates, d: int) -> np.ndarray:
        """Per-state sum of max(rate, 0) over ((i, j), rates) pairs, nodes >= d."""
        out = np.zeros((len(self.field.t_grid) - d, self.lattice.n_nodes, len(STATES)))
        for (i, _), rates_ij in rates:
            out[:, :, _STATE_INDEX[i]] += np.maximum(rates_ij, 0.0)
        return out

    @cached_property
    def _age_free_rates(self) -> dict:
        # with flat hazards and flat flow the gain rates are age free and
        # affine in the core columns, so their grid values interpolate exactly
        return self.gain_rates_at_age(0.0)

    @cached_property
    def _age_free_source(self) -> np.ndarray:
        return self._source_rows(self._gain_rates(0.0, self.field.core), 0)

    def _nodes(self, p) -> np.ndarray:
        """Lattice nodes of an array of prices; each distinct price is located
        once, and an off-lattice price is refused by name."""
        p = np.asarray(p, dtype=float)
        if p.ndim == 0:
            nodes = np.asarray(self._node(float(p)))
        else:
            uniq, inverse = np.unique(p, return_inverse=True)
            located = np.array([self._node(price) for price in uniq.tolist()], dtype=int)
            nodes = located[inverse].reshape(p.shape)
        if (nodes < 0).any():
            bad = p.ravel()[np.argmax(nodes.ravel() < 0)]
            raise ValueError(
                f"price {float(bad)!r} is not on the expected-price lattice "
                f"(anchor {self.lattice.p0!r}, delta {self.lattice.delta!r})"
            )
        return nodes

    def _node(self, price: float) -> int:
        """Cached lattice node of one price, -1 when it is off the lattice."""
        node = self._locate_cache.get(price)
        if node is None:
            try:
                node = self._locate_cache[price] = self.lattice.locate(price)
            except KeyError:
                return -1
        return node

    def rate_point(self, t, p, i, s, j):
        """Gain rate of quoting toward ``j``; broadcasts over all five arguments."""
        t, p, s = (np.asarray(x, dtype=float) for x in (t, p, s))
        i, j = np.asarray(i), np.asarray(j)
        same_class = (i <= 2) == (j <= 2)
        if np.any(same_class):
            i, j, same_class = np.broadcast_arrays(i, j, same_class)
            q = np.argmax(same_class)
            raise ValueError(
                f"invalid transition {i.flat[q]} -> {j.flat[q]}: states are equivalent"
            )
        rising = j % 2 == 0  # alpha(j) > 0
        d = np.where(rising, 1, -1)
        node = self._nodes(p)
        pi_here = self.field.read(t, node, i, s)
        (up_idx, up_scale), (down_idx, down_scale) = self._img[+1], self._img[-1]
        img = np.where(rising, up_idx[node], down_idx[node])
        pi_img = self.field.read(t, img, j, 0.0) * np.where(
            rising, up_scale[node], down_scale[node]
        )
        edge = self._edge(p)
        layout, kernel = self.layout, self.kernel
        flow = np.where(
            rising,
            layout.ask_flow.value(s) * layout.mean_size(+1),
            layout.bid_flow.value(s) * layout.mean_size(-1),
        )
        h_dir = np.where(
            rising == (i % 2 == 0), kernel.continuation.value(s), kernel.reversal.value(s)
        )
        small = flow * (d * (p - pi_here) + edge)
        large = h_dir * self.mmspec.big_size * (d * (p - pi_img) + edge)
        return (small + large)[()]

    def __call__(self, t, p, i: int, s):
        """Running source: sum over successors of max(gain rate, 0);
        broadcasts over ``t``, ``p`` and ``s``."""
        total = 0.0
        if self._age_free:
            node = self._nodes(p)
            for j in successors(i):
                rate = _interp_time(self.field.t_grid, t, self._age_free_rates[(i, j)], node)
                total = total + np.maximum(rate, 0.0)
            if np.ndim(s) == 0:
                return total
            return np.broadcast_to(total, np.broadcast_shapes(np.shape(total), np.shape(s)))
        for j in successors(i):
            total = total + np.maximum(self.rate_point(t, p, i, s, j), 0.0)
        return total


def quote_gain_rate(
    kernel: SemiMarkovKernel,
    layout: MarkLayout,
    mmspec: MarketMakingSpec,
    price_field: ValueField,
    t: float,
    p: float,
    i: int,
    s: float,
    j: int,
) -> float:
    """Marginal expected gain rate of quoting the side toward successor ``j``."""
    if price_field is None:
        raise ValueError("expected-price field must be solved first")
    source = QuoteGainSource(kernel, layout, mmspec, price_field)
    return float(source.rate_point(t, p, i, s, j))


@dataclass
class OptimalQuotePolicy:
    """Quote a side exactly when its gain rate is strictly positive.

    The ask bit follows the successor moving the price up, the bid bit the
    one moving it down; a zero rate leaves the side unquoted.
    """

    source: QuoteGainSource
    name: str = "optimal"

    def __call__(self, t, p, i, s):
        """(ask bit, bid bit): ints at scalar arguments, int arrays at
        equal-length arrays of (t, p, i, s), from one rate evaluation."""
        t, p, i, s = np.broadcast_arrays(
            np.asarray(t, dtype=float), np.asarray(p, dtype=float), i, np.asarray(s, dtype=float)
        )
        # successors are (3, 4) or (1, 2): the even one moves the price up;
        # the ages span both successors, one point per rate evaluated
        up = np.where(i <= 2, 4, 2)
        pair = (2,) + t.shape
        rates = self.source.rate_point(
            t, p, i, np.broadcast_to(s, pair), np.stack([up, up - 1])
        )
        l_ask, l_bid = np.broadcast_to(rates, pair) > 0.0
        if t.ndim == 0:
            return (int(l_ask), int(l_bid))
        return (l_ask.astype(int), l_bid.astype(int))


def optimal_policy(
    kernel: SemiMarkovKernel,
    layout: MarkLayout,
    mmspec: MarketMakingSpec,
    price_field: ValueField,
) -> OptimalQuotePolicy:
    mmspec.require_risk_neutral("the optimal quoting policy")
    return OptimalQuotePolicy(QuoteGainSource(kernel, layout, mmspec, price_field))


def solve_quote_value(
    kernel: SemiMarkovKernel,
    layout: MarkLayout,
    mmspec: MarketMakingSpec,
    price_field: ValueField,
    grid: Optional[GridSpec] = None,
) -> ValueField:
    """Expected optimal quoting premium: zero payoff, source sum(max(rate, 0)).

    Shares the expected-price field's time grid and lattice so the source can
    be streamed, one age at a time, from a characteristic sweep of that
    field.  The result is nonnegative and vanishes at the horizon.
    """
    mmspec.require_risk_neutral("the quoting premium")
    n_t = len(price_field.t_grid) - 1
    if grid is None:
        grid = GridSpec(n_t=n_t, n_max=price_field.lattice.n_max)
    if grid.n_t != n_t or (grid.n_max or price_field.lattice.n_max) != price_field.lattice.n_max:
        raise ValueError("quote-value grid must match the expected-price grid")
    if grid.n_max is None:
        grid = replace(grid, n_max=price_field.lattice.n_max)
    source = QuoteGainSource(kernel, layout, mmspec, price_field)
    problem = ProblemSpec(g=lambda p: np.zeros_like(np.asarray(p, dtype=float)), w=source)
    fld = solve_fixed_point(
        kernel, problem, grid, price_field.horizon, price_field.lattice.p0,
        source=source.slabs(),
        lattice=price_field.lattice,
    )
    fld.age_invariant = layout.is_memoryless
    return fld


def total_value(
    price_field: ValueField,
    quote_field: ValueField,
    t: float,
    p: float,
    i: int,
    s: float,
    x: float,
    y: float,
) -> float:
    """Risk-neutral optimal portfolio value: cash + inventory marked at the
    expected terminal price + the quoting premium."""
    return x + y * price_field.eval(t, p, i, s) + quote_field.eval(t, p, i, s)


def holding_value(
    price_field: ValueField,
    t: float,
    p: float,
    i: int,
    s: float,
    x: float,
    y: float,
    risk_aversion: float = 0.0,
) -> float:
    """Value of never quoting again: cash + marked inventory - aversion * y**2."""
    return x + y * price_field.eval(t, p, i, s) - risk_aversion * y * y


def value_upper_bound(
    mmspec: MarketMakingSpec,
    kernel: SemiMarkovKernel,
    layout: MarkLayout,
    t: float,
    p: float,
    x: float,
    y: float,
    horizon: float,
) -> float:
    """A-priori bound on the achievable expected portfolio value.

    Every fill improves the portfolio by at most K*(p*delta + cost) at the
    then-current price, and fills are dominated by a Poisson stream with rate
    2*(K+1)*max(intensity bounds).  At zero tick size the geometric factor
    degenerates and the bound is reported in its series-limit form.
    """
    tau = horizon - t
    if tau < 0:
        raise ValueError("evaluation time is beyond the horizon")
    big = mmspec.big_size
    c = 2.0 * (big + 1) * max(kernel.intensity_bound, layout.flow_bound)
    delta = kernel.delta
    if delta > 0:
        growth = big * p * (1.0 + delta) / delta * math.expm1(c * tau * delta)
    else:
        growth = big * p * (1.0 + delta) * c * tau
    return x + y * p + growth + big * c * tau * mmspec.transaction_cost


def default_baselines(random_seed: int = 7) -> list:
    """The fixed comparison set: hold, both sides, each single side, a coin flip."""
    return [
        HoldPolicy(),
        AlwaysQuotePolicy(),
        AskOnlyPolicy(),
        BidOnlyPolicy(),
        RandomQuotePolicy(prob=0.5, seed=random_seed),
    ]


@dataclass(frozen=True)
class BacktestRow:
    policy: str
    mean: float
    se: float
    n_paths: int


@dataclass
class BacktestReport:
    rows: list[BacktestRow]
    upper_bound: float
    horizon: float
    seed: int
    risk_aversion: float

    def row(self, name: str) -> BacktestRow:
        for r in self.rows:
            if r.policy == name:
                return r
        raise KeyError(name)

    def to_csv(self, path, header_meta: Optional[dict] = None) -> None:
        with open(path, "w") as fh:
            meta = {"seed": self.seed, "upper_bound": self.upper_bound}
            if header_meta:
                meta.update(header_meta)
            fh.write("# " + json.dumps(meta, sort_keys=True) + "\n")
            fh.write("policy,mean,se,n_paths,upper_bound\n")
            for r in self.rows:
                fh.write(
                    f"{r.policy},{float(r.mean)!r},{float(r.se)!r},{r.n_paths},"
                    f"{float(self.upper_bound)!r}\n"
                )

    def to_json(self, path=None):
        payload = {
            "seed": self.seed,
            "horizon": self.horizon,
            "risk_aversion": self.risk_aversion,
            "upper_bound": self.upper_bound,
            "rows": [
                {"policy": r.policy, "mean": r.mean, "se": r.se, "n_paths": r.n_paths}
                for r in self.rows
            ],
        }
        if path is None:
            return payload
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
        return payload


def backtest(
    policies: Sequence,
    kernel: SemiMarkovKernel,
    layout: MarkLayout,
    mmspec: MarketMakingSpec,
    initial_market: MarketState,
    initial_agent: AgentState,
    horizon: float,
    n_paths: int,
    seed: int,
) -> BacktestReport:
    """Monte-Carlo comparison of terminal utility across policies.

    All policies are replayed against the same market realisations (the
    market ignores the agent, so the event stream is policy independent);
    this shares the randomness and sharpens the comparison.  Per-path streams
    are derived from (seed, path index) and aggregation is pairwise, so the
    table does not depend on execution order.  Each policy is called once
    per block of paths, on the arrays (t, p, i, s) of the block's events, and
    returns its (ask, bid) bits as arrays or as scalars that broadcast.
    """
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    start = (0.0, initial_market.price, initial_market.state, initial_market.age)
    eta = mmspec.risk_aversion
    values = np.empty((len(policies), n_paths))
    for first in range(0, n_paths, _BACKTEST_BLOCK):
        block = range(first, min(first + _BACKTEST_BLOCK, n_paths))
        # a fill depends on the policy only through the quote bit of its
        # side, so each event is settled once and every policy replays it
        events, bounds, terminal = [], [0], []
        for idx in block:
            for _, t1, p, i, _, s1, mark in thinning_segments(
                kernel, layout, start, horizon, path_rng(seed, idx)
            ):
                if mark is not None and mark is not NO_EVENT:
                    side, d_cash, d_inv, _, _ = order_fill(
                        mark, (1, 1), layout.max_units, p, kernel.delta, mmspec.transaction_cost
                    )
                    events.append((t1, p, i, s1, side > 0, d_cash, d_inv))
            bounds.append(len(events))
            terminal.append(p)
        t_ev, p_ev, i_ev, s_ev, ask_side, d_cash, d_inv = list(zip(*events)) or [()] * 7
        args = (np.array(t_ev, dtype=float), np.array(p_ev, dtype=float),
                np.array(i_ev, dtype=int), np.array(s_ev, dtype=float))
        for pi_idx, policy in enumerate(policies):
            l_ask, l_bid = policy(*args)
            quoted = np.where(np.array(ask_side, dtype=bool), l_ask, l_bid).tolist()
            for q, idx in enumerate(block):
                x, y = initial_agent.cash, initial_agent.inventory
                for e in range(bounds[q], bounds[q + 1]):
                    if quoted[e]:
                        x += d_cash[e]
                        y += d_inv[e]
                values[pi_idx, idx] = x + terminal[q] * y - eta * y * y
    rows = []
    for pi_idx, policy in enumerate(policies):
        name = getattr(policy, "name", type(policy).__name__)
        est = McEstimate.from_values(values[pi_idx], seed)
        rows.append(BacktestRow(policy=name, mean=est.mean, se=est.se, n_paths=n_paths))
    bound = value_upper_bound(
        mmspec,
        kernel,
        layout,
        0.0,
        initial_market.price,
        initial_agent.cash,
        initial_agent.inventory,
        horizon,
    )
    return BacktestReport(
        rows=rows,
        upper_bound=bound,
        horizon=horizon,
        seed=seed,
        risk_aversion=eta,
    )


def export_policy_csv(
    path,
    kernel: SemiMarkovKernel,
    layout: MarkLayout,
    mmspec: MarketMakingSpec,
    price_field: ValueField,
    s_values: Optional[Sequence[float]] = None,
    header_meta: Optional[dict] = None,
) -> None:
    """Quote bits on the grid as (t, p, i, s, ask bit, bid bit) rows."""
    mmspec.require_risk_neutral("the optimal quoting policy")
    source = QuoteGainSource(kernel, layout, mmspec, price_field)
    if s_values is None:
        s_values = [0.0] if price_field.s_grid is None else list(
            np.linspace(0.0, price_field.s_grid[-1], 5)
        )
    keep = np.nonzero(price_field.lattice.report_mask)[0]
    p_txt = [repr(p) for p in price_field.lattice.prices[keep].tolist()]
    t_leads = [f"{t!r}," for t in map(float, price_field.t_grid)]
    with open(path, "w") as fh:
        meta = {"p0": price_field.lattice.p0, "delta": kernel.delta}
        if header_meta:
            meta.update(header_meta)
        fh.write("# " + json.dumps(meta, sort_keys=True) + "\n")
        fh.write("t,p,i,s,quote_ask,quote_bid\n")
        for s in map(float, s_values):
            rates = source._age_free_rates if source._age_free else source.gain_rates_at_age(s)
            for i in STATES:
                bits = {alpha(j): rates[(i, j)][:, keep] > 0.0 for j in successors(i)}
                codes = 2 * bits[1] + bits[-1]
                heads = [f"{p},{i},{s!r}," for p in p_txt]
                for ki, lead in enumerate(t_leads):
                    _write_rows(fh, lead, heads, map(_QUOTE_BITS.__getitem__, codes[ki].tolist()))
