"""Risk-neutral market-making layer: per-side quote gain rates, the greedy
optimal policy, the quoting-premium value solve, closed-form portfolio values,
the a-priori utility bound, and policy backtesting.

Gain rates are per side, on the successor slots of ``hazards.SLOT_MOVES``:
slot 0 is the down move, the bid side, and slot 1 the up move, the ask side.
The marginal gain rate of quoting a side combines the small-order flow earning
the half-spread against the expected terminal price with the big-order term
earning the post-jump edge toward that slot's successor.  The published form
prices the half-spread as ``delta - cost`` per unit; the portfolio accounting
of the simulator implies ``price*delta - cost`` instead, and both variants are
available behind ``MarketMakingSpec.portfolio_consistent`` (default off, the
published form).
"""

from __future__ import annotations

import json
import math
import os
import threading
from dataclasses import dataclass
from functools import cached_property, partial
from typing import Optional, Sequence

import numpy as np

from .hazards import BIG, SLOT_MOVES, STATES, MarkLayout, SemiMarkovKernel, alpha, direction_index
from .mc import McEstimate, _running
from .simulate import (
    AgentState,
    FixedQuotePolicy,
    MarketState,
    RandomQuotePolicy,
    order_fill,
    thinning_blocks,
)
from .solver import (
    GridSpec,
    ProblemSpec,
    ValueField,
    _CharacteristicSweep,
    _slot_images,
    extension_slice,
    solve_fixed_point,
)

__all__ = [
    "MarketMakingSpec",
    "UnsupportedRiskAversion",
    "QuoteGainSource",
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
    "backtest_against_baselines",
    "export_policy_csv",
]

# fewest lattice nodes in a block of the source integral: a block pays about
# 60 us of interpreter time per age, under the interpreter lock, which a
# narrower block would not earn back on many CPUs
_MIN_BLOCK_NODES = 32
# policy.csv tails "quote_ask,quote_bid" indexed by 2 * ask bit + bid bit
_QUOTE_BITS = ("0,0", "0,1", "1,0", "1,1")


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

    Serves two callers: the quoting-premium solve, which takes the integrated
    source from :meth:`integrals`, and pointwise evaluation along simulated
    paths, which broadcasts over arrays of points.  Rates come per side, on a
    leading successor-slot axis: slot ``b`` moves the price by
    ``SLOT_MOVES[b]``, so slot 0 is the bid side and slot 1 the ask side.
    On the grid they are on (direction, time, node), as the field's core is;
    the grid-only :attr:`_big_edge` is built on first grid use.
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
        # jump-image indices and scales on (successor slot, lattice node)
        self._img_idx, self._img_scale = map(np.stack, zip(*_slot_images(self.lattice)))
        self._age_free = price_field.age_invariant and layout.is_memoryless

    @cached_property
    def _big_edge(self) -> list:
        """The big-order edge d * (price - age-zero expected price at the jump
        image) + edge per successor slot on (time, node), one gather per slot:
        the successor entered on slot b has direction b, so both directions
        share it.  Only its factor h_dir(age) * big_size depends on the age."""
        prices, core = self.lattice.prices, self.field.core
        return [
            d * (prices - core[b][:, idx] * scale) + self._edge(prices)
            for b, (d, idx, scale) in enumerate(zip(SLOT_MOVES, self._img_idx, self._img_scale))
        ]

    def _edge(self, prices: np.ndarray):
        if self.mmspec.portfolio_consistent:
            return prices * self.kernel.delta - self.mmspec.transaction_cost
        return self.kernel.delta - self.mmspec.transaction_cost

    def _age_terms(self, age: float) -> list:
        """``(flow, coef)`` per successor slot at one age: the small-order flow
        times its mean size, and h_dir(age) * big_size on (direction, 1, 1)."""
        cont, rev = self.kernel.continuation.value(age), self.kernel.reversal.value(age)
        big = self.mmspec.big_size
        terms = []
        for b, d in enumerate(SLOT_MOVES):
            flow = self.layout.side_flow(d).value(age) * self.layout.mean_size(d)
            coef = [(cont if a == b else rev) * big for a in range(len(SLOT_MOVES))]
            terms.append((flow, np.array(coef)[:, None, None]))
        return terms

    def _rates_into(self, out, scratch, b: int, flow, coef, pi, nodes, first: int):
        """Gain rate toward successor slot ``b`` on (direction, time rows
        ``first..n_t``, lattice nodes ``nodes``), from the expected price ``pi``
        there: flow * (d * (price - pi) + edge) + h_dir * big_size * big-order
        edge, with ``coef`` = h_dir * big_size per direction."""
        prices = self.lattice.prices[nodes]
        # d * (price - pi), where -(price - pi) is pi - price bit for bit
        if SLOT_MOVES[b] > 0:
            np.subtract(prices, pi, out=out)
        else:
            np.subtract(pi, prices, out=out)
        out += self._edge(prices)
        out *= flow
        out += np.multiply(self._big_edge[b][first:, nodes], coef, out=scratch)
        return out

    def gain_rates_at_age(self, age: float) -> np.ndarray:
        """Gain rates on the (successor slot, direction, time, node) grid at one age."""
        fld = self.field
        pi = fld.core if fld.age_invariant or age == 0.0 else extension_slice(fld, age)
        rates = np.empty((len(SLOT_MOVES),) + pi.shape)
        for b, (flow, coef) in enumerate(self._age_terms(age)):
            self._rates_into(rates[b], np.empty_like(pi), b, flow, coef, pi, slice(None), 0)
        return rates

    def integrals(self, q_source: np.ndarray) -> np.ndarray:
        """Integrated running source on the (direction, time, node) grid: over
        every age node d, the d-th diagonal of the survival-weighted
        quadrature matrix ``q_source`` times the source at age ``d*h`` on
        time nodes ``d..n_t``.

        The source is folded by :meth:`_fold_block`, one pass per block of
        lattice nodes (:func:`_node_blocks`; one block when the source is age
        free), each block on its own thread.
        Blocks write disjoint nodes and every element keeps its operations
        and their order, so the result does not depend on the number of
        blocks.  Every kernel, layout and payoff evaluation happens here, on
        the calling thread.
        """
        self._big_edge  # built here, on the calling thread, before any block reads it
        n_rows = len(self.field.t_grid)
        h = self.field.t_grid[1] - self.field.t_grid[0]
        terms = [self._age_terms(d * h) for d in range(1 if self._age_free else n_rows)]
        sweep = None if self.field.age_invariant else _CharacteristicSweep(self.field)
        core = self.field.core
        out = np.zeros(core.shape)
        n_nodes = self.lattice.n_nodes
        tasks = []
        # the age-free fold is one multiply-add per age, bound by memory
        # bandwidth, and measured slower on two threads than on one
        for lo, hi in [(0, n_nodes)] if self._age_free else _node_blocks(n_nodes):
            # every buffer is allocated here, on the calling thread (see
            # _CharacteristicSweep.rows)
            nodes = slice(lo, hi)
            ages = _price_ages(core[:, :, nodes], sweep, lo, hi)
            bufs = [np.empty((len(SLOT_MOVES), n_rows, hi - lo)) for _ in range(3)]
            tasks.append(partial(self._fold_block, out, q_source, terms, ages, bufs, nodes))
        _on_threads(tasks)
        return out

    def _fold_block(self, out, q_source, terms, ages, bufs, nodes) -> None:
        """Add the integrated source of the lattice nodes ``nodes`` to ``out``
        (direction, time, node): per ``(d, expected price)`` pair of ``ages``,
        the gain rates, max(rate, 0) summed over both successors and the
        diagonal fold in one pass, in the three (direction, time, node)
        buffers ``bufs``.  With flat hazards and flat flow one source serves
        every age: it is computed at age zero, and the one at age ``d*h`` is
        its tail from time node d on."""
        source, up, spare = bufs
        for d, pi in ages:
            n = pi.shape[1]
            if d == 0 or not self._age_free:
                for b, (buf, (flow, coef)) in enumerate(zip((source, up), terms[d])):
                    rate = self._rates_into(buf[:, :n], spare[:, :n], b, flow, coef, pi, nodes, d)
                    np.maximum(rate, 0.0, out=rate)
                source[:, :n] += up[:, :n]
            rows = source[:, d:] if self._age_free else source[:, :n]
            out[:, :n, nodes] += np.multiply(rows, q_source.diagonal(d)[:, None], out=up[:, :n])

    # the age-free source has no second path; kept, always None, for the
    # benchmark tracer, which patches this name (ROADMAP item 3)
    slab = None

    @cached_property
    def _age_free_rates(self) -> np.ndarray:
        # with flat hazards and flat flow the gain rates are age free and
        # affine in the core, so their grid values interpolate exactly
        return self.gain_rates_at_age(0.0)

    def rate_point(self, t, p, i, s):
        """Gain rates of quoting the bid side and the ask side, stacked on a
        leading axis in ``SLOT_MOVES`` order; broadcasts over all four
        arguments."""
        t, p, s = (np.asarray(x, dtype=float) for x in (t, p, s))
        node = self.lattice.locate(p)
        t, node, i, s = np.broadcast_arrays(t, node, np.asarray(i), s)
        slot = np.arange(len(SLOT_MOVES)).reshape((-1,) + (1,) * node.ndim)
        d = np.asarray(SLOT_MOVES)[slot]
        # the successor entered on slot b has direction b, as STATES[b] has
        j = np.broadcast_to(np.asarray(STATES)[slot], slot.shape[:1] + node.shape)
        # one read of the state's own point and both jump images, at age zero;
        # the read refuses a state outside STATES at its own point
        values = self.field.read(
            t, np.concatenate([node[None], self._img_idx[slot, node]]),
            np.concatenate([i[None], j]), np.concatenate([s[None], np.zeros(j.shape)]),
        )
        pi_here, pi_img = values[0], values[1:] * self._img_scale[slot, node]
        edge = self._edge(p)
        layout, kernel = self.layout, self.kernel
        flow = np.where(
            d > 0,
            layout.ask_flow.value(s) * layout.mean_size(+1),
            layout.bid_flow.value(s) * layout.mean_size(-1),
        )
        h_dir = np.where(d == alpha(i), kernel.continuation.value(s), kernel.reversal.value(s))
        small = flow * (d * (p - pi_here) + edge)
        large = h_dir * self.mmspec.big_size * (d * (p - pi_img) + edge)
        return (small + large)[()]

    def __call__(self, t, p, i: int, s):
        """Running source: sum over both sides of max(gain rate, 0), from one
        rate evaluation; broadcasts over ``t``, ``p`` and ``s``."""
        rates = self.rate_point(t, p, i, s)
        return (np.maximum(rates[0], 0.0) + np.maximum(rates[1], 0.0))[()]


def _price_ages(core, sweep, lo: int, hi: int):
    """``(d, expected price at age d*h on (direction, time rows d..n_t, node))``
    for every age node, on the (direction, time, node) core block ``core`` of
    lattice nodes ``lo..hi-1``: from the characteristic ``sweep``, or from the
    core of an age-invariant field when ``sweep`` is None.  Age zero reads the
    iterated core, as ``QuoteGainSource.gain_rates_at_age`` does."""
    if sweep is None:
        return ((d, core[:, d:]) for d in range(core.shape[1]))
    return ((d, core if d == 0 else pi) for d, pi in sweep.rows(lo, hi))


def _node_blocks(n_nodes: int) -> list:
    """``(lo, hi)`` bounds of contiguous blocks of the lattice nodes
    ``0..n_nodes-1``, one block per CPU this process may run on, as long as
    each block keeps ``_MIN_BLOCK_NODES`` nodes."""
    n_blocks = max(1, min(len(os.sched_getaffinity(0)), n_nodes // _MIN_BLOCK_NODES))
    return [(n_nodes * k // n_blocks, n_nodes * (k + 1) // n_blocks) for k in range(n_blocks)]


def _on_threads(tasks) -> None:
    """Run the callables ``tasks`` at once: the first on the calling thread,
    every other on a thread of its own.  numpy releases the interpreter lock
    inside its loops, so numpy work runs in parallel.  Once every task is
    done, the exception of the first task that failed is re-raised here."""
    errors = [None] * len(tasks)

    def run(k):
        try:
            tasks[k]()
        except BaseException as exc:  # re-raised on the calling thread below
            errors[k] = exc

    threads = [threading.Thread(target=run, args=(k,)) for k in range(1, len(tasks))]
    for thread in threads:
        thread.start()
    run(0)
    for thread in threads:
        thread.join()
    for exc in errors:
        if exc is not None:
            raise exc


@dataclass
class OptimalQuotePolicy:
    """Quote a side exactly when its gain rate is strictly positive.

    The ask bit reads the up-move slot, the bid bit the down-move slot; a zero
    rate leaves the side unquoted.
    """

    source: QuoteGainSource
    name: str = "optimal"

    def __call__(self, t, p, i, s):
        """(ask bit, bid bit): ints at scalar arguments, int arrays at
        equal-length arrays of (t, p, i, s), from one rate evaluation."""
        t, p, i, s = np.broadcast_arrays(
            np.asarray(t, dtype=float), np.asarray(p, dtype=float), i, np.asarray(s, dtype=float)
        )
        rates = self.source.rate_point(t, p, i, s)
        l_bid, l_ask = np.broadcast_to(rates, (len(SLOT_MOVES),) + t.shape) > 0.0
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

    Shares the expected-price field's time grid and lattice so the source
    integral can be folded from one characteristic sweep of that field
    (:meth:`QuoteGainSource.integrals`).  The result is nonnegative and
    vanishes at the horizon.
    """
    mmspec.require_risk_neutral("the quoting premium")
    n_t = len(price_field.t_grid) - 1
    if grid is None:
        grid = GridSpec(n_t=n_t)
    if grid.n_t != n_t:
        raise ValueError("quote-value grid must match the expected-price grid")
    source = QuoteGainSource(kernel, layout, mmspec, price_field)
    problem = ProblemSpec(g=lambda p: np.zeros_like(np.asarray(p, dtype=float)), w=source)
    fld = solve_fixed_point(
        kernel, problem, grid, price_field.horizon, price_field.lattice.p0,
        source=source.integrals,
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
    degenerates and the bound is reported in its series-limit form.  A bound
    past the float range raises ``OverflowError`` naming its inputs.
    """
    tau = horizon - t
    if tau < 0:
        raise ValueError("evaluation time is beyond the horizon")
    big = mmspec.big_size
    rate = max(kernel.intensity_bound, layout.flow_bound)
    c = 2.0 * (big + 1) * rate
    delta = kernel.delta
    try:
        if delta > 0:
            growth = big * p * (1.0 + delta) / delta * math.expm1(c * tau * delta)
        else:
            growth = big * p * (1.0 + delta) * c * tau
    except OverflowError:
        growth = math.inf
    bound = x + y * p + growth + big * c * tau * mmspec.transaction_cost
    if not math.isfinite(bound):
        raise OverflowError(
            f"the a-priori value bound overflows: flow or intensity bound {rate!r}, "
            f"big size {big}, time to horizon {tau!r}, tick {delta!r}, price {p!r}"
        )
    return bound


def default_baselines(random_seed: int = 7) -> list:
    """The fixed comparison set: hold, both sides, each single side, a coin flip."""
    return [
        FixedQuotePolicy(0, 0, "hold"),
        FixedQuotePolicy(1, 1, "always_quote"),
        FixedQuotePolicy(1, 0, "ask_only"),
        FixedQuotePolicy(0, 1, "bid_only"),
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
    candidates: int = 0  # thinning candidates over all paths
    events: int = 0  # the candidates not thinned: big jumps and small orders

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
            "candidates": self.candidates,
            "events": self.events,
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

    All policies are settled against the same market realisations (the
    market ignores the agent, so the event stream is policy independent);
    this shares the randomness and sharpens the comparison.  Per-path streams
    are derived from (seed, path index) and aggregation is pairwise, so the
    table does not depend on execution order.  On each block of
    ``simulate.thinning_blocks`` each policy is called once, on the arrays
    (t, p, i, s) of the events, and returns its (ask, bid) bits as arrays or
    as scalars that broadcast.  Cash and inventory are per-path cumulative
    sums of the quoted fills from the initial agent (``mc._running``), so the
    table equals a per-event replay's exactly.  The report counts the
    thinning candidates and the events (orders) among them.
    """
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    # refused before any path is simulated
    bound = value_upper_bound(
        mmspec, kernel, layout, 0.0, initial_market.price, initial_agent.cash,
        initial_agent.inventory, horizon,
    )
    start = (0.0, initial_market.price, initial_market.state, initial_market.age)
    eta = mmspec.risk_aversion
    agent = (initial_agent.cash, initial_agent.inventory)
    values = np.empty((len(policies), n_paths))
    candidates = events = 0
    for lo, path, last, (_, t, p, i, _, s, code) in thinning_blocks(
        kernel, layout, start, horizon, n_paths, seed
    ):
        event = np.flatnonzero(code >= BIG)
        candidates, events = candidates + int(np.count_nonzero(code)), events + len(event)
        # a fill depends on the policy only through the quote bit of its
        # side, so each event is settled once, with both sides quoted
        side, d_cash, d_inv, _ = order_fill(
            code[event], (1, 1), layout.max_units, p[event], kernel.delta,
            mmspec.transaction_cost,
        )
        fills, args = np.stack([d_cash, d_inv], 1), (t[event], p[event], i[event], s[event])
        for k, policy in enumerate(policies):
            quoted = np.where(side > 0, *policy(*args)) != 0
            x, y = _running(path, last, event[quoted], fills[quoted], agent)[last].T
            values[k, lo : lo + len(x)] = x + p[last] * y - eta * y * y
    rows = []
    for k, policy in enumerate(policies):
        name = getattr(policy, "name", type(policy).__name__)
        est = McEstimate.from_values(values[k], seed)
        rows.append(BacktestRow(policy=name, mean=est.mean, se=est.se, n_paths=n_paths))
    return BacktestReport(rows=rows, upper_bound=bound, horizon=horizon, seed=seed,
                          risk_aversion=eta, candidates=candidates, events=events)


def backtest_against_baselines(
    kernel, layout, mmspec, price_field, initial_market, initial_agent, horizon, n_paths, seed
) -> BacktestReport:
    """:func:`backtest` of the default baselines and the optimal policy on ``price_field``."""
    policies = default_baselines() + [optimal_policy(kernel, layout, mmspec, price_field)]
    return backtest(
        policies, kernel, layout, mmspec, initial_market, initial_agent, horizon, n_paths, seed
    )


def export_policy_csv(
    path,
    kernel: SemiMarkovKernel,
    layout: MarkLayout,
    mmspec: MarketMakingSpec,
    price_field: ValueField,
    s_values: Sequence[float],
    header_meta: Optional[dict] = None,
) -> None:
    """Quote bits on the grid at the ages ``s_values`` as (t, p, i, s, ask bit,
    bid bit) rows; the bits of each direction are picked once and written
    for both of its states."""
    mmspec.require_risk_neutral("the optimal quoting policy")
    source = QuoteGainSource(kernel, layout, mmspec, price_field)
    keep = np.nonzero(price_field.lattice.report_mask)[0]
    p_txt = [repr(p) for p in price_field.lattice.prices[keep].tolist()]
    t_leads = [f"{t!r}," for t in map(float, price_field.t_grid)]
    with open(path, "w") as fh:
        meta = {"p0": price_field.lattice.p0, "delta": kernel.delta}
        if header_meta:
            meta.update(header_meta)
        fh.write("# " + json.dumps(meta, sort_keys=True) + "\n")
        fh.write("t,p,i,s,quote_ask,quote_bid\n")
        n_report = len(p_txt)
        for s in map(float, s_values):
            rates = source._age_free_rates if source._age_free else source.gain_rates_at_age(s)
            bid, ask = rates[..., keep] > 0.0
            # per (direction, time), each node's line tail at code * n_report + node
            picks = (2 * ask + bid) * n_report + np.arange(n_report)
            for i in STATES:
                lines = [f"{p},{i},{s!r},{bits}" for bits in _QUOTE_BITS for p in p_txt]
                for lead, row in zip(t_leads, picks[direction_index(i)].tolist()):
                    fh.write(lead + ("\n" + lead).join(map(lines.__getitem__, row)) + "\n")
