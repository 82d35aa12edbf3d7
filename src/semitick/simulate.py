"""Exact simulation of the tick-price triple (price, direction state, age)
and of the controlled quintuple including the agent's cash and inventory.

Market events come from exactly two generators, one per construction:

* ``renewal_segments``: inverse-CDF holding times plus categorical
  transitions, one segment per holding time;
* ``thinning_segments``: a dominating homogeneous Poisson stream on the time
  axis with uniform marks resolved through the mark-interval layout, one
  segment per candidate point, thinned ``NO_EVENT`` candidates included.

Each yields tuples ``(t0, t1, p, i, s0, s1, mark)``: price ``p`` and state
``i`` hold on ``[t0, t1)`` while the age grows from ``s0`` to ``s1``, so
``(p, i, s1)`` is the left limit at ``t1``.  ``mark`` is what happens at
``t1``: the successor state (renewal) or a ``BigJump``, ``SmallOrder`` or
``NO_EVENT`` (thinning); it is None on the last segment, which the horizon
cuts, so a fold ends on the terminal state.

Every consumer folds over one generator.  ``simulate_price_path``,
``mc.estimate_terminal_value`` and the uncontrolled ``mc.dynkin_battery``
fold over renewal; ``simulate_price_path_thinning``,
``market_maker.backtest`` and the controlled ``mc.dynkin_battery`` fold over
thinning, the last two through the one Monte-Carlo path fold ``mc._blocks``,
and settle fills with ``order_fill``.  The market ignores the agent, so
neither generator takes a policy: ``simulate_controlled_path`` settles its
fills on the events of ``simulate_price_path_thinning``.

Draw-order contract: per segment renewal draws one open uniform for the
holding time and then, unless the horizon cuts the holding, one uniform for
the successor; thinning draws one exponential gap and then, unless the
horizon cuts it, one uniform mark.  Seeded outputs depend on this order.
The two constructions share no draws, so they stay independent checks of
one law for (price, state, age).
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from .hazards import (
    NO_EVENT,
    BigJump,
    MarkLayout,
    SemiMarkovKernel,
    SmallOrder,
    alpha,
)

__all__ = [
    "MarketState",
    "AgentState",
    "JumpEvent",
    "Path",
    "path_rng",
    "path_streams",
    "renewal_segments",
    "thinning_segments",
    "order_fill",
    "sample_holding",
    "sample_transition",
    "simulate_price_path",
    "simulate_price_path_thinning",
    "simulate_controlled_path",
    "HoldPolicy",
    "AlwaysQuotePolicy",
    "AskOnlyPolicy",
    "BidOnlyPolicy",
    "RandomQuotePolicy",
]

_MAX_STEPS = 100  # Newton and safeguard steps per holding time


@dataclass(frozen=True)
class MarketState:
    """Mid-price, direction state, and age (time since the last big jump)."""

    price: float
    state: int
    age: float

    def __post_init__(self):
        if not (math.isfinite(self.price) and self.price > 0):
            raise ValueError(f"price must be finite and > 0, got {self.price}")
        if self.state not in (1, 2, 3, 4):
            raise ValueError(f"state must be in {{1,2,3,4}}, got {self.state}")
        if not (math.isfinite(self.age) and self.age >= 0):
            raise ValueError(f"age must be finite and >= 0, got {self.age}")


@dataclass(frozen=True)
class AgentState:
    """Cash and signed integer inventory of the market maker."""

    cash: float = 0.0
    inventory: int = 0


@dataclass(frozen=True)
class JumpEvent:
    """One Poisson event with full provenance.

    ``executed_units`` is zero whenever the agent did not quote the executed
    side (or the run is uncontrolled).
    """

    time: float
    kind: object  # BigJump or SmallOrder
    executed_units: int
    market_before: MarketState
    market_after: MarketState
    agent_before: Optional[AgentState] = None
    agent_after: Optional[AgentState] = None
    control: Optional[tuple[int, int]] = None


@dataclass
class Path:
    """Ordered jump events of one simulated run plus terminal bookkeeping."""

    initial_market: MarketState
    horizon: float
    events: list[JumpEvent] = field(default_factory=list)
    terminal_market: Optional[MarketState] = None
    initial_agent: Optional[AgentState] = None
    terminal_agent: Optional[AgentState] = None
    seed: object = None
    method: str = "renewal"
    n_candidates: int = 0

    def big_jumps(self) -> list[JumpEvent]:
        return [e for e in self.events if isinstance(e.kind, BigJump)]

    def small_orders(self) -> list[JumpEvent]:
        return [e for e in self.events if isinstance(e.kind, SmallOrder)]

    @property
    def jump_count(self) -> int:
        return len(self.big_jumps())

    def holding_times(self) -> list[float]:
        """Durations between consecutive big jumps.

        The stretch before the first jump is included only when the run
        started at age zero (otherwise its law is the conditional one); the
        censored stretch after the last jump is dropped.
        """
        times = [e.time for e in self.big_jumps()]
        out = [times[0]] if self.initial_market.age == 0.0 and times else []
        out.extend(np.diff(times).tolist())
        return out

    def summary(self) -> dict:
        term = self.terminal_market
        d = {
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
        if self.terminal_agent is not None:
            d["terminal_cash"] = self.terminal_agent.cash
            d["terminal_inventory"] = self.terminal_agent.inventory
        return d

    def to_csv(self, path, header_meta: Optional[dict] = None) -> None:
        """One event per row; lines starting with '#' carry reproducibility metadata."""
        with open(path, "w") as fh:
            meta = {"seed": str(self.seed), "method": self.method}
            if header_meta:
                meta.update(header_meta)
            fh.write("# " + json.dumps(meta, sort_keys=True) + "\n")
            fh.write(
                "time,kind,target_or_side,units,price_before,price_after,"
                "age_before,cash_after,inventory_after,quote_ask,quote_bid\n"
            )
            for e in self.events:
                if isinstance(e.kind, BigJump):
                    kind, tag, units = "big", e.kind.target, e.executed_units
                else:
                    kind, tag, units = "small", e.kind.side, e.executed_units
                agent = e.agent_after
                ctrl = e.control if e.control is not None else ("", "")
                fh.write(
                    f"{float(e.time)!r},{kind},{tag},{units},"
                    f"{float(e.market_before.price)!r},{float(e.market_after.price)!r},"
                    f"{float(e.market_before.age)!r},"
                    f"{'' if agent is None else repr(float(agent.cash))},"
                    f"{'' if agent is None else agent.inventory},"
                    f"{ctrl[0]},{ctrl[1]}\n"
                )


def path_rng(master_seed: int, index: int) -> np.random.Generator:
    """Independent per-path stream derived from (master seed, path index).

    Seeding by the pair makes ensembles independent of execution order, so
    serial and parallel runs agree path by path.
    """
    return np.random.default_rng([int(master_seed), int(index)])


# numpy's SeedSequence (O'Neill's seed_seq_fe) on a 4-word pool, and PCG64's
# 128-bit LCG multiplier
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_SEED_BLOCK = 1024  # paths seeded by one set of array operations


def _hash_consts(init: int, mult: int, n: int) -> list:
    """(xor, multiplier) of ``n`` successive hashmix calls: the running hash
    constant does not depend on the data, so every call's pair is fixed."""
    out = []
    for _ in range(n):
        nxt = (init * mult) & _MASK32
        out.append((np.uint32(init), np.uint32(nxt)))
        init = nxt
    return out


_POOL_HASH = _hash_consts(0x43B0D7E5, 0x931E8875, 4 + 12)  # pool fill, then mixing
_STATE_HASH = _hash_consts(0x8B51F9DD, 0x58F38DED, 8)  # generate_state(4, uint64)


def _hashmix(value: np.ndarray, consts) -> np.ndarray:
    xor, mult = consts
    value = (value ^ xor) * mult  # uint32 arrays wrap silently
    return value ^ (value >> np.uint32(16))


def _pcg_states(seed: int, indices: np.ndarray) -> list:
    """PCG64 ``(state, inc)`` of ``default_rng([seed, idx])`` for 32-bit
    ``seed`` and ``indices``: the two-word entropy mixed into the pool and
    expanded to four 64-bit words over the whole block, then PCG64's
    ``srandom`` (two LCG steps) in Python ints."""
    words = [np.full(indices.shape, seed, np.uint32), indices.astype(np.uint32)]
    words += [np.zeros(indices.shape, np.uint32)] * 2
    pool = [_hashmix(w, c) for w, c in zip(words, _POOL_HASH)]
    consts = iter(_POOL_HASH[4:])
    for src in range(4):
        for dst in range(4):
            if src != dst:
                mixed = pool[dst] * _MIX_L - _hashmix(pool[src], next(consts)) * _MIX_R
                pool[dst] = mixed ^ (mixed >> np.uint32(16))
    out = np.stack([_hashmix(pool[k % 4], c) for k, c in enumerate(_STATE_HASH)], axis=1)
    states = []
    for v0, v1, v2, v3 in out.astype("<u4").view("<u8").tolist():
        inc = ((((v2 << 64) | v3) << 1) | 1) & _MASK128
        states.append((((inc + ((v0 << 64) | v1)) * _PCG_MULT + inc) & _MASK128, inc))
    return states


def path_streams(master_seed: int, first: int, n: int):
    """The streams ``path_rng(master_seed, idx)`` for ``idx`` in
    ``first .. first + n - 1``, seeded a block at a time.

    Yields one reused Generator, set to each path's state in turn, so a
    stream must be drawn from before the next one is taken.  A pair outside
    ``[0, 2**32)`` adds entropy words, so its block takes ``path_rng``.
    """
    seed = int(master_seed)
    rng = np.random.default_rng(0)
    bitgen = rng.bit_generator
    for lo in range(first, first + n, _SEED_BLOCK):
        hi = min(lo + _SEED_BLOCK, first + n)
        if not (0 <= seed <= _MASK32 and 0 <= lo and hi - 1 <= _MASK32):
            for idx in range(lo, hi):
                yield path_rng(seed, idx)
            continue
        for state, inc in _pcg_states(seed, np.arange(lo, hi, dtype=np.int64)):
            bitgen.state = {
                "bit_generator": "PCG64",
                "state": {"state": state, "inc": inc},
                "has_uint32": 0,
                "uinteger": 0,
            }
            yield rng


def _uniform_open(rng: np.random.Generator) -> float:
    u = rng.random()
    while u == 0.0:
        u = rng.random()
    return u


def sample_holding(kernel: SemiMarkovKernel, s0: float, u: float) -> float:
    """Waiting time w > 0 with conditional law F given current age ``s0``.

    Solves (F(s0+w) - F(s0)) / (1 - F(s0)) = u, that is
    ``kernel.integrated_increment(s0, w) = -log1p(-u)``.  Flat total
    intensity gives the closed exponential form.  Otherwise the increment,
    formed directly rather than as a difference of integrated intensities
    (which cancels at large ages), is inverted by Newton's method with the
    total intensity as derivative.  The intensity is nondecreasing, so the
    increment is convex in w: the start ``target / h(s0)`` lies right of the
    root and the iterates fall onto it.  A bracket safeguards the iteration
    (an iterate outside it is replaced by a bisection step), and a step too
    small to move the iterate probes the adjacent float instead.  The draw is
    the upper end of the bracket once its ends are adjacent floats: the
    smallest w at which the computed increment reaches the target, so it is
    nondecreasing in ``u`` wherever the computed increment is nondecreasing
    in w (rounding can break that by a few ulps where the increment cancels,
    as with a saturating intensity of base zero at small w).
    """
    if not 0.0 < u < 1.0:
        raise ValueError(f"u must lie strictly inside (0, 1), got {u}")
    if not math.isfinite(s0):
        raise ValueError(f"current age must be finite, got {s0}")
    if s0 < 0:
        raise ValueError("current age must be nonnegative")
    target = -math.log1p(-u)  # integrated intensity the increment must accrue
    if kernel.is_memoryless:
        return target / kernel.total_intensity(0.0)
    lo, hi = 0.0, math.inf  # the increment is below the target at lo, not below at hi
    w = target / kernel.total_intensity(s0)
    for _ in range(_MAX_STEPS):
        gap = kernel.integrated_increment(s0, w) - target
        if gap < 0.0:
            lo = w
        else:
            hi = w
        if math.nextafter(lo, math.inf) == hi:
            break
        step = w - gap / kernel.total_intensity(s0 + w)
        if step == w:  # converged to within an ulp: probe the neighbour toward the root
            step = math.nextafter(w, math.inf if gap < 0.0 else 0.0)
        w = step if lo < step < hi else 0.5 * (lo + hi)
    return hi


def sample_transition(kernel: SemiMarkovKernel, i: int, y: float, u: float) -> int:
    """Next state after a holding of length ``y``, drawn with a uniform ``u``.

    Successors are enumerated in increasing order and the draw is resolved
    against their cumulative transition probabilities.
    """
    succ, weights = kernel.transition_weights(i, y)
    return succ[0] if u < weights[0] else succ[1]


def _as_rng(seed) -> np.random.Generator:
    return seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)


def _price_after(p: float, delta: float, j: int) -> float:
    price = p * (1.0 + delta * alpha(j))
    if math.isinf(price):
        raise OverflowError(f"the price overflows: a jump from {p!r} at tick size {delta!r}")
    return price


def _right_limit(p: float, i: int, s: float, mark, delta: float) -> tuple:
    """(price, state, age) right after ``mark`` occurs at the left limit ``(p, i, s)``."""
    if isinstance(mark, BigJump):
        return _price_after(p, delta, mark.target), mark.target, 0.0
    return p, i, s


def renewal_segments(kernel: SemiMarkovKernel, start, horizon: float, rng):
    """Renewal construction from ``start = (t, price, state, age)`` to the
    horizon: one segment per holding time, marked with the successor state."""
    t, p, i, s = start
    while True:
        w = sample_holding(kernel, s, _uniform_open(rng))
        if t + w > horizon:
            yield t, horizon, p, i, s, s + (horizon - t), None
            return
        j = sample_transition(kernel, i, s + w, rng.random())
        yield t, t + w, p, i, s, s + w, j
        t, p, i, s = t + w, _price_after(p, kernel.delta, j), j, 0.0


def thinning_segments(kernel: SemiMarkovKernel, layout: MarkLayout, start, horizon: float, rng):
    """Thinning construction from ``start = (t, price, state, age)`` to the
    horizon: one segment per candidate of the dominating Poisson stream,
    thinned ones included, marked through the layout at the candidate's age."""
    t, p, i, s = start
    width = layout.mark_domain
    while True:
        gap = rng.exponential(1.0 / width)
        if t + gap > horizon:
            yield t, horizon, p, i, s, s + (horizon - t), None
            return
        s1 = s + gap
        mark = layout.classify(i, s1, rng.uniform(0.0, width))
        yield t, t + gap, p, i, s, s1, mark
        t += gap
        p, i, s = _right_limit(p, i, s1, mark, kernel.delta)


def _market_event(t: float, p: float, i: int, s: float, mark, delta: float) -> JumpEvent:
    """Uncontrolled event ``mark`` at time ``t`` from the left limit ``(p, i, s)``."""
    return JumpEvent(
        time=t,
        kind=mark,
        executed_units=0,
        market_before=MarketState(p, i, s),
        market_after=MarketState(*_right_limit(p, i, s, mark, delta)),
    )


def simulate_price_path(
    kernel: SemiMarkovKernel,
    initial: MarketState,
    horizon: float,
    seed,
) -> Path:
    """Renewal construction of the uncontrolled path on [0, horizon]."""
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    path = Path(initial_market=initial, horizon=horizon, seed=seed, method="renewal")
    start = (0.0, initial.price, initial.state, initial.age)
    for _, t1, p, i, _, s1, j in renewal_segments(kernel, start, horizon, _as_rng(seed)):
        if j is not None:
            path.events.append(_market_event(t1, p, i, s1, BigJump(j), kernel.delta))
    path.terminal_market = MarketState(p, i, s1)
    return path


def simulate_price_path_thinning(
    kernel: SemiMarkovKernel,
    layout: MarkLayout,
    initial: MarketState,
    horizon: float,
    seed,
) -> Path:
    """Thinning construction of the uncontrolled path on [0, horizon].

    Distributionally equivalent to the renewal construction for (price,
    state, age); the events also include the small orders.
    """
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    path = Path(initial_market=initial, horizon=horizon, seed=seed, method="thinning")
    start = (0.0, initial.price, initial.state, initial.age)
    segments = thinning_segments(kernel, layout, start, horizon, _as_rng(seed))
    for _, t1, p, i, _, s1, mark in segments:
        if mark is None:
            break
        path.n_candidates += 1
        if mark is not NO_EVENT:
            path.events.append(_market_event(t1, p, i, s1, mark, kernel.delta))
    path.terminal_market = MarketState(p, i, s1)
    return path


def order_fill(mark, quotes, big_units: int, price: float, delta: float, cost: float):
    """Settle one market order against the agent's quotes ``(ask bit, bid bit)``.

    A small order trades its own size on its own side; a big order (a jump
    into ``mark.target``) trades ``big_units`` on the side of the jump.  With
    that side quoted the units trade at exec_price = price*(1 + side*delta),
    ``price`` being the pre-event mid-price (so a big order trades at the
    post-jump price), and the fixed cost is paid: cash changes by
    side*units*(exec_price - side*cost), inventory by -side*units.  ``price``
    may be an array.

    Returns ``(side, d_cash, d_inv, executed_units)``, where ``side`` is the
    quote side the order executes against (+1 ask, -1 bid); with that side
    unquoted nothing trades.
    """
    if isinstance(mark, SmallOrder):
        side, units = mark.side, mark.units
    else:
        side, units = alpha(mark.target), big_units
    if not (quotes[0] if side > 0 else quotes[1]) or units == 0:
        return side, 0.0, 0, 0
    d_cash = side * units * (price * (1.0 + side * delta) - side * cost)
    return side, d_cash, -side * units, units


def simulate_controlled_path(
    kernel: SemiMarkovKernel,
    layout: MarkLayout,
    policy: Callable[[float, float, int, float], tuple[int, int]],
    initial_market: MarketState,
    initial_agent: AgentState,
    horizon: float,
    seed,
    transaction_cost: float = 0.0,
) -> Path:
    """Controlled run: the policy is evaluated at left limits for every event.

    Big orders execute the layout's maximal size on the jump side; small
    orders execute their drawn size on their own side, in both cases only
    when the corresponding quote bit is set.  The market ignores the agent,
    so the events are those of :func:`simulate_price_path_thinning`, on
    which the fills are settled.
    """
    if transaction_cost < 0:
        raise ValueError("transaction cost must be >= 0")
    path = simulate_price_path_thinning(kernel, layout, initial_market, horizon, seed)
    path.initial_agent = agent = initial_agent
    for k, e in enumerate(path.events):
        before = e.market_before
        l_ask, l_bid = policy(e.time, before.price, before.state, before.age)
        _, d_cash, d_inv, executed = order_fill(
            e.kind, (l_ask, l_bid), layout.max_units, before.price, kernel.delta,
            transaction_cost,
        )
        after = AgentState(agent.cash + d_cash, agent.inventory + d_inv)
        path.events[k] = replace(
            e, executed_units=executed, agent_before=agent, agent_after=after,
            control=(l_ask, l_bid),
        )
        agent = after
    path.terminal_agent = agent
    return path


# -- built-in policies ----------------------------------------------------


@dataclass(frozen=True)
class HoldPolicy:
    """Never quote."""

    name: str = "hold"

    def __call__(self, t, p, i, s):
        return (0, 0)


@dataclass(frozen=True)
class AlwaysQuotePolicy:
    """Quote both sides at all times."""

    name: str = "always_quote"

    def __call__(self, t, p, i, s):
        return (1, 1)


@dataclass(frozen=True)
class AskOnlyPolicy:
    name: str = "ask_only"

    def __call__(self, t, p, i, s):
        return (1, 0)


@dataclass(frozen=True)
class BidOnlyPolicy:
    name: str = "bid_only"

    def __call__(self, t, p, i, s):
        return (0, 1)


_COIN_RECORD = np.dtype([("seed", "<u8"), ("t", "<f8"), ("p", "<f8"), ("i", "<i8"), ("s", "<f8")])
_COIN_PACK = struct.Struct("<QddQd")  # the same 40 bytes as one _COIN_RECORD
_ONE = (1).to_bytes(8, "little")
_MASK64 = 0xFFFFFFFFFFFFFFFF


def _unit(digest: bytes) -> float:
    """The top 53 bits of a little-endian 64-bit digest as a float in [0, 1)."""
    return (int.from_bytes(digest, "little") >> 11) / float(1 << 53)


@dataclass(frozen=True)
class RandomQuotePolicy:
    """Seeded coin flips per side, a pure function of (t, p, i, s, seed).

    Hash based rather than stateful so the rule stays predictable and
    identical across replays of the same path.  The ask coin is the blake2b
    digest of the little-endian record (seed, t, p, i, s), floats as their
    IEEE bits; the bid coin hashes that digest followed by the word 1.
    """

    prob: float = 0.5
    seed: int = 0
    name: str = "random"

    def __call__(self, t, p, i, s):
        """Bits at scalar arguments, or int arrays at equal-length arrays,
        each element hashed on its own."""
        if np.ndim(t) == np.ndim(p) == np.ndim(i) == np.ndim(s) == 0:
            return self._flip(
                _COIN_PACK.pack(self.seed & _MASK64, t, p, int(i) & _MASK64, s)
            )
        t, p, i, s = np.broadcast_arrays(t, p, i, s)
        records = np.empty(t.size, _COIN_RECORD)
        records["seed"] = self.seed & _MASK64
        for name, values in (("t", t), ("p", p), ("i", i), ("s", s)):
            records[name] = values.ravel()
        data = memoryview(records.tobytes())
        size = _COIN_RECORD.itemsize
        bits = [self._flip(data[k : k + size]) for k in range(0, len(data), size)]
        l_ask, l_bid = np.array(bits, dtype=int).reshape(-1, 2).T
        return l_ask.reshape(t.shape), l_bid.reshape(t.shape)

    def _flip(self, record):
        ask = hashlib.blake2b(record, digest_size=8).digest()
        bid = hashlib.blake2b(ask + _ONE, digest_size=8).digest()
        return (int(_unit(ask) < self.prob), int(_unit(bid) < self.prob))
