"""Exact simulation of the tick-price triple (price, direction state, age)
and of the controlled quintuple including the agent's cash and inventory.

Market events come from one block engine, ``_block``, which moves a block of
paths in lockstep on arrays, one segment of every live path per step, with
exactly two constructions:

* renewal (``renewal_blocks``): inverse-CDF holding times plus categorical
  transitions, one segment per holding time, marked with the successor;
* thinning (``thinning_blocks``): a dominating homogeneous Poisson stream
  whose uniform marks resolve through the mark-interval layout, one segment
  per candidate, marked with a ``hazards`` mark code (a big jump, a small
  order or a thinned candidate).

A segment is ``(t0, t1, p, i, s0, s1, mark)``: price ``p`` and state ``i``
hold on ``[t0, t1)`` while the age grows from ``s0`` to ``s1``, so
``(p, i, s1)`` is the left limit at ``t1``, where ``mark`` happens.  The
horizon cuts each path's last segment, marked 0.  ``renewal_segments`` and
``thinning_segments`` are a block of one, yielded as tuples with the last
mark None; thinning tuples decode codes into ``BigJump``, ``SmallOrder`` and
``NO_EVENT``.  There is no other path representation: the ``simulate``
command, ``mc.estimate_terminal_value`` and the uncontrolled Dynkin battery
fold renewal blocks, ``market_maker.backtest`` and the controlled battery
thinning blocks, settling fills with ``order_fill``, and the
``renewal_vs_thinning`` check both.  Neither construction takes a policy.

Draw-order contract: per segment both draw an open uniform ``u1`` (a zero is
skipped) for its length and then, unless the horizon cuts it, a uniform
``u2`` for its mark.  Renewal inverts the holding law at ``u1`` and draws
the successor with ``u2``; thinning's gap is ``-np.log1p(-u1) / width`` and
its mark coordinate ``width * u2``, ``width`` being the layout's
``mark_domain``.  Seeded outputs depend on this order.  Path ``idx`` reads
the stream of ``path_rng(seed, idx)`` at any nonnegative seed and index,
with no Generator per path: the block seeds every path's PCG64 state in
arrays, and each draw steps the state of every path that draws once, so no
uniform is drawn ahead.  A check draws the two constructions from different
seeds, so they stay independent of each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, partial

import numpy as np

from .hazards import (
    BIG,
    SLOT_MOVES,
    SMALL,
    STATES,
    SUCCESSOR_INDEX,
    BigJump,
    MarkLayout,
    SemiMarkovKernel,
    SmallOrder,
    alpha,
)

__all__ = [
    "MarketState",
    "AgentState",
    "path_rng",
    "renewal_blocks",
    "renewal_segments",
    "thinning_blocks",
    "thinning_segments",
    "order_fill",
    "sample_holding",
    "sample_transition",
    "FixedQuotePolicy",
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


def path_rng(master_seed: int, index: int) -> np.random.Generator:
    """Independent per-path stream derived from (master seed, path index).

    Seeding by the pair makes ensembles independent of execution order, so
    serial and parallel runs agree path by path.
    """
    return np.random.default_rng([int(master_seed), int(index)])


# numpy's SeedSequence (O'Neill's seed_seq_fe) on a 4-word pool, and PCG64's
# 128-bit LCG multiplier as uint64 words and as the 32-bit limbs of its low word
_MASK32 = 0xFFFFFFFF
_MASK64 = 0xFFFFFFFFFFFFFFFF
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MULT_HI, _MULT_LO = np.uint64(_PCG_MULT >> 64), np.uint64(_PCG_MULT & _MASK64)
_MULT_L0, _MULT_L1 = np.uint64(_PCG_MULT & _MASK32), np.uint64((_PCG_MULT >> 32) & _MASK32)
_LOW32 = np.uint64(_MASK32)
_U1, _U11, _U32, _U58, _U63, _U64 = (np.uint64(k) for k in (1, 11, 32, 58, 63, 64))
# paths seeded by one set of array operations, and moved in lockstep by one
# renewal block
_SEED_BLOCK = 1024
_BLOCK_ROWS = 2**18  # expected segments of one renewal block, at most


@cache
def _hash_consts(init: int, mult: int, n: int) -> tuple:
    """(xor, multiplier) of ``n`` successive hashmix calls: the running hash
    constant does not depend on the data, so every call's pair is fixed."""
    out = []
    for _ in range(n):
        nxt = (init * mult) & _MASK32
        out.append((np.uint32(init), np.uint32(nxt)))
        init = nxt
    return tuple(out)


def _hashmix(value: np.ndarray, consts) -> np.ndarray:
    xor, mult = consts
    value = (value ^ xor) * mult  # uint32 arrays wrap silently
    return value ^ (value >> np.uint32(16))


def _seed_state(words, n: int) -> np.ndarray:
    """``SeedSequence(entropy).generate_state(n, np.uint32)`` for the uint32
    entropy ``words`` (one array per word), elementwise: the words hashed
    into the 4-word pool, the pool mixed, any words past the pool mixed into
    every pool word, then ``n`` output words, as (element, n) uint32."""
    consts = iter(_hash_consts(0x43B0D7E5, 0x931E8875, 4 + 12 + 4 * max(len(words) - 4, 0)))
    zero = np.zeros_like(words[0])
    pool = [_hashmix(words[k] if k < len(words) else zero, next(consts)) for k in range(4)]

    def mix(dst, value):
        mixed = pool[dst] * _MIX_L - _hashmix(value, next(consts)) * _MIX_R
        pool[dst] = mixed ^ (mixed >> np.uint32(16))

    for src in range(4):
        for dst in range(4):
            if src != dst:
                mix(dst, pool[src])
    for word in words[4:]:
        for dst in range(4):
            mix(dst, word)
    out = _hash_consts(0x8B51F9DD, 0x58F38DED, n)
    return np.stack([_hashmix(pool[k % 4], c) for k, c in enumerate(out)], axis=1)


def _lcg_step(hi: np.ndarray, lo: np.ndarray, inc_hi: np.ndarray, inc_lo: np.ndarray):
    """One step ``state * M + inc mod 2**128`` of PCG64's LCG on the uint64
    words ``(hi, lo)`` of the states: the full 128-bit product of the low
    words from their 32-bit limbs, the cross products mod ``2**64``."""
    a0, a1 = lo & _LOW32, lo >> _U32
    p00, p01, p10 = a0 * _MULT_L0, a0 * _MULT_L1, a1 * _MULT_L0
    mid = (p00 >> _U32) + (p01 & _LOW32) + (p10 & _LOW32)
    new_lo = ((mid << _U32) | (p00 & _LOW32)) + inc_lo
    new_hi = (a1 * _MULT_L1 + (p01 >> _U32) + (p10 >> _U32) + (mid >> _U32)
              + hi * _MULT_LO + lo * _MULT_HI + inc_hi + (new_lo < inc_lo))
    return new_hi, new_lo


def _pcg_states(seed: int, lo: int, n: int):
    """PCG64 ``(state, inc)`` of ``default_rng([seed, idx])`` for ``lo <=
    idx < lo + n < 2**64``, each a (2, path) uint64 array of the 128-bit
    values' high and low words.  numpy's entropy is the seed's little-endian
    32-bit words and then the index's, at least one each; an index from
    ``2**32`` on has two, so the indices on either side of ``2**32`` are
    seeded apart.  The entropy is mixed into the pool and expanded to four
    64-bit words, then PCG64's ``srandom`` takes two LCG steps.  A negative
    seed or index is refused, as numpy refuses it."""
    seed, lo = int(seed), int(lo)
    if min(seed, lo) < 0:
        raise ValueError(f"a seed or path index must be nonnegative, got {min(seed, lo)}")
    seed_words = [(seed >> k) & _MASK32 for k in range(0, max(seed.bit_length(), 1), 32)]
    idx = np.arange(lo, lo + n, dtype=np.uint64)
    split = min(max(2**32 - lo, 0), n)  # position of the first two-word index
    out = np.empty((n, 8), np.uint32)
    for rows, n_words in ((slice(0, split), 1), (slice(split, n), 2)):
        part = idx[rows]
        if part.size:
            words = [np.full(part.shape, w, np.uint32) for w in seed_words]
            words += [(part >> np.uint64(32 * k)).astype(np.uint32) for k in range(n_words)]
            out[rows] = _seed_state(words, 8)
    v0, v1, v2, v3 = out.astype("<u4").view("<u8").T
    # state = ((inc + initstate) * M + inc), inc = initseq << 1 | 1, with
    # initstate = (v0, v1) and initseq = (v2, v3)
    inc = ((v2 << _U1) | (v3 >> _U63), (v3 << _U1) | _U1)
    with np.errstate(over="ignore"):
        low = inc[1] + v1
        state = _lcg_step(inc[0] + v0 + (low < v1), low, *inc)
    return np.stack(state), np.stack(inc)


def sample_holding(kernel: SemiMarkovKernel, s0, u):
    """Waiting times w > 0 with conditional law F given current ages ``s0``;
    broadcasts over ``s0`` and ``u``, and returns a float at scalars.

    Solves (F(s0+w) - F(s0)) / (1 - F(s0)) = u, that is
    ``kernel.integrated_increment(s0, w) = -log1p(-u)``, with the target
    formed by ``math.log1p`` on every element.  Flat total intensity gives
    the closed exponential form.  Otherwise the increment, formed directly
    rather than as a difference of integrated intensities (which cancels at
    large ages), is inverted by Newton's method with the total intensity as
    derivative, on all elements at once; an element leaves the iteration
    when its bracket closes.  The intensity is nondecreasing, so the
    increment is convex in w: the start ``target / h(s0)`` lies right of the
    root and the iterates fall onto it.  A bracket safeguards the iteration
    (an iterate outside it is replaced by a bisection step), and a step too
    small to move the iterate probes the adjacent float instead.  The draw is
    the upper end of the bracket once its ends are adjacent floats: the
    smallest w at which the computed increment reaches the target, so it is
    nondecreasing in ``u`` wherever the computed increment is nondecreasing
    in w.

    Refuses, naming the first offending element, a ``u`` outside (0, 1) and
    then an age that is not finite or is negative.
    """
    scalar = np.ndim(s0) == 0 and np.ndim(u) == 0
    u, s0 = np.broadcast_arrays(np.asarray(u, dtype=float), np.asarray(s0, dtype=float))
    shape, u, s0 = u.shape, u.ravel(), s0.ravel()
    bad = ~((0.0 < u) & (u < 1.0))
    if bad.any():
        raise ValueError(f"u must lie strictly inside (0, 1), got {float(u[bad][0])}")
    bad = ~np.isfinite(s0)
    if bad.any():
        raise ValueError(f"current age must be finite, got {float(s0[bad][0])}")
    if (s0 < 0).any():
        raise ValueError("current age must be nonnegative")
    # integrated intensity the increment must accrue
    target = np.array([-math.log1p(-x) for x in u.tolist()])
    if kernel.is_memoryless:
        out = target / kernel.total_intensity(0.0)
    else:
        out = _newton_holding(kernel, s0, target)
    return float(out[0]) if scalar else out.reshape(shape)


def _newton_holding(kernel: SemiMarkovKernel, s0: np.ndarray, target: np.ndarray) -> np.ndarray:
    """The masked Newton iteration of :func:`sample_holding` on flat arrays."""
    out = np.empty(len(target))
    rows = np.arange(len(target))
    lo, hi = np.zeros(len(target)), np.full(len(target), math.inf)
    w = target / kernel.total_intensity(s0)
    for _ in range(_MAX_STEPS):
        gap = kernel.integrated_increment(s0, w) - target
        below = gap < 0.0  # the increment is below the target at lo, not below at hi
        lo, hi = np.where(below, w, lo), np.where(below, hi, w)
        done = np.nextafter(lo, math.inf) == hi
        out[rows[done]] = hi[done]
        if done.all():
            return out
        keep = ~done
        rows, s0, target, w, lo, hi, gap, below = (
            x[keep] for x in (rows, s0, target, w, lo, hi, gap, below)
        )
        step = w - gap / kernel.total_intensity(s0 + w)
        # converged to within an ulp: probe the neighbour toward the root
        step = np.where(step == w, np.nextafter(w, np.where(below, math.inf, 0.0)), step)
        w = np.where((lo < step) & (step < hi), step, 0.5 * (lo + hi))
    out[rows] = hi
    return out


def sample_transition(kernel: SemiMarkovKernel, i, y, u):
    """Next states after holdings of length ``y`` from states ``i``, drawn
    with uniforms ``u``; broadcasts over all three, and returns an int at
    scalars.

    Successors are enumerated in increasing order and the draw is resolved
    against their cumulative transition probabilities.
    """
    (first, second), (weight, _) = kernel.transition_weights(i, y)
    j = np.where(u < weight, first, second)
    return int(j) if j.ndim == 0 else j


def _jump(p: np.ndarray, move, delta: float) -> np.ndarray:
    """Prices after jumps by ``move`` (+1 up, -1 down) from the prices ``p``;
    a price that overflows is refused, naming the first."""
    with np.errstate(over="ignore"):
        p_next = p * (1.0 + delta * move)
    over = np.isinf(p_next)
    if over.any():
        raise OverflowError(
            f"the price overflows: a jump from {float(p[over][0])!r} at tick size {delta!r}"
        )
    return p_next


def _check_start(t: float, s: float, horizon: float) -> None:
    if not (math.isfinite(t) and math.isfinite(horizon)):
        raise ValueError(f"start time and horizon must be finite, got {t!r} and {horizon!r}")
    if t > horizon:
        raise ValueError(f"start time {t!r} is past the horizon {horizon!r}")
    if not (math.isfinite(s) and s >= 0.0):
        raise ValueError(f"start age must be finite and >= 0, got {s!r}")


def _draw_bound(rate: float, span: float) -> int:
    """Uniforms one path draws over a time ``span`` at most ``rate``
    segments per unit time: two per segment for the mean count plus six of
    its standard deviations and two, and one for the last segment, which the
    horizon cuts.  A path draws more with a probability below 1e-9."""
    mean = rate * span
    return 2 * math.ceil(mean + 6.0 * math.sqrt(mean) + 2.0) + 1


def _take_open(take, rows: np.ndarray) -> np.ndarray:
    """The next nonzero uniform of every path in ``rows`` from ``take``: a
    zero is skipped, as a scalar draw of an open uniform would reject it."""
    u = take(rows)
    zero = np.flatnonzero(u == 0.0)
    while zero.size:
        u[zero] = take(rows[zero])
        zero = zero[u[zero] == 0.0]
    return u


def _renewal(kernel: SemiMarkovKernel):
    """Renewal's ``(rate, length, event)`` for :func:`_blocks`: the holding
    time at the current age, then the successor and its price."""

    def event(p, i, y, u):
        j = sample_transition(kernel, i, y, u)
        return j, _jump(p, alpha(j), kernel.delta), j, np.zeros(len(j))

    rate = kernel.continuation.upper_bound + kernel.reversal.upper_bound
    return rate, partial(sample_holding, kernel), event


def _thinning(kernel: SemiMarkovKernel, layout: MarkLayout):
    """Thinning's ``(rate, length, event)`` for :func:`_blocks`: the gap to
    the next candidate, then its mark code at the candidate's age.  A big jump
    enters its slot's successor and moves the price; nothing else does."""
    width = layout.mark_domain

    def event(p, i, y, u):
        code = layout.mark_codes(i, y, width * u)
        big = np.flatnonzero((code >= BIG) & (code < SMALL))
        slot = code[big] - BIG
        p, i, y = p.copy(), i.copy(), y.copy()
        p[big] = _jump(p[big], np.asarray(SLOT_MOVES)[slot], kernel.delta)
        i[big] = STATES[0] + SUCCESSOR_INDEX[i[big] - STATES[0], slot]
        y[big] = 0.0
        return code, p, i, y

    return width, (lambda s, u: -np.log1p(-u) / width), event


def _block(length, event, start, horizon: float, n: int, take):
    """``n`` paths from ``start = (t, price, state, age)`` to the horizon, in
    lockstep, ``take(rows)`` drawing the next uniform of every path in
    ``rows`` from its own stream: each step draws every live path's next
    segment length ``length(age, u1)`` from an open uniform and, unless the
    horizon cuts the segment, ``event(price, state, end age, u2)`` from the
    next uniform: the segment's mark and the path's next price, state and age.

    Returns the block-local path index of every segment and the columns
    ``(t0, t1, p, i, s0, s1, mark)``, path by path and in segment order, with
    mark 0 on each path's last segment."""
    live = np.arange(n)
    t, p = np.full(n, float(start[0])), np.full(n, float(start[1]))
    i, s = np.full(n, int(start[2])), np.full(n, float(start[3]))
    steps = []
    while live.size:
        w = length(s, _take_open(take, live))
        t1 = t + w
        cut = t1 > horizon
        if cut.any():
            tc, sc = t[cut], s[cut]
            steps.append((live[cut], tc, np.full(len(tc), horizon), p[cut], i[cut], sc,
                          sc + (horizon - tc), np.zeros(len(tc), dtype=int)))
            go = ~cut
            live, t, t1, p, i, s, w = (x[go] for x in (live, t, t1, p, i, s, w))
            if not live.size:
                break
        y = s + w
        mark, p_next, i_next, s_next = event(p, i, y, take(live))
        steps.append((live, t, t1, p, i, s, y, mark))
        t, p, i, s = t1, p_next, i_next, s_next
    path, *columns = (np.concatenate(col) for col in zip(*steps))
    order = np.argsort(path, kind="stable")
    return path[order], tuple(col[order] for col in columns)


def _path_uniforms(seed: int, lo: int, n: int):
    """``take(rows)`` for the streams ``path_rng(seed, idx)``, ``lo <= idx <
    lo + n``: the next uniform of every path in ``rows`` (block-local),
    computed in arrays with no Generator.

    :func:`_pcg_states` seeds the block.  A take steps the PCG64 state of
    each listed path once and returns the XSL-RR output of the new state
    (the xor of its words rotated right by its top 6 bits) as numpy's
    ``next_double`` does: the output's top 53 bits times ``2**-53``."""
    state, inc = _pcg_states(seed, lo, n)

    def take(rows):
        with np.errstate(over="ignore"):  # uint64 arithmetic wraps mod 2**64
            hi, low = _lcg_step(*state[:, rows], *inc[:, rows])
        state[0, rows], state[1, rows] = hi, low
        xor, rot = hi ^ low, hi >> _U58
        bits = (xor >> rot) | (xor << ((_U64 - rot) & _U63))
        return (bits >> _U11) * 2.0**-53

    return take


def _blocks(steps, start, horizon: float, n_paths: int, uniforms):
    """Paths ``0 .. n_paths - 1`` of :func:`_block` with ``steps = (rate,
    length, event)``, segments ending at most at ``rate``: blocks of at most
    ``_SEED_BLOCK`` paths and ``_BLOCK_ROWS`` expected segments, paths
    ``lo .. lo + n - 1`` drawing from the take ``uniforms(lo, n)``.  Yields
    the first path index, each segment's block-local path index, the mask of
    each path's last segment and the columns; refused as
    :func:`renewal_segments`."""
    rate, *step = steps
    _check_start(start[0], start[3], horizon)
    # a path has _draw_bound / 2 segments or fewer in expectation
    size = max(1, min(_SEED_BLOCK, 2 * _BLOCK_ROWS // _draw_bound(rate, horizon - start[0])))
    for lo in range(0, n_paths, size):
        n = min(size, n_paths - lo)
        path, columns = _block(*step, start, horizon, n, uniforms(lo, n))
        yield lo, path, np.append(path[1:] != path[:-1], True), columns


def _one_path(steps, start, horizon: float, rng):
    """The segment tuples of one path of :func:`_blocks`, each uniform drawn
    from ``rng`` as the path reads it."""

    def uniforms(lo, n):
        return lambda rows: rng.random(len(rows))

    ((*_, columns),) = _blocks(steps, start, horizon, 1, uniforms)
    return zip(*(col.tolist() for col in columns))


def renewal_blocks(kernel: SemiMarkovKernel, start, horizon: float, n_paths: int, seed: int):
    """Renewal paths ``0 .. n_paths - 1`` from ``start = (t, price, state,
    age)`` to the horizon, marked with successors, path ``idx`` drawn from
    the stream of ``path_rng(seed, idx)`` in arrays (:func:`_blocks`)."""
    yield from _blocks(_renewal(kernel), start, horizon, n_paths, partial(_path_uniforms, seed))


def thinning_blocks(kernel: SemiMarkovKernel, layout: MarkLayout, start, horizon: float,
                    n_paths: int, seed: int):
    """Thinning paths as :func:`renewal_blocks` gives renewal paths, marked
    with codes."""
    steps = _thinning(kernel, layout)
    yield from _blocks(steps, start, horizon, n_paths, partial(_path_uniforms, seed))


def renewal_segments(kernel: SemiMarkovKernel, start, horizon: float, rng):
    """Renewal construction of one path from ``start = (t, price, state,
    age)`` to the horizon, drawn from ``rng``: one segment per holding time,
    marked with the successor state (None on the last).  The path is a block
    of one.  A start time or horizon that is not finite, a start time past
    the horizon, or a start age that is not finite or is negative raises
    ``ValueError`` when the first segment is drawn."""
    for *row, j in _one_path(_renewal(kernel), start, horizon, rng):
        yield (*row, j or None)


def thinning_segments(kernel: SemiMarkovKernel, layout: MarkLayout, start, horizon: float, rng):
    """Thinning construction of one path from ``start = (t, price, state,
    age)`` to the horizon, drawn from ``rng``: one segment per candidate of
    the dominating Poisson stream, thinned ones included, marked with
    ``layout.mark`` of its code (None on the last).  The path is a block of
    one, refused as :func:`renewal_segments` is."""
    for *row, code in _one_path(_thinning(kernel, layout), start, horizon, rng):
        yield (*row, layout.mark(row[3], code))


def order_fill(mark, quotes, big_units: int, price, delta: float, cost: float):
    """Settle market orders against the agent's quotes ``(ask bit, bid bit)``.

    A small order trades its own size on its own side; a big order (a jump
    into ``mark.target``) trades ``big_units`` on the side of the jump.  With
    that side quoted the units trade at exec_price = price*(1 + side*delta),
    ``price`` being the pre-event mid-price (so a big order trades at the
    post-jump price), and the fixed cost is paid: cash changes by
    side*units*(exec_price - side*cost), inventory by -side*units.  ``mark``
    is a :class:`BigJump`, a :class:`SmallOrder` or an int array of order
    codes of a layout whose K is ``big_units``; quotes and ``price`` broadcast.
    Returns ``(side, d_cash, d_inv, executed_units)``, ``side`` being the
    quote side hit (+1 ask, -1 bid); with that side unquoted nothing trades.
    """
    if isinstance(mark, SmallOrder):
        side, units = mark.side, mark.units
    elif isinstance(mark, BigJump):
        side, units = alpha(mark.target), big_units
    else:
        big = mark < SMALL
        slot, units = np.divmod(mark - SMALL, big_units + 1)
        side = np.asarray(SLOT_MOVES)[np.where(big, mark - BIG, slot)]
        units = np.where(big, big_units, units)
    traded = (np.where(side > 0, quotes[0], quotes[1]) != 0) & (units != 0)
    with np.errstate(over="ignore"):  # an infinite fill is refused by its caller
        d_cash = side * units * (price * (1.0 + side * delta) - side * cost)
    return (side, np.where(traded, d_cash, 0.0)[()], np.where(traded, -side * units, 0)[()],
            np.where(traded, units, 0)[()])


# -- built-in policies ----------------------------------------------------


@dataclass(frozen=True)
class FixedQuotePolicy:
    """The same (ask bit, bid bit) at every point: (0, 0) never quotes,
    (1, 1) quotes both sides at all times."""

    ask: int
    bid: int
    name: str

    def __call__(self, t, p, i, s):
        return (self.ask, self.bid)


_COIN_RECORD = np.dtype([("seed", "<u8"), ("t", "<f8"), ("p", "<f8"), ("i", "<i8"), ("s", "<f8")])


@dataclass(frozen=True)
class RandomQuotePolicy:
    """Seeded coin flips per side, a pure function of (t, p, i, s, seed).

    Hash based rather than stateful so the rule stays predictable and
    identical across replays of the same path.  The coins are the first two
    64-bit words of numpy's ``SeedSequence`` of the record (seed, t, p, i,
    s) as ten little-endian 32-bit words, floats as their IEEE bits: the ask
    coin first, each its top 53 bits times ``2**-53``.
    """

    prob: float = 0.5
    seed: int = 0
    name: str = "random"

    def __call__(self, t, p, i, s):
        """Ints at scalar arguments, or int arrays at equal-length arrays,
        each element hashed on its own."""
        t, p, i, s = np.broadcast_arrays(t, p, i, s)
        records = np.empty(t.size, _COIN_RECORD)
        records["seed"] = self.seed & _MASK64
        for name, values in (("t", t), ("p", p), ("i", i), ("s", s)):
            records[name] = values.ravel()
        words = records.view("<u4").reshape(t.size, _COIN_RECORD.itemsize // 4)
        state = _seed_state(list(words.T), 4).astype("<u4").view("<u8")
        l_ask, l_bid = ((state >> _U11) * 2.0**-53 < self.prob).astype(int).T
        if t.ndim == 0:
            return (int(l_ask[0]), int(l_bid[0]))
        return l_ask.reshape(t.shape), l_bid.reshape(t.shape)
