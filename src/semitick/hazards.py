"""Semi-Markov primitives: hazard families, holding-time law, embedded
transition kernel, four-state direction space, and the disjoint mark-interval
layout that drives the Poisson-random-measure construction.

The price-direction process lives on the states {1, 2, 3, 4}.  States 1 and 2
are equivalent to each other, as are 3 and 4; a transition is only allowed
between the two classes.  The direction of the price move entering state ``j``
is ``alpha(j) = (-1)**j``, so each class contains one "down" and one "up"
state and every up/down combination of consecutive moves is covered exactly
once.  A transition i -> j with ``alpha(i) == alpha(j)`` repeats the previous
move direction (continuation); otherwise it reverses it.  Successor slots:
``successors(i)[b]`` is entered on the price move ``SLOT_MOVES[b]``, down for
``b = 0`` and up for ``b = 1``, for every ``i``.

An intensity family is nondecreasing and bounded, and is given by three
members: ``value(y)``, ``increment(s0, w)`` (its integral over ``[s0, s0 + w]``)
and ``upper_bound``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

__all__ = [
    "STATES",
    "SLOT_MOVES",
    "SUCCESSOR_INDEX",
    "alpha",
    "direction_index",
    "successors",
    "equivalent",
    "ConstantIntensity",
    "SaturatingIntensity",
    "IntensitySpec",
    "SemiMarkovKernel",
    "MarkLayout",
    "BigJump",
    "SmallOrder",
    "NoEvent",
    "NO_EVENT",
    "TERMINAL",
    "THINNED",
    "BIG",
    "SMALL",
]

#: The four direction states.  1, 3 enter on a down move; 2, 4 on an up move.
STATES = (1, 2, 3, 4)

#: The price move entering ``successors(i)[b]``, for every state ``i``.
SLOT_MOVES = (-1, +1)

#: The index in ``STATES`` of ``successors(STATES[k])[b]``, per (state index
#: ``k``, successor slot ``b``): each class moves to the other class.
SUCCESSOR_INDEX = np.array([[2, 3], [2, 3], [0, 1], [0, 1]])
SUCCESSOR_INDEX.flags.writeable = False

_SUCCESSORS = {
    i: tuple(STATES[j] for j in row) for i, row in zip(STATES, SUCCESSOR_INDEX.tolist())
}


def alpha(i):
    """Signed move direction of state ``i``: -1 for odd states, +1 for even;
    elementwise on integer arrays."""
    return 1 - 2 * (i % 2)


def direction_index(i):
    """Index in ``SLOT_MOVES`` of ``alpha(i)``: 0 for states 1, 3 and 1 for 2, 4; elementwise."""
    return 1 - i % 2


def equivalent(i: int, j: int) -> bool:
    """True when ``i`` and ``j`` belong to the same class {1,2} or {3,4}."""
    return (i <= 2) == (j <= 2)


def successors(i: int) -> tuple[int, int]:
    """The two states reachable from ``i``, in increasing order."""
    return _SUCCESSORS[i]


@dataclass(frozen=True)
class ConstantIntensity:
    """Flat intensity h(y) = level."""

    level: float

    def __post_init__(self):
        if self.level < 0:
            raise ValueError(f"intensity level must be >= 0, got {self.level}")

    def value(self, y):
        if isinstance(y, (float, int)):
            if y < 0:
                raise ValueError("age must be nonnegative")
            return self.level
        y = np.asarray(y, dtype=float)
        if y.size and y.min() < 0:
            raise ValueError("age must be nonnegative")
        out = np.full_like(y, self.level)
        return float(out) if out.ndim == 0 else out

    def increment(self, s0, w):
        """Integrated intensity on [s0, s0 + w]; broadcasts over both."""
        if isinstance(s0, (float, int)) and isinstance(w, (float, int)):
            return self.level * w
        _, w = np.broadcast_arrays(np.asarray(s0, dtype=float), np.asarray(w, dtype=float))
        out = self.level * w
        return float(out) if out.ndim == 0 else out

    @property
    def upper_bound(self) -> float:
        return self.level


# phi(x) = x + expm1(-x) = x**2 * sum over m >= 0 of (-x)**m / (m + 2)!; below
# the cutoff the sum cancels, so the series is summed instead (by Horner, highest
# power first), its first dropped term below 1e-17 relative at x = 0.5
_PHI_CUT = 0.5
_PHI_SERIES = tuple((-1) ** m / math.factorial(m + 2) for m in reversed(range(14)))


def _phi(x):
    """``x + expm1(-x)`` for ``x >= 0``, a float or an array, accurate to a few
    ulps: by its Taylor series below ``_PHI_CUT``, directly above it."""
    if isinstance(x, float):
        if x >= _PHI_CUT:
            return x + math.expm1(-x)
        acc = 0.0
        for c in _PHI_SERIES:
            acc = acc * x + c
        return acc * x * x
    small = np.minimum(x, _PHI_CUT)  # keeps the series finite where it is not used
    acc = np.full_like(small, _PHI_SERIES[0])
    for c in _PHI_SERIES[1:]:
        acc *= small
        acc += c
    return np.where(x < _PHI_CUT, acc * small * small, x + np.expm1(-x))


@dataclass(frozen=True)
class SaturatingIntensity:
    """Intensity h(y) = base + gain * (1 - exp(-rate * y)).

    Continuously differentiable, bounded by ``base + gain`` and increasing
    from ``base`` at age zero toward the bound.
    """

    base: float
    gain: float
    rate: float

    def __post_init__(self):
        if self.base < 0 or self.gain < 0:
            raise ValueError("base and gain must be >= 0")
        if self.rate <= 0:
            raise ValueError(f"rate must be > 0, got {self.rate}")

    def value(self, y):
        if isinstance(y, (float, int)):
            if y < 0:
                raise ValueError("age must be nonnegative")
            return self.base - self.gain * math.expm1(-self.rate * y)
        y = np.asarray(y, dtype=float)
        if y.size and y.min() < 0:
            raise ValueError("age must be nonnegative")
        out = self.base - self.gain * np.expm1(-self.rate * y)
        return float(out) if out.ndim == 0 else out

    def increment(self, s0, w):
        """Integrated intensity on [s0, s0 + w], as
        ``base * w + (gain / rate) * phi(rate * w) + (gain / rate) *
        expm1(-rate * s0) * expm1(-rate * w)``: a sum of nonnegative terms, so
        it cancels neither at large s0, as the difference of the integrated
        intensities at s0 + w and s0 does, nor at small w; broadcasts over
        both, and only the last product takes their joint shape."""
        scale = self.gain / self.rate
        if isinstance(s0, (float, int)) and isinstance(w, (float, int)):
            x = self.rate * w
            return (
                self.base * w + scale * _phi(x)
                + scale * math.expm1(-self.rate * s0) * math.expm1(-x)
            )
        s0, w = np.asarray(s0, dtype=float), np.asarray(w, dtype=float)
        x = self.rate * w
        out = (self.base * w + scale * _phi(x)) + (scale * np.expm1(-self.rate * s0)) * np.expm1(-x)
        return float(out) if out.ndim == 0 else out

    @property
    def upper_bound(self) -> float:
        return self.base + self.gain


IntensitySpec = Union[ConstantIntensity, SaturatingIntensity]


@dataclass(frozen=True)
class SemiMarkovKernel:
    """Holding-time and transition law of the direction process.

    ``continuation`` is the intensity of repeating the last move direction,
    ``reversal`` the intensity of flipping it.  ``delta`` is the constant
    absolute simple return per price jump; each jump multiplies the mid-price
    by ``1 + delta * alpha(j)``.

    Validated at construction:

    * both intensities bounded (their families guarantee it),
    * the total intensity is positive at every age, which for these
      nondecreasing families reduces to a positive value at age zero; the
      total integrated intensity then diverges, so the holding-time
      distribution is proper, and the embedded transition law is defined at
      every age.
    """

    continuation: IntensitySpec
    reversal: IntensitySpec
    delta: float

    def __post_init__(self):
        if not 0 <= self.delta < 1:
            raise ValueError(f"tick size delta must lie in [0, 1), got {self.delta}")
        cont, rev = self.continuation.value(0.0), self.reversal.value(0.0)
        if cont + rev <= 0:
            raise ValueError(
                "total intensity vanishes at age 0 "
                f"(continuation start {cont}, reversal start {rev}); "
                "the embedded transition law would be undefined"
            )

    # -- raw intensities -------------------------------------------------

    @property
    def intensity_bound(self) -> float:
        """Uniform bound on each one-sided intensity."""
        return max(self.continuation.upper_bound, self.reversal.upper_bound)

    def total_intensity(self, y):
        return self.continuation.value(y) + self.reversal.value(y)

    def integrated_intensity(self, y):
        """Total integrated intensity on [0, y]."""
        return self.integrated_increment(0.0, y)

    def integrated_increment(self, s0, w):
        """Total integrated intensity on [s0, s0 + w], the log-survival of a
        holding of length ``w`` that starts at age ``s0``; broadcasts over both."""
        return self.continuation.increment(s0, w) + self.reversal.increment(s0, w)

    def directed_intensity(self, i: int, j: int, y):
        """Intensity of the specific transition i -> j at holding age y."""
        if equivalent(i, j):
            raise ValueError(f"invalid transition {i} -> {j}: states are equivalent")
        if alpha(i) == alpha(j):
            return self.continuation.value(y)
        return self.reversal.value(y)

    @property
    def is_memoryless(self) -> bool:
        """True when both intensities are flat, i.e. holding times are exponential."""
        return isinstance(self.continuation, ConstantIntensity) and isinstance(
            self.reversal, ConstantIntensity
        )

    # -- holding-time law ------------------------------------------------

    def holding_cdf(self, y):
        """Distribution function of the holding time, strictly below 1."""
        out = -np.expm1(-np.asarray(self.integrated_intensity(y)))
        return float(out) if out.ndim == 0 else out

    def holding_pdf(self, y):
        """Density of the holding time: total intensity times survival."""
        lam = np.asarray(self.integrated_intensity(y))
        out = np.asarray(self.total_intensity(y)) * np.exp(-lam)
        return float(out) if out.ndim == 0 else out

    def transition_prob(self, i: int, j: int, y):
        """Probability that the next state is ``j`` given the holding lasted ``y``."""
        return self.directed_intensity(i, j, y) / self.total_intensity(y)

    def transition_weights(self, i, y) -> tuple[tuple, tuple]:
        """Successor states of ``i`` (ascending) and their probabilities at
        age y; broadcasts over an integer array ``i`` and ``y``, with arrays
        in place of the two states and the two probabilities, and gives ints
        and floats at scalars."""
        i = np.asarray(i)
        off = ~np.isin(i, STATES)
        if off.any():
            raise ValueError(f"state {i[off].flat[0].item()!r} is not one of {STATES}")
        succ = STATES[0] + SUCCESSOR_INDEX[i - STATES[0], 0]
        cont, rev = self.continuation.value(y), self.reversal.value(y)
        first = np.where(alpha(succ) == alpha(i), cont, rev) / (cont + rev)
        if first.ndim == 0:
            return (int(succ), int(succ) + 1), (float(first), 1.0 - float(first))
        return (succ, succ + 1), (first, 1.0 - first)


# -- mark layout ---------------------------------------------------------


@dataclass(frozen=True)
class BigJump:
    """A price-moving order; the direction process enters ``target``."""

    target: int


@dataclass(frozen=True)
class SmallOrder:
    """A non-price-moving order on side ``side`` (+1 ask, -1 bid), ``units`` traded."""

    side: int
    units: int


class NoEvent:
    """Mark fell outside every interval; nothing happens."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "NoEvent"


NO_EVENT = NoEvent()

#: Mark codes of thinning: the horizon cut, a thinned candidate, a big jump into
#: successor slot ``b`` as ``BIG + b`` and a small order of ``u`` units on side
#: slot ``b`` (moving as ``SLOT_MOVES[b]``: 0 bid, 1 ask) as ``SMALL + b * (K + 1) + u``.
TERMINAL, THINNED, BIG = 0, 1, 2
SMALL = BIG + len(SLOT_MOVES)


@dataclass(frozen=True)
class MarkLayout:
    """Disjoint mark intervals resolving Poisson points into order events.

    At age ``s`` the mark axis is split, starting at zero, into

    * the continuation and reversal big-order intervals, with lengths equal
      to the corresponding intensities at ``s``,
    * for each side and each trade size ``k`` in ``0..K``, a small-order
      interval of length ``flow(s) * size_dist[k]``.

    Everything beyond the total mass maps to no event.  The fixed ordering
    makes classification deterministic and testable; only disjointness is
    structurally required.
    """

    kernel: SemiMarkovKernel
    ask_flow: IntensitySpec
    bid_flow: IntensitySpec
    ask_sizes: tuple[float, ...]
    bid_sizes: tuple[float, ...]

    def __post_init__(self):
        for name, dist in (("ask_sizes", self.ask_sizes), ("bid_sizes", self.bid_sizes)):
            arr = np.asarray(dist, dtype=float)
            if arr.ndim != 1 or arr.size < 1:
                raise ValueError(f"{name} must be a nonempty 1-d distribution")
            if np.any(arr < 0):
                raise ValueError(f"{name} has negative entries")
            if abs(arr.sum() - 1.0) > 1e-9:
                raise ValueError(
                    f"{name} must sum to 1 (got {arr.sum():.12g}); renormalise the "
                    "trade-size distribution"
                )
        if len(self.ask_sizes) != len(self.bid_sizes):
            raise ValueError("ask and bid size distributions must share the support 0..K")
        object.__setattr__(self, "ask_sizes", tuple(float(v) for v in self.ask_sizes))
        object.__setattr__(self, "bid_sizes", tuple(float(v) for v in self.bid_sizes))
        # per state index, the mark code of a coordinate below zero, of each
        # interval in layout order (the continuation's slot repeats alpha(i)),
        # and of a coordinate past the total mass
        n = len(self.ask_sizes)
        small = [SMALL + n + u for u in range(n)] + [SMALL + u for u in range(n)]
        codes = [[THINNED, BIG + c, BIG + 1 - c, *small, THINNED]
                 for c in ((alpha(i) + 1) // 2 for i in STATES)]
        object.__setattr__(self, "_codes", np.array(codes))
        # the interval ends of a memoryless layout are the same at every age
        fixed = self.boundaries(0.0) if self.is_memoryless else None
        object.__setattr__(self, "_fixed_ends", fixed)

    @property
    def max_units(self) -> int:
        """Largest tradable size K; big orders always execute exactly K units."""
        return len(self.ask_sizes) - 1

    @property
    def flow_bound(self) -> float:
        """Uniform bound on each one-sided order-flow intensity."""
        return max(self.ask_flow.upper_bound, self.bid_flow.upper_bound)

    @property
    def mark_domain(self) -> float:
        """Width of the dominating mark rectangle: 2*c1 + 2*c2."""
        return 2.0 * self.kernel.intensity_bound + 2.0 * self.flow_bound

    @property
    def is_memoryless(self) -> bool:
        """Flat hazards and flat order flow: nothing depends on the age."""
        return (
            self.kernel.is_memoryless
            and isinstance(self.ask_flow, ConstantIntensity)
            and isinstance(self.bid_flow, ConstantIntensity)
        )

    def side_flow(self, side: int) -> IntensitySpec:
        return self.ask_flow if side > 0 else self.bid_flow

    def side_sizes(self, side: int) -> tuple[float, ...]:
        return self.ask_sizes if side > 0 else self.bid_sizes

    def mean_size(self, side: int) -> float:
        """Expected executed units of a small order on the given side."""
        dist = np.asarray(self.side_sizes(side))
        return float(np.dot(np.arange(dist.size), dist))

    def total_mass(self, s) -> float:
        """Summed interval length at age ``s``; at most ``mark_domain``."""
        return (
            self.kernel.total_intensity(s)
            + self.ask_flow.value(s)
            + self.bid_flow.value(s)
        )

    def boundaries(self, s):
        """Right endpoints of the consecutive intervals at age ``s``, a float
        or an array, on a trailing axis, summed in order by ``np.cumsum``.

        Order: continuation, reversal, ask sizes 0..K, bid sizes 0..K.
        """
        lam_a, lam_b = self.ask_flow.value(s), self.bid_flow.value(s)
        lengths = [self.kernel.continuation.value(s), self.kernel.reversal.value(s)]
        lengths += [lam_a * q for q in self.ask_sizes] + [lam_b * q for q in self.bid_sizes]
        if np.ndim(s) == 0:
            return np.cumsum(lengths)
        return np.cumsum(np.stack(lengths, axis=-1), axis=-1)

    def mark_codes(self, i, s, z):
        """Mark codes of coordinates ``z`` at ages ``s`` in states ``i`` (arrays
        or scalars): the left-closed interval holding ``z``, by ``searchsorted``
        on the ends (fixed when memoryless); ``THINNED`` outside the mass."""
        ends = self._fixed_ends if self._fixed_ends is not None else self.boundaries(s)
        if ends.ndim == 1:
            k = np.searchsorted(ends, z, side="right")
        else:
            k = np.count_nonzero(ends <= z[..., None], axis=-1)
        return self._codes[np.asarray(i) - STATES[0], k + (z >= 0.0)]

    def mark(self, i: int, code: int):
        """The mark object of ``code`` in state ``i``: None at the horizon
        cut, :data:`NO_EVENT`, a :class:`BigJump` or a :class:`SmallOrder`."""
        if code == TERMINAL:
            return None
        if code == THINNED:
            return NO_EVENT
        if code < SMALL:
            return BigJump(successors(i)[code - BIG])
        slot, units = divmod(code - SMALL, self.max_units + 1)
        return SmallOrder(SLOT_MOVES[slot], units)

    def classify(self, i: int, s: float, z: float):
        """Resolve a mark coordinate ``z`` at age ``s`` with current state ``i``.

        Returns a :class:`BigJump`, a :class:`SmallOrder`, or :data:`NO_EVENT`,
        from :meth:`mark_codes`; the benchmark tracer patches this name.
        """
        if s < 0:
            raise ValueError("age must be nonnegative")
        return self.mark(i, int(self.mark_codes(i, s, z)))
