"""Semi-Markov primitives: hazard families, holding-time law, embedded
transition kernel, four-state direction space, and the disjoint mark-interval
layout that drives the Poisson-random-measure construction.

The price-direction process lives on the states {1, 2, 3, 4}.  States 1 and 2
are equivalent to each other, as are 3 and 4; a transition is only allowed
between the two classes.  The direction of the price move entering state ``j``
is ``alpha(j) = (-1)**j``, so each class contains one "down" and one "up"
state and every up/down combination of consecutive moves is covered exactly
once.  A transition i -> j with ``alpha(i) == alpha(j)`` repeats the previous
move direction (continuation); otherwise it reverses it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Union

import numpy as np

__all__ = [
    "STATES",
    "alpha",
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
]

#: The four direction states.  1, 3 enter on a down move; 2, 4 on an up move.
STATES = (1, 2, 3, 4)

_SUCCESSORS = {1: (3, 4), 2: (3, 4), 3: (1, 2), 4: (1, 2)}


def alpha(i: int) -> int:
    """Signed move direction of state ``i``: -1 for odd states, +1 for even."""
    return -1 if i % 2 else 1


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

    def integral(self, y):
        """Integrated intensity on [0, y]."""
        if isinstance(y, (float, int)):
            return self.level * y
        y = np.asarray(y, dtype=float)
        out = self.level * y
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

    @property
    def start_value(self) -> float:
        return self.level

    @property
    def diverging(self) -> bool:
        """Whether the integrated intensity grows without bound."""
        return self.level > 0


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

    def integral(self, y):
        """Closed form: (base + gain) * y - (gain / rate) * (1 - exp(-rate*y))."""
        if isinstance(y, (float, int)):
            return (self.base + self.gain) * y + (self.gain / self.rate) * math.expm1(
                -self.rate * y
            )
        y = np.asarray(y, dtype=float)
        out = (self.base + self.gain) * y + (self.gain / self.rate) * np.expm1(
            -self.rate * y
        )
        return float(out) if out.ndim == 0 else out

    def increment(self, s0, w):
        """Integrated intensity on [s0, s0 + w], formed without the difference
        ``integral(s0 + w) - integral(s0)``, which cancels at large s0;
        broadcasts over both, with a scalar path for the holding-time draws."""
        if isinstance(s0, (float, int)) and isinstance(w, (float, int)):
            return (self.base + self.gain) * w + (self.gain / self.rate) * math.exp(
                -self.rate * s0
            ) * math.expm1(-self.rate * w)
        s0, w = np.asarray(s0, dtype=float), np.asarray(w, dtype=float)
        out = (self.base + self.gain) * w + (self.gain / self.rate) * np.exp(
            -self.rate * s0
        ) * np.expm1(-self.rate * w)
        return float(out) if out.ndim == 0 else out

    @property
    def upper_bound(self) -> float:
        return self.base + self.gain

    @property
    def start_value(self) -> float:
        return self.base

    @property
    def diverging(self) -> bool:
        return self.base > 0 or self.gain > 0


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
      nondecreasing families reduces to a positive value at age zero,
    * the total integrated intensity diverges, so the holding-time
      distribution is proper.
    """

    continuation: IntensitySpec
    reversal: IntensitySpec
    delta: float

    def __post_init__(self):
        if not 0 <= self.delta < 1:
            raise ValueError(f"tick size delta must lie in [0, 1), got {self.delta}")
        floor = self.continuation.start_value + self.reversal.start_value
        if floor <= 0:
            raise ValueError(
                "total intensity vanishes at age 0 "
                f"(continuation start {self.continuation.start_value}, "
                f"reversal start {self.reversal.start_value}); "
                "the embedded transition law would be undefined"
            )
        if not (self.continuation.diverging or self.reversal.diverging):
            raise ValueError(
                "total integrated intensity must diverge for the holding time "
                "to be almost-surely finite"
            )

    # -- raw intensities -------------------------------------------------

    @property
    def intensity_bound(self) -> float:
        """Uniform bound on each one-sided intensity."""
        return max(self.continuation.upper_bound, self.reversal.upper_bound)

    def total_intensity(self, y):
        return self.continuation.value(y) + self.reversal.value(y)

    def integrated_intensity(self, y):
        return self.continuation.integral(y) + self.reversal.integral(y)

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
        if equivalent(i, j):
            raise ValueError(f"invalid transition {i} -> {j}: states are equivalent")
        num = self.directed_intensity(i, j, y)
        den = self.total_intensity(y)
        if isinstance(den, float):
            if den <= 0:
                raise ValueError("total intensity is zero; transition law undefined")
            return num / den
        if np.any(den <= 0):
            raise ValueError("total intensity is zero; transition law undefined")
        out = np.asarray(num, dtype=float) / den
        return float(out) if out.ndim == 0 else out

    def transition_weights(self, i: int, y: float) -> tuple[tuple[int, int], tuple[float, float]]:
        """Successor states of ``i`` (ascending) and their probabilities at age y."""
        succ = successors(i)
        first = self.transition_prob(i, succ[0], float(y))
        return succ, (first, 1.0 - first)


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

    def boundaries(self, s: float) -> np.ndarray:
        """Right endpoints of the consecutive intervals at age ``s``.

        Order: continuation, reversal, ask sizes 0..K, bid sizes 0..K.
        """
        lengths = [
            self.kernel.continuation.value(s),
            self.kernel.reversal.value(s),
        ]
        lam_a = self.ask_flow.value(s)
        lengths.extend(lam_a * q for q in self.ask_sizes)
        lam_b = self.bid_flow.value(s)
        lengths.extend(lam_b * q for q in self.bid_sizes)
        return np.cumsum(lengths)

    def classify(self, i: int, s: float, z: float):
        """Resolve a mark coordinate ``z`` at age ``s`` with current state ``i``.

        Returns a :class:`BigJump`, a :class:`SmallOrder`, or :data:`NO_EVENT`.
        Intervals are left closed and right open.
        """
        if s < 0:
            raise ValueError("age must be nonnegative")
        if z < 0:
            return NO_EVENT
        bounds = self.boundaries(s)
        if z >= bounds[-1]:
            return NO_EVENT
        idx = int(np.searchsorted(bounds, z, side="right"))
        if idx == 0:
            j = next(j for j in successors(i) if alpha(j) == alpha(i))
            return BigJump(j)
        if idx == 1:
            j = next(j for j in successors(i) if alpha(j) != alpha(i))
            return BigJump(j)
        idx -= 2
        n_sizes = len(self.ask_sizes)
        if idx < n_sizes:
            return SmallOrder(side=+1, units=idx)
        return SmallOrder(side=-1, units=idx - n_sizes)
