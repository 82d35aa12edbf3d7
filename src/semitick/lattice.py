"""Multiplicative price lattice of jump-reachable prices.

Every simulated price is p0 * (1 + delta)**a * (1 - delta)**b for nonnegative
integer move counts (a, b).  Solving on this lattice (truncated at a + b <=
n_max) removes all price-interpolation error; the truncation level is chosen
from the Poisson tail of the dominating jump count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

__all__ = ["PriceLattice", "max_jumps_for_tail"]

_JUMP_CAP = 80
# pmf terms 0..400: past 400 the Poisson tail is negligible beside every
# exceedance the cap allows (a mean above the cap puts all its mass beyond it)
_TAIL_TERMS = 401


def max_jumps_for_tail(intensity_bound: float, horizon: float, tail_tol: float) -> int:
    """Smallest jump budget whose Poisson exceedance is below ``tail_tol``.

    Jump times are a thinning of a homogeneous Poisson stream with rate twice
    the one-sided intensity bound, so the count over the horizon is dominated
    by a Poisson variable with that mean.  Budgets above 80 jumps raise.

    The exceedance ``sf(k)`` is ``1 - cdf(k)`` while ``cdf(k) < 0.5`` and
    otherwise the upper-tail sum accumulated from the smallest term, both over
    a fixed number of pmf terms, so the cost does not depend on the mean.
    """
    mu = 2.0 * intensity_bound * horizon
    if not (math.isfinite(mu) and mu >= 0.0):
        raise ValueError(
            f"the jump-count mean 2 * intensity bound * horizon = {mu!r} "
            "must be finite and nonnegative"
        )
    if not 0.0 < tail_tol < 1.0:
        raise ValueError(f"the jump tail tolerance must lie in (0, 1), got {tail_tol!r}")
    log_mu = math.log(mu) if mu > 0.0 else -math.inf
    pmf = [math.exp(-mu)] + [
        math.exp(j * log_mu - mu - math.lgamma(j + 1.0)) for j in range(1, _TAIL_TERMS)
    ]
    upper = [0.0] * _TAIL_TERMS  # upper[k] = sum of pmf[k + 1:], smallest first
    for j in range(_TAIL_TERMS - 1, 0, -1):
        upper[j - 1] = upper[j] + pmf[j]
    cdf = pmf[0]
    for k in range(1, _JUMP_CAP + 1):
        cdf += pmf[k]
        sf = 1.0 - cdf if cdf < 0.5 else upper[k]
        if sf < tail_tol:
            return k
    raise ValueError(
        f"a jump tail below {tail_tol:g} over horizon {horizon:g} (Poisson mean {mu:g}) "
        f"needs more than {_JUMP_CAP} jumps, the cap (tail mass at {_JUMP_CAP}: {sf:.3g})"
    )


@dataclass
class PriceLattice:
    """Reachable prices within ``n_max`` jumps around the anchor ``p0``.

    Nodes are ordered by total move count and then by up-move count, so the
    layout is deterministic.  ``up_index`` / ``down_index`` map each node to
    its jump image, -1 on the truncation boundary.

    ``n_report`` marks the externally requested truncation; layers beyond it
    are numerical guard rings that keep the boundary envelope extrapolation
    from polluting reported values.
    """

    p0: float
    delta: float
    n_max: int
    n_report: Optional[int] = None
    a_counts: np.ndarray = field(init=False)
    b_counts: np.ndarray = field(init=False)
    prices: np.ndarray = field(init=False)
    up_index: np.ndarray = field(init=False)
    down_index: np.ndarray = field(init=False)

    def __post_init__(self):
        if self.p0 <= 0:
            raise ValueError("anchor price must be positive")
        if not 0 <= self.delta < 1:
            raise ValueError("lattice requires delta in [0, 1)")
        # delta == 0 collapses every node onto the anchor price; the layout
        # stays valid and all values coincide, which is what a zero tick means
        if self.n_max < 1:
            raise ValueError("n_max must be >= 1")
        if self.n_report is None:
            self.n_report = self.n_max
        if not 1 <= self.n_report <= self.n_max:
            raise ValueError("n_report must lie in [1, n_max]")
        index = {}
        a_list, b_list = [], []
        for total in range(self.n_max + 1):
            for a in range(total + 1):
                index[(a, total - a)] = len(a_list)
                a_list.append(a)
                b_list.append(total - a)
        self._index = index
        self.a_counts = np.array(a_list)
        self.b_counts = np.array(b_list)
        log_u = np.log1p(self.delta)
        log_d = np.log1p(-self.delta)
        # a price past the float range is inf here; the solver refuses such a
        # lattice by its initial price and tick
        with np.errstate(over="ignore"):
            self.prices = self.p0 * np.exp(self.a_counts * log_u + self.b_counts * log_d)
        pairs = list(zip(a_list, b_list))
        self.up_index = np.array([index.get((a + 1, b), -1) for a, b in pairs], dtype=int)
        self.down_index = np.array([index.get((a, b + 1), -1) for a, b in pairs], dtype=int)
        self._sorted = np.argsort(self.prices)
        self._sorted_prices = self.prices[self._sorted]

    @property
    def n_nodes(self) -> int:
        return len(self.prices)

    @property
    def report_mask(self) -> np.ndarray:
        """Nodes inside the requested truncation (guard rings excluded)."""
        return (self.a_counts + self.b_counts) <= self.n_report

    def index_of(self, a: int, b: int) -> int:
        return self._index[(a, b)]

    def locate(self, p, rtol: float = 1e-9):
        """Node whose price matches ``p`` within relative tolerance: an int at
        a scalar ``p``, an int array of ``p``'s shape at an array.

        Each price takes the nearest of the three sorted prices around its
        ``searchsorted`` position.  Raises ``ValueError`` when no lattice
        price is that close; adjacent lattice prices differ at order
        delta**2 at worst, far above the tolerance.
        """
        p = np.asarray(p, dtype=float)
        ranked = self._sorted_prices
        cand = np.searchsorted(ranked, p)[..., None] + np.arange(-1, 2)
        inside = (cand >= 0) & (cand < len(ranked))
        cand = np.clip(cand, 0, len(ranked) - 1)
        err = np.where(inside, np.abs(ranked[cand] - p[..., None]), np.inf)
        best = np.argmin(err, axis=-1)[..., None]
        best_err = np.take_along_axis(err, best, axis=-1)[..., 0]
        # written so that a NaN or infinite price misses too
        missed = ~(best_err <= rtol * np.maximum(np.abs(p), 1e-300)) | np.isinf(p)
        if missed.any():
            bad = float(p[missed].flat[0])
            raise ValueError(
                f"price {bad!r} is not on the price lattice "
                f"(anchor {self.p0!r}, delta {self.delta!r})"
            )
        node = self._sorted[np.take_along_axis(cand, best, axis=-1)[..., 0]]
        return int(node) if node.ndim == 0 else node

    def image_maps(self, direction: int) -> tuple[np.ndarray, np.ndarray]:
        """Jump-image indices and linear-growth envelope scales.

        For boundary nodes the image is replaced by the node itself scaled by
        (1 + image price) / (1 + node price): values beyond the truncation are
        extrapolated along their linear-growth envelope, and by construction
        such nodes carry probability mass below the tail tolerance.
        """
        raw = self.up_index if direction > 0 else self.down_index
        idx = raw.copy()
        scale = np.ones(self.n_nodes)
        boundary = raw < 0
        if boundary.any():
            idx[boundary] = np.nonzero(boundary)[0]
            img_price = self.prices[boundary] * (1.0 + direction * self.delta)
            scale[boundary] = (1.0 + img_price) / (1.0 + self.prices[boundary])
        return idx, scale
