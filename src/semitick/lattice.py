"""Multiplicative price lattice of jump-reachable prices.

Every simulated price is p0 * (1 + delta)**a * (1 - delta)**b for nonnegative
integer move counts (a, b).  Solving on this lattice (truncated at a + b <=
n_max) removes all price-interpolation error; the truncation level is chosen
from the Poisson tail of the dominating jump count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.stats import poisson

__all__ = ["PriceLattice", "max_jumps_for_tail"]


def max_jumps_for_tail(intensity_bound: float, horizon: float, tail_tol: float) -> int:
    """Smallest jump budget whose Poisson exceedance is below ``tail_tol``.

    Jump times are a thinning of a homogeneous Poisson stream with rate twice
    the one-sided intensity bound, so the count over the horizon is dominated
    by a Poisson variable with that mean.  Budgets above 80 jumps raise.
    """
    mu = 2.0 * intensity_bound * horizon
    n = max(int(poisson.isf(tail_tol, mu)), 1)
    while poisson.sf(n, mu) >= tail_tol:
        n += 1
    if n > 80:
        raise ValueError(f"a jump tail below {tail_tol:g} over horizon {horizon:g} needs {n} "
                         f"jumps, above the cap of 80 (tail mass at 80: {poisson.sf(80, mu):.3g})")
    return n


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

    def locate(self, p: float, rtol: float = 1e-9) -> int:
        """Node whose price matches ``p`` within relative tolerance.

        Raises when no lattice price is that close; adjacent lattice prices
        differ at order delta**2 at worst, far above the tolerance.
        """
        pos = np.searchsorted(self._sorted_prices, p)
        best, best_err = -1, np.inf
        for cand in (pos - 1, pos, pos + 1):
            if 0 <= cand < len(self._sorted_prices):
                err = abs(self._sorted_prices[cand] - p)
                if err < best_err:
                    best, best_err = cand, err
        node = self._sorted[best]
        if best_err > rtol * max(abs(p), 1e-300):
            raise KeyError(
                f"price {p!r} is not on the lattice "
                f"(nearest {self.prices[node]!r}, rel err {best_err / p:.3e})"
            )
        return int(node)

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
