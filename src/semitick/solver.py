"""Fixed-point solver for the terminal value problem of the tick-price model.

The value of a terminal payoff g plus a running source w solves an integral
fixed-point equation whose unknown enters only through its age-zero slices.
Picard iteration therefore runs on a core array indexed by (move direction,
time node, price lattice node), one contiguous (time, node) block per
direction; any other age is recovered afterwards from the core by a single
application of the operator at that age (:func:`extension_slice`), by one
sweep along the characteristics for every grid age at once
(:class:`_CharacteristicSweep`, run on blocks of lattice nodes), or exactly
at scattered points (:meth:`ValueField.read`).

Quadrature along the time axis is composite Simpson on the uniform grid, with
the leading interval of odd-length rows handled by a Simpson step whose
midpoint value is linearly interpolated.  All weights are folded into
triangular kernel matrices built once per solve, so one Picard sweep costs a
handful of matrix products.
"""

from __future__ import annotations

import json
import math
import mmap
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

import numpy as np

from .hazards import SLOT_MOVES, STATES, SemiMarkovKernel, direction_index
from .lattice import PriceLattice, max_jumps_for_tail

__all__ = [
    "GridSpec",
    "ProblemSpec",
    "ValueField",
    "ResidualStats",
    "SolverError",
    "ConvergenceError",
    "solve_fixed_point",
    "extension_slice",
    "solve_expected_price",
    "expected_price_ode_oracle",
    "contraction_bound",
    "pde_residual",
    "save_field_csv",
]

# points per block of the exact extension read; its temporaries are O(chunk * n_t)
_READ_CHUNK = 1024


class SolverError(RuntimeError):
    """Raised when the operator produces non-finite values."""


class ConvergenceError(SolverError):
    """Raised when Picard iteration fails to reach tolerance; carries the ratio log."""

    def __init__(self, message: str, diff_norms: list[float], ratios: list[float]):
        super().__init__(message)
        self.diff_norms = diff_norms
        self.ratios = ratios


@dataclass(frozen=True)
class GridSpec:
    """Numerical discretisation parameters.

    ``n_max`` (lattice truncation) defaults to the Poisson-tail budget for
    ``tail_tol``.
    """

    n_t: int
    n_max: Optional[int] = None
    tol_fp: float = 1e-8
    tail_tol: float = 1e-10
    max_iter: int = 400

    def __post_init__(self):
        if self.n_t < 2:
            raise ValueError("n_t must be at least 2")
        for name in ("tol_fp", "tail_tol"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.tol_fp <= 0 or self.tail_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.tail_tol >= 1:
            raise ValueError("tail_tol is a probability and must be below 1")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if self.n_max is not None and self.n_max < 1:
            raise ValueError("n_max must be at least 1")


@dataclass(frozen=True)
class ProblemSpec:
    """Terminal payoff ``g`` and optional running source ``w``.

    ``g`` maps a price array to values of at most linear growth; ``w`` is a
    callable ``w(t, p, i, s)`` broadcasting over ``t``, ``p`` and ``s`` with
    integer state ``i``, which it may depend on only through ``alpha(i)``, as
    the kernel does; the solve refuses one that differs within a direction.
    """

    g: Callable[[np.ndarray], np.ndarray]
    w: Optional[Callable] = None

    def payoff_on(self, prices: np.ndarray) -> np.ndarray:
        vals = np.asarray(self.g(prices), dtype=float)
        if vals.shape != prices.shape:
            vals = np.broadcast_to(vals, prices.shape).astype(float)
        if not np.all(np.isfinite(vals)):
            raise SolverError("terminal payoff produced non-finite values on the lattice")
        return vals


@dataclass
class ValueField:
    """Grid representation of a solved value function.

    ``core`` holds the age-zero values on (direction, time node, lattice
    node), one contiguous (time, node) block ``core[a]`` per direction, read
    linearly in time and exactly in price on the lattice.  A state's value
    depends on it only through ``alpha(i)``: direction 0 of ``SLOT_MOVES``
    holds states 1, 3 and direction 1 states 2, 4.  Every other age is
    computed exactly from the core through the solve context (``kernel`` and
    ``problem``).
    """

    t_grid: np.ndarray
    lattice: PriceLattice
    core: np.ndarray
    kernel: SemiMarkovKernel
    problem: ProblemSpec
    age_invariant: bool = False
    diff_norms: list = field(default_factory=list)
    ratios: list = field(default_factory=list)

    # no age axis is cached; kept, always None, for the benchmark tracer's
    # band counter until the package instruments itself (ROADMAP item 3)
    s_grid = None

    @property
    def horizon(self) -> float:
        return float(self.t_grid[-1])

    @property
    def iterations(self) -> int:
        return len(self.diff_norms)

    def vnorm(self, values: np.ndarray) -> float:
        """Grid version of the linear-growth norm: max |value| / (1 + price)."""
        return _scaled_max(values, 1.0 + self.lattice.prices)

    def eval(self, t: float, p: float, i: int, s: float = 0.0) -> float:
        return float(self.read(t, self.lattice.locate(p), i, s))

    def read(self, t, node, i, s=0.0) -> np.ndarray:
        """Values at broadcast arrays of (time, lattice node, state, age).

        Age zero, or any age of an age-invariant field, interpolates the core
        linearly in time; every other age is extended exactly, all points at
        once, at the two grid times around ``t`` and interpolated between them.
        Refuses a time outside ``[0, horizon]``, an age that is negative or
        not finite, NaN included, a state outside ``STATES`` and a lattice
        node that is not an integer in ``0 .. n_nodes - 1``.
        """
        t, s = np.asarray(t, dtype=float), np.asarray(s, dtype=float)
        off = ~((t >= self.t_grid[0]) & (t <= self.t_grid[-1]))
        if off.any():
            raise ValueError(f"time {float(t[off].flat[0])!r} lies outside [0, {self.horizon!r}]")
        off = ~(np.isfinite(s) & (s >= 0.0))
        if off.any():
            raise ValueError(f"age {float(s[off].flat[0])!r} must be finite and nonnegative")
        i = np.asarray(i)
        off = ~((i >= STATES[0]) & (i <= STATES[-1]) & (np.floor(i) == i))
        if off.any():
            raise ValueError(f"state {i[off].flat[0].item()!r} is not one of {STATES}")
        ii = direction_index(i.astype(int))
        node, n_nodes = np.asarray(node), self.lattice.n_nodes
        off = ~((node >= 0) & (node < n_nodes) & (np.floor(node) == node))
        if off.any():
            raise ValueError(f"lattice node {node[off].flat[0].item()!r} lies outside "
                             f"0..{n_nodes - 1}")
        node = node.astype(np.intp, copy=False)
        if self.age_invariant or not s.any():
            shape = np.broadcast_shapes(t.shape, np.shape(node), ii.shape, s.shape)
            return np.broadcast_to(_interp_time(self.t_grid, t, self.core, ii, node), shape)
        t, node, ii, s = np.broadcast_arrays(t, node, ii, s)
        at_core = s == 0.0
        out = np.empty(t.shape)
        if at_core.any():
            out[at_core] = _interp_time(self.t_grid, t[at_core], self.core, ii[at_core],
                                        node[at_core])
        aged = ~at_core
        out[aged] = self._extended_values(t[aged], node[aged], ii[aged], s[aged])
        return out

    def _extended_values(self, t, node, ii, s):
        n_t = len(self.t_grid) - 1
        ti = np.clip(np.searchsorted(self.t_grid, t) - 1, 0, n_t - 1)
        both = _extension_points(
            self, np.concatenate([ti, ti + 1]), *(np.concatenate([x, x]) for x in (node, ii, s))
        )
        lo, hi = both[: t.size], both[t.size :]
        wgt = (t - self.t_grid[ti]) / (self.t_grid[ti + 1] - self.t_grid[ti])
        return np.where(t == self.t_grid[ti], lo, (1.0 - wgt) * lo + wgt * hi)


def _scaled_max(values: np.ndarray, scale: np.ndarray, out=None) -> float:
    """max |values| / scale over (..., node), in place in ``out`` if given."""
    out = np.abs(values, out=out)
    np.divide(out, scale, out=out)
    return float(np.max(out))


def _interp_time(t_grid: np.ndarray, t, core: np.ndarray, ii, node) -> np.ndarray:
    """``np.interp(t, t_grid, core[ii, :, node])`` bit for bit, where every
    point may have its own direction ``ii`` and lattice ``node``."""
    k = np.clip(np.searchsorted(t_grid, t, side="right") - 1, 0, len(t_grid) - 2)
    y0, y1 = core[ii, k, node], core[ii, k + 1, node]
    slope = (y1 - y0) / (t_grid[k + 1] - t_grid[k])
    out = slope * (t - t_grid[k]) + y0
    return np.where(t >= t_grid[-1], y1, np.where(t < t_grid[0], y0, out))


@dataclass(frozen=True)
class ResidualStats:
    """Normalised interior residual of the characteristic-form equation."""

    max_abs: float
    mean_abs: float


# -- quadrature machinery --------------------------------------------------


def _simpson_weights(n_intervals: int, h: float) -> np.ndarray:
    w = np.ones(n_intervals + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w * (h / 3.0)


def _row_weights(nodes: np.ndarray, half0: float, h: float) -> np.ndarray:
    """Quadrature weights of every row of :func:`_quad_matrix`, each row
    aligned at its own first node: entry ``[k, u]`` weighs ``y[k + u]`` in the
    integral over ``[t_k, T]``, which has ``m = n - k`` intervals.

    Rows with an even interval count get plain composite Simpson.  Odd rows
    spend a Simpson step on their first interval with the integrand's smooth
    factor evaluated exactly at the midpoint (``half0``) and the grid function
    linearly interpolated there, then composite Simpson on the rest.  An entry
    is ``(w * (h/3)) * nodes[u]`` with ``w`` the Simpson weight 1, 4 or 2,
    plus the head step on the second node of an odd row.  ``nodes`` are
    nonnegative, so writing an odd row's Simpson part keeps the bits of
    adding it to zero.  Rows are ``n + 2`` long and zero past their last
    node, so the buffer read flat as ``(n+1, n+1)`` is the triangular matrix.
    """
    n = len(nodes) - 1
    third = h / 3.0
    # away from a row's first Simpson node its weight depends on the intervals
    # left after the node, m - u = n - (k + u): 1 at the row's end, 4 an odd
    # count before it, 2 an even count; read as a Hankel view on (k, u)
    left = np.where(np.arange(n + 1) % 2 == 1, 4.0, 2.0)
    left[0] = 1.0
    hankel = np.concatenate([(left * third)[::-1], np.zeros(n + 1)])
    table = np.multiply(
        np.lib.stride_tricks.sliding_window_view(hankel, n + 2),
        np.append(nodes, 0.0),
        out=np.empty((n + 1, n + 2)),
    )
    # the row of one interval is the head step alone; the horizon row is empty
    table[n - 1 :] = 0.0
    # each composite Simpson part opens with weight 1, on the row's first node
    # or, after a head step, its second
    odd = (n - np.arange(n - 1)) % 2
    table[np.arange(n - 1), odd] = third * nodes[odd]
    odd_rows = np.nonzero((n - np.arange(n)) % 2)[0]
    table[odd_rows, 0] = (h / 6.0) * (nodes[0] + 2.0 * half0)
    table[odd_rows, 1] += (h / 6.0) * (2.0 * half0 + nodes[1])
    return table


def _quad_matrix(nodes: np.ndarray, half0: float, h: float) -> np.ndarray:
    """Triangular matrix Q with Q[k] integrating nodes[m-k]*y[m] over [t_k, T]
    (see :func:`_row_weights`).  Row k of the rows table starts at flat offset
    k*(n+2), which is entry (k, k) of a C-contiguous (n+1, n+1) matrix, and
    the zero tails of the rows fill its lower triangle."""
    n = len(nodes) - 1
    return _row_weights(nodes, half0, h).reshape(-1)[: (n + 1) ** 2].reshape(n + 1, n + 1)


@dataclass
class _OperatorTables:
    """Age-shifted quadrature tables shared by core sweeps and extensions."""

    q_cont: np.ndarray  # kernel matrix for the continuation branch
    q_rev: np.ndarray  # reversal branch
    q_source: np.ndarray  # survival-weighted matrix for the running source
    terminal: np.ndarray  # conditional survival to the horizon, per row


def _build_tables(kernel: SemiMarkovKernel, t_grid: np.ndarray, sigma: float) -> _OperatorTables:
    n_t = len(t_grid) - 1
    h = t_grid[1] - t_grid[0]
    offsets = h * np.arange(n_t + 1)
    ages = sigma + offsets
    # survival ratios from the increment, not a difference of integrated
    # intensities, which cancels at large sigma
    survival = np.exp(-np.asarray(kernel.integrated_increment(sigma, offsets)))
    half_age = sigma + 0.5 * h
    half_surv = math.exp(-kernel.integrated_increment(sigma, 0.5 * h))
    fp_cont = np.asarray(kernel.continuation.value(ages)) * survival
    fp_rev = np.asarray(kernel.reversal.value(ages)) * survival
    half_cont = kernel.continuation.value(half_age) * half_surv
    half_rev = kernel.reversal.value(half_age) * half_surv
    return _OperatorTables(
        q_cont=_quad_matrix(fp_cont, half_cont, h),
        q_rev=_quad_matrix(fp_rev, half_rev, h),
        q_source=_quad_matrix(survival, half_surv, h),
        terminal=survival[::-1].copy(),
    )


def _slot_images(lattice: PriceLattice) -> list:
    """Jump-image indices and scales of the lattice nodes per successor slot."""
    return [lattice.image_maps(d) for d in SLOT_MOVES]


def _pointwise_source(
    problem: ProblemSpec, q_source: np.ndarray, t_grid: np.ndarray, lattice: PriceLattice,
    sigma: float,
) -> np.ndarray:
    """Integrated running source on the (direction, time, node) grid, from
    ``w`` sampled pointwise: for every age node d, ``w`` at age ``sigma + d*h``
    on every (state, time node m >= d, lattice node), folded in with the d-th
    diagonal of the survival-weighted quadrature matrix ``q_source``.  States
    ``STATES[b]`` and ``STATES[b + 2]`` have direction b; a ``w`` that differs
    between them (NaN equals NaN here) is refused, naming both."""
    n_t = len(t_grid) - 1
    h = t_grid[1] - t_grid[0]
    out = np.zeros((len(SLOT_MOVES), n_t + 1, lattice.n_nodes))
    for d in range(n_t + 1):
        age = sigma + d * h
        slab = np.empty((len(STATES), n_t + 1 - d, lattice.n_nodes))
        for m in range(d, n_t + 1):
            for ii, i in enumerate(STATES):
                slab[ii, m - d] = problem.w(t_grid[m], lattice.prices, i, age)
        low, high = slab[:2], slab[2:]
        if not np.array_equal(low, high, equal_nan=True):
            b, m, n = np.argwhere((low != high) & ~(np.isnan(low) & np.isnan(high)))[0]
            raise ValueError(
                f"the running source w may depend on the state only through alpha(i), but "
                f"it differs between states {STATES[b]} and {STATES[b + 2]} at t="
                f"{float(t_grid[m + d])!r}, p={float(lattice.prices[n])!r}, s={age!r}"
            )
        out[:, : n_t + 1 - d] += q_source.diagonal(d)[:, None] * low
    return out


class _AgeOperator:
    """One application of the value operator at a fixed age offset.

    ``source``, when given, maps the survival-weighted quadrature matrix
    ``q_source`` to the integrated running source on the (direction, time,
    node) grid; otherwise a problem with a running source is sampled pointwise
    at the operator's offset (:func:`_pointwise_source`).
    """

    def __init__(
        self,
        kernel: SemiMarkovKernel,
        problem: ProblemSpec,
        t_grid: np.ndarray,
        lattice: PriceLattice,
        sigma: float = 0.0,
        source=None,
    ):
        self.t_grid = t_grid
        self.lattice = lattice
        self.tables = _build_tables(kernel, t_grid, sigma)
        self.payoff = problem.payoff_on(lattice.prices)
        self.images = _slot_images(lattice)
        # [a][b]: per direction a, the kernel matrix of successor slot b, the
        # continuation's where b repeats a
        cont, rev = self.tables.q_cont, self.tables.q_rev
        self.kernels = [[cont, rev], [rev, cont]]
        if source is not None:
            self.source = source(self.tables.q_source)
        elif problem.w is not None:
            self.source = _pointwise_source(problem, self.tables.q_source, t_grid, lattice, sigma)
        else:
            self.source = None
        if self.source is not None and not np.all(np.isfinite(self.source)):
            raise SolverError("running source produced non-finite integrals")

    def apply(self, core: np.ndarray) -> np.ndarray:
        """The operator on ``core``: per direction, the payoff discounted by
        survival to the horizon, plus one kernel-matrix product per successor
        slot, plus the source.

        The successor entered on slot b has direction b, so the jump target
        of slot b is block b of the core at the slot's jump images, gathered
        once and shared by both directions: a sweep is four products on two
        gathered blocks.  Each direction's sum is accumulated in place in its
        block of the result, in the order payoff, slot 0, slot 1, source;
        the discounted payoff is written straight into that block, so it is
        neither kept nor copied.  Besides the result, the two targets and one
        product are held.
        """
        out = np.empty_like(core)
        terminal = self.tables.terminal[:, None]
        targets = [core[b][:, img] * scale for b, (img, scale) in enumerate(self.images)]
        product = np.empty(core.shape[1:])
        for a, kernels in enumerate(self.kernels):
            acc = np.multiply(terminal, self.payoff, out=out[a])
            for q, y in zip(kernels, targets):
                acc += np.matmul(q, y, out=product)
            if self.source is not None:
                acc += self.source[a]
        del targets, product  # freed before the finiteness mask is made
        if not np.all(np.isfinite(out)):
            raise SolverError("operator sweep produced non-finite values")
        return out


# -- public solver surface --------------------------------------------------


def _make_lattice(kernel: SemiMarkovKernel, grid: GridSpec, horizon: float, p0: float):
    n_report = grid.n_max
    if n_report is None:
        n_report = max_jumps_for_tail(kernel.intensity_bound, horizon, grid.tail_tol)
    # guard rings: the boundary envelope extrapolation errs at order delta,
    # attenuated inward by the probability of crossing the guard, so sizing
    # the guard by the fixed-point tolerance keeps reported nodes clean
    guard = max_jumps_for_tail(kernel.intensity_bound, horizon, grid.tol_fp)
    lattice = PriceLattice(
        p0=p0, delta=kernel.delta, n_max=n_report + guard, n_report=n_report
    )
    if not np.all(np.isfinite(lattice.prices)):
        raise SolverError(
            f"the price lattice overflows: {lattice.n_max} jumps from the initial price "
            f"{p0!r} at tick size {kernel.delta!r} leave the float range"
        )
    return lattice


def solve_fixed_point(
    kernel: SemiMarkovKernel,
    problem: ProblemSpec,
    grid: GridSpec,
    horizon: float,
    p0: float,
    source=None,
    lattice: Optional[PriceLattice] = None,
) -> ValueField:
    """Picard iteration from the terminal payoff until the grid norm settles.

    ``source``, when given, maps the survival-weighted quadrature matrix of
    the age-zero operator to the integrated running source on the
    (direction, time, node) grid, in place of pointwise sampling of
    ``problem.w``; it is called once.  Returns the age-zero core with its
    per-step difference norms and contraction ratios.  Raises
    :class:`ConvergenceError` (carrying the ratio history) if
    ``grid.max_iter`` sweeps do not reach ``grid.tol_fp``.
    """
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    t_grid = np.linspace(0.0, horizon, grid.n_t + 1)
    if lattice is None:
        lattice = _make_lattice(kernel, grid, horizon, p0)
    op = _AgeOperator(kernel, problem, t_grid, lattice, 0.0, source)
    core = np.broadcast_to(op.payoff, (len(SLOT_MOVES), grid.n_t + 1, lattice.n_nodes)).copy()
    scale = 1.0 + lattice.prices
    diff_norms: list[float] = []
    ratios: list[float] = []
    for _ in range(grid.max_iter):
        new_core = op.apply(core)
        # the difference overwrites the old core, which is not read again
        diff = _scaled_max(np.subtract(new_core, core, out=core), scale, out=core)
        if diff_norms and diff_norms[-1] > 0:
            ratios.append(diff / diff_norms[-1])
        diff_norms.append(diff)
        core = new_core
        if diff < grid.tol_fp:
            return ValueField(
                t_grid=t_grid,
                lattice=lattice,
                core=core,
                kernel=kernel,
                problem=problem,
                age_invariant=kernel.is_memoryless and problem.w is None,
                diff_norms=diff_norms,
                ratios=ratios,
            )
    raise ConvergenceError(
        f"no convergence to {grid.tol_fp:g} within {grid.max_iter} sweeps "
        f"(last difference {diff_norms[-1]:.3e})",
        diff_norms,
        ratios,
    )


def extension_slice(field: ValueField, sigma: float) -> np.ndarray:
    """Values at age ``sigma`` on the (direction, time, node) grid.

    One operator application with the general age offset; the converged core
    supplies every age-zero value the integral needs, so no iteration is
    involved.
    """
    op = _AgeOperator(field.kernel, field.problem, field.t_grid, field.lattice, float(sigma))
    return op.apply(field.core)


class _CharacteristicSweep:
    """The extension at every grid age ``d*h`` by one sweep along the
    characteristics.

    The survival ratio in the extension integral factorises as
    exp(L(d*h)) * exp(-L(a*h)) with L the integrated intensity, so along each
    characteristic c = k - d the integrand at time node m depends on m and c
    only.  Every row is then a reverse cumulative Simpson sum along its
    characteristic, grown by one node per age step, with the parity rule and
    odd-row head step of :func:`_quad_matrix`: O(n_t**2 * nodes) for all
    ages, where one :func:`extension_slice` per age costs O(n_t**3 * nodes).
    Only the running sums and the current slice are held, on (direction,
    time row, lattice node) blocks.  The successor entered on slot b has
    direction b, so both directions share each slot's jump target, and each
    step's per-direction factors broadcast along the leading axis over it.

    The kernel tables are evaluated once, here; :meth:`rows` is numpy
    arithmetic on one block of lattice nodes, each node independent of every
    other, so blocks may run on separate threads.
    """

    def __init__(self, field: ValueField):
        if field.problem.w is not None:
            raise ValueError("the characteristic sweep needs a field without a running source")
        kernel = field.kernel
        n_t = len(field.t_grid) - 1
        h = field.t_grid[1] - field.t_grid[0]
        ages = h * np.arange(n_t + 1)
        half_ages = ages[:-1] + 0.5 * h
        lam = np.asarray(kernel.integrated_intensity(ages))
        # exp(+-L) stay finite: the 80-jump cap of max_jumps_for_tail bounds the
        # intensity times the horizon, which keeps L(T) below about 50
        decay = np.exp(-lam)
        half_decay = np.exp(-np.asarray(kernel.integrated_intensity(half_ages)))
        cont, rev = kernel.continuation.value(ages), kernel.reversal.value(ages)
        half_cont, half_rev = kernel.continuation.value(half_ages), kernel.reversal.value(half_ages)
        # per successor slot b the factor h_ab(a*h) * exp(-L(a*h)) on (direction
        # a, age), continuation where b repeats a; its jump targets are built per block
        self.images = _slot_images(field.lattice)
        pairs = ((cont * decay, rev * decay), (half_cont * half_decay, half_rev * half_decay))
        self.factors, self.half_factors = ([np.stack([c, r]), np.stack([r, c])] for c, r in pairs)
        self.core, self.n_t, self.h, self.lam, self.grow = field.core, n_t, h, lam, np.exp(lam)
        self.payoff = field.problem.payoff_on(field.lattice.prices)

    def rows(self, lo: int, hi: int):
        """Iterator of ``(d, values)`` for d = n_t, ..., 0 on lattice nodes
        ``lo..hi-1``: ``values`` is on (direction, time rows d..n_t, node) and
        is overwritten by the next step.

        The jump targets and every buffer are allocated by this call, so a
        thread that only consumes the iterator allocates nothing large (a
        worker thread's freed memory stays in its own malloc arena, out of
        reach of the calling thread).
        """
        n_t, width = self.n_t, hi - lo
        # per successor slot: the jump targets on (time, node), on a leading
        # axis of one that broadcasts against both directions
        targets = [
            (self.core[b][:, img[lo:hi]] * scale[lo:hi])[None]
            for b, (img, scale) in enumerate(self.images)
        ]
        shape, half = (len(SLOT_MOVES), n_t + 1, width), (len(SLOT_MOVES), n_t // 2 + 1, width)
        # every buffer is reused by every step
        buffers = (
            np.zeros(shape),  # running sums along the characteristics
            np.empty((2, math.prod(shape))),  # scratch rows and the current slice
            [np.empty(half) for _ in range(2)],  # even rows, this step and last
            np.empty(math.prod(shape), dtype=bool),  # finiteness of the slice
        )
        return self._steps(targets, self.payoff[lo:hi], buffers)

    def _steps(self, targets, payoff, buffers):
        n_t, h, grow = self.n_t, self.h, self.grow
        sums, flat, full_bufs, finite_buf = buffers
        n_dirs, width = sums.shape[0], sums.shape[2]
        # composite Simpson weights counted back from the horizon: 1, 4, 2, 4, 2, ...
        pattern = np.where(np.arange(n_t + 1) % 2 == 1, 4.0, 2.0)
        pattern[0] = 1.0
        prev = None
        for d in range(n_t, -1, -1):
            n = n_t + 1 - d  # rows k = d + c for c = 0..n-1, with n-1-c intervals left
            even, odd = (n - 1) % 2, n % 2  # rows with an even or odd interval count
            new, values = (buf[: n_dirs * n * width].reshape(n_dirs, n, width) for buf in flat)
            np.multiply(targets[0][:, d:], self.factors[0][:, d, None, None], out=new)
            new += np.multiply(targets[1][:, d:], self.factors[1][:, d, None, None], out=values)
            new *= pattern[n - 1 :: -1, None]
            sums[:, :n] += new
            # an even row is composite Simpson from its own node, whose weight is
            # 1 where the running pattern gave it 2 (the horizon row integrates
            # nothing)
            full = full_bufs[d % 2][:, : (n + 1 - even) // 2]
            np.subtract(sums[:, even:n:2], np.multiply(new[:, even::2], 0.5, out=full), out=full)
            full[:, -1] = 0.0
            np.multiply(full, grow[d] * h / 3.0, out=values[:, even::2])
            if n > 1:
                # an odd row is the previous age's even row one node later plus a
                # Simpson head step on [t_k, t_k+1] with its midpoint at age (d+1/2)h
                rows = values[:, odd::2]
                part = new[:, : rows.shape[1]]
                np.multiply(prev, grow[d] * h / 3.0, out=rows)
                for y, f, f_half in zip(targets, self.factors, self.half_factors):
                    head = (f[:, d] + 2.0 * f_half[:, d]) * grow[d] * h / 6.0
                    tail = (2.0 * f_half[:, d] + f[:, d + 1]) * grow[d] * h / 6.0
                    rows += np.multiply(y[:, d + odd : n_t : 2], head[:, None, None], out=part)
                    rows += np.multiply(y[:, d + odd + 1 :: 2], tail[:, None, None], out=part)
            terminal = np.exp(self.lam[d] - self.lam[d:][::-1])
            values += np.multiply(terminal[:, None], payoff, out=new[0])
            if not np.isfinite(values, out=finite_buf[: values.size].reshape(values.shape)).all():
                raise SolverError("characteristic sweep produced non-finite values")
            prev = full
            yield d, values


def _extension_points(field: ValueField, k, node, ii, s) -> np.ndarray:
    """Exact extension at grid time indices ``k`` and ages ``s`` for arrays of
    points (lattice ``node``, direction index ``ii``), with the row quadrature
    of :func:`_quad_matrix`; works in blocks of ``_READ_CHUNK`` points.  The
    running source is read at ``STATES[ii]``, a state of that direction."""
    kernel, problem, lattice, t_grid = field.kernel, field.problem, field.lattice, field.t_grid
    n_t = len(t_grid) - 1
    h = t_grid[1] - t_grid[0]
    # weights[k, u]: the u-th node of the row from time node k, which has
    # n_t - k intervals
    weights = _row_weights(np.ones(n_t + 1), 0.0, h)
    u = np.arange(n_t + 1)
    payoff = problem.payoff_on(lattice.prices)
    images = _slot_images(lattice)
    out = np.empty(len(k))
    for lo in range(0, len(k), _READ_CHUNK):
        part = slice(lo, lo + _READ_CHUNK)
        kc, nc, ic, sc = k[part], node[part], ii[part], s[part]
        m_int = n_t - kc
        ages = sc[:, None] + h * u
        surv = np.exp(-np.asarray(kernel.integrated_increment(sc[:, None], h * u)))
        half_age = sc + 0.5 * h
        half_surv = np.exp(-np.asarray(kernel.integrated_increment(sc, 0.5 * h)))
        # rows with an odd interval count open with a Simpson step: rate and
        # survival exact at age s + h/2, grid values the mean of its two ends
        head = np.where(m_int % 2 == 1, h / 3.0, 0.0) * half_surv
        wts = weights[kc, : n_t + 1] * surv
        rows = np.minimum(kc[:, None] + u, n_t)
        acc = surv[np.arange(len(kc)), m_int] * payoff[nc]
        cont, rev = kernel.continuation.value(ages), kernel.reversal.value(ages)
        half_cont = kernel.continuation.value(half_age)
        half_rev = kernel.reversal.value(half_age)
        for slot, (img, scl) in enumerate(images):
            # the successor entered on this slot has the slot's direction
            same = ic == slot
            vals = field.core[slot][rows, img[nc][:, None]] * scl[nc][:, None]
            rate = np.where(same[:, None], cont, rev)
            half_rate = np.where(same, half_cont, half_rev)
            acc += np.sum(wts * rate * vals, axis=1) + head * half_rate * (vals[:, 0] + vals[:, 1])
        if problem.w is not None:
            # the running source is sampled once per point, along its row
            for q in range(len(kc)):
                m = m_int[q] + 1
                w_row = problem.w(t_grid[kc[q]:], lattice.prices[nc[q]], STATES[ic[q]], ages[q, :m])
                w_row = np.broadcast_to(np.asarray(w_row, dtype=float), (m,))
                acc[q] += np.dot(wts[q, :m], w_row)
                if m > 1:
                    acc[q] += head[q] * (w_row[0] + w_row[1])
        out[part] = acc
    return out


def solve_expected_price(
    kernel: SemiMarkovKernel,
    grid: GridSpec,
    horizon: float,
    p0: float,
) -> ValueField:
    """Conditional expectation of the terminal price (identity payoff, no source)."""
    return solve_fixed_point(kernel, ProblemSpec(g=lambda p: p, w=None), grid, horizon, p0)


def expected_price_ode_oracle(
    continuation_level: float,
    reversal_level: float,
    delta: float,
    tau,
):
    """Independent closed form for flat hazards.

    With flat intensities the expected terminal price is price times a
    direction-dependent factor solving a 2x2 linear ODE in time to horizon;
    the oracle evaluates it with a matrix exponential.  Returns the pair of
    factors (up-direction, down-direction) for each requested ``tau``.
    """
    from scipy.linalg import expm

    a, b = continuation_level, reversal_level
    gen = np.array(
        [
            [a * delta - b, b * (1.0 - delta)],
            [b * (1.0 + delta), -a * delta - b],
        ]
    )
    taus = np.atleast_1d(np.asarray(tau, dtype=float))
    out = np.array([expm(gen * t) @ np.ones(2) for t in taus])
    return out if np.ndim(tau) else out[0]


def contraction_bound(
    kernel: SemiMarkovKernel, horizon: float, s_values: np.ndarray
) -> float:
    """Largest conditional probability of a jump within the horizon over the grid.

    Successive Picard differences contract at least this fast (up to grid
    slack); the maximiser over the time axis is always t = 0.
    """
    s_values = np.asarray(s_values, dtype=float)
    return float(np.max(-np.expm1(-np.asarray(kernel.integrated_increment(s_values, horizon)))))


def pde_residual(
    field: ValueField, slices: Iterable[np.ndarray], n_ages: Optional[int] = None
) -> ResidualStats:
    """Interior residual of the characteristic-form equation on a grid of ages.

    ``slices`` yields ``field`` on the (direction, time, node) grid at the ages
    ``0, h, 2h, ...``, ``h`` being the time step (see :func:`extension_slice`);
    ``n_ages`` is their count, at least three, and defaults to ``len(slices)``.
    The slices are consumed one at a time: the age-zero slice supplies every
    jump target, and only a rolling window of three ages is held, so a
    generator of slices never builds the age stack.  The transport derivative
    is a centred difference along the (t, s) diagonal; the jump terms are
    evaluated exactly at the node.  Residuals are normalised by 1 + price;
    boundary lattice nodes (truncated jump images) are excluded.  A field with
    a running source is refused.  The residual of each direction is
    computed once and reported for both of its states.
    """
    if field.problem.w is not None:
        raise ValueError("the residual needs a field without a running source")
    if n_ages is None:
        n_ages = len(slices)
    if n_ages < 3:
        raise ValueError(f"the residual needs at least three ages, got {n_ages}")
    kernel, t_grid, lattice = field.kernel, field.t_grid, field.lattice
    h_t = t_grid[1] - t_grid[0]
    ages = h_t * np.arange(n_ages)
    interior = np.nonzero((lattice.up_index >= 0) & (lattice.down_index >= 0))[0]
    weight = 1.0 + lattice.prices[interior]
    # the rate from direction a into slot b: continuation where b repeats a
    cont, rev = (np.asarray(f.value(ages[1:-1])) for f in (kernel.continuation, kernel.reversal))
    # indexed (time, node, state, age) but node-major in memory: np.mean sums in
    # memory order, and this is the order of a boolean node selection from a
    # (time, node, state, age) stack, so the mean keeps the bits of that form.
    # An anonymous map, not a malloc block: freeing a malloc-mapped block this
    # large raises glibc's mmap and trim thresholds, so freed arrays stay resident
    shape = (interior.size, len(t_grid) - 2, len(STATES), n_ages - 2)
    try:
        norm = np.frombuffer(mmap.mmap(-1, 8 * math.prod(shape)), dtype=float)
    except OSError as exc:  # no room for the map: the error numpy's allocation raises
        raise MemoryError(f"cannot map the {shape} residual block ({exc})") from exc
    norm = norm.reshape(shape).transpose(1, 0, 2, 3)
    stream = iter(slices)

    def next_slice() -> np.ndarray:
        value = next(stream, None)
        if value is None:
            raise ValueError(f"the residual needs {n_ages} age slices, got fewer")
        return value

    before, here = next_slice(), next_slice()
    # slot b's jump target at every interior node, from block b at age zero
    targets = [
        before[b][1:-1, img[interior]] * scale[interior]
        for b, (img, scale) in enumerate(_slot_images(lattice))
    ]
    for d in range(1, n_ages - 1):
        after = next_slice()
        for a in range(len(SLOT_MOVES)):
            level = here[a][1:-1, interior]
            res = np.zeros_like(level)
            for b, target in enumerate(targets):
                res += (cont if b == a else rev)[d - 1] * (target - level)
            res += (after[a][2:, interior] - before[a][:-2, interior]) / (2.0 * h_t)
            np.divide(np.abs(res, out=res), weight, out=res)
            norm[:, :, direction_index(np.asarray(STATES)) == a, d - 1] = res[:, :, None]
        # free this age's temporaries and age d - 1 before the next slice is made
        del level, res
        before, here = here, after
    return ResidualStats(max_abs=float(np.max(norm)), mean_abs=float(np.mean(norm)))


# -- flat-file output ------------------------------------------------------


def save_field_csv(field: ValueField, path, header_meta: Optional[dict] = None) -> None:
    """Dump the age-zero core as (t, p, i, s, value) rows, ``s`` always 0.0,
    under a metadata header line; each direction's value is formatted once
    and written for both of its states.

    Only nodes inside the requested truncation are written; the guard rings
    are a numerical device, not part of the reported field.
    """
    keep = np.nonzero(field.lattice.report_mask)[0]
    meta = {
        "p0": field.lattice.p0,
        "delta": field.lattice.delta,
        "n_max": field.lattice.n_report,
        "n_report": field.lattice.n_report,
        "horizon": field.horizon,
        "n_t": len(field.t_grid) - 1,
        "s_grid": None,  # no age axis; the key and the s column stay for old readers
        "age_invariant": field.age_invariant,
    }
    if header_meta:
        meta.update(header_meta)
    p_txt = [repr(p) for p in field.lattice.prices[keep].tolist()]
    t_leads = [f"{t!r}," for t in map(float, field.t_grid)]
    with open(path, "w") as fh:
        fh.write("# " + json.dumps(meta, sort_keys=True) + "\n")
        fh.write("t,p,i,s,value\n")
        heads = [f"{p},{i},0.0," for p in p_txt for i in STATES]
        # the value of (node n, state i) is entry (direction of i, n) of a time row
        picks = [len(keep) * direction_index(i) + n for n in range(len(keep)) for i in STATES]
        for ki, lead in enumerate(t_leads):
            tails = list(map(repr, field.core[:, ki, keep].ravel().tolist()))
            _write_rows(fh, lead, heads, map(tails.__getitem__, picks))


def _write_rows(fh, lead: str, heads: list, tails) -> None:
    """Write the lines ``lead + head + tail`` with one join and one write;
    :func:`save_field_csv` streams one time row per call."""
    fh.write(lead + ("\n" + lead).join(map(str.__add__, heads, tails)) + "\n")
