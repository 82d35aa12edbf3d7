"""Terminal-value solver: operator sweeps, fixed point, extension, residual."""

import errno
import json
import math
import tracemalloc

import numpy as np
import pytest

from semitick import (
    ConstantIntensity,
    ConvergenceError,
    GridSpec,
    ProblemSpec,
    ResidualStats,
    SLOT_MOVES,
    STATES,
    SemiMarkovKernel,
    alpha,
    contraction_bound,
    direction_index,
    expected_price_ode_oracle,
    extension_slice,
    pde_residual,
    save_field_csv,
    solve_expected_price,
    solve_fixed_point,
    successors,
)
from semitick import solver as solver_module
from semitick.harness import _residual_slices, load_config, run_command
from semitick.lattice import PriceLattice, max_jumps_for_tail
from semitick.market_maker import QuoteGainSource
from semitick.solver import (
    _AgeOperator,
    _CharacteristicSweep,
    _quad_matrix,
    _row_weights,
    _simpson_weights,
)

STATE_IDX = {s: k for k, s in enumerate(STATES)}
# the direction column of each state
FOUR = direction_index(np.array(STATES))


def four_states(values):
    """The (time, node, state) form of a (direction, time, node) array,
    C-contiguous: a sum in memory order, as np.mean makes, depends on it."""
    return np.ascontiguousarray(np.moveaxis(values[FOUR], 0, -1))

# adaptive-quadrature oracle values for one operator sweep applied to the
# identity payoff on the age-dependent kernel below (regenerate with
# scipy.integrate.quad on the definition; epsabs=1e-13)
SWEEP_ORACLE = [
    (0.0, 1.0, 1, 0.9985395027231272),
    (0.25, 1.0, 2, 1.0010785851883202),
    (0.5, 1.01, 3, 1.009403146329427),
    (0.75, 0.99, 4, 0.990115936032367),
    (0.9, 1.0201, 2, 1.0200690570058037),
]

IDENTITY = ProblemSpec(g=lambda p: p)
ZERO = ProblemSpec(g=lambda p: np.zeros_like(np.asarray(p, dtype=float)))


def _locate_one(lat, p, rtol=1e-9):
    """Reference for ``PriceLattice.locate`` at one price: of the sorted prices
    around ``searchsorted``, the first nearest, within ``rtol``."""
    order = np.argsort(lat.prices)
    ranked = lat.prices[order]
    pos = int(np.searchsorted(ranked, p))
    best, best_err = -1, math.inf
    for cand in (pos - 1, pos, pos + 1):
        if 0 <= cand < len(ranked) and abs(ranked[cand] - p) < best_err:
            best, best_err = cand, abs(ranked[cand] - p)
    assert best_err <= rtol * abs(p)
    return int(order[best])


class TestLattice:
    def test_node_layout(self):
        lat = PriceLattice(p0=1.0, delta=0.01, n_max=3)
        assert lat.n_nodes == 10
        n = lat.index_of(1, 1)
        assert lat.prices[n] == pytest.approx(1.01 * 0.99)
        up = lat.up_index[lat.index_of(0, 0)]
        assert lat.prices[up] == pytest.approx(1.01)

    def test_locate(self):
        lat = PriceLattice(p0=1.0, delta=0.01, n_max=6)
        for a, b in ((0, 0), (3, 2), (0, 6)):
            n = lat.index_of(a, b)
            assert lat.locate(lat.prices[n] * (1 + 2e-10)) == n
        with pytest.raises(ValueError, match=r"price 1\.5 is not on the price lattice "
                           r"\(anchor 1\.0, delta 0\.01\)"):
            lat.locate(1.5)

    @pytest.mark.parametrize("delta", [0.01, 0.0])
    def test_locate_arrays_match_the_per_price_rule(self, delta):
        # a zero tick puts every node on the anchor, so every price is a tie
        lat = PriceLattice(p0=1.0, delta=delta, n_max=6)
        rng = np.random.default_rng(5)
        prices = lat.prices[rng.integers(0, lat.n_nodes, 60)] * (1 + rng.uniform(-9e-10, 9e-10, 60))
        nodes = lat.locate(prices.reshape(6, 10))
        assert nodes.shape == (6, 10)
        assert nodes.ravel().tolist() == [_locate_one(lat, p) for p in prices.tolist()]
        assert [lat.locate(p) for p in prices.tolist()] == nodes.ravel().tolist()

    @pytest.mark.parametrize("bad", [1.5, math.nan, math.inf, 0.0])
    def test_locate_refuses_any_miss_in_an_array(self, bad):
        lat = PriceLattice(p0=1.0, delta=0.01, n_max=6)
        with pytest.raises(ValueError, match=f"price {bad!r} is not on the price lattice"):
            lat.locate(np.append(lat.prices, bad))

    def test_boundary_envelope(self):
        lat = PriceLattice(p0=1.0, delta=0.01, n_max=2)
        idx, scale = lat.image_maps(+1)
        corner = lat.index_of(2, 0)
        assert idx[corner] == corner
        p = lat.prices[corner]
        assert scale[corner] == pytest.approx((1 + p * 1.01) / (1 + p))

    def test_tail_budget_monotone(self):
        assert max_jumps_for_tail(1.0, 1.0, 1e-10) > max_jumps_for_tail(1.0, 1.0, 1e-4)

    def test_tail_budget_matches_scipy_loop(self):
        # the scipy isf/sf loop the closed-form tail replaced, kept here as the
        # reference; the package itself must not import scipy.stats
        from scipy.stats import poisson

        def scipy_budget(mu, tol):
            n = max(int(poisson.isf(tol, mu)), 1)
            while poisson.sf(n, mu) >= tol:
                n += 1
            return "refused" if n > 80 else n

        def budget(mu, tol):
            try:
                return max_jumps_for_tail(mu / 2.0, 1.0, tol)
            except ValueError as exc:
                assert "more than 80 jumps" in str(exc)
                return "refused"

        tols = (0.999, 0.9, 0.5, 1e-2, 1e-6, 1e-10, 1e-14, 3e-9)
        for mu in np.geomspace(1e-3, 200.0).tolist():
            for tol in tols:
                assert budget(mu, tol) == scipy_budget(mu, tol), (mu, tol)

    @pytest.mark.parametrize(
        "bound, tol, match",
        [
            (math.inf, 1e-10, r"mean 2 \* intensity bound \* horizon = inf must be finite"),
            (math.nan, 1e-10, r"= nan must be finite and nonnegative"),
            (-1.0, 1e-10, r"= -2\.0 must be finite and nonnegative"),
            (1e308, 1e-10, r"= inf must be finite"),  # the mean 2 * bound overflows
            (1.0, math.nan, r"tolerance must lie in \(0, 1\), got nan"),
            (1.0, 0.0, r"tolerance must lie in \(0, 1\), got 0\.0"),
            (1.0, 1.0, r"tolerance must lie in \(0, 1\), got 1\.0"),
            (1e6, 1e-10, r"more than 80 jumps.*tail mass at 80: 1\)"),
            (1e300, 1e-10, r"more than 80 jumps.*tail mass at 80: 1\)"),
        ],
    )
    def test_tail_refusals(self, bound, tol, match):
        with pytest.raises(ValueError, match=match):
            max_jumps_for_tail(bound, 1.0, tol)


class TestOperatorSweep:
    def test_terminal_row_is_payoff(self, saturating_kernel):
        grid = GridSpec(n_t=40)
        field = solve_expected_price(saturating_kernel, grid, 1.0, 1.0)
        out = _AgeOperator(saturating_kernel, IDENTITY, field.t_grid, field.lattice).apply(
            field.core
        )
        assert np.array_equal(out[:, -1], np.broadcast_to(field.lattice.prices, out[:, -1].shape))

    def test_zero_problem_stays_zero(self, saturating_kernel):
        field = solve_expected_price(saturating_kernel, GridSpec(n_t=40), 1.0, 1.0)
        core = np.zeros_like(field.core)
        out = _AgeOperator(saturating_kernel, ZERO, field.t_grid, field.lattice).apply(core)
        assert np.all(out == 0.0)

    def test_single_sweep_matches_quadrature_oracle(self, saturating_kernel):
        grid = GridSpec(n_t=160)
        t_grid = np.linspace(0.0, 1.0, 161)
        lattice = PriceLattice(p0=1.0, delta=0.01, n_max=20)
        core = np.broadcast_to(lattice.prices, (len(SLOT_MOVES), 161, lattice.n_nodes)).copy()
        out = _AgeOperator(saturating_kernel, IDENTITY, t_grid, lattice).apply(core)
        for t, p, i, expect in SWEEP_ORACLE:
            k = int(round(t / (1.0 / 160)))
            assert t_grid[k] == pytest.approx(t, abs=1e-12)
            node = lattice.locate(p, rtol=1e-4)
            got = out[direction_index(i), k, node]
            # rescale the frozen oracle to the exact lattice price
            expect_here = expect * lattice.prices[node] / p
            assert got == pytest.approx(expect_here, abs=2e-8)


class TestFixedPoint:
    def test_zero_converges_immediately(self, saturating_kernel):
        field = solve_fixed_point(saturating_kernel, ZERO, GridSpec(n_t=40), 1.0, 1.0)
        assert field.iterations == 1
        assert np.all(field.core == 0.0)

    def test_symmetric_martingale(self, symmetric_kernel):
        field = solve_expected_price(symmetric_kernel, GridSpec(n_t=200), 1.0, 1.0)
        mask = field.lattice.report_mask
        prices = field.lattice.prices[mask]
        rel = np.abs(field.core[:, :, mask] - prices) / prices
        assert rel.max() <= 1e-6

    def test_asymmetric_matches_matrix_exponential(self, asymmetric_kernel):
        field = solve_expected_price(asymmetric_kernel, GridSpec(n_t=200), 1.0, 1.0)
        taus = 1.0 - field.t_grid
        factors = expected_price_ode_oracle(0.8, 0.4, 0.01, taus)
        mask = field.lattice.report_mask
        worst = 0.0
        for ii, i in enumerate(STATES):
            col = 0 if alpha(i) > 0 else 1
            oracle = field.lattice.prices[None, mask] * factors[:, col][:, None]
            worst = max(worst, np.max(np.abs(field.core[FOUR[ii]][:, mask] - oracle) / oracle))
        assert worst <= 1e-4

    def test_contraction_ratios_below_bound(self, saturating_kernel):
        grid = GridSpec(n_t=120)
        field = solve_expected_price(saturating_kernel, grid, 1.0, 1.0)
        kappa = contraction_bound(saturating_kernel, 1.0, np.linspace(0.0, 1.25, 9))
        assert all(r <= kappa + 0.01 for r in field.ratios)
        budget = math.ceil(math.log(grid.tol_fp) / math.log(kappa)) + 5
        assert field.iterations <= budget

    def test_contraction_bound_at_a_large_age(self, saturating_kernel):
        # the saturated law at age 1e17 is the one at age 40; a difference of
        # integrated intensities there gave a bound of -0.0
        far = contraction_bound(saturating_kernel, 1.0, np.array([1e17]))
        assert far == pytest.approx(contraction_bound(saturating_kernel, 1.0, np.array([40.0])))
        assert far == pytest.approx(-math.expm1(-2.0))

    def test_linearity(self, saturating_kernel):
        grid = GridSpec(n_t=60)
        w1 = lambda t, p, i, s: 0.3 * np.asarray(p) / (1.0 + np.asarray(p)) + 0.0 * s
        w2 = lambda t, p, i, s: np.cos(np.asarray(p)) * math.exp(-float(np.ravel(s)[0]) if np.ndim(s) == 0 else 1.0)
        w2 = lambda t, p, i, s: np.cos(np.asarray(p)) * np.exp(-np.asarray(s))
        g1 = lambda p: p
        g2 = lambda p: np.sqrt(np.asarray(p))
        f1 = solve_fixed_point(saturating_kernel, ProblemSpec(g=g1, w=w1), grid, 1.0, 1.0)
        f2 = solve_fixed_point(saturating_kernel, ProblemSpec(g=g2, w=w2), grid, 1.0, 1.0)
        f12 = solve_fixed_point(
            saturating_kernel,
            ProblemSpec(
                g=lambda p: g1(p) + g2(p),
                w=lambda t, p, i, s: w1(t, p, i, s) + w2(t, p, i, s),
            ),
            grid,
            1.0,
            1.0,
        )
        assert f12.vnorm(f12.core - f1.core - f2.core) <= 5e-8

    def test_positive_data_positive_solution(self, saturating_kernel):
        problem = ProblemSpec(
            g=lambda p: np.maximum(np.asarray(p) - 1.0, 0.0),
            w=lambda t, p, i, s: 0.2 * np.ones_like(np.asarray(p, dtype=float)),
        )
        field = solve_fixed_point(saturating_kernel, problem, GridSpec(n_t=60), 1.0, 1.0)
        assert field.core.min() >= -1e-12

    def test_nonconvergence_carries_history(self, saturating_kernel):
        grid = GridSpec(n_t=40, max_iter=2)
        with pytest.raises(ConvergenceError) as err:
            solve_fixed_point(saturating_kernel, IDENTITY, grid, 1.0, 1.0)
        assert len(err.value.diff_norms) == 2

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            GridSpec(n_t=1)
        with pytest.raises(ValueError):
            GridSpec(n_t=10, tol_fp=0.0)

    def test_contraction_bound_peaks_at_the_oldest_age(self, saturating_kernel):
        # nondecreasing hazards: the reachable endpoint bounds every younger age
        ages = np.linspace(0.0, 1.25, 9)
        assert contraction_bound(saturating_kernel, 1.0, ages) == contraction_bound(
            saturating_kernel, 1.0, [1.25]
        )

    @pytest.mark.parametrize("name", ["n_s", "s_max"])
    def test_grid_refuses_age_knobs(self, name):
        # the grid has no age axis: ages come from the start age and the horizon
        with pytest.raises(TypeError, match=name):
            GridSpec(n_t=10, **{name: 1})

    @pytest.mark.parametrize("name", ["tol_fp", "tail_tol"])
    def test_grid_refuses_non_finite(self, name):
        # NaN is neither <= 0 nor >= 1, so the range checks alone let it through
        for value in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match=f"{name} must be finite, got {value}"):
                GridSpec(n_t=10, **{name: value})


class TestExtension:
    def test_age_zero_slice_reproduces_core(self, saturating_kernel):
        field = solve_expected_price(saturating_kernel, GridSpec(n_t=80), 1.0, 1.0)
        gap = field.vnorm(extension_slice(field, 0.0) - field.core)
        assert gap <= 2e-8

    @pytest.mark.parametrize("age", [1e12, 1e15])
    def test_large_age_is_the_saturated_law(self, saturating_kernel, age):
        # past age 1e3 the saturating hazards are flat to the last bit, so the
        # field may not move; survival ratios formed as a difference of
        # integrated intensities moved it by 1.0e-4 at 1e12 and 0.20 at 1e15
        field = solve_expected_price(saturating_kernel, GridSpec(n_t=40), 1.0, 1.0)
        ref = extension_slice(field, 1e3)
        got = extension_slice(field, age)
        assert np.all(np.abs(got - ref) <= 1e-12 * (1.0 + np.abs(ref)))
        t = np.array([0.0, 0.3125, 0.51, 0.975])
        node = np.array([0, 7, field.lattice.n_nodes // 2, field.lattice.n_nodes - 1])
        i = np.array([1, 2, 3, 4])
        ref_read = field.read(t, node, i, 1e3)
        got_read = field.read(t, node, i, age)
        assert np.all(np.abs(got_read - ref_read) <= 1e-12 * (1.0 + np.abs(ref_read)))

    def test_terminal_layer_is_payoff_at_all_ages(self, saturating_kernel):
        field = solve_expected_price(saturating_kernel, GridSpec(n_t=80), 1.0, 1.0)
        for sigma in np.linspace(0.0, 1.0, 5):
            terminal = extension_slice(field, sigma)[:, -1]
            assert np.array_equal(terminal, np.broadcast_to(field.lattice.prices, terminal.shape))

    def test_flat_hazard_field_is_age_invariant(self, asymmetric_kernel):
        field = solve_expected_price(asymmetric_kernel, GridSpec(n_t=100), 1.0, 1.0)
        assert field.age_invariant
        for sigma in (0.3, 0.9, 1.7):
            gap = field.vnorm(extension_slice(field, sigma) - field.core)
            assert gap <= 1e-8

    def test_point_extension_matches_slice(self, saturating_kernel):
        # one batched exact read: the three points at age 0.42 plus a batch of
        # mixed ages, each checked against one operator application per age
        field = solve_expected_price(saturating_kernel, GridSpec(n_t=80), 1.0, 1.0)
        points = [
            (0, 0, 1, 0.42), (20, 3, 2, 0.42), (60, 7, 4, 0.42),
            (5, 2, 3, 0.1), (33, 0, 1, 0.7), (79, 5, 2, 1.3), (80, 4, 4, 0.25), (47, 6, 3, 0.1),
        ]
        k, node, i, s = (np.array(col) for col in zip(*points))
        got = field.read(field.t_grid[k], node, i, s)
        slices = {age: extension_slice(field, age) for age in set(s.tolist())}
        for (kk, nn, ii, age), value in zip(points, got):
            assert value == pytest.approx(slices[age][direction_index(ii), kk, nn], rel=1e-12)

    def test_point_extension_with_source_matches_slice(self, saturating_kernel):
        # a running source is sampled once per point along its row; it may
        # depend on the state only through its direction
        problem = ProblemSpec(
            g=lambda p: p,
            w=lambda t, p, i, s: 0.1 * p * np.cos(3.0 * t) * np.exp(-s) / (2 + alpha(i)),
        )
        field = solve_fixed_point(saturating_kernel, problem, GridSpec(n_t=40), 1.0, 1.0)
        exact = extension_slice(field, 0.3)
        points = [(0, 0, 1), (13, 3, 2), (39, 7, 4), (40, 5, 3)]
        k, node, i = (np.array(col) for col in zip(*points))
        got = field.read(field.t_grid[k], node, i, 0.3)
        for (kk, nn, ii), value in zip(points, got):
            assert value == pytest.approx(exact[direction_index(ii), kk, nn], rel=1e-12)

    @pytest.mark.parametrize("n_t", [120, 81])
    def test_characteristic_sweep_matches_slices(self, saturating_kernel, n_t):
        # the streamed sweep yields every age d*h on rows d..n_t; an odd n_t
        # puts both row parities at both ends of the sweep
        field = solve_expected_price(saturating_kernel, GridSpec(n_t=n_t), 1.0, 1.0)
        h = field.t_grid[1] - field.t_grid[0]
        ages = []
        for d, values in _CharacteristicSweep(field).rows(0, field.lattice.n_nodes):
            exact = extension_slice(field, d * h)[:, d:]
            assert field.vnorm(values - exact) <= 1e-12
            ages.append(d)
        assert ages == list(range(n_t, -1, -1))

    def test_eval_interpolates(self, saturating_kernel):
        field = solve_expected_price(saturating_kernel, GridSpec(n_t=80), 1.0, 1.0)
        exact = extension_slice(field, 0.375)
        got = field.eval(field.t_grid[10], 1.0, 2, 0.375)
        node = field.lattice.locate(1.0)
        assert got == pytest.approx(exact[1, 10, node], rel=1e-12)

    def test_zero_tick_expected_price_is_identity(self):
        kernel = SemiMarkovKernel(ConstantIntensity(0.6), ConstantIntensity(0.6), 0.0)
        field = solve_expected_price(kernel, GridSpec(n_t=40), 1.0, 1.0)
        assert np.allclose(field.core, 1.0, atol=1e-12)


def age_slices(field, n_ages):
    """The field at ages 0, h, ..., (n_ages - 1)h, one slice per age."""
    h = field.t_grid[1] - field.t_grid[0]
    return [extension_slice(field, s) for s in h * np.arange(n_ages)]


def stacked_residual(field, values):
    """The residual as first built, on four states, on the ages stacked on a
    last axis of ``values`` (time, node, state, age): the reference for the
    streamed :func:`pde_residual`."""
    kernel, t_grid = field.kernel, field.t_grid
    h_t = t_grid[1] - t_grid[0]
    ages = h_t * np.arange(values.shape[-1])
    lattice = field.lattice
    interior_nodes = (lattice.up_index >= 0) & (lattice.down_index >= 0)
    transport = (values[2:, :, :, 2:] - values[:-2, :, :, :-2]) / (2.0 * h_t)
    n_t = len(t_grid) - 1
    n_s = len(ages) - 1
    res = np.zeros_like(transport)
    for i in STATES:
        ii = STATE_IDX[i]
        jump = np.zeros((n_t - 1, lattice.n_nodes, n_s - 1))
        for j in successors(i):
            img, scale = lattice.image_maps(1 if alpha(j) > 0 else -1)
            target = values[1:-1, img, STATE_IDX[j], 0] * scale[None, :]
            hj = np.asarray(kernel.directed_intensity(i, j, ages[1:-1]))
            jump += hj[None, None, :] * (
                target[:, :, None] - values[1:-1, :, ii, 1:-1]
            )
        res[:, :, ii, :] = transport[:, :, ii, :] + jump
    res = res[:, interior_nodes, :, :]
    norm = np.abs(res) / (1.0 + lattice.prices[interior_nodes])[None, :, None, None]
    return ResidualStats(max_abs=float(np.max(norm)), mean_abs=float(np.mean(norm)))


@pytest.fixture(scope="module")
def preset_field():
    """The solve-pi field of a preset, solved once per module."""
    fields = {}

    def solved(name):
        if name not in fields:
            cfg = load_config(name)
            fields[name] = solve_expected_price(
                cfg.kernel, cfg.grid, cfg.horizon, cfg.initial_market.price
            )
        return fields[name]

    return solved


def traced_peak(fn):
    """Peak bytes traced by tracemalloc while ``fn()`` runs; numpy reports its
    array buffers to tracemalloc."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestResidual:
    def _solved_slices(self, kernel, n_t, horizon=1.0, n_ages=6):
        field = solve_expected_price(kernel, GridSpec(n_t=n_t), horizon, 1.0)
        return field, age_slices(field, n_ages)

    def test_zero_problem_zero_residual(self, saturating_kernel):
        field = solve_fixed_point(saturating_kernel, ZERO, GridSpec(n_t=40), 1.0, 1.0)
        res = pde_residual(field, age_slices(field, 4))
        assert res.max_abs == 0.0

    def test_running_source_refused(self, saturating_kernel):
        source = ProblemSpec(g=lambda p: p, w=lambda t, p, i, s: 0.0 * np.asarray(p))
        field = solve_fixed_point(saturating_kernel, source, GridSpec(n_t=20), 1.0, 1.0)
        with pytest.raises(ValueError, match="without a running source"):
            pde_residual(field, age_slices(field, 3))

    def test_perturbation_spikes_residual(self, asymmetric_kernel):
        field, values = self._solved_slices(asymmetric_kernel, 60)
        base = pde_residual(field, values)
        values[2][1, 30, field.lattice.index_of(0, 0)] += 1.0
        spiked = pde_residual(field, values)
        assert spiked.max_abs > base.max_abs + 1.0

    def test_residual_shrinks_with_refinement(self, asymmetric_kernel):
        r_coarse = pde_residual(*self._solved_slices(asymmetric_kernel, 60))
        r_fine = pde_residual(*self._solved_slices(asymmetric_kernel, 120))
        order = math.log2(r_coarse.max_abs / r_fine.max_abs)
        assert order >= 1.7

    def test_too_few_slices_refused(self, asymmetric_kernel):
        field, values = self._solved_slices(asymmetric_kernel, 20, n_ages=4)
        with pytest.raises(ValueError, match="at least three ages"):
            pde_residual(field, values[:2])
        with pytest.raises(ValueError, match="needs 5 age slices"):
            pde_residual(field, iter(values), 5)

    @pytest.mark.parametrize("n_ages", [3, 6, 7])
    @pytest.mark.parametrize(
        "preset", ["symmetric-martingale", "asymmetric-constant", "saturating-hazard"]
    )
    def test_streamed_matches_stacked_bit_for_bit(self, preset_field, preset, n_ages):
        field = preset_field(preset)
        slices = age_slices(field, n_ages)
        ref = stacked_residual(field, np.stack([four_states(one) for one in slices], axis=-1))
        got = pde_residual(field, iter(slices), n_ages)
        assert got.max_abs.hex() == ref.max_abs.hex()
        assert got.mean_abs.hex() == ref.mean_abs.hex()

    def test_unmappable_block_is_a_memory_error(self, preset_field, monkeypatch, tmp_path):
        # the normalised-residual block is an anonymous map; a map refused for
        # want of memory raises numpy's allocation error, and solve-pi exits 2
        def refuse(*args):
            raise OSError(errno.ENOMEM, "Cannot allocate memory")

        monkeypatch.setattr(solver_module.mmap, "mmap", refuse)
        field = preset_field("asymmetric-constant")
        with pytest.raises(MemoryError, match="residual block"):
            pde_residual(field, age_slices(field, 3))
        cfg = load_config("asymmetric-constant")
        assert run_command("solve-pi", cfg, out_dir=str(tmp_path), quiet=True) == 2

    def test_streamed_peak_memory(self, preset_field):
        # solve-pi's residual: 7 ages of asymmetric-constant, each slice made
        # as it is consumed. The streamed form holds about four slices and the
        # normalised residual; the stacked form holds all seven, their
        # four-state stack and full-size temporaries.
        field = preset_field("asymmetric-constant")
        h = field.t_grid[1] - field.t_grid[0]
        ages = h * np.arange(7)
        lattice = field.lattice
        n_interior = int(np.sum((lattice.up_index >= 0) & (lattice.down_index >= 0)))
        slice_bytes = extension_slice(field, 0.0).nbytes
        norm_bytes = (len(field.t_grid) - 2) * n_interior * len(STATES) * (len(ages) - 2) * 8
        bound = 1.25 * (4 * slice_bytes + norm_bytes)
        streamed = traced_peak(
            lambda: pde_residual(field, (extension_slice(field, s) for s in ages), len(ages))
        )
        stacked = traced_peak(
            lambda: stacked_residual(
                field, np.stack([four_states(extension_slice(field, s)) for s in ages], axis=-1)
            )
        )
        assert streamed < bound
        assert stacked > bound


# -- the operator as first written, kept as the reference for its fast forms --


def reference_quad_matrix(nodes, half0, h):
    """The quadrature matrix filled one row at a time."""
    n = len(nodes) - 1
    q = np.zeros((n + 1, n + 1))
    for k in range(n + 1):
        m = n - k
        if m == 0:
            continue
        if m % 2 == 0:
            q[k, k:] = _simpson_weights(m, h) * nodes[: m + 1]
        else:
            q[k, k] = (h / 6.0) * (nodes[0] + 2.0 * half0)
            q[k, k + 1] = (h / 6.0) * (2.0 * half0 + nodes[1])
            if m > 1:
                q[k, k + 1 :] += _simpson_weights(m - 1, h) * nodes[1 : m + 1]
    return q


def reference_extension_weights(n_t, h):
    """The extension read's table weights[M, u] of the u-th node of a row with
    M intervals, shifted out of the unit quadrature matrix row by row."""
    unit = reference_quad_matrix(np.ones(n_t + 1), 0.0, h)
    weights = np.zeros_like(unit)
    for row in range(n_t + 1):
        weights[n_t - row, : n_t + 1 - row] = unit[row, row:]
    return weights


def reference_operator(field, sigma, problem=None, source=None):
    """The operator at age ``sigma`` with its tables built by
    :func:`reference_quad_matrix`."""
    original = solver_module._quad_matrix
    solver_module._quad_matrix = reference_quad_matrix
    try:
        return _AgeOperator(
            field.kernel, problem or field.problem, field.t_grid, field.lattice, sigma, source
        )
    finally:
        solver_module._quad_matrix = original


def reference_apply(op, core):
    """The sweep as first written, on a four-state (time, node, state)
    ``core``: every state gathers both of its jump targets and sums on a copy
    of the discounted payoff and its column of the source, read at FOUR."""
    out = np.empty_like(core)
    g_term = op.tables.terminal[:, None] * op.payoff[None, :]
    for i in STATES:
        acc = g_term.copy()
        for j, d, (img, scale) in zip(successors(i), SLOT_MOVES, op.images):
            q = op.tables.q_cont if d == alpha(i) else op.tables.q_rev
            acc += q @ (core[:, img, STATE_IDX[j]] * scale[None, :])
        if op.source is not None:
            acc += op.source[FOUR[STATE_IDX[i]]]
        out[:, :, STATE_IDX[i]] = acc
    return out


PRESETS = ("symmetric-martingale", "asymmetric-constant", "saturating-hazard")


class TestOperatorAgreement:
    @pytest.mark.parametrize("n_t", [2, 3, 4, 5, 120, 121, 200])
    def test_quad_matrix_matches_row_loop(self, n_t):
        rng = np.random.default_rng(n_t)
        nodes, half0, h = rng.random(n_t + 1), rng.random(), 1.0 / n_t
        got = _quad_matrix(nodes, half0, h)
        assert got.flags.c_contiguous
        assert got.tobytes() == reference_quad_matrix(nodes, half0, h).tobytes()

    @pytest.mark.parametrize("n_t", [2, 3, 120, 121])
    def test_extension_weights_match_row_loop(self, n_t):
        h = 1.0 / n_t
        # the read takes row k of the rows table for a point at time node k
        got = _row_weights(np.ones(n_t + 1), 0.0, h)[::-1, : n_t + 1]
        assert got.tobytes() == reference_extension_weights(n_t, h).tobytes()

    @pytest.mark.parametrize("preset", PRESETS)
    @pytest.mark.parametrize("sigma", [0.0, 0.3])
    @pytest.mark.parametrize("with_source", [False, True])
    def test_apply_matches_per_state_sweep(self, preset_field, preset, sigma, with_source):
        field = preset_field(preset)
        problem, source = None, None
        if with_source:
            cfg = load_config(preset)
            quote = QuoteGainSource(cfg.kernel, cfg.layout, cfg.mmspec, field)
            # the price payoff, not the quote solve's zero, so that every
            # state's sum has four nonzero terms
            problem, source = ProblemSpec(g=field.problem.g, w=quote), quote.integrals
        op = _AgeOperator(
            field.kernel, problem or field.problem, field.t_grid, field.lattice, sigma, source
        )
        ref = reference_operator(field, sigma, problem, source)
        expected = reference_apply(ref, four_states(field.core)).tobytes()
        assert four_states(op.apply(field.core)).tobytes() == expected

    @pytest.mark.parametrize("preset", PRESETS)
    def test_extension_slice_matches_per_state_sweep(self, preset_field, preset):
        field = preset_field(preset)
        for s in (0.0, 0.3):
            expected = reference_apply(reference_operator(field, s), four_states(field.core))
            assert four_states(extension_slice(field, s)).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("preset", ["asymmetric-constant", "symmetric-martingale"])
    def test_age_invariant_slices_equal_at_every_age(self, preset_field, preset):
        field = preset_field(preset)
        assert field.age_invariant
        h = field.t_grid[1] - field.t_grid[0]
        expected = reference_apply(reference_operator(field, 0.0), four_states(field.core))
        for s in h * np.arange(7):
            assert four_states(extension_slice(field, s)).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("preset", ["asymmetric-constant", "symmetric-martingale"])
    def test_residual_of_one_repeated_slice(self, preset_field, preset):
        field = preset_field(preset)
        h = field.t_grid[1] - field.t_grid[0]
        core = four_states(field.core)
        seven = [reference_apply(reference_operator(field, s), core) for s in h * np.arange(7)]
        ref = stacked_residual(field, np.stack(seven, axis=-1))
        got = pde_residual(field, _residual_slices(field, 7), 7)
        assert got.max_abs.hex() == ref.max_abs.hex()
        assert got.mean_abs.hex() == ref.mean_abs.hex()

    def test_residual_slices_per_age_unless_age_invariant(self, preset_field):
        flat = list(_residual_slices(preset_field("asymmetric-constant"), 7))
        assert all(one is flat[0] for one in flat)
        field = preset_field("saturating-hazard")
        h = field.t_grid[1] - field.t_grid[0]
        slices = list(_residual_slices(field, 7))
        assert len({id(one) for one in slices}) == 7
        for s, one in zip(h * np.arange(7), slices):
            ref = reference_apply(reference_operator(field, s), four_states(field.core))
            assert four_states(one).tobytes() == ref.tobytes()

    def test_apply_peak_memory(self, preset_field):
        # one sweep on asymmetric-constant, in (n_t + 1) x nodes blocks: the
        # four-state per-state sweep peaked at 8.09 (the four-block result, the
        # discounted payoff, its copy, one target and its product) and its
        # class-shared gather at about 7.09.  The two-direction sweep holds the
        # two-block result, both targets and one product, about 5.18
        field = preset_field("asymmetric-constant")
        op = _AgeOperator(field.kernel, field.problem, field.t_grid, field.lattice)
        block = field.core[0].nbytes
        op.apply(field.core)
        assert traced_peak(lambda: op.apply(field.core)) < 6 * block


class TestFieldIO:
    def test_roundtrip(self, saturating_kernel, tmp_path):
        field = solve_expected_price(saturating_kernel, GridSpec(n_t=20), 1.0, 1.0)
        out = tmp_path / "field.csv"
        save_field_csv(field, out, header_meta={"master_seed": 1})
        with open(out) as fh:
            meta, columns = json.loads(fh.readline()[2:]), fh.readline()
            t, p, i, s, values = np.loadtxt(fh, delimiter=",", ndmin=2).T
        mask = field.lattice.report_mask
        shape = (len(field.t_grid), int(mask.sum()), len(STATES))
        # the file holds the iterated core on the report nodes, digit for digit
        assert np.array_equal(values.reshape(shape), four_states(field.core[:, :, mask]))
        assert np.array_equal(t.reshape(shape)[:, 0, 0], field.t_grid)
        assert np.array_equal(p.reshape(shape)[0, :, 0], field.lattice.prices[mask])
        assert np.array_equal(i.reshape(shape)[0, 0], STATES) and not s.any()
        assert columns == "t,p,i,s,value\n" and meta["master_seed"] == 1
        assert meta["n_t"] == 20 and meta["s_grid"] is None


class TestDiagnostics:
    def test_bad_payoff_raises_solver_error(self, saturating_kernel):
        from semitick import SolverError

        bad = ProblemSpec(g=lambda p: np.where(np.asarray(p) > 1.0, np.nan, p))
        with pytest.raises(SolverError, match="non-finite"):
            solve_fixed_point(saturating_kernel, bad, GridSpec(n_t=20), 1.0, 1.0)

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_bad_source_raises_solver_error(self, saturating_kernel):
        from semitick import SolverError

        bad = ProblemSpec(
            g=lambda p: p,
            w=lambda t, p, i, s: np.full_like(np.asarray(p, dtype=float), np.inf),
        )
        with pytest.raises(SolverError, match="non-finite"):
            solve_fixed_point(saturating_kernel, bad, GridSpec(n_t=20), 1.0, 1.0)

    @pytest.mark.parametrize("value, pair", [(np.inf, "1 and 3"), (np.nan, "2 and 4")])
    def test_source_beyond_the_direction_refused(self, saturating_kernel, value, pair):
        # w may depend on the state only through alpha(i): one state of a
        # direction sees a different (here non-finite) value from t = 0.5 on
        odd = 3 if pair == "1 and 3" else 4
        w = lambda t, p, i, s: np.where((i == odd) & (t >= 0.5), value, 0.1 * p)
        bad = ProblemSpec(g=lambda p: p, w=w)
        with pytest.raises(ValueError, match=rf"differs between states {pair} at t=0\.5, p="):
            solve_fixed_point(saturating_kernel, bad, GridSpec(n_t=20), 1.0, 1.0)
