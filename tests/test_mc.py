"""Monte-Carlo oracle: estimators, z-scores, generator checks."""

import math

import numpy as np
import pytest

from semitick import (
    AgentState,
    ConstantIntensity,
    ControlledTestFunction,
    GridSpec,
    MarketState,
    McEstimate,
    SemiMarkovKernel,
    TestFunction,
    alpha,
    battery_controlled,
    battery_uncontrolled,
    dynkin_battery,
    dynkin_check,
    estimate_terminal_value,
    expected_price_ode_oracle,
    path_rng,
    simulate_price_path,
    solve_expected_price,
    z_score,
)
from semitick.mc import _bump, _bump_ds


class TestEstimator:
    def test_constant_payoff_has_zero_se(self, symmetric_kernel, start_state):
        est = estimate_terminal_value(
            symmetric_kernel, lambda p: 4.5, None, (0.0, 1.0, 2, 0.0), 1.0, 64, 1
        )
        assert est.mean == 4.5
        assert est.se == 0.0

    def test_path_count_validation(self, symmetric_kernel):
        with pytest.raises(ValueError):
            estimate_terminal_value(
                symmetric_kernel, lambda p: p, None, (0.0, 1.0, 2, 0.0), 1.0, 0, 1
            )
        with pytest.raises(ValueError):
            estimate_terminal_value(
                symmetric_kernel, lambda p: p, None, (0.0, 1.0, 2, 0.0), 1.0, 10, 1,
                segment_subdiv=3,
            )

    def test_martingale_price(self, symmetric_kernel):
        est = estimate_terminal_value(
            symmetric_kernel, lambda p: p, None, (0.0, 1.0, 2, 0.0), 1.0, 8000, 3
        )
        assert abs(est.mean - 1.0) <= 3.0 * est.se

    def test_matches_flat_hazard_oracle(self, asymmetric_kernel):
        est = estimate_terminal_value(
            asymmetric_kernel, lambda p: p, None, (0.2, 1.0, 3, 0.7), 1.0, 12000, 5
        )
        q = expected_price_ode_oracle(0.8, 0.4, 0.01, 0.8)
        expect = q[1]  # state 3 moves down
        assert abs(z_score(float(expect), est)) < 3.0

    def test_running_cost_time_integral(self, symmetric_kernel):
        # w depending only on time: E[int w] = int w up to segment quadrature
        est = estimate_terminal_value(
            symmetric_kernel,
            lambda p: 0.0,
            lambda t, p, i, s: np.cos(3.0 * np.asarray(t)),
            (0.0, 1.0, 2, 0.0),
            2.0,
            200,
            7,
            segment_subdiv=64,
        )
        assert est.mean == pytest.approx(math.sin(6.0) / 3.0, abs=1e-7)

    def test_age_argument_along_segments(self, symmetric_kernel):
        # w = age is piecewise linear along the path; check against a direct
        # per-path accumulation from the event times
        n = 300
        est = estimate_terminal_value(
            symmetric_kernel, lambda p: 0.0, lambda t, p, i, s: np.asarray(s),
            (0.0, 1.0, 2, 0.5), 1.5, n, 13,
        )
        acc = np.empty(n)
        for idx in range(n):
            path = simulate_price_path(
                symmetric_kernel, MarketState(1.0, 2, 0.5), 1.5, path_rng(13, idx)
            )
            total, t_prev, s_prev = 0.0, 0.0, 0.5
            for e in path.events:
                seg = e.time - t_prev
                total += s_prev * seg + 0.5 * seg * seg
                t_prev, s_prev = e.time, 0.0
            seg = 1.5 - t_prev
            total += s_prev * seg + 0.5 * seg * seg
            acc[idx] = total
        assert est.mean == pytest.approx(np.sum(acc) / n, rel=1e-12)

    def test_se_scales_like_sqrt_n(self, symmetric_kernel):
        ses = []
        sizes = [1000, 10000, 100000]
        for n in sizes:
            est = estimate_terminal_value(
                symmetric_kernel, lambda p: p, None, (0.0, 1.0, 2, 0.0), 1.0, n, 17
            )
            ses.append(est.se)
        slope = np.polyfit(np.log(sizes), np.log(ses), 1)[0]
        assert slope == pytest.approx(-0.5, abs=0.05)

    def test_order_independent_aggregation(self, symmetric_kernel, start_state):
        # per-path streams derive from (seed, index): generation order is moot
        vals_fwd = [
            simulate_price_path(symmetric_kernel, start_state, 1.0, path_rng(21, i))
            .terminal_market.price
            for i in range(200)
        ]
        vals_rev = [
            simulate_price_path(symmetric_kernel, start_state, 1.0, path_rng(21, i))
            .terminal_market.price
            for i in reversed(range(200))
        ][::-1]
        assert vals_fwd == vals_rev
        assert abs(float(np.sum(vals_fwd)) - float(np.sum(np.array(vals_rev)))) <= 1e-12

    def test_estimator_reproducible(self, saturating_kernel):
        kw = dict(start=(0.0, 1.0, 2, 0.25), horizon=1.0, n_paths=150, seed=29)
        e1 = estimate_terminal_value(saturating_kernel, lambda p: p, None, **kw)
        e2 = estimate_terminal_value(saturating_kernel, lambda p: p, None, **kw)
        assert (e1.mean, e1.se) == (e2.mean, e2.se)


class TestZScore:
    def test_exact_match_is_zero(self):
        assert z_score(1.0, McEstimate(1.0, 0.1, 100, 0)) == 0.0
        assert z_score(1.0, McEstimate(1.0, 0.0, 100, 0)) == 0.0

    def test_two_se_gap(self):
        assert z_score(1.2, McEstimate(1.0, 0.1, 100, 0)) == pytest.approx(2.0)

    def test_zero_se_mismatch_fails_hard(self):
        with pytest.raises(ValueError):
            z_score(1.1, McEstimate(1.0, 0.0, 100, 0))


class TestDynkin:
    def test_constant_function_is_exactly_zero(self, symmetric_kernel, start_state):
        tf = TestFunction("const", lambda p, i, s: 1.0, lambda p, i, s: 0.0)
        res = dynkin_check(symmetric_kernel, tf, start_state, 0.5, 40, 1)
        assert res.z == 0.0 and res.mean == 0.0

    def test_uncontrolled_battery(self, saturating_kernel):
        start = MarketState(1.0, 2, 0.25)
        results = dynkin_battery(
            saturating_kernel, battery_uncontrolled(1.0, 1.0), start, 0.8, 3000, 123
        )
        assert len(results) == 5
        for r in results:
            assert abs(r.z) < 3.0, r

    def test_controlled_battery(self, saturating_kernel, saturating_layout):
        start = (MarketState(1.0, 2, 0.25), AgentState(0.0, 0))
        results = dynkin_battery(
            saturating_kernel,
            battery_controlled(1.0, 1.0),
            start,
            0.8,
            3000,
            321,
            layout=saturating_layout,
            control=(1, 1),
            transaction_cost=0.001,
        )
        assert len(results) == 5
        for r in results:
            assert abs(r.z) < 3.0, r

    def test_ablation_breaks_identity(self, symmetric_kernel, symmetric_layout):
        start = (MarketState(1.0, 2, 0.0), AgentState(0.0, 0))
        tf = battery_controlled(1.0, 1.0)[0]
        res = dynkin_check(
            symmetric_kernel, tf, start, 0.8, 3000, 321,
            layout=symmetric_layout, control=(1, 1), transaction_cost=0.002,
            include_small_orders=False,
        )
        assert abs(res.z) > 3.0

    def test_hold_control_has_no_small_order_terms(self, symmetric_kernel, symmetric_layout):
        # with the zero control the ablation changes nothing
        start = (MarketState(1.0, 2, 0.0), AgentState(0.0, 2))
        tf = battery_controlled(1.0, 1.0)[0]
        full = dynkin_check(
            symmetric_kernel, tf, start, 0.6, 400, 9,
            layout=symmetric_layout, control=(0, 0), transaction_cost=0.002,
        )
        ablated = dynkin_check(
            symmetric_kernel, tf, start, 0.6, 400, 9,
            layout=symmetric_layout, control=(0, 0), transaction_cost=0.002,
            include_small_orders=False,
        )
        assert full.mean == pytest.approx(ablated.mean, abs=1e-12)

    @pytest.mark.parametrize("case", ["uncontrolled", "controlled", "builtin_controlled"])
    def test_generic_and_separable_agree(self, saturating_kernel, saturating_layout, case):
        if case == "builtin_controlled":
            # the shipped battery, stripped of its product structure, must run
            # on the generic path, which shifts x and y by arrays of fills
            seps = battery_controlled(1.0, 1.0)
            start = (MarketState(1.0, 2, 0.0), AgentState(0.0, 1))
            kw = dict(layout=saturating_layout, control=(1, 1), transaction_cost=0.001)
        elif case == "controlled":
            # the generic path shifts y by arrays of fills, so psi must be vectorised
            seps = [ControlledTestFunction(
                "inventory_tanh",
                psi=lambda p, i, s, x, y: np.tanh(y / 2.0) * _bump(s, 0.0, 1.6),
                dpsi_ds=lambda p, i, s, x, y: np.tanh(y / 2.0) * _bump_ds(s, 0.0, 1.6),
                state_part=lambda p, i, x, y: np.tanh(y / 2.0),
                age_bump=(0.0, 1.6),
            )]
            start = (MarketState(1.0, 2, 0.0), AgentState(0.0, 1))
            kw = dict(layout=saturating_layout, control=(1, 0), transaction_cost=0.001)
        else:
            seps = [battery_uncontrolled(1.0, 1.0)[1]]
            start = MarketState(1.0, 2, 0.0)
            kw = {}
        gen_cls = TestFunction if case == "uncontrolled" else ControlledTestFunction
        gens = [gen_cls("generic", tf.psi, tf.dpsi_ds) for tf in seps]
        r_sep = dynkin_battery(saturating_kernel, seps, start, 0.7, 400, 77, **kw)
        r_gen = dynkin_battery(saturating_kernel, gens, start, 0.7, 400, 77, **kw)
        for a, b in zip(r_sep, r_gen, strict=True):
            assert a.mean == pytest.approx(b.mean, abs=1e-13)

    def test_invalid_arguments(self, symmetric_kernel, start_state):
        tf = battery_uncontrolled(1.0)[0]
        with pytest.raises(ValueError):
            dynkin_check(symmetric_kernel, tf, start_state, 0.0, 10, 1)
        with pytest.raises(ValueError, match="layout"):
            dynkin_check(
                symmetric_kernel, tf, (start_state, AgentState()), 0.5, 10, 1, control=(1, 1)
            )


class TestSolverAgreement:
    def test_price_field_within_three_se(self, saturating_kernel):
        field = solve_expected_price(saturating_kernel, GridSpec(n_t=120), 1.0, 1.0, extend=False)
        for k, (t, p, i, s) in enumerate(
            [(0.0, 1.0, 2, 0.0), (0.25, 1.0, 1, 0.4), (0.5, 1.01, 4, 0.0)]
        ):
            est = estimate_terminal_value(
                saturating_kernel, lambda q: q, None, (t, p, i, s), 1.0, 6000, 55 + k
            )
            assert abs(z_score(field.eval(t, p, i, s), est)) < 3.0
