"""Quote gain rates, optimal policy, quoting premium, values, bound, backtest."""

import functools
import math
import re
from dataclasses import replace

import numpy as np
import pytest

from semitick import (
    AgentState,
    ConstantIntensity,
    GridSpec,
    MarkLayout,
    MarketMakingSpec,
    MarketState,
    QuoteGainSource,
    STATES,
    SemiMarkovKernel,
    UnsupportedRiskAversion,
    backtest,
    default_baselines,
    direction_index,
    estimate_terminal_value,
    holding_value,
    optimal_policy,
    solve_expected_price,
    solve_quote_value,
    successors,
    total_value,
    value_upper_bound,
    z_score,
)
from semitick import market_maker as mm
from semitick import simulate
from semitick.harness import load_config
from semitick.market_maker import export_policy_csv
from semitick.mc import McEstimate
from semitick.solver import _build_tables
from semitick.hazards import BIG, NO_EVENT
from semitick.simulate import order_fill, path_rng


@pytest.fixture(scope="module")
def unit_setup():
    """Symmetric martingale with unit intensities and unit mean trade size."""
    kernel = SemiMarkovKernel(ConstantIntensity(1.0), ConstantIntensity(1.0), 0.01)
    layout = MarkLayout(
        kernel, ConstantIntensity(1.0), ConstantIntensity(1.0),
        (0.0, 1.0, 0.0), (0.0, 1.0, 0.0),
    )
    spec = MarketMakingSpec(big_size=2, transaction_cost=0.001)
    field = solve_expected_price(kernel, GridSpec(n_t=100), 1.0, 1.0)
    return kernel, layout, spec, field


@pytest.fixture(scope="module")
def asym_setup(asymmetric_kernel, asymmetric_layout):
    spec = MarketMakingSpec(big_size=2, transaction_cost=0.001, portfolio_consistent=True)
    field = solve_expected_price(asymmetric_kernel, GridSpec(n_t=100), 1.0, 1.0)
    quote = solve_quote_value(asymmetric_kernel, asymmetric_layout, spec, field)
    return asymmetric_kernel, asymmetric_layout, spec, field, quote


class TestSpecValidation:
    def test_ranges(self):
        with pytest.raises(ValueError):
            MarketMakingSpec(big_size=0, transaction_cost=0.0)
        with pytest.raises(ValueError):
            MarketMakingSpec(big_size=2, transaction_cost=-0.1)
        with pytest.raises(ValueError):
            MarketMakingSpec(big_size=2, transaction_cost=0.0, risk_aversion=-1.0)

    def test_risk_aversion_refused_for_solves(self, unit_setup):
        kernel, layout, _, field = unit_setup
        spec = MarketMakingSpec(big_size=2, transaction_cost=0.0, risk_aversion=1.0)
        with pytest.raises(UnsupportedRiskAversion):
            optimal_policy(kernel, layout, spec, field)
        with pytest.raises(UnsupportedRiskAversion):
            solve_quote_value(kernel, layout, spec, field)

    def test_layout_size_mismatch(self, unit_setup):
        kernel, layout, _, field = unit_setup
        spec = MarketMakingSpec(big_size=3, transaction_cost=0.0)
        with pytest.raises(ValueError, match="big size"):
            QuoteGainSource(kernel, layout, spec, field)


class TestQuoteGainRate:
    def test_worked_example(self, unit_setup):
        # martingale price, unit flows and mean size, delta=0.01, cost=0.001,
        # unit hazard, big size 2, price 1: rate = 0.009 - 0.002 = 0.007
        kernel, layout, spec, field = unit_setup
        rates = QuoteGainSource(kernel, layout, spec, field).rate_point(0.2, 1.0, 2, 0.0)
        assert rates.shape == (2,)
        for rate in rates:
            assert rate == pytest.approx(0.007, abs=1e-7)

    def test_cost_above_tick_kills_both_terms(self, unit_setup):
        kernel, layout, _, field = unit_setup
        spec = MarketMakingSpec(big_size=2, transaction_cost=0.02)  # cost > delta
        lattice = field.lattice
        mask = lattice.report_mask & (lattice.prices >= 1.0)
        source = QuoteGainSource(kernel, layout, spec, field)
        rates = source.gain_rates_at_age(0.0)
        assert np.all(rates[..., mask] <= 1e-12)

    def test_vanishing_intensities_give_zero(self, unit_setup):
        kernel = SemiMarkovKernel(
            ConstantIntensity(1.0),
            ConstantIntensity(1.0),
            0.01,
        )
        field = solve_expected_price(kernel, GridSpec(n_t=60), 1.0, 1.0)
        layout = MarkLayout(
            kernel, ConstantIntensity(0.0), ConstantIntensity(0.0),
            (0.0, 1.0), (0.0, 1.0),
        )
        spec = MarketMakingSpec(big_size=1, transaction_cost=0.01)  # cost == delta
        # with zero flow, a martingale price and cost == tick the big term is
        # K * h * (p - p_img)*alpha + (delta - cost) = -p*delta + 0 at p = 1
        # slot 0, the down move from state 1, enters state 3
        rate = QuoteGainSource(kernel, layout, spec, field).rate_point(0.5, 1.0, 1, 0.0)[0]
        assert rate == pytest.approx(-0.01, abs=1e-7)

    def test_consistent_variant_scales_edge_with_price(self, asymmetric_kernel, asymmetric_layout):
        field = solve_expected_price(asymmetric_kernel, GridSpec(n_t=60), 1.0, 2.0)
        verbatim = MarketMakingSpec(big_size=2, transaction_cost=0.001)
        consistent = MarketMakingSpec(
            big_size=2, transaction_cost=0.001, portfolio_consistent=True
        )
        r_v, r_c = (
            # slot 1, the up move from state 2 into state 4
            QuoteGainSource(asymmetric_kernel, asymmetric_layout, spec, field).rate_point(
                0.3, 2.0, 2, 0.0
            )[1]
            for spec in (verbatim, consistent)
        )
        # at price 2 the per-unit edge differs by (p-1)*delta per intensity unit
        lam_term = asymmetric_layout.ask_flow.value(0.0) * asymmetric_layout.mean_size(+1)
        big_term = asymmetric_kernel.continuation.value(0.0) * 2
        assert r_c - r_v == pytest.approx((lam_term + big_term) * (2.0 - 1.0) * 0.01, rel=1e-9)

    def test_monotone_in_cost(self, asym_setup):
        kernel, layout, _, field, _ = asym_setup
        rates = []
        for cost in (0.0, 0.002, 0.01):
            spec = MarketMakingSpec(big_size=2, transaction_cost=cost, portfolio_consistent=True)
            src = QuoteGainSource(kernel, layout, spec, field)
            rates.append(src.gain_rates_at_age(0.0))
        assert np.all(rates[0] >= rates[1] - 1e-15)
        assert np.all(rates[1] >= rates[2] - 1e-15)


class TestOptimalPolicy:
    def test_all_positive_quotes_both(self, unit_setup):
        kernel, layout, spec, field = unit_setup
        pol = optimal_policy(kernel, layout, spec, field)
        assert pol(0.2, 1.0, 2, 0.0) == (1, 1)

    def test_tie_breaks_to_no_quote(self, unit_setup, monkeypatch):
        kernel, layout, spec, field = unit_setup
        pol = optimal_policy(kernel, layout, spec, field)
        monkeypatch.setattr(pol.source, "rate_point", lambda *a, **k: 0.0)
        assert pol(0.2, 1.0, 2, 0.0) == (0, 0)

    def test_scaling_invariance(self):
        # scaling all intensities by gamma and the horizon by 1/gamma leaves
        # the quote bits at corresponding grid nodes unchanged
        gamma = 3.0
        bits = []
        for scale, horizon in ((1.0, 1.0), (gamma, 1.0 / gamma)):
            kernel = SemiMarkovKernel(
                ConstantIntensity(0.8 * scale), ConstantIntensity(0.4 * scale), 0.01
            )
            layout = MarkLayout(
                kernel,
                ConstantIntensity(1.5 * scale),
                ConstantIntensity(1.0 * scale),
                (0.2, 0.5, 0.3),
                (0.1, 0.6, 0.3),
            )
            spec = MarketMakingSpec(big_size=2, transaction_cost=0.003,
                                    portfolio_consistent=True)
            field = solve_expected_price(kernel, GridSpec(n_t=80, n_max=8), horizon, 1.0)
            src = QuoteGainSource(kernel, layout, spec, field)
            bits.append(src.gain_rates_at_age(0.0) > 0)
        # per (slot, direction): boundary nodes may flip, bulk must not
        mismatch = bits[0] != bits[1]
        assert np.all(mismatch.mean(axis=(2, 3)) < 0.005)


class TestQuoteValue:
    def test_nonnegative_and_terminal_zero(self, asym_setup):
        *_, quote = asym_setup
        assert quote.core.min() >= -1e-12
        assert np.abs(quote.core[:, -1]).max() == 0.0

    def test_prohibitive_cost_gives_zero(self, unit_setup):
        kernel, layout, _, field = unit_setup
        spec = MarketMakingSpec(big_size=2, transaction_cost=0.05)
        quote = solve_quote_value(kernel, layout, spec, field)
        assert np.abs(quote.core).max() <= 1e-12
        assert quote.iterations == 1

    def test_matches_monte_carlo(self, asym_setup):
        kernel, layout, spec, field, quote = asym_setup
        src = QuoteGainSource(kernel, layout, spec, field)
        est = estimate_terminal_value(
            kernel, lambda p: 0.0, src, (0.0, 1.0, 2, 0.0), 1.0, 3000, 77
        )
        assert abs(z_score(quote.eval(0.0, 1.0, 2, 0.0), est)) < 3.0

    @pytest.mark.parametrize("flat", [True, False], ids=["age_free", "saturating"])
    def test_integrals_match_rates_at_each_age(
        self, asym_setup, saturating_kernel, saturating_layout, flat
    ):
        # the source integral reads one shared age-free source (flat, exactly)
        # or one characteristic sweep (saturating, to rounding); both must
        # equal the fold of the sum over both slots of gain_rates_at_age at
        # every age node
        if flat:
            kernel, layout, spec, field, _ = asym_setup
        else:
            kernel, layout = saturating_kernel, saturating_layout
            spec = MarketMakingSpec(big_size=layout.max_units, transaction_cost=0.001)
            field = solve_expected_price(kernel, GridSpec(n_t=20), 1.0, 1.0)
        src = QuoteGainSource(kernel, layout, spec, field)
        h = field.t_grid[1] - field.t_grid[0]
        q_source = _build_tables(kernel, field.t_grid, 0.0).q_source
        expected = np.zeros_like(field.core)
        for d in range(len(field.t_grid)):
            slab = np.zeros_like(field.core[:, d:])
            for rates in src.gain_rates_at_age(d * h):
                slab += np.maximum(rates[:, d:], 0.0)
            expected[:, : slab.shape[1]] += q_source.diagonal(d)[:, None] * slab
        got = src.integrals(q_source)
        if flat:
            np.testing.assert_array_equal(got, expected)
        else:
            assert field.vnorm(got - expected) <= 1e-12

    def test_grid_mismatch_rejected(self, asym_setup):
        kernel, layout, spec, field, _ = asym_setup
        with pytest.raises(ValueError, match="grid"):
            solve_quote_value(kernel, layout, spec, field, grid=GridSpec(n_t=50))


class TestValues:
    def test_flat_inventory_is_cash(self, asym_setup):
        kernel, layout, spec, field, quote = asym_setup
        zero_q = solve_quote_value(
            kernel, layout,
            MarketMakingSpec(big_size=2, transaction_cost=0.5, portfolio_consistent=True),
            field,
        )
        assert total_value(field, zero_q, 0.3, 1.0, 2, 0.0, 7.5, 0) == pytest.approx(7.5)

    def test_terminal_value_is_marked_portfolio(self, asym_setup):
        kernel, layout, spec, field, quote = asym_setup
        p = float(field.lattice.prices[field.lattice.index_of(1, 0)])
        got = total_value(field, quote, 1.0, p, 4, 0.2, 2.0, 3)
        assert got == pytest.approx(2.0 + 3 * p, rel=1e-12)

    def test_martingale_no_edge_value_is_marked_portfolio(self, unit_setup):
        kernel, layout, _, field = unit_setup
        spec = MarketMakingSpec(big_size=2, transaction_cost=0.05)
        quote = solve_quote_value(kernel, layout, spec, field)
        for t in (0.0, 0.4, 0.9):
            got = total_value(field, quote, t, 1.0, 2, 0.0, 1.0, 5)
            assert got == pytest.approx(1.0 + 5 * 1.0, rel=1e-6)

    def test_holding_value(self, asym_setup):
        _, _, _, field, quote = asym_setup
        assert holding_value(field, 0.2, 1.0, 2, 0.0, 3.0, 0, risk_aversion=2.0) == 3.0
        hv = holding_value(field, 0.2, 1.0, 2, 0.0, 1.0, 4, risk_aversion=0.0)
        tv = total_value(field, quote, 0.2, 1.0, 2, 0.0, 1.0, 4)
        assert tv - hv == pytest.approx(quote.eval(0.2, 1.0, 2, 0.0), rel=1e-12)
        # positive aversion penalises the square of the inventory
        hv2 = holding_value(field, 0.2, 1.0, 2, 0.0, 1.0, 4, risk_aversion=0.5)
        assert hv - hv2 == pytest.approx(0.5 * 16)

    def test_holding_value_matches_hold_backtest(self, asym_setup):
        kernel, layout, spec, field, _ = asym_setup
        start = MarketState(1.0, 2, 0.0)
        agent = AgentState(cash=1.0, inventory=3)
        report = backtest(
            default_baselines(), kernel, layout, spec, start, agent, 1.0, 4000, 11
        )
        row = report.row("hold")
        expect = holding_value(field, 0.0, 1.0, 2, 0.0, 1.0, 3, risk_aversion=0.0)
        assert abs(row.mean - expect) <= 3.0 * row.se


class TestUpperBound:
    def test_zero_horizon(self, unit_setup):
        kernel, layout, spec, _ = unit_setup
        assert value_upper_bound(spec, kernel, layout, 1.0, 1.0, 2.0, 3, 1.0) == pytest.approx(
            2.0 + 3.0
        )

    def test_hand_value(self):
        kernel = SemiMarkovKernel(ConstantIntensity(0.5), ConstantIntensity(0.5), 0.01)
        layout = MarkLayout(
            kernel, ConstantIntensity(1.0), ConstantIntensity(1.0), (0.5, 0.5), (0.5, 0.5)
        )
        spec = MarketMakingSpec(big_size=1, transaction_cost=0.0)
        # both intensity bounds are 1 -> c = 2*(K+1)*1 = 4
        got = value_upper_bound(spec, kernel, layout, 0.0, 1.0, 0.0, 1, 1.0)
        assert got == pytest.approx(1.0 + 101.0 * (math.exp(0.04) - 1.0), rel=1e-12)

    def test_zero_tick_limit(self):
        kernel = SemiMarkovKernel(ConstantIntensity(0.5), ConstantIntensity(0.5), 0.0)
        layout = MarkLayout(
            kernel, ConstantIntensity(1.0), ConstantIntensity(1.0), (0.5, 0.5), (0.5, 0.5)
        )
        spec = MarketMakingSpec(big_size=1, transaction_cost=0.1)
        got = value_upper_bound(spec, kernel, layout, 0.0, 1.0, 0.0, 0, 1.0)
        assert got == pytest.approx(1.0 * 4.0 + 4.0 * 0.1, rel=1e-12)

    def test_before_start_rejected(self, unit_setup):
        kernel, layout, spec, _ = unit_setup
        with pytest.raises(ValueError):
            value_upper_bound(spec, kernel, layout, 2.0, 1.0, 0.0, 0, 1.0)


class TestBacktest:
    def test_deterministic(self, asym_setup):
        kernel, layout, spec, field, _ = asym_setup
        start = MarketState(1.0, 2, 0.0)
        pols = default_baselines()
        r1 = backtest(pols, kernel, layout, spec, start, AgentState(), 1.0, 200, 5)
        r2 = backtest(pols, kernel, layout, spec, start, AgentState(), 1.0, 200, 5)
        assert [(a.policy, a.mean, a.se) for a in r1.rows] == [
            (a.policy, a.mean, a.se) for a in r2.rows
        ]

    def test_single_path(self, asym_setup):
        kernel, layout, spec, *_ = asym_setup
        r = backtest(
            default_baselines(), kernel, layout, spec,
            MarketState(1.0, 2, 0.0), AgentState(), 1.0, 1, 5,
        )
        assert all(row.se == 0.0 for row in r.rows)

    def test_optimal_dominates_baselines(self, asym_setup):
        kernel, layout, spec, field, quote = asym_setup
        pols = default_baselines() + [optimal_policy(kernel, layout, spec, field)]
        report = backtest(
            pols, kernel, layout, spec, MarketState(1.0, 2, 0.0), AgentState(), 1.0, 4000, 5
        )
        opt = report.row("optimal")
        for row in report.rows:
            assert opt.mean >= row.mean - 2.0 * row.se
            assert row.mean <= report.upper_bound + 1e-9
        solved = total_value(field, quote, 0.0, 1.0, 2, 0.0, 0.0, 0)
        assert abs(opt.mean - solved) <= 3.0 * max(opt.se, 1e-12)

    @pytest.mark.parametrize("preset", ["asymmetric-constant", "saturating-hazard"])
    def test_grid_state_is_not_built_for_a_backtest(self, monkeypatch, preset):
        # a backtest reads the optimal policy's source only at event points,
        # through rate_point, so the grid-only big-order edge is never built
        cfg = load_config(preset)
        field = solve_expected_price(cfg.kernel, cfg.grid, cfg.horizon, 1.0)
        made = []

        def recorded(*args):
            made.append(optimal_policy(*args))
            return made[-1]

        monkeypatch.setattr(mm, "optimal_policy", recorded)
        mm.backtest_against_baselines(
            cfg.kernel, cfg.layout, cfg.mmspec, field, cfg.initial_market, AgentState(),
            cfg.horizon, 200, 3,
        )
        (policy,) = made
        assert "_big_edge" not in policy.source.__dict__
        policy.source.gain_rates_at_age(0.0)
        assert "_big_edge" in policy.source.__dict__

    def test_report_io(self, asym_setup, tmp_path):
        kernel, layout, spec, *_ = asym_setup
        r = backtest(
            default_baselines(), kernel, layout, spec,
            MarketState(1.0, 2, 0.0), AgentState(), 1.0, 50, 5,
        )
        r.to_csv(tmp_path / "bt.csv", header_meta={"config_sha256": "x"})
        payload = r.to_json(tmp_path / "bt.json")
        text = (tmp_path / "bt.csv").read_text()
        assert text.startswith("#")
        assert "upper_bound" in text
        assert len(payload["rows"]) == 5


    def test_no_event_on_any_path(self, asym_setup):
        # every policy is called on empty event arrays and keeps the agent
        kernel, layout, spec, field, _ = asym_setup
        policies = default_baselines() + [optimal_policy(kernel, layout, spec, field)]
        r = backtest(
            policies, kernel, layout, spec, MarketState(1.0, 2, 0.0), AgentState(0.5, 2),
            1e-9, 30, 5,
        )
        assert r.events == 0
        assert [(row.mean, row.se) for row in r.rows] == [(2.5, 0.0)] * len(policies)

    def test_report_counts_candidates_and_events(self, asym_setup):
        kernel, layout, spec, *_ = asym_setup
        r = backtest(
            default_baselines(), kernel, layout, spec,
            MarketState(1.0, 2, 0.0), AgentState(), 1.0, 50, 5,
        )
        codes = np.concatenate([code for *_, (*_, code) in simulate.thinning_blocks(
            kernel, layout, (0.0, 1.0, 2, 0.0), 1.0, 50, 5
        )])
        counts = (np.count_nonzero(codes), np.count_nonzero(codes >= BIG))
        assert (r.candidates, r.events) == counts and 0 < counts[1] < counts[0]
        payload = r.to_json()
        assert (payload["candidates"], payload["events"]) == counts

    def test_blocked_policies_match_per_event_replay(
        self, saturating_kernel, saturating_layout, scalar_thinning, monkeypatch
    ):
        # policies called once per block of paths on event arrays give the
        # table of a per-event replay with scalar calls; the optimal policy
        # reads exact extensions at every nonzero age.  So do a horizon at
        # which most paths have no event, risk aversion, a block boundary and
        # blocks that the row budget closes early
        kernel, layout = saturating_kernel, saturating_layout
        spec = MarketMakingSpec(big_size=layout.max_units, transaction_cost=0.001)
        field = solve_expected_price(kernel, GridSpec(n_t=40), 1.0, 1.0)
        policies = default_baselines() + [optimal_policy(kernel, layout, spec, field)]
        start, agent, n_paths, seed = MarketState(1.0, 2, 0.0), AgentState(0.5, -1), 300, 21

        @functools.cache
        def holdings(horizon):
            # each policy's terminal cash and inventory on every path, and
            # each path's terminal price
            x, y, end_p = np.empty((len(policies), n_paths)), np.empty((len(policies), n_paths)), []
            n_quiet = 0
            for idx in range(n_paths):
                events = []
                for _, t1, p, i, _, s1, mark in scalar_thinning.segments(
                    kernel, layout, (0.0, 1.0, 2, 0.0), horizon, path_rng(seed, idx)
                ):
                    if mark is not None and mark is not NO_EVENT:
                        side, d_cash, d_inv, _ = order_fill(
                            mark, (1, 1), layout.max_units, p, kernel.delta, spec.transaction_cost
                        )
                        events.append((t1, p, i, s1, side > 0, d_cash, d_inv))
                n_quiet += not events
                for k, policy in enumerate(policies):
                    x[k, idx], y[k, idx] = agent.cash, agent.inventory
                    for tv, p_pre, i_pre, s_pre, ask_side, d_cash, d_inv in events:
                        l_ask, l_bid = policy(tv, p_pre, i_pre, s_pre)
                        if (l_ask if ask_side else l_bid):
                            x[k, idx] += d_cash
                            y[k, idx] += d_inv
                end_p.append(p)
            return n_quiet, x, y, np.array(end_p)

        def replay(horizon, eta):
            n_quiet, x, y, end_p = holdings(horizon)
            values = x + end_p * y - eta * y * y
            expected = [McEstimate.from_values(values[k], seed) for k in range(len(policies))]
            return n_quiet, [(pol.name, est.mean, est.se) for pol, est in zip(policies, expected)]

        def table(horizon, eta):
            report = backtest(
                policies, kernel, layout, replace(spec, risk_aversion=eta), start, agent,
                horizon, n_paths, seed,
            )
            return [(r.policy, r.mean, r.se) for r in report.rows]

        n_quiet, expected = replay(1.0, 0.0)
        assert table(1.0, 0.0) == expected
        n_quiet, short = replay(0.05, 0.0)
        assert n_quiet > n_paths // 2
        assert table(0.05, 0.0) == short
        assert table(1.0, 0.05) == replay(1.0, 0.05)[1]
        with monkeypatch.context() as patch:
            patch.setattr(simulate, "_SEED_BLOCK", 150)  # 300 paths fill two blocks
            assert table(1.0, 0.0) == expected
        with monkeypatch.context() as patch:
            starts = []
            blocks = mm.thinning_blocks

            def recorded(*args):
                for block in blocks(*args):
                    starts.append(block[0])
                    yield block

            patch.setattr(simulate, "_BLOCK_ROWS", 64)
            patch.setattr(mm, "thinning_blocks", recorded)
            assert table(1.0, 0.0) == expected
            assert len(starts) > 2

    def test_off_lattice_price_refused(self, saturating_kernel, saturating_layout):
        kernel, layout = saturating_kernel, saturating_layout
        spec = MarketMakingSpec(big_size=layout.max_units, transaction_cost=0.001)
        field = solve_expected_price(kernel, GridSpec(n_t=20), 1.0, 1.0)
        policies = [optimal_policy(kernel, layout, spec, field)]
        with pytest.raises(ValueError, match=r"price 1\.003 .*anchor 1\.0, delta 0\.01"):
            backtest(
                policies, kernel, layout, spec, MarketState(1.003, 2, 0.0), AgentState(),
                1.0, 20, 3,
            )


class TestPolicyExport:
    def test_csv_shape(self, asym_setup, tmp_path):
        kernel, layout, spec, field, _ = asym_setup
        out = tmp_path / "policy.csv"
        export_policy_csv(out, kernel, layout, spec, field, s_values=[0.0, 0.5])
        lines = out.read_text().splitlines()
        assert lines[1] == "t,p,i,s,quote_ask,quote_bid"
        n_nodes = int(field.lattice.report_mask.sum())
        assert len(lines) == 2 + 2 * 4 * len(field.t_grid) * n_nodes


@pytest.fixture(scope="module", params=["saturating-hazard", "asymmetric-constant"])
def reader(request):
    """A preset's expected-price field and the optimal policy on it."""
    cfg = load_config(request.param)
    field = solve_expected_price(cfg.kernel, cfg.grid, cfg.horizon, 1.0)
    return field, optimal_policy(cfg.kernel, cfg.layout, cfg.mmspec, field)


class TestSlotForms:
    def test_match_transition_keyed_reference(self, reader, reference_rates):
        # slot b of state i is the transition i -> successors(i)[b], byte for
        # byte: on the grid, at scalar points and at arrays of points of
        # mixed states, at age zero and at an age the field extends to
        field, policy = reader
        source = policy.source
        rng = np.random.default_rng(8)
        report = field.lattice.prices[field.lattice.report_mask]
        t, p = rng.random(40), rng.choice(report, 40)
        i = rng.integers(STATES[0], STATES[-1] + 1, 40)
        for s in (0.0, 0.3):
            grid, keyed = source.gain_rates_at_age(s), reference_rates.gain_rates_at_age(source, s)
            assert grid.shape == (2,) + field.core.shape
            at_points = source.rate_point(t, p, i, np.full(40, s))
            for b in range(2):
                j = np.array([successors(k)[b] for k in i])
                expect = reference_rates.rate_point(source, t, p, i, np.full(40, s), j)
                assert at_points[b].tobytes() == expect.tobytes()
            for state in STATES:
                at_point = source.rate_point(0.4, 1.0, state, s)
                for b, j in enumerate(successors(state)):
                    column = grid[b, direction_index(state)]
                    assert column.tobytes() == keyed[(state, j)].tobytes()
                    expect = reference_rates.rate_point(source, 0.4, 1.0, state, s, j)
                    assert at_point[b].tobytes() == expect.tobytes()


@pytest.mark.parametrize(
    "preset", ["symmetric-martingale", "asymmetric-constant", "saturating-hazard"]
)
def test_grid_rates_match_four_state_reference(preset, reference_rates):
    # every transition's rate on the grid is its direction's column, byte for
    # byte, at age zero and at an age the field extends to
    cfg = load_config(preset)
    field = solve_expected_price(cfg.kernel, cfg.grid, cfg.horizon, 1.0)
    source = QuoteGainSource(cfg.kernel, cfg.layout, cfg.mmspec, field)
    for s in (0.0, 0.3):
        grid, keyed = source.gain_rates_at_age(s), reference_rates.gain_rates_at_age(source, s)
        for (i, j), expect in keyed.items():
            slot = successors(i).index(j)
            assert grid[slot, direction_index(i)].tobytes() == expect.tobytes()


class TestReadDomain:
    """Every read of a field refuses a time off [0, horizon], an age that is
    negative or not finite, a state outside STATES and a lattice node off
    the lattice, with one ValueError naming the value; reads of the field feed ``eval``, the gain rate and the
    optimal policy."""

    @pytest.mark.parametrize(
        "t, s, named",
        [
            (-0.5, 0.3, r"time -0\.5"),
            (1.5, 0.0, r"time 1\.5"),
            (1.5, 0.3, r"time 1\.5"),
            (math.nan, 0.3, "time nan"),
            (0.5, -0.1, r"age -0\.1"),
            (0.5, math.nan, "age nan"),
            (0.5, math.inf, "age inf"),
        ],
    )
    def test_off_domain_refused(self, reader, t, s, named):
        field, policy = reader
        assert field.horizon == 1.0
        for read in (
            lambda: field.eval(t, 1.0, 2, s),
            lambda: policy.source.rate_point(t, 1.0, 2, s),
            lambda: policy(t, 1.0, 2, s),
        ):
            with pytest.raises(ValueError, match=named):
                read()

    @pytest.mark.parametrize(
        "i, named", [(0, "state 0 is"), (5, "state 5 is"), (2.5, r"state 2\.5 is")]
    )
    def test_bad_state_refused(self, reader, i, named):
        field, policy = reader
        for read in (
            lambda: field.eval(0.5, 1.0, i, 0.3),
            lambda: policy.source.rate_point(0.5, 1.0, i, 0.3),
            lambda: policy(0.5, 1.0, i, 0.3),
            lambda: policy(np.array([0.5, 0.6]), 1.0, np.array([2, i]), 0.3),
        ):
            with pytest.raises(ValueError, match=named):
                read()

    @pytest.mark.parametrize("node", [-1, "n_nodes", 2.5, math.nan])
    def test_bad_node_refused(self, reader, node):
        # node -1 would read the last node and node n_nodes past the end
        field, _ = reader
        n_nodes = field.lattice.n_nodes
        node = n_nodes if node == "n_nodes" else node
        named = f"lattice node {re.escape(repr(node))} lies outside 0..{n_nodes - 1}"
        for s in (0.0, 0.3):
            for read in (
                lambda: field.read(0.5, node, 2, s),
                lambda: field.read(0.5, np.array([0, node]), 2, s),
            ):
                with pytest.raises(ValueError, match=named):
                    read()
        for good in (0, n_nodes - 1, np.arange(n_nodes), float(n_nodes - 1)):
            assert np.isfinite(field.read(0.5, good, 2, 0.3)).all()

    def test_domain_ends_accepted(self, reader):
        field, policy = reader
        for t in (0.0, field.horizon):
            for s in (0.0, 0.3):
                assert math.isfinite(field.eval(t, 1.0, 2, s))
                assert np.isfinite(policy.source.rate_point(t, 1.0, 2, s)).all()
                assert policy(t, 1.0, 2, s) in {(0, 0), (0, 1), (1, 0), (1, 1)}
        # the expected terminal price is the payoff at the horizon, at any age
        assert field.eval(field.horizon, 1.0, 2, 0.3) == 1.0
