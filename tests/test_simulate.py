"""Path simulators: sampling primitives, renewal/thinning equivalence,
controlled accounting, determinism."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from semitick import (
    AgentState,
    AlwaysQuotePolicy,
    BigJump,
    ConstantIntensity,
    HoldPolicy,
    SaturatingIntensity,
    MarketState,
    RandomQuotePolicy,
    MarkLayout,
    MarketMakingSpec,
    SemiMarkovKernel,
    SmallOrder,
    alpha,
    backtest,
    path_rng,
    sample_holding,
    sample_transition,
    simulate_controlled_path,
    simulate_price_path,
    simulate_price_path_thinning,
)
from semitick.simulate import big_order_fill, small_order_fill


class TestSampleHolding:
    def test_exponential_inverse(self, symmetric_kernel):
        u = 1.0 - math.exp(-1.0)
        assert sample_holding(symmetric_kernel, 0.0, u) == pytest.approx(1.0, abs=1e-14)

    def test_memoryless_at_any_age(self, symmetric_kernel):
        u = 1.0 - math.exp(-1.0)
        assert sample_holding(symmetric_kernel, 7.0, u) == pytest.approx(1.0, abs=1e-14)

    def test_u_domain(self, symmetric_kernel):
        for bad in (0.0, 1.0, -0.2, 1.3):
            with pytest.raises(ValueError):
                sample_holding(symmetric_kernel, 0.0, bad)

    def test_saturating_self_consistency(self, saturating_kernel):
        # the sampled increment must hit the conditional distribution exactly
        rng = np.random.default_rng(7)
        for _ in range(200):
            s0 = rng.uniform(0.0, 3.0)
            u = rng.uniform(1e-6, 1.0 - 1e-6)
            w = sample_holding(saturating_kernel, s0, u)
            f0 = saturating_kernel.holding_cdf(s0)
            fw = saturating_kernel.holding_cdf(s0 + w)
            assert fw - f0 == pytest.approx(u * (1.0 - f0), abs=1e-10)


# constant continuation beside a saturating reversal that starts at zero: the
# saturating part of the increment is all cancellation at small w
MIXED_KERNEL = SemiMarkovKernel(
    ConstantIntensity(0.4), SaturatingIntensity(base=0.0, gain=3.0, rate=0.5), 0.01
)
GRID_S0 = np.linspace(0.0, 3.0, 31).tolist()
GRID_U = np.linspace(1e-6, 1.0 - 1e-6, 80).tolist()


def bisect_holding(gap, s0, kernel):
    """The 100-step bracketed bisection the Newton inversion replaced."""
    hi = 1.0 / max(kernel.total_intensity(s0), 1e-12)
    while gap(hi) < 0.0:
        hi *= 2.0
    lo = 0.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if gap(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@pytest.fixture(params=["saturating", "mixed"])
def age_kernel(request, saturating_kernel):
    return saturating_kernel if request.param == "saturating" else MIXED_KERNEL


class TestNewtonHolding:
    def test_matches_bisection_on_the_increment(self, age_kernel):
        worst = 0.0
        for s0 in GRID_S0:
            for u in GRID_U:
                target = -math.log1p(-u)
                ref = bisect_holding(
                    lambda w: age_kernel.integrated_increment(s0, w) - target, s0, age_kernel
                )
                worst = max(worst, abs(sample_holding(age_kernel, s0, u) - ref) / ref)
        assert worst <= 1e-14

    def test_matches_bisection_on_the_integrated_intensity(self, age_kernel):
        # the old gap Lambda(s0 + w) - Lambda(s0) carries a rounding of about
        # eps * Lambda(s0 + w), which moves its root by that over h(s0 + w)
        eps = np.finfo(float).eps
        for s0 in GRID_S0:
            lam0 = age_kernel.integrated_intensity(s0)
            for u in GRID_U:
                target = -math.log1p(-u)
                ref = bisect_holding(
                    lambda w: age_kernel.integrated_intensity(s0 + w) - lam0 - target,
                    s0, age_kernel,
                )
                w = sample_holding(age_kernel, s0, u)
                lam, h = age_kernel.integrated_intensity(s0 + w), age_kernel.total_intensity(s0 + w)
                assert abs(w - ref) <= 16.0 * eps * lam / h, (s0, u)

    @settings(max_examples=300, deadline=None)
    @given(
        which=st.sampled_from(["saturating", "mixed"]),
        s0=st.floats(0.0, 1e300),
        pair=st.lists(st.floats(2.0**-53, 1.0 - 2.0**-53), min_size=2, max_size=2),
    )
    def test_draw_solves_the_increment(self, saturating_kernel, which, s0, pair):
        kernel = saturating_kernel if which == "saturating" else MIXED_KERNEL
        draws = []
        for u in sorted(pair):
            w = sample_holding(kernel, s0, u)
            target = -math.log1p(-u)
            assert math.isfinite(w) and w > 0.0
            assert abs(kernel.integrated_increment(s0, w) - target) <= 1e-14 * target
            draws.append(w)
        assert draws[0] <= draws[1]

    @pytest.mark.parametrize("s0", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_age_refused(self, saturating_kernel, symmetric_kernel, s0):
        for kernel in (saturating_kernel, symmetric_kernel):
            with pytest.raises(ValueError, match=f"current age must be finite, got {s0}"):
                sample_holding(kernel, s0, 0.5)

    def test_large_age_draws_from_the_saturated_tail(self, saturating_kernel):
        # past saturation the holding is exponential at the total bound 2.0; a
        # difference of integrated intensities would cancel to zero at age 1e17
        u = 1.0 - math.exp(-2.0)
        for s0 in (40.0, 1e17, 1e300):
            assert sample_holding(saturating_kernel, s0, u) == pytest.approx(1.0, rel=1e-15)


class TestSampleTransition:
    def test_symmetric_first_cell(self, symmetric_kernel):
        assert sample_transition(symmetric_kernel, 1, 1.0, 0.25) == 3

    def test_enumeration_order_is_smaller_state_first(self):
        k = SemiMarkovKernel(ConstantIntensity(0.6), ConstantIntensity(0.4), 0.01)
        # from state 1 the smaller successor (3) continues: cells 0.6 then 0.4
        assert sample_transition(k, 1, 2.0, 0.55) == 3
        assert sample_transition(k, 1, 2.0, 0.95) == 4  # lands in the reversal cell
        # from state 2 the smaller successor (3) reverses: cells 0.4 then 0.6
        assert sample_transition(k, 2, 2.0, 0.25) == 3
        assert sample_transition(k, 2, 2.0, 0.55) == 4

    def test_frequencies_match_weights(self, saturating_kernel):
        rng = np.random.default_rng(42)
        n = 100_000
        y = 0.8
        p_first = saturating_kernel.transition_prob(1, 3, y)
        draws = np.array(
            [sample_transition(saturating_kernel, 1, y, u) for u in rng.random(n)]
        )
        hits = np.sum(draws == 3)
        sd = math.sqrt(n * p_first * (1 - p_first))
        assert abs(hits - n * p_first) <= 3.0 * sd


class TestRenewalPath:
    def test_zero_tick_keeps_price_constant(self):
        k = SemiMarkovKernel(ConstantIntensity(1.0), ConstantIntensity(1.0), 0.0)
        path = simulate_price_path(k, MarketState(5.0, 1, 0.0), 3.0, 11)
        assert path.jump_count > 0
        assert all(e.market_after.price == 5.0 for e in path.events)
        assert path.terminal_market.price == 5.0

    def test_prices_live_on_lattice(self, asymmetric_kernel, start_state):
        log_u = math.log1p(asymmetric_kernel.delta)
        log_d = math.log1p(-asymmetric_kernel.delta)
        for idx in range(30):
            path = simulate_price_path(asymmetric_kernel, start_state, 2.0, path_rng(3, idx))
            a = b = 0
            for e in path.events:
                if alpha(e.kind.target) > 0:
                    a += 1
                else:
                    b += 1
                expect = start_state.price * math.exp(a * log_u + b * log_d)
                assert e.market_after.price == pytest.approx(expect, rel=1e-9)

    def test_jump_count_is_poisson_for_flat_hazard(self, symmetric_kernel, start_state):
        # flat total intensity 1.0 over horizon 2.0
        n, horizon = 10_000, 2.0
        counts = [
            simulate_price_path(symmetric_kernel, start_state, horizon, path_rng(5, i)).jump_count
            for i in range(n)
        ]
        lam = horizon * symmetric_kernel.total_intensity(0.0)
        se = math.sqrt(lam / n)
        assert abs(np.mean(counts) - lam) <= 3.0 * se

    def test_age_bookkeeping(self, saturating_kernel):
        start = MarketState(1.0, 3, 0.6)
        path = simulate_price_path(saturating_kernel, start, 2.0, 9)
        t_prev, s_prev = 0.0, start.age
        for e in path.events:
            assert e.market_before.age == pytest.approx(s_prev + (e.time - t_prev), rel=1e-12)
            assert e.market_after.age == 0.0
            t_prev, s_prev = e.time, 0.0
        assert path.terminal_market.age == pytest.approx(
            s_prev + (path.horizon - t_prev), rel=1e-12
        )

    def test_determinism(self, saturating_kernel, start_state):
        p1 = simulate_price_path(saturating_kernel, start_state, 2.0, path_rng(17, 4))
        p2 = simulate_price_path(saturating_kernel, start_state, 2.0, path_rng(17, 4))
        assert [(e.time, e.kind, e.market_after.price) for e in p1.events] == [
            (e.time, e.kind, e.market_after.price) for e in p2.events
        ]

    def test_reachability(self, symmetric_kernel):
        # every direction state and both price directions show up
        seen_states, seen_up, seen_down = set(), 0, 0
        for idx in range(400):
            path = simulate_price_path(
                symmetric_kernel, MarketState(1.0, 1, 0.0), 3.0, path_rng(23, idx)
            )
            for e in path.events:
                seen_states.add(e.kind.target)
                if e.market_after.price > e.market_before.price:
                    seen_up += 1
                else:
                    seen_down += 1
        assert seen_states == {1, 2, 3, 4}
        assert seen_up > 0 and seen_down > 0


class TestThinningPath:
    def test_zero_tick(self, symmetric_layout):
        k = SemiMarkovKernel(ConstantIntensity(0.5), ConstantIntensity(0.5), 0.0)
        lay = MarkLayout(
            k, ConstantIntensity(1.0), ConstantIntensity(1.0),
            (0.1, 0.5, 0.3, 0.1), (0.1, 0.5, 0.3, 0.1),
        )
        path = simulate_price_path_thinning(k, lay, MarketState(2.0, 2, 0.0), 2.0, 3)
        assert path.terminal_market.price == 2.0

    def test_acceptance_fraction(self, saturating_kernel, saturating_layout):
        # accepted candidates / all candidates ~ time-average mass / domain
        start = MarketState(1.0, 2, 0.0)
        accepted = candidates = 0
        mass_samples = []
        for idx in range(1500):
            path = simulate_price_path_thinning(
                saturating_kernel, saturating_layout, start, 1.0, path_rng(31, idx)
            )
            accepted += len(path.events)
            candidates += path.n_candidates
        rng = np.random.default_rng(0)
        for idx in range(1500):
            # estimate the expected mass along an independent ensemble
            path = simulate_price_path(
                saturating_kernel, start, 1.0, path_rng(32, idx)
            )
            for t in rng.uniform(0.0, 1.0, 4):
                s = start.age + t
                for e in path.events:
                    if e.time > t:
                        break
                    s = t - e.time
                mass_samples.append(saturating_layout.total_mass(s))
        frac = accepted / candidates
        expect = np.mean(mass_samples) / saturating_layout.mark_domain
        assert frac == pytest.approx(expect, abs=0.02)

    def test_agrees_with_renewal(self, saturating_kernel, saturating_layout):
        start = MarketState(1.0, 2, 0.0)
        hold_r, hold_t = [], []
        for idx in range(3000):
            hold_r.extend(
                simulate_price_path(saturating_kernel, start, 1.5, path_rng(41, idx)).holding_times()
            )
            hold_t.extend(
                simulate_price_path_thinning(
                    saturating_kernel, saturating_layout, start, 1.5, path_rng(42, idx)
                ).holding_times()
            )
        assert stats.ks_2samp(hold_r, hold_t).pvalue > 0.01


class TestMarketState:
    @pytest.mark.parametrize(
        "price, age",
        [(math.nan, 0.0), (math.inf, 0.0), (1.0, math.nan), (1.0, math.inf)],
        ids=["nan_price", "inf_price", "nan_age", "inf_age"],
    )
    def test_non_finite_refused(self, price, age):
        with pytest.raises(ValueError, match="must be finite"):
            MarketState(price, 2, age)

    def test_no_thinning_path_from_a_nan_age(self, saturating_kernel, saturating_layout):
        # a NaN age would classify every mark before the first jump at age NaN
        with pytest.raises(ValueError, match="age must be finite"):
            simulate_price_path_thinning(
                saturating_kernel, saturating_layout, MarketState(1.0, 2, math.nan), 1.0, 3
            )


class TestControlledAccounting:
    def test_small_order_fill_example(self):
        d_cash, d_inv, px = small_order_fill(+1, 2, 100.0, 0.01, 0.1, 1)
        assert d_cash == pytest.approx(201.8, abs=1e-12)
        assert d_inv == -2
        assert px == pytest.approx(101.0)

    def test_big_order_fill_example(self):
        # down jump, bid quoted, 3 units: pay 99 each plus the fixed cost
        d_cash, d_inv, px = big_order_fill(3, 3, 100.0, 0.01, 0.1, 1)
        assert d_cash == pytest.approx(-297.3, abs=1e-12)
        assert d_inv == 3
        assert px == pytest.approx(99.0)

    def test_unquoted_side_leaves_portfolio(self):
        assert small_order_fill(-1, 2, 100.0, 0.01, 0.1, 0) == (0.0, 0, None)
        assert big_order_fill(4, 2, 100.0, 0.01, 0.1, 0) == (0.0, 0, None)

    def test_hold_policy_freezes_agent(self, asymmetric_kernel, asymmetric_layout):
        start = MarketState(1.0, 2, 0.0)
        agent = AgentState(cash=3.0, inventory=2)
        path = simulate_controlled_path(
            asymmetric_kernel, asymmetric_layout, HoldPolicy(), start, agent, 2.0, 13,
            transaction_cost=0.001,
        )
        assert path.terminal_agent == agent
        assert all(e.executed_units == 0 for e in path.events)

    def test_event_accounting_matches_fills(self, asymmetric_kernel, asymmetric_layout):
        start = MarketState(1.0, 2, 0.0)
        cost = 0.001
        path = simulate_controlled_path(
            asymmetric_kernel, asymmetric_layout, AlwaysQuotePolicy(), start,
            AgentState(0.0, 0), 2.0, 29, transaction_cost=cost,
        )
        assert path.events, "expected events on this seed"
        delta = asymmetric_kernel.delta
        big = asymmetric_layout.max_units
        for e in path.events:
            p = e.market_before.price
            if isinstance(e.kind, SmallOrder):
                d_cash, d_inv, _ = small_order_fill(e.kind.side, e.kind.units, p, delta, cost, 1)
            else:
                d_cash, d_inv, _ = big_order_fill(e.kind.target, big, p, delta, cost, 1)
            assert e.agent_after.cash - e.agent_before.cash == pytest.approx(d_cash, rel=1e-12)
            assert e.agent_after.inventory - e.agent_before.inventory == d_inv

    @pytest.mark.parametrize("policy", [AlwaysQuotePolicy(), RandomQuotePolicy(seed=3)])
    def test_per_event_portfolio_change_bound(
        self, asymmetric_kernel, asymmetric_layout, policy
    ):
        # the trade's portfolio impact at post prices never beats K(p*delta + cost)
        start = MarketState(1.0, 2, 0.0)
        cost = 0.002
        big = asymmetric_layout.max_units
        for idx in range(60):
            path = simulate_controlled_path(
                asymmetric_kernel, asymmetric_layout, policy, start,
                AgentState(0.0, 0), 2.0, path_rng(55, idx), transaction_cost=cost,
            )
            for e in path.events:
                change = (
                    e.agent_after.cash
                    - e.agent_before.cash
                    + (e.agent_after.inventory - e.agent_before.inventory)
                    * e.market_after.price
                )
                bound = big * (e.market_before.price * asymmetric_kernel.delta + cost)
                assert change <= bound + 1e-12

    def test_control_evaluated_at_left_limits(self, asymmetric_kernel, asymmetric_layout):
        seen = []

        class Recorder:
            name = "recorder"

            def __call__(self, t, p, i, s):
                seen.append((t, p, i, s))
                return (1, 1)

        path = simulate_controlled_path(
            asymmetric_kernel, asymmetric_layout, Recorder(), MarketState(1.0, 2, 0.0),
            AgentState(0.0, 0), 1.5, 77, transaction_cost=0.0,
        )
        assert len(seen) == len(path.events)
        for (t, p, i, s), e in zip(seen, path.events):
            assert (t, p, i, s) == (
                e.time,
                e.market_before.price,
                e.market_before.state,
                e.market_before.age,
            )


    def test_market_ignores_agent(self, saturating_kernel, saturating_layout):
        # the controlled run sees the uncontrolled thinning events, and the
        # backtest's replay of those events lands on the same terminal utility
        policy = RandomQuotePolicy(prob=0.5, seed=4)
        spec = MarketMakingSpec(big_size=2, transaction_cost=0.002, risk_aversion=0.05)
        start, agent = MarketState(1.0, 2, 0.25), AgentState(0.5, -1)
        for seed in range(8):
            plain = simulate_price_path_thinning(
                saturating_kernel, saturating_layout, start, 1.5, path_rng(seed, 0)
            )
            ctl = simulate_controlled_path(
                saturating_kernel, saturating_layout, policy, start, agent, 1.5,
                path_rng(seed, 0), transaction_cost=spec.transaction_cost,
            )
            assert ctl.n_candidates == plain.n_candidates
            assert ctl.terminal_market == plain.terminal_market
            assert [(e.time, e.kind, e.market_before, e.market_after) for e in ctl.events] == [
                (e.time, e.kind, e.market_before, e.market_after) for e in plain.events
            ]
            report = backtest(
                [policy], saturating_kernel, saturating_layout, spec, start, agent, 1.5, 1, seed
            )
            x, y = ctl.terminal_agent.cash, ctl.terminal_agent.inventory
            p_t = ctl.terminal_market.price
            assert report.rows[0].mean == x + p_t * y - spec.risk_aversion * y * y


class TestPolicies:
    def test_random_policy_is_pure(self):
        pol = RandomQuotePolicy(prob=0.5, seed=9)
        args = (0.37, 1.01, 2, 0.12)
        assert pol(*args) == pol(*args)
        other = RandomQuotePolicy(prob=0.5, seed=10)
        bits = [pol(t, 1.0, 1, 0.3) != other(t, 1.0, 1, 0.3) for t in np.linspace(0, 1, 64)]
        assert any(bits), "different seeds should disagree somewhere"

    def test_random_policy_rate(self):
        pol = RandomQuotePolicy(prob=0.5, seed=1)
        draws = [pol(t, 1.0, 1, 0.0) for t in np.linspace(0.0, 1.0, 4001)]
        mean_ask = np.mean([d[0] for d in draws])
        assert abs(mean_ask - 0.5) < 0.05

    def test_random_policy_on_arrays_matches_scalars(self):
        pol = RandomQuotePolicy(prob=0.5, seed=9)
        rng = np.random.default_rng(3)
        t, s = rng.random(64), rng.random(64)
        p, i = 1.01 ** rng.integers(-3, 4, 64), rng.integers(1, 5, 64)
        l_ask, l_bid = pol(t, p, i, s)
        scalar = [pol(*a) for a in zip(t.tolist(), p.tolist(), i.tolist(), s.tolist())]
        assert list(zip(l_ask.tolist(), l_bid.tolist())) == scalar

    def test_builtin_ranges(self):
        assert HoldPolicy()(0.1, 1.0, 1, 0.0) == (0, 0)
        assert AlwaysQuotePolicy()(0.1, 1.0, 1, 0.0) == (1, 1)


class TestPathExport:
    def test_csv_roundtrip_determinism(self, asymmetric_kernel, asymmetric_layout, tmp_path):
        start = MarketState(1.0, 2, 0.0)
        for run in (0, 1):
            path = simulate_controlled_path(
                asymmetric_kernel, asymmetric_layout, AlwaysQuotePolicy(), start,
                AgentState(0.0, 0), 2.0, path_rng(99, 0), transaction_cost=0.001,
            )
            path.to_csv(tmp_path / f"run{run}.csv", header_meta={"seed": 99})
        assert (tmp_path / "run0.csv").read_bytes() == (tmp_path / "run1.csv").read_bytes()

    def test_summary_fields(self, symmetric_kernel, start_state):
        path = simulate_price_path(symmetric_kernel, start_state, 1.0, 5)
        s = path.summary()
        assert s["n_big_jumps"] == path.jump_count
        assert s["terminal_price"] == path.terminal_market.price
