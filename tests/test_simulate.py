"""Event generators: sampling primitives, renewal/thinning equivalence,
order fills, determinism."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from semitick import (
    NO_EVENT,
    BigJump,
    ConstantIntensity,
    FixedQuotePolicy,
    SaturatingIntensity,
    MarketState,
    RandomQuotePolicy,
    MarkLayout,
    SemiMarkovKernel,
    SmallOrder,
    alpha,
    checks,
    default_baselines,
    path_rng,
    renewal_segments,
    sample_holding,
    sample_transition,
    thinning_segments,
)
from semitick.simulate import order_fill, path_streams


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


def at_zero(market):
    """The generators' ``start`` for ``market`` at time zero."""
    return (0.0, market.price, market.state, market.age)


def jumps(segments):
    """``(time, target, price before, price after, age before, age after)``
    of each big jump of a renewal path's segments."""
    segments = list(segments)
    return [
        (t1, j, p, after[2], s1, after[4])
        for (_, t1, p, _, _, s1, j), after in zip(segments, segments[1:])
    ]


class TestRenewalPath:
    def test_zero_tick_keeps_price_constant(self):
        k = SemiMarkovKernel(ConstantIntensity(1.0), ConstantIntensity(1.0), 0.0)
        segments = list(renewal_segments(k, (0.0, 5.0, 1, 0.0), 3.0, np.random.default_rng(11)))
        assert len(segments) > 1
        # every price after a jump and the terminal one
        assert all(p == 5.0 for _, _, p, *_ in segments)

    def test_prices_live_on_lattice(self, asymmetric_kernel, start_state):
        log_u = math.log1p(asymmetric_kernel.delta)
        log_d = math.log1p(-asymmetric_kernel.delta)
        start = at_zero(start_state)
        for idx in range(30):
            segments = renewal_segments(asymmetric_kernel, start, 2.0, path_rng(3, idx))
            a = b = 0
            for _, target, _, price_after, _, _ in jumps(segments):
                if alpha(target) > 0:
                    a += 1
                else:
                    b += 1
                expect = start_state.price * math.exp(a * log_u + b * log_d)
                assert price_after == pytest.approx(expect, rel=1e-9)

    def test_jump_count_is_poisson_for_flat_hazard(self, symmetric_kernel, start_state):
        # flat total intensity 1.0 over horizon 2.0
        n, horizon = 10_000, 2.0
        start = at_zero(start_state)
        counts = [
            len(list(renewal_segments(symmetric_kernel, start, horizon, path_rng(5, i)))) - 1
            for i in range(n)
        ]
        lam = horizon * symmetric_kernel.total_intensity(0.0)
        se = math.sqrt(lam / n)
        assert abs(np.mean(counts) - lam) <= 3.0 * se

    def test_age_bookkeeping(self, saturating_kernel):
        segments = list(
            renewal_segments(saturating_kernel, (0.0, 1.0, 3, 0.6), 2.0, np.random.default_rng(9))
        )
        t_prev, s_prev = 0.0, 0.6
        for time, _, _, _, age_before, age_after in jumps(segments):
            assert age_before == pytest.approx(s_prev + (time - t_prev), rel=1e-12)
            assert age_after == 0.0
            t_prev, s_prev = time, 0.0
        assert segments[-1][5] == pytest.approx(s_prev + (2.0 - t_prev), rel=1e-12)

    def test_determinism(self, saturating_kernel, start_state):
        start = at_zero(start_state)
        p1 = list(renewal_segments(saturating_kernel, start, 2.0, path_rng(17, 4)))
        p2 = list(renewal_segments(saturating_kernel, start, 2.0, path_rng(17, 4)))
        assert p1 == p2

    def test_reachability(self, symmetric_kernel):
        # every direction state and both price directions show up
        seen_states, seen_up, seen_down = set(), 0, 0
        for idx in range(400):
            start = (0.0, 1.0, 1, 0.0)
            segments = renewal_segments(symmetric_kernel, start, 3.0, path_rng(23, idx))
            for _, target, price_before, price_after, _, _ in jumps(segments):
                seen_states.add(target)
                if price_after > price_before:
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
        rng = np.random.default_rng(3)
        segments = list(thinning_segments(k, lay, (0.0, 2.0, 2, 0.0), 2.0, rng))
        assert segments[-1][2] == 2.0

    def test_acceptance_fraction(self, saturating_kernel, saturating_layout):
        # accepted candidates / all candidates ~ time-average mass / domain
        start = (0.0, 1.0, 2, 0.0)
        accepted = candidates = 0
        mass_samples = []
        for idx in range(1500):
            for *_, mark in thinning_segments(
                saturating_kernel, saturating_layout, start, 1.0, path_rng(31, idx)
            ):
                candidates += mark is not None
                accepted += mark is not None and mark is not NO_EVENT
        rng = np.random.default_rng(0)
        for idx in range(1500):
            # estimate the expected mass along an independent ensemble
            segments = renewal_segments(saturating_kernel, start, 1.0, path_rng(32, idx))
            times = [t1 for _, t1, *_, j in segments if j is not None]
            for t in rng.uniform(0.0, 1.0, 4):
                s = start[3] + t
                for time in times:
                    if time > t:
                        break
                    s = t - time
                mass_samples.append(saturating_layout.total_mass(s))
        frac = accepted / candidates
        expect = np.mean(mass_samples) / saturating_layout.mark_domain
        assert frac == pytest.approx(expect, abs=0.02)

    def test_agrees_with_renewal(self, saturating_kernel, saturating_layout):
        # holding times of renewal paths (streams 41) and thinning paths (42)
        check = checks.renewal_vs_thinning(
            saturating_kernel, saturating_layout, MarketState(1.0, 2, 0.0), 1.5, 3000, 41
        )
        assert check.measured["p"] > 0.01


class TestHoldingTimes:
    @pytest.mark.parametrize("age", [0.0, 0.25])
    def test_match_event_paths(self, saturating_kernel, saturating_layout, reference_paths, age):
        # short paths, so many have no jump and some two or more
        market = MarketState(1.0, 2, age)
        lengths = set()
        for idx in range(300):
            segments = renewal_segments(saturating_kernel, at_zero(market), 0.6, path_rng(7, idx))
            expect = reference_paths.renewal(
                saturating_kernel, market, 0.6, path_rng(7, idx)
            ).holding_times()
            assert checks._holding_times(segments, age) == expect
            segments = thinning_segments(
                saturating_kernel, saturating_layout, at_zero(market), 0.6, path_rng(8, idx)
            )
            path = reference_paths.thinning(
                saturating_kernel, saturating_layout, market, 0.6, path_rng(8, idx)
            )
            assert checks._holding_times(segments, age) == path.holding_times()
            lengths.add(path.jump_count)
        assert 0 in lengths and max(lengths) >= 2


class TestSpan:
    """Both generators refuse a path that runs backwards or never ends, or
    one from an age that is not finite and nonnegative, at the first
    segment; a start at the horizon is one terminal segment."""

    @pytest.fixture(params=["renewal", "thinning"])
    def segments(self, request, saturating_kernel, saturating_layout):
        def draw(t, horizon, age=0.0):
            start, rng = (t, 1.0, 2, age), np.random.default_rng(0)
            if request.param == "renewal":
                return renewal_segments(saturating_kernel, start, horizon, rng)
            return thinning_segments(saturating_kernel, saturating_layout, start, horizon, rng)

        return draw

    @pytest.mark.parametrize(
        "t, horizon",
        [(0.0, math.inf), (0.0, math.nan), (0.0, -math.inf), (math.nan, 1.0), (-math.inf, 1.0)],
    )
    def test_non_finite_refused(self, segments, t, horizon):
        with pytest.raises(ValueError, match="start time and horizon must be finite"):
            next(segments(t, horizon))

    def test_start_past_the_horizon_refused(self, segments):
        with pytest.raises(ValueError, match="past the horizon"):
            next(segments(1.5, 1.0))
        with pytest.raises(ValueError, match="past the horizon"):
            next(segments(0.0, -0.5))

    @pytest.mark.parametrize("age", [math.nan, math.inf, -0.5])
    def test_bad_start_age_refused(self, segments, age):
        with pytest.raises(ValueError, match="start age must be finite and >= 0"):
            next(segments(0.0, 1.0, age))

    def test_start_at_the_horizon(self, segments):
        assert list(segments(1.0, 1.0)) == [(1.0, 1.0, 1.0, 2, 0.0, 0.0, None)]


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
        segments = thinning_segments(
            saturating_kernel, saturating_layout, (0.0, 1.0, 2, math.nan), 1.0,
            np.random.default_rng(3),
        )
        with pytest.raises(ValueError, match="age must be finite"):
            next(segments)


class TestControlledAccounting:
    def test_small_order_fill_example(self):
        # ask quoted, 2 units sold at 101 each, less the fixed cost
        side, d_cash, d_inv, units = order_fill(SmallOrder(+1, 2), (1, 0), 3, 100.0, 0.01, 0.1)
        assert d_cash == pytest.approx(201.8, abs=1e-12)
        assert (side, d_inv, units) == (+1, -2, 2)

    def test_big_order_fill_example(self):
        # down jump, bid quoted, 3 units: pay 99 each plus the fixed cost
        side, d_cash, d_inv, units = order_fill(BigJump(3), (0, 1), 3, 100.0, 0.01, 0.1)
        assert d_cash == pytest.approx(-297.3, abs=1e-12)
        assert (side, d_inv, units) == (-1, 3, 3)

    def test_unquoted_side_leaves_portfolio(self):
        assert order_fill(SmallOrder(-1, 2), (1, 0), 2, 100.0, 0.01, 0.1) == (-1, 0.0, 0, 0)
        assert order_fill(BigJump(4), (0, 1), 2, 100.0, 0.01, 0.1) == (+1, 0.0, 0, 0)

    @pytest.mark.parametrize(
        "policy", [FixedQuotePolicy(1, 1, "always_quote"), RandomQuotePolicy(seed=3)]
    )
    def test_per_event_portfolio_change_bound(
        self, asymmetric_kernel, asymmetric_layout, policy
    ):
        # the trade's portfolio impact at post prices never beats K(p*delta + cost);
        # the policy quotes at the left limit of each event
        cost, delta = 0.002, asymmetric_kernel.delta
        big = asymmetric_layout.max_units
        for idx in range(60):
            segments = list(thinning_segments(
                asymmetric_kernel, asymmetric_layout, (0.0, 1.0, 2, 0.0), 2.0, path_rng(55, idx)
            ))
            for (_, t1, p, i, _, s1, mark), after in zip(segments, segments[1:]):
                if mark is NO_EVENT:
                    continue
                _, d_cash, d_inv, _ = order_fill(mark, policy(t1, p, i, s1), big, p, delta, cost)
                change = d_cash + d_inv * after[2]
                assert change <= big * (p * delta + cost) + 1e-12


class TestPathStreams:
    """``path_streams`` seeds whole blocks; each stream must be the one
    ``path_rng`` gives, which also guards against numpy changing its seeding."""

    @staticmethod
    def assert_same_streams(seed, first, n):
        streams = path_streams(seed, first, n)
        for idx, rng in zip(range(first, first + n), streams, strict=True):
            ref = path_rng(seed, idx)
            assert rng.bit_generator.state == ref.bit_generator.state, (seed, idx)
            draws = (rng.exponential(0.5), rng.uniform(0.0, 3.0), rng.random(), rng.random(3))
            expect = (ref.exponential(0.5), ref.uniform(0.0, 3.0), ref.random(), ref.random(3))
            assert draws[:3] == expect[:3]
            assert draws[3].tolist() == expect[3].tolist()

    def test_blocks_at_seed_zero(self):
        # 1,500 paths from index 7: a block start off the block grid, a full
        # block of 1,024 and a partial one
        self.assert_same_streams(0, 7, 1500)

    @pytest.mark.parametrize("seed", [0, 20240811, 2**32 - 1, 2**32, 2**40 + 3])
    def test_across_the_32_bit_boundary(self, seed):
        # indices 2**32 - 3 .. 2**32 + 3 add an entropy word past 2**32
        self.assert_same_streams(seed, 2**32 - 3, 7)
        self.assert_same_streams(seed, 5, 3)

    def test_stream_after_a_drawn_one_is_fresh(self):
        streams = path_streams(11, 0, 2)
        next(streams).random(50)
        assert next(streams).random() == path_rng(11, 1).random()

    def test_negative_index_is_refused_like_path_rng(self):
        with pytest.raises(ValueError):
            next(path_streams(3, -1, 2))


def _mix_bits(*values):
    """The per-word hash the coins were first defined by, kept as the reference."""
    h = hashlib.blake2b(digest_size=8)
    for v in values:
        h.update((int(v) & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "little"))
    return int.from_bytes(h.digest(), "little")


def reference_coins(policy, t, p, i, s):
    base = _mix_bits(
        policy.seed,
        np.float64(t).view(np.int64),
        np.float64(p).view(np.int64),
        i,
        np.float64(s).view(np.int64),
    )
    u_ask = ((base >> 11) & ((1 << 53) - 1)) / float(1 << 53)
    u_bid = (_mix_bits(base, 1) >> 11 & ((1 << 53) - 1)) / float(1 << 53)
    return (int(u_ask < policy.prob), int(u_bid < policy.prob))


class TestPolicies:
    @pytest.mark.parametrize("seed", [0, 7, 2**63 + 1])
    def test_random_policy_matches_per_word_hash(self, seed):
        pol = RandomQuotePolicy(prob=0.37, seed=seed)
        rng = np.random.default_rng(seed % 1000)
        n = 2000
        t, s = rng.random(n) * 3.0, rng.random(n) * 5.0
        p, i = 1.01 ** rng.integers(-40, 41, n), rng.integers(1, 5, n)
        # a negative zero time; subnormal and zero ages
        t[:3] = [-0.0, 0.0, 1.0]
        s[:3] = [5e-324, 0.0, 2.2250738585072014e-308 / 3]
        expect = [reference_coins(pol, *a) for a in zip(t, p, i, s)]
        assert [pol(*a) for a in zip(t.tolist(), p.tolist(), i.tolist(), s.tolist())] == expect
        l_ask, l_bid = pol(t, p, i, s)
        assert list(zip(l_ask.tolist(), l_bid.tolist())) == expect
        assert sum(a for a, _ in expect) not in (0, n)

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
        fixed = [(pol.name, pol(0.1, 1.0, 1, 0.0)) for pol in default_baselines()[:4]]
        assert fixed == [
            ("hold", (0, 0)), ("always_quote", (1, 1)), ("ask_only", (1, 0)), ("bid_only", (0, 1))
        ]
