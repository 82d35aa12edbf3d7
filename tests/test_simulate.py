"""Event generators: sampling primitives, renewal/thinning equivalence,
order fills, determinism."""

import decimal
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from semitick import (
    ConstantIntensity,
    FixedQuotePolicy,
    SaturatingIntensity,
    MarketState,
    RandomQuotePolicy,
    MarkLayout,
    SemiMarkovKernel,
    alpha,
    checks,
    default_baselines,
    path_rng,
    renewal_segments,
    sample_holding,
    sample_transition,
    thinning_segments,
)
from semitick import hazards, simulate
from semitick.hazards import BIG, SMALL, TERMINAL, THINNED, _PHI_CUT, _phi
from semitick.simulate import order_fill, renewal_blocks, thinning_blocks


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
        pairs = [(rng.uniform(0.0, 3.0), rng.uniform(1e-6, 1.0 - 1e-6)) for _ in range(200)]
        s0, u = np.array(pairs).T
        w = sample_holding(saturating_kernel, s0, u)
        f0 = saturating_kernel.holding_cdf(s0)
        fw = saturating_kernel.holding_cdf(s0 + w)
        np.testing.assert_allclose(fw - f0, u * (1.0 - f0), rtol=0.0, atol=1e-10)


# constant continuation beside a saturating reversal that starts at zero: the
# saturating part of the increment is all cancellation at small w
MIXED_KERNEL = SemiMarkovKernel(
    ConstantIntensity(0.4), SaturatingIntensity(base=0.0, gain=3.0, rate=0.5), 0.01
)
# every age of a grid with every uniform of another, flattened
GRID_S0, GRID_U = (
    g.ravel() for g in np.meshgrid(np.linspace(0.0, 3.0, 31), np.linspace(1e-6, 1.0 - 1e-6, 80))
)
GRID_TARGET = np.array([-math.log1p(-u) for u in GRID_U.tolist()])


def bisect_holding(gap, s0, kernel):
    """The 100-step bracketed bisection the Newton inversion replaced, on
    every element of the arrays ``s0`` and ``gap(w)``."""
    hi = 1.0 / np.maximum(kernel.total_intensity(s0), 1e-12)
    while (short := gap(hi) < 0.0).any():
        hi = np.where(short, 2.0 * hi, hi)
    lo = np.zeros_like(hi)
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        below = gap(mid) < 0.0
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    return 0.5 * (lo + hi)


@pytest.fixture(params=["saturating", "mixed"])
def age_kernel(request, saturating_kernel):
    return saturating_kernel if request.param == "saturating" else MIXED_KERNEL


class TestNewtonHolding:
    def test_matches_bisection_on_the_increment(self, age_kernel):
        ref = bisect_holding(
            lambda w: age_kernel.integrated_increment(GRID_S0, w) - GRID_TARGET,
            GRID_S0, age_kernel,
        )
        draws = sample_holding(age_kernel, GRID_S0, GRID_U)
        assert np.max(np.abs(draws - ref) / ref) <= 1e-14

    def test_matches_bisection_on_the_integrated_intensity(self, age_kernel):
        # the old gap Lambda(s0 + w) - Lambda(s0) carries a rounding of about
        # eps * Lambda(s0 + w), which moves its root by that over h(s0 + w)
        eps = np.finfo(float).eps
        lam0 = age_kernel.integrated_intensity(GRID_S0)
        ref = bisect_holding(
            lambda w: age_kernel.integrated_intensity(GRID_S0 + w) - lam0 - GRID_TARGET,
            GRID_S0, age_kernel,
        )
        w = sample_holding(age_kernel, GRID_S0, GRID_U)
        lam = age_kernel.integrated_intensity(GRID_S0 + w)
        h = age_kernel.total_intensity(GRID_S0 + w)
        assert np.all(np.abs(w - ref) <= 16.0 * eps * lam / h)

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


class TestIncrementSeries:
    """``phi(x) = x + expm1(-x)``, which the saturating increment sums, is
    accurate where the direct sum cancels; the draws are then monotone."""

    @staticmethod
    def exact_phi(x):
        # 340 digits resolve x**2 / 2 beside x down to x = 1e-150
        with decimal.localcontext() as ctx:
            ctx.prec = 340
            d = decimal.Decimal(x)
            return float(d + ((-d).exp() - 1))

    def test_phi_against_decimal(self):
        xs = np.concatenate([
            np.logspace(-150, 2, 600), _PHI_CUT * np.linspace(0.8, 1.2, 201), [1e-3, 40.0]
        ])
        exact = np.array([self.exact_phi(x) for x in xs.tolist()])
        eps = np.finfo(float).eps
        for got in (np.array([_phi(x) for x in xs.tolist()]), _phi(xs)):
            assert np.max(np.abs(got - exact) / exact) <= 2.0 * eps

    def test_phi_of_zero_and_infinity(self):
        assert _phi(0.0) == 0.0 and _phi(math.inf) == math.inf
        assert _phi(np.array([0.0, math.inf])).tolist() == [0.0, math.inf]

    def test_draws_monotone_in_u(self):
        # adjacent floats u < u' with u in [1e-9, 1e-3]: at these small holdings
        # the saturating part of MIXED_KERNEL's increment is all phi
        rng = np.random.default_rng(0)
        u = np.exp(rng.uniform(math.log(1e-9), math.log(1e-3), 5000))
        low, high = (sample_holding(MIXED_KERNEL, 0.0, v) for v in (u, np.nextafter(u, 1.0)))
        assert np.all(low <= high)


class TestArrayHolding:
    """``sample_holding`` on arrays: the scalar draws, element by element,
    and the scalar refusals, naming the first offending element."""

    @pytest.mark.parametrize("which", ["flat", "saturating", "mixed"])
    def test_matches_scalar_reference(self, which, asymmetric_kernel, saturating_kernel,
                                      scalar_renewal):
        kernel = {"flat": asymmetric_kernel, "saturating": saturating_kernel,
                  "mixed": MIXED_KERNEL}[which]
        rng = np.random.default_rng(4)
        s0, u = rng.uniform(0.0, 3.0, 400), rng.uniform(1e-9, 1.0, 400)
        s0[:3] = [0.0, 1e17, 1e300]
        got = sample_holding(kernel, s0.reshape(20, 20), u.reshape(20, 20))
        assert got.shape == (20, 20)
        ref = np.array([scalar_renewal.holding(kernel, a, b) for a, b in zip(s0, u)])
        if which == "flat":
            assert got.ravel().tolist() == ref.tolist()
        else:
            assert np.max(np.abs(got.ravel() - ref) / ref) <= 1e-14
        assert got[0, 0] == sample_holding(kernel, 0.0, float(u[0]))

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.2, 1.3, math.nan])
    def test_u_refused_by_element(self, saturating_kernel, symmetric_kernel, bad):
        u = np.array([0.5, 0.25, bad, 0.0 if bad != 0.0 else 1.0])
        for kernel in (saturating_kernel, symmetric_kernel):
            with pytest.raises(ValueError, match=rf"strictly inside \(0, 1\), got {bad}$"):
                sample_holding(kernel, np.zeros(4), u)

    @pytest.mark.parametrize("s0", [math.nan, math.inf, -math.inf])
    def test_non_finite_age_refused_by_element(self, saturating_kernel, symmetric_kernel, s0):
        for kernel in (saturating_kernel, symmetric_kernel):
            with pytest.raises(ValueError, match=f"current age must be finite, got {s0}$"):
                sample_holding(kernel, np.array([0.3, s0, math.nan]), np.full(3, 0.5))

    def test_negative_age_refused(self, saturating_kernel, symmetric_kernel):
        for kernel in (saturating_kernel, symmetric_kernel):
            with pytest.raises(ValueError, match="current age must be nonnegative"):
                sample_holding(kernel, np.array([0.3, -1e-300]), 0.5)

    def test_u_refused_before_age(self, saturating_kernel):
        with pytest.raises(ValueError, match="strictly inside"):
            sample_holding(saturating_kernel, np.array([math.nan]), np.array([1.0]))


class _StubStream:
    """A stream of set uniforms: ``random()`` gives the next one and
    ``random(size)`` the next ones, as an array of that size."""

    def __init__(self, values):
        self.values, self.drawn = list(values), 0

    def random(self, size=None):
        n = 1 if size is None else int(np.prod(size))
        out = self.values[self.drawn : self.drawn + n]
        self.drawn += n
        return out[0] if size is None else np.array(out).reshape(size)


# holding or gap zeros singly and in a run, and zero successor or mark
# uniforms
_ZEROED_STREAM = [0.0, 0.3, 0.0, 0.0, 0.0, 0.45, 0.0, 0.2, 0.7, 0.0, 0.0] * 3


def _rotated(values, shift):
    """``values`` rotated left by ``shift`` draws, then uniforms that end a
    path at once."""
    return values[shift:] + values[:shift] + [0.99] * 20


def _zero_below_a_tenth(monkeypatch):
    """Array streams that read every uniform below 0.1 as zero."""
    path_uniforms = simulate._path_uniforms

    def zeroed(seed, lo, n):
        take = path_uniforms(seed, lo, n)
        return lambda rows: np.where((u := take(rows)) < 0.1, 0.0, u)

    monkeypatch.setattr(simulate, "_path_uniforms", zeroed)


def _refuse_generators(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a Generator was built")

    for target, name in ((simulate, "path_rng"), (np.random, "default_rng")):
        monkeypatch.setattr(target, name, refuse)


class TestBlockEngine:
    """The block engine against the scalar renewal loop it replaced."""

    @pytest.mark.parametrize("age", [0.0, 0.6])
    def test_flat_kernels_byte_for_byte(self, asymmetric_kernel, symmetric_kernel,
                                        scalar_renewal, engine_paths, age):
        for kernel in (asymmetric_kernel, symmetric_kernel):
            start = (0.25, 1.0, 3, age)
            got = engine_paths(kernel, start, 2.0, 700, 12)
            for idx, rows in enumerate(got):
                assert rows == list(scalar_renewal.segments(kernel, start, 2.0, path_rng(12, idx)))

    @pytest.mark.parametrize("which", ["saturating", "mixed"])
    def test_age_dependent_kernels(self, saturating_kernel, scalar_renewal, engine_paths,
                                   which):
        # the array Newton rounds as numpy does, so event times may move by
        # ulps; segment counts, marks and prices may not
        kernel = saturating_kernel if which == "saturating" else MIXED_KERNEL
        start = (0.0, 1.0, 2, 0.25)
        moved = 0
        for idx, rows in enumerate(engine_paths(kernel, start, 2.0, 700, 13)):
            ref = list(scalar_renewal.segments(kernel, start, 2.0, path_rng(13, idx)))
            assert [(r[2], r[3], r[6]) for r in rows] == [(r[2], r[3], r[6]) for r in ref]
            for (_, t1, *_), (_, ref_t1, *_) in zip(rows, ref):
                assert abs(t1 - ref_t1) <= 1e-14 * ref_t1
                moved += t1 != ref_t1
        assert moved < 700

    def test_long_paths_read_the_stream_in_order(self, asymmetric_kernel, scalar_renewal,
                                                 engine_paths):
        # paths of six segments and more, in a block and as a block of one
        start = (0.0, 1.0, 2, 0.0)
        got = engine_paths(asymmetric_kernel, start, 3.0, 60, 22)
        assert max(len(rows) for rows in got) >= 6
        for idx, rows in enumerate(got):
            ref = scalar_renewal.segments(asymmetric_kernel, start, 3.0, path_rng(22, idx))
            assert rows == list(ref)
            assert list(renewal_segments(asymmetric_kernel, start, 3.0, path_rng(22, idx))) == rows

    @pytest.mark.parametrize("shift", [1, 2, 17])
    def test_zero_uniform_rejected_at_the_same_position(self, asymmetric_kernel, scalar_renewal,
                                                        shift):
        # zeros at holding draws are skipped, singly and in a run; a zero
        # successor uniform is kept; the stream is rotated by 1, 2 and 17
        # draws, so its zeros fall on other draws
        values = _rotated(_ZEROED_STREAM, shift)
        start = (0.0, 1.0, 2, 0.0)
        ref_stream, stream = _StubStream(values), _StubStream(values)
        ref = list(scalar_renewal.segments(asymmetric_kernel, start, 4.0, ref_stream))
        assert list(renewal_segments(asymmetric_kernel, start, 4.0, stream)) == ref
        assert len(ref) > 5 and 0.0 in [u for u in values[: ref_stream.drawn]]

    def test_block_sizes_give_identical_columns(self, monkeypatch, saturating_kernel):
        start = (0.0, 1.0, 2, 0.25)

        def columns(n_paths, block):
            monkeypatch.setattr(simulate, "_SEED_BLOCK", block)
            blocks = list(renewal_blocks(saturating_kernel, start, 1.0, n_paths, 5))
            assert len(blocks) == -(-n_paths // block)
            path = np.concatenate([lo + path for lo, path, _, _ in blocks])
            last = np.concatenate([last for _, _, last, _ in blocks])
            return [path, last] + [np.concatenate(c) for c in zip(*(b[3] for b in blocks))]

        # blocks of one are slow, so they draw the first 60 paths only
        full, seven, one = columns(1030, 1024), columns(1030, 7), columns(60, 1)
        head = full[0] < 60
        for a, b, c in zip(full, seven, one, strict=True):
            assert a.tobytes() == b.tobytes()
            assert a[head].tobytes() == c.tobytes()

    def test_row_budget_shrinks_blocks(self, monkeypatch, saturating_kernel, engine_paths):
        start = (0.0, 1.0, 2, 0.25)
        full = engine_paths(saturating_kernel, start, 1.0, 50, 6)
        monkeypatch.setattr(simulate, "_BLOCK_ROWS", 40)
        blocks = list(renewal_blocks(saturating_kernel, start, 1.0, 50, 6))
        assert len(blocks) > 5
        assert engine_paths(saturating_kernel, start, 1.0, 50, 6) == full

    def test_price_overflow_refused(self):
        k = SemiMarkovKernel(ConstantIntensity(5.0), ConstantIntensity(5.0), 0.9)
        with pytest.raises(OverflowError, match=r"a jump from 1e\+308 at tick size 0\.9"):
            list(renewal_blocks(k, (0.0, 1e308, 1, 0.0), 1.0, 30, 3))


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
        draws = sample_transition(saturating_kernel, 1, y, rng.random(n))
        hits = np.sum(draws == 3)
        sd = math.sqrt(n * p_first * (1 - p_first))
        assert abs(hits - n * p_first) <= 3.0 * sd

    def test_arrays_match_scalars(self, saturating_kernel):
        rng = np.random.default_rng(5)
        i, y, u = rng.integers(1, 5, 300), rng.uniform(0.0, 3.0, 300), rng.random(300)
        got = sample_transition(saturating_kernel, i, y, u)
        expect = [
            sample_transition(saturating_kernel, a, b, c)
            for a, b, c in zip(i.tolist(), y.tolist(), u.tolist())
        ]
        assert got.tolist() == expect
        assert {type(j) for j in expect} == {int}

    @pytest.mark.parametrize("bad", [0, 5, 2.5])
    def test_state_outside_states_refused(self, saturating_kernel, bad):
        for i in (bad, np.array([2, bad])):
            with pytest.raises(ValueError, match=f"state {bad} is not one of"):
                sample_transition(saturating_kernel, i, 0.4, 0.5)


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
        counts = np.concatenate([
            np.bincount(path) - 1
            for _, path, _, _ in renewal_blocks(symmetric_kernel, start, horizon, n, 5)
        ])
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

    def test_reachability(self, symmetric_kernel, engine_paths):
        # every direction state and both price directions show up
        seen_states, seen_up, seen_down = set(), 0, 0
        for segments in engine_paths(symmetric_kernel, (0.0, 1.0, 1, 0.0), 3.0, 400, 23):
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

    def test_acceptance_fraction(self, saturating_kernel, saturating_layout, engine_paths):
        # accepted candidates / all candidates ~ time-average mass / domain
        start = (0.0, 1.0, 2, 0.0)
        accepted = candidates = 0
        mass_samples = []
        for *_, (*_, code) in thinning_blocks(
            saturating_kernel, saturating_layout, start, 1.0, 1500, 31
        ):
            candidates += np.count_nonzero(code)
            accepted += np.count_nonzero(code >= hazards.BIG)
        rng = np.random.default_rng(0)
        # estimate the expected mass along an independent ensemble
        for segments in engine_paths(saturating_kernel, start, 1.0, 1500, 32):
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


def block_rows(blocks, n_paths):
    """Each path's segment tuples from thinning blocks, the last one marked
    None as ``thinning_segments`` marks it."""
    paths = [[] for _ in range(n_paths)]
    for lo, path, _, columns in blocks:
        for k, (*row, code) in zip(path.tolist(), zip(*(c.tolist() for c in columns))):
            paths[lo + k].append((*row, code or None))
    return paths


def assert_rows_equal(rows, ref):
    """Equal marks, and equal bytes in every numeric column."""
    assert [r[6] for r in rows] == [r[6] for r in ref]
    as_bytes = [np.array([r[:6] for r in x], dtype=float).tobytes() for x in (rows, ref)]
    assert as_bytes[0] == as_bytes[1]


class TestThinningEngine:
    """The lockstep thinning engine against the scalar two-uniform contract."""

    @pytest.fixture(params=["flat", "saturating"])
    def model(self, request, asymmetric_kernel, asymmetric_layout, saturating_kernel,
              saturating_layout):
        if request.param == "flat":
            return asymmetric_kernel, asymmetric_layout
        return saturating_kernel, saturating_layout

    @staticmethod
    def reference(scalar_thinning, kernel, layout, start, horizon, seed, indices):
        return [list(scalar_thinning.segments(kernel, layout, start, horizon, path_rng(seed, idx)))
                for idx in indices]

    @pytest.mark.parametrize("age", [0.0, 0.25])
    def test_byte_for_byte(self, model, scalar_thinning, age):
        kernel, layout = model
        start = (0.0, 1.0, 2, age)
        got = block_rows(thinning_blocks(kernel, layout, start, 2.0, 300, 14), 300)
        ref = self.reference(scalar_thinning, kernel, layout, start, 2.0, 14, range(300))
        for rows, ref_rows in zip(got, ref, strict=True):
            assert_rows_equal(rows, ref_rows)
        kinds = {"cut" if c is None else "thinned" if c == THINNED else "big" if c < SMALL
                 else "small" for c in (r[6] for rows in got for r in rows)}
        assert kinds == {"cut", "thinned", "big", "small"}

    def test_block_splits(self, monkeypatch, saturating_kernel, saturating_layout,
                          scalar_thinning):
        # blocks of 1,024 (1,030 paths straddle one), 7 and 1 path, and
        # blocks that the row budget shrinks
        kernel, layout, start = saturating_kernel, saturating_layout, (0.0, 1.0, 2, 0.25)
        ref = self.reference(scalar_thinning, kernel, layout, start, 1.0, 5, range(1030))
        for block, rows_budget, n_paths, n_blocks in (
            (1024, 2**18, 1030, 2), (7, 2**18, 1030, 148), (1, 2**18, 60, 60), (1024, 400, 200, 12)
        ):
            monkeypatch.setattr(simulate, "_SEED_BLOCK", block)
            monkeypatch.setattr(simulate, "_BLOCK_ROWS", rows_budget)
            blocks = list(thinning_blocks(kernel, layout, start, 1.0, n_paths, 5))
            assert len(blocks) == n_blocks
            for rows, ref_rows in zip(block_rows(blocks, n_paths), ref):
                assert_rows_equal(rows, ref_rows)

    @pytest.mark.parametrize("seed", [1, 2, 17])
    def test_zero_gap_uniform_skipped(self, monkeypatch, asymmetric_kernel, asymmetric_layout,
                                      scalar_thinning, seed):
        # zeros at gap draws are skipped, singly and in a run; a zero mark
        # uniform is kept (coordinate 0, the continuation interval); from a
        # stubbed stream rotated by ``seed`` draws, then from the array
        # streams of ``seed`` with every uniform below 0.1 read as zero on
        # both sides
        kernel, layout, start = asymmetric_kernel, asymmetric_layout, (0.0, 1.0, 2, 0.0)
        values = _rotated(_ZEROED_STREAM, seed)
        ref_stream, stream = _StubStream(values), _StubStream(values)
        ref = list(scalar_thinning.segments(kernel, layout, start, 4.0, ref_stream))
        assert_rows_equal(list(thinning_segments(kernel, layout, start, 4.0, stream)), ref)
        assert len(ref) > 5 and values[: ref_stream.drawn].count(0.0) > 5
        _zero_below_a_tenth(monkeypatch)
        got = block_rows(thinning_blocks(kernel, layout, start, 4.0, 60, seed), 60)
        skipped = 0
        for idx, rows in enumerate(got):
            values = path_rng(seed, idx).random(400)
            stream = _StubStream(np.where(values < 0.1, 0.0, values).tolist())
            assert_rows_equal(rows, list(scalar_thinning.segments(kernel, layout, start, 4.0,
                                                                  stream)))
            skipped += stream.drawn - 2 * len(rows) + 1
        assert skipped > 10

    def test_price_overflow_refused(self):
        k = SemiMarkovKernel(ConstantIntensity(5.0), ConstantIntensity(5.0), 0.9)
        lay = MarkLayout(k, ConstantIntensity(1.0), ConstantIntensity(1.0), (0.5, 0.5), (0.5, 0.5))
        message = r"the price overflows: a jump from 1e\+308 at tick size 0\.9"
        with pytest.raises(OverflowError, match=message):
            list(thinning_blocks(k, lay, (0.0, 1e308, 1, 0.0), 1.0, 30, 3))
        with pytest.raises(OverflowError, match=message):
            for idx in range(30):
                list(thinning_segments(k, lay, (0.0, 1e308, 1, 0.0), 1.0, path_rng(3, idx)))

    def test_no_generator_per_path(self, monkeypatch, model, scalar_thinning):
        # 1,030 paths straddle the 1,024-path block; seeds 2**32 and
        # 2**40 + 3 add entropy words past the first
        kernel, layout = model
        start = (0.0, 1.0, 2, 0.0)
        checked = list(range(8)) + list(range(1018, 1030))
        seeds = (1, 2**32, 2**40 + 3)
        refs = [self.reference(scalar_thinning, kernel, layout, start, 1.0, seed, checked)
                for seed in seeds]
        _refuse_generators(monkeypatch)
        for seed, ref in zip(seeds, refs):
            got = block_rows(thinning_blocks(kernel, layout, start, 1.0, 1030, seed), 1030)
            for idx, ref_rows in zip(checked, ref):
                assert_rows_equal(got[idx], ref_rows)


class TestHoldingTimes:
    @pytest.mark.parametrize("age", [0.0, 0.25])
    def test_match_event_paths(self, saturating_kernel, saturating_layout, reference_paths, age):
        # short paths, so many have no jump and some two or more
        market = MarketState(1.0, 2, age)
        ((_, path, last, (_, t1, *_)),) = renewal_blocks(
            saturating_kernel, at_zero(market), 0.6, 300, 7
        )
        firsts, rests, lengths = [], [], set()
        for idx in range(300):
            holds = reference_paths.renewal(
                saturating_kernel, market, 0.6, path_rng(7, idx)
            ).holding_times()
            if age == 0.0 and holds:
                firsts.append(holds.pop(0))
            rests += holds
            segments = thinning_segments(
                saturating_kernel, saturating_layout, at_zero(market), 0.6, path_rng(8, idx)
            )
            times = [t for _, t, *_, code in segments if code in range(BIG, SMALL)]
            thin = reference_paths.thinning(
                saturating_kernel, saturating_layout, market, 0.6, path_rng(8, idx)
            )
            got = checks._holding_times(times, [idx] * len(times), age)
            assert got.tolist() == thin.holding_times()
            lengths.add(thin.jump_count)
        assert checks._holding_times(t1[~last], path[~last], age).tolist() == firsts + rests
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
    # order codes of K = 3: a big jump on side slot b (0 bid, 1 ask) is
    # BIG + b, a small order of u units SMALL + 4 * b + u

    def test_small_order_fill_example(self):
        # ask quoted, 2 units sold at 101 each, less the fixed cost
        side, d_cash, d_inv, units = order_fill(SMALL + 4 + 2, (1, 0), 3, 100.0, 0.01, 0.1)
        assert d_cash == pytest.approx(201.8, abs=1e-12)
        assert (side, d_inv, units) == (+1, -2, 2)

    def test_big_order_fill_example(self):
        # down jump, bid quoted, 3 units: pay 99 each plus the fixed cost
        side, d_cash, d_inv, units = order_fill(BIG, (0, 1), 3, 100.0, 0.01, 0.1)
        assert d_cash == pytest.approx(-297.3, abs=1e-12)
        assert (side, d_inv, units) == (-1, 3, 3)

    def test_unquoted_side_leaves_portfolio(self):
        # K = 2: a bid small order of 2 units is SMALL + 2
        assert order_fill(SMALL + 2, (1, 0), 2, 100.0, 0.01, 0.1) == (-1, 0.0, 0, 0)
        assert order_fill(BIG + 1, (0, 1), 2, 100.0, 0.01, 0.1) == (+1, 0.0, 0, 0)

    def test_codes_that_are_not_orders_refused(self):
        # the horizon cut and a thinned candidate once wrapped round to the
        # ask and bid big fills; past the last small order, a bare IndexError
        with pytest.raises(ValueError, match=f"mark code {TERMINAL} is not an order"):
            order_fill(np.array([TERMINAL, THINNED]), (1, 1), 2, np.ones(2), 0.01, 0.0)
        with pytest.raises(ValueError, match=f"mark code {THINNED} is not an order"):
            order_fill(np.array([BIG, THINNED]), (1, 1), 2, np.ones(2), 0.01, 0.0)
        last = SMALL + 2 * 3 - 1
        assert order_fill(last, (1, 1), 2, 1.0, 0.01, 0.0)[3] == 2
        with pytest.raises(ValueError, match=f"mark code {last + 1} is not an order"):
            order_fill(np.array([BIG, last + 1, last + 2]), (1, 1), 2, np.ones(3), 0.01, 0.0)

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
                if mark == THINNED:
                    continue
                _, d_cash, d_inv, _ = order_fill(mark, policy(t1, p, i, s1), big, p, delta, cost)
                change = d_cash + d_inv * after[2]
                assert change <= big * (p * delta + cost) + 1e-12


def _read_unevenly(take, n, reads, gap):
    """``reads`` rounds of ``take`` on a shifting subset of the
    ``n`` rows: each round skips every row whose index plus the round is a
    multiple of ``gap + 1``, so rows read different counts; returns each
    row's uniforms in the order read."""
    got = [[] for _ in range(n)]
    for k in range(reads):
        rows = np.flatnonzero((np.arange(n) + k) % (gap + 1) != 0)
        for r, u in zip(rows.tolist(), take(rows).tolist()):
            got[r].append(u)
    return got


class TestPathUniforms:
    """The renewal engine's uniforms, computed in arrays from each path's
    PCG64 state, byte for byte against ``path_rng(seed, idx).random(k)``."""

    @pytest.mark.parametrize("gap", [1, 2, 17])
    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1])
    def test_equal_path_rng(self, seed, gap):
        # 41 rounds in which every row sits out one round in each gap + 1;
        # the second block straddles path 1,024, the third ends at the last
        # 32-bit index
        for lo, n in ((0, 40), (1000, 50), (2**32 - 30, 30)):
            got = _read_unevenly(simulate._path_uniforms(seed, lo, n), n, 41, gap)
            for r, run in enumerate(got):
                ref = path_rng(seed, lo + r).random(len(run))
                assert np.array(run).tobytes() == ref.tobytes(), (seed, lo + r)

    @pytest.mark.parametrize("seed", [1, 2, 17])
    def test_zero_uniform_skipped_at_the_same_position(self, monkeypatch, asymmetric_kernel,
                                                       scalar_renewal, engine_paths, seed):
        # uniforms below 0.1 read as zero on both sides, so zeros fall at
        # holding and successor draws alike
        _zero_below_a_tenth(monkeypatch)
        start = (0.0, 1.0, 2, 0.0)
        skipped = 0
        for idx, rows in enumerate(engine_paths(asymmetric_kernel, start, 4.0, 60, seed)):
            values = path_rng(seed, idx).random(400)
            stream = _StubStream(np.where(values < 0.1, 0.0, values).tolist())
            assert rows == list(scalar_renewal.segments(asymmetric_kernel, start, 4.0, stream))
            skipped += stream.drawn - sum(2 for *_, j in rows if j is not None) - 1
        assert skipped > 10

    @pytest.mark.parametrize("seed", [1, 2**32, 2**40 + 3])
    def test_no_generator_per_path(self, monkeypatch, asymmetric_kernel, saturating_kernel,
                                   scalar_renewal, engine_paths, seed):
        # 1,030 paths straddle the 1,024-path block; seeds 2**32 and
        # 2**40 + 3 add entropy words past the first
        start = (0.0, 1.0, 2, 0.0)
        checked = list(range(8)) + list(range(1018, 1030))
        ref = [list(scalar_renewal.segments(asymmetric_kernel, start, 2.0, path_rng(seed, idx)))
               for idx in checked]
        saturating = engine_paths(saturating_kernel, start, 1.0, 200, seed + 1)
        _refuse_generators(monkeypatch)
        got = engine_paths(asymmetric_kernel, start, 2.0, 1030, seed)
        assert [got[idx] for idx in checked] == ref
        assert engine_paths(saturating_kernel, start, 1.0, 200, seed + 1) == saturating


class TestPathStreams:
    """The engine seeds whole blocks in arrays; each path's uniforms must be
    the ones ``path_rng`` gives, which also guards against numpy changing
    its seeding."""

    @staticmethod
    def assert_same_streams(seed, first, n):
        take = simulate._path_uniforms(seed, first, n)
        rows = np.arange(n)
        got = np.stack([take(rows) for _ in range(7)], axis=1)
        for r, idx in enumerate(range(first, first + n)):
            assert got[r].tobytes() == path_rng(seed, idx).random(7).tobytes(), (seed, idx)

    def test_blocks_at_seed_zero(self):
        # 1,500 paths from index 7: a block start off the block grid, and
        # more paths than one seeding block
        self.assert_same_streams(0, 7, 1500)

    @pytest.mark.parametrize(
        "seed", [0, 20240811, 2**32 - 1, 2**32, 2**40 + 3, 2**64 + 5, 2**100, 2**300 + 7]
    )
    def test_across_the_32_bit_boundary(self, seed):
        # indices 2**32 - 3 .. 2**32 + 3 add an entropy word past 2**32;
        # seeds 2**64 + 5, 2**100 and 2**300 + 7 have three, four and ten
        # words, so their entropy fills the pool or runs past it
        self.assert_same_streams(seed, 2**32 - 3, 7)
        self.assert_same_streams(seed, 5, 3)

    def test_stream_after_a_drawn_one_is_fresh(self):
        take = simulate._path_uniforms(11, 0, 2)
        for _ in range(50):
            take(np.array([0]))
        assert take(np.array([1]))[0] == path_rng(11, 1).random()

    def test_negative_index_is_refused_like_path_rng(self):
        for seed, lo in ((3, -1), (-3, 0)):
            with pytest.raises(ValueError):
                path_rng(seed, lo)
            with pytest.raises(ValueError, match=f"must be nonnegative, got {min(seed, lo)}"):
                simulate._path_uniforms(seed, lo, 2)


def reference_coins(policy, t, p, i, s):
    """The coins of one record from numpy's own ``SeedSequence`` on its ten
    little-endian 32-bit words."""
    record = [policy.seed & 0xFFFFFFFFFFFFFFFF] + [
        int(np.asarray(v, dtype=dtype).view(np.uint64))
        for v, dtype in ((t, np.float64), (p, np.float64), (i, np.int64), (s, np.float64))
    ]
    words = np.array([w >> k & 0xFFFFFFFF for w in record for k in (0, 32)], dtype=np.uint32)
    ask, bid = np.random.SeedSequence(words).generate_state(2, np.uint64).tolist()
    return (int((ask >> 11) / 2.0**53 < policy.prob), int((bid >> 11) / 2.0**53 < policy.prob))


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
        # the same 4,001 points in one array call; a few scalar calls give
        # the same bits
        pol = RandomQuotePolicy(prob=0.5, seed=1)
        t = np.linspace(0.0, 1.0, 4001)
        ones = np.ones_like(t)
        l_ask, l_bid = pol(t, ones, ones.astype(int), 0.0 * t)
        for k in (0, 1, 2000, 4000):
            assert pol(t[k], 1.0, 1, 0.0) == (l_ask[k], l_bid[k])
        assert abs(np.mean(l_ask) - 0.5) < 0.05

    @pytest.mark.parametrize("prob", [0.5, 0.1])
    def test_random_policy_frequency_within_4_sd(self, prob):
        pol = RandomQuotePolicy(prob=prob, seed=4)
        rng = np.random.default_rng(6)
        n = 100_000
        t, s = rng.random(n), rng.random(n) * 2.0
        p, i = 1.01 ** rng.integers(-20, 21, n), rng.integers(1, 5, n)
        sd = math.sqrt(n * prob * (1.0 - prob))
        for bits in pol(t, p, i, s):
            assert abs(bits.sum() - n * prob) <= 4.0 * sd

    def test_random_policy_does_not_depend_on_the_block_split(self):
        pol = RandomQuotePolicy(prob=0.5, seed=2**40 + 5)
        rng = np.random.default_rng(12)
        t, s = rng.random(1000), rng.random(1000)
        p, i = 1.01 ** rng.integers(-5, 6, 1000), rng.integers(1, 5, 1000)
        whole = np.stack(pol(t, p, i, s))
        for cuts in ([1], [7, 300], [999]):
            parts = [np.stack(pol(*a)) for a in zip(*(np.split(x, cuts) for x in (t, p, i, s)))]
            assert np.concatenate(parts, axis=1).tobytes() == whole.tobytes()

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
