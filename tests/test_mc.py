"""Monte-Carlo oracle: estimators, z-scores, generator checks."""

import math

import numpy as np
import pytest

from semitick import (
    SLOT_MOVES,
    AgentState,
    ConstantIntensity,
    GridSpec,
    MarketMakingSpec,
    MarketState,
    McEstimate,
    QuoteGainSource,
    SemiMarkovKernel,
    TestFunction,
    alpha,
    battery_controlled,
    battery_uncontrolled,
    dynkin_battery,
    estimate_terminal_value,
    expected_price_ode_oracle,
    path_rng,
    solve_expected_price,
    successors,
    z_score,
)
from semitick import mc, simulate
from semitick.hazards import BIG, SMALL
from semitick.mc import _bump, _bump_ds
from semitick.simulate import order_fill, renewal_segments


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
        for horizon in (math.nan, math.inf):
            with pytest.raises(ValueError):
                estimate_terminal_value(
                    symmetric_kernel, lambda p: p, None, (0.0, 1.0, 2, 0.0), horizon, 10, 1
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

    def test_age_argument_along_segments(self, symmetric_kernel, engine_paths):
        # w = age is piecewise linear along the path; check against a direct
        # per-path accumulation over the segments
        n = 300
        est = estimate_terminal_value(
            symmetric_kernel, lambda p: 0.0, lambda t, p, i, s: np.asarray(s),
            (0.0, 1.0, 2, 0.5), 1.5, n, 13,
        )
        acc = np.empty(n)
        paths = engine_paths(symmetric_kernel, (0.0, 1.0, 2, 0.5), 1.5, n, 13)
        for idx, segments in enumerate(paths):
            total = 0.0
            for t0, t1, _, _, s0, _, _ in segments:
                seg = t1 - t0
                total += s0 * seg + 0.5 * seg * seg
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
        start = (0.0, start_state.price, start_state.state, start_state.age)

        def terminal_price(i):
            return list(renewal_segments(symmetric_kernel, start, 1.0, path_rng(21, i)))[-1][2]

        vals_fwd = [terminal_price(i) for i in range(200)]
        vals_rev = [terminal_price(i) for i in reversed(range(200))][::-1]
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
        res = dynkin_battery(symmetric_kernel, [tf], start_state, 0.5, 40, 1)[0]
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
        res = dynkin_battery(
            symmetric_kernel, [tf], start, 0.8, 3000, 321,
            layout=symmetric_layout, control=(1, 1), transaction_cost=0.002,
            include_small_orders=False,
        )[0]
        assert abs(res.z) > 3.0

    def test_hold_control_has_no_small_order_terms(self, symmetric_kernel, symmetric_layout):
        # with the zero control the ablation changes nothing
        start = (MarketState(1.0, 2, 0.0), AgentState(0.0, 2))
        tf = battery_controlled(1.0, 1.0)[0]
        full = dynkin_battery(
            symmetric_kernel, [tf], start, 0.6, 400, 9,
            layout=symmetric_layout, control=(0, 0), transaction_cost=0.002,
        )[0]
        ablated = dynkin_battery(
            symmetric_kernel, [tf], start, 0.6, 400, 9,
            layout=symmetric_layout, control=(0, 0), transaction_cost=0.002,
            include_small_orders=False,
        )[0]
        assert full.mean == pytest.approx(ablated.mean, abs=1e-12)

    def test_invalid_arguments(self, symmetric_kernel, start_state):
        tf = battery_uncontrolled(1.0)[0]
        for t in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                dynkin_battery(symmetric_kernel, [tf], start_state, t, 10, 1)
        for subdiv in (3, 0):
            with pytest.raises(ValueError, match="segment_subdiv"):
                dynkin_battery(
                    symmetric_kernel, [tf], start_state, 0.5, 10, 1, segment_subdiv=subdiv
                )
        with pytest.raises(ValueError, match="layout"):
            dynkin_battery(
                symmetric_kernel, [tf], (start_state, AgentState()), 0.5, 10, 1, control=(1, 1)
            )


class TestSolverAgreement:
    def test_price_field_within_three_se(self, saturating_kernel):
        field = solve_expected_price(saturating_kernel, GridSpec(n_t=120), 1.0, 1.0)
        for k, (t, p, i, s) in enumerate(
            [(0.0, 1.0, 2, 0.0), (0.25, 1.0, 1, 0.4), (0.5, 1.01, 4, 0.0)]
        ):
            est = estimate_terminal_value(
                saturating_kernel, lambda q: q, None, (t, p, i, s), 1.0, 6000, 55 + k
            )
            assert abs(z_score(field.eval(t, p, i, s), est)) < 3.0


# -- per-segment reference: the scalar loops the block path replaced ----------


def _simpson_nodes(subdiv):
    w = np.ones(subdiv + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w


def _simpson_segment(fn, a, b, subdiv):
    """Composite Simpson of a vectorised integrand over [a, b]."""
    if b <= a:
        return 0.0
    vals = np.asarray(fn(np.linspace(a, b, subdiv + 1)), dtype=float)
    return float(np.dot(_simpson_nodes(subdiv), vals) * (b - a) / (3.0 * subdiv))


def _reference_estimate(paths, g, w, seed, subdiv=8):
    """The estimate over ``paths`` (segment tuples), one segment at a time."""
    values = np.empty(len(paths))
    for idx, segments in enumerate(paths):
        acc = 0.0
        for t0, t1, p, i, s0, _, _ in segments:
            if w is not None and t1 > t0:
                acc += _simpson_segment(
                    lambda v: w(v, p, i, s0 + (v - t0)), t0, t1, subdiv
                )
        values[idx] = float(g(p)) + acc
    return McEstimate.from_values(values, seed).mean


def _segment_defects_unc(kernel, tfs, p, i, s0, a, b, weights, acc):
    if b <= a:
        return
    subdiv = len(weights) - 1
    vs = np.linspace(a, b, subdiv + 1)
    ages = s0 + (vs - a)
    scale = (b - a) / (3.0 * subdiv)
    rates = {}
    for j in successors(i):
        spec = kernel.continuation if alpha(j) == alpha(i) else kernel.reversal
        rates[j] = spec.value(ages)
    for q, tf in enumerate(tfs):
        psi_here = np.asarray(tf.psi(p, i, ages), dtype=float)
        integrand = np.asarray(tf.dpsi_ds(p, i, ages), dtype=float)
        for j in successors(i):
            pj = p * (1.0 + kernel.delta * alpha(j))
            integrand = integrand + rates[j] * (float(tf.psi(pj, j, 0.0)) - psi_here)
        acc[q] += float(np.dot(weights, integrand)) * scale


def _segment_defects_ctl(
    kernel, layout, cost, tfs, p, i, s0, x, y, a, b, control, include_small, weights, acc
):
    if b <= a:
        return
    subdiv = len(weights) - 1
    vs = np.linspace(a, b, subdiv + 1)
    ages = s0 + (vs - a)
    scale = (b - a) / (3.0 * subdiv)
    big = layout.max_units
    rates = {}
    fills_small = {}
    for j in successors(i):
        d = alpha(j)
        spec = kernel.continuation if alpha(j) == alpha(i) else kernel.reversal
        rates[j] = spec.value(ages)
        if include_small:
            probs = np.asarray(layout.side_sizes(d))
            dxs = np.empty(len(probs))
            dys = np.empty(len(probs), dtype=int)
            for k in range(len(probs)):
                code = SMALL + SLOT_MOVES.index(d) * (big + 1) + k
                _, dxs[k], dys[k], _ = order_fill(code, control, big, p, kernel.delta, cost)
            live = (probs > 0) & ((dxs != 0) | (dys != 0))
            fills_small[d] = (
                layout.side_flow(d).value(ages),
                probs[live],
                dxs[live],
                dys[live],
            )
    for q, tf in enumerate(tfs):
        psi_here = np.asarray(tf.psi(p, i, ages, x, y), dtype=float)
        integrand = np.asarray(tf.dpsi_ds(p, i, ages, x, y), dtype=float)
        for j in successors(i):
            d = alpha(j)
            if include_small and len(fills_small[d][1]):
                lam, probs, dxs, dys = fills_small[d]
                shifted = np.asarray(
                    tf.psi(p, i, ages[None, :], x + dxs[:, None], y + dys[:, None]),
                    dtype=float,
                )
                integrand = integrand + lam * (
                    probs @ shifted - probs.sum() * psi_here
                )
            _, dxb, dyb, _ = order_fill(
                BIG + SLOT_MOVES.index(d), control, big, p, kernel.delta, cost
            )
            pj = p * (1.0 + kernel.delta * d)
            integrand = integrand + rates[j] * (
                float(tf.psi(pj, j, 0.0, x + dxb, y + dyb)) - psi_here
            )
        acc[q] += float(np.dot(weights, integrand)) * scale


def _reference_dynkin(
    engine_paths, scalar_thinning, kernel, tfs, start, t, n_paths, seed, layout=None,
    control=None, transaction_cost=0.0, include_small_orders=True, subdiv=4,
):
    """Per-path means of the Dynkin defects, one segment at a time; renewal
    segments come from ``engine_paths``, thinning ones path by path from the
    scalar reference ``scalar_thinning``."""
    values = np.empty((len(tfs), n_paths))
    weights = _simpson_nodes(subdiv)
    if control is None:
        start_seg = (0.0, start.price, start.state, start.age)
        psi0 = [float(tf.psi(start.price, start.state, start.age)) for tf in tfs]
        for idx, segments in enumerate(engine_paths(kernel, start_seg, t, n_paths, seed)):
            acc = [0.0] * len(tfs)
            for t0, t1, p, i, s0, s1, _ in segments:
                _segment_defects_unc(kernel, tfs, p, i, s0, t0, t1, weights, acc)
            for q, tf in enumerate(tfs):
                values[q, idx] = float(tf.psi(p, i, s1)) - psi0[q] - acc[q]
    else:
        market, agent = start
        start_seg = (0.0, market.price, market.state, market.age)
        psi0 = [
            float(tf.psi(market.price, market.state, market.age, agent.cash, agent.inventory))
            for tf in tfs
        ]
        for idx in range(n_paths):
            x, y = agent.cash, agent.inventory
            acc = [0.0] * len(tfs)
            rng = path_rng(seed, idx)
            for t0, t1, p, i, s0, s1, mark in scalar_thinning.segments(
                kernel, layout, start_seg, t, rng
            ):
                _segment_defects_ctl(
                    kernel, layout, transaction_cost, tfs, p, i, s0, x, y,
                    t0, t1, control, include_small_orders, weights, acc,
                )
                if mark is not None and mark >= BIG:
                    _, dx, dy, _ = order_fill(
                        mark, control, layout.max_units, p, kernel.delta, transaction_cost
                    )
                    x, y = x + dx, y + dy
            for q, tf in enumerate(tfs):
                values[q, idx] = float(tf.psi(p, i, s1, x, y)) - psi0[q] - acc[q]
    return [McEstimate.from_values(values[q], seed).mean for q in range(len(tfs))]


class TestBlockMatchesReference:
    """The block path against the per-segment loops above, at 1e-13."""

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        # 400 paths fill two blocks of 150 and part of a third, renewal and
        # thinning alike
        monkeypatch.setattr(simulate, "_SEED_BLOCK", 150)

    @pytest.mark.parametrize(
        "case", ["uncontrolled", "controlled", "builtin_controlled", "no_small_orders"]
    )
    def test_dynkin_battery(self, saturating_kernel, saturating_layout, engine_paths,
                            scalar_thinning, case):
        ctl_start = (MarketState(1.0, 2, 0.0), AgentState(0.0, 1))
        ctl_kw = dict(layout=saturating_layout, transaction_cost=0.001)
        if case == "uncontrolled":
            tfs, start, kw = battery_uncontrolled(1.0, 1.0), MarketState(1.0, 2, 0.25), {}
        elif case == "controlled":
            tfs = [TestFunction(
                "inventory_tanh",
                psi=lambda p, i, s, x, y: np.tanh(y / 2.0) * _bump(s, 0.0, 1.6),
                dpsi_ds=lambda p, i, s, x, y: np.tanh(y / 2.0) * _bump_ds(s, 0.0, 1.6),
            )]
            start, kw = ctl_start, dict(ctl_kw, control=(1, 0))
        else:
            tfs, start = battery_controlled(1.0, 1.0), ctl_start
            kw = dict(ctl_kw, control=(1, 1), include_small_orders=case == "builtin_controlled")
        block = dynkin_battery(saturating_kernel, tfs, start, 0.7, 400, 77, **kw)
        reference = _reference_dynkin(
            engine_paths, scalar_thinning, saturating_kernel, tfs, start, 0.7, 400, 77, **kw
        )
        for r, mean in zip(block, reference, strict=True):
            assert r.mean == pytest.approx(mean, abs=1e-13), r.name

    @pytest.mark.parametrize("control", [(1, 1), (0, 1)])
    def test_controlled_holdings_replay_the_fills(self, saturating_kernel, saturating_layout,
                                                  scalar_thinning, control):
        # each segment's cash and inventory equal a per-event replay of the
        # scalar reference from the initial agent, bit for bit
        kernel, layout, cost = saturating_kernel, saturating_layout, 0.001
        start, agent = (0.0, 1.0, 2, 0.0), AgentState(0.25, -1)
        got = [[] for _ in range(400)]
        for lo, path, _, (*_, x, y) in mc._controlled_blocks(
            kernel, layout, start, 0.7, 400, 77, agent, control, cost
        ):
            for k, xy in zip(path.tolist(), zip(x.tolist(), y.tolist())):
                got[lo + k].append(xy)
        filled = 0
        for idx, rows in enumerate(got):
            x, y = agent.cash, agent.inventory
            ref = []
            for *_, p, _, _, _, mark in scalar_thinning.segments(
                kernel, layout, start, 0.7, path_rng(77, idx)
            ):
                ref.append((x, y))
                if mark is not None and mark >= BIG:
                    _, dx, dy, units = order_fill(mark, control, layout.max_units, p,
                                                  kernel.delta, cost)
                    x, y, filled = x + dx, y + dy, filled + (units > 0)
            assert np.array(rows).tobytes() == np.array(ref, dtype=float).tobytes()
        assert filled > 100

    @pytest.mark.parametrize("flat", [True, False], ids=["flat", "saturating"])
    def test_estimator_with_quote_source(
        self, asymmetric_kernel, asymmetric_layout, saturating_kernel, saturating_layout,
        engine_paths, flat,
    ):
        kernel, layout = (
            (asymmetric_kernel, asymmetric_layout) if flat
            else (saturating_kernel, saturating_layout)
        )
        spec = MarketMakingSpec(big_size=2, transaction_cost=0.001, portfolio_consistent=True)
        field = solve_expected_price(kernel, GridSpec(n_t=40), 1.0, 1.0)
        source = QuoteGainSource(kernel, layout, spec, field)
        start = (0.1, 1.0, 3, 0.3)
        block = estimate_terminal_value(kernel, lambda p: p, source, start, 1.0, 400, 41)
        paths = engine_paths(kernel, start, 1.0, 400, 41)
        reference = _reference_estimate(paths, lambda p: p, source, 41)
        assert block.mean == pytest.approx(reference, abs=1e-13)
