"""Acceptance suite: every criterion at its stated tolerance, one line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS lines and
timings.  The three shipped presets parameterise the whole suite.
"""

import math
import time

import numpy as np
import pytest

from semitick import (
    AgentState,
    GridSpec,
    MarkLayout,
    MarketMakingSpec,
    MarketState,
    QuoteGainSource,
    SemiMarkovKernel,
    checks,
    extension_slice,
    pde_residual,
    solve_expected_price,
    solve_quote_value,
    total_value,
)
from semitick.harness import load_config
from semitick.market_maker import backtest_against_baselines
from semitick.solver import ProblemSpec

PRESET_NAMES = ["symmetric-martingale", "asymmetric-constant", "saturating-hazard"]


def report(criterion: str, passed: bool, detail: str, started: float) -> None:
    flag = "PASS" if passed else "FAIL"
    print(f"[ACCEPTANCE {criterion}] {flag} ({time.time() - started:.1f}s): {detail}")


@pytest.fixture(scope="module")
def presets():
    return {name: load_config(name) for name in PRESET_NAMES}


@pytest.fixture(scope="module")
def asym(presets):
    return presets["asymmetric-constant"]


@pytest.fixture(scope="module")
def asym_field(asym):
    return solve_expected_price(
        asym.kernel, asym.grid, asym.horizon, asym.initial_market.price
    )


def test_criterion_1_kernel_identities(presets):
    """Density-kernel identity and transition normalisation at 1e-12."""
    t0 = time.time()
    results = [
        check(cfg.kernel, np.linspace(0.0, cfg.horizon + cfg.initial_market.age + 1.0, 200))
        for cfg in presets.values()
        for check in (checks.kernel_identity, checks.transition_sum)
    ]
    worst = max(c.measured["defect"] for c in results)
    passed = all(c.passed for c in results)
    report("1 kernel identities", passed, f"max defect {worst:.3e} <= 1e-12", t0)
    assert passed


def test_criterion_2_distributional_correctness(presets):
    """Holding-time KS, transition frequencies, renewal vs thinning."""
    t0 = time.time()
    cfg = presets["saturating-hazard"]
    rng = np.random.default_rng(cfg.seed)
    ks = checks.holding_ks(cfg.kernel, rng, 10_000)
    freq = checks.transition_freq(cfg.kernel, rng, 100_000)
    two = checks.renewal_vs_thinning(
        cfg.kernel, cfg.layout, cfg.initial_market, cfg.horizon, 10_000, cfg.seed + 1
    )
    passed = ks.passed and freq.passed and two.passed
    report("2 distributional", passed, f"holding KS p={ks.measured['p']:.3f}; freqs within "
           f"3sd: {freq.passed}; renewal-vs-thinning KS p={two.measured['p']:.3f}", t0)
    assert passed


def test_criterion_3_solver_vs_closed_forms(presets):
    """Martingale identity at 1e-6; flat-hazard matrix exponential at 1e-4."""
    t0 = time.time()
    sym = presets["symmetric-martingale"]
    field = solve_expected_price(sym.kernel, sym.grid, sym.horizon, sym.initial_market.price)
    mask = field.lattice.report_mask
    col = field.lattice.prices[mask]
    ages = np.linspace(0.0, sym.initial_market.age + sym.horizon, 9)
    worst_sym = max(
        float(np.max(np.abs(values[:, :, mask] - col) / col))
        for values in [field.core] + [extension_slice(field, s) for s in ages]
    )

    asym = presets["asymmetric-constant"]
    t400 = time.time()
    f400 = solve_expected_price(
        asym.kernel, GridSpec(n_t=400), asym.horizon, asym.initial_market.price
    )
    elapsed_400 = time.time() - t400
    closed = checks.closed_form(f400, asym.kernel, 1e-4)
    worst_asym = closed.measured["rel_err"]
    passed = worst_sym <= 1e-6 and closed.passed and elapsed_400 < 10.0
    report("3 closed forms", passed, f"martingale max rel {worst_sym:.2e} <= 1e-6; matrix-exp "
           f"max rel {worst_asym:.2e} <= 1e-4 (n_t=400 solve {elapsed_400:.1f}s < 10s)", t0)
    assert passed


def test_criterion_4_contraction(presets):
    """Measured sweep ratios below the grid bound; sweep count within budget."""
    t0 = time.time()
    details, passed = [], True
    for name, cfg in presets.items():
        field = solve_expected_price(
            cfg.kernel, cfg.grid, cfg.horizon, cfg.initial_market.price
        )
        check = checks.contraction(
            field, cfg.kernel, cfg.horizon, cfg.grid.tol_fp, cfg.initial_market.age + cfg.horizon
        )
        passed &= check.passed
        m = check.measured
        details.append(
            f"{name}: ratio {m['ratio']:.3f} <= {m['kappa'] + 0.01:.3f}, "
            f"{field.iterations} sweeps <= {m['budget']}"
        )
    report("4 contraction", passed, "; ".join(details), t0)
    assert passed


def test_criterion_5_residual_convergence_order(asym):
    """Interior residual shrinks at order >= 1.8 under time refinement."""
    t0 = time.time()
    maxima = []
    for n_t in (100, 200, 400):
        field = solve_expected_price(
            asym.kernel, GridSpec(n_t=n_t), asym.horizon, asym.initial_market.price,
        )
        h = field.t_grid[1] - field.t_grid[0]
        res = pde_residual(field, [extension_slice(field, s) for s in h * np.arange(6)])
        maxima.append(res.max_abs)
    orders = [math.log2(maxima[k] / maxima[k + 1]) for k in range(2)]
    passed = min(orders) >= 1.8
    report(
        "5 residual order",
        passed,
        f"max residuals {['%.2e' % m for m in maxima]} -> orders "
        f"{['%.2f' % o for o in orders]} (>= 1.8)",
        t0,
    )
    assert passed


def test_criterion_6_stochastic_representation(asym, asym_field):
    """Solver values match their expectation representation at 1e5 paths."""
    t0 = time.time()
    kernel, layout, mmspec = asym.kernel, asym.layout, asym.mmspec
    field = asym_field
    quote = solve_quote_value(kernel, layout, mmspec, field)
    lat = field.lattice
    price_points = [
        (0.0, 1.0, 2, 0.0),
        (0.0, 1.0, 1, 0.6),
        (0.25, float(lat.prices[lat.index_of(1, 0)]), 4, 0.0),
        (0.5, float(lat.prices[lat.index_of(0, 1)]), 3, 0.2),
        (0.25, 1.0, 3, 0.0),
        (0.75, float(lat.prices[lat.index_of(1, 1)]), 2, 0.1),
    ]
    quote_points = [
        (0.0, 1.0, 2, 0.0),
        (0.25, 1.0, 3, 0.4),
        (0.5, float(lat.prices[lat.index_of(1, 0)]), 4, 0.0),
        (0.75, float(lat.prices[lat.index_of(0, 1)]), 1, 0.3),
    ]
    price = checks.price_mc(
        kernel, field, price_points, asym.horizon, 100_000, asym.seed + 500
    )
    premium = checks.quote_value_mc(
        kernel, layout, mmspec, field, quote, quote_points, asym.horizon, 100_000,
        asym.seed + 600,
    )
    zs = [f"pi{k}: {r['z']:+.2f}" for k, r in enumerate(price.stats)]
    zs += [f"u{k}: {r['z']:+.2f}" for k, r in enumerate(premium.stats)]
    passed = price.passed and premium.passed
    report("6 stochastic representation", passed, "; ".join(zs) + " (|z| < 3)", t0)
    assert passed


def test_criterion_7_dynkin_battery(presets):
    """Five test functions, both generators, 1e5 paths; ablation control."""
    t0 = time.time()
    cfg = presets["symmetric-martingale"]
    model = (cfg.kernel, cfg.layout, cfg.mmspec, cfg.initial_market, cfg.initial_agent)
    unc = checks.dynkin_uncontrolled(
        cfg.kernel, cfg.initial_market, cfg.horizon, 100_000, cfg.seed + 700
    )
    ctl = checks.dynkin_controlled(*model, cfg.horizon, 100_000, cfg.seed + 800)
    ablation = checks.dynkin_ablation(*model, cfg.horizon, 20_000, cfg.seed + 900)
    passed = unc.passed and ctl.passed and ablation.passed
    detail = (
        "; ".join(f"{r['name']}: {r['z']:+.2f}" for r in unc.stats + ctl.stats)
        + f"; ablation z={ablation.stats[0]['z']:+.1f} (>3)"
    )
    report("7 generator battery", passed, detail, t0)
    assert passed


def test_criterion_8_policy_optimality(asym):
    """Optimal quoting dominates the baselines across a (tick, cost) sweep."""
    t0 = time.time()
    passed, details = True, []
    for delta in (0.005, 0.01, 0.02):
        for eps_frac in (0.0, 0.3, 0.9):
            kernel = SemiMarkovKernel(asym.kernel.continuation, asym.kernel.reversal, delta)
            lay = asym.layout
            layout = MarkLayout(kernel, lay.ask_flow, lay.bid_flow, lay.ask_sizes, lay.bid_sizes)
            mmspec = MarketMakingSpec(
                big_size=asym.mmspec.big_size, transaction_cost=eps_frac * delta,
                portfolio_consistent=True,
            )
            field = solve_expected_price(kernel, GridSpec(n_t=100), asym.horizon, 1.0)
            quote = solve_quote_value(kernel, layout, mmspec, field)
            rep = backtest_against_baselines(
                kernel, layout, mmspec, field, MarketState(1.0, 2, 0.0), AgentState(0.0, 0),
                asym.horizon, 10_000, asym.seed + int(delta * 10_000) + int(eps_frac * 10),
            )
            match = checks.optimal_matches_value(
                rep, total_value(field, quote, 0.0, 1.0, 2, 0.0, 0.0, 0)
            )
            cell_ok = checks.backtest_ordering(rep).passed and match.passed
            passed &= cell_ok
            details.append(
                f"d={delta} e={eps_frac}d: {'ok' if cell_ok else 'FAIL'} (value gap "
                f"{match.measured['gap']:.1e} vs 3se {3 * rep.row('optimal').se:.1e})"
            )
    report("8 optimality", passed, "; ".join(details), t0)
    assert passed


def test_criterion_9_value_bound(presets):
    """Every policy's Monte-Carlo mean stays below the a-priori bound."""
    t0 = time.time()
    passed, details = True, []
    for name, cfg in presets.items():
        field = solve_expected_price(
            cfg.kernel, GridSpec(n_t=max(80, cfg.grid.n_t // 2)), cfg.horizon,
            cfg.initial_market.price,
        )
        rep = backtest_against_baselines(
            cfg.kernel, cfg.layout, cfg.mmspec, field, cfg.initial_market,
            cfg.initial_agent, cfg.horizon, 4000, cfg.seed + 1000,
        )
        check = checks.value_bound(rep)
        passed &= check.passed
        details.append(f"{name}: min margin {check.measured['margin']:.3f}")
    report("9 value bound", passed, "; ".join(details), t0)
    assert passed


def test_criterion_10_degenerate_cost(presets):
    """Costs above the relevant tick scale silence the quoting premium."""
    t0 = time.time()
    cfg = presets["symmetric-martingale"]
    kernel, layout = cfg.kernel, cfg.layout
    field = solve_expected_price(kernel, GridSpec(n_t=100), cfg.horizon, 1.0)
    max_price = float(field.lattice.prices.max())
    cases = [
        ("published-edge", MarketMakingSpec(
            big_size=cfg.mmspec.big_size, transaction_cost=kernel.delta * 1.0
        )),
        ("accounting-edge", MarketMakingSpec(
            big_size=cfg.mmspec.big_size,
            transaction_cost=kernel.delta * max_price * 1.0001,
            portfolio_consistent=True,
        )),
    ]
    passed, details = True, []
    for name, mmspec in cases:
        quote = solve_quote_value(kernel, layout, mmspec, field)
        u_max = float(np.abs(quote.core).max())
        source = QuoteGainSource(kernel, layout, mmspec, field)
        all_off = True
        for age in (0.0, 0.4):
            all_off &= bool(np.all(source.gain_rates_at_age(age) <= 0.0))
        ok = u_max <= 1e-10 and all_off
        passed &= ok
        details.append(f"{name}: max|u|={u_max:.1e}, all rates <= 0: {all_off}")
    report("10 degenerate cost", passed, "; ".join(details), t0)
    assert passed
