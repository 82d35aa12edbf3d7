"""The acceptance checks, each written once.

``semitick validate`` and the acceptance suite call the same functions, each
with its own sample sizes, seeds and tolerances.  Every function returns one
:class:`Check`: the record the validate report writes (``name``, ``passed``,
``detail`` and optional ``stats``) plus, in ``measured``, the raw numbers
behind the verdict, which stay out of the report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import stats as sps

from . import mc
from .hazards import STATES, alpha, successors
from .market_maker import QuoteGainSource
from .simulate import path_rng, sample_holding, simulate_price_path, simulate_price_path_thinning
from .solver import contraction_bound, expected_price_ode_oracle, extension_slice


@dataclass
class Check:
    """One verdict; :meth:`record` is what the validate report writes."""

    name: str
    passed: bool
    detail: str
    stats: object = None
    measured: dict = field(default_factory=dict)

    def record(self) -> dict:
        out = {"name": self.name, "passed": bool(self.passed), "detail": self.detail}
        if self.stats is not None:
            out["stats"] = self.stats
        return out


def _max_defect(name: str, defects, tol: float) -> Check:
    worst = float(np.max([np.max(np.abs(a)) for a in defects]))
    return Check(name, worst <= tol, f"max defect {worst:.3e}", measured={"defect": worst})


# -- kernel and mark layout (criterion 1) ---------------------------------------


def kernel_identity(kernel, ages, tol: float = 1e-12) -> Check:
    """f(y) p_ij(y) / (1 - F(y)) equals the directed intensity h_ij(y)."""
    surv = 1.0 - kernel.holding_cdf(ages)
    return _max_defect("kernel_identity", (
        kernel.holding_pdf(ages) * kernel.transition_prob(i, j, ages) / surv
        - kernel.directed_intensity(i, j, ages)
        for i in STATES for j in successors(i)
    ), tol)


def transition_sum(kernel, ages, tol: float = 1e-12) -> Check:
    """The transition probabilities out of every state sum to one."""
    return _max_defect("transition_sum", (
        sum(kernel.transition_prob(i, j, ages) for j in successors(i)) - 1.0 for i in STATES
    ), tol)


def cdf_shape(kernel, ages) -> Check:
    cdf = kernel.holding_cdf(ages)
    ok = np.all(np.diff(cdf) > 0) and np.all(cdf < 1.0) and cdf[0] == 0.0
    return Check("cdf_shape", ok, "strictly increasing, below 1, F(0)=0")


def mark_partition(layout, ages, tol: float = 1e-9) -> Check:
    """Mark intervals have the hazard and flow lengths and fit the domain."""
    kernel = layout.kernel
    worst, over = 0.0, []
    for s in ages:
        lengths = np.diff(np.concatenate([[0.0], layout.boundaries(s)]))
        expect = [kernel.continuation.value(s), kernel.reversal.value(s)]
        expect += [layout.ask_flow.value(s) * q for q in layout.ask_sizes]
        expect += [layout.bid_flow.value(s) * q for q in layout.bid_sizes]
        worst = float(np.maximum(worst, np.max(np.abs(lengths - np.array(expect)))))
        if layout.total_mass(s) > layout.mark_domain + 1e-12:
            over.append(float(s))
    detail = f"max length defect {worst:.3e}"
    if over:
        detail += f"; mass exceeds domain at ages {over}"
    return Check("mark_partition", worst <= tol and not over, detail)


# -- sampling (criterion 2) -----------------------------------------------------


def holding_ks(kernel, rng, n_draws: int) -> Check:
    """Inverse-transform holding times from age zero against F (KS p > 0.01)."""
    draws = np.array([sample_holding(kernel, 0.0, u) for u in rng.uniform(1e-12, 1.0, n_draws)])
    ks = sps.kstest(draws, lambda y: kernel.holding_cdf(np.maximum(y, 0.0)))
    return Check(
        "holding_ks", ks.pvalue > 0.01, f"p={ks.pvalue:.4f} on {n_draws} draws",
        measured={"p": ks.pvalue},
    )


def transition_freq(kernel, rng, n_draws: int) -> Check:
    """Sampled first-successor frequencies within 3 binomial sd."""
    ok, details = True, []
    for i, y in ((1, 0.3), (2, 1.1)):
        _, weights = kernel.transition_weights(i, y)
        hits = np.sum(rng.random(n_draws) < weights[0])
        sd = math.sqrt(n_draws * weights[0] * (1.0 - weights[0]))
        gap = abs(hits - n_draws * weights[0])
        ok &= gap <= 3.0 * sd
        details.append(f"i={i}: |gap|={gap:.1f} vs 3sd={3 * sd:.1f}")
    return Check("transition_freq", ok, "; ".join(details))


def renewal_vs_thinning(kernel, layout, market, horizon: float, n_paths: int, seed: int) -> Check:
    """Holding times of renewal paths (streams ``seed``) and thinning paths
    (streams ``seed + 1``) come from one law (two-sample KS p > 0.01)."""
    renewal, thinning = [], []
    for idx in range(n_paths):
        renewal += simulate_price_path(kernel, market, horizon, path_rng(seed, idx)).holding_times()
        thinning += simulate_price_path_thinning(
            kernel, layout, market, horizon, path_rng(seed + 1, idx)
        ).holding_times()
    ks = sps.ks_2samp(renewal, thinning)
    return Check(
        "renewal_vs_thinning", ks.pvalue > 0.01,
        f"p={ks.pvalue:.4f} ({len(renewal)} vs {len(thinning)} holds)", measured={"p": ks.pvalue},
    )


# -- the expected-price solve (criteria 3 and 4) --------------------------------


def contraction(price_field, kernel, horizon: float, grid) -> Check:
    """Every Picard ratio within the grid bound kappa + 0.01, and the sweep
    count within log(tol_fp) / log(kappa) + 5."""
    kappa = contraction_bound(kernel, horizon, np.linspace(0.0, grid.s_max, grid.n_s + 1))
    budget = math.ceil(math.log(grid.tol_fp) / math.log(kappa)) + 5
    ratio = float(np.max(price_field.ratios, initial=0.0))
    sweeps = price_field.iterations
    return Check(
        "contraction", ratio <= kappa + 0.01 and sweeps <= budget,
        f"max ratio {ratio:.4f} vs kappa+0.01={kappa + 0.01:.4f}; "
        f"{sweeps} sweeps vs budget {budget}",
        measured={"ratio": ratio, "kappa": kappa, "budget": budget},
    )


def extension_age0(price_field, tol: float) -> Check:
    """The age extension at age zero reproduces the iterated core."""
    gap = price_field.vnorm(extension_slice(price_field, 0.0) - price_field.core)
    return Check("extension_age0", gap <= tol, f"gap {gap:.2e}")


def closed_form(price_field, kernel, tol: float) -> Check:
    """Flat hazards: the core against the matrix-exponential oracle."""
    factors = expected_price_ode_oracle(
        kernel.continuation.level, kernel.reversal.level, kernel.delta,
        price_field.horizon - price_field.t_grid,
    )
    lattice = price_field.lattice
    mask = lattice.report_mask
    worst = 0.0
    for ii, i in enumerate(STATES):
        oracle = lattice.prices[None, mask] * factors[:, 0 if alpha(i) > 0 else 1][:, None]
        rel = np.abs(price_field.core[:, mask, ii] - oracle) / oracle
        worst = float(np.maximum(worst, np.max(rel)))
    return Check(
        "closed_form", worst <= tol, f"max rel err {worst:.3e} vs tol {tol:g} (flat-hazard oracle)",
        measured={"rel_err": worst},
    )


# -- stochastic representation (criterion 6) ------------------------------------


def _represented(name, kernel, g, source, value, points, horizon, n_paths, seed, suffix=""):
    """|z| < 3 between ``value`` and a Monte-Carlo estimate at each point;
    point k uses seed ``seed + k``."""
    ok, details, stats = True, [], []
    for k, (t, p, i, s) in enumerate(points):
        est = mc.estimate_terminal_value(kernel, g, source, (t, p, i, s), horizon, n_paths,
                                         seed + k)
        z = mc.z_score(value.eval(t, p, i, s), est)
        ok &= abs(z) < 3.0
        details.append(f"z={z:+.2f}")
        stats.append({"point": [t, p, i, s], "estimate": est.mean, "se": est.se, "z": z})
    return Check(name, ok, "; ".join(details) + suffix, stats)


def price_mc(kernel, price_field, points, horizon: float, n_paths: int, seed: int) -> Check:
    """The expected price against Monte-Carlo terminal prices."""
    return _represented(
        "price_mc", kernel, lambda x: x, None, price_field, points, horizon, n_paths, seed,
        f" at {n_paths} paths",
    )


def quote_value_mc(kernel, layout, mmspec, price_field, quote_field, points, horizon: float,
                   n_paths: int, seed: int) -> Check:
    """The quoting premium against Monte-Carlo integrals of its source."""
    source = QuoteGainSource(kernel, layout, mmspec, price_field)
    return _represented(
        "quote_value_mc", kernel, lambda x: 0.0, source, quote_field, points, horizon, n_paths, seed
    )


def quote_value_shape(quote_field) -> Check:
    """The quoting premium is nonnegative and vanishes at the horizon."""
    low, top = quote_field.core.min(), np.abs(quote_field.core[-1]).max()
    return Check(
        "quote_value_shape", low >= -1e-12 and top == 0.0, f"min {low:.2e}, terminal max {top:.2e}"
    )


# -- Dynkin generator battery (criterion 7), checked at 0.8 * horizon ---------


def _battery(name, results) -> Check:
    return Check(
        name, all(abs(r.z) < 3.0 for r in results),
        "; ".join(f"{r.name}: z={r.z:+.2f}" for r in results),
        [{"name": r.name, "estimate": r.mean, "se": r.se, "z": r.z} for r in results],
    )


def dynkin_uncontrolled(kernel, market, horizon: float, n_paths: int, seed: int) -> Check:
    battery = mc.battery_uncontrolled(horizon, market.price)
    return _battery(
        "dynkin_uncontrolled",
        mc.dynkin_battery(kernel, battery, market, 0.8 * horizon, n_paths, seed),
    )


def dynkin_controlled(kernel, layout, mmspec, market, agent, horizon: float, n_paths: int,
                      seed: int) -> Check:
    battery = mc.battery_controlled(horizon, market.price)
    return _battery("dynkin_controlled", mc.dynkin_battery(
        kernel, battery, (market, agent), 0.8 * horizon, n_paths, seed,
        layout=layout, control=(1, 1), transaction_cost=mmspec.transaction_cost,
    ))


def dynkin_ablation(kernel, layout, mmspec, market, agent, horizon: float, n_paths: int,
                    seed: int) -> Check:
    """Negative control: dropping the small-order terms must give |z| > 3."""
    r = mc.dynkin_check(
        kernel, mc.battery_controlled(horizon, market.price)[0], (market, agent),
        0.8 * horizon, n_paths, seed, layout=layout, control=(1, 1),
        transaction_cost=mmspec.transaction_cost, include_small_orders=False,
    )
    return Check(
        "dynkin_ablation", abs(r.z) > 3.0,
        f"dropping small-order terms gives z={r.z:+.1f} (must exceed 3)",
        [{"name": r.name, "estimate": r.mean, "se": r.se, "z": r.z}],
    )


# -- policies (criteria 8 and 9), read from one backtest report ----------------


def backtest_ordering(report) -> Check:
    """The optimal mean is at least every baseline mean minus 2 se."""
    opt = report.row("optimal")
    ok, details = True, []
    for row in report.rows:
        if row.policy != "optimal":
            ok &= opt.mean >= row.mean - 2.0 * row.se
            details.append(f"{row.policy}: {opt.mean - row.mean:+.2e} (2se {2 * row.se:.2e})")
    return Check("backtest_ordering", ok, "; ".join(details))


def value_bound(report) -> Check:
    """No policy's mean exceeds the a-priori bound."""
    margin = float(np.min([report.upper_bound - row.mean for row in report.rows]))
    detail = f"min margin to bound {report.upper_bound:.4f}: {margin:.3e}"
    return Check("value_bound", margin >= 0.0, detail, measured={"margin": margin})


def optimal_matches_value(report, solved: float) -> Check:
    """The optimal policy's mean is within 3 se of the solved value."""
    opt = report.row("optimal")
    gap = abs(opt.mean - solved)
    return Check(
        "optimal_matches_value", gap <= 3.0 * max(opt.se, 1e-12),
        f"backtest {opt.mean:+.6f} vs solved {solved:+.6f} (3se {3 * opt.se:.1e})",
        measured={"gap": gap},
    )
