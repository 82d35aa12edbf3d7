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

from . import mc
from .hazards import BIG, SLOT_MOVES, SMALL, STATES, successors
from .market_maker import QuoteGainSource
from .simulate import renewal_blocks, sample_holding, thinning_blocks
from .solver import contraction_bound, expected_price_ode_oracle, extension_slice


# nominal false-alarm rates of a normal statistic's two-sided 3 sd and one-sided 2 sd bounds
_RATE_3SD, _RATE_2SD_ONE_SIDED = math.erfc(3.0 / math.sqrt(2.0)), 0.5 * math.erfc(math.sqrt(2.0))


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
    from scipy import stats as sps

    draws = sample_holding(kernel, 0.0, rng.uniform(1e-12, 1.0, n_draws))
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


def _holding_times(times, path, start_age: float) -> np.ndarray:
    """Durations between consecutive big jumps of paths from time zero, from
    the jump ``times`` of each path in order and the ``path`` of each jump,
    paths in order.

    The stretch before a path's first jump is included only when the paths
    started at age zero (otherwise its law is the conditional one); the
    censored stretch after the last jump is dropped.  First stretches come
    first, then the others, each path's in order.
    """
    times, path = np.asarray(times, dtype=float), np.asarray(path)
    same = path[1:] == path[:-1]
    rest = np.diff(times)[same]
    if start_age != 0.0 or not len(times):
        return rest
    return np.concatenate([times[np.append(True, ~same)], rest])


def renewal_vs_thinning(kernel, layout, market, horizon: float, n_paths: int, seed: int) -> Check:
    """Holding times of renewal paths (streams ``seed``) and thinning paths
    (streams ``seed + 1``) from the ``MarketState`` ``market`` at time zero
    come from one law (two-sample KS p > 0.01)."""
    from scipy import stats as sps

    start = (0.0, market.price, market.state, market.age)
    renewal, thinning = [], []
    for lo, path, last, (_, t1, *_) in renewal_blocks(kernel, start, horizon, n_paths, seed):
        renewal.append(_holding_times(t1[~last], lo + path[~last], market.age))
    for lo, path, _, (_, t1, *_, code) in thinning_blocks(
        kernel, layout, start, horizon, n_paths, seed + 1
    ):
        big = (code >= BIG) & (code < SMALL)
        thinning.append(_holding_times(t1[big], lo + path[big], market.age))
    renewal, thinning = np.concatenate(renewal), np.concatenate(thinning)
    ks = sps.ks_2samp(renewal, thinning)
    return Check(
        "renewal_vs_thinning", ks.pvalue > 0.01,
        f"p={ks.pvalue:.4f} ({len(renewal)} vs {len(thinning)} holds)",
        {"p": float(ks.pvalue), "nominal_false_alarm": 0.01}, measured={"p": ks.pvalue},
    )


# -- the expected-price solve (criteria 3 and 4) --------------------------------


def contraction(price_field, kernel, horizon: float, tol_fp: float, max_age: float) -> Check:
    """Every Picard ratio within the bound kappa + 0.01, and the sweep count
    within log(tol_fp) / log(kappa) + 5.  ``kappa`` is the jump probability
    within the horizon from age ``max_age``, the largest reachable age; with
    nondecreasing hazards (both supported families) no younger age has a
    larger one.  Without a ratio (one sweep) it measures one more sweep."""
    kappa = contraction_bound(kernel, horizon, [max_age])
    budget = math.ceil(math.log(tol_fp) / math.log(kappa)) + 5
    ratios, note = price_field.ratios, ""
    if not ratios:  # one more age-zero sweep of the converged core
        last = price_field.diff_norms[-1]
        gap = price_field.vnorm(extension_slice(price_field, 0.0) - price_field.core)
        ratios = [gap / last] if last > 0 else []
        note = " (one more sweep)" if ratios else (
            " (the ratio list was empty, and one more sweep gives no ratio)")
    ratio = float(np.max(ratios)) if ratios else math.nan
    sweeps = price_field.iterations
    return Check(
        "contraction", ratio <= kappa + 0.01 and sweeps <= budget,
        f"max ratio {ratio:.4f}{note} vs kappa+0.01={kappa + 0.01:.4f}; "
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
    for b, move in enumerate(SLOT_MOVES):  # the core's direction axis
        oracle = lattice.prices[None, mask] * factors[:, 0 if move > 0 else 1][:, None]
        rel = np.abs(price_field.core[b][:, mask] - oracle) / oracle
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
    low, top = quote_field.core.min(), np.abs(quote_field.core[:, -1]).max()
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
    check = _battery("dynkin_controlled", mc.dynkin_battery(
        kernel, battery, (market, agent), 0.8 * horizon, n_paths, seed,
        layout=layout, control=(1, 1), transaction_cost=mmspec.transaction_cost,
    ))
    for record in check.stats:
        record["nominal_false_alarm"] = _RATE_3SD
    return check


def dynkin_ablation(kernel, layout, mmspec, market, agent, horizon: float, n_paths: int,
                    seed: int) -> Check:
    """Negative control: dropping the small-order terms must give |z| > 3."""
    r = mc.dynkin_battery(
        kernel, mc.battery_controlled(horizon, market.price)[:1], (market, agent),
        0.8 * horizon, n_paths, seed, layout=layout, control=(1, 1),
        transaction_cost=mmspec.transaction_cost, include_small_orders=False,
    )[0]
    return Check(
        "dynkin_ablation", abs(r.z) > 3.0,
        f"dropping small-order terms gives z={r.z:+.1f} (must exceed 3)",
        [{"name": r.name, "estimate": r.mean, "se": r.se, "z": r.z}],
    )


# -- policies (criteria 8 and 9), read from one backtest report ----------------


def backtest_ordering(report) -> Check:
    """The optimal mean is at least every baseline mean minus 2 se; each
    record's ``z`` is the optimum's lead in that se (None at a zero se)."""
    opt = report.row("optimal")
    ok, details, stats = True, [], []
    for row in report.rows:
        if row.policy != "optimal":
            lead = opt.mean - row.mean
            ok &= opt.mean >= row.mean - 2.0 * row.se
            details.append(f"{row.policy}: {lead:+.2e} (2se {2 * row.se:.2e})")
            stats.append({"policy": row.policy, "z": lead / row.se if row.se > 0.0 else None,
                          "nominal_false_alarm": _RATE_2SD_ONE_SIDED})
    return Check("backtest_ordering", ok, "; ".join(details), stats)


def value_bound(report) -> Check:
    """No policy's mean exceeds the a-priori bound."""
    margin = float(np.min([report.upper_bound - row.mean for row in report.rows]))
    detail = f"min margin to bound {report.upper_bound:.4f}: {margin:.3e}"
    return Check("value_bound", margin >= 0.0, detail, measured={"margin": margin})


def optimal_matches_value(report, solved: float) -> Check:
    """The optimal policy's mean is within 3 se of the solved value."""
    opt = report.row("optimal")
    gap = abs(opt.mean - solved)
    se = max(opt.se, 1e-12)
    return Check(
        "optimal_matches_value", gap <= 3.0 * se,
        f"backtest {opt.mean:+.6f} vs solved {solved:+.6f} (3se {3 * opt.se:.1e})",
        {"z": (opt.mean - solved) / se, "nominal_false_alarm": _RATE_3SD},
        measured={"gap": gap},
    )
