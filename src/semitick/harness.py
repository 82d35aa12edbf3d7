"""Configuration ingestion, experiment orchestration, and result emission.

Configs are JSON.  Three presets parameterise the oracle suite:
``symmetric-martingale`` (flat equal hazards, so the price is a martingale),
``asymmetric-constant`` (flat unequal hazards with a matrix-exponential
closed form), and ``saturating-hazard`` (age-dependent intensities).

Commands: simulate, solve-pi, solve-u, policy, backtest, validate.  Exit
codes: 0 ok, 1 validation failure, 2 configuration error.  Every artifact
embeds the config hash and master seed in a leading comment line.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import json
import math
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path as FsPath
from typing import Optional

import numpy as np
from scipy import stats

from . import market_maker as mm
from . import mc
from .hazards import (
    ConstantIntensity,
    MarkLayout,
    SaturatingIntensity,
    SemiMarkovKernel,
    STATES,
    alpha,
    successors,
)
from .lattice import max_jumps_for_tail
from .simulate import (
    AgentState,
    MarketState,
    path_rng,
    sample_holding,
    simulate_price_path,
    simulate_price_path_thinning,
)
from .solver import (
    GridSpec,
    ProblemSpec,
    contraction_bound,
    expected_price_ode_oracle,
    extend_to_age,
    extension_slice,
    pde_residual,
    save_field_csv,
    solve_expected_price,
)

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "PRESETS",
    "preset_config",
    "load_config",
    "run_command",
    "main",
]

COMMANDS = ("simulate", "solve-pi", "solve-u", "policy", "backtest", "validate")


class ConfigError(Exception):
    """Aggregated configuration problems; ``errors`` lists one message each."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


PRESETS = {
    "symmetric-martingale": {
        "kernel": {
            "continuation": {"family": "constant", "level": 0.5},
            "reversal": {"family": "constant", "level": 0.5},
            "delta": 0.01,
        },
        "layout": {
            "ask_flow": {"family": "constant", "level": 1.0},
            "bid_flow": {"family": "constant", "level": 1.0},
            "ask_sizes": [0.1, 0.5, 0.3, 0.1],
            "bid_sizes": [0.1, 0.5, 0.3, 0.1],
        },
        "agent": {
            "big_size": 3,
            "transaction_cost": 0.002,
            "risk_aversion": 0.0,
            "portfolio_consistent": False,
        },
        "horizon": 1.0,
        "initial": {"price": 1.0, "state": 2, "age": 0.0, "cash": 0.0, "inventory": 0},
        "grid": {"n_t": 200, "n_s": 8},
        "run": {"n_paths": 4000, "seed": 20240811, "out_dir": "out"},
    },
    "asymmetric-constant": {
        "kernel": {
            "continuation": {"family": "constant", "level": 0.8},
            "reversal": {"family": "constant", "level": 0.4},
            "delta": 0.01,
        },
        "layout": {
            "ask_flow": {"family": "constant", "level": 1.5},
            "bid_flow": {"family": "constant", "level": 1.0},
            "ask_sizes": [0.2, 0.5, 0.3],
            "bid_sizes": [0.1, 0.6, 0.3],
        },
        "agent": {
            "big_size": 2,
            "transaction_cost": 0.001,
            "risk_aversion": 0.0,
            "portfolio_consistent": True,
        },
        "horizon": 1.0,
        "initial": {"price": 1.0, "state": 2, "age": 0.0, "cash": 0.0, "inventory": 0},
        "grid": {"n_t": 200, "n_s": 8},
        "run": {"n_paths": 4000, "seed": 20240811, "out_dir": "out"},
    },
    "saturating-hazard": {
        "kernel": {
            "continuation": {"family": "saturating", "base": 0.2, "gain": 1.0, "rate": 2.0},
            "reversal": {"family": "saturating", "base": 0.3, "gain": 0.5, "rate": 1.0},
            "delta": 0.01,
        },
        "layout": {
            "ask_flow": {"family": "saturating", "base": 0.5, "gain": 0.8, "rate": 1.5},
            "bid_flow": {"family": "constant", "level": 0.9},
            "ask_sizes": [0.25, 0.5, 0.25],
            "bid_sizes": [0.25, 0.5, 0.25],
        },
        "agent": {
            "big_size": 2,
            "transaction_cost": 0.001,
            "risk_aversion": 0.0,
            "portfolio_consistent": True,
        },
        "horizon": 1.0,
        "initial": {"price": 1.0, "state": 2, "age": 0.25, "cash": 0.0, "inventory": 0},
        "grid": {"n_t": 120, "n_s": 8},
        "run": {"n_paths": 3000, "seed": 20240811, "out_dir": "out"},
    },
}


def preset_config(name: str) -> dict:
    if name not in PRESETS:
        raise KeyError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}")
    return copy.deepcopy(PRESETS[name])


@dataclass
class ExperimentConfig:
    """Validated experiment: constructed model objects plus run parameters."""

    kernel: SemiMarkovKernel
    layout: MarkLayout
    mmspec: mm.MarketMakingSpec
    horizon: float
    initial_market: MarketState
    initial_agent: AgentState
    grid: GridSpec
    n_paths: int
    seed: int
    out_dir: str
    raw: dict = field(repr=False, default_factory=dict)

    @property
    def config_hash(self) -> str:
        return hashlib.sha256(
            json.dumps(self.raw, sort_keys=True).encode()
        ).hexdigest()[:16]

    def header_meta(self) -> dict:
        return {"config_sha256": self.config_hash, "master_seed": self.seed}


def _is_number(value, integer: bool = False) -> bool:
    """True for a finite JSON number, and an integral one when ``integer``."""
    try:
        return not isinstance(value, bool) and (
            value == int(value) if integer else math.isfinite(value)
        )
    except (TypeError, ValueError, OverflowError):
        return False


def _number(sec: dict, where: str, errors: list, default=None, integer: bool = False):
    """Field ``where`` (a dotted path whose last part keys ``sec``) as a finite
    float, or as an int when ``integer``; None and a message otherwise."""
    value = sec.get(where.rsplit(".", 1)[-1], default)
    if not _is_number(value, integer):
        kind = "an integer" if integer else "a finite number"
        errors.append(f"{where}: expected {kind}, got {value!r}")
        return None
    return int(value) if integer else float(value)


def _section(parent: dict, where: str, errors: list) -> dict:
    sec = parent.get(where.rsplit(".", 1)[-1], {})
    if isinstance(sec, dict):
        return sec
    errors.append(f"{where}: expected an object, got {sec!r}")
    return {}


def _make(where: str, errors: list, cls, *args, **kwargs):
    """``cls(*args, **kwargs)``, or None when an argument is missing or the
    constructor rejects them (its message goes to ``errors``)."""
    if None in args or None in kwargs.values():
        return None
    try:
        return cls(*args, **kwargs)
    except ValueError as exc:
        errors.append(f"{where}: {exc}")
        return None


_FAMILIES = {
    "constant": (ConstantIntensity, ("level",)),
    "saturating": (SaturatingIntensity, ("base", "gain", "rate")),
}


def _intensity_from(parent: dict, where: str, errors: list):
    section = _section(parent, where, errors)
    family = section.get("family")
    if not isinstance(family, str) or family not in _FAMILIES:
        errors.append(
            f"{where}.family: expected 'constant' or 'saturating', got {family!r} "
            "(smoothness and boundedness (A1)/(A2) hold for these families only)"
        )
        return None
    cls, names = _FAMILIES[family]
    return _make(where, errors, cls, *[_number(section, f"{where}.{n}", errors) for n in names])


def _build_config(data) -> ExperimentConfig:
    if not isinstance(data, dict):
        raise ConfigError([f"config: expected a JSON object, got {type(data).__name__}"])
    errors: list[str] = []
    ksec = _section(data, "kernel", errors)
    cont = _intensity_from(ksec, "kernel.continuation", errors)
    rev = _intensity_from(ksec, "kernel.reversal", errors)
    delta = _number(ksec, "kernel.delta", errors)
    if delta is not None and not 0.0 < delta < 1.0:
        errors.append(
            f"kernel.delta: tick size must lie strictly inside (0, 1), got {delta!r} "
            "(prices must stay positive after a down move)"
        )
        delta = None
    kernel = _make("kernel (assumptions (A3)/(A4))", errors, SemiMarkovKernel, cont, rev, delta)
    lsec = _section(data, "layout", errors)
    flows = [_intensity_from(lsec, f"layout.{k}", errors) for k in ("ask_flow", "bid_flow")]
    sizes = []
    for key in ("ask_sizes", "bid_sizes"):
        raw = lsec.get(key, [])
        if isinstance(raw, list) and all(_is_number(v) for v in raw):
            sizes.append(tuple(raw))
        else:
            errors.append(f"layout.{key}: expected a list of finite numbers, got {raw!r}")
            sizes.append(None)
    layout = _make("layout", errors, MarkLayout, kernel, *flows, *sizes)
    asec = _section(data, "agent", errors)
    consistent = asec.get("portfolio_consistent", False)
    if not isinstance(consistent, bool):
        errors.append(f"agent.portfolio_consistent: expected true or false, got {consistent!r}")
        consistent = None
    mmspec = _make(
        "agent", errors, mm.MarketMakingSpec,
        _number(asec, "agent.big_size", errors, 1, integer=True),
        _number(asec, "agent.transaction_cost", errors, 0.0),
        _number(asec, "agent.risk_aversion", errors, 0.0),
        consistent,
    )
    if layout is not None and mmspec is not None and layout.max_units != mmspec.big_size:
        errors.append(
            f"agent.big_size: {mmspec.big_size} does not match the size support "
            f"0..{layout.max_units} of the layout distributions"
        )
    horizon = _number(data, "horizon", errors)
    if horizon is not None and horizon <= 0:
        errors.append(f"horizon: must be positive, got {horizon!r}")
    isec = _section(data, "initial", errors)
    initial_market = _make(
        "initial", errors, MarketState,
        _number(isec, "initial.price", errors, 0.0),
        _number(isec, "initial.state", errors, 0, integer=True),
        _number(isec, "initial.age", errors, 0.0),
    )
    initial_agent = _make(
        "initial", errors, AgentState,
        _number(isec, "initial.cash", errors, 0.0),
        _number(isec, "initial.inventory", errors, 0, integer=True),
    )
    gsec = _section(data, "grid", errors)
    optional = {
        key: _number(gsec, f"grid.{key}", errors, integer=key == "n_max")
        for key in ("n_max", "s_max")
        if gsec.get(key) is not None
    }
    grid = _make(
        "grid", errors, GridSpec,
        n_t=_number(gsec, "grid.n_t", errors, 200, integer=True),
        n_s=_number(gsec, "grid.n_s", errors, 8, integer=True),
        tol_fp=_number(gsec, "grid.tol_fp", errors, 1e-8),
        tail_tol=_number(gsec, "grid.tail_tol", errors, 1e-10),
        max_iter=_number(gsec, "grid.max_iter", errors, 400, integer=True),
        **optional,
    )
    rsec = _section(data, "run", errors)
    n_paths = _number(rsec, "run.n_paths", errors, 1000, integer=True)
    seed = _number(rsec, "run.seed", errors, 0, integer=True)
    if n_paths is not None and n_paths < 1:
        errors.append(f"run.n_paths: must be >= 1, got {n_paths}")
    if seed is not None and seed < 0:
        errors.append(f"run.seed: must be >= 0, got {seed}")
    if None not in (kernel, grid, horizon) and horizon > 0:
        # guard rings are sized by tol_fp, reported nodes (unless n_max) by tail_tol
        tol = grid.tol_fp if grid.n_max is not None else min(grid.tol_fp, grid.tail_tol)
        _make("grid", errors, max_jumps_for_tail, kernel.intensity_bound, horizon, tol)
    if errors:
        raise ConfigError(errors)
    if grid.s_max is None:
        grid = replace(grid, s_max=initial_market.age + horizon)
    return ExperimentConfig(
        kernel=kernel,
        layout=layout,
        mmspec=mmspec,
        horizon=horizon,
        initial_market=initial_market,
        initial_agent=initial_agent,
        grid=grid,
        n_paths=n_paths,
        seed=seed,
        out_dir=str(rsec.get("out_dir", "out")),
        raw=data,
    )


def load_config(path_or_name) -> ExperimentConfig:
    """Load a JSON config file, or a preset by name."""
    name = str(path_or_name)
    if name in PRESETS:
        return _build_config(preset_config(name))
    p = FsPath(name)
    if not p.exists():
        raise ConfigError(
            [f"config {name!r} is neither a file nor a preset {sorted(PRESETS)}"]
        )
    try:
        data = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError([f"{name}: invalid JSON ({exc})"]) from exc
    return _build_config(data)


# -- commands ---------------------------------------------------------------


def _out_dir(cfg: ExperimentConfig, override: Optional[str]) -> FsPath:
    out = FsPath(override if override is not None else cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _cmd_simulate(cfg: ExperimentConfig, out: FsPath, quiet: bool) -> int:
    meta = cfg.header_meta()
    rows_path = out / "paths.csv"
    summaries = []
    with open(rows_path, "w") as fh:
        fh.write("# " + json.dumps(meta, sort_keys=True) + "\n")
        fh.write(
            "path,time,kind,target_or_side,units,price_before,price_after,age_before\n"
        )
        for idx in range(cfg.n_paths):
            path = simulate_price_path(
                cfg.kernel, cfg.initial_market, cfg.horizon, path_rng(cfg.seed, idx)
            )
            for e in path.events:
                fh.write(
                    f"{idx},{float(e.time)!r},big,{e.kind.target},0,"
                    f"{float(e.market_before.price)!r},{float(e.market_after.price)!r},"
                    f"{float(e.market_before.age)!r}\n"
                )
            summaries.append(path.summary())
    with open(out / "paths_summary.json", "w") as fh:
        json.dump({"meta": meta, "paths": summaries}, fh, indent=2, sort_keys=True)
    if not quiet:
        print(f"simulate: wrote {cfg.n_paths} paths to {rows_path}")
    return 0


def _solve_pi(cfg: ExperimentConfig):
    field = solve_expected_price(
        cfg.kernel, cfg.grid, cfg.horizon, cfg.initial_market.price, extend=False
    )
    h = field.t_grid[1] - field.t_grid[0]
    band = h * np.arange(min(cfg.grid.n_s, 6) + 1)
    field = extend_to_age(field, s_grid=band)
    return field


def _cmd_solve_pi(cfg: ExperimentConfig, out: FsPath, quiet: bool) -> int:
    field = _solve_pi(cfg)
    save_field_csv(field, out / "expected_price.csv", cfg.header_meta())
    res = pde_residual(cfg.kernel, ProblemSpec(g=lambda p: p), field)
    report = {
        "meta": cfg.header_meta(),
        "iterations": field.iterations,
        "final_diff": field.diff_norms[-1],
        "residual_max": res.max_abs,
        "residual_mean": res.mean_abs,
    }
    with open(out / "expected_price_report.json", "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
    if not quiet:
        print(
            f"solve-pi: {field.iterations} sweeps, residual max {res.max_abs:.3e}"
        )
    return 0


def _cmd_solve_u(cfg: ExperimentConfig, out: FsPath, quiet: bool) -> int:
    if not (out / "expected_price.csv").exists():
        print(
            "solve-u: expected_price.csv not found in the output directory; "
            "run solve-pi first",
            file=sys.stderr,
        )
        return 2
    cfg.mmspec.require_risk_neutral("solve-u")
    field = _solve_pi(cfg)
    quote_field = mm.solve_quote_value(cfg.kernel, cfg.layout, cfg.mmspec, field)
    save_field_csv(quote_field, out / "quote_value.csv", cfg.header_meta())
    report = {
        "meta": cfg.header_meta(),
        "iterations": quote_field.iterations,
        "final_diff": quote_field.diff_norms[-1],
        "min_value": float(quote_field.core.min()),
        "terminal_max_abs": float(np.abs(quote_field.core[-1]).max()),
    }
    with open(out / "quote_value_report.json", "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
    if not quiet:
        print(f"solve-u: {quote_field.iterations} sweeps, min {report['min_value']:.3e}")
    return 0


def _cmd_policy(cfg: ExperimentConfig, out: FsPath, quiet: bool) -> int:
    cfg.mmspec.require_risk_neutral("policy")
    field = _solve_pi(cfg)
    s_vals = np.linspace(0.0, cfg.grid.s_max, 5)
    mm.export_policy_csv(
        out / "policy.csv",
        cfg.kernel,
        cfg.layout,
        cfg.mmspec,
        field,
        s_values=s_vals,
        header_meta=cfg.header_meta(),
    )
    if not quiet:
        print(f"policy: wrote {out / 'policy.csv'}")
    return 0


def _cmd_backtest(cfg: ExperimentConfig, out: FsPath, quiet: bool) -> int:
    cfg.mmspec.require_risk_neutral("backtest")
    field = _solve_pi(cfg)
    policies = mm.default_baselines() + [
        mm.optimal_policy(cfg.kernel, cfg.layout, cfg.mmspec, field)
    ]
    report = mm.backtest(
        policies,
        cfg.kernel,
        cfg.layout,
        cfg.mmspec,
        cfg.initial_market,
        cfg.initial_agent,
        cfg.horizon,
        cfg.n_paths,
        cfg.seed,
    )
    report.to_csv(out / "backtest.csv", cfg.header_meta())
    payload = report.to_json(out / "backtest.json")
    if not quiet:
        for row in payload["rows"]:
            print(
                f"backtest: {row['policy']:<13} mean {row['mean']:+.6f} "
                f"se {row['se']:.6f}"
            )
    return 0


# -- validation suite ---------------------------------------------------------


def _check(name, passed, detail, stats=None):
    out = {"name": name, "passed": bool(passed), "detail": detail}
    if stats is not None:
        out["stats"] = stats
    return out


def _validate_kernel(cfg: ExperimentConfig) -> list[dict]:
    kernel = cfg.kernel
    ages = np.linspace(0.0, cfg.horizon + cfg.initial_market.age, 200)
    checks = []
    worst_ident = 0.0
    worst_sum = 0.0
    for i in STATES:
        for j in successors(i):
            lhs = kernel.holding_pdf(ages) * kernel.transition_prob(i, j, ages) / (
                1.0 - kernel.holding_cdf(ages)
            )
            rhs = np.asarray(kernel.directed_intensity(i, j, ages))
            worst_ident = max(worst_ident, float(np.max(np.abs(lhs - rhs))))
        total = sum(kernel.transition_prob(i, j, ages) for j in successors(i))
        worst_sum = max(worst_sum, float(np.max(np.abs(total - 1.0))))
    checks.append(
        _check("kernel_identity", worst_ident <= 1e-12, f"max defect {worst_ident:.3e}")
    )
    checks.append(
        _check("transition_sum", worst_sum <= 1e-12, f"max defect {worst_sum:.3e}")
    )
    cdf = kernel.holding_cdf(ages)
    mono = np.all(np.diff(cdf) > 0) and np.all(cdf < 1.0) and cdf[0] == 0.0
    checks.append(_check("cdf_shape", mono, "strictly increasing, below 1, F(0)=0"))
    worst_len = 0.0
    for s in np.linspace(0.0, cfg.horizon, 7):
        bounds = cfg.layout.boundaries(s)
        lengths = np.diff(np.concatenate([[0.0], bounds]))
        expect = [
            kernel.continuation.value(s),
            kernel.reversal.value(s),
        ]
        expect += [
            cfg.layout.ask_flow.value(s) * q for q in cfg.layout.ask_sizes
        ]
        expect += [
            cfg.layout.bid_flow.value(s) * q for q in cfg.layout.bid_sizes
        ]
        worst_len = max(worst_len, float(np.max(np.abs(lengths - np.array(expect)))))
        ok_mass = cfg.layout.total_mass(s) <= cfg.layout.mark_domain + 1e-12
        if not ok_mass:
            checks.append(_check("mark_mass", False, f"mass exceeds domain at age {s}"))
    checks.append(
        _check("mark_partition", worst_len <= 1e-9, f"max length defect {worst_len:.3e}")
    )
    return checks


def _validate_distributions(cfg: ExperimentConfig, n_scale: int) -> list[dict]:
    kernel = cfg.kernel
    checks = []
    rng = np.random.default_rng(cfg.seed)
    n_hold = min(10000, max(2000, n_scale))
    draws = np.array(
        [sample_holding(kernel, 0.0, u) for u in rng.uniform(1e-12, 1.0, n_hold)]
    )
    ks = stats.kstest(draws, lambda y: kernel.holding_cdf(np.maximum(y, 0.0)))
    checks.append(
        _check("holding_ks", ks.pvalue > 0.01, f"p={ks.pvalue:.4f} on {n_hold} draws")
    )
    n_tr = max(20000, 2 * n_scale)
    ok_tr, detail_tr = True, []
    for i, y in ((1, 0.3), (2, 1.1)):
        succ, weights = kernel.transition_weights(i, y)
        us = rng.random(n_tr)
        hits = np.sum(us < weights[0])
        sd = math.sqrt(n_tr * weights[0] * (1.0 - weights[0]))
        gap = abs(hits - n_tr * weights[0])
        ok_tr &= gap <= 3.0 * sd
        detail_tr.append(f"i={i}: |gap|={gap:.1f} vs 3sd={3 * sd:.1f}")
    checks.append(_check("transition_freq", ok_tr, "; ".join(detail_tr)))
    n_paths = min(4000, max(1000, n_scale // 2))
    hold_renew, hold_thin = [], []
    for idx in range(n_paths):
        pr = simulate_price_path(
            kernel, cfg.initial_market, cfg.horizon, path_rng(cfg.seed + 1, idx)
        )
        hold_renew.extend(pr.holding_times())
        pt = simulate_price_path_thinning(
            kernel, cfg.layout, cfg.initial_market, cfg.horizon, path_rng(cfg.seed + 2, idx)
        )
        hold_thin.extend(pt.holding_times())
    ks2 = stats.ks_2samp(hold_renew, hold_thin)
    checks.append(
        _check(
            "renewal_vs_thinning",
            ks2.pvalue > 0.01,
            f"p={ks2.pvalue:.4f} ({len(hold_renew)} vs {len(hold_thin)} holds)",
        )
    )
    return checks


def _validate_solver(cfg: ExperimentConfig) -> tuple[list[dict], object]:
    checks = []
    field = _solve_pi(cfg)
    lattice = field.lattice
    kappa = contraction_bound(
        cfg.kernel, cfg.horizon, np.linspace(0.0, cfg.grid.s_max, cfg.grid.n_s + 1)
    )
    ratios = np.array(field.ratios)
    ok_ratio = bool(np.all(ratios[:-1] <= kappa + 0.01)) if len(ratios) > 1 else True
    budget = math.ceil(math.log(cfg.grid.tol_fp) / math.log(kappa)) + 5
    checks.append(
        _check(
            "contraction",
            ok_ratio and field.iterations <= budget,
            f"max ratio {ratios.max() if len(ratios) else 0:.4f} vs kappa+0.01="
            f"{kappa + 0.01:.4f}; {field.iterations} sweeps vs budget {budget}",
        )
    )
    slice0 = extension_slice(field, 0.0)
    gap0 = field.vnorm(slice0 - field.core)
    checks.append(
        _check("extension_age0", gap0 <= 2.0 * cfg.grid.tol_fp, f"gap {gap0:.2e}")
    )
    if cfg.kernel.is_memoryless:
        a = cfg.kernel.continuation.level
        b = cfg.kernel.reversal.level
        taus = cfg.horizon - field.t_grid
        factors = expected_price_ode_oracle(a, b, cfg.kernel.delta, taus)
        mask = lattice.report_mask
        worst = 0.0
        for ii, i in enumerate(STATES):
            col = 0 if alpha(i) > 0 else 1
            oracle = lattice.prices[None, mask] * factors[:, col][:, None]
            worst = max(
                worst,
                float(np.max(np.abs(field.core[:, mask, ii] - oracle) / oracle)),
            )
        tol = 1e-6 if a == b else 1e-4
        checks.append(
            _check(
                "closed_form",
                worst <= tol,
                f"max rel err {worst:.3e} vs tol {tol:g} (flat-hazard oracle)",
            )
        )
    return checks, field


def _validate_mc(cfg: ExperimentConfig, field, n_scale: int) -> list[dict]:
    checks = []
    n_mc = min(20000, max(4000, n_scale))
    t_probe = float(field.t_grid[len(field.t_grid) // 4])
    pts = [
        (0.0, cfg.initial_market.price, cfg.initial_market.state, cfg.initial_market.age),
        (t_probe, cfg.initial_market.price, 3, 0.0),
        (0.0, float(field.lattice.prices[field.lattice.index_of(1, 0)]), 1, 0.0),
    ]
    worst_z, details, stats = 0.0, [], []
    for k, (t, p, i, s) in enumerate(pts):
        est = mc.estimate_terminal_value(
            cfg.kernel, lambda x: x, None, (t, p, i, s), cfg.horizon, n_mc, cfg.seed + 110 + k
        )
        z = mc.z_score(field.eval(t, p, i, s), est)
        worst_z = max(worst_z, abs(z))
        details.append(f"z={z:+.2f}")
        stats.append({"point": [t, p, i, s], "estimate": est.mean, "se": est.se, "z": z})
    checks.append(
        _check("price_mc", worst_z < 3.0, f"{'; '.join(details)} at {n_mc} paths", stats)
    )
    quote_field = mm.solve_quote_value(cfg.kernel, cfg.layout, cfg.mmspec, field)
    ok_shape = quote_field.core.min() >= -1e-12 and np.abs(quote_field.core[-1]).max() == 0.0
    checks.append(
        _check(
            "quote_value_shape",
            ok_shape,
            f"min {quote_field.core.min():.2e}, terminal max "
            f"{np.abs(quote_field.core[-1]).max():.2e}",
        )
    )
    source = mm.QuoteGainSource(cfg.kernel, cfg.layout, cfg.mmspec, field)
    worst_z, details, stats = 0.0, [], []
    for k, (t, p, i, s) in enumerate(pts[:2]):
        est = mc.estimate_terminal_value(
            cfg.kernel,
            lambda x: 0.0,
            source,
            (t, p, i, s),
            cfg.horizon,
            max(2000, n_scale // 2),
            cfg.seed + 220 + k,
        )
        z = mc.z_score(quote_field.eval(t, p, i, s), est)
        worst_z = max(worst_z, abs(z))
        details.append(f"z={z:+.2f}")
        stats.append({"point": [t, p, i, s], "estimate": est.mean, "se": est.se, "z": z})
    checks.append(_check("quote_value_mc", worst_z < 3.0, "; ".join(details), stats))
    checks.extend(_validate_dynkin(cfg, n_scale))
    checks.extend(_validate_policies(cfg, field, quote_field, n_scale))
    return checks


def _validate_dynkin(cfg: ExperimentConfig, n_scale: int) -> list[dict]:
    checks = []
    n = min(20000, max(4000, n_scale))
    t_check = 0.8 * cfg.horizon
    results = mc.dynkin_battery(
        cfg.kernel,
        mc.battery_uncontrolled(cfg.horizon, cfg.initial_market.price),
        cfg.initial_market,
        t_check,
        n,
        cfg.seed + 30,
    )
    worst_z = max(abs(r.z) for r in results)
    checks.append(
        _check(
            "dynkin_uncontrolled",
            worst_z < 3.0,
            "; ".join(f"{r.name}: z={r.z:+.2f}" for r in results),
            [{"name": r.name, "estimate": r.mean, "se": r.se, "z": r.z} for r in results],
        )
    )
    start = (cfg.initial_market, cfg.initial_agent)
    results = mc.dynkin_battery(
        cfg.kernel,
        mc.battery_controlled(cfg.horizon, cfg.initial_market.price),
        start,
        t_check,
        n,
        cfg.seed + 40,
        layout=cfg.layout,
        control=(1, 1),
        transaction_cost=cfg.mmspec.transaction_cost,
    )
    worst_z = max(abs(r.z) for r in results)
    checks.append(
        _check(
            "dynkin_controlled",
            worst_z < 3.0,
            "; ".join(f"{r.name}: z={r.z:+.2f}" for r in results),
            [{"name": r.name, "estimate": r.mean, "se": r.se, "z": r.z} for r in results],
        )
    )
    tf = mc.battery_controlled(cfg.horizon, cfg.initial_market.price)[0]
    r = mc.dynkin_check(
        cfg.kernel,
        tf,
        start,
        t_check,
        n,
        cfg.seed + 50,
        layout=cfg.layout,
        control=(1, 1),
        transaction_cost=cfg.mmspec.transaction_cost,
        include_small_orders=False,
    )
    checks.append(
        _check(
            "dynkin_ablation",
            abs(r.z) > 3.0,
            f"dropping small-order terms gives z={r.z:+.1f} (must exceed 3)",
            [{"name": r.name, "estimate": r.mean, "se": r.se, "z": r.z}],
        )
    )
    return checks


def _validate_policies(cfg: ExperimentConfig, field, quote_field, n_scale: int) -> list[dict]:
    checks = []
    policies = mm.default_baselines() + [
        mm.optimal_policy(cfg.kernel, cfg.layout, cfg.mmspec, field)
    ]
    report = mm.backtest(
        policies,
        cfg.kernel,
        cfg.layout,
        cfg.mmspec,
        cfg.initial_market,
        cfg.initial_agent,
        cfg.horizon,
        min(6000, max(2000, n_scale)),
        cfg.seed + 60,
    )
    opt = report.row("optimal")
    ok_order, details = True, []
    for row in report.rows:
        if row.policy == "optimal":
            continue
        ok = opt.mean >= row.mean - 2.0 * row.se
        ok_order &= ok
        details.append(f"{row.policy}: {opt.mean - row.mean:+.2e} (2se {2 * row.se:.2e})")
    checks.append(_check("backtest_ordering", ok_order, "; ".join(details)))
    ok_bound = all(row.mean <= report.upper_bound + 1e-9 for row in report.rows)
    checks.append(
        _check(
            "value_bound",
            ok_bound,
            f"all means below bound {report.upper_bound:.4f}",
        )
    )
    value0 = mm.total_value(
        field,
        quote_field,
        0.0,
        cfg.initial_market.price,
        cfg.initial_market.state,
        cfg.initial_market.age,
        cfg.initial_agent.cash,
        cfg.initial_agent.inventory,
    )
    gap = abs(opt.mean - value0)
    checks.append(
        _check(
            "optimal_matches_value",
            gap <= 3.0 * opt.se,
            f"backtest {opt.mean:+.6f} vs solved {value0:+.6f} (3se {3 * opt.se:.1e})",
        )
    )
    return checks


def _cmd_validate(cfg: ExperimentConfig, out: FsPath, quiet: bool) -> int:
    started = time.time()
    checks = []
    checks.extend(_validate_kernel(cfg))
    checks.extend(_validate_distributions(cfg, cfg.n_paths))
    solver_checks, field = _validate_solver(cfg)
    checks.extend(solver_checks)
    checks.extend(_validate_mc(cfg, field, cfg.n_paths))
    report = {
        "meta": cfg.header_meta(),
        "elapsed_s": time.time() - started,
        "checks": checks,
        "passed": all(c["passed"] for c in checks),
    }
    with open(out / "validate_report.json", "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
    if not quiet:
        for c in checks:
            print(f"[{'PASS' if c['passed'] else 'FAIL'}] {c['name']}: {c['detail']}")
        print(f"validate: {'ok' if report['passed'] else 'FAILED'} "
              f"({report['elapsed_s']:.1f}s)")
    return 0 if report["passed"] else 1


def run_command(
    cmd: str,
    cfg: ExperimentConfig,
    out_dir: Optional[str] = None,
    quiet: bool = False,
) -> int:
    """Execute one command against a validated config; returns the exit code."""
    if cmd not in COMMANDS:
        raise ValueError(f"unknown command {cmd!r}; choose from {COMMANDS}")
    out = _out_dir(cfg, out_dir)
    try:
        if cmd == "simulate":
            return _cmd_simulate(cfg, out, quiet)
        if cmd == "solve-pi":
            return _cmd_solve_pi(cfg, out, quiet)
        if cmd == "solve-u":
            return _cmd_solve_u(cfg, out, quiet)
        if cmd == "policy":
            return _cmd_policy(cfg, out, quiet)
        if cmd == "backtest":
            return _cmd_backtest(cfg, out, quiet)
        return _cmd_validate(cfg, out, quiet)
    except mm.UnsupportedRiskAversion as exc:
        print(f"{cmd}: {exc}", file=sys.stderr)
        return 2


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="semitick",
        description="Semi-Markov tick-price simulator, solver, and market-making tools.",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument(
        "--config",
        required=True,
        help="JSON config path or a preset name: " + ", ".join(sorted(PRESETS)),
    )
    parser.add_argument("--seed", type=int, default=None, help="override the master seed")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--paths", type=int, default=None, help="override run.n_paths")
    parser.add_argument("--quiet", action="store_true")
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.seed is not None or args.paths is not None:
            raw = copy.deepcopy(cfg.raw)
            raw.setdefault("run", {})
            if args.seed is not None:
                raw["run"]["seed"] = args.seed
            if args.paths is not None:
                raw["run"]["n_paths"] = args.paths
            cfg = _build_config(raw)
    except ConfigError as exc:
        for msg in exc.errors:
            print(f"config error: {msg}", file=sys.stderr)
        return 2
    return run_command(args.command, cfg, out_dir=args.out, quiet=args.quiet)
