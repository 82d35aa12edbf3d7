"""Configuration ingestion, experiment orchestration, and result emission.

Configs are JSON.  Three presets parameterise the oracle suite:
``symmetric-martingale`` (flat equal hazards, so the price is a martingale),
``asymmetric-constant`` (flat unequal hazards with a matrix-exponential
closed form), and ``saturating-hazard`` (age-dependent intensities).

Commands: simulate, solve-pi, solve-u, policy, backtest, validate.  Exit
codes: 0 ok, 1 validation failure, 2 configuration error, a solve that fails
(no convergence, non-finite values), a simulated price that overflows or a
value bound past the float range.
Every artifact embeds the config hash and master seed in a leading comment
line.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import itertools
import json
import math
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path as FsPath
from typing import Optional

import numpy as np

from . import checks
from . import market_maker as mm
from .hazards import ConstantIntensity, MarkLayout, SaturatingIntensity, SemiMarkovKernel
from .lattice import max_jumps_for_tail
from .simulate import AgentState, MarketState, renewal_blocks
from .solver import (
    GridSpec,
    SolverError,
    extension_slice,
    pde_residual,
    save_field_csv,
    solve_expected_price,
)

# unused here, but the benchmark tracer (perfbench/tracing.py) patches it on this module
from .simulate import sample_holding  # noqa: F401

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
        "grid": {"n_t": 200},
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
        "grid": {"n_t": 200},
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
        "grid": {"n_t": 120},
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


# the keys each config object may hold; an intensity object holds "family"
# and the parameters of its family (_FAMILIES)
_KEYS = {
    "config": ("kernel", "layout", "agent", "horizon", "initial", "grid", "run"),
    "kernel": ("continuation", "reversal", "delta"),
    "layout": ("ask_flow", "bid_flow", "ask_sizes", "bid_sizes"),
    "agent": ("big_size", "transaction_cost", "risk_aversion", "portfolio_consistent"),
    "initial": ("price", "state", "age", "cash", "inventory"),
    "grid": ("n_t", "n_max", "tol_fp", "tail_tol", "max_iter"),
    "run": ("n_paths", "seed", "out_dir"),
}


def _refuse_unknown(sec: dict, where: str, keys, errors: list) -> None:
    prefix = "" if where == "config" else where + "."
    errors.extend(f"{prefix}{key}: unknown key" for key in sec if key not in keys)


def _section(parent: dict, where: str, errors: list) -> dict:
    sec = parent.get(where.rsplit(".", 1)[-1], {})
    if not isinstance(sec, dict):
        errors.append(f"{where}: expected an object, got {sec!r}")
        return {}
    if where in _KEYS:
        _refuse_unknown(sec, where, _KEYS[where], errors)
    return sec


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
    _refuse_unknown(section, where, ("family",) + names, errors)
    return _make(where, errors, cls, *[_number(section, f"{where}.{n}", errors) for n in names])


def _build_config(data) -> ExperimentConfig:
    if not isinstance(data, dict):
        raise ConfigError([f"config: expected a JSON object, got {type(data).__name__}"])
    errors: list[str] = []
    _refuse_unknown(data, "config", _KEYS["config"], errors)
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
    # n_max is the one grid key whose absence means "from tail_tol"
    optional = {}
    if gsec.get("n_max") is not None:
        optional["n_max"] = _number(gsec, "grid.n_max", errors, integer=True)
    grid = _make(
        "grid", errors, GridSpec,
        n_t=_number(gsec, "grid.n_t", errors, 200, integer=True),
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
        text = p.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError([f"{name}: cannot read ({exc})"]) from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError([f"{name}: invalid JSON ({exc})"]) from exc
    return _build_config(data)


# -- commands ---------------------------------------------------------------


# one renewal path's block of paths_summary.json as json.dumps(indent=2,
# sort_keys=True) lays it out; its events are its big jumps, and the values
# are Python ints and floats, whose repr is what json writes for them.  The
# fields, in order: horizon, jump count (twice), master seed, path index,
# terminal age, price and state
_SUMMARY_BLOCK = """\
    {
      "horizon": %r,
      "method": "renewal",
      "n_big_jumps": %r,
      "n_events": %r,
      "n_small_orders": 0,
      "seed": [
        %r,
        %r
      ],
      "terminal_age": %r,
      "terminal_price": %r,
      "terminal_state": %r
    }"""


def _cmd_simulate(cfg: ExperimentConfig, out: FsPath, quiet: bool) -> int:
    meta = cfg.header_meta()
    rows_path = out / "paths.csv"
    m = cfg.initial_market
    start = (0.0, m.price, m.state, m.age)
    head = json.dumps(meta, indent=2, sort_keys=True).replace("\n", "\n  ")
    with open(rows_path, "w") as fh, open(out / "paths_summary.json", "w") as summary:
        summary.write(f'{{\n  "meta": {head},\n  "paths": [\n')
        fh.write("# " + json.dumps(meta, sort_keys=True) + "\n")
        fh.write(
            "path,time,kind,target_or_side,units,price_before,price_after,age_before\n"
        )
        blocks = renewal_blocks(cfg.kernel, start, cfg.horizon, cfg.n_paths, cfg.seed)
        for lo, path, last, (_, t1, p, i, _, s1, j) in blocks:
            # a jump into j at t1; the path's next segment starts at the price it moved to
            jump = np.flatnonzero(~last)
            fh.write("".join(
                f"{idx},{t!r},big,{target},0,{before!r},{after!r},{age!r}\n"
                for idx, t, target, before, after, age in zip(
                    (lo + path[jump]).tolist(), t1[jump].tolist(), j[jump].tolist(),
                    p[jump].tolist(), p[jump + 1].tolist(), s1[jump].tolist(),
                )
            ))
            # the stream of path idx is path_rng(master seed, idx)'s,
            # computed in arrays by renewal_blocks
            ends = zip(
                range(lo, lo + int(path[-1]) + 1), (np.bincount(path) - 1).tolist(),
                s1[last].tolist(), p[last].tolist(), i[last].tolist(),
            )
            summary.write("".join(
                (",\n" if idx else "")
                + _SUMMARY_BLOCK % (cfg.horizon, n_jumps, n_jumps, cfg.seed, idx, age, price, state)
                for idx, n_jumps, age, price, state in ends
            ))
        summary.write("\n  ]\n}")
    if not quiet:
        print(f"simulate: wrote {cfg.n_paths} paths to {rows_path}")
    return 0


def _solve_pi(cfg: ExperimentConfig):
    return solve_expected_price(cfg.kernel, cfg.grid, cfg.horizon, cfg.initial_market.price)


def _residual_slices(field, n_ages: int):
    """The field's slices at the ages ``0, h, ..., (n_ages - 1)h``, each made
    when it is consumed.  An age-invariant field has the same slice, bit for
    bit, at every age, so its one slice at age zero serves them all."""
    if field.age_invariant:
        yield from itertools.repeat(extension_slice(field, 0.0), n_ages)
        return
    h = field.t_grid[1] - field.t_grid[0]
    for s in h * np.arange(n_ages):
        yield extension_slice(field, s)


def _cmd_solve_pi(cfg: ExperimentConfig, out: FsPath, quiet: bool) -> int:
    field = _solve_pi(cfg)
    save_field_csv(field, out / "expected_price.csv", cfg.header_meta())
    # the residual differences along the (t, s) diagonal, on the ages 0, h, ..., 6h;
    # it consumes their slices one at a time, so the age stack is never built
    res = pde_residual(field, _residual_slices(field, 7), 7)
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
    cfg.mmspec.require_risk_neutral("solve-u")
    field = _solve_pi(cfg)
    quote_field = mm.solve_quote_value(cfg.kernel, cfg.layout, cfg.mmspec, field, cfg.grid)
    save_field_csv(quote_field, out / "quote_value.csv", cfg.header_meta())
    report = {
        "meta": cfg.header_meta(),
        "iterations": quote_field.iterations,
        "final_diff": quote_field.diff_norms[-1],
        "min_value": float(quote_field.core.min()),
        "terminal_max_abs": float(np.abs(quote_field.core[:, -1]).max()),
    }
    with open(out / "quote_value_report.json", "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
    if not quiet:
        print(f"solve-u: {quote_field.iterations} sweeps, min {report['min_value']:.3e}")
    return 0


def _cmd_policy(cfg: ExperimentConfig, out: FsPath, quiet: bool) -> int:
    cfg.mmspec.require_risk_neutral("policy")
    field = _solve_pi(cfg)
    # ages reachable before the horizon
    s_vals = np.linspace(0.0, cfg.initial_market.age + cfg.horizon, 5)
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
    report = mm.backtest_against_baselines(
        cfg.kernel, cfg.layout, cfg.mmspec, _solve_pi(cfg), cfg.initial_market,
        cfg.initial_agent, cfg.horizon, cfg.n_paths, cfg.seed,
    )
    for row in report.rows:
        for key in ("mean", "se"):
            if not math.isfinite(getattr(row, key)):
                print(f"backtest: policy {row.policy!r} has a non-finite {key} "
                      f"({getattr(row, key)!r}); nothing written", file=sys.stderr)
                return 2
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


def _validation(cfg: ExperimentConfig):
    """Yield the checks of ``semitick validate`` in report order.  Sample sizes
    scale with ``run.n_paths``; every stream is seeded from ``run.seed``."""
    n, seed, horizon = cfg.n_paths, cfg.seed, cfg.horizon
    kernel, layout, mmspec = cfg.kernel, cfg.layout, cfg.mmspec
    market, agent = cfg.initial_market, cfg.initial_agent
    ages = np.linspace(0.0, horizon + market.age + 1.0, 200)
    yield checks.kernel_identity(kernel, ages)
    yield checks.transition_sum(kernel, ages)
    yield checks.cdf_shape(kernel, np.linspace(0.0, horizon + market.age, 200))
    yield checks.mark_partition(layout, np.linspace(0.0, horizon, 7))
    rng = np.random.default_rng(seed)
    yield checks.holding_ks(kernel, rng, min(10000, max(2000, n)))
    yield checks.transition_freq(kernel, rng, max(20000, 2 * n))
    yield checks.renewal_vs_thinning(
        kernel, layout, market, horizon, min(4000, max(1000, n // 2)), seed + 1
    )
    field = _solve_pi(cfg)
    yield checks.contraction(field, kernel, horizon, cfg.grid.tol_fp, market.age + horizon)
    yield checks.extension_age0(field, 2.0 * cfg.grid.tol_fp)
    if kernel.is_memoryless:
        flat_tol = 1e-6 if kernel.continuation.level == kernel.reversal.level else 1e-4
        yield checks.closed_form(field, kernel, flat_tol)
    n_mc = min(20000, max(4000, n))
    lattice = field.lattice
    points = [
        (0.0, market.price, market.state, market.age),
        (float(field.t_grid[len(field.t_grid) // 4]), market.price, 3, 0.0),
        (0.0, float(lattice.prices[lattice.index_of(1, 0)]), 1, 0.0),
    ]
    yield checks.price_mc(kernel, field, points, horizon, n_mc, seed + 110)
    quote = mm.solve_quote_value(kernel, layout, mmspec, field, cfg.grid)
    yield checks.quote_value_shape(quote)
    yield checks.quote_value_mc(
        kernel, layout, mmspec, field, quote, points[:2], horizon, max(2000, n // 2), seed + 220
    )
    yield checks.dynkin_uncontrolled(kernel, market, horizon, n_mc, seed + 30)
    yield checks.dynkin_controlled(kernel, layout, mmspec, market, agent, horizon, n_mc, seed + 40)
    yield checks.dynkin_ablation(kernel, layout, mmspec, market, agent, horizon, n_mc, seed + 50)
    report = mm.backtest_against_baselines(
        kernel, layout, mmspec, field, market, agent, horizon, min(6000, max(2000, n)), seed + 60
    )
    yield checks.backtest_ordering(report)
    yield checks.value_bound(report)
    solved = mm.total_value(
        field, quote, 0.0, market.price, market.state, market.age, agent.cash, agent.inventory
    )
    yield checks.optimal_matches_value(report, solved)


def _cmd_validate(cfg: ExperimentConfig, out: FsPath, quiet: bool) -> int:
    # each check's elapsed_s runs from the end of the check before it, so a
    # solve or backtest that several checks share is charged to the first one
    started = tick = time.perf_counter()
    records = []
    for check in _validation(cfg):
        now = time.perf_counter()
        records.append({**check.record(), "elapsed_s": now - tick})
        tick = now
    report = {
        "meta": cfg.header_meta(),
        "elapsed_s": time.perf_counter() - started,
        "checks": records,
        "passed": all(c["passed"] for c in records),
    }
    with open(out / "validate_report.json", "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
    if not quiet:
        for c in records:
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
    out = FsPath(out_dir if out_dir is not None else cfg.out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"{cmd}: cannot use output directory {str(out)!r} ({exc})", file=sys.stderr)
        return 2
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
    except (mm.UnsupportedRiskAversion, SolverError, OverflowError) as exc:
        print(f"{cmd}: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # numpy raises a MemoryError subclass when an array cannot be allocated
        print(
            f"{cmd}: out of memory at grid.n_t = {cfg.grid.n_t} and run.n_paths = "
            f"{cfg.n_paths} ({exc}); reduce them",
            file=sys.stderr,
        )
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
