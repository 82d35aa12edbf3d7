"""Benchmark of the semitick CLI: seeded command sessions, timed end to end.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload saturating --seed 1 --seconds 50 --trace 0

One process per run.  It writes the workload's config JSON from a shipped
preset (only ``run.seed`` and ``run.n_paths`` are set), then issues the
workload's CLI commands back to back through ``semitick.harness.main``: a
closed loop with one client.  Whole sessions repeat until ``--seconds`` have
passed; a session is not started if one of average length would overrun.
Every artifact is checked after each command, and artifacts of repeated
sessions (and of earlier runs with the same seed) must hash identically.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` instead runs one
session with spans installed around the library's layers (see ``tracing.py``),
then one session without them, and prints the per-layer metrics.  The last
line of standard output is a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

# BLAS threads are pinned in this process's environment before numpy loads;
# the set-up subprocesses inherit the same settings.
NPROC = len(os.sched_getaffinity(0))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(NPROC)

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# Each session runs the same five commands, so every end-to-end metric exists
# on every workload; the presets decide which layers do the work.
COMMANDS = ("solve-pi", "solve-u", "policy", "simulate", "backtest")
WORKLOADS = {
    "saturating": {"preset": "saturating-hazard", "n_paths": 1000},
    "flat-asymmetric": {"preset": "asymmetric-constant", "n_paths": 3000},
}
SETUP_REPEATS = 3
SETUP_CODE = (
    "import sys, numpy, scipy, semitick.harness as h; "
    "h.load_config(sys.argv[1]); print('ready', flush=True)"
)


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def write_config(workload: str, seed: int, run_dir: Path) -> Path:
    """Seeded input: the preset with run.seed and run.n_paths set."""
    from semitick.harness import preset_config

    spec = WORKLOADS[workload]
    cfg = preset_config(spec["preset"])
    cfg["run"]["seed"] = seed
    cfg["run"]["n_paths"] = spec["n_paths"]
    path = run_dir / "config.json"
    path.write_text(json.dumps(cfg, indent=2, sort_keys=True))
    return path


def measure_setup(config: Path) -> list[float]:
    """Fresh interpreter start to config loaded, including all imports."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-c", SETUP_CODE, str(config)],
            stdout=subprocess.PIPE, env=env, text=True,
        )
        line = proc.stdout.readline()
        elapsed = perf_counter() - start
        proc.stdout.close()
        if proc.wait(timeout=60) != 0 or line.strip() != "ready":
            fail("set-up subprocess did not load the config")
        times.append(elapsed)
    return times


# -- output checks -------------------------------------------------------------


def _finite_json(path: Path) -> bool:
    bad = []
    json.loads(path.read_text(), parse_constant=bad.append)
    return not bad


def _finite_csv(path: Path) -> bool:
    with open(path, "rb") as fh:
        fh.readline()  # metadata header
        body = fh.read()
    return b"nan" not in body and b"inf" not in body


def check_command(command: str, out: Path, names) -> list[str]:
    """Problems with the files one command wrote; empty when they are sound."""
    problems = []
    for path in sorted(out / name for name in names):
        finite = _finite_json(path) if path.suffix == ".json" else _finite_csv(path)
        if not finite:
            problems.append(f"{path.name}: non-finite value")
    if command == "solve-u":
        report = json.loads((out / "quote_value_report.json").read_text())
        if report["min_value"] < -1e-12:
            problems.append(f"quote value minimum {report['min_value']!r} below -1e-12")
    if command == "backtest":
        report = json.loads((out / "backtest.json").read_text())
        for row in report["rows"]:
            if row["mean"] > report["upper_bound"]:
                problems.append(f"backtest {row['policy']} mean above upper_bound")
    return problems


def artifact_hashes(out: Path) -> dict:
    """SHA-256 of every artifact (none of these commands writes a timing field)."""
    hashes = {}
    for path in sorted(out.iterdir()):
        digest = hashlib.sha256()
        with open(path, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                digest.update(block)
        hashes[path.name] = digest.hexdigest()
    return hashes


# -- sessions ---------------------------------------------------------------------


class Tally:
    def __init__(self):
        self.times = {c: [] for c in COMMANDS}
        self.walls: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.hashes = None
        self.identical = True


def run_session(config: Path, out: Path, tally: Tally, tracer=None) -> float:
    from semitick.harness import main

    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    argv_tail = ["--config", str(config), "--out", str(out), "--quiet"]
    wall = 0.0
    produced = set()
    for command in COMMANDS:
        tally.attempted += 1
        start = perf_counter()
        try:
            if tracer is None:
                code = main([command] + argv_tail)
            else:
                code = tracer.command(command, main, [command] + argv_tail)
        except Exception as exc:  # a raised command counts as failed, the run goes on
            code = f"{type(exc).__name__}: {exc}"
        elapsed = perf_counter() - start
        wall += elapsed
        tally.times[command].append(elapsed)
        new = {p.name for p in out.iterdir()} - produced
        produced |= new
        if code != 0:
            problems = [f"exit {code}"]
        else:
            try:
                problems = check_command(command, out, new)
            except (OSError, KeyError, ValueError) as exc:  # missing or malformed report
                problems = [f"{type(exc).__name__}: {exc}"]
        if problems:
            tally.failed += 1
            print(f"FAILED {command}: {'; '.join(problems)}", file=sys.stderr)
    hashes = artifact_hashes(out)
    if tally.hashes is None:
        tally.hashes = hashes
    elif hashes != tally.hashes:
        tally.identical = False
        print("artifacts differ between sessions of one seed", file=sys.stderr)
    shutil.rmtree(out)
    tally.walls.append(wall)
    return wall


def check_ledger(workload: str, seed: int, hashes: dict) -> bool:
    """Artifacts of an earlier run with the same workload and seed must match."""
    ledger_path = OUT / "ledger.json"
    ledger = json.loads(ledger_path.read_text()) if ledger_path.exists() else {}
    key = f"{workload}/{seed}"
    if key in ledger:
        return ledger[key] == hashes
    ledger[key] = hashes
    ledger_path.write_text(json.dumps(ledger, indent=1, sort_keys=True))
    return True


# -- environment ------------------------------------------------------------------


def environment() -> dict:
    import numpy
    import scipy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10,
        ).stdout.strip() or None
    except OSError:
        commit = None
    src_lines = sum(
        len(p.read_text().splitlines()) for p in sorted((SRC / "semitick").rglob("*.py"))
    )
    return {
        "nproc": NPROC,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": commit,
        "src_lines": src_lines,
    }


# -- main -------------------------------------------------------------------------


def metric(value, unit, samples=None):
    return {"value": value, "unit": unit, "samples": samples}


def untraced_metrics(config, run_dir, seconds, setup, tally):
    start = perf_counter()
    while not tally.walls or perf_counter() - start + statistics.mean(tally.walls) <= seconds:
        run_session(config, run_dir / f"session{len(tally.walls)}", tally)
    median = statistics.median
    out = {
        "setup_s": metric(median(setup), "s", len(setup)),
        "wall_s": metric(median(tally.walls), "s", len(tally.walls)),
        "peak_rss_mb": metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1
        ),
    }
    for command in COMMANDS:
        times = tally.times[command]
        out[command.replace("-", "_") + "_s"] = metric(median(times), "s", len(times))
    return out


def traced_metrics(workload, seed, config, run_dir, tally):
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        traced_wall = run_session(config, run_dir / "traced", tally, tracer)
    finally:
        tracer.uninstall()
    plain_wall = run_session(config, run_dir / "untraced", tally)
    tracer.write(OUT / f"trace-{workload}-{seed}.jsonl")

    rows = tracer.per_name()
    counts = tracer.counts
    backtest_s = rows["market_maker.backtest"]["s"]
    candidates = counts["hazards.classify.calls"]
    reconcile = {
        "lattice_nodes": tracer.lattice_nodes,
        "sweeps_per_solve": tracer.sweeps,
        "extension_slices_per_quote_solve": tracer.slices_per_quote_solve(),
        "command_s": {name[4:]: row["s"] for name, row in rows.items()
                      if name.startswith("cmd.")},
    }
    print("reconcile: " + json.dumps(reconcile, sort_keys=True))
    return {
        "solver.sweeps": metric(counts["solver.sweeps"], "count"),
        "solver.solve_fixed_point.s": metric(rows["solver.solve_fixed_point"]["s"], "s"),
        "solver.extension_slice.calls": metric(rows["solver.extension_slice"]["calls"], "count"),
        "solver.extension_slice.s": metric(rows["solver.extension_slice"]["s"], "s"),
        "solver.pde_residual.s": metric(rows["solver.pde_residual"]["s"], "s"),
        "solver.save_field_csv.s": metric(rows["solver.save_field_csv"]["s"], "s"),
        "solver.save_field_csv.bytes": metric(counts["solver.save_field_csv.bytes"], "bytes"),
        "lattice.nodes": metric(tracer.lattice_nodes, "count"),
        "market_maker.slab.calls": metric(rows["market_maker.slab"]["calls"], "count"),
        "market_maker.slab.self_s": metric(rows["market_maker.slab"]["self_s"], "s"),
        "market_maker.quote_rss_growth_mb": metric(tracer.rss_growth_mb, "MB"),
        "market_maker.rate_point.calls": metric(rows["market_maker.rate_point"]["calls"], "count"),
        "market_maker.rate_point.s": metric(rows["market_maker.rate_point"]["s"], "s"),
        "market_maker.rate_point.beyond_band": metric(
            counts["market_maker.rate_point.beyond_band"], "count"
        ),
        "market_maker.policy.calls": metric(counts["market_maker.policy.calls"], "count"),
        "market_maker.backtest.paths_per_s": metric(
            counts["market_maker.backtest.paths"] / backtest_s if backtest_s else 0.0, "1/s"
        ),
        "market_maker.export_policy_csv.s": metric(
            rows["market_maker.export_policy_csv"]["s"], "s"
        ),
        "simulate.sample_holding.calls": metric(rows["simulate.sample_holding"]["calls"], "count"),
        "simulate.sample_holding.s": metric(rows["simulate.sample_holding"]["s"], "s"),
        "simulate.thinning.accept_ratio": metric(
            counts["hazards.classify.calls.accepted"] / candidates if candidates else 0.0,
            "ratio",
        ),
        "hazards.integrated_intensity.calls": metric(
            counts["hazards.integrated_intensity.calls"], "count"
        ),
        "hazards.classify.calls": metric(candidates, "count"),
        "trace.overhead_frac": metric(traced_wall / plain_wall - 1.0, "ratio"),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "semitick" / "harness.py").is_file():
        fail(f"no semitick sources under {SRC}; run from the root of a source checkout")
    sys.path.insert(0, str(SRC))

    run_dir = OUT / f"{args.workload}-{args.seed}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    env = environment()
    print("env: " + json.dumps(env, sort_keys=True))
    config = write_config(args.workload, args.seed, run_dir)

    tally = Tally()
    if args.trace:
        metrics = traced_metrics(args.workload, args.seed, config, run_dir, tally)
    else:
        setup = measure_setup(config)
        metrics = untraced_metrics(config, run_dir, args.seconds, setup, tally)
    identical = tally.identical
    if not check_ledger(args.workload, args.seed, tally.hashes):
        identical = False
        print("artifacts differ from an earlier run with this seed", file=sys.stderr)
    shutil.rmtree(run_dir)

    for name, m in metrics.items():
        n = "" if m["samples"] is None else f"  (n={m['samples']})"
        print(f"{name:40s} {m['value']!r:>24} {m['unit']}{n}")
    print(f"{'failed_frac':40s} {tally.failed / tally.attempted!r:>24} "
          f"({tally.failed} of {tally.attempted} commands)")
    result = {
        "correct": tally.failed == 0 and identical,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": m["value"], "unit": m["unit"]} for k, m in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
