"""Record a trajectory point: repeated benchmark runs summarised in one file.

Run from the root of a source checkout:

    python3 perfbench/record.py --label baseline --seeds 1-10

For every workload in BENCHMARK.json it makes one untraced run per seed and
one traced run (first seed), then writes ``perfbench/BENCH_<label>.json``
with, per end-to-end metric, the median, the quartiles and the spread (the
distance between the quartiles as a share of the median), and the traced
run's per-layer metrics.  Compare two labels from the same machine only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run(bench: dict, workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        bench["command"] + ["--workload", workload, "--seed", str(seed),
                            "--seconds", str(bench["run_seconds"]), "--trace", str(trace)],
        capture_output=True, text=True, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    for line in lines:
        for tag in ("env: ", "reconcile: "):
            if line.startswith(tag):
                result[tag[:-2]] = json.loads(line[len(tag):])
    return result


def summarise(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    args = parser.parse_args()
    bench = json.loads(Path("BENCHMARK.json").read_text())
    seeds = seed_list(args.seeds)

    record = {"label": args.label, "seeds": seeds, "run_seconds": bench["run_seconds"],
              "workloads": {}}
    for workload in (w["name"] for w in bench["workloads"]):
        runs = []
        for seed in seeds:
            runs.append(run(bench, workload, seed, 0))
            print(f"{workload} seed {seed}: correct={runs[-1]['correct']} "
                  f"failed={runs[-1]['failed']}/{runs[-1]['attempted']}", flush=True)
        traced = run(bench, workload, seeds[0], 1)
        end_to_end = {}
        for m in bench["end_to_end"]:
            end_to_end[m["name"]] = summarise([r["metrics"][m["name"]]["value"] for r in runs])
            end_to_end[m["name"]]["unit"] = m["unit"]
            end_to_end[m["name"]]["bound"] = m["bound"]
            s = end_to_end[m["name"]]
            print(f"  {m['name']:14s} median {s['median']:.6g} {m['unit']:3s} "
                  f"spread {s['spread']:.4f} (bound {m['bound']})", flush=True)
        record["environment"] = runs[0]["env"]
        record["workloads"][workload] = {
            "correct": all(r["correct"] for r in runs + [traced]),
            "attempted": sum(r["attempted"] for r in runs + [traced]),
            "failed": sum(r["failed"] for r in runs + [traced]),
            "end_to_end": end_to_end,
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
            "reconcile": traced["reconcile"],
        }
    out = HERE / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
