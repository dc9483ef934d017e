#!/usr/bin/env python3
"""Alternated parent/change runs of the benchmark, written as a BENCH_*.json file.

Each run is ``python3 bench/run.py`` inside one checkout (its own copy of
the benchmark and of ``src/``), at the run length ``BENCHMARK.json`` sets.
Pair i runs the base checkout first when i is even and the head checkout
first when i is odd, so a drift in the machine's speed falls on both sides. Example, from the repository root:

    python3 scripts/bench.py --base ../parent --head . --workload full-lev \\
        --workload full-nolev --seed 2019 --pairs 10 --out BENCH_6.json
    python3 scripts/bench.py --base ../parent --head . --workload full-lev \\
        --workload full-nolev --seed 7 --pairs 1 --trace 1 --out BENCH_6.json --append

For every (workload, seed, trace) group the file keeps every run's metrics
and info line, and per metric each side's median and quartiles and the
number of pairs the head side won (ties count for neither side). It also
records the source line count of each side, the processor count and the
Python version.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

# Info-line keys worth keeping per run; the rest is the environment, which
# the file records once.
INFO_KEYS = (
    "report_sha256",
    "pass_wall_s",
    "blp.knapsack.nodes",
    "blp.leverage.nodes",
    "blp.clock_stops",
    "exact_share",
    "failed_share",
    "src_lines",
    "check_problems",
)


def run_once(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One ``bench/run.py`` run in ``checkout``: its result and chosen info."""
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True, check=True,
    )
    *_, info_line, result_line = out.stdout.strip().splitlines()
    if not info_line.startswith("info "):
        raise RuntimeError(f"no info line from {checkout}: {info_line!r}")
    info = json.loads(info_line[len("info "):])
    result = json.loads(result_line)
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
        "info": {key: info[key] for key in INFO_KEYS if key in info},
    }


def spread(values: list[float]) -> dict:
    """Median and quartiles (inclusive method) of one side's runs."""
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(runs: list[dict], better: dict[str, str]) -> dict:
    """Per metric: each side's spread and the head side's pair wins."""
    pairs = sorted({r["pair"] for r in runs})
    side = {(r["pair"], r["side"]): r["metrics"] for r in runs}
    summary = {}
    for name in runs[0]["metrics"]:
        base = [side[p, "base"][name] for p in pairs]
        head = [side[p, "head"][name] for p in pairs]
        sign = -1 if better.get(name, "lower") == "lower" else 1
        summary[name] = {
            "better": better.get(name),
            "base": spread(base),
            "head": spread(head),
            "head_wins": sum(sign * (h - b) > 0 for b, h in zip(base, head)),
            "pairs": len(pairs),
        }
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", type=Path, required=True, help="parent checkout")
    parser.add_argument("--head", type=Path, required=True, help="changed checkout")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seed", type=int, action="append", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--append", action="store_true", help="add groups to --out")
    args = parser.parse_args(argv)

    spec = json.loads((args.head / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    sides = {"base": args.base.resolve(), "head": args.head.resolve()}

    payload = {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
               "groups": []}
    if args.append and args.out.exists():
        payload = json.loads(args.out.read_text(encoding="utf-8"))
    for seed in args.seed:
        for workload in args.workload:
            runs = []
            for pair in range(args.pairs):
                order = ("base", "head") if pair % 2 == 0 else ("head", "base")
                for name in order:
                    run = run_once(sides[name], workload, seed, seconds, args.trace)
                    runs.append({"pair": pair, "side": name, **run})
                    wall = run["metrics"].get("wall_s", run["metrics"].get("trace.wall_s"))
                    print(f"{workload} seed {seed} pair {pair} {name}: {wall:.2f} s",
                          file=sys.stderr)
            payload["groups"].append(
                {
                    "workload": workload,
                    "seed": seed,
                    "trace": args.trace,
                    "seconds": seconds,
                    "src_lines": {
                        name: next(r["info"]["src_lines"] for r in runs if r["side"] == name)
                        for name in sides
                    },
                    "summary": summarize(runs, better),
                    "runs": runs,
                }
            )
            args.out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                                encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
