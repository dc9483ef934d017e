#!/usr/bin/env python3
"""Run the 20-cell (fee rate x batch size) comparison sweep.

At full scale (2500 UTXOs, 250 payments, 10 repetitions of 5 iterations)
this reproduces the complete experimental protocol. It took 118 s on a
2-core machine with Python 3.11, most of it in leverage programs, since the
solver's cardinality-aware row bounds settle every full-scale knapsack
program in at most about 1,500 nodes. --scale desk runs a reduced version
in about 25 s. After the summary the script prints how many knapsack and
leverage solver calls the node cap and the clock stopped, read from each
call's ``limit``, and the SHA-256 of the JSON detail and of the summary it
wrote, so two checkouts' sweeps and tables compare in one line each.
"""

from __future__ import annotations

import argparse
import hashlib
import time
from collections import Counter
from pathlib import Path

from coinlever.io import cell_dict, emit_report, summary_markdown
from coinlever.simulation import ScenarioConfig, default_sweep_configs, sweep

SCALES = {
    "full": dict(utxo_pool_size=2500, payment_pool_size=250, repetitions=10),
    "desk": dict(utxo_pool_size=200, payment_pool_size=40, repetitions=2),
}


def solver_stops(cells) -> tuple[Counter, Counter]:
    """Solver calls per method, and per (method, limit) those a limit stopped."""
    calls: Counter = Counter()
    stops: Counter = Counter()
    for cell in cells:
        for report in (cell.no_leverage, cell.leverage):
            if report is None:
                continue
            for rep in report.repetitions:
                for record in rep.records:
                    for attempt in record.solver_attempts:
                        calls[attempt.method.value] += 1
                        if attempt.limit is not None:
                            stops[attempt.method.value, attempt.limit] += 1
    return calls, stops


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", choices=sorted(SCALES), default="desk")
    parser.add_argument("--seed", type=int, default=2019)
    parser.add_argument("--budget-ms", type=int, default=1000)
    parser.add_argument("--node-budget", type=int, default=50_000)
    parser.add_argument("--out", default="sweep.json")
    parser.add_argument("--summary", default="sweep.md")
    args = parser.parse_args()

    base = ScenarioConfig(
        gamma=22,
        batch_size=2,
        rng_seed=args.seed,
        budget_ms=args.budget_ms,
        node_budget=args.node_budget,
        **SCALES[args.scale],
    )
    configs = default_sweep_configs(base)
    start = time.monotonic()
    cells = sweep(configs)
    elapsed = time.monotonic() - start

    emit_report(cells, "json", args.out)
    emit_report(cells, "md", args.summary)
    print(summary_markdown([cell_dict(c) for c in cells]))
    calls, stops = solver_stops(cells)
    for limit, label in (("nodes", "node-cap"), ("clock", "clock")):
        print(
            f"{label} stops: "
            + ", ".join(
                f"{m} {stops[m, limit]} of {calls[m]} calls" for m in ("knapsack", "leverage")
            )
        )
    print(f"swept {len(cells)} cells in {elapsed:.1f}s; detail in {args.out}")
    for path in (args.out, args.summary):
        print(f"sha256 {hashlib.sha256(Path(path).read_bytes()).hexdigest()}  {path}")


if __name__ == "__main__":
    main()
