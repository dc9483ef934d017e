#!/usr/bin/env python3
"""Run the 20-cell (fee rate x batch size) comparison sweep.

At full scale (2500 UTXOs, 250 payments, 10 repetitions of 5 iterations)
this reproduces the complete experimental protocol. With --budget-ms 60000
it took about 3-4 s on a 2-core machine with Python 3.11.7: each knapsack
program covers only the few UTXOs that can fund the batch, and a leverage
program never spans the pool, only the extras and the first inputs that
can fund the batch.
--scale desk runs a reduced version in about 1 s. After the
summary the script prints how many knapsack and leverage solver calls the
node cap and the clock stopped, read from each call's ``limit``, and the
SHA-256 of the JSON detail and of the summary it wrote, so two checkouts'
sweeps and tables compare in one line each.

``--record DIR`` also writes a committed record of the sweep to DIR: its
settings and the JSON detail's SHA-256 (``record.json``), and the markdown
and CSV summaries (``summary.md``, ``summary.csv``). ``--check DIR`` reruns
the sweep with the settings of the record in DIR, one cell at a time, and
exits 1 at the first cell whose summary rows differ, or at the end if the
summaries or the JSON detail do; it writes nothing. The full protocol's
record is ``results/full``:

    python scripts/run_sweep.py --check results/full
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from collections import Counter
from pathlib import Path

from coinlever.io import cell_dict, dumps, emit_report, summary_csv, summary_markdown
from coinlever.simulation import ScenarioConfig, default_sweep_configs, sweep

SCALES = {
    "full": dict(utxo_pool_size=2500, payment_pool_size=250, repetitions=10),
    "desk": dict(utxo_pool_size=200, payment_pool_size=40, repetitions=2),
}
SETTINGS = ("scale", "seed", "budget_ms", "node_budget")


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


def sweep_configs(args: argparse.Namespace) -> tuple[ScenarioConfig, ...]:
    base = ScenarioConfig(
        gamma=22,
        batch_size=2,
        rng_seed=args.seed,
        budget_ms=args.budget_ms,
        node_budget=args.node_budget,
        **SCALES[args.scale],
    )
    return default_sweep_configs(base)


def check(record_dir: Path) -> int:
    """Rerun the recorded sweep; 0 when every output matches the record."""
    record = json.loads((record_dir / "record.json").read_text(encoding="utf-8"))
    args = argparse.Namespace(**{name: record[name] for name in SETTINGS})
    expected_csv = (record_dir / "summary.csv").read_text(encoding="utf-8")
    expected_rows = expected_csv.splitlines()[1:]
    cells = []
    for config in sweep_configs(args):
        (cell,) = sweep([config])
        cells.append(cell)
        rows = summary_csv([cell_dict(cell)]).splitlines()[1:]
        key = f"{config.gamma},{config.batch_size},"
        recorded = [row for row in expected_rows if row.startswith(key)]
        if rows != recorded:
            print(f"cell gamma={config.gamma} M={config.batch_size} differs from {record_dir}")
            for label, lines in (("recorded", recorded), ("now", rows)):
                print(f"  {label}:", *lines, sep="\n    ")
            return 1
        print(f"cell gamma={config.gamma} M={config.batch_size} matches", flush=True)
    dicts = [cell_dict(c) for c in cells]
    detail = hashlib.sha256(dumps({"cells": dicts}).encode()).hexdigest()
    expected_md = (record_dir / "summary.md").read_text(encoding="utf-8")
    for name, same in (
        ("summary.csv", summary_csv(dicts) == expected_csv),
        ("summary.md", summary_markdown(dicts) == expected_md),
        ("JSON detail", detail == record["detail_sha256"]),
    ):
        if not same:
            print(f"{name} differs from {record_dir}")
            return 1
    print(f"all outputs match {record_dir}")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", choices=sorted(SCALES), default="desk")
    parser.add_argument("--seed", type=int, default=2019)
    parser.add_argument("--budget-ms", type=int, default=1000)
    parser.add_argument("--node-budget", type=int, default=50_000)
    parser.add_argument("--out", default="sweep.json")
    parser.add_argument("--summary", default="sweep.md")
    parser.add_argument("--record", type=Path, help="also write a sweep record here")
    parser.add_argument("--check", type=Path, help="rerun and compare with this record")
    args = parser.parse_args()
    if args.check:
        return check(args.check)

    start = time.monotonic()
    cells = sweep(sweep_configs(args))
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
    if args.record:
        args.record.mkdir(parents=True, exist_ok=True)
        emit_report(cells, "md", args.record / "summary.md")
        emit_report(cells, "csv", args.record / "summary.csv")
        record = {name: getattr(args, name) for name in SETTINGS}
        record["detail_sha256"] = hashlib.sha256(Path(args.out).read_bytes()).hexdigest()
        (args.record / "record.json").write_text(dumps(record), encoding="utf-8")
        print(f"recorded the sweep in {args.record}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
