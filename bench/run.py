#!/usr/bin/env python3
"""coinlever benchmark: end-to-end and per-layer metrics for one workload.

Run from the repository root:

    python3 bench/run.py --workload full-nolev --seed 2019 --seconds 60 --trace 0

It imports ``coinlever`` from ``src/`` next to this directory, runs whole
passes of the workload (at least one, more while they fit in
``--seconds``), measures set-up in fresh interpreters between steps,
checks every step's output and prints, as its last line, one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` traces the
passes and prints the per-layer metrics instead. Metric names and units come from
``BENCHMARK.json``. The line before the result (``info ...``) records the
environment, the report hashes and the node counts. Everything runs in one
process on one thread, apart from the short set-up probes. See
bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter, defaultdict
from fractions import Fraction
from pathlib import Path

from checks import check_step, record_cost

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
# Set-up probes per run, spread over its passes: the machine's speed
# changes from second to second, and their median should not hang on one
# moment of it.
SETUP_PROBES = 16

# Set-up as a user pays it: a fresh interpreter imports the package and
# builds the bundled datasets. Interpreter start-up itself is not counted.
SETUP_PROBE = """
import sys, time
sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
import coinlever
from coinlever.datasets import bundled_payment_dataset, bundled_utxo_dataset
imported = time.perf_counter()
bundled_utxo_dataset()
bundled_payment_dataset()
end = time.perf_counter()
print(end - start, end - imported, coinlever.__file__)
"""

# Self time of each span name goes to exactly one layer metric. The root
# "workload" span is left out, so the layer times of a traced pass add up
# to its wall time only as far as the hooks cover it.
SELF_METRIC = {
    "simulation": "simulation.self_s",
    "simulation.sample": "simulation.sample_s",
    "orchestrator.step": "orchestrator.step_self_s",
    "orchestrator.apply_update": "orchestrator.apply_update_s",
    "selection.attempt": "selection.self_s",
    "selection.fallback": "selection.fallback_s",
    "blp.build": "blp.build_s",
    "model.opt": "model.opt_s",
    "io.report": "io.report_s",
}
KINDS = ("knapsack", "leverage")
EXACT = ("optimal", "infeasible")
TRUNCATED = ("timed-out", "feasible-incumbent")

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=2019)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true", help="200-UTXO pools and two cells, for tests"
    )
    return parser.parse_args(argv)


class SetupProbes:
    """Set-up measured in fresh interpreters, at most once per ``interval`` s.

    Called between steps, so the probes spread over the run; ``top_up``
    takes the rest at the end. Each sample is (set-up, dataset build).
    """

    def __init__(self, interval: float):
        self.interval = interval
        self.samples: list[tuple[float, float]] = []
        self.last = -float("inf")

    def __call__(self) -> None:
        if time.perf_counter() - self.last >= self.interval:
            self.take()

    def take(self) -> None:
        out = subprocess.run(
            [sys.executable, "-I", "-c", SETUP_PROBE, str(SRC)],
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        ).stdout.split()
        if not Path(out[2]).resolve().is_relative_to(SRC):
            raise RuntimeError(f"set-up imported coinlever from {out[2]}")
        self.samples.append((float(out[0]), float(out[1])))
        self.last = time.perf_counter()

    def top_up(self, count: int) -> None:
        while len(self.samples) < count:
            self.take()


def stopped_by(attempt, node_cap: int) -> str | None:
    """``"nodes"`` or ``"clock"`` for a truncated solver call, else None."""
    if attempt.status.value not in TRUNCATED:
        return None
    return "nodes" if attempt.nodes >= node_cap else "clock"


def judge(steps) -> tuple[int, list[str]]:
    """Failed-step count and check problems for one pass's steps."""
    from coinlever import NoGoodPrefix

    failed, problems = 0, []
    for index, call in enumerate(steps):
        if call.error is not None:
            failed += 1
            if not isinstance(call.error, NoGoodPrefix):
                problems.append(f"step {index} raised {call.error!r}")
            continue
        problems += [f"step {index}: {p}" for p in call.problems]
        cap = call.kwargs["max_nodes"]
        clock = any(stopped_by(a, cap) == "clock" for a in call.record.solver_attempts)
        failed += bool(call.problems or clock)
    return failed, problems


def record_metrics(steps, result) -> dict:
    """Counts and costs read from the step records of one pass."""
    m: dict = {}
    attempts = [
        (a, call.kwargs["max_nodes"])
        for call in steps
        if call.record is not None
        for a in call.record.solver_attempts
    ]
    for kind in KINDS:
        mine = [(a, cap) for a, cap in attempts if a.method.value == kind]
        m[f"blp.{kind}.calls"] = len(mine)
        m[f"blp.{kind}.nodes"] = sum(a.nodes for a, _ in mine)
        m[f"blp.{kind}.exact_share"] = (
            sum(a.status.value in EXACT for a, _ in mine) / len(mine) if mine else 0.0
        )
        m[f"blp.{kind}.node_cap_stops"] = sum(stopped_by(a, c) == "nodes" for a, c in mine)
    m["blp.clock_stops"] = sum(stopped_by(a, c) == "clock" for a, c in attempts)
    m["exact_share"] = (
        sum(a.status.value in EXACT for a, _ in attempts) / len(attempts)
        if attempts
        else 0.0
    )
    methods = Counter(call.record.method.value for call in steps if call.record)
    for method in ("knapsack", "leverage", "fallback"):
        m[f"selection.{method}_wins"] = methods[method]
    m["orchestrator.steps"] = len(steps)
    m["simulation.repetitions_failed"] = sum(r.failed_count for r in result.reports)
    m["io.report_bytes"] = len(result.text.encode())

    cost: dict = defaultdict(int)
    paid: dict = defaultdict(int)
    for call in steps:
        if call.record is not None:
            mode = "nolev" if call.kwargs.get("lev") is None else "lev"
            cost[mode] += record_cost(call.record, call.args[1].gamma)
            paid[mode] += sum(len(tx.payments) for tx in call.record.transactions)
    per_payment = {mode: float(Fraction(cost[mode], paid[mode])) for mode in paid}
    # A workload that runs one mode reports that mode's cost under both
    # names (see README.md), so every end-to-end metric is always defined.
    # ``cost_mode`` says which mode each figure came from.
    m["cost_mode"] = {}
    for mode, other in (("nolev", "lev"), ("lev", "nolev")):
        source = mode if mode in per_payment else other
        if source in per_payment:
            m[f"{mode}_cost_per_payment_sat"] = per_payment[source]
            m["cost_mode"][f"{mode}_cost_per_payment_sat"] = source
    return m


def span_metrics(spans, steps, paused_s: float) -> dict:
    """Per-layer self times of one traced pass, checks and probes left out."""
    child_time = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    m = dict.fromkeys(SELF_METRIC.values(), 0.0)
    m.update({f"blp.{kind}.solve_s": 0.0 for kind in KINDS})
    solves = defaultdict(list)
    opt_calls = 0
    for (name, start, end, _, step), children in zip(spans, child_time):
        own = end - start - children
        if name == "blp.solve":
            solves[step].append(own)
        elif name != "workload":
            m[SELF_METRIC[name]] += own
        opt_calls += name == "model.opt"
    # The i-th solve inside a step produced the i-th attempt of its record.
    for step, times in solves.items():
        record = steps[step].record
        kinds = [a.method.value for a in record.solver_attempts] if record else []
        for kind, seconds in zip(kinds, times):
            m[f"blp.{kind}.solve_s"] += seconds
    # Checks and probes run between steps, inside "simulation" spans only.
    m["simulation.self_s"] -= paused_s
    m["model.opt_calls"] = opt_calls
    m["trace.spans"] = len(spans)
    return m


def src_lines() -> int:
    return sum(
        len(p.read_text(encoding="utf-8").splitlines())
        for p in sorted((SRC / "coinlever").rglob("*.py"))
    )


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "coinlever" / "__init__.py").is_file():
        print(f"coinlever sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    started = time.perf_counter()
    probes = SetupProbes(args.seconds / SETUP_PROBES)

    import coinlever
    import workloads
    from hooks import Recorder, span_cost

    if not Path(coinlever.__file__).resolve().is_relative_to(SRC):
        print(f"imported coinlever from {coinlever.__file__}", file=sys.stderr)
        return 2
    from coinlever.datasets import bundled_payment_dataset, bundled_utxo_dataset

    bundled_utxo_dataset()
    bundled_payment_dataset()
    workload = workloads.make(args.workload, args.seed, args.smoke)

    traced = args.trace == 1
    passes = []  # one summary per pass; no world state outlives its pass
    while True:
        recorder = Recorder(traced, check_step, probes)
        pass_start = time.perf_counter()
        with recorder.installed(), recorder.span("workload"):
            result = workloads.run_pass(workload, recorder)
        pass_s = time.perf_counter() - pass_start
        wall = pass_s - recorder.paused_s
        failed, problems = judge(recorder.steps)
        # Failures no step saw: lost samples and errors raised between steps.
        outside = sum(
            1
            for report in result.reports
            for rep in report.repetitions
            if rep.failure and rep.failure.startswith("sampling")
        )
        for exc in result.errors:
            problems.append("".join(traceback.format_exception(exc)).strip())
            outside += not any(exc is call.error for call in recorder.steps)
        passes.append(
            {
                "wall": wall,
                "samples": [call.seconds * 1000 for call in recorder.steps],
                "failed": failed + outside,
                "attempted": len(recorder.steps) + outside,
                "problems": problems,
                "hash": hashlib.sha256(result.text.encode()).hexdigest(),
                "counts": record_metrics(recorder.steps, result),
                "layers": (
                    span_metrics(recorder.spans, recorder.steps, recorder.paused_s)
                    if traced
                    else None
                ),
                "spans": recorder.spans,
            }
        )
        del recorder, result
        if time.perf_counter() - started + pass_s > args.seconds:
            break
    probes.top_up(SETUP_PROBES)
    setup_s = statistics.median(total for total, _ in probes.samples)
    build_s = statistics.median(build for _, build in probes.samples)

    failed = sum(p["failed"] for p in passes)
    attempted = sum(p["attempted"] for p in passes)
    problems = [problem for p in passes for problem in p["problems"]]
    hashes = sorted({p["hash"] for p in passes})
    if len(hashes) > 1:
        problems.append(f"passes of one seed gave {len(hashes)} different reports")
    counts = passes[0]["counts"]
    counts["failed_share"] = failed / attempted if attempted else 0.0

    walls = [p["wall"] for p in passes]
    samples = [sample for p in passes for sample in p["samples"]]
    p90 = statistics.quantiles(samples, n=10, method="inclusive")[-1]
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "smoke": args.smoke,
        "traced": traced,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "node_cap": workloads.NODE_CAP,
        "budget_ms": workloads.BUDGET_MS,
        "src_lines": src_lines(),
        "mode": workload.mode.value,
        "cost_mode": counts["cost_mode"],
        "setup_probe_s": [total for total, _ in probes.samples],
        "pass_wall_s": walls,
        "report_sha256": hashes,
        "step_samples": len(samples),
        "step_samples_beyond_p90": sum(s > p90 for s in samples),
        "blp.knapsack.nodes": counts["blp.knapsack.nodes"],
        "blp.leverage.nodes": counts["blp.leverage.nodes"],
        "blp.clock_stops": counts["blp.clock_stops"],
        "exact_share": counts["exact_share"],
        "failed_share": counts["failed_share"],
        "check_problems": problems[:20],
    }

    if not traced:
        values = {
            "setup_s": setup_s,
            "wall_s": statistics.median(walls),
            "step_p50_ms": statistics.median(samples),
            "step_p90_ms": p90,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "nolev_cost_per_payment_sat": counts["nolev_cost_per_payment_sat"],
            "lev_cost_per_payment_sat": counts["lev_cost_per_payment_sat"],
        }
        units = END_TO_END_UNITS
    else:
        layers = [p["layers"] for p in passes]
        values = {name: counts[name] for name in PER_LAYER_UNITS if name in counts}
        for name in layers[0]:
            values[name] = statistics.median(layer[name] for layer in layers)
        for kind in KINDS:
            seconds = values[f"blp.{kind}.solve_s"]
            values[f"blp.{kind}.nodes_per_s"] = (
                values[f"blp.{kind}.nodes"] / seconds if seconds else 0.0
            )
        traced_wall = statistics.median(walls)
        accounted = sum(values[name] for name in SELF_METRIC.values())
        accounted += sum(values[f"blp.{kind}.solve_s"] for kind in KINDS)
        overhead = values["trace.spans"] * span_cost()
        values.update(
            {
                "datasets.build_s": build_s,
                "trace.wall_s": traced_wall,
                "trace.overhead_s": overhead,
                "trace.overhead_share": overhead / traced_wall,
                "trace.accounted_share": accounted / traced_wall,
            }
        )
        units = PER_LAYER_UNITS
        OUT.mkdir(exist_ok=True)
        trace_file = OUT / f"trace-{args.workload}-{args.seed}.json"
        trace_file.write_text(
            json.dumps({"info": info, "spans": passes[-1]["spans"]}), encoding="utf-8"
        )
        info["trace_file"] = str(trace_file.relative_to(ROOT))

    missing = set(units) - set(values)
    if missing:
        raise RuntimeError(f"metrics not computed: {sorted(missing)}")
    print("info " + json.dumps(info, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
