"""The benchmark's workloads: scenario configs and one pass over them.

Both workloads run at full protocol scale (2,500-UTXO pools, 250 payments,
bundled datasets), keep the protocol's 50,000-node cap, and raise the
wall-clock budget far above the slowest node-capped call (about 1 s). Only
the node cap can then truncate a search, so a seed's report is the same on
every run. See README.md for why each workload exists and how it is sized.
"""

from __future__ import annotations

from dataclasses import dataclass

from coinlever.io import dumps, report_dict
from coinlever.simulation import Mode, ScenarioConfig, derive_seed, run_scenario

NODE_CAP = 50_000
BUDGET_MS = 60_000

# ((fee rate, batch size), repetitions); each repetition runs 5 iterations,
# so a pass has 100 steps and 10 step latencies lie beyond p90. In leverage
# mode the latencies form three groups: knapsack-only steps (~0.3 s), steps
# whose leverage search ends early (0.4-1 s) and steps whose leverage
# search runs to the node cap (1-1.4 s). Batch size 2 at high fee rates
# gives knapsack-only steps, about two thirds of the pass, so p50 lies
# inside that group. Batch size 10 at low fee rates gives capped leverage
# searches, a sixth to a fifth of the pass, so p90 lies inside that group.
# See README.md.
LAYOUT = (
    ((22, 10), 4),
    ((60, 10), 2),
    ((200, 2), 4),
    ((400, 2), 5),
    ((900, 2), 5),
)

MODES = {"full-nolev": Mode.NO_LEVERAGE, "full-lev": Mode.LEVERAGE}


@dataclass(frozen=True)
class Workload:
    name: str
    mode: Mode
    configs: tuple[ScenarioConfig, ...]


def make(name: str, seed: int, smoke: bool = False) -> Workload:
    """The named workload for ``seed``; ``smoke`` shrinks it to seconds."""
    if name not in MODES:
        raise ValueError(f"unknown workload {name!r}; expected one of {sorted(MODES)}")
    fields = dict(repetitions=1, budget_ms=BUDGET_MS, node_budget=NODE_CAP)
    layout = LAYOUT
    if smoke:
        fields.update(utxo_pool_size=200, payment_pool_size=40, iterations_per_sample=2)
        layout = ((LAYOUT[0][0], 1), (LAYOUT[-1][0], 1))
    # One config per repetition, taken round-robin over the cells. The
    # machine's speed drifts within a pass, and each group of step latencies
    # should sample it over the whole pass, not over one stretch of it.
    # Repetition ``rep`` of every cell draws the same pool and backlog.
    configs = tuple(
        ScenarioConfig(
            gamma=g, batch_size=m, rng_seed=derive_seed(seed, rep, "repetition"), **fields
        )
        for rep in range(max(r for _, r in layout))
        for (g, m), r in layout
        if rep < r
    )
    return Workload(name, MODES[name], configs)


@dataclass(frozen=True)
class PassResult:
    text: str  # the serialized JSON report
    reports: tuple  # one ScenarioReport per config that finished
    errors: tuple[Exception, ...]  # one per config that raised


def run_pass(workload: Workload, recorder) -> PassResult:
    """Run the workload once, serializing its JSON report.

    Like ``simulation.sweep``, one config that raises does not stop the
    others; the caller counts the error as a failure.
    """
    reports, errors = [], []
    for config in workload.configs:
        try:
            with recorder.span("simulation"):
                reports.append(run_scenario(config, workload.mode))
        except Exception as exc:  # noqa: BLE001 - per-config isolation
            errors.append(exc)
    with recorder.span("io.report"):
        text = dumps({"reports": [report_dict(r) for r in reports]})
    return PassResult(text, tuple(reports), tuple(errors))
