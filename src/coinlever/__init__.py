"""Coin selection with leverage: exact selectors, a branch-and-bound binary
program solver, an iterative orchestrator, and a seeded simulation harness."""

from .blp import (
    BlpProblem,
    LengthMismatch,
    MalformedProblem,
    SolveOutcome,
    SolveStatus,
    check_feasible,
    solve,
)
from .model import (
    Amount,
    FeeParams,
    NoGoodPrefix,
    PaymentRequest,
    Transaction,
    Utxo,
    UtxoPool,
    dust_threshold,
    is_good,
    is_valid,
    opt,
    tx_cost,
    tx_size,
)
from .orchestrator import (
    IterationRecord,
    UnknownUtxo,
    WorldState,
    apply_update,
    step,
)
from .selection import (
    BasicOutcome,
    LeverageParams,
    Method,
    SolverAttempt,
    attempt_selection,
    fallback_select,
    knapsack_select,
    leverage_select,
)
from .simulation import (
    DatasetTooSmall,
    Mode,
    SavingsSummary,
    ScenarioConfig,
    ScenarioReport,
    SweepCell,
    ZeroBaseline,
    default_sweep_configs,
    run_cell,
    run_full,
    run_scenario,
    sample_payments,
    sample_utxo_pool,
    summarize,
    sweep,
)

__all__ = [name for name in dir() if not name.startswith("_")]
