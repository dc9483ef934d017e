"""One iteration of payment-backlog processing, with pool bookkeeping.

``step`` funds the most urgent batch via the selector cascade, then updates
the world: spent UTXOs leave the pool, a fallback's change output re-enters
it, and funded payments leave the backlog. The loop that repeats it lives
in ``simulation.run_full``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .model import (
    FeeParams,
    PaymentRequest,
    Transaction,
    Utxo,
    UtxoPool,
    tx_cost,
)
from .selection import (
    BasicOutcome,
    LeverageParams,
    Method,
    SolverAttempt,
    attempt_selection,
)

DEFAULT_CANDIDATE_WINDOW = 64
# ``step`` names the change outputs it adds to the pool ``change:N`` and
# ``lev-change:N`` at iteration N, so no dataset UTXO id may use these.
CHANGE_ID_PREFIXES = ("change:", "lev-change:")


class UnknownUtxo(KeyError):
    """An iteration claims to spend a UTXO that is not in the pool."""


@dataclass(frozen=True, slots=True)
class WorldState:
    """UTXO pool, pending payments in urgency order, iteration count."""

    utxo_pool: UtxoPool
    pending: tuple[PaymentRequest, ...]
    iteration: int = 0

    @classmethod
    def initial(cls, pool: UtxoPool, payments: Sequence[PaymentRequest]) -> "WorldState":
        return cls(pool, tuple(sorted(payments, key=lambda p: p.urgency_rank)), 0)


@dataclass(frozen=True, slots=True)
class IterationRecord:
    """What one iteration did: method, transactions, and pool effects."""

    iteration: int
    method: Method
    transactions: tuple[Transaction, ...]
    processed_ids: tuple[str, ...]
    cost: int
    solver_attempts: tuple[SolverAttempt, ...]
    spent_utxo_ids: tuple[str, ...]
    change_utxo: Utxo | None


def _build_record(
    iteration: int, outcome: BasicOutcome, fees: FeeParams
) -> IterationRecord:
    transactions = outcome.transactions
    processed = tuple(p.id for tx in transactions for p in tx.payments)
    # A second transaction spends only the bridge, not a pool UTXO.
    spent = tuple(u.id for u in transactions[0].inputs)
    change_utxo = None
    if outcome.method is Method.FALLBACK and transactions[0].change > 0:
        change_utxo = Utxo(f"change:{iteration}", transactions[0].change)
    return IterationRecord(
        iteration=iteration,
        method=outcome.method,
        transactions=transactions,
        processed_ids=processed,
        cost=sum(tx_cost(tx, fees) for tx in transactions),
        solver_attempts=outcome.attempts,
        spent_utxo_ids=spent,
        change_utxo=change_utxo,
    )


def apply_update(state: WorldState, record: IterationRecord, front: int) -> WorldState:
    """Next world state after an iteration's pool and backlog effects.

    Funded payments are sought only among the first ``front`` pending ones,
    the batch and candidate window; the rest of the backlog is kept as is.
    """
    try:
        pool = state.utxo_pool.without(record.spent_utxo_ids)
    except KeyError as exc:
        raise UnknownUtxo(str(exc)) from exc
    if record.change_utxo is not None:
        pool = pool.with_utxo(record.change_utxo)
    done = set(record.processed_ids)
    pending = state.pending
    return WorldState(
        utxo_pool=pool,
        pending=tuple(p for p in pending[:front] if p.id not in done) + pending[front:],
        iteration=record.iteration,
    )


def step(
    state: WorldState,
    batch_size: int,
    fees: FeeParams,
    budget: float,
    *,
    lev: LeverageParams | None = None,
    candidate_window: int = DEFAULT_CANDIDATE_WINDOW,
    max_nodes: int | None = None,
) -> tuple[WorldState, IterationRecord]:
    """Run one iteration over the most urgent pending payments.

    Raises NoGoodPrefix (from the fallback) when the pool cannot fund even
    the current batch.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be at least 1")
    if not state.pending:
        raise ValueError("nothing pending")
    iteration = state.iteration + 1
    batch = state.pending[:batch_size]
    candidates: tuple[PaymentRequest, ...] = ()
    if lev is not None:
        candidates = state.pending[batch_size : batch_size + candidate_window]
    outcome = attempt_selection(
        state.utxo_pool,
        batch,
        fees,
        budget,
        candidates=candidates,
        lev=lev,
        max_nodes=max_nodes,
        change_id=f"lev-change:{iteration}",
    )
    record = _build_record(iteration, outcome, fees)
    return apply_update(state, record, len(batch) + len(candidates)), record
