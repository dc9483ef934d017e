"""Tests for one orchestrator step and for whole runs of the step loop."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coinlever.model import (
    FeeParams,
    PaymentRequest,
    Utxo,
    UtxoPool,
    is_good,
    tx_cost,
)
from coinlever.orchestrator import UnknownUtxo, WorldState, apply_update, step
from coinlever.selection import LeverageParams, Method
from coinlever.simulation import run_full

GENEROUS = 30.0


def make_pool(values) -> UtxoPool:
    return UtxoPool.from_utxos(Utxo(f"u{i}", v) for i, v in enumerate(values))


def make_payments(values) -> tuple[PaymentRequest, ...]:
    return tuple(PaymentRequest(f"p{i}", v, i) for i, v in enumerate(values))


def desk_state(rng: random.Random, n_utxos=60, n_payments=12) -> WorldState:
    values = [
        max(1_000, round(rng.lognormvariate(math.log(500_000), 1.4)))
        for _ in range(n_utxos)
    ]
    payments = [
        max(5_000, round(rng.lognormvariate(math.log(400_000), 1.0)))
        for _ in range(n_payments)
    ]
    return WorldState.initial(make_pool(values), make_payments(payments))


def check_run_invariants(initial: WorldState, records, final_state: WorldState, fees: FeeParams):
    """Trace-validation oracle: goodness, conservation, disjointness, order."""
    processed: set[str] = set()
    for record in records:
        for tx in record.transactions:
            assert is_good(tx, fees)
        ids = set(record.processed_ids)
        assert not ids & processed
        processed |= ids
        assert record.cost == sum(tx_cost(tx, fees) for tx in record.transactions)
    values = final_state.utxo_pool.values()
    assert all(a >= b for a, b in zip(values, values[1:]))
    paid = sum(p.value for r in records for tx in r.transactions for p in tx.payments)
    assert initial.utxo_pool.total() == (
        final_state.utxo_pool.total() + paid + sum(r.cost for r in records)
    )
    assert final_state.iteration == initial.iteration + len(records)


class TestStepAndUpdate:
    def test_fallback_returns_change_to_pool(self):
        fees = FeeParams(gamma=0, dust=0, make_change=0)
        state = WorldState.initial(make_pool([5, 3]), make_payments([4]))
        new_state, record = step(state, 1, fees, GENEROUS)
        assert record.method is Method.FALLBACK
        assert record.change_utxo is not None and record.change_utxo.value == 1
        assert new_state.utxo_pool.values() == (3, 1)
        assert new_state.pending == ()
        assert new_state.iteration == 1

    def test_knapsack_removes_exactly_inputs(self):
        fees = FeeParams(gamma=0, dust=0, make_change=0)
        state = WorldState.initial(make_pool([5, 3, 2]), make_payments([5]))
        new_state, record = step(state, 1, fees, GENEROUS)
        assert record.method is Method.KNAPSACK
        assert len(new_state.utxo_pool) == len(state.utxo_pool) - len(record.spent_utxo_ids)
        assert new_state.utxo_pool.values() == (3, 2)

    def test_leverage_consumes_bridge_internally(self):
        fees = FeeParams(gamma=0, dust=0, make_change=0)
        lev = LeverageParams(min_extra=1, max_extra=1, boost=Fraction(1))
        state = WorldState.initial(make_pool([10]), make_payments([7, 3]))
        new_state, record = step(state, 1, fees, GENEROUS, lev=lev)
        assert record.method is Method.LEVERAGE
        assert len(record.transactions) == 2
        assert record.processed_ids == ("p0", "p1")
        assert len(new_state.utxo_pool) == 0
        assert record.change_utxo is None
        assert record.cost == 0

    def test_unknown_utxo_rejected(self):
        fees = FeeParams(gamma=0, dust=0, make_change=0)
        state = WorldState.initial(make_pool([5, 3]), make_payments([4]))
        _, record = step(state, 1, fees, GENEROUS)
        with pytest.raises(UnknownUtxo):
            apply_update(apply_update(state, record, 1), record, 1)

    def test_batch_respects_urgency_not_insertion(self):
        fees = FeeParams(gamma=0, dust=0, make_change=0)
        payments = (
            PaymentRequest("late", 3, urgency_rank=5),
            PaymentRequest("urgent", 4, urgency_rank=0),
        )
        state = WorldState.initial(make_pool([5, 3]), payments)
        _, record = step(state, 1, fees, GENEROUS)
        assert record.processed_ids == ("urgent",)


class TestFullRuns:
    def test_empty_pending_is_vacuous(self):
        state = WorldState.initial(make_pool([5]), ())
        assert run_full(state, 2, FeeParams(gamma=0), GENEROUS) == ((), state, None)

    def test_single_fallback_iteration(self):
        fees = FeeParams(gamma=0, dust=0, make_change=0)
        state = WorldState.initial(make_pool([5, 3]), make_payments([4]))
        records, final_state, failure = run_full(state, 1, fees, GENEROUS)
        assert [r.method for r in records] == [Method.FALLBACK]
        assert final_state.utxo_pool.values() == (3, 1)
        assert failure is None

    def test_leverage_trivial_pair_run(self):
        fees = FeeParams(gamma=0, dust=0, make_change=0)
        lev = LeverageParams(min_extra=1, max_extra=1, boost=Fraction(1))
        state = WorldState.initial(make_pool([10]), make_payments([7, 3]))
        (record,), _, _ = run_full(state, 1, fees, GENEROUS, lev=lev)
        assert record.cost == 0
        assert len(record.processed_ids) == 2

    def test_exhausted_carries_partial(self):
        fees = FeeParams(gamma=0, dust=0, make_change=0)
        state = WorldState.initial(make_pool([5, 4]), make_payments([5, 100]))
        records, final_state, failure = run_full(state, 1, fees, GENEROUS)
        assert [r.processed_ids for r in records] == [("p0",)]
        assert final_state.iteration == 1
        assert failure == "pool exhausted at iteration 2"

    @given(
        seed=st.integers(min_value=0, max_value=2**32),
        gamma=st.sampled_from([22, 200]),
        batch=st.sampled_from([1, 2, 3]),
    )
    @settings(max_examples=25, deadline=None)
    def test_knapsack_run_invariants(self, seed, gamma, batch):
        rng = random.Random(seed)
        state = desk_state(rng)
        fees = FeeParams(gamma=gamma)
        records, final_state, _ = run_full(state, batch, fees, GENEROUS, max_nodes=5_000)
        check_run_invariants(state, records, final_state, fees)
        assert len(records) <= math.ceil(len(state.pending) / batch)

    @given(
        seed=st.integers(min_value=0, max_value=2**32),
        gamma=st.sampled_from([22, 200]),
    )
    @settings(max_examples=25, deadline=None)
    def test_leverage_run_invariants_and_iteration_bound(self, seed, gamma):
        rng = random.Random(seed)
        state = desk_state(rng)
        fees = FeeParams(gamma=gamma)
        batch = 2
        lev = LeverageParams(min_extra=2, max_extra=2, boost=Fraction("0.54"))
        lev_records, lev_final, _ = run_full(
            state, batch, fees, GENEROUS, lev=lev, max_nodes=5_000
        )
        check_run_invariants(state, lev_records, lev_final, fees)
        knap_records, _, failure = run_full(state, batch, fees, GENEROUS, max_nodes=5_000)
        if failure is not None:
            return
        if any(r.method is Method.LEVERAGE for r in lev_records):
            assert len(lev_records) <= len(knap_records)
        # Leverage iterations fund the batch plus extras.
        for record in lev_records:
            if record.method is Method.LEVERAGE:
                assert len(record.processed_ids) == batch + len(
                    record.transactions[1].payments
                )
