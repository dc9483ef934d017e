"""Tests for the fallback, knapsack, and leverage selectors."""

from __future__ import annotations

import hashlib
import random
from collections import Counter
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import coinlever.selection as selection
from coinlever.blp import BlpProblem, SolveOutcome, SolveStatus, solve
from coinlever.datasets import bundled_payment_dataset, bundled_utxo_dataset
from coinlever.io import attempt_dict
from coinlever.model import (
    FeeParams,
    NoGoodPrefix,
    PaymentRequest,
    Transaction,
    Utxo,
    UtxoPool,
    is_good,
    opt,
    tx_cost,
    tx_size,
)
from coinlever.selection import (
    LeverageParams,
    Method,
    attempt_selection,
    fallback_select,
    knapsack_select,
    leverage_select,
)
from coinlever.orchestrator import WorldState
from coinlever.simulation import (
    BATCH_SWEEP,
    GAMMA_SWEEP,
    ScenarioConfig,
    derive_seed,
    sample_payments,
    sample_utxo_pool,
)

from oracles import (
    brute_cheapest_pair,
    brute_fallback,
    brute_knapsack,
    brute_leverage,
    brute_opt,
    brute_pairing,
    brute_smallest_funding_input,
    fast_knapsack,
    size_bytes,
)

GENEROUS = 60.0


def make_pool(values) -> UtxoPool:
    return UtxoPool.from_utxos(Utxo(f"u{i}", v) for i, v in enumerate(values))


def make_payments(values, prefix="p") -> tuple[PaymentRequest, ...]:
    return tuple(PaymentRequest(f"{prefix}{i}", v, i) for i, v in enumerate(values))


class TestFallback:
    def test_change_branch(self):
        tx = fallback_select(make_pool([5, 3]), make_payments([4]), FeeParams(gamma=0))
        assert [u.value for u in tx.inputs] == [5]
        assert (tx.change, tx.overpayment) == (1, 0)

    def test_exact_branch(self):
        tx = fallback_select(make_pool([5]), make_payments([5]), FeeParams(gamma=0))
        assert (tx.change, tx.overpayment) == (0, 0)

    def test_failed_goodness_check_raises(self):
        with mock.patch.object(selection, "is_good", return_value=False):
            with pytest.raises(RuntimeError):
                fallback_select(make_pool([5, 3]), make_payments([4]), FeeParams(gamma=0))

    def test_no_good_prefix_propagates(self):
        with pytest.raises(NoGoodPrefix):
            fallback_select(make_pool([5]), make_payments([9]), FeeParams(gamma=0))

    @given(
        seed=st.integers(min_value=0, max_value=2**32),
        gamma=st.sampled_from([22, 60, 200]),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_prefix_scan_oracle(self, seed, gamma):
        rng = random.Random(seed)
        values = sorted(
            (rng.randint(1, 500_000) for _ in range(rng.randint(1, 12))), reverse=True
        )
        payments = [rng.randint(1, 300_000) for _ in range(rng.randint(1, 5))]
        fees = FeeParams(gamma=gamma)
        expected = brute_fallback(values, payments, gamma, fees.dust)
        pool, reqs = make_pool(values), make_payments(payments)
        if expected is None:
            with pytest.raises(NoGoodPrefix):
                fallback_select(pool, reqs, fees)
            return
        k, change = expected
        tx = fallback_select(pool, reqs, fees)
        assert len(tx.inputs) == k
        assert tx.inputs == pool.prefix(k)
        assert (tx.change, tx.overpayment) == (change, 0)
        assert is_good(tx, fees)


class TestKnapsack:
    def test_exact_singleton(self):
        fees = FeeParams(gamma=0, dust=0, make_change=0)
        tx, attempt = knapsack_select(make_pool([5, 3, 2]), make_payments([5]), fees, GENEROUS)
        assert attempt.status is SolveStatus.OPTIMAL
        assert [u.value for u in tx.inputs] == [5]
        assert (tx.change, tx.overpayment) == (0, 0)

    def test_one_input_program_ends_at_the_root(self):
        # The smallest funding value repeats: the search would try the
        # largest values first and reach the last of the equal UTXOs in
        # pool order, and the root leaf is that same point.
        fees = FeeParams(gamma=0, dust=0, make_change=100)
        pool = make_pool([900, 700, 500, 500, 500, 100])
        tx, attempt = knapsack_select(pool, make_payments([450]), fees, GENEROUS)
        assert attempt.status is SolveStatus.OPTIMAL
        assert (attempt.nodes, attempt.limit, attempt.objective) == (0, None, 500)
        assert [u.id for u in tx.inputs] == [pool.utxos[4].id]

    def test_infeasible_at_optimal_cardinality(self):
        fees = FeeParams(gamma=0, dust=0, make_change=0)
        tx, attempt = knapsack_select(make_pool([5, 3, 2]), make_payments([9]), fees, GENEROUS)
        assert tx is None
        assert attempt.status is SolveStatus.INFEASIBLE

    def test_no_good_prefix_reason(self):
        fees = FeeParams(gamma=0, dust=0, make_change=0)
        # No program is built, so there is no attempt either.
        assert knapsack_select(make_pool([2]), make_payments([9]), fees, GENEROUS) == (None, None)

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            knapsack_select(make_pool([5]), (), FeeParams(gamma=0), GENEROUS)

    @given(
        seed=st.integers(min_value=0, max_value=2**32),
        gamma=st.sampled_from([0, 22, 200]),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_subset_enumeration(self, seed, gamma):
        rng = random.Random(seed)
        values = sorted(
            (rng.randint(1, 400_000) for _ in range(rng.randint(1, 12))), reverse=True
        )
        payments = [rng.randint(1, 200_000) for _ in range(rng.randint(1, 5))]
        # Mix exact-fit pools in so the success branch is exercised at gamma=0.
        if rng.random() < 0.5:
            subset = rng.sample(range(len(values)), rng.randint(1, len(values)))
            payments = [max(1, sum(values[i] for i in subset) - size_bytes(len(subset), 1, 0) * gamma)]
        fees = FeeParams(gamma=gamma)
        expected = brute_knapsack(values, payments, gamma, fees.make_change, fees.dust)
        pool, reqs = make_pool(values), make_payments(payments)
        tx, _ = knapsack_select(pool, reqs, fees, GENEROUS)
        if expected is None:
            assert tx is None
            return
        assert tx.overpayment == expected
        assert tx.change == 0
        assert len(tx.inputs) == opt(pool, reqs, fees)
        assert is_good(tx, fees)

    @given(
        seed=st.integers(min_value=0, max_value=2**32),
        gamma=st.sampled_from([0, 1]),
        plant=st.sampled_from(["low", "high", "random"]),
    )
    @settings(max_examples=400, deadline=None)
    def test_window_program_matches_the_whole_pool_program(self, seed, gamma, plant):
        # Few distinct values, so the pool repeats them; "low"/"high" build
        # the batch so that a pool value sits exactly on that window edge.
        rng = random.Random(seed)
        palette = [rng.randint(1, 400) for _ in range(rng.randint(1, 5))]
        values = sorted((rng.choice(palette) for _ in range(rng.randint(1, 12))), reverse=True)
        fees = FeeParams(gamma=gamma, dust=rng.randint(0, 40), make_change=rng.randint(0, 8))
        planted_k = rng.randint(1, min(6, len(values)))
        n_pay = rng.randint(1, 3)
        if plant == "low":
            target = sum(values[: planted_k - 1]) + rng.choice(values[planted_k - 1 :])
        elif plant == "high":
            rest = len(values) - planted_k + 1
            target = sum(values[rest:]) + rng.choice(values[:rest]) - fees.make_change
        else:
            target = rng.randint(1, sum(values))
        total_p = target - size_bytes(planted_k, n_pay, 0) * gamma
        if total_p < n_pay:
            return
        cuts = sorted(rng.sample(range(1, total_p), n_pay - 1))
        pool = make_pool(values)
        batch = make_payments([b - a for a, b in zip([0, *cuts], [*cuts, total_p])])

        built = []

        def spy(*args):
            built.append(BlpProblem(*args))
            return built[-1]

        with mock.patch.object(selection, "BlpProblem", spy):
            tx, attempt = knapsack_select(pool, batch, fees, GENEROUS)
        try:
            k = opt(pool, batch, fees)
        except NoGoodPrefix:
            assert (tx, attempt) == (None, None)
            return
        target = sum(p.value for p in batch) + size_bytes(k, n_pay, 0) * gamma
        upper = target + fees.make_change
        # The program holds exactly the UTXOs that fit beside the k - 1
        # largest and beside the k - 1 smallest others.
        lowest = target - sum(values[: k - 1])
        highest = upper - sum(values[len(values) - k + 1 :])
        (program,) = built
        assert list(program.objective) == [v for v in values if lowest <= v <= highest]

        n = len(values)
        rows = [([1] * n, "=", k), (values, ">=", target), (values, "<=", upper)]
        whole = solve(BlpProblem(n, values, rows), GENEROUS)
        assert (attempt.status, attempt.objective) == (whole.status, whole.objective_value)
        assert attempt.limit is whole.limit is None
        assert attempt.nodes <= whole.nodes_explored
        if tx is None:
            assert not whole.status.has_assignment
            return
        chosen = [u.id for u, bit in zip(pool, whole.assignment) if bit]
        assert [u.id for u in tx.inputs] == chosen
        assert tx.overpayment == whole.objective_value - target


def first_repetition(config: ScenarioConfig) -> tuple[UtxoPool, tuple[PaymentRequest, ...]]:
    """The pool and the pending backlog of repetition 0 of ``config``."""
    pool = sample_utxo_pool(
        bundled_utxo_dataset(),
        config.utxo_pool_size,
        random.Random(derive_seed(config.rng_seed, 0, "utxo")),
    )
    payments = sample_payments(
        bundled_payment_dataset(),
        config.payment_pool_size,
        config.effective_min_payment,
        random.Random(derive_seed(config.rng_seed, 0, "pay")),
    )
    return pool, WorldState.initial(pool, payments).pending


class TestFullScaleKnapsack:
    """Knapsack programs over the protocol's full-size pool (2,500 UTXOs)."""

    @pytest.fixture(scope="class")
    def sample(self):
        # The first batch of repetition 0 of the gamma=200, M=2 cell.
        config = ScenarioConfig(gamma=200, batch_size=2, rng_seed=2019)
        pool, pending = first_repetition(config)
        return pool, pending[: config.batch_size], config.fee_params()

    @pytest.mark.parametrize("gamma", GAMMA_SWEEP)
    def test_matches_fast_oracle(self, gamma):
        config = ScenarioConfig(gamma=gamma, batch_size=2, rng_seed=2019)
        pool, pending = first_repetition(config)
        fees = config.fee_params()
        values = list(pool.values())
        # Every batch of the backlog at every sweep batch size (opt is 1 for
        # all of them), then single payments whose target lies 0 to
        # make_change + 1 below the largest UTXO plus another (opt 2 for
        # most of them).
        batches = [
            pending[i : i + m] for m in BATCH_SWEEP for i in range(0, len(pending) - m + 1, m)
        ]
        fee2 = size_bytes(2, 1, 0) * gamma
        for j in range(1, len(values), 200):
            for d in (0, fees.make_change // 2, fees.make_change + 1):
                batches.append(make_payments([values[0] + values[j] - fee2 - d], "x"))
        by_k = Counter()
        for batch in batches:
            pay = [p.value for p in batch]
            k = brute_opt(values, pay, gamma, fees.dust)
            if k is not None and k > 2:
                continue
            by_k[k] += 1
            expected = fast_knapsack(values, pay, gamma, fees.make_change, fees.dust)
            tx, attempt = knapsack_select(pool, batch, fees, GENEROUS)
            assert (tx is None) == (expected is None)
            if tx is not None:
                target = sum(pay) + size_bytes(k, len(pay), 0) * gamma
                assert attempt.objective == target + expected
                assert tx.overpayment == expected
        assert by_k[1] >= 250 and by_k[2] >= 25

    def test_first_program_solved_to_optimality(self, sample):
        pool, batch, fees = sample
        outcome = attempt_selection(pool, batch, fees, GENEROUS, max_nodes=None)
        (attempt,) = outcome.attempts
        assert attempt.status is SolveStatus.OPTIMAL
        assert attempt.nodes <= 10_000
        # With one input the optimum is the smallest UTXO in the window.
        assert opt(pool, batch, fees) == 1
        target = sum(p.value for p in batch) + size_bytes(1, len(batch), 0) * fees.gamma
        in_window = [v for v in pool.values() if target <= v <= target + fees.make_change]
        assert attempt.objective == min(in_window)

    def test_attempt_and_report_carry_the_stop_reason(self, sample):
        # A one-input program ends at the root, so the capped call is a
        # two-input one: its first leaf, the window's two smallest UTXOs,
        # falls short of the target and the search has to branch.
        pool, _, fees = sample
        values = pool.values()
        fee2 = size_bytes(2, 1, 0) * fees.gamma
        batch = make_payments([values[0] + values[200] - fee2], "x")
        assert opt(pool, batch, fees) == 2
        (capped,) = attempt_selection(pool, batch, fees, GENEROUS, max_nodes=1).attempts
        assert capped.limit == "nodes"
        assert attempt_dict(capped)["limit"] == "nodes"
        (full,) = attempt_selection(pool, batch, fees, GENEROUS).attempts
        assert full.limit is None and full.nodes > 1
        assert attempt_dict(full)["limit"] is None

    def test_empty_window_proved_infeasible(self, sample):
        pool, _, fees = sample
        values = pool.values()
        n = len(values)
        window = fees.make_change
        # The deepest gap between neighbouring values that the window fits in.
        gap = max(i for i in range(n - 1) if values[i] - values[i + 1] > window + 1)
        target = values[gap + 1] + 1
        rows = [([1] * n, "=", 1), (values, ">=", target), (values, "<=", target + window)]
        outcome = solve(BlpProblem(n, values, rows), GENEROUS, max_nodes=2 * n)
        assert outcome.status is SolveStatus.INFEASIBLE


def planted_leverage_instance(rng: random.Random, gamma: int):
    """Random instance with one feasible leverage triple built in."""
    fees = FeeParams(gamma=gamma)
    n = rng.randint(4, 10)
    m = rng.randint(1, 2)
    values = sorted((rng.randint(50_000, 900_000) for _ in range(n)), reverse=True)
    payments = [rng.randint(10_000, 200_000) for _ in range(m)]
    k = brute_fallback(values, payments, gamma, fees.dust)
    if k is None:
        return None
    k = k[0]
    first = rng.sample(range(n), k)
    total_p = sum(payments)
    change = sum(values[i] for i in first) - total_p - size_bytes(k, m, 1) * gamma
    if change <= 0 or change < fees.dust:
        return None
    rest = [i for i in range(n) if i not in first]
    # The selector's second transaction spends the bridge alone, so most
    # instances plant no second pool input: a pair the selector must find.
    t = rng.randint(0, min(2, len(rest))) if rng.random() < 0.2 else 0
    second = rng.sample(rest, t)
    n_extra = rng.randint(1, 2)
    fee2 = size_bytes(1 + t, n_extra, 0) * gamma
    funded = change + sum(values[i] for i in second) - fee2
    if funded < n_extra:
        return None
    extras = []
    remaining = funded
    for i in range(n_extra - 1):
        part = rng.randint(1, remaining - (n_extra - 1 - i))
        extras.append(part)
        remaining -= part
    extras.append(remaining)
    cand_count = rng.randint(n_extra, 5)
    cands = extras + [rng.randint(10_000, 400_000) for _ in range(cand_count - n_extra)]
    rng.shuffle(cands)
    return values, payments, cands, n_extra


class TestLeverage:
    def test_forced_pair(self):
        fees = FeeParams(gamma=0, dust=0, make_change=0)
        lev = LeverageParams(min_extra=1, max_extra=1, boost=Fraction(1))
        (tx1, tx2), _ = leverage_select(
            make_pool([10]),
            make_payments([7]),
            make_payments([3], prefix="c"),
            fees,
            lev,
            GENEROUS,
        )
        assert [u.value for u in tx1.inputs] == [10]
        assert (tx1.change, tx1.overpayment) == (3, 0)
        assert [u.value for u in tx2.inputs] == [3]
        assert [p.value for p in tx2.payments] == [3]
        assert (tx2.change, tx2.overpayment) == (0, 0)

    def test_program_has_integer_bounds_and_no_first_input_cap_row(self):
        # make_change / 3 is fractional; the selector floors the cap itself.
        # The cap on the first inputs' sum is implied by the balance row, so
        # no "<=" row is over the first inputs alone.
        fees = FeeParams(gamma=0, dust=0, make_change=10)
        lev = LeverageParams(min_extra=1, max_extra=2, boost=Fraction(1, 3))
        candidates = make_payments([3, 5, 4], prefix="c")
        built = []

        def spy(*args):
            built.append(BlpProblem(*args))
            return built[-1]

        with mock.patch.object(selection, "BlpProblem", spy):
            pair, attempt = leverage_select(
                make_pool([10, 20, 13]), make_payments([7]), candidates, fees, lev, GENEROUS
            )
        (program,) = built
        n_in = program.n_vars - len(candidates)
        assert [type(rhs) for _, _, rhs in program.rows] == [int] * len(program.rows)
        assert not [
            coeffs for coeffs, rel, _ in program.rows
            if rel == "<=" and all(j < n_in for j, _ in coeffs)
        ]
        assert attempt.status is SolveStatus.OPTIMAL
        assert pair[1].overpayment <= 3

    def test_too_few_candidates(self):
        fees = FeeParams(gamma=0)
        lev = LeverageParams(min_extra=1, max_extra=1, boost=Fraction(1))
        result = leverage_select(make_pool([10]), make_payments([7]), (), fees, lev, GENEROUS)
        assert result == (None, None)

    def test_candidates_must_be_disjoint(self):
        fees = FeeParams(gamma=0)
        lev = LeverageParams(min_extra=1, max_extra=1, boost=Fraction(1))
        batch = make_payments([7])
        with pytest.raises(ValueError):
            leverage_select(make_pool([10]), batch, batch, fees, lev, GENEROUS)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            LeverageParams(min_extra=0, max_extra=1, boost=Fraction(1))
        with pytest.raises(ValueError):
            LeverageParams(min_extra=2, max_extra=1, boost=Fraction(1))
        with pytest.raises(ValueError):
            LeverageParams(min_extra=1, max_extra=1, boost=Fraction(3, 2))

    @given(
        seed=st.integers(min_value=0, max_value=2**32),
        gamma=st.sampled_from([0, 22, 200]),
        plant=st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_triple_enumeration(self, seed, gamma, plant):
        rng = random.Random(seed)
        fees = FeeParams(gamma=gamma)
        if plant:
            instance = planted_leverage_instance(rng, gamma)
            if instance is None:
                return
            values, payments, cands, n_extra = instance
            min_extra = rng.randint(1, n_extra)
            max_extra = rng.randint(n_extra, 5)
            beta = Fraction(rng.randint(0, 100), 100)
        else:
            values = sorted(
                (rng.randint(1, 400_000) for _ in range(rng.randint(1, 10))), reverse=True
            )
            payments = [rng.randint(1, 150_000) for _ in range(rng.randint(1, 2))]
            cands = [rng.randint(1, 200_000) for _ in range(rng.randint(0, 5))]
            min_extra = rng.randint(1, 2)
            max_extra = rng.randint(min_extra, 4)
            beta = Fraction(rng.randint(0, 100), 100)
        expected = brute_leverage(
            values, payments, cands, gamma, fees.dust, fees.make_change,
            beta, min_extra, max_extra,
        )
        pool = make_pool(values)
        batch = make_payments(payments)
        candidates = make_payments(cands, prefix="c")
        lev = LeverageParams(min_extra=min_extra, max_extra=max_extra, boost=beta)
        pair, _ = leverage_select(pool, batch, candidates, fees, lev, GENEROUS)
        # The bridge is spent alone: a pair exists exactly when the least
        # second-transaction pool-input count is 0.
        assert (pair is not None) == (expected == 0)
        if pair is not None:
            self.check_pair_invariants(pool, batch, *pair, fees, lev)

    @staticmethod
    def check_pair_invariants(pool, batch, tx1, tx2, fees, lev):
        assert is_good(tx1, fees) and is_good(tx2, fees)
        assert tx1.overpayment == 0 and tx1.change >= fees.dust
        assert tx2.change == 0 and tx2.overpayment <= lev.boost * fees.make_change
        # The second transaction spends the first's change output alone.
        (bridge,) = tx2.inputs
        assert bridge.value == tx1.change
        used1 = {u.id for u in tx1.inputs}
        assert used1 <= {u.id for u in pool}
        # Exact balance of the second transaction.
        fee2 = tx_size(1, len(tx2.payments), 0) * fees.gamma
        assert tx2.input_total == tx2.payment_total + fee2 + tx2.overpayment
        if len(tx1.inputs) == 1:
            # No unspent UTXO could fund the same pair more cheaply.
            need = tx2.payment_total + fee2
            fee1 = tx_size(1, len(batch), 1) * fees.gamma
            floor = sum(p.value for p in batch) + fee1 + max(fees.dust, need, 1)
            (first,) = tx1.inputs
            assert not [
                u for u in pool
                if u.id not in used1 and floor <= u.value < first.value
            ]

    @given(seed=st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=80, deadline=None)
    def test_zero_boost_forces_exact_second_fit(self, seed):
        rng = random.Random(seed)
        gamma = rng.choice([0, 22, 200])
        instance = planted_leverage_instance(rng, gamma)
        if instance is None:
            return
        values, payments, cands, n_extra = instance
        fees = FeeParams(gamma=gamma)
        lev = LeverageParams(min_extra=1, max_extra=max(n_extra, 2), boost=Fraction(0))
        pair, _ = leverage_select(
            make_pool(values), make_payments(payments),
            make_payments(cands, prefix="c"), fees, lev, GENEROUS,
        )
        if pair is None:
            return
        assert pair[1].overpayment == 0

    @given(
        seed=st.integers(min_value=0, max_value=2**32),
        gamma=st.sampled_from([0, 22, 200]),
    )
    @settings(max_examples=150, deadline=None)
    def test_single_input_pair_is_the_cheapest(self, seed, gamma):
        # Few distinct pool values, so equal values compete for the input.
        rng = random.Random(seed)
        fees = FeeParams(gamma=gamma)
        palette = [rng.randint(50_000, 900_000) for _ in range(rng.randint(2, 6))]
        values = sorted((rng.choice(palette) for _ in range(rng.randint(2, 9))), reverse=True)
        payments = [rng.randint(1_000, values[0] // 4) for _ in range(rng.randint(1, 2))]
        # Plant extras that the change of a random pool UTXO nearly funds.
        change = rng.choice(values) - sum(payments) - size_bytes(1, len(payments), 1) * gamma
        n_extra = rng.randint(1, 3)
        funded = change - size_bytes(1, n_extra, 0) * gamma - rng.randint(0, fees.make_change)
        if funded < n_extra:
            return
        cuts = sorted(rng.sample(range(1, funded), n_extra - 1))
        cands = [b - a for a, b in zip([0, *cuts], [*cuts, funded])]
        cands += [rng.randint(1, max(1, funded)) for _ in range(rng.randint(0, 3))]
        rng.shuffle(cands)
        min_extra = rng.randint(1, n_extra)
        max_extra = rng.randint(n_extra, 4)
        beta = Fraction(rng.randint(0, 100), 100)
        args = (gamma, fees.dust, fees.make_change, beta, min_extra, max_extra)
        if brute_opt(values, payments, gamma, fees.dust) != 1:
            return
        if brute_leverage(values, payments, cands, *args) != 0:
            return
        pool, batch = make_pool(values), make_payments(payments)
        lev = LeverageParams(min_extra=min_extra, max_extra=max_extra, boost=beta)
        pair, _ = leverage_select(
            pool, batch, make_payments(cands, prefix="c"), fees, lev, GENEROUS
        )
        tx1, tx2 = pair
        assert tx2.overpayment == brute_pairing(values, payments, cands, *args)
        self.check_pair_invariants(pool, batch, tx1, tx2, fees, lev)

    @given(
        gamma=st.sampled_from([0, 1, 22]),
        units=st.lists(st.integers(1, 3), min_size=1, max_size=6),
        spans=st.lists(
            st.tuples(st.integers(0, 7), st.sampled_from([0, 3, 40])), min_size=1, max_size=10
        ),
        payments=st.lists(st.sampled_from([5_000, 12_000]), min_size=1, max_size=2),
        make_change=st.sampled_from([4_000, 50, 0]),
        beta=st.sampled_from([Fraction(1), Fraction(1, 2), Fraction(0)]),
        min_extra=st.integers(1, 2),
        # min_extra < max_extra in about half of the examples.
        widen=st.one_of(st.just(0), st.integers(1, 2)),
    )
    @settings(max_examples=300, deadline=None)
    def test_cheapest_pair_follows_the_tie_rules(
        self, gamma, units, spans, payments, make_change, beta, min_extra, widen
    ):
        # Candidate needs less 158 gamma are multiples of 1,000, and pool
        # values sit a few units of 1,000 plus a small offset above the
        # bridge that funds nothing. So equal needs occur within and across
        # bundle sizes, and equal overpayments across first inputs.
        fees = FeeParams(gamma, make_change=make_change)
        edge = sum(payments) + size_bytes(1, len(payments), 1) * gamma + 158 * gamma
        values = sorted((edge + 1_000 * j + off for j, off in spans), reverse=True)
        cands = [1_000 * u - 34 * gamma for u in units]
        max_extra = min_extra + widen
        if brute_opt(values, payments, gamma, fees.dust) != 1:
            return
        expected = brute_cheapest_pair(
            values, payments, cands, gamma, fees.dust, make_change, beta, min_extra, max_extra
        )
        lev = LeverageParams(min_extra=min_extra, max_extra=max_extra, boost=beta)
        pair, _ = leverage_select(
            make_pool(values), make_payments(payments), make_payments(cands, prefix="c"),
            fees, lev, GENEROUS,
        )
        if expected is None:
            assert pair is None
            return
        # Fewer than 10 values and candidates, so id order is index order.
        tx1, tx2 = pair
        index, extras = expected
        assert [u.id for u in tx1.inputs] == [f"u{index}"]
        assert [p.id for p in tx2.payments] == [f"c{i}" for i in extras]

    # The solver is made to claim a pair that the sweep cannot meet: the
    # bridge of 3 funds no extra of 8, and funds the extra of 3 only with
    # an overpayment of 2 where none is allowed.
    @pytest.mark.parametrize("values, cands", [([10], [8]), ([12], [3, 10])])
    def test_solver_and_sweep_disagreement_raises(self, values, cands):
        fees = FeeParams(gamma=0, dust=0, make_change=0)
        lev = LeverageParams(min_extra=1, max_extra=1, boost=Fraction(1))

        def claim(problem, budget, max_nodes=None):
            point = (1,) + (0,) * (problem.n_vars - 1)
            return SolveOutcome(SolveStatus.OPTIMAL, point, 0, 1, None)

        with mock.patch.object(selection, "solve", claim):
            with pytest.raises(RuntimeError, match="sweep found no pair"):
                leverage_select(
                    make_pool(values), make_payments([7]), make_payments(cands, prefix="c"),
                    fees, lev, GENEROUS,
                )

    def test_equal_values_go_to_the_smallest_id(self):
        fees = FeeParams(gamma=0, dust=0, make_change=0)
        lev = LeverageParams(min_extra=1, max_extra=1, boost=Fraction(1))
        pool = UtxoPool.from_utxos([Utxo("b", 10), Utxo("c", 10), Utxo("a", 10)])
        (tx1, _), _ = leverage_select(
            pool, make_payments([7]), make_payments([3], prefix="c"), fees, lev, GENEROUS
        )
        assert tx1.inputs == (Utxo("a", 10),)

    def test_smallest_funding_input_beyond_the_bundle_gate(self):
        # 52 candidates at bundle size 3 make C(52, 3) = 22,100 bundles, more
        # than the sweep after the solve enumerates, so the solver's first
        # point stands. It tries the first inputs smallest first, so it
        # spends the smallest UTXO whose change funds some bundle.
        fees = FeeParams(gamma=1)
        lev = LeverageParams(min_extra=3, max_extra=3, boost=Fraction(1))
        payments = [10_000]
        cands = [1_000 + 37 * i for i in range(52)]
        base = 10_000 + tx_size(1, 1, 1)
        values = [base + 3_000 + 61 * i for i in range(60)]
        pool, batch = make_pool(values), make_payments(payments)
        (tx1, tx2), attempt = leverage_select(
            pool, batch, make_payments(cands, prefix="c"), fees, lev, GENEROUS
        )
        assert attempt.status is SolveStatus.OPTIMAL
        (first,) = tx1.inputs
        assert first.value == brute_smallest_funding_input(
            values, payments, cands, fees.gamma, fees.dust, fees.make_change, lev.boost, 3, 3
        )
        self.check_pair_invariants(pool, batch, tx1, tx2, fees, lev)


class TestBridgeSpentAlone:
    # At fee rate 0 the batch's 7 leaves the first input's rest as the
    # bridge, and the extra payment of 8 takes the bridge exactly.
    FEES = FeeParams(gamma=0, dust=0, make_change=0)
    LEV = LeverageParams(min_extra=1, max_extra=1, boost=Fraction(1))
    ARGS = (FEES.gamma, FEES.dust, FEES.make_change, LEV.boost, 1, 1)

    def test_bridge_alone_funds_the_extra(self):
        assert brute_leverage([15], [7], [8], *self.ARGS) == 0
        pool, batch = make_pool([15]), make_payments([7])
        pair, attempt = leverage_select(
            pool, batch, make_payments([8], prefix="c"), self.FEES, self.LEV, GENEROUS
        )
        assert (attempt.method, attempt.status, attempt.limit) == (
            Method.LEVERAGE, SolveStatus.OPTIMAL, None
        )
        TestLeverage.check_pair_invariants(pool, batch, *pair, self.FEES, self.LEV)

    # The bridge of 3 funds the extra of 8 only beside the pool's 5, or
    # beside its 2 and 3.
    @pytest.mark.parametrize("values, count", [([10, 5], 1), ([10, 2, 3], 2)])
    def test_no_pair_where_the_extra_needs_a_pool_input(self, values, count):
        assert brute_leverage(values, [7], [8], *self.ARGS) == count
        pool, batch = make_pool(values), make_payments([7])
        candidates = make_payments([8], prefix="c")
        pair, attempt = leverage_select(pool, batch, candidates, self.FEES, self.LEV, GENEROUS)
        assert pair is None
        assert (attempt.status, attempt.limit) == (SolveStatus.INFEASIBLE, None)
        outcome = attempt_selection(
            pool, batch, self.FEES, GENEROUS, candidates=candidates, lev=self.LEV
        )
        assert outcome.method is Method.FALLBACK
        assert [(a.method, a.status) for a in outcome.attempts] == [
            (Method.KNAPSACK, SolveStatus.INFEASIBLE),
            (Method.LEVERAGE, SolveStatus.INFEASIBLE),
        ]

    # The program needs 6 nodes to prove that no two of the extras take
    # the bridge of 33 exactly. It branches on the extras largest first:
    # beside 22 only an 11 would do, and without 22 the two largest left
    # sum to 22.
    CAPPED = (
        make_pool([40]),
        make_payments([7]),
        make_payments([5, 6, 7, 8, 9, 10, 12, 22], prefix="c"),
        FEES,
        LeverageParams(min_extra=2, max_extra=2, boost=Fraction(1)),
        GENEROUS,
    )

    def test_cap_stop_returns_no_pair(self):
        pair, attempt = leverage_select(*self.CAPPED, max_nodes=5)
        assert pair is None
        assert (attempt.status, attempt.nodes, attempt.limit) == (
            SolveStatus.TIMED_OUT, 5, "nodes"
        )
        pair, attempt = leverage_select(*self.CAPPED)
        assert pair is None
        assert (attempt.status, attempt.nodes, attempt.limit) == (
            SolveStatus.INFEASIBLE, 6, None
        )


class TestAttemptSelection:
    def test_knapsack_preferred(self):
        fees = FeeParams(gamma=0, dust=0, make_change=0)
        outcome = attempt_selection(make_pool([5, 3, 2]), make_payments([5]), fees, GENEROUS)
        assert outcome.method is Method.KNAPSACK
        assert len(outcome.transactions) == 1
        assert [a.method for a in outcome.attempts] == [Method.KNAPSACK]

    def test_cascade_to_leverage(self):
        fees = FeeParams(gamma=0, dust=0, make_change=0)
        lev = LeverageParams(min_extra=1, max_extra=1, boost=Fraction(1))
        outcome = attempt_selection(
            make_pool([10]),
            make_payments([7]),
            fees,
            GENEROUS,
            candidates=make_payments([3], prefix="c"),
            lev=lev,
        )
        assert outcome.method is Method.LEVERAGE
        tx1, tx2 = outcome.transactions
        assert tx2.inputs[0] == Utxo("lev-change", tx1.change)
        assert [a.method for a in outcome.attempts] == [Method.KNAPSACK, Method.LEVERAGE]
        assert outcome.attempts[0].status is SolveStatus.INFEASIBLE

    def test_cascade_to_fallback(self):
        fees = FeeParams(gamma=0, dust=0, make_change=0)
        outcome = attempt_selection(make_pool([10]), make_payments([7]), fees, GENEROUS)
        assert outcome.method is Method.FALLBACK
        assert outcome.transactions[0].change == 3
        assert costs_nonnegative(outcome, fees)

    def test_fallback_exhaustion_raises(self):
        fees = FeeParams(gamma=0)
        with pytest.raises(NoGoodPrefix):
            attempt_selection(make_pool([2]), make_payments([7]), fees, GENEROUS)


def costs_nonnegative(outcome, fees) -> bool:
    return all(tx_cost(tx, fees) >= 0 for tx in outcome.transactions)


def random_selection_instance(rng: random.Random):
    """Pool, batch, candidates, fees, leverage bounds and node cap of one
    selector call.

    Half the pools hold large values, so the batch takes one input, beside
    up to 8 candidates (now and then 30-40 of them at bundle sizes 4-5,
    past the 20,000-bundle sweep); the other half hold small values, so it
    takes two or more. Fees are sometimes custom, boosts have denominators
    3, 7 and 100, and the node cap is None, 50 or 5,000.
    """
    gamma = rng.choice([0, 1, 22, 200])
    if rng.random() < 0.3:
        fees = FeeParams(gamma, dust=rng.randint(0, 40_000), make_change=rng.randint(0, 40_000))
    else:
        fees = FeeParams(gamma)
    if rng.random() < 0.5:
        values = [rng.randint(20_000, 900_000) for _ in range(rng.randint(1, 30))]
        payments = [rng.randint(1_000, 200_000) for _ in range(rng.randint(1, 3))]
        cands = [rng.randint(500, 150_000) for _ in range(rng.randint(0, 8))]
        if rng.random() < 0.05:
            cands = [rng.randint(500, 60_000) for _ in range(rng.randint(30, 40))]
    else:
        values = [rng.randint(1_000, 60_000) for _ in range(rng.randint(2, 14))]
        payments = [rng.randint(20_000, 120_000) for _ in range(rng.randint(1, 2))]
        cands = [rng.randint(500, 40_000) for _ in range(rng.randint(0, 8))]
    min_extra = rng.randint(1, 3)
    max_extra = min_extra + rng.choice([0, 0, 1, 2])
    if len(cands) >= 30:
        min_extra, max_extra = 4, 5
    denominator = rng.choice([3, 7, 100])
    boost = Fraction(rng.randint(0, denominator), denominator)
    lev = LeverageParams(min_extra=min_extra, max_extra=max_extra, boost=boost)
    max_nodes = rng.choice([None, 50, 5_000])
    pool, batch = make_pool(values), make_payments(payments)
    return pool, batch, make_payments(cands, prefix="c"), fees, lev, max_nodes


def test_random_selections_are_pinned():
    # Every transaction, status, node count and stop reason of 1,000
    # seeded leverage and knapsack calls. A change to how the programs are
    # built or solved that is meant to leave the selectors' answers alone
    # must keep the digest; update it only with a change meant to alter
    # them.
    digest = hashlib.sha256()
    paths: Counter = Counter()
    for seed in range(1_000):
        pool, batch, cands, fees, lev, max_nodes = random_selection_instance(random.Random(seed))
        pair = leverage_select(pool, batch, cands, fees, lev, GENEROUS, max_nodes=max_nodes)
        knapsack = knapsack_select(pool, batch, fees, GENEROUS, max_nodes=max_nodes)
        digest.update(repr((pair, knapsack)).encode())
        if pair[0] is not None:
            paths["pair", min(len(pair[0][0].inputs), 2)] += 1
        if pair[1] is not None and pair[1].limit is not None:
            paths["capped"] += 1
    # The mix reaches single-input pairs, pairs of two or more first
    # inputs, and node-capped leverage calls.
    assert paths["pair", 1] > 50 and paths["pair", 2] > 20 and paths["capped"] > 20
    assert digest.hexdigest() == (
        "ec36d589c4586367406c7b024b7d5b9e1fe9857d14b9aa3afe6e7e51f6eb87ea"
    )
