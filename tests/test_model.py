"""Tests for the transaction algebra module."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coinlever.model import (
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

from oracles import brute_opt, size_bytes


def make_pool(values: list[int]) -> UtxoPool:
    return UtxoPool.from_utxos(Utxo(f"u{i}", v) for i, v in enumerate(values))


def make_payments(values: list[int]) -> tuple[PaymentRequest, ...]:
    return tuple(PaymentRequest(f"p{i}", v, i) for i, v in enumerate(values))


class TestTxSize:
    def test_single_input_output_with_change(self):
        assert tx_size(1, 1, 1) == 226

    def test_metadata_only(self):
        assert tx_size(0, 0, 0) == 10

    def test_two_inputs_three_outputs(self):
        assert tx_size(2, 3, 0) == 408

    def test_rejects_bad_flag(self):
        with pytest.raises(ValueError):
            tx_size(1, 1, 2)

    def test_rejects_negative_counts(self):
        with pytest.raises(ValueError):
            tx_size(-1, 0, 0)

    @given(
        a=st.integers(min_value=0, max_value=500),
        b=st.integers(min_value=0, max_value=500),
        f=st.integers(min_value=0, max_value=1),
    )
    def test_affine_increments(self, a, b, f):
        assert tx_size(a + 1, b, f) - tx_size(a, b, f) == 148
        assert tx_size(a, b + 1, f) - tx_size(a, b, f) == 34


class TestDustThreshold:
    def test_typical_rate(self):
        assert dust_threshold(22) == 4004

    def test_zero_rate(self):
        assert dust_threshold(0) == 0

    def test_direct(self):
        assert dust_threshold(60) == 10920

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            dust_threshold(-1)


class TestFeeParams:
    def test_defaults(self):
        fees = FeeParams(gamma=22)
        assert fees.dust == 4004
        assert fees.make_change == 4004

    def test_overrides(self):
        fees = FeeParams(gamma=22, dust=1000, make_change=500)
        assert (fees.dust, fees.make_change) == (1000, 500)

    def test_make_change_defaults_to_overridden_dust(self):
        assert FeeParams(gamma=22, dust=100).make_change == 100

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(gamma=200, dust=-5, make_change=-7),
            dict(gamma=200, dust=-5),
            dict(gamma=200, make_change=-7),
            dict(gamma=-1),
        ],
    )
    def test_negative_values_rejected(self, kwargs):
        with pytest.raises(ValueError, match="must be non-negative"):
            FeeParams(**kwargs)


class TestTxCost:
    def test_one_in_one_out_with_change(self):
        tx = Transaction((Utxo("a", 10_000),), make_payments([4_000]), change=1028, overpayment=0)
        assert tx_cost(tx, FeeParams(gamma=22)) == 226 * 22

    def test_zero_rate_cost_is_overpayment(self):
        tx = Transaction((Utxo("a", 10),), make_payments([3]), change=0, overpayment=7)
        assert tx_cost(tx, FeeParams(gamma=0)) == 7

    def test_two_in_two_out_change_free(self):
        # Oracle-derived: size(2,2,0)=374 at gamma=10 plus overpayment 100.
        tx = Transaction(
            (Utxo("a", 3000), Utxo("b", 2000)),
            make_payments([600, 560]),
            change=0,
            overpayment=100,
        )
        assert size_bytes(2, 2, 0) * 10 + 100 == 3840
        assert tx_cost(tx, FeeParams(gamma=10, dust=0, make_change=100)) == 3840


class TestValidity:
    def test_conserving_free_tx(self):
        tx = Transaction((Utxo("a", 5),), make_payments([4]), change=1, overpayment=0)
        assert is_valid(tx, FeeParams(gamma=0))

    def test_unaccounted_satoshi(self):
        tx = Transaction((Utxo("a", 5),), make_payments([4]), change=0, overpayment=0)
        assert not is_valid(tx, FeeParams(gamma=0))

    @given(
        n_inputs=st.integers(min_value=1, max_value=4),
        n_outputs=st.integers(min_value=1, max_value=4),
        gamma=st.sampled_from([0, 22, 200]),
        change=st.integers(min_value=0, max_value=5000),
        overpayment=st.integers(min_value=0, max_value=5000),
        seed=st.integers(min_value=0, max_value=2**32),
    )
    def test_agrees_with_direct_reevaluation(
        self, n_inputs, n_outputs, gamma, change, overpayment, seed
    ):
        rng = random.Random(seed)
        payments = make_payments([rng.randint(1, 100_000) for _ in range(n_outputs)])
        # Build inputs that conserve exactly half the time.
        fee = size_bytes(n_inputs, n_outputs, 1 if change > 0 else 0) * gamma
        need = sum(p.value for p in payments) + change + overpayment + fee
        skew = rng.choice([0, 0, 1, -1])
        parts = [rng.randint(1, max(1, need)) for _ in range(n_inputs - 1)]
        last = need + skew - sum(parts)
        if last <= 0:
            return
        inputs = tuple(
            Utxo(f"u{i}", v) for i, v in enumerate(parts + [last])
        )
        tx = Transaction(inputs, payments, change, overpayment)
        fees = FeeParams(gamma=gamma)
        total_in = sum(v.value for v in inputs)
        total_out = sum(p.value for p in payments)
        expect = (total_in >= total_out + fee) and (
            total_in == total_out + change + overpayment + fee
        )
        assert is_valid(tx, fees) == expect


class TestGoodness:
    def test_exact_change_free(self):
        tx = Transaction((Utxo("a", 5),), make_payments([5]), change=0, overpayment=0)
        assert is_good(tx, FeeParams(gamma=0))

    def test_overpayment_above_threshold(self):
        fees = FeeParams(gamma=0, dust=0, make_change=3)
        tx = Transaction((Utxo("a", 9),), make_payments([5]), change=0, overpayment=4)
        assert is_valid(tx, fees)
        assert not is_good(tx, fees)

    def test_dust_change(self):
        fees = FeeParams(gamma=0, dust=10, make_change=5)
        tx = Transaction((Utxo("a", 14),), make_payments([5]), change=9, overpayment=0)
        assert is_valid(tx, fees)
        assert not is_good(tx, fees)

    @given(
        gamma=st.sampled_from([0, 22, 200]),
        extra=st.integers(min_value=0, max_value=50_000),
        as_change=st.booleans(),
        payment=st.integers(min_value=1, max_value=200_000),
    )
    def test_good_implies_valid(self, gamma, extra, as_change, payment):
        fees = FeeParams(gamma=gamma)
        payments = make_payments([payment])
        change, overpayment = (extra, 0) if as_change else (0, extra)
        fee = size_bytes(1, 1, 1 if change > 0 else 0) * gamma
        value = payment + change + overpayment + fee
        tx = Transaction((Utxo("a", value),), payments, change, overpayment)
        if is_good(tx, fees):
            assert is_valid(tx, fees)


class TestOpt:
    def test_scan_past_insufficient_prefixes(self):
        pool = make_pool([5, 3, 2])
        assert opt(pool, make_payments([9]), FeeParams(gamma=0)) == 3

    def test_exact_single(self):
        assert opt(make_pool([5]), make_payments([5]), FeeParams(gamma=0)) == 1

    def test_exhausted_pool(self):
        with pytest.raises(NoGoodPrefix):
            opt(make_pool([5]), make_payments([9]), FeeParams(gamma=0))

    def test_dust_gap_prefix_is_skipped(self):
        # First prefix surplus sits strictly inside (0, dust): not good.
        fees = FeeParams(gamma=0, dust=10, make_change=10)
        pool = make_pool([8, 7])
        assert opt(pool, make_payments([5]), fees) == 2

    def test_empty_payments_rejected(self):
        with pytest.raises(ValueError):
            opt(make_pool([5]), (), FeeParams(gamma=0))

    @given(
        seed=st.integers(min_value=0, max_value=2**32),
        gamma=st.sampled_from([0, 22, 60, 200]),
        n=st.integers(min_value=1, max_value=12),
        m=st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_scan_oracle(self, seed, gamma, n, m):
        rng = random.Random(seed)
        values = sorted((rng.randint(1, 400_000) for _ in range(n)), reverse=True)
        payments = [rng.randint(1, 300_000) for _ in range(m)]
        fees = FeeParams(gamma=gamma)
        expected = brute_opt(values, payments, gamma, fees.dust)
        pool = make_pool(values)
        reqs = make_payments(payments)
        if expected is None:
            with pytest.raises(NoGoodPrefix):
                opt(pool, reqs, fees)
        else:
            assert opt(pool, reqs, fees) == expected

    @given(
        seed=st.integers(min_value=0, max_value=2**32),
        gamma=st.sampled_from([0, 22, 200]),
    )
    @settings(max_examples=200, deadline=None)
    def test_monotone_under_appended_payment(self, seed, gamma):
        # Appending a payment at or above the dust threshold never shrinks
        # the required prefix (sub-dust payments can, via new exact matches).
        rng = random.Random(seed)
        fees = FeeParams(gamma=gamma)
        values = sorted(
            (rng.randint(1, 500_000) for _ in range(rng.randint(2, 12))), reverse=True
        )
        base = [rng.randint(max(1, fees.dust), 200_000) for _ in range(rng.randint(1, 3))]
        extra = rng.randint(max(1, fees.dust), 200_000)
        pool = make_pool(values)
        try:
            before = opt(pool, make_payments(base), fees)
        except NoGoodPrefix:
            return
        try:
            after = opt(pool, make_payments(base + [extra]), fees)
        except NoGoodPrefix:
            return
        assert after >= before


class TestCostDominance:
    @given(
        seed=st.integers(min_value=0, max_value=2**32),
        gamma=st.sampled_from([22, 60, 200]),
    )
    @settings(max_examples=200, deadline=None)
    def test_fewer_inputs_cost_less(self, seed, gamma):
        # Holds whenever the make-change threshold stays below one input's
        # marginal fee (148 * gamma).
        rng = random.Random(seed)
        h = rng.randint(0, 148 * gamma - 1)
        fees = FeeParams(gamma=gamma, make_change=h)
        payments = make_payments([rng.randint(1, 100_000)])
        total_p = payments[0].value

        def good_tx(n_inputs: int) -> Transaction:
            if rng.random() < 0.5:
                r = rng.randint(0, h)
                need = total_p + r + size_bytes(n_inputs, 1, 0) * gamma
                change = 0
            else:
                r = 0
                change = fees.dust + rng.randint(0, 10_000)
                need = total_p + change + size_bytes(n_inputs, 1, 1) * gamma
            parts = [rng.randint(1, need) for _ in range(n_inputs - 1)]
            last = need - sum(parts)
            if last <= 0:
                parts = [1] * (n_inputs - 1)
                last = need - sum(parts)
            inputs = tuple(Utxo(f"x{i}", v) for i, v in enumerate(parts + [last]))
            return Transaction(inputs, payments, change, r)

        a = rng.randint(1, 3)
        b = rng.randint(a + 1, a + 3)
        tx_small, tx_big = good_tx(a), good_tx(b)
        if not (is_good(tx_small, fees) and is_good(tx_big, fees)):
            return
        assert tx_cost(tx_small, fees) < tx_cost(tx_big, fees)


class TestUtxoPool:
    def test_sorted_descending(self):
        pool = make_pool([3, 9, 5])
        assert pool.values() == (9, 5, 3)

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError):
            UtxoPool.from_utxos([Utxo("a", 1), Utxo("a", 2)])

    def test_without_unknown_id(self):
        with pytest.raises(KeyError):
            make_pool([5]).without(["nope"])

    def test_insert_keeps_order(self):
        pool = make_pool([9, 3]).with_utxo(Utxo("n", 5))
        assert pool.values() == (9, 5, 3)

    def test_insert_after_equal_values(self):
        pool = make_pool([5, 5]).with_utxo(Utxo("n", 5))
        assert [u.id for u in pool] == ["u0", "u1", "n"]

    def test_zero_value_rejected(self):
        with pytest.raises(ValueError):
            Utxo("z", 0)

    def test_duplicate_id_named_on_construction(self):
        with pytest.raises(ValueError, match="duplicate UTXO id 'b'"):
            UtxoPool.from_utxos([Utxo("a", 1), Utxo("b", 3), Utxo("c", 2), Utxo("b", 2)])

    def test_index_is_not_part_of_the_value(self):
        pool = make_pool([5, 3]).with_utxo(Utxo("n", 4)).without(["u1"])
        rebuilt = UtxoPool.from_utxos([Utxo("u0", 5), Utxo("n", 4)])
        assert pool == rebuilt and hash(pool) == hash(rebuilt)
        assert repr(pool) == repr(rebuilt) and "index" not in repr(pool)


def sorted_insert(reference: list[Utxo], utxo: Utxo) -> None:
    """Insert into a largest-first list after every equal or larger value."""
    reference.insert(sum(u.value >= utxo.value for u in reference), utxo)


class TestUtxoPoolAgainstSortedList:
    """``without`` and ``with_utxo`` against a plain list kept sorted largest
    first, with few distinct values so that equal-value runs are long."""

    @given(values=st.lists(st.integers(1, 4), max_size=12), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_update_sequences(self, values, data):
        initial = [Utxo(f"u{i}", v) for i, v in enumerate(values)]
        reference: list[Utxo] = []
        for utxo in initial:
            sorted_insert(reference, utxo)
        pool = UtxoPool.from_utxos(initial)
        assert list(pool) == reference
        for step in range(data.draw(st.integers(0, 15), label="steps")):
            before, before_utxos, before_index = pool, list(pool), dict(pool.index)
            known = [u.id for u in reference]
            drawn = st.lists(st.sampled_from(known), max_size=4) if known else st.just([])
            op = data.draw(st.sampled_from(["add", "drop", "unknown", "duplicate"]))
            if op == "add":
                utxo = Utxo(f"n{step}", data.draw(st.integers(1, 4)))
                sorted_insert(reference, utxo)
                pool = pool.with_utxo(utxo)
            elif op == "drop":
                ids = data.draw(drawn)
                reference = [u for u in reference if u.id not in ids]
                pool = pool.without(ids)
            elif op == "unknown":
                unknown = data.draw(st.lists(st.sampled_from(["x", "y", "z"]), min_size=1))
                ids = data.draw(drawn) + unknown
                with pytest.raises(KeyError) as raised:
                    pool.without(data.draw(st.permutations(ids)))
                assert raised.value.args[0] == f"unknown UTXO ids: {sorted(set(unknown))}"
            elif known:
                duplicate = Utxo(data.draw(st.sampled_from(known)), data.draw(st.integers(1, 4)))
                with pytest.raises(ValueError, match=f"duplicate UTXO id {duplicate.id!r}"):
                    pool.with_utxo(duplicate)
            assert list(pool) == reference
            assert pool.index == {u.id: u.value for u in reference}
            assert pool == UtxoPool.from_utxos(reference)
            # The state an update started from is untouched by it.
            assert list(before) == before_utxos and before.index == before_index
